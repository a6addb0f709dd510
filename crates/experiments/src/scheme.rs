//! The scheme registry: every congestion-control protocol in the paper's
//! evaluation, with its endpoint controller and (for in-network schemes)
//! its bottleneck qdisc.

use abc_core::router::{AbcQdisc, AbcRouterConfig, FeedbackBasis};
use abc_core::sender::AbcSender;
use aqm::{Codel, CodelConfig, Pie, PieConfig};
use baselines::{Bbr, Copa, Cubic, NewReno, PccVivace, Sprout, Vegas, Verus};
use explicit::{RcpQdisc, RcpSender, VcpQdisc, VcpSender, XcpConfig, XcpQdisc, XcpSender};
use netsim::flow::CongestionControl;
use netsim::queue::{DropTail, Qdisc};
use netsim::time::SimDuration;

/// Every scheme in the evaluation. `AbcDt` parameterizes the delay
/// threshold in ms (the Fig. 10 ABC_20/60/100 variants).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scheme {
    /// ABC, as published.
    Abc,
    /// ABC with a non-default delay threshold dt (ms).
    AbcDt(u64),
    /// ABC without the additive-increase term (Fig. 3 ablation).
    AbcNoAi,
    /// ABC computing f(t) from the enqueue rate (Fig. 2 ablation).
    AbcEnqueue,
    /// ABC-Cubic, the incremental-deployment endpoint (§4.1): ABC on
    /// paths that brake, per-path fallback to Cubic where nothing does.
    AbcCubic,
    /// TCP Cubic over droptail.
    Cubic,
    /// Cubic with a CoDel bottleneck.
    CubicCodel,
    /// Cubic with a PIE bottleneck.
    CubicPie,
    /// TCP NewReno.
    NewReno,
    /// TCP Vegas.
    Vegas,
    /// BBR v1.
    Bbr,
    /// Copa (NSDI '18).
    Copa,
    /// PCC Vivace-latency.
    Pcc,
    /// Sprout's packet-train forecaster.
    Sprout,
    /// Verus' delay-profile learner.
    Verus,
    /// XCP (multi-bit explicit window feedback).
    Xcp,
    /// XCPw, the paper's wireless-tuned XCP variant.
    Xcpw,
    /// RCP (router-advertised rate).
    Rcp,
    /// VCP (2-bit load factor).
    Vcp,
}

/// The scheme lineup of Fig. 8/9 (end-to-end + AQM + XCP variants).
pub const CELLULAR_LINEUP: [Scheme; 12] = [
    Scheme::Abc,
    Scheme::Xcp,
    Scheme::Xcpw,
    Scheme::CubicCodel,
    Scheme::CubicPie,
    Scheme::Copa,
    Scheme::Sprout,
    Scheme::Vegas,
    Scheme::Verus,
    Scheme::Bbr,
    Scheme::Pcc,
    Scheme::Cubic,
];

/// The explicit-scheme lineup of Fig. 16.
pub const EXPLICIT_LINEUP: [Scheme; 5] = [
    Scheme::Abc,
    Scheme::Xcp,
    Scheme::Xcpw,
    Scheme::Vcp,
    Scheme::Rcp,
];

/// The Wi-Fi lineup of Fig. 10 (Sprout/Verus excluded: cellular-specific).
pub const WIFI_LINEUP: [Scheme; 9] = [
    Scheme::AbcDt(20),
    Scheme::AbcDt(60),
    Scheme::AbcDt(100),
    Scheme::CubicCodel,
    Scheme::Copa,
    Scheme::Vegas,
    Scheme::Bbr,
    Scheme::Pcc,
    Scheme::Cubic,
];

impl Scheme {
    /// Every variant without a parameter, in declaration order
    /// (`AbcDt(ms)` is the one parameterized scheme).
    pub const ALL: [Scheme; 18] = [
        Scheme::Abc,
        Scheme::AbcNoAi,
        Scheme::AbcEnqueue,
        Scheme::AbcCubic,
        Scheme::Cubic,
        Scheme::CubicCodel,
        Scheme::CubicPie,
        Scheme::NewReno,
        Scheme::Vegas,
        Scheme::Bbr,
        Scheme::Copa,
        Scheme::Pcc,
        Scheme::Sprout,
        Scheme::Verus,
        Scheme::Xcp,
        Scheme::Xcpw,
        Scheme::Rcp,
        Scheme::Vcp,
    ];

    /// The display name (as figures, stores, and campaign files write
    /// it): `ABC`, `Cubic+Codel`, `ABC_50`, …
    pub fn name(&self) -> String {
        match self {
            Scheme::Abc => "ABC".into(),
            Scheme::AbcDt(ms) => format!("ABC_{ms}"),
            Scheme::AbcNoAi => "ABC-noAI".into(),
            Scheme::AbcEnqueue => "ABC-enq".into(),
            Scheme::AbcCubic => "ABC-Cubic".into(),
            Scheme::Cubic => "Cubic".into(),
            Scheme::CubicCodel => "Cubic+Codel".into(),
            Scheme::CubicPie => "Cubic+PIE".into(),
            Scheme::NewReno => "NewReno".into(),
            Scheme::Vegas => "Vegas".into(),
            Scheme::Bbr => "BBR".into(),
            Scheme::Copa => "Copa".into(),
            Scheme::Pcc => "PCC".into(),
            Scheme::Sprout => "Sprout".into(),
            Scheme::Verus => "Verus".into(),
            Scheme::Xcp => "XCP".into(),
            Scheme::Xcpw => "XCPw".into(),
            Scheme::Rcp => "RCP".into(),
            Scheme::Vcp => "VCP".into(),
        }
    }

    /// Parse a scheme from its display name or a common alias,
    /// case-insensitively (`-`, `_`, and `+` are interchangeable):
    /// `ABC`, `cubic-codel`, `Cubic+PIE`, `reno`, `ABC_50` / `abc-dt50`
    /// (non-default delay threshold), … The inverse of [`Scheme::name`];
    /// `abcsim --scheme` and campaign files both resolve through here,
    /// so a new variant becomes nameable everywhere at once.
    pub fn from_name(s: &str) -> Option<Scheme> {
        let norm = s.to_ascii_lowercase().replace(['-', '_'], "+");
        Some(match norm.as_str() {
            "abc" => Scheme::Abc,
            "abc+noai" => Scheme::AbcNoAi,
            "abc+enq" | "abc+enqueue" => Scheme::AbcEnqueue,
            "abc+cubic" | "abccubic" => Scheme::AbcCubic,
            "cubic" => Scheme::Cubic,
            "cubic+codel" | "codel" => Scheme::CubicCodel,
            "cubic+pie" | "pie" => Scheme::CubicPie,
            "newreno" | "reno" => Scheme::NewReno,
            "vegas" => Scheme::Vegas,
            "bbr" => Scheme::Bbr,
            "copa" => Scheme::Copa,
            "pcc" | "pcc+vivace" | "vivace" => Scheme::Pcc,
            "sprout" => Scheme::Sprout,
            "verus" => Scheme::Verus,
            "xcp" => Scheme::Xcp,
            "xcpw" | "xcp+w" => Scheme::Xcpw,
            "rcp" => Scheme::Rcp,
            "vcp" => Scheme::Vcp,
            _ => {
                // "abc-dt50" (abcsim's historical form) or "ABC_50" (the
                // display name) — both normalize onto an "abc+…" prefix.
                let ms = norm
                    .strip_prefix("abc+dt")
                    .or_else(|| norm.strip_prefix("abc+"))?;
                return ms.parse().ok().map(Scheme::AbcDt);
            }
        })
    }

    /// Is this an ABC variant (router-feedback-driven sender)?
    pub fn is_abc(&self) -> bool {
        matches!(
            self,
            Scheme::Abc
                | Scheme::AbcDt(_)
                | Scheme::AbcNoAi
                | Scheme::AbcEnqueue
                | Scheme::AbcCubic
        )
    }

    /// Build the endpoint congestion controller.
    pub fn make_cc(&self) -> Box<dyn CongestionControl> {
        match self {
            Scheme::Abc | Scheme::AbcDt(_) | Scheme::AbcEnqueue => Box::new(AbcSender::new()),
            Scheme::AbcNoAi => Box::new(AbcSender::without_additive_increase()),
            Scheme::AbcCubic => Box::new(abc_core::AbcCubic::new()),
            Scheme::Cubic | Scheme::CubicCodel | Scheme::CubicPie => Box::new(Cubic::new()),
            Scheme::NewReno => Box::new(NewReno::new()),
            Scheme::Vegas => Box::new(Vegas::new()),
            Scheme::Bbr => Box::new(Bbr::new()),
            Scheme::Copa => Box::new(Copa::new()),
            Scheme::Pcc => Box::new(PccVivace::new()),
            Scheme::Sprout => Box::new(Sprout::new()),
            Scheme::Verus => Box::new(Verus::new()),
            Scheme::Xcp | Scheme::Xcpw => Box::new(XcpSender::new()),
            Scheme::Rcp => Box::new(RcpSender::new()),
            Scheme::Vcp => Box::new(VcpSender::new()),
        }
    }

    /// Build the bottleneck qdisc this scheme runs over.
    pub fn make_qdisc(&self, buffer_pkts: usize) -> Box<dyn Qdisc> {
        match self {
            Scheme::Abc | Scheme::AbcNoAi | Scheme::AbcCubic => {
                Box::new(AbcQdisc::new(AbcRouterConfig {
                    buffer_pkts,
                    ..Default::default()
                }))
            }
            Scheme::AbcDt(ms) => Box::new(AbcQdisc::new(AbcRouterConfig {
                buffer_pkts,
                dt: SimDuration::from_millis(*ms),
                ..Default::default()
            })),
            Scheme::AbcEnqueue => Box::new(AbcQdisc::new(AbcRouterConfig {
                buffer_pkts,
                basis: FeedbackBasis::Enqueue,
                ..Default::default()
            })),
            Scheme::CubicCodel => Box::new(Codel::new(CodelConfig {
                buffer_pkts,
                ..Default::default()
            })),
            Scheme::CubicPie => Box::new(Pie::new(PieConfig {
                buffer_pkts,
                ..Default::default()
            })),
            Scheme::Xcp => Box::new(XcpQdisc::new(XcpConfig {
                buffer_pkts,
                ..Default::default()
            })),
            Scheme::Xcpw => Box::new(XcpQdisc::new(XcpConfig {
                buffer_pkts,
                ..XcpConfig::wireless()
            })),
            Scheme::Rcp => Box::new(RcpQdisc::new(explicit::RcpConfig {
                buffer_pkts,
                ..Default::default()
            })),
            Scheme::Vcp => Box::new(VcpQdisc::new(explicit::VcpConfig {
                buffer_pkts,
                ..Default::default()
            })),
            _ => Box::new(DropTail::new(buffer_pkts)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scheme_builds() {
        for s in Scheme::ALL.into_iter().chain([Scheme::AbcDt(60)]) {
            let cc = s.make_cc();
            assert!(!cc.name().is_empty());
            let q = s.make_qdisc(100);
            assert_eq!(q.len_pkts(), 0);
            assert!(!s.name().is_empty());
        }
    }

    #[test]
    fn scheme_names_round_trip() {
        for s in Scheme::ALL.into_iter().chain([Scheme::AbcDt(50)]) {
            assert_eq!(Scheme::from_name(&s.name()), Some(s), "{}", s.name());
            // `abcsim --list` prints the lowercase names
            let lower = s.name().to_ascii_lowercase();
            assert_eq!(Scheme::from_name(&lower), Some(s), "{lower}");
        }
        assert_eq!(Scheme::from_name("abc"), Some(Scheme::Abc));
        // abcsim's historical aliases resolve through the same parser
        assert_eq!(Scheme::from_name("codel"), Some(Scheme::CubicCodel));
        assert_eq!(Scheme::from_name("abc-dt50"), Some(Scheme::AbcDt(50)));
        assert_eq!(Scheme::from_name("cubic-codel"), Some(Scheme::CubicCodel));
        assert_eq!(
            Scheme::from_name("Abc_50"),
            Some(Scheme::AbcDt(50)),
            "prefix is case-insensitive"
        );
        assert_eq!(Scheme::from_name("nope"), None);
        assert_eq!(Scheme::from_name("ABC_"), None);
    }

    #[test]
    fn abc_variants_flagged() {
        assert!(Scheme::Abc.is_abc());
        assert!(Scheme::AbcDt(20).is_abc());
        assert!(Scheme::AbcCubic.is_abc());
        assert!(!Scheme::Cubic.is_abc());
        assert!(!Scheme::Xcp.is_abc());
    }
}
