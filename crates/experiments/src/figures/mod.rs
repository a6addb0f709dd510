//! One module per table/figure of the paper's evaluation. Every module
//! exposes `run(scale) -> String`: the rendered rows/series the paper
//! reports, at [`Scale::Full`] (paper scale, `figgen`'s default),
//! [`Scale::Fast`] (reduced, for benches and local iteration), or
//! [`Scale::Tiny`] (≤ 2 s of simulated time per scenario, for smoke
//! tests and CI wiring checks).
//!
//! The matrix-shaped sweeps (Table 1, Figs. 8/9/15/16/18) live in the
//! `campaign` crate as [`Campaign`]-backed pure renderers; its
//! `campaign::figures::all()` merges them with [`all`] into the
//! workspace's complete figure index (what the `figgen` binary serves).
//!
//! [`Campaign`]: https://docs.rs/campaign (crates/campaign)

use netsim::time::SimDuration;

pub mod ablations;
pub mod coexistence;
pub mod explicit_figs;
pub mod motivation;
pub mod stability_fig;
pub mod wifi_figs;

/// How much simulated time a figure run spends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper scale — what `figgen` renders by default (see the README).
    Full,
    /// Reduced scale for benches and quick local runs.
    Fast,
    /// ≤ 2 s of simulated time per scenario: only checks the wiring.
    Tiny,
}

impl Scale {
    /// Pick a value per scale.
    pub fn pick<T>(self, full: T, fast: T, tiny: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Fast => fast,
            Scale::Tiny => tiny,
        }
    }

    /// Pick a duration (seconds) per scale.
    pub fn secs(self, full: u64, fast: u64, tiny: u64) -> SimDuration {
        SimDuration::from_secs(self.pick(full, fast, tiny))
    }

    /// Anything below paper scale.
    pub fn reduced(self) -> bool {
        self != Scale::Full
    }
}

/// A figure generator: renders its rows/series at the given scale.
pub type FigureFn = fn(Scale) -> String;

/// Index of the generators implemented in this crate: (id, description,
/// runner). The campaign-backed figures (table1, fig8/9/15/16/18) are
/// indexed by `campaign::figures::all()`, which merges this list.
pub fn all() -> Vec<(&'static str, &'static str, FigureFn)> {
    vec![
        (
            "fig1",
            "motivation time series (Cubic/Verus/Cubic+CoDel/ABC)",
            motivation::fig1 as FigureFn,
        ),
        ("fig2", "dequeue- vs enqueue-rate feedback", ablations::fig2),
        (
            "fig3",
            "fairness with/without additive increase",
            ablations::fig3,
        ),
        (
            "fig4",
            "Wi-Fi inter-ACK time vs batch size",
            wifi_figs::fig4,
        ),
        (
            "fig5",
            "Wi-Fi link-rate prediction accuracy",
            wifi_figs::fig5,
        ),
        (
            "fig6",
            "coexistence with a non-ABC bottleneck (dual windows)",
            coexistence::fig6,
        ),
        (
            "fig7",
            "coexistence with non-ABC flows (dual queue)",
            coexistence::fig7,
        ),
        (
            "fig10",
            "Wi-Fi throughput/delay, 1 and 2 users",
            wifi_figs::fig10,
        ),
        (
            "fig11",
            "non-ABC bottleneck with cross traffic",
            coexistence::fig11,
        ),
        (
            "fig12",
            "max-min vs Zombie-List weights under short flows",
            coexistence::fig12,
        ),
        ("fig13", "application-limited ABC flows", coexistence::fig13),
        ("fig14", "Wi-Fi Brownian-motion MCS", wifi_figs::fig14),
        (
            "fig17",
            "square-wave link time series (ABC/RCP/XCPw)",
            explicit_figs::fig17,
        ),
        (
            "pk_abc",
            "§6.6 perfect-future-knowledge ABC",
            ablations::pk_abc,
        ),
        (
            "stability",
            "Theorem 3.1 δ/τ stability sweep",
            stability_fig::stability,
        ),
        ("jain", "§6.5 Jain index, 2..32 ABC flows", ablations::jain),
        (
            "marking",
            "deterministic vs probabilistic marking ablation",
            ablations::marking,
        ),
    ]
}
