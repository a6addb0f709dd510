//! The five workloads: what each one simulates, how a seed varies it,
//! and one pass of each through the front door.

use campaign::presets;
use campaign::spec::{Axis, Campaign};
use cellular::CellTrace;
use experiments::engine::ScenarioSpec;
use experiments::figures::Scale;
use experiments::scenario::LinkSpec;
use experiments::Scheme;
use netsim::rate::Rate;
use netsim::time::SimDuration;

/// The five workloads. Names are fixed: later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 12 schemes × 8 traces × 30 sim-s: the paper's Table 1 / Fig. 9
    /// shape; the event loop, CC, qdisc and `TraceLink` do the work.
    CellularMatrix,
    /// ABC with 100 and 1000 backlogged flows × 120 sim-s: timer wheel,
    /// RTO arm/cancel, `FlowTable` arena, same-instant batching.
    DenseFlows,
    /// Every preset at `Scale::Tiny`, four passes: per-point fixed cost
    /// (expand, build, finish, serialise, flush) dominates.
    PresetSweep,
    /// The read side: load → aggregate → CSV → rollup → figure →
    /// `to_jsonl` over the Fast-scale stores; no simulation is timed.
    StoreReadback,
    /// A 32-point subset of `cellular-matrix` with telemetry sidecars,
    /// run ledger, profiler and watchdog all on.
    CellularInstrumented,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 5] = [
        Workload::CellularMatrix,
        Workload::DenseFlows,
        Workload::PresetSweep,
        Workload::StoreReadback,
        Workload::CellularInstrumented,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CellularMatrix => "cellular-matrix",
            Workload::DenseFlows => "dense-flows",
            Workload::PresetSweep => "preset-sweep",
            Workload::StoreReadback => "store-readback",
            Workload::CellularInstrumented => "cellular-instrumented",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The timed region only reads stores; it simulates nothing.
    pub fn reads_only(self) -> bool {
        self == Workload::StoreReadback
    }

    /// Every point simulates past its measurement warm-up, so each
    /// record must show a used link. (Tiny-scale matrix presets end
    /// inside the default 5 s warm-up and legitimately report zeros.)
    pub fn records_carry_traffic(self) -> bool {
        !matches!(self, Workload::PresetSweep | Workload::StoreReadback)
    }
}

/// The cellular lineup (Fig. 8/9), with the slug each scheme's
/// per-layer metric carries.
pub const LINEUP: [(&str, Scheme); 12] = [
    ("abc", Scheme::Abc),
    ("xcp", Scheme::Xcp),
    ("xcpw", Scheme::Xcpw),
    ("cubic-codel", Scheme::CubicCodel),
    ("cubic-pie", Scheme::CubicPie),
    ("copa", Scheme::Copa),
    ("sprout", Scheme::Sprout),
    ("vegas", Scheme::Vegas),
    ("verus", Scheme::Verus),
    ("bbr", Scheme::Bbr),
    ("pcc", Scheme::Pcc),
    ("cubic", Scheme::Cubic),
];

/// The qdiscs the per-packet kernel drives, each reached through the
/// scheme whose `make_qdisc` builds it.
pub const QDISCS: [(&str, Scheme); 7] = [
    ("abc", Scheme::Abc),
    ("droptail", Scheme::Cubic),
    ("codel", Scheme::CubicCodel),
    ("pie", Scheme::CubicPie),
    ("xcp", Scheme::Xcp),
    ("rcp", Scheme::Rcp),
    ("vcp", Scheme::Vcp),
];

/// The built-in presets, by the names `presets::by_name` resolves. Fixed
/// here so the metric names cannot drift when a preset is added.
pub const PRESETS: [&str; 13] = [
    "tiny",
    "cellular-matrix",
    "explicit-matrix",
    "pareto",
    "rtt-grid",
    "seed-spread",
    "web-load-grid",
    "video-over-cellular",
    "rtc-coexist",
    "many-users",
    "robustness",
    "coexist",
    "parking-lot",
];

/// What one workload runs: the campaigns of one pass and how many
/// passes make a round. A round is the unit that is timed; it is the
/// same fixed work every time.
pub struct Plan {
    /// Which workload this is.
    pub workload: Workload,
    /// The campaigns one pass takes through the front door, each into
    /// its own store file. For `store-readback` they are simulated once
    /// in set-up and a pass reads every store back.
    pub campaigns: Vec<Campaign>,
    /// Passes per round.
    pub passes: usize,
    /// Campaign points one pass covers.
    pub points_per_pass: usize,
}

impl Plan {
    /// Build the inputs of `workload` from `seed`. `cut` shrinks the
    /// point list to a few short points (the contract test's size).
    ///
    /// Seed 0 is the built-in inputs exactly. The four simulating
    /// workloads are fixed work by construction and get the built-in
    /// inputs at every seed: reseeding traces, point order or web
    /// arrivals each changed how much work a round is (README, "Seeds").
    /// For `store-readback` the seed is XOR-ed into every campaign's
    /// `base.seed` — the seed behind web arrivals and impairment draws —
    /// so the stores the timed region parses and renders differ by seed
    /// while their size and record count stay put.
    pub fn new(workload: Workload, seed: u64, cut: bool) -> Plan {
        let (mut campaigns, passes) = match workload {
            Workload::CellularMatrix => {
                let schemes: Vec<Scheme> = LINEUP.iter().map(|(_, s)| *s).collect();
                (vec![matrix("cellular-matrix", &schemes, cut)], 1)
            }
            Workload::CellularInstrumented => {
                let schemes = [Scheme::Abc, Scheme::CubicCodel, Scheme::Cubic, Scheme::Bbr];
                (vec![matrix("cellular-instrumented", &schemes, cut)], 1)
            }
            Workload::DenseFlows => {
                let base =
                    ScenarioSpec::single(Scheme::Abc, LinkSpec::Constant(Rate::from_mbps(96.0)))
                        .duration_secs(if cut { 6 } else { 120 });
                let counts: &[u32] = if cut { &[10, 20] } else { &[100, 1_000] };
                (
                    vec![Campaign::new("dense-flows", base).axis(Axis::flow_counts(counts))],
                    1,
                )
            }
            Workload::PresetSweep => (all_presets(Scale::Tiny, cut), if cut { 1 } else { 4 }),
            Workload::StoreReadback => (
                all_presets(if cut { Scale::Tiny } else { Scale::Fast }, cut),
                if cut { 2 } else { 20 },
            ),
        };
        if workload.reads_only() {
            for c in &mut campaigns {
                c.base.seed ^= seed;
            }
        }
        let points_per_pass = campaigns.iter().map(|c| c.expand().len()).sum();
        Plan {
            workload,
            campaigns,
            passes,
            points_per_pass,
        }
    }

    /// Campaign points one round takes through the workload's pipeline.
    pub fn points_per_round(&self) -> usize {
        self.points_per_pass * self.passes
    }
}

/// The eight built-in trace profiles, regenerated here from their
/// [`cellular::synth::SynthSpec`]s (the first two when `cut`).
pub fn traces(cut: bool) -> Vec<CellTrace> {
    let mut specs = cellular::synth::builtin_specs();
    if cut {
        specs.truncate(2);
    }
    specs.iter().map(|s| s.generate()).collect()
}

/// `schemes` × the built-in traces at 30 sim-s (100 ms RTT, one flow).
/// `cut`: the first and last scheme × 2 traces × 6 sim-s, which still
/// ends past the 5 s measurement warm-up.
fn matrix(name: &str, schemes: &[Scheme], cut: bool) -> Campaign {
    let schemes: Vec<Scheme> = if cut {
        vec![schemes[0], schemes[schemes.len() - 1]]
    } else {
        schemes.to_vec()
    };
    let secs = if cut { 6 } else { 30 };
    presets::matrix_campaign(name, &schemes, &traces(cut), SimDuration::from_secs(secs))
}

/// Every preset of [`PRESETS`] at `scale` (`tiny` and `rtc-coexist`
/// when `cut`).
fn all_presets(scale: Scale, cut: bool) -> Vec<Campaign> {
    PRESETS
        .iter()
        .filter(|name| !cut || matches!(**name, "tiny" | "rtc-coexist"))
        .map(|name| preset(name, scale))
        .collect()
}

/// The built-in preset `name`; the benchmark's workloads are defined by
/// these thirteen, so losing one is not something to measure around.
pub fn preset(name: &str, scale: Scale) -> Campaign {
    presets::by_name(name, scale)
        .unwrap_or_else(|| panic!("built-in preset {name:?} no longer resolves"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_reseeds_the_stores_read_back_and_nothing_simulated() {
        let builtin = presets::by_name("rtc-coexist", Scale::Tiny).expect("preset");
        for w in Workload::ALL {
            for seed in [0, 9] {
                let expected = if w.reads_only() { seed } else { 0 };
                for c in &Plan::new(w, seed, true).campaigns {
                    assert_eq!(c.base.seed, builtin.base.seed ^ expected, "{}", c.name);
                }
            }
        }
    }

    #[test]
    fn full_plans_have_the_documented_shape() {
        assert_eq!(
            Plan::new(Workload::CellularMatrix, 0, false).points_per_round(),
            96
        );
        assert_eq!(
            Plan::new(Workload::CellularInstrumented, 0, false).points_per_round(),
            32
        );
        assert_eq!(
            Plan::new(Workload::DenseFlows, 0, false).points_per_round(),
            2
        );
        assert_eq!(
            Plan::new(Workload::PresetSweep, 0, false).points_per_round(),
            532
        );
        let readback = Plan::new(Workload::StoreReadback, 0, false);
        assert_eq!(readback.campaigns.len(), PRESETS.len());
        assert_eq!(readback.points_per_round(), 159 * 20);
        for (slug, scheme) in LINEUP {
            assert!(experiments::CELLULAR_LINEUP.contains(&scheme), "{slug}");
        }
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
    }
}
