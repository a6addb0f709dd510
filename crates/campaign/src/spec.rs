//! The declarative [`Campaign`] type: named axes over the scenario
//! parameters, cartesian expansion, and constraint filters.
//!
//! A campaign is a base [`ScenarioSpec`] plus an ordered list of [`Axis`]
//! values. Expansion walks the cartesian product in **row-major order**
//! (the last axis varies fastest) and applies each axis value to a clone
//! of the base spec, so the resulting [`CampaignPoint`] list is a pure,
//! deterministic function of the campaign — the property the results
//! store's bit-identical guarantee is built on. Filters drop points by
//! their coordinates *before* any simulation runs; a dropped point keeps
//! its gap in the [`CampaignPoint::ordinal`] numbering, so ordinals stay
//! stable shard ids as filters evolve.

use cellular::CellTrace;
use experiments::engine::{
    FlowSchedule, InjectedFault, PoissonShortFlows, QdiscSpec, ScenarioSpec, Topology,
    WorkloadEntry,
};
use experiments::scenario::LinkSpec;
use experiments::Scheme;
use netsim::fault::ImpairmentSpec;
use netsim::time::SimDuration;
use std::fmt;
use std::sync::Arc;

/// One setting of one axis: the scenario-parameter write it performs.
#[derive(Debug, Clone)]
pub enum AxisValue {
    /// Set the congestion-control scheme.
    Scheme(Scheme),
    /// Single-bottleneck topology over this link.
    Link(LinkSpec),
    /// Replace the whole topology (multi-hop paths).
    Topology(Topology),
    /// Replace the flow schedule.
    Flows(FlowSchedule),
    /// Override the bottleneck qdisc.
    Qdisc(QdiscSpec),
    /// Set the path round-trip propagation delay (milliseconds).
    RttMs(u64),
    /// Set the bottleneck buffer (packets).
    BufferPkts(usize),
    /// Set the simulated duration (seconds).
    DurationSecs(u64),
    /// Set the measurement warmup (seconds).
    WarmupSecs(u64),
    /// Set the seed for every stochastic choice.
    Seed(u64),
    /// Replace the spec's application-layer workload mix (web/RTC/ABR).
    Workloads(Vec<WorkloadEntry>),
    /// Set the timer-wheel slot width (`2^shift` ns slots) — a pure
    /// performance knob; outputs are invariant to it.
    TimerSlotShift(u32),
    /// Replace the spec's adversarial-impairment list. An empty list is
    /// the unimpaired control: its points build the exact same node graph
    /// as a spec with no impairment axis at all, so stored bytes match.
    Impairments(Vec<ImpairmentSpec>),
    /// Inject a test-only execution fault (`None` clears it) — the hook
    /// the fault-tolerance tests use to make exactly one point panic or
    /// stall inside a real campaign.
    Fault(Option<InjectedFault>),
    /// Set PK-ABC's oracle lookahead (`None` is plain ABC). Rust-only:
    /// campaign files have no key for it.
    OracleLookahead(Option<SimDuration>),
    /// Set the Poisson short-flow churn (`None` clears it). Rust-only:
    /// campaign files have no key for it.
    ShortFlows(Option<PoissonShortFlows>),
}

impl AxisValue {
    /// Apply this setting to a spec.
    pub fn apply(&self, spec: &mut ScenarioSpec) {
        match self {
            AxisValue::Scheme(s) => spec.scheme = *s,
            AxisValue::Link(l) => spec.topology = Topology::SingleBottleneck(l.clone()),
            AxisValue::Topology(t) => spec.topology = t.clone(),
            AxisValue::Flows(f) => spec.flows = f.clone(),
            AxisValue::Qdisc(q) => spec.qdisc = q.clone(),
            AxisValue::RttMs(ms) => spec.rtt = SimDuration::from_millis(*ms),
            AxisValue::BufferPkts(p) => spec.buffer_pkts = *p,
            AxisValue::DurationSecs(s) => spec.duration = SimDuration::from_secs(*s),
            AxisValue::WarmupSecs(s) => spec.warmup = SimDuration::from_secs(*s),
            AxisValue::Seed(s) => spec.seed = *s,
            AxisValue::Workloads(w) => spec.workloads = w.clone(),
            AxisValue::TimerSlotShift(s) => spec.timer_slot_shift = Some(*s),
            AxisValue::Impairments(i) => spec.impairments = i.clone(),
            AxisValue::Fault(f) => spec.fault = *f,
            AxisValue::OracleLookahead(d) => spec.oracle_lookahead = *d,
            AxisValue::ShortFlows(s) => spec.short_flows = s.clone(),
        }
    }
}

/// A named sweep dimension: an ordered list of labeled settings.
#[derive(Debug, Clone)]
pub struct Axis {
    /// The axis name, as store coordinates report it.
    pub name: String,
    /// `(label, setting)` — the label is what coordinates, stores, and
    /// reports show.
    pub values: Vec<(String, AxisValue)>,
}

impl Axis {
    /// An axis from explicit `(label, setting)` values (panics if
    /// `values` is empty — campaign files validate this earlier, with
    /// positions).
    pub fn new(name: impl Into<String>, values: Vec<(String, AxisValue)>) -> Axis {
        let axis = Axis {
            name: name.into(),
            values,
        };
        assert!(
            !axis.values.is_empty(),
            "axis {:?} has no values",
            axis.name
        );
        axis
    }

    /// The `"scheme"` axis, labeled with [`Scheme::name`].
    pub fn schemes(schemes: &[Scheme]) -> Axis {
        Axis::new(
            "scheme",
            schemes
                .iter()
                .map(|&s| (s.name(), AxisValue::Scheme(s)))
                .collect(),
        )
    }

    /// The `"trace"` axis: a single-bottleneck link per cellular trace.
    pub fn traces(traces: &[CellTrace]) -> Axis {
        Axis::new(
            "trace",
            traces
                .iter()
                .map(|t| (t.name.clone(), AxisValue::Link(LinkSpec::Trace(t.clone()))))
                .collect(),
        )
    }

    /// The `"rtt_ms"` axis.
    pub fn rtts_ms(rtts: &[u64]) -> Axis {
        Axis::new(
            "rtt_ms",
            rtts.iter()
                .map(|&ms| (ms.to_string(), AxisValue::RttMs(ms)))
                .collect(),
        )
    }

    /// The `"flows"` axis: `n` backlogged flows per value, labeled by the
    /// count — the client-density sweep of the many-users regime.
    pub fn flow_counts(counts: &[u32]) -> Axis {
        Axis::new(
            "flows",
            counts
                .iter()
                .map(|&n| (n.to_string(), AxisValue::Flows(FlowSchedule::backlogged(n))))
                .collect(),
        )
    }

    /// The `"seed"` axis (across-seed replication).
    pub fn seeds(seeds: &[u64]) -> Axis {
        Axis::new(
            "seed",
            seeds
                .iter()
                .map(|&s| (s.to_string(), AxisValue::Seed(s)))
                .collect(),
        )
    }

    /// A labeled topology axis (e.g. the pareto figure's down/up/two-hop
    /// paths).
    pub fn paths(name: impl Into<String>, paths: Vec<(String, Topology)>) -> Axis {
        Axis::new(
            name,
            paths
                .into_iter()
                .map(|(label, t)| (label, AxisValue::Topology(t)))
                .collect(),
        )
    }

    /// The `"impairment"` axis: each value is a labeled impairment list.
    /// Include a `("none", vec![])` value to keep an unimpaired control
    /// point in the sweep — an empty list builds the exact node graph an
    /// impairment-free spec would.
    pub fn impairments(values: Vec<(String, Vec<ImpairmentSpec>)>) -> Axis {
        Axis::new(
            "impairment",
            values
                .into_iter()
                .map(|(label, imps)| (label, AxisValue::Impairments(imps)))
                .collect(),
        )
    }

    /// Number of values on this axis.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the axis has no values (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value labels, in declaration order.
    pub fn labels(&self) -> Vec<String> {
        self.values.iter().map(|(l, _)| l.clone()).collect()
    }
}

/// A point's coordinates: `(axis name, value label)` in axis order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Coords(pub Vec<(String, String)>);

impl Coords {
    /// The label this point has on `axis`, if the campaign has that axis.
    pub fn get(&self, axis: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(a, _)| a == axis)
            .map(|(_, l)| l.as_str())
    }

    /// A stable identity string: `axis=label` pairs joined with `,`.
    pub fn key(&self) -> String {
        self.0
            .iter()
            .map(|(a, l)| format!("{a}={l}"))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// These coordinates with one axis removed (grouping across that
    /// axis, e.g. across seeds).
    pub fn without(&self, axis: &str) -> Coords {
        Coords(self.0.iter().filter(|(a, _)| a != axis).cloned().collect())
    }
}

impl fmt::Display for Coords {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.key())
    }
}

/// A named constraint over coordinates; points failing any filter are
/// skipped before execution.
#[derive(Clone)]
pub struct Filter {
    /// The filter name, recorded in store headers.
    pub name: String,
    pred: Arc<dyn Fn(&Coords) -> bool + Send + Sync>,
}

impl Filter {
    /// A named constraint from a coordinate predicate.
    pub fn new(
        name: impl Into<String>,
        pred: impl Fn(&Coords) -> bool + Send + Sync + 'static,
    ) -> Filter {
        Filter {
            name: name.into(),
            pred: Arc::new(pred),
        }
    }

    /// Does this filter keep a point at `coords`?
    pub fn accepts(&self, coords: &Coords) -> bool {
        (self.pred)(coords)
    }
}

impl fmt::Debug for Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Filter").field("name", &self.name).finish()
    }
}

/// One expanded scenario of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignPoint {
    /// Position in the *unfiltered* cartesian product — a stable shard id
    /// that doesn't shift when filters change.
    pub ordinal: usize,
    /// `(axis, label)` coordinates in axis order.
    pub coords: Coords,
    /// The concrete scenario this point runs.
    pub spec: ScenarioSpec,
}

/// A declarative sweep: base spec × named axes, minus filtered points.
/// See the [module docs](self).
///
/// ```
/// use campaign::{Axis, Campaign};
/// use experiments::engine::ScenarioSpec;
/// use experiments::scenario::LinkSpec;
/// use experiments::Scheme;
/// use netsim::rate::Rate;
///
/// let base = ScenarioSpec::single(Scheme::Abc, LinkSpec::Constant(Rate::from_mbps(12.0)));
/// let sweep = Campaign::new("demo", base)
///     .axis(Axis::schemes(&[Scheme::Abc, Scheme::Cubic]))
///     .axis(Axis::seeds(&[1, 2, 3]));
/// let points = sweep.expand();
/// assert_eq!(points.len(), 6); // row-major, last axis (seed) fastest
/// assert_eq!(points[1].coords.key(), "scheme=ABC,seed=2");
/// assert_eq!(points[4].spec.scheme, Scheme::Cubic);
/// ```
#[derive(Debug, Clone)]
pub struct Campaign {
    /// The campaign name, recorded in store headers.
    pub name: String,
    /// The scenario every point starts from.
    pub base: ScenarioSpec,
    /// The sweep dimensions, in expansion (row-major) order.
    pub axes: Vec<Axis>,
    /// Constraints dropping points before execution.
    pub filters: Vec<Filter>,
    /// Telemetry sidecar recording applied to every expanded point
    /// (`None` leaves each point's spec untouched). Sidecars never enter
    /// the results store, so this does not perturb stored bytes.
    pub telemetry: Option<netsim::telemetry::TelemetryConfig>,
}

impl Campaign {
    /// A campaign of just `base`, with no axes or filters yet.
    pub fn new(name: impl Into<String>, base: ScenarioSpec) -> Campaign {
        Campaign {
            name: name.into(),
            base,
            axes: Vec::new(),
            filters: Vec::new(),
            telemetry: None,
        }
    }

    /// Record telemetry sidecars for every point (signals and cadence per
    /// `cfg`). The runner writes them out when given a directory; the
    /// results store never sees them.
    pub fn telemetry(mut self, cfg: netsim::telemetry::TelemetryConfig) -> Campaign {
        self.telemetry = Some(cfg);
        self
    }

    /// Append an axis (panics on a duplicate axis name).
    pub fn axis(mut self, axis: Axis) -> Campaign {
        assert!(
            self.axes.iter().all(|a| a.name != axis.name),
            "duplicate axis {:?} in campaign {:?}",
            axis.name,
            self.name
        );
        self.axes.push(axis);
        self
    }

    /// Append a constraint filter.
    pub fn filter(mut self, f: Filter) -> Campaign {
        self.filters.push(f);
        self
    }

    /// Size of the full cartesian product, before filtering.
    pub fn size_unfiltered(&self) -> usize {
        self.axes.iter().map(Axis::len).product()
    }

    /// Expand into concrete scenario points, in deterministic row-major
    /// order (last axis fastest), dropping filtered points.
    pub fn expand(&self) -> Vec<CampaignPoint> {
        let total = self.size_unfiltered();
        let mut out = Vec::with_capacity(total);
        'points: for ordinal in 0..total {
            // Decode the ordinal as mixed-radix digits over the axes.
            let mut rem = ordinal;
            let mut idx = vec![0usize; self.axes.len()];
            for (k, axis) in self.axes.iter().enumerate().rev() {
                idx[k] = rem % axis.len();
                rem /= axis.len();
            }
            let coords = Coords(
                self.axes
                    .iter()
                    .zip(&idx)
                    .map(|(axis, &i)| (axis.name.clone(), axis.values[i].0.clone()))
                    .collect(),
            );
            for f in &self.filters {
                if !f.accepts(&coords) {
                    continue 'points;
                }
            }
            let mut spec = self.base.clone();
            for (axis, &i) in self.axes.iter().zip(&idx) {
                axis.values[i].1.apply(&mut spec);
            }
            if let Some(cfg) = &self.telemetry {
                spec.telemetry = Some(cfg.clone());
            }
            out.push(CampaignPoint {
                ordinal,
                coords,
                spec,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::rate::Rate;

    fn base() -> ScenarioSpec {
        ScenarioSpec::single(Scheme::Abc, LinkSpec::Constant(Rate::from_mbps(12.0)))
    }

    fn c2x3() -> Campaign {
        Campaign::new("t", base())
            .axis(Axis::schemes(&[Scheme::Abc, Scheme::Cubic]))
            .axis(Axis::rtts_ms(&[20, 50, 100]))
    }

    #[test]
    fn expansion_is_row_major_with_last_axis_fastest() {
        let pts = c2x3().expand();
        assert_eq!(pts.len(), 6);
        let keys: Vec<String> = pts.iter().map(|p| p.coords.key()).collect();
        assert_eq!(keys[0], "scheme=ABC,rtt_ms=20");
        assert_eq!(keys[1], "scheme=ABC,rtt_ms=50");
        assert_eq!(keys[3], "scheme=Cubic,rtt_ms=20");
        assert_eq!(pts[3].ordinal, 3);
        assert_eq!(pts[3].spec.scheme, Scheme::Cubic);
        assert_eq!(pts[1].spec.rtt, SimDuration::from_millis(50));
    }

    #[test]
    fn filters_drop_points_but_keep_ordinals() {
        let c = c2x3().filter(Filter::new("abc-only-short-rtt", |co: &Coords| {
            co.get("scheme") != Some("ABC") || co.get("rtt_ms") == Some("20")
        }));
        let pts = c.expand();
        assert_eq!(pts.len(), 4); // ABC keeps 1 of 3 rtts, Cubic keeps all 3
        assert_eq!(pts[0].ordinal, 0);
        assert_eq!(pts[1].ordinal, 3); // the two dropped ABC points left a gap
        for p in &pts {
            assert!(c.filters[0].accepts(&p.coords));
        }
    }

    #[test]
    fn no_axes_means_one_point() {
        let pts = Campaign::new("single", base()).expand();
        assert_eq!(pts.len(), 1);
        assert!(pts[0].coords.0.is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate axis")]
    fn duplicate_axis_panics() {
        let _ = Campaign::new("dup", base())
            .axis(Axis::seeds(&[1]))
            .axis(Axis::seeds(&[2]));
    }

    #[test]
    fn coords_key_and_without() {
        let co = Coords(vec![
            ("scheme".into(), "ABC".into()),
            ("seed".into(), "7".into()),
        ]);
        assert_eq!(co.key(), "scheme=ABC,seed=7");
        assert_eq!(co.without("seed").key(), "scheme=ABC");
        assert_eq!(co.get("seed"), Some("7"));
        assert_eq!(co.get("nope"), None);
    }
}
