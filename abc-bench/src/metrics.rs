//! Metric names and units (the code-side twin of `BENCHMARK.json`),
//! sample statistics, the check tally, and the result a run prints.

use crate::workload::{LINEUP, PRESETS, QDISCS};
use campaign::json::Value;

/// The end-to-end metrics `--trace 0` prints: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("points_per_s", "points/s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// The per-layer metrics with one value per run: `(name, unit)`. The
/// per-scheme, per-qdisc and per-preset families are appended by
/// [`per_layer`].
const PER_LAYER_FIXED: [(&str, &str); 45] = [
    ("netsim.event.push_pop_ns", "ns"),
    ("netsim.event.cancel_ns", "ns"),
    ("netsim.sim.events", "count"),
    ("netsim.sim.run_s", "s"),
    ("netsim.sim.ns_per_event", "ns"),
    ("netsim.sim.share", "ratio"),
    ("netsim.sim.allocs_per_event", "count"),
    ("netsim.sim.deliver_share", "ratio"),
    ("netsim.sim.timer_share", "ratio"),
    ("netsim.sim.batch_share", "ratio"),
    ("netsim.sim.pool_hit_ratio", "ratio"),
    ("netsim.tax.telemetry", "ratio"),
    ("netsim.tax.guards", "ratio"),
    ("netsim.tax.impairment", "ratio"),
    ("netsim.tax.profiler", "ratio"),
    ("netsim.tax.all_on", "ratio"),
    ("netsim.telemetry.sidecar_bytes_per_point", "B"),
    ("abc_core.router.accel_share", "ratio"),
    ("cellular.synth_ms_per_trace", "ms"),
    ("cellular.parse_mb_per_s", "MB/s"),
    ("experiments.engine.build_us", "us"),
    ("experiments.engine.finish_us", "us"),
    ("experiments.engine.build_allocs", "count"),
    ("experiments.engine.build_share", "ratio"),
    ("experiments.engine.finish_share", "ratio"),
    ("campaign.spec.expand_us_per_point", "us"),
    ("campaign.spec.expand_share", "ratio"),
    ("campaign.runner.overhead_share", "ratio"),
    ("campaign.runner.point_ms_p50", "ms"),
    ("campaign.runner.point_ms_p95", "ms"),
    ("campaign.runner.j2_speedup", "ratio"),
    ("campaign.runlog.bytes_per_point", "B"),
    ("campaign.store.render_mb_per_s", "MB/s"),
    ("campaign.store.parse_mb_per_s", "MB/s"),
    ("campaign.store.bytes_per_record", "B"),
    ("campaign.store.allocs_per_record", "count"),
    ("campaign.store.flush_share", "ratio"),
    ("campaign.store.writes_per_record", "count"),
    ("campaign.aggregate.us_per_record", "us"),
    ("campaign.figures.render_ms", "ms"),
    ("campaign.file.compile_us", "us"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
    ("trace.front_door_round_s", "s"),
    ("trace.traced_round_s", "s"),
];

/// Every per-layer metric `--trace 1` prints, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .collect();
    out.extend(
        LINEUP
            .iter()
            .map(|(slug, _)| (format!("scheme.{slug}.ns_per_event"), "ns")),
    );
    out.extend(
        QDISCS
            .iter()
            .map(|(slug, _)| (format!("qdisc.{slug}.ns_per_pkt"), "ns")),
    );
    out.extend(
        PRESETS
            .iter()
            .map(|name| (format!("preset.{name}.us_per_point"), "us")),
    );
    out
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// The value as measured, with all its digits.
    pub value: f64,
    /// The unit, as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

/// Collects the metrics of one run against a catalog, so a name that is
/// not in the catalog — or is set twice — is a bug caught at once.
pub struct MetricSet {
    catalog: Vec<(String, &'static str)>,
    values: Vec<Option<f64>>,
}

impl MetricSet {
    /// An empty set over `catalog`.
    pub fn new(catalog: Vec<(String, &'static str)>) -> MetricSet {
        let values = vec![None; catalog.len()];
        MetricSet { catalog, values }
    }

    /// Record `name`. Non-finite values (0/0 on a layer the workload
    /// never enters) are recorded as 0.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .catalog
            .iter()
            .position(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the catalog"));
        assert!(self.values[i].is_none(), "metric {name:?} set twice");
        self.values[i] = Some(if value.is_finite() { value } else { 0.0 });
    }

    /// The metrics in catalog order; panics if one was never set.
    pub fn finish(self) -> Vec<Metric> {
        self.catalog
            .into_iter()
            .zip(self.values)
            .map(|((name, unit), v)| Metric {
                value: v.unwrap_or_else(|| panic!("metric {name:?} was never set")),
                name,
                unit,
            })
            .collect()
    }
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (exclusive method); a single sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The `p`-th percentile (nearest rank) of `xs`; 0 for no samples, which
/// is what a layer the workload never enters reports.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// FNV-1a 64 over `bytes`, continuing from `state`.
pub fn fnv64(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The FNV-1a 64 offset basis.
pub const FNV_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// This process's peak resident set (`VmHWM`) in MiB, from
/// `/proc/self/status`; 0 where that file does not exist.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Correctness checks, counted against the number attempted so a
/// failure lowers the score instead of dropping out of the sample.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that did not hold.
    pub failed: u64,
    /// What each failed check found, for stderr.
    pub failures: Vec<String>,
}

impl Checks {
    /// Count one check; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// What one run of one workload produced.
#[derive(Debug)]
pub struct Outcome {
    /// The workload's name.
    pub workload: &'static str,
    /// The check tally.
    pub checks: Checks,
    /// End-to-end metrics (`--trace 0`) or per-layer metrics
    /// (`--trace 1`).
    pub metrics: Vec<Metric>,
    /// Context that is not a metric: the store digest, the exact event
    /// count, round count and quartiles, the span file.
    pub detail: Vec<(String, Value)>,
}

impl Outcome {
    /// No check failed.
    pub fn correct(&self) -> bool {
        self.checks.failed == 0
    }

    /// The `detail` member `key`.
    pub fn detail(&self, key: &str) -> Option<&Value> {
        self.detail.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The metric called `name`.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The metrics as a JSON object `{name: {value, unit}}`.
    pub fn metrics_json(&self) -> Value {
        Value::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        Value::Obj(vec![
                            ("value".into(), Value::num(m.value)),
                            ("unit".into(), Value::str(m.unit)),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The one-line JSON result the benchmark contract asks for.
    pub fn result_line(&self) -> String {
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::num(self.checks.attempted as f64)),
            ("failed".into(), Value::num(self.checks.failed as f64)),
            ("metrics".into(), self.metrics_json()),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        assert_eq!(median(&xs), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(percentile(&xs, 95.0), 10.0);
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
    }

    #[test]
    fn fnv64_matches_the_reference_vector() {
        assert_eq!(fnv64(FNV_INIT, b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn catalog_names_are_unique_and_well_formed() {
        let names: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert!(names.len() <= 128);
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
            assert_eq!(names.iter().filter(|m| *m == n).count(), 1, "{n}");
        }
    }
}
