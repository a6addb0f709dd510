//! The benchmark against its own contract: `BENCHMARK.json` and the
//! driver's library entry points must name the same workloads and the
//! same metrics, a fixed seed must repeat exactly, and a failed point
//! must count against the attempts instead of dropping out.
//!
//! Everything runs at the cut-down size (`Config::cut`): a handful of
//! 6-sim-s points and one timed round per workload.

use abc_bench::cli::BENCHMARK_JSON;
use abc_bench::frontdoor::{run_end_to_end, run_plan_end_to_end, Config};
use abc_bench::metrics::Outcome;
use abc_bench::traced::run_traced;
use abc_bench::workload::{Plan, Workload};
use campaign::json::{self, Value};
use campaign::spec::{Axis, AxisValue, Campaign};
use experiments::engine::{InjectedFault, ScenarioSpec};
use experiments::scenario::LinkSpec;
use experiments::Scheme;
use netsim::rate::Rate;

// the traced entry point reads allocation counts; give it a counter
#[global_allocator]
static COUNTING: abc_bench::alloc::Counting = abc_bench::alloc::Counting;

fn cut(workload: Workload) -> Config {
    Config {
        workload,
        seed: 0,
        seconds: 0.0,
        cut: true,
    }
}

/// `(name, unit)` of every entry of `BENCHMARK.json`'s `section`.
fn listed(benchmark: &Value, section: &str) -> Vec<(String, String)> {
    benchmark
        .get(section)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or_default();
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn emitted(outcome: &Outcome) -> Vec<(String, String)> {
    outcome
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_and_the_driver_agree_and_seed_zero_repeats() {
    let benchmark = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let end_to_end = listed(&benchmark, "end_to_end");
    let per_layer = listed(&benchmark, "per_layer");
    let workloads = listed(&benchmark, "workloads");
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    assert_eq!(
        workloads
            .iter()
            .map(|(n, _)| n.as_str())
            .collect::<Vec<_>>(),
        Workload::ALL.map(Workload::name),
        "BENCHMARK.json lists the driver's workloads, in order"
    );
    let mut names: Vec<&String> = end_to_end
        .iter()
        .chain(&per_layer)
        .chain(&workloads)
        .map(|(n, _)| n)
        .collect();
    assert!(names.iter().all(|n| well_formed(n)), "{names:?}");
    names.sort();
    let total = names.len();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");

    for w in Workload::ALL {
        let plain = run_end_to_end(&cut(w)).expect("end-to-end run");
        let traced = run_traced(&cut(w)).expect("traced run");
        for out in [&plain, &traced] {
            assert!(out.correct(), "{}: {:?}", w.name(), out.checks.failures);
            assert!(out.checks.attempted >= 1);
            assert!(out.metrics.iter().all(|m| m.value.is_finite()));
            assert!(json::parse(&out.result_line()).is_ok());
        }
        // exactly the listed names, each once, each with its unit
        assert_eq!(emitted(&plain), end_to_end, "{}", w.name());
        assert_eq!(emitted(&traced), per_layer, "{}", w.name());
        assert!(
            plain.metrics.iter().all(|m| m.value > 0.0),
            "{}: an end-to-end metric reads 0: {:?}",
            w.name(),
            plain.metrics
        );
        let spans = traced
            .detail("span_file")
            .and_then(Value::as_str)
            .expect("span file path");
        let trace = json::parse(&std::fs::read_to_string(spans).expect("span file"))
            .expect("span file is JSON");
        let n_spans = traced.metric("trace.spans").expect("trace.spans").value;
        assert_eq!(
            trace
                .get("traceEvents")
                .and_then(Value::as_arr)
                .map(<[Value]>::len),
            Some(n_spans as usize)
        );

        // the same seed again: same bytes, same event count
        let again = run_end_to_end(&cut(w)).expect("end-to-end rerun");
        let traced_again = run_traced(&cut(w)).expect("traced rerun");
        for other in [&traced, &again, &traced_again] {
            assert_eq!(
                other.detail("store_fnv64"),
                plain.detail("store_fnv64"),
                "{}: store digest moved",
                w.name()
            );
        }
        assert_eq!(
            traced.metric("netsim.sim.events"),
            traced_again.metric("netsim.sim.events"),
            "{}: event count moved",
            w.name()
        );
        let events = traced.metric("netsim.sim.events").expect("events").value;
        assert_eq!(events > 0.0, !w.reads_only(), "{}", w.name());
    }
}

#[test]
fn a_panicking_point_counts_against_the_attempts() {
    let make_plan = || {
        let base = ScenarioSpec::single(Scheme::Abc, LinkSpec::Constant(Rate::from_mbps(12.0)))
            .duration_secs(6);
        let faults = vec![
            ("clean".to_string(), AxisValue::Fault(None)),
            (
                "boom".to_string(),
                AxisValue::Fault(Some(InjectedFault::Panic)),
            ),
        ];
        let campaign = Campaign::new("faulty", base)
            .axis(Axis::seeds(&[1, 2]))
            .axis(Axis::new("fault", faults));
        Plan {
            workload: Workload::CellularMatrix,
            points_per_pass: campaign.expand().len(),
            campaigns: vec![campaign],
            passes: 1,
        }
    };
    let out = run_plan_end_to_end(&cut(Workload::CellularMatrix), &make_plan)
        .expect("the run itself completes");
    assert!(!out.correct(), "a failed point must fail the run");
    assert!(out.checks.failed > 0 && out.checks.failed < out.checks.attempted);
    let result = json::parse(&out.result_line()).expect("result line");
    assert_eq!(result.get("correct"), Some(&Value::Bool(false)));
    assert_eq!(
        result.get("failed").and_then(Value::as_f64),
        Some(out.checks.failed as f64)
    );
    // the clean points are still in the sample: metrics are reported
    assert!(out.metric("points_per_s").is_some_and(|m| m.value > 0.0));
}
