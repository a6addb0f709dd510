//! The engine's reproducibility contract: a scenario's result is a pure
//! function of its spec (including the seed) — independent of process,
//! repetition, batch placement, or worker-pool size.

use abc_repro::abc_core::coexist::WeightPolicy;
use abc_repro::experiments::{
    LinkSpec, PoissonShortFlows, QdiscSpec, Report, ScenarioEngine, ScenarioSpec, Scheme,
};
use abc_repro::netsim::rate::Rate;

/// A spec that exercises every stochastic code path the engine owns:
/// seeded Poisson short-flow arrivals on a dual-queue router.
fn churny_spec(seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::single(Scheme::Abc, LinkSpec::Constant(Rate::from_mbps(48.0)))
        .flows(2)
        .duration_secs(4)
        .warmup_secs(1)
        .seed(seed)
        .qdisc(QdiscSpec::DualQueue(WeightPolicy::MaxMin {
            headroom: 0.10,
        }));
    spec.short_flows = Some(PoissonShortFlows {
        load: 0.25,
        bytes: 10_000,
        scheme: Scheme::Cubic,
    });
    spec
}

fn tiny(scheme: Scheme) -> ScenarioSpec {
    ScenarioSpec::single(scheme, LinkSpec::Constant(Rate::from_mbps(12.0)))
        .duration_secs(2)
        .warmup_secs(1)
}

#[test]
fn same_spec_same_seed_is_bit_identical() {
    let engine = ScenarioEngine::new();
    let a = engine.run(&churny_spec(7));
    let b = engine.run(&churny_spec(7));
    // Report compares every f64 metric and series by bit pattern: this is
    // bit-identity, not approximate equality.
    assert_eq!(a, b, "two runs of one spec diverged");
}

#[test]
fn wifi_reports_with_nan_utilization_compare_equal() {
    // Wi-Fi has no opportunity accounting, so utilization is NaN; the
    // bitwise Report comparison must still see identical runs as equal.
    let spec = ScenarioSpec::wifi(
        Scheme::AbcDt(60),
        1,
        abc_repro::experiments::McsSpec::Fixed(5),
    )
    .duration_secs(2)
    .warmup_secs(1);
    let engine = ScenarioEngine::new();
    let a = engine.run(&spec);
    assert!(a.utilization.is_nan(), "wifi utilization should be NaN");
    assert_eq!(a, engine.run(&spec), "identical wifi runs diverged");
}

#[test]
fn different_seed_changes_the_churn() {
    let engine = ScenarioEngine::new();
    let a = engine.run(&churny_spec(7));
    let b = engine.run(&churny_spec(8));
    assert_ne!(
        a, b,
        "reseeding the Poisson arrivals should perturb the run"
    );
}

#[test]
fn run_batch_is_bit_identical_to_serial() {
    let specs = vec![
        churny_spec(7),
        tiny(Scheme::Abc),
        tiny(Scheme::Cubic),
        tiny(Scheme::CubicCodel),
        tiny(Scheme::Xcp),
        tiny(Scheme::Vegas),
    ];
    let serial: Vec<Report> = specs
        .iter()
        .map(|s| ScenarioEngine::with_threads(1).run(s))
        .collect();
    for threads in [2, 4, 8] {
        let batch = ScenarioEngine::with_threads(threads).run_batch(&specs);
        assert_eq!(batch.len(), specs.len());
        for (i, (a, b)) in serial.iter().zip(&batch).enumerate() {
            assert_eq!(
                a, b,
                "spec {i} changed its result on a {threads}-thread pool"
            );
        }
    }
}

#[test]
fn run_batch_executes_scenarios_concurrently() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    // Four workers must all be inside the closure at once to get past the
    // barrier; a serial (or under-parallel) run_batch would deadlock here,
    // so finishing at all *proves* ≥4 scenarios ran in parallel. The
    // atomic records the observed concurrency for the assertion message.
    const N: usize = 4;
    let barrier = Barrier::new(N);
    let inside = AtomicUsize::new(0);
    let peak = AtomicUsize::new(0);
    let specs: Vec<ScenarioSpec> = [Scheme::Abc, Scheme::Cubic, Scheme::Vegas, Scheme::NewReno]
        .map(tiny)
        .into_iter()
        .collect();

    let reports =
        ScenarioEngine::with_threads(N).run_batch_map_indexed(&specs, |engine, spec, _| {
            let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            barrier.wait();
            inside.fetch_sub(1, Ordering::SeqCst);
            engine.run(spec)
        });

    assert_eq!(reports.len(), N);
    assert!(
        peak.load(Ordering::SeqCst) >= N,
        "observed concurrency {} < {N}",
        peak.load(Ordering::SeqCst)
    );
    for r in &reports {
        assert!(r.total_tput_mbps > 0.0, "{}", r.row());
    }
}
