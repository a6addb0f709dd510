//! Robustness pins: adversarial impairments stay bit-deterministic, and
//! the runner's fault tolerance (panic isolation, watchdog budgets,
//! resume over error records) produces valid, resumable stores.
//!
//! Two families:
//!
//! * **determinism** — the `robustness` preset (every impairment kind)
//!   serializes to byte-identical stores across reruns and 1/2/4/8-worker
//!   pools, and each impairment's event-order fingerprint is a pure
//!   function of `(spec, seed)`;
//! * **fault tolerance** — a panicking point becomes a structured error
//!   record while the rest of the campaign completes; a stalled point is
//!   cancelled by the wall-clock watchdog instead of hanging; resuming
//!   with the fault removed re-attempts exactly the failed ordinals and
//!   converges to the byte-identical full store.

use campaign::runlog::normalize_jsonl;
use campaign::runner::{resume_campaign, run_campaign_skipping};
use campaign::{
    presets, run_campaign, run_campaign_outcomes, split_outcomes, Axis, AxisValue, Campaign,
    ErrorKind, PointOutcome, ResultsStore, RunLogConfig, RunOptions,
};
use experiments::engine::{InjectedFault, ScenarioEngine, ScenarioSpec};
use experiments::figures::Scale;
use experiments::scenario::LinkSpec;
use experiments::Scheme;
use netsim::fault::{ImpairmentKind, ImpairmentSpec};
use netsim::rate::Rate;
use netsim::time::SimDuration;
use proptest::prelude::*;
use std::collections::HashSet;

fn store_bytes(campaign: &Campaign, opts: &RunOptions) -> String {
    let records = run_campaign(campaign, opts);
    ResultsStore::new(campaign, records).to_jsonl()
}

/// The whole impairment lineup (the `robustness` preset at Tiny) must
/// serialize to the exact same bytes no matter how the worker pool
/// splits the batch, and again on a rerun.
#[test]
fn impaired_stores_are_bit_identical_across_pools_and_reruns() {
    let campaign = presets::robustness(Scale::Tiny);
    let want = store_bytes(&campaign, &RunOptions::quiet().with_jobs(Some(1)));
    assert!(want.contains("\"impairments\""), "no impairment counters");
    for jobs in [1usize, 2, 4, 8] {
        let got = store_bytes(&campaign, &RunOptions::quiet().with_jobs(Some(jobs)));
        assert_eq!(got, want, "store bytes diverged at jobs={jobs}");
    }
}

/// Fingerprint of one short impaired scenario, straight off the
/// simulator (the campaign store only carries reports).
fn impaired_fingerprint(imp: ImpairmentSpec, seed: u64) -> (u64, u64) {
    let spec = ScenarioSpec::single(Scheme::Abc, LinkSpec::Constant(Rate::from_mbps(12.0)))
        .duration(SimDuration::from_millis(500))
        .warmup_secs(0)
        .seed(seed)
        .impairment(imp);
    let engine = ScenarioEngine::new();
    let mut built = engine.build(&spec);
    built.run_to_end();
    let hit: u64 = built
        .hub
        .borrow()
        .impairments
        .iter()
        .map(|i| i.impaired)
        .sum();
    (built.sim.events_fingerprint(), hit)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every impairment kind's event order is a pure function of
    /// `(spec, seed)`: rebuild and rerun → identical fingerprint.
    #[test]
    fn impairment_fingerprint_is_pure_function_of_spec_and_seed(
        kind_idx in 0usize..8,
        p in 0.01f64..0.5,
        seed in 0u64..1_000,
    ) {
        let kind = match kind_idx {
            0 => ImpairmentKind::Drop { p },
            1 => ImpairmentKind::BleachEcn { p },
            2 => ImpairmentKind::StripFeedback { p },
            3 => ImpairmentKind::GilbertElliott {
                p_good_bad: p / 2.0,
                p_bad_good: 0.3,
                loss_good: 0.0,
                loss_bad: p,
            },
            4 => ImpairmentKind::Reorder { p, hold: SimDuration::from_millis(5) },
            5 => ImpairmentKind::Jitter { max: SimDuration::from_millis(8) },
            6 => ImpairmentKind::Outage {
                start: SimDuration::from_millis(100),
                duration: SimDuration::from_millis(50),
                period: Some(SimDuration::from_millis(200)),
            },
            _ => ImpairmentKind::Decimate { keep_one_in: 3 },
        };
        let imp = if kind_idx == 2 || kind_idx == 7 {
            ImpairmentSpec::ack(kind)
        } else {
            ImpairmentSpec::data(kind)
        };
        let (fp1, hit1) = impaired_fingerprint(imp, seed);
        let (fp2, hit2) = impaired_fingerprint(imp, seed);
        prop_assert_eq!(fp1, fp2, "event order diverged on rerun");
        prop_assert_eq!(hit1, hit2, "impairment counters diverged on rerun");
    }
}

/// A heavy Bernoulli drop must actually impair packets, and its
/// fingerprint must differ from the unimpaired control — the wire is in
/// the event stream, not dead code.
#[test]
fn impairment_wire_changes_the_event_stream() {
    let drop = ImpairmentSpec::data(ImpairmentKind::Drop { p: 0.3 });
    let (impaired_fp, hit) = impaired_fingerprint(drop, 7);
    assert!(hit > 0, "30% drop over 500 ms never fired");

    let clean = ScenarioSpec::single(Scheme::Abc, LinkSpec::Constant(Rate::from_mbps(12.0)))
        .duration(SimDuration::from_millis(500))
        .warmup_secs(0)
        .seed(7);
    let engine = ScenarioEngine::new();
    let mut built = engine.build(&clean);
    built.run_to_end();
    assert_ne!(built.sim.events_fingerprint(), impaired_fp);
}

/// A 2×2 campaign whose `fault` axis injects `fault` on the second
/// value — the fixed twin passes `None` with the *same labels*, so its
/// coordinates (and store bytes) line up point for point.
fn fault_campaign(fault: Option<InjectedFault>) -> Campaign {
    let base = ScenarioSpec::single(Scheme::Abc, LinkSpec::Constant(Rate::from_mbps(12.0)))
        .duration(SimDuration::from_millis(300))
        .warmup_secs(0);
    Campaign::new("faulty", base)
        .axis(Axis::new(
            "fault",
            vec![
                ("clean".to_string(), AxisValue::Fault(None)),
                ("boom".to_string(), AxisValue::Fault(fault)),
            ],
        ))
        .axis(Axis::seeds(&[1, 2]))
}

/// A panicking point must not take the campaign down: with
/// `--keep-going` semantics every other point completes, the failed
/// ordinals carry structured `panic` error records, and the store still
/// round-trips.
#[test]
fn panicking_points_become_error_records_in_a_valid_store() {
    let campaign = fault_campaign(Some(InjectedFault::Panic));
    let opts = RunOptions::quiet().with_keep_going(true).with_retries(0);
    let outcomes = run_campaign_outcomes(&campaign, &opts);
    assert_eq!(outcomes.len(), 4);
    let (records, errors) = split_outcomes(outcomes);
    assert_eq!(records.len(), 2, "clean points must complete");
    assert_eq!(errors.len(), 2, "both boom points must fail");
    let failed: HashSet<usize> = errors.iter().map(|e| e.ordinal).collect();
    assert_eq!(failed, [2usize, 3].into_iter().collect());
    for e in &errors {
        assert_eq!(e.error.kind, ErrorKind::Panic);
        assert!(
            e.error.message.contains("injected fault"),
            "{}",
            e.error.message
        );
        assert_eq!(e.coords.get("fault"), Some("boom"));
    }

    // the partial store is valid, parseable, and remembers the errors
    let header = campaign::store::header_for(&campaign, records.len() + errors.len());
    let store = ResultsStore {
        header,
        records,
        errors,
    };
    let jsonl = store.to_jsonl();
    let loaded = ResultsStore::from_jsonl(&jsonl).expect("store with errors loads");
    assert_eq!(loaded.records.len(), 2);
    assert_eq!(loaded.errors.len(), 2);
    assert_eq!(loaded.to_jsonl(), jsonl, "reserialization diverged");
}

/// Without `keep_going` the run stops at the first failed ordinal: the
/// outcomes and the normalized run ledger hold exactly ordinals
/// `0..=first_failure`, identically at every pool size — clean points
/// after the failure that a wider pool already ran are dropped.
#[test]
fn fail_fast_stops_at_the_first_failed_ordinal_at_any_pool_size() {
    let base = ScenarioSpec::single(Scheme::Abc, LinkSpec::Constant(Rate::from_mbps(12.0)))
        .duration(SimDuration::from_millis(300))
        .warmup_secs(0);
    // ordinals 0–1 clean, 2–3 panic, 4–5 clean
    let campaign = Campaign::new("fail-fast", base)
        .axis(Axis::new(
            "fault",
            vec![
                ("clean-a".to_string(), AxisValue::Fault(None)),
                (
                    "boom".to_string(),
                    AxisValue::Fault(Some(InjectedFault::Panic)),
                ),
                ("clean-b".to_string(), AxisValue::Fault(None)),
            ],
        ))
        .axis(Axis::seeds(&[1, 2]));
    let run = |jobs: usize| {
        let path =
            std::env::temp_dir().join(format!("abc-fail-fast-{}-{jobs}.jsonl", std::process::id()));
        let opts = RunOptions::quiet()
            .with_jobs(Some(jobs))
            .with_retries(0)
            .with_runlog(Some(RunLogConfig::new(path.clone())));
        let outcomes = run_campaign_outcomes(&campaign, &opts);
        let ledger = normalize_jsonl(&std::fs::read_to_string(&path).expect("ledger written"));
        let _ = std::fs::remove_file(&path);
        (outcomes, ledger.expect("ledger normalizes"))
    };
    let (want, want_ledger) = run(1);
    let ordinals: Vec<usize> = want.iter().map(PointOutcome::ordinal).collect();
    assert_eq!(ordinals, [0, 1, 2], "stops at the first failure");
    assert!(matches!(want[2], PointOutcome::Err(_)));
    assert_eq!(want_ledger.lines().count(), 1 + 3, "{want_ledger}");
    for jobs in [2, 4] {
        let (got, ledger) = run(jobs);
        assert_eq!(got, want, "outcomes diverged at {jobs} workers");
        assert_eq!(ledger, want_ledger, "ledger diverged at {jobs} workers");
    }
}

/// Resume after the fault is removed: only the failed ordinals are
/// re-attempted, and the merged store is byte-identical to a fresh full
/// run of the fixed campaign.
#[test]
fn resume_reattempts_only_failed_points_and_converges() {
    let opts = RunOptions::quiet().with_keep_going(true).with_retries(0);
    let (clean_records, errors) = split_outcomes(run_campaign_outcomes(
        &fault_campaign(Some(InjectedFault::Panic)),
        &opts,
    ));
    assert_eq!(errors.len(), 2);

    let fixed = fault_campaign(None);
    let want = {
        let full = run_campaign(&fixed, &RunOptions::quiet());
        ResultsStore::new(&fixed, full).to_jsonl()
    };

    // the skip set derived from clean records re-attempts exactly the
    // failed ordinals
    let skip: HashSet<usize> = clean_records.iter().map(|r| r.ordinal).collect();
    let rerun = run_campaign_skipping(&fixed, &RunOptions::quiet(), &skip);
    let rerun_ordinals: HashSet<usize> = rerun.iter().map(|r| r.ordinal).collect();
    assert_eq!(rerun_ordinals, [2usize, 3].into_iter().collect());

    let resumed = resume_campaign(&fixed, &RunOptions::quiet(), clean_records);
    assert_eq!(
        ResultsStore::new(&fixed, resumed).to_jsonl(),
        want,
        "resumed store diverged from a fresh full run"
    );
}

/// A stalled point (timer loop that never advances past its re-arm) is
/// cancelled by the wall-clock watchdog and recorded as a `watchdog`
/// error; the rest of the campaign completes.
#[test]
fn watchdog_cancels_a_stalled_point() {
    let campaign = fault_campaign(Some(InjectedFault::Stall));
    let opts = RunOptions::quiet()
        .with_keep_going(true)
        .with_watchdog(Some(std::time::Duration::from_millis(100)));
    let outcomes = run_campaign_outcomes(&campaign, &opts);
    let (records, errors) = split_outcomes(outcomes);
    assert_eq!(records.len(), 2);
    assert_eq!(errors.len(), 2);
    for e in &errors {
        assert_eq!(e.error.kind, ErrorKind::Watchdog, "{}", e.error.message);
        assert!(
            e.error.message.contains("wall-clock"),
            "watchdog message should name the budget: {}",
            e.error.message
        );
    }
}
