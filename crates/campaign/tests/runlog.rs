//! The run ledger's three cross-cutting contracts:
//!
//! * **quarantine** — emitting a ledger (with `--profile` on) leaves the
//!   results store byte-identical: wall-clock data never reaches the
//!   science artifact;
//! * **structural determinism** — after [`normalize_jsonl`] zeroes the
//!   wall fields, the remaining ledger bytes (ordinal set, coords,
//!   attempt counts, event counts) are bit-identical across reruns and
//!   1/2/4/8-worker pools;
//! * **fault coverage** — an injected panic appears as exactly one
//!   annotated span per retry attempt, a watchdog abort as exactly one
//!   span, and both survive into the Perfetto trace and run report.

use campaign::runlog::{normalize_jsonl, RunLedger, SpanOutcome};
use campaign::runner::run_campaign;
use campaign::{presets, run_campaign_outcomes, Axis, AxisValue, Campaign, RunOptions};
use experiments::engine::{InjectedFault, ScenarioSpec};
use experiments::figures::Scale;
use experiments::scenario::LinkSpec;
use experiments::Scheme;
use netsim::rate::Rate;
use netsim::time::SimDuration;
use std::path::PathBuf;

/// A scratch path under the system temp dir, unique per test name.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("abc-runlog-test-{}-{name}", std::process::id()))
}

/// Run `campaign` with a ledger attached and return the ledger text.
/// Uses the outcome-returning entry point so injected faults surface as
/// ledger spans, not test aborts.
fn ledger_text(campaign: &Campaign, opts: RunOptions, name: &str) -> String {
    let path = scratch(name);
    let opts = opts.with_runlog(Some(campaign::RunLogConfig::new(path.clone())));
    run_campaign_outcomes(campaign, &opts);
    let text = std::fs::read_to_string(&path).expect("ledger file was written");
    let _ = std::fs::remove_file(&path);
    text
}

/// The 2×2 fault campaign from the robustness suite: ordinals 2 and 3
/// (the `boom` half of the `fault` axis) carry the injected fault.
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

/// Normalized ledger bytes are a pure function of the campaign: the
/// same campaign at 1/2/4/8 workers — and again on a rerun — produces
/// bit-identical normalized ledgers: the v2 header, then one point span
/// per ordinal, in ordinal order.
#[test]
fn normalized_ledger_is_bit_identical_across_pools_and_reruns() {
    let campaign = presets::tiny(Scale::Tiny);
    let run = |jobs: usize, tag: &str| -> String {
        let opts = RunOptions::quiet().with_jobs(Some(jobs));
        let text = ledger_text(&campaign, opts, &format!("pools-{jobs}-{tag}"));
        normalize_jsonl(&text).expect("ledger normalizes")
    };
    let want = run(1, "a");
    assert!(want.starts_with("{\"schema\":\"abc-runlog/v2\""), "{want}");
    let spans: Vec<&str> = want.lines().skip(1).collect();
    assert_eq!(spans.len(), campaign.expand().len(), "{want}");
    for (ordinal, line) in spans.iter().enumerate() {
        assert!(
            line.starts_with(&format!("{{\"span\":\"point\",\"ordinal\":{ordinal},")),
            "{line}"
        );
    }
    for jobs in [1usize, 2, 4, 8] {
        assert_eq!(
            run(jobs, "b"),
            want,
            "normalized ledger diverged at jobs={jobs}"
        );
    }

    // and the raw (un-normalized) ledger round-trips through the parser
    let raw = ledger_text(
        &campaign,
        RunOptions::quiet().with_jobs(Some(2)),
        "roundtrip",
    );
    let ledger = RunLedger::from_jsonl(&raw).expect("ledger parses");
    assert_eq!(ledger.to_jsonl(), raw, "parse → serialize is not identity");
}

/// The quarantine invariant: a run with the ledger *and* the profiler on
/// stores exactly the bytes a bare run stores. Wall-clock observability
/// must be a separate artifact stream, never a store perturbation.
#[test]
fn runlog_and_profile_leave_the_results_store_byte_identical() {
    let campaign = presets::tiny(Scale::Tiny);
    let bare =
        campaign::ResultsStore::new(&campaign, run_campaign(&campaign, &RunOptions::quiet()))
            .to_jsonl();

    let path = scratch("quarantine");
    let opts = RunOptions::quiet()
        .with_runlog(Some(campaign::RunLogConfig::new(path.clone())))
        .with_profile(true);
    let instrumented =
        campaign::ResultsStore::new(&campaign, run_campaign(&campaign, &opts)).to_jsonl();
    let ledger = std::fs::read_to_string(&path).expect("ledger written");
    let _ = std::fs::remove_file(&path);

    assert_eq!(
        instrumented, bare,
        "runlog/profile leaked into the results store"
    );
    // ... while the wall data landed in the ledger, profile included
    assert!(ledger.contains("\"profile\":{"), "no profile objects");
    assert!(ledger.contains("deliver_frac"), "no phase fractions");
}

/// Every panic retry is one annotated span: with `retries = 2` a
/// persistently panicking point produces exactly three spans (attempts
/// 0, 1, 2), each carrying `outcome: panic` and the payload message,
/// while clean points produce exactly one `ok` span.
#[test]
fn panic_retries_appear_as_one_annotated_span_per_attempt() {
    let campaign = fault_campaign(Some(InjectedFault::Panic));
    let opts = RunOptions::quiet().with_keep_going(true).with_retries(2);
    let text = ledger_text(&campaign, opts, "panics");
    let ledger = RunLedger::from_jsonl(&text).expect("ledger parses");

    for ordinal in [0usize, 1] {
        let spans: Vec<_> = ledger
            .points
            .iter()
            .filter(|p| p.ordinal == ordinal)
            .collect();
        assert_eq!(spans.len(), 1, "clean ordinal {ordinal}");
        assert!(spans[0].outcome.is_ok());
    }
    for ordinal in [2usize, 3] {
        let spans: Vec<_> = ledger
            .points
            .iter()
            .filter(|p| p.ordinal == ordinal)
            .collect();
        assert_eq!(spans.len(), 3, "retries=2 must yield 3 attempts");
        for (i, span) in spans.iter().enumerate() {
            assert_eq!(span.attempt as usize, i, "attempt numbering");
            match &span.outcome {
                SpanOutcome::Panic(msg) => {
                    assert!(msg.contains("injected fault"), "unannotated panic: {msg}")
                }
                other => panic!("ordinal {ordinal} attempt {i}: expected panic, got {other:?}"),
            }
        }
    }
}

/// A watchdog abort is never retried, so it appears as exactly one span
/// with the deterministic abort description.
#[test]
fn watchdog_abort_is_exactly_one_annotated_span() {
    let campaign = fault_campaign(Some(InjectedFault::Stall));
    let opts = RunOptions::quiet()
        .with_keep_going(true)
        .with_retries(2)
        .with_watchdog(Some(std::time::Duration::from_millis(100)));
    let text = ledger_text(&campaign, opts, "watchdog");
    let ledger = RunLedger::from_jsonl(&text).expect("ledger parses");

    for ordinal in [2usize, 3] {
        let spans: Vec<_> = ledger
            .points
            .iter()
            .filter(|p| p.ordinal == ordinal)
            .collect();
        assert_eq!(spans.len(), 1, "watchdog aborts must not retry");
        match &spans[0].outcome {
            SpanOutcome::Watchdog(msg) => {
                assert!(msg.contains("wall-clock"), "unannotated abort: {msg}")
            }
            other => panic!("ordinal {ordinal}: expected watchdog, got {other:?}"),
        }
    }
}

/// The Perfetto export stays balanced and complete even over a ledger
/// with faults and retries: begin/end counts match, and every executed
/// span — retries included — appears as a named point event.
#[test]
fn trace_export_covers_every_executed_span() {
    let campaign = fault_campaign(Some(InjectedFault::Panic));
    let opts = RunOptions::quiet().with_keep_going(true).with_retries(1);
    let text = ledger_text(&campaign, opts, "trace");
    let ledger = RunLedger::from_jsonl(&text).expect("ledger parses");

    let trace = campaign::trace::chrome_trace(&ledger);
    let parsed = campaign::json::parse(&trace).expect("trace parses as JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(campaign::json::Value::as_arr)
        .expect("traceEvents array");
    let count = |ph: &str| {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(campaign::json::Value::as_str) == Some(ph))
            .count()
    };
    assert_eq!(count("B"), count("E"), "unbalanced begin/end pairs");
    // 2 ok + 2×2 panic attempts = 6 point spans, one B/E pair each
    assert_eq!(ledger.points.len(), 6);
    assert_eq!(
        count("B"),
        ledger.points.len(),
        "trace must cover every span"
    );
    for p in &ledger.points {
        let name = format!("#{} {}", p.ordinal, p.coords.key());
        assert!(trace.contains(&name), "span {name} missing from trace");
    }
}

/// `--telemetry-dir` alone defaults the ledger to `<dir>/runlog.jsonl`,
/// and the run report renders against that directory's sidecars with a
/// per-axis telemetry aggregation.
#[test]
fn report_aggregates_sidecars_from_the_default_ledger_path() {
    let dir = scratch("report");
    let _ = std::fs::remove_dir_all(&dir);
    let campaign = presets::tiny(Scale::Tiny);
    let opts = RunOptions::quiet().with_telemetry_dir(Some(dir.clone()));
    run_campaign(&campaign, &opts);

    let ledger = RunLedger::load(&dir.join("runlog.jsonl")).expect("default ledger path");
    let report = campaign::report::render_report(&ledger, Some(&dir)).expect("report renders");
    assert!(report.contains("# run report: tiny"));
    assert!(report.contains("## stragglers"));
    // each of the five straggler lines names its point's event count and
    // wall ns per event, straight from the ledger
    let listed = ledger
        .points
        .iter()
        .filter(|p| {
            let wall_ns = p.end_ns - p.start_ns;
            report.contains(&format!(
                "#{} {} · {} ev · {} ns/ev (",
                p.ordinal,
                p.coords.key(),
                p.events,
                wall_ns / p.events
            ))
        })
        .count();
    assert_eq!(listed, 5, "straggler lines lack events · ns/ev:\n{report}");
    assert!(report.contains("## telemetry aggregation"));
    for axis in ["scheme", "link", "seed"] {
        assert!(
            report.contains(&format!("### axis {axis}")),
            "axis {axis} missing from aggregation:\n{report}"
        );
    }
    assert!(report.contains("hist qdelay_ns"), "no merged histograms");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
