//! Resume/append semantics and the output-identical-optimization pin.
//!
//! `ci/campaign-tiny-baseline.jsonl` was generated by the pre-timer-wheel
//! simulator (commit 444d217's event loop). The `tiny` preset must keep
//! producing those exact bytes: the hot-path overhaul is an optimization,
//! not a behavior change.

use campaign::presets;
use campaign::runlog::{RunLedger, RunLogConfig};
use campaign::runner::{run_campaign, run_campaign_streaming, RunOptions, RunRecord};
use campaign::store::ResultsStore;
use campaign::Campaign;
use experiments::figures::Scale;
use std::collections::HashSet;

/// Complete `campaign` over the `prior` records through the streaming
/// writer `--resume` uses; returns the store text, checked to parse.
fn resume(campaign: &Campaign, opts: &RunOptions, prior: Vec<RunRecord>) -> String {
    let mut out = Vec::new();
    run_campaign_streaming(campaign, opts, prior, &mut out).expect("streaming write");
    let text = String::from_utf8(out).expect("utf8 store");
    ResultsStore::from_jsonl(&text).expect("resumed store parses");
    text
}

#[test]
fn resumed_run_is_byte_identical_to_uninterrupted_run() {
    let campaign = presets::tiny(Scale::Tiny);
    let opts = RunOptions::quiet();

    let full = run_campaign(&campaign, &opts);
    let want = ResultsStore::new(&campaign, full.clone()).to_jsonl();

    // Simulate an interruption: only the first 3 points made it to disk.
    let prior: Vec<_> = full.into_iter().take(3).collect();
    let got = resume(&campaign, &opts, prior);

    assert_eq!(got, want, "resume changed the store bytes");
}

#[test]
fn interrupted_store_with_torn_tail_resumes_byte_identically() {
    let campaign = presets::tiny(Scale::Tiny);
    let opts = RunOptions::quiet();
    let full = run_campaign(&campaign, &opts);
    let want = ResultsStore::new(&campaign, full).to_jsonl();

    // What a SIGKILLed streaming run leaves behind: the full-count header,
    // three complete records, and a torn final line.
    let mut partial: String = want.lines().take(4).map(|l| format!("{l}\n")).collect();
    partial.push_str(&want.lines().nth(4).unwrap()[..40]);

    let prior = ResultsStore::from_jsonl_allow_partial(&partial).expect("partial store parses");
    assert_eq!(prior.header.points, 8, "header still promises the full run");
    assert_eq!(
        prior.records.len(),
        3,
        "torn line dropped, whole records kept"
    );

    let got = resume(&campaign, &opts, prior.records);
    assert_eq!(got, want, "resume from a torn store changed the bytes");
}

#[test]
fn streaming_writer_matches_in_memory_resume_bytes() {
    let campaign = presets::tiny(Scale::Tiny);
    let opts = RunOptions::quiet();
    let full = run_campaign(&campaign, &opts);
    let want = ResultsStore::new(&campaign, full.clone()).to_jsonl();

    // reuse a non-prefix subset so the merge actually interleaves
    let prior: Vec<_> = full.into_iter().filter(|r| r.ordinal % 2 == 1).collect();
    let mut streamed = Vec::new();
    let tally =
        run_campaign_streaming(&campaign, &opts, prior, &mut streamed).expect("streaming write");
    assert_eq!(tally.lines(), 8);
    assert_eq!(tally.errors, 0);
    let streamed = String::from_utf8(streamed).expect("utf8 store");
    assert_eq!(streamed, want, "streamed store bytes diverged");
}

#[test]
fn skipping_executes_only_missing_ordinals() {
    let campaign = presets::tiny(Scale::Tiny);
    let total = campaign.expand().len();
    let skip: HashSet<usize> = [0, 2].into_iter().collect();
    let full = run_campaign(&campaign, &RunOptions::quiet());
    let prior = full
        .into_iter()
        .filter(|r| skip.contains(&r.ordinal))
        .collect();
    // the run ledger has one span per executed point
    let path = std::env::temp_dir().join(format!("abc-skip-{}.jsonl", std::process::id()));
    let opts = RunOptions::quiet().with_runlog(Some(RunLogConfig::new(path.clone())));
    let store = resume(&campaign, &opts, prior);
    let ledger = RunLedger::load(&path).expect("ledger written");
    let _ = std::fs::remove_file(&path);
    let spans = ledger.points;
    assert_eq!(spans.len(), total - skip.len());
    assert!(spans.iter().all(|s| !skip.contains(&s.ordinal)));
    assert_eq!(
        store.lines().count(),
        1 + total,
        "reused records are still written"
    );
}

#[test]
fn tiny_store_matches_committed_pre_refactor_baseline() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../ci/campaign-tiny-baseline.jsonl"
    );
    let want = std::fs::read_to_string(path).expect("committed baseline store");
    let campaign = presets::tiny(Scale::Tiny);
    let records = run_campaign(&campaign, &RunOptions::quiet());
    let got = ResultsStore::new(&campaign, records).to_jsonl();
    if got != want {
        let pos = got
            .bytes()
            .zip(want.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.len().min(want.len()));
        let lo = pos.saturating_sub(80);
        panic!(
            "tiny store diverged from the pre-refactor baseline at byte {pos}:\n  \
             got  …{:?}…\n  want …{:?}…",
            &got[lo..(pos + 40).min(got.len())],
            &want[lo..(pos + 40).min(want.len())],
        );
    }
}
