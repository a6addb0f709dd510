//! The telemetry pipeline's two store-level contracts:
//!
//! * **inertness** — attaching a telemetry config to a campaign changes
//!   results-store bytes by nothing at all (sidecars are a separate
//!   artifact stream);
//! * **pool invariance** — a point's sidecar is bit-identical across
//!   1/2/4/8-worker engine pools, like every other campaign artifact.

use campaign::presets;
use campaign::runner::{run_campaign, run_campaign_sidecars, RunOptions};
use campaign::store::ResultsStore;
use experiments::engine::ScenarioEngine;
use experiments::figures::Scale;
use netsim::sim::RunGuards;
use netsim::telemetry::{Signal, TelemetryConfig, SIDECAR_SCHEMA};

#[test]
fn telemetry_never_touches_the_results_store() {
    let plain = presets::tiny(Scale::Tiny);
    let want = ResultsStore::new(&plain, run_campaign(&plain, &RunOptions::quiet())).to_jsonl();

    let instrumented = presets::tiny(Scale::Tiny).telemetry(TelemetryConfig::default());
    let got = ResultsStore::new(
        &instrumented,
        run_campaign(&instrumented, &RunOptions::quiet()),
    )
    .to_jsonl();

    assert_eq!(got, want, "telemetry config leaked into the results store");
}

#[test]
fn sidecars_are_bit_identical_across_worker_pool_sizes() {
    let campaign = presets::tiny(Scale::Tiny).telemetry(TelemetryConfig::default());
    let specs: Vec<_> = campaign.expand().into_iter().map(|p| p.spec).collect();
    assert!(
        specs.len() >= 4,
        "tiny preset shrank: {} points",
        specs.len()
    );

    let sidecars_at = |threads: usize| -> Vec<String> {
        let mut sidecars = Vec::new();
        ScenarioEngine::with_threads(threads).for_each_ordered(
            &specs,
            |e, s, _| {
                e.run_point(s, RunGuards::default(), false)
                    .expect("unguarded run cannot be aborted")
                    .sidecar
                    .expect("telemetry was attached to every spec")
            },
            |_, sidecar| {
                sidecars.push(sidecar);
                std::ops::ControlFlow::Continue(())
            },
        );
        sidecars
    };

    let golden = sidecars_at(1);
    for sidecar in &golden {
        let header = sidecar.lines().next().expect("nonempty sidecar");
        assert!(
            header.contains(SIDECAR_SCHEMA),
            "first line is not a schema header: {header}"
        );
    }
    for threads in [2, 4, 8] {
        assert_eq!(
            sidecars_at(threads),
            golden,
            "sidecar bytes diverged at {threads} workers"
        );
    }
}

#[test]
fn runner_writes_one_sidecar_per_point_into_the_telemetry_dir() {
    let dir = std::env::temp_dir().join(format!("abc-telemetry-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // No per-campaign config: --telemetry-dir alone must fall back to the
    // default signal set for every point.
    let campaign = presets::tiny(Scale::Tiny);
    let points = campaign.expand();
    let opts = RunOptions::quiet().with_telemetry_dir(Some(dir.clone()));
    let records = run_campaign(&campaign, &opts);
    assert_eq!(records.len(), points.len());

    for p in &points {
        let path = dir.join(format!("{}.jsonl", p.ordinal));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing sidecar {}: {e}", path.display()));
        assert!(
            text.lines()
                .next()
                .is_some_and(|l| l.contains(SIDECAR_SCHEMA)),
            "{} lacks the schema header",
            path.display()
        );
        campaign::dynamics::render_dynamics(&text)
            .unwrap_or_else(|e| panic!("{} does not render: {e}", path.display()));
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// FNV-1a 64 of the tiny preset's sidecars, concatenated in file-name
/// order, recorded at the commit before the event core was rebuilt. The
/// sidecars carry the `wheel_near`/`wheel_slots`/`wheel_overflow` tier
/// samples and the `pool_hit`/`pool_miss` counters, so this pins the
/// telemetry-on path — queue tier membership included — not only the
/// results store.
const TINY_SIDECARS_FNV64: u64 = 0x1c4f4ca51b0cfd01;

#[test]
fn tiny_sidecars_match_the_recorded_digest_at_one_and_four_workers() {
    let campaign = presets::tiny(Scale::Tiny);
    for jobs in [1usize, 4] {
        let dir = std::env::temp_dir().join(format!(
            "abc-telemetry-golden-{}-{jobs}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = RunOptions::quiet()
            .with_jobs(Some(jobs))
            .with_telemetry_dir(Some(dir.clone()));
        let records = run_campaign(&campaign, &opts);

        // Every `<ordinal>.jsonl`; the wall-clock `runlog.jsonl` the
        // runner drops beside them is not a deterministic artifact.
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .expect("telemetry dir exists")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .into_string()
                    .expect("utf-8 name")
            })
            .filter(|n| n != "runlog.jsonl")
            .collect();
        names.sort();
        assert_eq!(names.len(), records.len(), "one sidecar per point");

        let mut digest = FNV_OFFSET;
        for name in &names {
            digest = fnv64(
                digest,
                &std::fs::read(dir.join(name)).expect("sidecar readable"),
            );
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
        assert_eq!(
            digest, TINY_SIDECARS_FNV64,
            "tiny sidecars changed at {jobs} workers (digest {digest:#018x})"
        );
    }
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// FNV-1a 64 of `bytes`, continuing from `digest`.
fn fnv64(mut digest: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        digest = (digest ^ byte as u64).wrapping_mul(0x100000001b3);
    }
    digest
}

/// FNV-1a 64 of the `robustness`, `parking-lot` and `many-users`
/// presets' Tiny sidecars with every signal selected, concatenated in
/// preset then ordinal order. Where the tiny digest covers one flow, one
/// link and the default signals, these carry the `events` trace,
/// `goodput_mbps`, `w_abc`/`w_nonabc`, the `link:<impairment kind>`
/// counters, several link tags and many flows — so this pins the order in
/// which the hub emits every kind of counter and histogram row.
const MULTI_SCOPE_SIDECARS_FNV64: u64 = 0x97cf415e104d48d1;

#[test]
fn multi_scope_sidecars_with_every_signal_match_the_recorded_digest() {
    let all = TelemetryConfig {
        signals: Signal::ALL.to_vec(),
        ..TelemetryConfig::default()
    };
    // rows the golden exists to cover, each present in some sidecar
    const NEEDLES: [&str; 7] = [
        "\"signal\":\"events\"",
        "\"signal\":\"goodput_mbps\"",
        "\"signal\":\"w_abc\"",
        "\"signal\":\"w_nonabc\"",
        "\"counter\":\"impair_hit\",\"scope\":\"link:gilbert-elliott\"",
        "\"scope\":\"link:hop2\"",
        "\"scope\":\"flow:40\"",
    ];
    let mut seen = [false; NEEDLES.len()];
    let mut digest = FNV_OFFSET;
    let mut sidecars = 0;
    for campaign in [
        presets::robustness(Scale::Tiny),
        presets::parking_lot(Scale::Tiny),
        presets::many_users(Scale::Tiny),
    ] {
        let campaign = campaign.telemetry(all.clone());
        for (_, sidecar) in
            run_campaign_sidecars(&campaign, &RunOptions::quiet().with_jobs(Some(2)))
        {
            let sidecar = sidecar.expect("telemetry was attached to every point");
            digest = fnv64(digest, sidecar.as_bytes());
            for (needle, seen) in NEEDLES.iter().zip(&mut seen) {
                *seen |= sidecar.contains(needle);
            }
            sidecars += 1;
        }
    }
    assert!(
        sidecars >= 10,
        "the three presets shrank: {sidecars} points"
    );
    for (needle, seen) in NEEDLES.iter().zip(seen) {
        assert!(seen, "no sidecar has a {needle} row");
    }
    assert_eq!(
        digest, MULTI_SCOPE_SIDECARS_FNV64,
        "multi-scope sidecars changed (digest {digest:#018x})"
    );
}
