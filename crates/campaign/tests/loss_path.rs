//! Loss-path golden: the sender's loss-recovery bookkeeping (dup-ACK
//! inference, cumulative credit, retransmit queue, RTO go-back-N) under
//! heavy loss, pinned as an FNV-64 digest of two stores.
//!
//! * `{PCC, Cubic, BBR} × {Verizon3, TMobile1}` at 30 sim-s, the
//!   `cellular-matrix` point length — PCC's runaway rate drops tens of
//!   thousands of packets and drives a deep retransmit backlog (at 10
//!   sim-s it drops a few hundred), Cubic and BBR cover window- and
//!   model-based recovery;
//! * the `robustness` preset at Tiny — its `reorder` and `ack-decimate`
//!   rows deliver ACKs out of order and drop them, so records are
//!   credited by the cumulative point without their own ACK.
//!
//! The tiny baseline (ABC/Cubic for 2 s, no impairment) barely enters
//! loss recovery, so a change to that path would pass it unseen.

use campaign::presets::{self, matrix_campaign};
use campaign::{run_campaign, Campaign, ResultsStore, RunOptions, RunRecord};
use experiments::figures::Scale;
use experiments::Scheme;
use netsim::time::SimDuration;

/// Recorded before the loss-recovery scoreboard replaced the sender's
/// seq-sorted window and retransmit queue.
const LOSS_PATH_FNV64: u64 = 0xf036f8dbcf1336d3;

fn store(campaign: &Campaign) -> (Vec<RunRecord>, String) {
    let records = run_campaign(campaign, &RunOptions::quiet());
    let jsonl = ResultsStore::new(campaign, records.clone()).to_jsonl();
    (records, jsonl)
}

#[test]
fn loss_path_stores_match_the_recorded_digest() {
    let traces: Vec<_> = ["Verizon3", "TMobile1"]
        .iter()
        .map(|name| cellular::builtin(name).expect("builtin trace"))
        .collect();
    let matrix = matrix_campaign(
        "loss-path",
        &[Scheme::Pcc, Scheme::Cubic, Scheme::Bbr],
        &traces,
        SimDuration::from_secs(30),
    );
    let (records, matrix_store) = store(&matrix);
    for r in records.iter().filter(|r| r.report.scheme == "PCC") {
        assert!(
            r.report.drops > 10_000,
            "{}: {} drops is not a heavy-loss point",
            r.coords.key(),
            r.report.drops
        );
    }
    let (_, robustness_store) = store(&presets::robustness(Scale::Tiny));
    assert!(
        robustness_store.contains("\"impairments\""),
        "robustness rows lost their impairment counters"
    );

    let mut digest: u64 = 0xcbf29ce484222325;
    for byte in matrix_store.bytes().chain(robustness_store.bytes()) {
        digest = (digest ^ byte as u64).wrapping_mul(0x100000001b3);
    }
    assert_eq!(
        digest, LOSS_PATH_FNV64,
        "loss-path stores changed (digest {digest:#018x})"
    );
}
