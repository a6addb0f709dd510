//! Every figure must run end to end without panicking, and its text must
//! not move. Runs at `Scale::Tiny` (≤ 2 s of simulated time per
//! scenario), so this is a wiring and byte-identity check, not a numbers
//! check — the numeric assertions live in each figure's own unit tests.

use abc_repro::campaign::figures;
use abc_repro::experiments::figures::Scale;

/// FNV-1a 64 of each figure's `Scale::Tiny` text, one per figure id.
/// Figure text is deterministic (and independent of the worker count), so
/// a moved digest means that figure's scenarios or rendering changed; a
/// digest that moved on purpose carries its reason on the line above.
const GOLDENS: &[(&str, u64)] = &[
    // moved: Tiny runs end inside the 5 s warm-up, so the ratios print n/a, not NaN.
    ("table1", 0x9e0e66aacb3bf03c),
    ("fig1", 0x5f123e1bd7da2c4a),
    ("fig2", 0x68ff611c1a97b39d),
    ("fig3", 0x98678ab05f5529c8),
    ("fig4", 0x104f5448e44eead3),
    ("fig5", 0x109ebc343b146345),
    // moved: series come from the sidecar; the flat capacity draws; 0 samples print n/a.
    ("fig6", 0xffd2283e106b2ee5),
    // moved: the ABC-class delay is the ABC flows' srtt less the 100 ms base RTT.
    ("fig7", 0x76734e9202f3435f),
    ("fig8", 0xf09781313080b974),
    ("fig9", 0xacdab4fc6dbb8082),
    ("fig10", 0x6fc69d4a98a4b0b5),
    // moved: as fig6 — sidecar series, a drawn flat capacity, n/a for 0 samples.
    ("fig11", 0x37d4f950d3205888),
    ("fig12", 0xdab21427160002a5),
    // moved: the app-limited aggregate sums the limited flows' stored goodput.
    ("fig13", 0xfcf4eeee66830157),
    ("fig14", 0x25adf1fc3ca61125),
    ("fig15", 0x5d368ec43c036ba2),
    ("fig16", 0x694abbed76ab6532),
    ("fig17", 0xd13e87e1df2e9f6e),
    ("fig18", 0x5c099aaeb3cd6796),
    ("pk_abc", 0x3ef674a43ed6dcfa),
    ("stability", 0x13d030adb95d5f30),
    ("jain", 0xb128150b5820c0d5),
    ("marking", 0x50cc4ebdd73ad683),
    ("web-fct", 0x8a0a338362d211db),
    ("video-qoe", 0x0c03e9fc60f0a01c),
    ("rtc-coexist", 0xc1765bf1d4ec6134),
    ("many-users", 0x074124b9cbb7cb5b),
    ("robustness", 0x0d38cc779d3e154e),
    ("coexistence", 0xfc179ca6baeaf1bd),
    ("dynamics", 0xfc7321dad6916da6),
];

#[test]
fn figure_index_is_complete() {
    let all = figures::all();
    let ids: Vec<&str> = all.iter().map(|(id, ..)| *id).collect();
    let pinned: Vec<&str> = GOLDENS.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, pinned, "every figure id is pinned, in index order");
    for (id, desc, _) in &all {
        assert!(!id.is_empty() && !desc.is_empty());
    }
}

fn fnv64(text: &str) -> u64 {
    text.bytes().fold(0xcbf29ce484222325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

/// Render each of `ids` at `Tiny` and hold its text to its own golden,
/// reporting every moved id at once. Split into a handful of tests so
/// the suite parallelizes across the cargo test harness' threads.
fn run_figs(ids: &[&str]) {
    let all = figures::all();
    let mut moved = Vec::new();
    for id in ids {
        let (_, _, f) = all
            .iter()
            .find(|(fid, ..)| fid == id)
            .unwrap_or_else(|| panic!("figure {id:?} missing from index"));
        let out = f(Scale::Tiny);
        assert!(!out.trim().is_empty(), "figure {id} produced empty output");
        let golden = GOLDENS
            .iter()
            .find(|(gid, _)| gid == id)
            .unwrap_or_else(|| panic!("figure {id:?} has no golden"))
            .1;
        let digest = fnv64(&out);
        if digest != golden {
            moved.push(format!("{id} ({digest:#018x})"));
        }
    }
    assert!(
        moved.is_empty(),
        "Tiny-scale text moved: {}",
        moved.join(", ")
    );
}

#[test]
fn smoke_motivation_and_ablations() {
    run_figs(&["fig1", "fig2", "fig3", "pk_abc", "jain", "marking"]);
}

#[test]
fn smoke_wifi_figures() {
    run_figs(&["fig4", "fig5", "fig10", "fig14"]);
}

#[test]
fn smoke_coexistence_figures() {
    run_figs(&["fig6", "fig7", "fig11", "fig12", "fig13"]);
}

#[test]
fn smoke_pareto_and_matrix_figures() {
    run_figs(&["table1", "fig8", "fig9", "fig15", "fig18"]);
}

#[test]
fn smoke_explicit_and_stability_figures() {
    run_figs(&["fig16", "fig17", "stability"]);
}

#[test]
fn smoke_workload_and_deployment_figures() {
    run_figs(&[
        "web-fct",
        "video-qoe",
        "rtc-coexist",
        "many-users",
        "robustness",
        "coexistence",
        "dynamics",
    ]);
}
