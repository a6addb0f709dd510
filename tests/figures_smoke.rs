//! Every figure harness must run end to end through the scenario engine
//! without panicking, and its text must not move. Runs at `Scale::Tiny`
//! (≤ 2 s of simulated time per scenario), so this is a wiring and
//! byte-identity check, not a numbers check — the numeric assertions live
//! in each figure's own unit tests.

use abc_repro::campaign::figures;
use abc_repro::experiments::figures::Scale;

#[test]
fn figure_index_is_complete() {
    let all = figures::all();
    assert!(all.len() >= 20, "figure index shrank to {}", all.len());
    for (id, desc, _) in &all {
        assert!(!id.is_empty() && !desc.is_empty());
    }
}

/// Split into a handful of tests so the suite parallelizes across the
/// cargo test harness' threads; each runs its figures at `Tiny` scale
/// (≤ 2 s of simulated time per scenario) and folds their text, in order,
/// into an FNV-1a 64 digest held to `golden`. Figure text is deterministic
/// (and independent of the worker count), so a moved digest means a
/// figure's scenarios or rendering changed.
fn run_figs(ids: &[&str], golden: u64) {
    let all = figures::all();
    let mut digest: u64 = 0xcbf29ce484222325;
    for id in ids {
        let (_, _, f) = all
            .iter()
            .find(|(fid, ..)| fid == id)
            .unwrap_or_else(|| panic!("figure {id:?} missing from index"));
        let out = f(Scale::Tiny);
        assert!(!out.trim().is_empty(), "figure {id} produced empty output");
        for byte in out.bytes() {
            digest = (digest ^ byte as u64).wrapping_mul(0x100000001b3);
        }
    }
    assert_eq!(
        digest, golden,
        "Tiny-scale text of {ids:?} changed (digest {digest:#018x})"
    );
}

#[test]
fn smoke_motivation_and_ablations() {
    run_figs(
        &["fig1", "fig2", "fig3", "pk_abc", "jain", "marking"],
        0xbcf049f0711e6a1c,
    );
}

#[test]
fn smoke_wifi_figures() {
    run_figs(&["fig4", "fig5", "fig10", "fig14"], 0x1129a6ac9e476ea3);
}

#[test]
fn smoke_coexistence_figures() {
    run_figs(
        &["fig6", "fig7", "fig11", "fig12", "fig13"],
        0x8bbf2a4dbca546ec,
    );
}

#[test]
fn smoke_pareto_and_matrix_figures() {
    run_figs(
        &["table1", "fig8", "fig9", "fig15", "fig18"],
        0xa61aac3c833d45de,
    );
}

#[test]
fn smoke_explicit_and_stability_figures() {
    run_figs(&["fig16", "fig17", "stability"], 0x0449f6ceff920cc4);
}
