//! Scenario inputs are immutable and shared: a campaign point costs
//! O(spec), never O(trace). Pinned two ways — by pointer identity of the
//! trace behind every expanded point, and by the bytes `expand`, `build`
//! and `to_link` allocate per point under a counting allocator.

use campaign::presets;
use campaign::spec::{Axis, Campaign};
use experiments::engine::{ScenarioEngine, ScenarioSpec, Topology};
use experiments::figures::Scale;
use experiments::scenario::LinkSpec;
use experiments::Scheme;
use netsim::rate::Rate;
use netsim::time::SimDuration;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

thread_local! {
    /// Bytes this thread has asked the allocator for. Per thread, so the
    /// tests of this file do not count each other's allocations.
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread tally of requested bytes.
struct CountingBytes;

fn tally(bytes: usize) {
    // `try_with`: the allocator outlives a thread's locals.
    let _ = REQUESTED.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the tally is a const-initialised
// thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for CountingBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`, per the caller's
        // contract with this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        // SAFETY: same block, layout and size the caller vouched for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingBytes = CountingBytes;

fn requested() -> u64 {
    REQUESTED.with(Cell::get)
}

fn trace_of(spec: &ScenarioSpec) -> &cellular::CellTrace {
    match &spec.topology {
        Topology::SingleBottleneck(LinkSpec::Trace(t)) => t,
        other => panic!("expected a trace-driven bottleneck, got {other:?}"),
    }
}

#[test]
fn cellular_matrix_points_share_one_trace_per_label() {
    let points = presets::cellular_matrix(Scale::Fast).expand();
    let mut by_label: HashMap<&str, &Arc<[SimDuration]>> = HashMap::new();
    for p in &points {
        let label = p.coords.get("trace").expect("the matrix has a trace axis");
        let opps = &trace_of(&p.spec).opportunities;
        let first = by_label.entry(label).or_insert(opps);
        assert!(
            Arc::ptr_eq(first, opps),
            "point {} holds its own copy of trace {label}",
            p.ordinal
        );
    }
    assert!(by_label.len() >= 2 && points.len() > by_label.len());
}

#[test]
fn a_point_on_a_long_trace_allocates_o_spec_bytes() {
    const PER_POINT_BUDGET: u64 = 64 * 1024;
    let trace = cellular::builtin("Verizon1").expect("built-in trace");
    let trace_bytes = std::mem::size_of_val(&*trace.opportunities) as u64;
    assert!(trace.opportunities.len() >= 50_000);
    let base = ScenarioSpec::single(Scheme::Abc, LinkSpec::Constant(Rate::ZERO)).duration_secs(2);
    let campaign = Campaign::new("shared", base)
        .axis(Axis::schemes(&[
            Scheme::Abc,
            Scheme::Cubic,
            Scheme::Bbr,
            Scheme::Vegas,
        ]))
        .axis(Axis::traces(std::slice::from_ref(&trace)));
    let engine = ScenarioEngine::with_threads(1);

    let before = requested();
    let points = campaign.expand();
    for p in &points {
        let built = engine.build(&p.spec);
        let link = trace_of(&p.spec).to_link();
        std::hint::black_box((&built, &link));
    }
    assert_eq!(points.len(), 4);
    let per_point = (requested() - before) / points.len() as u64;
    assert!(
        per_point < PER_POINT_BUDGET,
        "expand + build + to_link requested {per_point} B per point \
         (budget {PER_POINT_BUDGET} B; one copy of the trace is {trace_bytes} B)"
    );
}
