//! A point's memory is what it recorded, held once.
//!
//! * **`finish` copies no sample buffer** — under a counting allocator,
//!   the live heap while `BuiltScenario::finish` runs never rises above
//!   the live heap at the end of the run plus the `Report`'s own
//!   allocations and a small fixed slack: the per-packet samples are
//!   summarised where they lie, and each buffer is freed before the next
//!   one is gathered. A mapped copy of the primary hop's series (16 B per
//!   dequeue) is hundreds of KiB on these points, far above the slack.
//! * **no per-flow reserve** — after a web-fleet run, every flow's delay
//!   buffer is at most twice its length (or 8 samples): a short request
//!   holds a few samples, not a fixed up-front capacity.

use experiments::engine::{FlowSchedule, ScenarioEngine, ScenarioSpec, WorkloadEntry};
use experiments::scenario::LinkSpec;
use experiments::Scheme;
use netsim::rate::Rate;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use workload::{WebWorkload, WorkloadSpec};

thread_local! {
    /// Bytes this thread holds from the allocator. Per thread, so the
    /// tests of this file do not count each other's allocations; a point
    /// builds, runs and finishes on the calling thread.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// Highest `LIVE` since the last [`reset_peak`].
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread tally of live and peak bytes.
struct CountingLive;

fn grow(bytes: usize) {
    // `try_with`: the allocator outlives a thread's locals.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes as i64);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn shrink(bytes: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get() - bytes as i64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the tallies are
// const-initialised thread-local `Cell`s that never allocate.
unsafe impl GlobalAlloc for CountingLive {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` came from `System` with `layout`, per the caller's
        // contract with this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as a move: the new block is live before the old one is
        // freed, which is the worst case of a growing reallocation.
        grow(new_size);
        shrink(layout.size());
        // SAFETY: same block, layout and size the caller vouched for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingLive = CountingLive;

fn live() -> i64 {
    LIVE.with(Cell::get)
}

fn reset_peak() {
    PEAK.with(|peak| peak.set(live()));
}

fn peak() -> i64 {
    PEAK.with(Cell::get)
}

/// What `finish` may hold beyond the run's own heap and the report's:
/// short-lived per-flow vectors (`FlowTable` iteration order, the Jain
/// throughputs) and the growth slack of the report's series.
const SLACK: i64 = 64 * 1024;

/// Runs `spec`, then finishes it, and checks the bound of the module
/// docs. Returns the number of primary-hop samples the run recorded.
fn assert_finish_holds_samples_once(spec: &ScenarioSpec) -> usize {
    let mut built = ScenarioEngine::with_threads(1).build(spec);
    built.run_to_end();
    let samples = {
        let hub = built.hub.borrow();
        hub.links
            .values()
            .map(|l| l.qdelay_series.len())
            .max()
            .unwrap_or(0)
    };
    let at_end_of_run = live();
    reset_peak();
    let report = built.finish();
    let during_finish = peak();
    let with_report = live();
    drop(report);
    let report_bytes = with_report - live();
    let over = during_finish - at_end_of_run - report_bytes;
    assert!(
        over <= SLACK,
        "finish peaked {over} B above the run's {at_end_of_run} B plus the \
         report's {report_bytes} B (slack {SLACK} B; {samples} primary-hop samples)"
    );
    samples
}

#[test]
fn a_multi_flow_point_finishes_within_its_run_footprint() {
    let spec = ScenarioSpec::single(Scheme::Abc, LinkSpec::Constant(Rate::from_mbps(24.0)))
        .flows(4)
        .duration_secs(10)
        .warmup_secs(1);
    let samples = assert_finish_holds_samples_once(&spec);
    // the check must be able to tell: a mapped copy is 16 B per sample
    assert!(16 * samples as i64 > 4 * SLACK, "only {samples} samples");
}

#[test]
fn a_trace_point_finishes_within_its_run_footprint() {
    let trace = cellular::builtin("Verizon1").expect("built-in trace");
    let spec = ScenarioSpec::single(Scheme::Abc, LinkSpec::Trace(trace))
        .duration_secs(30)
        .warmup_secs(1);
    let samples = assert_finish_holds_samples_once(&spec);
    assert!(16 * samples as i64 > 4 * SLACK, "only {samples} samples");
}

#[test]
fn web_fleet_flows_hold_no_delay_reserve() {
    let link = Rate::from_mbps(12.0);
    let mut spec = ScenarioSpec::single(Scheme::Abc, LinkSpec::Constant(link)).duration_secs(5);
    spec.warmup = netsim::time::SimDuration::ZERO;
    spec.flows = FlowSchedule::Explicit(Vec::new());
    spec.workloads = vec![WorkloadEntry::new(WorkloadSpec::Web(
        WebWorkload::poisson_load(0.5, link),
    ))];
    let mut built = ScenarioEngine::with_threads(1).build(&spec);
    built.run_to_end();
    let hub = built.hub.borrow();
    assert!(hub.flows.len() >= 20, "only {} web flows", hub.flows.len());
    for (id, rec) in hub.flows.iter() {
        let (len, cap) = (rec.delays_s.len(), rec.delays_s.capacity());
        assert!(
            cap <= (2 * len).max(8),
            "flow {id:?} holds capacity {cap} for {len} delay samples"
        );
    }
}
