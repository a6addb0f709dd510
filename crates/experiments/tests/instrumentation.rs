//! The opt-in instrumentation's cost contracts on a real point:
//!
//! * **selection is resolved at install** — the simulator reads a sink's
//!   signal mask once and calls in only for selected signals, so the
//!   per-event `events` hook is never called under the default selection
//!   and no probe ever hands a sink a signal outside its mask;
//! * **the sampled profiler counts exactly** — it times one dispatch in
//!   16, but its event counts still add up to every processed event.

use experiments::engine::{ScenarioEngine, ScenarioSpec};
use experiments::scenario::LinkSpec;
use experiments::Scheme;
use netsim::packet::NodeId;
use netsim::rate::Rate;
use netsim::telemetry::{Scope, Signal, TelemetryConfig, TelemetrySink};
use netsim::time::SimTime;
use std::cell::RefCell;
use std::rc::Rc;

fn two_flow_abc() -> ScenarioSpec {
    ScenarioSpec::single(Scheme::Abc, LinkSpec::Constant(Rate::from_mbps(12.0)))
        .flows(2)
        .duration_secs(2)
        .warmup_secs(1)
}

/// What a [`Counting`] sink was called with.
#[derive(Debug, Default)]
struct Calls {
    events: u64,
    samples: u64,
    counts: u64,
    /// Samples and counts of a signal outside the sink's mask.
    unselected: u64,
}

/// A sink that only counts its calls.
struct Counting {
    mask: u32,
    calls: Rc<RefCell<Calls>>,
}

impl TelemetrySink for Counting {
    fn mask(&self) -> u32 {
        self.mask
    }

    fn sample(&mut self, _now: SimTime, signal: Signal, _scope: Scope, _value: f64) {
        let mut calls = self.calls.borrow_mut();
        calls.samples += 1;
        calls.unselected += u64::from(self.mask & signal.bit() == 0);
    }

    fn count(&mut self, signal: Signal, _scope: Scope, _delta: u64) {
        let mut calls = self.calls.borrow_mut();
        calls.counts += 1;
        calls.unselected += u64::from(self.mask & signal.bit() == 0);
    }

    fn event(&mut self, _time: SimTime, _node: NodeId, _seq: u64) {
        self.calls.borrow_mut().events += 1;
    }
}

/// Run the point with a counting sink selecting `signals` (`None`: the
/// default `Off` sink); returns the order fingerprint, the processed
/// event count and the sink's calls.
fn run_counting(signals: Option<&[Signal]>) -> (u64, u64, Calls) {
    let calls = Rc::new(RefCell::new(Calls::default()));
    let mut built = ScenarioEngine::with_threads(1).build(&two_flow_abc());
    if let Some(signals) = signals {
        let mask = TelemetryConfig {
            signals: signals.to_vec(),
            ..TelemetryConfig::default()
        }
        .mask();
        built.sim.set_telemetry(Box::new(Counting {
            mask,
            calls: calls.clone(),
        }));
    }
    built.run_to_end();
    let (fingerprint, events) = (built.sim.events_fingerprint(), built.sim.events_processed());
    drop(built);
    let calls = Rc::try_unwrap(calls).expect("sink dropped").into_inner();
    (fingerprint, events, calls)
}

#[test]
fn signal_selection_is_resolved_once_at_install() {
    let (off_fp, events, off) = run_counting(None);
    assert!(events > 5_000, "the point barely ran: {events} events");
    assert_eq!((off.events, off.samples, off.counts), (0, 0, 0));

    let (default_fp, default_events, default) = run_counting(Some(&Signal::DEFAULT));
    assert_eq!(
        default.events, 0,
        "`events` is not in the default selection"
    );
    assert!(default.samples > 0 && default.counts > 0, "{default:?}");
    assert_eq!(default.unselected, 0, "{default:?}");

    let (events_fp, events_events, only_events) = run_counting(Some(&[Signal::Events]));
    assert_eq!(only_events.events, events);
    assert_eq!((only_events.samples, only_events.counts), (0, 0));

    let (all_fp, all_events, all) = run_counting(Some(&Signal::ALL));
    assert_eq!(all.events, events);
    assert_eq!(all.unselected, 0, "{all:?}");
    assert!(all.samples > default.samples, "w_abc/w_nonabc add samples");

    assert_eq!([default_events, events_events, all_events], [events; 3]);
    assert_eq!(
        [default_fp, events_fp, all_fp],
        [off_fp; 3],
        "a telemetry sink changed the event order"
    );
}

#[test]
fn sampled_profiler_counts_every_event_of_a_real_point() {
    let mut built = ScenarioEngine::with_threads(1).build(&two_flow_abc());
    built.sim.enable_profiler();
    built.run_to_end();
    let report = built.sim.profile_report().expect("profiler enabled");
    assert_eq!(report.events, built.sim.events_processed());
    assert_eq!(
        report.deliver_events + report.timer_events + report.batch_events,
        report.events
    );
    assert_eq!(report.dispatch_ns_hist.count(), report.timed_dispatches);
    // about one dispatch in 16 is timed
    let dispatches = report.deliver_events + report.timer_events + report.batches;
    let share = report.timed_dispatches as f64 / dispatches as f64;
    assert!((0.05..0.08).contains(&share), "timed share {share:.4}");
    let sum: f64 = [
        netsim::telemetry::Phase::Deliver,
        netsim::telemetry::Phase::Timer,
        netsim::telemetry::Phase::Batch,
    ]
    .into_iter()
    .map(|p| report.phase_frac(p))
    .sum();
    assert!((sum - 1.0).abs() < 1e-9, "phase fractions sum to {sum}");
}
