//! Layer kernels: small fixed-work loops over one layer's public
//! functions. They do not depend on the workload, so every traced run
//! repeats them and every per-layer name is printed by every run.

use crate::metrics::{median, percentile, Checks, MetricSet};
use crate::workload::{preset, traces, LINEUP, PRESETS, QDISCS};
use campaign::runner::{run_campaign_streaming, RunOptions};
use cellular::CellTrace;
use experiments::engine::{ScenarioEngine, ScenarioSpec};
use experiments::figures::Scale;
use experiments::scenario::LinkSpec;
use experiments::Scheme;
use netsim::event::{EventKind, EventQueue};
use netsim::fault::{ImpairmentKind, ImpairmentSpec};
use netsim::packet::{Ecn, Feedback, FlowId, NodeId, Packet, Route};
use netsim::rate::Rate;
use netsim::sim::RunGuards;
use netsim::telemetry::TelemetryConfig;
use netsim::time::{SimDuration, SimTime};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Repeat `f` until `budget` is spent (at least once); seconds per call
/// of the fastest-typical (median) call.
fn median_secs(budget: Duration, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    loop {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
        if started.elapsed() >= budget {
            return median(&samples);
        }
    }
}

/// Mixed-horizon push/pop churn over the timer-wheel queue: sub-µs
/// ties, in-wheel offsets and overflow-range timers. Returns operations
/// done (pushes + pops).
fn queue_churn(n: u64) -> u64 {
    let mut q = EventQueue::new();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for i in 0..n {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let ns = match i % 4 {
            0 => x % 1_000,
            1 => x % 1_000_000,
            2 => x % 60_000_000,
            _ => x % 2_000_000_000,
        };
        q.push(SimTime::from_nanos(ns), NodeId(0), EventKind::Timer(i));
        if i % 2 == 1 {
            black_box(q.pop());
        }
    }
    while let Some(e) = q.pop() {
        black_box(e);
    }
    2 * n
}

/// Arm-then-cancel churn: the RTO reschedule pattern the wheel's lazy
/// tombstones exist for. Returns pushes done.
fn cancel_churn(n: u64) -> u64 {
    let mut q = EventQueue::new();
    for i in 0..n {
        let seq = q.push(
            SimTime::from_nanos(i * 1_000 + 200_000_000),
            NodeId(0),
            EventKind::Timer(i),
        );
        if i % 8 != 7 {
            q.cancel(seq);
        }
        if i % 16 == 15 {
            black_box(q.pop());
        }
    }
    n
}

/// `netsim.event.*`: ns per queue operation, each kernel looped to
/// ≥0.5 s.
fn event_queue(cut: bool, out: &mut MetricSet) {
    let (n, budget) = if cut {
        (10_000, Duration::ZERO)
    } else {
        (100_000, Duration::from_millis(500))
    };
    let push_pop = median_secs(budget, || {
        black_box(queue_churn(n));
    });
    out.set("netsim.event.push_pop_ns", push_pop * 1e9 / (2 * n) as f64);
    let cancel = median_secs(budget, || {
        black_box(cancel_churn(n));
    });
    out.set("netsim.event.cancel_ns", cancel * 1e9 / n as f64);
}

/// Build, run and finish one point; `(run wall ns, events)`.
fn run_point(
    engine: &ScenarioEngine,
    spec: &ScenarioSpec,
    guards: RunGuards,
    profile: bool,
) -> (u64, u64) {
    let mut built = engine.build(spec);
    if profile {
        built.sim.enable_profiler();
    }
    built.sim.set_guards(guards);
    let t = Instant::now();
    built.run_to_end();
    let ns = t.elapsed().as_nanos() as u64;
    let events = built.sim.events_processed();
    black_box(built.finish());
    (ns, events)
}

fn trace_spec(scheme: Scheme, trace: &CellTrace, cut: bool) -> ScenarioSpec {
    ScenarioSpec::single(scheme, LinkSpec::Trace(trace.clone())).duration_secs(if cut {
        6
    } else {
        30
    })
}

/// `netsim.tax.*`: event-loop wall time of ABC over the traces with one
/// opt-in feature on, over the same points plain. Equal to the
/// `ns_per_event` ratio for every feature that adds no events; the
/// spliced wire adds a hop's worth, so wall time is the honest base.
fn feature_tax(traces: &[CellTrace], cut: bool, out: &mut MetricSet) {
    let engine = ScenarioEngine::with_threads(1);
    let armed = RunGuards {
        max_events: None,
        max_wall_time: Some(Duration::from_secs(120)),
    };
    // (name, telemetry, guards, pass-through wire, profiler)
    let variants = [
        ("plain", false, false, false, false),
        ("netsim.tax.telemetry", true, false, false, false),
        ("netsim.tax.guards", false, true, false, false),
        ("netsim.tax.impairment", false, false, true, false),
        ("netsim.tax.profiler", false, false, false, true),
        ("netsim.tax.all_on", true, true, true, true),
    ];
    let reps = if cut { 1 } else { 3 };
    let mut wall: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
    // interleave the variants so drift hits all of them alike
    for _ in 0..reps {
        for (v, (_, telemetry, guards, wire, profiler)) in variants.iter().enumerate() {
            let mut ns = 0u64;
            for trace in traces {
                let mut spec = trace_spec(Scheme::Abc, trace, cut);
                if *telemetry {
                    spec.telemetry = Some(TelemetryConfig::default());
                }
                if *wire {
                    spec.impairments = vec![ImpairmentSpec::data(ImpairmentKind::Drop { p: 0.0 })];
                }
                let g = if *guards { armed } else { RunGuards::default() };
                ns += run_point(&engine, &spec, g, *profiler).0;
            }
            wall[v].push(ns as f64);
        }
    }
    let plain = median(&wall[0]);
    for (v, (name, ..)) in variants.iter().enumerate().skip(1) {
        out.set(name, median(&wall[v]) / plain);
    }
}

/// `scheme.<slug>.ns_per_event`: event-loop wall time per event, one
/// pass of every lineup scheme over the traces.
fn schemes(traces: &[CellTrace], cut: bool, out: &mut MetricSet) {
    let engine = ScenarioEngine::with_threads(1);
    for (slug, scheme) in LINEUP {
        let (mut ns, mut events) = (0u64, 0u64);
        for trace in traces {
            let (n, e) = run_point(
                &engine,
                &trace_spec(scheme, trace, cut),
                RunGuards::default(),
                false,
            );
            ns += n;
            events += e;
        }
        out.set(
            &format!("scheme.{slug}.ns_per_event"),
            ns as f64 / events as f64,
        );
    }
}

fn packet(seq: u64, route: &std::rc::Rc<Route>) -> Box<Packet> {
    Box::new(Packet {
        flow: FlowId(seq as u32 % 16),
        seq,
        size: netsim::packet::MTU_BYTES,
        ecn: Ecn::Accelerate,
        feedback: Feedback::None,
        abc_capable: true,
        sent_at: SimTime::ZERO,
        retransmit: false,
        ack: None,
        route: route.clone(),
        hop: 0,
        enqueued_at: SimTime::ZERO,
    })
}

/// `qdisc.<slug>.ns_per_pkt` and `abc_core.router.accel_share`: one
/// enqueue and one dequeue per packet through the `Qdisc` trait object
/// `Scheme::make_qdisc` builds, at one MTU per ms on a 12 Mbit/s link
/// behind a 10-packet standing queue. Packets are boxed before, and
/// dropped after, the timed loop.
fn qdiscs(cut: bool, out: &mut MetricSet) {
    let n: u64 = if cut { 2_000 } else { 100_000 };
    let reps = if cut { 1 } else { 3 };
    let route = Route::new(vec![(NodeId(0), SimDuration::ZERO)]);
    for (slug, scheme) in QDISCS {
        let mut samples = Vec::new();
        let mut accel_share = 0.0;
        for _ in 0..reps {
            let mut q = scheme.make_qdisc(250);
            let mut input: Vec<Box<Packet>> = (0..n).rev().map(|i| packet(i, &route)).collect();
            let mut output: Vec<Box<Packet>> = Vec::with_capacity(input.len());
            q.on_capacity(Rate::from_mbps(12.0), SimTime::ZERO);
            for _ in 0..10 {
                let p = input.pop().expect("n exceeds the standing queue");
                q.enqueue(p, SimTime::ZERO);
            }
            let t = Instant::now();
            let mut step = 0u64;
            while let Some(p) = input.pop() {
                let now = SimTime::ZERO + SimDuration::from_millis(step);
                q.on_capacity(Rate::from_mbps(12.0), now);
                q.enqueue(p, now);
                if let Some(p) = q.dequeue(now) {
                    output.push(p);
                }
                step += 1;
            }
            samples.push(t.elapsed().as_secs_f64() * 1e9 / step as f64);
            let accels = output.iter().filter(|p| p.ecn == Ecn::Accelerate).count();
            accel_share = accels as f64 / output.len().max(1) as f64;
        }
        out.set(&format!("qdisc.{slug}.ns_per_pkt"), median(&samples));
        if slug == "abc" {
            out.set("abc_core.router.accel_share", accel_share);
        }
    }
}

/// `cellular.*`: trace synthesis, and a Mahimahi write → parse round
/// trip of every trace.
fn cellular_layer(cut: bool, out: &mut MetricSet, checks: &mut Checks) {
    let reps = if cut { 1 } else { 3 };
    let mut synth = Vec::new();
    let mut generated = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        generated = traces(cut);
        synth.push(t.elapsed().as_secs_f64() * 1e3 / generated.len() as f64);
    }
    out.set("cellular.synth_ms_per_trace", median(&synth));

    let files: Vec<Vec<u8>> = generated
        .iter()
        .map(|t| {
            let mut text = Vec::new();
            t.write_mahimahi(&mut text)
                .expect("writing to a Vec cannot fail");
            text
        })
        .collect();
    let bytes: usize = files.iter().map(Vec::len).sum();
    let mut parse = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        for (text, trace) in files.iter().zip(&generated) {
            let parsed = CellTrace::parse_mahimahi(&trace.name, text.as_slice());
            checks.check(
                parsed.is_ok_and(|p| p.opportunities.len() == trace.opportunities.len()),
                || format!("trace {} does not survive write → parse", trace.name),
            );
        }
        parse.push(bytes as f64 / 1e6 / t.elapsed().as_secs_f64());
    }
    out.set("cellular.parse_mb_per_s", median(&parse));
}

/// `preset.<name>.us_per_point`: each preset at Tiny scale through the
/// front door into memory.
fn preset_points(cut: bool, out: &mut MetricSet, checks: &mut Checks) {
    let opts = RunOptions::quiet().with_jobs(Some(1));
    let reps = if cut { 1 } else { 3 };
    for name in PRESETS {
        let campaign = preset(name, Scale::Tiny);
        let mut samples = Vec::new();
        for _ in 0..reps {
            let mut store = Vec::new();
            let t = Instant::now();
            let tally = run_campaign_streaming(&campaign, &opts, Vec::new(), &mut store);
            let wall = t.elapsed().as_secs_f64();
            match tally {
                Ok(tally) if tally.errors == 0 && tally.records > 0 => {
                    samples.push(wall * 1e6 / tally.records as f64)
                }
                other => checks.check(false, || format!("preset {name}: {other:?}")),
            }
        }
        out.set(
            &format!("preset.{name}.us_per_point"),
            percentile(&samples, 50.0),
        );
    }
}

/// The example campaign files, compiled from text already in memory.
const CAMPAIGN_FILES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../examples/campaigns");

/// `campaign.file.compile_us`: TOML text → `Campaign` at Tiny scale,
/// median over `examples/campaigns/*.toml`.
fn file_compile(cut: bool, out: &mut MetricSet, checks: &mut Checks) {
    let mut texts: Vec<(String, String)> = std::fs::read_dir(CAMPAIGN_FILES)
        .into_iter()
        .flatten()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .filter_map(|p| Some((p.display().to_string(), std::fs::read_to_string(&p).ok()?)))
        .collect();
    texts.sort();
    checks.check(!texts.is_empty(), || {
        format!("no campaign files under {CAMPAIGN_FILES}")
    });
    let reps = if cut { 1 } else { 20 };
    let mut per_file = Vec::new();
    for (path, text) in &texts {
        let mut samples = Vec::new();
        for _ in 0..reps {
            let t = Instant::now();
            let compiled = campaign::file::from_str(text, Scale::Tiny);
            samples.push(t.elapsed().as_secs_f64() * 1e6);
            checks.check(compiled.is_ok(), || format!("{path} does not compile"));
        }
        per_file.push(median(&samples));
    }
    out.set("campaign.file.compile_us", percentile(&per_file, 50.0));
}

/// Run every kernel and record its metrics.
pub fn run_all(cut: bool, out: &mut MetricSet, checks: &mut Checks) {
    event_queue(cut, out);
    let traces = traces(cut);
    feature_tax(&traces, cut, out);
    schemes(&traces, cut, out);
    qdiscs(cut, out);
    cellular_layer(cut, out, checks);
    preset_points(cut, out, checks);
    file_compile(cut, out, checks);
}
