//! The traced pass: re-walks a workload's points layer by layer from
//! the outside — `Campaign::expand`, `ScenarioEngine::build`,
//! `run_to_end`, `finish`, `store::render_record`, the file write —
//! with a span around each call, and turns the spans into the per-layer
//! metrics. The walk writes the same store the front door writes; a
//! check holds it to that, byte for byte.

use crate::frontdoor::{
    check_round, exe_dir, run_options, runlog_path, set_up, store_path, telemetry_dir, Config,
    Round, WorkDir,
};
use crate::kernels;
use crate::metrics::{fnv64, median, per_layer, percentile, Checks, MetricSet, Outcome, FNV_INIT};
use crate::spans::{Spans, Total};
use crate::workload::Plan;
use campaign::json::Value;
use campaign::runner::RunRecord;
use campaign::store;
use experiments::engine::ScenarioEngine;
use netsim::sim::RunGuards;
use netsim::telemetry::TelemetryConfig;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// What one walked round found besides its spans.
#[derive(Debug, Default)]
struct Walk {
    /// The round's root span.
    root: usize,
    /// Wall ns of the round.
    wall_ns: u64,
    /// Simulator events processed, exact.
    events: u64,
    /// Per point: build + run + finish, ns.
    point_ns: Vec<f64>,
    /// Event-loop profiler sums, when the round profiled.
    deliver_ns: u64,
    timer_ns: u64,
    batch_ns: u64,
    pool_hits: u64,
    pool_misses: u64,
    /// FNV-64 of what the round left behind (see [`Round::digest`]).
    digest: u64,
    /// Anything that went wrong.
    problems: Vec<String>,
}

/// Walk one round of a simulating workload. `profile` turns the
/// event-loop profiler on for every point (it is always on for
/// `cellular-instrumented`, which runs that way through the front door
/// too).
fn walk_simulate(plan: &Plan, dir: &Path, spans: &mut Spans, profile: bool) -> Walk {
    let engine = ScenarioEngine::with_threads(1);
    let opts = run_options(plan.workload, dir, 1);
    let guards = RunGuards {
        max_events: None,
        max_wall_time: opts.watchdog,
    };
    let sidecars = opts.telemetry_dir.as_deref();
    let mut walk = Walk::default();
    if let Some(d) = sidecars {
        if let Err(e) = std::fs::create_dir_all(d) {
            walk.problems.push(format!("{}: {e}", d.display()));
        }
    }
    walk.root = spans.enter("round", None);
    let mut point = 0;
    for _ in 0..plan.passes {
        for c in &plan.campaigns {
            let path = store_path(dir, c);
            let (points, _) = spans.time("campaign.spec.expand", None, || c.expand());
            let mut sink = match std::fs::File::create(&path) {
                Ok(f) => std::io::BufWriter::new(f),
                Err(e) => {
                    walk.problems.push(format!("{}: {e}", path.display()));
                    continue;
                }
            };
            let header = store::render_header(&store::header_for(c, points.len()));
            let mut written = spans
                .time("campaign.store.write", None, || writeln!(sink, "{header}"))
                .0;
            for p in points {
                let mut spec = p.spec;
                if sidecars.is_some() && spec.telemetry.is_none() {
                    spec.telemetry = Some(TelemetryConfig::default());
                }
                let (mut built, build_ns) =
                    spans.time("experiments.engine.build", Some(point), || {
                        let mut b = engine.build(&spec);
                        if profile || opts.profile {
                            b.sim.enable_profiler();
                        }
                        b.sim.set_guards(guards);
                        b
                    });
                let ((), run_ns) = spans.time("netsim.sim.run", Some(point), || built.run_to_end());
                walk.events += built.sim.events_processed();
                if let Some(reason) = built.sim.aborted() {
                    walk.problems.push(reason.describe());
                }
                if let Some(rep) = built.sim.profile_report() {
                    walk.deliver_ns += rep.deliver_ns;
                    walk.timer_ns += rep.timer_ns;
                    walk.batch_ns += rep.batch_ns;
                    walk.pool_hits += rep.pool.hits;
                    walk.pool_misses += rep.pool.misses;
                }
                if let Some(d) = sidecars {
                    let out = d.join(format!("{}.jsonl", p.ordinal));
                    let wrote = spans
                        .time("netsim.telemetry.sidecar", Some(point), || {
                            built
                                .sidecar()
                                .map_or(Ok(()), |text| std::fs::write(&out, text))
                        })
                        .0;
                    if let Err(e) = wrote {
                        walk.problems.push(format!("{}: {e}", out.display()));
                    }
                }
                let (report, finish_ns) =
                    spans.time("experiments.engine.finish", Some(point), || built.finish());
                walk.point_ns.push((build_ns + run_ns + finish_ns) as f64);
                let record = RunRecord {
                    ordinal: p.ordinal,
                    coords: p.coords,
                    report,
                };
                let (line, _) = spans.time("campaign.store.render", Some(point), || {
                    store::render_record(&record)
                });
                let (wrote, _) = spans.time("campaign.store.write", Some(point), || {
                    writeln!(sink, "{line}").and_then(|()| sink.flush())
                });
                written = written.and(wrote);
                point += 1;
            }
            if let Err(e) = written {
                walk.problems.push(format!("{}: {e}", path.display()));
            }
        }
    }
    walk.wall_ns = spans.exit(walk.root);
    walk.digest = plan.store_digest(dir, &mut walk.problems);
    walk
}

/// Walk `passes` read passes over the stores under `dir` — the same
/// [`Plan::read_pass`] the end-to-end rounds run, with the span
/// recorder as its probe.
fn walk_read(plan: &Plan, dir: &Path, spans: &mut Spans, passes: usize) -> Walk {
    let mut round = Round::default();
    let mut sink = Vec::new();
    let root = spans.enter("round", None);
    for _ in 0..passes {
        sink.clear();
        plan.read_pass(dir, spans, &mut sink, &mut round);
    }
    Walk {
        root,
        wall_ns: spans.exit(root),
        digest: fnv64(FNV_INIT, &sink),
        problems: round.problems,
        ..Walk::default()
    }
}

/// The total of `name` in `totals` (zeros if the round never entered
/// that layer).
fn total(totals: &[(&'static str, Total)], name: &str) -> Total {
    totals
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(Total::default(), |(_, t)| *t)
}

/// Bytes of the regular files directly under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(Result::ok)
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

/// Run one workload's traced pass: front-door rounds (the untraced
/// reference, through the timing `Write` adapter), walked rounds, one
/// profiled walk, one read walk, the layer kernels; then every
/// per-layer metric and the span file.
pub fn run_traced(cfg: &Config) -> std::io::Result<Outcome> {
    let work = WorkDir::new(&format!("{}-traced", cfg.workload.name()))?;
    let dir = work.path();
    let mut checks = Checks::default();
    let mut spans = Spans::default();
    let (plan, warm) = set_up(&|| Plan::new(cfg.workload, cfg.seed, cfg.cut), dir);
    check_round(&plan, &warm, warm.digest, &mut checks);
    let reads_only = plan.workload.reads_only();
    // the measuring time is split between the two kinds of round
    let budget = cfg.seconds / 3.0;

    let mut front: Vec<Round> = Vec::new();
    let started = Instant::now();
    while front.len() < cfg.min_rounds() || started.elapsed().as_secs_f64() < budget {
        let round = plan.round(dir, 1, true);
        check_round(&plan, &round, warm.digest, &mut checks);
        front.push(round);
    }
    let front_s = median(&front.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    // informational: the same round on two workers
    let j2_s = if reads_only {
        front_s
    } else {
        let round = plan.round(dir, 2, false);
        check_round(&plan, &round, warm.digest, &mut checks);
        round.wall_s
    };
    // what the features-on front door leaves per point, before the walk
    // overwrites it
    let points = plan.points_per_round() as f64;
    let runlog_bytes = std::fs::metadata(runlog_path(dir)).map_or(0, |m| m.len());
    let sidecar_bytes = dir_bytes(&telemetry_dir(dir));

    let mut walks: Vec<Walk> = Vec::new();
    let started = Instant::now();
    while walks.len() < cfg.min_rounds() || started.elapsed().as_secs_f64() < budget {
        let walk = if reads_only {
            walk_read(&plan, dir, &mut spans, plan.passes)
        } else {
            walk_simulate(&plan, dir, &mut spans, false)
        };
        checks.check(walk.problems.is_empty(), || walk.problems.join("; "));
        checks.check(walk.digest == warm.digest, || {
            format!(
                "the walk's output {:016x} is not the front door's {:016x}",
                walk.digest, warm.digest
            )
        });
        walks.push(walk);
    }
    let profiled = if reads_only {
        Walk::default()
    } else {
        let mut scratch = Spans::default();
        walk_simulate(&plan, dir, &mut scratch, true)
    };
    // the read-side layers get a number on every workload: from the
    // walked rounds where reading is the workload, otherwise from one
    // read pass over the stores the walk just wrote
    let (reads, read_passes): (Vec<usize>, usize) = if reads_only {
        (walks.iter().map(|w| w.root).collect(), plan.passes)
    } else {
        let walk = walk_read(&plan, dir, &mut spans, 1);
        checks.check(walk.problems.is_empty(), || walk.problems.join("; "));
        (vec![walk.root], 1)
    };
    let store_bytes: u64 = plan
        .campaigns
        .iter()
        .filter_map(|c| std::fs::metadata(store_path(dir, c)).ok())
        .map(|m| m.len())
        .sum();

    // per walked round, per layer name
    let totals: Vec<Vec<(&'static str, Total)>> =
        walks.iter().map(|w| spans.totals_under(w.root)).collect();
    let read_totals: Vec<Vec<(&'static str, Total)>> =
        reads.iter().map(|r| spans.totals_under(*r)).collect();
    // median over rounds of one layer's seconds per round
    let secs = |of: &[Vec<(&'static str, Total)>], name: &str| {
        median(
            &of.iter()
                .map(|t| total(t, name).ns as f64 / 1e9)
                .collect::<Vec<_>>(),
        )
    };
    // median duration of the spans called `name`, µs
    let median_us = |name: &str| {
        let ns: Vec<f64> = spans
            .all()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect();
        percentile(&ns, 50.0) / 1e3
    };
    let traced_s = median(
        &walks
            .iter()
            .map(|w| w.wall_ns as f64 / 1e9)
            .collect::<Vec<_>>(),
    );
    let first = &totals[0];
    let events = walks[0].events as f64;
    let run_s = secs(&totals, "netsim.sim.run");
    let build_s = secs(&totals, "experiments.engine.build");
    let finish_s = secs(&totals, "experiments.engine.finish");
    let expand_s = secs(&totals, "campaign.spec.expand");
    // every span but the round itself is a leaf or covers only leaves
    let leaf_s = median(
        &totals
            .iter()
            .map(|t| {
                t.iter()
                    .filter(|(n, _)| *n != "round")
                    .map(|(_, x)| x.self_ns)
                    .sum::<u64>() as f64
                    / 1e9
            })
            .collect::<Vec<_>>(),
    );
    let point_ms: Vec<f64> = walks
        .iter()
        .flat_map(|w| w.point_ns.iter().map(|ns| ns / 1e6))
        .collect();
    let dispatch_ns = (profiled.deliver_ns + profiled.timer_ns + profiled.batch_ns) as f64;
    let read_mb = store_bytes as f64 * read_passes as f64 / 1e6;
    let records_read = (plan.points_per_pass * read_passes) as f64;
    let io = front[0].io;

    let mut m = MetricSet::new(per_layer());
    m.set("netsim.sim.events", events);
    m.set("netsim.sim.run_s", run_s);
    m.set("netsim.sim.ns_per_event", run_s * 1e9 / events);
    m.set("netsim.sim.share", run_s / traced_s);
    m.set(
        "netsim.sim.allocs_per_event",
        total(first, "netsim.sim.run").allocs as f64 / events,
    );
    m.set(
        "netsim.sim.deliver_share",
        profiled.deliver_ns as f64 / dispatch_ns,
    );
    m.set(
        "netsim.sim.timer_share",
        profiled.timer_ns as f64 / dispatch_ns,
    );
    m.set(
        "netsim.sim.batch_share",
        profiled.batch_ns as f64 / dispatch_ns,
    );
    m.set(
        "netsim.sim.pool_hit_ratio",
        profiled.pool_hits as f64 / (profiled.pool_hits + profiled.pool_misses) as f64,
    );
    m.set(
        "netsim.telemetry.sidecar_bytes_per_point",
        sidecar_bytes as f64 / points,
    );
    m.set(
        "experiments.engine.build_us",
        median_us("experiments.engine.build"),
    );
    m.set(
        "experiments.engine.finish_us",
        median_us("experiments.engine.finish"),
    );
    m.set(
        "experiments.engine.build_allocs",
        total(first, "experiments.engine.build").allocs as f64 / points,
    );
    m.set("experiments.engine.build_share", build_s / traced_s);
    m.set("experiments.engine.finish_share", finish_s / traced_s);
    m.set("campaign.spec.expand_us_per_point", expand_s * 1e6 / points);
    m.set("campaign.spec.expand_share", expand_s / traced_s);
    m.set(
        "campaign.runner.overhead_share",
        (front_s - leaf_s) / front_s,
    );
    m.set("campaign.runner.point_ms_p50", percentile(&point_ms, 50.0));
    m.set("campaign.runner.point_ms_p95", percentile(&point_ms, 95.0));
    m.set("campaign.runner.j2_speedup", front_s / j2_s);
    m.set(
        "campaign.runlog.bytes_per_point",
        runlog_bytes as f64 / points,
    );
    m.set(
        "campaign.store.render_mb_per_s",
        read_mb / secs(&read_totals, "campaign.store.render"),
    );
    m.set(
        "campaign.store.parse_mb_per_s",
        read_mb / secs(&read_totals, "campaign.store.load"),
    );
    m.set(
        "campaign.store.bytes_per_record",
        store_bytes as f64 / plan.points_per_pass as f64,
    );
    m.set(
        "campaign.store.allocs_per_record",
        total(&read_totals[0], "campaign.store.render").allocs as f64 / records_read,
    );
    m.set(
        "campaign.store.flush_share",
        io.ns as f64 / 1e9 / front[0].wall_s,
    );
    m.set(
        "campaign.store.writes_per_record",
        io.writes as f64 / points,
    );
    m.set(
        "campaign.aggregate.us_per_record",
        secs(&read_totals, "campaign.aggregate") * 1e6 / records_read,
    );
    m.set(
        "campaign.figures.render_ms",
        secs(&read_totals, "campaign.figures.render") * 1e3 / read_passes as f64,
    );
    m.set("trace.overhead_share", traced_s / front_s - 1.0);
    m.set("trace.spans", spans.all().len() as f64);
    m.set("trace.front_door_round_s", front_s);
    m.set("trace.traced_round_s", traced_s);
    kernels::run_all(cfg.cut, &mut m, &mut checks);

    let span_path = exe_dir()?.join(format!("abc-bench-trace-{}.json", cfg.workload.name()));
    std::fs::write(&span_path, spans.to_chrome_json())?;
    let self_times = Value::Obj(
        first
            .iter()
            .map(|(name, t)| (name.to_string(), Value::num(t.self_ns as f64 / 1e9)))
            .collect(),
    );
    Ok(Outcome {
        workload: cfg.workload.name(),
        checks,
        metrics: m.finish(),
        detail: vec![
            ("seed".into(), Value::num(cfg.seed as f64)),
            (
                "store_fnv64".into(),
                Value::str(format!("{:016x}", warm.digest)),
            ),
            ("front_door_rounds".into(), Value::num(front.len() as f64)),
            ("traced_rounds".into(), Value::num(walks.len() as f64)),
            ("point_samples".into(), Value::num(point_ms.len() as f64)),
            ("self_s_first_traced_round".into(), self_times),
            (
                "span_file".into(),
                Value::str(span_path.display().to_string()),
            ),
        ],
    })
}
