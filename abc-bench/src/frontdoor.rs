//! The end-to-end side: timed rounds through the campaign runner's
//! front door, the output checks, and the three end-to-end metrics.
//! Tracing and allocation counting are off here by construction — this
//! module records no span and the end-to-end binary installs no
//! allocator.

use crate::metrics::{
    fnv64, median, peak_rss_mb, quartiles, Checks, MetricSet, Outcome, END_TO_END, FNV_INIT,
};
use crate::spans::{Probe, Untraced};
use crate::workload::{Plan, Workload};
use campaign::aggregate;
use campaign::figures;
use campaign::json::Value;
use campaign::runlog::{RunLedger, RunLogConfig};
use campaign::runner::{run_campaign_streaming, RunOptions, RunRecord};
use campaign::spec::Campaign;
use campaign::store::ResultsStore;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// What to run: one workload at one seed for a measuring time.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// The input seed (0 = the built-in inputs exactly; see
    /// [`Plan::new`] for what other seeds vary).
    pub seed: u64,
    /// How long to keep starting timed rounds.
    pub seconds: f64,
    /// Shrink every point list to the contract test's size and time a
    /// single round.
    pub cut: bool,
}

impl Config {
    /// Rounds timed even when `seconds` is already spent.
    pub fn min_rounds(&self) -> usize {
        if self.cut {
            1
        } else {
            3
        }
    }
}

/// Set-up is repeated so `setup_s` is a median, not one sample.
const SETUP_REPS: usize = 3;

/// The per-point wall-clock budget `cellular-instrumented` arms.
const WATCHDOG: Duration = Duration::from_secs(120);

/// The directory of the running executable: inside the build's target
/// directory, so inside the checkout. Scratch stores and span files go
/// here.
pub fn exe_dir() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    Ok(exe.parent().unwrap_or(Path::new(".")).to_path_buf())
}

/// A scratch directory beside the running executable, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Create `<exe dir>/abc-bench-work/<label>-<pid>-<n>`, `n` counting
    /// the directories this process has made (tests run side by side).
    pub fn new(label: &str) -> std::io::Result<WorkDir> {
        static MADE: AtomicU64 = AtomicU64::new(0);
        let n = MADE.fetch_add(1, Ordering::Relaxed);
        let dir = exe_dir()?
            .join("abc-bench-work")
            .join(format!("{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where `campaign`'s store goes inside `dir`.
pub fn store_path(dir: &Path, campaign: &Campaign) -> PathBuf {
    dir.join(format!("{}.jsonl", campaign.name))
}

/// Where `cellular-instrumented` keeps its telemetry sidecars.
pub fn telemetry_dir(dir: &Path) -> PathBuf {
    dir.join("telemetry")
}

/// Where `cellular-instrumented` keeps its run ledger.
pub fn runlog_path(dir: &Path) -> PathBuf {
    dir.join("runlog.jsonl")
}

/// The options every front-door run uses: quiet, `jobs` workers, and —
/// for `cellular-instrumented` — every opt-in feature on.
pub fn run_options(workload: Workload, dir: &Path, jobs: usize) -> RunOptions {
    let opts = RunOptions::quiet().with_jobs(Some(jobs));
    if workload == Workload::CellularInstrumented {
        opts.with_telemetry_dir(Some(telemetry_dir(dir)))
            .with_runlog(Some(RunLogConfig::new(runlog_path(dir))))
            .with_profile(true)
            .with_watchdog(Some(WATCHDOG))
    } else {
        opts
    }
}

/// Calls and wall time a [`TimingWriter`] saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct WriterStats {
    /// `write` calls.
    pub writes: u64,
    /// `flush` calls.
    pub flushes: u64,
    /// Wall ns inside `write` and `flush`.
    pub ns: u64,
}

/// A `Write` adapter that counts and times the calls the runner makes
/// on its store sink. Only the traced pass's front-door rounds use it;
/// end-to-end rounds hand the runner the bare `BufWriter<File>`.
struct TimingWriter<'a, W> {
    inner: W,
    stats: &'a mut WriterStats,
}

impl<W: Write> Write for TimingWriter<'_, W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let t = Instant::now();
        let n = self.inner.write(buf);
        self.stats.ns += t.elapsed().as_nanos() as u64;
        self.stats.writes += 1;
        n
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let t = Instant::now();
        let r = self.inner.flush();
        self.stats.ns += t.elapsed().as_nanos() as u64;
        self.stats.flushes += 1;
        r
    }
}

/// One timed round.
#[derive(Debug, Default)]
pub struct Round {
    /// Wall seconds of the round's fixed work.
    pub wall_s: f64,
    /// FNV-64 of what the last pass produced: the store files, or for
    /// `store-readback` every rendered output.
    pub digest: u64,
    /// Store lines written (or records read back) over all passes.
    pub lines: usize,
    /// Anything that went wrong: failed points, I/O or parse errors.
    pub problems: Vec<String>,
    /// What the store sink saw, when the round timed it.
    pub io: WriterStats,
}

/// The renderer the preset's figure uses, if it has one.
pub fn figure_for(campaign: &str) -> Option<fn(&[RunRecord]) -> String> {
    Some(match campaign {
        "cellular-matrix" => |r| figures::render_matrix(r, false) + &figures::render_table1(r),
        "explicit-matrix" => figures::render_fig16,
        "pareto" => figures::render_fig8,
        "rtt-grid" => figures::render_fig18,
        "web-load-grid" => figures::render_web_fct,
        "video-over-cellular" => figures::render_video_qoe,
        "rtc-coexist" => figures::render_rtc_coexist,
        "many-users" => figures::render_many_users,
        "robustness" => figures::render_robustness,
        "parking-lot" => figures::render_coexistence,
        _ => return None,
    })
}

/// The axis `aggregate` groups across, as `abc-campaign export` does.
pub const AGGREGATE_OVER: &str = "seed";

impl Plan {
    /// One pass of every campaign through `run_campaign_streaming`,
    /// each into its own file under `dir`, as `abc-campaign run` does
    /// it (`BufWriter<File>`, flushed per record by the runner). With
    /// `time_io` the sink is wrapped so `round.io` is filled in.
    pub fn simulate_pass(&self, dir: &Path, jobs: usize, time_io: bool, round: &mut Round) {
        let opts = run_options(self.workload, dir, jobs);
        for c in &self.campaigns {
            let path = store_path(dir, c);
            let run = std::fs::File::create(&path).and_then(|f| {
                let mut sink = std::io::BufWriter::new(f);
                if time_io {
                    let mut timed = TimingWriter {
                        inner: sink,
                        stats: &mut round.io,
                    };
                    run_campaign_streaming(c, &opts, Vec::new(), &mut timed)
                } else {
                    run_campaign_streaming(c, &opts, Vec::new(), &mut sink)
                }
            });
            match run {
                Ok(tally) => {
                    round.lines += tally.lines();
                    if tally.errors > 0 {
                        round
                            .problems
                            .push(format!("{}: {} point(s) failed", c.name, tally.errors));
                    }
                }
                Err(e) => round.problems.push(format!("{}: {e}", path.display())),
            }
        }
    }

    /// One read pass over every store under `dir`: `ResultsStore::load`
    /// → aggregate table → CSV → rollup → the preset's figure →
    /// `to_jsonl`. Everything rendered is appended to `sink`. Generic
    /// over the probe so the traced pass times the very same calls.
    pub fn read_pass<P: Probe>(
        &self,
        dir: &Path,
        probe: &mut P,
        sink: &mut Vec<u8>,
        round: &mut Round,
    ) {
        for c in &self.campaigns {
            let path = store_path(dir, c);
            let store = match probe.span("campaign.store.load", || ResultsStore::load(&path)) {
                Ok(s) => s,
                Err(e) => {
                    round.problems.push(format!("{}: {e}", path.display()));
                    continue;
                }
            };
            let records = &store.records;
            probe.span("campaign.aggregate", || {
                let aggs = aggregate::aggregate(records, AGGREGATE_OVER);
                sink.extend_from_slice(aggregate::render_table(&aggs, AGGREGATE_OVER).as_bytes());
                sink.extend_from_slice(aggregate::render_csv(records).as_bytes());
                sink.extend_from_slice(aggregate::render_rollup(records).as_bytes());
            });
            if let Some(render) = figure_for(&c.name) {
                probe.span("campaign.figures.render", || {
                    sink.extend_from_slice(render(records).as_bytes())
                });
            }
            probe.span("campaign.store.render", || {
                sink.extend_from_slice(store.to_jsonl().as_bytes())
            });
            round.lines += records.len();
        }
    }

    /// FNV-64 over this plan's store files, in campaign order.
    pub fn store_digest(&self, dir: &Path, problems: &mut Vec<String>) -> u64 {
        self.campaigns.iter().fold(FNV_INIT, |h, c| {
            let path = store_path(dir, c);
            match std::fs::read(&path) {
                Ok(bytes) => fnv64(h, &bytes),
                Err(e) => {
                    problems.push(format!("{}: {e}", path.display()));
                    h
                }
            }
        })
    }

    /// One round: `passes` passes of the workload's fixed work, timed;
    /// the digest is taken after the clock stops.
    pub fn round(&self, dir: &Path, jobs: usize, time_io: bool) -> Round {
        let mut round = Round::default();
        if self.workload.reads_only() {
            let mut sink = Vec::new();
            let t = Instant::now();
            for _ in 0..self.passes {
                sink.clear();
                self.read_pass(dir, &mut Untraced, &mut sink, &mut round);
            }
            round.wall_s = t.elapsed().as_secs_f64();
            round.digest = fnv64(FNV_INIT, &sink);
        } else {
            let t = Instant::now();
            for _ in 0..self.passes {
                self.simulate_pass(dir, jobs, time_io, &mut round);
            }
            round.wall_s = t.elapsed().as_secs_f64();
            round.digest = self.store_digest(dir, &mut round.problems);
        }
        round
    }
}

/// Set-up: build the inputs (trace synthesis, preset construction —
/// `make_plan`), for `store-readback` simulate the stores it will read,
/// then one warm-up round.
pub fn set_up(make_plan: &dyn Fn() -> Plan, dir: &Path) -> (Plan, Round) {
    let plan = make_plan();
    let mut stores = Round::default();
    if plan.workload.reads_only() {
        plan.simulate_pass(dir, 1, false, &mut stores);
    }
    let mut warm = plan.round(dir, 1, false);
    warm.problems.append(&mut stores.problems);
    (plan, warm)
}

/// The checks every round gets: nothing failed, every point left its
/// line, and the output is the first round's, byte for byte.
pub fn check_round(plan: &Plan, round: &Round, first_digest: u64, checks: &mut Checks) {
    checks.check(round.problems.is_empty(), || round.problems.join("; "));
    checks.check(round.lines == plan.points_per_round(), || {
        format!(
            "round produced {} lines, expected {}",
            round.lines,
            plan.points_per_round()
        )
    });
    checks.check(round.digest == first_digest, || {
        format!(
            "round digest {:016x} differs from the first round's {first_digest:016x}",
            round.digest
        )
    });
}

/// The committed pre-refactor `tiny` store every later store must match.
const TINY_BASELINE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../ci/campaign-tiny-baseline.jsonl"
);

/// One record's headline numbers are sane: no NaN, utilization within
/// [0, 1], and — where every point runs past its warm-up — a link that
/// was used and a defined fairness index (Jain is NaN over no flows).
fn record_is_sane(r: &RunRecord, carries_traffic: bool) -> bool {
    let rep = &r.report;
    let headline = [
        rep.utilization,
        rep.total_tput_mbps,
        rep.delay_ms.p95,
        rep.qdelay_ms.p95,
    ];
    let bounded = rep.utilization >= 0.0 && rep.utilization <= 1.0 + 1e-9;
    let used = rep.utilization > 0.0 && rep.total_tput_mbps > 0.0 && !rep.jain.is_nan();
    headline.iter().all(|x| !x.is_nan()) && bounded && (used || !carries_traffic)
}

/// The checks made once, after the timed rounds, on what is on disk.
pub fn verify_outputs(plan: &Plan, dir: &Path, checks: &mut Checks) {
    for c in &plan.campaigns {
        let path = store_path(dir, c);
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        let store = match ResultsStore::from_jsonl(&text) {
            Ok(s) => s,
            Err(e) => {
                checks.check(false, || format!("{}: {e}", path.display()));
                continue;
            }
        };
        checks.check(store.errors.is_empty(), || {
            format!("{}: {} error record(s)", c.name, store.errors.len())
        });
        checks.check(store.to_jsonl() == text, || {
            format!("{}: to_jsonl() does not reproduce the file", c.name)
        });
        for r in &store.records {
            checks.check(
                record_is_sane(r, plan.workload.records_carry_traffic()),
                || format!("{}: record {} is not sane", c.name, r.ordinal),
            );
        }
        if c.name == "tiny" {
            let baseline = std::fs::read_to_string(TINY_BASELINE).unwrap_or_default();
            checks.check(text == baseline, || {
                "the tiny store differs from ci/campaign-tiny-baseline.jsonl".to_string()
            });
        }
    }
    if plan.workload == Workload::CellularInstrumented {
        verify_instrumented(plan, dir, checks);
    }
}

/// `cellular-instrumented` only: the features must not perturb the
/// store, and must each leave their artifact.
fn verify_instrumented(plan: &Plan, dir: &Path, checks: &mut Checks) {
    let plain = RunOptions::quiet().with_jobs(Some(1));
    for c in &plan.campaigns {
        let mut twin = Vec::new();
        let ran = run_campaign_streaming(c, &plain, Vec::new(), &mut twin);
        let file = std::fs::read(store_path(dir, c)).unwrap_or_default();
        checks.check(ran.is_ok() && twin == file, || {
            format!("{}: store differs from its features-off twin", c.name)
        });
    }
    let sidecars = std::fs::read_dir(telemetry_dir(dir))
        .map(|d| {
            d.filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "jsonl"))
                .count()
        })
        .unwrap_or(0);
    checks.check(sidecars == plan.points_per_pass, || {
        format!(
            "{sidecars} telemetry sidecars for {} points",
            plan.points_per_pass
        )
    });
    match RunLedger::load(&runlog_path(dir)) {
        Ok(ledger) => checks.check(ledger.points.len() == plan.points_per_pass, || {
            format!(
                "run ledger has {} point spans for {} points",
                ledger.points.len(),
                plan.points_per_pass
            )
        }),
        Err(e) => checks.check(false, || format!("run ledger does not load: {e}")),
    }
}

/// Run one workload end to end: set-up (three times over, for a
/// median), then fixed-work rounds until `seconds` is spent, then the
/// checks on what is on disk.
pub fn run_end_to_end(cfg: &Config) -> std::io::Result<Outcome> {
    run_plan_end_to_end(cfg, &|| Plan::new(cfg.workload, cfg.seed, cfg.cut))
}

/// [`run_end_to_end`] over caller-built inputs — how the
/// deliberate-failure test feeds the front door a faulty campaign.
pub fn run_plan_end_to_end(cfg: &Config, make_plan: &dyn Fn() -> Plan) -> std::io::Result<Outcome> {
    let work = WorkDir::new(cfg.workload.name())?;
    let dir = work.path();
    let mut checks = Checks::default();

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        last = Some(set_up(make_plan, dir));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (plan, warm) = last.expect("SETUP_REPS is at least 1");
    check_round(&plan, &warm, warm.digest, &mut checks);

    let mut round_s = Vec::new();
    let started = Instant::now();
    while round_s.len() < cfg.min_rounds() || started.elapsed().as_secs_f64() < cfg.seconds {
        let round = plan.round(dir, 1, false);
        check_round(&plan, &round, warm.digest, &mut checks);
        round_s.push(round.wall_s);
    }
    // before the checks below load stores of their own
    let peak_rss = peak_rss_mb();
    verify_outputs(&plan, dir, &mut checks);

    let points = plan.points_per_round() as f64;
    let mut metrics = MetricSet::new(
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect(),
    );
    metrics.set("points_per_s", points / median(&round_s));
    metrics.set("peak_rss_mb", peak_rss);
    metrics.set("setup_s", median(&setup_s));
    let (round_q1, round_q3) = quartiles(&round_s);
    let (setup_q1, setup_q3) = quartiles(&setup_s);
    Ok(Outcome {
        workload: cfg.workload.name(),
        checks,
        metrics: metrics.finish(),
        detail: vec![
            ("seed".into(), Value::num(cfg.seed as f64)),
            (
                "store_fnv64".into(),
                Value::str(format!("{:016x}", warm.digest)),
            ),
            ("points_per_round".into(), Value::num(points)),
            ("rounds".into(), Value::num(round_s.len() as f64)),
            (
                "round_s".into(),
                Value::Arr(round_s.iter().map(|s| Value::num(*s)).collect()),
            ),
            ("round_s_median".into(), Value::num(median(&round_s))),
            ("round_s_q1".into(), Value::num(round_q1)),
            ("round_s_q3".into(), Value::num(round_q3)),
            ("setup_reps".into(), Value::num(setup_s.len() as f64)),
            ("setup_s_q1".into(), Value::num(setup_q1)),
            ("setup_s_q3".into(), Value::num(setup_q3)),
        ],
    })
}
