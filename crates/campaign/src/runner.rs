//! The campaign executor: every expanded point streams through the
//! engine's one ordered worker pool ([`ScenarioEngine::for_each_ordered`]),
//! and each outcome is committed — store line, sidecar, ledger spans — in
//! ordinal order as soon as every earlier point has finished.
//!
//! Results are **bit-identical** across reruns and worker-pool sizes: the
//! engine guarantees each report is a pure function of its spec, the pool
//! hands outcomes back in ordinal order whatever finished first, and
//! progress goes to stderr so the artifact stream stays clean.
//!
//! Execution is **fault-tolerant**: every point runs inside a panic
//! boundary ([`std::panic::catch_unwind`]) with an optional per-point
//! wall-clock watchdog (the simulator's cooperative
//! [`RunGuards`]). A point that panics is retried
//! a bounded number of times, then recorded as a structured
//! [`ErrorRecord`] — the store stays valid, diffable, and resumable, and
//! `--resume` re-attempts exactly the failed ordinals. Without
//! `keep_going` the run stops at the first failed ordinal, so a fail-fast
//! store holds the same points at any pool size.
//!
//! Execution is **observable**: with a [`RunLogConfig`] (or a telemetry
//! dir, which gets a `runlog.jsonl` by default) the runner streams an
//! `abc-runlog/v2` ledger of per-attempt point spans (see
//! [`crate::runlog`]). Wall-clock data lives only there — the results
//! store stays byte-identical with or without the ledger and `--profile`.

use crate::runlog::{self, RunLogConfig, SpanOutcome};
use crate::spec::{Campaign, CampaignPoint, Coords};
use experiments::engine::{PointRun, ScenarioEngine};
use experiments::report::Report;
use netsim::sim::RunGuards;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::io::Write;
use std::ops::ControlFlow;
use std::time::Instant;

/// How a campaign run is executed. `jobs: None` defers to
/// [`ScenarioEngine::new`], which honors the `ABC_JOBS` environment
/// variable and otherwise uses every core.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Worker-pool size; `None` defers to [`ScenarioEngine::new`].
    pub jobs: Option<usize>,
    /// Report progress to stderr: at most one line per wall second while
    /// points finish, plus one when the run ends.
    pub progress: bool,
    /// Write one telemetry sidecar per executed point to this directory
    /// (`<ordinal>.jsonl`). Points whose spec carries no telemetry config
    /// get the default signal set. Sidecars bypass the results store, so
    /// stored bytes stay identical with or without this.
    pub telemetry_dir: Option<std::path::PathBuf>,
    /// Keep executing the remaining points after one fails (panic or
    /// watchdog abort). When `false` — the default — the run stops at the
    /// first failed ordinal: outcomes, store and ledger hold exactly the
    /// ordinals up to and including it, at any pool size. Either way the
    /// failed point becomes an [`ErrorRecord`] and the store stays valid
    /// and resumable.
    pub keep_going: bool,
    /// How many extra attempts a *panicking* point gets before it is
    /// recorded as failed. Watchdog aborts are never retried — the budget
    /// would only expire again.
    pub retries: u32,
    /// Wall-clock budget per point. Exceeding it cancels the point
    /// cooperatively (via [`RunGuards`]) and records a
    /// [`ErrorKind::Watchdog`] error instead of hanging the campaign.
    pub watchdog: Option<std::time::Duration>,
    /// Write an `abc-runlog/v2` run ledger (see [`crate::runlog`]).
    /// `None` still emits one into `telemetry_dir` (as `runlog.jsonl`)
    /// when that is set.
    pub runlog: Option<RunLogConfig>,
    /// Profile every point with the wall-clock event-loop profiler and
    /// record the headline fractions on its ledger span. Wall-only:
    /// the results store is unaffected.
    pub profile: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            jobs: None,
            progress: false,
            telemetry_dir: None,
            keep_going: false,
            retries: 1,
            watchdog: None,
            runlog: None,
            profile: false,
        }
    }
}

impl RunOptions {
    /// Quiet defaults for harnesses and tests.
    pub fn quiet() -> Self {
        RunOptions::default()
    }

    /// Set the worker-pool size (`None` = `ABC_JOBS`/all cores).
    pub fn with_jobs(mut self, jobs: Option<usize>) -> Self {
        self.jobs = jobs;
        self
    }

    /// Write per-point telemetry sidecars to `dir` (`None` disables).
    pub fn with_telemetry_dir(mut self, dir: Option<std::path::PathBuf>) -> Self {
        self.telemetry_dir = dir;
        self
    }

    /// Keep executing remaining points after a failure.
    pub fn with_keep_going(mut self, keep_going: bool) -> Self {
        self.keep_going = keep_going;
        self
    }

    /// Extra attempts for panicking points before recording an error.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Per-point wall-clock budget (`None` disables the watchdog).
    pub fn with_watchdog(mut self, budget: Option<std::time::Duration>) -> Self {
        self.watchdog = budget;
        self
    }

    /// Write the run ledger to this destination (`None` falls back to
    /// `telemetry_dir/runlog.jsonl` when a telemetry dir is set).
    pub fn with_runlog(mut self, runlog: Option<RunLogConfig>) -> Self {
        self.runlog = runlog;
        self
    }

    /// Profile every point and annotate its ledger span.
    pub fn with_profile(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }

    fn engine(&self) -> ScenarioEngine {
        match self.jobs {
            Some(n) => ScenarioEngine::with_threads(n),
            None => ScenarioEngine::new(),
        }
    }
}

/// One executed campaign point: its stable ordinal, coordinates, and the
/// engine's [`Report`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// The point's position in the unfiltered cartesian product.
    pub ordinal: usize,
    /// `(axis, label)` coordinates in axis order.
    pub coords: Coords,
    /// The engine's full report for this point.
    pub report: Report,
}

/// Why a campaign point failed to produce a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The scenario panicked; the panic was caught at the point boundary.
    Panic,
    /// The per-point wall-clock watchdog cancelled the run.
    Watchdog,
}

impl ErrorKind {
    /// The stable store-schema name: `"panic"` or `"watchdog"`.
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorKind::Panic => "panic",
            ErrorKind::Watchdog => "watchdog",
        }
    }

    /// Inverse of [`ErrorKind::as_str`].
    pub fn from_name(name: &str) -> Option<ErrorKind> {
        match name {
            "panic" => Some(ErrorKind::Panic),
            "watchdog" => Some(ErrorKind::Watchdog),
            _ => None,
        }
    }
}

/// The structured failure a crashed point leaves behind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointError {
    /// What went wrong.
    pub kind: ErrorKind,
    /// The panic payload, or the watchdog's abort description. Watchdog
    /// messages name the configured budget — never the elapsed time — so
    /// they are deterministic and safe to store.
    pub message: String,
}

/// A failed campaign point. The store writes these alongside the clean
/// records, so a campaign with a crashing point still leaves a valid,
/// diffable, resumable store behind.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorRecord {
    /// The point's position in the unfiltered cartesian product.
    pub ordinal: usize,
    /// `(axis, label)` coordinates in axis order.
    pub coords: Coords,
    /// What went wrong.
    pub error: PointError,
}

/// One executed point: a clean [`RunRecord`] or a structured
/// [`ErrorRecord`].
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)] // Ok is the overwhelmingly common case
pub enum PointOutcome {
    /// The point ran to completion.
    Ok(RunRecord),
    /// The point panicked (after retries) or tripped the watchdog.
    Err(ErrorRecord),
}

impl PointOutcome {
    /// The point's stable ordinal, whichever way it went.
    pub fn ordinal(&self) -> usize {
        match self {
            PointOutcome::Ok(r) => r.ordinal,
            PointOutcome::Err(e) => e.ordinal,
        }
    }
}

/// Split a run's outcomes into clean records and errors, both in the
/// original (expansion) order.
pub fn split_outcomes(outcomes: Vec<PointOutcome>) -> (Vec<RunRecord>, Vec<ErrorRecord>) {
    let mut records = Vec::new();
    let mut errors = Vec::new();
    for o in outcomes {
        match o {
            PointOutcome::Ok(r) => records.push(r),
            PointOutcome::Err(e) => errors.push(e),
        }
    }
    (records, errors)
}

/// Expand and execute a campaign; `records[i]` belongs to the `i`-th
/// surviving point of [`Campaign::expand`]. Panics if any point fails —
/// use [`run_campaign_outcomes`] to observe failures as data instead.
pub fn run_campaign(campaign: &Campaign, opts: &RunOptions) -> Vec<RunRecord> {
    expect_clean(run_campaign_outcomes(campaign, opts))
}

/// Expand and execute a campaign, returning every point's outcome —
/// clean reports and structured errors alike. The fault-tolerant
/// counterpart of [`run_campaign`].
pub fn run_campaign_outcomes(campaign: &Campaign, opts: &RunOptions) -> Vec<PointOutcome> {
    let (mut outcomes, points) = (Vec::new(), campaign.expand());
    let write = |ordinal, sidecar| write_sidecar(opts, ordinal, sidecar);
    let skip = HashSet::new();
    run_points_with(campaign, points, opts, &skip, |o| outcomes.push(o), write);
    outcomes
}

fn expect_clean(outcomes: Vec<PointOutcome>) -> Vec<RunRecord> {
    outcomes
        .into_iter()
        .map(|o| match o {
            PointOutcome::Ok(r) => r,
            PointOutcome::Err(e) => panic!(
                "campaign point {} failed ({}): {}",
                e.ordinal,
                e.error.kind.as_str(),
                e.error.message
            ),
        })
        .collect()
}

/// [`run_campaign`] that keeps each point's telemetry sidecar in memory,
/// beside its record (`None` for a point whose spec records no
/// telemetry) — the input of figures that plot within-run series.
pub fn run_campaign_sidecars(
    campaign: &Campaign,
    opts: &RunOptions,
) -> Vec<(RunRecord, Option<String>)> {
    let mut sidecars = BTreeMap::new();
    let mut outcomes = Vec::new();
    run_points_with(
        campaign,
        campaign.expand(),
        opts,
        &HashSet::new(),
        |o| outcomes.push(o),
        |ordinal, sidecar| {
            sidecars.insert(ordinal, sidecar);
        },
    );
    expect_clean(outcomes)
        .into_iter()
        .map(|r| {
            let sidecar = sidecars.remove(&r.ordinal);
            (r, sidecar)
        })
        .collect()
}

/// Write one point's sidecar into the run's telemetry dir, if it has one.
fn write_sidecar(opts: &RunOptions, ordinal: usize, sidecar: String) {
    if let Some(dir) = &opts.telemetry_dir {
        let path = dir.join(format!("{ordinal}.jsonl"));
        if let Err(e) = std::fs::write(&path, sidecar) {
            eprintln!("[abc-campaign] cannot write {}: {e}", path.display());
        }
    }
}

/// One execution attempt's wall-clock record, accumulated inside the
/// worker closure against the shared run epoch.
struct AttemptLog {
    start_ns: u64,
    end_ns: u64,
    events: u64,
    outcome: SpanOutcome,
    profile: Option<runlog::ProfileFractions>,
}

/// What one point's worker-side execution returns: the store-facing
/// result plus the ledger-facing span data (worker slot, one
/// [`AttemptLog`] per attempt).
struct PointExec {
    result: Result<PointRun, PointError>,
    worker: usize,
    attempts: Vec<AttemptLog>,
}

/// Best-effort ledger writer: an I/O error prints once and disables the
/// ledger — observability must never fail the run it observes. One write
/// per point, so a killed run tears at most the point in flight.
struct LedgerWriter(Option<(std::fs::File, std::path::PathBuf)>);

impl LedgerWriter {
    fn create(path: &std::path::Path) -> Self {
        match std::fs::File::create(path) {
            Ok(f) => LedgerWriter(Some((f, path.to_path_buf()))),
            Err(e) => {
                eprintln!(
                    "[abc-campaign] cannot create run ledger {}: {e}",
                    path.display()
                );
                LedgerWriter(None)
            }
        }
    }

    fn write(&mut self, lines: &str) {
        if let Some((f, path)) = &mut self.0 {
            if let Err(e) = f.write_all(lines.as_bytes()) {
                eprintln!(
                    "[abc-campaign] run ledger write to {} failed: {e} (disabling ledger)",
                    path.display()
                );
                self.0 = None;
            }
        }
    }
}

/// How many progress lines back the ETA's rate is measured from, so one
/// long-tail point early in the run stops skewing it for the remainder.
const ETA_WINDOW: usize = 8;

/// The stderr progress line: printed at most once per wall second while
/// points finish, plus once when the run ends.
struct Progress<'a> {
    campaign: &'a str,
    total: usize,
    start: Instant,
    done: usize,
    events: u64,
    /// `(elapsed s, done)` of the last [`ETA_WINDOW`] lines, newest last.
    printed: VecDeque<(f64, usize)>,
}

impl Progress<'_> {
    /// Count one finished point (`end`: the run is over). Prints a line at
    /// the end, or once a wall second has passed since the last line (or
    /// the start). A mid-run line's ETA extrapolates the rate since the
    /// oldest remembered line — at least one point and one second ago, so
    /// the rate is finite; the final line has none.
    fn tick(&mut self, events: u64, end: bool) {
        if !end {
            self.done += 1;
        }
        self.events += events;
        let (done, total) = (self.done, self.total);
        let elapsed = self.start.elapsed().as_secs_f64();
        if !end && elapsed - self.printed.back().map_or(0.0, |&(t, _)| t) < 1.0 {
            return;
        }
        let eta = if end || done == total {
            String::new()
        } else {
            let (t0, d0) = self.printed.front().copied().unwrap_or((0.0, 0));
            let rate = (done - d0) as f64 / (elapsed - t0);
            format!(" · ETA {:.0}s", (total - done) as f64 / rate)
        };
        self.printed.push_back((elapsed, done));
        if self.printed.len() > ETA_WINDOW {
            self.printed.pop_front();
        }
        eprintln!(
            "[abc-campaign] {}: {done}/{total} scenarios ({:.0}%) in {elapsed:.1}s · {:.1} Mev/s{eta}",
            self.campaign,
            100.0 * done as f64 / total.max(1) as f64,
            self.events as f64 / elapsed.max(1e-9) / 1e6,
        );
    }
}

/// Render a caught panic payload the way `std`'s default hook would.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// The execution core under every run path: takes an already-expanded
/// point list so callers that need the expansion for other purposes
/// (header point counts, shard slicing) expand exactly once. Each point
/// runs inside a panic boundary with the configured watchdog on the
/// engine's worker pool; outcomes come back in ordinal order, and each
/// one's ledger spans are written, its sidecar (if its spec records one)
/// goes to `on_sidecar` with the point's ordinal, and the outcome goes to
/// `on_outcome`. Failures become [`PointOutcome::Err`] and — unless
/// `keep_going` is set — end the run at the first failed ordinal.
fn run_points_with<F: FnMut(PointOutcome), S: FnMut(usize, String)>(
    campaign: &Campaign,
    points: Vec<CampaignPoint>,
    opts: &RunOptions,
    skip: &HashSet<usize>,
    mut on_outcome: F,
    mut on_sidecar: S,
) {
    let mut points: Vec<_> = points
        .into_iter()
        .filter(|p| !skip.contains(&p.ordinal))
        .collect();
    if opts.telemetry_dir.is_some() {
        for p in &mut points {
            p.spec.telemetry.get_or_insert_with(Default::default);
        }
    }
    let engine = opts.engine();
    let total = points.len();
    let start = Instant::now();
    let workers = engine.threads().min(total.max(1));
    if opts.progress {
        eprintln!(
            "[abc-campaign] {}: {} scenarios ({} unfiltered, {} resumed) on {} worker(s)",
            campaign.name,
            total,
            campaign.size_unfiltered(),
            skip.len(),
            workers,
        );
    }
    if let Some(dir) = &opts.telemetry_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!(
                "[abc-campaign] cannot create telemetry dir {}: {e}",
                dir.display()
            );
        }
    }
    // Ledger destination: an explicit config wins; a telemetry dir gets
    // one by default so instrumented runs are self-contained.
    let runlog_cfg = opts.runlog.clone().or_else(|| {
        opts.telemetry_dir
            .as_ref()
            .map(|d| RunLogConfig::new(d.join("runlog.jsonl")))
    });
    let mut ledger = LedgerWriter(None);
    if let Some(cfg) = &runlog_cfg {
        let header = runlog::render_header(&runlog::LedgerHeader {
            campaign: campaign.name.clone(),
            scale: cfg.scale.clone(),
            points: total,
            workers,
            shard: cfg.shard,
            retries: opts.retries,
            watchdog_budget_s: opts.watchdog.map(|d| d.as_secs_f64()),
            keep_going: opts.keep_going,
            profile: opts.profile,
        });
        ledger = LedgerWriter::create(&cfg.path);
        ledger.write(&format!("{header}\n"));
    }
    let guards = RunGuards {
        max_events: None,
        max_wall_time: opts.watchdog,
    };
    let retries = opts.retries;
    let profile_on = opts.profile;
    let mut progress = opts.progress.then(|| Progress {
        campaign: &campaign.name,
        total,
        start,
        done: 0,
        events: 0,
        printed: VecDeque::new(),
    });
    engine.for_each_ordered(
        &points,
        // The boundary must sit *inside* the worker closure: a panic that
        // escapes it would unwind through the pool and abort the whole
        // run instead of failing one point.
        |e, point, worker| {
            let mut attempts: Vec<AttemptLog> = Vec::new();
            loop {
                let t0 = start.elapsed().as_nanos() as u64;
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    e.run_point(&point.spec, guards, profile_on)
                }));
                let t1 = start.elapsed().as_nanos() as u64;
                match run {
                    Ok(Ok(out)) => {
                        attempts.push(AttemptLog {
                            start_ns: t0,
                            end_ns: t1,
                            events: out.events,
                            outcome: SpanOutcome::Ok,
                            profile: out.profile.as_ref().map(runlog::ProfileFractions::of),
                        });
                        return PointExec {
                            result: Ok(out),
                            worker,
                            attempts,
                        };
                    }
                    // Watchdog abort: deterministic, retrying would only
                    // burn the budget again.
                    Ok(Err(msg)) => {
                        attempts.push(AttemptLog {
                            start_ns: t0,
                            end_ns: t1,
                            events: 0,
                            outcome: SpanOutcome::Watchdog(msg.clone()),
                            profile: None,
                        });
                        return PointExec {
                            result: Err(PointError {
                                kind: ErrorKind::Watchdog,
                                message: msg,
                            }),
                            worker,
                            attempts,
                        };
                    }
                    Err(payload) => {
                        let message = panic_message(payload);
                        attempts.push(AttemptLog {
                            start_ns: t0,
                            end_ns: t1,
                            events: 0,
                            outcome: SpanOutcome::Panic(message.clone()),
                            profile: None,
                        });
                        if (attempts.len() as u32) <= retries {
                            continue;
                        }
                        return PointExec {
                            result: Err(PointError {
                                kind: ErrorKind::Panic,
                                message,
                            }),
                            worker,
                            attempts,
                        };
                    }
                }
            }
        },
        |i, exec| {
            let point = &points[i];
            // One ledger span per attempt, retries included.
            let mut spans = String::new();
            for (attempt, a) in exec.attempts.iter().enumerate() {
                let dur = a.end_ns.saturating_sub(a.start_ns).max(1);
                spans += &runlog::render_point(&runlog::PointSpan {
                    ordinal: point.ordinal,
                    coords: point.coords.clone(),
                    attempt: attempt as u32,
                    worker: exec.worker,
                    start_ns: a.start_ns,
                    end_ns: a.end_ns,
                    events: a.events,
                    events_per_sec: a.events as f64 * 1e9 / dur as f64,
                    outcome: a.outcome.clone(),
                    profile: a.profile,
                });
                spans.push('\n');
            }
            ledger.write(&spans);
            let (events, failed) = match exec.result {
                Ok(out) => {
                    if let Some(sidecar) = out.sidecar {
                        on_sidecar(point.ordinal, sidecar);
                    }
                    on_outcome(PointOutcome::Ok(RunRecord {
                        ordinal: point.ordinal,
                        coords: point.coords.clone(),
                        report: out.report,
                    }));
                    (out.events, false)
                }
                Err(error) => {
                    eprintln!(
                        "[abc-campaign] point {} failed ({}): {}",
                        point.ordinal,
                        error.kind.as_str(),
                        error.message
                    );
                    on_outcome(PointOutcome::Err(ErrorRecord {
                        ordinal: point.ordinal,
                        coords: point.coords.clone(),
                        error,
                    }));
                    (0, true)
                }
            };
            if let Some(p) = &mut progress {
                p.tick(events, false);
            }
            if failed && !opts.keep_going {
                eprintln!(
                    "[abc-campaign] {}: stopping at the first failed point (pass --keep-going to run the rest)",
                    campaign.name
                );
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        },
    );
    if let Some(p) = &mut progress {
        p.tick(0, true);
    }
}

/// Does `ordinal` belong to shard `k` of `n` (`k` is 1-based)? The
/// assignment is round-robin over the *unfiltered* cartesian ordinals,
/// which are stable shard ids: adding filters never moves a point to a
/// different shard, and the `n` shards partition any campaign exactly.
pub fn in_shard(ordinal: usize, (k, n): (usize, usize)) -> bool {
    debug_assert!(n >= 1 && (1..=n).contains(&k), "shard {k}/{n} out of range");
    ordinal % n == k - 1
}

/// What a streaming run wrote to its store, after the header line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamTally {
    /// Clean record lines written (reused prior + freshly run).
    pub records: usize,
    /// Structured error lines written.
    pub errors: usize,
}

impl StreamTally {
    /// Total store lines written after the header.
    pub fn lines(&self) -> usize {
        self.records + self.errors
    }
}

/// Execute the points missing from `prior` and stream the complete store
/// — header (promising the full point count) first, then every record in
/// ordinal order, each written as soon as it and every earlier point have
/// finished — to `w`. An interrupted write leaves a valid partial store behind for
/// `--resume`; a completed one is byte-identical to
/// [`crate::store::ResultsStore::to_jsonl`] of an uninterrupted run.
/// Failed points are written as structured error lines and tallied.
pub fn run_campaign_streaming<W: std::io::Write>(
    campaign: &Campaign,
    opts: &RunOptions,
    prior: Vec<RunRecord>,
    w: &mut W,
) -> std::io::Result<StreamTally> {
    run_campaign_streaming_sharded(campaign, opts, prior, None, w)
}

/// [`run_campaign_streaming`] restricted to the ordinal-stable `k/n`
/// slice of the campaign (see [`in_shard`]): the header promises the
/// shard's point count and only in-shard points execute, so `n` machines
/// each running one shard produce stores that
/// [`merge_stores`](crate::store::merge_stores) stitches back into a
/// byte-identical equivalent of one unsharded run.
pub fn run_campaign_streaming_sharded<W: std::io::Write>(
    campaign: &Campaign,
    opts: &RunOptions,
    prior: Vec<RunRecord>,
    shard: Option<(usize, usize)>,
    w: &mut W,
) -> std::io::Result<StreamTally> {
    use crate::store;
    // One expansion serves the header count, the shard slice, and the
    // execution itself: the three must agree on the point list, and a
    // point (an owned spec sharing its trace) is built exactly once.
    let points = campaign.expand();
    let in_shard_count = match shard {
        Some(s) => points.iter().filter(|p| in_shard(p.ordinal, s)).count(),
        None => points.len(),
    };
    let header = store::header_for(campaign, in_shard_count);
    writeln!(w, "{}", store::render_header(&header))?;
    let mut tally = StreamTally::default();
    let mut err: Option<std::io::Error> = None;
    run_campaign_merged(campaign, points, opts, prior, shard, |o| {
        if err.is_none() {
            let line = match &o {
                PointOutcome::Ok(r) => store::render_record(r),
                PointOutcome::Err(e) => store::render_error_record(e),
            };
            // flush per record: a kill can tear at most the line in flight
            match writeln!(w, "{line}").and_then(|()| w.flush()) {
                Ok(()) => match o {
                    PointOutcome::Ok(_) => tally.records += 1,
                    PointOutcome::Err(_) => tally.errors += 1,
                },
                Err(e) => err = Some(e),
            }
        }
    });
    if let Some(e) = err {
        return Err(e);
    }
    w.flush()?;
    Ok(tally)
}

/// The single prior/fresh merge the resume and shard paths share: runs
/// the in-shard points whose ordinals are missing from `prior` and emits
/// every outcome — reused and fresh — in ordinal order, each as soon as
/// it is available. Prior records are emitted as clean outcomes; callers
/// resuming a store with error records must leave those out of `prior` so
/// the failed ordinals are re-attempted.
fn run_campaign_merged<F: FnMut(PointOutcome)>(
    campaign: &Campaign,
    points: Vec<CampaignPoint>,
    opts: &RunOptions,
    mut prior: Vec<RunRecord>,
    shard: Option<(usize, usize)>,
    mut emit: F,
) {
    prior.sort_by_key(|r| r.ordinal);
    let mut skip: HashSet<usize> = prior.iter().map(|r| r.ordinal).collect();
    if let Some(s) = shard {
        skip.extend(
            points
                .iter()
                .map(|p| p.ordinal)
                .filter(|&o| !in_shard(o, s)),
        );
    }
    let mut prior_iter = prior.into_iter().map(PointOutcome::Ok).peekable();
    let on_outcome = |o: PointOutcome| {
        while let Some(p) = prior_iter.next_if(|p| p.ordinal() < o.ordinal()) {
            emit(p);
        }
        emit(o);
    };
    let write = |ordinal, sidecar| write_sidecar(opts, ordinal, sidecar);
    run_points_with(campaign, points, opts, &skip, on_outcome, write);
    prior_iter.for_each(emit);
}

/// First-seen order of the labels a set of records carries on `axis` —
/// for rendering, this reproduces the axis's declared value order.
pub fn labels_of(records: &[RunRecord], axis: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for r in records {
        if let Some(l) = r.coords.get(axis) {
            if !out.iter().any(|x| x == l) {
                out.push(l.to_string());
            }
        }
    }
    out
}

/// The record at the given axis labels, if present.
pub fn find<'a>(records: &'a [RunRecord], at: &[(&str, &str)]) -> Option<&'a RunRecord> {
    records.iter().find(|r| {
        at.iter()
            .all(|(axis, label)| r.coords.get(axis) == Some(*label))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Axis;
    use experiments::engine::ScenarioSpec;
    use experiments::scenario::LinkSpec;
    use experiments::Scheme;
    use netsim::rate::Rate;

    fn tiny_campaign(seeds: &[u64]) -> Campaign {
        let base = ScenarioSpec::single(Scheme::Abc, LinkSpec::Constant(Rate::from_mbps(12.0)))
            .duration_secs(1)
            .warmup_secs(0);
        Campaign::new("unit", base)
            .axis(Axis::schemes(&[Scheme::Abc, Scheme::Cubic]))
            .axis(Axis::seeds(seeds))
    }

    #[test]
    fn labels_and_find_address_records() {
        let c = tiny_campaign(&[1]);
        let records = run_campaign(&c, &RunOptions::quiet());
        assert_eq!(labels_of(&records, "scheme"), vec!["ABC", "Cubic"]);
        let abc = find(&records, &[("scheme", "ABC"), ("seed", "1")]).unwrap();
        assert_eq!(abc.report.scheme, "ABC");
        assert!(find(&records, &[("scheme", "BBR")]).is_none());
    }

    #[test]
    fn error_kind_names_round_trip() {
        for kind in [ErrorKind::Panic, ErrorKind::Watchdog] {
            assert_eq!(ErrorKind::from_name(kind.as_str()), Some(kind));
        }
        assert_eq!(ErrorKind::from_name("oom"), None);
    }

    #[test]
    fn split_outcomes_partitions_in_order() {
        let c = tiny_campaign(&[1]);
        let template = run_campaign(&c, &RunOptions::quiet()).remove(0);
        let ok = |o: usize| {
            let mut r = template.clone();
            r.ordinal = o;
            PointOutcome::Ok(r)
        };
        let err = PointOutcome::Err(ErrorRecord {
            ordinal: 1,
            coords: Coords(Vec::new()),
            error: PointError {
                kind: ErrorKind::Panic,
                message: "boom".into(),
            },
        });
        let (records, errors) = split_outcomes(vec![ok(0), err, ok(2)]);
        assert_eq!(
            records.iter().map(|r| r.ordinal).collect::<Vec<_>>(),
            [0, 2]
        );
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].ordinal, 1);
    }
}
