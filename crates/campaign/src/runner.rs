//! The campaign executor: chunked dispatch of expanded points onto
//! [`ScenarioEngine::run_batch`], with progress reporting on stderr.
//!
//! Results are **bit-identical** across reruns and worker-pool sizes: the
//! engine guarantees each report is a pure function of its spec, chunking
//! only affects dispatch granularity (never result order), and progress
//! goes to stderr so the artifact stream stays clean.
//!
//! Execution is **fault-tolerant**: every point runs inside a panic
//! boundary ([`std::panic::catch_unwind`]) with an optional per-point
//! wall-clock watchdog (the simulator's cooperative
//! [`RunGuards`]). A point that panics is retried
//! a bounded number of times, then recorded as a structured
//! [`ErrorRecord`] — the store stays valid, diffable, and resumable, and
//! `--resume` re-attempts exactly the failed ordinals.
//!
//! Execution is **observable**: with a [`RunLogConfig`] (or a telemetry
//! dir, which gets a `runlog.jsonl` by default) the runner streams an
//! `abc-runlog/v1` ledger of per-attempt point spans, wave boundaries,
//! and store-flush spans (see [`crate::runlog`]). Wall-clock data lives
//! only there — the results store stays byte-identical with or without
//! the ledger and `--profile`.

use crate::runlog::{self, RunLogConfig, SpanOutcome};
use crate::spec::{Campaign, Coords};
use experiments::engine::{PointRun, ScenarioEngine};
use experiments::report::Report;
use netsim::sim::RunGuards;
use std::io::Write;
use std::time::Instant;

/// How a campaign run is executed. `jobs: None` defers to
/// [`ScenarioEngine::new`], which honors the `ABC_JOBS` environment
/// variable and otherwise uses every core.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Worker-pool size; `None` defers to [`ScenarioEngine::new`].
    pub jobs: Option<usize>,
    /// Scenarios per dispatch wave. Progress is reported after each wave,
    /// so smaller chunks mean finer progress at slightly more pool churn.
    pub chunk: usize,
    /// Report progress to stderr after every chunk.
    pub progress: bool,
    /// Write one telemetry sidecar per executed point to this directory
    /// (`<ordinal>.jsonl`). Points whose spec carries no telemetry config
    /// get the default signal set. Sidecars bypass the results store, so
    /// stored bytes stay identical with or without this.
    pub telemetry_dir: Option<std::path::PathBuf>,
    /// Keep executing the remaining points after one fails (panic or
    /// watchdog abort). When `false` — the default — dispatch stops after
    /// the wave that failed; either way the failed point becomes an
    /// [`ErrorRecord`] and the store stays valid and resumable.
    pub keep_going: bool,
    /// How many extra attempts a *panicking* point gets before it is
    /// recorded as failed. Watchdog aborts are never retried — the budget
    /// would only expire again.
    pub retries: u32,
    /// Wall-clock budget per point. Exceeding it cancels the point
    /// cooperatively (via [`RunGuards`]) and records a
    /// [`ErrorKind::Watchdog`] error instead of hanging the campaign.
    pub watchdog: Option<std::time::Duration>,
    /// Write an `abc-runlog/v1` run ledger (see [`crate::runlog`]).
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
            chunk: 32,
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

    /// Toggle stderr progress reporting.
    pub fn with_progress(mut self, progress: bool) -> Self {
        self.progress = progress;
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

    /// The clean record, if the point succeeded.
    pub fn ok(self) -> Option<RunRecord> {
        match self {
            PointOutcome::Ok(r) => Some(r),
            PointOutcome::Err(_) => None,
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
    run_campaign_skipping(campaign, opts, &std::collections::HashSet::new())
}

/// [`run_campaign`] minus the points whose stable ordinals appear in
/// `skip` — the engine behind `abc-campaign run --resume`, which reuses an
/// interrupted store's records and executes only the missing points.
pub fn run_campaign_skipping(
    campaign: &Campaign,
    opts: &RunOptions,
    skip: &std::collections::HashSet<usize>,
) -> Vec<RunRecord> {
    expect_clean(run_campaign_with(campaign, opts, skip, |_| {}))
}

/// Expand and execute a campaign, returning every point's outcome —
/// clean reports and structured errors alike. The fault-tolerant
/// counterpart of [`run_campaign`].
pub fn run_campaign_outcomes(campaign: &Campaign, opts: &RunOptions) -> Vec<PointOutcome> {
    run_campaign_with(campaign, opts, &std::collections::HashSet::new(), |_| {})
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

/// [`run_campaign_skipping`] with a per-chunk callback: `on_chunk` sees
/// each dispatch wave's outcomes as soon as they complete, in expansion
/// order — the hook the CLI uses to stream a store to disk so an
/// interrupted run leaves every finished chunk behind for `--resume`.
pub fn run_campaign_with<F: FnMut(&[PointOutcome])>(
    campaign: &Campaign,
    opts: &RunOptions,
    skip: &std::collections::HashSet<usize>,
    on_chunk: F,
) -> Vec<PointOutcome> {
    let write = |ordinal, sidecar| write_sidecar(opts, ordinal, sidecar);
    run_points_with(campaign, campaign.expand(), opts, skip, on_chunk, write)
}

/// [`run_campaign`] that keeps each point's telemetry sidecar in memory,
/// beside its record (`None` for a point whose spec records no
/// telemetry) — the input of figures that plot within-run series.
pub fn run_campaign_sidecars(
    campaign: &Campaign,
    opts: &RunOptions,
) -> Vec<(RunRecord, Option<String>)> {
    let mut sidecars = std::collections::BTreeMap::new();
    let outcomes = run_points_with(
        campaign,
        campaign.expand(),
        opts,
        &std::collections::HashSet::new(),
        |_| {},
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
/// ledger — observability must never fail the run it observes.
struct LedgerWriter(Option<(std::io::BufWriter<std::fs::File>, std::path::PathBuf)>);

impl LedgerWriter {
    fn off() -> Self {
        LedgerWriter(None)
    }

    fn create(path: &std::path::Path) -> Self {
        match std::fs::File::create(path) {
            Ok(f) => LedgerWriter(Some((std::io::BufWriter::new(f), path.to_path_buf()))),
            Err(e) => {
                eprintln!(
                    "[abc-campaign] cannot create run ledger {}: {e}",
                    path.display()
                );
                LedgerWriter(None)
            }
        }
    }

    fn line(&mut self, line: &str) {
        let failed = match &mut self.0 {
            Some((w, path)) => match writeln!(w, "{line}") {
                Ok(()) => false,
                Err(e) => {
                    eprintln!(
                        "[abc-campaign] run ledger write to {} failed: {e} (disabling ledger)",
                        path.display()
                    );
                    true
                }
            },
            None => false,
        };
        if failed {
            self.0 = None;
        }
    }

    fn flush(&mut self) {
        let failed = match &mut self.0 {
            Some((w, path)) => match w.flush() {
                Ok(()) => false,
                Err(e) => {
                    eprintln!(
                        "[abc-campaign] run ledger flush to {} failed: {e} (disabling ledger)",
                        path.display()
                    );
                    true
                }
            },
            None => false,
        };
        if failed {
            self.0 = None;
        }
    }
}

/// ETA extrapolates from this many most-recent waves (plus the current
/// checkpoint), so one long-tail dense point early in the run stops
/// skewing the estimate for the remainder.
const ETA_WINDOW_WAVES: usize = 8;

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
/// runs inside a panic boundary with the configured watchdog; failures
/// become [`PointOutcome::Err`] and — unless `keep_going` is set — stop
/// dispatch after the current wave. Every executed point's sidecar, if
/// its spec records one, goes to `on_sidecar` with the point's ordinal.
fn run_points_with<F: FnMut(&[PointOutcome]), S: FnMut(usize, String)>(
    campaign: &Campaign,
    points: Vec<crate::spec::CampaignPoint>,
    opts: &RunOptions,
    skip: &std::collections::HashSet<usize>,
    mut on_chunk: F,
    mut on_sidecar: S,
) -> Vec<PointOutcome> {
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
    let mut ledger = match &runlog_cfg {
        Some(cfg) => LedgerWriter::create(&cfg.path),
        None => LedgerWriter::off(),
    };
    if let Some(cfg) = &runlog_cfg {
        ledger.line(&runlog::render_header(&runlog::LedgerHeader {
            campaign: campaign.name.clone(),
            scale: cfg.scale.clone(),
            points: total,
            workers,
            chunk: opts.chunk.max(1),
            shard: cfg.shard,
            retries: opts.retries,
            watchdog_budget_s: opts.watchdog.map(|d| d.as_secs_f64()),
            keep_going: opts.keep_going,
            profile: opts.profile,
        }));
    }
    let guards = RunGuards {
        max_events: None,
        max_wall_time: opts.watchdog,
    };
    let retries = opts.retries;
    let profile_on = opts.profile;
    let mut outcomes: Vec<PointOutcome> = Vec::with_capacity(total);
    let mut events_total = 0u64;
    let mut failed = false;
    // `(elapsed, done)` checkpoints of recent waves for the ETA window.
    let mut recent: std::collections::VecDeque<(f64, usize)> = std::collections::VecDeque::new();
    for (wave_index, chunk) in points.chunks(opts.chunk.max(1)).enumerate() {
        let wave_start_ns = start.elapsed().as_nanos() as u64;
        // The boundary must sit *inside* the worker closure: a panic that
        // escapes it would poison the pool's result slots and abort the
        // whole process instead of failing one point.
        let results = engine.run_batch_map_indexed(chunk, |e, point, worker| {
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
        });
        let wave_end_ns = start.elapsed().as_nanos() as u64;
        let chunk_start = outcomes.len();
        for (point, exec) in chunk.iter().zip(results) {
            // One ledger span per attempt, retries included.
            for (attempt, a) in exec.attempts.iter().enumerate() {
                let dur = a.end_ns.saturating_sub(a.start_ns).max(1);
                ledger.line(&runlog::render_point(&runlog::PointSpan {
                    ordinal: point.ordinal,
                    coords: point.coords.clone(),
                    attempt: attempt as u32,
                    worker: exec.worker,
                    queued_ns: wave_start_ns,
                    start_ns: a.start_ns,
                    end_ns: a.end_ns,
                    events: a.events,
                    events_per_sec: a.events as f64 * 1e9 / dur as f64,
                    outcome: a.outcome.clone(),
                    profile: a.profile,
                }));
            }
            match exec.result {
                Ok(out) => {
                    events_total += out.events;
                    if let Some(sidecar) = out.sidecar {
                        on_sidecar(point.ordinal, sidecar);
                    }
                    outcomes.push(PointOutcome::Ok(RunRecord {
                        ordinal: point.ordinal,
                        coords: point.coords.clone(),
                        report: out.report,
                    }));
                }
                Err(error) => {
                    failed = true;
                    eprintln!(
                        "[abc-campaign] point {} failed ({}): {}",
                        point.ordinal,
                        error.kind.as_str(),
                        error.message
                    );
                    outcomes.push(PointOutcome::Err(ErrorRecord {
                        ordinal: point.ordinal,
                        coords: point.coords.clone(),
                        error,
                    }));
                }
            }
        }
        ledger.line(&runlog::render_wave(&runlog::WaveSpan {
            index: wave_index,
            start_ns: wave_start_ns,
            end_ns: wave_end_ns,
            points: chunk.len(),
        }));
        let flush_start_ns = start.elapsed().as_nanos() as u64;
        on_chunk(&outcomes[chunk_start..]);
        let flush_end_ns = start.elapsed().as_nanos() as u64;
        ledger.line(&runlog::render_flush(&runlog::FlushSpan {
            wave: wave_index,
            start_ns: flush_start_ns,
            end_ns: flush_end_ns,
        }));
        ledger.flush();
        if opts.progress {
            let done = outcomes.len();
            let elapsed = start.elapsed().as_secs_f64();
            // ETA from a sliding window of recent waves (falling back to
            // the whole-run average until a second checkpoint exists);
            // blank until the first wave lands and once the run is done.
            recent.push_back((elapsed, done));
            while recent.len() > ETA_WINDOW_WAVES + 1 {
                recent.pop_front();
            }
            let eta = if done > 0 && done < total {
                let (t0, d0) = *recent.front().expect("window is nonempty");
                let (dt, dd) = (elapsed - t0, done - d0);
                let rate = if dd > 0 && dt > 1e-9 {
                    dd as f64 / dt
                } else {
                    done as f64 / elapsed.max(1e-9)
                };
                format!(" · ETA {:.0}s", (total - done) as f64 / rate.max(1e-9))
            } else {
                String::new()
            };
            eprintln!(
                "[abc-campaign] {}: {}/{} scenarios ({:.0}%) in {:.1}s · {:.1} Mev/s{}",
                campaign.name,
                done,
                total,
                100.0 * done as f64 / total.max(1) as f64,
                elapsed,
                events_total as f64 / elapsed.max(1e-9) / 1e6,
                eta,
            );
        }
        if failed && !opts.keep_going {
            eprintln!(
                "[abc-campaign] {}: stopping after failed wave (pass --keep-going to run the rest)",
                campaign.name
            );
            break;
        }
    }
    outcomes
}

/// Does `ordinal` belong to shard `k` of `n` (`k` is 1-based)? The
/// assignment is round-robin over the *unfiltered* cartesian ordinals,
/// which are stable shard ids: adding filters never moves a point to a
/// different shard, and the `n` shards partition any campaign exactly.
pub fn in_shard(ordinal: usize, (k, n): (usize, usize)) -> bool {
    debug_assert!(n >= 1 && (1..=n).contains(&k), "shard {k}/{n} out of range");
    ordinal % n == k - 1
}

/// Merge an interrupted store's records with a freshly-run remainder:
/// executes the points missing from `prior` and returns the full record
/// set in expansion (ordinal) order — byte-identical to an uninterrupted
/// run, because each record is a pure function of its spec. The in-memory
/// sibling of [`run_campaign_streaming`]. Panics if a fresh point fails;
/// prior *error* records must not be passed in (resume re-attempts them).
pub fn resume_campaign(
    campaign: &Campaign,
    opts: &RunOptions,
    prior: Vec<RunRecord>,
) -> Vec<RunRecord> {
    let mut records = Vec::new();
    run_campaign_merged(
        campaign,
        campaign.expand(),
        opts,
        prior,
        None,
        |o| match o {
            PointOutcome::Ok(r) => records.push(r.clone()),
            PointOutcome::Err(e) => panic!(
                "campaign point {} failed ({}): {}",
                e.ordinal,
                e.error.kind.as_str(),
                e.error.message
            ),
        },
    );
    records
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
/// ordinal order, each written as soon as its dispatch wave completes —
/// to `w`. An interrupted write leaves a valid partial store behind for
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
            let line = match o {
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
fn run_campaign_merged<F: FnMut(&PointOutcome)>(
    campaign: &Campaign,
    points: Vec<crate::spec::CampaignPoint>,
    opts: &RunOptions,
    mut prior: Vec<RunRecord>,
    shard: Option<(usize, usize)>,
    mut emit: F,
) {
    prior.sort_by_key(|r| r.ordinal);
    let mut skip: std::collections::HashSet<usize> = prior.iter().map(|r| r.ordinal).collect();
    if let Some(s) = shard {
        skip.extend(
            points
                .iter()
                .map(|p| p.ordinal)
                .filter(|&o| !in_shard(o, s)),
        );
    }
    let mut prior_iter = prior.into_iter().map(PointOutcome::Ok).peekable();
    let on_chunk = |chunk: &[PointOutcome]| {
        for rec in chunk {
            while prior_iter
                .peek()
                .is_some_and(|p| p.ordinal() < rec.ordinal())
            {
                let p = prior_iter.next().expect("peeked record vanished");
                emit(&p);
            }
            emit(rec);
        }
    };
    let write = |ordinal, sidecar| write_sidecar(opts, ordinal, sidecar);
    run_points_with(campaign, points, opts, &skip, on_chunk, write);
    for p in prior_iter {
        emit(&p);
    }
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

    fn tiny_campaign(chunk_seeds: &[u64]) -> Campaign {
        let base = ScenarioSpec::single(Scheme::Abc, LinkSpec::Constant(Rate::from_mbps(12.0)))
            .duration_secs(1)
            .warmup_secs(0);
        Campaign::new("unit", base)
            .axis(Axis::schemes(&[Scheme::Abc, Scheme::Cubic]))
            .axis(Axis::seeds(chunk_seeds))
    }

    #[test]
    fn chunked_dispatch_matches_single_batch() {
        let c = tiny_campaign(&[1, 2]);
        let one = run_campaign(
            &c,
            &RunOptions {
                chunk: 64,
                ..RunOptions::quiet()
            },
        );
        let many = run_campaign(
            &c,
            &RunOptions {
                chunk: 1,
                ..RunOptions::quiet()
            },
        );
        assert_eq!(one.len(), 4);
        assert_eq!(one, many, "chunk size changed results");
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
