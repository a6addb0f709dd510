//! The campaign run ledger: schema-versioned (`abc-runlog/v2`) JSONL
//! bookkeeping of *wall-clock* run behavior, written beside — never
//! into — the results store.
//!
//! The store answers "what did the simulation measure"; the ledger
//! answers "where did fleet time go": a header with the run's
//! configuration, then one span per execution attempt of each point
//! (worker slot, start/end wall-ns, sim events, retries, abort reasons,
//! optional profile fractions), in ordinal order. Every point is queued
//! at run start on one worker pool, so a first attempt's `start_ns` is
//! also how long it waited for a worker.
//! Wall-clock data is quarantined here by construction — emitting a
//! ledger (or enabling `--profile`) leaves the store byte-identical.
//!
//! The ledger's *structure* is still deterministic: zero the wall
//! fields with [`normalize_jsonl`] and the remaining bytes (ordinal
//! set, coords, event counts, attempt counts) are bit-identical across
//! reruns and 1/2/4/8-worker pools, fail-fast runs included (pinned in
//! `tests/runlog.rs`).
//!
//! Downstream consumers: `abc-campaign trace-export` (Perfetto-loadable
//! Chrome trace JSON, [`crate::trace`]) and `abc-campaign report`
//! (run-health summary + cross-point sidecar aggregation,
//! [`crate::report`]). Both read through [`crate::jsonl`] with the torn
//! final line a killed run leaves dropped, so they work on a killed
//! run's ledger.

use crate::json::Value;
use crate::jsonl::{self, coords_to_value, Error, Fields, Tail};
use crate::spec::Coords;
use std::path::{Path, PathBuf};

/// Version tag written as the `schema` field of a ledger's header line.
pub const SCHEMA: &str = "abc-runlog/v2";

/// Where (and with what header context) the runner writes its ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunLogConfig {
    /// Destination file; truncated and rewritten each run.
    pub path: PathBuf,
    /// Scale label for the header (`full`/`fast`/`tiny`), when known.
    pub scale: Option<String>,
    /// `(k, n)` shard selector recorded in the header, when sharded.
    pub shard: Option<(usize, usize)>,
}

impl RunLogConfig {
    /// A config writing to `path` with no scale/shard annotations.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        RunLogConfig {
            path: path.into(),
            scale: None,
            shard: None,
        }
    }
}

/// The ledger's first line: run-wide configuration context.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerHeader {
    /// Campaign name, as in the store header.
    pub campaign: String,
    /// Scale label, when the emitter knew it.
    pub scale: Option<String>,
    /// Points scheduled for execution this run (after skip/shard).
    pub points: usize,
    /// Worker-pool size. Wall-dependent context: zeroed by
    /// [`normalize_jsonl`].
    pub workers: usize,
    /// `(k, n)` shard selector, when sharded.
    pub shard: Option<(usize, usize)>,
    /// Bounded panic-retry budget per point.
    pub retries: u32,
    /// Watchdog wall budget in seconds, when armed.
    pub watchdog_budget_s: Option<f64>,
    /// Whether the run continues past a failed point.
    pub keep_going: bool,
    /// Whether per-point profiling was on.
    pub profile: bool,
}

/// How one execution attempt of a point ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpanOutcome {
    /// The attempt completed and produced a record.
    Ok,
    /// The attempt panicked (the payload message rides along).
    Panic(String),
    /// The watchdog cancelled the attempt (deterministic description).
    Watchdog(String),
}

impl SpanOutcome {
    /// Stable wire name: `ok`, `panic`, `watchdog`.
    pub fn name(&self) -> &'static str {
        match self {
            SpanOutcome::Ok => "ok",
            SpanOutcome::Panic(_) => "panic",
            SpanOutcome::Watchdog(_) => "watchdog",
        }
    }

    /// True for [`SpanOutcome::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, SpanOutcome::Ok)
    }

    /// The failure message, for the two failure variants.
    pub fn reason(&self) -> Option<&str> {
        match self {
            SpanOutcome::Ok => None,
            SpanOutcome::Panic(m) | SpanOutcome::Watchdog(m) => Some(m),
        }
    }
}

/// Headline fractions of one point's [`netsim::telemetry::ProfileReport`],
/// recorded on the span when the run profiles. All wall-derived.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileFractions {
    /// Fraction of attributed dispatch time in singleton `Deliver`s.
    pub deliver_frac: f64,
    /// Fraction in singleton `Timer`s.
    pub timer_frac: f64,
    /// Fraction in batched dispatch.
    pub batch_frac: f64,
    /// Packet-pool hit rate in `[0, 1]`.
    pub pool_hit_rate: f64,
    /// Mean timer-wheel near-heap occupancy.
    pub wheel_near_avg: f64,
    /// Mean timer-wheel overflow-heap occupancy.
    pub wheel_overflow_avg: f64,
    /// Simulator events per wall second.
    pub events_per_wall_sec: f64,
}

impl ProfileFractions {
    /// Project the span-sized summary out of a full profile report.
    pub fn of(p: &netsim::telemetry::ProfileReport) -> Self {
        use netsim::telemetry::Phase;
        ProfileFractions {
            deliver_frac: p.phase_frac(Phase::Deliver),
            timer_frac: p.phase_frac(Phase::Timer),
            batch_frac: p.phase_frac(Phase::Batch),
            pool_hit_rate: p.pool.hit_rate(),
            wheel_near_avg: p.avg_near,
            wheel_overflow_avg: p.avg_overflow,
            events_per_wall_sec: p.events_per_wall_sec,
        }
    }
}

/// One execution attempt of one campaign point. A point that retried
/// has several spans, `attempt` 0, 1, … — exactly one span per attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSpan {
    /// Stable unfiltered ordinal, as in the store.
    pub ordinal: usize,
    /// Axis coordinates of the point.
    pub coords: Coords,
    /// 0-based attempt index; > 0 means this execution was a retry.
    pub attempt: u32,
    /// Worker slot that executed the attempt (wall-dependent).
    pub worker: usize,
    /// Wall-ns since run start when the attempt began executing.
    pub start_ns: u64,
    /// Wall-ns since run start when the attempt finished.
    pub end_ns: u64,
    /// Simulator events processed (0 for failed attempts).
    pub events: u64,
    /// `events` over the attempt's wall duration (wall-derived).
    pub events_per_sec: f64,
    /// How the attempt ended.
    pub outcome: SpanOutcome,
    /// Profile fractions, when the run profiled and the attempt
    /// completed.
    pub profile: Option<ProfileFractions>,
}

/// A fully parsed run ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct RunLedger {
    /// The header line.
    pub header: LedgerHeader,
    /// Every point span, in emission (expansion) order.
    pub points: Vec<PointSpan>,
}

fn shard_str(shard: Option<(usize, usize)>) -> Value {
    match shard {
        Some((k, n)) => Value::str(format!("{k}/{n}")),
        None => Value::Null,
    }
}

fn opt_str(s: &Option<String>) -> Value {
    match s {
        Some(s) => Value::str(s),
        None => Value::Null,
    }
}

/// Render the header line.
pub fn render_header(h: &LedgerHeader) -> String {
    Value::Obj(vec![
        ("schema".into(), Value::str(SCHEMA)),
        ("campaign".into(), Value::str(&h.campaign)),
        ("scale".into(), opt_str(&h.scale)),
        ("points".into(), Value::num(h.points as f64)),
        ("workers".into(), Value::num(h.workers as f64)),
        ("shard".into(), shard_str(h.shard)),
        ("retries".into(), Value::num(h.retries as f64)),
        (
            "watchdog_budget_s".into(),
            h.watchdog_budget_s.map(Value::num).unwrap_or(Value::Null),
        ),
        ("keep_going".into(), Value::Bool(h.keep_going)),
        ("profile".into(), Value::Bool(h.profile)),
    ])
    .render()
}

fn profile_to_value(p: &ProfileFractions) -> Value {
    Value::Obj(vec![
        ("deliver_frac".into(), Value::num(p.deliver_frac)),
        ("timer_frac".into(), Value::num(p.timer_frac)),
        ("batch_frac".into(), Value::num(p.batch_frac)),
        ("pool_hit_rate".into(), Value::num(p.pool_hit_rate)),
        ("wheel_near_avg".into(), Value::num(p.wheel_near_avg)),
        (
            "wheel_overflow_avg".into(),
            Value::num(p.wheel_overflow_avg),
        ),
        (
            "events_per_wall_sec".into(),
            Value::num(p.events_per_wall_sec),
        ),
    ])
}

/// Render one point-span line.
pub fn render_point(s: &PointSpan) -> String {
    let mut members = vec![
        ("span".into(), Value::str("point")),
        ("ordinal".into(), Value::num(s.ordinal as f64)),
        ("coords".into(), coords_to_value(&s.coords)),
        ("attempt".into(), Value::num(s.attempt as f64)),
        ("worker".into(), Value::num(s.worker as f64)),
        ("start_ns".into(), Value::num(s.start_ns as f64)),
        ("end_ns".into(), Value::num(s.end_ns as f64)),
        ("events".into(), Value::num(s.events as f64)),
        ("events_per_sec".into(), Value::num(s.events_per_sec)),
        ("outcome".into(), Value::str(s.outcome.name())),
    ];
    if let Some(reason) = s.outcome.reason() {
        members.push(("reason".into(), Value::str(reason)));
    }
    if let Some(p) = &s.profile {
        members.push(("profile".into(), profile_to_value(p)));
    }
    Value::Obj(members).render()
}

fn parse_shard(f: Fields) -> Result<Option<(usize, usize)>, Error> {
    let Some(shard) = f.get("shard").filter(|v| **v != Value::Null) else {
        return Ok(None);
    };
    let k_of_n = shard.as_str().and_then(|s| s.split_once('/'));
    let parsed = k_of_n.and_then(|(k, n)| Some((k.parse().ok()?, n.parse().ok()?)));
    parsed.map(Some).ok_or_else(|| f.err("malformed shard"))
}

fn parse_header(f: Fields) -> Result<LedgerHeader, Error> {
    Ok(LedgerHeader {
        campaign: f.str("campaign")?.to_string(),
        scale: f.get("scale").and_then(Value::as_str).map(str::to_string),
        points: f.uint("points")?,
        workers: f.uint("workers")?,
        shard: parse_shard(f)?,
        retries: f.uint("retries")?,
        watchdog_budget_s: f.get("watchdog_budget_s").and_then(Value::as_f64),
        keep_going: f.bool("keep_going")?,
        profile: f.bool("profile")?,
    })
}

fn parse_profile(f: Fields) -> Result<ProfileFractions, Error> {
    Ok(ProfileFractions {
        deliver_frac: f.num("deliver_frac")?,
        timer_frac: f.num("timer_frac")?,
        batch_frac: f.num("batch_frac")?,
        pool_hit_rate: f.num("pool_hit_rate")?,
        wheel_near_avg: f.num("wheel_near_avg")?,
        wheel_overflow_avg: f.num("wheel_overflow_avg")?,
        events_per_wall_sec: f.num("events_per_wall_sec")?,
    })
}

fn parse_point(f: Fields) -> Result<PointSpan, Error> {
    match f.str("span")? {
        "point" => {}
        other => return Err(f.err(format!("unrecognized span {other:?}"))),
    }
    let outcome = match f.str("outcome")? {
        "ok" => SpanOutcome::Ok,
        "panic" => SpanOutcome::Panic(f.str("reason")?.to_string()),
        "watchdog" => SpanOutcome::Watchdog(f.str("reason")?.to_string()),
        other => return Err(f.err(format!("unknown outcome {other:?}"))),
    };
    Ok(PointSpan {
        ordinal: f.uint("ordinal")?,
        coords: f.coords()?,
        attempt: f.uint("attempt")?,
        worker: f.uint("worker")?,
        start_ns: f.uint("start_ns")?,
        end_ns: f.uint("end_ns")?,
        events: f.uint("events")?,
        events_per_sec: f.num("events_per_sec")?,
        outcome,
        profile: f.opt("profile").map(parse_profile).transpose()?,
    })
}

impl RunLedger {
    /// Serialize back to the exact JSONL wire form.
    pub fn to_jsonl(&self) -> String {
        let spans = self.points.iter().map(render_point);
        let lines = std::iter::once(render_header(&self.header)).chain(spans);
        lines.map(|line| line + "\n").collect()
    }

    /// Parse a ledger from its JSONL wire form. A torn final line — what
    /// a killed run leaves — is dropped; any other bad line is an error.
    pub fn from_jsonl(text: &str) -> Result<RunLedger, Error> {
        let (header, rows) = jsonl::read(text, SCHEMA, Tail::DropTorn)?;
        Ok(RunLedger {
            header: parse_header(header.fields())?,
            points: rows
                .map(|line| parse_point(line?.fields()))
                .collect::<Result<_, _>>()?,
        })
    }

    /// Read and parse a ledger file.
    pub fn load(path: &Path) -> Result<RunLedger, Error> {
        Self::from_jsonl(&std::fs::read_to_string(path)?)
    }
}

/// Zero the wall-clock fields of a rendered ledger so what remains is
/// the run's deterministic *structure*: `workers` and each span's
/// `worker`, `start_ns`, `end_ns` and `events_per_sec` become `0`, and
/// per-span `profile` objects are dropped (the header's boolean
/// `profile` flag stays). Two normalized ledgers of the same campaign
/// are bit-identical regardless of pool size or machine speed.
pub fn normalize_jsonl(text: &str) -> Result<String, Error> {
    let mut ledger = RunLedger::from_jsonl(text)?;
    ledger.header.workers = 0;
    for p in &mut ledger.points {
        (p.worker, p.start_ns, p.end_ns) = (0, 0, 0);
        (p.events_per_sec, p.profile) = (0.0, None);
    }
    Ok(ledger.to_jsonl())
}

/// Fleet-health aggregates mined from a ledger — the numbers `report`
/// prints and `bench` records as trajectory context.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LedgerStats {
    /// Wall-ns from run start to the last span end.
    pub wall_ns: u64,
    /// Sum of point-span durations (work actually executing).
    pub busy_ns: u64,
    /// Worker-pool size (header, or the highest observed slot + 1).
    pub workers: usize,
    /// `busy / (workers × wall)` in `[0, 1]`.
    pub utilization: f64,
    /// Median point-span duration.
    pub p50_ns: u64,
    /// 99th-percentile point-span duration.
    pub p99_ns: u64,
    /// Longest point-span duration.
    pub max_ns: u64,
    /// `max / p50` — how much the slowest point lags the median.
    pub straggler_ratio: f64,
    /// Ordinals whose final attempt completed.
    pub ok_points: usize,
    /// Ordinals whose final attempt failed.
    pub failed_points: usize,
    /// Total execution attempts (spans).
    pub attempts: usize,
    /// Spans with `attempt > 0`.
    pub retries: usize,
    /// Simulator events summed over completed attempts.
    pub events: u64,
}

/// Compute [`LedgerStats`] over a parsed ledger.
pub fn stats(ledger: &RunLedger) -> LedgerStats {
    let mut durations: Vec<u64> = ledger
        .points
        .iter()
        .map(|p| p.end_ns.saturating_sub(p.start_ns))
        .collect();
    durations.sort_unstable();
    let quantile = |q: f64| -> u64 {
        if durations.is_empty() {
            return 0;
        }
        let idx = ((durations.len() - 1) as f64 * q).round() as usize;
        durations[idx]
    };
    let busy_ns: u64 = durations.iter().sum();
    let wall_ns = ledger.points.iter().map(|p| p.end_ns).max().unwrap_or(0);
    let observed = ledger
        .points
        .iter()
        .map(|p| p.worker + 1)
        .max()
        .unwrap_or(0);
    let workers = ledger.header.workers.max(observed).max(1);
    let utilization = if wall_ns == 0 {
        0.0
    } else {
        busy_ns as f64 / (workers as f64 * wall_ns as f64)
    };
    // The *final* span per ordinal decides success; retried-then-ok
    // points count as ok.
    let mut last: std::collections::BTreeMap<usize, bool> = std::collections::BTreeMap::new();
    for p in &ledger.points {
        last.insert(p.ordinal, p.outcome.is_ok());
    }
    let ok_points = last.values().filter(|ok| **ok).count();
    let (p50_ns, p99_ns, max_ns) = (quantile(0.5), quantile(0.99), quantile(1.0));
    LedgerStats {
        wall_ns,
        busy_ns,
        workers,
        utilization,
        p50_ns,
        p99_ns,
        max_ns,
        straggler_ratio: if p50_ns == 0 {
            1.0
        } else {
            max_ns as f64 / p50_ns as f64
        },
        ok_points,
        failed_points: last.len() - ok_points,
        attempts: ledger.points.len(),
        retries: ledger.points.iter().filter(|p| p.attempt > 0).count(),
        events: ledger
            .points
            .iter()
            .filter(|p| p.outcome.is_ok())
            .map(|p| p.events)
            .sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ledger() -> RunLedger {
        let coords = |fault: &str, seed: &str| {
            Coords(vec![
                ("fault".into(), fault.into()),
                ("seed".into(), seed.into()),
            ])
        };
        RunLedger {
            header: LedgerHeader {
                campaign: "faulty".into(),
                scale: Some("tiny".into()),
                points: 2,
                workers: 2,
                shard: Some((1, 3)),
                retries: 1,
                watchdog_budget_s: Some(2.5),
                keep_going: true,
                profile: true,
            },
            points: vec![
                PointSpan {
                    ordinal: 0,
                    coords: coords("clean", "1"),
                    attempt: 0,
                    worker: 0,
                    start_ns: 20,
                    end_ns: 1020,
                    events: 400,
                    events_per_sec: 4.0e8,
                    outcome: SpanOutcome::Ok,
                    profile: Some(ProfileFractions {
                        deliver_frac: 0.5,
                        timer_frac: 0.25,
                        batch_frac: 0.25,
                        pool_hit_rate: 0.9,
                        wheel_near_avg: 3.5,
                        wheel_overflow_avg: 0.0,
                        events_per_wall_sec: 4.0e8,
                    }),
                },
                PointSpan {
                    ordinal: 1,
                    coords: coords("boom", "1"),
                    attempt: 0,
                    worker: 1,
                    start_ns: 30,
                    end_ns: 230,
                    events: 0,
                    events_per_sec: 0.0,
                    outcome: SpanOutcome::Panic("injected fault".into()),
                    profile: None,
                },
                PointSpan {
                    ordinal: 1,
                    coords: coords("boom", "1"),
                    attempt: 1,
                    worker: 1,
                    start_ns: 240,
                    end_ns: 440,
                    events: 0,
                    events_per_sec: 0.0,
                    outcome: SpanOutcome::Panic("injected fault".into()),
                    profile: None,
                },
            ],
        }
    }

    #[test]
    fn ledger_round_trips_through_jsonl() {
        let ledger = sample_ledger();
        let text = ledger.to_jsonl();
        let back = RunLedger::from_jsonl(&text).expect("parse");
        assert_eq!(back, ledger);
        assert_eq!(back.to_jsonl(), text, "reserialization diverged");
    }

    #[test]
    fn normalization_zeroes_wall_fields_and_drops_profiles() {
        let text = sample_ledger().to_jsonl();
        let norm = normalize_jsonl(&text).expect("normalize");
        assert!(norm.contains("\"start_ns\":0"));
        assert!(!norm.contains("deliver_frac"), "profile obj must drop");
        // the header's boolean profile flag survives
        assert!(norm.lines().next().unwrap().contains("\"profile\":true"));
        assert!(norm.contains("\"events\":400"), "structure must survive");
        assert!(norm.contains("\"events_per_sec\":0"));
        // normalization is idempotent
        assert_eq!(normalize_jsonl(&norm).expect("renormalize"), norm);
    }

    #[test]
    fn stats_attribute_attempts_outcomes_and_utilization() {
        let s = stats(&sample_ledger());
        assert_eq!(s.attempts, 3);
        assert_eq!(s.retries, 1);
        assert_eq!(s.ok_points, 1);
        assert_eq!(s.failed_points, 1);
        assert_eq!(s.events, 400);
        assert_eq!(s.max_ns, 1000);
        assert_eq!(s.wall_ns, 1020);
        assert!(s.utilization > 0.0 && s.utilization < 1.0);
        assert!(s.straggler_ratio >= 1.0);
    }

    #[test]
    fn malformed_ledgers_fail_with_a_line_number() {
        let err = RunLedger::from_jsonl("{\"schema\":\"nope\"}\n")
            .unwrap_err()
            .to_string();
        assert!(err.contains("line 1"), "{err}");
        let text = sample_ledger().to_jsonl();
        let broken = text.replace("\"outcome\":\"ok\"", "\"outcome\":\"maybe\"");
        let err = RunLedger::from_jsonl(&broken).unwrap_err().to_string();
        assert!(err.contains("unknown outcome"), "{err}");
        // a v1 ledger's wave line is not a v2 span
        let waved = format!("{text}{{\"span\":\"wave\",\"index\":0}}\n");
        let err = RunLedger::from_jsonl(&waved).unwrap_err().to_string();
        assert!(
            err.contains("line 5") && err.contains("unrecognized span"),
            "{err}"
        );
    }
}
