//! `abc-campaign` — run, inspect, and gate declarative scenario sweeps.
//!
//! ```text
//! abc-campaign list
//! abc-campaign expand tiny
//! abc-campaign expand --file examples/campaigns/tiny.toml
//! abc-campaign run tiny --out tiny.jsonl
//! abc-campaign run --file my-sweep.toml --scale fast --jobs 8
//! abc-campaign export tiny.jsonl
//! abc-campaign export tiny.jsonl --csv
//! abc-campaign diff baseline.jsonl candidate.jsonl
//! abc-campaign run tiny --runlog runlog.jsonl --profile
//! abc-campaign trace-export runlog.jsonl -o trace.json
//! abc-campaign report runlog.jsonl --telemetry-dir telemetry/
//! ```
//!
//! `run` writes a schema-versioned JSONL store that is bit-identical
//! across reruns and worker-pool sizes; `diff` exits non-zero when the
//! candidate regresses against the baseline. Campaigns come from the
//! built-in presets or from a TOML file (`--file`, format reference in
//! `docs/campaign-file.md`); every malformed-input path exits 2 through
//! one `fail` helper, so flag typos and campaign-file errors report
//! uniformly. A flag the CLI does not know, or a flag value it cannot
//! parse, is malformed input — never silently ignored.

use campaign::aggregate;
use campaign::diff::{diff, DiffConfig};
use campaign::presets;
use campaign::runlog::{RunLedger, RunLogConfig};
use campaign::runner::RunOptions;
use campaign::store::{self, ResultsStore};
use experiments::figures::Scale;
use std::fmt::Display;

/// Malformed input — a flag, a preset name, a campaign file, a store —
/// always reports and exits through here, with one format and one exit
/// code (2). Exit 1 is reserved for the diff gate's "regression found".
fn fail(msg: impl Display) -> ! {
    eprintln!("abc-campaign: {msg}");
    std::process::exit(2)
}

/// Every stdout write goes through here. A reader that stops early
/// (`abc-campaign export … | head`) closes the pipe: that ends the
/// command quietly with exit 0, as it does for any Unix filter. Any other
/// write failure exits 2 through [`fail`].
fn emit(text: std::fmt::Arguments) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().lock().write_fmt(text) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        fail(format!("cannot write to stdout: {e}"));
    }
}

/// `print!` through [`emit`].
macro_rules! out {
    ($($arg:tt)*) => { emit(format_args!($($arg)*)) };
}

/// `println!` through [`emit`].
macro_rules! outln {
    () => { emit(format_args!("\n")) };
    ($($arg:tt)*) => { emit(format_args!("{}\n", format_args!($($arg)*))) };
}

fn usage() -> ! {
    eprintln!(
        "abc-campaign — declarative sweep orchestration for the ABC reproduction

USAGE:
  abc-campaign list [--file F]                   built-in presets (or a file's campaign)
  abc-campaign expand <preset|--file F> [--scale S]
                                                 show the points without running
  abc-campaign run <preset|--file F> [options]   execute and store results
  abc-campaign export <store.jsonl> [--csv] [--over AXIS]
                                                 aggregate a stored run
  abc-campaign merge <shard.jsonl>... [--out F]  stitch shard stores into one
  abc-campaign diff <baseline.jsonl> <candidate.jsonl> [options]
                                                 regression gate (exit 1 on regression)
  abc-campaign dynamics <sidecar.jsonl>          render the control-law timeline (marks,
                                                 token level, qdelay, cwnd) from a
                                                 telemetry sidecar — no re-simulation
  abc-campaign trace-export <runlog.jsonl> [-o trace.json]
                                                 convert a run ledger to Chrome
                                                 trace-event JSON (open in Perfetto or
                                                 chrome://tracing)
  abc-campaign report <runlog.jsonl> [--telemetry-dir d/]
                                                 run-health summary from a ledger: wall
                                                 breakdown, worker utilization,
                                                 stragglers, retry/error rollup; with
                                                 --telemetry-dir, also aggregates the
                                                 per-point sidecars by axis value

CAMPAIGN SOURCE:
  <preset>                 a built-in (see `abc-campaign list`)
  --file <campaign.toml>   a user-defined campaign file
                           (format reference: docs/campaign-file.md;
                           examples: examples/campaigns/)

RUN OPTIONS:
  --scale full|fast|tiny   sweep scale (default full)
  --jobs <n>               worker pool size (default: $ABC_JOBS, else all cores)
  --out <file>             store path (default campaign-<preset>.jsonl)
  --shard <k>/<n>          run only the ordinal-stable k-th of n slices
                           (k in 1..=n); `merge` stitches the shard stores
                           back into the unsharded run, byte for byte
  --resume                 reuse records already in --out (matching header)
                           and execute only the missing points; invoke with
                           the SAME --scale (and --shard) as the
                           interrupted run (the header records axes, not
                           scale)
  --telemetry-dir <d>      write one telemetry sidecar per point to d/
                           (<ordinal>.jsonl; the results store is unaffected)
  --keep-going             keep executing the remaining points after one
                           fails; without it the run stops at the first
                           failed point (the store holds every point up to
                           it, at any --jobs). Every failure is stored as a
                           structured error record either way, and --resume
                           re-attempts exactly the failed points
  --watchdog-budget <s>    wall-clock budget per point (seconds, may be
                           fractional); a point exceeding it is cancelled
                           and stored as a watchdog error instead of
                           hanging the campaign
  --retries <n>            extra attempts for a panicking point before it
                           is recorded as failed (default 1)
  --runlog <file>          write the wall-clock run ledger (abc-runlog/v2
                           JSONL: one span per point attempt) to this
                           file; with --telemetry-dir the ledger
                           defaults to <dir>/runlog.jsonl. The results
                           store stays byte-identical either way.
  --profile                run every point with the self-profiler on and
                           record per-point phase fractions in the run
                           ledger (store bytes are unaffected)
  --quiet                  no progress on stderr

EXIT CODES:
  0  success        1  diff regression found
  2  malformed input (unknown flags, bad values, campaign files, stores)
  3  run completed but one or more points failed (see the store's
     error records; rerun with --resume once the cause is fixed)

DIFF OPTIONS (non-negative numbers: 0.05, not 5%):
  --util-drop <x>          absolute utilization drop that fails (default 0.05)
  --delay-rise <x>         relative p95-delay rise that fails (default 0.25)
  --tput-drop <x>          relative throughput drop that fails (default 0.10)"
    );
    std::process::exit(2)
}

/// Every flag that takes a value, and every flag that stands alone;
/// anything else spelled like a flag exits 2.
const VALUE_FLAGS: &str = "--scale --file --jobs --out -o --shard --telemetry-dir \
    --watchdog-budget --retries --runlog --over --util-drop --delay-rise --tput-drop";
const SWITCHES: &str = "--csv --quiet --resume --keep-going --profile";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Positionals are what is left once every flag (and a value flag's
    // value) is set aside; an unknown or valueless flag stops here.
    let mut positional: Vec<&String> = Vec::new();
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        let is = |flags: &str| flags.split_whitespace().any(|f| f == a);
        if is(VALUE_FLAGS) {
            if rest.next().is_none() {
                fail(format!("{a} needs a value"));
            }
        } else if !a.starts_with("--") {
            positional.push(a);
        } else if !is(SWITCHES) {
            fail(format!(
                "unknown flag {a:?} (run with no arguments for usage)"
            ));
        }
    }
    let get = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let scale = match get("--scale").as_deref() {
        None | Some("full") => Scale::Full,
        Some("fast") => Scale::Fast,
        Some("tiny") => Scale::Tiny,
        Some(other) => fail(format!("unknown scale {other:?} (full|fast|tiny)")),
    };
    let Some(command) = positional.first() else {
        usage()
    };

    let file = get("--file");

    match command.as_str() {
        "list" => {
            if let Some(path) = &file {
                let campaign = load_file(path, scale);
                let points = campaign.expand();
                outln!(
                    "{}  [{} point(s) at this scale, {} unfiltered]",
                    campaign.name,
                    points.len(),
                    campaign.size_unfiltered()
                );
                for axis in &campaign.axes {
                    outln!("  axis {:<12} {}", axis.name, axis.labels().join(", "));
                }
                for f in &campaign.filters {
                    outln!("  filter {}", f.name);
                }
            } else {
                outln!("{:<18} DESCRIPTION", "PRESET");
                for (name, desc, build) in presets::all() {
                    let n = build(Scale::Tiny).expand().len();
                    outln!("{name:<18} {desc}  [{n} points at --scale tiny]");
                }
            }
        }
        "expand" => {
            let campaign = build_campaign(positional.get(1), &file, scale);
            let points = campaign.expand();
            outln!(
                "# campaign {:?}: {} point(s) ({} unfiltered)",
                campaign.name,
                points.len(),
                campaign.size_unfiltered()
            );
            for p in &points {
                outln!("{:>6}  {}", p.ordinal, p.coords.key());
            }
        }
        "run" => {
            let campaign = build_campaign(positional.get(1), &file, scale);
            let shard = get("--shard").map(|s| parse_shard(&s));
            let scale_name = match scale {
                Scale::Full => "full",
                Scale::Fast => "fast",
                Scale::Tiny => "tiny",
            };
            // Explicit --runlog wins; --telemetry-dir alone gets the
            // ledger beside the sidecars. Built here (not in the runner)
            // so the header carries the scale/shard the CLI resolved.
            let runlog = get("--runlog")
                .map(std::path::PathBuf::from)
                .or_else(|| {
                    get("--telemetry-dir").map(|d| std::path::PathBuf::from(d).join("runlog.jsonl"))
                })
                .map(|path| RunLogConfig {
                    path,
                    scale: Some(scale_name.to_string()),
                    shard,
                });
            let opts = RunOptions {
                jobs: get("--jobs")
                    .map(|x| parse_value("--jobs", &x, "a positive integer", |&n: &usize| n >= 1)),
                progress: !args.iter().any(|a| a == "--quiet"),
                telemetry_dir: get("--telemetry-dir").map(std::path::PathBuf::from),
                keep_going: args.iter().any(|a| a == "--keep-going"),
                retries: get("--retries").map_or(1, |x| {
                    parse_value("--retries", &x, "a non-negative integer", |_: &u32| true)
                }),
                watchdog: get("--watchdog-budget").map(|x| {
                    let need = "a positive number of seconds";
                    let s = parse_value("--watchdog-budget", &x, need, |&s: &f64| {
                        s > 0.0 && s.is_finite()
                    });
                    std::time::Duration::from_secs_f64(s)
                }),
                runlog,
                profile: args.iter().any(|a| a == "--profile"),
            };
            let out = get("--out").unwrap_or_else(|| match shard {
                Some((k, n)) => format!("campaign-{}.shard-{k}-of-{n}.jsonl", campaign.name),
                None => format!("campaign-{}.jsonl", campaign.name),
            });
            let resume = args.iter().any(|a| a == "--resume");

            // Reusable records from an interrupted (or complete) store.
            let prior: Vec<campaign::runner::RunRecord> =
                if resume && std::path::Path::new(&out).exists() {
                    let prior = load(Some(&&out), ResultsStore::from_jsonl_allow_partial);
                    // An interrupted store must describe the same sweep: same
                    // campaign name, axes, and filters (record count may differ).
                    let expect = store::header_for(&campaign, 0);
                    if prior.header.campaign != expect.campaign
                        || prior.header.axes != expect.axes
                        || prior.header.filters != expect.filters
                    {
                        fail(format!(
                            "cannot resume: {out} was produced by a different campaign \
                             (header mismatch); rerun without --resume or pick another --out"
                        ));
                    }
                    prior.records
                } else {
                    Vec::new()
                };
            let reused = prior.len();

            // Stream the store to disk as records complete, so an
            // interrupted run leaves a valid partial store behind. Fresh
            // runs stream straight to `out` (there is nothing to lose);
            // resumed runs stream to a temp sibling and rename on success,
            // so a second interruption never loses the prior partial.
            let target = if reused > 0 {
                format!("{out}.resume-tmp")
            } else {
                out.clone()
            };
            let sink = match std::fs::File::create(&target) {
                Ok(f) => f,
                Err(e) => fail(format!("cannot write {target}: {e}")),
            };
            let mut w = std::io::BufWriter::new(sink);
            let tally = match campaign::runner::run_campaign_streaming_sharded(
                &campaign, &opts, prior, shard, &mut w,
            ) {
                Ok(t) => t,
                Err(e) => fail(format!("cannot write {target}: {e}")),
            };
            drop(w);
            if target != out {
                if let Err(e) = std::fs::rename(&target, &out) {
                    fail(format!("cannot move {target} into place: {e}"));
                }
            }
            if resume && opts.progress {
                eprintln!(
                    "[abc-campaign] resumed {out}: {} record(s) reused, {} executed",
                    reused,
                    tally.lines() - reused
                );
            }
            eprintln!(
                "[abc-campaign] wrote {} record(s) to {out} (schema {})",
                tally.lines(),
                store::SCHEMA
            );
            // Point failures are data (the store holds their error
            // records), but the run as a whole did not succeed: exit 3 so
            // CI notices, distinct from exit 1 (regression gates) and
            // exit 2 (malformed input).
            if tally.errors > 0 {
                eprintln!(
                    "[abc-campaign] {} point(s) failed — structured error records are in {out}; \
                     rerun with --resume to re-attempt them",
                    tally.errors
                );
                std::process::exit(3);
            }
        }
        "export" => {
            let store = load(positional.get(1), ResultsStore::from_jsonl);
            if args.iter().any(|a| a == "--csv") {
                out!("{}", aggregate::render_csv(&store.records));
            } else {
                let over = get("--over").unwrap_or_else(|| "seed".into());
                let aggs = aggregate::aggregate(&store.records, &over);
                outln!(
                    "# campaign {:?} — {} record(s)\n",
                    store.header.campaign,
                    store.header.points
                );
                out!("{}", aggregate::render_table(&aggs, &over));
                outln!();
                out!("{}", aggregate::render_rollup(&store.records));
            }
        }
        "merge" => {
            if positional.len() < 2 {
                fail("merge needs at least one shard store");
            }
            let stores: Vec<ResultsStore> = positional[1..]
                .iter()
                .map(|p| load(Some(p), ResultsStore::from_jsonl))
                .collect();
            let merged = match store::merge_stores(&stores) {
                Ok(m) => m,
                Err(e) => fail(format!("cannot merge: {e}")),
            };
            let out = get("--out").unwrap_or_else(|| "campaign-merged.jsonl".into());
            if let Err(e) = std::fs::write(&out, merged.to_jsonl()) {
                fail(format!("cannot write {out}: {e}"));
            }
            eprintln!(
                "[abc-campaign] merged {} store(s) → {out}: {} record(s) (schema {})",
                stores.len(),
                merged.records.len(),
                store::SCHEMA
            );
        }
        "diff" => {
            let defaults = DiffConfig::default();
            let threshold = |flag: &str, default: f64| {
                get(flag).map_or(default, |x| {
                    parse_value(flag, &x, "a non-negative number", |&t: &f64| {
                        t >= 0.0 && t.is_finite()
                    })
                })
            };
            let cfg = DiffConfig {
                util_drop: threshold("--util-drop", defaults.util_drop),
                delay_rise: threshold("--delay-rise", defaults.delay_rise),
                tput_drop: threshold("--tput-drop", defaults.tput_drop),
                ..defaults
            };
            let baseline = load(positional.get(1), ResultsStore::from_jsonl);
            let candidate = load(positional.get(2), ResultsStore::from_jsonl);
            let report = diff(&baseline, &candidate, &cfg);
            out!("{}", report.render());
            if report.has_regressions() {
                std::process::exit(1);
            }
        }
        "trace-export" => {
            let ledger = load(positional.get(1), RunLedger::from_jsonl);
            let out = get("-o")
                .or_else(|| get("--out"))
                .unwrap_or_else(|| "trace.json".into());
            let trace = campaign::trace::chrome_trace(&ledger);
            if let Err(e) = std::fs::write(&out, trace) {
                fail(format!("cannot write {out}: {e}"));
            }
            eprintln!(
                "[abc-campaign] wrote {out}: {} point span(s) \
                 (open in https://ui.perfetto.dev or chrome://tracing)",
                ledger.points.len()
            );
        }
        "report" => {
            let ledger = load(positional.get(1), RunLedger::from_jsonl);
            let dir = get("--telemetry-dir").map(std::path::PathBuf::from);
            match campaign::report::render_report(&ledger, dir.as_deref()) {
                Ok(text) => out!("{text}"),
                Err(e) => fail(e),
            }
        }
        "dynamics" => {
            out!(
                "{}",
                load(positional.get(1), campaign::dynamics::render_dynamics)
            );
        }
        _ => usage(),
    }
}

/// `--shard k/n` with `1 ≤ k ≤ n`.
fn parse_shard(value: &str) -> (usize, usize) {
    let parsed = value.split_once('/').and_then(|(k, n)| {
        let k = k.trim().parse::<usize>().ok()?;
        let n = n.trim().parse::<usize>().ok()?;
        (n >= 1 && (1..=n).contains(&k)).then_some((k, n))
    });
    match parsed {
        Some(s) => s,
        None => fail(format!("--shard needs k/n with 1 <= k <= n, got {value:?}")),
    }
}

/// A flag's value, parsed and checked by `ok` — or exit 2 naming the flag
/// and what it `need`s: a typo must not silently fall back to a default.
fn parse_value<T: std::str::FromStr>(
    flag: &str,
    value: &str,
    need: &str,
    ok: impl Fn(&T) -> bool,
) -> T {
    match value.parse::<T>() {
        Ok(x) if ok(&x) => x,
        _ => fail(format!("{flag} needs {need}, got {value:?}")),
    }
}

/// The campaign a command acts on: a `--file` campaign file, or a named
/// built-in preset. Giving both (or neither) is an error.
fn build_campaign(
    name: Option<&&String>,
    file: &Option<String>,
    scale: Scale,
) -> campaign::Campaign {
    match (name, file) {
        (Some(name), Some(_)) => fail(format!(
            "both a preset ({name:?}) and --file given; pick one"
        )),
        (None, Some(path)) => load_file(path, scale),
        (Some(name), None) => match presets::by_name(name, scale) {
            Some(c) => c,
            None => fail(format!(
                "unknown preset {name:?}; `abc-campaign list` shows the built-ins, \
                 --file <campaign.toml> loads your own"
            )),
        },
        (None, None) => usage(),
    }
}

/// Load a campaign file, reporting parse errors with their line/column.
fn load_file(path: &str, scale: Scale) -> campaign::Campaign {
    match campaign::file::load(path, scale) {
        Ok(c) => c,
        Err(e) => fail(format!("{path}: {e}")),
    }
}

/// Read one artifact — a store, a run ledger, a sidecar — and parse it,
/// exiting 2 with the file and the offending line on malformed input.
fn load<T, E: Display>(path: Option<&&String>, parse: fn(&str) -> Result<T, E>) -> T {
    let Some(path) = path else { usage() };
    match std::fs::read_to_string(path.as_str()) {
        Ok(text) => parse(&text).unwrap_or_else(|e| fail(format!("cannot load {path}: {e}"))),
        Err(e) => fail(format!("cannot read {path}: {e}")),
    }
}
