//! The command line both binaries share.
//!
//! ```text
//! abc-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! abc-bench all [--seed <n>] [--seconds <s>] [--out <file>]
//! abc-bench agree <a.json> <b.json>
//! ```

use crate::frontdoor::{run_end_to_end, Config};
use crate::metrics::Outcome;
use crate::traced::run_traced;
use crate::workload::Workload;
use campaign::json::{self, Value};
use std::process::{Command, ExitCode, Stdio};

/// `BENCHMARK.json`, as committed when this binary was built: the
/// bounds `agree` holds two result files to.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The measuring time when `--seconds` is not given: `run_seconds` of
/// `BENCHMARK.json`, which is what the driver passes.
fn default_seconds() -> f64 {
    json::parse(BENCHMARK_JSON)
        .ok()
        .and_then(|b| b.get("run_seconds")?.as_f64())
        .expect("BENCHMARK.json has run_seconds")
}

const USAGE: &str = "usage:
  abc-bench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
  abc-bench all [--seed <n>] [--seconds <s>] [--out <file>]
  abc-bench agree <a.json> <b.json>
workloads: cellular-matrix dense-flows preset-sweep store-readback cellular-instrumented";

/// The value following flag `name`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{name} needs a valid value")),
    }
}

/// Print a finished run: every metric by name with its unit, the
/// context line, and — last — the one-line JSON result.
fn print_outcome(out: &Outcome) {
    for failure in out.checks.failures.iter().take(10) {
        eprintln!("[abc-bench] check failed: {failure}");
    }
    if out.checks.failed > 0 {
        eprintln!(
            "[abc-bench] {} of {} checks failed",
            out.checks.failed, out.checks.attempted
        );
    }
    println!("# {}", out.workload);
    for m in &out.metrics {
        println!("{:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("detail {}", Value::Obj(out.detail.clone()).render());
    println!("{}", out.result_line());
}

/// Success only when every check held.
fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The sibling binary that carries the counting allocator.
fn traced_sibling() -> std::io::Result<std::path::PathBuf> {
    let exe = std::env::current_exe()?;
    let name = format!("abc-bench-traced{}", std::env::consts::EXE_SUFFIX);
    Ok(exe.with_file_name(name))
}

/// Run one workload. A traced run must execute under the counting
/// allocator, which only the `abc-bench-traced` binary installs, so the
/// plain binary hands `--trace 1` to its sibling.
fn run_one(args: &[String], counting: bool) -> Result<ExitCode, String> {
    let workload: String = flag(args, "--workload")?.ok_or("--workload is required")?;
    let workload =
        Workload::from_name(&workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let trace: u8 = flag(args, "--trace")?.unwrap_or(0);
    let cfg = Config {
        workload,
        seed: flag(args, "--seed")?.unwrap_or(0),
        seconds: flag(args, "--seconds")?.unwrap_or_else(default_seconds),
        cut: false,
    };
    let outcome = match (trace, counting) {
        (0, _) => run_end_to_end(&cfg),
        (1, true) => run_traced(&cfg),
        (1, false) => {
            let status = traced_sibling()
                .and_then(|exe| Command::new(exe).args(args).status())
                .map_err(|e| format!("cannot run abc-bench-traced: {e}"))?;
            return Ok(exit_code(status.success()));
        }
        _ => return Err("--trace takes 0 or 1".into()),
    }
    .map_err(|e| format!("{}: {e}", workload.name()))?;
    print_outcome(&outcome);
    Ok(exit_code(outcome.correct()))
}

/// The JSON on the last line of `stdout` that starts with `prefix`: the
/// result object itself (`{`), or what follows the `detail ` label.
fn parsed_line(stdout: &str, prefix: &str) -> Option<Value> {
    let line = stdout.lines().rev().find(|l| l.starts_with(prefix))?;
    json::parse(line.strip_prefix("detail ").unwrap_or(line)).ok()
}

/// Run all five workloads, each pass in a fresh child process so peak
/// memory and allocator state do not leak from one to the next, and
/// write one results file.
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let seed: u64 = flag(args, "--seed")?.unwrap_or(0);
    let seconds: f64 = flag(args, "--seconds")?.unwrap_or_else(default_seconds);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out_path: std::path::PathBuf = flag(args, "--out")?
        .unwrap_or_else(|| exe.with_file_name(format!("abc-bench-results-seed{seed}.json")));
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for w in Workload::ALL {
        let mut entry = Vec::new();
        for (trace, metrics_key, detail_key) in [
            ("0", "end_to_end", "end_to_end_detail"),
            ("1", "per_layer", "per_layer_detail"),
        ] {
            let child = Command::new(&exe)
                .args(["--workload", w.name(), "--trace", trace])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .stdout(Stdio::piped())
                .output()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            print!("{stdout}");
            let result = parsed_line(&stdout, "{")
                .ok_or_else(|| format!("{} --trace {trace} printed no result", w.name()))?;
            let correct = result.get("correct") == Some(&Value::Bool(true));
            all_correct &= correct && child.status.success();
            entry.push((format!("{metrics_key}_correct"), Value::Bool(correct)));
            for key in ["attempted", "failed"] {
                let v = result.get(key).cloned().unwrap_or(Value::Null);
                entry.push((format!("{metrics_key}_{key}"), v));
            }
            entry.push((
                metrics_key.to_string(),
                result.get("metrics").cloned().unwrap_or(Value::Null),
            ));
            entry.push((
                detail_key.to_string(),
                parsed_line(&stdout, "detail ").unwrap_or(Value::Null),
            ));
        }
        workloads.push((w.name().to_string(), Value::Obj(entry)));
    }
    let results = Value::Obj(vec![
        ("schema".into(), Value::str("abc-bench/v1")),
        ("seed".into(), Value::num(seed as f64)),
        ("seconds".into(), Value::num(seconds)),
        (
            "available_parallelism".into(),
            Value::num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("workloads".into(), Value::Obj(workloads)),
    ]);
    std::fs::write(&out_path, results.render() + "\n")
        .map_err(|e| format!("{}: {e}", out_path.display()))?;
    eprintln!("[abc-bench] wrote {}", out_path.display());
    Ok(exit_code(all_correct))
}

/// How far apart two runs of one commit read, as the share by which the
/// worse value is worse than the better one.
pub fn disagreement(a: f64, b: f64, better: &str) -> f64 {
    let (lo, hi) = (a.min(b), a.max(b));
    if better == "higher" {
        1.0 - lo / hi
    } else {
        hi / lo - 1.0
    }
}

/// Compare two result files of one commit: every end-to-end metric on
/// every workload within its bound in `benchmark`, and the store digest
/// and event count identical. Returns one line per comparison and
/// whether all of them held.
pub fn agree(a: &Value, b: &Value, benchmark: &Value) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut ok = true;
    let mut hold = |line: String, held: bool| {
        lines.push(format!("{} {line}", if held { "ok  " } else { "FAIL" }));
        ok &= held;
    };
    let seed = |file: &Value| file.get("seed").map(Value::render);
    hold(
        format!("seed {:?} vs {:?}", seed(a), seed(b)),
        seed(a).is_some() && seed(a) == seed(b),
    );
    let bounds = benchmark.get("end_to_end").and_then(Value::as_arr);
    for w in Workload::ALL {
        let of = |file: &Value, path: &[&str]| -> Option<Value> {
            let mut v = file.get("workloads")?.get(w.name())?;
            for key in path {
                v = v.get(key)?;
            }
            Some(v.clone())
        };
        for metric in bounds.unwrap_or_default() {
            let field = |k: &str| metric.get(k).and_then(Value::as_str).unwrap_or_default();
            let (name, better) = (field("name"), field("better"));
            let bound = metric.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let value = |file: &Value| of(file, &["end_to_end", name, "value"])?.as_f64();
            match (value(a), value(b)) {
                (Some(x), Some(y)) => {
                    let d = disagreement(x, y, better);
                    hold(
                        format!(
                            "{:<22} {name:<13} {x:>12.4} vs {y:>12.4}  apart {:>5.1}% (bound {:.0}%)",
                            w.name(),
                            d * 100.0,
                            bound * 100.0
                        ),
                        d <= bound,
                    );
                }
                _ => hold(format!("{} {name}: missing", w.name()), false),
            }
        }
        for path in [
            &["end_to_end_detail", "store_fnv64"][..],
            &["per_layer", "netsim.sim.events", "value"][..],
            &["end_to_end_correct"][..],
            &["per_layer_correct"][..],
        ] {
            let (x, y) = (of(a, path), of(b, path));
            let held = x.is_some() && x == y && x != Some(Value::Bool(false));
            hold(
                format!("{:<22} {} identical", w.name(), path.join(".")),
                held,
            );
        }
    }
    (lines, ok)
}

fn run_agree(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("agree takes two result files".into());
    };
    let load = |path: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let benchmark = json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let (lines, ok) = agree(&load(a)?, &load(b)?, &benchmark);
    for line in lines {
        println!("{line}");
    }
    Ok(exit_code(ok))
}

/// Entry point of both binaries; `counting` says whether this one has
/// the counting allocator installed.
pub fn main(counting: bool) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match args.first().map(String::as_str) {
        Some("all") => run_all(&args[1..]),
        Some("agree") => run_agree(&args[1..]),
        Some(a) if a.starts_with("--") && a != "--help" => run_one(&args, counting),
        _ => Err(String::new()),
    };
    run.unwrap_or_else(|e| {
        if !e.is_empty() {
            eprintln!("abc-bench: {e}");
        }
        eprintln!("{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A results file with one value for every end-to-end metric.
    fn results(points_per_s: f64, digest: &str) -> Value {
        let metric = |v: f64| Value::Obj(vec![("value".into(), Value::num(v))]);
        let workloads = Workload::ALL
            .iter()
            .map(|w| {
                let entry = Value::Obj(vec![
                    ("end_to_end_correct".into(), Value::Bool(true)),
                    ("per_layer_correct".into(), Value::Bool(true)),
                    (
                        "end_to_end".into(),
                        Value::Obj(vec![
                            ("points_per_s".into(), metric(points_per_s)),
                            ("peak_rss_mb".into(), metric(64.0)),
                            ("setup_s".into(), metric(1.0)),
                        ]),
                    ),
                    (
                        "end_to_end_detail".into(),
                        Value::Obj(vec![("store_fnv64".into(), Value::str(digest))]),
                    ),
                    (
                        "per_layer".into(),
                        Value::Obj(vec![("netsim.sim.events".into(), metric(1e6))]),
                    ),
                ]);
                (w.name().to_string(), entry)
            })
            .collect();
        Value::Obj(vec![
            ("seed".into(), Value::num(0.0)),
            ("workloads".into(), Value::Obj(workloads)),
        ])
    }

    #[test]
    fn agree_holds_two_sets_to_the_benchmarks_bounds() {
        let benchmark = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let base = results(100.0, "00ff");
        assert!(agree(&base, &results(95.0, "00ff"), &benchmark).1);
        // 100 → 85 points/s is 15 % worse: outside the 10 % bound
        let (lines, ok) = agree(&base, &results(85.0, "00ff"), &benchmark);
        assert!(!ok);
        assert_eq!(lines.iter().filter(|l| l.starts_with("FAIL")).count(), 5);
        // same speed, different bytes
        assert!(!agree(&base, &results(100.0, "00fe"), &benchmark).1);
        assert!((disagreement(100.0, 85.0, "higher") - 0.15).abs() < 1e-12);
        assert!((disagreement(1.0, 1.25, "lower") - 0.25).abs() < 1e-12);

        let stdout = "x 1 s\ndetail {\"rounds\":3}\n{\"correct\":true}\n";
        assert_eq!(
            parsed_line(stdout, "{").and_then(|v| v.get("correct").cloned()),
            Some(Value::Bool(true))
        );
        assert_eq!(
            parsed_line(stdout, "detail ").and_then(|v| v.get("rounds")?.as_f64()),
            Some(3.0)
        );
    }
}
