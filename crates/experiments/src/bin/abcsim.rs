//! `abcsim` — run any scheme over any link from the command line.
//!
//! ```text
//! abcsim --scheme abc --trace Verizon1 --secs 60
//! abcsim --scheme cubic+codel --rate-mbps 12 --rtt-ms 50 --flows 4
//! abcsim --scheme abc --square 12,24,500 --buffer 100 --series
//! abcsim --scheme abc --trace-file ./capture.pps
//! abcsim --list
//! ```

use experiments::{sparkline, LinkSpec, ScenarioEngine, ScenarioSpec, Scheme};
use netsim::flow::TrafficSource;
use netsim::rate::Rate;
use netsim::sim::RunGuards;
use netsim::time::SimDuration;
use std::fmt::Display;
use std::str::FromStr;

fn usage() -> ! {
    eprintln!(
        "abcsim — congestion-control scenarios from the ABC reproduction

USAGE:
  abcsim --scheme <name> [link] [options]
  abcsim --list                    list schemes and built-in traces

LINK (choose one; default: --rate-mbps 12):
  --trace <name>                   built-in synthetic cellular trace
  --trace-file <path>              Mahimahi-format trace file
  --rate-mbps <x>                  constant-rate link
  --square <lo,hi,half_period_ms>  square-wave link

OPTIONS:
  --rtt-ms <x>       path RTT (default 100)
  --buffer <pkts>    bottleneck buffer (default 250)
  --flows <n>        concurrent flows of the scheme (default 1)
  --secs <x>         duration (default 60)
  --warmup <x>       warm-up excluded from metrics (default 5)
  --app-mbps <x>     rate-limit the application (default: backlogged)
  --pk-ms <x>        PK-ABC oracle lookahead
  --jobs <n>         engine worker-pool size (default: $ABC_JOBS, else all cores)
  --series           print capacity/goodput/qdelay sparklines
  --telemetry <out>  write a JSONL telemetry sidecar (abc-telemetry/v1) to <out>"
    );
    std::process::exit(2)
}

/// Print `msg` and exit 2, as every bad command line does.
fn fail(msg: impl Display) -> ! {
    eprintln!("abcsim: {msg}");
    std::process::exit(2)
}

/// Flags that take one value; `--list` and `--series` take none.
const OPTIONS: &str = "--scheme --trace --trace-file --rate-mbps --square --rtt-ms --buffer \
                       --flows --secs --warmup --app-mbps --pk-ms --jobs --telemetry";

/// `flag`'s value parsed as `T`, if the flag was given; exits 2 when the
/// value does not parse.
fn parsed<T: FromStr>(values: &[(&str, &str)], flag: &str) -> Option<T>
where
    T::Err: Display,
{
    let (_, v) = values.iter().find(|(f, _)| *f == flag)?;
    let bad = |e: T::Err| fail(format_args!("bad {flag} value {v:?}: {e}"));
    Some(v.parse().unwrap_or_else(bad))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut switches, mut values) = (Vec::new(), Vec::new());
    let mut it = args.iter().map(String::as_str);
    while let Some(a) = it.next() {
        if a == "--list" || a == "--series" {
            switches.push(a);
        } else if OPTIONS.split_whitespace().any(|o| o == a) {
            match it.next() {
                Some(v) if !v.starts_with("--") => values.push((a, v)),
                _ => fail(format_args!("{a} needs a value")),
            }
        } else {
            fail(format_args!("unknown flag {a:?}"));
        }
    }
    if switches.contains(&"--list") {
        let names = Scheme::ALL.map(|s| s.name().to_ascii_lowercase());
        println!("schemes: {}", names.join(" "));
        println!("         abc-dt<ms> (ABC with a delay threshold of <ms> ms)");
        println!(
            "traces:  {}",
            cellular::builtin_specs()
                .iter()
                .map(|s| s.name)
                .collect::<Vec<_>>()
                .join(" ")
        );
        return;
    }
    let get = |flag: &str| parsed::<String>(&values, flag);
    let Some(scheme) = get("--scheme").as_deref().and_then(Scheme::from_name) else {
        usage()
    };

    let link = if let Some(name) = get("--trace") {
        match cellular::builtin(&name) {
            Some(t) => LinkSpec::Trace(t),
            None => fail(format_args!("unknown trace {name:?} (see --list)")),
        }
    } else if let Some(path) = get("--trace-file") {
        let f = std::fs::File::open(&path)
            .unwrap_or_else(|e| fail(format_args!("cannot open {path}: {e}")));
        match cellular::CellTrace::parse_mahimahi(&path, std::io::BufReader::new(f)) {
            Ok(t) => LinkSpec::Trace(t),
            Err(e) => fail(format_args!("cannot parse {path}: {e}")),
        }
    } else if let Some(spec) = get("--square") {
        let bad = || {
            fail(format_args!(
                "--square needs lo,hi,half_period_ms, got {spec:?}"
            ))
        };
        let parts: Vec<f64> = spec
            .split(',')
            .map(|x| x.parse().unwrap_or_else(|_| bad()))
            .collect();
        if parts.len() != 3 {
            bad();
        }
        LinkSpec::Square {
            a: Rate::from_mbps(parts[0]),
            b: Rate::from_mbps(parts[1]),
            half_period: SimDuration::from_millis_f64(parts[2]),
        }
    } else {
        let mbps = parsed(&values, "--rate-mbps").unwrap_or(12.0);
        LinkSpec::Constant(Rate::from_mbps(mbps))
    };

    let mut spec = ScenarioSpec::single(scheme, link);
    if let Some(x) = parsed(&values, "--rtt-ms") {
        spec.rtt = SimDuration::from_millis(x);
    }
    if let Some(x) = parsed(&values, "--buffer") {
        spec.buffer_pkts = x;
    }
    if let Some(x) = parsed(&values, "--flows") {
        spec = spec.flows(x);
    }
    if let Some(x) = parsed(&values, "--secs") {
        spec.duration = SimDuration::from_secs(x);
    }
    if let Some(x) = parsed(&values, "--warmup") {
        spec.warmup = SimDuration::from_secs(x);
    }
    if let Some(x) = parsed(&values, "--app-mbps") {
        spec = spec.app(TrafficSource::RateLimited {
            rate: Rate::from_mbps(x),
            burst_bytes: 6000.0,
        });
    }
    if let Some(x) = parsed(&values, "--pk-ms") {
        spec.oracle_lookahead = Some(SimDuration::from_millis(x));
    }

    let engine = match parsed::<usize>(&values, "--jobs") {
        Some(n) if n >= 1 => ScenarioEngine::with_threads(n),
        Some(_) => fail("--jobs needs a positive integer, got 0"),
        None => ScenarioEngine::new(), // honors $ABC_JOBS
    };
    let telemetry_out = get("--telemetry");
    if telemetry_out.is_some() {
        spec = spec.telemetry(netsim::telemetry::TelemetryConfig::default());
    }
    let point = engine
        .run_point(&spec, RunGuards::default(), false)
        .expect("unguarded run cannot be aborted");
    let r = point.report;
    if let (Some(path), Some(sidecar)) = (&telemetry_out, &point.sidecar) {
        if let Err(e) = std::fs::write(path, sidecar) {
            fail(format_args!("cannot write {path}: {e}"));
        }
        eprintln!("telemetry sidecar written to {path}");
    }
    if switches.contains(&"--series") {
        println!("capacity: {}", sparkline(&r.capacity_series, 70));
        println!("goodput : {}", sparkline(&r.tput_series, 70));
        println!("qdelay  : {}", sparkline(&r.qdelay_series, 70));
    }
    println!("{}", r.row());
    if r.flow_tputs_mbps.len() > 1 {
        println!(
            "per-flow Mbit/s: {:?}   Jain {:.4}",
            r.flow_tputs_mbps
                .iter()
                .map(|x| (x * 100.0).round() / 100.0)
                .collect::<Vec<_>>(),
            r.jain
        );
    }
}
