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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        println!("schemes: abc abc-dt<ms> abc-noai abc-enq cubic cubic+codel cubic+pie");
        println!("         newreno vegas bbr copa pcc sprout verus xcp xcpw rcp vcp");
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
    let get = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let Some(scheme) = get("--scheme").as_deref().and_then(Scheme::from_name) else {
        usage()
    };

    let link = if let Some(name) = get("--trace") {
        match cellular::builtin(&name) {
            Some(t) => LinkSpec::Trace(t),
            None => {
                eprintln!("unknown trace {name:?} (see --list)");
                std::process::exit(2);
            }
        }
    } else if let Some(path) = get("--trace-file") {
        let f = std::fs::File::open(&path).unwrap_or_else(|e| {
            eprintln!("cannot open {path}: {e}");
            std::process::exit(2);
        });
        match cellular::CellTrace::parse_mahimahi(&path, std::io::BufReader::new(f)) {
            Ok(t) => LinkSpec::Trace(t),
            Err(e) => {
                eprintln!("cannot parse {path}: {e}");
                std::process::exit(2);
            }
        }
    } else if let Some(spec) = get("--square") {
        let parts: Vec<f64> = spec.split(',').filter_map(|x| x.parse().ok()).collect();
        if parts.len() != 3 {
            usage();
        }
        LinkSpec::Square {
            a: Rate::from_mbps(parts[0]),
            b: Rate::from_mbps(parts[1]),
            half_period: SimDuration::from_millis_f64(parts[2]),
        }
    } else {
        let mbps: f64 = get("--rate-mbps")
            .and_then(|x| x.parse().ok())
            .unwrap_or(12.0);
        LinkSpec::Constant(Rate::from_mbps(mbps))
    };

    let mut spec = ScenarioSpec::single(scheme, link);
    if let Some(x) = get("--rtt-ms").and_then(|x| x.parse().ok()) {
        spec.rtt = SimDuration::from_millis(x);
    }
    if let Some(x) = get("--buffer").and_then(|x| x.parse().ok()) {
        spec.buffer_pkts = x;
    }
    if let Some(x) = get("--flows").and_then(|x| x.parse().ok()) {
        spec = spec.flows(x);
    }
    if let Some(x) = get("--secs").and_then(|x| x.parse().ok()) {
        spec.duration = SimDuration::from_secs(x);
    }
    if let Some(x) = get("--warmup").and_then(|x| x.parse().ok()) {
        spec.warmup = SimDuration::from_secs(x);
    }
    if let Some(x) = get("--app-mbps").and_then(|x: String| x.parse::<f64>().ok()) {
        spec = spec.app(TrafficSource::RateLimited {
            rate: Rate::from_mbps(x),
            burst_bytes: 6000.0,
        });
    }
    if let Some(x) = get("--pk-ms").and_then(|x| x.parse().ok()) {
        spec.oracle_lookahead = Some(SimDuration::from_millis(x));
    }

    let engine = match get("--jobs") {
        Some(x) => match x.parse::<usize>() {
            Ok(n) if n >= 1 => ScenarioEngine::with_threads(n),
            _ => {
                eprintln!("--jobs needs a positive integer, got {x:?}");
                std::process::exit(2);
            }
        },
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
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("telemetry sidecar written to {path}");
    }
    if args.iter().any(|a| a == "--series") {
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
