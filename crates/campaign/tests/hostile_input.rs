//! No reader panics on hostile input.
//!
//! Every parser of an artifact this repo writes or reads — `json::parse`,
//! the results store (complete and partial loads), the run ledger,
//! telemetry sidecars, campaign files and Mahimahi traces — must answer
//! any input with `Ok` or with an error that carries a line or a byte
//! offset. The inputs are real artifacts (the committed tiny baseline, a
//! small run's ledger and sidecar, `examples/campaigns/tiny.toml`, a
//! synthetic trace) under 256 seeded truncations and byte flips and 64
//! seeded hostile numbers (huge, negative, fractional, `NaN`, `null`),
//! plus hand-built duplicate and out-of-order ordinals and mismatched
//! headers. Each parse runs under `catch_unwind`, so a failure names its
//! case.

use campaign::file;
use campaign::json;
use campaign::jsonl::Error;
use campaign::runlog::{normalize_jsonl, RunLedger};
use campaign::sidecar::Sidecar;
use campaign::store::ResultsStore;
use campaign::{Axis, Campaign, RunOptions};
use cellular::trace::{CellTrace, TraceError};
use experiments::engine::ScenarioSpec;
use experiments::figures::Scale;
use experiments::scenario::LinkSpec;
use experiments::Scheme;
use netsim::rate::Rate;
use netsim::time::SimDuration;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

const BASELINE: &str = include_str!("../../../ci/campaign-tiny-baseline.jsonl");
const TINY_TOML: &str = include_str!("../../../examples/campaigns/tiny.toml");

/// Number literals no writer emits, each swapped in for a real number.
const HOSTILE_NUMBERS: &[&str] = &[
    "1e300",
    "-1e300",
    "1e12",
    "-1",
    "0.5",
    "NaN",
    "null",
    "18446744073709551615",
    "9223372036854775807",
    "1.8e19",
];

/// Which readers an artifact is fed to.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Store,
    Ledger,
    Sidecar,
    Toml,
    Trace,
}

struct Artifact {
    name: &'static str,
    kind: Kind,
    bytes: Vec<u8>,
}

/// The real artifacts, built once: a 2-point run at 300 sim-ms leaves a
/// ledger and sidecars; the trace is one synthetic second.
fn artifacts() -> &'static [Artifact] {
    static ARTIFACTS: OnceLock<Vec<Artifact>> = OnceLock::new();
    ARTIFACTS.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("abc-hostile-{}", std::process::id()));
        let base = ScenarioSpec::single(Scheme::Abc, LinkSpec::Constant(Rate::from_mbps(12.0)))
            .duration(SimDuration::from_millis(300))
            .warmup_secs(0);
        let small = Campaign::new("hostile", base).axis(Axis::seeds(&[1, 2]));
        campaign::run_campaign(
            &small,
            &RunOptions::quiet().with_telemetry_dir(Some(dir.clone())),
        );
        let read = |name: &str| std::fs::read(dir.join(name)).expect("run artifact written");
        let (ledger, sidecar) = (read("runlog.jsonl"), read("0.jsonl"));
        std::fs::remove_dir_all(&dir).expect("cleanup");
        let spec = cellular::synth::SynthSpec {
            duration: SimDuration::from_secs(1),
            ..cellular::synth::builtin_specs().remove(0)
        };
        let mut trace = Vec::new();
        spec.generate().write_mahimahi(&mut trace).unwrap();
        vec![
            Artifact {
                name: "tiny baseline",
                kind: Kind::Store,
                bytes: BASELINE.into(),
            },
            Artifact {
                name: "ledger",
                kind: Kind::Ledger,
                bytes: ledger,
            },
            Artifact {
                name: "sidecar",
                kind: Kind::Sidecar,
                bytes: sidecar,
            },
            Artifact {
                name: "tiny.toml",
                kind: Kind::Toml,
                bytes: TINY_TOML.into(),
            },
            Artifact {
                name: "trace",
                kind: Kind::Trace,
                bytes: trace,
            },
        ]
    })
}

/// `Ok`, or an error that says where: `Err` names what is wrong instead.
type Verdict = Result<(), String>;

/// A named reader of raw artifact bytes.
type Reader = (&'static str, fn(&[u8]) -> Verdict);

fn jsonl_verdict<T>(r: Result<T, Error>) -> Verdict {
    match r {
        Err(Error::Io(e)) => Err(format!("unpositioned I/O error: {e}")),
        _ => Ok(()),
    }
}

/// Every reader of `kind`, plus `json::parse` and every JSONL reader on
/// any JSONL artifact (a store fed to the ledger reader is a mismatched
/// header).
fn readers(kind: Kind) -> Vec<Reader> {
    fn text(b: &[u8]) -> String {
        String::from_utf8_lossy(b).into_owned()
    }
    let jsonl: Vec<Reader> = vec![
        // a JsonError always carries its byte offset
        ("json::parse", |b| {
            let _ = json::parse(&text(b));
            Ok(())
        }),
        ("ResultsStore::from_jsonl", |b| {
            jsonl_verdict(ResultsStore::from_jsonl(&text(b)))
        }),
        ("ResultsStore::from_jsonl_allow_partial", |b| {
            jsonl_verdict(ResultsStore::from_jsonl_allow_partial(&text(b)))
        }),
        ("RunLedger::from_jsonl", |b| {
            jsonl_verdict(RunLedger::from_jsonl(&text(b)))
        }),
        ("normalize_jsonl", |b| {
            jsonl_verdict(normalize_jsonl(&text(b)))
        }),
        ("Sidecar::parse", |b| {
            jsonl_verdict(Sidecar::parse(&text(b)))
        }),
    ];
    match kind {
        Kind::Store | Kind::Ledger | Kind::Sidecar => jsonl,
        Kind::Toml => vec![("file::from_str", |b| {
            match file::from_str(&text(b), Scale::Tiny) {
                Err(file::FileError::Io(e)) => Err(format!("unpositioned I/O error: {e}")),
                _ => Ok(()),
            }
        })],
        Kind::Trace => vec![("CellTrace::parse_mahimahi", |b| {
            match CellTrace::parse_mahimahi("hostile", b) {
                Err(TraceError::Io(e)) => Err(format!("unpositioned I/O error: {e}")),
                // nothing to point at: the input has no timestamp at all
                _ => Ok(()),
            }
        })],
    }
}

/// Feed `input` to every reader of `kind` under `catch_unwind`; a panic or
/// an unpositioned error is returned, named by `case`.
fn check(kind: Kind, case: &str, input: &[u8]) -> Verdict {
    for (reader, read) in readers(kind) {
        match catch_unwind(AssertUnwindSafe(|| read(input))) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => return Err(format!("{case}: {reader}: {e}")),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("?");
                return Err(format!("{case}: {reader} panicked: {msg}"));
            }
        }
    }
    Ok(())
}

/// Byte ranges of the number literals in `bytes` (a JSON or TOML value
/// or a Mahimahi line: digits after `:`, `[`, `,`, `=`, or a line start).
fn numbers(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let starts = bytes[i].is_ascii_digit() || bytes[i] == b'-';
        let before = bytes[..i].iter().rev().find(|b| **b != b' ');
        if starts && matches!(before, None | Some(b':' | b'[' | b',' | b'=' | b'\n')) {
            let end = (i..bytes.len())
                .find(|&j| !matches!(bytes[j], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
                .unwrap_or(bytes.len());
            out.push(i..end);
            i = end;
        } else {
            i += 1;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn truncated_and_flipped_artifacts_never_panic(
        (cut, at, bit) in (0.0f64..1.0, 0.0f64..1.0, 0u8..8),
    ) {
        for a in artifacts() {
            let n = a.bytes.len();
            let cut = (cut * n as f64) as usize;
            check(a.kind, &format!("{} cut at byte {cut}", a.name), &a.bytes[..cut])?;
            let at = (at * n as f64) as usize;
            let mut flipped = a.bytes.clone();
            flipped[at] ^= 1 << bit;
            check(a.kind, &format!("{} bit {bit} of byte {at} flipped", a.name), &flipped)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn hostile_numbers_never_panic(
        (which, hostile) in (0.0f64..1.0, 0usize..HOSTILE_NUMBERS.len()),
    ) {
        for a in artifacts() {
            let spans = numbers(&a.bytes);
            let span = spans[(which * spans.len() as f64) as usize].clone();
            let to = HOSTILE_NUMBERS[hostile];
            let case = format!("{} number at byte {} → {to}", a.name, span.start);
            let mut renumbered = a.bytes.clone();
            renumbered.splice(span, to.bytes());
            check(a.kind, &case, &renumbered)?;
        }
    }
}

/// Hand-built stores, ledgers and sidecars that are well-formed JSON but
/// lie: every one must load cleanly or fail with a position.
#[test]
fn lying_artifacts_fail_with_a_position() {
    let lines: Vec<&str> = BASELINE.lines().collect();
    let store = |edit: &dyn Fn(&mut Vec<String>)| {
        let mut l: Vec<String> = lines.iter().map(|s| s.to_string()).collect();
        edit(&mut l);
        l.join("\n")
    };
    let promising = |points: &str| {
        let header = lines[0].replace("\"points\":8", &format!("\"points\":{points}"));
        store(&|l| l[0] = header.clone())
    };
    let ledger = String::from_utf8(artifacts()[1].bytes.clone()).unwrap();
    let ledger_header = ledger.lines().next().unwrap();
    let sidecar = String::from_utf8(artifacts()[2].bytes.clone()).unwrap();
    let sidecar_header = sidecar.lines().next().unwrap();
    let error_line = lines[1].split("\"report\"").next().unwrap().to_string()
        + "\"error\":{\"kind\":\"panic\",\"message\":\"x\"}}";
    let huge_buckets = "{\"hist\":\"q\",\"scope\":\"l\",\"buckets\":[[0,1.8e19],[1,1.8e19]]}";
    let cases: Vec<(&str, Kind, String)> = vec![
        (
            "duplicate ordinal",
            Kind::Store,
            store(&|l| l[2] = l[1].clone()),
        ),
        (
            "out-of-order ordinals",
            Kind::Store,
            store(&|l| l.swap(1, 2)),
        ),
        (
            "ordinal repeated by an error line",
            Kind::Store,
            store(&|l| l[2] = error_line.clone()),
        ),
        (
            "header promising 1e300 points",
            Kind::Store,
            promising("1e300"),
        ),
        (
            "header promising 1e12 points",
            Kind::Store,
            promising("1e12"),
        ),
        (
            "header without axes",
            Kind::Store,
            store(&|l| l[0] = l[0].replace("axes", "axis")),
        ),
        (
            "store under a sidecar header",
            Kind::Store,
            store(&|l| l[0] = sidecar_header.into()),
        ),
        (
            "store under a ledger header",
            Kind::Store,
            store(&|l| l[0] = ledger_header.into()),
        ),
        (
            "ledger under a store header",
            Kind::Ledger,
            ledger.replacen(ledger_header, lines[0], 1),
        ),
        (
            "saturating histogram",
            Kind::Sidecar,
            format!("{sidecar_header}\n{huge_buckets}\n"),
        ),
        ("deep JSON", Kind::Store, "[".repeat(200_000)),
        (
            "deep TOML",
            Kind::Toml,
            format!("a = {}", "[".repeat(200_000)),
        ),
    ];
    let failures: Vec<String> = cases
        .iter()
        .filter_map(|(name, kind, text)| check(*kind, name, text.as_bytes()).err())
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
