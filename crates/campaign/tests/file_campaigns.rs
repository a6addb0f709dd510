//! The committed example campaign files are equivalent to the built-in
//! presets they re-express — pinned by expansion comparison for all of
//! them and, for `tiny`, by a byte-identical store against the same
//! committed baseline the preset path is gated on.

use campaign::runner::{run_campaign, RunOptions};
use campaign::store::ResultsStore;
use campaign::{file, presets, Campaign};
use experiments::engine::{ScenarioSpec, Topology};
use experiments::figures::Scale;
use experiments::scenario::LinkSpec;
use netsim::time::SimDuration;
use proptest::prelude::*;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn repo_root() -> PathBuf {
    // crates/campaign → workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

fn example(name: &str, scale: Scale) -> Campaign {
    let path = repo_root().join("examples/campaigns").join(name);
    file::load(&path, scale).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Same axes (names, labels, order) and same surviving points.
fn assert_same_expansion(a: &Campaign, b: &Campaign) {
    assert_eq!(a.name, b.name);
    let (pa, pb) = (a.expand(), b.expand());
    assert_eq!(pa.len(), pb.len(), "{}: point count differs", a.name);
    for (x, y) in pa.iter().zip(&pb) {
        assert_eq!(x.ordinal, y.ordinal, "{}: ordinal drifted", a.name);
        assert_eq!(x.coords, y.coords, "{}: coords drifted", a.name);
    }
}

#[test]
fn tiny_file_store_is_byte_identical_to_the_committed_baseline() {
    let campaign = example("tiny.toml", Scale::Tiny);
    let records = run_campaign(&campaign, &RunOptions::quiet());
    let store = ResultsStore::new(&campaign, records);
    let baseline_path = repo_root().join("ci/campaign-tiny-baseline.jsonl");
    let baseline = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("{}: {e}", baseline_path.display()));
    assert_eq!(
        store.to_jsonl(),
        baseline,
        "the TOML-expressed tiny campaign no longer reproduces the baseline store"
    );
}

#[test]
fn tiny_file_matches_the_preset_at_every_scale() {
    // The preset ignores scale; the file has no [scale.*] tables.
    for scale in [Scale::Full, Scale::Fast, Scale::Tiny] {
        assert_same_expansion(
            &example("tiny.toml", scale),
            &presets::by_name("tiny", scale).unwrap(),
        );
    }
}

#[test]
fn rtt_grid_file_matches_the_preset_below_full_scale() {
    // At Full the preset swaps in the 12-scheme lineup, which a fixed
    // file list intentionally doesn't follow (see the file's comments).
    for scale in [Scale::Fast, Scale::Tiny] {
        assert_same_expansion(
            &example("rtt-grid.toml", scale),
            &presets::by_name("rtt-grid", scale).unwrap(),
        );
    }
}

#[test]
fn web_load_grid_file_matches_the_preset() {
    for scale in [Scale::Full, Scale::Fast, Scale::Tiny] {
        assert_same_expansion(
            &example("web-load-grid.toml", scale),
            &presets::by_name("web-load-grid", scale).unwrap(),
        );
    }
}

#[test]
fn web_load_grid_file_point_reproduces_the_preset_report() {
    // Coords equality says the sweeps line up; this pins that a
    // file-built spec also *executes* identically — workload literal
    // included — by comparing one cell's full report bitwise.
    let from_file = example("web-load-grid.toml", Scale::Tiny);
    let preset = presets::by_name("web-load-grid", Scale::Tiny).unwrap();
    let (pf, pp) = (from_file.expand(), preset.expand());
    let engine = experiments::engine::ScenarioEngine::with_threads(1);
    assert_eq!(
        engine.run(&pf[0].spec),
        engine.run(&pp[0].spec),
        "file-built web workload spec diverged from the preset"
    );
}

#[test]
fn every_committed_example_loads_at_every_scale() {
    let dir = repo_root().join("examples/campaigns");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("examples/campaigns exists") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "toml") {
            seen += 1;
            for scale in [Scale::Full, Scale::Fast, Scale::Tiny] {
                let c =
                    file::load(&path, scale).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                assert!(
                    !c.expand().is_empty(),
                    "{} expands to nothing",
                    path.display()
                );
            }
        }
    }
    assert!(
        seen >= 3,
        "expected ≥3 committed example campaigns, found {seen}"
    );
}

#[test]
fn malformed_files_fail_with_line_and_column() {
    // End-to-end diagnostics through the public loader (the parser and
    // schema layers carry many more negative cases in their unit tests).
    let cases: &[(&str, &str, usize)] = &[
        ("a = [1, 2\n", "unclosed array", 1),
        (
            "[campaign]\nname = \"x\"\n[base]\nrtt = 20\n",
            "unknown key `rtt`",
            4,
        ),
        (
            "[campaign]\nname = \"x\"\n[[axis]]\nname = \"s\"\nschemes = [\"Tahoe\"]\n",
            "unknown scheme",
            5,
        ),
        (
            "[campaign]\nname = \"x\"\n[base]\nworkloads = [{ web = { load = 0.5 } }]\n",
            "needs `link_mbps`",
            4,
        ),
        (
            "[campaign]\nname = \"x\"\n[base]\ntopology = { parking_lot = [{ link = { constant_mbps = 12.0 }, qdisc = \"red\" }] }\n",
            "unknown hop qdisc",
            4,
        ),
        (
            "[campaign]\nname = \"x\"\n[base]\ntopology = { wifi = { mcs = { fixed = 12 }, ap_buffer_pkts = 100 } }\n",
            "MCS index in 0..=7",
            4,
        ),
        (
            "[campaign]\nname = \"x\"\n[base]\nqdisc = { abc = { eta = 2.0 } }\n",
            "`eta` must be in (0, 1]",
            4,
        ),
    ];
    for (text, needle, line) in cases {
        let err = file::from_str(text, Scale::Tiny).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains(needle), "{msg:?} missing {needle:?}");
        assert!(
            msg.contains(&format!("line {line}")),
            "{msg:?} not anchored to line {line}"
        );
    }
}

// ---- the schema golden ----

/// Every compile outcome of the schema over a fixed corpus, folded into
/// one FNV-64: the committed examples, the `[campaign]` snippets of the
/// format reference, and seeded single-key mutations of both. Exact
/// error text and every compiled spec count. `schema_golden.txt` beside
/// this file lists each input's line, so a mismatch names the first
/// input whose outcome moved.
const SCHEMA_GOLDEN: u64 = 0x69ca4ce31ba012ae;

/// Scalars each mutation writes in place of a key's value.
const SCALAR_MUTATIONS: [&str; 5] = ["\"x\"", "-1", "0", "1.5", "true"];

const FNV_OFFSET: u64 = 0xcbf29ce484222325;

fn fnv64(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100000001b3))
}

/// `spec` with each cellular trace reduced to its name and length, so
/// its `{:?}` stays short.
fn shrink_traces(mut spec: ScenarioSpec) -> ScenarioSpec {
    fn shrink(link: &mut LinkSpec) {
        if let LinkSpec::Trace(t) = link {
            t.name = format!("{}#{}", t.name, t.opportunities.len());
            t.opportunities = Arc::from(Vec::new());
        }
    }
    match &mut spec.topology {
        Topology::SingleBottleneck(l) | Topology::MixedPath { wireless: l, .. } => shrink(l),
        Topology::TwoHop { up, down } | Topology::Asymmetric { up, down, .. } => {
            shrink(up);
            shrink(down);
        }
        Topology::ParkingLot { hops } => hops.iter_mut().for_each(|h| shrink(&mut h.link)),
        Topology::Wifi { .. } => {}
    }
    spec
}

/// One scale's outcome: the positioned error, or a digest of the
/// campaign name and every expanded point.
fn compile_outcome(text: &str, scale: Scale) -> String {
    match file::from_str(text, scale) {
        Err(file::FileError::Parse(e)) => {
            format!("err {}:{}: {}", e.pos.line, e.pos.col, e.message)
        }
        Err(e) => panic!("from_str does no I/O: {e}"),
        Ok(c) => {
            let mut h = fnv64(FNV_OFFSET, c.name.as_bytes());
            for p in c.expand() {
                let point = format!("{} {:?} {:?}\n", p.ordinal, p.coords, shrink_traces(p.spec));
                h = fnv64(h, point.as_bytes());
            }
            format!("ok {h:016x}")
        }
    }
}

/// An input's golden line: its outcome at every scale, written once
/// when all three agree.
fn golden_line(text: &str) -> String {
    let [full, fast, tiny] =
        [Scale::Full, Scale::Fast, Scale::Tiny].map(|s| compile_outcome(text, s));
    if full == fast && fast == tiny {
        full
    } else {
        format!("full: {full} | fast: {fast} | tiny: {tiny}")
    }
}

fn is_key_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'-'
}

/// `(label, text)` for the seeded mutations of `text`: at every
/// `<ident> =` outside comments and strings, the key renamed to
/// `<ident>_x`, then its scalar value replaced by each of
/// [`SCALAR_MUTATIONS`]. Table and array values are left alone; their
/// inner keys get their own occurrences.
fn mutations(source: &str, text: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut line_start = 0;
    for (n, line) in text.split_inclusive('\n').enumerate() {
        let b = line.as_bytes();
        let skip_spaces = |mut i: usize| {
            while i < b.len() && b[i] == b' ' {
                i += 1;
            }
            i
        };
        let mut quote = None;
        let mut i = 0;
        while i < b.len() {
            let c = b[i];
            if let Some(q) = quote {
                if c == b'\\' && q == b'"' {
                    i += 1;
                } else if c == q {
                    quote = None;
                }
                i += 1;
                continue;
            }
            if c == b'"' || c == b'\'' {
                quote = Some(c);
            } else if c == b'#' {
                break;
            } else if is_key_byte(c) && (i == 0 || !is_key_byte(b[i - 1])) {
                let mut end = i;
                while end < b.len() && is_key_byte(b[end]) {
                    end += 1;
                }
                let eq = skip_spaces(end);
                if b.get(eq) == Some(&b'=') {
                    let key = &line[i..end];
                    let at = |k: usize| line_start + k;
                    let site = format!("{source}:{}:{}", n + 1, i + 1);
                    out.push((
                        format!("{site} {key} -> {key}_x"),
                        format!("{}_x{}", &text[..at(end)], &text[at(end)..]),
                    ));
                    let v = skip_spaces(eq + 1);
                    if v < b.len() && !matches!(b[v], b'{' | b'[' | b'\n' | b'#') {
                        let v_end = if b[v] == b'"' {
                            v + 1 + line[v + 1..].find('"').expect("closed string") + 1
                        } else {
                            (v..b.len())
                                .find(|&k| b",}] \t\r\n#".contains(&b[k]))
                                .unwrap_or(b.len())
                        };
                        for s in SCALAR_MUTATIONS {
                            out.push((
                                format!("{site} {key} = {s}"),
                                format!("{}{s}{}", &text[..at(v)], &text[at(v_end)..]),
                            ));
                        }
                    }
                }
                i = end;
                continue;
            }
            i += 1;
        }
        line_start += line.len();
    }
    out
}

/// The golden's inputs, as `(label, text)`: each committed example and
/// each `[campaign]`-bearing ```toml block of the format reference, then
/// the seeded mutations of each.
fn schema_corpus() -> Vec<(String, String)> {
    let mut sources = Vec::new();
    let dir = repo_root().join("examples/campaigns");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("examples/campaigns exists")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".toml"))
        .collect();
    names.sort();
    for name in names {
        let text = std::fs::read_to_string(dir.join(&name)).unwrap();
        sources.push((format!("examples/campaigns/{name}"), text));
    }
    let doc = std::fs::read_to_string(repo_root().join("docs/campaign-file.md")).unwrap();
    // Doc snippets are labelled by their order, so editing the prose
    // around them does not move the listing.
    let (mut block, mut snippets) = (None::<String>, 0);
    for line in doc.lines() {
        match (&mut block, line.trim_start()) {
            (None, "```toml") => block = Some(String::new()),
            (Some(body), "```") => {
                if body.contains("[campaign]") {
                    snippets += 1;
                    let label = format!("docs/campaign-file.md#{snippets}");
                    sources.push((label, std::mem::take(body)));
                }
                block = None;
            }
            (Some(body), _) => {
                body.push_str(line);
                body.push('\n');
            }
            (None, _) => {}
        }
    }
    let mut corpus = Vec::new();
    for (source, text) in sources {
        let mutated = mutations(&source, &text);
        corpus.push((source, text));
        corpus.extend(mutated);
    }
    corpus
}

#[test]
fn schema_golden_pins_every_compile_outcome() {
    let corpus = schema_corpus();
    let lines: Vec<String> = corpus.iter().map(|(_, text)| golden_line(text)).collect();
    let mut digest = FNV_OFFSET;
    let mut listing = String::new();
    for ((label, _), line) in corpus.iter().zip(&lines) {
        digest = fnv64(digest, format!("{line}\n").as_bytes());
        writeln!(listing, "{label}\t{line}").unwrap();
    }
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/schema_golden.txt");
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    if digest == SCHEMA_GOLDEN && listing == golden {
        return;
    }
    let fresh = Path::new(env!("CARGO_TARGET_TMPDIR")).join("schema_golden.txt");
    std::fs::write(&fresh, &listing).unwrap();
    let moved = listing
        .lines()
        .zip(golden.lines().map(Some).chain(std::iter::repeat(None)))
        .find(|(now, was)| Some(*now) != *was);
    let detail = match moved {
        Some((now, was)) => format!(
            "first moved input:\n  now: {now}\n  was: {}",
            was.unwrap_or("-")
        ),
        None => "the listing matches; only the pinned digest differs".to_string(),
    };
    panic!(
        "schema golden moved: digest {digest:#018x}, pinned {SCHEMA_GOLDEN:#018x}, {} inputs\n{detail}\nfresh listing: {}",
        corpus.len(),
        fresh.display()
    );
}

/// Hand-written inputs whose golden lines are pinned one by one, each
/// with the reason it last moved.
///
/// `buffer_pkts = 0`: each of these compiled (the `was:` line) and
/// every droptail or ABC point then panicked at build on its
/// zero-capacity queue, so the run exited 3. A zero buffer is now
/// rejected at compile time, with a position, wherever a scenario
/// buffer is set.
const PINNED_LINES: &[(&str, &str)] = &[
    // was: ok ded3c4aad96abae9
    (
        "[campaign]\nname = \"b\"\n[base]\nbuffer_pkts = 0\n",
        "err 4:15: `buffer_pkts` must be at least 1",
    ),
    // was: full: ok 14c7c4a3caa1ed62 | fast: ok 14c7c4a3caa1ed62 | tiny: ok ded3c4aad96abae9
    (
        "[campaign]\nname = \"b\"\n[scale.tiny]\nbuffer_pkts = 0\n",
        "full: ok 14c7c4a3caa1ed62 | fast: ok 14c7c4a3caa1ed62 | tiny: err 4:15: `buffer_pkts` must be at least 1",
    ),
    // was: ok c543e17e3a1e4b8a
    (
        "[campaign]\nname = \"b\"\n[[axis]]\nname = \"buf\"\nbuffer_pkts = [10, 0]\n",
        "err 5:20: `buffer_pkts` must be at least 1",
    ),
    // was: ok 6e430cec9924120d
    (
        "[campaign]\nname = \"b\"\n[[axis]]\nname = \"buf\"\n[[axis.values]]\nlabel = \"none\"\nbuffer_pkts = 0\n",
        "err 7:15: `buffer_pkts` must be at least 1",
    ),
];

#[test]
fn pinned_golden_lines_hold() {
    let moved: Vec<String> = PINNED_LINES
        .iter()
        .filter(|(text, want)| golden_line(text) != *want)
        .map(|(text, _)| format!("{text:?}\n  now: {}", golden_line(text)))
        .collect();
    assert!(
        moved.is_empty(),
        "pinned golden lines moved:\n{}",
        moved.join("\n")
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// An asymmetric-link spec survives the whole chain: TOML text →
    /// compiled `ScenarioSpec` (rates and one-way delays intact) →
    /// executed store record → JSONL → reloaded record, unchanged.
    #[test]
    fn asymmetric_spec_roundtrips_toml_to_store_record(
        down_mbps in 2u32..=8,
        up_mbps in 1u32..=4,
        down_delay_ms in 5u64..=60,
        up_delay_ms in 5u64..=60,
        seed in 1u64..=4,
    ) {
        let text = format!(
            "[campaign]\nname = \"asym-prop\"\n[base]\nscheme = \"ABC-Cubic\"\n\
             topology = {{ asymmetric = {{ down = {{ constant_mbps = {down_mbps}.0 }}, \
             up = {{ constant_mbps = {up_mbps}.0 }}, down_delay_ms = {down_delay_ms}, \
             up_delay_ms = {up_delay_ms} }} }}\n\
             duration_s = 1\nwarmup_s = 0\nseed = {seed}\nflows = 1\n",
        );
        let c = file::from_str(&text, Scale::Tiny).unwrap();
        // TOML → ScenarioSpec
        match &c.base.topology {
            Topology::Asymmetric { down, up, down_delay, up_delay } => {
                prop_assert_eq!(
                    down.nominal_rate(),
                    netsim::rate::Rate::from_mbps(down_mbps as f64)
                );
                prop_assert_eq!(
                    up.nominal_rate(),
                    netsim::rate::Rate::from_mbps(up_mbps as f64)
                );
                prop_assert_eq!(*down_delay, SimDuration::from_millis(down_delay_ms));
                prop_assert_eq!(*up_delay, SimDuration::from_millis(up_delay_ms));
            }
            other => prop_assert!(false, "expected asymmetric, got {other:?}"),
        }
        prop_assert_eq!(c.base.seed, seed);
        // ScenarioSpec → store record: runs, respects the data-direction
        // cap, and survives store serialization byte-for-byte.
        let records = run_campaign(&c, &RunOptions::quiet());
        prop_assert_eq!(records.len(), 1);
        prop_assert!(
            records[0].report.total_tput_mbps <= down_mbps as f64 + 0.5,
            "tput {} exceeds the {down_mbps} Mbit/s data-direction bottleneck",
            records[0].report.total_tput_mbps
        );
        let store = ResultsStore::new(&c, records.clone());
        let back = ResultsStore::from_jsonl(&store.to_jsonl()).unwrap();
        prop_assert_eq!(back.records, records);
    }
}
