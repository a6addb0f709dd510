//! The results-store codec, held to pinned bytes and to a reference
//! reader.
//!
//! Write side: `to_jsonl` reproduces the committed tiny baseline, every
//! built-in preset's Tiny store (as the streaming runner writes it; the
//! FNV-64 of all of them is pinned) and a store holding an error line,
//! byte for byte.
//!
//! Read side: [`reference_load`] is the `Fields`-based reader that walked
//! a `json::Value` tree per line. It and `ResultsStore::from_jsonl` /
//! `from_jsonl_allow_partial` must agree on the baseline and on seeded
//! mutations of it (series cut to four points, so a debug build runs
//! thousands, and app and impairment members added): truncations, byte flips, hostile numbers, `null` in
//! every numeric field, reordered / duplicated / unknown keys and series
//! points of the wrong arity. Agreeing means equal stores (`Report`'s
//! bitwise float equality) or the same error, line and text.

use campaign::json::{self, Value};
use campaign::jsonl::{self, Error, Fields, Tail};
use campaign::presets;
use campaign::runner::{
    run_campaign_streaming, ErrorKind, ErrorRecord, PointError, RunOptions, RunRecord,
};
use campaign::spec::Coords;
use campaign::store::{ResultsStore, StoreHeader, SCHEMA};
use experiments::figures::Scale;
use experiments::report::{AppReport, Report};
use netsim::metrics::ImpairmentRecord;
use netsim::stats::Summary;
use workload::{RtcMetrics, VideoMetrics, WebMetrics};

const BASELINE: &str = include_str!("../../../ci/campaign-tiny-baseline.jsonl");

// ---- the reference reader ---------------------------------------------

/// The store reader as it was when every line became a `Value` first.
fn reference_load(text: &str, partial: bool) -> Result<ResultsStore, Error> {
    let tail = if partial {
        Tail::DropTorn
    } else {
        Tail::Strict
    };
    let (first, rows) = jsonl::read(text, SCHEMA, tail)?;
    let header = header_from(first.fields())?;
    let (mut records, mut errors) = (Vec::new(), Vec::new());
    let mut last_ordinal = None;
    for line in rows {
        let line = line?;
        let row = line.fields();
        let ordinal: usize = row.uint("ordinal")?;
        if let Some(last) = last_ordinal.filter(|&last| ordinal <= last) {
            return Err(row.err(format!(
                "ordinal {ordinal} does not follow ordinal {last} (ordinals must increase)"
            )));
        }
        last_ordinal = Some(ordinal);
        let coords = coords_in(&header, row)?;
        if row.get("error").is_some() {
            errors.push(error_record_from(row, ordinal, coords)?);
        } else {
            records.push(RunRecord {
                ordinal,
                coords,
                report: report_from(row.obj("report")?)?,
            });
        }
    }
    let lines = records.len() + errors.len();
    if lines > header.points || (!partial && lines < header.points) {
        return Err(first.fields().err(format!(
            "header promises {} records, file has {} (+ {} errors)",
            header.points,
            records.len(),
            errors.len()
        )));
    }
    Ok(ResultsStore {
        header,
        records,
        errors,
    })
}

fn header_from(f: Fields) -> Result<StoreHeader, Error> {
    let axes = f.arr("axes")?.iter().map(|a| {
        let a = f.at(a);
        Ok((a.str("name")?.to_string(), a.strings("labels")?))
    });
    Ok(StoreHeader {
        schema: f.str("schema")?.to_string(),
        campaign: f.str("campaign")?.to_string(),
        axes: axes.collect::<Result<_, Error>>()?,
        filters: f
            .opt("filters")
            .map(|_| f.strings("filters"))
            .transpose()?
            .unwrap_or_default(),
        points: f.uint("points")?,
    })
}

fn coords_in(header: &StoreHeader, row: Fields) -> Result<Coords, Error> {
    let coords = row.coords()?;
    for (axis, label) in &coords.0 {
        let known = |(a, labels): &(String, Vec<String>)| a == axis && labels.contains(label);
        if !header.axes.iter().any(known) {
            return Err(row.err(format!("coords {axis}={label} are not in the header")));
        }
    }
    Ok(coords)
}

fn error_record_from(row: Fields, ordinal: usize, coords: Coords) -> Result<ErrorRecord, Error> {
    let e = row.obj("error")?;
    let kind = e.str("kind")?;
    Ok(ErrorRecord {
        ordinal,
        coords,
        error: PointError {
            kind: ErrorKind::from_name(kind)
                .ok_or_else(|| e.err(format!("unknown error kind {kind:?}")))?,
            message: e.str("message")?.to_string(),
        },
    })
}

fn num_or_nan(v: &Value) -> f64 {
    v.as_f64().unwrap_or(f64::NAN)
}

fn report_from(r: Fields) -> Result<Report, Error> {
    let impairment = |i| {
        let i = r.at(i);
        Ok::<_, Error>(ImpairmentRecord {
            label: i.str("label")?.to_string(),
            passed: i.uint("passed")?,
            impaired: i.uint("impaired")?,
        })
    };
    Ok(Report {
        scheme: r.str("scheme")?.to_string(),
        utilization: r.num("utilization")?,
        delay_ms: summary_from(r.obj("delay_ms")?)?,
        qdelay_ms: summary_from(r.obj("qdelay_ms")?)?,
        flow_tputs_mbps: r.arr("flow_tputs_mbps")?.iter().map(num_or_nan).collect(),
        total_tput_mbps: r.num("total_tput_mbps")?,
        jain: r.num("jain")?,
        drops: r.uint("drops")?,
        tput_series: series_from(r, "tput_series")?,
        qdelay_series: series_from(r, "qdelay_series")?,
        capacity_series: series_from(r, "capacity_series")?,
        app: r.opt("app").map(app_from).transpose()?,
        impairments: match r.get("impairments") {
            Some(_) => r
                .arr("impairments")?
                .iter()
                .map(impairment)
                .collect::<Result<_, _>>()?,
            None => Vec::new(),
        },
    })
}

fn app_from(a: Fields) -> Result<AppReport, Error> {
    let web = |w: Fields| -> Result<_, Error> {
        Ok(WebMetrics {
            flows: w.uint("flows")?,
            completed: w.uint("completed")?,
            fct_ms: summary_from(w.obj("fct_ms")?)?,
        })
    };
    let rtc = |r: Fields| -> Result<_, Error> {
        Ok(RtcMetrics {
            pkts: r.uint("pkts")?,
            misses: r.uint("misses")?,
            miss_rate: r.num("miss_rate")?,
            owd_ms: summary_from(r.obj("owd_ms")?)?,
        })
    };
    let video = |x: Fields| -> Result<_, Error> {
        Ok(VideoMetrics {
            chunks_downloaded: x.uint("chunks_downloaded")?,
            chunks_total: x.uint("chunks_total")?,
            mean_bitrate_kbps: x.num("mean_bitrate_kbps")?,
            play_s: x.num("play_s")?,
            rebuffer_s: x.num("rebuffer_s")?,
            rebuffer_ratio: x.num("rebuffer_ratio")?,
            startup_delay_ms: x.num("startup_delay_ms")?,
            switches: x.uint("switches")?,
            qoe: x.num("qoe")?,
        })
    };
    Ok(AppReport {
        web: a.opt("web").map(web).transpose()?,
        rtc: a.opt("rtc").map(rtc).transpose()?,
        video: a.opt("video").map(video).transpose()?,
    })
}

fn summary_from(s: Fields) -> Result<Summary, Error> {
    Ok(Summary {
        count: s.uint("count")?,
        mean: s.num("mean")?,
        std_dev: s.num("std_dev")?,
        min: s.num("min")?,
        max: s.num("max")?,
        p50: s.num("p50")?,
        p95: s.num("p95")?,
        p99: s.num("p99")?,
    })
}

fn series_from(r: Fields, key: &str) -> Result<Vec<(f64, f64)>, Error> {
    r.arr(key)?
        .iter()
        .map(|p| match p.as_arr() {
            Some([t, v]) => Ok((num_or_nan(t), num_or_nan(v))),
            _ => Err(r.err("series point is not a [t, v] pair")),
        })
        .collect()
}

// ---- agreement ----------------------------------------------------------

/// An error as the comparison sees it: variant, line and full text.
fn describe(e: &Error) -> (&'static str, usize, String) {
    let (variant, line) = match e {
        Error::Io(_) => ("Io", 0),
        Error::Json { line, .. } => ("Json", *line),
        Error::Format { line, .. } => ("Format", *line),
        Error::Schema { line, .. } => ("Schema", *line),
    };
    (variant, line, e.to_string())
}

/// How many checked inputs loaded, and how many failed, in either mode.
#[derive(Default)]
struct Tally {
    ok: usize,
    err: usize,
}

/// Both readers, complete and partial, on `text`: equal stores or the
/// same error.
fn agree(case: &str, text: &str, tally: &mut Tally) {
    for partial in [false, true] {
        let store = if partial {
            ResultsStore::from_jsonl_allow_partial(text)
        } else {
            ResultsStore::from_jsonl(text)
        };
        match (store, reference_load(text, partial)) {
            (Ok(a), Ok(b)) => {
                assert!(a == b, "{case} (partial={partial}): the stores differ");
                tally.ok += 1;
            }
            (Err(a), Err(b)) => {
                assert_eq!(
                    describe(&a),
                    describe(&b),
                    "{case} (partial={partial}): the errors differ"
                );
                tally.err += 1;
            }
            (a, b) => panic!(
                "{case} (partial={partial}): store reader {:?}, reference {:?}",
                a.map(|_| ()).map_err(|e| describe(&e)),
                b.map(|_| ()).map_err(|e| describe(&e)),
            ),
        }
    }
}

// ---- seeded mutations ---------------------------------------------------

/// SplitMix64: the mutations are a pure function of the seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// Literals no writer emits where a number belongs (`uint` fields must
/// stay below 2^64: both 2^64 spellings fail).
const HOSTILE: &[&str] = &[
    "1e300",
    "-1e300",
    "-1",
    "-0",
    "0.5",
    "1e12",
    "null",
    "true",
    "\"7\"",
    "[]",
    "{}",
    "18446744073709551615",
    "18446744073709551616",
    "18446744073709552000",
    "9007199254740993",
    "1.8e19",
    "01",
    "1.",
    "-",
    "1e",
    "1e999",
];

/// Values an inserted or duplicated member takes.
const VALUES: &[&str] = &[
    "null",
    "7",
    "-1",
    "0.25",
    "\"x\"",
    "[]",
    "{}",
    "[[1,2],[3]]",
    "{\"count\":1}",
    "true",
];

/// Byte ranges of the number literals in `line` (outside strings), and
/// whether each is an object member's value (follows a `:`).
fn numbers(line: &str) -> Vec<(usize, usize, bool)> {
    let b = line.as_bytes();
    let (mut out, mut i, mut in_str) = (Vec::new(), 0, false);
    while i < b.len() {
        let c = b[i];
        if in_str {
            match c {
                b'\\' => i += 1,
                b'"' => in_str = false,
                _ => {}
            }
        } else if c == b'"' {
            in_str = true;
        } else if (c == b'-' || c.is_ascii_digit()) && i > 0 && b":[,".contains(&b[i - 1]) {
            let start = i;
            while i < b.len() && b"-+.eE0123456789".contains(&b[i]) {
                i += 1;
            }
            out.push((start, i, b[start - 1] == b':'));
            continue;
        }
        i += 1;
    }
    out
}

/// The baseline with line `at` (0-based) replaced.
fn with_line(lines: &[&str], at: usize, new: &str) -> String {
    let mut out = String::new();
    for (i, l) in lines.iter().enumerate() {
        out.push_str(if i == at { new } else { l });
        out.push('\n');
    }
    out
}

/// Every object in `v`, depth first, counted.
fn count_objects(v: &Value) -> usize {
    match v {
        Value::Obj(m) => 1 + m.iter().map(|(_, v)| count_objects(v)).sum::<usize>(),
        Value::Arr(items) => items.iter().map(count_objects).sum(),
        _ => 0,
    }
}

/// The members of the `n`th object of `v`, depth first.
fn nth_object<'a>(v: &'a mut Value, n: &mut usize) -> Option<&'a mut Vec<(String, Value)>> {
    match v {
        Value::Obj(m) => {
            if *n == 0 {
                return Some(m);
            }
            *n -= 1;
            m.iter_mut().find_map(|(_, v)| nth_object(v, n))
        }
        Value::Arr(items) => items.iter_mut().find_map(|v| nth_object(v, n)),
        _ => None,
    }
}

/// The first `key` member of object `v`.
fn member<'a>(v: &'a mut Value, key: &str) -> Option<&'a mut Value> {
    match v {
        Value::Obj(m) => m.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// The value of the `n`th object member in `v`, depth first.
fn nth_member<'a>(v: &'a mut Value, n: &mut usize) -> Option<&'a mut Value> {
    match v {
        Value::Obj(m) => m.iter_mut().find_map(|(_, v)| {
            if *n == 0 {
                return Some(v);
            }
            *n -= 1;
            nth_member(v, n)
        }),
        Value::Arr(items) => items.iter_mut().find_map(|v| nth_member(v, n)),
        _ => None,
    }
}

/// Shuffle the members of every object in `v`.
fn shuffle(v: &mut Value, rng: &mut Rng) {
    match v {
        Value::Obj(m) => {
            for i in (1..m.len()).rev() {
                m.swap(i, rng.below(i + 1));
            }
            m.iter_mut().for_each(|(_, v)| shuffle(v, rng));
        }
        Value::Arr(items) => items.iter_mut().for_each(|v| shuffle(v, rng)),
        _ => {}
    }
}

/// The baseline as mutations start from it: every series cut to its
/// first four points (each record keeps every member, at an eighth of
/// the bytes, so debug builds afford thousands of mutations), and app
/// metrics and impairment counters added to three records, since the
/// tiny preset has neither.
fn mutation_base() -> Vec<String> {
    let mut store = ResultsStore::from_jsonl(BASELINE).unwrap();
    let summary = store.records[0].report.delay_ms;
    let rtc = RtcMetrics {
        pkts: 500,
        misses: 3,
        miss_rate: 0.006,
        owd_ms: summary,
    };
    store.records[1].report.app = Some(AppReport {
        web: Some(WebMetrics {
            flows: 12,
            completed: 11,
            fct_ms: summary,
        }),
        rtc: Some(rtc.clone()),
        video: Some(VideoMetrics {
            chunks_downloaded: 4,
            chunks_total: 5,
            mean_bitrate_kbps: 2500.5,
            play_s: 1.25,
            rebuffer_s: 0.0,
            rebuffer_ratio: f64::NAN,
            startup_delay_ms: 350.0,
            switches: 1,
            qoe: 0.75,
        }),
    });
    store.records[4].report.app = Some(AppReport {
        web: None,
        rtc: Some(rtc),
        video: None,
    });
    store.records[2].report.impairments = vec![
        ImpairmentRecord {
            label: "0:drop:data".into(),
            passed: 990,
            impaired: 10,
        },
        ImpairmentRecord {
            label: "1:jitter:ack".into(),
            passed: 1000,
            impaired: 0,
        },
    ];
    for r in &mut store.records {
        let report = &mut r.report;
        for series in [
            &mut report.tput_series,
            &mut report.qdelay_series,
            &mut report.capacity_series,
        ] {
            series.truncate(4);
        }
    }
    store.to_jsonl().lines().map(str::to_string).collect()
}

/// One seeded mutation of the mutation base's text.
fn mutate(rng: &mut Rng, lines: &[&str]) -> (String, String) {
    let at = rng.below(lines.len());
    let line = lines[at];
    let record = at > 0;
    match rng.below(10) {
        0 => {
            // truncation anywhere in the file
            let text = with_line(lines, usize::MAX, "");
            let mut cut = rng.below(text.len());
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            (format!("truncated at byte {cut}"), text[..cut].into())
        }
        1 => {
            // one ASCII byte of one line replaced
            let mut bytes = line.as_bytes().to_vec();
            let i = rng.below(bytes.len());
            let to = *rng.pick(b"{}[],:\"\\-.0123456789eEnultrfs x\t");
            bytes[i] = if bytes[i].is_ascii() { to } else { bytes[i] };
            let new = String::from_utf8(bytes).expect("ASCII for ASCII keeps UTF-8");
            (
                format!("line {} byte {i} -> {:?}", at + 1, to as char),
                with_line(lines, at, &new),
            )
        }
        2 | 3 => {
            // a hostile literal where a number was
            let spans = numbers(line);
            let &(s, e, _) = rng.pick(&spans);
            let h = *rng.pick(HOSTILE);
            let new = format!("{}{h}{}", &line[..s], &line[e..]);
            (
                format!("line {} number at {s} -> {h}", at + 1),
                with_line(lines, at, &new),
            )
        }
        4 if record => {
            // every object's members shuffled
            let mut v = json::parse(line).unwrap();
            shuffle(&mut v, rng);
            (
                format!("line {} shuffled", at + 1),
                with_line(lines, at, &v.render()),
            )
        }
        5 if record => {
            // a member duplicated, before or after the original, with
            // another value
            let mut v = json::parse(line).unwrap();
            let mut n = rng.below(count_objects(&v));
            let members = nth_object(&mut v, &mut n).unwrap();
            if members.is_empty() {
                return (
                    format!("line {} unchanged", at + 1),
                    with_line(lines, at, line),
                );
            }
            let i = rng.below(members.len());
            let key = members[i].0.clone();
            let value = json::parse(rng.pick::<&str>(VALUES)).unwrap();
            let before = rng.below(2) == 0;
            members.insert(if before { i } else { i + 1 }, (key.clone(), value));
            let case = format!("line {} {key:?} duplicated (before={before})", at + 1);
            (case, with_line(lines, at, &v.render()))
        }
        6 if record => {
            // an unknown member anywhere
            let mut v = json::parse(line).unwrap();
            let mut n = rng.below(count_objects(&v));
            let members = nth_object(&mut v, &mut n).unwrap();
            let i = rng.below(members.len() + 1);
            let value = json::parse(rng.pick::<&str>(VALUES)).unwrap();
            members.insert(i, ("zz_unknown".into(), value));
            let case = format!("line {} unknown key in object {n}", at + 1);
            (case, with_line(lines, at, &v.render()))
        }
        7 if record => {
            // one series point of the wrong arity (or not an array)
            let mut v = json::parse(line).unwrap();
            let key = *rng.pick(&["tput_series", "qdelay_series", "capacity_series"]);
            let report = member(&mut v, "report").expect("every record has a report");
            let Some(Value::Arr(points)) = member(report, key) else {
                unreachable!("every report has its series")
            };
            if points.is_empty() {
                return (
                    format!("line {} {key} empty", at + 1),
                    with_line(lines, at, line),
                );
            }
            let p = rng.below(points.len());
            let shape = *rng.pick(&["[1]", "[1,2,3]", "[]", "7", "[1,[2]]", "[null,\"v\"]"]);
            points[p] = json::parse(shape).unwrap();
            let case = format!("line {} {key}[{p}] -> {shape}", at + 1);
            (case, with_line(lines, at, &v.render()))
        }
        8 if record => {
            // several hostile literals at once, then every object
            // shuffled: a struct's first problem in *table* order is the
            // one reported, wherever its members sit in the text
            let mut line = line.to_string();
            for _ in 0..3 {
                let spans = numbers(&line);
                let &(s, e, _) = rng.pick(&spans);
                // (1e999 parses to an infinite `Value::Num`, which has no
                // text to render the shuffled line back with)
                let h = *rng.pick(&HOSTILE[..HOSTILE.len() - 1]);
                line = format!("{}{h}{}", &line[..s], &line[e..]);
            }
            let Ok(mut v) = json::parse(&line) else {
                return (
                    format!("line {} hostile x3", at + 1),
                    with_line(lines, at, &line),
                );
            };
            shuffle(&mut v, rng);
            let case = format!("line {} hostile x3, shuffled", at + 1);
            (case, with_line(lines, at, &v.render()))
        }
        9 if record => {
            // an "error" member on any row: the row is an error line,
            // whatever its report holds
            let mut v = json::parse(line).unwrap();
            let Value::Obj(members) = &mut v else {
                unreachable!("rows are objects")
            };
            let i = rng.below(members.len() + 1);
            let error = *rng.pick(&[
                r#"{"kind":"panic","message":"m"}"#,
                r#"{"kind":"boom","message":"m"}"#,
                r#"{"message":"m"}"#,
                "\"x\"",
                "null",
            ]);
            members.insert(i, ("error".into(), json::parse(error).unwrap()));
            let case = format!("line {} error member {error} at {i}", at + 1);
            (case, with_line(lines, at, &v.render()))
        }
        _ => {
            // the header's count, or the header itself, edited
            let spans = numbers(line);
            let &(s, e, _) = rng.pick(&spans);
            let new = format!("{}{}{}", &line[..s], rng.below(10), &line[e..]);
            (
                format!("line {} number at {s} -> digit", at + 1),
                with_line(lines, at, &new),
            )
        }
    }
}

#[test]
fn readers_agree_on_the_baseline_and_its_mutations() {
    let mut tally = Tally::default();
    agree("baseline", BASELINE, &mut tally);
    let base = mutation_base();
    let lines: Vec<&str> = base.iter().map(String::as_str).collect();
    // null in every numeric member, one at a time
    for (at, line) in lines.iter().enumerate() {
        for (s, e, member) in numbers(line) {
            if member {
                let new = format!("{}null{}", &line[..s], &line[e..]);
                let case = format!("line {} null at {s}", at + 1);
                agree(&case, &with_line(&lines, at, &new), &mut tally);
            }
        }
    }
    let nulls = tally.ok + tally.err;
    // every member of the records carrying app and impairment members,
    // and of one plain record, given a value of each JSON type in turn
    for at in [2, 3, 5, 6] {
        let v = json::parse(lines[at]).unwrap();
        for k in 0.. {
            if nth_member(&mut v.clone(), &mut { k }).is_none() {
                break;
            }
            for value in ["null", "7", "\"x\"", "[]", "{}"] {
                let mut w = v.clone();
                *nth_member(&mut w, &mut { k }).unwrap() = json::parse(value).unwrap();
                let case = format!("line {} member {k} -> {value}", at + 1);
                agree(&case, &with_line(&lines, at, &w.render()), &mut tally);
            }
        }
    }
    let mut rng = Rng(0xABC_5707E);
    for i in 0..2000 {
        let (case, text) = mutate(&mut rng, &lines);
        agree(&format!("mutation {i}: {case}"), &text, &mut tally);
    }
    assert!(nulls >= 2 * 100, "only {nulls} null cases");
    // the mutations reach both outcomes, often
    assert!(
        tally.ok >= 500 && tally.err >= 500,
        "{} ok / {} err",
        tally.ok,
        tally.err
    );
}

// ---- byte identity ------------------------------------------------------

fn fnv64(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[test]
fn the_baseline_round_trips_byte_for_byte() {
    let store = ResultsStore::from_jsonl(BASELINE).unwrap();
    assert_eq!(store.to_jsonl(), BASELINE);
}

/// Every built-in preset at Tiny scale, streamed the way `abc-campaign
/// run` writes it, reads back to a store whose `to_jsonl` is the same
/// bytes; the FNV-64 over all of them pins the writer's text.
#[test]
fn every_preset_store_round_trips_byte_for_byte() {
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let (mut apps, mut impairments) = (0, 0);
    for (name, _, build) in presets::all() {
        let campaign = build(Scale::Tiny);
        let mut streamed = Vec::new();
        run_campaign_streaming(&campaign, &RunOptions::quiet(), Vec::new(), &mut streamed)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let text = String::from_utf8(streamed).expect("the store is UTF-8");
        let store = ResultsStore::from_jsonl(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            store.to_jsonl(),
            text,
            "{name}: to_jsonl differs from the stream"
        );
        let reference = reference_load(&text, false).unwrap();
        assert!(store == reference, "{name}: the readers disagree");
        apps += store
            .records
            .iter()
            .filter(|r| r.report.app.is_some())
            .count();
        impairments += store
            .records
            .iter()
            .filter(|r| !r.report.impairments.is_empty())
            .count();
        digest = fnv64(text.as_bytes(), digest);
    }
    assert!(
        apps > 0 && impairments > 0,
        "{apps} app / {impairments} impaired records"
    );
    assert_eq!(
        format!("{digest:016x}"),
        "377dfad1bd43b4b4",
        "preset stores moved"
    );
}

#[test]
fn a_store_with_an_error_line_round_trips_byte_for_byte() {
    let mut store = ResultsStore::from_jsonl(BASELINE).unwrap();
    let victim = store.records.remove(3);
    store.errors.push(ErrorRecord {
        ordinal: victim.ordinal,
        coords: victim.coords,
        error: PointError {
            kind: ErrorKind::Panic,
            message: "boom \"x\"\n\tπ \u{1} \\".into(),
        },
    });
    let text = store.to_jsonl();
    let line = text.lines().nth(4).unwrap();
    assert_eq!(
        line,
        r#"{"ordinal":3,"coords":{"scheme":"ABC","link":"square12-24","seed":"2"},"error":{"kind":"panic","message":"boom \"x\"\n\tπ \u0001 \\"}}"#
    );
    let back = ResultsStore::from_jsonl(&text).unwrap();
    assert_eq!(back, store);
    assert_eq!(back.to_jsonl(), text);
    assert!(reference_load(&text, false).unwrap() == back);
    let mut tally = Tally::default();
    agree("error line", &text, &mut tally);
    let flipped = text.replace("\"panic\"", "\"segfault\"");
    agree("unknown error kind", &flipped, &mut tally);
    assert_eq!(tally.err, 2, "the unknown kind loads in neither mode");
}
