//! The schema-versioned JSONL results store.
//!
//! Line 1 is a self-describing header (schema id, campaign name, axes
//! with their labels, filter names, point count); every following line is
//! one [`RunRecord`] — the full [`Report`] in the units the paper uses,
//! plus the point's stable ordinal and coordinates — or one structured
//! [`ErrorRecord`] (`{"ordinal":…,"coords":{…},"error":{"kind":…,
//! "message":…}}`) for a point that panicked or tripped the watchdog.
//! Error lines keep the store valid, diffable, and resumable: `--resume`
//! re-attempts exactly the errored ordinals.
//!
//! Serialization is **bit-identical across reruns and worker-pool
//! sizes**: records are written in expansion order, objects keep field
//! order, floats use shortest-round-trip formatting, and nothing
//! wall-clock-dependent is ever written. `NaN` metrics (Wi-Fi topologies
//! report no utilization) serialize as `null` and read back as `NaN`.
//!
//! Stores read back through [`crate::jsonl`], and a store must agree
//! with itself: ordinals strictly increase down the file (record and
//! error lines alike, as every writer emits them), every coordinate
//! names an axis and label the header lists, and no more lines than the
//! header's `points` follow it.

use crate::json::Value;
use crate::jsonl::{self, coords_to_value, Error, Fields, Tail};
use crate::runner::{ErrorKind, ErrorRecord, PointError, RunRecord};
use crate::spec::{Campaign, Coords};
use experiments::report::{AppReport, Report};
use netsim::metrics::ImpairmentRecord;
use netsim::stats::Summary;
use std::path::Path;

/// The store's schema identifier. Bump on any format change so old
/// artifacts fail loudly instead of parsing wrong.
pub const SCHEMA: &str = "abc-campaign/v1";

/// The header line: what produced the records that follow.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreHeader {
    /// The schema id ([`SCHEMA`]) the file was written under.
    pub schema: String,
    /// The campaign name.
    pub campaign: String,
    /// `(axis name, value labels)` in axis order.
    pub axes: Vec<(String, Vec<String>)>,
    /// Names of the campaign's constraint filters.
    pub filters: Vec<String>,
    /// Number of record lines (post-filter points).
    pub points: usize,
}

/// A parsed (or freshly produced) results file.
///
/// ```
/// use campaign::runner::run_campaign;
/// use campaign::store::ResultsStore;
/// use campaign::{Axis, Campaign};
/// use experiments::engine::ScenarioSpec;
/// use experiments::scenario::LinkSpec;
/// use experiments::Scheme;
/// use netsim::rate::Rate;
///
/// let base = ScenarioSpec::single(Scheme::Abc, LinkSpec::Constant(Rate::from_mbps(12.0)))
///     .duration_secs(1)
///     .warmup_secs(0);
/// let sweep = Campaign::new("doc", base).axis(Axis::seeds(&[1, 2]));
/// let store = ResultsStore::new(&sweep, run_campaign(&sweep, &Default::default()));
///
/// // Serialization round-trips exactly, byte for byte:
/// let text = store.to_jsonl();
/// let back = ResultsStore::from_jsonl(&text).unwrap();
/// assert_eq!(back, store);
/// assert_eq!(back.to_jsonl(), text);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ResultsStore {
    /// The self-describing header line.
    pub header: StoreHeader,
    /// One executed record per surviving campaign point, in ordinal
    /// order.
    pub records: Vec<RunRecord>,
    /// Structured errors for points that panicked or tripped the
    /// watchdog, in ordinal order. Empty for a clean run.
    pub errors: Vec<ErrorRecord>,
}

impl ResultsStore {
    /// Bundle a campaign's executed records under its header.
    pub fn new(campaign: &Campaign, records: Vec<RunRecord>) -> ResultsStore {
        ResultsStore {
            header: header_for(campaign, records.len()),
            records,
            errors: Vec::new(),
        }
    }

    /// Serialize to JSONL: the header line, then every record and error
    /// line interleaved in ordinal order — exactly the bytes a streaming
    /// run writes.
    pub fn to_jsonl(&self) -> String {
        let mut out = render_header(&self.header);
        out.push('\n');
        let mut errs = self.errors.iter().peekable();
        for r in &self.records {
            while errs.peek().is_some_and(|e| e.ordinal < r.ordinal) {
                let e = errs.next().expect("peeked error vanished");
                out.push_str(&render_error_record(e));
                out.push('\n');
            }
            out.push_str(&render_record(r));
            out.push('\n');
        }
        for e in errs {
            out.push_str(&render_error_record(e));
            out.push('\n');
        }
        out
    }

    /// Parse a JSONL store, validating the schema id, that the lines
    /// agree with the header (see the module docs), and that every
    /// promised point left a line (a clean record or an error record).
    pub fn from_jsonl(text: &str) -> Result<ResultsStore, Error> {
        Self::parse(text, false)
    }

    /// Parse a possibly-interrupted store: the executor streams records to
    /// disk one by one under a header that promises the *full* point
    /// count, so a killed run leaves fewer records than promised — and, if
    /// the kill landed mid-write, a torn final line, which is dropped.
    /// Every complete record still validates; `--resume` re-runs the rest.
    pub fn from_jsonl_allow_partial(text: &str) -> Result<ResultsStore, Error> {
        Self::parse(text, true)
    }

    fn parse(text: &str, partial: bool) -> Result<ResultsStore, Error> {
        let tail = if partial {
            Tail::DropTorn
        } else {
            Tail::Strict
        };
        let (first, rows) = jsonl::read(text, SCHEMA, tail)?;
        let header = header_from(first.fields())?;
        // Never sized from the header: its `points` is unchecked input.
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
            // A line with an "error" key is a failed point; anything else
            // must be a clean record.
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

    /// Read and validate a complete store from `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<ResultsStore, Error> {
        ResultsStore::from_jsonl(&std::fs::read_to_string(path)?)
    }
}

/// Stitch shard stores (see
/// [`run_campaign_streaming_sharded`](crate::runner::run_campaign_streaming_sharded))
/// back into one. Headers must describe the same sweep — same schema,
/// campaign name, axes, and filters; only `points` may differ — and no
/// ordinal may appear twice. Records come back sorted by ordinal, so
/// merging a complete shard set reproduces an unsharded run's store
/// byte for byte.
pub fn merge_stores(stores: &[ResultsStore]) -> Result<ResultsStore, Error> {
    let fail = |message: String| Error::Format { line: 1, message };
    let first = stores
        .first()
        .ok_or_else(|| fail("nothing to merge".into()))?;
    let mut records: Vec<RunRecord> = Vec::new();
    let mut errors: Vec<ErrorRecord> = Vec::new();
    for (i, s) in stores.iter().enumerate() {
        let h = &s.header;
        if h.schema != first.header.schema
            || h.campaign != first.header.campaign
            || h.axes != first.header.axes
            || h.filters != first.header.filters
        {
            return Err(fail(format!(
                "store {} describes a different sweep ({:?} vs {:?})",
                i + 1,
                h.campaign,
                first.header.campaign
            )));
        }
        records.extend(s.records.iter().cloned());
        errors.extend(s.errors.iter().cloned());
    }
    records.sort_by_key(|r| r.ordinal);
    errors.sort_by_key(|e| e.ordinal);
    let mut ordinals: Vec<usize> = records.iter().map(|r| r.ordinal).collect();
    ordinals.extend(errors.iter().map(|e| e.ordinal));
    ordinals.sort_unstable();
    if let Some(w) = ordinals.windows(2).find(|w| w[0] == w[1]) {
        return Err(fail(format!(
            "ordinal {} appears in more than one store",
            w[0]
        )));
    }
    Ok(ResultsStore {
        header: StoreHeader {
            points: records.len() + errors.len(),
            ..first.header.clone()
        },
        records,
        errors,
    })
}

/// The header a campaign's store carries. Streaming executors pass the
/// full post-filter expansion count as `points` before any record exists.
pub fn header_for(campaign: &Campaign, points: usize) -> StoreHeader {
    StoreHeader {
        schema: SCHEMA.to_string(),
        campaign: campaign.name.clone(),
        axes: campaign
            .axes
            .iter()
            .map(|a| (a.name.clone(), a.labels()))
            .collect(),
        filters: campaign.filters.iter().map(|f| f.name.clone()).collect(),
        points,
    }
}

/// Render the header line exactly as [`ResultsStore::to_jsonl`] does —
/// for executors that stream a store to disk incrementally.
pub fn render_header(h: &StoreHeader) -> String {
    header_to_value(h).render()
}

/// Render one record line exactly as [`ResultsStore::to_jsonl`] does.
pub fn render_record(r: &RunRecord) -> String {
    record_to_value(r).render()
}

/// Render one structured error line exactly as [`ResultsStore::to_jsonl`]
/// does — for executors that stream a store to disk incrementally.
pub fn render_error_record(e: &ErrorRecord) -> String {
    error_record_to_value(e).render()
}

fn header_to_value(h: &StoreHeader) -> Value {
    Value::Obj(vec![
        ("schema".into(), Value::str(&h.schema)),
        ("campaign".into(), Value::str(&h.campaign)),
        (
            "axes".into(),
            Value::Arr(
                h.axes
                    .iter()
                    .map(|(name, labels)| {
                        Value::Obj(vec![
                            ("name".into(), Value::str(name)),
                            (
                                "labels".into(),
                                Value::Arr(labels.iter().map(Value::str).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "filters".into(),
            Value::Arr(h.filters.iter().map(Value::str).collect()),
        ),
        ("points".into(), Value::num(h.points as f64)),
    ])
}

fn record_to_value(r: &RunRecord) -> Value {
    Value::Obj(vec![
        ("ordinal".into(), Value::num(r.ordinal as f64)),
        ("coords".into(), coords_to_value(&r.coords)),
        ("report".into(), report_to_value(&r.report)),
    ])
}

fn error_record_to_value(e: &ErrorRecord) -> Value {
    Value::Obj(vec![
        ("ordinal".into(), Value::num(e.ordinal as f64)),
        ("coords".into(), coords_to_value(&e.coords)),
        (
            "error".into(),
            Value::Obj(vec![
                ("kind".into(), Value::str(e.error.kind.as_str())),
                ("message".into(), Value::str(&e.error.message)),
            ]),
        ),
    ])
}

fn report_to_value(r: &Report) -> Value {
    let mut fields = vec![
        ("scheme".into(), Value::str(&r.scheme)),
        ("utilization".into(), Value::num(r.utilization)),
        ("delay_ms".into(), summary_to_value(&r.delay_ms)),
        ("qdelay_ms".into(), summary_to_value(&r.qdelay_ms)),
        (
            "flow_tputs_mbps".into(),
            Value::Arr(r.flow_tputs_mbps.iter().map(|&x| Value::num(x)).collect()),
        ),
        ("total_tput_mbps".into(), Value::num(r.total_tput_mbps)),
        ("jain".into(), Value::num(r.jain)),
        ("drops".into(), Value::num(r.drops as f64)),
        ("tput_series".into(), series_to_value(&r.tput_series)),
        ("qdelay_series".into(), series_to_value(&r.qdelay_series)),
        (
            "capacity_series".into(),
            series_to_value(&r.capacity_series),
        ),
    ];
    // Emitted only when present, so bulk-only stores (including the
    // pinned tiny baseline) keep their exact pre-workload bytes.
    if let Some(app) = &r.app {
        fields.push(("app".into(), app_to_value(app)));
    }
    // Same optional-trailing-field rule: unimpaired reports carry no
    // impairment counters and keep their exact pre-impairment bytes.
    if !r.impairments.is_empty() {
        fields.push((
            "impairments".into(),
            Value::Arr(
                r.impairments
                    .iter()
                    .map(|i| {
                        Value::Obj(vec![
                            ("label".into(), Value::str(&i.label)),
                            ("passed".into(), Value::num(i.passed as f64)),
                            ("impaired".into(), Value::num(i.impaired as f64)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    Value::Obj(fields)
}

fn app_to_value(a: &AppReport) -> Value {
    let mut fields: Vec<(String, Value)> = Vec::new();
    if let Some(w) = &a.web {
        fields.push((
            "web".into(),
            Value::Obj(vec![
                ("flows".into(), Value::num(w.flows as f64)),
                ("completed".into(), Value::num(w.completed as f64)),
                ("fct_ms".into(), summary_to_value(&w.fct_ms)),
            ]),
        ));
    }
    if let Some(r) = &a.rtc {
        fields.push((
            "rtc".into(),
            Value::Obj(vec![
                ("pkts".into(), Value::num(r.pkts as f64)),
                ("misses".into(), Value::num(r.misses as f64)),
                ("miss_rate".into(), Value::num(r.miss_rate)),
                ("owd_ms".into(), summary_to_value(&r.owd_ms)),
            ]),
        ));
    }
    if let Some(v) = &a.video {
        fields.push((
            "video".into(),
            Value::Obj(vec![
                (
                    "chunks_downloaded".into(),
                    Value::num(v.chunks_downloaded as f64),
                ),
                ("chunks_total".into(), Value::num(v.chunks_total as f64)),
                ("mean_bitrate_kbps".into(), Value::num(v.mean_bitrate_kbps)),
                ("play_s".into(), Value::num(v.play_s)),
                ("rebuffer_s".into(), Value::num(v.rebuffer_s)),
                ("rebuffer_ratio".into(), Value::num(v.rebuffer_ratio)),
                ("startup_delay_ms".into(), Value::num(v.startup_delay_ms)),
                ("switches".into(), Value::num(v.switches as f64)),
                ("qoe".into(), Value::num(v.qoe)),
            ]),
        ));
    }
    Value::Obj(fields)
}

fn summary_to_value(s: &Summary) -> Value {
    Value::Obj(vec![
        ("count".into(), Value::num(s.count as f64)),
        ("mean".into(), Value::num(s.mean)),
        ("std_dev".into(), Value::num(s.std_dev)),
        ("min".into(), Value::num(s.min)),
        ("max".into(), Value::num(s.max)),
        ("p50".into(), Value::num(s.p50)),
        ("p95".into(), Value::num(s.p95)),
        ("p99".into(), Value::num(s.p99)),
    ])
}

fn series_to_value(series: &[(f64, f64)]) -> Value {
    Value::Arr(
        series
            .iter()
            .map(|&(t, v)| Value::Arr(vec![Value::num(t), Value::num(v)]))
            .collect(),
    )
}

// ---- reading ----------------------------------------------------------

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

/// A row's coords, which may name only axes and labels `header` lists.
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

/// A JSON number, or `NaN` for anything else (`null` included).
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
        Ok(workload::WebMetrics {
            flows: w.uint("flows")?,
            completed: w.uint("completed")?,
            fct_ms: summary_from(w.obj("fct_ms")?)?,
        })
    };
    let rtc = |r: Fields| -> Result<_, Error> {
        Ok(workload::RtcMetrics {
            pkts: r.uint("pkts")?,
            misses: r.uint("misses")?,
            miss_rate: r.num("miss_rate")?,
            owd_ms: summary_from(r.obj("owd_ms")?)?,
        })
    };
    let video = |x: Fields| -> Result<_, Error> {
        Ok(workload::VideoMetrics {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Axis, Campaign};
    use experiments::engine::ScenarioSpec;
    use experiments::scenario::LinkSpec;
    use experiments::Scheme;
    use netsim::rate::Rate;

    fn sample_store() -> ResultsStore {
        let base = ScenarioSpec::single(Scheme::Abc, LinkSpec::Constant(Rate::from_mbps(12.0)))
            .duration_secs(1)
            .warmup_secs(0);
        let campaign = Campaign::new("sample", base)
            .axis(Axis::schemes(&[Scheme::Abc, Scheme::Cubic]))
            .axis(Axis::seeds(&[1]));
        let records = crate::runner::run_campaign(&campaign, &Default::default());
        ResultsStore::new(&campaign, records)
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let store = sample_store();
        let text = store.to_jsonl();
        let back = ResultsStore::from_jsonl(&text).unwrap();
        assert_eq!(back, store, "parse(write(store)) changed the store");
        // serializing the parsed store reproduces the bytes
        assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn header_is_self_describing() {
        let store = sample_store();
        assert_eq!(store.header.schema, SCHEMA);
        assert_eq!(store.header.campaign, "sample");
        assert_eq!(
            store.header.axes,
            vec![
                (
                    "scheme".to_string(),
                    vec!["ABC".to_string(), "Cubic".to_string()]
                ),
                ("seed".to_string(), vec!["1".to_string()]),
            ]
        );
        assert_eq!(store.header.points, 2);
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let text = sample_store()
            .to_jsonl()
            .replace(SCHEMA, "abc-campaign/v999");
        assert!(matches!(
            ResultsStore::from_jsonl(&text),
            Err(Error::Schema { .. })
        ));
    }

    #[test]
    fn truncated_store_is_rejected() {
        let full = sample_store().to_jsonl();
        let truncated: String = full.lines().take(2).map(|l| format!("{l}\n")).collect();
        assert!(matches!(
            ResultsStore::from_jsonl(&truncated),
            Err(Error::Format { .. })
        ));
    }

    #[test]
    fn error_records_round_trip_at_their_ordinal_position() {
        let mut store = sample_store();
        let victim = store.records.remove(1);
        store.errors.push(ErrorRecord {
            ordinal: victim.ordinal,
            coords: victim.coords,
            error: PointError {
                kind: ErrorKind::Watchdog,
                message: "exceeded wall-clock budget of 1s".into(),
            },
        });
        let text = store.to_jsonl();
        // The error line sits where the record's ordinal would: after the
        // header and the surviving ordinal-0 record.
        assert!(text.lines().nth(2).unwrap().contains("\"error\""));
        let back = ResultsStore::from_jsonl(&text).unwrap();
        assert_eq!(back, store, "error records changed across a round trip");
        assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn impairment_counters_round_trip() {
        let mut store = sample_store();
        store.records[0].report.impairments = vec![ImpairmentRecord {
            label: "0:drop:data".into(),
            passed: 10,
            impaired: 3,
        }];
        let text = store.to_jsonl();
        let back = ResultsStore::from_jsonl(&text).unwrap();
        assert_eq!(back, store);
        assert_eq!(back.to_jsonl(), text);
        // The unimpaired record keeps the pre-impairment line shape.
        assert!(!text.lines().nth(2).unwrap().contains("impairments"));
    }

    #[test]
    fn nan_metrics_survive_as_nan() {
        let mut store = sample_store();
        store.records[0].report.utilization = f64::NAN;
        store.records[0].report.jain = f64::NAN;
        let back = ResultsStore::from_jsonl(&store.to_jsonl()).unwrap();
        assert!(back.records[0].report.utilization.is_nan());
        assert!(back.records[0].report.jain.is_nan());
    }

    const BASELINE: &str = include_str!("../../../ci/campaign-tiny-baseline.jsonl");

    /// The committed baseline's lines, edited, as store text.
    fn edited_baseline(edit: impl FnOnce(&mut Vec<String>)) -> String {
        let mut lines: Vec<String> = BASELINE.lines().map(str::to_string).collect();
        edit(&mut lines);
        lines.iter().map(|l| format!("{l}\n")).collect()
    }

    fn format_line(r: Result<ResultsStore, Error>) -> usize {
        match r {
            Err(Error::Format { line, .. }) => line,
            other => panic!("expected a Format error, got {other:?}"),
        }
    }

    #[test]
    fn the_header_never_sizes_an_allocation() {
        let promising = |points: &str| {
            edited_baseline(|l| {
                l[0] = l[0].replace("\"points\":8", &format!("\"points\":{points}"))
            })
        };
        for points in ["1e300", "1e12"] {
            assert_eq!(format_line(ResultsStore::from_jsonl(&promising(points))), 1);
        }
        // a partial load of a store promising 1e12 points is just partial
        let partial = ResultsStore::from_jsonl_allow_partial(&promising("1e12")).unwrap();
        assert_eq!(partial.records.len(), 8);
    }

    #[test]
    fn ordinals_must_strictly_increase() {
        // ordinal 0 repeated where ordinal 1 belongs, and 1 before 0
        let duplicate = edited_baseline(|l| l[2] = l[1].clone());
        let swapped = edited_baseline(|l| l.swap(1, 2));
        for text in [&duplicate, &swapped] {
            assert_eq!(format_line(ResultsStore::from_jsonl(text)), 3);
            assert_eq!(format_line(ResultsStore::from_jsonl_allow_partial(text)), 3);
        }
        let err = ResultsStore::from_jsonl(&duplicate)
            .unwrap_err()
            .to_string();
        assert!(err.contains("ordinal 0 does not follow ordinal 0"), "{err}");
    }

    #[test]
    fn coords_must_name_header_axes_and_labels() {
        for (from, to) in [
            ("\"link\":", "\"path\":"),
            ("\"seed\":\"2\"", "\"seed\":\"3\""),
        ] {
            let text = edited_baseline(|l| l[4] = l[4].replacen(from, to, 1));
            assert_eq!(format_line(ResultsStore::from_jsonl(&text)), 5, "{to}");
        }
    }
}
