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

use crate::json::{self, Value};
use crate::runner::{ErrorKind, ErrorRecord, PointError, RunRecord};
use crate::spec::{Campaign, Coords};
use experiments::report::{AppReport, Report};
use netsim::metrics::ImpairmentRecord;
use netsim::stats::Summary;
use std::fmt;
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

/// Store I/O and format errors.
#[derive(Debug)]
pub enum StoreError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// A line is not valid JSON.
    Json {
        /// 1-based line number.
        line: usize,
        /// The underlying JSON error.
        error: json::JsonError,
    },
    /// A line parses but does not describe a header/record correctly.
    Format {
        /// 1-based line number.
        line: usize,
        /// What is malformed.
        message: String,
    },
    /// The file was written under a different schema id.
    Schema {
        /// The schema id the file claims.
        found: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "I/O error: {e}"),
            StoreError::Json { line, error } => write!(f, "line {line}: {error}"),
            StoreError::Format { line, message } => write!(f, "line {line}: {message}"),
            StoreError::Schema { found } => {
                write!(
                    f,
                    "unsupported schema {found:?} (this build reads {SCHEMA:?})"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
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

    /// [`ResultsStore::new`] for a run that produced errors as well as
    /// records: the header counts both (every point left *a* line).
    pub fn with_errors(
        campaign: &Campaign,
        records: Vec<RunRecord>,
        errors: Vec<ErrorRecord>,
    ) -> ResultsStore {
        ResultsStore {
            header: header_for(campaign, records.len() + errors.len()),
            records,
            errors,
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

    /// Parse a JSONL store, validating the schema id and that every
    /// promised point left a line (a clean record or an error record).
    pub fn from_jsonl(text: &str) -> Result<ResultsStore, StoreError> {
        let store = Self::parse(text, false)?;
        if store.records.len() + store.errors.len() != store.header.points {
            return Err(StoreError::Format {
                line: 1,
                message: format!(
                    "header promises {} records, file has {} (+ {} errors)",
                    store.header.points,
                    store.records.len(),
                    store.errors.len()
                ),
            });
        }
        Ok(store)
    }

    /// Parse a possibly-interrupted store: the executor streams records to
    /// disk one by one under a header that promises the *full* point
    /// count, so a killed run leaves fewer records than promised — and, if
    /// the kill landed mid-write, a torn final line, which is dropped.
    /// Every complete record still validates; `--resume` re-runs the rest.
    pub fn from_jsonl_allow_partial(text: &str) -> Result<ResultsStore, StoreError> {
        let mut store = Self::parse(text, true)?;
        if store.records.len() + store.errors.len() > store.header.points {
            return Err(StoreError::Format {
                line: 1,
                message: format!(
                    "header promises {} records, file has {} (+ {} errors)",
                    store.header.points,
                    store.records.len(),
                    store.errors.len()
                ),
            });
        }
        store.records.sort_by_key(|r| r.ordinal);
        store.errors.sort_by_key(|e| e.ordinal);
        Ok(store)
    }

    fn parse(text: &str, drop_torn_tail: bool) -> Result<ResultsStore, StoreError> {
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
            .peekable();
        let (i, first) = lines.next().ok_or(StoreError::Format {
            line: 1,
            message: "empty store (no header line)".into(),
        })?;
        let header = header_from_value(&parse_line(i, first)?, i + 1)?;
        if header.schema != SCHEMA {
            return Err(StoreError::Schema {
                found: header.schema,
            });
        }
        let mut records = Vec::with_capacity(header.points);
        let mut errors = Vec::new();
        while let Some((i, line)) = lines.next() {
            let last = lines.peek().is_none();
            // A line with an "error" key is a failed point; anything else
            // must be a clean record.
            let parsed = parse_line(i, line).and_then(|v| {
                if v.get("error").is_some() {
                    error_record_from_value(&v, i + 1).map(Err)
                } else {
                    record_from_value(&v, i + 1).map(Ok)
                }
            });
            match parsed {
                Ok(Ok(r)) => records.push(r),
                Ok(Err(e)) => errors.push(e),
                Err(_) if drop_torn_tail && last => break,
                Err(e) => return Err(e),
            }
        }
        Ok(ResultsStore {
            header,
            records,
            errors,
        })
    }

    /// Write the store to `path` (exactly [`ResultsStore::to_jsonl`]).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        std::fs::write(path, self.to_jsonl())?;
        Ok(())
    }

    /// Read and validate a complete store from `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<ResultsStore, StoreError> {
        let text = std::fs::read_to_string(path)?;
        ResultsStore::from_jsonl(&text)
    }

    /// [`ResultsStore::load`] for possibly-interrupted stores (see
    /// [`ResultsStore::from_jsonl_allow_partial`]).
    pub fn load_allow_partial(path: impl AsRef<Path>) -> Result<ResultsStore, StoreError> {
        let text = std::fs::read_to_string(path)?;
        ResultsStore::from_jsonl_allow_partial(&text)
    }
}

/// Stitch shard stores (see
/// [`run_campaign_streaming_sharded`](crate::runner::run_campaign_streaming_sharded))
/// back into one. Headers must describe the same sweep — same schema,
/// campaign name, axes, and filters; only `points` may differ — and no
/// ordinal may appear twice. Records come back sorted by ordinal, so
/// merging a complete shard set reproduces an unsharded run's store
/// byte for byte.
pub fn merge_stores(stores: &[ResultsStore]) -> Result<ResultsStore, StoreError> {
    let first = stores
        .first()
        .ok_or_else(|| fmt_err(1, "nothing to merge"))?;
    let mut records: Vec<RunRecord> = Vec::new();
    let mut errors: Vec<ErrorRecord> = Vec::new();
    for (i, s) in stores.iter().enumerate() {
        let h = &s.header;
        if h.schema != first.header.schema
            || h.campaign != first.header.campaign
            || h.axes != first.header.axes
            || h.filters != first.header.filters
        {
            return Err(fmt_err(
                1,
                format!(
                    "store {} describes a different sweep ({:?} vs {:?})",
                    i + 1,
                    h.campaign,
                    first.header.campaign
                ),
            ));
        }
        records.extend(s.records.iter().cloned());
        errors.extend(s.errors.iter().cloned());
    }
    records.sort_by_key(|r| r.ordinal);
    errors.sort_by_key(|e| e.ordinal);
    let mut ordinals: Vec<usize> = records
        .iter()
        .map(|r| r.ordinal)
        .chain(errors.iter().map(|e| e.ordinal))
        .collect();
    ordinals.sort_unstable();
    for w in ordinals.windows(2) {
        if w[0] == w[1] {
            return Err(fmt_err(
                1,
                format!("ordinal {} appears in more than one store", w[0]),
            ));
        }
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

fn parse_line(idx: usize, line: &str) -> Result<Value, StoreError> {
    json::parse(line).map_err(|error| StoreError::Json {
        line: idx + 1,
        error,
    })
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

fn coords_to_value(c: &Coords) -> Value {
    Value::Obj(
        c.0.iter()
            .map(|(a, l)| (a.clone(), Value::str(l)))
            .collect(),
    )
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

fn fmt_err(line: usize, message: impl Into<String>) -> StoreError {
    StoreError::Format {
        line,
        message: message.into(),
    }
}

/// A numeric field; `null` reads back as the `NaN` it stood for.
fn num_field(v: &Value, key: &str, line: usize) -> Result<f64, StoreError> {
    match v.get(key) {
        Some(Value::Num(x)) => Ok(*x),
        Some(Value::Null) => Ok(f64::NAN),
        _ => Err(fmt_err(line, format!("missing numeric field {key:?}"))),
    }
}

fn str_field(v: &Value, key: &str, line: usize) -> Result<String, StoreError> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| fmt_err(line, format!("missing string field {key:?}")))
}

fn header_from_value(v: &Value, line: usize) -> Result<StoreHeader, StoreError> {
    let axes = v
        .get("axes")
        .and_then(Value::as_arr)
        .ok_or_else(|| fmt_err(line, "missing \"axes\""))?
        .iter()
        .map(|a| {
            let name = str_field(a, "name", line)?;
            let labels = a
                .get("labels")
                .and_then(Value::as_arr)
                .ok_or_else(|| fmt_err(line, "axis without \"labels\""))?
                .iter()
                .map(|l| {
                    l.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| fmt_err(line, "non-string axis label"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok((name, labels))
        })
        .collect::<Result<Vec<_>, StoreError>>()?;
    let filters = v
        .get("filters")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|f| {
            f.as_str()
                .map(str::to_string)
                .ok_or_else(|| fmt_err(line, "non-string filter name"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(StoreHeader {
        schema: str_field(v, "schema", line)?,
        campaign: str_field(v, "campaign", line)?,
        axes,
        filters,
        points: num_field(v, "points", line)? as usize,
    })
}

fn coords_from_value(v: &Value, line: usize) -> Result<Coords, StoreError> {
    Ok(Coords(
        v.get("coords")
            .and_then(Value::as_obj)
            .ok_or_else(|| fmt_err(line, "missing \"coords\""))?
            .iter()
            .map(|(axis, label)| {
                label
                    .as_str()
                    .map(|l| (axis.clone(), l.to_string()))
                    .ok_or_else(|| fmt_err(line, "non-string coordinate label"))
            })
            .collect::<Result<Vec<_>, _>>()?,
    ))
}

fn record_from_value(v: &Value, line: usize) -> Result<RunRecord, StoreError> {
    let coords = coords_from_value(v, line)?;
    let report = v
        .get("report")
        .ok_or_else(|| fmt_err(line, "missing \"report\""))?;
    Ok(RunRecord {
        ordinal: num_field(v, "ordinal", line)? as usize,
        coords,
        report: report_from_value(report, line)?,
    })
}

fn error_record_from_value(v: &Value, line: usize) -> Result<ErrorRecord, StoreError> {
    let coords = coords_from_value(v, line)?;
    let e = v
        .get("error")
        .ok_or_else(|| fmt_err(line, "missing \"error\""))?;
    let kind_name = str_field(e, "kind", line)?;
    let kind = ErrorKind::from_name(&kind_name)
        .ok_or_else(|| fmt_err(line, format!("unknown error kind {kind_name:?}")))?;
    Ok(ErrorRecord {
        ordinal: num_field(v, "ordinal", line)? as usize,
        coords,
        error: PointError {
            kind,
            message: str_field(e, "message", line)?,
        },
    })
}

fn report_from_value(v: &Value, line: usize) -> Result<Report, StoreError> {
    let flow_tputs_mbps = v
        .get("flow_tputs_mbps")
        .and_then(Value::as_arr)
        .ok_or_else(|| fmt_err(line, "missing \"flow_tputs_mbps\""))?
        .iter()
        .map(|x| x.as_f64().unwrap_or(f64::NAN))
        .collect();
    Ok(Report {
        scheme: str_field(v, "scheme", line)?,
        utilization: num_field(v, "utilization", line)?,
        delay_ms: summary_from_value(v.get("delay_ms"), line)?,
        qdelay_ms: summary_from_value(v.get("qdelay_ms"), line)?,
        flow_tputs_mbps,
        total_tput_mbps: num_field(v, "total_tput_mbps", line)?,
        jain: num_field(v, "jain", line)?,
        drops: num_field(v, "drops", line)? as u64,
        tput_series: series_from_value(v.get("tput_series"), line)?,
        qdelay_series: series_from_value(v.get("qdelay_series"), line)?,
        capacity_series: series_from_value(v.get("capacity_series"), line)?,
        app: match v.get("app") {
            Some(a) => Some(app_from_value(a, line)?),
            None => None,
        },
        impairments: match v.get("impairments") {
            Some(i) => impairments_from_value(i, line)?,
            None => Vec::new(),
        },
    })
}

fn impairments_from_value(v: &Value, line: usize) -> Result<Vec<ImpairmentRecord>, StoreError> {
    v.as_arr()
        .ok_or_else(|| fmt_err(line, "\"impairments\" is not an array"))?
        .iter()
        .map(|i| {
            Ok(ImpairmentRecord {
                label: str_field(i, "label", line)?,
                passed: num_field(i, "passed", line)? as u64,
                impaired: num_field(i, "impaired", line)? as u64,
            })
        })
        .collect()
}

fn app_from_value(v: &Value, line: usize) -> Result<AppReport, StoreError> {
    let web = match v.get("web") {
        Some(w) => Some(workload::WebMetrics {
            flows: num_field(w, "flows", line)? as u64,
            completed: num_field(w, "completed", line)? as u64,
            fct_ms: summary_from_value(w.get("fct_ms"), line)?,
        }),
        None => None,
    };
    let rtc = match v.get("rtc") {
        Some(r) => Some(workload::RtcMetrics {
            pkts: num_field(r, "pkts", line)? as u64,
            misses: num_field(r, "misses", line)? as u64,
            miss_rate: num_field(r, "miss_rate", line)?,
            owd_ms: summary_from_value(r.get("owd_ms"), line)?,
        }),
        None => None,
    };
    let video = match v.get("video") {
        Some(x) => Some(workload::VideoMetrics {
            chunks_downloaded: num_field(x, "chunks_downloaded", line)? as u64,
            chunks_total: num_field(x, "chunks_total", line)? as u64,
            mean_bitrate_kbps: num_field(x, "mean_bitrate_kbps", line)?,
            play_s: num_field(x, "play_s", line)?,
            rebuffer_s: num_field(x, "rebuffer_s", line)?,
            rebuffer_ratio: num_field(x, "rebuffer_ratio", line)?,
            startup_delay_ms: num_field(x, "startup_delay_ms", line)?,
            switches: num_field(x, "switches", line)? as u64,
            qoe: num_field(x, "qoe", line)?,
        }),
        None => None,
    };
    Ok(AppReport { web, rtc, video })
}

fn summary_from_value(v: Option<&Value>, line: usize) -> Result<Summary, StoreError> {
    let v = v.ok_or_else(|| fmt_err(line, "missing summary object"))?;
    Ok(Summary {
        count: num_field(v, "count", line)? as usize,
        mean: num_field(v, "mean", line)?,
        std_dev: num_field(v, "std_dev", line)?,
        min: num_field(v, "min", line)?,
        max: num_field(v, "max", line)?,
        p50: num_field(v, "p50", line)?,
        p95: num_field(v, "p95", line)?,
        p99: num_field(v, "p99", line)?,
    })
}

fn series_from_value(v: Option<&Value>, line: usize) -> Result<Vec<(f64, f64)>, StoreError> {
    v.and_then(Value::as_arr)
        .ok_or_else(|| fmt_err(line, "missing series array"))?
        .iter()
        .map(|p| match p.as_arr() {
            Some([t, v]) => Ok((
                t.as_f64().unwrap_or(f64::NAN),
                v.as_f64().unwrap_or(f64::NAN),
            )),
            _ => Err(fmt_err(line, "series point is not a [t, v] pair")),
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
            Err(StoreError::Schema { .. })
        ));
    }

    #[test]
    fn truncated_store_is_rejected() {
        let full = sample_store().to_jsonl();
        let truncated: String = full.lines().take(2).map(|l| format!("{l}\n")).collect();
        assert!(matches!(
            ResultsStore::from_jsonl(&truncated),
            Err(StoreError::Format { .. })
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
}
