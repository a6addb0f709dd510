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
//! The store builds no [`json::Value`](crate::json::Value) in either
//! direction. Each struct a row holds is described once, as a table of
//! fields (a key with its get and set halves); the writer walks the table
//! appending straight into one `String` (a streaming run reuses one line
//! buffer), and the reader walks the same table while it pulls the row
//! off [`crate::json`]'s lexer, straight into a [`RunRecord`] or an
//! [`ErrorRecord`]. The reader keeps the tree reader's rules: keys in any
//! order, the first of duplicate keys wins, unknown keys are skipped, a
//! line that is not valid JSON is a JSON error even where a member before
//! the break was already wrong, and a member error names the same field
//! with the same text. Only the header line still reads as a tree.
//!
//! Stores read back through [`crate::jsonl`], and a store must agree
//! with itself: ordinals strictly increase down the file (record and
//! error lines alike, as every writer emits them), every coordinate
//! names an axis and label the header lists, and no more lines than the
//! header's `points` follow it.

use crate::json::{write_num, write_str, Cursor, JsonError, Kind};
use crate::jsonl::{self, uint_of, Error, Fields, Tail};
use crate::runner::{ErrorKind, ErrorRecord, PointError, RunRecord};
use crate::spec::{Campaign, Coords};
use experiments::report::{AppReport, Report};
use netsim::metrics::ImpairmentRecord;
use netsim::stats::Summary;
use std::path::Path;
use workload::{RtcMetrics, VideoMetrics, WebMetrics};

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
        let mut out = String::new();
        write_header(&self.header, &mut out);
        out.push('\n');
        let mut errs = self.errors.iter().peekable();
        for r in &self.records {
            while let Some(e) = errs.next_if(|e| e.ordinal < r.ordinal) {
                write_error_record(e, &mut out);
                out.push('\n');
            }
            write_record(r, &mut out);
            out.push('\n');
        }
        for e in errs {
            write_error_record(e, &mut out);
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
        let (first, mut rows) = jsonl::read(text, SCHEMA, tail)?;
        let header = header_from(first.fields())?;
        // Never sized from the header: its `points` is unchecked input.
        let (mut records, mut errors) = (Vec::new(), Vec::new());
        let mut last_ordinal = None;
        while let Some(row) = rows.next_with(decode_row) {
            let (line, row, walk) = row?;
            let format = |message| Error::Format { line, message };
            walk.check(&row, Row::ORDINAL).map_err(format)?;
            let ordinal = row.ordinal;
            if let Some(last) = last_ordinal.filter(|&last| ordinal <= last) {
                return Err(format(format!(
                    "ordinal {ordinal} does not follow ordinal {last} (ordinals must increase)"
                )));
            }
            last_ordinal = Some(ordinal);
            walk.check(&row, Row::COORDS).map_err(format)?;
            check_coords(&header, &row.coords).map_err(format)?;
            // A line with an "error" key is a failed point; anything else
            // must be a clean record.
            if walk.has(Row::ERROR) {
                walk.check(&row, Row::ERROR).map_err(format)?;
                errors.push(ErrorRecord {
                    ordinal,
                    coords: row.coords,
                    error: row.error.expect("a present, well-formed error member"),
                });
            } else {
                walk.check(&row, Row::REPORT).map_err(format)?;
                records.push(RunRecord {
                    ordinal,
                    coords: row.coords,
                    report: row.report,
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
    let mut out = String::new();
    write_header(h, &mut out);
    out
}

/// Render one record line exactly as [`ResultsStore::to_jsonl`] does.
pub fn render_record(r: &RunRecord) -> String {
    let mut out = String::new();
    write_record(r, &mut out);
    out
}

/// Render one structured error line exactly as [`ResultsStore::to_jsonl`]
/// does — for executors that stream a store to disk incrementally.
pub fn render_error_record(e: &ErrorRecord) -> String {
    let mut out = String::new();
    write_error_record(e, &mut out);
    out
}

/// Append a record line (no newline) to `out`.
pub(crate) fn write_record(r: &RunRecord, out: &mut String) {
    r.write(out);
}

/// Append an error line (no newline) to `out`.
pub(crate) fn write_error_record(e: &ErrorRecord, out: &mut String) {
    e.write(out);
}

/// Append `open`, the items separated by commas, then `close`.
fn write_seq<T>(
    out: &mut String,
    [open, close]: [char; 2],
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(T, &mut String),
) {
    out.push(open);
    for (i, t) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(t, out);
    }
    out.push(close);
}

const ARR: [char; 2] = ['[', ']'];
const OBJ: [char; 2] = ['{', '}'];

fn write_header(h: &StoreHeader, out: &mut String) {
    let strings = |items: &[String], out: &mut String| {
        write_seq(out, ARR, items, |s, out| write_str(s, out));
    };
    out.push_str("{\"schema\":");
    write_str(&h.schema, out);
    out.push_str(",\"campaign\":");
    write_str(&h.campaign, out);
    out.push_str(",\"axes\":");
    write_seq(out, ARR, &h.axes, |(name, labels), out| {
        out.push_str("{\"name\":");
        write_str(name, out);
        out.push_str(",\"labels\":");
        strings(labels, out);
        out.push('}');
    });
    out.push_str(",\"filters\":");
    strings(&h.filters, out);
    out.push_str(",\"points\":");
    write_num(h.points as f64, out);
    out.push('}');
}

// ---- the row codec ----------------------------------------------------
//
// Every member type is a `Member` (its JSON text both ways) and every
// struct a `Table` of `Field`s. A struct's first problem *in table
// order* is the one reported, so an error names the same field whatever
// order the members sit in.

/// Why a member did not read.
enum Fault {
    /// The line is not valid JSON.
    Json(JsonError),
    /// The value is not the JSON type the field holds.
    Type,
    /// The value is malformed in the way the message says.
    Field(String),
}

impl From<JsonError> for Fault {
    fn from(e: JsonError) -> Fault {
        Fault::Json(e)
    }
}

/// One member type of a store row.
trait Member {
    /// What the value must be, for "field … is missing or not {kind}".
    fn kind(&self) -> &'static str;
    /// Append the value's JSON text.
    fn write(&self, out: &mut String);
    /// Read the value the cursor is at into `self`. After a `Type` or
    /// `Field` fault the cursor may be anywhere inside the value: the
    /// caller rewinds and skips it.
    fn read(&mut self, c: &mut Cursor) -> Result<(), Fault>;
    /// Whether this is the absent value: it is written by leaving the
    /// member out, and a missing member reads as it. Members that are
    /// never absent are required.
    fn omitted(&self) -> bool {
        false
    }
}

/// `Fault::Type` unless the next value is a `kind`.
fn want(c: &mut Cursor, kind: Kind) -> Result<(), Fault> {
    if c.kind()? == kind {
        Ok(())
    } else {
        Err(Fault::Type)
    }
}

/// One struct field: its key, and the member behind it.
struct Field<T> {
    key: &'static str,
    get: fn(&T) -> &dyn Member,
    set: fn(&mut T) -> &mut dyn Member,
}

/// The table row for field `$f`, whose key is its name.
macro_rules! field {
    ($f:ident) => {
        Field {
            key: stringify!($f),
            get: |t| &t.$f,
            set: |t| &mut t.$f,
        }
    };
}

/// A struct the store writes as an object, its fields in table order.
trait Table: Sized + 'static {
    const FIELDS: &'static [Field<Self>];
    /// Whether a value of this type must be an object. A lenient one reads
    /// any other value as an object without members, as the tree reader
    /// read an optional member (`"app"`) or an array element.
    const STRICT: bool = true;
}

fn missing(key: &str, kind: &str) -> String {
    format!("field {key:?} is missing or not {kind}")
}

/// What walking one object found: the fields present, and the first
/// failed field in table order with its message.
struct Walk {
    seen: u64,
    failed: Option<(usize, String)>,
}

impl Walk {
    /// Whether field `i` is present (read or failed).
    fn has(&self, i: usize) -> bool {
        self.seen & 1 << i != 0
    }

    /// Field `i` of `t`: read, absent where absence is allowed, or the
    /// message that it failed or is missing.
    fn check<T: Table>(&self, t: &T, i: usize) -> Result<(), String> {
        match &self.failed {
            Some((j, message)) if *j == i => Err(message.clone()),
            _ => {
                let (key, member) = (T::FIELDS[i].key, (T::FIELDS[i].get)(t));
                if self.has(i) || member.omitted() {
                    Ok(())
                } else {
                    Err(missing(key, member.kind()))
                }
            }
        }
    }
}

/// Read the value the cursor is at into `t`'s fields; a value that is
/// not an object is skipped and reads as one without members. Only a
/// JSON error stops the walk: a failed member is skipped and noted.
fn walk<T: Table>(c: &mut Cursor, t: &mut T) -> Result<Walk, JsonError> {
    let fields = T::FIELDS;
    debug_assert!(fields.len() <= 64);
    let mut w = Walk {
        seen: 0,
        failed: None,
    };
    if c.kind()? != Kind::Obj {
        c.skip()?;
        return Ok(w);
    }
    // where the writer's order puts the next key
    let mut next = 0;
    c.members(|c, key| {
        let i = match fields.get(next) {
            Some(f) if f.key == key => next,
            _ => match fields.iter().position(|f| f.key == key) {
                Some(i) => i,
                None => return c.skip(),
            },
        };
        if w.has(i) {
            return c.skip();
        }
        w.seen |= 1 << i;
        next = i + 1;
        let mark = c.mark();
        let message = match (fields[i].set)(t).read(c) {
            Ok(()) => return Ok(()),
            Err(Fault::Json(e)) => return Err(e),
            Err(Fault::Type) => missing(fields[i].key, (fields[i].get)(t).kind()),
            Err(Fault::Field(message)) => message,
        };
        c.rewind(mark);
        c.skip()?;
        if w.failed.as_ref().is_none_or(|&(j, _)| i < j) {
            w.failed = Some((i, message));
        }
        Ok(())
    })?;
    Ok(w)
}

impl<T: Table> Member for T {
    fn kind(&self) -> &'static str {
        "an object"
    }

    fn write(&self, out: &mut String) {
        let members = T::FIELDS.iter().map(|f| (f.key, (f.get)(self)));
        let present = members.filter(|(_, m)| !m.omitted());
        write_seq(out, OBJ, present, |(key, m), out| {
            out.push('"');
            out.push_str(key);
            out.push_str("\":");
            m.write(out);
        });
    }

    fn read(&mut self, c: &mut Cursor) -> Result<(), Fault> {
        if T::STRICT {
            want(c, Kind::Obj)?;
        }
        let w = walk(c, self)?;
        for i in 0..T::FIELDS.len() {
            w.check(self, i).map_err(Fault::Field)?;
        }
        Ok(())
    }
}

/// An optional struct: absent when `None`.
impl<T: Table + Default> Member for Option<T> {
    fn kind(&self) -> &'static str {
        "an object"
    }

    fn write(&self, out: &mut String) {
        if let Some(t) = self {
            t.write(out);
        }
    }

    fn read(&mut self, c: &mut Cursor) -> Result<(), Fault> {
        let mut t = T::default();
        t.read(c)?;
        *self = Some(t);
        Ok(())
    }

    fn omitted(&self) -> bool {
        self.is_none()
    }
}

/// A list of structs: absent when empty.
impl<T: Table + Default> Member for Vec<T> {
    fn kind(&self) -> &'static str {
        "an array"
    }

    fn write(&self, out: &mut String) {
        write_seq(out, ARR, self, |t, out| t.write(out));
    }

    fn read(&mut self, c: &mut Cursor) -> Result<(), Fault> {
        want(c, Kind::Arr)?;
        c.items(|c| {
            let mut t = T::default();
            t.read(c)?;
            self.push(t);
            Ok(())
        })
    }

    fn omitted(&self) -> bool {
        self.is_empty()
    }
}

/// Append `x`, or `null` if it is not finite.
fn write_f64(x: f64, out: &mut String) {
    if x.is_finite() {
        write_num(x, out);
    } else {
        out.push_str("null");
    }
}

/// A number, or `NaN` for any other value (which is skipped).
fn num_or_nan(c: &mut Cursor) -> Result<f64, JsonError> {
    if c.kind()? == Kind::Num {
        c.number()
    } else {
        c.skip().map(|()| f64::NAN)
    }
}

/// A metric: `null` reads back as the `NaN` it was written for.
impl Member for f64 {
    fn kind(&self) -> &'static str {
        "a number"
    }

    fn write(&self, out: &mut String) {
        write_f64(*self, out);
    }

    fn read(&mut self, c: &mut Cursor) -> Result<(), Fault> {
        *self = match c.kind()? {
            Kind::Num => c.number()?,
            Kind::Null => c.null().map(|()| f64::NAN)?,
            _ => return Err(Fault::Type),
        };
        Ok(())
    }
}

/// Counts, ordinals and indices: a non-negative integer below 2^64 that
/// fits the field.
macro_rules! uint_member {
    ($($t:ty),*) => {$(
        impl Member for $t {
            fn kind(&self) -> &'static str {
                "a non-negative integer in range"
            }

            fn write(&self, out: &mut String) {
                write_num(*self as f64, out);
            }

            fn read(&mut self, c: &mut Cursor) -> Result<(), Fault> {
                want(c, Kind::Num)?;
                let n = uint_of(c.number()?).and_then(|n| n.try_into().ok());
                *self = n.ok_or(Fault::Type)?;
                Ok(())
            }
        }
    )*};
}

uint_member!(u64, usize);

impl Member for String {
    fn kind(&self) -> &'static str {
        "a string"
    }

    fn write(&self, out: &mut String) {
        write_str(self, out);
    }

    fn read(&mut self, c: &mut Cursor) -> Result<(), Fault> {
        want(c, Kind::Str)?;
        *self = c.string()?.into_owned();
        Ok(())
    }
}

/// Per-flow goodputs: any element that is not a number reads as `NaN`.
impl Member for Vec<f64> {
    fn kind(&self) -> &'static str {
        "an array"
    }

    fn write(&self, out: &mut String) {
        write_seq(out, ARR, self, |&x, out| write_f64(x, out));
    }

    fn read(&mut self, c: &mut Cursor) -> Result<(), Fault> {
        want(c, Kind::Arr)?;
        c.items(|c| {
            self.push(num_or_nan(c)?);
            Ok(())
        })
    }
}

/// A `(t, v)` series: `[[t,v],…]`, each point exactly two values, any of
/// which that is not a number reads as `NaN`.
impl Member for Vec<(f64, f64)> {
    fn kind(&self) -> &'static str {
        "an array"
    }

    fn write(&self, out: &mut String) {
        write_seq(out, ARR, self, |&(t, v), out| {
            write_seq(out, ARR, [t, v], write_f64);
        });
    }

    fn read(&mut self, c: &mut Cursor) -> Result<(), Fault> {
        want(c, Kind::Arr)?;
        let not_a_pair = || Fault::Field("series point is not a [t, v] pair".into());
        c.items(|c| {
            want(c, Kind::Arr).map_err(|_| not_a_pair())?;
            let (mut point, mut n) = ([f64::NAN; 2], 0);
            c.items(|c| {
                let x = num_or_nan(c)?;
                if let Some(slot) = point.get_mut(n) {
                    *slot = x;
                }
                n += 1;
                Ok::<_, JsonError>(())
            })?;
            if n != 2 {
                return Err(not_a_pair());
            }
            self.push((point[0], point[1]));
            Ok(())
        })
    }
}

/// `{"axis":"label",…}`, every axis kept (duplicates too) in file order.
impl Member for Coords {
    fn kind(&self) -> &'static str {
        "an object"
    }

    fn write(&self, out: &mut String) {
        write_seq(out, OBJ, &self.0, |(axis, label), out| {
            write_str(axis, out);
            out.push(':');
            write_str(label, out);
        });
    }

    fn read(&mut self, c: &mut Cursor) -> Result<(), Fault> {
        want(c, Kind::Obj)?;
        c.members(|c, axis| {
            let label = || Fault::Field("non-string coordinate label".into());
            want(c, Kind::Str).map_err(|_| label())?;
            let label = c.string()?.into_owned();
            self.0.push((axis.into_owned(), label));
            Ok(())
        })
    }
}

impl Member for ErrorKind {
    fn kind(&self) -> &'static str {
        "a string"
    }

    fn write(&self, out: &mut String) {
        write_str(self.as_str(), out);
    }

    fn read(&mut self, c: &mut Cursor) -> Result<(), Fault> {
        want(c, Kind::Str)?;
        let name = c.string()?;
        *self = ErrorKind::from_name(&name)
            .ok_or_else(|| Fault::Field(format!("unknown error kind {name:?}")))?;
        Ok(())
    }
}

impl Table for RunRecord {
    const FIELDS: &'static [Field<Self>] = &[field!(ordinal), field!(coords), field!(report)];
}

impl Table for ErrorRecord {
    const FIELDS: &'static [Field<Self>] = &[field!(ordinal), field!(coords), field!(error)];
}

impl Table for PointError {
    const FIELDS: &'static [Field<Self>] = &[field!(kind), field!(message)];
}

impl Table for Report {
    const FIELDS: &'static [Field<Self>] = &[
        field!(scheme),
        field!(utilization),
        field!(delay_ms),
        field!(qdelay_ms),
        field!(flow_tputs_mbps),
        field!(total_tput_mbps),
        field!(jain),
        field!(drops),
        field!(tput_series),
        field!(qdelay_series),
        field!(capacity_series),
        // optional trailing members, written only when present, so
        // bulk-only and unimpaired stores (the pinned tiny baseline among
        // them) keep their bytes
        field!(app),
        field!(impairments),
    ];
}

impl Table for Summary {
    const FIELDS: &'static [Field<Self>] = &[
        field!(count),
        field!(mean),
        field!(std_dev),
        field!(min),
        field!(max),
        field!(p50),
        field!(p95),
        field!(p99),
    ];
}

impl Table for AppReport {
    const FIELDS: &'static [Field<Self>] = &[field!(web), field!(rtc), field!(video)];
    const STRICT: bool = false;
}

impl Table for WebMetrics {
    const FIELDS: &'static [Field<Self>] = &[field!(flows), field!(completed), field!(fct_ms)];
    const STRICT: bool = false;
}

impl Table for RtcMetrics {
    const FIELDS: &'static [Field<Self>] = &[
        field!(pkts),
        field!(misses),
        field!(miss_rate),
        field!(owd_ms),
    ];
    const STRICT: bool = false;
}

impl Table for VideoMetrics {
    const FIELDS: &'static [Field<Self>] = &[
        field!(chunks_downloaded),
        field!(chunks_total),
        field!(mean_bitrate_kbps),
        field!(play_s),
        field!(rebuffer_s),
        field!(rebuffer_ratio),
        field!(startup_delay_ms),
        field!(switches),
        field!(qoe),
    ];
    const STRICT: bool = false;
}

impl Table for ImpairmentRecord {
    const FIELDS: &'static [Field<Self>] = &[field!(label), field!(passed), field!(impaired)];
    const STRICT: bool = false;
}

/// A row as the reader walks it: a record line's members and an error
/// line's together, in the order their problems are reported. A row
/// holding an `"error"` member is an error line, whatever else it holds.
#[derive(Default)]
struct Row {
    ordinal: usize,
    coords: Coords,
    error: Option<PointError>,
    report: Report,
}

impl Row {
    const ORDINAL: usize = 0;
    const COORDS: usize = 1;
    const ERROR: usize = 2;
    const REPORT: usize = 3;
}

impl Table for Row {
    const FIELDS: &'static [Field<Self>] = &[
        field!(ordinal),
        field!(coords),
        field!(error),
        field!(report),
    ];
}

/// Decode line `line`'s text: the row and what its walk found, or the
/// line's JSON error — which wins over any member problem, because the
/// walk reads to the end of the line before anything is judged.
fn decode_row(line: usize, text: &str) -> Result<(usize, Row, Walk), Error> {
    let mut c = Cursor::new(text);
    let mut row = Row::default();
    let walked = walk(&mut c, &mut row).and_then(|w| c.finish().map(|()| w));
    walked
        .map(|w| (line, row, w))
        .map_err(|error| Error::Json { line, error })
}

// ---- reading the header -------------------------------------------------

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

/// A row's coords may name only axes and labels `header` lists.
fn check_coords(header: &StoreHeader, coords: &Coords) -> Result<(), String> {
    for (axis, label) in &coords.0 {
        let known = |(a, labels): &(String, Vec<String>)| a == axis && labels.contains(label);
        if !header.axes.iter().any(known) {
            return Err(format!("coords {axis}={label} are not in the header"));
        }
    }
    Ok(())
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
    fn counts_of_two_to_the_64_are_rejected_with_their_line() {
        // 2^64 and its shortest spelling parse to a double `as u64` would
        // saturate to u64::MAX; neither is a count
        for literal in ["18446744073709551616", "18446744073709552000"] {
            let text = edited_baseline(|l| {
                l[3] = l[3].replacen("\"drops\":0", &format!("\"drops\":{literal}"), 1)
            });
            assert!(text.contains(literal));
            let err = ResultsStore::from_jsonl(&text).unwrap_err();
            assert!(matches!(err, Error::Format { line: 4, .. }), "{err}");
            assert!(err.to_string().contains("\"drops\""), "{err}");
        }
    }

    #[test]
    fn overflowing_metrics_are_rejected_with_their_line() {
        for literal in ["1e999", "-1e999"] {
            let text = edited_baseline(|l| {
                l[3] = l[3].replacen(
                    "\"utilization\":0.8573333333333333",
                    &format!("\"utilization\":{literal}"),
                    1,
                )
            });
            assert!(text.contains(literal));
            let err = ResultsStore::from_jsonl(&text).unwrap_err();
            assert!(matches!(err, Error::Json { line: 4, .. }), "{err}");
            assert!(
                err.to_string()
                    .contains(&format!("invalid number {literal:?}")),
                "{err}"
            );
        }
    }

    #[test]
    fn skipped_members_are_depth_bounded_too() {
        // an unknown member nested far past MAX_DEPTH is skipped by the
        // same bounded walk that parses, so it is a JSON error on its
        // line, not a stack overflow
        let deep = format!("\"zz\":{},", "[".repeat(200_000));
        let text = edited_baseline(|l| {
            l[2] = l[2].replacen("\"coords\"", &format!("{deep}\"coords\""), 1)
        });
        let err = ResultsStore::from_jsonl(&text).unwrap_err();
        assert!(matches!(err, Error::Json { line: 3, .. }), "{err}");
        assert!(err.to_string().contains("nested deeper than"), "{err}");
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
