//! The campaign-file schema: compiling a parsed TOML document into a
//! [`Campaign`].
//!
//! The format is documented in `docs/campaign-file.md`, whose `[base]`
//! and impairment key tables are rendered from [`SETTINGS`] and
//! [`IMPAIRMENT_KINDS`] (a test compares them).
//!
//! Every literal is one descriptor table: a table literal has a row per
//! key (the key, whether it is required, a setter), a one-of literal a
//! row per form (the key, a builder). Two walkers read them — `fields`
//! (unknown keys, missing required keys, per-key set) and `one_form`
//! (exactly one form, then build) — and every key list and "expected one
//! of" catalog in an error is rendered from a table. Rules relating
//! several keys stay as code beside their tables. Every error carries
//! the line/column of the offending key or value, and unknown keys are
//! rejected: a typo must not silently produce a different sweep.

use super::toml::{self, Pos, Spanned, Table, TomlError, Value};
use crate::spec::{Axis, AxisValue, Campaign, Coords, Filter};
use experiments::engine::{
    AbcRouterConfig, FlowSchedule, HopQdisc, InjectedFault, ParkingHop, QdiscSpec, ScenarioSpec,
    Topology, WorkloadEntry,
};
use experiments::figures::Scale;
use experiments::scenario::LinkSpec;
use experiments::wifi::McsSpec;
use experiments::Scheme;
use netsim::fault::{Direction, ImpairmentKind, ImpairmentSpec};
use netsim::packet::MTU_BYTES;
use netsim::rate::Rate;
use netsim::telemetry::{Signal, TelemetryConfig};
use netsim::time::{SimDuration, SimTime};
use workload::{AbrWorkload, ArrivalProcess, RtcWorkload, SizeDist, WebWorkload, WorkloadSpec};

/// Compile campaign-file text into a [`Campaign`] at the given
/// [`Scale`] (which selects the matching `[scale.*]` override table).
pub fn from_str(text: &str, scale: Scale) -> std::result::Result<Campaign, TomlError> {
    let root = toml::parse(text)?;
    let base = ScenarioSpec::single(Scheme::Abc, LinkSpec::Constant(Rate::ZERO));
    let mut top = (scale, Campaign::new(String::new(), base));
    let (context, missing) = (Some("the top level"), |_: &str| {
        "missing [campaign] table".into()
    });
    fields(&root, root.pos, context, TOP, &mut top, missing)?;
    Ok(top.1)
}

type Result<T, E = TomlError> = std::result::Result<T, E>;

fn err(pos: Pos, message: impl Into<String>) -> TomlError {
    TomlError::new(pos, message)
}

// ---- descriptor rows and the two walkers ----

/// Compiles a key's value (named `what` in errors) into the literal
/// under construction.
type Set<T> = fn(&mut T, &Spanned, &str) -> Result<()>;

/// A key of a table literal.
struct Field<T> {
    key: &'static str,
    required: bool,
    set: Set<T>,
}

const fn req<T>(key: &'static str, set: Set<T>) -> Field<T> {
    let required = true;
    Field { key, required, set }
}

const fn opt<T>(key: &'static str, set: Set<T>) -> Field<T> {
    let required = false;
    Field { key, required, set }
}

/// A form of a one-of literal (a scenario setting is one too: an
/// `[[axis.values]]` entry holds exactly one).
pub struct Form<T> {
    /// The key as written in the file.
    pub key: &'static str,
    /// The value's type, as the docs state it (settings only).
    pub ty: &'static str,
    /// What the form means (settings only).
    pub doc: &'static str,
    build: fn(&Spanned, &str) -> Result<T>,
}

const fn form<T>(key: &'static str, build: fn(&Spanned, &str) -> Result<T>) -> Form<T> {
    let (ty, doc) = ("", "");
    Form {
        key,
        ty,
        doc,
        build,
    }
}

fn keys<T>(rows: &[Field<T>]) -> impl Iterator<Item = &'static str> + Clone + '_ {
    rows.iter().map(|f| f.key)
}

fn form_keys<T>(forms: &[Form<T>]) -> impl Iterator<Item = &'static str> + Clone + '_ {
    forms.iter().map(|f| f.key)
}

fn join<'k>(items: impl Iterator<Item = &'k str>) -> String {
    items.collect::<Vec<_>>().join(", ")
}

/// `a or b`, `a, b, or c`.
fn or_list(items: &[String]) -> String {
    match items {
        [init @ .., last] if init.len() > 1 => format!("{}, or {last}", init.join(", ")),
        _ => items.join(" or "),
    }
}

/// `message()` at `s` unless `ok`.
fn ensure(ok: bool, s: &Spanned, message: impl FnOnce() -> String) -> Result<()> {
    match ok {
        true => Ok(()),
        false => Err(err(s.pos, message())),
    }
}

/// Reject entries whose key is not in `known`.
fn check_keys<'k>(
    t: &Table,
    ctx: &str,
    known: impl Iterator<Item = &'k str> + Clone,
) -> Result<()> {
    for (k, v) in &t.entries {
        let msg = || {
            format!(
                "unknown key `{k}` in {ctx} (expected one of: {})",
                join(known.clone())
            )
        };
        ensure(known.clone().any(|a| a == k), v, msg)?;
    }
    Ok(())
}

/// The *fields* walker: reject keys `rows` does not name (in `context`;
/// `None` when the table's keys span several tables and the caller
/// checks them), then set each row's key in row order. A missing
/// required key is `missing(key)` at `at`.
fn fields<T>(
    t: &Table,
    at: Pos,
    context: Option<&str>,
    rows: &[Field<T>],
    out: &mut T,
    missing: impl Fn(&str) -> String,
) -> Result<()> {
    if let Some(context) = context {
        check_keys(t, context, keys(rows))?;
    }
    for f in rows {
        match t.get(f.key) {
            Some(v) => (f.set)(out, v, &format!("`{}`", f.key))?,
            None if f.required => return Err(err(at, missing(f.key))),
            None => {}
        }
    }
    Ok(())
}

/// A table literal named `what`, compiled into `out`.
fn record<T>(v: &Spanned, what: &str, rows: &[Field<T>], mut out: T) -> Result<T> {
    let missing = |k: &str| format!("{what} needs `{k}`");
    fields(table(v, what)?, v.pos, Some(what), rows, &mut out, missing)?;
    Ok(out)
}

/// The *one-of* walker: build the single form of `forms` that `t` holds
/// (returned with its value); `none()` is the error for zero or several.
fn one_form<'t, T>(
    t: &'t Table,
    forms: &[Form<T>],
    none: impl FnOnce() -> TomlError,
) -> Result<(T, &'t Spanned)> {
    let find = |(k, v): &'t (String, Spanned)| Some((forms.iter().find(|f| f.key == k)?, v));
    let mut present = t.entries.iter().filter_map(find);
    match (present.next(), present.next()) {
        (Some((form, v)), None) => Ok(((form.build)(v, &format!("`{}`", form.key))?, v)),
        _ => Err(none()),
    }
}

/// A one-of literal named `what`: a table holding exactly one of `forms`.
fn one_of<T>(v: &Spanned, what: &str, forms: &[Form<T>]) -> Result<T> {
    let t = table(v, what)?;
    check_keys(t, what, form_keys(forms))?;
    let list = join(form_keys(forms));
    let none = || err(v.pos, format!("{what} needs exactly one of: {list}"));
    Ok(one_form(t, forms, none)?.0)
}

/// A string naming one of `choices` (a `noun` in errors, which list the
/// choices and then the `other` form the literal also accepts).
fn choice<T: Clone>(
    v: &Spanned,
    what: &str,
    noun: &str,
    choices: &[(&str, T)],
    other: Option<String>,
) -> Result<T> {
    let s = string(v, what)?;
    if let Some((_, x)) = choices.iter().find(|(name, _)| *name == s) {
        return Ok(x.clone());
    }
    let mut names: Vec<String> = choices.iter().map(|(n, _)| format!("{n:?}")).collect();
    names.extend(other);
    let msg = format!("unknown {noun} {s:?} (expected {})", or_list(&names));
    Err(err(v.pos, msg))
}

// ---- scalar readers; `what` names the value in errors ----

fn expect<'a, T>(
    s: &'a Spanned,
    what: &str,
    ty: &str,
    get: fn(&'a Value) -> Option<T>,
) -> Result<T> {
    let msg = || format!("{what} must be {ty}, found {}", s.value.kind());
    get(&s.value).ok_or_else(|| err(s.pos, msg()))
}

fn table<'a>(s: &'a Spanned, what: &str) -> Result<&'a Table> {
    expect(s, what, "a table", Value::as_table)
}

fn string<'a>(s: &'a Spanned, what: &str) -> Result<&'a str> {
    expect(s, what, "a string", Value::as_str)
}

fn array<'a>(s: &'a Spanned, what: &str) -> Result<&'a [Spanned]> {
    expect(s, what, "an array", Value::as_array)
}

fn number(s: &Spanned, what: &str) -> Result<f64> {
    expect(s, what, "a number", Value::as_f64)
}

/// A non-negative integer (durations, seeds, counts).
fn uint(s: &Spanned, what: &str) -> Result<u64> {
    let i = expect(s, what, "an integer", Value::as_int)?;
    u64::try_from(i).map_err(|_| err(s.pos, format!("{what} must be non-negative, found {i}")))
}

/// A [`uint`] that must also fit `u32` (counts, rates, sizes the
/// workload structs carry as `u32`).
fn uint32(s: &Spanned, what: &str) -> Result<u32> {
    let v = uint(s, what)?;
    u32::try_from(v).map_err(|_| err(s.pos, format!("{what} is too large ({v})")))
}

/// A [`uint`] that must be at least 1 (intervals, chunk lengths,
/// buffers — zero would trip asserts downstream).
fn positive(s: &Spanned, what: &str) -> Result<u64> {
    let v = uint(s, what)?;
    ensure(v > 0, s, || format!("{what} must be at least 1")).map(|_| v)
}

fn ms(s: &Spanned, what: &str) -> Result<SimDuration> {
    uint(s, what).map(SimDuration::from_millis)
}

fn ms_pos(s: &Spanned, what: &str) -> Result<SimDuration> {
    positive(s, what).map(SimDuration::from_millis)
}

fn secs(s: &Spanned, what: &str) -> Result<SimDuration> {
    uint(s, what).map(SimDuration::from_secs)
}

/// A probability: finite and in `0..=1` (a negative drop rate or a
/// `loss_bad = 1.5` must not flow into an impairment wire).
fn prob(s: &Spanned, what: &str) -> Result<f64> {
    let p = number(s, what)?;
    let msg = || format!("{what} must be a probability in 0..=1, found {p}");
    ensure(p.is_finite() && (0.0..=1.0).contains(&p), s, msg).map(|_| p)
}

/// A finite number that is not negative; `noun` describes it in errors.
fn non_negative(s: &Spanned, what: &str, noun: &str) -> Result<f64> {
    let x = number(s, what)?;
    let msg = || format!("{what} must be a non-negative {noun}, found {x}");
    ensure(x.is_finite() && x >= 0.0, s, msg).map(|_| x)
}

/// A rate in Mbit/s (a negative or NaN rate would flow into the
/// simulator as nonsense).
fn mbps(s: &Spanned, what: &str) -> Result<Rate> {
    non_negative(s, what, "rate in Mbit/s").map(Rate::from_mbps)
}

/// A scheme by its display name (`ABC`, `Cubic+Codel`, `ABC_50`, …),
/// case-insensitively.
fn scheme(v: &Spanned, what: &str) -> Result<Scheme> {
    let s = string(v, what)?;
    let msg = || format!("unknown scheme {s:?} (try ABC, Cubic, Cubic+Codel, BBR, …)");
    Scheme::from_name(s).ok_or_else(|| err(v.pos, msg()))
}

fn trace(v: &Spanned, what: &str) -> Result<cellular::CellTrace> {
    let name = string(v, what)?;
    let msg = || format!("unknown built-in trace {name:?} (try Verizon1)");
    cellular::builtin(name).ok_or_else(|| err(v.pos, msg()))
}

fn mcs_index(s: &Spanned, what: &str) -> Result<u8> {
    let i = s.value.as_int().filter(|i| (0..=7).contains(i));
    i.map(|i| i as u8)
        .ok_or_else(|| err(s.pos, format!("{what} must be an MCS index in 0..=7")))
}

// ---- the top level ----

/// The `[scale.*]` override tables.
const SCALES: [(&str, Scale); 3] = [
    ("full", Scale::Full),
    ("fast", Scale::Fast),
    ("tiny", Scale::Tiny),
];

#[rustfmt::skip]
static TOP: &[Field<(Scale, Campaign)>] = &[
    req("campaign", |(_, c), v, _| {
        static CAMPAIGN: &[Field<String>] =
            &[req("name", |n, v, _| string(v, "campaign name").map(|s| *n = s.into()))];
        let missing = |k: &str| format!("[campaign] needs a `{k}`");
        fields(table(v, "[campaign]")?, v.pos, Some("[campaign]"), CAMPAIGN, &mut c.name, missing)
    }),
    opt("base", |(_, c), v, _| apply_settings(&mut c.base, v, "[base]")),
    opt("axis", |(_, c), v, _| {
        for a in array(v, "[[axis]]")? {
            let axis = compile_axis(a)?;
            let unique = c.axes.iter().all(|x| x.name != axis.name);
            ensure(unique, a, || format!("duplicate axis `{}`", axis.name))?;
            c.axes.push(axis);
        }
        Ok(())
    }),
    opt("filter", |(_, c), v, _| {
        let axes: Vec<String> = c.axes.iter().map(|a| a.name.clone()).collect();
        c.filters = each(v, "[[filter]]", |f| compile_filter(f, axes.clone()))?;
        Ok(())
    }),
    opt("scale", |(scale, c), v, _| {
        let t = table(v, "[scale]")?;
        check_keys(t, "[scale]", SCALES.iter().map(|s| s.0))?;
        let (key, _) = SCALES.iter().find(|s| s.1 == *scale).expect("every scale has a key");
        let over = |over| apply_settings(&mut c.base, over, &format!("[scale.{key}]"));
        t.get(key).map_or(Ok(()), over)
    }),
    // a sidecar config attached to every expanded point
    opt("telemetry", |(_, c), v, _| {
        let cfg = record(v, "[telemetry]", TELEMETRY, TelemetryConfig::default())?;
        c.telemetry = Some(cfg);
        Ok(())
    }),
];

#[rustfmt::skip]
static TELEMETRY: &[Field<TelemetryConfig>] = &[
    opt("signals", |cfg, v, _| {
        let name = |x: &Spanned| Ok((string(x, "a telemetry signal")?.to_string(), x.pos));
        let names = each(v, "telemetry signals", name)?;
        let catalog = join(Signal::ALL.iter().map(|s| s.name()));
        let msg = |n: &str| format!("unknown telemetry signal `{n}` (expected one of: {catalog})");
        let signal =
            |(n, pos): (String, Pos)| Signal::from_name(&n).ok_or_else(|| err(pos, msg(&n)));
        cfg.signals = names.into_iter().map(signal).collect::<Result<_>>()?;
        Ok(())
    }),
    opt("sample_every_ms", |cfg, v, _| {
        ms_pos(v, "telemetry sample_every_ms").map(|d| cfg.sample_every = d)
    }),
];

// ---- scenario settings: [base], [scale.*] and [[axis.values]] ----

/// Every scenario setting, in the order errors list them; each builds
/// the [`AxisValue`] it writes.
#[rustfmt::skip]
pub static SETTINGS: &[Form<AxisValue>] = &[
    Form { key: "scheme", ty: "string", build: |v, w| scheme(v, w).map(AxisValue::Scheme),
        doc: "scheme display name: `ABC`, `Cubic`, `Cubic+Codel`, `Cubic+PIE`, `NewReno`, `Vegas`, `BBR`, `Copa`, `PCC`, `Sprout`, `Verus`, `XCP`, `XCPw`, `RCP`, `VCP`, `ABC-noAI`, `ABC-enq`, `ABC-Cubic`, or `ABC_<ms>` (non-default delay threshold). Case-insensitive; `-`/`_`/`+` are interchangeable, and `abcsim`'s aliases (`codel`, `reno`, `abc-dt50`, …) work too — both CLIs resolve names through `Scheme::from_name`" },
    Form { key: "link", ty: "link literal", build: |v, _| link(v).map(AxisValue::Link),
        doc: "shorthand for a single-bottleneck topology over this link" },
    Form { key: "topology", ty: "topology literal",
        build: |v, _| one_of(v, "a topology literal", TOPOLOGY).map(AxisValue::Topology),
        doc: "multi-hop paths (see below)" },
    Form { key: "qdisc", ty: "string or qdisc literal",
        build: |v, _| {
            let names =
                [("scheme-default", QdiscSpec::SchemeDefault), ("droptail", QdiscSpec::DropTail)];
            qdisc(v, "qdisc", "a qdisc literal", &names, QdiscSpec::AbcWith).map(AxisValue::Qdisc)
        },
        doc: "`\"scheme-default\"` (the scheme's own qdisc), `\"droptail\"`, or an `{ abc = { … } }` router-config table (see below)" },
    Form { key: "rtt_ms", ty: "integer", build: |v, w| uint(v, w).map(AxisValue::RttMs),
        doc: "path round-trip propagation delay" },
    Form { key: "buffer_pkts", ty: "integer ≥ 1",
        build: |v, w| positive(v, w).map(|n| AxisValue::BufferPkts(n as usize)),
        doc: "bottleneck buffer" },
    Form { key: "duration_s", ty: "integer", build: |v, w| uint(v, w).map(AxisValue::DurationSecs),
        doc: "simulated seconds" },
    Form { key: "warmup_s", ty: "integer", build: |v, w| uint(v, w).map(AxisValue::WarmupSecs),
        doc: "measurements before this offset are discarded" },
    Form { key: "seed", ty: "integer ≥ 0", build: |v, w| uint(v, w).map(AxisValue::Seed),
        doc: "fixes every stochastic choice" },
    Form { key: "flows", ty: "integer or flow table",
        build: |v, w| flows(v, w).map(AxisValue::Flows),
        doc: "`n` backlogged flows of the spec's scheme; `0` means no bulk flows (workloads-only scenarios). The table form `{ count = 8, stagger_ms = 500, stagger_departures = true }` staggers flow starts (and, optionally, stops) by `stagger_ms`" },
    Form { key: "workloads", ty: "array of workload entries",
        build: |v, w| each(v, w, workload).map(AxisValue::Workloads),
        doc: "application-layer traffic (see below)" },
    Form { key: "impairments", ty: "array of impairment literals",
        build: |v, w| each(v, w, impairment).map(AxisValue::Impairments),
        doc: "adversarial middleboxes spliced into the path (see below); an empty array is the unimpaired scenario, byte for byte" },
    Form { key: "inject_fault", ty: "string",
        build: |v, w| {
            let faults = [Some(InjectedFault::Panic), Some(InjectedFault::Stall), None];
            let names = faults.map(|f| (f.map_or("none", InjectedFault::name), f));
            choice(v, w, "fault", &names, None).map(AxisValue::Fault)
        },
        doc: "`\"panic\"`, `\"stall\"`, or `\"none\"` — a deliberate fault for exercising the runner's panic isolation and watchdog (testing only)" },
];

/// Compile one scenario setting to the [`AxisValue`] it writes.
fn setting(key: &str, v: &Spanned) -> Result<AxisValue> {
    let Some(s) = SETTINGS.iter().find(|s| s.key == key) else {
        let all = join(form_keys(SETTINGS));
        return Err(err(
            v.pos,
            format!("unknown setting `{key}` (expected one of: {all})"),
        ));
    };
    (s.build)(v, &format!("`{key}`"))
}

/// Apply a settings table (`[base]` or `[scale.*]`) to `spec`, in file
/// order.
fn apply_settings(spec: &mut ScenarioSpec, v: &Spanned, context: &str) -> Result<()> {
    let t = table(v, context)?;
    check_keys(t, context, form_keys(SETTINGS))?;
    for (key, v) in &t.entries {
        setting(key, v)?.apply(spec);
    }
    Ok(())
}

#[rustfmt::skip]
static FLOWS: &[Field<(u32, SimDuration, bool)>] = &[
    req("count", |s, v, w| {
        s.0 = uint32(v, w)?;
        ensure(s.0 > 0, v, || format!("{w} must be at least 1 (use `flows = 0` for no flows)"))
    }),
    opt("stagger_ms",         |s, v, w| ms(v, w).map(|d| s.1 = d)),
    opt("stagger_departures", |s, v, w| expect(v, w, "a boolean", Value::as_bool).map(|b| s.2 = b)),
];

/// A flow schedule: an integer (`0` is no campaign-managed flows, `n`
/// is `n` backlogged flows all starting at 0) or a table
/// `{ count = n, stagger_ms = 500, stagger_departures = true }` — flow
/// `i` starts at `i × stagger_ms`, and with `stagger_departures` they
/// also stop one by one (Fig. 3's joins and leaves).
fn flows(v: &Spanned, what: &str) -> Result<FlowSchedule> {
    if v.value.as_int().is_some() {
        return Ok(match uint32(v, what)? {
            0 => FlowSchedule::Explicit(Vec::new()),
            n => FlowSchedule::backlogged(n),
        });
    }
    let Some(t) = v.value.as_table() else {
        let found = v.value.kind();
        let msg = format!("{what} must be an integer count or a table like {{ count = 8, stagger_ms = 500 }}, found {found}");
        return Err(err(v.pos, msg));
    };
    let mut s = (0, SimDuration::ZERO, false);
    fields(t, v.pos, Some(what), FLOWS, &mut s, |k| {
        format!("{what} table needs a `{k}`")
    })?;
    let (n, stagger, stagger_departures) = s;
    let msg = || "`stagger_departures` needs a non-zero `stagger_ms`".to_string();
    ensure(!stagger_departures || !stagger.is_zero(), v, msg)?;
    let app = netsim::flow::TrafficSource::Backlogged;
    Ok(FlowSchedule::Uniform {
        n,
        app,
        stagger,
        stagger_departures,
    })
}

// ---- links, topologies and qdiscs ----

/// The placeholder a required link key overwrites.
const NO_LINK: LinkSpec = LinkSpec::Constant(Rate::ZERO);

fn link(v: &Spanned) -> Result<LinkSpec> {
    one_of(v, "a link literal", LINK)
}

#[rustfmt::skip]
static LINK: &[Form<LinkSpec>] = &[
    form("constant_mbps", |v, w| mbps(v, w).map(LinkSpec::Constant)),
    form("trace",         |v, w| trace(v, w).map(LinkSpec::Trace)),
    form("square", |v, w| {
        static SQUARE: &[Field<(Rate, Rate, SimDuration)>] = &[
            req("a_mbps",         |s, v, w| mbps(v, w).map(|r| s.0 = r)),
            req("b_mbps",         |s, v, w| mbps(v, w).map(|r| s.1 = r)),
            req("half_period_ms", |s, v, w| ms_pos(v, w).map(|d| s.2 = d)),
        ];
        let (a, b, half_period) = record(v, w, SQUARE, Default::default())?;
        Ok(LinkSpec::Square { a, b, half_period })
    }),
    // `[[seconds, mbps], …]` breakpoints
    form("steps", |v, w| {
        let steps = each(v, w, |p| {
            let [time, rate] = array(p, "a step")? else {
                return Err(err(p.pos, "a step is a [seconds, mbps] pair"));
            };
            let (t_s, rate) = (number(time, "step time")?, mbps(rate, "step rate")?);
            let msg = || "step time must be non-negative".to_string();
            ensure(t_s.is_finite() && t_s >= 0.0, time, msg)?;
            Ok((SimTime::from_secs_f64(t_s), rate))
        })?;
        ensure(!steps.is_empty(), v, || format!("{w} must not be empty"))?;
        let sorted = steps.windows(2).all(|p| p[0].0 <= p[1].0);
        ensure(sorted, v, || format!("{w} times must be non-decreasing"))?;
        Ok(LinkSpec::Steps(steps))
    }),
];

#[rustfmt::skip]
static TOPOLOGY: &[Form<Topology>] = &[
    form("single", |v, _| link(v).map(Topology::SingleBottleneck)),
    form("two_hop", |v, w| {
        static TWO_HOP: &[Field<(LinkSpec, LinkSpec)>] = &[
            req("up",   |s, v, _| link(v).map(|l| s.0 = l)),
            req("down", |s, v, _| link(v).map(|l| s.1 = l)),
        ];
        let (up, down) = record(v, w, TWO_HOP, (NO_LINK, NO_LINK))?;
        Ok(Topology::TwoHop { up, down })
    }),
    form("mixed_path", |v, w| {
        static MIXED_PATH: &[Field<(LinkSpec, Rate)>] = &[
            req("wireless",   |s, v, _| link(v).map(|l| s.0 = l)),
            req("wired_mbps", |s, v, w| mbps(v, w).map(|r| s.1 = r)),
        ];
        let (wireless, wired) = record(v, w, MIXED_PATH, (NO_LINK, Rate::ZERO))?;
        Ok(Topology::MixedPath { wireless, wired })
    }),
    form("wifi", |v, w| {
        static WIFI: &[Field<(McsSpec, usize)>] = &[
            req("mcs",            |s, v, _| one_of(v, "an mcs literal", MCS).map(|m| s.0 = m)),
            req("ap_buffer_pkts", |s, v, w| positive(v, w).map(|n| s.1 = n as usize)),
        ];
        let (mcs, ap_buffer_pkts) = record(v, w, WIFI, (McsSpec::Fixed(0), 0))?;
        Ok(Topology::Wifi { mcs, ap_buffer_pkts })
    }),
    form("parking_lot", |v, w| {
        let hops = each(v, w, |h| record(h, "a parking-lot hop", HOP, ParkingHop::new(NO_LINK)))?;
        let n = hops.len();
        ensure((1..=8).contains(&n), v, || format!("{w} needs 1–8 hops, found {n}"))?;
        Ok(Topology::ParkingLot { hops })
    }),
    form("asymmetric", |v, w| {
        static ASYMMETRIC: &[Field<(LinkSpec, LinkSpec, SimDuration, SimDuration)>] = &[
            req("down",          |s, v, _| link(v).map(|l| s.0 = l)),
            req("up",            |s, v, _| link(v).map(|l| s.1 = l)),
            req("down_delay_ms", |s, v, w| ms_pos(v, w).map(|d| s.2 = d)),
            req("up_delay_ms",   |s, v, w| ms_pos(v, w).map(|d| s.3 = d)),
        ];
        let init = (NO_LINK, NO_LINK, SimDuration::ZERO, SimDuration::ZERO);
        let (down, up, down_delay, up_delay) = record(v, w, ASYMMETRIC, init)?;
        Ok(Topology::Asymmetric { down, up, down_delay, up_delay })
    }),
];

#[rustfmt::skip]
static MCS: &[Form<McsSpec>] = &[
    form("fixed", |v, w| mcs_index(v, w).map(McsSpec::Fixed)),
    form("alternating", |v, w| {
        static ALTERNATING: &[Field<(u8, u8, SimDuration)>] = &[
            req("a",         |s, v, w| mcs_index(v, w).map(|i| s.0 = i)),
            req("b",         |s, v, w| mcs_index(v, w).map(|i| s.1 = i)),
            req("period_ms", |s, v, w| ms_pos(v, w).map(|d| s.2 = d)),
        ];
        let (a, b, period) = record(v, w, ALTERNATING, Default::default())?;
        Ok(McsSpec::Alternating(a, b, period))
    }),
    form("brownian", |v, w| {
        static BROWNIAN: &[Field<(u8, u8, SimDuration, u64)>] = &[
            req("min",       |s, v, w| mcs_index(v, w).map(|i| s.0 = i)),
            req("max",       |s, v, w| mcs_index(v, w).map(|i| s.1 = i)),
            req("period_ms", |s, v, w| ms_pos(v, w).map(|d| s.2 = d)),
            req("seed",      |s, v, w| uint(v, w).map(|x| s.3 = x)),
        ];
        let (lo, hi, period, seed) = record(v, w, BROWNIAN, Default::default())?;
        ensure(lo <= hi, v, || format!("{w} needs `min` <= `max`"))?;
        Ok(McsSpec::Brownian(lo, hi, period, seed))
    }),
];

/// A parking-lot hop; its qdisc defaults to `"scheme-default"`.
#[rustfmt::skip]
static HOP: &[Field<ParkingHop>] = &[
    req("link", |h, v, _| link(v).map(|l| h.link = l)),
    opt("qdisc", |h, v, _| {
        let abc = HopQdisc::Abc(AbcRouterConfig::default());
        let names = [("scheme-default", HopQdisc::SchemeDefault), ("droptail", HopQdisc::DropTail),
                     ("codel", HopQdisc::Codel), ("abc", abc)];
        qdisc(v, "hop qdisc", "a hop qdisc", &names, HopQdisc::Abc).map(|q| h.qdisc = q)
    }),
];

#[rustfmt::skip]
static ABC_QDISC: &[Field<AbcRouterConfig>] = &[req("abc", |cfg, v, _| {
    *cfg = record(v, "an ABC router config", ABC_ROUTER, AbcRouterConfig::default())?;
    Ok(())
})];

/// A qdisc (`noun` in errors) named by one of `names`, or an
/// `{ abc = { … } }` table of [`ABC_ROUTER`] overrides.
fn qdisc<T: Clone>(
    v: &Spanned,
    noun: &str,
    what: &str,
    names: &[(&str, T)],
    abc: fn(AbcRouterConfig) -> T,
) -> Result<T> {
    if v.value.as_str().is_some() {
        let abc_form = format!("an {{ {} = {{ … }} }} table", ABC_QDISC[0].key);
        return choice(v, what, noun, names, Some(abc_form));
    }
    let mut cfg = AbcRouterConfig::default();
    let missing = |k: &str| format!("a {} table needs `{k}`", noun.replace(' ', "-"));
    fields(
        table(v, what)?,
        v.pos,
        Some(what),
        ABC_QDISC,
        &mut cfg,
        missing,
    )
    .map(|_| abc(cfg))
}

/// An explicit ABC router config: every key optional, defaults match
/// [`AbcRouterConfig::default`]. (The enum-valued knobs — feedback
/// basis, marking mode, ECN dialect — stay Rust-side.)
#[rustfmt::skip]
static ABC_ROUTER: &[Field<AbcRouterConfig>] = &[
    opt("eta", |c, v, w| {
        c.eta = number(v, w)?;
        let ok = c.eta.is_finite() && c.eta > 0.0 && c.eta <= 1.0;
        ensure(ok, v, || format!("{w} must be in (0, 1]"))
    }),
    opt("delta_ms", |c, v, w| ms_pos(v, w).map(|d| c.delta = d)),
    opt("dt_ms",    |c, v, w| ms(v, w).map(|d| c.dt = d)),
    opt("token_limit", |c, v, w| {
        c.token_limit = number(v, w)?;
        let ok = c.token_limit.is_finite() && c.token_limit >= 1.0;
        ensure(ok, v, || format!("{w} must be at least 1"))
    }),
    opt("rate_window_ms", |c, v, w| ms_pos(v, w).map(|d| c.rate_window = d)),
    opt("buffer_pkts",    |c, v, w| positive(v, w).map(|n| c.buffer_pkts = n as usize)),
    opt("seed",           |c, v, w| uint(v, w).map(|s| c.seed = s)),
];

// ---- impairments ----

/// One impairment kind: what it does (the impairment table of
/// `docs/campaign-file.md`) and its parameters.
pub struct Impairment {
    /// What the impairment does.
    pub doc: &'static str,
    params: &'static [Field<Params>],
    build: fn(&Params) -> ImpairmentKind,
}

impl Impairment {
    /// The `kind` string, as [`ImpairmentKind::name`] spells it.
    pub fn kind(&self) -> &'static str {
        (self.build)(&Params::default()).name()
    }

    /// The kind's parameter keys, each with whether it is required.
    pub fn params(&self) -> impl Iterator<Item = (&'static str, bool)> {
        self.params.iter().map(|f| (f.key, f.required))
    }
}

/// Every impairment parameter; each kind reads its own.
#[derive(Default)]
struct Params {
    p: f64,
    p_good_bad: f64,
    p_bad_good: f64,
    loss_good: f64,
    loss_bad: f64,
    hold: SimDuration,
    max: SimDuration,
    start: SimDuration,
    duration: SimDuration,
    period: Option<SimDuration>,
    keep_one_in: u64,
}

const P: Field<Params> = req("p", |x, v, w| prob(v, w).map(|p| x.p = p));

/// Every impairment kind, in the order errors list them.
#[rustfmt::skip]
pub static IMPAIRMENT_KINDS: &[Impairment] = &[
    Impairment { params: &[P], build: |x| ImpairmentKind::Drop { p: x.p },
        doc: "Bernoulli loss with probability `p`" },
    Impairment { params: &[P], build: |x| ImpairmentKind::BleachEcn { p: x.p },
        doc: "clears ECN marks with probability `p` (a non-ECN middlebox)" },
    Impairment { params: &[P], build: |x| ImpairmentKind::StripFeedback { p: x.p },
        doc: "deletes in-band feedback state with probability `p`" },
    Impairment {
        params: &[
            req("p_good_bad", |x, v, w| prob(v, w).map(|p| x.p_good_bad = p)),
            req("p_bad_good", |x, v, w| prob(v, w).map(|p| x.p_bad_good = p)),
            req("loss_good",  |x, v, w| prob(v, w).map(|p| x.loss_good = p)),
            req("loss_bad",   |x, v, w| prob(v, w).map(|p| x.loss_bad = p)),
        ],
        build: |x| ImpairmentKind::GilbertElliott {
            p_good_bad: x.p_good_bad, p_bad_good: x.p_bad_good,
            loss_good: x.loss_good, loss_bad: x.loss_bad,
        },
        doc: "two-state burst loss: per-packet state flips, per-state loss rates" },
    Impairment { params: &[P, req("hold_ms", |x, v, w| ms_pos(v, w).map(|d| x.hold = d))],
        build: |x| ImpairmentKind::Reorder { p: x.p, hold: x.hold },
        doc: "holds a packet back `hold_ms` with probability `p`, letting later packets overtake it" },
    Impairment { params: &[req("max_ms", |x, v, w| ms_pos(v, w).map(|d| x.max = d))],
        build: |x| ImpairmentKind::Jitter { max: x.max },
        doc: "adds uniform extra delay in `[0, max_ms)` to every packet" },
    Impairment {
        params: &[
            req("start_ms",    |x, v, w| ms(v, w).map(|d| x.start = d)),
            req("duration_ms", |x, v, w| ms_pos(v, w).map(|d| x.duration = d)),
            opt("period_ms",   |x, v, w| ms_pos(v, w).map(|d| x.period = Some(d))),
        ],
        build: |x| ImpairmentKind::Outage { start: x.start, duration: x.duration, period: x.period },
        doc: "drops everything during the outage window; with `period_ms` the link flaps periodically" },
    Impairment { params: &[req("keep_one_in", |x, v, w| positive(v, w).map(|n| x.keep_one_in = n))],
        build: |x| ImpairmentKind::Decimate { keep_one_in: x.keep_one_in },
        doc: "forwards only every `keep_one_in`-th packet (with `direction = \"ack\"`: ACK decimation)" },
];

#[rustfmt::skip]
static IMPAIRMENT: &[Field<(Option<&'static Impairment>, Direction, usize)>] = &[
    req("kind", |s, v, _| {
        let name = string(v, "impairment `kind`")?;
        let kinds = join(IMPAIRMENT_KINDS.iter().map(Impairment::kind));
        let msg = || format!("unknown impairment kind {name:?} (expected one of: {kinds})");
        let kind = IMPAIRMENT_KINDS.iter().find(|k| k.kind() == name);
        kind.map(|k| s.0 = Some(k)).ok_or_else(|| err(v.pos, msg()))
    }),
    opt("direction", |s, v, w| {
        let names = [Direction::Data, Direction::Ack].map(|d| (d.name(), d));
        choice(v, w, "direction", &names, None).map(|d| s.1 = d)
    }),
    opt("hop", |s, v, w| uint(v, w).map(|h| s.2 = h as usize)),
];

/// An impairment literal: its `kind`, an optional `direction` (`"data"`
/// by default, or `"ack"`) and `hop` (which data-direction hop queue the
/// wire precedes, default 0), then its kind's parameters — e.g.
/// `{ kind = "decimate", keep_one_in = 4, direction = "ack" }`.
fn impairment(v: &Spanned) -> Result<ImpairmentSpec> {
    let t = table(v, "an impairment")?;
    let mut shared = (None, Direction::Data, 0);
    fields(t, v.pos, None, IMPAIRMENT, &mut shared, |k| {
        format!("an impairment needs a `{k}`")
    })?;
    let (Some(kind), direction, hop) = shared else {
        unreachable!("`kind` is required")
    };
    let name = kind.kind();
    let article = if name.starts_with(['a', 'e', 'i', 'o', 'u']) {
        "an"
    } else {
        "a"
    };
    check_keys(
        t,
        &format!("{article} `{name}` impairment"),
        keys(IMPAIRMENT).chain(keys(kind.params)),
    )?;
    let mut params = Params::default();
    let missing = |k: &str| format!("impairment kind {name:?} needs `{k}`");
    fields(t, v.pos, None, kind.params, &mut params, missing)?;
    let spec = ImpairmentSpec {
        direction,
        hop,
        kind: (kind.build)(&params),
    };
    // The checks above should leave nothing for validate() to reject,
    // but route it anyway: the wire constructor panics on invalid specs,
    // and a file error must never panic the CLI.
    spec.validate().map_err(|m| err(v.pos, m))?;
    Ok(spec)
}

// ---- workloads ----

#[rustfmt::skip]
static WORKLOADS: &[Form<WorkloadSpec>] = &[
    form("web",   |v, w| web(v, w).map(WorkloadSpec::Web)),
    form("rtc",   |v, w| rtc(v, w).map(WorkloadSpec::Rtc)),
    form("video", |v, w| video(v, w).map(WorkloadSpec::AbrVideo)),
];

#[rustfmt::skip]
static ATTACHMENTS: &[Field<WorkloadEntry>] = &[
    opt("scheme",    |e, v, w| scheme(v, w).map(|s| e.scheme = Some(s))),
    opt("start_s",   |e, v, w| secs(v, w).map(|d| e.start = SimTime::ZERO + d)),
    opt("entry_hop", |e, v, w| uint(v, w).map(|h| e.entry_hop = h as usize)),
    opt("label",     |e, v, w| string(v, w).map(|l| e.label = l.into())),
];

/// A workload entry: exactly one model (`web`, `rtc`, `video`) plus
/// optional attachments, e.g. `{ rtc = { kbps = 300 }, scheme = "Cubic" }`.
fn workload(v: &Spanned) -> Result<WorkloadEntry> {
    let what = "a workload entry";
    let t = table(v, what)?;
    check_keys(t, what, form_keys(WORKLOADS).chain(keys(ATTACHMENTS)))?;
    let list = join(form_keys(WORKLOADS));
    let (model, _) = one_form(t, WORKLOADS, || {
        err(v.pos, format!("{what} needs exactly one of: {list}"))
    })?;
    let mut entry = WorkloadEntry::new(model);
    fields(t, v.pos, None, ATTACHMENTS, &mut entry, |k| {
        format!("{what} needs `{k}`")
    })
    .map(|_| entry)
}

/// `per_sec`, `object_bytes`, `on_s`, `off_s`.
type Arrivals = (f64, Option<u64>, Option<SimDuration>, Option<SimDuration>);

#[rustfmt::skip]
static WEB_LOAD: &[Field<(f64, Rate)>] = &[
    req("load",      |s, v, w| non_negative(v, w, "fraction").map(|x| s.0 = x)),
    req("link_mbps", |s, v, w| mbps(v, w).map(|r| s.1 = r)),
];

#[rustfmt::skip]
static WEB_ARRIVALS: &[Field<Arrivals>] = &[
    req("per_sec",      |s, v, w| non_negative(v, w, "rate").map(|x| s.0 = x)),
    opt("object_bytes", |s, v, w| uint(v, w).map(|b| s.1 = Some(b))),
    opt("on_s",         |s, v, w| positive(v, w).map(|n| s.2 = Some(SimDuration::from_secs(n)))),
    opt("off_s",        |s, v, w| secs(v, w).map(|d| s.3 = Some(d))),
];

/// `web` is either `{ load = 0.5, link_mbps = 12.0 }` — an offered-load
/// fraction of a reference rate, with the built-in object sizes — or
/// `{ per_sec = 10.0, object_bytes = 50000, on_s = 2, off_s = 8 }`:
/// explicit arrivals (bursty with `on_s`/`off_s`), fixed sizes with
/// `object_bytes` and the built-in web CDF otherwise. Each form is picked
/// by its first key. A NaN or negative `per_sec` would never end the
/// arrival loop or silently send nothing, and a zero `on_s` would make
/// every cycle silent.
fn web(v: &Spanned, what: &str) -> Result<WebWorkload> {
    let t = table(v, what)?;
    check_keys(t, what, keys(WEB_LOAD).chain(keys(WEB_ARRIVALS)))?;
    let (load, per_sec) = (WEB_LOAD[0].key, WEB_ARRIVALS[0].key);
    match (t.get(load), t.get(per_sec)) {
        (Some(_), None) => {
            let mut s = (0.0, Rate::ZERO);
            let missing = |k: &str| format!("`web.{load}` needs `{k}` as its reference rate");
            fields(t, v.pos, None, WEB_LOAD, &mut s, missing)?;
            if let Some((k, x)) = t
                .entries
                .iter()
                .find(|(k, _)| keys(WEB_ARRIVALS).any(|a| a == k))
            {
                return Err(err(x.pos, format!("`{k}` only applies with `{per_sec}`")));
            }
            Ok(WebWorkload::poisson_load(s.0, s.1))
        }
        (None, Some(_)) => {
            let mut s = (0.0, None, None, None);
            fields(t, v.pos, None, WEB_ARRIVALS, &mut s, |k| {
                format!("{what} needs `{k}`")
            })?;
            let (per_sec, object_bytes, on, off) = s;
            let arrivals = match (on, off) {
                (Some(on), Some(off)) => ArrivalProcess::OnOff { per_sec, on, off },
                (None, None) => ArrivalProcess::Poisson { per_sec },
                _ => return Err(err(v.pos, "`on_s` and `off_s` come together")),
            };
            let sizes = object_bytes.map_or_else(SizeDist::web_objects, SizeDist::Fixed);
            Ok(WebWorkload { arrivals, sizes })
        }
        _ => Err(err(
            v.pos,
            format!("{what} needs exactly one of `{load}` or `{per_sec}`"),
        )),
    }
}

#[rustfmt::skip]
static RTC_FRAMES: &[Field<RtcWorkload>] = &[
    req("frame_bytes", |r, v, w| {
        r.frame_bytes = uint32(v, w)?;
        let found = r.frame_bytes;
        let msg =
            || format!("{w} must be in 1..={MTU_BYTES} (one frame per packet), found {found}");
        ensure((1..=MTU_BYTES).contains(&found), v, msg)
    }),
    req("interval_ms", |r, v, w| ms_pos(v, w).map(|d| r.interval = d)),
    req("deadline_ms", |r, v, w| ms(v, w).map(|d| r.deadline = d)),
];

/// `rtc` is `{ kbps = 300 }` (a 30 fps call with a 100 ms budget) or
/// the explicit `{ frame_bytes = 1200, interval_ms = 33, deadline_ms = 100 }`.
fn rtc(v: &Spanned, what: &str) -> Result<RtcWorkload> {
    let call = form("kbps", |v, w| uint32(v, w).map(RtcWorkload::video_call));
    let conflict =
        |k: &str, x: &Spanned, call: &str| err(x.pos, format!("`{k}` conflicts with `{call}`"));
    alone_or(
        v,
        what,
        call,
        RTC_FRAMES,
        RtcWorkload::video_call(0),
        conflict,
    )
}

#[rustfmt::skip]
static VIDEO_LADDER: &[Field<AbrWorkload>] = &[
    req("ladder_kbps", |a, v, w| {
        a.ladder_kbps = each(v, w, |x| uint32(x, "a ladder rung"))?;
        ensure(!a.ladder_kbps.is_empty(), v, || format!("{w} must not be empty"))?;
        ensure(a.ladder_kbps.windows(2).all(|p| p[0] <= p[1]), v, || format!("{w} must ascend"))
    }),
    req("chunk_s",        |a, v, w| positive(v, w).map(|s| a.chunk = SimDuration::from_secs(s))),
    req("startup_chunks", |a, v, w| uint32(v, w).map(|n| a.startup_chunks = n)),
    req("max_buffer_s",   |a, v, w| secs(v, w).map(|d| a.max_buffer = d)),
    req("stream_s",       |a, v, w| secs(v, w).map(|d| a.stream = d)),
    req("safety",         |a, v, w| number(v, w).map(|x| a.safety = x)),
];

/// `video` is `{ hd_stream_s = 60 }` (the built-in HD ladder) or the
/// explicit `{ ladder_kbps = […], chunk_s = 2, startup_chunks = 1,
/// max_buffer_s = 12, stream_s = 60, safety = 0.8 }`.
fn video(v: &Spanned, what: &str) -> Result<AbrWorkload> {
    let hd = form("hd_stream_s", |v, w| secs(v, w).map(AbrWorkload::hd));
    let conflict = |_: &str, _: &Spanned, hd: &str| {
        err(
            v.pos,
            format!("`{hd}` stands alone (it fixes the whole ladder)"),
        )
    };
    alone_or(
        v,
        what,
        hd,
        VIDEO_LADDER,
        AbrWorkload::hd(SimDuration::ZERO),
        conflict,
    )
}

/// A table that is either the `alone` form by itself — `conflict(key,
/// value, alone)` reports any other key — or the explicit `rows`
/// compiled into `init`.
fn alone_or<T>(
    v: &Spanned,
    what: &str,
    alone: Form<T>,
    rows: &[Field<T>],
    mut init: T,
    conflict: impl Fn(&str, &Spanned, &str) -> TomlError,
) -> Result<T> {
    let t = table(v, what)?;
    check_keys(t, what, std::iter::once(alone.key).chain(keys(rows)))?;
    if let Some(x) = t.get(alone.key) {
        if let Some((k, other)) = t.entries.iter().find(|(k, _)| k != alone.key) {
            return Err(conflict(k, other, alone.key));
        }
        return (alone.build)(x, &format!("`{}`", alone.key));
    }
    let missing = |k: &str| format!("{what} needs `{k}` (or just `{}`)", alone.key);
    fields(t, v.pos, None, rows, &mut init, missing).map(|_| init)
}

// ---- axes ----

type Values = Vec<(String, AxisValue)>;

/// `[[axis]]` value lists: the typed shorthands, whose values label
/// themselves, and the explicit `[[axis.values]]` form.
#[rustfmt::skip]
static AXIS_LISTS: &[Form<Values>] = &[
    form("schemes", |v, w| {
        each(v, w, |x| scheme(x, "`scheme`").map(|s| (s.name(), AxisValue::Scheme(s))))
    }),
    form("traces", |v, w| {
        let link = |t: cellular::CellTrace| (t.name.clone(), AxisValue::Link(LinkSpec::Trace(t)));
        each(v, w, |x| trace(x, "a trace name").map(link))
    }),
    form("rtt_ms",      |v, w| each(v, w, |x| numbered(uint(x, w), AxisValue::RttMs))),
    form("buffer_pkts", |v, w| {
        each(v, w, |x| numbered(positive(x, w), |n| AxisValue::BufferPkts(n as usize)))
    }),
    form("seeds",       |v, w| each(v, w, |x| numbered(uint(x, w), AxisValue::Seed))),
    form("durations_s", |v, w| each(v, w, |x| numbered(uint(x, w), AxisValue::DurationSecs))),
    // Client-count sweeps (`flows = [10, 100, 1000]`); each element is
    // any flow-schedule literal, labelled by its count.
    form("flows", |v, w| each(v, w, |x| {
        let sched = flows(x, w)?;
        let n = if let FlowSchedule::Uniform { n, .. } = sched { n } else { 0 };
        Ok((n.to_string(), AxisValue::Flows(sched)))
    })),
    form("values", |v, w| each(v, w, explicit_value)),
];

fn each<T>(v: &Spanned, what: &str, f: impl Fn(&Spanned) -> Result<T>) -> Result<Vec<T>> {
    array(v, what)?.iter().map(f).collect()
}

fn numbered(n: Result<u64>, value: impl Fn(u64) -> AxisValue) -> Result<(String, AxisValue)> {
    n.map(|n| (n.to_string(), value(n)))
}

#[rustfmt::skip]
static AXIS_NAME: &[Field<String>] =
    &[req("name", |n, v, _| string(v, "axis name").map(|s| *n = s.into()))];

/// One `[[axis]]` table: a `name` plus exactly one of [`AXIS_LISTS`].
fn compile_axis(v: &Spanned) -> Result<Axis> {
    let t = table(v, "[[axis]]")?;
    check_keys(t, "[[axis]]", keys(AXIS_NAME).chain(form_keys(AXIS_LISTS)))?;
    let mut name = String::new();
    fields(t, v.pos, None, AXIS_NAME, &mut name, |k| {
        format!("[[axis]] needs a `{k}`")
    })?;
    let lists: Vec<String> = form_keys(AXIS_LISTS).map(String::from).collect();
    let msg = format!(
        "axis `{name}` needs exactly one value list ({})",
        or_list(&lists)
    );
    let (values, list) = one_form(t, AXIS_LISTS, || err(v.pos, msg))?;
    ensure(!values.is_empty(), list, || {
        format!("axis `{name}` has no values")
    })?;
    // Duplicate labels would expand to points with identical coordinate
    // keys, which diff/aggregate silently conflate — reject them here.
    for (i, (label, _)) in values.iter().enumerate() {
        let unique = values[..i].iter().all(|(l, _)| l != label);
        ensure(unique, list, || {
            format!("axis `{name}` has duplicate value label {label:?}")
        })?;
    }
    Ok(Axis::new(name, values))
}

#[rustfmt::skip]
static VALUE_LABEL: &[Field<String>] =
    &[req("label", |l, v, _| string(v, "value label").map(|s| *l = s.into()))];

/// One `[[axis.values]]` entry: a `label` plus exactly one setting.
fn explicit_value(entry: &Spanned) -> Result<(String, AxisValue)> {
    let t = table(entry, "[[axis.values]]")?;
    let mut label = String::new();
    fields(t, entry.pos, None, VALUE_LABEL, &mut label, |k| {
        format!("[[axis.values]] needs a `{k}`")
    })?;
    let settings: Vec<_> = t
        .entries
        .iter()
        .filter(|(k, _)| keys(VALUE_LABEL).all(|l| l != k))
        .collect();
    let [(key, v)] = settings.as_slice() else {
        let all = join(form_keys(SETTINGS));
        return Err(err(
            entry.pos,
            format!("value {label:?} needs exactly one setting (one of: {all})"),
        ));
    };
    Ok((label, setting(key, v)?))
}

// ---- filters ----

/// `(axis, any-of labels)` pairs compiled from a condition table.
type Conditions = Vec<(String, Vec<String>)>;

/// A filter under construction: the declared axis names, its name, and
/// its `deny`, `when` and `require` conditions.
type FilterDraft = (Vec<String>, String, [Option<Conditions>; 3]);

#[rustfmt::skip]
static FILTER: &[Field<FilterDraft>] = &[
    req("name",    |f, v, _| string(v, "filter name").map(|n| f.1 = n.into())),
    opt("deny",    |f, v, _| conditions(v, &f.0).map(|c| f.2[0] = Some(c))),
    opt("when",    |f, v, _| conditions(v, &f.0).map(|c| f.2[1] = Some(c))),
    opt("require", |f, v, _| conditions(v, &f.0).map(|c| f.2[2] = Some(c))),
];

/// `[[filter]]`: a `name`, then either `deny = { axis = label, … }`
/// (reject points matching **all** conditions) or `when = { … }` +
/// `require = { … }` (points matching `when` must also match `require`;
/// `require` alone applies unconditionally). A condition value is a
/// label (string or integer) or an array of labels (any-of).
fn compile_filter(v: &Spanned, axes: Vec<String>) -> Result<Filter> {
    let t = table(v, "[[filter]]")?;
    let mut f = (axes, String::new(), [None, None, None]);
    fields(t, v.pos, Some("[[filter]]"), FILTER, &mut f, |k| {
        format!("[[filter]] needs a `{k}`")
    })?;
    let (_, name, [deny, when, require]) = f;
    let msg = match (deny, when, require) {
        (Some(deny), None, None) => {
            return Ok(Filter::new(name, move |co: &Coords| !matches(&deny, co)))
        }
        (None, when, Some(require)) => {
            let when = when.unwrap_or_default();
            return Ok(Filter::new(name, move |co: &Coords| {
                !matches(&when, co) || matches(&require, co)
            }));
        }
        (Some(_), _, _) => "a filter is either `deny` or `when`/`require`, not both",
        (None, Some(_), None) => "`when` needs a `require` to enforce",
        (None, None, None) => "a filter needs `deny` or `when`/`require`",
    };
    Err(err(v.pos, msg))
}

fn conditions(v: &Spanned, axes: &[String]) -> Result<Conditions> {
    let mut out = Vec::new();
    for (axis, val) in &table(v, "a filter condition")?.entries {
        let declared = axes.join(", ");
        let msg = || format!("filter references unknown axis `{axis}` (declared: {declared})");
        ensure(axes.contains(axis), val, msg)?;
        let labels = match &val.value {
            Value::Array(items) => items.iter().map(|i| label(i, axis)).collect(),
            _ => label(val, axis).map(|l| vec![l]),
        };
        out.push((axis.clone(), labels?));
    }
    Ok(out)
}

/// A coordinate label: a string, or an integer rendered the way integer
/// axes label themselves.
fn label(v: &Spanned, axis: &str) -> Result<String> {
    let kind = v.value.kind();
    let msg = || format!("condition on `{axis}` must be a string or integer label, found {kind}");
    let int = || v.value.as_int().map(|i| i.to_string());
    v.value
        .as_str()
        .map(String::from)
        .or_else(int)
        .ok_or_else(|| err(v.pos, msg()))
}

/// Does a point match all conditions? Points that lack a referenced axis
/// never match.
fn matches(conds: &Conditions, co: &Coords) -> bool {
    conds
        .iter()
        .all(|(axis, labels)| co.get(axis).is_some_and(|l| labels.iter().any(|x| x == l)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile_tiny(text: &str) -> Result<Campaign, TomlError> {
        from_str(text, Scale::Tiny)
    }

    const MINIMAL: &str = "[campaign]\nname = \"t\"\n";

    #[test]
    fn minimal_file_is_one_point_of_defaults() {
        let c = compile_tiny(MINIMAL).unwrap();
        assert_eq!(c.name, "t");
        let pts = c.expand();
        assert_eq!(pts.len(), 1);
        // defaults are exactly ScenarioSpec::single(ABC, 0 Mbit/s)
        let d = ScenarioSpec::single(Scheme::Abc, LinkSpec::Constant(Rate::ZERO));
        assert_eq!(pts[0].spec.seed, d.seed);
        assert_eq!(pts[0].spec.rtt, d.rtt);
        assert_eq!(pts[0].spec.buffer_pkts, d.buffer_pkts);
    }

    #[test]
    fn base_and_axes_compile() {
        let c = compile_tiny(
            "[campaign]\nname = \"s\"\n[base]\nscheme = \"Cubic\"\nlink = { constant_mbps = 12.0 }\nduration_s = 2\nwarmup_s = 1\n[[axis]]\nname = \"scheme\"\nschemes = [\"ABC\", \"Cubic+Codel\"]\n[[axis]]\nname = \"seed\"\nseeds = [1, 2, 3]\n",
        )
        .unwrap();
        assert_eq!(c.axes.len(), 2);
        let pts = c.expand();
        assert_eq!(pts.len(), 6);
        assert_eq!(pts[0].coords.key(), "scheme=ABC,seed=1");
        assert_eq!(pts[5].spec.scheme, Scheme::CubicCodel);
        assert_eq!(pts[0].spec.duration, SimDuration::from_secs(2));
    }

    #[test]
    fn scale_overrides_apply_to_the_selected_scale_only() {
        let text = "[campaign]\nname = \"s\"\n[base]\nduration_s = 120\n[scale.tiny]\nduration_s = 2\n[scale.fast]\nduration_s = 20\n";
        let tiny = from_str(text, Scale::Tiny).unwrap();
        let fast = from_str(text, Scale::Fast).unwrap();
        let full = from_str(text, Scale::Full).unwrap();
        assert_eq!(tiny.base.duration, SimDuration::from_secs(2));
        assert_eq!(fast.base.duration, SimDuration::from_secs(20));
        assert_eq!(full.base.duration, SimDuration::from_secs(120));
    }

    #[test]
    fn filters_deny_and_require() {
        let c = compile_tiny(
            "[campaign]\nname = \"f\"\n[[axis]]\nname = \"scheme\"\nschemes = [\"ABC\", \"Cubic\"]\n[[axis]]\nname = \"rtt_ms\"\nrtt_ms = [20, 100]\n[[filter]]\nname = \"no-cubic-100\"\ndeny = { scheme = \"Cubic\", rtt_ms = 100 }\n",
        )
        .unwrap();
        let keys: Vec<String> = c.expand().iter().map(|p| p.coords.key()).collect();
        assert_eq!(keys.len(), 3);
        assert!(!keys.contains(&"scheme=Cubic,rtt_ms=100".to_string()));

        let c = compile_tiny(
            "[campaign]\nname = \"f\"\n[[axis]]\nname = \"scheme\"\nschemes = [\"ABC\", \"Cubic\"]\n[[axis]]\nname = \"rtt_ms\"\nrtt_ms = [20, 100]\n[[filter]]\nname = \"abc-short-only\"\nwhen = { scheme = \"ABC\" }\nrequire = { rtt_ms = [20] }\n",
        )
        .unwrap();
        let keys: Vec<String> = c.expand().iter().map(|p| p.coords.key()).collect();
        assert_eq!(keys.len(), 3);
        assert!(!keys.contains(&"scheme=ABC,rtt_ms=100".to_string()));
    }

    #[test]
    fn workload_axis_compiles() {
        let c = compile_tiny(
            "[campaign]\nname = \"w\"\n[base]\nflows = 0\n[[axis]]\nname = \"load\"\n[[axis.values]]\nlabel = \"0.2\"\nworkloads = [{ web = { load = 0.2, link_mbps = 12.0 } }]\n",
        )
        .unwrap();
        let pts = c.expand();
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].spec.workloads.len(), 1);
        assert!(matches!(
            pts[0].spec.flows,
            FlowSchedule::Explicit(ref v) if v.is_empty()
        ));
    }

    #[test]
    fn telemetry_table_compiles_and_reaches_every_point() {
        let c = compile_tiny(
            "[campaign]\nname = \"t\"\n[[axis]]\nname = \"seed\"\nseeds = [1, 2]\n[telemetry]\nsignals = [\"cwnd\", \"qdelay_ms\"]\nsample_every_ms = 50\n",
        )
        .unwrap();
        let cfg = c.telemetry.clone().expect("[telemetry] sets the config");
        assert_eq!(
            cfg.signals,
            vec![
                netsim::telemetry::Signal::Cwnd,
                netsim::telemetry::Signal::QdelayMs
            ]
        );
        assert_eq!(cfg.sample_every, SimDuration::from_millis(50));
        for p in c.expand() {
            assert_eq!(p.spec.telemetry.as_ref(), Some(&cfg));
        }
    }

    #[test]
    fn empty_telemetry_table_means_the_default_config() {
        let c = compile_tiny("[campaign]\nname = \"t\"\n[telemetry]\n").unwrap();
        assert_eq!(
            c.telemetry,
            Some(netsim::telemetry::TelemetryConfig::default())
        );
        // and no [telemetry] table at all means none
        assert_eq!(compile_tiny(MINIMAL).unwrap().telemetry, None);
    }

    #[test]
    fn flows_table_form_compiles_to_staggered_uniform() {
        let c = compile_tiny(
            "[campaign]\nname = \"f\"\n[base]\nflows = { count = 4, stagger_ms = 500, stagger_departures = true }\n",
        )
        .unwrap();
        match &c.base.flows {
            FlowSchedule::Uniform {
                n,
                stagger,
                stagger_departures,
                ..
            } => {
                assert_eq!(*n, 4);
                assert_eq!(*stagger, SimDuration::from_millis(500));
                assert!(*stagger_departures);
            }
            other => panic!("expected Uniform, got {other:?}"),
        }
    }

    #[test]
    fn flows_axis_shorthand_labels_by_count() {
        let c = compile_tiny(
            "[campaign]\nname = \"f\"\n[[axis]]\nname = \"clients\"\nflows = [10, 100, { count = 4, stagger_ms = 250 }]\n",
        )
        .unwrap();
        let keys: Vec<String> = c.expand().iter().map(|p| p.coords.key()).collect();
        assert_eq!(keys, ["clients=10", "clients=100", "clients=4"]);
    }

    #[test]
    fn impairments_compile_inline_and_as_array_of_tables() {
        // inline array form
        let c = compile_tiny(
            "[campaign]\nname = \"i\"\n[base]\nimpairments = [{ kind = \"drop\", p = 0.01 }, { kind = \"decimate\", keep_one_in = 4, direction = \"ack\" }]\n",
        )
        .unwrap();
        assert_eq!(c.base.impairments.len(), 2);
        assert!(matches!(
            c.base.impairments[0].kind,
            ImpairmentKind::Drop { p } if p == 0.01
        ));
        assert_eq!(c.base.impairments[1].direction, Direction::Ack);

        // [[base.impairments]] array-of-tables form
        let c = compile_tiny(
            "[campaign]\nname = \"i\"\n[[base.impairments]]\nkind = \"gilbert-elliott\"\np_good_bad = 0.01\np_bad_good = 0.3\nloss_good = 0.0\nloss_bad = 0.5\n[[base.impairments]]\nkind = \"outage\"\nstart_ms = 3000\nduration_ms = 200\nperiod_ms = 5000\nhop = 0\n",
        )
        .unwrap();
        assert_eq!(c.base.impairments.len(), 2);
        assert!(matches!(
            c.base.impairments[0].kind,
            ImpairmentKind::GilbertElliott { .. }
        ));
        assert!(matches!(
            c.base.impairments[1].kind,
            ImpairmentKind::Outage {
                period: Some(p), ..
            } if p == SimDuration::from_millis(5000)
        ));
    }

    #[test]
    fn impairment_axis_compiles_with_an_unimpaired_control() {
        let c = compile_tiny(
            "[campaign]\nname = \"i\"\n[[axis]]\nname = \"impairment\"\n[[axis.values]]\nlabel = \"none\"\nimpairments = []\n[[axis.values]]\nlabel = \"burst\"\nimpairments = [{ kind = \"reorder\", p = 0.05, hold_ms = 10 }]\n",
        )
        .unwrap();
        let pts = c.expand();
        assert_eq!(pts.len(), 2);
        assert!(pts[0].spec.impairments.is_empty());
        assert_eq!(pts[1].spec.impairments.len(), 1);
        assert_eq!(pts[1].coords.key(), "impairment=burst");
    }

    #[test]
    fn inject_fault_setting_compiles() {
        let c =
            compile_tiny("[campaign]\nname = \"f\"\n[base]\ninject_fault = \"panic\"\n").unwrap();
        assert_eq!(c.base.fault, Some(InjectedFault::Panic));
        let c =
            compile_tiny("[campaign]\nname = \"f\"\n[base]\ninject_fault = \"none\"\n").unwrap();
        assert_eq!(c.base.fault, None);
    }

    // ---- negative cases: every diagnostic names a line and column ----

    fn error_at(text: &str) -> (usize, usize, String) {
        let e = compile_tiny(text).unwrap_err();
        (e.pos.line, e.pos.col, e.message)
    }

    #[test]
    fn unknown_impairment_kind_is_rejected_with_position() {
        let (line, _, msg) =
            error_at("[campaign]\nname = \"x\"\n[[base.impairments]]\nkind = \"packet-eater\"\n");
        assert_eq!(line, 4);
        assert!(msg.contains("unknown impairment kind"), "{msg}");
        assert!(msg.contains("gilbert-elliott"), "{msg}");
    }

    #[test]
    fn impairment_probability_out_of_range_is_rejected() {
        let (line, _, msg) =
            error_at("[campaign]\nname = \"x\"\n[[base.impairments]]\nkind = \"drop\"\np = 1.5\n");
        assert_eq!(line, 5);
        assert!(msg.contains("probability"), "{msg}");
    }

    #[test]
    fn impairment_bad_direction_is_rejected() {
        let (_, _, msg) = error_at(
            "[campaign]\nname = \"x\"\n[[base.impairments]]\nkind = \"drop\"\np = 0.1\ndirection = \"sideways\"\n",
        );
        assert!(msg.contains("direction"), "{msg}");
    }

    #[test]
    fn impairment_zero_duration_is_rejected() {
        let (_, _, msg) = error_at(
            "[campaign]\nname = \"x\"\n[[base.impairments]]\nkind = \"outage\"\nstart_ms = 100\nduration_ms = 0\n",
        );
        assert!(msg.contains("duration_ms"), "{msg}");
    }

    #[test]
    fn impairment_missing_kind_param_is_rejected() {
        let (_, _, msg) = error_at(
            "[campaign]\nname = \"x\"\n[[base.impairments]]\nkind = \"reorder\"\np = 0.1\n",
        );
        assert!(msg.contains("hold_ms"), "{msg}");
    }

    #[test]
    fn decimate_keep_one_in_zero_is_rejected() {
        let (_, _, msg) = error_at(
            "[campaign]\nname = \"x\"\n[[base.impairments]]\nkind = \"decimate\"\nkeep_one_in = 0\n",
        );
        assert!(msg.contains("keep_one_in"), "{msg}");
    }

    #[test]
    fn unknown_inject_fault_is_rejected() {
        let (line, _, msg) =
            error_at("[campaign]\nname = \"x\"\n[base]\ninject_fault = \"gremlin\"\n");
        assert_eq!(line, 4);
        assert!(msg.contains("unknown fault"), "{msg}");
    }

    #[test]
    fn unknown_top_level_key_is_rejected() {
        let (line, _, msg) = error_at("[campaign]\nname = \"x\"\n[bogus]\na = 1\n");
        assert_eq!(line, 3);
        assert!(msg.contains("unknown key `bogus`"), "{msg}");
    }

    #[test]
    fn unknown_base_key_is_rejected() {
        let (line, col, msg) = error_at("[campaign]\nname = \"x\"\n[base]\nduration_sec = 5\n");
        assert_eq!((line, col), (4, 16));
        assert!(msg.contains("unknown key `duration_sec`"), "{msg}");
    }

    #[test]
    fn unknown_scheme_is_rejected_with_position() {
        let (line, col, msg) =
            error_at("[campaign]\nname = \"x\"\n[base]\nscheme = \"Reno2000\"\n");
        assert_eq!((line, col), (4, 10));
        assert!(msg.contains("unknown scheme"), "{msg}");
    }

    #[test]
    fn timer_slot_shift_is_an_unknown_key() {
        let (line, col, msg) =
            error_at("[campaign]\nname = \"t\"\n[base]\nseed = 1\ntimer_slot_shift = 20\n");
        assert_eq!((line, col), (5, 20));
        assert!(
            msg.starts_with("unknown key `timer_slot_shift` in [base]"),
            "{msg}"
        );
        assert_eq!(msg.matches("timer_slot_shift").count(), 1, "{msg}");
    }

    #[test]
    fn stagger_departures_without_stagger_is_rejected() {
        let (line, _, msg) = error_at(
            "[campaign]\nname = \"f\"\n[base]\nflows = { count = 4, stagger_departures = true }\n",
        );
        assert_eq!(line, 4);
        assert!(msg.contains("non-zero `stagger_ms`"), "{msg}");
    }

    #[test]
    fn zero_buffer_is_rejected_with_position_wherever_a_buffer_is_set() {
        // a zero-capacity droptail or ABC queue used to compile and then
        // panic at build
        let cases = [
            ("[base]\nbuffer_pkts = 0\n", (4, 15)),
            ("[scale.tiny]\nbuffer_pkts = 0\n", (4, 15)),
            ("[[axis]]\nname = \"b\"\nbuffer_pkts = [10, 0]\n", (5, 20)),
            (
                "[[axis]]\nname = \"b\"\n[[axis.values]]\nlabel = \"z\"\nbuffer_pkts = 0\n",
                (7, 15),
            ),
        ];
        for (tail, at) in cases {
            let (line, col, msg) = error_at(&format!("[campaign]\nname = \"x\"\n{tail}"));
            assert_eq!((line, col), at, "{tail}");
            assert!(msg.contains("`buffer_pkts` must be at least 1"), "{msg}");
        }
    }

    #[test]
    fn flows_zero_count_table_is_rejected() {
        let (_, _, msg) = error_at("[campaign]\nname = \"f\"\n[base]\nflows = { count = 0 }\n");
        assert!(msg.contains("at least 1"), "{msg}");
    }

    #[test]
    fn missing_campaign_name_is_rejected() {
        let e = compile_tiny("[campaign]\n").unwrap_err();
        assert!(e.message.contains("needs a `name`"), "{e}");
    }

    #[test]
    fn axis_without_values_is_rejected() {
        let (line, _, msg) = error_at("[campaign]\nname = \"x\"\n[[axis]]\nname = \"seed\"\n");
        assert_eq!(line, 3);
        assert!(msg.contains("exactly one value list"), "{msg}");
    }

    #[test]
    fn empty_axis_is_rejected() {
        let (_, _, msg) =
            error_at("[campaign]\nname = \"x\"\n[[axis]]\nname = \"seed\"\nseeds = []\n");
        assert!(msg.contains("has no values"), "{msg}");
    }

    #[test]
    fn duplicate_axis_is_rejected() {
        let (_, _, msg) = error_at(
            "[campaign]\nname = \"x\"\n[[axis]]\nname = \"seed\"\nseeds = [1]\n[[axis]]\nname = \"seed\"\nseeds = [2]\n",
        );
        assert!(msg.contains("duplicate axis"), "{msg}");
    }

    #[test]
    fn filter_on_unknown_axis_is_rejected() {
        let (line, _, msg) = error_at(
            "[campaign]\nname = \"x\"\n[[axis]]\nname = \"seed\"\nseeds = [1]\n[[filter]]\nname = \"f\"\ndeny = { scheme = \"ABC\" }\n",
        );
        assert_eq!(line, 8);
        assert!(msg.contains("unknown axis `scheme`"), "{msg}");
    }

    #[test]
    fn unknown_telemetry_signal_is_rejected_with_the_catalog() {
        let (line, col, msg) = error_at(
            "[campaign]\nname = \"x\"\n[telemetry]\nsignals = [\"cwnd\", \"congestion\"]\n",
        );
        assert_eq!((line, col), (4, 20));
        assert!(
            msg.contains("unknown telemetry signal `congestion`"),
            "{msg}"
        );
        assert!(msg.contains("qdelay_ms"), "catalog missing from: {msg}");
    }

    #[test]
    fn telemetry_cadence_must_be_a_positive_integer() {
        let (line, _, msg) =
            error_at("[campaign]\nname = \"x\"\n[telemetry]\nsample_every_ms = 0\n");
        assert_eq!(line, 4);
        assert!(msg.contains("at least 1"), "{msg}");
        let (_, _, msg) =
            error_at("[campaign]\nname = \"x\"\n[telemetry]\nsample_every_ms = \"fast\"\n");
        assert!(msg.contains("must be an integer, found string"), "{msg}");
        let (_, _, msg) = error_at("[campaign]\nname = \"x\"\n[telemetry]\ncadence = 5\n");
        assert!(msg.contains("unknown key `cadence`"), "{msg}");
    }

    #[test]
    fn unknown_trace_is_rejected() {
        let (line, col, msg) = error_at(
            "[campaign]\nname = \"x\"\n[[axis]]\nname = \"trace\"\ntraces = [\"Nokia9\"]\n",
        );
        assert_eq!((line, col), (5, 11));
        assert!(msg.contains("unknown built-in trace"), "{msg}");
    }

    #[test]
    fn link_literal_needs_exactly_one_kind() {
        let (_, _, msg) = error_at(
            "[campaign]\nname = \"x\"\n[base]\nlink = { constant_mbps = 12.0, trace = \"Verizon1\" }\n",
        );
        assert!(msg.contains("exactly one of"), "{msg}");
    }

    #[test]
    fn negative_seed_is_rejected() {
        let (line, _, msg) = error_at("[campaign]\nname = \"x\"\n[base]\nseed = -1\n");
        assert_eq!(line, 4);
        assert!(msg.contains("non-negative"), "{msg}");
    }

    #[test]
    fn wrong_type_is_named() {
        let (_, _, msg) = error_at("[campaign]\nname = \"x\"\n[base]\nrtt_ms = \"fast\"\n");
        assert!(msg.contains("must be an integer, found string"), "{msg}");
    }

    #[test]
    fn zero_rtc_interval_is_rejected_not_panicked() {
        let (line, _, msg) = error_at(
            "[campaign]\nname = \"x\"\n[base]\nworkloads = [{ rtc = { frame_bytes = 1200, interval_ms = 0, deadline_ms = 100 } }]\n",
        );
        assert_eq!(line, 4);
        assert!(msg.contains("`interval_ms` must be at least 1"), "{msg}");
    }

    #[test]
    fn oversized_frame_bytes_is_rejected_not_wrapped() {
        // 2^32 + 1200 would silently truncate to 1200 via `as u32`.
        let (_, _, msg) = error_at(
            "[campaign]\nname = \"x\"\n[base]\nworkloads = [{ rtc = { frame_bytes = 4294968496, interval_ms = 33, deadline_ms = 100 } }]\n",
        );
        assert!(msg.contains("too large"), "{msg}");
        let (_, _, msg) = error_at(
            "[campaign]\nname = \"x\"\n[base]\nworkloads = [{ rtc = { frame_bytes = 9000, interval_ms = 33, deadline_ms = 100 } }]\n",
        );
        assert!(msg.contains("one frame per packet"), "{msg}");
    }

    #[test]
    fn descending_ladder_and_zero_chunk_are_rejected() {
        let (_, _, msg) = error_at(
            "[campaign]\nname = \"x\"\n[base]\nworkloads = [{ video = { ladder_kbps = [1000, 350], chunk_s = 2, startup_chunks = 1, max_buffer_s = 12, stream_s = 60, safety = 0.8 } }]\n",
        );
        assert!(msg.contains("must ascend"), "{msg}");
        let (_, _, msg) = error_at(
            "[campaign]\nname = \"x\"\n[base]\nworkloads = [{ video = { ladder_kbps = [350, 1000], chunk_s = 0, startup_chunks = 1, max_buffer_s = 12, stream_s = 60, safety = 0.8 } }]\n",
        );
        assert!(msg.contains("`chunk_s` must be at least 1"), "{msg}");
    }

    #[test]
    fn duplicate_axis_labels_are_rejected() {
        let (_, _, msg) =
            error_at("[campaign]\nname = \"x\"\n[[axis]]\nname = \"seed\"\nseeds = [1, 1]\n");
        assert!(msg.contains("duplicate value label"), "{msg}");
        // scheme names parse case-insensitively into the same label
        let (_, _, msg) = error_at(
            "[campaign]\nname = \"x\"\n[[axis]]\nname = \"s\"\nschemes = [\"ABC\", \"abc\"]\n",
        );
        assert!(msg.contains("duplicate value label"), "{msg}");
    }

    #[test]
    fn multibyte_scheme_names_error_instead_of_panicking() {
        let (line, _, msg) = error_at("[campaign]\nname = \"x\"\n[base]\nscheme = \"ABC\u{e9}\"\n");
        assert_eq!(line, 4);
        assert!(msg.contains("unknown scheme"), "{msg}");
    }

    #[test]
    fn empty_and_unsorted_steps_are_rejected() {
        let (_, _, msg) = error_at("[campaign]\nname = \"x\"\n[base]\nlink = { steps = [] }\n");
        assert!(msg.contains("`steps` must not be empty"), "{msg}");
        let (_, _, msg) = error_at(
            "[campaign]\nname = \"x\"\n[base]\nlink = { steps = [[5.0, 6.0], [1.0, 18.0]] }\n",
        );
        assert!(msg.contains("non-decreasing"), "{msg}");
    }

    #[test]
    fn zero_square_period_and_negative_rates_are_rejected() {
        let (_, _, msg) = error_at(
            "[campaign]\nname = \"x\"\n[base]\nlink = { square = { a_mbps = 12.0, b_mbps = 24.0, half_period_ms = 0 } }\n",
        );
        assert!(msg.contains("`half_period_ms` must be at least 1"), "{msg}");
        let (_, _, msg) =
            error_at("[campaign]\nname = \"x\"\n[base]\nlink = { constant_mbps = -5.0 }\n");
        assert!(msg.contains("non-negative rate"), "{msg}");
    }

    #[test]
    fn degenerate_web_arrivals_are_rejected() {
        let (_, _, msg) = error_at(
            "[campaign]\nname = \"x\"\n[base]\nworkloads = [{ web = { per_sec = 10.0, on_s = 0, off_s = 0 } }]\n",
        );
        assert!(msg.contains("`on_s` must be at least 1"), "{msg}");
        let (_, _, msg) = error_at(
            "[campaign]\nname = \"x\"\n[base]\nworkloads = [{ web = { per_sec = -1.0 } }]\n",
        );
        assert!(
            msg.contains("`per_sec` must be a non-negative rate"),
            "{msg}"
        );
    }

    #[test]
    fn wifi_topology_literal_compiles() {
        let c = compile_tiny(
            "[campaign]\nname = \"w\"\n[base]\ntopology = { wifi = { mcs = { alternating = { a = 3, b = 7, period_ms = 500 } }, ap_buffer_pkts = 100 } }\n",
        )
        .unwrap();
        match &c.base.topology {
            Topology::Wifi {
                mcs,
                ap_buffer_pkts,
            } => {
                assert!(
                    matches!(mcs, McsSpec::Alternating(3, 7, p) if *p == SimDuration::from_millis(500))
                );
                assert_eq!(*ap_buffer_pkts, 100);
            }
            other => panic!("expected wifi, got {other:?}"),
        }
        let c = compile_tiny(
            "[campaign]\nname = \"w\"\n[base]\ntopology = { wifi = { mcs = { brownian = { min = 1, max = 7, period_ms = 100, seed = 9 } }, ap_buffer_pkts = 50 } }\n",
        )
        .unwrap();
        assert!(matches!(
            &c.base.topology,
            Topology::Wifi {
                mcs: McsSpec::Brownian(1, 7, _, 9),
                ..
            }
        ));
    }

    #[test]
    fn parking_lot_literal_compiles_with_per_hop_qdiscs() {
        let c = compile_tiny(
            "[campaign]\nname = \"p\"\n[base]\ntopology = { parking_lot = [\
             { link = { constant_mbps = 12.0 }, qdisc = \"abc\" }, \
             { link = { constant_mbps = 12.0 }, qdisc = { abc = { eta = 0.9, dt_ms = 60 } } }, \
             { link = { constant_mbps = 24.0 }, qdisc = \"codel\" }, \
             { link = { constant_mbps = 12.0 }, qdisc = \"droptail\" }, \
             { link = { constant_mbps = 12.0 } }] }\n",
        )
        .unwrap();
        let Topology::ParkingLot { hops } = &c.base.topology else {
            panic!("expected a parking lot, got {:?}", c.base.topology);
        };
        assert_eq!(hops.len(), 5);
        assert!(matches!(&hops[0].qdisc, HopQdisc::Abc(cfg) if *cfg == AbcRouterConfig::default()));
        match &hops[1].qdisc {
            HopQdisc::Abc(cfg) => {
                assert_eq!(cfg.eta, 0.9);
                assert_eq!(cfg.dt, SimDuration::from_millis(60));
                // untouched keys keep their defaults
                assert_eq!(cfg.delta, AbcRouterConfig::default().delta);
            }
            other => panic!("expected explicit ABC config, got {other:?}"),
        }
        assert!(matches!(hops[2].qdisc, HopQdisc::Codel));
        assert!(matches!(hops[3].qdisc, HopQdisc::DropTail));
        assert!(matches!(hops[4].qdisc, HopQdisc::SchemeDefault));
    }

    #[test]
    fn asymmetric_literal_compiles() {
        let c = compile_tiny(
            "[campaign]\nname = \"a\"\n[base]\ntopology = { asymmetric = { down = { constant_mbps = 12.0 }, up = { constant_mbps = 1.0 }, down_delay_ms = 40, up_delay_ms = 10 } }\n",
        )
        .unwrap();
        match &c.base.topology {
            Topology::Asymmetric {
                down_delay,
                up_delay,
                ..
            } => {
                assert_eq!(*down_delay, SimDuration::from_millis(40));
                assert_eq!(*up_delay, SimDuration::from_millis(10));
            }
            other => panic!("expected asymmetric, got {other:?}"),
        }
    }

    #[test]
    fn abc_qdisc_table_compiles_at_base_and_axis() {
        let c = compile_tiny(
            "[campaign]\nname = \"q\"\n[base]\nqdisc = { abc = { eta = 0.95, buffer_pkts = 100 } }\n",
        )
        .unwrap();
        match &c.base.qdisc {
            QdiscSpec::AbcWith(cfg) => {
                assert_eq!(cfg.eta, 0.95);
                assert_eq!(cfg.buffer_pkts, 100);
            }
            other => panic!("expected AbcWith, got {other:?}"),
        }
        let c = compile_tiny(
            "[campaign]\nname = \"q\"\n[[axis]]\nname = \"qdisc\"\n[[axis.values]]\nlabel = \"abc\"\nqdisc = { abc = { } }\n[[axis.values]]\nlabel = \"droptail\"\nqdisc = \"droptail\"\n",
        )
        .unwrap();
        let pts = c.expand();
        assert_eq!(pts.len(), 2);
        assert!(matches!(
            pts[0].spec.qdisc,
            QdiscSpec::AbcWith(cfg) if cfg == AbcRouterConfig::default()
        ));
        assert!(matches!(pts[1].spec.qdisc, QdiscSpec::DropTail));
    }

    #[test]
    fn bad_parking_lot_and_hop_qdisc_are_rejected_with_position() {
        let (line, _, msg) =
            error_at("[campaign]\nname = \"x\"\n[base]\ntopology = { parking_lot = [] }\n");
        assert_eq!(line, 4);
        assert!(msg.contains("1–8 hops"), "{msg}");
        let (line, _, msg) = error_at(
            "[campaign]\nname = \"x\"\n[base]\ntopology = { parking_lot = [{ link = { constant_mbps = 12.0 }, qdisc = \"red\" }] }\n",
        );
        assert_eq!(line, 4);
        assert!(msg.contains("unknown hop qdisc"), "{msg}");
        let (_, _, msg) = error_at(
            "[campaign]\nname = \"x\"\n[base]\ntopology = { parking_lot = [{ qdisc = \"abc\" }] }\n",
        );
        assert!(msg.contains("needs `link`"), "{msg}");
    }

    #[test]
    fn bad_wifi_and_asymmetric_are_rejected_with_position() {
        let (line, _, msg) = error_at(
            "[campaign]\nname = \"x\"\n[base]\ntopology = { wifi = { mcs = { fixed = 9 }, ap_buffer_pkts = 100 } }\n",
        );
        assert_eq!(line, 4);
        assert!(msg.contains("MCS index in 0..=7"), "{msg}");
        let (_, _, msg) = error_at(
            "[campaign]\nname = \"x\"\n[base]\ntopology = { wifi = { mcs = { fixed = 5 } } }\n",
        );
        assert!(msg.contains("needs `ap_buffer_pkts`"), "{msg}");
        let (_, _, msg) = error_at(
            "[campaign]\nname = \"x\"\n[base]\ntopology = { asymmetric = { down = { constant_mbps = 12.0 }, up = { constant_mbps = 1.0 }, down_delay_ms = 40 } }\n",
        );
        assert!(msg.contains("needs `up_delay_ms`"), "{msg}");
    }

    #[test]
    fn bad_abc_router_config_is_rejected_with_position() {
        let (line, _, msg) =
            error_at("[campaign]\nname = \"x\"\n[base]\nqdisc = { abc = { eta = 1.5 } }\n");
        assert_eq!(line, 4);
        assert!(msg.contains("`eta` must be in (0, 1]"), "{msg}");
        let (_, _, msg) =
            error_at("[campaign]\nname = \"x\"\n[base]\nqdisc = { abc = { delta = 133 } }\n");
        assert!(msg.contains("unknown key `delta`"), "{msg}");
    }
}
