//! Run ledger → Chrome trace-event JSON, viewable in Perfetto (or
//! `chrome://tracing`): one track per worker slot carrying point spans,
//! and instant events marking retries, panics, and watchdog
//! cancellations.
//!
//! The output is the classic "JSON object format": a `traceEvents`
//! array of `ph:"B"`/`ph:"E"` duration pairs (balanced by construction
//! — CI counts them), `ph:"i"` instants, and `ph:"M"` metadata naming
//! the tracks. Timestamps are microseconds from run start.

use crate::json::Value;
use crate::runlog::RunLedger;

fn ts_us(ns: u64) -> Value {
    Value::num(ns as f64 / 1000.0)
}

fn meta(name: &str, tid: u64, value: &str) -> Value {
    Value::Obj(vec![
        ("name".into(), Value::str(name)),
        ("ph".into(), Value::str("M")),
        ("pid".into(), Value::num(1.0)),
        ("tid".into(), Value::num(tid as f64)),
        (
            "args".into(),
            Value::Obj(vec![("name".into(), Value::str(value))]),
        ),
    ])
}

fn begin(name: &str, cat: &str, ts_ns: u64, tid: u64, args: Vec<(String, Value)>) -> Value {
    Value::Obj(vec![
        ("name".into(), Value::str(name)),
        ("cat".into(), Value::str(cat)),
        ("ph".into(), Value::str("B")),
        ("ts".into(), ts_us(ts_ns)),
        ("pid".into(), Value::num(1.0)),
        ("tid".into(), Value::num(tid as f64)),
        ("args".into(), Value::Obj(args)),
    ])
}

fn end(ts_ns: u64, tid: u64) -> Value {
    Value::Obj(vec![
        ("ph".into(), Value::str("E")),
        ("ts".into(), ts_us(ts_ns)),
        ("pid".into(), Value::num(1.0)),
        ("tid".into(), Value::num(tid as f64)),
    ])
}

fn instant(name: &str, cat: &str, ts_ns: u64, tid: u64, args: Vec<(String, Value)>) -> Value {
    Value::Obj(vec![
        ("name".into(), Value::str(name)),
        ("cat".into(), Value::str(cat)),
        ("ph".into(), Value::str("i")),
        ("s".into(), Value::str("t")),
        ("ts".into(), ts_us(ts_ns)),
        ("pid".into(), Value::num(1.0)),
        ("tid".into(), Value::num(tid as f64)),
        ("args".into(), Value::Obj(args)),
    ])
}

/// Convert a parsed ledger into Chrome trace-event JSON. Every point
/// span in the ledger — each attempt, retries included — becomes one
/// `B`/`E` pair on its worker's track, so the trace covers every
/// executed point.
pub fn chrome_trace(ledger: &RunLedger) -> String {
    let mut events: Vec<Value> = Vec::new();
    events.push(meta(
        "process_name",
        0,
        &format!("abc-campaign {}", ledger.header.campaign),
    ));
    let mut workers: Vec<usize> = ledger.points.iter().map(|p| p.worker).collect();
    workers.sort_unstable();
    workers.dedup();
    for w in &workers {
        events.push(meta("thread_name", *w as u64, &format!("worker {w}")));
    }
    for p in &ledger.points {
        let tid = p.worker as u64;
        let mut args = vec![
            ("ordinal".to_string(), Value::num(p.ordinal as f64)),
            ("attempt".to_string(), Value::num(p.attempt as f64)),
            ("outcome".to_string(), Value::str(p.outcome.name())),
            ("events".to_string(), Value::num(p.events as f64)),
            ("events_per_sec".to_string(), Value::num(p.events_per_sec)),
        ];
        if let Some(reason) = p.outcome.reason() {
            args.push(("reason".to_string(), Value::str(reason)));
        }
        if let Some(prof) = &p.profile {
            args.push((
                "profile".to_string(),
                Value::Obj(vec![
                    ("deliver_frac".into(), Value::num(prof.deliver_frac)),
                    ("timer_frac".into(), Value::num(prof.timer_frac)),
                    ("batch_frac".into(), Value::num(prof.batch_frac)),
                    ("pool_hit_rate".into(), Value::num(prof.pool_hit_rate)),
                ]),
            ));
        }
        let name = format!("#{} {}", p.ordinal, p.coords.key());
        events.push(begin(&name, "point", p.start_ns, tid, args));
        if p.attempt > 0 {
            events.push(instant(
                "retry",
                "fault",
                p.start_ns,
                tid,
                vec![
                    ("ordinal".to_string(), Value::num(p.ordinal as f64)),
                    ("attempt".to_string(), Value::num(p.attempt as f64)),
                ],
            ));
        }
        if let Some(reason) = p.outcome.reason() {
            events.push(instant(
                p.outcome.name(),
                "fault",
                p.end_ns,
                tid,
                vec![
                    ("ordinal".to_string(), Value::num(p.ordinal as f64)),
                    ("reason".to_string(), Value::str(reason)),
                ],
            ));
        }
        events.push(end(p.end_ns, tid));
    }
    Value::Obj(vec![
        ("displayTimeUnit".into(), Value::str("ms")),
        ("traceEvents".into(), Value::Arr(events)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::runlog::{LedgerHeader, PointSpan, SpanOutcome};
    use crate::spec::Coords;

    fn tiny_ledger() -> RunLedger {
        RunLedger {
            header: LedgerHeader {
                campaign: "t".into(),
                scale: None,
                points: 2,
                workers: 2,
                shard: None,
                retries: 1,
                watchdog_budget_s: None,
                keep_going: false,
                profile: false,
            },
            points: vec![
                PointSpan {
                    ordinal: 0,
                    coords: Coords(vec![("seed".into(), "1".into())]),
                    attempt: 0,
                    worker: 0,
                    start_ns: 10,
                    end_ns: 100,
                    events: 50,
                    events_per_sec: 5.0e8,
                    outcome: SpanOutcome::Ok,
                    profile: None,
                },
                PointSpan {
                    ordinal: 1,
                    coords: Coords(vec![("seed".into(), "2".into())]),
                    attempt: 1,
                    worker: 1,
                    start_ns: 20,
                    end_ns: 90,
                    events: 0,
                    events_per_sec: 0.0,
                    outcome: SpanOutcome::Panic("boom".into()),
                    profile: None,
                },
            ],
        }
    }

    #[test]
    fn trace_has_balanced_span_pairs_and_covers_every_point() {
        let text = chrome_trace(&tiny_ledger());
        let v = json::parse(&text).expect("trace parses as JSON");
        let events = v
            .get("traceEvents")
            .and_then(Value::as_arr)
            .expect("traceEvents array");
        let ph = |p: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Value::as_str) == Some(p))
                .count()
        };
        assert_eq!(ph("B"), ph("E"), "unbalanced begin/end pairs");
        // one B/E pair per point span
        assert_eq!(ph("B"), 2);
        // retry + panic instants for the failed attempt
        assert_eq!(ph("i"), 2);
        assert!(text.contains("#0 seed=1") && text.contains("#1 seed=2"));
    }
}
