//! The one reader of `abc-telemetry/v1` sidecars (see
//! [`netsim::telemetry`]): a schema header line, then sample, counter,
//! histogram and event rows, read through [`crate::jsonl`]. The dynamics
//! timeline, the run report's cross-point aggregation and the figures
//! that plot within-run series all parse through [`Sidecar::parse`].

use crate::json::Value;
use crate::jsonl::{self, uint, Error, Tail};
use netsim::telemetry::LogHistogram;
use std::collections::BTreeMap;

/// A parsed sidecar.
#[derive(Debug, Clone, Default)]
pub struct Sidecar {
    /// The header's gauge cadence, when it states one.
    pub sample_every_ns: Option<f64>,
    /// `(signal, scope)` → `(t seconds, value)` gauge series, in row
    /// order (which is time order within a series).
    pub series: BTreeMap<(String, String), Vec<(f64, f64)>>,
    /// `(counter, scope, n)` rows, in file order.
    pub counters: Vec<(String, String, u64)>,
    /// `(histogram, scope, histogram)` rows, in file order.
    pub hists: Vec<(String, String, LogHistogram)>,
    /// Number of raw `events` rows.
    pub events: u64,
}

impl Sidecar {
    /// Parse a sidecar's JSONL text. Errors (with a line number) on a
    /// missing or foreign schema header, a row that is not JSON, a
    /// malformed histogram bucket, or a row of no known shape — a sidecar
    /// is written whole, so any of these means the file is not one.
    pub fn parse(text: &str) -> Result<Sidecar, Error> {
        let (header, rows) = jsonl::read(text, netsim::telemetry::SIDECAR_SCHEMA, Tail::Strict)?;
        let mut out = Sidecar {
            sample_every_ns: header.value.get("sample_every_ns").and_then(Value::as_f64),
            ..Sidecar::default()
        };
        for line in rows {
            let line = line?;
            let row = line.fields();
            let str_of = |k: &str| row.get(k).and_then(Value::as_str);
            if let Some(counter) = str_of("counter") {
                let scope = row.str("scope")?.to_string();
                out.counters
                    .push((counter.to_string(), scope, row.uint("n")?));
            } else if let Some(hist) = str_of("hist") {
                let mut h = LogHistogram::new();
                for pair in row.arr("buckets")? {
                    let bucket = match pair.as_arr() {
                        Some([b, n]) => uint(b).zip(uint(n)),
                        _ => None,
                    };
                    let Some((b, n)) = bucket else {
                        return Err(row.err("malformed bucket pair"));
                    };
                    h.add_bucket(b.min(64) as usize, n);
                }
                let scope = str_of("scope").unwrap_or_default().to_string();
                out.hists.push((hist.to_string(), scope, h));
            } else if str_of("signal") == Some("events") {
                out.events += 1;
            } else if let Some(signal) = str_of("signal") {
                let key = (signal.to_string(), row.str("scope")?.to_string());
                let sample = (row.num("t_ns")? / 1e9, row.num("v")?);
                out.series.entry(key).or_default().push(sample);
            } else {
                return Err(row.err("unrecognized row shape"));
            }
        }
        Ok(out)
    }

    /// The `(t seconds, value)` series of `signal` at `scope` (empty when
    /// the sidecar has none).
    pub fn series(&self, signal: &str, scope: &str) -> &[(f64, f64)] {
        self.series
            .get(&(signal.to_string(), scope.to_string()))
            .map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER: &str =
        "{\"schema\":\"abc-telemetry/v1\",\"signals\":[\"cwnd\"],\"sample_every_ns\":10000000}\n";

    #[test]
    fn every_row_shape_lands_in_its_place() {
        let text = format!(
            "{HEADER}{}{}{}{}{}",
            "{\"t_ns\":5000000000,\"signal\":\"cwnd\",\"scope\":\"flow:1\",\"v\":10}\n",
            "{\"t_ns\":6000000000,\"signal\":\"cwnd\",\"scope\":\"flow:1\",\"v\":12.5}\n",
            "{\"counter\":\"rto_arm\",\"scope\":\"flow:1\",\"n\":3}\n",
            "{\"hist\":\"qdelay_ns\",\"scope\":\"link:b\",\"count\":3,\"buckets\":[[0,1],[21,2]]}\n",
            "{\"t_ns\":7,\"signal\":\"events\",\"node\":2,\"seq\":9}\n",
        );
        let s = Sidecar::parse(&text).expect("parses");
        assert_eq!(s.sample_every_ns, Some(1e7));
        assert_eq!(s.series("cwnd", "flow:1"), &[(5.0, 10.0), (6.0, 12.5)]);
        assert!(s.series("cwnd", "flow:2").is_empty());
        assert_eq!(s.counters, vec![("rto_arm".into(), "flow:1".into(), 3)]);
        assert_eq!(s.hists[0].2.count(), 3);
        assert_eq!(s.events, 1);
    }

    #[test]
    fn malformed_buckets_and_unknown_rows_are_errors() {
        let bad_bucket =
            format!("{HEADER}{{\"hist\":\"qdelay_ns\",\"scope\":\"l\",\"buckets\":[[0]]}}\n");
        let err = Sidecar::parse(&bad_bucket).unwrap_err().to_string();
        assert!(
            err.contains("line 2") && err.contains("malformed bucket pair"),
            "{err}"
        );
        let unknown = format!("{HEADER}{{\"what\":1}}\n");
        assert!(Sidecar::parse(&unknown)
            .unwrap_err()
            .to_string()
            .contains("unrecognized"));
        assert!(Sidecar::parse(&format!("{HEADER}not json\n")).is_err());
    }

    #[test]
    fn headers_must_name_the_schema() {
        assert!(Sidecar::parse("").is_err());
        assert!(Sidecar::parse("{\"schema\":\"nope/v9\"}\n").is_err());
        assert!(Sidecar::parse("{\"signals\":[]}\n").is_err());
        assert!(Sidecar::parse("not json\n").is_err());
    }
}
