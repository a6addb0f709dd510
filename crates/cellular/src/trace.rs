//! Cellular packet-delivery traces in Mahimahi's format.
//!
//! A trace is a list of timestamps (milliseconds, one per line in the file
//! format) at which the link can deliver one MTU-sized packet. Mahimahi
//! replays the list cyclically; an opportunity that finds the queue empty
//! is wasted. [`CellTrace`] carries the parsed opportunities plus the
//! repeat period and converts into a [`netsim::link::TraceLink`].
//!
//! A trace is an immutable shared value: cloning a [`CellTrace`] or
//! building a link from it hands out another pointer to the same
//! opportunity list, never a copy of it.

use netsim::link::TraceLink;
use netsim::rate::Rate;
use netsim::time::{SimDuration, SimTime};
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};
use std::sync::Arc;

/// A parsed (or synthesized) cellular trace. `Clone` is O(name).
#[derive(Debug, Clone, PartialEq)]
pub struct CellTrace {
    pub name: String,
    /// Delivery opportunities within one period, sorted.
    pub opportunities: Arc<[SimDuration]>,
    pub period: SimDuration,
}

/// Errors from parsing a Mahimahi trace. `OutOfRange` is a timestamp whose
/// trace period (`ms + 1`) overflows the simulator's u64 nanosecond clock.
#[derive(Debug)]
pub enum TraceError {
    Io(std::io::Error),
    Parse { line: usize, content: String },
    OutOfRange { line: usize, content: String },
    Empty,
    Unsorted { line: usize },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "I/O error: {e}"),
            TraceError::Parse { line, content } => {
                write!(f, "line {line}: not a millisecond timestamp: {content:?}")
            }
            TraceError::OutOfRange { line, content } => {
                write!(
                    f,
                    "line {line}: timestamp beyond the simulator clock: {content:?}"
                )
            }
            TraceError::Empty => write!(f, "trace has no delivery opportunities"),
            TraceError::Unsorted { line } => write!(f, "line {line}: timestamps out of order"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

impl CellTrace {
    /// Parse the Mahimahi format: one integer (ms) per line, sorted,
    /// possibly with repeated values (several opportunities in one ms).
    /// The period is the last timestamp rounded up to the next full ms.
    /// A line that is not UTF-8 is a positioned [`TraceError::Parse`].
    pub fn parse_mahimahi(name: &str, reader: impl Read) -> Result<CellTrace, TraceError> {
        let mut opportunities = Vec::new();
        let mut last: u64 = 0;
        let mut period = SimDuration::ZERO;
        for (i, line) in BufReader::new(reader).split(b'\n').enumerate() {
            let line = line?;
            let line = String::from_utf8_lossy(&line);
            let t = line.trim();
            if t.is_empty() || t.starts_with('#') {
                continue;
            }
            let ms: u64 = t.parse().map_err(|_| TraceError::Parse {
                line: i + 1,
                content: t.to_string(),
            })?;
            if ms < last {
                return Err(TraceError::Unsorted { line: i + 1 });
            }
            // The trace is sorted, so the period any line implies bounds
            // every timestamp before it: checking it here positions the
            // error and keeps `from_millis` below from wrapping.
            period = period_after(ms).ok_or_else(|| TraceError::OutOfRange {
                line: i + 1,
                content: t.to_string(),
            })?;
            last = ms;
            opportunities.push(SimDuration::from_millis(ms));
        }
        if opportunities.is_empty() {
            return Err(TraceError::Empty);
        }
        Ok(CellTrace {
            name: name.to_string(),
            opportunities: opportunities.into(),
            period,
        })
    }

    /// Serialize back to the Mahimahi line format.
    pub fn write_mahimahi(&self, mut w: impl Write) -> std::io::Result<()> {
        for o in self.opportunities.iter() {
            writeln!(w, "{}", o.as_nanos() / 1_000_000)?;
        }
        Ok(())
    }

    /// Mean capacity over one period, assuming MTU-sized opportunities.
    pub fn mean_rate(&self) -> Rate {
        Rate::from_bytes_per(
            self.opportunities.len() as u64 * netsim::packet::MTU_BYTES as u64,
            self.period,
        )
    }

    /// Capacity averaged over `[t, t+window)`, for plotting µ(t) curves.
    pub fn rate_in_window(&self, t: SimTime, window: SimDuration) -> Rate {
        Rate::from_bytes_per(
            self.opportunities_between(t, t + window) * netsim::packet::MTU_BYTES as u64,
            window,
        )
    }

    /// Delivery opportunities in `[a, b)` of the repeating trace.
    pub fn opportunities_between(&self, a: SimTime, b: SimTime) -> u64 {
        netsim::link::opportunities_between(&self.opportunities, self.period, a, b)
    }

    /// Build the simulator link for this trace; the link shares the
    /// opportunity list.
    pub fn to_link(&self) -> TraceLink {
        TraceLink::new(self.opportunities.clone(), self.period)
    }

    /// Total duration of one period.
    pub fn duration(&self) -> SimDuration {
        self.period
    }
}

/// The repeat period of a trace whose last timestamp is `last_ms`: the
/// next full millisecond. `None` if that overflows the nanosecond clock.
fn period_after(last_ms: u64) -> Option<SimDuration> {
    last_ms
        .checked_add(1)?
        .checked_mul(1_000_000)
        .map(SimDuration::from_nanos)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        let input = "0\n5\n5\n12\n40\n";
        let tr = CellTrace::parse_mahimahi("t", input.as_bytes()).unwrap();
        assert_eq!(tr.opportunities.len(), 5);
        assert_eq!(tr.period, SimDuration::from_millis(41));
        let mut out = Vec::new();
        tr.write_mahimahi(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), input);
    }

    #[test]
    fn parse_skips_comments_and_blanks() {
        let input = "# header\n0\n\n10\n";
        let tr = CellTrace::parse_mahimahi("t", input.as_bytes()).unwrap();
        assert_eq!(tr.opportunities.len(), 2);
    }

    #[test]
    fn parse_rejects_garbage() {
        let err = CellTrace::parse_mahimahi("t", "0\nxyz\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 2, .. }));
        let err = CellTrace::parse_mahimahi("t", &b"0\n1\n\xff2\n"[..]).unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 3, .. }), "{err}");
    }

    #[test]
    fn parse_rejects_unsorted() {
        let err = CellTrace::parse_mahimahi("t", "5\n3\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TraceError::Unsorted { line: 2 }));
    }

    #[test]
    fn parse_rejects_timestamps_beyond_the_clock() {
        // each of these wrapped silently in release (and panicked in debug)
        let max_ms = u64::MAX / 1_000_000;
        for bad in [u64::MAX, max_ms + 1, max_ms] {
            let input = format!("0\n{bad}\n");
            let err = CellTrace::parse_mahimahi("t", input.as_bytes()).unwrap_err();
            match err {
                TraceError::OutOfRange { line: 2, content } => {
                    assert_eq!(content, bad.to_string())
                }
                other => panic!("{bad}: expected OutOfRange at line 2, got {other:?}"),
            }
        }
        // the largest timestamp whose period still fits parses
        let input = format!("0\n{}\n", max_ms - 1);
        let tr = CellTrace::parse_mahimahi("t", input.as_bytes()).unwrap();
        assert_eq!(tr.period, SimDuration::from_millis(max_ms));
        // one past u64 is not a number at all
        let err = CellTrace::parse_mahimahi("t", "18446744073709551616\n".as_bytes());
        assert!(matches!(err, Err(TraceError::Parse { line: 1, .. })));
    }

    #[test]
    fn parse_rejects_empty() {
        let err = CellTrace::parse_mahimahi("t", "# nothing\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TraceError::Empty));
    }

    #[test]
    fn mean_rate_of_uniform_trace() {
        // one opportunity per ms = 12 Mbit/s
        let body: String = (0..1000).map(|i| format!("{i}\n")).collect();
        let tr = CellTrace::parse_mahimahi("t", body.as_bytes()).unwrap();
        assert!((tr.mean_rate().mbps() - 12.0).abs() < 0.1);
    }

    #[test]
    fn windowed_rate_sees_bursts() {
        // all 100 opportunities in the first 100 ms of a 1 s period
        let body: String = (0..100).map(|i| format!("{i}\n")).collect();
        let mut tr = CellTrace::parse_mahimahi("t", body.as_bytes()).unwrap();
        tr.period = SimDuration::from_secs(1);
        let early = tr.rate_in_window(SimTime::ZERO, SimDuration::from_millis(100));
        let late = tr.rate_in_window(
            SimTime::ZERO + SimDuration::from_millis(500),
            SimDuration::from_millis(100),
        );
        assert!(early.mbps() > 10.0);
        assert_eq!(late.mbps(), 0.0);
    }
}
