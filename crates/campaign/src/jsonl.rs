//! The one reader of the three JSONL artifacts — the results store
//! ([`crate::store`]), the run ledger ([`crate::runlog`]) and telemetry
//! sidecars ([`crate::sidecar`]): a header naming the schema, then one
//! JSON object per line. [`read`] checks the schema and walks the rows
//! lazily over the borrowed text, skipping blank lines; every failure is
//! an [`Error`] naming its 1-based line. A killed writer tears at most
//! the final line, so under [`Tail::DropTorn`] a *final* line that is not
//! valid JSON is dropped; a bad line anywhere else is an error.
//!
//! Each row goes to one of two decoders. Iterating [`Rows`] parses it
//! into a [`json::Value`] read through [`Fields`] (typed members and the
//! one `Coords` ⇄ JSON codec; the ledger and sidecars read this way).
//! [`Rows::next_with`] hands the row's text to a decoder of the caller's
//! — the store's pulls typed records straight off [`json`]'s lexer and
//! builds no tree — and keeps the same envelope around it.

use crate::json::{self, JsonError, Value};
use crate::spec::Coords;
use std::fmt;

/// Artifact I/O and format errors.
#[derive(Debug)]
pub enum Error {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// A line is not valid JSON.
    Json {
        /// 1-based line number.
        line: usize,
        /// The underlying JSON error.
        error: JsonError,
    },
    /// A line parses but does not describe a header or row correctly.
    Format {
        /// 1-based line number.
        line: usize,
        /// What is malformed.
        message: String,
    },
    /// The header names a different schema.
    Schema {
        /// 1-based line number of the header.
        line: usize,
        /// The schema id the file claims.
        found: String,
        /// The schema id this reader reads.
        want: &'static str,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "I/O error: {e}"),
            Error::Json { line, error } => write!(f, "line {line}: {error}"),
            Error::Format { line, message } => write!(f, "line {line}: {message}"),
            Error::Schema { line, found, want } => {
                write!(
                    f,
                    "line {line}: unsupported schema {found:?} (this build reads {want:?})"
                )
            }
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

/// What a walk does with a final line that is not valid JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    /// Report it like any other bad line.
    Strict,
    /// Drop it: it is the torn write of a killed run.
    DropTorn,
}

/// One parsed line.
#[derive(Debug)]
pub struct Line {
    /// 1-based line number.
    pub no: usize,
    /// The line's JSON value.
    pub value: Value,
}

impl Line {
    /// Typed access to the line's members.
    pub fn fields(&self) -> Fields<'_> {
        let (value, line) = (&self.value, self.no);
        Fields { value, line }
    }
}

/// The lines after the header, each parsed as it is pulled.
pub struct Rows<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
    tail: Tail,
}

impl<'a> Rows<'a> {
    /// The next row, decoded by `decode` from its 1-based line number and
    /// text. `decode` must answer a line that is not valid JSON with
    /// [`Error::Json`] — even where a member before the break was already
    /// wrong — so that [`Tail::DropTorn`] drops exactly a torn final line.
    pub fn next_with<T>(
        &mut self,
        decode: impl FnOnce(usize, &'a str) -> Result<T, Error>,
    ) -> Option<Result<T, Error>> {
        let blank = |(_, l): &(usize, &str)| l.trim().is_empty();
        let (i, text) = self.lines.find(|l| !blank(l))?;
        match decode(i + 1, text) {
            Err(Error::Json { .. })
                if self.tail == Tail::DropTorn && self.lines.clone().all(|l| blank(&l)) =>
            {
                None
            }
            row => Some(row),
        }
    }
}

impl Iterator for Rows<'_> {
    type Item = Result<Line, Error>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_with(|no, text| match json::parse(text) {
            Ok(value) => Ok(Line { no, value }),
            Err(error) => Err(Error::Json { line: no, error }),
        })
    }
}

/// Start a walk over `text`: the header line, whose `"schema"` must be
/// `schema`, and the rows after it.
pub fn read<'a>(
    text: &'a str,
    schema: &'static str,
    tail: Tail,
) -> Result<(Line, Rows<'a>), Error> {
    let mut rows = Rows {
        lines: text.lines().enumerate(),
        tail: Tail::Strict,
    };
    let header = rows.next().ok_or_else(|| Error::Format {
        line: 1,
        message: "empty file (no header line)".into(),
    })??;
    let found = header.fields().str("schema")?;
    if found != schema {
        return Err(Error::Schema {
            line: header.no,
            found: found.to_string(),
            want: schema,
        });
    }
    rows.tail = tail;
    Ok((header, rows))
}

/// `v` as a count, ordinal or nanosecond stamp: a non-negative integer
/// below 2^64.
pub fn uint(v: &Value) -> Option<u64> {
    uint_of(v.as_f64()?)
}

/// `x` as a `u64`, if it is a non-negative integer below 2^64. (`u64::MAX
/// as f64` rounds up to 2^64 itself, which `as u64` would saturate.)
pub(crate) fn uint_of(x: f64) -> Option<u64> {
    const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;
    (x >= 0.0 && x.fract() == 0.0 && x < TWO_POW_64).then_some(x as u64)
}

/// Typed members of one JSON object on one line; every error names the
/// line.
#[derive(Debug, Clone, Copy)]
pub struct Fields<'a> {
    value: &'a Value,
    line: usize,
}

impl<'a> Fields<'a> {
    /// A [`Error::Format`] at this line.
    pub fn err(&self, message: impl Into<String>) -> Error {
        Error::Format {
            line: self.line,
            message: message.into(),
        }
    }

    /// Fields of a value nested anywhere in this line.
    pub fn at(&self, value: &'a Value) -> Fields<'a> {
        let line = self.line;
        Fields { value, line }
    }

    /// The raw member, if present.
    pub fn get(&self, key: &str) -> Option<&'a Value> {
        self.value.get(key)
    }

    /// A nested object member, if present.
    pub fn opt(&self, key: &str) -> Option<Fields<'a>> {
        self.get(key).map(|v| self.at(v))
    }

    /// A required member, as `read` sees it (`kind` names it for errors).
    fn req<T>(
        &self,
        key: &str,
        kind: &str,
        read: impl Fn(&'a Value) -> Option<T>,
    ) -> Result<T, Error> {
        let v = self.get(key).and_then(read);
        v.ok_or_else(|| self.err(format!("field {key:?} is missing or not {kind}")))
    }

    /// A required nested object member.
    pub fn obj(&self, key: &str) -> Result<Fields<'a>, Error> {
        self.req(key, "an object", |v| v.as_obj().map(|_| self.at(v)))
    }

    /// A required number; `null` reads back as the `NaN` it was written
    /// for.
    pub fn num(&self, key: &str) -> Result<f64, Error> {
        self.req(key, "a number", |v| match v {
            Value::Null => Some(f64::NAN),
            v => v.as_f64(),
        })
    }

    /// A required non-negative integer (see [`uint`]) that fits `T`.
    pub fn uint<T: TryFrom<u64>>(&self, key: &str) -> Result<T, Error> {
        self.req(key, "a non-negative integer in range", |v| {
            T::try_from(uint(v)?).ok()
        })
    }

    /// A required string.
    pub fn str(&self, key: &str) -> Result<&'a str, Error> {
        self.req(key, "a string", Value::as_str)
    }

    /// A required boolean.
    pub fn bool(&self, key: &str) -> Result<bool, Error> {
        self.req(key, "a boolean", |v| match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        })
    }

    /// A required array.
    pub fn arr(&self, key: &str) -> Result<&'a [Value], Error> {
        self.req(key, "an array", Value::as_arr)
    }

    /// A required array of strings.
    pub fn strings(&self, key: &str) -> Result<Vec<String>, Error> {
        let strings = self
            .arr(key)?
            .iter()
            .map(|s| s.as_str().map(str::to_string));
        let strings: Option<_> = strings.collect();
        strings.ok_or_else(|| self.err(format!("non-string entry in {key:?}")))
    }

    /// The row's `"coords"`: an object of axis name → value label.
    pub fn coords(&self) -> Result<Coords, Error> {
        let members = self.req("coords", "an object", Value::as_obj)?;
        let pairs = members
            .iter()
            .map(|(axis, label)| Some((axis.clone(), label.as_str()?.into())));
        let pairs: Option<_> = pairs.collect();
        pairs
            .map(Coords)
            .ok_or_else(|| self.err("non-string coordinate label"))
    }
}

/// The `"coords"` object [`Fields::coords`] reads back.
pub fn coords_to_value(c: &Coords) -> Value {
    Value::Obj(
        c.0.iter()
            .map(|(a, l)| (a.clone(), Value::str(l)))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCHEMA: &str = "test/v1";

    fn rows(text: &str, tail: Tail) -> Result<Vec<usize>, Error> {
        let (_, rows) = read(text, SCHEMA, tail)?;
        rows.map(|l| l.map(|l| l.no)).collect()
    }

    #[test]
    fn blank_lines_are_skipped_and_numbers_are_one_based() {
        let text = "{\"schema\":\"test/v1\"}\n\n{\"a\":1}\n  \n{\"a\":2}\n";
        assert_eq!(rows(text, Tail::Strict).unwrap(), [3, 5]);
    }

    #[test]
    fn only_a_final_torn_line_is_dropped() {
        let torn = "{\"schema\":\"test/v1\"}\n{\"a\":1}\n{\"a\":";
        assert_eq!(rows(torn, Tail::DropTorn).unwrap(), [2]);
        let err = rows(torn, Tail::Strict).unwrap_err();
        assert!(matches!(err, Error::Json { line: 3, .. }), "{err}");
        // a bad line followed by a good one is corruption, not a torn tail
        let mid = "{\"schema\":\"test/v1\"}\n{\"a\":\n{\"a\":1}\n";
        let err = rows(mid, Tail::DropTorn).unwrap_err();
        assert!(matches!(err, Error::Json { line: 2, .. }), "{err}");
    }

    #[test]
    fn headers_must_name_the_schema() {
        assert!(matches!(
            rows("", Tail::Strict),
            Err(Error::Format { line: 1, .. })
        ));
        let err = rows("\n{\"schema\":\"test/v9\"}\n", Tail::Strict).unwrap_err();
        assert!(matches!(err, Error::Schema { line: 2, .. }), "{err}");
        assert!(err.to_string().contains("test/v1"), "{err}");
        assert!(matches!(
            rows("{\"rows\":[]}\n", Tail::Strict),
            Err(Error::Format { line: 1, .. })
        ));
    }

    #[test]
    fn integers_must_be_non_negative_and_whole() {
        for (text, ok) in [
            ("7", true),
            ("-1", false),
            ("1.5", false),
            ("1e300", false),
            ("18446744073709549568", true), // the largest double below 2^64
            ("18446744073709551615", false), // u64::MAX, which rounds to 2^64
            ("18446744073709551616", false),
            ("18446744073709552000", false),
        ] {
            assert_eq!(uint(&json::parse(text).unwrap()).is_some(), ok, "{text}");
        }
        assert_eq!(uint(&Value::Null), None);
    }

    #[test]
    fn coords_round_trip() {
        let c = Coords(vec![
            ("scheme".into(), "ABC".into()),
            ("seed".into(), "1".into()),
        ]);
        let row = Value::Obj(vec![("coords".into(), coords_to_value(&c))]);
        let f = Line { no: 4, value: row };
        assert_eq!(f.fields().coords().unwrap(), c);
        let bad = json::parse("{\"coords\":{\"seed\":1}}").unwrap();
        let err = f.fields().at(&bad).coords().unwrap_err();
        assert!(err.to_string().starts_with("line 4:"), "{err}");
    }
}
