//! A zero-dependency parser for the TOML subset campaign files use.
//!
//! The workspace builds offline with no external crates, so campaign
//! files are parsed by this module instead of the `toml` crate. The
//! supported subset is what [`super::schema`] needs — and nothing more:
//!
//! * `[table]` headers and `[[array-of-tables]]` headers, with dotted
//!   paths (`[scale.tiny]`, `[[axis.values]]`);
//! * `key = value` pairs with bare (`a-z A-Z 0-9 _ -`) or quoted keys;
//! * basic `"…"` strings (with `\" \\ \n \t \r \u{…}`-style escapes) and
//!   literal `'…'` strings;
//! * integers (with `_` separators), floats, booleans;
//! * arrays, which may span lines, with optional trailing commas;
//! * single-line inline tables `{ k = v, … }`;
//! * `#` comments.
//!
//! Unsupported TOML (dates, multi-line strings, `+inf`/`nan`) is
//! rejected with an error, never silently misread. Every parsed value
//! carries its source [`Pos`], and every error message names a line and
//! column — the schema layer reuses those positions, so a typo deep in a
//! campaign file points at the offending character, not at "the file".
//!
//! ```
//! use campaign::file::toml;
//! let doc = toml::parse("a = 1\n[t]\nb = \"x\"\n").unwrap();
//! assert_eq!(doc.get("a").unwrap().value.as_int(), Some(1));
//! let err = toml::parse("a = @").unwrap_err();
//! assert_eq!((err.pos.line, err.pos.col), (1, 5));
//! ```

use std::fmt;

/// How deep arrays, inline tables and dotted key paths may nest. A
/// campaign file nests a handful of levels; the bound keeps hostile input
/// from recursing the parser off the end of its stack.
pub const MAX_DEPTH: usize = 128;

/// A 1-based source position: the line and column an item starts at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column (in characters, not bytes).
    pub col: usize,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, column {}", self.line, self.col)
    }
}

/// A parse (or schema) error anchored to a source position.
#[derive(Debug, Clone)]
pub struct TomlError {
    /// Where the problem is.
    pub pos: Pos,
    /// What the problem is.
    pub message: String,
}

impl TomlError {
    pub(crate) fn new(pos: Pos, message: impl Into<String>) -> TomlError {
        TomlError {
            pos,
            message: message.into(),
        }
    }
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.pos, self.message)
    }
}

impl std::error::Error for TomlError {}

/// A value plus the position it was written at.
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    /// Where the value starts in the source.
    pub pos: Pos,
    /// The value itself.
    pub value: Value,
}

/// A TOML value. Tables keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A basic or literal string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// An array (including an array of tables).
    Array(Vec<Spanned>),
    /// A table (standard, dotted, or inline).
    Table(Table),
}

impl Value {
    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// A numeric reading: integers widen to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Spanned]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The table, if this is a table.
    pub fn as_table(&self) -> Option<&Table> {
        match self {
            Value::Table(t) => Some(t),
            _ => None,
        }
    }

    /// A short name for error messages ("string", "integer", …).
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
            Value::Array(_) => "array",
            Value::Table(_) => "table",
        }
    }
}

/// An ordered table: `(key, value)` pairs in source order.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Where the table was opened (its header, first key, or `{`).
    pub pos: Pos,
    /// Entries in insertion order.
    pub entries: Vec<(String, Spanned)>,
}

impl Table {
    fn new(pos: Pos) -> Table {
        Table {
            pos,
            entries: Vec::new(),
        }
    }

    /// Look a key up.
    pub fn get(&self, key: &str) -> Option<&Spanned> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn get_mut(&mut self, key: &str) -> Option<&mut Spanned> {
        self.entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

/// Parse a TOML document into its root [`Table`].
pub fn parse(text: &str) -> Result<Table, TomlError> {
    Parser::new(text).document()
}

/// What a `[header]` path segment resolves to while navigating.
enum Walk {
    Table,
    ArrayOfTables,
}

struct Parser {
    chars: Vec<char>,
    idx: usize,
    line: usize,
    col: usize,
    /// Arrays and inline tables open around the cursor.
    depth: usize,
    /// Paths already opened by an explicit `[header]` — reopening one is
    /// an error (TOML's duplicate-table rule).
    defined_tables: Vec<Vec<String>>,
}

impl Parser {
    fn new(text: &str) -> Parser {
        Parser {
            chars: text.chars().collect(),
            idx: 0,
            line: 1,
            col: 1,
            depth: 0,
            defined_tables: Vec::new(),
        }
    }

    fn pos(&self) -> Pos {
        Pos {
            line: self.line,
            col: self.col,
        }
    }

    fn err(&self, pos: Pos, message: impl Into<String>) -> TomlError {
        TomlError::new(pos, message)
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.idx).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.idx += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    /// Skip spaces and tabs (not newlines) and a trailing `#` comment.
    fn skip_inline_ws(&mut self) {
        while let Some(c) = self.peek() {
            match c {
                ' ' | '\t' | '\r' => {
                    self.bump();
                }
                '#' => {
                    while let Some(c) = self.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    /// Skip whitespace, comments, and newlines.
    fn skip_ws(&mut self) {
        loop {
            self.skip_inline_ws();
            if self.peek() == Some('\n') {
                self.bump();
            } else {
                break;
            }
        }
    }

    /// After a header or key-value pair: only a comment may follow on the
    /// line.
    fn expect_line_end(&mut self) -> Result<(), TomlError> {
        self.skip_inline_ws();
        match self.peek() {
            None | Some('\n') => Ok(()),
            Some(c) => Err(self.err(
                self.pos(),
                format!("unexpected {c:?} (expected end of line)"),
            )),
        }
    }

    fn document(mut self) -> Result<Table, TomlError> {
        let mut root = Table::new(Pos { line: 1, col: 1 });
        // Path of the table new key-value pairs land in.
        let mut current: Vec<String> = Vec::new();
        loop {
            self.skip_ws();
            let Some(c) = self.peek() else { break };
            if c == '[' {
                let pos = self.pos();
                self.bump();
                let array = self.peek() == Some('[');
                if array {
                    self.bump();
                }
                self.skip_inline_ws();
                let path = self.key_path()?;
                self.skip_inline_ws();
                for _ in 0..(if array { 2 } else { 1 }) {
                    if self.peek() != Some(']') {
                        return Err(self.err(
                            self.pos(),
                            format!("unclosed {} header", if array { "[[…]]" } else { "[…]" }),
                        ));
                    }
                    self.bump();
                }
                self.expect_line_end()?;
                if array {
                    self.open_array_of_tables(&mut root, &path, pos)?;
                } else {
                    self.open_table(&mut root, &path, pos)?;
                }
                current = path;
            } else {
                let pos = self.pos();
                let path = self.key_path()?;
                self.skip_inline_ws();
                if self.peek() != Some('=') {
                    return Err(self.err(self.pos(), "expected `=` after key"));
                }
                self.bump();
                self.skip_inline_ws();
                let value = self.value()?;
                self.expect_line_end()?;
                let table = Self::navigate(&mut root, &current)
                    .ok_or_else(|| self.err(pos, "internal: current table vanished"))?;
                Self::insert(table, &path, value, pos)?;
            }
        }
        Ok(root)
    }

    /// Walk `root` to the table at `path`, entering the last element of
    /// any array-of-tables on the way. The path was validated when the
    /// header opened it, so this cannot fail in practice.
    fn navigate<'t>(root: &'t mut Table, path: &[String]) -> Option<&'t mut Table> {
        let mut t = root;
        for seg in path {
            let next = t.get_mut(seg)?;
            t = match &mut next.value {
                Value::Table(t) => t,
                Value::Array(items) => match &mut items.last_mut()?.value {
                    Value::Table(t) => t,
                    _ => return None,
                },
                _ => return None,
            };
        }
        Some(t)
    }

    /// `[a.b.c]`: create intermediate tables as needed; reject a reopened
    /// or value-shadowing path.
    fn open_table(&mut self, root: &mut Table, path: &[String], pos: Pos) -> Result<(), TomlError> {
        if self.defined_tables.iter().any(|p| p == path) {
            return Err(self.err(pos, format!("table `{}` defined twice", path.join("."))));
        }
        self.walk_create(root, path, pos, Walk::Table)?;
        self.defined_tables.push(path.to_vec());
        Ok(())
    }

    /// `[[a.b]]`: append a fresh table to the array at `path`.
    fn open_array_of_tables(
        &mut self,
        root: &mut Table,
        path: &[String],
        pos: Pos,
    ) -> Result<(), TomlError> {
        self.walk_create(root, path, pos, Walk::ArrayOfTables)
    }

    fn walk_create(
        &mut self,
        root: &mut Table,
        path: &[String],
        pos: Pos,
        leaf: Walk,
    ) -> Result<(), TomlError> {
        let mut t = root;
        for (i, seg) in path.iter().enumerate() {
            let last = i + 1 == path.len();
            let joined = || path[..=i].join(".");
            if t.get(seg).is_none() {
                let fresh = match (last, &leaf) {
                    (true, Walk::ArrayOfTables) => Value::Array(vec![Spanned {
                        pos,
                        value: Value::Table(Table::new(pos)),
                    }]),
                    _ => Value::Table(Table::new(pos)),
                };
                t.entries.push((seg.clone(), Spanned { pos, value: fresh }));
                let next = t.get_mut(seg).expect("just inserted");
                t = match &mut next.value {
                    Value::Table(t) => t,
                    Value::Array(items) => match &mut items.last_mut().expect("one elem").value {
                        Value::Table(t) => t,
                        _ => unreachable!("fresh array-of-tables holds a table"),
                    },
                    _ => unreachable!("fresh entry is a table or array"),
                };
                continue;
            }
            let next = t.get_mut(seg).expect("checked above");
            match (&mut next.value, last, &leaf) {
                (Value::Table(sub), false, _) | (Value::Table(sub), true, Walk::Table) => t = sub,
                (Value::Table(_), true, Walk::ArrayOfTables) => {
                    return Err(self.err(
                        pos,
                        format!("`{}` is a table, not an array of tables", joined()),
                    ));
                }
                (Value::Array(items), true, Walk::ArrayOfTables) => {
                    items.push(Spanned {
                        pos,
                        value: Value::Table(Table::new(pos)),
                    });
                    t = match &mut items.last_mut().expect("just pushed").value {
                        Value::Table(t) => t,
                        _ => unreachable!("just pushed a table"),
                    };
                }
                (Value::Array(items), _, _) => {
                    // Entering an existing array-of-tables mid-path, or
                    // `[a]` over an array: only the former is legal.
                    if last {
                        return Err(self.err(
                            pos,
                            format!("`{}` is an array of tables, not a table", joined()),
                        ));
                    }
                    t = match items.last_mut().map(|s| &mut s.value) {
                        Some(Value::Table(t)) => t,
                        _ => {
                            return Err(
                                self.err(pos, format!("`{}` is not a table array", joined()))
                            )
                        }
                    };
                }
                _ => {
                    return Err(self.err(pos, format!("`{}` is a value, not a table", joined())));
                }
            }
        }
        Ok(())
    }

    /// Insert `key = value` (with a possibly dotted key) into `table`.
    fn insert(
        table: &mut Table,
        path: &[String],
        value: Spanned,
        pos: Pos,
    ) -> Result<(), TomlError> {
        let mut t = table;
        for seg in &path[..path.len() - 1] {
            if t.get(seg).is_none() {
                t.entries.push((
                    seg.clone(),
                    Spanned {
                        pos,
                        value: Value::Table(Table::new(pos)),
                    },
                ));
            }
            let next = t.get_mut(seg).expect("just ensured");
            t = match &mut next.value {
                Value::Table(t) => t,
                _ => {
                    return Err(TomlError::new(
                        pos,
                        format!("key `{seg}` already holds a value, not a table"),
                    ))
                }
            };
        }
        let leaf = path.last().expect("non-empty key path");
        if t.get(leaf).is_some() {
            return Err(TomlError::new(pos, format!("duplicate key `{leaf}`")));
        }
        t.entries.push((leaf.clone(), value));
        Ok(())
    }

    /// A dotted key path: `a`, `a.b`, `"quoted".c`.
    fn key_path(&mut self) -> Result<Vec<String>, TomlError> {
        let mut path = vec![self.key()?];
        loop {
            self.skip_inline_ws();
            if self.peek() == Some('.') {
                if path.len() == MAX_DEPTH {
                    return Err(self.err(
                        self.pos(),
                        format!("key nested deeper than {MAX_DEPTH} levels"),
                    ));
                }
                self.bump();
                self.skip_inline_ws();
                path.push(self.key()?);
            } else {
                break;
            }
        }
        Ok(path)
    }

    fn key(&mut self) -> Result<String, TomlError> {
        match self.peek() {
            Some('"') => self.basic_string(),
            Some('\'') => self.literal_string(),
            Some(c) if c.is_ascii_alphanumeric() || c == '_' || c == '-' => {
                let mut s = String::new();
                while let Some(c) = self.peek() {
                    if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                        s.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                Ok(s)
            }
            _ => Err(self.err(self.pos(), "expected a key")),
        }
    }

    fn value(&mut self) -> Result<Spanned, TomlError> {
        let pos = self.pos();
        let value = match self.peek() {
            None => return Err(self.err(pos, "expected a value, found end of file")),
            Some('"') => Value::Str(self.basic_string()?),
            Some('\'') => Value::Str(self.literal_string()?),
            Some(open @ ('[' | '{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(pos, format!("nested deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if open == '[' {
                    self.array()?
                } else {
                    self.inline_table()?
                };
                self.depth -= 1;
                v
            }
            Some('t') | Some('f') => self.boolean()?,
            Some(c) if c.is_ascii_digit() || c == '+' || c == '-' || c == '.' => self.number()?,
            Some(c) => return Err(self.err(pos, format!("unexpected {c:?} (expected a value)"))),
        };
        Ok(Spanned { pos, value })
    }

    fn basic_string(&mut self) -> Result<String, TomlError> {
        let open = self.pos();
        self.bump(); // consume `"`
        if self.peek() == Some('"') {
            // Either the empty string or an (unsupported) `"""` string.
            self.bump();
            if self.peek() == Some('"') {
                return Err(self.err(open, "multi-line strings are not supported"));
            }
            return Ok(String::new());
        }
        let mut s = String::new();
        loop {
            let at = self.pos();
            match self.bump() {
                None => return Err(self.err(open, "unterminated string")),
                Some('\n') => return Err(self.err(open, "unterminated string")),
                Some('"') => break,
                Some('\\') => {
                    let esc = self
                        .bump()
                        .ok_or_else(|| self.err(open, "unterminated string"))?;
                    s.push(match esc {
                        '"' => '"',
                        '\\' => '\\',
                        'n' => '\n',
                        't' => '\t',
                        'r' => '\r',
                        'u' | 'U' => {
                            let len = if esc == 'u' { 4 } else { 8 };
                            let mut code = 0u32;
                            for _ in 0..len {
                                let h = self
                                    .bump()
                                    .and_then(|c| c.to_digit(16))
                                    .ok_or_else(|| self.err(at, "bad \\u escape"))?;
                                code = code * 16 + h;
                            }
                            char::from_u32(code)
                                .ok_or_else(|| self.err(at, "bad \\u escape (not a scalar)"))?
                        }
                        other => {
                            return Err(self.err(at, format!("unknown escape \\{other}")));
                        }
                    });
                }
                Some(c) => s.push(c),
            }
        }
        Ok(s)
    }

    fn literal_string(&mut self) -> Result<String, TomlError> {
        let open = self.pos();
        self.bump(); // consume `'`
        let mut s = String::new();
        loop {
            match self.bump() {
                None | Some('\n') => return Err(self.err(open, "unterminated string")),
                Some('\'') => break,
                Some(c) => s.push(c),
            }
        }
        Ok(s)
    }

    fn boolean(&mut self) -> Result<Value, TomlError> {
        let pos = self.pos();
        let word = self.bare_word();
        match word.as_str() {
            "true" => Ok(Value::Bool(true)),
            "false" => Ok(Value::Bool(false)),
            _ => Err(self.err(pos, format!("expected a value, found `{word}`"))),
        }
    }

    fn bare_word(&mut self) -> String {
        let mut s = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.' || c == '+' {
                s.push(c);
                self.bump();
            } else {
                break;
            }
        }
        s
    }

    fn number(&mut self) -> Result<Value, TomlError> {
        let pos = self.pos();
        let raw = self.bare_word();
        let clean: String = raw.chars().filter(|&c| c != '_').collect();
        let is_float = clean.contains('.')
            || ((clean.contains('e') || clean.contains('E'))
                && !clean.starts_with("0x")
                && !clean.starts_with("0b"));
        if is_float {
            clean
                .parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err(pos, format!("bad float `{raw}`")))
        } else {
            clean
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|_| self.err(pos, format!("bad integer `{raw}`")))
        }
    }

    /// `[v, v, …]`, possibly spanning lines, trailing comma allowed.
    fn array(&mut self) -> Result<Value, TomlError> {
        let open = self.pos();
        self.bump(); // consume `[`
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                None => return Err(self.err(open, "unclosed array")),
                Some(']') => {
                    self.bump();
                    break;
                }
                _ => {}
            }
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(',') => {
                    self.bump();
                }
                Some(']') => {
                    self.bump();
                    break;
                }
                None => return Err(self.err(open, "unclosed array")),
                Some(c) => {
                    return Err(self.err(
                        self.pos(),
                        format!("unexpected {c:?} in array (expected `,` or `]`)"),
                    ))
                }
            }
        }
        Ok(Value::Array(items))
    }

    /// `{ k = v, … }` on one line.
    fn inline_table(&mut self) -> Result<Value, TomlError> {
        let open = self.pos();
        self.bump(); // consume `{`
        let mut table = Table::new(open);
        self.skip_inline_ws();
        if self.peek() == Some('}') {
            self.bump();
            return Ok(Value::Table(table));
        }
        loop {
            self.skip_inline_ws();
            let pos = self.pos();
            if self.peek() == Some('\n') || self.peek().is_none() {
                return Err(self.err(open, "unclosed inline table (must fit on one line)"));
            }
            let path = self.key_path()?;
            self.skip_inline_ws();
            if self.peek() != Some('=') {
                return Err(self.err(self.pos(), "expected `=` after key"));
            }
            self.bump();
            self.skip_inline_ws();
            let value = self.value()?;
            Self::insert(&mut table, &path, value, pos)?;
            self.skip_inline_ws();
            match self.peek() {
                Some(',') => {
                    self.bump();
                }
                Some('}') => {
                    self.bump();
                    break;
                }
                _ => {
                    return Err(self.err(
                        self.pos(),
                        "expected `,` or `}` in inline table".to_string(),
                    ))
                }
            }
        }
        Ok(Value::Table(table))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(err: &TomlError) -> (usize, usize) {
        (err.pos.line, err.pos.col)
    }

    #[test]
    fn scalars_parse() {
        let t = parse(
            "s = \"hi\"\nlit = 'raw\\n'\ni = 42\nneg = -3\nsep = 1_000\nf = 2.5\ne = 1e3\nb = true\nb2 = false\n",
        )
        .unwrap();
        assert_eq!(t.get("s").unwrap().value.as_str(), Some("hi"));
        assert_eq!(t.get("lit").unwrap().value.as_str(), Some("raw\\n"));
        assert_eq!(t.get("i").unwrap().value.as_int(), Some(42));
        assert_eq!(t.get("neg").unwrap().value.as_int(), Some(-3));
        assert_eq!(t.get("sep").unwrap().value.as_int(), Some(1000));
        assert_eq!(t.get("f").unwrap().value.as_f64(), Some(2.5));
        assert_eq!(t.get("e").unwrap().value.as_f64(), Some(1000.0));
        assert_eq!(t.get("b").unwrap().value.as_bool(), Some(true));
        assert_eq!(t.get("b2").unwrap().value.as_bool(), Some(false));
    }

    #[test]
    fn tables_and_dotted_headers() {
        let t = parse("[a]\nx = 1\n[a.b]\ny = 2\n[scale.tiny]\nd = 2\n").unwrap();
        let a = t.get("a").unwrap().value.as_table().unwrap();
        assert_eq!(a.get("x").unwrap().value.as_int(), Some(1));
        let b = a.get("b").unwrap().value.as_table().unwrap();
        assert_eq!(b.get("y").unwrap().value.as_int(), Some(2));
        let scale = t.get("scale").unwrap().value.as_table().unwrap();
        assert!(scale.get("tiny").is_some());
    }

    #[test]
    fn arrays_of_tables_accumulate() {
        let t = parse("[[axis]]\nname = \"a\"\n[[axis]]\nname = \"b\"\n").unwrap();
        let axes = t.get("axis").unwrap().value.as_array().unwrap();
        assert_eq!(axes.len(), 2);
        let names: Vec<&str> = axes
            .iter()
            .map(|a| {
                a.value
                    .as_table()
                    .unwrap()
                    .get("name")
                    .unwrap()
                    .value
                    .as_str()
                    .unwrap()
            })
            .collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn nested_arrays_of_tables() {
        let t = parse(
            "[[axis]]\nname = \"link\"\n[[axis.values]]\nlabel = \"x\"\n[[axis.values]]\nlabel = \"y\"\n[[axis]]\nname = \"other\"\n",
        )
        .unwrap();
        let axes = t.get("axis").unwrap().value.as_array().unwrap();
        assert_eq!(axes.len(), 2);
        let first = axes[0].value.as_table().unwrap();
        let values = first.get("values").unwrap().value.as_array().unwrap();
        assert_eq!(values.len(), 2);
        assert!(axes[1].value.as_table().unwrap().get("values").is_none());
    }

    #[test]
    fn multiline_arrays_and_inline_tables() {
        let t = parse(
            "steps = [\n  [0.0, 6.0],  # comment\n  [1.0, 18.0],\n]\nlink = { constant_mbps = 12.0 }\n",
        )
        .unwrap();
        let steps = t.get("steps").unwrap().value.as_array().unwrap();
        assert_eq!(steps.len(), 2);
        let link = t.get("link").unwrap().value.as_table().unwrap();
        assert_eq!(
            link.get("constant_mbps").unwrap().value.as_f64(),
            Some(12.0)
        );
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let t = parse("# header\n\na = 1 # trailing\n\n# tail\n").unwrap();
        assert_eq!(t.get("a").unwrap().value.as_int(), Some(1));
    }

    #[test]
    fn positions_are_line_and_column() {
        let t = parse("a = 1\n  b = \"x\"\n").unwrap();
        assert_eq!(t.get("a").unwrap().pos, Pos { line: 1, col: 5 });
        assert_eq!(t.get("b").unwrap().pos, Pos { line: 2, col: 7 });
    }

    #[test]
    fn error_garbage_value() {
        let e = parse("a = @").unwrap_err();
        assert_eq!(at(&e), (1, 5));
    }

    #[test]
    fn error_unterminated_string_points_at_open_quote() {
        let e = parse("a = 1\nb = \"oops\n").unwrap_err();
        assert_eq!(at(&e), (2, 5));
    }

    #[test]
    fn error_duplicate_key() {
        let e = parse("a = 1\na = 2\n").unwrap_err();
        assert_eq!(at(&e), (2, 1));
        assert!(e.message.contains("duplicate key"), "{e}");
    }

    #[test]
    fn error_duplicate_table() {
        let e = parse("[t]\na = 1\n[t]\nb = 2\n").unwrap_err();
        assert_eq!(at(&e), (3, 1));
        assert!(e.message.contains("defined twice"), "{e}");
    }

    #[test]
    fn error_missing_equals() {
        let e = parse("a 1\n").unwrap_err();
        assert_eq!(at(&e), (1, 3));
        assert!(e.message.contains("expected `=`"), "{e}");
    }

    #[test]
    fn error_trailing_junk_after_value() {
        let e = parse("a = 1 2\n").unwrap_err();
        assert_eq!(at(&e), (1, 7));
    }

    #[test]
    fn error_unclosed_array() {
        let e = parse("a = [1, 2\n").unwrap_err();
        assert_eq!(at(&e), (1, 5));
        assert!(e.message.contains("unclosed array"), "{e}");
    }

    #[test]
    fn error_inline_table_must_be_single_line() {
        let e = parse("a = { x = 1,\n y = 2 }\n").unwrap_err();
        assert_eq!(at(&e), (1, 5));
        assert!(e.message.contains("one line"), "{e}");
    }

    #[test]
    fn error_bad_number() {
        let e = parse("a = 1.2.3\n").unwrap_err();
        assert_eq!(at(&e), (1, 5));
        assert!(e.message.contains("bad float"), "{e}");
    }

    #[test]
    fn error_multiline_string_unsupported() {
        let e = parse("a = \"\"\"x\"\"\"\n").unwrap_err();
        assert!(e.message.contains("multi-line"), "{e}");
    }

    #[test]
    fn error_array_of_tables_over_table() {
        let e = parse("[t]\na = 1\n[[t]]\nb = 2\n").unwrap_err();
        assert_eq!(at(&e), (3, 1));
    }

    #[test]
    fn error_deep_nesting_is_positioned_not_a_stack_overflow() {
        let e = parse(&format!("a = {}", "[".repeat(200_000))).unwrap_err();
        assert_eq!(at(&e), (1, 5 + MAX_DEPTH), "{e}");
        let e = parse(&format!("a = {}", "{ b = ".repeat(200_000))).unwrap_err();
        assert!(e.message.contains("nested deeper"), "{e}");
        let e = parse(&format!("{} = 1", ["k"; 200_000].join("."))).unwrap_err();
        assert!(e.message.contains("nested deeper"), "{e}");
        let ok = format!("a = {}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn display_includes_line_and_column() {
        let e = parse("a = @").unwrap_err();
        assert_eq!(
            format!("{e}"),
            "line 1, column 5: unexpected '@' (expected a value)"
        );
    }
}
