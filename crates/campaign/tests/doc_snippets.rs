//! `docs/campaign-file.md` cannot drift from the implementation: every
//! ```toml fenced block in it must parse, blocks that declare a
//! `[campaign]` must also compile into a `Campaign`, and its generated
//! key tables must equal what the schema's descriptor tables render.

use campaign::file::{self, schema, toml};
use experiments::figures::Scale;
use experiments::Scheme;
use std::path::Path;

fn reference() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("docs/campaign-file.md");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The ```toml fenced blocks of a markdown document, with the line
/// each starts at (for error reporting).
fn toml_blocks(markdown: &str) -> Vec<(usize, String)> {
    let mut blocks = Vec::new();
    let mut current: Option<(usize, String)> = None;
    for (i, line) in markdown.lines().enumerate() {
        let fence = line.trim_start();
        match &mut current {
            None => {
                if fence == "```toml" {
                    current = Some((i + 2, String::new()));
                }
            }
            Some((_, body)) => {
                if fence == "```" {
                    blocks.push(current.take().expect("block open"));
                } else {
                    body.push_str(line);
                    body.push('\n');
                }
            }
        }
    }
    assert!(current.is_none(), "unclosed ```toml fence");
    blocks
}

#[test]
fn every_toml_snippet_in_the_format_reference_parses() {
    let blocks = toml_blocks(&reference());
    assert!(
        blocks.len() >= 10,
        "expected a reference full of examples, found {} toml blocks",
        blocks.len()
    );
    let mut full_campaigns = 0;
    for (line, body) in &blocks {
        // Every snippet must be valid TOML…
        toml::parse(body)
            .unwrap_or_else(|e| panic!("snippet at line {line} does not parse: {e}\n{body}"));
        // …and complete campaigns must compile end to end.
        if body.contains("[campaign]") {
            full_campaigns += 1;
            for scale in [Scale::Full, Scale::Fast, Scale::Tiny] {
                let c = file::from_str(body, scale).unwrap_or_else(|e| {
                    panic!("campaign snippet at line {line} does not compile: {e}\n{body}")
                });
                assert!(
                    !c.expand().is_empty(),
                    "campaign snippet at line {line} expands to nothing"
                );
            }
        }
    }
    assert!(
        full_campaigns >= 1,
        "the reference should contain at least one complete campaign"
    );
}

/// A markdown table: a header row, then one row per entry.
fn markdown_table(header: [&str; 3], rows: impl Iterator<Item = [String; 3]>) -> String {
    let mut out = format!("| {} |\n|---|---|---|\n", header.join(" | "));
    for row in rows {
        out.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    out
}

#[test]
fn generated_key_tables_match_the_schema() {
    let doc = reference();
    let base = markdown_table(
        ["key", "type", "meaning"],
        schema::SETTINGS
            .iter()
            .map(|s| [format!("`{}`", s.key), s.ty.to_string(), s.doc.to_string()]),
    );
    let impairments = markdown_table(
        ["`kind`", "parameters", "behavior"],
        schema::IMPAIRMENT_KINDS.iter().map(|k| {
            let params: Vec<String> = k
                .params()
                .map(|(p, required)| match required {
                    true => format!("`{p}`"),
                    false => format!("optional `{p}`"),
                })
                .collect();
            [
                format!("`{}`", k.kind()),
                params.join(", "),
                k.doc.to_string(),
            ]
        }),
    );
    for (name, table) in [("base", base), ("impairments", impairments)] {
        let open = format!("<!-- keys:{name} -->\n");
        let close = format!("<!-- /keys:{name} -->");
        let start = doc.find(&open).map(|i| i + open.len());
        let end = doc.find(&close);
        let (Some(start), Some(end)) = (start, end) else {
            panic!("docs/campaign-file.md lacks the {open:?} … {close:?} markers");
        };
        assert_eq!(
            &doc[start..end],
            table,
            "the generated `{name}` table in docs/campaign-file.md drifted from the schema"
        );
    }
}

#[test]
fn the_scheme_doc_names_every_fixed_scheme() {
    let doc = schema::SETTINGS
        .iter()
        .find(|s| s.key == "scheme")
        .expect("a `scheme` setting")
        .doc;
    for s in Scheme::ALL {
        let name = s.name();
        assert_eq!(Scheme::from_name(&name), Some(s), "{name}");
        assert!(
            doc.contains(&format!("`{name}`")),
            "the `scheme` doc omits {name}"
        );
    }
}
