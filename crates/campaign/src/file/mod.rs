//! # User-defined campaigns from TOML files
//!
//! The built-in [`presets`](crate::presets) cover the paper's sweeps,
//! but a sweep engine is only general once users can drive it without
//! writing Rust. This module loads a `campaign.toml` — a base scenario,
//! named axes, declarative filters, and per-[`Scale`] overrides — into
//! the exact same [`Campaign`] type the presets build, so everything
//! downstream (expansion, the parallel runner, the JSONL store, resume,
//! sharding, merge, diff, figures) works on file-defined campaigns
//! unchanged. `abc-campaign run --file sweep.toml` is the CLI entry.
//!
//! Two layers:
//!
//! * [`toml`] — a zero-dependency parser for the TOML subset campaign
//!   files need (the workspace builds offline, so no `toml` crate);
//! * [`schema`] — compiles the parsed tree into a [`Campaign`], with
//!   every diagnostic carrying the line/column of the offending key.
//!
//! The format reference lives in `docs/campaign-file.md`; committed
//! examples live in `examples/campaigns/`. The TOML-expressed `tiny`
//! campaign is pinned byte-identical to the preset-built one in CI.
//!
//! ```
//! use campaign::file;
//! use experiments::figures::Scale;
//!
//! let c = file::from_str(r#"
//!     [campaign]
//!     name = "quick"
//!
//!     [base]
//!     link = { constant_mbps = 12.0 }
//!     duration_s = 2
//!
//!     [[axis]]
//!     name = "scheme"
//!     schemes = ["ABC", "Cubic"]
//! "#, Scale::Tiny).unwrap();
//! assert_eq!(c.name, "quick");
//! assert_eq!(c.expand().len(), 2);
//!
//! // Malformed files fail with a line/column diagnostic:
//! let err = file::from_str("[campaign]\nname = 42\n", Scale::Tiny).unwrap_err();
//! assert!(err.to_string().contains("line 2"));
//! ```

pub mod schema;
pub mod toml;

use crate::spec::Campaign;
use experiments::figures::Scale;
use std::fmt;
use std::path::Path;

pub use toml::{Pos, TomlError};

/// Why a campaign file failed to load.
#[derive(Debug)]
pub enum FileError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The file read fine but does not describe a valid campaign; the
    /// error carries the line/column of the offending token.
    Parse(TomlError),
}

impl fmt::Display for FileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FileError::Io(e) => write!(f, "{e}"),
            FileError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FileError {}

impl From<TomlError> for FileError {
    fn from(e: TomlError) -> Self {
        FileError::Parse(e)
    }
}

impl From<std::io::Error> for FileError {
    fn from(e: std::io::Error) -> Self {
        FileError::Io(e)
    }
}

/// Compile campaign-file text into a [`Campaign`]. `scale` selects
/// which `[scale.*]` override table (if any) applies on top of
/// `[base]`.
pub fn from_str(text: &str, scale: Scale) -> Result<Campaign, FileError> {
    Ok(schema::from_str(text, scale)?)
}

/// [`from_str`] for a file on disk.
pub fn load(path: impl AsRef<Path>, scale: Scale) -> Result<Campaign, FileError> {
    let text = std::fs::read_to_string(path)?;
    from_str(&text, scale)
}
