//! # cellular — trace-driven cellular link emulation
//!
//! The Mahimahi-style substrate for the paper's cellular experiments:
//!
//! * [`trace`] — the Mahimahi packet-delivery-trace format (parser/writer)
//!   and conversion into the simulator's trace-driven link;
//! * [`synth`] — seeded synthetic traces with the published statistical
//!   character of the paper's eight carrier captures (see the crate map
//!   in `docs/ARCHITECTURE.md`).

pub mod peruser;
pub mod synth;
pub mod trace;

pub use peruser::PerUserLink;
pub use synth::{all_builtin, builtin, builtin_specs, SynthSpec};
pub use trace::{CellTrace, TraceError};
