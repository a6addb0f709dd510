//! # aqm — active queue management baselines
//!
//! The AQMs the paper pairs with Cubic: [`codel`] (Cubic+Codel) and
//! [`pie`] (Cubic+PIE). Each implements [`netsim::queue::Qdisc`] and
//! supports both drop and ECN-marking modes.
//! §2's point about these schemes — they can signal *decreases* early but
//! have no way to signal *increases* — is what the Fig. 1c / Fig. 8
//! underutilization results exhibit.

pub mod codel;
pub mod pie;

pub use codel::{Codel, CodelConfig};
pub use pie::{Pie, PieConfig};
