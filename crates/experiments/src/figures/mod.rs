//! The scale every figure and preset is built at: [`Scale::Full`] (paper
//! scale, `figgen`'s default), [`Scale::Fast`] (reduced, for benches and
//! local iteration), or [`Scale::Tiny`] (≤ 2 s of simulated time per
//! scenario, for smoke tests and CI wiring checks).
//!
//! The figures themselves — one campaign preset plus a pure renderer each
//! — live in the `campaign` crate, whose `figures::all()` is the index
//! `figgen` serves.

use netsim::time::SimDuration;

/// How much simulated time a figure run spends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper scale — what `figgen` renders by default (see the README).
    Full,
    /// Reduced scale for benches and quick local runs.
    Fast,
    /// ≤ 2 s of simulated time per scenario: only checks the wiring.
    Tiny,
}

impl Scale {
    /// Pick a value per scale.
    pub fn pick<T>(self, full: T, fast: T, tiny: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Fast => fast,
            Scale::Tiny => tiny,
        }
    }

    /// Pick a duration (seconds) per scale.
    pub fn secs(self, full: u64, fast: u64, tiny: u64) -> SimDuration {
        SimDuration::from_secs(self.pick(full, fast, tiny))
    }

    /// Anything below paper scale.
    pub fn reduced(self) -> bool {
        self != Scale::Full
    }
}
