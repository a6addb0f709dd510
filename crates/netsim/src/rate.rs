//! Link and flow rate primitives (bits per second).

use crate::time::SimDuration;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A data rate in bits per second.
///
/// Rates are `f64` internally: unlike time, rates enter multiplicative
/// control laws (`η·µ`, `tr/2cr`) where exactness buys nothing and integer
/// quantization would distort small fractions.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Rate(f64);

impl Rate {
    /// No throughput at all (a stalled link).
    pub const ZERO: Rate = Rate(0.0);

    /// A rate of `bps` bits per second.
    #[inline]
    pub fn from_bps(bps: f64) -> Self {
        debug_assert!(bps >= 0.0 && bps.is_finite(), "invalid rate: {bps}");
        Rate(bps)
    }

    /// A rate of `mbps` megabits per second.
    #[inline]
    pub fn from_mbps(mbps: f64) -> Self {
        Self::from_bps(mbps * 1e6)
    }

    /// Rate implied by transmitting `bytes` in `dur`. Zero duration yields
    /// zero rate (callers probe empty measurement windows).
    #[inline]
    pub fn from_bytes_per(bytes: u64, dur: SimDuration) -> Self {
        if dur.is_zero() {
            Rate::ZERO
        } else {
            Rate(bytes as f64 * 8.0 / dur.as_secs_f64())
        }
    }

    /// The rate in bits per second.
    #[inline]
    pub fn bps(self) -> f64 {
        self.0
    }

    /// The rate in megabits per second.
    #[inline]
    pub fn mbps(self) -> f64 {
        self.0 / 1e6
    }

    /// True for a stalled (zero) rate.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 <= 0.0
    }

    /// Time to serialize `bytes` at this rate. Infinite (far-future) for a
    /// zero rate, so stalled links park rather than divide by zero.
    #[inline]
    pub fn tx_time(self, bytes: u32) -> SimDuration {
        if self.is_zero() {
            SimDuration::MAX
        } else {
            SimDuration::from_secs_f64(bytes as f64 * 8.0 / self.0)
        }
    }

    /// Bits deliverable in `dur` at this rate.
    #[inline]
    pub fn bits_in(self, dur: SimDuration) -> f64 {
        self.0 * dur.as_secs_f64()
    }

    /// The slower of the two rates.
    #[inline]
    pub fn min(self, other: Rate) -> Rate {
        Rate(self.0.min(other.0))
    }

    /// The faster of the two rates.
    #[inline]
    pub fn max(self, other: Rate) -> Rate {
        Rate(self.0.max(other.0))
    }

    /// The rate restricted to `[lo, hi]`.
    #[inline]
    pub fn clamp(self, lo: Rate, hi: Rate) -> Rate {
        Rate(self.0.clamp(lo.0, hi.0))
    }
}

impl Add for Rate {
    type Output = Rate;
    #[inline]
    fn add(self, rhs: Rate) -> Rate {
        Rate(self.0 + rhs.0)
    }
}

impl AddAssign for Rate {
    #[inline]
    fn add_assign(&mut self, rhs: Rate) {
        self.0 += rhs.0;
    }
}

impl Sub for Rate {
    type Output = Rate;
    /// Saturates at zero: spare-capacity computations (`C − y` in XCP/RCP)
    /// treat overload as zero spare rather than negative rate.
    #[inline]
    fn sub(self, rhs: Rate) -> Rate {
        Rate((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Rate {
    type Output = Rate;
    #[inline]
    fn mul(self, rhs: f64) -> Rate {
        Rate((self.0 * rhs).max(0.0))
    }
}

impl Div<f64> for Rate {
    type Output = Rate;
    #[inline]
    fn div(self, rhs: f64) -> Rate {
        Rate(self.0 / rhs)
    }
}

/// Ratio of two rates (e.g. `tr/cr` in ABC's marking fraction).
impl Div<Rate> for Rate {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Rate) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Rate {
    fn sum<I: Iterator<Item = Rate>>(iter: I) -> Rate {
        Rate(iter.map(|r| r.0).sum())
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e6 {
            write!(f, "{:.3} Mbit/s", self.0 / 1e6)
        } else if self.0 >= 1e3 {
            write!(f, "{:.3} kbit/s", self.0 / 1e3)
        } else {
            write!(f, "{:.1} bit/s", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_time_of_mtu_at_12mbps() {
        let r = Rate::from_mbps(12.0);
        let t = r.tx_time(1500);
        assert_eq!(t.as_nanos(), 1_000_000); // 1500*8/12e6 = 1 ms
    }

    #[test]
    fn zero_rate_parks_transmission() {
        assert_eq!(Rate::ZERO.tx_time(1500), SimDuration::MAX);
    }

    #[test]
    fn from_bytes_per_window() {
        let r = Rate::from_bytes_per(1_500_000, SimDuration::from_secs(1));
        assert!((r.mbps() - 12.0).abs() < 1e-9);
        assert_eq!(Rate::from_bytes_per(100, SimDuration::ZERO), Rate::ZERO);
    }

    #[test]
    fn subtraction_saturates() {
        let a = Rate::from_mbps(5.0);
        let b = Rate::from_mbps(7.0);
        assert_eq!(a - b, Rate::ZERO);
        assert!(((b - a).mbps() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn bits_in_window() {
        let r = Rate::from_mbps(24.0);
        assert!((r.bits_in(SimDuration::from_millis(500)) - 12e6).abs() < 1.0);
    }

    #[test]
    fn ratio_and_scale() {
        let tr = Rate::from_mbps(9.0);
        let cr = Rate::from_mbps(12.0);
        assert!((tr / cr - 0.75).abs() < 1e-12);
        assert!(((cr * 0.5).mbps() - 6.0).abs() < 1e-12);
    }
}
