//! Simulation time primitives.
//!
//! All simulation time is integer nanoseconds since the start of the run.
//! Integer time (rather than `f64` seconds) keeps event ordering exact and
//! runs bit-reproducible: two events scheduled for the same instant compare
//! equal and fall back to a deterministic sequence-number tie-break.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in simulated time (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

/// Nanoseconds per second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;
/// Nanoseconds per millisecond.
pub const NANOS_PER_MILLI: u64 = 1_000_000;
/// Nanoseconds per microsecond.
pub const NANOS_PER_MICRO: u64 = 1_000;

/// `x.round() as u64` — nearest integer, ties away from zero, saturating,
/// NaN and negatives to 0 — without `f64::round`, which on baseline
/// x86-64 (no SSE4.1) is a call into a software routine. Exact: `x − t`
/// is the fraction truncation dropped, computed without error; from 2⁵²
/// up every double is an integer, so the half-step test fires there only
/// past 2⁶⁴, where the cast already saturated and so does the add.
#[inline]
fn round_u64(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add((x - t as f64 >= 0.5) as u64)
}

impl SimTime {
    /// The simulation's start instant.
    pub const ZERO: SimTime = SimTime(0);
    /// A sentinel far in the future (~584 years of simulated time).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// The instant `ns` nanoseconds after simulation start.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The instant `s` (fractional) seconds after simulation start,
    /// rounded to the nearest nanosecond.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "negative SimTime");
        SimTime(round_u64(s * NANOS_PER_SEC as f64))
    }

    /// Seconds since simulation start (lossy above 2⁵³ ns).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Milliseconds since simulation start (lossy above 2⁵³ ns).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    /// Duration elapsed since `earlier`. Saturates to zero if `earlier` is
    /// in the future (callers comparing clocks across nodes never want a
    /// panic on a 1-ns inversion).
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// `self − d`, clamped at the simulation's start instant.
    #[inline]
    pub fn saturating_sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(d.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable span (~584 years).
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// A span of `ns` nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// A span of `us` microseconds, saturating at [`SimDuration::MAX`]
    /// (so an out-of-range configured value cannot overflow).
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us.saturating_mul(NANOS_PER_MICRO))
    }

    /// A span of `ms` milliseconds, saturating at [`SimDuration::MAX`].
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms.saturating_mul(NANOS_PER_MILLI))
    }

    /// A span of `s` seconds, saturating at [`SimDuration::MAX`].
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s.saturating_mul(NANOS_PER_SEC))
    }

    /// A span of `s` (fractional) seconds, rounded to the nearest
    /// nanosecond.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0 && s.is_finite(), "invalid SimDuration: {s}");
        SimDuration(round_u64(s * NANOS_PER_SEC as f64))
    }

    /// A span of `ms` (fractional) milliseconds, rounded to the nearest
    /// nanosecond.
    #[inline]
    pub fn from_millis_f64(ms: f64) -> Self {
        Self::from_secs_f64(ms / 1e3)
    }

    /// The span in whole nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in seconds (lossy above 2⁵³ ns).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// The span in milliseconds (lossy above 2⁵³ ns).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    /// True for the empty span.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// `self − other`, clamped at zero.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// The span scaled by a non-negative factor, rounded to the nearest
    /// nanosecond.
    #[inline]
    pub fn mul_f64(self, k: f64) -> SimDuration {
        debug_assert!(k >= 0.0 && k.is_finite());
        SimDuration(round_u64(self.0 as f64 * k))
    }

    /// The shorter of the two spans.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// The longer of the two spans.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Panics in debug if `rhs` is later than `self`; use [`SimTime::since`]
    /// for the saturating form.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self >= rhs, "SimTime subtraction underflow");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(self >= rhs, "SimDuration subtraction underflow");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

/// Ratio of two durations as `f64` (e.g. `x(t)/δ` in ABC's target rate).
impl Div<SimDuration> for SimDuration {
    type Output = f64;
    #[inline]
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 as f64 / rhs.0 as f64
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= NANOS_PER_SEC {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= NANOS_PER_MILLI {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let d = SimDuration::from_millis(133);
        assert_eq!(d.as_nanos(), 133_000_000);
        assert!((d.as_secs_f64() - 0.133).abs() < 1e-12);
        assert!((d.as_millis_f64() - 133.0).abs() < 1e-12);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_secs(2);
        let u = t + SimDuration::from_millis(500);
        assert_eq!((u - t).as_millis_f64(), 500.0);
        assert_eq!(u.since(t), SimDuration::from_millis(500));
        // saturating in the reverse direction
        assert_eq!(t.since(u), SimDuration::ZERO);
    }

    #[test]
    fn duration_ratio() {
        let x = SimDuration::from_millis(40);
        let delta = SimDuration::from_millis(133);
        assert!((x / delta - 40.0 / 133.0).abs() < 1e-12);
    }

    #[test]
    fn mul_f64_rounds() {
        let d = SimDuration::from_nanos(3);
        assert_eq!(d.mul_f64(0.5).as_nanos(), 2); // rounds half up
        assert_eq!(
            SimDuration::from_secs(1).mul_f64(2.0 / 3.0).as_nanos(),
            666_666_667
        );
    }

    #[test]
    fn round_u64_is_round_then_cast() {
        let check =
            |x: f64| assert_eq!(round_u64(x), x.round() as u64, "{x:e} ({:#x})", x.to_bits());
        let two = |e: i32| 2f64.powi(e);
        let mut edges = vec![
            0.0,
            -0.0,
            -0.4,
            -0.5,
            -0.6,
            -1.0,
            -1e300,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            0.5f64.next_down(),
            0.5f64.next_up(),
            two(52),
            two(52) + 1.0,
            two(53).next_down(),
            two(53),
            two(64).next_down(),
            two(64),
            two(64).next_up(),
            1e300,
            f64::MAX,
        ];
        for k in [0u64, 1, 2, 7, 1_000_000, (1 << 52) - 1] {
            let k = k as f64;
            edges.extend([
                k + 0.5,
                (k + 0.5).next_down(),
                (k + 0.5).next_up(),
                -(k + 0.5),
            ]);
        }
        edges.into_iter().for_each(check);
        // Seeded doubles: raw bit patterns (every exponent, NaNs, both
        // signs), then the ranges the simulator converts (ns counts).
        let mut x: u64 = 0x853C_49E6_748F_EA9B;
        for i in 0..1_000_000u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            check(match i % 2 {
                0 => f64::from_bits(x),
                _ => (x >> 11) as f64 / two(53) * two((x % 70) as i32),
            });
        }
    }

    #[test]
    fn from_secs_f64_round_trips() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        let d = SimDuration::from_secs_f64(0.000_000_001);
        assert_eq!(d.as_nanos(), 1);
    }

    #[test]
    fn saturating_ops_do_not_wrap() {
        assert_eq!(SimTime::MAX + SimDuration::from_secs(1), SimTime::MAX);
        assert_eq!(
            SimTime::ZERO.saturating_sub(SimDuration::from_secs(1)),
            SimTime::ZERO
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_millis(5)), "5.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", SimDuration::from_nanos(17)), "17ns");
    }
}
