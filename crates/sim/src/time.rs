//! Simulation clock types.
//!
//! The whole simulation runs on a single integer clock with a resolution of
//! **1 tick = 1 millisecond**. Integer time keeps event ordering exact and
//! reproducible; floating-point time would make run-to-run determinism depend
//! on summation order.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Number of ticks per simulated second.
pub(crate) const TICKS_PER_SEC: u64 = 1_000;

/// An absolute instant on the simulation clock, in ticks since time zero.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulation time, in ticks.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the simulation clock.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from raw ticks (milliseconds).
    #[inline]
    pub const fn from_ticks(ticks: u64) -> Self {
        SimTime(ticks)
    }

    /// Construct from whole simulated seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * TICKS_PER_SEC)
    }

    /// The raw tick count.
    #[inline]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// This instant expressed in (fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / TICKS_PER_SEC as f64
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`; a negative elapsed time is
    /// always a simulation bug.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since: earlier instant is in the future"),
        )
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The maximum representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw ticks (milliseconds).
    #[inline]
    pub const fn from_ticks(ticks: u64) -> Self {
        SimDuration(ticks)
    }

    /// Construct from whole simulated milliseconds (alias of `from_ticks`).
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Construct from whole simulated seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * TICKS_PER_SEC)
    }

    /// Construct from fractional seconds, rounding to the nearest tick.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimDuration::from_secs_f64: duration must be finite and non-negative, got {secs}"
        );
        SimDuration((secs * TICKS_PER_SEC as f64).round() as u64)
    }

    /// The raw tick count.
    #[inline]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// This duration expressed in (fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / TICKS_PER_SEC as f64
    }

    /// True if this duration is zero ticks long.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scale by a non-negative float factor, rounding to the nearest tick.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "SimDuration::mul_f64: factor must be finite and non-negative, got {factor}"
        );
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

/// Whole ticks to cover `q` fractional ticks: `q` rounded up, clamped to
/// `[0, u64::MAX]`, with NaN mapping to 0.
///
/// Equal to `q.ceil().max(0.0) as u64` for every input, without the libm
/// `ceil` call: the saturating cast truncates, and one comparison adds the
/// missing tick. The add saturates, since above 2⁶⁴ the cast already
/// returns `u64::MAX`.
#[inline]
pub fn ceil_ticks(q: f64) -> u64 {
    let t = q as u64;
    t.saturating_add(((t as f64) < q) as u64)
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(d.0)
                .expect("SimTime overflow: schedule horizon exceeded"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_add(rhs.0)
                .expect("SimDuration overflow while adding durations"),
        )
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
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration underflow while subtracting durations"),
        )
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(3).ticks(), 3 * TICKS_PER_SEC);
        assert_eq!(SimDuration::from_secs(2).as_secs_f64(), 2.0);
        assert_eq!(SimDuration::from_millis(1500).as_secs_f64(), 1.5);
        assert_eq!(SimDuration::from_secs_f64(0.25).ticks(), 250);
    }

    #[test]
    fn ceil_ticks_equals_libm_ceil() {
        let two53 = 2f64.powi(53);
        let two64 = 2f64.powi(64);
        let mut cases = vec![
            0.0,
            -0.0,
            -0.5,
            -1.0,
            -1e300,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            5e-324,
            0.5,
            1.0,
            1.5,
            7.0,
            two53 - 1.0,
            two53,
            two53 + 2.0,
            two64,
            two64 * 2.0,
            f64::MAX,
            f64::INFINITY,
        ];
        // One ulp either side of each case, and of 2^53 ± 1 (which round
        // to even neighbours of 2^53).
        for x in cases.clone().into_iter().chain([two53 - 1.0, two53 + 1.0]) {
            if x.is_finite() && x > 0.0 {
                cases.push(f64::from_bits(x.to_bits() + 1));
                cases.push(f64::from_bits(x.to_bits() - 1));
            }
        }
        for k in [1u64, 2, 3, 1000, 86_400_000, u64::MAX >> 12] {
            let x = k as f64;
            cases.extend([
                x,
                f64::from_bits(x.to_bits() + 1),
                f64::from_bits(x.to_bits() - 1),
            ]);
        }
        for q in cases {
            assert_eq!(ceil_ticks(q), q.ceil().max(0.0) as u64, "ceil_ticks({q:e})");
        }
        assert_eq!(ceil_ticks(two64), u64::MAX);
        assert_eq!(
            ceil_ticks(f64::from_bits(two64.to_bits() - 1)),
            u64::MAX - 2047
        );
    }

    proptest::proptest! {
        #[test]
        fn ceil_ticks_equals_libm_ceil_on_any_bits(bits in proptest::prelude::any::<u64>()) {
            let q = f64::from_bits(bits);
            proptest::prop_assert_eq!(ceil_ticks(q), q.ceil().max(0.0) as u64);
        }
    }

    #[test]
    fn time_arithmetic() {
        let t0 = SimTime::from_secs(1);
        let t1 = t0 + SimDuration::from_millis(500);
        assert_eq!(t1.ticks(), 1500);
        assert_eq!(t1.since(t0), SimDuration::from_millis(500));
        assert_eq!(t1 - t0, SimDuration::from_millis(500));
    }

    #[test]
    #[should_panic(expected = "earlier instant is in the future")]
    fn negative_elapsed_panics() {
        let _ = SimTime::from_secs(1).since(SimTime::from_secs(2));
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_secs(5));
        // Rounding, not truncation.
        assert_eq!(SimDuration::from_ticks(3).mul_f64(0.5).ticks(), 2);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::from_secs(2)), "t=2.000s");
        assert_eq!(format!("{}", SimDuration::from_millis(250)), "0.250s");
    }

    #[test]
    fn ordering_is_by_ticks() {
        assert!(SimTime::from_ticks(5) < SimTime::from_ticks(6));
        assert!(SimDuration::from_ticks(5) < SimDuration::from_ticks(6));
    }
}
