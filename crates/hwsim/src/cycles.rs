//! Cycle counts and clock frequency.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

use serde::{Deserialize, Serialize};

/// A number of clock cycles (or an absolute cycle timestamp).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Cycle(pub u64);

impl Cycle {
    /// Zero cycles.
    pub const ZERO: Cycle = Cycle(0);

    /// The raw count.
    pub fn get(self) -> u64 {
        self.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Cycle) -> Cycle {
        Cycle(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Cycle {
    type Output = Cycle;
    fn add(self, rhs: Cycle) -> Cycle {
        Cycle(self.0 + rhs.0)
    }
}

impl AddAssign for Cycle {
    fn add_assign(&mut self, rhs: Cycle) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycle {
    type Output = Cycle;
    fn sub(self, rhs: Cycle) -> Cycle {
        Cycle(self.0.checked_sub(rhs.0).expect("cycle underflow"))
    }
}

impl Mul<u64> for Cycle {
    type Output = Cycle;
    fn mul(self, rhs: u64) -> Cycle {
        Cycle(self.0 * rhs)
    }
}

impl Sum for Cycle {
    fn sum<I: Iterator<Item = Cycle>>(iter: I) -> Cycle {
        Cycle(iter.map(|c| c.0).sum())
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

/// A clock frequency, for converting cycle counts into wall time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Frequency {
    mhz: f64,
}

impl Frequency {
    /// Creates a frequency in MHz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is not finite and positive.
    pub(crate) fn mhz(mhz: f64) -> Self {
        assert!(
            mhz.is_finite() && mhz > 0.0,
            "frequency must be positive, got {mhz}"
        );
        Self { mhz }
    }

    /// The paper's operating point: 200 MHz on the VU13P.
    pub fn paper_clock() -> Self {
        Self::mhz(200.0)
    }

    /// Frequency in MHz.
    pub fn as_mhz(self) -> f64 {
        self.mhz
    }

    /// Converts a cycle count into microseconds.
    pub fn cycles_to_us(self, c: Cycle) -> f64 {
        c.0 as f64 / self.mhz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_works() {
        assert_eq!(Cycle(3) + Cycle(4), Cycle(7));
        assert_eq!(Cycle(10) - Cycle(4), Cycle(6));
        assert_eq!(Cycle(3) * 4, Cycle(12));
        assert_eq!(Cycle(10).saturating_sub(Cycle(20)), Cycle::ZERO);
        let total: Cycle = [Cycle(1), Cycle(2), Cycle(3)].into_iter().sum();
        assert_eq!(total, Cycle(6));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn checked_sub_panics_on_underflow() {
        let _ = Cycle(1) - Cycle(2);
    }

    #[test]
    fn paper_latency_conversion() {
        // 21,344 cycles @ 200 MHz = 106.7 us (Table III, MHA row)
        let f = Frequency::paper_clock();
        let us = f.cycles_to_us(Cycle(21_344));
        assert!((us - 106.72).abs() < 0.01, "{us}");
        // 42,099 cycles = 210.5 us (FFN row)
        let us = f.cycles_to_us(Cycle(42_099));
        assert!((us - 210.495).abs() < 0.01, "{us}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_frequency_rejected() {
        let _ = Frequency::mhz(0.0);
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(Cycle(5).to_string(), "5 cycles");
    }
}
