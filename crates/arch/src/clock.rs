//! Clock domains and the [`Cycles`] time base.
//!
//! The simulated processor has three clock domains (Section 5.1 of the
//! paper): the core and the CG fabric run at 400 MHz, the FG fabric (a
//! Virtex-4 class FPGA) runs at 100 MHz. All timestamps exchanged between
//! crates are **core cycles**; this module provides the conversions.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A frequency in hertz.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Frequency(u64);

impl Frequency {
    /// Creates a frequency from a raw hertz count.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is zero; a clock domain cannot be stopped.
    #[must_use]
    fn from_hz(hz: u64) -> Self {
        assert!(hz > 0, "clock frequency must be non-zero");
        Frequency(hz)
    }

    /// Creates a frequency from megahertz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is zero.
    #[must_use]
    pub(crate) fn from_mhz(mhz: u64) -> Self {
        Frequency::from_hz(mhz * 1_000_000)
    }

    /// Returns the frequency in hertz.
    #[must_use]
    fn as_hz(self) -> u64 {
        self.0
    }

    /// Returns the frequency in megahertz (truncating).
    #[must_use]
    pub(crate) fn as_mhz(self) -> u64 {
        self.0 / 1_000_000
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(1_000_000) {
            write!(f, "{} MHz", self.as_mhz())
        } else {
            write!(f, "{} Hz", self.0)
        }
    }
}

/// A duration or timestamp measured in **core clock cycles**.
///
/// `Cycles` is the single time base of the whole reproduction: the
/// discrete-event simulator, the reconfiguration controller and the mRTS
/// profit function all exchange `Cycles` values. The core clock defaults to
/// 400 MHz ([`crate::ArchParams::default`]), so one cycle is 2.5 ns.
///
/// Arithmetic is implemented with saturation on subtraction (durations never
/// go negative) and ordinary checked-in-debug addition.
///
/// # Example
///
/// ```
/// use mrts_arch::Cycles;
///
/// let a = Cycles::new(1_000);
/// let b = Cycles::new(400);
/// assert_eq!((a + b).get(), 1_400);
/// assert_eq!((b.saturating_sub(a)).get(), 0);
/// assert_eq!(a * 3, Cycles::new(3_000));
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Cycles(u64);

impl Cycles {
    /// The zero duration.
    pub const ZERO: Cycles = Cycles(0);

    /// The largest representable cycle count, used as "never" sentinel by
    /// schedulers.
    pub const MAX: Cycles = Cycles(u64::MAX);

    /// Creates a cycle count.
    #[must_use]
    pub const fn new(cycles: u64) -> Self {
        Cycles(cycles)
    }

    /// Returns the raw cycle count.
    #[must_use]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Saturating subtraction: `self - rhs`, floored at zero.
    #[must_use]
    pub const fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition.
    #[must_use]
    pub const fn saturating_add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_add(rhs.0))
    }

    /// Checked addition, returning `None` on overflow.
    #[must_use]
    pub const fn checked_add(self, rhs: Cycles) -> Option<Cycles> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(Cycles(v)),
            None => None,
        }
    }

    /// Returns the maximum of two cycle counts.
    #[must_use]
    pub const fn max(self, rhs: Cycles) -> Cycles {
        if self.0 >= rhs.0 {
            self
        } else {
            rhs
        }
    }

    /// Returns the minimum of two cycle counts.
    #[must_use]
    pub const fn min(self, rhs: Cycles) -> Cycles {
        if self.0 <= rhs.0 {
            self
        } else {
            rhs
        }
    }

    /// Converts a wall-clock duration in nanoseconds to core cycles for the
    /// given core frequency (rounding up: an event cannot complete early).
    #[must_use]
    pub(crate) fn from_nanos(nanos: u64, core: Frequency) -> Cycles {
        // cycles = ns * hz / 1e9, computed in u128 to avoid overflow.
        let c = (u128::from(nanos) * u128::from(core.as_hz())).div_ceil(1_000_000_000);
        Cycles(c as u64)
    }

    /// Converts this cycle count to wall-clock nanoseconds at the given core
    /// frequency (truncating).
    #[must_use]
    pub fn as_nanos(self, core: Frequency) -> u64 {
        ((u128::from(self.0) * 1_000_000_000) / u128::from(core.as_hz())) as u64
    }

    /// Converts this cycle count to wall-clock microseconds at the given core
    /// frequency, as a floating-point value (used for reporting only).
    #[cfg(test)]
    pub(crate) fn as_micros_f64(self, core: Frequency) -> f64 {
        self.0 as f64 / core.as_hz() as f64 * 1e6
    }

    /// Converts this cycle count to milliseconds at the given core frequency,
    /// as a floating-point value (used for reporting only).
    #[must_use]
    pub fn as_millis_f64(self, core: Frequency) -> f64 {
        self.0 as f64 / core.as_hz() as f64 * 1e3
    }

    /// Converts this core-cycle count to millions of cycles as `f64`
    /// (the unit of the paper's Fig. 8 y-axis).
    #[must_use]
    pub fn as_mcycles(self) -> f64 {
        self.0 as f64 / 1e6
    }
}

impl Add for Cycles {
    type Output = Cycles;
    /// Saturating: a time past `u64::MAX` cycles stays there rather than
    /// wrapping back to an early one.
    fn add(self, rhs: Cycles) -> Cycles {
        self.saturating_add(rhs)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        *self = self.saturating_add(rhs);
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    /// Saturating: durations never go negative.
    fn sub(self, rhs: Cycles) -> Cycles {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for Cycles {
    fn sub_assign(&mut self, rhs: Cycles) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    /// Saturating, like [`Add`].
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Cycles {
    type Output = Cycles;
    fn div(self, rhs: u64) -> Cycles {
        Cycles(self.0 / rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, |acc, c| acc.saturating_add(c))
    }
}

impl From<u64> for Cycles {
    fn from(v: u64) -> Self {
        Cycles(v)
    }
}

impl From<Cycles> for u64 {
    fn from(v: Cycles) -> Self {
        v.0
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

/// The three clock domains of the multi-grained processor.
///
/// The simulator keeps all timestamps in the [`Core`](ClockDomain::Core)
/// domain; latencies measured in another domain are converted with
/// [`ClockDomain::to_core_cycles`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) enum ClockDomain {
    /// The RISC core (hosts the main application binary).
    Core,
    /// The coarse-grained EDPE array (same frequency as the core by default).
    CoarseGrained,
    /// The fine-grained embedded FPGA (slower; 100 MHz by default).
    FineGrained,
}

impl ClockDomain {
    /// Converts `domain_cycles` counted in this domain into core cycles,
    /// rounding up (an operation spanning a fraction of a core cycle still
    /// occupies it fully).
    #[must_use]
    pub(crate) fn to_core_cycles(
        self,
        domain_cycles: u64,
        core: Frequency,
        own: Frequency,
    ) -> Cycles {
        if core == own {
            return Cycles::new(domain_cycles);
        }
        let c = (u128::from(domain_cycles) * u128::from(core.as_hz()))
            .div_ceil(u128::from(own.as_hz()));
        Cycles::new(c as u64)
    }
}

impl fmt::Display for ClockDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClockDomain::Core => write!(f, "core"),
            ClockDomain::CoarseGrained => write!(f, "CG"),
            ClockDomain::FineGrained => write!(f, "FG"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequency_constructors_agree() {
        assert_eq!(Frequency::from_mhz(400), Frequency::from_hz(400_000_000));
        assert_eq!(Frequency::from_mhz(100).as_mhz(), 100);
        let f = Frequency::from_mhz(400);
        assert_eq!(f.as_mhz(), 400);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_frequency_rejected() {
        let _ = Frequency::from_hz(0);
    }

    #[test]
    fn cycles_saturating_subtraction() {
        let a = Cycles::new(5);
        let b = Cycles::new(9);
        assert_eq!(a - b, Cycles::ZERO);
        assert_eq!(b - a, Cycles::new(4));
    }

    #[test]
    fn cycles_sum_saturates() {
        let total: Cycles = [Cycles::MAX, Cycles::new(10)].into_iter().sum();
        assert_eq!(total, Cycles::MAX);
        // So do the operators.
        let mut t = Cycles::MAX - Cycles::new(1);
        assert_eq!(t + Cycles::new(10), Cycles::MAX);
        t += Cycles::new(10);
        assert_eq!(t, Cycles::MAX);
        assert_eq!(Cycles::new(1 << 40) * (1 << 40), Cycles::MAX);
    }

    #[test]
    fn nanos_round_trip_at_400mhz() {
        let core = Frequency::from_mhz(400);
        // 2.5 ns per cycle: 1000 ns == 400 cycles.
        assert_eq!(Cycles::from_nanos(1_000, core), Cycles::new(400));
        assert_eq!(Cycles::new(400).as_nanos(core), 1_000);
    }

    #[test]
    fn from_nanos_rounds_up() {
        let core = Frequency::from_mhz(400);
        // 1 ns is less than one 2.5 ns cycle but must still occupy one cycle.
        assert_eq!(Cycles::from_nanos(1, core), Cycles::new(1));
    }

    #[test]
    fn fg_to_core_conversion_rounds_up() {
        let core = Frequency::from_mhz(400);
        let fg = Frequency::from_mhz(100);
        assert_eq!(
            ClockDomain::FineGrained.to_core_cycles(1, core, fg),
            Cycles::new(4)
        );
        // 10 FPGA cycles at 100 MHz == 40 core cycles at 400 MHz.
        let c = ClockDomain::FineGrained.to_core_cycles(10, core, fg);
        assert_eq!(c, Cycles::new(40));
        // Same-frequency conversion is the identity.
        assert_eq!(
            ClockDomain::CoarseGrained.to_core_cycles(7, core, core),
            Cycles::new(7)
        );
    }

    #[test]
    fn paper_footnote_2_magnitudes() {
        // Footnote 2: FG data-path reconfiguration ~1.2 ms, CG ~0.15 us.
        let core = Frequency::from_mhz(400);
        let fg_reconfig = Cycles::from_nanos(1_200_000, core);
        let cg_reconfig = Cycles::from_nanos(150, core);
        assert_eq!(fg_reconfig.get(), 480_000);
        assert_eq!(cg_reconfig.get(), 60);
        // The paper's entire argument rests on this four-orders-of-magnitude gap.
        assert!(fg_reconfig.get() / cg_reconfig.get() >= 1_000);
    }

    #[test]
    fn reporting_conversions() {
        let core = Frequency::from_mhz(400);
        let c = Cycles::new(4_000_000);
        assert!((c.as_millis_f64(core) - 10.0).abs() < 1e-9);
        assert!((c.as_micros_f64(core) - 10_000.0).abs() < 1e-6);
        assert!((c.as_mcycles() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Frequency::from_mhz(400).to_string(), "400 MHz");
        assert_eq!(Frequency::from_hz(1234).to_string(), "1234 Hz");
        assert_eq!(Cycles::new(7).to_string(), "7 cyc");
        assert_eq!(ClockDomain::FineGrained.to_string(), "FG");
    }
}
