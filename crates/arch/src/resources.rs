//! Reconfigurable-fabric resource vectors.
//!
//! The ISE selector reasons about two resource kinds (Section 4.1 of the
//! paper): the number of free CG-EDPEs (`N_CG`) and the total number of free
//! PRCs across all FG fabrics (`N_PRC`). A [`Resources`] value is used both
//! as a *budget* (what the machine has / has free) and as a *demand* (what an
//! ISE needs).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A two-component resource vector: CG-EDPEs and FG PRCs.
///
/// # Example
///
/// ```
/// use mrts_arch::Resources;
///
/// let budget = Resources::new(2, 4);
/// let demand = Resources::new(1, 3);
/// assert!(demand.fits_in(budget));
/// assert_eq!(budget - demand, Resources::new(1, 1));
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct Resources {
    cg: u16,
    prc: u16,
}

impl Resources {
    /// No resources at all (the RISC-mode-only machine of Fig. 8's first
    /// combination).
    pub const NONE: Resources = Resources { cg: 0, prc: 0 };

    /// Creates a resource vector from a CG-EDPE count and a PRC count.
    #[must_use]
    pub const fn new(cg: u16, prc: u16) -> Self {
        Resources { cg, prc }
    }

    /// Creates a CG-only vector.
    #[must_use]
    pub const fn cg_only(cg: u16) -> Self {
        Resources { cg, prc: 0 }
    }

    /// Creates a PRC-only vector.
    #[must_use]
    pub const fn prc_only(prc: u16) -> Self {
        Resources { cg: 0, prc }
    }

    /// Number of CG-EDPEs.
    #[must_use]
    pub const fn cg(self) -> u16 {
        self.cg
    }

    /// Number of FG PRCs.
    #[must_use]
    pub const fn prc(self) -> u16 {
        self.prc
    }

    /// Whether both components are zero.
    #[must_use]
    pub const fn is_empty(self) -> bool {
        self.cg == 0 && self.prc == 0
    }

    /// Whether this demand fits inside `budget` component-wise.
    ///
    /// This is the constraint of the paper's selection problem: *"the
    /// selected set of ISEs must fit into the available CG- and FG-fabrics"*.
    #[must_use]
    pub const fn fits_in(self, budget: Resources) -> bool {
        self.cg <= budget.cg && self.prc <= budget.prc
    }

    /// Component-wise saturating subtraction.
    #[must_use]
    pub const fn saturating_sub(self, rhs: Resources) -> Resources {
        Resources {
            cg: self.cg.saturating_sub(rhs.cg),
            prc: self.prc.saturating_sub(rhs.prc),
        }
    }

    /// Checked subtraction: `None` if `rhs` does not fit in `self`.
    #[must_use]
    pub fn checked_sub(self, rhs: Resources) -> Option<Resources> {
        if rhs.fits_in(self) {
            Some(self.saturating_sub(rhs))
        } else {
            None
        }
    }

    /// Component-wise saturating addition.
    #[must_use]
    pub const fn saturating_add(self, rhs: Resources) -> Resources {
        Resources {
            cg: self.cg.saturating_add(rhs.cg),
            prc: self.prc.saturating_add(rhs.prc),
        }
    }

    /// Component-wise maximum.
    #[must_use]
    pub fn max(self, rhs: Resources) -> Resources {
        Resources {
            cg: self.cg.max(rhs.cg),
            prc: self.prc.max(rhs.prc),
        }
    }

    /// Total element count (used only for coarse tie-breaking and reports).
    #[must_use]
    pub const fn total(self) -> u32 {
        self.cg as u32 + self.prc as u32
    }

    /// True iff the vector uses only CG resources (and at least one).
    #[must_use]
    pub const fn is_cg_only(self) -> bool {
        self.cg > 0 && self.prc == 0
    }

    /// True iff the vector uses both kinds of fabric — the signature of a
    /// *multi-grained* ISE.
    #[must_use]
    pub const fn is_multi_grained(self) -> bool {
        self.cg > 0 && self.prc > 0
    }

    /// Partitions the vector into `n` **disjoint** slices that exactly
    /// cover it (per component: largest-remainder apportionment with equal
    /// weights; remainders go to the lowest tenant indices). This is the
    /// fabric arbiter's *static* partition view of the container/EDPE sets.
    ///
    /// ```
    /// use mrts_arch::Resources;
    ///
    /// let slices = Resources::new(4, 3).split_even(3);
    /// assert_eq!(slices, vec![
    ///     Resources::new(2, 1),
    ///     Resources::new(1, 1),
    ///     Resources::new(1, 1),
    /// ]);
    /// assert_eq!(slices.into_iter().sum::<Resources>(), Resources::new(4, 3));
    /// ```
    #[must_use]
    pub fn split_even(self, n: usize) -> Vec<Resources> {
        self.split_weighted(&vec![1; n])
    }

    /// Partitions the vector into `weights.len()` disjoint slices
    /// proportional to `weights`, covering it exactly (per component:
    /// largest-remainder / Hamilton apportionment, ties broken towards the
    /// lowest index — fully deterministic). All-zero weights fall back to
    /// an even split, so the arbiter never divides by zero.
    #[must_use]
    pub fn split_weighted(self, weights: &[u64]) -> Vec<Resources> {
        fn apportion(total: u16, weights: &[u64]) -> Vec<u16> {
            if weights.is_empty() {
                return Vec::new();
            }
            let wsum: u128 = weights.iter().map(|&w| u128::from(w)).sum();
            if wsum == 0 {
                // Equal weights fallback.
                return apportion(total, &vec![1; weights.len()]);
            }
            let t = u128::from(total);
            let mut base: Vec<u16> = Vec::with_capacity(weights.len());
            let mut rems: Vec<(u128, usize)> = Vec::with_capacity(weights.len());
            let mut assigned: u16 = 0;
            for (i, &w) in weights.iter().enumerate() {
                let exact = t * u128::from(w);
                let share = (exact / wsum) as u16;
                base.push(share);
                assigned += share;
                rems.push((exact % wsum, i));
            }
            // Hand leftover units to the largest remainders, lowest index
            // first on ties.
            rems.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            let mut leftover = total - assigned;
            for &(_, i) in &rems {
                if leftover == 0 {
                    break;
                }
                base[i] += 1;
                leftover -= 1;
            }
            base
        }
        let cg = apportion(self.cg, weights);
        let prc = apportion(self.prc, weights);
        cg.into_iter()
            .zip(prc)
            .map(|(c, p)| Resources::new(c, p))
            .collect()
    }

    /// Component-wise minimum — clamping a selector budget to a tenant's
    /// allotted fabric slice.
    #[must_use]
    pub fn min(self, rhs: Resources) -> Resources {
        Resources {
            cg: self.cg.min(rhs.cg),
            prc: self.prc.min(rhs.prc),
        }
    }
}

impl Add for Resources {
    type Output = Resources;
    fn add(self, rhs: Resources) -> Resources {
        self.saturating_add(rhs)
    }
}

impl AddAssign for Resources {
    fn add_assign(&mut self, rhs: Resources) {
        *self = *self + rhs;
    }
}

impl Sub for Resources {
    type Output = Resources;
    /// Saturating subtraction; use [`Resources::checked_sub`] to detect
    /// underflow.
    fn sub(self, rhs: Resources) -> Resources {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for Resources {
    fn sub_assign(&mut self, rhs: Resources) {
        *self = *self - rhs;
    }
}

impl Sum for Resources {
    fn sum<I: Iterator<Item = Resources>>(iter: I) -> Resources {
        iter.fold(Resources::NONE, |acc, r| acc + r)
    }
}

impl fmt::Display for Resources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} CG + {} PRC", self.cg, self.prc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fits_in_is_component_wise() {
        assert!(Resources::new(1, 1).fits_in(Resources::new(1, 1)));
        assert!(!Resources::new(2, 0).fits_in(Resources::new(1, 5)));
        assert!(!Resources::new(0, 6).fits_in(Resources::new(9, 5)));
        assert!(Resources::NONE.fits_in(Resources::NONE));
    }

    #[test]
    fn grain_classification() {
        assert!(Resources::cg_only(2).is_cg_only());
        assert!(!Resources::prc_only(3).is_cg_only());
        assert!(!Resources::prc_only(3).is_multi_grained());
        assert!(Resources::new(1, 1).is_multi_grained());
        assert!(!Resources::NONE.is_multi_grained());
        assert!(!Resources::NONE.is_cg_only());
    }

    #[test]
    fn checked_sub_detects_underflow() {
        let b = Resources::new(1, 1);
        assert_eq!(b.checked_sub(Resources::new(2, 0)), None);
        assert_eq!(
            b.checked_sub(Resources::new(1, 0)),
            Some(Resources::new(0, 1))
        );
    }

    #[test]
    fn sum_accumulates() {
        let total: Resources = [
            Resources::new(1, 0),
            Resources::new(0, 2),
            Resources::new(1, 1),
        ]
        .into_iter()
        .sum();
        assert_eq!(total, Resources::new(2, 3));
    }

    proptest! {
        #[test]
        fn add_then_sub_is_identity(a_cg in 0u16..100, a_prc in 0u16..100,
                                    b_cg in 0u16..100, b_prc in 0u16..100) {
            let a = Resources::new(a_cg, a_prc);
            let b = Resources::new(b_cg, b_prc);
            prop_assert_eq!((a + b) - b, a);
        }

        #[test]
        fn checked_sub_consistent_with_fits(a_cg in 0u16..100, a_prc in 0u16..100,
                                            b_cg in 0u16..100, b_prc in 0u16..100) {
            let a = Resources::new(a_cg, a_prc);
            let b = Resources::new(b_cg, b_prc);
            prop_assert_eq!(a.checked_sub(b).is_some(), b.fits_in(a));
        }

        #[test]
        fn fits_in_is_a_partial_order(a_cg in 0u16..50, a_prc in 0u16..50,
                                      b_cg in 0u16..50, b_prc in 0u16..50,
                                      c_cg in 0u16..50, c_prc in 0u16..50) {
            let a = Resources::new(a_cg, a_prc);
            let b = Resources::new(b_cg, b_prc);
            let c = Resources::new(c_cg, c_prc);
            // Reflexive.
            prop_assert!(a.fits_in(a));
            // Transitive.
            if a.fits_in(b) && b.fits_in(c) {
                prop_assert!(a.fits_in(c));
            }
        }

        #[test]
        fn at_most_one_grain_class(cg in 0u16..10, prc in 0u16..10) {
            let r = Resources::new(cg, prc);
            let classes =
                u8::from(r.is_empty()) + u8::from(r.is_cg_only())
                + u8::from(r.is_multi_grained());
            // An FG-only vector is the one class without a predicate.
            prop_assert_eq!(classes, u8::from(cg > 0 || prc == 0));
        }
    }
}
