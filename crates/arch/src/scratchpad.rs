//! Scratch-pad memories.
//!
//! *"Both FG- and CG-fabrics have dedicated scratch pad memories —
//! connected to the memory hierarchy — to allow for fast data access and to
//! store intermediate results."* (Section 3, Fig. 3)
//!
//! The scratch-pad is word-addressed and organised in banks; addresses
//! wrap modulo its capacity. The CG-EDPE interpreter uses it as its data
//! memory.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A banked, word-addressed scratch-pad memory.
///
/// # Example
///
/// ```
/// use mrts_arch::Scratchpad;
///
/// let mut spm = Scratchpad::new(4, 64); // 4 banks x 64 words
/// spm.write(5, 99);
/// assert_eq!(spm.read(5), 99);
/// // Addresses wrap modulo the 256-word capacity.
/// assert_eq!(spm.read(5 + 256), 99);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Scratchpad {
    banks: u32,
    words_per_bank: u32,
    data: Vec<u32>,
}

impl Scratchpad {
    /// Creates a zeroed scratch-pad of `banks` × `words_per_bank` words.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(banks: u32, words_per_bank: u32) -> Self {
        assert!(banks > 0, "a scratch-pad needs at least one bank");
        assert!(words_per_bank > 0, "banks must hold at least one word");
        Scratchpad {
            banks,
            words_per_bank,
            data: vec![0; (banks * words_per_bank) as usize],
        }
    }

    /// Total capacity in 32-bit words.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the scratch-pad holds zero words (never true by
    /// construction; provided for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reads the word at `addr` (addresses wrap modulo capacity, like the
    /// hardware's address decoder).
    #[must_use]
    pub fn read(&self, addr: u32) -> u32 {
        self.data[(addr as usize) % self.data.len()]
    }

    /// Writes the word at `addr` (wrapping).
    pub fn write(&mut self, addr: u32, value: u32) {
        let len = self.data.len();
        self.data[(addr as usize) % len] = value;
    }

    /// Zeroes the memory.
    pub fn clear(&mut self) {
        self.data.fill(0);
    }
}

impl fmt::Display for Scratchpad {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scratchpad {}x{} words ({} KiB)",
            self.banks,
            self.words_per_bank,
            self.len() * 4 / 1024
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn read_after_write() {
        let mut s = Scratchpad::new(4, 16);
        s.write(10, 1234);
        assert_eq!(s.read(10), 1234);
        assert_eq!(s.read(11), 0);
        s.clear();
        assert_eq!(s.read(10), 0);
    }

    #[test]
    fn addresses_wrap() {
        let mut s = Scratchpad::new(2, 8); // 16 words
        s.write(16, 7); // wraps to 0
        assert_eq!(s.read(0), 7);
        assert_eq!(s.read(32), 7);
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_rejected() {
        let _ = Scratchpad::new(0, 16);
    }

    proptest! {
        /// Reads return the last value written to the same (wrapped) address.
        #[test]
        fn last_write_wins(addr in 0u32..1_000, a in any::<u32>(), b in any::<u32>()) {
            let mut s = Scratchpad::new(4, 64);
            s.write(addr, a);
            s.write(addr, b);
            prop_assert_eq!(s.read(addr), b);
        }
    }
}
