//! Strongly typed identifiers shared across the ISE model.

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $inner:ty, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        pub struct $name(pub $inner);

        impl $name {
            /// Returns the raw index.
            #[must_use]
            pub const fn index(self) -> $inner {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(v: $inner) -> Self {
                $name(v)
            }
        }
    };
}

id_type!(
    /// Identifier of an application kernel (a compute-intensive loop).
    KernelId,
    u16,
    "K"
);

id_type!(
    /// Identifier of a data-path operator graph inside one kernel.
    GraphId,
    u32,
    "G"
);

id_type!(
    /// Identifier of one Instruction Set Extension in the catalogue.
    IseId,
    u32,
    "ISE"
);

id_type!(
    /// Identifier of a functional block of the application.
    BlockId,
    u16,
    "FB"
);

/// Identifier of one *load unit* — the atomic reconfigurable artefact (a PRC
/// bitstream or an EDPE context program).
///
/// A `UnitId` doubles as the opaque [`LoadedId`](mrts_arch::fabric::LoadedId)
/// used by the architecture layer, so fabric occupancy can be mapped back to
/// catalogue units without a lookup table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct UnitId(pub u64);

impl UnitId {
    /// A unit id that never names a real catalogue unit.
    ///
    /// Useful as an explicit "no such unit" sentinel in tests and defensive
    /// code paths (e.g. eviction requests for artefacts that were never
    /// loaded must be ignored, not panic). Catalogue unit ids are assigned
    /// densely from zero, so `u64::MAX` can never collide with one.
    pub const INVALID: UnitId = UnitId(u64::MAX);

    /// Returns the raw index.
    #[must_use]
    pub const fn index(self) -> u64 {
        self.0
    }

    /// Converts to the architecture layer's opaque artefact id.
    #[must_use]
    pub const fn as_loaded_id(self) -> u64 {
        self.0
    }

    /// Reconstructs from an architecture-layer artefact id.
    #[must_use]
    pub const fn from_loaded_id(id: u64) -> Self {
        UnitId(id)
    }
}

impl fmt::Display for UnitId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_prefixes() {
        assert_eq!(KernelId(3).to_string(), "K3");
        assert_eq!(IseId(12).to_string(), "ISE12");
        assert_eq!(BlockId(0).to_string(), "FB0");
        assert_eq!(GraphId(7).to_string(), "G7");
        assert_eq!(UnitId(9).to_string(), "U9");
    }

    #[test]
    fn unit_id_round_trips_through_loaded_id() {
        let u = UnitId(42);
        assert_eq!(UnitId::from_loaded_id(u.as_loaded_id()), u);
    }

    #[test]
    fn invalid_unit_id_is_larger_than_any_real_id() {
        assert_eq!(UnitId::INVALID, UnitId(u64::MAX));
        assert!(UnitId(0) < UnitId::INVALID);
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(KernelId(1) < KernelId(2));
        assert!(IseId(0) < IseId(10));
    }
}
