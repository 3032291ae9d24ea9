//! Coarse-grained fabric: the instruction timing of the coarse-grained
//! elementary data-path elements (CG-EDPEs). Their context slots are a
//! [`Fabric`](crate::fabric::Fabric) container pool in the
//! [`Machine`](crate::Machine).
//!
//! Per Section 5.1 of the paper, each CG-EDPE has:
//!
//! * two ALUs usable in parallel,
//! * two 32×32-bit register files,
//! * a context memory holding up to 32 instructions of 80 bits each
//!   (instructions can be streamed in; a context switch takes 2 cycles),
//! * a zero-overhead loop instruction,
//! * a (virtual) 32-bit load/store unit,
//! * 2-cycle point-to-point links to the other CG-EDPEs.

use crate::params::ArchParams;
use serde::{Deserialize, Serialize};

/// Classification of CG instructions by latency (Section 5.1 timing table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpClass {
    /// add, sub, logic, shifts, compares, moves — 1 cycle.
    Simple,
    /// multiply — 2 cycles.
    Multiply,
    /// divide — 10 cycles.
    Divide,
    /// 32-bit load or store — 1 cycle issue (memory modelled as scratchpad).
    LoadStore,
}

impl OpClass {
    /// Latency of this class in CG cycles under `params`.
    #[must_use]
    pub fn latency(self, params: &ArchParams) -> u64 {
        let t = params.cg_op_timing;
        match self {
            OpClass::Simple => u64::from(t.simple),
            OpClass::Multiply => u64::from(t.multiply),
            OpClass::Divide => u64::from(t.divide),
            OpClass::LoadStore => u64::from(t.load_store),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_class_latencies_match_paper() {
        let p = ArchParams::default();
        assert_eq!(OpClass::Simple.latency(&p), 1);
        assert_eq!(OpClass::Multiply.latency(&p), 2);
        assert_eq!(OpClass::Divide.latency(&p), 10);
        assert_eq!(OpClass::LoadStore.latency(&p), 1);
    }
}
