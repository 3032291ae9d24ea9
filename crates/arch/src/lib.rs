//! # mrts-arch — model of a multi-grained reconfigurable processor
//!
//! This crate models the hardware substrate assumed by the mRTS run-time
//! system (Ahmed, Shafique, Bauer, Henkel: *mRTS: Run-Time System for
//! Reconfigurable Processors with Multi-Grained Instruction-Set Extensions*,
//! DATE 2011): a RISC core tightly coupled with
//!
//! * a **fine-grained (FG) fabric** — an embedded FPGA partitioned into
//!   *Partially Reconfigurable Containers* (PRCs) that load data-path
//!   bitstreams through a serial configuration port, and
//! * a **coarse-grained (CG) fabric** — an array of coarse-grained elements
//!   (CG-EDPEs) with two ALUs, two register files and an 80-bit × 32-entry
//!   context memory each, holding several data-path contexts at once
//!   (instruction timing in [`cg::OpClass`]).
//!
//! To the run-time system a PRC and a CG context slot are the same thing:
//! a container holding one loaded artefact. Both fabrics are therefore one
//! [`fabric::Fabric`] container pool each, owned by the [`Machine`].
//!
//! The numeric defaults in [`params::ArchParams`] are the
//! constants published in Section 5.1 of the paper (400 MHz CG / 100 MHz FG
//! clocks, 67 584 KB/s configuration bandwidth, 2-cycle context switch,
//! 1/2/10-cycle ALU/multiply/divide, …). Everything is parametric so that the
//! evaluation can sweep fabric combinations exactly like the paper's Fig. 8.
//!
//! All simulation time is expressed in **core clock cycles** via the
//! [`clock::Cycles`] newtype; [`ArchParams`] converts CG/FG-domain cycles
//! and bitstream sizes into it ([`ArchParams::cg_to_core`],
//! [`ArchParams::fg_to_core`], [`ArchParams::fg_reconfig_time`]).
//!
//! ## Example
//!
//! ```
//! use mrts_arch::{ArchParams, Machine, Resources};
//!
//! # fn main() -> Result<(), mrts_arch::ArchError> {
//! // A machine with 2 CG-EDPEs and 3 PRCs — one point of the paper's sweep.
//! let params = ArchParams::default();
//! let machine = Machine::new(params, Resources::new(2, 3))?;
//! assert_eq!(machine.budget().cg(), 2);
//! assert_eq!(machine.budget().prc(), 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cg;
pub mod clock;
pub mod error;
pub mod fabric;
pub mod fault;
pub mod machine;
pub mod params;
pub mod reconfig;
pub mod resources;
pub mod scratchpad;

pub use cg::OpClass;
pub use clock::{Cycles, Frequency};
pub use error::ArchError;
pub use fabric::{Fabric, LoadedId};
pub use fault::{FaultKind, FaultModel, LoadFault};
pub use machine::Machine;
pub use params::ArchParams;
pub use reconfig::{FabricKind, LoadRequest, LoadTicket, ReconfigurationController};
pub use resources::Resources;
pub use scratchpad::Scratchpad;
