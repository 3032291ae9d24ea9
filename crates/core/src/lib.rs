//! # mrts-core — the mRTS run-time system
//!
//! Reproduction of the run-time system of *mRTS: Run-Time System for
//! Reconfigurable Processors with Multi-Grained Instruction-Set
//! Extensions* (Ahmed, Shafique, Bauer, Henkel — DATE 2011).
//!
//! mRTS dynamically selects, for every functional block announced by
//! trigger instructions, one Instruction Set Extension per kernel such that
//! the block's expected performance is maximized under the currently free
//! fine- and coarse-grained reconfigurable fabric. Its three components
//! (Fig. 4 of the paper):
//!
//! * [`mpu`] — the **Monitoring & Prediction Unit**: corrects the
//!   compile-time execution forecasts with a lightweight error
//!   back-propagation filter and tracks fabric availability,
//! * [`selector`] (with the profit function in [`profit`]) — the **ISE
//!   selector**: the greedy O(N·M) heuristic of Fig. 6 over the Eq. 1–4
//!   profit model, and
//! * [`ecu`] — the **Execution Control Unit**: the Fig. 7 ladder that
//!   steers every kernel execution onto the selected ISE, an intermediate
//!   ISE, a monoCG-Extension or RISC-mode.
//!
//! [`Mrts`] assembles the three into a [`mrts_sim::RuntimePolicy`] ready to
//! run on the simulator.
//!
//! ## Example
//!
//! ```
//! use mrts_arch::{ArchParams, Machine, Resources};
//! use mrts_core::Mrts;
//! use mrts_sim::{RiscOnlyPolicy, Simulator};
//! use mrts_workload::{TraceBuilder, WorkloadModel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let encoder = mrts_ingest::model("h264")?;
//! let catalog = encoder.application().build_catalog(ArchParams::default(), None)?;
//! let trace = TraceBuilder::new(&encoder).build();
//!
//! // A machine with 2 CG-EDPEs and 2 PRCs (one point of the Fig. 8 sweep).
//! let mrts = Simulator::run(
//!     &catalog,
//!     Machine::new(ArchParams::default(), Resources::new(2, 2))?,
//!     &trace,
//!     &mut Mrts::new(),
//! );
//! let risc = Simulator::run(
//!     &catalog,
//!     Machine::new(ArchParams::default(), Resources::new(2, 2))?,
//!     &trace,
//!     &mut RiscOnlyPolicy::new(),
//! );
//! assert!(mrts.speedup_vs(&risc) > 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ecu;
pub mod mpu;
pub mod profit;
pub mod runtime;
pub mod selector;

pub use ecu::EcuConfig;
pub use mpu::{FlowPredictor, Mpu};
pub use profit::{expected_profit, ProfitBreakdown, StageProfit};
pub use runtime::{FabricAccount, Mrts, MrtsConfig, PrefetchConfig};
pub use selector::{select_ises, SelectedIse, Selection, SelectorConfig};
