//! # mrts-sim — cycle-level simulator for multi-grained reconfigurable
//! processors
//!
//! The paper's evaluation runs on a proprietary *"cycle-accurate
//! instruction-set-simulator"* whose inputs (data-path latencies and
//! reconfiguration cycles) come from place-and-route and ASIC synthesis.
//! This crate is the open substitute: a discrete-event engine
//! ([`engine::Simulator`]) that replays workload traces against the
//! [`mrts_arch`] machine model under the control of a pluggable
//! [`policy::RuntimePolicy`] (mRTS itself, or one of the baselines).
//!
//! It additionally contains a functional interpreter for CG-EDPE context
//! programs ([`edpe`]) that cross-validates the analytic coarse-grained
//! cost model instruction by instruction.
//!
//! ## Example
//!
//! ```
//! use mrts_arch::{ArchParams, Machine, Resources};
//! use mrts_sim::{policy::RiscOnlyPolicy, Simulator};
//! use mrts_workload::{TraceBuilder, WorkloadModel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let encoder = mrts_ingest::model("h264")?;
//! let catalog = encoder.application().build_catalog(ArchParams::default(), None)?;
//! let trace = TraceBuilder::new(&encoder).build();
//! let machine = Machine::new(ArchParams::default(), Resources::new(2, 2))?;
//! let stats = Simulator::run(&catalog, machine, &trace, &mut RiscOnlyPolicy::new());
//! assert!(stats.total_busy().get() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod edpe;
pub mod engine;
pub mod policy;
pub mod stats;
pub mod timeline;

pub use engine::{RecoveryConfig, Simulator, LOAD_RETRY_BUDGET};
pub use policy::{
    BlockPlan, ExecContext, ExecMode, ExecPlan, FaultEvent, ResidentSet, RiscOnlyPolicy,
    RuntimePolicy, SelectionContext,
};
pub use stats::{
    nearest_rank_percentile, BlockStats, ExecClass, FabricStats, FleetStats, KernelStats,
    MultitaskStats, RunStats, SessionStats, TenantStats,
};
pub use timeline::{events_to_jsonl, EventSink, RejectReason, SimEvent, Timeline, VecSink};
