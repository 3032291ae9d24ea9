//! # mrts-multitask — time-shared execution of concurrent applications
//!
//! The paper evaluates mRTS with one application owning the whole
//! reconfigurable fabric. This crate extends the reproduction to the
//! *multi-tenant* setting its Section 6 outlook hints at: several
//! applications — each with its own compile-time ISE catalogue, its own
//! trace and its own run-time system instance — share one core and one
//! multi-grained fabric.
//!
//! The split of concerns mirrors a conventional OS:
//!
//! * [`arbiter::FabricArbiter`] — **space**-partitions the fabric: every
//!   tenant is granted a disjoint slice of CG context slots and PRCs
//!   (a static even split, or demand-driven dynamic re-partitioning as
//!   tenants finish),
//! * [`scheduler::Scheduler`] — **time**-shares the single core between
//!   runnable tenants (weighted-fair queuing, plus the deadline-driven
//!   EDF and least-laxity-first disciplines),
//! * [`slo::Slo`] + [`admission::AdmissionController`] — give tenants
//!   deadlines and criticality classes, admit only feasible SLO mixes
//!   (reject or queue the rest), and let deadline-aware schedulers (EDF,
//!   least-laxity) plus a degrade-don't-drop ladder shed *speedup*
//!   instead of work under overload, and
//! * [`runner::run_multitask`] — drives per-tenant
//!   [`Simulator`](mrts_sim::Simulator)s one block activation at a time,
//!   charging context-switch and re-partition costs (250 and 1 000 core
//!   cycles) and folding the result into
//!   [`MultitaskStats`](mrts_sim::MultitaskStats) (per-tenant turnaround,
//!   aggregate speedup, Jain fairness, throughput).
//!
//! Blocks are non-preemptible quanta: a descheduled tenant's in-flight
//! reconfigurations keep streaming (the DMA configuration ports need no
//! core attention, modelled by
//! [`Simulator::advance_to`](mrts_sim::Simulator::advance_to)), so a
//! tenant often returns to the core with its requested units already
//! resident — fabric latency hiding across tenants, not just blocks.
//!
//! With a single tenant the runner degenerates exactly to
//! [`Simulator::run_trace`](mrts_sim::Simulator::run_trace): the arbiter
//! grants the whole fabric, the first dispatch is free, and no switch is
//! ever charged. The `multitask_equivalence` integration test pins this
//! byte-for-byte.
//!
//! ## Example
//!
//! ```
//! use mrts_arch::{ArchParams, Resources};
//! use mrts_multitask::{run_multitask, MultitaskConfig, TenantSpec};
//! use mrts_workload::synthetic::{synthetic_trace, Pattern};
//! use mrts_workload::WorkloadModel;
//!
//! let toy = mrts_ingest::model("toy").unwrap();
//! let catalog = toy
//!     .application()
//!     .build_catalog(ArchParams::default(), None)
//!     .unwrap();
//! let trace = synthetic_trace(&toy, &[Pattern::Constant(200)], 4);
//! let specs = vec![
//!     TenantSpec::new("a", &catalog, &trace),
//!     TenantSpec::new("b", &catalog, &trace).with_weight(2),
//! ];
//! let stats = run_multitask(
//!     ArchParams::default(),
//!     Resources::new(2, 2),
//!     &specs,
//!     &MultitaskConfig::default(),
//! )
//! .unwrap();
//! assert_eq!(stats.tenants.len(), 2);
//! assert!(stats.makespan > mrts_arch::Cycles::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admission;
pub mod arbiter;
pub mod runner;
pub mod scheduler;
pub mod slo;
pub mod spec;

pub use admission::{AdmissionController, AdmissionOutcome, AdmissionPolicy};
pub use arbiter::{ArbiterPolicy, FabricArbiter};
/// The memo a [`TenantSpec`] may share with other tenants' policies.
pub use mrts_baselines::SelectionMemo;
pub use runner::{
    estimate_utilization_ppm, prep_session, run_multitask, run_multitask_with_events,
    MultitaskConfig, MultitaskError, MultitaskRunner, StepOutcome, TenantPrep, TenantSpec,
};
pub use scheduler::{EarliestDeadline, LeastLaxity, Scheduler, SchedulerKind, WeightedFair};
pub use slo::{Criticality, Slo, SloSnapshot};
pub use spec::{parse_slo_field, parse_tenant_specs, TenantRequest};
