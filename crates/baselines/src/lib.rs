//! # mrts-baselines — the paper's comparison run-time systems
//!
//! Re-implementations of the selection policies mRTS is evaluated against
//! in Section 5 of the paper, all running on the same simulator and
//! machine model:
//!
//! * [`rispp::RisppPolicy`] — the RISPP-like run-time system
//!   \[6\] extended to CG fabrics: same greedy block-level selection loop
//!   but an FG-tuned (millisecond-scale) cost model and no
//!   monoCG-Extension,
//! * [`offline::LooselyCoupledPolicy`] — the
//!   Morpheus \[8\] / 4S \[7\]-like compile-time, task-level, loosely
//!   coupled approach: static single-fabric assignment, all-or-nothing
//!   execution,
//! * [`offline::OfflineOptimalPolicy`] — the optimal
//!   static selection for tightly coupled multi-grained fabrics, and
//! * [`optimal::OnlineOptimalPolicy`] — the optimal
//!   selection at every trigger instruction, used only to grade the greedy
//!   heuristic (Fig. 9).
//!
//! [`optimal::dp_optimal_selection`] computes the exact optimum of the
//! additive profit objective by dynamic programming over the 2-D resource
//! budget; [`optimal::exhaustive_optimal_profit`] is the naive
//! enumeration the paper deems infeasible (kept for cross-checks and for
//! the selector-complexity bench).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod common;
pub mod factory;
pub mod offline;
pub mod optimal;
pub mod rispp;

pub use common::ProfiledTotals;
pub use factory::{make_policy, PolicyTuning, POLICY_NAMES};
pub use offline::{LooselyCoupledPolicy, OfflineOptimalPolicy};
pub use optimal::{dp_optimal_selection, exhaustive_optimal_profit, OnlineOptimalPolicy};
pub use rispp::RisppPolicy;
