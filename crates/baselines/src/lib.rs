//! # mrts-baselines — the paper's comparison run-time systems
//!
//! The selection policies mRTS is evaluated against in Section 5 of the
//! paper, all running on the same simulator and machine model. The paper
//! defines each online baseline by the mechanism it changes in mRTS, so
//! those two are presets of mRTS's own pipeline ([`mrts_core::Mrts`]):
//!
//! * [`mrts_core::MrtsConfig::rispp_like`] — the RISPP-like run-time
//!   system \[6\] extended to CG fabrics: the same greedy block-level
//!   selection loop but an FG-tuned (millisecond-scale) profit function
//!   and no monoCG-Extension, and
//! * [`mrts_core::MrtsConfig::online_optimal`] — the optimal selection at
//!   every trigger instruction ([`mrts_core::dp_optimal_selection`]), used
//!   only to grade the greedy heuristic (Fig. 9).
//!
//! This crate holds the static baselines, which bind their selection at
//! compile time from the whole run's profile. They differ only in the ISEs
//! they may pick and in how they execute, so they are one type,
//! [`StaticPolicy`], with two constructors:
//!
//! * [`StaticPolicy::loosely_coupled`] — the Morpheus \[8\] / 4S \[7\]-like
//!   compile-time, task-level, loosely coupled approach: static
//!   single-fabric assignment, all-or-nothing execution, and
//! * [`StaticPolicy::offline_optimal`] — the optimal static selection for
//!   tightly coupled multi-grained fabrics,
//!
//! and the [`make_policy`] factory that builds every policy by name.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod factory;
mod static_policy;

pub use factory::{make_policy, POLICY_NAMES};
/// The memo [`make_policy`] attaches to the mRTS presets.
pub use mrts_core::SelectionMemo;
pub use static_policy::StaticPolicy;
