//! # mrts-workload — applications and input-dependent execution traces
//!
//! The paper evaluates mRTS on a complete H.264 video encoder because it
//! *"is a complex application and exhibits various compute-intensive
//! kernels with both control- and data-flow dominant processing"*. This
//! crate provides:
//!
//! * [`video`] — a synthetic, seeded video model standing in for the real
//!   sequences (scene structure, per-macroblock features),
//! * [`app`] — the application/functional-block structure and the
//!   [`app::WorkloadModel`] trait,
//! * [`trace`] — block-activation traces with compile-time forecasts vs.
//!   input-dependent actual behaviour, and
//! * [`synthetic`] — step/ramp/burst patterns for targeted tests.
//!
//! The applications themselves — the encoder of the evaluation, an FFT
//! pipeline, a stream cipher and more — are workload manifests, lowered to
//! [`WorkloadModel`]s by `mrts-ingest`. [`TraceBuilder`] shows a small
//! model written by hand.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod app;
pub mod synthetic;
pub mod trace;
pub mod video;

pub use app::{Application, FunctionalBlock, MergeError, MergedWorkload, WorkloadModel};
pub use trace::{BlockActivation, KernelActivity, Trace, TraceBuilder};
pub use video::{Scene, VideoModel};
