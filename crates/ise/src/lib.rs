//! # mrts-ise — instruction-set-extension model
//!
//! The mRTS run-time system selects among compile-time prepared
//! *Instruction Set Extensions* (ISEs). This crate is the Rust counterpart
//! of the paper's proprietary compile-time tool chain (Section 4, referring
//! to \[18\]\[19\]): it models
//!
//! * **data paths** as small operator graphs ([`datapath`]) with bit-level
//!   and word-level operations,
//! * **mapping estimators** ([`mapping`]) that derive, for each data path,
//!   its software cost on the RISC core, its latency/area on the CG fabric
//!   and its latency/area/bitstream size on the FG fabric (the catalogue
//!   builder applies them; only the CG estimator is public, for the
//!   simulator's EDPE cross-validation),
//! * **load units** ([`mod@unit`]) — the atomic reconfigurable artefacts (one
//!   PRC bitstream or one EDPE context program) that the reconfiguration
//!   controller streams in,
//! * **ISEs** (the [`ise`] module) — per-kernel sets of load units with derived
//!   intermediate-ISE latencies (the shrinking boxes of the paper's Fig. 5),
//! * **kernels** and their **monoCG-Extensions** ([`kernel`]),
//! * **trigger instructions** ([`trigger`]) — the `{Kᵢ, eᵢ, tfᵢ, tbᵢ}`
//!   forecasts the programmer embeds at the head of each functional block,
//! * the **catalogue builder** ([`library`]) that enumerates FG/CG/MG
//!   variants per kernel (up to dozens, matching the paper's "up to 60 ISEs
//!   for a single kernel") and filters the ones that can never fit.
//!
//! ## Example
//!
//! ```
//! use mrts_ise::datapath::{DataPathGraph, OpKind};
//! use mrts_ise::library::CatalogBuilder;
//! use mrts_ise::kernel::KernelSpec;
//! use mrts_arch::ArchParams;
//!
//! # fn main() -> Result<(), mrts_ise::IseError> {
//! let mut g = DataPathGraph::builder("sad4");
//! let a = g.input();
//! let b = g.input();
//! let d = g.op(OpKind::Sub, &[a, b]);
//! let _abs = g.op(OpKind::Abs, &[d]);
//! let graph = g.finish()?;
//!
//! let kernel = KernelSpec::new("sad")
//!     .data_path(graph, 16)      // invoked 16x per kernel execution
//!     .overhead_cycles(120);
//!
//! let catalog = CatalogBuilder::new(mrts_arch::ArchParams::default())
//!     .kernel(kernel)
//!     .build()?;
//! assert!(!catalog.ises_of(catalog.kernels()[0].id()).is_empty());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod datapath;
pub mod error;
pub mod ids;
pub mod ise;
pub mod kernel;
pub mod library;
pub mod mapping;
pub mod trigger;
pub mod unit;

pub use error::IseError;
pub use ids::{BlockId, GraphId, IseId, KernelId, UnitId};
pub use ise::{Grain, Ise};
pub use kernel::{Kernel, KernelSpec, MonoCgExtension};
pub use library::{CatalogBuilder, IseCatalog};
pub use trigger::{TriggerBlock, TriggerInstruction};
pub use unit::LoadUnit;
