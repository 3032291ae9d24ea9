//! # mrts-fleet — open-loop tenant churn and multi-fabric sharding
//!
//! The fleet layer turns the multi-tenant runner ([`mrts_multitask`])
//! into a long-lived service: sessions arrive over time (seeded Poisson
//! or a replayed JSONL trace), a placement policy picks one of several
//! independent fabric shards, the shard's admission controller admits,
//! queues or rejects, and departures free fabric for re-apportionment or
//! for the queue head. The whole pipeline is integer-deterministic and
//! replayable — see `DESIGN.md` §13.
//!
//! ```
//! use mrts_arch::ArchParams;
//! use mrts_fleet::{poisson_arrivals, run_fleet, AppRegistry, FleetConfig, PoissonConfig};
//!
//! let params = ArchParams::default();
//! let registry = AppRegistry::new(&params, &["toy"], 2, 1, 40)?;
//! let arrivals = poisson_arrivals(&PoissonConfig {
//!     sessions: 20,
//!     ..PoissonConfig::default()
//! });
//! let out = run_fleet(&params, &registry, &arrivals, &FleetConfig::default())?;
//! assert_eq!(out.stats.offered, 20);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod arrivals;
pub mod fleet;
pub mod placement;
pub mod registry;

pub use arrivals::{
    poisson_arrivals, records_from_jsonl, records_to_jsonl, PoissonConfig, SessionRecord,
};
pub use fleet::{run_fleet, FleetConfig, FleetError, FleetOutcome};
pub use placement::Placement;
pub use registry::{AppRegistry, RegistryError};
