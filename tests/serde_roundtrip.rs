//! Serde round-trips: catalogues, traces, machines and run statistics are
//! data structures users will persist (e.g. to cache the compile-time
//! stage or archive experiment results), so their serialisation must be
//! lossless.

use mrts::arch::{ArchParams, Machine, Resources};
use mrts::core::Mrts;
use mrts::ise::IseCatalog;
use mrts::sim::RunStats;
use mrts::workload::{Trace, VideoModel};
use mrts_bench::Testbed;

#[test]
fn catalog_round_trips_through_json() {
    let c = Testbed::new("h264", 1).catalog;
    let json = serde_json::to_string(&c).expect("serializes");
    let back: IseCatalog = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(c, back);
}

#[test]
fn trace_round_trips_through_json() {
    let t = Testbed::new("h264", 3).trace;
    let json = serde_json::to_string(&t).expect("serializes");
    let back: Trace = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(t, back);
}

#[test]
fn machine_round_trips_through_json() {
    let m = Machine::new(ArchParams::default(), Resources::new(2, 3)).expect("valid");
    let json = serde_json::to_string(&m).expect("serializes");
    let back: Machine = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(m, back);
}

#[test]
fn run_stats_round_trip_through_json() {
    let stats = Testbed::new("h264", 1).run(Resources::new(1, 1), &mut Mrts::new());
    let json = serde_json::to_string(&stats).expect("serializes");
    let back: RunStats = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(stats, back);
}

#[test]
fn video_model_round_trips_and_regenerates_identically() {
    let v = VideoModel::paper_default(9);
    let json = serde_json::to_string(&v).expect("serializes");
    let back: VideoModel = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(v, back);
    assert_eq!(v.frames(), back.frames());
}
