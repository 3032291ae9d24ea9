//! Mapping estimators: data-path graph → software / CG-fabric / FG-fabric
//! implementation characteristics.
//!
//! These estimators replace the paper's place-and-route-fed tool chain
//! (Xilinx tools for the FG fabric, a TSMC 90 nm ASIC flow for the CG
//! fabric). They preserve the *cost structure* the run-time system cares
//! about:
//!
//! * software execution is slow for bit-level operations,
//! * the CG fabric executes word arithmetic fast but emulates bit-level
//!   operations, loads in µs and occupies one EDPE per data path,
//! * the FG fabric executes bit-level logic in a single pipelined pass but
//!   pays heavily (area and levels) for word multiply/divide, loads in ms
//!   and occupies one PRC per data path.

use crate::datapath::{CgClass, DataPathGraph, OpKind};
use crate::error::IseError;
use mrts_arch::{ArchParams, Cycles};
use serde::{Deserialize, Serialize};

/// LUT capacity of one PRC in this model. A data path whose area estimate
/// exceeds this cannot be mapped onto a single container.
pub(crate) const PRC_LUT_CAPACITY: u64 = 6_000;

/// Software (RISC-mode) cost of one invocation of the data path.
fn sw_cycles_per_call(graph: &DataPathGraph) -> u64 {
    // Sequential issue on the scalar core plus loop/branch overhead.
    const CALL_OVERHEAD: u64 = 2;
    graph.ops().map(|(k, _)| k.sw_cycles()).sum::<u64>() + CALL_OVERHEAD
}

/// Characteristics of a data path implemented on the CG fabric (one EDPE).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CgImpl {
    /// Context-program length in 80-bit instructions (including loop
    /// control), after splitting overhead if the program exceeds the
    /// context memory.
    pub instr_count: u16,
    /// CG-domain cycles per invocation of the data path.
    pub cg_cycles_per_call: u64,
    /// Number of context reload events per invocation (non-zero only when
    /// the program exceeds the context-memory capacity).
    pub context_reloads: u16,
}

/// Estimates the CG implementation of a graph.
///
/// List-schedules the operations onto the EDPE's two parallel ALUs;
/// emulated (bit-level) operations expand into their emulation sequences.
/// Programs longer than the context memory pay context-reload switches.
///
/// # Errors
///
/// Returns [`IseError::Unmappable`] if even one emulated operation sequence
/// exceeds the context memory on its own (the tool chain would refuse to
/// generate such an ISE).
pub fn map_to_cg(graph: &DataPathGraph, params: &ArchParams) -> Result<CgImpl, IseError> {
    let mut instrs: u64 = 0; // total context instructions
    let mut alu_cycles: u64 = 0; // serial cycle estimate before ALU parallelism
    for (kind, _) in graph.ops() {
        match kind.cg_class() {
            CgClass::Simple => {
                instrs += 1;
                alu_cycles += u64::from(params.cg_op_timing.simple);
            }
            CgClass::Multiply => {
                instrs += 1;
                alu_cycles += u64::from(params.cg_op_timing.multiply);
            }
            CgClass::Divide => {
                instrs += 1;
                alu_cycles += u64::from(params.cg_op_timing.divide);
            }
            CgClass::LoadStore => {
                instrs += 1;
                alu_cycles += u64::from(params.cg_op_timing.load_store);
            }
            CgClass::Emulated => {
                let n = kind.cg_emulation_ops();
                if n > u64::from(params.cg_context_capacity) {
                    return Err(IseError::Unmappable {
                        graph: graph.name().to_owned(),
                        reason: format!(
                            "emulation of {kind} needs {n} instructions, context holds {}",
                            params.cg_context_capacity
                        ),
                    });
                }
                instrs += n;
                alu_cycles += n * u64::from(params.cg_op_timing.simple);
            }
        }
    }
    // Two ALUs in parallel: ideal halving, bounded below by the dependence
    // chain (critical path with CG weights).
    let chain = graph.weighted_depth(|k| match k.cg_class() {
        CgClass::Simple | CgClass::LoadStore => u64::from(params.cg_op_timing.simple),
        CgClass::Multiply => u64::from(params.cg_op_timing.multiply),
        CgClass::Divide => u64::from(params.cg_op_timing.divide),
        CgClass::Emulated => k.cg_emulation_ops() * u64::from(params.cg_op_timing.simple),
    });
    let parallel = alu_cycles.div_ceil(2).max(chain).max(1);

    // Context splitting: each overflow segment costs one context switch and
    // a reload of the overflowing part.
    let capacity = u64::from(params.cg_context_capacity);
    let loop_ctrl = 1u64; // zero-overhead loop instruction
    let total_instrs = instrs + loop_ctrl;
    let segments = total_instrs.div_ceil(capacity).max(1);
    let context_reloads = (segments - 1) as u16;
    let switch = u64::from(params.cg_context_switch_cycles) * u64::from(context_reloads);

    Ok(CgImpl {
        instr_count: total_instrs.min(capacity * segments) as u16,
        cg_cycles_per_call: parallel + switch,
        context_reloads,
    })
}

/// Characteristics of a data path implemented on the FG fabric (one PRC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct FgImpl {
    /// Pipeline depth in FG cycles (latency of the first result).
    pub(crate) pipeline_depth_fg: u64,
    /// Initiation interval in FG cycles: how often a new invocation batch
    /// can enter the pipeline. 1 for fully pipelined logic; larger when the
    /// data path contains iterative multipliers/dividers.
    pub(crate) initiation_interval: u64,
    /// Spatial vector lanes: how many invocations are processed per
    /// initiation. Small data paths are replicated until the container is
    /// full — the source of the FG fabric's large asymptotic speedup
    /// (the paper's Fig. 1, where the all-FG ISE-1 reaches the highest
    /// performance improvement factor).
    pub(crate) lanes: u64,
    /// LUT area estimate of one lane.
    pub(crate) luts: u64,
    /// Partial-bitstream size in bytes (drives reconfiguration time).
    pub(crate) bitstream_bytes: u64,
}

/// Estimates the FG implementation of a graph.
///
/// The data path becomes a spatial pipeline: latency is the weighted
/// critical path ([`OpKind::fg_levels`]); repeated invocations stream with
/// an initiation interval of one FG cycle. Area is the sum of per-operation
/// LUT costs; the partial bitstream scales with the occupied fraction of
/// the container.
///
/// # Errors
///
/// Returns [`IseError::Unmappable`] if the area exceeds
/// [`PRC_LUT_CAPACITY`].
pub(crate) fn map_to_fg(graph: &DataPathGraph, params: &ArchParams) -> Result<FgImpl, IseError> {
    let luts: u64 = graph.ops().map(|(k, _)| k.fg_luts()).sum();
    if luts > PRC_LUT_CAPACITY {
        return Err(IseError::Unmappable {
            graph: graph.name().to_owned(),
            reason: format!("area {luts} LUTs exceeds PRC capacity {PRC_LUT_CAPACITY}"),
        });
    }
    let depth = graph.weighted_depth(OpKind::fg_levels).max(1);
    let initiation_interval = graph
        .ops()
        .map(|(k, _)| k.fg_initiation_interval())
        .max()
        .unwrap_or(1);
    // Spatial replication: small data paths are instantiated several times
    // inside one container (bounded by routing/IO at 8 lanes).
    let lanes = (PRC_LUT_CAPACITY / luts.max(1)).clamp(1, 8);
    let occupied = (luts * lanes).min(PRC_LUT_CAPACITY);
    // A partial bitstream always configures the whole container frame set a
    // data path touches: between 50% and 100% of the nominal column.
    let fraction = 0.5 + 0.5 * (occupied as f64 / PRC_LUT_CAPACITY as f64);
    let bitstream_bytes = (params.fg_nominal_bitstream_bytes as f64 * fraction) as u64;
    Ok(FgImpl {
        pipeline_depth_fg: depth,
        initiation_interval,
        lanes,
        luts,
        bitstream_bytes,
    })
}

/// Per-kernel-execution hardware cycles (in **core cycles**) of `calls`
/// back-to-back invocations on the CG fabric, including the EDPE context
/// switch to activate the data path.
#[must_use]
pub(crate) fn cg_cycles_per_exec(imp: &CgImpl, calls: u32, params: &ArchParams) -> Cycles {
    let switch = u64::from(params.cg_context_switch_cycles);
    let cg = switch + u64::from(calls) * imp.cg_cycles_per_call;
    params.cg_to_core(cg)
}

/// Per-kernel-execution hardware cycles (in **core cycles**) of `calls`
/// pipelined invocations on the FG fabric: pipeline fill plus one
/// initiation interval per further invocation *batch* (the spatial lanes
/// process [`FgImpl::lanes`] invocations at once).
#[must_use]
pub(crate) fn fg_cycles_per_exec(imp: &FgImpl, calls: u32, params: &ArchParams) -> Cycles {
    if calls == 0 {
        return Cycles::ZERO;
    }
    let batches = u64::from(calls).div_ceil(imp.lanes.max(1));
    let fg = imp.pipeline_depth_fg + (batches - 1) * imp.initiation_interval;
    params.fg_to_core(fg)
}

/// Per-kernel-execution software cycles (core cycles) of `calls`
/// invocations in RISC mode.
#[must_use]
pub(crate) fn sw_cycles_per_exec(graph: &DataPathGraph, calls: u32) -> Cycles {
    Cycles::new(u64::from(calls) * sw_cycles_per_call(graph))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datapath::DataPathGraph;

    fn word_graph() -> DataPathGraph {
        // A small arithmetic pipeline: ((a+b)*c) clipped.
        let mut b = DataPathGraph::builder("word");
        let a = b.input();
        let c = b.input();
        let d = b.input();
        let s = b.op(OpKind::Add, &[a, c]);
        let m = b.op(OpKind::Mul, &[s, d]);
        let lo = b.input();
        let hi = b.input();
        let _ = b.op(OpKind::Clip, &[m, lo, hi]);
        b.finish().unwrap()
    }

    fn bit_graph() -> DataPathGraph {
        let mut b = DataPathGraph::builder("bits");
        let a = b.input();
        let s = b.op(OpKind::BitShuffle, &[a, a]);
        let e = b.op(OpKind::BitExtract, &[s]);
        let p = b.op(OpKind::PopCount, &[e]);
        let _ = b.op(OpKind::Cmp, &[p, a]);
        b.finish().unwrap()
    }

    #[test]
    fn sw_cost_is_ops_plus_call_overhead_per_call() {
        let mut b = DataPathGraph::builder("g");
        let a = b.input();
        let x = b.op(OpKind::Mul, &[a, a]);
        let _ = b.op(OpKind::Add, &[x, a]);
        let g = b.finish().unwrap();
        // mul(4) + add(1) plus the per-call loop overhead of 2, three calls.
        assert_eq!(sw_cycles_per_exec(&g, 3), Cycles::new(3 * (4 + 1 + 2)));
    }

    #[test]
    fn cg_prefers_word_graphs() {
        let p = ArchParams::default();
        let word = map_to_cg(&word_graph(), &p).unwrap();
        let bits = map_to_cg(&bit_graph(), &p).unwrap();
        // The bit graph has fewer native ops but emulation blows it up.
        assert!(bits.cg_cycles_per_call > word.cg_cycles_per_call);
        assert!(bits.instr_count > word.instr_count);
    }

    #[test]
    fn fg_prefers_bit_graphs() {
        let p = ArchParams::default();
        let word = map_to_fg(&word_graph(), &p).unwrap();
        let bits = map_to_fg(&bit_graph(), &p).unwrap();
        assert!(bits.pipeline_depth_fg < word.pipeline_depth_fg);
        assert!(bits.luts < word.luts);
        assert!(bits.bitstream_bytes < word.bitstream_bytes);
    }

    #[test]
    fn fg_area_limit_enforced() {
        let p = ArchParams::default();
        let mut b = DataPathGraph::builder("huge");
        let mut cur = b.input();
        for _ in 0..4 {
            cur = b.op(OpKind::Div, &[cur, cur]); // 1 900 LUTs each
        }
        let g = b.finish().unwrap();
        assert!(matches!(
            map_to_fg(&g, &p),
            Err(IseError::Unmappable { .. })
        ));
    }

    #[test]
    fn cg_context_splitting_costs_switches() {
        let p = ArchParams::default();
        // 6 bit-shuffles at 8 emulation instructions each = 48 + loop > 32.
        let mut b = DataPathGraph::builder("long");
        let mut cur = b.input();
        for _ in 0..6 {
            cur = b.op(OpKind::BitShuffle, &[cur, cur]);
        }
        let g = b.finish().unwrap();
        let imp = map_to_cg(&g, &p).unwrap();
        assert!(imp.context_reloads >= 1);
    }

    #[test]
    fn per_exec_costs_scale_with_calls() {
        let p = ArchParams::default();
        let g = word_graph();
        let cg = map_to_cg(&g, &p).unwrap();
        let fg = map_to_fg(&g, &p).unwrap();
        let cg1 = cg_cycles_per_exec(&cg, 1, &p);
        let cg4 = cg_cycles_per_exec(&cg, 4, &p);
        assert!(cg4 >= cg1 * 3);
        // The FG pipeline amortizes: 4 calls cost far less than 4x one call.
        let fg1 = fg_cycles_per_exec(&fg, 1, &p);
        let fg4 = fg_cycles_per_exec(&fg, 4, &p);
        assert!(fg4 < fg1 * 4);
        assert_eq!(fg_cycles_per_exec(&fg, 0, &p), Cycles::ZERO);
    }

    #[test]
    fn fg_lanes_replicate_small_data_paths() {
        let p = ArchParams::default();
        let small = map_to_fg(&bit_graph(), &p).unwrap();
        // Tiny bit-level logic replicates up to the lane cap.
        assert_eq!(small.lanes, 8);
        // A multiplier-heavy path gets fewer lanes (big LUT footprint).
        let mut b = DataPathGraph::builder("mul_heavy");
        let x = b.input();
        let y = b.input();
        let m1 = b.op(OpKind::Mul, &[x, y]);
        let m2 = b.op(OpKind::Mul, &[m1, y]);
        let _ = b.op(OpKind::Add, &[m2, x]);
        let big = map_to_fg(&b.finish().unwrap(), &p).unwrap();
        assert!(big.lanes < small.lanes);
        // Lanes amortize calls: 16 calls on 8 lanes = 2 batches.
        let one_batch = fg_cycles_per_exec(&small, 8, &p);
        let two_batches = fg_cycles_per_exec(&small, 16, &p);
        assert!(two_batches > one_batch);
        assert!(two_batches < one_batch * 2 + Cycles::new(8));
        // More occupied lanes -> larger partial bitstream.
        assert!(small.bitstream_bytes > map_to_fg(&bit_graph(), &p).unwrap().luts);
    }

    #[test]
    fn hardware_beats_software_on_matching_fabric() {
        let p = ArchParams::default();
        let wg = word_graph();
        let bg = bit_graph();
        let calls = 16;
        let sw_w = sw_cycles_per_exec(&wg, calls);
        let sw_b = sw_cycles_per_exec(&bg, calls);
        let cg_w = cg_cycles_per_exec(&map_to_cg(&wg, &p).unwrap(), calls, &p);
        let fg_b = fg_cycles_per_exec(&map_to_fg(&bg, &p).unwrap(), calls, &p);
        assert!(cg_w < sw_w, "CG should accelerate the word graph");
        assert!(fg_b < sw_b, "FG should accelerate the bit graph");
    }
}
