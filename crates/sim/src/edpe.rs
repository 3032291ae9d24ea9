//! Functional interpreter for CG-EDPE context programs.
//!
//! The coarse-grained fabric of Section 5.1 executes 80-bit instructions
//! from a 32-entry context memory: two register files, 1/2/10-cycle
//! ALU/multiply/divide, a zero-overhead loop instruction, and a 32-bit
//! load/store unit. This module provides
//!
//! * an 80-bit instruction **encoding** (`Instr` ⇄ `u128`),
//! * a **compiler** from data-path operator graphs to context programs
//!   ([`compile_graph`]), emitting the same instruction counts the
//!   [`mapping`](mrts_ise::mapping) estimator charges (emulated bit-level
//!   operations expand to their emulation sequences), and
//! * the **interpreter** ([`EdpeInterpreter`]) that executes programs
//!   functionally and counts cycles with the Section 5.1 timing table.
//!
//! The interpreter cross-validates the analytic CG cost model: for every
//! data path, the serial interpreter cycle count must bracket the
//! estimator's 2-ALU schedule (tests below and in `tests/`).

use mrts_arch::{ArchParams, OpClass, Scratchpad};
use mrts_ise::datapath::{CgClass, DataPathGraph, Node, OpKind};
use std::error::Error;
use std::fmt;

/// Number of addressable registers (two 32×32-bit register files).
pub(crate) const REG_COUNT: usize = 64;

/// Words of scratch-pad memory visible to load/store.
pub(crate) const SCRATCHPAD_WORDS: usize = 256;

/// Banks of the EDPE's scratch-pad.
pub(crate) const SCRATCHPAD_BANKS: u32 = 4;

/// One CG-EDPE instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Instr {
    /// Apply an operator to up to three source registers.
    Op {
        /// The operation.
        kind: OpKind,
        /// Destination register.
        dst: u8,
        /// Source registers (unused slots are ignored).
        srcs: [u8; 3],
    },
    /// Load a 32-bit immediate.
    LoadImm {
        /// Destination register.
        dst: u8,
        /// The immediate value.
        imm: u32,
    },
    /// Filler cycle (used by emulation sequences).
    Nop,
    /// Zero-overhead loop: repeat the next `body` instructions `count`
    /// times. Costs a single setup cycle.
    Loop {
        /// Iteration count.
        count: u16,
        /// Number of body instructions following this one.
        body: u8,
    },
    /// Stop execution.
    Halt,
}

const OPC_LOADIMM: u8 = 0xF0;
const OPC_NOP: u8 = 0xF1;
const OPC_LOOP: u8 = 0xF2;
const OPC_HALT: u8 = 0xFF;

fn opkind_code(kind: OpKind) -> u8 {
    OpKind::ALL
        .iter()
        .position(|k| *k == kind)
        .expect("OpKind::ALL is exhaustive") as u8
}

fn code_opkind(code: u8) -> Option<OpKind> {
    OpKind::ALL.get(usize::from(code)).copied()
}

impl Instr {
    /// Encodes into an 80-bit instruction word (low 80 bits of the `u128`).
    ///
    /// Layout: `opcode[79:72] dst[71:64] s1[63:56] s2[55:48] s3[47:40]
    /// imm[39:8] rsvd[7:0]`.
    #[must_use]
    pub(crate) fn encode(self) -> u128 {
        let (opcode, dst, s1, s2, s3, imm) = match self {
            Instr::Op { kind, dst, srcs } => {
                (opkind_code(kind), dst, srcs[0], srcs[1], srcs[2], 0u32)
            }
            Instr::LoadImm { dst, imm } => (OPC_LOADIMM, dst, 0, 0, 0, imm),
            Instr::Nop => (OPC_NOP, 0, 0, 0, 0, 0),
            Instr::Loop { count, body } => (OPC_LOOP, body, 0, 0, 0, u32::from(count)),
            Instr::Halt => (OPC_HALT, 0, 0, 0, 0, 0),
        };
        (u128::from(opcode) << 72)
            | (u128::from(dst) << 64)
            | (u128::from(s1) << 56)
            | (u128::from(s2) << 48)
            | (u128::from(s3) << 40)
            | (u128::from(imm) << 8)
    }

    /// Decodes an 80-bit instruction word.
    ///
    /// # Errors
    ///
    /// Returns [`EdpeError::IllegalInstruction`] for unknown opcodes.
    pub(crate) fn decode(word: u128) -> Result<Instr, EdpeError> {
        let opcode = (word >> 72) as u8;
        let dst = (word >> 64) as u8;
        let s1 = (word >> 56) as u8;
        let s2 = (word >> 48) as u8;
        let s3 = (word >> 40) as u8;
        let imm = (word >> 8) as u32;
        match opcode {
            OPC_LOADIMM => Ok(Instr::LoadImm { dst, imm }),
            OPC_NOP => Ok(Instr::Nop),
            OPC_LOOP => Ok(Instr::Loop {
                count: imm as u16,
                body: dst,
            }),
            OPC_HALT => Ok(Instr::Halt),
            c => code_opkind(c)
                .map(|kind| Instr::Op {
                    kind,
                    dst,
                    srcs: [s1, s2, s3],
                })
                .ok_or(EdpeError::IllegalInstruction(opcode)),
        }
    }
}

/// A context program: encoded instruction words.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ContextProgram {
    words: Vec<u128>,
}

impl ContextProgram {
    /// Assembles a program from instructions, appending a final `Halt`.
    #[must_use]
    fn assemble(instrs: &[Instr]) -> Self {
        let mut words: Vec<u128> = instrs.iter().map(|i| i.encode()).collect();
        words.push(Instr::Halt.encode());
        ContextProgram { words }
    }

    /// The encoded instruction words (including the final `Halt`).
    #[must_use]
    pub fn words(&self) -> &[u128] {
        &self.words
    }

    /// Instruction count excluding the final `Halt`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.len().saturating_sub(1)
    }

    /// Whether the program has no instructions (besides `Halt`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Interpreter errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum EdpeError {
    /// Unknown opcode.
    IllegalInstruction(u8),
    /// A register index exceeded `REG_COUNT` (64).
    BadRegister(u8),
    /// Loop body extended past the end of the program.
    MalformedLoop,
    /// The cycle budget was exhausted (runaway program).
    CycleLimit,
}

impl fmt::Display for EdpeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdpeError::IllegalInstruction(op) => write!(f, "illegal instruction opcode {op:#x}"),
            EdpeError::BadRegister(r) => write!(f, "register index {r} out of range"),
            EdpeError::MalformedLoop => write!(f, "loop body extends past end of program"),
            EdpeError::CycleLimit => write!(f, "cycle limit exhausted"),
        }
    }
}

impl Error for EdpeError {}

/// Mutable machine state of one EDPE.
#[derive(Debug, Clone)]
pub struct EdpeState {
    /// The register files.
    pub regs: [u32; REG_COUNT],
    /// The banked scratch-pad memory.
    pub mem: Scratchpad,
}

impl EdpeState {
    /// Fresh state with zeroed registers and scratch-pad.
    #[must_use]
    pub fn new() -> Self {
        EdpeState {
            regs: [0; REG_COUNT],
            mem: Scratchpad::new(SCRATCHPAD_BANKS, SCRATCHPAD_WORDS as u32 / SCRATCHPAD_BANKS),
        }
    }

    /// Fresh state with the first registers preloaded (data-path inputs).
    #[must_use]
    pub fn with_inputs(inputs: &[u32]) -> Self {
        let mut s = Self::new();
        for (i, v) in inputs.iter().take(REG_COUNT).enumerate() {
            s.regs[i] = *v;
        }
        s
    }
}

impl Default for EdpeState {
    fn default() -> Self {
        Self::new()
    }
}

/// Result of one program execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOutcome {
    /// CG-domain cycles consumed.
    pub cycles: u64,
    /// Value of the register written last (the data path's result).
    pub result: u32,
}

/// Canonical semantics of every operator — shared by the interpreter and
/// the reference graph evaluator so they can be compared bit-for-bit.
#[must_use]
fn eval_op(kind: OpKind, a: u32, b: u32, c: u32) -> u32 {
    match kind {
        OpKind::Add => a.wrapping_add(b),
        OpKind::Sub => a.wrapping_sub(b),
        OpKind::Mul => a.wrapping_mul(b),
        OpKind::Div => a.checked_div(b).unwrap_or(0),
        OpKind::Shl => a << (b & 31),
        OpKind::Shr => a >> (b & 31),
        OpKind::And => a & b,
        OpKind::Or => a | b,
        OpKind::Xor => a ^ b,
        OpKind::Min => (a as i32).min(b as i32) as u32,
        OpKind::Max => (a as i32).max(b as i32) as u32,
        OpKind::Abs => (a as i32).wrapping_abs() as u32,
        OpKind::Clip => {
            let (v, lo, hi) = (a as i32, b as i32, c as i32);
            if lo <= hi {
                v.clamp(lo, hi) as u32
            } else {
                v as u32
            }
        }
        OpKind::Mac => a.wrapping_add(b.wrapping_mul(c)),
        OpKind::Cmp => u32::from((a as i32) < (b as i32)),
        OpKind::Select => {
            if a != 0 {
                b
            } else {
                c
            }
        }
        OpKind::Load => a, // scratch-pad handled by the interpreter
        OpKind::Store => b,
        OpKind::BitExtract => (a >> 8) & 0xFF,
        OpKind::BitInsert => (a & !(0xFFu32 << (c & 24))) | ((b & 0xFF) << (c & 24)),
        OpKind::BitShuffle => a.rotate_left(b & 31) ^ (a >> 16),
        OpKind::Pack => (a & 0xFFFF) | (b << 16),
        OpKind::Unpack => a >> 16,
        OpKind::PopCount => a.count_ones(),
        OpKind::Parity => a.count_ones() & 1,
        OpKind::LutLookup => ((a & 0xFF).wrapping_mul(167).wrapping_add(13)) & 0xFF,
        OpKind::Mask => a & (b.rotate_left(8) | 0xF0F0_F0F0),
    }
}

/// Reference evaluation of a data-path graph (inputs in declaration order).
/// Returns the value of the last operation node.
#[must_use]
pub fn evaluate_graph(graph: &DataPathGraph, inputs: &[u32]) -> u32 {
    let mut values = Vec::with_capacity(graph.nodes().len());
    let mut next_input = 0usize;
    let mut last = 0u32;
    for node in graph.nodes() {
        let v = match node {
            Node::Input => {
                let v = inputs.get(next_input).copied().unwrap_or(0);
                next_input += 1;
                v
            }
            Node::Op { kind, operands } => {
                let g = |i: usize| operands.get(i).map_or(0, |r| values[r.index()]);
                let v = eval_op(*kind, g(0), g(1), g(2));
                last = v;
                v
            }
        };
        values.push(v);
    }
    last
}

/// Compiles a data-path graph into a context program.
///
/// Inputs are taken from registers `0..input_count`; node results are
/// assigned to the following registers. Emulated (bit-level) operations are
/// padded with `Nop` filler to the emulation length the cost model charges,
/// so the interpreter's cycle count matches the analytic estimate.
///
/// Returns the program and the register holding the final result.
///
/// # Errors
///
/// Returns [`EdpeError::BadRegister`] if the graph needs more than
/// `REG_COUNT` (64) registers.
pub fn compile_graph(graph: &DataPathGraph) -> Result<(ContextProgram, u8), EdpeError> {
    if graph.nodes().len() > REG_COUNT {
        return Err(EdpeError::BadRegister(graph.nodes().len() as u8));
    }
    let mut instrs = Vec::new();
    let mut reg_of = Vec::with_capacity(graph.nodes().len());
    let mut next_input = 0u8;
    let mut next_reg = graph.input_count() as u8;
    let mut result_reg = 0u8;
    for node in graph.nodes() {
        match node {
            Node::Input => {
                reg_of.push(next_input);
                next_input += 1;
            }
            Node::Op { kind, operands } => {
                let mut srcs = [0u8; 3];
                for (i, r) in operands.iter().enumerate() {
                    srcs[i] = reg_of[r.index()];
                }
                // Emulation filler first, then the effective operation —
                // the count the CG cost model charges.
                for _ in 1..kind.cg_emulation_ops().max(1) {
                    instrs.push(Instr::Nop);
                }
                instrs.push(Instr::Op {
                    kind: *kind,
                    dst: next_reg,
                    srcs,
                });
                reg_of.push(next_reg);
                result_reg = next_reg;
                next_reg += 1;
            }
        }
    }
    Ok((ContextProgram::assemble(&instrs), result_reg))
}

/// The interpreter: executes context programs with the Section 5.1 timing.
#[derive(Debug, Clone)]
pub struct EdpeInterpreter {
    params: ArchParams,
    cycle_limit: u64,
}

impl EdpeInterpreter {
    /// Creates an interpreter for the given architecture.
    #[must_use]
    pub fn new(params: ArchParams) -> Self {
        EdpeInterpreter {
            params,
            cycle_limit: 10_000_000,
        }
    }

    /// Executes a program on the given state.
    ///
    /// # Errors
    ///
    /// Returns an [`EdpeError`] for malformed programs or when the cycle
    /// limit is exhausted.
    pub fn execute(
        &self,
        program: &ContextProgram,
        state: &mut EdpeState,
    ) -> Result<ExecOutcome, EdpeError> {
        let words = program.words();
        let mut pc = 0usize;
        let mut cycles = 0u64;
        let mut last_written = 0u8;
        // Zero-overhead loop state: (start pc, end pc, remaining).
        let mut loop_state: Option<(usize, usize, u16)> = None;

        while pc < words.len() {
            if cycles > self.cycle_limit {
                return Err(EdpeError::CycleLimit);
            }
            let instr = Instr::decode(words[pc])?;
            match instr {
                Instr::Halt => break,
                Instr::Nop => {
                    cycles += OpClass::Simple.latency(&self.params);
                    pc += 1;
                }
                Instr::LoadImm { dst, imm } => {
                    let d = reg(dst)?;
                    state.regs[d] = imm;
                    last_written = dst;
                    cycles += OpClass::Simple.latency(&self.params);
                    pc += 1;
                }
                Instr::Loop { count, body } => {
                    let start = pc + 1;
                    let end = start + usize::from(body);
                    if end > words.len() {
                        return Err(EdpeError::MalformedLoop);
                    }
                    cycles += OpClass::Simple.latency(&self.params); // setup only
                    if count > 1 {
                        loop_state = Some((start, end, count - 1));
                    }
                    pc = start;
                }
                Instr::Op { kind, dst, srcs } => {
                    let d = reg(dst)?;
                    let a = state.regs[reg(srcs[0])?];
                    let b = state.regs[reg(srcs[1])?];
                    let c = state.regs[reg(srcs[2])?];
                    let v = match kind {
                        OpKind::Load => state.mem.read(a),
                        OpKind::Store => {
                            state.mem.write(a, b);
                            b
                        }
                        k => eval_op(k, a, b, c),
                    };
                    state.regs[d] = v;
                    last_written = dst;
                    cycles += match kind.cg_class() {
                        CgClass::Simple | CgClass::Emulated => {
                            OpClass::Simple.latency(&self.params)
                        }
                        CgClass::Multiply => OpClass::Multiply.latency(&self.params),
                        CgClass::Divide => OpClass::Divide.latency(&self.params),
                        CgClass::LoadStore => OpClass::LoadStore.latency(&self.params),
                    };
                    pc += 1;
                }
            }
            // Zero-overhead loop back-edge.
            if let Some((start, end, remaining)) = loop_state {
                if pc == end {
                    if remaining > 0 {
                        loop_state = Some((start, end, remaining - 1));
                        pc = start;
                    } else {
                        loop_state = None;
                    }
                }
            }
        }
        Ok(ExecOutcome {
            cycles,
            result: state.regs[usize::from(last_written)],
        })
    }
}

fn reg(r: u8) -> Result<usize, EdpeError> {
    if usize::from(r) < REG_COUNT {
        Ok(usize::from(r))
    } else {
        Err(EdpeError::BadRegister(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrts_ise::mapping::map_to_cg;
    use proptest::prelude::*;

    fn interp() -> EdpeInterpreter {
        EdpeInterpreter::new(ArchParams::default())
    }

    #[test]
    fn encode_decode_round_trip() {
        let cases = [
            Instr::Op {
                kind: OpKind::Mac,
                dst: 7,
                srcs: [1, 2, 3],
            },
            Instr::LoadImm {
                dst: 63,
                imm: 0xDEAD_BEEF,
            },
            Instr::Nop,
            Instr::Loop {
                count: 100,
                body: 5,
            },
            Instr::Halt,
        ];
        for i in cases {
            assert_eq!(Instr::decode(i.encode()).unwrap(), i);
            // Only the low 80 bits may be used.
            assert_eq!(i.encode() >> 80, 0);
        }
        assert!(matches!(
            Instr::decode((0xEEu128) << 72),
            Err(EdpeError::IllegalInstruction(0xEE))
        ));
    }

    #[test]
    fn arithmetic_program_executes() {
        // r2 = r0 + r1; r3 = r2 * r0
        let prog = ContextProgram::assemble(&[
            Instr::Op {
                kind: OpKind::Add,
                dst: 2,
                srcs: [0, 1, 0],
            },
            Instr::Op {
                kind: OpKind::Mul,
                dst: 3,
                srcs: [2, 0, 0],
            },
        ]);
        let mut st = EdpeState::with_inputs(&[5, 7]);
        let out = interp().execute(&prog, &mut st).unwrap();
        assert_eq!(out.result, 60);
        assert_eq!(out.cycles, 1 + 2); // add 1, mul 2
    }

    #[test]
    fn zero_overhead_loop_repeats_body() {
        // r1 += r0, looped 10 times: one setup cycle + 10 adds.
        let prog = ContextProgram::assemble(&[
            Instr::Loop { count: 10, body: 1 },
            Instr::Op {
                kind: OpKind::Add,
                dst: 1,
                srcs: [1, 0, 0],
            },
        ]);
        let mut st = EdpeState::with_inputs(&[3]);
        let out = interp().execute(&prog, &mut st).unwrap();
        assert_eq!(st.regs[1], 30);
        assert_eq!(out.cycles, 1 + 10);
    }

    #[test]
    fn load_store_use_scratchpad() {
        let prog = ContextProgram::assemble(&[
            Instr::LoadImm { dst: 0, imm: 5 },  // address
            Instr::LoadImm { dst: 1, imm: 99 }, // value
            Instr::Op {
                kind: OpKind::Store,
                dst: 2,
                srcs: [0, 1, 0],
            },
            Instr::Op {
                kind: OpKind::Load,
                dst: 3,
                srcs: [0, 0, 0],
            },
        ]);
        let mut st = EdpeState::new();
        let out = interp().execute(&prog, &mut st).unwrap();
        assert_eq!(out.result, 99);
        assert_eq!(st.mem.read(5), 99);
    }

    #[test]
    fn compiled_graph_matches_reference_semantics() {
        let g = mrts_workload_free_graph();
        let (prog, result_reg) = compile_graph(&g).unwrap();
        let inputs = [123u32, 456u32];
        let mut st = EdpeState::with_inputs(&inputs);
        let out = interp().execute(&prog, &mut st).unwrap();
        assert_eq!(st.regs[usize::from(result_reg)], out.result);
        assert_eq!(out.result, evaluate_graph(&g, &inputs));
    }

    // A deterministic mixed word/bit graph without depending on the
    // workload crate.
    fn mrts_workload_free_graph() -> DataPathGraph {
        let mut b = DataPathGraph::builder("mixed");
        let x = b.input();
        let y = b.input();
        let s = b.op(OpKind::Add, &[x, y]);
        let sh = b.op(OpKind::BitShuffle, &[s, y]);
        let p = b.op(OpKind::PopCount, &[sh]);
        let m = b.op(OpKind::Mul, &[p, s]);
        let _ = b.op(OpKind::Max, &[m, x]);
        b.finish().unwrap()
    }

    #[test]
    fn interpreter_cycles_bracket_the_analytic_estimate() {
        let g = mrts_workload_free_graph();
        let params = ArchParams::default();
        let imp = map_to_cg(&g, &params).unwrap();
        let (prog, _) = compile_graph(&g).unwrap();
        let mut st = EdpeState::with_inputs(&[1, 2]);
        let out = interp().execute(&prog, &mut st).unwrap();
        // The analytic model schedules on two ALUs; the interpreter is
        // serial. Serial time must be >= the parallel estimate and <= 2x it
        // (plus the context-switch constant the estimate carries).
        let est = imp.cg_cycles_per_call;
        assert!(out.cycles >= est.div_ceil(2), "{} vs {est}", out.cycles);
        assert!(out.cycles <= est * 2 + 4, "{} vs {est}", out.cycles);
        // Instruction counts agree (minus the loop-control word the
        // estimator adds).
        assert_eq!(prog.len() as u64 + 1, u64::from(imp.instr_count));
    }

    #[test]
    fn cycle_limit_stops_runaway() {
        let prog = ContextProgram::assemble(&[
            Instr::Loop {
                count: u16::MAX,
                body: 1,
            },
            Instr::Op {
                kind: OpKind::Add,
                dst: 1,
                srcs: [1, 0, 0],
            },
        ]);
        let tiny = EdpeInterpreter {
            cycle_limit: 10,
            ..interp()
        };
        assert_eq!(
            tiny.execute(&prog, &mut EdpeState::new()),
            Err(EdpeError::CycleLimit)
        );
    }

    #[test]
    fn bad_register_rejected() {
        let prog = ContextProgram::assemble(&[Instr::Op {
            kind: OpKind::Add,
            dst: 200,
            srcs: [0, 0, 0],
        }]);
        assert_eq!(
            interp().execute(&prog, &mut EdpeState::new()),
            Err(EdpeError::BadRegister(200))
        );
    }

    proptest! {
        /// The compiled program and the reference evaluator agree on random
        /// inputs for the mixed graph.
        #[test]
        fn compiled_vs_reference(a in any::<u32>(), b in any::<u32>()) {
            let g = mrts_workload_free_graph();
            let (prog, _) = compile_graph(&g).unwrap();
            let mut st = EdpeState::with_inputs(&[a, b]);
            let out = interp().execute(&prog, &mut st).unwrap();
            prop_assert_eq!(out.result, evaluate_graph(&g, &[a, b]));
        }

        /// eval_op never panics across the whole operator vocabulary.
        #[test]
        fn eval_op_total(a in any::<u32>(), b in any::<u32>(), c in any::<u32>()) {
            for kind in OpKind::ALL {
                let _ = eval_op(kind, a, b, c);
            }
        }
    }
}
