//! Architecture parameters with the paper's Section 5.1 constants as
//! defaults.
//!
//! The evaluation platform of the paper: a LEON (SPARC V8) core, CG fabrics
//! at 400 MHz, FG fabrics (Virtex-4) at 100 MHz, 67 584 KB/s FG configuration
//! bandwidth, 80-bit CG instructions streamed into a 32-entry context memory,
//! 2-cycle context switch, 1-cycle simple ALU ops, 2-cycle multiply, 10-cycle
//! divide, zero-overhead loops, 2-cycle CG↔CG point-to-point communication
//! and 1-cycle PRC↔PRC communication.

use crate::clock::{Cycles, Frequency};
use crate::error::ArchError;
use serde::{Deserialize, Serialize};

/// Timing of the CG-EDPE operation classes (in CG-domain cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CgOpTiming {
    /// add, sub, logic, shift, compare, move — "typical ALU operations".
    pub simple: u8,
    /// multiply.
    pub multiply: u8,
    /// divide.
    pub divide: u8,
    /// 32-bit load/store through the shared load/store unit.
    pub load_store: u8,
}

impl Default for CgOpTiming {
    fn default() -> Self {
        CgOpTiming {
            simple: 1,
            multiply: 2,
            divide: 10,
            load_store: 1,
        }
    }
}

/// Complete parameter set of the multi-grained processor model.
///
/// Construct with [`ArchParams::default`] for the paper's platform. To vary
/// individual constants (e.g. for the sensitivity ablations), override the
/// fields with struct update syntax and check the result with
/// [`ArchParams::validate`].
///
/// # Example
///
/// ```
/// use mrts_arch::ArchParams;
///
/// # fn main() -> Result<(), mrts_arch::ArchError> {
/// let paper = ArchParams::default();
///
/// let slow_config = ArchParams {
///     fg_config_bandwidth_kb_s: 33_792, // half the paper's port speed
///     ..ArchParams::default()
/// };
/// slow_config.validate()?;
/// assert!(slow_config.fg_reconfig_time(80_000) > paper.fg_reconfig_time(80_000));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArchParams {
    /// Core clock (the global cycle time base). The tightly coupled CG array
    /// runs synchronously with the core.
    pub core_clock: Frequency,
    /// CG fabric clock (400 MHz in the paper).
    pub cg_clock: Frequency,
    /// FG fabric clock (100 MHz Virtex-4 in the paper).
    pub fg_clock: Frequency,
    /// FG configuration-port bandwidth in KB/s (67 584 KB/s in the paper).
    pub fg_config_bandwidth_kb_s: u64,
    /// CG instruction width in bits (80 in the paper).
    pub cg_instr_bits: u16,
    /// CG context-memory capacity in instructions (32 in the paper).
    pub cg_context_capacity: u16,
    /// Number of data-path contexts one CG-EDPE can keep resident
    /// simultaneously (*"Each CG-fabric can store multiple contexts and a
    /// context switch takes 2 cycles"*, Section 5.1). Typical data-path
    /// programs are 5–15 instructions, so three fit the 32-entry memory.
    pub cg_contexts_per_edpe: u16,
    /// CG context-switch latency in CG cycles (2 in the paper).
    pub cg_context_switch_cycles: u8,
    /// Cycles (CG domain) to stream one context instruction into the context
    /// memory. Two per 80-bit word reproduces the paper's ~0.15 µs data-path
    /// reconfiguration time.
    pub cg_stream_cycles_per_instr: u8,
    /// CG operation timing table.
    pub cg_op_timing: CgOpTiming,
    /// Point-to-point CG-EDPE ↔ CG-EDPE communication latency in CG cycles
    /// (2 in the paper).
    pub cg_interconnect_cycles: u8,
    /// PRC ↔ PRC communication latency in FG cycles (1 in the paper).
    pub fg_interconnect_cycles: u8,
    /// Width of the CG load/store unit in bits (32 in the paper).
    pub cg_load_store_bits: u16,
    /// Width of the FG load/store unit in bits (128 in the paper).
    pub fg_load_store_bits: u16,
    /// Nominal bitstream size of one FG data path in bytes. With the paper's
    /// configuration bandwidth this yields the ~1.2 ms per-data-path
    /// reconfiguration of footnote 2. Individual data paths scale this by
    /// their area.
    pub fg_nominal_bitstream_bytes: u64,
}

impl Default for ArchParams {
    fn default() -> Self {
        ArchParams {
            core_clock: Frequency::from_mhz(400),
            cg_clock: Frequency::from_mhz(400),
            fg_clock: Frequency::from_mhz(100),
            fg_config_bandwidth_kb_s: 67_584,
            cg_instr_bits: 80,
            cg_context_capacity: 32,
            cg_contexts_per_edpe: 3,
            cg_context_switch_cycles: 2,
            cg_stream_cycles_per_instr: 2,
            cg_op_timing: CgOpTiming::default(),
            cg_interconnect_cycles: 2,
            fg_interconnect_cycles: 1,
            cg_load_store_bits: 32,
            fg_load_store_bits: 128,
            // 67_584 KB/s * 1024 B/KB * 1.2 ms ≈ 83 050 bytes ≈ one Virtex-4
            // PRC column, reproducing footnote 2's ~1.2 ms per data path.
            fg_nominal_bitstream_bytes: 83_050,
        }
    }
}

impl ArchParams {
    /// Reconfiguration time for an FG bitstream of `bytes` bytes, in core
    /// cycles, through the serial configuration port.
    ///
    /// # Example
    ///
    /// ```
    /// use mrts_arch::ArchParams;
    ///
    /// let p = ArchParams::default();
    /// // The paper's nominal data path reconfigures in ~1.2 ms == ~480k core cycles.
    /// let t = p.fg_reconfig_time(p.fg_nominal_bitstream_bytes);
    /// assert!((t.as_millis_f64(p.core_clock) - 1.2).abs() < 0.01);
    /// ```
    #[must_use]
    pub fn fg_reconfig_time(&self, bytes: u64) -> Cycles {
        // ns = bytes / (KB/s * 1024 / 1e9) ; computed in u128 for headroom.
        let nanos = (u128::from(bytes) * 1_000_000_000)
            .div_ceil(u128::from(self.fg_config_bandwidth_kb_s) * 1024);
        Cycles::from_nanos(nanos as u64, self.core_clock)
    }

    /// Reconfiguration time for a CG context program of `instrs` instructions,
    /// in core cycles (instructions are streamed into the context memory).
    ///
    /// With the defaults, a full 32-instruction context loads in
    /// 64 CG cycles == 0.16 µs, matching footnote 2's "approximately
    /// 0.00015 ms".
    #[must_use]
    pub fn cg_reconfig_time(&self, instrs: u16) -> Cycles {
        let cg_cycles = u64::from(instrs) * u64::from(self.cg_stream_cycles_per_instr);
        self.cg_to_core(cg_cycles)
    }

    /// Converts CG-domain cycles to core cycles.
    #[must_use]
    pub fn cg_to_core(&self, cg_cycles: u64) -> Cycles {
        crate::clock::ClockDomain::CoarseGrained.to_core_cycles(
            cg_cycles,
            self.core_clock,
            self.cg_clock,
        )
    }

    /// Converts FG-domain cycles to core cycles.
    #[must_use]
    pub fn fg_to_core(&self, fg_cycles: u64) -> Cycles {
        crate::clock::ClockDomain::FineGrained.to_core_cycles(
            fg_cycles,
            self.core_clock,
            self.fg_clock,
        )
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidParams`] if a zero bandwidth, zero context
    /// capacity or an FG clock faster than the core clock is configured.
    pub fn validate(&self) -> Result<(), ArchError> {
        if self.fg_config_bandwidth_kb_s == 0 {
            return Err(ArchError::InvalidParams(
                "FG configuration bandwidth must be non-zero".into(),
            ));
        }
        if self.cg_context_capacity == 0 {
            return Err(ArchError::InvalidParams(
                "CG context capacity must be non-zero".into(),
            ));
        }
        if self.cg_contexts_per_edpe == 0 {
            return Err(ArchError::InvalidParams(
                "CG-EDPEs must hold at least one context".into(),
            ));
        }
        if self.fg_clock > self.core_clock {
            return Err(ArchError::InvalidParams(
                "FG fabric clock must not exceed the core clock".into(),
            ));
        }
        if self.cg_instr_bits == 0 {
            return Err(ArchError::InvalidParams(
                "CG instruction width must be non-zero".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_section_5_1() {
        let p = ArchParams::default();
        assert_eq!(p.core_clock.as_mhz(), 400);
        assert_eq!(p.cg_clock.as_mhz(), 400);
        assert_eq!(p.fg_clock.as_mhz(), 100);
        assert_eq!(p.fg_config_bandwidth_kb_s, 67_584);
        assert_eq!(p.cg_instr_bits, 80);
        assert_eq!(p.cg_context_capacity, 32);
        assert_eq!(p.cg_context_switch_cycles, 2);
        assert_eq!(p.cg_op_timing.simple, 1);
        assert_eq!(p.cg_op_timing.multiply, 2);
        assert_eq!(p.cg_op_timing.divide, 10);
        assert_eq!(p.cg_interconnect_cycles, 2);
        assert_eq!(p.fg_interconnect_cycles, 1);
        assert_eq!(p.cg_load_store_bits, 32);
        assert_eq!(p.fg_load_store_bits, 128);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn footnote_2_reconfiguration_gap() {
        let p = ArchParams::default();
        let fg = p.fg_reconfig_time(p.fg_nominal_bitstream_bytes);
        let cg = p.cg_reconfig_time(p.cg_context_capacity);
        // ~1.2 ms vs ~0.15 us: footnote 2 of the paper.
        let fg_ms = fg.as_millis_f64(p.core_clock);
        let cg_us = cg.as_micros_f64(p.core_clock);
        assert!((fg_ms - 1.2).abs() < 0.05, "FG reconfig {fg_ms} ms");
        assert!((cg_us - 0.15).abs() < 0.05, "CG reconfig {cg_us} us");
    }

    #[test]
    fn fg_reconfig_scales_linearly_with_bitstream() {
        let p = ArchParams::default();
        let one = p.fg_reconfig_time(10_000);
        let two = p.fg_reconfig_time(20_000);
        let ratio = two.get() as f64 / one.get() as f64;
        assert!((ratio - 2.0).abs() < 0.01);
    }

    #[test]
    fn overrides_are_validated() {
        let p = ArchParams {
            core_clock: Frequency::from_mhz(800),
            cg_context_capacity: 64,
            ..ArchParams::default()
        };
        assert!(p.validate().is_ok());
        assert_eq!(p.core_clock.as_mhz(), 800);
        assert_eq!(p.cg_context_capacity, 64);

        let bad = ArchParams {
            fg_config_bandwidth_kb_s: 0,
            ..ArchParams::default()
        };
        assert!(matches!(bad.validate(), Err(ArchError::InvalidParams(_))));

        // The default FG clock (100 MHz) outruns a 50 MHz core.
        let bad = ArchParams {
            core_clock: Frequency::from_mhz(50),
            ..ArchParams::default()
        };
        assert!(matches!(bad.validate(), Err(ArchError::InvalidParams(_))));
    }

    #[test]
    fn domain_conversions_use_configured_clocks() {
        let p = ArchParams::default();
        assert_eq!(p.cg_to_core(10).get(), 10); // CG synchronous with core
        assert_eq!(p.fg_to_core(10).get(), 40); // FG at quarter speed
    }

    #[test]
    fn cg_reconfig_scales_with_program_length() {
        let p = ArchParams::default();
        assert_eq!(
            p.cg_reconfig_time(16).get() * 2,
            p.cg_reconfig_time(32).get()
        );
        assert_eq!(p.cg_reconfig_time(0), Cycles::ZERO);
    }
}
