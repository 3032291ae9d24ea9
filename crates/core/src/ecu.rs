//! The Execution Control Unit (ECU) — the decision ladder of the paper's
//! Fig. 7.
//!
//! *"a) When a kernel is executed …, the ECU first checks the availability
//! of the selected ISE. b) If the selected ISE is available, the ECU will
//! execute. Otherwise, the ECU checks for the availability of the
//! intermediate ISEs. c) If no intermediate ISE is available, the ECU
//! checks for a free CG-fabric to realize a monoCG-Extension. d) In case no
//! data path is reconfigured and no CG-fabric is available …, the ECU
//! executes the functional block in RISC-mode."*
//!
//! When both an intermediate ISE and a resident monoCG-Extension could
//! serve a kernel, the ECU takes the faster one — that is the "steering …
//! for enhanced performance" the paper attributes to this unit.

use mrts_arch::Cycles;
use mrts_ise::{Ise, Kernel, UnitId};
use mrts_sim::{ExecMode, ExecPlan};

/// What the ECU decided and why (the `why` feeds the run statistics and
/// the ablation benches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EcuVerdict {
    /// The selected ISE is fully reconfigured.
    SelectedIse,
    /// Some of the selected ISE's units are usable: intermediate ISE.
    IntermediateIse,
    /// The monoCG-Extension is resident and is the fastest available
    /// implementation.
    MonoCg,
    /// Nothing usable yet, but a CG-EDPE is free: request the
    /// monoCG-Extension and run RISC meanwhile.
    InstallMonoCg,
    /// Plain RISC-mode execution.
    RiscMode,
}

/// The ECU's decision for the current residency epoch of one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EcuDecision {
    /// The execution plan handed to the simulator.
    pub plan: ExecPlan,
    /// Classification of the decision.
    pub verdict: EcuVerdict,
    /// The kernel latency the ECU expects from this plan.
    pub expected_latency: Cycles,
}

/// Configuration of the ECU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EcuConfig {
    /// Whether monoCG-Extensions may be used at all (disabled by the
    /// ablation benches to quantify their contribution).
    pub use_mono_cg: bool,
}

impl Default for EcuConfig {
    fn default() -> Self {
        EcuConfig { use_mono_cg: true }
    }
}

/// Runs the Fig. 7 ladder.
///
/// * `kernel` — the kernel about to execute.
/// * `selected` — the ISE the selector chose for it (if any).
/// * `resident` — ground-truth unit availability at the current time.
/// * `cg_free` — whether a CG-EDPE is currently free (step c); called
///   only when the ladder reaches step c.
#[must_use]
pub fn decide(
    kernel: &Kernel,
    selected: Option<&Ise>,
    resident: impl Fn(UnitId) -> bool,
    cg_free: impl FnOnce() -> bool,
    config: &EcuConfig,
) -> EcuDecision {
    let risc = kernel.risc_latency();
    let mono = kernel.mono_cg().filter(|_| config.use_mono_cg);
    let resident_mono = mono.filter(|m| resident(m.unit));

    // Steps a/b: selected ISE, fully or partially reconfigured.
    if let Some(ise) = selected {
        let latency = ise.latency_with(&resident);
        if ise.is_fully_resident(&resident) {
            return EcuDecision {
                plan: ExecPlan {
                    mode: ExecMode::Ise(ise.id()),
                    install_mono: false,
                },
                verdict: EcuVerdict::SelectedIse,
                expected_latency: latency,
            };
        }
        if latency < risc {
            // An intermediate ISE is available; take the monoCG-Extension
            // instead only if it is resident AND faster.
            if let Some(m) = resident_mono.filter(|m| m.latency < latency) {
                return EcuDecision {
                    plan: ExecPlan {
                        mode: ExecMode::MonoCg,
                        install_mono: false,
                    },
                    verdict: EcuVerdict::MonoCg,
                    expected_latency: m.latency,
                };
            }
            return EcuDecision {
                plan: ExecPlan {
                    mode: ExecMode::Ise(ise.id()),
                    install_mono: false,
                },
                verdict: EcuVerdict::IntermediateIse,
                expected_latency: latency,
            };
        }
    }

    // Step c: monoCG-Extension.
    if let Some(m) = resident_mono {
        return EcuDecision {
            plan: ExecPlan {
                mode: ExecMode::MonoCg,
                install_mono: false,
            },
            verdict: EcuVerdict::MonoCg,
            expected_latency: m.latency,
        };
    }
    if mono.is_some() && cg_free() {
        // Bridge the gap: run RISC now, stream the extension meanwhile.
        return EcuDecision {
            plan: ExecPlan {
                mode: ExecMode::Risc,
                install_mono: true,
            },
            verdict: EcuVerdict::InstallMonoCg,
            expected_latency: risc,
        };
    }

    // Step d: RISC-mode.
    EcuDecision {
        plan: ExecPlan::risc(),
        verdict: EcuVerdict::RiscMode,
        expected_latency: risc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrts_arch::FabricKind;
    use mrts_ise::ise::IseStage;
    use mrts_ise::{IseId, KernelId, MonoCgExtension};

    fn kernel(with_mono: bool) -> Kernel {
        let mono = with_mono.then_some(MonoCgExtension {
            unit: UnitId(100),
            instrs: 32,
            latency: Cycles::new(550),
            load_duration: Cycles::new(64),
        });
        Kernel::new(KernelId(0), "k", Cycles::new(1_000), vec![], mono)
    }

    fn ise() -> Ise {
        Ise::new(
            IseId(0),
            KernelId(0),
            "k[mg]",
            vec![
                IseStage {
                    unit: UnitId(1),
                    fabric: FabricKind::CoarseGrained,
                    load_duration: Cycles::new(60),
                    saving_per_exec: Cycles::new(400),
                },
                IseStage {
                    unit: UnitId(2),
                    fabric: FabricKind::FineGrained,
                    load_duration: Cycles::new(480_000),
                    saving_per_exec: Cycles::new(300),
                },
            ],
            Cycles::new(1_000),
        )
    }

    fn cfg() -> EcuConfig {
        EcuConfig::default()
    }

    #[test]
    fn fully_resident_selected_ise_wins() {
        let k = kernel(true);
        let i = ise();
        let d = decide(&k, Some(&i), |_| true, || true, &cfg());
        assert_eq!(d.verdict, EcuVerdict::SelectedIse);
        assert_eq!(d.expected_latency, Cycles::new(300));
        assert!(!d.plan.install_mono);
    }

    #[test]
    fn intermediate_beats_nothing() {
        let k = kernel(false);
        let i = ise();
        // Only the CG unit arrived: latency 600.
        let d = decide(&k, Some(&i), |u| u == UnitId(1), || false, &cfg());
        assert_eq!(d.verdict, EcuVerdict::IntermediateIse);
        assert_eq!(d.expected_latency, Cycles::new(600));
    }

    #[test]
    fn faster_mono_overrides_slow_intermediate() {
        let k = kernel(true); // mono latency 550 < intermediate 600
        let i = ise();
        let resident = |u: UnitId| u == UnitId(1) || u == UnitId(100);
        let d = decide(&k, Some(&i), resident, || false, &cfg());
        assert_eq!(d.verdict, EcuVerdict::MonoCg);
        assert_eq!(d.expected_latency, Cycles::new(550));
    }

    #[test]
    fn slower_mono_does_not_override() {
        // Intermediate latency 600; make mono slower (900).
        let mono = MonoCgExtension {
            unit: UnitId(100),
            instrs: 32,
            latency: Cycles::new(900),
            load_duration: Cycles::new(64),
        };
        let k = Kernel::new(KernelId(0), "k", Cycles::new(1_000), vec![], Some(mono));
        let i = ise();
        let resident = |u: UnitId| u == UnitId(1) || u == UnitId(100);
        let d = decide(&k, Some(&i), resident, || false, &cfg());
        assert_eq!(d.verdict, EcuVerdict::IntermediateIse);
    }

    #[test]
    fn mono_requested_when_nothing_resident_and_cg_free() {
        let k = kernel(true);
        let i = ise();
        let d = decide(&k, Some(&i), |_| false, || true, &cfg());
        assert_eq!(d.verdict, EcuVerdict::InstallMonoCg);
        assert!(d.plan.install_mono);
        assert_eq!(d.plan.mode, ExecMode::Risc);
    }

    #[test]
    fn risc_when_no_cg_free() {
        let k = kernel(true);
        let d = decide(&k, None, |_| false, || false, &cfg());
        assert_eq!(d.verdict, EcuVerdict::RiscMode);
        assert_eq!(d.expected_latency, Cycles::new(1_000));
    }

    #[test]
    fn mono_resident_without_selection() {
        let k = kernel(true);
        let d = decide(&k, None, |u| u == UnitId(100), || false, &cfg());
        assert_eq!(d.verdict, EcuVerdict::MonoCg);
    }

    #[test]
    fn cg_free_is_read_only_at_step_c() {
        let k = kernel(true);
        let i = ise();
        let unasked = || -> bool { panic!("steps a/b must not count free CG slots") };
        let d = decide(&k, Some(&i), |_| true, unasked, &cfg());
        assert_eq!(d.verdict, EcuVerdict::SelectedIse);
        let d = decide(&k, Some(&i), |u| u == UnitId(1), unasked, &cfg());
        assert_eq!(d.verdict, EcuVerdict::IntermediateIse);
        let d = decide(&k, None, |u| u == UnitId(100), unasked, &cfg());
        assert_eq!(d.verdict, EcuVerdict::MonoCg);
    }

    #[test]
    fn ablation_flag_disables_mono() {
        let k = kernel(true);
        let no_mono = EcuConfig { use_mono_cg: false };
        let d = decide(&k, None, |u| u == UnitId(100), || true, &no_mono);
        assert_eq!(d.verdict, EcuVerdict::RiscMode);
    }
}
