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

use mrts_ise::{Ise, IseId, Kernel, KernelId, UnitId};
use mrts_sim::{ExecContext, ExecMode, ExecPlan};

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

/// The ECU hand-off of every run-time policy: looks up `kernel` and its
/// `selected` ISE in the catalogue and runs the Fig. 7 ladder over the
/// epoch's residency. A kernel the catalogue does not know runs in RISC
/// mode.
#[must_use]
pub fn plan_execution(
    kernel: KernelId,
    selected: Option<IseId>,
    ctx: &ExecContext<'_>,
    config: &EcuConfig,
) -> ExecPlan {
    let Ok(kernel) = ctx.catalog.kernel(kernel) else {
        return ExecPlan::risc();
    };
    let selected = selected.and_then(|id| ctx.catalog.ise(id).ok());
    decide(
        kernel,
        selected,
        |u| ctx.is_resident(u),
        || ctx.machine.cg().free_count() > 0,
        config,
    )
}

/// Runs the Fig. 7 ladder.
///
/// * `kernel` — the kernel about to execute.
/// * `selected` — the ISE the selector chose for it (if any).
/// * `resident` — ground-truth unit availability at the current time.
/// * `cg_free` — whether a CG-EDPE is currently free (step c); called
///   only when the ladder reaches step c.
fn decide(
    kernel: &Kernel,
    selected: Option<&Ise>,
    resident: impl Fn(UnitId) -> bool,
    cg_free: impl FnOnce() -> bool,
    config: &EcuConfig,
) -> ExecPlan {
    let risc = kernel.risc_latency();
    let mono = kernel.mono_cg().filter(|_| config.use_mono_cg);
    let resident_mono = mono.filter(|m| resident(m.unit));
    let run = |mode| ExecPlan {
        mode,
        install_mono: false,
    };

    // Steps a/b: selected ISE, fully or partially reconfigured.
    if let Some(ise) = selected {
        if ise.is_fully_resident(&resident) {
            return run(ExecMode::Ise(ise.id()));
        }
        let latency = ise.latency_with(&resident);
        if latency < risc {
            // An intermediate ISE is available; take the monoCG-Extension
            // instead only if it is resident AND faster.
            if resident_mono.is_some_and(|m| m.latency < latency) {
                return run(ExecMode::MonoCg);
            }
            return run(ExecMode::Ise(ise.id()));
        }
    }

    // Step c: monoCG-Extension.
    if resident_mono.is_some() {
        return run(ExecMode::MonoCg);
    }
    if mono.is_some() && cg_free() {
        // Bridge the gap: run RISC now, stream the extension meanwhile.
        return ExecPlan {
            mode: ExecMode::Risc,
            install_mono: true,
        };
    }

    // Step d: RISC-mode.
    ExecPlan::risc()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrts_arch::{Cycles, FabricKind};
    use mrts_ise::ise::IseStage;
    use mrts_ise::MonoCgExtension;

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

    fn run(mode: ExecMode) -> ExecPlan {
        ExecPlan {
            mode,
            install_mono: false,
        }
    }

    #[test]
    fn fully_resident_selected_ise_wins() {
        let d = decide(&kernel(true), Some(&ise()), |_| true, || true, &cfg());
        assert_eq!(d, run(ExecMode::Ise(IseId(0))));
    }

    #[test]
    fn intermediate_beats_nothing() {
        let i = ise();
        // Only the CG unit arrived: latency 600 < RISC 1 000.
        let resident = |u: UnitId| u == UnitId(1);
        assert_eq!(i.latency_with(resident), Cycles::new(600));
        let d = decide(&kernel(false), Some(&i), resident, || false, &cfg());
        assert_eq!(d, run(ExecMode::Ise(IseId(0))));
    }

    #[test]
    fn faster_mono_overrides_slow_intermediate() {
        let k = kernel(true); // mono latency 550 < intermediate 600
        let resident = |u: UnitId| u == UnitId(1) || u == UnitId(100);
        let d = decide(&k, Some(&ise()), resident, || false, &cfg());
        assert_eq!(d, run(ExecMode::MonoCg));
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
        let resident = |u: UnitId| u == UnitId(1) || u == UnitId(100);
        let d = decide(&k, Some(&ise()), resident, || false, &cfg());
        assert_eq!(d, run(ExecMode::Ise(IseId(0))));
    }

    #[test]
    fn mono_requested_when_nothing_resident_and_cg_free() {
        let d = decide(&kernel(true), Some(&ise()), |_| false, || true, &cfg());
        assert_eq!(
            d,
            ExecPlan {
                mode: ExecMode::Risc,
                install_mono: true,
            }
        );
    }

    #[test]
    fn risc_when_no_cg_free() {
        let d = decide(&kernel(true), None, |_| false, || false, &cfg());
        assert_eq!(d, ExecPlan::risc());
    }

    #[test]
    fn mono_resident_without_selection() {
        let d = decide(&kernel(true), None, |u| u == UnitId(100), || false, &cfg());
        assert_eq!(d, run(ExecMode::MonoCg));
    }

    #[test]
    fn cg_free_is_read_only_at_step_c() {
        let k = kernel(true);
        let i = ise();
        let unasked = || -> bool { panic!("steps a/b must not count free CG slots") };
        let d = decide(&k, Some(&i), |_| true, unasked, &cfg());
        assert_eq!(d, run(ExecMode::Ise(IseId(0))));
        let d = decide(&k, Some(&i), |u| u == UnitId(1), unasked, &cfg());
        assert_eq!(d, run(ExecMode::Ise(IseId(0))));
        let d = decide(&k, None, |u| u == UnitId(100), unasked, &cfg());
        assert_eq!(d, run(ExecMode::MonoCg));
    }

    /// A tenant at the ladder's floor owns a machine with no working
    /// container: nothing is resident and no CG slot is free, so the ladder
    /// ends in RISC mode with monoCG on and an MG ISE selected.
    #[test]
    fn empty_machine_ends_in_risc() {
        use mrts_arch::{ArchParams, Machine, Resources};
        use mrts_ise::Grain;
        use mrts_sim::ResidentSet;
        use mrts_workload::WorkloadModel;

        let toy = mrts_ingest::model("toy").expect("builtin toy lowers");
        let catalog = toy
            .application()
            .build_catalog(ArchParams::default(), None)
            .unwrap();
        let mg = catalog
            .ises()
            .iter()
            .find(|i| i.grain() == Grain::MultiGrained)
            .expect("toy has a multi-grained ISE");
        assert!(catalog.kernel(mg.kernel()).unwrap().mono_cg().is_some());
        let machine = Machine::new(ArchParams::default(), Resources::NONE).unwrap();
        let resident = ResidentSet::default();
        let ctx = ExecContext {
            now: Cycles::ZERO,
            catalog: &catalog,
            machine: &machine,
            resident: &resident,
        };
        let plan = plan_execution(mg.kernel(), Some(mg.id()), &ctx, &cfg());
        assert_eq!(plan, ExecPlan::risc());
    }

    #[test]
    fn ablation_flag_disables_mono() {
        let no_mono = EcuConfig { use_mono_cg: false };
        let d = decide(&kernel(true), None, |u| u == UnitId(100), || true, &no_mono);
        assert_eq!(d, ExecPlan::risc());
    }
}
