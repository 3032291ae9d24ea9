//! The ISE catalogue and its compile-time builder.
//!
//! *"At compile time, different ISEs for each kernel of an application are
//! arranged. We use our proprietary automatic tool chain to generate the
//! CG-, FG- and MG-ISE of prepared ISEs by designing their data paths for
//! CG-fabric or FG-fabric."* (Section 4)
//!
//! [`CatalogBuilder`] is that tool chain's stand-in: for every kernel it
//! enumerates fabric assignments (and parallel-copy counts) of the kernel's
//! data paths, derives each variant's latency/area/reconfiguration
//! characteristics through the [`mapping`](crate::mapping) estimators, and
//! generates the kernel's monoCG-Extension. Data-path **load units are
//! shared across ISEs** of the same kernel, which is what makes intermediate
//! ISEs of one selection usable by another (Section 4.1).

use crate::error::IseError;
use crate::ids::{IseId, KernelId, UnitId};
use crate::ise::{Grain, Ise, IseStage};
use crate::kernel::{Kernel, KernelSpec, MonoCgExtension};
use crate::mapping::{
    cg_cycles_per_exec, fg_cycles_per_exec, map_to_cg, map_to_fg, sw_cycles_per_exec, CgImpl,
    FgImpl,
};
use crate::unit::LoadUnit;
use mrts_arch::{ArchParams, Cycles, FabricKind, Resources};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Maximum ISE variants generated per kernel (the paper observed up to ~60
/// for a single H.264 kernel).
pub(crate) const MAX_VARIANTS_PER_KERNEL: usize = 64;

/// Compile-time builder producing an [`IseCatalog`].
#[derive(Debug)]
pub struct CatalogBuilder {
    params: ArchParams,
    specs: Vec<KernelSpec>,
    machine_budget: Option<Resources>,
    enable_copies: bool,
}

impl CatalogBuilder {
    /// Starts a builder for the given architecture.
    #[must_use]
    pub fn new(params: ArchParams) -> Self {
        CatalogBuilder {
            params,
            specs: Vec::new(),
            machine_budget: None,
            enable_copies: true,
        }
    }

    /// Adds a kernel description.
    #[must_use]
    pub fn kernel(mut self, spec: KernelSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Filters out, at build time, every ISE that can never fit the given
    /// machine budget (*"all non-fitting ISEs … are filtered out at this
    /// stage"*, Section 4). Without this the catalogue keeps all variants.
    #[must_use]
    pub fn machine_budget(mut self, budget: Resources) -> Self {
        self.machine_budget = Some(budget);
        self
    }

    /// Disables parallel-copy variants (used by ablation studies).
    #[must_use]
    pub fn without_parallel_copies(mut self) -> Self {
        self.enable_copies = false;
        self
    }

    /// Builds the catalogue.
    ///
    /// # Errors
    ///
    /// Returns [`IseError::EmptyCatalog`] if no kernel was added,
    /// [`IseError::EmptyKernel`] for kernels without data paths, or
    /// [`IseError::Unmappable`] if a data path fits neither fabric.
    pub fn build(self) -> Result<IseCatalog, IseError> {
        if self.specs.is_empty() {
            return Err(IseError::EmptyCatalog);
        }
        let CatalogBuilder {
            params,
            specs,
            machine_budget,
            enable_copies,
        } = self;
        let mut builder = InnerBuilder {
            params: &params,
            units: Vec::new(),
            unit_index: HashMap::new(),
            ises: Vec::new(),
        };
        let mut kernels = Vec::new();
        let mut by_kernel = Vec::new();
        for (ki, spec) in specs.iter().enumerate() {
            let kid = KernelId(ki as u16);
            let (kernel, ise_ids) =
                builder.build_kernel(kid, spec, machine_budget, enable_copies)?;
            kernels.push(kernel);
            by_kernel.push(ise_ids);
        }
        let InnerBuilder { units, ises, .. } = builder;
        Ok(IseCatalog {
            params,
            kernels,
            ises,
            units,
            by_kernel,
        })
    }
}

/// One fabric-assignment option for a single data path. `None` leaves the
/// data path in software (a *partial* ISE that needs less fabric — the
/// paper's data paths "used in different quantities").
type GraphOption = Option<GraphPlacement>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GraphPlacement {
    fabric: FabricKind,
    copies: u8,
}

struct InnerBuilder<'p> {
    params: &'p ArchParams,
    units: Vec<LoadUnit>,
    /// (kernel, graph index, fabric, copy index) → unit.
    unit_index: HashMap<(KernelId, usize, FabricKind, u8), UnitId>,
    ises: Vec<Ise>,
}

impl InnerBuilder<'_> {
    fn build_kernel(
        &mut self,
        kid: KernelId,
        spec: &KernelSpec,
        machine_budget: Option<Resources>,
        enable_copies: bool,
    ) -> Result<(Kernel, Vec<IseId>), IseError> {
        if spec.data_paths().is_empty() {
            return Err(IseError::EmptyKernel(spec.name().to_owned()));
        }
        let overhead = spec.overhead().max(1);
        let risc_latency: Cycles = Cycles::new(overhead)
            + spec
                .data_paths()
                .iter()
                .map(|dp| sw_cycles_per_exec(&dp.graph, dp.calls_per_exec))
                .sum();

        // Per-graph implementation menus.
        let mut menus: Vec<Vec<GraphOption>> = Vec::new();
        let mut cg_impls: Vec<Option<CgImpl>> = Vec::new();
        let mut fg_impls: Vec<Option<FgImpl>> = Vec::new();
        for dp in spec.data_paths() {
            let cg = map_to_cg(&dp.graph, self.params).ok();
            let fg = map_to_fg(&dp.graph, self.params).ok();
            if cg.is_none() && fg.is_none() {
                return Err(IseError::Unmappable {
                    graph: dp.graph.name().to_owned(),
                    reason: "fits neither the CG nor the FG fabric".into(),
                });
            }
            let mut menu: Vec<GraphOption> = Vec::new();
            let copy_options: &[u8] = if enable_copies && dp.calls_per_exec >= 8 {
                &[1, 2]
            } else {
                &[1]
            };
            for &copies in copy_options {
                if cg.is_some() {
                    menu.push(Some(GraphPlacement {
                        fabric: FabricKind::CoarseGrained,
                        copies,
                    }));
                }
                if fg.is_some() {
                    menu.push(Some(GraphPlacement {
                        fabric: FabricKind::FineGrained,
                        copies,
                    }));
                }
            }
            // The data path may also stay in software, yielding partial
            // ISEs that need less fabric.
            menu.push(None);
            menus.push(menu);
            cg_impls.push(cg);
            fg_impls.push(fg);
        }

        // Cartesian product of the menus, capped.
        let mut assignments: Vec<Vec<GraphOption>> = vec![Vec::new()];
        for menu in &menus {
            let mut next = Vec::new();
            'outer: for partial in &assignments {
                for &opt in menu {
                    let mut a = partial.clone();
                    a.push(opt);
                    next.push(a);
                    if next.len() >= MAX_VARIANTS_PER_KERNEL {
                        break 'outer;
                    }
                }
            }
            assignments = next;
        }

        let mut ise_ids = Vec::new();
        for assignment in &assignments {
            let mut stages = Vec::new();
            let mut label_parts = Vec::new();
            for (gi, opt) in assignment.iter().enumerate() {
                let dp = &spec.data_paths()[gi];
                let Some(place) = opt else {
                    label_parts.push(format!("{}@sw", dp.graph.name()));
                    continue;
                };
                for copy in 0..place.copies {
                    let unit = self.unit_for(
                        kid,
                        spec,
                        gi,
                        place.fabric,
                        copy,
                        &cg_impls[gi],
                        &fg_impls[gi],
                    );
                    let u = &self.units[unit.index() as usize];
                    stages.push(IseStage {
                        unit,
                        fabric: u.fabric(),
                        load_duration: u.load_duration(),
                        saving_per_exec: u.saving_per_exec(),
                    });
                }
                label_parts.push(format!(
                    "{}@{}x{}",
                    dp.graph.name(),
                    place.fabric,
                    place.copies
                ));
            }
            if stages.is_empty() {
                continue; // the all-software assignment is just RISC-mode
            }
            // Biggest win first: this is the order the reconfiguration
            // controller streams the units.
            stages.sort_by(|a, b| {
                b.saving_per_exec
                    .cmp(&a.saving_per_exec)
                    .then(a.unit.cmp(&b.unit))
            });
            let total_saving: Cycles = stages.iter().map(|s| s.saving_per_exec).sum();
            if total_saving == Cycles::ZERO {
                continue; // never faster than RISC-mode: the tool chain drops it
            }
            let demand: Resources = stages
                .iter()
                .map(|s| match s.fabric {
                    FabricKind::FineGrained => Resources::prc_only(1),
                    FabricKind::CoarseGrained => Resources::cg_only(1),
                })
                .sum();
            if let Some(budget) = machine_budget {
                if !demand.fits_in(budget) {
                    continue; // compile-time non-fitting filter
                }
            }
            let id = IseId(self.ises.len() as u32);
            let label = format!("{}[{}]", spec.name(), label_parts.join(","));
            self.ises
                .push(Ise::new(id, kid, label, stages, risc_latency));
            ise_ids.push(id);
        }

        let mono = self.mono_cg_for(kid, spec, risc_latency, &cg_impls);
        if let Some(m) = &mono {
            // Expose the extension as a selectable single-stage candidate
            // so run-time systems that know about monoCG (mRTS) can weigh
            // it against real ISEs; baselines filter it out via
            // `Ise::is_mono_extension`.
            let unit = &self.units[m.unit.index() as usize];
            let id = IseId(self.ises.len() as u32);
            self.ises.push(Ise::new_mono_extension(
                id,
                kid,
                format!("{}[monoCG]", spec.name()),
                IseStage {
                    unit: m.unit,
                    fabric: FabricKind::CoarseGrained,
                    load_duration: unit.load_duration(),
                    saving_per_exec: unit.saving_per_exec(),
                },
                risc_latency,
            ));
            ise_ids.push(id);
        }
        let kernel = Kernel::new(
            kid,
            spec.name(),
            risc_latency,
            spec.data_paths().to_vec(),
            mono,
        );
        Ok((kernel, ise_ids))
    }

    /// Gets or creates the shared load unit for (kernel, graph, fabric,
    /// copy index).
    #[allow(clippy::too_many_arguments)]
    fn unit_for(
        &mut self,
        kid: KernelId,
        spec: &KernelSpec,
        gi: usize,
        fabric: FabricKind,
        copy: u8,
        cg: &Option<CgImpl>,
        fg: &Option<FgImpl>,
    ) -> UnitId {
        if let Some(&u) = self.unit_index.get(&(kid, gi, fabric, copy)) {
            return u;
        }
        let dp = &spec.data_paths()[gi];
        let calls = dp.calls_per_exec;
        let sw = sw_cycles_per_exec(&dp.graph, calls);
        let (hw_full, hw_half, load_duration, cg_instrs, bitstream) = match fabric {
            FabricKind::CoarseGrained => {
                let imp = cg.as_ref().expect("CG option only offered when mappable");
                let full = cg_cycles_per_exec(imp, calls, self.params);
                let half = cg_cycles_per_exec(imp, calls.div_ceil(2), self.params)
                    + self
                        .params
                        .cg_to_core(u64::from(self.params.cg_interconnect_cycles));
                (
                    full,
                    half,
                    self.params.cg_reconfig_time(imp.instr_count),
                    imp.instr_count,
                    0,
                )
            }
            FabricKind::FineGrained => {
                let imp = fg.as_ref().expect("FG option only offered when mappable");
                let full = fg_cycles_per_exec(imp, calls, self.params);
                let half = fg_cycles_per_exec(imp, calls.div_ceil(2), self.params)
                    + self
                        .params
                        .fg_to_core(u64::from(self.params.fg_interconnect_cycles));
                (
                    full,
                    half,
                    self.params.fg_reconfig_time(imp.bitstream_bytes),
                    0,
                    imp.bitstream_bytes,
                )
            }
        };
        // Copy 0 replaces software entirely; copy 1 only shaves the
        // parallelizable remainder. Both are expressed as gains over
        // software so a hardware mapping slower than RISC-mode can never
        // contribute a positive saving.
        let total_one = sw.saturating_sub(hw_full);
        let total_two = sw.saturating_sub(hw_half);
        let saving = match copy {
            0 => total_one,
            _ => total_two.saturating_sub(total_one),
        };
        let id = UnitId(self.units.len() as u64);
        let label = format!("{}.{}@{}#{}", spec.name(), dp.graph.name(), fabric, copy);
        self.units.push(LoadUnit::new(
            id,
            kid,
            label,
            fabric,
            load_duration,
            saving,
            cg_instrs,
            bitstream,
        ));
        self.unit_index.insert((kid, gi, fabric, copy), id);
        id
    }

    /// Generates the kernel's monoCG-Extension: the whole kernel serialized
    /// onto a single EDPE. Returns `None` when it cannot beat RISC-mode.
    fn mono_cg_for(
        &mut self,
        kid: KernelId,
        spec: &KernelSpec,
        risc_latency: Cycles,
        cg_impls: &[Option<CgImpl>],
    ) -> Option<MonoCgExtension> {
        let mut cg_cycles: u64 = 0;
        let mut total_instrs: u64 = 0;
        for (dp, imp) in spec.data_paths().iter().zip(cg_impls) {
            let imp = imp.as_ref()?; // every data path must map to CG
            cg_cycles += u64::from(self.params.cg_context_switch_cycles)
                + u64::from(dp.calls_per_exec) * imp.cg_cycles_per_call;
            total_instrs += u64::from(imp.instr_count);
        }
        // Control/glue code also runs on the EDPE, at roughly core speed.
        let latency = self.params.cg_to_core(cg_cycles) + Cycles::new(spec.overhead().max(1));
        if latency >= risc_latency {
            return None;
        }
        let capacity = u64::from(self.params.cg_context_capacity);
        let streamed = total_instrs.min(capacity) as u16;
        let load_duration = self.params.cg_reconfig_time(streamed);
        let id = UnitId(self.units.len() as u64);
        self.units.push(LoadUnit::new(
            id,
            kid,
            format!("{}.monoCG", spec.name()),
            FabricKind::CoarseGrained,
            load_duration,
            risc_latency - latency,
            streamed,
            0,
        ));
        Some(MonoCgExtension {
            unit: id,
            instrs: streamed,
            latency,
            load_duration,
        })
    }
}

/// The compile-time prepared ISE catalogue: kernels, ISE variants and their
/// shared load units.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IseCatalog {
    params: ArchParams,
    kernels: Vec<Kernel>,
    ises: Vec<Ise>,
    units: Vec<LoadUnit>,
    by_kernel: Vec<Vec<IseId>>,
}

impl IseCatalog {
    /// The architecture the catalogue was generated for.
    #[must_use]
    pub fn params(&self) -> &ArchParams {
        &self.params
    }

    /// All kernels, indexed by [`KernelId`].
    #[must_use]
    pub fn kernels(&self) -> &[Kernel] {
        &self.kernels
    }

    /// Looks up one kernel.
    ///
    /// # Errors
    ///
    /// Returns [`IseError::UnknownKernel`] for an out-of-range id.
    pub fn kernel(&self, id: KernelId) -> Result<&Kernel, IseError> {
        self.kernels
            .get(usize::from(id.index()))
            .ok_or(IseError::UnknownKernel(id))
    }

    /// All ISEs, indexed by [`IseId`].
    #[must_use]
    pub fn ises(&self) -> &[Ise] {
        &self.ises
    }

    /// Looks up one ISE.
    ///
    /// # Errors
    ///
    /// Returns [`IseError::UnknownIse`] for an out-of-range id.
    pub fn ise(&self, id: IseId) -> Result<&Ise, IseError> {
        self.ises
            .get(id.index() as usize)
            .ok_or(IseError::UnknownIse(id))
    }

    /// The ISE variants of one kernel (empty slice for unknown kernels).
    #[must_use]
    pub fn ises_of(&self, kernel: KernelId) -> &[IseId] {
        self.by_kernel
            .get(usize::from(kernel.index()))
            .map_or(&[], Vec::as_slice)
    }

    /// All load units, indexed by [`UnitId`].
    #[must_use]
    pub fn units(&self) -> &[LoadUnit] {
        &self.units
    }

    /// Looks up one load unit.
    ///
    /// # Panics
    ///
    /// Panics on an id that was not produced by this catalogue's builder —
    /// unit ids are dense by construction. Use
    /// [`IseCatalog::unit_checked`] when the id may belong to a *foreign*
    /// artefact (another task sharing the fabric).
    #[must_use]
    pub fn unit(&self, id: UnitId) -> &LoadUnit {
        &self.units[id.index() as usize]
    }

    /// Looks up one load unit, returning `None` for ids outside this
    /// catalogue (e.g. artefacts loaded by other tasks that share the
    /// reconfigurable fabric).
    #[must_use]
    pub fn unit_checked(&self, id: UnitId) -> Option<&LoadUnit> {
        self.units.get(id.index() as usize)
    }

    /// The Pareto-efficient ISE variants of `kernel`: those not
    /// dominated by any sibling in the
    /// (resources, execution latency, load time) space. Whatever the
    /// run-time forecast, the best choice is always among these — a
    /// selector may restrict its candidate list accordingly.
    #[must_use]
    pub fn pareto_ises_of(&self, kernel: KernelId) -> Vec<IseId> {
        let variants: Vec<&Ise> = self
            .ises_of(kernel)
            .iter()
            .map(|id| &self.ises[id.index() as usize])
            .collect();
        variants
            .iter()
            .filter(|candidate| !variants.iter().any(|other| other.dominates(candidate)))
            .map(|ise| ise.id())
            .collect()
    }

    /// The Section 2 case study's `grain` variant of `kernel`: of the ISEs
    /// (not the monoCG-Extension) that implement every data path of the
    /// kernel in exactly one copy, none left in software, the one with the
    /// largest per-execution saving `risc − full`. `None` if no variant of
    /// that grain qualifies or the kernel is unknown.
    #[must_use]
    pub fn single_copy_ise(&self, kernel: KernelId, grain: Grain) -> Option<&Ise> {
        let data_paths = self.kernel(kernel).ok()?.data_paths().len();
        self.ises_of(kernel)
            .iter()
            .map(|id| &self.ises[id.index() as usize])
            .filter(|i| {
                i.grain() == grain
                    && !i.is_mono_extension()
                    && i.stage_count() == data_paths
                    && !i.label().contains("@sw") // every data path covered
            })
            .max_by_key(|i| i.risc_latency() - i.full_latency())
    }

    /// Total number of one-ISE-per-kernel combinations over the given
    /// kernels (the search-space size the paper quotes as "more than 78
    /// million" for six H.264 kernels). Saturates at `u128::MAX`.
    #[must_use]
    pub fn combination_count(&self, kernels: &[KernelId]) -> u128 {
        kernels
            .iter()
            .map(|k| self.ises_of(*k).len().max(1) as u128)
            .fold(1u128, u128::saturating_mul)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datapath::{DataPathGraph, OpKind};

    fn word_graph(name: &str) -> DataPathGraph {
        let mut b = DataPathGraph::builder(name);
        let x = b.input();
        let y = b.input();
        let s = b.op(OpKind::Add, &[x, y]);
        let m = b.op(OpKind::Mul, &[s, y]);
        let _ = b.op(OpKind::Max, &[m, x]);
        b.finish().unwrap()
    }

    fn bit_graph(name: &str) -> DataPathGraph {
        let mut b = DataPathGraph::builder(name);
        let x = b.input();
        let s = b.op(OpKind::BitShuffle, &[x, x]);
        let e = b.op(OpKind::BitExtract, &[s]);
        let _ = b.op(OpKind::Cmp, &[e, x]);
        b.finish().unwrap()
    }

    fn two_kernel_catalog() -> IseCatalog {
        CatalogBuilder::new(ArchParams::default())
            .kernel(
                KernelSpec::new("deblock")
                    .data_path(bit_graph("cond"), 16)
                    .data_path(word_graph("filt"), 16)
                    .overhead_cycles(120),
            )
            .kernel(
                KernelSpec::new("sad")
                    .data_path(word_graph("sad16"), 16)
                    .overhead_cycles(80),
            )
            .build()
            .expect("valid catalog")
    }

    #[test]
    fn builds_variants_for_each_kernel() {
        let c = two_kernel_catalog();
        assert_eq!(c.kernels().len(), 2);
        // deblock: 2 graphs x (CG/FG x copies(1/2) + software) = up to 24
        // variants (the tool chain drops assignments that never beat
        // RISC-mode, and the all-software one).
        // (+1 for the monoCG-Extension candidate)
        let deblock_variants = c.ises_of(KernelId(0)).len();
        assert!((13..=25).contains(&deblock_variants), "{deblock_variants}");
        // sad: 1 graph x (2 fabrics x 2 copies) = up to 4 variants.
        let sad_variants = c.ises_of(KernelId(1)).len();
        assert!((3..=5).contains(&sad_variants), "{sad_variants}");
        // Grain classes must all occur among deblock variants.
        let grains: Vec<_> = c
            .ises_of(KernelId(0))
            .iter()
            .map(|i| c.ise(*i).unwrap().grain())
            .collect();
        assert!(grains.contains(&crate::ise::Grain::FineGrained));
        assert!(grains.contains(&crate::ise::Grain::CoarseGrained));
        assert!(grains.contains(&crate::ise::Grain::MultiGrained));
    }

    #[test]
    fn single_copy_ise_is_the_case_study_pick() {
        let c = two_kernel_catalog();
        let saving = |i: &Ise| i.risc_latency() - i.full_latency();
        let (deblock, sad) = (KernelId(0), KernelId(1));
        let fg = c.single_copy_ise(deblock, Grain::FineGrained).unwrap();
        assert_eq!(fg.label(), "deblock[cond@FGx1,filt@FGx1]");
        // A two-copy FG variant saves more, but is not the pick.
        assert!(c
            .ises_of(deblock)
            .iter()
            .map(|&id| c.ise(id).unwrap())
            .any(|i| i.grain() == Grain::FineGrained && saving(i) > saving(fg)));
        let cg = c.single_copy_ise(deblock, Grain::CoarseGrained).unwrap();
        assert_eq!(cg.label(), "deblock[cond@CGx1,filt@CGx1]");
        let mg = c.single_copy_ise(deblock, Grain::MultiGrained).unwrap();
        assert_eq!((mg.stage_count(), mg.label().matches("x1").count()), (2, 2));
        // One data path: one stage, and no multi-grained variant.
        let sad_fg = c.single_copy_ise(sad, Grain::FineGrained).unwrap();
        assert_eq!(sad_fg.label(), "sad[sad16@FGx1]");
        assert!(c.single_copy_ise(sad, Grain::MultiGrained).is_none());
        assert!(c
            .single_copy_ise(KernelId(9), Grain::CoarseGrained)
            .is_none());
    }

    #[test]
    fn units_are_shared_across_variants() {
        let c = two_kernel_catalog();
        let ids = c.ises_of(KernelId(0));
        // Count distinct units across all deblock ISEs: 2 graphs x 2 fabrics
        // x 2 copies = 8 units, far fewer than 16 variants x 2..4 stages.
        let mut units: Vec<UnitId> = ids
            .iter()
            .flat_map(|i| c.ise(*i).unwrap().unit_ids().collect::<Vec<_>>())
            .collect();
        units.sort_unstable();
        units.dedup();
        // 2 graphs x 2 fabrics x 2 copies = 8 data-path units, plus the
        // kernel's monoCG unit.
        assert_eq!(units.len(), 9);
    }

    #[test]
    fn ise_latencies_beat_risc() {
        let c = two_kernel_catalog();
        for ise in c.ises() {
            assert!(ise.full_latency() < ise.risc_latency(), "{}", ise.label());
        }
    }

    #[test]
    fn fg_loads_slow_cg_loads_fast() {
        let c = two_kernel_catalog();
        for u in c.units() {
            match u.fabric() {
                FabricKind::FineGrained => {
                    assert!(u.load_duration().get() > 100_000, "{}", u.label());
                    assert!(u.bitstream_bytes() > 0);
                    assert_eq!(u.cg_instrs(), 0);
                }
                FabricKind::CoarseGrained => {
                    assert!(u.load_duration().get() < 1_000, "{}", u.label());
                    assert_eq!(u.bitstream_bytes(), 0);
                }
            }
        }
    }

    #[test]
    fn mono_cg_generated_and_faster_than_risc() {
        let c = two_kernel_catalog();
        for k in c.kernels() {
            let mono = k.mono_cg().expect("mono available for these kernels");
            assert!(mono.latency < k.risc_latency());
            assert!(mono.instrs > 0);
            let u = c.unit(mono.unit);
            assert_eq!(u.fabric(), FabricKind::CoarseGrained);
            assert_eq!(u.saving_per_exec(), k.risc_latency() - mono.latency);
        }
    }

    #[test]
    fn machine_budget_filters_non_fitting() {
        let all = two_kernel_catalog();
        let tight = CatalogBuilder::new(ArchParams::default())
            .kernel(
                KernelSpec::new("deblock")
                    .data_path(bit_graph("cond"), 16)
                    .data_path(word_graph("filt"), 16),
            )
            .machine_budget(Resources::new(1, 1))
            .build()
            .unwrap();
        assert!(tight.ises_of(KernelId(0)).len() < all.ises_of(KernelId(0)).len());
        for ise in tight.ises() {
            assert!(ise.resources().fits_in(Resources::new(1, 1)));
        }
    }

    #[test]
    fn variant_cap_respected() {
        let c = CatalogBuilder::new(ArchParams::default())
            .kernel(
                KernelSpec::new("big")
                    .data_path(word_graph("a"), 16)
                    .data_path(word_graph("b"), 16)
                    .data_path(bit_graph("c"), 16),
            )
            .build()
            .unwrap();
        // Three 16-call data paths, each on CG or FG with one or two copies
        // or in software, combine in more ways than the cap allows, so the
        // cap binds; the kernel's monoCG-Extension candidate comes on top.
        assert_eq!(c.ises_of(KernelId(0)).len(), MAX_VARIANTS_PER_KERNEL + 1);
    }

    #[test]
    fn without_copies_halves_menu() {
        let c = CatalogBuilder::new(ArchParams::default())
            .kernel(KernelSpec::new("crc").data_path(bit_graph("g"), 16))
            .without_parallel_copies()
            .build()
            .unwrap();
        // CG x1, FG x1 and the monoCG-Extension candidate.
        assert_eq!(c.ises_of(KernelId(0)).len(), 3);
        for ise in c.ises() {
            assert_eq!(ise.stage_count(), 1);
        }
        assert_eq!(c.ises().iter().filter(|i| i.is_mono_extension()).count(), 1);
    }

    #[test]
    fn pareto_front_is_nonempty_and_contains_the_extremes() {
        let c = two_kernel_catalog();
        for k in c.kernels() {
            let front = c.pareto_ises_of(k.id());
            let all = c.ises_of(k.id());
            assert!(!front.is_empty());
            assert!(front.len() <= all.len());
            // The lowest-latency variant is never dominated.
            let fastest = all
                .iter()
                .map(|i| c.ise(*i).unwrap())
                .min_by_key(|i| (i.full_latency(), i.id()))
                .unwrap()
                .id();
            assert!(front.contains(&fastest), "kernel {}", k.name());
            // Every dropped variant is dominated by some survivor.
            for id in all {
                if !front.contains(id) {
                    let loser = c.ise(*id).unwrap();
                    assert!(
                        front.iter().any(|w| c.ise(*w).unwrap().dominates(loser)),
                        "{} survived nothing",
                        loser.label()
                    );
                }
            }
        }
    }

    #[test]
    fn combination_count_multiplies() {
        let c = two_kernel_catalog();
        let expected = c.ises_of(KernelId(0)).len() as u128 * c.ises_of(KernelId(1)).len() as u128;
        assert_eq!(c.combination_count(&[KernelId(0), KernelId(1)]), expected);
        assert_eq!(c.combination_count(&[]), 1);
    }

    #[test]
    fn errors_surface() {
        assert!(matches!(
            CatalogBuilder::new(ArchParams::default()).build(),
            Err(IseError::EmptyCatalog)
        ));
        assert!(matches!(
            CatalogBuilder::new(ArchParams::default())
                .kernel(KernelSpec::new("empty"))
                .build(),
            Err(IseError::EmptyKernel(_))
        ));
        let c = two_kernel_catalog();
        assert!(c.kernel(KernelId(99)).is_err());
        assert!(c.ise(IseId(9_999)).is_err());
        assert!(c.ises_of(KernelId(99)).is_empty());
    }

    #[test]
    fn bit_graph_prefers_fg_word_graph_prefers_cg() {
        let c = two_kernel_catalog();
        // Among single-copy deblock variants, compare unit savings.
        let cond_fg = c
            .units()
            .iter()
            .find(|u| u.label() == "deblock.cond@FG#0")
            .unwrap();
        let cond_cg = c
            .units()
            .iter()
            .find(|u| u.label() == "deblock.cond@CG#0")
            .unwrap();
        let filt_fg = c
            .units()
            .iter()
            .find(|u| u.label() == "deblock.filt@FG#0")
            .unwrap();
        let filt_cg = c
            .units()
            .iter()
            .find(|u| u.label() == "deblock.filt@CG#0")
            .unwrap();
        assert!(
            cond_fg.saving_per_exec() >= cond_cg.saving_per_exec(),
            "bit-level condition data path should save at least as much on FG"
        );
        assert!(
            filt_cg.saving_per_exec() > Cycles::ZERO,
            "word-level filter data path must be profitable on CG"
        );
        let _ = filt_fg;
    }
}
