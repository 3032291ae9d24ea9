//! The assembled mRTS run-time system (Fig. 4): Monitoring & Prediction
//! Unit → ISE selector → reconfiguration hand-off → Execution Control
//! Unit, packaged as a [`RuntimePolicy`] for the simulator.

use crate::ecu::{self, EcuConfig};
use crate::mpu::{FlowPredictor, Mpu};
use crate::selector::SelectorConfig;
use mrts_arch::{Cycles, FabricKind, Machine, Resources};
use mrts_ise::{BlockId, IseId, KernelId, TriggerBlock, UnitId};
use mrts_sim::{BlockPlan, ExecContext, ExecPlan, FaultEvent, RuntimePolicy, SelectionContext};
use mrts_workload::KernelActivity;

/// Configuration of the full run-time system. The defaults reproduce the
/// paper's setup; the flags exist for the ablation benches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MrtsConfig {
    /// Learning rate of the MPU's error back-propagation.
    pub mpu_alpha: f64,
    /// Whether the MPU corrects the compile-time forecasts at all.
    pub use_mpu: bool,
    /// Selector cost model.
    pub selector: SelectorConfig,
    /// ECU behaviour.
    pub ecu: EcuConfig,
    /// Section 5.4: after the first per-kernel selection, the remaining
    /// selection computation overlaps the (already running)
    /// reconfiguration, so only roughly one kernel's share of the decision
    /// cost lands on the critical path. Disabled, the full cost is charged
    /// (used to bound the overhead from above).
    pub hide_overhead: bool,
    /// Cap on the selection budget: the tenant's allotted slice of the
    /// fabric, in slot units. `None` (the default, the single-application
    /// setup) lets the selector spend everything the machine reports free
    /// plus evictable. The multi-tenant runner keeps this in sync with the
    /// fabric arbiter's current partition so a tenant's selector can never
    /// plan past its slice, even while the fabric is being re-partitioned
    /// underneath it.
    pub slice: Option<Resources>,
    /// Speculative reconfiguration prefetch (see [`PrefetchConfig`]).
    pub prefetch: PrefetchConfig,
}

/// Knobs of the speculative-prefetch planner. **Disabled by default**:
/// with `enabled: false` the planner is never consulted, the control-flow
/// predictor never learns, and every plan (and therefore every golden
/// trace and results file) is byte-identical to the trigger-time-only
/// run-time system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefetchConfig {
    /// Master switch for speculative planning.
    pub enabled: bool,
    /// Minimum predictor confidence for a successor block to be
    /// considered at all. Candidates below the threshold are never
    /// nominated, no matter how much reconfiguration they would hide.
    pub confidence_min: f64,
    /// Cap on speculative units nominated per block — the planner's half
    /// of the idle-bandwidth budget. (The engine enforces the other
    /// half: speculative loads queue *behind* all of the block's demand
    /// traffic at the FG configuration port, take only genuinely free
    /// slots, never evict anything, and are fully rolled back before the
    /// next block is planned unless promoted.)
    pub max_units: usize,
    /// Context order of the [`FlowPredictor`] (longest block-history
    /// match used for prediction).
    pub order: usize,
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        PrefetchConfig {
            enabled: false,
            confidence_min: 0.55,
            max_units: 2,
            order: 2,
        }
    }
}

impl Default for MrtsConfig {
    fn default() -> Self {
        MrtsConfig {
            mpu_alpha: 0.5,
            use_mpu: true,
            selector: SelectorConfig::default(),
            ecu: EcuConfig::default(),
            hide_overhead: true,
            slice: None,
            prefetch: PrefetchConfig::default(),
        }
    }
}

/// Chooses monoCG-Extensions to pre-load with the leftover CG budget after
/// ISE selection (the Execution Control Unit's bridging, hoisted to block
/// start: a context program loads in µs, so having it stream right away is
/// equivalent to the ECU requesting it at the first execution — but it also
/// works when the selection itself consumed every slot the ECU would have
/// found free later).
///
/// Kernels are served in forecast order: first those left entirely in RISC
/// mode, then those whose selected ISE has only ms-scale (FG) stages still
/// outstanding.
#[must_use]
pub fn mono_preload_units(
    catalog: &mrts_ise::IseCatalog,
    choices: &[(KernelId, Option<IseId>)],
    leftover_cg: u16,
    present: &dyn Fn(UnitId) -> bool,
) -> Vec<UnitId> {
    let mut budget = leftover_cg;
    let mut out = Vec::new();
    let push = |kernel: KernelId, budget: &mut u16, out: &mut Vec<UnitId>| {
        if *budget == 0 {
            return;
        }
        let Ok(k) = catalog.kernel(kernel) else {
            return;
        };
        let Some(mono) = k.mono_cg() else { return };
        if present(mono.unit) || out.contains(&mono.unit) {
            return;
        }
        out.push(mono.unit);
        *budget -= 1;
    };
    // Pass 1: kernels with no ISE at all.
    for (kernel, ise) in choices {
        if ise.is_none() {
            push(*kernel, &mut budget, &mut out);
        }
    }
    // Pass 2: kernels whose selection still waits on FG loads.
    for (kernel, ise) in choices {
        let Some(id) = ise else { continue };
        let Ok(ise) = catalog.ise(*id) else { continue };
        let fg_pending = ise
            .stages()
            .iter()
            .any(|s| s.fabric == FabricKind::FineGrained && !present(s.unit));
        if fg_pending {
            push(*kernel, &mut budget, &mut out);
        }
    }
    out
}

/// The units resident at one instant as a bitset over the catalogue's
/// dense unit ids: for each of them the same answer as
/// `machine.is_resident(id, now)`.
#[derive(Debug, Clone, Default)]
struct ResidentSet {
    bits: Vec<u64>,
}

impl ResidentSet {
    /// Captures what `machine` holds at `now` among a catalogue's `units`
    /// units.
    fn capture(&mut self, machine: &Machine, now: Cycles, units: usize) {
        self.bits.clear();
        self.bits.resize(units.div_ceil(64), 0);
        let mut add = |id: u64| {
            if let Some(word) = self.bits.get_mut((id / 64) as usize) {
                *word |= 1 << (id % 64);
            }
        };
        machine.fg().for_each_resident_id(now, &mut add);
        machine.cg().for_each_resident_id(now, &mut add);
    }

    fn contains(&self, unit: UnitId) -> bool {
        let id = unit.as_loaded_id();
        self.bits
            .get((id / 64) as usize)
            .is_some_and(|word| word >> (id % 64) & 1 == 1)
    }
}

/// The mRTS run-time system.
///
/// # Example
///
/// ```
/// use mrts_arch::{ArchParams, Machine, Resources};
/// use mrts_core::Mrts;
/// use mrts_sim::Simulator;
/// use mrts_workload::{TraceBuilder, WorkloadModel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let encoder = mrts_ingest::model("h264")?;
/// let catalog = encoder.application().build_catalog(ArchParams::default(), None)?;
/// let trace = TraceBuilder::new(&encoder).build();
/// let machine = Machine::new(ArchParams::default(), Resources::new(2, 2))?;
/// let stats = Simulator::run(&catalog, machine, &trace, &mut Mrts::new());
/// assert!(stats.total_busy().get() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Mrts {
    config: MrtsConfig,
    mpu: Mpu,
    blocks_planned: u64,
    total_selection_cycles: u64,
    total_kernels_selected: u64,
    faults_observed: u64,
    /// Recycled plan buffers (see [`RuntimePolicy::recycle_plan`]): the
    /// eviction list handed out with each [`BlockPlan`] returns here once
    /// the engine has applied it, so steady-state planning reuses its
    /// capacity instead of allocating per block.
    evict_buf: Vec<UnitId>,
    /// Scratch: sorted loaded-ids present on the fabric (step 2).
    resident_buf: Vec<u64>,
    /// The units resident at the current block's `now` (step 3).
    resident_now: ResidentSet,
    /// Scratch: the forecast's kernel ids (step 2's evictability filter).
    kernels_buf: Vec<KernelId>,
    /// Scratch: units present on the fabric at plan time, sorted by
    /// loaded id (step 2).
    present_buf: Vec<UnitId>,
    /// Scratch: the evictable subset of `present_buf` (step 2/5).
    evictable_buf: Vec<UnitId>,
    /// The selector's reusable working-set arena (candidate list, heap,
    /// shadow controller, demand cache …).
    sel_scratch: crate::selector::SelectorScratch,
    /// The profit evaluator's reusable buffers (ready-time scratch and the
    /// per-round port-state memo).
    profit_bufs: crate::profit::ProfitEvalBuffers,
    /// Reusable MPU-corrected forecast for the current block.
    forecast_buf: mrts_ise::TriggerBlock,
    /// Online control-flow predictor over the observed block sequence
    /// (only consulted/trained when `config.prefetch.enabled`).
    flow: FlowPredictor,
    /// Compile-time forecast snapshots of every block seen so far, sorted
    /// by block id. When the predictor nominates a successor, its
    /// snapshot (MPU-corrected with *current* estimates) is what the
    /// speculative selector plans against.
    forecast_store: Vec<TriggerBlock>,
    /// Scratch: the predictor's (block, confidence) output.
    pred_buf: Vec<(BlockId, f64)>,
    /// Scratch: MPU-corrected forecast of a predicted successor block.
    spec_forecast_buf: TriggerBlock,
    /// Scratch: speculative unit candidates, grouped per predicted block.
    spec_units_buf: Vec<UnitId>,
    /// Scratch: per-predicted-block ranking entries
    /// `(confidence × saved cycles, block, range into spec_units_buf)`.
    spec_rank_buf: Vec<(f64, BlockId, u32, u32)>,
    /// Recycled `BlockPlan::prefetch` buffer.
    prefetch_buf: Vec<UnitId>,
}

impl Mrts {
    /// Creates mRTS with the paper's default configuration.
    #[must_use]
    pub fn new() -> Self {
        Mrts::with_config(MrtsConfig::default())
    }

    /// Creates mRTS with an explicit configuration (ablations).
    #[must_use]
    pub fn with_config(config: MrtsConfig) -> Self {
        Mrts {
            mpu: Mpu::new(config.mpu_alpha),
            config,
            blocks_planned: 0,
            total_selection_cycles: 0,
            total_kernels_selected: 0,
            faults_observed: 0,
            evict_buf: Vec::new(),
            resident_buf: Vec::new(),
            resident_now: ResidentSet::default(),
            kernels_buf: Vec::new(),
            present_buf: Vec::new(),
            evictable_buf: Vec::new(),
            sel_scratch: crate::selector::SelectorScratch::new(),
            profit_bufs: crate::profit::ProfitEvalBuffers::default(),
            forecast_buf: mrts_ise::TriggerBlock::new(mrts_ise::BlockId(0), Vec::new()),
            flow: FlowPredictor::new(config.prefetch.order),
            forecast_store: Vec::new(),
            pred_buf: Vec::new(),
            spec_forecast_buf: mrts_ise::TriggerBlock::new(mrts_ise::BlockId(0), Vec::new()),
            spec_units_buf: Vec::new(),
            spec_rank_buf: Vec::new(),
            prefetch_buf: Vec::new(),
        }
    }

    /// Number of fault notifications received from the simulator so far.
    #[must_use]
    pub fn faults_observed(&self) -> u64 {
        self.faults_observed
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &MrtsConfig {
        &self.config
    }

    /// Read access to the MPU (tests and diagnostics).
    #[must_use]
    pub fn mpu(&self) -> &Mpu {
        &self.mpu
    }

    /// Read access to the control-flow predictor (tests and diagnostics).
    /// Untrained — zero observations — unless prefetch is enabled.
    #[must_use]
    pub fn flow(&self) -> &FlowPredictor {
        &self.flow
    }

    /// Trains the control-flow predictor on the block entry and snapshots
    /// the block's compile-time forecast so a later *prediction* of this
    /// block can be planned speculatively without waiting for its trigger
    /// instructions. Called from every `plan_block` path (including the
    /// zero-budget fast path: history gaps would corrupt the context
    /// model) when prefetch is enabled.
    fn note_block(&mut self, forecast: &TriggerBlock) {
        self.flow.observe(forecast.block);
        match self
            .forecast_store
            .binary_search_by_key(&forecast.block, |t| t.block)
        {
            Ok(i) => {
                let slot = &mut self.forecast_store[i];
                slot.triggers.clear();
                slot.triggers.extend_from_slice(&forecast.triggers);
            }
            Err(i) => self.forecast_store.insert(i, forecast.clone()),
        }
    }

    /// Fills `out` with up to `max_units` FG units for the predicted
    /// successor blocks, most valuable first. Each candidate block is
    /// planned exactly the way its own `plan_block` would plan it —
    /// current MPU estimates, the same selector and profit model —
    /// against the residual FG budget left after the committed demand
    /// plan (`demand_loads`). A block's nomination score is
    /// `confidence × Σ load_duration` of its still-missing FG units: the
    /// reconfiguration time the prefetch is expected to hide.
    fn plan_prefetch_into(
        &mut self,
        ctx: &SelectionContext<'_>,
        now: Cycles,
        residual_prc: u16,
        demand_loads: &[UnitId],
        out: &mut Vec<UnitId>,
    ) {
        let pcfg = self.config.prefetch;
        let spec_budget = Resources::new(0, residual_prc);
        let pred = std::mem::take(&mut self.pred_buf);
        // Residency at `now` was frozen by plan step 3 into
        // `resident_now`; the machine has not been touched since, so it is
        // still exact.
        let resident_now = std::mem::take(&mut self.resident_now);
        let resident = |u: UnitId| resident_now.contains(u);
        self.profit_bufs.rebind_catalog(ctx.catalog);
        let mut profit = crate::profit::ExpectedProfitEval::with_buffers(
            now,
            &resident,
            std::mem::take(&mut self.profit_bufs),
        )
        .with_mono(self.config.ecu.use_mono_cg);
        self.spec_units_buf.clear();
        self.spec_rank_buf.clear();
        for &(block, confidence) in &pred {
            if confidence < pcfg.confidence_min {
                break; // predictions come sorted by descending confidence
            }
            if block == ctx.forecast.block {
                continue; // a self-loop is already planned as demand
            }
            let Ok(i) = self
                .forecast_store
                .binary_search_by_key(&block, |t| t.block)
            else {
                continue; // successor never seen: nothing to plan against
            };
            if self.config.use_mpu {
                self.mpu
                    .correct_into(&self.forecast_store[i], &mut self.spec_forecast_buf);
            } else {
                let stored = &self.forecast_store[i];
                self.spec_forecast_buf.block = stored.block;
                self.spec_forecast_buf.triggers.clear();
                self.spec_forecast_buf
                    .triggers
                    .extend_from_slice(&stored.triggers);
            }
            let sel = crate::selector::select_ises_with_scratch(
                ctx.catalog,
                &self.spec_forecast_buf,
                spec_budget,
                &resident,
                ctx.machine.controller(),
                now,
                &self.config.selector,
                &mut profit,
                &mut self.sel_scratch,
            );
            let start = self.spec_units_buf.len() as u32;
            let mut saved = 0u64;
            for &u in &sel.load_order {
                let unit = ctx.catalog.unit(u);
                // FG only (a CG context program loads in µs — nothing
                // worth hiding), and never a unit the current block
                // already loads, owns, or could claim for its own
                // kernels mid-block.
                if unit.fabric() != FabricKind::FineGrained
                    || demand_loads.contains(&u)
                    || self.present_buf.contains(&u)
                    || self.kernels_buf.contains(&unit.kernel())
                {
                    continue;
                }
                self.spec_units_buf.push(u);
                saved += unit.load_duration().get();
            }
            self.sel_scratch.reclaim(sel.choices, sel.load_order);
            self.sel_scratch.reclaim_selected(sel.selected);
            let end = self.spec_units_buf.len() as u32;
            if end > start && saved > 0 {
                self.spec_rank_buf
                    .push((confidence * saved as f64, block, start, end));
            }
        }
        self.profit_bufs = profit.recycle();
        self.resident_now = resident_now;
        self.pred_buf = pred;
        // Most expected hidden reconfiguration first; ties go to the
        // lower block id so plans stay platform-deterministic.
        self.spec_rank_buf.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        'fill: for &(_, _, start, end) in &self.spec_rank_buf {
            for &u in &self.spec_units_buf[start as usize..end as usize] {
                if out.len() >= pcfg.max_units {
                    break 'fill;
                }
                if !out.contains(&u) {
                    out.push(u);
                }
            }
        }
    }

    /// Updates the fabric-slice cap (see [`MrtsConfig::slice`]). Called by
    /// the multi-tenant fabric arbiter whenever it re-partitions; learned
    /// MPU state and fault history survive the change.
    pub fn set_slice(&mut self, slice: Option<Resources>) {
        self.config.slice = slice;
    }

    /// Average *computed* selection cost per kernel over the run so far —
    /// the number the paper quotes as "on average … less than 3000 cycles
    /// to select an ISE for each kernel" (Section 5.4). This counts the
    /// full computation, not just the share charged to the timeline.
    #[must_use]
    pub fn avg_selection_cycles_per_kernel(&self) -> f64 {
        if self.total_kernels_selected == 0 {
            return 0.0;
        }
        self.total_selection_cycles as f64 / self.total_kernels_selected as f64
    }
}

impl Default for Mrts {
    fn default() -> Self {
        Self::new()
    }
}

impl RuntimePolicy for Mrts {
    fn name(&self) -> String {
        "mRTS".into()
    }

    fn plan_block(&mut self, ctx: &SelectionContext<'_>) -> BlockPlan {
        // No usable fabric budget — a zero slice (the degradation ladder's
        // floor) or a zero-fabric machine — means this block runs pure
        // RISC. Selecting against an empty budget cannot choose anything,
        // so skip the selector entirely: the tenant sheds the decision
        // overhead along with the speedup.
        let cap = ctx.machine.capacity();
        if self.config.slice.unwrap_or(cap).min(cap).is_empty() {
            self.blocks_planned += 1;
            if self.config.prefetch.enabled {
                self.note_block(ctx.forecast);
            }
            return BlockPlan {
                selections: ctx.forecast.iter().map(|t| (t.kernel, None)).collect(),
                evict: Vec::new(),
                load_order: Vec::new(),
                prefetch: Vec::new(),
                overhead: Cycles::ZERO,
            };
        }

        // 1. MPU: correct the compile-time forecast with run-time
        //    observations, staged into the reusable forecast buffer (taken
        //    out of `self` so the borrow checker allows the scratch-arena
        //    borrows below; returned before this call ends).
        let mut forecast = std::mem::replace(
            &mut self.forecast_buf,
            TriggerBlock::new(BlockId(0), Vec::new()),
        );
        if self.config.use_mpu {
            self.mpu.correct_into(ctx.forecast, &mut forecast);
        } else {
            forecast.block = ctx.forecast.block;
            forecast.triggers.clear();
            forecast.triggers.extend_from_slice(&ctx.forecast.triggers);
        }
        let forecast = forecast;

        // 2. Fabric status: units of kernels outside this block are
        //    evictable; their slots extend the selector's budget. All
        //    three lists are staged in reusable buffers (`resident_buf`
        //    is the u64 staging area).
        self.kernels_buf.clear();
        self.kernels_buf.extend(forecast.iter().map(|t| t.kernel));
        let forecast_kernels = &self.kernels_buf;
        self.resident_buf.clear();
        let stage = &mut self.resident_buf;
        ctx.machine
            .fg()
            .for_each_resident_id(Cycles::MAX, |id| stage.push(id));
        ctx.machine
            .cg()
            .for_each_resident_id(Cycles::MAX, |id| stage.push(id));
        stage.sort_unstable();
        self.present_buf.clear();
        self.present_buf.extend(
            self.resident_buf
                .iter()
                .copied()
                .map(UnitId::from_loaded_id),
        );
        self.evictable_buf.clear();
        self.evictable_buf.extend(
            self.present_buf
                .iter()
                .copied()
                // Units outside the catalogue belong to other tasks sharing
                // the fabric: they occupy slots but are not ours to evict.
                .filter(|u| {
                    ctx.catalog
                        .unit_checked(*u)
                        .is_some_and(|unit| !forecast_kernels.contains(&unit.kernel()))
                }),
        );
        let evictable = std::mem::take(&mut self.evictable_buf);
        let evictable_resources: Resources = evictable
            .iter()
            .map(|u| ctx.catalog.unit(*u).resources())
            .sum();
        let budget = ctx.machine.free_resources() + evictable_resources;
        // A tenant's selector must not plan past its allotted fabric slice.
        let budget = match self.config.slice {
            Some(slice) => budget.min(slice),
            None => budget,
        };

        // 3. The greedy selection (Fig. 6). Residency at `now` is frozen
        //    for the whole selection (the machine is not touched), so it is
        //    captured once; each probe is then a bit test instead of a
        //    fabric-slot scan.
        let now = ctx.now;
        let mut resident_now = std::mem::take(&mut self.resident_now);
        resident_now.capture(ctx.machine, now, ctx.catalog.units().len());
        let resident = |u: UnitId| resident_now.contains(u);
        let use_mono = self.config.ecu.use_mono_cg;
        // The memoizing evaluator captures the shadow port schedule once per
        // selection round and reuses its scratch buffers across candidates
        // (identical profits to `expected_profit`, bit for bit).
        self.profit_bufs.rebind_catalog(ctx.catalog);
        let mut profit = crate::profit::ExpectedProfitEval::with_buffers(
            now,
            &resident,
            std::mem::take(&mut self.profit_bufs),
        )
        .with_mono(use_mono);
        let selection = crate::selector::select_ises_with_scratch(
            ctx.catalog,
            &forecast,
            budget,
            &resident,
            ctx.machine.controller(),
            ctx.now,
            &self.config.selector,
            &mut profit,
            &mut self.sel_scratch,
        );
        self.profit_bufs = profit.recycle();
        self.resident_now = resident_now;

        // 4. Pre-load monoCG-Extensions with the leftover CG budget (the
        //    ECU's bridging, see `mono_preload_units`).
        let mut load_order = selection.load_order;
        self.sel_scratch.reclaim_selected(selection.selected);
        let selection_demand: Resources = load_order
            .iter()
            .map(|u| ctx.catalog.unit(*u).resources())
            .sum();
        if use_mono {
            let leftover_cg = budget.cg().saturating_sub(selection_demand.cg());
            let machine2 = ctx.machine;
            let present = move |u: UnitId| machine2.is_resident(u.as_loaded_id(), Cycles::MAX);
            load_order.extend(mono_preload_units(
                ctx.catalog,
                &selection.choices,
                leftover_cg,
                &present,
            ));
        }

        // 5. Evict only what the new loads actually displace.
        let need: Resources = load_order
            .iter()
            .map(|u| ctx.catalog.unit(*u).resources())
            .sum();
        let free = ctx.machine.free_resources();
        let mut cg_short = need.cg().saturating_sub(free.cg());
        let mut prc_short = need.prc().saturating_sub(free.prc());
        let mut evict = std::mem::take(&mut self.evict_buf);
        for &u in &evictable {
            if cg_short == 0 && prc_short == 0 {
                break;
            }
            match ctx.catalog.unit(u).fabric() {
                FabricKind::CoarseGrained if cg_short > 0 => {
                    evict.push(u);
                    cg_short -= 1;
                }
                FabricKind::FineGrained if prc_short > 0 => {
                    evict.push(u);
                    prc_short -= 1;
                }
                _ => {}
            }
        }
        self.evictable_buf = evictable;

        // 6. Overhead accounting (Section 5.4): the computation after the
        //    first per-kernel selection overlaps the reconfiguration it
        //    already launched.
        let computed = selection.overhead_cycles;
        let kernels = forecast.kernel_count().max(1) as u64;
        let charged = if self.config.hide_overhead && self.blocks_planned > 0 {
            Cycles::new(computed.get() / kernels)
        } else {
            computed
        };
        self.blocks_planned += 1;
        self.total_selection_cycles += computed.get();
        self.total_kernels_selected += kernels;
        self.forecast_buf = forecast;

        // 7. Speculative prefetch (DESIGN.md §12): train the control-flow
        //    predictor on this block's entry, then nominate FG units for
        //    the most confidently predicted successor blocks, ranked by
        //    confidence × reconfiguration cycles the prefetch would hide.
        //    The list is advisory: the engine issues speculative loads
        //    only into an idle FG port with genuinely free slots, never
        //    evicts for them, and aborts them before any demand load
        //    could queue behind one. No overhead is charged — the
        //    speculative selection overlaps this block's execution, off
        //    the critical path by construction.
        let mut prefetch = std::mem::take(&mut self.prefetch_buf);
        prefetch.clear();
        if self.config.prefetch.enabled {
            self.note_block(ctx.forecast);
            self.flow.predict_into(&mut self.pred_buf);
            // FG slots plausibly still free once this block's own loads
            // are placed; the engine re-checks the real machine at issue
            // time, so this only bounds how much we nominate.
            let residual_prc = budget.prc().saturating_sub(need.prc());
            if residual_prc > 0 && !self.pred_buf.is_empty() {
                self.plan_prefetch_into(ctx, now, residual_prc, &load_order, &mut prefetch);
            }
        }

        BlockPlan {
            selections: selection.choices,
            evict,
            load_order,
            prefetch,
            overhead: charged,
        }
    }

    fn plan_execution(
        &mut self,
        kernel: KernelId,
        selected: Option<IseId>,
        ctx: &ExecContext<'_>,
    ) -> ExecPlan {
        // No usable fabric budget (ladder floor or zero-fabric machine):
        // even an opportunistic monoCG install would plan past the
        // tenant's (empty) fabric share.
        let cap = ctx.machine.capacity();
        if self.config.slice.unwrap_or(cap).min(cap).is_empty() {
            return ExecPlan::risc();
        }
        let Ok(k) = ctx.catalog.kernel(kernel) else {
            return ExecPlan::risc();
        };
        let selected_ise = selected.and_then(|id| ctx.catalog.ise(id).ok());
        let machine = ctx.machine;
        let now = ctx.now;
        let resident = move |u: UnitId| machine.is_resident(u.as_loaded_id(), now);
        let cg_free = ctx.machine.free_resources().cg() > 0;
        ecu::decide(k, selected_ise, &resident, cg_free, &self.config.ecu).plan
    }

    fn observe_block_end(&mut self, _block: mrts_ise::BlockId, observed: &[KernelActivity]) {
        if self.config.use_mpu {
            self.mpu.observe(observed);
        }
    }

    /// Fault recovery is **re-selection, not a special case**: every
    /// [`Mrts::plan_block`] recomputes the selector budget from
    /// `machine.free_resources()` (step 2 above), so a container lost to a
    /// permanent fault has already vanished from the next block's budget and
    /// the greedy selector re-plans against the shrunken resource vector
    /// automatically. The notification is recorded so diagnostics (and the
    /// fault-sweep bench) can report how much adversity a run absorbed.
    fn notify_fault(&mut self, event: &FaultEvent) {
        let _ = event;
        self.faults_observed += 1;
    }

    /// Forwards the arbiter's grant to [`Mrts::set_slice`], so a boxed
    /// `dyn RuntimePolicy` handed out by the policy factory stays
    /// slice-aware in a multi-tenant run.
    fn set_resource_slice(&mut self, slice: Option<Resources>) {
        self.set_slice(slice);
    }

    /// Reclaims the applied plan's buffers — the eviction list, the
    /// per-kernel choices and the load order — so the next
    /// [`Mrts::plan_block`] builds all three in place instead of
    /// allocating fresh `Vec`s per block.
    fn recycle_plan(&mut self, plan: BlockPlan) {
        let mut evict = plan.evict;
        evict.clear();
        // Keep whichever buffer has more capacity (a recycled empty from
        // the zero-budget fast path must not shrink the pool).
        if evict.capacity() > self.evict_buf.capacity() {
            self.evict_buf = evict;
        }
        let mut prefetch = plan.prefetch;
        prefetch.clear();
        if prefetch.capacity() > self.prefetch_buf.capacity() {
            self.prefetch_buf = prefetch;
        }
        self.sel_scratch.reclaim(plan.selections, plan.load_order);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrts_arch::{ArchParams, Machine};
    use mrts_sim::{ExecClass, RiscOnlyPolicy, Simulator};
    use mrts_workload::synthetic::{synthetic_trace, Pattern};
    use mrts_workload::{TraceBuilder, WorkloadModel};

    fn machine(cg: u16, prc: u16) -> Machine {
        Machine::new(ArchParams::default(), Resources::new(cg, prc)).unwrap()
    }

    /// The builtin one-kernel `toy` app's catalogue and a synthetic trace
    /// of `rounds` activations whose counts follow `pattern`.
    fn toy(pattern: Pattern, rounds: usize) -> (mrts_ise::IseCatalog, mrts_workload::Trace) {
        let toy = mrts_ingest::model("toy").expect("builtin toy lowers");
        let catalog = toy
            .application()
            .build_catalog(ArchParams::default(), None)
            .unwrap();
        (catalog, synthetic_trace(&toy, &[pattern], rounds))
    }

    #[test]
    fn mrts_beats_risc_on_toy_app() {
        let (catalog, trace) = toy(Pattern::Constant(2_000), 6);
        let mrts = Simulator::run(&catalog, machine(2, 2), &trace, &mut Mrts::new());
        let risc = Simulator::run(&catalog, machine(2, 2), &trace, &mut RiscOnlyPolicy::new());
        assert!(
            mrts.total_execution_time() < risc.total_execution_time(),
            "mRTS {} vs RISC {}",
            mrts.total_execution_time(),
            risc.total_execution_time()
        );
        // Accelerated executions dominate.
        let h = mrts.class_histogram();
        let accel = h.get(&ExecClass::FullIse).copied().unwrap_or(0)
            + h.get(&ExecClass::IntermediateIse).copied().unwrap_or(0)
            + h.get(&ExecClass::MonoCg).copied().unwrap_or(0);
        assert!(accel > 10_000, "{h:?}");
    }

    #[test]
    fn mrts_single_prc_machine_still_works() {
        let (catalog, trace) = toy(Pattern::Constant(5_000), 4);
        let mrts = Simulator::run(&catalog, machine(0, 1), &trace, &mut Mrts::new());
        let risc = Simulator::run(&catalog, machine(0, 1), &trace, &mut RiscOnlyPolicy::new());
        assert!(mrts.total_execution_time() < risc.total_execution_time());
        assert_eq!(mrts.rejected_loads, 0);
    }

    #[test]
    fn mono_cg_used_on_cg_only_machine() {
        let (catalog, trace) = toy(Pattern::Constant(2_000), 4);
        let stats = Simulator::run(&catalog, machine(1, 0), &trace, &mut Mrts::new());
        let h = stats.class_histogram();
        // With a single CG-EDPE either a CG-ISE or the monoCG path must
        // carry most executions.
        let accelerated: u64 = h
            .iter()
            .filter(|(c, _)| **c != ExecClass::RiscMode)
            .map(|(_, n)| *n)
            .sum();
        assert!(accelerated > 6_000, "{h:?}");
    }

    #[test]
    fn mpu_learns_the_real_counts() {
        // Forecast (mean) is ~5_500 but the series alternates 1_000/10_000.
        let (catalog, trace) = toy(
            Pattern::Burst {
                low: 1_000,
                high: 10_000,
                period: 2,
            },
            8,
        );
        let mut mrts = Mrts::new();
        let _ = Simulator::run(&catalog, machine(2, 2), &trace, &mut mrts);
        assert_eq!(mrts.mpu().tracked_kernels(), 1);
        assert!(mrts.mpu().estimate(mrts_ise::KernelId(0)).is_some());
    }

    #[test]
    fn overhead_is_small_fraction_on_h264() {
        let enc = mrts_ingest::model("h264").expect("builtin h264 lowers");
        let catalog = enc
            .application()
            .build_catalog(ArchParams::default(), None)
            .unwrap();
        let trace = TraceBuilder::new(&enc).build();
        let mut mrts = Mrts::new();
        let stats = Simulator::run(&catalog, machine(2, 2), &trace, &mut mrts);
        // Paper Section 5.4: ~1.9% overhead, <3000 cycles per kernel.
        assert!(
            stats.overhead_fraction() < 0.05,
            "overhead fraction {}",
            stats.overhead_fraction()
        );
        let per_kernel = mrts.avg_selection_cycles_per_kernel();
        assert!(
            per_kernel < 3_000.0,
            "selection cost per kernel {per_kernel}"
        );
        assert!(per_kernel > 100.0);
    }

    #[test]
    fn eviction_reclaims_foreign_units() {
        // Two-kernel toy: after block for kernel A, planning a block for
        // kernel B on a tiny machine must evict A's units.
        let (catalog, trace) = toy(Pattern::Constant(3_000), 3);
        // Machine with a single PRC and single EDPE: every block must fit
        // in two slots, so plans keep evicting and reloading as needed.
        let stats = Simulator::run(&catalog, machine(1, 1), &trace, &mut Mrts::new());
        assert_eq!(stats.rejected_loads, 0, "eviction must make room");
    }

    #[test]
    fn zero_slice_degrades_to_risc() {
        let (catalog, trace) = toy(Pattern::Constant(1_000), 3);
        let cfg = MrtsConfig {
            slice: Some(Resources::NONE),
            ecu: EcuConfig { use_mono_cg: false },
            ..MrtsConfig::default()
        };
        // Plenty of free fabric, but the tenant's slice allows none of it.
        let stats = Simulator::run(&catalog, machine(2, 2), &trace, &mut Mrts::with_config(cfg));
        let h = stats.class_histogram();
        assert_eq!(h.get(&ExecClass::RiscMode).copied().unwrap_or(0), 3_000);
        assert_eq!(h.len(), 1, "{h:?}");
    }

    #[test]
    fn zero_slice_fast_path_charges_no_overhead_and_skips_mono() {
        let (catalog, trace) = toy(Pattern::Constant(1_000), 3);
        let cfg = MrtsConfig {
            slice: Some(Resources::NONE),
            // monoCG stays enabled: the zero-slice floor must suppress it
            // on its own, without the ablation flag's help.
            ..MrtsConfig::default()
        };
        let mut mrts = Mrts::with_config(cfg);
        let stats = Simulator::run(&catalog, machine(2, 2), &trace, &mut mrts);
        let h = stats.class_histogram();
        assert_eq!(h.get(&ExecClass::RiscMode).copied().unwrap_or(0), 3_000);
        assert_eq!(h.len(), 1, "{h:?}");
        // The selector never ran: zero decision overhead on the timeline.
        assert_eq!(stats.total_overhead(), Cycles::ZERO);
        assert_eq!(mrts.avg_selection_cycles_per_kernel(), 0.0);
    }

    #[test]
    fn slice_cap_limits_but_does_not_break_selection() {
        let (catalog, trace) = toy(Pattern::Constant(2_000), 4);
        let mut capped = Mrts::new();
        capped.set_slice(Some(Resources::new(1, 1)));
        let capped_stats = Simulator::run(&catalog, machine(2, 2), &trace, &mut capped);
        let sliced_machine = Simulator::run(&catalog, machine(1, 1), &trace, &mut Mrts::new());
        let risc = Simulator::run(&catalog, machine(2, 2), &trace, &mut RiscOnlyPolicy::new());
        // Capped selection still accelerates...
        assert!(capped_stats.total_execution_time() < risc.total_execution_time());
        // ...and never plans past the slice (no rejected loads on the
        // machine that *is* the slice would be the tenant setup; here the
        // larger machine absorbs them, so just sanity-check both ran).
        assert!(sliced_machine.total_execution_time() < risc.total_execution_time());
    }

    #[test]
    fn disabled_mpu_uses_static_forecast() {
        let cfg = MrtsConfig {
            use_mpu: false,
            ..MrtsConfig::default()
        };
        let mut mrts = Mrts::with_config(cfg);
        assert_eq!(mrts.name(), "mRTS");
        let (catalog, trace) = toy(Pattern::Constant(1_000), 3);
        let _ = Simulator::run(&catalog, machine(1, 1), &trace, &mut mrts);
        assert_eq!(mrts.mpu().tracked_kernels(), 0);
    }
}
