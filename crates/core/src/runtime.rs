//! The assembled mRTS run-time system (Fig. 4): Monitoring & Prediction
//! Unit → ISE selector → reconfiguration hand-off → Execution Control
//! Unit, packaged as a [`RuntimePolicy`] for the simulator.
//!
//! It is also the one trigger-time pipeline of the online baselines of
//! Section 5, which the paper defines by the mechanism each changes:
//! [`MrtsConfig::rispp_like`] swaps the profit function and drops the
//! monoCG-Extension, [`MrtsConfig::online_optimal`] swaps the search.

use crate::ecu::{self, EcuConfig};
use crate::memo::{self, SelectionMemo};
use crate::mpu::Mpu;
use crate::optimal::dp_optimal_selection;
use crate::profit::{ExpectedProfitEval, ProfitEvalBuffers};
use crate::selector::{ProfitFn, Selection, SelectorConfig, SelectorScratch};
use mrts_arch::{Cycles, FabricKind, ReconfigurationController, Resources};
use mrts_ise::{BlockId, Ise, IseId, KernelId, TriggerBlock, TriggerInstruction, UnitId};
use mrts_sim::{BlockPlan, ExecContext, ExecPlan, RuntimePolicy, SelectionContext};
use mrts_workload::KernelActivity;

/// Configuration of the full run-time system. The defaults reproduce the
/// paper's setup; the flags exist for the ablation benches, and the
/// presets [`MrtsConfig::rispp_like`] and [`MrtsConfig::online_optimal`]
/// are the Section 5 online baselines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MrtsConfig {
    /// Learning rate of the MPU's error back-propagation.
    pub mpu_alpha: f64,
    /// Whether the MPU corrects the compile-time forecasts at all.
    pub use_mpu: bool,
    /// How the selection searches the candidates.
    pub search: Search,
    /// What the selection maximises.
    pub profit: Profit,
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
}

/// How a trigger's selection searches the candidate ISEs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Search {
    /// The greedy O(N·M) heuristic of Fig. 6 (mRTS, RISPP-like).
    Greedy,
    /// The exact optimum of the additive profit objective by dynamic
    /// programming over the resource budget
    /// ([`dp_optimal_selection`]). It reports no decision cycles: the
    /// paper uses it only to grade the heuristic (Fig. 9).
    BudgetDp,
}

/// The profit a selection maximises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profit {
    /// Eqs. 1–4: the availability-aware expected profit of mRTS.
    Eq4,
    /// RISPP's FG-tuned cost model \[6\]: an FG bitstream only pays off
    /// over a long horizon, so a candidate is ranked by its asymptotic
    /// benefit `e × (risc − full latency)`. Reconfiguration latencies
    /// count as one uniform (ms-scale) constant that cancels out, so the
    /// µs-scale availability of CG units and the state of the
    /// configuration ports are invisible to it, and quickly available
    /// CG/MG trade-offs are under-valued — the failure mode Section 1
    /// describes. Execution keeps real hardware timing; only the decision
    /// model is distorted.
    Rispp,
}

impl Default for MrtsConfig {
    fn default() -> Self {
        MrtsConfig {
            mpu_alpha: 0.5,
            use_mpu: true,
            search: Search::Greedy,
            profit: Profit::Eq4,
            selector: SelectorConfig::default(),
            ecu: EcuConfig::default(),
            hide_overhead: true,
        }
    }
}

impl MrtsConfig {
    /// The RISPP-like run-time system (Bauer et al., DATE 2008 — reference
    /// \[6\]), extended to place data paths on CG fabric as the paper's
    /// comparison does: mRTS's greedy block-level loop, but RISPP's
    /// FG-tuned profit ([`Profit::Rispp`]) and no monoCG-Extension, an
    /// mRTS novelty.
    #[must_use]
    pub fn rispp_like() -> Self {
        MrtsConfig {
            profit: Profit::Rispp,
            ecu: EcuConfig { use_mono_cg: false },
            ..MrtsConfig::default()
        }
    }

    /// The online-optimal reference of Fig. 9: mRTS with the exact
    /// per-trigger optimum ([`Search::BudgetDp`]) in place of the greedy
    /// heuristic, so the comparison isolates the search alone.
    #[must_use]
    pub fn online_optimal() -> Self {
        MrtsConfig {
            search: Search::BudgetDp,
            ..MrtsConfig::default()
        }
    }
}

/// The trigger-time fabric account of the [`Mrts`] pipeline: what the
/// fabric holds, what a block may reclaim, the selection budget and, once
/// the selector has chosen, the monoCG pre-loads and the eviction list.
/// Every preset (mRTS, RISPP-like, online-optimal) keeps one around its
/// selector, so the presets differ in selection alone (Section 5). The
/// policy owns it across triggers, so steady-state accounting allocates
/// nothing.
#[derive(Debug, Clone, Default)]
struct FabricAccount {
    /// The forecast block's kernels.
    kernels: Vec<KernelId>,
    /// Loaded ids present on the fabric, resident or streaming, ascending.
    present: Vec<u64>,
    /// The machine's free fabric.
    free: Resources,
    /// The machine's capacity (working containers).
    capacity: Resources,
    /// Present catalogue units of kernels outside the forecast, ascending:
    /// what the block may reclaim. Ids outside the catalogue belong to
    /// other tasks sharing the fabric: they occupy slots but are not ours
    /// to evict.
    evictable: Vec<UnitId>,
    /// The selection budget of the open trigger.
    budget: Resources,
}

impl FabricAccount {
    /// Takes stock of the fabric in one walk of each: every id it holds,
    /// resident or streaming, ascending, the free fabric and the capacity.
    /// The memo key, [`FabricAccount::open`] and [`FabricAccount::close`]
    /// read this stock.
    fn take_stock(&mut self, ctx: &SelectionContext<'_>) {
        let present = &mut self.present;
        present.clear();
        let (fg_free, fg_working) = ctx.machine.fg().take_stock(|id| present.push(id));
        let (cg_free, cg_working) = ctx.machine.cg().take_stock(|id| present.push(id));
        present.sort_unstable();
        self.free = Resources::new(cg_free, fg_free);
        self.capacity = Resources::new(cg_working, fg_working);
    }

    /// Opening step, before selection: accounts the stock
    /// [`FabricAccount::take_stock`] took for `forecast` and returns the
    /// selection budget, the free fabric plus the evictable units. A
    /// tenant's share of a shared fabric is its machine's capacity, so the
    /// budget never exceeds it.
    fn open(&mut self, ctx: &SelectionContext<'_>, forecast: &TriggerBlock) -> Resources {
        self.kernels.clear();
        self.kernels.extend(forecast.iter().map(|t| t.kernel));
        let kernels = &self.kernels;
        self.evictable.clear();
        self.evictable.extend(
            self.present
                .iter()
                .map(|&id| UnitId::from_loaded_id(id))
                .filter(|&u| {
                    ctx.catalog
                        .unit_checked(u)
                        .is_some_and(|unit| !kernels.contains(&unit.kernel()))
                }),
        );
        let evictable: Resources = self
            .evictable
            .iter()
            .map(|&u| ctx.catalog.unit(u).resources())
            .sum();
        self.budget = self.free + evictable;
        self.budget
    }

    /// Closing step, after selection: completes the block plan whose
    /// selector chose `choices` and queued `load_order`.
    ///
    /// When `ecu` allows monoCG-Extensions, the CG budget the selection
    /// left over pre-loads them (the ECU's bridging hoisted to block start:
    /// a context program loads in µs, so streaming it right away equals the
    /// ECU requesting it at the first execution, but it also works when the
    /// selection consumed every slot the ECU would have found free later).
    /// Kernels are served in forecast order: first those left entirely in
    /// RISC mode, then those whose selected ISE still waits on FG stages.
    ///
    /// `evict` receives, in ascending unit order, just the evictable units
    /// the plan's loads displace.
    fn close(
        &self,
        ctx: &SelectionContext<'_>,
        choices: &[(KernelId, Option<IseId>)],
        ecu: &EcuConfig,
        load_order: &mut Vec<UnitId>,
        evict: &mut Vec<UnitId>,
    ) {
        let demand = |units: &[UnitId]| -> Resources {
            units.iter().map(|&u| ctx.catalog.unit(u).resources()).sum()
        };
        if ecu.use_mono_cg {
            let present = |u: UnitId| self.present.binary_search(&u.as_loaded_id()).is_ok();
            let fg_pending = |ise: Option<IseId>| {
                ise.and_then(|id| ctx.catalog.ise(id).ok())
                    .is_some_and(|ise| {
                        ise.stages()
                            .iter()
                            .any(|s| s.fabric == FabricKind::FineGrained && !present(s.unit))
                    })
            };
            let mut leftover_cg = self.budget.cg().saturating_sub(demand(load_order).cg());
            let start = load_order.len();
            let riscs = choices.iter().filter(|(_, ise)| ise.is_none());
            let waiting = choices.iter().filter(|(_, ise)| fg_pending(*ise));
            for (kernel, _) in riscs.chain(waiting) {
                if leftover_cg == 0 {
                    break;
                }
                let Some(mono) = ctx.catalog.kernel(*kernel).ok().and_then(|k| k.mono_cg()) else {
                    continue;
                };
                if !present(mono.unit) && !load_order[start..].contains(&mono.unit) {
                    load_order.push(mono.unit);
                    leftover_cg -= 1;
                }
            }
        }

        // Evict only what the new loads actually displace.
        let need = demand(load_order);
        let mut cg_short = need.cg().saturating_sub(self.free.cg());
        let mut prc_short = need.prc().saturating_sub(self.free.prc());
        evict.clear();
        for &u in &self.evictable {
            if cg_short == 0 && prc_short == 0 {
                break;
            }
            let short = match ctx.catalog.unit(u).fabric() {
                FabricKind::CoarseGrained => &mut cg_short,
                FabricKind::FineGrained => &mut prc_short,
            };
            if *short > 0 {
                evict.push(u);
                *short -= 1;
            }
        }
    }
}

/// Stages in `out` the forecast the selector plans against:
/// `compile_time` corrected by `mpu`, or copied unchanged when the MPU is
/// disabled.
fn stage_forecast(mpu: &Mpu, use_mpu: bool, compile_time: &TriggerBlock, out: &mut TriggerBlock) {
    if use_mpu {
        mpu.correct_into(compile_time, out);
    } else {
        out.block = compile_time.block;
        out.triggers.clear();
        out.triggers.extend_from_slice(&compile_time.triggers);
    }
}

/// The profit function of [`MrtsConfig::profit`], as one [`ProfitFn`],
/// over the residency predicate `R`.
enum PolicyProfit<'a, R: Fn(UnitId) -> bool + ?Sized = dyn Fn(UnitId) -> bool + 'a> {
    /// The memoizing Eq. 1–4 evaluator.
    Eq4(ExpectedProfitEval<'a, R>),
    /// RISPP's `e × saving`; monoCG candidates score 0 unless the ECU may
    /// run them.
    Rispp { use_mono: bool },
}

impl<R: Fn(UnitId) -> bool + ?Sized> ProfitFn for PolicyProfit<'_, R> {
    fn eval(
        &mut self,
        ise: &Ise,
        trigger: &TriggerInstruction,
        shadow: &ReconfigurationController,
    ) -> f64 {
        match self {
            PolicyProfit::Eq4(eval) => eval.eval(ise, trigger, shadow),
            PolicyProfit::Rispp { use_mono } => rispp_profit(*use_mono, ise, trigger),
        }
    }

    fn invalidate(&mut self) {
        if let PolicyProfit::Eq4(eval) = self {
            eval.invalidate();
        }
    }

    /// RISPP's profit ignores the schedule, so it is its own bound.
    fn upper_bound(&mut self, ise: &Ise, trigger: &TriggerInstruction) -> Option<f64> {
        match self {
            PolicyProfit::Eq4(eval) => eval.upper_bound(ise, trigger),
            PolicyProfit::Rispp { use_mono } => Some(rispp_profit(*use_mono, ise, trigger)),
        }
    }
}

/// RISPP's profit `e × (risc − full)`, 0 for a monoCG candidate unless the
/// ECU may run it. A trigger's candidates share `e`, so it falls along the
/// selector's static rank.
fn rispp_profit(use_mono: bool, ise: &Ise, trigger: &TriggerInstruction) -> f64 {
    if !use_mono && ise.is_mono_extension() {
        return 0.0;
    }
    let saving = (ise.risc_latency() - ise.full_latency()).get() as f64;
    saving * trigger.expected_executions as f64
}

impl<'a, R: Fn(UnitId) -> bool> PolicyProfit<'a, R> {
    /// `config`'s profit function over `resident`. The Eq. 1–4 evaluator
    /// (identical profits to `expected_profit`, bit for bit) is built on
    /// `bufs`, which [`PolicyProfit::recycle`] hands back, so a policy that
    /// keeps `bufs` across triggers allocates nothing here.
    fn new(
        config: &MrtsConfig,
        ctx: &SelectionContext<'_>,
        resident: &'a R,
        bufs: &mut ProfitEvalBuffers,
    ) -> Self {
        let use_mono = config.ecu.use_mono_cg;
        match config.profit {
            Profit::Eq4 => {
                bufs.rebind_catalog(ctx.catalog);
                let eval =
                    ExpectedProfitEval::with_buffers(ctx.now, resident, std::mem::take(bufs));
                PolicyProfit::Eq4(eval.with_mono(use_mono))
            }
            Profit::Rispp => PolicyProfit::Rispp { use_mono },
        }
    }

    /// Returns the evaluator's buffers to `bufs`.
    fn recycle(self, bufs: &mut ProfitEvalBuffers) {
        if let PolicyProfit::Eq4(eval) = self {
            *bufs = eval.recycle();
        }
    }
}

/// One selection for `forecast` within `budget`, by `config`'s search.
fn select<R: Fn(UnitId) -> bool>(
    config: &MrtsConfig,
    ctx: &SelectionContext<'_>,
    forecast: &TriggerBlock,
    budget: Resources,
    resident: &R,
    profit: &mut PolicyProfit<'_, R>,
    scratch: &mut SelectorScratch,
) -> Selection {
    let controller = ctx.machine.controller();
    match config.search {
        Search::Greedy => crate::selector::select_ises_with_scratch(
            ctx.catalog,
            forecast,
            budget,
            resident,
            controller,
            ctx.now,
            &config.selector,
            profit,
            scratch,
        ),
        Search::BudgetDp => {
            dp_optimal_selection(ctx.catalog, forecast, budget, resident, controller, profit)
        }
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
    /// Recycled plan buffers (see [`RuntimePolicy::recycle_plan`]): the
    /// eviction list handed out with each [`BlockPlan`] returns here once
    /// the engine has applied it, so steady-state planning reuses its
    /// capacity instead of allocating per block.
    evict_buf: Vec<UnitId>,
    /// The trigger-time fabric account (steps 2 and 4).
    account: FabricAccount,
    /// The selector's reusable working-set arena (candidate list, cursor
    /// runs, shadow controller, the static rank with its demand cache …).
    sel_scratch: crate::selector::SelectorScratch,
    /// The profit evaluator's reusable buffers (the port-state memo, the
    /// wide-ISE walk scratch and the bound table).
    profit_bufs: ProfitEvalBuffers,
    /// Reusable MPU-corrected forecast for the current block.
    forecast_buf: mrts_ise::TriggerBlock,
    /// The shared selection memo, if one is attached
    /// ([`Mrts::with_memo`]).
    memo: Option<SelectionMemo>,
    /// Reusable memo key of the current trigger.
    memo_key: Vec<u64>,
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
            evict_buf: Vec::new(),
            account: FabricAccount::default(),
            sel_scratch: crate::selector::SelectorScratch::new(),
            profit_bufs: ProfitEvalBuffers::default(),
            forecast_buf: mrts_ise::TriggerBlock::new(mrts_ise::BlockId(0), Vec::new()),
            memo: None,
            memo_key: Vec::new(),
        }
    }

    /// Attaches a shared, exact [`SelectionMemo`] (builder form): a
    /// trigger whose selection input equals one the memo holds reuses the
    /// stored plan instead of selecting, with the same plan, the same
    /// timeline charge and the same [`Mrts::avg_selection_cycles_per_kernel`]
    /// as a fresh selection. Worth it only where triggers repeat across
    /// policies sharing the memo, as a fleet's sessions of one
    /// application do.
    #[must_use]
    pub fn with_memo(mut self, memo: SelectionMemo) -> Self {
        self.memo = Some(memo);
        self
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &MrtsConfig {
        &self.config
    }

    /// Read access to the MPU.
    #[cfg(test)]
    fn mpu(&self) -> &Mpu {
        &self.mpu
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

    /// Steps 2–4 for the staged `forecast` over the stock the account
    /// took: open the fabric account, select, close. Returns the plan,
    /// its overhead still zero, and the selection's computed cycles.
    fn select_fresh(
        &mut self,
        ctx: &SelectionContext<'_>,
        forecast: &TriggerBlock,
    ) -> (BlockPlan, Cycles) {
        // 2. Fabric status: units of kernels outside this block are
        //    evictable; their slots extend the selector's budget. A
        //    container lost to a permanent fault has already left the
        //    machine, so fault recovery is plain re-selection.
        let budget = self.account.open(ctx, forecast);

        // 3. The selection: the greedy heuristic (Fig. 6) or the exact
        //    optimum. Residency at `now` is the engine's block-start
        //    capture; each probe is an inlined bit test.
        let resident = |u: UnitId| ctx.is_resident(u);
        let mut profit = PolicyProfit::new(&self.config, ctx, &resident, &mut self.profit_bufs);
        let selection = select(
            &self.config,
            ctx,
            forecast,
            budget,
            &resident,
            &mut profit,
            &mut self.sel_scratch,
        );
        profit.recycle(&mut self.profit_bufs);
        self.sel_scratch.reclaim_selected(selection.selected);

        // 4. Pre-load monoCG-Extensions with the leftover CG budget and
        //    evict only what the new loads actually displace.
        let mut load_order = selection.load_order;
        let mut evict = std::mem::take(&mut self.evict_buf);
        self.account.close(
            ctx,
            &selection.choices,
            &self.config.ecu,
            &mut load_order,
            &mut evict,
        );
        let plan = BlockPlan {
            selections: selection.choices,
            evict,
            load_order,
            overhead: Cycles::ZERO,
        };
        (plan, selection.overhead_cycles)
    }

    /// A plan on the recycled buffers, for a memo hit to refill.
    fn spare_plan(&mut self) -> BlockPlan {
        let (selections, load_order) = self.sel_scratch.take_plan_buffers();
        BlockPlan {
            selections,
            evict: std::mem::take(&mut self.evict_buf),
            load_order,
            overhead: Cycles::ZERO,
        }
    }

    /// Debug builds check every memo hit: a fresh selection must give the
    /// stored plan and computed cycles, and with them the same counters.
    #[cfg(debug_assertions)]
    fn verify_hit(
        &mut self,
        ctx: &SelectionContext<'_>,
        forecast: &TriggerBlock,
        plan: &BlockPlan,
        computed: Cycles,
    ) {
        let (fresh, fresh_computed) = self.select_fresh(ctx, forecast);
        assert_eq!(
            (plan, computed),
            (&fresh, fresh_computed),
            "memo hit differs from a fresh selection of {}",
            forecast.block
        );
        self.recycle_plan(fresh);
    }
}

impl Default for Mrts {
    fn default() -> Self {
        Self::new()
    }
}

impl RuntimePolicy for Mrts {
    fn name(&self) -> String {
        match (self.config.search, self.config.profit) {
            (Search::Greedy, Profit::Eq4) => "mRTS",
            (Search::Greedy, Profit::Rispp) => "RISPP-like",
            (Search::BudgetDp, Profit::Eq4) => "online-optimal",
            (Search::BudgetDp, Profit::Rispp) => "RISPP-like online-optimal",
        }
        .into()
    }

    fn plan_block(&mut self, ctx: &SelectionContext<'_>) -> BlockPlan {
        // No working container — a tenant at the degradation ladder's floor
        // (its machine resized to nothing) or a zero-fabric machine — means
        // this block runs pure RISC. Selecting against an empty budget
        // cannot choose anything, so skip the selector entirely: the tenant
        // sheds the decision overhead along with the speedup.
        self.account.take_stock(ctx);
        if self.account.capacity.is_empty() {
            self.blocks_planned += 1;
            return BlockPlan {
                selections: ctx.forecast.iter().map(|t| (t.kernel, None)).collect(),
                evict: Vec::new(),
                load_order: Vec::new(),
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
        stage_forecast(&self.mpu, self.config.use_mpu, ctx.forecast, &mut forecast);

        // 2.–4. The selection plan: from the memo when it holds this
        //    trigger's input, else selected afresh (and stored).
        let hide = self.config.hide_overhead && self.blocks_planned > 0;
        let memo = self.memo.take();
        let (mut plan, computed) = match &memo {
            Some(memo) if memo.serves(&self.config, ctx.catalog) => {
                let stock = (
                    &self.account.present[..],
                    self.account.free,
                    self.account.capacity,
                );
                memo::write_key(&mut self.memo_key, ctx, &forecast, stock, hide);
                let mut plan = self.spare_plan();
                if let Some(computed) = memo.lookup(&self.memo_key, &mut plan) {
                    #[cfg(debug_assertions)]
                    self.verify_hit(ctx, &forecast, &plan, computed);
                    (plan, computed)
                } else {
                    self.recycle_plan(plan);
                    let (plan, computed) = self.select_fresh(ctx, &forecast);
                    memo.insert(&self.memo_key, &plan, computed);
                    (plan, computed)
                }
            }
            _ => self.select_fresh(ctx, &forecast),
        };
        self.memo = memo;

        // 5. Overhead accounting (Section 5.4): the computation after the
        //    first per-kernel selection overlaps the reconfiguration it
        //    already launched.
        let kernels = forecast.kernel_count().max(1) as u64;
        plan.overhead = if hide {
            Cycles::new(computed.get() / kernels)
        } else {
            computed
        };
        self.blocks_planned += 1;
        self.total_selection_cycles += computed.get();
        self.total_kernels_selected += kernels;
        self.forecast_buf = forecast;
        plan
    }

    fn plan_execution(
        &mut self,
        kernel: KernelId,
        selected: Option<IseId>,
        ctx: &ExecContext<'_>,
    ) -> ExecPlan {
        ecu::plan_execution(kernel, selected, ctx, &self.config.ecu)
    }

    fn observe_block_end(&mut self, _block: mrts_ise::BlockId, observed: &[KernelActivity]) {
        if self.config.use_mpu {
            self.mpu.observe(observed);
        }
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
        self.sel_scratch.reclaim(plan.selections, plan.load_order);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::{Selection, SelectorConfig};
    use mrts_arch::{ArchParams, Machine};
    use mrts_ise::{TriggerBlock, TriggerInstruction};
    use mrts_sim::{ExecClass, ResidentSet, RiscOnlyPolicy, Simulator};
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
    fn evicting_mrts_never_rejects_a_load_on_a_two_slot_machine() {
        // One-kernel toy on a single PRC and a single EDPE: every plan
        // must fit in two slots, so the account has to free exactly what
        // each block's loads displace.
        let (catalog, trace) = toy(Pattern::Constant(3_000), 3);
        let stats = Simulator::run(&catalog, machine(1, 1), &trace, &mut Mrts::new());
        assert_eq!(stats.rejected_loads, 0, "eviction must make room");
    }

    #[test]
    fn account_reclaims_only_non_forecast_catalogue_units() {
        let fft = mrts_ingest::model("fft").expect("builtin fft lowers");
        let catalog = fft
            .application()
            .build_catalog(ArchParams::default(), None)
            .unwrap();
        let (kept, other) = (KernelId(0), KernelId(1));
        let cg_units = |k: KernelId| {
            catalog
                .units()
                .iter()
                .filter(move |u| u.kernel() == k && u.fabric() == FabricKind::CoarseGrained)
                .map(|u| u.id())
        };
        let kept_unit = cg_units(kept).next().unwrap();
        let other_unit = cg_units(other).next().unwrap();
        let foreign = catalog.units().len() as u64 + 7;

        // Three CG slots, all taken: a foreign id and a unit of the
        // forecast kernel, both resident by `now`, and a unit of the other
        // kernel still streaming at `now`.
        let params = ArchParams {
            cg_contexts_per_edpe: 1,
            ..ArchParams::default()
        };
        let mut m = Machine::new(params, Resources::new(3, 1)).unwrap();
        m.load_cg(Cycles::ZERO, foreign, 16).unwrap();
        m.load_cg(Cycles::ZERO, kept_unit.as_loaded_id(), 16)
            .unwrap();
        let now = Cycles::new(1_000_000);
        m.load_cg(now, other_unit.as_loaded_id(), 16).unwrap();
        assert!(!m.is_resident(other_unit.as_loaded_id(), now));
        let mut resident = ResidentSet::default();
        resident.capture(&m, now, catalog.units().len());
        let forecast = TriggerBlock::new(
            BlockId(0),
            vec![TriggerInstruction::new(
                kept,
                100,
                Cycles::new(1_000),
                Cycles::new(300),
            )],
        );
        let ctx = SelectionContext {
            now,
            catalog: &catalog,
            machine: &m,
            forecast: &forecast,
            resident: &resident,
        };

        let mut account = FabricAccount::default();
        account.take_stock(&ctx);
        let budget = account.open(&ctx, &forecast);
        assert_eq!(account.evictable, vec![other_unit]);
        assert_eq!(
            budget,
            Resources::new(1, 1),
            "free PRC + the evictable EDPE"
        );

        // The eviction list frees exactly the shortfall, per fabric.
        let no_mono = EcuConfig { use_mono_cg: false };
        let choices = [(kept, None)];
        let mut evict = vec![UnitId(99)];
        let (mut none, mut one_cg) = (Vec::new(), vec![kept_unit]);
        account.close(&ctx, &choices, &no_mono, &mut none, &mut evict);
        assert!(evict.is_empty());
        account.close(&ctx, &choices, &no_mono, &mut one_cg, &mut evict);
        assert_eq!(evict, [other_unit]);
        // A PRC short never evicts an EDPE.
        let mut two_fg: Vec<UnitId> = catalog
            .units()
            .iter()
            .filter(|u| u.fabric() == FabricKind::FineGrained)
            .map(|u| u.id())
            .take(2)
            .collect();
        account.close(&ctx, &choices, &no_mono, &mut two_fg, &mut evict);
        assert!(evict.is_empty());

        // With monoCG on, the leftover CG slot pre-loads the RISC-mode
        // kernel's extension, which displaces the same unit.
        let mono = catalog.kernel(kept).unwrap().mono_cg().unwrap().unit;
        let mut load_order = Vec::new();
        account.close(
            &ctx,
            &choices,
            &EcuConfig::default(),
            &mut load_order,
            &mut evict,
        );
        assert_eq!(budget.cg(), 1);
        assert_eq!((load_order, evict), (vec![mono], vec![other_unit]));
    }

    #[test]
    fn zero_fabric_fast_path_runs_risc_and_charges_no_overhead() {
        let (catalog, trace) = toy(Pattern::Constant(1_000), 3);
        // monoCG stays enabled: a machine with no working container must
        // suppress it on its own, without the ablation flag's help.
        let mut mrts = Mrts::new();
        let stats = Simulator::run(&catalog, machine(0, 0), &trace, &mut mrts);
        let h = stats.class_histogram();
        assert_eq!(h.get(&ExecClass::RiscMode).copied().unwrap_or(0), 3_000);
        assert_eq!(h.len(), 1, "{h:?}");
        // The selector never ran: zero decision overhead on the timeline.
        assert_eq!(stats.total_overhead(), Cycles::ZERO);
        assert_eq!(mrts.avg_selection_cycles_per_kernel(), 0.0);
    }

    #[test]
    fn presets_keep_their_policy_names() {
        assert_eq!(Mrts::new().name(), "mRTS");
        assert_eq!(
            Mrts::with_config(MrtsConfig::rispp_like()).name(),
            "RISPP-like"
        );
        assert_eq!(
            Mrts::with_config(MrtsConfig::online_optimal()).name(),
            "online-optimal"
        );
    }

    #[test]
    fn rispp_beats_risc_mode() {
        let (catalog, trace) = toy(Pattern::Constant(2_000), 6);
        let mut rispp = Mrts::with_config(MrtsConfig::rispp_like());
        let rispp = Simulator::run(&catalog, machine(2, 2), &trace, &mut rispp);
        let risc = Simulator::run(&catalog, machine(2, 2), &trace, &mut RiscOnlyPolicy::new());
        assert!(rispp.total_execution_time() < risc.total_execution_time());
    }

    #[test]
    fn rispp_never_uses_mono_cg() {
        let (catalog, trace) = toy(Pattern::Constant(2_000), 6);
        let mut rispp = Mrts::with_config(MrtsConfig::rispp_like());
        let stats = Simulator::run(&catalog, machine(2, 2), &trace, &mut rispp);
        assert_eq!(
            stats.class_histogram().get(&ExecClass::MonoCg),
            None,
            "RISPP has no monoCG-Extension"
        );
    }

    #[test]
    fn rispp_like_on_an_empty_machine_is_risc_only() {
        let (catalog, trace) = toy(Pattern::Constant(1_000), 3);
        let mut rispp = Mrts::with_config(MrtsConfig::rispp_like());
        let rispp = Simulator::run(&catalog, machine(0, 0), &trace, &mut rispp);
        let risc = Simulator::run(&catalog, machine(0, 0), &trace, &mut RiscOnlyPolicy::new());
        assert_eq!(rispp.total_execution_time(), risc.total_execution_time());
        assert_eq!(rispp.total_overhead(), Cycles::ZERO);
    }

    #[test]
    fn mrts_at_least_matches_rispp_with_cg_fabric() {
        let (catalog, trace) = toy(Pattern::Constant(2_000), 6);
        let mut rispp = Mrts::with_config(MrtsConfig::rispp_like());
        let rispp = Simulator::run(&catalog, machine(2, 2), &trace, &mut rispp);
        let mrts = Simulator::run(&catalog, machine(2, 2), &trace, &mut Mrts::new());
        assert!(
            mrts.total_execution_time() <= rispp.total_execution_time(),
            "mRTS {} vs RISPP {}",
            mrts.total_execution_time(),
            rispp.total_execution_time()
        );
    }

    #[test]
    fn similar_to_mrts_on_fg_only_machine() {
        // Section 5.2: "RISPP and our approach perform similar when no
        // CG-EDPEs are available".
        let (catalog, trace) = toy(Pattern::Constant(2_000), 6);
        let mut rispp = Mrts::with_config(MrtsConfig::rispp_like());
        let rispp = Simulator::run(&catalog, machine(0, 3), &trace, &mut rispp);
        let mrts = Simulator::run(&catalog, machine(0, 3), &trace, &mut Mrts::new());
        let ratio =
            rispp.total_execution_time().get() as f64 / mrts.total_execution_time().get() as f64;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "FG-only machines should give near-identical results, ratio {ratio}"
        );
    }

    #[test]
    fn online_optimal_at_least_matches_mrts_on_h264() {
        let enc = mrts_ingest::model("h264").expect("builtin h264 lowers");
        let catalog = enc
            .application()
            .build_catalog(ArchParams::default(), None)
            .unwrap();
        let trace = TraceBuilder::new(&enc).build();
        let mut optimal = Mrts::with_config(MrtsConfig::online_optimal());
        let opt = Simulator::run(&catalog, machine(2, 2), &trace, &mut optimal);
        let mrts = Simulator::run(&catalog, machine(2, 2), &trace, &mut Mrts::new());
        // Selection optimality must not lose to the greedy heuristic by
        // more than a whisker (scheduling noise aside); Fig. 9 reports the
        // gap from the other side.
        let gap = mrts.total_busy().get() as f64 / opt.total_busy().get() as f64;
        assert!(gap >= 0.97, "optimal should not be slower: {gap}");
    }

    #[test]
    fn online_optimal_runs_on_toy_trace() {
        let (catalog, trace) = toy(Pattern::Constant(1_000), 3);
        let mut optimal = Mrts::with_config(MrtsConfig::online_optimal());
        let stats = Simulator::run(&catalog, machine(1, 1), &trace, &mut optimal);
        assert_eq!(stats.total_executions(), 3_000);
        // The optimum is a quality reference: no decision cycles charged.
        assert_eq!(stats.total_overhead(), Cycles::ZERO);
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

    /// RISPP's profit ignores the schedule, so its bound is the profit
    /// itself. Along the selector's static rank (per-execution saving
    /// `risc − full` descending, then `IseId` ascending) its positive
    /// bounds for one trigger never rise, and equal ones come in `IseId`
    /// order. Checked for every kernel of the six builtin catalogues, at
    /// small and huge execution counts, with monoCG candidates allowed and
    /// disallowed.
    #[test]
    fn rispp_bound_is_its_profit_and_follows_the_static_rank() {
        let shadow = ReconfigurationController::new();
        for app in mrts_ingest::BUILTIN_APPS {
            let catalog = mrts_ingest::model(app)
                .expect("builtin lowers")
                .application()
                .build_catalog(ArchParams::default(), None)
                .expect("builtin catalogue builds");
            for kernel in catalog.kernels() {
                let mut rank: Vec<&Ise> = catalog
                    .ises_of(kernel.id())
                    .iter()
                    .map(|&id| catalog.ise(id).expect("dense ids"))
                    .collect();
                rank.sort_by(|a, b| {
                    let saving = |i: &Ise| i.risc_latency() - i.full_latency();
                    saving(b).cmp(&saving(a)).then(a.id().cmp(&b.id()))
                });
                for use_mono in [true, false] {
                    let mut profit: PolicyProfit = PolicyProfit::Rispp { use_mono };
                    for e in [0, 1, 3, 4_000, 30_000, 1 << 40, (1 << 50) + 7, u64::MAX] {
                        let trigger = TriggerInstruction::new(
                            kernel.id(),
                            e,
                            Cycles::new(500),
                            Cycles::new(200),
                        );
                        let mut last: Option<(f64, &Ise)> = None;
                        for &ise in &rank {
                            let bound = profit.upper_bound(ise, &trigger).expect("RISPP bounds");
                            let eval = profit.eval(ise, &trigger, &shadow);
                            assert_eq!(bound.to_bits(), eval.to_bits(), "{}", ise.label());
                            if bound <= 0.0 {
                                continue;
                            }
                            if let Some((hi, a)) = last {
                                assert!(
                                    bound < hi || (bound == hi && a.id() < ise.id()),
                                    "{app} {}: e = {e}, {} bound {hi} ranks before {} bound {bound}",
                                    kernel.name(),
                                    a.label(),
                                    ise.label()
                                );
                            }
                            last = Some((bound, ise));
                        }
                    }
                }
            }
        }
    }

    /// RISPP-like's selection on the block of the selector's pinned
    /// evaluation counts (`tests/selector_equivalence.rs`): the first
    /// seven H.264 kernels at 4 000 executions each, cold on 4 CG + 3 PRC.
    /// The lazy path equals the full-rescan oracle on every field but
    /// `candidates_evaluated`. The bound keys the runs and equals the
    /// profit, so the lazy path evaluates only each round's winner: 2
    /// candidates for its 2 commits. The oracle and the cost model count
    /// 222.
    #[test]
    fn rispp_like_selection_equals_the_oracle_and_its_evaluations_are_pinned() {
        let catalog = mrts_ingest::model("h264")
            .expect("builtin h264 lowers")
            .application()
            .build_catalog(ArchParams::default(), None)
            .unwrap();
        let forecast = TriggerBlock::new(
            mrts_ise::BlockId(0),
            catalog
                .kernels()
                .iter()
                .take(7)
                .map(|k| {
                    TriggerInstruction::new(k.id(), 4_000, Cycles::new(1_000), Cycles::new(300))
                })
                .collect(),
        );
        let none = |_: UnitId| false;
        let rc = ReconfigurationController::new();
        let run = |full_rescan| {
            let mut rispp: PolicyProfit = PolicyProfit::Rispp { use_mono: false };
            crate::selector::select_ises_with(
                &catalog,
                &forecast,
                Resources::new(4, 3),
                &none,
                &rc,
                Cycles::ZERO,
                &SelectorConfig { full_rescan },
                &mut rispp,
            )
        };
        let (lazy, oracle) = (run(false), run(true));
        assert_eq!(
            Selection {
                candidates_evaluated: oracle.candidates_evaluated,
                ..lazy.clone()
            },
            oracle
        );
        assert_eq!(lazy.selected.len(), 2);
        assert_eq!(
            lazy.candidates_evaluated, 2,
            "RISPP-like's lazy evaluations moved"
        );
        assert_eq!(oracle.candidates_evaluated, 222);
        assert_eq!(lazy.modeled_evaluations, 222);
    }
}
