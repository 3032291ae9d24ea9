//! Tracing from outside the crates: wrappers around the public
//! `RuntimePolicy`, `ProfitFn` and `EventSink` traits that time and count
//! the calls the simulator makes into `core` and the event spine.

use std::collections::HashSet;
use std::time::Instant;

use mrts_arch::{Cycles, ReconfigurationController, Resources};
use mrts_core::profit::ExpectedProfitEval;
use mrts_core::selector::{select_ises_with, ProfitFn, SelectorConfig};
use mrts_core::MrtsConfig;
use mrts_ise::{BlockId, Ise, IseId, KernelId, TriggerInstruction, UnitId};
use mrts_sim::{
    BlockPlan, EventSink, ExecContext, ExecPlan, FaultEvent, RuntimePolicy, SelectionContext,
    SimEvent,
};
use mrts_workload::KernelActivity;

use crate::util::ns_since;

/// Host time and call counts of the policy callbacks within one
/// repetition. `step_*` fields cover the current `step_activation` only and
/// are reset by the benchmark loop before each step.
#[derive(Debug, Default, Clone)]
pub struct PolicyTimes {
    pub plan_ns: Vec<u64>,
    pub exec_calls: u64,
    pub exec_ns: u64,
    pub observe_calls: u64,
    pub observe_ns: u64,
    pub step_callback_ns: u64,
    pub step_shadow_ns: u64,
}

/// A `RuntimePolicy` that forwards every method to `inner` and times
/// `plan_block`, `plan_execution` and `observe_block_end`. With a shadow
/// selector armed, each trigger is also replayed through the selector
/// (time kept apart, see [`ShadowSelector`]).
#[derive(Debug)]
pub struct TimedPolicy<P> {
    pub inner: P,
    pub times: PolicyTimes,
    pub shadow: Option<ShadowSelector>,
}

impl<P: RuntimePolicy> TimedPolicy<P> {
    pub fn new(inner: P, shadow: Option<ShadowSelector>) -> Self {
        TimedPolicy {
            inner,
            times: PolicyTimes::default(),
            shadow,
        }
    }
}

impl<P: RuntimePolicy> RuntimePolicy for TimedPolicy<P> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn plan_block(&mut self, ctx: &SelectionContext<'_>) -> BlockPlan {
        if let Some(shadow) = &mut self.shadow {
            let t = Instant::now();
            shadow.replay(ctx);
            self.times.step_shadow_ns += ns_since(t);
        }
        let t = Instant::now();
        let plan = self.inner.plan_block(ctx);
        let dt = ns_since(t);
        self.times.plan_ns.push(dt);
        self.times.step_callback_ns += dt;
        plan
    }

    fn plan_execution(
        &mut self,
        kernel: KernelId,
        selected: Option<IseId>,
        ctx: &ExecContext<'_>,
    ) -> ExecPlan {
        let t = Instant::now();
        let plan = self.inner.plan_execution(kernel, selected, ctx);
        let dt = ns_since(t);
        self.times.exec_calls += 1;
        self.times.exec_ns += dt;
        self.times.step_callback_ns += dt;
        plan
    }

    fn observe_block_end(&mut self, block: BlockId, observed: &[KernelActivity]) {
        let t = Instant::now();
        self.inner.observe_block_end(block, observed);
        let dt = ns_since(t);
        self.times.observe_calls += 1;
        self.times.observe_ns += dt;
        self.times.step_callback_ns += dt;
    }

    fn notify_fault(&mut self, event: &FaultEvent) {
        self.inner.notify_fault(event);
    }

    fn set_resource_slice(&mut self, slice: Option<Resources>) {
        self.inner.set_resource_slice(slice);
    }

    fn recycle_plan(&mut self, plan: BlockPlan) {
        self.inner.recycle_plan(plan);
    }
}

/// A `ProfitFn` that counts (and optionally times) every evaluation of the
/// wrapped evaluator.
pub struct CountingProfit<'a> {
    inner: ExpectedProfitEval<'a>,
    timed: bool,
    pub evals: u64,
    pub ns: u64,
}

impl ProfitFn for CountingProfit<'_> {
    fn eval(
        &mut self,
        ise: &Ise,
        trigger: &TriggerInstruction,
        shadow: &ReconfigurationController,
    ) -> f64 {
        self.evals += 1;
        if self.timed {
            let t = Instant::now();
            let p = self.inner.eval(ise, trigger, shadow);
            self.ns += ns_since(t);
            p
        } else {
            self.inner.eval(ise, trigger, shadow)
        }
    }

    fn invalidate(&mut self) {
        self.inner.invalidate();
    }

    fn upper_bound(&mut self, ise: &Ise, trigger: &TriggerInstruction) -> Option<f64> {
        self.inner.upper_bound(ise, trigger)
    }
}

/// Replays every trigger through `select_ises_with` on the same catalogue,
/// forecast, controller and `now` the policy saw, with a counting profit
/// evaluator. An approximation of mRTS's own selection: it uses the raw
/// compile-time forecast, not the MPU-corrected one.
///
/// It also tracks how often a trigger's `SelectionContext` inputs (block,
/// forecast, resident units, free and total capacity) exactly repeat an
/// earlier trigger's — the headroom of a selection memo.
#[derive(Debug)]
pub struct ShadowSelector {
    config: SelectorConfig,
    use_mono: bool,
    seen: HashSet<Vec<u64>>,
    key: Vec<u64>,
    pub triggers: u64,
    pub repeats: u64,
    pub select_ns: Vec<u64>,
    pub evals: u64,
    pub profit_evals_timed: u64,
    pub profit_ns: u64,
    /// Selections whose counted evaluations disagreed with the selector's
    /// own `candidates_evaluated` (a self-check; must stay 0).
    pub eval_mismatches: u64,
}

impl ShadowSelector {
    pub fn new() -> Self {
        let cfg = MrtsConfig::default();
        ShadowSelector {
            config: cfg.selector,
            use_mono: cfg.ecu.use_mono_cg,
            seen: HashSet::new(),
            key: Vec::new(),
            triggers: 0,
            repeats: 0,
            select_ns: Vec::new(),
            evals: 0,
            profit_evals_timed: 0,
            profit_ns: 0,
            eval_mismatches: 0,
        }
    }

    /// Counts a trigger and whether its inputs repeat an earlier one's.
    fn note_trigger(&mut self, ctx: &SelectionContext<'_>) {
        let key = &mut self.key;
        key.clear();
        key.push(u64::from(ctx.forecast.block.index()));
        for t in ctx.forecast.iter() {
            key.extend([
                u64::from(t.kernel.index()),
                t.expected_executions,
                t.time_to_first.get(),
                t.time_between.get(),
            ]);
        }
        key.push(u64::MAX);
        let start = key.len();
        ctx.machine
            .fg()
            .for_each_resident_id(ctx.now, |id| key.push(id));
        ctx.machine
            .cg()
            .for_each_resident_id(ctx.now, |id| key.push(id));
        key[start..].sort_unstable();
        key.push(u64::MAX);
        let free = ctx.machine.free_resources();
        let cap = ctx.machine.capacity();
        key.extend([
            u64::from(free.cg()),
            u64::from(free.prc()),
            u64::from(cap.cg()),
            u64::from(cap.prc()),
        ]);
        self.triggers += 1;
        if self.seen.contains(&self.key) {
            self.repeats += 1;
        } else {
            self.seen.insert(self.key.clone());
        }
    }

    fn replay(&mut self, ctx: &SelectionContext<'_>) {
        self.note_trigger(ctx);
        // The selector's budget as mRTS derives it: free fabric plus the
        // units of kernels outside this block.
        let forecast_kernels: Vec<KernelId> = ctx.forecast.iter().map(|t| t.kernel).collect();
        let mut evictable = Resources::NONE;
        let mut add = |id: u64| {
            if let Some(unit) = ctx.catalog.unit_checked(UnitId::from_loaded_id(id)) {
                if !forecast_kernels.contains(&unit.kernel()) {
                    evictable += unit.resources();
                }
            }
        };
        ctx.machine.fg().for_each_resident_id(Cycles::MAX, &mut add);
        ctx.machine.cg().for_each_resident_id(Cycles::MAX, &mut add);
        let budget = ctx.machine.free_resources() + evictable;
        let resident = |u: UnitId| ctx.machine.is_resident(u.as_loaded_id(), ctx.now);

        // Pass 1 times the selector with counting-only evaluations; pass 2
        // times each evaluation. Both are excluded from `plan_block` time.
        for timed in [false, true] {
            let mut profit = CountingProfit {
                inner: ExpectedProfitEval::new(ctx.now, &resident).with_mono(self.use_mono),
                timed,
                evals: 0,
                ns: 0,
            };
            let t = Instant::now();
            let sel = select_ises_with(
                ctx.catalog,
                ctx.forecast,
                budget,
                &resident,
                ctx.machine.controller(),
                ctx.now,
                &self.config,
                &mut profit,
            );
            let dt = ns_since(t);
            if profit.evals != sel.candidates_evaluated {
                self.eval_mismatches += 1;
            }
            if timed {
                self.profit_evals_timed += profit.evals;
                self.profit_ns += profit.ns;
            } else {
                self.select_ns.push(dt);
                self.evals += profit.evals;
            }
        }
    }
}

/// An `EventSink` that counts events, the variants that mark policy
/// callbacks, issued loads and their total reconfiguration time.
#[derive(Debug, Default, Clone)]
pub struct CountingSink {
    pub events: u64,
    /// `BlockStart`: one per `plan_block` call.
    pub block_starts: u64,
    /// `EpochBegin`: one per `plan_execution` call.
    pub epochs: u64,
    /// `BlockEnd`: one per `observe_block_end` call.
    pub block_ends: u64,
    pub loads_issued: u64,
    pub load_cycles: u64,
}

impl CountingSink {
    /// Counts a recorded spine.
    pub fn of(events: &[(u32, SimEvent)]) -> Self {
        let mut sink = CountingSink::default();
        for (tag, ev) in events {
            sink.emit(*tag, ev.clone());
        }
        sink
    }
}

impl EventSink for CountingSink {
    fn emit(&mut self, _tenant: u32, event: SimEvent) {
        self.events += 1;
        match event {
            SimEvent::BlockStart { .. } => self.block_starts += 1,
            SimEvent::EpochBegin { .. } => self.epochs += 1,
            SimEvent::BlockEnd { .. } => self.block_ends += 1,
            SimEvent::LoadIssued { at, ready_at, .. } => {
                self.loads_issued += 1;
                self.load_cycles += ready_at.get().saturating_sub(at.get());
            }
            _ => {}
        }
    }
}

/// Number of runs of consecutive equal entries (0 for an empty list).
pub fn run_count<T: PartialEq>(seq: &[T]) -> usize {
    if seq.is_empty() {
        return 0;
    }
    1 + seq.windows(2).filter(|w| w[0] != w[1]).count()
}
