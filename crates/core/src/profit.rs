//! The mRTS profit function — Eqs. 1–4 of the paper.
//!
//! *"The expected profit of an ISE is actually the performance improvement
//! offered by it in a given functional block. … Since the reconfiguration
//! of data paths of each ISE is completed at different points in time, the
//! profit is the sum of potential performance improvements by the ISE and
//! its intermediate ISEs."* (Section 4.1)
//!
//! The profit of a candidate ISE under the trigger forecast
//! `{e, tf, tb}`:
//!
//! * the reconfiguration-completion time `recT(ISEᵢ)` of every intermediate
//!   ISE is predicted through the reconfiguration controller (units already
//!   resident are available at once; units already streaming complete at
//!   their ticketed time; new units queue behind them on their port),
//! * Eq. 3 turns these into expected execution counts `NoE(i)` per
//!   intermediate ISE,
//! * Eq. 2 weighs each count with the per-execution cycle saving, and
//! * Eq. 4 adds the fully configured ISE's contribution for the remaining
//!   executions.
//!
//! Unlike the RISPP-style cost functions tuned for ms-scale FG loads, this
//! formulation is exact for µs-scale CG loads too — the distinction the
//! paper identifies as the key weakness of prior run-time systems.

use mrts_arch::{Cycles, FabricKind, LoadedId, ReconfigurationController};
use mrts_ise::ise::IseStage;
use mrts_ise::{Ise, TriggerInstruction, UnitId};
use std::fmt;

/// Expected behaviour of one availability stage of a candidate ISE.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageProfit {
    /// The unit whose arrival starts this stage.
    pub unit: UnitId,
    /// When the unit becomes usable, relative to the trigger instruction.
    pub ready_rel: Cycles,
    /// Kernel latency during this stage (`latency(ISEᵢ)`).
    pub latency: Cycles,
    /// Expected executions during this stage (`NoE(i)`, Eq. 3).
    pub executions: f64,
    /// Expected cycles saved during this stage (`per_imp(i)`, Eq. 2).
    pub improvement: f64,
}

/// Full breakdown of one profit evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfitBreakdown {
    /// Executions spent in plain RISC mode before the first unit arrives
    /// (`NoE_RM` in the paper's Fig. 5) — they contribute no improvement.
    pub risc_executions: f64,
    /// Per-stage expectations, in availability order.
    pub stages: Vec<StageProfit>,
    /// Executions on the fully configured ISE.
    pub full_executions: f64,
    /// Kernel latency of the fully configured ISE.
    pub full_latency: Cycles,
    /// When the last unit becomes usable, relative to the trigger.
    pub reconfig_latency: Cycles,
    /// Total expected profit in cycles (Eq. 4).
    pub profit: f64,
}

impl ProfitBreakdown {
    /// Eq. 1 for this evaluation: the performance improvement factor over
    /// RISC-mode, using the predicted reconfiguration latency.
    #[must_use]
    pub fn pif(&self, ise: &Ise, executions: u64) -> f64 {
        ise.performance_improvement_factor(executions, self.reconfig_latency)
    }
}

impl fmt::Display for ProfitBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "profit {:.0} cycles ({} stages, {:.1} RISC + {:.1} full execs, recfg {})",
            self.profit,
            self.stages.len(),
            self.risc_executions,
            self.full_executions,
            self.reconfig_latency
        )
    }
}

/// Per-selection snapshot of the shadow controller's port state, from which
/// every candidate's unit-ready times follow analytically.
///
/// A batch of back-to-back loads issued at `now` on one port completes at
/// `max(now, port_busy_until) + Σ durations` — the chaining
/// [`ReconfigurationController::request`] applies to each load in turn.
/// Capturing the two port bases and the ready times of already-streaming
/// units makes each candidate evaluation a pure array walk: no clone, no
/// queue scan, no allocation.
///
/// The memo is captured in full once per selection. A commit only appends
/// tickets to the shadow ports, so after [`ProfitFn::invalidate`] the memo
/// [catches up](ProfitMemo::catch_up): it checks that each port still
/// starts with the tickets it saw, folds in the new tail tickets and
/// re-reads the two port clocks. A controller that is not such an
/// extension (settled, replaced or shrunk) gets a full capture instead.
///
/// [`ProfitFn::invalidate`]: crate::selector::ProfitFn::invalidate
#[derive(Debug, Clone, Default)]
struct ProfitMemo {
    /// When the evaluation happens (all `ready_rel` are relative to this).
    now: Cycles,
    /// `max(now, busy_until)` of the FG configuration port.
    fg_base: Cycles,
    /// `max(now, busy_until)` of the CG context port.
    cg_base: Cycles,
    /// Ready times of queued/streaming transfers, sorted by id for binary
    /// search; on duplicate ids the first occurrence wins (FG port scanned
    /// before CG, matching
    /// [`ReconfigurationController::pending_ready_time`]). The queues are
    /// short, so a flat sorted vector beats hashing every stage lookup.
    pending: Vec<(LoadedId, Cycles)>,
    /// The tickets folded into `pending`, `(id, ready_at)` in port order:
    /// FG port first, the CG port's from `fg_seen` on.
    seen: Vec<(LoadedId, Cycles)>,
    /// How many of `seen` are the FG port's.
    fg_seen: usize,
}

impl ProfitMemo {
    /// Captures the port state of `controller` as seen at `now`.
    #[must_use]
    fn capture(controller: &ReconfigurationController, now: Cycles) -> Self {
        let mut memo = ProfitMemo::default();
        memo.capture_into(controller, now);
        memo
    }

    /// [`ProfitMemo::capture`] in place, reusing the buffers, so a policy
    /// that keeps one memo across triggers captures without allocating.
    fn capture_into(&mut self, controller: &ReconfigurationController, now: Cycles) {
        self.seen.clear();
        self.fg_seen = 0;
        for t in controller.inflight_tickets() {
            self.fg_seen += usize::from(t.fabric == FabricKind::FineGrained);
            self.seen.push((t.id, t.ready_at));
        }
        self.pending.clear();
        self.pending.extend_from_slice(&self.seen);
        // Stable, so on a duplicate id the FG port's ticket stays first
        // and `dedup_by_key` keeps it.
        self.pending.sort_by_key(|(id, _)| *id);
        self.pending.dedup_by_key(|(id, _)| *id);
        self.read_clocks(controller, now);
    }

    /// Folds the tickets `controller` queued since the last capture into
    /// `pending` and re-reads the port clocks. Returns `false`, leaving the
    /// memo to be captured in full, unless each port starts with exactly
    /// the tickets the memo saw and every new ticket's id is new: a
    /// duplicate id would need the FG-first rule of a full capture.
    fn catch_up(&mut self, controller: &ReconfigurationController) -> bool {
        let (old_fg, old_len) = (self.fg_seen, self.seen.len());
        let (mut fg, mut cg) = (0, 0);
        for t in controller.inflight_tickets() {
            let (pos, seen) = match t.fabric {
                FabricKind::FineGrained => (&mut fg, old_fg),
                FabricKind::CoarseGrained => (&mut cg, old_len - old_fg),
            };
            let key = (t.id, t.ready_at);
            if *pos < seen {
                // Every FG ticket comes first, so the CG port's seen ones
                // start after all of the FG port's, new ones included.
                let at = match t.fabric {
                    FabricKind::FineGrained => *pos,
                    FabricKind::CoarseGrained => self.fg_seen + *pos,
                };
                if self.seen[at] != key {
                    return false;
                }
            } else {
                let Err(at) = self.pending.binary_search_by_key(&t.id, |(id, _)| *id) else {
                    return false;
                };
                self.pending.insert(at, key);
                match t.fabric {
                    FabricKind::FineGrained => {
                        self.seen.insert(self.fg_seen, key);
                        self.fg_seen += 1;
                    }
                    FabricKind::CoarseGrained => self.seen.push(key),
                }
            }
            *pos += 1;
        }
        if fg < old_fg || cg < old_len - old_fg {
            return false;
        }
        self.read_clocks(controller, self.now);
        true
    }

    fn read_clocks(&mut self, controller: &ReconfigurationController, now: Cycles) {
        self.now = now;
        self.fg_base = now.max(controller.port_free_at(FabricKind::FineGrained));
        self.cg_base = now.max(controller.port_free_at(FabricKind::CoarseGrained));
    }

    /// Fills `ready_rel[i]` — when stage `i`'s unit becomes usable,
    /// relative to `now` — exactly as issuing the ISE's missing loads
    /// through [`ReconfigurationController::request`] on a copy of the
    /// controller would. `ready_rel` holds one entry per stage. When every
    /// stage is ready at once (all `ready_rel` zero), returns the sum of
    /// the stages' savings per execution.
    fn fill_ready_rel<R: Fn(UnitId) -> bool + ?Sized>(
        &self,
        stages: &[IseStage],
        resident: &R,
        ready_rel: &mut [Cycles],
    ) -> Option<Cycles> {
        let mut fg_acc = Cycles::ZERO;
        let mut cg_acc = Cycles::ZERO;
        let mut waits = false;
        let mut saving = Cycles::ZERO;
        for (stage, out) in stages.iter().zip(ready_rel) {
            saving += stage.saving_per_exec;
            let rel = if resident(stage.unit) {
                Cycles::ZERO
            } else if let Ok(i) = self
                .pending
                .binary_search_by_key(&stage.unit.as_loaded_id(), |(id, _)| *id)
            {
                self.pending[i].1 - self.now
            } else {
                let (base, acc) = match stage.fabric {
                    FabricKind::FineGrained => (self.fg_base, &mut fg_acc),
                    FabricKind::CoarseGrained => (self.cg_base, &mut cg_acc),
                };
                *acc += stage.load_duration;
                base + *acc - self.now
            };
            waits |= rel > Cycles::ZERO;
            *out = rel;
        }
        (!waits).then_some(saving)
    }
}

/// Stages an ISE may have for [`with_stage_buffers`] to keep the walk's
/// buffers on the stack; a wider ISE walks on heap buffers.
const INLINE_STAGES: usize = 8;

/// Heap buffers of the stage walk for ISEs wider than [`INLINE_STAGES`].
#[derive(Debug, Clone, Default)]
struct ProfitScratch {
    ready_rel: Vec<Cycles>,
    order: Vec<usize>,
}

/// Runs `walk` on zeroed `ready_rel` and `order` buffers of `n` entries:
/// stack arrays up to [`INLINE_STAGES`], `wide`'s vectors beyond.
fn with_stage_buffers<T>(
    n: usize,
    wide: &mut ProfitScratch,
    walk: impl FnOnce(&mut [Cycles], &mut [usize]) -> T,
) -> T {
    if n <= INLINE_STAGES {
        let mut ready_rel = [Cycles::ZERO; INLINE_STAGES];
        let mut order = [0; INLINE_STAGES];
        walk(&mut ready_rel[..n], &mut order[..n])
    } else {
        wide.ready_rel.clear();
        wide.ready_rel.resize(n, Cycles::ZERO);
        wide.order.clear();
        wide.order.resize(n, 0);
        walk(&mut wide.ready_rel, &mut wide.order)
    }
}

/// The complete buffer set of an [`ExpectedProfitEval`], extractable via
/// `ExpectedProfitEval::recycle` so a policy that creates one evaluator
/// per block (the evaluator borrows that block's residency closure and
/// cannot outlive it) still reuses the allocations underneath across
/// blocks.
#[derive(Debug, Clone, Default)]
pub struct ProfitEvalBuffers {
    scratch: ProfitScratch,
    memo: ProfitMemo,
    /// `risc_latency − full_latency` per [`IseId`] — the per-execution
    /// ceiling of Eq. 4, a run-constant of the catalogue. Filled by
    /// [`ProfitEvalBuffers::rebind_catalog`] so [`ProfitFn::upper_bound`](crate::selector::ProfitFn::upper_bound)
    /// is a table lookup instead of a stage walk per candidate per block.
    bound_base: Vec<f64>,
    /// Identity of the catalogue `bound_base` was computed from (ISE slice
    /// address + length): the table survives across blocks of one run and
    /// is rebuilt if the policy is ever pointed at a different catalogue.
    bound_key: (usize, usize),
}

impl ProfitEvalBuffers {
    /// (Re)computes `bound_base` if `catalog` differs from the catalogue
    /// the table was built from. Cost on change: one stage walk per ISE —
    /// the same work [`ProfitFn::upper_bound`](crate::selector::ProfitFn::upper_bound) previously did per block.
    pub fn rebind_catalog(&mut self, catalog: &mrts_ise::IseCatalog) {
        let ises = catalog.ises();
        let key = (ises.as_ptr() as usize, ises.len());
        if self.bound_key == key {
            return;
        }
        self.bound_base.clear();
        self.bound_base.extend(
            ises.iter()
                .map(|ise| (ise.risc_latency() - ise.full_latency()).get() as f64),
        );
        self.bound_key = key;
    }
}

/// What the Eq. 2/3/4 stage walk computes besides the per-stage records.
struct WalkResult {
    risc_executions: f64,
    full_executions: f64,
    full_latency: Cycles,
    reconfig_latency: Cycles,
    profit: f64,
}

/// The Eq. 2/3/4 stage walk, shared by [`expected_profit`] and the
/// selector's [`ExpectedProfitEval`], so both perform the identical
/// floating-point operation sequence and their profits are bit-identical.
/// `order` is scratch with one entry per stage, as `ready_rel` is. Always
/// inlined: the selector's copy then drops the per-stage record keeping.
#[inline(always)]
fn walk_stages(
    ise: &Ise,
    trigger: &TriggerInstruction,
    ready_rel: &[Cycles],
    order: &mut [usize],
    mut stages_out: Option<&mut Vec<StageProfit>>,
) -> WalkResult {
    // Availability order: earliest-ready first (stable on stage order).
    // An ISE has a few stages, so an insertion sort is cheapest.
    for i in 0..order.len() {
        let mut at = i;
        while at > 0 && ready_rel[order[at - 1]] > ready_rel[i] {
            order[at] = order[at - 1];
            at -= 1;
        }
        order[at] = i;
    }

    // Walk the stages computing Eq. 3 / Eq. 2.
    let e = trigger.expected_executions as f64;
    let tf = trigger.time_to_first;
    let tb = trigger.time_between.get() as f64;
    let risc = ise.risc_latency();

    // NoE_RM: RISC executions before the first stage is ready.
    let first_ready = order.first().map_or(Cycles::ZERO, |&i| ready_rel[i]);
    let mut used = 0.0; // executions accounted so far
    let risc_executions = if first_ready > tf {
        let window = (first_ready - tf).get() as f64;
        (window / (risc.get() as f64 + tb)).min(e)
    } else {
        0.0
    };
    used += risc_executions;

    let stages: &[IseStage] = ise.stages();
    let mut profit_acc = 0.0f64;
    let mut cumulative_saving = Cycles::ZERO;
    for (pos, &si) in order.iter().enumerate() {
        cumulative_saving += stages[si].saving_per_exec;
        let latency = risc - cumulative_saving;
        let rec_i = ready_rel[si];
        let next_ready = order.get(pos + 1).map(|&j| ready_rel[j]);
        let executions = match next_ready {
            // Eq. 3: this intermediate ISE runs from max(recT_i, tf) until
            // the next one is ready.
            Some(rec_next) => {
                let start = rec_i.max(tf);
                let window = (rec_next - start).get() as f64;
                (window / (latency.get() as f64 + tb)).max(0.0)
            }
            // Final stage: handled below as the fully configured ISE.
            None => 0.0,
        };
        let executions = executions.min((e - used).max(0.0));
        used += executions;
        let improvement = executions * (risc - latency).get() as f64;
        profit_acc += improvement;
        if let Some(out) = stages_out.as_deref_mut() {
            out.push(StageProfit {
                unit: stages[si].unit,
                ready_rel: rec_i,
                latency,
                executions,
                improvement,
            });
        }
    }

    // Eq. 4: the fully configured ISE takes the remaining executions. Its
    // latency is what every stage's saving leaves of the RISC latency.
    let full_latency = risc - cumulative_saving;
    let full_executions = (e - used).max(0.0);
    let max_saving = (risc - full_latency).get() as f64;
    let full_improvement = full_executions * max_saving;
    // Eq. 4's ceiling `e·(risc − full)`, which rounding in the sum above
    // can pass by an ulp. Held exactly, it is the selector's upper bound.
    let profit = (profit_acc + full_improvement).min(e * max_saving);
    let reconfig_latency = order.last().map_or(Cycles::ZERO, |&i| ready_rel[i]);

    // The final availability stage *is* the fully configured ISE; record
    // its executions there for reporting.
    if let Some(out) = stages_out {
        if let Some(last) = out.last_mut() {
            last.executions = full_executions;
            last.improvement = full_improvement;
        }
    }

    WalkResult {
        risc_executions,
        full_executions,
        full_latency,
        reconfig_latency,
        profit,
    }
}

/// Evaluates the expected profit of selecting `ise` at time `now` under the
/// forecast `trigger`.
///
/// `resident` tells which units are already usable (loaded by earlier
/// selections or by other ISEs sharing data paths — their savings are
/// available immediately and for free). `controller` supplies completion
/// predictions for units still streaming and for the new loads this ISE
/// would enqueue.
#[must_use]
pub fn expected_profit(
    ise: &Ise,
    trigger: &TriggerInstruction,
    now: Cycles,
    controller: &ReconfigurationController,
    resident: &dyn Fn(UnitId) -> bool,
) -> ProfitBreakdown {
    let memo = ProfitMemo::capture(controller, now);
    let mut breakdown_stages = Vec::with_capacity(ise.stage_count());
    let w = with_stage_buffers(
        ise.stage_count(),
        &mut ProfitScratch::default(),
        |ready_rel, order| {
            memo.fill_ready_rel(ise.stages(), resident, ready_rel);
            walk_stages(ise, trigger, ready_rel, order, Some(&mut breakdown_stages))
        },
    );
    ProfitBreakdown {
        risc_executions: w.risc_executions,
        stages: breakdown_stages,
        full_executions: w.full_executions,
        full_latency: w.full_latency,
        reconfig_latency: w.reconfig_latency,
        profit: w.profit,
    }
}

/// Allocation-free profit evaluation against a captured [`ProfitMemo`] —
/// the selector hot path. Returns the same value (bit for bit) as
/// [`expected_profit`]`.profit` evaluated against the controller the memo
/// was captured from.
#[must_use]
fn expected_profit_value<R: Fn(UnitId) -> bool + ?Sized>(
    ise: &Ise,
    trigger: &TriggerInstruction,
    memo: &ProfitMemo,
    resident: &R,
    wide: &mut ProfitScratch,
) -> f64 {
    with_stage_buffers(ise.stage_count(), wide, |ready_rel, order| {
        // No-wait fast path: when every `ready_rel` is zero (each unit
        // resident or already loaded by `now`) the stage walk degenerates
        // — `NoE_RM = 0`, every intermediate window is empty, and all `e`
        // executions land on the fully configured ISE. The walk would
        // compute `0.0 + e·(risc − latency(ISEₙ))`, and `0.0 + x` is `x`
        // bit for bit for the non-negative products here, so returning
        // the closed form directly is exact
        // (`memoized_eval_matches_the_reference_walk` pins this).
        if let Some(saving) = memo.fill_ready_rel(ise.stages(), resident, ready_rel) {
            let (risc, e) = (ise.risc_latency(), trigger.expected_executions as f64);
            let full_latency = risc - saving;
            return e * (risc - full_latency).get() as f64;
        }
        walk_stages(ise, trigger, ready_rel, order, None).profit
    })
}

/// Whether an [`ExpectedProfitEval`]'s memo matches the shadow controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemoState {
    /// Nothing captured for this evaluator yet: capture in full.
    Empty,
    /// The shadow may have changed since the capture: catch up.
    Stale,
    /// The memo describes the shadow.
    Valid,
}

/// The memoizing [`crate::selector::ProfitFn`] evaluator of Eqs. 1–4:
/// captures the shadow port schedule once per selection, catches up on
/// each commit's appended loads, and walks each candidate's stages on
/// stack buffers, so the per-candidate cost is a pure array walk with zero
/// allocation.
///
/// `R` is the residency predicate. [`ExpectedProfitEval::new`] takes it as
/// a `&dyn Fn`; [`ExpectedProfitEval::with_buffers`] also takes a concrete
/// closure, whose probes then inline instead of going through a vtable.
pub struct ExpectedProfitEval<'a, R: Fn(UnitId) -> bool + ?Sized = dyn Fn(UnitId) -> bool + 'a> {
    now: Cycles,
    resident: &'a R,
    allow_mono: bool,
    bufs: ProfitEvalBuffers,
    memo: MemoState,
}

impl<R: Fn(UnitId) -> bool + ?Sized> fmt::Debug for ExpectedProfitEval<'_, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExpectedProfitEval")
            .field("now", &self.now)
            .field("allow_mono", &self.allow_mono)
            .field("memo", &self.memo)
            .finish_non_exhaustive()
    }
}

impl<'a> ExpectedProfitEval<'a> {
    /// A fresh evaluator for a selection happening at `now`.
    #[must_use]
    pub fn new(now: Cycles, resident: &'a dyn Fn(UnitId) -> bool) -> Self {
        Self::with_buffers(now, resident, ProfitEvalBuffers::default())
    }
}

impl<'a, R: Fn(UnitId) -> bool + ?Sized> ExpectedProfitEval<'a, R> {
    /// An evaluator reusing previously recycled buffers, so creating
    /// one per block allocates nothing in the steady state.
    #[must_use]
    pub fn with_buffers(now: Cycles, resident: &'a R, bufs: ProfitEvalBuffers) -> Self {
        ExpectedProfitEval {
            now,
            resident,
            allow_mono: true,
            bufs,
            memo: MemoState::Empty,
        }
    }

    /// Consumes the evaluator, handing its buffers back for the next one.
    #[must_use]
    pub(crate) fn recycle(self) -> ProfitEvalBuffers {
        self.bufs
    }

    /// Whether monoCG-Extension candidates may earn profit (the ECU
    /// ablation disables them by forcing their profit to zero).
    #[must_use]
    pub fn with_mono(mut self, allow: bool) -> Self {
        self.allow_mono = allow;
        self
    }
}

impl<R: Fn(UnitId) -> bool + ?Sized> crate::selector::ProfitFn for ExpectedProfitEval<'_, R> {
    /// Eq. 4's ceiling: at most `e` executions, each saving at most the
    /// fully-configured ISE's `risc - full_latency` cycles (intermediate
    /// stages save strictly less), whatever the reconfiguration schedule.
    /// Valid for every commit round since profits only shrink (DESIGN §7).
    fn upper_bound(&mut self, ise: &Ise, trigger: &TriggerInstruction) -> Option<f64> {
        if !self.allow_mono && ise.is_mono_extension() {
            return Some(0.0); // ablation: monoCG disabled entirely
        }
        let max_saving = match self.bufs.bound_base.get(ise.id().0 as usize) {
            Some(&base) => base,
            // No table bound (caller never called `rebind_catalog`): fall
            // back to the direct stage walk.
            None => (ise.risc_latency() - ise.full_latency()).get() as f64,
        };
        Some(trigger.expected_executions as f64 * max_saving)
    }

    fn eval(
        &mut self,
        ise: &Ise,
        trigger: &TriggerInstruction,
        shadow: &ReconfigurationController,
    ) -> f64 {
        if !self.allow_mono && ise.is_mono_extension() {
            return 0.0; // ablation: monoCG disabled entirely
        }
        match self.memo {
            MemoState::Valid => {}
            MemoState::Stale => {
                if !self.bufs.memo.catch_up(shadow) {
                    self.bufs.memo.capture_into(shadow, self.now);
                }
            }
            MemoState::Empty => self.bufs.memo.capture_into(shadow, self.now),
        }
        self.memo = MemoState::Valid;
        let ProfitEvalBuffers { scratch, memo, .. } = &mut self.bufs;
        expected_profit_value(ise, trigger, memo, self.resident, scratch)
    }

    fn invalidate(&mut self) {
        if self.memo == MemoState::Valid {
            self.memo = MemoState::Stale;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::ProfitFn;
    use mrts_arch::{FabricKind, LoadRequest, ReconfigurationController};
    use mrts_ise::ise::IseStage;
    use mrts_ise::{IseId, KernelId, TriggerInstruction};
    use proptest::prelude::*;

    fn stage(unit: u64, fabric: FabricKind, load: u64, saving: u64) -> IseStage {
        IseStage {
            unit: UnitId(unit),
            fabric,
            load_duration: Cycles::new(load),
            saving_per_exec: Cycles::new(saving),
        }
    }

    /// A two-stage MG ISE: fast CG unit (60-cycle load, saves 400) then a
    /// slow FG unit (480k load, saves 300); RISC latency 1000.
    fn mg_ise() -> Ise {
        Ise::new(
            IseId(0),
            KernelId(0),
            "k[mg]",
            vec![
                stage(1, FabricKind::CoarseGrained, 60, 400),
                stage(2, FabricKind::FineGrained, 480_000, 300),
            ],
            Cycles::new(1_000),
        )
    }

    fn trigger(e: u64, tf: u64, tb: u64) -> TriggerInstruction {
        TriggerInstruction::new(KernelId(0), e, Cycles::new(tf), Cycles::new(tb))
    }

    fn none_resident(_: UnitId) -> bool {
        false
    }

    #[test]
    fn breakdown_matches_hand_computation() {
        let ise = mg_ise();
        let rc = ReconfigurationController::new();
        let tr = trigger(1_000, 500, 200);
        let b = expected_profit(&ise, &tr, Cycles::ZERO, &rc, &none_resident);

        // CG unit ready at 60 (< tf=500): no RISC executions.
        assert_eq!(b.risc_executions, 0.0);
        assert_eq!(b.stages.len(), 2);
        // Intermediate stage: latency 600, runs from tf=500 until FG ready
        // at 480 000: (480000-500)/(600+200) = 599.375 executions.
        let s0 = &b.stages[0];
        assert_eq!(s0.latency, Cycles::new(600));
        assert!((s0.executions - 599.375).abs() < 1e-9, "{}", s0.executions);
        assert!((s0.improvement - 599.375 * 400.0).abs() < 1e-6);
        // Full ISE: remaining 400.625 executions at saving 700.
        assert!((b.full_executions - 400.625).abs() < 1e-9);
        assert_eq!(b.full_latency, Cycles::new(300));
        let expected = 599.375 * 400.0 + 400.625 * 700.0;
        assert!((b.profit - expected).abs() < 1e-6, "{}", b.profit);
        assert_eq!(b.reconfig_latency, Cycles::new(480_000));
    }

    #[test]
    fn few_executions_favour_cg_only() {
        // With only 20 expected executions the FG stage never amortizes:
        // a CG-only ISE must out-profit the MG one per executed cycle...
        let cg_only = Ise::new(
            IseId(1),
            KernelId(0),
            "k[cg]",
            vec![stage(1, FabricKind::CoarseGrained, 60, 400)],
            Cycles::new(1_000),
        );
        let rc = ReconfigurationController::new();
        let tr = trigger(20, 500, 200);
        let mg = expected_profit(&mg_ise(), &tr, Cycles::ZERO, &rc, &none_resident);
        let cg = expected_profit(&cg_only, &tr, Cycles::ZERO, &rc, &none_resident);
        // All 20 executions complete long before the FG unit arrives, so
        // both earn the same improvement; the MG ISE is NOT better despite
        // costing an extra PRC — exactly the paper's Fig. 1 low-count region.
        assert!(mg.profit <= cg.profit + 1e-9);
        assert!(cg.full_executions > 19.0);
    }

    #[test]
    fn many_executions_favour_bigger_ise() {
        let cg_only = Ise::new(
            IseId(1),
            KernelId(0),
            "k[cg]",
            vec![stage(1, FabricKind::CoarseGrained, 60, 400)],
            Cycles::new(1_000),
        );
        let rc = ReconfigurationController::new();
        let tr = trigger(100_000, 500, 200);
        let mg = expected_profit(&mg_ise(), &tr, Cycles::ZERO, &rc, &none_resident);
        let cg = expected_profit(&cg_only, &tr, Cycles::ZERO, &rc, &none_resident);
        assert!(
            mg.profit > cg.profit,
            "high counts amortize the FG load: {} vs {}",
            mg.profit,
            cg.profit
        );
    }

    #[test]
    fn resident_units_are_free_and_immediate() {
        let ise = mg_ise();
        let rc = ReconfigurationController::new();
        let tr = trigger(1_000, 500, 200);
        let all_resident = |_: UnitId| true;
        let b = expected_profit(&ise, &tr, Cycles::ZERO, &rc, &all_resident);
        assert_eq!(b.reconfig_latency, Cycles::ZERO);
        assert_eq!(b.risc_executions, 0.0);
        // Every execution runs on the full ISE.
        assert!((b.full_executions - 1_000.0).abs() < 1e-9);
        assert!((b.profit - 1_000.0 * 700.0).abs() < 1e-6);
    }

    #[test]
    fn busy_port_delays_profit() {
        let ise = mg_ise();
        let tr = trigger(1_000, 500, 200);
        let idle = ReconfigurationController::new();
        let mut busy = ReconfigurationController::new();
        // Another task is streaming a large bitstream on the FG port.
        busy.request(
            Cycles::ZERO,
            LoadRequest {
                id: 999,
                fabric: FabricKind::FineGrained,
                duration: Cycles::new(480_000),
            },
        );
        let free = expected_profit(&ise, &tr, Cycles::ZERO, &idle, &none_resident);
        let queued = expected_profit(&ise, &tr, Cycles::ZERO, &busy, &none_resident);
        assert!(queued.reconfig_latency > free.reconfig_latency);
        assert!(queued.profit < free.profit);
    }

    #[test]
    fn in_flight_units_use_their_ticketed_completion() {
        // The FG unit is already streaming (started earlier): the profit
        // function must use its real completion time instead of queueing a
        // duplicate load behind it.
        let ise = mg_ise();
        let tr = trigger(1_000, 500, 200);
        let mut rc = ReconfigurationController::new();
        let ticket = rc.request(
            Cycles::ZERO,
            LoadRequest {
                id: 2, // the ISE's FG unit
                fabric: FabricKind::FineGrained,
                duration: Cycles::new(480_000),
            },
        );
        // Evaluate at t=200_000: the in-flight load finishes at 480_000,
        // i.e. 280_000 cycles from now — far earlier than a fresh load.
        let now = Cycles::new(200_000);
        let b = expected_profit(&ise, &tr, now, &rc, &none_resident);
        assert_eq!(b.reconfig_latency, ticket.ready_at - now);
        let fresh = expected_profit(
            &ise,
            &tr,
            now,
            &ReconfigurationController::new(),
            &none_resident,
        );
        assert!(b.reconfig_latency < fresh.reconfig_latency);
        assert!(b.profit > fresh.profit);
    }

    #[test]
    fn risc_executions_counted_when_first_unit_is_late() {
        // FG-only ISE: nothing available until 480k cycles.
        let fg_only = Ise::new(
            IseId(2),
            KernelId(0),
            "k[fg]",
            vec![stage(2, FabricKind::FineGrained, 480_000, 700)],
            Cycles::new(1_000),
        );
        let rc = ReconfigurationController::new();
        let tr = trigger(1_000, 500, 200);
        let b = expected_profit(&fg_only, &tr, Cycles::ZERO, &rc, &none_resident);
        // (480000-500)/(1000+200) = 399.58 RISC executions.
        assert!((b.risc_executions - 399.583_333).abs() < 1e-3);
        assert!((b.full_executions - (1_000.0 - b.risc_executions)).abs() < 1e-9);
    }

    proptest! {
        /// Profit is bounded by e x max saving and never negative; the
        /// execution budget is conserved.
        #[test]
        fn profit_is_bounded_and_budget_conserved(
            e in 1u64..50_000,
            tf in 0u64..10_000,
            tb in 1u64..2_000,
        ) {
            let ise = mg_ise();
            let rc = ReconfigurationController::new();
            let tr = trigger(e, tf, tb);
            let b = expected_profit(&ise, &tr, Cycles::ZERO, &rc, &none_resident);
            let max_saving = (ise.risc_latency() - ise.full_latency()).get() as f64;
            prop_assert!(b.profit >= -1e-9);
            prop_assert!(b.profit <= e as f64 * max_saving + 1e-6);
            let total = b.risc_executions
                + b.stages[..b.stages.len() - 1].iter().map(|s| s.executions).sum::<f64>()
                + b.full_executions;
            prop_assert!(total <= e as f64 + 1e-6);
        }

        /// More expected executions never decrease the expected profit.
        #[test]
        fn profit_monotone_in_executions(e in 1u64..20_000, delta in 1u64..20_000) {
            let ise = mg_ise();
            let rc = ReconfigurationController::new();
            let lo = expected_profit(&ise, &trigger(e, 500, 200), Cycles::ZERO, &rc, &none_resident);
            let hi = expected_profit(&ise, &trigger(e + delta, 500, 200), Cycles::ZERO, &rc, &none_resident);
            prop_assert!(hi.profit >= lo.profit - 1e-6);
        }

        /// The memoizing evaluator returns the reference walk's profit bit
        /// for bit, its no-wait closed form included, whether each unit is
        /// resident, still streaming, streamed by `now` but not settled,
        /// or not loaded at all.
        #[test]
        fn memoized_eval_matches_the_reference_walk(
            e in 0u64..50_000,
            tf in 0u64..10_000,
            tb in 0u64..2_000,
            resident_mask in 0u64..4,
            issued_mask in 0u64..4,
            now in 0u64..600_000,
        ) {
            let ise = mg_ise();
            let resident = move |u: UnitId| (1..=2).contains(&u.0) && resident_mask & (1 << (u.0 - 1)) != 0;
            let mut rc = ReconfigurationController::new();
            for s in ise.stages() {
                if issued_mask & (1 << (s.unit.0 - 1)) != 0 {
                    rc.request(
                        Cycles::ZERO,
                        LoadRequest {
                            id: s.unit.as_loaded_id(),
                            fabric: s.fabric,
                            duration: s.load_duration,
                        },
                    );
                }
            }
            let (now, tr) = (Cycles::new(now), trigger(e, tf, tb));
            let reference = expected_profit(&ise, &tr, now, &rc, &resident).profit;
            let memoized = ExpectedProfitEval::new(now, &resident).eval(&ise, &tr, &rc);
            prop_assert_eq!(memoized.to_bits(), reference.to_bits());
        }
    }

    /// A second ISE over the ids the controller changes below use: unit 1
    /// (shared with [`mg_ise`]) and units 3 and 4, on both fabrics.
    fn three_stage_ise() -> Ise {
        Ise::new(
            IseId(1),
            KernelId(0),
            "k[3]",
            vec![
                stage(3, FabricKind::FineGrained, 300_000, 200),
                stage(1, FabricKind::CoarseGrained, 60, 300),
                stage(4, FabricKind::CoarseGrained, 90, 100),
            ],
            Cycles::new(1_000),
        )
    }

    /// Applies change `kind` to `rc`: 0–2 append a load (the only change a
    /// selector's commit makes), 3 appends a discarded load, 4 settles the
    /// ports, 5 replaces the controller with one of as many tickets and
    /// other ids.
    fn change(
        rc: &mut ReconfigurationController,
        (kind, id, fg, duration, at): (u8, u64, bool, u64, u64),
    ) {
        let request = LoadRequest {
            id,
            fabric: if fg {
                FabricKind::FineGrained
            } else {
                FabricKind::CoarseGrained
            },
            duration: Cycles::new(duration),
        };
        match kind {
            0..=2 => {
                rc.request(Cycles::new(at), request);
            }
            3 => {
                rc.request_wasted(Cycles::new(at), request);
            }
            4 => rc.settle(Cycles::new(at)),
            _ => {
                let tickets: Vec<_> = rc.inflight_tickets().copied().collect();
                *rc = ReconfigurationController::new();
                for t in tickets {
                    rc.request(
                        t.starts_at,
                        LoadRequest {
                            id: t.id + 1,
                            fabric: t.fabric,
                            duration: t.ready_at - t.starts_at,
                        },
                    );
                }
            }
        }
    }

    /// Eq. 2–4 for `ise` written out on its own: ready times from the
    /// controller's tickets (the FG port's first) and port clocks, a stable
    /// sort into availability order, then the stage-by-stage sums.
    fn reference_profit(
        ise: &Ise,
        tr: &TriggerInstruction,
        now: Cycles,
        rc: &ReconfigurationController,
        resident: &dyn Fn(UnitId) -> bool,
    ) -> f64 {
        let mut ports = [
            now.max(rc.port_free_at(FabricKind::FineGrained)),
            now.max(rc.port_free_at(FabricKind::CoarseGrained)),
        ];
        let mut stages: Vec<(Cycles, Cycles)> = ise
            .stages()
            .iter()
            .map(|s| {
                let ready = if resident(s.unit) {
                    Cycles::ZERO
                } else if let Some(at) = rc.pending_ready_time(s.unit.as_loaded_id()) {
                    at - now
                } else {
                    let port = &mut ports[usize::from(s.fabric == FabricKind::CoarseGrained)];
                    *port += s.load_duration;
                    *port - now
                };
                (ready, s.saving_per_exec)
            })
            .collect();
        stages.sort_by_key(|&(ready, _)| ready);
        let (e, tb) = (tr.expected_executions as f64, tr.time_between.get() as f64);
        let risc = ise.risc_latency();
        let mut used = if stages[0].0 > tr.time_to_first {
            ((stages[0].0 - tr.time_to_first).get() as f64 / (risc.get() as f64 + tb)).min(e)
        } else {
            0.0
        };
        let (mut profit, mut saved) = (0.0, Cycles::ZERO);
        for (i, &(ready, saving)) in stages.iter().enumerate() {
            saved += saving;
            let latency = risc - saved;
            let Some(&(next, _)) = stages.get(i + 1) else {
                break;
            };
            let window = (next - ready.max(tr.time_to_first)).get() as f64;
            let n = (window / (latency.get() as f64 + tb))
                .max(0.0)
                .min((e - used).max(0.0));
            used += n;
            profit += n * (risc - latency).get() as f64;
        }
        let max_saving = saved.get() as f64;
        (profit + (e - used).max(0.0) * max_saving).min(e * max_saving)
    }

    proptest! {
        /// Between invalidations the shadow changes in any way: loads
        /// appended on either port (duplicate ids included), discarded
        /// loads, settled ports, a replaced controller. After each change
        /// the evaluator, caught up or captured again, returns the
        /// reference walk's profit bit for bit for every ISE.
        #[test]
        fn caught_up_memo_matches_the_reference_walk(
            changes in prop::collection::vec(
                (0u8..6, 0u64..6, any::<bool>(), 1u64..400_000, 0u64..600_000),
                1..12,
            ),
            e in 0u64..50_000,
            tf in 0u64..10_000,
            tb in 0u64..2_000,
            resident_mask in 0u64..32,
            now in 0u64..600_000,
        ) {
            let ises = [mg_ise(), three_stage_ise()];
            let resident = move |u: UnitId| u.0 < 5 && resident_mask & (1 << u.0) != 0;
            let (now, tr) = (Cycles::new(now), trigger(e, tf, tb));
            let mut rc = ReconfigurationController::new();
            let mut eval = ExpectedProfitEval::new(now, &resident);
            for c in changes {
                change(&mut rc, c);
                eval.invalidate();
                for ise in &ises {
                    let reference = expected_profit(ise, &tr, now, &rc, &resident).profit;
                    prop_assert_eq!(eval.eval(ise, &tr, &rc).to_bits(), reference.to_bits());
                }
            }
        }

        /// The stage walk on stack buffers (up to `INLINE_STAGES` stages)
        /// and on the heap fallback of a wider ISE gives the profit of the
        /// written-out Eqs. 2–4, bit for bit, through the evaluator and
        /// through `expected_profit`.
        #[test]
        fn stage_walk_matches_eqs_2_to_4_at_every_width(
            stages in prop::collection::vec(
                (any::<bool>(), 1u64..500_000, 1u64..60, 0u64..3),
                1..(2 * INLINE_STAGES + 3),
            ),
            inflight in prop::collection::vec((0u64..24, any::<bool>(), 1u64..500_000), 0..4),
            e in 0u64..50_000,
            tf in 0u64..400_000,
            tb in 0u64..2_000,
            now in 0u64..300_000,
        ) {
            let ise_stages: Vec<IseStage> = stages
                .iter()
                .enumerate()
                .map(|(i, &(fg, load, saving, _))| {
                    let fabric = if fg { FabricKind::FineGrained } else { FabricKind::CoarseGrained };
                    stage(i as u64, fabric, load, saving)
                })
                .collect();
            let total: u64 = stages.iter().map(|s| s.2).sum();
            let ise = Ise::new(IseId(2), KernelId(0), "k[wide]", ise_stages, Cycles::new(total + 100));
            let resident = |u: UnitId| stages.get(u.0 as usize).is_some_and(|s| s.3 == 0);
            let mut rc = ReconfigurationController::new();
            for (id, fg, duration) in inflight {
                let fabric = if fg { FabricKind::FineGrained } else { FabricKind::CoarseGrained };
                rc.request(Cycles::ZERO, LoadRequest { id, fabric, duration: Cycles::new(duration) });
            }
            let (now, tr) = (Cycles::new(now), trigger(e, tf, tb));
            let reference = reference_profit(&ise, &tr, now, &rc, &resident);
            let breakdown = expected_profit(&ise, &tr, now, &rc, &resident);
            prop_assert_eq!(breakdown.profit.to_bits(), reference.to_bits());
            prop_assert_eq!(breakdown.stages.len(), ise.stage_count());
            let memoized = ExpectedProfitEval::new(now, &resident).eval(&ise, &tr, &rc);
            prop_assert_eq!(memoized.to_bits(), reference.to_bits());
        }
    }
}
