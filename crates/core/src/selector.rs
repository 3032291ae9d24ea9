//! The ISE selection algorithm — the greedy heuristic of the paper's
//! Fig. 6.
//!
//! *"Step-1: Make a candidate list of the ISEs of all kernels in the TIs.
//! Step-2: Remove ISEs from the candidate list that (a) require more
//! reconfigurable fabric than available, and (b) are covered by data paths
//! that are available from the already selected ISEs. Step-3: Compute the
//! profit of each ISE in the candidate list and then select the ISE with
//! the maximum profit. Step-4: Add the selected ISE to the output set,
//! update the reconfigurable hardware status, and remove all other ISEs of
//! the same kernel from the candidate list."*
//!
//! The ISE with the maximum profit is selected first and obtains the
//! resources; once a kernel has a selection it is final even if another
//! combination would yield a better overall profit — this is what reduces
//! the optimal algorithm's O(Mᴺ) to O(N·M) at a quality loss the paper
//! quantifies in Fig. 9 (and we reproduce in the `fig9` bench).
//!
//! # Lazy-greedy hot path
//!
//! The literal Fig. 6 loop re-evaluates the profit of *every* surviving
//! candidate on *every* commit round. Profits, however, are non-increasing
//! across rounds: committing an ISE only *appends* load requests to the
//! shadow reconfiguration ports (their `busy_until` never shrinks, DESIGN
//! §7), and distinct kernels never share load units, so a later evaluation
//! of the same candidate can only see equal-or-later unit-ready times and
//! therefore an equal-or-lower profit. That is exactly the submodularity
//! precondition of the CELF lazy-greedy optimisation: keep the candidates
//! ordered by their last-known (stale) profit, and on each round
//! re-evaluate only until the best candidate's *fresh* profit still beats
//! the next stale key — which is an upper bound on every other fresh
//! profit, so the winner is the exact arg-max the full re-scan would have
//! found. Ties are broken by the lower [`IseId`], matching the reference
//! loop.
//!
//! # Cursor runs
//!
//! Step 4 removes a served kernel's candidates all at once, so the order
//! is kept per kernel: each forecast trigger gets one *run*, a cursor into
//! its kernel's static rank (below). A run builds one entry only, its
//! *head*: the next candidate in rank that fits the current budget and has
//! a positive upper bound. Entries that leave the runs — a re-evaluated
//! one that lost to the next key, a group of tied bounds the rank does not
//! order — go to one small sorted list. The best remaining entry is the
//! largest of the ≤ K run heads and the list's best, and the merge yields
//! exactly the order a single global max-heap of all entries would pop —
//! the same evaluations in the same order. Each entry's order is packed
//! into one integer key, so a merge step is a scan of K integers. Serving
//! a kernel retires its runs in O(1) and drops its list entries; a shrunk
//! budget moves a head that no longer fits and drops the list entries
//! that no longer fit, so every entry in the merge is admissible.
//!
//! # Static rank
//!
//! In the spirit of Resano et al.'s hybrid heuristic (rank once at design
//! time, adjust at run time), the order of a run is fixed per catalogue:
//! [`ExpectedProfitEval`]'s bound `e·(risc − full)` shares `e` across a
//! trigger's candidates, so its runs are ordered by the per-execution
//! saving `risc − full`, then [`IseId`]. Each kernel's candidates are
//! ranked so once per catalogue, together with per-candidate bit masks of
//! the kernel's unit slots (see `RankTables`). The seed pass probes each
//! slot of a trigger's kernel into a needs-load mask; each candidate's new
//! demand is two popcounts against it, kept with the rank and recomputed
//! only when the kernel's mask changes. The seed evaluates and bounds
//! nothing.
//! A run's head is its maximum because positive bounds never rise along
//! the rank (the [`ProfitFn::upper_bound`] contract); the first exposure in
//! a group of equal bounds checks that the group comes in [`IseId`] order,
//! and sends it to the sorted list if not. An evaluator without a bound
//! reads as `+∞` for every candidate: one tied group, all of which the
//! first round evaluates, as the reference loop does.
//!
//! The reference full-rescan loop is kept behind
//! [`SelectorConfig::full_rescan`] as the test oracle, and the paper's
//! Section 5.4 overhead cost model keeps charging the *full-rescan*
//! evaluation count ([`Selection::modeled_evaluations`]) so the simulated
//! hardware cost of the run-time system is unchanged by this software
//! optimisation. The lazy path replays it once the loop is done: per
//! round, the candidate demands of the runs still unserved that fit the
//! round's budget — exactly the candidate list the reference loop's step 2
//! leaves to evaluate.

use crate::profit::ExpectedProfitEval;
use mrts_arch::{Cycles, LoadRequest, ReconfigurationController, Resources};
use mrts_ise::{Ise, IseCatalog, IseId, KernelId, TriggerBlock, TriggerInstruction, UnitId};

/// Section 5.4 cost model of the selector itself: fixed decision cycles per
/// forecast kernel (candidate-list management, hardware-status updates).
/// With `CYCLES_PER_CANDIDATE` it is calibrated so a typical functional
/// block lands near the paper's "less than 3000 cycles to select an ISE
/// for each kernel".
pub const BASE_CYCLES_PER_KERNEL: u64 = 300;
/// Section 5.4 cost model of the selector itself: cycles per
/// profit-function evaluation.
pub(crate) const CYCLES_PER_CANDIDATE: u64 = 75;

/// Selector configuration: which of two implementations with identical
/// output runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SelectorConfig {
    /// Run the literal Fig. 6 full re-scan instead of the exact lazy-greedy
    /// hot path. The two produce identical [`Selection`]s (the equivalence
    /// proptests assert it); the full re-scan stays as their test oracle.
    /// Off by default.
    pub full_rescan: bool,
}

/// One committed selection.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectedIse {
    /// The kernel the selection is for.
    pub kernel: KernelId,
    /// The chosen ISE.
    pub ise: IseId,
    /// Its expected profit at selection time (Eq. 4).
    pub profit: f64,
    /// The units that must actually be loaded (not already resident or
    /// streaming), in stage order.
    pub new_units: Vec<UnitId>,
}

/// The selector's complete answer for one trigger block.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// One entry per forecast kernel (`None` = stay in RISC mode /
    /// monoCG).
    pub choices: Vec<(KernelId, Option<IseId>)>,
    /// The committed selections in selection order (max-profit first).
    pub selected: Vec<SelectedIse>,
    /// All new units in the order they should be streamed.
    pub load_order: Vec<UnitId>,
    /// Total expected profit of the selected set (the objective of Eq. 5).
    pub total_profit: f64,
    /// Number of profit-function evaluations actually performed. With the
    /// lazy-greedy hot path this is strictly less work than the reference
    /// loop whenever more than one round runs.
    pub candidates_evaluated: u64,
    /// Number of evaluations the paper's literal Fig. 6 full re-scan would
    /// have performed — the count the Section 5.4 hardware cost model
    /// charges, so figure results are independent of the host-side
    /// algorithmic shortcut. Equal to `candidates_evaluated` when
    /// [`SelectorConfig::full_rescan`] is set.
    pub modeled_evaluations: u64,
    /// Modeled computation cost of this selection run (Section 5.4),
    /// derived from `modeled_evaluations`.
    pub overhead_cycles: Cycles,
}

/// A pluggable profit evaluator for [`select_ises_with`] and
/// [`dp_optimal_selection`](crate::optimal::dp_optimal_selection).
///
/// Implemented for any `FnMut(&Ise, &TriggerInstruction,
/// &ReconfigurationController) -> f64` closure, and by
/// [`ExpectedProfitEval`], the memoizing evaluator of the paper's Eqs. 1–4
/// that snapshots the shadow ports once per selection and catches up on
/// each commit's appended loads. [`Mrts`](crate::Mrts) plugs in the profit
/// its [`MrtsConfig::profit`](crate::MrtsConfig::profit) names through it.
///
/// # Contract
///
/// Between two [`ProfitFn::invalidate`] calls the evaluator may assume the
/// shadow controller passed to [`ProfitFn::eval`] is unchanged; the greedy
/// loop invalidates after every commit that mutates it. After an
/// invalidation the controller may have changed in any way: the greedy
/// loop only appends loads to it, and [`ExpectedProfitEval`] reads just the
/// appended tickets then, but it captures in full whatever is not such an
/// extension.
pub trait ProfitFn {
    /// Expected profit (cycles saved) of selecting `ise` under `trigger`
    /// given the shadow reconfiguration schedule.
    fn eval(
        &mut self,
        ise: &Ise,
        trigger: &TriggerInstruction,
        shadow: &ReconfigurationController,
    ) -> f64;

    /// The shadow controller is about to change (a candidate was
    /// committed); drop any memoized predictions.
    fn invalidate(&mut self) {}

    /// A cheap, schedule-independent **upper bound** on what [`eval`] can
    /// ever return for this candidate — valid for the initial shadow state
    /// and (by the monotonicity contract) for every later round too.
    ///
    /// The lazy-greedy loop keys its runs with bounds (CELF with optimistic
    /// initialization) and bounds a candidate only when its run's cursor
    /// reaches it: candidates whose bound never becomes the best remaining
    /// key are never evaluated at all, and a bound `<= 0` proves the
    /// candidate can never be selected. `None`, the default, reads as
    /// `+∞`: such candidates are all evaluated in the first round, which
    /// is always safe.
    ///
    /// One obligation comes with a bound. Along the kernel's static rank
    /// (per-execution saving `risc − full` descending, then [`IseId`]
    /// ascending), the positive bounds of one trigger, `None` read as
    /// `+∞`, never rise. Equal bounds may come in any [`IseId`] order.
    /// [`ExpectedProfitEval`]'s `e·(risc − full)` meets this for every
    /// `e`, since rounding a product is monotone. A `debug_assert!` checks
    /// it on every bound the loop compares.
    ///
    /// [`eval`]: ProfitFn::eval
    fn upper_bound(&mut self, ise: &Ise, trigger: &TriggerInstruction) -> Option<f64> {
        let _ = (ise, trigger);
        None
    }
}

impl<F> ProfitFn for F
where
    F: FnMut(&Ise, &TriggerInstruction, &ReconfigurationController) -> f64,
{
    fn eval(
        &mut self,
        ise: &Ise,
        trigger: &TriggerInstruction,
        shadow: &ReconfigurationController,
    ) -> f64 {
        self(ise, trigger, shadow)
    }
}

/// Runs the greedy ISE selection for one trigger block.
///
/// * `budget` — the reconfigurable fabric at the selector's disposal
///   (free fabric plus whatever the caller is willing to evict).
/// * `resident` — units already usable (previous selections, shared data
///   paths); they cost nothing and deliver their savings immediately.
/// * `controller` — the reconfiguration controller, used to predict
///   completion times (including loads already streaming).
#[must_use]
pub fn select_ises(
    catalog: &IseCatalog,
    forecast: &TriggerBlock,
    budget: Resources,
    resident: &dyn Fn(UnitId) -> bool,
    controller: &ReconfigurationController,
    now: Cycles,
    config: &SelectorConfig,
) -> Selection {
    let mut profit = ExpectedProfitEval::new(now, resident);
    select_ises_with(
        catalog,
        forecast,
        budget,
        resident,
        controller,
        now,
        config,
        &mut profit,
    )
}

/// One candidate ISE of the full-rescan oracle, paired with the index of
/// its forecast trigger. Stored by id, not reference, so the candidate
/// list can live in the lifetime-free [`SelectorScratch`]; resolving an id
/// through [`IseCatalog::ise`] is a dense-array index.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    ise: IseId,
    trigger: u32,
}

/// Mutable greedy state shared by the lazy and full-rescan paths.
struct GreedyState {
    now: Cycles,
    shadow: ReconfigurationController,
    remaining: Resources,
    /// Kernels already served (step 4's removal). A handful at most, so a
    /// linear scan beats hashing.
    selected_kernels: Vec<KernelId>,
    /// Sorted ids of every transfer queued or streaming on the shadow
    /// ports: the initial in-flight set plus everything committed so far.
    /// Mirrors `shadow.pending_ready_time(id).is_some()` exactly — nothing
    /// is ever removed during a selection (the shadow is never settled) —
    /// but answers in O(log n) instead of scanning both port queues.
    pending_ids: Vec<u64>,
    selected: Vec<SelectedIse>,
    load_order: Vec<UnitId>,
}

impl GreedyState {
    /// Whether artefact `id` is queued or streaming on the shadow ports.
    fn is_pending(&self, id: u64) -> bool {
        self.pending_ids.binary_search(&id).is_ok()
    }

    /// Records that `id` is now queued on the shadow ports.
    fn note_pending(&mut self, id: u64) {
        if let Err(pos) = self.pending_ids.binary_search(&id) {
            self.pending_ids.insert(pos, id);
        }
    }

    /// Resources a candidate still needs: units neither resident nor
    /// already streaming (same answer as the former per-stage
    /// `pending_ready_time` queue scan).
    fn new_demand<R: Fn(UnitId) -> bool + ?Sized>(&self, ise: &Ise, resident: &R) -> Resources {
        let mut cg = 0u16;
        let mut prc = 0u16;
        for s in ise.stages() {
            if !resident(s.unit) && !self.is_pending(s.unit.as_loaded_id()) {
                match s.fabric {
                    mrts_arch::FabricKind::FineGrained => prc += 1,
                    mrts_arch::FabricKind::CoarseGrained => cg += 1,
                }
            }
        }
        Resources::cg_only(cg) + Resources::prc_only(prc)
    }

    /// Step 4 of Fig. 6: commit one winner, whose new units need `demand`
    /// — update hardware status, stream the new units.
    fn commit<R: Fn(UnitId) -> bool + ?Sized>(
        &mut self,
        ise: &Ise,
        profit: f64,
        demand: Resources,
        resident: &R,
    ) {
        // `selected` may hold recycled entries past the commits so far
        // (see `SelectorScratch::reclaim_selected`): reuse their buffers.
        let k = self.selected_kernels.len();
        let mut new_units = self
            .selected
            .get_mut(k)
            .map(|s| std::mem::take(&mut s.new_units))
            .unwrap_or_default();
        new_units.clear();
        for stage in ise.stages() {
            if !resident(stage.unit) && !self.is_pending(stage.unit.as_loaded_id()) {
                new_units.push(stage.unit);
                self.shadow.request(
                    self.now,
                    LoadRequest {
                        id: stage.unit.as_loaded_id(),
                        fabric: stage.fabric,
                        duration: stage.load_duration,
                    },
                );
            }
        }
        for u in &new_units {
            self.note_pending(u.as_loaded_id());
        }
        debug_assert_eq!(
            demand.cg() + demand.prc(),
            new_units.len() as u16,
            "demand of {} disagrees with its new units",
            ise.id()
        );
        self.remaining = self.remaining.saturating_sub(demand);
        self.selected_kernels.push(ise.kernel());
        self.load_order.extend(new_units.iter().copied());
        let entry = SelectedIse {
            kernel: ise.kernel(),
            ise: ise.id(),
            profit,
            new_units,
        };
        match self.selected.get_mut(k) {
            Some(slot) => *slot = entry,
            None => self.selected.push(entry),
        }
    }

    /// Step 2 of Fig. 6: whether a candidate is still admissible.
    fn admissible<R: Fn(UnitId) -> bool + ?Sized>(&self, ise: &Ise, resident: &R) -> bool {
        !self.selected_kernels.contains(&ise.kernel())
            && self.new_demand(ise, resident).fits_in(self.remaining)
    }
}

/// Round stamp marking an entry keyed by [`ProfitFn::upper_bound`]:
/// never equal to a real commit round, so such entries are always treated
/// as stale (their key is an upper bound, not an evaluated profit).
const BOUND_ROUND: u32 = u32::MAX;

/// Entry of the lazy-greedy merge, ordered by its [`merge_key`]. Owns its
/// ids so the merge state can persist in [`SelectorScratch`] across blocks.
#[derive(Debug, Clone, Copy)]
struct LazyEntry {
    /// [`merge_key`] of the entry's profit, candidate and run; 0 marks no
    /// entry, as in an exhausted run's head.
    key: u128,
    /// The candidate's position in [`RankTables::ranked`] and
    /// [`RankTables::demands`].
    idx: u32,
    /// Commit round the profit was evaluated in; an entry is *fresh* iff
    /// its round equals the current one. [`BOUND_ROUND`] marks entries
    /// keyed by an upper bound, which are never fresh.
    round: u32,
}

/// The head of a run with no candidate left.
const NO_ENTRY: LazyEntry = LazyEntry {
    key: 0,
    idx: 0,
    round: 0,
};

/// The merge order as one integer, the larger first: the profit, then the
/// lower [`IseId`] (the reference loop's arg-max order), then the earlier
/// run (the two entries one candidate has when its kernel is triggered
/// twice tie on the first two). Every profit in the merge is positive, as
/// a bound or profit `<= 0` never enters it, and the bits of a positive
/// `f64`, `+∞` included, order as its value does; so the key orders
/// entries as the pair of comparisons would, and 0 is below every entry.
fn merge_key(profit: f64, ise: IseId, run: u32) -> u128 {
    debug_assert!(profit > 0.0, "merge entry of {ise} with profit {profit}");
    (u128::from(profit.to_bits()) << 64) | (u128::from(!ise.0) << 32) | u128::from(!run)
}

impl LazyEntry {
    fn profit(&self) -> f64 {
        f64::from_bits((self.key >> 64) as u64)
    }

    fn ise(&self) -> IseId {
        IseId(!((self.key >> 32) as u32))
    }

    /// The candidate's run, which is also its trigger's index.
    fn run(&self) -> usize {
        !(self.key as u32) as usize
    }

    /// The key without the run: the reference loop's arg-max order.
    fn arg_max_key(&self) -> u128 {
        self.key >> 32
    }
}

/// Puts `entry` into the sorted list at its place (worst first).
fn insert_sorted(sorted: &mut Vec<LazyEntry>, entry: LazyEntry) {
    let at = sorted.partition_point(|e| e.key < entry.key);
    sorted.insert(at, entry);
}

/// One forecast trigger's run: a cursor into its kernel's static rank.
/// Its head, the run's best remaining candidate, is kept apart, in the
/// heads the merge scans.
#[derive(Debug, Clone, Copy)]
struct Run {
    kernel: KernelId,
    /// The kernel's candidates in [`RankTables::ranked`] and their demands
    /// in [`RankTables::demands`]: `first..first + len`.
    first: u32,
    len: u32,
    /// The next rank position to look at.
    cursor: u32,
    /// Rank positions below this one are known to come in merge order:
    /// the group of equal bounds they belong to was checked.
    checked: u32,
    /// The commit round that served the run's kernel, `u32::MAX` while
    /// unserved.
    served: u32,
}

/// What a run's cursor reads: the static rank, the candidates' demands and
/// the budget they must fit.
struct RunView<'a> {
    ranked: &'a [RankedIse],
    demands: &'a [Resources],
    ises: &'a [Ise],
    triggers: &'a [TriggerInstruction],
    remaining: Resources,
}

impl RunView<'_> {
    /// Rank position `pos` of run `ti` as a merge entry keyed by its
    /// bound (`None` read as `+∞`), if it fits the budget and its bound is
    /// positive.
    fn entry<P: ProfitFn + ?Sized>(
        &self,
        run: &Run,
        ti: usize,
        pos: u32,
        profit: &mut P,
    ) -> Option<LazyEntry> {
        let idx = run.first + pos;
        if !self.demands[idx as usize].fits_in(self.remaining) {
            return None;
        }
        let id = self.ranked[idx as usize].ise;
        let bound = profit
            .upper_bound(&self.ises[id.index() as usize], &self.triggers[ti])
            .unwrap_or(f64::INFINITY);
        debug_assert!(!bound.is_nan(), "upper bound of {id} is NaN");
        (bound > 0.0).then(|| LazyEntry {
            key: merge_key(bound, id, ti as u32),
            idx,
            round: BOUND_ROUND,
        })
    }

    /// Moves run `ti`'s cursor to its next candidate that fits and has a
    /// positive bound, and returns it as the new head ([`NO_ENTRY`] when
    /// none is left). Bounds never rise along the rank (the
    /// [`ProfitFn::upper_bound`] contract), so the candidate outranks
    /// every later one unless a later one ties its bound with a lower
    /// [`IseId`]. The first exposure in a group of equal bounds checks
    /// that; a group out of `IseId` order goes to the sorted list whole,
    /// which orders it.
    fn advance<P: ProfitFn + ?Sized>(
        &self,
        run: &mut Run,
        ti: usize,
        profit: &mut P,
        sorted: &mut Vec<LazyEntry>,
    ) -> LazyEntry {
        while run.cursor < run.len {
            let pos = run.cursor;
            run.cursor += 1;
            let Some(head) = self.entry(run, ti, pos, profit) else {
                continue;
            };
            if pos < run.checked {
                return head;
            }
            let (mut end, mut last, mut in_order) = (pos + 1, head.ise(), true);
            while end < run.len {
                if let Some(e) = self.entry(run, ti, end, profit) {
                    debug_assert!(
                        e.profit() <= head.profit(),
                        "upper bounds of {} rise along the static rank: {} ({}) -> {} ({})",
                        run.kernel,
                        head.profit(),
                        head.ise(),
                        e.profit(),
                        e.ise()
                    );
                    if e.profit() < head.profit() {
                        break;
                    }
                    in_order &= e.ise() > last;
                    last = e.ise();
                }
                end += 1;
            }
            run.checked = end;
            if in_order {
                return head;
            }
            insert_sorted(sorted, head);
            for p in pos + 1..end {
                if let Some(e) = self.entry(run, ti, p, profit) {
                    insert_sorted(sorted, e);
                }
            }
            run.cursor = end;
        }
        NO_ENTRY
    }
}

/// The best remaining entry — the largest of the sorted list's last entry
/// and the run heads — with the index of the run it heads (`None`: it is
/// the sorted list's).
fn peek_best(heads: &[LazyEntry], sorted: &[LazyEntry]) -> Option<(LazyEntry, Option<usize>)> {
    let mut best = sorted.last().map_or(0, |e| e.key);
    let mut from = None;
    for (i, h) in heads.iter().enumerate() {
        if h.key > best {
            best = h.key;
            from = Some(i);
        }
    }
    match from {
        Some(i) => Some((heads[i], Some(i))),
        None => sorted.last().map(|&e| (e, None)),
    }
}

/// One candidate in a kernel's static rank, with the unit slots `0..64`
/// its stages use (a wide kernel's further slots are in
/// [`RankTables::wide`]).
#[derive(Debug, Clone, Copy)]
struct RankedIse {
    ise: IseId,
    /// The slots of its CG stages.
    cg: u64,
    /// The slots of its FG stages.
    fg: u64,
}

/// One kernel's entry in [`RankTables`]: ranges into its flat arrays.
#[derive(Debug, Clone, Copy, Default)]
struct KernelRanks {
    built: bool,
    /// The kernel's candidates in `ranked`.
    first: u32,
    len: u32,
    /// The kernel's unit slots in `slots`.
    slot_first: u32,
    slot_len: u32,
    /// Start of the kernel's slot words beyond the first in `wide`,
    /// `wide_words()` per candidate.
    wide_first: u32,
    /// Start of the kernel's needs-load mask in `needs`, `1 + wide_words()`
    /// words.
    need_first: u32,
    /// Whether `demands` holds the candidates' demands under that mask.
    demanded: bool,
}

impl KernelRanks {
    fn candidates(&self) -> std::ops::Range<usize> {
        self.first as usize..(self.first + self.len) as usize
    }

    fn slots(&self) -> std::ops::Range<usize> {
        self.slot_first as usize..(self.slot_first + self.slot_len) as usize
    }

    /// Slot words per candidate beyond the first.
    fn wide_words(&self) -> usize {
        (self.slot_len as usize).div_ceil(64).saturating_sub(1)
    }

    /// Candidate `r`'s words beyond the first in `wide`.
    fn wide_of(&self, r: usize) -> std::ops::Range<usize> {
        let words = self.wide_words();
        let start = self.wide_first as usize + r * words;
        start..start + words
    }

    /// The kernel's needs-load mask in `needs`.
    fn need(&self) -> std::ops::Range<usize> {
        self.need_first as usize..self.need_first as usize + 1 + self.wide_words()
    }
}

/// The lazy path's static view of a catalogue, built once per kernel (the
/// first time the kernel is triggered) and kept until the catalogue
/// changes. A catalogue is known by the address and length of its ISE and
/// unit slices, as for the profit evaluator's bound table: one built at
/// the very addresses of a dropped one, with the same sizes, would find
/// the old tables.
///
/// * **Rank.** A kernel's candidates sorted by per-execution saving
///   `risc − full` descending, then [`IseId`] ascending. Every candidate
///   of one trigger shares its `e`, so this is the order of the
///   [`ExpectedProfitEval`] upper bounds `e·(risc − full)`; a [`Run`] is
///   a cursor into it.
/// * **Unit masks.** Each distinct unit of the kernel gets a slot; each
///   candidate gets one bit mask of the slots its CG stages use and one of
///   its FG stages. A candidate's new demand is then two popcounts against
///   the trigger's needs-load mask — the count of its stages that need a
///   load, since an ISE uses each unit once (the catalogue builder gives
///   every data-path placement a unit of its own).
/// * **Demands.** Each candidate's demand under the needs-load mask of the
///   kernel's last trigger. Residency changes slowly, so a trigger almost
///   always finds its kernel's mask unchanged and its demands computed.
#[derive(Debug, Default)]
struct RankTables {
    /// Identity of the catalogue the tables describe: address and length
    /// of its ISE and unit slices.
    catalog: (usize, usize, usize, usize),
    /// Per kernel index.
    kernels: Vec<KernelRanks>,
    ranked: Vec<RankedIse>,
    /// Per kernel, its distinct units: slot `j` is the kernel's `j`-th.
    slots: Vec<UnitId>,
    /// `[cg, fg]` masks of slots `64·w..64·(w + 1)` for `w ≥ 1`, for the
    /// kernels with more than 64 slots.
    wide: Vec<[u64; 2]>,
    /// Per unit index, its absolute slot in `slots`.
    unit_slot: Vec<u32>,
    /// Per candidate in `ranked`, its demand under its kernel's mask in
    /// `needs`.
    demands: Vec<Resources>,
    /// Per kernel, the needs-load mask `demands` was computed for.
    needs: Vec<u64>,
    /// Build scratch: a kernel's candidates keyed by saving.
    order: Vec<(Cycles, IseId)>,
}

impl RankTables {
    /// Drops every table if `catalog` is not the one they describe.
    fn bind(&mut self, catalog: &IseCatalog) {
        let (ises, units) = (catalog.ises(), catalog.units());
        let key = (
            ises.as_ptr() as usize,
            ises.len(),
            units.as_ptr() as usize,
            units.len(),
        );
        if self.catalog != key {
            self.catalog = key;
            self.kernels.clear();
            self.kernels
                .resize(catalog.kernels().len(), KernelRanks::default());
            self.ranked.clear();
            self.ranked.reserve(ises.len());
            self.slots.clear();
            self.slots.reserve(units.len());
            self.unit_slot.clear();
            self.unit_slot.resize(units.len(), u32::MAX);
            self.wide.clear();
            self.demands.clear();
            self.needs.clear();
        }
    }

    /// `kernel`'s tables, built on first use.
    fn kernel(&mut self, catalog: &IseCatalog, kernel: KernelId) -> KernelRanks {
        let k = usize::from(kernel.index());
        if self.kernels.len() <= k {
            self.kernels.resize(k + 1, KernelRanks::default());
        }
        if !self.kernels[k].built {
            self.kernels[k] = self.build(catalog, kernel);
        }
        self.kernels[k]
    }

    fn build(&mut self, catalog: &IseCatalog, kernel: KernelId) -> KernelRanks {
        let ises = catalog.ises();
        let mut ids = std::mem::take(&mut self.order);
        ids.clear();
        ids.extend(catalog.ises_of(kernel).iter().map(|&id| {
            let ise = &ises[id.index() as usize];
            (ise.risc_latency() - ise.full_latency(), id)
        }));
        ids.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

        // Slot `j` is the kernel's `j`-th distinct unit in rank order.
        // Slots past 64 are only known once every candidate has been seen,
        // so their bits are set in a second pass.
        let slot_first = self.slots.len();
        let first = self.ranked.len();
        for &(_, id) in &ids {
            let mut masks = [0u64; 2];
            for s in ises[id.index() as usize].stages() {
                let slot = self.slot_of(slot_first, s.unit);
                if slot < 64 {
                    masks[fabric_index(s.fabric)] |= 1 << slot;
                }
            }
            let [cg, fg] = masks;
            self.ranked.push(RankedIse { ise: id, cg, fg });
        }
        let kr = KernelRanks {
            built: true,
            first: first as u32,
            len: ids.len() as u32,
            slot_first: slot_first as u32,
            slot_len: (self.slots.len() - slot_first) as u32,
            wide_first: self.wide.len() as u32,
            need_first: self.needs.len() as u32,
            demanded: false,
        };
        self.demands.resize(self.ranked.len(), Resources::NONE);
        self.needs.resize(kr.need().end, 0);
        if kr.wide_words() > 0 {
            for (r, &(_, id)) in ids.iter().enumerate() {
                let wide = kr.wide_of(r);
                self.wide.resize(wide.end, [0, 0]);
                for s in ises[id.index() as usize].stages() {
                    let slot = self.slot_of(slot_first, s.unit);
                    if slot >= 64 {
                        self.wide[wide.start + slot / 64 - 1][fabric_index(s.fabric)] |=
                            1 << (slot % 64);
                    }
                }
            }
        }
        self.order = ids;
        kr
    }

    /// Makes `demands` of `kernel`'s candidates their new demands under
    /// `need`, the kernel's needs-load mask: two popcounts per candidate,
    /// skipped when they were last computed for the same mask.
    fn refresh_demands(&mut self, kernel: KernelId, need: &[u64]) {
        let kr = &mut self.kernels[usize::from(kernel.index())];
        if kr.demanded && self.needs[kr.need()] == *need {
            return;
        }
        kr.demanded = true;
        let kr = *kr;
        self.needs[kr.need()].copy_from_slice(need);
        let wide = kr.wide_words() > 0;
        let ranked = &self.ranked[kr.candidates()];
        for (r, (c, demand)) in ranked
            .iter()
            .zip(&mut self.demands[kr.candidates()])
            .enumerate()
        {
            let mut cg = (c.cg & need[0]).count_ones();
            let mut prc = (c.fg & need[0]).count_ones();
            if wide {
                for (&[cg_mask, fg_mask], &n) in self.wide[kr.wide_of(r)].iter().zip(&need[1..]) {
                    cg += (cg_mask & n).count_ones();
                    prc += (fg_mask & n).count_ones();
                }
            }
            *demand = Resources::new(cg as u16, prc as u16);
        }
    }

    /// The slot of `unit` relative to the kernel whose slots start at
    /// `slot_first`, appended if new.
    fn slot_of(&mut self, slot_first: usize, unit: UnitId) -> usize {
        let entry = &mut self.unit_slot[unit.index() as usize];
        let j = *entry as usize;
        if (slot_first..self.slots.len()).contains(&j) {
            return j - slot_first;
        }
        *entry = self.slots.len() as u32;
        self.slots.push(unit);
        self.slots.len() - 1 - slot_first
    }
}

/// 0 for a CG stage, 1 for an FG stage: the index of its mask in
/// [`RankedIse`] and [`RankTables::wide`].
fn fabric_index(fabric: mrts_arch::FabricKind) -> usize {
    match fabric {
        mrts_arch::FabricKind::CoarseGrained => 0,
        mrts_arch::FabricKind::FineGrained => 1,
    }
}

/// How many of `demands` fit `budget`; written without a branch so it
/// vectorises.
fn count_fitting(demands: &[Resources], budget: Resources) -> u64 {
    demands
        .iter()
        .map(|d| u64::from((d.cg() <= budget.cg()) & (d.prc() <= budget.prc())))
        .sum()
}

/// Reusable allocation arena for the selector's per-block working set.
///
/// Every `Vec` and shadow-controller queue the greedy loop needs is kept
/// here between blocks: the candidate demands, the runs, the sorted list
/// of entries outside the runs' cursors, and the catalogue's static rank
/// tables, which persist until the catalogue changes. A caller that holds
/// one scratch across a run (mRTS does) thus makes steady-state selection
/// allocation-free except for the buffers that escape into the returned
/// [`Selection`] — and even those can be donated back via
/// [`SelectorScratch::reclaim`] once the consuming engine recycles the
/// applied plan.
#[derive(Debug, Default)]
pub struct SelectorScratch {
    candidates: Vec<Candidate>,
    pending_ids: Vec<u64>,
    runs: Vec<Run>,
    /// Each run's head, [`NO_ENTRY`] once it has none.
    heads: Vec<LazyEntry>,
    /// The merge entries outside the runs' cursors, worst first.
    sorted: Vec<LazyEntry>,
    /// The remaining budget at the start of each commit round.
    budgets: Vec<Resources>,
    /// The catalogue's per-kernel candidate ranks, unit masks and demands.
    ranks: RankTables,
    /// The current trigger's needs-load mask, one bit per unit slot.
    need: Vec<u64>,
    shadow: ReconfigurationController,
    selected_kernels: Vec<KernelId>,
    /// Spare storage for the outgoing `Selection::choices` /
    /// `Selection::load_order`, refilled by [`SelectorScratch::reclaim`].
    choices_spare: Vec<(KernelId, Option<IseId>)>,
    load_order_spare: Vec<UnitId>,
    /// Spare `Selection::selected`, refilled by
    /// [`SelectorScratch::reclaim_selected`].
    selected_spare: Vec<SelectedIse>,
}

impl Clone for SelectorScratch {
    /// Scratch contents are per-block transients with no observable
    /// effect on selection output, so a clone simply starts empty.
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl SelectorScratch {
    /// Creates an empty scratch arena.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a consumed selection's escaping buffers (the choice list
    /// and load order that travelled out through the block plan) so the
    /// next selection reuses their capacity.
    pub fn reclaim(&mut self, choices: Vec<(KernelId, Option<IseId>)>, load_order: Vec<UnitId>) {
        if choices.capacity() > self.choices_spare.capacity() {
            self.choices_spare = choices;
        }
        if load_order.capacity() > self.load_order_spare.capacity() {
            self.load_order_spare = load_order;
        }
    }

    /// Takes the spare choice list and load order, for a plan built
    /// outside the selector (a memo hit) to refill;
    /// [`SelectorScratch::reclaim`] returns them.
    pub(crate) fn take_plan_buffers(&mut self) -> (Vec<(KernelId, Option<IseId>)>, Vec<UnitId>) {
        (
            std::mem::take(&mut self.choices_spare),
            std::mem::take(&mut self.load_order_spare),
        )
    }

    /// Returns a consumed selection's `selected` list, so the next
    /// selection reuses it and its entries' unit buffers.
    pub fn reclaim_selected(&mut self, selected: Vec<SelectedIse>) {
        if selected.capacity() > self.selected_spare.capacity() {
            self.selected_spare = selected;
        }
    }
}

/// [`select_ises`] with a custom profit evaluator, reusing the identical
/// greedy loop. Allocates a throwaway scratch arena;
/// hot-path callers hold a [`SelectorScratch`] across blocks and use
/// [`select_ises_with_scratch`] instead.
#[allow(clippy::too_many_arguments)]
#[must_use]
pub fn select_ises_with<P: ProfitFn + ?Sized>(
    catalog: &IseCatalog,
    forecast: &TriggerBlock,
    budget: Resources,
    resident: &dyn Fn(UnitId) -> bool,
    controller: &ReconfigurationController,
    now: Cycles,
    config: &SelectorConfig,
    profit: &mut P,
) -> Selection {
    let mut scratch = SelectorScratch::new();
    select_ises_with_scratch(
        catalog,
        forecast,
        budget,
        resident,
        controller,
        now,
        config,
        profit,
        &mut scratch,
    )
}

/// [`select_ises_with`] drawing every working buffer from a caller-held
/// [`SelectorScratch`], so repeated selections (one per trigger block) run
/// without heap allocation in the steady state. Byte-identical output to
/// the scratch-free entry points. `resident` may be a concrete closure, so
/// its probes inline; [`select_ises_with`] passes a `&dyn Fn`.
#[allow(clippy::too_many_arguments)]
#[must_use]
pub fn select_ises_with_scratch<R: Fn(UnitId) -> bool + ?Sized, P: ProfitFn + ?Sized>(
    catalog: &IseCatalog,
    forecast: &TriggerBlock,
    budget: Resources,
    resident: &R,
    controller: &ReconfigurationController,
    now: Cycles,
    config: &SelectorConfig,
    profit: &mut P,
    scratch: &mut SelectorScratch,
) -> Selection {
    let triggers: &[TriggerInstruction] = &forecast.triggers;
    let mut pending_ids = std::mem::take(&mut scratch.pending_ids);
    pending_ids.clear();
    pending_ids.extend(controller.inflight_tickets().map(|t| t.id));
    pending_ids.sort_unstable();
    pending_ids.dedup();
    let mut shadow = std::mem::replace(&mut scratch.shadow, ReconfigurationController::new());
    shadow.clone_schedule_from(controller);
    let mut selected_kernels = std::mem::take(&mut scratch.selected_kernels);
    selected_kernels.clear();
    let mut load_order = std::mem::take(&mut scratch.load_order_spare);
    load_order.clear();
    let mut state = GreedyState {
        now,
        shadow,
        remaining: budget,
        selected_kernels,
        pending_ids,
        selected: std::mem::take(&mut scratch.selected_spare),
        load_order,
    };
    let mut evaluated = 0u64;
    let mut modeled = 0u64;

    if config.full_rescan {
        // The literal Fig. 6 loop: re-evaluate every surviving candidate on
        // every round. Kept as the oracle for the lazy-greedy hot path.
        // Step 1: candidate list of all ISEs of all forecast kernels.
        let mut candidates = std::mem::take(&mut scratch.candidates);
        candidates.clear();
        for (ti, trigger) in triggers.iter().enumerate() {
            for &ise in catalog.ises_of(trigger.kernel) {
                candidates.push(Candidate {
                    ise,
                    trigger: ti as u32,
                });
            }
        }
        loop {
            // Step 2: prune non-fitting candidates (resident/streaming units
            // are free, so only genuinely new units count against the
            // budget), and candidates of already-served kernels (step 4's
            // removal).
            candidates.retain(|c| {
                let ise = catalog.ise(c.ise).expect("catalogue ids are dense");
                state.admissible(ise, resident)
            });
            if candidates.is_empty() {
                break;
            }

            // Step 3: profit of every remaining candidate under the current
            // hardware status (units planned for earlier selections are
            // already queued in the shadow controller, so sharing is
            // accounted for).
            let mut best: Option<(usize, f64)> = None;
            for (i, c) in candidates.iter().enumerate() {
                let ise = catalog.ise(c.ise).expect("catalogue ids are dense");
                let p = profit.eval(ise, &triggers[c.trigger as usize], &state.shadow);
                evaluated += 1;
                if p <= 0.0 {
                    continue; // an unprofitable ISE is never worth its fabric
                }
                let better = match best {
                    None => true,
                    Some((bi, bp)) => {
                        p > bp + f64::EPSILON
                            || ((p - bp).abs() <= f64::EPSILON && c.ise < candidates[bi].ise)
                    }
                };
                if better {
                    best = Some((i, p));
                }
            }
            let Some((best_idx, best_profit)) = best else {
                break; // nothing profitable remains
            };
            let winner = catalog
                .ise(candidates[best_idx].ise)
                .expect("catalogue ids are dense");
            let demand = state.new_demand(winner, resident);
            state.commit(winner, best_profit, demand, resident);
            profit.invalidate();
        }
        modeled = evaluated;
        scratch.candidates = candidates;
    } else {
        // Lazy-greedy (CELF) over cursor runs: identical output, far fewer
        // evaluations. Seed pass: one sweep makes the rank tables hold
        // every candidate's demand under its trigger's needs-load mask. A
        // demand is valid for the *whole* selection: residency
        // is frozen while the machine is untouched, and the pending set
        // only grows with committed units — which belong to the committed
        // kernel and are never shared with another kernel's candidates
        // (the same no-shared-load-units invariant the lazy-greedy
        // monotonicity argument rests on).
        let mut runs = std::mem::take(&mut scratch.runs);
        runs.clear();
        let mut heads = std::mem::take(&mut scratch.heads);
        let mut sorted = std::mem::take(&mut scratch.sorted);
        sorted.clear();
        let mut budgets = std::mem::take(&mut scratch.budgets);
        budgets.clear();
        let mut ranks = std::mem::take(&mut scratch.ranks);
        ranks.bind(catalog);
        let mut need = std::mem::take(&mut scratch.need);
        let mut round = 0u32;
        // Catalogue ids are dense: an id indexes the ISE slice directly.
        let ises = catalog.ises();
        for trigger in triggers {
            let kr = ranks.kernel(catalog, trigger.kernel);
            // Probe every unit slot of the kernel once: a set bit needs a
            // load (neither resident nor streaming).
            need.clear();
            need.resize(1 + kr.wide_words(), 0);
            for (j, &unit) in ranks.slots[kr.slots()].iter().enumerate() {
                if !resident(unit) && !state.is_pending(unit.as_loaded_id()) {
                    need[j / 64] |= 1 << (j % 64);
                }
            }
            ranks.refresh_demands(trigger.kernel, &need);
            runs.push(Run {
                kernel: trigger.kernel,
                first: kr.first,
                len: kr.len,
                cursor: 0,
                checked: 0,
                served: u32::MAX,
            });
        }
        let demands = &ranks.demands;
        let mut view = RunView {
            ranked: &ranks.ranked,
            demands,
            ises,
            triggers,
            remaining: state.remaining,
        };
        // Each run exposes its head.
        heads.clear();
        for (ti, run) in runs.iter_mut().enumerate() {
            heads.push(view.advance(run, ti, profit, &mut sorted));
        }
        // Every entry in the merge is admissible, so the reference loop's
        // rounds are exactly the rounds here: each round while the merge
        // has an entry, plus the one that finds it empty. `budgets[r]` is
        // the budget of round `r`, for `modeled` below.
        budgets.push(state.remaining);
        let mut next = peek_best(&heads, &sorted);
        while next.is_some() {
            // Exact arg-max: take the best remaining entry until it is
            // fresh (or provably dominant after re-evaluation). `next` is
            // always the best remaining entry.
            let winner = loop {
                let Some((top, from)) = next else {
                    break None;
                };
                match from {
                    Some(ti) => heads[ti] = view.advance(&mut runs[ti], ti, profit, &mut sorted),
                    None => {
                        sorted.pop();
                    }
                }
                // Commits retire served runs and drop what no longer fits.
                debug_assert!(
                    runs[top.run()].served == u32::MAX
                        && demands[top.idx as usize].fits_in(state.remaining),
                    "inadmissible entry {} left in the merge",
                    top.ise()
                );
                if top.round == round {
                    break Some(top);
                }
                let ise = &ises[top.ise().index() as usize];
                let p = profit.eval(ise, &triggers[top.run()], &state.shadow);
                evaluated += 1;
                debug_assert!(
                    p <= top.profit() + 1e-6 + top.profit().abs() * 1e-9,
                    "profit monotonicity violated for {}: {} (stale) -> {} (fresh)",
                    top.ise(),
                    top.profit(),
                    p
                );
                next = peek_best(&heads, &sorted);
                if p <= 0.0 {
                    continue; // profits never recover: drop permanently
                }
                let fresh = LazyEntry {
                    key: merge_key(p, top.ise(), top.run() as u32),
                    round,
                    ..top
                };
                // A fresh key that still beats the next (stale ⇒ upper
                // bound) key beats every fresh profit left. One that does
                // not goes below `next`, which stays the best.
                match next {
                    Some((n, _)) if fresh.arg_max_key() < n.arg_max_key() => {
                        insert_sorted(&mut sorted, fresh);
                    }
                    _ => break Some(fresh),
                }
            };
            let Some(winner) = winner else { break };
            let winner_ise = &ises[winner.ise().index() as usize];
            let before = state.remaining;
            state.commit(
                winner_ise,
                winner.profit(),
                demands[winner.idx as usize],
                resident,
            );
            profit.invalidate();
            // Step 4: the served kernel's remaining candidates leave at once.
            // Only a shrunk budget can drop other runs' candidates: a head
            // that no longer fits moves on.
            let served = runs[winner.run()].kernel;
            let shrunk = state.remaining != before;
            view.remaining = state.remaining;
            let fits = |d: &Resources| d.fits_in(state.remaining);
            for (ti, r) in runs.iter_mut().enumerate() {
                if r.kernel == served {
                    heads[ti] = NO_ENTRY;
                    r.cursor = r.len;
                    r.served = round;
                } else if shrunk && heads[ti].key != 0 && !fits(&demands[heads[ti].idx as usize]) {
                    heads[ti] = view.advance(r, ti, profit, &mut sorted);
                }
            }
            sorted.retain(|e| runs[e.run()].kernel != served && fits(&demands[e.idx as usize]));
            round += 1;
            budgets.push(state.remaining);
            next = peek_best(&heads, &sorted);
        }
        // The reference loop evaluates every admissible candidate of every
        // unserved kernel per round: that count is `modeled`'s charge. A
        // run takes part in the rounds up to the one that served it, and
        // budgets only shrink, so a candidate fits a prefix of those rounds.
        for run in &runs {
            let all = &ranks.demands[run.first as usize..(run.first + run.len) as usize];
            let rounds = &budgets[..=(run.served as usize).min(budgets.len() - 1)];
            for &budget in rounds {
                let fitting = count_fitting(all, budget);
                if fitting == 0 {
                    break; // budgets only shrink
                }
                modeled += fitting;
            }
        }
        scratch.runs = runs;
        scratch.heads = heads;
        scratch.sorted = sorted;
        scratch.budgets = budgets;
        scratch.ranks = ranks;
        scratch.need = need;
    }

    state.selected.truncate(state.selected_kernels.len());
    // Selections are one per kernel and few: a linear scan per forecast
    // kernel beats building a hash map.
    let mut choices = std::mem::take(&mut scratch.choices_spare);
    choices.clear();
    choices.extend(triggers.iter().map(|t| {
        let sel = state
            .selected
            .iter()
            .find(|s| s.kernel == t.kernel)
            .map(|s| s.ise);
        (t.kernel, sel)
    }));
    let total_profit = state.selected.iter().map(|s| s.profit).sum();
    let overhead_cycles = Cycles::new(
        BASE_CYCLES_PER_KERNEL * forecast.kernel_count() as u64 + CYCLES_PER_CANDIDATE * modeled,
    );

    // Hand every working buffer back to the arena for the next block.
    scratch.pending_ids = state.pending_ids;
    scratch.shadow = state.shadow;
    scratch.selected_kernels = state.selected_kernels;

    Selection {
        choices,
        selected: state.selected,
        load_order: state.load_order,
        total_profit,
        candidates_evaluated: evaluated,
        modeled_evaluations: modeled,
        overhead_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrts_arch::ArchParams;
    use mrts_ise::datapath::{DataPathGraph, OpKind};
    use mrts_ise::{CatalogBuilder, KernelSpec, TriggerInstruction};

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

    fn catalog() -> IseCatalog {
        CatalogBuilder::new(ArchParams::default())
            .kernel(
                KernelSpec::new("deblock")
                    .data_path(bit_graph("cond"), 16)
                    .data_path(word_graph("filt"), 16)
                    .overhead_cycles(120),
            )
            .kernel(
                KernelSpec::new("sad")
                    .data_path(word_graph("sad16"), 64)
                    .overhead_cycles(80),
            )
            .build()
            .unwrap()
    }

    fn forecast(catalog: &IseCatalog, e0: u64, e1: u64) -> TriggerBlock {
        let _ = catalog;
        TriggerBlock::new(
            mrts_ise::BlockId(0),
            vec![
                TriggerInstruction::new(KernelId(0), e0, Cycles::new(1_000), Cycles::new(350)),
                TriggerInstruction::new(KernelId(1), e1, Cycles::new(3_000), Cycles::new(150)),
            ],
        )
    }

    fn none_resident(_: UnitId) -> bool {
        false
    }

    fn run(c: &IseCatalog, f: &TriggerBlock, budget: Resources) -> Selection {
        select_ises(
            c,
            f,
            budget,
            &none_resident,
            &ReconfigurationController::new(),
            Cycles::ZERO,
            &SelectorConfig::default(),
        )
    }

    fn run_rescan(c: &IseCatalog, f: &TriggerBlock, budget: Resources) -> Selection {
        select_ises(
            c,
            f,
            budget,
            &none_resident,
            &ReconfigurationController::new(),
            Cycles::ZERO,
            &SelectorConfig { full_rescan: true },
        )
    }

    #[test]
    fn one_ise_per_kernel_and_budget_respected() {
        let c = catalog();
        let f = forecast(&c, 3_000, 20_000);
        for budget in [
            Resources::new(0, 0),
            Resources::new(1, 0),
            Resources::new(0, 2),
            Resources::new(2, 2),
            Resources::new(4, 4),
        ] {
            let s = run(&c, &f, budget);
            // At most one selection per kernel.
            assert!(s.selected.len() <= 2);
            let mut kernels: Vec<KernelId> = s.selected.iter().map(|x| x.kernel).collect();
            kernels.dedup();
            assert_eq!(kernels.len(), s.selected.len());
            // Total demand of new units fits the budget.
            let demand: Resources = s.load_order.iter().map(|u| c.unit(*u).resources()).sum();
            assert!(demand.fits_in(budget), "{demand} vs {budget}");
            // Choices cover every forecast kernel.
            assert_eq!(s.choices.len(), 2);
        }
    }

    #[test]
    fn zero_budget_selects_nothing() {
        let c = catalog();
        let s = run(&c, &forecast(&c, 3_000, 20_000), Resources::NONE);
        assert!(s.selected.is_empty());
        assert!(s.load_order.is_empty());
        assert_eq!(s.total_profit, 0.0);
        // Still pays the per-kernel bookkeeping cost.
        assert!(s.overhead_cycles > Cycles::ZERO);
    }

    #[test]
    fn highest_profit_kernel_served_first() {
        let c = catalog();
        // sad has far more executions: it should be selected first.
        let s = run(&c, &forecast(&c, 300, 50_000), Resources::new(2, 2));
        assert!(!s.selected.is_empty());
        assert_eq!(s.selected[0].kernel, KernelId(1), "{:?}", s.selected);
        assert!(s.total_profit > 0.0);
    }

    #[test]
    fn resident_units_make_candidates_cheaper() {
        let c = catalog();
        let f = forecast(&c, 3_000, 20_000);
        // Find some unit of a deblock ISE and mark it resident.
        let deblock_unit = c
            .ises_of(KernelId(0))
            .iter()
            .map(|i| c.ise(*i).unwrap())
            .flat_map(|i| i.unit_ids().collect::<Vec<_>>())
            .next()
            .unwrap();
        let resident = move |u: UnitId| u == deblock_unit;
        let tight = Resources::new(1, 1);
        let with = select_ises(
            &c,
            &f,
            tight,
            &resident,
            &ReconfigurationController::new(),
            Cycles::ZERO,
            &SelectorConfig::default(),
        );
        let without = run(&c, &f, tight);
        // The resident unit widens what fits, so profit cannot drop.
        assert!(with.total_profit >= without.total_profit - 1e-6);
    }

    #[test]
    fn overhead_scales_with_candidates() {
        let c = catalog();
        let f1 = TriggerBlock::new(
            mrts_ise::BlockId(0),
            vec![TriggerInstruction::new(
                KernelId(0),
                1_000,
                Cycles::new(500),
                Cycles::new(300),
            )],
        );
        let f2 = forecast(&c, 1_000, 1_000);
        let s1 = run(&c, &f1, Resources::new(4, 4));
        let s2 = run(&c, &f2, Resources::new(4, 4));
        assert!(s2.modeled_evaluations > s1.modeled_evaluations);
        assert!(s2.overhead_cycles > s1.overhead_cycles);
    }

    #[test]
    fn selection_is_deterministic() {
        let c = catalog();
        let f = forecast(&c, 3_000, 20_000);
        let a = run(&c, &f, Resources::new(2, 3));
        let b = run(&c, &f, Resources::new(2, 3));
        assert_eq!(a, b);
    }

    #[test]
    fn lazy_matches_full_rescan_and_evaluates_less() {
        let c = catalog();
        for (e0, e1) in [(3_000, 20_000), (300, 50_000), (50_000, 300), (10, 10)] {
            let f = forecast(&c, e0, e1);
            for budget in [
                Resources::new(0, 2),
                Resources::new(2, 0),
                Resources::new(2, 2),
                Resources::new(4, 4),
            ] {
                let lazy = run(&c, &f, budget);
                let oracle = run_rescan(&c, &f, budget);
                assert_eq!(lazy.choices, oracle.choices);
                assert_eq!(lazy.selected, oracle.selected);
                assert_eq!(lazy.load_order, oracle.load_order);
                assert_eq!(lazy.total_profit.to_bits(), oracle.total_profit.to_bits());
                // The hardware cost model is charged identically…
                assert_eq!(lazy.modeled_evaluations, oracle.modeled_evaluations);
                assert_eq!(lazy.overhead_cycles, oracle.overhead_cycles);
                // …while the host does at most the reference's work.
                assert!(lazy.candidates_evaluated <= oracle.candidates_evaluated);
            }
        }
    }

    #[test]
    fn lazy_skips_reevaluations_on_multi_round_selection() {
        let c = catalog();
        // Ample budget and balanced executions force at least two commit
        // rounds, where laziness pays.
        let f = forecast(&c, 30_000, 20_000);
        let lazy = run(&c, &f, Resources::new(4, 4));
        let oracle = run_rescan(&c, &f, Resources::new(4, 4));
        assert!(lazy.selected.len() >= 2, "{:?}", lazy.selected);
        assert!(
            lazy.candidates_evaluated < oracle.candidates_evaluated,
            "lazy {} vs oracle {}",
            lazy.candidates_evaluated,
            oracle.candidates_evaluated
        );
    }
}
