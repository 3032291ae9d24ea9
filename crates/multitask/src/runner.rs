//! The multi-tenant runner: interleaves per-tenant simulators on one core
//! and one fabric.
//!
//! Each tenant owns a [`Simulator`] over its slice of the fabric (a
//! [`Machine`] resized to the arbiter's grant) and a private run-time
//! system instance built by the shared policy factory
//! ([`mrts_baselines::make_policy`], with the run's [`PolicyTuning`]) —
//! mRTS state (MPU history, fault blacklist) never leaks between tenants.
//! The scheduler picks which tenant's next block activation runs;
//! everything else is bookkeeping:
//!
//! * a context switch is charged only when the core *changes* tenants
//!   (the first dispatch is free, so one tenant ⇒ zero switches),
//! * a descheduled tenant's in-flight reconfigurations keep streaming —
//!   [`Simulator::advance_to`] settles them against the global clock
//!   before the tenant runs again,
//! * when a tenant finishes, the dynamic arbiter redistributes its freed
//!   slice by remaining RISC demand and each beneficiary's machine is
//!   grown in place (a re-partition cost is charged once, globally).
//!
//! Every session goes through one life cycle, whether it is part of an
//! up-front batch ([`run_multitask`]) or arrives mid-run from the fleet:
//! [`MultitaskRunner::admit_session`] builds it on a slice carved from the
//! arbiter's free store, [`MultitaskRunner::step`] runs it block by block,
//! and [`MultitaskRunner::finish_session`] or
//! [`MultitaskRunner::depart_session`] settles its departure.
//!
//! A session's *id* is its admission index: stable for the whole run, it
//! names the session in [`StepOutcome::Ran`], in the per-session methods
//! and in [`TenantStats::tenant`]. The runner iterates only its *live*
//! list — admitted-and-unfinished or queued sessions, in ascending id
//! order — and the scheduler and arbiter index their per-tenant state by
//! position in that list. A departed session is retired from it: its
//! simulator, policy and scratch are dropped and only its
//! [`TenantStats`] survive, so a dispatch costs the same however many
//! sessions came before.

use crate::admission::{AdmissionController, AdmissionOutcome, AdmissionPolicy};
use crate::arbiter::{ArbiterPolicy, FabricArbiter};
use crate::scheduler::SchedulerKind;
use crate::slo::{ladder_cap, Criticality, Slo, SloSnapshot, LADDER_BOTTOM};
use mrts_arch::{ArchError, ArchParams, Cycles, FaultModel, Machine, Resources, SwitchCosts};
use mrts_baselines::{make_policy, PolicyTuning, ProfiledTotals};
use mrts_ise::{BlockId, IseCatalog, KernelId};
use mrts_sim::timeline::{EventSink, SimEvent, Timeline, VecSink};
use mrts_sim::{MultitaskStats, RiscOnlyPolicy, RunStats, RuntimePolicy, Simulator, TenantStats};
use mrts_workload::Trace;
use std::cmp::Reverse;
use std::fmt;

/// One application competing for the machine.
#[derive(Debug)]
pub struct TenantSpec<'a> {
    /// Display name (reports and stats).
    pub name: String,
    /// The tenant's compile-time ISE catalogue.
    pub catalog: &'a IseCatalog,
    /// The tenant's block-activation trace.
    pub trace: &'a Trace,
    /// Scheduling weight (priority under `prio`, share under `wfq`).
    pub weight: u64,
    /// Optional per-tenant injected-fault source (PR 1 substrate); fault
    /// state stays inside the tenant's own machine slice.
    pub fault_model: Option<FaultModel>,
    /// Optional service-level objective: deadlines and criticality. `None`
    /// runs the tenant exactly as before SLOs existed.
    pub slo: Option<Slo>,
}

impl<'a> TenantSpec<'a> {
    /// Creates a weight-1, fault-free tenant without an SLO.
    #[must_use]
    pub fn new(name: impl Into<String>, catalog: &'a IseCatalog, trace: &'a Trace) -> Self {
        TenantSpec {
            name: name.into(),
            catalog,
            trace,
            weight: 1,
            fault_model: None,
            slo: None,
        }
    }

    /// Sets the scheduling weight.
    #[must_use]
    pub fn with_weight(mut self, weight: u64) -> Self {
        self.weight = weight;
        self
    }

    /// Arms an injected-fault source on this tenant's fabric slice.
    #[must_use]
    pub fn with_fault_model(mut self, fault_model: FaultModel) -> Self {
        self.fault_model = Some(fault_model);
        self
    }

    /// Attaches a service-level objective.
    #[must_use]
    pub fn with_slo(mut self, slo: Slo) -> Self {
        self.slo = Some(slo);
        self
    }
}

/// Configuration of a multi-tenant run.
#[derive(Debug, Clone)]
pub struct MultitaskConfig {
    /// Per-tenant run-time system, by factory name
    /// (see [`mrts_baselines::POLICY_NAMES`]).
    pub policy: String,
    /// Fabric space-partitioning discipline.
    pub arbiter: ArbiterPolicy,
    /// Core time-sharing discipline.
    pub scheduler: SchedulerKind,
    /// Context-switch and re-partition costs.
    pub costs: SwitchCosts,
    /// Amortisation gate of the dynamic arbiter: a tenant receives part of
    /// a freed slice only if its remaining RISC demand is at least this
    /// many cycles. Growing a slice tempts the tenant's selector into
    /// fresh (millisecond-scale) fine-grained reloads, which cannot pay
    /// back in the last few blocks of a trace — Eq. 1 of the paper applied
    /// at the arbiter level. The default (50 Mcycles ≈ 125 ms at the
    /// 400 MHz core) covers well over a hundred FG reloads, so only
    /// tenants with substantial work left are grown; a tenant nearing the
    /// end of its trace keeps its static share instead.
    pub repartition_min_demand: Cycles,
    /// What to do with SLO mixes that fail the feasibility test.
    pub admission: AdmissionPolicy,
    /// Whether the laxity monitor may run the degradation ladder: demote
    /// slack-rich tenants (shrinking their ISE budget down to pure RISC)
    /// and loan the freed fabric to projected-tardy tenants, reversing the
    /// loans when laxity recovers. A no-op when no tenant has an SLO, so
    /// the default `true` leaves SLO-free runs bit-identical.
    pub degrade: bool,
    /// Worker threads for the intra-run parallel phases (`1` = fully
    /// serial). The block-dispatch loop itself is inherently sequential —
    /// every scheduler pick depends on the outcome of the previous block
    /// through the shared clock — so the workers parallelise the phase
    /// where tenants *are* independent: the per-tenant setup barrier
    /// before the shared clock starts (solo RISC baselines, each a full
    /// trace simulation, plus the remaining-demand suffix sums). Results
    /// merge in tenant-index order at the barrier, so the output is
    /// byte-identical to the serial run for any worker count.
    pub workers: usize,
    /// mRTS tuning knobs (MPU learning rate, speculative prefetch),
    /// applied identically to every tenant's policy instance. Ignored by
    /// the baseline policies. The default is the untuned configuration.
    pub tuning: PolicyTuning,
}

impl Default for MultitaskConfig {
    /// mRTS tenants, dynamic arbiter, weighted-fair core, default costs,
    /// no admission control, ladder armed.
    fn default() -> Self {
        MultitaskConfig {
            policy: "mrts".into(),
            arbiter: ArbiterPolicy::Dynamic,
            scheduler: SchedulerKind::WeightedFair,
            costs: SwitchCosts::default(),
            repartition_min_demand: Cycles::new(50_000_000),
            admission: AdmissionPolicy::Off,
            degrade: true,
            workers: 1,
            tuning: PolicyTuning::default(),
        }
    }
}

/// Errors of [`run_multitask`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MultitaskError {
    /// The tenant list was empty.
    NoTenants,
    /// Machine construction failed (inconsistent `ArchParams`).
    Arch(ArchError),
    /// The policy factory rejected the policy name.
    Policy(String),
    /// A tenant's trace references a kernel its catalogue does not have
    /// (caught up front by [`Simulator::check_trace`] instead of panicking
    /// in the engine hot path).
    Trace {
        /// The offending tenant's display name.
        tenant: String,
        /// The kernel missing from the catalogue.
        kernel: KernelId,
    },
}

impl fmt::Display for MultitaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MultitaskError::NoTenants => write!(f, "a multi-tenant run needs at least one tenant"),
            MultitaskError::Arch(e) => write!(f, "machine construction failed: {e}"),
            MultitaskError::Policy(e) => write!(f, "{e}"),
            MultitaskError::Trace { tenant, kernel } => write!(
                f,
                "tenant '{tenant}': trace references kernel {kernel:?} missing from its catalogue"
            ),
        }
    }
}

impl std::error::Error for MultitaskError {}

impl From<ArchError> for MultitaskError {
    fn from(e: ArchError) -> Self {
        MultitaskError::Arch(e)
    }
}

/// Per-tenant live state inside the runner.
struct Tenant<'a> {
    /// External event tag (the caller's, fixed at admission).
    tag: u32,
    sim: Simulator<'a>,
    policy: Box<dyn RuntimePolicy>,
    catalog: &'a IseCatalog,
    trace: &'a Trace,
    cursor: usize,
    /// `demand_suffix[i]` = Σ over activations `i..` of
    /// executions × RISC latency — the remaining-work weight the dynamic
    /// arbiter redistributes by.
    demand_suffix: Vec<u64>,
    /// Blocks this tenant finished with *zero* free containers in its
    /// slice — the persistent-exhaustion signal of the dynamic arbiter.
    exhausted_blocks: u64,
    /// The tenant's SLO, if any.
    slo: Option<Slo>,
    /// Global-clock time the session was admitted (deadlines are relative
    /// to it).
    arrival: Cycles,
    /// The admission verdict: only an admitted session runs; a queued one
    /// may be admitted later, a rejected one never runs.
    verdict: AdmissionOutcome,
    /// Current degradation-ladder level (0 = full entitlement … 3 = RISC).
    level: u8,
    /// Core cycles of service this tenant has consumed so far (the
    /// numerator of its observed speed over RISC, used to project
    /// remaining service).
    service_done: Cycles,
    stats: TenantStats,
}

/// Absolute due time `arrival + period·blocks`, saturating: a deadline
/// past `u64::MAX` cycles is no deadline at all, so it is never missed.
fn due(arrival: Cycles, period: Cycles, blocks: u64) -> Cycles {
    arrival.saturating_add(Cycles::new(period.get().saturating_mul(blocks)))
}

impl Tenant<'_> {
    /// The session's id: its admission index.
    fn id(&self) -> usize {
        self.stats.tenant
    }

    fn runnable(&self) -> bool {
        self.verdict == AdmissionOutcome::Admitted && self.cursor < self.trace.len()
    }

    fn remaining_demand(&self) -> u64 {
        self.demand_suffix.get(self.cursor).copied().unwrap_or(0)
    }

    /// Whether this tenant's selector has exhausted its slice on a
    /// majority of its blocks so far. A tenant that mostly leaves
    /// containers empty gains nothing from a bigger slice — it would only
    /// pay the larger selection overhead — so the dynamic arbiter skips it.
    fn slice_constrained(&self) -> bool {
        self.exhausted_blocks * 2 > self.cursor as u64
    }

    /// Absolute deadline by which the first `blocks` blocks are due: the
    /// `blocks`-th periodic due time or the session deadline, whichever is
    /// sooner. `None` without an SLO or unless admitted.
    fn due_by(&self, blocks: u64) -> Option<Cycles> {
        if self.verdict != AdmissionOutcome::Admitted {
            return None;
        }
        let slo = self.slo?;
        let block = slo.block_period.map(|p| due(self.arrival, p, blocks));
        let session = slo.session_deadline.map(|d| due(self.arrival, d, 1));
        match (block, session) {
            (Some(b), Some(s)) => Some(b.min(s)),
            (b, s) => b.or(s),
        }
    }

    /// Absolute deadline of the *next* block.
    fn next_deadline(&self) -> Option<Cycles> {
        self.due_by(self.cursor as u64 + 1)
    }

    /// Absolute deadline of the whole remaining session.
    fn final_deadline(&self) -> Option<Cycles> {
        self.due_by(self.trace.len() as u64)
    }

    /// Projected cycles of service left, scaling the remaining RISC demand
    /// by the speed observed so far (integer, u128 intermediates). Falls
    /// back to the pure-RISC demand before any service history exists —
    /// pessimistic, which errs towards degrading early rather than late.
    fn remaining_service_est(&self) -> u64 {
        let remaining = self.remaining_demand();
        let total = self.demand_suffix.first().copied().unwrap_or(0);
        let risc_done = total.saturating_sub(remaining);
        let service_done = self.service_done.get();
        if risc_done == 0 || service_done == 0 {
            return remaining;
        }
        u64::try_from(u128::from(remaining) * u128::from(service_done) / u128::from(risc_done))
            .unwrap_or(u64::MAX)
    }

    /// Signed slack against the final deadline at global time `now`:
    /// negative means the session is projected tardy even if it ran
    /// uninterrupted from here on.
    fn laxity(&self, now: Cycles) -> Option<i128> {
        let deadline = self.final_deadline()?;
        Some(
            i128::from(deadline.get())
                - i128::from(now.get())
                - i128::from(self.remaining_service_est()),
        )
    }

    /// Whether more fabric could actually speed this tenant up: its ideal
    /// *working set* — for every kernel, the cheapest ISE reaching the
    /// best latency the whole pool allows, all resident at once — does not
    /// fit the current grant. Complements [`Tenant::slice_constrained`]:
    /// a tenant can have free slots in one dimension yet still be
    /// fabric-limited because holding every kernel's best variant resident
    /// needs more of the other (so it keeps reloading or settles for
    /// slower variants).
    fn fabric_limited(&self, grant: Resources, pool: Resources) -> bool {
        let mut working_set = Resources::NONE;
        for k in self.catalog.kernels() {
            let best = best_latency(self.catalog, k.id(), pool);
            if best >= k.risc_latency().get() {
                continue; // no ISE helps: the kernel needs no fabric
            }
            // The cheapest variant achieving that latency (deterministic
            // tie-break: fewest total slots, then fewest CG slots).
            let mut need: Option<Resources> = None;
            for &id in self.catalog.ises_of(k.id()) {
                if let Ok(ise) = self.catalog.ise(id) {
                    let r = ise.resources();
                    if ise.full_latency().get() == best && r.fits_in(pool) {
                        let better = need.is_none_or(|n| {
                            (r.cg() + r.prc(), r.cg()) < (n.cg() + n.prc(), n.cg())
                        });
                        if better {
                            need = Some(r);
                        }
                    }
                }
            }
            if let Some(r) = need {
                working_set += r;
            }
        }
        !working_set.min(pool).fits_in(grant)
    }

    /// Whether demoting this tenant one ladder level cannot endanger its
    /// own SLO: either it has none, or it meets its final deadline even at
    /// pure RISC speed (worst case of any demotion).
    fn safe_to_demote(&self, now: Cycles) -> bool {
        match self.final_deadline() {
            None => true,
            Some(d) => {
                i128::from(d.get()) - i128::from(now.get()) > i128::from(self.remaining_demand())
            }
        }
    }

    /// Scores one deadline of `block` against the tenant's current time:
    /// counts it and, on a miss, records the tardiness and puts a
    /// [`SimEvent::DeadlineMiss`] on the spine.
    fn score_deadline(
        &mut self,
        deadline: Cycles,
        block: BlockId,
        tag: u32,
        shared: Option<&VecSink>,
    ) {
        let finish = self.sim.now();
        self.stats.slo_deadlines += 1;
        if finish > deadline {
            let tardiness = finish - deadline;
            self.stats.deadline_misses += 1;
            self.stats.tardiness.push(tardiness.get());
            if let Some(s) = shared {
                s.clone().emit(
                    tag,
                    SimEvent::DeadlineMiss {
                        at: finish,
                        tenant: tag,
                        block,
                        deadline,
                        tardiness,
                    },
                );
            }
        }
    }
}

impl fmt::Debug for Tenant<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tenant")
            .field("app", &self.stats.app)
            .field("cursor", &self.cursor)
            .finish_non_exhaustive()
    }
}

/// One outstanding ladder loan: `amount` of fabric moved from a demoted
/// `victim` to a tardy `beneficiary` (both live positions: loans unwind
/// before any session retires, so no position shifts under them). Loans
/// unwind strictly LIFO — by
/// induction the beneficiary's grant always still contains the loaned
/// amount when its loan is on top of the stack (later grant changes are
/// either releases, which only grow grants, or deeper loans, which pop
/// first). `prior_level` is the victim's ladder level before this loan,
/// restored verbatim on unwind (a demotion may jump several levels when
/// the intermediate caps would free nothing — see
/// [`MultitaskRunner::demotion_plan`]).
#[derive(Debug, Clone, Copy)]
struct Loan {
    victim: usize,
    beneficiary: usize,
    amount: Resources,
    prior_level: u8,
}

/// Best per-execution latency kernel `kernel` can reach inside `slice`:
/// the fastest ISE whose resource demand fits the slice, or the RISC
/// latency if none fits. The admission controller's optimistic price.
fn best_latency(catalog: &IseCatalog, kernel: KernelId, slice: Resources) -> u64 {
    let Ok(k) = catalog.kernel(kernel) else {
        return 0;
    };
    let mut best = k.risc_latency().get();
    for &id in catalog.ises_of(kernel) {
        if let Ok(ise) = catalog.ise(id) {
            if ise.resources().fits_in(slice) {
                best = best.min(ise.full_latency().get());
            }
        }
    }
    best
}

/// The utilization (in ppm of the core) a tenant's SLO demands, priced
/// optimistically at the best ISE latency its fabric slice allows: the
/// admission test refuses only sessions that cannot meet their deadlines
/// even under ideal acceleration, leaving marginal mixes to the
/// degradation ladder.
pub fn estimate_utilization_ppm(spec: &TenantSpec<'_>, slice: Resources) -> u64 {
    let Some(slo) = spec.slo else { return 0 };
    if slo.is_unconstrained() {
        return 0;
    }
    let acts = spec.trace.activations();
    if acts.is_empty() {
        return 0;
    }
    let total: u128 = acts
        .iter()
        .flat_map(|act| act.actual.iter())
        .map(|a| u128::from(a.executions) * u128::from(best_latency(spec.catalog, a.kernel, slice)))
        .sum();
    let mut util: u128 = 0;
    if let Some(p) = slo.block_period {
        let per_block = total / acts.len() as u128;
        util = util.max(per_block * 1_000_000 / u128::from(p.get().max(1)));
    }
    if let Some(d) = slo.session_deadline {
        util = util.max(total * 1_000_000 / u128::from(d.get().max(1)));
    }
    u64::try_from(util).unwrap_or(u64::MAX)
}

/// Remaining RISC work per activation suffix (saturating).
fn demand_suffix(catalog: &IseCatalog, trace: &Trace) -> Vec<u64> {
    let mut suffix = vec![0u64; trace.len() + 1];
    for (i, act) in trace.activations().iter().enumerate().rev() {
        let here: u64 = act
            .actual
            .iter()
            .map(|a| {
                let lat = catalog
                    .kernel(a.kernel)
                    .map(|k| k.risc_latency().get())
                    .unwrap_or(0);
                a.executions.saturating_mul(lat)
            })
            .fold(0, u64::saturating_add);
        suffix[i] = suffix[i + 1].saturating_add(here);
    }
    suffix.truncate(trace.len().max(1));
    suffix
}

/// The per-tenant outputs of the parallel setup barrier (see
/// [`MultitaskConfig::workers`]). Also the unit of work the fleet
/// precomputes per session before its open-loop run starts (sessions with
/// the same app/trace share one prep via [`TenantPrep::clone`]).
#[derive(Debug, Clone)]
pub struct TenantPrep {
    /// The tenant's solo RISC-only wall-clock time: the numerator of its
    /// speedup and of the aggregate speedup.
    pub risc_baseline: Cycles,
    /// Remaining-RISC-work suffix sums (the dynamic arbiter's weights).
    pub demand_suffix: Vec<u64>,
}

/// The independent (pre-shared-clock) part of one tenant's setup: a full
/// solo RISC-only trace simulation plus the demand suffix sums. Public as
/// the fleet's per-session prep entry point.
///
/// # Errors
///
/// [`MultitaskError::Arch`] if `params` is inconsistent.
pub fn prep_session(
    params: &ArchParams,
    spec: &TenantSpec<'_>,
) -> Result<TenantPrep, MultitaskError> {
    let risc_baseline = Simulator::run(
        spec.catalog,
        Machine::new(params.clone(), Resources::NONE)?,
        spec.trace,
        &mut RiscOnlyPolicy::new(),
    )
    .total_makespan();
    Ok(TenantPrep {
        risc_baseline,
        demand_suffix: demand_suffix(spec.catalog, spec.trace),
    })
}

/// Runs [`prep_session`] for every tenant, striping the tenant list across
/// `workers` scoped threads when `workers > 1`. Each worker owns one
/// contiguous chunk of the results vector, and the scope join is the
/// barrier at which the chunks merge back in tenant-index order — the
/// `(time, tenant)` merge degenerates to plain tenant order here because
/// every prep happens at time zero, before the shared clock exists. The
/// returned vector is therefore byte-identical for any worker count.
fn prepare_tenants(
    params: &ArchParams,
    specs: &[TenantSpec<'_>],
    workers: usize,
) -> Vec<Result<TenantPrep, MultitaskError>> {
    let workers = workers.clamp(1, specs.len().max(1));
    if workers == 1 {
        return specs.iter().map(|s| prep_session(params, s)).collect();
    }
    let mut out: Vec<Option<Result<TenantPrep, MultitaskError>>> =
        specs.iter().map(|_| None).collect();
    let chunk = specs.len().div_ceil(workers);
    std::thread::scope(|scope| {
        for (spec_chunk, out_chunk) in specs.chunks(chunk).zip(out.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (spec, slot) in spec_chunk.iter().zip(out_chunk.iter_mut()) {
                    *slot = Some(prep_session(params, spec));
                }
            });
        }
    });
    out.into_iter()
        .map(|r| r.expect("every tenant stripe was processed"))
        .collect()
}

/// Runs `specs` concurrently on one machine of physical `budget` (CG-EDPE
/// and PRC counts, the paper's Fig. 8 axes) and returns the aggregate
/// statistics. All tenants arrive at time zero; the run ends when the
/// last one finishes.
///
/// Determinism: the runner is single-threaded integer arithmetic driven
/// by deterministic schedulers and seeded models, so equal inputs give
/// byte-equal [`MultitaskStats`] on every host.
///
/// # Errors
///
/// * [`MultitaskError::NoTenants`] if `specs` is empty,
/// * [`MultitaskError::Arch`] if `params` is inconsistent,
/// * [`MultitaskError::Policy`] if `cfg.policy` is not a factory name.
pub fn run_multitask(
    params: ArchParams,
    budget: Resources,
    specs: &[TenantSpec<'_>],
    cfg: &MultitaskConfig,
) -> Result<MultitaskStats, MultitaskError> {
    run_inner(params, budget, specs, cfg, None)
}

/// Like [`run_multitask`], but additionally streams the typed event spine
/// into `sink`: every tenant's engine events
/// ([`SimEvent::BlockStart`]/`ExecBatch`/load life cycle/faults — tagged
/// with the tenant index) interleaved with the runner's own scheduling
/// events ([`SimEvent::TenantDispatch`], [`SimEvent::TenantPreempt`],
/// [`SimEvent::RepartitionGranted`]) in global-clock order.
///
/// Recording is strictly observational: the returned [`MultitaskStats`]
/// are byte-identical to [`run_multitask`]'s. Within one tenant the event
/// timestamps are monotone; tenants interleave on the global clock, so a
/// merged multi-tenant log is monotone *per tenant*, not globally.
///
/// # Errors
///
/// Same conditions as [`run_multitask`].
pub fn run_multitask_with_events(
    params: ArchParams,
    budget: Resources,
    specs: &[TenantSpec<'_>],
    cfg: &MultitaskConfig,
    sink: &mut dyn EventSink,
) -> Result<MultitaskStats, MultitaskError> {
    run_inner(params, budget, specs, cfg, Some(sink))
}

fn run_inner(
    params: ArchParams,
    budget: Resources,
    specs: &[TenantSpec<'_>],
    cfg: &MultitaskConfig,
    out_sink: Option<&mut dyn EventSink>,
) -> Result<MultitaskStats, MultitaskError> {
    if specs.is_empty() {
        return Err(MultitaskError::NoTenants);
    }
    let mut runner = MultitaskRunner::new(params, budget, specs, cfg, out_sink.is_some())?;
    loop {
        match runner.step() {
            StepOutcome::Idle => {
                // Nothing admitted is runnable. An idle core with queued
                // sessions would be a livelock, so force the head of the
                // queue in (running overloaded beats not running — the
                // ladder absorbs the excess).
                if !runner.force_admit_next() {
                    break;
                }
            }
            StepOutcome::Ran { tenant, finished } => {
                if finished {
                    runner.finish_session(tenant);
                }
                // The laxity monitor: one ladder decision per block.
                runner.ladder_maybe();
            }
        }
    }
    let (out, events) = runner.into_stats();
    if let Some(sink) = out_sink {
        for (tenant, ev) in events {
            sink.emit(tenant, ev);
        }
    }
    Ok(out)
}

/// The outcome of one [`MultitaskRunner::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// No admitted session has a block left to run. The caller decides
    /// what happens next: [`run_multitask`] force-admits the queue head or
    /// ends the run; the fleet driver delivers the next arrival instead.
    Idle,
    /// One block activation was dispatched.
    Ran {
        /// The id of the session that ran (its admission index).
        tenant: usize,
        /// Whether that block was the session's last. The caller settles
        /// the departure with [`MultitaskRunner::finish_session`]
        /// (redistribute the freed slice) or
        /// [`MultitaskRunner::depart_session`] (park it in the free pool).
        finished: bool,
    },
}

/// The multi-tenant stepping core: the state of one fabric plus the core
/// time-sharing it, advanced one block activation at a time.
///
/// [`run_multitask`] is a thin wrapper — build the runner over the full
/// batch, [`step`](MultitaskRunner::step) until idle, settle every finish
/// with [`finish_session`](MultitaskRunner::finish_session). The fleet
/// layer drives the same core open-loop instead: sessions join mid-run via
/// [`admit_session`](MultitaskRunner::admit_session) (slices carved from
/// the arbiter's free pool) and leave via
/// [`depart_session`](MultitaskRunner::depart_session); between steps the
/// driver interleaves arrivals from its generators against the runner's
/// clock. All per-tenant simulators and the runner itself record into
/// tagged clones of one shared buffer, so the merged log keeps the exact
/// interleaving of the run; [`into_stats`](MultitaskRunner::into_stats)
/// drains it. Event tags are the caller's (fixed at admission), so a fleet
/// can stamp globally unique session ids on a shard-local run;
/// [`run_multitask`] tags tenant `i` as `i`.
///
/// Sessions are named by id (see the module docs); a departed session is
/// retired, so the per-session methods panic on its id.
pub struct MultitaskRunner<'a> {
    params: ArchParams,
    cfg: MultitaskConfig,
    arbiter: FabricArbiter,
    scheduler: Box<dyn crate::scheduler::Scheduler>,
    controller: AdmissionController,
    /// The tenant behind each admission-controller entry. The up-front
    /// batch is offered in `(criticality desc, index)` order, and queued
    /// sessions are retried and force-admitted in that same order. Empty
    /// when admission is off; sessions admitted after construction bypass
    /// the controller.
    offered: Vec<usize>,
    /// The live sessions, in ascending id order.
    tenants: Vec<Tenant<'a>>,
    /// The stats of retired sessions, in retirement order.
    retired: Vec<TenantStats>,
    loans: Vec<Loan>,
    /// The global clock: the same Timeline core the per-tenant engines
    /// step on — monotone `advance_to`/`advance_by`, one notion of
    /// time-keeping across the single- and multi-tenant paths.
    clock: Timeline,
    out: MultitaskStats,
    /// Id and tag of the session that last held the core (it may have
    /// retired since; the next dispatch still preempts it).
    last: Option<(usize, u32)>,
    shared: Option<VecSink>,
    any_slo: bool,
    // Scheduler-input scratch over the live list, refilled in place every
    // dispatch so the steady-state loop allocates nothing (the engine-side
    // twin of the selector's arena — see DESIGN §11).
    runnable: Vec<bool>,
    deadlines: Vec<Option<Cycles>>,
    laxities: Vec<Option<i128>>,
}

impl fmt::Debug for MultitaskRunner<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MultitaskRunner")
            .field("live", &self.tenants.len())
            .field("retired", &self.retired.len())
            .field("now", &self.clock.now())
            .finish_non_exhaustive()
    }
}

impl<'a> MultitaskRunner<'a> {
    /// Builds the runner and admits an up-front batch of tenants at time
    /// zero (possibly none — the fleet's churn path starts with the whole
    /// pool in the arbiter's free store). Each tenant gets an even share
    /// of the pool (weighted under [`ArbiterPolicy::Proportional`]); the
    /// admission controller then prices the batch in criticality order,
    /// and the slices of rejected tenants go back to the others.
    /// `record_events` arms the shared event buffer; `false` skips every
    /// emission at the cost of one branch.
    ///
    /// # Errors
    ///
    /// Same conditions as [`run_multitask`], minus `NoTenants`.
    pub fn new(
        params: ArchParams,
        budget: Resources,
        specs: &[TenantSpec<'a>],
        cfg: &MultitaskConfig,
        record_events: bool,
    ) -> Result<Self, MultitaskError> {
        // The pool is partitioned in slot units (what `Machine::capacity`
        // reports and every policy-facing `Resources` value uses).
        let pool = Machine::new(params.clone(), budget)?.capacity();
        let slices = match cfg.arbiter {
            ArbiterPolicy::Proportional => {
                let weights: Vec<u64> = specs.iter().map(|s| s.weight.max(1)).collect();
                pool.split_weighted(&weights)
            }
            ArbiterPolicy::Static | ArbiterPolicy::Dynamic => pool.split_even(specs.len()),
        };

        // Per-tenant setup: the one phase of a multi-tenant run where
        // tenants are fully independent of each other (no shared clock, no
        // arbiter state) — `cfg.workers` scoped threads each take a
        // contiguous stripe of tenants and the results merge back in
        // tenant-index order at the scope's join barrier, before the
        // shared clock starts ticking.
        let preps = prepare_tenants(&params, specs, cfg.workers);

        let mut runner = MultitaskRunner {
            params,
            cfg: cfg.clone(),
            arbiter: FabricArbiter::empty(cfg.arbiter, pool),
            scheduler: cfg.scheduler.build(),
            controller: AdmissionController::new(cfg.admission),
            offered: Vec::new(),
            tenants: Vec::with_capacity(specs.len()),
            retired: Vec::new(),
            loans: Vec::new(),
            clock: Timeline::new(),
            out: MultitaskStats {
                policy: format!("{}/{}/{}", cfg.policy, cfg.arbiter, cfg.scheduler),
                ..MultitaskStats::default()
            },
            last: None,
            shared: record_events.then(VecSink::new),
            any_slo: false,
            runnable: Vec::with_capacity(specs.len()),
            deadlines: Vec::with_capacity(specs.len()),
            laxities: Vec::with_capacity(specs.len()),
        };
        for (i, ((spec, prep), slice)) in specs.iter().zip(preps).zip(slices).enumerate() {
            runner.admit_session(spec, prep?, slice, i as u32)?;
        }
        if cfg.admission == AdmissionPolicy::Off {
            return Ok(runner);
        }

        // Admission: the feasibility test over the SLO mix, priced against
        // each tenant's initial slice (nobody has retired yet, so ids are
        // positions here).
        runner.offered = (0..specs.len()).collect();
        runner.offered.sort_by_key(|&i| {
            let criticality = specs[i]
                .slo
                .map_or(Criticality::BestEffort, |s| s.criticality);
            (Reverse(criticality), i)
        });
        for &i in &runner.offered {
            let util = estimate_utilization_ppm(&specs[i], runner.arbiter.grant(i));
            let (_, outcome) = runner.controller.offer(util);
            let tenant = &mut runner.tenants[i];
            tenant.stats.admission = outcome.label().to_string();
            tenant.verdict = outcome;
        }
        // A rejected session never runs: its slice goes back to the pool
        // at time zero, uncharged (the run has not started yet), and it
        // retires. There is no exhaustion history yet, so that gate is
        // waived here.
        for r in 0..specs.len() {
            let p = runner.position(r);
            if runner.tenants[p].verdict == AdmissionOutcome::Rejected {
                for i in runner.release(p, |_| true) {
                    runner.regrant(i, true);
                }
                runner.retire(p);
            }
        }
        Ok(runner)
    }

    /// Dispatches the next block: scheduler pick, context-switch charge,
    /// one `step_activation`, SLO deadline checks. Pure bookkeeping on
    /// [`StepOutcome::Idle`]. The caller settles a `finished` session (see
    /// [`StepOutcome::Ran`]) and runs the ladder
    /// ([`ladder_maybe`](MultitaskRunner::ladder_maybe)) between steps.
    pub fn step(&mut self) -> StepOutcome {
        self.runnable.clear();
        self.runnable
            .extend(self.tenants.iter().map(Tenant::runnable));
        if !self.runnable.contains(&true) {
            return StepOutcome::Idle;
        }
        // The deadline state the SLO-aware schedulers rank by; the
        // deadline-blind ones never look at it.
        let now = self.clock.now();
        self.deadlines.clear();
        self.deadlines.extend(self.tenants.iter().map(|x| {
            if x.runnable() {
                x.next_deadline()
            } else {
                None
            }
        }));
        self.laxities.clear();
        self.laxities.extend(self.tenants.iter().map(|x| {
            if x.runnable() {
                x.laxity(now)
            } else {
                None
            }
        }));
        let snap = SloSnapshot {
            deadlines: &self.deadlines,
            laxities: &self.laxities,
        };
        let t = self
            .scheduler
            .pick_slo(&self.runnable, &snap)
            .expect("scheduler must pick while a tenant is runnable");
        debug_assert!(self.runnable[t], "scheduler picked a finished tenant");

        // Context switch: charged only when the core changes hands.
        let (id, tag) = (self.tenants[t].id(), self.tenants[t].tag);
        if let Some((_, prev)) = self.last.filter(|&(prev, _)| prev != id) {
            self.emit_event(
                prev,
                SimEvent::TenantPreempt {
                    at: self.clock.now(),
                    tenant: prev,
                },
            );
            self.clock.advance_by(self.cfg.costs.context_switch);
            self.out.context_switches += 1;
            self.out.switch_cycles += self.cfg.costs.context_switch;
            self.tenants[t].stats.context_switches += 1;
            self.tenants[t].stats.switch_cycles += self.cfg.costs.context_switch;
        }
        self.last = Some((id, tag));

        let shared = self.shared.as_ref();
        let tenant = &mut self.tenants[t];
        // Time the tenant spent descheduled; its DMA-driven loads kept
        // streaming meanwhile.
        if self.clock.now() > tenant.sim.now() {
            tenant.stats.waiting_cycles += self.clock.now() - tenant.sim.now();
            tenant.sim.advance_to(self.clock.now());
        }
        // Dispatch is recorded *after* the catch-up settle so the tenant's
        // deferred load completions (timestamps at or before the dispatch)
        // flush first — per-tenant monotonicity.
        if let Some(s) = shared {
            let at = self.clock.now();
            s.clone()
                .emit(tag, SimEvent::TenantDispatch { at, tenant: tag });
        }
        let t0 = tenant.sim.now();
        let activation = &tenant.trace.activations()[tenant.cursor];
        let block = activation.block;
        tenant
            .sim
            .step_activation(activation, tenant.policy.as_mut(), &mut tenant.stats.run);
        tenant.cursor += 1;
        if tenant.sim.machine().free_resources().is_empty() {
            tenant.exhausted_blocks += 1;
        }
        let consumed = tenant.sim.now() - t0;
        tenant.service_done += consumed;
        self.scheduler.charge(t, consumed);
        self.clock.advance_to(tenant.sim.now());

        // Per-block SLO check: block `cursor-1` was due at
        // `arrival + period·cursor`.
        if let Some(p) = tenant.slo.and_then(|s| s.block_period) {
            let deadline = due(tenant.arrival, p, tenant.cursor as u64);
            tenant.score_deadline(deadline, block, tag, shared);
        }

        let finished = !tenant.runnable();
        if finished {
            tenant.stats.turnaround = self.clock.now();
            // Session-level SLO check at the finish line.
            if let Some(d) = tenant.slo.and_then(|s| s.session_deadline) {
                let deadline = due(tenant.arrival, d, 1);
                tenant.score_deadline(deadline, block, tag, shared);
            }
            // Reconfigurations can outlive the trace: drain the tenant's
            // still-deferred completions into the log.
            tenant.sim.finish_events();
        }
        StepOutcome::Ran {
            tenant: id,
            finished,
        }
    }

    /// Settles a finished session: unwind the loan stack, release its
    /// slice through the arbiter (redistributing to slice-constrained
    /// incumbents by remaining demand — the freed part no incumbent claims
    /// lands in the free store), retire it, and re-test the admission
    /// queue.
    ///
    /// # Panics
    ///
    /// Panics if session `t` has already retired.
    pub fn finish_session(&mut self, t: usize) {
        self.unwind_loans();
        // Beneficiaries: still-active tenants with enough work left to
        // amortise the reconfigurations a bigger slice invites, and whose
        // selector persistently exhausts the slice it already has (see
        // [`Tenant::slice_constrained`]).
        let p = self.position(t);
        let grown = self.release(p, Tenant::slice_constrained);
        if !grown.is_empty() {
            self.charge_repartition();
            for i in grown {
                self.regrant(i, true);
            }
        }
        self.retire(p);

        // A finished session's utilization frees up: re-test the admission
        // queue in criticality order. Late admissions arrive *now* — their
        // deadlines are relative to this instant, not time zero. (Every
        // other done session was completed when it finished, except one
        // with an empty trace, which never finishes but prices at 0 ppm.)
        if let Some(k) = self.offered.iter().position(|&i| i == t) {
            self.controller.complete(k);
        }
        for k in 0..self.offered.len() {
            if self.controller.retry_one(k) {
                self.admit_queued(k);
            }
        }
    }

    /// Settles a departing session the fleet way: unwind the loan stack,
    /// park its whole slice in the arbiter's free store (no
    /// redistribution — the fleet decides who gets the fabric next), and
    /// retire it. Returns the freed amount.
    ///
    /// # Panics
    ///
    /// Panics if session `t` has already retired.
    pub fn depart_session(&mut self, t: usize) -> Resources {
        self.unwind_loans();
        let p = self.position(t);
        let keep = self.tenants[p].sim.machine().failed_resources();
        let freed = self.arbiter.park(p, keep);
        self.retire(p);
        freed
    }

    /// The live position of session `t`.
    ///
    /// # Panics
    ///
    /// Panics if session `t` has retired (or was never admitted).
    fn position(&self, t: usize) -> usize {
        self.tenants
            .binary_search_by_key(&t, Tenant::id)
            .unwrap_or_else(|_| panic!("session {t} is not live"))
    }

    /// Retires the departed session at live position `p`: its simulator,
    /// policy and scratch are dropped, its [`TenantStats`] kept, and the
    /// scheduler and arbiter forget its position. Its permanently failed
    /// slots stay pinned in the arbiter's retired store.
    fn retire(&mut self, p: usize) {
        debug_assert!(self.loans.is_empty(), "a retirement would shift a loan");
        let tenant = self.tenants.remove(p);
        self.scheduler.retire(p);
        self.arbiter.retire(p);
        self.retired.push(tenant.stats);
    }

    /// Hands the slice of the departing session at position `p` to the
    /// arbiter for redistribution among the runnable sessions with enough
    /// remaining work that pass `gate`; its permanently failed slots stay
    /// pinned. Returns those sessions' positions if the partition changed
    /// (the caller regrants them), else nothing.
    fn release(&mut self, p: usize, gate: fn(&Tenant<'a>) -> bool) -> Vec<usize> {
        let keep = self.tenants[p].sim.machine().failed_resources();
        let min_demand = self.cfg.repartition_min_demand.get();
        let demands: Vec<(usize, u64)> = self
            .tenants
            .iter()
            .enumerate()
            .filter(|(_, x)| x.runnable() && x.remaining_demand() >= min_demand && gate(x))
            .map(|(i, x)| (i, x.remaining_demand().max(1)))
            .collect();
        if self.arbiter.release(p, keep, &demands) {
            demands.into_iter().map(|(i, _)| i).collect()
        } else {
            Vec::new()
        }
    }

    /// Re-realises the arbiter grant of the session at position `i` on its
    /// machine and selector slice, charging whatever the resize evicted to
    /// its stats (only a shrink evicts), and puts a
    /// [`SimEvent::RepartitionGranted`] on the spine if `announce`.
    /// Returns the grant.
    fn regrant(&mut self, i: usize, announce: bool) -> Resources {
        let grant = self.arbiter.grant(i);
        let tenant = &mut self.tenants[i];
        let target = grant.saturating_sub(tenant.sim.machine().failed_resources());
        let evicted = tenant.sim.machine_mut().resize_capacity(target);
        tenant.stats.repartition_evictions += evicted.len() as u64;
        tenant.policy.set_resource_slice(Some(grant));
        if announce {
            let tag = tenant.tag;
            self.emit_event(
                tag,
                SimEvent::RepartitionGranted {
                    at: self.clock.now(),
                    tenant: tag,
                    cg: grant.cg(),
                    prc: grant.prc(),
                },
            );
        }
        grant
    }

    /// Moves the session at position `v` to ladder `level`, regrants it
    /// and puts the [`SimEvent::DegradeStep`] on the spine.
    fn relevel(&mut self, v: usize, level: u8) {
        let from_level = std::mem::replace(&mut self.tenants[v].level, level);
        let grant = self.regrant(v, false);
        let tag = self.tenants[v].tag;
        self.emit_event(
            tag,
            SimEvent::DegradeStep {
                at: self.clock.now(),
                tenant: tag,
                from_level,
                to_level: level,
                cg: grant.cg(),
                prc: grant.prc(),
            },
        );
    }

    /// Pays one ladder loan back: the fabric returns to the victim, which
    /// climbs back to its prior level.
    fn return_loan(&mut self, loan: Loan) {
        self.arbiter
            .transfer(loan.beneficiary, loan.victim, loan.amount);
        self.tenants[loan.victim].stats.promote_steps += 1;
        self.regrant(loan.beneficiary, false);
        self.relevel(loan.victim, loan.prior_level);
    }

    /// Unwinds the whole loan stack (strictly LIFO) *before* any release
    /// path touches a grant: while the stack unwinds in reverse order,
    /// every beneficiary grant still contains its loaned amount (later
    /// changes were either releases, which only grow, or deeper loans,
    /// which popped first). One repartition is charged for the whole
    /// unwind; a no-op when no loans are outstanding.
    fn unwind_loans(&mut self) {
        if self.loans.is_empty() {
            return;
        }
        self.charge_repartition();
        while let Some(loan) = self.loans.pop() {
            self.return_loan(loan);
        }
    }

    /// What demoting the tenant at position `v` would free: the shallowest
    /// ladder level below its current one whose cap of `v`'s *entitlement*
    /// (grant plus fabric loaned out minus fabric loaned in — so nested
    /// demotions halve the original share, not the already-shrunken one)
    /// releases a non-empty part of the current grant. Permanently failed slots never
    /// move. A tiny slice can have levels that free nothing (a lone PRC
    /// survives the halving cap unchanged); the demotion jumps past them
    /// rather than wedging the ladder. `None` if no level down to
    /// [`LADDER_BOTTOM`] frees anything.
    fn demotion_plan(&self, v: usize) -> Option<(u8, Resources)> {
        let grant = self.arbiter.grant(v);
        let mut entitlement = grant;
        let mut loaned_in = Resources::NONE;
        for loan in &self.loans {
            if loan.victim == v {
                entitlement += loan.amount;
            }
            if loan.beneficiary == v {
                loaned_in += loan.amount;
            }
        }
        let entitlement = entitlement.saturating_sub(loaned_in);
        let pinned = self.tenants[v].sim.machine().failed_resources();
        (self.tenants[v].level + 1..=LADDER_BOTTOM).find_map(|level| {
            let freed = grant.saturating_sub(ladder_cap(level, entitlement).max(pinned));
            (!freed.is_empty()).then_some((level, freed))
        })
    }

    /// One laxity-monitor decision, taken after every completed block: at
    /// most one promotion (pop the top loan once its beneficiary has ≥ 25 %
    /// of its remaining time as slack — hysteresis against thrash) and at
    /// most one demotion (move the slack-richest safe victim down to the
    /// shallowest level that frees fabric and loan what was freed to the
    /// tardiest slice-constrained tenant). Degrade-don't-drop: work is
    /// never dropped or starved, it only runs with less acceleration.
    fn ladder_step(&mut self) {
        // (a) Climb back: the *top* loan (LIFO) is returnable once its
        // beneficiary's laxity is comfortably positive again.
        if let Some(&loan) = self.loans.last() {
            let now = self.clock.now();
            let b = &self.tenants[loan.beneficiary];
            let promote = !b.runnable()
                || match (b.laxity(now), b.final_deadline()) {
                    (Some(l), Some(d)) => {
                        l > 0 && 4 * l > i128::from(d.get()) - i128::from(now.get())
                    }
                    _ => true, // no deadline left to protect
                };
            if promote {
                self.loans.pop();
                self.charge_repartition();
                self.return_loan(loan);
            }
        }

        // (b) Shed speedup: the tardiest slice-constrained tenant borrows
        // fabric from the slack-richest victim that stays safe at RISC speed.
        let now = self.clock.now();
        let tenants = &self.tenants;
        let beneficiary = (0..tenants.len())
            .filter(|&i| {
                let x = &tenants[i];
                x.runnable()
                    && (x.slice_constrained()
                        || x.fabric_limited(self.arbiter.grant(i), self.arbiter.pool()))
                    && x.remaining_demand() >= self.cfg.repartition_min_demand.get()
                    && x.laxity(now).is_some_and(|l| l < 0)
            })
            .min_by_key(|&i| (tenants[i].laxity(now).unwrap_or(i128::MAX), i));
        let Some(b) = beneficiary else { return };
        let victim = (0..tenants.len())
            .filter(|&i| {
                i != b
                    && tenants[i].runnable()
                    && tenants[i].level < LADDER_BOTTOM
                    && tenants[i].safe_to_demote(now)
            })
            .filter_map(|i| {
                let (to_level, freed) = self.demotion_plan(i)?;
                let slack = tenants[i].laxity(now).unwrap_or(i128::MAX);
                Some((i, to_level, freed, slack))
            })
            .max_by_key(|&(i, _, _, slack)| (slack, Reverse(i)));
        let Some((v, to_level, freed, _)) = victim else {
            return;
        };

        let amount = self.arbiter.transfer(v, b, freed);
        self.loans.push(Loan {
            victim: v,
            beneficiary: b,
            amount,
            prior_level: self.tenants[v].level,
        });
        self.tenants[v].stats.degrade_steps += 1;
        self.charge_repartition();
        self.relevel(v, to_level);
        self.regrant(b, true);
    }

    /// One laxity-monitor decision when the ladder is armed and some
    /// tenant has a constrained SLO; a no-op otherwise.
    pub fn ladder_maybe(&mut self) {
        if self.cfg.degrade && self.any_slo {
            self.ladder_step();
        }
    }

    /// Lets the queued session behind controller entry `k` in: it arrives
    /// *now*, so its deadlines count from this instant.
    fn admit_queued(&mut self, k: usize) {
        let p = self.position(self.offered[k]);
        let tenant = &mut self.tenants[p];
        tenant.verdict = AdmissionOutcome::Admitted;
        tenant.arrival = self.clock.now();
    }

    /// Forces queued sessions in, highest criticality first, until one is
    /// runnable ([`run_multitask`]'s livelock escape). Returns whether any
    /// became runnable.
    pub fn force_admit_next(&mut self) -> bool {
        while let Some(k) = (0..self.offered.len())
            .find(|&k| self.controller.outcome(k) == AdmissionOutcome::Queued)
        {
            self.controller.admit_anyway(k);
            self.admit_queued(k);
            if self.tenants[self.position(self.offered[k])].runnable() {
                return true;
            }
        }
        false
    }

    /// Admits one session at the current clock: carves `slice` (clamped
    /// to the free store) out of the arbiter, builds the tenant — a
    /// machine resized to its grant, a private policy instance and a
    /// checked simulator — registers it with the scheduler at the
    /// incumbents' virtual clock (no catch-up monopoly), and tags its
    /// events with the caller's `tag`. Deadlines are relative to *now*.
    /// Returns the session's id.
    ///
    /// # Errors
    ///
    /// Same per-tenant conditions as [`run_multitask`]; on error the
    /// arbiter is untouched.
    pub fn admit_session(
        &mut self,
        spec: &TenantSpec<'a>,
        prep: TenantPrep,
        slice: Resources,
        tag: u32,
    ) -> Result<usize, MultitaskError> {
        let id = self.retired.len() + self.tenants.len();
        let weight = spec.weight.max(1);
        let grant = slice.min(self.arbiter.free());
        let mut machine = match &spec.fault_model {
            Some(fm) => {
                Machine::with_fault_model(self.params.clone(), Resources::NONE, fm.clone())?
            }
            None => Machine::new(self.params.clone(), Resources::NONE)?,
        };
        let _ = machine.resize_capacity(grant);
        let totals = ProfiledTotals::from_trace(spec.trace);
        let mut policy = make_policy(
            &self.cfg.policy,
            spec.catalog,
            grant,
            &totals,
            self.cfg.tuning,
        )
        .map_err(MultitaskError::Policy)?;
        policy.set_resource_slice(Some(grant));
        let run = RunStats {
            policy: policy.name(),
            ..RunStats::default()
        };
        let mut sim = Simulator::new(spec.catalog, machine);
        sim.check_trace(spec.trace)
            .map_err(|kernel| MultitaskError::Trace {
                tenant: spec.name.clone(),
                kernel,
            })?;
        if let Some(s) = &self.shared {
            sim.attach_events(tag, Box::new(s.clone()));
        }
        // The session's private engine starts at the global clock, not at
        // zero — otherwise its first dispatch would count the whole
        // pre-arrival era as waiting time.
        sim.advance_to(self.clock.now());

        let carved = self.arbiter.admit(slice);
        debug_assert_eq!(carved, self.tenants.len(), "arbiter and live list diverged");
        self.runnable.clear();
        self.runnable
            .extend(self.tenants.iter().map(Tenant::runnable));
        self.scheduler.register(weight, &self.runnable);
        self.any_slo |= spec.slo.is_some_and(|s| !s.is_unconstrained());
        self.tenants.push(Tenant {
            tag,
            sim,
            policy,
            catalog: spec.catalog,
            trace: spec.trace,
            cursor: 0,
            demand_suffix: prep.demand_suffix,
            exhausted_blocks: 0,
            slo: spec.slo,
            arrival: self.clock.now(),
            verdict: AdmissionOutcome::Admitted,
            level: 0,
            service_done: Cycles::ZERO,
            stats: TenantStats {
                tenant: id,
                app: spec.name.clone(),
                weight,
                run,
                risc_baseline: prep.risc_baseline,
                ..TenantStats::default()
            },
        });
        Ok(id)
    }

    /// Pulls `amount` back from session `t`'s grant into the free store
    /// (shrinking its machine in place, evictions charged to its stats)
    /// and returns what actually moved. The fleet's arrival path uses this
    /// to claw back over-base fabric from incumbents when the free store
    /// cannot cover a newcomer's base share.
    ///
    /// # Panics
    ///
    /// Panics if session `t` has retired.
    pub fn reclaim_session(&mut self, t: usize, amount: Resources) -> Resources {
        let p = self.position(t);
        let moved = self.arbiter.reclaim(p, amount);
        if !moved.is_empty() {
            self.regrant(p, true);
        }
        moved
    }

    /// Charges one re-partition: counters plus the clock stall.
    pub fn charge_repartition(&mut self) {
        self.out.repartitions += 1;
        self.out.repartition_cycles += self.cfg.costs.repartition;
        self.clock.advance_by(self.cfg.costs.repartition);
    }

    /// Emits a caller-level event (e.g. the fleet's session lifecycle)
    /// into the shared spine under `tag`; a no-op when recording is off.
    pub fn emit_event(&self, tag: u32, ev: SimEvent) {
        if let Some(s) = &self.shared {
            s.clone().emit(tag, ev);
        }
    }

    /// Replaces live session `t`'s run-time system with `wrap(policy)`:
    /// the hook for wrappers that observe or check a policy's callbacks in
    /// a multi-tenant run. The wrapper must forward every callback for the
    /// run to stay the same.
    pub fn wrap_policy(
        &mut self,
        t: usize,
        wrap: impl FnOnce(Box<dyn RuntimePolicy>) -> Box<dyn RuntimePolicy>,
    ) {
        let p = self.position(t);
        let slot = &mut self.tenants[p].policy;
        let inner = std::mem::replace(slot, Box::new(RiscOnlyPolicy::new()));
        *slot = wrap(inner);
    }

    /// The global clock.
    #[must_use]
    pub fn now(&self) -> Cycles {
        self.clock.now()
    }

    /// Advances the global clock to `at` (idle gap — e.g. the fleet
    /// waiting for the next arrival on an empty shard). Monotone.
    pub fn advance_clock_to(&mut self, at: Cycles) {
        self.clock.advance_to(at);
    }

    /// Fabric currently parked in the arbiter's free store.
    #[must_use]
    pub fn free_fabric(&self) -> Resources {
        self.arbiter.free()
    }

    /// The whole physical pool (in slot units).
    #[must_use]
    pub fn pool(&self) -> Resources {
        self.arbiter.pool()
    }

    /// Session `t`'s current fabric grant.
    ///
    /// # Panics
    ///
    /// Panics if session `t` has retired.
    #[must_use]
    pub fn grant(&self, t: usize) -> Resources {
        self.arbiter.grant(self.position(t))
    }

    /// Whether any session still has blocks to run.
    #[must_use]
    pub fn has_runnable(&self) -> bool {
        self.tenants.iter().any(Tenant::runnable)
    }

    /// Finishes the run: stamps the makespan, folds the stats of every
    /// session ever admitted, retired or live, into the aggregate in id
    /// order, and drains the recorded event spine (tagged with the
    /// admission-time `tag`s, in exact emission order).
    #[must_use]
    pub fn into_stats(mut self) -> (MultitaskStats, Vec<(u32, SimEvent)>) {
        self.out.makespan = self.clock.now();
        let mut tenants = self.retired;
        tenants.extend(self.tenants.into_iter().map(|t| t.stats));
        tenants.sort_unstable_by_key(|t| t.tenant);
        self.out.tenants = tenants;
        let events = self.shared.map(|s| s.take()).unwrap_or_default();
        (self.out, events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrts_workload::synthetic::{synthetic_trace, Pattern};
    use mrts_workload::WorkloadModel;

    fn toy() -> mrts_ingest::ManifestModel {
        mrts_ingest::model("toy").expect("builtin toy lowers")
    }

    fn toy_setup() -> (IseCatalog, Trace) {
        let toy = toy();
        let catalog = toy
            .application()
            .build_catalog(ArchParams::default(), None)
            .unwrap();
        let trace = synthetic_trace(&toy, &[Pattern::Constant(300)], 6);
        (catalog, trace)
    }

    #[test]
    fn rejects_empty_tenant_list() {
        let cfg = MultitaskConfig::default();
        let err = run_multitask(ArchParams::default(), Resources::new(2, 2), &[], &cfg);
        assert_eq!(err.unwrap_err(), MultitaskError::NoTenants);
    }

    #[test]
    fn rejects_unknown_policy() {
        let (catalog, trace) = toy_setup();
        let specs = [TenantSpec::new("t", &catalog, &trace)];
        let cfg = MultitaskConfig {
            policy: "bogus".into(),
            ..MultitaskConfig::default()
        };
        let err = run_multitask(ArchParams::default(), Resources::new(2, 2), &specs, &cfg);
        assert!(matches!(err, Err(MultitaskError::Policy(_))));
    }

    #[test]
    fn single_tenant_charges_no_switches() {
        let (catalog, trace) = toy_setup();
        let specs = [TenantSpec::new("solo", &catalog, &trace)];
        let stats = run_multitask(
            ArchParams::default(),
            Resources::new(2, 2),
            &specs,
            &MultitaskConfig::default(),
        )
        .unwrap();
        assert_eq!(stats.context_switches, 0);
        assert_eq!(stats.repartitions, 0);
        assert_eq!(stats.tenants[0].waiting_cycles, Cycles::ZERO);
        assert_eq!(stats.tenants[0].turnaround, stats.makespan);
        assert!(stats.makespan > Cycles::ZERO);
    }

    #[test]
    fn two_tenants_interleave_and_both_finish() {
        let (catalog, trace) = toy_setup();
        let specs = [
            TenantSpec::new("a", &catalog, &trace),
            TenantSpec::new("b", &catalog, &trace).with_weight(2),
        ];
        let stats = run_multitask(
            ArchParams::default(),
            Resources::new(2, 2),
            &specs,
            &MultitaskConfig::default(),
        )
        .unwrap();
        assert_eq!(stats.tenants.len(), 2);
        for t in &stats.tenants {
            assert_eq!(t.run.total_executions(), 6 * 300);
            assert!(
                t.turnaround > Cycles::ZERO,
                "tenant {} never finished",
                t.app
            );
        }
        assert!(stats.context_switches > 0, "two tenants must interleave");
        assert_eq!(
            stats.makespan,
            stats.tenants.iter().map(|t| t.turnaround).max().unwrap()
        );
        // The identical workloads under equal fabric shares should be
        // treated fairly by WFQ even with a 1:2 weight skew on the core.
        assert!(
            stats.jain_fairness() > 0.5,
            "jain {}",
            stats.jain_fairness()
        );
    }

    #[test]
    fn dynamic_repartitions_when_a_tenant_finishes() {
        let (catalog, trace) = toy_setup();
        let short = synthetic_trace(&toy(), &[Pattern::Constant(50)], 2);
        let specs = [
            TenantSpec::new("long", &catalog, &trace),
            TenantSpec::new("short", &catalog, &short),
        ];
        let cfg = MultitaskConfig {
            arbiter: ArbiterPolicy::Dynamic,
            // The toy workload is far below the default amortisation gate.
            repartition_min_demand: Cycles::ZERO,
            ..MultitaskConfig::default()
        };
        // A deliberately starved fabric (one PRC per tenant, no CG) keeps
        // the surviving tenant slice-constrained, so the short tenant's
        // exit must trigger a re-partition.
        let stats =
            run_multitask(ArchParams::default(), Resources::new(0, 2), &specs, &cfg).unwrap();
        assert_eq!(stats.repartitions, 1, "short tenant's exit frees its slice");
        assert!(stats.repartition_cycles > Cycles::ZERO);
    }

    #[test]
    fn dynamic_skips_repartition_when_no_tenant_is_constrained() {
        let (catalog, trace) = toy_setup();
        let short = synthetic_trace(&toy(), &[Pattern::Constant(50)], 2);
        let specs = [
            TenantSpec::new("long", &catalog, &trace),
            TenantSpec::new("short", &catalog, &short),
        ];
        let cfg = MultitaskConfig {
            arbiter: ArbiterPolicy::Dynamic,
            repartition_min_demand: Cycles::ZERO,
            ..MultitaskConfig::default()
        };
        // A roomy fabric: the toy app leaves containers free, so growing
        // its slice could not help and the arbiter must hold back.
        let stats =
            run_multitask(ArchParams::default(), Resources::new(4, 3), &specs, &cfg).unwrap();
        assert_eq!(stats.repartitions, 0, "unconstrained tenants are not grown");
    }

    #[test]
    fn run_is_deterministic() {
        let (catalog, trace) = toy_setup();
        let mk = || {
            let specs = [
                TenantSpec::new("a", &catalog, &trace),
                TenantSpec::new("b", &catalog, &trace).with_weight(3),
            ];
            run_multitask(
                ArchParams::default(),
                Resources::new(3, 2),
                &specs,
                &MultitaskConfig::default(),
            )
            .unwrap()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn slo_free_runs_ignore_the_armed_ladder() {
        // `degrade` defaults to true; without any SLO the laxity monitor
        // must never fire, so the two configurations are byte-identical.
        let (catalog, trace) = toy_setup();
        let mk = |degrade| {
            let specs = [
                TenantSpec::new("a", &catalog, &trace),
                TenantSpec::new("b", &catalog, &trace),
            ];
            let cfg = MultitaskConfig {
                degrade,
                ..MultitaskConfig::default()
            };
            run_multitask(ArchParams::default(), Resources::new(2, 2), &specs, &cfg).unwrap()
        };
        assert_eq!(mk(true), mk(false));
    }

    #[test]
    fn edf_runs_the_deadline_tenant_first_and_counts_misses() {
        let (catalog, trace) = toy_setup();
        let mk = || {
            let specs = [
                // A 1-cycle period is unmeetable: every block misses.
                TenantSpec::new("rt", &catalog, &trace).with_slo("hard:1".parse().unwrap()),
                TenantSpec::new("bg", &catalog, &trace),
            ];
            let cfg = MultitaskConfig {
                scheduler: SchedulerKind::EarliestDeadline,
                degrade: false,
                ..MultitaskConfig::default()
            };
            run_multitask(ArchParams::default(), Resources::new(2, 2), &specs, &cfg).unwrap()
        };
        let stats = mk();
        assert_eq!(stats, mk(), "SLO runs must stay deterministic");
        let rt = &stats.tenants[0];
        assert_eq!(rt.slo_deadlines, 6, "one deadline per block");
        assert_eq!(rt.deadline_misses, 6);
        assert_eq!(rt.tardiness.len() as u64, rt.deadline_misses);
        assert!(rt.max_tardiness() > 0);
        // EDF parks the unconstrained tenant: rt's blocks all run before
        // bg's first, so rt finishes before bg starts costing it switches.
        assert!(rt.turnaround < stats.tenants[1].turnaround);
        assert_eq!(stats.miss_rate(), 1.0, "all six scored deadlines missed");
        for t in &stats.tenants {
            assert_eq!(t.run.total_executions(), 6 * 300, "no work is dropped");
        }
    }

    #[test]
    fn admission_reject_sheds_the_infeasible_session() {
        let (catalog, trace) = toy_setup();
        let specs = [
            TenantSpec::new("greedy", &catalog, &trace).with_slo("soft:1".parse().unwrap()),
            TenantSpec::new("ok", &catalog, &trace),
        ];
        let cfg = MultitaskConfig {
            admission: AdmissionPolicy::Reject,
            ..MultitaskConfig::default()
        };
        let stats =
            run_multitask(ArchParams::default(), Resources::new(2, 2), &specs, &cfg).unwrap();
        assert_eq!(stats.tenants[0].admission, "rejected");
        assert_eq!(
            stats.tenants[0].run.total_executions(),
            0,
            "a rejected session never runs"
        );
        assert_eq!(stats.tenants[0].slo_deadlines, 0, "no deadlines scored");
        assert_eq!(stats.tenants[1].admission, "admitted");
        assert_eq!(stats.tenants[1].run.total_executions(), 6 * 300);
        // Only the admitted session's RISC time is in the aggregate: the
        // makespan contains none of the rejected one's work.
        let ran = stats.tenants[1].risc_baseline.get() as f64;
        assert_eq!(stats.aggregate_speedup(), ran / stats.makespan.get() as f64);
    }

    /// Runs toy tenants on a (2 CG, 2 PRC) machine under EDF and
    /// `admission`. Tenant `i` is `(criticality, ppm, blocks)`: it runs
    /// `blocks` blocks and, unless `ppm` is 0, has a periodic SLO of that
    /// criticality priced at `ppm` of the core on its initial slice.
    fn admission_run(
        admission: AdmissionPolicy,
        mix: &[(Criticality, u64, usize)],
    ) -> MultitaskStats {
        let toy = toy();
        let catalog = toy
            .application()
            .build_catalog(ArchParams::default(), None)
            .unwrap();
        let traces: Vec<Trace> = mix
            .iter()
            .map(|&(_, _, blocks)| synthetic_trace(&toy, &[Pattern::Constant(300)], blocks))
            .collect();
        let budget = Resources::new(2, 2);
        let pool = Machine::new(ArchParams::default(), budget)
            .unwrap()
            .capacity();
        let specs: Vec<TenantSpec<'_>> = mix
            .iter()
            .zip(&traces)
            .zip(pool.split_even(mix.len()))
            .enumerate()
            .map(|(i, ((&(criticality, ppm, _), trace), slice))| {
                let spec = TenantSpec::new(format!("t{i}"), &catalog, trace);
                if ppm == 0 {
                    return spec;
                }
                let slo = |period| Slo {
                    session_deadline: None,
                    block_period: Some(Cycles::new(period)),
                    criticality,
                };
                // At a 1 Mcycle period the price in ppm is the per-block
                // cost in cycles.
                let probe = TenantSpec::new("probe", &catalog, trace).with_slo(slo(1_000_000));
                let per_block = estimate_utilization_ppm(&probe, slice);
                spec.with_slo(slo(per_block * 1_000_000 / ppm))
            })
            .collect();
        let cfg = MultitaskConfig {
            scheduler: SchedulerKind::EarliestDeadline,
            admission,
            ..MultitaskConfig::default()
        };
        run_multitask(ArchParams::default(), budget, &specs, &cfg).unwrap()
    }

    fn verdicts(stats: &MultitaskStats) -> Vec<&str> {
        stats.tenants.iter().map(|t| t.admission.as_str()).collect()
    }

    #[test]
    fn reject_prefers_hard_over_soft_over_best_effort() {
        // Four sessions of 450k ppm each: only two fit. The hard one wins
        // first, then the lower-indexed soft one, regardless of index order.
        use Criticality::{BestEffort, Hard, Soft};
        let stats = admission_run(
            AdmissionPolicy::Reject,
            &[
                (BestEffort, 450_000, 6),
                (Soft, 450_000, 6),
                (Hard, 450_000, 6),
                (Soft, 450_000, 6),
            ],
        );
        assert_eq!(
            verdicts(&stats),
            ["rejected", "admitted", "admitted", "rejected"]
        );
    }

    #[test]
    fn queue_admits_on_retry_when_load_frees_up() {
        use Criticality::{BestEffort, Hard, Soft};
        let stats = admission_run(
            AdmissionPolicy::Queue,
            &[(Hard, 700_000, 6), (Soft, 700_000, 6), (BestEffort, 0, 30)],
        );
        assert_eq!(verdicts(&stats), ["admitted", "queued", "admitted"]);
        let turnaround: Vec<Cycles> = stats.tenants.iter().map(|t| t.turnaround).collect();
        // Tenant 1 got in when tenant 0 finished, while the long
        // SLO-free tenant 2 still kept the core busy.
        assert!(turnaround[0] < turnaround[1], "{turnaround:?}");
        assert!(turnaround[1] < turnaround[2], "{turnaround:?}");
    }

    #[test]
    fn force_admit_picks_highest_criticality_queued() {
        // Tenants 1 and 2 exceed the core on their own: they only ever
        // enter through the idle-core force-admit, hard one first.
        use Criticality::{Hard, Soft};
        let stats = admission_run(
            AdmissionPolicy::Queue,
            &[
                (Hard, 600_000, 6),
                (Soft, 2_000_000, 6),
                (Hard, 2_000_000, 6),
            ],
        );
        assert_eq!(verdicts(&stats), ["admitted", "queued", "queued"]);
        let turnaround: Vec<Cycles> = stats.tenants.iter().map(|t| t.turnaround).collect();
        assert!(turnaround[0] < turnaround[2], "{turnaround:?}");
        assert!(turnaround[2] < turnaround[1], "{turnaround:?}");
        for t in &stats.tenants {
            assert_eq!(t.run.total_executions(), 6 * 300, "queueing drops no work");
        }
    }

    #[test]
    fn deadlines_past_the_end_of_time_are_never_missed() {
        // A 2^63-cycle period puts the second block's due time past
        // u64::MAX; a u64::MAX session deadline does the same for any
        // session admitted after time zero. Both mean "no deadline".
        let (catalog, trace) = toy_setup();
        let cfg = MultitaskConfig {
            scheduler: SchedulerKind::EarliestDeadline,
            ..MultitaskConfig::default()
        };
        let specs = [
            TenantSpec::new("far", &catalog, &trace)
                .with_slo("hard:9223372036854775808".parse().unwrap()),
            TenantSpec::new("bg", &catalog, &trace),
        ];
        let params = ArchParams::default();
        let mut runner =
            MultitaskRunner::new(params.clone(), Resources::new(2, 2), &specs, &cfg, false)
                .unwrap();
        assert!(matches!(runner.step(), StepOutcome::Ran { .. }));
        let late = TenantSpec::new("late", &catalog, &trace)
            .with_slo("hard:0:18446744073709551615".parse().unwrap());
        let prep = prep_session(&params, &late).unwrap();
        runner
            .admit_session(&late, prep, Resources::NONE, 2)
            .unwrap();
        while let StepOutcome::Ran { tenant, finished } = runner.step() {
            if finished {
                runner.finish_session(tenant);
            }
            runner.ladder_maybe();
        }
        let (stats, _) = runner.into_stats();
        assert_eq!(stats.tenants[0].slo_deadlines, 6);
        assert_eq!(stats.tenants[2].slo_deadlines, 1);
        for t in &stats.tenants {
            assert_eq!(t.deadline_misses, 0, "{} missed a deadline", t.app);
            assert_eq!(t.run.total_executions(), 6 * 300);
        }
    }

    #[test]
    fn admission_queue_delays_but_never_drops() {
        let (catalog, trace) = toy_setup();
        let specs = [
            TenantSpec::new("greedy", &catalog, &trace).with_slo("soft:1".parse().unwrap()),
            TenantSpec::new("ok", &catalog, &trace),
        ];
        let cfg = MultitaskConfig {
            admission: AdmissionPolicy::Queue,
            ..MultitaskConfig::default()
        };
        let stats =
            run_multitask(ArchParams::default(), Resources::new(2, 2), &specs, &cfg).unwrap();
        assert_eq!(stats.tenants[0].admission, "queued");
        for t in &stats.tenants {
            assert_eq!(
                t.run.total_executions(),
                6 * 300,
                "queueing must not drop work"
            );
        }
        // The queued session only got the core after the feasible one
        // finished (its utilization still fails the test, so it entered
        // via the idle-core force-admit).
        assert!(stats.tenants[0].turnaround > stats.tenants[1].turnaround);
    }

    #[test]
    fn ladder_lends_fabric_to_the_tardy_and_pays_it_back() {
        let (catalog, trace) = toy_setup();
        // Baseline without degradation, to place a missable deadline.
        let mk = |slo: Option<Slo>, degrade: bool| {
            let mut rt = TenantSpec::new("rt", &catalog, &trace);
            if let Some(slo) = slo {
                rt = rt.with_slo(slo);
            }
            let specs = [rt, TenantSpec::new("bg", &catalog, &trace)];
            let cfg = MultitaskConfig {
                scheduler: SchedulerKind::EarliestDeadline,
                repartition_min_demand: Cycles::ZERO,
                degrade,
                ..MultitaskConfig::default()
            };
            // A pure-PRC fabric: each tenant starts with a single PRC, so
            // the rt tenant is slice-constrained from its first block.
            run_multitask(ArchParams::default(), Resources::new(0, 2), &specs, &cfg).unwrap()
        };
        let base = mk(None, false);
        let slo = Slo {
            session_deadline: Some(Cycles::new((base.tenants[0].turnaround.get() / 2).max(1))),
            block_period: None,
            criticality: Criticality::Hard,
        };
        let stats = mk(Some(slo), true);
        assert_eq!(stats, mk(Some(slo), true), "ladder runs are deterministic");
        let bg = &stats.tenants[1];
        assert!(
            bg.degrade_steps > 0,
            "the slack-rich tenant must be demoted for the tardy one"
        );
        assert_eq!(
            bg.degrade_steps, bg.promote_steps,
            "every ladder loan is paid back"
        );
        assert_eq!(
            stats.degrade_steps(),
            bg.degrade_steps,
            "rt is never demoted"
        );
        for t in &stats.tenants {
            assert_eq!(
                t.run.total_executions(),
                6 * 300,
                "degrade-don't-drop: nobody loses work"
            );
        }
    }

    #[test]
    fn event_recording_is_transparent_under_slos() {
        let (catalog, trace) = toy_setup();
        let slo = Slo {
            session_deadline: Some(Cycles::new(1000)),
            block_period: None,
            criticality: Criticality::Hard,
        };
        let mk = |sink: Option<&mut VecSink>| {
            let specs = [
                TenantSpec::new("rt", &catalog, &trace).with_slo(slo),
                TenantSpec::new("bg", &catalog, &trace),
            ];
            let cfg = MultitaskConfig {
                scheduler: SchedulerKind::LeastLaxity,
                repartition_min_demand: Cycles::ZERO,
                ..MultitaskConfig::default()
            };
            let budget = Resources::new(0, 2);
            match sink {
                Some(s) => {
                    run_multitask_with_events(ArchParams::default(), budget, &specs, &cfg, s)
                }
                None => run_multitask(ArchParams::default(), budget, &specs, &cfg),
            }
            .unwrap()
        };
        let mut sink = VecSink::new();
        let with_events = mk(Some(&mut sink));
        let silent = mk(None);
        assert_eq!(with_events, silent, "recording must stay observational");
        let events = sink.take();
        assert!(
            events
                .iter()
                .any(|(_, e)| matches!(e, SimEvent::DeadlineMiss { .. })),
            "the missed session deadline must be on the spine"
        );
        assert!(
            events
                .iter()
                .any(|(_, e)| matches!(e, SimEvent::DegradeStep { .. })),
            "ladder steps must be on the spine"
        );
    }

    #[test]
    fn live_state_stays_bounded_over_two_thousand_sessions() {
        const SESSIONS: usize = 2_000;
        const CONCURRENT: usize = 3;
        let (catalog, _) = toy_setup();
        let trace = synthetic_trace(&toy(), &[Pattern::Constant(40)], 2);
        let params = ArchParams::default();
        let cfg = MultitaskConfig {
            repartition_min_demand: Cycles::ZERO,
            ..MultitaskConfig::default()
        };
        let mut runner =
            MultitaskRunner::new(params.clone(), Resources::new(2, 2), &[], &cfg, false).unwrap();
        let slice = runner.pool().split_even(CONCURRENT)[0];
        let specs = [
            TenantSpec::new("be", &catalog, &trace),
            TenantSpec::new("rt", &catalog, &trace).with_slo("hard:1000".parse().unwrap()),
        ];
        let preps = specs.each_ref().map(|s| prep_session(&params, s).unwrap());
        let mut admitted = 0;
        let mut departed = 0;
        while departed < SESSIONS {
            while admitted < SESSIONS && runner.tenants.len() < CONCURRENT {
                let k = admitted % 2;
                let id = runner
                    .admit_session(&specs[k], preps[k].clone(), slice, admitted as u32)
                    .unwrap();
                assert_eq!(id, admitted, "ids are admission indices");
                admitted += 1;
            }
            let StepOutcome::Ran { tenant, finished } = runner.step() else {
                panic!("admitted sessions must run");
            };
            if finished {
                // Both departure paths retire.
                if tenant % 2 == 0 {
                    runner.finish_session(tenant);
                } else {
                    let _ = runner.depart_session(tenant);
                }
                departed += 1;
                let live = runner.tenants.len();
                assert!(live < CONCURRENT, "{live} sessions still live");
                assert!(runner.scheduler.tracked() <= live);
                assert_eq!(runner.arbiter.slices().len(), live);
                for scratch in [
                    runner.runnable.len(),
                    runner.deadlines.len(),
                    runner.laxities.len(),
                ] {
                    assert!(scratch <= CONCURRENT, "scratch of {scratch} entries");
                }
            }
            runner.ladder_maybe();
        }
        let pool = runner.pool();
        let held: Resources = runner.arbiter.slices().iter().copied().sum();
        assert_eq!(held + runner.free_fabric() + runner.arbiter.retired(), pool);
        let (stats, _) = runner.into_stats();
        assert_eq!(stats.tenants.len(), SESSIONS);
        for (i, t) in stats.tenants.iter().enumerate() {
            assert_eq!(t.tenant, i, "stats come back in id order");
            assert_eq!(t.run.total_executions(), 2 * 40);
        }
    }

    #[test]
    fn per_tenant_fault_state_stays_private() {
        let (catalog, trace) = toy_setup();
        let specs = [
            TenantSpec::new("faulty", &catalog, &trace).with_fault_model(FaultModel::new(0.9, 7)),
            TenantSpec::new("clean", &catalog, &trace),
        ];
        let stats = run_multitask(
            ArchParams::default(),
            Resources::new(2, 2),
            &specs,
            &MultitaskConfig::default(),
        )
        .unwrap();
        assert_eq!(stats.tenants[1].run.failed_loads, 0, "faults must not leak");
        for t in &stats.tenants {
            assert_eq!(t.run.total_executions(), 6 * 300);
        }
    }
}
