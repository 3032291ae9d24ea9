//! The long-lived service core: an open-loop fleet run.
//!
//! [`run_fleet`] drives a time-sorted arrival list through admission,
//! placement and execution on `fabrics` independent [`MultitaskRunner`]
//! shards. Each shard owns one fabric pool, `ways` admission lanes with
//! fixed base shares, a bounded FIFO wait queue and an
//! [`AdmissionController`]; sessions that finish free their lane (and,
//! under the dynamic arbiter, their fabric slice) for queued or future
//! sessions.
//!
//! # Determinism
//!
//! The driver is strictly sequential: it always steps the busy shard with
//! the smallest `(clock, index)` and delivers an arrival exactly when no
//! busy shard's clock is behind it (so arrivals at `t = 0` on one fabric
//! reproduce the batch runner byte-for-byte). All state is integral, the
//! arrival list is data, and placement is a pure function of shard load —
//! a fleet run is therefore a deterministic function of its inputs, and
//! replaying an emitted arrival trace reproduces it exactly.

use std::collections::VecDeque;

use mrts_arch::{ArchParams, Cycles, Resources};
use mrts_multitask::{
    estimate_utilization_ppm, parse_slo_field, AdmissionController, AdmissionOutcome,
    AdmissionPolicy, ArbiterPolicy, Criticality, MultitaskConfig, MultitaskError, MultitaskRunner,
    SelectionMemo, Slo, StepOutcome, TenantSpec,
};
use mrts_sim::{FabricStats, FleetStats, MultitaskStats, SessionStats, SimEvent};

use crate::arrivals::SessionRecord;
use crate::placement::{Placement, ShardLoad};
use crate::registry::AppRegistry;

/// Configuration of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Per-shard runner configuration. `multitask.admission` is the
    /// *fleet-level* admission policy — the shard runners themselves run
    /// with admission off (each shard's own controller prices sessions as
    /// they arrive); `multitask.arbiter` picks dynamic
    /// re-apportionment vs. static partitioning per shard.
    pub multitask: MultitaskConfig,
    /// Independent fabric shards.
    pub fabrics: usize,
    /// Admission lanes per shard: the maximum number of concurrently
    /// admitted sessions, each with a fixed base share of the shard's
    /// fabric (`budget.split_even(ways)`).
    pub ways: usize,
    /// Wait-queue capacity per shard; `0` turns every overflow into a
    /// structural rejection.
    pub queue_cap: usize,
    /// Which shard a submitted session goes to.
    pub placement: Placement,
    /// Per-shard fabric budget (in slots).
    pub budget: Resources,
    /// Width of the fabric-utilization reporting windows, at least one
    /// cycle. A run may span at most 4 Mi (2^22) of them.
    pub window: Cycles,
    /// Record the merged event spine (session lifecycle + per-tenant
    /// engine events).
    pub record_events: bool,
}

impl Default for FleetConfig {
    /// Two fabrics of the default multitask budget, four lanes and a
    /// 16-deep queue each, least-loaded placement, 1 Mcycle windows.
    fn default() -> Self {
        FleetConfig {
            multitask: MultitaskConfig::default(),
            fabrics: 2,
            ways: 4,
            queue_cap: 16,
            placement: Placement::LeastLoaded,
            budget: Resources::new(8, 8),
            window: Cycles::new(1_000_000),
            record_events: false,
        }
    }
}

/// The most fabric-utilization windows a fleet run may span: 4 Mi windows,
/// a 32 MiB busy-time row per shard. At the default 1 Mcycle window that is
/// over four trillion cycles, about three hours at the 400 MHz core.
pub(crate) const MAX_WINDOWS: u64 = 1 << 22;

/// The utilization window `at` falls in, or `None` past [`MAX_WINDOWS`].
fn window_index(at: Cycles, window: u64) -> Option<usize> {
    let w = at.get() / window;
    if w < MAX_WINDOWS {
        usize::try_from(w).ok()
    } else {
        None
    }
}

/// Errors of [`run_fleet`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// `fabrics` or `ways` was zero.
    Config(String),
    /// The arrival list was not sorted by submission time.
    UnsortedArrivals {
        /// Index of the first record earlier than its predecessor.
        index: usize,
    },
    /// An arrival referenced an app the registry does not hold, or
    /// carried a malformed SLO field.
    BadRecord {
        /// Index of the offending record.
        index: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// The run would span more than 2^22 utilization windows
    /// of `window` cycles: record `index` is submitted, or its session
    /// runs, past the last one. A wider [`FleetConfig::window`] covers a
    /// longer run.
    Window {
        /// Index of the offending record.
        index: usize,
        /// The configured window width, in cycles.
        window: u64,
    },
    /// A shard runner failed.
    Multitask(MultitaskError),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Config(msg) => write!(f, "bad fleet config: {msg}"),
            FleetError::UnsortedArrivals { index } => {
                write!(f, "arrival {index} is earlier than its predecessor")
            }
            FleetError::BadRecord { index, reason } => {
                write!(f, "arrival {index}: {reason}")
            }
            FleetError::Window { index, window } => write!(
                f,
                "arrival {index}: arrives or runs past the last of {MAX_WINDOWS} \
                 utilization windows of {window} cycles (widen `window`)"
            ),
            FleetError::Multitask(e) => write!(f, "shard runner: {e}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<MultitaskError> for FleetError {
    fn from(e: MultitaskError) -> Self {
        FleetError::Multitask(e)
    }
}

/// Everything a fleet run produces.
#[derive(Debug)]
pub struct FleetOutcome {
    /// Fleet-level aggregates (offered/accepted load, session latencies,
    /// fabric utilization over time).
    pub stats: FleetStats,
    /// Per-shard batch statistics (tenant speedups, switches,
    /// repartitions), in fabric order.
    pub shards: Vec<MultitaskStats>,
    /// The merged event spine, `(global session id, event)` in global
    /// time order; empty unless [`FleetConfig::record_events`].
    pub events: Vec<(u32, SimEvent)>,
}

/// A parsed arrival, ready for placement.
#[derive(Debug, Clone)]
struct Submission {
    global: u32,
    app: usize,
    variant: usize,
    weight: u64,
    slo: Option<Slo>,
    submitted: Cycles,
}

impl Submission {
    fn criticality(&self) -> Criticality {
        self.slo.map(|s| s.criticality).unwrap_or_default()
    }

    fn constrained(&self) -> bool {
        self.slo.is_some_and(|s| !s.is_unconstrained())
    }
}

/// A session waiting in a shard's admission queue. `cidx` is its index in
/// the shard's [`AdmissionController`] once it has been priced (sessions
/// that queued because no lane was free are priced at dequeue time).
#[derive(Debug, Clone)]
struct Waiting {
    sub: Submission,
    util: u64,
    cidx: Option<usize>,
}

/// Book-keeping for one admitted session, held by the lane it occupies.
#[derive(Debug, Clone, Copy)]
struct LocalSession {
    /// The session's id in the shard runner.
    tenant: usize,
    global: u32,
    cidx: usize,
    util: u64,
    constrained: bool,
}

/// One fabric shard: a multitask runner plus the fleet's service-side state.
struct Shard<'a> {
    runner: MultitaskRunner<'a>,
    controller: AdmissionController,
    /// Lane occupancy: `lanes[l]` is the session running in lane `l`.
    lanes: Vec<Option<LocalSession>>,
    /// Fixed base share of each lane.
    bases: Vec<Resources>,
    queue: VecDeque<Waiting>,
    /// Live SLO-constrained utilization, for criticality-aware placement.
    slo_util_ppm: u64,
    busy_cycles: u64,
    busy_windows: Vec<u64>,
    completed: u64,
    last_active: Cycles,
}

impl std::fmt::Debug for Shard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("lanes", &self.lanes)
            .field("queued", &self.queue.len())
            .field("completed", &self.completed)
            .finish_non_exhaustive()
    }
}

impl<'a> Shard<'a> {
    fn live(&self) -> usize {
        self.lanes.iter().filter(|l| l.is_some()).count()
    }

    fn free_lane(&self) -> Option<usize> {
        self.lanes.iter().position(Option::is_none)
    }

    fn load(&self) -> ShardLoad {
        ShardLoad {
            live: self.live(),
            queued: self.queue.len(),
            util_ppm: self.controller.live_load_ppm(),
            slo_util_ppm: self.slo_util_ppm,
        }
    }

    /// The session's projected utilization against lane `lane`'s base
    /// share — the price the admission controller charges.
    fn price(&self, apps: &Apps<'_>, sub: &Submission, lane: usize) -> u64 {
        estimate_utilization_ppm(&apps.spec(sub), self.bases[lane])
    }
}

/// What one [`run_fleet`] call serves sessions from: the registry and one
/// selection memo per app, shared by every session of the app on every
/// shard and dropped when the call returns. Sessions replay a few trace
/// variants on equal lane shares, so nearly every trigger repeats one an
/// earlier session met (DESIGN.md §7.4).
struct Apps<'a> {
    registry: &'a AppRegistry,
    memos: Vec<SelectionMemo>,
}

impl<'a> Apps<'a> {
    fn new(registry: &'a AppRegistry) -> Self {
        let memos = registry
            .names()
            .iter()
            .map(|_| SelectionMemo::new())
            .collect();
        Apps { registry, memos }
    }

    /// The tenant of submission `sub`, sharing its app's memo.
    fn spec(&self, sub: &Submission) -> TenantSpec<'_> {
        let app = sub.app;
        let mut spec = TenantSpec::new(
            self.registry.name(app),
            self.registry.catalog(app),
            self.registry.trace(app, sub.variant),
        )
        .with_weight(sub.weight)
        .with_memo(&self.memos[app]);
        if let Some(slo) = sub.slo {
            spec = spec.with_slo(slo);
        }
        spec
    }
}

/// Parses and validates the arrival list against the registry and the
/// `window` width.
fn parse_arrivals(
    registry: &AppRegistry,
    records: &[SessionRecord],
    window: u64,
) -> Result<Vec<Submission>, FleetError> {
    let mut subs = Vec::with_capacity(records.len());
    let mut prev = 0u64;
    for (i, r) in records.iter().enumerate() {
        if r.at < prev {
            return Err(FleetError::UnsortedArrivals { index: i });
        }
        prev = r.at;
        let app = registry
            .index_of(&r.app)
            .ok_or_else(|| FleetError::BadRecord {
                index: i,
                reason: format!("unknown app '{}'", r.app),
            })?;
        let slo = parse_slo_field(&r.slo).map_err(|e| FleetError::BadRecord {
            index: i,
            reason: e,
        })?;
        let variants = registry.variant_count(app).max(1);
        subs.push(Submission {
            global: u32::try_from(i).unwrap_or(u32::MAX),
            app,
            variant: usize::try_from(r.variant).unwrap_or(usize::MAX) % variants,
            weight: r.weight.max(1),
            slo,
            submitted: Cycles::new(r.at),
        });
    }
    // Sorted, so the records past the last window form a suffix.
    let late = records.partition_point(|r| window_index(Cycles::new(r.at), window).is_some());
    if late < records.len() {
        return Err(FleetError::Window {
            index: late,
            window,
        });
    }
    Ok(subs)
}

/// Runs an open-loop fleet: `records` (time-sorted) submitted against
/// `cfg.fabrics` shards built from `registry`'s apps.
///
/// # Errors
///
/// [`FleetError`] on a bad configuration, an unsorted arrival list, a
/// record the registry cannot resolve, or a shard runner failure.
pub fn run_fleet(
    params: &ArchParams,
    registry: &AppRegistry,
    records: &[SessionRecord],
    cfg: &FleetConfig,
) -> Result<FleetOutcome, FleetError> {
    if cfg.fabrics == 0 {
        return Err(FleetError::Config("fabrics must be >= 1".into()));
    }
    if cfg.ways == 0 {
        return Err(FleetError::Config("ways must be >= 1".into()));
    }
    if cfg.window == Cycles::ZERO {
        return Err(FleetError::Config("window must be >= 1".into()));
    }
    let window = cfg.window.get();
    let subs = parse_arrivals(registry, records, window)?;
    let apps = Apps::new(registry);

    // Shard runners start empty, with their admission control off: the
    // fleet's per-shard controllers are the admission authority.
    let mut shard_cfg = cfg.multitask.clone();
    shard_cfg.admission = AdmissionPolicy::Off;
    let fleet_admission = cfg.multitask.admission;

    let mut shards: Vec<Shard<'_>> = Vec::with_capacity(cfg.fabrics);
    for _ in 0..cfg.fabrics {
        let runner = MultitaskRunner::new(
            params.clone(),
            cfg.budget,
            &[],
            &shard_cfg,
            cfg.record_events,
        )?;
        // Lane bases partition the arbiter's pool, which is in machine
        // *slot* units (capacity), not raw budget units — the same split
        // the batch runner hands an up-front tenant list.
        let bases = runner.pool().split_even(cfg.ways);
        shards.push(Shard {
            runner,
            controller: AdmissionController::new(fleet_admission),
            lanes: vec![None; cfg.ways],
            bases,
            queue: VecDeque::new(),
            slo_util_ppm: 0,
            busy_cycles: 0,
            busy_windows: Vec::new(),
            completed: 0,
            last_active: Cycles::ZERO,
        });
    }

    let mut sessions: Vec<SessionStats> = subs
        .iter()
        .zip(records)
        .map(|(sub, r)| SessionStats {
            id: sub.global,
            app: r.app.clone(),
            fabric: None,
            weight: sub.weight,
            submitted: sub.submitted,
            admitted_at: sub.submitted,
            departed_at: sub.submitted,
            rejected: false,
            queued: false,
        })
        .collect();

    let dynamic = cfg.multitask.arbiter == ArbiterPolicy::Dynamic;
    let mut rr = 0usize;
    let mut next = 0usize;

    loop {
        // The busy shard owning global "now": smallest (clock, index).
        let active = (0..shards.len())
            .filter(|&s| shards[s].runner.has_runnable())
            .min_by_key(|&s| (shards[s].runner.now(), s));

        // Deliver every arrival that is not ahead of global time. With no
        // busy shard, time jumps straight to the next arrival.
        let deliver = next < subs.len()
            && active.is_none_or(|s| shards[s].runner.now() >= subs[next].submitted);
        if deliver {
            let sub = subs[next].clone();
            next += 1;
            let target = cfg.placement.place(
                &shards.iter().map(Shard::load).collect::<Vec<_>>(),
                sub.criticality(),
                sub.constrained(),
                &mut rr,
            );
            let shard = &mut shards[target];
            // A lagging (necessarily idle) shard catches up to the arrival.
            shard.runner.advance_clock_to(sub.submitted);
            let global = sub.global;
            submit(&apps, shard, target, sub, cfg, dynamic, &mut sessions)?;
            check_window(shard, window, global)?;
            continue;
        }

        let Some(s) = active else { break };
        step_shard(&apps, &mut shards, s, dynamic, window, &mut sessions)?;
    }

    // Assemble the fleet aggregates and drain the shard runners.
    let mut shard_stats = Vec::with_capacity(shards.len());
    let mut events: Vec<(u32, SimEvent)> = Vec::new();
    let mut fabrics = Vec::with_capacity(shards.len());
    let mut busy_windows: Vec<Vec<u64>> = Vec::with_capacity(shards.len());
    let mut makespan = Cycles::ZERO;
    for (i, shard) in shards.into_iter().enumerate() {
        debug_assert!(
            shard.queue.is_empty(),
            "drained fleet left a queued session"
        );
        fabrics.push(FabricStats {
            fabric: i,
            sessions: shard.completed,
            busy_cycles: Cycles::new(shard.busy_cycles),
            last_active: shard.last_active,
        });
        busy_windows.push(shard.busy_windows);
        let (stats, shard_events) = shard.runner.into_stats();
        makespan = makespan.max(stats.makespan);
        events.extend(shard_events);
        shard_stats.push(stats);
    }
    // One global spine: stable by-time merge keeps each shard's (already
    // ordered) stream internally ordered on ties.
    events.sort_by_key(|(_, ev)| ev.at());
    // Every clock advance was checked against the window bound.
    let windows = window_index(makespan, window).map_or(MAX_WINDOWS as usize, |w| w + 1);
    for w in &mut busy_windows {
        w.resize(windows, 0);
    }

    let accepted = sessions.iter().filter(|s| !s.rejected).count() as u64;
    let rejected = sessions.len() as u64 - accepted;
    let stats = FleetStats {
        policy: format!(
            "{}+{}+{}",
            cfg.placement,
            cfg.multitask.arbiter.label(),
            fleet_admission.label()
        ),
        offered: subs.len() as u64,
        accepted,
        rejected,
        makespan,
        sessions,
        fabrics,
        window_cycles: Cycles::new(window),
        busy_windows,
    };
    Ok(FleetOutcome {
        stats,
        shards: shard_stats,
        events,
    })
}

/// Delivers one arrival to its placed shard: price it if a lane is free
/// and nothing is ahead of it in the queue, otherwise queue or reject.
fn submit<'a>(
    apps: &'a Apps<'a>,
    shard: &mut Shard<'a>,
    fabric: usize,
    sub: Submission,
    cfg: &FleetConfig,
    dynamic: bool,
    sessions: &mut [SessionStats],
) -> Result<(), FleetError> {
    let g = sub.global as usize;
    if shard.queue.is_empty() {
        if let Some(lane) = shard.free_lane() {
            let util = shard.price(apps, &sub, lane);
            let (cidx, outcome) = shard.controller.offer(util);
            match outcome {
                AdmissionOutcome::Admitted => {
                    admit_now(
                        apps, shard, fabric, sub, util, cidx, false, dynamic, sessions,
                    )?;
                }
                AdmissionOutcome::Rejected => {
                    sessions[g].rejected = true;
                }
                AdmissionOutcome::Queued => {
                    if shard.live() == 0 {
                        // Livelock escape: an infeasible session must not
                        // starve an idle fabric.
                        shard.controller.admit_anyway(cidx);
                        admit_now(
                            apps, shard, fabric, sub, util, cidx, false, dynamic, sessions,
                        )?;
                    } else if shard.queue.len() < cfg.queue_cap {
                        sessions[g].queued = true;
                        shard.queue.push_back(Waiting {
                            sub,
                            util,
                            cidx: Some(cidx),
                        });
                    } else {
                        shard.controller.complete(cidx);
                        sessions[g].rejected = true;
                    }
                }
            }
            return Ok(());
        }
    }
    // All lanes busy (or the queue already holds earlier sessions, which
    // keep FIFO priority): wait if there is room.
    if shard.queue.len() < cfg.queue_cap {
        sessions[g].queued = true;
        shard.queue.push_back(Waiting {
            sub,
            util: 0,
            cidx: None,
        });
    } else {
        sessions[g].rejected = true;
    }
    Ok(())
}

/// Admits a session into the lowest free lane, clawing its base share
/// back from over-granted incumbents first under the dynamic arbiter.
#[allow(clippy::too_many_arguments)]
fn admit_now<'a>(
    apps: &'a Apps<'a>,
    shard: &mut Shard<'a>,
    fabric: usize,
    sub: Submission,
    util: u64,
    cidx: usize,
    from_queue: bool,
    dynamic: bool,
    sessions: &mut [SessionStats],
) -> Result<(), FleetError> {
    let lane = shard.free_lane().expect("admit_now requires a free lane");
    let base = shard.bases[lane];
    // Mostly-lazy reclaim: the newcomer takes whatever is free (capped at
    // the lane's base share, `admit_session` grants `slice.min(free)`) —
    // evicting incumbents that absorbed departed slices destroys resident
    // state worth more than a newcomer's head start. But a session must
    // not start fabric-less either, so incumbents are clawed back just to
    // a floor of half the base share. A newcomer squeezed below base
    // exhausts its slice immediately, reads as slice-constrained, and is
    // first in line at the next departure's demand-driven release.
    if dynamic {
        let floor = Resources::new(base.cg().div_ceil(2), base.prc().div_ceil(2));
        let shortfall = floor.saturating_sub(shard.runner.free_fabric());
        if !shortfall.is_empty() {
            shard.runner.charge_repartition();
            let mut victims: Vec<(usize, Resources)> = shard
                .lanes
                .iter()
                .enumerate()
                .filter_map(|(l, s)| {
                    s.map(|s| {
                        let t = s.tenant;
                        (t, shard.runner.grant(t).saturating_sub(shard.bases[l]))
                    })
                })
                .filter(|(_, over)| !over.is_empty())
                .collect();
            victims.sort_by_key(|&(t, over)| (std::cmp::Reverse(over.total()), t));
            let mut need = shortfall;
            for (t, over) in victims {
                if need.is_empty() {
                    break;
                }
                let got = shard.runner.reclaim_session(t, over.min(need));
                need = need.saturating_sub(got);
            }
        }
    }
    let prep = apps.registry.prep(sub.app, sub.variant).clone();
    let tenant = shard
        .runner
        .admit_session(&apps.spec(&sub), prep, base, sub.global)?;
    let constrained = sub.constrained();
    if constrained {
        shard.slo_util_ppm = shard.slo_util_ppm.saturating_add(util);
    }
    shard.lanes[lane] = Some(LocalSession {
        tenant,
        global: sub.global,
        cidx,
        util,
        constrained,
    });
    let now = shard.runner.now();
    let g = sub.global as usize;
    sessions[g].fabric = Some(fabric);
    sessions[g].admitted_at = now;
    sessions[g].queued |= from_queue;
    shard.runner.emit_event(
        sub.global,
        SimEvent::SessionAdmitted {
            at: now,
            session: sub.global,
            fabric: fabric as u32,
            queued_for: now.saturating_sub(sub.submitted),
        },
    );
    Ok(())
}

/// Steps shard `s` once and handles a finishing session: departure
/// book-keeping, slice release and queue drain.
fn step_shard<'a>(
    apps: &'a Apps<'a>,
    shards: &mut [Shard<'a>],
    s: usize,
    dynamic: bool,
    window: u64,
    sessions: &mut [SessionStats],
) -> Result<(), FleetError> {
    let shard = &mut shards[s];
    let t0 = shard.runner.now();
    let StepOutcome::Ran { tenant, finished } = shard.runner.step() else {
        return Ok(());
    };
    let lane = shard
        .lanes
        .iter()
        .position(|l| l.is_some_and(|m| m.tenant == tenant))
        .expect("a running session holds a lane");
    let global = shard.lanes[lane].expect("found above").global;
    // Busy time lands in the window the work started in — windows are a
    // reporting granularity, not a scheduling one.
    let span = shard.runner.now().get() - t0.get();
    if span > 0 {
        let w = window_index(t0, window).ok_or(FleetError::Window {
            index: global as usize,
            window,
        })?;
        if shard.busy_windows.len() <= w {
            shard.busy_windows.resize(w + 1, 0);
        }
        shard.busy_windows[w] += span;
        shard.busy_cycles += span;
    }
    if finished {
        let meta = shard.lanes[lane].take().expect("found above");
        let now = shard.runner.now();
        let g = meta.global as usize;
        sessions[g].departed_at = now;
        shard.completed += 1;
        shard.last_active = now;
        shard.runner.emit_event(
            meta.global,
            SimEvent::SessionDeparted {
                at: now,
                session: meta.global,
                fabric: s as u32,
                latency: now.saturating_sub(sessions[g].submitted),
            },
        );
        shard.controller.complete(meta.cidx);
        if meta.constrained {
            shard.slo_util_ppm = shard.slo_util_ppm.saturating_sub(meta.util);
        }
        if dynamic && shard.queue.is_empty() {
            // No successor waiting: the classic mRTS path — redistribute
            // the freed slice across the survivors by remaining demand.
            shard.runner.finish_session(tenant);
        } else {
            // A queued session (or the static partitioning baseline) gets
            // the slice back as free fabric instead.
            let _ = shard.runner.depart_session(tenant);
        }
        drain_queue(apps, shard, s, dynamic, sessions)?;
    }
    shard.runner.ladder_maybe();
    check_window(shard, window, global)
}

/// Fails with [`FleetError::Window`], naming session `global`, once the
/// shard's clock has run past the last utilization window.
fn check_window(shard: &Shard<'_>, window: u64, global: u32) -> Result<(), FleetError> {
    match window_index(shard.runner.now(), window) {
        Some(_) => Ok(()),
        None => Err(FleetError::Window {
            index: global as usize,
            window,
        }),
    }
}

/// Admits queue heads while lanes and admission capacity allow, in strict
/// FIFO order.
fn drain_queue<'a>(
    apps: &'a Apps<'a>,
    shard: &mut Shard<'a>,
    fabric: usize,
    dynamic: bool,
    sessions: &mut [SessionStats],
) -> Result<(), FleetError> {
    while let Some(lane) = shard.free_lane() {
        let Some(head_cidx) = shard.queue.front().map(|h| h.cidx) else {
            break;
        };
        let admit = match head_cidx {
            Some(cidx) => {
                shard.controller.retry_one(cidx)
                    || (shard.live() == 0 && {
                        shard.controller.admit_anyway(cidx);
                        true
                    })
            }
            None => {
                // Queued for lack of a lane, never priced: price it now
                // against the lane it is about to occupy.
                let sub = shard.queue.front().expect("checked non-empty").sub.clone();
                let util = shard.price(apps, &sub, lane);
                let (cidx, outcome) = shard.controller.offer(util);
                {
                    let head = shard.queue.front_mut().expect("checked non-empty");
                    head.util = util;
                    head.cidx = Some(cidx);
                }
                match outcome {
                    AdmissionOutcome::Admitted => true,
                    AdmissionOutcome::Rejected => {
                        let head = shard.queue.pop_front().expect("checked non-empty");
                        sessions[head.sub.global as usize].rejected = true;
                        continue;
                    }
                    AdmissionOutcome::Queued => {
                        shard.live() == 0 && {
                            shard.controller.admit_anyway(cidx);
                            true
                        }
                    }
                }
            }
        };
        if !admit {
            break;
        }
        let head = shard.queue.pop_front().expect("checked non-empty");
        let cidx = head.cidx.expect("admitted head was priced");
        admit_now(
            apps, shard, fabric, head.sub, head.util, cidx, true, dynamic, sessions,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{poisson_arrivals, PoissonConfig};

    fn toy_registry(params: &ArchParams) -> AppRegistry {
        AppRegistry::new(params, &["toy"], 2, 11, 40).unwrap()
    }

    fn toy_records(n: usize, mean_gap: u64, seed: u64) -> Vec<SessionRecord> {
        poisson_arrivals(&PoissonConfig {
            seed,
            sessions: n,
            mean_gap,
            ..PoissonConfig::default()
        })
    }

    #[test]
    fn fleet_runs_and_conserves_sessions() {
        let params = ArchParams::default();
        let registry = toy_registry(&params);
        let records = toy_records(60, 100_000, 3);
        let cfg = FleetConfig {
            fabrics: 2,
            ways: 2,
            queue_cap: 4,
            ..FleetConfig::default()
        };
        let out = run_fleet(&params, &registry, &records, &cfg).unwrap();
        assert_eq!(out.stats.offered, 60);
        assert_eq!(out.stats.accepted + out.stats.rejected, 60);
        assert_eq!(out.stats.sessions.len(), 60);
        for s in &out.stats.sessions {
            if s.rejected {
                assert!(s.fabric.is_none());
            } else {
                assert!(s.fabric.is_some());
                assert!(s.admitted_at >= s.submitted);
                assert!(s.departed_at >= s.admitted_at);
            }
        }
        let ran: u64 = out.stats.fabrics.iter().map(|f| f.sessions).sum();
        assert_eq!(ran, out.stats.accepted);
        assert_eq!(out.stats.busy_windows.len(), 2);
        let w0 = out.stats.busy_windows[0].len();
        assert!(out.stats.busy_windows.iter().all(|w| w.len() == w0));
    }

    #[test]
    fn fleet_is_replay_deterministic() {
        let params = ArchParams::default();
        let registry = toy_registry(&params);
        let records = toy_records(40, 80_000, 9);
        let cfg = FleetConfig {
            record_events: true,
            ..FleetConfig::default()
        };
        let a = run_fleet(&params, &registry, &records, &cfg).unwrap();
        let b = run_fleet(&params, &registry, &records, &cfg).unwrap();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.events, b.events);
        assert!(
            a.events
                .iter()
                .any(|(_, e)| matches!(e, SimEvent::SessionAdmitted { .. })),
            "spine must carry session lifecycle events"
        );
        assert!(a.events.windows(2).all(|w| w[0].1.at() <= w[1].1.at()));
    }

    #[test]
    fn zero_fabrics_and_unsorted_arrivals_are_rejected() {
        let params = ArchParams::default();
        let registry = toy_registry(&params);
        let cfg = FleetConfig {
            fabrics: 0,
            ..FleetConfig::default()
        };
        assert!(matches!(
            run_fleet(&params, &registry, &[], &cfg),
            Err(FleetError::Config(_))
        ));
        // A zero-width utilization window is refused, not clamped to one
        // cycle behind the configured width the report prints.
        let cfg = FleetConfig {
            window: Cycles::ZERO,
            ..FleetConfig::default()
        };
        let err = run_fleet(&params, &registry, &toy_records(5, 50_000, 1), &cfg).unwrap_err();
        assert_eq!(err, FleetError::Config("window must be >= 1".into()));
        let mut records = toy_records(3, 50_000, 1);
        records[2].at = 0;
        records[1].at = u64::MAX;
        assert!(matches!(
            run_fleet(&params, &registry, &records, &FleetConfig::default()),
            Err(FleetError::UnsortedArrivals { index: 2 })
        ));
        let mut bad = toy_records(1, 50_000, 1);
        bad[0].app = "nope".into();
        assert!(matches!(
            run_fleet(&params, &registry, &bad, &FleetConfig::default()),
            Err(FleetError::BadRecord { index: 0, .. })
        ));
    }

    #[test]
    fn arrivals_past_the_last_window_are_errors_not_allocations() {
        let params = ArchParams::default();
        let registry = AppRegistry::new(&params, &["fft", "cipher"], 1, 1, 2).unwrap();
        let run = |jsonl: &str, window: u64| {
            let records = crate::records_from_jsonl(jsonl).unwrap();
            let cfg = FleetConfig {
                window: Cycles::new(window),
                ..FleetConfig::default()
            };
            run_fleet(&params, &registry, &records, &cfg).map(|_| ())
        };
        // Once a `capacity overflow` panic in the busy-window resize.
        let far = concat!(
            r#"{"at":0,"app":"fft","weight":1,"slo":"-","variant":0}"#,
            "\n",
            r#"{"at":18000000000000000000,"app":"cipher","weight":1,"slo":"-","variant":0}"#,
            "\n",
        );
        let err = run(far, 1).unwrap_err();
        assert_eq!(
            err,
            FleetError::Window {
                index: 1,
                window: 1
            }
        );
        assert!(err.to_string().contains("`window`"), "{err}");
        // Once an attempt to allocate about 80 GB.
        let late = far.replace("18000000000000000000", "10000000000000000");
        assert_eq!(
            run(&late, 1_000_000),
            Err(FleetError::Window {
                index: 1,
                window: 1_000_000
            })
        );
        // A session submitted in the last window that runs past it.
        let last = format!(
            r#"{{"at":{},"app":"fft","weight":1,"slo":"-","variant":0}}"#,
            MAX_WINDOWS - 1
        );
        assert_eq!(
            run(&last, 1),
            Err(FleetError::Window {
                index: 0,
                window: 1
            })
        );
        // A wide enough window serves the same arrivals.
        assert_eq!(run(far, 1 << 62), Ok(()));
    }

    #[test]
    fn full_queue_rejects_structurally() {
        let params = ArchParams::default();
        let registry = toy_registry(&params);
        // Everything lands at t=0 on one 1-way shard with a 1-deep queue:
        // one runs, one waits, the rest bounce.
        let mut records = toy_records(6, 1, 1);
        for r in &mut records {
            r.at = 0;
        }
        let cfg = FleetConfig {
            fabrics: 1,
            ways: 1,
            queue_cap: 1,
            ..FleetConfig::default()
        };
        let out = run_fleet(&params, &registry, &records, &cfg).unwrap();
        assert_eq!(out.stats.accepted, 2);
        assert_eq!(out.stats.rejected, 4);
        assert_eq!(out.stats.sessions.iter().filter(|s| s.queued).count(), 1);
    }
}
