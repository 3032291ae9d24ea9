//! The discrete-event simulation engine.
//!
//! The engine replays a [`Trace`] against a [`Machine`] under the control
//! of a [`RuntimePolicy`]:
//!
//! 1. At each block activation it fires the trigger instructions
//!    ([`RuntimePolicy::plan_block`]), applies the plan's evictions, issues
//!    the reconfiguration requests through the machine's controller, and
//! 2. simulates every kernel's execution timeline. Within a *residency
//!    epoch* (the interval between two reconfiguration completions) the
//!    fabric state cannot change, so the per-execution latency is constant
//!    and executions are fast-forwarded in bulk — the results are
//!    bit-identical to a per-execution loop, just thousands of times
//!    cheaper.
//!
//! Kernels of one block proceed on parallel timelines (the core orchestrates
//! while the fabrics execute; each kernel's `tf`/`tb` absorb the core's
//! interleaving, matching the paper's Fig. 5 model). The reported
//! *execution time* of a run is the total cycles spent in kernel executions
//! plus the run-time system's own decision overhead — the quantity whose
//! differences Eq. 5 maximizes.

use crate::policy::{
    ExecContext, ExecMode, FaultEvent, ResidentSet, RuntimePolicy, SelectionContext,
};
use crate::stats::{BlockStats, ExecClass, RunStats};
use crate::timeline::{EventSink, RejectReason, SimEvent, Timeline};
use mrts_arch::{ArchError, Cycles, FabricKind, FaultKind, Machine};
use mrts_ise::{IseCatalog, IseId, KernelId, UnitId};
use mrts_workload::{KernelActivity, Trace};

/// Retries granted per faulted load on top of the initial attempt. CRC
/// faults are transient, so a small budget recovers almost all of them; a
/// load still failing afterwards is abandoned for this block and the
/// affected kernel degrades to its best remaining implementation.
/// This is the default of [`RecoveryConfig::retry_budget`].
pub const LOAD_RETRY_BUDGET: u32 = 3;

/// Tunable fault-recovery behaviour of the engine's load path
/// (`mrts-cli simulate --retry-budget`). The defaults reproduce the
/// historical hardcoded behaviour exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Retries granted per faulted load on top of the initial attempt.
    pub retry_budget: u32,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            retry_budget: LOAD_RETRY_BUDGET,
        }
    }
}

/// Per-kernel epoch batches in structure-of-arrays form: one row per
/// [`SimEvent::ExecBatch`]-shaped burst of constant-latency executions,
/// buffered while the kernel walks its residency epochs and folded into
/// [`RunStats`] once per kernel with bulk arithmetic
/// ([`crate::stats::KernelStats::record_batch`]). The columns are scratch
/// owned by the [`Simulator`], so steady-state stepping allocates nothing.
#[derive(Debug, Default)]
struct EpochBatches {
    /// Execution class of each batch.
    classes: Vec<ExecClass>,
    /// Executions in each batch.
    executions: Vec<u64>,
    /// Per-execution latency of each batch.
    per_exec_cycles: Vec<Cycles>,
    /// Whether the batch is the RISC re-execution of a corrupted
    /// accelerated execution (drives the degraded/recovery counters).
    fault_marks: Vec<bool>,
}

impl EpochBatches {
    fn clear(&mut self) {
        self.classes.clear();
        self.executions.clear();
        self.per_exec_cycles.clear();
        self.fault_marks.clear();
    }

    fn push(&mut self, class: ExecClass, n: u64, latency: Cycles, fault: bool) {
        self.classes.push(class);
        self.executions.push(n);
        self.per_exec_cycles.push(latency);
        self.fault_marks.push(fault);
    }

    fn fault_count(&self) -> u64 {
        self.fault_marks.iter().filter(|&&m| m).count() as u64
    }
}

/// The simulator: machine state plus the [`Timeline`] (clock, residency
/// boundary queue and event spine).
#[derive(Debug)]
pub struct Simulator<'a> {
    catalog: &'a IseCatalog,
    machine: Machine,
    timeline: Timeline,
    recovery: RecoveryConfig,
    /// SoA scratch for the per-kernel epoch walk (capacity reused across
    /// kernels and blocks).
    batches: EpochBatches,
    /// Residency captured once per trigger and at every epoch whose
    /// loaded containers changed: the one answer the policy's probes and
    /// [`Simulator::resolve_execution`] read.
    resident: ResidentSet,
    /// Whether the block's plan evicted a container since `resident` was
    /// captured.
    evicted_since_capture: bool,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator over a freshly built machine.
    #[must_use]
    pub fn new(catalog: &'a IseCatalog, machine: Machine) -> Self {
        Simulator {
            catalog,
            machine,
            timeline: Timeline::new(),
            recovery: RecoveryConfig::default(),
            batches: EpochBatches::default(),
            resident: ResidentSet::default(),
            evicted_since_capture: false,
        }
    }

    /// Replaces the fault-recovery configuration (builder form).
    #[must_use]
    pub fn with_recovery(mut self, recovery: RecoveryConfig) -> Self {
        self.recovery = recovery;
        self
    }

    /// Validates that every kernel a trace references (forecast and
    /// actual) exists in this simulator's catalogue; returns the first
    /// offending kernel otherwise. Running an unchecked trace against the
    /// wrong catalogue panics in the execution hot path, so callers
    /// pairing traces and catalogues dynamically (the multi-tenant
    /// runner) validate up front and turn the panic into a typed error.
    pub fn check_trace(&self, trace: &Trace) -> Result<(), KernelId> {
        for activation in trace.activations() {
            for task in activation.forecast.iter() {
                if self.catalog.kernel(task.kernel).is_err() {
                    return Err(task.kernel);
                }
            }
            for activity in &activation.actual {
                if self.catalog.kernel(activity.kernel).is_err() {
                    return Err(activity.kernel);
                }
            }
        }
        Ok(())
    }

    /// Attaches an event sink: every subsequent step emits the typed
    /// [`SimEvent`] spine (tagged with `tenant`, 0 for solo runs) through
    /// it. Recording is strictly observational — `RunStats` are
    /// byte-identical with and without a sink.
    pub fn attach_events(&mut self, tenant: u32, sink: Box<dyn EventSink>) {
        self.timeline.attach_sink(tenant, sink);
    }

    /// Drains events whose timestamps lie beyond the last clock advance
    /// (reconfigurations can outlive the trace). Call once at the end of a
    /// run; [`Simulator::run`] does it automatically.
    pub fn finish_events(&mut self) {
        self.timeline.finish();
    }

    /// Read access to the machine (tests inspect fabric state mid-run).
    #[must_use]
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable access to the machine, for scenario scripting between trace
    /// segments (e.g. another task claiming or releasing fabric while the
    /// application runs — the paper's "(b) the available … reconfigurable
    /// fabric (shared among various tasks)").
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> Cycles {
        self.timeline.now()
    }

    /// Convenience one-shot: build a simulator, run the whole trace, return
    /// the statistics.
    ///
    /// # Example
    ///
    /// ```
    /// use mrts_arch::{ArchParams, Machine, Resources};
    /// use mrts_sim::{policy::RiscOnlyPolicy, Simulator};
    /// use mrts_workload::synthetic::{synthetic_trace, Pattern};
    /// use mrts_workload::WorkloadModel;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let toy = mrts_ingest::model("toy")?;
    /// let catalog = toy.application().build_catalog(ArchParams::default(), None)?;
    /// let trace = synthetic_trace(&toy, &[Pattern::Constant(100)], 3);
    /// let machine = Machine::new(ArchParams::default(), Resources::new(1, 1))?;
    /// let stats = Simulator::run(&catalog, machine, &trace, &mut RiscOnlyPolicy::new());
    /// assert_eq!(stats.total_executions(), 300);
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn run(
        catalog: &'a IseCatalog,
        machine: Machine,
        trace: &Trace,
        policy: &mut dyn RuntimePolicy,
    ) -> RunStats {
        let mut sim = Simulator::new(catalog, machine);
        let stats = sim.run_trace(trace, policy);
        sim.finish_events();
        stats
    }

    /// Runs a whole trace, consuming simulated time; can be called again
    /// with another trace to continue the same machine state.
    pub fn run_trace(&mut self, trace: &Trace, policy: &mut dyn RuntimePolicy) -> RunStats {
        let mut stats = RunStats {
            policy: policy.name(),
            ..RunStats::default()
        };
        for activation in trace.activations() {
            self.step_activation(activation, policy, &mut stats);
        }
        stats
    }

    /// Advances the clock to `t` without executing anything — simulated time
    /// passing while another task owns the core. Reconfigurations already in
    /// flight keep streaming (the DMA-driven configuration ports need no
    /// core attention), so a descheduled task's loads settle while it waits.
    /// Does nothing if `t` is not in the future.
    pub fn advance_to(&mut self, t: Cycles) {
        if t > self.timeline.now() {
            self.timeline.advance_to(t);
            self.machine.settle(t);
        }
    }

    /// Simulates exactly one block activation at the current simulation
    /// time, folding its timings into `stats`.
    ///
    /// [`Simulator::run_trace`] is nothing but a loop over this method; the
    /// multi-tenant scheduler instead interleaves `step_activation` calls
    /// across several per-tenant simulators, using [`Simulator::advance_to`]
    /// to model the time a task spends descheduled.
    pub fn step_activation(
        &mut self,
        activation: &mrts_workload::BlockActivation,
        policy: &mut dyn RuntimePolicy,
        stats: &mut RunStats,
    ) {
        let t0 = self.timeline.now();
        self.machine.settle(t0);
        self.timeline.emit_with(t0, || SimEvent::BlockStart {
            at: t0,
            block: activation.block,
            frame: activation.frame,
        });

        let units = self.catalog.units().len();
        self.resident.capture(&self.machine, t0, units);
        self.evicted_since_capture = false;
        let plan = {
            let ctx = SelectionContext {
                now: t0,
                catalog: self.catalog,
                machine: &self.machine,
                forecast: &activation.forecast,
                resident: &self.resident,
            };
            policy.plan_block(&ctx)
        };

        for &u in &plan.evict {
            self.evicted_since_capture |= self.machine.evict(u.as_loaded_id()).is_ok();
        }

        // Epoch boundaries: completions of loads already in flight plus the
        // ones issued for this plan. The controller *feeds* them into the
        // timeline's boundary queue (sorted + deduplicated on insertion)
        // instead of materialising an ordered vector.
        self.timeline.begin_block();
        {
            let timeline = &mut self.timeline;
            self.machine.controller().feed_pending_ready_times(|t| {
                timeline.push_boundary(t);
            });
        }
        for &u in &plan.load_order {
            if self.is_present(u) {
                continue; // already resident or streaming
            }
            if let Some(ready_at) = self.issue_load(t0, u, policy, stats) {
                self.timeline.push_boundary(ready_at);
            }
        }

        let mut makespan = Cycles::ZERO;
        let mut busy = Cycles::ZERO;
        for activity in &activation.actual {
            let (kernel_busy, finish) = self.simulate_kernel(
                t0 + plan.overhead,
                activity,
                plan.selection_for(activity.kernel),
                policy,
                stats,
            );
            busy += kernel_busy;
            makespan = makespan.max(finish - t0);
        }
        makespan = makespan.max(plan.overhead);

        stats.blocks.push(BlockStats {
            block: activation.block,
            frame: activation.frame,
            busy_cycles: busy,
            makespan,
            selection_overhead: plan.overhead,
        });

        policy.observe_block_end(activation.block, &activation.actual);
        let end = t0 + makespan;
        self.timeline.emit_with(end, || SimEvent::BlockEnd {
            at: end,
            block: activation.block,
            frame: activation.frame,
        });
        self.timeline.advance_to(end);
        self.machine.settle(end);
        policy.recycle_plan(plan);
    }

    /// Simulates one kernel's execution timeline; returns (busy cycles,
    /// finish time). Residency boundaries live in the [`Timeline`]; each
    /// epoch runs up to the next one.
    fn simulate_kernel(
        &mut self,
        start_base: Cycles,
        activity: &KernelActivity,
        selected: Option<IseId>,
        policy: &mut dyn RuntimePolicy,
        stats: &mut RunStats,
    ) -> (Cycles, Cycles) {
        // Infallible by construction for traces built from the same
        // application as the catalogue; dynamic pairings are validated up
        // front via `Simulator::check_trace`.
        let kernel = self
            .catalog
            .kernel(activity.kernel)
            .expect("trace kernel missing from catalogue (callers must check_trace first)");
        let risc = kernel.risc_latency();
        let units = self.catalog.units().len();
        let mut t = start_base + activity.first_delay;
        let mut remaining = activity.executions;
        self.batches.clear();

        while remaining > 0 {
            // After `settle(t)` the capture at `t` is the set of loaded
            // containers, so it is only redone when that set changed: a
            // load settled here, or the plan evicted since the last one.
            if self.machine.settle(t) || self.evicted_since_capture {
                self.resident.capture(&self.machine, t, units);
                self.evicted_since_capture = false;
            }
            self.timeline.emit_with(t, || SimEvent::EpochBegin {
                at: t,
                kernel: activity.kernel,
            });
            let eplan = {
                let ctx = ExecContext {
                    now: t,
                    catalog: self.catalog,
                    machine: &self.machine,
                    resident: &self.resident,
                };
                policy.plan_execution(activity.kernel, selected, &ctx)
            };
            if eplan.install_mono {
                if let Some(ready_at) = self.try_install_mono(t, activity.kernel) {
                    self.timeline.push_boundary(ready_at);
                }
            }
            let (class, latency) = self.resolve_execution(activity.kernel, eplan.mode, risc);
            let period = latency + activity.gap;
            debug_assert!(period > Cycles::ZERO);

            // Executions starting strictly before the next residency change
            // all see the same latency.
            let next_boundary = self.timeline.next_boundary_after(t);
            let n = match next_boundary {
                Some(b) => {
                    let window = b - t;
                    let fit = window.get().div_ceil(period.get().max(1)).max(1);
                    fit.min(remaining)
                }
                None => remaining,
            };

            // Transient execution faults hit only accelerated executions
            // (a RISC execution has no reconfigurable data path to upset).
            // One geometric draw covers the whole batch.
            let fault_at = if class == ExecClass::RiscMode {
                None
            } else {
                self.machine.exec_fault_in_batch(n)
            };
            if let Some(k) = fault_at {
                // `k` executions complete normally...
                if k > 0 {
                    self.batches.push(class, k, latency, false);
                    self.timeline.emit_with(t, || SimEvent::ExecBatch {
                        at: t,
                        kernel: activity.kernel,
                        class,
                        count: k,
                        latency,
                    });
                    t += period * k;
                }
                // ...then execution `k` is corrupted: its accelerated result
                // is discarded and the kernel re-executes in RISC mode.
                let detected_at = t;
                let fault_latency = latency + risc;
                self.batches
                    .push(ExecClass::RiscMode, 1, fault_latency, true);
                t += fault_latency + activity.gap;
                remaining -= k + 1;
                // One fault source feeds both spines: the policy
                // notification and the event log.
                self.fault_spine(
                    policy,
                    detected_at,
                    FaultEvent {
                        now: t,
                        kind: FaultKind::TransientExec,
                        fabric: None,
                        unit: None,
                        kernel: Some(activity.kernel),
                    },
                );
                let recovered_at = t - activity.gap;
                self.timeline
                    .emit_with(recovered_at, || SimEvent::FaultRecovered {
                        at: recovered_at,
                        kind: FaultKind::TransientExec,
                        unit: None,
                        kernel: Some(activity.kernel),
                    });
                continue;
            }

            self.batches.push(class, n, latency, false);
            self.timeline.emit_with(t, || SimEvent::ExecBatch {
                at: t,
                kernel: activity.kernel,
                class,
                count: n,
                latency,
            });
            t += period * n;
            remaining -= n;
        }

        // One fold per kernel: the buffered SoA rows collapse into the
        // per-kernel accumulator (and the fault counters) with bulk
        // arithmetic. `record` is purely additive, so this is
        // byte-equivalent to the former per-epoch map updates; the busy
        // total falls out of the same sum the fold computes anyway. The
        // emptiness guard keeps the former behaviour of not materialising
        // a stats entry for a zero-execution activity.
        let busy = if self.batches.classes.is_empty() {
            Cycles::ZERO
        } else {
            stats
                .kernels
                .entry(activity.kernel)
                .or_default()
                .record_batch(
                    &self.batches.classes,
                    &self.batches.executions,
                    &self.batches.per_exec_cycles,
                )
        };
        let faults = self.batches.fault_count();
        stats.degraded_executions += faults;
        stats.recovery_cycles += risc * faults;

        // The trailing gap after the last execution is not part of the block.
        let finish = t - activity.gap;
        (busy, finish)
    }

    /// The single fault source: emits the [`SimEvent::FaultDetected`] spine
    /// entry and delivers the matching [`FaultEvent`] to the policy's
    /// notify hook — both built from the same data, so the log and the
    /// policy can never disagree about what happened.
    fn fault_spine(&mut self, policy: &mut dyn RuntimePolicy, detected_at: Cycles, ev: FaultEvent) {
        self.timeline
            .emit_with(detected_at, || SimEvent::FaultDetected {
                at: detected_at,
                kind: ev.kind,
                fabric: ev.fabric,
                unit: ev.unit,
                kernel: ev.kernel,
            });
        policy.notify_fault(&ev);
    }

    /// Whether unit `u` is resident or currently streaming in.
    fn is_present(&self, u: UnitId) -> bool {
        self.machine.is_resident(u.as_loaded_id(), Cycles::MAX)
    }

    /// Issues the reconfiguration of `u`, retrying faulted attempts up to
    /// [`RecoveryConfig::retry_budget`] times; returns its completion
    /// time, or `None` if the load could not be placed (insufficient
    /// fabric, or the retry budget was exhausted — the kernel then
    /// degrades to its best still-available implementation).
    fn issue_load(
        &mut self,
        now: Cycles,
        u: UnitId,
        policy: &mut dyn RuntimePolicy,
        stats: &mut RunStats,
    ) -> Option<Cycles> {
        let unit = self.catalog.unit(u);
        let fabric = unit.fabric();
        let mut attempt_at = now;
        let mut recovered_from = None;
        for attempt in 0..=self.recovery.retry_budget {
            if attempt > 0 {
                stats.retried_loads += 1;
            }
            let ticket = match fabric {
                FabricKind::FineGrained => {
                    self.machine
                        .load_fg(attempt_at, u.as_loaded_id(), unit.bitstream_bytes())
                }
                FabricKind::CoarseGrained => {
                    self.machine
                        .load_cg(attempt_at, u.as_loaded_id(), unit.cg_instrs())
                }
            };
            match ticket {
                Ok(t) => {
                    let issued_at = attempt_at;
                    let ready_at = t.ready_at;
                    self.timeline.emit_with(issued_at, || SimEvent::LoadIssued {
                        at: issued_at,
                        unit: u,
                        fabric,
                        ready_at,
                    });
                    if let Some(kind) = recovered_from {
                        // A retry finally stuck: the recovery ladder's
                        // happy ending.
                        self.timeline
                            .emit_with(issued_at, || SimEvent::FaultRecovered {
                                at: issued_at,
                                kind,
                                unit: Some(u),
                                kernel: None,
                            });
                    }
                    self.timeline.emit_with(ready_at, || SimEvent::LoadReady {
                        at: ready_at,
                        unit: u,
                    });
                    return Some(ready_at);
                }
                Err(ArchError::LoadFault(fault)) => {
                    stats.failed_loads += 1;
                    stats.recovery_cycles += fault.wasted;
                    if fault.kind == FaultKind::PermanentContainer {
                        stats.blacklisted_containers += 1;
                    }
                    recovered_from = Some(fault.kind);
                    self.fault_spine(
                        policy,
                        attempt_at,
                        FaultEvent {
                            now: attempt_at,
                            kind: fault.kind,
                            fabric: Some(fault.fabric),
                            unit: Some(u),
                            kernel: None,
                        },
                    );
                    // The retry queues behind the wasted transfer.
                    attempt_at = attempt_at.max(fault.retry_at);
                }
                Err(_) => {
                    stats.rejected_loads += 1;
                    self.timeline
                        .emit_with(attempt_at, || SimEvent::LoadRejected {
                            at: attempt_at,
                            unit: u,
                            reason: RejectReason::Resources,
                        });
                    return None;
                }
            }
        }
        // The retry budget ran out; the kernel degrades for this block.
        self.timeline
            .emit_with(attempt_at, || SimEvent::LoadRejected {
                at: attempt_at,
                unit: u,
                reason: RejectReason::RetryBudget,
            });
        None
    }

    /// Installs the kernel's monoCG-Extension if it exists, is not already
    /// present and a CG-EDPE is free. Like every context load it is
    /// resident from its ticket's `ready_at`, so the epoch that installs it
    /// still runs what its captured [`ResidentSet`] holds. Returns the
    /// completion time.
    fn try_install_mono(&mut self, now: Cycles, kernel: KernelId) -> Option<Cycles> {
        let mono = *self.catalog.kernel(kernel).ok()?.mono_cg()?;
        if self.is_present(mono.unit) {
            return None;
        }
        let ready_at = self
            .machine
            .load_cg(now, mono.unit.as_loaded_id(), mono.instrs)
            .ok()
            .map(|t| t.ready_at)?;
        self.timeline.emit_with(now, || SimEvent::LoadIssued {
            at: now,
            unit: mono.unit,
            fabric: FabricKind::CoarseGrained,
            ready_at,
        });
        self.timeline.emit_with(ready_at, || SimEvent::LoadReady {
            at: ready_at,
            unit: mono.unit,
        });
        Some(ready_at)
    }

    /// Resolves an [`ExecMode`] against ground-truth residency: the
    /// epoch's [`ResidentSet`].
    fn resolve_execution(
        &self,
        kernel: KernelId,
        mode: ExecMode,
        risc: Cycles,
    ) -> (ExecClass, Cycles) {
        match mode {
            ExecMode::Risc => (ExecClass::RiscMode, risc),
            ExecMode::MonoCg => {
                let mono = self
                    .catalog
                    .kernel(kernel)
                    .ok()
                    .and_then(|k| k.mono_cg().copied());
                match mono {
                    Some(m) if self.resident.contains(m.unit) => (ExecClass::MonoCg, m.latency),
                    _ => (ExecClass::RiscMode, risc),
                }
            }
            ExecMode::Ise(id) => {
                let Ok(ise) = self.catalog.ise(id) else {
                    return (ExecClass::RiscMode, risc);
                };
                if ise.kernel() != kernel {
                    return (ExecClass::RiscMode, risc);
                }
                let resident = |u: UnitId| self.resident.contains(u);
                let latency = ise.latency_with(resident);
                if latency == risc {
                    (ExecClass::RiscMode, latency)
                } else if ise.is_fully_resident(resident) {
                    (ExecClass::FullIse, latency)
                } else {
                    (ExecClass::IntermediateIse, latency)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{BlockPlan, ExecPlan, RiscOnlyPolicy};
    use mrts_arch::{ArchParams, Resources};
    use mrts_ise::{BlockId, Ise};
    use mrts_workload::synthetic::{synthetic_trace, Pattern};
    use mrts_workload::WorkloadModel;

    fn setup() -> (IseCatalog, Trace) {
        let toy = mrts_ingest::model("toy").expect("builtin toy lowers");
        let catalog = toy
            .application()
            .build_catalog(ArchParams::default(), None)
            .unwrap();
        let trace = synthetic_trace(&toy, &[Pattern::Constant(500)], 4);
        (catalog, trace)
    }

    fn machine(cg: u16, prc: u16) -> Machine {
        Machine::new(ArchParams::default(), Resources::new(cg, prc)).unwrap()
    }

    #[test]
    fn risc_only_cost_is_analytic() {
        let (catalog, trace) = setup();
        let stats = Simulator::run(&catalog, machine(2, 2), &trace, &mut RiscOnlyPolicy::new());
        let risc = catalog.kernels()[0].risc_latency();
        assert_eq!(stats.total_executions(), 2_000);
        assert_eq!(stats.total_busy(), risc * 2_000);
        assert_eq!(stats.total_overhead(), Cycles::ZERO);
        assert_eq!(stats.rejected_loads, 0);
        let h = stats.class_histogram();
        assert_eq!(h.get(&ExecClass::RiscMode), Some(&2_000));
    }

    /// A fixed policy that always selects one given ISE and loads all its
    /// units at block start.
    struct FixedIsePolicy {
        ise: IseId,
    }

    impl RuntimePolicy for FixedIsePolicy {
        fn name(&self) -> String {
            "fixed".into()
        }

        fn plan_block(&mut self, ctx: &SelectionContext<'_>) -> BlockPlan {
            let ise = ctx.catalog.ise(self.ise).unwrap();
            BlockPlan {
                selections: vec![(ise.kernel(), Some(self.ise))],
                load_order: ise.unit_ids().collect(),
                overhead: Cycles::new(100),
                ..BlockPlan::default()
            }
        }

        fn plan_execution(
            &mut self,
            _kernel: KernelId,
            selected: Option<IseId>,
            _ctx: &ExecContext<'_>,
        ) -> ExecPlan {
            ExecPlan {
                mode: selected.map_or(ExecMode::Risc, ExecMode::Ise),
                install_mono: false,
            }
        }
    }

    fn best_ise(catalog: &IseCatalog, pred: impl Fn(&&Ise) -> bool) -> IseId {
        catalog
            .ises()
            .iter()
            .filter(pred)
            .max_by_key(|i| i.risc_latency() - i.full_latency())
            .map(Ise::id)
            .unwrap()
    }

    #[test]
    fn cg_ise_accelerates_almost_immediately() {
        let (catalog, trace) = setup();
        let cg_ise = best_ise(&catalog, |i| i.grain() == mrts_ise::Grain::CoarseGrained);
        let stats = Simulator::run(
            &catalog,
            machine(4, 0),
            &trace,
            &mut FixedIsePolicy { ise: cg_ise },
        );
        let risc_stats =
            Simulator::run(&catalog, machine(4, 0), &trace, &mut RiscOnlyPolicy::new());
        assert!(stats.total_busy() < risc_stats.total_busy());
        let h = stats.class_histogram();
        // The µs-scale CG load completes before (or within a couple of)
        // executions: nearly everything runs on the full ISE.
        assert!(h.get(&ExecClass::FullIse).copied().unwrap_or(0) > 1_900);
    }

    #[test]
    fn fg_ise_needs_amortization() {
        let (catalog, trace) = setup();
        // Pick the most compact FG variant so its ms-scale load completes
        // within the trace: the test is about the slow-start, not about
        // never finishing.
        let fg_ise = catalog
            .ises()
            .iter()
            .filter(|i| i.grain() == mrts_ise::Grain::FineGrained && !i.is_mono_extension())
            .min_by_key(|i| (i.stage_count(), i.full_latency()))
            .map(Ise::id)
            .unwrap();
        let stats = Simulator::run(
            &catalog,
            machine(0, 4),
            &trace,
            &mut FixedIsePolicy { ise: fg_ise },
        );
        let h = stats.class_histogram();
        // The ms-scale FG loads leave early executions in RISC mode or on
        // intermediate ISEs.
        let slow_start = h.get(&ExecClass::RiscMode).copied().unwrap_or(0)
            + h.get(&ExecClass::IntermediateIse).copied().unwrap_or(0);
        assert!(slow_start > 0, "{h:?}");
        assert!(
            h.get(&ExecClass::FullIse).copied().unwrap_or(0) > 0,
            "{h:?}"
        );
    }

    #[test]
    fn insufficient_fabric_counts_rejections() {
        let (catalog, trace) = setup();
        // An MG ISE needs both fabrics; a machine with none rejects all.
        let mg_ise = best_ise(&catalog, |i| i.grain() == mrts_ise::Grain::MultiGrained);
        let stats = Simulator::run(
            &catalog,
            machine(0, 0),
            &trace,
            &mut FixedIsePolicy { ise: mg_ise },
        );
        assert!(stats.rejected_loads > 0);
        // Everything still executed (in RISC mode).
        assert_eq!(stats.total_executions(), 2_000);
    }

    /// ECU-like behaviour: request monoCG while the selected ISE is absent.
    struct MonoPolicy;

    impl RuntimePolicy for MonoPolicy {
        fn name(&self) -> String {
            "mono".into()
        }

        fn plan_block(&mut self, ctx: &SelectionContext<'_>) -> BlockPlan {
            BlockPlan {
                selections: ctx.forecast.iter().map(|t| (t.kernel, None)).collect(),
                ..BlockPlan::default()
            }
        }

        fn plan_execution(
            &mut self,
            kernel: KernelId,
            _selected: Option<IseId>,
            ctx: &ExecContext<'_>,
        ) -> ExecPlan {
            let mono = ctx.catalog.kernel(kernel).unwrap().mono_cg().copied();
            match mono {
                Some(m) if ctx.is_resident(m.unit) => ExecPlan {
                    mode: ExecMode::MonoCg,
                    install_mono: false,
                },
                Some(_) => ExecPlan {
                    mode: ExecMode::Risc,
                    install_mono: true,
                },
                None => ExecPlan::risc(),
            }
        }
    }

    #[test]
    fn mono_cg_bridges_the_gap() {
        let (catalog, trace) = setup();
        let stats = Simulator::run(&catalog, machine(1, 0), &trace, &mut MonoPolicy);
        let h = stats.class_histogram();
        let mono = h.get(&ExecClass::MonoCg).copied().unwrap_or(0);
        let risc = h.get(&ExecClass::RiscMode).copied().unwrap_or(0);
        assert!(mono > 1_500, "mono executions: {h:?}");
        // Only the first execution(s) before the µs-scale load ran in RISC.
        assert!(risc < 100, "risc executions: {h:?}");
        // And it beats pure RISC.
        let risc_stats =
            Simulator::run(&catalog, machine(1, 0), &trace, &mut RiscOnlyPolicy::new());
        assert!(stats.total_busy() < risc_stats.total_busy());
    }

    /// Asks for the monoCG-Extension and its install in the same epoch.
    struct MonoNowPolicy;

    impl RuntimePolicy for MonoNowPolicy {
        fn name(&self) -> String {
            "mono-now".into()
        }

        fn plan_block(&mut self, ctx: &SelectionContext<'_>) -> BlockPlan {
            MonoPolicy.plan_block(ctx)
        }

        fn plan_execution(
            &mut self,
            _kernel: KernelId,
            _selected: Option<IseId>,
            _ctx: &ExecContext<'_>,
        ) -> ExecPlan {
            ExecPlan {
                mode: ExecMode::MonoCg,
                install_mono: true,
            }
        }
    }

    /// A monoCG-Extension is resident from its ticket's `ready_at`, like
    /// every context load (DESIGN.md §4.10). The epoch that installs it
    /// runs in RISC mode up to `ready_at`: one execution of the toy
    /// kernel, whose RISC latency outlasts the µs-scale context load. From
    /// the next epoch on, the extension serves every execution.
    #[test]
    fn mono_serves_from_ready_at_after_its_install() {
        let (catalog, trace) = setup();
        let stats = Simulator::run(&catalog, machine(1, 0), &trace, &mut MonoNowPolicy);
        let h = stats.class_histogram();
        assert_eq!(h.get(&ExecClass::RiscMode), Some(&1), "{h:?}");
        assert_eq!(h.get(&ExecClass::MonoCg), Some(&1_999));
    }

    #[test]
    fn mono_not_installed_without_free_edpe() {
        let (catalog, trace) = setup();
        let stats = Simulator::run(&catalog, machine(0, 0), &trace, &mut MonoPolicy);
        let h = stats.class_histogram();
        assert_eq!(h.get(&ExecClass::MonoCg), None);
        assert_eq!(h.get(&ExecClass::RiscMode), Some(&2_000));
    }

    #[test]
    fn overhead_accumulates_per_block() {
        let (catalog, trace) = setup();
        let cg_ise = best_ise(&catalog, |i| i.grain() == mrts_ise::Grain::CoarseGrained);
        let stats = Simulator::run(
            &catalog,
            machine(4, 0),
            &trace,
            &mut FixedIsePolicy { ise: cg_ise },
        );
        assert_eq!(stats.total_overhead(), Cycles::new(100) * 4);
        assert!(stats.overhead_fraction() > 0.0);
        assert_eq!(stats.blocks.len(), 4);
        assert_eq!(stats.blocks[0].block, BlockId(0));
    }

    /// Pins early residency across kernels (DESIGN.md §4.10). The kernels
    /// of one block are simulated one after another, each from
    /// `t0 + overhead`, and every epoch settles the machine at its own
    /// time. Once an earlier kernel's epochs pass a unit's `ready_at`,
    /// `settle` has made it `Loaded`, so a later kernel sees it resident
    /// before `ready_at`: the same block charges the accelerated kernel
    /// fewer busy cycles when it runs second.
    #[test]
    fn later_kernel_sees_units_settled_by_an_earlier_one() {
        let fft = mrts_ingest::model("fft").expect("builtin fft lowers");
        let catalog = fft
            .application()
            .build_catalog(ArchParams::default(), None)
            .unwrap();
        let fg_ise = catalog
            .ises()
            .iter()
            .filter(|i| i.grain() == mrts_ise::Grain::FineGrained && !i.is_mono_extension())
            .min_by_key(|i| (i.stage_count(), i.full_latency()))
            .unwrap();
        let accelerated = fg_ise.kernel();
        let block =
            synthetic_trace(&fft, &[Pattern::Constant(4_000); 2], 1).activations()[0].clone();
        assert_eq!(block.actual.len(), 2);
        let busy_when = |accelerated_first: bool| {
            let mut activation = block.clone();
            activation
                .actual
                .sort_by_key(|a| (a.kernel == accelerated) != accelerated_first);
            let trace = Trace::new("order", vec![activation]);
            let mut policy = FixedIsePolicy { ise: fg_ise.id() };
            let stats = Simulator::run(&catalog, machine(0, 4), &trace, &mut policy);
            stats.kernels[&accelerated].cycles
        };
        let first = busy_when(true);
        let second = busy_when(false);
        assert!(second < first, "second {second:?} vs first {first:?}");
    }

    #[test]
    fn time_advances_monotonically() {
        let (catalog, trace) = setup();
        let mut sim = Simulator::new(&catalog, machine(1, 1));
        let before = sim.now();
        let _ = sim.run_trace(&trace, &mut RiscOnlyPolicy::new());
        assert!(sim.now() > before);
    }
}
