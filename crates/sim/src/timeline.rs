//! The event **Timeline**: one clock, one boundary queue, one event spine.
//!
//! Before this module existed the reproduction smeared its notion of time
//! across three layers: the engine kept a hand-sorted `Vec<Cycles>` of
//! residency boundaries and scanned it linearly per epoch, the multi-tenant
//! runner re-implemented global-clock interleaving with its own
//! advance/settle choreography, and the architecture layer leaked raw
//! `pending_ready_times()` vectors. The paper's whole argument is temporal —
//! forecast-error adaptation, reconfiguration latencies and intermediate-ISE
//! upgrade points are all *events* on one clock — so this module makes that
//! clock first-class:
//!
//! * [`Timeline`] — a monotone clock plus a deduplicated, min-ordered
//!   *residency-boundary queue*. The engine fast-forwards
//!   between boundaries (completions of in-flight reconfigurations) because
//!   within one *residency epoch* the fabric state — and therefore every
//!   per-execution latency — cannot change.
//! * [`SimEvent`] — the typed event spine: block and epoch structure, load
//!   life cycle, execution batches, fault detection/recovery, and the
//!   multi-tenant dispatch/repartition events.
//! * [`EventSink`] — a zero-cost observer: the default detached state makes
//!   every emission a single branch on [`Timeline::recording`], and events
//!   are built lazily (`Timeline::emit_with` takes a closure), so runs
//!   without a sink pay nothing. [`VecSink`] collects in memory (cloneable,
//!   so several per-tenant simulators can share one buffer) and
//!   [`events_to_jsonl`] renders the deterministic, replayable JSONL format
//!   that `mrts-cli simulate/multitask --events-out` writes. The renderer
//!   writes each line straight into one byte buffer — literal keys and
//!   tags, integers through a two-digits-per-step decimal writer — with no
//!   `core::fmt` on the path.
//!
//! ## Determinism and ordering guarantees
//!
//! The simulation is single-threaded integer arithmetic over seeded models,
//! so the emitted event sequence is a pure function of the inputs: equal
//! runs give byte-equal JSONL on every host and at every `--threads` count.
//! Emission is *clock-ordered*, not call-ordered: kernels of one block run
//! on parallel timelines, so the engine hands every event to a pending
//! queue ordered by timestamp, ties in emission order, and the queue drains
//! as the clock passes each timestamp (events that outlive the run — e.g. a
//! millisecond-scale fine-grained load completing after the last block —
//! drain at [`Timeline::finish`]). Within one timeline the flushed stream
//! is therefore monotone in time; a multi-tenant log is monotone *per
//! tenant* (tenant timelines interleave on the global clock).

use crate::stats::ExecClass;
use mrts_arch::{Cycles, FabricKind, FaultKind};
use mrts_ise::{BlockId, KernelId, UnitId};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Why a load request could not be placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// No suitable free container / context slot on the target fabric.
    Resources,
    /// Every attempt faulted and the retry budget ran out
    /// (see [`crate::engine::LOAD_RETRY_BUDGET`]).
    RetryBudget,
}

/// One event on the simulation timeline.
///
/// Every variant carries its timestamp `at` (core cycles); the spine is
/// ordered by `(at, emission sequence)` within one timeline. Serialisation
/// uses the externally-tagged serde encoding, giving JSONL lines such as
/// `{"tenant":0,"event":{"ExecBatch":{"at":9000,"kernel":1,...}}}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SimEvent {
    /// A functional-block activation began (its trigger instruction fired).
    BlockStart {
        /// Timestamp (core cycles).
        at: Cycles,
        /// The functional block.
        block: BlockId,
        /// The trace frame (video frame / iteration) of the activation.
        frame: u32,
    },
    /// A reconfiguration request was accepted by the controller.
    LoadIssued {
        /// When the request entered the port queue.
        at: Cycles,
        /// The unit being streamed.
        unit: UnitId,
        /// The target fabric.
        fabric: FabricKind,
        /// When the transfer will complete (the residency boundary).
        ready_at: Cycles,
    },
    /// A previously issued transfer completed; the unit became usable.
    LoadReady {
        /// Completion time (equals the `ready_at` its `LoadIssued` promised).
        at: Cycles,
        /// The unit that became resident.
        unit: UnitId,
    },
    /// A load request could not be placed; the kernel degrades to its best
    /// still-available implementation for this block.
    LoadRejected {
        /// When the request was abandoned.
        at: Cycles,
        /// The unit that was not loaded.
        unit: UnitId,
        /// Why.
        reason: RejectReason,
    },
    /// A residency epoch began for one kernel: the fabric state it sees is
    /// constant until the next boundary, so the policy is consulted once.
    EpochBegin {
        /// Epoch start time.
        at: Cycles,
        /// The kernel whose executions the epoch covers.
        kernel: KernelId,
    },
    /// A batch of `count` back-to-back executions at constant latency
    /// (the bulk fast-forward within one residency epoch).
    ExecBatch {
        /// Start of the first execution in the batch.
        at: Cycles,
        /// The executing kernel.
        kernel: KernelId,
        /// The implementation class every execution in the batch used.
        class: ExecClass,
        /// Number of executions in the batch.
        count: u64,
        /// Per-execution latency (cycles).
        latency: Cycles,
    },
    /// An injected fault was detected (failed load CRC, lost container, or
    /// corrupted accelerated execution). Mirrors the
    /// [`FaultEvent`](crate::policy::FaultEvent) handed to
    /// [`RuntimePolicy::notify_fault`](crate::policy::RuntimePolicy::notify_fault) —
    /// both are built from the same source in the engine.
    FaultDetected {
        /// Detection time.
        at: Cycles,
        /// Fault class.
        kind: FaultKind,
        /// The fabric involved (load faults).
        fabric: Option<FabricKind>,
        /// The unit whose load failed (load faults).
        unit: Option<UnitId>,
        /// The kernel whose execution was corrupted (transient exec faults).
        kernel: Option<KernelId>,
    },
    /// The recovery ladder absorbed a fault: a faulted load eventually
    /// streamed in, or a corrupted execution was re-run in RISC mode.
    FaultRecovered {
        /// When recovery completed.
        at: Cycles,
        /// The fault class that was recovered from.
        kind: FaultKind,
        /// The unit whose retry succeeded (load faults).
        unit: Option<UnitId>,
        /// The kernel re-executed in RISC mode (transient exec faults).
        kernel: Option<KernelId>,
    },
    /// The multi-tenant scheduler gave the core to a tenant.
    TenantDispatch {
        /// Global-clock dispatch time.
        at: Cycles,
        /// The dispatched tenant.
        tenant: u32,
    },
    /// The multi-tenant scheduler took the core away from a tenant
    /// (its in-flight reconfigurations keep streaming meanwhile).
    TenantPreempt {
        /// Global-clock preemption time.
        at: Cycles,
        /// The preempted tenant.
        tenant: u32,
    },
    /// The fabric arbiter re-partitioned and grew this tenant's slice.
    RepartitionGranted {
        /// Global-clock grant time (after the repartition cost).
        at: Cycles,
        /// The beneficiary tenant.
        tenant: u32,
        /// Granted CG-EDPE slots.
        cg: u16,
        /// Granted PRC containers.
        prc: u16,
    },
    /// A tenant's block (or session) finished after its SLO deadline.
    DeadlineMiss {
        /// When the late block actually completed.
        at: Cycles,
        /// The tardy tenant.
        tenant: u32,
        /// The functional block that ran late.
        block: BlockId,
        /// The absolute deadline that was missed.
        deadline: Cycles,
        /// How late: `at - deadline`.
        tardiness: Cycles,
    },
    /// The SLO degradation ladder moved a tenant between levels
    /// (0 = full ISE budget … 3 = pure RISC). `to_level > from_level` is a
    /// demotion shedding speedup to a tardy tenant; `to_level < from_level`
    /// is the climb back once laxity recovers.
    DegradeStep {
        /// Global-clock time of the ladder decision.
        at: Cycles,
        /// The tenant whose fabric budget changed.
        tenant: u32,
        /// Ladder level before the step.
        from_level: u8,
        /// Ladder level after the step.
        to_level: u8,
        /// CG-EDPE slots the tenant holds after the step.
        cg: u16,
        /// PRC containers the tenant holds after the step.
        prc: u16,
    },
    /// A fleet session was admitted onto a fabric (open-loop runs): the
    /// session's tenant simulator joins the fabric's runner and becomes
    /// runnable. `queued_for` is how long the session waited between
    /// submission and this admission (0 when admitted on arrival).
    SessionAdmitted {
        /// Admission time on the fabric's clock.
        at: Cycles,
        /// Global session id.
        session: u32,
        /// The fabric the session was placed on.
        fabric: u32,
        /// Queue wait between submission and admission.
        queued_for: Cycles,
    },
    /// A fleet session finished its last block and left its fabric,
    /// freeing its slice for re-apportionment or a queued session.
    SessionDeparted {
        /// Departure time on the fabric's clock.
        at: Cycles,
        /// Global session id.
        session: u32,
        /// The fabric the session ran on.
        fabric: u32,
        /// Submission-to-departure latency.
        latency: Cycles,
    },
    /// A functional-block activation completed.
    BlockEnd {
        /// Completion time (block start + makespan).
        at: Cycles,
        /// The functional block.
        block: BlockId,
        /// The trace frame of the activation.
        frame: u32,
    },
}

impl SimEvent {
    /// The event's timestamp (core cycles).
    #[must_use]
    pub fn at(&self) -> Cycles {
        match self {
            SimEvent::BlockStart { at, .. }
            | SimEvent::LoadIssued { at, .. }
            | SimEvent::LoadReady { at, .. }
            | SimEvent::LoadRejected { at, .. }
            | SimEvent::EpochBegin { at, .. }
            | SimEvent::ExecBatch { at, .. }
            | SimEvent::FaultDetected { at, .. }
            | SimEvent::FaultRecovered { at, .. }
            | SimEvent::TenantDispatch { at, .. }
            | SimEvent::TenantPreempt { at, .. }
            | SimEvent::RepartitionGranted { at, .. }
            | SimEvent::DeadlineMiss { at, .. }
            | SimEvent::DegradeStep { at, .. }
            | SimEvent::SessionAdmitted { at, .. }
            | SimEvent::SessionDeparted { at, .. }
            | SimEvent::BlockEnd { at, .. } => *at,
        }
    }
}

/// A consumer of the event spine.
///
/// The contract is deliberately tiny: sinks receive `(tenant, event)` pairs
/// already in per-timeline clock order and must not influence the
/// simulation (the engine guards every emission behind
/// [`Timeline::recording`], so a run without a sink takes one untaken
/// branch per would-be event and allocates nothing).
pub trait EventSink {
    /// Consumes one event. `tenant` is the emitting timeline's tag
    /// (always 0 for single-application runs).
    fn emit(&mut self, tenant: u32, event: SimEvent);
}

impl fmt::Debug for dyn EventSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("dyn EventSink")
    }
}

/// An in-memory sink. Cloning shares the underlying buffer (the runner
/// hands tagged clones of one `VecSink` to every per-tenant simulator and
/// drains the merged log once at the end); the simulation is
/// single-threaded, so plain `Rc<RefCell<…>>` sharing suffices.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    buf: Rc<RefCell<Vec<(u32, SimEvent)>>>,
}

impl VecSink {
    /// Creates an empty sink.
    #[must_use]
    pub fn new() -> Self {
        VecSink::default()
    }

    /// Number of events collected so far (across all clones).
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.borrow().len()
    }

    /// Whether no event has been collected yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.borrow().is_empty()
    }

    /// Takes the collected `(tenant, event)` pairs, leaving the shared
    /// buffer empty.
    #[must_use]
    pub fn take(&self) -> Vec<(u32, SimEvent)> {
        std::mem::take(&mut *self.buf.borrow_mut())
    }
}

impl EventSink for VecSink {
    fn emit(&mut self, tenant: u32, event: SimEvent) {
        self.buf.borrow_mut().push((tenant, event));
    }
}

/// Renders a collected event log as JSONL: one `{"tenant":…,"event":…}`
/// object per line, in emission order — the deterministic, replayable
/// format behind `mrts-cli … --events-out`.
///
/// Each line is written straight into one byte buffer, byte for byte what
/// the derived externally-tagged serde encoding of [`SimEvent`] gives (the
/// property tests hold the writer to that reference); the buffer is checked
/// as UTF-8 once, at the end.
///
/// # Errors
///
/// Never: the `Result` only keeps the existing callers' `?`/`expect`
/// unchanged.
pub fn events_to_jsonl(events: &[(u32, SimEvent)]) -> Result<String, serde_json::Error> {
    let mut out = Vec::new();
    for (tenant, event) in events {
        write_event(&mut out, *tenant, event);
    }
    Ok(String::from_utf8(out).expect("the writer emits ASCII only"))
}

/// The quoted serde tag of a unit variant.
fn fabric_tag(fabric: FabricKind) -> &'static str {
    match fabric {
        FabricKind::FineGrained => r#""FineGrained""#,
        FabricKind::CoarseGrained => r#""CoarseGrained""#,
    }
}

/// The quoted serde tag of a unit variant.
fn fault_tag(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::BitstreamCrc => r#""BitstreamCrc""#,
        FaultKind::TransientExec => r#""TransientExec""#,
        FaultKind::PermanentContainer => r#""PermanentContainer""#,
    }
}

/// The quoted serde tag of a unit variant.
fn class_tag(class: ExecClass) -> &'static str {
    match class {
        ExecClass::RiscMode => r#""RiscMode""#,
        ExecClass::MonoCg => r#""MonoCg""#,
        ExecClass::IntermediateIse => r#""IntermediateIse""#,
        ExecClass::FullIse => r#""FullIse""#,
    }
}

/// The quoted serde tag of a unit variant.
fn reason_tag(reason: RejectReason) -> &'static str {
    match reason {
        RejectReason::Resources => r#""Resources""#,
        RejectReason::RetryBudget => r#""RetryBudget""#,
    }
}

/// `"00"`, `"01"`, …, `"99"`: two decimal digits per table lookup.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Appends the decimal digits of `n` — what `write!` gives for any
/// unsigned integer, without the formatting machinery.
fn push_u64(out: &mut Vec<u8>, mut n: u64) {
    // `u64::MAX` has 20 digits.
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    while n >= 100 {
        let d = 2 * (n % 100) as usize;
        n /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    }
    // `n < 100` now: one or two digits left.
    let d = 2 * n as usize;
    if n >= 10 {
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    } else {
        i -= 1;
        buf[i] = DIGIT_PAIRS[d + 1];
    }
    out.extend_from_slice(&buf[i..]);
}

/// Appends `key` (the field's `,"name":` prefix) and the number `v`.
fn num(out: &mut Vec<u8>, key: &str, v: u64) {
    out.extend_from_slice(key.as_bytes());
    push_u64(out, v);
}

/// Appends `key` and an optional number, `null` for `None` as serde
/// encodes an `Option` field.
fn opt(out: &mut Vec<u8>, key: &str, v: Option<u64>) {
    match v {
        Some(v) => num(out, key, v),
        None => lit(out, key, "null"),
    }
}

/// Appends `key` and an already quoted (or `null`) literal.
fn lit(out: &mut Vec<u8>, key: &str, v: &str) {
    out.extend_from_slice(key.as_bytes());
    out.extend_from_slice(v.as_bytes());
}

/// Appends one `(tenant, event)` JSONL line, newline included. Field order
/// is declaration order, as the derived `Serialize` writes it; each arm
/// opens with the variant tag and its `at` field.
fn write_event(out: &mut Vec<u8>, tenant: u32, ev: &SimEvent) {
    num(out, r#"{"tenant":"#, tenant.into());
    match *ev {
        SimEvent::BlockStart { at, block, frame } => {
            num(out, r#","event":{"BlockStart":{"at":"#, at.get());
            num(out, r#","block":"#, block.0.into());
            num(out, r#","frame":"#, frame.into());
        }
        SimEvent::LoadIssued {
            at,
            unit,
            fabric,
            ready_at,
        } => {
            num(out, r#","event":{"LoadIssued":{"at":"#, at.get());
            num(out, r#","unit":"#, unit.0);
            lit(out, r#","fabric":"#, fabric_tag(fabric));
            num(out, r#","ready_at":"#, ready_at.get());
        }
        SimEvent::LoadReady { at, unit } => {
            num(out, r#","event":{"LoadReady":{"at":"#, at.get());
            num(out, r#","unit":"#, unit.0);
        }
        SimEvent::LoadRejected { at, unit, reason } => {
            num(out, r#","event":{"LoadRejected":{"at":"#, at.get());
            num(out, r#","unit":"#, unit.0);
            lit(out, r#","reason":"#, reason_tag(reason));
        }
        SimEvent::EpochBegin { at, kernel } => {
            num(out, r#","event":{"EpochBegin":{"at":"#, at.get());
            num(out, r#","kernel":"#, kernel.0.into());
        }
        SimEvent::ExecBatch {
            at,
            kernel,
            class,
            count,
            latency,
        } => {
            num(out, r#","event":{"ExecBatch":{"at":"#, at.get());
            num(out, r#","kernel":"#, kernel.0.into());
            lit(out, r#","class":"#, class_tag(class));
            num(out, r#","count":"#, count);
            num(out, r#","latency":"#, latency.get());
        }
        SimEvent::FaultDetected {
            at,
            kind,
            fabric,
            unit,
            kernel,
        } => {
            num(out, r#","event":{"FaultDetected":{"at":"#, at.get());
            lit(out, r#","kind":"#, fault_tag(kind));
            lit(out, r#","fabric":"#, fabric.map_or("null", fabric_tag));
            opt(out, r#","unit":"#, unit.map(|u| u.0));
            opt(out, r#","kernel":"#, kernel.map(|k| k.0.into()));
        }
        SimEvent::FaultRecovered {
            at,
            kind,
            unit,
            kernel,
        } => {
            num(out, r#","event":{"FaultRecovered":{"at":"#, at.get());
            lit(out, r#","kind":"#, fault_tag(kind));
            opt(out, r#","unit":"#, unit.map(|u| u.0));
            opt(out, r#","kernel":"#, kernel.map(|k| k.0.into()));
        }
        SimEvent::TenantDispatch { at, tenant } => {
            num(out, r#","event":{"TenantDispatch":{"at":"#, at.get());
            num(out, r#","tenant":"#, tenant.into());
        }
        SimEvent::TenantPreempt { at, tenant } => {
            num(out, r#","event":{"TenantPreempt":{"at":"#, at.get());
            num(out, r#","tenant":"#, tenant.into());
        }
        SimEvent::RepartitionGranted {
            at,
            tenant,
            cg,
            prc,
        } => {
            num(out, r#","event":{"RepartitionGranted":{"at":"#, at.get());
            num(out, r#","tenant":"#, tenant.into());
            num(out, r#","cg":"#, cg.into());
            num(out, r#","prc":"#, prc.into());
        }
        SimEvent::DeadlineMiss {
            at,
            tenant,
            block,
            deadline,
            tardiness,
        } => {
            num(out, r#","event":{"DeadlineMiss":{"at":"#, at.get());
            num(out, r#","tenant":"#, tenant.into());
            num(out, r#","block":"#, block.0.into());
            num(out, r#","deadline":"#, deadline.get());
            num(out, r#","tardiness":"#, tardiness.get());
        }
        SimEvent::DegradeStep {
            at,
            tenant,
            from_level,
            to_level,
            cg,
            prc,
        } => {
            num(out, r#","event":{"DegradeStep":{"at":"#, at.get());
            num(out, r#","tenant":"#, tenant.into());
            num(out, r#","from_level":"#, from_level.into());
            num(out, r#","to_level":"#, to_level.into());
            num(out, r#","cg":"#, cg.into());
            num(out, r#","prc":"#, prc.into());
        }
        SimEvent::SessionAdmitted {
            at,
            session,
            fabric,
            queued_for,
        } => {
            num(out, r#","event":{"SessionAdmitted":{"at":"#, at.get());
            num(out, r#","session":"#, session.into());
            num(out, r#","fabric":"#, fabric.into());
            num(out, r#","queued_for":"#, queued_for.get());
        }
        SimEvent::SessionDeparted {
            at,
            session,
            fabric,
            latency,
        } => {
            num(out, r#","event":{"SessionDeparted":{"at":"#, at.get());
            num(out, r#","session":"#, session.into());
            num(out, r#","fabric":"#, fabric.into());
            num(out, r#","latency":"#, latency.get());
        }
        SimEvent::BlockEnd { at, block, frame } => {
            num(out, r#","event":{"BlockEnd":{"at":"#, at.get());
            num(out, r#","block":"#, block.0.into());
            num(out, r#","frame":"#, frame.into());
        }
    }
    out.extend_from_slice(b"}}}\n");
}

/// The first-class clock of the simulation: monotone time, the per-block
/// residency-boundary queue, and the (optional) event spine.
///
/// One `Timeline` backs one logical execution context — the single
/// application of [`Simulator`](crate::engine::Simulator), each tenant of
/// the multi-tenant runner, and the runner's global clock itself all step
/// the same core instead of keeping bespoke `Vec<Cycles>`/`now` pairs.
#[derive(Debug, Default)]
pub struct Timeline {
    now: Cycles,
    /// Residency boundaries of the current block, ascending and
    /// deduplicated. Rebuilt per block ([`Timeline::begin_block`]) so the
    /// fault-injection RNG observes exactly the pre-refactor batch
    /// structure. A block holds a few boundaries (DESIGN.md §11 has the
    /// measured traffic), so a sorted `Vec` with positional insert serves.
    boundaries: Vec<Cycles>,
    /// Deferred events, ordered by `at` with ties in emission order;
    /// drained as the clock passes each timestamp.
    pending: Vec<(Cycles, SimEvent)>,
    tenant: u32,
    sink: Option<Box<dyn EventSink>>,
}

impl Timeline {
    /// A fresh timeline at cycle zero with no sink attached.
    #[must_use]
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Current time.
    #[must_use]
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Attaches an event sink; subsequent emissions are recorded under the
    /// `tenant` tag. Replaces any previously attached sink.
    pub(crate) fn attach_sink(&mut self, tenant: u32, sink: Box<dyn EventSink>) {
        self.tenant = tenant;
        self.sink = Some(sink);
    }

    /// Whether a sink is attached — the single branch that makes the event
    /// spine zero-cost when nobody listens.
    #[must_use]
    pub fn recording(&self) -> bool {
        self.sink.is_some()
    }

    /// Records an event, constructing it lazily only if a sink is attached.
    /// The event is queued and flushed once the clock passes `at`, so the
    /// delivered stream is monotone even though kernels of one block are
    /// simulated on parallel timelines.
    pub(crate) fn emit_with(&mut self, at: Cycles, build: impl FnOnce() -> SimEvent) {
        if self.sink.is_none() {
            return;
        }
        let ev = build();
        debug_assert_eq!(ev.at(), at, "event timestamp must match emission time");
        // Stable position: after every queued event with the same `at`.
        let pos = self.pending.partition_point(|(a, _)| *a <= at);
        self.pending.insert(pos, (at, ev));
    }

    /// Advances the clock monotonically to `t` (no-op if `t` is in the
    /// past) and flushes every queued event with a timestamp `≤ t`.
    pub fn advance_to(&mut self, t: Cycles) {
        if t > self.now {
            self.now = t;
        }
        self.flush_through(self.now);
    }

    /// Advances the clock by `d` (a context-switch or repartition cost on
    /// the multi-tenant global clock) and flushes like
    /// [`Timeline::advance_to`].
    pub fn advance_by(&mut self, d: Cycles) {
        let t = self.now + d;
        self.advance_to(t);
    }

    /// Flushes every queued event while leaving the clock untouched.
    fn flush_through(&mut self, t: Cycles) {
        if self.pending.is_empty() {
            return;
        }
        let k = self.pending.partition_point(|(a, _)| *a <= t);
        if k == 0 {
            return;
        }
        let sink = self.sink.as_mut().expect("pending events imply a sink");
        for (_, ev) in self.pending.drain(..k) {
            sink.emit(self.tenant, ev);
        }
    }

    /// Drains every still-queued event (reconfigurations can outlive the
    /// trace; their `LoadReady` timestamps lie beyond the final clock).
    /// Call once, at the end of a run.
    pub fn finish(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let Some(sink) = self.sink.as_mut() else {
            return;
        };
        for (_, ev) in self.pending.drain(..) {
            sink.emit(self.tenant, ev);
        }
    }

    // ----------------------------------------------------- boundary queue

    /// Starts a new block: clears the residency-boundary queue. The caller
    /// then feeds the boundaries visible to this block
    /// ([`Timeline::push_boundary`]) — completions of loads already in
    /// flight plus the ones issued for the block's plan.
    pub(crate) fn begin_block(&mut self) {
        self.boundaries.clear();
    }

    /// Inserts a residency boundary, keeping the queue deduplicated.
    /// Returns `false` if the timestamp was already queued (duplicates
    /// cannot change the epoch structure — the epoch scan is a strict
    /// `> t` search — so they are dropped at the door instead of
    /// re-planning a no-op epoch).
    pub(crate) fn push_boundary(&mut self, t: Cycles) -> bool {
        match self.boundaries.binary_search(&t) {
            Ok(_) => false,
            Err(pos) => {
                self.boundaries.insert(pos, t);
                true
            }
        }
    }

    /// The earliest boundary strictly after `t`.
    #[must_use]
    pub(crate) fn next_boundary_after(&self, t: Cycles) -> Option<Cycles> {
        let i = self.boundaries.partition_point(|b| *b <= t);
        self.boundaries.get(i).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn c(n: u64) -> Cycles {
        Cycles::new(n)
    }

    #[test]
    fn boundary_queue_sorts_and_dedups() {
        let mut tl = Timeline::new();
        tl.begin_block();
        assert!(tl.push_boundary(c(50)));
        assert!(tl.push_boundary(c(10)));
        assert!(!tl.push_boundary(c(50)), "duplicate must be dropped");
        assert!(tl.push_boundary(c(30)));
        assert_eq!(tl.next_boundary_after(c(0)), Some(c(10)));
        assert_eq!(tl.next_boundary_after(c(10)), Some(c(30)));
        assert_eq!(tl.next_boundary_after(c(40)), Some(c(50)));
        assert_eq!(tl.next_boundary_after(c(50)), None);
    }

    #[test]
    fn scans_see_in_flight_inserts() {
        let mut tl = Timeline::new();
        tl.begin_block();
        tl.push_boundary(c(10));
        tl.push_boundary(c(100));
        assert_eq!(tl.next_boundary_after(c(20)), Some(c(100)));
        // A monoCG install completing at 60 (> current scan time); the
        // next query from t=30 must see it.
        tl.push_boundary(c(60));
        assert_eq!(tl.next_boundary_after(c(30)), Some(c(60)));
        assert_eq!(tl.next_boundary_after(c(60)), Some(c(100)));
    }

    #[test]
    fn begin_block_resets_the_queue() {
        let mut tl = Timeline::new();
        tl.begin_block();
        tl.push_boundary(c(10));
        tl.begin_block();
        assert_eq!(tl.next_boundary_after(c(0)), None);
        assert!(
            tl.push_boundary(c(10)),
            "a new block forgets old boundaries"
        );
    }

    #[test]
    fn clock_is_monotone() {
        let mut tl = Timeline::new();
        tl.advance_to(c(100));
        tl.advance_to(c(40)); // into the past: ignored
        assert_eq!(tl.now(), c(100));
        tl.advance_to(c(150));
        assert_eq!(tl.now(), c(150));
    }

    #[test]
    fn emissions_without_a_sink_cost_nothing() {
        let mut tl = Timeline::new();
        assert!(!tl.recording());
        tl.emit_with(c(5), || panic!("must not be built without a sink"));
        tl.advance_to(c(10));
        tl.finish();
    }

    #[test]
    fn events_flush_in_clock_order_not_call_order() {
        let mut tl = Timeline::new();
        let sink = VecSink::new();
        tl.attach_sink(0, Box::new(sink.clone()));
        // Emitted out of order (parallel kernel timelines do this).
        tl.emit_with(c(500), || SimEvent::EpochBegin {
            at: c(500),
            kernel: KernelId(1),
        });
        tl.emit_with(c(100), || SimEvent::EpochBegin {
            at: c(100),
            kernel: KernelId(0),
        });
        tl.emit_with(c(900), || SimEvent::LoadReady {
            at: c(900),
            unit: UnitId(7),
        });
        tl.advance_to(c(600));
        let drained = sink.take();
        assert_eq!(drained.len(), 2, "the 900-cycle event stays queued");
        assert_eq!(drained[0].1.at(), c(100));
        assert_eq!(drained[1].1.at(), c(500));
        tl.finish();
        let rest = sink.take();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].1.at(), c(900));
    }

    #[test]
    fn equal_timestamps_keep_emission_order() {
        let mut tl = Timeline::new();
        let sink = VecSink::new();
        tl.attach_sink(3, Box::new(sink.clone()));
        tl.emit_with(c(10), || SimEvent::EpochBegin {
            at: c(10),
            kernel: KernelId(0),
        });
        tl.emit_with(c(10), || SimEvent::EpochBegin {
            at: c(10),
            kernel: KernelId(1),
        });
        tl.finish();
        let drained = sink.take();
        assert_eq!(drained[0].0, 3, "tenant tag is carried through");
        assert!(
            matches!(
                drained[0].1,
                SimEvent::EpochBegin {
                    kernel: KernelId(0),
                    ..
                }
            ) && matches!(
                drained[1].1,
                SimEvent::EpochBegin {
                    kernel: KernelId(1),
                    ..
                }
            ),
            "ties break by emission sequence"
        );
    }

    #[test]
    fn jsonl_encoding_is_externally_tagged() {
        let log = events_to_jsonl(&[
            (
                0,
                SimEvent::BlockStart {
                    at: c(0),
                    block: BlockId(2),
                    frame: 1,
                },
            ),
            (
                0,
                SimEvent::LoadReady {
                    at: c(42),
                    unit: UnitId(3),
                },
            ),
        ])
        .unwrap();
        assert_eq!(
            log,
            concat!(
                r#"{"tenant":0,"event":{"BlockStart":{"at":0,"block":2,"frame":1}}}"#,
                "\n",
                r#"{"tenant":0,"event":{"LoadReady":{"at":42,"unit":3}}}"#,
                "\n",
            )
        );
    }

    /// Number of `SimEvent` variants [`arb_event`] draws from.
    const VARIANTS: usize = 16;

    /// A field value: `0`, all ones (`MAX` of every integer type once
    /// truncated), a decimal digit-count boundary (`10^k - 1` or `10^k`
    /// for `k` in `1..=19`), a small value (`0..=100`) or an arbitrary
    /// word, each a fifth of the time.
    fn edge_word() -> impl Strategy<Value = u64> {
        (0u8..5, 1u32..20, any::<u64>()).prop_map(|(pick, k, w)| match pick {
            0 => 0,
            1 => u64::MAX,
            2 => 10u64.pow(k) - (w & 1),
            3 => w % 101,
            _ => w,
        })
    }

    /// Builds variant `v` from the field words `w` and the choice bits
    /// `bits` (enum tags and `None`/`Some`).
    #[allow(clippy::cast_possible_truncation)]
    fn arb_event(v: usize, w: &[u64], bits: u64) -> SimEvent {
        let at = c(w[0]);
        let bit = |i: u32| bits >> i & 1 == 1;
        let fabric = if bit(0) {
            FabricKind::FineGrained
        } else {
            FabricKind::CoarseGrained
        };
        let kind = [
            FaultKind::BitstreamCrc,
            FaultKind::TransientExec,
            FaultKind::PermanentContainer,
        ][(bits >> 1) as usize % 3];
        let class = [
            ExecClass::RiscMode,
            ExecClass::MonoCg,
            ExecClass::IntermediateIse,
            ExecClass::FullIse,
        ][(bits >> 3) as usize % 4];
        let unit = UnitId(w[1]);
        let kernel = KernelId(w[2] as u16);
        match v {
            0 => SimEvent::BlockStart {
                at,
                block: BlockId(w[1] as u16),
                frame: w[2] as u32,
            },
            1 => SimEvent::LoadIssued {
                at,
                unit,
                fabric,
                ready_at: c(w[3]),
            },
            2 => SimEvent::LoadReady { at, unit },
            3 => SimEvent::LoadRejected {
                at,
                unit,
                reason: if bit(5) {
                    RejectReason::Resources
                } else {
                    RejectReason::RetryBudget
                },
            },
            4 => SimEvent::EpochBegin { at, kernel },
            5 => SimEvent::ExecBatch {
                at,
                kernel,
                class,
                count: w[3],
                latency: c(w[4]),
            },
            6 => SimEvent::FaultDetected {
                at,
                kind,
                fabric: bit(6).then_some(fabric),
                unit: bit(7).then_some(unit),
                kernel: bit(8).then_some(kernel),
            },
            7 => SimEvent::FaultRecovered {
                at,
                kind,
                unit: bit(7).then_some(unit),
                kernel: bit(8).then_some(kernel),
            },
            8 => SimEvent::TenantDispatch {
                at,
                tenant: w[1] as u32,
            },
            9 => SimEvent::TenantPreempt {
                at,
                tenant: w[1] as u32,
            },
            10 => SimEvent::RepartitionGranted {
                at,
                tenant: w[1] as u32,
                cg: w[2] as u16,
                prc: w[3] as u16,
            },
            11 => SimEvent::DeadlineMiss {
                at,
                tenant: w[1] as u32,
                block: BlockId(w[2] as u16),
                deadline: c(w[3]),
                tardiness: c(w[4]),
            },
            12 => SimEvent::DegradeStep {
                at,
                tenant: w[1] as u32,
                from_level: w[2] as u8,
                to_level: w[3] as u8,
                cg: w[4] as u16,
                prc: w[5] as u16,
            },
            13 => SimEvent::SessionAdmitted {
                at,
                session: w[1] as u32,
                fabric: w[2] as u32,
                queued_for: c(w[3]),
            },
            14 => SimEvent::SessionDeparted {
                at,
                session: w[1] as u32,
                fabric: w[2] as u32,
                latency: c(w[3]),
            },
            _ => SimEvent::BlockEnd {
                at,
                block: BlockId(w[1] as u16),
                frame: w[2] as u32,
            },
        }
    }

    /// One step of a recording timeline's life: an emission at `at`, or a
    /// clock move (absolute, possibly into the past, or relative).
    #[derive(Debug, Clone)]
    enum Op {
        Emit(u64),
        AdvanceTo(u64),
        AdvanceBy(u64),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        (0u8..5, 0u64..40).prop_map(|(pick, t)| match pick {
            0..=2 => Op::Emit(t),
            3 => Op::AdvanceTo(t),
            _ => Op::AdvanceBy(t % 8),
        })
    }

    /// One step of a block's boundary traffic: an insert, a new block, or
    /// one kernel's epoch scan. A scan starts at `from`; each of its steps
    /// moves the scan point forward by `advance`, optionally inserts a
    /// boundary `1 + later` cycles past it (a monoCG install), and asks for
    /// the next boundary.
    #[derive(Debug, Clone)]
    enum BoundaryOp {
        Push(u64),
        BeginBlock,
        Scan {
            from: u64,
            steps: Vec<(u64, Option<u64>)>,
        },
    }

    /// A boundary timestamp: mostly from a small range (many duplicates),
    /// sometimes far out.
    fn arb_boundary() -> impl Strategy<Value = u64> {
        (0u8..4, 0u64..600, any::<u32>()).prop_map(|(pick, small, far)| {
            if pick < 3 {
                small
            } else {
                u64::from(far) << 8
            }
        })
    }

    /// Six pushes, one new block and three scans in ten; half the scan
    /// steps insert.
    fn arb_boundary_op() -> impl Strategy<Value = BoundaryOp> {
        (
            0u8..10,
            arb_boundary(),
            0u64..300,
            collection::vec((0u64..200, 0u64..800), 0..12),
        )
            .prop_map(|(pick, v, from, steps)| match pick {
                0..=5 => BoundaryOp::Push(v),
                6 => BoundaryOp::BeginBlock,
                _ => BoundaryOp::Scan {
                    from,
                    steps: steps
                        .into_iter()
                        .map(|(advance, later)| (advance, (later < 400).then_some(later)))
                        .collect(),
                },
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The boundary queue behaves as an ordered set: an insert reports
        /// whether the timestamp was new, and the next boundary after `t`
        /// is the set's first element `> t`, also across inserts made
        /// during a scan and across blocks.
        #[test]
        fn boundary_queue_matches_a_btreeset_model(
            ops in collection::vec(arb_boundary_op(), 0..60),
        ) {
            use std::collections::BTreeSet;
            use std::ops::Bound::{Excluded, Unbounded};
            let mut tl = Timeline::new();
            tl.begin_block();
            let mut model = BTreeSet::new();
            for op in ops {
                match op {
                    BoundaryOp::Push(v) => {
                        let fresh = !model.contains(&v);
                        prop_assert_eq!(tl.push_boundary(c(v)), fresh, "push({})", v);
                        model.insert(v);
                    }
                    BoundaryOp::BeginBlock => {
                        tl.begin_block();
                        model.clear();
                    }
                    BoundaryOp::Scan { from, steps } => {
                        let mut t = from;
                        for (advance, later) in steps {
                            t += advance;
                            if let Some(later) = later {
                                let v = t + 1 + later;
                                let fresh = !model.contains(&v);
                                prop_assert_eq!(tl.push_boundary(c(v)), fresh, "push({})", v);
                                model.insert(v);
                            }
                            let want = model.range((Excluded(t), Unbounded)).next().map(|&b| c(b));
                            prop_assert_eq!(tl.next_boundary_after(c(t)), want, "after {}", t);
                        }
                    }
                }
            }
        }
    }

    proptest! {
        /// Whatever the emission and flush pattern, each flush delivers
        /// exactly the events emitted so far with `at <= now` that are not
        /// yet delivered, as a stable sort by `(at, emission index)`, and
        /// `finish` delivers the rest the same way.
        #[test]
        fn flushes_deliver_a_stable_sort_of_what_was_emitted(
            ops in collection::vec(arb_op(), 0..80),
            tenant in any::<u32>(),
        ) {
            let mut tl = Timeline::new();
            let sink = VecSink::new();
            tl.attach_sink(tenant, Box::new(sink.clone()));
            // Oracle: undelivered `(at, emission index)` pairs and the clock.
            let mut queued: Vec<(u64, u64)> = Vec::new();
            let mut now = 0u64;
            let mut emitted = 0u64;
            let mut delivered = Vec::new();
            let mut expected = Vec::new();
            let flush = |queued: &mut Vec<(u64, u64)>, through: u64| {
                let mut due: Vec<_> = queued.iter().copied().filter(|&(a, _)| a <= through).collect();
                due.sort_by_key(|&(a, i)| (a, i));
                queued.retain(|&(a, _)| a > through);
                due
            };
            for op in ops {
                match op {
                    Op::Emit(at) => {
                        let unit = UnitId(emitted);
                        tl.emit_with(c(at), || SimEvent::LoadReady { at: c(at), unit });
                        queued.push((at, emitted));
                        emitted += 1;
                        continue;
                    }
                    Op::AdvanceTo(t) => {
                        tl.advance_to(c(t));
                        now = now.max(t);
                    }
                    Op::AdvanceBy(d) => {
                        tl.advance_by(c(d));
                        now += d;
                    }
                }
                prop_assert_eq!(tl.now(), c(now));
                expected.extend(flush(&mut queued, now));
                delivered.extend(sink.take());
                prop_assert_eq!(delivered.len(), expected.len());
            }
            tl.finish();
            expected.extend(flush(&mut queued, u64::MAX));
            delivered.extend(sink.take());
            let want: Vec<(u32, SimEvent)> = expected
                .into_iter()
                .map(|(at, i)| (tenant, SimEvent::LoadReady { at: c(at), unit: UnitId(i) }))
                .collect();
            prop_assert_eq!(delivered, want);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The direct writer is byte for byte the derived serde encoding,
        /// and the serde reader gives the event back.
        #[test]
        fn writer_matches_the_derived_encoding(
            tenant in edge_word(),
            v in 0..VARIANTS,
            w in collection::vec(edge_word(), 6),
            bits in any::<u64>(),
        ) {
            let tenant = tenant as u32;
            let ev = arb_event(v, &w, bits);
            let mut line = Vec::new();
            write_event(&mut line, tenant, &ev);
            let line = String::from_utf8(line).expect("ASCII");
            let reference = format!(
                "{{\"tenant\":{tenant},\"event\":{}}}\n",
                serde_json::to_string(&ev).expect("serialise")
            );
            prop_assert_eq!(&line, &reference);
            let inner = line
                .strip_prefix(&format!("{{\"tenant\":{tenant},\"event\":"))
                .and_then(|l| l.strip_suffix("}\n"))
                .expect("line frames the event object");
            let back: SimEvent = serde_json::from_str(inner).expect("deserialise");
            prop_assert_eq!(back, ev);
        }
    }
}
