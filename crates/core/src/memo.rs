//! The exact selection memo (DESIGN.md §7.4).
//!
//! Steps 2–4 of [`Mrts::plan_block`](crate::Mrts) — the fabric account's
//! open, the selection and the close — are a pure function of the trigger
//! state they read. A [`SelectionMemo`] maps that state, as a compact key,
//! to the plan they produced and the §5.4 cycles it computed, so a policy
//! that meets the same state again copies the plan instead of selecting.
//!
//! Sessions of one application in a fleet replay a few trace variants on
//! equal lane shares and meet the same states over and over, so the fleet
//! shares one memo per application across its sessions. A single run
//! repeats too few states for the lookup to pay, and plans without one.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use mrts_arch::{Cycles, FabricKind, Resources};
use mrts_ise::{IseCatalog, IseId, KernelId, TriggerBlock, UnitId};
use mrts_sim::{BlockPlan, SelectionContext};

use crate::MrtsConfig;

/// Plans a memo stores at most. Past the cap a miss is computed as
/// always and not stored, so which plans a memo holds depends only on
/// the order of its misses.
const MEMO_CAPACITY: usize = 1 << 14;

/// A stored plan of steps 2–4, its lists boxed to their length, with the
/// computed (not the charged) selection cycles.
#[derive(Debug)]
struct Stored {
    choices: Box<[(KernelId, Option<IseId>)]>,
    evict: Box<[UnitId]>,
    load_order: Box<[UnitId]>,
    computed: Cycles,
}

/// A shared, exact memo of trigger-time selections, for one catalogue
/// and one [`MrtsConfig`].
///
/// Cloning gives another handle to the same table; the table is freed
/// with its last handle. Attach it with [`Mrts::with_memo`]: every policy
/// holding a handle reads and fills the same table. The first policy to
/// plan through it binds it to its catalogue and configuration; a policy
/// with another catalogue or configuration then plans without it.
///
/// [`Mrts::with_memo`]: crate::Mrts::with_memo
#[derive(Debug, Clone, Default)]
pub struct SelectionMemo {
    shared: Arc<Shared>,
}

#[derive(Debug, Default)]
struct Shared {
    /// The configuration and catalogue address the plans belong to.
    owner: OnceLock<(MrtsConfig, usize)>,
    plans: Mutex<Plans>,
}

type Plans = HashMap<Box<[u64]>, Stored, BuildHasherDefault<KeyHasher>>;

impl SelectionMemo {
    /// An empty memo.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Plans stored: below the cap, one per miss so far.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.plans().len()
    }

    /// The stored plans. A panic while they were locked leaves them
    /// valid: the one update is a single insert.
    fn plans(&self) -> MutexGuard<'_, Plans> {
        self.shared
            .plans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether a policy of `config` over `catalog` may use the memo; binds
    /// an unbound memo to them.
    pub(crate) fn serves(&self, config: &MrtsConfig, catalog: &IseCatalog) -> bool {
        let owner = (*config, std::ptr::from_ref(catalog) as usize);
        *self.shared.owner.get_or_init(|| owner) == owner
    }

    /// Copies the plan stored under `key` into `plan`'s lists (cleared
    /// first) and returns its computed cycles; on a miss leaves `plan`
    /// alone.
    pub(crate) fn lookup(&self, key: &[u64], plan: &mut BlockPlan) -> Option<Cycles> {
        let plans = self.plans();
        let stored = plans.get(key)?;
        plan.selections.clear();
        plan.selections.extend_from_slice(&stored.choices);
        plan.evict.clear();
        plan.evict.extend_from_slice(&stored.evict);
        plan.load_order.clear();
        plan.load_order.extend_from_slice(&stored.load_order);
        Some(stored.computed)
    }

    /// Stores `plan`'s lists and `computed` under `key` unless the memo is
    /// full.
    pub(crate) fn insert(&self, key: &[u64], plan: &BlockPlan, computed: Cycles) {
        let mut plans = self.plans();
        if plans.len() < MEMO_CAPACITY {
            plans.insert(
                key.into(),
                Stored {
                    choices: plan.selections.as_slice().into(),
                    evict: plan.evict.as_slice().into(),
                    load_order: plan.load_order.as_slice().into(),
                    computed,
                },
            );
        }
    }
}

/// Writes into `key` everything steps 2–4 read, relative to `ctx.now`:
///
/// * a header word: the block, the §5.4 hiding flag `hide`, and the
///   machine's capacity;
/// * a word of free fabric and the FG port's ticket count;
/// * each port's `max(now, busy_until) − now`;
/// * a word of the trigger and held-id counts;
/// * each staged trigger's kernel, `e`, `tf` and `tb`;
/// * the held ids (resident or streaming) in ascending order, then their
///   resident-at-`now` bits from `ctx.resident`, 64 to a word;
/// * each in-flight ticket in queue order (FG port first) as its id and
///   `ready_at − now`.
///
/// `stock` is the fabric account's one walk of the machine: the held ids,
/// ascending, the free fabric and the capacity. The counts make the layout
/// unambiguous, so equal keys are equal states. The selector and the
/// profit memo read every time relative to `now`, so the key leaves
/// absolute time out.
pub(crate) fn write_key(
    key: &mut Vec<u64>,
    ctx: &SelectionContext<'_>,
    forecast: &TriggerBlock,
    (held, free, cap): (&[u64], Resources, Resources),
    hide: bool,
) {
    let now = ctx.now.get();
    let controller = ctx.machine.controller();
    let port = |fabric| controller.port_free_at(fabric).get().saturating_sub(now);
    key.clear();
    key.extend([
        u64::from(forecast.block.index())
            | u64::from(hide) << 16
            | u64::from(cap.cg()) << 32
            | u64::from(cap.prc()) << 48,
        u64::from(free.cg()) | u64::from(free.prc()) << 16,
        port(FabricKind::FineGrained),
        port(FabricKind::CoarseGrained),
        forecast.triggers.len() as u64 | (held.len() as u64) << 32,
    ]);
    for t in forecast.iter() {
        key.extend([
            u64::from(t.kernel.index()),
            t.expected_executions,
            t.time_to_first.get(),
            t.time_between.get(),
        ]);
    }
    key.extend_from_slice(held);
    for ids in held.chunks(64) {
        let bits = ids.iter().enumerate().fold(0u64, |bits, (i, &id)| {
            bits | u64::from(ctx.is_resident(UnitId::from_loaded_id(id))) << i
        });
        key.push(bits);
    }
    let mut fg_tickets = 0u64;
    for t in controller.inflight_tickets() {
        fg_tickets += u64::from(t.fabric == FabricKind::FineGrained);
        key.extend([t.id, t.ready_at.get().wrapping_sub(now)]);
    }
    key[1] |= fg_tickets << 32;
}

/// FxHash-style multiply-rotate hashing of the key's words. The keys are
/// simulator states the memo builds itself, and since a lookup compares
/// whole keys, a collision costs a longer probe, never a wrong plan. The
/// default SipHash cost about 10 % of fleet-churn throughput.
#[derive(Debug, Default)]
struct KeyHasher(u64);

impl KeyHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        for &b in words.remainder() {
            self.add(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mrts;
    use mrts_arch::{ArchParams, FaultModel, Machine, Resources};
    use mrts_ise::{BlockId, TriggerInstruction};
    use mrts_sim::{ExecContext, ExecPlan, ResidentSet, RuntimePolicy, Simulator};
    use mrts_workload::{KernelActivity, TraceBuilder, WorkloadModel};

    /// Forwards every callback to `mrts`, keeping a copy of each plan.
    struct Recorded {
        mrts: Mrts,
        plans: Vec<BlockPlan>,
    }

    impl RuntimePolicy for Recorded {
        fn name(&self) -> String {
            self.mrts.name()
        }

        fn plan_block(&mut self, ctx: &SelectionContext<'_>) -> BlockPlan {
            let plan = self.mrts.plan_block(ctx);
            self.plans.push(plan.clone());
            plan
        }

        fn plan_execution(
            &mut self,
            kernel: KernelId,
            selected: Option<IseId>,
            ctx: &ExecContext<'_>,
        ) -> ExecPlan {
            self.mrts.plan_execution(kernel, selected, ctx)
        }

        fn observe_block_end(&mut self, block: BlockId, observed: &[KernelActivity]) {
            self.mrts.observe_block_end(block, observed);
        }

        fn recycle_plan(&mut self, plan: BlockPlan) {
            self.mrts.recycle_plan(plan);
        }
    }

    /// Two policies sharing a memo run the same H.264 trace on equal
    /// machines: the second hits on every block, and both plan exactly
    /// what a policy without a memo plans.
    #[test]
    fn a_second_policy_on_the_same_run_hits_every_block_with_equal_plans() {
        let h264 = mrts_ingest::model("h264").expect("builtin h264 lowers");
        let catalog = h264
            .application()
            .build_catalog(ArchParams::default(), None)
            .unwrap();
        let trace = TraceBuilder::new(&h264).build();
        let blocks = trace.len();
        let run = |memo: Option<&SelectionMemo>| {
            let mrts = match memo {
                Some(memo) => Mrts::new().with_memo(memo.clone()),
                None => Mrts::new(),
            };
            let mut policy = Recorded {
                mrts,
                plans: Vec::new(),
            };
            let machine = Machine::new(ArchParams::default(), Resources::new(4, 3)).unwrap();
            let stats = Simulator::run(&catalog, machine, &trace, &mut policy);
            (stats, policy)
        };
        let memo = SelectionMemo::new();
        let (plain_stats, plain) = run(None);
        let (first_stats, first) = run(Some(&memo));
        let stored = memo.len();
        assert!((1..=blocks).contains(&stored));
        let (second_stats, second) = run(Some(&memo));
        assert_eq!(memo.len(), stored, "every block of the second run hits");

        assert_eq!(first.plans, plain.plans);
        assert_eq!(second.plans, plain.plans);
        assert_eq!(first_stats, plain_stats);
        assert_eq!(second_stats, plain_stats);
        let avg = |p: &Recorded| p.mrts.avg_selection_cycles_per_kernel();
        assert!(avg(&plain) > 0.0);
        assert_eq!(avg(&first).to_bits(), avg(&plain).to_bits());
        assert_eq!(avg(&second).to_bits(), avg(&plain).to_bits());
    }

    /// One trigger's input: the machine, the instant, whether residency
    /// was captured (or left empty), and the compile-time forecast.
    #[derive(Clone)]
    struct Trigger {
        machine: Machine,
        now: Cycles,
        captured: bool,
        forecast: TriggerBlock,
    }

    impl Trigger {
        fn plan(&self, catalog: &IseCatalog, mrts: &mut Mrts) -> BlockPlan {
            let mut resident = ResidentSet::default();
            if self.captured {
                resident.capture(&self.machine, self.now, catalog.units().len());
            }
            let ctx = SelectionContext {
                now: self.now,
                catalog,
                machine: &self.machine,
                forecast: &self.forecast,
                resident: &resident,
            };
            mrts.plan_block(&ctx)
        }

        /// Whether `other`, planned by a fresh policy after `self` by
        /// another, hits the memo they share (a miss stores a plan).
        fn then_hits(&self, other: &Trigger, catalog: &IseCatalog) -> bool {
            let memo = SelectionMemo::new();
            self.plan(catalog, &mut Mrts::new().with_memo(memo.clone()));
            assert_eq!(memo.len(), 1);
            other.plan(catalog, &mut Mrts::new().with_memo(memo.clone()));
            memo.len() == 1
        }
    }

    /// Changing any single part of the key misses; an unchanged input
    /// hits.
    #[test]
    fn every_key_part_separates_inputs() {
        let catalog = mrts_ingest::model("fft")
            .expect("builtin fft lowers")
            .application()
            .build_catalog(ArchParams::default(), None)
            .unwrap();
        let params = ArchParams {
            cg_contexts_per_edpe: 1,
            ..ArchParams::default()
        };
        let unit = |fabric: FabricKind, k: u16| {
            catalog
                .units()
                .iter()
                .find(|u| u.kernel() == KernelId(k) && u.fabric() == fabric)
                .expect("fft has units of both fabrics")
                .id()
                .as_loaded_id()
        };
        let forecast = |e: u64, tb: u64| {
            TriggerBlock::new(
                BlockId(0),
                (0..2)
                    .map(|k| {
                        TriggerInstruction::new(KernelId(k), e, Cycles::new(500), Cycles::new(tb))
                    })
                    .collect(),
            )
        };
        let trigger = |machine: Machine, now: u64| Trigger {
            machine,
            now: Cycles::new(now),
            captured: true,
            forecast: forecast(1_000, 300),
        };
        let differs = |a: &Trigger, b: &Trigger| {
            assert!(a.then_hits(a, &catalog), "an unchanged input hits");
            assert!(b.then_hits(b, &catalog), "an unchanged input hits");
            !a.then_hits(b, &catalog)
        };

        // A settled, resident CG unit, and a streaming FG unit.
        let mut m = Machine::new(params.clone(), Resources::new(2, 2)).unwrap();
        m.load_cg(Cycles::ZERO, unit(FabricKind::CoarseGrained, 0), 16)
            .unwrap();
        m.settle(Cycles::new(1_000));
        m.load_fg(Cycles::new(1_000), unit(FabricKind::FineGrained, 1), 40_000)
            .unwrap();
        let base = trigger(m, 2_000);

        // A residency bit: the same fabric, nothing captured as resident.
        let uncaptured = Trigger {
            captured: false,
            ..base.clone()
        };
        assert!(differs(&base, &uncaptured), "residency bit");

        // A staged `e`, a staged `tb`.
        for (e, tb) in [(1_001, 300), (1_000, 301)] {
            let other = Trigger {
                forecast: forecast(e, tb),
                ..base.clone()
            };
            assert!(differs(&base, &other), "staged e = {e}, tb = {tb}");
        }

        // The hide flag: one policy planning the same input twice.
        let memo = SelectionMemo::new();
        let mut mrts = Mrts::new().with_memo(memo.clone());
        for (round, stored) in [(0, 1), (1, 2), (2, 2)] {
            base.plan(&catalog, &mut mrts);
            assert_eq!(memo.len(), stored, "round {round}");
        }

        // A port's free time alone: a faulted load occupies the FG port
        // and leaves neither a ticket nor a container.
        let faulty = || {
            let faults = FaultModel::with_rates(1.0, 0.0, 0.0, 3);
            Machine::with_fault_model(params.clone(), Resources::new(2, 2), faults).unwrap()
        };
        let mut busy = faulty();
        busy.load_fg(Cycles::ZERO, unit(FabricKind::FineGrained, 0), 40_000)
            .unwrap_err();
        assert!(busy.controller().port_free_at(FabricKind::FineGrained) > Cycles::new(10));
        assert_eq!(busy.controller().inflight_tickets().count(), 0);
        assert!(differs(&trigger(faulty(), 10), &trigger(busy, 10)), "port");

        // A ticket's ready time alone: two CG loads swap lengths, so the
        // port frees at the same time.
        let swapped = |first: u16, second: u16| {
            let mut m = Machine::new(params.clone(), Resources::new(2, 2)).unwrap();
            m.load_cg(Cycles::ZERO, unit(FabricKind::CoarseGrained, 0), first)
                .unwrap();
            m.load_cg(Cycles::ZERO, unit(FabricKind::CoarseGrained, 1), second)
                .unwrap();
            trigger(m, 0)
        };
        let (a, b) = (swapped(16, 48), swapped(48, 16));
        let port = |t: &Trigger| {
            t.machine
                .controller()
                .port_free_at(FabricKind::CoarseGrained)
        };
        assert_eq!(port(&a), port(&b));
        assert!(differs(&a, &b), "ticket ready time");

        // Capacity alone and free fabric alone: a settled foreign id on
        // either fabric of machines of two shapes.
        let foreign = catalog.units().len() as u64 + 7;
        let holding = |shape: Resources, fabric: FabricKind| {
            let mut m = Machine::new(params.clone(), shape).unwrap();
            match fabric {
                FabricKind::CoarseGrained => m.load_cg(Cycles::ZERO, foreign, 16),
                FabricKind::FineGrained => m.load_fg(Cycles::ZERO, foreign, 40_000),
            }
            .unwrap();
            let now = 100_000_000;
            m.settle(Cycles::new(now));
            trigger(m, now)
        };
        let on_cg = holding(Resources::new(2, 2), FabricKind::CoarseGrained);
        let on_fg = holding(Resources::new(1, 3), FabricKind::FineGrained);
        assert_eq!(
            on_cg.machine.free_resources(),
            on_fg.machine.free_resources()
        );
        assert!(differs(&on_cg, &on_fg), "capacity");
        let on_fg = holding(Resources::new(2, 2), FabricKind::FineGrained);
        assert_eq!(on_cg.machine.capacity(), on_fg.machine.capacity());
        assert!(differs(&on_cg, &on_fg), "free fabric");
    }

    /// A memo bound to one configuration and catalogue serves no other.
    #[test]
    fn a_memo_serves_one_configuration_and_catalogue() {
        let build = |app| {
            mrts_ingest::model(app)
                .expect("builtin lowers")
                .application()
                .build_catalog(ArchParams::default(), None)
                .unwrap()
        };
        let (fft, cipher) = (build("fft"), build("cipher"));
        let memo = SelectionMemo::new();
        assert!(memo.serves(&MrtsConfig::default(), &fft));
        assert!(memo.serves(&MrtsConfig::default(), &fft));
        assert!(!memo.serves(&MrtsConfig::rispp_like(), &fft));
        assert!(!memo.serves(&MrtsConfig::default(), &cipher));
    }
}
