//! The assembled multi-grained machine: parameters, both fabrics and the
//! reconfiguration controller behind one facade.

use crate::clock::Cycles;
use crate::error::ArchError;
use crate::fabric::{Fabric, LoadedId};
use crate::fault::{FaultKind, FaultModel, LoadFault};
use crate::params::ArchParams;
use crate::reconfig::{FabricKind, LoadRequest, LoadTicket, ReconfigurationController};
use crate::resources::Resources;
use serde::{Deserialize, Serialize};

/// A complete multi-grained reconfigurable processor instance (Fig. 3 of
/// the paper): core + FG fabric (PRCs) + CG fabric (EDPEs) + reconfiguration
/// controller.
///
/// `Machine` owns all mutable hardware state; the simulator and the run-time
/// system interact exclusively through it, which keeps the policies
/// hardware-agnostic and lets the evaluation sweep fabric combinations.
///
/// # Example
///
/// ```
/// use mrts_arch::{ArchParams, Cycles, FabricKind, Machine, Resources};
///
/// # fn main() -> Result<(), mrts_arch::ArchError> {
/// // 1 physical CG-EDPE (3 context slots by default) and 2 PRCs.
/// let mut m = Machine::new(ArchParams::default(), Resources::new(1, 2))?;
/// assert_eq!(m.capacity(), Resources::new(3, 2));
/// let ticket = m.load_fg(Cycles::ZERO, 7, 81_100)?;
/// assert!(ticket.ready_at > Cycles::ZERO);
/// assert_eq!(m.free_resources(), Resources::new(3, 1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Machine {
    params: ArchParams,
    budget: Resources,
    /// The PRCs.
    fg: Fabric,
    /// The CG context slots, `cg_contexts_per_edpe` per physical EDPE.
    cg: Fabric,
    controller: ReconfigurationController,
    /// Injected-fault source; [`FaultModel::none`] by default, in which
    /// case the machine behaves bit-identically to the fault-free model.
    #[serde(default)]
    fault_model: FaultModel,
}

impl Machine {
    /// Builds a machine with the given fabric budget.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidParams`] if `params` is inconsistent, or
    /// if the CG budget has more context slots than a `u16` counts.
    pub fn new(params: ArchParams, budget: Resources) -> Result<Self, ArchError> {
        params.validate()?;
        let contexts = params.cg_contexts_per_edpe;
        let cg_slots = budget.cg().checked_mul(contexts).ok_or_else(|| {
            ArchError::InvalidParams(format!(
                "cg: {} EDPEs × {contexts} contexts each exceed {} context slots",
                budget.cg(),
                u16::MAX
            ))
        })?;
        Ok(Machine {
            fg: Fabric::new(budget.prc()),
            cg: Fabric::new(cg_slots),
            budget,
            params,
            controller: ReconfigurationController::new(),
            fault_model: FaultModel::none(),
        })
    }

    /// Builds a machine with an injected-fault source.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidParams`] as [`Machine::new`] does.
    pub fn with_fault_model(
        params: ArchParams,
        budget: Resources,
        fault_model: FaultModel,
    ) -> Result<Self, ArchError> {
        let mut m = Machine::new(params, budget)?;
        m.fault_model = fault_model;
        Ok(m)
    }

    /// The fault model.
    #[must_use]
    pub fn fault_model(&self) -> &FaultModel {
        &self.fault_model
    }

    /// Samples the index of the first transiently-faulted execution in a
    /// batch of `n` accelerated executions (see
    /// `FaultModel::first_exec_fault`).
    pub fn exec_fault_in_batch(&mut self, n: u64) -> Option<u64> {
        self.fault_model.first_exec_fault(n)
    }

    /// The architecture parameters.
    #[must_use]
    pub fn params(&self) -> &ArchParams {
        &self.params
    }

    /// The configured fabric budget: **physical** CG-EDPEs and PRCs (the
    /// axes of the paper's Fig. 8 sweep).
    #[must_use]
    pub fn budget(&self) -> Resources {
        self.budget
    }

    /// Total allocatable capacity in *slot* units: CG **context slots**
    /// (EDPEs × contexts per EDPE) and PRCs. This is the denomination every
    /// policy-facing `Resources` value uses. Permanently failed containers
    /// are excluded — capacity shrinks as the hardware degrades.
    #[must_use]
    pub fn capacity(&self) -> Resources {
        Resources::new(self.cg.working_count(), self.fg.working_count())
    }

    /// Containers lost to permanent faults, in slot units.
    #[must_use]
    pub fn failed_resources(&self) -> Resources {
        Resources::new(self.cg.failed_count(), self.fg.failed_count())
    }

    /// Currently free fabric in slot units, the `N_CG` / `N_PRC` inputs of
    /// the ISE selector.
    #[must_use]
    pub fn free_resources(&self) -> Resources {
        Resources::new(self.cg.free_count(), self.fg.free_count())
    }

    /// Read access to the FG fabric's PRCs.
    #[must_use]
    pub fn fg(&self) -> &Fabric {
        &self.fg
    }

    /// Read access to the CG fabric's context slots.
    #[must_use]
    pub fn cg(&self) -> &Fabric {
        &self.cg
    }

    /// Read access to the reconfiguration controller (for completion-time
    /// prediction).
    #[must_use]
    pub fn controller(&self) -> &ReconfigurationController {
        &self.controller
    }

    fn fabric_mut(&mut self, kind: FabricKind) -> &mut Fabric {
        match kind {
            FabricKind::FineGrained => &mut self.fg,
            FabricKind::CoarseGrained => &mut self.cg,
        }
    }

    /// Fails with [`ArchError::InsufficientResources`] if no container of
    /// `kind` is free.
    fn check_free(&self, kind: FabricKind) -> Result<(), ArchError> {
        let (free, requested) = match kind {
            FabricKind::FineGrained => (self.fg.free_count(), Resources::prc_only(1)),
            FabricKind::CoarseGrained => (self.cg.free_count(), Resources::cg_only(1)),
        };
        if free == 0 {
            return Err(ArchError::InsufficientResources {
                requested,
                available: self.free_resources(),
            });
        }
        Ok(())
    }

    /// The one load-admission path: checks for a free container, draws a
    /// fault, queues the transfer on the fabric's configuration port and
    /// places the artefact in the first free container, usable from the
    /// ticket's `ready_at`.
    fn admit(
        &mut self,
        now: Cycles,
        id: LoadedId,
        fabric: FabricKind,
        duration: Cycles,
    ) -> Result<LoadTicket, ArchError> {
        self.check_free(fabric)?;
        if let Some(kind) = self.fault_model.next_load_fault() {
            return Err(self.faulted_load(now, id, fabric, duration, kind));
        }
        let ticket = self.controller.request(
            now,
            LoadRequest {
                id,
                fabric,
                duration,
            },
        );
        let placed = self.fabric_mut(fabric).place(id, ticket.ready_at);
        assert!(placed, "free container checked above");
        Ok(ticket)
    }

    /// Charges a faulted load to the configuration port, optionally killing
    /// the target container, and builds the resulting error.
    fn faulted_load(
        &mut self,
        now: Cycles,
        id: LoadedId,
        fabric: FabricKind,
        duration: Cycles,
        kind: FaultKind,
    ) -> ArchError {
        let ticket = self.controller.request_wasted(
            now,
            LoadRequest {
                id,
                fabric,
                duration,
            },
        );
        if kind == FaultKind::PermanentContainer {
            let failed = self.fabric_mut(fabric).fail_one_empty();
            assert!(failed, "free container checked by the caller");
        }
        ArchError::LoadFault(LoadFault {
            kind,
            fabric,
            wasted: ticket.ready_at - ticket.starts_at,
            retry_at: ticket.ready_at,
        })
    }

    /// Starts loading an FG data path (bitstream of `bitstream_bytes`) into a
    /// free PRC at time `now`.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InsufficientResources`] if no PRC is free, or
    /// [`ArchError::LoadFault`] if the fault model injects a CRC or
    /// permanent-container fault into this attempt.
    pub fn load_fg(
        &mut self,
        now: Cycles,
        id: LoadedId,
        bitstream_bytes: u64,
    ) -> Result<LoadTicket, ArchError> {
        let duration = self.params.fg_reconfig_time(bitstream_bytes);
        self.admit(now, id, FabricKind::FineGrained, duration)
    }

    /// Starts loading a CG context program of `instrs` instructions into a
    /// free EDPE context slot at time `now`.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InsufficientResources`] if no context slot is
    /// free, or [`ArchError::LoadFault`] on an injected fault.
    pub fn load_cg(
        &mut self,
        now: Cycles,
        id: LoadedId,
        instrs: u16,
    ) -> Result<LoadTicket, ArchError> {
        let duration = self.params.cg_reconfig_time(instrs);
        self.admit(now, id, FabricKind::CoarseGrained, duration)
    }

    /// Whether artefact `id` is resident and usable anywhere at `now`.
    #[must_use]
    pub fn is_resident(&self, id: LoadedId, now: Cycles) -> bool {
        self.fg.is_resident(id, now) || self.cg.is_resident(id, now)
    }

    /// Evicts artefact `id` from whichever fabric holds it.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidState`] if nothing holds `id`.
    pub fn evict(&mut self, id: LoadedId) -> Result<(), ArchError> {
        if self.fg.evict(id) || self.cg.evict(id) {
            Ok(())
        } else {
            Err(ArchError::InvalidState(format!(
                "no container holds artefact {id}"
            )))
        }
    }

    /// Folds completed loads into fabric state; call when time advances.
    /// Returns whether any container became loaded: when none did, the
    /// set of loaded containers is what it was before the call.
    pub fn settle(&mut self, now: Cycles) -> bool {
        let fg = self.fg.settle(now);
        let cg = self.cg.settle(now);
        self.controller.settle(now);
        fg | cg
    }

    /// Re-partitions the machine to a new capacity `target`, expressed in
    /// **slot** units like [`Machine::capacity`] (CG context slots, PRCs).
    /// This is the fabric arbiter's lever for moving containers between
    /// tenant partitions at run time.
    ///
    /// Growing appends fresh empty containers; shrinking removes the last
    /// empty container first and evicts the artefact in the last occupied
    /// one only when it must. Permanently failed containers stay pinned to
    /// this machine (hardware damage does not migrate between partitions),
    /// so after the call `capacity() == target` regardless of the fault
    /// history. The physical [`Machine::budget`] is recomputed from the new
    /// counts: `ceil(CG slots / cg_contexts_per_edpe)` EDPEs.
    ///
    /// Call between functional blocks, on a settled machine: in-flight
    /// transfers of evicted artefacts are *not* cancelled. Returns the
    /// evicted artefact ids from both fabrics, ascending.
    pub fn resize_capacity(&mut self, target: Resources) -> Vec<LoadedId> {
        let mut evicted = self.cg.resize(target.cg());
        evicted.extend(self.fg.resize(target.prc()));
        evicted.sort_unstable();
        self.budget = Resources::new(
            target.cg().div_ceil(self.params.cg_contexts_per_edpe),
            target.prc(),
        );
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(cg: u16, prc: u16) -> Machine {
        // One context slot per EDPE for simple arithmetic in these tests.
        let params = ArchParams {
            cg_contexts_per_edpe: 1,
            ..ArchParams::default()
        };
        Machine::new(params, Resources::new(cg, prc)).expect("valid")
    }

    #[test]
    fn capacity_scales_with_contexts() {
        let m = Machine::new(ArchParams::default(), Resources::new(2, 3)).expect("valid");
        assert_eq!(m.budget(), Resources::new(2, 3));
        assert_eq!(m.capacity(), Resources::new(6, 3));
        assert_eq!(m.free_resources(), m.capacity());
    }

    #[test]
    fn budget_and_free_resources() {
        let mut m = machine(2, 3);
        assert_eq!(m.budget(), Resources::new(2, 3));
        assert_eq!(m.free_resources(), m.capacity());
        assert_eq!(m.capacity(), Resources::new(2, 3));
        m.load_cg(Cycles::ZERO, 1, 32).unwrap();
        m.load_fg(Cycles::ZERO, 2, 81_100).unwrap();
        assert_eq!(m.free_resources(), Resources::new(1, 2));
    }

    #[test]
    fn fg_loads_serialize_cg_loads_do_not_block_them() {
        let mut m = machine(2, 2);
        let a = m.load_fg(Cycles::ZERO, 1, 81_100).unwrap();
        let b = m.load_fg(Cycles::ZERO, 2, 81_100).unwrap();
        assert_eq!(b.starts_at, a.ready_at);
        let c = m.load_cg(Cycles::ZERO, 3, 32).unwrap();
        assert!(c.ready_at < a.ready_at);
    }

    #[test]
    fn insufficient_resources_reported() {
        let mut m = machine(0, 1);
        let err = m.load_cg(Cycles::ZERO, 1, 32).unwrap_err();
        assert!(matches!(err, ArchError::InsufficientResources { .. }));
        m.load_fg(Cycles::ZERO, 2, 10_000).unwrap();
        assert!(m.load_fg(Cycles::ZERO, 3, 10_000).is_err());
    }

    #[test]
    fn eviction_across_fabrics() {
        let mut m = machine(1, 1);
        m.load_fg(Cycles::ZERO, 1, 10_000).unwrap();
        m.load_cg(Cycles::ZERO, 2, 16).unwrap();
        assert!(m.evict(1).is_ok());
        assert!(m.evict(2).is_ok());
        assert!(m.evict(3).is_err());
        assert_eq!(m.free_resources(), m.budget());
    }

    #[test]
    fn crc_fault_wastes_port_time_but_leaves_prc_empty() {
        let mut m = machine(1, 1);
        m.fault_model = FaultModel::with_rates(1.0, 0.0, 0.0, 3);
        let err = m.load_fg(Cycles::ZERO, 7, 81_100).unwrap_err();
        let ArchError::LoadFault(fault) = err else {
            panic!("expected LoadFault, got {err:?}");
        };
        assert_eq!(fault.kind, FaultKind::BitstreamCrc);
        assert_eq!(fault.fabric, FabricKind::FineGrained);
        assert!(fault.wasted > Cycles::ZERO);
        // The PRC is still free, but the port is busy until retry_at.
        assert_eq!(m.free_resources(), Resources::new(1, 1));
        assert_eq!(
            m.controller().port_free_at(FabricKind::FineGrained),
            fault.retry_at
        );
        // A retry queues behind the wasted transfer.
        m.fault_model = FaultModel::none();
        let t = m.load_fg(Cycles::ZERO, 7, 81_100).unwrap();
        assert_eq!(t.starts_at, fault.retry_at);
    }

    #[test]
    fn permanent_fault_kills_the_container() {
        let mut m = machine(1, 2);
        m.fault_model = FaultModel::with_rates(0.0, 0.0, 1.0, 3);
        let err = m.load_fg(Cycles::ZERO, 7, 81_100).unwrap_err();
        assert!(matches!(
            err,
            ArchError::LoadFault(LoadFault {
                kind: FaultKind::PermanentContainer,
                ..
            })
        ));
        assert_eq!(m.capacity(), Resources::new(1, 1));
        assert_eq!(m.free_resources(), Resources::new(1, 1));
        assert_eq!(m.failed_resources(), Resources::new(0, 1));
    }

    #[test]
    fn zero_rate_model_changes_nothing() {
        let mut plain = machine(2, 2);
        let mut armed = machine(2, 2);
        armed.fault_model = FaultModel::new(0.0, 42);
        let a = plain.load_fg(Cycles::ZERO, 1, 81_100).unwrap();
        let b = armed.load_fg(Cycles::ZERO, 1, 81_100).unwrap();
        assert_eq!(a, b);
        assert_eq!(armed.fault_model().draws(), 0);
    }

    #[test]
    fn resize_capacity_moves_containers_and_updates_budget() {
        let mut m = machine(2, 3);
        assert!(m.resize_capacity(Resources::new(1, 1)).is_empty());
        assert_eq!(m.capacity(), Resources::new(1, 1));
        assert_eq!(m.budget(), Resources::new(1, 1));
        m.resize_capacity(Resources::new(3, 4));
        assert_eq!(m.capacity(), Resources::new(3, 4));
        assert_eq!(m.free_resources(), Resources::new(3, 4));
    }

    #[test]
    fn resize_capacity_recomputes_physical_edpes() {
        // 3 contexts per EDPE: the budget counts ceil(slots / 3) EDPEs.
        let mut m = Machine::new(ArchParams::default(), Resources::new(2, 1)).expect("valid");
        m.resize_capacity(Resources::new(4, 1));
        assert_eq!(m.capacity(), Resources::new(4, 1));
        assert_eq!(m.budget(), Resources::new(2, 1));
        m.resize_capacity(Resources::new(3, 1));
        assert_eq!(m.budget(), Resources::new(1, 1));
    }

    #[test]
    fn cg_slot_count_beyond_u16_is_rejected() {
        // 21 846 EDPEs × 3 contexts = 65 538 slots.
        let err = Machine::new(ArchParams::default(), Resources::new(21_846, 0)).unwrap_err();
        assert!(
            matches!(&err, ArchError::InvalidParams(msg) if msg.starts_with("cg:")),
            "{err}"
        );
        assert!(Machine::new(ArchParams::default(), Resources::new(21_845, 0)).is_ok());
    }

    #[test]
    fn resize_capacity_evicts_only_when_it_must() {
        let mut m = machine(2, 2);
        m.load_cg(Cycles::ZERO, 1, 32).unwrap();
        m.load_fg(Cycles::ZERO, 2, 10_000).unwrap();
        // One free slot per fabric: shrinking to (1, 1) removes the empties.
        assert!(m.resize_capacity(Resources::new(1, 1)).is_empty());
        // Shrinking to nothing evicts the residents.
        assert_eq!(m.resize_capacity(Resources::NONE), vec![1, 2]);
        assert_eq!(m.capacity(), Resources::NONE);
    }

    #[test]
    fn resize_capacity_keeps_fault_damage_pinned() {
        let mut m = machine(1, 2);
        m.fault_model = FaultModel::with_rates(0.0, 0.0, 1.0, 3);
        let _ = m.load_fg(Cycles::ZERO, 7, 81_100).unwrap_err();
        m.fault_model = FaultModel::none();
        assert_eq!(m.capacity(), Resources::new(1, 1));
        // The arbiter hands this partition 2 working PRCs again: capacity
        // reaches the target but the failed container stays on the books.
        m.resize_capacity(Resources::new(1, 2));
        assert_eq!(m.capacity(), Resources::new(1, 2));
        assert_eq!(m.failed_resources(), Resources::new(0, 1));
    }

    /// A monoCG-Extension goes through the CG load path like any other
    /// context program: it is resident from its ticket's `ready_at` only,
    /// not from the instant it is installed (DESIGN.md §4.10).
    #[test]
    fn mono_cg_is_resident_from_ready_at_only() {
        let mut m = machine(1, 0);
        let now = Cycles::new(1_000);
        let t = m.load_cg(now, 5, 16).unwrap();
        assert!(t.ready_at > now);
        assert!(!m.is_resident(5, now));
        assert!(!m.is_resident(5, t.ready_at - Cycles::new(1)));
        assert!(m.is_resident(5, t.ready_at));
    }

    #[test]
    fn residency_follows_tickets() {
        let mut m = machine(1, 1);
        let t = m.load_fg(Cycles::ZERO, 9, 81_100).unwrap();
        assert!(!m.is_resident(9, t.ready_at - Cycles::new(1)));
        assert!(m.is_resident(9, t.ready_at));
        m.settle(t.ready_at);
        assert!(m.is_resident(9, t.ready_at));
    }
}
