//! The reconfiguration controller.
//!
//! The ISE selector forwards its selected set to the reconfiguration
//! controller, which *"manages the reconfiguration process and the
//! configuration state of CG- and FG-fabrics"* (Section 4.1). Two physical
//! transport channels exist:
//!
//! * the **FG configuration port** — partial bitstreams stream in serially
//!   (one at a time) at the configured bandwidth; a data path therefore
//!   completes at `max(now, port_free) + load_time`, and queued requests
//!   serialize, and
//! * the **CG context port** — context programs stream into EDPE context
//!   memories; also serialized but three to four orders of magnitude faster.
//!
//! The controller computes completion timestamps analytically so that both
//! the simulator (to schedule events) and the profit function (to predict
//! `recT(ISE_i)`, Eq. 3) can use the same model.

use crate::clock::Cycles;
use crate::fabric::LoadedId;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// Which fabric a load request targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FabricKind {
    /// Fine-grained (FPGA PRC, bitstream through the configuration port).
    FineGrained,
    /// Coarse-grained (EDPE context memory).
    CoarseGrained,
}

impl fmt::Display for FabricKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricKind::FineGrained => write!(f, "FG"),
            FabricKind::CoarseGrained => write!(f, "CG"),
        }
    }
}

/// A single data-path load request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoadRequest {
    /// The artefact being loaded (data-path instance or monoCG program).
    pub id: LoadedId,
    /// Which port it goes through.
    pub fabric: FabricKind,
    /// Transfer duration once the port is granted (pure load time, no
    /// queueing).
    pub duration: Cycles,
}

/// Receipt for an accepted load: when the port starts serving it and when
/// the artefact becomes usable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoadTicket {
    /// The loaded artefact.
    pub id: LoadedId,
    /// Which port served it.
    pub fabric: FabricKind,
    /// When the transfer begins (port granted).
    pub starts_at: Cycles,
    /// When the artefact is fully loaded and usable.
    pub ready_at: Cycles,
}

#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
struct Port {
    busy_until: Cycles,
    /// Completed + in-flight tickets, for bookkeeping.
    inflight: VecDeque<LoadTicket>,
}

impl Port {
    fn admit(&mut self, now: Cycles, req: LoadRequest) -> LoadTicket {
        let starts_at = now.max(self.busy_until);
        let ready_at = starts_at + req.duration;
        self.busy_until = ready_at;
        let ticket = LoadTicket {
            id: req.id,
            fabric: req.fabric,
            starts_at,
            ready_at,
        };
        self.inflight.push_back(ticket);
        ticket
    }

    fn prune(&mut self, now: Cycles) {
        while let Some(front) = self.inflight.front() {
            if front.ready_at <= now {
                self.inflight.pop_front();
            } else {
                break;
            }
        }
    }
}

/// Analytic model of the two configuration ports.
///
/// # Example
///
/// ```
/// use mrts_arch::{Cycles, FabricKind, LoadRequest, ReconfigurationController};
///
/// let mut rc = ReconfigurationController::new();
/// let now = Cycles::ZERO;
/// let a = rc.request(now, LoadRequest { id: 1, fabric: FabricKind::FineGrained,
///                                       duration: Cycles::new(480_000) });
/// let b = rc.request(now, LoadRequest { id: 2, fabric: FabricKind::FineGrained,
///                                       duration: Cycles::new(480_000) });
/// // The single FG port serializes the two bitstreams.
/// assert_eq!(a.ready_at, Cycles::new(480_000));
/// assert_eq!(b.starts_at, a.ready_at);
/// assert_eq!(b.ready_at, Cycles::new(960_000));
///
/// // The CG port is independent: a CG context load is not delayed.
/// let c = rc.request(now, LoadRequest { id: 3, fabric: FabricKind::CoarseGrained,
///                                       duration: Cycles::new(60) });
/// assert_eq!(c.ready_at, Cycles::new(60));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReconfigurationController {
    fg: Port,
    cg: Port,
}

impl ReconfigurationController {
    /// Creates a controller with both ports idle at time zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Admits a load request at time `now` and returns its ticket.
    pub fn request(&mut self, now: Cycles, req: LoadRequest) -> LoadTicket {
        self.port_mut(req.fabric).admit(now, req)
    }

    /// Makes `self` an exact copy of `other`'s port schedules, reusing the
    /// existing ticket-queue allocations. Equivalent to `*self =
    /// other.clone()` but allocation-free once the queues have grown — the
    /// ISE selector rebuilds its shadow controller this way on every block.
    pub fn clone_schedule_from(&mut self, other: &Self) {
        self.fg.busy_until = other.fg.busy_until;
        self.fg.inflight.clone_from(&other.fg.inflight);
        self.cg.busy_until = other.cg.busy_until;
        self.cg.inflight.clone_from(&other.cg.inflight);
    }

    /// Admits a load whose payload is known to be discarded (an injected
    /// CRC / permanent fault): the port is occupied for the full transfer —
    /// the streaming time is genuinely wasted — but no in-flight ticket is
    /// tracked, since the artefact never becomes resident.
    pub fn request_wasted(&mut self, now: Cycles, req: LoadRequest) -> LoadTicket {
        let port = self.port_mut(req.fabric);
        let ticket = port.admit(now, req);
        port.inflight.pop_back();
        ticket
    }

    /// When the given port becomes free if no further request arrives.
    #[must_use]
    pub fn port_free_at(&self, fabric: FabricKind) -> Cycles {
        self.port(fabric).busy_until
    }

    /// Drops bookkeeping for transfers completed by `now`.
    pub fn settle(&mut self, now: Cycles) {
        self.fg.prune(now);
        self.cg.prune(now);
    }

    /// Completion time of an in-flight (queued or streaming) transfer of
    /// artefact `id`, if any.
    #[must_use]
    pub fn pending_ready_time(&self, id: LoadedId) -> Option<Cycles> {
        self.fg
            .inflight
            .iter()
            .chain(self.cg.inflight.iter())
            .find(|t| t.id == id)
            .map(|t| t.ready_at)
    }

    /// Every transfer still tracked (queued or streaming), FG port first —
    /// the iteration order [`Self::pending_ready_time`] resolves duplicate
    /// ids in. Read-only view for memoized ready-time prediction: the
    /// selector's profit memo snapshots it once per selection and then
    /// reads only the tickets each commit appends, instead of scanning the
    /// queues per candidate.
    pub fn inflight_tickets(&self) -> impl Iterator<Item = &LoadTicket> {
        self.fg.inflight.iter().chain(self.cg.inflight.iter())
    }

    /// Feeds the completion timestamp of every transfer still tracked on
    /// either port (the residency-change *epoch boundaries* the simulator
    /// fast-forwards between) to `f`, FG port first. The simulator's
    /// `Timeline` boundary queue sorts and deduplicates on insertion, so
    /// the controller no longer materialises (or orders) a `Vec` per block —
    /// it *feeds boundary events* instead of leaking its queue state.
    pub fn feed_pending_ready_times(&self, mut f: impl FnMut(Cycles)) {
        for t in self.fg.inflight.iter().chain(self.cg.inflight.iter()) {
            f(t.ready_at);
        }
    }

    fn port(&self, fabric: FabricKind) -> &Port {
        match fabric {
            FabricKind::FineGrained => &self.fg,
            FabricKind::CoarseGrained => &self.cg,
        }
    }

    fn port_mut(&mut self, fabric: FabricKind) -> &mut Port {
        match fabric {
            FabricKind::FineGrained => &mut self.fg,
            FabricKind::CoarseGrained => &mut self.cg,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fg_req(id: LoadedId, dur: u64) -> LoadRequest {
        LoadRequest {
            id,
            fabric: FabricKind::FineGrained,
            duration: Cycles::new(dur),
        }
    }

    #[test]
    fn ports_are_independent() {
        let mut rc = ReconfigurationController::new();
        rc.request(Cycles::ZERO, fg_req(1, 1_000));
        let cg = rc.request(
            Cycles::ZERO,
            LoadRequest {
                id: 2,
                fabric: FabricKind::CoarseGrained,
                duration: Cycles::new(10),
            },
        );
        assert_eq!(cg.ready_at, Cycles::new(10));
    }

    #[test]
    fn requests_serialize_on_one_port() {
        let mut rc = ReconfigurationController::new();
        let a = rc.request(Cycles::ZERO, fg_req(1, 100));
        let b = rc.request(Cycles::ZERO, fg_req(2, 50));
        let c = rc.request(Cycles::new(10), fg_req(3, 25));
        assert_eq!(a.ready_at.get(), 100);
        assert_eq!(b.starts_at.get(), 100);
        assert_eq!(b.ready_at.get(), 150);
        assert_eq!(c.starts_at.get(), 150);
        assert_eq!(c.ready_at.get(), 175);
    }

    #[test]
    fn late_request_on_idle_port_starts_immediately() {
        let mut rc = ReconfigurationController::new();
        rc.request(Cycles::ZERO, fg_req(1, 100));
        let b = rc.request(Cycles::new(500), fg_req(2, 100));
        assert_eq!(b.starts_at.get(), 500);
        assert_eq!(b.ready_at.get(), 600);
    }

    #[test]
    fn settle_prunes_completed() {
        let mut rc = ReconfigurationController::new();
        rc.request(Cycles::ZERO, fg_req(1, 10));
        rc.request(Cycles::ZERO, fg_req(2, 10));
        rc.settle(Cycles::new(10));
        assert_eq!(rc.inflight_tickets().count(), 1);
        rc.settle(Cycles::new(20));
        assert_eq!(rc.inflight_tickets().count(), 0);
    }

    proptest! {
        /// Tickets on one port never overlap and are served FIFO.
        #[test]
        fn port_schedule_is_non_overlapping(durations in proptest::collection::vec(1u64..10_000, 1..20)) {
            let mut rc = ReconfigurationController::new();
            let tickets: Vec<LoadTicket> = durations
                .iter()
                .enumerate()
                .map(|(i, &d)| rc.request(Cycles::ZERO, fg_req(i as u64, d)))
                .collect();
            for w in tickets.windows(2) {
                prop_assert!(w[1].starts_at >= w[0].ready_at);
            }
            for t in &tickets {
                prop_assert_eq!(t.ready_at - t.starts_at,
                                Cycles::new(durations[t.id as usize]));
            }
        }
    }
}
