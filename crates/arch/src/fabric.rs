//! The container pool both fabrics are made of.
//!
//! In the paper's machine (Fig. 3, Section 5.1) a Partially
//! Reconfigurable Container of the FG fabric and a context slot of a
//! CG-EDPE are the same thing to the run-time system: a container that
//! holds one loaded artefact, which the selector sees only as the counts
//! `N_PRC` and `N_CG`. A [`Fabric`] is one such pool; the
//! [`Machine`](crate::Machine) keeps one per fabric kind and is the only
//! way to change them.
//!
//! A container is empty, loading (usable from its ticket's `ready_at`),
//! loaded, or permanently failed. [`Machine::settle`](crate::Machine::settle)
//! turns every due load into a loaded container, which is resident at
//! *any* time from then on (DESIGN.md §4.10).

use crate::clock::Cycles;
use serde::{Deserialize, Serialize};

/// Opaque identifier of a loaded artefact (a data path instance or a
/// monoCG-Extension). The architecture layer does not interpret it; higher
/// layers use it to map fabric contents back to ISE data paths.
pub type LoadedId = u64;

/// The occupancy of one container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum Slot {
    /// Free.
    Empty,
    /// The artefact is streaming in; usable from `ready_at` onwards.
    Loading { id: LoadedId, ready_at: Cycles },
    /// The artefact is resident and usable.
    Loaded { id: LoadedId },
    /// The container suffered a permanent hardware fault and can never be
    /// loaded again. It counts toward neither free nor usable capacity.
    Failed,
}

impl Slot {
    /// The artefact held, whether resident or still streaming.
    fn held(self) -> Option<LoadedId> {
        match self {
            Slot::Loading { id, .. } | Slot::Loaded { id } => Some(id),
            Slot::Empty | Slot::Failed => None,
        }
    }

    /// The artefact usable at `now`.
    fn resident(self, now: Cycles) -> Option<LoadedId> {
        match self {
            Slot::Loaded { id } => Some(id),
            Slot::Loading { id, ready_at } if now >= ready_at => Some(id),
            _ => None,
        }
    }
}

/// A pool of single-artefact containers: the PRCs of the FG fabric, or
/// the context slots of the CG-EDPEs (`cg_contexts_per_edpe` per physical
/// EDPE).
///
/// Loads take the first free container in slot order. Read access is
/// public; every change goes through the [`Machine`](crate::Machine).
///
/// # Example
///
/// ```
/// use mrts_arch::{ArchParams, Cycles, Machine, Resources};
///
/// # fn main() -> Result<(), mrts_arch::ArchError> {
/// let mut m = Machine::new(ArchParams::default(), Resources::new(0, 3))?;
/// let ticket = m.load_fg(Cycles::ZERO, 7, 81_100)?;
/// assert!(!m.fg().is_resident(7, Cycles::ZERO));
/// assert_eq!(m.fg().resident_ids(ticket.ready_at), vec![7]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fabric {
    slots: Vec<Slot>,
}

impl Fabric {
    /// A pool of `n` empty containers.
    pub(crate) fn new(n: u16) -> Self {
        Fabric {
            slots: vec![Slot::Empty; usize::from(n)],
        }
    }

    /// IDs of all artefacts resident (usable) at `now`, ascending.
    #[must_use]
    pub fn resident_ids(&self, now: Cycles) -> Vec<LoadedId> {
        let mut v = Vec::new();
        self.for_each_resident_id(now, |id| v.push(id));
        v.sort_unstable();
        v
    }

    /// Feeds every id resident at `now` to `f`, in slot order (unsorted).
    /// The allocation-free sibling of [`Fabric::resident_ids`] for callers
    /// that stage into a reusable buffer and sort there.
    pub fn for_each_resident_id(&self, now: Cycles, mut f: impl FnMut(LoadedId)) {
        for id in self.slots.iter().filter_map(|s| s.resident(now)) {
            f(id);
        }
    }

    /// Whether artefact `id` is resident and usable at `now`.
    #[must_use]
    pub fn is_resident(&self, id: LoadedId, now: Cycles) -> bool {
        self.slots.iter().any(|s| s.resident(now) == Some(id))
    }

    /// Number of free containers (not loaded, not loading, not failed).
    #[must_use]
    pub fn free_count(&self) -> u16 {
        self.count(|s| s == Slot::Empty)
    }

    /// Number of permanently failed containers.
    pub(crate) fn failed_count(&self) -> u16 {
        self.count(|s| s == Slot::Failed)
    }

    /// Number of working (non-failed) containers.
    pub(crate) fn working_count(&self) -> u16 {
        self.count(|s| s != Slot::Failed)
    }

    fn count(&self, pred: impl Fn(Slot) -> bool) -> u16 {
        self.slots.iter().filter(|s| pred(**s)).count() as u16
    }

    /// Places `id` in the first free container: usable from `ready_at`, or
    /// resident at once when `ready_at` is `None`. Returns `false` if every
    /// container is busy.
    pub(crate) fn place(&mut self, id: LoadedId, ready_at: Option<Cycles>) -> bool {
        let Some(slot) = self.first_free() else {
            return false;
        };
        *slot = match ready_at {
            Some(ready_at) => Slot::Loading { id, ready_at },
            None => Slot::Loaded { id },
        };
        true
    }

    /// Marks the first free container as permanently failed (the target of
    /// a fatal load attempt). Returns `false` if none is free.
    pub(crate) fn fail_one_empty(&mut self) -> bool {
        let Some(slot) = self.first_free() else {
            return false;
        };
        *slot = Slot::Failed;
        true
    }

    fn first_free(&mut self) -> Option<&mut Slot> {
        self.slots.iter_mut().find(|s| **s == Slot::Empty)
    }

    /// Converts every load whose `ready_at` has passed into a loaded
    /// container.
    pub(crate) fn settle(&mut self, now: Cycles) {
        for slot in &mut self.slots {
            if let Slot::Loading { id, ready_at } = *slot {
                if now >= ready_at {
                    *slot = Slot::Loaded { id };
                }
            }
        }
    }

    /// Frees the container holding (or loading) `id`. Returns whether one
    /// did.
    pub(crate) fn evict(&mut self, id: LoadedId) -> bool {
        let Some(slot) = self.slots.iter_mut().find(|s| s.held() == Some(id)) else {
            return false;
        };
        *slot = Slot::Empty;
        true
    }

    /// Frees every container. Permanently failed ones stay failed —
    /// hardware damage survives block boundaries.
    pub(crate) fn evict_all(&mut self) {
        for slot in &mut self.slots {
            if *slot != Slot::Failed {
                *slot = Slot::Empty;
            }
        }
    }

    /// Sets the number of working containers to `target`. Growing appends
    /// empty containers. Shrinking removes the last free container first
    /// and only then the last occupied one. Failed containers are never
    /// removed: hardware damage stays pinned to the partition that
    /// suffered it. Returns the ids evicted by the shrink, in removal
    /// order.
    pub(crate) fn resize(&mut self, target: u16) -> Vec<LoadedId> {
        let mut evicted = Vec::new();
        let working = self.working_count();
        if working < target {
            let grown = self.slots.len() + usize::from(target - working);
            self.slots.resize(grown, Slot::Empty);
        }
        for _ in target..working {
            let victim = self
                .slots
                .iter()
                .rposition(|s| *s == Slot::Empty)
                .or_else(|| self.slots.iter().rposition(|s| *s != Slot::Failed))
                .expect("working > target >= 0 implies a non-failed container");
            evicted.extend(self.slots.remove(victim).held());
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn place_takes_the_first_free_container() {
        let mut f = Fabric::new(2);
        assert!(f.place(1, Some(Cycles::new(10))));
        assert!(f.place(2, None));
        assert_eq!(f.free_count(), 0);
        assert!(!f.place(3, None));
        assert!(f.evict(1));
        assert!(f.place(3, None));
        assert_eq!(f.slots[0], Slot::Loaded { id: 3 });
    }

    #[test]
    fn loading_is_resident_from_ready_at_and_settle_keeps_it() {
        let mut f = Fabric::new(1);
        f.place(42, Some(Cycles::new(100)));
        assert!(!f.is_resident(42, Cycles::new(99)));
        assert!(f.is_resident(42, Cycles::new(100)));
        f.settle(Cycles::new(100));
        assert_eq!(f.slots[0], Slot::Loaded { id: 42 });
        // Once settled, the artefact is resident at any time.
        assert!(f.is_resident(42, Cycles::ZERO));
    }

    #[test]
    fn evict_frees_the_holder_and_reports_unknown_ids() {
        let mut f = Fabric::new(1);
        f.place(7, Some(Cycles::new(5)));
        assert!(f.evict(7));
        assert_eq!(f.free_count(), 1);
        assert!(!f.evict(7));
    }

    #[test]
    fn resident_ids_sorted() {
        let mut f = Fabric::new(3);
        f.place(9, Some(Cycles::ZERO));
        f.place(3, Some(Cycles::ZERO));
        f.place(5, Some(Cycles::new(2)));
        assert_eq!(f.resident_ids(Cycles::new(1)), vec![3, 9]);
    }

    #[test]
    fn failed_container_is_neither_free_nor_loadable() {
        let mut f = Fabric::new(2);
        assert!(f.fail_one_empty());
        assert_eq!(f.slots[0], Slot::Failed);
        assert_eq!((f.free_count(), f.failed_count()), (1, 1));
        assert!(f.place(1, None));
        assert!(!f.place(2, None));
        assert!(!f.fail_one_empty());
        // evict_all keeps the hardware damage.
        f.evict_all();
        assert_eq!((f.free_count(), f.failed_count()), (1, 1));
        assert!(!f.evict(1));
    }

    #[test]
    fn empty_pool() {
        let f = Fabric::new(0);
        assert!(f.slots.is_empty());
        assert_eq!(f.free_count(), 0);
    }

    #[test]
    fn resize_grows_with_empty_containers() {
        let mut f = Fabric::new(2);
        assert!(f.resize(4).is_empty());
        assert_eq!(f.slots.len(), 4);
        assert_eq!(f.free_count(), 4);
    }

    #[test]
    fn resize_shrinks_the_last_free_then_the_last_occupied() {
        let mut f = Fabric::new(4);
        f.place(10, Some(Cycles::ZERO));
        f.place(20, None);
        // 2 occupied + 2 free; shrinking to 3 removes one free container.
        assert!(f.resize(3).is_empty());
        assert_eq!((f.working_count(), f.free_count()), (3, 1));
        // Shrinking to 1 removes the last free container, then evicts the
        // artefact in the last occupied one.
        assert_eq!(f.resize(1), vec![20]);
        assert_eq!(f.working_count(), 1);
        assert!(f.is_resident(10, Cycles::new(1)));
    }

    #[test]
    fn resize_never_removes_failed_containers() {
        let mut f = Fabric::new(3);
        f.fail_one_empty();
        assert!(f.resize(1).is_empty());
        // One working + the pinned failed container.
        assert_eq!(
            (f.working_count(), f.failed_count(), f.slots.len()),
            (1, 1, 2)
        );
        // Growing back adds fresh containers; damage persists.
        f.resize(3);
        assert_eq!((f.working_count(), f.failed_count()), (3, 1));
    }
}
