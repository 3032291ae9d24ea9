//! The fabric arbiter: space-partitioning of one multi-grained fabric
//! among tenants.
//!
//! The fabric is partitioned in *slot* units — CG context slots and PRCs,
//! the same denomination as [`Machine::capacity`](mrts_arch::Machine) —
//! because slots are the currency of the paper's selection problem: the
//! per-tenant run-time systems plan against their slice exactly as a
//! single-tenant mRTS plans against a whole (smaller) machine.
//!
//! Two disciplines are provided:
//!
//! * [`ArbiterPolicy::Static`] — an even split, fixed for the whole run.
//!   Freed resources of finished tenants idle. This is the baseline the
//!   dynamic arbiter must beat.
//! * [`ArbiterPolicy::Dynamic`] — starts from the even split and, whenever
//!   a tenant finishes, redistributes its freed slice to the still-active
//!   tenants in proportion to their *remaining RISC demand*. Grants only
//!   ever grow, so at every instant each tenant owns at least its static
//!   share — the dynamic arbiter can never lose to the static one — and
//!   with a single tenant the two are identical.

use mrts_arch::Resources;
use std::fmt;
use std::str::FromStr;

/// The partitioning discipline of a [`FabricArbiter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArbiterPolicy {
    /// Even split, fixed for the whole run.
    Static,
    /// Even split that redistributes freed slices by remaining demand.
    #[default]
    Dynamic,
}

impl ArbiterPolicy {
    /// Short label used in policy strings (`static`, `dynamic`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ArbiterPolicy::Static => "static",
            ArbiterPolicy::Dynamic => "dynamic",
        }
    }
}

impl FromStr for ArbiterPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "static" => Ok(ArbiterPolicy::Static),
            "dynamic" => Ok(ArbiterPolicy::Dynamic),
            other => Err(format!("unknown arbiter '{other}' (static|dynamic)")),
        }
    }
}

impl fmt::Display for ArbiterPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Owns the partition: one resource grant per live tenant, a free store
/// and the fabric retired tenants still hold, together always summing
/// exactly to the fabric pool handed to [`FabricArbiter::empty`]. Grants
/// are *quantities*; the per-tenant machines realise them as disjoint
/// container sets because each tenant's [`Machine`](mrts_arch::Machine)
/// is resized to its grant.
///
/// Tenants are addressed by their position in the runner's live list (see
/// [`Scheduler`](crate::scheduler::Scheduler)): [`FabricArbiter::admit`]
/// appends one and [`FabricArbiter::retire`] removes one.
#[derive(Debug, Clone)]
pub struct FabricArbiter {
    policy: ArbiterPolicy,
    pool: Resources,
    slices: Vec<Resources>,
    /// Unassigned fabric: what [`FabricArbiter::park`] returned to the
    /// arbiter and [`FabricArbiter::admit`] carves new grants from.
    free: Resources,
    /// What retired tenants kept: their permanently failed slots (under
    /// the static discipline, their whole idle slice). It never moves
    /// again, so `pool == Σ slices + free + retired` as sessions come and
    /// go.
    retired: Resources,
}

impl FabricArbiter {
    /// An arbiter over `pool` with no tenants yet: the whole pool sits in
    /// the free store and grants are created incrementally with
    /// [`FabricArbiter::admit`].
    #[must_use]
    pub fn empty(policy: ArbiterPolicy, pool: Resources) -> Self {
        FabricArbiter {
            policy,
            pool,
            slices: Vec::new(),
            free: pool,
            retired: Resources::NONE,
        }
    }

    /// Fabric currently unassigned to any tenant.
    #[must_use]
    pub fn free(&self) -> Resources {
        self.free
    }

    /// Fabric held by retired tenants (see [`FabricArbiter::retire`]).
    #[must_use]
    pub fn retired(&self) -> Resources {
        self.retired
    }

    /// Retires the tenant at position `pos` once it has left for good
    /// (after [`FabricArbiter::park`] or [`FabricArbiter::release`]): what
    /// its grant still holds moves to [`FabricArbiter::retired`], and the
    /// tenants above it move down one position.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is not a tenant position.
    pub fn retire(&mut self, pos: usize) {
        self.retired += self.slices.remove(pos);
    }

    /// Admits a new tenant with grant `slice` carved out of the free store
    /// (clamped to what is actually free) and returns its position.
    pub fn admit(&mut self, slice: Resources) -> usize {
        let granted = slice.min(self.free);
        self.free = self.free.saturating_sub(granted);
        self.slices.push(granted);
        self.slices.len() - 1
    }

    /// Parks tenant `i`'s grant back into the free store, leaving it only
    /// `keep` (its permanently failed containers). Returns what was freed.
    /// Unlike [`FabricArbiter::release`] this works under every policy and
    /// never re-partitions — it is the fleet's departure primitive.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a tenant position.
    pub fn park(&mut self, i: usize, keep: Resources) -> Resources {
        let freed = self.slices[i].saturating_sub(keep);
        self.slices[i] = keep;
        self.free += freed;
        freed
    }

    /// Moves up to `amount` of tenant `from`'s grant back into the free
    /// store (clamped to what it holds) and returns what actually moved —
    /// the churn path's reclaim primitive for taking borrowed headroom
    /// back from an incumbent when a new session needs its base share.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not a tenant position.
    pub fn reclaim(&mut self, from: usize, amount: Resources) -> Resources {
        let moved = amount.min(self.slices[from]);
        self.slices[from] = self.slices[from].saturating_sub(moved);
        self.free += moved;
        moved
    }

    /// The total pool being partitioned.
    #[must_use]
    pub fn pool(&self) -> Resources {
        self.pool
    }

    /// The current grant of tenant `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a tenant position.
    #[must_use]
    pub fn grant(&self, i: usize) -> Resources {
        self.slices[i]
    }

    /// The grants of the live tenants, in position order.
    #[must_use]
    pub fn slices(&self) -> &[Resources] {
        &self.slices
    }

    /// Reports that tenant `finished` has completed its trace. `keep` is
    /// the part of its grant that cannot move (its permanently failed
    /// containers — hardware damage stays where it happened); the rest is
    /// freed. `demands` lists the still-active tenants as
    /// `(tenant position, remaining RISC demand)` pairs.
    ///
    /// Under [`ArbiterPolicy::Dynamic`] the freed slice is redistributed
    /// to the active tenants by largest-remainder apportionment over their
    /// demands; grants only grow. Returns `true` iff any grant changed, so
    /// the runner knows to resize machines and charge the re-partition
    /// cost. A static arbiter never re-partitions.
    pub fn release(&mut self, finished: usize, keep: Resources, demands: &[(usize, u64)]) -> bool {
        if self.policy != ArbiterPolicy::Dynamic {
            return false;
        }
        let freed = self.slices[finished].saturating_sub(keep);
        self.slices[finished] = keep;
        if freed.is_empty() || demands.is_empty() {
            // Nothing to redistribute (or nobody to give it to): the freed
            // slice parks in the free store until a later admit.
            self.free += freed;
            return false;
        }
        let weights: Vec<u64> = demands.iter().map(|&(_, d)| d.max(1)).collect();
        let additions = freed.split_weighted(&weights);
        for (&(i, _), add) in demands.iter().zip(additions) {
            self.slices[i] += add;
        }
        true
    }

    /// Moves up to `amount` of tenant `from`'s grant to tenant `to`
    /// (clamped to what `from` actually holds) and returns what actually
    /// moved. This is the degradation ladder's loan primitive: unlike
    /// [`FabricArbiter::release`] it works under every policy — a ladder
    /// step is an explicit SLO decision, not the arbiter's own discipline —
    /// and it conserves the pool by construction.
    ///
    /// # Panics
    ///
    /// Panics if `from` or `to` is not a tenant position.
    pub fn transfer(&mut self, from: usize, to: usize, amount: Resources) -> Resources {
        let moved = amount.min(self.slices[from]);
        if from != to {
            self.slices[from] = self.slices[from].saturating_sub(moved);
            self.slices[to] += moved;
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` tenants on the runner's up-front partition: an even split of
    /// `pool`.
    fn partitioned(policy: ArbiterPolicy, pool: Resources, n: usize) -> FabricArbiter {
        let mut a = FabricArbiter::empty(policy, pool);
        for slice in pool.split_even(n) {
            a.admit(slice);
        }
        a
    }

    #[test]
    fn partitions_cover_the_pool_exactly() {
        let pool = Resources::new(6, 4);
        for policy in [ArbiterPolicy::Static, ArbiterPolicy::Dynamic] {
            let a = partitioned(policy, pool, 3);
            let total: Resources = a.slices().iter().copied().sum();
            assert_eq!(total, pool, "{policy} loses or invents resources");
            for s in a.slices() {
                assert!(s.fits_in(pool));
            }
        }
    }

    #[test]
    fn dynamic_release_redistributes_by_demand_and_only_grows() {
        let pool = Resources::new(6, 6);
        let mut a = partitioned(ArbiterPolicy::Dynamic, pool, 3);
        let before: Vec<Resources> = a.slices().to_vec();
        assert_eq!(before, vec![Resources::new(2, 2); 3]);
        let changed = a.release(1, Resources::NONE, &[(0, 100), (2, 300)]);
        assert!(changed);
        assert_eq!(a.grant(1), Resources::NONE);
        assert!(before[0].fits_in(a.grant(0)), "grants only grow");
        assert!(before[2].fits_in(a.grant(2)), "grants only grow");
        assert!(
            a.grant(2).cg() >= a.grant(0).cg(),
            "heavier demand gets at least as much"
        );
        let total: Resources = a.slices().iter().copied().sum();
        assert_eq!(total, pool, "release conserves the pool");
    }

    #[test]
    fn dynamic_release_pins_failed_resources() {
        let mut a = partitioned(ArbiterPolicy::Dynamic, Resources::new(4, 4), 2);
        let changed = a.release(0, Resources::new(1, 0), &[(1, 10)]);
        assert!(changed);
        assert_eq!(a.grant(0), Resources::new(1, 0), "dead slots stay put");
        assert_eq!(a.grant(1), Resources::new(3, 4));
    }

    #[test]
    fn static_never_repartitions() {
        let mut a = partitioned(ArbiterPolicy::Static, Resources::new(4, 4), 2);
        let before = a.slices().to_vec();
        assert!(!a.release(0, Resources::NONE, &[(1, 10)]));
        assert_eq!(a.slices(), before.as_slice());
    }

    #[test]
    fn release_with_no_actives_parks_the_freed_slice() {
        let mut a = partitioned(ArbiterPolicy::Dynamic, Resources::new(4, 4), 1);
        assert!(!a.release(0, Resources::NONE, &[]));
        assert_eq!(a.grant(0), Resources::NONE);
        assert_eq!(a.free(), Resources::new(4, 4), "freed slice is parked");
    }

    #[test]
    fn empty_admit_park_reclaim_conserve_the_pool() {
        let pool = Resources::new(6, 4);
        let mut a = FabricArbiter::empty(ArbiterPolicy::Dynamic, pool);
        assert_eq!(a.free(), pool);
        assert!(a.slices().is_empty());
        // Admit two sessions at a third of the pool each.
        let share = Resources::new(2, 1);
        assert_eq!(a.admit(share), 0);
        assert_eq!(a.admit(share), 1);
        assert_eq!(a.grant(0), share);
        assert_eq!(a.free(), Resources::new(2, 2));
        let held: Resources = a.slices().iter().copied().sum();
        assert_eq!(held + a.free(), pool, "admit conserves the pool");
        // Admission clamps to what is actually free.
        assert_eq!(a.admit(Resources::new(9, 9)), 2);
        assert_eq!(a.grant(2), Resources::new(2, 2));
        assert_eq!(a.free(), Resources::NONE);
        // Departure parks the grant (minus pinned failures) back.
        let freed = a.park(2, Resources::new(1, 0));
        assert_eq!(freed, Resources::new(1, 2));
        assert_eq!(a.grant(2), Resources::new(1, 0));
        assert_eq!(a.free(), Resources::new(1, 2));
        // Reclaim pulls part of a live grant back into the store.
        let got = a.reclaim(0, Resources::new(1, 0));
        assert_eq!(got, Resources::new(1, 0));
        assert_eq!(a.grant(0), Resources::new(1, 1));
        let held: Resources = a.slices().iter().copied().sum();
        assert_eq!(held + a.free(), pool, "park/reclaim conserve the pool");
        // Retiring the departed tenant sets its pinned slots aside and
        // shifts nobody below it.
        a.retire(2);
        assert_eq!(a.slices(), [Resources::new(1, 1), share]);
        assert_eq!(a.retired(), Resources::new(1, 0));
        let held: Resources = a.slices().iter().copied().sum();
        assert_eq!(
            held + a.free() + a.retired(),
            pool,
            "retire conserves the pool"
        );
        // A retired position is reused by the tenant above it.
        a.retire(0);
        assert_eq!(a.grant(0), share);
        assert_eq!(a.retired(), Resources::new(2, 1));
    }

    #[test]
    fn transfer_moves_clamped_amount_and_conserves_the_pool() {
        let pool = Resources::new(4, 4);
        let mut a = partitioned(ArbiterPolicy::Static, pool, 2);
        assert_eq!(a.grant(0), Resources::new(2, 2));
        // Ask for more than tenant 0 holds: the move clamps.
        let moved = a.transfer(0, 1, Resources::new(3, 1));
        assert_eq!(moved, Resources::new(2, 1));
        assert_eq!(a.grant(0), Resources::new(0, 1));
        assert_eq!(a.grant(1), Resources::new(4, 3));
        let total: Resources = a.slices().iter().copied().sum();
        assert_eq!(total, pool);
        // Give it back: the original partition is restored.
        let back = a.transfer(1, 0, moved);
        assert_eq!(back, moved);
        assert_eq!(a.grant(0), Resources::new(2, 2));
        // Self-transfer is a no-op.
        assert_eq!(a.transfer(0, 0, Resources::new(1, 1)), Resources::new(1, 1));
        assert_eq!(a.grant(0), Resources::new(2, 2));
    }

    #[test]
    fn labels_parse_round_trip() {
        for p in [ArbiterPolicy::Static, ArbiterPolicy::Dynamic] {
            assert_eq!(p.label().parse::<ArbiterPolicy>().unwrap(), p);
        }
        for retired in ["prop", "greedy"] {
            assert!(retired.parse::<ArbiterPolicy>().is_err(), "{retired}");
        }
    }
}
