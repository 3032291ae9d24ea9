//! Order-preserving, deterministic parallel fan-out for figure sweeps.
//!
//! Every figure of the paper's evaluation is a sweep of *independent*
//! deterministic cells — Fig. 8 alone runs 20 fabric combinations × 5
//! policies, Fig. 9 runs the exhaustive online-optimal on 28 combinations —
//! and each cell builds its own [`mrts_arch::Machine`] and policy while the
//! [`crate::Testbed`]'s catalogue and trace are shared read-only. This
//! module maps a slice of such jobs across `min(available_parallelism,
//! jobs)` scoped worker threads ([`std::thread::scope`]; no external
//! dependencies) and returns the results **in input order**, so a figure's
//! text output is byte-identical whatever the worker count — the
//! determinism contract DESIGN.md §7 spells out.
//!
//! The worker count is the figure runner's `--threads N` (every available
//! core without it, see [`crate::figures::Opts`]); `--threads 1` is the
//! escape hatch that forces the serial path (no worker threads are spawned
//! at all).
//!
//! ```
//! use mrts_bench::par;
//!
//! let jobs: Vec<u64> = (0..32).collect();
//! let squares = par::map_ordered(4, &jobs, |_, &j| j * j);
//! assert_eq!(squares[31], 31 * 31);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Maps `f` over `jobs` on up to `threads` scoped workers and returns the
/// results **in input order**. `f` receives `(index, &job)` so a cell can
/// know its position without threading it through the job type.
///
/// With `threads <= 1` (or fewer than two jobs) no worker threads are
/// spawned and the jobs run serially on the caller's thread — the
/// `--threads 1` escape hatch is genuinely the old serial code path.
/// Work is distributed dynamically (an atomic cursor), so stragglers —
/// e.g. Fig. 9's online-optimal on large fabrics — don't idle the pool.
///
/// # Panics
///
/// Propagates a panic from any job (the scope joins all workers first).
pub fn map_ordered<J, R, F>(threads: usize, jobs: &[J], f: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(usize, &J) -> R + Sync,
{
    if threads <= 1 || jobs.len() <= 1 {
        return jobs.iter().enumerate().map(|(i, j)| f(i, j)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    thread::scope(|s| {
        for _ in 0..threads.min(jobs.len()) {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let r = f(i, job);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every slot filled by the worker pool")
        })
        .collect()
}

// The whole parallel harness rests on the testbed being shareable
// read-only; keep that a compile-time fact.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<crate::Testbed>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let jobs: Vec<usize> = (0..64).collect();
        for threads in [1, 2, 4, 8] {
            let out = map_ordered(threads, &jobs, |i, &j| {
                // Stagger completion so late slots finish first if ordering
                // were by completion time.
                if j % 7 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                assert_eq!(i, j);
                j * 3
            });
            assert_eq!(out, jobs.iter().map(|j| j * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let jobs: Vec<u64> = (0..40).collect();
        let f = |_: usize, &j: &u64| format!("cell {j:>4} -> {:.6}", (j as f64).sqrt());
        let serial = map_ordered(1, &jobs, f);
        let parallel = map_ordered(6, &jobs, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn zero_and_single_job_edge_cases() {
        let none: Vec<u32> = Vec::new();
        assert!(map_ordered(4, &none, |_, &j| j).is_empty());
        assert_eq!(map_ordered(4, &[9u32], |_, &j| j + 1), vec![10]);
    }
}
