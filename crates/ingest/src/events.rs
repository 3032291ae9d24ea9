//! Optional front-end input: a replayed JSONL event spine.
//!
//! `mrts-cli simulate --events-out FILE` writes the run's deterministic
//! event log (`{"tenant":…,"event":{"ExecBatch":{…}}}` per line). This
//! module profiles such a spine into per-kernel observed execution totals,
//! which `mrts-cli ingest --check --replay FILE` compares against the
//! manifest's modeled rates — a cheap calibration check that a manifest's
//! frequency model matches what a real run actually did.

use std::collections::BTreeMap;

use serde::Value;

use crate::IngestError;

/// Observed per-kernel activity of one event spine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventProfile {
    /// Total executions per kernel index (`ExecBatch.count` sums).
    pub executions: BTreeMap<u64, u64>,
    /// Functional-block activations seen (`BlockStart` events).
    pub block_starts: u64,
    /// JSONL lines read.
    pub lines: usize,
}

impl EventProfile {
    /// Total executions across all kernels, saturating at `u64::MAX`
    /// (never reached by a profile from [`profile_jsonl`], which rejects a
    /// spine whose total overflows).
    #[must_use]
    pub fn total_executions(&self) -> u64 {
        self.executions
            .values()
            .fold(0, |t, &n| t.saturating_add(n))
    }

    /// The observed execution share of kernel `k`, `0.0..=1.0`.
    #[must_use]
    pub fn share(&self, k: u64) -> f64 {
        let total = self.total_executions();
        if total == 0 {
            return 0.0;
        }
        *self.executions.get(&k).unwrap_or(&0) as f64 / total as f64
    }
}

fn kernel_index(v: &Value) -> Option<u64> {
    // KernelId serialises as a bare integer; be liberal and accept a
    // one-element sequence too (newtype encodings).
    v.as_u64()
        .or_else(|| v.as_seq().and_then(|s| s.first()).and_then(|f| f.as_u64()))
}

/// Profiles a JSONL event spine (the `--events-out` format).
///
/// # Errors
///
/// [`IngestError::Syntax`] on a malformed line, or on an `ExecBatch` whose
/// count overflows the spine's execution total (with its line number).
pub fn profile_jsonl(text: &str) -> Result<EventProfile, IngestError> {
    let mut profile = EventProfile::default();
    let mut total: u64 = 0;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v: Value = serde_json::from_str(line)
            .map_err(|e| IngestError::Syntax(format!("events line {}: {e}", i + 1)))?;
        profile.lines += 1;
        let event = v.get_field("event").ok_or_else(|| {
            IngestError::Syntax(format!("events line {}: no 'event' field", i + 1))
        })?;
        if let Some(batch) = event.get_field("ExecBatch") {
            let kernel = batch
                .get_field("kernel")
                .and_then(kernel_index)
                .ok_or_else(|| {
                    IngestError::Syntax(format!("events line {}: ExecBatch without kernel", i + 1))
                })?;
            let count = batch
                .get_field("count")
                .and_then(Value::as_u64)
                .unwrap_or(0);
            total = total.checked_add(count).ok_or_else(|| {
                IngestError::Syntax(format!("events line {}: execution count overflows", i + 1))
            })?;
            // A kernel's sum never exceeds `total`, so it cannot overflow.
            *profile.executions.entry(kernel).or_insert(0) += count;
        } else if event.get_field("BlockStart").is_some() {
            profile.block_starts += 1;
        }
    }
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrts_arch::Cycles;
    use mrts_ise::{BlockId, KernelId};
    use mrts_sim::{events_to_jsonl, ExecClass, SimEvent};

    fn exec_batch(at: u64, kernel: u16, count: u64) -> (u32, SimEvent) {
        (
            0,
            SimEvent::ExecBatch {
                at: Cycles::new(at),
                kernel: KernelId(kernel),
                class: ExecClass::RiscMode,
                count,
                latency: Cycles::new(7),
            },
        )
    }

    #[test]
    fn profiles_exec_batches_and_block_starts() {
        let spine = events_to_jsonl(&[
            (
                0,
                SimEvent::BlockStart {
                    at: Cycles::ZERO,
                    block: BlockId(0),
                    frame: 0,
                },
            ),
            exec_batch(10, 1, 5),
            exec_batch(20, 1, 3),
            exec_batch(30, 2, 2),
        ])
        .expect("encode spine");
        let p = profile_jsonl(&spine).expect("profiles");
        assert_eq!(p.lines, 4);
        assert_eq!(p.block_starts, 1);
        assert_eq!(p.executions.get(&1), Some(&8));
        assert_eq!(p.total_executions(), 10);
        assert!((p.share(1) - 0.8).abs() < 1e-12);
        assert!(profile_jsonl("not json\n").is_err());
    }

    /// Spines recorded while the engine still had a speculative prefetcher
    /// hold its three event kinds. They profile as if those lines were
    /// absent, apart from the count of lines read.
    #[test]
    fn spines_with_retired_prefetch_events_still_profile() {
        let current = concat!(
            r#"{"tenant":0,"event":{"BlockStart":{"at":0,"block":0,"frame":0}}}"#,
            "\n",
            r#"{"tenant":0,"event":{"ExecBatch":{"at":11875,"kernel":0,"class":"IntermediateIse","count":410,"latency":932}}}"#,
            "\n",
            r#"{"tenant":0,"event":{"ExecBatch":{"at":13875,"kernel":1,"class":"RiscMode","count":610,"latency":424}}}"#,
            "\n",
        );
        let retired = concat!(
            r#"{"tenant":0,"event":{"PrefetchIssued":{"at":7794248,"unit":77,"fabric":"FineGrained","ready_at":8351062}}}"#,
            "\n",
            r#"{"tenant":0,"event":{"PrefetchHit":{"at":9672137,"unit":77}}}"#,
            "\n",
            r#"{"tenant":0,"event":{"PrefetchWasted":{"at":9672137,"unit":61}}}"#,
            "\n",
        );
        let without = profile_jsonl(current).expect("profiles");
        let with = profile_jsonl(&format!("{retired}{current}")).expect("profiles");
        assert_eq!(with.lines, without.lines + 3);
        assert_eq!(
            EventProfile {
                lines: without.lines,
                ..with
            },
            without
        );
        assert_eq!(
            (without.block_starts, without.total_executions()),
            (1, 1020)
        );
    }

    #[test]
    fn overflowing_execution_counts_are_syntax_errors() {
        // Per-kernel total (kernel 1 twice), then spine total (kernels 1, 2).
        for second in [1, 2] {
            let spine = events_to_jsonl(&[exec_batch(0, 1, u64::MAX), exec_batch(10, second, 2)])
                .expect("encode spine");
            match profile_jsonl(&spine) {
                Err(IngestError::Syntax(msg)) => {
                    assert!(msg.starts_with("events line 2:"), "{msg}");
                }
                other => panic!("kernel {second}: expected a syntax error, got {other:?}"),
            }
        }
        let built = EventProfile {
            executions: BTreeMap::from([(1, u64::MAX), (2, 2)]),
            ..EventProfile::default()
        };
        assert_eq!(built.total_executions(), u64::MAX);
    }
}
