//! MPU ablation on non-stationary workloads.
//!
//! The paper motivates the Monitoring & Prediction Unit with run-time
//! variation of the kernel execution counts: the compile-time forecast is
//! a whole-run average, so whenever the actual counts swing around it the
//! selection decisions are made with wrong inputs. Forecast errors only
//! matter where selections are actually re-made, i.e. under fabric
//! contention — so this bench drives the full H.264 encoder (three
//! functional blocks fighting over a small machine) with step/burst/ramp
//! count series whose *mean* equals the compile-time forecast, and
//! compares mRTS with and without the MPU across learning rates.

use super::{each, Opts};
use crate::Testbed;
use mrts_arch::Resources;
use mrts_core::{Mrts, MrtsConfig};
use mrts_workload::synthetic::{synthetic_trace, Pattern};
use mrts_workload::WorkloadModel;
use std::io::{self, Write};

/// Base per-kernel activity levels (roughly the video-driven means).
const BASE: [u64; 11] = [
    12_000, 1_500, 2_500, 3_500, 3_500, 3_500, 3_500, 1_600, 1_800, 1_800, 3_000,
];

/// A count series: its name and the pattern it gives a kernel of a base
/// activity level.
type Series = (&'static str, fn(u64) -> Pattern);

/// The count series.
const SCENARIOS: [Series; 4] = [
    ("constant", Pattern::Constant),
    // Every kernel's load jumps 8x mid-run (a scene change).
    ("step", |b| Pattern::Step {
        low: b / 4,
        high: b * 2,
        at: 8,
    }),
    // Long bursts with persistence (period 8: 1 high, 7 low).
    ("burst", |b| Pattern::Burst {
        low: b / 4,
        high: b * 4,
        period: 8,
    }),
    ("ramp", |b| Pattern::Ramp {
        from: b / 8,
        to: b * 2,
    }),
];

pub(super) fn body(out: &mut dyn Write, opts: &Opts) -> io::Result<bool> {
    let mut tb = Testbed::new("h264", opts.seed).map_err(io::Error::other)?;
    let kernels = tb.model.application().kernel_count();

    writeln!(
        out,
        "series     |       no MPU   alpha=0.25    alpha=0.5    alpha=1.0 | best gain"
    )?;
    writeln!(out, "{}", "-".repeat(82))?;
    for (name, pattern) in SCENARIOS {
        let patterns: Vec<Pattern> = BASE.iter().take(kernels).map(|&b| pattern(b)).collect();
        tb.trace = synthetic_trace(&tb.model, &patterns, 16);
        let run = |config: MrtsConfig| -> io::Result<f64> {
            let stats = tb
                .run(Resources::new(1, 2), &mut Mrts::with_config(config))
                .map_err(io::Error::other)?;
            Ok(stats.total_execution_time().as_mcycles())
        };
        let no_mpu = run(MrtsConfig {
            use_mpu: false,
            ..MrtsConfig::default()
        })?;
        let alphas = each([0.25, 0.5, 1.0].map(|mpu_alpha| {
            run(MrtsConfig {
                mpu_alpha,
                ..MrtsConfig::default()
            })
        }))?;
        let best = alphas.iter().copied().fold(f64::INFINITY, f64::min);
        let ([a1, a2, a3], gain) = (alphas, (no_mpu - best) / no_mpu * 100.0);
        writeln!(
            out,
            "{name:<10} | {no_mpu:>11.3}M {a1:>11.3}M {a2:>11.3}M {a3:>11.3}M | {gain:>8.2}%"
        )?;
    }
    writeln!(out, "{}", "-".repeat(82))?;
    writeln!(
        out,
        "reading: on the constant series the static forecast is exact and the MPU\n\
         changes nothing. On the varying series the MPU tracks the counts (see the\n\
         mpu unit tests) but the *end-to-end* gain is bounded and can be slightly\n\
         negative: every selection change it triggers costs reconfiguration churn,\n\
         which offsets the better-informed decisions. mRTS's robustness therefore\n\
         rests mostly on the per-trigger reselection itself, with the MPU as a\n\
         small corrective term — see EXPERIMENTS.md for discussion."
    )?;
    Ok(true)
}
