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

use mrts_arch::{ArchParams, Machine, Resources};
use mrts_bench::{print_header, Testbed, DEFAULT_SEED};
use mrts_core::{Mrts, MrtsConfig};
use mrts_ise::IseCatalog;
use mrts_sim::Simulator;
use mrts_workload::synthetic::{synthetic_trace, Pattern};
use mrts_workload::{Trace, WorkloadModel};

fn main() {
    print_header(
        "Ablation (MPU)",
        "error back-propagation vs static forecasts on non-stationary series",
        0,
    );
    let tb = Testbed::new("h264", DEFAULT_SEED);
    let kernels = tb.model.application().kernel_count();

    // Base per-kernel activity levels (roughly the video-driven means).
    let base: [u64; 11] = [
        12_000, 1_500, 2_500, 3_500, 3_500, 3_500, 3_500, 1_600, 1_800, 1_800, 3_000,
    ];

    type PatternMaker = Box<dyn Fn(usize) -> Pattern>;
    let scenarios: [(&str, PatternMaker); 4] = [
        ("constant", Box::new(move |k| Pattern::Constant(base[k]))),
        (
            // Every kernel's load jumps 8x mid-run (a scene change).
            "step",
            Box::new(move |k| Pattern::Step {
                low: base[k] / 4,
                high: base[k] * 2,
                at: 8,
            }),
        ),
        (
            // Long bursts with persistence (period 8: 1 high, 7 low).
            "burst",
            Box::new(move |k| Pattern::Burst {
                low: base[k] / 4,
                high: base[k] * 4,
                period: 8,
            }),
        ),
        (
            "ramp",
            Box::new(move |k| Pattern::Ramp {
                from: base[k] / 8,
                to: base[k] * 2,
            }),
        ),
    ];

    println!(
        "{:<10} | {:>12} {:>12} {:>12} {:>12} | {:>9}",
        "series", "no MPU", "alpha=0.25", "alpha=0.5", "alpha=1.0", "best gain"
    );
    println!("{}", "-".repeat(82));
    for (name, make) in scenarios {
        let patterns: Vec<Pattern> = (0..kernels).map(&make).collect();
        let trace = synthetic_trace(&tb.model, &patterns, 16);
        let no_mpu = run(&tb.catalog, &trace, None);
        let alphas: Vec<f64> = [0.25, 0.5, 1.0]
            .iter()
            .map(|a| run(&tb.catalog, &trace, Some(*a)))
            .collect();
        let best = alphas.iter().copied().fold(f64::INFINITY, f64::min);
        println!(
            "{name:<10} | {no_mpu:>11.3}M {:>11.3}M {:>11.3}M {:>11.3}M | {:>8.2}%",
            alphas[0],
            alphas[1],
            alphas[2],
            (no_mpu - best) / no_mpu * 100.0
        );
    }
    println!("{}", "-".repeat(82));
    println!(
        "reading: on the constant series the static forecast is exact and the MPU\n\
         changes nothing. On the varying series the MPU tracks the counts (see the\n\
         mpu unit tests) but the *end-to-end* gain is bounded and can be slightly\n\
         negative: every selection change it triggers costs reconfiguration churn,\n\
         which offsets the better-informed decisions. mRTS's robustness therefore\n\
         rests mostly on the per-trigger reselection itself, with the MPU as a\n\
         small corrective term — see EXPERIMENTS.md for discussion."
    );
}

fn run(catalog: &IseCatalog, trace: &Trace, alpha: Option<f64>) -> f64 {
    let config = match alpha {
        None => MrtsConfig {
            use_mpu: false,
            ..MrtsConfig::default()
        },
        Some(a) => MrtsConfig {
            mpu_alpha: a,
            ..MrtsConfig::default()
        },
    };
    let machine = Machine::new(ArchParams::default(), Resources::new(1, 2)).expect("valid");
    Simulator::run(catalog, machine, trace, &mut Mrts::with_config(config))
        .total_execution_time()
        .as_mcycles()
}
