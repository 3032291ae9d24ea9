//! Forecast-error sensitivity of the mRTS selection.
//!
//! *"The relative correctness of these numbers affects the quality of the
//! run-time selection decision."* (Section 4) — this bench quantifies
//! *how much*: the trigger instructions' expected execution counts are
//! scaled by factors 1/8 … 8 (the MPU disabled, so the error persists),
//! and the resulting end-to-end execution time is compared to the exact
//! forecast.
//!
//! Expected shape: a shallow bowl — under-estimates make the selector too
//! timid about ms-scale FG loads, over-estimates too aggressive, but the
//! ECU's intermediate-ISE and monoCG fallbacks bound the damage.

use mrts_arch::{ArchParams, Machine, Resources};
use mrts_bench::{print_header, Testbed, DEFAULT_SEED};
use mrts_core::{Mrts, MrtsConfig};
use mrts_ise::TriggerBlock;
use mrts_sim::{BlockPlan, ExecContext, ExecPlan, RuntimePolicy, SelectionContext, Simulator};

/// Wraps a policy and scales every forecast's expected execution count.
struct DistortedForecasts<P: RuntimePolicy> {
    inner: P,
    scale_num: u64,
    scale_den: u64,
}

impl<P: RuntimePolicy> RuntimePolicy for DistortedForecasts<P> {
    fn name(&self) -> String {
        format!(
            "{} (forecasts x{}/{})",
            self.inner.name(),
            self.scale_num,
            self.scale_den
        )
    }

    fn plan_block(&mut self, ctx: &SelectionContext<'_>) -> BlockPlan {
        let triggers = ctx
            .forecast
            .iter()
            .map(|t| {
                t.with_executions((t.expected_executions * self.scale_num / self.scale_den).max(1))
            })
            .collect();
        let distorted = TriggerBlock::new(ctx.forecast.block, triggers);
        let ctx2 = SelectionContext {
            now: ctx.now,
            catalog: ctx.catalog,
            machine: ctx.machine,
            forecast: &distorted,
            resident: ctx.resident,
        };
        self.inner.plan_block(&ctx2)
    }

    fn plan_execution(
        &mut self,
        kernel: mrts_ise::KernelId,
        selected: Option<mrts_ise::IseId>,
        ctx: &ExecContext<'_>,
    ) -> ExecPlan {
        self.inner.plan_execution(kernel, selected, ctx)
    }
}

fn main() {
    print_header(
        "Sensitivity",
        "mRTS end-to-end cost vs trigger-instruction forecast error",
        DEFAULT_SEED,
    );
    let tb = Testbed::new("h264", DEFAULT_SEED).expect("builtin app lowers");
    let combo = Resources::new(2, 2);

    let mrts_static = || {
        Mrts::with_config(MrtsConfig {
            use_mpu: false, // keep the injected error alive
            ..MrtsConfig::default()
        })
    };
    let exact = Simulator::run(
        &tb.catalog,
        Machine::new(ArchParams::default(), combo).expect("valid machine"),
        &tb.trace,
        &mut mrts_static(),
    )
    .total_execution_time()
    .as_mcycles();

    println!("machine {combo}; MPU disabled so the error persists\n");
    println!("{:>10} | {:>12} | {:>9}", "scale", "Mcycles", "vs exact");
    println!("{}", "-".repeat(38));
    for (num, den) in [(1u64, 8u64), (1, 4), (1, 2), (1, 1), (2, 1), (4, 1), (8, 1)] {
        let mut policy = DistortedForecasts {
            inner: mrts_static(),
            scale_num: num,
            scale_den: den,
        };
        let t = Simulator::run(
            &tb.catalog,
            Machine::new(ArchParams::default(), combo).expect("valid machine"),
            &tb.trace,
            &mut policy,
        )
        .total_execution_time()
        .as_mcycles();
        let label = if den == 1 {
            format!("x{num}")
        } else {
            format!("x1/{den}")
        };
        println!(
            "{label:>10} | {t:>12.3} | {:>+8.2}%",
            (t - exact) / exact * 100.0
        );
    }
    println!("{}", "-".repeat(38));
    println!(
        "reading: selection quality degrades gracefully with forecast error —\n\
         the ECU's run-time fallbacks (intermediate ISEs, monoCG, RISC-mode)\n\
         bound the damage of a wrong compile-time estimate."
    );
}
