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

use super::{Opts, HEADLINE};
use crate::Testbed;
use mrts_core::{Mrts, MrtsConfig};
use mrts_ise::{IseId, KernelId, TriggerBlock};
use mrts_sim::{BlockPlan, ExecContext, ExecPlan, RuntimePolicy, SelectionContext};
use std::io::{self, Write};

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
        kernel: KernelId,
        selected: Option<IseId>,
        ctx: &ExecContext<'_>,
    ) -> ExecPlan {
        self.inner.plan_execution(kernel, selected, ctx)
    }
}

pub(super) fn body(out: &mut dyn Write, opts: &Opts) -> io::Result<bool> {
    let tb = Testbed::new("h264", opts.seed).map_err(io::Error::other)?;
    // mRTS with the MPU off, so the injected error stays alive.
    let mrts_static = || {
        Mrts::with_config(MrtsConfig {
            use_mpu: false,
            ..MrtsConfig::default()
        })
    };
    let mcycles_of = |policy: &mut dyn RuntimePolicy| -> io::Result<f64> {
        let stats = tb.run(HEADLINE, policy).map_err(io::Error::other)?;
        Ok(stats.total_execution_time().as_mcycles())
    };
    let exact = mcycles_of(&mut mrts_static())?;

    writeln!(
        out,
        "machine {HEADLINE}; MPU disabled so the error persists\n"
    )?;
    writeln!(out, "     scale |      Mcycles |  vs exact")?;
    writeln!(out, "{}", "-".repeat(38))?;
    for (num, den) in [(1u64, 8u64), (1, 4), (1, 2), (1, 1), (2, 1), (4, 1), (8, 1)] {
        let t = mcycles_of(&mut DistortedForecasts {
            inner: mrts_static(),
            scale_num: num,
            scale_den: den,
        })?;
        let label = if den == 1 {
            format!("x{num}")
        } else {
            format!("x1/{den}")
        };
        writeln!(
            out,
            "{label:>10} | {t:>12.3} | {:>+8.2}%",
            (t - exact) / exact * 100.0
        )?;
    }
    writeln!(out, "{}", "-".repeat(38))?;
    writeln!(
        out,
        "reading: selection quality degrades gracefully with forecast error —\n\
         the ECU's run-time fallbacks (intermediate ISEs, monoCG, RISC-mode)\n\
         bound the damage of a wrong compile-time estimate."
    )?;
    Ok(true)
}
