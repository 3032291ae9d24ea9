//! Multi-tenant figure — aggregate speedup and fairness vs. tenant count.
//!
//! The paper evaluates mRTS with one application owning the fabric; this
//! figure extends the evaluation to the multi-tenant run-time of
//! `mrts-multitask`: 1..=4 applications (an H.264 / FFT / cipher mix)
//! time-share one core and space-share one multi-grained fabric. Three
//! contenders run the same mix:
//!
//! * **mRTS** — per-tenant mRTS instances, demand-driven *dynamic* fabric
//!   arbiter (freed slices are redistributed as tenants finish),
//! * **RISPP-like** — the FG-tuned baseline policy per tenant, same
//!   dynamic arbiter (isolates the selection policy from the arbiter),
//! * **static-partition** — per-tenant mRTS but a *static* even fabric
//!   split, the Morpheus/4S-style fixed assignment (freed slices idle).
//!
//! Shape to verify: dynamic mRTS aggregate speedup ≥ static-partition at
//! **every** tenant count (the dynamic arbiter starts from the static
//! split and grants only ever grow), with equality at one tenant, and
//! mRTS > RISPP-like throughout. Cells fan out over worker threads via
//! `par::map_ordered`; output is byte-identical at any `--threads` because
//! all printing happens serially in input order.
//!
//! `--quick` (CI smoke) swaps in a small cipher/FFT mix.

use super::{all, serial_vs_4_workers, testbeds, verdict, Opts};
use crate::par;
use mrts_arch::{ArchParams, Resources};
use mrts_multitask::{run_multitask, ArbiterPolicy, MultitaskConfig, SchedulerKind, TenantSpec};
use mrts_sim::MultitaskStats;
use std::io::{self, Write};

/// The three contenders of the figure.
const CONFIGS: [(&str, &str, ArbiterPolicy); 3] = [
    ("mRTS", "mrts", ArbiterPolicy::Dynamic),
    ("RISPP-like", "rispp", ArbiterPolicy::Dynamic),
    ("static-part", "mrts", ArbiterPolicy::Static),
];

pub(super) fn body(out: &mut dyn Write, opts: &Opts) -> io::Result<bool> {
    let combo = Resources::new(4, 3); // the largest Fig. 8 machine
    writeln!(
        out,
        "machine: {combo}; tenants time-share the core (wfq) and space-share the fabric{}",
        if opts.quick { " [--quick]" } else { "" }
    )?;

    // The tenant mix, built once and shared read-only by all cells. The
    // quick mix swaps the 48-activation H.264 encoder for the lighter
    // 16-activation apps so CI smoke runs stay fast.
    let apps = if opts.quick {
        ["cipher", "fft", "cipher", "fft"]
    } else {
        ["h264", "fft", "cipher", "h264"]
    };
    let mix = testbeds(&apps, opts.seed)?;
    let specs: Vec<TenantSpec<'_>> = mix
        .iter()
        .map(|a| TenantSpec::new(a.name(), &a.catalog, &a.trace))
        .collect();

    // One cell per (tenant count, contender); fan out across workers.
    let cells: Vec<(usize, usize)> = (1..=mix.len())
        .flat_map(|n| (0..CONFIGS.len()).map(move |c| (n, c)))
        .collect();
    let runs: Vec<MultitaskStats> = all(par::map_ordered(opts.threads, &cells, |_, &(n, c)| {
        let (_, policy, arbiter) = CONFIGS[c];
        let cfg = MultitaskConfig {
            policy: policy.into(),
            arbiter,
            scheduler: SchedulerKind::WeightedFair,
            ..MultitaskConfig::default()
        };
        run_multitask(ArchParams::default(), combo, &specs[..n], &cfg)
    }))?;

    writeln!(
        out,
        "\ntenants |    contender agg-spdup     jain   thrput | switches  repart"
    )?;
    writeln!(out, "{}", "-".repeat(74))?;
    let mut ok_static = true;
    let mut ok_rispp = true;
    for (n, row) in (1..).zip(runs.chunks(CONFIGS.len())) {
        for ((label, _, _), s) in CONFIGS.iter().zip(row) {
            let (speedup, jain, thrput) =
                (s.aggregate_speedup(), s.jain_fairness(), s.throughput());
            let (switches, repart) = (s.context_switches, s.repartitions);
            writeln!(
                out,
                "{n:>7} | {label:>12} {speedup:>8.3}x {jain:>8.3} {thrput:>8.1} | {switches:>8} {repart:>7}"
            )?;
        }
        if let [mrts, rispp, stat] = row {
            ok_static &= mrts.aggregate_speedup() >= stat.aggregate_speedup();
            ok_rispp &= mrts.aggregate_speedup() > rispp.aggregate_speedup();
        }
        writeln!(out, "{}", "-".repeat(74))?;
    }
    let mut holds = true;
    for (label, ok) in [
        (
            "dynamic mRTS >= static partition at every tenant count",
            ok_static,
        ),
        (
            "dynamic mRTS >  RISPP-like       at every tenant count",
            ok_rispp,
        ),
    ] {
        holds &= verdict(out, label, ok, "")?;
    }

    // Intra-run parallelism smoke: the full mix, serial vs 4 setup workers.
    let identical = serial_vs_4_workers(out, combo, &specs, &MultitaskConfig::default())?;
    Ok(holds && identical)
}
