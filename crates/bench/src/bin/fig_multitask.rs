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
//! `par::sweep`; output is byte-identical at any `--threads` because all
//! printing happens serially in input order.
//!
//! Flags: `--quick` (CI smoke: small synthetic-ish mix), `--threads N`.

use mrts_arch::{ArchParams, Resources};
use mrts_bench::{par, print_header, Testbed, DEFAULT_SEED};
use mrts_multitask::{
    run_multitask, run_multitask_with_events, ArbiterPolicy, MultitaskConfig, SchedulerKind,
    TenantSpec,
};
use mrts_sim::{events_to_jsonl, MultitaskStats, VecSink};

/// The three contenders of the figure.
const CONFIGS: [(&str, &str, ArbiterPolicy); 3] = [
    ("mRTS", "mrts", ArbiterPolicy::Dynamic),
    ("RISPP-like", "rispp", ArbiterPolicy::Dynamic),
    ("static-part", "mrts", ArbiterPolicy::Static),
];

fn main() {
    let threads = par::ThreadConfig::from_args();
    let quick = std::env::args().any(|a| a == "--quick");
    print_header(
        "Multi-tenant sharing",
        "aggregate speedup + Jain fairness vs tenant count (mRTS / RISPP-like / static split)",
        DEFAULT_SEED,
    );
    let combo = Resources::new(4, 3); // the largest Fig. 8 machine
    println!(
        "machine: {combo}; tenants time-share the core (wfq) and space-share the fabric{}",
        if quick { " [--quick]" } else { "" }
    );

    // The tenant mix, built once and shared read-only by all cells. The
    // quick mix swaps the 48-activation H.264 encoder for the lighter
    // 16-activation apps so CI smoke runs stay fast.
    let apps = if quick {
        ["cipher", "fft", "cipher", "fft"]
    } else {
        ["h264", "fft", "cipher", "h264"]
    };
    let mix: Vec<Testbed> = (DEFAULT_SEED..)
        .zip(apps)
        .map(|(seed, app)| Testbed::new(app, seed).expect("builtin app lowers"))
        .collect();
    let counts: Vec<usize> = (1..=mix.len()).collect();

    // One cell per (tenant count, contender); fan out across workers.
    let cells: Vec<(usize, usize)> = counts
        .iter()
        .flat_map(|&n| (0..CONFIGS.len()).map(move |c| (n, c)))
        .collect();
    let runs: Vec<MultitaskStats> = par::sweep(threads, &cells, |_, &(n, c)| {
        let (_, policy, arbiter) = CONFIGS[c];
        let specs: Vec<TenantSpec<'_>> = mix[..n]
            .iter()
            .map(|a| TenantSpec::new(a.name(), &a.catalog, &a.trace))
            .collect();
        let cfg = MultitaskConfig {
            policy: policy.into(),
            arbiter,
            scheduler: SchedulerKind::WeightedFair,
            ..MultitaskConfig::default()
        };
        run_multitask(ArchParams::default(), combo, &specs, &cfg)
            .expect("multitask run must succeed")
    });

    println!(
        "\n{:>7} | {:>12} {:>9} {:>8} {:>8} | {:>8} {:>7}",
        "tenants", "contender", "agg-spdup", "jain", "thrput", "switches", "repart"
    );
    println!("{}", "-".repeat(74));
    let mut ok_static = true;
    let mut ok_rispp = true;
    for (i, &(n, c)) in cells.iter().enumerate() {
        let s = &runs[i];
        println!(
            "{n:>7} | {:>12} {:>8.3}x {:>8.3} {:>8.1} | {:>8} {:>7}",
            CONFIGS[c].0,
            s.aggregate_speedup(),
            s.jain_fairness(),
            s.throughput(),
            s.context_switches,
            s.repartitions,
        );
        if c == CONFIGS.len() - 1 {
            let mrts = runs[i - 2].aggregate_speedup();
            let rispp = runs[i - 1].aggregate_speedup();
            let stat = s.aggregate_speedup();
            ok_static &= mrts >= stat;
            ok_rispp &= mrts > rispp;
            println!("{}", "-".repeat(74));
        }
    }
    println!(
        "dynamic mRTS >= static partition at every tenant count: {}",
        if ok_static {
            "yes"
        } else {
            "NO — regression!"
        }
    );
    println!(
        "dynamic mRTS >  RISPP-like       at every tenant count: {}",
        if ok_rispp {
            "yes"
        } else {
            "NO — regression!"
        }
    );

    // Intra-run parallelism smoke: the full mix run twice — fully serial
    // and with 4 setup workers — must produce byte-identical stats and
    // event JSONL (the runner's setup barrier merges per-tenant results in
    // tenant-index order, so worker count must never show in the output).
    let run_with = |workers: usize| {
        let specs: Vec<TenantSpec<'_>> = mix
            .iter()
            .map(|a| TenantSpec::new(a.name(), &a.catalog, &a.trace))
            .collect();
        let cfg = MultitaskConfig {
            workers,
            ..MultitaskConfig::default()
        };
        let mut sink = VecSink::new();
        let stats =
            run_multitask_with_events(ArchParams::default(), combo, &specs, &cfg, &mut sink)
                .expect("multitask run must succeed");
        let jsonl = events_to_jsonl(&sink.take()).expect("events serialize");
        (stats, jsonl)
    };
    let serial = run_with(1);
    let parallel = run_with(4);
    println!(
        "serial vs 4-worker intra-run byte-identical (stats + events): {}",
        if serial == parallel {
            "yes"
        } else {
            "NO — regression!"
        }
    );
}
