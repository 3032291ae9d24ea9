//! The CLI subcommands.

use crate::args::Args;
use mrts_arch::{ArchParams, Cycles, FaultModel, Machine, Resources};
use mrts_baselines::make_policy;
use mrts_bench::Testbed;
use mrts_fleet::{
    poisson_arrivals, records_from_jsonl, records_to_jsonl, run_fleet, AppRegistry, FleetConfig,
    FleetOutcome, PoissonConfig, SessionRecord,
};
use mrts_ise::Ise;
use mrts_multitask::{
    parse_tenant_specs, run_multitask, run_multitask_with_events, MultitaskConfig, TenantSpec,
};
use mrts_sim::{
    events_to_jsonl, ExecClass, MultitaskStats, RecoveryConfig, RunStats, Simulator, VecSink,
};
use mrts_workload::WorkloadModel;
use std::io::Write;

/// Every subcommand's error: `Send` and `Sync` like the testbed's, so one
/// `?` carries either.
type Error = Box<dyn std::error::Error + Send + Sync>;
type CliResult = Result<(), Error>;

/// The `--app`/`--seed` testbed. Builtin names
/// (`h264|fft|cipher|toy|cv|cryptomix`) and manifest paths both lower
/// through the ingestion pipeline, so every subcommand accepts either.
fn testbed(args: &Args) -> Result<Testbed, Error> {
    let seed: u64 = args.get_num("seed", 1)?;
    Testbed::new(args.get_or("app", "h264"), seed)
}

/// `mrts-cli catalog` — inspect the compile-time ISE catalogue.
pub(crate) fn catalog(args: &Args, out: &mut dyn Write) -> CliResult {
    args.expect_only(&["app", "seed"])?;
    let tb = testbed(args)?;
    let (app, catalog) = (tb.model.application(), &tb.catalog);
    writeln!(
        out,
        "application '{}': {} kernels, {} functional blocks",
        app.name(),
        catalog.kernels().len(),
        app.blocks().len()
    )?;
    writeln!(
        out,
        "{} ISE variants, {} load units\n",
        catalog.ises().len(),
        catalog.units().len()
    )?;
    writeln!(
        out,
        "{:<10} {:>10} {:>9} {:>9} {:>9} {:>9} {:>7}",
        "kernel", "RISC cyc", "variants", "FG", "CG", "MG", "mono"
    )?;
    writeln!(out, "{}", "-".repeat(68))?;
    for k in catalog.kernels() {
        let variants: Vec<&Ise> = catalog
            .ises_of(k.id())
            .iter()
            .map(|i| catalog.ise(*i).expect("dense ids"))
            .collect();
        let count = |g: mrts_ise::Grain| {
            variants
                .iter()
                .filter(|i| i.grain() == g && !i.is_mono_extension())
                .count()
        };
        writeln!(
            out,
            "{:<10} {:>10} {:>9} {:>9} {:>9} {:>9} {:>7}",
            k.name(),
            k.risc_latency().get(),
            variants.len(),
            count(mrts_ise::Grain::FineGrained),
            count(mrts_ise::Grain::CoarseGrained),
            count(mrts_ise::Grain::MultiGrained),
            if k.mono_cg().is_some() { "yes" } else { "no" },
        )?;
    }
    for b in app.blocks() {
        writeln!(
            out,
            "\nblock '{}': {} kernels, {} one-ISE-per-kernel combinations",
            b.name,
            b.kernels.len(),
            catalog.combination_count(&b.kernels)
        )?;
    }
    Ok(())
}

/// One full simulation pass of `tb`'s trace on `machine`, optionally
/// recording the event spine.
///
/// Returns the run statistics plus — when `record` is set — the entire
/// event log rendered as deterministic JSONL. Used both for the normal
/// `simulate` path and for the `--threads` determinism check, which
/// replays the identical configuration on several OS threads and
/// insists on byte-identical outputs.
fn simulate_once(
    tb: &Testbed,
    machine: Machine,
    policy_name: &str,
    recovery: RecoveryConfig,
    record: bool,
) -> Result<(RunStats, Option<String>), Error> {
    let mut p = make_policy(
        policy_name,
        &tb.catalog,
        machine.capacity(),
        &tb.trace,
        None,
    )?;
    let mut sim = Simulator::new(&tb.catalog, machine).with_recovery(recovery);
    let sink = if record {
        let sink = VecSink::new();
        sim.attach_events(0, Box::new(sink.clone()));
        Some(sink)
    } else {
        None
    };
    let stats = sim.run_trace(&tb.trace, p.as_mut());
    sim.finish_events();
    let jsonl = match sink {
        Some(s) => Some(events_to_jsonl(&s.take())?),
        None => None,
    };
    Ok((stats, jsonl))
}

/// The largest count a flag that sizes a buffer (`--sessions`,
/// `--variants`, `--fabrics`, `--ways`) may ask for. Past it the run fails
/// with a field-qualified error instead of overflowing an allocation.
const MAX_COUNT: usize = 1 << 20;

/// The most replay threads `--threads` may start.
const MAX_THREADS: usize = 256;

/// Parses a count flag bounded by `max`.
fn get_count(args: &Args, name: &str, default: usize, max: usize) -> Result<usize, Error> {
    let n: usize = args.get_num(name, default)?;
    if n > max {
        return Err(format!("--{name} {n} exceeds the limit of {max}").into());
    }
    Ok(n)
}

/// Parses `--threads`: at least one, at most [`MAX_THREADS`].
fn get_threads(args: &Args) -> Result<usize, Error> {
    let threads = get_count(args, "threads", 1, MAX_THREADS)?;
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    Ok(threads)
}

/// The `--threads` determinism proof: runs `replica(i)` for every
/// `i < threads` on a pool of `threads` workers
/// ([`mrts_bench::par::map_ordered`]), fails unless every replica is
/// `same` as replica 0, and prints `determinism: {proof}`. With one
/// thread, replica 0 runs inline and nothing is compared. Returns replica
/// 0's result.
fn replay<T: Send>(
    out: &mut dyn Write,
    threads: usize,
    proof: &str,
    replica: impl Fn(usize) -> Result<T, String> + Sync,
    same: impl Fn(&T, &T) -> Result<bool, serde_json::Error>,
) -> Result<T, Error> {
    if threads == 1 {
        return Ok(replica(0)?);
    }
    let replicas: Vec<usize> = (0..threads).collect();
    let mut runs = mrts_bench::par::map_ordered(threads, &replicas, |_, &i| replica(i))
        .into_iter()
        .collect::<Result<Vec<_>, String>>()?;
    for (i, run) in runs.iter().enumerate().skip(1) {
        if !same(&runs[0], run)? {
            return Err(format!("determinism violation: thread {i} diverged from thread 0").into());
        }
    }
    writeln!(out, "determinism: {proof}")?;
    Ok(runs.swap_remove(0))
}

/// `mrts-cli simulate` — one app, one machine, one policy.
pub(crate) fn simulate(args: &Args, out: &mut dyn Write) -> CliResult {
    args.expect_only(&[
        "app",
        "seed",
        "cg",
        "prc",
        "policy",
        "fault-rate",
        "fault-seed",
        "retry-budget",
        "events-out",
        "threads",
    ])?;
    let tb = testbed(args)?;
    let combo = Resources::new(args.get_num("cg", 2)?, args.get_num("prc", 2)?);
    let fault_rate: f64 = args.get_num("fault-rate", 0.0)?;
    if !(0.0..=1.0).contains(&fault_rate) {
        return Err(format!("--fault-rate {fault_rate} must be within [0, 1]").into());
    }
    let fault_seed: u64 = args.get_num("fault-seed", 1)?;
    let recovery = RecoveryConfig {
        retry_budget: args.get_num("retry-budget", mrts_sim::LOAD_RETRY_BUDGET)?,
    };
    let policy_name = args.get_or("policy", "mrts");
    let events_out = args.get("events-out");
    let threads = get_threads(args)?;
    let record = events_out.is_some() || threads > 1;
    let machine = Machine::with_fault_model(
        ArchParams::default(),
        combo,
        FaultModel::new(fault_rate, fault_seed),
    )?;

    // Replays the identical configuration on `threads` OS threads and
    // demands byte-identical statistics and event logs. The simulator is
    // deterministic by construction; this is the executable proof.
    let (stats, jsonl) = replay(
        out,
        threads,
        &format!("{threads} threads, byte-identical stats and event logs"),
        |_| {
            simulate_once(&tb, machine.clone(), policy_name, recovery, record)
                .map_err(|e| e.to_string())
        },
        |a, b| Ok(serde_json::to_string(&a.0)? == serde_json::to_string(&b.0)? && a.1 == b.1),
    )?;
    if let (Some(path), Some(log)) = (events_out, &jsonl) {
        std::fs::write(path, log)?;
        writeln!(
            out,
            "events   : wrote {} events ({} bytes) to {path}",
            log.lines().count(),
            log.len()
        )?;
    }

    // The RISC reference for a speedup line.
    let risc = tb.run_policy(combo, "risc")?;

    writeln!(
        out,
        "machine  : {combo} ({} usable slots)",
        machine.capacity()
    )?;
    writeln!(out, "policy   : {}", stats.policy)?;
    writeln!(
        out,
        "time     : {:.3} Mcycles ({:.3} busy + {:.3} overhead)",
        stats.total_execution_time().as_mcycles(),
        stats.total_busy().as_mcycles(),
        stats.total_overhead().as_mcycles()
    )?;
    writeln!(
        out,
        "speedup  : {:.2}x vs RISC-mode",
        stats.speedup_vs(&risc).max(0.0)
    )?;
    writeln!(out, "executions by implementation:")?;
    let h = stats.class_histogram();
    for class in ExecClass::ALL {
        let n = h.get(&class).copied().unwrap_or(0);
        let pct = 100.0 * n as f64 / stats.total_executions().max(1) as f64;
        writeln!(out, "  {:<14} {n:>9}  ({pct:5.1}%)", class.to_string())?;
    }
    if stats.rejected_loads > 0 {
        writeln!(
            out,
            "warning: {} load requests were rejected",
            stats.rejected_loads
        )?;
    }
    if fault_rate > 0.0 {
        writeln!(
            out,
            "faults   : {} failed loads, {} retries, {} containers lost, \
             {} degraded executions, {:.3} Mcycles recovery",
            stats.failed_loads,
            stats.retried_loads,
            stats.blacklisted_containers,
            stats.degraded_executions,
            stats.recovery_cycles.as_mcycles()
        )?;
    }
    Ok(())
}

/// `mrts-cli sweep` — the Fig. 8 grid for one policy, vs RISC-mode.
pub(crate) fn sweep(args: &Args, out: &mut dyn Write) -> CliResult {
    args.expect_only(&["app", "seed", "policy", "format"])?;
    let tb = testbed(args)?;
    let name = args.get_or("policy", "mrts");
    let format = args.get_or("format", "table");
    let csv = match format {
        "csv" => true,
        "table" => false,
        other => return Err(format!("unknown format '{other}' (table|csv)").into()),
    };

    let risc_ref = tb.run_policy(Resources::NONE, "risc")?;
    if csv {
        writeln!(out, "cg,prc,mcycles,speedup_vs_risc")?;
    } else {
        writeln!(out, "policy: {name}")?;
        writeln!(
            out,
            "{:>4} {:>4} {:>12} {:>9}",
            "CG", "PRC", "Mcycles", "speedup"
        )?;
        writeln!(out, "{}", "-".repeat(34))?;
    }
    for combo in mrts_bench::fig8_combos() {
        let (cg, prc) = (combo.cg(), combo.prc());
        let stats = tb.run_policy(combo, name)?;
        let s = risc_ref.total_execution_time().get() as f64
            / stats.total_execution_time().get().max(1) as f64;
        if csv {
            writeln!(
                out,
                "{cg},{prc},{:.3},{s:.3}",
                stats.total_execution_time().as_mcycles()
            )?;
        } else {
            writeln!(
                out,
                "{cg:>4} {prc:>4} {:>12.3} {s:>8.2}x",
                stats.total_execution_time().as_mcycles()
            )?;
        }
    }
    Ok(())
}

/// `mrts-cli multitask` — several applications time-sharing one machine.
pub(crate) fn multitask(args: &Args, out: &mut dyn Write) -> CliResult {
    args.expect_only(&[
        "apps",
        "weights",
        "slo",
        "seed",
        "cg",
        "prc",
        "policy",
        "arbiter",
        "sched",
        "admission",
        "degrade",
        "fault-rate",
        "fault-seed",
        "events-out",
        "threads",
    ])?;
    // The shared flag-triple parser (also the fleet's session-trace
    // syntax): apps comma list, optional parallel weights/slo lists.
    let requests = parse_tenant_specs(
        args.get_or("apps", "h264,fft"),
        args.get("weights"),
        args.get("slo"),
    )?;
    let seed: u64 = args.get_num("seed", 1)?;
    let fault_rate: f64 = args.get_num("fault-rate", 0.0)?;
    if !(0.0..=1.0).contains(&fault_rate) {
        return Err(format!("--fault-rate {fault_rate} must be within [0, 1]").into());
    }
    let fault_seed: u64 = args.get_num("fault-seed", 1)?;
    let degrade = match args.get_or("degrade", "on") {
        "on" => true,
        "off" => false,
        other => return Err(format!("--degrade: unknown value '{other}' (on|off)").into()),
    };
    let threads = get_threads(args)?;
    let events_out = args.get("events-out");
    let record = events_out.is_some() || threads > 1;

    let cfg = MultitaskConfig {
        policy: args.get_or("policy", "mrts").to_owned(),
        arbiter: args.get_parsed("arbiter", "dynamic")?,
        scheduler: args.get_parsed("sched", "wfq")?,
        admission: args.get_parsed("admission", "off")?,
        degrade,
        ..MultitaskConfig::default()
    };
    let budget = Resources::new(args.get_num("cg", 2)?, args.get_num("prc", 2)?);

    // Tenant workloads are built first so the specs can borrow them.
    let mut built: Vec<Testbed> = Vec::new();
    for (i, req) in requests.iter().enumerate() {
        built.push(Testbed::new(&req.app, seed.wrapping_add(i as u64))?);
    }

    // One full multi-tenant pass; rebuilt per replay thread so each run is
    // completely independent state. `workers` switches the runner's
    // intra-run parallel setup phase on (1 = fully serial reference).
    let run_once = |record: bool,
                    workers: usize|
     -> Result<(MultitaskStats, Option<String>), String> {
        let specs: Vec<TenantSpec<'_>> = built
            .iter()
            .zip(&requests)
            .enumerate()
            .map(|(i, (tb, req))| {
                let mut spec =
                    TenantSpec::new(tb.name(), &tb.catalog, &tb.trace).with_weight(req.weight);
                if fault_rate > 0.0 {
                    spec = spec.with_fault_model(FaultModel::new(
                        fault_rate,
                        fault_seed.wrapping_add(i as u64),
                    ));
                }
                if let Some(slo) = req.slo {
                    spec = spec.with_slo(slo);
                }
                spec
            })
            .collect();
        let cfg = MultitaskConfig {
            workers,
            ..cfg.clone()
        };
        if record {
            let mut sink = VecSink::new();
            let stats =
                run_multitask_with_events(ArchParams::default(), budget, &specs, &cfg, &mut sink)
                    .map_err(|e| e.to_string())?;
            let log = events_to_jsonl(&sink.take()).map_err(|e| e.to_string())?;
            Ok((stats, Some(log)))
        } else {
            run_multitask(ArchParams::default(), budget, &specs, &cfg)
                .map(|stats| (stats, None))
                .map_err(|e| e.to_string())
        }
    };

    // The determinism proof cuts two ways: replica 0 is the fully serial
    // reference, every other replica runs the runner's intra-run parallel
    // phase with `threads` workers — so the compare enforces both
    // run-to-run reproducibility and serial/parallel byte-identity of
    // stats and event logs.
    let (stats, jsonl) = replay(
        out,
        threads,
        &format!(
            "serial vs {threads}-worker intra-run × {threads} threads, \
             byte-identical stats and event logs"
        ),
        |i| run_once(record, if i == 0 { 1 } else { threads }),
        |a, b| Ok(serde_json::to_string(&a.0)? == serde_json::to_string(&b.0)? && a.1 == b.1),
    )?;
    if let (Some(path), Some(log)) = (events_out, &jsonl) {
        std::fs::write(path, log)?;
        writeln!(
            out,
            "events: wrote {} events ({} bytes) to {path}",
            log.lines().count(),
            log.len()
        )?;
    }
    write!(out, "{stats}")?;
    writeln!(
        out,
        "aggregate speedup {:.3}x vs back-to-back RISC, throughput {:.1} execs/Mcycle",
        stats.aggregate_speedup(),
        stats.throughput()
    )?;
    if stats.slo_deadlines() > 0 {
        writeln!(
            out,
            "slo: {}/{} deadlines missed ({:.1}%), tardiness p50/p95/p99 \
             {:.3}/{:.3}/{:.3} Mcycles, ladder {}v/{}^",
            stats.deadline_misses(),
            stats.slo_deadlines(),
            100.0 * stats.miss_rate(),
            stats.tardiness_percentile(50, 100) as f64 / 1e6,
            stats.tardiness_percentile(95, 100) as f64 / 1e6,
            stats.tardiness_percentile(99, 100) as f64 / 1e6,
            stats.degrade_steps(),
            stats.promote_steps(),
        )?;
    }
    Ok(())
}

/// `mrts-cli fleet` — a long-lived open-loop service over several fabric
/// shards: seeded Poisson (or replayed JSONL) session arrivals, placement,
/// streaming admission, churn, and fleet-level service statistics.
pub(crate) fn fleet(args: &Args, out: &mut dyn Write) -> CliResult {
    args.expect_only(&[
        "apps",
        "weights",
        "slo",
        "seed",
        "sessions",
        "mean-gap",
        "variants",
        "max-blocks",
        "fabrics",
        "ways",
        "queue-cap",
        "placement",
        "admission",
        "arbiter",
        "sched",
        "policy",
        "cg",
        "prc",
        "window",
        "repart-min",
        "arrivals-in",
        "arrivals-out",
        "events-out",
        "threads",
    ])?;
    let params = ArchParams::default();
    let seed: u64 = args.get_num("seed", 1)?;
    let variants = get_count(args, "variants", 4, MAX_COUNT)?;
    let max_blocks: usize = args.get_num("max-blocks", 40)?;
    let threads = get_threads(args)?;
    let events_out = args.get("events-out");
    let record = events_out.is_some() || threads > 1;
    let cfg = FleetConfig {
        multitask: MultitaskConfig {
            policy: args.get_or("policy", "mrts").to_owned(),
            arbiter: args.get_parsed("arbiter", "dynamic")?,
            scheduler: args.get_parsed("sched", "wfq")?,
            admission: args.get_parsed("admission", "off")?,
            // Fleet sessions are session-sized, far below the batch
            // runner's repartition threshold — lower it so the dynamic
            // arbiter actually redistributes freed fabric.
            repartition_min_demand: Cycles::new(args.get_num("repart-min", 50_000)?),
            ..MultitaskConfig::default()
        },
        fabrics: get_count(args, "fabrics", 2, MAX_COUNT)?,
        ways: get_count(args, "ways", 4, MAX_COUNT)?,
        queue_cap: args.get_num("queue-cap", 16)?,
        placement: args.get_parsed("placement", "least-loaded")?,
        budget: Resources::new(args.get_num("cg", 8)?, args.get_num("prc", 8)?),
        window: Cycles::new(args.get_num("window", 1_000_000)?),
        record_events: record,
    };

    // The arrival list: replayed from JSONL, or freshly generated from the
    // seeded Poisson process over the --apps/--weights/--slo mix.
    let records: Vec<SessionRecord> = match args.get("arrivals-in") {
        Some(path) => records_from_jsonl(&std::fs::read_to_string(path)?)?,
        None => {
            let mix = parse_tenant_specs(
                args.get_or("apps", "toy"),
                args.get("weights"),
                args.get("slo"),
            )?;
            poisson_arrivals(&PoissonConfig {
                seed,
                sessions: get_count(args, "sessions", 1000, MAX_COUNT)?,
                mean_gap: args.get_num("mean-gap", 150_000)?,
                mix,
                variants: variants as u64,
            })
        }
    };
    if let Some(path) = args.get("arrivals-out") {
        let jsonl = records_to_jsonl(&records)?;
        std::fs::write(path, &jsonl)?;
        writeln!(
            out,
            "arrivals : wrote {} records ({} bytes) to {path}",
            records.len(),
            jsonl.len()
        )?;
    }

    // One registry entry per distinct app in the arrival list; the
    // registry (catalogues, trace variants, session preps) is immutable
    // shared state, safe to run replay threads against.
    let mut apps: Vec<&str> = Vec::new();
    for r in &records {
        if !apps.contains(&r.app.as_str()) {
            apps.push(&r.app);
        }
    }
    if apps.is_empty() {
        return Err("the arrival list is empty".into());
    }
    let registry = AppRegistry::new(&params, &apps, variants.max(1), seed, max_blocks)?;

    let run_once = |record: bool| -> Result<(FleetOutcome, Option<String>), String> {
        let cfg = FleetConfig {
            record_events: record,
            ..cfg.clone()
        };
        let outcome = run_fleet(&params, &registry, &records, &cfg).map_err(|e| e.to_string())?;
        let jsonl = if record {
            Some(events_to_jsonl(&outcome.events).map_err(|e| e.to_string())?)
        } else {
            None
        };
        Ok((outcome, jsonl))
    };

    // Replays the identical fleet configuration on `threads` OS threads
    // and demands byte-identical fleet statistics, per-shard statistics
    // and merged event spines.
    let (outcome, jsonl) = replay(
        out,
        threads,
        &format!("{threads} threads, byte-identical fleet stats and event spines"),
        |_| run_once(record),
        |a, b| {
            Ok(
                serde_json::to_string(&a.0.stats)? == serde_json::to_string(&b.0.stats)?
                    && serde_json::to_string(&a.0.shards)? == serde_json::to_string(&b.0.shards)?
                    && a.1 == b.1,
            )
        },
    )?;
    if let (Some(path), Some(log)) = (events_out, &jsonl) {
        std::fs::write(path, log)?;
        writeln!(
            out,
            "events   : wrote {} events ({} bytes) to {path}",
            log.lines().count(),
            log.len()
        )?;
    }

    write!(out, "{}", outcome.stats)?;
    writeln!(
        out,
        "  queued {:.1}% of accepted, {} windows of {:.3} Mcycles",
        outcome.stats.queued_rate() * 100.0,
        outcome.stats.window_jain().len(),
        cfg.window.as_mcycles()
    )?;
    for (f, shard) in outcome.shards.iter().enumerate() {
        writeln!(
            out,
            "  shard[{f}]: {} switches ({:.3} Mcycles), {} repartitions",
            shard.context_switches,
            shard.switch_cycles.as_mcycles(),
            shard.repartitions
        )?;
    }
    Ok(())
}

/// `mrts-cli trace` — generate and export a workload trace as JSON.
pub(crate) fn trace(args: &Args, out: &mut dyn Write) -> CliResult {
    args.expect_only(&["app", "seed", "out"])?;
    let trace = testbed(args)?.trace;
    let json = serde_json::to_string_pretty(&trace)?;
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, &json)?;
            writeln!(
                out,
                "wrote {} activations ({} bytes) to {path}",
                trace.len(),
                json.len()
            )?;
        }
        None => writeln!(out, "{json}")?,
    }
    Ok(())
}

/// `mrts-cli pif` — Eq. 1 table for one kernel's grain-representative ISEs.
pub(crate) fn pif(args: &Args, out: &mut dyn Write) -> CliResult {
    args.expect_only(&["app", "seed", "kernel", "max-exec"])?;
    let tb = testbed(args)?;
    let catalog = &tb.catalog;
    let kernel_name = args.get_or("kernel", "deblock");
    let max_exec: u64 = args.get_num("max-exec", 10_000)?;
    let kernel = catalog
        .kernels()
        .iter()
        .find(|k| k.name() == kernel_name)
        .ok_or_else(|| {
            format!(
                "unknown kernel '{kernel_name}' in app '{}' (try 'mrts-cli catalog')",
                tb.name()
            )
        })?;

    // The case study's pick per grain, as Fig. 1 makes it.
    let picks: Vec<&Ise> = [
        mrts_ise::Grain::FineGrained,
        mrts_ise::Grain::CoarseGrained,
        mrts_ise::Grain::MultiGrained,
    ]
    .into_iter()
    .filter_map(|grain| catalog.single_copy_ise(kernel.id(), grain))
    .collect();
    if picks.is_empty() {
        return Err(
            format!("kernel '{kernel_name}' has no single-copy full-coverage variants").into(),
        );
    }

    writeln!(
        out,
        "kernel '{kernel_name}' (RISC latency {} cycles)",
        kernel.risc_latency().get()
    )?;
    for ise in &picks {
        writeln!(
            out,
            "  {:<34} {:<4} exec {:>5} cyc  reconfig {:>10.4} ms",
            ise.label(),
            ise.grain().to_string(),
            ise.full_latency().get(),
            ise.isolated_reconfig_latency()
                .as_millis_f64(catalog.params().core_clock)
        )?;
    }
    writeln!(out)?;
    write!(out, "{:>10}", "execs")?;
    for ise in &picks {
        write!(out, " {:>9}", ise.grain().to_string())?;
    }
    writeln!(out)?;
    let steps = 20u64;
    for i in 1..=steps {
        // In u128, so a `--max-exec` near `u64::MAX` cannot overflow.
        let e = (u128::from(max_exec) * u128::from(i) / u128::from(steps)) as u64;
        write!(out, "{e:>10}")?;
        for ise in &picks {
            let pif = ise.performance_improvement_factor(e, ise.isolated_reconfig_latency());
            write!(out, " {pif:>9.3}")?;
        }
        writeln!(out)?;
    }
    Ok(())
}

/// `mrts-cli ingest` — validate, dump or lower a workload manifest.
///
/// * `--check SPEC` runs the full pass pipeline and prints the derived
///   catalogue summary without simulating; a pass error exits non-zero
///   with the offending field's path.
/// * `--dump SPEC` prints (or `--out` writes) the canonical manifest JSON.
/// * `--lower SPEC` prints (or `--out` writes) the derived catalogue JSON.
/// * `--replay EVENTS.jsonl` (with `--check`) folds an exported event
///   spine into the report as observed per-kernel execution shares.
///
/// `SPEC` is a builtin app name or a manifest file path, exactly as
/// accepted by `--app` elsewhere.
pub(crate) fn ingest(args: &Args, out: &mut dyn Write) -> CliResult {
    args.expect_only(&["check", "dump", "lower", "out", "replay"])?;
    let modes = [args.get("check"), args.get("dump"), args.get("lower")]
        .iter()
        .flatten()
        .count();
    if modes != 1 {
        return Err("ingest needs exactly one of --check, --dump or --lower SPEC".into());
    }

    if let Some(spec) = args.get("dump") {
        let manifest = mrts_ingest::builtin::load(spec)?;
        return emit(args, out, manifest.to_json(), "manifest");
    }
    if let Some(spec) = args.get("lower") {
        let manifest = mrts_ingest::builtin::load(spec)?;
        let lowered = mrts_ingest::lower(&manifest)?;
        let catalog = lowered.derive_catalog(ArchParams::default(), None)?;
        let mut json = serde_json::to_string_pretty(&catalog)?;
        json.push('\n');
        return emit(args, out, json, "catalogue");
    }

    let spec = args.get("check").expect("mode counted above");
    let manifest = mrts_ingest::builtin::load(spec)?;
    let lowered = mrts_ingest::lower(&manifest)?;
    let catalog = lowered.derive_catalog(ArchParams::default(), None)?;
    writeln!(
        out,
        "manifest '{}' OK: {} kernels, {} functional blocks, {} dead ops removed",
        lowered.app.name(),
        lowered.app.kernel_specs().len(),
        lowered.app.blocks().len(),
        lowered.dce.removed_ops,
    )?;
    writeln!(
        out,
        "catalogue: {} ISE variants over {} kernels",
        catalog.ises().len(),
        catalog.kernels().len(),
    )?;
    writeln!(
        out,
        "  {:<14} {:>8} {:>5} {:>9} {:>9}  area/latency points",
        "kernel", "affinity", "ops", "bit-frac", "variants"
    )?;
    for (idx, cluster) in lowered.clusters.iter().enumerate() {
        let id = mrts_ise::KernelId(idx as u16);
        let points = mrts_ingest::passes::tradeoff_points(&catalog, id);
        let curve: Vec<String> = points
            .iter()
            .map(|p| format!("{}u/{}c", p.area, p.latency.get()))
            .collect();
        writeln!(
            out,
            "  {:<14} {:>8} {:>5} {:>9.2} {:>9}  {}",
            cluster.kernel,
            cluster.affinity(),
            cluster.ops,
            cluster.bit_fraction,
            catalog.ises_of(id).len(),
            curve.join(" ")
        )?;
    }
    if let Some(path) = args.get("replay") {
        let text = std::fs::read_to_string(path)?;
        let profile = mrts_ingest::events::profile_jsonl(&text)?;
        writeln!(
            out,
            "replayed spine: {} lines, {} block starts, {} executions",
            profile.lines,
            profile.block_starts,
            profile.total_executions()
        )?;
        for (k, count) in &profile.executions {
            let name = lowered
                .app
                .kernel_specs()
                .get(*k as usize)
                .map_or("?", |spec| spec.name());
            writeln!(
                out,
                "  kernel {k} ({name}): {count} executions ({:.1}% share)",
                100.0 * profile.share(*k)
            )?;
        }
    }
    Ok(())
}

/// Writes `text` to `--out` (reporting size) or prints it.
fn emit(args: &Args, out: &mut dyn Write, text: String, what: &str) -> CliResult {
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, &text)?;
            writeln!(out, "wrote {what} ({} bytes) to {path}", text.len())?;
        }
        None => write!(out, "{text}")?,
    }
    Ok(())
}
