//! `bench_suite` — perf-regression tracking for the harness itself.
//!
//! Unlike the figure binaries (which verify the *paper's* numbers), this
//! binary times the *reproduction*: the Fig. 8 fabric sweep serial vs.
//! parallel, the per-selection cost of the lazy-greedy selector vs. the
//! full-rescan oracle, and raw simulator throughput. It writes the
//! measurements to `BENCH_perf.json` (schema: a list of `{name, value,
//! unit, threads, seed}` entries) so every future PR has a perf
//! trajectory to diff against.
//!
//! Flags:
//!
//! * `--quick`    — reduced workload for CI smoke runs (small sweep,
//!   few repetitions); entry names are unchanged so diffs line up.
//! * `--threads N` / `MRTS_BENCH_THREADS=N` — worker count for the
//!   parallel sweep measurement (the serial one always uses 1).
//! * `--out PATH` — where to write the JSON (default `BENCH_perf.json`).
//! * `--compare PATH` — perf-regression guard: read a baseline
//!   `BENCH_perf.json` and exit non-zero if `engine_step_us`,
//!   `simulator_throughput` or `fleet_sessions_per_sec` regressed by more
//!   than 25 % (a deliberately tolerant threshold — CI boxes are noisy,
//!   single-CPU).
//!
//! Wall-clock numbers depend on the machine; the `*_evals` entries are
//! deterministic and act as machine-independent regression tripwires.
//! The engine/simulator/multitask wall numbers are the **minimum** over
//! repetitions, not the mean: on a time-shared box, scheduling noise is
//! strictly additive, so the minimum is the standard robust estimator of
//! the code's actual cost (the mean drifts with background load).

use std::fmt::Write as _;
use std::time::Instant;

use mrts_arch::{ArchParams, Cycles, ReconfigurationController, Resources};
use mrts_bench::{fig8_combos, par, print_header, Testbed, DEFAULT_SEED};
use mrts_core::selector::{select_ises, SelectorConfig};
use mrts_core::{Mrts, MrtsConfig, PrefetchConfig};
use mrts_fleet::{run_fleet, AppRegistry, FleetConfig, PoissonConfig};
use mrts_ise::{BlockId, IseCatalog, TriggerBlock, TriggerInstruction, UnitId};
use mrts_multitask::{run_multitask, MultitaskConfig, TenantSpec};
use mrts_sim::{ExecClass, KernelStats, Simulator, Timeline, VecSink};

/// One measurement row of `BENCH_perf.json`.
struct Entry {
    name: &'static str,
    value: f64,
    unit: &'static str,
    threads: usize,
}

fn forecast(catalog: &IseCatalog, kernels: usize) -> TriggerBlock {
    let triggers = catalog
        .kernels()
        .iter()
        .take(kernels)
        .map(|k| TriggerInstruction::new(k.id(), 4_000, Cycles::new(1_000), Cycles::new(300)))
        .collect();
    TriggerBlock::new(BlockId(0), triggers)
}

fn none_resident(_: UnitId) -> bool {
    false
}

/// Times `select_ises` on the standard encoder catalogue (7 kernels,
/// the largest Fig. 8 machine: 4 CG + 3 PRCs, where the selection runs
/// several commit rounds and the lazy evaluation saving is visible) and
/// returns `(mean_us, candidates_evaluated)` for one configuration.
fn time_selection(catalog: &IseCatalog, config: &SelectorConfig, reps: usize) -> (f64, f64) {
    let block = forecast(catalog, 7);
    let rc = ReconfigurationController::new();
    let budget = Resources::new(4, 3);
    let sel = select_ises(
        catalog,
        &block,
        budget,
        &none_resident,
        &rc,
        Cycles::ZERO,
        config,
    );
    let start = Instant::now();
    for _ in 0..reps {
        let s = select_ises(
            catalog,
            &block,
            budget,
            &none_resident,
            &rc,
            Cycles::ZERO,
            config,
        );
        assert_eq!(s.candidates_evaluated, sel.candidates_evaluated);
    }
    let mean_us = start.elapsed().as_secs_f64() * 1e6 / reps as f64;
    (mean_us, sel.candidates_evaluated as f64)
}

#[allow(clippy::cast_precision_loss, clippy::too_many_lines)]
fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .map_or_else(
            || {
                args.iter()
                    .find_map(|a| a.strip_prefix("--out=").map(str::to_owned))
            },
            |i| args.get(i + 1).cloned(),
        )
        .unwrap_or_else(|| "BENCH_perf.json".to_owned());
    let compare_path = args.iter().position(|a| a == "--compare").map_or_else(
        || {
            args.iter()
                .find_map(|a| a.strip_prefix("--compare=").map(str::to_owned))
        },
        |i| args.get(i + 1).cloned(),
    );

    print_header(
        "bench_suite",
        if quick {
            "harness perf tracking (--quick: CI smoke workload)"
        } else {
            "harness perf tracking (sweep, selection, simulator)"
        },
        DEFAULT_SEED,
    );

    let tb = Testbed::new("h264", DEFAULT_SEED);
    let config = par::ThreadConfig::from_env_and_args();
    let combos = {
        let all = fig8_combos();
        if quick {
            all.into_iter().take(6).collect::<Vec<_>>()
        } else {
            all
        }
    };
    let par_threads = config.effective(combos.len());
    let mut entries: Vec<Entry> = Vec::new();

    // --- 1. Fig. 8 sweep: serial vs parallel wall-clock -----------------
    let serial_start = Instant::now();
    let serial = par::map_ordered(1, &combos, |_, &c| tb.run_fig8_contenders(c));
    let serial_ms = serial_start.elapsed().as_secs_f64() * 1e3;
    entries.push(Entry {
        name: "fig8_sweep_serial_ms",
        value: serial_ms,
        unit: "ms",
        threads: 1,
    });
    if par_threads > 1 {
        let par_start = Instant::now();
        let parallel = par::map_ordered(par_threads, &combos, |_, &c| tb.run_fig8_contenders(c));
        let par_ms = par_start.elapsed().as_secs_f64() * 1e3;
        // Determinism cross-check while we have both result sets in hand.
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(
                s.4.total_execution_time(),
                p.4.total_execution_time(),
                "parallel sweep diverged from serial"
            );
        }
        let speedup = serial_ms / par_ms.max(1e-9);
        println!(
            "fig8 sweep ({} combos): serial {serial_ms:>8.1} ms, parallel {par_ms:>8.1} ms \
             ({par_threads} threads, {speedup:.2}x)",
            combos.len()
        );
        entries.push(Entry {
            name: "fig8_sweep_parallel_ms",
            value: par_ms,
            unit: "ms",
            threads: par_threads,
        });
        entries.push(Entry {
            name: "fig8_sweep_speedup",
            value: speedup,
            unit: "x",
            threads: par_threads,
        });
    } else {
        // One worker: `par::map_ordered` would take the very same serial
        // path, so a second timed pass measures nothing but allocator and
        // cache noise — on single-CPU boxes it used to print a sub-1.0
        // "speedup" that `--compare` could mistake for a regression. Skip
        // the pass and the `fig8_sweep_parallel_ms` / `fig8_sweep_speedup`
        // entries entirely (diff tools treat absent entries as skipped).
        println!(
            "fig8 sweep ({} combos): serial {serial_ms:>8.1} ms \
             (1 thread — parallel pass and speedup entries skipped)",
            combos.len()
        );
    }

    // --- 2. Per-selection cost: lazy-greedy vs full-rescan oracle -------
    let reps = if quick { 50 } else { 2_000 };
    let (lazy_us, lazy_evals) = time_selection(&tb.catalog, &SelectorConfig::default(), reps);
    let (full_us, full_evals) = time_selection(
        &tb.catalog,
        &SelectorConfig {
            full_rescan: true,
            ..SelectorConfig::default()
        },
        reps,
    );
    println!(
        "selection (7 kernels, 4 CG + 3 PRC, {reps} reps): lazy {lazy_us:>7.2} us \
         ({lazy_evals:.0} evals), full-rescan {full_us:>7.2} us ({full_evals:.0} evals)"
    );
    entries.push(Entry {
        name: "selection_lazy_us",
        value: lazy_us,
        unit: "us",
        threads: 1,
    });
    entries.push(Entry {
        name: "selection_full_rescan_us",
        value: full_us,
        unit: "us",
        threads: 1,
    });
    entries.push(Entry {
        name: "selection_lazy_evals",
        value: lazy_evals,
        unit: "evals",
        threads: 1,
    });
    entries.push(Entry {
        name: "selection_full_rescan_evals",
        value: full_evals,
        unit: "evals",
        threads: 1,
    });

    // --- 3. Simulator throughput (whole-trace mRTS run) -----------------
    // Setup (machine + policy construction) happens outside the timed
    // region — this entry tracks steady-state stepping throughput, and
    // one-time construction cost would otherwise dominate the short trace.
    let sim_reps = if quick { 10 } else { 15 };
    let combo = Resources::new(2, 2);
    let mut per_run = f64::MAX;
    for _ in 0..sim_reps {
        let mut policy = Mrts::new();
        let mut sim = Simulator::new(&tb.catalog, tb.machine(combo));
        let t = Instant::now();
        let stats = sim.run_trace(&tb.trace, &mut policy);
        sim.finish_events();
        per_run = per_run.min(t.elapsed().as_secs_f64());
        assert!(stats.total_busy().get() > 0);
    }
    let blocks_per_s = tb.trace.len() as f64 / per_run.max(1e-12);
    println!(
        "simulator: {} blocks in {:.1} ms per run -> {blocks_per_s:>10.0} blocks/s",
        tb.trace.len(),
        per_run * 1e3
    );
    entries.push(Entry {
        name: "simulator_throughput",
        value: blocks_per_s,
        unit: "blocks/s",
        threads: 1,
    });

    // --- 3b. Engine step cost: the Timeline stepping core ---------------
    // Per-block-activation cost of `Simulator::step_activation` (clock
    // advance, boundary queue, epoch scan) measured twice: bare, and with
    // a `VecSink` attached so the event-spine overhead is visible as its
    // own number. The two runs must produce identical `RunStats` — the
    // sink is observation only.
    let step_reps = if quick { 10 } else { 15 };
    let mut bare_secs = f64::MAX;
    let mut recorded_secs = f64::MAX;
    let mut spine_events = 0usize;
    for _ in 0..step_reps {
        let mut policy = Mrts::new();
        let mut sim = Simulator::new(&tb.catalog, tb.machine(combo));
        let t = Instant::now();
        let bare = sim.run_trace(&tb.trace, &mut policy);
        sim.finish_events();
        bare_secs = bare_secs.min(t.elapsed().as_secs_f64());

        let mut policy = Mrts::new();
        let mut sim = Simulator::new(&tb.catalog, tb.machine(combo));
        let sink = VecSink::new();
        sim.attach_events(0, Box::new(sink.clone()));
        let t = Instant::now();
        let recorded = sim.run_trace(&tb.trace, &mut policy);
        sim.finish_events();
        recorded_secs = recorded_secs.min(t.elapsed().as_secs_f64());
        assert_eq!(bare, recorded, "event recording perturbed the run");
        spine_events = sink.len();
    }
    let steps = tb.trace.len() as f64;
    let engine_step_us = bare_secs * 1e6 / steps;
    let engine_step_recorded_us = recorded_secs * 1e6 / steps;
    println!(
        "engine: {:.2} us/step bare, {engine_step_recorded_us:.2} us/step recording \
         ({spine_events} spine events per run)",
        engine_step_us
    );
    entries.push(Entry {
        name: "engine_step_us",
        value: engine_step_us,
        unit: "us",
        threads: 1,
    });
    entries.push(Entry {
        name: "engine_step_recorded_us",
        value: engine_step_recorded_us,
        unit: "us",
        threads: 1,
    });

    // --- 3c. Timeline boundary-queue insert cost ------------------------
    // Deterministic pseudo-random inserts (LCG) into one block's boundary
    // queue — the workload whose former binary-search-insert Vec paid
    // O(queue) per insert; the calendar buckets pay amortised O(1).
    let ins_n: u64 = if quick { 2_000 } else { 20_000 };
    let ins_reps = if quick { 3 } else { 20 };
    let mut timeline_insert_ns = f64::MAX;
    let mut distinct = 0usize;
    for _ in 0..ins_reps {
        let mut tl = Timeline::new();
        tl.begin_block();
        let mut x = DEFAULT_SEED | 1;
        let t = Instant::now();
        for _ in 0..ins_n {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            // ~18-bit range — the calendar's direct-mapped window
            // (64 × 4096-cycle buckets), i.e. the designed per-block
            // spread; dense enough for occasional dedup hits.
            tl.push_boundary(Cycles::new(x >> 46));
        }
        timeline_insert_ns = timeline_insert_ns.min(t.elapsed().as_secs_f64() * 1e9 / ins_n as f64);
        distinct = tl.boundary_count();
    }
    println!(
        "timeline: {ins_n} boundary inserts ({distinct} distinct) -> {timeline_insert_ns:>6.1} ns/insert"
    );
    entries.push(Entry {
        name: "timeline_insert_ns",
        value: timeline_insert_ns,
        unit: "ns",
        threads: 1,
    });

    // --- 3d. SoA epoch-batch fold cost ----------------------------------
    // Folding one kernel's buffered epoch batches (SoA rows of class /
    // count / per-exec latency) into `KernelStats` with bulk arithmetic —
    // the per-kernel tail of `simulate_kernel`.
    let rows = 256usize;
    let classes: Vec<ExecClass> = (0..rows)
        .map(|i| ExecClass::ALL[i % ExecClass::ALL.len()])
        .collect();
    let counts: Vec<u64> = (0..rows).map(|i| 100 + (i as u64 % 37)).collect();
    let lats: Vec<Cycles> = (0..rows)
        .map(|i| Cycles::new(200 + (i as u64 % 101)))
        .collect();
    let fold_outer = if quick { 20 } else { 200 };
    let fold_batch = 32usize;
    let mut epoch_batch_fold_us = f64::MAX;
    for _ in 0..fold_outer {
        let mut ks = KernelStats::default();
        let t = Instant::now();
        for _ in 0..fold_batch {
            std::hint::black_box(ks.record_batch(&classes, &counts, &lats));
        }
        epoch_batch_fold_us =
            epoch_batch_fold_us.min(t.elapsed().as_secs_f64() * 1e6 / fold_batch as f64);
        std::hint::black_box(&ks);
    }
    println!("epoch fold: {rows}-row SoA batch -> {epoch_batch_fold_us:>6.3} us/fold");
    entries.push(Entry {
        name: "epoch_batch_fold_us",
        value: epoch_batch_fold_us,
        unit: "us",
        threads: 1,
    });

    // --- 4. Multi-tenant scheduler step cost ----------------------------
    // One "step" of the multi-tenant runner = one scheduler dispatch + one
    // non-preemptible block simulated on the picked tenant's machine. A
    // 2-tenant FFT/cipher mix keeps this measurement light while still
    // exercising the arbiter, the WFQ scheduler and two live mRTS
    // instances. The makespan is deterministic and acts as the
    // machine-independent tripwire next to the wall-clock entry.
    let mt_apps = [
        Testbed::new("fft", DEFAULT_SEED),
        Testbed::new("cipher", DEFAULT_SEED + 1),
    ];
    let mt_specs: Vec<TenantSpec<'_>> = mt_apps
        .iter()
        .map(|a| TenantSpec::new(a.name(), &a.catalog, &a.trace))
        .collect();
    let mt_cfg = MultitaskConfig::default();
    let mt_blocks: usize = mt_apps.iter().map(|a| a.trace.len()).sum();
    let mt_reps = if quick { 2 } else { 10 };
    let time_mt = |cfg: &MultitaskConfig| {
        let mut best = f64::MAX;
        let mut stats = None;
        for _ in 0..mt_reps {
            let t = Instant::now();
            let s = run_multitask(ArchParams::default(), Resources::new(2, 2), &mt_specs, cfg)
                .expect("multitask run succeeds");
            best = best.min(t.elapsed().as_secs_f64());
            stats = Some(s);
        }
        (best, stats.expect("at least one rep"))
    };
    let (mt_per_run, mt_stats) = time_mt(&mt_cfg);
    let mt_makespan = mt_stats.makespan;
    let mt_step_us = mt_per_run * 1e6 / mt_blocks as f64;
    println!(
        "multitask: 2 tenants, {mt_blocks} scheduler steps in {:.1} ms per run \
         -> {mt_step_us:>7.2} us/step (makespan {:.3} Mcycles)",
        mt_per_run * 1e3,
        mt_makespan.as_mcycles()
    );
    entries.push(Entry {
        name: "multitask_step_us",
        value: mt_step_us,
        unit: "us",
        threads: 1,
    });
    entries.push(Entry {
        name: "multitask_makespan_mcycles",
        value: mt_makespan.as_mcycles(),
        unit: "Mcycles",
        threads: 1,
    });

    // --- 4b. Intra-run parallel setup speedup ---------------------------
    // The same 2-tenant run with the runner's setup barrier striped over
    // 4 scoped workers (per-tenant RISC baselines + demand suffixes). The
    // stats must stay byte-identical; the speedup is bounded by the
    // setup share of the run and by the machine's core count (≈1.0 on the
    // single-CPU CI box — the entry tracks that it never *costs*).
    let mt_par_cfg = MultitaskConfig {
        workers: 4,
        ..MultitaskConfig::default()
    };
    let (mt_par_run, mt_par_stats) = time_mt(&mt_par_cfg);
    assert_eq!(
        mt_stats, mt_par_stats,
        "intra-run workers perturbed the multitask run"
    );
    // The byte-identity assertion above is the valuable part and always
    // runs; the wall-clock ratio is only a meaningful "speedup" when the
    // box actually has more than one core to stripe the workers across.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if cores > 1 {
        let mt_parallel_speedup = mt_per_run / mt_par_run.max(1e-12);
        println!(
            "multitask workers=4: {:.1} ms per run -> {mt_parallel_speedup:.2}x vs serial \
             (byte-identical stats)",
            mt_par_run * 1e3
        );
        entries.push(Entry {
            name: "multitask_parallel_speedup",
            value: mt_parallel_speedup,
            unit: "x",
            threads: 4,
        });
    } else {
        println!(
            "multitask workers=4: {:.1} ms per run (byte-identical stats; \
             single CPU — speedup entry skipped)",
            mt_par_run * 1e3
        );
    }

    // --- 4c. Fleet driver throughput ------------------------------------
    // Sessions retired per wall-clock second by the `mrts-fleet` open-loop
    // driver on its default config (2 fabrics x 4 lanes, toy sessions,
    // Poisson arrivals): arrival generation + admission + placement +
    // shard stepping + stats folding, end to end. The accepted count is
    // the deterministic machine-independent tripwire next to the
    // wall-clock rate.
    let fl_sessions = if quick { 500 } else { 2_000 };
    let fl_registry = AppRegistry::new(&ArchParams::default(), &["toy"], 4, DEFAULT_SEED, 40)
        .expect("toy registry");
    let fl_records = mrts_fleet::poisson_arrivals(&PoissonConfig {
        sessions: fl_sessions,
        ..PoissonConfig::default()
    });
    let fl_cfg = FleetConfig::default();
    let fl_reps = if quick { 2 } else { 5 };
    let mut fl_secs = f64::MAX;
    let mut fl_accepted = 0u64;
    for _ in 0..fl_reps {
        let t = Instant::now();
        let out = run_fleet(&ArchParams::default(), &fl_registry, &fl_records, &fl_cfg)
            .expect("fleet run succeeds");
        fl_secs = fl_secs.min(t.elapsed().as_secs_f64());
        fl_accepted = out.stats.accepted;
    }
    let fleet_sessions_per_sec = fl_accepted as f64 / fl_secs.max(1e-12);
    println!(
        "fleet: {fl_sessions} toy sessions over 2 fabrics in {:.1} ms per run \
         -> {fleet_sessions_per_sec:>8.0} sessions/s ({fl_accepted} accepted)",
        fl_secs * 1e3
    );
    entries.push(Entry {
        name: "fleet_sessions_per_sec",
        value: fleet_sessions_per_sec,
        unit: "sessions/s",
        threads: 1,
    });
    entries.push(Entry {
        name: "fleet_accepted_sessions",
        value: fl_accepted as f64,
        unit: "sessions",
        threads: 1,
    });

    // --- 5. Speculative prefetch: hit rate and end-to-end speedup -------
    // Trigger-time mRTS vs the same run-time system with the speculative
    // prefetcher armed, on a fabric with spare PRCs (speculation only
    // takes slots the committed plan left free, so the paper-sized 2+2
    // machine would never issue). Both numbers are deterministic,
    // machine-independent tripwires: the hit rate pins the predictor +
    // judgment pipeline, the speedup pins the never-slower guarantee
    // (engine rolls back to exact trigger-time state on misprediction).
    let pf_combo = Resources::new(2, 16);
    let base_stats = {
        let mut policy = Mrts::new();
        let mut sim = Simulator::new(&tb.catalog, tb.machine(pf_combo));
        sim.run_trace(&tb.trace, &mut policy)
    };
    let pf_cfg = MrtsConfig {
        prefetch: PrefetchConfig {
            enabled: true,
            confidence_min: 0.5,
            ..PrefetchConfig::default()
        },
        ..MrtsConfig::default()
    };
    let mut pf_sim = Simulator::new(&tb.catalog, tb.machine(pf_combo));
    let pf_stats = pf_sim.run_trace(&tb.trace, &mut Mrts::with_config(pf_cfg));
    pf_sim.finish_events(); // close end-of-trace speculations as wasted
    let pf = pf_sim.prefetch_stats();
    let prefetch_speedup = base_stats.total_execution_time().get() as f64
        / pf_stats.total_execution_time().get().max(1) as f64;
    assert!(
        prefetch_speedup >= 1.0,
        "prefetch-on run slower than trigger-time ({prefetch_speedup:.4}x)"
    );
    println!(
        "prefetch (2 CG + 16 PRC): {} issued, {} hits ({:.0}% hit rate), \
         {} wasted -> {prefetch_speedup:.4}x vs trigger-time",
        pf.issued,
        pf.hits,
        100.0 * pf.hit_rate(),
        pf.wasted
    );
    entries.push(Entry {
        name: "prefetch_hit_rate",
        value: pf.hit_rate(),
        unit: "ratio",
        threads: 1,
    });
    entries.push(Entry {
        name: "prefetch_speedup",
        value: prefetch_speedup,
        unit: "x",
        threads: 1,
    });

    // --- 6. Ingestion pipeline: manifest -> application lowering --------
    // Full front-end cost for the largest builtin manifest (h264: 11
    // kernels, 13 functional blocks): validation, dead-op elimination,
    // clustering and application construction. Deterministic work, so the
    // wall number tracks the pass pipeline itself.
    let ing_reps = if quick { 20 } else { 500 };
    let ing_manifest = mrts_ingest::builtin::load("h264").expect("builtin h264 manifest");
    let warm = mrts_ingest::lower(&ing_manifest).expect("h264 manifest lowers");
    let ing_start = Instant::now();
    for _ in 0..ing_reps {
        let l = mrts_ingest::lower(&ing_manifest).expect("h264 manifest lowers");
        assert_eq!(l.app.kernel_count(), warm.app.kernel_count());
    }
    let ingest_lower_us = ing_start.elapsed().as_secs_f64() * 1e6 / ing_reps as f64;
    println!(
        "ingest: h264 manifest ({} kernels) lowered in {ingest_lower_us:>7.2} us \
         ({} dead ops removed)",
        warm.app.kernel_count(),
        warm.dce.removed_ops
    );
    entries.push(Entry {
        name: "ingest_lower_us",
        value: ingest_lower_us,
        unit: "us",
        threads: 1,
    });

    // --- 6b. Cross-domain simulator throughput --------------------------
    // Whole-trace mRTS runs on the two ingested domains `fig_domains`
    // sweeps (cv, cryptomix), same 2 CG + 2 PRC machine and protocol as
    // the h264 `simulator_throughput` entry — catching a throughput
    // regression that only bites a non-reference op/rate mix.
    for (spec, entry_name) in [
        ("cv", "domain_cv_throughput"),
        ("cryptomix", "domain_cryptomix_throughput"),
    ] {
        let dtb = Testbed::new(spec, DEFAULT_SEED);
        let mut per_run = f64::MAX;
        for _ in 0..sim_reps {
            let mut policy = Mrts::new();
            let mut sim = Simulator::new(&dtb.catalog, dtb.machine(combo));
            let t = Instant::now();
            let stats = sim.run_trace(&dtb.trace, &mut policy);
            sim.finish_events();
            per_run = per_run.min(t.elapsed().as_secs_f64());
            assert!(stats.total_busy().get() > 0);
        }
        let blocks_per_s = dtb.trace.len() as f64 / per_run.max(1e-12);
        println!(
            "domain '{spec}': {} blocks in {:.1} ms per run -> {blocks_per_s:>10.0} blocks/s",
            dtb.trace.len(),
            per_run * 1e3
        );
        entries.push(Entry {
            name: entry_name,
            value: blocks_per_s,
            unit: "blocks/s",
            threads: 1,
        });
    }

    // --- Write BENCH_perf.json (stable field order, hand-rendered) ------
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"suite\": \"mrts-bench\",");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"entries\": [");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"name\": \"{}\", \"value\": {:.3}, \"unit\": \"{}\", \
             \"threads\": {}, \"seed\": {} }}{comma}",
            e.name, e.value, e.unit, e.threads, DEFAULT_SEED
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_perf.json");
    println!("{}", "-".repeat(64));
    println!("wrote {} entries to {out_path}", entries.len());

    // --- Perf-regression guard (`--compare BASELINE.json`) --------------
    if let Some(path) = compare_path {
        let baseline =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("--compare {path}: {e}"));
        let mut failed = false;
        // (entry, higher-is-better). 25 % tolerance: CI boxes are noisy
        // single-CPU machines; this catches structural regressions, not
        // scheduling jitter.
        for (name, higher_is_better) in [
            ("engine_step_us", false),
            ("simulator_throughput", true),
            ("fleet_sessions_per_sec", true),
            ("ingest_lower_us", false),
            ("domain_cv_throughput", true),
            ("domain_cryptomix_throughput", true),
        ] {
            let Some(old) = baseline_value(&baseline, name) else {
                println!("compare: baseline has no '{name}' entry — skipped");
                continue;
            };
            let Some(new) = entries.iter().find(|e| e.name == name).map(|e| e.value) else {
                continue;
            };
            let ok = if higher_is_better {
                new >= old * 0.75
            } else {
                new <= old * 1.25
            };
            println!(
                "compare: {name:<22} baseline {old:>12.3}, now {new:>12.3} -> {}",
                if ok { "ok" } else { "REGRESSION (>25%)" }
            );
            failed |= !ok;
        }
        if failed {
            println!("perf-regression guard FAILED against {path}");
            std::process::exit(1);
        }
        println!("perf-regression guard passed against {path}");
    }
}

/// Extracts `value` of the entry called `name` from a `BENCH_perf.json`
/// rendered by this binary (one entry object per line — the schema is our
/// own, so a line scan beats a JSON dependency).
fn baseline_value(json: &str, name: &str) -> Option<f64> {
    let needle = format!("\"name\": \"{name}\"");
    for line in json.lines() {
        if line.contains(&needle) {
            let v = line.split("\"value\":").nth(1)?;
            return v.split(',').next()?.trim().parse().ok();
        }
    }
    None
}
