//! Shape properties of the paper's figures, asserted as integration tests
//! so regressions in any crate surface immediately. Absolute numbers are
//! not checked (our substrate is a simulator, not the authors' testbed);
//! orderings, regions and bounds are.

use mrts::arch::{Cycles, FabricKind, Resources};
use mrts::baselines::{LooselyCoupledPolicy, OfflineOptimalPolicy, OnlineOptimalPolicy};
use mrts::core::Mrts;
use mrts::ise::{Grain, Ise};
use mrts::sim::{RiscOnlyPolicy, RuntimePolicy};
use mrts::workload::{VideoModel, WorkloadModel};
use mrts_bench::Testbed;

/// The encoder of the evaluation over the paper video (seed 1).
fn h264() -> Testbed {
    Testbed::new("h264", 1)
}

/// The three case-study ISEs of Section 2 (full coverage, single copy).
fn case_study_ises(tb: &Testbed) -> [&Ise; 3] {
    let catalog = &tb.catalog;
    let deblock = tb.kernel("deblock");
    let pick = |grain: Grain| -> &Ise {
        catalog
            .ises_of(deblock)
            .iter()
            .map(|i| catalog.ise(*i).expect("dense ids"))
            .filter(|i| {
                i.grain() == grain
                    && !i.is_mono_extension()
                    && i.stage_count() == 2
                    && !i.label().contains("@sw")
            })
            .max_by_key(|i| i.risc_latency() - i.full_latency())
            .expect("variant exists")
    };
    [
        pick(Grain::FineGrained),
        pick(Grain::CoarseGrained),
        pick(Grain::MultiGrained),
    ]
}

fn reconfig_latency(ise: &Ise) -> Cycles {
    let mut fg = Cycles::ZERO;
    let mut cg = Cycles::ZERO;
    for s in ise.stages() {
        match s.fabric {
            FabricKind::FineGrained => fg += s.load_duration,
            FabricKind::CoarseGrained => cg += s.load_duration,
        }
    }
    fg.max(cg)
}

#[test]
fn fig1_regions_appear_in_paper_order() {
    let tb = h264();
    let [ise1, ise2, ise3] = case_study_ises(&tb);
    let recfg = [
        reconfig_latency(ise1),
        reconfig_latency(ise2),
        reconfig_latency(ise3),
    ];
    let mut regions: Vec<usize> = Vec::new();
    for e in (250..=50_000u64).step_by(250) {
        let pifs = [
            ise1.performance_improvement_factor(e, recfg[0]),
            ise2.performance_improvement_factor(e, recfg[1]),
            ise3.performance_improvement_factor(e, recfg[2]),
        ];
        let best = (0..3)
            .max_by(|a, b| pifs[*a].total_cmp(&pifs[*b]))
            .expect("three");
        if regions.last() != Some(&best) {
            regions.push(best);
        }
    }
    // Paper Fig. 1: CG best at low counts, then MG, then FG.
    assert_eq!(regions, vec![1, 2, 0], "region order ISE-2, ISE-3, ISE-1");
    // The FG ISE's asymptote is the highest (it has the best latency).
    assert!(ise1.full_latency() < ise3.full_latency());
    assert!(ise3.full_latency() < ise2.full_latency());
    // ... and its reconfiguration the slowest by orders of magnitude.
    assert!(recfg[0].get() > recfg[1].get() * 1_000);
}

#[test]
fn fig2_best_ise_changes_across_frames() {
    let tb = h264();
    let deblock = usize::from(tb.kernel("deblock").index());
    let ises = case_study_ises(&tb);
    let recfg: Vec<Cycles> = ises.iter().map(|i| reconfig_latency(i)).collect();
    let mut labels = std::collections::BTreeSet::new();
    for frame in VideoModel::paper_default(1).frames() {
        let e = tb.model.kernel_executions(&frame)[deblock];
        let best = (0..3)
            .max_by(|a, b| {
                ises[*a]
                    .performance_improvement_factor(e, recfg[*a])
                    .total_cmp(&ises[*b].performance_improvement_factor(e, recfg[*b]))
            })
            .expect("three");
        labels.insert(best);
    }
    assert!(
        labels.len() >= 2,
        "the performance-wise best ISE must change across frames: {labels:?}"
    );
}

/// Total execution time of one policy on one fabric combination.
fn run(tb: &Testbed, combo: Resources, p: &mut dyn RuntimePolicy) -> u64 {
    tb.run(combo, p).total_execution_time().get()
}

#[test]
fn fig8_orderings_and_applicability() {
    let tb = h264();
    let (catalog, totals) = (&tb.catalog, &tb.totals);

    // MG machine: mRTS beats both static schemes clearly.
    let combo = Resources::new(2, 2);
    let capacity = tb.machine(combo).capacity();
    let mrts = run(&tb, combo, &mut Mrts::new());
    let offline = run(
        &tb,
        combo,
        &mut OfflineOptimalPolicy::new(catalog, capacity, totals),
    );
    let morpheus = run(
        &tb,
        combo,
        &mut LooselyCoupledPolicy::new(catalog, capacity, totals),
    );
    assert!(
        mrts as f64 * 1.25 < offline as f64,
        "mRTS well ahead of offline-optimal"
    );
    assert!(
        mrts as f64 * 1.25 < morpheus as f64,
        "mRTS well ahead of Morpheus/4S"
    );

    // Applicability (Section 5.2): on a single-fabric machine mRTS
    // collapses to the loosely coupled paradigm — results become similar.
    let fg_only = Resources::prc_only(2);
    let cap_fg = tb.machine(fg_only).capacity();
    let mrts_fg = run(&tb, fg_only, &mut Mrts::new()) as f64;
    let morph_fg = run(
        &tb,
        fg_only,
        &mut LooselyCoupledPolicy::new(catalog, cap_fg, totals),
    ) as f64;
    let ratio = morph_fg / mrts_fg;
    assert!(
        ratio < 1.45,
        "single-fabric gap should shrink towards parity: {ratio}"
    );
}

#[test]
fn fig9_heuristic_close_to_optimal_in_improvement_terms() {
    let tb = h264();
    let risc = run(&tb, Resources::NONE, &mut RiscOnlyPolicy::new()) as f64;
    let mut worst: f64 = 0.0;
    for combo in [
        Resources::new(1, 1),
        Resources::new(2, 2),
        Resources::new(2, 4),
        Resources::new(0, 4),
    ] {
        let m = run(&tb, combo, &mut Mrts::new()) as f64;
        let o = run(&tb, combo, &mut OnlineOptimalPolicy::new()) as f64;
        let gap = ((risc - o) - (risc - m)) / (risc - o) * 100.0;
        worst = worst.max(gap);
    }
    // Paper Fig. 9: worst ≈ 11%. Allow slack; the property is boundedness.
    assert!(worst < 15.0, "heuristic-vs-optimal gap {worst}% too large");
}

#[test]
fn fig10_speedups_by_grain_group() {
    let tb = h264();
    let risc = run(&tb, Resources::NONE, &mut RiscOnlyPolicy::new()) as f64;
    let speedup = |combo| risc / run(&tb, combo, &mut Mrts::new()) as f64;

    let fg3 = speedup(Resources::prc_only(3));
    let mg11 = speedup(Resources::new(1, 1));
    let mg43 = speedup(Resources::new(4, 3));
    // FG-only lands in a moderate band (paper: 1.8–2.2x; our fabric model
    // is somewhat stronger, so allow up to 3x).
    assert!((1.5..=3.2).contains(&fg3), "FG-only speedup {fg3}");
    // The big MG machine is the best configuration measured (paper: >5x).
    assert!(mg43 > 4.0, "large MG machine speedup {mg43}");
    assert!(mg43 > fg3 + 1.0, "MG clearly above FG-only");
    // A small mixed machine beats a same-size FG-only machine (paper's
    // 1 PRC + 1 CG vs 3 PRCs argument).
    assert!(mg11 > fg3, "1 CG + 1 PRC ({mg11}) must beat 3 PRCs ({fg3})");
}

#[test]
fn section_5_4_overhead_bounds() {
    let mut mrts = Mrts::new();
    let stats = h264().run(Resources::new(2, 2), &mut mrts);
    assert!(
        mrts.avg_selection_cycles_per_kernel() < 3_000.0,
        "selection cost per kernel: {}",
        mrts.avg_selection_cycles_per_kernel()
    );
    assert!(
        stats.overhead_fraction() < 0.019,
        "charged overhead stays below the paper's 1.9%: {}",
        stats.overhead_fraction()
    );
}

#[test]
fn search_space_exceeds_the_papers_78_million() {
    let tb = h264();
    let biggest = &tb.model.application().blocks()[1];
    assert!(biggest.kernels.len() >= 7);
    assert!(tb.catalog.combination_count(&biggest.kernels) > 78_000_000);
}

// --- Properties of the builtin workload models ----------------------------

#[test]
fn encoder_structure_matches_the_paper() {
    // "three functional blocks where the biggest one contains more than
    // six kernels"
    let tb = h264();
    let app = tb.model.application();
    assert_eq!(app.blocks().len(), 3, "three functional blocks");
    let biggest = app.blocks().iter().map(|b| b.kernels.len()).max();
    assert!(biggest > Some(6), "biggest block has more than six kernels");
    assert_eq!(app.kernel_count(), 11);
    assert_eq!(tb.catalog.kernels().len(), 11);
    // The deblock kernel offers FG-only, CG-only and MG variants (the
    // paper's ISE-1 / ISE-2 / ISE-3).
    let grains: Vec<Grain> = tb
        .catalog
        .ises_of(tb.kernel("deblock"))
        .iter()
        .map(|i| tb.catalog.ise(*i).expect("dense ids").grain())
        .collect();
    for grain in [
        Grain::FineGrained,
        Grain::CoarseGrained,
        Grain::MultiGrained,
    ] {
        assert!(grains.contains(&grain), "deblock lacks a {grain:?} variant");
    }
}

#[test]
fn deblock_counts_track_content() {
    let tb = h264();
    let deblock = usize::from(tb.kernel("deblock").index());
    let counts: Vec<u64> = VideoModel::paper_default(1)
        .frames()
        .iter()
        .map(|f| tb.model.kernel_executions(f)[deblock])
        .collect();
    // The fast-pan scene (frames 4..8) filters more edges than the static
    // scene (frames 0..4); compare non-intra frames.
    assert!(
        counts[6] > counts[2],
        "busy {} vs calm {}",
        counts[6],
        counts[2]
    );
    // Counts land in the Fig. 2 order of magnitude (CIF) ...
    for &e in &counts {
        assert!((400..=8_000).contains(&e), "deblock count {e} out of range");
    }
    // ... and fluctuate frame to frame.
    let distinct: std::collections::BTreeSet<u64> = counts.iter().copied().collect();
    assert!(
        distinct.len() > 8,
        "per-frame counts barely vary: {counts:?}"
    );
}

#[test]
fn scene_change_boosts_intra_work() {
    let tb = h264();
    let frames = VideoModel::paper_default(1).frames();
    let intra = tb.model.kernel_executions(&frames[4]); // scene change
    let inter = tb.model.kernel_executions(&frames[5]);
    let ipred = usize::from(tb.kernel("ipred").index());
    let sad = usize::from(tb.kernel("sad16").index());
    assert!(
        intra[ipred] > inter[ipred],
        "intra frame does more prediction"
    );
    assert!(
        intra[sad] < inter[sad],
        "intra frame does less motion search"
    );
}

#[test]
fn fft_and_cipher_lean_to_their_grain() {
    // The best single variant (largest saving) of every FFT kernel is never
    // FG-only — word arithmetic belongs on CG — and of every cipher kernel
    // never CG-only.
    for (app, wrong) in [
        ("fft", Grain::FineGrained),
        ("cipher", Grain::CoarseGrained),
    ] {
        let catalog = Testbed::new(app, 1).catalog;
        for k in catalog.kernels() {
            let best = catalog
                .ises_of(k.id())
                .iter()
                .map(|i| catalog.ise(*i).expect("dense ids"))
                .max_by_key(|ise| ise.risc_latency() - ise.full_latency())
                .expect("every kernel has variants");
            assert_ne!(best.grain(), wrong, "{app}: kernel {}", k.name());
        }
    }
}

#[test]
fn builtin_counts_and_gaps_are_positive() {
    let frames = VideoModel::paper_default(2).frames();
    for app in ["h264", "fft", "cipher"] {
        let model = mrts::ingest::model(app).expect("builtin lowers");
        for f in &frames {
            assert!(model.kernel_executions(f).iter().all(|&c| c > 0), "{app}");
        }
        for k in 0..model.application().kernel_count() {
            let gap = model.kernel_gap(mrts::ise::KernelId(k as u16));
            assert!(gap > Cycles::ZERO, "{app}: kernel {k}");
        }
    }
}

// --- The video-driven trace ------------------------------------------------

#[test]
fn trace_is_frames_times_blocks() {
    let trace = h264().trace;
    assert_eq!(trace.len(), 16 * 3);
    let acts = trace.activations();
    let blocks: Vec<u16> = acts[..3].iter().map(|a| a.block.0).collect();
    assert_eq!(blocks, [0, 1, 2]);
    assert_eq!(acts[3].frame, 1);
}

#[test]
fn forecast_is_the_static_profiling_mean_while_actual_varies() {
    let tb = h264();
    let deblock = tb.kernel("deblock");
    let loop_filter: Vec<_> = tb
        .trace
        .activations()
        .iter()
        .filter(|a| a.block.0 == 2)
        .collect();
    let forecasts: Vec<u64> = loop_filter
        .iter()
        .map(|a| {
            a.forecast
                .trigger_for(deblock)
                .expect("announced")
                .expected_executions
        })
        .collect();
    assert!(
        forecasts.windows(2).all(|w| w[0] == w[1]),
        "compile-time forecast must be identical across activations"
    );
    let actuals: Vec<u64> = loop_filter
        .iter()
        .map(|a| a.activity_of(deblock).expect("executed").executions)
        .collect();
    assert!(
        actuals.windows(2).any(|w| w[0] != w[1]),
        "actual counts must vary with input data"
    );
    let mean = tb.trace.mean_executions(deblock);
    assert!(
        (forecasts[0] as f64 - mean).abs() <= mean * 0.05 + 1.0,
        "forecast {} should approximate the mean {mean}",
        forecasts[0]
    );
    assert_eq!(
        tb.trace.total_executions(deblock),
        actuals.iter().sum::<u64>()
    );
    // A kernel the trace never runs reads zero.
    assert_eq!(tb.trace.total_executions(mrts::ise::KernelId(99)), 0);
    assert_eq!(tb.trace.mean_executions(mrts::ise::KernelId(99)), 0.0);
}
