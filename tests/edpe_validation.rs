//! Cross-validation of the coarse-grained cost model: every data-path
//! graph of the H.264 encoder is compiled to a CG-EDPE context program and
//! executed on the functional interpreter; the interpreter's serial cycle
//! count must bracket the analytic 2-ALU estimate, and the compiled
//! program must agree bit-for-bit with the reference graph evaluator.

use mrts::arch::ArchParams;
use mrts::ise::mapping::map_to_cg;
use mrts::sim::edpe::{compile_graph, evaluate_graph, EdpeInterpreter, EdpeState};
use mrts::workload::{Application, WorkloadModel};

/// The encoder of the evaluation, lowered from its builtin manifest.
fn encoder() -> Application {
    mrts::ingest::model("h264")
        .expect("builtin h264 lowers")
        .application()
        .clone()
}

#[test]
fn every_encoder_graph_compiles_and_matches_the_reference() {
    let params = ArchParams::default();
    let interp = EdpeInterpreter::new(params.clone());
    let app = encoder();
    let mut validated = 0usize;
    for spec in app.kernel_specs() {
        for dp in spec.data_paths() {
            let graph = &dp.graph;
            let (program, result_reg) =
                compile_graph(graph).unwrap_or_else(|e| panic!("{}: {e}", graph.name()));
            // Context programs must fit the streaming model the catalogue
            // charges for (the estimator splits longer programs).
            let imp = map_to_cg(graph, &params).unwrap_or_else(|e| panic!("{}: {e}", graph.name()));

            // Functional equivalence on a few deterministic input vectors.
            for seed in 0u32..8 {
                let inputs: Vec<u32> = (0..graph.input_count() as u32)
                    .map(|i| seed.wrapping_mul(2_654_435_761).wrapping_add(i * 97))
                    .collect();
                let mut state = EdpeState::with_inputs(&inputs);
                let out = interp
                    .execute(&program, &mut state)
                    .unwrap_or_else(|e| panic!("{}: {e}", graph.name()));
                assert_eq!(
                    out.result,
                    evaluate_graph(graph, &inputs),
                    "graph '{}' seed {seed}",
                    graph.name()
                );
                assert_eq!(out.result, state.regs[usize::from(result_reg)]);

                // Timing bracket: serial interpreter vs 2-ALU schedule.
                let est = imp.cg_cycles_per_call;
                assert!(
                    out.cycles >= est.div_ceil(2),
                    "graph '{}': interpreter {} below half the estimate {est}",
                    graph.name(),
                    out.cycles
                );
                assert!(
                    out.cycles <= est * 2 + 8,
                    "graph '{}': interpreter {} above twice the estimate {est}",
                    graph.name(),
                    out.cycles
                );
            }
            validated += 1;
        }
    }
    assert_eq!(validated, 22, "all 22 encoder data paths validated");
}

#[test]
fn instruction_counts_match_the_cost_model() {
    let params = ArchParams::default();
    let app = encoder();
    for spec in app.kernel_specs() {
        for dp in spec.data_paths() {
            let (program, _) = compile_graph(&dp.graph).expect("compiles");
            let imp = map_to_cg(&dp.graph, &params).expect("maps");
            // The estimator adds one loop-control word on top of the
            // emitted instructions.
            assert_eq!(
                program.len() as u64 + 1,
                u64::from(imp.instr_count),
                "graph '{}'",
                dp.graph.name()
            );
        }
    }
}
