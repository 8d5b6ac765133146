//! Plan-identity properties of the layout DP's performance machinery.
//!
//! The dominance pruner is a pure optimisation: the ISSUE-10 contract is
//! that it may not change the chosen plan or its cost. This test pins that
//! contract over the canonical `phase_workloads()` suite *and* a seeded
//! sweep of generated programs — the same generator the smoke suite uses,
//! so shapes the canonical workloads miss (skewed conflicts, neutral
//! atoms) are covered too.

use bench::{random_loop_program, RandomProgramConfig};
use phases::{layout_dp_problem, DpPruning, DynamicConfig};

const NPROCS: usize = 8;

fn property_programs() -> Vec<(String, align_ir::Program)> {
    let mut programs: Vec<(String, align_ir::Program)> = align_ir::programs::phase_workloads()
        .into_iter()
        .map(|(name, p)| (name.to_owned(), p))
        .collect();
    for seed in 0..4 {
        let config = RandomProgramConfig {
            array_size: 48,
            trips: 6,
            statements: 3,
            max_shift: 4,
            allow_skew: seed % 2 == 0,
            seed,
            ..RandomProgramConfig::default()
        };
        programs.push((format!("random(seed={seed})"), random_loop_program(config)));
    }
    programs
}

/// Dominance pruning must be invisible in the answer: on every workload the
/// pruned DP (trigger 1, so the pruner runs on every layer) returns the
/// bitwise-identical cost and chosen path as the exhaustive ground truth.
#[test]
fn dominance_pruning_never_changes_the_plan() {
    let config = DynamicConfig::default();
    for (name, program) in property_programs() {
        let problem = layout_dp_problem(&program, NPROCS, &config);
        let exhaustive = problem
            .solve(config.switch_margin, DpPruning::Exhaustive)
            .unwrap_or_else(|e| panic!("{name}: exhaustive DP failed: {e}"));
        let pruned = problem
            .solve(config.switch_margin, DpPruning::Dominance { trigger: 1 })
            .unwrap_or_else(|e| panic!("{name}: pruned DP failed: {e}"));
        assert_eq!(
            pruned.chosen, exhaustive.chosen,
            "{name}: pruning changed the chosen path"
        );
        assert_eq!(
            pruned.cost.to_bits(),
            exhaustive.cost.to_bits(),
            "{name}: pruning changed the cost ({} vs {})",
            pruned.cost,
            exhaustive.cost
        );
        assert!(
            pruned
                .states_per_layer
                .iter()
                .zip(&exhaustive.states_per_layer)
                .all(|(p, e)| p <= e),
            "{name}: pruning grew a layer ({:?} vs {:?})",
            pruned.states_per_layer,
            exhaustive.states_per_layer
        );
    }
}
