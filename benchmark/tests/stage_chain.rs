//! The seeded generator behind `size_sweep`.

use align_ir::Stmt;
use benchmark::workloads::{stage_chain, StageChain};

fn chain(stages: usize, seed: u64) -> StageChain {
    StageChain {
        n: 16,
        trips: 4,
        arrays: 3,
        stages,
        seed,
    }
}

#[test]
fn same_seed_same_program_other_seed_other_program() {
    assert_eq!(stage_chain(chain(8, 11)), stage_chain(chain(8, 11)));
    let distinct = (1..=8)
        .map(|seed| format!("{:?}", stage_chain(chain(8, seed)).body))
        .collect::<std::collections::HashSet<_>>();
    assert!(
        distinct.len() >= 6,
        "8 seeds gave {} programs",
        distinct.len()
    );
}

#[test]
fn programs_validate_and_fission_into_arrays_times_stages_atoms() {
    for seed in 0..6 {
        for stages in [1, 2, 5, 12] {
            let p = stage_chain(chain(stages, seed));
            p.validate().unwrap();
            assert_eq!(p.arrays.len(), 3);
            assert_eq!(p.num_top_level_stmts(), stages);
            assert_eq!(
                p.distributable_atoms().len(),
                3 * stages,
                "seed {seed}, {stages} stages"
            );
        }
    }
}

#[test]
fn every_seed_flips_each_array_the_same_number_of_times() {
    // ceil(0.4 × 11) = 5 flips per array. A row statement assigns
    // `(1:n, 1:n-1)`, a column statement `(1:n-1, 1:n)`, so an array's
    // orientation shows in the text of its loop body (which, unlike the
    // loop, does not name the stage's induction variable).
    for seed in 0..6 {
        let p = stage_chain(chain(12, seed));
        let atoms: Vec<String> = p
            .distributable_atoms()
            .iter()
            .map(|a| match &a.stmt {
                Stmt::Loop { body, .. } => format!("{body:?}"),
                other => panic!("every atom is a loop, got {other:?}"),
            })
            .collect();
        for array in 0..3 {
            let of_array: Vec<&String> = atoms.iter().skip(array).step_by(3).collect();
            let flips = of_array.windows(2).filter(|w| w[0] != w[1]).count();
            assert_eq!(flips, 5, "seed {seed}, array {array}");
        }
    }
}
