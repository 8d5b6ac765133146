//! E7 — the five mobile-offset strategies of Section 4.2 on random loop
//! programs: solve time per strategy (quality is reported by `experiments e7`).

use adg::build_adg;
use alignment_core::axis::{solve_axes, template_rank};
use alignment_core::mobile_offset::{solve_all_offsets, MobileOffsetConfig, OffsetStrategy};
use alignment_core::stride::solve_strides;
use alignment_core::ProgramAlignment;
use bench::{random_loop_program, BenchGroup, RandomProgramConfig};
use std::collections::HashSet;
use std::time::Duration;

fn solve(adg: &adg::Adg, strategy: OffsetStrategy) {
    let t = template_rank(adg);
    let ranks: Vec<usize> = adg.port_ids().map(|p| adg.port(p).rank).collect();
    let mut a = ProgramAlignment::identity(t, &ranks);
    solve_axes(adg, &mut a);
    solve_strides(adg, &mut a);
    let reps = vec![HashSet::new(); t];
    solve_all_offsets(
        adg,
        &mut a,
        &reps,
        MobileOffsetConfig::with_strategy(strategy),
    );
}

fn main() {
    // This workload's axis-0 offset system is degenerate: until the dual
    // simplex started at its feasible origin every strategy's rounding blew
    // up here and the safety-net ladder ran on all seven (a solve was
    // 3–8 ms); now none reaches it, and `fixed_m5` is the one rounding the
    // pin-and-re-solve repair settles. The CI regression gate compares
    // against a baseline recorded on the same workload, so absolute size
    // only affects job wall-clock.
    let program = random_loop_program(RandomProgramConfig {
        seed: 3,
        trips: 12,
        statements: 3,
        ..RandomProgramConfig::default()
    });
    let adg = build_adg(&program);
    let strategies = [
        ("single_range", OffsetStrategy::SingleRange),
        ("fixed_m3", OffsetStrategy::FixedPartition(3)),
        ("fixed_m5", OffsetStrategy::FixedPartition(5)),
        (
            "zero_crossing",
            OffsetStrategy::ZeroCrossing { max_rounds: 4 },
        ),
        (
            "recursive_refinement",
            OffsetStrategy::RecursiveRefinement { max_rounds: 4 },
        ),
        (
            "state_space_search",
            OffsetStrategy::StateSpaceSearch { max_steps: 4 },
        ),
        ("unrolling", OffsetStrategy::Unrolling),
    ];
    let mut group = BenchGroup::new("offset_algorithms")
        .target_time(Duration::from_millis(100))
        .sample_bounds(3, 30);
    for (name, strategy) in strategies {
        group.bench(name, || solve(&adg, strategy));
    }
    group.finish();
}
