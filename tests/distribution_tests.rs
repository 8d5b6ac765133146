//! The distribution subsystem, end to end: golden tests pinning the chosen
//! (grid, layout) for the paper's programs, property tests on the
//! owner-computes index maps, and consistency between the ranking's exact
//! element counts and the commsim simulator.

use array_alignment::prelude::*;
use bench::Rng;
use distrib::layout::{AxisDistribution, Layout};

// ---------------------------------------------------------------------------
// Golden tests: the solver's choice for the paper's programs is pinned.
// These encode *behaviour we understood and verified by hand*: a program
// whose alignment removed all residual communication should be distributed
// by load balance alone; a stencil should land on a square-ish BLOCK grid.
// ---------------------------------------------------------------------------

#[test]
fn golden_figure1_on_16_processors() {
    let full = align_then_distribute(&programs::figure1(32), 16, &FullPipelineConfig::default());
    let best = full.best();
    // The alignment is communication-free (mobile V), so every candidate
    // moves nothing. Load balance is not priced, so the tie goes to the most
    // compact grid, BLOCK on 4x4.
    assert_eq!(
        best.distribution.grid(),
        vec![4, 4],
        "{}",
        best.distribution
    );
    assert_eq!(best.elements, 0.0, "{}", best.distribution);
    // Template covers A's rows exactly and V's reach on axis 1.
    assert_eq!(full.distribution.template_extents[0], 32);
    assert!(full.distribution.template_extents[1] >= 64);
    let space = distrib::SignatureSpace::enumerate(
        &full.distribution.template_extents,
        &SolveConfig::new(16),
    );
    assert_eq!(
        full.distribution.candidates_evaluated,
        space.total_candidates
    );
}

#[test]
fn golden_example5_on_16_processors() {
    let full = align_then_distribute(
        &programs::example5_default(),
        16,
        &FullPipelineConfig::default(),
    );
    let best = full.best();
    // 1-D template: the only grid shape is [16]; the mobile stride leaves one
    // general communication per iteration (the paper's result), which no
    // layout can remove — the layout is chosen on shift + balance and must
    // be BLOCK (cheapest boundary crossings for the residual shifts).
    assert_eq!(best.distribution.grid(), vec![16]);
    assert_eq!(
        best.distribution.layouts(),
        vec![Layout::Block],
        "{}",
        best.distribution
    );
    assert!(
        best.elements > 0.0,
        "mobile stride residual: {}",
        best.distribution
    );
}

#[test]
fn golden_stencil2d_on_16_processors() {
    let full = align_then_distribute(
        &programs::stencil2d(32, 4),
        16,
        &FullPipelineConfig::default(),
    );
    let best = full.best();
    // The textbook answer for a 5-point stencil: a square BLOCK x BLOCK grid
    // (nearest-neighbour shifts cross only block boundaries).
    assert_eq!(
        best.distribution.grid(),
        vec![4, 4],
        "{}",
        best.distribution
    );
    assert_eq!(
        best.distribution.layouts()[1],
        Layout::Block,
        "{}",
        best.distribution
    );
    // The ranking's price is the simulator's exact count.
    let exact = |d: &ProgramDistribution| {
        simulate(&full.adg, &full.alignment.alignment, d, SimOptions::exact()).total_elements()
    };
    assert_eq!(best.elements, exact(&best.distribution));
    // A cyclic-everywhere distribution must be strictly worse: every ±1
    // stencil shift would move every element.
    let all_cyclic = ProgramDistribution::new(
        &full.distribution.template_extents,
        &[4, 4],
        &[Layout::Cyclic, Layout::Cyclic],
    );
    assert!(
        exact(&all_cyclic) > best.elements,
        "cyclic {} vs best {}",
        exact(&all_cyclic),
        best.elements
    );
}

// ---------------------------------------------------------------------------
// Property tests: owner-computes index maps are bijective on local blocks.
// ---------------------------------------------------------------------------

#[test]
fn axis_local_maps_are_bijective() {
    let mut rng = Rng::new(2024);
    for case in 0..200 {
        let extent = rng.range_i64(1, 200);
        let nprocs = rng.range_usize(1, 9);
        let layout = match rng.range_usize(0, 3) {
            0 => Layout::Block,
            1 => Layout::Cyclic,
            _ => Layout::BlockCyclic(rng.range_usize(1, 12)),
        };
        let d = AxisDistribution::new(extent, nprocs, layout);
        let label = format!("case {case}: extent={extent} g={nprocs} {layout}");
        // Forward then inverse is the identity on every cell...
        let mut seen = std::collections::HashSet::new();
        for c in 0..extent {
            let (p, l) = d.to_local(c);
            assert!(p < nprocs, "{label}");
            assert!(l >= 0, "{label}");
            assert_eq!(d.to_global(p, l), Some(c), "{label} cell {c}");
            assert!(seen.insert((p, l)), "{label}: duplicate image for {c}");
        }
        // ...and the per-processor counts partition the axis.
        let total: i64 = (0..nprocs).map(|p| d.local_count(p)).sum();
        assert_eq!(total, extent, "{label}");
        // Local indices are dense: 0..local_count(p) all map back in range.
        for p in 0..nprocs {
            for l in 0..d.local_count(p) {
                let c = d
                    .to_global(p, l)
                    .unwrap_or_else(|| panic!("{label}: proc {p} local {l} has no global cell"));
                assert!((0..extent).contains(&c), "{label}");
            }
        }
    }
}

#[test]
fn whole_template_owner_matches_axis_owners() {
    let mut rng = Rng::new(2025);
    for _ in 0..50 {
        let extents = [rng.range_i64(1, 40), rng.range_i64(1, 40)];
        let grid = [rng.range_usize(1, 5), rng.range_usize(1, 5)];
        let layouts = [Layout::Block, Layout::BlockCyclic(rng.range_usize(1, 6))];
        let d = ProgramDistribution::new(&extents, &grid, &layouts);
        for _ in 0..64 {
            let c0 = rng.range_i64(0, extents[0] - 1);
            let c1 = rng.range_i64(0, extents[1] - 1);
            let (owner_via_local, _) = d.to_local(&[c0, c1]);
            let owner_via_trait = TemplateDistribution::owner(&d, &[Some(c0), Some(c1)]);
            assert_eq!(owner_via_local, owner_via_trait);
        }
    }
}

// ---------------------------------------------------------------------------
// Consistency with the simulator.
// ---------------------------------------------------------------------------

#[test]
fn simulator_accepts_program_distribution_directly() {
    let full = align_then_distribute(&programs::figure1(16), 4, &FullPipelineConfig::default());
    let best = &full.best().distribution;
    // Simulating via the distribution and via its equivalent machine must
    // agree exactly (same owner map, same traffic).
    let via_dist = simulate(
        &full.adg,
        &full.alignment.alignment,
        best,
        SimOptions::default(),
    );
    let via_machine = simulate(
        &full.adg,
        &full.alignment.alignment,
        &best.to_machine(),
        SimOptions::default(),
    );
    assert_eq!(via_dist.processors, via_machine.processors);
    assert!(
        (via_dist.total_elements() - via_machine.total_elements()).abs() < 1e-9,
        "dist {} vs machine {}",
        via_dist.total_elements(),
        via_machine.total_elements()
    );
}

#[test]
fn chosen_distribution_not_worse_than_naive_cyclic_in_simulation() {
    // The solver's pick, played through the exact simulator, should not lose
    // to the naive all-cyclic strawman on the stencil workload.
    let full = align_then_distribute(
        &programs::stencil2d(24, 3),
        4,
        &FullPipelineConfig::default(),
    );
    let best = &full.best().distribution;
    let cyclic = ProgramDistribution::new(
        &full.distribution.template_extents,
        &best.grid(),
        &vec![Layout::Cyclic; best.template_rank()],
    );
    let sim_best = simulate(
        &full.adg,
        &full.alignment.alignment,
        best,
        SimOptions::default(),
    );
    let sim_cyclic = simulate(
        &full.adg,
        &full.alignment.alignment,
        &cyclic,
        SimOptions::default(),
    );
    assert!(
        sim_best.total_elements() <= sim_cyclic.total_elements() + 1e-9,
        "best {} vs cyclic {}",
        sim_best.total_elements(),
        sim_cyclic.total_elements()
    );
}

#[test]
fn report_ranking_is_consistent_and_bounded() {
    let full = align_then_distribute(
        &programs::figure4_default(),
        8,
        &FullPipelineConfig::default(),
    );
    let ranked = &full.distribution.ranked;
    assert!(!ranked.is_empty() && ranked.len() <= 8);
    for pair in ranked.windows(2) {
        assert!(pair[0].elements <= pair[1].elements);
    }
    for r in ranked {
        assert_eq!(
            r.distribution.grid().iter().product::<usize>(),
            8,
            "{}",
            r.distribution
        );
    }
}

/// The search prices the whole signature space however large it is: a 3-D
/// template at the smallest power-of-two processor count whose space holds
/// more than 4 096 (grid, layout) candidates evaluates every one of them.
#[test]
fn large_signature_space_is_enumerated_in_full() {
    use align_ir::builder::{add, rng};
    let n = 512;
    let mut b = ProgramBuilder::new("cube_shift");
    let a = b.array("A", &[n, n, n]);
    let c = b.array("B", &[n, n, n]);
    let near = b.sec_ref(a, vec![rng(1, n - 1), rng(1, n - 1), rng(1, n - 1)]);
    let far = b.sec_ref(a, vec![rng(2, n), rng(2, n), rng(2, n)]);
    let lhs = align_ir::Section::new(vec![rng(1, n - 1), rng(1, n - 1), rng(1, n - 1)]);
    b.assign(c, lhs, add(near, far));
    let (adg, aligned) = align_program(&b.finish(), &PipelineConfig::default());
    let extents = template_extents(&adg, &aligned.alignment);
    assert_eq!(extents.len(), 3, "{extents:?}");

    let space = |p: usize| distrib::SignatureSpace::enumerate(&extents, &SolveConfig::new(p));
    let nprocs = (0..16)
        .map(|k| 1usize << k)
        .find(|&p| space(p).total_candidates > 4096)
        .expect("some power of two outgrows 4 096 candidates");
    let total = space(nprocs).total_candidates;
    let start = std::time::Instant::now();
    let report = solve_distribution(&adg, &aligned.alignment, &SolveConfig::new(nprocs));
    eprintln!(
        "template {extents:?} on {nprocs} processors: {total} candidates in {:.1} ms",
        start.elapsed().as_secs_f64() * 1e3
    );
    assert_eq!(report.candidates_evaluated, total);
    assert_eq!(
        report.best().distribution.grid().iter().product::<usize>(),
        nprocs
    );
}
