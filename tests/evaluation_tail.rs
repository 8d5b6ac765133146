//! Everything the planner computes *from* an alignment once it exists —
//! template extents, the exact cost the pipeline reports, each axis solve's
//! exact candidate cost, every ranked distribution with its modelled cost —
//! pinned bit for bit on the thirteen planning cases the benchmark times,
//! and each axis solve's LP objective to a tolerance. The table was recorded
//! on the commit where template extents were found by enumerating object
//! corners, the node-constraint system was rebuilt for every priced
//! candidate and each atom's distribution model was built twice;
//! `pinned_evaluation_tail` uses only API that exists there, so it can be
//! run unchanged on that commit. The offset-report fold was re-recorded
//! without `lp_objective` on the commit before the dual simplex started at
//! its feasible origin (twelve rows pass there and here); the `example5` row
//! is from after it — pin-and-re-solve keeps that program's axis-0 offset
//! mobile, so its alignment, costs and rankings all moved.

use array_alignment::prelude::*;

// The `stage_chain` programs are the ones the benchmark's `size_sweep` times.
#[allow(dead_code)]
#[path = "../benchmark/src/workloads.rs"]
mod benchmark_workloads;
use benchmark_workloads::{stage_chain, StageChain};

fn chain(stages: usize) -> Program {
    stage_chain(StageChain {
        n: 32,
        trips: 8,
        arrays: 2,
        stages,
        seed: 11,
    })
}

/// FNV-1a folds of one solve, in the order the planner produces them:
/// template extents (every atom's, every phase's cover, the whole
/// program's), alignment costs (`total_cost` of every atom and of the
/// static baseline), offset reports (`exact_cost` of every axis solve),
/// rankings (every phase report's and the static report's candidates with
/// their cost components) — and, beside the folds, every axis solve's
/// `lp_objective`. That one is an optimum the simplex reaches by whatever
/// route it takes, summed along that route (`−1.3e-15` where another route
/// gives `0`), so it is held to `1e-9·(1 + |pinned|)`, not to the bit.
type Pinned = ([u64; 4], &'static [f64]);

/// The nine `lp_bound` + `planner_bound` benchmark cases at their benchmark
/// processor counts and the four `size_sweep` cases at seed 11.
fn cases() -> Vec<(&'static str, Program, usize, Pinned)> {
    vec![
        (
            "multigrid_vcycle-32-4-4",
            programs::multigrid_vcycle(32, 4, 4),
            8,
            (
                [
                    0xb4ab_9493_d236_8a65,
                    0x9bd7_80d9_c0b7_9b05,
                    0x297e_5664_3353_1827,
                    0x74ac_52dd_1751_a695,
                ],
                &[
                    7207.2, 7207.2, 0.0, 0.0, 1569.568, 1569.568, 0.0, 0.0, 10346.336, 10346.336,
                ],
            ),
        ),
        (
            "multi_array_pipeline-32-8",
            programs::multi_array_pipeline(32, 8),
            8,
            (
                [
                    0x2ca8_6f7a_400d_7e87,
                    0xc452_baf3_0c42_81ca,
                    0x60ae_5c65_9cd0_d9a7,
                    0x441b_25fb_e280_6add,
                ],
                &[
                    0.0, 7951.872, 0.0, 7951.872, 7951.872, 0.0, 0.0, 7951.872, 7951.872, 0.0,
                    7951.872, 0.0, 23855.616, 23855.616,
                ],
            ),
        ),
        (
            "example5",
            programs::example5_default(),
            8,
            (
                [
                    0xe502_b7a8_0963_d727,
                    0x25cc_4c0e_027a_5065,
                    0xdb9d_fab5_2ad4_b005,
                    0x9f68_39d9_d339_6721,
                ],
                &[1002.0, 1002.0],
            ),
        ),
        (
            "stencil2d-32-4",
            programs::stencil2d(32, 4),
            8,
            (
                [
                    0x2563_60af_b3b9_5c87,
                    0x18ac_8769_440b_b425,
                    0x1aea_9759_9f85_1f25,
                    0xe366_5fee_0183_8285,
                ],
                &[7207.2, 7207.2, 7207.2, 7207.2],
            ),
        ),
        (
            "figure1-100",
            programs::figure1(100),
            8,
            (
                [
                    0xc0ac_20a7_b543_2cbf,
                    0xb9b2_3f3a_46fd_0825,
                    0xe541_9719_4a53_f3a5,
                    0xcc6c_9398_8e35_cd15,
                ],
                &[
                    3.48150561e-09,
                    6.039613254e-15,
                    3.48150561e-09,
                    6.039613254e-15,
                ],
            ),
        ),
        (
            "fft_like-128-40",
            programs::fft_like(128, 40),
            16,
            (
                [
                    0x8bca_8a96_6860_49c7,
                    0xdfbc_9bd9_2590_6ce1,
                    0x933b_81fa_2d08_335b,
                    0x0e8e_9122_4ecc_509f,
                ],
                &[0.0, 651540.48, 651540.48, 0.0, 651540.48, 651540.48],
            ),
        ),
        (
            "reduction_tree-64-64",
            programs::reduction_tree(64, 64),
            32,
            (
                [
                    0x0f81_325c_080c_9026,
                    0x6710_8b17_8abe_13a1,
                    0x38bd_b9fe_b739_5be0,
                    0xc15c_df9f_d106_c2b1,
                ],
                &[
                    0.0, 0.0, 0.0, 394002.432, 391886.208, 0.0, 0.0, 0.0, 391886.208, 0.0,
                    783772.416, 394002.432,
                ],
            ),
        ),
        (
            "figure4",
            programs::figure4_default(),
            8,
            (
                [
                    0xc0c0_4649_fbd4_cf6a,
                    0xf0b1_a1ac_c2d5_5ca5,
                    0xe541_9719_4a53_f3a5,
                    0x2f21_2d97_3d04_36c5,
                ],
                &[0.0, 0.0, 0.0, 0.0],
            ),
        ),
        (
            "lookup_table-2048-512-40",
            programs::lookup_table(2048, 512, 40),
            16,
            (
                [
                    0xd0c4_9aa9_1ee4_798c,
                    0xb9b2_3f3a_46fd_0825,
                    0x5627_7359_bda9_cd65,
                    0x054b_f308_2ea1_aea5,
                ],
                &[0.0, 0.0],
            ),
        ),
        (
            "stage_chain-4",
            chain(2),
            8,
            (
                [
                    0x6710_1555_bf44_0525,
                    0x81c6_0bda_1646_4f12,
                    0xce9f_fe98_ff88_78a7,
                    0x3bea_2a4b_b9ca_aa5a,
                ],
                &[
                    0.0, 7951.872, 7951.872, 0.0, 7951.872, 0.0, 0.0, 7951.872, 15903.744,
                    15903.744,
                ],
            ),
        ),
        (
            "stage_chain-8",
            chain(4),
            8,
            (
                [
                    0x7bbe_bf90_cd3a_5ea5,
                    0x2ca3_7024_9e94_69c2,
                    0x5b67_b543_166c_ba33,
                    0x8a8a_aa3f_1315_1588,
                ],
                &[
                    7951.872, 0.0, 7951.872, 0.0, 0.0, 7951.872, 7951.872, 0.0, 0.0, 7951.872, 0.0,
                    7951.872, 7951.872, 0.0, 7951.872, 0.0, 39759.36, 23855.616,
                ],
            ),
        ),
        (
            "stage_chain-16",
            chain(8),
            8,
            (
                [
                    0xdadb_eaa5_8d1a_f187,
                    0x403c_39df_b240_4132,
                    0x91e3_cf60_69cd_236d,
                    0xa4a1_2921_7562_88ec,
                ],
                &[
                    7951.872, 0.0, 7951.872, 0.0, 7951.872, 0.0, 0.0, 7951.872, 0.0, 7951.872, 0.0,
                    7951.872, 7951.872, 0.0, 0.0, 7951.872, 7951.872, 0.0, 7951.872, 0.0, 7951.872,
                    0.0, 7951.872, 0.0, 7951.872, 0.0, 0.0, 7951.872, 0.0, 7951.872, 0.0, 7951.872,
                    71566.848, 55663.104,
                ],
            ),
        ),
        (
            "stage_chain-32",
            chain(16),
            8,
            (
                [
                    0x833a_dfc3_94c6_5787,
                    0xaf4a_5c60_1444_8bd5,
                    0x5730_9ae4_2943_caa7,
                    0x3fa4_ca07_e42e_fffd,
                ],
                &[
                    0.0, 7951.872, 7951.872, 0.0, 0.0, 7951.872, 7951.872, 0.0, 0.0, 7951.872, 0.0,
                    7951.872, 0.0, 7951.872, 0.0, 7951.872, 7951.872, 0.0, 0.0, 7951.872, 0.0,
                    7951.872, 0.0, 7951.872, 0.0, 7951.872, 0.0, 7951.872, 0.0, 7951.872, 7951.872,
                    0.0, 7951.872, 0.0, 0.0, 7951.872, 7951.872, 0.0, 7951.872, 0.0, 7951.872, 0.0,
                    0.0, 7951.872, 0.0, 7951.872, 7951.872, 0.0, 7951.872, 0.0, 7951.872, 0.0,
                    7951.872, 0.0, 7951.872, 0.0, 7951.872, 0.0, 7951.872, 0.0, 0.0, 7951.872,
                    7951.872, 0.0, 127229.952, 127229.952,
                ],
            ),
        ),
    ]
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn extents(&mut self, extents: &[i64]) {
        self.word(extents.len() as u64);
        for &e in extents {
            self.word(e as u64);
        }
    }

    fn alignment_cost(&mut self, a: &AlignmentResult) {
        let c = &a.total_cost;
        for v in [c.general, c.shift, c.broadcast, c.violation] {
            self.word(v.to_bits());
        }
    }

    fn offset_reports(&mut self, a: &AlignmentResult) {
        self.word(a.offset_reports.len() as u64);
        for r in &a.offset_reports {
            self.word(r.exact_cost.to_bits());
        }
    }

    fn ranking(&mut self, report: &DistributionReport) {
        self.word(report.ranked.len() as u64);
        for r in &report.ranked {
            for byte in r.distribution.to_string().bytes() {
                self.word(u64::from(byte));
            }
            let c = &r.cost;
            for v in [c.shift, c.broadcast, c.general, c.imbalance] {
                self.word(v.to_bits());
            }
        }
    }
}

fn fold(result: &DynamicPipelineResult) -> ([u64; 4], Vec<f64>) {
    let [mut extents, mut costs, mut reports, mut rankings] = [(); 4].map(|()| Fnv::new());
    let mut lp_objectives = Vec::new();
    let mut alignment = |a: &AlignmentResult| {
        costs.alignment_cost(a);
        reports.offset_reports(a);
        lp_objectives.extend(a.offset_reports.iter().map(|r| r.lp_objective));
    };
    for phase in &result.phases {
        for (atom, template) in phase.atoms.iter().zip(&phase.atom_templates) {
            extents.extents(template);
            alignment(&atom.alignment);
        }
        extents.extents(&phase.report.template_extents);
        rankings.ranking(&phase.report);
    }
    let st = &result.static_result;
    extents.extents(&st.distribution.template_extents);
    alignment(&st.alignment);
    rankings.ranking(&st.distribution);
    ([extents.0, costs.0, reports.0, rankings.0], lp_objectives)
}

#[test]
fn pinned_evaluation_tail() {
    let mut mismatches = Vec::new();
    for (name, program, nprocs, (folds, lp_objectives)) in cases() {
        let result = align_then_distribute_dynamic(&program, nprocs, &DynamicConfig::default());
        let (got, got_objectives) = fold(&result);
        let close =
            |(got, pinned): (&f64, &f64)| (got - pinned).abs() <= 1e-9 * (1.0 + pinned.abs());
        let objectives_hold = got_objectives.len() == lp_objectives.len()
            && got_objectives.iter().zip(lp_objectives).all(close);
        if got != folds || !objectives_hold {
            mismatches.push(format!(
                "{name}: got {got:x?} {got_objectives:?}, pinned {folds:x?} {lp_objectives:?}"
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
