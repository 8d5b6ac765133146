//! Everything the planner computes *from* an alignment once it exists —
//! template extents, the exact cost the pipeline reports, each axis solve's
//! LP objective and exact candidate cost, every ranked distribution with its
//! modelled cost — pinned bit for bit on the thirteen planning cases the
//! benchmark times. The table was recorded on the commit where template
//! extents were found by enumerating object corners, the node-constraint
//! system was rebuilt for every priced candidate and each atom's
//! distribution model was built twice; `pinned_evaluation_tail` uses only
//! API that exists there, so it can be run unchanged on that commit.

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
/// static baseline), offset reports (`lp_objective` and `exact_cost` of
/// every axis solve), rankings (every phase report's and the static
/// report's candidates with their cost components).
type Pinned = [u64; 4];

/// The nine `lp_bound` + `planner_bound` benchmark cases at their benchmark
/// processor counts and the four `size_sweep` cases at seed 11.
fn cases() -> Vec<(&'static str, Program, usize, Pinned)> {
    vec![
        (
            "multigrid_vcycle-32-4-4",
            programs::multigrid_vcycle(32, 4, 4),
            8,
            [
                0xb4ab_9493_d236_8a65,
                0x9bd7_80d9_c0b7_9b05,
                0xe4b7_670a_a45a_edc4,
                0x74ac_52dd_1751_a695,
            ],
        ),
        (
            "multi_array_pipeline-32-8",
            programs::multi_array_pipeline(32, 8),
            8,
            [
                0x2ca8_6f7a_400d_7e87,
                0xc452_baf3_0c42_81ca,
                0x1a0b_7ff3_cbbf_c0c9,
                0x441b_25fb_e280_6add,
            ],
        ),
        (
            "example5",
            programs::example5_default(),
            8,
            [
                0xa29d_8170_723a_0e6a,
                0xc64e_4f31_9d0f_3571,
                0x2c9d_3cdc_14ba_a8b1,
                0x1539_c038_93ff_4279,
            ],
        ),
        (
            "stencil2d-32-4",
            programs::stencil2d(32, 4),
            8,
            [
                0x2563_60af_b3b9_5c87,
                0x18ac_8769_440b_b425,
                0xb360_5296_a10f_8d15,
                0xe366_5fee_0183_8285,
            ],
        ),
        (
            "figure1-100",
            programs::figure1(100),
            8,
            [
                0xc0ac_20a7_b543_2cbf,
                0xb9b2_3f3a_46fd_0825,
                0x669d_1c3b_76e2_5cc1,
                0xcc6c_9398_8e35_cd15,
            ],
        ),
        (
            "fft_like-128-40",
            programs::fft_like(128, 40),
            16,
            [
                0x8bca_8a96_6860_49c7,
                0xdfbc_9bd9_2590_6ce1,
                0xd72f_ac93_9738_bbc7,
                0x0e8e_9122_4ecc_509f,
            ],
        ),
        (
            "reduction_tree-64-64",
            programs::reduction_tree(64, 64),
            32,
            [
                0x0f81_325c_080c_9026,
                0x6710_8b17_8abe_13a1,
                0x1a89_f73e_9a71_0590,
                0xc15c_df9f_d106_c2b1,
            ],
        ),
        (
            "figure4",
            programs::figure4_default(),
            8,
            [
                0xc0c0_4649_fbd4_cf6a,
                0xf0b1_a1ac_c2d5_5ca5,
                0x3790_1d3e_267a_86a5,
                0x2f21_2d97_3d04_36c5,
            ],
        ),
        (
            "lookup_table-2048-512-40",
            programs::lookup_table(2048, 512, 40),
            16,
            [
                0xd0c4_9aa9_1ee4_798c,
                0xb9b2_3f3a_46fd_0825,
                0x7e4b_92fa_861b_4885,
                0x054b_f308_2ea1_aea5,
            ],
        ),
        (
            "stage_chain-4",
            chain(2),
            8,
            [
                0x6710_1555_bf44_0525,
                0x81c6_0bda_1646_4f12,
                0xfd36_2aed_6106_9b1b,
                0x3bea_2a4b_b9ca_aa5a,
            ],
        ),
        (
            "stage_chain-8",
            chain(4),
            8,
            [
                0x7bbe_bf90_cd3a_5ea5,
                0x2ca3_7024_9e94_69c2,
                0x9301_3986_616b_0c37,
                0x8a8a_aa3f_1315_1588,
            ],
        ),
        (
            "stage_chain-16",
            chain(8),
            8,
            [
                0xdadb_eaa5_8d1a_f187,
                0x403c_39df_b240_4132,
                0x96b7_4065_cfdf_e372,
                0xa4a1_2921_7562_88ec,
            ],
        ),
        (
            "stage_chain-32",
            chain(16),
            8,
            [
                0x833a_dfc3_94c6_5787,
                0xaf4a_5c60_1444_8bd5,
                0xcc9e_5c4c_c6db_ae17,
                0x3fa4_ca07_e42e_fffd,
            ],
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
            self.word(r.lp_objective.to_bits());
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

fn fold(result: &DynamicPipelineResult) -> Pinned {
    let [mut extents, mut costs, mut reports, mut rankings] = [(); 4].map(|()| Fnv::new());
    for phase in &result.phases {
        for (atom, template) in phase.atoms.iter().zip(&phase.atom_templates) {
            extents.extents(template);
            costs.alignment_cost(&atom.alignment);
            reports.offset_reports(&atom.alignment);
        }
        extents.extents(&phase.report.template_extents);
        rankings.ranking(&phase.report);
    }
    let st = &result.static_result;
    extents.extents(&st.distribution.template_extents);
    costs.alignment_cost(&st.alignment);
    reports.offset_reports(&st.alignment);
    rankings.ranking(&st.distribution);
    [extents.0, costs.0, reports.0, rankings.0]
}

#[test]
fn pinned_evaluation_tail() {
    let mut mismatches = Vec::new();
    for (name, program, nprocs, pinned) in cases() {
        let result = align_then_distribute_dynamic(&program, nprocs, &DynamicConfig::default());
        let got = fold(&result);
        if got != pinned {
            mismatches.push(format!("{name}: got {got:x?}, pinned {pinned:x?}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
