//! The four workloads: which programs they plan, at which processor count,
//! and what one op does. Why each exists is in `README.md` and in the `why`
//! lines of `BENCHMARK.json`.

use align_ir::builder::{add, rng, ProgramBuilder};
use align_ir::{programs, Program, Section};
use bench::Rng;
use commsim::SimOptions;
use phases::{
    simulate_dynamic, simulate_static, try_align_then_distribute_dynamic, DynamicConfig,
    DynamicPipelineResult,
};

/// Share of the stage boundaries at which each `stage_chain` array flips
/// between row work and column work.
const FLIP_SHARE: f64 = 0.4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    LpBound,
    PlannerBound,
    SizeSweep,
    PlanReplay,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::LpBound,
        Kind::PlannerBound,
        Kind::SizeSweep,
        Kind::PlanReplay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::LpBound => "lp_bound",
            Kind::PlannerBound => "planner_bound",
            Kind::SizeSweep => "size_sweep",
            Kind::PlanReplay => "plan_replay",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One `(program, P)` pair. Names use only letters, digits, `_` and `-`.
#[derive(Debug, Clone)]
pub struct Case {
    pub name: String,
    pub program: Program,
    pub nprocs: usize,
    /// Test hook: the op on this case panics (see `--inject-panic`).
    pub panics: bool,
}

fn case(name: &str, program: Program, nprocs: usize) -> Case {
    Case {
        name: format!("{name}-p{nprocs}"),
        program,
        nprocs,
        panics: false,
    }
}

/// Parameters of [`stage_chain`].
#[derive(Debug, Clone, Copy)]
pub struct StageChain {
    /// Every array is `n × n`.
    pub n: i64,
    /// Trip count of every stage's loop.
    pub trips: i64,
    pub arrays: usize,
    pub stages: usize,
    pub seed: u64,
}

/// A chain of `stages` loops over `arrays` square arrays. Every loop holds
/// one statement per array, a row shift or a column shift (the statement
/// shapes of `fft_like` and `multi_array_pipeline`), so loop distribution
/// yields exactly `arrays × stages` atoms. Each array starts in a
/// seed-chosen orientation and flips it at `ceil(0.4 × (stages − 1))`
/// seed-chosen stage boundaries.
///
/// The flip *count* is fixed and only the positions are drawn, so that two
/// seeds give programs of the same size and the same minimum traffic (one
/// redistribution per flip): the spread between seeds then measures the
/// planner, not the draw.
pub fn stage_chain(c: StageChain) -> Program {
    let StageChain {
        n,
        trips,
        arrays,
        stages,
        seed,
    } = c;
    let mut rand = Rng::new(seed);
    let mut b = ProgramBuilder::new(format!(
        "stage_chain(n={n},trips={trips},arrays={arrays},stages={stages},seed={seed})"
    ));
    let ids: Vec<_> = (0..arrays)
        .map(|i| b.array(format!("A{i}"), &[n, n]))
        .collect();
    let boundaries = stages.saturating_sub(1);
    let flips = (FLIP_SHARE * boundaries as f64).ceil() as usize;
    // is_row[a][s]: does array `a` do row work in stage `s`?
    let is_row: Vec<Vec<bool>> = ids
        .iter()
        .map(|_| {
            // A partial Fisher–Yates draw of `flips` distinct boundaries.
            let mut at: Vec<usize> = (1..=boundaries).collect();
            for i in 0..flips {
                let j = rand.range_usize(i, at.len());
                at.swap(i, j);
            }
            let flip_at = &at[..flips];
            let mut row = rand.bool_with(0.5);
            (0..stages)
                .map(|s| {
                    row ^= flip_at.contains(&s);
                    row
                })
                .collect()
        })
        .collect();
    for s in 0..stages {
        let _k = b.begin_loop(1, trips);
        for (&arr, rows) in ids.iter().zip(&is_row) {
            let (near, far, dst) = if rows[s] {
                (
                    vec![rng(1, n), rng(1, n - 1)],
                    vec![rng(1, n), rng(2, n)],
                    vec![rng(1, n), rng(1, n - 1)],
                )
            } else {
                (
                    vec![rng(1, n - 1), rng(1, n)],
                    vec![rng(2, n), rng(1, n)],
                    vec![rng(1, n - 1), rng(1, n)],
                )
            };
            let sum = add(b.sec_ref(arr, near), b.sec_ref(arr, far));
            b.assign(arr, Section::new(dst), sum);
        }
        b.end_loop();
    }
    let p = b.finish();
    p.validate().expect("stage_chain must be well formed");
    p
}

fn lp_bound_cases() -> Vec<Case> {
    vec![
        case(
            "multigrid_vcycle-32-4-4",
            programs::multigrid_vcycle(32, 4, 4),
            8,
        ),
        case(
            "multi_array_pipeline-32-8",
            programs::multi_array_pipeline(32, 8),
            8,
        ),
        case("example5", programs::example5_default(), 8),
        case("stencil2d-32-4", programs::stencil2d(32, 4), 8),
        case("figure1-100", programs::figure1(100), 8),
    ]
}

fn planner_bound_cases() -> Vec<Case> {
    vec![
        case("fft_like-128-40", programs::fft_like(128, 40), 16),
        case("reduction_tree-64-64", programs::reduction_tree(64, 64), 32),
        case("figure4", programs::figure4_default(), 8),
        case(
            "lookup_table-2048-512-40",
            programs::lookup_table(2048, 512, 40),
            16,
        ),
    ]
}

/// Stage counts of the `size_sweep` cases: 4, 8, 16 and 32 atoms. The top
/// size is what the timed window affords: a 64-atom op takes over 2 s, so
/// a window holds too few of them for a low quantile to mean anything.
pub const SWEEP_STAGES: [usize; 4] = [2, 4, 8, 16];

fn size_sweep_cases(seed: u64) -> Vec<Case> {
    SWEEP_STAGES
        .iter()
        .map(|&stages| {
            let program = stage_chain(StageChain {
                n: 32,
                trips: 8,
                arrays: 2,
                stages,
                seed,
            });
            case(&format!("stage_chain-{}", 2 * stages), program, 8)
        })
        .collect()
}

/// Totals of one replayed plan, all under [`SimOptions::exact`].
#[derive(Debug, Clone, Copy)]
pub struct Replay {
    pub dynamic_elements: f64,
    pub static_elements: f64,
    /// The static plan again, walked by `commsim::simulate` without a
    /// placement cache.
    pub static_elements_uncached: f64,
}

/// What an op produced.
pub enum Outcome {
    Planned(Box<DynamicPipelineResult>),
    Replayed(Replay),
}

/// A workload ready to run: its cases and, for `plan_replay`, the stored
/// plan of each case.
pub struct Workload {
    pub kind: Kind,
    pub cases: Vec<Case>,
    pub plans: Vec<DynamicPipelineResult>,
    pub config: DynamicConfig,
}

impl Workload {
    /// Generate the workload's inputs. Only `size_sweep` depends on `seed`.
    /// For `plan_replay` this solves every case once.
    pub fn build(kind: Kind, seed: u64) -> Result<Workload, String> {
        let config = DynamicConfig::default();
        let cases = match kind {
            Kind::LpBound => lp_bound_cases(),
            Kind::PlannerBound => planner_bound_cases(),
            Kind::SizeSweep => size_sweep_cases(seed),
            Kind::PlanReplay => {
                let mut cases = lp_bound_cases();
                cases.extend(planner_bound_cases());
                cases
            }
        };
        let plans = if kind == Kind::PlanReplay {
            cases
                .iter()
                .map(|c| {
                    try_align_then_distribute_dynamic(&c.program, c.nprocs, &config)
                        .map_err(|e| format!("{}: {e}", c.name))
                })
                .collect::<Result<_, _>>()?
        } else {
            Vec::new()
        };
        Ok(Workload {
            kind,
            cases,
            plans,
            config,
        })
    }

    /// Append a case whose op panics (the failure-accounting test).
    pub fn inject_panicking_case(&mut self) {
        self.cases.push(Case {
            name: "injected-panic".into(),
            program: programs::figure1(8),
            nprocs: 1,
            panics: true,
        });
    }

    /// The plan an op on case `i` replays, if this is `plan_replay`.
    pub fn plan(&self, i: usize) -> Option<&DynamicPipelineResult> {
        self.plans.get(i)
    }

    /// One op: one public-API call sequence on case `i`.
    pub fn op(&self, i: usize) -> Result<Outcome, String> {
        let case = &self.cases[i];
        if case.panics {
            panic!("injected panic in case {}", case.name);
        }
        match self.plan(i) {
            Some(plan) => Ok(Outcome::Replayed(replay(plan))),
            None => try_align_then_distribute_dynamic(&case.program, case.nprocs, &self.config)
                .map(|r| Outcome::Planned(Box::new(r)))
                .map_err(|e| e.to_string()),
        }
    }
}

/// Walk a stored plan: the dynamic plan and the static plan through the
/// result's placement caches, then the static plan once more without one.
pub fn replay(plan: &DynamicPipelineResult) -> Replay {
    let exact = SimOptions::exact();
    let st = &plan.static_result;
    Replay {
        dynamic_elements: simulate_dynamic(plan, exact).total_elements(),
        static_elements: simulate_static(plan, exact).total_elements(),
        static_elements_uncached: commsim::simulate(
            &st.adg,
            &st.alignment.alignment,
            &st.best().distribution,
            exact,
        )
        .total_elements(),
    }
}
