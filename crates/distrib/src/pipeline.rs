//! The complete alignment → distribution pipeline.
//!
//! The SC'93 framework is two-phase: alignment maps array elements onto a
//! template, distribution maps template cells onto processors. The seed
//! reproduction implemented only the first phase (`alignment_core::pipeline`)
//! — this module adds the second and glues them together.
//!
//! Crate dependencies flow IR → ADG → core → commsim → distrib, so the
//! combined driver lives here (the top of the stack) rather than inside
//! `alignment_core::pipeline`, which cannot see the distribution types.

use crate::solve::{solve_distribution, DistributionReport, SolveConfig};
use adg::Adg;
use align_ir::Program;
use alignment_core::pipeline::{align_program, AlignmentResult, PipelineConfig};
use alignment_core::position::ProgramAlignment;

/// Configuration of both phases. The distribution search takes only the
/// processor count, an argument of [`align_then_distribute`].
#[derive(Debug, Clone, Default)]
pub struct FullPipelineConfig {
    /// The alignment phase (axis, stride, replication, mobile offset).
    pub alignment: PipelineConfig,
}

/// Everything both phases produced.
#[derive(Debug, Clone)]
pub struct FullPipelineResult {
    /// The alignment-distribution graph of the program.
    pub adg: Adg,
    /// The alignment phase's result.
    pub alignment: AlignmentResult,
    /// The distribution phase's ranked report.
    pub distribution: DistributionReport,
}

impl FullPipelineResult {
    /// The chosen (cheapest) distribution.
    pub fn best(&self) -> &crate::solve::RankedDistribution {
        self.distribution.best()
    }
}

/// Run the complete two-phase analysis: align `program`, then search for the
/// cheapest distribution of the resulting template over `nprocs` processors.
pub fn align_then_distribute(
    program: &Program,
    nprocs: usize,
    config: &FullPipelineConfig,
) -> FullPipelineResult {
    let (adg, alignment) = align_program(program, &config.alignment);
    let distribution = distribute_alignment(&adg, &alignment.alignment, nprocs);
    FullPipelineResult {
        adg,
        alignment,
        distribution,
    }
}

/// Distribute an already-aligned program (the second phase alone).
pub fn distribute_alignment(
    adg: &Adg,
    alignment: &ProgramAlignment,
    nprocs: usize,
) -> DistributionReport {
    solve_distribution(adg, alignment, &SolveConfig::new(nprocs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use align_ir::programs;

    #[test]
    fn full_pipeline_runs_end_to_end() {
        let result =
            align_then_distribute(&programs::figure1(16), 16, &FullPipelineConfig::default());
        assert_eq!(result.distribution.nprocs, 16);
        assert!(!result.distribution.ranked.is_empty());
        result.alignment.alignment.validate().unwrap();
        assert_eq!(
            result.best().distribution.grid().iter().product::<usize>(),
            16
        );
    }

    #[test]
    fn second_phase_alone_matches_full_run() {
        let cfg = FullPipelineConfig::default();
        let full = align_then_distribute(&programs::example5_default(), 4, &cfg);
        let alone = distribute_alignment(&full.adg, &full.alignment.alignment, 4);
        // nprocs comes from the call.
        assert_eq!(full.distribution.nprocs, 4);
        assert_eq!(alone.nprocs, 4);
        assert_eq!(
            format!("{}", full.best().distribution),
            format!("{}", alone.best().distribution)
        );
    }
}
