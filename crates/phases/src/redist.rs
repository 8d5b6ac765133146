//! Pricing inter-phase redistribution.
//!
//! When the chosen distribution changes between phases, every array alive
//! across the boundary must be re-laid-out. This module prices that step in
//! the elements the communication simulator counts:
//!
//! * **point-to-point moves** — elements whose owner changes between the two
//!   (alignment, distribution) pairs. This covers BLOCK ↔ CYCLIC remaps and
//!   transpose-style all-to-alls alike, because the underlying owner
//!   comparison ([`commsim::redistribution_traffic`]) is exact (sampled);
//! * **replication spread** — a previously single position becoming
//!   replicated broadcasts the object down a tree, one stage per
//!   `log2(grid)` doubling along each newly replicated axis;
//! * **replication collapse** — dropping replication is free (every
//!   processor already holds its part).

use alignment_core::position::PortAlignment;
use commsim::{
    redistribution_traffic, EdgeTraffic, RestingPlacement, SimOptions, TemplateDistribution,
};

/// The modelled cost of redistributing one object between phases.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RedistCost {
    /// Elements moving point-to-point (owner changed).
    pub moved: f64,
    /// Elements spread into a newly replicated position.
    pub broadcast: f64,
    /// Broadcast tree stages the spread needs (`Σ log2(g)` over newly
    /// replicated axes; 0 when nothing is spread).
    pub stages: f64,
    /// Distinct (sender, receiver) pairs (diagnostic only).
    pub messages: f64,
}

impl RedistCost {
    /// True when the boundary needs no communication at all.
    pub fn is_zero(&self) -> bool {
        self.moved == 0.0 && self.broadcast == 0.0
    }

    /// The cost of a move whose owner comparison measured `traffic` and
    /// whose spread needs `stages` tree stages ([`spread_stages`]).
    pub(crate) fn priced(traffic: EdgeTraffic, stages: f64) -> RedistCost {
        RedistCost {
            moved: traffic.element_moves,
            broadcast: traffic.broadcast_elements,
            stages,
            messages: traffic.messages,
        }
    }

    /// Raw element traffic of the move (point-to-point plus broadcast) —
    /// the same units the communication simulator counts, and therefore the
    /// scalar the per-array layout-state DP sums. Exactly
    /// [`commsim::EdgeTraffic::elements`] of the underlying owner
    /// comparison.
    pub fn elements(&self) -> f64 {
        self.moved + self.broadcast
    }
}

impl std::fmt::Display for RedistCost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "moved={:.1} broadcast={:.1}x{:.0} messages={:.0}",
            self.moved, self.broadcast, self.stages, self.messages
        )
    }
}

/// Price moving one object (with the given per-axis element extents) from
/// its resting placement before a boundary to its resting placement after
/// it — the [`RestingPlacement`] front end of [`price_redistribution`].
/// With phase-aware placement the source need not be the adjacent phase's
/// sink placement: the caller chooses where the array actually rests (e.g.
/// the cheaper of the two adjacent candidates, for an array the source
/// phase never touches).
pub fn price_resting<S, D>(
    extents: &[i64],
    src: &RestingPlacement<'_, S>,
    dst: &RestingPlacement<'_, D>,
    opts: SimOptions,
) -> RedistCost
where
    S: TemplateDistribution + ?Sized,
    D: TemplateDistribution + ?Sized,
{
    price_redistribution(
        extents,
        src.alignment,
        src.distribution,
        dst.alignment,
        dst.distribution,
        opts,
    )
}

/// Price moving one object (with the given per-axis element extents) from
/// its placement in the previous phase to its placement in the next one.
///
/// The placements are an alignment (where the array rests on the template)
/// combined with any [`TemplateDistribution`] of that template. Both
/// distributions must cover the same processor count — redistribution
/// changes the mapping, not the machine.
pub fn price_redistribution<S, D>(
    extents: &[i64],
    src_align: &PortAlignment,
    src_dist: &S,
    dst_align: &PortAlignment,
    dst_dist: &D,
    opts: SimOptions,
) -> RedistCost
where
    S: TemplateDistribution + ?Sized,
    D: TemplateDistribution + ?Sized,
{
    let traffic =
        redistribution_traffic(extents, src_align, src_dist, dst_align, dst_dist, &[], opts);
    RedistCost::priced(
        traffic,
        spread_stages(src_align, dst_align, &dst_dist.grid_dims()),
    )
}

/// Tree stages of a spread: one doubling per processor along each axis the
/// destination replicates but the source does not (0 when nothing spreads).
pub(crate) fn spread_stages(
    src_align: &PortAlignment,
    dst_align: &PortAlignment,
    dst_dims: &[usize],
) -> f64 {
    dst_align
        .offsets
        .iter()
        .enumerate()
        .filter(|(t, o)| {
            o.is_replicated() && !src_align.offsets.get(*t).is_some_and(|s| s.is_replicated())
        })
        .map(|(t, _)| {
            (dst_dims.get(t).copied().unwrap_or(1).max(1) as f64)
                .log2()
                .ceil()
        })
        // From +0.0: an empty `f64` sum is -0.0.
        .fold(0.0, |stages, s| stages + s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use distrib::{Layout, ProgramDistribution};

    fn block(extents: &[i64], grid: &[usize]) -> ProgramDistribution {
        ProgramDistribution::new(extents, grid, &vec![Layout::Block; grid.len()])
    }

    #[test]
    fn identical_placements_are_free() {
        let a = PortAlignment::identity(2, 2);
        let d = block(&[32, 32], &[2, 2]);
        let c = price_redistribution(&[32, 32], &a, &d, &a, &d, SimOptions::default());
        assert!(c.is_zero(), "{c}");
        assert_eq!(c.elements(), 0.0);
    }

    #[test]
    fn grid_flip_prices_as_all_to_all() {
        let a = PortAlignment::identity(2, 2);
        let rows = block(&[32, 32], &[4, 1]);
        let cols = block(&[32, 32], &[1, 4]);
        let c = price_redistribution(&[32, 32], &a, &rows, &a, &cols, SimOptions::default());
        // 3/4 of the elements change owner in a 4-way row->column flip.
        assert!(c.moved > 0.6 * 32.0 * 32.0, "{c}");
        assert_eq!(c.elements(), c.moved, "a flip spreads nothing: {c}");
    }

    #[test]
    fn block_to_cyclic_remap_moves_interior() {
        let a = PortAlignment::identity(1, 1);
        let blk = ProgramDistribution::new(&[64], &[4], &[Layout::Block]);
        let cyc = ProgramDistribution::new(&[64], &[4], &[Layout::Cyclic]);
        let c = price_redistribution(&[64], &a, &blk, &a, &cyc, SimOptions::default());
        // Exactly 1/4 of the cells keep their owner under a 4-way
        // block->cyclic remap.
        assert!((c.moved - 48.0).abs() < 1e-9, "{c}");
    }

    #[test]
    fn a_move_that_spreads_nothing_has_positive_zero_stages() {
        let a = PortAlignment::identity(1, 1);
        let blk = ProgramDistribution::new(&[64], &[4], &[Layout::Block]);
        let cyc = ProgramDistribution::new(&[64], &[4], &[Layout::Cyclic]);
        let remap = price_redistribution(&[64], &a, &blk, &a, &cyc, SimOptions::default());
        let stay = price_redistribution(&[64], &a, &blk, &a, &blk, SimOptions::default());
        assert!(remap.moved > 0.0 && stay.is_zero());
        for c in [remap, stay] {
            assert_eq!(c.stages.to_bits(), 0.0f64.to_bits(), "{c:?}");
            assert!(c.to_string().contains("x0 "), "{c}");
        }
    }

    #[test]
    fn spread_charges_tree_stages() {
        use alignment_core::position::OffsetAlign;
        let single = PortAlignment::identity(1, 2);
        let mut replicated = PortAlignment::identity(1, 2);
        replicated.offsets[1] = OffsetAlign::Replicated;
        let d = block(&[32, 32], &[2, 8]);
        let c = price_redistribution(&[32], &single, &d, &replicated, &d, SimOptions::default());
        assert_eq!(c.broadcast, 32.0, "{c}");
        assert_eq!(c.stages, 3.0, "log2(8) stages: {c}");
        assert_eq!(c.elements(), 32.0, "a spread moves its elements once: {c}");
        // Collapse in the other direction is free.
        let back = price_redistribution(&[32], &replicated, &d, &single, &d, SimOptions::default());
        assert!(back.is_zero(), "{back}");
    }
}
