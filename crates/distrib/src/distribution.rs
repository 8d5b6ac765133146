//! The whole-template distribution: one [`AxisDistribution`] per template
//! axis over a Cartesian processor grid.

use crate::layout::{AxisDistribution, Layout};
use commsim::{Machine, TemplateDistribution};
use std::fmt;

/// A complete mapping of template cells onto processors: the product of the
/// alignment phase's template with a processor grid and per-axis layouts.
/// This is the object the SC'93 framework's *distribution phase* produces
/// and the piece the seed reproduction deferred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramDistribution {
    /// Per-template-axis distribution (extent, grid dimension, layout).
    pub axes: Vec<AxisDistribution>,
}

impl ProgramDistribution {
    /// A distribution from parallel arrays of extents, grid dims and layouts.
    pub fn new(extents: &[i64], grid: &[usize], layouts: &[Layout]) -> Self {
        assert_eq!(extents.len(), grid.len(), "extents/grid rank mismatch");
        assert_eq!(extents.len(), layouts.len(), "extents/layout rank mismatch");
        ProgramDistribution {
            axes: extents
                .iter()
                .zip(grid)
                .zip(layouts)
                .map(|((&e, &g), &l)| AxisDistribution::new(e.max(1), g, l))
                .collect(),
        }
    }

    /// Template rank.
    pub fn template_rank(&self) -> usize {
        self.axes.len()
    }

    /// The processor-grid shape.
    pub fn grid(&self) -> Vec<usize> {
        self.axes.iter().map(|a| a.nprocs).collect()
    }

    /// Per-axis layouts.
    pub fn layouts(&self) -> Vec<Layout> {
        self.axes.iter().map(|a| a.layout).collect()
    }

    /// Per-axis template extents.
    pub fn extents(&self) -> Vec<i64> {
        self.axes.iter().map(|a| a.extent).collect()
    }

    /// Owner and per-axis local indices of a full (non-replicated) template
    /// coordinate: the owner-computes map of the whole template.
    pub fn to_local(&self, coords: &[i64]) -> (usize, Vec<i64>) {
        assert_eq!(coords.len(), self.template_rank(), "coordinate rank");
        let mut id = 0usize;
        let mut locals = Vec::with_capacity(coords.len());
        for (axis, &c) in self.axes.iter().zip(coords) {
            let (p, l) = axis.to_local(c);
            id = id * axis.nprocs + p;
            locals.push(l);
        }
        (id, locals)
    }

    /// The equivalent commsim [`Machine`] (same grid, the layouts' effective
    /// block sizes). Owner maps agree cell-for-cell, so existing Machine
    /// consumers can price a chosen distribution unchanged.
    pub fn to_machine(&self) -> Machine {
        Machine::new(
            self.grid(),
            self.axes.iter().map(|a| a.block_size() as usize).collect(),
        )
    }
}

impl TemplateDistribution for ProgramDistribution {
    fn num_processors(&self) -> usize {
        self.axes.iter().map(|a| a.nprocs).product()
    }

    fn owner(&self, coords: &[Option<i64>]) -> usize {
        let mut id = 0usize;
        for (t, axis) in self.axes.iter().enumerate() {
            let coord = coords.get(t).copied().flatten().unwrap_or(0);
            id = id * axis.nprocs + axis.owner(coord);
        }
        id
    }

    fn owner_flat(&self, coords: &[i64]) -> usize {
        let mut id = 0usize;
        for (t, axis) in self.axes.iter().enumerate() {
            let coord = match coords.get(t) {
                Some(&c) if c != commsim::REPLICATED_COORD => c,
                _ => 0,
            };
            id = id * axis.nprocs + axis.owner(coord);
        }
        id
    }

    fn grid_dims(&self) -> Vec<usize> {
        self.grid()
    }

    fn grid_dims_into(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend(self.axes.iter().map(|a| a.nprocs));
    }

    fn owner_coord(&self, axis: usize, c: i64) -> usize {
        self.axes[axis].owner(c)
    }

    fn axis_key(&self, axis: usize) -> Option<(usize, i64)> {
        let axis = &self.axes[axis];
        Some((axis.nprocs, axis.block_size()))
    }
}

impl fmt::Display for ProgramDistribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // HPF-style: (BLOCK, CYCLIC(4)) on 4x2 processors
        let layouts: Vec<String> = self.axes.iter().map(|a| a.layout.to_string()).collect();
        let grid: Vec<String> = self.axes.iter().map(|a| a.nprocs.to_string()).collect();
        write!(
            f,
            "({}) on {} processors",
            layouts.join(", "),
            grid.join("x")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist() -> ProgramDistribution {
        ProgramDistribution::new(&[32, 48], &[2, 4], &[Layout::Block, Layout::BlockCyclic(3)])
    }

    #[test]
    fn owner_agrees_with_machine() {
        let d = dist();
        let m = d.to_machine();
        for c0 in 0..32 {
            for c1 in 0..48 {
                let coords = [Some(c0), Some(c1)];
                assert_eq!(
                    TemplateDistribution::owner(&d, &coords),
                    m.owner(&coords),
                    "({c0},{c1})"
                );
            }
        }
        assert_eq!(TemplateDistribution::num_processors(&d), m.num_processors());
    }

    #[test]
    fn to_local_linearises_like_owner() {
        let d = dist();
        for c0 in [0i64, 5, 31] {
            for c1 in [0i64, 7, 47] {
                let (p, locals) = d.to_local(&[c0, c1]);
                assert_eq!(p, TemplateDistribution::owner(&d, &[Some(c0), Some(c1)]));
                assert_eq!(locals.len(), 2);
            }
        }
    }

    #[test]
    fn whole_template_local_map_is_bijective() {
        use std::collections::HashSet;
        let d = dist();
        let mut seen: HashSet<(usize, Vec<i64>)> = HashSet::new();
        for c0 in 0..32 {
            for c1 in 0..48 {
                assert!(
                    seen.insert(d.to_local(&[c0, c1])),
                    "collision at ({c0},{c1})"
                );
            }
        }
        assert_eq!(seen.len(), 32 * 48);
    }

    #[test]
    fn display_reads_like_hpf() {
        let s = dist().to_string();
        assert_eq!(s, "(BLOCK, CYCLIC(3)) on 2x4 processors");
    }
}
