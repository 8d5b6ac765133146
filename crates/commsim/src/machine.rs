//! The virtual machine: a processor grid and a block-cyclic distribution of
//! the template onto it.

/// Sentinel standing in for a replicated (`None`) coordinate in flat-packed
/// coordinate buffers ([`TemplateDistribution::owner_flat`], the
/// placement cache).
pub const REPLICATED_COORD: i64 = i64::MIN;

/// Anything that maps template cells to owning processors. The simulator is
/// generic over this trait, so it can price both the built-in [`Machine`]
/// (a uniform block-cyclic grid) and richer distributions — in particular
/// the per-axis block / cyclic / block-cyclic `ProgramDistribution` of the
/// `distrib` crate — without depending on where they are defined.
pub trait TemplateDistribution {
    /// Total number of processors.
    fn num_processors(&self) -> usize;

    /// Linear processor id owning a full template coordinate. `None`
    /// coordinates (replicated axes) pin to processor coordinate 0 for
    /// ranking purposes; callers treat replicated traffic separately.
    fn owner(&self, coords: &[Option<i64>]) -> usize;

    /// [`TemplateDistribution::owner`] over a flat coordinate buffer with
    /// [`REPLICATED_COORD`] standing in for `None` — the allocation-free
    /// hot path of the placement cache. Implementors should override this
    /// when `owner` is cheap per axis; the default round-trips through an
    /// `Option` vector.
    fn owner_flat(&self, coords: &[i64]) -> usize {
        let opts: Vec<Option<i64>> = coords
            .iter()
            .map(|&c| if c == REPLICATED_COORD { None } else { Some(c) })
            .collect();
        self.owner(&opts)
    }

    /// Processor-grid extent along each template axis (product =
    /// `num_processors`). Exposing the per-axis structure lets the
    /// redistribution simulator reason about *sets* of owners — a position
    /// replicated along an axis is held by every processor coordinate of
    /// that grid dimension, which a single linear id cannot express.
    fn grid_dims(&self) -> Vec<usize>;

    /// [`TemplateDistribution::grid_dims`] written into a caller's buffer,
    /// for pricing loops that reuse one. Implementors that hold their grid
    /// should override this so it does not allocate.
    fn grid_dims_into(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend(self.grid_dims());
    }

    /// Owner coordinate of template cell `c` along axis `axis` alone.
    /// Composing per-axis coordinates mixed-radix (axis 0 most significant)
    /// must agree with [`TemplateDistribution::owner`].
    fn owner_coord(&self, axis: usize, c: i64) -> usize;

    /// `(grid extent, block size)` of axis `axis`'s block-cyclic owner map,
    /// `floor(c / block) mod grid`: two axes with equal keys have equal
    /// [`TemplateDistribution::owner_coord`] maps, so what a placement
    /// cache tabulates per axis under one serves the other. `None` (the
    /// default) when the map is not block-cyclic; pricing then compiles
    /// every traversal afresh.
    fn axis_key(&self, _axis: usize) -> Option<(usize, i64)> {
        None
    }
}

/// A distributed-memory machine: a Cartesian grid of processors, one grid
/// dimension per template axis, with a block size per axis. Template cell `c`
/// along axis `t` is owned by processor coordinate
/// `floor(c / block[t]) mod grid[t]` — block distribution when the block is
/// large enough to cover the whole extent, cyclic when the block is 1, and
/// block-cyclic in between.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Machine {
    /// Number of processors along each template axis.
    pub grid: Vec<usize>,
    /// Distribution block size along each template axis (>= 1).
    pub block: Vec<usize>,
}

impl Machine {
    /// A machine with the given processor grid and block sizes.
    pub fn new(grid: Vec<usize>, block: Vec<usize>) -> Self {
        assert_eq!(grid.len(), block.len(), "grid and block ranks differ");
        assert!(grid.iter().all(|&g| g > 0), "grid dims must be positive");
        assert!(block.iter().all(|&b| b > 0), "block sizes must be positive");
        Machine { grid, block }
    }

    /// Pure block distribution of a template of the given extents: each axis
    /// is cut into `grid[t]` contiguous blocks.
    pub fn block_distribution(grid: Vec<usize>, extents: &[i64]) -> Self {
        assert_eq!(grid.len(), extents.len());
        let block = grid
            .iter()
            .zip(extents)
            .map(|(&g, &e)| (e.max(1) as usize).div_ceil(g))
            .collect();
        Machine::new(grid, block)
    }

    /// Cyclic distribution (block size 1 along every axis).
    pub fn cyclic(grid: Vec<usize>) -> Self {
        let block = vec![1; grid.len()];
        Machine::new(grid, block)
    }

    /// Template rank handled by this machine.
    pub fn template_rank(&self) -> usize {
        self.grid.len()
    }

    /// Total number of processors.
    pub fn num_processors(&self) -> usize {
        self.grid.iter().product()
    }

    /// Processor coordinate owning template cell `c` along axis `t`.
    pub fn owner_axis(&self, t: usize, c: i64) -> usize {
        let b = self.block[t] as i64;
        let g = self.grid[t] as i64;
        (c.div_euclid(b).rem_euclid(g)) as usize
    }

    /// Linear processor id owning a full template coordinate. Axes beyond the
    /// machine's rank are ignored; `None` coordinates (replicated axes) pin
    /// to processor coordinate 0 for ranking purposes (callers treat those
    /// separately).
    pub fn owner(&self, coords: &[Option<i64>]) -> usize {
        let mut id = 0usize;
        for t in 0..self.template_rank() {
            let coord = coords.get(t).copied().flatten().unwrap_or(0);
            id = id * self.grid[t] + self.owner_axis(t, coord);
        }
        id
    }
}

impl TemplateDistribution for Machine {
    fn num_processors(&self) -> usize {
        Machine::num_processors(self)
    }

    fn owner(&self, coords: &[Option<i64>]) -> usize {
        Machine::owner(self, coords)
    }

    fn owner_flat(&self, coords: &[i64]) -> usize {
        let mut id = 0usize;
        for t in 0..self.template_rank() {
            let c = match coords.get(t) {
                Some(&c) if c != REPLICATED_COORD => c,
                _ => 0,
            };
            id = id * self.grid[t] + self.owner_axis(t, c);
        }
        id
    }

    fn grid_dims(&self) -> Vec<usize> {
        self.grid.clone()
    }

    fn grid_dims_into(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend_from_slice(&self.grid);
    }

    fn owner_coord(&self, axis: usize, c: i64) -> usize {
        self.owner_axis(axis, c)
    }

    fn axis_key(&self, axis: usize) -> Option<(usize, i64)> {
        Some((self.grid[axis], self.block[axis] as i64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_distribution_extents() {
        let m = Machine::block_distribution(vec![4], &[100]);
        assert_eq!(m.block, vec![25]);
        assert_eq!(m.owner_axis(0, 0), 0);
        assert_eq!(m.owner_axis(0, 24), 0);
        assert_eq!(m.owner_axis(0, 25), 1);
        assert_eq!(m.owner_axis(0, 99), 3);
        assert_eq!(m.num_processors(), 4);
    }

    #[test]
    fn cyclic_distribution_wraps() {
        let m = Machine::cyclic(vec![4]);
        assert_eq!(m.owner_axis(0, 0), 0);
        assert_eq!(m.owner_axis(0, 1), 1);
        assert_eq!(m.owner_axis(0, 5), 1);
        assert_eq!(m.owner_axis(0, -1), 3, "negative cells wrap consistently");
    }

    #[test]
    fn two_dimensional_owner_ids() {
        let m = Machine::new(vec![2, 3], vec![10, 10]);
        assert_eq!(m.num_processors(), 6);
        assert_eq!(m.owner(&[Some(0), Some(0)]), 0);
        assert_eq!(m.owner(&[Some(0), Some(10)]), 1);
        assert_eq!(m.owner(&[Some(10), Some(0)]), 3);
        assert_eq!(m.owner(&[Some(10), Some(25)]), 5);
    }

    #[test]
    fn replicated_axes_default_to_zero() {
        let m = Machine::new(vec![2, 2], vec![5, 5]);
        assert_eq!(m.owner(&[Some(7), None]), m.owner(&[Some(7), Some(0)]));
    }

    #[test]
    #[should_panic(expected = "block sizes must be positive")]
    fn zero_block_rejected() {
        Machine::new(vec![2], vec![0]);
    }
}
