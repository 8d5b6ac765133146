//! Block / cyclic / block-cyclic layouts and the owner-computes index maps.
//!
//! A distribution assigns each cell of a template axis to a processor
//! coordinate, HPF-style. With block size `b` over `g` processors, cell `c`
//! is owned by `floor(c / b) mod g`, and its local storage index on that
//! processor is `floor(c / (b·g)) · b + (c mod b)` — the standard
//! block-cyclic compression, bijective per processor. `Block` is the special
//! case `b = ceil(extent / g)` (one contiguous block each) and `Cyclic` is
//! `b = 1`.

use std::fmt;

/// The layout of one template axis over its grid dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layout {
    /// One contiguous block per processor (`b = ceil(extent / g)`).
    Block,
    /// Round-robin single cells (`b = 1`).
    Cyclic,
    /// Round-robin blocks of the given size.
    BlockCyclic(usize),
}

impl fmt::Display for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Layout::Block => write!(f, "BLOCK"),
            Layout::Cyclic => write!(f, "CYCLIC"),
            Layout::BlockCyclic(b) => write!(f, "CYCLIC({b})"),
        }
    }
}

/// The distribution of one template axis: extent, processors and layout.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AxisDistribution {
    /// Number of template cells along the axis (>= 1).
    pub extent: i64,
    /// Number of processors along the axis's grid dimension (>= 1).
    pub nprocs: usize,
    /// The layout.
    pub layout: Layout,
    /// Cached effective block size (a pure function of the fields above —
    /// [`AxisDistribution::owner`] is the innermost call of every element
    /// traversal, and recomputing the `Block` ceiling division there costs
    /// more than the owner arithmetic itself).
    block: i64,
}

impl AxisDistribution {
    /// A new axis distribution. Extents and processor counts must be
    /// positive; a `BlockCyclic` block size must be positive.
    pub fn new(extent: i64, nprocs: usize, layout: Layout) -> Self {
        assert!(extent >= 1, "axis extent must be positive");
        assert!(nprocs >= 1, "need at least one processor on the axis");
        if let Layout::BlockCyclic(b) = layout {
            assert!(b >= 1, "block size must be positive");
        }
        let block = match layout {
            Layout::Block => {
                let g = nprocs as i64;
                (extent + g - 1) / g
            }
            Layout::Cyclic => 1,
            Layout::BlockCyclic(b) => b as i64,
        };
        AxisDistribution {
            extent,
            nprocs,
            layout,
            block,
        }
    }

    /// The effective block size `b` of the layout.
    pub fn block_size(&self) -> i64 {
        self.block
    }

    /// The owner period `b · g`: owners repeat with this spacing.
    pub fn period(&self) -> i64 {
        self.block * self.nprocs as i64
    }

    /// Processor coordinate owning cell `c` (negative cells wrap, matching
    /// the commsim machine model).
    #[inline]
    pub fn owner(&self, c: i64) -> usize {
        (c.div_euclid(self.block).rem_euclid(self.nprocs as i64)) as usize
    }

    /// Owner and local storage index of cell `c >= 0`: the owner-computes
    /// map. Local indices are dense per processor (0, 1, 2, ... in cell
    /// order), so the map `c -> (owner, local)` is a bijection from
    /// `0..extent` onto the union of the per-processor local ranges.
    pub fn to_local(&self, c: i64) -> (usize, i64) {
        assert!(c >= 0, "local index maps are defined for c >= 0");
        let b = self.block_size();
        let period = self.period();
        let cycle = c / period;
        let within = c % period;
        let owner = (within / b) as usize;
        let local = cycle * b + within % b;
        (owner, local)
    }

    /// Inverse of [`AxisDistribution::to_local`]: the global cell stored at
    /// `local` on `proc`. Returns `None` when the pair addresses no cell of
    /// the axis (a hole past the end of the last block).
    pub fn to_global(&self, proc: usize, local: i64) -> Option<i64> {
        if proc >= self.nprocs || local < 0 {
            return None;
        }
        let b = self.block_size();
        let cycle = local / b;
        let off = local % b;
        let c = cycle * self.period() + proc as i64 * b + off;
        (c < self.extent).then_some(c)
    }

    /// Number of cells of `0..extent` owned by `proc`.
    pub fn local_count(&self, proc: usize) -> i64 {
        if proc >= self.nprocs {
            return 0;
        }
        let b = self.block_size();
        let period = self.period();
        let full_cycles = self.extent / period;
        let mut count = full_cycles * b;
        let rem_start = full_cycles * period + proc as i64 * b;
        let rem = (self.extent - rem_start).clamp(0, b);
        count += rem;
        count
    }
}

impl fmt::Display for AxisDistribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}p", self.layout, self.nprocs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_layouts() -> Vec<Layout> {
        vec![
            Layout::Block,
            Layout::Cyclic,
            Layout::BlockCyclic(3),
            Layout::BlockCyclic(5),
        ]
    }

    #[test]
    fn block_size_special_cases() {
        assert_eq!(
            AxisDistribution::new(100, 4, Layout::Block).block_size(),
            25
        );
        assert_eq!(
            AxisDistribution::new(101, 4, Layout::Block).block_size(),
            26
        );
        assert_eq!(
            AxisDistribution::new(100, 4, Layout::Cyclic).block_size(),
            1
        );
        assert_eq!(
            AxisDistribution::new(100, 4, Layout::BlockCyclic(7)).block_size(),
            7
        );
    }

    #[test]
    fn owner_matches_to_local_owner() {
        for layout in all_layouts() {
            let d = AxisDistribution::new(64, 4, layout);
            for c in 0..64 {
                assert_eq!(d.owner(c), d.to_local(c).0, "{layout} cell {c}");
            }
        }
    }

    #[test]
    fn local_map_round_trips() {
        for layout in all_layouts() {
            for extent in [1i64, 7, 30, 64] {
                for g in [1usize, 3, 4] {
                    let d = AxisDistribution::new(extent, g, layout);
                    for c in 0..extent {
                        let (p, l) = d.to_local(c);
                        assert_eq!(
                            d.to_global(p, l),
                            Some(c),
                            "{layout} extent={extent} g={g} c={c}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn local_indices_are_dense_and_disjoint() {
        for layout in all_layouts() {
            let d = AxisDistribution::new(50, 4, layout);
            for p in 0..4 {
                let n = d.local_count(p);
                let cells: Vec<i64> = (0..n).map(|l| d.to_global(p, l).unwrap()).collect();
                // Every local slot maps to a distinct in-range global cell...
                let mut sorted = cells.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), cells.len());
                // ...and the slot just past the end is a hole or off-axis.
                if let Some(c) = d.to_global(p, n) {
                    panic!("{layout}: proc {p} slot {n} unexpectedly maps to {c}");
                }
            }
            let total: i64 = (0..4).map(|p| d.local_count(p)).sum();
            assert_eq!(total, 50, "{layout}");
        }
    }

    #[test]
    fn display_is_hpf_like() {
        assert_eq!(
            AxisDistribution::new(10, 2, Layout::BlockCyclic(4)).to_string(),
            "CYCLIC(4)@2p"
        );
        assert_eq!(Layout::Block.to_string(), "BLOCK");
    }
}
