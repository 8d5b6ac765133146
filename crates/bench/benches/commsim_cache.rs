//! The placement cache in isolation: build one cache per atom and price the
//! phase's candidate distributions on it — the work a phase's signature
//! search does per candidate — on atoms and candidates captured from real
//! solves under the default, exact, options. The capture (analysis, search,
//! DP) happens once outside the timed region.
//!
//! `fft_like` and `reduction_tree` are not mobile in their loops, so every
//! trip places its object identically and the cache stores one traversal
//! per edge; `figure1`'s offsets follow the loop index, so nothing is
//! shared between trips and its row is the control.

use bench::BenchGroup;
use commsim::PlacementCache;
use phases::{align_then_distribute_dynamic, DynamicConfig};

/// Candidate pricings per cache build (a default layer holds up to 12).
const PRICINGS: usize = 12;

fn main() {
    let workloads = [
        (
            "fft_like/128x40/16p",
            align_ir::programs::fft_like(128, 40),
            16,
        ),
        (
            "reduction_tree/64x64/32p",
            align_ir::programs::reduction_tree(64, 64),
            32,
        ),
        ("figure1/100/8p", align_ir::programs::figure1(100), 8),
    ];
    let cfg = DynamicConfig::default();
    let mut group = BenchGroup::new("commsim_cache");
    for (name, program, nprocs) in &workloads {
        let solved = align_then_distribute_dynamic(program, *nprocs, &cfg);
        group.bench(*name, || {
            let mut total = 0.0;
            for (phase, layer) in solved.phases.iter().zip(&solved.layers) {
                for atom in &phase.atoms {
                    let cache = PlacementCache::new(&atom.adg, &atom.alignment.alignment, cfg.sim);
                    for dist in layer.dists.iter().cycle().take(PRICINGS) {
                        total += cache.total_elements(dist);
                    }
                }
            }
            total
        });
    }
    group.finish();
}
