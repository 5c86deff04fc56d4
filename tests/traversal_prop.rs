//! Property tests for the frontier-sharded traversal kernels.
//!
//! Every core count must reproduce the host reference traversal bit for
//! bit on *any* graph, so these properties throw the awkward cases at the
//! frontier partition: self-loops
//! (kept, not stripped), duplicate edges, vertices unreachable from the
//! source, degree-zero sources, and far more cores than frontier
//! vertices (every traversal starts from a one-vertex frontier, so eight
//! cores always exceeds it; tiny graphs keep whole levels smaller than
//! the core count throughout).

use atmem::{Atmem, AtmemConfig};
use atmem_apps::bfs::{reference_bfs, UNREACHED};
use atmem_apps::sssp::reference_sssp;
use atmem_apps::{Bfs, HmsGraph, Kernel, MemCtx, Sssp};
use atmem_graph::{Csr, GraphBuilder, SelfLoops};
use atmem_hms::Platform;
use atmem_prop::prelude::*;

/// Core counts every property runs at: one core, and partitions that are
/// uneven, odd, and wider than most frontiers.
const CORES: [usize; 4] = [1, 2, 3, 8];

fn runtime() -> Atmem {
    Atmem::new(Platform::testing(), AtmemConfig::default()).unwrap()
}

/// Builds a CSR that may contain self-loops and duplicate edges.
fn build_graph(n: usize, edges: Vec<(u32, u32)>) -> Csr {
    let edges: Vec<(u32, u32)> = edges
        .into_iter()
        .map(|(u, v)| (u % n as u32, v % n as u32))
        .collect();
    GraphBuilder::new(n)
        .edges(edges)
        .self_loops(SelfLoops::Keep)
        .build()
}

fn bfs_at(csr: &Csr, source: u32, cores: usize) -> (Vec<u32>, usize) {
    let mut rt = runtime();
    let g = HmsGraph::load(&mut rt, csr).unwrap();
    let mut bfs = Bfs::new(&mut rt, g, source).unwrap();
    bfs.reset(&mut rt);
    bfs.run_iteration(&mut MemCtx::bulk(rt.machine_mut()).with_cores(cores));
    (bfs.distances(&mut rt), bfs.reached())
}

fn sssp_at(csr: &Csr, source: u32, cores: usize) -> Vec<u32> {
    let mut rt = runtime();
    let g = HmsGraph::load(&mut rt, csr).unwrap();
    let mut sssp = Sssp::new(&mut rt, g, source).unwrap();
    sssp.reset(&mut rt);
    sssp.run_iteration(&mut MemCtx::bulk(rt.machine_mut()).with_cores(cores));
    sssp.distances(&mut rt)
        .into_iter()
        .map(f32::to_bits)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// BFS distances and reach counts equal the host reference
    /// [`reference_bfs`] for every core count, on graphs with self-loops,
    /// duplicate edges and unreachable components.
    #[test]
    fn bfs_matches_reference_at_every_core_count(
        n in 1usize..48,
        edges in prop::collection::vec((0u32..48, 0u32..48), 0..160),
        source in 0u32..48,
    ) {
        let csr = build_graph(n, edges);
        let source = source % n as u32;
        let expected = reference_bfs(&csr, source);
        let reach = expected.iter().filter(|&&d| d != UNREACHED).count();
        for cores in CORES {
            let (dist, reached) = bfs_at(&csr, source, cores);
            prop_assert_eq!(&expected, &dist, "distances diverge at {} cores", cores);
            prop_assert_eq!(reach, reached, "reach count diverges at {} cores", cores);
        }
    }

    /// SSSP converges to the f32 distances of the Dijkstra reference
    /// [`reference_sssp`], bit for bit, for every core count: the
    /// level-snapshot (Jacobi) schedule descends to the same least fixed
    /// point.
    #[test]
    fn sssp_matches_reference_at_every_core_count(
        n in 1usize..40,
        edges in prop::collection::vec((0u32..40, 0u32..40), 0..120),
        source in 0u32..40,
        weight_seed in 0u64..1024,
    ) {
        let csr = build_graph(n, edges).with_random_weights(16.0, weight_seed);
        let source = source % n as u32;
        let expected: Vec<u32> = reference_sssp(&csr, source)
            .into_iter()
            .map(f32::to_bits)
            .collect();
        for cores in CORES {
            let dist = sssp_at(&csr, source, cores);
            prop_assert_eq!(&expected, &dist, "distances diverge at {} cores", cores);
        }
    }
}
