//! CSR graph resident in simulated heterogeneous memory.
//!
//! [`HmsGraph`] registers the three CSR arrays as ATMem data objects
//! (`atmem_malloc`), so the profiler sees accesses to them and the
//! optimizer can migrate their hot regions. Neighbour arrays of skewed
//! graphs are exactly the "massive data structures with skewed access
//! patterns" the paper targets.

use atmem::{Atmem, Result};
use atmem_graph::Csr;
use atmem_hms::{MemPort, TrackedVec};

use crate::access::MemCtx;

/// A CSR graph whose arrays live in simulated memory.
#[derive(Debug)]
pub struct HmsGraph {
    num_vertices: usize,
    num_edges: usize,
    offsets: TrackedVec<u64>,
    neighbors: TrackedVec<u32>,
    weights: Option<TrackedVec<f32>>,
}

impl HmsGraph {
    /// Loads `csr` into simulated memory through the runtime, registering
    /// each array as a data object (`offsets`, `neighbors`, `weights`).
    ///
    /// Bulk initialisation is unaccounted (it happens before the measured
    /// region in every experiment).
    ///
    /// # Errors
    ///
    /// Allocation failures from the memory system.
    pub fn load(rt: &mut Atmem, csr: &Csr) -> Result<Self> {
        let offsets = rt.malloc::<u64>(csr.offsets().len(), "csr.offsets")?;
        offsets.fill_from(rt.machine_mut(), csr.offsets());
        let neighbors = rt.malloc::<u32>(csr.num_edges().max(1), "csr.neighbors")?;
        if csr.num_edges() > 0 {
            neighbors.fill_from(rt.machine_mut(), csr.neighbors());
        }
        let weights = match csr.weights() {
            Some(ws) => {
                let w = rt.malloc::<f32>(ws.len().max(1), "csr.weights")?;
                if !ws.is_empty() {
                    w.fill_from(rt.machine_mut(), ws);
                }
                Some(w)
            }
            None => None,
        };
        Ok(HmsGraph {
            num_vertices: csr.num_vertices(),
            num_edges: csr.num_edges(),
            offsets,
            neighbors,
            weights,
        })
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Whether edge weights are resident.
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Accounted read of the edge-range bounds of vertex `v`.
    #[inline]
    pub fn edge_bounds<M: MemPort>(&self, ctx: &mut MemCtx<'_, M>, v: usize) -> (u64, u64) {
        (ctx.get(&self.offsets, v), ctx.get(&self.offsets, v + 1))
    }

    /// Accounted read of the destination of edge `e`.
    #[inline]
    pub fn neighbor<M: MemPort>(&self, ctx: &mut MemCtx<'_, M>, e: u64) -> u32 {
        ctx.get(&self.neighbors, e as usize)
    }

    /// Accounted read of the weight of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if the graph is unweighted.
    #[inline]
    pub fn weight<M: MemPort>(&self, ctx: &mut MemCtx<'_, M>, e: u64) -> f32 {
        let w = self.weights.as_ref().expect("graph loaded without weights");
        ctx.get(w, e as usize)
    }

    /// Accounted sequential read of `out.len()` row bounds starting at
    /// vertex `start` (kernels stream just their partition's slice; a core
    /// covering `lo..hi` reads `hi - lo + 1` bounds).
    pub fn bounds_run<M: MemPort>(&self, ctx: &mut MemCtx<'_, M>, start: usize, out: &mut [u64]) {
        ctx.read_run(&self.offsets, start, out);
    }

    /// Unaccounted host copy of all row bounds. Partitioning metadata for
    /// the kernels: the split points must be known *before* the
    /// cores fork, and the cores then re-read their own slices through the
    /// accounted path ([`bounds_run`](HmsGraph::bounds_run)).
    pub fn host_bounds(&self, machine: &mut impl MemPort) -> Vec<u64> {
        self.offsets.to_vec(machine)
    }

    /// Accounted sequential read of `buf.len()` neighbour ids starting at
    /// edge `start`.
    pub fn neighbor_run<M: MemPort>(&self, ctx: &mut MemCtx<'_, M>, start: u64, buf: &mut [u32]) {
        ctx.read_run(&self.neighbors, start as usize, buf);
    }

    /// Accounted sequential read of `buf.len()` edge weights starting at
    /// edge `start`.
    ///
    /// # Panics
    ///
    /// Panics if the graph is unweighted.
    pub fn weight_run<M: MemPort>(&self, ctx: &mut MemCtx<'_, M>, start: u64, buf: &mut [f32]) {
        let w = self.weights.as_ref().expect("graph loaded without weights");
        ctx.read_run(w, start as usize, buf);
    }

    /// Total bytes of the resident CSR arrays.
    pub fn footprint(&self) -> usize {
        self.offsets.range().len
            + self.neighbors.range().len
            + self.weights.as_ref().map_or(0, |w| w.range().len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atmem::AtmemConfig;
    use atmem_graph::GraphBuilder;
    use atmem_hms::Platform;

    fn runtime() -> Atmem {
        Atmem::new(Platform::testing(), AtmemConfig::default()).unwrap()
    }

    #[test]
    fn load_round_trips_structure() {
        let csr = GraphBuilder::new(4).edges([(0, 1), (0, 2), (2, 3)]).build();
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        assert!(!g.is_weighted());
        let mut ctx = MemCtx::bulk(rt.machine_mut());
        let (s, e) = g.edge_bounds(&mut ctx, 0);
        assert_eq!((s, e), (0, 2));
        assert_eq!(g.neighbor(&mut ctx, 0), 1);
        assert_eq!(g.neighbor(&mut ctx, 2), 3);
    }

    #[test]
    fn weighted_load_reads_weights() {
        let csr = GraphBuilder::new(3)
            .weighted_edges([(0, 1, 1.5), (1, 2, 2.5)])
            .build();
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        assert!(g.is_weighted());
        assert_eq!(g.weight(&mut MemCtx::bulk(rt.machine_mut()), 1), 2.5);
    }

    #[test]
    fn arrays_are_registered_with_the_runtime() {
        let csr = GraphBuilder::new(3).edges([(0, 1)]).build();
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        assert_eq!(rt.registry().len(), 2); // offsets + neighbors
        assert_eq!(rt.registry().total_bytes(), g.footprint());
    }

    #[test]
    fn empty_graph_loads() {
        let csr = GraphBuilder::new(2).build();
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        assert_eq!(g.num_edges(), 0);
        let (s, e) = g.edge_bounds(&mut MemCtx::bulk(rt.machine_mut()), 0);
        assert_eq!((s, e), (0, 0));
    }
}
