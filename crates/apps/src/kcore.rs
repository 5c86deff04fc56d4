//! k-core decomposition (iterative peeling).
//!
//! Computes each vertex's core number: the largest `k` such that the
//! vertex belongs to a subgraph where every vertex has degree ≥ `k`.
//! Peeling repeatedly removes the minimum-degree frontier; the degree
//! array takes scattered decrements driven by the neighbour distribution —
//! a write-heavy mirror of BFS's read pattern, and the access shape where
//! NVM's poor write bandwidth hurts most.

use atmem::{Atmem, Result};
use atmem_hms::TrackedVec;

use crate::access::MemCtx;
use crate::graph_data::HmsGraph;
use crate::kernel::Kernel;
use crate::par;

/// k-core kernel state. The graph should be symmetrised (undirected
/// degrees) for the classic definition.
#[derive(Debug)]
pub struct KCore {
    graph: HmsGraph,
    degree: TrackedVec<u32>,
    core: TrackedVec<u32>,
    max_core: u32,
}

impl KCore {
    /// Allocates k-core state over `graph`.
    ///
    /// # Errors
    ///
    /// Allocation failures for the degree/core arrays.
    pub fn new(rt: &mut Atmem, graph: HmsGraph) -> Result<Self> {
        let n = graph.num_vertices();
        let degree = rt.malloc::<u32>(n, "kcore.degree")?;
        let core = rt.malloc::<u32>(n, "kcore.core")?;
        Ok(KCore {
            graph,
            degree,
            core,
            max_core: 0,
        })
    }

    /// The maximum core number found by the last iteration.
    pub fn max_core(&self) -> u32 {
        self.max_core
    }

    /// Copies the core numbers out of simulated memory (unaccounted).
    pub fn core_numbers(&self, rt: &mut Atmem) -> Vec<u32> {
        self.core.to_vec(rt.machine_mut())
    }

    /// The peeling phase over pre-staged bounds. Each removal immediately
    /// decrements live neighbours' degrees, and those decrements gate what
    /// the frontier admits next — a data-dependent sequential chain that
    /// admits no deterministic partition — so this phase always runs on the
    /// resident core (which is what keeps the output bit-identical across
    /// core counts).
    fn peel(&mut self, ctx: &mut MemCtx, bounds: &[u64]) {
        let n = self.graph.num_vertices();
        let mut alive = n;
        let mut k = 0u32;
        let mut removed = vec![false; n];
        let mut nbrs: Vec<u32> = Vec::new();
        let mut live: Vec<u32> = Vec::new();
        let mut olds: Vec<u32> = Vec::new();
        while alive > 0 {
            // Peel every vertex with degree <= k until none remain, then
            // raise k. Degree reads are data-dependent: per-element.
            let mut frontier: Vec<u32> = (0..n as u32)
                .filter(|&v| !removed[v as usize] && ctx.get(&self.degree, v as usize) <= k)
                .collect();
            if frontier.is_empty() {
                k += 1;
                continue;
            }
            while let Some(v) = frontier.pop() {
                let vi = v as usize;
                if removed[vi] {
                    continue;
                }
                removed[vi] = true;
                alive -= 1;
                ctx.set(&self.core, vi, k);
                let (s, e) = (bounds[vi], bounds[vi + 1]);
                nbrs.resize((e - s) as usize, 0);
                self.graph.neighbor_run(ctx, s, &mut nbrs);
                // Decrement phase: the still-live neighbours form one
                // scatter-update window (removal only happens in the outer
                // pop loop, so the filter commutes with the accesses);
                // frontier admission replays host-side on the old values in
                // window order.
                live.clear();
                live.extend(nbrs.iter().copied().filter(|&u| !removed[u as usize]));
                olds.clear();
                ctx.gather_update(&self.degree, &live, |_, d| {
                    olds.push(d);
                    d.saturating_sub(1)
                });
                for (&u, &d) in live.iter().zip(&olds) {
                    if d.saturating_sub(1) <= k {
                        frontier.push(u);
                    }
                }
            }
        }
        self.max_core = k;
    }
}

impl Kernel for KCore {
    fn name(&self) -> &'static str {
        "kCore"
    }

    fn reset(&mut self, rt: &mut Atmem) {
        let m = rt.machine_mut();
        for v in 0..self.graph.num_vertices() {
            self.core.poke(m, v, 0);
        }
        self.max_core = 0;
    }

    /// One decomposition with the degree initialisation partitioned over
    /// `ctx.par_cores()` simulated cores (each core streams its
    /// edge-balanced bounds slice and writes its owned degree slice), then
    /// the sequential `peel` phase on the resident core.
    fn run_iteration(&mut self, ctx: &mut MemCtx) {
        let cores = ctx.par_cores();
        let mode = ctx.mode();
        let machine = ctx.machine();
        let host_bounds = self.graph.host_bounds(machine);
        let cuts = par::edge_cuts(&host_bounds, cores);
        let graph = &self.graph;
        let degree = &self.degree;
        let slices: Vec<Vec<u64>> = machine.run_cores(cores, |c, h| {
            let mut ctx = MemCtx::new(h, mode);
            let (lo, hi) = (cuts[c], cuts[c + 1]);
            if lo == hi {
                return Vec::new();
            }
            let mut b = vec![0u64; hi - lo + 1];
            graph.bounds_run(&mut ctx, lo, &mut b);
            let degrees: Vec<u32> = (0..hi - lo).map(|v| (b[v + 1] - b[v]) as u32).collect();
            ctx.write_run(degree, lo, &degrees);
            b
        });
        let mut bounds = vec![0u64; self.graph.num_vertices() + 1];
        for (c, b) in slices.into_iter().enumerate() {
            if !b.is_empty() {
                bounds[cuts[c]..=cuts[c + 1]].copy_from_slice(&b);
            }
        }
        self.peel(ctx, &bounds);
    }

    fn checksum(&self, rt: &mut Atmem) -> f64 {
        let m = rt.machine_mut();
        (0..self.graph.num_vertices())
            .map(|v| self.core.peek(m, v) as f64)
            .sum()
    }
}

/// Host-side reference core numbers (bucket peeling).
pub fn reference_kcore(csr: &atmem_graph::Csr) -> Vec<u32> {
    let n = csr.num_vertices();
    let mut degree: Vec<u32> = (0..n).map(|v| csr.degree(v) as u32).collect();
    let mut core = vec![0u32; n];
    let mut removed = vec![false; n];
    let mut alive = n;
    let mut k = 0u32;
    while alive > 0 {
        let mut frontier: Vec<u32> = (0..n as u32)
            .filter(|&v| !removed[v as usize] && degree[v as usize] <= k)
            .collect();
        if frontier.is_empty() {
            k += 1;
            continue;
        }
        while let Some(v) = frontier.pop() {
            let vi = v as usize;
            if removed[vi] {
                continue;
            }
            removed[vi] = true;
            alive -= 1;
            core[vi] = k;
            for &u in csr.neighbors_of(vi) {
                let u = u as usize;
                if removed[u] {
                    continue;
                }
                degree[u] = degree[u].saturating_sub(1);
                if degree[u] <= k {
                    frontier.push(u as u32);
                }
            }
        }
    }
    core
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
    fn triangle_with_tail_cores() {
        // Triangle 0-1-2 (core 2) with tail 2-3 (vertex 3: core 1).
        let csr = GraphBuilder::new(4)
            .edges([(0, 1), (0, 2), (1, 2), (2, 3)])
            .symmetrize(true)
            .deduplicate(true)
            .build();
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        let mut kc = KCore::new(&mut rt, g).unwrap();
        kc.reset(&mut rt);
        kc.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
        assert_eq!(kc.core_numbers(&mut rt), vec![2, 2, 2, 1]);
        assert_eq!(kc.max_core(), 2);
    }

    #[test]
    fn isolated_vertices_are_core_zero() {
        let csr = GraphBuilder::new(3).edges([(0, 1), (1, 0)]).build();
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        let mut kc = KCore::new(&mut rt, g).unwrap();
        kc.reset(&mut rt);
        kc.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
        let cores = kc.core_numbers(&mut rt);
        assert_eq!(cores[2], 0);
        assert_eq!(cores[0], 1);
    }

    #[test]
    fn matches_reference_on_rmat() {
        let mut config = atmem_graph::Dataset::Pokec.config();
        config.scale = 9;
        config.symmetrize = true;
        let csr = atmem_graph::rmat(&config, 11);
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        let mut kc = KCore::new(&mut rt, g).unwrap();
        kc.reset(&mut rt);
        kc.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
        assert_eq!(kc.core_numbers(&mut rt), reference_kcore(&csr));
        assert!(kc.max_core() >= 2, "R-MAT at this density has dense cores");
    }

    #[test]
    fn iterations_are_repeatable() {
        let csr = GraphBuilder::new(4)
            .edges([(0, 1), (1, 2), (2, 3), (3, 0)])
            .symmetrize(true)
            .deduplicate(true)
            .build();
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        let mut kc = KCore::new(&mut rt, g).unwrap();
        kc.reset(&mut rt);
        kc.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
        let first = kc.checksum(&mut rt);
        kc.reset(&mut rt);
        kc.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
        assert_eq!(kc.checksum(&mut rt), first);
    }
}
