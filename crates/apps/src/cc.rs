//! Connected components (label propagation).
//!
//! Each iteration performs one full pass over every edge, lowering each
//! endpoint's label to the minimum of the pair (treating edges as
//! undirected for connectivity). Repeated iterations converge to the
//! connected-component labelling; the harness times single passes.

use atmem::{Atmem, Result};
use atmem_hms::TrackedVec;

use crate::access::MemCtx;
use crate::graph_data::HmsGraph;
use crate::kernel::Kernel;
use crate::par;

/// CC kernel state.
#[derive(Debug)]
pub struct Cc {
    graph: HmsGraph,
    labels: TrackedVec<u32>,
    changed_last: u64,
}

impl Cc {
    /// Allocates CC state over `graph`.
    ///
    /// # Errors
    ///
    /// Allocation failures for the label array.
    pub fn new(rt: &mut Atmem, graph: HmsGraph) -> Result<Self> {
        let labels = rt.malloc::<u32>(graph.num_vertices(), "cc.labels")?;
        Ok(Cc {
            graph,
            labels,
            changed_last: 0,
        })
    }

    /// Label updates performed by the last iteration (0 = converged).
    pub fn changed_last(&self) -> u64 {
        self.changed_last
    }

    /// Runs passes until convergence; returns the number of passes.
    pub fn run_to_convergence(&mut self, ctx: &mut MemCtx, max_passes: usize) -> usize {
        for pass in 1..=max_passes {
            self.run_iteration(ctx);
            if self.changed_last == 0 {
                return pass;
            }
        }
        max_passes
    }

    /// Copies the label array out of simulated memory (unaccounted).
    pub fn labels(&self, rt: &mut Atmem) -> Vec<u32> {
        self.labels.to_vec(rt.machine_mut())
    }

    /// The propagation phase over pre-staged bounds/neighbour data. Label
    /// lowering is Gauss–Seidel: every vertex observes lowerings made
    /// earlier *in the same pass*, a sequential dependency chain that
    /// admits no deterministic partition — so this phase always runs on
    /// the resident core (which is what keeps the output bit-identical
    /// across core counts).
    ///
    /// Each vertex's neighbour labels are gathered as one window, the
    /// min/lower decisions replay host-side (an overlay map makes duplicate
    /// neighbours observe in-window lowerings), and the accepted lowerings
    /// scatter back in decision order — one read per edge and one write per
    /// lowering, like the per-element loop.
    fn propagate(&mut self, ctx: &mut MemCtx, bounds: &[u64], nbrs: &[u32]) {
        let mut changed = 0u64;
        let mut lbuf: Vec<u32> = Vec::new();
        let mut widx: Vec<u32> = Vec::new();
        let mut wvals: Vec<u32> = Vec::new();
        let mut overlay: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        for v in 0..self.graph.num_vertices() {
            let (start, end) = (bounds[v] as usize, bounds[v + 1] as usize);
            if start == end {
                continue;
            }
            let window = &nbrs[start..end];
            let mut lv = ctx.get(&self.labels, v);
            lbuf.resize(window.len(), 0);
            ctx.gather(&self.labels, window, &mut lbuf);
            widx.clear();
            wvals.clear();
            overlay.clear();
            for (&u, &read) in window.iter().zip(&lbuf) {
                let lu = overlay.get(&u).copied().unwrap_or(read);
                if lu < lv {
                    lv = lu;
                    changed += 1;
                } else if lv < lu {
                    overlay.insert(u, lv);
                    widx.push(u);
                    wvals.push(lv);
                    changed += 1;
                }
            }
            ctx.scatter(&self.labels, &widx, &wvals);
            ctx.set(&self.labels, v, lv);
        }
        self.changed_last = changed;
    }
}

impl Kernel for Cc {
    fn name(&self) -> &'static str {
        "CC"
    }

    fn reset(&mut self, rt: &mut Atmem) {
        let m = rt.machine_mut();
        for v in 0..self.graph.num_vertices() {
            self.labels.poke(m, v, v as u32);
        }
        self.changed_last = 0;
    }

    /// One pass with the CSR streams partitioned over `ctx.par_cores()`
    /// simulated cores (each core reads its edge-balanced slice of the
    /// bounds and neighbour arrays through its own accounted core), then
    /// the sequential `propagate` phase on the resident
    /// core over the reassembled host staging.
    fn run_iteration(&mut self, ctx: &mut MemCtx) {
        let cores = ctx.par_cores();
        let mode = ctx.mode();
        let machine = ctx.machine();
        let host_bounds = self.graph.host_bounds(machine);
        let cuts = par::edge_cuts(&host_bounds, cores);
        let graph = &self.graph;
        let slices: Vec<(Vec<u64>, Vec<u32>)> = machine.run_cores(cores, |c, h| {
            let mut ctx = MemCtx::new(h, mode);
            let (lo, hi) = (cuts[c], cuts[c + 1]);
            if lo == hi {
                return (Vec::new(), Vec::new());
            }
            let mut b = vec![0u64; hi - lo + 1];
            graph.bounds_run(&mut ctx, lo, &mut b);
            let (es, ee) = (b[0] as usize, b[hi - lo] as usize);
            let mut nbrs = vec![0u32; ee - es];
            graph.neighbor_run(&mut ctx, es as u64, &mut nbrs);
            (b, nbrs)
        });
        let mut bounds = vec![0u64; self.graph.num_vertices() + 1];
        let mut nbrs = Vec::with_capacity(self.graph.num_edges());
        for (c, (b, ns)) in slices.into_iter().enumerate() {
            if !b.is_empty() {
                bounds[cuts[c]..=cuts[c + 1]].copy_from_slice(&b);
            }
            nbrs.extend_from_slice(&ns);
        }
        self.propagate(ctx, &bounds, &nbrs);
    }

    fn checksum(&self, rt: &mut Atmem) -> f64 {
        let m = rt.machine_mut();
        (0..self.graph.num_vertices())
            .map(|v| self.labels.peek(m, v) as f64)
            .sum()
    }
}

/// Host-side reference components via union-find (ignoring direction).
pub fn reference_components(csr: &atmem_graph::Csr) -> Vec<u32> {
    let n = csr.num_vertices();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], v: u32) -> u32 {
        let mut v = v;
        while parent[v as usize] != v {
            parent[v as usize] = parent[parent[v as usize] as usize];
            v = parent[v as usize];
        }
        v
    }
    for (u, v) in csr.edges() {
        let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
        if ru != rv {
            parent[ru.max(rv) as usize] = ru.min(rv);
        }
    }
    (0..n as u32).map(|v| find(&mut parent, v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use atmem::AtmemConfig;
    use atmem_graph::{Dataset, GraphBuilder};
    use atmem_hms::Platform;

    fn runtime() -> Atmem {
        Atmem::new(Platform::testing(), AtmemConfig::default()).unwrap()
    }

    #[test]
    fn two_components_get_two_labels() {
        let csr = GraphBuilder::new(5).edges([(0, 1), (1, 2), (3, 4)]).build();
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        let mut cc = Cc::new(&mut rt, g).unwrap();
        cc.reset(&mut rt);
        let passes = cc.run_to_convergence(&mut MemCtx::bulk(rt.machine_mut()), 50);
        assert!(passes < 50);
        let labels = cc.labels(&mut rt);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
    }

    #[test]
    fn matches_union_find_on_rmat() {
        let csr = Dataset::Friendster.build_small(10); // 512 vertices
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        let mut cc = Cc::new(&mut rt, g).unwrap();
        cc.reset(&mut rt);
        cc.run_to_convergence(&mut MemCtx::bulk(rt.machine_mut()), 200);
        let got = cc.labels(&mut rt);
        let expect = reference_components(&csr);
        // Same partition: labels equal iff reference labels equal.
        for v in 0..got.len() {
            for u in (v + 1)..got.len().min(v + 50) {
                assert_eq!(
                    got[v] == got[u],
                    expect[v] == expect[u],
                    "partition mismatch at ({v}, {u})"
                );
            }
        }
    }

    #[test]
    fn converged_pass_reports_no_changes() {
        let csr = GraphBuilder::new(3).edges([(0, 1), (1, 2)]).build();
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        let mut cc = Cc::new(&mut rt, g).unwrap();
        cc.reset(&mut rt);
        let mut ctx = MemCtx::bulk(rt.machine_mut());
        cc.run_to_convergence(&mut ctx, 10);
        cc.run_iteration(&mut ctx);
        assert_eq!(cc.changed_last(), 0);
    }
}
