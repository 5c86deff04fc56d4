//! Pull-direction PageRank.
//!
//! The pull variant iterates destinations and gathers `rank/deg` over
//! *in*-edges (the transposed CSR). Reads of the rank array follow the
//! in-neighbour distribution — the mirror image of the push variant's
//! scattered writes — giving the profiler a read-dominated hot region,
//! which is the pattern PEBS (read-miss sampling) sees most directly.

use atmem::{Atmem, Result};
use atmem_graph::{transpose, Csr};
use atmem_hms::TrackedVec;

use crate::access::MemCtx;
use crate::graph_data::HmsGraph;
use crate::kernel::Kernel;
use crate::pagerank::DAMPING;
use crate::par;

/// Pull-based PageRank kernel state. Holds the *transposed* graph plus the
/// original out-degrees.
#[derive(Debug)]
pub struct PageRankPull {
    /// In-edge CSR (transpose of the input graph).
    graph: HmsGraph,
    degree: TrackedVec<u32>,
    rank: TrackedVec<f64>,
    next: TrackedVec<f64>,
}

impl PageRankPull {
    /// Builds the kernel from the *original* (out-edge) graph: transposes
    /// it host-side, loads the transpose into simulated memory, and stores
    /// the out-degrees needed for the gather.
    ///
    /// # Errors
    ///
    /// Allocation failures for the transposed arrays.
    pub fn new(rt: &mut Atmem, csr: &Csr) -> Result<Self> {
        let n = csr.num_vertices();
        let reversed = transpose(csr);
        let graph = HmsGraph::load(rt, &reversed)?;
        let degree = rt.malloc::<u32>(n, "prpull.degree")?;
        for v in 0..n {
            degree.poke(rt.machine_mut(), v, csr.degree(v) as u32);
        }
        let rank = rt.malloc::<f64>(n, "prpull.rank")?;
        let next = rt.malloc::<f64>(n, "prpull.next")?;
        Ok(PageRankPull {
            graph,
            degree,
            rank,
            next,
        })
    }

    /// Copies the rank vector out of simulated memory (unaccounted).
    pub fn ranks(&self, rt: &mut Atmem) -> Vec<f64> {
        self.rank.to_vec(rt.machine_mut())
    }
}

impl Kernel for PageRankPull {
    fn name(&self) -> &'static str {
        "PR-pull"
    }

    fn reset(&mut self, rt: &mut Atmem) {
        let n = self.graph.num_vertices() as f64;
        self.rank.fill(rt.machine_mut(), 1.0 / n);
        self.next.fill(rt.machine_mut(), 0.0);
    }

    /// One pull iteration partitioned over `ctx.par_cores()` simulated
    /// cores, in two `run_cores` phases.
    ///
    /// **Phase A** splits the destinations into contiguous in-edge-balanced
    /// ranges; each core streams its in-bounds and source ids, gathers
    /// degree and rank windows (both read-only this phase) and writes its
    /// owned slice of `next`. The damping sweep cannot be fused here — it
    /// writes `rank`, which other cores are still gathering — so **phase B**
    /// re-partitions evenly and applies damping over owned slices. Each
    /// destination reduces in in-edge order, so the output is
    /// bit-identical for any core count.
    fn run_iteration(&mut self, ctx: &mut MemCtx) {
        let n = self.graph.num_vertices();
        let cores = ctx.par_cores();
        let mode = ctx.mode();
        let machine = ctx.machine();
        let host_bounds = self.graph.host_bounds(machine);
        let cuts = par::edge_cuts(&host_bounds, cores);
        let vcuts = par::even_cuts(n, cores);
        let graph = &self.graph;
        let degree = &self.degree;
        let rank = &self.rank;
        let next = &self.next;

        // Phase A: partitioned gather into owned slices of `next`.
        machine.run_cores(cores, |c, h| {
            let mut ctx = MemCtx::new(h, mode);
            let (lo, hi) = (cuts[c], cuts[c + 1]);
            if lo == hi {
                return;
            }
            let mut b = vec![0u64; hi - lo + 1];
            graph.bounds_run(&mut ctx, lo, &mut b);
            let (es, ee) = (b[0] as usize, b[hi - lo] as usize);
            let mut nbrs = vec![0u32; ee - es];
            graph.neighbor_run(&mut ctx, es as u64, &mut nbrs);
            let mut gathered = vec![0.0f64; hi - lo];
            let mut dbuf: Vec<u32> = Vec::new();
            let mut live: Vec<u32> = Vec::new();
            let mut degs: Vec<u32> = Vec::new();
            let mut rbuf: Vec<f64> = Vec::new();
            for (v, slot) in gathered.iter_mut().enumerate() {
                let window = &nbrs[b[v] as usize - es..b[v + 1] as usize - es];
                dbuf.resize(window.len(), 0);
                ctx.gather(degree, window, &mut dbuf);
                live.clear();
                degs.clear();
                for (&u, &deg) in window.iter().zip(&dbuf) {
                    if deg > 0 {
                        live.push(u);
                        degs.push(deg);
                    }
                }
                rbuf.resize(live.len(), 0.0);
                ctx.gather(rank, &live, &mut rbuf);
                let mut acc = 0.0f64;
                for (&r, &deg) in rbuf.iter().zip(&degs) {
                    acc += r / deg as f64;
                }
                *slot = acc;
            }
            ctx.write_run(next, lo, &gathered);
        });

        // Phase B: damping + swap over evenly owned slices.
        let base = (1.0 - DAMPING) / n as f64;
        machine.run_cores(cores, |c, h| {
            let mut ctx = MemCtx::new(h, mode);
            let (lo, hi) = (vcuts[c], vcuts[c + 1]);
            if lo == hi {
                return;
            }
            let mut accs = vec![0.0f64; hi - lo];
            ctx.read_run(next, lo, &mut accs);
            for acc in accs.iter_mut() {
                *acc = base + DAMPING * *acc;
            }
            ctx.write_run(rank, lo, &accs);
            ctx.write_run(next, lo, &vec![0.0f64; hi - lo]);
        });
    }

    fn checksum(&self, rt: &mut Atmem) -> f64 {
        let m = rt.machine_mut();
        (0..self.graph.num_vertices())
            .map(|v| self.rank.peek(m, v))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagerank::{reference_pagerank, PageRank};
    use atmem::AtmemConfig;
    use atmem_graph::Dataset;
    use atmem_hms::Platform;

    fn runtime() -> Atmem {
        Atmem::new(Platform::testing(), AtmemConfig::default()).unwrap()
    }

    #[test]
    fn pull_matches_reference() {
        let csr = Dataset::Pokec.build_small(7);
        let mut rt = runtime();
        let mut pr = PageRankPull::new(&mut rt, &csr).unwrap();
        pr.reset(&mut rt);
        for _ in 0..3 {
            pr.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
        }
        let expect = reference_pagerank(&csr, 3);
        for (v, (got, want)) in pr.ranks(&mut rt).iter().zip(&expect).enumerate() {
            assert!((got - want).abs() < 1e-10, "vertex {v}: {got} vs {want}");
        }
    }

    #[test]
    fn pull_and_push_agree() {
        let csr = Dataset::Rmat24.build_small(9);
        let mut rt1 = runtime();
        let mut pull = PageRankPull::new(&mut rt1, &csr).unwrap();
        pull.reset(&mut rt1);
        let mut rt2 = runtime();
        let g = HmsGraph::load(&mut rt2, &csr).unwrap();
        let mut push = PageRank::new(&mut rt2, g).unwrap();
        push.reset(&mut rt2);
        for _ in 0..2 {
            pull.run_iteration(&mut MemCtx::bulk(rt1.machine_mut()));
            push.run_iteration(&mut MemCtx::bulk(rt2.machine_mut()));
        }
        let a = pull.ranks(&mut rt1);
        let b = push.ranks(&mut rt2);
        for (v, (x, y)) in a.iter().zip(&b).enumerate() {
            assert!((x - y).abs() < 1e-10, "vertex {v}: pull {x} vs push {y}");
        }
    }
}
