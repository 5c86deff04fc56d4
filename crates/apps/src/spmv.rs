//! Sparse matrix-vector multiply (the paper's §9 generalisation example).
//!
//! The CSR graph is interpreted as a sparse matrix; each iteration computes
//! `y = A·x`. Column accesses `x[col]` follow the neighbour distribution,
//! so skewed graphs produce the same hot-region structure the graph kernels
//! have, while uniform matrices degenerate to coarse-grained placement —
//! exactly the behaviour §9 describes.

use atmem::{Atmem, Result};
use atmem_hms::TrackedVec;

use crate::access::MemCtx;
use crate::graph_data::HmsGraph;
use crate::kernel::Kernel;
use crate::par;

/// SpMV kernel state.
#[derive(Debug)]
pub struct Spmv {
    graph: HmsGraph,
    x: TrackedVec<f64>,
    y: TrackedVec<f64>,
}

impl Spmv {
    /// Allocates SpMV state over a weighted `graph`.
    ///
    /// # Panics
    ///
    /// Panics if the graph was loaded without weights.
    ///
    /// # Errors
    ///
    /// Allocation failures for the vectors.
    pub fn new(rt: &mut Atmem, graph: HmsGraph) -> Result<Self> {
        assert!(graph.is_weighted(), "SpMV requires matrix values (weights)");
        let n = graph.num_vertices();
        let x = rt.malloc::<f64>(n, "spmv.x")?;
        let y = rt.malloc::<f64>(n, "spmv.y")?;
        Ok(Spmv { graph, x, y })
    }

    /// Copies the output vector out of simulated memory (unaccounted).
    pub fn output(&self, rt: &mut Atmem) -> Vec<f64> {
        self.y.to_vec(rt.machine_mut())
    }
}

impl Kernel for Spmv {
    fn name(&self) -> &'static str {
        "SpMV"
    }

    fn reset(&mut self, rt: &mut Atmem) {
        let m = rt.machine_mut();
        for v in 0..self.graph.num_vertices() {
            self.x.poke(m, v, 1.0 + (v % 7) as f64);
            self.y.poke(m, v, 0.0);
        }
    }

    /// One multiply partitioned over `ctx.par_cores()` simulated cores in a
    /// single `run_cores` phase: rows split into contiguous edge-balanced
    /// ranges, each core streaming its bounds/column/value slices, gathering
    /// `x[col]` (read-only, so shared reads are safe under the partition
    /// contract) and writing its owned slice of `y`. Each row reduces in
    /// edge order, so the output is bit-identical for any core count.
    fn run_iteration(&mut self, ctx: &mut MemCtx) {
        let cores = ctx.par_cores();
        let mode = ctx.mode();
        let machine = ctx.machine();
        let host_bounds = self.graph.host_bounds(machine);
        let cuts = par::edge_cuts(&host_bounds, cores);
        let graph = &self.graph;
        let x = &self.x;
        let y = &self.y;
        machine.run_cores(cores, |c, h| {
            let mut ctx = MemCtx::new(h, mode);
            let (lo, hi) = (cuts[c], cuts[c + 1]);
            if lo == hi {
                return;
            }
            let mut b = vec![0u64; hi - lo + 1];
            graph.bounds_run(&mut ctx, lo, &mut b);
            let (es, ee) = (b[0] as usize, b[hi - lo] as usize);
            let mut cols = vec![0u32; ee - es];
            let mut vals = vec![0.0f32; ee - es];
            let mut xs = vec![0.0f64; ee - es];
            if ee > es {
                graph.neighbor_run(&mut ctx, es as u64, &mut cols);
                graph.weight_run(&mut ctx, es as u64, &mut vals);
                ctx.gather(x, &cols, &mut xs);
            }
            let mut ybuf = vec![0.0f64; hi - lo];
            for (row, y_row) in ybuf.iter_mut().enumerate() {
                let mut acc = 0.0f64;
                for e in (b[row] as usize - es)..(b[row + 1] as usize - es) {
                    acc += vals[e] as f64 * xs[e];
                }
                *y_row = acc;
            }
            ctx.write_run(y, lo, &ybuf);
        });
    }

    fn checksum(&self, rt: &mut Atmem) -> f64 {
        let m = rt.machine_mut();
        (0..self.graph.num_vertices())
            .map(|v| self.y.peek(m, v))
            .sum()
    }
}

/// Host-side reference multiply for validation.
pub fn reference_spmv(csr: &atmem_graph::Csr, x: &[f64]) -> Vec<f64> {
    let n = csr.num_vertices();
    let mut y = vec![0.0; n];
    for (row, y_row) in y.iter_mut().enumerate() {
        let nbrs = csr.neighbors_of(row);
        let ws = csr.weights_of(row);
        *y_row = nbrs
            .iter()
            .zip(ws)
            .map(|(&c, &a)| a as f64 * x[c as usize])
            .sum();
    }
    y
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
    fn small_multiply_is_exact() {
        let csr = GraphBuilder::new(2)
            .weighted_edges([(0, 1, 2.0), (1, 0, 3.0)])
            .build();
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        let mut spmv = Spmv::new(&mut rt, g).unwrap();
        spmv.reset(&mut rt);
        spmv.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
        // x = [1, 2]; y[0] = 2*x[1] = 4; y[1] = 3*x[0] = 3.
        assert_eq!(spmv.output(&mut rt), vec![4.0, 3.0]);
    }

    #[test]
    fn matches_reference_on_rmat() {
        let csr = Dataset::Rmat24.build_small(8).with_random_weights(8.0, 5);
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        let mut spmv = Spmv::new(&mut rt, g).unwrap();
        spmv.reset(&mut rt);
        spmv.run_iteration(&mut MemCtx::bulk(rt.machine_mut()));
        let x: Vec<f64> = (0..csr.num_vertices())
            .map(|v| 1.0 + (v % 7) as f64)
            .collect();
        let expect = reference_spmv(&csr, &x);
        for (got, want) in spmv.output(&mut rt).iter().zip(&expect) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
    }
}
