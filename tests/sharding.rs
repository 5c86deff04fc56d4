//! Determinism and bit-identity gates for the sharded simulation engine.
//!
//! Three contracts from the sharded-engine design are enforced here, at the
//! kernel level (the hms crate tests the same contracts at the machine
//! level):
//!
//! 1. **Run-to-run determinism** — same seed, same core count, same input
//!    ⇒ bit-identical simulated clocks, counters and checksums across two
//!    independent runs, threads notwithstanding.
//! 2. **Core-count invariance of kernel output** — every sharded kernel's
//!    output arrays (hence checksums) are bit-identical for 1, 2 and 4
//!    simulated cores. For the f64 kernels this is only true because the
//!    sharded bodies fold contributions in global edge order.
//! 3. **n = 1 runs on the resident core with no fork** — a context with
//!    one core drives the machine's own core directly, with no fork, merge
//!    or barrier: stats, clock, PEBS stream and trace ring match a default
//!    context bit-for-bit.

use atmem::{Atmem, AtmemConfig};
use atmem_apps::{
    run_protocol_cores, App, Bc, Bfs, BfsDir, Cc, HmsGraph, KCore, Kernel, MemCtx, Mode, PageRank,
    PageRankPull, Spmv, Sssp, Triangles,
};
use atmem_graph::{Csr, Dataset};
use atmem_hms::Platform;

fn runtime() -> Atmem {
    Atmem::new(Platform::testing(), AtmemConfig::default()).unwrap()
}

fn skewed_graph() -> Csr {
    Dataset::Twitter.build_small(7) // 2048 vertices, skewed degrees
}

fn symmetric_graph() -> Csr {
    let mut config = Dataset::Pokec.config();
    config.scale = 9;
    config.symmetrize = true;
    atmem_graph::rmat(&config, 11)
}

/// Runs `iters` iterations of a freshly instantiated kernel at the given
/// simulated core count and returns the checksum.
fn checksum_at_cores(
    csr: &Csr,
    make: &dyn Fn(&mut Atmem, &Csr) -> Box<dyn Kernel>,
    cores: usize,
    iters: usize,
) -> f64 {
    let mut rt = runtime();
    let mut kernel = make(&mut rt, csr);
    kernel.reset(&mut rt);
    for _ in 0..iters {
        kernel.run_iteration(&mut MemCtx::bulk(rt.machine_mut()).with_cores(cores));
    }
    kernel.checksum(&mut rt)
}

fn assert_core_count_invariant(
    name: &str,
    csr: &Csr,
    iters: usize,
    make: &dyn Fn(&mut Atmem, &Csr) -> Box<dyn Kernel>,
) {
    let scalar = checksum_at_cores(csr, make, 1, iters);
    for cores in [2usize, 4, 8] {
        let sharded = checksum_at_cores(csr, make, cores, iters);
        assert_eq!(
            scalar.to_bits(),
            sharded.to_bits(),
            "{name}: checksum diverges at {cores} cores ({scalar} vs {sharded})"
        );
    }
}

#[test]
fn kernel_outputs_are_core_count_invariant() {
    let skewed = skewed_graph();
    let weighted = skewed.clone().with_random_weights(16.0, 1);
    let symmetric = symmetric_graph();

    assert_core_count_invariant("PR-push", &skewed, 3, &|rt, csr| {
        let g = HmsGraph::load(rt, csr).unwrap();
        Box::new(PageRank::new(rt, g).unwrap())
    });
    assert_core_count_invariant("PR-pull", &skewed, 3, &|rt, csr| {
        Box::new(PageRankPull::new(rt, csr).unwrap())
    });
    assert_core_count_invariant("SpMV", &weighted, 2, &|rt, csr| {
        let g = HmsGraph::load(rt, csr).unwrap();
        Box::new(Spmv::new(rt, g).unwrap())
    });
    assert_core_count_invariant("CC", &skewed, 3, &|rt, csr| {
        let g = HmsGraph::load(rt, csr).unwrap();
        Box::new(Cc::new(rt, g).unwrap())
    });
    assert_core_count_invariant("kCore", &symmetric, 1, &|rt, csr| {
        let g = HmsGraph::load(rt, csr).unwrap();
        Box::new(KCore::new(rt, g).unwrap())
    });
    assert_core_count_invariant("TC", &symmetric, 1, &|rt, csr| {
        let g = HmsGraph::load(rt, csr).unwrap();
        Box::new(Triangles::new(rt, g).unwrap())
    });
}

#[test]
fn traversal_outputs_are_core_count_invariant() {
    let skewed = skewed_graph();
    let weighted = skewed.clone().with_random_weights(16.0, 1);

    assert_core_count_invariant("BFS", &skewed, 2, &|rt, csr| {
        let g = HmsGraph::load(rt, csr).unwrap();
        Box::new(Bfs::new(rt, g, 0).unwrap())
    });
    assert_core_count_invariant("BFS-dir", &skewed, 2, &|rt, csr| {
        Box::new(BfsDir::new(rt, csr, 0).unwrap())
    });
    assert_core_count_invariant("SSSP", &weighted, 2, &|rt, csr| {
        let g = HmsGraph::load(rt, csr).unwrap();
        Box::new(Sssp::new(rt, g, 0).unwrap())
    });
    assert_core_count_invariant("BC", &skewed, 2, &|rt, csr| {
        let g = HmsGraph::load(rt, csr).unwrap();
        Box::new(Bc::new(rt, g, 0).unwrap())
    });
}

/// Element-wise (not just checksum) bit-identity of every traversal
/// kernel's output arrays across core counts, with `par_cores == 1`
/// (the resident core alone) as the reference — the frontier partition must not
/// change a single distance, phase count or centrality bit.
#[test]
fn traversal_outputs_match_scalar_elementwise() {
    let csr = skewed_graph();
    let weighted = csr.clone().with_random_weights(16.0, 1);

    let bfs_at = |cores: usize| {
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        let mut bfs = Bfs::new(&mut rt, g, 0).unwrap();
        bfs.reset(&mut rt);
        bfs.run_iteration(&mut MemCtx::bulk(rt.machine_mut()).with_cores(cores));
        (bfs.distances(&mut rt), bfs.reached())
    };
    let bfs_dir_at = |cores: usize| {
        let mut rt = runtime();
        let mut bfs = BfsDir::new(&mut rt, &csr, 0).unwrap();
        bfs.reset(&mut rt);
        bfs.run_iteration(&mut MemCtx::bulk(rt.machine_mut()).with_cores(cores));
        (bfs.distances(&mut rt), bfs.phases())
    };
    let sssp_at = |cores: usize| {
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &weighted).unwrap();
        let mut sssp = Sssp::new(&mut rt, g, 0).unwrap();
        sssp.reset(&mut rt);
        sssp.run_iteration(&mut MemCtx::bulk(rt.machine_mut()).with_cores(cores));
        let bits: Vec<u32> = sssp
            .distances(&mut rt)
            .into_iter()
            .map(f32::to_bits)
            .collect();
        bits
    };
    let bc_at = |cores: usize| {
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        let mut bc = Bc::new(&mut rt, g, 0).unwrap();
        bc.reset(&mut rt);
        bc.run_iteration(&mut MemCtx::bulk(rt.machine_mut()).with_cores(cores));
        let bits: Vec<u64> = bc.scores(&mut rt).into_iter().map(f64::to_bits).collect();
        bits
    };

    let (bfs, bfs_dir, sssp, bc) = (bfs_at(1), bfs_dir_at(1), sssp_at(1), bc_at(1));
    let (td, bu) = bfs_dir.1;
    assert!(td >= 1 && bu >= 1, "graph must exercise both directions");
    for cores in [2usize, 4, 8] {
        assert_eq!(bfs, bfs_at(cores), "BFS diverges at {cores} cores");
        assert_eq!(
            bfs_dir,
            bfs_dir_at(cores),
            "BFS-dir diverges at {cores} cores"
        );
        assert_eq!(sssp, sssp_at(cores), "SSSP diverges at {cores} cores");
        assert_eq!(bc, bc_at(cores), "BC diverges at {cores} cores");
    }
}

/// Same seed, same core count ⇒ the sharded traversal reproduces its
/// stats, clock, merged PEBS stream and outputs bit-for-bit — the
/// frontier partition introduces no scheduling nondeterminism.
#[test]
fn sharded_traversal_is_deterministic_across_runs() {
    let csr = skewed_graph();
    let run = || {
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        let mut bfs = Bfs::new(&mut rt, g, 0).unwrap();
        bfs.reset(&mut rt);
        rt.machine_mut().pebs_enable(64, 16);
        for _ in 0..2 {
            bfs.run_iteration(&mut MemCtx::bulk(rt.machine_mut()).with_cores(4));
        }
        let stats = rt.machine().stats();
        let now = rt.machine().now().as_ns().to_bits();
        let pebs = rt.machine_mut().pebs_drain();
        let audit = rt.machine_mut().audit();
        assert!(audit.is_empty(), "audit: {audit:?}");
        (stats, now, pebs, bfs.distances(&mut rt))
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "stats diverge");
    assert_eq!(a.1, b.1, "clocks diverge");
    assert_eq!(a.2, b.2, "PEBS streams diverge");
    assert_eq!(a.3, b.3, "outputs diverge");
}

#[test]
fn sharded_protocol_is_deterministic_across_runs() {
    let csr = skewed_graph();
    let run = || {
        run_protocol_cores(
            Platform::testing(),
            AtmemConfig::default(),
            &csr,
            App::PageRank,
            Mode::Atmem,
            2,
        )
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(
        a.first_iter.as_ns().to_bits(),
        b.first_iter.as_ns().to_bits()
    );
    assert_eq!(
        a.second_iter.as_ns().to_bits(),
        b.second_iter.as_ns().to_bits()
    );
    assert_eq!(a.second_iter_stats, b.second_iter_stats);
    assert_eq!(a.checksum.to_bits(), b.checksum.to_bits());
    let (oa, ob) = (a.optimize.unwrap(), b.optimize.unwrap());
    assert_eq!(oa.migration.bytes_moved, ob.migration.bytes_moved);
    assert_eq!(
        oa.migration.time.as_ns().to_bits(),
        ob.migration.time.as_ns().to_bits()
    );
    assert!(a.audit.is_empty(), "audit: {:?}", a.audit);
}

#[test]
fn one_core_context_is_bit_identical_to_the_scalar_engine() {
    let csr = skewed_graph();
    // Two identical runtimes; one drives the kernel through a default
    // context, the other through `with_cores(1)`. PEBS sampling and
    // tracing are both on so the comparison covers every per-core stream.
    let run = |cores: Option<usize>| {
        let mut rt = runtime();
        let g = HmsGraph::load(&mut rt, &csr).unwrap();
        let mut pr = PageRank::new(&mut rt, g).unwrap();
        pr.reset(&mut rt);
        rt.machine_mut().pebs_enable(64, 16);
        rt.machine_mut().trace_enable();
        for _ in 0..2 {
            let mut ctx = MemCtx::bulk(rt.machine_mut());
            if let Some(n) = cores {
                ctx = ctx.with_cores(n);
            }
            pr.run_iteration(&mut ctx);
        }
        let stats = rt.machine().stats();
        let now = rt.machine().now().as_ns().to_bits();
        let pebs = rt.machine_mut().pebs_drain();
        let trace = rt.machine_mut().trace_drain();
        let ranks: Vec<u64> = pr.ranks(&mut rt).into_iter().map(|r| r.to_bits()).collect();
        (stats, now, pebs, trace, ranks)
    };
    let scalar = run(None);
    let one_core = run(Some(1));
    assert_eq!(scalar.0, one_core.0, "stats diverge");
    assert_eq!(scalar.1, one_core.1, "clocks diverge");
    assert_eq!(scalar.2, one_core.2, "PEBS streams diverge");
    assert_eq!(scalar.3, one_core.3, "traces diverge");
    assert_eq!(scalar.4, one_core.4, "outputs diverge");
}

#[test]
fn merged_pebs_stream_drives_the_optimizer() {
    let csr = skewed_graph();
    let base = run_protocol_cores(
        Platform::testing(),
        AtmemConfig::default(),
        &csr,
        App::PageRank,
        Mode::Baseline,
        2,
    )
    .unwrap();
    let atm = run_protocol_cores(
        Platform::testing(),
        AtmemConfig::default(),
        &csr,
        App::PageRank,
        Mode::Atmem,
        2,
    )
    .unwrap();
    assert_eq!(
        base.checksum.to_bits(),
        atm.checksum.to_bits(),
        "placement must not change results"
    );
    let opt = atm.optimize.expect("ATMem mode optimizes");
    assert!(
        opt.migration.bytes_moved > 0,
        "the merged sample stream must surface hot regions to migrate"
    );
    assert!(
        atm.second_iter.as_ns() < base.second_iter.as_ns(),
        "atmem {} vs baseline {}",
        atm.second_iter,
        base.second_iter
    );
    assert!(atm.audit.is_empty(), "audit: {:?}", atm.audit);
}
