//! Wall-clock micro-benchmarks of one kernel iteration through the full
//! simulated access path (host simulator throughput, not simulated time).
//!
//! Each kernel runs twice — through a [`AccessMode::Scalar`] context
//! (per-element path) and through [`AccessMode::Bulk`] (block walks and the
//! window engine) — and both must agree on the kernel checksum, the
//! machine counters and the simulated clock (the fast paths are invisible
//! in simulation space). SpMV and PageRank full iterations assert the ≥3x
//! host speedup of the stream-dominated path; the isolated PageRank
//! scatter and SpMV gather phases assert ≥2x on the window engine alone.
//!
//! The **core sweep** runs PageRank, SpMV and the traversal kernels (BFS,
//! SSSP, BC) at 1 and 4 simulated cores: kernel checksums must be
//! bit-identical at every core count (always asserted, even under
//! `--smoke`), the 4-core run of the regular kernels must be ≥2x faster
//! wall-clock, and at least one frontier-sharded traversal kernel must
//! show a wall-clock speedup — gates that only arm when the host actually
//! has ≥4 hardware threads to shard over (and never under `--smoke`).
//!
//! `--smoke` runs only the equality half on a reduced graph (no timing, no
//! speedup gates) so CI can verify Scalar/Bulk equivalence on every push
//! without inheriting wall-clock flakiness.
//!
//! Every run snapshots its measurements to `BENCH_kernels.json` at the repo
//! root (override with `--json PATH`).

use atmem::{Atmem, AtmemConfig};
use atmem_apps::{
    AccessMode, Bc, Bfs, HmsGraph, Kernel, MemCtx, PageRank, PageRankPull, Spmv, Sssp,
};
use atmem_bench::harness::{bench_with_setup, black_box};
use atmem_graph::{rmat, Csr, Dataset};
use atmem_hms::{MachineStats, Placement, Platform, SimDuration, TrackedVec};

const SAMPLES: usize = 15;

/// R-MAT input sized so one iteration takes milliseconds host-side. The
/// low edge factor keeps the iterations stream-dominated (road-network-like
/// sparsity), which is the regime the bulk path targets.
fn bench_graph(weighted: bool, smoke: bool) -> Csr {
    let mut config = Dataset::Rmat24.config();
    config.scale = if smoke { 9 } else { 13 }; // 512 or 8192 vertices
    config.edge_factor = 2;
    let g = rmat(&config, 42);
    if weighted {
        g.with_random_weights(16.0, 7)
    } else {
        g
    }
}

/// Denser R-MAT for the traversal sweeps: each frontier level must carry
/// enough edge work to amortize the sharded engine's per-level fork and
/// merge, which the low-edge-factor stream graph above would not (its
/// levels are a few hundred vertices — thread-spawn territory).
fn traversal_graph(weighted: bool, smoke: bool) -> Csr {
    let mut config = Dataset::Rmat24.config();
    config.scale = if smoke { 9 } else { 13 }; // 512 or 8192 vertices
    config.edge_factor = 16;
    let g = rmat(&config, 24);
    if weighted {
        g.with_random_weights(16.0, 5)
    } else {
        g
    }
}

/// Kernel factory over the raw CSR (some kernels, like PR-pull, build
/// their own transposed simulator-resident graph).
type Make = dyn Fn(&mut Atmem, &Csr) -> Box<dyn Kernel>;

fn fresh_kernel(csr: &Csr, make: &Make) -> (Atmem, Box<dyn Kernel>) {
    let mut rt = Atmem::new(Platform::testing(), AtmemConfig::default()).expect("runtime");
    let mut kernel = make(&mut rt, csr);
    kernel.reset(&mut rt);
    (rt, kernel)
}

fn run_once(csr: &Csr, mode: AccessMode, make: &Make) -> (f64, MachineStats, SimDuration) {
    let (mut rt, mut kernel) = fresh_kernel(csr, make);
    // Two iterations: the second runs against warm TLB/LLC state.
    for _ in 0..2 {
        kernel.run_iteration(&mut MemCtx::new(rt.machine_mut(), mode));
    }
    let sum = kernel.checksum(&mut rt);
    (sum, rt.machine().stats(), rt.now())
}

/// Runs two iterations in both modes and asserts the simulated results
/// are bit-identical — the Scalar/Bulk equivalence gate CI runs on every
/// push (`--smoke`).
fn assert_modes_agree(name: &str, csr: &Csr, make: &Make) {
    let (scalar_sum, scalar_stats, scalar_now) = run_once(csr, AccessMode::Scalar, make);
    let (sum, stats, now) = run_once(csr, AccessMode::Bulk, make);
    assert_eq!(scalar_sum, sum, "{name}: bulk checksum diverges");
    assert_eq!(scalar_stats, stats, "{name}: bulk counters diverge");
    assert_eq!(scalar_now, now, "{name}: bulk simulated clock diverges");
    println!(
        "equivalence/{name}: scalar/bulk ok ({} accesses)",
        scalar_stats.accesses
    );
}

/// Times one iteration in both modes (equality already asserted) and
/// returns the bulk-over-scalar host speedup.
fn compare_modes(name: &str, csr: &Csr, make: &Make) -> f64 {
    let mut results = Vec::new();
    for (label, mode) in [("scalar", AccessMode::Scalar), ("bulk", AccessMode::Bulk)] {
        let r = bench_with_setup(
            &format!("kernel_iteration/{name}/{label}"),
            SAMPLES,
            || fresh_kernel(csr, make),
            |(mut rt, mut kernel)| {
                // Time the iteration only; checksum equality was asserted
                // separately and state teardown happens after the clock
                // stops.
                kernel.run_iteration(&mut MemCtx::new(rt.machine_mut(), mode));
                black_box((rt, kernel))
            },
        );
        results.push(r);
    }
    // Fastest-sample comparison: the host is a shared single core, so
    // medians absorb scheduler interference that has nothing to do with
    // either access path.
    let speedup = results[0].min_ns() / results[1].min_ns();
    println!("kernel_iteration/{name}: bulk speedup {speedup:.2}x\n");
    speedup
}

/// State for the isolated random-access phase benchmarks: a property array
/// plus the graph's adjacency, both simulator-resident, and the host-side
/// staging the kernels keep.
struct PhaseState {
    rt: Atmem,
    array: TrackedVec<f64>,
    cols: TrackedVec<u32>,
    bounds: Vec<u64>,
    nbrs: Vec<u32>,
    colbuf: Vec<u32>,
}

fn phase_state(csr: &Csr) -> PhaseState {
    let mut rt = Atmem::new(Platform::testing(), AtmemConfig::default()).expect("runtime");
    let array = TrackedVec::<f64>::new(
        rt.machine_mut(),
        csr.num_vertices(),
        Placement::Preferred(atmem_hms::TierId::FAST),
    )
    .expect("alloc");
    array.fill(rt.machine_mut(), 1.0);
    let nbrs: Vec<u32> = csr.neighbors().to_vec();
    let cols = TrackedVec::<u32>::new(
        rt.machine_mut(),
        nbrs.len(),
        Placement::Preferred(atmem_hms::TierId::FAST),
    )
    .expect("alloc");
    for (e, &c) in nbrs.iter().enumerate() {
        cols.poke(rt.machine_mut(), e, c);
    }
    let bounds: Vec<u64> = csr.offsets().to_vec();
    PhaseState {
        rt,
        array,
        cols,
        bounds,
        nbrs,
        colbuf: Vec::new(),
    }
}

/// The PageRank push kernel's scatter phase exactly as the kernel executes
/// it: the neighbour windows are already host-staged (the kernel streams
/// them once per iteration, outside this phase), so this is the pure window
/// engine — one `gather_update` window per vertex over its out-neighbours.
fn pr_scatter_phase(st: &mut PhaseState, mode: AccessMode) {
    let mut ctx = MemCtx::new(st.rt.machine_mut(), mode);
    for v in 0..st.bounds.len() - 1 {
        let (s, e) = (st.bounds[v] as usize, st.bounds[v + 1] as usize);
        if s == e {
            continue;
        }
        let share = 1.0 / (e - s) as f64;
        ctx.gather_update(&st.array, &st.nbrs[s..e], |_, acc| acc + share);
    }
}

/// The SpMV kernel's gather phase exactly as the kernel executes it: the
/// accounted column-index stream followed by the `x[col]` gather over the
/// whole edge list (the kernel cannot gather without first reading the
/// indices through the accounted path).
fn spmv_gather_phase(st: &mut PhaseState, out: &mut Vec<f64>, mode: AccessMode) {
    let mut ctx = MemCtx::new(st.rt.machine_mut(), mode);
    st.colbuf.resize(st.nbrs.len(), 0);
    ctx.read_run(&st.cols, 0, &mut st.colbuf);
    out.resize(st.colbuf.len(), 0.0);
    ctx.gather(&st.array, &st.colbuf, out);
}

/// Asserts Scalar/Bulk equality of a phase and (unless `smoke`) times it,
/// returning the bulk-over-scalar host speedup (1.0 under `smoke`).
fn compare_phase(
    name: &str,
    csr: &Csr,
    smoke: bool,
    run: impl Fn(&mut PhaseState, AccessMode),
) -> f64 {
    let mut scalar = phase_state(csr);
    run(&mut scalar, AccessMode::Scalar);
    let mut bulk = phase_state(csr);
    run(&mut bulk, AccessMode::Bulk);
    assert_eq!(
        scalar.rt.machine().stats(),
        bulk.rt.machine().stats(),
        "{name}: phase counters diverge"
    );
    assert_eq!(
        scalar.rt.now(),
        bulk.rt.now(),
        "{name}: phase clocks diverge"
    );
    assert_eq!(
        scalar.array.to_vec(scalar.rt.machine_mut()),
        bulk.array.to_vec(bulk.rt.machine_mut()),
        "{name}: phase contents diverge"
    );
    println!(
        "equivalence/{name}: ok ({} accesses)",
        bulk.rt.machine().stats().accesses
    );
    if smoke {
        return 1.0;
    }
    let mut results = Vec::new();
    for (label, mode) in [("scalar", AccessMode::Scalar), ("bulk", AccessMode::Bulk)] {
        let r = bench_with_setup(
            &format!("phase/{name}/{label}"),
            SAMPLES,
            || phase_state(csr),
            |mut st| {
                run(&mut st, mode);
                black_box(st)
            },
        );
        results.push(r);
    }
    let speedup = results[0].min_ns() / results[1].min_ns();
    println!("phase/{name}: bulk speedup {speedup:.2}x\n");
    speedup
}

/// Runs `iters` iterations at `cores` simulated cores and returns the
/// checksum (used by the sweep's invariance assertion).
fn checksum_at_cores(csr: &Csr, make: &Make, cores: usize) -> f64 {
    let (mut rt, mut kernel) = fresh_kernel(csr, make);
    kernel.run_iteration(&mut MemCtx::bulk(rt.machine_mut()).with_cores(cores));
    kernel.checksum(&mut rt)
}

/// One kernel's core-count sweep: asserts checksum invariance across
/// 1/2/4 simulated cores, then (unless `smoke`) times 1-core vs 4-core
/// iterations and returns `(cores1_min_ns, cores4_min_ns)`.
fn core_sweep(name: &str, csr: &Csr, smoke: bool, make: &Make) -> Option<(f64, f64)> {
    let scalar = checksum_at_cores(csr, make, 1);
    for cores in [2usize, 4] {
        let sharded = checksum_at_cores(csr, make, cores);
        assert_eq!(
            scalar.to_bits(),
            sharded.to_bits(),
            "{name}: checksum diverges at {cores} cores"
        );
    }
    println!("core_sweep/{name}: checksums invariant across 1/2/4 cores");
    if smoke {
        return None;
    }
    let mut mins = Vec::new();
    for cores in [1usize, 4] {
        let r = bench_with_setup(
            &format!("core_sweep/{name}/cores{cores}"),
            SAMPLES,
            || fresh_kernel(csr, make),
            |(mut rt, mut kernel)| {
                kernel.run_iteration(&mut MemCtx::bulk(rt.machine_mut()).with_cores(cores));
                black_box((rt, kernel))
            },
        );
        mins.push(r.min_ns());
    }
    let speedup = mins[0] / mins[1];
    println!("core_sweep/{name}: 4-core speedup {speedup:.2}x\n");
    Some((mins[0], mins[1]))
}

/// Hand-rolled JSON snapshot of the run's measurements (no serde in-tree).
/// Returns whether the file was written; a failure is reported on stderr.
fn write_snapshot(path: &str, smoke: bool, entries: &[(String, f64)]) -> bool {
    let mut body = String::from("{\n");
    body.push_str(&format!("  \"smoke\": {smoke},\n"));
    body.push_str(&format!(
        "  \"host_parallelism\": {},\n",
        host_parallelism()
    ));
    body.push_str("  \"measurements\": {\n");
    for (i, (key, value)) in entries.iter().enumerate() {
        let sep = if i + 1 == entries.len() { "" } else { "," };
        body.push_str(&format!("    \"{key}\": {value}{sep}\n"));
    }
    body.push_str("  }\n}\n");
    match std::fs::write(path, body) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("warning: could not write {path}: {e}");
            false
        }
    }
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() {
    let mut smoke = false;
    let mut json_path =
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json").to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--json" => json_path = args.next().expect("missing value for --json"),
            _ => {}
        }
    }
    let weighted = bench_graph(true, smoke);
    let plain = bench_graph(false, smoke);

    let make_spmv = |rt: &mut Atmem, csr: &Csr| -> Box<dyn Kernel> {
        let g = HmsGraph::load(rt, csr).expect("load");
        Box::new(Spmv::new(rt, g).expect("kernel"))
    };
    let make_pr = |rt: &mut Atmem, csr: &Csr| -> Box<dyn Kernel> {
        let g = HmsGraph::load(rt, csr).expect("load");
        Box::new(PageRank::new(rt, g).expect("kernel"))
    };
    let make_prpull = |rt: &mut Atmem, csr: &Csr| -> Box<dyn Kernel> {
        Box::new(PageRankPull::new(rt, csr).expect("kernel"))
    };

    assert_modes_agree("SpMV", &weighted, &make_spmv);
    assert_modes_agree("PR", &plain, &make_pr);
    assert_modes_agree("PR-pull", &plain, &make_prpull);
    let pr_scatter = compare_phase("PR-scatter", &plain, smoke, pr_scatter_phase);
    let spmv_gather = compare_phase("SpMV-gather", &weighted, smoke, |st, mode| {
        let mut out = Vec::new();
        spmv_gather_phase(st, &mut out, mode);
        black_box(out);
    });

    // Core-count sweep: output invariance always, timings unless --smoke.
    // The traversal kernels run their frontier-sharded bodies here — the
    // smoke half is the CI gate that distances/scores survive the
    // partition bit-for-bit at 1/2/4 cores.
    let trav = traversal_graph(false, smoke);
    let trav_weighted = traversal_graph(true, smoke);
    let make_bfs = |rt: &mut Atmem, csr: &Csr| -> Box<dyn Kernel> {
        let g = HmsGraph::load(rt, csr).expect("load");
        Box::new(Bfs::new(rt, g, 0).expect("kernel"))
    };
    let make_sssp = |rt: &mut Atmem, csr: &Csr| -> Box<dyn Kernel> {
        let g = HmsGraph::load(rt, csr).expect("load");
        Box::new(Sssp::new(rt, g, 0).expect("kernel"))
    };
    let make_bc = |rt: &mut Atmem, csr: &Csr| -> Box<dyn Kernel> {
        let g = HmsGraph::load(rt, csr).expect("load");
        Box::new(Bc::new(rt, g, 0).expect("kernel"))
    };
    assert_modes_agree("BFS", &trav, &make_bfs);
    let pr_sweep = core_sweep("PR", &plain, smoke, &make_pr);
    let spmv_sweep = core_sweep("SpMV", &weighted, smoke, &make_spmv);
    let bfs_sweep = core_sweep("BFS", &trav, smoke, &make_bfs);
    let sssp_sweep = core_sweep("SSSP", &trav_weighted, smoke, &make_sssp);
    let bc_sweep = core_sweep("BC", &trav, smoke, &make_bc);

    if smoke {
        println!("smoke run: equivalence checks passed, timing gates skipped");
        if write_snapshot(&json_path, smoke, &[]) {
            println!("snapshot: {json_path}");
        }
        return;
    }

    let spmv_speedup = compare_modes("SpMV", &weighted, &make_spmv);
    let pr_speedup = compare_modes("PR", &plain, &make_pr);

    let mut entries = vec![
        ("bulk_speedup_SpMV".to_string(), spmv_speedup),
        ("bulk_speedup_PR".to_string(), pr_speedup),
        ("bulk_speedup_PR_scatter".to_string(), pr_scatter),
        ("bulk_speedup_SpMV_gather".to_string(), spmv_gather),
    ];
    for (name, sweep) in [
        ("PR", pr_sweep),
        ("SpMV", spmv_sweep),
        ("BFS", bfs_sweep),
        ("SSSP", sssp_sweep),
        ("BC", bc_sweep),
    ] {
        if let Some((one, four)) = sweep {
            entries.push((format!("core_sweep_{name}_cores1_ns"), one));
            entries.push((format!("core_sweep_{name}_cores4_ns"), four));
            entries.push((format!("core_sweep_{name}_speedup"), one / four));
        }
    }
    if write_snapshot(&json_path, smoke, &entries) {
        println!("snapshot: {json_path}");
    }

    assert!(
        spmv_speedup >= 3.0,
        "SpMV bulk path must be >= 3x faster host-side, got {spmv_speedup:.2}x"
    );
    assert!(
        pr_speedup >= 3.0,
        "PageRank bulk path must be >= 3x faster host-side, got {pr_speedup:.2}x"
    );
    assert!(
        pr_scatter >= 2.0,
        "PageRank scatter phase must be >= 2x faster in bulk, got {pr_scatter:.2}x"
    );
    assert!(
        spmv_gather >= 2.0,
        "SpMV gather phase must be >= 2x faster in bulk, got {spmv_gather:.2}x"
    );
    // The sharded-engine wall-clock gate needs real hardware threads to
    // shard over; on smaller hosts the sweep still reports, but only the
    // invariance half gates.
    if host_parallelism() >= 4 {
        for (name, sweep) in [("PR", pr_sweep), ("SpMV", spmv_sweep)] {
            let (one, four) = sweep.expect("sweep timings present outside --smoke");
            let speedup = one / four;
            assert!(
                speedup >= 2.0,
                "{name} at 4 simulated cores must be >= 2x faster wall-clock, got {speedup:.2}x"
            );
        }
        // Frontier-sharded traversals pay a fork/merge barrier per level,
        // so the bar is lower than the streaming kernels' 2x — but at
        // least one of them must come out ahead of scalar wall-clock.
        let best = [("BFS", bfs_sweep), ("SSSP", sssp_sweep), ("BC", bc_sweep)]
            .into_iter()
            .map(|(name, sweep)| {
                let (one, four) = sweep.expect("sweep timings present outside --smoke");
                (name, one / four)
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("traversal sweeps ran");
        assert!(
            best.1 >= 1.1,
            "at least one frontier-sharded traversal kernel must beat scalar \
             wall-clock at 4 cores; best was {} at {:.2}x",
            best.0,
            best.1
        );
        println!(
            "core_sweep traversal gate: best {} at {:.2}x",
            best.0, best.1
        );
    } else {
        println!(
            "core-sweep timing gate skipped: host parallelism {} < 4",
            host_parallelism()
        );
    }
}
