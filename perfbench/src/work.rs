//! The four workloads and the op each one repeats.
//!
//! Every op starts from a fresh `Machine` (cold simulated TLB and LLC), as
//! the paper's protocol does, and every layer call is wrapped in a span
//! named after the layer. The simulated outcome of an op is a [`SimOut`],
//! which must repeat bit for bit for a fixed seed.

use std::time::Instant;

use atmem::{analyze, Atmem, AtmemConfig, MigrationMechanism, MigrationOutcome, OptimizeReport};
use atmem_apps::{
    bc::reference_bc, bfs::reference_bfs, cc::reference_components, pagerank::reference_pagerank,
    spmv::reference_spmv, sssp::reference_sssp, AccessMode, App, HmsGraph, HotWindow, MemCtx,
};
use atmem_graph::{rmat, Csr, Dataset};
use atmem_hms::{MachineStats, Platform, TrackedVec};
use atmem_rng::SmallRng;

use crate::trace::Tracer;
use crate::yardstick;

/// A named input set and the op the benchmark repeats on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper protocol for six kernels on one simulated core.
    Protocol1,
    /// The same on two simulated cores (the sharded engine).
    Protocol2,
    /// A moving hot window, staged migration with demotion.
    PhaseStaged,
    /// The same moving window, migrated page by page with `mbind`.
    PhaseMbind,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Protocol1,
        Workload::Protocol2,
        Workload::PhaseStaged,
        Workload::PhaseMbind,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Protocol1 => "protocol-1core",
            Workload::Protocol2 => "protocol-2core",
            Workload::PhaseStaged => "phase-staged",
            Workload::PhaseMbind => "phase-mbind",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ops in one pass: one per kernel, or one whole phase sequence.
    pub fn ops_per_pass(self) -> usize {
        match self {
            Workload::Protocol1 | Workload::Protocol2 => APPS.len(),
            Workload::PhaseStaged | Workload::PhaseMbind => 1,
        }
    }

    fn cores(self) -> usize {
        if self == Workload::Protocol2 {
            2
        } else {
            1
        }
    }
}

/// The protocol kernels, in the paper's figure order plus SpMV.
pub const APPS: [App; 6] = [
    App::Bfs,
    App::Sssp,
    App::PageRank,
    App::Bc,
    App::Cc,
    App::Spmv,
];

/// Kernels whose iteration 2 is replayed under every access mode in the
/// traced run of `protocol-1core` (the kernels with a planned path).
pub const MODE_APPS: [App; 3] = [App::Bfs, App::PageRank, App::Spmv];

/// Elements of the phase workloads' object: 64 MiB of `u64`.
const PHASE_ELEMS: usize = 8 << 20;
/// Hot window: 1/16 of the object, 4 MiB.
const PHASE_WINDOW: usize = PHASE_ELEMS / 16;
/// Window moves per op.
const PHASE_ROUNDS: usize = 8;
/// Accounted reads per drive (each round has a profiled and a measured
/// drive).
const PHASE_ACCESSES: usize = 400_000;
/// Share of accesses inside the window.
const PHASE_HOT: f64 = 0.9;

/// Simulated outcome of ops, summed over a pass. Everything here comes
/// from the simulated clock and counters, so it repeats exactly for a seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimOut {
    /// Simulated ns of the measured phases (iteration 2 / measured drives).
    pub sim_ns: f64,
    /// Simulated accesses of the measured phases.
    pub accesses: u64,
    /// Simulated accesses of the profiled phases.
    pub profiled_accesses: u64,
    /// TLB hits and misses over the measured phases.
    pub tlb_hits: u64,
    /// See `tlb_hits`.
    pub tlb_misses: u64,
    /// LLC read hits and misses over the measured phases.
    pub llc_read_hits: u64,
    /// See `llc_read_hits`.
    pub llc_read_misses: u64,
    /// Mappings backing the registered objects after the measured phase.
    pub mappings: u64,
    /// PEBS records drained, and those attributed to an object.
    pub samples: u64,
    /// See `samples`.
    pub attributed: u64,
    /// Analyzer selections.
    pub sampled_chunks: u64,
    /// See `sampled_chunks`.
    pub promoted_chunks: u64,
    /// Bytes moved up by promotion and down by demotion.
    pub promoted_bytes: u64,
    /// See `promoted_bytes`.
    pub demoted_bytes: u64,
    /// Regions fully migrated (both directions).
    pub regions: u64,
    /// Bytes planned for migration: moved + skipped + failed.
    pub planned_bytes: u64,
    /// Simulated migration time.
    pub migrate_sim_ns: f64,
    /// Sum over optimize calls of `data_ratio × registered bytes`.
    pub fast_bytes: f64,
    /// Sum over optimize calls of registered bytes.
    pub registered_bytes: u64,
    /// Output checksums, summed.
    pub checksum: f64,
}

impl SimOut {
    /// Adds `o` into `self`.
    pub fn add(&mut self, o: &SimOut) {
        self.sim_ns += o.sim_ns;
        self.accesses += o.accesses;
        self.profiled_accesses += o.profiled_accesses;
        self.tlb_hits += o.tlb_hits;
        self.tlb_misses += o.tlb_misses;
        self.llc_read_hits += o.llc_read_hits;
        self.llc_read_misses += o.llc_read_misses;
        self.mappings += o.mappings;
        self.samples += o.samples;
        self.attributed += o.attributed;
        self.sampled_chunks += o.sampled_chunks;
        self.promoted_chunks += o.promoted_chunks;
        self.promoted_bytes += o.promoted_bytes;
        self.demoted_bytes += o.demoted_bytes;
        self.regions += o.regions;
        self.planned_bytes += o.planned_bytes;
        self.migrate_sim_ns += o.migrate_sim_ns;
        self.fast_bytes += o.fast_bytes;
        self.registered_bytes += o.registered_bytes;
        self.checksum += o.checksum;
    }

    /// Bit patterns of every field, for exact comparison across runs.
    pub fn digest(&self) -> Vec<u64> {
        vec![
            self.sim_ns.to_bits(),
            self.accesses,
            self.profiled_accesses,
            self.tlb_hits,
            self.tlb_misses,
            self.llc_read_hits,
            self.llc_read_misses,
            self.mappings,
            self.samples,
            self.attributed,
            self.sampled_chunks,
            self.promoted_chunks,
            self.promoted_bytes,
            self.demoted_bytes,
            self.regions,
            self.planned_bytes,
            self.migrate_sim_ns.to_bits(),
            self.fast_bytes.to_bits(),
            self.registered_bytes,
            self.checksum.to_bits(),
        ]
    }

    fn measured(&mut self, delta: &MachineStats) {
        self.sim_ns += delta.time_ns;
        self.accesses += delta.accesses;
        self.tlb_hits += delta.tlb_hits;
        self.tlb_misses += delta.tlb_misses;
        self.llc_read_hits += delta.llc_read_hits;
        self.llc_read_misses += delta.llc_read_misses;
    }

    fn optimized(&mut self, r: &OptimizeReport) {
        let planned =
            |m: &MigrationOutcome| (m.bytes_moved + m.bytes_skipped + m.bytes_failed) as u64;
        self.samples += r.profile.samples;
        self.attributed += r.profile.attributed;
        self.sampled_chunks += r.analysis.sampled_chunks() as u64;
        self.promoted_chunks += r.analysis.promoted_chunks() as u64;
        self.promoted_bytes += r.migration.bytes_moved as u64;
        self.regions += r.migration.regions as u64;
        self.planned_bytes += planned(&r.migration);
        self.migrate_sim_ns += r.migration.time.as_ns();
        if let Some(d) = &r.demotion {
            self.demoted_bytes += d.bytes_moved as u64;
            self.regions += d.regions as u64;
            self.planned_bytes += planned(d);
            self.migrate_sim_ns += d.time.as_ns();
        }
        self.fast_bytes += r.data_ratio * r.total_bytes as f64;
        self.registered_bytes += r.total_bytes as u64;
    }
}

/// Host seconds between fixed points of a pass ("laps"): the steps of
/// every op, in the same order every pass. With a yardstick, the
/// [`yardstick`] work runs after every lap, timed apart from the laps.
#[derive(Debug)]
pub struct Laps {
    last: Instant,
    yardstick: bool,
    /// Seconds of each lap so far.
    pub secs: Vec<f64>,
    /// Seconds of each yardstick run so far.
    pub yardstick_secs: Vec<f64>,
}

impl Laps {
    /// Starts the first lap now.
    pub fn start(yardstick: bool) -> Laps {
        Laps {
            last: Instant::now(),
            yardstick,
            secs: Vec::new(),
            yardstick_secs: Vec::new(),
        }
    }

    /// Ends the current lap, runs the yardstick if there is one, and
    /// starts the next lap.
    pub fn lap(&mut self) {
        self.secs.push(self.last.elapsed().as_secs_f64());
        if self.yardstick {
            self.yardstick_secs
                .push(yardstick::time(self.secs.len() as u64));
        }
        self.last = Instant::now();
    }
}

/// Inputs of a protocol workload and their host references.
#[derive(Debug)]
pub struct GraphInputs {
    csr: Csr,
    weighted: Csr,
    /// Reference checksum per entry of [`APPS`] (CC: the component labels
    /// are checked instead, see `check_cc`).
    ref_checksums: [f64; APPS.len()],
    components: Vec<u32>,
}

/// Inputs of a phase workload.
#[derive(Debug)]
pub struct PhaseInputs {
    image: Vec<u64>,
    starts: [usize; PHASE_ROUNDS],
    seeds: [(u64, u64); PHASE_ROUNDS],
}

/// Generated inputs.
#[derive(Debug)]
pub enum Inputs {
    /// Protocol workloads.
    Graph(GraphInputs),
    /// Phase workloads.
    Phase(PhaseInputs),
}

/// Generates a workload's inputs from `seed`.
pub fn setup(w: Workload, seed: u64, t: &mut Tracer) -> Inputs {
    match w {
        Workload::Protocol1 | Workload::Protocol2 => {
            Inputs::Graph(graph_inputs(&Dataset::Rmat24.config(), seed, t))
        }
        Workload::PhaseStaged | Workload::PhaseMbind => {
            Inputs::Phase(t.span("bench.image", |_| phase_inputs(seed)))
        }
    }
}

fn spmv_x(n: usize) -> Vec<f64> {
    (0..n).map(|v| 1.0 + (v % 7) as f64).collect()
}

/// Generates an R-MAT graph (plus a weighted copy) from `seed` and computes
/// every kernel's host reference once.
pub fn graph_inputs(config: &atmem_graph::RmatConfig, seed: u64, t: &mut Tracer) -> GraphInputs {
    let (csr, weighted) = t.span("graph.rmat", |_| {
        let csr = rmat(config, seed);
        let weighted = csr.clone().with_random_weights(64.0, seed ^ 0x5EED_5EED);
        (csr, weighted)
    });
    t.span("apps.reference", |_| {
        let sum_f64 = |v: &[f64]| v.iter().sum::<f64>();
        let ref_checksums = APPS.map(|app| match app {
            App::Bfs => reference_bfs(&csr, 0)
                .iter()
                .filter(|&&d| d != u32::MAX)
                .map(|&d| d as f64)
                .sum(),
            App::Sssp => reference_sssp(&weighted, 0)
                .iter()
                .filter(|d| d.is_finite())
                .map(|&d| d as f64)
                .sum(),
            App::PageRank => sum_f64(&reference_pagerank(&csr, 1)),
            App::Bc => sum_f64(&reference_bc(&csr, 0)),
            App::Cc => 0.0,
            App::Spmv => sum_f64(&reference_spmv(&weighted, &spmv_x(csr.num_vertices()))),
        });
        let components = reference_components(&csr);
        GraphInputs {
            csr,
            weighted,
            ref_checksums,
            components,
        }
    })
}

fn phase_inputs(seed: u64) -> PhaseInputs {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xF4A5E);
    let image: Vec<u64> = (0..PHASE_ELEMS).map(|_| rng.gen()).collect();
    // The window visits a different 4 MiB-aligned slot every round, never
    // one it visited before: a revisited slot is still splintered by an
    // earlier mbind, so revisits would make the mapping count, and with it
    // the host work, depend on the seed.
    let slots = PHASE_ELEMS / PHASE_WINDOW;
    let mut order: Vec<usize> = (0..slots).collect();
    for i in (1..slots).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let starts: [usize; PHASE_ROUNDS] = std::array::from_fn(|i| order[i] * PHASE_WINDOW);
    let seeds = [(); PHASE_ROUNDS].map(|_| (rng.gen(), rng.gen()));
    PhaseInputs {
        image,
        starts,
        seeds,
    }
}

/// Runs op `index` of a pass; returns its label and simulated outcome, or
/// why it failed. `optimize = false` runs the baseline: the same op with
/// no profiling and no optimize. The op's steps are timed into `laps`.
pub fn run_op(
    w: Workload,
    inputs: &Inputs,
    index: usize,
    optimize: bool,
    t: &mut Tracer,
    laps: &mut Laps,
) -> (String, Result<SimOut, String>) {
    match inputs {
        Inputs::Graph(g) => {
            let app = APPS[index];
            let label = format!("op.{}", app.name());
            let out = t.op(&label, |t| {
                protocol_op(t, laps, g, app, w.cores(), AccessMode::Bulk, optimize).map(|(o, _)| o)
            });
            (label, out)
        }
        Inputs::Phase(p) => {
            let mechanism = if w == Workload::PhaseMbind {
                MigrationMechanism::Mbind
            } else {
                MigrationMechanism::Staged
            };
            let label = format!("op.{}", w.name());
            let out = t.op(&label, |t| phase_op(t, laps, p, mechanism, optimize));
            (label, out)
        }
    }
}

/// Re-runs the protocol for `app` on one core with iteration 2 under
/// `mode`, untraced; returns the simulated outcome and iteration 2's host
/// ns.
pub fn mode_replay(g: &GraphInputs, app: App, mode: AccessMode) -> Result<(SimOut, u64), String> {
    protocol_op(
        &mut Tracer::new(false),
        &mut Laps::start(false),
        g,
        app,
        1,
        mode,
        true,
    )
}

fn err(what: &str) -> impl Fn(atmem::AtmemError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// One protocol op: load → profiled iteration 1 → optimize → iteration 2
/// → checksum → audit, on a fresh NVM-DRAM machine. Five laps: load,
/// iteration 1, optimize, iteration 2, checks.
fn protocol_op(
    t: &mut Tracer,
    laps: &mut Laps,
    g: &GraphInputs,
    app: App,
    cores: usize,
    iter2: AccessMode,
    optimize: bool,
) -> Result<(SimOut, u64), String> {
    let csr = if app.needs_weights() {
        &g.weighted
    } else {
        &g.csr
    };
    let mut out = SimOut::default();
    let mut rt = t
        .span("hms.machine_new", |_| {
            Atmem::new(Platform::nvm_dram(), AtmemConfig::default())
        })
        .map_err(err("runtime"))?;
    let mut kernel = t
        .span("apps.load", |_| {
            let graph = HmsGraph::load(&mut rt, csr)?;
            app.instantiate(&mut rt, graph)
        })
        .map_err(err("load"))?;
    t.span("apps.reset", |_| kernel.reset(&mut rt));
    if optimize {
        t.span("core.profiler.start", |_| rt.profiling_start())
            .map_err(err("profiling_start"))?;
    }
    laps.lap();
    let before = rt.machine().stats();
    t.span("apps.iter_profiled", |_| {
        kernel.run_iteration(&mut MemCtx::bulk(rt.machine_mut()).with_cores(cores));
    });
    out.profiled_accesses = rt.machine().stats().accesses - before.accesses;
    laps.lap();
    if optimize {
        t.span("core.profiler.stop", |_| rt.profiling_stop())
            .map_err(err("profiling_stop"))?;
        optimize_step(t, &mut rt, &mut out)?;
    }
    t.span("apps.reset", |_| kernel.reset(&mut rt));
    laps.lap();
    let before = rt.machine().stats();
    let host = Instant::now();
    t.span("apps.iter_measured", |_| {
        kernel.run_iteration(&mut MemCtx::new(rt.machine_mut(), iter2).with_cores(cores));
    });
    let iter2_ns = host.elapsed().as_nanos() as u64;
    laps.lap();
    out.measured(&rt.machine().stats().delta(&before));
    t.span("apps.checksum", |_| {
        out.checksum = kernel.checksum(&mut rt);
        check_output(g, app, &mut rt, out.checksum)
    })?;
    finish(t, &mut rt, &mut out)?;
    laps.lap();
    Ok((out, iter2_ns))
}

/// One phase op: the object is filled with the seeded image, then for each
/// round the window moves and a profiled drive → optimize → measured drive
/// runs; the image is read back at the end. Laps: load, then a profiled
/// drive, optimize and a measured drive per round, then the checks.
fn phase_op(
    t: &mut Tracer,
    laps: &mut Laps,
    p: &PhaseInputs,
    mechanism: MigrationMechanism,
    optimize: bool,
) -> Result<SimOut, String> {
    let mut config = AtmemConfig::default();
    config.migration.allow_demotion = true;
    config.migration.mechanism = mechanism;
    let mut out = SimOut::default();
    let mut rt = t
        .span("hms.machine_new", |_| {
            Atmem::new(Platform::hbm_dram_cxl(), config)
        })
        .map_err(err("runtime"))?;
    let v: TrackedVec<u64> = t
        .span("apps.load", |_| {
            let v = rt.malloc::<u64>(PHASE_ELEMS, "phase.data")?;
            v.fill_from(rt.machine_mut(), &p.image);
            Ok(v)
        })
        .map_err(err("load"))?;
    laps.lap();
    for (start, (seed1, seed2)) in p.starts.into_iter().zip(p.seeds) {
        let window = HotWindow {
            start,
            len: PHASE_WINDOW,
            hot_fraction: PHASE_HOT,
        };
        if optimize {
            t.span("core.profiler.start", |_| rt.profiling_start())
                .map_err(err("profiling_start"))?;
        }
        let before = rt.machine().stats().accesses;
        t.span("apps.iter_profiled", |_| {
            window.drive(&mut rt, &v, PHASE_ACCESSES, seed1)
        });
        out.profiled_accesses += rt.machine().stats().accesses - before;
        laps.lap();
        if optimize {
            t.span("core.profiler.stop", |_| rt.profiling_stop())
                .map_err(err("profiling_stop"))?;
            optimize_step(t, &mut rt, &mut out)?;
        }
        laps.lap();
        let before = rt.machine().stats();
        t.span("apps.iter_measured", |_| {
            window.drive(&mut rt, &v, PHASE_ACCESSES, seed2)
        });
        out.measured(&rt.machine().stats().delta(&before));
        laps.lap();
    }
    t.span("apps.checksum", |_| {
        let got = v.to_vec(rt.machine_mut());
        if got != p.image {
            return Err("phase object's data image changed".to_string());
        }
        out.checksum = got.iter().fold(0u64, |a, &x| a.wrapping_add(x)) as f64;
        Ok(())
    })?;
    finish(t, &mut rt, &mut out)?;
    laps.lap();
    Ok(out)
}

/// `optimize`, preceded in the traced run by a replay of the analyzer on
/// the same profile, which must agree with the analysis `optimize` ran.
fn optimize_step(t: &mut Tracer, rt: &mut Atmem, out: &mut SimOut) -> Result<(), String> {
    let replay = t.enabled().then(|| {
        t.span("core.analyzer", |_| {
            analyze(rt.registry(), &rt.config().analyzer)
        })
    });
    let report = t
        .span("core.optimize", |_| rt.optimize())
        .map_err(err("optimize"))?;
    if replay.is_some_and(|a| a != report.analysis) {
        return Err("analyzer replay disagrees with optimize's analysis".to_string());
    }
    out.optimized(&report);
    Ok(())
}

/// Audit and mapping count, the last steps of every op.
fn finish(t: &mut Tracer, rt: &mut Atmem, out: &mut SimOut) -> Result<(), String> {
    let audit = t.span("hms.audit", |_| rt.machine_mut().audit());
    if !audit.is_empty() {
        return Err(format!("audit: {}", audit.join("; ")));
    }
    out.mappings = t.span("hms.mappings_in", |_| {
        rt.registry()
            .iter()
            .map(|o| rt.machine().mappings_in(o.range()).len() as u64)
            .sum()
    });
    Ok(())
}

/// Compares a kernel's output against its host reference.
fn check_output(g: &GraphInputs, app: App, rt: &mut Atmem, checksum: f64) -> Result<(), String> {
    if app == App::Cc {
        return check_cc(g, rt, checksum);
    }
    let i = APPS.iter().position(|&a| a == app).expect("protocol app");
    let want = g.ref_checksums[i];
    let close = (checksum - want).abs() <= 1e-6 * want.abs().max(1.0);
    if close && (app != App::Bfs || checksum == want) {
        Ok(())
    } else {
        Err(format!(
            "{app} checksum {checksum} differs from host reference {want}"
        ))
    }
}

/// One label-propagation pass is not the fixed point `reference_components`
/// computes, so CC's output is checked as a refinement of it: every label
/// names a vertex no larger than its owner in the owner's component.
fn check_cc(g: &GraphInputs, rt: &mut Atmem, checksum: f64) -> Result<(), String> {
    let range = rt
        .registry()
        .iter()
        .find(|o| o.name() == "cc.labels")
        .map(|o| o.range())
        .ok_or("cc.labels not registered")?;
    let mut sum = 0.0;
    for (v, &comp) in g.components.iter().enumerate() {
        let label: u32 = rt
            .machine_mut()
            .peek(range.start.add(4 * v as u64))
            .map_err(|e| format!("cc.labels: {e}"))?;
        if label as usize > v || g.components.get(label as usize) != Some(&comp) {
            return Err(format!(
                "CC label {label} of vertex {v} is outside its component"
            ));
        }
        sum += label as f64;
    }
    if sum != checksum {
        return Err(format!("CC checksum {checksum} != label sum {sum}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use atmem_apps::{run_protocol_cores, Mode};

    fn small() -> GraphInputs {
        let mut c = Dataset::Rmat24.config();
        c.scale = 10;
        graph_inputs(&c, 3, &mut Tracer::new(false))
    }

    #[test]
    fn protocol_op_is_the_runner_protocol() {
        let g = small();
        for app in APPS {
            let csr = if app.needs_weights() {
                &g.weighted
            } else {
                &g.csr
            };
            let want = run_protocol_cores(
                Platform::nvm_dram(),
                AtmemConfig::default(),
                csr,
                app,
                Mode::Atmem,
                1,
            )
            .unwrap();
            let (got, _) = protocol_op(
                &mut Tracer::new(true),
                &mut Laps::start(false),
                &g,
                app,
                1,
                AccessMode::Bulk,
                true,
            )
            .unwrap();
            assert_eq!(
                got.sim_ns.to_bits(),
                want.second_iter.as_ns().to_bits(),
                "{app}"
            );
            assert_eq!(got.checksum.to_bits(), want.checksum.to_bits(), "{app}");
            assert_eq!(got.tlb_misses, want.second_iter_stats.tlb_misses, "{app}");
            assert_eq!(
                got.fast_bytes / got.registered_bytes as f64,
                want.data_ratio,
                "{app}"
            );
        }
    }

    #[test]
    fn access_modes_agree_bit_for_bit() {
        let g = small();
        for app in MODE_APPS {
            let (bulk, _) = mode_replay(&g, app, AccessMode::Bulk).unwrap();
            for mode in [AccessMode::Scalar, AccessMode::Planned] {
                let (other, _) = mode_replay(&g, app, mode).unwrap();
                assert_eq!(other.digest(), bulk.digest(), "{app} {mode:?}");
            }
        }
    }

    #[test]
    fn wrong_outputs_are_caught() {
        let g = small();
        let mut rt = Atmem::new(Platform::nvm_dram(), AtmemConfig::default()).unwrap();
        assert!(check_output(&g, App::PageRank, &mut rt, g.ref_checksums[2] + 1.0).is_err());
        assert!(check_output(&g, App::PageRank, &mut rt, g.ref_checksums[2]).is_ok());
        assert!(
            check_output(&g, App::Cc, &mut rt, 0.0).is_err(),
            "labels unregistered"
        );
    }

    #[test]
    fn phase_windows_move_every_round() {
        let p = phase_inputs(9);
        let mut distinct = p.starts.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), PHASE_ROUNDS);
        assert!(p.starts.iter().all(|&s| s + PHASE_WINDOW <= PHASE_ELEMS));
        assert_eq!(phase_inputs(9).image[..64], p.image[..64]);
    }
}
