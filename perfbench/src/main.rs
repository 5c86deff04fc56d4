//! `perfbench` — layered host-time benchmark of the ATMem protocol.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload protocol-1core --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Runs one workload as a closed loop (one client, one op after another)
//! for `--seconds`, checks every op's output, and prints every metric by
//! name with its unit and direction. The last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}` — end-to-end
//! metrics with `--trace 0`, per-layer metrics with `--trace 1`. See
//! `perfbench/README.md` for the workloads and the metric map.

mod report;
mod stats;
mod trace;
mod work;
mod yardstick;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use atmem_apps::AccessMode;

use crate::report::{Shares, PREDICTIONS};
use crate::stats::{mean, median, quartiles, tail_percentile};
use crate::trace::Tracer;
use crate::work::{Inputs, Laps, SimOut, Workload, APPS, MODE_APPS};

const USAGE: &str =
    "usage: perfbench --workload <protocol-1core|protocol-2core|phase-staged|phase-mbind> \
                     --seed <u64> --seconds <n> --trace <0|1>";

/// The paper's NVM-DRAM speed-up band (EXPERIMENTS.md headline table).
const PAPER_BAND: &str =
    "paper NVM-DRAM band 1.7-3.4x average; the model is not validated point by point";

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                flags.insert(flag, value);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let get = |k: &str| flags.get(k).copied().ok_or(format!("missing {k}"));
    let workload = get("--workload")?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".to_string()),
        },
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One pass: every op of the workload once.
struct Pass {
    traced: bool,
    host_s: f64,
    /// Mean host seconds of the yardstick runs between its steps (0 in a
    /// traced run, which runs none).
    yardstick_s: f64,
    ops: Vec<(String, Result<SimOut, String>)>,
    spans: Range<usize>,
}

impl Pass {
    fn sim(&self) -> SimOut {
        let mut sum = SimOut::default();
        for o in self.ops.iter().filter_map(|(_, r)| r.as_ref().ok()) {
            sum.add(o);
        }
        sum
    }
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let mut t = Tracer::new(args.trace);

    // Set-up, repeated so its median is steady; only the last copy is kept.
    let reps = if matches!(w, Workload::PhaseStaged | Workload::PhaseMbind) {
        7
    } else {
        3
    };
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..reps {
        drop(inputs.take());
        let t0 = Instant::now();
        inputs = Some(work::setup(w, args.seed, &mut t));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");

    // The baseline: the same ops without profiling or optimize, once,
    // untimed and untraced.
    t.set_enabled(false);
    let mut baseline_ns = 0.0;
    for i in 0..w.ops_per_pass() {
        let (label, r) = work::run_op(w, &inputs, i, false, &mut t, &mut Laps::start(false));
        baseline_ns += r.map_err(|e| format!("baseline {label}: {e}"))?.sim_ns;
    }

    // The measured closed loop. The untraced run times the yardstick
    // between steps; the traced run alternates untraced and traced passes
    // so it measures its own tracing overhead, and runs no yardstick.
    let min_passes = if args.trace { 4 } else { 3 };
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut peak_rss = None;
    while passes.len() < min_passes || start.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && passes.len() % 2 == 1;
        t.set_enabled(traced);
        let first = t.spans().len();
        let mut laps = Laps::start(!args.trace);
        let ops = (0..w.ops_per_pass())
            .map(|i| work::run_op(w, &inputs, i, true, &mut t, &mut laps))
            .collect();
        passes.push(Pass {
            traced,
            host_s: laps.secs.iter().sum(),
            yardstick_s: mean(&laps.yardstick_secs),
            ops,
            spans: first..t.spans().len(),
        });
        // Peak memory after a fixed amount of work (set-up, baseline, one
        // pass), so it does not grow with the number of passes the host's
        // speed allows: later passes repeat the same allocations, and
        // allocator arenas of the sharded engine's threads would otherwise
        // creep with the pass count.
        if peak_rss.is_none() {
            peak_rss = Some(peak_rss_mib()?);
        }
    }
    t.set_enabled(false);

    // Correctness gate: every op must succeed and repeat the simulated
    // outcome of the first run of this seed exactly.
    let mut attempted = 0usize;
    let mut failures: Vec<String> = Vec::new();
    let reference = reference_digests(w, args.seed, &passes[0])?;
    for (p, pass) in passes.iter().enumerate() {
        for (k, (label, r)) in pass.ops.iter().enumerate() {
            attempted += 1;
            match r {
                Err(e) => failures.push(format!("pass {p} {label}: {e}")),
                Ok(o) if Some(&o.digest()) != reference.get(k) => failures.push(format!(
                    "pass {p} {label}: simulated outcome differs from the first run of seed {}",
                    args.seed
                )),
                Ok(_) => {}
            }
        }
    }

    // Access-mode replay (traced protocol-1core only): iteration 2 under
    // Scalar and Planned must match Bulk bit for bit.
    let mut mode_ms: BTreeMap<String, f64> = BTreeMap::new();
    if let (true, Workload::Protocol1, Inputs::Graph(g)) = (args.trace, w, &inputs) {
        for app in MODE_APPS {
            let k = APPS.iter().position(|&a| a == app).expect("mode app");
            let Ok(bulk) = &passes[0].ops[k].1 else {
                continue;
            };
            for (mode, tag) in [
                (AccessMode::Scalar, "scalar"),
                (AccessMode::Planned, "planned"),
            ] {
                attempted += 1;
                match work::mode_replay(g, app, mode) {
                    Ok((o, ns)) if o.digest() == bulk.digest() => {
                        mode_ms.insert(format!("{tag}.{}", app.name()), ns as f64 / 1e6);
                    }
                    Ok(_) => failures.push(format!("{app} {tag}: differs from bulk")),
                    Err(e) => failures.push(format!("{app} {tag}: {e}")),
                }
            }
        }
    }

    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let sim = passes[0].sim();
    let mut lines = vec![
        format!(
            "perfbench workload={} seed={} seconds={} trace={} host_parallelism={} commit={}",
            w.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            host_parallelism(),
            commit()
        ),
        "each op starts from a fresh Machine with cold simulated TLB/LLC, as the paper protocol does"
            .to_string(),
        format!(
            "closed loop, one client: {} passes of {} ops, {} ops attempted, {} failed",
            passes.len(),
            w.ops_per_pass(),
            attempted,
            failures.len()
        ),
    ];
    for f in &failures {
        lines.push(format!("FAILED {f}"));
    }

    let metrics: Vec<(String, f64, &str, &str)>;
    if !args.trace {
        let host: Vec<f64> = untraced.iter().map(|p| p.host_s).collect();
        let (q1, med, q3) = quartiles(&host);
        let in_yardsticks: Vec<f64> = untraced.iter().map(|p| p.host_s / p.yardstick_s).collect();
        let (y1, run_y, y3) = quartiles(&in_yardsticks);
        let yardstick_ms: Vec<f64> = untraced.iter().map(|p| p.yardstick_s * 1e3).collect();
        let ok = 1.0 - failures.len() as f64 / attempted as f64;
        metrics = vec![
            ("setup_s".into(), median(&setup_s), "s", "lower"),
            ("run_yardsticks".into(), run_y, "yardstick", "lower"),
            (
                "peak_rss_mib".into(),
                peak_rss.expect("one pass ran"),
                "MiB",
                "lower",
            ),
            ("sim_time_ms".into(), sim.sim_ns / 1e6, "ms", "lower"),
            (
                "fast_data_ratio".into(),
                sim.fast_bytes / sim.registered_bytes as f64,
                "ratio",
                "higher",
            ),
            (
                "sim_speedup_vs_baseline".into(),
                baseline_ns / sim.sim_ns,
                "x",
                "higher",
            ),
            ("ok_ops_frac".into(), ok, "ratio", "higher"),
        ];
        lines.push(format!(
            "run_yardsticks quartiles {y1:.3} / {run_y:.3} / {y3:.3} over {} passes; yardstick {:.4} ms (median of pass means)",
            host.len(),
            median(&yardstick_ms)
        ));
        lines.push(format!(
            "raw host time, not bounded (it drifts with the shared machine): run_s quartiles {q1:.4} / {med:.4} / {q3:.4} s, sim_maccess_per_s {:.4} Maccess/s; set-up {} reps",
            (sim.accesses + sim.profiled_accesses) as f64 / med / 1e6,
            setup_s.len()
        ));
        let each: Vec<String> = host.iter().map(|s| format!("{s:.3}")).collect();
        lines.push(format!("pass seconds: {}", each.join(" ")));
        lines.push(match tail_percentile(&host) {
            Some((pct, x)) => format!(
                "run_s tail: p{pct:.1} = {x:.4} s over {} passes",
                host.len()
            ),
            None => format!(
                "run_s tail: none, {} passes leave fewer than ten beyond any percentile",
                host.len()
            ),
        });
        lines.push(format!(
            "failed_ops_frac {:.6} (failed / attempted)",
            1.0 - ok
        ));
        lines.push(format!(
            "sim_speedup_vs_baseline {:.4}x  [{PAPER_BAND}]",
            baseline_ns / sim.sim_ns
        ));
    } else {
        let layer = layer_metrics(&t, &traced, &untraced, &sim, &mode_ms);
        let shares = Shares::from_spans(t.spans());
        lines.push(format!(
            "host-time shares over {} traced passes (self time; per-op self times add up to the op span within {} ns):",
            traced.len(),
            shares.max_op_gap_ns
        ));
        lines.extend(shares.table());
        lines.push(format!(
            "tracing overhead: {:+.2}% of an untraced pass (analyzer replay excluded)",
            100.0 * layer["bench.trace_overhead_frac"]
        ));
        for p in PREDICTIONS {
            if let Some(held) = p.check(w, &shares, &layer) {
                lines.push(format!(
                    "prediction {}: {}",
                    if held { "HELD" } else { "FAILED" },
                    p.claim
                ));
            }
        }
        metrics = layer
            .into_iter()
            .map(|(name, v)| {
                let (unit, better) = (unit_of(&name), better_of(&name));
                (name, v, unit, better)
            })
            .collect();
        let text = trace::to_text(t.spans());
        if trace::from_text(&text).as_deref() != Ok(t.spans()) {
            return Err("trace file does not round-trip".to_string());
        }
        write_file(&format!("trace-{}-s{}.tsv", w.name(), args.seed), &text)?;
    }

    for (name, v, unit, better) in &metrics {
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        lines.push(format!("{name} = {v} {unit} (better: {better})"));
    }
    let correct = failures.is_empty();
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{",
        failures.len()
    );
    for (i, (name, v, unit, _)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            json,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        )
        .expect("string");
    }
    json.push_str("}}");
    let mut record = lines.join("\n");
    record.push('\n');
    record.push_str(&json);
    record.push('\n');
    write_file(
        &format!(
            "result-{}-s{}-t{}.txt",
            w.name(),
            args.seed,
            u8::from(args.trace)
        ),
        &record,
    )?;
    print!("{record}");
    Ok(())
}

/// Per-layer metrics of a traced run. Host times are medians over traced
/// passes of each layer's per-pass total; simulated counts are the first
/// pass's. A layer a workload never calls reads 0.
fn layer_metrics(
    t: &Tracer,
    traced: &[&Pass],
    untraced: &[&Pass],
    sim: &SimOut,
    mode_ms: &BTreeMap<String, f64>,
) -> BTreeMap<String, f64> {
    let spans = t.spans();
    let op_name: BTreeMap<u64, &str> = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.op != 0)
        .map(|s| (s.op, s.name.as_str()))
        .collect();
    // ms spent per pass in spans named `name` (and, if given, in op `op`).
    let per_pass = |name: &str, op: Option<&str>| -> Vec<f64> {
        traced
            .iter()
            .map(|p| {
                spans[p.spans.clone()]
                    .iter()
                    .filter(|s| s.name == name && op.is_none_or(|o| op_name.get(&s.op) == Some(&o)))
                    .fold(0.0, |a, s| a + s.dur_ns() as f64 / 1e6)
            })
            .collect()
    };
    let med = |name: &str| median(&per_pass(name, None));
    let mut m = BTreeMap::new();
    let rmat: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "graph.rmat")
        .map(|s| s.dur_ns() as f64 / 1e9)
        .collect();
    m.insert(
        "graph.rmat_s".into(),
        if rmat.is_empty() { 0.0 } else { median(&rmat) },
    );
    for (metric, span) in [
        ("apps.load_ms", "apps.load"),
        ("apps.iter_profiled_ms", "apps.iter_profiled"),
        ("apps.iter_measured_ms", "apps.iter_measured"),
        ("core.profiler.stop_ms", "core.profiler.stop"),
        ("core.analyzer.ms", "core.analyzer"),
        ("core.optimize_ms", "core.optimize"),
        ("hms.audit_ms", "hms.audit"),
    ] {
        m.insert(metric.into(), med(span));
    }
    for app in APPS {
        let label = format!("op.{}", app.name());
        let v = median(&per_pass("apps.iter_measured", Some(&label)));
        m.insert(format!("apps.iter_measured_ms.{}", app.name()), v);
    }
    for app in MODE_APPS {
        for tag in ["scalar", "planned"] {
            let key = format!("{tag}.{}", app.name());
            m.insert(
                format!("apps.iter_measured_ms.{key}"),
                mode_ms.get(&key).copied().unwrap_or(0.0),
            );
        }
    }
    let per_access = |span: &str, accesses: u64| {
        if accesses == 0 {
            0.0
        } else {
            med(span) * 1e6 / accesses as f64
        }
    };
    m.insert(
        "hms.ns_per_access_profiled".into(),
        per_access("apps.iter_profiled", sim.profiled_accesses),
    );
    m.insert(
        "hms.ns_per_access_measured".into(),
        per_access("apps.iter_measured", sim.accesses),
    );
    let moved_mib = (sim.promoted_bytes + sim.demoted_bytes) as f64 / MIB;
    let opt_s = med("core.optimize") / 1e3;
    m.insert(
        "core.migrate.host_mib_per_s".into(),
        if opt_s > 0.0 { moved_mib / opt_s } else { 0.0 },
    );
    // Tracing overhead: traced passes, minus the analyzer replay only they
    // run, against the untraced passes of the same process.
    let traced_s: Vec<f64> = traced
        .iter()
        .zip(per_pass("core.analyzer", None))
        .map(|(p, a)| p.host_s - a / 1e3)
        .collect();
    let untraced_s: Vec<f64> = untraced.iter().map(|p| p.host_s).collect();
    m.insert(
        "bench.trace_overhead_frac".into(),
        median(&traced_s) / median(&untraced_s) - 1.0,
    );
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    m.insert("hms.accesses".into(), sim.accesses as f64);
    m.insert(
        "hms.tlb_miss_ratio".into(),
        ratio(sim.tlb_misses, sim.tlb_hits + sim.tlb_misses),
    );
    m.insert(
        "hms.llc_read_miss_ratio".into(),
        ratio(sim.llc_read_misses, sim.llc_read_hits + sim.llc_read_misses),
    );
    m.insert("hms.mappings".into(), sim.mappings as f64);
    m.insert("core.profiler.samples".into(), sim.samples as f64);
    m.insert(
        "core.profiler.attributed_frac".into(),
        ratio(sim.attributed, sim.samples),
    );
    m.insert(
        "core.analyzer.sampled_chunks".into(),
        sim.sampled_chunks as f64,
    );
    m.insert(
        "core.analyzer.promoted_chunks".into(),
        sim.promoted_chunks as f64,
    );
    m.insert(
        "core.migrate.promoted_mib".into(),
        sim.promoted_bytes as f64 / MIB,
    );
    m.insert(
        "core.migrate.demoted_mib".into(),
        sim.demoted_bytes as f64 / MIB,
    );
    m.insert("core.migrate.regions".into(), sim.regions as f64);
    m.insert("core.migrate.sim_ms".into(), sim.migrate_sim_ns / 1e6);
    // Nothing planned wastes nothing.
    m.insert(
        "core.migrate.useful_frac".into(),
        if sim.planned_bytes == 0 {
            1.0
        } else {
            (sim.promoted_bytes + sim.demoted_bytes) as f64 / sim.planned_bytes as f64
        },
    );
    m
}

const MIB: f64 = (1 << 20) as f64;

fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_mib_per_s") {
        "MiB/s"
    } else if name.ends_with("_s") {
        "s"
    } else if name.contains("_ms") || name.ends_with(".ms") {
        "ms"
    } else if name.starts_with("hms.ns_per") {
        "ns"
    } else if name.ends_with("_mib") {
        "MiB"
    } else if name.ends_with("_frac") || name.ends_with("_ratio") {
        "ratio"
    } else {
        "count"
    }
}

/// Direction of a per-layer metric. For the simulated guards the
/// direction is nominal: a performance change must leave them unchanged.
fn better_of(name: &str) -> &'static str {
    const HIGHER: &[&str] = &[
        "core.migrate.host_mib_per_s",
        "core.migrate.useful_frac",
        "core.migrate.promoted_mib",
        "core.profiler.attributed_frac",
        "core.profiler.samples",
        "core.analyzer.sampled_chunks",
        "core.analyzer.promoted_chunks",
    ];
    if HIGHER.contains(&name) {
        "higher"
    } else {
        "lower"
    }
}

/// Digests of the first run of this seed (per op of a pass), read from the
/// output directory or, on the first run, taken from `first` and stored.
/// The file is keyed by the executable, so a rebuilt program starts a
/// fresh baseline.
fn reference_digests(w: Workload, seed: u64, first: &Pass) -> Result<Vec<Vec<u64>>, String> {
    let exe = std::env::current_exe().and_then(std::fs::metadata);
    let key = exe
        .map(|m| {
            let mtime = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos());
            format!("{:x}-{mtime:x}", m.len())
        })
        .unwrap_or_else(|_| "unknown".to_string());
    let path = out_dir().join(format!("digest-{}-s{seed}-{key}.txt", w.name()));
    if let Ok(text) = std::fs::read_to_string(&path) {
        return text
            .lines()
            .map(|l| {
                l.split(' ')
                    .map(|x| {
                        u64::from_str_radix(x, 16)
                            .map_err(|_| format!("corrupt {}", path.display()))
                    })
                    .collect()
            })
            .collect();
    }
    let digests: Option<Vec<Vec<u64>>> = first
        .ops
        .iter()
        .map(|(_, r)| r.as_ref().ok().map(SimOut::digest))
        .collect();
    let Some(digests) = digests else {
        // A failed first pass records no baseline; its failures still count.
        return Ok(first
            .ops
            .iter()
            .map(|(_, r)| r.as_ref().map(SimOut::digest).unwrap_or_default())
            .collect());
    };
    let text: String = digests
        .iter()
        .map(|d| {
            d.iter()
                .map(|x| format!("{x:x}"))
                .collect::<Vec<_>>()
                .join(" ")
                + "\n"
        })
        .collect();
    write_file(
        path.file_name()
            .and_then(|n| n.to_str())
            .expect("utf-8 name"),
        &text,
    )?;
    Ok(digests)
}

fn write_file(name: &str, text: &str) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    // Written aside and renamed, so a concurrent run never reads half a file.
    let path = dir.join(name);
    let tmp = dir.join(format!(".{name}.{}", std::process::id()));
    std::fs::write(&tmp, text)
        .and_then(|()| std::fs::rename(&tmp, &path))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process (VmHWM), MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The commit the checkout was made from, if it carries git metadata;
/// `unknown` otherwise. Reads files only inside the checkout.
fn commit() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(".git");
    let head = std::fs::read_to_string(root.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(root.join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    let hash = hash.trim();
    if hash.len() >= 12 && hash.chars().all(|c| c.is_ascii_hexdigit()) {
        hash[..12].to_string()
    } else {
        "unknown".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse_args(&argv(
            "--workload phase-mbind --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::PhaseMbind, 7, 10.0, true)
        );
        for bad in [
            "--workload nope --seed 7 --seconds 10 --trace 1",
            "--workload phase-mbind --seed 7 --seconds 10 --trace 2",
            "--workload phase-mbind --seed 7 --seconds 10",
            "--workload phase-mbind --seed x --seconds 10 --trace 0",
            "--workload phase-mbind --seed 7 --seconds 0 --trace 0",
            "--workload phase-mbind --seed 7 --seconds 10 --trace 0 --extra 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn units_follow_metric_names() {
        assert_eq!(unit_of("graph.rmat_s"), "s");
        assert_eq!(unit_of("apps.iter_measured_ms.scalar.PR"), "ms");
        assert_eq!(unit_of("core.analyzer.ms"), "ms");
        assert_eq!(unit_of("hms.ns_per_access_measured"), "ns");
        assert_eq!(unit_of("core.migrate.host_mib_per_s"), "MiB/s");
        assert_eq!(unit_of("core.migrate.promoted_mib"), "MiB");
        assert_eq!(unit_of("core.profiler.attributed_frac"), "ratio");
        assert_eq!(unit_of("hms.mappings"), "count");
    }
}
