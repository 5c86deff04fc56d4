//! Host-time share report of a traced run: each layer's self time, its
//! share of the traced time, and the layer → metric → workload predictions
//! checked against them.

use std::collections::BTreeMap;

use crate::trace::{self_times, Span};
use crate::work::Workload;

/// Self time per layer name (op roots fold into `op (self)`), plus the
/// traced total they add up to.
#[derive(Debug, Default)]
pub struct Shares {
    /// Self ns per layer.
    pub self_ns: BTreeMap<String, u64>,
    /// Sum of root-span durations: setup roots plus op roots.
    pub total_ns: u64,
    /// Sum of setup root-span durations (spans outside any op).
    pub setup_ns: u64,
    /// Largest |sum of self times − op span| over all ops, ns.
    pub max_op_gap_ns: u64,
}

impl Shares {
    /// Builds the report from every span of a run.
    pub fn from_spans(spans: &[Span]) -> Shares {
        let selfs = self_times(spans);
        let mut sh = Shares::default();
        let mut per_op: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for (s, &own) in spans.iter().zip(&selfs) {
            let name = if s.parent.is_none() && s.op != 0 {
                "op (self)".to_string()
            } else {
                s.name.clone()
            };
            *sh.self_ns.entry(name).or_default() += own;
            if s.parent.is_none() {
                sh.total_ns += s.dur_ns();
                if s.op == 0 {
                    sh.setup_ns += s.dur_ns();
                }
            }
            if s.op != 0 {
                let e = per_op.entry(s.op).or_default();
                e.0 += own;
                if s.parent.is_none() {
                    e.1 = s.dur_ns();
                }
            }
        }
        sh.max_op_gap_ns = per_op
            .values()
            .map(|&(a, b)| a.abs_diff(b))
            .max()
            .unwrap_or(0);
        sh
    }

    /// Share of the ops' traced time spent in `names` (self time).
    pub fn op_share(&self, names: &[&str]) -> f64 {
        let ops = (self.total_ns - self.setup_ns).max(1) as f64;
        names
            .iter()
            .map(|n| self.self_ns.get(*n).copied().unwrap_or(0) as f64)
            .sum::<f64>()
            / ops
    }

    /// Share of the setup time spent in `name`.
    pub fn setup_share(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / self.setup_ns.max(1) as f64
    }

    /// One line per layer, largest self time first.
    pub fn table(&self) -> Vec<String> {
        let mut rows: Vec<(&String, &u64)> = self.self_ns.iter().collect();
        rows.sort_by(|a, b| b.1.cmp(a.1));
        rows.into_iter()
            .map(|(name, &ns)| {
                format!(
                    "  {name:<24} self {:>10.1} ms  {:>6.2}% of traced time",
                    ns as f64 / 1e6,
                    100.0 * ns as f64 / self.total_ns.max(1) as f64
                )
            })
            .collect()
    }
}

const ITERS: &[&str] = &["apps.iter_profiled", "apps.iter_measured"];

/// A layer → end-to-end metric → workload prediction, with the check the
/// traced run makes of it. `None` from the check means it does not apply
/// to this workload.
pub struct Prediction {
    /// What is predicted, as stated in the benchmark's documentation.
    pub claim: &'static str,
    check: fn(Workload, &Shares, &BTreeMap<String, f64>) -> Option<bool>,
}

impl Prediction {
    /// Evaluates the prediction on one workload's traced run.
    pub fn check(
        &self,
        w: Workload,
        shares: &Shares,
        metrics: &BTreeMap<String, f64>,
    ) -> Option<bool> {
        (self.check)(w, shares, metrics)
    }
}

fn protocol(w: Workload) -> bool {
    matches!(w, Workload::Protocol1 | Workload::Protocol2)
}

fn phase(w: Workload) -> bool {
    !protocol(w)
}

/// The prediction map of the benchmark's documentation.
pub const PREDICTIONS: &[Prediction] = &[
    Prediction {
        claim: "graph.rmat_s -> setup_s (protocol workloads): R-MAT generation is most of set-up",
        check: |w, s, _| protocol(w).then(|| s.setup_share("graph.rmat") >= 0.5),
    },
    Prediction {
        claim: "apps.load_ms -> run_yardsticks (protocol workloads): loading the graph is under 10% of op time",
        check: |w, s, _| protocol(w).then(|| s.op_share(&["apps.load"]) < 0.10),
    },
    Prediction {
        claim: "apps.load_ms -> run_yardsticks (phase workloads): poking the 64 MiB image is under 25% of op time",
        check: |w, s, _| phase(w).then(|| s.op_share(&["apps.load"]) < 0.25),
    },
    Prediction {
        claim: "apps.iter_*_ms -> run_yardsticks (protocol-1core): iterations are >= 90% of op time",
        check: |w, s, _| (w == Workload::Protocol1).then(|| s.op_share(ITERS) >= 0.90),
    },
    Prediction {
        claim: "apps.iter_*_ms -> run_yardsticks (protocol-2core): sharded iterations run faster, yet are >= 80% of op time",
        check: |w, s, _| (w == Workload::Protocol2).then(|| s.op_share(ITERS) >= 0.80),
    },
    Prediction {
        claim: "hms.ns_per_access_measured -> run_yardsticks (phase-mbind): drives are >= 80% of op time",
        check: |w, s, _| (w == Workload::PhaseMbind).then(|| s.op_share(ITERS) >= 0.80),
    },
    Prediction {
        claim: "apps.iter_measured_ms.<APP> -> run_yardsticks (protocol workloads): per-kernel times add up to apps.iter_measured_ms",
        check: |w, _, m| {
            protocol(w).then(|| {
                let parts: f64 = crate::work::APPS
                    .iter()
                    .map(|a| m[&format!("apps.iter_measured_ms.{}", a.name())])
                    .sum();
                (parts - m["apps.iter_measured_ms"]).abs() <= 0.2 * m["apps.iter_measured_ms"]
            })
        },
    },
    Prediction {
        claim: "core.profiler.stop_ms -> run_yardsticks (protocol-1core): draining PEBS is under 5% of op time",
        check: |w, s, _| (w == Workload::Protocol1).then(|| s.op_share(&["core.profiler.stop"]) < 0.05),
    },
    Prediction {
        claim: "core.analyzer.ms -> run_yardsticks (phase-staged): the analyzer is under half of optimize's time",
        check: |w, s, _| {
            (w == Workload::PhaseStaged).then(|| {
                s.op_share(&["core.analyzer"]) < 0.5 * s.op_share(&["core.optimize"])
            })
        },
    },
    Prediction {
        claim: "core.optimize_ms -> run_yardsticks (phase-staged): optimize is >= 5% of op time",
        check: |w, s, _| (w == Workload::PhaseStaged).then(|| s.op_share(&["core.optimize"]) >= 0.05),
    },
    Prediction {
        claim: "core.optimize_ms -> run_yardsticks (phase-mbind): optimize is under 10% of op time, the splintered drives dominate",
        check: |w, s, _| (w == Workload::PhaseMbind).then(|| s.op_share(&["core.optimize"]) < 0.10),
    },
    Prediction {
        claim: "core.optimize_ms -> no change on protocol-1core: optimize is under 5% of op time",
        check: |w, s, _| (w == Workload::Protocol1).then(|| s.op_share(&["core.optimize"]) < 0.05),
    },
    Prediction {
        claim: "hms.audit_ms -> run_yardsticks (phase-mbind): the audit walks every mapping yet stays under 1% of op time",
        check: |w, s, _| (w == Workload::PhaseMbind).then(|| s.op_share(&["hms.audit"]) < 0.01),
    },
    Prediction {
        claim: "hms.mappings guards phase-mbind: mbind splinters the object into >= 1000 mappings",
        check: |w, _, m| (w == Workload::PhaseMbind).then(|| m["hms.mappings"] >= 1000.0),
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: u64, id: u64, parent: Option<u64>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op,
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn shares_split_setup_and_op_time() {
        let spans = vec![
            span(0, 1, None, "graph.rmat", 0, 100),
            span(1, 3, Some(2), "apps.iter_measured", 110, 170),
            span(1, 4, Some(2), "core.optimize", 170, 190),
            span(1, 2, None, "op.BFS", 100, 200),
        ];
        let s = Shares::from_spans(&spans);
        assert_eq!((s.total_ns, s.setup_ns, s.max_op_gap_ns), (200, 100, 0));
        assert_eq!(s.self_ns["op (self)"], 20);
        assert!((s.op_share(ITERS) - 0.6).abs() < 1e-12);
        assert!((s.setup_share("graph.rmat") - 1.0).abs() < 1e-12);
    }
}
