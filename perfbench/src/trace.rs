//! Host-time spans recorded around calls into each layer.
//!
//! A span has a name, start and end (ns since the tracer's epoch), the span
//! that caused it, and the op it belongs to. Spans stay in memory and are
//! written once, when the benchmark ends, as a text file of one span per
//! line, fields separated by a tab (shown as spaces here):
//!
//! ```text
//! # perfbench-trace v1
//! # op id parent name start_ns end_ns
//! 3 41 40 core.optimize 1200 5300
//! ```
//!
//! `op` is 0 outside any op (setup, replays) and `parent` is `-` for a root
//! span. A disabled tracer records nothing and reads no clock, which is how
//! the untraced runs execute the same code.

use std::collections::HashMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Op the span belongs to (0 = outside any op).
    pub op: u64,
    /// Unique id, in opening order.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Layer name, `module.function` style.
    pub name: String,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. Does nothing while disabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u64>,
    next_id: u64,
    ops: u64,
    cur_op: u64,
}

impl Tracer {
    /// A tracer that starts `enabled` or not.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_id: 1,
            ops: 0,
            cur_op: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off between ops.
    ///
    /// # Panics
    ///
    /// Panics if a span is open.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside a span");
        self.enabled = enabled;
    }

    /// Everything recorded so far, in closing order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().copied();
        self.open.push(id);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.open.pop();
        self.spans.push(Span {
            op: self.cur_op,
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        out
    }

    /// Runs `f` as a new op: a root span named `name` whose descendants
    /// all carry the op's id.
    ///
    /// # Panics
    ///
    /// Panics if called inside another span.
    pub fn op<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        assert!(self.open.is_empty(), "ops do not nest");
        self.ops += 1;
        self.cur_op = self.ops;
        let out = self.span(name, f);
        self.cur_op = 0;
        out
    }
}

/// Self time of every span in `spans`, in the same order: its duration
/// minus the part of its interval that its child spans cover. Children
/// may overlap each other or stick out of the parent; only the covered
/// part of the parent's own interval is subtracted, once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

const HEADER: &str = "# perfbench-trace v1\n# op\tid\tparent\tname\tstart_ns\tend_ns\n";

/// Serialises spans into the trace file format.
pub fn to_text(spans: &[Span]) -> String {
    let mut out = String::from(HEADER);
    for s in spans {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\n",
            s.op, s.id, parent, s.name, s.start_ns, s.end_ns
        ));
    }
    out
}

/// Parses the trace file format back into spans.
///
/// # Errors
///
/// A message naming the first malformed line.
pub fn from_text(text: &str) -> Result<Vec<Span>, String> {
    let mut spans = Vec::new();
    for (no, line) in text.lines().enumerate() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let bad = || format!("trace line {}: malformed: {line:?}", no + 1);
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != 6 {
            return Err(bad());
        }
        let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
        let span = Span {
            op: num(f[0])?,
            id: num(f[1])?,
            parent: if f[2] == "-" { None } else { Some(num(f[2])?) },
            name: f[3].to_string(),
            start_ns: num(f[4])?,
            end_ns: num(f[5])?,
        };
        if span.end_ns < span.start_ns || span.name.is_empty() {
            return Err(bad());
        }
        spans.push(span);
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op: 1,
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, 0, 100),
            // Overlapping children cover 10..50 once, not 60 ns.
            span(2, Some(1), 10, 40),
            span(3, Some(1), 20, 50),
            // Nested inside 2: subtracted from 2, not again from 1.
            span(4, Some(2), 15, 25),
            // Sticks out past the parent: only 90..100 counts.
            span(5, Some(1), 90, 120),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 30 - 10, 30, 10, 30]);
    }

    #[test]
    fn self_times_of_a_recorded_tree_sum_to_the_root() {
        let mut t = Tracer::new(true);
        t.op("op", |t| {
            t.span("a", |t| t.span("b", |_| std::hint::black_box(0)));
            t.span("c", |_| ());
        });
        let spans = t.spans().to_vec();
        assert!(spans.iter().all(|s| s.op == 1));
        let root = spans.iter().find(|s| s.parent.is_none()).unwrap();
        assert_eq!(self_times(&spans).iter().sum::<u64>(), root.dur_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.op("op", |t| t.span("a", |_| 7)), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn trace_file_round_trips() {
        let mut t = Tracer::new(true);
        t.span("setup", |_| ());
        t.op("op.BFS", |t| t.span("apps.iter_measured", |_| ()));
        let spans = t.spans().to_vec();
        assert_eq!(from_text(&to_text(&spans)).unwrap(), spans);
        assert!(from_text("1\t2\t-\tx\t5\t4\n").is_err());
        assert!(from_text("1\t2\t-\tx\t5\n").is_err());
    }
}
