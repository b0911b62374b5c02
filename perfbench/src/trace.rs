//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public function. Durations a layer only reports (a `PassStat`, a
//! `RunReport`'s `kernel_wall`, a server response's `run_ms`) become
//! *derived* child spans, laid end to end from their parent's start, so
//! that a parent's self time is what its callee did not account for.
//! Spans are kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    /// Seconds since the trace origin.
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub op: usize,
    /// Placed from a reported duration rather than timed around a call.
    pub derived: bool,
    /// Where the next derived child starts (seconds since the origin).
    cursor: f64,
}

/// Handle to an open span (`None` while tracing is off).
pub type SpanId = Option<usize>;

pub struct Trace {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Class of each op (`"op"`, `"warm"`, `"cold"`), indexed by op id.
    op_classes: Vec<&'static str>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op_classes: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open the root span of a new op.
    pub fn begin_op(&mut self, class: &'static str) -> SpanId {
        if !self.enabled {
            return None;
        }
        self.op_classes.push(class);
        self.begin("op")
    }

    /// Open a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return None;
        }
        let now = self.origin.elapsed().as_secs_f64();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.stack.last().copied(),
            op: self.op_classes.len().saturating_sub(1),
            derived: false,
            cursor: now,
        });
        self.stack.push(id);
        Some(id)
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let now = self.origin.elapsed().as_secs_f64();
        self.spans[id].end = now;
        if let Some(pos) = self.stack.iter().rposition(|&s| s == id) {
            self.stack.truncate(pos);
        }
    }

    /// A child of `parent` lasting `seconds`, placed after the previous
    /// derived child of the same parent.
    pub fn derived(&mut self, parent: SpanId, name: &'static str, seconds: f64) -> SpanId {
        let parent = parent?;
        let start = self.spans[parent].cursor;
        self.spans[parent].cursor = start + seconds.max(0.0);
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start,
            end: start + seconds.max(0.0),
            parent: Some(parent),
            op: self.spans[parent].op,
            derived: true,
            cursor: start,
        });
        Some(id)
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Number of traced ops of `class` (`None` counts every op).
    pub fn ops(&self, class: Option<&str>) -> usize {
        self.op_classes
            .iter()
            .filter(|c| class.is_none_or(|want| **c == want))
            .count()
    }

    /// Per span name: summed self time in seconds (duration minus the part
    /// of it its children cover) and summed duration, over the ops of
    /// `class` (`None` takes every op).
    pub fn totals(&self, class: Option<&str>) -> BTreeMap<&'static str, (f64, f64)> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if class.is_some_and(|want| self.op_classes[s.op] != want) {
                continue;
            }
            let mut covered: Vec<(f64, f64)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &self.spans[c];
                    (c.start.max(s.start), c.end.min(s.end))
                })
                .filter(|(a, b)| b > a)
                .collect();
            covered.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut union = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (a, b) in covered {
                let a = a.max(reach);
                if b > a {
                    union += b - a;
                    reach = b;
                }
            }
            let duration = s.end - s.start;
            let e = out.entry(s.name).or_insert((0.0, 0.0));
            e.0 += (duration - union).max(0.0);
            e.1 += duration;
        }
        out
    }

    /// The spans as a JSON array (times in microseconds since the origin).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"op\":{},\"op_class\":\"{}\",\"derived\":{}}}{}",
                s.name,
                s.start * 1e6,
                s.end * 1e6,
                s.op,
                self.op_classes[s.op],
                s.derived,
                if i + 1 == self.spans.len() { "\n" } else { ",\n" }
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_children() {
        let mut t = Trace::new();
        t.set_enabled(true);
        let op = t.begin_op("op");
        let run = t.begin("exec.run");
        std::thread::sleep(std::time::Duration::from_millis(4));
        t.end(run);
        t.derived(run, "exec.kernel", 0.001);
        t.end(op);
        let totals = t.totals(None);
        let (run_self, run_total) = totals["exec.run"];
        assert!((run_total - run_self - 0.001).abs() < 1e-9);
        let (op_self, op_total) = totals["op"];
        assert!(op_self < op_total - run_total + 1e-9);
        assert_eq!(t.ops(Some("op")), 1);
        assert_eq!(t.ops(Some("warm")), 0);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new();
        let op = t.begin_op("op");
        assert!(op.is_none());
        t.end(op);
        assert_eq!(t.ops(None), 0);
        assert_eq!(t.to_json(), "[\n]");
    }
}
