//! In-memory spans around the benchmark's calls into the simulator.
//!
//! This PR records spans only from *outside* the crates — one span per call
//! into a layer's public function — so `bench.run_cell` is one opaque span.
//! The format (`id`, `parent`, `name`, `cell_key`, `start_ns`, `end_ns`) is
//! the one in-program spans (ROADMAP item 1(a)) will extend: a span inside
//! the simulator becomes a child of the `apps.run_parallel` span of its
//! cell and carries the same `cell_key`.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::json::Value;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of the span in recording order.
    pub id: u64,
    /// The span that was open when this one began (`None` for a root).
    pub parent: Option<u64>,
    /// Layer-qualified name of the call (`bench.run_cell`, `net.breakdown`).
    pub name: &'static str,
    /// Key of the cell the call served; spans of one cell share it.  Empty
    /// for work that belongs to no cell (grid expansion, probes).
    pub cell_key: String,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

/// Span recorder.  A disabled tracer records nothing, so the untraced
/// repetitions run the same code without the bookkeeping.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u64>,
}

impl Tracer {
    /// A tracer; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off (between repetitions, never inside a span).
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.open.is_empty(), "toggling inside an open span");
        self.enabled = enabled;
    }

    /// End, now, every span a caught panic left open, so later spans do not
    /// become children of calls that never returned.
    pub fn close_abandoned(&mut self) {
        let now = self.origin.elapsed().as_nanos() as u64;
        for id in self.open.drain(..) {
            self.spans[id as usize].end_ns = now;
        }
    }

    /// Run `f` inside a span.  `f` gets the tracer back so it can open
    /// child spans.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        cell_key: &str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u64;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            cell_key: cell_key.to_string(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// The spans recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: `(count, total ns, self ns)`, self time being a span's
    /// duration minus the durations of its direct children.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(child_ns[s.id as usize]);
        }
        out
    }

    /// The trace document written to `benchmark/out/trace-<workload>.json`.
    pub fn to_json(&self, workload: &str, seed: u64) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::obj(vec![
                    ("id", Value::Num(s.id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                    ("name", Value::Str(s.name.to_string())),
                    ("cell_key", Value::Str(s.cell_key.clone())),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                ])
            })
            .collect();
        Value::obj(vec![
            ("schema", Value::Str("tm-benchmark/trace/v1".to_string())),
            ("workload", Value::Str(workload.to_string())),
            ("seed", Value::Num(seed as f64)),
            ("spans", Value::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", "k", |t| {
            t.span("inner", "k", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("inner", "k", |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans
            .iter()
            .all(|s| s.end_ns >= s.start_ns && s.cell_key == "k"));
        let sum = t.summary();
        let (n, total, own) = sum["outer"];
        assert_eq!(n, 1);
        assert_eq!(own, total - sum["inner"].1);
        assert_eq!(sum["inner"].0, 2);
        // Every parent named in the document is itself in the document.
        let doc = t.to_json("w", 7);
        let arr = doc.get("spans").and_then(|s| s.as_arr()).unwrap();
        for s in arr {
            if let Some(p) = s.get("parent").and_then(|p| p.as_u64()) {
                assert!(arr
                    .iter()
                    .any(|o| o.get("id").and_then(|i| i.as_u64()) == Some(p)));
            }
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("a", "", |t| t.span("b", "", |_| 5)), 5);
        assert!(t.spans().is_empty());
    }
}
