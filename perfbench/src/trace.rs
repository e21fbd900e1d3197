//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer
//! (the program itself carries no spans yet). A span remembers its
//! parent, so a layer's self time is its duration minus the time its
//! child spans cover. When the recorder is off, `begin`/`end` record
//! nothing.

use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Instant,
    end: Option<Instant>,
}

/// Handle of an open span.
#[must_use = "close the span with Tracer::end"]
pub struct Open(Option<usize>);

pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Totals of one span name.
#[derive(Default, Clone, Copy)]
pub struct Totals {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggle tracing only between spans");
        self.on = on;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start: Instant::now(),
            end: None,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close in LIFO order");
        self.spans[id].end = Some(Instant::now());
    }

    fn duration(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        s.end
            .expect("every span is closed before the summary")
            .duration_since(s.start)
            .as_secs_f64()
    }

    /// Per-name totals and self times, plus every span whose children
    /// cover more time than the span itself (must be empty).
    pub fn summary(&self) -> (BTreeMap<&'static str, Totals>, Vec<String>) {
        let mut child_sum = vec![0.0f64; self.spans.len()];
        for (id, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child_sum[p] += self.duration(id);
            }
        }
        let mut by_name: BTreeMap<&'static str, Totals> = BTreeMap::new();
        let mut violations = Vec::new();
        for (id, s) in self.spans.iter().enumerate() {
            let d = self.duration(id);
            if child_sum[id] > d {
                violations.push(format!(
                    "span {} lasted {d:.9}s but its children sum to {:.9}s",
                    s.name, child_sum[id]
                ));
            }
            let t = by_name.entry(s.name).or_default();
            t.count += 1;
            t.total_s += d;
            t.self_s += d - child_sum[id];
        }
        (by_name, violations)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}
