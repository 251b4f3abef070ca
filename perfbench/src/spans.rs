//! The benchmark's own span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's files, around each call into
//! a public function of the program: name, start, end, parent span and
//! the run id shared by every span of one invocation. They stay in
//! memory until the benchmark ends and are then written out as JSON. A
//! disabled recorder calls straight through, so the untraced runs that
//! give the end-to-end metrics pay one branch per call.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in recording order of its start.
    pub id: usize,
    /// The span open when this one started.
    pub parent: Option<usize>,
    /// Layer-qualified call name, e.g. `blocking.candidate_pairs`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

/// Time spent in a span itself: its duration minus the part of its
/// interval that its children cover (overlapping children count once).
#[must_use]
pub fn self_time_ns(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start) - covered
}

/// Per-name totals over a run: calls, wall time and self time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans of this name.
    pub calls: u64,
    /// Σ span durations, ns.
    pub total_ns: u64,
    /// Σ span self times, ns.
    pub self_ns: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    enabled: bool,
    run_id: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recording tracer whose spans carry `run_id`.
    #[must_use]
    pub fn enabled(run_id: String) -> Self {
        Self {
            enabled: true,
            run_id,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::enabled(String::new())
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Run `f` inside a span named `name`. Spans opened by `f` (through
    /// the tracer it is handed) become children of this one.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        // a panic unwinding through `f` leaves the span open; the caller
        // counts the failed call, and `close_all` ends the span later
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// End every span left open by a panic, at the current time.
    pub fn close_all(&mut self) {
        let now = self.now_ns();
        while let Some(id) = self.open.pop() {
            self.spans[id].end_ns = now;
        }
    }

    /// Calls, total and self time per span name, by name.
    #[must_use]
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for s in &self.spans {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += self_time_ns((s.start_ns, s.end_ns), &children[s.id]);
        }
        out
    }

    /// Σ self time of the spans named `name`, in seconds.
    #[must_use]
    pub fn self_s(&self, name: &str) -> f64 {
        self.layer_times()
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 / 1e9)
    }

    /// The spans and per-name self times as one JSON document.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                json!({
                    "id": (s.id),
                    "parent": (s.parent.map_or(Value::Null, |p| Value::U64(p as u64))),
                    "name": (s.name),
                    "start_ns": (s.start_ns),
                    "end_ns": (s.end_ns),
                    "run_id": (self.run_id.clone())
                })
            })
            .collect();
        let layers = self
            .layer_times()
            .into_iter()
            .map(|(name, t)| {
                json!({
                    "name": (name),
                    "calls": (t.calls),
                    "total_ns": (t.total_ns),
                    "self_ns": (t.self_ns)
                })
            })
            .collect();
        json!({
            "run_id": (self.run_id.clone()),
            "spans": (Value::Seq(spans)),
            "layers": (Value::Seq(layers))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_child_coverage() {
        assert_eq!(self_time_ns((0, 100), &[]), 100);
        assert_eq!(self_time_ns((0, 100), &[(10, 30), (50, 60)]), 70);
        // overlapping children count once
        assert_eq!(self_time_ns((0, 100), &[(10, 40), (30, 60)]), 50);
        // a child sticking out of the parent is clipped to it
        assert_eq!(self_time_ns((10, 100), &[(0, 20), (90, 120)]), 70);
        // a child covering the whole span leaves no self time
        assert_eq!(self_time_ns((10, 20), &[(0, 30)]), 0);
    }

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = Tracer::enabled("run-1".into());
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            t.span("inner", |_| ());
        });
        let spans = &t.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let layers = t.layer_times();
        let (outer, inner) = (layers["outer"], layers["inner"]);
        assert_eq!((outer.calls, inner.calls), (1, 2));
        // the outer span's self time excludes both children exactly
        let children = inner.total_ns;
        assert_eq!(outer.self_ns, outer.total_ns - children);
        assert!(inner.total_ns >= 20_000_000);
        assert_eq!(inner.self_ns, inner.total_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let v = t.span("x", |t| t.span("y", |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans.is_empty());
        assert_eq!(t.self_s("x"), 0.0);
    }

    #[test]
    fn close_all_ends_spans_left_open_by_a_panic() {
        let mut t = Tracer::enabled("run-2".into());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.span("boom", |_| panic!("deliberate"))
        }));
        assert!(r.is_err());
        t.close_all();
        assert!(t.spans[0].end_ns >= t.spans[0].start_ns);
    }
}
