//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer's public function: its layer name,
//! start and end (relative to the recorder's epoch), the span that caused it
//! and the operation it belongs to.  Where the program reports a duration of
//! its own (the SAT solver's per-query wall time), that duration becomes a
//! *reported* child span that ends where it is recorded.  Spans stay in
//! memory until the run ends and are only then folded into layer totals.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the recorder.
    pub id: u64,
    /// The enclosing span (`None` for an operation's root span).
    pub parent: Option<u64>,
    /// The operation (job, case, request) the span belongs to.
    pub op: u64,
    /// Layer name, e.g. `smt.encode` or `tsys.bmc`.
    pub name: &'static str,
    /// Start, relative to the recorder's epoch.
    pub start: Duration,
    /// End, relative to the recorder's epoch.
    pub end: Duration,
    /// The span wraps an entry point whose inner layers the public API does
    /// not let the benchmark separate: its self time counts as
    /// unattributed.
    pub opaque: bool,
}

impl Span {
    /// The span's duration.
    pub fn len(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// The recorder; shared by reference between the load-generating threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Opens the root span of operation `op` and runs `f` inside it.
    pub fn op<R>(&self, op: u64, name: &'static str, f: impl FnOnce(Ctx<'_>) -> R) -> R {
        Ctx {
            tracer: self,
            op,
            parent: None,
        }
        .span(name, f)
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("a span writer panicked")
            .push(span);
    }

    fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a span writer panicked").clone()
    }
}

/// Where a new span attaches: the recorder, the operation and the parent.
#[derive(Debug, Clone, Copy)]
pub struct Ctx<'a> {
    tracer: &'a Tracer,
    op: u64,
    parent: Option<u64>,
}

impl<'a> Ctx<'a> {
    fn record<R>(&self, name: &'static str, opaque: bool, f: impl FnOnce(Ctx<'a>) -> R) -> R {
        let id = self.tracer.id();
        let start = self.tracer.epoch.elapsed();
        let out = f(Ctx {
            tracer: self.tracer,
            op: self.op,
            parent: Some(id),
        });
        let end = self.tracer.epoch.elapsed();
        self.tracer.push(Span {
            id,
            parent: self.parent,
            op: self.op,
            name,
            start,
            end,
            opaque,
        });
        out
    }

    /// Times `f` as a child span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce(Ctx<'a>) -> R) -> R {
        self.record(name, false, f)
    }

    /// Times `f` as a child span whose inside stays unattributed.
    pub fn opaque<R>(&self, name: &'static str, f: impl FnOnce(Ctx<'a>) -> R) -> R {
        self.record(name, true, f)
    }

    /// Records a duration the program measured itself as a child of this
    /// span, anchored at the moment of the call.
    pub fn reported(&self, name: &'static str, duration: Duration) {
        let end = self.tracer.epoch.elapsed();
        let start = end.saturating_sub(duration);
        self.tracer.push(Span {
            id: self.tracer.id(),
            parent: self.parent,
            op: self.op,
            name,
            start,
            end,
            opaque: false,
        });
    }
}

/// Per-layer busy and self times folded from a span set.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// Total duration of the spans of each layer.
    pub busy: BTreeMap<&'static str, Duration>,
    /// Duration minus the time covered by the span's children, per layer.
    pub self_time: BTreeMap<&'static str, Duration>,
    /// Total duration of operation root spans.
    pub root: Duration,
    /// Root time not covered by any child, plus opaque spans' self time.
    pub unattributed: Duration,
}

impl LayerTimes {
    /// Folds spans into per-layer totals.
    pub fn fold(spans: &[Span]) -> LayerTimes {
        let mut children: BTreeMap<u64, Duration> = BTreeMap::new();
        for s in spans {
            if let Some(p) = s.parent {
                *children.entry(p).or_default() += s.len();
            }
        }
        let mut out = LayerTimes::default();
        for s in spans {
            let covered = children.get(&s.id).copied().unwrap_or_default();
            let own = s.len().saturating_sub(covered);
            *out.busy.entry(s.name).or_default() += s.len();
            *out.self_time.entry(s.name).or_default() += own;
            if s.parent.is_none() {
                out.root += s.len();
                out.unattributed += own;
            } else if s.opaque {
                out.unattributed += own;
            }
        }
        out
    }

    /// Busy time of a layer in seconds (0 when the layer never ran).
    pub fn busy_s(&self, name: &str) -> f64 {
        self.busy.get(name).map_or(0.0, Duration::as_secs_f64)
    }

    /// Self time of a layer in seconds (0 when the layer never ran).
    pub fn self_s(&self, name: &str) -> f64 {
        self.self_time.get(name).map_or(0.0, Duration::as_secs_f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_opaque_time_is_unattributed() {
        let t = Tracer::default();
        t.op(1, "op", |c| {
            c.span("a", |c| {
                std::thread::sleep(Duration::from_millis(4));
                c.reported("sat", Duration::from_millis(2));
            });
            c.opaque("b", |_| std::thread::sleep(Duration::from_millis(3)));
        });
        let times = LayerTimes::fold(&t.spans());
        assert!(times.busy_s("a") >= 0.004);
        assert!(times.self_s("a") < times.busy_s("a"));
        assert!((times.busy_s("sat") - 0.002).abs() < 1e-9);
        assert!(times.unattributed >= Duration::from_millis(3));
        assert!(times.root >= Duration::from_millis(7));
    }
}
