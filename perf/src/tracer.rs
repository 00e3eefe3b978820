//! The traced pass's span recorder.
//!
//! Spans are recorded only here, in the benchmark, around each call the
//! benchmark makes into a layer's public functions: nothing inside the
//! simulator is instrumented. A span's name is `<layer>.<call>`, where the
//! layer is the module that owns the call (`vm.exec.run` belongs to
//! `vm.exec`). Spans stay in memory until the workload ends; the report
//! derives per-layer self time from them and writes them out in Chrome
//! trace format.

use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Layer of the benchmark's own spans (rounds, setup and per-cell glue).
/// Their self time is what no layer span covers.
pub const OWN_LAYER: &str = "perf";

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall duration in ns.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer the span belongs to: its name without the last segment.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name
            .rsplit_once('.')
            .map_or(self.name, |(layer, _)| layer)
    }
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// In-memory span recorder. Spans nest by time: the span open when
/// another opens is its parent. The benchmark drives every sweep with one
/// worker thread while the caller waits, so one stack serves every thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    state: Mutex<State>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn state(&self) -> MutexGuard<'_, State> {
        // No code panics while holding the lock, so a poisoned lock still
        // holds consistent spans.
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Runs `f` inside span `name`. The span closes even if `f` unwinds.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let id = {
            let mut s = self.state();
            let parent = s.open.last().copied();
            s.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
            });
            let id = s.spans.len() - 1;
            s.open.push(id);
            id
        };
        let _close = Close { tracer: self, id };
        f()
    }

    /// Every span recorded so far, in opening order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.state().spans.clone()
    }
}

struct Close<'a> {
    tracer: &'a Tracer,
    id: usize,
}

impl Drop for Close<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        let mut s = self.tracer.state();
        if let Some(pos) = s.open.iter().rposition(|&open| open == self.id) {
            s.open.truncate(pos);
        }
        s.spans[self.id].end_ns = end_ns;
    }
}

/// Self time of every span: its duration minus its direct children's.
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut self_ns: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            self_ns[p] = self_ns[p].saturating_sub(s.duration_ns());
        }
    }
    self_ns
}

/// Per-layer totals: `(layer, self ns, spans)`, sorted by self time.
#[must_use]
pub fn layer_table(spans: &[Span]) -> Vec<(&'static str, u64, u64)> {
    let self_ns = self_times_ns(spans);
    let mut rows: Vec<(&'static str, u64, u64)> = Vec::new();
    for (s, ns) in spans.iter().zip(self_ns) {
        match rows.iter_mut().find(|r| r.0 == s.layer()) {
            Some(row) => {
                row.1 += ns;
                row.2 += 1;
            }
            None => rows.push((s.layer(), ns, 1)),
        }
    }
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    rows
}

/// Chrome `chrome://tracing` / Perfetto JSON of `spans`: one complete
/// (`X`) event per span, timestamps in µs, the parent index in `args`.
#[must_use]
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":1,\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
            s.name,
            s.layer(),
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let t = Tracer::new();
        t.span("perf.round", || {
            t.span("vm.exec.run", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("oracle.judge", || {});
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[1].layer(), "vm.exec");
        let self_ns = self_times_ns(&spans);
        assert_eq!(
            self_ns[0],
            spans[0].duration_ns() - spans[1].duration_ns() - spans[2].duration_ns()
        );
        let table = layer_table(&spans);
        assert_eq!(table[0].0, "vm.exec");
        assert!(table[0].1 >= 2_000_000);
    }

    #[test]
    fn a_span_closes_when_its_body_unwinds() {
        let t = Tracer::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.span("perf.cell", || panic!("boom"));
        }));
        assert!(caught.is_err());
        t.span("vm.exec.run", || {});
        let spans = t.spans();
        assert_eq!(spans[1].parent, None, "the unwound span must not stay open");
    }
}
