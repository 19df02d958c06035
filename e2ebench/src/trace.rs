//! In-memory span tracer for the traced run.
//!
//! Spans are opened by the benchmark around calls into each layer's
//! public functions (the decorators in `layers.rs`, the scan and query
//! loops). Every closed span updates a per-thread aggregate (count,
//! duration, self time) and, up to a fixed cap, appends a record
//! `(id, parent, op, name, start, end)` to a per-thread log that is
//! written out when the run ends.
//!
//! Self time is a span's duration minus the time its child spans on
//! the same thread cover. Every nanosecond of a top-level span is
//! therefore the self time of exactly one span, so per-layer self
//! times plus the self time of the harness's own op spans add up to
//! the summed duration of the top-level spans. That identity is what
//! the residual metrics rest on.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Span records kept per thread; further spans are still aggregated
/// but only counted in `dropped`.
const LOG_CAP: usize = 200_000;

/// One closed span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// Enclosing span on the same thread; 0 for a top-level span.
    pub parent: u64,
    /// Harness op the span belongs to (0 outside any op).
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Aggregate of every closed span of one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Summed duration of the spans of this name that had no parent.
    pub top_ns: u64,
}

struct Frame {
    id: u64,
    slot: usize,
    start_ns: u64,
    child_ns: u64,
}

/// One thread's open-span stack, aggregates and bounded log. The
/// arithmetic lives here, with time passed in, so tests can drive it
/// on a manual timeline.
#[derive(Default)]
pub struct Recorder {
    stack: Vec<Frame>,
    /// Span names seen on this thread; `aggs[i]` belongs to `names[i]`.
    names: Vec<&'static str>,
    aggs: Vec<Agg>,
    pub counts: BTreeMap<&'static str, u64>,
    pub log: Vec<Span>,
    pub dropped: u64,
}

impl Recorder {
    /// The aggregate slot of `name`. Span names are literals, so the
    /// pointer comparison almost always finds them.
    fn slot(&mut self, name: &'static str) -> usize {
        let found = self
            .names
            .iter()
            .position(|n| std::ptr::eq(*n, name))
            .or_else(|| self.names.iter().position(|n| *n == name));
        found.unwrap_or_else(|| {
            self.names.push(name);
            self.aggs.push(Agg::default());
            self.names.len() - 1
        })
    }

    pub fn enter(&mut self, id: u64, name: &'static str, now_ns: u64) {
        let slot = self.slot(name);
        self.stack.push(Frame {
            id,
            slot,
            start_ns: now_ns,
            child_ns: 0,
        });
    }

    /// Aggregates by span name.
    pub fn aggs(&self) -> impl Iterator<Item = (&'static str, &Agg)> {
        self.names.iter().copied().zip(self.aggs.iter())
    }

    /// Close the innermost open span at `now_ns`.
    pub fn exit(&mut self, op: u64, now_ns: u64) {
        let Some(f) = self.stack.pop() else { return };
        let dur = now_ns.saturating_sub(f.start_ns);
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => 0,
        };
        let a = &mut self.aggs[f.slot];
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(f.child_ns);
        if parent == 0 {
            a.top_ns += dur;
        }
        if self.log.len() < LOG_CAP {
            self.log.push(Span {
                id: f.id,
                parent,
                op,
                name: self.names[f.slot],
                start_ns: f.start_ns,
                end_ns: now_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }
}

struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    op: AtomicU64,
    threads: Mutex<Vec<Arc<Mutex<Recorder>>>>,
}

fn tracer() -> &'static Tracer {
    static T: OnceLock<Tracer> = OnceLock::new();
    T.get_or_init(|| Tracer {
        enabled: AtomicBool::new(false),
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        op: AtomicU64::new(0),
        threads: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static LOCAL: RefCell<Option<Arc<Mutex<Recorder>>>> = const { RefCell::new(None) };
}

fn with_local<R>(f: impl FnOnce(&mut Recorder) -> R) -> R {
    LOCAL.with(|cell| {
        let mut slot = cell.borrow_mut();
        let rec = slot.get_or_insert_with(|| {
            let rec = Arc::new(Mutex::new(Recorder::default()));
            tracer()
                .threads
                .lock()
                .expect("tracer registry poisoned")
                .push(rec.clone());
            rec
        });
        let mut guard = rec.lock().expect("thread recorder poisoned");
        f(&mut guard)
    })
}

/// Turn span recording on or off (off by default).
pub fn set_enabled(on: bool) {
    tracer().enabled.store(on, Ordering::SeqCst);
}

fn enabled() -> bool {
    tracer().enabled.load(Ordering::Relaxed)
}

/// Set the op id stamped on spans opened from now on (any thread).
pub fn set_op(op: u64) {
    tracer().op.store(op, Ordering::Relaxed);
}

fn now_ns() -> u64 {
    tracer().epoch.elapsed().as_nanos() as u64
}

/// An open span; closes when dropped.
#[must_use = "a span closes when this guard is dropped"]
pub struct SpanGuard {
    live: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.live {
            let op = tracer().op.load(Ordering::Relaxed);
            let now = now_ns();
            with_local(|r| r.exit(op, now));
        }
    }
}

/// Open a span named `name` on this thread (inert while tracing is
/// off).
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { live: false };
    }
    let id = tracer().next_id.fetch_add(1, Ordering::Relaxed);
    let now = now_ns();
    with_local(|r| r.enter(id, name, now));
    SpanGuard { live: true }
}

/// Add `n` to the counter `name` (no-op while tracing is off).
pub fn count(name: &'static str, n: u64) {
    if enabled() {
        with_local(|r| r.count(name, n));
    }
}

/// Everything recorded so far, merged across threads.
#[derive(Default)]
pub struct Snapshot {
    pub aggs: BTreeMap<&'static str, Agg>,
    pub counts: BTreeMap<&'static str, u64>,
    pub spans: usize,
    pub dropped: u64,
}

impl Snapshot {
    pub fn agg(&self, name: &str) -> Agg {
        self.aggs.get(name).copied().unwrap_or_default()
    }

    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    pub fn self_s(&self, name: &str) -> f64 {
        self.agg(name).self_ns as f64 / 1e9
    }

    /// Summed self time of every span whose name starts with one of
    /// `prefixes`.
    pub fn self_s_of(&self, prefixes: &[&str]) -> f64 {
        self.aggs
            .iter()
            .filter(|(n, _)| prefixes.iter().any(|p| n.starts_with(p)))
            .map(|(_, a)| a.self_ns)
            .sum::<u64>() as f64
            / 1e9
    }

    /// Summed duration of all top-level spans, on every thread.
    pub fn top_s(&self) -> f64 {
        self.aggs.values().map(|a| a.top_ns).sum::<u64>() as f64 / 1e9
    }

    /// Summed self time of all spans.
    pub fn all_self_s(&self) -> f64 {
        self.aggs.values().map(|a| a.self_ns).sum::<u64>() as f64 / 1e9
    }

    /// What was recorded after `earlier` was taken.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let mut out = Snapshot {
            spans: self.spans.saturating_sub(earlier.spans),
            dropped: self.dropped.saturating_sub(earlier.dropped),
            ..Snapshot::default()
        };
        for (name, a) in &self.aggs {
            let b = earlier.agg(name);
            out.aggs.insert(
                name,
                Agg {
                    count: a.count - b.count,
                    total_ns: a.total_ns - b.total_ns,
                    self_ns: a.self_ns - b.self_ns,
                    top_ns: a.top_ns - b.top_ns,
                },
            );
        }
        for (name, n) in &self.counts {
            out.counts.insert(name, n - earlier.count(name));
        }
        out
    }
}

pub fn snapshot() -> Snapshot {
    let mut out = Snapshot::default();
    let threads = tracer().threads.lock().expect("tracer registry poisoned");
    for rec in threads.iter() {
        let r = rec.lock().expect("thread recorder poisoned");
        for (name, a) in r.aggs() {
            let e = out.aggs.entry(name).or_default();
            e.count += a.count;
            e.total_ns += a.total_ns;
            e.self_ns += a.self_ns;
            e.top_ns += a.top_ns;
        }
        for (name, n) in &r.counts {
            *out.counts.entry(name).or_default() += n;
        }
        out.spans += r.log.len();
        out.dropped += r.dropped;
    }
    out
}

/// Write every logged span as one JSON object per line.
pub fn write_log(path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let threads = tracer().threads.lock().expect("tracer registry poisoned");
    for (t, rec) in threads.iter().enumerate() {
        let r = rec.lock().expect("thread recorder poisoned");
        for s in &r.log {
            writeln!(
                out,
                "{{\"thread\":{t},\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_on_a_manual_timeline() {
        // op [0,100) > a [10,40) > b [15,25); op > c [50,90)
        let mut r = Recorder::default();
        r.enter(1, "op", 0);
        r.enter(2, "a", 10);
        r.enter(3, "b", 15);
        r.exit(7, 25);
        r.exit(7, 40);
        r.enter(4, "c", 50);
        r.exit(7, 90);
        r.exit(7, 100);

        let aggs: BTreeMap<_, _> = r.aggs().map(|(n, a)| (n, *a)).collect();
        assert_eq!(aggs["b"].self_ns, 10);
        assert_eq!(aggs["a"].self_ns, 20);
        assert_eq!(aggs["c"].self_ns, 40);
        assert_eq!(aggs["op"].self_ns, 30);
        assert_eq!(aggs["op"].total_ns, 100);
        assert_eq!(aggs["op"].top_ns, 100);
        assert_eq!(aggs["a"].top_ns, 0);

        // Self times partition the top-level duration exactly.
        let all_self: u64 = aggs.values().map(|a| a.self_ns).sum();
        let top: u64 = aggs.values().map(|a| a.top_ns).sum();
        assert_eq!(all_self, top);

        let b = r.log.iter().find(|s| s.name == "b").unwrap();
        assert_eq!((b.parent, b.op, b.start_ns, b.end_ns), (2, 7, 15, 25));
        let op = r.log.iter().find(|s| s.name == "op").unwrap();
        assert_eq!(op.parent, 0);
    }

    #[test]
    fn repeated_children_accumulate() {
        let mut r = Recorder::default();
        r.enter(1, "scan", 0);
        for k in 0..5u64 {
            r.enter(10 + k, "next", 10 * k);
            r.exit(1, 10 * k + 4);
        }
        r.exit(1, 60);
        let aggs: BTreeMap<_, _> = r.aggs().map(|(n, a)| (n, *a)).collect();
        assert_eq!(aggs["next"].count, 5);
        assert_eq!(aggs["next"].self_ns, 20);
        assert_eq!(aggs["scan"].self_ns, 40);
    }
}
