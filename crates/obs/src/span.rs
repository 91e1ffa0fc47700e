//! Nestable timing spans with a pluggable subscriber.
//!
//! [`span("name")`](span) returns a guard; the time between creation and
//! drop is the span's duration, and spans opened while another guard is
//! live nest under it (a thread-local depth counter tracks the stack).
//!
//! Dispatch is two-level:
//!
//! * a **thread-local** subscriber, installed for the extent of a closure
//!   by [`with_subscriber`] — how tests and the repro harness capture a
//!   span tree without perturbing other threads;
//! * a **global** subscriber, installed by [`set_global_subscriber`] —
//!   how a long-running process turns tracing on.
//!
//! With neither installed (the production default) [`span`] returns an
//! inert guard **without reading the clock**: the entire cost of an
//! instrumented call site is one thread-local read and one atomic load.
//! Repro's E16 measures that this is indistinguishable from noise on an
//! E7-scale scan.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Receives span enter/exit events. Implementations must be cheap and
/// re-entrant: spans nest, and subscribers are called with the guard's
/// thread-local depth already updated.
pub trait Subscriber: Send + Sync {
    /// Whether the subscriber wants events at all. Returning `false`
    /// makes [`span`] skip the clock read entirely.
    fn enabled(&self) -> bool {
        true
    }

    /// A span was opened at `depth` (0 = root).
    fn enter(&self, name: &'static str, depth: usize) {
        let _ = (name, depth);
    }

    /// A span closed after `elapsed`.
    fn exit(&self, name: &'static str, depth: usize, elapsed: Duration);
}

/// The production-path subscriber: refuses events, so instrumented code
/// never reads the clock. Installing it is equivalent to installing
/// nothing; it exists so "no tracing" is an explicit, testable value.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSubscriber;

impl Subscriber for NoopSubscriber {
    fn enabled(&self) -> bool {
        false
    }

    fn exit(&self, _name: &'static str, _depth: usize, _elapsed: Duration) {}
}

/// One completed (or still-open) span seen by a [`CollectingSubscriber`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The span name.
    pub name: &'static str,
    /// Nesting depth at open time (0 = root).
    pub depth: usize,
    /// Wall-clock duration; `None` while the span is still open.
    pub duration: Option<Duration>,
}

/// A subscriber that records every span in open order — the test and
/// repro harness backend. Records are pre-order (parents before their
/// children), so [`CollectingSubscriber::render_tree`] is a straight
/// indent-by-depth walk.
#[derive(Debug, Default)]
pub struct CollectingSubscriber {
    records: Mutex<Vec<SpanRecord>>,
}

impl CollectingSubscriber {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Everything recorded so far.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.records.lock().expect("span lock poisoned").clone()
    }

    /// The names of all completed spans, in open order.
    pub fn completed(&self) -> Vec<&'static str> {
        self.records()
            .into_iter()
            .filter(|r| r.duration.is_some())
            .map(|r| r.name)
            .collect()
    }

    /// Drops all records.
    pub fn reset(&self) {
        self.records.lock().expect("span lock poisoned").clear();
    }

    /// The span tree as indented text, one span per line.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        for record in self.records() {
            let duration = record
                .duration
                .map(|d| format!("{:.3} ms", d.as_secs_f64() * 1e3))
                .unwrap_or_else(|| "(open)".to_string());
            out.push_str(&format!(
                "{}{} {}\n",
                "  ".repeat(record.depth),
                record.name,
                duration
            ));
        }
        out
    }
}

impl Subscriber for CollectingSubscriber {
    fn enter(&self, name: &'static str, depth: usize) {
        self.records
            .lock()
            .expect("span lock poisoned")
            .push(SpanRecord {
                name,
                depth,
                duration: None,
            });
    }

    fn exit(&self, name: &'static str, depth: usize, elapsed: Duration) {
        let mut records = self.records.lock().expect("span lock poisoned");
        // The matching record is the last still-open one with this name
        // and depth (spans close innermost-first).
        if let Some(record) = records
            .iter_mut()
            .rev()
            .find(|r| r.duration.is_none() && r.name == name && r.depth == depth)
        {
            record.duration = Some(elapsed);
        }
    }
}

/// `true` while a global subscriber is installed — the one-atomic-load
/// fast path check.
static GLOBAL_ACTIVE: AtomicBool = AtomicBool::new(false);
static GLOBAL: RwLock<Option<Arc<dyn Subscriber>>> = RwLock::new(None);

thread_local! {
    static LOCAL: RefCell<Option<Arc<dyn Subscriber>>> = const { RefCell::new(None) };
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Installs a process-wide subscriber (e.g. at the top of a repro run).
/// Thread-local subscribers installed by [`with_subscriber`] take
/// precedence on their thread.
pub fn set_global_subscriber(subscriber: Arc<dyn Subscriber>) {
    let active = subscriber.enabled();
    *GLOBAL.write().expect("subscriber lock poisoned") = Some(subscriber);
    GLOBAL_ACTIVE.store(active, Ordering::Release);
}

/// Removes the global subscriber; spans on threads without a local
/// subscriber become free again.
pub fn clear_global_subscriber() {
    GLOBAL_ACTIVE.store(false, Ordering::Release);
    *GLOBAL.write().expect("subscriber lock poisoned") = None;
}

/// Runs `f` with `subscriber` receiving this thread's spans, restoring
/// the previous thread-local subscriber afterwards (also on panic-free
/// early return; the closure's spans are fully scoped). This is how a
/// test collects spans without seeing another test's.
pub fn with_subscriber<T>(subscriber: Arc<dyn Subscriber>, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<Arc<dyn Subscriber>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            LOCAL.with(|local| *local.borrow_mut() = self.0.take());
        }
    }
    let previous = LOCAL.with(|local| local.borrow_mut().replace(subscriber));
    let _restore = Restore(previous);
    f()
}

/// The subscriber this thread's spans should report to, if any wants
/// events.
fn active_subscriber() -> Option<Arc<dyn Subscriber>> {
    if let Some(local) = LOCAL.with(|local| local.borrow().clone()) {
        return local.enabled().then_some(local);
    }
    if GLOBAL_ACTIVE.load(Ordering::Acquire) {
        return GLOBAL.read().expect("subscriber lock poisoned").clone();
    }
    None
}

/// An open span; dropping it closes the span and reports the elapsed
/// time to the active subscriber. Inert (clock never read) when no
/// subscriber was active at open time.
#[must_use = "a span measures the time until the guard is dropped"]
pub struct SpanGuard {
    name: &'static str,
    live: Option<(Arc<dyn Subscriber>, Instant, usize)>,
}

impl std::fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanGuard")
            .field("name", &self.name)
            .field("recording", &self.live.is_some())
            .finish()
    }
}

impl SpanGuard {
    /// True if this span is actually being recorded.
    pub fn is_recording(&self) -> bool {
        self.live.is_some()
    }
}

/// Opens a span. The returned guard closes it on drop.
pub fn span(name: &'static str) -> SpanGuard {
    match active_subscriber() {
        Some(subscriber) => {
            let depth = DEPTH.with(|d| {
                let depth = d.get();
                d.set(depth + 1);
                depth
            });
            subscriber.enter(name, depth);
            SpanGuard {
                name,
                live: Some((subscriber, Instant::now(), depth)),
            }
        }
        None => SpanGuard { name, live: None },
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((subscriber, started, depth)) = self.live.take() {
            let elapsed = started.elapsed();
            // Clamp to both this span's open depth and current-minus-one so
            // the counter recovers even when guards drop out of LIFO order.
            DEPTH.with(|d| d.set(depth.min(d.get().saturating_sub(1))));
            subscriber.exit(self.name, depth, elapsed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_without_a_subscriber_are_inert() {
        let guard = span("free");
        assert!(!guard.is_recording());
        drop(guard);
    }

    #[test]
    fn collecting_subscriber_records_a_nested_tree() {
        let collector = Arc::new(CollectingSubscriber::new());
        with_subscriber(collector.clone(), || {
            let _outer = span("serve");
            {
                let _inner = span("delta-replay");
            }
            let _second = span("render");
        });
        let records = collector.records();
        assert_eq!(
            records
                .iter()
                .map(|r| (r.name, r.depth))
                .collect::<Vec<_>>(),
            vec![("serve", 0), ("delta-replay", 1), ("render", 1)],
            "pre-order with depths"
        );
        assert!(records.iter().all(|r| r.duration.is_some()));
        let tree = collector.render_tree();
        assert!(tree.contains("serve"));
        assert!(tree.contains("  delta-replay"));
        assert_eq!(
            collector.completed(),
            vec!["serve", "delta-replay", "render"]
        );
        collector.reset();
        assert!(collector.records().is_empty());
    }

    #[test]
    fn with_subscriber_scopes_to_the_closure_and_restores() {
        let outer = Arc::new(CollectingSubscriber::new());
        let inner = Arc::new(CollectingSubscriber::new());
        with_subscriber(outer.clone(), || {
            let _a = span("a");
            with_subscriber(inner.clone(), || {
                let _b = span("b");
            });
            let _c = span("c");
        });
        assert_eq!(outer.completed(), vec!["a", "c"]);
        assert_eq!(inner.completed(), vec!["b"]);
        assert!(!span("after").is_recording());
    }

    #[test]
    fn noop_subscriber_disables_recording() {
        with_subscriber(Arc::new(NoopSubscriber), || {
            assert!(!span("anything").is_recording());
        });
    }

    #[test]
    fn depth_recovers_after_out_of_order_drops() {
        let collector = Arc::new(CollectingSubscriber::new());
        with_subscriber(collector.clone(), || {
            let a = span("a");
            let b = span("b");
            drop(a); // dropped before its child — depth must not wedge
            drop(b);
            let _c = span("c");
        });
        let records = collector.records();
        let c = records.iter().find(|r| r.name == "c").unwrap();
        assert_eq!(c.depth, 0, "depth counter recovered");
    }
}
