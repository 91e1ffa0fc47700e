//! The metrics registry: atomic counters, gauges and log-bucketed
//! histograms, snapshotable into a serializable [`MetricsSnapshot`].
//!
//! All three instruments are lock-free on the hot path (relaxed atomics);
//! the registry itself takes a lock only to find or create an instrument,
//! and callers on hot paths hold the returned `Arc` instead of re-looking
//! it up per event.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use serde::Serialize;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`. Concurrent adds from any number of threads sum exactly
    /// (relaxed atomic addition — no increment can be lost).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins measurement (fraction, size, temperature…), stored as
/// `f64` bits in an atomic.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge starting at `0.0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// The last value set (`0.0` if never set).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Number of histogram buckets: bucket `i` holds the values whose binary
/// length is `i` (bucket 0 holds exactly the value 0, bucket 64 the values
/// with the top bit set). Log bucketing keeps recording O(1) and bounds
/// the quantile error to a factor of two — plenty for latency percentiles.
const BUCKETS: usize = 65;

/// A log-bucketed histogram of `u64` samples (latencies in nanoseconds by
/// convention: name histogram metrics `*.duration_ns`).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// The bucket a value lands in: its binary length (0 for the value 0).
#[inline]
fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The largest value bucket `index` can hold (the inclusive upper bound
/// reported for quantiles).
fn bucket_upper_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration as nanoseconds (saturating above `u64::MAX` ns,
    /// i.e. ~585 years).
    #[inline]
    pub fn record_duration(&self, duration: Duration) {
        self.record(u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The value at or below which a fraction `q` (0..=1) of the samples
    /// fall, reported as the upper bound of the sample's bucket (so the
    /// estimate is within 2× of the true quantile). `None` while empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (index, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return Some(bucket_upper_bound(index));
            }
        }
        Some(u64::MAX)
    }

    /// The frozen view of this histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            p50: self.quantile(0.50).unwrap_or(0),
            p95: self.quantile(0.95).unwrap_or(0),
            p99: self.quantile(0.99).unwrap_or(0),
        }
    }
}

/// A histogram's summary statistics at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (wrapping on overflow).
    pub sum: u64,
    /// Smallest sample (0 while empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Median, as the upper bound of its log bucket.
    pub p50: u64,
    /// 95th percentile, as the upper bound of its log bucket.
    pub p95: u64,
    /// 99th percentile, as the upper bound of its log bucket.
    pub p99: u64,
}

/// A named collection of instruments. Cloning the `Arc`s returned by the
/// accessors is the intended usage pattern on hot paths.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut counters = self.counters.lock().expect("metrics lock poisoned");
        match counters.get(name) {
            Some(counter) => counter.clone(),
            None => {
                let counter = Arc::new(Counter::new());
                counters.insert(name.to_string(), counter.clone());
                counter
            }
        }
    }

    /// The gauge named `name`, created at `0.0` on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut gauges = self.gauges.lock().expect("metrics lock poisoned");
        match gauges.get(name) {
            Some(gauge) => gauge.clone(),
            None => {
                let gauge = Arc::new(Gauge::new());
                gauges.insert(name.to_string(), gauge.clone());
                gauge
            }
        }
    }

    /// The histogram named `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut histograms = self.histograms.lock().expect("metrics lock poisoned");
        match histograms.get(name) {
            Some(histogram) => histogram.clone(),
            None => {
                let histogram = Arc::new(Histogram::new());
                histograms.insert(name.to_string(), histogram.clone());
                histogram
            }
        }
    }

    /// A consistent-enough point-in-time view of every instrument (each
    /// instrument is read atomically; the registry is not frozen across
    /// instruments — fine for serving dashboards and test assertions).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .expect("metrics lock poisoned")
                .iter()
                .map(|(name, counter)| (name.clone(), counter.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("metrics lock poisoned")
                .iter()
                .map(|(name, gauge)| (name.clone(), gauge.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("metrics lock poisoned")
                .iter()
                .map(|(name, histogram)| (name.clone(), histogram.snapshot()))
                .collect(),
        }
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field(
                "counters",
                &self.counters.lock().expect("metrics lock poisoned").len(),
            )
            .field(
                "gauges",
                &self.gauges.lock().expect("metrics lock poisoned").len(),
            )
            .field(
                "histograms",
                &self.histograms.lock().expect("metrics lock poisoned").len(),
            )
            .finish()
    }
}

/// A frozen view of a [`MetricsRegistry`], sorted by name, serializable
/// (`serde_json::to_string(&snapshot)`) and renderable as stable text.
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The value of a counter (0 when absent — an instrument that was
    /// never touched and one that never fired are indistinguishable by
    /// design, so invariant checks read naturally).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The value of a gauge, if it was ever set or read.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// A histogram's summary, if it exists.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// The sum of all counters matching a dotted prefix (`catalog.refresh.`
    /// sums the per-strategy refresh counters).
    pub fn counter_prefix_sum(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, value)| value)
            .sum()
    }

    /// A stable, line-oriented text rendering (one instrument per line,
    /// sorted by name) — the `metrics` page of a future HTTP front end.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&format!("counter {name} {value}\n"));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!("gauge {name} {value}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "histogram {name} count={} sum={} min={} max={} p50={} p95={} p99={}\n",
                h.count, h.sum, h.min, h.max, h.p50, h.p95, h.p99
            ));
        }
        out
    }

    /// The snapshot as a JSON document.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serialization is infallible")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_and_read() {
        let registry = MetricsRegistry::new();
        let counter = registry.counter("a.b");
        counter.inc();
        counter.add(41);
        assert_eq!(counter.get(), 42);
        // Same name, same instrument.
        assert_eq!(registry.counter("a.b").get(), 42);
        assert_eq!(registry.snapshot().counter("a.b"), 42);
        assert_eq!(registry.snapshot().counter("never.touched"), 0);
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let registry = MetricsRegistry::new();
        let gauge = registry.gauge("live.fraction");
        gauge.set(0.75);
        gauge.set(0.5);
        assert_eq!(registry.snapshot().gauge("live.fraction"), Some(0.5));
        assert_eq!(registry.snapshot().gauge("missing"), None);
    }

    /// The satellite-mandated boundary cases: 0, 1 (a 1ns latency) and
    /// `u64::MAX` must each land in a well-defined bucket, count exactly
    /// once and report sane quantiles.
    #[test]
    fn histogram_bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_of(1u64 << 63), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);

        let histogram = Histogram::new();
        assert_eq!(histogram.quantile(0.5), None, "empty histogram");
        histogram.record(0);
        histogram.record(1);
        histogram.record(u64::MAX);
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.count, 3);
        assert_eq!(snapshot.min, 0);
        assert_eq!(snapshot.max, u64::MAX);
        assert_eq!(snapshot.sum, u64::MAX.wrapping_add(1), "wrapping sum");
        // Ranks: p50 → 2nd sample (value 1), p99 → 3rd (u64::MAX).
        assert_eq!(snapshot.p50, 1);
        assert_eq!(snapshot.p99, u64::MAX);
    }

    #[test]
    fn histogram_quantiles_are_within_one_bucket() {
        let histogram = Histogram::new();
        for value in 1..=1000u64 {
            histogram.record(value);
        }
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.count, 1000);
        assert_eq!(snapshot.min, 1);
        assert_eq!(snapshot.max, 1000);
        // True p50 = 500 → bucket [512, 1023] or [256, 511]; log-bucketed
        // estimates are within 2× above the true quantile.
        assert!((511..=1023).contains(&snapshot.p50), "p50={}", snapshot.p50);
        assert!(snapshot.p95 >= 950 / 2 && snapshot.p95 <= 1023);
        assert!(snapshot.p99 >= 990 / 2 && snapshot.p99 <= 1023);
    }

    #[test]
    fn histogram_records_durations() {
        let histogram = Histogram::new();
        histogram.record_duration(Duration::from_nanos(1));
        histogram.record_duration(Duration::from_micros(1));
        assert_eq!(histogram.snapshot().count, 2);
        assert_eq!(histogram.snapshot().min, 1);
        assert_eq!(histogram.snapshot().max, 1000);
    }

    #[test]
    fn concurrent_counter_increments_sum_exactly() {
        let registry = MetricsRegistry::new();
        let counter = registry.counter("spin");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let counter = counter.clone();
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        counter.inc();
                    }
                });
            }
        });
        assert_eq!(counter.get(), 80_000);
    }

    #[test]
    fn snapshot_renders_stable_text_and_json() {
        let registry = MetricsRegistry::new();
        registry.counter("b").add(2);
        registry.counter("a").add(1);
        registry.gauge("g").set(0.5);
        registry.histogram("h.duration_ns").record(7);
        let snapshot = registry.snapshot();
        let text = snapshot.render_text();
        let a = text.find("counter a 1").expect("a rendered");
        let b = text.find("counter b 2").expect("b rendered");
        assert!(a < b, "sorted by name");
        assert!(text.contains("gauge g 0.5"));
        assert!(text.contains("histogram h.duration_ns count=1"));
        let json = snapshot.to_json();
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"p99\""));
        assert_eq!(snapshot.counter_prefix_sum(""), 3);
    }
}
