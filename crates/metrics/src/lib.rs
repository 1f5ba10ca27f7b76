//! telegraph-metrics: a lock-light observability layer for the engine.
//!
//! The registry hands out `Arc`-shared instruments keyed by
//! `(family, instance, name)` — e.g. `("operators", "eo0.q1.filter0",
//! "routed")`. Hot paths update instruments with relaxed atomics and
//! never touch a lock; the registry's internal map is locked only at
//! registration and snapshot time.
//!
//! Components that already maintain their own internal atomics (the
//! Fjord queues) register a *probe* instead: a closure sampled at
//! `snapshot()` time that appends readings without duplicating state
//! on the hot path.
//!
//! `snapshot()` is the single export surface. It backs both the Rust
//! API used by tests and the benchmark, and the `tcq$queues` / `tcq$operators` /
//! `tcq$flux` introspection streams the server's Wrapper emits, so a
//! running engine can be queried about itself in CQ-SQL.

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed level (queue depth, partition load, ...).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Default latency bucket upper bounds, in microseconds.
pub const DEFAULT_LATENCY_BOUNDS_US: &[u64] = &[
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
];

/// Fixed-bucket histogram. One atomic per bucket plus count and sum;
/// `record` is two relaxed adds and a linear scan over ~16 bounds.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>, // bounds.len() + 1 (last = overflow)
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    pub fn with_bounds(bounds: &[u64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    pub fn record(&self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Upper bound of the bucket holding the p-th percentile
    /// (0.0 ..= 1.0). Overflow bucket reports `u64::MAX`.
    pub fn percentile(&self, p: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((p.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= target {
                return self.bounds.get(i).copied().unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }

    /// `(upper_bound, count)` pairs; the final pair uses `u64::MAX` as
    /// the overflow bound.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, b)| {
                (
                    self.bounds.get(i).copied().unwrap_or(u64::MAX),
                    b.load(Ordering::Relaxed),
                )
            })
            .collect()
    }
}

/// One reading in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub family: String,
    pub instance: String,
    pub name: String,
    pub value: SampleValue,
}

#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    Counter(u64),
    Gauge(i64),
    Histogram {
        count: u64,
        sum: u64,
        buckets: Vec<(u64, u64)>,
    },
}

impl SampleValue {
    /// Collapse to a scalar for tabular export (introspection streams).
    pub fn as_i64(&self) -> i64 {
        match self {
            SampleValue::Counter(v) => *v as i64,
            SampleValue::Gauge(v) => *v,
            SampleValue::Histogram { count, .. } => *count as i64,
        }
    }
}

/// A full registry reading, sorted by `(family, instance, name)`.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub samples: Vec<Sample>,
}

impl Snapshot {
    pub fn get(&self, family: &str, instance: &str, name: &str) -> Option<&Sample> {
        self.samples
            .iter()
            .find(|s| s.family == family && s.instance == instance && s.name == name)
    }

    /// Counter/gauge scalar lookup; `None` if absent.
    pub fn value(&self, family: &str, instance: &str, name: &str) -> Option<i64> {
        self.get(family, instance, name).map(|s| s.value.as_i64())
    }

    pub fn family<'a>(&'a self, family: &str) -> impl Iterator<Item = &'a Sample> + 'a {
        let family = family.to_string();
        self.samples.iter().filter(move |s| s.family == family)
    }

    /// Sum of a named counter across all instances of a family.
    pub fn sum(&self, family: &str, name: &str) -> i64 {
        self.family(family)
            .filter(|s| s.name == name)
            .map(|s| s.value.as_i64())
            .sum()
    }
}

type Key = (String, String, String);
type Probe = Box<dyn Fn(&mut Vec<Sample>) + Send + Sync>;

#[derive(Default)]
struct RegistryInner {
    counters: Mutex<HashMap<Key, Arc<Counter>>>,
    gauges: Mutex<HashMap<Key, Arc<Gauge>>>,
    histograms: Mutex<HashMap<Key, Arc<Histogram>>>,
    probes: Mutex<Vec<Probe>>,
}

/// Cheap-to-clone handle onto the shared instrument store.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    fn key(family: &str, instance: &str, name: &str) -> Key {
        (family.to_string(), instance.to_string(), name.to_string())
    }

    /// Get or create a counter. Repeated calls with the same key return
    /// the same instrument.
    pub fn counter(&self, family: &str, instance: &str, name: &str) -> Arc<Counter> {
        let mut map = self.inner.counters.lock().unwrap();
        map.entry(Self::key(family, instance, name))
            .or_default()
            .clone()
    }

    pub fn gauge(&self, family: &str, instance: &str, name: &str) -> Arc<Gauge> {
        let mut map = self.inner.gauges.lock().unwrap();
        map.entry(Self::key(family, instance, name))
            .or_default()
            .clone()
    }

    /// Get or create a histogram with the default latency bounds.
    pub fn histogram(&self, family: &str, instance: &str, name: &str) -> Arc<Histogram> {
        self.histogram_with_bounds(family, instance, name, DEFAULT_LATENCY_BOUNDS_US)
    }

    pub fn histogram_with_bounds(
        &self,
        family: &str,
        instance: &str,
        name: &str,
        bounds: &[u64],
    ) -> Arc<Histogram> {
        let mut map = self.inner.histograms.lock().unwrap();
        map.entry(Self::key(family, instance, name))
            .or_insert_with(|| Arc::new(Histogram::with_bounds(bounds)))
            .clone()
    }

    /// Register a closure sampled at `snapshot()` time. Lets components
    /// with existing internal atomics (Fjords) export readings without
    /// double-counting on the hot path.
    pub fn register_probe<F>(&self, probe: F)
    where
        F: Fn(&mut Vec<Sample>) + Send + Sync + 'static,
    {
        self.inner.probes.lock().unwrap().push(Box::new(probe));
    }

    /// Read every instrument and probe. Sorted by
    /// `(family, instance, name)` for deterministic output.
    pub fn snapshot(&self) -> Snapshot {
        let mut samples = Vec::new();
        for ((f, i, n), c) in self.inner.counters.lock().unwrap().iter() {
            samples.push(Sample {
                family: f.clone(),
                instance: i.clone(),
                name: n.clone(),
                value: SampleValue::Counter(c.get()),
            });
        }
        for ((f, i, n), g) in self.inner.gauges.lock().unwrap().iter() {
            samples.push(Sample {
                family: f.clone(),
                instance: i.clone(),
                name: n.clone(),
                value: SampleValue::Gauge(g.get()),
            });
        }
        for ((f, i, n), h) in self.inner.histograms.lock().unwrap().iter() {
            samples.push(Sample {
                family: f.clone(),
                instance: i.clone(),
                name: n.clone(),
                value: SampleValue::Histogram {
                    count: h.count(),
                    sum: h.sum(),
                    buckets: h.buckets(),
                },
            });
        }
        for probe in self.inner.probes.lock().unwrap().iter() {
            probe(&mut samples);
        }
        samples.sort_by(|a, b| {
            (&a.family, &a.instance, &a.name).cmp(&(&b.family, &b.instance, &b.name))
        });
        Snapshot { samples }
    }
}

/// Span event on a tuple-batch hand-off. Compiles to nothing unless the
/// `trace` feature is enabled on `tcq-metrics` (consumers forward it,
/// e.g. `tcq = { features = ["trace"] }`).
#[cfg(feature = "trace")]
#[macro_export]
macro_rules! tcq_trace {
    ($($arg:tt)*) => {
        eprintln!("[tcq-trace] {}", format_args!($($arg)*));
    };
}

#[cfg(not(feature = "trace"))]
#[macro_export]
macro_rules! tcq_trace {
    ($($arg:tt)*) => {
        if false {
            let _ = format_args!($($arg)*);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counter_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("queues", "eo0.input", "enqueued");
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        // Same key returns the same instrument.
        assert_eq!(r.counter("queues", "eo0.input", "enqueued").get(), 10);

        let g = r.gauge("flux", "m0", "load");
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);

        let snap = r.snapshot();
        assert_eq!(snap.value("queues", "eo0.input", "enqueued"), Some(10));
        assert_eq!(snap.value("flux", "m0", "load"), Some(3));
        assert_eq!(snap.value("nope", "x", "y"), None);
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        let h = Histogram::with_bounds(&[10, 100, 1000]);
        for v in [1, 5, 10, 50, 200, 2000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 2266);
        let buckets = h.buckets();
        assert_eq!(buckets[0], (10, 3));
        assert_eq!(buckets[1], (100, 1));
        assert_eq!(buckets[2], (1000, 1));
        assert_eq!(buckets[3], (u64::MAX, 1));
        assert_eq!(h.percentile(0.5), 10);
        assert_eq!(h.percentile(0.75), 1000);
        assert_eq!(h.percentile(1.0), u64::MAX);
        assert_eq!(Histogram::with_bounds(&[1]).percentile(0.5), 0);
    }

    #[test]
    fn snapshot_is_sorted_and_probes_run() {
        let r = Registry::new();
        r.counter("b", "x", "n").inc();
        r.counter("a", "x", "n").inc();
        r.register_probe(|out| {
            out.push(Sample {
                family: "probe".into(),
                instance: "p0".into(),
                name: "depth".into(),
                value: SampleValue::Gauge(7),
            });
        });
        let snap = r.snapshot();
        let fams: Vec<&str> = snap.samples.iter().map(|s| s.family.as_str()).collect();
        assert_eq!(fams, vec!["a", "b", "probe"]);
        assert_eq!(snap.value("probe", "p0", "depth"), Some(7));
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let r = Registry::new();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = r.counter("t", "shared", "hits");
                thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.counter("t", "shared", "hits").get(), 40_000);
    }

    #[test]
    fn family_sum_aggregates_instances() {
        let r = Registry::new();
        r.counter("queues", "q0", "enqueued").add(3);
        r.counter("queues", "q1", "enqueued").add(4);
        r.counter("queues", "q1", "dequeued").add(100);
        let snap = r.snapshot();
        assert_eq!(snap.sum("queues", "enqueued"), 7);
        assert_eq!(snap.family("queues").count(), 3);
    }
}
