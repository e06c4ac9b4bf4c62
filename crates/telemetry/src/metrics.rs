//! Lock-free metric primitives: counters, gauges and log2-bucketed latency
//! histograms, plus the registry that names them for exposition.
//!
//! Everything here is designed for the *recording* side to be a handful of
//! relaxed atomic operations — no mutex, no allocation — so runtime hot
//! paths (per-job, per-event, per-wakeup) can record unconditionally. The
//! *reading* side (scrapes, report snapshots) pays the loads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log2 buckets: bucket 0 holds the value 0, bucket `i` (for
/// `i ≥ 1`) holds values in `[2^(i-1), 2^i - 1]`. 64 buckets cover the
/// full `u64` nanosecond range.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A monotonically increasing counter. `inc`/`add` are single relaxed
/// atomic adds.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    #[must_use]
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A floating-point gauge (also usable as a float accumulator): an
/// `AtomicU64` holding `f64` bits. `set` is one store; `add` is a CAS
/// loop, uncontended in practice.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge starting at 0.0.
    #[must_use]
    pub fn new() -> Self {
        Gauge(AtomicU64::new(0f64.to_bits()))
    }

    /// Replaces the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Accumulates `v` (compare-and-swap loop).
    pub fn add(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.0.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Bucket index for a value: 0 for 0, else `64 - leading_zeros` so that
/// bucket `i` spans `[2^(i-1), 2^i - 1]`.
#[inline]
#[must_use]
pub(crate) fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` (`le` label in the exposition).
#[inline]
#[must_use]
pub(crate) fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 63 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Inclusive lower bound of bucket `i`.
#[inline]
#[must_use]
fn bucket_lower_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// A fixed-size log2-bucketed latency histogram.
///
/// `record` is two relaxed atomic adds (bucket + exact sum) plus two loads
/// that turn into `fetch_min`/`fetch_max` only when a new extreme is seen —
/// no mutex, no allocation, ever. Count is derived from the buckets at
/// snapshot time; the sum is exact, so the mean derived from a snapshot is
/// exact too, and `min`/`max` are exact. Quantiles are exact to within the
/// resolution of the containing bucket (< 2× relative error by
/// construction, linear interpolation inside the bucket).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample (nanoseconds, by convention).
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        // Extremes move rarely: pay the RMW only when the loaded bound is
        // actually beaten, so the steady state is two plain loads.
        if value < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(value, Ordering::Relaxed);
        }
        if value > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// A consistent-enough copy for reporting (individual loads are
    /// relaxed; recording is concurrent, so totals may trail by the odd
    /// in-flight sample — fine for observability).
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot::default();
        self.snapshot_into(&mut snap);
        snap
    }

    /// Fills `out` with a snapshot, reusing its bucket storage. Scrape
    /// loops render dozens of histograms per pass — one pooled snapshot
    /// makes the whole pass allocation-free after the first histogram.
    pub fn snapshot_into(&self, out: &mut HistogramSnapshot) {
        out.buckets.clear();
        out.buckets.extend(self.buckets.iter().map(|b| b.load(Ordering::Relaxed)));
        out.count = out.buckets.iter().sum();
        out.sum = self.sum.load(Ordering::Relaxed);
        let min = self.min.load(Ordering::Relaxed);
        out.min = if out.count == 0 { 0 } else { min };
        out.max = self.max.load(Ordering::Relaxed);
    }
}

/// A point-in-time copy of a [`Histogram`], with quantile estimation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see `bucket_index`).
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: u64,
    /// Exact smallest sample (0 when empty).
    pub min: u64,
    /// Exact largest sample (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Exact mean (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Quantile estimate for `q ∈ [0, 1]`: locates the bucket containing
    /// the rank-`⌈q·count⌉` sample and interpolates linearly inside it,
    /// clamped to the exact observed `[min, max]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= rank {
                let lower = bucket_lower_bound(i).max(self.min);
                let upper = bucket_upper_bound(i).min(self.max);
                let within = (rank - cum - 1) as f64 / c as f64;
                let est = lower as f64 + within * (upper.saturating_sub(lower)) as f64;
                return est.round() as u64;
            }
            cum += c;
        }
        self.max
    }
}

/// What kind of metric a registry entry is (drives the `# TYPE` line).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone counter.
    Counter,
    /// Point-in-time gauge.
    Gauge,
    /// Log2 latency histogram.
    Histogram,
}

/// One named metric and its live handle.
pub(crate) enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

pub(crate) struct Entry {
    pub name: String,
    pub help: String,
    pub handle: Handle,
}

/// A registry of named metrics.
///
/// Registration (startup) takes a mutex and allocates; recording goes
/// through the returned `Arc` handles and never touches the registry
/// again. Rendering walks the entries in registration order, which makes
/// the exposition stable — the golden test pins it.
#[derive(Default)]
pub struct Registry {
    pub(crate) entries: Mutex<Vec<Entry>>,
    pub(crate) build_info: Mutex<Vec<(String, String)>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let entries = self.entries.lock().expect("registry poisoned");
        f.debug_struct("Registry").field("metrics", &entries.len()).finish()
    }
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers a counter and returns its recording handle.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        let c = Arc::new(Counter::new());
        self.entries.lock().expect("registry poisoned").push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            handle: Handle::Counter(Arc::clone(&c)),
        });
        c
    }

    /// Registers a gauge and returns its recording handle.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        let g = Arc::new(Gauge::new());
        self.entries.lock().expect("registry poisoned").push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            handle: Handle::Gauge(Arc::clone(&g)),
        });
        g
    }

    /// Registers a histogram and returns its recording handle.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        let h = Arc::new(Histogram::new());
        self.entries.lock().expect("registry poisoned").push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            handle: Handle::Histogram(Arc::clone(&h)),
        });
        h
    }

    /// Sets the labels rendered on the `rtcm_build_info` gauge (version,
    /// service config, host id, ...).
    pub fn set_build_info(&self, labels: Vec<(String, String)>) {
        *self.build_info.lock().expect("registry poisoned") = labels;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 63);
        for i in 1..62 {
            assert_eq!(bucket_index(bucket_upper_bound(i)), i);
            assert_eq!(bucket_index(bucket_upper_bound(i) + 1), i + 1);
        }
    }

    #[test]
    fn histogram_exact_parts() {
        let h = Histogram::new();
        for v in [10u64, 20, 30, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 1060);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 1000);
        assert!((s.mean() - 265.0).abs() < 1e-9);
    }

    #[test]
    fn snapshot_into_reuses_storage_and_matches_snapshot() {
        let h = Histogram::new();
        for v in [5u64, 9, 500] {
            h.record(v);
        }
        let mut pooled = HistogramSnapshot::default();
        h.snapshot_into(&mut pooled);
        assert_eq!(pooled, h.snapshot());
        let cap = pooled.buckets.capacity();
        let ptr = pooled.buckets.as_ptr();
        h.record(7);
        h.snapshot_into(&mut pooled);
        assert_eq!(pooled.count, 4);
        assert_eq!(pooled.buckets.capacity(), cap);
        assert_eq!(pooled.buckets.as_ptr(), ptr, "refill must not reallocate");
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!((s.count, s.sum, s.min, s.max), (0, 0, 0, 0));
        assert_eq!(s.quantile(0.99), 0);
    }

    #[test]
    fn gauge_set_and_add() {
        let g = Gauge::new();
        g.set(1.5);
        g.add(0.25);
        assert!((g.get() - 1.75).abs() < 1e-12);
    }
}
