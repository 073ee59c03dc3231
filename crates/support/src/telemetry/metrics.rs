//! Sharded metrics registry: counters, gauges, fixed-bucket histograms.
//!
//! Registration interns a series (name + sorted label set) exactly once
//! and hands back an `Arc` handle; every subsequent update is a single
//! atomic operation with no lock and no hash lookup. The registry map
//! itself is sharded by series-key hash so even registration under
//! concurrency rarely contends.
//!
//! The text exposition ([`MetricsRegistry::render_text`]) is
//! deliberately stable: series are sorted by `(name, labels)`, each
//! metric name gets exactly one `# TYPE` line, label values are
//! escaped, and a given series can appear at most once — golden tests
//! pin this shape so the scrape surface cannot silently drift.

use crate::sync::RwLock;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

const SHARDS: usize = 8;

/// A monotonic counter. Cloning the `Arc` handle is the intended way
/// to share it; all updates are relaxed atomics.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (queue length, live
/// sessions, configured capacity).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Set the gauge to an absolute value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add `n` (may be negative via [`Gauge::sub`]).
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n`.
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram over `u64` observations (unit-agnostic; by
/// convention names carry a `_micros` suffix when observing
/// microseconds).
///
/// Buckets are *non-cumulative* internally — `buckets[i]` counts
/// observations in `(bounds[i-1], bounds[i]]`, with a final overflow
/// bucket — so the conservation law `sum(buckets) == count` holds
/// exactly and is property-tested. The exposition renders the
/// conventional cumulative `le` form.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn observe(&self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The configured bucket upper bounds (exclusive of the implicit
    /// `+Inf` overflow bucket).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket (non-cumulative) counts, one entry per bound plus
    /// the overflow bucket. `sum(bucket_counts()) == count()`.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// The upper bound of the bucket holding the `q`-quantile (`q` in
    /// [0, 1]): the last bound when that bucket is the overflow bucket,
    /// 0 when nothing has been observed.
    pub fn quantile(&self, q: f64) -> u64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = (total as f64 * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (bound, count) in self.bounds.iter().zip(&counts) {
            seen += count;
            if seen >= target {
                return *bound;
            }
        }
        *self
            .bounds
            .last()
            .expect("histograms have at least one bound")
    }
}

/// Default bucket bounds for latency histograms in microseconds:
/// 50µs … 5s in roughly 1-2.5-5 steps.
pub const LATENCY_MICROS_BOUNDS: &[u64] = &[
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 5_000_000,
];

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SeriesKey {
    name: String,
    labels: Vec<(String, String)>,
}

#[derive(Debug, Clone)]
enum Series {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Series {
    fn type_name(&self) -> &'static str {
        match self {
            Series::Counter(_) => "counter",
            Series::Gauge(_) => "gauge",
            Series::Histogram(_) => "histogram",
        }
    }
}

/// A point-in-time view of one registered series, for programmatic
/// inspection (tests, health summaries).
#[derive(Debug, Clone)]
pub struct SeriesSnapshot {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// `"counter"`, `"gauge"`, or `"histogram"`.
    pub kind: &'static str,
    /// Counter value, gauge value (as u64-wrapped i64 would lose sign,
    /// so gauges report via [`SeriesSnapshot::gauge`]), or histogram
    /// count.
    pub value: u64,
    /// Signed value for gauges; 0 for other kinds.
    pub gauge: i64,
}

/// The sharded series registry. See the module docs for the interning
/// and hot-path contract.
#[derive(Debug)]
pub struct MetricsRegistry {
    shards: Vec<RwLock<HashMap<SeriesKey, Series>>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
        }
    }

    fn key(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
        assert!(valid_name(name), "invalid metric name: {name:?}");
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| {
                assert!(valid_name(k), "invalid label name: {k:?}");
                (k.to_string(), v.to_string())
            })
            .collect();
        labels.sort();
        labels.dedup_by(|a, b| a.0 == b.0);
        SeriesKey {
            name: name.to_string(),
            labels,
        }
    }

    fn shard_of(key: &SeriesKey) -> usize {
        // FNV-1a over the name + label pairs; stable across runs.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(key.name.as_bytes());
        for (k, v) in &key.labels {
            eat(b"\0");
            eat(k.as_bytes());
            eat(b"\0");
            eat(v.as_bytes());
        }
        (h as usize) % SHARDS
    }

    fn intern<F>(&self, key: SeriesKey, make: F) -> Series
    where
        F: FnOnce() -> Series,
    {
        let shard = &self.shards[Self::shard_of(&key)];
        if let Some(existing) = shard.read().get(&key) {
            return existing.clone();
        }
        let mut map = shard.write();
        map.entry(key).or_insert_with(make).clone()
    }

    /// Intern (or fetch) a counter series. Panics if the same series
    /// was already registered as a different type.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let key = Self::key(name, labels);
        match self.intern(key, || Series::Counter(Arc::new(Counter::default()))) {
            Series::Counter(c) => c,
            other => panic!(
                "series {name:?} already registered as {}",
                other.type_name()
            ),
        }
    }

    /// Intern (or fetch) a gauge series.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let key = Self::key(name, labels);
        match self.intern(key, || Series::Gauge(Arc::new(Gauge::default()))) {
            Series::Gauge(g) => g,
            other => panic!(
                "series {name:?} already registered as {}",
                other.type_name()
            ),
        }
    }

    /// Intern (or fetch) a histogram series with the given bucket
    /// bounds. Panics on a type mismatch or if re-registered with
    /// different bounds.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], bounds: &[u64]) -> Arc<Histogram> {
        let key = Self::key(name, labels);
        match self.intern(key, || Series::Histogram(Arc::new(Histogram::new(bounds)))) {
            Series::Histogram(h) => {
                assert!(
                    h.bounds() == bounds,
                    "series {name:?} already registered with different bounds"
                );
                h
            }
            other => panic!(
                "series {name:?} already registered as {}",
                other.type_name()
            ),
        }
    }

    /// Value of a counter series, or 0 if it was never registered.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let key = Self::key(name, labels);
        match self.shards[Self::shard_of(&key)].read().get(&key) {
            Some(Series::Counter(c)) => c.get(),
            _ => 0,
        }
    }

    /// Sum of every counter series with this name, across all label
    /// sets — e.g. total errors regardless of `reason`.
    pub fn counter_sum(&self, name: &str) -> u64 {
        let mut total = 0;
        for shard in &self.shards {
            for (key, series) in shard.read().iter() {
                if key.name == name {
                    if let Series::Counter(c) = series {
                        total += c.get();
                    }
                }
            }
        }
        total
    }

    /// Value of a gauge series, or 0 if never registered.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> i64 {
        let key = Self::key(name, labels);
        match self.shards[Self::shard_of(&key)].read().get(&key) {
            Some(Series::Gauge(g)) => g.get(),
            _ => 0,
        }
    }

    /// Number of distinct interned series.
    pub fn series_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Point-in-time snapshots of every series, sorted by
    /// `(name, labels)`.
    pub fn snapshot(&self) -> Vec<SeriesSnapshot> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for (key, series) in shard.read().iter() {
                let (kind, value, gauge) = match series {
                    Series::Counter(c) => ("counter", c.get(), 0),
                    Series::Gauge(g) => ("gauge", 0, g.get()),
                    Series::Histogram(h) => ("histogram", h.count(), 0),
                };
                out.push(SeriesSnapshot {
                    name: key.name.clone(),
                    labels: key.labels.clone(),
                    kind,
                    value,
                    gauge,
                });
            }
        }
        out.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        out
    }

    /// Render the Prometheus-style text exposition: one `# TYPE` line
    /// per metric name, series sorted by `(name, labels)`, label
    /// values escaped (`\` → `\\`, `"` → `\"`, newline → `\n`),
    /// histograms expanded into cumulative `_bucket{le=...}` series
    /// plus `_sum` and `_count`.
    pub fn render_text(&self) -> String {
        // Collect (key, series) pairs out of the shards, then sort.
        let mut entries: Vec<(SeriesKey, Series)> = Vec::new();
        for shard in &self.shards {
            for (key, series) in shard.read().iter() {
                entries.push((key.clone(), series.clone()));
            }
        }
        entries.sort_by(|a, b| (&a.0.name, &a.0.labels).cmp(&(&b.0.name, &b.0.labels)));

        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for (key, series) in &entries {
            if last_name != Some(key.name.as_str()) {
                let _ = writeln!(out, "# TYPE {} {}", key.name, series.type_name());
                last_name = Some(key.name.as_str());
            }
            match series {
                Series::Counter(c) => {
                    let _ = writeln!(
                        out,
                        "{}{} {}",
                        key.name,
                        render_labels(&key.labels, &[]),
                        c.get()
                    );
                }
                Series::Gauge(g) => {
                    let _ = writeln!(
                        out,
                        "{}{} {}",
                        key.name,
                        render_labels(&key.labels, &[]),
                        g.get()
                    );
                }
                Series::Histogram(h) => {
                    let counts = h.bucket_counts();
                    let mut cumulative = 0u64;
                    for (i, bound) in h.bounds().iter().enumerate() {
                        cumulative += counts[i];
                        let le = bound.to_string();
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            key.name,
                            render_labels(&key.labels, &[("le", &le)]),
                            cumulative
                        );
                    }
                    cumulative += counts[h.bounds().len()];
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {}",
                        key.name,
                        render_labels(&key.labels, &[("le", "+Inf")]),
                        cumulative
                    );
                    let _ = writeln!(
                        out,
                        "{}_sum{} {}",
                        key.name,
                        render_labels(&key.labels, &[]),
                        h.sum()
                    );
                    let _ = writeln!(
                        out,
                        "{}_count{} {}",
                        key.name,
                        render_labels(&key.labels, &[]),
                        h.count()
                    );
                }
            }
        }
        out
    }
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

fn render_labels(labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    for (k, v) in extra {
        parts.push(format!("{k}=\"{}\"", escape_label_value(v)));
    }
    format!("{{{}}}", parts.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counter_interned_once() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("hits_total", &[("shard", "0")]);
        let b = reg.counter("hits_total", &[("shard", "0")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(reg.counter_value("hits_total", &[("shard", "0")]), 3);
        assert_eq!(reg.series_count(), 1);
    }

    #[test]
    fn label_order_does_not_matter() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x_total", &[("a", "1"), ("b", "2")]);
        let b = reg.counter("x_total", &[("b", "2"), ("a", "1")]);
        a.inc();
        assert_eq!(b.get(), 1);
        assert_eq!(reg.series_count(), 1);
    }

    #[test]
    fn histogram_conservation() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat_micros", &[], &[10, 100, 1000]);
        for v in [1, 10, 11, 100, 5000, 0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), 6);
        assert_eq!(h.bucket_counts(), vec![3, 2, 0, 1]);
        assert_eq!(h.sum(), 1 + 10 + 11 + 100 + 5000);
    }

    #[test]
    fn quantile_picks_the_bucket_bound() {
        let observed = |values: Vec<u64>| {
            let h = Histogram::new(&[10, 100, 1000]);
            values.into_iter().for_each(|v| h.observe(v));
            h
        };
        let skewed = observed([vec![5; 98], vec![50, 500]].concat());
        assert_eq!(skewed.quantile(0.50), 10);
        assert_eq!(skewed.quantile(0.99), 100);
        assert_eq!(observed(vec![5_000; 5]).quantile(0.99), 1000);
        assert_eq!(observed(vec![]).quantile(0.99), 0);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_mismatch_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("mixed", &[]);
        let _ = reg.gauge("mixed", &[]);
    }

    #[test]
    fn concurrent_increments_are_lossless() {
        let reg = Arc::new(MetricsRegistry::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let reg = Arc::clone(&reg);
            handles.push(thread::spawn(move || {
                let c = reg.counter("spin_total", &[]);
                for _ in 0..10_000 {
                    c.inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.counter_value("spin_total", &[]), 80_000);
    }

    #[test]
    fn exposition_escapes_and_orders() {
        let reg = MetricsRegistry::new();
        reg.counter("b_total", &[("k", "line\nbreak\"quote\\slash")])
            .inc();
        reg.counter("a_total", &[]).add(5);
        let text = reg.render_text();
        let a_pos = text.find("a_total 5").unwrap();
        let b_pos = text.find("b_total{").unwrap();
        assert!(a_pos < b_pos);
        assert!(text.contains("k=\"line\\nbreak\\\"quote\\\\slash\""));
    }
}
