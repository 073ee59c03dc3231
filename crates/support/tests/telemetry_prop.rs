//! Property tests for the telemetry layer: counter monotonicity under
//! concurrency, histogram bucket-count conservation, label-interning
//! idempotence, and span ring-buffer bounds, across randomized
//! workloads on the seeded `prop` runners.

use msite_support::prop;
use msite_support::telemetry::{MetricsRegistry, SpanRecord, Trace, TraceIdSeq, TraceLog};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn counters_are_monotonic_and_lossless_under_concurrency() {
    prop::check("counter monotonicity", 24, 0x7E1E_0001, |g| {
        let registry = Arc::new(MetricsRegistry::new());
        let counter = registry.counter("prop_events_total", &[]);
        let threads = g.range_usize(1, 8);
        let per_thread: Vec<Vec<u64>> = (0..threads)
            .map(|_| g.vec(0, 64, |g| g.range_u64(0, 100)))
            .collect();
        let expected: u64 = per_thread.iter().flatten().sum();

        // A reader polls concurrently with the writers: every observed
        // value must be >= the previous one (monotonicity is visible,
        // not just eventual).
        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let counter = Arc::clone(&counter);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut last = 0;
                while !stop.load(Ordering::Acquire) {
                    let now = counter.get();
                    assert!(now >= last, "counter went backwards: {last} -> {now}");
                    last = now;
                }
            })
        };
        std::thread::scope(|scope| {
            for increments in &per_thread {
                let counter = Arc::clone(&counter);
                scope.spawn(move || {
                    for &n in increments {
                        counter.add(n);
                    }
                });
            }
        });
        stop.store(true, Ordering::Release);
        reader.join().unwrap();

        assert_eq!(counter.get(), expected, "no increment may be lost");
        assert_eq!(
            registry.counter_value("prop_events_total", &[]),
            expected,
            "the registry view and the handle are the same atomic"
        );
    });
}

#[test]
fn histogram_conserves_bucket_counts_and_sum() {
    prop::check("histogram conservation", 32, 0x7E1E_0003, |g| {
        let registry = MetricsRegistry::new();
        // Random strictly-increasing bounds.
        let mut bounds: Vec<u64> = Vec::new();
        let mut next = 0;
        for _ in 0..g.range_usize(1, 8) {
            next += g.range_u64(1, 1_000);
            bounds.push(next);
        }
        let histogram = registry.histogram("prop_latency", &[], &bounds);
        let observations: Vec<Vec<u64>> = (0..g.range_usize(1, 6))
            .map(|_| g.vec(0, 200, |g| g.range_u64(0, 2 * next)))
            .collect();
        std::thread::scope(|scope| {
            for batch in &observations {
                let histogram = Arc::clone(&histogram);
                scope.spawn(move || {
                    for &v in batch {
                        histogram.observe(v);
                    }
                });
            }
        });

        let total: u64 = observations.iter().map(|b| b.len() as u64).sum();
        let counts = histogram.bucket_counts();
        assert_eq!(counts.len(), bounds.len() + 1, "one overflow bucket");
        assert_eq!(
            counts.iter().sum::<u64>(),
            total,
            "every observation lands in exactly one bucket"
        );
        assert_eq!(histogram.count(), total);
        assert_eq!(
            histogram.sum(),
            observations.iter().flatten().sum::<u64>(),
            "sum is conserved under concurrent observes"
        );
        // Each observation landed in the first bucket whose bound holds it.
        for (i, bound) in bounds.iter().enumerate() {
            let expected = observations
                .iter()
                .flatten()
                .filter(|&&v| v <= *bound && (i == 0 || v > bounds[i - 1]))
                .count() as u64;
            assert_eq!(counts[i], expected, "bucket {i} (le {bound})");
        }
    });
}

#[test]
fn label_interning_is_idempotent_and_order_insensitive() {
    prop::check("label interning", 64, 0x7E1E_0004, |g| {
        let registry = MetricsRegistry::new();
        // A random label set, registered repeatedly in random orders:
        // always the same series, counted once.
        let labels: Vec<(String, String)> = {
            let count = g.range_usize(0, 4);
            let mut seen = Vec::new();
            for i in 0..count {
                seen.push((format!("k{i}"), g.ascii_string(6)));
            }
            seen
        };
        let lookups = g.range_usize(1, 12);
        for _ in 0..lookups {
            let mut shuffled: Vec<(&str, &str)> = labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            // Fisher-Yates over the generator keeps the shuffle seeded.
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, g.range_usize(0, i + 1));
            }
            registry.counter("prop_interned_total", &shuffled).inc();
        }
        assert_eq!(registry.series_count(), 1, "one series for one label set");
        let canonical: Vec<(&str, &str)> = labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        assert_eq!(
            registry.counter_value("prop_interned_total", &canonical),
            lookups as u64,
            "every lookup order resolved to the same atomic"
        );
    });
}

#[test]
fn span_ring_is_bounded_and_drops_oldest_first() {
    prop::check("span ring bounds", 48, 0x7E1E_0005, |g| {
        let capacity = g.range_usize(1, 64);
        let log = TraceLog::new(capacity);
        let pushed = g.range_usize(0, 160);
        for i in 0..pushed {
            log.push(SpanRecord {
                trace_id: i as u64 + 1,
                name: format!("span{i}"),
                start: Duration::from_micros(i as u64),
                elapsed: Duration::from_micros(1),
                fields: Vec::new(),
            });
        }
        assert!(log.len() <= capacity, "ring exceeded its bound");
        assert_eq!(log.len(), pushed.min(capacity));
        assert_eq!(
            log.dropped(),
            pushed.saturating_sub(capacity) as u64,
            "every eviction is counted"
        );
        // Survivors are exactly the newest `capacity` spans: the oldest
        // retained id is pushed - len + 1, the newest is pushed.
        if pushed > 0 {
            let oldest = (pushed - log.len() + 1) as u64;
            assert!(log.spans_for(pushed as u64).len() == 1);
            if oldest > 1 {
                assert!(log.spans_for(oldest - 1).is_empty(), "evicted span leaked");
            }
            assert_eq!(log.spans_for(oldest).len(), 1);
        }
    });
}

#[test]
fn trace_ids_are_deterministic_per_seed_and_never_zero() {
    prop::check("trace id determinism", 64, 0x7E1E_0006, |g| {
        let seed = g.u64();
        let count = g.range_usize(1, 64);
        let a = TraceIdSeq::new(seed);
        let b = TraceIdSeq::new(seed);
        let ids_a: Vec<u64> = (0..count).map(|_| a.next_id()).collect();
        let ids_b: Vec<u64> = (0..count).map(|_| b.next_id()).collect();
        assert_eq!(ids_a, ids_b, "same seed must replay the same ids");
        assert!(ids_a.iter().all(|&id| id != 0), "0 is the 'no trace' id");
        // Ids round-trip through the header encoding.
        for &id in &ids_a {
            let log = Arc::new(TraceLog::new(4));
            let trace = Trace::new(id, log);
            assert_eq!(Trace::parse_id(&trace.id_hex()), Some(id));
        }
    });
}
