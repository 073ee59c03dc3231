//! Stampede regression suite for the render cache's single-flight
//! layer: concurrent misses on one key must collapse to exactly one
//! `produce()`, waiters must share the leader's result, and bounded
//! waiters must fall back to the stale window (or time out) instead of
//! blocking forever. A final seeded schedule-exploration smoke varies
//! thread arrival order to shake out interleaving-dependent bugs.

use msite::cache::{Flight, RenderCache};
use msite_support::bytes::Bytes;
use msite_support::thread::{fan_out, staggered_fan_out};
use std::convert::Infallible;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

const SEC: Duration = Duration::from_secs(1);

/// The artifact an unbounded, infallible flight settles with.
fn flight_value(flight: Flight<Infallible>) -> Bytes {
    match flight {
        Flight::Hit(value) | Flight::Led { value, .. } | Flight::Shared(value) => value,
        other => panic!("unbounded infallible flight settled as {other:?}"),
    }
}

/// The headline regression: N concurrent misses on the same key run
/// `produce()` exactly once, and every caller sees the same bytes.
#[test]
fn stampede_collapses_to_one_produce() {
    const N: usize = 16;
    let cache = RenderCache::new(64);
    let calls = AtomicUsize::new(0);
    let gate = Barrier::new(N);

    let results = fan_out(N, |_| {
        gate.wait();
        flight_value(cache.render_flight("page", Some(SEC * 60), None, || {
            calls.fetch_add(1, Ordering::SeqCst);
            // A deliberately slow render so every other thread
            // arrives while the flight is still in progress.
            std::thread::sleep(Duration::from_millis(80));
            Ok((b"rendered".to_vec().into(), Duration::from_millis(80)))
        }))
    });

    assert_eq!(
        calls.load(Ordering::SeqCst),
        1,
        "stampede: produce ran more than once"
    );
    for value in &results {
        assert_eq!(&value[..], b"rendered");
    }
    let stats = cache.stats();
    assert_eq!(stats.coalesced, (N - 1) as u64);
    assert_eq!(stats.misses, N as u64);
    assert_eq!(stats.hits, 0);
}

/// A waiter whose budget expires mid-flight is served the expired
/// entry from the stale window instead of blocking on the leader.
#[test]
fn expired_waiter_falls_back_to_stale() {
    let cache = RenderCache::with_stale_window(8, SEC * 60);
    cache.put("k", b"old".to_vec(), Some(SEC), SEC);
    cache.advance_clock(SEC * 10);

    std::thread::scope(|s| {
        let leader = s.spawn(|| {
            let out = cache.render_flight::<&'static str>("k", Some(SEC * 60), None, || {
                std::thread::sleep(Duration::from_millis(200));
                Ok((b"new".to_vec().into(), Duration::from_millis(200)))
            });
            assert!(matches!(out, Flight::Led { .. }));
        });
        let waiter = s.spawn(|| {
            // Arrive after the leader has registered the flight.
            while cache.in_flight() == 0 {
                std::thread::yield_now();
            }
            let start = Instant::now();
            let out = cache.render_flight::<&'static str>(
                "k",
                Some(SEC * 60),
                Some(Duration::from_millis(30)),
                || unreachable!("waiter must join the existing flight"),
            );
            assert!(
                start.elapsed() < Duration::from_millis(150),
                "waiter blocked past its budget"
            );
            match out {
                Flight::Stale { value, age } => {
                    assert_eq!(&value[..], b"old");
                    assert!(age >= SEC * 9, "stale age {age:?} lost the virtual clock");
                }
                other => panic!("expected stale fallback, got {other:?}"),
            }
        });
        leader.join().unwrap();
        waiter.join().unwrap();
    });
    assert!(cache.stats().stale_hits >= 1);
}

/// With nothing in the stale window, an expired wait budget reports
/// `TimedOut` rather than inventing output or blocking forever.
#[test]
fn expired_waiter_without_stale_entry_times_out() {
    let cache = RenderCache::new(8);
    std::thread::scope(|s| {
        let leader = s.spawn(|| {
            let out = cache.render_flight::<&'static str>("cold", Some(SEC * 60), None, || {
                std::thread::sleep(Duration::from_millis(200));
                Ok((b"v".to_vec().into(), Duration::from_millis(200)))
            });
            assert!(matches!(out, Flight::Led { .. }));
        });
        let waiter = s.spawn(|| {
            while cache.in_flight() == 0 {
                std::thread::yield_now();
            }
            let out = cache.render_flight::<&'static str>(
                "cold",
                Some(SEC * 60),
                Some(Duration::from_millis(30)),
                || unreachable!("waiter must join the existing flight"),
            );
            assert_eq!(out, Flight::TimedOut);
        });
        leader.join().unwrap();
        waiter.join().unwrap();
    });
}

/// A failed `produce()` caches nothing; the leader reports its own
/// error and every waiter receives a clone of it.
#[test]
fn leader_failure_propagates_to_waiters() {
    #[derive(Clone, Debug, PartialEq)]
    struct Boom;

    const N: usize = 4;
    let cache = RenderCache::new(8);
    let calls = AtomicUsize::new(0);
    let gate = Barrier::new(N);

    let results = fan_out(N, |_| {
        gate.wait();
        cache.render_flight::<Boom>("broken", Some(SEC * 60), None, || {
            calls.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(60));
            Err(Boom)
        })
    });

    assert_eq!(calls.load(Ordering::SeqCst), 1);
    for out in &results {
        assert_eq!(*out, Flight::Failed(Boom));
    }
    assert!(
        cache.get("broken").is_none(),
        "failed flight must cache nothing"
    );
    assert_eq!(
        cache.stats().coalesced,
        0,
        "failures are not shared successes"
    );
}

/// A leader that panics mid-produce must not strand its waiters: the
/// flight is torn down, one waiter is promoted to a fresh leader, and
/// the rest share the retry's result.
#[test]
fn abandoned_flight_recovers() {
    const N: usize = 4;
    let cache = RenderCache::new(8);
    let calls = AtomicUsize::new(0);
    let gate = Barrier::new(N);

    let results = fan_out(N, |_| {
        gate.wait();
        catch_unwind(AssertUnwindSafe(|| {
            flight_value(cache.render_flight("flaky", Some(SEC * 60), None, || {
                let n = calls.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(40));
                if n == 0 {
                    panic!("simulated renderer crash");
                }
                Ok((b"ok".to_vec().into(), Duration::from_millis(40)))
            }))
        }))
        .ok()
    });

    assert_eq!(
        calls.load(Ordering::SeqCst),
        2,
        "exactly one retry after the crash"
    );
    let crashed = results.iter().filter(|r| r.is_none()).count();
    assert_eq!(crashed, 1, "only the crashing leader propagates the panic");
    for value in results.iter().flatten() {
        assert_eq!(&value[..], b"ok");
    }
}

/// Seeded schedule exploration: replay the same two-key burst under
/// many staggered arrival orders. Whatever the interleaving, each key
/// renders at most once, every caller gets its key's bytes, and the
/// hit/miss ledger stays exact.
#[test]
fn schedule_exploration_smoke() {
    const WORKERS: usize = 8;
    for seed in 0..24u64 {
        let cache = RenderCache::new(64);
        let produced = AtomicUsize::new(0);
        let values = staggered_fan_out(WORKERS, seed, Duration::from_millis(2), |i| {
            let key = format!("k{}", i % 2);
            let want = format!("v{}", i % 2);
            let got = flight_value(cache.render_flight(&key, Some(SEC * 60), None, || {
                produced.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(5));
                Ok((want.clone().into_bytes().into(), Duration::from_millis(5)))
            }));
            (want, got)
        });
        for (want, got) in &values {
            assert_eq!(
                &got[..],
                want.as_bytes(),
                "seed {seed}: wrong bytes for key"
            );
        }
        let renders = produced.load(Ordering::SeqCst);
        assert!(
            (1..=2).contains(&renders),
            "seed {seed}: {renders} renders for two keys"
        );
        let stats = cache.stats();
        assert_eq!(
            stats.hits + stats.misses,
            WORKERS as u64,
            "seed {seed}: ledger does not reconcile"
        );
    }
}
