//! Property tests for the worker-pool layer: fan-out result ordering,
//! panic isolation, bounded-queue rejection, and counter conservation,
//! across randomized task counts, widths, and panic sets.

use msite_support::prop;
use msite_support::thread::{scope_fan_out, scope_fan_out_staggered, PoolConfig, WorkerPool};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

#[test]
fn fan_out_preserves_task_order_at_any_width() {
    prop::check("fan-out result order", 64, 0x0F4A_0001, |g| {
        let tasks = g.range_usize(0, 24);
        let width = g.range_usize(1, 8);
        let seed = g.u64();
        let results =
            scope_fan_out_staggered(width, tasks, seed, Duration::from_micros(200), |i| i * 3);
        assert_eq!(results.len(), tasks);
        for (index, result) in results.into_iter().enumerate() {
            assert_eq!(result.expect("no task panics here"), index * 3);
        }
    });
}

#[test]
fn fan_out_isolates_panics_to_their_task() {
    prop::check("fan-out panic isolation", 48, 0x0F4A_0002, |g| {
        let tasks = g.range_usize(1, 16);
        let width = g.range_usize(1, 6);
        let panicking: HashSet<usize> = (0..tasks).filter(|_| g.bool()).collect();
        let results = scope_fan_out(width, tasks, |i| {
            if panicking.contains(&i) {
                panic!("task {i} exploded");
            }
            i
        });
        assert_eq!(results.len(), tasks);
        for (index, result) in results.into_iter().enumerate() {
            if panicking.contains(&index) {
                let err = result.expect_err("panicking task must yield Err");
                assert_eq!(err.task, index);
                assert_eq!(err.message, format!("task {index} exploded"));
            } else {
                assert_eq!(result.expect("healthy task must yield Ok"), index);
            }
        }
    });
}

#[test]
fn every_task_runs_exactly_once() {
    prop::check("fan-out exactly-once", 48, 0x0F4A_0003, |g| {
        let tasks = g.range_usize(0, 32);
        let width = g.range_usize(1, 8);
        let runs = AtomicUsize::new(0);
        let results = scope_fan_out(width, tasks, |_| {
            runs.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(results.len(), tasks);
        assert_eq!(runs.load(Ordering::SeqCst), tasks);
    });
}

#[test]
fn bounded_queue_rejects_exactly_the_overflow() {
    prop::check("bounded-queue rejection", 24, 0x0F4A_0004, |g| {
        let workers = g.range_usize(1, 3);
        let queue_depth = g.range_usize(1, 4);
        let extra = g.range_usize(1, 6);
        let pool = WorkerPool::new(PoolConfig {
            workers,
            queue_depth,
            name: "prop-pool".into(),
        });
        // Park every worker on a barrier so nothing drains the queue.
        let gate = Arc::new(Barrier::new(workers + 1));
        let parked = Arc::new(AtomicUsize::new(0));
        for _ in 0..workers {
            let gate = Arc::clone(&gate);
            let parked = Arc::clone(&parked);
            pool.execute(move || {
                parked.fetch_add(1, Ordering::SeqCst);
                gate.wait();
            });
        }
        while parked.load(Ordering::SeqCst) < workers {
            std::thread::yield_now();
        }
        // Now fill the queue exactly, then overflow it.
        let mut accepted = 0;
        let mut rejected = 0;
        for _ in 0..queue_depth + extra {
            match pool.try_execute(|| {}) {
                Ok(()) => accepted += 1,
                Err(_) => rejected += 1,
            }
        }
        assert_eq!(accepted, queue_depth);
        assert_eq!(rejected, extra);
        assert_eq!(pool.stats().rejected, extra as u64);
        // Release the workers; everything accepted must complete.
        gate.wait();
        pool.wait_idle();
        let stats = pool.stats();
        assert_eq!(stats.submitted, (workers + queue_depth) as u64);
        assert_eq!(stats.completed, stats.submitted);
        pool.shutdown();
    });
}

#[test]
fn pool_counters_conserve_under_mixed_panics() {
    prop::check("pool counter conservation", 16, 0x0F4A_0005, |g| {
        let workers = g.range_usize(1, 4);
        let jobs = g.range_usize(1, 24);
        let panics: HashSet<usize> = (0..jobs).filter(|_| g.bool()).collect();
        let pool = WorkerPool::new(PoolConfig {
            workers,
            queue_depth: jobs.max(1),
            name: "prop-panic".into(),
        });
        for i in 0..jobs {
            let boom = panics.contains(&i);
            pool.execute(move || {
                if boom {
                    panic!("job {i}");
                }
            });
        }
        pool.wait_idle();
        let stats = pool.stats();
        assert_eq!(stats.submitted, jobs as u64);
        assert_eq!(stats.completed, jobs as u64);
        assert_eq!(stats.panicked, panics.len() as u64);
        // Workers survived every panic: the pool still runs new jobs.
        let ran = Arc::new(AtomicUsize::new(0));
        let ran2 = Arc::clone(&ran);
        pool.execute(move || {
            ran2.fetch_add(1, Ordering::SeqCst);
        });
        pool.wait_idle();
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        pool.shutdown();
    });
}
