//! Threading support: scoped fan-out helpers and the [`WorkerPool`].
//!
//! Two shapes of concurrency live here:
//!
//! - **Scoped fan-out** ([`fan_out`], [`scope_fan_out`])
//!   over [`std::thread::scope`]: a fixed crew of workers that borrow
//!   from the caller's stack and join before returning, with results in
//!   deterministic task order. The pipeline's intra-request parallelism
//!   and the load generators are built on these.
//! - **The [`WorkerPool`]**: a fixed set of long-lived worker threads
//!   behind a *bounded* submission queue, with panic isolation and
//!   counters. The HTTP server's connection executor is built on it —
//!   the bounded queue is the backpressure knob that turns an overload
//!   burst into measurable 503s instead of unbounded thread growth.

use crate::sync::{Condvar, Mutex};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A conservative default width for CPU-bound fan-out: the machine's
/// available parallelism, capped at 8 (beyond that the workloads in
/// this repository are memory-bound), and at least 1.
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 8)
}

/// SplitMix64 over `(seed, index)`: stable across runs and platforms,
/// so a failing seed reproduces.
fn splitmix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `workers` copies of `work` concurrently, each receiving its
/// worker index, and returns the results in index order. Panics in a
/// worker propagate to the caller after all workers finish.
pub fn fan_out<T, F>(workers: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if workers == 0 {
        return Vec::new();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|index| {
                scope.spawn({
                    let work = &work;
                    move || work(index)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fan_out worker panicked"))
            .collect()
    })
}

/// Like [`fan_out`], but each worker first sleeps a deterministic
/// pseudo-random delay in `[0, max_stagger)` derived from `seed` and
/// its index. Sweeping the seed drives different arrival orders through
/// the code under test — a lightweight, dependency-free cousin of
/// loom-style schedule exploration, useful for smoking out ordering
/// bugs around locks and rendezvous points.
pub fn staggered_fan_out<T, F>(
    workers: usize,
    seed: u64,
    max_stagger: std::time::Duration,
    work: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let nanos = max_stagger.as_nanos() as u64;
    fan_out(workers, move |index| {
        if nanos > 0 {
            std::thread::sleep(std::time::Duration::from_nanos(
                splitmix(seed, index as u64) % nanos,
            ));
        }
        work(index)
    })
}

// ---------------------------------------------------------------------
// scope_fan_out: bounded-width fan-out with per-task panic isolation
// ---------------------------------------------------------------------

/// A task that panicked inside [`scope_fan_out`]; carries the task index
/// and the panic payload rendered as text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// Index of the task that panicked.
    pub task: usize,
    /// The panic payload (`&str`/`String` payloads verbatim, anything
    /// else a placeholder).
    pub message: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task {} panicked: {}", self.task, self.message)
    }
}

impl std::error::Error for TaskPanic {}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Runs `tasks` indexed tasks across at most `parallelism` scoped
/// worker threads and returns one entry per task, **in task order**
/// regardless of which worker ran which task or in what order they
/// finished. Workers claim task indices from a shared cursor
/// (work-stealing), so an expensive task does not serialize the cheap
/// ones behind it.
///
/// Each task runs under panic isolation: a panicking task becomes an
/// `Err(`[`TaskPanic`]`)` entry and the remaining tasks still run.
/// `parallelism <= 1` degenerates to a serial loop on the calling
/// thread (no threads spawned), which is the reference ordering the
/// parallel path is tested against.
pub fn scope_fan_out<T, F>(parallelism: usize, tasks: usize, work: F) -> Vec<Result<T, TaskPanic>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    scope_fan_out_staggered(parallelism, tasks, 0, Duration::ZERO, work)
}

/// [`scope_fan_out`] with a deterministic per-task start delay in
/// `[0, max_stagger)` derived from `seed` and the task index. Sweeping
/// the seed perturbs which worker claims which task and in what order
/// results land — the schedule-exploration hook the pipeline
/// determinism suite drives. `max_stagger == 0` adds no delay.
pub fn scope_fan_out_staggered<T, F>(
    parallelism: usize,
    tasks: usize,
    seed: u64,
    max_stagger: Duration,
    work: F,
) -> Vec<Result<T, TaskPanic>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if tasks == 0 {
        return Vec::new();
    }
    let stagger_nanos = max_stagger.as_nanos() as u64;
    let run_one = |index: usize| -> Result<T, TaskPanic> {
        if stagger_nanos > 0 {
            std::thread::sleep(Duration::from_nanos(
                splitmix(seed, index as u64) % stagger_nanos,
            ));
        }
        catch_unwind(AssertUnwindSafe(|| work(index))).map_err(|payload| TaskPanic {
            task: index,
            message: panic_message(payload),
        })
    };
    let width = parallelism.max(1).min(tasks);
    if width == 1 {
        return (0..tasks).map(run_one).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut ordered: Vec<Option<Result<T, TaskPanic>>> = (0..tasks).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..width)
            .map(|_| {
                scope.spawn(|| {
                    let mut ran = Vec::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        if index >= tasks {
                            break;
                        }
                        ran.push((index, run_one(index)));
                    }
                    ran
                })
            })
            .collect();
        for handle in handles {
            let ran = handle
                .join()
                .expect("fan-out worker panicked outside task isolation");
            for (index, result) in ran {
                ordered[index] = Some(result);
            }
        }
    });
    ordered
        .into_iter()
        .map(|slot| slot.expect("every task index claimed exactly once"))
        .collect()
}

// ---------------------------------------------------------------------
// WorkerPool: fixed workers, bounded queue, panic isolation
// ---------------------------------------------------------------------

/// Sizing for a [`WorkerPool`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolConfig {
    /// Number of long-lived worker threads.
    pub workers: usize,
    /// Maximum jobs waiting in the submission queue; submissions beyond
    /// this are rejected by [`WorkerPool::try_execute`]. The pending
    /// bound, not the concurrency bound — up to `workers` jobs execute
    /// on top of `queue_depth` waiting ones.
    pub queue_depth: usize,
    /// Thread-name prefix for the workers (`<name>-<index>`).
    pub name: String,
}

impl Default for PoolConfig {
    fn default() -> Self {
        let workers = default_parallelism();
        PoolConfig {
            workers,
            queue_depth: workers * 8,
            name: "msite-worker".to_string(),
        }
    }
}

/// Counters a [`WorkerPool`] accumulates over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs that finished executing (including panicked ones).
    pub completed: u64,
    /// Submissions rejected because the queue was full.
    pub rejected: u64,
    /// Jobs that panicked; the worker survived and kept serving.
    pub panicked: u64,
}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<Job>,
    active: usize,
    shutdown: bool,
    /// Desired worker count; `worker_loop` retires threads while
    /// `alive > target` and [`WorkerPool::resize`] spawns while
    /// `alive < target`.
    target: usize,
    /// Worker threads currently running their loop.
    alive: usize,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signaled when a job is queued or shutdown begins (workers wait).
    job_ready: Condvar,
    /// Signaled when queue space frees or a job completes (submitters
    /// blocked in `execute` and `wait_idle` wait).
    progress: Condvar,
    queue_depth: usize,
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    panicked: AtomicU64,
}

/// A fixed-size pool of long-lived worker threads behind a bounded
/// submission queue.
///
/// - **Bounded**: at most [`PoolConfig::queue_depth`] jobs wait;
///   [`try_execute`](WorkerPool::try_execute) hands a job back instead
///   of queueing it when the bound is hit, so callers can shed load
///   explicitly (the HTTP server answers 503).
/// - **Panic-isolated**: a panicking job is counted in
///   [`PoolStats::panicked`] and its worker keeps serving.
/// - **Draining shutdown**: [`shutdown`](WorkerPool::shutdown) (or
///   drop) lets queued jobs finish before the workers exit.
///
/// # Examples
///
/// ```
/// use msite_support::thread::{PoolConfig, WorkerPool};
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
///
/// let pool = WorkerPool::new(PoolConfig {
///     workers: 2,
///     queue_depth: 8,
///     name: "doc".into(),
/// });
/// let hits = Arc::new(AtomicUsize::new(0));
/// for _ in 0..4 {
///     let hits = Arc::clone(&hits);
///     pool.execute(move || {
///         hits.fetch_add(1, Ordering::Relaxed);
///     });
/// }
/// pool.wait_idle();
/// assert_eq!(hits.load(Ordering::Relaxed), 4);
/// ```
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    name: String,
    spawned: AtomicU64,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    /// Starts `config.workers` worker threads (at least one).
    pub fn new(config: PoolConfig) -> WorkerPool {
        let workers = config.workers.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                active: 0,
                shutdown: false,
                target: workers,
                alive: workers,
            }),
            job_ready: Condvar::new(),
            progress: Condvar::new(),
            queue_depth: config.queue_depth.max(1),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("{}-{index}", config.name))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            name: config.name,
            spawned: AtomicU64::new(workers as u64),
            handles: Mutex::new(handles),
        }
    }

    /// A pool of `workers` threads with the default queue depth
    /// (`workers * 8`).
    pub fn with_workers(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        WorkerPool::new(PoolConfig {
            workers,
            queue_depth: workers * 8,
            ..PoolConfig::default()
        })
    }

    /// Target number of worker threads (the width [`resize`] last set;
    /// retiring threads may briefly lag behind a shrink).
    ///
    /// [`resize`]: WorkerPool::resize
    pub fn workers(&self) -> usize {
        self.shared.state.lock().target
    }

    /// Worker threads currently running their loop. Tracks
    /// [`workers`](WorkerPool::workers) once in-flight grows/shrinks
    /// settle.
    pub fn alive(&self) -> usize {
        self.shared.state.lock().alive
    }

    /// Changes the worker count at runtime (clamped to at least one).
    ///
    /// Growing spawns the missing threads immediately; shrinking marks
    /// the excess for retirement — each surplus worker exits as soon as
    /// it is idle, so in-flight jobs always finish. No-op on a pool that
    /// is shutting down. Returns the effective target.
    pub fn resize(&self, workers: usize) -> usize {
        let target = workers.max(1);
        let spawn = {
            let mut state = self.shared.state.lock();
            if state.shutdown {
                return state.target;
            }
            state.target = target;
            let spawn = target.saturating_sub(state.alive);
            state.alive += spawn;
            spawn
        };
        if spawn > 0 {
            let mut handles = self.handles.lock();
            for _ in 0..spawn {
                let index = self.spawned.fetch_add(1, Ordering::Relaxed);
                let shared = Arc::clone(&self.shared);
                let handle = std::thread::Builder::new()
                    .name(format!("{}-{index}", self.name))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker");
                handles.push(handle);
            }
        } else {
            // Wake idle workers so surplus ones notice and retire.
            self.shared.job_ready.notify_all();
        }
        target
    }

    /// Maximum jobs the submission queue holds.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue_depth
    }

    /// Jobs currently waiting in the queue (not yet executing).
    pub fn queued(&self) -> usize {
        self.shared.state.lock().queue.len()
    }

    /// Jobs currently executing on workers.
    pub fn active(&self) -> usize {
        self.shared.state.lock().active
    }

    /// Lifetime counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            panicked: self.shared.panicked.load(Ordering::Relaxed),
        }
    }

    /// Queues `job` unless the queue is at capacity (or the pool is
    /// shutting down), in which case the job is handed back unchanged
    /// in `Err` so the caller can shed it explicitly.
    ///
    /// # Errors
    ///
    /// Returns `Err(job)` when the bounded queue is full or the pool is
    /// shutting down; the rejection is counted in
    /// [`PoolStats::rejected`].
    pub fn try_execute<F>(&self, job: F) -> Result<(), F>
    where
        F: FnOnce() + Send + 'static,
    {
        {
            let mut state = self.shared.state.lock();
            if state.shutdown || state.queue.len() >= self.shared.queue_depth {
                drop(state);
                self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(job);
            }
            state.queue.push_back(Box::new(job));
        }
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        self.shared.job_ready.notify_one();
        Ok(())
    }

    /// Queues `job`, blocking until queue space is available. Panics if
    /// called on a pool that is shutting down.
    pub fn execute<F>(&self, job: F)
    where
        F: FnOnce() + Send + 'static,
    {
        {
            let mut state = self.shared.state.lock();
            while state.queue.len() >= self.shared.queue_depth {
                assert!(!state.shutdown, "execute on a shutting-down pool");
                state = self.shared.progress.wait(state);
            }
            assert!(!state.shutdown, "execute on a shutting-down pool");
            state.queue.push_back(Box::new(job));
        }
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        self.shared.job_ready.notify_one();
    }

    /// Blocks until the queue is empty and no job is executing.
    pub fn wait_idle(&self) {
        let mut state = self.shared.state.lock();
        while !state.queue.is_empty() || state.active > 0 {
            state = self.shared.progress.wait(state);
        }
    }

    /// Stops accepting new jobs, lets queued jobs drain, and joins the
    /// workers. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut state = self.shared.state.lock();
            state.shutdown = true;
        }
        self.shared.job_ready.notify_all();
        self.shared.progress.notify_all();
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.handles.lock());
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers())
            .field("queue_depth", &self.shared.queue_depth)
            .field("stats", &self.stats())
            .finish()
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut state = shared.state.lock();
            loop {
                // Surplus workers (after a shrink) retire as soon as
                // they are idle; in-flight jobs always run to completion
                // because the check happens between jobs.
                if !state.shutdown && state.alive > state.target {
                    state.alive -= 1;
                    return;
                }
                if let Some(job) = state.queue.pop_front() {
                    state.active += 1;
                    break job;
                }
                if state.shutdown {
                    state.alive = state.alive.saturating_sub(1);
                    return;
                }
                state = shared.job_ready.wait(state);
            }
        };
        // Queue space just freed; unblock one blocked submitter.
        shared.progress.notify_all();
        let outcome = catch_unwind(AssertUnwindSafe(job));
        {
            let mut state = shared.state.lock();
            state.active -= 1;
        }
        if outcome.is_err() {
            shared.panicked.fetch_add(1, Ordering::Relaxed);
        }
        shared.completed.fetch_add(1, Ordering::Relaxed);
        shared.progress.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn fan_out_returns_in_order() {
        let results = fan_out(8, |i| i * 2);
        assert_eq!(results, vec![0, 2, 4, 6, 8, 10, 12, 14]);
    }

    #[test]
    fn fan_out_zero_workers() {
        let results: Vec<u32> = fan_out(0, |_| unreachable!());
        assert!(results.is_empty());
    }

    #[test]
    fn fan_out_borrows_caller_state() {
        let counter = AtomicUsize::new(0);
        fan_out(16, |_| counter.fetch_add(1, Ordering::Relaxed));
        assert_eq!(counter.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn staggered_fan_out_runs_every_worker() {
        let counter = AtomicUsize::new(0);
        let results = staggered_fan_out(6, 42, std::time::Duration::from_micros(200), |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(results, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(counter.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn staggered_fan_out_zero_stagger_degenerates_to_fan_out() {
        let results = staggered_fan_out(4, 7, std::time::Duration::ZERO, |i| i * 3);
        assert_eq!(results, vec![0, 3, 6, 9]);
    }

    #[test]
    fn scope_fan_out_orders_results_at_any_width() {
        for parallelism in [1, 2, 3, 8, 64] {
            let results: Vec<usize> = scope_fan_out(parallelism, 17, |i| i * i)
                .into_iter()
                .map(|r| r.unwrap())
                .collect();
            let expected: Vec<usize> = (0..17).map(|i| i * i).collect();
            assert_eq!(results, expected, "parallelism {parallelism}");
        }
    }

    #[test]
    fn scope_fan_out_zero_tasks() {
        let results: Vec<Result<u32, TaskPanic>> = scope_fan_out(4, 0, |_| unreachable!());
        assert!(results.is_empty());
    }

    #[test]
    fn scope_fan_out_isolates_panics() {
        let results = scope_fan_out(3, 6, |i| {
            if i == 2 {
                panic!("task two exploded");
            }
            i
        });
        for (i, result) in results.iter().enumerate() {
            if i == 2 {
                let panic = result.as_ref().unwrap_err();
                assert_eq!(panic.task, 2);
                assert!(panic.message.contains("exploded"));
            } else {
                assert_eq!(*result.as_ref().unwrap(), i);
            }
        }
    }

    #[test]
    fn scope_fan_out_serial_isolates_panics_too() {
        let results = scope_fan_out(1, 3, |i| {
            if i == 1 {
                panic!("serial panic");
            }
            i
        });
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        assert!(results[2].is_ok());
    }

    #[test]
    fn pool_runs_jobs_and_counts() {
        let pool = WorkerPool::with_workers(3);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let counter = Arc::clone(&counter);
            pool.execute(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 10);
        let stats = pool.stats();
        assert_eq!(stats.submitted, 10);
        assert_eq!(stats.completed, 10);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.panicked, 0);
    }

    #[test]
    fn pool_bounded_queue_rejects() {
        let pool = WorkerPool::new(PoolConfig {
            workers: 1,
            queue_depth: 1,
            name: "t".into(),
        });
        // Gate the single worker so the queue stays full.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let entered = Arc::new((Mutex::new(false), Condvar::new()));
        {
            let gate = Arc::clone(&gate);
            let entered = Arc::clone(&entered);
            pool.execute(move || {
                {
                    let (lock, cv) = &*entered;
                    *lock.lock() = true;
                    cv.notify_all();
                }
                let (lock, cv) = &*gate;
                let mut open = lock.lock();
                while !*open {
                    open = cv.wait(open);
                }
            });
        }
        // Wait until the blocker is actually executing (not queued).
        {
            let (lock, cv) = &*entered;
            let mut running = lock.lock();
            while !*running {
                running = cv.wait(running);
            }
        }
        pool.execute(|| {}); // fills the queue_depth=1 slot
        let rejected = pool.try_execute(|| {});
        assert!(rejected.is_err());
        assert_eq!(pool.stats().rejected, 1);
        // Open the gate; everything drains.
        {
            let (lock, cv) = &*gate;
            *lock.lock() = true;
            cv.notify_all();
        }
        pool.wait_idle();
        assert_eq!(pool.stats().completed, 2);
    }

    #[test]
    fn pool_survives_panicking_jobs() {
        let pool = WorkerPool::with_workers(2);
        for i in 0..6 {
            pool.execute(move || {
                if i % 2 == 0 {
                    panic!("job {i} panicked");
                }
            });
        }
        pool.wait_idle();
        let stats = pool.stats();
        assert_eq!(stats.completed, 6);
        assert_eq!(stats.panicked, 3);
        // Workers survived: the pool still runs jobs.
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        pool.execute(move || {
            c.fetch_add(1, Ordering::Relaxed);
        });
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn pool_shutdown_drains_queue() {
        let pool = WorkerPool::new(PoolConfig {
            workers: 1,
            queue_depth: 16,
            name: "drain".into(),
        });
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let counter = Arc::clone(&counter);
            pool.execute(move || {
                std::thread::sleep(Duration::from_millis(1));
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 8);
        // Post-shutdown submissions are rejected, not lost silently.
        assert!(pool.try_execute(|| {}).is_err());
    }

    #[test]
    fn pool_resize_grows_and_shrinks() {
        let pool = WorkerPool::new(PoolConfig {
            workers: 2,
            queue_depth: 64,
            name: "resize".into(),
        });
        assert_eq!(pool.workers(), 2);
        assert_eq!(pool.resize(6), 6);
        assert_eq!(pool.workers(), 6);
        // Grown width is real: six gated jobs all run concurrently.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let running = Arc::new(AtomicUsize::new(0));
        for _ in 0..6 {
            let gate = Arc::clone(&gate);
            let running = Arc::clone(&running);
            pool.execute(move || {
                running.fetch_add(1, Ordering::Relaxed);
                let (lock, cv) = &*gate;
                let mut open = lock.lock();
                while !*open {
                    open = cv.wait(open);
                }
            });
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while running.load(Ordering::Relaxed) < 6 {
            assert!(std::time::Instant::now() < deadline, "workers never grew");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(pool.active(), 6);
        {
            let (lock, cv) = &*gate;
            *lock.lock() = true;
            cv.notify_all();
        }
        pool.wait_idle();
        // Shrink: surplus idle workers retire.
        assert_eq!(pool.resize(1), 1);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.alive() > 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "workers never retired"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // The survivor still serves jobs.
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        pool.execute(move || {
            c.fetch_add(1, Ordering::Relaxed);
        });
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 1);
        // Resize clamps to at least one worker.
        assert_eq!(pool.resize(0), 1);
    }

    #[test]
    fn pool_resize_does_not_drop_in_flight_jobs() {
        let pool = WorkerPool::new(PoolConfig {
            workers: 4,
            queue_depth: 64,
            name: "shrink".into(),
        });
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..32 {
            let counter = Arc::clone(&counter);
            pool.execute(move || {
                std::thread::sleep(Duration::from_millis(1));
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.resize(1);
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 32);
        assert_eq!(pool.stats().completed, 32);
        pool.shutdown();
    }
}
