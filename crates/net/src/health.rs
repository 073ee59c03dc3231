//! Health-driven adaptive capacity: a control loop that samples the
//! telemetry registry and steers the serving substrate at runtime.
//!
//! A statically sized worker pool faces a surge with two bad options:
//! shed blindly or drown. The [`HealthMonitor`] samples the signals
//! every server already publishes — executor queue length, queue-wait
//! p99, overload-shed rate, circuit-breaker churn — on a deterministic,
//! test-controllable clock ([`HealthMonitor::tick`] is explicit; the
//! optional [`HealthMonitor::spawn`] driver just calls it on an
//! interval) and actuates three knobs within configured bounds:
//!
//! - **Worker width**: [`WorkerPool::resize`] between `min_workers` and
//!   `max_workers` — grow one step per unhealthy tick, shrink one step
//!   after `hysteresis` consecutive healthy ticks (asymmetric on
//!   purpose: reacting fast and relaxing slowly avoids oscillation).
//! - **Shed threshold**: the accept loop's queue cutoff tightens while
//!   overloaded (shed early, keep latency bounded) and relaxes back.
//! - **Stale-serve aggressiveness**: a registered hook receives a
//!   multiplier; the proxy widens its render cache's stale window under
//!   duress so degraded-but-instant answers replace renders.
//!
//! Every decision is published as `msite_health_*` series so `/metrics`
//! and `/healthz` tell the same story the controller acted on.

use crate::resilience::BREAKER_TRANSITIONS_METRIC;
use msite_support::sync::Mutex;
use msite_support::telemetry::metrics::MetricsRegistry;
use msite_support::thread::WorkerPool;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Bounds and setpoints for the [`HealthMonitor`] control loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// Sampling period of the background driver ([`HealthMonitor::spawn`]).
    pub interval: Duration,
    /// Lower bound for the worker width.
    pub min_workers: usize,
    /// Upper bound for the worker width.
    pub max_workers: usize,
    /// Queue occupancy (fraction of the shed threshold) above which a
    /// tick counts as overloaded.
    pub queue_high: f64,
    /// Queue occupancy below which a tick counts as healthy.
    pub queue_low: f64,
    /// Queue-wait p99 (microseconds) above which a tick counts as
    /// overloaded even with a shallow queue.
    pub p99_high_micros: u64,
    /// Consecutive healthy ticks required before stepping capacity back
    /// down (scale-up needs only one unhealthy tick).
    pub hysteresis: u32,
    /// Stale-window multiplier applied while overloaded (1 = disabled).
    pub stale_boost: u32,
    /// Fraction of the hard queue bound the shed threshold tightens to
    /// while overloaded.
    pub shed_tighten: f64,
    /// Session-store occupancy (`msite_session_live` over
    /// `msite_session_max`) at or above which a tick is at least
    /// degraded: the store still serves (evicting LRU per admission),
    /// but long-idle users are losing their jars. Session pressure
    /// never scales workers — the store is bounded by design, more
    /// threads would not help — it only taints the health verdict.
    pub session_high: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            interval: Duration::from_millis(250),
            min_workers: 2,
            max_workers: 32,
            queue_high: 0.75,
            queue_low: 0.25,
            p99_high_micros: 250_000,
            hysteresis: 3,
            stale_boost: 4,
            shed_tighten: 0.5,
            session_high: 0.9,
        }
    }
}

/// The controller's verdict for one tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// All signals below their low-water marks.
    Healthy,
    /// Between the low and high marks — hold the current capacity.
    Degraded,
    /// A signal crossed its high mark — scale up and defend.
    Overloaded,
}

impl HealthState {
    /// Stable token for metrics/JSON.
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Overloaded => "overloaded",
        }
    }

    fn code(self) -> i64 {
        match self {
            HealthState::Healthy => 0,
            HealthState::Degraded => 1,
            HealthState::Overloaded => 2,
        }
    }
}

/// What one [`HealthMonitor::tick`] observed and did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthDecision {
    /// Verdict for this tick.
    pub state: HealthState,
    /// Queue occupancy sampled, as a fraction of the shed threshold.
    pub queue_fraction: f64,
    /// Queue-wait p99 estimate in microseconds.
    pub p99_micros: u64,
    /// Overload sheds since the previous tick.
    pub shed_delta: u64,
    /// Breaker transitions since the previous tick.
    pub breaker_delta: u64,
    /// Session-store occupancy sampled (live / max), 0 when no store
    /// publishes the `msite_session_*` gauges into this registry.
    pub session_fraction: f64,
    /// Worker width after actuation.
    pub workers: usize,
    /// Shed threshold after actuation.
    pub shed_threshold: usize,
    /// Stale-window multiplier after actuation.
    pub stale_factor: u32,
}

struct ControlState {
    healthy_streak: u32,
    last_shed: u64,
    last_breaker: u64,
    stale_factor: u32,
    baseline_shed_threshold: usize,
}

/// Hook invoked with the stale-window multiplier whenever it changes
/// (the proxy maps it onto its render cache).
pub type StaleHook = Arc<dyn Fn(u32) + Send + Sync>;

/// The adaptive-capacity controller. See the module docs for the loop.
///
/// Construction wires the actuators; [`tick`](HealthMonitor::tick) is
/// the whole control loop, deterministic and directly callable from
/// tests. [`spawn`](HealthMonitor::spawn) runs it on a wall-clock
/// interval for real deployments.
pub struct HealthMonitor {
    config: HealthConfig,
    registry: Arc<MetricsRegistry>,
    pool: Arc<WorkerPool>,
    shed_threshold: Arc<AtomicUsize>,
    stale_hook: Option<StaleHook>,
    state: Mutex<ControlState>,
    stop: Arc<AtomicBool>,
    driver: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl HealthMonitor {
    /// Wires a monitor to a server's executor (`pool`,
    /// `shed_threshold` — see [`crate::server::HttpServer::pool`] and
    /// [`crate::server::HttpServer::shed_threshold`]) and the registry
    /// it samples from and publishes to.
    pub fn new(
        config: HealthConfig,
        registry: Arc<MetricsRegistry>,
        pool: Arc<WorkerPool>,
        shed_threshold: Arc<AtomicUsize>,
    ) -> HealthMonitor {
        let baseline = shed_threshold.load(Ordering::Relaxed).max(1);
        let monitor = HealthMonitor {
            config,
            registry,
            pool,
            shed_threshold,
            stale_hook: None,
            state: Mutex::new(ControlState {
                healthy_streak: 0,
                last_shed: 0,
                last_breaker: 0,
                stale_factor: 1,
                baseline_shed_threshold: baseline,
            }),
            stop: Arc::new(AtomicBool::new(false)),
            driver: Mutex::new(None),
        };
        monitor.publish_gauges(monitor.pool.workers(), baseline, 1, HealthState::Healthy);
        monitor
    }

    /// Registers the stale-aggressiveness hook (called with the current
    /// multiplier on every change; the proxy widens its cache's stale
    /// window by it).
    #[must_use]
    pub fn with_stale_hook(mut self, hook: StaleHook) -> HealthMonitor {
        self.stale_hook = Some(hook);
        self
    }

    /// The config this monitor enforces.
    pub fn config(&self) -> &HealthConfig {
        &self.config
    }

    /// Runs one deliberation of the control loop: sample, classify,
    /// actuate, publish. Deterministic — tests drive it directly.
    pub fn tick(&self) -> HealthDecision {
        let queue_len = self
            .registry
            .gauge_value("msite_server_queue_len", &[])
            .max(0) as u64;
        let shed_total = self
            .registry
            .counter_value("msite_server_rejected_overload_total", &[]);
        let breaker_total = self.registry.counter_sum(BREAKER_TRANSITIONS_METRIC);
        let p99 = self
            .registry
            .histogram(
                "msite_server_queue_wait_micros",
                &[],
                msite_support::telemetry::metrics::LATENCY_MICROS_BOUNDS,
            )
            .quantile(0.99);
        // Session pressure: occupancy of the bounded session store, as
        // published by a proxy sharing this registry.
        let session_live = self.registry.gauge_value("msite_session_live", &[]).max(0);
        let session_max = self.registry.gauge_value("msite_session_max", &[]).max(0);
        let session_fraction = if session_max > 0 {
            session_live as f64 / session_max as f64
        } else {
            0.0
        };

        let mut state = self.state.lock();
        let shed_delta = shed_total.saturating_sub(state.last_shed);
        state.last_shed = shed_total;
        let breaker_delta = breaker_total.saturating_sub(state.last_breaker);
        state.last_breaker = breaker_total;

        let threshold = self.shed_threshold.load(Ordering::Relaxed).max(1);
        let queue_fraction = queue_len as f64 / threshold as f64;

        let overloaded = queue_fraction >= self.config.queue_high
            || p99 >= self.config.p99_high_micros
            || shed_delta > 0
            || breaker_delta > 0;
        let session_pressure = session_fraction >= self.config.session_high;
        let healthy = !overloaded
            && queue_fraction <= self.config.queue_low
            && p99 < self.config.p99_high_micros
            && !session_pressure;
        let verdict = if overloaded {
            HealthState::Overloaded
        } else if healthy {
            HealthState::Healthy
        } else {
            HealthState::Degraded
        };

        let workers = self.pool.workers();
        let (new_workers, scale) = match verdict {
            HealthState::Overloaded => {
                state.healthy_streak = 0;
                // One multiplicative step up per unhealthy tick.
                let grown = (workers + workers.div_ceil(2))
                    .clamp(self.config.min_workers, self.config.max_workers);
                (grown, i64::from(grown > workers))
            }
            HealthState::Degraded => {
                state.healthy_streak = 0;
                (
                    workers.clamp(self.config.min_workers, self.config.max_workers),
                    0,
                )
            }
            HealthState::Healthy => {
                state.healthy_streak = state.healthy_streak.saturating_add(1);
                if state.healthy_streak >= self.config.hysteresis {
                    state.healthy_streak = 0;
                    let shrunk = (workers.saturating_sub(workers.div_ceil(4).max(1)))
                        .clamp(self.config.min_workers, self.config.max_workers);
                    (shrunk, -i64::from(shrunk < workers))
                } else {
                    (
                        workers.clamp(self.config.min_workers, self.config.max_workers),
                        0,
                    )
                }
            }
        };
        if new_workers != workers {
            self.pool.resize(new_workers);
        }

        // Shed threshold: tighten while overloaded, restore otherwise.
        let baseline = state.baseline_shed_threshold;
        let new_threshold = if verdict == HealthState::Overloaded {
            ((baseline as f64 * self.config.shed_tighten) as usize).max(1)
        } else {
            baseline
        };
        self.shed_threshold.store(new_threshold, Ordering::Relaxed);

        // Stale aggressiveness: boost while overloaded, restore when
        // fully healthy (degraded keeps the last setting).
        let new_factor = match verdict {
            HealthState::Overloaded => self.config.stale_boost.max(1),
            HealthState::Healthy => 1,
            HealthState::Degraded => state.stale_factor,
        };
        if new_factor != state.stale_factor {
            state.stale_factor = new_factor;
            if let Some(hook) = &self.stale_hook {
                hook(new_factor);
            }
        }
        drop(state);

        self.registry.counter("msite_health_ticks_total", &[]).inc();
        if scale > 0 {
            self.registry
                .counter("msite_health_scale_ups_total", &[])
                .inc();
        } else if scale < 0 {
            self.registry
                .counter("msite_health_scale_downs_total", &[])
                .inc();
        }
        self.publish_gauges(new_workers, new_threshold, new_factor, verdict);
        self.registry
            .gauge("msite_health_session_permille", &[])
            .set((session_fraction * 1000.0) as i64);

        HealthDecision {
            state: verdict,
            queue_fraction,
            p99_micros: p99,
            shed_delta,
            breaker_delta,
            session_fraction,
            workers: new_workers,
            shed_threshold: new_threshold,
            stale_factor: new_factor,
        }
    }

    fn publish_gauges(
        &self,
        workers: usize,
        threshold: usize,
        stale_factor: u32,
        state: HealthState,
    ) {
        self.registry
            .gauge("msite_health_workers_target", &[])
            .set(workers as i64);
        self.registry
            .gauge("msite_server_workers", &[])
            .set(workers as i64);
        self.registry
            .gauge("msite_health_shed_threshold", &[])
            .set(threshold as i64);
        self.registry
            .gauge("msite_health_stale_factor", &[])
            .set(i64::from(stale_factor));
        self.registry
            .gauge("msite_health_state", &[])
            .set(state.code());
    }

    /// Starts a background driver calling [`tick`](HealthMonitor::tick)
    /// every `config.interval`. Idempotent; stopped by
    /// [`stop`](HealthMonitor::stop) or drop.
    pub fn spawn(self: &Arc<Self>) {
        let mut driver = self.driver.lock();
        if driver.is_some() {
            return;
        }
        let monitor = Arc::clone(self);
        let stop = Arc::clone(&self.stop);
        let interval = self.config.interval.max(Duration::from_millis(10));
        *driver = Some(
            std::thread::Builder::new()
                .name("msite-health".into())
                .spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        monitor.tick();
                        std::thread::sleep(interval);
                    }
                })
                .expect("spawn health driver"),
        );
    }

    /// Stops the background driver (if running) and joins it.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.driver.lock().take() {
            let _ = handle.join();
        }
    }
}

impl Drop for HealthMonitor {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for HealthMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthMonitor")
            .field("config", &self.config)
            .field("workers", &self.pool.workers())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msite_support::thread::PoolConfig;

    fn harness(config: HealthConfig) -> (Arc<MetricsRegistry>, HealthMonitor) {
        let registry = Arc::new(MetricsRegistry::new());
        let pool = Arc::new(WorkerPool::new(PoolConfig {
            workers: config.min_workers,
            queue_depth: 16,
            name: "health-test".into(),
        }));
        let threshold = Arc::new(AtomicUsize::new(16));
        let monitor = HealthMonitor::new(config, Arc::clone(&registry), pool, threshold);
        (registry, monitor)
    }

    fn test_config() -> HealthConfig {
        HealthConfig {
            min_workers: 2,
            max_workers: 8,
            hysteresis: 2,
            ..HealthConfig::default()
        }
    }

    #[test]
    fn quiet_system_stays_at_minimum() {
        let (_registry, monitor) = harness(test_config());
        for _ in 0..5 {
            let decision = monitor.tick();
            assert_eq!(decision.state, HealthState::Healthy);
            assert_eq!(decision.workers, 2);
            assert_eq!(decision.stale_factor, 1);
        }
    }

    #[test]
    fn deep_queue_scales_up_and_tightens_shed() {
        let (registry, monitor) = harness(test_config());
        registry.gauge("msite_server_queue_len", &[]).set(14);
        let decision = monitor.tick();
        assert_eq!(decision.state, HealthState::Overloaded);
        assert!(decision.workers > 2, "grew: {decision:?}");
        assert!(decision.shed_threshold < 16, "tightened: {decision:?}");
        assert_eq!(decision.stale_factor, 4);
        assert_eq!(
            registry.counter_value("msite_health_scale_ups_total", &[]),
            1
        );
        assert_eq!(registry.gauge_value("msite_health_state", &[]), 2);
    }

    #[test]
    fn shed_burst_alone_triggers_overload() {
        let (registry, monitor) = harness(test_config());
        monitor.tick(); // baseline
        registry
            .counter("msite_server_rejected_overload_total", &[])
            .add(5);
        let decision = monitor.tick();
        assert_eq!(decision.state, HealthState::Overloaded);
        assert_eq!(decision.shed_delta, 5);
    }

    #[test]
    fn recovery_steps_down_only_after_hysteresis() {
        let (registry, monitor) = harness(test_config());
        registry.gauge("msite_server_queue_len", &[]).set(14);
        let grown = monitor.tick().workers;
        assert!(grown > 2);
        registry.gauge("msite_server_queue_len", &[]).set(0);
        // First healthy tick: hold (streak 1 < hysteresis 2).
        let hold = monitor.tick();
        assert_eq!(hold.state, HealthState::Healthy);
        assert_eq!(hold.workers, grown);
        assert_eq!(hold.shed_threshold, 16, "shed threshold restored");
        assert_eq!(hold.stale_factor, 1, "stale boost lifted");
        // Second healthy tick: step down.
        let shrunk = monitor.tick();
        assert!(shrunk.workers < grown, "stepped down: {shrunk:?}");
        assert_eq!(
            registry.counter_value("msite_health_scale_downs_total", &[]),
            1
        );
    }

    #[test]
    fn stale_hook_sees_boost_and_restore() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let (registry, monitor) = harness(test_config());
        let monitor = monitor.with_stale_hook(Arc::new(move |factor| {
            seen2.lock().push(factor);
        }));
        registry.gauge("msite_server_queue_len", &[]).set(14);
        monitor.tick();
        registry.gauge("msite_server_queue_len", &[]).set(0);
        monitor.tick();
        assert_eq!(*seen.lock(), vec![4, 1]);
    }

    #[test]
    fn session_pressure_degrades_without_scaling() {
        let (registry, monitor) = harness(test_config());
        registry.gauge("msite_session_live", &[]).set(95);
        registry.gauge("msite_session_max", &[]).set(100);
        let decision = monitor.tick();
        // Session pressure taints health but never grows workers (the
        // store is bounded by design; threads would not help).
        assert_eq!(decision.state, HealthState::Degraded);
        assert!(decision.session_fraction > 0.9);
        assert_eq!(decision.workers, 2);
        assert_eq!(
            registry.gauge_value("msite_health_session_permille", &[]),
            950
        );
        // Pressure released: healthy again.
        registry.gauge("msite_session_live", &[]).set(10);
        let decision = monitor.tick();
        assert_eq!(decision.state, HealthState::Healthy);
    }

    #[test]
    fn absent_session_gauges_read_as_no_pressure() {
        let (registry, monitor) = harness(test_config());
        let decision = monitor.tick();
        assert_eq!(decision.state, HealthState::Healthy);
        assert_eq!(decision.session_fraction, 0.0);
        assert_eq!(
            registry.gauge_value("msite_health_session_permille", &[]),
            0
        );
    }

    #[test]
    fn breaker_churn_counts_as_duress() {
        let (registry, monitor) = harness(test_config());
        monitor.tick();
        registry
            .counter(BREAKER_TRANSITIONS_METRIC, &[("host", "x"), ("to", "open")])
            .inc();
        let decision = monitor.tick();
        assert_eq!(decision.state, HealthState::Overloaded);
        assert_eq!(decision.breaker_delta, 1);
    }
}
