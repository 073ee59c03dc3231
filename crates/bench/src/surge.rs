//! The adaptive-capacity experiment: under the same surge (same client
//! count, window, and pacing) a server whose [`HealthMonitor`] steers
//! the worker pool must serve strictly more requests than the
//! identically-configured static server.
//!
//! This is a timing claim, so it is gated in release builds only, by
//! `experiments -- surge`.

use msite_net::{
    http_get, HealthConfig, HealthMonitor, HttpServer, OriginRef, Request, Response, ServerConfig,
    Status,
};
use msite_support::json::{obj, ToJson, Value};
use msite_support::telemetry::Telemetry;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Concurrent clients in the surge.
pub const SURGE_CLIENTS: usize = 16;
/// Duration each surge arm runs at full offered load.
pub const SURGE_WINDOW: Duration = Duration::from_millis(800);
/// Simulated origin service time per request.
pub const ORIGIN_DELAY: Duration = Duration::from_millis(4);

/// One arm of the surge comparison (identical offered load).
#[derive(Debug, Clone)]
pub struct SurgeArm {
    /// Requests the clients attempted during the window.
    pub attempts: u64,
    /// Requests answered by the origin.
    pub served: u64,
    /// Requests shed with `503 overloaded`.
    pub shed: u64,
    /// Health-loop scale-up actuations (0 for the static arm).
    pub scale_ups: u64,
    /// Worker width when the window closed.
    pub final_workers: usize,
}

/// Outcome of the adaptive-vs-static surge.
#[derive(Debug, Clone)]
pub struct SurgeResult {
    /// The fixed-width baseline.
    pub static_arm: SurgeArm,
    /// The health-monitored arm.
    pub adaptive_arm: SurgeArm,
}

impl SurgeResult {
    /// Throughput multiple of adaptive over static.
    pub fn speedup(&self) -> f64 {
        if self.static_arm.served == 0 {
            return f64::INFINITY;
        }
        self.adaptive_arm.served as f64 / self.static_arm.served as f64
    }
}

/// Runs one surge arm: a deliberately narrow server (2 workers, queue 8)
/// against [`SURGE_CLIENTS`] closed-loop clients for [`SURGE_WINDOW`].
/// The adaptive arm attaches a fast-ticking [`HealthMonitor`] that may
/// widen the pool up to 32 workers; the static arm keeps width 2.
fn run_surge_arm(adaptive: bool) -> SurgeArm {
    let origin: OriginRef = Arc::new(|_req: &Request| {
        std::thread::sleep(ORIGIN_DELAY);
        Response::html("<p>served</p>")
    });
    let telemetry = Telemetry::new();
    let server = HttpServer::bind_with_telemetry(
        "127.0.0.1:0",
        origin,
        ServerConfig {
            workers: 2,
            queue_depth: 8,
        },
        telemetry.clone(),
    )
    .expect("ephemeral bind");
    let monitor = adaptive.then(|| {
        let monitor = Arc::new(HealthMonitor::new(
            HealthConfig {
                interval: Duration::from_millis(15),
                min_workers: 2,
                max_workers: 32,
                ..HealthConfig::default()
            },
            Arc::clone(&telemetry.metrics),
            server.pool(),
            server.shed_threshold(),
        ));
        monitor.spawn();
        monitor
    });

    let addr = server.addr();
    let stop_at = Instant::now() + SURGE_WINDOW;
    let clients: Vec<_> = (0..SURGE_CLIENTS)
        .map(|i| {
            std::thread::spawn(move || {
                let mut attempts = 0u64;
                while Instant::now() < stop_at {
                    attempts += 1;
                    let shed = http_get(&format!("http://{addr}/surge{i}"))
                        .map(|r| r.status == Status::SERVICE_UNAVAILABLE)
                        .unwrap_or(true);
                    if shed {
                        // Back off instead of hammering the shed path,
                        // so both arms offer comparable load.
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                attempts
            })
        })
        .collect();
    let attempts: u64 = clients
        .into_iter()
        .map(|c| c.join().expect("surge client"))
        .sum();
    if let Some(monitor) = &monitor {
        monitor.stop();
    }
    let registry = &telemetry.metrics;
    let arm = SurgeArm {
        attempts,
        served: registry.counter_value("msite_server_served_total", &[]),
        shed: registry.counter_value("msite_server_rejected_overload_total", &[]),
        scale_ups: registry.counter_value("msite_health_scale_ups_total", &[]),
        final_workers: server.pool().workers(),
    };
    server.shutdown();
    arm
}

/// Runs the surge comparison: static first, then adaptive, at equal
/// offered load.
pub fn run() -> SurgeResult {
    SurgeResult {
        static_arm: run_surge_arm(false),
        adaptive_arm: run_surge_arm(true),
    }
}

/// The gate: the static arm is overloaded, the adaptive arm scales up,
/// and adaptive capacity strictly out-serves static under the same
/// surge.
pub fn check_shape(surge: &SurgeResult) -> Result<(), String> {
    if surge.adaptive_arm.scale_ups == 0 {
        return Err("adaptive arm never scaled up; the surge did not bite".into());
    }
    if surge.adaptive_arm.served <= surge.static_arm.served {
        return Err(format!(
            "adaptive served {} <= static {} at equal offered load",
            surge.adaptive_arm.served, surge.static_arm.served
        ));
    }
    if surge.static_arm.shed == 0 {
        return Err("static arm shed nothing; the surge never exceeded capacity".into());
    }
    Ok(())
}

impl ToJson for SurgeArm {
    fn to_json_value(&self) -> Value {
        obj([
            ("attempts", self.attempts.to_json_value()),
            ("served", self.served.to_json_value()),
            ("shed", self.shed.to_json_value()),
            ("scale_ups", self.scale_ups.to_json_value()),
            ("final_workers", self.final_workers.to_json_value()),
        ])
    }
}

impl ToJson for SurgeResult {
    fn to_json_value(&self) -> Value {
        obj([
            ("static", self.static_arm.to_json_value()),
            ("adaptive", self.adaptive_arm.to_json_value()),
            ("speedup", self.speedup().to_json_value()),
        ])
    }
}
