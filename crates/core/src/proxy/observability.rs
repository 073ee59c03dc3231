//! Stats/telemetry views and the scrape endpoints.
//!
//! [`ProxyStats`] is a read-back view over the proxy's metrics
//! registry; [`ProxyMetrics`] holds the pre-interned handles the hot
//! path bumps. The caches, the disk tier and the session store count
//! into the same registry as events happen, so `/metrics` renders the
//! registry and does nothing else. The observability endpoints
//! (`/metrics`, `/healthz`, `/trace/<id>`) are answered before any
//! request counter or trace id moves, so scraping never perturbs the
//! numbers being scraped.

use super::ProxyServer;
use crate::error::{ProxyError, DEGRADED_HEADER};
use crate::pipeline::PipelineReport;
use msite_net::resilience::BreakerState;
use msite_net::{Request, Response, Url};
use msite_support::bytes::Bytes;
use msite_support::telemetry::{
    metrics::LATENCY_MICROS_BOUNDS, Counter, Histogram, Telemetry, Trace,
};
use std::sync::Arc;

/// Proxy request counters: every field is read back from the proxy's
/// metrics registry (`msite_proxy_*` series; `sessions_created`,
/// `renders_coalesced`, `subtrees_*` and `overload_rejections` read the
/// session store's, the render cache's, the subtree cache's and the
/// serving tier's series), so [`ProxyStats`] and a `/metrics` scrape
/// can never disagree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProxyStats {
    /// Requests handled.
    pub requests: u64,
    /// Requests that needed a full browser render (snapshot rebuilds,
    /// per-user pipeline runs with pre-render attributes).
    pub full_renders: u64,
    /// Requests satisfied by the lightweight scripted path alone.
    pub lightweight: u64,
    /// Origin sub-requests issued.
    pub origin_fetches: u64,
    /// Sessions created (`msite_session_created_total`).
    pub sessions_created: u64,
    /// Requests answered with a [`ProxyError`] response.
    pub failures: u64,
    /// Requests answered with stale cache content because the origin
    /// was unavailable (serve-stale degradation).
    pub stale_served: u64,
    /// Renders served by a fallback engine after the requested engine
    /// failed.
    pub engine_fallbacks: u64,
    /// Requests that shared another request's in-flight render instead
    /// of launching their own (single-flight coalescing): the render
    /// cache's `msite_cache_coalesced_total`.
    pub renders_coalesced: u64,
    /// Connections the serving tier shed with `503` +
    /// `x-msite-error: overloaded` because the executor's bounded queue
    /// was full. The rejected connections never reach the proxy's
    /// request handler: this reads the HTTP server's
    /// `msite_server_rejected_overload_total` counter, which a server
    /// sharing this proxy's [`Telemetry`] updates directly.
    pub overload_rejections: u64,
    /// Subpage artifacts served from the fingerprint-keyed subtree
    /// cache during an entry rebuild (incremental re-adaptation).
    pub subtrees_reused: u64,
    /// Subpage artifacts that had to be re-assembled (and, for
    /// pre-rendered subpages, re-rendered) because their fingerprints
    /// changed or were never cached.
    pub subtrees_recomputed: u64,
    /// Entry responses delivered progressively (chunked).
    pub streamed_responses: u64,
}

/// Pre-interned registry handles for the proxy's hot path: every
/// counter bump below is a single relaxed atomic op.
pub(super) struct ProxyMetrics {
    pub(super) requests: Arc<Counter>,
    pub(super) full_renders: Arc<Counter>,
    pub(super) lightweight: Arc<Counter>,
    pub(super) origin_fetches: Arc<Counter>,
    pub(super) stale_served: Arc<Counter>,
    pub(super) engine_fallbacks: Arc<Counter>,
    /// The serving tier's shed counter — the *same* series an
    /// `HttpServer` sharing this registry increments.
    pub(super) overload_rejections: Arc<Counter>,
    pub(super) streamed_responses: Arc<Counter>,
    /// The `/render/image` path's PNG encodes; pipeline runs add theirs
    /// to the same series.
    pub(super) png_encodes: Arc<Counter>,
    pub(super) png_encode_micros: Arc<Counter>,
    pub(super) request_micros: Arc<Histogram>,
    /// Time from request arrival to the first flushed entry chunk
    /// (progressive delivery) or to the complete response (batch).
    pub(super) ttfb_micros: Arc<Histogram>,
}

impl ProxyMetrics {
    pub(super) fn new(telemetry: &Telemetry) -> ProxyMetrics {
        let m = &telemetry.metrics;
        ProxyMetrics {
            request_micros: m.histogram("msite_proxy_request_micros", &[], LATENCY_MICROS_BOUNDS),
            ttfb_micros: m.histogram("msite_proxy_ttfb_micros", &[], LATENCY_MICROS_BOUNDS),
            requests: m.counter("msite_proxy_requests_total", &[]),
            full_renders: m.counter("msite_proxy_full_renders_total", &[]),
            lightweight: m.counter("msite_proxy_lightweight_total", &[]),
            origin_fetches: m.counter("msite_proxy_origin_fetches_total", &[]),
            stale_served: m.counter("msite_proxy_stale_served_total", &[]),
            engine_fallbacks: m.counter("msite_proxy_engine_fallbacks_total", &[]),
            overload_rejections: m.counter("msite_server_rejected_overload_total", &[]),
            streamed_responses: m.counter("msite_proxy_streamed_responses_total", &[]),
            png_encodes: m.counter("msite_png_encodes_total", &[]),
            png_encode_micros: m.counter("msite_png_encode_micros", &[]),
        }
    }
}

/// Publishes per-stage pipeline timings into a registry's
/// `msite_stage_micros{stage=...}` histograms. Cold path: only entry
/// builds (not cache hits) get here. Free function so an entry build,
/// which can outlive the `&self` borrow, publishes through its own
/// registry handle.
pub(super) fn publish_stage_timings_to(
    metrics: &msite_support::telemetry::MetricsRegistry,
    report: &PipelineReport,
) {
    for stage in &report.stages {
        metrics
            .histogram(
                "msite_stage_micros",
                &[("stage", stage.kind.name())],
                LATENCY_MICROS_BOUNDS,
            )
            .observe(stage.elapsed.as_micros() as u64);
    }
}

impl ProxyServer {
    /// Counters so far — a view reconstructed from the registry.
    pub fn stats(&self) -> ProxyStats {
        let subtrees = self.subtrees.stats();
        ProxyStats {
            requests: self.metrics.requests.get(),
            full_renders: self.metrics.full_renders.get(),
            lightweight: self.metrics.lightweight.get(),
            origin_fetches: self.metrics.origin_fetches.get(),
            sessions_created: self.sessions.stats().created,
            failures: self
                .telemetry
                .metrics
                .counter_sum("msite_proxy_errors_total"),
            stale_served: self.metrics.stale_served.get(),
            engine_fallbacks: self.metrics.engine_fallbacks.get(),
            renders_coalesced: self.cache.stats().coalesced,
            overload_rejections: self.metrics.overload_rejections.get(),
            subtrees_reused: subtrees.hits,
            subtrees_recomputed: subtrees.misses,
            streamed_responses: self.metrics.streamed_responses.get(),
        }
    }

    /// Routes the observability endpoints — `GET /metrics`,
    /// `GET /healthz`, `GET /trace/<id>` — which are answered before
    /// any request counter or trace id moves, so scraping never
    /// perturbs the numbers being scraped. Returns `None` for ordinary
    /// proxy traffic.
    pub(super) fn handle_observability(&self, request: &Request) -> Option<Response> {
        let path = request.url.path();
        match path {
            "/metrics" => Some(self.serve_metrics()),
            "/healthz" => Some(self.serve_healthz()),
            _ => path.strip_prefix("/trace/").map(|id| self.serve_trace(id)),
        }
    }

    /// `GET /metrics`: the registry's stable text exposition.
    fn serve_metrics(&self) -> Response {
        let text = self.telemetry.metrics.render_text();
        Response::bytes(
            "text/plain; version=0.0.4; charset=utf-8",
            Bytes::from(text.into_bytes()),
        )
    }

    /// `GET /healthz`: breaker + pool + cache summary. `200` with
    /// `"status":"ok"` when healthy; `200` + `x-msite-degraded` when
    /// the origin breaker is not closed; `503` + `x-msite-error:
    /// overloaded` when the serving tier's queue is at its depth.
    fn serve_healthz(&self) -> Response {
        use crate::error::ERROR_HEADER;
        let m = &self.telemetry.metrics;
        let host = Url::parse(&self.spec.page_url)
            .map(|u| u.host().to_string())
            .unwrap_or_default();
        let breaker = self.origin.breaker_state(&host);
        let queue_len = m.gauge_value("msite_server_queue_len", &[]);
        let queue_depth = m.gauge_value("msite_server_queue_depth", &[]);
        let overloaded = queue_depth > 0 && queue_len >= queue_depth;
        // Session pressure: a full store is still serving (evicting
        // LRU per admission), but it is degraded service — long-idle
        // users are losing their jars.
        let session_stats = self.sessions.stats();
        let session_max = self.sessions.config().max_sessions as u64;
        let sessions_full = session_stats.live >= session_max;
        let degraded = breaker != BreakerState::Closed || sessions_full;
        let status = if overloaded {
            "overloaded"
        } else if degraded {
            "degraded"
        } else {
            "ok"
        };
        let cache = self.cache.stats();
        // Durability summary: absent (`null`) when the cache is
        // memory-only, so probes can tell "no tier" from "idle tier".
        let disk = match self.cache.disk_stats() {
            Some(d) => format!(
                "{{\"hits\":{},\"puts\":{},\"put_errors\":{},\"quarantined\":{},\
                 \"warm_loaded\":{},\"live_bytes\":{}}}",
                d.hits,
                d.puts,
                d.put_errors,
                d.quarantined,
                self.cache.warm_loaded(),
                d.live_bytes,
            ),
            None => "null".to_string(),
        };
        // Health-monitor view: gauges a HealthMonitor sharing this
        // telemetry publishes each tick; all zero when none is attached.
        let health = format!(
            "{{\"state\":{},\"workers_target\":{},\"shed_threshold\":{},\"stale_factor\":{},\
             \"session_permille\":{}}}",
            m.gauge_value("msite_health_state", &[]),
            m.gauge_value("msite_health_workers_target", &[]),
            m.gauge_value("msite_health_shed_threshold", &[]),
            m.gauge_value("msite_health_stale_factor", &[]),
            m.gauge_value("msite_health_session_permille", &[]),
        );
        // Session-store pressure summary: occupancy against the bound,
        // budgeted bytes, and total involuntary evictions.
        let sessions = format!(
            "{{\"live\":{},\"max\":{session_max},\"fs_bytes\":{},\"fs_budget\":{},\
             \"evicted\":{},\"tenants\":{}}}",
            session_stats.live,
            self.fs.session_bytes(),
            self.sessions.config().fs_byte_budget,
            session_stats.evicted_total(),
            self.sessions.tenant_occupancy().len(),
        );
        let body = format!(
            "{{\"status\":\"{status}\",\
             \"breaker\":{{\"host\":\"{host}\",\"state\":\"{}\"}},\
             \"pool\":{{\"queue_len\":{queue_len},\"queue_depth\":{queue_depth},\"workers\":{}}},\
             \"cache\":{{\"hits\":{},\"misses\":{},\"stale_hits\":{},\"coalesced\":{}}},\
             \"disk\":{disk},\
             \"health\":{health},\
             \"sessions\":{sessions}}}",
            breaker.name(),
            m.gauge_value("msite_server_workers", &[]),
            cache.hits,
            cache.misses,
            cache.stale_hits,
            cache.coalesced,
        );
        let mut response = Response::bytes("application/json", Bytes::from(body.into_bytes()));
        if overloaded {
            response.status = msite_net::Status::SERVICE_UNAVAILABLE;
            response.headers.set(ERROR_HEADER, "overloaded");
        } else if breaker != BreakerState::Closed {
            response.headers.set(
                DEGRADED_HEADER,
                &format!("breaker; host={host}; state={}", breaker.name()),
            );
        } else if sessions_full {
            response.headers.set(
                DEGRADED_HEADER,
                &format!("sessions; live={}; max={session_max}", session_stats.live),
            );
        }
        response
    }

    /// `GET /trace/<id>`: the retained spans for one trace id as a
    /// JSON array, oldest first; `404` when the id is unknown (or has
    /// aged out of the ring).
    fn serve_trace(&self, id: &str) -> Response {
        let spans = Trace::parse_id(id)
            .map(|id| self.telemetry.trace_log.spans_for(id))
            .unwrap_or_default();
        if spans.is_empty() {
            return ProxyError::NotFound { what: "trace" }.into_response();
        }
        let body = format!(
            "[{}]",
            spans
                .iter()
                .map(|s| s.to_json())
                .collect::<Vec<_>>()
                .join(",")
        );
        Response::bytes("application/json", Bytes::from(body.into_bytes()))
    }
}
