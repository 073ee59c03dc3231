//! The multi-session m.Site proxy server.
//!
//! This is the artifact the paper's code generator produces: a
//! lightweight proxy, colocated with the origin, that "handles user
//! session authentication, cookie jars, and high-level session
//! administration", fetches origin pages on behalf of mobile clients,
//! runs the adaptation pipeline, writes per-user subpages into protected
//! session directories, serves a shared cached snapshot, satisfies
//! rewritten AJAX calls, and proxies form posts back to the origin.
//!
//! It implements [`Origin`](msite_net::Origin), so it can be composed
//! in-process for benchmarks or served over real TCP by
//! `msite_net::HttpServer`.
//!
//! The module tree mirrors the request path: `routing` dispatches,
//! `entry` builds and serves the shared entry page (batch or chunked),
//! `handlers` build and serve the per-user artifacts, and
//! `observability` holds the stats/telemetry views and scrape
//! endpoints.
//!
//! # Observability
//!
//! Every counter the proxy keeps lives in a
//! [`MetricsRegistry`](msite_support::telemetry::MetricsRegistry)
//! (shareable with the HTTP server and resilience layer through
//! [`ProxyConfig::telemetry`]); [`ProxyStats`] is a view over it. Each
//! request gets a seeded-deterministic trace id, carried on the
//! response in the `x-msite-trace` header; pipeline stages, cache
//! flights, resilience events, and (over TCP) the server worker hop
//! record timed spans under that id. Three endpoints expose the state:
//! `GET /metrics` (text exposition), `GET /healthz` (breaker + pool +
//! cache summary), and `GET /trace/<id>` (the request's spans). The
//! observability endpoints are answered before any counter moves, so
//! scraping never perturbs the numbers being scraped.
//!
//! # Resilience
//!
//! Every origin fetch goes through a [`ResilientOrigin`]: bounded
//! retries with seeded jittered backoff, a per-request deadline budget
//! shared with the adaptation pipeline, and a per-host circuit breaker.
//! When the origin (or its breaker) makes the entry page unbuildable,
//! the proxy degrades to the last rendered snapshot still inside the
//! cache's stale window — marked with a `Warning` header — instead of
//! answering 5xx per request; the stale copy is replaced by the next
//! successful rebuild. Failures are classified by
//! [`ProxyError`](crate::error::ProxyError) and counted in
//! [`ProxyStats`].

mod config;
mod entry;
mod handlers;
mod observability;
mod routing;
#[cfg(test)]
mod tests;

pub use config::{PersistConfig, ProxyConfig, DEFAULT_PERSIST_CAPACITY_BYTES};
pub use entry::STREAM_HEADER;
pub use observability::ProxyStats;

use crate::ajax::AjaxRegistry;
use crate::attributes::AdaptationSpec;
use crate::cache::{RenderCache, SubtreeCache};
use crate::dsl;
use crate::engine::EngineRegistry;
use crate::pipeline::{PipelineContext, PipelineReport};
use crate::session::{
    SessionFs, SessionStore, SessionStoreConfig, SessionStoreStats, DEFAULT_TENANT,
};
use msite_net::resilience::{BreakerState, ResilienceStats, ResilientOrigin};
use msite_net::{OriginRef, Url};
use msite_support::sync::Mutex;
use msite_support::telemetry::{Telemetry, Trace, TraceIdSeq};
use observability::ProxyMetrics;
use std::collections::HashMap;
use std::sync::Arc;

pub(crate) struct UserBundle {
    ajax: AjaxRegistry,
    auth_subpages: Vec<String>,
}

/// The generated multi-session proxy for one adapted page.
pub struct ProxyServer {
    spec: AdaptationSpec,
    origin: Arc<ResilientOrigin>,
    /// Sharded, bounded session store — possibly shared with other
    /// tenant proxies through [`ProxyConfig::session_store`].
    sessions: Arc<SessionStore>,
    /// Tenant label for this proxy's sessions: the origin site's host.
    tenant: String,
    // Arc'd so a streamed entry build (which runs on the transport
    // writer after `handle` returns) can own handles to the stores it
    // fills progressively.
    fs: Arc<SessionFs>,
    cache: Arc<RenderCache>,
    subtrees: Arc<SubtreeCache>,
    config: ProxyConfig,
    telemetry: Telemetry,
    metrics: ProxyMetrics,
    trace_ids: TraceIdSeq,
    shared_ajax: Arc<Mutex<Option<AjaxRegistry>>>,
    // Arc'd so the session store's eviction hook can drop a victim's
    // bundle without borrowing the proxy.
    user_bundles: Arc<Mutex<HashMap<String, Arc<UserBundle>>>>,
    wants_cookie_clear: Arc<Mutex<bool>>,
    engines: EngineRegistry,
    last_entry_report: Arc<Mutex<Option<PipelineReport>>>,
}

impl ProxyServer {
    /// Creates a proxy for `spec`, forwarding to `origin` through the
    /// configured resilience policy (retries, deadline, breaker).
    pub fn new(spec: AdaptationSpec, origin: OriginRef, config: ProxyConfig) -> ProxyServer {
        let telemetry = config.telemetry.clone().unwrap_or_default();
        let registry = &telemetry.metrics;
        let disk = config.persist.as_ref().map(|persist| {
            Arc::new(crate::persist::DiskTier::open_with_metrics(
                Arc::clone(&persist.backend),
                crate::persist::DiskTierConfig::with_capacity(persist.capacity_bytes),
                registry,
            ))
        });
        let cache =
            RenderCache::with_metrics(config.cache_capacity, config.stale_window, disk, registry);
        // Session store: private (default bounds) unless the embedder
        // passed its own, which counts into the registry it was built
        // with.
        let sessions = match &config.session_store {
            Some(store) => Arc::clone(store),
            None => Arc::new(SessionStore::with_metrics(
                SessionStoreConfig {
                    seed: config.seed,
                    ..SessionStoreConfig::default()
                },
                Arc::new(SessionFs::with_metrics(registry)),
                Arc::clone(registry),
            )),
        };
        let tenant = Url::parse(&spec.page_url)
            .map(|u| u.host().to_string())
            .unwrap_or_else(|_| DEFAULT_TENANT.to_string());
        // When the store evicts a session, drop its per-user bundle
        // too; the hook runs outside store locks.
        let user_bundles: Arc<Mutex<HashMap<String, Arc<UserBundle>>>> =
            Arc::new(Mutex::new(HashMap::new()));
        {
            let bundles = Arc::clone(&user_bundles);
            sessions.add_evict_hook(Arc::new(move |id: &str| {
                bundles.lock().remove(id);
            }));
        }
        ProxyServer {
            fs: Arc::clone(sessions.fs()),
            sessions,
            tenant,
            cache: Arc::new(cache),
            subtrees: Arc::new(SubtreeCache::with_metrics(
                config.subtree_cache_capacity,
                registry,
            )),
            metrics: ProxyMetrics::new(&telemetry),
            trace_ids: TraceIdSeq::new(config.seed ^ 0x0074_7261_6365), // "trace"
            shared_ajax: Arc::new(Mutex::new(None)),
            user_bundles,
            wants_cookie_clear: Arc::new(Mutex::new(false)),
            engines: EngineRegistry::with_builtins(),
            last_entry_report: Arc::new(Mutex::new(None)),
            origin: Arc::new(ResilientOrigin::with_metrics(
                origin,
                config.resilience.clone(),
                Arc::clone(&telemetry.metrics),
            )),
            telemetry,
            spec,
            config,
        }
    }

    /// Registers an additional rendering engine (the paper's "pluggable
    /// content adaptation system ... extended with multiple rendering
    /// engines"). Later registrations shadow built-ins by name.
    pub fn register_engine(&mut self, engine: Box<dyn crate::engine::RenderEngine>) {
        self.engines.register(engine);
    }

    /// Names of the available rendering engines.
    pub fn engine_names(&self) -> Vec<&str> {
        self.engines.names()
    }

    /// Loads a proxy from generated DSL script text — the deployment
    /// path: the admin tool writes the script, the server runs it.
    ///
    /// # Errors
    ///
    /// Returns the script parse error.
    pub fn from_script(
        script: &str,
        origin: OriginRef,
        config: ProxyConfig,
    ) -> Result<ProxyServer, dsl::ParseScriptError> {
        Ok(ProxyServer::new(dsl::parse_script(script)?, origin, config))
    }

    /// URL prefix this proxy serves, e.g. `/m/forum`.
    pub fn base(&self) -> String {
        format!("/m/{}", self.spec.page_id)
    }

    /// The adaptation spec in effect.
    pub fn spec(&self) -> &AdaptationSpec {
        &self.spec
    }

    /// The telemetry handle (registry + trace ring) this proxy
    /// publishes into — pass the same handle to
    /// `HttpServer::bind_with_telemetry` so serving-tier counters and
    /// worker spans land in the same place.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Retry/breaker/deadline counters from the resilient fetch layer.
    pub fn resilience_stats(&self) -> ResilienceStats {
        self.origin.stats()
    }

    /// The circuit-breaker state for an origin host (the spec's origin
    /// host unless AJAX actions fan out elsewhere).
    pub fn breaker_state(&self, host: &str) -> BreakerState {
        self.origin.breaker_state(host)
    }

    /// The shared render cache (amortization accounting lives here).
    pub fn cache(&self) -> &RenderCache {
        &self.cache
    }

    /// A [`StaleHook`](msite_net::StaleHook) mapping the health
    /// monitor's stale-window multiplier onto this proxy's render
    /// cache: factor 1 restores the configured window, higher factors
    /// widen it so more expired artifacts stay servable under duress.
    pub fn stale_window_hook(&self) -> msite_net::StaleHook {
        let cache = Arc::clone(&self.cache);
        let base = self.config.stale_window;
        Arc::new(move |factor: u32| cache.set_stale_window(base * factor.max(1)))
    }

    /// Builds a [`HealthMonitor`](msite_net::HealthMonitor) closing the
    /// control loop over `server` (which must share this proxy's
    /// [`Telemetry`]): queue depth, queue-wait p99, shed rate, and
    /// breaker churn drive the server's worker width and shed
    /// threshold, and the stale hook drives this proxy's stale-serve
    /// aggressiveness. Call [`spawn`](msite_net::HealthMonitor::spawn)
    /// on the result for a wall-clock driver, or
    /// [`tick`](msite_net::HealthMonitor::tick) it deterministically.
    pub fn health_monitor(
        &self,
        server: &msite_net::HttpServer,
        config: msite_net::HealthConfig,
    ) -> Arc<msite_net::HealthMonitor> {
        Arc::new(
            msite_net::HealthMonitor::new(
                config,
                Arc::clone(&self.telemetry.metrics),
                server.pool(),
                server.shed_threshold(),
            )
            .with_stale_hook(self.stale_window_hook()),
        )
    }

    /// The fingerprint-keyed subtree artifact cache backing incremental
    /// re-adaptation.
    pub fn subtree_cache(&self) -> &SubtreeCache {
        &self.subtrees
    }

    /// The pipeline report from the most recent shared entry rebuild,
    /// including how many concurrent requests that run's output was
    /// shared with ([`PipelineReport::coalesced_waiters`]). `None`
    /// before the first build.
    pub fn last_entry_report(&self) -> Option<PipelineReport> {
        self.last_entry_report.lock().clone()
    }

    /// Live session count (across all tenants when the store is
    /// shared).
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// The session store this proxy issues sessions from — shared with
    /// other tenant proxies when [`ProxyConfig::session_store`] was
    /// set.
    pub fn session_store(&self) -> &Arc<SessionStore> {
        &self.sessions
    }

    /// Session-store counter snapshot (created / live / destroyed /
    /// evictions by cause).
    pub fn session_stats(&self) -> SessionStoreStats {
        self.sessions.stats()
    }

    /// Tenant label this proxy's sessions are scoped to (the origin
    /// site's host).
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Generated files currently stored (subpages + images).
    pub fn stored_files(&self) -> Vec<String> {
        self.fs.paths()
    }

    /// Exports every generated artifact (session directories + public
    /// cache) to a real directory, mirroring the paper's on-disk layout.
    ///
    /// # Errors
    ///
    /// Returns IO errors from the export.
    pub fn export_files(&self, dir: &std::path::Path) -> std::io::Result<usize> {
        // Shared cached images live in the cache, not the fs; write the
        // snapshot too when present.
        if let Some(snapshot) = self.cache.get("img:snapshot.png") {
            self.fs
                .write(&SessionFs::public_path("img/snapshot.png"), snapshot);
        }
        self.fs.export(dir)
    }

    // ------------------------------------------------------------------

    /// Pipeline context for this proxy's runs; `fidelity` is the
    /// bandwidth class `fidelity-tier auto` attributes resolve to.
    fn pipeline_context(&self, fidelity: Option<msite_net::BandwidthClass>) -> PipelineContext {
        PipelineContext {
            base: self.base(),
            browser_config: self.config.browser_config.clone(),
            parallelism: self.config.pipeline_parallelism,
            schedule_stagger: None,
            trace: Trace::current(),
            subtree_cache: Some(Arc::clone(&self.subtrees)),
            metrics: Some(Arc::clone(&self.telemetry.metrics)),
            fidelity,
        }
    }

    /// The shared-cache TTL of snapshot-derived artifacts (the entry
    /// page and `/render/<engine>` output); `None` without a snapshot.
    fn snapshot_ttl(&self) -> Option<std::time::Duration> {
        self.spec
            .snapshot
            .as_ref()
            .map(|s| std::time::Duration::from_secs(s.cache_ttl_secs))
    }
}
