//! Proxy configuration.

use crate::persist::{DiskBackend, FsDisk};
use crate::session::SessionStore;
use msite_net::ResiliencePolicy;
use msite_render::browser::BrowserConfig;
use msite_support::telemetry::Telemetry;
use std::sync::Arc;
use std::time::Duration;

/// Configuration for the crash-safe persistent cache tier: which disk
/// backend the [`DiskTier`](crate::persist::DiskTier) journals to and
/// how many bytes it may occupy. Constructed via [`PersistConfig::dir`]
/// (a real directory) or [`PersistConfig::with_backend`] (any
/// [`DiskBackend`], e.g. [`MemDisk`](crate::persist::MemDisk) in tests
/// or a [`FlakyDisk`](crate::persist::FlakyDisk) chaos wrapper).
#[derive(Clone)]
pub struct PersistConfig {
    /// The disk the tier journals artifacts to.
    pub backend: Arc<dyn DiskBackend>,
    /// Byte budget for segment files (`persist_capacity_bytes`); the
    /// oldest segment is dropped whole when exceeded.
    pub capacity_bytes: u64,
}

/// Default persistent-tier byte budget (64 MiB).
pub const DEFAULT_PERSIST_CAPACITY_BYTES: u64 = 64 * 1024 * 1024;

impl PersistConfig {
    /// Persists under `dir` on the real filesystem (`persist_dir`),
    /// creating it if needed.
    ///
    /// # Errors
    ///
    /// Returns the error from creating the directory.
    pub fn dir(dir: impl Into<std::path::PathBuf>) -> std::io::Result<PersistConfig> {
        Ok(PersistConfig {
            backend: Arc::new(FsDisk::open(dir)?),
            capacity_bytes: DEFAULT_PERSIST_CAPACITY_BYTES,
        })
    }

    /// Persists to an arbitrary backend — how tests share a
    /// [`MemDisk`](crate::persist::MemDisk) across simulated restarts
    /// and chaos runs inject a [`FlakyDisk`](crate::persist::FlakyDisk).
    pub fn with_backend(backend: Arc<dyn DiskBackend>, capacity_bytes: u64) -> PersistConfig {
        PersistConfig {
            backend,
            capacity_bytes,
        }
    }
}

impl std::fmt::Debug for PersistConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistConfig")
            .field("backend", &"dyn DiskBackend")
            .field("capacity_bytes", &self.capacity_bytes)
            .finish()
    }
}

/// Proxy configuration.
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// Extra CPU burned per scripted (non-browser) request, modeling the
    /// paper's PHP interpreter + filesystem overhead. Zero by default;
    /// the Figure 7 harness sets ~3.5 ms to reproduce the paper's
    /// absolute throughput scale.
    pub scripted_overhead: Duration,
    /// Shared render-cache capacity (entries).
    pub cache_capacity: usize,
    /// Seed for session-id generation.
    pub seed: u64,
    /// Browser configuration used by the pipeline.
    pub browser_config: BrowserConfig,
    /// Fault-tolerance policy for origin fetches: retry budget, backoff
    /// shape, per-request deadline, breaker thresholds.
    pub resilience: ResiliencePolicy,
    /// How long expired cache entries stay servable as degraded
    /// (stale) output when the origin is unavailable.
    pub stale_window: Duration,
    /// Worker-crew width for the adaptation pipeline's fan-out stages
    /// (subpage assembly, image pre-renders, imagemap geometry). `1`
    /// runs the pipeline serially; output is byte-identical either way.
    pub pipeline_parallelism: usize,
    /// Telemetry destination. `None` (the default) gives the proxy a
    /// private registry + trace ring; pass a shared handle (the one the
    /// HTTP server binds with) so proxy, server, and resilience
    /// counters land in one scrapeable registry.
    pub telemetry: Option<Telemetry>,
    /// Capacity (entries) of the fingerprint-keyed subtree artifact
    /// cache backing incremental re-adaptation: when an entry rebuild
    /// runs, subpage artifacts whose source-subtree fingerprints (and
    /// assembly inputs) are unchanged are served from it instead of
    /// being re-assembled and re-rendered.
    pub subtree_cache_capacity: usize,
    /// Crash-safe persistent second cache tier. `None` (the default)
    /// keeps the render cache memory-only; `Some` journals rendered
    /// artifacts through a [`DiskTier`](crate::persist::DiskTier) so a
    /// restarted proxy warm-starts from disk instead of re-rendering
    /// its working set.
    pub persist: Option<PersistConfig>,
    /// Session store to share between proxies. `None` (the default)
    /// gives this proxy a private [`SessionStore`] with the default
    /// [`SessionStoreConfig`](crate::session::SessionStoreConfig)
    /// bounds and this config's `seed`. To bound sessions differently,
    /// build a store with its own `SessionStoreConfig` and pass it
    /// here; multi-tenant embedders pass one shared store to every
    /// tenant proxy so the global bound and per-tenant quotas span all
    /// of them.
    pub session_store: Option<Arc<SessionStore>>,
}

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig {
            scripted_overhead: Duration::ZERO,
            cache_capacity: 256,
            seed: 0x6d_73_69_74_65, // "msite"
            browser_config: BrowserConfig::default(),
            resilience: ResiliencePolicy::default(),
            stale_window: Duration::from_secs(600),
            pipeline_parallelism: msite_support::thread::default_parallelism(),
            telemetry: None,
            subtree_cache_capacity: 512,
            persist: None,
            session_store: None,
        }
    }
}
