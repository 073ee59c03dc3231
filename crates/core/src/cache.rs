//! The shared render cache: TTL + LRU with serve-stale degradation and
//! a single-flight layer, safe for concurrent access.
//!
//! "Certain areas of a site may be defined as cachable across sessions,
//! amortizing the initial pre-rendering cost across many users" (§3.3).
//! Keys are `(page, variant)` strings; values are opaque byte artifacts
//! (snapshot PNGs, pre-rendered fragments, adapted HTML).
//!
//! Expired entries are kept for a configurable *stale window* past
//! their TTL. [`RenderCache::get`] never returns them, but
//! [`RenderCache::lookup`] reports them as [`Lookup::Stale`], which the
//! proxy uses to serve a last-known-good snapshot when the origin is
//! down or its circuit breaker is open — degraded service instead of a
//! 5xx per request.
//!
//! # Single flight
//!
//! Concurrent misses on one key do not stampede the producer. The first
//! caller becomes the *leader*: it registers an in-flight marker and
//! runs `produce()` outside the lock. Every other caller becomes a
//! *waiter*, blocking on the flight's [`OnceValue`] rendezvous and
//! sharing the leader's result (counted in [`CacheStats::coalesced`]).
//! Waiters can bound their wait: on expiry they fall back to a
//! stale-window entry when one exists, or report [`Flight::TimedOut`]
//! so the caller can surface a deadline error instead of blocking
//! forever. A leader that panics abandons its flight; waiters detect
//! the abandonment and retry, electing a new leader.
//!
//! # Lock striping
//!
//! The key space is split across `K` shards (FNV-1a on the key), each
//! with its own mutex, entry map, and in-flight registry, so unrelated
//! keys no longer serialize under multi-user load. LRU eviction is per
//! shard against the shard's slice of the capacity; `advance_clock` and
//! the stale window apply uniformly across shards. Small caches
//! (capacity ≤ 32) collapse to a single shard, which is exactly the
//! seed's global-LRU behavior.

use crate::persist::{DiskFreshness, DiskTier};
use msite_support::bytes::Bytes;
use msite_support::sync::{Mutex, OnceValue};
use msite_support::telemetry::{Counter, MetricsRegistry};
use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cache statistics: a read-back of the `msite_cache_*` counters the
/// cache increments in the registry it was built with.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing (or only an expired entry).
    pub misses: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
    /// Entries dropped because their TTL (plus stale window) passed.
    pub expirations: u64,
    /// Lookups answered by an expired entry still inside the stale
    /// window (serve-stale degradation).
    pub stale_hits: u64,
    /// Misses that were answered by joining another caller's in-flight
    /// `produce()` instead of launching their own (single flight).
    pub coalesced: u64,
}

impl CacheStats {
    /// Hit ratio in [0, 1]; 0 when no lookups happened. Stale lookups
    /// are *not* hits — they are degraded service — so they count in
    /// the denominator only: `hits / (hits + misses + stale_hits)`.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses + self.stale_hits;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The registry handles a [`RenderCache`] counts into.
struct CacheMetrics {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    expirations: Arc<Counter>,
    stale_hits: Arc<Counter>,
    coalesced: Arc<Counter>,
    /// `msite_disk_warm_loaded_total`, interned only when a disk tier
    /// is attached.
    warm_loaded: Option<Arc<Counter>>,
}

impl CacheMetrics {
    fn new(registry: &MetricsRegistry, disk: bool) -> CacheMetrics {
        CacheMetrics {
            hits: registry.counter("msite_cache_hits_total", &[]),
            misses: registry.counter("msite_cache_misses_total", &[]),
            evictions: registry.counter("msite_cache_evictions_total", &[]),
            expirations: registry.counter("msite_cache_expirations_total", &[]),
            stale_hits: registry.counter("msite_cache_stale_hits_total", &[]),
            coalesced: registry.counter("msite_cache_coalesced_total", &[]),
            warm_loaded: disk.then(|| registry.counter("msite_disk_warm_loaded_total", &[])),
        }
    }
}

struct Entry {
    value: Bytes,
    expires_at: Option<Instant>,
    last_used: u64,
    cost: Duration,
}

impl Entry {
    /// How far past its TTL the entry is at `now`; zero while fresh.
    fn age_past_expiry(&self, now: Instant) -> Duration {
        self.expires_at
            .map(|t| now.saturating_duration_since(t))
            .unwrap_or(Duration::ZERO)
    }
}

/// Marker published by [`FlightGuard`] when a leader unwinds without
/// completing its flight; waiters that see it retry (and may lead).
struct LeaderAbandoned;

type FlightError = Arc<dyn Any + Send + Sync>;

/// A registered in-flight `produce()` that waiters rendezvous on.
struct InFlight {
    result: OnceValue<Result<Bytes, FlightError>>,
    waiters: AtomicU64,
}

impl InFlight {
    fn new() -> InFlight {
        InFlight {
            result: OnceValue::new(),
            waiters: AtomicU64::new(0),
        }
    }
}

struct Inner {
    entries: HashMap<String, Entry>,
    flights: HashMap<String, Arc<InFlight>>,
    clock: u64,
    amortized: Duration,
    /// Test/harness clock offset added to `Instant::now()`, so TTL and
    /// stale-window behavior can be driven without real sleeps.
    time_offset: Duration,
}

struct Shard {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl Shard {
    fn new(capacity: usize) -> Shard {
        Shard {
            capacity,
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                flights: HashMap::new(),
                clock: 0,
                amortized: Duration::ZERO,
                time_offset: Duration::ZERO,
            }),
        }
    }
}

/// Outcome of a [`RenderCache::lookup`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup {
    /// A live entry.
    Fresh(Bytes),
    /// An expired entry still inside the stale window — usable only as
    /// degraded output when the authoritative source is unavailable.
    Stale {
        /// The expired artifact.
        value: Bytes,
        /// How long past its TTL the entry is.
        age: Duration,
    },
    /// Nothing usable.
    Miss,
}

/// Outcome of a [`RenderCache::render_flight`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Flight<E> {
    /// A fresh entry was already cached; no flight was needed.
    Hit(Bytes),
    /// This caller led the flight: it ran `produce()` and cached the
    /// result.
    Led {
        /// The freshly produced artifact.
        value: Bytes,
        /// How many waiters were registered on the flight when it
        /// completed (they each count one `coalesced` as they wake).
        shared_with: u64,
    },
    /// This caller joined another caller's flight and shares its
    /// result.
    Shared(Bytes),
    /// The wait budget expired (or the leader failed) and an expired
    /// entry inside the stale window was served instead.
    Stale {
        /// The expired artifact.
        value: Bytes,
        /// How long past its TTL the entry is.
        age: Duration,
    },
    /// The wait budget expired with nothing usable cached.
    TimedOut,
    /// The flight's `produce()` failed; leaders report their own error,
    /// waiters a clone of the leader's.
    Failed(E),
}

/// Removes the flight and publishes [`LeaderAbandoned`] if the leader
/// unwinds (panics) before completing; disarmed on the success and
/// error paths, which publish their own result.
struct FlightGuard<'a> {
    shard: &'a Shard,
    key: &'a str,
    flight: &'a Arc<InFlight>,
    armed: bool,
}

impl FlightGuard<'_> {
    fn disarm(mut self) {
        self.armed = false;
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let mut inner = self.shard.inner.lock();
        if inner
            .flights
            .get(self.key)
            .is_some_and(|f| Arc::ptr_eq(f, self.flight))
        {
            inner.flights.remove(self.key);
        }
        drop(inner);
        // Wake waiters *after* the registry slot is free, so a retrying
        // waiter cannot rejoin this dead flight.
        self.flight.result.set(Err(Arc::new(LeaderAbandoned)));
    }
}

/// A concurrent TTL + LRU cache for rendered artifacts, lock-striped
/// across shards, with single-flight coalescing of concurrent misses.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use msite::cache::RenderCache;
///
/// let cache = RenderCache::new(128);
/// cache.put("forum:snapshot", b"png bytes".to_vec(),
///           Some(Duration::from_secs(3600)), Duration::from_millis(1800));
/// assert!(cache.get("forum:snapshot").is_some());
/// assert_eq!(cache.stats().hits, 1);
/// ```
pub struct RenderCache {
    shards: Box<[Shard]>,
    /// Stale-window width in microseconds; atomic so the health monitor
    /// can widen serve-stale aggressiveness at runtime.
    stale_window_micros: AtomicU64,
    /// Optional persistent second tier (write-behind + warm restart).
    disk: Option<Arc<DiskTier>>,
    metrics: CacheMetrics,
}

impl RenderCache {
    /// Creates a cache bounded to `capacity` entries, with no stale
    /// retention (expired entries drop on first touch).
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> RenderCache {
        RenderCache::with_stale_window(capacity, Duration::ZERO)
    }

    /// Creates a cache that keeps expired entries around for
    /// `stale_window` past their TTL, reporting them via
    /// [`Self::lookup`] as [`Lookup::Stale`]. The shard count defaults
    /// to one shard per 32 entries of capacity, capped at 16; caches of
    /// 32 entries or fewer get a single shard (global LRU, the seed's
    /// semantics).
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn with_stale_window(capacity: usize, stale_window: Duration) -> RenderCache {
        let shards = (capacity / 32).clamp(1, 16);
        RenderCache::with_shards(capacity, stale_window, shards)
    }

    /// Creates a cache striped across exactly `shards` locks. `capacity`
    /// is the *total* bound, distributed as evenly as possible across
    /// shards (the first `capacity % shards` shards get one extra slot).
    /// The shard count is clamped to `[1, capacity]` so every shard can
    /// hold at least one entry.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn with_shards(capacity: usize, stale_window: Duration, shards: usize) -> RenderCache {
        assert!(capacity > 0, "cache capacity must be positive");
        let count = shards.clamp(1, capacity);
        let base = capacity / count;
        let extra = capacity % count;
        let shards: Vec<Shard> = (0..count)
            .map(|i| Shard::new(base + usize::from(i < extra)))
            .collect();
        RenderCache {
            shards: shards.into_boxed_slice(),
            stale_window_micros: AtomicU64::new(stale_window.as_micros() as u64),
            disk: None,
            metrics: CacheMetrics::new(&MetricsRegistry::new(), false),
        }
    }

    /// Like [`Self::with_stale_window`], counting the `msite_cache_*`
    /// series into `registry` (the other constructors count into a
    /// private one), optionally backed by a persistent disk tier:
    /// inserts are written behind to it, memory misses are answered
    /// from disk when a checksum-verified fresh artifact exists, and
    /// the hot set (most recently persisted live entries, up to
    /// `capacity`) is preloaded, counted in
    /// `msite_disk_warm_loaded_total`, so a restarted proxy serves its
    /// working set without re-rendering.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn with_metrics(
        capacity: usize,
        stale_window: Duration,
        disk: Option<Arc<DiskTier>>,
        registry: &MetricsRegistry,
    ) -> RenderCache {
        let mut cache = RenderCache::with_stale_window(capacity, stale_window);
        cache.metrics = CacheMetrics::new(registry, disk.is_some());
        cache.disk = disk;
        cache.warm_load(capacity);
        cache
    }

    /// Preloads the most recently persisted live artifacts into the
    /// memory tier (warm restart).
    fn warm_load(&self, limit: usize) {
        let (Some(tier), Some(warm_loaded)) = (&self.disk, &self.metrics.warm_loaded) else {
            return;
        };
        for key in tier.hot_keys(limit) {
            let Some(record) = tier.get(&key) else {
                continue;
            };
            if let DiskFreshness::Fresh(ttl) = record.freshness {
                let shard = self.shard(&key);
                let mut inner = shard.inner.lock();
                self.insert_locked(shard, &mut inner, &key, record.value, ttl, record.cost);
                drop(inner);
                warm_loaded.inc();
            }
        }
    }

    /// The configured stale window.
    pub fn stale_window(&self) -> Duration {
        Duration::from_micros(self.stale_window_micros.load(Ordering::Relaxed))
    }

    /// Adjusts the stale window at runtime — the health monitor widens
    /// it under duress (serve stale rather than shed) and restores the
    /// configured width when the system recovers.
    pub fn set_stale_window(&self, window: Duration) {
        self.stale_window_micros
            .store(window.as_micros() as u64, Ordering::Relaxed);
    }

    /// The persistent tier, when one is attached.
    pub fn disk(&self) -> Option<&Arc<DiskTier>> {
        self.disk.as_ref()
    }

    /// Statistics of the persistent tier (`None` when memory-only).
    pub fn disk_stats(&self) -> Option<crate::persist::DiskTierStats> {
        self.disk.as_ref().map(|tier| tier.stats())
    }

    /// Entries preloaded from disk at construction (warm restart).
    pub fn warm_loaded(&self) -> u64 {
        self.metrics.warm_loaded.as_ref().map_or(0, |c| c.get())
    }

    /// Blocks until the disk tier's write-behind queue has drained.
    /// No-op when memory-only.
    pub fn flush_disk(&self) {
        if let Some(tier) = &self.disk {
            tier.flush();
        }
    }

    /// Write-behind hook: persists an inserted artifact without
    /// blocking the serving path.
    fn write_behind(&self, key: &str, value: &Bytes, ttl: Option<Duration>, cost: Duration) {
        if let Some(tier) = &self.disk {
            tier.put(key, value.clone(), ttl, cost);
        }
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `key` maps to (FNV-1a).
    pub fn shard_of(&self, key: &str) -> usize {
        if self.shards.len() == 1 {
            return 0;
        }
        let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
        for byte in key.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01B3);
        }
        (hash % self.shards.len() as u64) as usize
    }

    /// The entry bound of shard `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index >= shard_count()`.
    pub fn shard_capacity(&self, index: usize) -> usize {
        self.shards[index].capacity
    }

    /// Entries currently stored in shard `index` (including entries
    /// whose stale window has lapsed but that have not been touched).
    ///
    /// # Panics
    ///
    /// Panics when `index >= shard_count()`.
    pub fn shard_len(&self, index: usize) -> usize {
        self.shards[index].inner.lock().entries.len()
    }

    fn shard(&self, key: &str) -> &Shard {
        &self.shards[self.shard_of(key)]
    }

    /// Advances the cache's notion of "now" by `delta` — a harness hook
    /// that makes TTL/stale-window tests deterministic without sleeping.
    pub fn advance_clock(&self, delta: Duration) {
        for shard in self.shards.iter() {
            shard.inner.lock().time_offset += delta;
        }
    }

    /// Inserts an artifact. `ttl == None` means "until evicted". `cost`
    /// records how long the artifact took to produce, feeding the
    /// amortization accounting.
    pub fn put(&self, key: &str, value: impl Into<Bytes>, ttl: Option<Duration>, cost: Duration) {
        let value = value.into();
        let shard = self.shard(key);
        let mut inner = shard.inner.lock();
        self.insert_locked(shard, &mut inner, key, value.clone(), ttl, cost);
        drop(inner);
        self.write_behind(key, &value, ttl, cost);
    }

    /// Inserts under an already-held shard lock, evicting if the shard
    /// is full: entries past the stale window are pruned first, then an
    /// expired-but-stale entry is preferred as the victim over a live
    /// one, then LRU order decides.
    fn insert_locked(
        &self,
        shard: &Shard,
        inner: &mut Inner,
        key: &str,
        value: Bytes,
        ttl: Option<Duration>,
        cost: Duration,
    ) {
        let now = Instant::now() + inner.time_offset;
        inner.clock += 1;
        let last_used = inner.clock;
        if inner.entries.len() >= shard.capacity && !inner.entries.contains_key(key) {
            let dead: Vec<String> = inner
                .entries
                .iter()
                .filter(|(_, e)| e.age_past_expiry(now) > self.stale_window())
                .map(|(k, _)| k.clone())
                .collect();
            for k in &dead {
                inner.entries.remove(k);
                self.metrics.expirations.inc();
            }
            if inner.entries.len() >= shard.capacity {
                // Evict expired-but-stale entries before live ones;
                // within a class, the least recently used goes.
                if let Some(victim) = inner
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| (e.age_past_expiry(now).is_zero(), e.last_used))
                    .map(|(k, _)| k.clone())
                {
                    inner.entries.remove(&victim);
                    self.metrics.evictions.inc();
                }
            }
        }
        inner.entries.insert(
            key.to_string(),
            Entry {
                value,
                expires_at: ttl.map(|t| now + t),
                last_used,
                cost,
            },
        );
    }

    /// Fetches a live artifact, refreshing its recency. Every hit adds
    /// the entry's production cost to the amortized-savings counter.
    /// Expired entries are never returned here (use [`Self::lookup`] for
    /// stale fallback); entries past the stale window are dropped.
    pub fn get(&self, key: &str) -> Option<Bytes> {
        match self.lookup_at(key, false) {
            Lookup::Fresh(value) => Some(value),
            Lookup::Stale { .. } | Lookup::Miss => None,
        }
    }

    /// Fetches an artifact, reporting freshness: fresh entries behave
    /// like [`Self::get`]; expired entries inside the stale window come
    /// back as [`Lookup::Stale`] with their age past expiry.
    pub fn lookup(&self, key: &str) -> Lookup {
        self.lookup_at(key, true)
    }

    fn lookup_at(&self, key: &str, allow_stale: bool) -> Lookup {
        match self.lookup_mem(key, allow_stale) {
            Lookup::Miss => self.lookup_disk(key, allow_stale),
            found => found,
        }
    }

    fn lookup_mem(&self, key: &str, allow_stale: bool) -> Lookup {
        let mut inner = self.shard(key).inner.lock();
        let now = Instant::now() + inner.time_offset;
        inner.clock += 1;
        let clock = inner.clock;
        let Some(entry) = inner.entries.get_mut(key) else {
            self.metrics.misses.inc();
            return Lookup::Miss;
        };
        let age = entry.age_past_expiry(now);
        if age.is_zero() {
            entry.last_used = clock;
            let value = entry.value.clone();
            let cost = entry.cost;
            self.metrics.hits.inc();
            inner.amortized += cost;
            return Lookup::Fresh(value);
        }
        if age > self.stale_window() {
            // Beyond salvage: drop the entry whichever API touched it.
            inner.entries.remove(key);
            self.metrics.expirations.inc();
            self.metrics.misses.inc();
            return Lookup::Miss;
        }
        if !allow_stale {
            self.metrics.misses.inc();
            return Lookup::Miss;
        }
        // Refresh recency: an entry serving as degraded output must not
        // be the next LRU victim.
        entry.last_used = clock;
        let value = entry.value.clone();
        self.metrics.stale_hits.inc();
        Lookup::Stale { value, age }
    }

    /// Memory-miss fallback: consult the persistent tier. A fresh
    /// checksum-verified artifact is promoted into the memory tier
    /// (without re-persisting) and served; an expired one is served
    /// stale when its age fits the stale window. The preceding memory
    /// miss stays counted — disk recoveries surface in
    /// [`Self::disk_stats`], not in [`CacheStats`].
    fn lookup_disk(&self, key: &str, allow_stale: bool) -> Lookup {
        let Some(tier) = &self.disk else {
            return Lookup::Miss;
        };
        let Some(record) = tier.get(key) else {
            return Lookup::Miss;
        };
        match record.freshness {
            DiskFreshness::Fresh(ttl) => {
                let shard = self.shard(key);
                let mut inner = shard.inner.lock();
                self.insert_locked(
                    shard,
                    &mut inner,
                    key,
                    record.value.clone(),
                    ttl,
                    record.cost,
                );
                Lookup::Fresh(record.value)
            }
            DiskFreshness::Expired(age) if allow_stale && age <= self.stale_window() => {
                Lookup::Stale {
                    value: record.value,
                    age,
                }
            }
            DiskFreshness::Expired(_) => Lookup::Miss,
        }
    }

    /// Flight-path disk probe: when memory lacks a fresh entry but the
    /// persistent tier holds one, promote it so the flight resolves as
    /// a hit instead of electing a render leader.
    fn promote_for_flight(&self, key: &str) {
        let Some(tier) = &self.disk else { return };
        {
            let inner = self.shard(key).inner.lock();
            let now = Instant::now() + inner.time_offset;
            if let Some(entry) = inner.entries.get(key) {
                if entry.age_past_expiry(now).is_zero() {
                    return;
                }
            }
        }
        if let Some(record) = tier.get(key) {
            if let DiskFreshness::Fresh(ttl) = record.freshness {
                let shard = self.shard(key);
                let mut inner = shard.inner.lock();
                self.insert_locked(shard, &mut inner, key, record.value, ttl, record.cost);
            }
        }
    }

    /// Fetches, or computes-and-stores on miss, coalescing concurrent
    /// misses into one `produce()` (single flight). The closure returns
    /// the artifact plus its production cost.
    ///
    /// Expired entries inside the stale window are served directly
    /// (counting a stale hit) rather than recomputed — the degraded
    /// answer is preferred over a redundant render here. Callers that
    /// instead want a fresh render with stale only as a timeout
    /// fallback use [`Self::render_flight`].
    pub fn get_or_insert_with(
        &self,
        key: &str,
        ttl: Option<Duration>,
        produce: impl FnOnce() -> (Bytes, Duration),
    ) -> Bytes {
        match self
            .flight_inner::<std::convert::Infallible, _>(key, ttl, None, true, || Ok(produce()))
        {
            Flight::Hit(value)
            | Flight::Led { value, .. }
            | Flight::Shared(value)
            | Flight::Stale { value, .. } => value,
            Flight::TimedOut => unreachable!("unbounded waits cannot time out"),
            Flight::Failed(error) => match error {},
        }
    }

    /// Fetches, or runs a fallible `produce()` exactly once across
    /// concurrent callers (single flight), with a bounded wait.
    ///
    /// The first caller to miss becomes the leader and runs `produce()`
    /// outside the cache lock; concurrent callers wait on the flight
    /// and share its result ([`Flight::Shared`]). `wait_budget` bounds
    /// how long a waiter blocks (`None` = indefinitely): on expiry it
    /// falls back to a stale-window entry ([`Flight::Stale`]) or
    /// reports [`Flight::TimedOut`]. A failed `produce()` caches
    /// nothing and propagates a clone of the error to every waiter.
    ///
    /// Unlike [`Self::get_or_insert_with`], an expired-but-stale entry
    /// does *not* short-circuit the render: freshness is preferred, and
    /// stale serves only as the fallback.
    pub fn render_flight<E>(
        &self,
        key: &str,
        ttl: Option<Duration>,
        wait_budget: Option<Duration>,
        produce: impl FnOnce() -> Result<(Bytes, Duration), E>,
    ) -> Flight<E>
    where
        E: Clone + Send + Sync + 'static,
    {
        self.flight_inner(key, ttl, wait_budget, false, produce)
    }

    fn flight_inner<E, F>(
        &self,
        key: &str,
        ttl: Option<Duration>,
        wait_budget: Option<Duration>,
        eager_stale: bool,
        produce: F,
    ) -> Flight<E>
    where
        E: Clone + Send + Sync + 'static,
        F: FnOnce() -> Result<(Bytes, Duration), E>,
    {
        let wait_deadline = wait_budget.map(|b| Instant::now() + b);
        if self.disk.is_some() {
            self.promote_for_flight(key);
        }
        let shard = self.shard(key);
        let mut produce = Some(produce);
        let mut counted_miss = false;
        loop {
            let mut inner = shard.inner.lock();
            let now = Instant::now() + inner.time_offset;
            inner.clock += 1;
            let clock = inner.clock;
            if let Some(entry) = inner.entries.get_mut(key) {
                let age = entry.age_past_expiry(now);
                if age.is_zero() {
                    entry.last_used = clock;
                    let value = entry.value.clone();
                    let cost = entry.cost;
                    self.metrics.hits.inc();
                    inner.amortized += cost;
                    return Flight::Hit(value);
                }
                if age > self.stale_window() {
                    inner.entries.remove(key);
                    self.metrics.expirations.inc();
                } else if eager_stale {
                    entry.last_used = clock;
                    let value = entry.value.clone();
                    self.metrics.stale_hits.inc();
                    return Flight::Stale { value, age };
                }
            }
            if !counted_miss {
                self.metrics.misses.inc();
                counted_miss = true;
            }
            let joined = match inner.flights.get(key) {
                Some(flight) => {
                    flight.waiters.fetch_add(1, Ordering::Relaxed);
                    Some(Arc::clone(flight))
                }
                None => {
                    let flight = Arc::new(InFlight::new());
                    inner.flights.insert(key.to_string(), Arc::clone(&flight));
                    drop(inner);
                    return self.lead(
                        shard,
                        key,
                        ttl,
                        &flight,
                        produce
                            .take()
                            .expect("produce is consumed only by the leader"),
                    );
                }
            };
            drop(inner);

            let flight = joined.expect("non-leader path always joins");
            let outcome = match wait_deadline {
                None => Some(flight.result.wait()),
                Some(deadline) => flight
                    .result
                    .wait_for(deadline.saturating_duration_since(Instant::now())),
            };
            match outcome {
                Some(Ok(value)) => {
                    self.metrics.coalesced.inc();
                    return Flight::Shared(value);
                }
                Some(Err(error)) => {
                    if error.is::<LeaderAbandoned>() {
                        // The leader unwound without an answer; go
                        // around and possibly lead the retry.
                        continue;
                    }
                    if let Some(error) = error.downcast_ref::<E>() {
                        return Flight::Failed(error.clone());
                    }
                    // A flight with a different error type raced us on
                    // this key; treat it like an expired wait.
                    if wait_deadline.is_none() {
                        continue;
                    }
                    return self.stale_or_timed_out(shard, key);
                }
                None => return self.stale_or_timed_out(shard, key),
            }
        }
    }

    /// Leader side of a flight: run `produce()` outside the lock, then
    /// publish the outcome to the cache and to the flight's waiters.
    fn lead<E>(
        &self,
        shard: &Shard,
        key: &str,
        ttl: Option<Duration>,
        flight: &Arc<InFlight>,
        produce: impl FnOnce() -> Result<(Bytes, Duration), E>,
    ) -> Flight<E>
    where
        E: Clone + Send + Sync + 'static,
    {
        let guard = FlightGuard {
            shard,
            key,
            flight,
            armed: true,
        };
        let outcome = produce();
        let mut inner = shard.inner.lock();
        if let Ok((value, cost)) = &outcome {
            self.insert_locked(shard, &mut inner, key, value.clone(), ttl, *cost);
        }
        if inner
            .flights
            .get(key)
            .is_some_and(|f| Arc::ptr_eq(f, flight))
        {
            inner.flights.remove(key);
        }
        drop(inner);
        let shared_with = flight.waiters.load(Ordering::Relaxed);
        match outcome {
            Ok((value, cost)) => {
                self.write_behind(key, &value, ttl, cost);
                flight.result.set(Ok(value.clone()));
                guard.disarm();
                Flight::Led { value, shared_with }
            }
            Err(error) => {
                flight.result.set(Err(Arc::new(error.clone())));
                guard.disarm();
                Flight::Failed(error)
            }
        }
    }

    /// A waiter whose budget expired (or whose flight failed under it):
    /// serve the stale window if it can, otherwise time out. A fresh
    /// entry can appear here when the flight completed in the same
    /// instant the wait gave up — that still counts as coalesced.
    fn stale_or_timed_out<E>(&self, shard: &Shard, key: &str) -> Flight<E> {
        let mut inner = shard.inner.lock();
        let now = Instant::now() + inner.time_offset;
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(entry) = inner.entries.get_mut(key) {
            let age = entry.age_past_expiry(now);
            if age.is_zero() {
                entry.last_used = clock;
                let value = entry.value.clone();
                self.metrics.coalesced.inc();
                return Flight::Shared(value);
            }
            if age <= self.stale_window() {
                entry.last_used = clock;
                let value = entry.value.clone();
                self.metrics.stale_hits.inc();
                return Flight::Stale { value, age };
            }
            inner.entries.remove(key);
            self.metrics.expirations.inc();
        }
        Flight::TimedOut
    }

    /// Waits (up to `budget`, `None` = indefinitely) for an in-flight
    /// `produce()` on `key` to complete, returning its value on
    /// success. Returns `None` immediately when no flight is registered
    /// — this is an observation hook, not a lookup, and touches no
    /// statistics.
    pub fn join_flight(&self, key: &str, budget: Option<Duration>) -> Option<Bytes> {
        let flight = self.shard(key).inner.lock().flights.get(key).cloned()?;
        let outcome = match budget {
            None => Some(flight.result.wait()),
            Some(budget) => flight.result.wait_for(budget),
        };
        match outcome {
            Some(Ok(value)) => Some(value),
            _ => None,
        }
    }

    /// Number of flights currently registered (renders in progress).
    pub fn in_flight(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.inner.lock().flights.len())
            .sum()
    }

    /// Drops an entry (from the disk tier too, when one is attached).
    pub fn invalidate(&self, key: &str) {
        self.shard(key).inner.lock().entries.remove(key);
        if let Some(tier) = &self.disk {
            tier.forget(key);
        }
    }

    /// Drops everything (in-flight registrations are untouched).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.inner.lock().entries.clear();
        }
        if let Some(tier) = &self.disk {
            tier.forget_all();
        }
    }

    /// Number of usable entries: fresh plus stale-window. Entries whose
    /// stale window has lapsed still occupy their slot until touched or
    /// pruned, but are no longer counted here.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                let inner = shard.inner.lock();
                let now = Instant::now() + inner.time_offset;
                inner
                    .entries
                    .values()
                    .filter(|e| e.age_past_expiry(now) <= self.stale_window())
                    .count()
            })
            .sum()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Statistics so far, read back from the registry series.
    pub fn stats(&self) -> CacheStats {
        let m = &self.metrics;
        CacheStats {
            hits: m.hits.get(),
            misses: m.misses.get(),
            evictions: m.evictions.get(),
            expirations: m.expirations.get(),
            stale_hits: m.stale_hits.get(),
            coalesced: m.coalesced.get(),
        }
    }

    /// Total rendering time saved by cache hits — the paper's
    /// "amortizing rendering costs across many client sessions".
    pub fn amortized_savings(&self) -> Duration {
        self.shards.iter().map(|s| s.inner.lock().amortized).sum()
    }

    /// Tries to become the leader for an *externally produced* render
    /// of `key` — the hook that lets producers which cannot run inside
    /// a closure (the streaming pipeline renders unit-by-unit into a
    /// chunk sink) still participate in single flight.
    ///
    /// Returns `None` when a fresh entry already exists (serve it via
    /// [`Self::lookup`]) or another flight is in progress (join it via
    /// [`Self::join_flight`] or [`Self::render_flight`]). Returns
    /// `Some` when this caller won the leadership: it must eventually
    /// [`ExternalFlight::complete`] the flight, or drop it to abandon
    /// (waiters then retry and elect a new leader).
    pub fn try_lead(self: &Arc<Self>, key: &str) -> Option<ExternalFlight> {
        if self.disk.is_some() {
            self.promote_for_flight(key);
        }
        let shard = self.shard(key);
        let mut inner = shard.inner.lock();
        let now = Instant::now() + inner.time_offset;
        if let Some(entry) = inner.entries.get(key) {
            if entry.age_past_expiry(now).is_zero() {
                return None;
            }
        }
        if inner.flights.contains_key(key) {
            return None;
        }
        let flight = Arc::new(InFlight::new());
        inner.flights.insert(key.to_string(), Arc::clone(&flight));
        Some(ExternalFlight {
            cache: Arc::clone(self),
            key: key.to_string(),
            flight,
            completed: false,
        })
    }
}

/// Leadership of a single-flight render whose artifact is produced
/// outside the cache's closures (see [`RenderCache::try_lead`]).
///
/// Completing publishes the artifact to the cache (and its disk tier)
/// and wakes every waiter; dropping without completing abandons the
/// flight exactly like a panicking closure leader — waiters retry and
/// elect a new leader.
pub struct ExternalFlight {
    cache: Arc<RenderCache>,
    key: String,
    flight: Arc<InFlight>,
    completed: bool,
}

impl ExternalFlight {
    /// The key this flight leads.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Number of waiters currently parked on this flight.
    pub fn waiters(&self) -> u64 {
        self.flight.waiters.load(Ordering::Relaxed)
    }

    /// Publishes the finished artifact: inserts it into the cache,
    /// writes it behind to the disk tier, and wakes every waiter with
    /// the value.
    pub fn complete(mut self, value: impl Into<Bytes>, ttl: Option<Duration>, cost: Duration) {
        let value = value.into();
        let shard = self.cache.shard(&self.key);
        {
            let mut inner = shard.inner.lock();
            self.cache
                .insert_locked(shard, &mut inner, &self.key, value.clone(), ttl, cost);
            if inner
                .flights
                .get(&self.key)
                .is_some_and(|f| Arc::ptr_eq(f, &self.flight))
            {
                inner.flights.remove(&self.key);
            }
        }
        self.cache.write_behind(&self.key, &value, ttl, cost);
        self.flight.result.set(Ok(value));
        self.completed = true;
    }

    /// Abandons the flight explicitly (identical to dropping it).
    pub fn abandon(self) {}
}

impl Drop for ExternalFlight {
    fn drop(&mut self) {
        if self.completed {
            return;
        }
        let shard = self.cache.shard(&self.key);
        let mut inner = shard.inner.lock();
        if inner
            .flights
            .get(&self.key)
            .is_some_and(|f| Arc::ptr_eq(f, &self.flight))
        {
            inner.flights.remove(&self.key);
        }
        drop(inner);
        // Wake waiters *after* the registry slot is free, so a retrying
        // waiter cannot rejoin this dead flight.
        self.flight.result.set(Err(Arc::new(LeaderAbandoned)));
    }
}

impl std::fmt::Debug for ExternalFlight {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExternalFlight")
            .field("key", &self.key)
            .field("completed", &self.completed)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Fingerprint-keyed subtree tier
// ---------------------------------------------------------------------------

/// Statistics for a [`SubtreeCache`]: a read-back of the counters it
/// increments in the registry it was built with.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubtreeCacheStats {
    /// Lookups that found a cached artifact.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Artifacts evicted by the LRU bound.
    pub evictions: u64,
}

struct SubtreeEntry {
    value: Arc<dyn Any + Send + Sync>,
    last_used: u64,
}

struct SubtreeInner {
    map: HashMap<u64, SubtreeEntry>,
    tick: u64,
}

/// The incremental re-adaptation tier: finished per-subtree artifacts
/// keyed by a content fingerprint of *everything* that went into
/// building them (the source subtree's serialization fingerprint plus
/// the builder's assembled fragments and the serving base). A hit
/// therefore guarantees a byte-identical artifact — the cache can hand
/// it back without re-running assembly or the browser pre-render.
///
/// Values are type-erased (`Arc<dyn Any>`) so this tier stays agnostic
/// of the pipeline's artifact types; the emit stage downcasts on read.
/// Unlike [`RenderCache`] there is no TTL: fingerprints are
/// self-invalidating (changed content changes the key), so entries only
/// leave via the LRU bound.
pub struct SubtreeCache {
    inner: Mutex<SubtreeInner>,
    capacity: usize,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
}

impl std::fmt::Debug for SubtreeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubtreeCache")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl SubtreeCache {
    /// Creates a tier bounded to `capacity` artifacts (min 1) that
    /// counts into a private registry.
    pub fn new(capacity: usize) -> SubtreeCache {
        SubtreeCache::with_metrics(capacity, &MetricsRegistry::new())
    }

    /// Creates a tier bounded to `capacity` artifacts (min 1) that
    /// counts hits, misses and evictions into `registry`
    /// (`msite_subtrees_reused_total`, `msite_subtrees_recomputed_total`,
    /// `msite_subtree_cache_evictions_total`).
    pub fn with_metrics(capacity: usize, registry: &MetricsRegistry) -> SubtreeCache {
        SubtreeCache {
            inner: Mutex::new(SubtreeInner {
                map: HashMap::new(),
                tick: 0,
            }),
            capacity: capacity.max(1),
            hits: registry.counter("msite_subtrees_reused_total", &[]),
            misses: registry.counter("msite_subtrees_recomputed_total", &[]),
            evictions: registry.counter("msite_subtree_cache_evictions_total", &[]),
        }
    }

    /// Looks an artifact up by fingerprint, refreshing its LRU slot.
    pub fn get(&self, fingerprint: u64) -> Option<Arc<dyn Any + Send + Sync>> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&fingerprint) {
            Some(entry) => {
                entry.last_used = tick;
                let value = Arc::clone(&entry.value);
                self.hits.inc();
                Some(value)
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Stores an artifact under its fingerprint, evicting the
    /// least-recently-used entry when over capacity.
    pub fn put(&self, fingerprint: u64, value: Arc<dyn Any + Send + Sync>) {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(
            fingerprint,
            SubtreeEntry {
                value,
                last_used: tick,
            },
        );
        while inner.map.len() > self.capacity {
            let Some(oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            else {
                break;
            };
            inner.map.remove(&oldest);
            self.evictions.inc();
        }
    }

    /// Number of cached artifacts.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// True when the tier holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every artifact (stats are kept).
    pub fn clear(&self) {
        self.inner.lock().map.clear();
    }

    /// Statistics so far, read back from the registry series.
    pub fn stats(&self) -> SubtreeCacheStats {
        SubtreeCacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn put_get_round_trip() {
        let cache = RenderCache::new(4);
        cache.put("a", b"one".to_vec(), None, Duration::ZERO);
        assert_eq!(cache.get("a").as_deref(), Some(&b"one"[..]));
        assert_eq!(cache.get("b"), None);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn ttl_expires_entries() {
        let cache = RenderCache::new(4);
        cache.put(
            "x",
            b"v".to_vec(),
            Some(Duration::from_millis(20)),
            Duration::ZERO,
        );
        assert!(cache.get("x").is_some());
        std::thread::sleep(Duration::from_millis(30));
        assert!(cache.get("x").is_none());
        assert_eq!(cache.stats().expirations, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let cache = RenderCache::new(2);
        cache.put("a", b"1".to_vec(), None, Duration::ZERO);
        cache.put("b", b"2".to_vec(), None, Duration::ZERO);
        let _ = cache.get("a"); // refresh a
        cache.put("c", b"3".to_vec(), None, Duration::ZERO);
        assert!(cache.get("a").is_some());
        assert!(cache.get("b").is_none(), "b should have been evicted");
        assert!(cache.get("c").is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn overwrite_same_key_no_eviction() {
        let cache = RenderCache::new(2);
        cache.put("a", b"1".to_vec(), None, Duration::ZERO);
        cache.put("b", b"2".to_vec(), None, Duration::ZERO);
        cache.put("a", b"1b".to_vec(), None, Duration::ZERO);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.get("a").as_deref(), Some(&b"1b"[..]));
    }

    #[test]
    fn get_or_insert_computes_once() {
        let cache = RenderCache::new(4);
        let mut calls = 0;
        for _ in 0..3 {
            let v = cache.get_or_insert_with("k", None, || {
                calls += 1;
                (Bytes::from_static(b"computed"), Duration::from_millis(100))
            });
            assert_eq!(&v[..], b"computed");
        }
        assert_eq!(calls, 1);
        // Two hits amortized 100 ms each.
        assert_eq!(cache.amortized_savings(), Duration::from_millis(200));
    }

    #[test]
    fn get_or_insert_serves_stale_within_window() {
        let cache = RenderCache::with_stale_window(4, Duration::from_secs(60));
        cache.put(
            "k",
            b"old".to_vec(),
            Some(Duration::from_secs(1)),
            Duration::ZERO,
        );
        cache.advance_clock(Duration::from_secs(10));
        let v = cache.get_or_insert_with("k", None, || {
            panic!("a stale-window entry must be served, not recomputed")
        });
        assert_eq!(&v[..], b"old");
        let stats = cache.stats();
        assert_eq!(stats.stale_hits, 1);
        assert_eq!(stats.misses, 0);
    }

    #[test]
    fn amortization_accumulates_per_hit() {
        let cache = RenderCache::new(4);
        cache.put("snap", b"png".to_vec(), None, Duration::from_secs(2));
        for _ in 0..5 {
            let _ = cache.get("snap");
        }
        assert_eq!(cache.amortized_savings(), Duration::from_secs(10));
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = Arc::new(RenderCache::new(64));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..200 {
                        let key = format!("k{}", (t * 7 + i) % 32);
                        cache.get_or_insert_with(&key, None, || {
                            (Bytes::from(vec![t as u8]), Duration::from_millis(1))
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(cache.len() <= 64);
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 8 * 200);
    }

    #[test]
    fn invalidate_and_clear() {
        let cache = RenderCache::new(4);
        cache.put("a", b"1".to_vec(), None, Duration::ZERO);
        cache.invalidate("a");
        assert!(cache.get("a").is_none());
        cache.put("b", b"2".to_vec(), None, Duration::ZERO);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn stale_window_serves_expired_via_lookup_only() {
        let cache = RenderCache::with_stale_window(4, Duration::from_secs(60));
        cache.put(
            "snap",
            b"png".to_vec(),
            Some(Duration::from_secs(10)),
            Duration::from_millis(500),
        );
        assert!(matches!(cache.lookup("snap"), Lookup::Fresh(_)));
        cache.advance_clock(Duration::from_secs(30));
        // get() hides stale entries but keeps them.
        assert!(cache.get("snap").is_none());
        match cache.lookup("snap") {
            Lookup::Stale { value, age } => {
                assert_eq!(&value[..], b"png");
                assert!(age >= Duration::from_secs(20));
            }
            other => panic!("expected stale, got {other:?}"),
        }
        let stats = cache.stats();
        assert_eq!(stats.stale_hits, 1);
        assert_eq!(stats.expirations, 0, "stale entries are retained");
        // Past the stale window the entry is gone for every API.
        cache.advance_clock(Duration::from_secs(60));
        assert_eq!(cache.lookup("snap"), Lookup::Miss);
        assert_eq!(cache.stats().expirations, 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn refreshing_put_revives_stale_entry() {
        let cache = RenderCache::with_stale_window(4, Duration::from_secs(60));
        cache.put(
            "k",
            b"old".to_vec(),
            Some(Duration::from_secs(5)),
            Duration::ZERO,
        );
        cache.advance_clock(Duration::from_secs(10));
        assert!(matches!(cache.lookup("k"), Lookup::Stale { .. }));
        cache.put(
            "k",
            b"new".to_vec(),
            Some(Duration::from_secs(5)),
            Duration::ZERO,
        );
        assert_eq!(cache.get("k").as_deref(), Some(&b"new"[..]));
    }

    #[test]
    fn hit_ratio() {
        let cache = RenderCache::new(4);
        cache.put("a", b"1".to_vec(), None, Duration::ZERO);
        let _ = cache.get("a");
        let _ = cache.get("a");
        let _ = cache.get("zz");
        let ratio = cache.stats().hit_ratio();
        assert!((ratio - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(CacheStats::default().hit_ratio(), 0.0);
    }

    #[test]
    fn hit_ratio_counts_stale_lookups_in_denominator() {
        let cache = RenderCache::with_stale_window(4, Duration::from_secs(60));
        cache.put(
            "a",
            b"1".to_vec(),
            Some(Duration::from_secs(1)),
            Duration::ZERO,
        );
        let _ = cache.get("a");
        let _ = cache.get("a");
        cache.advance_clock(Duration::from_secs(10));
        assert!(matches!(cache.lookup("a"), Lookup::Stale { .. }));
        let _ = cache.get("zz");
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.stale_hits),
            (2, 1, 1),
            "precondition for the ratio below"
        );
        // Degraded service must not inflate the ratio: 2 / (2 + 1 + 1).
        assert!((stats.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn expired_entries_are_pruned_before_evicting_live_ones() {
        let cache = RenderCache::new(2);
        cache.put(
            "dead",
            b"x".to_vec(),
            Some(Duration::from_secs(1)),
            Duration::ZERO,
        );
        cache.put("live", b"y".to_vec(), None, Duration::ZERO);
        cache.advance_clock(Duration::from_secs(5));
        assert_eq!(cache.len(), 1, "len reports usable entries only");
        cache.put("new", b"z".to_vec(), None, Duration::ZERO);
        assert!(
            cache.get("live").is_some(),
            "the live entry must survive while a dead one holds a slot"
        );
        assert!(cache.get("new").is_some());
        let stats = cache.stats();
        assert_eq!(
            stats.evictions, 0,
            "pruning a dead entry is not an eviction"
        );
        assert_eq!(stats.expirations, 1);
    }

    #[test]
    fn stale_entries_are_evicted_before_fresh_ones() {
        let cache = RenderCache::with_stale_window(2, Duration::from_secs(100));
        cache.put(
            "stale",
            b"x".to_vec(),
            Some(Duration::from_secs(1)),
            Duration::ZERO,
        );
        cache.put("fresh", b"y".to_vec(), None, Duration::ZERO);
        cache.advance_clock(Duration::from_secs(5));
        // Bump the stale entry's recency above the fresh one's: the
        // victim choice must still prefer the expired entry.
        assert!(matches!(cache.lookup("stale"), Lookup::Stale { .. }));
        cache.put("new", b"z".to_vec(), None, Duration::ZERO);
        assert!(cache.get("fresh").is_some());
        assert_eq!(cache.lookup("stale"), Lookup::Miss);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn shard_capacities_sum_to_total() {
        for (capacity, shards) in [(7, 3), (16, 4), (256, 8), (5, 10), (1, 1)] {
            let cache = RenderCache::with_shards(capacity, Duration::ZERO, shards);
            assert!(cache.shard_count() <= capacity);
            let total: usize = (0..cache.shard_count())
                .map(|i| cache.shard_capacity(i))
                .sum();
            assert_eq!(total, capacity, "capacity {capacity} shards {shards}");
        }
    }

    #[test]
    fn small_caches_collapse_to_one_shard() {
        assert_eq!(RenderCache::new(2).shard_count(), 1);
        assert_eq!(RenderCache::new(32).shard_count(), 1);
        assert_eq!(RenderCache::new(256).shard_count(), 8);
    }

    #[test]
    fn subtree_cache_round_trips_typed_artifacts() {
        let cache = SubtreeCache::new(8);
        assert!(cache.is_empty());
        cache.put(
            7,
            Arc::new("subpage-7".to_string()) as Arc<dyn Any + Send + Sync>,
        );
        let hit = cache
            .get(7)
            .expect("fingerprint 7 was stored")
            .downcast::<String>()
            .expect("value downcasts to the stored type");
        assert_eq!(*hit, "subpage-7");
        assert!(cache.get(8).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 1, 0));
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn subtree_cache_evicts_least_recently_used() {
        let cache = SubtreeCache::new(2);
        cache.put(1, Arc::new(1u32) as Arc<dyn Any + Send + Sync>);
        cache.put(2, Arc::new(2u32) as Arc<dyn Any + Send + Sync>);
        // Touch 1 so 2 becomes the LRU entry, then overflow.
        assert!(cache.get(1).is_some());
        cache.put(3, Arc::new(3u32) as Arc<dyn Any + Send + Sync>);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(2).is_none(), "LRU entry must be evicted");
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn subtree_cache_capacity_floor_is_one() {
        let cache = SubtreeCache::new(0);
        cache.put(1, Arc::new(()) as Arc<dyn Any + Send + Sync>);
        cache.put(2, Arc::new(()) as Arc<dyn Any + Send + Sync>);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(2).is_some());
    }
}
