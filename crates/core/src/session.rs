//! Multi-user session management and the per-user session filesystem,
//! rebuilt as a sharded, memory-bounded store.
//!
//! The paper: "Upon starting a mobile session for the first time, the
//! mobile browser is issued a session cookie for maintaining state on the
//! server. All of the files generated during a user's session are stored
//! in the file system under a (protected) subdirectory created
//! specifically for that user." The proxy also keeps a cookie jar and
//! stored HTTP-auth credentials per session.
//!
//! The seed's `SessionManager` kept every session forever: a global
//! `HashMap`, a creation-order `Vec`, and an unbounded virtual
//! filesystem. A million distinct users would OOM the proxy long before
//! throughput is the limit, and its `prune_to` bound was a check-then-act
//! race (a concurrent create between the length check and the destroy
//! left the store over its bound, with the victim's directory orphaned).
//!
//! [`SessionStore`] replaces it:
//!
//! - **Lock striping.** The id space is FNV-1a–split across shards
//!   (mirroring the render cache), each with its own mutex, slot map,
//!   and a `BTreeMap` LRU order index, so unrelated sessions never
//!   serialize and eviction is O(log n), not a map scan.
//! - **Bounds.** `max_sessions` caps live sessions; `session_ttl` is an
//!   idle timeout (sliding, refreshed on touch); the session
//!   filesystem's per-user bytes are capped by `fs_byte_budget`.
//!   Admission works by *reservation*: a creator increments the live
//!   counters first and, if over a bound, evicts a victim before
//!   inserting — the victim's removal, order-index update, and
//!   accounting all happen under one shard lock, so there is no window
//!   in which the store is over its bound and no orphaned directory.
//! - **Tenant isolation.** Every session belongs to a *tenant* (the
//!   proxy derives it from the origin site's host). A tenant may hold
//!   at most `ceil(max_sessions * tenant_share)` sessions; at quota it
//!   evicts **its own** least-recently-used session, and the global
//!   bound always evicts from the most-occupied tenant — so one hot
//!   forum can neither evict everyone else's jars nor starve their
//!   session directories.
//! - **Lazy teardown.** Eviction removes the slot under the shard lock,
//!   then wipes the victim's `SessionFs` directory and runs registered
//!   eviction hooks (the proxy drops its per-user bundle) outside any
//!   store lock.
//!
//! The "filesystem" here is virtual (an in-memory tree) so tests and
//! benchmarks need no disk; [`SessionFs::export`] dumps it to a real
//! directory for the live examples. It buckets files per session
//! directory, so teardown is O(files in that directory) and per-session
//! byte accounting is free.

use msite_net::{CookieJar, Prng};
use msite_support::bytes::Bytes;
use msite_support::sync::Mutex;
use msite_support::telemetry::{Counter, Gauge, MetricsRegistry};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The cookie the proxy issues to mobile clients.
pub const SESSION_COOKIE: &str = "msite_session";

/// Tenant label used when the caller does not distinguish tenants.
pub const DEFAULT_TENANT: &str = "default";

/// Per-user state held by the proxy.
#[derive(Debug, Default)]
pub struct Session {
    /// Session identifier (the cookie value).
    pub id: String,
    /// Tenant (origin site) this session belongs to.
    pub tenant: String,
    /// The user's cookie jar for origin fetches ("the proxy itself must
    /// be authenticated on behalf of the user").
    pub jar: CookieJar,
    /// Stored HTTP Basic credentials, when the auth attribute captured
    /// them.
    pub http_auth: Option<(String, String)>,
}

/// Why a session left the store involuntarily.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictCause {
    /// The global `max_sessions` bound was reached.
    Lru,
    /// The session's tenant was at its quota.
    Quota,
    /// The idle TTL lapsed.
    Expired,
    /// The session filesystem was over its byte budget.
    FsBytes,
}

impl EvictCause {
    /// Stable token for metric labels.
    pub fn name(self) -> &'static str {
        match self {
            EvictCause::Lru => "lru",
            EvictCause::Quota => "quota",
            EvictCause::Expired => "expired",
            EvictCause::FsBytes => "fs_bytes",
        }
    }

    /// Every cause, in label order.
    pub fn all() -> [EvictCause; 4] {
        [
            EvictCause::Lru,
            EvictCause::Quota,
            EvictCause::Expired,
            EvictCause::FsBytes,
        ]
    }
}

/// Bounds and seeds for a [`SessionStore`].
#[derive(Debug, Clone)]
pub struct SessionStoreConfig {
    /// Maximum live sessions across all tenants.
    pub max_sessions: usize,
    /// Idle timeout: a session untouched for this long expires. `None`
    /// disables expiry.
    pub session_ttl: Option<Duration>,
    /// Byte budget for per-session directories in the [`SessionFs`];
    /// exceeding it evicts least-recently-used sessions (preferring
    /// ones that own bytes) until back under.
    pub fs_byte_budget: usize,
    /// Fraction of `max_sessions` one tenant may occupy, in (0, 1].
    pub tenant_share: f64,
    /// Seed for session-id generation (deterministic for tests, pass
    /// entropy in production).
    pub seed: u64,
}

impl Default for SessionStoreConfig {
    fn default() -> Self {
        SessionStoreConfig {
            max_sessions: 4096,
            session_ttl: Some(Duration::from_secs(1800)),
            fs_byte_budget: 64 * 1024 * 1024,
            tenant_share: 1.0,
            seed: 0x6d_73_69_74_65, // "msite"
        }
    }
}

/// Counter snapshot of a [`SessionStore`]: a read-back of the
/// `msite_session_*` series it updates in the registry it was built
/// with. The conservation invariant
/// `live + destroyed + evicted_total() == created` holds whenever the
/// store is quiescent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStoreStats {
    /// Sessions ever created.
    pub created: u64,
    /// Sessions currently live.
    pub live: u64,
    /// Sessions explicitly destroyed (logout).
    pub destroyed: u64,
    /// Evictions by the global LRU bound.
    pub evicted_lru: u64,
    /// Evictions by a tenant quota.
    pub evicted_quota: u64,
    /// Evictions by idle-TTL expiry.
    pub evicted_expired: u64,
    /// Evictions by the session-filesystem byte budget.
    pub evicted_fs_bytes: u64,
}

impl SessionStoreStats {
    /// Total involuntary removals, over every cause.
    pub fn evicted_total(&self) -> u64 {
        self.evicted_lru + self.evicted_quota + self.evicted_expired + self.evicted_fs_bytes
    }
}

/// A count the store bounds itself by (live sessions, a tenant's live
/// sessions, session-directory bytes), published to a registry gauge.
/// The count stays private so stores that share a registry never share
/// bounds; the gauge moves by the same steps at the same sites.
struct Occupancy {
    count: AtomicI64,
    gauge: Arc<Gauge>,
}

impl Occupancy {
    fn new(gauge: Arc<Gauge>) -> Occupancy {
        Occupancy {
            count: AtomicI64::new(0),
            gauge,
        }
    }

    fn add(&self, n: i64) {
        self.count.fetch_add(n, Ordering::Relaxed);
        self.gauge.add(n);
    }

    fn get(&self) -> i64 {
        self.count.load(Ordering::Relaxed)
    }
}

/// Per-tenant accounting, shared between the slot (for O(1) decrement
/// on eviction) and the tenant registry.
struct TenantState {
    name: String,
    /// `msite_session_tenant_live{tenant}`.
    live: Occupancy,
    created: AtomicU64,
    evicted: AtomicU64,
}

struct Slot {
    session: Arc<Mutex<Session>>,
    tenant: Arc<TenantState>,
    /// LRU tick; also the slot's key in the shard's order index.
    last_used: u64,
    /// Idle deadline (refreshed on touch); `None` = no TTL.
    expires_at: Option<Instant>,
}

#[derive(Default)]
struct ShardInner {
    slots: HashMap<String, Slot>,
    /// LRU order: tick -> session id. Ticks are unique per shard, so
    /// the oldest entry is `order.iter().next()`.
    order: BTreeMap<u64, String>,
    clock: u64,
}

/// A session removed from a shard, to be finished (fs teardown, hooks,
/// cause accounting) outside the shard lock.
struct Removed {
    id: String,
    tenant: Arc<TenantState>,
}

/// Hook run (outside store locks) with the id of every evicted or
/// destroyed session; the proxy uses it to drop per-user bundles.
pub type EvictHook = Arc<dyn Fn(&str) + Send + Sync>;

/// Sharded, bounded, tenant-aware session store. See the module docs
/// for the design.
pub struct SessionStore {
    shards: Vec<Mutex<ShardInner>>,
    config: SessionStoreConfig,
    fs: Arc<SessionFs>,
    id_source: Mutex<Prng>,
    tenants: Mutex<HashMap<String, Arc<TenantState>>>,
    /// Interns the per-tenant live gauges as tenants appear.
    registry: Arc<MetricsRegistry>,
    /// `msite_session_live`: the admission reservation count.
    live: Occupancy,
    created: Arc<Counter>,
    destroyed: Arc<Counter>,
    /// `msite_session_evictions_total{cause}`, in [`EvictCause::all`]
    /// order.
    evicted: [Arc<Counter>; 4],
    /// Test/harness clock offset (micros) added to `Instant::now()`, so
    /// TTL behavior can be driven without real sleeps.
    time_offset_micros: AtomicU64,
    evict_hooks: Mutex<Vec<EvictHook>>,
}

impl SessionStore {
    /// Creates a store over `fs` (evicted sessions' directories are
    /// wiped there) that counts into a private registry.
    pub fn new(config: SessionStoreConfig, fs: Arc<SessionFs>) -> SessionStore {
        SessionStore::with_metrics(config, fs, Arc::new(MetricsRegistry::new()))
    }

    /// Creates a store over `fs` that counts its `msite_session_*`
    /// series into `registry`: created, destroyed and evicted-by-cause
    /// counters, live and per-tenant live gauges, and the configured
    /// `msite_session_max` / `msite_session_fs_budget`, set here once.
    pub fn with_metrics(
        config: SessionStoreConfig,
        fs: Arc<SessionFs>,
        registry: Arc<MetricsRegistry>,
    ) -> SessionStore {
        let shard_count = (config.max_sessions / 32).clamp(1, 16);
        registry
            .gauge("msite_session_max", &[])
            .set(config.max_sessions as i64);
        registry
            .gauge("msite_session_fs_budget", &[])
            .set(config.fs_byte_budget as i64);
        SessionStore {
            shards: (0..shard_count)
                .map(|_| Mutex::new(ShardInner::default()))
                .collect(),
            id_source: Mutex::new(Prng::new(config.seed)),
            tenants: Mutex::new(HashMap::new()),
            live: Occupancy::new(registry.gauge("msite_session_live", &[])),
            created: registry.counter("msite_session_created_total", &[]),
            destroyed: registry.counter("msite_session_destroyed_total", &[]),
            evicted: EvictCause::all().map(|cause| {
                registry.counter("msite_session_evictions_total", &[("cause", cause.name())])
            }),
            registry,
            time_offset_micros: AtomicU64::new(0),
            evict_hooks: Mutex::new(Vec::new()),
            config,
            fs,
        }
    }

    /// The bounds this store enforces.
    pub fn config(&self) -> &SessionStoreConfig {
        &self.config
    }

    /// The session filesystem this store accounts against.
    pub fn fs(&self) -> &Arc<SessionFs> {
        &self.fs
    }

    /// Registers a hook run (outside store locks) with every evicted or
    /// destroyed session id. Multiple proxies sharing a store each
    /// register their own.
    pub fn add_evict_hook(&self, hook: EvictHook) {
        self.evict_hooks.lock().push(hook);
    }

    /// Max sessions a single tenant may hold.
    pub fn tenant_quota(&self) -> usize {
        let share = if self.config.tenant_share > 0.0 && self.config.tenant_share <= 1.0 {
            self.config.tenant_share
        } else {
            1.0
        };
        ((self.config.max_sessions as f64 * share).ceil() as usize)
            .clamp(1, self.config.max_sessions.max(1))
    }

    fn now(&self) -> Instant {
        Instant::now() + Duration::from_micros(self.time_offset_micros.load(Ordering::Relaxed))
    }

    /// Advances the store's notion of "now" by `delta` — a harness hook
    /// that makes TTL tests deterministic without sleeping.
    pub fn advance_clock(&self, delta: Duration) {
        self.time_offset_micros
            .fetch_add(delta.as_micros() as u64, Ordering::Relaxed);
    }

    fn shard_of(&self, id: &str) -> usize {
        if self.shards.len() == 1 {
            return 0;
        }
        let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
        for byte in id.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01B3);
        }
        (hash % self.shards.len() as u64) as usize
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn tenant_state(&self, tenant: &str) -> Arc<TenantState> {
        let mut tenants = self.tenants.lock();
        if let Some(state) = tenants.get(tenant) {
            return Arc::clone(state);
        }
        let state = Arc::new(TenantState {
            name: tenant.to_string(),
            live: Occupancy::new(
                self.registry
                    .gauge("msite_session_tenant_live", &[("tenant", tenant)]),
            ),
            created: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        });
        tenants.insert(tenant.to_string(), Arc::clone(&state));
        state
    }

    /// Creates a fresh session for `tenant` and returns its handle,
    /// evicting within bounds first (see the module docs).
    pub fn create(&self, tenant: &str) -> Arc<Mutex<Session>> {
        let tenant_state = self.tenant_state(tenant);
        self.created.inc();
        tenant_state.created.fetch_add(1, Ordering::Relaxed);

        // Reservation: count ourselves live first, then evict while any
        // bound is exceeded. The eviction itself is atomic per shard, so
        // the store is never left over a bound by a concurrent create.
        // A full-share quota equals the global bound and is subsumed by
        // it (those evictions are plain LRU, not quota enforcement).
        let quota = self.tenant_quota();
        tenant_state.live.add(1);
        if quota < self.config.max_sessions {
            while tenant_state.live.get() > quota as i64 {
                if !self.evict_one(Some(&tenant_state), EvictCause::Quota) {
                    break;
                }
            }
        }
        self.live.add(1);
        // Loop until the bound holds again rather than evicting exactly
        // once: a concurrent eviction can race this one for the same
        // victim, and a single losing attempt would strand the store
        // over bound permanently. Re-reading the counter self-heals —
        // whichever creator still sees an excess claims the next
        // victim; when both scans find nothing the excess is purely
        // other creators' reservations, which they settle themselves.
        while self.live.get() > self.config.max_sessions as i64 {
            // The global bound always claims its victim from the most
            // occupied tenant, so a saturated tenant cannot push anyone
            // else's sessions out.
            let hog = self.most_occupied_tenant().unwrap_or_else(|| {
                // No other tenant registered yet: we are the hog.
                Arc::clone(&tenant_state)
            });
            if !self.evict_one(Some(&hog), EvictCause::Lru)
                && !self.evict_one(None, EvictCause::Lru)
            {
                break;
            }
        }
        self.enforce_fs_budget();

        let id = {
            let mut rng = self.id_source.lock();
            format!("{:016x}{:016x}", rng.next_u64(), rng.next_u64())
        };
        let session = Arc::new(Mutex::new(Session {
            id: id.clone(),
            tenant: tenant.to_string(),
            jar: CookieJar::new(),
            http_auth: None,
        }));
        let expires_at = self.config.session_ttl.map(|ttl| self.now() + ttl);
        let mut shard = self.shards[self.shard_of(&id)].lock();
        shard.clock += 1;
        let tick = shard.clock;
        shard.order.insert(tick, id.clone());
        shard.slots.insert(
            id,
            Slot {
                session: Arc::clone(&session),
                tenant: tenant_state,
                last_used: tick,
                expires_at,
            },
        );
        session
    }

    /// Looks up a live session by cookie value, scoped to `tenant`: a
    /// cookie replayed against another tenant's proxy misses (per-tenant
    /// isolation). Touching refreshes the LRU position and idle TTL; an
    /// expired session is removed (cause `expired`) and misses.
    pub fn get(&self, id: &str, tenant: &str) -> Option<Arc<Mutex<Session>>> {
        let now = self.now();
        let removed = {
            let mut shard = self.shards[self.shard_of(id)].lock();
            let (wrong_tenant, expired, old_tick) = {
                let slot = shard.slots.get(id)?;
                (
                    slot.tenant.name != tenant,
                    slot.expires_at.map(|t| now >= t).unwrap_or(false),
                    slot.last_used,
                )
            };
            if wrong_tenant {
                return None;
            }
            if expired {
                let slot = shard.slots.remove(id).expect("slot present");
                shard.order.remove(&old_tick);
                Removed {
                    id: id.to_string(),
                    tenant: slot.tenant,
                }
            } else {
                shard.clock += 1;
                let tick = shard.clock;
                shard.order.remove(&old_tick);
                shard.order.insert(tick, id.to_string());
                let slot = shard.slots.get_mut(id).expect("slot present");
                slot.last_used = tick;
                slot.expires_at = self.config.session_ttl.map(|ttl| now + ttl);
                return Some(Arc::clone(&slot.session));
            }
        };
        self.finish_removal(removed, Some(EvictCause::Expired));
        None
    }

    /// Fetches the session named by the request cookie, or creates one.
    /// Returns `(session, was_created)`.
    pub fn get_or_create(
        &self,
        cookie_value: Option<&str>,
        tenant: &str,
    ) -> (Arc<Mutex<Session>>, bool) {
        if let Some(id) = cookie_value {
            if let Some(existing) = self.get(id, tenant) {
                return (existing, false);
            }
        }
        (self.create(tenant), true)
    }

    /// Ends a session (logout): drops its state, cookie jar, and
    /// session directory.
    pub fn destroy(&self, id: &str) -> bool {
        let removed = {
            let mut shard = self.shards[self.shard_of(id)].lock();
            match shard.slots.remove(id) {
                Some(slot) => {
                    shard.order.remove(&slot.last_used);
                    Removed {
                        id: id.to_string(),
                        tenant: slot.tenant,
                    }
                }
                None => return false,
            }
        };
        self.destroyed.inc();
        self.finish_removal(removed, None);
        true
    }

    /// The most occupied tenant (ties broken by name for determinism).
    fn most_occupied_tenant(&self) -> Option<Arc<TenantState>> {
        let tenants = self.tenants.lock();
        tenants
            .values()
            .max_by(|a, b| {
                a.live
                    .get()
                    .cmp(&b.live.get())
                    .then_with(|| b.name.cmp(&a.name))
            })
            .map(Arc::clone)
    }

    /// Evicts one session matching `filter` (its tenant, or any when
    /// `None`), preferring the globally least-recently-used candidate.
    /// Expired victims are accounted as `expired` regardless of the
    /// requested cause. Returns `false` when nothing matched.
    ///
    /// Two phases: a lock-per-shard scan picks the shard holding the
    /// oldest matching slot, then that shard is re-locked and its
    /// oldest matching slot removed *under the lock* — eviction is
    /// atomic per shard, so a concurrent create can interleave but
    /// never observe (or cause) a half-removed slot or a stale bound.
    fn evict_one(&self, filter: Option<&Arc<TenantState>>, cause: EvictCause) -> bool {
        let mut best: Option<(usize, u64)> = None;
        for (index, shard) in self.shards.iter().enumerate() {
            let inner = shard.lock();
            for (tick, id) in inner.order.iter() {
                let slot = &inner.slots[id];
                if filter.map(|t| Arc::ptr_eq(t, &slot.tenant)).unwrap_or(true) {
                    if best.map(|(_, t)| *tick < t).unwrap_or(true) {
                        best = Some((index, *tick));
                    }
                    break;
                }
            }
        }
        let Some((index, _)) = best else { return false };

        let now = self.now();
        let removed = {
            let mut shard = self.shards[index].lock();
            let victim = shard.order.iter().find_map(|(tick, id)| {
                let slot = &shard.slots[id];
                filter
                    .map(|t| Arc::ptr_eq(t, &slot.tenant))
                    .unwrap_or(true)
                    .then(|| (*tick, id.clone()))
            });
            let Some((tick, id)) = victim else {
                return false;
            };
            let slot = shard.slots.remove(&id).expect("victim present");
            shard.order.remove(&tick);
            let expired = slot.expires_at.map(|t| now >= t).unwrap_or(false);
            (
                Removed {
                    id,
                    tenant: slot.tenant,
                },
                expired,
            )
        };
        let (removed, expired) = removed;
        self.finish_removal(
            removed,
            Some(if expired { EvictCause::Expired } else { cause }),
        );
        true
    }

    /// Completes a removal outside any shard lock: counter upkeep,
    /// lazy directory teardown, and eviction hooks.
    fn finish_removal(&self, removed: Removed, cause: Option<EvictCause>) {
        self.live.add(-1);
        removed.tenant.live.add(-1);
        if let Some(cause) = cause {
            removed.tenant.evicted.fetch_add(1, Ordering::Relaxed);
            self.evicted[cause as usize].inc();
        }
        self.fs.remove_session(&removed.id);
        let hooks: Vec<EvictHook> = self.evict_hooks.lock().clone();
        for hook in hooks {
            hook(&removed.id);
        }
    }

    /// Evicts least-recently-used sessions owning filesystem bytes
    /// until the session directories fit the byte budget. Amortized:
    /// called from `create`, and callable directly by harnesses. When
    /// no live session owns bytes but the budget is still exceeded,
    /// the bytes belong to orphaned directories — reclaim those.
    pub fn enforce_fs_budget(&self) {
        let budget = self.config.fs_byte_budget;
        while self.fs.session_bytes() > budget {
            if !self.evict_one_with_bytes() && self.reclaim_orphan_dirs() == 0 {
                break;
            }
        }
    }

    /// Removes session directories whose owner is no longer live and
    /// returns how many were reclaimed. Teardown is lazy and eviction
    /// races in-flight artifact writes: a request thread holding a
    /// session `Arc` can write a file *after* the store evicted that
    /// session and wiped its directory, leaving orphan bytes no future
    /// eviction can attribute. This sweep reconciles the filesystem
    /// with the live set; `enforce_fs_budget` falls back to it.
    pub fn reclaim_orphan_dirs(&self) -> usize {
        let mut reclaimed = 0;
        for id in self.fs.session_ids() {
            let live = self.shards[self.shard_of(&id)]
                .lock()
                .slots
                .contains_key(&id);
            if !live && self.fs.remove_session(&id) > 0 {
                reclaimed += 1;
            }
        }
        reclaimed
    }

    /// Evicts the oldest session that owns filesystem bytes (cause
    /// `fs_bytes`). Sessions without a directory cannot reduce the
    /// budget, so they are skipped.
    fn evict_one_with_bytes(&self) -> bool {
        let mut best: Option<(usize, u64)> = None;
        for (index, shard) in self.shards.iter().enumerate() {
            let inner = shard.lock();
            for (tick, id) in inner.order.iter() {
                if self.fs.bytes_of(id) > 0 {
                    if best.map(|(_, t)| *tick < t).unwrap_or(true) {
                        best = Some((index, *tick));
                    }
                    break;
                }
            }
        }
        let Some((index, _)) = best else { return false };
        let removed = {
            let mut shard = self.shards[index].lock();
            let victim = shard
                .order
                .iter()
                .find_map(|(tick, id)| (self.fs.bytes_of(id) > 0).then(|| (*tick, id.clone())));
            let Some((tick, id)) = victim else {
                return false;
            };
            let slot = shard.slots.remove(&id).expect("victim present");
            shard.order.remove(&tick);
            Removed {
                id,
                tenant: slot.tenant,
            }
        };
        self.finish_removal(removed, Some(EvictCause::FsBytes));
        true
    }

    /// Removes every expired session now (cause `expired`). `get`
    /// already removes expired sessions lazily; this sweep is for
    /// harnesses that want deterministic occupancy numbers.
    pub fn sweep_expired(&self) -> usize {
        let now = self.now();
        let mut swept = 0;
        for shard in &self.shards {
            loop {
                let removed = {
                    let mut inner = shard.lock();
                    let victim = inner.order.iter().find_map(|(tick, id)| {
                        inner.slots[id]
                            .expires_at
                            .map(|t| now >= t)
                            .unwrap_or(false)
                            .then(|| (*tick, id.clone()))
                    });
                    match victim {
                        Some((tick, id)) => {
                            let slot = inner.slots.remove(&id).expect("slot present");
                            inner.order.remove(&tick);
                            Removed {
                                id,
                                tenant: slot.tenant,
                            }
                        }
                        None => break,
                    }
                };
                self.finish_removal(removed, Some(EvictCause::Expired));
                swept += 1;
            }
        }
        swept
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.live.get().max(0) as usize
    }

    /// True when no sessions exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live sessions of one tenant.
    pub fn tenant_live(&self, tenant: &str) -> usize {
        self.tenants
            .lock()
            .get(tenant)
            .map(|t| t.live.get().max(0) as usize)
            .unwrap_or(0)
    }

    /// Per-tenant `(name, live, created, evicted)` occupancy, sorted by
    /// name.
    pub fn tenant_occupancy(&self) -> Vec<(String, usize, u64, u64)> {
        let mut rows: Vec<(String, usize, u64, u64)> = self
            .tenants
            .lock()
            .values()
            .map(|t| {
                (
                    t.name.clone(),
                    t.live.get().max(0) as usize,
                    t.created.load(Ordering::Relaxed),
                    t.evicted.load(Ordering::Relaxed),
                )
            })
            .collect();
        rows.sort();
        rows
    }

    /// Counter snapshot, read back from the registry series. When
    /// several stores share a registry the series, and so these
    /// fields, cover all of them; [`Self::len`] stays this store's own.
    pub fn stats(&self) -> SessionStoreStats {
        let [lru, quota, expired, fs_bytes] = &self.evicted;
        SessionStoreStats {
            created: self.created.get(),
            live: self.live.gauge.get().max(0) as u64,
            destroyed: self.destroyed.get(),
            evicted_lru: lru.get(),
            evicted_quota: quota.get(),
            evicted_expired: expired.get(),
            evicted_fs_bytes: fs_bytes.get(),
        }
    }

    /// Estimated heap bytes held by the store itself: ids (slot key,
    /// session field, order index), cookie jars, and fixed per-slot
    /// overhead. The capacity harness asserts this against its memory
    /// ceiling; `SessionFs` bytes are accounted separately.
    pub fn estimated_bytes(&self) -> usize {
        // HashMap + BTreeMap entries, Arc<Mutex<Session>> + Slot.
        const SLOT_OVERHEAD: usize = 256;
        let mut total = 0;
        for shard in &self.shards {
            let inner = shard.lock();
            for (id, slot) in inner.slots.iter() {
                let session = slot.session.lock();
                total += id.len() * 3
                    + session.tenant.len()
                    + session.jar.approx_bytes()
                    + session
                        .http_auth
                        .as_ref()
                        .map(|(u, p)| u.len() + p.len())
                        .unwrap_or(0)
                    + SLOT_OVERHEAD;
            }
        }
        total
    }
}

impl std::fmt::Debug for SessionStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionStore")
            .field("config", &self.config)
            .field("live", &self.len())
            .field("shards", &self.shards.len())
            .finish()
    }
}

/// A virtual filesystem of generated artifacts: per-user subpages and
/// images under protected session directories, plus a shared public
/// cache directory.
///
/// Files are bucketed per session directory (sharded by session id) so
/// a session's teardown touches only its own files, and per-directory
/// byte accounting is maintained on every write — the session store
/// enforces its `fs_byte_budget` against [`SessionFs::session_bytes`].
pub struct SessionFs {
    /// Session directories, sharded by session id (FNV-1a).
    shards: Vec<Mutex<HashMap<String, Dir>>>,
    public: Mutex<HashMap<String, Bytes>>,
    /// `msite_session_fs_bytes`: the bytes the store's budget bounds.
    session_bytes: Occupancy,
    public_bytes: AtomicU64,
}

struct Dir {
    files: HashMap<String, Bytes>,
    bytes: usize,
}

const FS_SHARDS: usize = 16;

impl Default for SessionFs {
    fn default() -> Self {
        SessionFs::with_metrics(&MetricsRegistry::new())
    }
}

/// Splits a canonical session path into `(session_id, relative_path)`.
fn split_session_path(path: &str) -> Option<(&str, &str)> {
    let rest = path.strip_prefix("/sessions/")?;
    let (id, rel) = rest.split_once('/')?;
    (!id.is_empty() && !rel.is_empty()).then_some((id, rel))
}

impl SessionFs {
    /// Creates an empty tree that counts into a private registry.
    pub fn new() -> SessionFs {
        SessionFs::default()
    }

    /// Creates an empty tree that publishes its session-directory
    /// bytes as the `msite_session_fs_bytes` gauge of `registry`.
    pub fn with_metrics(registry: &MetricsRegistry) -> SessionFs {
        SessionFs {
            shards: (0..FS_SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            public: Mutex::new(HashMap::new()),
            session_bytes: Occupancy::new(registry.gauge("msite_session_fs_bytes", &[])),
            public_bytes: AtomicU64::new(0),
        }
    }

    /// Canonical path of a per-user file.
    pub fn user_path(session_id: &str, name: &str) -> String {
        format!("/sessions/{session_id}/{name}")
    }

    /// Canonical path of a shared public-cache file.
    pub fn public_path(name: &str) -> String {
        format!("/public/{name}")
    }

    fn shard_for(&self, session_id: &str) -> &Mutex<HashMap<String, Dir>> {
        let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
        for byte in session_id.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01B3);
        }
        &self.shards[(hash % self.shards.len() as u64) as usize]
    }

    /// Writes a file, replacing any previous contents at `path`.
    pub fn write(&self, path: &str, contents: impl Into<Bytes>) {
        let contents = contents.into();
        match split_session_path(path) {
            Some((id, rel)) => {
                let mut shard = self.shard_for(id).lock();
                let dir = shard.entry(id.to_string()).or_insert_with(|| Dir {
                    files: HashMap::new(),
                    bytes: 0,
                });
                let new_len = contents.len();
                let old_len = dir
                    .files
                    .insert(rel.to_string(), contents)
                    .map(|old| old.len())
                    .unwrap_or(0);
                dir.bytes = dir.bytes + new_len - old_len;
                self.session_bytes.add(new_len as i64 - old_len as i64);
            }
            None => {
                let mut public = self.public.lock();
                let new_len = contents.len();
                let old_len = public
                    .insert(path.to_string(), contents)
                    .map(|old| old.len())
                    .unwrap_or(0);
                if new_len >= old_len {
                    self.public_bytes
                        .fetch_add((new_len - old_len) as u64, Ordering::Relaxed);
                } else {
                    self.public_bytes
                        .fetch_sub((old_len - new_len) as u64, Ordering::Relaxed);
                }
            }
        }
    }

    /// Reads a file.
    pub fn read(&self, path: &str) -> Option<Bytes> {
        match split_session_path(path) {
            Some((id, rel)) => self
                .shard_for(id)
                .lock()
                .get(id)
                .and_then(|dir| dir.files.get(rel))
                .cloned(),
            None => self.public.lock().get(path).cloned(),
        }
    }

    /// Deletes one user's entire directory, returning the file count —
    /// session teardown. O(files in that directory).
    pub fn remove_session(&self, session_id: &str) -> usize {
        let removed = self.shard_for(session_id).lock().remove(session_id);
        match removed {
            Some(dir) => {
                self.session_bytes.add(-(dir.bytes as i64));
                dir.files.len()
            }
            None => 0,
        }
    }

    /// All stored paths, sorted (diagnostics and tests).
    pub fn paths(&self) -> Vec<String> {
        let mut paths: Vec<String> = self.public.lock().keys().cloned().collect();
        for shard in &self.shards {
            for (id, dir) in shard.lock().iter() {
                for rel in dir.files.keys() {
                    paths.push(format!("/sessions/{id}/{rel}"));
                }
            }
        }
        paths.sort();
        paths
    }

    /// Total bytes stored (session directories + public cache).
    pub fn total_bytes(&self) -> usize {
        self.session_bytes() + self.public_bytes.load(Ordering::Relaxed) as usize
    }

    /// Bytes held by per-session directories (the budgeted portion).
    pub fn session_bytes(&self) -> usize {
        self.session_bytes.get().max(0) as usize
    }

    /// Bytes held by one session's directory.
    pub fn bytes_of(&self, session_id: &str) -> usize {
        self.shard_for(session_id)
            .lock()
            .get(session_id)
            .map(|dir| dir.bytes)
            .unwrap_or(0)
    }

    /// Number of session directories currently present.
    pub fn session_dirs(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Ids of every session directory currently present (orphan
    /// reconciliation walks this).
    pub fn session_ids(&self) -> Vec<String> {
        let mut ids = Vec::new();
        for shard in &self.shards {
            ids.extend(shard.lock().keys().cloned());
        }
        ids
    }

    /// Dumps the tree under a real directory (for the live examples).
    ///
    /// # Errors
    ///
    /// Returns IO errors from directory creation or writes.
    pub fn export(&self, root: &std::path::Path) -> std::io::Result<usize> {
        let mut written = 0;
        let write_one = |path: &str, contents: &Bytes| -> std::io::Result<()> {
            let rel = path.trim_start_matches('/');
            let full = root.join(rel);
            if let Some(parent) = full.parent() {
                std::fs::create_dir_all(parent)?;
            }
            std::fs::write(full, contents)?;
            Ok(())
        };
        for (path, contents) in self.public.lock().iter() {
            write_one(path, contents)?;
            written += 1;
        }
        for shard in &self.shards {
            for (id, dir) in shard.lock().iter() {
                for (rel, contents) in dir.files.iter() {
                    write_one(&format!("/sessions/{id}/{rel}"), contents)?;
                    written += 1;
                }
            }
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msite_net::Cookie;

    fn store(config: SessionStoreConfig) -> SessionStore {
        SessionStore::new(config, Arc::new(SessionFs::new()))
    }

    fn small(max_sessions: usize) -> SessionStore {
        store(SessionStoreConfig {
            max_sessions,
            session_ttl: None,
            ..SessionStoreConfig::default()
        })
    }

    #[test]
    fn sessions_have_unique_ids() {
        let mgr = small(16);
        let a = mgr.create(DEFAULT_TENANT);
        let b = mgr.create(DEFAULT_TENANT);
        assert_ne!(a.lock().id, b.lock().id);
        assert_eq!(mgr.len(), 2);
    }

    #[test]
    fn get_or_create_reuses() {
        let mgr = small(16);
        let (first, created) = mgr.get_or_create(None, DEFAULT_TENANT);
        assert!(created);
        let id = first.lock().id.clone();
        let (second, created) = mgr.get_or_create(Some(&id), DEFAULT_TENANT);
        assert!(!created);
        assert_eq!(second.lock().id, id);
        // Unknown cookie value: fresh session.
        let (_, created) = mgr.get_or_create(Some("stale"), DEFAULT_TENANT);
        assert!(created);
    }

    #[test]
    fn jars_are_isolated_per_session() {
        let mgr = small(16);
        let a = mgr.create(DEFAULT_TENANT);
        let b = mgr.create(DEFAULT_TENANT);
        a.lock().jar.store(Cookie::new("bbuserid", "1"), 0);
        assert_eq!(a.lock().jar.len(), 1);
        assert_eq!(b.lock().jar.len(), 0);
    }

    #[test]
    fn destroy_removes_state() {
        let mgr = small(16);
        let s = mgr.create(DEFAULT_TENANT);
        let id = s.lock().id.clone();
        assert!(mgr.destroy(&id));
        assert!(!mgr.destroy(&id));
        assert!(mgr.get(&id, DEFAULT_TENANT).is_none());
        let stats = mgr.stats();
        assert_eq!(stats.destroyed, 1);
        assert_eq!(stats.live, 0);
    }

    #[test]
    fn lru_bound_evicts_oldest_first() {
        let mgr = small(2);
        let ids: Vec<String> = (0..4)
            .map(|_| mgr.create(DEFAULT_TENANT).lock().id.clone())
            .collect();
        assert_eq!(mgr.len(), 2);
        assert!(mgr.get(&ids[0], DEFAULT_TENANT).is_none());
        assert!(mgr.get(&ids[1], DEFAULT_TENANT).is_none());
        assert!(mgr.get(&ids[3], DEFAULT_TENANT).is_some());
        assert_eq!(mgr.stats().evicted_lru, 2);
    }

    #[test]
    fn touch_protects_from_eviction() {
        let mgr = small(2);
        let a = mgr.create(DEFAULT_TENANT).lock().id.clone();
        let b = mgr.create(DEFAULT_TENANT).lock().id.clone();
        // Touch a so b becomes the LRU victim.
        assert!(mgr.get(&a, DEFAULT_TENANT).is_some());
        mgr.create(DEFAULT_TENANT);
        assert!(mgr.get(&a, DEFAULT_TENANT).is_some());
        assert!(mgr.get(&b, DEFAULT_TENANT).is_none());
    }

    #[test]
    fn idle_ttl_expires_sessions() {
        let mgr = store(SessionStoreConfig {
            max_sessions: 8,
            session_ttl: Some(Duration::from_secs(60)),
            ..SessionStoreConfig::default()
        });
        let id = mgr.create("t").lock().id.clone();
        mgr.advance_clock(Duration::from_secs(30));
        // A touch refreshes the idle deadline.
        assert!(mgr.get(&id, "t").is_some());
        mgr.advance_clock(Duration::from_secs(45));
        assert!(mgr.get(&id, "t").is_some());
        mgr.advance_clock(Duration::from_secs(61));
        assert!(mgr.get(&id, "t").is_none());
        assert_eq!(mgr.stats().evicted_expired, 1);
        assert_eq!(mgr.len(), 0);
    }

    #[test]
    fn sweep_expired_reclaims_untouched_sessions() {
        let mgr = store(SessionStoreConfig {
            max_sessions: 8,
            session_ttl: Some(Duration::from_secs(10)),
            ..SessionStoreConfig::default()
        });
        for _ in 0..5 {
            mgr.create("t");
        }
        mgr.advance_clock(Duration::from_secs(11));
        assert_eq!(mgr.sweep_expired(), 5);
        assert_eq!(mgr.len(), 0);
        assert_eq!(mgr.stats().evicted_expired, 5);
    }

    #[test]
    fn tenant_quota_evicts_own_sessions_only() {
        let mgr = store(SessionStoreConfig {
            max_sessions: 10,
            session_ttl: None,
            tenant_share: 0.5,
            ..SessionStoreConfig::default()
        });
        assert_eq!(mgr.tenant_quota(), 5);
        let b_ids: Vec<String> = (0..3).map(|_| mgr.create("b").lock().id.clone()).collect();
        // Tenant a floods far past its quota.
        for _ in 0..40 {
            mgr.create("a");
        }
        assert_eq!(mgr.tenant_live("a"), 5, "a capped at quota");
        assert_eq!(mgr.tenant_live("b"), 3, "b untouched by a's flood");
        for id in &b_ids {
            assert!(mgr.get(id, "b").is_some(), "b session survived");
        }
        assert_eq!(mgr.stats().evicted_quota, 35);
    }

    #[test]
    fn tenant_isolation_on_lookup() {
        let mgr = small(8);
        let id = mgr.create("a").lock().id.clone();
        assert!(mgr.get(&id, "b").is_none(), "cookie replay across tenants");
        assert!(mgr.get(&id, "a").is_some(), "replay did not destroy it");
    }

    #[test]
    fn eviction_wipes_session_directory() {
        let fs = Arc::new(SessionFs::new());
        let mgr = SessionStore::new(
            SessionStoreConfig {
                max_sessions: 1,
                session_ttl: None,
                ..SessionStoreConfig::default()
            },
            Arc::clone(&fs),
        );
        let a = mgr.create("t").lock().id.clone();
        fs.write(&SessionFs::user_path(&a, "s/x.html"), "hello");
        assert_eq!(fs.session_dirs(), 1);
        mgr.create("t");
        assert_eq!(fs.session_dirs(), 0, "victim directory torn down");
        assert_eq!(fs.bytes_of(&a), 0);
    }

    #[test]
    fn fs_budget_evicts_byte_owners() {
        let fs = Arc::new(SessionFs::new());
        let mgr = SessionStore::new(
            SessionStoreConfig {
                max_sessions: 16,
                session_ttl: None,
                fs_byte_budget: 100,
                ..SessionStoreConfig::default()
            },
            Arc::clone(&fs),
        );
        let ids: Vec<String> = (0..4).map(|_| mgr.create("t").lock().id.clone()).collect();
        for id in &ids {
            fs.write(&SessionFs::user_path(id, "f"), vec![0u8; 40]);
        }
        assert_eq!(fs.session_bytes(), 160);
        mgr.enforce_fs_budget();
        assert!(fs.session_bytes() <= 100, "bytes {}", fs.session_bytes());
        // The oldest byte-owners went; the newest survived.
        assert!(mgr.get(&ids[3], "t").is_some());
        assert!(mgr.stats().evicted_fs_bytes >= 1);
        // Sessions without bytes are never chosen, so the store can
        // stay above the eviction count implied by the byte math.
        assert_eq!(mgr.len() + mgr.stats().evicted_fs_bytes as usize, 4);
    }

    #[test]
    fn evict_hooks_fire_outside_locks() {
        let mgr = small(1);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        mgr.add_evict_hook(Arc::new(move |id| seen2.lock().push(id.to_string())));
        let a = mgr.create("t").lock().id.clone();
        mgr.create("t");
        assert_eq!(*seen.lock(), vec![a]);
    }

    #[test]
    fn accounting_conserves() {
        let mgr = store(SessionStoreConfig {
            max_sessions: 4,
            session_ttl: None,
            tenant_share: 0.75,
            ..SessionStoreConfig::default()
        });
        let mut kept = Vec::new();
        for i in 0..30 {
            let tenant = if i % 3 == 0 { "a" } else { "b" };
            kept.push(mgr.create(tenant).lock().id.clone());
        }
        mgr.destroy(&kept[29]);
        let stats = mgr.stats();
        assert_eq!(
            stats.live + stats.destroyed + stats.evicted_total(),
            stats.created
        );
        assert!(mgr.len() <= 4);
    }

    #[test]
    fn estimated_bytes_tracks_jar_weight() {
        let mgr = small(8);
        let s = mgr.create("t");
        let before = mgr.estimated_bytes();
        s.lock()
            .jar
            .store(Cookie::new("bbsessionhash", &"x".repeat(500)), 0);
        assert!(mgr.estimated_bytes() > before + 400);
    }

    #[test]
    fn deterministic_ids_from_seed() {
        let config = SessionStoreConfig {
            seed: 7,
            ..SessionStoreConfig::default()
        };
        let a = store(config.clone()).create("t").lock().id.clone();
        let b = store(config).create("t").lock().id.clone();
        assert_eq!(a, b);
    }

    // ---------------------------------------------------------- fs --

    #[test]
    fn fs_user_isolation() {
        let fs = SessionFs::new();
        fs.write(&SessionFs::user_path("u1", "login.html"), "a");
        fs.write(&SessionFs::user_path("u1", "img/snap.png"), "b");
        fs.write(&SessionFs::user_path("u2", "login.html"), "c");
        fs.write(&SessionFs::public_path("snapshot.png"), "d");
        assert_eq!(fs.remove_session("u1"), 2);
        assert!(fs.read("/sessions/u1/login.html").is_none());
        assert!(fs.read("/sessions/u2/login.html").is_some());
        assert!(fs.read("/public/snapshot.png").is_some());
    }

    #[test]
    fn fs_accounting() {
        let fs = SessionFs::new();
        fs.write("/public/a", vec![0u8; 10]);
        fs.write("/public/b", vec![0u8; 5]);
        assert_eq!(fs.total_bytes(), 15);
        assert_eq!(
            fs.paths(),
            vec!["/public/a".to_string(), "/public/b".to_string()]
        );
    }

    #[test]
    fn fs_per_session_accounting() {
        let fs = SessionFs::new();
        fs.write(&SessionFs::user_path("u1", "a"), vec![0u8; 10]);
        fs.write(&SessionFs::user_path("u1", "b"), vec![0u8; 20]);
        fs.write(&SessionFs::user_path("u2", "a"), vec![0u8; 5]);
        fs.write(&SessionFs::public_path("p"), vec![0u8; 100]);
        assert_eq!(fs.bytes_of("u1"), 30);
        assert_eq!(fs.bytes_of("u2"), 5);
        assert_eq!(fs.session_bytes(), 35);
        assert_eq!(fs.total_bytes(), 135);
        // Replacing a file adjusts, not adds.
        fs.write(&SessionFs::user_path("u1", "b"), vec![0u8; 4]);
        assert_eq!(fs.bytes_of("u1"), 14);
        assert_eq!(fs.session_bytes(), 19);
        fs.remove_session("u1");
        assert_eq!(fs.session_bytes(), 5);
        assert_eq!(fs.session_dirs(), 1);
    }

    #[test]
    fn fs_export_to_disk() {
        let fs = SessionFs::new();
        fs.write(&SessionFs::public_path("x/y.txt"), "hello");
        let dir = std::env::temp_dir().join(format!("msite-fs-test-{}", std::process::id()));
        let written = fs.export(&dir).unwrap();
        assert_eq!(written, 1);
        let content = std::fs::read_to_string(dir.join("public/x/y.txt")).unwrap();
        assert_eq!(content, "hello");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
