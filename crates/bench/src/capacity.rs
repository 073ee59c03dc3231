//! Capacity: the §4.1 "Anticipated load" planning analysis plus the
//! million-user multi-tenant load harness that validates the sharded
//! session store under it.
//!
//! Two halves:
//!
//! - [`analyze`] (the `planning` experiment) turns Figure 7 throughput
//!   into the operational question §4.1 raises — 2.2 million hits/day,
//!   doubling every 18 months: *how many years of growth does one
//!   commodity box absorb under each architecture?*
//! - [`run`] (the `capacity` experiment) answers the question the
//!   planning numbers beg: a proxy that survives years of doubling
//!   accumulates *users*, not just requests. It sweeps a Zipf(~1.0)
//!   population of ≥1M distinct users across several tenant forums and
//!   device profiles against loopback proxies sharing one bounded
//!   [`SessionStore`], asserting a hard memory ceiling throughout while
//!   recording sustained req/s and p50/p99 from the live histograms.

use crate::fig7;
use crate::fixtures;
use msite::proxy::{ProxyConfig, ProxyServer};
use msite::{SessionStore, SessionStoreConfig, SESSION_COOKIE};
use msite_device::DeviceProfile;
use msite_net::{Origin, OriginRef, Prng, Request};
use msite_sites::{ForumConfig, ForumSite};
use msite_support::json::{obj, ToJson, Value};
use msite_support::telemetry::{metrics::LATENCY_MICROS_BOUNDS, Telemetry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The paper's §4.1 load facts.
#[derive(Debug, Clone, Copy)]
pub struct LoadModel {
    /// Hits per day today (paper: 2.2 million).
    pub hits_per_day: f64,
    /// Fraction of hits from mobile clients routed through the proxy.
    pub mobile_fraction: f64,
    /// Peak-to-average ratio (busy-hour factor).
    pub peak_factor: f64,
    /// Traffic doubling period in months (paper: 18).
    pub doubling_months: f64,
}

impl Default for LoadModel {
    fn default() -> Self {
        LoadModel {
            hits_per_day: 2_200_000.0,
            mobile_fraction: 0.10,
            peak_factor: 3.0,
            doubling_months: 18.0,
        }
    }
}

impl LoadModel {
    /// Peak mobile requests per minute today.
    pub fn peak_mobile_rpm(&self) -> f64 {
        self.hits_per_day * self.mobile_fraction * self.peak_factor / (24.0 * 60.0)
    }

    /// Months until the given throughput ceiling is exhausted, under
    /// exponential doubling. Negative when already over capacity.
    pub fn months_of_headroom(&self, capacity_rpm: f64) -> f64 {
        let now = self.peak_mobile_rpm();
        (capacity_rpm / now).log2() * self.doubling_months
    }
}

/// One architecture's capacity verdict.
#[derive(Debug, Clone)]
pub struct CapacityRow {
    /// Architecture label.
    pub architecture: String,
    /// Measured requests/min on one dual-core box.
    pub capacity_rpm: f64,
    /// Boxes needed for today's peak mobile load.
    pub boxes_today: f64,
    /// Months of growth one box absorbs (negative = already short).
    pub months_of_headroom: f64,
}

/// Runs the capacity analysis from a quick Figure 7 measurement.
pub fn analyze(load: &LoadModel) -> Vec<CapacityRow> {
    // Measure the two endpoints plus the mixed point the paper's design
    // targets (a snapshot re-render once an hour is far below 1%, so the
    // practical m.Site operating point is ~0% with a 1% safety case).
    let points = fig7::run_sweep(&fig7::SweepConfig {
        percents: vec![0.0, 1.0, 100.0],
        window: Duration::from_millis(800),
        trials: 2,
        workers: 2,
    });
    let rate = |p: f64| {
        points
            .iter()
            .find(|x| (x.percent_full_render - p).abs() < 1e-9)
            .map(|x| x.requests_per_minute)
            .unwrap_or(0.0)
    };
    let peak = load.peak_mobile_rpm();
    let row = |label: &str, capacity: f64| CapacityRow {
        architecture: label.to_string(),
        capacity_rpm: capacity,
        boxes_today: (peak / capacity).max(f64::EPSILON),
        months_of_headroom: load.months_of_headroom(capacity),
    };
    vec![
        row("Highlight (browser per request)", rate(100.0)),
        row("m.Site, 1% full renders", rate(1.0)),
        row("m.Site, cached steady state", rate(0.0)),
    ]
}

impl ToJson for LoadModel {
    fn to_json_value(&self) -> Value {
        obj([
            ("hits_per_day", self.hits_per_day.to_json_value()),
            ("mobile_fraction", self.mobile_fraction.to_json_value()),
            ("peak_factor", self.peak_factor.to_json_value()),
            ("doubling_months", self.doubling_months.to_json_value()),
        ])
    }
}

impl ToJson for CapacityRow {
    fn to_json_value(&self) -> Value {
        obj([
            ("architecture", self.architecture.to_json_value()),
            ("capacity_rpm", self.capacity_rpm.to_json_value()),
            ("boxes_today", self.boxes_today.to_json_value()),
            (
                "months_of_headroom",
                self.months_of_headroom.to_json_value(),
            ),
        ])
    }
}

// ---------------------------------------------------------------------
// The million-user multi-tenant load harness.
// ---------------------------------------------------------------------

/// Configuration of the multi-tenant Zipf sweep.
#[derive(Debug, Clone)]
pub struct CapacityConfig {
    /// Tenant forums, each its own origin host behind its own proxy,
    /// all sharing one [`SessionStore`] (≥3 for the isolation claim).
    pub tenants: usize,
    /// Distinct simulated users (each makes one cookie-less first
    /// contact; the default reproduces the ≥1M acceptance sweep).
    pub users: usize,
    /// Load-generator threads; users are partitioned across them.
    pub workers: usize,
    /// Probability that a user iteration also replays an established
    /// cookie, drawn Zipf(~1.0) from the users seen so far.
    pub revisit_fraction: f64,
    /// Every Nth user also fetches an authenticated subpage, writing
    /// real bytes into its `SessionFs` directory (0 disables).
    pub subpage_stride: usize,
    /// The shared session store under test.
    pub store: SessionStoreConfig,
    /// Hard ceiling on session-subsystem memory (store slots + session
    /// filesystem), asserted *during* the sweep, not just after.
    pub memory_ceiling_bytes: usize,
    /// Deterministic seed for the per-worker Zipf/traffic streams.
    pub seed: u64,
}

impl Default for CapacityConfig {
    fn default() -> Self {
        CapacityConfig {
            tenants: 3,
            users: 1_000_000,
            workers: msite_support::thread::default_parallelism().max(4),
            revisit_fraction: 0.25,
            subpage_stride: 512,
            store: SessionStoreConfig {
                max_sessions: 65_536,
                session_ttl: Some(Duration::from_secs(1800)),
                fs_byte_budget: 16 * 1024 * 1024,
                tenant_share: 0.5,
                ..SessionStoreConfig::default()
            },
            memory_ceiling_bytes: 64 * 1024 * 1024,
            seed: 0xCAB,
        }
    }
}

impl CapacityConfig {
    /// A seconds-scale configuration for tests: same shape, 20k users,
    /// a 2k-session store, and a proportionally tighter ceiling.
    pub fn quick() -> CapacityConfig {
        CapacityConfig {
            users: 20_000,
            workers: 4,
            subpage_stride: 256,
            store: SessionStoreConfig {
                max_sessions: 2_048,
                session_ttl: Some(Duration::from_secs(1800)),
                fs_byte_budget: 2 * 1024 * 1024,
                tenant_share: 0.5,
                ..SessionStoreConfig::default()
            },
            memory_ceiling_bytes: 8 * 1024 * 1024,
            ..CapacityConfig::default()
        }
    }
}

/// Per-tenant occupancy at the end of the sweep.
#[derive(Debug, Clone)]
pub struct TenantLoad {
    /// Tenant key (the origin host).
    pub tenant: String,
    /// Live sessions at close.
    pub live: usize,
    /// Sessions ever created for this tenant.
    pub created: u64,
    /// Sessions evicted from this tenant.
    pub evicted: u64,
}

/// Everything the sweep measured and asserted.
#[derive(Debug, Clone)]
pub struct CapacityResult {
    /// Distinct users targeted (`CapacityConfig::users`).
    pub users_target: u64,
    /// Distinct users actually simulated (first contacts issued).
    pub distinct_users: u64,
    /// Total proxy requests (first contacts + revisits + subpages).
    pub total_requests: u64,
    /// Cookie replays drawn from the Zipf tail.
    pub revisits: u64,
    /// Replays whose session was still live (no fresh cookie issued).
    pub revisit_hits: u64,
    /// Authenticated subpage fetches (the `SessionFs` write path).
    pub subpage_requests: u64,
    /// Non-success responses (must be zero).
    pub errors: u64,
    /// Sweep wall-clock in seconds.
    pub elapsed_s: f64,
    /// Sustained requests/second over the whole sweep.
    pub requests_per_second: f64,
    /// p50 of `msite_proxy_request_micros` (bucket upper bound).
    pub p50_micros: u64,
    /// p99 of `msite_proxy_request_micros` (bucket upper bound).
    pub p99_micros: u64,
    /// Live sessions at close.
    pub live_sessions: usize,
    /// The store's configured bound.
    pub max_sessions: usize,
    /// The per-tenant quota the shared store enforced.
    pub tenant_quota: usize,
    /// Estimated resident bytes of the store's live slots at close.
    pub store_bytes: usize,
    /// Session-filesystem bytes at close.
    pub fs_bytes: usize,
    /// The hard ceiling the sweep was asserted against.
    pub memory_ceiling_bytes: usize,
    /// Mid-sweep observations of store+fs bytes above the ceiling
    /// (must be zero — this is the hard-ceiling assertion).
    pub ceiling_violations: u64,
    /// Total sessions evicted (LRU + quota + expiry + fs budget).
    pub evictions: u64,
    /// Per-tenant occupancy at close.
    pub tenants: Vec<TenantLoad>,
    /// Device profiles rotated through the User-Agent header.
    pub device_profiles: Vec<String>,
}

/// The evaluation devices rotated across requests (§4.2 hardware).
fn device_profiles() -> Vec<DeviceProfile> {
    vec![
        DeviceProfile::blackberry_tour(),
        DeviceProfile::ipod_touch_3g(),
        DeviceProfile::iphone_4(),
        DeviceProfile::ipad_1(),
        DeviceProfile::android_droid(),
    ]
}

/// One tenant forum: a small origin with its own host so the shared
/// store keys its sessions under a distinct tenant.
fn tenant_site(index: usize) -> Arc<ForumSite> {
    Arc::new(ForumSite::new(ForumConfig {
        seed: 2012 + index as u64,
        host: format!("t{index}.forum.test"),
        ..ForumConfig::default()
    }))
}

/// Zipf(~1.0) rank in `1..=n` via the inverse-CDF approximation
/// `k = floor((n+1)^u)`: rank 1 (the hottest user) gets the share the
/// harmonic law predicts, the tail gets the rest.
fn zipf_rank(rng: &mut Prng, n: usize) -> usize {
    let k = ((n as f64 + 1.0).powf(rng.unit_f64())).floor() as usize;
    k.clamp(1, n)
}

/// Extracts the session id a response issued, if any (`None` means the
/// replayed cookie was honored — the session is still live).
fn issued_session_id(response: &msite_net::Response) -> Option<String> {
    let prefix = format!("{SESSION_COOKIE}=");
    response
        .headers
        .get_all("set-cookie")
        .iter()
        .find_map(|h| h.strip_prefix(prefix.as_str()))
        .map(|rest| rest.split(';').next().unwrap_or("").to_string())
}

/// Runs the sweep: builds one shared store + telemetry, one proxy per
/// tenant, then partitions the user space across workers that
/// interleave first contacts, Zipf cookie replays, and occasional
/// subpage fetches, checking the memory ceiling as they go.
pub fn run(config: &CapacityConfig) -> CapacityResult {
    assert!(config.tenants >= 1 && config.workers >= 1 && config.users >= config.workers);
    let telemetry = Telemetry::new();
    let store = Arc::new(SessionStore::with_metrics(
        config.store.clone(),
        Arc::new(msite::SessionFs::with_metrics(&telemetry.metrics)),
        Arc::clone(&telemetry.metrics),
    ));
    let proxies: Vec<Arc<ProxyServer>> = (0..config.tenants)
        .map(|i| {
            let site = tenant_site(i);
            let proxy = Arc::new(ProxyServer::new(
                fixtures::forum_spec(&site),
                Arc::clone(&site) as OriginRef,
                ProxyConfig {
                    telemetry: Some(telemetry.clone()),
                    session_store: Some(Arc::clone(&store)),
                    ..ProxyConfig::default()
                },
            ));
            let warm = proxy.handle(&Request::get("http://p/m/forum/").unwrap());
            assert!(warm.status.is_success(), "tenant {i} warmup failed");
            proxy
        })
        .collect();
    let profiles = device_profiles();

    let distinct = AtomicU64::new(0);
    let total = AtomicU64::new(0);
    let revisits = AtomicU64::new(0);
    let revisit_hits = AtomicU64::new(0);
    let subpages = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let ceiling_violations = AtomicU64::new(0);
    let start = Instant::now();

    std::thread::scope(|scope| {
        for w in 0..config.workers {
            let proxies = &proxies;
            let profiles = &profiles;
            let store = &store;
            let (distinct, total) = (&distinct, &total);
            let (revisits, revisit_hits) = (&revisits, &revisit_hits);
            let (subpages, errors) = (&subpages, &errors);
            let ceiling_violations = &ceiling_violations;
            scope.spawn(move || {
                let lo = w * config.users / config.workers;
                let hi = (w + 1) * config.users / config.workers;
                let mut rng =
                    Prng::new(config.seed ^ (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                // This worker's established cookies, indexed by local
                // arrival order (ids are 32 hex chars).
                let mut seen: Vec<[u8; 32]> = Vec::with_capacity(hi - lo);
                for (j, user) in (lo..hi).enumerate() {
                    let tenant_idx = user % config.tenants;
                    let ua = &profiles[(w + j) % profiles.len()].user_agent;
                    // First contact: no cookie, a session is minted.
                    let request = Request::get("http://p/m/forum/")
                        .unwrap()
                        .with_header("user-agent", ua);
                    let response = proxies[tenant_idx].handle(&request);
                    total.fetch_add(1, Ordering::Relaxed);
                    distinct.fetch_add(1, Ordering::Relaxed);
                    if !response.status.is_success() {
                        errors.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    let id = issued_session_id(&response).unwrap_or_default();
                    if let Ok(bytes) = <[u8; 32]>::try_from(id.as_bytes()) {
                        seen.push(bytes);
                    } else {
                        errors.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    // The SessionFs write path: an authenticated
                    // subpage lands real bytes in this session's dir.
                    if config.subpage_stride > 0 && user % config.subpage_stride == 0 {
                        let sub = Request::get("http://p/m/forum/s/forums.html")
                            .unwrap()
                            .with_header("cookie", &format!("{SESSION_COOKIE}={id}"))
                            .with_header("user-agent", ua);
                        let mut response = proxies[tenant_idx].handle(&sub);
                        total.fetch_add(1, Ordering::Relaxed);
                        subpages.fetch_add(1, Ordering::Relaxed);
                        if !response.status.is_success() {
                            // Under eviction pressure the session can be
                            // reclaimed between the bundle write and the
                            // artifact read; the client-visible effect
                            // is a single 404 that a retry (which mints
                            // a fresh session) resolves.
                            response = proxies[tenant_idx].handle(&sub);
                            total.fetch_add(1, Ordering::Relaxed);
                            if !response.status.is_success() {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    // Zipf revisit: replay an established cookie; rank 1
                    // is this worker's oldest (hottest) user, so the hot
                    // set keeps itself resident under LRU while the tail
                    // churns through eviction.
                    if rng.unit_f64() < config.revisit_fraction && !seen.is_empty() {
                        let rank = zipf_rank(&mut rng, seen.len());
                        let cookie = String::from_utf8_lossy(&seen[rank - 1]).into_owned();
                        let revisit_tenant = (lo + rank - 1) % config.tenants;
                        let request = Request::get("http://p/m/forum/")
                            .unwrap()
                            .with_header("cookie", &format!("{SESSION_COOKIE}={cookie}"))
                            .with_header("user-agent", ua);
                        let response = proxies[revisit_tenant].handle(&request);
                        total.fetch_add(1, Ordering::Relaxed);
                        revisits.fetch_add(1, Ordering::Relaxed);
                        if !response.status.is_success() {
                            errors.fetch_add(1, Ordering::Relaxed);
                        } else if let Some(fresh) = issued_session_id(&response) {
                            // The session had been evicted; adopt the
                            // replacement cookie so later replays of
                            // this rank stay coherent.
                            if let Ok(bytes) = <[u8; 32]>::try_from(fresh.as_bytes()) {
                                seen[rank - 1] = bytes;
                            }
                        } else {
                            revisit_hits.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    // The hard ceiling, asserted *during* the sweep.
                    if j % 1024 == 0 {
                        let resident = store.estimated_bytes() + store.fs().total_bytes();
                        if resident > config.memory_ceiling_bytes {
                            ceiling_violations.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });

    let elapsed_s = start.elapsed().as_secs_f64();
    let histogram =
        telemetry
            .metrics
            .histogram("msite_proxy_request_micros", &[], LATENCY_MICROS_BOUNDS);
    let stats = store.stats();
    let total_requests = total.load(Ordering::Relaxed);
    CapacityResult {
        users_target: config.users as u64,
        distinct_users: distinct.load(Ordering::Relaxed),
        total_requests,
        revisits: revisits.load(Ordering::Relaxed),
        revisit_hits: revisit_hits.load(Ordering::Relaxed),
        subpage_requests: subpages.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        elapsed_s,
        requests_per_second: total_requests as f64 / elapsed_s.max(1e-9),
        p50_micros: histogram.quantile(0.50),
        p99_micros: histogram.quantile(0.99),
        live_sessions: store.len(),
        max_sessions: config.store.max_sessions,
        tenant_quota: store.tenant_quota(),
        store_bytes: store.estimated_bytes(),
        fs_bytes: store.fs().total_bytes(),
        memory_ceiling_bytes: config.memory_ceiling_bytes,
        ceiling_violations: ceiling_violations.load(Ordering::Relaxed),
        evictions: stats.evicted_total(),
        tenants: store
            .tenant_occupancy()
            .into_iter()
            .map(|(tenant, live, created, evicted)| TenantLoad {
                tenant,
                live,
                created,
                evicted,
            })
            .collect(),
        device_profiles: profiles.iter().map(|p| p.name.clone()).collect(),
    }
}

/// Shape assertions on a sweep (used by the experiments binary and the
/// tier-1 test): the acceptance criteria, machine-checked.
pub fn check_shape(r: &CapacityResult) -> Result<(), String> {
    if r.distinct_users < r.users_target {
        return Err(format!(
            "only {} of {} distinct users simulated",
            r.distinct_users, r.users_target
        ));
    }
    if r.errors > 0 {
        return Err(format!("{} requests failed", r.errors));
    }
    if r.ceiling_violations > 0 {
        return Err(format!(
            "memory ceiling breached {} times mid-sweep ({} byte bound)",
            r.ceiling_violations, r.memory_ceiling_bytes
        ));
    }
    if r.live_sessions > r.max_sessions {
        return Err(format!(
            "{} live sessions over the {}-session bound",
            r.live_sessions, r.max_sessions
        ));
    }
    if r.store_bytes + r.fs_bytes > r.memory_ceiling_bytes {
        return Err(format!(
            "resident {} + {} bytes over the {} ceiling at close",
            r.store_bytes, r.fs_bytes, r.memory_ceiling_bytes
        ));
    }
    if r.evictions == 0 {
        return Err("a bounded store this oversubscribed must evict".into());
    }
    if r.tenants.len() < 3 {
        return Err(format!("{} tenants, need >= 3", r.tenants.len()));
    }
    for t in &r.tenants {
        if t.live > r.tenant_quota {
            return Err(format!(
                "tenant {} holds {} live sessions over its {} quota",
                t.tenant, t.live, r.tenant_quota
            ));
        }
        if t.live == 0 {
            return Err(format!("tenant {} starved to zero live sessions", t.tenant));
        }
    }
    if r.revisit_hits == 0 {
        return Err("no Zipf revisit ever found its session live".into());
    }
    if r.p50_micros == 0 || r.p99_micros < r.p50_micros {
        return Err(format!(
            "implausible latency estimate: p50={} p99={}",
            r.p50_micros, r.p99_micros
        ));
    }
    if r.requests_per_second <= 0.0 {
        return Err("no sustained throughput measured".into());
    }
    Ok(())
}

impl ToJson for TenantLoad {
    fn to_json_value(&self) -> Value {
        obj([
            ("tenant", self.tenant.to_json_value()),
            ("live", self.live.to_json_value()),
            ("created", self.created.to_json_value()),
            ("evicted", self.evicted.to_json_value()),
        ])
    }
}

impl ToJson for CapacityResult {
    fn to_json_value(&self) -> Value {
        obj([
            ("users_target", self.users_target.to_json_value()),
            ("distinct_users", self.distinct_users.to_json_value()),
            ("total_requests", self.total_requests.to_json_value()),
            ("revisits", self.revisits.to_json_value()),
            ("revisit_hits", self.revisit_hits.to_json_value()),
            ("subpage_requests", self.subpage_requests.to_json_value()),
            ("errors", self.errors.to_json_value()),
            ("elapsed_s", self.elapsed_s.to_json_value()),
            (
                "requests_per_second",
                self.requests_per_second.to_json_value(),
            ),
            ("p50_micros", self.p50_micros.to_json_value()),
            ("p99_micros", self.p99_micros.to_json_value()),
            ("live_sessions", self.live_sessions.to_json_value()),
            ("max_sessions", self.max_sessions.to_json_value()),
            ("tenant_quota", self.tenant_quota.to_json_value()),
            ("store_bytes", self.store_bytes.to_json_value()),
            ("fs_bytes", self.fs_bytes.to_json_value()),
            (
                "memory_ceiling_bytes",
                self.memory_ceiling_bytes.to_json_value(),
            ),
            (
                "ceiling_violations",
                self.ceiling_violations.to_json_value(),
            ),
            ("evictions", self.evictions.to_json_value()),
            ("tenants", self.tenants.to_json_value()),
            ("device_profiles", self.device_profiles.to_json_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_load_numbers() {
        let load = LoadModel::default();
        // 2.2M hits/day * 10% mobile * 3x peak / 1440 min ~= 458 rpm.
        assert!((load.peak_mobile_rpm() - 458.33).abs() < 1.0);
    }

    #[test]
    fn headroom_math() {
        let load = LoadModel::default();
        let now = load.peak_mobile_rpm();
        // Exactly at capacity: zero months.
        assert!(load.months_of_headroom(now).abs() < 1e-9);
        // Double the capacity: one doubling period.
        assert!((load.months_of_headroom(now * 2.0) - 18.0).abs() < 1e-6);
        // Half the capacity: negative headroom.
        assert!(load.months_of_headroom(now / 2.0) < 0.0);
    }

    #[test]
    fn analysis_shapes() {
        let rows = analyze(&LoadModel::default());
        assert_eq!(rows.len(), 3);
        let highlight = &rows[0];
        let msite = &rows[2];
        // m.Site's steady state absorbs years more growth than the
        // browser-per-request baseline on the same box.
        assert!(msite.capacity_rpm > highlight.capacity_rpm * 20.0);
        assert!(msite.months_of_headroom > highlight.months_of_headroom + 36.0);
        // The baseline cannot even cover today's peak on one box...
        // (224-300 rpm vs ~458 rpm peak mobile load)
        assert!(highlight.boxes_today > 1.0);
        // ...while m.Site covers it dozens of times over.
        assert!(msite.boxes_today < 0.1);
    }

    #[test]
    fn zipf_rank_is_heavy_headed() {
        let mut rng = Prng::new(7);
        let n = 10_000;
        let head = (0..50_000)
            .filter(|_| zipf_rank(&mut rng, n) <= n / 100)
            .count();
        // Under Zipf(1), the top 1% of ranks carries roughly half the
        // draws (ln(101)/ln(10001) ~= 0.50); uniform would give 1%.
        assert!(head > 20_000, "only {head}/50000 draws in the top 1%");
    }

    /// The scaled-down acceptance sweep: same shape as the 1M run —
    /// three tenants, Zipf revisits, device rotation, hard ceiling —
    /// over 20k users so it fits in the tier-1 suite.
    #[test]
    fn quick_sweep_meets_acceptance_shape() {
        let config = CapacityConfig::quick();
        let result = run(&config);
        check_shape(&result).unwrap();
        assert_eq!(result.distinct_users, config.users as u64);
        assert!(result.revisits > 0 && result.subpage_requests > 0);
        // Bounded store: far more users than sessions forces churn.
        assert!(result.evictions as usize >= config.users - config.store.max_sessions);
    }

    #[test]
    fn check_shape_rejects_violations() {
        let mut ok = run(&CapacityConfig {
            users: 2_000,
            workers: 2,
            store: SessionStoreConfig {
                max_sessions: 512,
                tenant_share: 0.5,
                ..SessionStoreConfig::default()
            },
            memory_ceiling_bytes: 8 * 1024 * 1024,
            ..CapacityConfig::quick()
        });
        check_shape(&ok).unwrap();
        ok.ceiling_violations = 1;
        assert!(check_shape(&ok).is_err());
        ok.ceiling_violations = 0;
        ok.live_sessions = ok.max_sessions + 1;
        assert!(check_shape(&ok).is_err());
    }
}
