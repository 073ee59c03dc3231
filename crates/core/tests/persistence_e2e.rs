//! Durability end-to-end: a proxy with a persistent cache tier is
//! killed (no graceful shutdown) and restarted over the same disk; the
//! successor must serve the pre-restart working set from the persistent
//! tier without re-rendering. A second suite drives the tier through a
//! [`FlakyDisk`] (torn writes, bit flips, ENOSPC, slow fsync) and
//! proves corruption is quarantined — surfaced in metrics, never a
//! panic, never a wrong artifact.

use msite::attributes::{AdaptationSpec, Attribute, SnapshotSpec, Target};
use msite::persist::{DiskBackend, FlakyDisk, MemDisk};
use msite::proxy::{PersistConfig, ProxyConfig, ProxyServer};
use msite_net::{Origin, OriginRef, Request, Response};
use msite_support::sync::Mutex;
use std::sync::Arc;
use std::time::Duration;

fn origin_page(version: u64) -> Response {
    Response::html(format!(
        "<html><head><title>Durable</title></head><body>\
         <div id=\"a\">alpha v{version}</div><div id=\"b\">beta v{version}</div>\
         <div id=\"c\">gamma v{version}</div><div id=\"d\">delta v{version}</div>\
         </body></html>"
    ))
}

/// Snapshot (browser render) + TTL-cached pre-rendered regions: a
/// working set of several distinct cache keys, all persisted.
fn durable_spec() -> AdaptationSpec {
    let mut spec = AdaptationSpec::new("durable", "http://durable.test/");
    spec.snapshot = Some(SnapshotSpec::default());
    ["a", "b", "c", "d"].iter().fold(spec, |spec, id| {
        spec.rule(
            Target::Css(format!("#{id}")),
            vec![Attribute::PrerenderImage {
                scale: 0.5,
                quality: 60,
                cache_ttl_secs: Some(3_600),
            }],
        )
    })
}

fn persisted_config(backend: Arc<dyn DiskBackend>) -> ProxyConfig {
    ProxyConfig {
        persist: Some(PersistConfig::with_backend(backend, 4 * 1024 * 1024)),
        ..ProxyConfig::default()
    }
}

fn deploy(backend: Arc<dyn DiskBackend>) -> Arc<ProxyServer> {
    let origin: OriginRef = Arc::new(|_req: &Request| origin_page(0));
    Arc::new(ProxyServer::new(
        durable_spec(),
        origin,
        persisted_config(backend),
    ))
}

fn entry_request() -> Request {
    Request::get("http://p/m/durable/").unwrap()
}

#[test]
fn kill_and_restart_under_load_serves_working_set_from_disk() {
    let disk = MemDisk::new();

    // --- First life: build the working set under concurrent load. ---
    let proxy = deploy(Arc::new(disk.clone()));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let proxy = Arc::clone(&proxy);
            std::thread::spawn(move || {
                for _ in 0..5 {
                    let entry = proxy.handle(&entry_request());
                    assert!(entry.status.is_success(), "{}", entry.status);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no thread panics");
    }
    let renders_before = proxy.stats().full_renders;
    assert!(renders_before >= 1, "warmup must have rendered");

    // The write-behind queue drains, then the process dies without any
    // graceful shutdown: `forget` skips Drop (no flush, no join), so
    // only what the journal already holds survives — the crash model.
    proxy.cache().flush_disk();
    let working_set: Vec<String> = proxy
        .cache()
        .disk()
        .expect("persistent tier attached")
        .hot_keys(64);
    assert!(
        working_set.len() >= 2,
        "working set too small to be meaningful: {working_set:?}"
    );
    std::mem::forget(proxy);

    // --- Second life: same disk, cold memory. ---
    let revived = deploy(Arc::new(disk.clone()));
    let warm = revived.cache().warm_loaded();
    let need = (working_set.len() * 9).div_ceil(10); // ceil(0.9 * n)
    assert!(
        warm as usize >= need,
        "warm start restored {warm}/{} keys (need >= {need})",
        working_set.len()
    );

    // Every surviving key is servable without touching the renderer.
    let mut recovered = 0usize;
    for key in &working_set {
        if revived.cache().get(key).is_some() {
            recovered += 1;
        }
    }
    assert!(
        recovered >= need,
        "only {recovered}/{} of the working set recovered",
        working_set.len()
    );

    // Serving the entry page costs zero browser renders after restart.
    let entry = revived.handle(&entry_request());
    assert!(entry.status.is_success());
    assert_eq!(
        revived.stats().full_renders,
        0,
        "restart must not re-render the working set"
    );

    // The scrape surface agrees: disk hits (warm load reads) and the
    // warm-loaded count are visible, and the browser-render counter
    // never moved.
    let scrape = revived.handle(&Request::get("http://p/metrics").unwrap());
    assert!(scrape.status.is_success());
    let m = &revived.telemetry().metrics;
    assert_eq!(m.counter_value("msite_proxy_full_renders_total", &[]), 0);
    assert!(m.counter_value("msite_disk_warm_loaded_total", &[]) >= need as u64);
    assert!(m.counter_value("msite_disk_hits_total", &[]) >= need as u64);
}

#[test]
fn restart_preserves_artifact_bytes_exactly() {
    let disk = MemDisk::new();
    let proxy = deploy(Arc::new(disk.clone()));
    let first = proxy.handle(&entry_request());
    assert!(first.status.is_success());
    let entry_bytes = proxy.cache().get("entry:html").expect("entry cached");
    proxy.cache().flush_disk();
    std::mem::forget(proxy);

    let revived = deploy(Arc::new(disk.clone()));
    let restored = revived
        .cache()
        .get("entry:html")
        .expect("entry survives restart");
    assert_eq!(
        entry_bytes.as_ref(),
        restored.as_ref(),
        "persisted artifact must be byte-identical"
    );
}

#[test]
fn disk_chaos_never_panics_and_quarantines_corruption() {
    let base = MemDisk::new();
    let flaky = Arc::new(
        FlakyDisk::new(Arc::new(base.clone()), 0xD15C)
            .with_torn_writes(0.35)
            .with_bit_flips(0.25)
            .with_enospc(0.15)
            .with_slow_sync(Duration::from_micros(200)),
    );

    // First life rides the faulty disk: every put may tear, flip, or
    // fail outright. Serving must be oblivious — the disk tier is an
    // optimization, never a correctness dependency.
    let version = Arc::new(Mutex::new(0u64));
    let origin_version = Arc::clone(&version);
    let origin: OriginRef = Arc::new(move |_req: &Request| origin_page(*origin_version.lock()));
    let proxy = Arc::new(ProxyServer::new(
        durable_spec(),
        origin,
        persisted_config(Arc::clone(&flaky) as Arc<dyn DiskBackend>),
    ));
    for round in 0..8u64 {
        *version.lock() = round;
        proxy.cache().invalidate("entry:html");
        let entry = proxy.handle(&entry_request());
        assert!(entry.status.is_success(), "round {round}: {}", entry.status);
    }
    proxy.cache().flush_disk();
    let faults = flaky.stats();
    assert!(
        faults.torn + faults.flipped + faults.enospc >= 3,
        "chaos run did not exercise the fault modes: {faults:?}"
    );
    std::mem::forget(proxy);

    // Second life replays the mangled journal on a now-healthy disk:
    // corrupt records are quarantined (counted, skipped), never fatal,
    // and the proxy still serves.
    let revived = deploy(Arc::new(base.clone()));
    let entry = revived.handle(&entry_request());
    assert!(entry.status.is_success(), "{}", entry.status);
    let scrape = revived.handle(&Request::get("http://p/metrics").unwrap());
    assert!(scrape.status.is_success());
    let disk_stats = revived.cache().disk_stats().expect("tier attached");
    let m = &revived.telemetry().metrics;
    assert_eq!(
        m.counter_value("msite_disk_quarantined_total", &[]),
        disk_stats.quarantined,
        "quarantine count must be surfaced in metrics"
    );
    // The seeded fault pattern tears at least one journal record.
    assert!(
        disk_stats.quarantined >= 1,
        "seeded torn writes must leave quarantined records: {disk_stats:?}"
    );
}

#[test]
fn every_flaky_disk_mode_alone_is_survivable() {
    // One mode at a time, cranked high: open + serve + restart under
    // each pure fault regime, proving no mode has a panic path.
    type ModeFn = fn(FlakyDisk) -> FlakyDisk;
    let modes: [(&str, ModeFn); 4] = [
        ("torn", |d| d.with_torn_writes(0.9)),
        ("flip", |d| d.with_bit_flips(0.9)),
        ("enospc", |d| d.with_enospc(0.9)),
        ("slow", |d| d.with_slow_sync(Duration::from_micros(500))),
    ];
    for (name, arm) in modes {
        let base = MemDisk::new();
        let flaky = Arc::new(arm(FlakyDisk::new(Arc::new(base.clone()), 0xFA17)));
        let proxy = deploy(Arc::clone(&flaky) as Arc<dyn DiskBackend>);
        for _ in 0..3 {
            let entry = proxy.handle(&entry_request());
            assert!(entry.status.is_success(), "mode {name}: {}", entry.status);
            proxy.cache().invalidate("entry:html");
        }
        proxy.cache().flush_disk();
        std::mem::forget(proxy);
        let revived = deploy(Arc::new(base.clone()));
        let entry = revived.handle(&entry_request());
        assert!(entry.status.is_success(), "mode {name} after restart");
    }
}

/// Every stats field of the render cache, subtree cache, session store
/// and disk tier against the registry series its component counts
/// into. No `/metrics` request comes first: the series are current as
/// the events happen.
fn assert_registry_matches_stats(proxy: &ProxyServer) {
    let m = &proxy.telemetry().metrics;
    let counter = |name: &str| m.counter_value(name, &[]);
    let gauge = |name: &str| m.gauge_value(name, &[]).max(0) as u64;

    let cache = proxy.cache().stats();
    assert_eq!(cache.hits, counter("msite_cache_hits_total"));
    assert_eq!(cache.misses, counter("msite_cache_misses_total"));
    assert_eq!(cache.evictions, counter("msite_cache_evictions_total"));
    assert_eq!(cache.expirations, counter("msite_cache_expirations_total"));
    assert_eq!(cache.stale_hits, counter("msite_cache_stale_hits_total"));
    assert_eq!(cache.coalesced, counter("msite_cache_coalesced_total"));
    assert_eq!(
        proxy.cache().warm_loaded(),
        counter("msite_disk_warm_loaded_total")
    );

    let subtrees = proxy.subtree_cache().stats();
    assert_eq!(subtrees.hits, counter("msite_subtrees_reused_total"));
    assert_eq!(subtrees.misses, counter("msite_subtrees_recomputed_total"));
    assert_eq!(
        subtrees.evictions,
        counter("msite_subtree_cache_evictions_total")
    );

    let sessions = proxy.session_stats();
    assert_eq!(sessions.created, counter("msite_session_created_total"));
    assert_eq!(sessions.live, gauge("msite_session_live"));
    assert_eq!(sessions.destroyed, counter("msite_session_destroyed_total"));
    for (cause, value) in [
        ("lru", sessions.evicted_lru),
        ("quota", sessions.evicted_quota),
        ("expired", sessions.evicted_expired),
        ("fs_bytes", sessions.evicted_fs_bytes),
    ] {
        assert_eq!(
            value,
            m.counter_value("msite_session_evictions_total", &[("cause", cause)]),
            "evictions by {cause}"
        );
    }

    let disk = proxy.cache().disk_stats().expect("tier attached");
    assert_eq!(disk.hits, counter("msite_disk_hits_total"));
    assert_eq!(disk.misses, counter("msite_disk_misses_total"));
    assert_eq!(disk.puts, counter("msite_disk_puts_total"));
    assert_eq!(disk.put_errors, counter("msite_disk_put_errors_total"));
    assert_eq!(disk.quarantined, counter("msite_disk_quarantined_total"));
    assert_eq!(disk.replayed, counter("msite_disk_replayed_total"));
    assert_eq!(
        disk.segments_dropped,
        counter("msite_disk_segments_dropped_total")
    );
    assert_eq!(disk.live_bytes, gauge("msite_disk_live_bytes"));
}

/// The artifact bytes the tier indexes, summed by reading each back.
fn indexed_bytes(proxy: &ProxyServer) -> u64 {
    let tier = proxy.cache().disk().expect("tier attached");
    tier.hot_keys(usize::MAX)
        .iter()
        .filter_map(|key| tier.get(key))
        .map(|record| record.value.len() as u64)
        .sum()
}

#[test]
fn registry_matches_stats_without_a_scrape() {
    let disk = MemDisk::new();
    let proxy = deploy(Arc::new(disk.clone()));
    // One cold entry (a miss), two warm ones (hits), three sessions.
    for _ in 0..3 {
        let entry = proxy.handle(&entry_request());
        assert!(entry.status.is_success(), "{}", entry.status);
    }
    let cache = proxy.cache().stats();
    assert_eq!((cache.hits, cache.misses), (2, 1));
    assert_eq!(proxy.session_stats().created, 3);

    // After the write-behind puts land, the live-bytes gauge holds
    // exactly the bytes the tier indexes.
    proxy.cache().flush_disk();
    assert!(proxy.cache().disk_stats().unwrap().puts > 0);
    assert_registry_matches_stats(&proxy);
    let live_bytes = proxy.cache().disk_stats().unwrap().live_bytes;
    assert!(live_bytes > 0);
    assert_eq!(live_bytes, indexed_bytes(&proxy));
    std::mem::forget(proxy);

    // A restart replays the journal into a fresh registry: replayed
    // records and live bytes are counted at open.
    let revived = deploy(Arc::new(disk.clone()));
    assert_registry_matches_stats(&revived);
    let replayed = revived.cache().disk_stats().unwrap();
    assert!(replayed.replayed > 0);
    assert_eq!(replayed.live_bytes, live_bytes);
    assert_eq!(replayed.live_bytes, indexed_bytes(&revived));
}
