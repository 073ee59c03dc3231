//! Property suite for the fingerprint-keyed [`SubtreeCache`]'s
//! eviction accounting: under arbitrary capacity churn the eviction
//! counter equals distinct-key inserts minus live entries (no lost or
//! double-counted evictions), hits only ever return the exact artifact
//! stored under that fingerprint (fingerprints are self-invalidating,
//! so a stale artifact cannot be served), and evicted fingerprints
//! miss — forcing the pipeline to recompute them.

use msite::cache::SubtreeCache;
use msite::proxy::{ProxyConfig, ProxyServer};
use msite_support::prop;
use msite_support::sync::Mutex;
use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

/// Evictions never lose count: after any sequence of puts and gets,
/// `evictions == distinct-key inserts - live entries`. Replacing an
/// existing fingerprint is not an insert (the slot is reused), so the
/// model tracks presence at put time.
#[test]
fn eviction_counter_equals_inserts_minus_live() {
    prop::check("evictions = inserts - live", 120, 0x5B7EE, |g| {
        let capacity = g.range_usize(1, 24);
        let cache = SubtreeCache::new(capacity);
        let universe = g.range_u64(2, 64);
        // Exact reference model of the tier's LRU: value + last-used
        // tick per live fingerprint. Deterministic because the test is
        // single-threaded and the tick orders every operation totally.
        let mut model: HashMap<u64, (u64, u64)> = HashMap::new();
        let mut tick = 0u64;
        let mut inserts = 0u64;

        for step in 0..g.range_usize(10, 300) {
            let fingerprint = g.range_u64(0, universe);
            if g.bool() {
                tick += 1;
                if !model.contains_key(&fingerprint) {
                    inserts += 1;
                }
                cache.put(fingerprint, Arc::new(step as u64));
                model.insert(fingerprint, (step as u64, tick));
                while model.len() > capacity {
                    let oldest = *model.iter().min_by_key(|(_, (_, t))| *t).unwrap().0;
                    model.remove(&oldest);
                }
            } else {
                tick += 1;
                let hit = cache.get(fingerprint);
                match model.get_mut(&fingerprint) {
                    Some((value, last_used)) => {
                        *last_used = tick;
                        // A hit must carry the exact artifact last
                        // stored under this fingerprint — never stale.
                        let got = hit
                            .as_ref()
                            .expect("model says live, cache missed")
                            .downcast_ref::<u64>()
                            .copied()
                            .expect("u64 artifact");
                        assert_eq!(
                            got, *value,
                            "fingerprint {fingerprint} served a stale artifact"
                        );
                    }
                    None => assert!(
                        hit.is_none(),
                        "evicted fingerprint {fingerprint} must miss (recompute)"
                    ),
                }
            }

            let stats = cache.stats();
            assert_eq!(cache.len(), model.len(), "live set diverged from model");
            assert!(cache.len() <= capacity, "capacity bound violated");
            assert_eq!(
                stats.evictions,
                inserts - cache.len() as u64,
                "step {step}: {inserts} inserts, {} live",
                cache.len()
            );
        }
    });
}

/// Overflow by exactly one: the least-recently-used fingerprint is the
/// one that misses afterwards (recompute), every other stays a hit with
/// its own artifact.
#[test]
fn evicted_fingerprint_misses_and_survivors_hit() {
    prop::check("evicted fp recomputes", 80, 0xEF1C7, |g| {
        let capacity = g.range_usize(2, 16);
        let cache = SubtreeCache::new(capacity);
        for fp in 0..capacity as u64 {
            cache.put(fp, Arc::new(fp));
        }
        // Touch everything except one victim in a random order; the
        // untouched fingerprint becomes the LRU entry.
        let victim = g.range_u64(0, capacity as u64);
        let mut order: Vec<u64> = (0..capacity as u64).filter(|fp| *fp != victim).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, g.range_usize(0, i + 1));
        }
        for fp in &order {
            assert!(cache.get(*fp).is_some());
        }

        cache.put(capacity as u64, Arc::new(capacity as u64));
        assert!(
            cache.get(victim).is_none(),
            "victim {victim} must be evicted and recompute"
        );
        assert_eq!(cache.stats().evictions, 1);
        for fp in order.iter().chain([capacity as u64].iter()) {
            let value = cache.get(*fp).expect("survivor evicted");
            assert_eq!(*value.downcast_ref::<u64>().unwrap(), *fp);
        }
    });
}

/// Type-erased artifacts keep their identity through the tier: what
/// comes back is the same `Arc` that went in (no clone, no rebuild).
#[test]
fn artifacts_round_trip_by_identity() {
    let cache = SubtreeCache::new(4);
    let artifact: Arc<dyn Any + Send + Sync> = Arc::new(String::from("rendered"));
    cache.put(7, Arc::clone(&artifact));
    let back = cache.get(7).expect("hit");
    assert!(Arc::ptr_eq(&artifact, &back), "identity must be preserved");
}

/// End-to-end accounting: drive entry rebuilds through a proxy whose
/// origin mutates every fetch (every rebuild mints fresh fingerprints)
/// and whose subtree tier is tiny, then check the registry's
/// `msite_subtree_cache_evictions_total` equals inserts minus live
/// entries — and that recomputation (not stale artifacts) kept the
/// output correct: the entry always reflects the *current* origin body.
#[test]
fn proxy_metric_agrees_with_eviction_accounting() {
    use msite::attributes::{AdaptationSpec, Attribute, Target};
    use msite_net::{Origin, OriginRef, Request, Response};

    let version = Arc::new(Mutex::new(0u64));
    let origin_version = Arc::clone(&version);
    let origin: OriginRef = Arc::new(move |_req: &Request| {
        let v = *origin_version.lock();
        Response::html(format!(
            "<html><head><title>T</title></head><body>\
             <div id=\"a\">alpha v{v}</div><div id=\"b\">beta v{v}</div>\
             <div id=\"c\">gamma v{v}</div></body></html>"
        ))
    });
    let mut spec = AdaptationSpec::new("churn", "http://churn.test/");
    spec.snapshot = None;
    let spec = ["a", "b", "c"].iter().fold(spec, |spec, id| {
        spec.rule(
            Target::Css(format!("#{id}")),
            vec![Attribute::Subpage {
                id: (*id).to_string(),
                title: id.to_uppercase(),
                ajax: false,
                prerender: false,
            }],
        )
    });
    let config = ProxyConfig {
        subtree_cache_capacity: 2,
        ..ProxyConfig::default()
    };
    let proxy = ProxyServer::new(spec, origin, config);

    for round in 0..6u64 {
        *version.lock() = round;
        proxy.cache().invalidate("entry:html");
        let entry = proxy.handle(&Request::get("http://p/m/churn/").unwrap());
        assert!(entry.status.is_success(), "round {round}: {}", entry.status);
    }

    // The tier counts into the proxy's registry as it evicts; no
    // scrape is needed for the series to be current.
    let stats = proxy.subtree_cache().stats();
    let registered = proxy
        .telemetry()
        .metrics
        .counter_value("msite_subtree_cache_evictions_total", &[]);
    assert_eq!(registered, stats.evictions, "registry must agree");

    // Every rebuild minted 3 fresh fingerprints into a capacity-2 tier;
    // inserts - live is exactly the eviction count.
    let inserts = stats.misses; // each miss is followed by a recompute+insert
    assert_eq!(
        stats.evictions,
        inserts - proxy.subtree_cache().len() as u64,
        "evictions must equal inserts minus live entries"
    );
    assert!(stats.evictions > 0, "churn must actually evict");
}
