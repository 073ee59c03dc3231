//! Failure injection: the proxy must degrade cleanly when the origin
//! misbehaves — 5xx storms, outages, malformed markup, oversized pages —
//! because "the proxy also handles ... any error handling should the
//! page be unavailable".
//!
//! The chaos matrix at the bottom crosses origin fault modes (down,
//! flaky, slow, truncated, malformed) with snapshot on/off and asserts
//! policy-conformant degradation: no panics, stale snapshots instead of
//! 5xx storms when the cache is warm, breaker trip + half-open
//! recovery, and engine fallback. Every fault draw is seeded, so runs
//! replay exactly.

use msite::attributes::{AdaptationSpec, Attribute, SnapshotSpec, Target};
use msite::engine::{RenderEngine, RenderedArtifact};
use msite::error::{DEGRADED_HEADER, ERROR_HEADER};
use msite::proxy::{ProxyConfig, ProxyServer, STREAM_HEADER};
use msite_net::resilience::{BreakerConfig, BreakerState, DeadlineBudget, RetryPolicy};
use msite_net::{FlakyOrigin, Origin, OriginRef, Request, ResiliencePolicy, Response, Status};
use msite_sites::{ForumConfig, ForumSite};
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn spec_for(url: &str, snapshot: bool) -> AdaptationSpec {
    let mut spec = AdaptationSpec::new("t", url);
    spec.snapshot = snapshot.then(SnapshotSpec::default);
    spec.rule(
        Target::Css("#main".into()),
        vec![Attribute::Subpage {
            id: "main".into(),
            title: "Main".into(),
            ajax: false,
            prerender: false,
        }],
    )
}

/// A config with millisecond-scale backoff and cooldown so chaos tests
/// run fast while exercising the same state machine as production.
fn fast_config() -> ProxyConfig {
    ProxyConfig {
        resilience: ResiliencePolicy {
            retry: RetryPolicy {
                max_attempts: 3,
                base_backoff: Duration::from_micros(200),
                max_backoff: Duration::from_millis(1),
            },
            deadline: DeadlineBudget(Duration::from_secs(5)),
            breaker: BreakerConfig {
                failure_threshold: 4,
                cooldown: Duration::from_millis(25),
                probe_successes: 1,
            },
            seed: 0xC4A05,
        },
        ..ProxyConfig::default()
    }
}

fn healthy_page() -> OriginRef {
    Arc::new(|_req: &Request| {
        Response::html(
            "<html><head><title>Up</title></head><body>\
             <div id=\"main\">content</div></body></html>",
        )
    })
}

fn entry_request() -> Request {
    Request::get("http://p/m/t/").unwrap()
}

fn cookie_of(response: &Response) -> String {
    response
        .headers
        .get("set-cookie")
        .unwrap()
        .split(';')
        .next()
        .unwrap()
        .to_string()
}

#[test]
fn origin_down_yields_bad_gateway_not_panic() {
    let dead: OriginRef = Arc::new(|_req: &Request| {
        Response::error(Status::SERVICE_UNAVAILABLE, "maintenance window")
    });
    let proxy = ProxyServer::new(spec_for("http://down.test/", true), dead, fast_config());
    let entry = proxy.handle(&entry_request());
    assert_eq!(entry.status, Status::BAD_GATEWAY);
    assert_eq!(entry.headers.get(ERROR_HEADER), Some("origin-unavailable"));
    // The proxy itself stays alive for subsequent requests; once the
    // breaker trips, failures become breaker rejections, never panics.
    for _ in 0..8 {
        let again = proxy.handle(&entry_request());
        assert!(!again.status.is_success());
        assert!(again.headers.get(ERROR_HEADER).is_some());
    }
    assert!(proxy.resilience_stats().breaker_rejections > 0);
}

#[test]
fn flaky_origin_failures_do_not_poison_the_cache() {
    // The entry page URL deterministically fails under this rate; verify
    // a failing first fetch is not cached as the entry page.
    let healthy: OriginRef = Arc::new(|req: &Request| {
        if req.url.path() == "/index.php" {
            Response::html("<html><body><div id=\"main\">ok</div></body></html>")
        } else {
            Response::error(Status::NOT_FOUND, "nope")
        }
    });
    let flaky = Arc::new(FlakyOrigin::new(
        healthy,
        1.0,
        Status::INTERNAL_SERVER_ERROR,
    ));
    let proxy = ProxyServer::new(
        spec_for("http://flaky.test/index.php", false),
        flaky,
        ProxyConfig::default(),
    );
    let entry = proxy.handle(&entry_request());
    assert_eq!(entry.status, Status::BAD_GATEWAY);
    assert!(
        proxy.cache().get("entry:html").is_none(),
        "failure must not be cached"
    );
}

/// Streamed requests that join a rebuild whose origin fetch fails get
/// the leader's answer: one origin fetch and one classified status for
/// all of them, not a retry per waiter against the failing origin.
#[test]
fn streamed_waiters_share_a_failed_rebuild() {
    const CLIENTS: usize = 4;
    let failing = Arc::new(
        FlakyOrigin::new(healthy_page(), 1.0, Status::INTERNAL_SERVER_ERROR)
            .with_latency(Duration::from_millis(60), Duration::ZERO),
    );
    let proxy = Arc::new(ProxyServer::new(
        spec_for("http://failing.test/", false),
        failing as OriginRef,
        fast_config(),
    ));
    let gate = Arc::new(Barrier::new(CLIENTS));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let proxy = Arc::clone(&proxy);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let request = entry_request().with_header(STREAM_HEADER, "chunked");
                gate.wait();
                proxy.handle(&request).status
            })
        })
        .collect();
    let statuses: Vec<Status> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(
        proxy.stats().origin_fetches,
        1,
        "waiters must share the leader's failed fetch"
    );
    assert_eq!(statuses, vec![Status::BAD_GATEWAY; CLIENTS]);
}

#[test]
fn transient_failures_are_absorbed_by_retries() {
    use msite_support::sync::Mutex;
    let hits = Arc::new(Mutex::new(0u32));
    let hits2 = Arc::clone(&hits);
    // Fails on the first fetch, succeeds afterwards: the retry loop
    // absorbs the hiccup so even the FIRST client request succeeds.
    let recovering: OriginRef = Arc::new(move |_req: &Request| {
        let mut h = hits2.lock();
        *h += 1;
        if *h == 1 {
            Response::error(Status::GATEWAY_TIMEOUT, "first hit times out")
        } else {
            Response::html("<html><body><div id=\"main\">recovered</div></body></html>")
        }
    });
    let proxy = ProxyServer::new(
        spec_for("http://recovering.test/", false),
        recovering,
        fast_config(),
    );
    let first = proxy.handle(&entry_request());
    assert!(first.status.is_success(), "retry should mask the hiccup");
    assert!(first.body_text().contains("main.html"));
    assert!(proxy.resilience_stats().retries >= 1);
    assert_eq!(proxy.stats().failures, 0);
}

#[test]
fn warm_cache_serves_stale_instead_of_5xx_storm() {
    // Healthy warm-up, then a hard outage: expired entry + snapshot are
    // served stale (with Warning) rather than each request failing.
    let flaky = Arc::new(
        FlakyOrigin::new(healthy_page(), 0.0, Status::SERVICE_UNAVAILABLE)
            .with_outage_window(1, u64::MAX),
    );
    let proxy = ProxyServer::new(
        spec_for("http://storm.test/", true),
        Arc::clone(&flaky) as OriginRef,
        fast_config(),
    );

    let warm = proxy.handle(&entry_request());
    assert!(warm.status.is_success());
    let cookie = cookie_of(&warm);

    // Let the snapshot TTL lapse; entries stay within the stale window.
    proxy.cache().advance_clock(Duration::from_secs(3_601));

    let mut stale_seen = 0;
    for _ in 0..12 {
        let entry = proxy.handle(
            &Request::get("http://p/m/t/")
                .unwrap()
                .with_header("cookie", &cookie),
        );
        assert!(
            entry.status.is_success(),
            "outage must degrade, not 5xx: got {}",
            entry.status
        );
        if entry.headers.get(DEGRADED_HEADER).is_some() {
            assert_eq!(
                entry.headers.get("warning"),
                Some("110 msite \"Response is stale\"")
            );
            stale_seen += 1;
        }
    }
    assert_eq!(stale_seen, 12, "every outage answer should be marked stale");
    assert!(proxy.stats().stale_served >= 12);
    // The snapshot image degrades the same way.
    let img = proxy.handle(
        &Request::get("http://p/m/t/img/snapshot.png")
            .unwrap()
            .with_header("cookie", &cookie),
    );
    assert!(img.status.is_success());
    assert!(img
        .headers
        .get(DEGRADED_HEADER)
        .unwrap()
        .starts_with("stale"));
    // Sustained failures tripped the breaker, so most of the 12 rounds
    // never hammered the dead origin at all.
    assert_eq!(proxy.breaker_state("storm.test"), BreakerState::Open);
    assert!(proxy.resilience_stats().breaker_rejections > 0);
}

#[test]
fn breaker_opens_at_threshold_and_recovers_via_probe() {
    // Outage for the first 4 origin hits (the breaker threshold), then
    // healthy: the breaker must trip, reject, and close via a probe.
    let flaky = Arc::new(
        FlakyOrigin::new(healthy_page(), 0.0, Status::INTERNAL_SERVER_ERROR)
            .with_outage_window(0, 4),
    );
    let proxy = ProxyServer::new(
        spec_for("http://trip.test/", false),
        Arc::clone(&flaky) as OriginRef,
        fast_config(),
    );

    // Request 1 burns 3 attempts (failures 1..3); request 2's first
    // attempt is failure 4, which trips the breaker mid-retry-loop.
    assert_eq!(proxy.handle(&entry_request()).status, Status::BAD_GATEWAY);
    assert_eq!(proxy.handle(&entry_request()).status, Status::BAD_GATEWAY);
    assert_eq!(proxy.breaker_state("trip.test"), BreakerState::Open);

    // While open: rejected up front, origin never contacted.
    let rejected = proxy.handle(&entry_request());
    assert_eq!(rejected.status, Status::SERVICE_UNAVAILABLE);
    assert_eq!(rejected.headers.get(ERROR_HEADER), Some("breaker-open"));
    let hammered = flaky.fault_stats().requests;

    // After the cooldown, a half-open probe hits the (now healthy)
    // origin and closes the breaker; service resumes.
    std::thread::sleep(Duration::from_millis(30));
    let recovered = proxy.handle(&entry_request());
    assert!(recovered.status.is_success());
    assert_eq!(proxy.breaker_state("trip.test"), BreakerState::Closed);
    assert_eq!(flaky.fault_stats().requests, hammered + 1);
    let stats = proxy.resilience_stats();
    assert!(stats.breaker_rejections >= 1);
    assert!(stats.successes >= 1);
}

#[test]
fn deadline_exhaustion_is_reported_as_gateway_timeout() {
    // A slow, failing origin against a tiny budget: the retry loop must
    // stop at the deadline and say so.
    let slow_dead = Arc::new(
        FlakyOrigin::new(healthy_page(), 1.0, Status::INTERNAL_SERVER_ERROR)
            .with_latency(Duration::from_millis(3), Duration::ZERO),
    );
    let mut config = fast_config();
    config.resilience.deadline = DeadlineBudget(Duration::from_millis(4));
    config.resilience.retry.base_backoff = Duration::from_millis(5);
    let proxy = ProxyServer::new(
        spec_for("http://slow.test/", false),
        slow_dead as OriginRef,
        config,
    );
    let entry = proxy.handle(&entry_request());
    assert_eq!(entry.status, Status::GATEWAY_TIMEOUT);
    assert_eq!(entry.headers.get(ERROR_HEADER), Some("deadline-exceeded"));
    assert!(proxy.resilience_stats().deadline_exhausted >= 1);
}

struct CrashingImageEngine;

impl RenderEngine for CrashingImageEngine {
    fn name(&self) -> &str {
        "image"
    }
    fn render(&self, _html: &str) -> RenderedArtifact {
        panic!("simulated renderer crash");
    }
}

#[test]
fn failing_image_engine_degrades_down_the_chain() {
    let mut proxy = ProxyServer::new(
        spec_for("http://render.test/", false),
        healthy_page(),
        fast_config(),
    );
    proxy.register_engine(Box::new(CrashingImageEngine));
    let rendered = proxy.handle(&Request::get("http://p/m/t/render/image").unwrap());
    assert!(rendered.status.is_success());
    assert_eq!(rendered.headers.get("x-msite-engine"), Some("html"));
    assert_eq!(
        rendered.headers.get(DEGRADED_HEADER),
        Some("engine-fallback; from=image")
    );
    assert!(proxy.stats().engine_fallbacks >= 1);
}

#[test]
fn malformed_origin_markup_still_adapts() {
    let messy: OriginRef = Arc::new(|_req: &Request| {
        Response::html(
            "<html><head><title>Broken</title><body>\
             <div id=\"main\"><table><tr><td>unclosed everything\
             <script>if (a<b) document.write(\"<div>\");</script>\
             <p>more<p>text",
        )
    });
    let proxy = ProxyServer::new(spec_for("http://messy.test/", false), messy, fast_config());
    let entry = proxy.handle(&entry_request());
    assert!(entry.status.is_success());
    assert!(entry.body_text().contains("/m/t/s/main.html"));
}

#[test]
fn truncated_and_garbled_bodies_never_panic_the_pipeline() {
    for (truncate, malformed) in [(1.0, 0.0), (0.0, 1.0)] {
        let flaky = Arc::new(
            FlakyOrigin::new(healthy_page(), 0.0, Status::SERVICE_UNAVAILABLE)
                .with_seed(0xB0D1E5)
                .with_truncated_bodies(truncate)
                .with_malformed_bodies(malformed),
        );
        let proxy = ProxyServer::new(
            spec_for("http://cutoff.test/", false),
            Arc::clone(&flaky) as OriginRef,
            fast_config(),
        );
        let entry = proxy.handle(&entry_request());
        // Damaged-but-2xx bodies flow into the tidy pipeline, which must
        // absorb them: any complete response (success or classified
        // failure) is acceptable, panicking is not.
        assert!(entry.status.is_success() || entry.headers.get(ERROR_HEADER).is_some());
        let stats = flaky.fault_stats();
        assert!(stats.truncated + stats.malformed >= 1, "fault not injected");
    }
}

#[test]
fn oversized_page_is_bounded_by_render_cap() {
    // A pathological page: 20k blocks, each 100px tall -> 2M px tall.
    let huge: OriginRef = Arc::new(|_req: &Request| {
        let mut body = String::from("<html><body><div id=\"main\">x</div>");
        for i in 0..20_000 {
            body.push_str(&format!("<div style=\"height:100px\">row {i}</div>"));
        }
        body.push_str("</body></html>");
        Response::html(body)
    });
    let proxy = ProxyServer::new(
        spec_for("http://huge.test/", true),
        huge,
        ProxyConfig::default(),
    );
    let entry = proxy.handle(&entry_request());
    assert!(entry.status.is_success());
    // The snapshot height was clamped by the browser's max_page_height
    // (8192) and then halved by the 0.5x snapshot scale.
    let cookie = cookie_of(&entry);
    let img = proxy.handle(
        &Request::get("http://p/m/t/img/snapshot.png")
            .unwrap()
            .with_header("cookie", &cookie),
    );
    assert!(img.status.is_success());
    let height = u32::from_be_bytes(img.body[20..24].try_into().unwrap());
    assert!(height <= 4_096, "snapshot height {height}");
}

#[test]
fn empty_origin_body_handled() {
    let empty: OriginRef = Arc::new(|_req: &Request| Response::html(""));
    let proxy = ProxyServer::new(spec_for("http://empty.test/", false), empty, fast_config());
    let entry = proxy.handle(&entry_request());
    assert!(entry.status.is_success());
}

#[test]
fn ajax_origin_error_reported_as_bad_gateway() {
    let site = Arc::new(ForumSite::new(ForumConfig::default()));
    let mut spec = AdaptationSpec::new(
        "thread",
        &format!("{}/showthread.php?t=42", site.base_url()),
    );
    spec.snapshot = None;
    let spec = spec.rule(Target::Css("#posts".into()), vec![Attribute::AjaxRewrite]);
    let proxy = ProxyServer::new(spec, Arc::clone(&site) as OriginRef, ProxyConfig::default());
    let entry = proxy.handle(&Request::get("http://p/m/thread/").unwrap());
    let cookie = cookie_of(&entry);
    // Without an origin session, showpic returns 403 -> proxy reports 502.
    let frag = proxy.handle(
        &Request::get("http://p/m/thread/proxy?action=1&p=9")
            .unwrap()
            .with_header("cookie", &cookie),
    );
    assert_eq!(frag.status, Status::BAD_GATEWAY);
    assert_eq!(frag.headers.get(ERROR_HEADER), Some("origin-unavailable"));
}

#[test]
fn garbled_chunk_modes_yield_typed_decode_errors() {
    use msite_net::{decode_chunked, garble_chunked, ChunkedError, GARBLED_CHUNK_MODES};
    let payload = b"<html><body><div id=\"main\">chunked</div></body></html>";
    for (mode, name) in GARBLED_CHUNK_MODES.iter().enumerate() {
        let wire = garble_chunked(payload, mode);
        let mut reader = std::io::BufReader::new(wire.as_slice());
        let err = decode_chunked(&mut reader)
            .expect_err(&format!("mode {name} must fail decoding, not succeed"));
        // Each sub-mode maps to its own typed error — no panic, no hang,
        // no string matching needed to classify the fault.
        match (mode, &err) {
            (0, ChunkedError::Truncated { .. })
            | (1, ChunkedError::BadSizeLine(_))
            | (2, ChunkedError::OversizedChunk { .. })
            | (3, ChunkedError::MissingCrlf) => {}
            _ => panic!("mode {name}: unexpected error {err:?}"),
        }
        // And each converts into a classified io::Error for transports.
        let io: std::io::Error = err.into();
        assert!(
            matches!(
                io.kind(),
                std::io::ErrorKind::InvalidData | std::io::ErrorKind::UnexpectedEof
            ),
            "mode {name}: kind {:?}",
            io.kind()
        );
    }
}

#[test]
fn flaky_origin_garbled_chunks_are_injected_and_absorbed() {
    // Force the garbled-chunk fault on every response and verify (a) the
    // injection is observable via stats + header, (b) the resulting
    // framing always fails typed decoding, and (c) the proxy pipeline
    // absorbs the damaged body without panicking.
    use msite_net::{decode_chunked, ChunkedError};
    let flaky = Arc::new(
        FlakyOrigin::new(healthy_page(), 0.0, Status::SERVICE_UNAVAILABLE)
            .with_seed(0xC4E6)
            .with_garbled_chunks(1.0),
    );
    let mut modes_seen = std::collections::BTreeSet::new();
    for i in 0..24 {
        let response = flaky.handle(&Request::get(&format!("http://h/p{i}")).unwrap());
        let mode = response
            .headers
            .get("x-flaky-garbled-chunk")
            .expect("garbled response must be tagged")
            .to_string();
        modes_seen.insert(mode.clone());
        let mut reader = std::io::BufReader::new(&response.body[..]);
        let err = decode_chunked(&mut reader).expect_err("garbled framing must not decode");
        assert!(
            !matches!(err, ChunkedError::Io(_)),
            "p{i} ({mode}): want a framing error, got {err:?}"
        );
    }
    assert_eq!(flaky.fault_stats().garbled_chunks, 24);
    assert!(
        modes_seen.len() >= 3,
        "seeded coin should cover most sub-modes, saw {modes_seen:?}"
    );

    let proxy = ProxyServer::new(
        spec_for("http://garbled.test/", false),
        Arc::clone(&flaky) as OriginRef,
        fast_config(),
    );
    let entry = proxy.handle(&entry_request());
    assert!(entry.status.is_success() || entry.headers.get(ERROR_HEADER).is_some());
}

/// The full chaos matrix: every fault mode x snapshot on/off, a burst
/// of requests across every endpoint class, and one invariant — the
/// proxy always answers, and failures are always classified.
#[test]
fn chaos_matrix_always_answers_and_classifies() {
    #[derive(Clone, Copy, Debug)]
    enum Mode {
        Down,
        Flaky,
        Slow,
        Truncated,
        Malformed,
    }
    let modes = [
        Mode::Down,
        Mode::Flaky,
        Mode::Slow,
        Mode::Truncated,
        Mode::Malformed,
    ];
    for mode in modes {
        for snapshot in [false, true] {
            let origin: OriginRef = match mode {
                Mode::Down => Arc::new(FlakyOrigin::new(
                    healthy_page(),
                    1.0,
                    Status::SERVICE_UNAVAILABLE,
                )),
                Mode::Flaky => Arc::new(
                    FlakyOrigin::new(healthy_page(), 0.3, Status::INTERNAL_SERVER_ERROR)
                        .with_seed(0xF1A4)
                        .per_attempt(),
                ),
                Mode::Slow => Arc::new(
                    FlakyOrigin::new(healthy_page(), 0.0, Status::SERVICE_UNAVAILABLE)
                        .with_latency(Duration::from_micros(300), Duration::from_micros(300)),
                ),
                Mode::Truncated => Arc::new(
                    FlakyOrigin::new(healthy_page(), 0.0, Status::SERVICE_UNAVAILABLE)
                        .with_seed(0x7A11)
                        .with_truncated_bodies(0.5),
                ),
                Mode::Malformed => Arc::new(
                    FlakyOrigin::new(healthy_page(), 0.0, Status::SERVICE_UNAVAILABLE)
                        .with_seed(0x9A4B)
                        .with_malformed_bodies(0.5),
                ),
            };
            let proxy = ProxyServer::new(
                spec_for("http://chaos.test/", snapshot),
                origin,
                fast_config(),
            );
            let paths = [
                "/m/t/",
                "/m/t/s/main.html",
                "/m/t/img/snapshot.png",
                "/m/t/render/text",
                "/m/t/proxy?action=0",
                "/m/t/nonsense",
            ];
            for round in 0..3 {
                for path in paths {
                    let response = proxy.handle(&Request::get(&format!("http://p{path}")).unwrap());
                    assert!(
                        response.status.is_success()
                            || response.status.is_redirect()
                            || response.headers.get(ERROR_HEADER).is_some(),
                        "{mode:?} snapshot={snapshot} round={round} {path}: \
                         unclassified failure {}",
                        response.status
                    );
                }
            }
            // Counters reconcile: every classified failure was counted.
            let stats = proxy.stats();
            assert_eq!(
                stats.requests,
                3 * paths.len() as u64,
                "{mode:?} snapshot={snapshot}"
            );
        }
    }
}
