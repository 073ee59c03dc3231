//! End-to-end observability conformance: a real `HttpServer` on a
//! loopback socket in front of a real `ProxyServer`, both publishing
//! into one shared [`Telemetry`], exercised by real TCP clients.
//!
//! Each scenario asserts three surfaces at once:
//! - the response bytes and `x-msite-*` header contracts (engine,
//!   degraded, error, trace);
//! - exact `/metrics` deltas for the scenario's counters (hit, miss,
//!   coalesced, stale-serve, overload-shed);
//! - span recovery: `GET /trace/<id>` returns the request's timed
//!   stage/cache/resilience/worker spans for the id the response's
//!   `x-msite-trace` header named.

use msite::attributes::{AdaptationSpec, Attribute, SnapshotSpec, Target};
use msite::error::{DEGRADED_HEADER, ERROR_HEADER};
use msite::proxy::{ProxyConfig, ProxyServer, STREAM_HEADER};
use msite_net::resilience::{BreakerConfig, DeadlineBudget, RetryPolicy};
use msite_net::{
    http_get, http_request, FlakyOrigin, HttpServer, Origin, OriginRef, Request, ResiliencePolicy,
    Response, ServerConfig, Status,
};
use msite_sites::{ForumConfig, ForumSite};
use msite_support::telemetry::{Telemetry, TRACE_HEADER};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One proxy + one HTTP server wired through a shared telemetry handle,
/// the way `examples/live_proxy` deploys them.
struct Stack {
    proxy: Arc<ProxyServer>,
    server: HttpServer,
    telemetry: Telemetry,
}

impl Stack {
    fn up(spec: AdaptationSpec, origin: OriginRef, config: ProxyConfig) -> Stack {
        Stack::up_with_server(spec, origin, config, ServerConfig::default())
    }

    fn up_with_server(
        spec: AdaptationSpec,
        origin: OriginRef,
        mut config: ProxyConfig,
        server_config: ServerConfig,
    ) -> Stack {
        if config.telemetry.is_none() {
            config.telemetry = Some(Telemetry::new());
        }
        let telemetry = config.telemetry.clone().unwrap();
        let proxy = Arc::new(ProxyServer::new(spec, origin, config));
        let server = HttpServer::bind_with_telemetry(
            "127.0.0.1:0",
            Arc::clone(&proxy) as OriginRef,
            server_config,
            telemetry.clone(),
        )
        .unwrap();
        Stack {
            proxy,
            server,
            telemetry,
        }
    }

    fn url(&self, path: &str) -> String {
        format!("http://{}{path}", self.server.addr())
    }

    /// Scrapes `GET /metrics` over TCP and parses every sample line
    /// into `series -> value` (the series string keeps its label set).
    fn scrape(&self) -> BTreeMap<String, i64> {
        let response = http_get(&self.url("/metrics")).unwrap();
        assert!(response.status.is_success());
        assert!(response
            .headers
            .get("content-type")
            .unwrap()
            .starts_with("text/plain"));
        parse_exposition(&response.body_text())
    }

    /// Fetches the retained spans for one trace id, polling briefly:
    /// the server's `server.worker` span lands just after the response
    /// bytes are flushed, so an immediate read can race it.
    fn trace_json(&self, id: &str, wait_for: &str) -> String {
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let response = http_get(&self.url(&format!("/trace/{id}"))).unwrap();
            if response.status.is_success() {
                let body = response.body_text();
                if body.contains(wait_for) || Instant::now() > deadline {
                    return body;
                }
            } else if Instant::now() > deadline {
                panic!("trace {id} not recoverable: {}", response.status);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    fn down(self) {
        self.server.shutdown();
    }
}

fn parse_exposition(text: &str) -> BTreeMap<String, i64> {
    let mut samples = BTreeMap::new();
    for line in text.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("malformed sample line");
        let value: i64 = value.parse().expect("non-integer sample value");
        assert!(
            samples.insert(series.to_string(), value).is_none(),
            "duplicate series in exposition: {series}"
        );
    }
    samples
}

fn sample(samples: &BTreeMap<String, i64>, series: &str) -> i64 {
    *samples.get(series).unwrap_or_else(|| {
        panic!(
            "series {series:?} missing from scrape; have: {:?}",
            samples.keys().collect::<Vec<_>>()
        )
    })
}

fn healthy_page() -> OriginRef {
    Arc::new(|_req: &Request| {
        Response::html(
            "<html><head><title>Up</title></head><body>\
             <div id=\"main\">hello observable world</div></body></html>",
        )
    })
}

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

/// Millisecond-scale resilience so failure scenarios run fast; the
/// 10s cooldown keeps the breaker deterministically open once tripped
/// (no half-open probe mid-test), making transition counts exact.
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
                cooldown: Duration::from_secs(10),
                probe_successes: 1,
            },
            seed: 0xE2E,
        },
        ..ProxyConfig::default()
    }
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

fn get_with_cookie(url: &str, cookie: &str) -> Response {
    http_request(&Request::get(url).unwrap().with_header("cookie", cookie)).unwrap()
}

// --- Scenario 1: entry flow — miss then hit, trace recovery, healthz ---

#[test]
fn entry_flow_reports_trace_and_exact_metrics() {
    let stack = Stack::up(
        spec_for("http://one.test/", false),
        healthy_page(),
        fast_config(),
    );

    // Cold entry: a miss that fetches the origin and builds the bundle.
    let first = http_get(&stack.url("/m/t/")).unwrap();
    assert!(first.status.is_success());
    assert!(first.body_text().contains("/m/t/s/main.html"));
    let first_id = first
        .headers
        .get(TRACE_HEADER)
        .expect("trace header")
        .to_string();
    let cookie = cookie_of(&first);

    // Warm entry: a shared-cache hit on the same session.
    let second = get_with_cookie(&stack.url("/m/t/"), &cookie);
    assert!(second.status.is_success());
    let second_id = second.headers.get(TRACE_HEADER).unwrap().to_string();
    assert_ne!(first_id, second_id, "each request gets its own trace id");
    assert_eq!(first.body_text(), second.body_text());

    // The cold trace holds the pipeline's stage spans, the cache flight
    // (as leader), the root request span, and the server's worker hop.
    let cold = stack.trace_json(&first_id, "server.worker");
    for span in [
        "\"name\":\"request\"",
        "stage.fetch",
        "stage.filter",
        "stage.emit",
        "cache.flight",
    ] {
        assert!(cold.contains(span), "cold trace missing {span}: {cold}");
    }
    assert!(cold.contains("\"role\":\"led\""), "{cold}");
    // The warm trace shows the hit-path flight instead of a rebuild.
    let warm = stack.trace_json(&second_id, "cache.flight");
    assert!(warm.contains("\"role\":\"hit\""), "{warm}");
    assert!(
        !warm.contains("stage.fetch"),
        "hit must not re-run the pipeline"
    );

    // Exact metric deltas for the scenario (fresh registry, so the
    // absolute values are the deltas).
    let samples = stack.scrape();
    assert_eq!(sample(&samples, "msite_proxy_requests_total"), 2);
    assert_eq!(sample(&samples, "msite_proxy_origin_fetches_total"), 1);
    assert_eq!(sample(&samples, "msite_session_created_total"), 1);
    assert_eq!(sample(&samples, "msite_cache_misses_total"), 1);
    assert_eq!(sample(&samples, "msite_cache_hits_total"), 1);
    assert_eq!(sample(&samples, "msite_proxy_request_micros_count"), 2);
    assert_eq!(sample(&samples, "msite_session_live"), 1);
    assert!(sample(&samples, "msite_server_served_total") >= 3);
    // One origin fetch means the tokenizer chewed real bytes; this
    // spec renders no snapshot and pre-renders nothing, so no PNG was
    // encoded.
    assert!(sample(&samples, "msite_tokenizer_bytes_total") > 0);
    assert_eq!(sample(&samples, "msite_png_encodes_total"), 0);
    assert_eq!(sample(&samples, "msite_png_encode_micros"), 0);
    // Scrapes themselves must not perturb proxy/cache counters (server
    // connection counters legitimately move — the scrape is a request).
    let again = stack.scrape();
    for series in [
        "msite_proxy_requests_total",
        "msite_proxy_origin_fetches_total",
        "msite_proxy_request_micros_count",
        "msite_cache_hits_total",
        "msite_cache_misses_total",
    ] {
        assert_eq!(
            sample(&again, series),
            sample(&samples, series),
            "scrape moved {series}"
        );
    }

    // Healthz: everything up, status ok, no degradation headers.
    let health = http_get(&stack.url("/healthz")).unwrap();
    assert!(health.status.is_success());
    assert!(health.body_text().contains("\"status\":\"ok\""));
    assert!(health.headers.get(DEGRADED_HEADER).is_none());
    assert!(health.headers.get(ERROR_HEADER).is_none());
    stack.down();
}

// --- Scenario 1b: two proxies in one process keep separate counts ---

#[test]
fn two_proxies_count_independently() {
    // Proxy A serves over TCP with its own telemetry; proxy B, built in
    // the same process with another telemetry, serves nothing.
    let a = Stack::up(
        spec_for("http://a.test/", true),
        healthy_page(),
        fast_config(),
    );
    let b = ProxyServer::new(
        spec_for("http://b.test/", true),
        healthy_page(),
        fast_config(),
    );

    // A: cold entry (renders and encodes the snapshot), the snapshot
    // image, then a subpage.
    let entry = http_get(&a.url("/m/t/")).unwrap();
    assert!(entry.status.is_success());
    let cookie = cookie_of(&entry);
    for path in ["/m/t/img/snapshot.png", "/m/t/s/main.html"] {
        let response = get_with_cookie(&a.url(path), &cookie);
        assert!(response.status.is_success(), "{path}: {}", response.status);
    }
    let a_samples = a.scrape();
    assert_eq!(sample(&a_samples, "msite_png_encodes_total"), 1);
    assert!(sample(&a_samples, "msite_png_encode_micros") > 0);
    assert!(sample(&a_samples, "msite_tokenizer_bytes_total") > 0);
    assert_eq!(sample(&a_samples, "msite_session_created_total"), 1);

    // B's scrape runs in-process, so not even a server connection
    // counter moves: every counter series it exposes must read 0.
    let scrape = b.handle(&Request::get("http://p/metrics").unwrap());
    assert!(scrape.status.is_success());
    let text = scrape.body_text();
    let counters: Vec<&str> = text
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE ")?.strip_suffix(" counter"))
        .collect();
    assert!(!counters.is_empty(), "B exposes no counters: {text}");
    for (series, value) in parse_exposition(&text) {
        let name = series.split('{').next().unwrap_or(&series);
        if counters.contains(&name) {
            assert_eq!(value, 0, "proxy B reports A's work in {series}");
        }
    }
    a.down();
}

// --- Scenario 2: cold stampede over TCP coalesces exactly ---

#[test]
fn cold_stampede_over_tcp_coalesces_exactly() {
    // A slow origin stretches the leader's flight so every concurrent
    // client deterministically lands inside it.
    let slow = Arc::new(
        FlakyOrigin::new(healthy_page(), 0.0, Status::SERVICE_UNAVAILABLE)
            .with_latency(Duration::from_millis(250), Duration::ZERO),
    );
    let stack = Stack::up(
        spec_for("http://stampede.test/", false),
        slow as OriginRef,
        fast_config(),
    );

    const CLIENTS: usize = 6;
    let gate = Arc::new(Barrier::new(CLIENTS));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let url = stack.url("/m/t/");
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                gate.wait();
                let entry = http_get(&url).unwrap();
                assert!(entry.status.is_success());
                entry.body_text()
            })
        })
        .collect();
    let bodies: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(
        bodies.iter().all(|b| b == &bodies[0]),
        "coalesced waiters must receive the leader's bytes"
    );

    let samples = stack.scrape();
    assert_eq!(
        sample(&samples, "msite_proxy_requests_total"),
        CLIENTS as i64
    );
    assert_eq!(
        sample(&samples, "msite_proxy_origin_fetches_total"),
        1,
        "single-flight admits exactly one origin fetch"
    );
    assert_eq!(
        sample(&samples, "msite_proxy_renders_coalesced_total"),
        CLIENTS as i64 - 1
    );
    assert_eq!(
        sample(&samples, "msite_cache_coalesced_total"),
        CLIENTS as i64 - 1
    );
    assert_eq!(
        sample(&samples, "msite_session_created_total"),
        CLIENTS as i64,
        "coalescing must not merge sessions"
    );
    assert_eq!(stack.proxy.stats().renders_coalesced, CLIENTS as u64 - 1);
    stack.down();
}

// --- Scenario 3: outage serves stale, breaker trips, healthz degrades ---

#[test]
fn outage_serves_stale_and_degrades_healthz() {
    // Healthy for the warm-up fetch, hard outage afterwards.
    let flaky = Arc::new(
        FlakyOrigin::new(healthy_page(), 0.0, Status::SERVICE_UNAVAILABLE)
            .with_outage_window(1, u64::MAX),
    );
    let stack = Stack::up(
        spec_for("http://storm.test/", true),
        flaky as OriginRef,
        fast_config(),
    );

    let warm = http_get(&stack.url("/m/t/")).unwrap();
    assert!(warm.status.is_success());
    let cookie = cookie_of(&warm);
    let warmed = stack.scrape();
    assert_eq!(sample(&warmed, "msite_proxy_stale_served_total"), 0);

    // Let the entry TTL lapse; the stale window keeps the bytes around.
    stack
        .proxy
        .cache()
        .advance_clock(Duration::from_secs(3_601));

    const ROUNDS: usize = 5;
    let mut stale_trace = String::new();
    for _ in 0..ROUNDS {
        let entry = get_with_cookie(&stack.url("/m/t/"), &cookie);
        assert!(
            entry.status.is_success(),
            "outage must degrade, not fail: {}",
            entry.status
        );
        assert!(entry
            .headers
            .get(DEGRADED_HEADER)
            .unwrap()
            .starts_with("stale"));
        assert_eq!(
            entry.headers.get("warning"),
            Some("110 msite \"Response is stale\"")
        );
        stale_trace = entry.headers.get(TRACE_HEADER).unwrap().to_string();
    }

    // Exact stale-serve delta, and exactly one closed→open transition
    // (the 10s cooldown forbids a half-open probe mid-test).
    let samples = stack.scrape();
    assert_eq!(
        sample(&samples, "msite_proxy_stale_served_total"),
        ROUNDS as i64
    );
    assert_eq!(
        sample(
            &samples,
            "msite_breaker_transitions_total{host=\"storm.test\",to=\"open\"}"
        ),
        1
    );
    assert!(sample(&samples, "msite_cache_stale_hits_total") >= ROUNDS as i64);
    // Round 1 exhausts its 3 attempts (breaker failures 1-3); round 2's
    // first attempt is failure 4, tripping the breaker mid-retry-loop:
    // two terminal failures, then every later round is rejected up front.
    assert_eq!(sample(&samples, "msite_resilience_failures_total"), 2);
    assert_eq!(
        sample(&samples, "msite_resilience_breaker_rejections_total"),
        ROUNDS as i64 - 2
    );

    // The stale request's trace names the degradation: the refresh
    // flight failed and fell back to the stale entry.
    let trace = stack.trace_json(&stale_trace, "degraded.stale");
    assert!(trace.contains("\"name\":\"degraded.stale\""), "{trace}");
    assert!(trace.contains("\"role\":\"failed\""), "{trace}");
    assert!(trace.contains("\"fallback\":\"stale\""), "{trace}");

    // Healthz: 200 but explicitly degraded, naming the open breaker.
    let health = http_get(&stack.url("/healthz")).unwrap();
    assert!(health.status.is_success());
    assert!(health.body_text().contains("\"status\":\"degraded\""));
    assert_eq!(
        health.headers.get(DEGRADED_HEADER),
        Some("breaker; host=storm.test; state=open")
    );
    stack.down();
}

// --- Scenario 4: overload shed counted once, visible everywhere ---

/// An origin that parks its first caller on a condvar until released,
/// pinning the single worker so the queue fills deterministically.
struct GatedOrigin {
    calls: AtomicU64,
    released: Mutex<bool>,
    release: Condvar,
}

impl GatedOrigin {
    fn new() -> GatedOrigin {
        GatedOrigin {
            calls: AtomicU64::new(0),
            released: Mutex::new(false),
            release: Condvar::new(),
        }
    }

    fn open(&self) {
        *self.released.lock().unwrap() = true;
        self.release.notify_all();
    }
}

#[test]
fn overload_shed_is_counted_once_everywhere() {
    let gate = Arc::new(GatedOrigin::new());
    let gate2 = Arc::clone(&gate);
    let origin: OriginRef = Arc::new(move |_req: &Request| {
        if gate2.calls.fetch_add(1, Ordering::SeqCst) == 0 {
            let mut released = gate2.released.lock().unwrap();
            while !*released {
                released = gate2.release.wait(released).unwrap();
            }
        }
        Response::html("<html><body><div id=\"main\">late</div></body></html>")
    });
    let stack = Stack::up_with_server(
        spec_for("http://slowpool.test/", false),
        origin,
        fast_config(),
        ServerConfig {
            workers: 1,
            queue_depth: 1,
        },
    );

    // Client 1 occupies the only worker (blocked inside the origin).
    let url = stack.url("/m/t/");
    let c1 = std::thread::spawn({
        let url = url.clone();
        move || http_get(&url).unwrap()
    });
    let entered = Instant::now();
    while gate.calls.load(Ordering::SeqCst) == 0 {
        assert!(
            entered.elapsed() < Duration::from_secs(5),
            "worker never started"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // Client 2 fills the one queue slot.
    let c2 = std::thread::spawn({
        let url = url.clone();
        move || http_get(&url).unwrap()
    });
    let queued = Instant::now();
    while stack
        .telemetry
        .metrics
        .gauge_value("msite_server_queue_len", &[])
        < 1
    {
        assert!(
            queued.elapsed() < Duration::from_secs(5),
            "connection never queued"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // Client 3 is shed at the accept loop: 503 + reason + retry-after.
    let shed = http_get(&url).unwrap();
    assert_eq!(shed.status, Status::SERVICE_UNAVAILABLE);
    assert_eq!(shed.headers.get(ERROR_HEADER), Some("overloaded"));
    assert_eq!(shed.headers.get("retry-after"), Some("1"));

    // In-process healthz (the TCP path would itself be shed right now)
    // reports the saturated pool as overloaded with a 503.
    let health = stack
        .proxy
        .handle(&Request::get("http://p/healthz").unwrap());
    assert_eq!(health.status, Status::SERVICE_UNAVAILABLE);
    assert_eq!(health.headers.get(ERROR_HEADER), Some("overloaded"));
    assert!(health.body_text().contains("\"status\":\"overloaded\""));

    gate.open();
    assert!(c1.join().unwrap().status.is_success());
    assert!(c2.join().unwrap().status.is_success());

    // The shed is one event on one counter, and every view agrees
    // without any embedder-side folding (the pre-telemetry bug folded
    // ServerStats into ProxyStats only inside examples/live_proxy).
    assert_eq!(stack.server.stats().rejected_overload, 1);
    assert_eq!(stack.proxy.stats().overload_rejections, 1);
    assert_eq!(
        stack.proxy.stats().overload_rejections,
        stack.server.stats().rejected_overload
    );
    let samples = stack.scrape();
    assert_eq!(sample(&samples, "msite_server_rejected_overload_total"), 1);
    assert_eq!(sample(&samples, "msite_server_worker_panics_total"), 0);
    stack.down();
}

// --- Scenario 5: full forum flow — headers, engines, stage spans ---

#[test]
fn forum_flow_header_contracts_and_stage_spans() {
    // Real forum origin on its own socket; the proxy fetches it over TCP.
    let site = Arc::new(ForumSite::new(ForumConfig {
        host: "127.0.0.1".to_string(),
        ..ForumConfig::default()
    }));
    let origin_server = HttpServer::bind("127.0.0.1:0", Arc::clone(&site) as OriginRef).unwrap();
    let origin_url = format!("http://{}/index.php", origin_server.addr());
    let origin_client: OriginRef = Arc::new(move |req: &Request| {
        http_request(req).unwrap_or_else(|e| Response::error(Status::BAD_GATEWAY, &e.to_string()))
    });

    let mut spec = AdaptationSpec::new("forum", &origin_url);
    spec.snapshot = Some(SnapshotSpec {
        scale: 0.5,
        quality: 40,
        cache_ttl_secs: 600,
        viewport_width: 800,
    });
    let spec = spec
        .rule(
            Target::Css("#loginform".into()),
            vec![Attribute::Subpage {
                id: "login".into(),
                title: "Log in".into(),
                ajax: false,
                prerender: false,
            }],
        )
        .rule(Target::Css("body".into()), vec![Attribute::Searchable]);

    let stack = Stack::up(spec, origin_client, ProxyConfig::default());
    let base = stack.url("/m/forum");

    // Entry page: search machinery inlined, snapshot + subpage linked.
    let entry = http_get(&format!("{base}/")).unwrap();
    assert!(entry.status.is_success());
    let entry_body = entry.body_text();
    assert!(entry_body.contains("function msiteSearch"));
    assert!(entry_body.contains("msiteIndex"));
    assert!(entry_body.contains("snapshot.png"));
    assert!(entry_body.contains("/m/forum/s/login.html"));
    let entry_id = entry.headers.get(TRACE_HEADER).unwrap().to_string();
    let cookie = cookie_of(&entry);

    // Subpage: real extracted login form.
    let login = get_with_cookie(&format!("{base}/s/login.html"), &cookie);
    assert!(login.status.is_success());
    assert!(login.body_text().contains("vb_login_username"));
    assert!(login.headers.get(TRACE_HEADER).is_some());

    // Image: actual PNG bytes from the render stage.
    let snapshot = get_with_cookie(&format!("{base}/img/snapshot.png"), &cookie);
    assert!(snapshot.status.is_success());
    assert!(snapshot.body.starts_with(&[0x89, b'P', b'N', b'G']));
    assert!(snapshot.headers.get(TRACE_HEADER).is_some());

    // Alternate engine: the response names the engine that rendered it.
    let text = get_with_cookie(&format!("{base}/render/text"), &cookie);
    assert!(text.status.is_success());
    assert_eq!(text.headers.get("x-msite-engine"), Some("text"));

    // Missing artifact: classified 404, still traced.
    let missing = get_with_cookie(&format!("{base}/img/nope.png"), &cookie);
    assert_eq!(missing.status, Status::NOT_FOUND);
    assert_eq!(missing.headers.get(ERROR_HEADER), Some("not-found"));
    assert!(missing.headers.get(TRACE_HEADER).is_some());

    // Per-stage span timings are recoverable for the entry request id:
    // every pipeline stage (including the render pseudo-stage) appears
    // with a strictly positive elapsed time.
    let trace = stack.trace_json(&entry_id, "server.worker");
    for span in [
        "stage.fetch",
        "stage.filter",
        "stage.dom",
        "stage.attributes",
        "stage.emit",
        "stage.render",
        "cache.flight",
        "resilience.fetch",
        "\"name\":\"request\"",
        "server.worker",
    ] {
        assert!(trace.contains(span), "entry trace missing {span}: {trace}");
    }

    let samples = stack.scrape();
    assert_eq!(sample(&samples, "msite_proxy_requests_total"), 5);
    assert_eq!(
        sample(&samples, "msite_proxy_errors_total{reason=\"not-found\"}"),
        1
    );
    assert_eq!(sample(&samples, "msite_session_created_total"), 1);
    assert!(sample(&samples, "msite_proxy_full_renders_total") >= 1);
    assert!(sample(&samples, "msite_stage_micros_count{stage=\"render\"}") >= 1);

    stack.down();
    origin_server.shutdown();
}

// --- Scenario 6: streamed entry over real TCP — chunked framing,
// byte identity with the batch path, TTFB + stream spans ---

#[test]
fn streamed_entry_over_tcp_matches_batch_bytes() {
    let stack = Stack::up(
        spec_for("http://stream.test/", false),
        healthy_page(),
        fast_config(),
    );

    // Cold streamed entry: the transport decodes the chunked framing;
    // the reassembled body is the complete entry page.
    let streamed = http_request(
        &Request::get(&stack.url("/m/t/"))
            .unwrap()
            .with_header(STREAM_HEADER, "chunked"),
    )
    .unwrap();
    assert!(streamed.status.is_success());
    let streamed_body = streamed.body_text();
    assert!(streamed_body.contains("/m/t/s/main.html"));
    assert!(
        streamed.headers.get("content-length").is_none(),
        "chunked responses must not carry content-length"
    );
    let streamed_id = streamed.headers.get(TRACE_HEADER).unwrap().to_string();
    let cookie = cookie_of(&streamed);

    // The streamed build published the entry to the shared cache; a
    // plain batch request returns the identical bytes with framing.
    let batch = get_with_cookie(&stack.url("/m/t/"), &cookie);
    assert!(batch.status.is_success());
    assert_eq!(
        streamed_body,
        batch.body_text(),
        "streamed chunks must concatenate to the batch body"
    );
    assert!(batch.headers.get("content-length").is_some());

    // The streamed trace records the entry chunk flush.
    let trace = stack.trace_json(&streamed_id, "stream.chunk");
    assert!(trace.contains("\"name\":\"stream.chunk\""), "{trace}");
    assert!(trace.contains("\"kind\":\"entry\""), "{trace}");

    let samples = stack.scrape();
    assert_eq!(
        sample(&samples, "msite_proxy_streamed_responses_total"),
        1,
        "exactly the opted-in request streams"
    );
    assert!(sample(&samples, "msite_proxy_ttfb_micros_count") >= 1);
    assert_eq!(sample(&samples, "msite_proxy_requests_total"), 2);
    assert_eq!(
        sample(&samples, "msite_proxy_origin_fetches_total"),
        1,
        "the batch request must hit the streamed build's cache entry"
    );
    stack.down();
}

// --- Scenario 7: one post edited — incremental re-adaptation reuses
// every untouched subtree and re-renders strictly fewer subpages ---

/// Origin serving a six-post page; post 0's body flips when `edited`
/// is set, leaving the other five posts byte-identical.
fn posts_origin(edited: Arc<std::sync::atomic::AtomicBool>) -> OriginRef {
    Arc::new(move |_req: &Request| {
        let mut html =
            String::from("<html><head><title>Posts</title></head><body><div id=\"posts\">");
        for s in 0..6 {
            let body = if s == 0 && edited.load(Ordering::SeqCst) {
                "post zero EDITED body".to_string()
            } else {
                format!("post {s} body {}", "lorem ipsum ".repeat(10 + s))
            };
            html.push_str(&format!(
                "<div id=\"post{s}\"><h2>Post {s}</h2><p>{body}</p></div>"
            ));
        }
        html.push_str("</div></body></html>");
        Response::html(&html)
    })
}

#[test]
fn edited_post_refetch_rerenders_strictly_fewer_subpages() {
    let edited = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut spec = AdaptationSpec::new("t", "http://posts.test/");
    spec.snapshot = Some(SnapshotSpec {
        scale: 0.5,
        quality: 40,
        cache_ttl_secs: 600,
        viewport_width: 800,
    });
    for s in 0..6 {
        spec = spec.rule(
            Target::Css(format!("#post{s}")),
            vec![Attribute::Subpage {
                id: format!("post{s}"),
                title: format!("Post {s}"),
                ajax: false,
                // The edited post stays a plain HTML subpage so the
                // test can read its text; the untouched five are
                // pre-rendered, which is where the render savings show.
                prerender: s != 0,
            }],
        );
    }
    let stack = Stack::up(spec, posts_origin(Arc::clone(&edited)), fast_config());

    // Cold miss: every subtree is computed, every pre-render runs.
    let cold = http_get(&stack.url("/m/t/")).unwrap();
    assert!(cold.status.is_success());
    let cookie_a = cookie_of(&cold);
    let after_cold = stack.scrape();
    assert_eq!(sample(&after_cold, "msite_subtrees_recomputed_total"), 6);
    assert_eq!(sample(&after_cold, "msite_subtrees_reused_total"), 0);
    let cold_renders = sample(&after_cold, "msite_browser_renders_total");
    assert!(
        cold_renders >= 5,
        "five pre-rendered subpages imply at least five browser renders, got {cold_renders}"
    );

    // Session A's per-user view of the pre-edit subpages.
    let post0_before = get_with_cookie(&stack.url("/m/t/s/post0.html"), &cookie_a);
    let post1_before = get_with_cookie(&stack.url("/m/t/s/post1.html"), &cookie_a);
    assert!(post0_before.status.is_success());
    assert!(post1_before.status.is_success());
    let baseline = stack.scrape();

    // Edit exactly one post and let the entry TTL lapse.
    edited.store(true, Ordering::SeqCst);
    stack.proxy.cache().advance_clock(Duration::from_secs(601));

    // Re-fetch: the rebuild re-runs filter/attrs/emit/render only for
    // the changed subtree and reuses the other five artifacts.
    let refetch = get_with_cookie(&stack.url("/m/t/"), &cookie_a);
    assert!(refetch.status.is_success());
    assert!(refetch.body_text().contains("/m/t/s/post0.html"));
    let refetch_id = refetch.headers.get(TRACE_HEADER).unwrap().to_string();
    let after_incremental = stack.scrape();

    let reused = sample(&after_incremental, "msite_subtrees_reused_total")
        - sample(&baseline, "msite_subtrees_reused_total");
    let recomputed = sample(&after_incremental, "msite_subtrees_recomputed_total")
        - sample(&baseline, "msite_subtrees_recomputed_total");
    let incremental_renders = sample(&after_incremental, "msite_browser_renders_total")
        - sample(&baseline, "msite_browser_renders_total");
    assert_eq!(reused, 5, "five untouched posts must be reused");
    assert_eq!(recomputed, 1, "only the edited post is recomputed");
    assert!(
        incremental_renders < cold_renders,
        "incremental rebuild must re-render strictly fewer subpages \
         ({incremental_renders} vs cold {cold_renders})"
    );
    assert!(
        incremental_renders >= 1,
        "the changed entry snapshot re-renders"
    );

    // The rebuild's trace names the reuse split.
    let trace = stack.trace_json(&refetch_id, "incremental.reuse");
    assert!(trace.contains("\"name\":\"incremental.reuse\""), "{trace}");
    assert!(trace.contains("\"reused\":\"5\""), "{trace}");
    assert!(trace.contains("\"recomputed\":\"1\""), "{trace}");

    // A fresh session adapting the edited page serves byte-identical
    // bytes for the untouched subpage and new bytes for the edited one.
    let warm = http_get(&stack.url("/m/t/")).unwrap();
    let cookie_b = cookie_of(&warm);
    let post1_after = get_with_cookie(&stack.url("/m/t/s/post1.html"), &cookie_b);
    let post0_after = get_with_cookie(&stack.url("/m/t/s/post0.html"), &cookie_b);
    assert_eq!(
        post1_before.body, post1_after.body,
        "unchanged subpage bytes must be identical across the edit"
    );
    assert_ne!(
        post0_before.body, post0_after.body,
        "the edited subpage must change"
    );
    assert!(post0_after.body_text().contains("EDITED"));
    stack.down();
}
