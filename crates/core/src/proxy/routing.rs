//! Request routing: the proxy-namespace dispatcher and the [`Origin`]
//! implementation (trace creation + request span).

use super::ProxyServer;
use crate::cache::Flight;
use crate::engine::CachedRender;
use crate::error::{ProxyError, DEGRADED_HEADER};
use crate::session::SESSION_COOKIE;
use msite_net::resilience::{is_breaker_rejection, Deadline, DEADLINE_HEADER};
use msite_net::{Cookie, Method, Origin, Request, Response, Url};
use msite_support::telemetry::{Trace, TRACE_HEADER};
use std::sync::Arc;
use std::time::{Duration, Instant};

impl ProxyServer {
    fn handle_inner(&self, request: &Request) -> Response {
        let base = self.base();
        // One wall-clock budget per request, shared by the retry loop
        // and everything downstream of the fetch.
        let deadline = Deadline::within(self.config.resilience.deadline.0);
        let fail = |err: ProxyError| -> Response {
            // Labeled by machine-readable reason; ProxyStats::failures is
            // the sum over all reasons. Cold path, so the series lookup
            // is fine.
            self.telemetry
                .metrics
                .counter("msite_proxy_errors_total", &[("reason", err.reason())])
                .inc();
            err.into_response()
        };
        let path = request.url.path().to_string();
        let Some(rest) = path.strip_prefix(&base) else {
            return fail(ProxyError::NotFound { what: "proxy path" });
        };
        let rest = if rest.is_empty() { "/" } else { rest };

        // Session handling: issue a cookie on first contact.
        // Sessions are maintained even when the spec does not require
        // them: subpages and jars still need a home (the spec flag only
        // controls whether origin auth flows are attempted).
        let cookie_value = request.cookie(SESSION_COOKIE);
        let (session, created) = self
            .sessions
            .get_or_create(cookie_value.as_deref(), &self.tenant);
        let session_id = session.lock().id.clone();
        let attach_cookie = |mut response: Response| -> Response {
            if created {
                let mut cookie = Cookie::new(SESSION_COOKIE, &session_id);
                cookie.http_only = true;
                cookie.path = base.clone();
                response = response.with_cookie(&cookie);
            }
            response
        };

        // Cookie clearing entry point (logout-button replacement).
        if rest == "/"
            && request.param("msite").as_deref() == Some("clearcookies")
            && *self.wants_cookie_clear.lock()
        {
            session.lock().jar.clear();
            return attach_cookie(Response::redirect(&format!("{base}/")));
        }

        let response = match rest {
            "/" => {
                burn(self.config.scripted_overhead);
                match self.serve_entry(request, &session, deadline) {
                    Ok(r) => r,
                    Err(err) => fail(err),
                }
            }
            "/logout" => {
                // The store's teardown wipes the session directory and
                // runs the eviction hooks (dropping the user bundle).
                self.sessions.destroy(&session_id);
                let mut kill = Cookie::new(SESSION_COOKIE, "");
                kill.expires_at = Some(0);
                kill.path = base.clone();
                return Response::redirect(&format!("{base}/")).with_cookie(&kill);
            }
            "/auth" => match request.method {
                Method::Get => self.auth_form("", &request.param("next").unwrap_or_default()),
                Method::Post => {
                    let user = request.param("user").unwrap_or_default();
                    let pass = request.param("pass").unwrap_or_default();
                    if user.is_empty() {
                        self.auth_form(
                            "User name required.",
                            &request.param("next").unwrap_or_default(),
                        )
                    } else {
                        session.lock().http_auth = Some((user, pass));
                        let next = request.param("next").unwrap_or_default();
                        Response::redirect(&format!("{base}/s/{next}"))
                    }
                }
                _ => fail(ProxyError::UnsupportedMethod),
            },
            "/proxy" => {
                burn(self.config.scripted_overhead);
                self.metrics.lightweight.inc();
                match self.satisfy_ajax(&session, request, deadline) {
                    Ok(r) => r,
                    Err(err) => fail(err),
                }
            }
            _ if rest.starts_with("/s/") => {
                burn(self.config.scripted_overhead);
                match self.serve_subpage(&session, &rest[3..], deadline) {
                    Ok(r) => r,
                    Err(err) => fail(err),
                }
            }
            _ if rest.starts_with("/img/") => {
                burn(self.config.scripted_overhead);
                self.metrics.lightweight.inc();
                match self.serve_image(&session_id, &rest[5..], deadline) {
                    Ok(r) => r,
                    Err(err) => fail(err),
                }
            }
            _ if rest.starts_with("/render/") => {
                // Alternate-engine rendering of the adapted entry page:
                // /render/text, /render/pdf, /render/image, /render/html.
                // A panicking engine degrades down the fallback chain
                // (image -> html -> text) instead of erroring. Renders
                // are cached under `render:<engine>` and concurrent
                // requests coalesce into one engine run, like the entry
                // page.
                let engine_name = &rest[8..];
                if self.engines.get(engine_name).is_none() {
                    return attach_cookie(fail(ProxyError::UnknownEngine {
                        name: engine_name.to_string(),
                    }));
                }
                let flight = self.cache.render_flight::<ProxyError>(
                    &format!("render:{engine_name}"),
                    self.snapshot_ttl(),
                    Some(deadline.remaining()),
                    || self.render_engine_page(&session, engine_name, deadline),
                );
                let (bytes, stale_age) = match flight {
                    Flight::Hit(bytes) => {
                        self.metrics.lightweight.inc();
                        (bytes, None)
                    }
                    Flight::Led { value, .. } => (value, None),
                    Flight::Shared(bytes) => {
                        self.metrics.lightweight.inc();
                        (bytes, None)
                    }
                    Flight::Stale { value, age } => (value, Some(age)),
                    Flight::TimedOut => return attach_cookie(fail(ProxyError::DeadlineExceeded)),
                    Flight::Failed(err) => return attach_cookie(fail(err)),
                };
                match CachedRender::decode(&bytes) {
                    Some(cached) => {
                        let mut response = Response::bytes(&cached.content_type, cached.bytes);
                        response.headers.set("x-msite-engine", &cached.engine);
                        if cached.degraded {
                            response.headers.set(
                                DEGRADED_HEADER,
                                &format!("engine-fallback; from={engine_name}"),
                            );
                        }
                        match stale_age {
                            Some(age) => self.mark_stale(response, age),
                            None => response,
                        }
                    }
                    None => fail(ProxyError::RenderFailed {
                        detail: "corrupt cached render".into(),
                    }),
                }
            }
            _ if rest.starts_with("/o/") => {
                // Origin passthrough for form posts and follow-up
                // navigation out of subpages.
                let target = match Url::parse(&self.spec.page_url)
                    .and_then(|u| u.join(&format!("/{}", &rest[3..])))
                {
                    Ok(mut u) => {
                        if let Some(q) = request.url.query() {
                            u = u.join(&format!("?{q}")).unwrap_or(u);
                        }
                        u
                    }
                    Err(e) => {
                        return attach_cookie(fail(ProxyError::BadOriginUrl {
                            detail: e.to_string(),
                        }))
                    }
                };
                let mut forwarded = Request {
                    method: request.method,
                    url: target,
                    headers: request.headers.clone(),
                    body: request.body.clone(),
                };
                forwarded.headers.remove("cookie"); // jar replaces client cookies
                let response = self.origin_fetch(&session, &mut forwarded, deadline);
                // Breaker/deadline rejections are the proxy's failures,
                // not origin output; origin statuses pass through.
                if is_breaker_rejection(&response)
                    || response.headers.get(DEADLINE_HEADER).is_some()
                {
                    return attach_cookie(fail(ProxyError::from_origin_failure(&response)));
                }
                // Rewrite origin redirects back into the proxy namespace.
                if response.status.is_redirect() {
                    return attach_cookie(Response::redirect(&format!("{base}/")));
                }
                response
            }
            _ => fail(ProxyError::NotFound { what: "proxy path" }),
        };
        attach_cookie(response)
    }
}

impl Origin for ProxyServer {
    fn handle(&self, request: &Request) -> Response {
        if let Some(response) = self.handle_observability(request) {
            return response;
        }
        self.metrics.requests.inc();
        let trace = Trace::new(
            self.trace_ids.next_id(),
            Arc::clone(&self.telemetry.trace_log),
        );
        // Thread-local entry: layers without a trace parameter (cache
        // flights, resilience, stale marking) pick it up from here.
        let _entered = trace.enter();
        let started = Instant::now();
        let mut response = self.handle_inner(request);
        let elapsed = started.elapsed();
        self.metrics
            .request_micros
            .observe(elapsed.as_micros() as u64);
        trace.log().record_raw(
            trace.id(),
            "request",
            started,
            elapsed,
            vec![
                ("path".to_string(), request.url.path().to_string()),
                ("status".to_string(), response.status.0.to_string()),
            ],
        );
        response.headers.set(TRACE_HEADER, &trace.id_hex());
        response
    }

    fn name(&self) -> &str {
        "msite-proxy"
    }
}

/// Burns CPU for `duration` (models scripted-interpreter overhead).
pub(super) fn burn(duration: Duration) {
    if duration.is_zero() {
        return;
    }
    let start = Instant::now();
    let mut acc = 0u64;
    while start.elapsed() < duration {
        for i in 0..512u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc);
    }
}
