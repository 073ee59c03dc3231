//! Artifact builders and content handlers: origin fetches, the shared
//! entry flight, per-user subpage bundles, image/subpage/AJAX serving,
//! alternate-engine rendering, and the serve-stale degradation path.

use super::{ProxyServer, UserBundle};
use crate::attributes::AdaptationSpec;
use crate::cache::{Flight, Lookup};
use crate::error::{ProxyError, DEGRADED_HEADER};
use crate::pipeline::{adapt, adapt_with_report, AdaptedBundle};
use crate::session::{Session, SessionFs};
use msite_net::resilience::Deadline;
use msite_net::{Method, Request, Response, Url};
use msite_support::bytes::Bytes;
use msite_support::sync::Mutex;
use msite_support::telemetry::Trace;
use std::sync::Arc;
use std::time::{Duration, Instant};

impl ProxyServer {
    /// Fetches `url` from the origin with the session's cookie jar and
    /// stored HTTP-auth credentials applied, recording Set-Cookie
    /// responses back into the jar. The fetch goes through the
    /// resilience layer (retries, breaker) within `deadline`.
    pub(super) fn origin_fetch(
        &self,
        session: &Arc<Mutex<Session>>,
        request: &mut Request,
        deadline: Deadline,
    ) -> Response {
        self.metrics.origin_fetches.inc();
        {
            let s = session.lock();
            s.jar.apply(request, 0);
            if let Some((user, pass)) = &s.http_auth {
                request.headers.set(
                    "authorization",
                    &msite_net::auth::basic_auth_header(user, pass),
                );
            }
        }
        let response = self.origin.handle_within(request, deadline);
        session
            .lock()
            .jar
            .store_from_response(&response, &request.url, 0);
        response
    }

    /// Builds (or reuses) the shared entry page + snapshot, which are
    /// user-independent: the snapshot shows the public view of the page
    /// and is "stored in a public cache" with the spec's TTL.
    ///
    /// Concurrent misses coalesce into one pipeline run through the
    /// cache's single-flight layer: the first request leads the rebuild,
    /// the rest share its output (counted in
    /// [`ProxyStats::renders_coalesced`](super::ProxyStats::renders_coalesced)).
    /// A waiter whose deadline expires mid-flight degrades to a stale
    /// copy when one exists.
    ///
    /// When the origin is unavailable (final 5xx, breaker open, deadline
    /// exhausted) and a rebuild is impossible, the previous entry page is
    /// served as long as it is within the cache's stale window — the
    /// serve-stale degradation. The stale copy stays in place until the
    /// next successful rebuild replaces it.
    pub(super) fn shared_entry(
        &self,
        session: &Arc<Mutex<Session>>,
        deadline: Deadline,
        tier: Option<msite_net::BandwidthClass>,
    ) -> Result<(Bytes, Option<Duration>), ProxyError> {
        let ttl = self
            .spec
            .snapshot
            .as_ref()
            .map(|s| Duration::from_secs(s.cache_ttl_secs));
        // Tier-resolved entries are distinct artifacts (their image
        // fidelity differs), so each tier gets its own cache key and
        // single-flight lane; tier-less specs keep the bare key.
        let key = match tier {
            Some(class) => format!("entry:html@{class}"),
            None => "entry:html".to_string(),
        };
        let flight_started = Instant::now();
        let flight =
            self.cache
                .render_flight::<ProxyError>(&key, ttl, Some(deadline.remaining()), || {
                    self.build_entry(session, deadline, tier)
                });
        let mut role_fields = Vec::new();
        let outcome = match flight {
            Flight::Hit(entry) => {
                self.metrics.lightweight.inc();
                role_fields.push(("role".to_string(), "hit".to_string()));
                Ok((entry, None))
            }
            Flight::Led { value, shared_with } => {
                if shared_with > 0 {
                    if let Some(report) = self.last_entry_report.lock().as_mut() {
                        report.coalesced_waiters += shared_with;
                    }
                }
                role_fields.push(("role".to_string(), "led".to_string()));
                role_fields.push(("shared_with".to_string(), shared_with.to_string()));
                Ok((value, None))
            }
            Flight::Shared(entry) => {
                self.metrics.lightweight.inc();
                self.metrics.renders_coalesced.inc();
                role_fields.push(("role".to_string(), "shared".to_string()));
                Ok((entry, None))
            }
            Flight::Stale { value, age } => {
                role_fields.push(("role".to_string(), "stale".to_string()));
                Ok((value, Some(age)))
            }
            Flight::TimedOut => {
                role_fields.push(("role".to_string(), "timed-out".to_string()));
                Err(ProxyError::DeadlineExceeded)
            }
            Flight::Failed(err) => {
                role_fields.push(("role".to_string(), "failed".to_string()));
                if err.is_unavailability() {
                    if let Lookup::Stale { value, age } = self.cache.lookup(&key) {
                        role_fields.push(("fallback".to_string(), "stale".to_string()));
                        Ok((value, Some(age)))
                    } else {
                        Err(err)
                    }
                } else {
                    Err(err)
                }
            }
        };
        if let Some(trace) = Trace::current() {
            role_fields.push(("key".to_string(), key));
            trace.log().record_raw(
                trace.id(),
                "cache.flight",
                flight_started,
                flight_started.elapsed(),
                role_fields,
            );
        }
        outcome
    }

    /// Leader body of the entry-page flight: fetch the origin page, run
    /// the full adaptation pipeline, store the generated artifacts, and
    /// return the entry HTML plus its production cost.
    pub(super) fn build_entry(
        &self,
        session: &Arc<Mutex<Session>>,
        deadline: Deadline,
        tier: Option<msite_net::BandwidthClass>,
    ) -> Result<(Bytes, Duration), ProxyError> {
        let start = Instant::now();
        let mut page_request =
            Request::get(&self.spec.page_url).map_err(|e| ProxyError::BadOriginUrl {
                detail: e.to_string(),
            })?;
        let page = self.origin_fetch(session, &mut page_request, deadline);
        if !page.status.is_success() {
            return Err(ProxyError::from_origin_failure(&page));
        }
        let (bundle, report) = adapt_with_report(
            &self.spec,
            &page.body_text(),
            &self.pipeline_context_tiered(tier),
        )?;
        if bundle.stats.browser_used {
            self.metrics.full_renders.inc();
        } else {
            self.metrics.lightweight.inc();
        }
        self.publish_stage_timings(&report);
        self.store_bundle(&bundle, None, start.elapsed());
        *self.shared_ajax.lock() = Some(bundle.ajax.clone());
        *self.wants_cookie_clear.lock() = bundle.wants_cookie_clear;
        *self.last_entry_report.lock() = Some(report);
        Ok((Bytes::from(bundle.entry_html), start.elapsed()))
    }

    /// Builds the per-user subpages with the user's authenticated view.
    pub(super) fn user_bundle(
        &self,
        session: &Arc<Mutex<Session>>,
        deadline: Deadline,
    ) -> Result<Arc<UserBundle>, ProxyError> {
        let session_id = session.lock().id.clone();
        if let Some(existing) = self.user_bundles.lock().get(&session_id) {
            return Ok(Arc::clone(existing));
        }
        let mut page_request =
            Request::get(&self.spec.page_url).map_err(|e| ProxyError::BadOriginUrl {
                detail: e.to_string(),
            })?;
        let page = self.origin_fetch(session, &mut page_request, deadline);
        if !page.status.is_success() {
            return Err(ProxyError::from_origin_failure(&page));
        }
        // Subpage generation does not re-render the snapshot.
        let mut spec = self.spec.clone();
        spec.snapshot = None;
        let start = Instant::now();
        let bundle = adapt(&spec, &page.body_text(), &self.pipeline_context())?;
        if bundle.stats.browser_used {
            self.metrics.full_renders.inc();
        } else {
            self.metrics.lightweight.inc();
        }
        self.store_bundle(&bundle, Some(&session_id), start.elapsed());
        let auth_subpages = auth_subpage_ids(&self.spec);
        let user = Arc::new(UserBundle {
            ajax: bundle.ajax.clone(),
            auth_subpages,
        });
        self.user_bundles
            .lock()
            .insert(session_id, Arc::clone(&user));
        Ok(user)
    }

    /// Writes a bundle's artifacts: shared images into the public cache,
    /// per-user files into the session directory. The entry page itself
    /// is *not* stored here — the single-flight layer inserts it when
    /// the leading request's flight completes.
    pub(super) fn store_bundle(
        &self,
        bundle: &AdaptedBundle,
        session_id: Option<&str>,
        cost: Duration,
    ) {
        for image in &bundle.images {
            self.store_image(
                &image.name,
                Bytes::from(image.bytes.clone()),
                image.cache_ttl,
                session_id,
                cost,
            );
        }
        if let Some(sid) = session_id {
            for subpage in &bundle.subpages {
                self.store_subpage(sid, &subpage.name, &subpage.html);
            }
        }
    }

    /// Stores one generated image: shared (TTL'd) images into the
    /// public cache, the rest into the session or public directory.
    pub(super) fn store_image(
        &self,
        name: &str,
        bytes: Bytes,
        cache_ttl: Option<Duration>,
        session_id: Option<&str>,
        cost: Duration,
    ) {
        match (cache_ttl, session_id) {
            (Some(ttl), _) => {
                self.cache
                    .put(&format!("img:{name}"), bytes, Some(ttl), cost);
            }
            (None, Some(sid)) => {
                self.fs
                    .write(&SessionFs::user_path(sid, &format!("img/{name}")), bytes);
            }
            (None, None) => {
                self.fs
                    .write(&SessionFs::public_path(&format!("img/{name}")), bytes);
            }
        }
    }

    /// Stores one generated subpage into a session directory with its
    /// form actions rewritten through the origin passthrough.
    pub(super) fn store_subpage(&self, session_id: &str, name: &str, html: &str) {
        self.fs.write(
            &SessionFs::user_path(session_id, &format!("s/{name}")),
            rewrite_form_actions(html, &self.base()),
        );
    }

    pub(super) fn serve_image(
        &self,
        session_id: &str,
        name: &str,
        deadline: Deadline,
    ) -> Result<Response, ProxyError> {
        // Expired shared snapshots are still served (marked stale) when
        // within the stale window; a fresh copy appears with the next
        // successful entry rebuild.
        let key = format!("img:{name}");
        match self.cache.lookup(&key) {
            Lookup::Fresh(shared) => return Ok(Response::bytes("image/png", shared)),
            Lookup::Stale { value, age } => {
                return Ok(self.mark_stale(Response::bytes("image/png", value), age));
            }
            Lookup::Miss => {}
        }
        // A shared image can be seconds away: snapshot images land when
        // the entry pipeline's flight completes, so join an in-flight
        // rebuild (within the request deadline) instead of answering
        // 404 mid-render. No-op when nothing is in flight.
        if self
            .cache
            .join_flight("entry:html", Some(deadline.remaining()))
            .is_some()
        {
            match self.cache.lookup(&key) {
                Lookup::Fresh(shared) => return Ok(Response::bytes("image/png", shared)),
                Lookup::Stale { value, age } => {
                    return Ok(self.mark_stale(Response::bytes("image/png", value), age));
                }
                Lookup::Miss => {}
            }
        }
        if let Some(user) = self
            .fs
            .read(&SessionFs::user_path(session_id, &format!("img/{name}")))
        {
            return Ok(Response::bytes("image/png", user));
        }
        if let Some(public) = self
            .fs
            .read(&SessionFs::public_path(&format!("img/{name}")))
        {
            return Ok(Response::bytes("image/png", public));
        }
        Err(ProxyError::NotFound { what: "image" })
    }

    /// Stamps a degraded (stale) response: an RFC 7234 `Warning` plus
    /// the machine-readable degradation marker, and counts it.
    pub(super) fn mark_stale(&self, mut response: Response, age: Duration) -> Response {
        response
            .headers
            .set("warning", "110 msite \"Response is stale\"");
        response
            .headers
            .set(DEGRADED_HEADER, &format!("stale; age={}s", age.as_secs()));
        self.metrics.stale_served.inc();
        if let Some(trace) = Trace::current() {
            trace.record(
                "degraded.stale",
                Duration::ZERO,
                vec![("age_secs".to_string(), age.as_secs().to_string())],
            );
        }
        response
    }

    /// Leader body of a `/render/<engine>` flight: fetch the page, run
    /// the engine (degrading down the fallback chain), and return the
    /// encoded [`CachedRender`] envelope plus its production cost.
    pub(super) fn render_engine_page(
        &self,
        session: &Arc<Mutex<Session>>,
        engine_name: &str,
        deadline: Deadline,
    ) -> Result<(Bytes, Duration), ProxyError> {
        let start = Instant::now();
        let mut page_request =
            Request::get(&self.spec.page_url).map_err(|e| ProxyError::BadOriginUrl {
                detail: e.to_string(),
            })?;
        let page = self.origin_fetch(session, &mut page_request, deadline);
        if !page.status.is_success() {
            return Err(ProxyError::from_origin_failure(&page));
        }
        match self
            .engines
            .render_with_fallback(engine_name, &page.body_text())
        {
            Ok(render) => {
                if render.engine == "image" {
                    self.metrics.full_renders.inc();
                } else {
                    self.metrics.lightweight.inc();
                }
                if !render.degraded.is_empty() {
                    self.metrics.engine_fallbacks.inc();
                }
                if let Some(encode) = render.artifact.png_encode {
                    self.metrics.png_encodes.inc();
                    self.metrics
                        .png_encode_micros
                        .add(encode.as_micros() as u64);
                }
                Ok((Bytes::from(render.to_cached().encode()), start.elapsed()))
            }
            Err(Some(failures)) => Err(ProxyError::RenderFailed {
                detail: failures
                    .iter()
                    .map(|f| f.to_string())
                    .collect::<Vec<_>>()
                    .join("; "),
            }),
            Err(None) => Err(ProxyError::UnknownEngine {
                name: engine_name.to_string(),
            }),
        }
    }

    pub(super) fn serve_subpage(
        &self,
        session: &Arc<Mutex<Session>>,
        name: &str,
        deadline: Deadline,
    ) -> Result<Response, ProxyError> {
        let bundle = self.user_bundle(session, deadline)?;
        let stem = name.trim_end_matches(".html");
        if bundle.auth_subpages.iter().any(|s| s == stem) && session.lock().http_auth.is_none() {
            return Ok(Response::redirect(&format!(
                "{}/auth?next={}",
                self.base(),
                msite_net::url::percent_encode(name)
            )));
        }
        let session_id = session.lock().id.clone();
        match self
            .fs
            .read(&SessionFs::user_path(&session_id, &format!("s/{name}")))
        {
            Some(contents) => Ok(Response::bytes("text/html; charset=utf-8", contents)),
            None => Err(ProxyError::NotFound { what: "subpage" }),
        }
    }

    pub(super) fn satisfy_ajax(
        &self,
        session: &Arc<Mutex<Session>>,
        request: &Request,
        deadline: Deadline,
    ) -> Result<Response, ProxyError> {
        let Some(action_id) = request.param("action").and_then(|a| a.parse::<u32>().ok()) else {
            return Err(ProxyError::MissingParameter { name: "action" });
        };
        let p = request.param("p").unwrap_or_default();
        let registry = {
            let session_id = session.lock().id.clone();
            self.user_bundles
                .lock()
                .get(&session_id)
                .map(|b| b.ajax.clone())
                .or_else(|| self.shared_ajax.lock().clone())
                .unwrap_or_default()
        };
        let Some(action) = registry.get(action_id).cloned() else {
            return Err(ProxyError::UnknownAction {
                id: action_id.to_string(),
            });
        };
        // Resolve the action's origin URL against the adapted page.
        let base_url = Url::parse(&self.spec.page_url).map_err(|e| ProxyError::BadOriginUrl {
            detail: e.to_string(),
        })?;
        let target =
            base_url
                .join(&action.origin_url(&p))
                .map_err(|e| ProxyError::BadOriginUrl {
                    detail: e.to_string(),
                })?;
        let mut sub_request = Request {
            method: Method::Get,
            url: target,
            headers: msite_net::Headers::new(),
            body: Bytes::new(),
        };
        let response = self.origin_fetch(session, &mut sub_request, deadline);
        if !response.status.is_success() {
            return Err(ProxyError::from_origin_failure(&response));
        }
        // Fragment responses pass through; full pages are cut to <body>.
        let text = response.body_text();
        let fragment = extract_fragment(&text);
        Ok(Response::html(fragment))
    }

    pub(super) fn auth_form(&self, message: &str, next: &str) -> Response {
        Response::html(format!(
            "<!DOCTYPE html><html><head><title>Authentication required</title></head><body>\
             <h3>Authentication required</h3><p>{message}</p>\
             <form method=\"post\" action=\"{}/auth?next={}\">\
             <input type=\"text\" name=\"user\" placeholder=\"user\"> \
             <input type=\"password\" name=\"pass\" placeholder=\"password\"> \
             <input type=\"submit\" value=\"Continue\"></form></body></html>",
            self.base(),
            msite_net::url::percent_encode(next)
        ))
    }
}

/// Rewrites root-relative form actions to the proxy's origin-passthrough
/// namespace so subpage forms keep working.
pub(super) fn rewrite_form_actions(html: &str, base: &str) -> String {
    html.replace("action=\"/", &format!("action=\"{base}/o/"))
}

/// Subpage ids protected by the HTTP-auth attribute.
pub(super) fn auth_subpage_ids(spec: &AdaptationSpec) -> Vec<String> {
    use crate::attributes::Attribute;
    let mut out = Vec::new();
    for rule in &spec.rules {
        let has_auth = rule
            .attributes
            .iter()
            .any(|a| matches!(a, Attribute::HttpAuth));
        if has_auth {
            for attr in &rule.attributes {
                if let Attribute::Subpage { id, .. } = attr {
                    out.push(id.clone());
                }
            }
        }
    }
    out
}

/// Cuts a full HTML page down to its body fragment for AJAX responses;
/// fragments pass through unchanged.
pub(super) fn extract_fragment(text: &str) -> String {
    let lower = text.to_ascii_lowercase();
    let Some(open) = lower.find("<body") else {
        return text.to_string();
    };
    let Some(start) = text[open..].find('>').map(|i| open + i + 1) else {
        return text.to_string();
    };
    let end = lower.rfind("</body>").unwrap_or(text.len());
    text[start..end].to_string()
}
