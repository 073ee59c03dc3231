//! `GET /`: the shared entry page, through one path in two framings.
//!
//! The entry page and its snapshot are user-independent: the snapshot
//! shows the public view of the page and is "stored in a public cache"
//! with the spec's TTL (§3.3). Every request for it, batch or streamed,
//! takes the same three steps:
//!
//! 1. It claims the cache's single flight on `entry:html` (or
//!    `entry:html@<tier>` when the spec resolves a fidelity tier per
//!    request; tiers are distinct artifacts). A hit, a shared result, a
//!    stale fallback, a time-out or a failure settles the request
//!    without building anything.
//! 2. The leader fetches the origin page before any status is
//!    committed. An origin failure fails the flight, so every waiter
//!    gets the leader's status (or the stale entry) instead of fetching
//!    the origin again.
//! 3. The leader runs one [`EntryJob`]: the pipeline with a unit sink
//!    that writes the entry page into the response body the moment it
//!    is built and stores images as the emit workers finish them. The
//!    job then completes the flight with the entry, waking every
//!    waiter.
//!
//! Only the framing differs. A batch request runs the job into a buffer
//! and answers with `content-length`. A request that sends
//! `x-msite-stream: chunked` gets a [`Response`] whose chunk producer
//! is the same job: it runs on the transport's writer thread after
//! `handle` returns, so the entry page goes out as the first chunk and
//! time-to-first-byte is the entry-build time, not the whole-bundle
//! time. The concatenated chunks are exactly the batch body; in-process
//! consumers drain them with [`Response::into_collected`].

use super::observability::publish_stage_timings_to;
use super::ProxyServer;
use crate::ajax::AjaxRegistry;
use crate::attributes::AdaptationSpec;
use crate::cache::{Claim, Flight, FlightLeader, Lookup, RenderCache};
use crate::content::fidelity::BANDWIDTH_HEADER;
use crate::error::ProxyError;
use crate::pipeline::{adapt_streaming, EmitUnit, PipelineContext, PipelineReport};
use crate::session::{Session, SessionFs};
use msite_net::resilience::Deadline;
use msite_net::{BandwidthClass, ChunkSink, Request, Response};
use msite_support::bytes::Bytes;
use msite_support::sync::Mutex;
use msite_support::telemetry::{Counter, Histogram, MetricsRegistry, Trace};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Request header that opts a `GET /` into progressive delivery; the
/// only recognized value is `chunked`.
pub const STREAM_HEADER: &str = "x-msite-stream";

const HTML: &str = "text/html; charset=utf-8";

/// True when the request opted into progressive delivery.
fn wants_stream(request: &Request) -> bool {
    request
        .headers
        .get(STREAM_HEADER)
        .is_some_and(|v| v.eq_ignore_ascii_case("chunked"))
}

/// What a request is answered with: entry bytes that already exist, or
/// the job that builds them.
enum EntryBody {
    Ready(Bytes),
    Build(Box<EntryJob>),
}

/// A `cache.flight` span under way: the claimed key and when the claim
/// started, recorded with the request's role once its flight settles.
struct FlightSpan {
    trace: Option<Trace>,
    key: String,
    started: Instant,
}

impl FlightSpan {
    fn finish(self, fields: &[(&str, &str)]) {
        let Some(trace) = &self.trace else {
            return;
        };
        let mut fields: Vec<(String, String)> = fields
            .iter()
            .map(|(name, value)| (name.to_string(), value.to_string()))
            .collect();
        fields.push(("key".to_string(), self.key));
        trace.log().record_raw(
            trace.id(),
            "cache.flight",
            self.started,
            self.started.elapsed(),
            fields,
        );
    }
}

/// One entry build, owning everything it touches: a streamed response
/// runs it on the transport's writer thread after `handle` has
/// returned, so it cannot borrow the proxy.
struct EntryJob {
    spec: AdaptationSpec,
    ctx: PipelineContext,
    page_text: String,
    ttl: Option<Duration>,
    leader: FlightLeader,
    /// The leader's `cache.flight` span, recorded when the job settles
    /// the flight.
    span: FlightSpan,
    cache: Arc<RenderCache>,
    fs: Arc<SessionFs>,
    shared_ajax: Arc<Mutex<Option<AjaxRegistry>>>,
    wants_cookie_clear: Arc<Mutex<bool>>,
    last_entry_report: Arc<Mutex<Option<PipelineReport>>>,
    registry: Arc<MetricsRegistry>,
    full_renders: Arc<Counter>,
    lightweight: Arc<Counter>,
}

impl EntryJob {
    /// Runs the pipeline once. The entry page goes to `out` the moment
    /// it is built; images are stored as the emit workers finish them
    /// (shared ones into the cache, the rest into the public directory;
    /// subpages are per-session artifacts, so a shared build stores
    /// none). Each unit records a `stream.chunk` span. Then the flight
    /// completes with the entry and the run's report, with its
    /// coalesced waiters, becomes the proxy's last entry report. A
    /// pipeline error fails the flight instead.
    fn run(self, out: &mut dyn ChunkSink) -> Result<(), ProxyError> {
        let start = Instant::now();
        let trace = &self.ctx.trace;
        let mut on_unit = |unit: EmitUnit<'_>| {
            let started = Instant::now();
            let (kind, size) = match unit {
                EmitUnit::Entry(html) => {
                    out.chunk(html.as_bytes());
                    ("entry", html.len())
                }
                EmitUnit::Image(image) => {
                    let bytes = Bytes::from(image.bytes.clone());
                    match image.cache_ttl {
                        Some(ttl) => self.cache.put(
                            &format!("img:{}", image.name),
                            bytes,
                            Some(ttl),
                            start.elapsed(),
                        ),
                        None => self.fs.write(
                            &SessionFs::public_path(&format!("img/{}", image.name)),
                            bytes,
                        ),
                    }
                    ("image", image.bytes.len())
                }
                EmitUnit::Subpage(file) => ("subpage", file.html.len()),
            };
            if let Some(trace) = trace {
                trace.log().record_raw(
                    trace.id(),
                    "stream.chunk",
                    started,
                    started.elapsed(),
                    vec![
                        ("kind".to_string(), kind.to_string()),
                        ("bytes".to_string(), size.to_string()),
                    ],
                );
            }
        };
        match adapt_streaming(&self.spec, &self.page_text, &self.ctx, &mut on_unit) {
            Ok((bundle, mut report)) => {
                if bundle.stats.browser_used {
                    self.full_renders.inc();
                } else {
                    self.lightweight.inc();
                }
                publish_stage_timings_to(&self.registry, &report);
                *self.shared_ajax.lock() = Some(bundle.ajax);
                *self.wants_cookie_clear.lock() = bundle.wants_cookie_clear;
                let shared_with =
                    self.leader
                        .complete(Bytes::from(bundle.entry_html), self.ttl, start.elapsed());
                self.span
                    .finish(&[("role", "led"), ("shared_with", &shared_with.to_string())]);
                report.coalesced_waiters = shared_with;
                *self.last_entry_report.lock() = Some(report);
                Ok(())
            }
            Err(err) => {
                let err = ProxyError::from(err);
                self.leader.fail(err.clone());
                self.span.finish(&[("role", "failed")]);
                Err(err)
            }
        }
    }
}

/// The transport's sink, observing time-to-first-byte at the first
/// chunk.
struct FirstChunk<'a> {
    sink: &'a mut dyn ChunkSink,
    ttfb: Arc<Histogram>,
    arrived: Instant,
    pending: bool,
}

impl ChunkSink for FirstChunk<'_> {
    fn chunk(&mut self, bytes: &[u8]) {
        self.sink.chunk(bytes);
        if std::mem::take(&mut self.pending) {
            self.ttfb.observe(self.arrived.elapsed().as_micros() as u64);
        }
    }
}

impl ProxyServer {
    /// `GET /`: the shared entry page, in the framing the request asked
    /// for (see the module docs). Hits and shared results count as
    /// lightweight requests; the leader's build counts as a full render
    /// when it needed the browser.
    pub(super) fn serve_entry(
        &self,
        request: &Request,
        session: &Arc<Mutex<Session>>,
        deadline: Deadline,
    ) -> Result<Response, ProxyError> {
        let tier = self.fidelity_tier(request);
        let arrived = Instant::now();
        let span = FlightSpan {
            trace: Trace::current(),
            key: match tier {
                Some(class) => format!("entry:html@{class}"),
                None => "entry:html".to_string(),
            },
            started: arrived,
        };
        let claim = RenderCache::claim(
            Arc::clone(&self.cache),
            &span.key,
            Some(deadline.remaining()),
        );
        let (body, stale_age) = match claim {
            Claim::Lead(leader) => match self.fetch_page(session, deadline) {
                Ok(page) => {
                    let job = Box::new(EntryJob {
                        spec: self.spec.clone(),
                        ctx: self.pipeline_context(tier),
                        page_text: page.body_text(),
                        ttl: self.snapshot_ttl(),
                        leader,
                        span,
                        cache: Arc::clone(&self.cache),
                        fs: Arc::clone(&self.fs),
                        shared_ajax: Arc::clone(&self.shared_ajax),
                        wants_cookie_clear: Arc::clone(&self.wants_cookie_clear),
                        last_entry_report: Arc::clone(&self.last_entry_report),
                        registry: Arc::clone(&self.telemetry.metrics),
                        full_renders: Arc::clone(&self.metrics.full_renders),
                        lightweight: Arc::clone(&self.metrics.lightweight),
                    });
                    (EntryBody::Build(job), None)
                }
                Err(err) => {
                    leader.fail(err.clone());
                    self.stale_fallback(err, span)?
                }
            },
            Claim::Settled(Flight::Hit(entry)) => {
                self.metrics.lightweight.inc();
                span.finish(&[("role", "hit")]);
                (EntryBody::Ready(entry), None)
            }
            Claim::Settled(Flight::Shared(entry)) => {
                self.metrics.lightweight.inc();
                span.finish(&[("role", "shared")]);
                (EntryBody::Ready(entry), None)
            }
            Claim::Settled(Flight::Stale { value, age }) => {
                span.finish(&[("role", "stale")]);
                (EntryBody::Ready(value), Some(age))
            }
            Claim::Settled(Flight::TimedOut) => {
                span.finish(&[("role", "timed-out")]);
                return Err(ProxyError::DeadlineExceeded);
            }
            Claim::Settled(Flight::Failed(err)) => self.stale_fallback(err, span)?,
            Claim::Settled(Flight::Led { .. }) => unreachable!("a settled claim never led"),
        };
        let response = self.frame_entry(body, wants_stream(request), arrived)?;
        Ok(match stale_age {
            None => response,
            Some(age) => self.mark_stale(response, age),
        })
    }

    /// A failed flight: when the origin is unavailable (final 5xx,
    /// breaker open, deadline exhausted) the previous entry is served
    /// as long as it is within the cache's stale window — the
    /// serve-stale degradation. Any other failure is the answer.
    fn stale_fallback(
        &self,
        err: ProxyError,
        span: FlightSpan,
    ) -> Result<(EntryBody, Option<Duration>), ProxyError> {
        if err.is_unavailability() {
            if let Lookup::Stale { value, age } = self.cache.lookup(&span.key) {
                span.finish(&[("role", "failed"), ("fallback", "stale")]);
                return Ok((EntryBody::Ready(value), Some(age)));
            }
        }
        span.finish(&[("role", "failed")]);
        Err(err)
    }

    /// Frames an entry body. Batch runs the job (if any) into a buffer
    /// and answers with `content-length`; time-to-first-byte is the
    /// finished body. Streamed hands the body to the transport as the
    /// chunk producer; time-to-first-byte is the first chunk.
    fn frame_entry(
        &self,
        body: EntryBody,
        streamed: bool,
        arrived: Instant,
    ) -> Result<Response, ProxyError> {
        if !streamed {
            let entry = match body {
                EntryBody::Ready(entry) => entry,
                EntryBody::Build(job) => {
                    let mut buffer = Vec::new();
                    job.run(&mut buffer)?;
                    Bytes::from(buffer)
                }
            };
            self.metrics
                .ttfb_micros
                .observe(arrived.elapsed().as_micros() as u64);
            return Ok(Response::bytes(HTML, entry));
        }
        self.metrics.streamed_responses.inc();
        let ttfb = Arc::clone(&self.metrics.ttfb_micros);
        Ok(Response::streaming(
            HTML,
            move |sink: &mut dyn ChunkSink| {
                let mut sink = FirstChunk {
                    sink,
                    ttfb,
                    arrived,
                    pending: true,
                };
                match body {
                    EntryBody::Ready(entry) => sink.chunk(&entry),
                    EntryBody::Build(job) => {
                        if let Err(err) = job.run(&mut sink) {
                            // Headers are already on the wire; the best we
                            // can do is a diagnosable body.
                            sink.chunk(
                                format!("<!-- msite adaptation failed: {err} -->").as_bytes(),
                            );
                        }
                    }
                }
            },
        ))
    }

    /// The fidelity tier this request's entry is built for, when the
    /// spec carries a fidelity-tier attribute: a pinned tier wins, else
    /// the client's bandwidth header, else the User-Agent's device
    /// class (see `content::fidelity`). Counted per tier.
    fn fidelity_tier(&self, request: &Request) -> Option<BandwidthClass> {
        let explicit = self.spec.fidelity_request()?;
        let class = crate::content::resolve_tier(
            explicit,
            request.headers.get(BANDWIDTH_HEADER),
            request.headers.get("user-agent").unwrap_or(""),
        );
        self.telemetry
            .metrics
            .counter("msite_fidelity_tier", &[("tier", class.name())])
            .inc();
        Some(class)
    }
}
