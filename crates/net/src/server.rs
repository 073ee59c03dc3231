//! A real threaded HTTP/1.1 server and a matching tiny client, so any
//! [`Origin`](crate::origin::Origin) (including the m.Site proxy itself) can be exercised over
//! actual TCP from the examples.
//!
//! Connections are executed on a fixed-size [`WorkerPool`] with a
//! bounded submission queue instead of a thread per connection. When
//! the queue is full the accept loop *sheds* the connection: it writes
//! `503 Service Unavailable` with `x-msite-error: overloaded` and
//! `retry-after: 1` and closes, so overload is an explicit, counted,
//! client-visible signal rather than unbounded thread growth.
//!
//! The accept loop blocks in `accept()` and so wakes the moment a
//! connection arrives. [`HttpServer::shutdown`] and `Drop` wake it by
//! connecting to the listener themselves.

use crate::http::{Headers, Method, Request, Response, Status};
use crate::origin::OriginRef;
use crate::url::Url;
use msite_support::bytes::Bytes;
use msite_support::sync::Mutex;
use msite_support::telemetry::{
    metrics::LATENCY_MICROS_BOUNDS, Counter, Gauge, Histogram, Telemetry, Trace, TraceLog,
    TRACE_HEADER,
};
use msite_support::thread::{PoolConfig, WorkerPool};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Largest request head (request line and header lines) a worker reads
/// before answering `431`.
const MAX_HEAD_BYTES: usize = 64 * 1024;

/// Most header lines a request head may carry before `431`.
const MAX_HEADER_LINES: usize = 128;

/// Time a client has, from a worker taking its connection, to deliver
/// the whole request head before `408`.
const HEAD_DEADLINE: Duration = Duration::from_secs(10);

/// Largest `content-length` accepted; a larger one gets `413`.
const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// Per-read timeout while reading a request body.
const BODY_READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Pause after a failed `accept()` (e.g. out of file descriptors), so a
/// persistent error cannot spin the accept thread.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Response header carrying the machine-readable failure reason on a
/// shed connection (same header the proxy's error taxonomy uses).
pub const OVERLOAD_HEADER: &str = "x-msite-error";

/// The reason token a shed connection carries in [`OVERLOAD_HEADER`].
pub const OVERLOAD_REASON: &str = "overloaded";

/// Sizing knobs for the server's connection executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads executing connections.
    pub workers: usize,
    /// Connections allowed to wait for a worker before the accept loop
    /// starts shedding with `503` + `retry-after`.
    pub queue_depth: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 8,
            queue_depth: 64,
        }
    }
}

/// Connection-level counters for one [`HttpServer`]. Since the
/// telemetry refactor this is a *view*: every field is read back from
/// the server's metrics registry (`msite_server_*` series), so the
/// numbers an embedder folds into its own stats and the numbers a
/// `/metrics` scrape reports are the same counters — worker panics and
/// overload sheds included, with no per-embedder folding required.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted off the listener.
    pub accepted: u64,
    /// Requests answered by the origin handler.
    pub served: u64,
    /// Connections shed with `503` because the executor queue was full.
    pub rejected_overload: u64,
    /// Connection handlers that panicked (isolated by the pool; the
    /// worker survives).
    pub worker_panics: u64,
}

/// A running HTTP server bound to a local port.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use msite_net::{http_get, HttpServer, Request, Response};
///
/// let origin = Arc::new(|_req: &Request| Response::html("<p>live</p>"));
/// let server = HttpServer::bind("127.0.0.1:0", origin).unwrap();
/// let url = format!("http://{}/", server.addr());
/// let resp = http_get(&url).unwrap();
/// assert_eq!(resp.body_text(), "<p>live</p>");
/// server.shutdown();
/// ```
pub struct HttpServer {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    pool: Arc<WorkerPool>,
    telemetry: Telemetry,
    handle: Mutex<Option<JoinHandle<()>>>,
}

/// State the accept loop and the server handle both touch. All counters
/// are pre-interned registry handles: the accept loop and workers only
/// ever touch atomics.
struct ServerShared {
    stop: AtomicBool,
    /// Queue length at which the accept loop starts shedding. Starts at
    /// the pool's queue depth (its hard bound) and can be tightened at
    /// runtime by a health monitor; always clamped to the hard bound.
    shed_threshold: Arc<AtomicUsize>,
    accepted: Arc<Counter>,
    accept_errors: Arc<Counter>,
    served: Arc<Counter>,
    rejected_overload: Arc<Counter>,
    worker_panics: Arc<Counter>,
    /// `msite_limits_hit_total{limit}`, indexed by [`Limit`].
    limits_hit: [Arc<Counter>; 4],
    queue_len: Arc<Gauge>,
    queue_wait: Arc<Histogram>,
    trace_log: Arc<TraceLog>,
}

/// Counts a worker panic on drop unless disarmed: moved into each
/// connection job, it unwinds with the panic (the pool isolates the
/// panic, so the worker itself survives) and increments the registry
/// counter eagerly — no embedder-side folding needed.
struct PanicProbe {
    counter: Arc<Counter>,
    armed: bool,
}

impl PanicProbe {
    fn disarm(mut self) {
        self.armed = false;
    }
}

impl Drop for PanicProbe {
    fn drop(&mut self) {
        if self.armed {
            self.counter.inc();
        }
    }
}

impl HttpServer {
    /// Binds to `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop on a background thread with the default
    /// [`ServerConfig`].
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn bind(addr: &str, origin: OriginRef) -> std::io::Result<HttpServer> {
        HttpServer::bind_with(addr, origin, ServerConfig::default())
    }

    /// Binds with explicit executor sizing and a private
    /// [`Telemetry`]. Embedders that want the server's counters in the
    /// same registry the application scrapes (the proxy does) should
    /// use [`HttpServer::bind_with_telemetry`].
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn bind_with(
        addr: &str,
        origin: OriginRef,
        config: ServerConfig,
    ) -> std::io::Result<HttpServer> {
        HttpServer::bind_with_telemetry(addr, origin, config, Telemetry::new())
    }

    /// Binds with explicit executor sizing, publishing connection
    /// counters (`msite_server_*`), queue gauges, and the queue-wait
    /// histogram into `telemetry.metrics`, and per-connection worker
    /// spans into `telemetry.trace_log` (matched to the request's
    /// trace via the response's `x-msite-trace` header).
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn bind_with_telemetry(
        addr: &str,
        origin: OriginRef,
        config: ServerConfig,
        telemetry: Telemetry,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let registry = &telemetry.metrics;
        registry
            .gauge("msite_server_queue_depth", &[])
            .set(config.queue_depth.max(1) as i64);
        registry
            .gauge("msite_server_workers", &[])
            .set(config.workers.max(1) as i64);
        let shared = Arc::new(ServerShared {
            stop: AtomicBool::new(false),
            shed_threshold: Arc::new(AtomicUsize::new(config.queue_depth.max(1))),
            accepted: registry.counter("msite_server_accepted_total", &[]),
            accept_errors: registry.counter("msite_server_accept_errors_total", &[]),
            served: registry.counter("msite_server_served_total", &[]),
            rejected_overload: registry.counter("msite_server_rejected_overload_total", &[]),
            worker_panics: registry.counter("msite_server_worker_panics_total", &[]),
            limits_hit: Limit::ALL.map(|limit| {
                registry.counter("msite_limits_hit_total", &[("limit", limit.label())])
            }),
            queue_len: registry.gauge("msite_server_queue_len", &[]),
            queue_wait: registry.histogram(
                "msite_server_queue_wait_micros",
                &[],
                LATENCY_MICROS_BOUNDS,
            ),
            trace_log: Arc::clone(&telemetry.trace_log),
        });
        let pool = Arc::new(WorkerPool::new(PoolConfig {
            workers: config.workers.max(1),
            queue_depth: config.queue_depth.max(1),
            name: "msite-http".to_string(),
        }));
        let shared2 = Arc::clone(&shared);
        let pool2 = Arc::clone(&pool);
        let handle = std::thread::spawn(move || {
            accept_loop(listener, origin, shared2, pool2);
        });
        Ok(HttpServer {
            addr: local,
            shared,
            pool,
            telemetry,
            handle: Mutex::new(Some(handle)),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The telemetry handle this server publishes into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The connection executor — shared so a health monitor can resize
    /// its worker width at runtime.
    pub fn pool(&self) -> Arc<WorkerPool> {
        Arc::clone(&self.pool)
    }

    /// The shed-threshold knob: queue length at which the accept loop
    /// sheds with `503`. Shared so a health monitor can tighten it
    /// under duress; the accept loop clamps it to the pool's hard
    /// queue bound.
    pub fn shed_threshold(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.shared.shed_threshold)
    }

    /// Requests handled so far.
    pub fn requests_served(&self) -> u64 {
        self.shared.served.get()
    }

    /// Connection-level counters so far — a view over the registry.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            accepted: self.shared.accepted.get(),
            served: self.shared.served.get(),
            rejected_overload: self.shared.rejected_overload.get(),
            worker_panics: self.shared.worker_panics.get(),
        }
    }

    /// Stops the accept loop, drains in-flight connections, and joins
    /// the server thread and its worker pool.
    pub fn shutdown(&self) {
        if let Some(handle) = self.stop_accepting() {
            let _ = handle.join();
        }
        self.pool.shutdown();
    }

    /// Sets `stop` and, the first time, wakes the accept loop out of
    /// `accept()` by connecting to the listener. Returns the accept
    /// thread, or `None` once it has been taken.
    fn stop_accepting(&self) -> Option<JoinHandle<()>> {
        self.shared.stop.store(true, Ordering::SeqCst);
        let handle = self.handle.lock().take()?;
        // The listener stays open until the loop has seen `stop`, so
        // this reaches our own socket, never a later holder of the port.
        let _ = TcpStream::connect_timeout(&wake_addr(self.addr), Duration::from_secs(1));
        Some(handle)
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        // Wake but do not join, to keep destructors non-blocking
        // (C-DTOR-BLOCK: call `shutdown` for a clean join).
        drop(self.stop_accepting());
    }
}

/// The address that reaches a listener bound to `bound`: loopback in
/// place of an unspecified address (`0.0.0.0` or `::`).
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let mut addr = bound;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

fn accept_loop(
    listener: TcpListener,
    origin: OriginRef,
    shared: Arc<ServerShared>,
    pool: Arc<WorkerPool>,
) {
    loop {
        let accepted = listener.accept();
        // Whatever woke us after `stop` — the wake connection or a
        // client racing it — is dropped unanswered.
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match accepted {
            Ok((stream, _)) => stream,
            Err(_) => {
                shared.accept_errors.inc();
                std::thread::sleep(ACCEPT_ERROR_BACKOFF);
                continue;
            }
        };
        shared.accepted.inc();
        // This loop is the pool's only submitter and workers only ever
        // drain the queue, so the check below cannot race: a connection
        // admitted here is guaranteed a queue slot.
        let threshold = shared
            .shed_threshold
            .load(Ordering::Relaxed)
            .clamp(1, pool.queue_depth());
        if pool.queued() >= threshold {
            shed(&stream, &shared);
            shared.queue_len.set(pool.queued() as i64);
            continue;
        }
        let origin = Arc::clone(&origin);
        let job_shared = Arc::clone(&shared);
        let job_pool = Arc::clone(&pool);
        let submitted = Instant::now();
        if pool
            .try_execute(move || {
                let queue_wait = submitted.elapsed();
                job_shared.queue_wait.observe(queue_wait.as_micros() as u64);
                job_shared.queue_len.set(job_pool.queued() as i64);
                let probe = PanicProbe {
                    counter: Arc::clone(&job_shared.worker_panics),
                    armed: true,
                };
                let _ = handle_connection(stream, &origin, &job_shared, queue_wait);
                probe.disarm();
            })
            .is_err()
        {
            // Only reachable when the pool is already shutting down; the
            // connection is dropped unanswered.
            shared.rejected_overload.inc();
        }
        shared.queue_len.set(pool.queued() as i64);
    }
    // Release the port, then drain: queued connections are still
    // answered.
    drop(listener);
    pool.shutdown();
}

/// Sheds one connection under overload: `503` + reason token +
/// `retry-after`, written from the accept loop without reading the
/// request (the client sees it as soon as it looks for a response).
fn shed(stream: &TcpStream, shared: &ServerShared) {
    shared.rejected_overload.inc();
    let mut response = Response::error(
        Status::SERVICE_UNAVAILABLE,
        "server overloaded, retry later",
    );
    response.headers.set(OVERLOAD_HEADER, OVERLOAD_REASON);
    response.headers.set("retry-after", "1");
    let _ = write_response(stream, &response);
}

fn handle_connection(
    stream: TcpStream,
    origin: &OriginRef,
    shared: &ServerShared,
    queue_wait: Duration,
) -> std::io::Result<()> {
    let deadline = Instant::now() + HEAD_DEADLINE;
    stream.set_nodelay(true)?;
    let peer = stream.peer_addr()?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let request = match read_request(&mut reader, peer, deadline) {
        Ok(r) => r,
        Err(refusal) => {
            let response = match refusal {
                Refusal::Malformed => Response::error(Status::BAD_REQUEST, "malformed request"),
                Refusal::Limit(limit) => {
                    shared.limits_hit[limit as usize].inc();
                    let message = format!("request limit hit: {}", limit.label());
                    Response::error(limit.status(), &message)
                }
            };
            write_response(&stream, &response)?;
            return Ok(());
        }
    };
    let started = Instant::now();
    let response = origin.handle(&request);
    // Count before writing: a client that has seen the full response must
    // also see the incremented counter.
    shared.served.inc();
    let result = write_response(&stream, &response);
    // The worker-pool hop span: if the origin tagged the response with a
    // trace id, attach the server-side timing to that trace.
    if let Some(id) = response.headers.get(TRACE_HEADER).and_then(Trace::parse_id) {
        shared.trace_log.record_raw(
            id,
            "server.worker",
            started,
            started.elapsed(),
            vec![
                ("path".to_string(), request.url.path().to_string()),
                ("status".to_string(), response.status.0.to_string()),
                (
                    "queue_wait_micros".to_string(),
                    queue_wait.as_micros().to_string(),
                ),
            ],
        );
    }
    result
}

/// Why a connection's request never reached the origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Refusal {
    /// Unparseable head, or the connection failed while it was read:
    /// `400`.
    Malformed,
    /// The client broke a request limit.
    Limit(Limit),
}

/// A request limit, answered with its own status and counted in
/// `msite_limits_hit_total{limit}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Limit {
    /// Head over [`MAX_HEAD_BYTES`]: `431`.
    HeadBytes,
    /// More than [`MAX_HEADER_LINES`] header lines: `431`.
    HeaderLines,
    /// Head not complete by its deadline: `408`.
    HeadDeadline,
    /// `content-length` over [`MAX_BODY_BYTES`]: `413`.
    ContentLength,
}

impl Limit {
    const ALL: [Limit; 4] = [
        Limit::HeadBytes,
        Limit::HeaderLines,
        Limit::HeadDeadline,
        Limit::ContentLength,
    ];

    fn label(self) -> &'static str {
        match self {
            Limit::HeadBytes => "head_bytes",
            Limit::HeaderLines => "header_lines",
            Limit::HeadDeadline => "head_deadline",
            Limit::ContentLength => "content_length",
        }
    }

    fn status(self) -> Status {
        match self {
            Limit::HeadBytes | Limit::HeaderLines => Status::REQUEST_HEADER_FIELDS_TOO_LARGE,
            Limit::HeadDeadline => Status::REQUEST_TIMEOUT,
            Limit::ContentLength => Status::PAYLOAD_TOO_LARGE,
        }
    }
}

/// Reads one request: the head within [`MAX_HEAD_BYTES`],
/// [`MAX_HEADER_LINES`] and `deadline`, then a body of at most
/// [`MAX_BODY_BYTES`].
fn read_request(
    reader: &mut BufReader<TcpStream>,
    peer: SocketAddr,
    deadline: Instant,
) -> Result<Request, Refusal> {
    let mut head_bytes = 0;
    let request_line = read_head_line(reader, &mut head_bytes, deadline)?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .and_then(Method::parse)
        .ok_or(Refusal::Malformed)?;
    let target = parts.next().ok_or(Refusal::Malformed)?;
    let mut headers = Headers::new();
    let mut header_lines = 0;
    loop {
        let line = read_head_line(reader, &mut head_bytes, deadline)?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        header_lines += 1;
        if header_lines > MAX_HEADER_LINES {
            return Err(Refusal::Limit(Limit::HeaderLines));
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.append(name.trim(), value.trim());
        }
    }
    let host = headers
        .get("host")
        .map(str::to_string)
        .unwrap_or_else(|| peer.to_string());
    let url = Url::parse(&format!("http://{host}{target}")).map_err(|_| Refusal::Malformed)?;
    let body = match headers
        .get("content-length")
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(len) if len > MAX_BODY_BYTES => return Err(Refusal::Limit(Limit::ContentLength)),
        Some(len) if len > 0 => {
            let mut buf = vec![0u8; len];
            reader
                .get_ref()
                .set_read_timeout(Some(BODY_READ_TIMEOUT))
                .map_err(|_| Refusal::Malformed)?;
            reader
                .read_exact(&mut buf)
                .map_err(|_| Refusal::Malformed)?;
            Bytes::from(buf)
        }
        _ => Bytes::new(),
    };
    Ok(Request {
        method,
        url,
        headers,
        body,
    })
}

/// Reads one head line, through its `\n` or to end of stream, adding
/// its length to `head_bytes`. Every socket read waits at most until
/// `deadline`, so a client trickling bytes cannot renew its time.
fn read_head_line(
    reader: &mut BufReader<TcpStream>,
    head_bytes: &mut usize,
    deadline: Instant,
) -> Result<String, Refusal> {
    let mut line = Vec::new();
    loop {
        if reader.buffer().is_empty() {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(Refusal::Limit(Limit::HeadDeadline));
            }
            reader
                .get_ref()
                .set_read_timeout(Some(remaining))
                .map_err(|_| Refusal::Malformed)?;
        }
        let available = match reader.fill_buf() {
            Ok(available) => available,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Err(Refusal::Limit(Limit::HeadDeadline));
            }
            Err(_) => return Err(Refusal::Malformed),
        };
        let (take, complete) = match available.iter().position(|&b| b == b'\n') {
            Some(end) => (end + 1, true),
            None => (available.len(), available.is_empty()),
        };
        *head_bytes += take;
        if *head_bytes > MAX_HEAD_BYTES {
            return Err(Refusal::Limit(Limit::HeadBytes));
        }
        line.extend_from_slice(&available[..take]);
        reader.consume(take);
        if complete {
            return String::from_utf8(line).map_err(|_| Refusal::Malformed);
        }
    }
}

fn write_response(stream: &TcpStream, response: &Response) -> std::io::Result<()> {
    // A pending streamed body goes out with chunked framing; anything
    // else (including an already-drained stream) is a batch write.
    match response
        .stream
        .as_ref()
        .and_then(crate::http::ChunkStream::take)
    {
        Some(producer) => write_chunked(stream, response, producer),
        None => write_batch(stream, response),
    }
}

fn write_batch(mut stream: &TcpStream, response: &Response) -> std::io::Result<()> {
    let mut head = format!("HTTP/1.1 {}\r\n", response.status);
    for (name, value) in response.headers.iter() {
        // Framing headers are owned by this writer: a body buffered
        // here is delivered with content-length, never chunked.
        if name == "content-length" || name == "transfer-encoding" {
            continue;
        }
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!("content-length: {}\r\n", response.body.len()));
    head.push_str("connection: close\r\n\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(&response.body)?;
    stream.flush()
}

/// Writes a streamed response with chunked transfer-encoding: the
/// producer runs on this (worker) thread and every chunk it emits is
/// framed and flushed to the socket immediately, so the client's
/// time-to-first-byte is the time to the *first* chunk, not the whole
/// body. Chunked bodies never carry `content-length`.
fn write_chunked(
    mut stream: &TcpStream,
    response: &Response,
    producer: crate::http::ChunkProducer,
) -> std::io::Result<()> {
    let mut head = format!("HTTP/1.1 {}\r\n", response.status);
    for (name, value) in response.headers.iter() {
        if name == "content-length" || name == "transfer-encoding" {
            continue;
        }
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("transfer-encoding: chunked\r\nconnection: close\r\n\r\n");
    stream.write_all(head.as_bytes())?;
    stream.flush()?;

    struct TcpChunkSink<'a> {
        stream: &'a TcpStream,
        error: Option<std::io::Error>,
    }
    impl crate::http::ChunkSink for TcpChunkSink<'_> {
        fn chunk(&mut self, bytes: &[u8]) {
            if bytes.is_empty() || self.error.is_some() {
                return;
            }
            let write = || -> std::io::Result<()> {
                let mut s = self.stream;
                s.write_all(&crate::http::encode_chunk(bytes))?;
                s.flush()
            };
            if let Err(e) = write() {
                // Remember the first failure; the producer keeps
                // running (its side effects — cache/file stores — must
                // complete even when the client hangs up).
                self.error = Some(e);
            }
        }
    }
    let mut sink = TcpChunkSink {
        stream,
        error: None,
    };
    producer(&mut sink);
    if let Some(e) = sink.error {
        return Err(e);
    }
    stream.write_all(crate::http::CHUNK_TERMINATOR)?;
    stream.flush()
}

/// Performs a real HTTP GET over TCP (HTTP/1.1, `Connection: close`).
///
/// # Errors
///
/// Returns IO errors and malformed-response errors.
pub fn http_get(url: &str) -> std::io::Result<Response> {
    http_request(
        &Request::get(url)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?,
    )
}

/// Sends any [`Request`] over real TCP.
///
/// # Errors
///
/// Returns IO errors and malformed-response errors.
pub fn http_request(request: &Request) -> std::io::Result<Response> {
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    let addr = format!("{}:{}", request.url.host(), request.url.port());
    let mut stream = TcpStream::connect(&addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut head = format!(
        "{} {} HTTP/1.1\r\nhost: {}\r\n",
        request.method,
        request.url.path_and_query(),
        request.url.host()
    );
    for (name, value) in request.headers.iter() {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    if !request.body.is_empty() {
        head.push_str(&format!("content-length: {}\r\n", request.body.len()));
    }
    head.push_str("connection: close\r\n\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(&request.body)?;

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status_code = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut headers = Headers::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.append(name.trim(), value.trim());
        }
    }
    let chunked = headers
        .get("transfer-encoding")
        .map(|v| v.eq_ignore_ascii_case("chunked"))
        .unwrap_or(false);
    let mut body = Vec::new();
    if chunked {
        body = crate::http::decode_chunked(&mut reader)?;
    } else {
        match headers
            .get("content-length")
            .and_then(|v| v.parse::<usize>().ok())
        {
            Some(len) => {
                body.resize(len, 0);
                reader.read_exact(&mut body)?;
            }
            None => {
                reader.read_to_end(&mut body)?;
            }
        }
    }
    Ok(Response {
        status: Status(status_code),
        headers,
        body: Bytes::from(body),
        stream: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Polls `done` until it holds; fails the test after 5 s.
    fn wait_for(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn echo_origin() -> OriginRef {
        Arc::new(|req: &Request| {
            Response::html(format!(
                "method={} path={} q={} cookie={} body={}",
                req.method,
                req.url.path(),
                req.url.query().unwrap_or(""),
                req.headers.get("cookie").unwrap_or(""),
                String::from_utf8_lossy(&req.body),
            ))
        })
    }

    #[test]
    fn get_round_trip() {
        let server = HttpServer::bind("127.0.0.1:0", echo_origin()).unwrap();
        let resp = http_get(&format!(
            "http://{}/forum/index.php?styleid=5",
            server.addr()
        ))
        .unwrap();
        assert!(resp.status.is_success());
        let text = resp.body_text();
        assert!(text.contains("method=GET"));
        assert!(text.contains("path=/forum/index.php"));
        assert!(text.contains("q=styleid=5"));
        server.shutdown();
    }

    #[test]
    fn post_body_and_headers_forwarded() {
        let server = HttpServer::bind("127.0.0.1:0", echo_origin()).unwrap();
        let req = Request::post_form(
            &format!("http://{}/login.php", server.addr()),
            &[("user", "alice"), ("pass", "secret")],
        )
        .unwrap()
        .with_header("cookie", "msid=42");
        let resp = http_request(&req).unwrap();
        let text = resp.body_text();
        assert!(text.contains("method=POST"));
        assert!(text.contains("body=user=alice&pass=secret"));
        assert!(text.contains("cookie=msid=42"));
        server.shutdown();
    }

    #[test]
    fn concurrent_requests_served() {
        let server = HttpServer::bind("127.0.0.1:0", echo_origin()).unwrap();
        let addr = server.addr();
        let threads: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || http_get(&format!("http://{addr}/p{i}")).unwrap().status)
            })
            .collect();
        for t in threads {
            assert!(t.join().unwrap().is_success());
        }
        assert!(server.requests_served() >= 8);
        server.shutdown();
    }

    #[test]
    fn overload_sheds_with_503_and_retry_after() {
        // One worker, one queue slot, and an origin that blocks until
        // released: the first connection occupies the worker, the second
        // fills the queue, and every further connection must be shed.
        let gate = Arc::new(AtomicBool::new(false));
        let gate2 = Arc::clone(&gate);
        let entered = Arc::new(AtomicUsize::new(0));
        let entered2 = Arc::clone(&entered);
        let origin: OriginRef = Arc::new(move |_req: &Request| {
            entered2.fetch_add(1, Ordering::SeqCst);
            while !gate2.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(2));
            }
            Response::html("<p>slow</p>")
        });
        let server = HttpServer::bind_with(
            "127.0.0.1:0",
            origin,
            ServerConfig {
                workers: 1,
                queue_depth: 1,
            },
        )
        .unwrap();
        let addr = server.addr();
        // Occupy the worker, then the queue slot, with blocked requests.
        // Sequenced so the first is on the worker (inside the origin),
        // not in the queue, before the second arrives.
        let busy0 = std::thread::spawn(move || http_get(&format!("http://{addr}/busy0")).unwrap());
        wait_for("the first request to enter the origin", || {
            entered.load(Ordering::SeqCst) == 1
        });
        let busy1 = std::thread::spawn(move || http_get(&format!("http://{addr}/busy1")).unwrap());
        wait_for("the second request to queue", || {
            server.pool().queued() == 1
        });
        // Worker busy + queue full: the next connection must be shed.
        let resp = http_get(&format!("http://{addr}/extra")).unwrap();
        assert_eq!(resp.status, Status::SERVICE_UNAVAILABLE);
        assert_eq!(resp.headers.get(OVERLOAD_HEADER), Some(OVERLOAD_REASON));
        assert_eq!(resp.headers.get("retry-after"), Some("1"));
        assert!(server.stats().rejected_overload >= 1);
        // Release the gate; the blocked requests complete normally.
        gate.store(true, Ordering::SeqCst);
        assert!(busy0.join().unwrap().status.is_success());
        assert!(busy1.join().unwrap().status.is_success());
        server.shutdown();
        // Every accepted connection was either served or shed.
        let stats = server.stats();
        assert_eq!(stats.served, 2, "blocked requests served: {stats:?}");
        assert_eq!(
            stats.accepted,
            stats.served + stats.rejected_overload,
            "{stats:?}"
        );
    }

    #[test]
    fn worker_panic_is_isolated_and_counted() {
        let origin: OriginRef = Arc::new(|req: &Request| {
            if req.url.path() == "/boom" {
                panic!("handler exploded");
            }
            Response::html("<p>ok</p>")
        });
        let server = HttpServer::bind("127.0.0.1:0", origin).unwrap();
        let addr = server.addr();
        // The panicking connection yields no response bytes (client sees
        // a closed/empty reply), but the server survives it.
        let _ = http_get(&format!("http://{addr}/boom"));
        let resp = http_get(&format!("http://{addr}/fine")).unwrap();
        assert!(resp.status.is_success());
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.stats().worker_panics < 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(server.stats().worker_panics, 1);
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_connections() {
        let origin: OriginRef = Arc::new(|_req: &Request| {
            std::thread::sleep(Duration::from_millis(30));
            Response::html("<p>drained</p>")
        });
        let server = HttpServer::bind_with(
            "127.0.0.1:0",
            origin,
            ServerConfig {
                workers: 2,
                queue_depth: 16,
            },
        )
        .unwrap();
        let addr = server.addr();
        let clients: Vec<_> = (0..6)
            .map(|i| std::thread::spawn(move || http_get(&format!("http://{addr}/d{i}")).unwrap()))
            .collect();
        // Wait until every connection is inside the server, then shut
        // down: each accepted connection must still get its answer.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.stats().accepted < 6 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        server.shutdown();
        for t in clients {
            assert!(t.join().unwrap().status.is_success());
        }
        assert_eq!(server.stats().served, 6);
        server.shutdown(); // idempotent
    }

    #[test]
    fn error_statuses_pass_through() {
        let origin: OriginRef =
            Arc::new(|_req: &Request| Response::error(Status::NOT_FOUND, "nope"));
        let server = HttpServer::bind("127.0.0.1:0", origin).unwrap();
        let resp = http_get(&format!("http://{}/missing", server.addr())).unwrap();
        assert_eq!(resp.status, Status::NOT_FOUND);
        server.shutdown();
    }

    #[test]
    fn shutdown_wakes_an_idle_accept_loop() {
        // Nothing ever connects, so only the wake returns `accept()`; the
        // wildcard bind wakes through loopback.
        for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
            let server = HttpServer::bind(bind, echo_origin()).unwrap();
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let stopper = std::thread::spawn(move || {
                server.shutdown();
                done_tx.send(()).unwrap();
            });
            done_rx
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("shutdown of a server bound to {bind} hung"));
            stopper.join().unwrap();
        }
    }

    #[test]
    fn drop_without_shutdown_releases_the_listener() {
        let server = HttpServer::bind("127.0.0.1:0", echo_origin()).unwrap();
        let addr = server.addr();
        drop(server);
        // Probe by binding, not connecting: a connect would itself wake
        // the loop and hide a missing wake in `Drop`.
        let deadline = Instant::now() + Duration::from_secs(1);
        while TcpListener::bind(addr).is_err() {
            assert!(
                Instant::now() < deadline,
                "{addr} still held 1 s after drop"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let refused = TcpStream::connect(addr).map_err(|e| e.kind());
        assert_eq!(refused.err(), Some(ErrorKind::ConnectionRefused));
    }

    /// Runs `client` on a thread against one end of a loopback
    /// connection and reads the other end with `read_request` under a
    /// `budget` deadline.
    fn read_from(
        client: impl FnOnce(TcpStream) + Send + 'static,
        budget: Duration,
    ) -> Result<Request, Refusal> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, peer) = listener.accept().unwrap();
        let client = std::thread::spawn(move || client(stream));
        let mut reader = BufReader::new(server_side);
        let result = read_request(&mut reader, peer, Instant::now() + budget);
        // Closing our end makes a client still writing fail and return.
        drop(reader);
        client.join().unwrap();
        result
    }

    /// Sends `head` in one write; the server may refuse before reading
    /// all of it.
    fn read_sent(head: Vec<u8>) -> Result<Request, Refusal> {
        read_from(
            move |mut client| {
                let _ = client.write_all(&head);
            },
            Duration::from_secs(5),
        )
    }

    fn head_with_lines(lines: usize) -> Vec<u8> {
        let mut head = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..lines {
            head.extend_from_slice(format!("x-h{i}: v\r\n").as_bytes());
        }
        head.extend_from_slice(b"\r\n");
        head
    }

    #[test]
    fn trickled_head_gets_408_at_its_deadline() {
        // One byte per 20 ms renews any per-read timeout; only the
        // deadline on the whole head ends it.
        let trickle = |mut client: TcpStream| {
            for byte in b"GET / HTTP/1.1\r\nx-slow: ".iter().cycle().take(250) {
                if client.write_all(&[*byte]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        };
        let started = Instant::now();
        let result = read_from(trickle, Duration::from_millis(200));
        let waited = started.elapsed();
        assert_eq!(result.err(), Some(Refusal::Limit(Limit::HeadDeadline)));
        assert!(
            waited >= Duration::from_millis(200) && waited < Duration::from_secs(2),
            "refused after {waited:?}"
        );
    }

    #[test]
    fn oversized_head_gets_431() {
        let mut head = b"GET / HTTP/1.1\r\nx-big: ".to_vec();
        head.resize(MAX_HEAD_BYTES + 1, b'a');
        head.extend_from_slice(b"\r\n\r\n");
        assert_eq!(
            read_sent(head).err(),
            Some(Refusal::Limit(Limit::HeadBytes))
        );
    }

    #[test]
    fn too_many_header_lines_get_431() {
        let at_cap = read_sent(head_with_lines(MAX_HEADER_LINES)).unwrap();
        assert_eq!(at_cap.headers.get("x-h0"), Some("v"));
        assert_eq!(
            read_sent(head_with_lines(MAX_HEADER_LINES + 1)).err(),
            Some(Refusal::Limit(Limit::HeaderLines))
        );
    }

    #[test]
    fn oversized_content_length_gets_413() {
        let head = format!(
            "POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(
            read_sent(head.into_bytes()).err(),
            Some(Refusal::Limit(Limit::ContentLength))
        );
    }

    #[test]
    fn live_server_answers_too_many_headers_with_431() {
        let server = HttpServer::bind("127.0.0.1:0", echo_origin()).unwrap();
        let mut client = TcpStream::connect(server.addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        // No blank line: the server refuses on the last line sent, so it
        // closes with nothing unread and the client gets the answer.
        let mut head = head_with_lines(MAX_HEADER_LINES + 1);
        head.truncate(head.len() - 2);
        client.write_all(&head).unwrap();
        let mut reply = String::new();
        client.read_to_string(&mut reply).unwrap();
        assert!(
            reply.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"),
            "{reply}"
        );
        let metrics = &server.telemetry().metrics;
        assert_eq!(
            metrics.counter_value("msite_limits_hit_total", &[("limit", "header_lines")]),
            1
        );
        assert_eq!(server.requests_served(), 0);
        server.shutdown();
    }
}
