//! HTTP message types: methods, statuses, headers, requests, responses,
//! and the chunked transfer-encoding codec used for progressive
//! (streamed) response bodies.

use crate::url::Url;
use msite_support::bytes::Bytes;
use msite_support::sync::Mutex;
use std::fmt;
use std::io::BufRead;
use std::sync::Arc;

/// Request methods the proxy and origins understand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// GET
    Get,
    /// POST
    Post,
    /// HEAD
    Head,
}

impl Method {
    /// Parses a method token (case-insensitive).
    pub fn parse(s: &str) -> Option<Method> {
        match s.to_ascii_uppercase().as_str() {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            "HEAD" => Some(Method::Head),
            _ => None,
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Head => "HEAD",
        })
    }
}

/// Response status codes used in this system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Status(pub u16);

impl Status {
    /// 200
    pub const OK: Status = Status(200);
    /// 302
    pub const FOUND: Status = Status(302);
    /// 304
    pub const NOT_MODIFIED: Status = Status(304);
    /// 400
    pub const BAD_REQUEST: Status = Status(400);
    /// 401
    pub const UNAUTHORIZED: Status = Status(401);
    /// 403
    pub const FORBIDDEN: Status = Status(403);
    /// 404
    pub const NOT_FOUND: Status = Status(404);
    /// 408
    pub const REQUEST_TIMEOUT: Status = Status(408);
    /// 413
    pub const PAYLOAD_TOO_LARGE: Status = Status(413);
    /// 431
    pub const REQUEST_HEADER_FIELDS_TOO_LARGE: Status = Status(431);
    /// 500
    pub const INTERNAL_SERVER_ERROR: Status = Status(500);
    /// 502
    pub const BAD_GATEWAY: Status = Status(502);
    /// 503
    pub const SERVICE_UNAVAILABLE: Status = Status(503);
    /// 504
    pub const GATEWAY_TIMEOUT: Status = Status(504);

    /// True for 2xx.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.0)
    }

    /// True for 3xx.
    pub fn is_redirect(&self) -> bool {
        (300..400).contains(&self.0)
    }

    /// Canonical reason phrase.
    pub fn reason(&self) -> &'static str {
        match self.0 {
            200 => "OK",
            302 => "Found",
            304 => "Not Modified",
            400 => "Bad Request",
            401 => "Unauthorized",
            403 => "Forbidden",
            404 => "Not Found",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            502 => "Bad Gateway",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Unknown",
        }
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.0, self.reason())
    }
}

/// An ordered, case-insensitive header multimap.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Headers {
    entries: Vec<(String, String)>,
}

impl Headers {
    /// Creates an empty header map.
    pub fn new() -> Self {
        Headers::default()
    }

    /// Appends a header (duplicates allowed, e.g. `Set-Cookie`).
    pub fn append(&mut self, name: &str, value: &str) {
        self.entries
            .push((name.to_ascii_lowercase(), value.to_string()));
    }

    /// Sets a header, replacing all previous values.
    pub fn set(&mut self, name: &str, value: &str) {
        let name = name.to_ascii_lowercase();
        self.entries.retain(|(k, _)| *k != name);
        self.entries.push((name, value.to_string()));
    }

    /// First value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.entries
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// All values of `name`.
    pub fn get_all(&self, name: &str) -> Vec<&str> {
        let name = name.to_ascii_lowercase();
        self.entries
            .iter()
            .filter(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// Removes all values of `name`.
    pub fn remove(&mut self, name: &str) {
        let name = name.to_ascii_lowercase();
        self.entries.retain(|(k, _)| *k != name);
    }

    /// Iterates `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Number of header lines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no headers are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// An HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Method.
    pub method: Method,
    /// Absolute target URL.
    pub url: Url,
    /// Headers.
    pub headers: Headers,
    /// Body (form data for POST).
    pub body: Bytes,
}

impl Request {
    /// Builds a GET request for `url`.
    ///
    /// # Errors
    ///
    /// Returns the URL parse error.
    ///
    /// # Examples
    ///
    /// ```
    /// let req = msite_net::Request::get("http://forum/index.php").unwrap();
    /// assert_eq!(req.url.path(), "/index.php");
    /// ```
    pub fn get(url: &str) -> Result<Request, crate::url::ParseUrlError> {
        Ok(Request {
            method: Method::Get,
            url: Url::parse(url)?,
            headers: Headers::new(),
            body: Bytes::new(),
        })
    }

    /// Builds a POST request with a form-encoded body.
    ///
    /// # Errors
    ///
    /// Returns the URL parse error.
    pub fn post_form(
        url: &str,
        params: &[(&str, &str)],
    ) -> Result<Request, crate::url::ParseUrlError> {
        let mut headers = Headers::new();
        headers.set("content-type", "application/x-www-form-urlencoded");
        Ok(Request {
            method: Method::Post,
            url: Url::parse(url)?,
            headers,
            body: Bytes::from(crate::url::encode_query(params)),
        })
    }

    /// Sets a header and returns the request (builder style).
    pub fn with_header(mut self, name: &str, value: &str) -> Request {
        self.headers.set(name, value);
        self
    }

    /// The `Cookie` header parsed into `(name, value)` pairs.
    pub fn cookies(&self) -> Vec<(String, String)> {
        self.headers
            .get("cookie")
            .map(crate::cookies::parse_cookie_header)
            .unwrap_or_default()
    }

    /// Value of the cookie `name` sent with this request.
    pub fn cookie(&self, name: &str) -> Option<String> {
        self.cookies()
            .into_iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    /// Form parameters from the body (POST) or the query string (GET).
    pub fn form_params(&self) -> Vec<(String, String)> {
        match self.method {
            Method::Post => crate::url::parse_query(&String::from_utf8_lossy(&self.body)),
            _ => self
                .url
                .query()
                .map(crate::url::parse_query)
                .unwrap_or_default(),
        }
    }

    /// First form/query parameter named `name`.
    pub fn param(&self, name: &str) -> Option<String> {
        // Query parameters are always visible, body parameters for POST.
        if let Some(v) = self.url.query_param(name) {
            return Some(v);
        }
        self.form_params()
            .into_iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }
}

/// Destination for the chunks of a progressively produced response
/// body. The server hands the producer a sink that frames and flushes
/// each chunk straight to the TCP stream; in-process consumers collect
/// into a buffer instead. `Send` so producers can flush from parallel
/// pipeline workers.
pub trait ChunkSink: Send {
    /// Delivers one body chunk. Empty chunks are ignored by transports
    /// (an empty chunk would terminate the chunked framing).
    fn chunk(&mut self, bytes: &[u8]);
}

impl ChunkSink for Vec<u8> {
    fn chunk(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// The deferred producer of a streamed body: runs on the transport's
/// writer thread, pushing chunks into the sink as they become ready.
pub type ChunkProducer = Box<dyn FnOnce(&mut dyn ChunkSink) + Send>;

/// A streamed response body: a one-shot [`ChunkProducer`] behind a
/// shared handle (so [`Response`] stays `Clone`; the first consumer
/// takes the producer, clones see an already-drained stream).
#[derive(Clone)]
pub struct ChunkStream {
    producer: Arc<Mutex<Option<ChunkProducer>>>,
}

impl ChunkStream {
    /// Wraps a producer.
    pub fn new(producer: ChunkProducer) -> ChunkStream {
        ChunkStream {
            producer: Arc::new(Mutex::new(Some(producer))),
        }
    }

    /// Takes the producer; `None` when already consumed (or consumed
    /// through a clone).
    pub fn take(&self) -> Option<ChunkProducer> {
        self.producer.lock().take()
    }
}

impl fmt::Debug for ChunkStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pending = self.producer.lock().is_some();
        f.debug_struct("ChunkStream")
            .field("pending", &pending)
            .finish()
    }
}

/// An HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: Status,
    /// Headers.
    pub headers: Headers,
    /// Body bytes. For a streamed response this is empty until the
    /// stream is drained (see [`Response::into_collected`]).
    pub body: Bytes,
    /// Deferred chunked body, produced while the transport writes.
    /// `None` for ordinary (batch) responses. Transports that cannot
    /// stream — and in-process consumers — drain it into `body` via
    /// [`Response::into_collected`]; the concatenation of all chunks
    /// is byte-identical to the batch body.
    pub stream: Option<ChunkStream>,
}

impl Response {
    /// 200 response with an HTML body.
    pub fn html(body: impl Into<String>) -> Response {
        let mut headers = Headers::new();
        headers.set("content-type", "text/html; charset=utf-8");
        Response {
            status: Status::OK,
            headers,
            body: Bytes::from(body.into()),
            stream: None,
        }
    }

    /// 200 response with arbitrary bytes and content type.
    pub fn bytes(content_type: &str, body: impl Into<Bytes>) -> Response {
        let mut headers = Headers::new();
        headers.set("content-type", content_type);
        Response {
            status: Status::OK,
            headers,
            body: body.into(),
            stream: None,
        }
    }

    /// 302 redirect to `location`.
    pub fn redirect(location: &str) -> Response {
        let mut headers = Headers::new();
        headers.set("location", location);
        Response {
            status: Status::FOUND,
            headers,
            body: Bytes::new(),
            stream: None,
        }
    }

    /// An error response with a small HTML body.
    pub fn error(status: Status, message: &str) -> Response {
        let mut headers = Headers::new();
        headers.set("content-type", "text/html; charset=utf-8");
        Response {
            status,
            headers,
            body: Bytes::from(format!(
                "<html><body><h1>{status}</h1><p>{message}</p></body></html>"
            )),
            stream: None,
        }
    }

    /// Appends a `Set-Cookie` header and returns the response.
    pub fn with_cookie(mut self, cookie: &crate::cookies::Cookie) -> Response {
        self.headers.append("set-cookie", &cookie.to_header_value());
        self
    }

    /// Body interpreted as UTF-8 (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// Total transfer size: body plus a serialized-header estimate.
    pub fn transfer_size(&self) -> usize {
        let header_bytes: usize = self
            .headers
            .iter()
            .map(|(k, v)| k.len() + v.len() + 4)
            .sum();
        self.body.len() + header_bytes + 32
    }

    /// 200 response whose body is produced progressively: `producer`
    /// runs on the transport's writer thread and pushes chunks into
    /// the sink as they become ready. A TCP server delivers them with
    /// chunked transfer-encoding (no `content-length`); in-process
    /// consumers drain with [`Response::into_collected`]. Either way
    /// the byte-concatenation of the chunks is the full body.
    pub fn streaming(
        content_type: &str,
        producer: impl FnOnce(&mut dyn ChunkSink) + Send + 'static,
    ) -> Response {
        let mut headers = Headers::new();
        headers.set("content-type", content_type);
        Response {
            status: Status::OK,
            headers,
            body: Bytes::new(),
            stream: Some(ChunkStream::new(Box::new(producer))),
        }
    }

    /// True when this response carries an undrained streamed body.
    pub fn is_streaming(&self) -> bool {
        self.stream.as_ref().is_some_and(|s| {
            // A drained/taken stream behaves like a batch response.
            let pending = s.producer.lock().is_some();
            pending
        })
    }

    /// Drains a streamed body into `body` (a no-op for batch
    /// responses): runs the producer to completion, concatenating the
    /// chunks. This is what non-streaming transports and in-process
    /// consumers use; the result is byte-identical to what a chunked
    /// transport would deliver.
    pub fn into_collected(mut self) -> Response {
        if let Some(producer) = self.stream.as_ref().and_then(ChunkStream::take) {
            let mut buffer: Vec<u8> = Vec::new();
            producer(&mut buffer);
            self.body = Bytes::from(buffer);
        }
        self.stream = None;
        self
    }
}

/// Frames one non-empty chunk for the wire: `<hex len>\r\n<data>\r\n`.
pub fn encode_chunk(data: &[u8]) -> Vec<u8> {
    let mut framed = format!("{:x}\r\n", data.len()).into_bytes();
    framed.extend_from_slice(data);
    framed.extend_from_slice(b"\r\n");
    framed
}

/// The terminal frame of a chunked body: `0\r\n\r\n`.
pub const CHUNK_TERMINATOR: &[u8] = b"0\r\n\r\n";

/// Largest chunk size the decoder will buffer. A peer declaring a
/// bigger chunk is rejected before any allocation happens, so a
/// garbled (or hostile) size line cannot force an OOM.
pub const MAX_CHUNK_BYTES: u64 = 16 * 1024 * 1024;

/// Most trailer lines the decoder will drain after the final chunk.
/// Bounds the work a peer can demand by streaming endless trailers.
pub const MAX_TRAILER_LINES: usize = 128;

/// A malformed or truncated chunked transfer encoding.
///
/// Every way a chunked body can go wrong maps to a distinct variant,
/// so callers can log or classify failures without string matching.
/// Converts losslessly into [`std::io::Error`] (`InvalidData` for
/// framing faults, `UnexpectedEof` for truncation).
#[derive(Debug)]
pub enum ChunkedError {
    /// The stream ended before the chunked body did: mid chunk-size
    /// line, mid chunk data, or before the terminating trailer CRLF.
    Truncated {
        /// Which part of the framing was cut short.
        context: &'static str,
    },
    /// A chunk-size line was not valid hex (after stripping extensions).
    BadSizeLine(String),
    /// A chunk declared more bytes than [`MAX_CHUNK_BYTES`].
    OversizedChunk {
        /// The declared chunk size.
        size: u64,
        /// The decoder's cap ([`MAX_CHUNK_BYTES`]).
        limit: u64,
    },
    /// Chunk data was not followed by CRLF.
    MissingCrlf,
    /// The trailer section exceeded [`MAX_TRAILER_LINES`] lines.
    TrailerOverflow,
    /// A transport error from the underlying reader.
    Io(std::io::Error),
}

impl std::fmt::Display for ChunkedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChunkedError::Truncated { context } => {
                write!(f, "chunked body truncated ({context})")
            }
            ChunkedError::BadSizeLine(line) => write!(f, "bad chunk size line {line:?}"),
            ChunkedError::OversizedChunk { size, limit } => {
                write!(f, "chunk of {size} bytes exceeds limit of {limit}")
            }
            ChunkedError::MissingCrlf => write!(f, "chunk data not terminated by CRLF"),
            ChunkedError::TrailerOverflow => write!(f, "too many trailer lines"),
            ChunkedError::Io(err) => write!(f, "chunked transport error: {err}"),
        }
    }
}

impl std::error::Error for ChunkedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ChunkedError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ChunkedError {
    fn from(err: std::io::Error) -> Self {
        if err.kind() == std::io::ErrorKind::UnexpectedEof {
            ChunkedError::Truncated {
                context: "transport eof",
            }
        } else {
            ChunkedError::Io(err)
        }
    }
}

impl From<ChunkedError> for std::io::Error {
    fn from(err: ChunkedError) -> Self {
        let kind = match &err {
            ChunkedError::Truncated { .. } => std::io::ErrorKind::UnexpectedEof,
            ChunkedError::Io(io) => io.kind(),
            _ => std::io::ErrorKind::InvalidData,
        };
        std::io::Error::new(kind, err.to_string())
    }
}

/// Decodes a chunked transfer-encoded body from `reader`, returning
/// the concatenated chunk payloads. Trailers are read and discarded.
///
/// # Errors
///
/// Returns a typed [`ChunkedError`] on malformed framing — truncated
/// terminators, non-hex or oversized chunk sizes, missing CRLFs — and
/// on transport IO errors. Never panics and never allocates more than
/// [`MAX_CHUNK_BYTES`] for a single declared chunk.
pub fn decode_chunked(reader: &mut impl BufRead) -> Result<Vec<u8>, ChunkedError> {
    let mut body = Vec::new();
    loop {
        let mut size_line = String::new();
        if reader.read_line(&mut size_line)? == 0 {
            return Err(ChunkedError::Truncated {
                context: "chunk size line",
            });
        }
        // Chunk extensions (";ext=val") are allowed and ignored.
        let size_token = size_line
            .trim_end()
            .split(';')
            .next()
            .unwrap_or_default()
            .trim();
        let size = u64::from_str_radix(size_token, 16)
            .map_err(|_| ChunkedError::BadSizeLine(size_token.to_string()))?;
        if size > MAX_CHUNK_BYTES {
            return Err(ChunkedError::OversizedChunk {
                size,
                limit: MAX_CHUNK_BYTES,
            });
        }
        if size == 0 {
            // Trailer section: zero or more header lines, then CRLF.
            for _ in 0..MAX_TRAILER_LINES {
                let mut trailer = String::new();
                if reader.read_line(&mut trailer)? == 0 {
                    return Err(ChunkedError::Truncated {
                        context: "trailer section",
                    });
                }
                if trailer.trim_end().is_empty() {
                    return Ok(body);
                }
            }
            return Err(ChunkedError::TrailerOverflow);
        }
        let start = body.len();
        body.resize(start + size as usize, 0);
        reader
            .read_exact(&mut body[start..])
            .map_err(|err| truncated_as(err, "chunk data"))?;
        let mut crlf = [0u8; 2];
        reader
            .read_exact(&mut crlf)
            .map_err(|err| truncated_as(err, "chunk terminator"))?;
        if &crlf != b"\r\n" {
            return Err(ChunkedError::MissingCrlf);
        }
    }
}

fn truncated_as(err: std::io::Error, context: &'static str) -> ChunkedError {
    if err.kind() == std::io::ErrorKind::UnexpectedEof {
        ChunkedError::Truncated { context }
    } else {
        ChunkedError::Io(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_parse_and_display() {
        assert_eq!(Method::parse("get"), Some(Method::Get));
        assert_eq!(Method::parse("POST"), Some(Method::Post));
        assert_eq!(Method::parse("BREW"), None);
        assert_eq!(Method::Get.to_string(), "GET");
    }

    #[test]
    fn status_predicates() {
        assert!(Status::OK.is_success());
        assert!(Status::FOUND.is_redirect());
        assert!(!Status::NOT_FOUND.is_success());
        assert_eq!(Status::NOT_FOUND.to_string(), "404 Not Found");
    }

    #[test]
    fn headers_case_insensitive() {
        let mut h = Headers::new();
        h.set("Content-Type", "text/html");
        assert_eq!(h.get("content-type"), Some("text/html"));
        assert_eq!(h.get("CONTENT-TYPE"), Some("text/html"));
        h.set("content-type", "text/plain");
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn headers_multi_value() {
        let mut h = Headers::new();
        h.append("set-cookie", "a=1");
        h.append("Set-Cookie", "b=2");
        assert_eq!(h.get_all("set-cookie"), vec!["a=1", "b=2"]);
        assert_eq!(h.get("set-cookie"), Some("a=1"));
        h.remove("set-cookie");
        assert!(h.is_empty());
    }

    #[test]
    fn get_request_builder() {
        let r = Request::get("http://h/p?x=1")
            .unwrap()
            .with_header("user-agent", "BlackBerry9630");
        assert_eq!(r.method, Method::Get);
        assert_eq!(r.param("x"), Some("1".to_string()));
        assert_eq!(r.headers.get("user-agent"), Some("BlackBerry9630"));
    }

    #[test]
    fn post_form_encodes_body() {
        let r =
            Request::post_form("http://h/login.php", &[("user", "al b"), ("pass", "x&y")]).unwrap();
        assert_eq!(&r.body[..], b"user=al+b&pass=x%26y");
        let params = r.form_params();
        assert_eq!(params[1], ("pass".to_string(), "x&y".to_string()));
        assert_eq!(r.param("pass"), Some("x&y".to_string()));
    }

    #[test]
    fn request_cookies_parsed() {
        let r = Request::get("http://h/")
            .unwrap()
            .with_header("cookie", "msite_session=abc; other=1");
        assert_eq!(r.cookie("msite_session"), Some("abc".to_string()));
        assert_eq!(r.cookie("missing"), None);
    }

    #[test]
    fn response_constructors() {
        let ok = Response::html("<p>x</p>");
        assert!(ok.status.is_success());
        assert_eq!(ok.body_text(), "<p>x</p>");
        let redirect = Response::redirect("/login.php");
        assert_eq!(redirect.headers.get("location"), Some("/login.php"));
        let err = Response::error(Status::NOT_FOUND, "no such page");
        assert!(err.body_text().contains("404"));
    }

    #[test]
    fn transfer_size_includes_headers() {
        let r = Response::html("x");
        assert!(r.transfer_size() > 1);
    }

    fn decode(bytes: &[u8]) -> Result<Vec<u8>, ChunkedError> {
        let mut reader = std::io::BufReader::new(bytes);
        decode_chunked(&mut reader)
    }

    #[test]
    fn decode_chunked_roundtrip_with_extensions_and_trailers() {
        let mut wire = Vec::new();
        wire.extend_from_slice(b"5;ext=1\r\nhello\r\n");
        wire.extend_from_slice(&encode_chunk(b" world"));
        wire.extend_from_slice(b"0\r\nx-trailer: 1\r\n\r\n");
        assert_eq!(decode(&wire).unwrap(), b"hello world");
    }

    #[test]
    fn decode_chunked_truncated_size_line_is_typed() {
        assert!(matches!(
            decode(b""),
            Err(ChunkedError::Truncated {
                context: "chunk size line"
            })
        ));
    }

    #[test]
    fn decode_chunked_truncated_data_is_typed() {
        assert!(matches!(
            decode(b"a\r\nonly4"),
            Err(ChunkedError::Truncated {
                context: "chunk data"
            })
        ));
    }

    #[test]
    fn decode_chunked_truncated_terminator_is_typed() {
        // Data arrives in full but the stream dies before the CRLF.
        assert!(matches!(
            decode(b"5\r\nhello"),
            Err(ChunkedError::Truncated {
                context: "chunk terminator"
            })
        ));
        // The final `0` chunk arrives but the trailer CRLF never does.
        assert!(matches!(
            decode(b"5\r\nhello\r\n0\r\n"),
            Err(ChunkedError::Truncated {
                context: "trailer section"
            })
        ));
    }

    #[test]
    fn decode_chunked_non_hex_size_is_typed() {
        match decode(b"zz\r\nhello\r\n0\r\n\r\n") {
            Err(ChunkedError::BadSizeLine(line)) => assert_eq!(line, "zz"),
            other => panic!("expected BadSizeLine, got {other:?}"),
        }
    }

    #[test]
    fn decode_chunked_oversized_size_rejected_without_allocating() {
        // ffffffffffffffff = u64::MAX: must be refused, not buffered.
        match decode(b"ffffffffffffffff\r\n") {
            Err(ChunkedError::OversizedChunk { size, limit }) => {
                assert_eq!(size, u64::MAX);
                assert_eq!(limit, MAX_CHUNK_BYTES);
            }
            other => panic!("expected OversizedChunk, got {other:?}"),
        }
        // A size that doesn't even fit in u64 is a bad size line.
        assert!(matches!(
            decode(b"10000000000000000\r\n"),
            Err(ChunkedError::BadSizeLine(_))
        ));
    }

    #[test]
    fn decode_chunked_missing_crlf_is_typed() {
        assert!(matches!(
            decode(b"5\r\nhelloXX0\r\n\r\n"),
            Err(ChunkedError::MissingCrlf)
        ));
    }

    #[test]
    fn decode_chunked_trailer_flood_is_bounded() {
        let mut wire = b"0\r\n".to_vec();
        for i in 0..(MAX_TRAILER_LINES + 8) {
            wire.extend_from_slice(format!("x-{i}: v\r\n").as_bytes());
        }
        wire.extend_from_slice(b"\r\n");
        assert!(matches!(decode(&wire), Err(ChunkedError::TrailerOverflow)));
    }

    #[test]
    fn chunked_error_maps_to_io_kinds() {
        let eof: std::io::Error = ChunkedError::Truncated {
            context: "chunk data",
        }
        .into();
        assert_eq!(eof.kind(), std::io::ErrorKind::UnexpectedEof);
        let framing: std::io::Error = ChunkedError::MissingCrlf.into();
        assert_eq!(framing.kind(), std::io::ErrorKind::InvalidData);
    }
}
