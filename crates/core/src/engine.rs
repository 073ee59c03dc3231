//! Pluggable rendering engines.
//!
//! One of the paper's listed contributions: "a pluggable content
//! adaptation system that can be extended with multiple rendering
//! engines to produce HTML, static images, PDF, plain text, or Flash
//! content at any point in the rendering process." This module defines
//! the [`RenderEngine`] plug-in interface and ships four engines:
//!
//! - [`HtmlEngine`] — tidied XHTML (the default pass-through);
//! - [`ImageEngine`] — PNG raster via the server-side browser;
//! - [`PlainTextEngine`] — visible text with link footnotes (the
//!   "text-based content adaptation" the paper contrasts against);
//! - [`PdfEngine`] — a single-page text PDF, written from scratch.
//!
//! Flash is the one output we do not emit — the format is dead and the
//! paper itself delegates Flash interactivity to plugin vendors.

use msite_html::{text::visible_text, tidy};
use msite_render::browser::{Browser, BrowserConfig};
use msite_render::image::PostProcess;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// A rendered artifact produced by an engine.
#[derive(Debug, Clone)]
pub struct RenderedArtifact {
    /// MIME type of `bytes`.
    pub content_type: String,
    /// Artifact bytes.
    pub bytes: Vec<u8>,
    /// Time spent PNG-encoding `bytes`, for engines that do; the caller
    /// counts the encode against its own metrics.
    pub png_encode: Option<Duration>,
}

impl RenderedArtifact {
    fn text(content_type: &str, body: String) -> RenderedArtifact {
        RenderedArtifact {
            content_type: content_type.to_string(),
            bytes: body.into_bytes(),
            png_encode: None,
        }
    }
}

/// A rendering-engine failure: which engine failed and why. Engine
/// failures degrade to the next engine in the fallback chain instead of
/// erroring the request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RenderError {
    /// Name of the engine that failed.
    pub engine: String,
    /// Failure description (for a panicking engine, the panic payload).
    pub message: String,
}

impl fmt::Display for RenderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "engine `{}` failed: {}", self.engine, self.message)
    }
}

impl std::error::Error for RenderError {}

/// A pluggable rendering engine: HTML in, artifact out.
///
/// Engines must be stateless per call (the proxy may invoke them from a
/// worker pool).
pub trait RenderEngine: Send + Sync {
    /// Engine name, used in the registry and in generated file names.
    fn name(&self) -> &str;

    /// Renders page HTML into an artifact. Infallible signature kept for
    /// simple engines; may panic on pathological input.
    fn render(&self, html: &str) -> RenderedArtifact;

    /// Fallible rendering: the entry point the proxy actually calls.
    /// The default implementation shields [`Self::render`] behind a
    /// panic guard, so a crashing engine surfaces as a [`RenderError`]
    /// (and triggers fallback) instead of poisoning the worker.
    fn try_render(&self, html: &str) -> Result<RenderedArtifact, RenderError> {
        catch_unwind(AssertUnwindSafe(|| self.render(html))).map_err(|panic| RenderError {
            engine: self.name().to_string(),
            message: panic_message(&*panic),
        })
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "engine panicked".to_string()
    }
}

/// Tidied XHTML output (the identity engine).
#[derive(Debug, Default)]
pub struct HtmlEngine;

impl RenderEngine for HtmlEngine {
    fn name(&self) -> &str {
        "html"
    }

    fn render(&self, html: &str) -> RenderedArtifact {
        RenderedArtifact::text("application/xhtml+xml", tidy::to_xhtml_string(html))
    }
}

/// PNG raster output via the server-side browser.
pub struct ImageEngine {
    config: BrowserConfig,
}

impl ImageEngine {
    /// Creates the engine with a browser configuration.
    pub fn new(config: BrowserConfig) -> ImageEngine {
        ImageEngine { config }
    }
}

impl Default for ImageEngine {
    fn default() -> Self {
        ImageEngine::new(BrowserConfig::default())
    }
}

impl RenderEngine for ImageEngine {
    fn name(&self) -> &str {
        "image"
    }

    fn render(&self, html: &str) -> RenderedArtifact {
        let browser = Browser::launch(self.config.clone());
        // The default post-process is a plain PNG of the whole page.
        let image = browser.lay_out(html, &[]).encode(&PostProcess::default());
        RenderedArtifact {
            content_type: "image/png".to_string(),
            bytes: image.encoded,
            png_encode: Some(image.encode_time),
        }
    }
}

/// Plain-text output: visible text plus a numbered link index.
#[derive(Debug, Default)]
pub struct PlainTextEngine;

impl RenderEngine for PlainTextEngine {
    fn name(&self) -> &str {
        "text"
    }

    fn render(&self, html: &str) -> RenderedArtifact {
        let doc = tidy::tidy(html);
        let mut out = visible_text(&doc, doc.root());
        let links: Vec<(String, String)> = doc
            .elements_by_tag(doc.root(), "a")
            .into_iter()
            .filter_map(|a| {
                let href = doc.attr(a, "href")?.to_string();
                let label = visible_text(&doc, a);
                (!href.is_empty()).then_some((label, href))
            })
            .collect();
        if !links.is_empty() {
            out.push_str("\n\nLinks:\n");
            for (i, (label, href)) in links.iter().enumerate() {
                out.push_str(&format!("[{}] {} -> {}\n", i + 1, label, href));
            }
        }
        RenderedArtifact::text("text/plain; charset=utf-8", out)
    }
}

/// Single-page PDF output, written from scratch (PDF 1.4, Helvetica,
/// uncompressed content stream). Good enough for "read this page
/// offline" delivery to constrained devices.
#[derive(Debug)]
pub struct PdfEngine {
    /// Page width in PostScript points (595 = A4).
    pub page_width: f32,
    /// Page height in points (842 = A4).
    pub page_height: f32,
    /// Body font size in points.
    pub font_size: f32,
}

impl Default for PdfEngine {
    fn default() -> Self {
        PdfEngine {
            page_width: 595.0,
            page_height: 842.0,
            font_size: 10.0,
        }
    }
}

impl RenderEngine for PdfEngine {
    fn name(&self) -> &str {
        "pdf"
    }

    fn render(&self, html: &str) -> RenderedArtifact {
        let doc = tidy::tidy(html);
        let title = doc
            .elements_by_tag(doc.root(), "title")
            .first()
            .map(|&t| doc.text_content(t))
            .unwrap_or_default();
        let text = visible_text(&doc, doc.root());
        let lines = wrap_text(&text, self.chars_per_line());
        RenderedArtifact {
            content_type: "application/pdf".to_string(),
            bytes: self.write_pdf(&title, &lines),
            png_encode: None,
        }
    }
}

impl PdfEngine {
    fn chars_per_line(&self) -> usize {
        // Helvetica averages ~0.5 em per character.
        let usable = self.page_width - 2.0 * MARGIN;
        (usable / (self.font_size * 0.5)).max(10.0) as usize
    }

    fn lines_per_page(&self) -> usize {
        let usable = self.page_height - 2.0 * MARGIN - 20.0;
        (usable / (self.font_size * 1.3)).max(5.0) as usize
    }

    /// Emits a complete PDF document with one or more pages of text.
    fn write_pdf(&self, title: &str, lines: &[String]) -> Vec<u8> {
        let pages: Vec<&[String]> = if lines.is_empty() {
            vec![&[]]
        } else {
            lines.chunks(self.lines_per_page()).collect()
        };
        let page_count = pages.len();

        // Object numbering: 1 catalog, 2 pages-tree, 3 font, then per
        // page: page object + content stream.
        let mut objects: Vec<Vec<u8>> = Vec::new();
        let kids: Vec<String> = (0..page_count)
            .map(|i| format!("{} 0 R", 4 + i * 2))
            .collect();
        objects.push(b"<< /Type /Catalog /Pages 2 0 R >>".to_vec());
        objects.push(
            format!(
                "<< /Type /Pages /Kids [{}] /Count {} >>",
                kids.join(" "),
                page_count
            )
            .into_bytes(),
        );
        objects.push(b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>".to_vec());
        for (i, page_lines) in pages.iter().enumerate() {
            let content = self.page_stream(title, page_lines, i == 0);
            objects.push(
                format!(
                    "<< /Type /Page /Parent 2 0 R /MediaBox [0 0 {} {}] \
                     /Resources << /Font << /F1 3 0 R >> >> /Contents {} 0 R >>",
                    self.page_width,
                    self.page_height,
                    5 + i * 2
                )
                .into_bytes(),
            );
            let mut stream = format!("<< /Length {} >>\nstream\n", content.len()).into_bytes();
            stream.extend_from_slice(content.as_bytes());
            stream.extend_from_slice(b"\nendstream");
            objects.push(stream);
        }

        // Assemble with a cross-reference table.
        let mut out: Vec<u8> = b"%PDF-1.4\n".to_vec();
        let mut offsets = Vec::with_capacity(objects.len());
        for (i, body) in objects.iter().enumerate() {
            offsets.push(out.len());
            out.extend_from_slice(format!("{} 0 obj\n", i + 1).as_bytes());
            out.extend_from_slice(body);
            out.extend_from_slice(b"\nendobj\n");
        }
        let xref_at = out.len();
        out.extend_from_slice(format!("xref\n0 {}\n", objects.len() + 1).as_bytes());
        out.extend_from_slice(b"0000000000 65535 f \n");
        for offset in offsets {
            out.extend_from_slice(format!("{offset:010} 00000 n \n").as_bytes());
        }
        out.extend_from_slice(
            format!(
                "trailer\n<< /Size {} /Root 1 0 R >>\nstartxref\n{}\n%%EOF",
                objects.len() + 1,
                xref_at
            )
            .as_bytes(),
        );
        out
    }

    fn page_stream(&self, title: &str, lines: &[String], first_page: bool) -> String {
        let mut content = String::from("BT\n");
        let mut y = self.page_height - MARGIN;
        if first_page && !title.is_empty() {
            content.push_str(&format!(
                "/F1 {} Tf 1 0 0 1 {} {} Tm ({}) Tj\n",
                self.font_size * 1.4,
                MARGIN,
                y,
                escape_pdf_string(title)
            ));
            y -= self.font_size * 2.2;
        }
        for line in lines {
            content.push_str(&format!(
                "/F1 {} Tf 1 0 0 1 {} {} Tm ({}) Tj\n",
                self.font_size,
                MARGIN,
                y,
                escape_pdf_string(line)
            ));
            y -= self.font_size * 1.3;
        }
        content.push_str("ET");
        content
    }
}

const MARGIN: f32 = 50.0;

fn escape_pdf_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '(' => out.push_str("\\("),
            ')' => out.push_str("\\)"),
            '\\' => out.push_str("\\\\"),
            c if c.is_ascii() && !c.is_control() => out.push(c),
            _ => out.push('?'), // Helvetica/WinAnsi subset only
        }
    }
    out
}

/// Greedy word wrap to a column width.
fn wrap_text(text: &str, width: usize) -> Vec<String> {
    let mut lines = Vec::new();
    let mut current = String::new();
    for word in text.split_whitespace() {
        if !current.is_empty() && current.len() + 1 + word.len() > width {
            lines.push(std::mem::take(&mut current));
        }
        if !current.is_empty() {
            current.push(' ');
        }
        // Hard-break pathological words.
        if word.len() > width {
            for chunk in word.as_bytes().chunks(width) {
                lines.push(String::from_utf8_lossy(chunk).into_owned());
            }
            continue;
        }
        current.push_str(word);
    }
    if !current.is_empty() {
        lines.push(current);
    }
    lines
}

/// The engine registry the proxy consults ("can be extended with
/// multiple rendering engines").
#[derive(Default)]
pub struct EngineRegistry {
    engines: Vec<Box<dyn RenderEngine>>,
}

impl EngineRegistry {
    /// Creates a registry with the four built-in engines.
    pub fn with_builtins() -> EngineRegistry {
        let mut registry = EngineRegistry::default();
        registry.register(Box::new(HtmlEngine));
        registry.register(Box::new(ImageEngine::default()));
        registry.register(Box::new(PlainTextEngine));
        registry.register(Box::new(PdfEngine::default()));
        registry
    }

    /// Adds an engine (later registrations shadow earlier ones by name).
    pub fn register(&mut self, engine: Box<dyn RenderEngine>) {
        self.engines.retain(|e| e.name() != engine.name());
        self.engines.push(engine);
    }

    /// Looks an engine up by name.
    pub fn get(&self, name: &str) -> Option<&dyn RenderEngine> {
        self.engines
            .iter()
            .find(|e| e.name() == name)
            .map(|b| b.as_ref())
    }

    /// Registered engine names.
    pub fn names(&self) -> Vec<&str> {
        self.engines.iter().map(|e| e.name()).collect()
    }

    /// The degradation chain for `name`: the engine itself, then the
    /// registered fallbacks in fidelity order — image → html → plain
    /// text — skipping the requested engine and anything unregistered.
    /// (`image` never serves as a fallback: it is the most expensive and
    /// most fragile engine, so degradation only moves down-stack.)
    pub fn fallback_chain<'a>(&'a self, name: &'a str) -> Vec<&'a str> {
        if self.get(name).is_none() {
            return Vec::new();
        }
        let mut chain = vec![name];
        for fallback in FALLBACK_ORDER {
            if *fallback != name && self.get(fallback).is_some() {
                chain.push(*fallback);
            }
        }
        chain
    }

    /// Renders `html` with `name`, degrading down the fallback chain on
    /// engine failure.
    ///
    /// # Errors
    ///
    /// `Err(None)` when no engine called `name` exists; `Err(Some(...))`
    /// with the accumulated failures when every chain member failed.
    pub fn render_with_fallback(
        &self,
        name: &str,
        html: &str,
    ) -> Result<FallbackRender, Option<Vec<RenderError>>> {
        if self.get(name).is_none() {
            return Err(None);
        }
        let mut degraded = Vec::new();
        for engine_name in self.fallback_chain(name) {
            let engine = self
                .get(engine_name)
                .unwrap_or_else(|| unreachable!("chain members are registered"));
            match engine.try_render(html) {
                Ok(artifact) => {
                    return Ok(FallbackRender {
                        artifact,
                        engine: engine_name.to_string(),
                        degraded,
                    })
                }
                Err(error) => degraded.push(error),
            }
        }
        Err(Some(degraded))
    }
}

/// Degradation order after the requested engine (§ fallback chain).
const FALLBACK_ORDER: &[&str] = &["html", "text"];

/// A successful render, possibly produced by a fallback engine.
#[derive(Debug, Clone)]
pub struct FallbackRender {
    /// The artifact served.
    pub artifact: RenderedArtifact,
    /// The engine that actually produced it.
    pub engine: String,
    /// Failures from higher-fidelity engines tried first (empty when the
    /// requested engine succeeded).
    pub degraded: Vec<RenderError>,
}

impl FallbackRender {
    /// Packs the render into its shared-cache wire form.
    pub fn to_cached(&self) -> CachedRender {
        CachedRender {
            engine: self.engine.clone(),
            content_type: self.artifact.content_type.clone(),
            degraded: !self.degraded.is_empty(),
            bytes: self.artifact.bytes.clone(),
        }
    }
}

/// A rendered artifact in its shared-cache wire form: the payload plus
/// the metadata a response needs (producing engine, content type,
/// whether the render was degraded down the fallback chain). The render
/// cache stores opaque bytes, so artifacts cross it through
/// [`CachedRender::encode`]/[`CachedRender::decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedRender {
    /// Name of the engine that produced the artifact.
    pub engine: String,
    /// MIME type of `bytes`.
    pub content_type: String,
    /// True when a fallback engine produced the artifact.
    pub degraded: bool,
    /// Artifact bytes.
    pub bytes: Vec<u8>,
}

impl CachedRender {
    /// Serializes to the cache's byte format:
    /// `[degraded u8][engine_len u8][engine][ct_len u16 BE][ct][payload]`.
    pub fn encode(&self) -> Vec<u8> {
        let engine = self.engine.as_bytes();
        let content_type = self.content_type.as_bytes();
        let engine_len = engine.len().min(u8::MAX as usize);
        let ct_len = content_type.len().min(u16::MAX as usize);
        let mut out = Vec::with_capacity(4 + engine_len + ct_len + self.bytes.len());
        out.push(u8::from(self.degraded));
        out.push(engine_len as u8);
        out.extend_from_slice(&engine[..engine_len]);
        out.extend_from_slice(&(ct_len as u16).to_be_bytes());
        out.extend_from_slice(&content_type[..ct_len]);
        out.extend_from_slice(&self.bytes);
        out
    }

    /// Deserializes from [`Self::encode`]'s format; `None` on a
    /// truncated or malformed buffer.
    pub fn decode(data: &[u8]) -> Option<CachedRender> {
        let (&degraded, rest) = data.split_first()?;
        let (&engine_len, rest) = rest.split_first()?;
        let engine_len = engine_len as usize;
        if rest.len() < engine_len + 2 {
            return None;
        }
        let engine = std::str::from_utf8(&rest[..engine_len]).ok()?.to_string();
        let rest = &rest[engine_len..];
        let ct_len = u16::from_be_bytes([rest[0], rest[1]]) as usize;
        let rest = &rest[2..];
        if rest.len() < ct_len {
            return None;
        }
        let content_type = std::str::from_utf8(&rest[..ct_len]).ok()?.to_string();
        Some(CachedRender {
            engine,
            content_type,
            degraded: degraded != 0,
            bytes: rest[ct_len..].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: &str = "<html><head><title>Shop News</title></head><body>\
        <h1>Grand (re)opening</h1><p>All hand tools 20% off.</p>\
        <a href=\"/sale.php\">See the sale</a></body></html>";

    #[test]
    fn html_engine_tidies() {
        let artifact = HtmlEngine.render("<p>a<br>b");
        assert_eq!(artifact.content_type, "application/xhtml+xml");
        let body = String::from_utf8(artifact.bytes).unwrap();
        assert!(body.contains("<br />"));
        assert!(body.contains("</html>"));
    }

    #[test]
    fn image_engine_produces_png() {
        let artifact = ImageEngine::default().render(PAGE);
        assert_eq!(artifact.content_type, "image/png");
        assert!(artifact.bytes.starts_with(&[0x89, b'P', b'N', b'G']));
    }

    #[test]
    fn text_engine_extracts_text_and_links() {
        let artifact = PlainTextEngine.render(PAGE);
        let body = String::from_utf8(artifact.bytes).unwrap();
        assert!(body.contains("Grand (re)opening"));
        assert!(body.contains("hand tools 20% off"));
        assert!(body.contains("[1] See the sale -> /sale.php"));
        assert!(!body.contains("<h1>"));
    }

    #[test]
    fn pdf_engine_emits_valid_structure() {
        let artifact = PdfEngine::default().render(PAGE);
        assert_eq!(artifact.content_type, "application/pdf");
        let bytes = &artifact.bytes;
        assert!(bytes.starts_with(b"%PDF-1.4"));
        assert!(bytes.ends_with(b"%%EOF"));
        let text = String::from_utf8_lossy(bytes);
        assert!(text.contains("/Type /Catalog"));
        assert!(text.contains("/BaseFont /Helvetica"));
        assert!(text.contains("Shop News"));
        // Parens escaped inside strings.
        assert!(text.contains("Grand \\(re\\)opening"));
        // xref offsets must actually point at objects.
        let xref_at: usize = text
            .rsplit("startxref\n")
            .next()
            .unwrap()
            .lines()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(&bytes[xref_at..xref_at + 4], b"xref");
    }

    #[test]
    fn pdf_paginates_long_documents() {
        let mut long = String::from("<body><p>");
        for i in 0..3_000 {
            long.push_str(&format!("word{i} "));
        }
        long.push_str("</p></body>");
        let artifact = PdfEngine::default().render(&long);
        let text = String::from_utf8_lossy(&artifact.bytes);
        let pages = text.matches("/Type /Page ").count();
        assert!(pages >= 2, "expected pagination, got {pages} page(s)");
        // Kids count matches.
        assert!(text.contains(&format!("/Count {pages}")));
    }

    #[test]
    fn wrap_text_behavior() {
        assert_eq!(wrap_text("a b c", 3), vec!["a b", "c"]);
        assert_eq!(wrap_text("", 10), Vec::<String>::new());
        let hard = wrap_text("abcdefghij", 4);
        assert_eq!(hard, vec!["abcd", "efgh", "ij"]);
    }

    #[test]
    fn registry_lookup_and_shadowing() {
        let registry = EngineRegistry::with_builtins();
        assert_eq!(registry.names(), vec!["html", "image", "text", "pdf"]);
        assert!(registry.get("pdf").is_some());
        assert!(registry.get("flash").is_none());

        struct Custom;
        impl RenderEngine for Custom {
            fn name(&self) -> &str {
                "text"
            }
            fn render(&self, _html: &str) -> RenderedArtifact {
                RenderedArtifact::text("text/x-custom", "custom".into())
            }
        }
        let mut registry = EngineRegistry::with_builtins();
        registry.register(Box::new(Custom));
        let artifact = registry.get("text").unwrap().render(PAGE);
        assert_eq!(artifact.content_type, "text/x-custom");
    }

    struct FailingEngine {
        name: &'static str,
    }

    impl RenderEngine for FailingEngine {
        fn name(&self) -> &str {
            self.name
        }
        fn render(&self, _html: &str) -> RenderedArtifact {
            panic!("simulated engine crash");
        }
    }

    #[test]
    fn try_render_converts_panics_to_errors() {
        let err = FailingEngine { name: "image" }
            .try_render(PAGE)
            .unwrap_err();
        assert_eq!(err.engine, "image");
        assert!(err.message.contains("simulated engine crash"));
        assert!(err.to_string().contains("image"));
    }

    #[test]
    fn fallback_chain_orders_image_html_text() {
        let registry = EngineRegistry::with_builtins();
        assert_eq!(
            registry.fallback_chain("image"),
            vec!["image", "html", "text"]
        );
        assert_eq!(registry.fallback_chain("pdf"), vec!["pdf", "html", "text"]);
        assert_eq!(registry.fallback_chain("html"), vec!["html", "text"]);
        assert_eq!(registry.fallback_chain("text"), vec!["text", "html"]);
        assert!(registry.fallback_chain("flash").is_empty());
    }

    #[test]
    fn failing_image_engine_degrades_to_html() {
        let mut registry = EngineRegistry::with_builtins();
        registry.register(Box::new(FailingEngine { name: "image" }));
        let render = registry.render_with_fallback("image", PAGE).unwrap();
        assert_eq!(render.engine, "html");
        assert_eq!(render.artifact.content_type, "application/xhtml+xml");
        assert_eq!(render.degraded.len(), 1);
        assert_eq!(render.degraded[0].engine, "image");
    }

    #[test]
    fn fallback_exhaustion_reports_all_failures() {
        let mut registry = EngineRegistry::default();
        registry.register(Box::new(FailingEngine { name: "image" }));
        registry.register(Box::new(FailingEngine { name: "html" }));
        let failures = registry
            .render_with_fallback("image", PAGE)
            .unwrap_err()
            .expect("engine exists, chain exhausted");
        assert_eq!(failures.len(), 2);
        assert_eq!(
            registry.render_with_fallback("nope", PAGE).unwrap_err(),
            None
        );
    }

    #[test]
    fn cached_render_round_trips() {
        let registry = EngineRegistry::with_builtins();
        let render = registry.render_with_fallback("text", PAGE).unwrap();
        let cached = render.to_cached();
        let decoded = CachedRender::decode(&cached.encode()).unwrap();
        assert_eq!(decoded, cached);
        assert_eq!(decoded.engine, "text");
        assert_eq!(decoded.content_type, "text/plain; charset=utf-8");
        assert!(!decoded.degraded);
        assert_eq!(decoded.bytes, render.artifact.bytes);
    }

    #[test]
    fn cached_render_rejects_truncation() {
        let cached = CachedRender {
            engine: "html".into(),
            content_type: "text/html".into(),
            degraded: true,
            bytes: b"payload".to_vec(),
        };
        let encoded = cached.encode();
        assert_eq!(CachedRender::decode(&encoded).unwrap(), cached);
        for cut in [0, 1, 3, 7] {
            assert_eq!(CachedRender::decode(&encoded[..cut]), None, "cut at {cut}");
        }
        assert_eq!(CachedRender::decode(&[]), None);
    }

    #[test]
    fn non_ascii_degrades_not_panics() {
        let artifact = PdfEngine::default().render("<body><p>héllo wörld — ❤</p></body>");
        assert!(artifact.bytes.starts_with(b"%PDF-1.4"));
    }
}
