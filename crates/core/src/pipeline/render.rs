//! Render support: the lazily launched server-side browser and the
//! partial-CSS pre-render recipe. The [`Renderer`] accumulates the time
//! spent inside the browser so the driver can attribute it to the
//! dedicated render stage instead of whichever phase triggered it.
//!
//! A render is two calls. [`Renderer::render`] lays the page out into a
//! [`LaidOutPage`] (document, layout tree, display list); geometry
//! queries need nothing more. [`Renderer::encode`] then rasters that
//! display list in bands straight through crop, downscale, quantize and
//! the PNG encoder, so no stage holds a page-sized pixel buffer.

use super::edit::standalone_object_page;
use super::GeneratedImage;
use msite_html::{Document, NodeId};
use msite_render::browser::{Browser, BrowserConfig};
use msite_render::image::{EncodedImage, ImageFormat, PostProcess};
use msite_render::LaidOutPage;
use msite_support::sync::Mutex;
use msite_support::telemetry::{MetricsRegistry, Trace, LATENCY_MICROS_BOUNDS};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Shared browser handle for snapshot and pre-render work. Launching is
/// deferred until the first render — the scalability win of the paper
/// comes from most requests never reaching this point.
///
/// All accounting is interior-mutable so the emit stage can fan
/// pre-renders out across threads against one `&Renderer`: the browser
/// launches exactly once (concurrent first renders rendezvous on the
/// launch), and [`Browser::lay_out`] itself takes `&self`.
pub(crate) struct Renderer {
    config: Mutex<BrowserConfig>,
    browser: OnceLock<Browser>,
    /// Busy nanoseconds: per-render durations summed, so overlapping
    /// parallel renders each contribute their full time. The driver
    /// reports this as the render stage's line item.
    spent_nanos: AtomicU64,
    renders: AtomicUsize,
    degradations: Mutex<Vec<String>>,
    /// The run's [`PipelineContext::metrics`](super::PipelineContext):
    /// renders, the HTML bytes the browser tokenizes, PNG encodes and
    /// the image layers' `msite_layer_micros` are counted here as they
    /// happen.
    metrics: Option<Arc<MetricsRegistry>>,
    /// The run's trace: each image layer also records a span here.
    trace: Option<Trace>,
}

impl Renderer {
    pub(crate) fn new(
        config: BrowserConfig,
        metrics: Option<Arc<MetricsRegistry>>,
        trace: Option<Trace>,
    ) -> Renderer {
        Renderer {
            config: Mutex::new(config),
            browser: OnceLock::new(),
            spent_nanos: AtomicU64::new(0),
            renders: AtomicUsize::new(0),
            degradations: Mutex::new(Vec::new()),
            metrics,
            trace,
        }
    }

    /// True once a browser has been launched.
    pub(crate) fn used(&self) -> bool {
        self.browser.get().is_some()
    }

    /// Individual browser render invocations so far (snapshot plus
    /// pre-render passes) — the unit the render cache's single-flight
    /// layer deduplicates across concurrent users.
    pub(crate) fn renders(&self) -> usize {
        self.renders.load(Ordering::Relaxed)
    }

    /// Adds `n` to the run's counter `name`; no-op without a registry.
    pub(crate) fn count(&self, name: &str, n: u64) {
        if let Some(metrics) = &self.metrics {
            metrics.counter(name, &[]).add(n);
        }
    }

    /// Records one image layer's time: a `msite_layer_micros{layer}`
    /// observation and a span on the run's trace.
    fn layer(&self, layer: &str, started: Instant, elapsed: Duration) {
        if let Some(metrics) = &self.metrics {
            metrics
                .histogram(
                    "msite_layer_micros",
                    &[("layer", layer)],
                    LATENCY_MICROS_BOUNDS,
                )
                .observe(elapsed.as_micros() as u64);
        }
        if let Some(trace) = &self.trace {
            trace
                .log()
                .record_raw(trace.id(), layer, started, elapsed, Vec::new());
        }
    }

    /// Rasters a laid-out page band by band through crop, downscale,
    /// quantize and the PNG encoder. Raster time counts as browser
    /// time, like the layout; each layer's time, summed over the bands,
    /// is recorded once per image (`render.raster`, `image.scale`,
    /// `image.encode`), and the encode is counted. The layers take
    /// turns band by band, so their spans are laid end to end from the
    /// start of the encode, each as long as the layer's summed time.
    pub(crate) fn encode(&self, page: &LaidOutPage, spec: &PostProcess) -> EncodedImage {
        let mut started = Instant::now();
        let image = page.encode(spec);
        self.spent_nanos
            .fetch_add(image.raster_time.as_nanos() as u64, Ordering::Relaxed);
        for (layer, elapsed) in [
            ("render.raster", image.raster_time),
            ("image.scale", image.scale_time),
            ("image.encode", image.encode_time),
        ] {
            self.layer(layer, started, elapsed);
            started += elapsed;
        }
        self.count("msite_png_encodes_total", 1);
        self.count(
            "msite_png_encode_micros",
            image.encode_time.as_micros() as u64,
        );
        image
    }

    /// Total browser-busy time so far: launch plus the sum of
    /// individual render durations (under parallel pre-rendering this
    /// exceeds the wall-clock time the renders occupied).
    pub(crate) fn total(&self) -> Duration {
        Duration::from_nanos(self.spent_nanos.load(Ordering::Relaxed))
    }

    /// Renders that had to fall back to a placeholder page because the
    /// browser failed on the real input. Reported in the pipeline report
    /// so degraded snapshots are visible, not silent. Order follows
    /// failure-completion order, which under parallel pre-rendering is
    /// not deterministic.
    pub(crate) fn degradations(&self) -> Vec<String> {
        self.degradations.lock().clone()
    }

    /// Lays a page out, launching the browser on first use; one browser
    /// render, recorded as the `render.layout` layer. A browser failure
    /// (panic) on the page degrades to an empty placeholder document —
    /// a blank snapshot beats a lost request — and is recorded in
    /// [`Self::degradations`].
    pub(crate) fn render(&self, html: &str) -> LaidOutPage {
        let start = Instant::now();
        self.renders.fetch_add(1, Ordering::Relaxed);
        self.count("msite_browser_renders_total", 1);
        self.count("msite_tokenizer_bytes_total", html.len() as u64);
        let browser = self
            .browser
            .get_or_init(|| Browser::launch(self.config.lock().clone()));
        let result = match catch_unwind(AssertUnwindSafe(|| browser.lay_out(html, &[]))) {
            Ok(result) => result,
            Err(panic) => {
                let message = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "browser panicked".to_string());
                self.degradations
                    .lock()
                    .push(format!("browser render degraded to blank page: {message}"));
                // The placeholder must render; if even that panics the
                // browser itself is broken and the failure propagates.
                match catch_unwind(AssertUnwindSafe(|| {
                    browser.lay_out("<html><body></body></html>", &[])
                })) {
                    Ok(result) => result,
                    Err(panic) => resume_unwind(panic),
                }
            }
        };
        let elapsed = start.elapsed();
        self.spent_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.layer("render.layout", start, elapsed);
        result
    }

    /// Renders a page; when this launches the browser, the launch uses
    /// the given viewport width (the snapshot render leads, so the
    /// shared browser inherits the snapshot viewport).
    pub(crate) fn render_with_viewport(&self, html: &str, viewport_width: u32) -> LaidOutPage {
        if self.browser.get().is_none() {
            self.config.lock().viewport_width = viewport_width;
        }
        self.render(html)
    }
}

impl GeneratedImage {
    /// An encoded image served under `name`.
    pub(crate) fn encoded(
        name: String,
        image: EncodedImage,
        cache_ttl: Option<Duration>,
    ) -> GeneratedImage {
        GeneratedImage {
            name,
            wire_size: image.wire_size,
            width: image.width,
            height: image.height,
            bytes: image.encoded,
            cache_ttl,
        }
    }
}

pub(crate) struct PartialArtifact {
    pub(crate) image: GeneratedImage,
    pub(crate) html: String,
}

/// Partial CSS pre-rendering (§3.3): render the object with its text
/// replaced by stretched placeholders, ship the raster as a background,
/// and emit absolutely positioned client-side text at the recorded
/// coordinates.
pub(crate) fn partial_css_prerender(
    doc: &Document,
    node: NodeId,
    renderer: &Renderer,
    scale: f32,
    base: &str,
    image_name: &str,
) -> PartialArtifact {
    // Build a blanked copy: text nodes replaced by 1px-high placeholders
    // that preserve width (here: non-breaking figure space runs).
    let mut scratch = Document::new();
    let root = scratch.root();
    let copy = scratch.import_subtree(doc, node);
    scratch.append_child(root, copy);
    let text_nodes: Vec<NodeId> = scratch
        .descendants(root)
        .filter(|&n| scratch.data(n).as_text().is_some())
        .collect();
    let mut original_texts = Vec::new();
    for t in text_nodes {
        if let Some(text) = scratch.data(t).as_text() {
            if !text.trim().is_empty() {
                original_texts.push(text.to_string());
                let blank: String = text
                    .chars()
                    .map(|c| if c.is_whitespace() { c } else { '\u{2007}' })
                    .collect();
                if let msite_html::NodeData::Text(slot) = scratch.data_mut(t) {
                    *slot = blank;
                }
            }
        }
    }
    let blanked_html = standalone_object_page(&scratch, copy);
    let blanked = renderer.render(&blanked_html);
    let image = renderer.encode(
        &blanked,
        &PostProcess {
            scale: Some(scale),
            format: ImageFormat::Png,
            ..Default::default()
        },
    );

    // Text positions come from laying out the *original* object; that
    // page is never rastered.
    let original_html = standalone_object_page(doc, node);
    let with_text = renderer.render(&original_html);
    let mut spans = String::new();
    for (word, rect) in with_text.layout.word_positions() {
        let r = rect.scaled(scale);
        spans.push_str(&format!(
            "<span style=\"position:absolute;left:{}px;top:{}px;font-size:{}px\">{}</span>",
            r.x.round(),
            r.y.round(),
            (r.h.round() as i64).max(6),
            msite_html::entities::encode_text(&word)
        ));
    }
    let html = format!(
        "<div class=\"msite-partial\" style=\"position:relative;width:{}px;height:{}px;\
         background-image:url('{}/img/{}')\">{}</div>",
        image.width, image.height, base, image_name, spans
    );
    PartialArtifact {
        image: GeneratedImage::encoded(image_name.to_string(), image, None),
        html,
    }
}
