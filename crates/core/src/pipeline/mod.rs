//! The adaptation pipeline: fetch → filters → tidy/DOM → attributes →
//! emission → rendering (§3.2, Figure 3).
//!
//! Given an [`AdaptationSpec`] and a fetched page, [`adapt`] produces an
//! [`AdaptedBundle`]: the entry page, the generated subpages, every
//! rendered image, and the AJAX action registry. The proxy writes these
//! into per-user session directories and shared caches.
//! [`adapt_with_report`] additionally returns a [`PipelineReport`] with
//! per-stage wall-clock timings and artifact counts.
//!
//! The phases honor the paper's cost structure: if a spec contains only
//! source filters (and no snapshot), the page is adapted *without any
//! DOM parse*; the heavyweight browser is instantiated only when a
//! snapshot or pre-render attribute demands graphical output. Browser
//! time is accounted to a dedicated render stage, not to the phase that
//! happened to trigger it.

mod attrs;
mod dom;
mod edit;
mod emit;
mod fetch;
mod filter;
mod render;
mod stage;
#[cfg(test)]
mod tests;

pub use stage::{PipelineReport, StageKind, StageReport};

use crate::ajax::AjaxRegistry;
use crate::attributes::AdaptationSpec;
use crate::search::SearchIndex;
use attrs::AttributeStage;
use dom::DomStage;
use fetch::FetchStage;
use filter::FilterStage;
use msite_render::browser::BrowserConfig;
use msite_support::telemetry::Trace;
use stage::{PipelineState, Stage};
use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

/// Pipeline failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdaptError {
    /// A rule's selector or XPath failed to parse.
    InvalidTarget {
        /// The offending target text.
        target: String,
        /// Parser message.
        message: String,
    },
    /// A `copy-to`/`move-to` referenced a subpage never declared.
    UnknownSubpage {
        /// The missing subpage id.
        id: String,
    },
}

impl fmt::Display for AdaptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdaptError::InvalidTarget { target, message } => {
                write!(f, "invalid target `{target}`: {message}")
            }
            AdaptError::UnknownSubpage { id } => write!(f, "unknown subpage `{id}`"),
        }
    }
}

impl Error for AdaptError {}

/// A generated HTML artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedFile {
    /// File name (e.g. `login.html`).
    pub name: String,
    /// Contents.
    pub html: String,
}

/// A generated image artifact.
#[derive(Debug, Clone)]
pub struct GeneratedImage {
    /// File name (e.g. `snapshot.png`).
    pub name: String,
    /// Encoded bytes (PNG).
    pub bytes: Vec<u8>,
    /// Bytes this artifact occupies on the wire (JPEG-class artifacts
    /// model their size; see `msite-render::image`).
    pub wire_size: usize,
    /// Pixel width.
    pub width: u32,
    /// Pixel height.
    pub height: u32,
    /// Shared-cache TTL; `None` = per-user artifact.
    pub cache_ttl: Option<Duration>,
}

/// Counters from one pipeline run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Source filters applied.
    pub filters_applied: usize,
    /// Whether a DOM parse was needed at all.
    pub dom_parsed: bool,
    /// Rules whose target matched at least one node.
    pub rules_matched: usize,
    /// Total nodes affected by attributes.
    pub nodes_affected: usize,
    /// Images produced by pre-rendering.
    pub images_rendered: usize,
    /// Whether a browser instance was used.
    pub browser_used: bool,
    /// Individual browser render invocations (snapshot plus pre-render
    /// passes) — the work the shared render cache amortizes.
    pub browser_renders: usize,
    /// Browser renders that degraded to a placeholder after a failure.
    pub renders_degraded: usize,
}

/// Everything one adaptation run produces.
#[derive(Debug, Clone)]
pub struct AdaptedBundle {
    /// The entry page served to the mobile client.
    pub entry_html: String,
    /// Generated subpages.
    pub subpages: Vec<GeneratedFile>,
    /// Generated images (snapshot + pre-rendered objects).
    pub images: Vec<GeneratedImage>,
    /// AJAX actions the proxy must satisfy.
    pub ajax: AjaxRegistry,
    /// Search index when the `searchable` attribute was present.
    pub search: Option<SearchIndex>,
    /// Run statistics.
    pub stats: PipelineStats,
    /// True when a dock-cookies rule asked for a clear-cookies entry
    /// point (the logout-button replacement).
    pub wants_cookie_clear: bool,
}

/// Deterministic schedule-exploration hook for the fan-out stages: a
/// per-task pseudo-random start delay in `[0, max)` derived from
/// `seed` and the task index. Sweeping the seed drives different
/// thread interleavings through the parallel emit/render paths; the
/// determinism suite uses it to assert the output stays byte-identical
/// under 24 distinct schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleStagger {
    /// Seed the per-task delays derive from.
    pub seed: u64,
    /// Upper bound on the injected delay.
    pub max: Duration,
}

/// Pipeline context: where artifacts will be served from and how wide
/// the intra-request fan-out runs.
#[derive(Debug, Clone)]
pub struct PipelineContext {
    /// URL prefix the proxy serves this page under, e.g. `/m/forum`.
    pub base: String,
    /// Browser configuration for renders.
    pub browser_config: BrowserConfig,
    /// Worker-crew width for the fan-out stages (subpage assembly,
    /// image pre-renders, imagemap geometry). `1` runs everything
    /// serially; the output is byte-identical either way. Defaults to
    /// [`msite_support::thread::default_parallelism`].
    pub parallelism: usize,
    /// Schedule-exploration test hook; `None` (the default) injects no
    /// delays.
    pub schedule_stagger: Option<ScheduleStagger>,
    /// The request trace this run belongs to. When set, every executed
    /// stage (and the render pseudo-stage) records a timed
    /// `stage.<name>` span with artifact counts into the trace's log,
    /// and every encoded image records one span per image layer
    /// (`render.layout`, `render.raster`, `image.scale`,
    /// `image.encode`).
    pub trace: Option<Trace>,
    /// The fingerprint-keyed subtree tier backing incremental
    /// re-adaptation. When set, the emit stage looks every subpage's
    /// content fingerprint up here before assembling (and, for
    /// pre-rendered subpages, re-rendering) it, and stores what it
    /// builds for the next run. `None` (the default) recomputes
    /// everything — the behavior standalone pipeline runs keep.
    pub subtree_cache: Option<std::sync::Arc<crate::cache::SubtreeCache>>,
    /// Registry the run counts its browser renders, the bytes its stages
    /// tokenize, its PNG encodes and its image layers' times into as
    /// they happen (`msite_browser_renders_total`,
    /// `msite_tokenizer_bytes_total`, `msite_png_encodes_total`,
    /// `msite_png_encode_micros`, `msite_layer_micros{layer}`). `None`
    /// counts nothing.
    pub metrics: Option<std::sync::Arc<msite_support::telemetry::MetricsRegistry>>,
    /// Resolved bandwidth class for `fidelity-tier auto` attributes
    /// (the proxy resolves it per request from the client's header or
    /// User-Agent). `None` falls back to the attribute's pinned tier,
    /// or WiFi caps when the attribute is auto too.
    pub fidelity: Option<msite_net::BandwidthClass>,
}

impl Default for PipelineContext {
    fn default() -> Self {
        PipelineContext {
            base: "/m/page".to_string(),
            browser_config: BrowserConfig::default(),
            parallelism: msite_support::thread::default_parallelism(),
            schedule_stagger: None,
            trace: None,
            subtree_cache: None,
            metrics: None,
            fidelity: None,
        }
    }
}

/// Runs the full pipeline.
///
/// # Errors
///
/// Returns [`AdaptError`] for malformed targets or dangling subpage
/// references. Origin-level failures are the proxy's concern, not the
/// pipeline's.
pub fn adapt(
    spec: &AdaptationSpec,
    page_html: &str,
    ctx: &PipelineContext,
) -> Result<AdaptedBundle, AdaptError> {
    adapt_with_report(spec, page_html, ctx).map(|(bundle, _)| bundle)
}

/// Runs the full pipeline and reports per-stage timings and artifact
/// counts alongside the bundle.
///
/// # Errors
///
/// Same failure modes as [`adapt`].
pub fn adapt_with_report(
    spec: &AdaptationSpec,
    page_html: &str,
    ctx: &PipelineContext,
) -> Result<(AdaptedBundle, PipelineReport), AdaptError> {
    drive(spec, page_html, ctx, &mut |_| {})
}

/// One unit of finished work from a streaming adaptation run
/// ([`adapt_streaming`]), handed over the moment it is complete. Units
/// borrow the run's artifacts; a sink that needs one past the call
/// copies it.
#[derive(Debug, Clone, Copy)]
pub enum EmitUnit<'a> {
    /// The entry page HTML — always the *first* unit, emitted before
    /// any subpage is assembled, so a progressive transport can flush
    /// it while subpage workers are still running.
    Entry(&'a str),
    /// One finished subpage file, in worker-completion order.
    Subpage(&'a GeneratedFile),
    /// One finished image: the ones the entry page references (the
    /// snapshot and the attribute stage's renders) right after the
    /// entry, subpage pre-renders in completion order.
    Image(&'a GeneratedImage),
}

/// Runs the full pipeline, handing every finished artifact to `on_unit`
/// as a unit of work the moment it completes: the entry page first,
/// then subpages and images as the parallel emit workers finish them.
///
/// This is the same run as [`adapt_with_report`], which passes a sink
/// that ignores every unit, so the returned bundle and report are the
/// batch ones.
///
/// # Errors
///
/// Same failure modes as [`adapt`].
pub fn adapt_streaming(
    spec: &AdaptationSpec,
    page_html: &str,
    ctx: &PipelineContext,
    on_unit: &mut (dyn FnMut(EmitUnit<'_>) + Send),
) -> Result<(AdaptedBundle, PipelineReport), AdaptError> {
    drive(spec, page_html, ctx, on_unit)
}

/// The stage driver: runs fetch → filter → dom → attributes → emit
/// (handing the emit stage's units to `on_unit`), then accounts the
/// render pseudo-stage.
fn drive(
    spec: &AdaptationSpec,
    page_html: &str,
    ctx: &PipelineContext,
    on_unit: &mut (dyn FnMut(EmitUnit<'_>) + Send),
) -> Result<(AdaptedBundle, PipelineReport), AdaptError> {
    let mut state = PipelineState::new(spec, page_html, ctx);
    let mut report = PipelineReport::default();
    let stages: [&dyn Stage; 4] = [&FetchStage, &FilterStage, &DomStage, &AttributeStage];
    for stage in stages {
        if state.filter_only() && matches!(stage.kind(), StageKind::Dom | StageKind::Attributes) {
            continue;
        }
        run_timed(&mut state, &mut report, ctx, stage.kind(), |s| stage.run(s))?;
    }
    run_timed(&mut state, &mut report, ctx, StageKind::Emit, |s| {
        emit::run(s, on_unit)
    })?;
    if state.renderer.used() {
        let stage_report = StageReport {
            kind: StageKind::Render,
            elapsed: state.renderer.total().max(Duration::from_nanos(1)),
            artifacts: state.stats.images_rendered,
        };
        record_stage_span(ctx, &stage_report, Instant::now());
        report.stages.push(stage_report);
    }
    report.degradations = state.renderer.degradations();
    Ok((state.into_bundle(), report))
}

/// Times one stage body and records its report entry and trace span.
fn run_timed(
    state: &mut PipelineState<'_>,
    report: &mut PipelineReport,
    ctx: &PipelineContext,
    kind: StageKind,
    body: impl FnOnce(&mut PipelineState<'_>) -> Result<stage::StageOutcome, AdaptError>,
) -> Result<(), AdaptError> {
    let render_before = state.renderer.total();
    let start = Instant::now();
    let outcome = body(state)?;
    let elapsed = start.elapsed();
    // Browser time triggered inside the stage is the render stage's
    // line item; clamp so every executed stage keeps a nonzero entry
    // even at coarse clock granularity.
    let render_delta = state.renderer.total().saturating_sub(render_before);
    let stage_report = StageReport {
        kind,
        elapsed: elapsed
            .saturating_sub(render_delta)
            .max(Duration::from_nanos(1)),
        artifacts: outcome.artifacts,
    };
    record_stage_span(ctx, &stage_report, start);
    report.stages.push(stage_report);
    Ok(())
}

/// Record one `stage.<name>` span on the context's trace (no-op when
/// the run is untraced). `started` anchors the span on the trace-log
/// timeline; the duration is the stage report's browser-adjusted
/// elapsed time.
fn record_stage_span(ctx: &PipelineContext, stage: &StageReport, started: Instant) {
    let Some(trace) = &ctx.trace else {
        return;
    };
    trace.log().record_raw(
        trace.id(),
        &format!("stage.{}", stage.kind.name()),
        started,
        stage.elapsed,
        vec![("artifacts".to_string(), stage.artifacts.to_string())],
    );
}
