//! The [`Stage`] abstraction: the pipeline as an ordered list of
//! instrumented phases, each reporting wall-clock time and artifact
//! counts into a [`PipelineReport`].

use super::render::Renderer;
use super::{
    AdaptError, AdaptedBundle, GeneratedFile, GeneratedImage, PipelineContext, PipelineStats,
};
use crate::ajax::AjaxRegistry;
use crate::attributes::AdaptationSpec;
use crate::search::SearchIndex;
use msite_html::Document;
use msite_render::LaidOutPage;
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// Identifies one pipeline phase (§3.2, Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageKind {
    /// Source intake: the fetched page enters the pipeline.
    Fetch,
    /// Source-level filters, applied without a DOM.
    Filter,
    /// Tidy + DOM parse, subpage declaration, snapshot capture.
    Dom,
    /// Attribute application over resolved targets.
    Attributes,
    /// Artifact assembly: subpages and the entry page.
    Emit,
    /// Server-side browser work (snapshot and pre-renders), accumulated
    /// across the whole run rather than tied to one phase.
    Render,
}

impl StageKind {
    /// Stable lower-case name, used in logs and serialized reports.
    pub fn name(&self) -> &'static str {
        match self {
            StageKind::Fetch => "fetch",
            StageKind::Filter => "filter",
            StageKind::Dom => "dom",
            StageKind::Attributes => "attributes",
            StageKind::Emit => "emit",
            StageKind::Render => "render",
        }
    }
}

impl fmt::Display for StageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Timing and artifact record for one executed stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageReport {
    /// Which phase this entry describes.
    pub kind: StageKind,
    /// Wall-clock time attributed to the phase. Browser time triggered
    /// by a phase is subtracted and shows up under [`StageKind::Render`]
    /// instead; always nonzero for an executed stage.
    pub elapsed: Duration,
    /// Artifacts the phase produced (documents, filters applied, nodes
    /// affected, files emitted, images rendered).
    pub artifacts: usize,
}

/// Per-stage wall-clock timings and artifact counts for one
/// [`adapt_with_report`](super::adapt_with_report) run. Stages that did
/// not execute (the DOM phases on a filter-only spec, the render stage
/// when no browser was needed) have no entry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineReport {
    /// Executed stages in pipeline order.
    pub stages: Vec<StageReport>,
    /// Human-readable notes about renders that degraded (e.g. a browser
    /// failure replaced by a blank placeholder). Empty on clean runs.
    pub degradations: Vec<String>,
    /// Concurrent proxy requests that were answered by this run's
    /// output through the render cache's single-flight layer. Filled in
    /// by the proxy when it leads a shared render; zero for standalone
    /// pipeline runs.
    pub coalesced_waiters: u64,
}

impl PipelineReport {
    /// The report entry for a phase, when it executed.
    pub fn stage(&self, kind: StageKind) -> Option<&StageReport> {
        self.stages.iter().find(|s| s.kind == kind)
    }

    /// True when the phase executed in this run.
    pub fn executed(&self, kind: StageKind) -> bool {
        self.stage(kind).is_some()
    }

    /// Total wall-clock time across all stages.
    pub fn total(&self) -> Duration {
        self.stages.iter().map(|s| s.elapsed).sum()
    }
}

/// What a stage tells the driver it produced.
pub(crate) struct StageOutcome {
    pub(crate) artifacts: usize,
}

/// One instrumented pipeline phase. The driver times each `run` call
/// and records the outcome; stages communicate through
/// [`PipelineState`].
pub(crate) trait Stage {
    /// The phase this stage implements.
    fn kind(&self) -> StageKind;

    /// Executes the phase against the accumulated state.
    fn run(&self, state: &mut PipelineState<'_>) -> Result<StageOutcome, AdaptError>;
}

/// Runs `tasks` indexed tasks across the context's worker-crew width
/// with deterministic result ordering. `parallelism <= 1` is a serial
/// loop — the reference the parallel path must match byte-for-byte. A
/// panic inside a task is re-raised here after all tasks finish,
/// matching the serial path's propagation.
pub(crate) fn fan<T, F>(ctx: &PipelineContext, tasks: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let stagger = ctx.schedule_stagger.unwrap_or(super::ScheduleStagger {
        seed: 0,
        max: Duration::ZERO,
    });
    msite_support::thread::scope_fan_out_staggered(
        ctx.parallelism,
        tasks,
        stagger.seed,
        stagger.max,
        work,
    )
    .into_iter()
    .map(|result| match result {
        Ok(value) => value,
        Err(panic) => panic!("{panic}"),
    })
    .collect()
}

/// A subpage being accumulated across the attribute phase.
pub(crate) struct SubpageBuilder {
    pub(crate) id: String,
    pub(crate) title: String,
    pub(crate) ajax: bool,
    pub(crate) prerender: bool,
    pub(crate) head_html: String,
    pub(crate) top_html: String,
    pub(crate) body_html: String,
    pub(crate) bottom_html: String,
    pub(crate) scripts: Vec<String>,
    pub(crate) http_auth: bool,
    /// Running FNV-1a mix of the *source* subtree fingerprints that
    /// contributed content to this subpage (see
    /// `msite_html::fingerprint`). Part of the emit stage's subtree
    /// cache key, so a change anywhere in a contributing source subtree
    /// invalidates the cached artifact even before the assembled
    /// fragments are compared.
    pub(crate) fingerprint: u64,
}

impl SubpageBuilder {
    pub(crate) fn new(id: &str, title: &str, ajax: bool, prerender: bool) -> SubpageBuilder {
        SubpageBuilder {
            id: id.to_string(),
            title: title.to_string(),
            ajax,
            prerender,
            head_html: String::new(),
            top_html: String::new(),
            body_html: String::new(),
            bottom_html: String::new(),
            scripts: Vec::new(),
            http_auth: false,
            fingerprint: msite_html::fingerprint::FNV_OFFSET,
        }
    }

    /// Mixes a contributing source subtree's fingerprint into this
    /// builder's running fingerprint.
    pub(crate) fn mix_fingerprint(&mut self, subtree: Option<u64>) {
        if let Some(fp) = subtree {
            self.fingerprint =
                msite_html::fingerprint::fnv1a_continue(self.fingerprint, &fp.to_le_bytes());
        }
    }
}

/// Accumulating state threaded through the stages in order.
pub(crate) struct PipelineState<'a> {
    pub(crate) spec: &'a AdaptationSpec,
    pub(crate) ctx: &'a PipelineContext,
    /// The fetched page as handed to the pipeline.
    pub(crate) raw: &'a str,
    /// The working source text (fetch output, then filter output).
    pub(crate) source: String,
    /// The parsed document; `None` until the DOM stage runs.
    pub(crate) doc: Option<Document>,
    /// FNV-1a of the filtered source text, recorded by the filter stage
    /// (the whole-page fast path for incremental re-adaptation: equal
    /// source fingerprints mean every downstream artifact is reusable).
    pub(crate) source_fingerprint: u64,
    /// Per-subtree fingerprints of the tidied parse, computed by the
    /// DOM stage before any attribute mutates the tree.
    pub(crate) fingerprints: Option<msite_html::fingerprint::FingerprintMap>,
    /// Per-subtree content metrics of the tidied parse (same walk as
    /// the fingerprints), computed only when the spec carries a
    /// content-aware attribute.
    pub(crate) content_metrics: Option<msite_html::MetricsMap>,
    pub(crate) subpages: BTreeMap<String, SubpageBuilder>,
    pub(crate) images: Vec<GeneratedImage>,
    pub(crate) registry: AjaxRegistry,
    pub(crate) stats: PipelineStats,
    pub(crate) wants_cookie_clear: bool,
    pub(crate) searchable: bool,
    pub(crate) renderer: Renderer,
    pub(crate) snapshot_render: Option<LaidOutPage>,
    pub(crate) subpage_files: Vec<GeneratedFile>,
    pub(crate) entry_html: String,
    pub(crate) search_index: Option<SearchIndex>,
    pub(crate) obj_counter: usize,
}

impl<'a> PipelineState<'a> {
    pub(crate) fn new(
        spec: &'a AdaptationSpec,
        page_html: &'a str,
        ctx: &'a PipelineContext,
    ) -> PipelineState<'a> {
        PipelineState {
            spec,
            ctx,
            raw: page_html,
            source: String::new(),
            doc: None,
            source_fingerprint: msite_html::fingerprint::FNV_OFFSET,
            fingerprints: None,
            content_metrics: None,
            subpages: BTreeMap::new(),
            images: Vec::new(),
            registry: AjaxRegistry::new(),
            stats: PipelineStats::default(),
            wants_cookie_clear: false,
            searchable: false,
            renderer: Renderer::new(
                ctx.browser_config.clone(),
                ctx.metrics.clone(),
                ctx.trace.clone(),
            ),
            snapshot_render: None,
            subpage_files: Vec::new(),
            entry_html: String::new(),
            search_index: None,
            obj_counter: 0,
        }
    }

    /// The paper's cheap path: a spec with only source filters (no rules,
    /// no snapshot) is adapted without any DOM parse, so the DOM and
    /// attribute stages are skipped entirely.
    pub(crate) fn filter_only(&self) -> bool {
        self.spec.rules.is_empty() && self.spec.snapshot.is_none()
    }

    pub(crate) fn into_bundle(mut self) -> AdaptedBundle {
        self.stats.browser_used = self.renderer.used();
        self.stats.browser_renders = self.renderer.renders();
        self.stats.renders_degraded = self.renderer.degradations().len();
        AdaptedBundle {
            entry_html: self.entry_html,
            subpages: self.subpage_files,
            images: self.images,
            ajax: self.registry,
            search: self.search_index,
            stats: self.stats,
            wants_cookie_clear: self.wants_cookie_clear,
        }
    }
}
