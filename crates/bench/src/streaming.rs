//! The PR-6 streaming + incremental experiment.
//!
//! Two claims are checked on the 12-subpage sectioned fixture:
//!
//! 1. **TTFB.** In streaming mode the entry page is emitted before any
//!    subpage is assembled, so time-to-first-byte must be strictly
//!    below the full-page batch wall time — and the concatenated entry
//!    chunks must equal the batch entry byte for byte.
//! 2. **Incremental re-adaptation.** Re-adapting the page after a
//!    single-section edit, with the fingerprint-keyed subtree cache
//!    warm, must reuse every untouched subtree and invoke strictly
//!    fewer browser renders than the cold run.

use crate::throughput::{sectioned_page, sectioned_spec, SECTIONS};
use msite::{adapt_streaming, adapt_with_report, EmitUnit, PipelineContext, SubtreeCache};
use msite_support::json::{obj, ToJson, Value};
use msite_support::telemetry::MetricsRegistry;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pool width for the sweep — wide enough that subpage work genuinely
/// overlaps, so batching (waiting for all of it) visibly delays the
/// entry bytes.
const PARALLELISM: usize = 4;

/// The streaming-delivery half of the experiment.
#[derive(Debug, Clone)]
pub struct TtfbResult {
    /// Best-of-trials wall time for one full batch adaptation.
    pub batch_wall: Duration,
    /// Best-of-trials time from pipeline start to the entry unit being
    /// handed to the sink in streaming mode.
    pub ttfb: Duration,
    /// Wall time of the streaming run the best TTFB came from.
    pub stream_wall: Duration,
    /// The concatenated entry chunks equal the batch entry page.
    pub entry_identical: bool,
}

impl TtfbResult {
    /// TTFB improvement over waiting for the whole bundle.
    pub fn speedup(&self) -> f64 {
        self.batch_wall.as_secs_f64() / self.ttfb.as_secs_f64().max(1e-9)
    }
}

/// The incremental re-adaptation half of the experiment.
#[derive(Debug, Clone)]
pub struct IncrementalResult {
    /// Browser renders in the cold (empty-cache) run.
    pub cold_renders: usize,
    /// Browser renders re-adapting after a one-section edit.
    pub incremental_renders: usize,
    /// Subtree artifacts reused from the cache in the warm run.
    pub reused: u64,
    /// Subtree artifacts recomputed in the warm run (the edited one).
    pub recomputed: u64,
    /// Wall time of the cold run.
    pub cold_wall: Duration,
    /// Wall time of the warm (incremental) run.
    pub incremental_wall: Duration,
}

/// The full PR-6 experiment result.
#[derive(Debug, Clone)]
pub struct StreamingResult {
    /// Sections (= subpages) in the fixture.
    pub sections: usize,
    /// Streaming-delivery measurements.
    pub ttfb: TtfbResult,
    /// Incremental re-adaptation measurements.
    pub incremental: IncrementalResult,
}

fn context() -> PipelineContext {
    PipelineContext {
        base: "/m/sectioned".into(),
        parallelism: PARALLELISM,
        ..PipelineContext::default()
    }
}

/// Measures batch wall time vs. streaming TTFB, best of `trials`.
pub fn run_ttfb(sections: usize, trials: usize) -> TtfbResult {
    let spec = sectioned_spec(sections);
    let page = sectioned_page(sections);
    let ctx = context();

    let mut batch_wall = Duration::MAX;
    let mut batch_entry = String::new();
    for _ in 0..trials.max(1) {
        let start = Instant::now();
        let (bundle, _) = adapt_with_report(&spec, &page, &ctx).expect("fixture adapts cleanly");
        let wall = start.elapsed();
        if wall < batch_wall {
            batch_wall = wall;
        }
        batch_entry = bundle.entry_html;
    }

    let mut ttfb = Duration::MAX;
    let mut stream_wall = Duration::MAX;
    let mut entry_identical = true;
    for _ in 0..trials.max(1) {
        let start = Instant::now();
        let mut first_unit = None;
        let mut entry_chunks = String::new();
        let mut on_unit = |unit: EmitUnit| {
            if let EmitUnit::Entry(html) = unit {
                first_unit.get_or_insert_with(|| start.elapsed());
                entry_chunks.push_str(html);
            }
        };
        adapt_streaming(&spec, &page, &ctx, &mut on_unit).expect("fixture adapts cleanly");
        let wall = start.elapsed();
        let first = first_unit.expect("streaming run emits an entry unit");
        entry_identical &= entry_chunks == batch_entry;
        if first < ttfb {
            ttfb = first;
            stream_wall = wall;
        }
    }

    TtfbResult {
        batch_wall,
        ttfb,
        stream_wall,
        entry_identical,
    }
}

/// Measures cold vs. warm re-adaptation after editing one section.
pub fn run_incremental(sections: usize) -> IncrementalResult {
    let spec = sectioned_spec(sections);
    let page = sectioned_page(sections);
    // One-section edit: every other section's subtree serializes to the
    // same bytes, so its fingerprint — and cached artifact — survive.
    let edited = page.replace("item 0.0", "item 0.0 (EDITED)");
    assert_ne!(page, edited, "fixture edit must change the page");

    let cache = Arc::new(SubtreeCache::new(sections * 2));
    let ctx = PipelineContext {
        subtree_cache: Some(Arc::clone(&cache)),
        metrics: Some(Arc::new(MetricsRegistry::new())),
        ..context()
    };

    let start = Instant::now();
    let (cold, _) = adapt_with_report(&spec, &page, &ctx).expect("fixture adapts cleanly");
    let cold_wall = start.elapsed();
    let before = cache.stats();

    let start = Instant::now();
    let (warm, _) = adapt_with_report(&spec, &edited, &ctx).expect("fixture adapts cleanly");
    let incremental_wall = start.elapsed();
    let after = cache.stats();

    IncrementalResult {
        cold_renders: cold.stats.browser_renders,
        incremental_renders: warm.stats.browser_renders,
        reused: after.hits - before.hits,
        recomputed: after.misses - before.misses,
        cold_wall,
        incremental_wall,
    }
}

/// Runs the full experiment.
pub fn run(trials: usize) -> StreamingResult {
    StreamingResult {
        sections: SECTIONS,
        ttfb: run_ttfb(SECTIONS, trials),
        incremental: run_incremental(SECTIONS),
    }
}

/// Shape assertions for the experiments binary.
pub fn check_shape(result: &StreamingResult) -> Result<(), String> {
    let t = &result.ttfb;
    if !t.entry_identical {
        return Err("streamed entry chunks diverged from the batch entry page".into());
    }
    if t.ttfb >= t.batch_wall {
        return Err(format!(
            "streaming TTFB {:?} not below batch wall {:?}",
            t.ttfb, t.batch_wall
        ));
    }
    let i = &result.incremental;
    if i.reused == 0 {
        return Err("warm run reused no subtree artifacts".into());
    }
    if i.reused + i.recomputed != result.sections as u64 {
        return Err(format!(
            "warm run accounted {} + {} subtrees, fixture has {}",
            i.reused, i.recomputed, result.sections
        ));
    }
    if i.incremental_renders >= i.cold_renders {
        return Err(format!(
            "incremental run rendered {} subpages, cold rendered {} — no savings",
            i.incremental_renders, i.cold_renders
        ));
    }
    Ok(())
}

impl ToJson for TtfbResult {
    fn to_json_value(&self) -> Value {
        obj([
            (
                "batch_wall_s",
                self.batch_wall.as_secs_f64().to_json_value(),
            ),
            ("ttfb_s", self.ttfb.as_secs_f64().to_json_value()),
            (
                "stream_wall_s",
                self.stream_wall.as_secs_f64().to_json_value(),
            ),
            ("speedup", self.speedup().to_json_value()),
            ("entry_identical", self.entry_identical.to_json_value()),
        ])
    }
}

impl ToJson for IncrementalResult {
    fn to_json_value(&self) -> Value {
        obj([
            ("cold_renders", self.cold_renders.to_json_value()),
            (
                "incremental_renders",
                self.incremental_renders.to_json_value(),
            ),
            ("reused", self.reused.to_json_value()),
            ("recomputed", self.recomputed.to_json_value()),
            ("cold_wall_s", self.cold_wall.as_secs_f64().to_json_value()),
            (
                "incremental_wall_s",
                self.incremental_wall.as_secs_f64().to_json_value(),
            ),
        ])
    }
}

impl ToJson for StreamingResult {
    fn to_json_value(&self) -> Value {
        obj([
            ("sections", self.sections.to_json_value()),
            ("ttfb", self.ttfb.to_json_value()),
            ("incremental", self.incremental.to_json_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_run_reuses_all_but_the_edited_section() {
        let result = run_incremental(4);
        assert_eq!(result.reused, 3, "{result:?}");
        assert_eq!(result.recomputed, 1, "{result:?}");
        assert!(
            result.incremental_renders < result.cold_renders,
            "{result:?}"
        );
    }

    #[test]
    fn streaming_entry_matches_batch() {
        let result = run_ttfb(4, 1);
        assert!(result.entry_identical, "{result:?}");
        assert!(result.ttfb <= result.stream_wall);
    }
}
