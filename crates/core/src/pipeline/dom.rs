//! DOM stage: tidy + parse, subpage declaration and validation, and the
//! snapshot capture of the filtered original page. Also home of target
//! resolution (§3.2 "Object identification").

use super::stage::{PipelineState, Stage, StageKind, StageOutcome, SubpageBuilder};
use super::AdaptError;
use crate::attributes::{Attribute, Target};
use msite_html::{tidy, Document, NodeId};
use msite_selectors::{SelectorList, XPath};

/// Parses the filtered source into a tidied DOM and prepares the
/// structures later stages mutate.
pub(crate) struct DomStage;

impl Stage for DomStage {
    fn kind(&self) -> StageKind {
        StageKind::Dom
    }

    fn run(&self, state: &mut PipelineState<'_>) -> Result<StageOutcome, AdaptError> {
        state.stats.dom_parsed = true;
        state
            .renderer
            .count("msite_tokenizer_bytes_total", state.source.len() as u64);
        let doc = tidy::tidy(&state.source);
        // Fingerprint and/or measure every subtree of the clean parse
        // *before* the attribute stage mutates the tree: fingerprints
        // are the stable content identities the emit stage's subtree
        // cache keys mix in; metrics feed the content-aware attributes.
        // Both ride one serialization walk; specs that need neither pay
        // nothing.
        let want_fingerprints = state.ctx.subtree_cache.is_some();
        let want_metrics = state.spec.wants_content_metrics();
        match (want_fingerprints, want_metrics) {
            (true, true) => {
                let (fingerprints, metrics) = msite_html::fingerprint_and_measure(&doc);
                state.fingerprints = Some(fingerprints);
                state.content_metrics = Some(metrics);
            }
            (true, false) => {
                state.fingerprints = Some(msite_html::fingerprint::fingerprint_map(&doc));
            }
            (false, true) => state.content_metrics = Some(msite_html::measure(&doc)),
            (false, false) => {}
        }
        state.doc = Some(doc);

        // Subpage declarations first, so copy-to/move-to can validate.
        for rule in &state.spec.rules {
            for attr in &rule.attributes {
                if let Attribute::Subpage {
                    id,
                    title,
                    ajax,
                    prerender,
                } = attr
                {
                    state
                        .subpages
                        .entry(id.clone())
                        .or_insert_with(|| SubpageBuilder::new(id, title, *ajax, *prerender));
                }
            }
        }
        for rule in &state.spec.rules {
            for attr in &rule.attributes {
                let referenced = match attr {
                    Attribute::CopyTo { subpage, .. } | Attribute::MoveTo { subpage, .. } => {
                        Some(subpage)
                    }
                    _ => None,
                };
                if let Some(id) = referenced {
                    if !state.subpages.contains_key(id) {
                        return Err(AdaptError::UnknownSubpage { id: id.clone() });
                    }
                }
            }
        }

        // Snapshot render happens against the *filtered original* page so
        // the user sees the familiar screen, with geometry captured per
        // target. It leads all renders, so the shared browser inherits
        // the snapshot viewport.
        if let Some(snap) = &state.spec.snapshot {
            let source = &state.source;
            state.snapshot_render = Some(
                state
                    .renderer
                    .render_with_viewport(source, snap.viewport_width),
            );
        }
        Ok(StageOutcome { artifacts: 1 })
    }
}

pub(crate) fn resolve_target(doc: &Document, target: &Target) -> Result<Vec<NodeId>, AdaptError> {
    match target {
        Target::Css(selector) => {
            let list = SelectorList::parse(selector).map_err(|e| AdaptError::InvalidTarget {
                target: selector.clone(),
                message: e.to_string(),
            })?;
            Ok(list.select(doc, doc.root()))
        }
        Target::XPath(expr) => {
            let path = XPath::parse(expr).map_err(|e| AdaptError::InvalidTarget {
                target: expr.clone(),
                message: e.to_string(),
            })?;
            Ok(path.evaluate(doc, doc.root()))
        }
        Target::Dock(_) => Ok(Vec::new()),
    }
}
