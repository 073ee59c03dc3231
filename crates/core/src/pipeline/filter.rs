//! Filter stage: source-level rewrites with no DOM (§3.2 "filter
//! phase"). When the spec carries only filters the whole adaptation
//! completes here, "avoiding a DOM parse altogether".

use super::stage::{PipelineState, Stage, StageKind, StageOutcome};
use super::AdaptError;
use crate::attributes::SourceFilter;

/// Applies the spec's source filters, in order, to the working buffer.
pub(crate) struct FilterStage;

impl Stage for FilterStage {
    fn kind(&self) -> StageKind {
        StageKind::Filter
    }

    fn run(&self, state: &mut PipelineState<'_>) -> Result<StageOutcome, AdaptError> {
        let mut out = std::mem::take(&mut state.source);
        for filter in &state.spec.filters {
            state.stats.filters_applied += 1;
            out = match filter {
                SourceFilter::Replace { find, replace } => out.replace(find.as_str(), replace),
                SourceFilter::SetDoctype { doctype } => set_doctype(&out, doctype),
                SourceFilter::SetTitle { title } => set_title(&out, title),
                SourceFilter::StripTag { tag } => strip_tag(&out, tag),
                SourceFilter::RewriteImagePrefix { from, to } => {
                    out.replace(&format!("src=\"{from}"), &format!("src=\"{to}"))
                }
            };
        }
        // Fingerprint the filtered source: the whole-page identity for
        // incremental re-adaptation. Computed here (not in the DOM
        // stage) so even filter-only adaptations carry one.
        state.source_fingerprint = msite_html::fingerprint::fnv1a(out.as_bytes());
        state.source = out;
        Ok(StageOutcome {
            artifacts: state.spec.filters.len(),
        })
    }
}

fn set_doctype(html: &str, doctype: &str) -> String {
    let lower = html.to_ascii_lowercase();
    if let Some(start) = lower.find("<!doctype") {
        if let Some(end) = html[start..].find('>') {
            let mut out = String::with_capacity(html.len());
            out.push_str(&html[..start]);
            out.push_str(doctype);
            out.push_str(&html[start + end + 1..]);
            return out;
        }
    }
    format!("{doctype}\n{html}")
}

fn set_title(html: &str, title: &str) -> String {
    let lower = html.to_ascii_lowercase();
    if let (Some(open), Some(close)) = (lower.find("<title>"), lower.find("</title>")) {
        if close > open {
            let mut out = String::with_capacity(html.len());
            out.push_str(&html[..open + 7]);
            out.push_str(&msite_html::entities::encode_text(title));
            out.push_str(&html[close..]);
            return out;
        }
    }
    html.to_string()
}

/// Removes every `<tag ...>...</tag>` span (and a bare `<tag ...>` when
/// unclosed) at source level: lowercase the page once, then repeated
/// substring searches.
fn strip_tag(html: &str, tag: &str) -> String {
    let lower = html.to_ascii_lowercase();
    let open_pat = format!("<{}", tag.to_ascii_lowercase());
    let close_pat = format!("</{}>", tag.to_ascii_lowercase());
    let mut out = String::with_capacity(html.len());
    let mut pos = 0;
    while let Some(rel) = lower[pos..].find(&open_pat) {
        let start = pos + rel;
        // Guard against matching a prefix (e.g. `<s` matching `<script>`).
        let after = lower.as_bytes().get(start + open_pat.len());
        let boundary = matches!(
            after,
            Some(b'>') | Some(b' ') | Some(b'\t') | Some(b'\n') | Some(b'\r') | Some(b'/')
        );
        if !boundary {
            out.push_str(&html[pos..start + open_pat.len()]);
            pos = start + open_pat.len();
            continue;
        }
        out.push_str(&html[pos..start]);
        match lower[start..].find(&close_pat) {
            Some(rel_close) => pos = start + rel_close + close_pat.len(),
            None => match lower[start..].find('>') {
                Some(rel_gt) => pos = start + rel_gt + 1,
                None => {
                    pos = html.len();
                }
            },
        }
    }
    out.push_str(&html[pos..]);
    out
}
