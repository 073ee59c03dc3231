//! Per-subtree content metrics over the canonical serialization.
//!
//! [`measure`] computes, for **every** subtree in a document, the
//! structural quantities content-scoring heuristics need — serialized
//! byte length, visible text bytes, text bytes inside links, comment
//! bytes, element/link/paragraph counts — in the same single
//! serialization walk that
//! [`fingerprint_map`](crate::fingerprint::fingerprint_map) uses: a
//! stack of running accumulators, one per open ancestor, absorbs each
//! emitted byte, so the cost is
//! O(depth · bytes) with no per-subtree re-serialization.
//!
//! [`fingerprint_and_measure`] piggybacks the metrics accumulation on
//! the fingerprint traversal so pipelines that want both (incremental
//! re-adaptation + content scoring) pay for one walk.
//!
//! The metrics are purely structural: the derived ratios
//! ([`SubtreeMetrics::link_density`], [`SubtreeMetrics::text_ratio`],
//! [`SubtreeMetrics::comment_density`]) are the classic
//! readability/boilerplate signals; the *policy* that turns them into
//! scores lives in the adaptation layer, not here.

use crate::dom::{Document, NodeId};
use crate::fingerprint::{walk_document, FingerprintMap};
use std::collections::HashMap;

/// Structural content metrics for one subtree, accumulated over the
/// subtree's canonical serialization. A subtree's metrics include the
/// subtree root itself (its `bytes` equal the length of
/// [`Document::outer_html`](crate::Document::outer_html) for that node).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubtreeMetrics {
    /// Serialized byte length of the subtree (its outer HTML).
    pub bytes: u32,
    /// Bytes of rendered (entity-encoded) text outside raw-text
    /// elements — script/style bodies do not count as content text.
    pub text_bytes: u32,
    /// The portion of `text_bytes` that sits inside an `<a>` element.
    pub link_text_bytes: u32,
    /// Bytes of HTML comment payloads.
    pub comment_bytes: u32,
    /// Elements in the subtree (including the subtree root when it is
    /// an element).
    pub elements: u32,
    /// `<a>` elements in the subtree.
    pub links: u32,
    /// `<p>` elements in the subtree.
    pub paragraphs: u32,
}

impl SubtreeMetrics {
    /// Fraction of content text that is link text, in `[0, 1]`. A
    /// navigation block is nearly all links; an article is nearly none.
    pub fn link_density(&self) -> f64 {
        if self.text_bytes == 0 {
            0.0
        } else {
            f64::from(self.link_text_bytes) / f64::from(self.text_bytes)
        }
    }

    /// Fraction of serialized bytes that are content text, in `[0, 1]`.
    /// Markup-heavy widgets score low; prose scores high.
    pub fn text_ratio(&self) -> f64 {
        if self.bytes == 0 {
            0.0
        } else {
            f64::from(self.text_bytes) / f64::from(self.bytes)
        }
    }

    /// Fraction of serialized bytes that are comment payloads.
    pub fn comment_density(&self) -> f64 {
        if self.bytes == 0 {
            0.0
        } else {
            f64::from(self.comment_bytes) / f64::from(self.bytes)
        }
    }
}

/// Per-subtree metrics for one document, keyed by [`NodeId`].
#[derive(Debug, Clone, Default)]
pub struct MetricsMap {
    pub(crate) map: HashMap<NodeId, SubtreeMetrics>,
    pub(crate) root: SubtreeMetrics,
}

impl MetricsMap {
    /// The metrics of the subtree rooted at `id`, when `id` was part of
    /// the measured document.
    pub fn of(&self, id: NodeId) -> Option<SubtreeMetrics> {
        self.map.get(&id).copied()
    }

    /// Whole-document metrics (over
    /// [`Document::to_html`](crate::Document::to_html) output).
    pub fn root(&self) -> SubtreeMetrics {
        self.root
    }

    /// Number of measured subtrees.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no subtrees were measured (empty document).
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Computes content metrics for every subtree in `doc` in a single
/// serialization walk.
///
/// # Examples
///
/// ```
/// use msite_html::metrics::measure;
///
/// let doc = msite_html::parse_document(
///     "<div id=\"nav\"><a href=\"/\">home</a> <a href=\"/x\">x</a></div>");
/// let m = measure(&doc);
/// let nav = doc.element_by_id("nav").unwrap();
/// let nav_metrics = m.of(nav).unwrap();
/// assert_eq!(nav_metrics.links, 2);
/// assert!(nav_metrics.link_density() > 0.8);
/// assert_eq!(nav_metrics.bytes as usize, doc.outer_html(nav).len());
/// ```
pub fn measure(doc: &Document) -> MetricsMap {
    let (_, metrics) = walk_document(doc, false, true);
    metrics.expect("metrics requested")
}

/// Computes fingerprints *and* content metrics in one walk — what the
/// adaptation pipeline uses when a page needs both incremental
/// re-adaptation and content scoring.
pub fn fingerprint_and_measure(doc: &Document) -> (FingerprintMap, MetricsMap) {
    let (fp, metrics) = walk_document(doc, true, true);
    (fp, metrics.expect("metrics requested"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::fingerprint_map;
    use crate::parse_document;

    const PAGE: &str = "<!DOCTYPE html><html><head><title>T</title>\
         <script>var links = '<a href=x>not text</a>';</script></head>\
         <body><!-- build 77 --><div id=\"nav\"><a href=\"/\">home</a> \
         <a href=\"/b\">boards</a></div>\
         <div id=\"article\"><p>The grain runs true along this board and \
         finish coats cure hard.</p><p>Clamps hold joints square until \
         glue sets overnight; see <a href=\"/ref\">the guide</a>.</p></div>\
         </body></html>";

    #[test]
    fn bytes_match_outer_html_for_every_node() {
        let doc = parse_document(PAGE);
        let m = measure(&doc);
        let mut stack: Vec<NodeId> = doc.children(doc.root()).collect();
        let mut visited = 0usize;
        while let Some(id) = stack.pop() {
            visited += 1;
            assert_eq!(
                m.of(id).expect("measured").bytes as usize,
                doc.outer_html(id).len(),
                "node {id:?} bytes must equal its outer html length"
            );
            stack.extend(doc.children(id));
        }
        assert_eq!(m.len(), visited);
        assert_eq!(m.root().bytes as usize, doc.to_html().len());
    }

    #[test]
    fn nav_scores_linky_and_article_scores_texty() {
        let doc = parse_document(PAGE);
        let m = measure(&doc);
        let nav = m.of(doc.element_by_id("nav").unwrap()).unwrap();
        let article = m.of(doc.element_by_id("article").unwrap()).unwrap();
        assert_eq!(nav.links, 2);
        assert!(nav.link_density() > 0.8, "nav {:?}", nav);
        assert_eq!(article.paragraphs, 2);
        assert!(article.link_density() < 0.2, "article {:?}", article);
        assert!(article.text_ratio() > nav.text_ratio());
    }

    #[test]
    fn script_text_is_not_content_text() {
        let doc = parse_document(PAGE);
        let m = measure(&doc);
        let script = doc
            .descendants(doc.root())
            .find(|&id| doc.is_element_named(id, "script"))
            .unwrap();
        let sm = m.of(script).unwrap();
        assert_eq!(sm.text_bytes, 0, "{sm:?}");
        assert_eq!(sm.links, 0);
        assert!(sm.bytes > 0);
    }

    #[test]
    fn comment_bytes_counted() {
        let doc = parse_document(PAGE);
        let m = measure(&doc);
        assert_eq!(m.root().comment_bytes as usize, " build 77 ".len());
        assert!(m.root().comment_density() > 0.0);
    }

    #[test]
    fn combined_walk_agrees_with_separate_walks() {
        let doc = parse_document(PAGE);
        let (fp, m) = fingerprint_and_measure(&doc);
        let fp_alone = fingerprint_map(&doc);
        let m_alone = measure(&doc);
        assert_eq!(fp.root(), fp_alone.root());
        assert_eq!(m.root(), m_alone.root());
        for id in doc.descendants(doc.root()) {
            assert_eq!(fp.of(id), fp_alone.of(id));
            assert_eq!(m.of(id), m_alone.of(id));
        }
    }

    #[test]
    fn round_trip_preserves_metrics() {
        let first = parse_document(PAGE);
        let second = parse_document(&first.to_html());
        let (ma, mb) = (measure(&first), measure(&second));
        assert_eq!(ma.root(), mb.root());
        let seq = |doc: &Document, m: &MetricsMap| -> Vec<SubtreeMetrics> {
            doc.descendants(doc.root())
                .map(|id| m.of(id).expect("measured"))
                .collect()
        };
        assert_eq!(seq(&first, &ma), seq(&second, &mb));
    }
}
