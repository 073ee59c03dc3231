//! The site administrator's visual tool, as a library (§3.1).
//!
//! The paper's tool shows a live view of the page; the administrator
//! highlights objects point-and-click and assigns attributes from a
//! menu. This module is the engine behind such a tool: it loads a page,
//! renders it, and exposes the *selectable object list* — each candidate
//! with a stable selector, its geometry, and a preview — plus a builder
//! that accumulates attribute assignments into an [`AdaptationSpec`] and
//! finally generates the proxy program.

use crate::attributes::{AdaptationSpec, Attribute, SourceFilter, Target};
use crate::dsl;
use msite_html::{text::visible_text, NodeId};
use msite_render::browser::{Browser, BrowserConfig, LaidOutPage};
use msite_render::Rect;

/// One selectable page object in the tool's live view.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectableObject {
    /// A stable selector for the object (id-based when possible).
    pub selector: String,
    /// Tag name.
    pub tag: String,
    /// On-page geometry at desktop resolution (what the admin clicks).
    pub rect: Rect,
    /// First words of the object's visible text, for the object list.
    pub preview: String,
}

/// The loaded page model backing the visual tool.
pub struct PageModel {
    url: String,
    render: LaidOutPage,
}

impl PageModel {
    /// Loads a page (already-fetched HTML) into the tool at the given
    /// desktop viewport width.
    pub fn load(url: &str, html: &str, viewport_width: u32) -> PageModel {
        let browser = Browser::launch(BrowserConfig {
            viewport_width,
            ..BrowserConfig::default()
        });
        PageModel {
            url: url.to_string(),
            // The tool needs geometry only; the page is never rastered.
            render: browser.lay_out(html, &[]),
        }
    }

    /// The page URL.
    pub fn url(&self) -> &str {
        &self.url
    }

    /// Total page height at the tool's viewport.
    pub fn page_height(&self) -> f32 {
        self.render.layout.page_height
    }

    /// Enumerates the selectable objects: elements with an `id` (stable
    /// selectors) plus top-level structural elements, each with geometry.
    /// Mirrors the highlight-on-hover list of the visual tool.
    pub fn selectable_objects(&self) -> Vec<SelectableObject> {
        let doc = &self.render.doc;
        let mut out = Vec::new();
        for node in doc.descendants(doc.root()) {
            let Some(element) = doc.data(node).as_element() else {
                continue;
            };
            let selector = match element.attr("id") {
                Some(id) if !id.is_empty() => format!("#{id}"),
                _ => continue,
            };
            let Some(rect) = self.render.layout.rect_of(node) else {
                continue;
            };
            if rect.w <= 0.0 || rect.h <= 0.0 {
                continue;
            }
            let mut preview = visible_text(doc, node);
            preview.truncate(60);
            out.push(SelectableObject {
                selector,
                tag: element.name().to_string(),
                rect,
                preview,
            });
        }
        out
    }

    /// Point-and-click selection: the innermost identified object whose
    /// box contains `(x, y)`.
    pub fn object_at(&self, x: f32, y: f32) -> Option<SelectableObject> {
        self.selectable_objects()
            .into_iter()
            .filter(|o| o.rect.contains(x, y))
            .min_by(|a, b| {
                (a.rect.w * a.rect.h)
                    .partial_cmp(&(b.rect.w * b.rect.h))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
    }

    /// Geometry of an arbitrary node (for tools building custom views).
    pub fn rect_of(&self, node: NodeId) -> Option<Rect> {
        self.render.layout.rect_of(node)
    }

    /// Starts building a spec for this page.
    pub fn start_spec(&self, page_id: &str) -> SpecBuilder {
        SpecBuilder {
            spec: AdaptationSpec::new(page_id, &self.url),
        }
    }
}

/// Accumulates the administrator's choices.
pub struct SpecBuilder {
    spec: AdaptationSpec,
}

impl SpecBuilder {
    /// Assigns attributes to a selected object.
    pub fn assign(mut self, selector: &str, attributes: Vec<Attribute>) -> SpecBuilder {
        self.spec.rules.push(crate::attributes::Rule {
            target: Target::Css(selector.to_string()),
            attributes,
        });
        self
    }

    /// Assigns attributes to an XPath-identified object.
    pub fn assign_xpath(mut self, xpath: &str, attributes: Vec<Attribute>) -> SpecBuilder {
        self.spec.rules.push(crate::attributes::Rule {
            target: Target::XPath(xpath.to_string()),
            attributes,
        });
        self
    }

    /// Adds a source filter.
    pub fn add_filter(mut self, filter: SourceFilter) -> SpecBuilder {
        self.spec.filters.push(filter);
        self
    }

    /// Configures (or disables) the entry snapshot.
    pub fn snapshot(mut self, snapshot: Option<crate::attributes::SnapshotSpec>) -> SpecBuilder {
        self.spec.snapshot = snapshot;
        self
    }

    /// The spec built so far.
    pub fn spec(&self) -> &AdaptationSpec {
        &self.spec
    }

    /// Finishes: returns the spec and the generated proxy program text —
    /// the tool's final "generate code" action.
    pub fn generate(self) -> (AdaptationSpec, String) {
        let script = dsl::to_script(&self.spec);
        (self.spec, script)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: &str = r#"<html><head><title>T</title></head><body style="margin:0">
<div id="header" style="height:50px">Site Header</div>
<div id="nav" style="height:30px"><a href="/a">A</a></div>
<div id="content" style="height:200px"><p>Body text for preview purposes</p>
  <span id="deep" style="height:10px">deep</span></div>
</body></html>"#;

    fn model() -> PageModel {
        PageModel::load("http://h/index.php", PAGE, 800)
    }

    #[test]
    fn selectable_objects_have_geometry() {
        let m = model();
        let objects = m.selectable_objects();
        let ids: Vec<&str> = objects.iter().map(|o| o.selector.as_str()).collect();
        assert!(ids.contains(&"#header"));
        assert!(ids.contains(&"#nav"));
        assert!(ids.contains(&"#content"));
        let header = objects.iter().find(|o| o.selector == "#header").unwrap();
        assert_eq!(header.rect.y, 0.0);
        assert_eq!(header.rect.h, 50.0);
        assert!(header.preview.contains("Site Header"));
    }

    #[test]
    fn point_and_click_picks_innermost() {
        let m = model();
        // Click into the header.
        let hit = m.object_at(10.0, 25.0).unwrap();
        assert_eq!(hit.selector, "#header");
        // Click below everything.
        assert!(m.object_at(10.0, 5000.0).is_none());
    }

    #[test]
    fn spec_builder_generates_program() {
        let m = model();
        let (spec, script) = m
            .start_spec("demo")
            .add_filter(SourceFilter::SetTitle {
                title: "Mobile".into(),
            })
            .assign(
                "#nav",
                vec![Attribute::Subpage {
                    id: "nav".into(),
                    title: "Navigation".into(),
                    ajax: false,
                    prerender: false,
                }],
            )
            .assign_xpath("//div[@id='header']", vec![Attribute::Remove])
            .generate();
        assert_eq!(spec.rules.len(), 2);
        assert!(script.contains("page demo \"http://h/index.php\""));
        assert!(script.contains("rule css \"#nav\""));
        assert!(script.contains("rule xpath \"//div[@id='header']\""));
        // The generated program round-trips.
        assert_eq!(dsl::parse_script(&script).unwrap(), spec);
    }

    #[test]
    fn snapshot_configurable() {
        let m = model();
        let builder = m.start_spec("demo").snapshot(None);
        assert!(builder.spec().snapshot.is_none());
    }
}
