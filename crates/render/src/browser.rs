//! The server-side browser facade — this reproduction's stand-in for the
//! embedded WebKit instance of the paper.
//!
//! A [`Browser`] bundles the whole pipeline (tidy → parse → cascade →
//! layout → display list, then raster) behind one call, and models the
//! *cost* of bringing up a full browser process, which is the quantity
//! Figure 7 turns on: the Highlight baseline pays [`Browser::launch`]
//! per request, the m.Site proxy pays it only when a graphical render
//! is unavoidable.
//!
//! The launch cost is real CPU spin (not sleep), so throughput
//! experiments contend for cores exactly like real browser instances
//! would. The default of 250 ms approximates Qt/WebKit process spawn +
//! engine init on the paper's 2012 dual-core testbed; see DESIGN.md §2.

use crate::canvas::Canvas;
use crate::css::{compute_styles, Stylesheet};
use crate::image::{self, EncodedImage, PostProcess};
use crate::layout::{layout_document, LayoutTree};
use crate::paint::DisplayList;
use msite_html::{tidy, Document};
use std::time::{Duration, Instant};

/// How expensive instantiating a browser is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartupCost {
    /// Free: for unit tests and for pipeline-only uses.
    None,
    /// Spin the CPU for this long, modeling process spawn + engine init.
    Busy(Duration),
}

/// Browser configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct BrowserConfig {
    /// Viewport width in px used for layout.
    pub viewport_width: u32,
    /// Cap on rendered page height in px.
    pub max_page_height: u32,
    /// Instantiation cost model.
    pub startup_cost: StartupCost,
}

impl Default for BrowserConfig {
    fn default() -> Self {
        BrowserConfig {
            viewport_width: 1024,
            max_page_height: 8192,
            startup_cost: StartupCost::None,
        }
    }
}

impl BrowserConfig {
    /// Configuration that models the paper's testbed: full-size desktop
    /// viewport and a 250 ms instance startup.
    pub fn paper_testbed() -> Self {
        BrowserConfig {
            viewport_width: 1024,
            max_page_height: 8192,
            startup_cost: StartupCost::Busy(Duration::from_millis(250)),
        }
    }
}

/// Everything a full render produces.
#[derive(Debug, Clone)]
pub struct RenderResult {
    /// The tidied document that was rendered (for geometry queries).
    pub doc: Document,
    /// Positioned boxes; use [`LayoutTree::rect_of`] for image maps.
    pub layout: LayoutTree,
    /// The rasterized page.
    pub canvas: Canvas,
}

/// A page laid out and flattened into its display list, not yet
/// rastered: [`LaidOutPage::encode`] rasters it band by band straight
/// into the image post-processor, so no page-sized canvas is ever held.
#[derive(Debug, Clone)]
pub struct LaidOutPage {
    /// The tidied document that was laid out (for geometry queries).
    pub doc: Document,
    /// Positioned boxes; use [`LayoutTree::rect_of`] for image maps.
    pub layout: LayoutTree,
    /// The page's paint operations, its height capped.
    pub display: DisplayList,
}

impl LaidOutPage {
    /// Rasters, post-processes and PNG-encodes the page in bands: the
    /// bytes equal [`image::process`] of the whole rastered page, while
    /// no buffer larger than one band of page rows is held.
    ///
    /// # Panics
    ///
    /// Panics if `crop` lies entirely outside the page.
    ///
    /// # Examples
    ///
    /// ```
    /// use msite_render::browser::{Browser, BrowserConfig};
    /// use msite_render::image::{process, PostProcess};
    ///
    /// let browser = Browser::launch(BrowserConfig::default());
    /// let page = browser.lay_out("<body><h1>Forum</h1></body>", &[]);
    /// let spec = PostProcess { scale: Some(0.5), ..Default::default() };
    /// let banded = page.encode(&spec);
    /// assert_eq!(banded.encoded, process(&page.display.raster(), &spec).encoded);
    /// ```
    pub fn encode(&self, spec: &PostProcess) -> EncodedImage {
        image::encode_page(&self.display, spec)
    }
}

/// A server-side browser instance.
///
/// # Examples
///
/// ```
/// use msite_render::browser::{Browser, BrowserConfig};
///
/// let browser = Browser::launch(BrowserConfig::default());
/// let result = browser.render_page("<body><h1>Forum</h1></body>", &[]);
/// assert!(result.canvas.height() > 0);
/// ```
#[derive(Debug)]
pub struct Browser {
    config: BrowserConfig,
    launched_in: Duration,
    pages_rendered: std::sync::atomic::AtomicU64,
}

impl Browser {
    /// Instantiates a browser, paying the configured startup cost.
    pub fn launch(config: BrowserConfig) -> Browser {
        let start = Instant::now();
        if let StartupCost::Busy(duration) = config.startup_cost {
            spin_for(duration);
        }
        Browser {
            config,
            launched_in: start.elapsed(),
            pages_rendered: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The configuration this instance runs.
    pub fn config(&self) -> &BrowserConfig {
        &self.config
    }

    /// How long instantiation took.
    pub fn launched_in(&self) -> Duration {
        self.launched_in
    }

    /// Pages rendered by this instance.
    pub fn pages_rendered(&self) -> u64 {
        self.pages_rendered
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Full pipeline: [`Browser::lay_out`], then raster the whole page
    /// onto one canvas.
    pub fn render_page(&self, html: &str, extra_css: &[&str]) -> RenderResult {
        let page = self.lay_out(html, extra_css);
        RenderResult {
            canvas: page.display.raster(),
            doc: page.doc,
            layout: page.layout,
        }
    }

    /// Tidy, parse, cascade (inline `<style>` blocks plus `extra_css`
    /// external sheets), layout and flatten to a display list; counts as
    /// a rendered page.
    pub fn lay_out(&self, html: &str, extra_css: &[&str]) -> LaidOutPage {
        let doc = tidy::tidy(html);
        let mut css_source = String::new();
        for style_el in doc.elements_by_tag(doc.root(), "style") {
            css_source.push_str(&doc.text_content(style_el));
            css_source.push('\n');
        }
        for extra in extra_css {
            css_source.push_str(extra);
            css_source.push('\n');
        }
        let sheet = Stylesheet::parse(&css_source);
        let styles = compute_styles(&doc, &sheet);
        let layout = layout_document(&doc, &styles, self.config.viewport_width as f32);
        let display = DisplayList::build(&layout, self.config.max_page_height);
        self.pages_rendered
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        LaidOutPage {
            doc,
            layout,
            display,
        }
    }
}

/// Burns CPU for `duration` doing real work (FNV hashing), so that
/// concurrent launches contend for cores like real processes.
fn spin_for(duration: Duration) {
    let start = Instant::now();
    let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
    while start.elapsed() < duration {
        for i in 0..4096u64 {
            acc ^= i;
            acc = acc.wrapping_mul(0x1000_0000_01b3);
        }
        std::hint::black_box(acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_launch_is_fast() {
        let b = Browser::launch(BrowserConfig::default());
        assert!(b.launched_in() < Duration::from_millis(50));
    }

    #[test]
    fn busy_launch_takes_configured_time() {
        let config = BrowserConfig {
            startup_cost: StartupCost::Busy(Duration::from_millis(30)),
            ..Default::default()
        };
        let b = Browser::launch(config);
        assert!(b.launched_in() >= Duration::from_millis(30));
        assert!(b.launched_in() < Duration::from_millis(500));
    }

    #[test]
    fn render_counts_pages() {
        let b = Browser::launch(BrowserConfig::default());
        b.render_page("<p>one</p>", &[]);
        b.render_page("<p>two</p>", &[]);
        assert_eq!(b.pages_rendered(), 2);
    }

    #[test]
    fn inline_style_blocks_used() {
        let b = Browser::launch(BrowserConfig::default());
        let result = b.render_page(
            "<html><head><style>body{margin:0} div{background:#ff0000;height:10px}</style></head>\
             <body><div></div></body></html>",
            &[],
        );
        assert_eq!(result.canvas.get(5, 5), crate::geom::Color::rgb(255, 0, 0));
    }

    #[test]
    fn extra_css_applied() {
        let b = Browser::launch(BrowserConfig::default());
        let result = b.render_page(
            "<body><div id=x></div></body>",
            &["body{margin:0} #x{background:#00ff00;height:5px}"],
        );
        assert_eq!(result.canvas.get(2, 2), crate::geom::Color::rgb(0, 255, 0));
    }

    #[test]
    fn geometry_queryable_after_render() {
        let b = Browser::launch(BrowserConfig::default());
        let result = b.render_page(
            "<body><div id=target style=\"height:42px\">x</div></body>",
            &["body{margin:0}"],
        );
        let target = result.doc.element_by_id("target").unwrap();
        let rect = result.layout.rect_of(target).unwrap();
        assert_eq!(rect.h, 42.0);
    }
}
