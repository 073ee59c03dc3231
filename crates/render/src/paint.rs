//! Painting: flattens a [`LayoutTree`] into a [`DisplayList`] — its paint
//! operations in paint order, in integer page pixels — and rasters that
//! list onto a [`Canvas`], the whole page at once or one horizontal band
//! of rows at a time.
//!
//! Every operation draws through the same canvas primitives whichever
//! rows the target covers: a band is a canvas whose row 0 is page row
//! `y0`, and each operation is shifted up by `y0` before it is clipped.
//! Coordinates are integers by then, so the shift is exact and a pixel
//! gets the same color in every banding.

use crate::canvas::Canvas;
use crate::font;
use crate::geom::{Color, Rect};
use crate::layout::{BoxContent, LayoutBox, LayoutTree};

/// Paints the layout tree onto a fresh canvas sized to the page.
///
/// The canvas height is clamped to `max_height` pixels to bound memory on
/// pathological pages; content below the clamp is simply not painted
/// (like a capped screenshot).
pub fn paint(tree: &LayoutTree, max_height: u32) -> Canvas {
    DisplayList::build(tree, max_height).raster()
}

/// One paint operation in page pixels.
#[derive(Debug, Clone, PartialEq)]
enum Op {
    Fill {
        x: i32,
        y: i32,
        w: i32,
        h: i32,
        color: Color,
    },
    Stroke {
        x: i32,
        y: i32,
        w: i32,
        h: i32,
        width: u32,
        color: Color,
    },
    Text {
        x: i32,
        y: i32,
        scale: i32,
        text: String,
        color: Color,
    },
    Placeholder {
        x: i32,
        y: i32,
        w: i32,
        h: i32,
    },
}

/// Placeholder colors: the frame and diagonals, and the fill.
const PLACEHOLDER_BORDER: Color = Color::rgb(120, 120, 120);
const PLACEHOLDER_FILL: Color = Color::rgb(224, 224, 230);

impl Op {
    /// Page rows `[top, bottom)` the operation may touch; a band outside
    /// them is left alone.
    fn rows(&self) -> (i64, i64) {
        // A stroke wider than its box reaches past either edge.
        let framed = |y: i32, h: i32, stroke: i64| {
            let (y, h) = (y as i64, h as i64);
            (y.min(y + h - stroke), (y + h).max(y + stroke))
        };
        match *self {
            Op::Fill { y, h, .. } => (y as i64, y as i64 + h as i64),
            Op::Stroke { y, h, width, .. } => framed(y, h, width as i32 as i64),
            Op::Text { y, scale, .. } => (y as i64, y as i64 + 7 * scale as i64),
            Op::Placeholder { y, h, .. } => framed(y, h, 1),
        }
    }

    /// Draws the operation onto `target`, whose row 0 is page row `y0`.
    fn draw(&self, target: &mut Canvas, y0: i32) {
        match self {
            Op::Fill { x, y, w, h, color } => {
                target.fill_rect_px(*x, y.saturating_sub(y0), *w, *h, *color)
            }
            Op::Stroke {
                x,
                y,
                w,
                h,
                width,
                color,
            } => target.stroke_rect_px(*x, y.saturating_sub(y0), *w, *h, *width, *color),
            Op::Text {
                x,
                y,
                scale,
                text,
                color,
            } => {
                target.draw_text(*x, y.saturating_sub(y0), text, *scale, *color);
            }
            Op::Placeholder { x, y, w, h } => target.draw_placeholder_px(
                *x,
                y.saturating_sub(y0),
                *w,
                *h,
                PLACEHOLDER_BORDER,
                PLACEHOLDER_FILL,
            ),
        }
    }
}

/// A laid-out page as a flat list of paint operations, in paint order,
/// clipped to a page of `width` × `height` pixels (the height capped).
///
/// # Examples
///
/// ```
/// use msite_html::parse_document;
/// use msite_render::{compute_styles, layout_document, paint, DisplayList, Stylesheet};
///
/// let doc = parse_document("<body><h1>Forum</h1><p>posts</p></body>");
/// let styles = compute_styles(&doc, &Stylesheet::default());
/// let tree = layout_document(&doc, &styles, 320.0);
/// let list = DisplayList::build(&tree, 4096);
/// assert_eq!((list.width(), list.height()), (320, tree.page_height.ceil() as u32));
/// assert_eq!(list.raster(), paint(&tree, 4096));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DisplayList {
    width: u32,
    height: u32,
    ops: Vec<(i64, i64, Op)>,
}

impl DisplayList {
    /// Flattens `tree` with one pre-order walk over an explicit stack
    /// (no recursion, however deep the tree). A box entirely outside
    /// the capped page is skipped with its subtree: in flow layout
    /// children lie inside their parent.
    pub fn build(tree: &LayoutTree, max_height: u32) -> DisplayList {
        let width = (tree.viewport_width.ceil() as u32).max(1);
        let height = (tree.page_height.ceil() as u32).clamp(1, max_height);
        let page = Rect::new(0.0, 0.0, width as f32, height as f32);
        let mut ops = Vec::new();
        let mut stack = vec![&tree.root];
        while let Some(layout_box) = stack.pop() {
            if !layout_box.rect.intersects(&page) && layout_box.rect.h > 0.0 {
                continue;
            }
            push_ops(layout_box, &mut |op| {
                let (top, bottom) = op.rows();
                ops.push((top, bottom, op));
            });
            stack.extend(layout_box.children.iter().rev());
        }
        DisplayList { width, height, ops }
    }

    /// Page width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Page height in pixels, after the cap.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Rasters the whole page onto one canvas.
    pub fn raster(&self) -> Canvas {
        let mut canvas = Canvas::new(self.width, self.height, Color::WHITE);
        self.raster_band(0, &mut canvas);
        canvas
    }

    /// Draws the page's rows `[y0, y0 + band.height())` onto `band`,
    /// which holds the background already.
    pub(crate) fn raster_band(&self, y0: u32, band: &mut Canvas) {
        let (top, bottom) = (y0 as i64, y0 as i64 + band.height() as i64);
        for (from, to, op) in &self.ops {
            if *from < bottom && *to > top {
                op.draw(band, y0 as i32);
            }
        }
    }
}

/// The paint operations of one box, before its children's.
fn push_ops(layout_box: &LayoutBox, push: &mut impl FnMut(Op)) {
    let (x, y, w, h) = layout_box.rect.to_pixels();
    match &layout_box.content {
        BoxContent::Container => {
            if let Some(color) = layout_box.style.background {
                push(Op::Fill { x, y, w, h, color });
            }
            if layout_box.style.border_width > 0.0 {
                push(Op::Stroke {
                    x,
                    y,
                    w,
                    h,
                    width: layout_box.style.border_width.round().max(1.0) as u32,
                    color: layout_box.style.border_color,
                });
            }
        }
        BoxContent::Text(text) => push(Op::Text {
            x: layout_box.rect.x.round() as i32,
            y: layout_box.rect.y.round() as i32,
            scale: font::scale_for(layout_box.style.font_size) as i32,
            text: text.clone(),
            color: layout_box.style.color,
        }),
        BoxContent::Image(_) => push(Op::Placeholder { x, y, w, h }),
        BoxContent::Control(kind) => {
            let color = if kind == "submit" || kind == "button" {
                Color::rgb(221, 221, 221)
            } else {
                Color::WHITE
            };
            push(Op::Fill { x, y, w, h, color });
            push(Op::Stroke {
                x,
                y,
                w,
                h,
                width: 1,
                color: Color::rgb(118, 118, 118),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::css::{compute_styles, Stylesheet};
    use crate::layout::layout_document;
    use msite_html::parse_document;

    fn render(html: &str, css: &str, width: f32) -> Canvas {
        let doc = parse_document(html);
        let styles = compute_styles(&doc, &Stylesheet::parse(css));
        let tree = layout_document(&doc, &styles, width);
        paint(&tree, 4096)
    }

    fn count_color(canvas: &Canvas, color: Color) -> usize {
        let mut n = 0;
        for y in 0..canvas.height() {
            for x in 0..canvas.width() {
                if canvas.get(x, y) == color {
                    n += 1;
                }
            }
        }
        n
    }

    #[test]
    fn background_painted() {
        let canvas = render(
            "<body><div style=\"height:20px;background:#ff0000\"></div></body>",
            "body{margin:0}",
            50.0,
        );
        assert!(count_color(&canvas, Color::rgb(255, 0, 0)) >= 50 * 18);
    }

    #[test]
    fn text_painted_in_color() {
        let canvas = render(
            "<body><p style=\"color:#0000ff\">XXXX</p></body>",
            "body{margin:0} p{margin:0}",
            200.0,
        );
        assert!(count_color(&canvas, Color::rgb(0, 0, 255)) > 20);
    }

    #[test]
    fn border_painted() {
        let canvas = render(
            "<body><div style=\"height:30px;border:2px solid #00ff00\"></div></body>",
            "body{margin:0}",
            40.0,
        );
        assert!(count_color(&canvas, Color::rgb(0, 255, 0)) > 40);
        // Interior stays white.
        assert_eq!(canvas.get(20, 15), Color::WHITE);
    }

    #[test]
    fn image_placeholder_painted() {
        let canvas = render(
            "<body><img src=\"x.gif\" width=\"40\" height=\"40\"></body>",
            "body{margin:0}",
            60.0,
        );
        assert!(count_color(&canvas, Color::rgb(224, 224, 230)) > 400);
    }

    #[test]
    fn height_clamped() {
        let mut html = String::from("<body>");
        for _ in 0..500 {
            html.push_str("<div style=\"height:100px\">x</div>");
        }
        html.push_str("</body>");
        let canvas = render(&html, "body{margin:0}", 100.0);
        assert!(canvas.height() <= 4096);
    }

    #[test]
    fn deterministic_output() {
        let a = render("<body><p>stable</p></body>", "", 120.0);
        let b = render("<body><p>stable</p></body>", "", 120.0);
        assert_eq!(a.pixels(), b.pixels());
    }
}
