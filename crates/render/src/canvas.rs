//! A software RGB canvas: the raster target of the rendering engine.

use crate::font;
use crate::geom::Color;

/// An RGB8 pixel buffer with drawing primitives.
///
/// # Examples
///
/// ```
/// use msite_render::{Canvas, Color};
///
/// let mut canvas = Canvas::new(100, 50, Color::WHITE);
/// canvas.fill_rect_px(10, 10, 30, 20, Color::rgb(200, 0, 0));
/// canvas.draw_text(12, 12, "hi", 2, Color::BLACK);
/// assert_eq!(canvas.get(0, 0), Color::WHITE);
/// assert_eq!(canvas.get(10, 10), Color::rgb(200, 0, 0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Canvas {
    width: u32,
    height: u32,
    pixels: Vec<u8>, // RGB interleaved
}

impl Canvas {
    /// Creates a canvas filled with `background`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the buffer would exceed
    /// 512 MiB (runaway-layout guard).
    pub fn new(width: u32, height: u32, background: Color) -> Self {
        assert!(width > 0 && height > 0, "canvas dimensions must be nonzero");
        let bytes = width as u64 * height as u64 * 3;
        assert!(
            bytes <= 512 * 1024 * 1024,
            "canvas too large: {bytes} bytes"
        );
        let mut pixels = vec![0; bytes as usize];
        fill_px(&mut pixels, background);
        Canvas {
            width,
            height,
            pixels,
        }
    }

    /// A canvas over existing row-major RGB8 bytes.
    pub(crate) fn from_pixels(width: u32, height: u32, pixels: Vec<u8>) -> Self {
        assert_eq!(pixels.len() as u64, width as u64 * height as u64 * 3);
        Canvas {
            width,
            height,
            pixels,
        }
    }

    /// Re-sizes the canvas to `height` rows of the same width, every
    /// pixel `background`, reusing the buffer: how one band buffer
    /// serves every band of a page.
    pub(crate) fn reset(&mut self, height: u32, background: Color) {
        self.height = height;
        self.pixels
            .resize(self.width as usize * height as usize * 3, 0);
        fill_px(&mut self.pixels, background);
    }

    /// Canvas width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Canvas height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Raw RGB8 bytes, row-major.
    pub fn pixels(&self) -> &[u8] {
        &self.pixels
    }

    /// Pixel color at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn get(&self, x: u32, y: u32) -> Color {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        let i = ((y * self.width + x) * 3) as usize;
        Color::rgb(self.pixels[i], self.pixels[i + 1], self.pixels[i + 2])
    }

    /// Sets one pixel; silently clips when out of bounds.
    pub fn set(&mut self, x: i32, y: i32, color: Color) {
        if x < 0 || y < 0 || x as u32 >= self.width || y as u32 >= self.height {
            return;
        }
        let i = ((y as u32 * self.width + x as u32) * 3) as usize;
        self.pixels[i] = color.r;
        self.pixels[i + 1] = color.g;
        self.pixels[i + 2] = color.b;
    }

    /// Fills an integer-pixel rectangle, clipping to the canvas.
    pub fn fill_rect_px(&mut self, x: i32, y: i32, w: i32, h: i32, color: Color) {
        let x0 = x.max(0) as usize;
        let y0 = y.max(0) as usize;
        let x1 = x.saturating_add(w).clamp(0, self.width as i32) as usize;
        let y1 = y.saturating_add(h).clamp(0, self.height as i32) as usize;
        if x1 <= x0 {
            return;
        }
        let stride = self.width as usize * 3;
        for row in y0..y1 {
            fill_px(
                &mut self.pixels[row * stride + x0 * 3..row * stride + x1 * 3],
                color,
            );
        }
    }

    /// Strokes the border of an integer-pixel rectangle, `width` pixels
    /// wide, clipping to the canvas.
    pub fn stroke_rect_px(&mut self, x: i32, y: i32, w: i32, h: i32, width: u32, color: Color) {
        if width == 0 {
            return;
        }
        let bw = width as i32;
        let bottom = y.saturating_add(h).saturating_sub(bw);
        let right = x.saturating_add(w).saturating_sub(bw);
        self.fill_rect_px(x, y, w, bw, color);
        self.fill_rect_px(x, bottom, w, bw, color);
        self.fill_rect_px(x, y, bw, h, color);
        self.fill_rect_px(right, y, bw, h, color);
    }

    /// Draws text with the built-in 5×7 font, each font pixel `scale`
    /// canvas pixels square (see [`font::scale_for`]); the origin is the
    /// top-left of the first glyph cell. Returns the advance in pixels.
    pub fn draw_text(&mut self, x: i32, y: i32, text: &str, scale: i32, color: Color) -> i32 {
        let mut cx = x;
        for ch in text.chars() {
            for col in 0..5i32 {
                for row in 0..7i32 {
                    if font::pixel_set(ch, col as u32, row as u32) {
                        self.fill_rect_px(
                            cx.saturating_add(col * scale),
                            y.saturating_add(row * scale),
                            scale,
                            scale,
                            color,
                        );
                    }
                }
            }
            cx = cx.saturating_add(font::CELL_WIDTH as i32 * scale);
        }
        cx.saturating_sub(x)
    }

    /// Draws a crossed placeholder box over an integer-pixel rectangle —
    /// how the engine depicts images and plugins it does not decode (the
    /// thumbnail look of early mobile browsers).
    pub fn draw_placeholder_px(
        &mut self,
        x: i32,
        y: i32,
        w: i32,
        h: i32,
        border: Color,
        fill: Color,
    ) {
        self.fill_rect_px(x, y, w, h, fill);
        self.stroke_rect_px(x, y, w, h, 1, border);
        // Diagonals via simple DDA.
        let (x, y) = (x as i64, y as i64);
        let (w1, h1) = ((w as i64 - 1).max(0), (h as i64 - 1).max(0));
        let steps = (w as i64).max(h as i64).max(1);
        for i in 0..=steps {
            let fx = x + (i * w1) / steps;
            let fy = y + (i * h1) / steps;
            self.set(clamp_i32(fx), clamp_i32(fy), border);
            self.set(clamp_i32(x + w1 - (fx - x)), clamp_i32(fy), border);
        }
    }

    /// Number of distinct colors present (post-quantization metric).
    pub fn distinct_colors(&self) -> usize {
        let mut seen = std::collections::HashSet::new();
        for chunk in self.pixels.chunks_exact(3) {
            seen.insert([chunk[0], chunk[1], chunk[2]]);
        }
        seen.len()
    }
}

/// Paints every pixel of a run of RGB8 bytes `color`: a plain memset for
/// grays, one pixel copy at a time otherwise.
fn fill_px(run: &mut [u8], color: Color) {
    if color.r == color.g && color.g == color.b {
        run.fill(color.r);
    } else {
        for px in run.chunks_exact_mut(3) {
            px.copy_from_slice(&[color.r, color.g, color.b]);
        }
    }
}

/// A pixel coordinate that [`Canvas::set`] clips, kept in `i32` range.
fn clamp_i32(v: i64) -> i32 {
    v.clamp(i32::MIN as i64, i32::MAX as i64) as i32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_fills_background() {
        let c = Canvas::new(4, 3, Color::rgb(9, 8, 7));
        assert_eq!(c.width(), 4);
        assert_eq!(c.height(), 3);
        assert_eq!(c.get(3, 2), Color::rgb(9, 8, 7));
        assert_eq!(c.pixels().len(), 4 * 3 * 3);
    }

    #[test]
    fn fill_rect_clips() {
        let mut c = Canvas::new(10, 10, Color::WHITE);
        c.fill_rect_px(-5, -5, 8, 8, Color::BLACK);
        assert_eq!(c.get(0, 0), Color::BLACK);
        assert_eq!(c.get(2, 2), Color::BLACK);
        assert_eq!(c.get(3, 3), Color::WHITE);
        c.fill_rect_px(8, 8, 100, 100, Color::BLACK);
        assert_eq!(c.get(9, 9), Color::BLACK);
    }

    #[test]
    fn stroke_draws_only_border() {
        let mut c = Canvas::new(10, 10, Color::WHITE);
        c.stroke_rect_px(1, 1, 8, 8, 1, Color::BLACK);
        assert_eq!(c.get(1, 1), Color::BLACK);
        assert_eq!(c.get(8, 1), Color::BLACK);
        assert_eq!(c.get(4, 4), Color::WHITE);
    }

    #[test]
    fn text_marks_pixels() {
        let mut c = Canvas::new(40, 20, Color::WHITE);
        let advance = c.draw_text(0, 0, "AB", 1, Color::BLACK);
        assert_eq!(advance, 12); // two cells at scale 1
                                 // Some pixel of 'A' must be black.
        let mut black = 0;
        for y in 0..8 {
            for x in 0..6 {
                if c.get(x, y) == Color::BLACK {
                    black += 1;
                }
            }
        }
        assert!(black >= 5);
    }

    #[test]
    fn text_scale_doubles_advance() {
        let mut c = Canvas::new(200, 40, Color::WHITE);
        let a1 = c.draw_text(0, 0, "xyz", 1, Color::BLACK);
        let a2 = c.draw_text(0, 20, "xyz", 2, Color::BLACK);
        assert_eq!(a2, a1 * 2);
    }

    #[test]
    fn reset_reuses_the_buffer_at_a_new_height() {
        let mut c = Canvas::new(4, 8, Color::BLACK);
        c.reset(3, Color::rgb(1, 2, 3));
        assert_eq!(c.height(), 3);
        assert_eq!(c.pixels().len(), 4 * 3 * 3);
        assert_eq!(c.get(3, 2), Color::rgb(1, 2, 3));
    }

    #[test]
    fn placeholder_draws_frame() {
        let mut c = Canvas::new(20, 20, Color::WHITE);
        c.draw_placeholder_px(2, 2, 16, 16, Color::BLACK, Color::rgb(230, 230, 230));
        assert_eq!(c.get(2, 2), Color::BLACK);
        assert_eq!(c.get(10, 5), Color::rgb(230, 230, 230));
    }
}
