//! The image fidelity post-processor.
//!
//! The paper: "objects can be passed to a post-processor before being made
//! available to the client, allowing for manipulations in image fidelity
//! and cropping ... a full page rendered into a high-fidelity png can
//! consume upwards of 600K; a post-processor can produce a
//! reduced-fidelity jpg at 25-50k."
//!
//! This module applies scale/quantize/crop pipelines to a [`Canvas`] and
//! produces real PNG bytes. A JPEG-class output size is *modeled* (we do
//! not ship a DCT codec): the estimate is `pixels × bits-per-pixel(q)`
//! with an entropy correction measured from the image itself, which
//! reproduces the paper's size *ratios*; see DESIGN.md §2.

use crate::canvas::Canvas;
use crate::geom::Rect;
use crate::png;
use std::time::{Duration, Instant};

/// Output format of the post-processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImageFormat {
    /// Lossless PNG (real bytes, real size).
    Png,
    /// Lossy JPEG-class artifact: pixels are quantized for display and
    /// the byte size is modeled from quality and measured entropy.
    JpegClass {
        /// Quality 1..=100 — drives both quantization and the size model.
        quality: u8,
    },
}

/// Instructions for one post-processing run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PostProcess {
    /// Optional crop applied first.
    pub crop: Option<Rect>,
    /// Optional uniform scale factor (0 < f <= 1) applied second.
    pub scale: Option<f32>,
    /// Output format.
    pub format: ImageFormat,
}

impl Default for PostProcess {
    fn default() -> Self {
        PostProcess {
            crop: None,
            scale: None,
            format: ImageFormat::Png,
        }
    }
}

/// A processed image artifact ready to serve.
#[derive(Debug, Clone)]
pub struct ProcessedImage {
    /// Pixel data after crop/scale/quantize.
    pub canvas: Canvas,
    /// Encoded bytes: real PNG bytes for [`ImageFormat::Png`]; for
    /// JPEG-class output, a PNG rendition of the degraded pixels (so the
    /// artifact is still viewable) — but see [`ProcessedImage::wire_bytes`].
    pub encoded: Vec<u8>,
    /// The byte count the artifact would occupy on the wire: the encoded
    /// length for PNG, the modeled size for JPEG-class.
    pub wire_size: usize,
    /// Format the artifact represents.
    pub format: ImageFormat,
    /// Wall-clock time spent PNG-encoding `encoded`, so whoever runs
    /// the post-processor can count the encode against its own metrics.
    pub encode_time: Duration,
}

impl ProcessedImage {
    /// Bytes transferred to the client when this artifact is served.
    pub fn wire_bytes(&self) -> usize {
        self.wire_size
    }
}

/// Dimension + quality caps for one fidelity tier — how the adaptation
/// layer expresses "this client is on a 2G link" to the encoder. The
/// caps ride the existing [`PostProcess`] knobs: width in excess of
/// `max_width` is downscaled and the output is JPEG-class at `quality`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FidelityCaps {
    /// Widest the output may be, in pixels; wider canvases downscale.
    pub max_width: u32,
    /// JPEG-class quality (1..=100) for the tier.
    pub quality: u8,
}

impl FidelityCaps {
    /// The [`PostProcess`] run these caps imply for a canvas of
    /// `width` pixels.
    pub fn post_process(&self, width: u32) -> PostProcess {
        let scale = if width > self.max_width && width > 0 {
            Some(self.max_width as f32 / width as f32)
        } else {
            None
        };
        PostProcess {
            crop: None,
            scale,
            format: ImageFormat::JpegClass {
                quality: self.quality,
            },
        }
    }
}

/// Encodes `canvas` under a fidelity tier's caps: downscale to the
/// tier's width bound, then JPEG-class encode at the tier's quality.
///
/// # Examples
///
/// ```
/// use msite_render::{Canvas, Color};
/// use msite_render::image::{process_tiered, FidelityCaps};
///
/// let canvas = Canvas::new(640, 480, Color::WHITE);
/// let low = process_tiered(&canvas, &FidelityCaps { max_width: 160, quality: 20 });
/// let high = process_tiered(&canvas, &FidelityCaps { max_width: 1024, quality: 70 });
/// assert_eq!(low.canvas.width(), 160);
/// assert_eq!(high.canvas.width(), 640); // already under the cap
/// assert!(low.wire_bytes() < high.wire_bytes());
/// ```
pub fn process_tiered(canvas: &Canvas, caps: &FidelityCaps) -> ProcessedImage {
    process(canvas, &caps.post_process(canvas.width()))
}

/// Runs the post-processor.
///
/// # Panics
///
/// Panics if `crop` lies entirely outside the canvas.
///
/// # Examples
///
/// ```
/// use msite_render::{Canvas, Color};
/// use msite_render::image::{process, ImageFormat, PostProcess};
///
/// let canvas = Canvas::new(200, 100, Color::WHITE);
/// let full = process(&canvas, &PostProcess::default());
/// let small = process(&canvas, &PostProcess {
///     scale: Some(0.5),
///     format: ImageFormat::JpegClass { quality: 40 },
///     ..Default::default()
/// });
/// assert!(small.wire_bytes() < full.wire_bytes() || full.wire_bytes() < 2048);
/// assert_eq!(small.canvas.width(), 100);
/// ```
pub fn process(canvas: &Canvas, spec: &PostProcess) -> ProcessedImage {
    let mut work = match &spec.crop {
        Some(rect) => canvas.crop(rect),
        None => canvas.clone(),
    };
    if let Some(scale) = spec.scale {
        let scale = scale.clamp(0.01, 1.0);
        let new_width = ((work.width() as f32 * scale).round() as u32).max(1);
        if new_width < work.width() {
            work = work.downscale_to_width(new_width);
        }
    }
    let modeled_size = match spec.format {
        ImageFormat::Png => None,
        ImageFormat::JpegClass { quality } => {
            let quality = quality.clamp(1, 100);
            // Quantization levels track quality: q=100 -> 256 levels,
            // q=10 -> ~26 levels.
            let levels = ((quality as u16 * 256) / 100).clamp(4, 256);
            work.quantize(levels);
            Some(jpeg_size_model(&work, quality))
        }
    };
    let started = Instant::now();
    let encoded = png::encode(&work);
    let encode_time = started.elapsed();
    ProcessedImage {
        wire_size: modeled_size.unwrap_or(encoded.len()),
        canvas: work,
        encoded,
        format: spec.format,
        encode_time,
    }
}

/// Models the byte size of a baseline JPEG at the given quality.
///
/// JPEG spends roughly `bpp(q)` bits per pixel on photographic content,
/// scaled by how busy the image is. We measure busyness as the mean
/// horizontal gradient magnitude (0..255) normalized so flat synthetic
/// pages land near 0.15 and noise lands near 1.0 — calibrated against
/// the libjpeg size tables for quality 25/50/75/90.
pub fn jpeg_size_model(canvas: &Canvas, quality: u8) -> usize {
    let pixels = canvas.width() as u64 * canvas.height() as u64;
    // Bits per pixel at "busyness 1.0": piecewise-linear over quality.
    let q = quality.clamp(1, 100) as f64;
    let bpp_busy = if q <= 50.0 {
        0.25 + (q / 50.0) * 0.75 // 0.25 .. 1.0
    } else {
        1.0 + ((q - 50.0) / 50.0) * 2.0 // 1.0 .. 3.0
    };
    let busyness = (mean_gradient(canvas) / 24.0).clamp(0.08, 1.0);
    let body = (pixels as f64 * bpp_busy * busyness / 8.0) as usize;
    // Fixed header/tables overhead.
    body + 640
}

fn mean_gradient(canvas: &Canvas) -> f64 {
    let w = canvas.width();
    let h = canvas.height();
    if w < 2 {
        return 0.0;
    }
    let px = canvas.pixels();
    let mut total: u64 = 0;
    let mut count: u64 = 0;
    // Sample every 4th row for speed.
    let mut y = 0;
    while y < h {
        let row = (y * w * 3) as usize;
        for x in 0..(w - 1) as usize {
            let a = px[row + x * 3] as i64;
            let b = px[row + (x + 1) * 3] as i64;
            total += (a - b).unsigned_abs();
            count += 1;
        }
        y += 4;
    }
    if count == 0 {
        0.0
    } else {
        total as f64 / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Color;

    fn busy_canvas(w: u32, h: u32) -> Canvas {
        let mut c = Canvas::new(w, h, Color::WHITE);
        let mut state = 0xDEADBEEFu32;
        for y in 0..h {
            for x in 0..w {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                c.set(
                    x as i32,
                    y as i32,
                    Color::rgb(state as u8, (state >> 8) as u8, (state >> 16) as u8),
                );
            }
        }
        c
    }

    #[test]
    fn scale_halves_dimensions() {
        let c = Canvas::new(100, 80, Color::WHITE);
        let out = process(
            &c,
            &PostProcess {
                scale: Some(0.5),
                ..Default::default()
            },
        );
        assert_eq!(out.canvas.width(), 50);
        assert_eq!(out.canvas.height(), 40);
    }

    #[test]
    fn crop_then_scale() {
        let c = Canvas::new(100, 100, Color::WHITE);
        let out = process(
            &c,
            &PostProcess {
                crop: Some(Rect::new(0.0, 0.0, 60.0, 40.0)),
                scale: Some(0.5),
                ..Default::default()
            },
        );
        assert_eq!(out.canvas.width(), 30);
        assert_eq!(out.canvas.height(), 20);
    }

    #[test]
    fn png_wire_size_is_real() {
        let c = Canvas::new(64, 64, Color::WHITE);
        let out = process(&c, &PostProcess::default());
        assert_eq!(out.wire_size, out.encoded.len());
        assert!(out.encoded.starts_with(&[0x89, b'P', b'N', b'G']));
    }

    #[test]
    fn jpeg_model_monotone_in_quality() {
        let c = busy_canvas(128, 128);
        let sizes: Vec<usize> = [10u8, 25, 50, 75, 95]
            .iter()
            .map(|&q| jpeg_size_model(&c, q))
            .collect();
        for pair in sizes.windows(2) {
            assert!(pair[0] < pair[1], "{sizes:?}");
        }
    }

    #[test]
    fn jpeg_model_scales_with_busyness() {
        let flat = Canvas::new(128, 128, Color::WHITE);
        let busy = busy_canvas(128, 128);
        assert!(jpeg_size_model(&busy, 50) > 3 * jpeg_size_model(&flat, 50));
    }

    #[test]
    fn jpeg_class_quantizes_pixels() {
        let c = busy_canvas(64, 64);
        let before = c.distinct_colors();
        let out = process(
            &c,
            &PostProcess {
                format: ImageFormat::JpegClass { quality: 20 },
                ..Default::default()
            },
        );
        assert!(out.canvas.distinct_colors() < before);
    }

    #[test]
    fn tiered_encode_orders_by_caps() {
        let c = busy_canvas(640, 400);
        let tiers = [
            FidelityCaps {
                max_width: 160,
                quality: 20,
            },
            FidelityCaps {
                max_width: 320,
                quality: 40,
            },
            FidelityCaps {
                max_width: 1024,
                quality: 70,
            },
        ];
        let sizes: Vec<usize> = tiers
            .iter()
            .map(|t| process_tiered(&c, t).wire_bytes())
            .collect();
        assert!(sizes[0] < sizes[1] && sizes[1] < sizes[2], "{sizes:?}");
        // Caps wider than the canvas leave dimensions alone.
        let wide = process_tiered(
            &c,
            &FidelityCaps {
                max_width: 4096,
                quality: 70,
            },
        );
        assert_eq!(wide.canvas.width(), 640);
    }

    #[test]
    fn paper_c2_shape_high_fidelity_vs_reduced() {
        // A "full page" canvas: mostly flat with some busy rows, like a
        // rendered forum. High-fidelity PNG vs quality-40 JPEG-class at
        // half scale must shrink by roughly an order of magnitude.
        let mut page = Canvas::new(1024, 2048, Color::WHITE);
        for band in 0..32 {
            let y = band * 64;
            page.fill_rect_px(0, y, 1024, 20, Color::rgb(0x33, 0x5C, 0x8E));
            page.draw_text(
                8,
                y + 24,
                "Forum row with description text and links",
                13.0,
                Color::BLACK,
            );
        }
        let hi = process(&page, &PostProcess::default());
        let lo = process(
            &page,
            &PostProcess {
                scale: Some(0.5),
                format: ImageFormat::JpegClass { quality: 40 },
                ..Default::default()
            },
        );
        // The full forum-page experiment (C2 in EXPERIMENTS.md) shows the
        // paper's ~12-24x; this small synthetic canvas checks the shape
        // (a clear multiple) cheaply.
        assert!(
            lo.wire_bytes() * 3 < hi.wire_bytes(),
            "hi={} lo={}",
            hi.wire_bytes(),
            lo.wire_bytes()
        );
    }
}
