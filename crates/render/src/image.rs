//! The image fidelity post-processor.
//!
//! The paper: "objects can be passed to a post-processor before being made
//! available to the client, allowing for manipulations in image fidelity
//! and cropping ... a full page rendered into a high-fidelity png can
//! consume upwards of 600K; a post-processor can produce a
//! reduced-fidelity jpg at 25-50k."
//!
//! This module applies crop/scale/quantize to source rows and streams
//! the result into the PNG encoder. The rows come from a [`Canvas`]
//! ([`process`]) or straight from a [`DisplayList`] rastered one band at
//! a time ([`LaidOutPage::encode`]); one row pipeline serves both, so the
//! bytes do not depend on the source. A JPEG-class output size is *modeled*
//! (we do not ship a DCT codec): the estimate is
//! `pixels × bits-per-pixel(q)` with an entropy correction measured from
//! the image itself, which reproduces the paper's size *ratios*; see
//! DESIGN.md §2.

use crate::canvas::Canvas;
use crate::geom::{Color, Rect};
use crate::paint::DisplayList;
use crate::png;
#[cfg(doc)]
use crate::LaidOutPage;
use std::time::{Duration, Instant};

/// Source rows rastered (or read from a canvas) per band: the one
/// page-width buffer the band path holds, 1024 px × 32 rows = 96 KiB.
const BAND_ROWS: u32 = 32;

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

/// An encoded image and what it cost, without its pixels: what the band
/// path returns.
#[derive(Debug, Clone)]
pub struct EncodedImage {
    /// Output width in pixels.
    pub width: u32,
    /// Output height in pixels.
    pub height: u32,
    /// The PNG bytes (see [`ProcessedImage::encoded`]).
    pub encoded: Vec<u8>,
    /// Bytes on the wire (see [`ProcessedImage::wire_size`]).
    pub wire_size: usize,
    /// Time spent rastering bands, summed over the image.
    pub raster_time: Duration,
    /// Time spent cropping, downscaling and quantizing, summed.
    pub scale_time: Duration,
    /// Time spent in the PNG encoder, summed.
    pub encode_time: Duration,
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

/// Runs the post-processor on a whole canvas, returning the processed
/// pixels with the encoded bytes.
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
    let mut rows = RowPipeline::new(canvas.width(), canvas.height(), spec, true);
    let stride = canvas.width() as usize * 3;
    let (first, end) = rows.source_rows();
    let mut y = first;
    while y < end {
        let next = end.min(y.saturating_add(BAND_ROWS));
        rows.push_band(
            y,
            &canvas.pixels()[y as usize * stride..next as usize * stride],
        );
        y = next;
    }
    let (image, pixels) = rows.finish();
    ProcessedImage {
        canvas: Canvas::from_pixels(image.width, image.height, pixels),
        encoded: image.encoded,
        wire_size: image.wire_size,
        format: spec.format,
        encode_time: image.encode_time,
    }
}

/// Rasters a display list band by band through the same row pipeline
/// as [`process`]; see [`LaidOutPage::encode`].
pub(crate) fn encode_page(list: &DisplayList, spec: &PostProcess) -> EncodedImage {
    encode_page_in_bands(list, spec, BAND_ROWS)
}

/// [`encode_page`] with `band_rows` source rows per band; the bytes do
/// not depend on it.
fn encode_page_in_bands(list: &DisplayList, spec: &PostProcess, band_rows: u32) -> EncodedImage {
    let mut rows = RowPipeline::new(list.width(), list.height(), spec, false);
    let (first, end) = rows.source_rows();
    let band_rows = band_rows.clamp(1, end - first);
    let mut band = Canvas::new(list.width(), band_rows, Color::WHITE);
    let mut raster_time = Duration::ZERO;
    let mut y = first;
    while y < end {
        let next = end.min(y.saturating_add(band_rows));
        let started = Instant::now();
        band.reset(next - y, Color::WHITE);
        list.raster_band(y, &mut band);
        raster_time += started.elapsed();
        rows.push_band(y, band.pixels());
        y = next;
    }
    let (mut image, _) = rows.finish();
    image.raster_time = raster_time;
    image
}

/// One post-processing run over source rows that arrive top to bottom
/// in bands: crop is a row and column range, the box downscale sums
/// each output row's source window as its rows pass, quantize is a
/// table lookup, and every finished output row goes to the encoder.
struct RowPipeline {
    /// Bytes per source row.
    stride: usize,
    /// The crop in source pixels: columns `[x0, x1)`, rows `[y0, y1)`.
    x0: usize,
    x1: usize,
    y0: u32,
    y1: u32,
    downscale: Option<Downscale>,
    out: OutputRows,
    format: ImageFormat,
    scale_time: Duration,
}

impl RowPipeline {
    fn new(width: u32, height: u32, spec: &PostProcess, collect: bool) -> RowPipeline {
        let (x0, y0, x1, y1) = match &spec.crop {
            Some(rect) => {
                let (x, y, w, h) = rect.to_pixels();
                let x0 = x.max(0) as u32;
                let y0 = y.max(0) as u32;
                let x1 = (x.saturating_add(w).max(0) as u32).min(width);
                let y1 = (y.saturating_add(h).max(0) as u32).min(height);
                assert!(x1 > x0 && y1 > y0, "crop region empty");
                (x0, y0, x1, y1)
            }
            None => (0, 0, width, height),
        };
        let (crop_w, crop_h) = (x1 - x0, y1 - y0);
        let downscale = spec.scale.and_then(|scale| {
            let scale = scale.clamp(0.01, 1.0);
            let new_width = ((crop_w as f32 * scale).round() as u32).max(1);
            (new_width < crop_w).then(|| Downscale::new(crop_w, crop_h, new_width))
        });
        let (out_w, out_h) = match &downscale {
            Some(d) => (d.cols.len() as u32, d.rows.len() as u32),
            None => (crop_w, crop_h),
        };
        let quality = match spec.format {
            ImageFormat::Png => None,
            ImageFormat::JpegClass { quality } => Some(quality.clamp(1, 100)),
        };
        RowPipeline {
            stride: width as usize * 3,
            x0: x0 as usize,
            x1: x1 as usize,
            y0,
            y1,
            downscale,
            out: OutputRows::new(out_w, out_h, quality, collect),
            format: spec.format,
            scale_time: Duration::ZERO,
        }
    }

    /// Source rows `[first, end)` the pipeline reads: the crop's rows,
    /// less any below the last downscale window.
    fn source_rows(&self) -> (u32, u32) {
        let end = match &self.downscale {
            Some(d) => self.y0 + d.rows.last().map_or(0, |&(_, end)| end),
            None => self.y1,
        };
        (self.y0, end)
    }

    /// Takes the source rows starting at page row `first`, full width.
    fn push_band(&mut self, first: u32, band: &[u8]) {
        let started = Instant::now();
        for (k, row) in band.chunks_exact(self.stride).enumerate() {
            let y = first + k as u32;
            if y < self.y0 || y >= self.y1 {
                continue;
            }
            let row = &row[self.x0 * 3..self.x1 * 3];
            match &mut self.downscale {
                Some(d) => d.push(y - self.y0, row, &mut self.out),
                None => self.out.take(row),
            }
        }
        self.scale_time += started.elapsed();
        self.out.flush();
    }

    /// The encoded image and, when collecting, the processed pixels.
    fn finish(self) -> (EncodedImage, Vec<u8>) {
        let out = self.out;
        assert_eq!(out.next_row, out.height, "row pipeline fed too few rows");
        let (width, height) = (out.width, out.height);
        let started = Instant::now();
        let encoded = out.encoder.finish();
        let encode_time = out.encode_time + started.elapsed();
        let wire_size = match self.format {
            ImageFormat::JpegClass { quality } => {
                modeled_size(width as u64 * height as u64, out.gradient.mean(), quality)
            }
            ImageFormat::Png => encoded.len(),
        };
        let image = EncodedImage {
            width,
            height,
            encoded,
            wire_size,
            raster_time: Duration::ZERO,
            scale_time: self.scale_time,
            encode_time,
        };
        (image, out.collected)
    }
}

/// A box-filter downsample to a narrower width, preserving aspect
/// ratio. The source window of every output column and row is computed
/// once, from the same `f32` expressions for every image; windows are
/// contiguous, so each source row is summed into the output rows whose
/// windows hold it and then dropped.
struct Downscale {
    /// Source columns `[start, end)` of each output column.
    cols: Vec<(u32, u32)>,
    /// Source rows `[start, end)` of each output row.
    rows: Vec<(u32, u32)>,
    /// Per source column and channel: the sum over the current output
    /// row's window rows seen so far (its first row overwrites).
    sums: Vec<u32>,
    /// `RECIP_ONE / n + 1` for every window area `n`: the average is a
    /// multiply and a shift instead of a division.
    recip: Vec<u64>,
    /// The output row being accumulated.
    next: usize,
    row: Vec<u8>,
}

/// Fixed point of [`Downscale::recip`]: `(x · (2⁴⁸/n + 1)) >> 48` equals
/// `x / n` for every `x ≤ 255·n` while `255·n² < 2⁴⁸`.
const RECIP_SHIFT: u32 = 48;

impl Downscale {
    fn new(width: u32, height: u32, new_width: u32) -> Downscale {
        let new_width = new_width.clamp(1, width);
        let factor = width as f32 / new_width as f32;
        let new_height = ((height as f32 / factor).round() as u32).max(1);
        let windows = |count: u32, limit: u32| -> Vec<(u32, u32)> {
            (0..count)
                .map(|o| {
                    let start = (o as f32 * factor) as u32;
                    let end = (((o + 1) as f32 * factor) as u32).clamp(start + 1, limit);
                    (start, end)
                })
                .collect()
        };
        let cols = windows(new_width, width);
        let rows = windows(new_height, height);
        let span = |w: &[(u32, u32)]| w.iter().map(|&(a, b)| b - a).max().unwrap_or(1) as u64;
        let max_area = span(&cols) * span(&rows);
        assert!(
            255 * max_area * max_area < 1 << RECIP_SHIFT,
            "downscale window too large"
        );
        let recip = (0..=max_area)
            .map(|n| ((1u64 << RECIP_SHIFT) / n.max(1)) + 1)
            .collect();
        Downscale {
            sums: vec![0; width as usize * 3],
            row: vec![0; new_width as usize * 3],
            cols,
            rows,
            recip,
            next: 0,
        }
    }

    /// Adds crop row `r` to every window that holds it, emitting each
    /// output row whose window ends there.
    fn push(&mut self, r: u32, row: &[u8], out: &mut OutputRows) {
        while let Some(&(start, end)) = self.rows.get(self.next) {
            if r < start {
                return;
            }
            if r == start {
                for (sum, &v) in self.sums.iter_mut().zip(row) {
                    *sum = u32::from(v);
                }
            } else {
                for (sum, &v) in self.sums.iter_mut().zip(row) {
                    *sum += u32::from(v);
                }
            }
            if r + 1 < end {
                return;
            }
            let rows = end - start;
            for (&(sx0, sx1), px) in self.cols.iter().zip(self.row.chunks_exact_mut(3)) {
                let recip = self.recip[((sx1 - sx0) * rows) as usize];
                let (mut r, mut g, mut b) = (0u32, 0u32, 0u32);
                for sum in self.sums[sx0 as usize * 3..sx1 as usize * 3].chunks_exact(3) {
                    r += sum[0];
                    g += sum[1];
                    b += sum[2];
                }
                let average = |total: u32| ((u64::from(total) * recip) >> RECIP_SHIFT) as u8;
                px.copy_from_slice(&[average(r), average(g), average(b)]);
            }
            out.take(&self.row);
            self.next += 1;
            // A window that overlaps this one starts at `r`: loop.
        }
    }
}

/// The output side: quantize, sample the gradient, keep the pixels if
/// asked, and feed the encoder one band's rows at a time.
struct OutputRows {
    width: u32,
    height: u32,
    next_row: u32,
    levels: Option<[u8; 256]>,
    gradient: Gradient,
    /// Quantized output rows of the current band.
    pending: Vec<u8>,
    collect: bool,
    collected: Vec<u8>,
    encoder: png::Encoder,
    encode_time: Duration,
}

impl OutputRows {
    fn new(width: u32, height: u32, quality: Option<u8>, collect: bool) -> OutputRows {
        OutputRows {
            width,
            height,
            next_row: 0,
            levels: quality.map(quantize_table),
            gradient: Gradient::default(),
            pending: Vec::new(),
            collect,
            collected: Vec::new(),
            encoder: png::Encoder::new(width, height),
            encode_time: Duration::ZERO,
        }
    }

    fn take(&mut self, row: &[u8]) {
        let start = self.pending.len();
        match &self.levels {
            Some(table) => {
                self.pending.resize(start + row.len(), 0);
                for (out, &byte) in self.pending[start..].iter_mut().zip(row) {
                    *out = table[byte as usize];
                }
            }
            None => self.pending.extend_from_slice(row),
        }
        let row = &self.pending[start..];
        if self.levels.is_some() {
            self.gradient.sample(self.next_row, row);
        }
        if self.collect {
            self.collected.extend_from_slice(row);
        }
        self.next_row += 1;
    }

    fn flush(&mut self) {
        let started = Instant::now();
        for row in self.pending.chunks_exact(self.width as usize * 3) {
            self.encoder.push_row(row);
        }
        self.pending.clear();
        self.encode_time += started.elapsed();
    }
}

/// Quantization levels track quality: q=100 → 256 levels, q=10 → ~26
/// levels. Entry `b` is byte `b` rounded to the nearest level.
fn quantize_table(quality: u8) -> [u8; 256] {
    let levels = ((quality as u32 * 256) / 100).clamp(4, 256);
    let step = 255.0 / (levels - 1) as f32;
    let mut table = [0u8; 256];
    for (byte, slot) in table.iter_mut().enumerate() {
        let level = (byte as f32 / step).round();
        *slot = (level * step).round().clamp(0.0, 255.0) as u8;
    }
    table
}

/// Mean horizontal gradient of the red channel over every 4th row — the
/// busyness term of [`jpeg_size_model`], sampled as rows pass.
#[derive(Default)]
struct Gradient {
    total: u64,
    count: u64,
}

impl Gradient {
    fn sample(&mut self, y: u32, row: &[u8]) {
        if !y.is_multiple_of(4) {
            return;
        }
        let red = row.iter().step_by(3);
        for (a, b) in red.clone().zip(red.skip(1)) {
            self.total += (*a as i64 - *b as i64).unsigned_abs();
            self.count += 1;
        }
    }

    fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
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
    let mut gradient = Gradient::default();
    for (y, row) in canvas
        .pixels()
        .chunks_exact(canvas.width() as usize * 3)
        .enumerate()
    {
        gradient.sample(y as u32, row);
    }
    modeled_size(
        canvas.width() as u64 * canvas.height() as u64,
        gradient.mean(),
        quality,
    )
}

fn modeled_size(pixels: u64, gradient: f64, quality: u8) -> usize {
    // Bits per pixel at "busyness 1.0": piecewise-linear over quality.
    let q = quality.clamp(1, 100) as f64;
    let bpp_busy = if q <= 50.0 {
        0.25 + (q / 50.0) * 0.75 // 0.25 .. 1.0
    } else {
        1.0 + ((q - 50.0) / 50.0) * 2.0 // 1.0 .. 3.0
    };
    let busyness = (gradient / 24.0).clamp(0.08, 1.0);
    let body = (pixels as f64 * bpp_busy * busyness / 8.0) as usize;
    // Fixed header/tables overhead.
    body + 640
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::browser::{Browser, BrowserConfig};
    use crate::geom::Color;
    use crate::inflate::png_scanlines;
    use crate::pages::arb_page;
    use msite_net::{Origin, Request};
    use msite_sites::{
        ClassifiedsConfig, ClassifiedsSite, ForumConfig, ForumSite, NewsConfig, NewsSite,
    };

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

    fn scaled(c: &Canvas, scale: f32) -> Canvas {
        process(
            c,
            &PostProcess {
                scale: Some(scale),
                ..Default::default()
            },
        )
        .canvas
    }

    #[test]
    fn downscale_keeps_left_and_right_halves_apart() {
        let mut c = Canvas::new(100, 60, Color::WHITE);
        c.fill_rect_px(0, 0, 50, 60, Color::BLACK);
        let small = scaled(&c, 0.5);
        assert_eq!((small.width(), small.height()), (50, 30));
        // Left half black, right half white (away from the seam).
        assert_eq!(small.get(10, 15), Color::BLACK);
        assert_eq!(small.get(40, 15), Color::WHITE);
    }

    #[test]
    fn downscale_averages_each_window() {
        // Checkerboard of black/white downsampled 2x → mid gray
        // (4 · 255 / 2 / 4, floored).
        let mut c = Canvas::new(4, 4, Color::WHITE);
        for y in 0..4 {
            for x in 0..4 {
                if (x + y) % 2 == 0 {
                    c.set(x, y, Color::BLACK);
                }
            }
        }
        let small = scaled(&c, 0.5);
        assert_eq!(small.get(0, 0), Color::rgb(127, 127, 127));
    }

    #[test]
    fn downscale_windows_at_a_non_integer_factor() {
        // 10 → 3 columns: factor 3.33, windows [0,3) [3,6) [6,10); rows
        // 7 → round(2.1) = 2: windows [0,3) [3,6), so row 6 is unread.
        let mut c = Canvas::new(10, 7, Color::BLACK);
        for x in 0..10 {
            c.set(x, 6, Color::WHITE);
        }
        c.fill_rect_px(6, 0, 4, 6, Color::rgb(40, 80, 120));
        let small = scaled(&c, 0.3);
        assert_eq!((small.width(), small.height()), (3, 2));
        assert_eq!(small.get(0, 1), Color::BLACK);
        assert_eq!(small.get(2, 0), Color::rgb(40, 80, 120));
    }

    #[test]
    fn quantize_reduces_palette() {
        let mut c = Canvas::new(16, 16, Color::WHITE);
        for y in 0..16 {
            for x in 0..16 {
                c.set(x, y, Color::rgb((x * 16) as u8, (y * 16) as u8, 128));
            }
        }
        let before = c.distinct_colors();
        let out = process(
            &c,
            &PostProcess {
                format: ImageFormat::JpegClass { quality: 1 },
                ..Default::default()
            },
        );
        // Quality 1 keeps the 4-level floor: at most 4x4 combinations
        // for the varying r,g.
        assert!(out.canvas.distinct_colors() < before);
        assert!(out.canvas.distinct_colors() <= 16);
    }

    #[test]
    fn quantize_table_keeps_the_extremes() {
        for quality in [1, 20, 50, 100] {
            let table = quantize_table(quality);
            assert_eq!((table[0], table[255]), (0, 255), "q{quality}");
        }
        assert_eq!(quantize_table(100), std::array::from_fn(|b| b as u8));
    }

    #[test]
    fn crop_extracts_region() {
        let mut c = Canvas::new(10, 10, Color::WHITE);
        c.set(5, 5, Color::BLACK);
        let out = process(
            &c,
            &PostProcess {
                crop: Some(Rect::new(4.0, 4.0, 3.0, 3.0)),
                ..Default::default()
            },
        );
        assert_eq!(out.canvas.width(), 3);
        assert_eq!(out.canvas.get(1, 1), Color::BLACK);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn crop_outside_panics() {
        let c = Canvas::new(4, 4, Color::WHITE);
        let _ = process(
            &c,
            &PostProcess {
                crop: Some(Rect::new(100.0, 100.0, 5.0, 5.0)),
                ..Default::default()
            },
        );
    }

    #[test]
    fn reciprocal_average_equals_division() {
        // Every sum of small windows, then the quotient boundaries of
        // window areas up to the largest a 0.01 scale can produce.
        for n in 1..=64u64 {
            let recip = ((1u64 << RECIP_SHIFT) / n) + 1;
            for x in 0..=255 * n {
                assert_eq!((x * recip) >> RECIP_SHIFT, x / n, "{x} / {n}");
            }
        }
        for n in [65u64, 100, 255, 1_000, 4_097, 10_201, 40_401] {
            let recip = ((1u64 << RECIP_SHIFT) / n) + 1;
            for q in 0..=255 {
                for x in [q * n, (q * n).saturating_sub(1), q * n + n / 2] {
                    assert_eq!((x * recip) >> RECIP_SHIFT, x / n, "{x} / {n}");
                }
            }
        }
    }

    /// Post-processing runs the band path knows: a plain encode, the
    /// snapshot's half-scale JPEG class, a crop with a non-integer
    /// scale, and a pre-render's quality alone.
    fn band_specs() -> [PostProcess; 4] {
        [
            PostProcess::default(),
            PostProcess {
                scale: Some(0.5),
                format: ImageFormat::JpegClass { quality: 40 },
                ..Default::default()
            },
            PostProcess {
                crop: Some(Rect::new(3.5, 0.0, 290.0, 331.0)),
                scale: Some(0.37),
                format: ImageFormat::JpegClass { quality: 70 },
            },
            PostProcess {
                format: ImageFormat::JpegClass { quality: 50 },
                ..Default::default()
            },
        ]
    }

    /// Every band height gives the bytes of the whole-page path, and the
    /// IDAT inflates to the rows of the canvas `process` returns.
    fn assert_band_invariant(html: &str, viewport_width: u32) {
        let browser = Browser::launch(BrowserConfig {
            viewport_width,
            ..BrowserConfig::default()
        });
        let page = browser.lay_out(html, &[]);
        let canvas = page.display.raster();
        for spec in band_specs() {
            let whole = process(&canvas, &spec);
            let width = whole.canvas.width() as usize * 3;
            let scanlines: Vec<u8> = whole
                .canvas
                .pixels()
                .chunks_exact(width)
                .flat_map(|row| std::iter::once(0).chain(row.iter().copied()))
                .collect();
            assert_eq!(png_scanlines(&whole.encoded), scanlines);
            for band_rows in [1, 7, 64, canvas.height()] {
                let banded = encode_page_in_bands(&page.display, &spec, band_rows);
                assert_eq!(
                    (banded.width, banded.height),
                    (whole.canvas.width(), whole.canvas.height())
                );
                assert!(
                    banded.encoded == whole.encoded,
                    "{band_rows}-row bands diverged under {spec:?}"
                );
                assert_eq!(banded.wire_size, whole.wire_size);
            }
        }
    }

    #[test]
    fn band_raster_matches_the_whole_page_on_fixtures() {
        let get =
            |origin: &dyn Origin, url: &str| origin.handle(&Request::get(url).unwrap()).body_text();
        let forum = ForumSite::new(ForumConfig::default());
        let classifieds = ClassifiedsSite::new(ClassifiedsConfig::default());
        let news = NewsSite::new(NewsConfig::default());
        let pages = [
            get(&forum, &format!("{}/index.php", forum.base_url())),
            get(
                &classifieds,
                &format!("{}/search?cat=tools&page=0", classifieds.base_url()),
            ),
            get(&news, &format!("{}/", news.base_url())),
            get(&news, &format!("{}/gallery", news.base_url())),
        ];
        for page in &pages {
            assert_band_invariant(page, 1024);
        }
    }

    #[test]
    fn band_raster_matches_the_whole_page_on_arbitrary_pages() {
        msite_support::prop::check("band raster invariance", 24, 0x4E4D_E217, |g| {
            let page = arb_page(g);
            let width = g.range_u32(300, 700);
            assert_band_invariant(&page, width);
        });
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
                2,
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
