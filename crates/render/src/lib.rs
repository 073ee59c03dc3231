//! # msite-render
//!
//! The server-side rendering engine of the m.Site reproduction — the
//! substitute for the paper's embedded WebKit. It takes HTML + CSS and
//! produces positioned boxes and rasterized PNG snapshots, entirely in
//! safe Rust with no external codecs:
//!
//! - [`css`]: CSS-lite parsing, the cascade, computed styles;
//! - [`layout`]: block/inline/table flow layout with real text metrics;
//! - [`font`]: a 5×7 bitmap font for deterministic glyph rendering;
//! - [`mod@paint`]: the display list layout flattens into, and its
//!   raster onto a [`canvas`], whole or in horizontal bands;
//! - [`png`]: a streaming PNG encoder over a from-scratch DEFLATE
//!   compressor;
//! - [`image`]: the fidelity post-processor (crop/scale/quantize) as a
//!   row pipeline from a canvas or a banded raster into the encoder;
//! - [`browser`]: the all-in-one [`Browser`] facade with a modeled
//!   instance startup cost — the quantity the paper's Figure 7 varies.
//!
//! ```
//! use msite_render::browser::{Browser, BrowserConfig};
//! use msite_render::image::{process, ImageFormat, PostProcess};
//!
//! let browser = Browser::launch(BrowserConfig::default());
//! let page = browser.render_page(
//!     "<body><h1>Sawmill Creek</h1><p>Woodworking forums</p></body>", &[]);
//! let snapshot = process(&page.canvas, &PostProcess {
//!     scale: Some(0.5),
//!     format: ImageFormat::JpegClass { quality: 40 },
//!     ..Default::default()
//! });
//! assert!(snapshot.wire_bytes() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod browser;
pub mod canvas;
pub mod css;
pub mod font;
pub mod geom;
pub mod image;
pub mod layout;
pub mod paint;
pub mod png;

#[cfg(test)]
#[path = "../tests/inflate/mod.rs"]
mod inflate;
#[cfg(test)]
#[path = "../tests/pages/mod.rs"]
mod pages;

pub use browser::{Browser, BrowserConfig, LaidOutPage, RenderResult, StartupCost};
pub use canvas::Canvas;
pub use css::{compute_styles, ComputedStyle, Stylesheet};
pub use geom::{Color, Rect};
pub use image::{EncodedImage, FidelityCaps, ImageFormat, PostProcess, ProcessedImage};
pub use layout::{layout_document, BoxContent, LayoutBox, LayoutTree};
pub use paint::{paint, DisplayList};
