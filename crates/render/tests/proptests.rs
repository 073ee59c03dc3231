//! Property tests for the rendering engine: layout invariants, raster
//! bounds, and codec round trips on arbitrary inputs.

mod pages;

use msite_html::parse_document;
use msite_render::image::{process, ImageFormat, PostProcess};
use msite_render::{
    compute_styles, layout_document, paint, png, Canvas, Color, LayoutBox, Stylesheet,
};
use msite_support::prop::{self, Gen};
use pages::arb_page;

fn walk_boxes(b: &LayoutBox, f: &mut impl FnMut(&LayoutBox)) {
    f(b);
    for c in &b.children {
        walk_boxes(c, f);
    }
}

/// No layout box extends left of the viewport or above the page, and
/// widths/heights are never negative or NaN.
#[test]
fn layout_boxes_sane() {
    prop::check("layout boxes sane", 48, 0x4E4D_E210, |g| {
        let page = arb_page(g);
        let width = g.range_f32(120.0, 1200.0);
        let doc = parse_document(&page);
        let styles = compute_styles(&doc, &Stylesheet::default());
        let tree = layout_document(&doc, &styles, width);
        assert!(tree.page_height.is_finite());
        assert!(tree.page_height >= 0.0);
        let mut ok = true;
        walk_boxes(&tree.root, &mut |b| {
            if !(b.rect.w.is_finite()
                && b.rect.h.is_finite()
                && b.rect.x.is_finite()
                && b.rect.y.is_finite()
                && b.rect.w >= 0.0
                && b.rect.h >= 0.0
                && b.rect.x >= -0.5
                && b.rect.y >= -0.5)
            {
                ok = false;
            }
        });
        assert!(ok, "degenerate box in {page}");
    });
}

/// Block-level siblings under the same parent never overlap vertically
/// (flow layout stacks them).
#[test]
fn sibling_blocks_do_not_overlap() {
    prop::check("sibling blocks do not overlap", 48, 0x4E4D_E211, |g| {
        let count = g.range_usize(1, 8);
        let height = g.range_u32(10, 80);
        let body: String = (0..count)
            .map(|i| format!("<div id=\"b{i}\" style=\"height:{height}px\">x</div>"))
            .collect();
        let page = format!("<body style=\"margin:0\">{body}</body>");
        let doc = parse_document(&page);
        let styles = compute_styles(&doc, &Stylesheet::default());
        let tree = layout_document(&doc, &styles, 400.0);
        let mut rects = Vec::new();
        for i in 0..count {
            let id = doc.element_by_id(&format!("b{i}")).unwrap();
            rects.push(tree.rect_of(id).unwrap());
        }
        for pair in rects.windows(2) {
            assert!(
                pair[0].bottom() <= pair[1].y + 0.01,
                "{:?} overlaps {:?}",
                pair[0],
                pair[1]
            );
        }
    });
}

/// Painting any laid-out page stays within the clamped canvas and is
/// deterministic.
#[test]
fn paint_total_and_deterministic() {
    prop::check("paint total and deterministic", 48, 0x4E4D_E212, |g| {
        let page = arb_page(g);
        let doc = parse_document(&page);
        let styles = compute_styles(&doc, &Stylesheet::default());
        let tree = layout_document(&doc, &styles, 320.0);
        let a = paint(&tree, 2048);
        let b = paint(&tree, 2048);
        assert!(a.height() <= 2048);
        assert_eq!(a.pixels(), b.pixels());
    });
}

/// The zlib stream produced for arbitrary bytes carries a correct
/// Adler-32 and never inflates catastrophically.
#[test]
fn zlib_compress_bounded() {
    prop::check("zlib compress bounded", 48, 0x4E4D_E213, |g| {
        let data = g.vec(0, 4095, Gen::u8);
        let z = png::zlib_compress(&data);
        // Fixed-Huffman worst case is ~9/8 of input plus framing.
        assert!(
            z.len() <= data.len() * 9 / 8 + 64,
            "{} -> {}",
            data.len(),
            z.len()
        );
        let stored = u32::from_be_bytes(z[z.len() - 4..].try_into().unwrap());
        assert_eq!(stored, png::adler32(&data));
    });
}

/// PNG encoding yields structurally valid files for arbitrary canvas
/// contents, with CRCs that verify.
#[test]
fn png_structure_holds() {
    prop::check("png structure holds", 48, 0x4E4D_E214, |g| {
        let w = g.range_u32(1, 48);
        let h = g.range_u32(1, 48);
        let mut canvas = Canvas::new(w, h, Color::WHITE);
        for y in 0..h {
            for x in 0..w {
                let v = g.u64();
                canvas.set(
                    x as i32,
                    y as i32,
                    Color::rgb(v as u8, (v >> 8) as u8, (v >> 16) as u8),
                );
            }
        }
        let bytes = png::encode(&canvas);
        assert!(bytes.starts_with(&[0x89, b'P', b'N', b'G']));
        // Verify every chunk CRC.
        let mut pos = 8;
        while pos < bytes.len() {
            let len = u32::from_be_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            let kind = &bytes[pos + 4..pos + 8];
            let data = &bytes[pos + 8..pos + 8 + len];
            let stored =
                u32::from_be_bytes(bytes[pos + 8 + len..pos + 12 + len].try_into().unwrap());
            let mut crc = png::Crc32::new();
            crc.update(kind);
            crc.update(data);
            assert_eq!(crc.finish(), stored);
            pos += 12 + len;
        }
        assert_eq!(pos, bytes.len());
    });
}

/// Downscaling preserves the average brightness within quantization
/// error (box filter is a mean).
#[test]
fn downscale_preserves_mean() {
    prop::check("downscale preserves mean", 48, 0x4E4D_E215, |g| {
        let mut canvas = Canvas::new(64, 64, Color::WHITE);
        for y in 0..64 {
            for x in 0..64 {
                let v = (g.u64() & 0xFF) as u8;
                canvas.set(x, y, Color::rgb(v, v, v));
            }
        }
        let mean = |c: &Canvas| {
            let px = c.pixels();
            px.iter().map(|&b| b as f64).sum::<f64>() / px.len() as f64
        };
        let before = mean(&canvas);
        let small = process(
            &canvas,
            &PostProcess {
                scale: Some(0.25),
                ..Default::default()
            },
        );
        assert_eq!(small.canvas.width(), 16);
        let after = mean(&small.canvas);
        assert!((before - after).abs() < 6.0, "{before} vs {after}");
    });
}

/// Quantization is idempotent: quantizing twice equals once.
#[test]
fn quantize_idempotent() {
    prop::check("quantize idempotent", 48, 0x4E4D_E216, |g| {
        let spec = PostProcess {
            format: ImageFormat::JpegClass {
                quality: g.range_u32(1, 100) as u8,
            },
            ..Default::default()
        };
        let mut canvas = Canvas::new(16, 16, Color::WHITE);
        for y in 0..16 {
            for x in 0..16 {
                let v = g.u64();
                canvas.set(x, y, Color::rgb(v as u8, (v >> 8) as u8, (v >> 16) as u8));
            }
        }
        let once = process(&canvas, &spec);
        let twice = process(&once.canvas, &spec);
        assert_eq!(once.canvas.pixels(), twice.canvas.pixels());
        assert_eq!(once.encoded, twice.encoded);
    });
}
