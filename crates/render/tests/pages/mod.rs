//! Arbitrary pages for the render crate's property tests: a random run
//! of paragraphs, sized divs, tables, images and headings. Shared by the
//! crate's property tests and, by path, its unit tests.

use msite_support::prop::Gen;

/// A `<body>` of up to ten random blocks.
pub fn arb_page(g: &mut Gen) -> String {
    let blocks: Vec<String> = g.vec(0, 11, |g| match g.range_u32(0, 5) {
        0 => format!(
            "<p>{}</p>",
            g.string_from("abcdefghijklmnopqrstuvwxyz ", 0, 20)
        ),
        1 => format!(
            "<div style=\"height:{}px\">{}</div>",
            g.range_u32(10, 200),
            g.string_from("abcdefghijklmnopqrstuvwxyz ", 0, 12)
        ),
        2 => format!(
            "<table><tr><td>{}</td><td>{}</td></tr></table>",
            g.string_from("abcdefghijklmnopqrstuvwxyz", 1, 6),
            g.string_from("abcdefghijklmnopqrstuvwxyz", 1, 6)
        ),
        3 => format!(
            "<img src=\"x.gif\" width=\"{}\" height=\"{}\">",
            g.range_u32(10, 600),
            g.range_u32(10, 200)
        ),
        _ => format!(
            "<h2>{}</h2>",
            g.string_from("abcdefghijklmnopqrstuvwxyz ", 0, 16)
        ),
    });
    format!("<body style=\"margin:0\">{}</body>", blocks.concat())
}
