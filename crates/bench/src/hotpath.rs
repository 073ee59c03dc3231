//! The PR-9 SWAR hot-path experiment: every word-at-a-time fast path
//! must actually beat its scalar twin, not just match it byte-for-byte.
//!
//! The identity gates (property suites in `support`, `html`, `render`,
//! and the root `tests/`) prove the fast and
//! scalar paths produce identical output; this experiment prices them.
//! Two hard gates ride in `check_shape`:
//!
//! 1. **Tokenizer + entity codec** combined must run at least
//!    [`TOKENIZER_GATE`]× faster than the per-byte reference on the
//!    forum/classifieds corpus.
//! 2. **CRC32** (slicing-by-8) must run at least [`CRC_GATE`]× faster
//!    than the per-bit reference.
//!
//! The remaining rows (Adler-32, full zlib) are reported without hard
//! gates — they are workload-shaped and noisier, but `experiments --bench-json=<path>`
//! records the numbers so the trajectory stays visible across PRs.

use crate::fixtures;
use msite_html::entities;
use msite_html::tokenizer::Tokenizer;
use msite_net::{Origin, Request};
use msite_render::png;
use msite_support::json::{obj, ToJson, Value};
use std::time::{Duration, Instant};

/// Minimum speedup the combined tokenizer + entity codec path must
/// show over the scalar reference.
pub const TOKENIZER_GATE: f64 = 1.5;

/// Minimum speedup slicing-by-8 CRC32 must show over the per-bit
/// reference.
pub const CRC_GATE: f64 = 3.0;

/// Outcome of the SWAR hot-path experiment.
#[derive(Debug, Clone)]
pub struct HotpathResult {
    /// Total corpus size fed to the text-side benchmarks, in bytes.
    pub corpus_bytes: usize,
    /// Best-of iterations per measurement.
    pub iterations: usize,
    /// Combined tokenizer + entity codec speedup (scalar / fast).
    pub tokenizer_entity_speedup: f64,
    /// Fast tokenizer+entity throughput over the corpus, MB/s.
    pub tokenizer_mb_s: f64,
    /// CRC32 slicing-by-8 speedup over the per-bit reference.
    pub crc32_speedup: f64,
    /// Fast CRC32 throughput, MB/s.
    pub crc32_mb_s: f64,
    /// Adler-32 unrolled speedup (no hard gate).
    pub adler32_speedup: f64,
    /// Full zlib compress speedup (word match extension + code table).
    pub zlib_speedup: f64,
    /// The tokenizer gate this run was held to.
    pub tokenizer_gate: f64,
    /// The CRC gate this run was held to.
    pub crc_gate: f64,
}

impl HotpathResult {
    /// Whether both hard gates hold.
    pub fn within_gates(&self) -> bool {
        self.tokenizer_entity_speedup >= self.tokenizer_gate && self.crc32_speedup >= self.crc_gate
    }
}

/// Fetches one page body from an origin fixture.
fn page_body(origin: &dyn Origin, url: &str) -> String {
    let req = Request::get(url).expect("fixture url parses");
    String::from_utf8_lossy(&origin.handle(&req).body).into_owned()
}

/// The benchmark corpus: the forum and classifieds entry pages the
/// paper's figures run over, plus a text-heavy synthetic page so long
/// clean runs (the case SWAR exists for) are represented.
fn corpus() -> Vec<String> {
    let forum = fixtures::forum();
    let classifieds = fixtures::classifieds();
    let mut docs = vec![
        page_body(forum.as_ref(), &fixtures::forum_index_url(&forum)),
        page_body(
            classifieds.as_ref(),
            &format!("{}/", classifieds.base_url()),
        ),
    ];
    let mut article = String::from("<html><body>");
    for i in 0..300 {
        article.push_str(&format!(
            "<p>Paragraph {i}: the quick brown fox jumps over the lazy dog, \
             entirely free of markup or entities for a good long run of text.</p>"
        ));
    }
    article.push_str("</body></html>");
    docs.push(article);
    docs
}

/// Best-of-`iters` wall clock of `body`, with a `sink` accumulator so
/// the work cannot be optimized away.
fn best_of(iters: usize, mut body: impl FnMut() -> usize) -> (Duration, usize) {
    let mut best = Duration::MAX;
    let mut sink = 0usize;
    for _ in 0..iters {
        let start = Instant::now();
        sink = sink.wrapping_add(body());
        best = best.min(start.elapsed());
    }
    (best, sink)
}

fn speedup(scalar: Duration, fast: Duration) -> f64 {
    scalar.as_secs_f64() / fast.as_secs_f64().max(1e-12)
}

/// Runs the experiment: each measurement is best-of-`iterations`, fast
/// and scalar interleaved so thermal/cache drift spreads evenly.
pub fn run(iterations: usize) -> HotpathResult {
    let iterations = iterations.max(3);
    let docs = corpus();
    let corpus_bytes: usize = docs.iter().map(|d| d.len()).sum();

    // Tokenizer + entity codec: tokenize each page, then run the codec
    // over every text token (decode is part of tokenization already;
    // encode_text is the serializer's side of the same coin).
    let texts: Vec<String> = docs
        .iter()
        .flat_map(|d| {
            Tokenizer::new(d).filter_map(|t| match t {
                msite_html::tokenizer::Token::Text(s) => Some(s),
                _ => None,
            })
        })
        .collect();
    let tok_fast = best_of(iterations, || {
        let mut n = 0usize;
        for d in &docs {
            n += Tokenizer::new(d).count() + entities::decode(d).len();
        }
        for t in &texts {
            n += entities::encode_text(t).len() + entities::decode(t).len();
        }
        n
    });
    let tok_scalar = best_of(iterations, || {
        let mut n = 0usize;
        for d in &docs {
            n += Tokenizer::new_scalar(d).count() + entities::decode_scalar(d).len();
        }
        for t in &texts {
            n += entities::encode_text_scalar(t).len() + entities::decode_scalar(t).len();
        }
        n
    });

    // Checksums over the concatenated corpus.
    let blob: Vec<u8> = docs.iter().flat_map(|d| d.bytes()).collect();
    let crc_fast = best_of(iterations, || {
        let mut c = png::Crc32::new();
        c.update(&blob);
        c.finish() as usize
    });
    let crc_scalar = best_of(iterations, || {
        let mut c = png::Crc32::new();
        c.update_bitwise(&blob);
        c.finish() as usize
    });
    let adler_fast = best_of(iterations, || png::adler32(&blob) as usize);
    let adler_scalar = best_of(iterations, || png::adler32_scalar(&blob) as usize);
    let zlib_fast = best_of(iterations, || png::zlib_compress(&blob).len());
    let zlib_scalar = best_of(iterations, || png::zlib_compress_scalar(&blob).len());

    // The sinks must agree between twins — a divergence here means an
    // identity gate has a hole.
    assert_eq!(tok_fast.1, tok_scalar.1, "tokenizer twins diverged");
    assert_eq!(crc_fast.1, crc_scalar.1, "crc twins diverged");
    assert_eq!(adler_fast.1, adler_scalar.1, "adler twins diverged");
    assert_eq!(zlib_fast.1, zlib_scalar.1, "zlib twins diverged");

    let mb = |bytes: usize, d: Duration| bytes as f64 / 1e6 / d.as_secs_f64().max(1e-12);
    HotpathResult {
        corpus_bytes,
        iterations,
        tokenizer_entity_speedup: speedup(tok_scalar.0, tok_fast.0),
        tokenizer_mb_s: mb(corpus_bytes, tok_fast.0),
        crc32_speedup: speedup(crc_scalar.0, crc_fast.0),
        crc32_mb_s: mb(blob.len(), crc_fast.0),
        adler32_speedup: speedup(adler_scalar.0, adler_fast.0),
        zlib_speedup: speedup(zlib_scalar.0, zlib_fast.0),
        tokenizer_gate: TOKENIZER_GATE,
        crc_gate: CRC_GATE,
    }
}

/// Shape assertions for the experiments binary.
pub fn check_shape(result: &HotpathResult) -> Result<(), String> {
    if result.corpus_bytes == 0 {
        return Err("empty benchmark corpus".into());
    }
    if result.tokenizer_entity_speedup < result.tokenizer_gate {
        return Err(format!(
            "tokenizer+entity speedup {:.2}x below the {:.1}x gate",
            result.tokenizer_entity_speedup, result.tokenizer_gate
        ));
    }
    if result.crc32_speedup < result.crc_gate {
        return Err(format!(
            "crc32 speedup {:.2}x below the {:.1}x gate",
            result.crc32_speedup, result.crc_gate
        ));
    }
    Ok(())
}

impl ToJson for HotpathResult {
    fn to_json_value(&self) -> Value {
        obj([
            ("corpus_bytes", self.corpus_bytes.to_json_value()),
            ("iterations", self.iterations.to_json_value()),
            (
                "tokenizer_entity_speedup",
                self.tokenizer_entity_speedup.to_json_value(),
            ),
            ("tokenizer_mb_s", self.tokenizer_mb_s.to_json_value()),
            ("crc32_speedup", self.crc32_speedup.to_json_value()),
            ("crc32_mb_s", self.crc32_mb_s.to_json_value()),
            ("adler32_speedup", self.adler32_speedup.to_json_value()),
            ("zlib_speedup", self.zlib_speedup.to_json_value()),
            ("tokenizer_gate", self.tokenizer_gate.to_json_value()),
            ("crc_gate", self.crc_gate.to_json_value()),
            ("within_gates", self.within_gates().to_json_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_nontrivial() {
        let docs = corpus();
        assert_eq!(docs.len(), 3);
        assert!(docs.iter().map(|d| d.len()).sum::<usize>() > 50_000);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "perf gate is only meaningful in release; enforced by `experiments -- hotpath`"
    )]
    fn gates_hold() {
        let result = run(3);
        assert!(
            result.within_gates(),
            "tokenizer+entity {:.2}x (gate {:.1}x), crc32 {:.2}x (gate {:.1}x)",
            result.tokenizer_entity_speedup,
            result.tokenizer_gate,
            result.crc32_speedup,
            result.crc_gate
        );
    }
}
