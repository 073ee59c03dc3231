//! The PR-10 content-adaptation experiment.
//!
//! Two claims are checked against the ad-heavy news fixture, whose
//! blocks carry `data-msite-region` ground-truth labels the scorer
//! never reads (it only sees tags/ids/classes):
//!
//! 1. **Extraction quality.** Readability extraction over a sweep of
//!    differently-seeded and differently-shaped articles must keep the
//!    labeled content regions and drop the labeled boilerplate —
//!    precision and recall both >= 0.9 against the labels.
//! 2. **Fidelity tiers.** Re-encoding the gallery under each bandwidth
//!    tier's caps must order total wire bytes with the link: 2G
//!    strictly below WiFi, and monotone across the tier ladder.

use msite::attributes::{AdaptationSpec, Attribute, Target};
use msite::{adapt_with_report, PipelineContext};
use msite_net::{BandwidthClass, Origin, Request};
use msite_sites::{NewsConfig, NewsSite};
use msite_support::json::{obj, ToJson, Value};

/// Ground-truth label prefix stamped on every fixture block.
const LABEL: &str = "data-msite-region=\"";

/// Extraction quality against the fixture's ground-truth labels.
#[derive(Debug, Clone)]
pub struct ExtractionResult {
    /// Article variants swept (seed + shape both vary).
    pub pages: usize,
    /// Labeled content regions across all originals.
    pub content_total: usize,
    /// Labeled content regions surviving extraction.
    pub content_kept: usize,
    /// All labeled regions surviving extraction (content + boiler).
    pub labels_kept: usize,
}

impl ExtractionResult {
    /// Fraction of kept labeled regions that are content.
    pub fn precision(&self) -> f64 {
        if self.labels_kept == 0 {
            return 0.0;
        }
        self.content_kept as f64 / self.labels_kept as f64
    }

    /// Fraction of content regions that survived.
    pub fn recall(&self) -> f64 {
        if self.content_total == 0 {
            return 0.0;
        }
        self.content_kept as f64 / self.content_total as f64
    }
}

/// Total wire bytes for one bandwidth tier's gallery adaptation.
#[derive(Debug, Clone)]
pub struct TierPoint {
    /// Tier name (`2g`, `3g`, `wifi`).
    pub tier: String,
    /// Entry-page HTML bytes.
    pub entry_bytes: usize,
    /// Summed wire size of the re-encoded images.
    pub image_bytes: usize,
}

impl TierPoint {
    /// Entry plus images — what the link actually carries.
    pub fn total_bytes(&self) -> usize {
        self.entry_bytes + self.image_bytes
    }
}

/// The full PR-10 experiment result.
#[derive(Debug, Clone)]
pub struct ContentResult {
    /// Extraction precision/recall sweep.
    pub extraction: ExtractionResult,
    /// Boilerplate blocks stripped at aggressiveness 2 on the default
    /// article (sanity signal that the strip path does real work).
    pub stripped_blocks: usize,
    /// Gallery wire bytes per tier, slowest link first.
    pub tiers: Vec<TierPoint>,
}

fn context() -> PipelineContext {
    PipelineContext {
        base: "/m/news".into(),
        ..PipelineContext::default()
    }
}

fn news_page(config: NewsConfig, path: &str) -> String {
    let host = config.host.clone();
    let site = NewsSite::new(config);
    site.handle(&Request::get(&format!("http://{host}{path}")).unwrap())
        .body_text()
}

fn spec_with(attributes: Vec<Attribute>) -> AdaptationSpec {
    let mut spec = AdaptationSpec::new("news", "http://news.test/");
    spec.snapshot = None;
    spec.rule(Target::Css("body".into()), attributes)
}

fn count_labels(html: &str) -> usize {
    html.matches(LABEL).count()
}

fn count_content_labels(html: &str) -> usize {
    html.matches(&format!("{LABEL}content\"")).count()
}

/// Sweeps `pages` differently-shaped articles through extraction and
/// scores the survivors against the ground-truth labels.
pub fn run_extraction(pages: usize) -> ExtractionResult {
    let spec = spec_with(vec![Attribute::ExtractMainContent]);
    let ctx = context();
    let mut result = ExtractionResult {
        pages,
        content_total: 0,
        content_kept: 0,
        labels_kept: 0,
    };
    for i in 0..pages {
        let config = NewsConfig {
            seed: 0x9E05 + i as u64 * 7,
            paragraphs: 4 + (i as u32 % 7),
            ad_slots: 1 + (i as u32 % 5),
            comments: 2 + (i as u32 % 6),
            ..NewsConfig::default()
        };
        let page = news_page(config, "/");
        result.content_total += count_content_labels(&page);
        let (bundle, _) = adapt_with_report(&spec, &page, &ctx).expect("news page adapts");
        result.content_kept += count_content_labels(&bundle.entry_html);
        result.labels_kept += count_labels(&bundle.entry_html);
    }
    result
}

/// Counts stripped blocks on the default article at aggressiveness 2.
pub fn run_strip() -> usize {
    let page = news_page(NewsConfig::default(), "/");
    let before = count_labels(&page);
    let spec = spec_with(vec![Attribute::StripBoilerplate { aggressiveness: 2 }]);
    let (bundle, _) = adapt_with_report(&spec, &page, &context()).expect("news page adapts");
    before - count_labels(&bundle.entry_html)
}

/// Adapts the gallery under each tier's caps, slowest link first.
pub fn run_tiers() -> Vec<TierPoint> {
    let page = news_page(NewsConfig::default(), "/gallery");
    BandwidthClass::ALL
        .iter()
        .map(|class| {
            let spec = spec_with(vec![Attribute::FidelityTier { tier: Some(*class) }]);
            let (bundle, _) = adapt_with_report(&spec, &page, &context()).expect("gallery adapts");
            TierPoint {
                tier: class.name().to_string(),
                entry_bytes: bundle.entry_html.len(),
                image_bytes: bundle.images.iter().map(|i| i.wire_size).sum(),
            }
        })
        .collect()
}

/// Runs the full experiment.
pub fn run(pages: usize) -> ContentResult {
    ContentResult {
        extraction: run_extraction(pages),
        stripped_blocks: run_strip(),
        tiers: run_tiers(),
    }
}

/// Shape assertions for the experiments binary.
pub fn check_shape(result: &ContentResult) -> Result<(), String> {
    let e = &result.extraction;
    if e.precision() < 0.9 {
        return Err(format!(
            "extraction precision {:.3} below 0.9 ({} content kept of {} labels kept)",
            e.precision(),
            e.content_kept,
            e.labels_kept
        ));
    }
    if e.recall() < 0.9 {
        return Err(format!(
            "extraction recall {:.3} below 0.9 ({} content kept of {} total)",
            e.recall(),
            e.content_kept,
            e.content_total
        ));
    }
    if result.stripped_blocks == 0 {
        return Err("strip pass removed no labeled blocks".into());
    }
    let slowest = result
        .tiers
        .first()
        .ok_or_else(|| "no tier points".to_string())?;
    let fastest = result
        .tiers
        .last()
        .ok_or_else(|| "no tier points".to_string())?;
    if slowest.total_bytes() >= fastest.total_bytes() {
        return Err(format!(
            "{} wire bytes ({}) not strictly below {} ({})",
            slowest.tier,
            slowest.total_bytes(),
            fastest.tier,
            fastest.total_bytes()
        ));
    }
    for pair in result.tiers.windows(2) {
        if pair[0].total_bytes() > pair[1].total_bytes() {
            return Err(format!(
                "tier ladder not monotone: {} ({}) above {} ({})",
                pair[0].tier,
                pair[0].total_bytes(),
                pair[1].tier,
                pair[1].total_bytes()
            ));
        }
    }
    Ok(())
}

impl ToJson for ExtractionResult {
    fn to_json_value(&self) -> Value {
        obj([
            ("pages", self.pages.to_json_value()),
            ("content_total", self.content_total.to_json_value()),
            ("content_kept", self.content_kept.to_json_value()),
            ("labels_kept", self.labels_kept.to_json_value()),
            ("precision", self.precision().to_json_value()),
            ("recall", self.recall().to_json_value()),
        ])
    }
}

impl ToJson for TierPoint {
    fn to_json_value(&self) -> Value {
        obj([
            ("tier", self.tier.to_json_value()),
            ("entry_bytes", self.entry_bytes.to_json_value()),
            ("image_bytes", self.image_bytes.to_json_value()),
            ("total_bytes", self.total_bytes().to_json_value()),
        ])
    }
}

impl ToJson for ContentResult {
    fn to_json_value(&self) -> Value {
        obj([
            ("extraction", self.extraction.to_json_value()),
            ("stripped_blocks", self.stripped_blocks.to_json_value()),
            ("tiers", self.tiers.to_json_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extraction_sweep_meets_the_gates() {
        let result = run_extraction(6);
        assert!(result.precision() >= 0.9, "{result:?}");
        assert!(result.recall() >= 0.9, "{result:?}");
    }

    #[test]
    fn full_run_passes_its_own_shape_check() {
        let result = run(8);
        // One point per fidelity tier; the shape check orders them.
        assert_eq!(result.tiers.len(), 3);
        check_shape(&result).unwrap();
    }
}
