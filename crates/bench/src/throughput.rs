//! The throughput experiment: serial vs. parallel adaptation of a
//! multi-subpage page (the emit/render fan-out).
//!
//! Each pool width's best-of-trials wall clock is compared with the
//! serial wall clock on the same machine; on hosts with ≥ 2 cores the
//! best parallel width must beat serial. That parallel output is
//! byte-identical to serial is a deterministic fact, pinned by the
//! `pipeline_determinism` suite, not measured here.

use msite::attributes::{AdaptationSpec, Attribute, SnapshotSpec, Target};
use msite::{adapt, PipelineContext};
use msite_support::json::{obj, ToJson, Value};
use std::time::{Duration, Instant};

/// Sections (= pre-rendered subpages) in the synthetic fixture page.
pub const SECTIONS: usize = 12;

/// Pool widths the pipeline sweep visits (serial first).
pub const WIDTHS: [usize; 3] = [1, 2, 4];

/// One pool width's measurement in the pipeline sweep.
#[derive(Debug, Clone)]
pub struct PipelinePoint {
    /// Worker-crew width ([`PipelineContext::parallelism`]).
    pub parallelism: usize,
    /// Best-of-trials wall-clock for one full adaptation.
    pub wall: Duration,
    /// Serial wall over this width's wall (`1.0` for the serial point).
    pub speedup: f64,
}

/// The full throughput experiment result.
#[derive(Debug, Clone)]
pub struct ThroughputResult {
    /// Host cores visible to the sweep (parallel wall-time expectations
    /// only apply when ≥ 2).
    pub cores: usize,
    /// The pipeline sweep, serial point first.
    pub pipeline: Vec<PipelinePoint>,
}

/// A synthetic page with `sections` independent content blocks, each
/// heavy enough that pre-rendering it costs real layout work.
pub fn sectioned_page(sections: usize) -> String {
    let mut html = String::from(
        "<!DOCTYPE html><html><head><title>Sectioned</title>\
         <style>.row { border: 1px solid #ccc }</style></head><body>\n\
         <div id=\"masthead\"><h1>Throughput fixture</h1></div>\n",
    );
    for s in 0..sections {
        html.push_str(&format!("<div id=\"sec{s}\"><h2>Section {s}</h2><table>"));
        for row in 0..24 {
            html.push_str(&format!(
                "<tr class=\"row\"><td>item {s}.{row}</td>\
                 <td><a href=\"/view.php?s={s}&amp;r={row}\">open</a></td>\
                 <td>{}</td></tr>",
                "lorem ipsum dolor sit amet ".repeat(3)
            ));
        }
        html.push_str("</table></div>\n");
    }
    html.push_str("</body></html>");
    html
}

/// The adaptation spec for the fixture: a half-scale snapshot entry page
/// plus one *pre-rendered* subpage per section — the embarrassingly
/// parallel emit/render workload.
pub fn sectioned_spec(sections: usize) -> AdaptationSpec {
    let mut spec = AdaptationSpec::new("sectioned", "http://sectioned.example/");
    spec.snapshot = Some(SnapshotSpec {
        scale: 0.5,
        quality: 40,
        cache_ttl_secs: 3_600,
        viewport_width: 1_024,
    });
    for s in 0..sections {
        spec = spec.rule(
            Target::Css(format!("#sec{s}")),
            vec![Attribute::Subpage {
                id: format!("sec{s}"),
                title: format!("Section {s}"),
                ajax: false,
                prerender: true,
            }],
        );
    }
    spec
}

/// Wall clock of one adaptation at the given pool width.
fn run_once(spec: &AdaptationSpec, page: &str, parallelism: usize) -> Duration {
    let ctx = PipelineContext {
        base: "/m/sectioned".into(),
        parallelism,
        ..PipelineContext::default()
    };
    let start = Instant::now();
    adapt(spec, page, &ctx).expect("fixture adapts cleanly");
    start.elapsed()
}

/// Sweeps the pipeline across [`WIDTHS`], keeping the best-of-`trials`
/// wall time per width and its ratio to the serial wall time.
pub fn run_pipeline_sweep(sections: usize, trials: usize) -> Vec<PipelinePoint> {
    let spec = sectioned_spec(sections);
    let page = sectioned_page(sections);
    // One untimed run first, so no width pays one-time setup.
    run_once(&spec, &page, 1);
    let walls: Vec<(usize, Duration)> = WIDTHS
        .iter()
        .map(|&parallelism| {
            let best = (0..trials.max(1))
                .map(|_| run_once(&spec, &page, parallelism))
                .min()
                .expect("at least one trial");
            (parallelism, best)
        })
        .collect();
    let serial = walls[0].1;
    walls
        .into_iter()
        .map(|(parallelism, wall)| PipelinePoint {
            parallelism,
            wall,
            speedup: serial.as_secs_f64() / wall.as_secs_f64().max(1e-12),
        })
        .collect()
}

/// Runs the full experiment.
pub fn run(trials: usize) -> ThroughputResult {
    ThroughputResult {
        cores: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        pipeline: run_pipeline_sweep(SECTIONS, trials),
    }
}

/// The gate: every width measured a nonzero wall time, and on a host
/// that can overlap work the best parallel width beats serial.
pub fn check_shape(result: &ThroughputResult) -> Result<(), String> {
    let serial = result
        .pipeline
        .iter()
        .find(|p| p.parallelism == 1)
        .ok_or("sweep must include the serial point")?;
    if let Some(point) = result.pipeline.iter().find(|p| p.wall.is_zero()) {
        return Err(format!(
            "width {} measured zero wall time",
            point.parallelism
        ));
    }
    if result.cores >= 2 {
        let best_parallel = result
            .pipeline
            .iter()
            .filter(|p| p.parallelism > 1)
            .map(|p| p.wall)
            .min()
            .ok_or("sweep must include a parallel point")?;
        if best_parallel >= serial.wall {
            return Err(format!(
                "no parallel width beat serial on a {}-core host ({:?} vs {:?})",
                result.cores, best_parallel, serial.wall
            ));
        }
    }
    Ok(())
}

impl ToJson for PipelinePoint {
    fn to_json_value(&self) -> Value {
        obj([
            ("parallelism", self.parallelism.to_json_value()),
            ("wall_s", self.wall.as_secs_f64().to_json_value()),
            ("speedup", self.speedup.to_json_value()),
        ])
    }
}

impl ToJson for ThroughputResult {
    fn to_json_value(&self) -> Value {
        obj([
            ("cores", self.cores.to_json_value()),
            ("pipeline", self.pipeline.to_json_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_produces_prerendered_subpages() {
        let spec = sectioned_spec(4);
        let page = sectioned_page(4);
        let ctx = PipelineContext {
            base: "/m/sectioned".into(),
            parallelism: 2,
            ..PipelineContext::default()
        };
        let bundle = msite::adapt(&spec, &page, &ctx).unwrap();
        assert_eq!(bundle.subpages.len(), 4);
        // One snapshot + one pre-render per section.
        assert_eq!(bundle.images.len(), 5);
        assert!(bundle.stats.browser_used);
    }
}
