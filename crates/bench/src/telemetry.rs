//! The telemetry-overhead experiment: the observability layer must be
//! cheap enough to leave on for every request.
//!
//! Two measurements back that claim:
//!
//! 1. **Macro gate.** The throughput fixture is adapted with telemetry
//!    fully disabled (untraced context, no registry) and fully enabled
//!    (per-request trace, per-stage spans, the pipeline's own counters,
//!    stage histograms, request counters — what the proxy records per
//!    request). The relative overhead must stay under
//!    [`OVERHEAD_BOUND`].
//! 2. **Micro costs.** Raw per-op cost of the two hot-path primitives —
//!    `Counter::inc` and `Histogram::observe` — reported in ns/op and
//!    gated at 1 µs each, so a lock creeping into the lock-free path
//!    fails even when the macro gate still passes.
//!
//! Both are timing claims, gated in release builds only, by
//! `experiments -- telemetry`.

use crate::throughput::{sectioned_page, sectioned_spec};
use msite::{adapt_with_report, PipelineContext};
use msite_support::json::{obj, ToJson, Value};
use msite_support::telemetry::{Telemetry, Trace, TraceIdSeq, LATENCY_MICROS_BOUNDS};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sections in the fixture page (smaller than the throughput sweep's:
/// the gate compares two configurations of the *same* workload, so it
/// needs repetitions more than scale).
pub const SECTIONS: usize = 6;

/// Maximum tolerated relative overhead of full instrumentation on the
/// adaptation fixture (instrumented / baseline - 1).
pub const OVERHEAD_BOUND: f64 = 0.25;

/// Outcome of the telemetry-overhead experiment.
#[derive(Debug, Clone)]
pub struct TelemetryOverheadResult {
    /// Adaptation iterations per configuration.
    pub iterations: usize,
    /// Best-of-iterations wall clock with telemetry disabled.
    pub baseline: Duration,
    /// Best-of-iterations wall clock with full per-request telemetry.
    pub instrumented: Duration,
    /// `instrumented / baseline - 1` (negative = within noise).
    pub overhead_ratio: f64,
    /// The gate this run was held to ([`OVERHEAD_BOUND`]).
    pub bound: f64,
    /// Cost of one `Counter::inc` on an interned handle, in ns.
    pub counter_ns: f64,
    /// Cost of one `Histogram::observe` on an interned handle, in ns.
    pub histogram_ns: f64,
}

impl TelemetryOverheadResult {
    /// Whether the macro gate holds.
    pub fn within_bound(&self) -> bool {
        self.overhead_ratio <= self.bound
    }
}

/// One adaptation of the fixture; when `telemetry` is set, records
/// everything the proxy records per request: a trace with per-stage
/// spans, the pipeline's own counters (browser renders, tokenizer
/// bytes, PNG encodes), per-stage latency histograms, and the request
/// counters.
fn run_once(
    spec: &msite::attributes::AdaptationSpec,
    page: &str,
    telemetry: Option<(&Telemetry, &TraceIdSeq)>,
) -> Duration {
    let mut ctx = PipelineContext {
        base: "/m/sectioned".into(),
        parallelism: 1,
        ..PipelineContext::default()
    };
    let trace = telemetry.map(|(t, ids)| {
        let trace = Trace::new(ids.next_id(), Arc::clone(&t.trace_log));
        ctx.trace = Some(trace.clone());
        ctx.metrics = Some(Arc::clone(&t.metrics));
        trace
    });
    let start = Instant::now();
    let (_, report) = adapt_with_report(spec, page, &ctx).expect("fixture adapts cleanly");
    if let Some((t, _)) = telemetry {
        for stage in &report.stages {
            t.metrics
                .histogram(
                    "msite_stage_micros",
                    &[("stage", stage.kind.name())],
                    LATENCY_MICROS_BOUNDS,
                )
                .observe(stage.elapsed.as_micros() as u64);
        }
        t.metrics.counter("msite_proxy_requests_total", &[]).inc();
        let elapsed = start.elapsed();
        if let Some(trace) = &trace {
            trace.record(
                "request",
                elapsed,
                vec![("path".to_string(), "/m/sectioned/".to_string())],
            );
        }
        t.metrics
            .histogram("msite_proxy_request_micros", &[], LATENCY_MICROS_BOUNDS)
            .observe(elapsed.as_micros() as u64);
        return elapsed;
    }
    start.elapsed()
}

/// Measures a hot-path primitive: `ops` calls of `op`, in ns per call.
fn ns_per_op(ops: u64, mut op: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..ops {
        op();
    }
    start.elapsed().as_nanos() as f64 / ops as f64
}

/// Runs the experiment: `iterations` adaptations per configuration
/// (interleaved to spread thermal/cache drift evenly), best-of kept.
pub fn run(iterations: usize) -> TelemetryOverheadResult {
    let iterations = iterations.max(3);
    let spec = sectioned_spec(SECTIONS);
    let page = sectioned_page(SECTIONS);
    let telemetry = Telemetry::new();
    let ids = TraceIdSeq::new(0xBE7C);

    // Warm both paths once outside the measurement.
    run_once(&spec, &page, None);
    run_once(&spec, &page, Some((&telemetry, &ids)));

    let mut baseline = Duration::MAX;
    let mut instrumented = Duration::MAX;
    for _ in 0..iterations {
        baseline = baseline.min(run_once(&spec, &page, None));
        instrumented = instrumented.min(run_once(&spec, &page, Some((&telemetry, &ids))));
    }

    const MICRO_OPS: u64 = 1_000_000;
    let counter = telemetry.metrics.counter("bench_micro_total", &[]);
    let histogram = telemetry
        .metrics
        .histogram("bench_micro_micros", &[], LATENCY_MICROS_BOUNDS);
    let counter_ns = ns_per_op(MICRO_OPS, || counter.inc());
    let mut v = 0u64;
    let histogram_ns = ns_per_op(MICRO_OPS, || {
        v = v.wrapping_add(997) % 5_000_000;
        histogram.observe(v);
    });

    TelemetryOverheadResult {
        iterations,
        baseline,
        instrumented,
        overhead_ratio: instrumented.as_secs_f64() / baseline.as_secs_f64() - 1.0,
        bound: OVERHEAD_BOUND,
        counter_ns,
        histogram_ns,
    }
}

/// Shape assertions for the experiments binary.
pub fn check_shape(result: &TelemetryOverheadResult) -> Result<(), String> {
    if result.baseline.is_zero() || result.instrumented.is_zero() {
        return Err("zero wall time measured".into());
    }
    if !result.within_bound() {
        return Err(format!(
            "telemetry overhead {:.1}% exceeds the {:.0}% bound",
            result.overhead_ratio * 100.0,
            result.bound * 100.0
        ));
    }
    // The hot path is one atomic op; even debug builds stay far under a
    // microsecond. A blown budget here means a lock crept in.
    if result.counter_ns > 1_000.0 || result.histogram_ns > 1_000.0 {
        return Err(format!(
            "hot-path primitive too slow: counter {:.0} ns, histogram {:.0} ns",
            result.counter_ns, result.histogram_ns
        ));
    }
    Ok(())
}

impl ToJson for TelemetryOverheadResult {
    fn to_json_value(&self) -> Value {
        obj([
            ("iterations", self.iterations.to_json_value()),
            ("baseline_s", self.baseline.as_secs_f64().to_json_value()),
            (
                "instrumented_s",
                self.instrumented.as_secs_f64().to_json_value(),
            ),
            ("overhead_ratio", self.overhead_ratio.to_json_value()),
            ("bound", self.bound.to_json_value()),
            ("within_bound", self.within_bound().to_json_value()),
            ("counter_ns", self.counter_ns.to_json_value()),
            ("histogram_ns", self.histogram_ns.to_json_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instrumented_run_populates_registry_and_trace() {
        let spec = sectioned_spec(2);
        let page = sectioned_page(2);
        let telemetry = Telemetry::new();
        let ids = TraceIdSeq::new(7);
        run_once(&spec, &page, Some((&telemetry, &ids)));
        assert_eq!(
            telemetry
                .metrics
                .counter_value("msite_proxy_requests_total", &[]),
            1
        );
        // The pipeline counts into the registry, as in the proxy.
        assert!(
            telemetry
                .metrics
                .counter_value("msite_browser_renders_total", &[])
                > 0
        );
        let text = telemetry.metrics.render_text();
        assert!(text.contains("msite_stage_micros_bucket{stage=\"fetch\""));
        assert!(!telemetry.trace_log.is_empty());
    }
}
