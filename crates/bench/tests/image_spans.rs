//! The image path's layer split: every encoded image records exactly one
//! `render.layout`, `render.raster`, `image.scale` and `image.encode`
//! span on the request's trace, and one `msite_layer_micros{layer}`
//! observation on the proxy's registry, banded work summed per image.

use msite::proxy::{ProxyConfig, ProxyServer};
use msite_bench::throughput::{sectioned_page, sectioned_spec, SECTIONS};
use msite_net::{Origin, OriginRef, Request, Response};
use msite_support::sync::Mutex;
use msite_support::telemetry::{Telemetry, Trace, LATENCY_MICROS_BOUNDS, TRACE_HEADER};
use std::sync::Arc;

const LAYERS: [&str; 4] = [
    "render.layout",
    "render.raster",
    "image.scale",
    "image.encode",
];

/// Spans of each layer on the response's trace.
fn layer_spans(telemetry: &Telemetry, response: &Response) -> Vec<usize> {
    assert!(response.status.is_success(), "{}", response.status);
    let id = response.headers.get(TRACE_HEADER).expect("traced response");
    let spans = telemetry
        .trace_log
        .spans_for(Trace::parse_id(id).expect("hex trace id"));
    LAYERS
        .iter()
        .map(|layer| spans.iter().filter(|s| s.name == *layer).count())
        .collect()
}

/// Observations of each layer's histogram so far.
fn layer_counts(telemetry: &Telemetry) -> Vec<u64> {
    LAYERS
        .iter()
        .map(|layer| {
            telemetry
                .metrics
                .histogram(
                    "msite_layer_micros",
                    &[("layer", layer)],
                    LATENCY_MICROS_BOUNDS,
                )
                .count()
        })
        .collect()
}

#[test]
fn every_encoded_image_records_one_span_per_layer() {
    let page = Arc::new(Mutex::new(sectioned_page(SECTIONS)));
    let origin = {
        let page = Arc::clone(&page);
        Arc::new(move |_: &Request| Response::html(page.lock().clone())) as OriginRef
    };
    let telemetry = Telemetry::new();
    let proxy = ProxyServer::new(
        sectioned_spec(SECTIONS),
        origin,
        ProxyConfig {
            telemetry: Some(telemetry.clone()),
            ..ProxyConfig::default()
        },
    );
    let entry = || proxy.handle(&Request::get("http://p/m/sectioned/").unwrap());

    // Cold: the snapshot and one pre-render per section.
    let cold = SECTIONS + 1;
    assert_eq!(layer_spans(&telemetry, &entry()), vec![cold; 4]);
    assert_eq!(layer_counts(&telemetry), vec![cold as u64; 4]);

    // One section edited: the snapshot and that section re-render; the
    // other pre-renders come from the subtree cache.
    let edited = page
        .lock()
        .replacen("<td>item 3.0</td>", "<td>item 3.0 (edited)</td>", 1);
    *page.lock() = edited;
    proxy.cache().invalidate("entry:html");
    assert_eq!(layer_spans(&telemetry, &entry()), vec![2; 4]);
    assert_eq!(layer_counts(&telemetry), vec![cold as u64 + 2; 4]);
}
