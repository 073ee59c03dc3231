//! Determinism suite for the parallel emit/render fan-out: the bundle a
//! parallel pipeline run produces must be byte-identical to the serial
//! run, for every thread schedule. Schedules are explored with the
//! [`ScheduleStagger`] hook, which injects seeded per-task start delays
//! so different seeds drive different worker/task interleavings.

use msite::attributes::{AdaptationSpec, Attribute, SnapshotSpec, Target};
use msite::{adapt, adapt_streaming, AdaptedBundle, EmitUnit, PipelineContext, ScheduleStagger};
use std::time::Duration;

const SCHEDULES: u64 = 24;

/// A page with several independent sections, some pre-rendered: enough
/// fan-out tasks that scheduling can genuinely reorder completion.
fn page(sections: usize) -> String {
    let mut html =
        String::from("<!DOCTYPE html><html><head><title>Determinism</title></head><body>\n");
    for s in 0..sections {
        html.push_str(&format!(
            "<div id=\"sec{s}\"><h2>Section {s}</h2><p>{}</p>\
             <a href=\"/item.php?s={s}\">more</a></div>\n",
            "content ".repeat(20 + s)
        ));
    }
    html.push_str("</body></html>");
    html
}

/// Snapshot entry page + one subpage per section, alternating between
/// pre-rendered (image) and plain (HTML) subpages so both fan-out paths
/// are exercised.
fn spec(sections: usize) -> AdaptationSpec {
    let mut spec = AdaptationSpec::new("det", "http://det.example/");
    spec.snapshot = Some(SnapshotSpec {
        scale: 0.5,
        quality: 40,
        cache_ttl_secs: 60,
        viewport_width: 1_024,
    });
    for s in 0..sections {
        spec = spec.rule(
            Target::Css(format!("#sec{s}")),
            vec![Attribute::Subpage {
                id: format!("sec{s}"),
                title: format!("Section {s}"),
                ajax: false,
                prerender: s % 2 == 0,
            }],
        );
    }
    spec
}

fn run(parallelism: usize, stagger: Option<ScheduleStagger>) -> AdaptedBundle {
    let ctx = PipelineContext {
        base: "/m/det".into(),
        parallelism,
        schedule_stagger: stagger,
        ..PipelineContext::default()
    };
    adapt(&spec(8), &page(8), &ctx).expect("fixture adapts cleanly")
}

/// Asserts two bundles are byte-identical in every client-visible field.
/// (Degradation notes are diagnostics, not artifacts, and are excluded
/// by construction — this fixture renders cleanly.)
fn assert_identical(serial: &AdaptedBundle, parallel: &AdaptedBundle, schedule: u64) {
    assert_eq!(
        serial.entry_html, parallel.entry_html,
        "entry page diverged under schedule {schedule}"
    );
    assert_eq!(
        serial.subpages, parallel.subpages,
        "subpages diverged under schedule {schedule}"
    );
    assert_eq!(
        serial.images.len(),
        parallel.images.len(),
        "image count diverged under schedule {schedule}"
    );
    for (a, b) in serial.images.iter().zip(parallel.images.iter()) {
        assert_eq!(
            a.name, b.name,
            "image order diverged under schedule {schedule}"
        );
        assert_eq!(
            a.bytes, b.bytes,
            "{}: bytes diverged under schedule {schedule}",
            a.name
        );
        assert_eq!(
            (a.wire_size, a.width, a.height, a.cache_ttl),
            (b.wire_size, b.width, b.height, b.cache_ttl),
            "{}: metadata diverged under schedule {schedule}",
            a.name
        );
    }
    assert_eq!(
        serial.stats, parallel.stats,
        "pipeline stats diverged under schedule {schedule}"
    );
    assert_eq!(
        serial.search.is_some(),
        parallel.search.is_some(),
        "search index presence diverged under schedule {schedule}"
    );
    assert_eq!(
        serial.wants_cookie_clear, parallel.wants_cookie_clear,
        "cookie-clear flag diverged under schedule {schedule}"
    );
}

#[test]
fn parallel_output_is_byte_identical_across_24_schedules() {
    let serial = run(1, None);
    // Sanity: the fixture actually fans out (pre-rendered images + the
    // snapshot) so the schedules below exercise real parallel work.
    assert_eq!(serial.subpages.len(), 8);
    assert!(serial.stats.images_rendered > 4);

    for schedule in 0..SCHEDULES {
        let parallel = run(
            4,
            Some(ScheduleStagger {
                seed: 0xDE7E_0000 + schedule,
                max: Duration::from_micros(500),
            }),
        );
        assert_identical(&serial, &parallel, schedule);
    }
}

#[test]
fn width_two_matches_width_four() {
    let two = run(
        2,
        Some(ScheduleStagger {
            seed: 7,
            max: Duration::from_micros(300),
        }),
    );
    let four = run(
        4,
        Some(ScheduleStagger {
            seed: 11,
            max: Duration::from_micros(300),
        }),
    );
    assert_identical(&two, &four, u64::MAX);
}

/// Streaming emit must be a pure re-framing of the batch run: the
/// concatenated `Entry` chunks equal the batch entry page byte for
/// byte, every subpage/image unit matches its batch twin, and the final
/// bundle is identical — under every explored schedule. The entry is
/// the first unit and no subpage unit precedes it: the entry is handed
/// over before the subpage fan-out starts, which is what puts a
/// streamed entry's first byte ahead of the whole bundle.
#[test]
fn streaming_units_reassemble_to_the_batch_bundle() {
    let serial = run(1, None);
    let spec = spec(8);
    let page = page(8);

    for schedule in 0..SCHEDULES {
        let ctx = PipelineContext {
            base: "/m/det".into(),
            parallelism: 4,
            schedule_stagger: Some(ScheduleStagger {
                seed: 0x57EA_0000 + schedule,
                max: Duration::from_micros(500),
            }),
            ..PipelineContext::default()
        };
        let mut entry_chunks = String::new();
        let mut unit_files = Vec::new();
        let mut unit_images = Vec::new();
        // One letter per unit in arrival order: E(ntry), S(ubpage), I(mage).
        let mut order = String::new();
        let mut on_unit = |unit: EmitUnit| match unit {
            EmitUnit::Entry(html) => {
                order.push('E');
                entry_chunks.push_str(html);
            }
            EmitUnit::Subpage(file) => {
                order.push('S');
                unit_files.push(file.clone());
            }
            EmitUnit::Image(image) => {
                order.push('I');
                unit_images.push(image.clone());
            }
        };
        let (bundle, _report) = adapt_streaming(&spec, &page, &ctx, &mut on_unit)
            .expect("fixture adapts cleanly in streaming mode");

        assert!(
            order.starts_with('E'),
            "first unit is not the entry under schedule {schedule}: {order}"
        );
        let last_entry = order.rfind('E').expect("an entry unit");
        assert!(
            !order[..last_entry].contains('S'),
            "a subpage unit preceded the entry under schedule {schedule}: {order}"
        );
        assert_identical(&serial, &bundle, schedule);
        assert_eq!(
            entry_chunks, serial.entry_html,
            "concatenated entry chunks diverged under schedule {schedule}"
        );
        // Units surface each artifact exactly once; completion order is
        // schedule-dependent, so compare by name.
        assert_eq!(unit_files.len(), serial.subpages.len());
        for file in &unit_files {
            let twin = serial
                .subpages
                .iter()
                .find(|f| f.name == file.name)
                .unwrap_or_else(|| panic!("{}: unit without batch twin", file.name));
            assert_eq!(
                file, twin,
                "{}: subpage unit diverged under schedule {schedule}",
                file.name
            );
        }
        assert_eq!(unit_images.len(), serial.images.len());
        for image in &unit_images {
            let twin = serial
                .images
                .iter()
                .find(|i| i.name == image.name)
                .unwrap_or_else(|| panic!("{}: unit without batch twin", image.name));
            assert_eq!(
                image.bytes, twin.bytes,
                "{}: image unit bytes diverged under schedule {schedule}",
                image.name
            );
        }
    }
}

#[test]
fn serial_run_ignores_stagger_hook() {
    let plain = run(1, None);
    let staggered = run(
        1,
        Some(ScheduleStagger {
            seed: 99,
            max: Duration::from_micros(300),
        }),
    );
    assert_identical(&plain, &staggered, 0);
}
