//! Golden bytes for every kind of image the proxy encodes: the length
//! and CRC-32 of each PNG, pinned so any change to the raster, the
//! post-processor or the encoder that moves a single output byte fails
//! here. Covers the snapshots of three fixture pages (pristine and after
//! one edit), the sectioned page's pre-rendered subpages, the news
//! gallery's fidelity tiers, the three object attributes, and the
//! `/render/image` engine.

use msite::attributes::{AdaptationSpec, Attribute, SnapshotSpec, Target};
use msite::proxy::{ProxyConfig, ProxyServer};
use msite::{adapt, PipelineContext};
use msite_bench::fixtures;
use msite_bench::throughput::{sectioned_page, sectioned_spec, SECTIONS};
use msite_net::{BandwidthClass, Origin, OriginRef, Request};
use msite_render::png::Crc32;
use msite_sites::{NewsConfig, NewsSite};
use std::sync::Arc;

/// `(label, length, CRC-32)` of every pinned image.
const GOLDEN: &[(&str, usize, u32)] = &[
    ("forum/snapshot.png", 101603, 0x156C91BB),
    ("forum-edit/snapshot.png", 101745, 0xF991F308),
    ("classifieds/snapshot.png", 57499, 0xD7C5BF8D),
    ("classifieds-edit/snapshot.png", 57713, 0xD086285B),
    ("sectioned/sub_sec0.png", 78606, 0xEAE49C71),
    ("sectioned/sub_sec1.png", 77716, 0x8E2CBA44),
    ("sectioned/sub_sec10.png", 78868, 0xB80F1CD7),
    ("sectioned/sub_sec11.png", 78451, 0x2058146E),
    ("sectioned/sub_sec2.png", 78089, 0x3839CB86),
    ("sectioned/sub_sec3.png", 78067, 0xCABAC33A),
    ("sectioned/sub_sec4.png", 77965, 0xE2951748),
    ("sectioned/sub_sec5.png", 78362, 0x53D9D556),
    ("sectioned/sub_sec6.png", 78053, 0x8E4499CC),
    ("sectioned/sub_sec7.png", 77917, 0x29BBA961),
    ("sectioned/sub_sec8.png", 78312, 0xBAD8E260),
    ("sectioned/sub_sec9.png", 78163, 0x04A231E7),
    ("sectioned/snapshot.png", 214804, 0xEDF0455C),
    ("sectioned-edit/sub_sec0.png", 78606, 0xEAE49C71),
    ("sectioned-edit/sub_sec1.png", 77716, 0x8E2CBA44),
    ("sectioned-edit/sub_sec10.png", 78868, 0xB80F1CD7),
    ("sectioned-edit/sub_sec11.png", 78451, 0x2058146E),
    ("sectioned-edit/sub_sec2.png", 78089, 0x3839CB86),
    ("sectioned-edit/sub_sec3.png", 78387, 0xAF57405F),
    ("sectioned-edit/sub_sec4.png", 77965, 0xE2951748),
    ("sectioned-edit/sub_sec5.png", 78362, 0x53D9D556),
    ("sectioned-edit/sub_sec6.png", 78053, 0x8E4499CC),
    ("sectioned-edit/sub_sec7.png", 77917, 0x29BBA961),
    ("sectioned-edit/sub_sec8.png", 78312, 0xBAD8E260),
    ("sectioned-edit/sub_sec9.png", 78163, 0x04A231E7),
    ("sectioned-edit/snapshot.png", 214993, 0x0C591795),
    ("gallery-2g/fid1_2g.png", 792, 0x417B4CE6),
    ("gallery-2g/fid2_2g.png", 778, 0x33E4BFD5),
    ("gallery-2g/fid3_2g.png", 795, 0xBCBFAF94),
    ("gallery-2g/fid4_2g.png", 800, 0x0270A477),
    ("gallery-2g/fid5_2g.png", 799, 0x1AC500FC),
    ("gallery-3g/fid1_3g.png", 2245, 0x10121D65),
    ("gallery-3g/fid2_3g.png", 2234, 0x316F1AE7),
    ("gallery-3g/fid3_3g.png", 2228, 0xA00F113D),
    ("gallery-3g/fid4_3g.png", 2270, 0x2F9A37F6),
    ("gallery-3g/fid5_3g.png", 2271, 0x9B62F689),
    ("gallery-wifi/fid1_wifi.png", 7477, 0x557CA3D8),
    ("gallery-wifi/fid2_wifi.png", 7478, 0x71FDD62C),
    ("gallery-wifi/fid3_wifi.png", 7507, 0x32422534),
    ("gallery-wifi/fid4_wifi.png", 7533, 0xCA929961),
    ("gallery-wifi/fid5_wifi.png", 7579, 0x2EED8199),
    ("forum-objects/obj1.png", 1348, 0xE2AC7062),
    ("forum-objects/partial2.png", 16708, 0xBB5B7E9D),
    ("gallery-media/media1.png", 1099, 0xA2C4926C),
    ("render/image", 219870, 0xAC7CC73A),
];

fn crc(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

fn snapshot_spec(id: &str, url: &str) -> AdaptationSpec {
    let mut spec = AdaptationSpec::new(id, url);
    spec.snapshot = Some(SnapshotSpec {
        scale: 0.5,
        quality: 40,
        cache_ttl_secs: 3_600,
        viewport_width: 1_024,
    });
    spec
}

fn edited(page: &str, needle: &str, replacement: &str) -> String {
    assert!(page.contains(needle), "fixture lost {needle:?}");
    page.replacen(needle, replacement, 1)
}

fn ctx() -> PipelineContext {
    PipelineContext {
        base: "/m/golden".into(),
        parallelism: 1,
        ..PipelineContext::default()
    }
}

/// Adapts `page` under `spec` and records every image of the bundle
/// under `label/<image name>`.
fn record(
    out: &mut Vec<(String, usize, u32)>,
    label: &str,
    spec: &AdaptationSpec,
    page: &str,
    ctx: &PipelineContext,
) {
    let bundle = adapt(spec, page, ctx).expect("fixture adapts cleanly");
    assert!(!bundle.images.is_empty(), "{label}: no image");
    for image in &bundle.images {
        assert!(image.bytes.starts_with(&[0x89, b'P', b'N', b'G']));
        out.push((
            format!("{label}/{}", image.name),
            image.bytes.len(),
            crc(&image.bytes),
        ));
    }
}

fn measured() -> Vec<(String, usize, u32)> {
    let mut out = Vec::new();

    let forum = fixtures::forum();
    let forum_url = fixtures::forum_index_url(&forum);
    let forum_page = forum.handle(&Request::get(&forum_url).unwrap()).body_text();
    let forum_spec = fixtures::forum_spec(&forum);
    record(&mut out, "forum", &forum_spec, &forum_page, &ctx());
    let forum_edit = edited(
        &forum_page,
        "<td class=\"tcat\" colspan=\"3\">Forums</td>",
        "<td class=\"tcat\" colspan=\"3\">Forums (edited)</td>",
    );
    record(&mut out, "forum-edit", &forum_spec, &forum_edit, &ctx());

    let classifieds = fixtures::classifieds();
    let cl_url = format!("{}/search?cat=tools&page=0", classifieds.base_url());
    let cl_page = classifieds
        .handle(&Request::get(&cl_url).unwrap())
        .body_text();
    let cl_spec = snapshot_spec("cl", &cl_url);
    record(&mut out, "classifieds", &cl_spec, &cl_page, &ctx());
    let cl_edit = edited(
        &cl_page,
        "<li class=\"row\">",
        "<li class=\"row\"><b>edited</b> ",
    );
    record(&mut out, "classifieds-edit", &cl_spec, &cl_edit, &ctx());

    // The sectioned page: snapshot plus one pre-rendered subpage per
    // section, then the same after perfbench's kind of one-section edit.
    let sec_page = sectioned_page(SECTIONS);
    let sec_spec = sectioned_spec(SECTIONS);
    record(&mut out, "sectioned", &sec_spec, &sec_page, &ctx());
    let sec_edit = edited(
        &sec_page,
        "<td>item 3.0</td>",
        "<td>item 3.0 (edited 42)</td>",
    );
    record(&mut out, "sectioned-edit", &sec_spec, &sec_edit, &ctx());

    // The news gallery under each fidelity tier.
    let news = NewsSite::new(NewsConfig::default());
    let gallery_url = format!("{}/gallery", news.base_url());
    let gallery = news
        .handle(&Request::get(&gallery_url).unwrap())
        .body_text();
    let mut tier_spec = AdaptationSpec::new("t", &gallery_url);
    tier_spec.snapshot = None;
    let tier_spec = tier_spec.rule(
        Target::Css("body".into()),
        vec![Attribute::FidelityTier { tier: None }],
    );
    for class in BandwidthClass::ALL {
        let tier_ctx = PipelineContext {
            fidelity: Some(class),
            ..ctx()
        };
        record(
            &mut out,
            &format!("gallery-{class}"),
            &tier_spec,
            &gallery,
            &tier_ctx,
        );
    }

    // One object attribute of each rendering kind on fixture pages.
    let mut objects = AdaptationSpec::new("obj", &forum_url);
    objects.snapshot = None;
    let objects = objects
        .rule(
            Target::Css("#navrow".into()),
            vec![Attribute::PrerenderImage {
                scale: 0.5,
                quality: 60,
                cache_ttl_secs: None,
            }],
        )
        .rule(
            Target::Css("#forumbits".into()),
            vec![Attribute::PartialCssPrerender { scale: 0.75 }],
        );
    record(&mut out, "forum-objects", &objects, &forum_page, &ctx());
    let media_page = format!(
        "{}<div id=\"media\"><object data=\"tour.swf\" width=\"400\" height=\"300\">\
         </object><p>caption</p></div></body></html>",
        gallery.split("</body>").next().unwrap()
    );
    let mut media = AdaptationSpec::new("media", &gallery_url);
    media.snapshot = None;
    let media = media.rule(
        Target::Css("#media".into()),
        vec![Attribute::RichMediaThumbnail { scale: 0.5 }],
    );
    record(&mut out, "gallery-media", &media, &media_page, &ctx());

    // The alternate image engine on the forum page.
    let proxy = ProxyServer::new(
        fixtures::forum_spec(&forum),
        Arc::clone(&forum) as OriginRef,
        ProxyConfig::default(),
    );
    let image = proxy.handle(&Request::get("http://p/m/forum/render/image").unwrap());
    assert!(image.status.is_success(), "{}", image.status);
    out.push((
        "render/image".to_string(),
        image.body.len(),
        crc(&image.body),
    ));
    out
}

#[test]
fn every_encoded_image_matches_its_golden_bytes() {
    let measured = measured();
    let listing: String = measured
        .iter()
        .map(|(label, len, crc)| format!("    ({label:?}, {len}, 0x{crc:08X}),\n"))
        .collect();
    // 13 sectioned images per state: the snapshot and 12 pre-renders.
    assert_eq!(
        measured
            .iter()
            .filter(|(label, _, _)| label.starts_with("sectioned/"))
            .count(),
        SECTIONS + 1
    );
    let expected: Vec<(String, usize, u32)> = GOLDEN
        .iter()
        .map(|&(label, len, crc)| (label.to_string(), len, crc))
        .collect();
    assert_eq!(measured, expected, "measured images:\n{listing}");
}
