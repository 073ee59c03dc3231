//! Unit tests for the staged pipeline.

use super::*;
use crate::attributes::{
    AdaptationSpec, Attribute, DockObject, Position, Rule, SnapshotSpec, SourceFilter, Target,
};
use msite_render::browser::BrowserConfig;
use msite_support::telemetry::MetricsRegistry;
use std::sync::Arc;
use std::time::Duration;

fn ctx() -> PipelineContext {
    PipelineContext {
        base: "/m/test".to_string(),
        browser_config: BrowserConfig::default(),
        ..Default::default()
    }
}

fn spec_no_snapshot(page: &str) -> AdaptationSpec {
    let mut s = AdaptationSpec::new("test", page);
    s.snapshot = None;
    s
}

const PAGE: &str = r##"<!DOCTYPE html><html><head><title>Site</title>
<style>.x { color: red }</style></head><body>
<div id="header"><img id="logo" src="/images/logo.gif" width="100" height="40"></div>
<div id="nav"><a href="/a">Alpha</a> <a href="/b">Beta</a> <a href="/c">Gamma</a> <a href="/d">Delta</a></div>
<form id="login"><input type="text" name="u"></form>
<div id="content"><p>Hello world content</p>
<a href="#" onclick="$('#pane').load('site.php?do=showpic&amp;id=3')">pic</a></div>
<div id="pane"></div>
</body></html>"##;

#[test]
fn filter_only_spec_skips_dom_parse() {
    let spec = spec_no_snapshot("http://h/")
        .filter(SourceFilter::SetTitle {
            title: "Mobile".into(),
        })
        .filter(SourceFilter::Replace {
            find: "Hello".into(),
            replace: "Hi".into(),
        });
    let bundle = adapt(&spec, PAGE, &ctx()).unwrap();
    assert!(!bundle.stats.dom_parsed);
    assert!(!bundle.stats.browser_used);
    assert!(bundle.entry_html.contains("<title>Mobile</title>"));
    assert!(bundle.entry_html.contains("Hi world content"));
    assert_eq!(bundle.stats.filters_applied, 2);
}

#[test]
fn strip_tag_filter() {
    let spec = spec_no_snapshot("http://h/").filter(SourceFilter::StripTag {
        tag: "style".into(),
    });
    let bundle = adapt(&spec, PAGE, &ctx()).unwrap();
    assert!(!bundle.entry_html.contains("color: red"));
    // `<strong>` must not be eaten by `<s` prefix matching.
    let spec2 = spec_no_snapshot("http://h/").filter(SourceFilter::StripTag { tag: "s".into() });
    let bundle2 = adapt(&spec2, "<p><strong>keep</strong><s>gone</s></p>", &ctx()).unwrap();
    assert!(bundle2.entry_html.contains("keep"));
    assert!(!bundle2.entry_html.contains("gone"));
}

#[test]
fn doctype_filter_replaces_or_prepends() {
    let spec = spec_no_snapshot("http://h/").filter(SourceFilter::SetDoctype {
        doctype: "<!DOCTYPE html>".into(),
    });
    let bundle = adapt(&spec, PAGE, &ctx()).unwrap();
    assert!(bundle.entry_html.starts_with("<!DOCTYPE html>"));
    let bundle2 = adapt(&spec, "<p>no doctype</p>", &ctx()).unwrap();
    assert!(bundle2.entry_html.starts_with("<!DOCTYPE html>"));
}

#[test]
fn remove_and_hide() {
    let spec = spec_no_snapshot("http://h/")
        .rule(Target::Css("#header".into()), vec![Attribute::Remove])
        .rule(Target::Css("#nav".into()), vec![Attribute::Hide]);
    let bundle = adapt(&spec, PAGE, &ctx()).unwrap();
    assert!(!bundle.entry_html.contains("id=\"header\""));
    assert!(bundle.entry_html.contains("display:none"));
    assert_eq!(bundle.stats.rules_matched, 2);
}

#[test]
fn replace_and_inserts() {
    let spec = spec_no_snapshot("http://h/")
        .rule(
            Target::Css("#header".into()),
            vec![Attribute::ReplaceWith {
                html: "<p id=\"mobile-header\">M</p>".into(),
            }],
        )
        .rule(
            Target::Css("#content".into()),
            vec![
                Attribute::InsertBefore {
                    html: "<hr class=\"before\">".into(),
                },
                Attribute::InsertAfter {
                    html: "<div class=\"ad\">mobile ad</div>".into(),
                },
            ],
        );
    let bundle = adapt(&spec, PAGE, &ctx()).unwrap();
    assert!(bundle.entry_html.contains("mobile-header"));
    assert!(!bundle.entry_html.contains("logo.gif"));
    let before = bundle.entry_html.find("class=\"before\"").unwrap();
    let content = bundle.entry_html.find("id=\"content\"").unwrap();
    let ad = bundle.entry_html.find("class=\"ad\"").unwrap();
    assert!(before < content && content < ad);
}

#[test]
fn subpage_split_replaces_with_link() {
    let spec = spec_no_snapshot("http://h/").rule(
        Target::Css("#login".into()),
        vec![Attribute::Subpage {
            id: "login".into(),
            title: "Log in".into(),
            ajax: false,
            prerender: false,
        }],
    );
    let bundle = adapt(&spec, PAGE, &ctx()).unwrap();
    assert_eq!(bundle.subpages.len(), 1);
    let sub = &bundle.subpages[0];
    assert_eq!(sub.name, "login.html");
    assert!(sub.html.contains("<form id=\"login\""));
    assert!(sub.html.contains("back to overview"));
    // Entry page now links instead of embedding the form.
    assert!(!bundle.entry_html.contains("<form"));
    assert!(bundle.entry_html.contains("/m/test/s/login.html"));
}

#[test]
fn copy_to_with_attr_override_and_dependency() {
    let spec = spec_no_snapshot("http://h/")
        .rule(
            Target::Css("#login".into()),
            vec![
                Attribute::Subpage {
                    id: "login".into(),
                    title: "Log in".into(),
                    ajax: false,
                    prerender: false,
                },
                Attribute::Dependency {
                    selector: "head style".into(),
                },
            ],
        )
        .rule(
            Target::Css("#header".into()),
            vec![Attribute::CopyTo {
                subpage: "login".into(),
                position: Position::Top,
                set_attr: Some(("src".into(), "/images/mobile_logo.gif".into())),
            }],
        );
    let bundle = adapt(&spec, PAGE, &ctx()).unwrap();
    let sub = &bundle.subpages[0];
    // Dependency style present in head.
    assert!(sub.html.contains("color: red"));
    // Copied header with swapped src; original header still on entry.
    assert!(sub.html.contains("mobile_logo.gif"));
    assert!(bundle.entry_html.contains("/images/logo.gif"));
}

#[test]
fn move_to_detaches_from_entry() {
    let spec = spec_no_snapshot("http://h/")
        .rule(
            Target::Css("#content".into()),
            vec![Attribute::Subpage {
                id: "main".into(),
                title: "Content".into(),
                ajax: false,
                prerender: false,
            }],
        )
        .rule(
            Target::Css("#nav".into()),
            vec![Attribute::MoveTo {
                subpage: "main".into(),
                position: Position::Bottom,
            }],
        );
    let bundle = adapt(&spec, PAGE, &ctx()).unwrap();
    assert!(!bundle.entry_html.contains("Alpha"));
    assert!(bundle.subpages[0].html.contains("Alpha"));
}

#[test]
fn unknown_subpage_reference_errors() {
    let spec = spec_no_snapshot("http://h/").rule(
        Target::Css("#nav".into()),
        vec![Attribute::MoveTo {
            subpage: "ghost".into(),
            position: Position::Bottom,
        }],
    );
    let err = adapt(&spec, PAGE, &ctx()).unwrap_err();
    assert_eq!(err, AdaptError::UnknownSubpage { id: "ghost".into() });
}

#[test]
fn invalid_selector_errors() {
    let spec =
        spec_no_snapshot("http://h/").rule(Target::Css("..bad".into()), vec![Attribute::Remove]);
    assert!(matches!(
        adapt(&spec, PAGE, &ctx()),
        Err(AdaptError::InvalidTarget { .. })
    ));
}

#[test]
fn xpath_targets_work() {
    let spec = spec_no_snapshot("http://h/").rule(
        Target::XPath("//div[@id='header']".into()),
        vec![Attribute::Remove],
    );
    let bundle = adapt(&spec, PAGE, &ctx()).unwrap();
    assert!(!bundle.entry_html.contains("id=\"header\""));
}

#[test]
fn links_to_columns_rebuilds_nav() {
    let spec = spec_no_snapshot("http://h/").rule(
        Target::Css("#nav".into()),
        vec![Attribute::LinksToColumns { columns: 2 }],
    );
    let bundle = adapt(&spec, PAGE, &ctx()).unwrap();
    assert!(bundle.entry_html.contains("msite-columns"));
    // 4 links in 2 columns -> 2 rows.
    assert_eq!(bundle.entry_html.matches("<tr>").count(), 2);
    assert!(bundle.entry_html.contains("Alpha"));
    assert!(bundle.entry_html.contains("Delta"));
}

#[test]
fn ajax_rewrite_registers_action_and_injects_helper() {
    let spec = spec_no_snapshot("http://h/")
        .rule(Target::Css("#content".into()), vec![Attribute::AjaxRewrite]);
    let bundle = adapt(&spec, PAGE, &ctx()).unwrap();
    assert_eq!(bundle.ajax.actions.len(), 1);
    assert_eq!(
        bundle.ajax.actions[0].origin_url_template,
        "site.php?do=showpic&id={p}"
    );
    assert!(bundle
        .entry_html
        .contains("msiteLoad('/m/test/proxy', 1, '3', '#pane')"));
    assert!(bundle.entry_html.contains("function msiteLoad"));
}

#[test]
fn image_fidelity_rewrites_srcs() {
    let spec = spec_no_snapshot("http://h/").rule(
        Target::Css("#header".into()),
        vec![Attribute::ImageFidelity { quality: 35 }],
    );
    let bundle = adapt(&spec, PAGE, &ctx()).unwrap();
    assert!(bundle.entry_html.contains("/images/logo.gif?msite_q=35"));
}

#[test]
fn dock_rules() {
    let spec = spec_no_snapshot("http://h/")
        .rule(
            Target::Dock(DockObject::Title),
            vec![Attribute::SetAttr {
                name: "text".into(),
                value: "m.Site".into(),
            }],
        )
        .rule(
            Target::Dock(DockObject::Stylesheets),
            vec![Attribute::Remove],
        )
        .rule(Target::Dock(DockObject::Cookies), vec![Attribute::Remove]);
    let bundle = adapt(&spec, PAGE, &ctx()).unwrap();
    assert!(bundle.entry_html.contains("<title>m.Site</title>"));
    assert!(!bundle.entry_html.contains("color: red"));
    assert!(bundle.wants_cookie_clear);
}

#[test]
fn prerender_object_produces_image() {
    let spec = spec_no_snapshot("http://h/").rule(
        Target::Css("#nav".into()),
        vec![Attribute::PrerenderImage {
            scale: 1.0,
            quality: 50,
            cache_ttl_secs: Some(600),
        }],
    );
    let bundle = adapt(&spec, PAGE, &ctx()).unwrap();
    assert_eq!(bundle.images.len(), 1);
    let img = &bundle.images[0];
    assert!(img.bytes.starts_with(&[0x89, b'P', b'N', b'G']));
    assert_eq!(img.cache_ttl, Some(Duration::from_secs(600)));
    assert!(bundle
        .entry_html
        .contains(&format!("/m/test/img/{}", img.name)));
    assert!(bundle.stats.browser_used);
    assert!(!bundle.entry_html.contains(">Alpha<")); // nav replaced by image
}

#[test]
fn snapshot_mode_builds_entry_with_map() {
    let mut spec = AdaptationSpec::new("test", "http://h/");
    spec.snapshot = Some(SnapshotSpec {
        scale: 0.5,
        quality: 40,
        cache_ttl_secs: 3600,
        viewport_width: 640,
    });
    spec.rules.push(Rule {
        target: Target::Css("#login".into()),
        attributes: vec![Attribute::Subpage {
            id: "login".into(),
            title: "Log in".into(),
            ajax: false,
            prerender: false,
        }],
    });
    let bundle = adapt(&spec, PAGE, &ctx()).unwrap();
    assert!(bundle.entry_html.contains("usemap=\"#msitemap\""));
    assert!(bundle.entry_html.contains("snapshot.png"));
    assert!(bundle.entry_html.contains("/m/test/s/login.html"));
    let snap = bundle
        .images
        .iter()
        .find(|i| i.name == "snapshot.png")
        .unwrap();
    assert_eq!(snap.cache_ttl, Some(Duration::from_secs(3600)));
    assert_eq!(snap.width, 320); // 640 * 0.5
    assert!(bundle.stats.browser_used);
}

#[test]
fn searchable_snapshot_gets_index() {
    let mut spec = AdaptationSpec::new("test", "http://h/");
    spec.snapshot = Some(SnapshotSpec::default());
    spec.rules.push(Rule {
        target: Target::Css("body".into()),
        attributes: vec![Attribute::Searchable],
    });
    let bundle = adapt(&spec, PAGE, &ctx()).unwrap();
    let index = bundle.search.as_ref().unwrap();
    assert!(!index.is_empty());
    assert!(!index.find("hello").is_empty());
    assert!(bundle.entry_html.contains("msiteIndex"));
    assert!(bundle.entry_html.contains("function msiteSearch"));
}

#[test]
fn prerendered_subpage_is_image_page() {
    let spec = spec_no_snapshot("http://h/").rule(
        Target::Css("#content".into()),
        vec![Attribute::Subpage {
            id: "content".into(),
            title: "Content".into(),
            ajax: false,
            prerender: true,
        }],
    );
    let bundle = adapt(&spec, PAGE, &ctx()).unwrap();
    let sub = &bundle.subpages[0];
    assert!(sub.html.contains("sub_content.png"));
    assert!(!sub.html.contains("Hello world"));
    assert!(bundle.images.iter().any(|i| i.name == "sub_content.png"));
}

#[test]
fn partial_css_prerender_emits_background_plus_text() {
    let spec = spec_no_snapshot("http://h/").rule(
        Target::Css("#content".into()),
        vec![Attribute::PartialCssPrerender { scale: 1.0 }],
    );
    let metrics = Arc::new(MetricsRegistry::new());
    let ctx = PipelineContext {
        metrics: Some(Arc::clone(&metrics)),
        ..ctx()
    };
    let bundle = adapt(&spec, PAGE, &ctx).unwrap();
    assert_eq!(bundle.images.len(), 1);
    assert!(bundle.entry_html.contains("msite-partial"));
    assert!(bundle.entry_html.contains("position:absolute"));
    // Text is drawn by the client, so it is present as spans.
    assert!(bundle.entry_html.contains(">hello<") || bundle.entry_html.contains(">Hello<"));
    // Two browser renders: the blanked object, rastered into the
    // background, and the original, only laid out for word positions.
    assert_eq!(bundle.stats.browser_renders, 2);
    let layer = |name: &str| {
        metrics
            .histogram(
                "msite_layer_micros",
                &[("layer", name)],
                msite_support::telemetry::LATENCY_MICROS_BOUNDS,
            )
            .count()
    };
    assert_eq!((layer("render.layout"), layer("render.raster")), (2, 1));
}

#[test]
fn rich_media_replaced_with_thumbnails() {
    let page = r#"<body><div id="media">
        <object data="movie.swf" width="400" height="300"></object>
        <embed src="clip.mov" width="200" height="150">
        <p>caption</p></div></body>"#;
    let spec = spec_no_snapshot("http://h/").rule(
        Target::Css("#media".into()),
        vec![Attribute::RichMediaThumbnail { scale: 0.5 }],
    );
    let bundle = adapt(&spec, page, &ctx()).unwrap();
    assert_eq!(bundle.images.len(), 2);
    assert!(!bundle.entry_html.contains("<object"));
    assert!(!bundle.entry_html.contains("<embed"));
    assert_eq!(bundle.entry_html.matches("msite-media-thumb").count(), 2);
    // Thumbnails scaled to half the declared media size.
    let first = &bundle.images[0];
    assert_eq!(first.width, 200);
    assert!(bundle.entry_html.contains("movie.swf"));
    assert!(bundle.entry_html.contains("caption"));
    assert!(bundle.stats.browser_used);
}

#[test]
fn stats_track_work() {
    let spec = spec_no_snapshot("http://h/")
        .filter(SourceFilter::Replace {
            find: "x".into(),
            replace: "y".into(),
        })
        .rule(
            Target::Css("#nav a".into()),
            vec![Attribute::SetAttr {
                name: "rel".into(),
                value: "nofollow".into(),
            }],
        );
    let bundle = adapt(&spec, PAGE, &ctx()).unwrap();
    assert_eq!(bundle.stats.filters_applied, 1);
    assert_eq!(bundle.stats.rules_matched, 1);
    assert_eq!(bundle.stats.nodes_affected, 4);
}

// ---- Stage report ------------------------------------------------------

#[test]
fn report_covers_all_stages_for_dom_spec() {
    let spec = spec_no_snapshot("http://h/")
        .filter(SourceFilter::SetTitle {
            title: "Mobile".into(),
        })
        .rule(Target::Css("#header".into()), vec![Attribute::Remove]);
    let (_, report) = adapt_with_report(&spec, PAGE, &ctx()).unwrap();
    for kind in [
        StageKind::Fetch,
        StageKind::Filter,
        StageKind::Dom,
        StageKind::Attributes,
        StageKind::Emit,
    ] {
        let stage = report
            .stage(kind)
            .unwrap_or_else(|| panic!("{kind} missing"));
        assert!(stage.elapsed > Duration::ZERO, "{kind} has zero timing");
    }
    // No browser work: no render entry.
    assert!(!report.executed(StageKind::Render));
    assert_eq!(report.stage(StageKind::Filter).unwrap().artifacts, 1);
    assert_eq!(report.stage(StageKind::Attributes).unwrap().artifacts, 1);
    assert!(report.total() > Duration::ZERO);
}

#[test]
fn report_skips_dom_stages_on_filter_only_spec() {
    let spec = spec_no_snapshot("http://h/").filter(SourceFilter::Replace {
        find: "Hello".into(),
        replace: "Hi".into(),
    });
    let (bundle, report) = adapt_with_report(&spec, PAGE, &ctx()).unwrap();
    assert!(bundle.entry_html.contains("Hi world content"));
    assert!(report.executed(StageKind::Fetch));
    assert!(report.executed(StageKind::Filter));
    assert!(report.executed(StageKind::Emit));
    assert!(!report.executed(StageKind::Dom));
    assert!(!report.executed(StageKind::Attributes));
    assert!(!report.executed(StageKind::Render));
}

#[test]
fn report_attributes_render_time_to_render_stage() {
    let spec = spec_no_snapshot("http://h/").rule(
        Target::Css("#nav".into()),
        vec![Attribute::PrerenderImage {
            scale: 1.0,
            quality: 50,
            cache_ttl_secs: None,
        }],
    );
    let (bundle, report) = adapt_with_report(&spec, PAGE, &ctx()).unwrap();
    assert!(bundle.stats.browser_used);
    let render = report.stage(StageKind::Render).unwrap();
    assert!(render.elapsed > Duration::ZERO);
    assert_eq!(render.artifacts, 1);
    // Render comes last in stage order.
    assert_eq!(report.stages.last().unwrap().kind, StageKind::Render);
}

#[test]
fn stage_kind_names_are_stable() {
    assert_eq!(StageKind::Fetch.name(), "fetch");
    assert_eq!(StageKind::Render.to_string(), "render");
}
