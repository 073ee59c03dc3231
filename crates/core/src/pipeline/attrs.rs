//! Attribute stage (§3.3): resolves each rule's target and applies the
//! assigned attributes in order, accumulating subpage content, images,
//! and AJAX actions.

use super::dom::resolve_target;
use super::edit::{
    inject_into_head, insert_html, links_to_columns, merge_style, replace_with_html, set_attr_deep,
    standalone_object_page,
};
use super::render::partial_css_prerender;
use super::stage::{PipelineState, Stage, StageKind, StageOutcome};
use super::{AdaptError, GeneratedImage, PipelineStats};
use crate::ajax;
use crate::attributes::{Attribute, DockObject, Position, Rule, Target};
use crate::content;
use msite_html::{Document, NodeId};
use msite_render::image::{ImageFormat, PostProcess};
use msite_render::Rect;
use std::time::Duration;

/// Applies every rule of the spec to the parsed document.
pub(crate) struct AttributeStage;

impl Stage for AttributeStage {
    fn kind(&self) -> StageKind {
        StageKind::Attributes
    }

    fn run(&self, state: &mut PipelineState<'_>) -> Result<StageOutcome, AdaptError> {
        let affected_before = state.stats.nodes_affected;
        let PipelineState {
            spec,
            ctx,
            doc,
            fingerprints,
            content_metrics,
            subpages,
            images,
            registry,
            stats,
            wants_cookie_clear,
            searchable,
            renderer,
            obj_counter,
            ..
        } = state;
        let doc = doc.as_mut().expect("dom stage ran before attributes");

        for rule in &spec.rules {
            let nodes = resolve_target(doc, &rule.target)?;
            if let Target::Dock(dock) = &rule.target {
                apply_dock_rule(doc, *dock, rule, stats, wants_cookie_clear);
                continue;
            }
            if nodes.is_empty() {
                continue;
            }
            stats.rules_matched += 1;
            for attr in &rule.attributes {
                match attr {
                    Attribute::Subpage { id, title, .. } => {
                        let builder = subpages.get_mut(id).expect("declared in dom stage");
                        for &node in &nodes {
                            builder
                                .mix_fingerprint(fingerprints.as_ref().and_then(|fp| fp.of(node)));
                            builder.body_html.push_str(&doc.outer_html(node));
                            let link = format!(
                                "<a class=\"msite-subpage-link\" href=\"{}/s/{}.html\">{}</a>",
                                ctx.base, id, title
                            );
                            replace_with_html(doc, node, &link);
                            stats.nodes_affected += 1;
                        }
                    }
                    Attribute::CopyTo {
                        subpage,
                        position,
                        set_attr,
                    } => {
                        let builder = subpages.get_mut(subpage).expect("validated in dom stage");
                        for &node in &nodes {
                            builder
                                .mix_fingerprint(fingerprints.as_ref().and_then(|fp| fp.of(node)));
                            let copy = doc.clone_subtree(node);
                            if let Some((name, value)) = set_attr {
                                set_attr_deep(doc, copy, name, value);
                            }
                            let html = doc.outer_html(copy);
                            match position {
                                Position::Head => builder.head_html.push_str(&html),
                                Position::Top => builder.top_html.push_str(&html),
                                Position::Bottom => builder.bottom_html.push_str(&html),
                            }
                            stats.nodes_affected += 1;
                        }
                    }
                    Attribute::MoveTo { subpage, position } => {
                        let builder = subpages.get_mut(subpage).expect("validated in dom stage");
                        for &node in &nodes {
                            builder
                                .mix_fingerprint(fingerprints.as_ref().and_then(|fp| fp.of(node)));
                            let html = doc.outer_html(node);
                            match position {
                                Position::Head => builder.head_html.push_str(&html),
                                Position::Top => builder.top_html.push_str(&html),
                                Position::Bottom => builder.bottom_html.push_str(&html),
                            }
                            doc.detach(node);
                            stats.nodes_affected += 1;
                        }
                    }
                    Attribute::Remove => {
                        for &node in &nodes {
                            doc.detach(node);
                            stats.nodes_affected += 1;
                        }
                    }
                    Attribute::Hide => {
                        for &node in &nodes {
                            merge_style(doc, node, "display", "none");
                            stats.nodes_affected += 1;
                        }
                    }
                    Attribute::ReplaceWith { html } => {
                        for &node in &nodes {
                            replace_with_html(doc, node, html);
                            stats.nodes_affected += 1;
                        }
                    }
                    Attribute::InsertBefore { html } => {
                        for &node in &nodes {
                            insert_html(doc, node, html, true);
                            stats.nodes_affected += 1;
                        }
                    }
                    Attribute::InsertAfter { html } => {
                        for &node in &nodes {
                            insert_html(doc, node, html, false);
                            stats.nodes_affected += 1;
                        }
                    }
                    Attribute::SetAttr { name, value } => {
                        for &node in &nodes {
                            doc.set_attr(node, name, value);
                            stats.nodes_affected += 1;
                        }
                    }
                    Attribute::LinksToColumns { columns } => {
                        for &node in &nodes {
                            links_to_columns(doc, node, *columns);
                            stats.nodes_affected += 1;
                        }
                    }
                    Attribute::InjectClientScript { code } => {
                        for &node in &nodes {
                            insert_html(doc, node, &format!("<script>{code}</script>"), false);
                            stats.nodes_affected += 1;
                        }
                    }
                    Attribute::PrerenderImage {
                        scale,
                        quality,
                        cache_ttl_secs,
                    } => {
                        for &node in &nodes {
                            *obj_counter += 1;
                            let name = format!("obj{obj_counter}.png");
                            let object_html = standalone_object_page(doc, node);
                            let page = renderer.render(&object_html);
                            let image = renderer.encode(
                                &page,
                                &PostProcess {
                                    scale: Some(*scale),
                                    format: ImageFormat::JpegClass { quality: *quality },
                                    ..Default::default()
                                },
                            );
                            let img_tag = format!(
                                "<img class=\"msite-prerendered\" src=\"{}/img/{}\" width=\"{}\" height=\"{}\" alt=\"pre-rendered object\">",
                                ctx.base,
                                name,
                                image.width,
                                image.height
                            );
                            images.push(GeneratedImage::encoded(
                                name,
                                image,
                                cache_ttl_secs.map(Duration::from_secs),
                            ));
                            replace_with_html(doc, node, &img_tag);
                            stats.nodes_affected += 1;
                            stats.images_rendered += 1;
                        }
                    }
                    Attribute::PartialCssPrerender { scale } => {
                        for &node in &nodes {
                            *obj_counter += 1;
                            let name = format!("partial{obj_counter}.png");
                            let artifact = partial_css_prerender(
                                doc, node, renderer, *scale, &ctx.base, &name,
                            );
                            images.push(artifact.image);
                            replace_with_html(doc, node, &artifact.html);
                            stats.nodes_affected += 1;
                            stats.images_rendered += 1;
                        }
                    }
                    Attribute::Searchable => {
                        *searchable = true;
                    }
                    Attribute::RichMediaThumbnail { scale } => {
                        for &node in &nodes {
                            let media: Vec<NodeId> =
                                ["object", "embed", "video", "iframe", "applet"]
                                    .iter()
                                    .flat_map(|tag| doc.elements_by_tag(node, tag))
                                    .collect();
                            for media_node in media {
                                *obj_counter += 1;
                                let name = format!("media{obj_counter}.png");
                                let width: u32 = doc
                                    .attr(media_node, "width")
                                    .and_then(|w| w.parse().ok())
                                    .unwrap_or(320);
                                let height: u32 = doc
                                    .attr(media_node, "height")
                                    .and_then(|h| h.parse().ok())
                                    .unwrap_or(240);
                                let label = doc
                                    .attr(media_node, "src")
                                    .or_else(|| doc.attr(media_node, "data"))
                                    .unwrap_or("rich media")
                                    .to_string();
                                // Render a framed placeholder carrying the
                                // media label — what a constrained device
                                // shows instead of the plugin.
                                let page = format!(
                                    "<!DOCTYPE html><html><body style=\"margin:0\">\
                                     <div style=\"width:{width}px;height:{height}px;\
                                     background:#202028;color:#ffffff;border:2px solid #667\">\
                                     <p style=\"color:#ffffff\">&#9654; {label}</p></div></body></html>"
                                );
                                let page = renderer.render(&page);
                                let image = renderer.encode(
                                    &page,
                                    &PostProcess {
                                        // The page spans the viewport; cut
                                        // out the media box before scaling.
                                        crop: Some(Rect::new(
                                            0.0,
                                            0.0,
                                            width as f32,
                                            height as f32,
                                        )),
                                        scale: Some(*scale),
                                        format: ImageFormat::JpegClass { quality: 50 },
                                    },
                                );
                                let img_tag = format!(
                                    "<img class=\"msite-media-thumb\" src=\"{}/img/{}\" \
                                     width=\"{}\" height=\"{}\" alt=\"{}\">",
                                    ctx.base,
                                    name,
                                    image.width,
                                    image.height,
                                    msite_html::entities::encode_attr(&label)
                                );
                                images.push(GeneratedImage::encoded(
                                    name,
                                    image,
                                    Some(Duration::from_secs(3_600)),
                                ));
                                replace_with_html(doc, media_node, &img_tag);
                                stats.nodes_affected += 1;
                                stats.images_rendered += 1;
                            }
                        }
                    }
                    Attribute::ImageFidelity { quality } => {
                        for &node in &nodes {
                            for img in doc.elements_by_tag(node, "img") {
                                if let Some(src) = doc.attr(img, "src").map(str::to_string) {
                                    let sep = if src.contains('?') { '&' } else { '?' };
                                    doc.set_attr(
                                        img,
                                        "src",
                                        &format!("{src}{sep}msite_q={quality}"),
                                    );
                                    stats.nodes_affected += 1;
                                }
                            }
                        }
                    }
                    Attribute::AjaxRewrite => {
                        for &node in &nodes {
                            let rewrite_stats = ajax::rewrite_handlers(
                                doc,
                                node,
                                registry,
                                &format!("{}/proxy", ctx.base),
                            );
                            stats.nodes_affected += rewrite_stats.handlers_rewritten;
                        }
                    }
                    Attribute::LinksToAjax { target } => {
                        for &node in &nodes {
                            let rewrite_stats = ajax::linkify_to_ajax(
                                doc,
                                node,
                                registry,
                                &format!("{}/proxy", ctx.base),
                                target,
                            );
                            stats.nodes_affected += rewrite_stats.handlers_rewritten;
                        }
                    }
                    Attribute::Dependency { selector } => {
                        // Copy matching objects into every subpage this rule
                        // declares.
                        let dep_nodes = resolve_target(doc, &Target::Css(selector.clone()))?;
                        let subpage_ids: Vec<String> = rule
                            .attributes
                            .iter()
                            .filter_map(|a| match a {
                                Attribute::Subpage { id, .. } => Some(id.clone()),
                                _ => None,
                            })
                            .collect();
                        for id in subpage_ids {
                            let builder = subpages.get_mut(&id).expect("declared in dom stage");
                            for &dep in &dep_nodes {
                                builder.mix_fingerprint(
                                    fingerprints.as_ref().and_then(|fp| fp.of(dep)),
                                );
                                builder.head_html.push_str(&doc.outer_html(dep));
                            }
                        }
                    }
                    Attribute::HttpAuth => {
                        let subpage_ids: Vec<String> = rule
                            .attributes
                            .iter()
                            .filter_map(|a| match a {
                                Attribute::Subpage { id, .. } => Some(id.clone()),
                                _ => None,
                            })
                            .collect();
                        for id in subpage_ids {
                            subpages
                                .get_mut(&id)
                                .expect("declared in dom stage")
                                .http_auth = true;
                        }
                    }
                    Attribute::ExtractMainContent => {
                        let metrics = content_metrics
                            .as_ref()
                            .expect("dom stage measures content-aware specs");
                        for &node in &nodes {
                            if !doc.is_attached(node) {
                                continue;
                            }
                            if let Some(outcome) = content::extract_main_content(doc, node, metrics)
                            {
                                stats.nodes_affected += outcome.removed as usize;
                            }
                        }
                    }
                    Attribute::StripBoilerplate { aggressiveness } => {
                        let metrics = content_metrics
                            .as_ref()
                            .expect("dom stage measures content-aware specs");
                        for &node in &nodes {
                            if !doc.is_attached(node) {
                                continue;
                            }
                            for action in content::strip_plan(doc, node, metrics, *aggressiveness) {
                                doc.detach(action.node);
                                stats.nodes_affected += 1;
                                if let Some(registry) = &ctx.metrics {
                                    registry
                                        .counter(
                                            "msite_blocks_stripped_total",
                                            &[("kind", action.kind.name())],
                                        )
                                        .inc();
                                }
                            }
                        }
                    }
                    Attribute::FidelityTier { tier } => {
                        // A pinned tier wins; auto uses the class the
                        // proxy resolved for this request; standalone
                        // auto runs keep full (WiFi) fidelity.
                        let class = tier
                            .or(ctx.fidelity)
                            .unwrap_or(msite_net::BandwidthClass::Wifi);
                        let caps = content::tier_caps(class);
                        for &node in &nodes {
                            for img in doc.elements_by_tag(node, "img") {
                                *obj_counter += 1;
                                let name = format!("fid{obj_counter}_{class}.png");
                                let width: u32 = doc
                                    .attr(img, "width")
                                    .and_then(|w| w.parse().ok())
                                    .unwrap_or(320);
                                let height: u32 = doc
                                    .attr(img, "height")
                                    .and_then(|h| h.parse().ok())
                                    .unwrap_or(240);
                                let label = doc.attr(img, "alt").unwrap_or("image").to_string();
                                // Re-encode at the declared size through
                                // the tier caps: crop the render to the
                                // image box, then apply the cap's scale
                                // and quality.
                                let page = format!(
                                    "<!DOCTYPE html><html><body style=\"margin:0\">\
                                     <div style=\"width:{width}px;height:{height}px;\
                                     background:#48586a;color:#ffffff\">\
                                     <p style=\"color:#ffffff\">{label}</p></div></body></html>"
                                );
                                let page = renderer.render(&page);
                                let image = renderer.encode(
                                    &page,
                                    &PostProcess {
                                        crop: Some(Rect::new(
                                            0.0,
                                            0.0,
                                            width as f32,
                                            height as f32,
                                        )),
                                        ..caps.post_process(width)
                                    },
                                );
                                let img_tag = format!(
                                    "<img class=\"msite-tiered\" src=\"{}/img/{}\" \
                                     width=\"{}\" height=\"{}\" alt=\"{}\">",
                                    ctx.base,
                                    name,
                                    image.width,
                                    image.height,
                                    msite_html::entities::encode_attr(&label)
                                );
                                images.push(GeneratedImage::encoded(
                                    name,
                                    image,
                                    Some(Duration::from_secs(3_600)),
                                ));
                                replace_with_html(doc, img, &img_tag);
                                stats.nodes_affected += 1;
                                stats.images_rendered += 1;
                            }
                        }
                    }
                }
            }
        }
        Ok(StageOutcome {
            artifacts: stats.nodes_affected - affected_before,
        })
    }
}

fn apply_dock_rule(
    doc: &mut Document,
    dock: DockObject,
    rule: &Rule,
    stats: &mut PipelineStats,
    wants_cookie_clear: &mut bool,
) {
    stats.rules_matched += 1;
    for attr in &rule.attributes {
        match (dock, attr) {
            (DockObject::Title, Attribute::SetAttr { value, .. }) => {
                let titles = doc.elements_by_tag(doc.root(), "title");
                match titles.first() {
                    Some(&title) => doc.set_text_content(title, value),
                    None => {
                        if let Some(&head) = doc.elements_by_tag(doc.root(), "head").first() {
                            let t = doc.create_element("title");
                            doc.set_text_content(t, value);
                            doc.append_child(head, t);
                        }
                    }
                }
                stats.nodes_affected += 1;
            }
            (DockObject::Scripts, Attribute::Remove) => {
                for script in doc.elements_by_tag(doc.root(), "script") {
                    doc.detach(script);
                    stats.nodes_affected += 1;
                }
            }
            (DockObject::Stylesheets, Attribute::Remove) => {
                for style in doc.elements_by_tag(doc.root(), "style") {
                    doc.detach(style);
                    stats.nodes_affected += 1;
                }
                for link in doc.elements_by_tag(doc.root(), "link") {
                    let is_css = doc
                        .attr(link, "rel")
                        .map(|r| r.eq_ignore_ascii_case("stylesheet"))
                        .unwrap_or(false);
                    if is_css {
                        doc.detach(link);
                        stats.nodes_affected += 1;
                    }
                }
            }
            (DockObject::Cookies, Attribute::Remove) => {
                *wants_cookie_clear = true;
            }
            (DockObject::Head, Attribute::InjectClientScript { code }) => {
                inject_into_head(doc, &format!("<script>{code}</script>"));
                stats.nodes_affected += 1;
            }
            _ => {} // unsupported dock/attribute combination: no-op
        }
    }
}
