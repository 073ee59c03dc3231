//! Emission stage: build the entry page (snapshot image map or adapted
//! document), then assemble subpage files and pre-render image
//! subpages.
//!
//! The stage runs entry-first: the snapshot is processed, the imagemap
//! geometry computed, and the entry page handed to the run's unit sink
//! *before* any subpage is assembled, so a progressive transport can
//! flush the entry to the client while subpage workers are still
//! running. Subpage and image units are handed over from inside the
//! fan-out as each worker finishes. A batch run ([`adapt`](super::adapt))
//! passes a sink that ignores every unit; units borrow the artifacts,
//! so that sink copies nothing.
//!
//! Subpage work is embarrassingly parallel — each subpage's assembly
//! and optional image pre-render depend only on its own builder plus
//! shared read-only state — so this stage fans it out across the
//! context's worker crew ([`PipelineContext::parallelism`]). Results
//! are merged back in subpage-key order (the `BTreeMap` iteration
//! order), so the emitted bundle is byte-identical to a serial run
//! regardless of thread scheduling or of when the sink saw each unit.
//!
//! # Incremental re-adaptation
//!
//! When the context carries a [`SubtreeCache`](crate::cache::SubtreeCache),
//! each subpage's finished artifact is cached under a fingerprint of
//! everything that determines its bytes: the source subtrees that
//! contributed content (their `msite_html::fingerprint` hashes, mixed
//! in by the attribute stage), the assembled fragments, the flags, and
//! the serving base. On a re-run, subpages whose fingerprints match are
//! handed back without re-assembly or re-render — only changed subtrees
//! pay the pipeline cost again.

use super::edit::{first_id_in_html, inject_into_head, page_title};
use super::render::Renderer;
use super::stage::{fan, PipelineState, StageOutcome, SubpageBuilder};
use super::{AdaptError, EmitUnit, GeneratedFile, GeneratedImage, PipelineContext};
use crate::ajax;
use crate::search::SearchIndex;
use msite_html::fingerprint::{fnv1a_continue, FNV_OFFSET};
use msite_render::image::{ImageFormat, PostProcess};
use msite_render::Rect;
use msite_support::sync::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One subpage's finished artifacts, produced by a fan-out task (and
/// cached by the subtree tier).
#[derive(Clone)]
struct SubpageArtifact {
    file: GeneratedFile,
    image: Option<GeneratedImage>,
}

/// Runs the emit stage against `on_unit`: the entry page first, then
/// the images it references, then each subpage's units as its worker
/// finishes. Every artifact of the bundle reaches the sink once.
/// Fills the state's entry, subpage and image fields in the same order
/// whatever the sink does.
pub(crate) fn run(
    state: &mut PipelineState<'_>,
    on_unit: &mut (dyn FnMut(EmitUnit<'_>) + Send),
) -> Result<StageOutcome, AdaptError> {
    // Pure filter adaptation: the filtered source *is* the entry page.
    if state.filter_only() {
        state.entry_html = std::mem::take(&mut state.source);
        on_unit(EmitUnit::Entry(&state.entry_html));
        return Ok(StageOutcome::serial(1));
    }

    // ---- Entry page FIRST -----------------------------------------
    let (entry, snapshot_image) = build_entry(state);
    state.entry_html = entry;
    on_unit(EmitUnit::Entry(&state.entry_html));
    // The entry page references the snapshot and the images the
    // attribute stage rendered (pre-rendered objects, thumbnails,
    // fidelity tiers): hand them over right behind it.
    for image in snapshot_image.iter().chain(&state.images) {
        on_unit(EmitUnit::Image(image));
    }

    // ---- Subpages, emitted as their workers finish ----------------
    // One task per subpage: assemble the HTML and, for pre-rendered
    // subpages, render + post-process the image (or reuse a cached
    // artifact whose content fingerprint matches).
    let mut parallel_busy = Duration::ZERO;
    let artifacts: Vec<(Arc<SubpageArtifact>, bool)> = {
        let ctx = state.ctx;
        let renderer = &state.renderer;
        let builders: Vec<&SubpageBuilder> = state.subpages.values().collect();
        let sink = Mutex::new(&mut *on_unit);
        fan(ctx, builders.len(), |index| {
            let result = build_subpage_cached(builders[index], ctx, renderer);
            {
                let mut emit = sink.lock();
                (*emit)(EmitUnit::Subpage(&result.0.file));
                if let Some(image) = &result.0.image {
                    (*emit)(EmitUnit::Image(image));
                }
            }
            result
        })
        .into_iter()
        .map(|(artifact, busy)| {
            parallel_busy += busy;
            artifact
        })
        .collect()
    };
    let parallel_tasks = if state.ctx.parallelism.max(1) > 1 {
        artifacts.len()
    } else {
        0
    };
    merge_artifacts(state, artifacts);
    // The snapshot joins the bundle *after* the subpage images.
    if let Some(image) = snapshot_image {
        state.images.push(image);
        state.stats.images_rendered += 1;
    }
    Ok(StageOutcome {
        artifacts: state.subpage_files.len() + 1,
        parallel_tasks,
        parallel_busy,
    })
}

/// Builds the entry page (snapshot image map or adapted document),
/// returning the HTML and, in snapshot mode, the processed snapshot
/// image.
fn build_entry(state: &mut PipelineState<'_>) -> (String, Option<GeneratedImage>) {
    let doc = state.doc.as_mut().expect("dom stage ran before emit");
    // The snapshot render holds the run's largest allocation, a
    // full-page canvas. Nothing after the entry page needs it, so it is
    // freed here: before the subpage work, and before a sink copies
    // the snapshot into a long-lived store above a dead canvas.
    if let (Some(snap), Some(render)) = (&state.spec.snapshot, state.snapshot_render.take()) {
        let processed = state.renderer.process(
            &render.canvas,
            &PostProcess {
                scale: Some(snap.scale),
                format: ImageFormat::JpegClass {
                    quality: snap.quality,
                },
                ..Default::default()
            },
        );
        if state.searchable {
            state.search_index = Some(SearchIndex::build(&render.layout, snap.scale));
        }
        // Imagemap geometry: one id lookup and rect scale per subpage,
        // in key order.
        let areas: Vec<crate::snapshot::MapArea> = state
            .subpages
            .values()
            .map(|builder| subpage_area(builder, &render, snap.scale, &state.ctx.base))
            .collect();
        let entry = crate::snapshot::build_entry_page(&crate::snapshot::EntryPageInput {
            base: state.ctx.base.clone(),
            title: page_title(doc).unwrap_or_else(|| state.spec.page_id.clone()),
            snapshot_name: "snapshot.png".to_string(),
            snapshot_width: processed.canvas.width(),
            snapshot_height: processed.canvas.height(),
            scale: snap.scale,
            areas,
            has_ajax: !state.registry.actions.is_empty() || state.subpages.values().any(|s| s.ajax),
            search_js: state.search_index.as_ref().map(|s| s.to_javascript()),
        });
        let image = GeneratedImage {
            name: "snapshot.png".to_string(),
            wire_size: processed.wire_bytes(),
            width: processed.canvas.width(),
            height: processed.canvas.height(),
            bytes: processed.encoded,
            cache_ttl: Some(Duration::from_secs(snap.cache_ttl_secs)),
        };
        (entry, Some(image))
    } else {
        // Non-snapshot mode: the adapted document itself, with the AJAX
        // helper injected when needed.
        if !state.registry.actions.is_empty() {
            inject_into_head(
                doc,
                &format!("<script>{}</script>", ajax::client_helper_script()),
            );
        }
        (doc.to_html(), None)
    }
}

/// Merges finished subpage artifacts into the state (key order) and
/// records the run's incremental-reuse span. The subtree cache itself
/// counts the reuses and recomputations.
fn merge_artifacts(state: &mut PipelineState<'_>, artifacts: Vec<(Arc<SubpageArtifact>, bool)>) {
    let mut reused = 0u64;
    let mut recomputed = 0u64;
    let merge_started = Instant::now();
    for (artifact, was_reused) in artifacts {
        if was_reused {
            reused += 1;
        } else {
            recomputed += 1;
        }
        if let Some(image) = &artifact.image {
            state.images.push(image.clone());
            state.stats.images_rendered += 1;
        }
        state.subpage_files.push(artifact.file.clone());
    }
    if state.ctx.subtree_cache.is_none() {
        return;
    }
    if reused > 0 {
        if let Some(trace) = &state.ctx.trace {
            trace.log().record_raw(
                trace.id(),
                "incremental.reuse",
                merge_started,
                merge_started.elapsed(),
                vec![
                    ("reused".to_string(), reused.to_string()),
                    ("recomputed".to_string(), recomputed.to_string()),
                ],
            );
        }
    }
}

/// The subtree-cache key for one subpage: an FNV-1a mix of every input
/// that determines the artifact's bytes. A hit therefore guarantees a
/// byte-identical artifact; the source-subtree fingerprints mixed in by
/// the attribute stage make the key change whenever contributing
/// content changes, even across re-fetches of the origin page.
fn subpage_cache_key(builder: &SubpageBuilder, ctx: &PipelineContext) -> u64 {
    let mut hash = FNV_OFFSET;
    let mut part = |bytes: &[u8]| {
        hash = fnv1a_continue(hash, bytes);
        // NUL separator: unambiguous field boundaries.
        hash = fnv1a_continue(hash, &[0]);
    };
    part(&builder.fingerprint.to_le_bytes());
    part(builder.id.as_bytes());
    part(builder.title.as_bytes());
    part(&[u8::from(builder.ajax), u8::from(builder.prerender)]);
    part(builder.head_html.as_bytes());
    part(builder.top_html.as_bytes());
    part(builder.body_html.as_bytes());
    part(builder.bottom_html.as_bytes());
    for script in &builder.scripts {
        part(script.as_bytes());
    }
    part(ctx.base.as_bytes());
    hash
}

/// Builds one subpage through the subtree cache: a fingerprint hit
/// returns the cached artifact without re-assembly or re-render; a miss
/// builds and stores it. The boolean is `true` when the artifact was
/// reused. Without a cache on the context this is a plain build.
fn build_subpage_cached(
    builder: &SubpageBuilder,
    ctx: &PipelineContext,
    renderer: &Renderer,
) -> (Arc<SubpageArtifact>, bool) {
    let Some(cache) = &ctx.subtree_cache else {
        return (Arc::new(build_subpage(builder, ctx, renderer)), false);
    };
    let key = subpage_cache_key(builder, ctx);
    if let Some(hit) = cache.get(key) {
        if let Ok(artifact) = hit.downcast::<SubpageArtifact>() {
            return (artifact, true);
        }
    }
    let artifact = Arc::new(build_subpage(builder, ctx, renderer));
    cache.put(
        key,
        Arc::clone(&artifact) as Arc<dyn std::any::Any + Send + Sync>,
    );
    (artifact, false)
}

/// Builds one subpage's artifacts: the assembled HTML file and, for
/// pre-rendered subpages, the rendered + post-processed image the file
/// embeds. Pure function of the builder plus shared read-only state, so
/// it can run on any worker.
fn build_subpage(
    builder: &SubpageBuilder,
    ctx: &PipelineContext,
    renderer: &Renderer,
) -> SubpageArtifact {
    let html = assemble_subpage(builder, ctx);
    if !builder.prerender {
        return SubpageArtifact {
            file: GeneratedFile {
                name: format!("{}.html", builder.id),
                html,
            },
            image: None,
        };
    }
    let rendered = renderer.render(&html);
    let processed = renderer.process(
        &rendered.canvas,
        &PostProcess {
            format: ImageFormat::JpegClass { quality: 50 },
            ..Default::default()
        },
    );
    let img_name = format!("sub_{}.png", builder.id);
    let page = format!(
        "<!DOCTYPE html><html><head><title>{}</title></head><body style=\"margin:0\">\
         <img src=\"{}/img/{}\" width=\"{}\" height=\"{}\" alt=\"{}\"></body></html>",
        builder.title,
        ctx.base,
        img_name,
        processed.canvas.width(),
        processed.canvas.height(),
        builder.title
    );
    SubpageArtifact {
        file: GeneratedFile {
            name: format!("{}.html", builder.id),
            html: page,
        },
        image: Some(GeneratedImage {
            name: img_name,
            wire_size: processed.wire_bytes(),
            width: processed.canvas.width(),
            height: processed.canvas.height(),
            bytes: processed.encoded,
            cache_ttl: None,
        }),
    }
}

fn assemble_subpage(builder: &SubpageBuilder, ctx: &PipelineContext) -> String {
    let mut html = String::from("<!DOCTYPE html>\n<html><head>");
    html.push_str(&format!(
        "<title>{}</title><meta name=\"viewport\" content=\"width=device-width\">",
        msite_html::entities::encode_text(&builder.title)
    ));
    html.push_str(&builder.head_html);
    html.push_str("</head><body>");
    html.push_str(&builder.top_html);
    html.push_str(&builder.body_html);
    html.push_str(&builder.bottom_html);
    html.push_str(&format!(
        "<div class=\"msite-breadcrumb\"><a href=\"{}/\">&laquo; back to overview</a></div>",
        ctx.base
    ));
    for script in &builder.scripts {
        html.push_str(&format!("<script>{script}</script>"));
    }
    html.push_str("</body></html>");
    html
}

/// Computes the clickable image-map area for one subpage target by
/// finding the same selector in the snapshot render and translating its
/// coordinates by the snapshot scale.
fn subpage_area(
    builder: &SubpageBuilder,
    render: &msite_render::RenderResult,
    scale: f32,
    base: &str,
) -> crate::snapshot::MapArea {
    // Geometry is recovered per subpage body: the subpage body html was
    // captured before removal; match by the subpage link class is not
    // possible in the snapshot (it shows the original page), so the
    // *source* rects were resolved by the caller storing them during the
    // attribute phase. Simpler and robust: look the subpage's first id
    // attribute up in the render.
    let rect = first_id_in_html(&builder.body_html)
        .and_then(|id| render.doc.element_by_id(&id))
        .and_then(|node| render.layout.rect_of(node));
    let rect = match rect {
        Some(rect) => rect.scaled(scale),
        // No geometry: still expose the subpage via the fallback menu
        // (rect of zero size is skipped in the <map> but kept in the
        // menu list).
        None => Rect::new(0.0, 0.0, 0.0, 0.0),
    };
    crate::snapshot::MapArea {
        rect,
        href: format!("{base}/s/{}.html", builder.id),
        title: builder.title.clone(),
        ajax: builder.ajax,
    }
}
