use super::{ProxyConfig, ProxyServer};
use crate::attributes::{AdaptationSpec, Attribute, SnapshotSpec, SourceFilter, Target};
use crate::session::SESSION_COOKIE;
use msite_net::{Origin, OriginRef, Request, Response, Status};
use msite_sites::{ForumConfig, ForumSite};
use std::sync::Arc;
use std::time::Duration;

fn forum_spec(site: &ForumSite) -> AdaptationSpec {
    let mut spec = AdaptationSpec::new("forum", &format!("{}/index.php", site.base_url()));
    spec.snapshot = Some(SnapshotSpec {
        scale: 0.5,
        quality: 40,
        cache_ttl_secs: 3_600,
        viewport_width: 1_024,
    });
    spec.filters.push(SourceFilter::SetTitle {
        title: "Sawmill Creek Mobile".into(),
    });
    spec = spec
        .rule(
            Target::Css("#loginform".into()),
            vec![
                Attribute::Subpage {
                    id: "login".into(),
                    title: "Log in".into(),
                    ajax: false,
                    prerender: false,
                },
                Attribute::Dependency {
                    selector: "head link".into(),
                },
            ],
        )
        .rule(
            Target::Css("#forumbits".into()),
            vec![Attribute::Subpage {
                id: "forums".into(),
                title: "Forums".into(),
                ajax: false,
                prerender: false,
            }],
        );
    spec
}

fn proxy_with_forum() -> (Arc<ForumSite>, ProxyServer) {
    let site = Arc::new(ForumSite::new(ForumConfig::default()));
    let spec = forum_spec(&site);
    let proxy = ProxyServer::new(spec, Arc::clone(&site) as OriginRef, ProxyConfig::default());
    (site, proxy)
}

fn get(proxy: &ProxyServer, path: &str) -> Response {
    proxy.handle(&Request::get(&format!("http://proxy.test{path}")).unwrap())
}

fn get_with_cookie(proxy: &ProxyServer, path: &str, cookie: &str) -> Response {
    proxy.handle(
        &Request::get(&format!("http://proxy.test{path}"))
            .unwrap()
            .with_header("cookie", cookie),
    )
}

fn session_cookie(response: &Response) -> String {
    response
        .headers
        .get("set-cookie")
        .expect("session cookie issued")
        .split(';')
        .next()
        .unwrap()
        .to_string()
}

#[test]
fn entry_page_serves_snapshot_and_map() {
    let (_site, proxy) = proxy_with_forum();
    let entry = get(&proxy, "/m/forum/");
    assert!(entry.status.is_success());
    let html = entry.body_text();
    assert!(html.contains("snapshot.png"));
    assert!(html.contains("/m/forum/s/login.html"));
    assert!(html.contains("/m/forum/s/forums.html"));
    // Session cookie issued on first contact.
    assert!(entry
        .headers
        .get("set-cookie")
        .unwrap()
        .contains(SESSION_COOKIE));
}

#[test]
fn snapshot_image_served_from_shared_cache() {
    let (_site, proxy) = proxy_with_forum();
    let entry = get(&proxy, "/m/forum/");
    let cookie = session_cookie(&entry);
    let img = get_with_cookie(&proxy, "/m/forum/img/snapshot.png", &cookie);
    assert!(img.status.is_success());
    assert!(img.body.starts_with(&[0x89, b'P', b'N', b'G']));
}

#[test]
fn entry_caching_amortizes_rendering() {
    let (_site, proxy) = proxy_with_forum();
    let first = get(&proxy, "/m/forum/");
    let cookie = session_cookie(&first);
    for _ in 0..5 {
        let again = get_with_cookie(&proxy, "/m/forum/", &cookie);
        assert!(again.status.is_success());
    }
    let stats = proxy.stats();
    assert_eq!(stats.full_renders, 1, "snapshot rendered once");
    assert!(stats.lightweight >= 5);
    assert!(proxy.cache().amortized_savings() > Duration::ZERO);
}

#[test]
fn subpages_generated_per_user() {
    let (_site, proxy) = proxy_with_forum();
    let entry = get(&proxy, "/m/forum/");
    let cookie = session_cookie(&entry);
    let login = get_with_cookie(&proxy, "/m/forum/s/login.html", &cookie);
    assert!(login.status.is_success());
    let html = login.body_text();
    assert!(html.contains("vb_login_username"));
    // Dependency copied into head.
    assert!(html.contains("vbulletin.css"));
    // Form actions rewritten through the passthrough.
    assert!(html.contains("action=\"/m/forum/o/login.php\""));
}

#[test]
fn sessions_are_isolated() {
    let (_site, proxy) = proxy_with_forum();
    let a = session_cookie(&get(&proxy, "/m/forum/"));
    let b = session_cookie(&get(&proxy, "/m/forum/"));
    assert_ne!(a, b);
    let _ = get_with_cookie(&proxy, "/m/forum/s/login.html", &a);
    // User A has files, user B does not (until they ask).
    let paths = proxy.stored_files();
    let a_id = a.split('=').nth(1).unwrap();
    let b_id = b.split('=').nth(1).unwrap();
    assert!(paths.iter().any(|p| p.contains(a_id)));
    assert!(!paths.iter().any(|p| p.contains(b_id)));
    assert_eq!(proxy.session_count(), 2);
}

#[test]
fn login_via_passthrough_authenticates_jar() {
    let (_site, proxy) = proxy_with_forum();
    let entry = get(&proxy, "/m/forum/");
    let cookie = session_cookie(&entry);
    let (user, pass) = ForumSite::demo_credentials();
    let login = proxy.handle(
        &Request::post_form(
            "http://proxy.test/m/forum/o/login.php",
            &[("vb_login_username", user), ("vb_login_password", pass)],
        )
        .unwrap()
        .with_header("cookie", &cookie),
    );
    // Origin redirect is rewritten into the proxy namespace.
    assert!(login.status.is_redirect());
    assert_eq!(login.headers.get("location"), Some("/m/forum/"));
    // The jar now holds the vBulletin session: private origin area
    // reachable through the passthrough.
    let private = get_with_cookie(&proxy, "/m/forum/o/private/index.php", &cookie);
    assert!(private.status.is_success());
    assert!(private.body_text().contains("Moderator Lounge"));
}

#[test]
fn logout_destroys_session_files() {
    let (_site, proxy) = proxy_with_forum();
    let entry = get(&proxy, "/m/forum/");
    let cookie = session_cookie(&entry);
    let _ = get_with_cookie(&proxy, "/m/forum/s/login.html", &cookie);
    assert!(!proxy.stored_files().is_empty());
    let out = get_with_cookie(&proxy, "/m/forum/logout", &cookie);
    assert!(out.status.is_redirect());
    let id = cookie.split('=').nth(1).unwrap();
    assert!(!proxy.stored_files().iter().any(|p| p.contains(id)));
    assert_eq!(proxy.session_count(), 0);
}

#[test]
fn ajax_action_satisfied_through_proxy() {
    let site = Arc::new(ForumSite::new(ForumConfig::default()));
    let mut spec = AdaptationSpec::new(
        "thread",
        &format!("{}/showthread.php?t=5555", site.base_url()),
    );
    spec.snapshot = None;
    spec = spec.rule(Target::Css("#posts".into()), vec![Attribute::AjaxRewrite]);
    let proxy = ProxyServer::new(spec, Arc::clone(&site) as OriginRef, ProxyConfig::default());
    // Entry adapts the thread page, rewriting showpic handlers.
    let entry = get(&proxy, "/m/thread/");
    let cookie = session_cookie(&entry);
    assert!(entry.body_text().contains("msiteLoad('/m/thread/proxy'"));
    // The AJAX endpoint requires an origin session; log in first.
    let (user, pass) = ForumSite::demo_credentials();
    let _ = proxy.handle(
        &Request::post_form(
            "http://proxy.test/m/thread/o/login.php",
            &[("vb_login_username", user), ("vb_login_password", pass)],
        )
        .unwrap()
        .with_header("cookie", &cookie),
    );
    let frag = get_with_cookie(&proxy, "/m/thread/proxy?action=1&p=7", &cookie);
    assert!(frag.status.is_success(), "{}", frag.body_text());
    assert!(frag.body_text().contains("/images/pic7.jpg"));
}

#[test]
fn ajax_unknown_action_404() {
    let (_site, proxy) = proxy_with_forum();
    let entry = get(&proxy, "/m/forum/");
    let cookie = session_cookie(&entry);
    let r = get_with_cookie(&proxy, "/m/forum/proxy?action=99&p=1", &cookie);
    assert_eq!(r.status, Status::NOT_FOUND);
    let r = get_with_cookie(&proxy, "/m/forum/proxy", &cookie);
    assert_eq!(r.status, Status::BAD_REQUEST);
}

#[test]
fn http_auth_flow() {
    let site = Arc::new(ForumSite::new(ForumConfig::default()));
    let mut spec = AdaptationSpec::new("forum", &format!("{}/index.php", site.base_url()));
    spec.snapshot = None;
    spec = spec.rule(
        Target::Css("#stats".into()),
        vec![
            Attribute::Subpage {
                id: "stats".into(),
                title: "Statistics".into(),
                ajax: false,
                prerender: false,
            },
            Attribute::HttpAuth,
        ],
    );
    let proxy = ProxyServer::new(spec, Arc::clone(&site) as OriginRef, ProxyConfig::default());
    let entry = get(&proxy, "/m/forum/");
    let cookie = session_cookie(&entry);
    // Unauthenticated: redirected to the lightweight auth page.
    let r = get_with_cookie(&proxy, "/m/forum/s/stats.html", &cookie);
    assert!(r.status.is_redirect());
    assert!(r.headers.get("location").unwrap().contains("/m/forum/auth"));
    // The form stores credentials, then the subpage serves.
    let auth = proxy.handle(
        &Request::post_form(
            "http://proxy.test/m/forum/auth?next=stats.html",
            &[("user", "admin"), ("pass", "pw")],
        )
        .unwrap()
        .with_header("cookie", &cookie),
    );
    assert!(auth.status.is_redirect());
    let r = get_with_cookie(&proxy, "/m/forum/s/stats.html", &cookie);
    assert!(r.status.is_success());
    assert!(r.body_text().contains("Statistics"));
}

#[test]
fn origin_failure_returns_bad_gateway() {
    let failing: OriginRef = Arc::new(|_req: &Request| {
        Response::error(Status::SERVICE_UNAVAILABLE, "down for maintenance")
    });
    let mut spec = AdaptationSpec::new("down", "http://down.test/index.php");
    spec.snapshot = None;
    let proxy = ProxyServer::new(spec, failing, ProxyConfig::default());
    let r = get(&proxy, "/m/down/");
    assert_eq!(r.status, Status::BAD_GATEWAY);
}

#[test]
fn unknown_paths_rejected() {
    let (_site, proxy) = proxy_with_forum();
    assert_eq!(get(&proxy, "/other/").status, Status::NOT_FOUND);
    assert_eq!(get(&proxy, "/m/forum/nope").status, Status::NOT_FOUND);
    assert_eq!(
        get(&proxy, "/m/forum/img/ghost.png").status,
        Status::NOT_FOUND
    );
}

#[test]
fn from_script_deploys() {
    let site = Arc::new(ForumSite::new(ForumConfig::default()));
    let script = format!(
        "page forum \"{}/index.php\"\nsession required\nsnapshot scale=0.5 quality=40 ttl=60 viewport=800\n\
         rule css \"#loginform\" {{\n  subpage login \"Log in\" ajax=no prerender=no\n}}\n",
        site.base_url()
    );
    let proxy = ProxyServer::from_script(
        &script,
        Arc::clone(&site) as OriginRef,
        ProxyConfig::default(),
    )
    .unwrap();
    let entry = get(&proxy, "/m/forum/");
    assert!(entry.status.is_success());
    assert!(entry.body_text().contains("login.html"));
    assert!(
        ProxyServer::from_script("garbage", site as OriginRef, ProxyConfig::default()).is_err()
    );
}

#[test]
fn pluggable_engines_render_alternate_formats() {
    let (_site, proxy) = proxy_with_forum();
    assert_eq!(proxy.engine_names(), vec!["html", "image", "text", "pdf"]);
    let entry = get(&proxy, "/m/forum/");
    let cookie = session_cookie(&entry);
    let text = get_with_cookie(&proxy, "/m/forum/render/text", &cookie);
    assert!(text.status.is_success());
    assert!(text
        .headers
        .get("content-type")
        .unwrap()
        .starts_with("text/plain"));
    assert!(text.body_text().contains("Currently Active Users"));
    let pdf = get_with_cookie(&proxy, "/m/forum/render/pdf", &cookie);
    assert!(pdf.body.starts_with(b"%PDF-1.4"));
    let image = get_with_cookie(&proxy, "/m/forum/render/image", &cookie);
    assert!(image.body.starts_with(&[0x89, b'P', b'N', b'G']));
    let missing = get_with_cookie(&proxy, "/m/forum/render/flash", &cookie);
    assert_eq!(missing.status, Status::NOT_FOUND);
}

#[test]
fn stats_distinguish_render_paths() {
    let (_site, proxy) = proxy_with_forum();
    let entry = get(&proxy, "/m/forum/");
    let cookie = session_cookie(&entry);
    for _ in 0..10 {
        let _ = get_with_cookie(&proxy, "/m/forum/img/snapshot.png", &cookie);
    }
    let stats = proxy.stats();
    assert_eq!(stats.requests, 11);
    assert_eq!(stats.full_renders, 1);
    assert_eq!(stats.lightweight, 10);
}

#[test]
fn streamed_entry_concatenates_to_batch_body() {
    let (_site, proxy) = proxy_with_forum();
    // Batch first, on a fresh twin proxy, so both runs start cold.
    let (_site2, streamed_proxy) = proxy_with_forum();
    let batch = get(&proxy, "/m/forum/");
    let streamed = streamed_proxy.handle(
        &Request::get("http://proxy.test/m/forum/")
            .unwrap()
            .with_header(super::STREAM_HEADER, "chunked"),
    );
    assert!(streamed.status.is_success());
    let drained = streamed.into_collected();
    assert_eq!(
        drained.body_text(),
        batch.body_text(),
        "chunk concatenation must equal the batch entry body"
    );
    assert_eq!(streamed_proxy.stats().streamed_responses, 1);
}
