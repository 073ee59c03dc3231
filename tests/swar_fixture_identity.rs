//! Byte-identity gates for the SWAR fast paths, run over the *real*
//! fixture sites rather than synthetic documents.
//!
//! The per-crate property suites (`swar_prop`, `swar_identity`) hammer
//! the fast/scalar twins with generated inputs; this suite closes the
//! loop on the pages the paper's figures actually run over — every
//! forum and classifieds page the fixtures serve must tokenize and
//! entity-decode identically through the fast and scalar paths.

use msite_html::entities;
use msite_html::tokenizer::Tokenizer;
use msite_net::{Origin, Request};
use msite_sites::{ClassifiedsConfig, ClassifiedsSite, ForumConfig, ForumSite};

/// Every HTML page body the identity checks sweep: forum entry page
/// and login subpage, classifieds front page and a search result.
fn fixture_pages() -> Vec<(String, String)> {
    let forum = ForumSite::new(ForumConfig::default());
    let classifieds = ClassifiedsSite::new(ClassifiedsConfig::default());
    let mut pages = Vec::new();
    for (label, origin, path) in [
        ("forum index", &forum as &dyn Origin, "/index.php"),
        ("forum login", &forum as &dyn Origin, "/login.php"),
        ("classifieds front", &classifieds as &dyn Origin, "/"),
        ("classifieds search", &classifieds as &dyn Origin, "/search"),
    ] {
        let base = match label.split_whitespace().next() {
            Some("forum") => forum.base_url(),
            _ => classifieds.base_url(),
        };
        let req = Request::get(&format!("{base}{path}")).expect("fixture url parses");
        let response = origin.handle(&req);
        let body = String::from_utf8_lossy(&response.body).into_owned();
        assert!(!body.is_empty(), "{label} served an empty body");
        pages.push((label.to_string(), body));
    }
    pages
}

#[test]
fn tokenizer_twins_agree_on_fixture_pages() {
    for (label, body) in fixture_pages() {
        let fast: Vec<_> = Tokenizer::new(&body).collect();
        let scalar: Vec<_> = Tokenizer::new_scalar(&body).collect();
        assert_eq!(fast, scalar, "tokenizer twins diverged on {label}");
        assert!(
            fast.len() > 10,
            "{label} produced a trivial token stream ({} tokens)",
            fast.len()
        );
    }
}

#[test]
fn entity_codec_twins_agree_on_fixture_pages() {
    for (label, body) in fixture_pages() {
        assert_eq!(
            entities::decode(&body),
            entities::decode_scalar(&body),
            "entity decode twins diverged on {label}"
        );
        assert_eq!(
            entities::encode_text(&body),
            entities::encode_text_scalar(&body),
            "entity encode twins diverged on {label}"
        );
    }
}
