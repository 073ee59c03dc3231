//! # msite
//!
//! A from-scratch reproduction of **m.Site** (Koehl & Wang, MIDDLEWARE
//! 2012): a productivity framework that adapts existing web sites for
//! mobile devices through a generated, multi-session, lightweight proxy —
//! calling on a full server-side browser only when graphical rendering is
//! unavoidable, and caching rendered artifacts across users.
//!
//! The crate mirrors the paper's architecture (its Figures 1–3):
//!
//! - [`admin`] — the visual tool's engine: load a page, enumerate
//!   selectable objects with geometry, accumulate attribute assignments;
//! - [`attributes`] — the attribute paradigm: subpage splitting, object
//!   copy/move/remove/replace, pre-rendering, partial CSS pre-rendering,
//!   image fidelity, search, caching, HTTP auth, AJAX rewriting;
//! - [`content`] — content-aware adaptation: readability scoring,
//!   boilerplate stripping, bandwidth-aware fidelity tiers;
//! - [`dsl`] — the generated proxy program (code generation + loader);
//! - [`pipeline`] — filter phase → tidy/DOM phase → attribute phase →
//!   subpage emission → rendering;
//! - [`proxy`] — the multi-session proxy server: session cookies, per-user
//!   cookie jars and session directories, shared snapshot cache, AJAX
//!   satisfaction, origin passthrough;
//! - [`cache`] — the TTL+LRU render cache that amortizes rendering;
//! - [`search`] — the searchable pre-rendered image index;
//! - [`snapshot`] — the snapshot + image-map entry page;
//! - [`baseline`] — the Highlight browser-per-client baseline of Figure 7.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use msite::attributes::{AdaptationSpec, Attribute, Target};
//! use msite::proxy::{ProxyConfig, ProxyServer};
//! use msite_net::{Origin, OriginRef, Request, Response};
//!
//! // An origin page to mobilize.
//! let origin: OriginRef = Arc::new(|_req: &Request| {
//!     Response::html("<html><head><title>T</title></head><body>\
//!                     <form id=\"login\"><input name=\"u\"></form></body></html>")
//! });
//!
//! // The admin tool's output: split the login form into a subpage.
//! let mut spec = AdaptationSpec::new("demo", "http://origin.test/index.php");
//! spec.snapshot = None;
//! let spec = spec.rule(
//!     Target::Css("#login".into()),
//!     vec![Attribute::Subpage { id: "login".into(), title: "Log in".into(),
//!                               ajax: false, prerender: false }],
//! );
//!
//! // The generated proxy, serving the adapted page.
//! let proxy = ProxyServer::new(spec, origin, ProxyConfig::default());
//! let entry = proxy.handle(&Request::get("http://proxy.test/m/demo/").unwrap());
//! assert!(entry.body_text().contains("/m/demo/s/login.html"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admin;
pub mod ajax;
pub mod attributes;
pub mod baseline;
pub mod cache;
pub mod content;
pub mod dsl;
pub mod engine;
pub mod error;
pub mod persist;
pub mod pipeline;
pub mod proxy;
pub mod search;
pub mod session;
pub mod snapshot;

pub use attributes::{AdaptationSpec, Attribute, Rule, SnapshotSpec, SourceFilter, Target};
pub use baseline::{HighlightConfig, HighlightProxy, HighlightStats};
pub use cache::{
    CacheStats, Claim, Flight, FlightLeader, Lookup, RenderCache, SubtreeCache, SubtreeCacheStats,
};
pub use content::{BoilerKind, ExtractOutcome};
pub use engine::{EngineRegistry, FallbackRender, RenderEngine, RenderError, RenderedArtifact};
pub use error::ProxyError;
pub use persist::{
    DiskBackend, DiskFaultStats, DiskFreshness, DiskRecord, DiskTier, DiskTierConfig,
    DiskTierStats, FlakyDisk, FsDisk, MemDisk,
};
pub use pipeline::{
    adapt, adapt_streaming, adapt_with_report, AdaptError, AdaptedBundle, EmitUnit,
    PipelineContext, PipelineReport, PipelineStats, ScheduleStagger, StageKind, StageReport,
};
pub use proxy::{ProxyConfig, ProxyServer, ProxyStats, STREAM_HEADER};
pub use search::SearchIndex;
pub use session::{
    EvictCause, Session, SessionFs, SessionStore, SessionStoreConfig, SessionStoreStats,
    DEFAULT_TENANT, SESSION_COOKIE,
};
