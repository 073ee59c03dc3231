//! # msite-support
//!
//! The hermetic support layer for the m.Site reproduction. Every crate
//! in the workspace builds fully offline: this crate supplies the small
//! slices of functionality the workspace previously pulled from external
//! crates, implemented over `std` only.
//!
//! - [`sync`] — non-poisoning [`Mutex`](sync::Mutex)/[`RwLock`](sync::RwLock)
//!   wrappers (the `parking_lot` calling convention over `std::sync`);
//! - [`bytes`] — [`Bytes`], a cheaply cloneable shared byte
//!   buffer for response bodies and cached artifacts;
//! - [`json`] — a small JSON [`Value`] with a
//!   parser/serializer and the [`ToJson`]/
//!   [`FromJson`] traits used for specs and reports;
//! - [`thread`] — scoped fan-out helpers over [`std::thread::scope`] and
//!   the bounded [`WorkerPool`](thread::WorkerPool) executor;
//! - [`prop`] — a deterministic, seed-driven property-test harness;
//! - [`swar`] — portable `u64`-lane SWAR byte scanning (delimiter
//!   search, branchless ASCII case folding, word-wide prefix compare)
//!   behind byte-identity property gates;
//! - [`benchkit`] — a warmup/iterations/percentiles timing harness with a
//!   criterion-style surface for the `benches/` targets;
//! - [`telemetry`] — the unified observability layer: a sharded
//!   [`MetricsRegistry`](telemetry::MetricsRegistry) with a stable text
//!   exposition, plus the [`Trace`](telemetry::Trace)/
//!   [`Span`](telemetry::Span) request-tracing API and its bounded
//!   [`TraceLog`](telemetry::TraceLog) span ring.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchkit;
pub mod bytes;
pub mod json;
pub mod prop;
pub mod swar;
pub mod sync;
pub mod telemetry;
pub mod thread;

pub use bytes::Bytes;
pub use json::{FromJson, JsonError, ToJson, Value};
