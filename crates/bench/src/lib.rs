//! # msite-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! m.Site paper. The `experiments` binary prints them; the Criterion
//! benches measure the underlying operations. See DESIGN.md §4 for the
//! experiment index and EXPERIMENTS.md for paper-vs-measured results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fixtures;
pub mod report;

pub mod capacity;
pub mod claims;
pub mod content;
pub mod fig6;
pub mod fig7;
pub mod hotpath;
pub mod surge;
pub mod table1;
pub mod telemetry;
pub mod throughput;
