//! # rrp-webgraph — Web-graph substrate
//!
//! The paper's popularity measures (in-degree, PageRank) are defined over
//! the Web link graph, and its Section 8 mixed-browsing model needs a
//! random surfer. This crate provides the from-scratch substrate:
//!
//! * [`DiGraph`] / [`GraphBuilder`] — a compact CSR directed graph;
//! * [`generator`] — preferential-attachment, copy-model and uniform random
//!   graph generators (the rich-get-richer structure that causes the
//!   entrenchment effect in the first place);
//! * [`pagerank()`] — PageRank by power iteration with teleportation;
//! * [`random_surf`] — a simulated random surfer, used both to validate
//!   PageRank and as the browsing-traffic model of Section 8;
//! * [`GraphPopularity`] — normalisation of graph measures into the
//!   `[0, 1]` popularity scale used by the ranking and simulation crates.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod generator;
pub mod graph;
pub mod pagerank;
pub mod popularity;
pub mod surfer;

pub use generator::{copy_model, preferential_attachment, uniform_random};
pub use graph::{DiGraph, GraphBuilder, NodeId};
pub use pagerank::{pagerank, PageRankOptions, PageRankResult};
pub use popularity::{normalize, GraphPopularity, PopularityMeasure};
pub use surfer::{random_surf, SurferOptions, SurferResult};
