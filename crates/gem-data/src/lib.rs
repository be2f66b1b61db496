//! # gem-data
//!
//! Column/table data model and synthetic corpus simulators for the Gem reproduction.
//!
//! The paper evaluates on four corpora — GDS, WDC, Sato Tables and GitTables (§4.1,
//! Table 1) — none of which can be redistributed here. The experiments, however, only
//! consume `(values, header, ground-truth semantic type)` triples, so this crate generates
//! synthetic corpora that match the published corpus statistics (column counts, number of
//! ground-truth clusters, coarse vs. fine annotation granularity) and, more importantly, the
//! qualitative properties that drive the paper's findings:
//!
//! * many semantic types share overlapping numeric ranges (ages vs. ranks vs. small counts),
//! * WDC headers are coarse and ambiguous ("score" covering cricket/rugby/football columns)
//!   while GDS headers are distinct and specific,
//! * Sato Tables has only 12 broad clusters, GitTables 19 with minimal context,
//! * fine-grained refinements subdivide coarse clusters by context with genuinely different
//!   value distributions (cricket scores run much higher than rugby scores, etc.).

#![deny(missing_docs)]
#![warn(clippy::all)]

mod annotation;
mod column;
mod corpus;
mod families;
mod spec;

pub use annotation::{dataset_statistics, DatasetStatistics, Granularity};
pub use column::{Column, Dataset};
pub use corpus::{
    build_corpus, figure1_columns, gds, gittables, sato_tables, wdc, CorpusConfig, CorpusKind,
};
pub use families::{family_catalog, Family};
pub use spec::{ClusterSpec, DistributionSpec};
