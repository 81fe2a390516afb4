#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

//! # dlb-graphs
//!
//! Graph substrate for the reproduction of Berenbrink–Friedetzky–Hu,
//! *A New Analytical Method for Parallel, Diffusion-type Load Balancing*
//! (IPPS 2006).
//!
//! The paper's model is an arbitrary connected network `G = (V, E)` with
//! maximum degree `δ`; every theorem is parameterized by `δ` and by the
//! second-smallest eigenvalue `λ₂` of the Laplacian of `G`. This crate
//! provides:
//!
//! * [`Graph`] — a compact CSR (compressed sparse row) undirected graph with
//!   a canonical edge list, the representation every balancer iterates over;
//! * [`topology`] — the standard topology families used throughout the
//!   diffusion load-balancing literature (path, cycle, grid, torus,
//!   hypercube, de Bruijn, expanders, …), each documented with its known
//!   spectral parameters;
//! * [`matching`] — random matching generators, the substrate of the
//!   Ghosh–Muthukrishnan dimension-exchange baseline;
//! * [`expansion`] — exact edge expansion for small graphs and Cheeger-type
//!   bounds, connecting `λ₂` to the combinatorial expansion `α` used in the
//!   paper's Section 4;
//! * [`traversal`] — BFS utilities (connectivity, diameter, components);
//! * [`partition`] — graph partitioning for sharded execution: contiguous
//!   range and BFS-grown region partitioners with edge-cut/imbalance
//!   metrics, and per-shard [`ShardView`]s (owned interior/boundary node
//!   sets and the halo of remote neighbours) that the engine's message and
//!   process backends execute from, with each shard's [`LocalCsr`] of its
//!   owned rows derived on demand;
//! * [`structure`] — degree-structure analysis ([`GatherPlan`]): maximal
//!   equal-degree node runs with strided CSR bases, the iteration
//!   schedule behind the engine's degree-specialized gather kernels.
//!
//! All randomized constructions take an explicit [`rand::Rng`] so that every
//! experiment in the workspace is reproducible from a single `u64` seed.

pub mod expansion;
pub mod graph;
pub mod io;
pub mod matching;
pub mod partition;
pub mod structure;
pub mod topology;
pub mod traversal;
pub mod weights;

pub use graph::{Csr, Graph, GraphBuilder, GraphError};
pub use matching::Matching;
pub use partition::{LocalCsr, Partition, PartitionSpec, ShardPlan, ShardView};
pub use structure::{DegreeRun, DegreeStructure, GatherPlan};
