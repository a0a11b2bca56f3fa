//! # tufast-engines — the comparator systems of the paper's evaluation
//!
//! Architectural reimplementations of the systems TuFast is measured
//! against in Figures 11 and 12. Each engine embodies the *paradigm* the
//! paper discusses; none is de-tuned — every engine gets the standard
//! optimisations its model allows:
//!
//! * [`ligra`] — frontier-based shared-memory BSP (edgeMap/vertexMap with
//!   sparse↔dense switching) — the Ligra stand-in.
//! * [`polymer`] — the Polymer stand-in: the same frontier model with
//!   static owner-computes partitioning (the NUMA effect itself is not
//!   reproducible on one socket; see DESIGN.md §2).
//! * [`galois`] — speculative worklist execution with neighbourhood
//!   locking (CAS ownership), the Galois stand-in.
//! * [`gas`] — partitioned gather-apply-scatter over a *simulated* cluster
//!   with an analytic network-cost model: hash partitioning stands in for
//!   PowerGraph, hybrid-cut for PowerLyra.
//! * [`ooc`] — shard-sweep out-of-core execution with an analytic disk
//!   cost model, the GraphChi stand-in.
//!
//! Shared-memory engines ([`ligra`], [`polymer`], [`galois`]) are measured
//! in wall-clock time like TuFast; the simulated engines ([`gas`], [`ooc`])
//! report [`SimCost`] (compute measured, communication/I-O charged
//! analytically), as documented per experiment in EXPERIMENTS.md.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod common;
pub mod galois;
pub mod gas;
pub mod ligra;
pub mod ooc;
pub mod polymer;

pub use common::SimCost;
