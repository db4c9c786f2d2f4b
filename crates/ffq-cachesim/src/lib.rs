//! A trace-driven cache-hierarchy simulator for the FFQ reproduction.
//!
//! Figures 4 and 5 of the paper plot hardware performance counters — L2/L3
//! hit ratios, L3 misses, memory bandwidth, IPC — for a single-producer/
//! single-consumer FFQ run across queue sizes and the four thread-affinity
//! policies. This environment exposes no PMU (and has one physical core), so
//! those figures are regenerated *deterministically* on a software model
//! instead (substitution DESIGN.md §4.3):
//!
//! * [`cache`] — one set-associative, LRU, write-back cache level;
//! * [`hierarchy`] — per-core L1/L2, shared inclusive L3, MESI-style
//!   coherence between cores (invalidations, dirty-line transfers),
//!   memory-traffic accounting, configurable latencies;
//! * [`qmodel`] — the FFQ cell protocol as a memory-access trace: the
//!   simulated producer and consumer touch exactly the lines the real
//!   implementation touches (cell words + payload, shared head, mirrored
//!   tail), with the paper's cell layouts (padded vs. compact);
//! * [`engine`] — interleaved execution of the two simulated threads under
//!   a `Placement`-like mapping onto simulated cores/hardware threads,
//!   producing a [`report::SimReport`].
//!
//! The mechanisms the paper attributes its curves to — queue footprint vs.
//! cache capacity, private vs. shared caches, coherence misses from
//! producer/consumer line sharing — are exactly the mechanisms modeled here,
//! which is what makes the curve *shapes* reproducible even though absolute
//! cycle counts are synthetic.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod cache;
pub mod engine;
pub mod hierarchy;
pub mod qmodel;
pub mod report;
pub mod workloads;

pub use engine::{simulate_spmc, simulate_spsc, SimConfig, SimPlacement};
pub use hierarchy::{CostModel, Hierarchy, HierarchyConfig};
pub use qmodel::CellLayoutKind;
pub use report::SimReport;
