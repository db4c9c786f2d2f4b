//! # ffq-loom — a minimal model checker for the FFQ reproduction
//!
//! This crate exists because the `cfg(loom)` builds of `ffq-sync` and `ffq`
//! need a loom-style checker and this workspace builds fully offline with
//! zero external dependencies. It implements the subset of
//! [loom](https://docs.rs/loom)'s API the FFQ crates use — `model`,
//! `thread::{spawn, yield_now}`, `sync::atomic`, plus a model futex and a
//! model `membarrier` (`sync::heavy_barrier`) — over a small exhaustive
//! runtime:
//!
//! - **schedules**: threads are serialized and every atomic op / fence /
//!   futex call / spawn / join / yield is a schedule point; exploration is
//!   depth-first over recorded decision traces with a preemption bound
//!   (default 2);
//! - **weak memory**: per-location store histories with vector clocks let
//!   loads read stale-but-coherent values (until a yield, which grants
//!   eventual visibility so spin loops terminate), modeling C11 relaxed /
//!   release-acquire / SC semantics including release sequences, fence
//!   synchronization, and an SC clock for `SeqCst` — see `rt` module docs
//!   for the exact rules and the documented simplifications;
//! - **failures**: assertion panics inside the model, deadlocks (every
//!   live thread blocked), and livelocks (op-cap exceeded) abort the run
//!   and re-panic with a description on the calling test thread, so
//!   `#[should_panic(expected = "deadlock")]` works as a regression pin.
//!
//! Unlike real loom the atomic types are `const`-constructible, so
//! production code keeps its `const fn new` constructors; the cost is that
//! `static` atomics reset between executions (create model state fresh in
//! the closure, as all FFQ models do). Data accesses that are not model
//! atomics (e.g. payload writes through `UnsafeCell`) are *not*
//! race-checked; the models verify the control-word protocols that make
//! those accesses well-ordered.

#![warn(missing_docs)]

mod rt;

pub mod futex;
pub mod sync;
pub mod thread;

pub use rt::{in_model, model, model_bounded};
