//! Low-level synchronization primitives shared by the FFQ reproduction.
//!
//! This crate provides the building blocks that the paper's algorithms assume
//! exist on the target hardware:
//!
//! * [`CachePadded`] — cache-line isolation for shared variables (§IV-A of the
//!   paper, "dedicated cache lines").
//! * [`Backoff`] — the bounded exponential back-off consumers use while a
//!   producer is still writing a cell (Algorithm 1, line 32).
//! * [`dwcas`] — the 128-bit *double-word compare-and-set* that FFQ-m
//!   (Algorithm 2) and LCRQ rely on. On `x86_64` this is a native
//!   `lock cmpxchg16b`; elsewhere a documented lock-striped emulation.
//! * [`SeqLock`] — a sequence lock for cheap consistent snapshots of small
//!   plain-data records (used for statistics snapshots).
//! * [`WaitCell`] / [`WaitStrategy`] — the adaptive spin-then-park waiting
//!   layer (futex-backed eventcount) that turns the paper's busy-wait loops
//!   into blocking operations without touching the queue protocol. See
//!   [`eventcount`] for the protocol and its memory-ordering argument.
//! * [`AsyncWaitCell`] — the waker-registry twin of [`WaitCell`] for async
//!   callers: the same `{seq, waiters}` protocol with the symmetric
//!   `SeqCst` fence pair, wakers in a slot list instead of threads on a
//!   futex. See [`async_eventcount`].
//! * [`EraRegistry`] — per-handle era slots for deferred reclamation of the
//!   unbounded tier's ring segments. See [`epoch`].
//! * `sys` — the glibc functions, constants and structs the workspace
//!   calls (shared memory, fork/wait, affinity, rusage), declared directly
//!   so no crate depends on the `libc` crate. Linux only.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod async_eventcount;
pub mod atomic;
mod backoff;
pub mod dwcas;
pub mod epoch;
pub mod eventcount;
pub mod futex;
pub mod lifecycle;
mod membarrier;
mod padded;
mod seqlock;
#[cfg(all(
    target_os = "linux",
    any(
        target_arch = "x86_64",
        target_arch = "aarch64",
        target_arch = "riscv64"
    )
))]
pub mod sys;

pub use async_eventcount::{AsyncWaitCell, WaitToken};
pub use backoff::Backoff;
pub use dwcas::DoubleWord;
pub use epoch::{EraRegistry, ERA_IDLE};
pub use eventcount::{WaitCell, WaitConfig, WaitRound, WaitStrategy};
pub use futex::{futex_wait, futex_wake};
pub use padded::CachePadded;
pub use seqlock::{read_racy, write_racy, SeqLock};

/// The cache-line granularity assumed throughout the reproduction.
///
/// 64 bytes on every x86_64 and POWER8 system the paper evaluates. Padding
/// types round up to 128 bytes because Intel's spatial prefetcher pulls
/// cache lines in aligned pairs, so 128-byte isolation is what actually
/// prevents cross-thread interference on the paper's Skylake/Haswell hosts.
pub const CACHE_LINE: usize = 64;
