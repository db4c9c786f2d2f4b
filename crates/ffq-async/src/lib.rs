//! # ffq-async — runtime-agnostic async/await layer over FFQ queues
//!
//! Wraps the sync `ffq` endpoints ([`crate::wrap`], [`spsc::channel`],
//! [`spmc::channel`], [`mpmc::channel`], and the never-backpressuring
//! [`unbounded`] segment-list variants) with futures that park *tasks*
//! instead of threads:
//!
//! - [`AsyncSender::enqueue`] / [`AsyncSender::enqueue_many`]
//! - [`AsyncReceiver::dequeue`] / [`AsyncReceiver::dequeue_batch`]
//! - [`RecvStream`] / [`SendSink`] adapters (`futures_core::Stream` /
//!   `futures_sink::Sink` impls in `integrations/ffq-tokio`)
//! - the zero-copy [`bytes`] lane: [`AsyncBytesSender::reserve`] resolves
//!   to an in-place write guard, [`AsyncBytesReceiver::recv`] to a
//!   borrowed payload view
//! - the [`broadcast`] lane: every subscriber task awaits the full
//!   stream; a slow subscriber observes `Lagged` instead of
//!   backpressuring the (wait-free, synchronous) sender
//!
//! The waiting primitive is [`ffq_sync::AsyncWaitCell`] — the
//! model-checked `{seq, waiters}` eventcount with a waker registry in
//! place of a futex — and every future and adapter polls through one
//! wait step on it, [`ffq_sync::AsyncWait`] (ALGORITHM.md §12). The sync
//! hot path is untouched: an uncontended notify is one `SeqCst` fence
//! plus one relaxed load.
//!
//! ## Cancellation safety
//!
//! Every future can be dropped at any time (`select!`, timeouts) without
//! losing items, leaking queue state, or perturbing FIFO order:
//!
//! - Dequeue futures never own a claimed rank — pending ranks live in the
//!   *receiver handle* (PR 1), so a dropped `Dequeue` resumes seamlessly
//!   on the next call.
//! - [`AsyncReceiver::dequeue_batch`] harvests items only in the poll
//!   that completes it; nothing is buffered across `Pending`.
//! - A dropped future whose wait registration was already consumed by a
//!   notifier re-notifies one waiter on drop (wake handoff), so a
//!   cancelled task can never swallow the only wake.
//!
//! The crate has no `unsafe`: each endpoint declares its wait cells after
//! its sync handle, so field drop order puts the handle's disconnect
//! before the wake that announces it.
//!
//! ## Runtimes
//!
//! The futures are plain `core::task` citizens and run on any executor.
//! The tokio integration tests and the tokio flavor of the example server
//! live in `integrations/ffq-tokio`, outside the workspace; the bundled
//! [`rt`] module provides a dependency-free `block_on`/executor/timer trio
//! so tests and benches run with no external runtime crates at all.
//!
//! ## The first channel in a threaded process
//!
//! Building the first heap queue of a process registers it for
//! `membarrier(2)`, which lets in-process queues notify without a fence
//! (`ffq_sync::eventcount`). Once other threads exist, the kernel makes
//! that registration wait out an RCU grace period: 6–18 ms on a 2-vCPU
//! Xeon VM, paid once per process by whichever thread builds the
//! first channel. Built on an executor worker, it stalls every task on
//! that worker for that long. Call
//! [`ffq_sync::eventcount::register_membarrier`] in `main` before
//! starting the executor to pay a few µs instead.
//!
//! ## Wiring rule
//!
//! Async notifications travel through an `AsyncCells` pair *beside* the
//! queue (the shm-safe `QueueState` cannot store wakers), so **both ends
//! of a queue must be async-wrapped** for `await` to make progress; a raw
//! sync handle feeding an `AsyncReceiver` delivers items but never wakes
//! a parked task. Wrapped ends still wake blocking futex waiters, so
//! mixing an async end with a *blocking* sync end works.
#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod adapters;
pub mod broadcast;
pub mod bytes;
mod channel;
mod handle;
pub mod rt;
#[cfg(test)]
mod tests;
mod traits;

pub use adapters::{RecvStream, SendSink};
pub use bytes::{
    AsyncBytesReceiver, AsyncBytesSender, AsyncPayloadRef, AsyncWriteSlot, RecvPayload, Reserve,
};
pub use channel::{mpmc, shard, spmc, spsc, unbounded, wrap};
pub use handle::{
    AsyncReceiver, AsyncSender, Dequeue, DequeueBatch, Enqueue, EnqueueMany, SendError,
    DEFAULT_SPIN_POLLS,
};
pub use traits::{TryRecv, TrySend};

// Re-exported so downstream matching on dequeue errors needs no direct
// `ffq` dependency.
pub use ffq::error::{Disconnected, Full, ReserveError, TryDequeueError, TryReserveError};
