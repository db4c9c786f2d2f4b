//! # ffq-shm — FFQ queues over POSIX shared memory
//!
//! Cross-process SPSC and SPMC FIFO queues built on `ffq`'s raw layer: the
//! queue's counter block and cell array live in a caller-provided
//! shared-memory region (`shm_open` or `memfd_create` + `mmap`), and
//! separate processes mapping the region — at different base addresses —
//! interoperate through the paper's rank/gap protocol alone. Nothing in a
//! region is a pointer: ranks are queue-relative integers and every
//! structure is `#[repr(C)]` with offsets recorded in a versioned header.
//!
//! ## Pieces
//!
//! * [`ShmRegion`] ([`region`]) — owns one `MAP_SHARED` mapping; named
//!   (`shm_open`) or anonymous (`memfd_create`, fd-inherited) backing.
//! * [`header`] — the region header: magic/version, a lifecycle word
//!   driving the `RAW → INITIALIZING → READY` create/attach handshake
//!   (`POISONED` absorbing), the encoded queue configuration, and per-peer
//!   pid + heartbeat slots.
//! * [`spsc`] / [`spmc`] — `create` / `attach_producer` /
//!   `attach_consumer` constructors returning handles that run the normal
//!   FFQ protocol, plus crash detection.
//! * [`spsc_bytes`] / [`spmc_bytes`] — zero-copy variable-size payload
//!   queues: descriptor cells plus a slot-buffer array in the same region;
//!   producers write payloads in place ([`ffq::WriteSlot`]) and consumers
//!   read them borrowed ([`ffq::PayloadRef`]) straight out of the mapping,
//!   with no copy crossing the process boundary.
//! * [`broadcast`] — pub-sub fan-out over the same region layout: every
//!   subscribing process observes the full stream through seqlock-stamped
//!   cells; a slow subscriber loses items (observed as `Lagged`) instead
//!   of blocking the sender, so the sender is wait-free regardless of how
//!   many processes listen.
//!
//! Element types must implement [`ffq::ShmSafe`] (plain-old-data: every
//! bit pattern valid, no pointers, no drop glue) — the compiler refuses a
//! `Box<T>` shared-memory queue instead of letting two address spaces
//! trade dangling pointers.
//!
//! ## Crash safety
//!
//! Queues are *implicitly flow controlled* in the paper's deployments, so
//! a peer that stops participating would otherwise block its partners
//! forever. Every handle registers its pid in the header; the producer
//! additionally bumps a heartbeat as it publishes. A handle that has been
//! waiting too long probes its peer — heartbeat first (free), then
//! `kill(pid, 0)` (`ESRCH` means the process is gone) — and **poisons**
//! the queue on a dead peer: the lifecycle word flips to `POISONED` and
//! every blocked or future operation on any handle returns a
//! [`Poisoned`]-flavoured error within one probe interval instead of
//! hanging.
//!
//! ## Example (single process, two mappings)
//!
//! ```
//! use ffq_shm::{spmc, ShmRegion};
//!
//! let bytes = spmc::required_size::<u64>(1024).unwrap();
//! let region = ShmRegion::create_memfd(bytes).unwrap();
//!
//! // Producer on one mapping, consumer on an independent second mapping
//! // of the same bytes (what another process would see).
//! let mut tx = spmc::create::<u64>(region.clone(), 1024).unwrap();
//! let mut rx = spmc::attach_consumer::<u64>(region.remap().unwrap()).unwrap();
//!
//! tx.enqueue(7).unwrap();
//! assert_eq!(rx.dequeue(), Ok(7));
//! ```
//!
//! Real two-process use: `examples/shm_rpc_server.rs` /
//! `examples/shm_rpc_client.rs` in the repository root run an RPC service
//! over one shared SPMC submission queue and per-proxy SPSC response
//! queues, in separate OS processes connected only by a shared-memory
//! name.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod error;
pub mod header;
pub mod region;
pub mod verify;

mod queue;

pub use error::{
    Poisoned, ShmBroadcastRecvError, ShmBroadcastTryRecvError, ShmDequeueError, ShmError,
    ShmReserveError, ShmTryDequeueError,
};
pub use queue::{
    broadcast, spmc, spmc_bytes, spsc, spsc_bytes, ShmBroadcastSender, ShmBroadcastSubscriber,
    ShmBytesConsumer, ShmBytesProducer, ShmBytesSpmcConsumer, ShmBytesSpscConsumer, ShmConsumer,
    ShmProducer, ShmSpmcConsumer, ShmSpscConsumer,
};
pub use region::ShmRegion;

// Re-export the element-type marker so dependents need not name `ffq`
// directly for the common case.
pub use ffq::ShmSafe;
