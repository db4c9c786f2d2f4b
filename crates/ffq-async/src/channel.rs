//! Flavor-specific async channel constructors and the generic [`wrap`].
//!
//! Each `channel(capacity)` builds the sync queue and wraps *both* ends
//! around one shared `AsyncCells` pair — the invariant the whole wait
//! protocol rests on (see the `handle` module docs: an unwrapped end never
//! notifies async waiters). To async-wrap a queue you built yourself (a
//! custom `CellSlot`, index map or wait config), use [`wrap`] with both of
//! its handles. `wrap` takes the handles that implement
//! [`TrySend`]/[`TryRecv`]: the heap (`ffq::spsc`, `spmc`, `mpmc`),
//! unbounded and shard handles. It takes no `ffq-shm` handle: none
//! implements the traits, and the async wait cells live in one process,
//! where a peer in another process could never wake them.

use crate::handle::{AsyncReceiver, AsyncSender, SharedCells};
use crate::traits::{TryRecv, TrySend};

/// Wraps an existing sync producer/consumer pair for async use.
///
/// Both handles must belong to the same queue (nothing breaks if they do
/// not, but each end then awaits notifications its peer never sends).
/// Additional SPMC/MPMC handles are obtained by cloning the returned
/// wrappers, which keeps every clone on the same wait cells.
pub fn wrap<S: TrySend, R: TryRecv>(tx: S, rx: R) -> (AsyncSender<S>, AsyncReceiver<R>) {
    let cells = SharedCells::default();
    (
        AsyncSender::new(tx, cells.clone()),
        AsyncReceiver::new(rx, cells),
    )
}

/// Async single-producer/single-consumer channel.
pub mod spsc {
    use super::{AsyncReceiver, AsyncSender};

    /// Async SPSC sending half.
    pub type Sender<T> = AsyncSender<ffq::spsc::Producer<T>>;
    /// Async SPSC receiving half.
    pub type Receiver<T> = AsyncReceiver<ffq::spsc::Consumer<T>>;

    /// Creates an async SPSC channel with at least `capacity` cells
    /// (rounded up to a power of two by the sync constructor).
    pub fn channel<T: Send>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = ffq::spsc::channel(capacity);
        super::wrap(tx, rx)
    }
}

/// Async single-producer/multi-consumer channel.
pub mod spmc {
    use super::{AsyncReceiver, AsyncSender};

    /// Async SPMC sending half.
    pub type Sender<T> = AsyncSender<ffq::spmc::Producer<T>>;
    /// Async SPMC receiving half; `Clone` to add consumers.
    pub type Receiver<T> = AsyncReceiver<ffq::spmc::Consumer<T>>;

    /// Creates an async SPMC channel; clone the receiver for more
    /// consumers.
    pub fn channel<T: Send>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = ffq::spmc::channel(capacity);
        super::wrap(tx, rx)
    }
}

/// Async sharded MPMC channel with a k-relaxed FIFO contract.
pub mod shard {
    use super::{AsyncReceiver, AsyncSender};

    /// Async sharded sending half; `Clone` to add producers (the realized
    /// reordering bound assumes a single producer — see `ffq::shard`).
    pub type Sender<T> = AsyncSender<ffq::shard::ShardedProducer<T>>;
    /// Async sharded receiving half; `Clone` to add consumers.
    pub type Receiver<T> = AsyncReceiver<ffq::shard::ShardedConsumer<T>>;

    /// Creates an async sharded channel with the given total capacity and
    /// FIFO contract (`Ordering::Strict` degenerates to one shard).
    pub fn channel<T: Send>(
        capacity: usize,
        ordering: ffq::shard::Ordering,
    ) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = ffq::shard::channel(capacity, ordering);
        super::wrap(tx, rx)
    }

    /// [`channel`] with an explicit `(shards, block)` geometry.
    pub fn channel_with_geometry<T: Send>(
        capacity: usize,
        shards: usize,
        block: usize,
    ) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = ffq::shard::channel_with_geometry(capacity, shards, block);
        super::wrap(tx, rx)
    }
}

/// Async unbounded channels: segment-list queues that never backpressure.
///
/// `enqueue` always completes immediately (a full segment rolls onto a
/// fresh one instead of returning `Full`), so the sending futures never
/// wait — only the receive side parks tasks. The flavors mirror
/// [`ffq::unbounded`]; `capacity` arguments are per-*segment*.
pub mod unbounded {
    use super::{AsyncReceiver, AsyncSender};

    /// Async unbounded single-producer/single-consumer channel.
    pub mod spsc {
        use super::{AsyncReceiver, AsyncSender};

        /// Async unbounded SPSC sending half.
        pub type Sender<T> = AsyncSender<ffq::unbounded::spsc::Producer<T>>;
        /// Async unbounded SPSC receiving half.
        pub type Receiver<T> = AsyncReceiver<ffq::unbounded::spsc::Consumer<T>>;

        /// Creates an async unbounded SPSC channel built from segments of
        /// at least `segment_capacity` cells.
        pub fn channel<T: Send>(segment_capacity: usize) -> (Sender<T>, Receiver<T>) {
            let (tx, rx) = ffq::unbounded::spsc::channel(segment_capacity);
            crate::channel::wrap(tx, rx)
        }
    }

    /// Async unbounded single-producer/multi-consumer channel.
    pub mod spmc {
        use super::{AsyncReceiver, AsyncSender};

        /// Async unbounded SPMC sending half.
        pub type Sender<T> = AsyncSender<ffq::unbounded::spmc::Producer<T>>;
        /// Async unbounded SPMC receiving half; `Clone` to add consumers.
        pub type Receiver<T> = AsyncReceiver<ffq::unbounded::spmc::Consumer<T>>;

        /// Creates an async unbounded SPMC channel; clone the receiver
        /// for more consumers.
        pub fn channel<T: Send>(segment_capacity: usize) -> (Sender<T>, Receiver<T>) {
            let (tx, rx) = ffq::unbounded::spmc::channel(segment_capacity);
            crate::channel::wrap(tx, rx)
        }
    }

    /// Async unbounded multi-producer/multi-consumer channel.
    pub mod mpmc {
        use super::{AsyncReceiver, AsyncSender};

        /// Async unbounded MPMC sending half; `Clone` to add producers.
        pub type Sender<T> = AsyncSender<ffq::unbounded::mpmc::Producer<T>>;
        /// Async unbounded MPMC receiving half; `Clone` to add consumers.
        pub type Receiver<T> = AsyncReceiver<ffq::unbounded::mpmc::Consumer<T>>;

        /// Creates an async unbounded MPMC channel; clone either end for
        /// more handles.
        pub fn channel<T: Send>(segment_capacity: usize) -> (Sender<T>, Receiver<T>) {
            let (tx, rx) = ffq::unbounded::mpmc::channel(segment_capacity);
            crate::channel::wrap(tx, rx)
        }
    }
}

/// Async multi-producer/multi-consumer channel.
pub mod mpmc {
    use super::{AsyncReceiver, AsyncSender};

    /// Async MPMC sending half; `Clone` to add producers.
    pub type Sender<T> = AsyncSender<ffq::mpmc::Producer<T>>;
    /// Async MPMC receiving half; `Clone` to add consumers.
    pub type Receiver<T> = AsyncReceiver<ffq::mpmc::Consumer<T>>;

    /// Creates an async MPMC channel; clone either end for more handles.
    pub fn channel<T: Send>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = ffq::mpmc::channel(capacity);
        super::wrap(tx, rx)
    }
}
