//! Non-blocking endpoint abstraction over the three queue flavors.
//!
//! The async layer never blocks a thread, so everything it needs from a
//! queue handle is its *non-blocking* surface: `try_enqueue`/`try_dequeue`
//! plus the batched harvest. These two traits capture exactly that, which
//! lets one `AsyncSender`/`AsyncReceiver` implementation (and one set of
//! futures) serve SPSC, SPMC and MPMC handles without re-deriving the cell
//! protocol per flavor. The blocking/waiting machinery of the sync handles
//! (futex eventcounts, `WaitStrategy`) is bypassed entirely — async waiting
//! goes through the [`ffq_sync::AsyncWaitCell`] pair owned by the wrappers.

use ffq::cell::CellSlot;
use ffq::error::{Full, TryDequeueError};
use ffq::layout::IndexMap;
use ffq::raw::ConsumerEngine;

/// A queue endpoint that can attempt a non-blocking enqueue.
///
/// Implemented for the `ffq` producer handles. `Send` is required
/// because async tasks migrate across executor threads.
pub trait TrySend: Send {
    /// Payload type carried by the queue.
    type Item: Send;

    /// Attempts to enqueue without blocking; `Err(Full)` returns the item.
    fn try_send(&mut self, value: Self::Item) -> Result<(), Full<Self::Item>>;

    /// `true` when every consumer handle is provably gone, so a send can
    /// never be received.
    fn peers_gone(&self) -> bool;

    /// Capacity of the underlying cell array.
    fn capacity(&self) -> usize;
}

/// A queue endpoint that can attempt a non-blocking dequeue.
pub trait TryRecv: Send {
    /// Payload type carried by the queue.
    type Item: Send;

    /// Attempts to dequeue without blocking.
    ///
    /// For the rank-claiming flavors (SPMC/MPMC) an `Empty` return re-parks
    /// any claimed-but-unsatisfied rank in the *handle's* pending-rank
    /// FIFO, never in the caller — which is what makes the async futures
    /// cancellation-safe for free: a dropped future holds no queue state.
    fn try_recv(&mut self) -> Result<Self::Item, TryDequeueError>;

    /// Harvests up to `max` immediately-available items into `buf`;
    /// returns the number appended. Never blocks, never spins on busy
    /// cells.
    fn recv_batch_now(&mut self, buf: &mut Vec<Self::Item>, max: usize) -> usize;

    /// Capacity of the underlying cell array.
    fn capacity(&self) -> usize;
}

/// The single-producer handle of SPSC and SPMC queues (one type).
impl<T: Send, C: CellSlot<T>, M: IndexMap> TrySend for ffq::spmc::Producer<T, C, M> {
    type Item = T;

    #[inline]
    fn try_send(&mut self, value: T) -> Result<(), Full<T>> {
        self.try_enqueue(value)
    }

    #[inline]
    fn peers_gone(&self) -> bool {
        self.consumers() == 0
    }

    #[inline]
    fn capacity(&self) -> usize {
        self.capacity()
    }
}

impl<T: Send, C: CellSlot<T>, M: IndexMap> TrySend for ffq::mpmc::Producer<T, C, M> {
    type Item = T;

    #[inline]
    fn try_send(&mut self, value: T) -> Result<(), Full<T>> {
        self.try_enqueue(value)
    }

    #[inline]
    fn peers_gone(&self) -> bool {
        self.consumers() == 0
    }

    #[inline]
    fn capacity(&self) -> usize {
        self.capacity()
    }
}

impl<T: Send> TrySend for ffq::shard::ShardedProducer<T> {
    type Item = T;

    #[inline]
    fn try_send(&mut self, value: T) -> Result<(), Full<T>> {
        self.try_enqueue(value)
    }

    #[inline]
    fn peers_gone(&self) -> bool {
        self.consumers() == 0
    }

    #[inline]
    fn capacity(&self) -> usize {
        self.capacity()
    }
}

impl<T: Send> TrySend for ffq::unbounded::SpProducer<T> {
    type Item = T;

    #[inline]
    fn try_send(&mut self, value: T) -> Result<(), Full<T>> {
        // Unbounded: a full segment rolls instead of rejecting, so the
        // non-blocking send always succeeds and the async sender never
        // waits on `not_full`.
        self.enqueue(value);
        Ok(())
    }

    #[inline]
    fn peers_gone(&self) -> bool {
        self.consumers() == 0
    }

    #[inline]
    fn capacity(&self) -> usize {
        self.segment_capacity()
    }
}

impl<T: Send> TrySend for ffq::unbounded::MpProducer<T> {
    type Item = T;

    #[inline]
    fn try_send(&mut self, value: T) -> Result<(), Full<T>> {
        self.enqueue(value);
        Ok(())
    }

    #[inline]
    fn peers_gone(&self) -> bool {
        self.consumers() == 0
    }

    #[inline]
    fn capacity(&self) -> usize {
        self.segment_capacity()
    }
}

/// Every heap consumer: SPSC, SPMC and MPMC (one type over the engines).
impl<T: Send, C: CellSlot<T>, M: IndexMap, E: ConsumerEngine<T, C, M>> TryRecv
    for ffq::spmc::Consumer<T, C, M, E>
{
    type Item = T;

    #[inline]
    fn try_recv(&mut self) -> Result<T, TryDequeueError> {
        self.try_dequeue()
    }

    #[inline]
    fn recv_batch_now(&mut self, buf: &mut Vec<T>, max: usize) -> usize {
        self.dequeue_batch(buf, max)
    }

    #[inline]
    fn capacity(&self) -> usize {
        self.capacity()
    }
}

/// Every unbounded consumer (one type over the engines).
impl<T: Send, E: ConsumerEngine<T>> TryRecv for ffq::unbounded::Consumer<T, E> {
    type Item = T;

    #[inline]
    fn try_recv(&mut self) -> Result<T, TryDequeueError> {
        self.try_dequeue()
    }

    #[inline]
    fn recv_batch_now(&mut self, buf: &mut Vec<T>, max: usize) -> usize {
        self.dequeue_batch(buf, max)
    }

    #[inline]
    fn capacity(&self) -> usize {
        self.segment_capacity()
    }
}

impl<T: Send> TryRecv for ffq::shard::ShardedConsumer<T> {
    type Item = T;

    #[inline]
    fn try_recv(&mut self) -> Result<T, TryDequeueError> {
        self.try_dequeue()
    }

    #[inline]
    fn recv_batch_now(&mut self, buf: &mut Vec<T>, max: usize) -> usize {
        self.dequeue_batch(buf, max)
    }

    #[inline]
    fn capacity(&self) -> usize {
        self.capacity()
    }
}
