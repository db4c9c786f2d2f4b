//! Async broadcast (pub-sub) endpoints: every subscriber task observes the
//! full stream; slow subscribers observe loss (`Lagged`) instead of
//! backpressuring the sender.
//!
//! Wraps [`ffq::broadcast`] the way [`crate::wrap`] wraps the
//! point-to-point handles: the queue itself is untouched, and async
//! notifications travel through the same `AsyncCells` waker eventcount
//! beside it. Only the **subscriber** side ever waits — broadcast
//! publication is wait-free by construction — so only `not_empty` is ever
//! registered on; the sender notifies it after each publish. Dropping
//! either endpoint notifies both cells, as every async endpoint does.
//!
//! ## Why there is no failure-path notify here
//!
//! The point-to-point futures must broadcast to the *opposite* wait cell
//! even when an attempt fails, because a failed FFQ attempt still mutates
//! shared queue state (burned gap ranks, advanced head) that the other
//! side may be parked on (see the `handle` module docs). A broadcast
//! subscriber's `try_recv` writes **nothing** to shared memory — not on
//! success, not on failure — and the sender never waits, so there is no
//! opposite cell and no state change to announce: the subscriber's
//! [`AsyncWait::poll`] gets `None` for it. The wake protocol degenerates
//! to the textbook eventcount: publish → notify, miss → register →
//! re-check → park.
//!
//! ## Cancellation safety
//!
//! A dropped [`Recv`] future abandons nothing: the subscriber's cursor
//! only advances inside a poll that returns `Ready`, and a wait
//! registration a notifier already consumed is handed to the next waiter
//! on drop, exactly like the point-to-point futures (ALGORITHM.md §12).
//!
//! ```
//! let (mut tx, rx) = ffq_async::broadcast::channel::<u64>(8);
//! let mut a = rx.clone();
//! let mut b = rx;
//! ffq_async::rt::block_on(async move {
//!     tx.send(7);
//!     assert_eq!(a.recv().await, Ok(7));
//!     assert_eq!(b.recv().await, Ok(7)); // both subscribers see the item
//! });
//! ```

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

use ffq::cell::{CellSlot, PaddedCell};
use ffq::error::{BroadcastRecvError, BroadcastTryRecvError};
use ffq::layout::{IndexMap, LinearMap};
use ffq_sync::AsyncWait;

use crate::handle::{SharedCells, DEFAULT_SPIN_POLLS};

/// Creates an async broadcast channel with at least the given capacity
/// (rounded up to a power of two).
///
/// Returns the unique sender and one subscriber positioned at the start
/// of the stream; clone the subscriber for more (clones inherit the
/// source's position) or call [`Subscriber::resubscribe`] to join at the
/// live edge.
///
/// # Panics
/// If `capacity` is 0 or exceeds [`ffq::MAX_CAPACITY`].
pub fn channel<T: Copy + Send>(capacity: usize) -> (Sender<T>, Subscriber<T>) {
    channel_with::<T, PaddedCell<T>, LinearMap>(capacity)
}

/// [`channel`] with explicit cell layout and index mapping.
///
/// # Panics
/// If `capacity` is 0 or exceeds [`ffq::MAX_CAPACITY`].
pub fn channel_with<T: Copy + Send, C: CellSlot<T>, M: IndexMap>(
    capacity: usize,
) -> (Sender<T, C, M>, Subscriber<T, C, M>) {
    let (tx, rx) = ffq::broadcast::channel_with::<T, C, M>(capacity);
    let cells = SharedCells::default();
    (
        Sender {
            inner: tx,
            cells: cells.clone(),
        },
        Subscriber {
            inner: rx,
            cells,
            spin_polls: DEFAULT_SPIN_POLLS,
        },
    )
}

/// The unique sending side of an async broadcast channel.
///
/// [`send`](Self::send) is synchronous — broadcast publication is
/// wait-free, so there is nothing to `await`; the method additionally
/// wakes every parked subscriber task.
pub struct Sender<T: Copy + Send, C: CellSlot<T> = PaddedCell<T>, M: IndexMap = LinearMap> {
    inner: ffq::broadcast::Sender<T, C, M>,
    // Must follow `inner`: its drop wakes the peers (see `SharedCells`).
    cells: SharedCells,
}

impl<T: Copy + Send, C: CellSlot<T>, M: IndexMap> Sender<T, C, M> {
    /// Publishes `value` to every subscriber and wakes parked subscriber
    /// tasks. Wait-free; never blocks and never fails.
    pub fn send(&mut self, value: T) {
        self.inner.send(value);
        self.cells.not_empty.notify_all();
    }

    /// Publishes every item of `iter`; returns the count. Parked tasks
    /// are woken once, after the whole batch — the async analogue of the
    /// point-to-point batched publish notifying once per poll.
    pub fn send_many<I: IntoIterator<Item = T>>(&mut self, iter: I) -> usize {
        let n = self.inner.send_many(iter);
        if n > 0 {
            self.cells.not_empty.notify_all();
        }
        n
    }

    /// Number of items published so far.
    pub fn published(&self) -> u64 {
        self.inner.published()
    }

    /// Capacity of the ring — the retention window lagging subscribers
    /// can still recover from.
    pub fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    /// Number of live subscriber handles.
    pub fn subscribers(&self) -> usize {
        self.inner.subscribers()
    }
}

/// A subscribing handle of an async broadcast channel. Clone it to add
/// subscribers; each clone advances independently.
pub struct Subscriber<T: Copy + Send, C: CellSlot<T> = PaddedCell<T>, M: IndexMap = LinearMap> {
    inner: ffq::broadcast::Subscriber<T, C, M>,
    // Must follow `inner`: its drop wakes the peers (see `SharedCells`).
    cells: SharedCells,
    spin_polls: u16,
}

impl<T: Copy + Send, C: CellSlot<T>, M: IndexMap> Subscriber<T, C, M> {
    /// Sets the reschedule-spin budget for this handle's futures (see
    /// [`DEFAULT_SPIN_POLLS`]); 0 parks on the first empty poll.
    pub fn set_spin_polls(&mut self, polls: u16) {
        self.spin_polls = polls;
    }

    /// Attempts to receive the next item without waiting.
    ///
    /// `Lagged(n)` means the sender lapped this subscriber and `n` items
    /// are gone; the cursor is already resynced, so the next receive
    /// resumes at the oldest retained item.
    pub fn try_recv(&mut self) -> Result<T, BroadcastTryRecvError> {
        self.inner.try_recv()
    }

    /// Receives the next item, suspending the task while nothing new is
    /// published. Lag is returned as an error, not waited out.
    ///
    /// Cancellation-safe: a dropped future abandons no stream position
    /// and hands any wake it was already dealt to the next waiter.
    pub fn recv(&mut self) -> Recv<'_, T, C, M> {
        Recv {
            rx: self,
            wait: AsyncWait::new(),
        }
    }

    /// A new subscriber positioned at the **live edge** of the stream (a
    /// plain `clone()` inherits this handle's position instead).
    pub fn resubscribe(&self) -> Self {
        Self {
            inner: self.inner.resubscribe(),
            cells: self.cells.clone(),
            spin_polls: self.spin_polls,
        }
    }

    /// Converts this subscriber into a `Stream`-shaped adapter yielding
    /// `Result<T, Lagged>` items.
    pub fn into_stream(self) -> SubscriberStream<T, C, M> {
        SubscriberStream {
            rx: self,
            wait: AsyncWait::new(),
        }
    }

    /// Rank of the next item this subscriber will observe.
    pub fn cursor_rank(&self) -> i64 {
        self.inner.cursor_rank()
    }

    /// How many published items this subscriber has not yet observed
    /// (approximate).
    pub fn len_behind(&self) -> usize {
        self.inner.len_behind()
    }

    /// Capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    /// Snapshot of this subscriber's counters.
    pub fn stats(&self) -> ffq::SubscriberStats {
        self.inner.stats()
    }

    /// One receive step, shared by [`Recv`] and [`SubscriberStream`].
    fn poll_recv(
        &mut self,
        wait: &mut AsyncWait,
        cx: &mut Context<'_>,
    ) -> Poll<Result<T, BroadcastRecvError>> {
        let inner = &mut self.inner;
        let attempt = || match inner.try_recv() {
            Ok(v) => Poll::Ready(Ok(v)),
            Err(BroadcastTryRecvError::Lagged(n)) => {
                Poll::Ready(Err(BroadcastRecvError::Lagged(n)))
            }
            Err(BroadcastTryRecvError::Closed) => Poll::Ready(Err(BroadcastRecvError::Closed)),
            Err(BroadcastTryRecvError::Empty) => Poll::Pending,
        };
        // No opposite cell: an empty broadcast try_recv mutates no shared
        // state anyone could be waiting on (module docs).
        wait.poll(&self.cells.not_empty, None, self.spin_polls, cx, attempt)
    }
}

impl<T: Copy + Send, C: CellSlot<T>, M: IndexMap> Clone for Subscriber<T, C, M> {
    fn clone(&self) -> Self {
        Self {
            inner: self.inner.clone(),
            cells: self.cells.clone(),
            spin_polls: self.spin_polls,
        }
    }
}

/// Future of [`Subscriber::recv`].
#[must_use = "futures do nothing unless polled"]
pub struct Recv<'a, T: Copy + Send, C: CellSlot<T> = PaddedCell<T>, M: IndexMap = LinearMap> {
    rx: &'a mut Subscriber<T, C, M>,
    wait: AsyncWait,
}

impl<T: Copy + Send, C: CellSlot<T>, M: IndexMap> Unpin for Recv<'_, T, C, M> {}

impl<T: Copy + Send, C: CellSlot<T>, M: IndexMap> Future for Recv<'_, T, C, M> {
    type Output = Result<T, BroadcastRecvError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let me = self.get_mut();
        me.rx.poll_recv(&mut me.wait, cx)
    }
}

impl<T: Copy + Send, C: CellSlot<T>, M: IndexMap> Drop for Recv<'_, T, C, M> {
    fn drop(&mut self) {
        self.wait.abandon(&self.rx.cells.not_empty);
    }
}

/// The error item of a [`SubscriberStream`]: the subscriber fell behind
/// and this many items were overwritten before it observed them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lagged(pub u64);

impl core::fmt::Display for Lagged {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "subscriber lagged: {} items overwritten", self.0)
    }
}

impl std::error::Error for Lagged {}

/// A `Stream`-shaped view of a [`Subscriber`]: yields `Ok(item)` for each
/// received item and `Err(Lagged(n))` at each loss event, then ends when
/// the sender is gone and the stream fully observed.
#[must_use = "streams do nothing unless polled"]
pub struct SubscriberStream<T: Copy + Send, C: CellSlot<T> = PaddedCell<T>, M: IndexMap = LinearMap>
{
    rx: Subscriber<T, C, M>,
    wait: AsyncWait,
}

impl<T: Copy + Send, C: CellSlot<T>, M: IndexMap> Unpin for SubscriberStream<T, C, M> {}

impl<T: Copy + Send, C: CellSlot<T>, M: IndexMap> SubscriberStream<T, C, M> {
    /// Polls for the next stream item; `Ready(None)` means closed and
    /// fully observed. Runtime-agnostic equivalent of
    /// `Stream::poll_next`.
    pub fn poll_next_item(&mut self, cx: &mut Context<'_>) -> Poll<Option<Result<T, Lagged>>> {
        self.rx.poll_recv(&mut self.wait, cx).map(|res| match res {
            Ok(v) => Some(Ok(v)),
            Err(BroadcastRecvError::Lagged(n)) => Some(Err(Lagged(n))),
            Err(BroadcastRecvError::Closed) => None,
        })
    }

    /// Shared access to the wrapped subscriber.
    pub fn subscriber(&self) -> &Subscriber<T, C, M> {
        &self.rx
    }

    /// Mutable access to the wrapped subscriber. Safe because the stream
    /// holds no harvested items: any in-flight wait registration is
    /// simply superseded by the next poll.
    pub fn subscriber_mut(&mut self) -> &mut Subscriber<T, C, M> {
        &mut self.rx
    }

    /// Recovers the subscriber.
    pub fn into_inner(mut self) -> Subscriber<T, C, M> {
        self.wait.abandon(&self.rx.cells.not_empty);
        self.rx.clone()
    }
}

impl<T: Copy + Send, C: CellSlot<T>, M: IndexMap> Drop for SubscriberStream<T, C, M> {
    fn drop(&mut self) {
        self.wait.abandon(&self.rx.cells.not_empty);
    }
}
