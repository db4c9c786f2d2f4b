//! Async endpoint wrappers and their cancellation-safe futures.
//!
//! ## Where the wait state lives
//!
//! `QueueState` is `#[repr(C)]` and shm-safe — it cannot hold `Waker`s (a
//! waker is a fat pointer into one process's address space). The async
//! wait state therefore lives *beside* the queue, in an [`AsyncCells`]
//! pair shared by the wrapped endpoints via `Arc`: `not_empty` is notified
//! by senders after they publish, `not_full` by receivers after they free
//! cells. Consequently a queue endpoint only generates async notifications
//! if it is wrapped — **both ends of a queue must be wrapped** (by
//! [`crate::wrap`] or the `channel` constructors) for `await` to work; a
//! raw sync handle feeding an `AsyncReceiver` will deliver items but never
//! wake a parked task. The reverse direction is safe: wrapped endpoints
//! still run the sync publish/claim code, so they keep waking *blocking*
//! peers via the futex eventcounts.
//!
//! ## Cancellation safety
//!
//! Every future here holds only (a) a `&mut` borrow of its endpoint, (b)
//! possibly the item(s) it has not yet enqueued, and (c) its
//! [`AsyncWait`]. Claimed-but-unsatisfied dequeue ranks live in the
//! *handle's* pending-rank FIFO, never in the future — dropping a dequeue
//! future abandons no rank and cannot reorder FIFO delivery; the next
//! dequeue on the same handle resumes exactly where the dropped future
//! left off. `Drop` ends the wait with [`AsyncWait::abandon`]: a live
//! registration is removed, and a registration a notifier already consumed
//! means the future swallowed a wake, which it passes on with one more
//! `notify(1)` so no other waiter can starve (ALGORITHM.md §12).
//!
//! ## Notification discipline
//!
//! `not_empty` and `not_full` are notified with `notify_all`. Broadcast is
//! deliberate, not lazy: FFQ consumers *own* the rank they claimed, so a
//! single wake aimed at consumer A is wasted if the published rank belongs
//! to consumer B's pending FIFO — B stays parked even though its item is
//! ready (the wrong-wakee hazard; the sync futex path broadcasts
//! unconditionally for the same reason, ALGORITHM.md §11). Broadcasting
//! plus each waiter's post-register re-check makes the wake protocol
//! insensitive to who "deserved" the wake; the cost is bounded by the
//! number of actually parked tasks and is zero (one fence + one load)
//! when nobody waits.
//! Batched operations notify once per poll, not once per item.
//!
//! *Failure paths notify too.* A failed FFQ attempt is not a no-op: a
//! `Full` MPMC/SPMC `try_send` can burn tail ranks as gap announcements
//! at occupied cells (a parked receiver whose pending rank was just
//! superseded must wake to step over it — the sync path wakes its futex
//! eventcount from inside `resolve_rank`/`void_rank`, which async
//! waiters never hear), and an `Empty` `try_recv` can claim a fresh head
//! rank, advancing `head` — exactly what a producer parked on a full
//! queue is waiting to observe. So every path that returns `Pending`
//! (or a wrapper `try_*` that fails) broadcasts to the *opposite* cell;
//! [`AsyncWait::poll`] does it on every miss. This cannot livelock: each gap-burn/skip round-trip advances the
//! cell's gap word or `head` monotonically, so within at most one lap of
//! the ring the stalled rank is superseded and an item flows; and when
//! nobody is parked the extra notify is the free fence + relaxed load.

use std::future::Future;
use std::ops::Deref;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};

use ffq::error::{Disconnected, Full, TryDequeueError};
use ffq_sync::{AsyncWait, AsyncWaitCell};

use crate::traits::{TryRecv, TrySend};

/// Default poll budget for the reschedule-spin phase: before touching the
/// waiter registry, a future re-queues itself (`wake_by_ref` + `Pending`)
/// up to this many polls — executor round-trips only for the first half
/// of the budget, with an OS `yield_now` added in the back half. This is
/// the async mirror of the sync adaptive spin/yield phases
/// (`ffq_sync::WaitConfig`): at saturation the peer refills or drains the
/// queue within a couple of scheduler round-trips, so both sides stay out
/// of the registry and every notify takes the `waiters == 0` fast path
/// (one fence + one relaxed load) — no park/unpark syscalls, no registry
/// spinlock; on an oversubscribed core the yield half donates the
/// timeslice to the peer the way the sync `Backoff` yield rounds do. A
/// future that exhausts the budget registers and parks for real, so idle
/// queues still cost nothing beyond the bounded warm-down. The default is
/// deliberately small: measured on the batched saturation benchmark
/// (`fig_async`), larger budgets only steal CPU from the refilling peer.
/// Tune per handle with [`AsyncSender::set_spin_polls`] /
/// [`AsyncReceiver::set_spin_polls`] (0 = park immediately, the right
/// setting for mostly-idle queues).
pub const DEFAULT_SPIN_POLLS: u16 = 8;

/// The per-queue async wait state: one waker eventcount per direction.
#[derive(Debug, Default)]
pub(crate) struct AsyncCells {
    /// Receivers park here; senders notify after publishing.
    pub(crate) not_empty: AsyncWaitCell,
    /// Senders park here; receivers notify after freeing cells.
    pub(crate) not_full: AsyncWaitCell,
}

/// One endpoint's share of its queue's [`AsyncCells`]; dropping it wakes
/// both directions.
///
/// Every endpoint declares it after its sync handle. Fields drop in
/// declaration order, so the handle's own drop (its disconnect, or a bytes
/// engine's abort of a leaked reservation) is visible before the wake: a
/// woken peer's re-check sees it and cannot re-park past it.
#[derive(Debug, Default, Clone)]
pub(crate) struct SharedCells(Arc<AsyncCells>);

impl Deref for SharedCells {
    type Target = AsyncCells;

    fn deref(&self) -> &AsyncCells {
        &self.0
    }
}

impl Drop for SharedCells {
    fn drop(&mut self) {
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// Sending on a queue whose consumers are all gone; returns the item.
///
/// Produced once the producer observes the consumer count at zero; see
/// [`TrySend::peers_gone`].
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> SendError<T> {
    /// Recovers the item that could not be sent.
    pub fn into_inner(self) -> T {
        self.0
    }
}

impl<T> core::fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("sending on a queue with no remaining consumers")
    }
}

impl<T: core::fmt::Debug> std::error::Error for SendError<T> {}

// ---------------------------------------------------------------------------
// Sender
// ---------------------------------------------------------------------------

/// Async wrapper around a queue producer handle.
///
/// Created by [`crate::wrap`] or the flavor constructors
/// ([`crate::spsc::channel`], [`crate::spmc::channel`],
/// [`crate::mpmc::channel`]). `Clone` exactly when the underlying handle
/// is (MPMC producers).
#[derive(Clone, Debug)]
pub struct AsyncSender<S: TrySend> {
    inner: S,
    // Must follow `inner`: its drop wakes the peers (see `SharedCells`).
    pub(crate) cells: SharedCells,
    spin_polls: u16,
}

impl<S: TrySend> AsyncSender<S> {
    pub(crate) fn new(inner: S, cells: SharedCells) -> Self {
        Self {
            inner,
            cells,
            spin_polls: DEFAULT_SPIN_POLLS,
        }
    }

    /// Sets the reschedule-spin budget for this handle's futures (see
    /// [`DEFAULT_SPIN_POLLS`]); 0 parks on the first failed attempt.
    pub fn set_spin_polls(&mut self, polls: u16) {
        self.spin_polls = polls;
    }

    /// Attempts to enqueue without waiting, notifying async receivers.
    pub fn try_enqueue(&mut self, value: S::Item) -> Result<(), Full<S::Item>> {
        let r = self.inner.try_send(value);
        // Notify even on `Full`: a failed MPMC/SPMC attempt can burn gap
        // ranks that a parked receiver must wake to skip (module docs).
        self.cells.not_empty.notify_all();
        r
    }

    /// Enqueues one item, waiting for space if the queue is full.
    ///
    /// Cancellation-safe: dropping the future before completion means the
    /// item was never enqueued (it is dropped with the future) and no
    /// queue or wait state is leaked.
    pub fn enqueue(&mut self, value: S::Item) -> Enqueue<'_, S> {
        Enqueue {
            tx: self,
            value: Some(value),
            wait: AsyncWait::new(),
        }
    }

    /// Enqueues every item of `items` in order, waiting for space as
    /// needed; resolves to the number enqueued (short only if every
    /// consumer disconnects mid-stream, where detectable).
    ///
    /// Wakes are batched: receivers are notified once per poll, however
    /// many items that poll managed to publish. Cancellation drops the
    /// not-yet-enqueued suffix with the future; the already-published
    /// prefix is delivered normally.
    pub fn enqueue_many<I: IntoIterator<Item = S::Item>>(
        &mut self,
        items: I,
    ) -> EnqueueMany<'_, S> {
        EnqueueMany {
            tx: self,
            items: items.into_iter().collect(),
            sent: 0,
            wait: AsyncWait::new(),
        }
    }

    /// Capacity of the underlying cell array.
    pub fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    /// The wrapped sync handle (e.g. for `stats()`).
    ///
    /// Do not call its *blocking* operations from an executor thread, and
    /// remember that items enqueued through it do notify async receivers
    /// only via the wrapper methods.
    pub fn sync_ref(&self) -> &S {
        &self.inner
    }

    /// Mutable access to the wrapped sync handle; see [`Self::sync_ref`].
    pub fn sync_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Converts this sender into a `Sink`-shaped adapter.
    pub fn into_sink(self) -> crate::adapters::SendSink<S> {
        crate::adapters::SendSink::new(self)
    }
}

/// One send step shared by [`Enqueue`] and the sink adapter. `slot` keeps
/// the unsent item between polls.
pub(crate) fn poll_send_value<S: TrySend>(
    tx: &mut AsyncSender<S>,
    slot: &mut Option<S::Item>,
    wait: &mut AsyncWait,
    cx: &mut Context<'_>,
) -> Poll<Result<(), SendError<S::Item>>> {
    let (inner, cells) = (&mut tx.inner, &*tx.cells);
    let attempt = || {
        let value = slot.take().expect("send future polled after completion");
        if inner.peers_gone() {
            return Poll::Ready(Err(SendError(value)));
        }
        match inner.try_send(value) {
            Ok(()) => {
                cells.not_empty.notify_all();
                Poll::Ready(Ok(()))
            }
            Err(Full(v)) => {
                *slot = Some(v);
                Poll::Pending
            }
        }
    };
    wait.poll(
        &cells.not_full,
        Some(&cells.not_empty),
        tx.spin_polls,
        cx,
        attempt,
    )
}

/// Future of [`AsyncSender::enqueue`].
#[must_use = "futures do nothing unless polled"]
pub struct Enqueue<'a, S: TrySend> {
    tx: &'a mut AsyncSender<S>,
    value: Option<S::Item>,
    wait: AsyncWait,
}

impl<S: TrySend> Unpin for Enqueue<'_, S> {}

impl<S: TrySend> Future for Enqueue<'_, S> {
    type Output = Result<(), SendError<S::Item>>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let me = self.get_mut();
        poll_send_value(me.tx, &mut me.value, &mut me.wait, cx)
    }
}

impl<S: TrySend> Drop for Enqueue<'_, S> {
    fn drop(&mut self) {
        self.wait.abandon(&self.tx.cells.not_full);
    }
}

/// Future of [`AsyncSender::enqueue_many`].
#[must_use = "futures do nothing unless polled"]
pub struct EnqueueMany<'a, S: TrySend> {
    tx: &'a mut AsyncSender<S>,
    items: std::collections::VecDeque<S::Item>,
    sent: usize,
    wait: AsyncWait,
}

impl<S: TrySend> Unpin for EnqueueMany<'_, S> {}

impl<S: TrySend> Future for EnqueueMany<'_, S> {
    type Output = usize;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let me = self.get_mut();
        let (inner, cells, items) = (&mut me.tx.inner, &*me.tx.cells, &mut me.items);
        let mut pushed = 0usize;
        // `Ready(true)`: done. `Ready(false)`: items moved but some are
        // left; as a `Ready` it restarts the spin budget, like the sync
        // adaptive wait restarting per blocking call.
        let attempt = || {
            let before = pushed;
            while let Some(v) = items.pop_front() {
                if let Err(Full(v)) = inner.try_send(v) {
                    items.push_front(v);
                    break;
                }
                pushed += 1;
            }
            if items.is_empty() || inner.peers_gone() {
                Poll::Ready(true)
            } else if pushed > before {
                Poll::Ready(false)
            } else {
                Poll::Pending
            }
        };
        // No opposite cell: the receivers are notified once, below.
        let step = me
            .wait
            .poll(&cells.not_full, None, me.tx.spin_polls, cx, attempt);
        me.sent += pushed;
        if pushed > 0 || step != Poll::Ready(true) {
            // One broadcast per poll: for however many items it
            // published, and for any gap ranks the failed attempts
            // burned (module docs).
            cells.not_empty.notify_all();
        }
        match step {
            Poll::Ready(true) => Poll::Ready(me.sent),
            Poll::Ready(false) => {
                cx.waker().wake_by_ref();
                Poll::Pending
            }
            Poll::Pending => Poll::Pending,
        }
    }
}

impl<S: TrySend> Drop for EnqueueMany<'_, S> {
    fn drop(&mut self) {
        self.wait.abandon(&self.tx.cells.not_full);
    }
}

// ---------------------------------------------------------------------------
// Receiver
// ---------------------------------------------------------------------------

/// Async wrapper around a queue consumer handle.
///
/// `Clone` exactly when the underlying handle is (SPMC/MPMC consumers);
/// each clone owns its private head/pending-rank state, exactly like the
/// sync handles.
#[derive(Clone, Debug)]
pub struct AsyncReceiver<R: TryRecv> {
    inner: R,
    // Must follow `inner`: its drop wakes the peers (see `SharedCells`).
    pub(crate) cells: SharedCells,
    spin_polls: u16,
}

impl<R: TryRecv> AsyncReceiver<R> {
    pub(crate) fn new(inner: R, cells: SharedCells) -> Self {
        Self {
            inner,
            cells,
            spin_polls: DEFAULT_SPIN_POLLS,
        }
    }

    /// Sets the reschedule-spin budget for this handle's futures (see
    /// [`DEFAULT_SPIN_POLLS`]); 0 parks on the first failed attempt.
    pub fn set_spin_polls(&mut self, polls: u16) {
        self.spin_polls = polls;
    }

    /// Attempts to dequeue without waiting, notifying async senders.
    pub fn try_dequeue(&mut self) -> Result<R::Item, TryDequeueError> {
        let r = self.inner.try_recv();
        // Notify even on `Empty`: the attempt can still have claimed a
        // fresh head rank, advancing `head` past what a parked producer
        // last saw of a full queue (module docs).
        self.cells.not_full.notify_all();
        r
    }

    /// Dequeues one item, waiting for one if the queue is empty; resolves
    /// `Err(Disconnected)` once the queue is drained and every producer is
    /// gone.
    ///
    /// Cancellation-safe: a dropped future abandons no claimed rank (rank
    /// state lives in the receiver, which simply resumes it on the next
    /// dequeue) and hands any wake it had already been dealt to the next
    /// waiter.
    pub fn dequeue(&mut self) -> Dequeue<'_, R> {
        Dequeue {
            rx: self,
            wait: AsyncWait::new(),
        }
    }

    /// Dequeues a batch: waits until at least one item is available, then
    /// resolves with up to `max` immediately-available items (senders are
    /// notified of the freed cells once, not per item).
    ///
    /// Cancellation-safe by construction: items are only harvested inside
    /// the poll that completes the future, so no item is ever buffered
    /// across an `await` point where a drop could lose it.
    pub fn dequeue_batch(&mut self, max: usize) -> DequeueBatch<'_, R> {
        DequeueBatch {
            rx: self,
            max,
            wait: AsyncWait::new(),
        }
    }

    /// Capacity of the underlying cell array.
    pub fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    /// The wrapped sync handle; see [`AsyncSender::sync_ref`] caveats.
    pub fn sync_ref(&self) -> &R {
        &self.inner
    }

    /// Mutable access to the wrapped sync handle; see [`Self::sync_ref`].
    pub fn sync_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    /// Converts this receiver into a `Stream`-shaped adapter.
    pub fn into_stream(self) -> crate::adapters::RecvStream<R> {
        crate::adapters::RecvStream::new(self)
    }
}

/// One receive step shared by [`Dequeue`] and the stream adapter.
pub(crate) fn poll_recv_value<R: TryRecv>(
    rx: &mut AsyncReceiver<R>,
    wait: &mut AsyncWait,
    cx: &mut Context<'_>,
) -> Poll<Result<R::Item, Disconnected>> {
    let (inner, cells) = (&mut rx.inner, &*rx.cells);
    let attempt = || match inner.try_recv() {
        Ok(v) => {
            cells.not_full.notify_all();
            Poll::Ready(Ok(v))
        }
        Err(TryDequeueError::Disconnected) => Poll::Ready(Err(Disconnected)),
        Err(TryDequeueError::Empty) => Poll::Pending,
    };
    wait.poll(
        &cells.not_empty,
        Some(&cells.not_full),
        rx.spin_polls,
        cx,
        attempt,
    )
}

/// Future of [`AsyncReceiver::dequeue`].
#[must_use = "futures do nothing unless polled"]
pub struct Dequeue<'a, R: TryRecv> {
    rx: &'a mut AsyncReceiver<R>,
    wait: AsyncWait,
}

impl<R: TryRecv> Unpin for Dequeue<'_, R> {}

impl<R: TryRecv> Future for Dequeue<'_, R> {
    type Output = Result<R::Item, Disconnected>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let me = self.get_mut();
        poll_recv_value(me.rx, &mut me.wait, cx)
    }
}

impl<R: TryRecv> Drop for Dequeue<'_, R> {
    fn drop(&mut self) {
        self.wait.abandon(&self.rx.cells.not_empty);
    }
}

/// Future of [`AsyncReceiver::dequeue_batch`].
#[must_use = "futures do nothing unless polled"]
pub struct DequeueBatch<'a, R: TryRecv> {
    rx: &'a mut AsyncReceiver<R>,
    max: usize,
    wait: AsyncWait,
}

impl<R: TryRecv> Unpin for DequeueBatch<'_, R> {}

impl<R: TryRecv> Future for DequeueBatch<'_, R> {
    type Output = Result<Vec<R::Item>, Disconnected>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let me = self.get_mut();
        let max = me.max;
        if max == 0 {
            return Poll::Ready(Ok(Vec::new()));
        }
        let (inner, cells) = (&mut me.rx.inner, &*me.rx.cells);
        // Items are harvested only by the attempt that completes the
        // future, so none is ever buffered across `Pending`.
        let attempt = || {
            let mut buf = Vec::new();
            if inner.recv_batch_now(&mut buf, max) == 0 {
                // A zero batch cannot distinguish empty from disconnected;
                // probe with a single try_recv (which can also race an
                // item in).
                match inner.try_recv() {
                    Ok(v) => buf.push(v),
                    Err(TryDequeueError::Disconnected) => return Poll::Ready(Err(Disconnected)),
                    Err(TryDequeueError::Empty) => return Poll::Pending,
                }
                if max > 1 {
                    inner.recv_batch_now(&mut buf, max - 1);
                }
            }
            cells.not_full.notify_all();
            Poll::Ready(Ok(buf))
        };
        me.wait.poll(
            &cells.not_empty,
            Some(&cells.not_full),
            me.rx.spin_polls,
            cx,
            attempt,
        )
    }
}

impl<R: TryRecv> Drop for DequeueBatch<'_, R> {
    fn drop(&mut self) {
        self.wait.abandon(&self.rx.cells.not_empty);
    }
}
