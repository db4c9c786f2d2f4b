//! Async wrappers for the zero-copy bytes lane (`ffq::bytes`).
//!
//! The generic [`crate::AsyncSender`]/[`crate::AsyncReceiver`] move owned
//! items; the bytes engines instead hand out *borrowed guards* —
//! [`ffq::WriteSlot`] over an in-place reservation, [`ffq::PayloadRef`]
//! over a claimed payload — so they get their own wrapper pair here. The
//! wait protocol is identical (same `AsyncCells` eventcount pair, same
//! [`AsyncWait`] step); only the resolution type differs: futures resolve to guards, and the guards carry the
//! notifications their endpoint actions imply:
//!
//! - [`AsyncWriteSlot::commit`] publishes the payload **and** notifies
//!   `not_empty` (the publish is the linearization point receivers wait
//!   for). Dropping it uncommitted aborts the reservation and *also*
//!   notifies `not_empty`: a multi-producer abort publishes a tombstone
//!   descriptor that the rank's assigned consumer must wake to skip.
//! - Dropping an [`AsyncPayloadRef`] retires the claimed rank — the cell
//!   and its slot buffer recycle to producers — and notifies `not_full`.
//!
//! ## Cancellation safety
//!
//! Reservation and claim state live in the *engine*, never in a future:
//!
//! - A dropped [`Reserve`] future holds nothing — a reservation only
//!   exists once the future has resolved to its [`AsyncWriteSlot`], whose
//!   `Drop` aborts it. Consumers never observe an aborted payload.
//! - A dropped [`RecvPayload`] future abandons no payload: the claim
//!   (`try_claim_payload`) is resumable — the next `recv` picks up the
//!   already-claimed rank instead of skipping it.
//! - Both futures hand an already-consumed wake to the next waiter on
//!   drop ([`AsyncWait::abandon`]), so a cancelled task can never swallow
//!   the only wake.
//!
//! As everywhere in this crate, **both ends must be async-wrapped** (the
//! queue itself cannot store wakers); the `channel` constructors in
//! [`spsc`]/[`spmc`]/[`mpmc`] guarantee that.

use std::future::Future;
use std::ops::{Deref, DerefMut};
use std::pin::Pin;
use std::task::{ready, Context, Poll};

use ffq::bytes::{BytesConsumer, BytesProducer, PayloadRef, WriteSlot};
use ffq::error::{Disconnected, ReserveError, TryDequeueError, TryReserveError};
use ffq_sync::AsyncWait;

use crate::handle::{AsyncCells, SharedCells, DEFAULT_SPIN_POLLS};

// ---------------------------------------------------------------------------
// Sender
// ---------------------------------------------------------------------------

/// Async wrapper around a zero-copy bytes producer engine.
///
/// `Clone` exactly when the engine is (the MPMC producer); clones share
/// the wait cells, keeping every producer's commits visible to parked
/// receivers.
#[derive(Clone, Debug)]
pub struct AsyncBytesSender<P: BytesProducer + Send> {
    inner: P,
    // Must follow `inner`: its drop wakes the peers (see `SharedCells`).
    cells: SharedCells,
    spin_polls: u16,
}

impl<P: BytesProducer + Send> AsyncBytesSender<P> {
    /// Sets the reschedule-spin budget for this handle's futures (see
    /// [`DEFAULT_SPIN_POLLS`]); 0 parks on the first full queue.
    pub fn set_spin_polls(&mut self, polls: u16) {
        self.spin_polls = polls;
    }

    /// The largest payload a reservation on this queue can ever satisfy.
    pub fn max_payload(&self) -> usize {
        self.inner.max_payload()
    }

    /// Reserves space for a `len`-byte payload without waiting.
    ///
    /// On success the [`AsyncWriteSlot`] derefs to `len` writable bytes;
    /// fill it and [`commit`](AsyncWriteSlot::commit). Dropping it
    /// uncommitted aborts the reservation.
    pub fn try_reserve(&mut self, len: usize) -> Result<AsyncWriteSlot<'_, P>, TryReserveError> {
        if let Err(e) = self.inner.try_reserve_pending(len) {
            // The failed scan can still have burned gap ranks a parked
            // receiver is waiting behind (module docs on notify discipline).
            self.cells.not_empty.notify_all();
            return Err(e);
        }
        Ok(self.pending_slot())
    }

    /// The guard over the reservation the engine holds.
    fn pending_slot(&mut self) -> AsyncWriteSlot<'_, P> {
        AsyncWriteSlot {
            slot: Some(
                self.inner
                    .pending_slot()
                    .expect("reservation just succeeded"),
            ),
            cells: &self.cells,
        }
    }

    /// Reserves space for a `len`-byte payload, waiting for room if the
    /// queue is full.
    ///
    /// Resolves to an [`AsyncWriteSlot`] over the in-place buffer; only
    /// the permanent failure remains ([`ReserveError::TooLarge`] — the
    /// payload can *never* fit; nothing is ever truncated).
    ///
    /// Cancellation-safe: a dropped future holds no reservation and hands
    /// any wake it was dealt to the next waiter.
    pub fn reserve(&mut self, len: usize) -> Reserve<'_, P> {
        Reserve {
            tx: Some(self),
            len,
            wait: AsyncWait::new(),
        }
    }

    /// Copy-in convenience: `reserve(payload.len())`, copy, commit.
    pub async fn send_bytes(&mut self, payload: &[u8]) -> Result<(), ReserveError> {
        let mut slot = self.reserve(payload.len()).await?;
        slot.copy_from_slice(payload);
        slot.commit();
        Ok(())
    }

    /// The wrapped sync engine; see [`crate::AsyncSender::sync_ref`]
    /// caveats (its blocking methods park the *thread*, not the task).
    pub fn sync_ref(&self) -> &P {
        &self.inner
    }

    /// Mutable access to the wrapped sync engine; see [`Self::sync_ref`].
    pub fn sync_mut(&mut self) -> &mut P {
        &mut self.inner
    }
}

/// A reserved, writable, in-place payload buffer tied to the async wait
/// cells. Derefs to `[u8]`.
///
/// [`commit`](Self::commit) publishes the payload and wakes parked
/// receivers; dropping uncommitted aborts the reservation (receivers
/// never observe it) and still wakes them — a multi-producer abort
/// publishes a tombstone the rank's assigned consumer must skip.
pub struct AsyncWriteSlot<'a, P: BytesProducer> {
    slot: Option<WriteSlot<'a, P>>,
    cells: &'a AsyncCells,
}

impl<P: BytesProducer> AsyncWriteSlot<'_, P> {
    /// Publishes the payload; after this call receivers can claim it.
    pub fn commit(mut self) {
        self.slot.take().expect("slot live until commit").commit();
        self.cells.not_empty.notify_all();
    }

    /// The reserved length in bytes.
    pub fn len(&self) -> usize {
        self.slot.as_ref().expect("slot live until commit").len()
    }

    /// Whether the reservation is for zero bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<P: BytesProducer> Deref for AsyncWriteSlot<'_, P> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.slot.as_ref().expect("slot live until commit")
    }
}

impl<P: BytesProducer> DerefMut for AsyncWriteSlot<'_, P> {
    fn deref_mut(&mut self) -> &mut [u8] {
        self.slot.as_mut().expect("slot live until commit")
    }
}

impl<P: BytesProducer> Drop for AsyncWriteSlot<'_, P> {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            // Abort path: the inner guard's drop rolls the reservation
            // back; under multiple producers that publishes a tombstone
            // descriptor, so parked receivers still need the wake.
            drop(slot);
            self.cells.not_empty.notify_all();
        }
    }
}

impl<P: BytesProducer> core::fmt::Debug for AsyncWriteSlot<'_, P> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("AsyncWriteSlot")
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

/// Future of [`AsyncBytesSender::reserve`].
#[must_use = "futures do nothing unless polled"]
pub struct Reserve<'a, P: BytesProducer + Send> {
    tx: Option<&'a mut AsyncBytesSender<P>>,
    len: usize,
    wait: AsyncWait,
}

impl<P: BytesProducer + Send> Unpin for Reserve<'_, P> {}

impl<'a, P: BytesProducer + Send> Future for Reserve<'a, P> {
    type Output = Result<AsyncWriteSlot<'a, P>, ReserveError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let me = self.get_mut();
        let len = me.len;
        let tx = me
            .tx
            .as_deref_mut()
            .expect("reserve future polled after completion");
        let (inner, cells) = (&mut tx.inner, &*tx.cells);
        // No notify on success: the guard's commit (or abort) does it.
        let attempt = || match inner.try_reserve_pending(len) {
            Ok(()) => Poll::Ready(Ok(())),
            Err(TryReserveError::TooLarge { len, max }) => {
                Poll::Ready(Err(ReserveError::TooLarge { len, max }))
            }
            Err(TryReserveError::Full) => Poll::Pending,
        };
        ready!(me.wait.poll(
            &cells.not_full,
            Some(&cells.not_empty),
            tx.spin_polls,
            cx,
            attempt
        ))?;
        // Surrender the full-lifetime borrow to the guard.
        let tx = me.tx.take().expect("just reserved through it");
        Poll::Ready(Ok(tx.pending_slot()))
    }
}

impl<P: BytesProducer + Send> Drop for Reserve<'_, P> {
    fn drop(&mut self) {
        if let Some(tx) = self.tx.as_ref() {
            self.wait.abandon(&tx.cells.not_full);
        }
    }
}

// ---------------------------------------------------------------------------
// Receiver
// ---------------------------------------------------------------------------

/// Async wrapper around a zero-copy bytes consumer engine.
///
/// `Clone` exactly when the engine is (the shared-head MPMC/SPMC
/// consumers); each clone owns its private pending-rank state.
#[derive(Clone, Debug)]
pub struct AsyncBytesReceiver<C: BytesConsumer + Send> {
    inner: C,
    // Must follow `inner`: its drop wakes the peers (see `SharedCells`).
    cells: SharedCells,
    spin_polls: u16,
}

impl<C: BytesConsumer + Send> AsyncBytesReceiver<C> {
    /// Sets the reschedule-spin budget for this handle's futures (see
    /// [`DEFAULT_SPIN_POLLS`]); 0 parks on the first empty queue.
    pub fn set_spin_polls(&mut self, polls: u16) {
        self.spin_polls = polls;
    }

    /// Claims the next payload without waiting.
    ///
    /// The [`AsyncPayloadRef`] borrows the bytes in place; its drop
    /// retires the rank and wakes parked senders.
    pub fn try_recv(&mut self) -> Result<AsyncPayloadRef<'_, C>, TryDequeueError> {
        if let Err(e) = self.inner.try_claim_payload() {
            // Even an Empty attempt can have claimed a fresh head rank
            // (or skipped tombstones), advancing past what a parked
            // sender last saw of a full queue.
            self.cells.not_full.notify_all();
            return Err(e);
        }
        Ok(self.claimed())
    }

    /// The guard over the payload the engine has claimed.
    fn claimed(&mut self) -> AsyncPayloadRef<'_, C> {
        AsyncPayloadRef {
            view: Some(self.inner.try_recv().expect("payload already claimed")),
            cells: &self.cells,
        }
    }

    /// Claims the next payload, waiting for one if the queue is empty;
    /// resolves `Err(Disconnected)` once the queue is drained and every
    /// producer is gone.
    ///
    /// Cancellation-safe: the claim is resumable engine state, so a
    /// dropped future abandons no payload — the next `recv` picks the
    /// claimed rank back up.
    pub fn recv(&mut self) -> RecvPayload<'_, C> {
        RecvPayload {
            rx: Some(self),
            wait: AsyncWait::new(),
        }
    }

    /// Copy-out convenience: [`recv`](Self::recv), copy to a `Vec`,
    /// release. (The copy-through baseline the zero-copy lane is
    /// benchmarked against.)
    pub async fn recv_bytes(&mut self) -> Result<Vec<u8>, Disconnected> {
        Ok(self.recv().await?.to_vec())
    }

    /// The wrapped sync engine; see [`crate::AsyncReceiver::sync_ref`]
    /// caveats (its blocking methods park the *thread*, not the task).
    pub fn sync_ref(&self) -> &C {
        &self.inner
    }

    /// Mutable access to the wrapped sync engine; see [`Self::sync_ref`].
    pub fn sync_mut(&mut self) -> &mut C {
        &mut self.inner
    }
}

/// A claimed, borrowed payload tied to the async wait cells. Derefs to
/// `[u8]`.
///
/// Dropping it retires the claimed rank — recycling the cell and its slot
/// buffer — and wakes parked senders. Holding it long keeps the cell
/// busy: producers skip it via gap announcements, so throughput degrades
/// but nothing corrupts.
pub struct AsyncPayloadRef<'a, C: BytesConsumer> {
    view: Option<PayloadRef<'a, C>>,
    cells: &'a AsyncCells,
}

impl<C: BytesConsumer> Deref for AsyncPayloadRef<'_, C> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.view.as_ref().expect("view live until drop")
    }
}

impl<C: BytesConsumer> Drop for AsyncPayloadRef<'_, C> {
    fn drop(&mut self) {
        if let Some(view) = self.view.take() {
            // Retires the rank (the inner guard's drop), then wakes
            // senders parked on the now-free cell.
            drop(view);
            self.cells.not_full.notify_all();
        }
    }
}

impl<C: BytesConsumer> core::fmt::Debug for AsyncPayloadRef<'_, C> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("AsyncPayloadRef")
            .field("len", &self.deref().len())
            .finish_non_exhaustive()
    }
}

/// Future of [`AsyncBytesReceiver::recv`].
#[must_use = "futures do nothing unless polled"]
pub struct RecvPayload<'a, C: BytesConsumer + Send> {
    rx: Option<&'a mut AsyncBytesReceiver<C>>,
    wait: AsyncWait,
}

impl<C: BytesConsumer + Send> Unpin for RecvPayload<'_, C> {}

impl<'a, C: BytesConsumer + Send> Future for RecvPayload<'a, C> {
    type Output = Result<AsyncPayloadRef<'a, C>, Disconnected>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let me = self.get_mut();
        let rx = me
            .rx
            .as_deref_mut()
            .expect("recv future polled after completion");
        let (inner, cells) = (&mut rx.inner, &*rx.cells);
        // No notify on success: dropping the payload guard does it.
        let attempt = || match inner.try_claim_payload() {
            Ok(()) => Poll::Ready(Ok(())),
            Err(TryDequeueError::Disconnected) => Poll::Ready(Err(Disconnected)),
            Err(TryDequeueError::Empty) => Poll::Pending,
        };
        ready!(me.wait.poll(
            &cells.not_empty,
            Some(&cells.not_full),
            rx.spin_polls,
            cx,
            attempt
        ))?;
        let rx = me.rx.take().expect("just claimed through it");
        Poll::Ready(Ok(rx.claimed()))
    }
}

impl<C: BytesConsumer + Send> Drop for RecvPayload<'_, C> {
    fn drop(&mut self) {
        if let Some(rx) = self.rx.as_ref() {
            self.wait.abandon(&rx.cells.not_empty);
        }
    }
}

// ---------------------------------------------------------------------------
// Constructors
// ---------------------------------------------------------------------------

/// Wraps an existing bytes engine pair for async use.
///
/// Both engines must belong to the same queue; additional SPMC/MPMC
/// handles come from cloning the returned wrappers, which keeps every
/// clone on the same wait cells (the invariant the whole protocol rests
/// on — see the module docs).
pub fn wrap_bytes<P: BytesProducer + Send, C: BytesConsumer + Send>(
    tx: P,
    rx: C,
) -> (AsyncBytesSender<P>, AsyncBytesReceiver<C>) {
    let cells = SharedCells::default();
    (
        AsyncBytesSender {
            inner: tx,
            cells: cells.clone(),
            spin_polls: DEFAULT_SPIN_POLLS,
        },
        AsyncBytesReceiver {
            inner: rx,
            cells,
            spin_polls: DEFAULT_SPIN_POLLS,
        },
    )
}

/// Async zero-copy bytes SPSC channel (chain spill: payloads up to
/// `slot_bytes × capacity/2`, never truncated).
pub mod spsc {
    use super::{AsyncBytesReceiver, AsyncBytesSender};

    /// Async bytes SPSC sending half.
    pub type Sender = AsyncBytesSender<ffq::bytes::SpProducer>;
    /// Async bytes SPSC receiving half.
    pub type Receiver = AsyncBytesReceiver<ffq::bytes::SpscConsumer>;

    /// Creates an async zero-copy bytes SPSC channel: `capacity` cells,
    /// each owning a slot buffer of at least `slot_bytes` bytes (both
    /// rounded up to powers of two).
    pub fn channel(
        capacity: usize,
        slot_bytes: usize,
    ) -> Result<(Sender, Receiver), ffq::CapacityError> {
        let (tx, rx) = ffq::spsc::bytes_channel(capacity, slot_bytes)?;
        Ok(super::wrap_bytes(tx, rx))
    }
}

/// Async zero-copy bytes SPMC channel (heap spill for oversize payloads;
/// clone the receiver for more consumers).
pub mod spmc {
    use super::{AsyncBytesReceiver, AsyncBytesSender};

    /// Async bytes SPMC sending half.
    pub type Sender = AsyncBytesSender<ffq::bytes::SpProducer>;
    /// Async bytes SPMC receiving half; `Clone` to add consumers.
    pub type Receiver = AsyncBytesReceiver<ffq::bytes::McConsumer<false>>;

    /// Creates an async zero-copy bytes SPMC channel; clone the receiver
    /// for more consumers.
    pub fn channel(
        capacity: usize,
        slot_bytes: usize,
    ) -> Result<(Sender, Receiver), ffq::CapacityError> {
        let (tx, rx) = ffq::spmc::bytes_channel(capacity, slot_bytes)?;
        Ok(super::wrap_bytes(tx, rx))
    }
}

/// Async zero-copy bytes MPMC channel (heap spill for oversize payloads;
/// clone either half for more producers/consumers).
pub mod mpmc {
    use super::{AsyncBytesReceiver, AsyncBytesSender};

    /// Async bytes MPMC sending half; `Clone` to add producers.
    pub type Sender = AsyncBytesSender<ffq::bytes::MpProducer>;
    /// Async bytes MPMC receiving half; `Clone` to add consumers.
    pub type Receiver = AsyncBytesReceiver<ffq::bytes::McConsumer<true>>;

    /// Creates an async zero-copy bytes MPMC channel; clone either half
    /// for more peers.
    pub fn channel(
        capacity: usize,
        slot_bytes: usize,
    ) -> Result<(Sender, Receiver), ffq::CapacityError> {
        let (tx, rx) = ffq::mpmc::bytes_channel(capacity, slot_bytes)?;
        Ok(super::wrap_bytes(tx, rx))
    }
}
