//! `Stream`/`Sink`-shaped adapters over the async endpoints.
//!
//! The adapters are plain structs with inherent `poll_*` methods, usable
//! from any hand-rolled future or runtime. The `futures_core::Stream` and
//! `futures_sink::Sink` impls that combinator libraries and tokio expect
//! live in the out-of-workspace `integrations/ffq-tokio` crate, as
//! newtypes delegating 1:1 to these methods.
//!
//! Both adapters inherit the cancellation-safety story of the underlying
//! futures: [`AsyncWait::abandon`] on drop, no queue state held across
//! `Pending`. The sink buffers at most one item (`start_send` stores it,
//! `poll_flush` publishes it); dropping the sink drops that one unsent
//! item, exactly like dropping an `Enqueue` future drops its payload.

use std::task::{Context, Poll};

use crate::handle::{poll_recv_value, poll_send_value, AsyncReceiver, AsyncSender, SendError};
use crate::traits::{TryRecv, TrySend};
use ffq_sync::AsyncWait;

/// A `Stream`-shaped view of an [`AsyncReceiver`]: yields items until the
/// queue is drained and every producer is gone, then ends.
#[must_use = "streams do nothing unless polled"]
pub struct RecvStream<R: TryRecv> {
    rx: AsyncReceiver<R>,
    wait: AsyncWait,
}

impl<R: TryRecv> Unpin for RecvStream<R> {}

impl<R: TryRecv> RecvStream<R> {
    pub(crate) fn new(rx: AsyncReceiver<R>) -> Self {
        Self {
            rx,
            wait: AsyncWait::new(),
        }
    }

    /// Polls for the next item; `Ready(None)` means drained +
    /// disconnected. Runtime-agnostic equivalent of
    /// `Stream::poll_next`.
    pub fn poll_next_item(&mut self, cx: &mut Context<'_>) -> Poll<Option<R::Item>> {
        poll_recv_value(&mut self.rx, &mut self.wait, cx).map(Result::ok)
    }

    /// Shared access to the wrapped receiver.
    pub fn receiver(&self) -> &AsyncReceiver<R> {
        &self.rx
    }

    /// Mutable access to the wrapped receiver.
    ///
    /// Safe because the stream holds no harvested items: any in-flight
    /// wait registration is simply superseded by the next poll.
    pub fn receiver_mut(&mut self) -> &mut AsyncReceiver<R> {
        &mut self.rx
    }
}

impl<R: TryRecv> Drop for RecvStream<R> {
    fn drop(&mut self) {
        self.wait.abandon(&self.rx.cells.not_empty);
    }
}

/// A `Sink`-shaped view of an [`AsyncSender`] buffering at most one item.
#[must_use = "sinks do nothing unless driven"]
pub struct SendSink<S: TrySend> {
    tx: AsyncSender<S>,
    slot: Option<S::Item>,
    wait: AsyncWait,
}

impl<S: TrySend> Unpin for SendSink<S> {}

impl<S: TrySend> SendSink<S> {
    pub(crate) fn new(tx: AsyncSender<S>) -> Self {
        Self {
            tx,
            slot: None,
            wait: AsyncWait::new(),
        }
    }

    /// Ready to accept an item via [`Self::start_send_item`]? Flushes the
    /// buffered item first if there is one.
    pub fn poll_ready_item(
        &mut self,
        cx: &mut Context<'_>,
    ) -> Poll<Result<(), SendError<S::Item>>> {
        if self.slot.is_none() {
            return Poll::Ready(Ok(()));
        }
        self.poll_flush_item(cx)
    }

    /// Accepts one item. Must only be called after `poll_ready_item`
    /// returned `Ready(Ok)` (the single-slot buffer must be empty).
    ///
    /// The item is published eagerly when the queue has space, so a
    /// well-behaved `ready → send` loop needs no explicit flush per item.
    pub fn start_send_item(&mut self, value: S::Item) -> Result<(), SendError<S::Item>> {
        assert!(
            self.slot.is_none(),
            "start_send_item called with an unflushed item (missing poll_ready_item?)"
        );
        match self.tx.try_enqueue(value) {
            Ok(()) => Ok(()),
            Err(ffq::error::Full(v)) => {
                self.slot = Some(v);
                Ok(())
            }
        }
    }

    /// Publishes the buffered item, waiting for space as needed.
    pub fn poll_flush_item(
        &mut self,
        cx: &mut Context<'_>,
    ) -> Poll<Result<(), SendError<S::Item>>> {
        if self.slot.is_none() {
            return Poll::Ready(Ok(()));
        }
        poll_send_value(&mut self.tx, &mut self.slot, &mut self.wait, cx)
    }

    /// Shared access to the wrapped sender.
    pub fn sender(&self) -> &AsyncSender<S> {
        &self.tx
    }
}

impl<S: TrySend> Drop for SendSink<S> {
    fn drop(&mut self) {
        self.wait.abandon(&self.tx.cells.not_full);
    }
}
