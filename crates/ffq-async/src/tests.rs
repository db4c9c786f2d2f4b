//! Unit tests of the wait step as the endpoints use it: scripted handles
//! pin the spin-budget reset of the reused adapter waits, and one test
//! per endpoint kind pins the wake on the last sender's drop. Single
//! threaded, so they also run under Miri.

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use ffq::error::{BroadcastRecvError, Disconnected, Full, TryDequeueError};

use crate::{TryRecv, TrySend};

/// Test waker that counts its wakes, `wake_by_ref` included.
struct Counter(AtomicUsize);

impl Wake for Counter {
    fn wake(self: Arc<Self>) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

fn counting_waker() -> (Arc<Counter>, Waker) {
    let c = Arc::new(Counter(AtomicUsize::new(0)));
    (Arc::clone(&c), Waker::from(c))
}

fn wakes(c: &Counter) -> usize {
    c.0.load(Ordering::SeqCst)
}

/// A receiving handle that plays back a script of results, then reports
/// `Empty` for ever.
struct ScriptedRecv(VecDeque<Result<u64, TryDequeueError>>);

impl TryRecv for ScriptedRecv {
    type Item = u64;

    fn try_recv(&mut self) -> Result<u64, TryDequeueError> {
        self.0.pop_front().unwrap_or(Err(TryDequeueError::Empty))
    }

    fn recv_batch_now(&mut self, _: &mut Vec<u64>, _: usize) -> usize {
        0
    }

    fn capacity(&self) -> usize {
        1
    }
}

/// A sending handle that plays back a script (`true` accepts the item,
/// `false` reports `Full`), then reports `Full` for ever.
struct ScriptedSend(VecDeque<bool>);

impl TrySend for ScriptedSend {
    type Item = u64;

    fn try_send(&mut self, value: u64) -> Result<(), Full<u64>> {
        if self.0.pop_front().unwrap_or(false) {
            Ok(())
        } else {
            Err(Full(value))
        }
    }

    fn peers_gone(&self) -> bool {
        false
    }

    fn capacity(&self) -> usize {
        1
    }
}

/// A stream reuses one wait across items. An item that lands in the
/// re-check after registering must restart the spin budget like any other
/// success, so the next wait spins before it registers again.
#[test]
fn recv_stream_spins_again_after_a_recheck_hit() {
    use TryDequeueError::Empty;
    let script = VecDeque::from([Err(Empty), Err(Empty), Err(Empty), Ok(7)]);
    let (tx, mut rx) = crate::wrap(ScriptedSend(VecDeque::new()), ScriptedRecv(script));
    rx.set_spin_polls(2);
    let mut stream = rx.into_stream();
    let (count, waker) = counting_waker();
    let mut cx = Context::from_waker(&waker);
    assert_eq!(stream.poll_next_item(&mut cx), Poll::Pending);
    assert_eq!(stream.poll_next_item(&mut cx), Poll::Pending);
    assert_eq!(wakes(&count), 2, "two spin polls reschedule the task");
    // Budget spent: the third poll misses, registers, and the re-check
    // finds the item.
    assert_eq!(stream.poll_next_item(&mut cx), Poll::Ready(Some(7)));
    assert_eq!(stream.poll_next_item(&mut cx), Poll::Pending);
    assert_eq!(wakes(&count), 3, "the next wait starts with a spin poll");
    drop(tx);
}

/// The sink twin of [`recv_stream_spins_again_after_a_recheck_hit`].
#[test]
fn send_sink_spins_again_after_a_recheck_hit() {
    let script = VecDeque::from([false, false, false, true]);
    let (mut tx, rx) = crate::wrap(ScriptedSend(script), ScriptedRecv(VecDeque::new()));
    tx.set_spin_polls(1);
    let mut sink = tx.into_sink();
    let (count, waker) = counting_waker();
    let mut cx = Context::from_waker(&waker);
    assert_eq!(sink.poll_ready_item(&mut cx), Poll::Ready(Ok(())));
    // The eager attempt finds the queue full and buffers the item.
    assert_eq!(sink.start_send_item(1), Ok(()));
    assert_eq!(sink.poll_flush_item(&mut cx), Poll::Pending);
    assert_eq!(wakes(&count), 1, "one spin poll reschedules the task");
    // Budget spent: the flush misses, registers, and the re-check
    // publishes the item.
    assert_eq!(sink.poll_flush_item(&mut cx), Poll::Ready(Ok(())));
    assert_eq!(sink.start_send_item(2), Ok(()));
    assert_eq!(sink.poll_flush_item(&mut cx), Poll::Pending);
    assert_eq!(wakes(&count), 2, "the next wait starts with a spin poll");
    drop(rx);
}

/// Polls `fut` once with `cx`.
fn poll_once<F: Future + Unpin>(fut: &mut F, cx: &mut Context<'_>) -> Poll<F::Output> {
    Pin::new(fut).poll(cx)
}

#[test]
fn typed_receiver_task_is_woken_by_the_last_sender_drop() {
    let (tx, mut rx) = crate::spsc::channel::<u64>(4);
    rx.set_spin_polls(0);
    let (count, waker) = counting_waker();
    let mut cx = Context::from_waker(&waker);
    let mut fut = rx.dequeue();
    assert_eq!(poll_once(&mut fut, &mut cx), Poll::Pending);
    drop(tx);
    assert_eq!(wakes(&count), 1, "the sender's drop wakes the task");
    assert_eq!(poll_once(&mut fut, &mut cx), Poll::Ready(Err(Disconnected)));
}

#[test]
fn bytes_receiver_task_is_woken_by_the_last_sender_drop() {
    let (tx, mut rx) = crate::bytes::spsc::channel(4, 64).unwrap();
    rx.set_spin_polls(0);
    let (count, waker) = counting_waker();
    let mut cx = Context::from_waker(&waker);
    let mut fut = rx.recv();
    assert!(poll_once(&mut fut, &mut cx).is_pending());
    drop(tx);
    assert_eq!(wakes(&count), 1, "the sender's drop wakes the task");
    assert!(matches!(
        poll_once(&mut fut, &mut cx),
        Poll::Ready(Err(Disconnected))
    ));
}

#[test]
fn broadcast_subscriber_task_is_woken_by_the_sender_drop() {
    let (tx, mut sub) = crate::broadcast::channel::<u64>(4);
    sub.set_spin_polls(0);
    let (count, waker) = counting_waker();
    let mut cx = Context::from_waker(&waker);
    let mut fut = sub.recv();
    assert_eq!(poll_once(&mut fut, &mut cx), Poll::Pending);
    drop(tx);
    assert_eq!(wakes(&count), 1, "the sender's drop wakes the task");
    assert_eq!(
        poll_once(&mut fut, &mut cx),
        Poll::Ready(Err(BroadcastRecvError::Closed))
    );
}
