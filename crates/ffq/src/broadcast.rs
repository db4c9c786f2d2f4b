//! Broadcast (pub-sub) lane: every subscriber sees every item, slow
//! subscribers lose items instead of blocking the producer.
//!
//! The point-to-point lanes deliver each item to exactly one consumer and
//! apply backpressure when the ring fills. Market-data-style fan-out wants
//! the opposite contract on both counts: *all* subscribers observe the full
//! stream, and a subscriber that cannot keep up detects loss and resyncs
//! rather than slowing anyone down. This module provides that shape over
//! the same [`crate::raw`] memory layout — a
//! [`QueueState`](crate::raw::QueueState) counter block plus a cell array
//! — so it works in-heap here and over POSIX shared memory in `ffq-shm`,
//! unchanged.
//!
//! # Protocol: version-stamped seqlock cells
//!
//! The cell's `rank` word is repurposed as a per-slot **sequence stamp**.
//! For the item with rank `i` (stored in slot `i mod N`):
//!
//! * the writer stamps `2·i + 1` (odd: write in progress), issues a
//!   `Release` fence, writes the payload in place, then stamps `2·i + 2`
//!   (even: published) — the odd stamp is an `AcqRel` RMW so the payload
//!   stores cannot be hoisted above it, the fence release-orders the odd
//!   stamp *before* the relaxed payload chunks (a reader that catches any
//!   new chunk then synchronizes with the fence and must fail its stamp
//!   re-check — `loom_broadcast_seqlock_cell_rejects_torn_copy` finds the
//!   torn execution without it), and the even stamp is a `Release` store
//!   so the payload cannot sink below it;
//! * a reader at cursor `c` expects stamp `2·c + 2` exactly. Less means
//!   not yet published (`Empty`); more means the slot was reused for rank
//!   `c + kN` — the item is gone (`Lagged`). On a match it copies the
//!   payload out, re-reads the stamp (an `Acquire` fence between), and
//!   discards the copy as torn if the stamp moved.
//!
//! Stamps per slot are strictly monotonic (slot `s` only ever carries
//! ranks `≡ s mod N`, in increasing order), which is what makes the single
//! compare against the expected stamp sufficient — no separate head/tail
//! inspection is needed on the hot path, and readers write **nothing**, so
//! an idle or slow subscriber generates zero coherence traffic on the
//! producer's cache lines.
//!
//! Payload copies go through [`ffq_sync::read_racy`]/[`ffq_sync::write_racy`]
//! (relaxed per-word atomic chunks), so the deliberate read/write race is
//! benign to Miri and TSan, and a torn copy is held in `MaybeUninit` until
//! the stamp check proves it whole.
//!
//! # Lag and loss accounting
//!
//! The producer is wait-free and never inspects reader positions: it
//! overwrites the ring at its own pace and mirrors its tail for the
//! emptiness/closed checks. A lapped reader resyncs to
//! `max(tail − N, cursor + 1)` — the oldest rank that can still be intact —
//! and reports the skipped count as [`BroadcastTryRecvError::Lagged`].
//! Loss is therefore always *observed*, never silent, and bounded below by
//! the clamp even when the tail mirror read is stale.
//!
//! `T: Copy` is required: readers copy items out of cells that remain live
//! for other subscribers (nothing is ever consumed), and the writer
//! overwrites cells without any reader handshake, so payloads must be
//! plain data with no drop obligations.
//!
//! ```
//! let (mut tx, rx) = ffq::broadcast::channel::<u64>(8);
//! let mut a = rx.clone();
//! let mut b = rx;
//! tx.send(7);
//! assert_eq!(a.try_recv(), Ok(7));
//! assert_eq!(b.try_recv(), Ok(7)); // both subscribers see the item
//! ```

use std::sync::Arc;
use std::time::Duration;

use ffq_sync::atomic::{fence, Ordering};
use ffq_sync::{WaitConfig, WaitRound, WaitStrategy};

use crate::cell::{CellSlot, PaddedCell};
use crate::error::{BroadcastRecvError, BroadcastTryRecvError};
use crate::layout::{IndexMap, LinearMap};
use crate::raw::RawQueue;
use crate::shared::Shared;
use crate::stats::SubscriberStats;

/// Stamp a writer publishes before overwriting rank `rank`'s slot.
#[inline(always)]
fn seq_writing(rank: i64) -> i64 {
    2 * rank + 1
}

/// Stamp that marks rank `rank` as published in its slot.
#[inline(always)]
fn seq_published(rank: i64) -> i64 {
    2 * rank + 2
}

/// The broadcast publish engine over caller-provided memory.
///
/// Exactly one producer may exist per broadcast queue (the stream has a
/// single, totally ordered history; the tail is private, as in the paper's
/// single-producer variants). [`send`](Self::send) is wait-free: it never
/// inspects subscriber positions and never blocks.
pub struct RawBroadcastProducer<T, C: CellSlot<T> = PaddedCell<T>, M: IndexMap = LinearMap>
where
    T: Copy + Send,
{
    queue: RawQueue<T, C, M>,
    /// Count of items published so far — the next rank to write. Private;
    /// mirrored into [`QueueState::tail`] after every publish.
    ///
    /// [`QueueState::tail`]: crate::raw::QueueState
    tail: i64,
}

impl<T: Copy + Send, C: CellSlot<T>, M: IndexMap> RawBroadcastProducer<T, C, M> {
    /// Attaches the unique producer to `queue`, resuming from the mirrored
    /// tail (0 on a fresh queue).
    ///
    /// # Safety
    ///
    /// `queue` upholds [`RawQueue::from_raw`]'s contract for this handle's
    /// lifetime; no other producer handle (broadcast or point-to-point)
    /// exists on the same queue while this one does; every other handle on
    /// the queue is a broadcast subscriber. The caller is responsible for
    /// the `producers` count in the queue state.
    pub unsafe fn attach(queue: RawQueue<T, C, M>) -> Self {
        let tail = queue.state().tail().load(Ordering::Acquire);
        Self { queue, tail }
    }

    /// Publishes `value` to every subscriber. Wait-free; never fails.
    ///
    /// Subscribers more than one ring behind lose the overwritten items
    /// and observe the loss as `Lagged` — the producer neither knows nor
    /// cares.
    pub fn send(&mut self, value: T) {
        let rank = self.tail;
        debug_assert!(rank >= 0, "broadcast tail overflowed i64");
        let cell = self.queue.cell(rank);
        let words = cell.words();
        // Odd phase. The AcqRel RMW keeps the payload stores below from
        // being hoisted above the stamp — a reader that misses the odd
        // stamp must also have missed every payload store (see the module
        // docs and `DoubleWord::swap_lo_unpaired`).
        let prev = words.swap_lo_unpaired(seq_writing(rank), Ordering::AcqRel);
        debug_assert!(
            prev < seq_writing(rank),
            "slot stamp regressed: {prev} -> {}",
            seq_writing(rank)
        );
        // The swap's AcqRel release half orders only *prior* accesses; it
        // does not release-order the payload stores below. This fence
        // does: a reader whose relaxed payload copy observes any chunk of
        // the new payload synchronizes with it (fence-to-fence through
        // the relaxed chunk atomics), so its stamp re-read after its own
        // Acquire fence must see the odd stamp and discard the copy.
        // Without it a reader could copy new payload bytes yet validate
        // against the stale even stamp — a torn read the stamp protocol
        // exists to rule out (found by `loom_broadcast_seqlock_cell_*`).
        fence(Ordering::Release);
        // SAFETY: the unique producer owns every slot's write phase; racy
        // readers are benign (atomic chunked copy, stamp-validated).
        unsafe { ffq_sync::write_racy(cell.data() as *mut T, value) };
        // Even phase: Release orders the payload before the published stamp.
        words.store_lo_unpaired(seq_published(rank), Ordering::Release);
        self.tail = rank + 1;
        // Tail mirror drives the subscribers' Empty/Closed checks and park
        // predicates; ordered after the stamp so `tail > c` implies rank
        // `c`'s stamp (or a later one) is visible.
        self.queue
            .state()
            .tail()
            .store(self.tail, Ordering::Release);
        // Every parked subscriber is waiting for precisely this
        // publication (broadcast delivery has no rank ownership), so the
        // wake must reach all of them.
        self.queue.state().wake_consumers_all();
    }

    /// Publishes every item of `iter`; returns the count.
    pub fn send_many<I: IntoIterator<Item = T>>(&mut self, iter: I) -> usize {
        let mut n = 0;
        for v in iter {
            self.send(v);
            n += 1;
        }
        n
    }

    /// The underlying view.
    #[inline(always)]
    pub fn queue(&self) -> &RawQueue<T, C, M> {
        &self.queue
    }

    /// Number of items published so far (the next rank to be written).
    #[inline(always)]
    pub fn tail_rank(&self) -> i64 {
        self.tail
    }

    /// Capacity of the ring — also the maximum number of most-recent items
    /// a lagging subscriber can still recover.
    pub fn capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Number of live subscriber handles.
    pub fn subscribers(&self) -> usize {
        // Acquire per the QueueState handle-count rule.
        self.queue.state().consumers().load(Ordering::Acquire) as usize
    }
}

/// The broadcast subscribe engine over caller-provided memory.
///
/// Purely private state: a cursor into the stream plus statistics. Any
/// number of subscribers may attach to one queue; they never write to
/// shared memory (not even to claim items), so adding subscribers costs
/// the producer nothing.
pub struct RawBroadcastSubscriber<T, C: CellSlot<T> = PaddedCell<T>, M: IndexMap = LinearMap>
where
    T: Copy + Send,
{
    queue: RawQueue<T, C, M>,
    /// Rank of the next item this subscriber will observe.
    cursor: i64,
    wait: WaitConfig,
    stats: SubscriberStats,
}

impl<T: Copy + Send, C: CellSlot<T>, M: IndexMap> RawBroadcastSubscriber<T, C, M> {
    /// Attaches a subscriber whose first item will be rank `cursor`.
    ///
    /// A cursor older than `tail − capacity` is legal — the first receive
    /// reports the backlog as `Lagged` and resyncs.
    ///
    /// # Safety
    ///
    /// `queue` upholds [`RawQueue::from_raw`]'s contract for this handle's
    /// lifetime and carries the broadcast protocol (its producer is a
    /// [`RawBroadcastProducer`]); `cursor >= 0`. The caller is responsible
    /// for the `consumers` count in the queue state.
    pub unsafe fn attach_at(queue: RawQueue<T, C, M>, cursor: i64) -> Self {
        debug_assert!(cursor >= 0);
        Self {
            queue,
            cursor,
            wait: WaitConfig::default(),
            stats: SubscriberStats::default(),
        }
    }

    /// Attaches a subscriber at the start of the stream (rank 0). Useful
    /// for tests and short-lived streams; long-running producers will have
    /// overwritten early ranks, which the first receive reports as lag.
    ///
    /// # Safety
    /// As [`attach_at`](Self::attach_at).
    pub unsafe fn attach_from_origin(queue: RawQueue<T, C, M>) -> Self {
        // SAFETY: forwarded contract.
        unsafe { Self::attach_at(queue, 0) }
    }

    /// Attaches a subscriber at the live edge of the stream: it will only
    /// observe items published after this call.
    ///
    /// # Safety
    /// As [`attach_at`](Self::attach_at).
    pub unsafe fn attach_latest(queue: RawQueue<T, C, M>) -> Self {
        let cursor = queue.state().tail().load(Ordering::Acquire);
        // SAFETY: forwarded contract.
        unsafe { Self::attach_at(queue, cursor) }
    }

    /// Attempts to receive the next item without blocking.
    pub fn try_recv(&mut self) -> Result<T, BroadcastTryRecvError> {
        let cursor = self.cursor;
        let cell = self.queue.cell(cursor);
        let words = cell.words();
        let expected = seq_published(cursor);
        let s1 = words.load_lo(Ordering::Acquire);
        if s1 < expected {
            // Not published yet (or the writer is mid-write of exactly this
            // rank — same answer). Distinguish Empty from Closed: the
            // producer-count load is Acquire, so observing 0 makes the
            // producer's final tail mirror visible and the tail check
            // below is authoritative.
            self.stats.not_ready += 1;
            if self.queue.state().producers().load(Ordering::Acquire) == 0
                && self.queue.state().tail().load(Ordering::Acquire) <= cursor
            {
                return Err(BroadcastTryRecvError::Closed);
            }
            return Err(BroadcastTryRecvError::Empty);
        }
        if s1 == expected {
            // Copy the payload out, then prove no writer interleaved. The
            // copy stays `MaybeUninit` until then: a torn copy need not be
            // a valid `T`.
            // SAFETY: stamp == published(cursor) means the producer fully
            // initialized this slot at least once; concurrent overwrites
            // are benign per `read_racy`.
            let copy = unsafe { ffq_sync::read_racy(cell.data() as *const T) };
            // Orders the payload loads above before the stamp re-read: if
            // an overwrite raced the copy, the re-read must see its stamp.
            fence(Ordering::Acquire);
            let s2 = words.load_lo(Ordering::Relaxed);
            if s2 == expected {
                self.cursor = cursor + 1;
                self.stats.received += 1;
                // SAFETY: stamp unchanged across the copy — no writer
                // touched the slot, the copy is the published value.
                return Ok(unsafe { copy.assume_init() });
            }
            self.stats.torn_retries += 1;
        }
        // The slot was reused for a later rank (observed up front as
        // `s1 > expected`, or mid-copy as `s2 != s1`): rank `cursor` is
        // overwritten and gone. Resync just behind the writer. The tail
        // mirror may lag the stamp we just saw, but the `cursor + 1` clamp
        // keeps the resync monotonic and the loss count >= 1; ranks the
        // clamp under-skips are simply reported lagged on the next call.
        let n = self.queue.capacity() as i64;
        let tail = self.queue.state().tail().load(Ordering::Acquire);
        let new_cursor = (tail - n).max(cursor + 1);
        let lost = (new_cursor - cursor) as u64;
        self.cursor = new_cursor;
        self.stats.lagged_items += lost;
        self.stats.lag_events += 1;
        Err(BroadcastTryRecvError::Lagged(lost))
    }

    /// Receives the next item, waiting — spinning, then parking on the
    /// not-empty eventcount — while nothing new is published.
    ///
    /// Lag is returned as an error, not waited out: the caller decides
    /// whether to keep consuming after loss (the next `recv` resumes at
    /// the oldest retained item).
    pub fn recv(&mut self) -> Result<T, BroadcastRecvError> {
        // Without a timeout the wait never ends `Empty`.
        self.recv_for(None).map_err(|e| match e {
            BroadcastTryRecvError::Lagged(n) => BroadcastRecvError::Lagged(n),
            _ => BroadcastRecvError::Closed,
        })
    }

    /// Receives the next item, giving up after `timeout` (returning
    /// `Empty`) if nothing new is published by then.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<T, BroadcastTryRecvError> {
        self.recv_for(Some(timeout))
    }

    /// [`recv`](Self::recv) and [`recv_timeout`](Self::recv_timeout): one
    /// attempt inline, the wait only after it comes up empty.
    fn recv_for(&mut self, timeout: Option<Duration>) -> Result<T, BroadcastTryRecvError> {
        match self.try_recv() {
            Err(BroadcastTryRecvError::Empty) => self.recv_wait(timeout),
            res => res,
        }
    }

    /// The one wait loop of [`recv_for`](Self::recv_for), entered after its
    /// first attempt came up empty.
    #[cold]
    fn recv_wait(&mut self, timeout: Option<Duration>) -> Result<T, BroadcastTryRecvError> {
        let mut strat = WaitStrategy::new(self.wait);
        let q = self.queue;
        let res = loop {
            let cursor = self.cursor;
            let state = q.state();
            // Ready = something new was published past our cursor, or the
            // producer is gone. Fresh Acquire loads on purpose — this
            // predicate runs between park rounds.
            let round = strat.wait_round_for(
                state.not_empty(),
                state.wait_is_shared(),
                timeout,
                &mut || {
                    state.tail().load(Ordering::Acquire) > cursor
                        || state.producers().load(Ordering::Acquire) == 0
                },
            );
            if round == WaitRound::Expired {
                break Err(BroadcastTryRecvError::Empty);
            }
            match self.try_recv() {
                Err(BroadcastTryRecvError::Empty) => {}
                res => break res,
            }
        };
        self.stats.parks += strat.parks();
        res
    }

    /// The underlying view.
    #[inline(always)]
    pub fn queue(&self) -> &RawQueue<T, C, M> {
        &self.queue
    }

    /// Rank of the next item this subscriber will observe.
    #[inline(always)]
    pub fn cursor_rank(&self) -> i64 {
        self.cursor
    }

    /// How many published items this subscriber has not yet observed
    /// (approximate — the producer keeps moving). Values above the
    /// capacity mean the next receive will report lag.
    pub fn len_behind(&self) -> usize {
        let tail = self.queue.state().tail().load(Ordering::Acquire);
        usize::try_from((tail - self.cursor).max(0)).unwrap_or(0)
    }

    /// Replaces the waiting profile used by the blocking receive paths
    /// (default: [`WaitConfig::adaptive`]). Per-handle.
    pub fn set_wait_config(&mut self, cfg: WaitConfig) {
        self.wait = cfg;
    }

    /// This handle's waiting profile.
    pub fn wait_config(&self) -> WaitConfig {
        self.wait
    }

    /// Capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Snapshot of this subscriber's counters.
    pub fn stats(&self) -> SubscriberStats {
        self.stats
    }
}

/// Creates a heap-backed broadcast channel with at least the given capacity
/// (rounded up to a power of two).
///
/// Returns the unique sender and one subscriber positioned at the start of
/// the stream; clone the subscriber for more (clones inherit the source's
/// position) or call [`Subscriber::resubscribe`] to join at the live edge.
///
/// # Panics
/// If `capacity` is 0 or exceeds [`crate::layout::MAX_CAPACITY`].
pub fn channel<T: Copy + Send>(capacity: usize) -> (Sender<T>, Subscriber<T>) {
    channel_with::<T, PaddedCell<T>, LinearMap>(capacity)
}

/// Creates a broadcast channel with explicit cell layout `C` and index
/// mapping `M` (see [`crate::cell`] and [`crate::layout`]).
///
/// # Panics
/// If `capacity` is 0 or exceeds [`crate::layout::MAX_CAPACITY`].
pub fn channel_with<T: Copy + Send, C: CellSlot<T>, M: IndexMap>(
    capacity: usize,
) -> (Sender<T, C, M>, Subscriber<T, C, M>) {
    let shared = Shared::<T, C, M>::heap(capacity, "broadcast");
    let raw = shared.raw();
    // SAFETY: the Arc in each handle keeps the allocation alive and pinned;
    // exactly one producer exists, and the producer/consumer counts were
    // pre-set by `Shared::heap` (one producer, one consumer).
    let tx = Sender {
        raw: unsafe { RawBroadcastProducer::attach(raw) },
        _shared: Arc::clone(&shared),
    };
    let rx = Subscriber {
        raw: unsafe { RawBroadcastSubscriber::attach_from_origin(raw) },
        shared,
    };
    (tx, rx)
}

/// The unique sending side of a broadcast channel.
///
/// Not `Clone` and takes `&mut self`: the stream has one totally ordered
/// history written by one thread (same single-producer discipline as
/// [`crate::spmc`]).
pub struct Sender<T: Copy + Send, C: CellSlot<T> = PaddedCell<T>, M: IndexMap = LinearMap> {
    raw: RawBroadcastProducer<T, C, M>,
    /// Keeps the queue allocation alive (the raw view points into it).
    _shared: Arc<Shared<T, C, M>>,
}

impl<T: Copy + Send, C: CellSlot<T>, M: IndexMap> Sender<T, C, M> {
    /// Publishes `value` to every subscriber. Wait-free; never blocks and
    /// never fails — subscribers that cannot keep up observe `Lagged`.
    pub fn send(&mut self, value: T) {
        self.raw.send(value);
    }

    /// Publishes every item of `iter`; returns the count.
    pub fn send_many<I: IntoIterator<Item = T>>(&mut self, iter: I) -> usize {
        self.raw.send_many(iter)
    }

    /// Number of items published so far.
    pub fn published(&self) -> u64 {
        self.raw.tail_rank() as u64
    }

    /// Capacity of the ring — the retention window lagging subscribers can
    /// still recover from.
    pub fn capacity(&self) -> usize {
        self.raw.capacity()
    }

    /// Number of live subscriber handles.
    pub fn subscribers(&self) -> usize {
        self.raw.subscribers()
    }
}

impl<T: Copy + Send, C: CellSlot<T>, M: IndexMap> Drop for Sender<T, C, M> {
    fn drop(&mut self) {
        // SeqCst per the QueueState handle-count rule (see
        // spmc::Producer::drop): the Release half orders the final
        // publishes before any subscriber observes the count at zero.
        let state = self.raw.queue().state();
        state.producers().fetch_sub(1, Ordering::SeqCst);
        // Parked subscribers must observe the closure promptly.
        state.wake_all();
    }
}

/// A subscribing handle of a broadcast channel. Clone it to add
/// subscribers; each clone advances independently.
pub struct Subscriber<T: Copy + Send, C: CellSlot<T> = PaddedCell<T>, M: IndexMap = LinearMap> {
    raw: RawBroadcastSubscriber<T, C, M>,
    /// Keeps the queue allocation alive (the raw view points into it).
    shared: Arc<Shared<T, C, M>>,
}

impl<T: Copy + Send, C: CellSlot<T>, M: IndexMap> Subscriber<T, C, M> {
    /// Attempts to receive the next item without blocking; see
    /// [`RawBroadcastSubscriber::try_recv`].
    pub fn try_recv(&mut self) -> Result<T, BroadcastTryRecvError> {
        self.raw.try_recv()
    }

    /// Receives the next item, waiting while nothing new is published;
    /// see [`RawBroadcastSubscriber::recv`].
    pub fn recv(&mut self) -> Result<T, BroadcastRecvError> {
        self.raw.recv()
    }

    /// Receives the next item, giving up (with `Empty`) after `timeout`.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<T, BroadcastTryRecvError> {
        self.raw.recv_timeout(timeout)
    }

    /// A new subscriber positioned at the **live edge** of the stream: it
    /// observes only items published after this call (a plain `clone()`
    /// inherits this handle's position instead).
    pub fn resubscribe(&self) -> Self {
        self.shared
            .raw()
            .state()
            .consumers()
            .fetch_add(1, Ordering::Relaxed);
        Self {
            // SAFETY: same queue, kept alive by the cloned Arc; broadcast
            // subscribers may attach at any time.
            raw: unsafe { RawBroadcastSubscriber::attach_latest(self.shared.raw()) },
            shared: Arc::clone(&self.shared),
        }
    }

    /// Rank of the next item this subscriber will observe.
    pub fn cursor_rank(&self) -> i64 {
        self.raw.cursor_rank()
    }

    /// How many published items this subscriber has not yet observed
    /// (approximate).
    pub fn len_behind(&self) -> usize {
        self.raw.len_behind()
    }

    /// Replaces the waiting profile used by blocking receives.
    pub fn set_wait_config(&mut self, cfg: WaitConfig) {
        self.raw.set_wait_config(cfg);
    }

    /// Capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.raw.capacity()
    }

    /// Snapshot of this subscriber's counters.
    pub fn stats(&self) -> SubscriberStats {
        self.raw.stats()
    }
}

impl<T: Copy + Send, C: CellSlot<T>, M: IndexMap> Clone for Subscriber<T, C, M> {
    fn clone(&self) -> Self {
        self.shared
            .raw()
            .state()
            .consumers()
            .fetch_add(1, Ordering::Relaxed);
        Self {
            // SAFETY: same queue, kept alive by the cloned Arc.
            raw: unsafe {
                RawBroadcastSubscriber::attach_at(self.shared.raw(), self.raw.cursor_rank())
            },
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T: Copy + Send, C: CellSlot<T>, M: IndexMap> Drop for Subscriber<T, C, M> {
    fn drop(&mut self) {
        // Subscribers own nothing in shared memory — no recovery needed,
        // just the handle count (SeqCst per the QueueState rule).
        self.raw
            .queue()
            .state()
            .consumers()
            .fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CompactCell;
    use crate::layout::RotateMap;
    use crate::raw::QueueState;

    #[test]
    fn every_subscriber_sees_every_item() {
        let (mut tx, rx) = channel::<u64>(16);
        let mut subs: Vec<_> = (0..4).map(|_| rx.clone()).collect();
        drop(rx);
        assert_eq!(tx.subscribers(), 4);
        for i in 0..10 {
            tx.send(i);
        }
        for rx in &mut subs {
            for i in 0..10 {
                assert_eq!(rx.try_recv(), Ok(i));
            }
            assert_eq!(rx.try_recv(), Err(BroadcastTryRecvError::Empty));
        }
    }

    #[test]
    fn wraparound_delivers_in_order() {
        let (mut tx, mut rx) = channel::<u64>(4);
        for i in 0..1000 {
            tx.send(i);
            assert_eq!(rx.try_recv(), Ok(i));
        }
        assert_eq!(rx.stats().received, 1000);
        assert_eq!(rx.stats().lagged_items, 0);
    }

    #[test]
    fn slow_subscriber_lags_and_resyncs() {
        let (mut tx, mut rx) = channel::<u64>(4);
        // 10 items through a 4-slot ring with no reads: ranks 0..6 are
        // overwritten.
        for i in 0..10 {
            tx.send(i);
        }
        match rx.try_recv() {
            Err(BroadcastTryRecvError::Lagged(n)) => assert_eq!(n, 6),
            other => panic!("expected Lagged(6), got {other:?}"),
        }
        // Resynced to the oldest retained item; the rest arrive in order.
        for i in 6..10 {
            assert_eq!(rx.try_recv(), Ok(i));
        }
        assert_eq!(rx.try_recv(), Err(BroadcastTryRecvError::Empty));
        let s = rx.stats();
        assert_eq!((s.received, s.lagged_items, s.lag_events), (4, 6, 1));
        // The loss-accounting invariant the conformance suite rests on.
        assert_eq!(s.received + s.lagged_items, tx.published());
    }

    #[test]
    fn closed_after_sender_drop_and_drain() {
        let (mut tx, mut rx) = channel::<u64>(8);
        tx.send(1);
        tx.send(2);
        drop(tx);
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(BroadcastTryRecvError::Closed));
        assert_eq!(rx.recv(), Err(BroadcastRecvError::Closed));
    }

    #[test]
    fn resubscribe_joins_at_live_edge() {
        let (mut tx, mut rx) = channel::<u64>(8);
        tx.send(1);
        tx.send(2);
        let mut live = rx.resubscribe();
        assert_eq!(live.try_recv(), Err(BroadcastTryRecvError::Empty));
        tx.send(3);
        assert_eq!(live.try_recv(), Ok(3));
        // The original still sees the full history.
        assert_eq!(rx.try_recv(), Ok(1));
        // A clone inherits its source's position, not the live edge.
        let mut copy = rx.clone();
        assert_eq!(copy.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Ok(2));
    }

    #[test]
    // The timed-out wait parks on a futex, which Miri cannot run; the CI
    // Miri step covers the non-parking broadcast:: tests.
    #[cfg_attr(miri, ignore)]
    fn recv_timeout_expires_then_recovers() {
        let (mut tx, mut rx) = channel::<u64>(8);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(BroadcastTryRecvError::Empty)
        );
        tx.send(7);
        assert_eq!(rx.recv_timeout(Duration::from_millis(100)), Ok(7));
    }

    #[test]
    fn all_layout_combinations_work() {
        fn smoke<C: CellSlot<u64>, M: IndexMap>() {
            let (mut tx, mut rx) = channel_with::<u64, C, M>(8);
            let mut got = Vec::new();
            for i in 0..50u64 {
                tx.send(i);
                loop {
                    match rx.try_recv() {
                        Ok(v) => got.push(v),
                        Err(BroadcastTryRecvError::Empty) => break,
                        Err(e) => panic!("unexpected {e:?}"),
                    }
                }
            }
            assert_eq!(got, (0..50).collect::<Vec<_>>());
        }
        smoke::<PaddedCell<u64>, LinearMap>();
        smoke::<PaddedCell<u64>, RotateMap>();
        smoke::<CompactCell<u64>, LinearMap>();
        smoke::<CompactCell<u64>, RotateMap>();
    }

    #[test]
    fn raw_engines_over_local_memory() {
        // Caller-provided memory end to end, as ffq-shm will use it.
        let state = QueueState::new(3, 1, 1);
        let cells: Vec<PaddedCell<u64>> = (0..8).map(|_| CellSlot::<u64>::empty()).collect();
        // SAFETY: state/cells outlive the handles; one producer, broadcast
        // subscribers only.
        let q = unsafe {
            RawQueue::<u64, PaddedCell<u64>, LinearMap>::from_raw(&state, cells.as_ptr())
        };
        let mut tx = unsafe { RawBroadcastProducer::attach(q) };
        let mut a = unsafe { RawBroadcastSubscriber::attach_from_origin(q) };
        let mut b = unsafe { RawBroadcastSubscriber::attach_from_origin(q) };
        for i in 0..100u64 {
            tx.send(i);
            assert_eq!(a.try_recv(), Ok(i));
            assert_eq!(b.try_recv(), Ok(i));
        }
        // A late attach at the live edge sees only what follows.
        let mut late = unsafe { RawBroadcastSubscriber::attach_latest(q) };
        assert_eq!(late.try_recv(), Err(BroadcastTryRecvError::Empty));
        tx.send(100);
        assert_eq!(late.try_recv(), Ok(100));
    }

    /// Torn-read injection through the seqlock seam: perform the reader's
    /// steps by hand with a producer overwrite spliced between the payload
    /// copy and the validating stamp re-read. The validation must discard
    /// the copy, and the real `try_recv` must then report the loss.
    #[test]
    fn torn_read_is_discarded_by_the_stamp_check() {
        let state = QueueState::new(1, 1, 1);
        let cells: Vec<PaddedCell<[u64; 4]>> = (0..2).map(|_| CellSlot::empty()).collect();
        let q = unsafe {
            RawQueue::<[u64; 4], PaddedCell<[u64; 4]>, LinearMap>::from_raw(&state, cells.as_ptr())
        };
        let mut tx = unsafe { RawBroadcastProducer::attach(q) };
        let mut rx = unsafe { RawBroadcastSubscriber::attach_from_origin(q) };
        tx.send([1; 4]);
        tx.send([2; 4]);

        // Reader protocol by hand at cursor 0, expecting stamp 2.
        let cell = q.cell(0);
        let s1 = cell.words().load_lo(Ordering::Acquire);
        assert_eq!(s1, seq_published(0));
        let copy = unsafe { ffq_sync::read_racy(cell.data() as *const [u64; 4]) };
        // ... the producer laps the ring before the reader validates:
        tx.send([3; 4]); // rank 2 -> slot 0, stamps 5 then 6
        fence(Ordering::Acquire);
        let s2 = cell.words().load_lo(Ordering::Relaxed);
        assert_ne!(s1, s2, "the overwrite must be visible to the re-read");
        let _ = copy; // torn copy discarded, never assume_init'd

        // The real path now observes the same overwrite as lag.
        match rx.try_recv() {
            Err(BroadcastTryRecvError::Lagged(n)) => assert!(n >= 1),
            other => panic!("expected Lagged, got {other:?}"),
        }
        // And the stream continues with intact items only.
        let v = rx.try_recv().unwrap();
        assert!(v == [2; 4] || v == [3; 4]);
    }

    /// Injecting a mid-write (odd) stamp must read as Empty — a write in
    /// progress at the cursor is indistinguishable from not-yet-published
    /// and must never be surfaced as data or loss.
    #[test]
    fn odd_stamp_reads_as_empty() {
        let state = QueueState::new(2, 1, 1);
        let cells: Vec<PaddedCell<u64>> = (0..4).map(|_| CellSlot::<u64>::empty()).collect();
        let q = unsafe {
            RawQueue::<u64, PaddedCell<u64>, LinearMap>::from_raw(&state, cells.as_ptr())
        };
        let mut rx = unsafe { RawBroadcastSubscriber::attach_from_origin(q) };
        // Writer mid-write of rank 0: odd stamp, payload indeterminate.
        q.cell(0)
            .words()
            .swap_lo_unpaired(seq_writing(0), Ordering::AcqRel);
        assert_eq!(rx.try_recv(), Err(BroadcastTryRecvError::Empty));
        // Completing the write publishes normally.
        unsafe { ffq_sync::write_racy(q.cell(0).data() as *mut u64, 42) };
        q.cell(0)
            .words()
            .store_lo_unpaired(seq_published(0), Ordering::Release);
        state.tail().store(1, Ordering::Release);
        assert_eq!(rx.try_recv(), Ok(42));
    }

    #[test]
    fn cross_thread_fanout_no_tearing_no_reordering() {
        // A fast producer laps slow subscribers at a tiny capacity; every
        // received value must be internally consistent (all words equal)
        // and strictly increasing per subscriber, and received + lagged
        // must account for the full stream.
        const ITEMS: u64 = if cfg!(miri) { 200 } else { 50_000 };
        let (mut tx, rx) = channel::<[u64; 4]>(4);
        let subs: Vec<_> = (0..3).map(|_| rx.clone()).collect();
        drop(rx);
        let producer = std::thread::spawn(move || {
            for i in 1..=ITEMS {
                tx.send([i; 4]);
            }
        });
        let handles: Vec<_> = subs
            .into_iter()
            .map(|mut rx| {
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    let mut received = 0u64;
                    let mut lagged = 0u64;
                    loop {
                        match rx.recv() {
                            Ok(v) => {
                                assert!(
                                    v.windows(2).all(|w| w[0] == w[1]),
                                    "torn payload surfaced: {v:?}"
                                );
                                assert!(v[0] > last, "reordered: {} after {last}", v[0]);
                                last = v[0];
                                received += 1;
                            }
                            Err(BroadcastRecvError::Lagged(n)) => lagged += n,
                            Err(BroadcastRecvError::Closed) => break,
                        }
                    }
                    (received, lagged)
                })
            })
            .collect();
        producer.join().unwrap();
        for h in handles {
            let (received, lagged) = h.join().unwrap();
            assert_eq!(received + lagged, ITEMS, "stream not fully accounted");
        }
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let (tx, _rx) = channel::<u32>(100);
        assert_eq!(tx.capacity(), 128);
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_panics() {
        let _ = channel::<u32>(0);
    }

    #[test]
    fn subscriber_count_tracks_handles() {
        let (tx, rx) = channel::<u32>(8);
        assert_eq!(tx.subscribers(), 1);
        let rx2 = rx.clone();
        let rx3 = rx2.resubscribe();
        assert_eq!(tx.subscribers(), 3);
        drop(rx);
        drop(rx2);
        drop(rx3);
        assert_eq!(tx.subscribers(), 0);
    }
}
