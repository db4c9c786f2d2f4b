//! FFQ SPSC: the single-producer/single-consumer specialization.
//!
//! Used by the paper's evaluation as the response-queue of the syscall
//! framework and as the single-thread reference point in Figures 3 and 8:
//! "The SPSC variant of FFQ removes the need for an atomic increment
//! operation". The cell protocol is identical to Algorithm 1; the only
//! change is that the consumer's `head` is a private counter (single-reader/
//! single-writer), so dequeuing performs no atomic read-modify-write either.
//!
//! With no RMWs to amortize, batching here amortizes the remaining shared
//! traffic instead: the producer's batched path caches the consumer's
//! mirrored head (MCRingBuffer-style shadow index) and publishes a run of
//! ranks with one release pass, and the consumer's [`Consumer::dequeue_batch`]
//! mirrors its private head back once per harvested run instead of once per
//! item.
//!
//! The handles here are thin wrappers over the raw engines in
//! [`crate::raw`]: they allocate the queue on the heap, pin it with an
//! `Arc`, and disconnect on drop. The protocol itself lives entirely in the
//! raw layer, where `ffq-shm` reuses it over shared memory.

use ffq_sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use crate::cell::{CellSlot, PaddedCell};
use crate::error::{Disconnected, Full, TryDequeueError};
use crate::layout::{normalize_capacity, IndexMap, LinearMap};
use crate::raw::{RawProducer, RawSpscConsumer};
use crate::shared::Shared;
use crate::stats::{ConsumerStats, ProducerStats};
use crate::WaitConfig;

/// Creates an SPSC queue with the default layout and at least the given
/// capacity (rounded up to a power of two; see
/// [`crate::layout::normalize_capacity`]).
///
/// # Panics
/// If `capacity` is 0 or exceeds [`crate::layout::MAX_CAPACITY`].
pub fn channel<T: Send>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    channel_with::<T, PaddedCell<T>, LinearMap>(capacity)
}

/// Creates a zero-copy bytes-mode SPSC queue: `capacity` cells, each owning
/// a slot buffer of at least `slot_bytes` bytes (both rounded up to powers
/// of two; see [`crate::layout::normalize_slot_bytes`]).
///
/// Payloads up to `slot_bytes` move through their rank's slot buffer with
/// one copy end to end; longer ones are chained across consecutive cells
/// ([`crate::bytes::SpillMode::Chain`]) up to `slot_bytes × capacity/2`,
/// never truncated.
pub fn bytes_channel(
    capacity: usize,
    slot_bytes: usize,
) -> Result<(crate::bytes::SpProducer, crate::bytes::SpscConsumer), crate::CapacityError> {
    crate::bytes::heap_spsc(capacity, slot_bytes)
}

/// Creates an SPSC queue with explicit cell layout and index mapping.
///
/// # Panics
/// If `capacity` is 0 or exceeds [`crate::layout::MAX_CAPACITY`].
pub fn channel_with<T: Send, C: CellSlot<T>, M: IndexMap>(
    capacity: usize,
) -> (Producer<T, C, M>, Consumer<T, C, M>) {
    let cap_log2 =
        normalize_capacity(capacity).unwrap_or_else(|e| panic!("ffq::spsc::channel: {e}"));
    let shared = Arc::new(Shared::<T, C, M>::with_log2(cap_log2, 1));
    let raw = shared.raw();
    // SAFETY: the Arc in each handle keeps the allocation (and thus the raw
    // view) alive and pinned; exactly one producer and one consumer handle
    // exist, and the counts were pre-set by `with_log2(_, 1)`.
    let tx = Producer {
        raw: unsafe { RawProducer::attach(raw) },
        _shared: Arc::clone(&shared),
    };
    let rx = Consumer {
        raw: unsafe { RawSpscConsumer::attach(raw) },
        _shared: shared,
    };
    (tx, rx)
}

/// The producing side of an SPSC queue (identical protocol to
/// [`crate::spmc::Producer`]).
pub struct Producer<T: Send, C: CellSlot<T> = PaddedCell<T>, M: IndexMap = LinearMap> {
    raw: RawProducer<T, C, M>,
    /// Keeps the queue allocation alive (the raw view points into it).
    _shared: Arc<Shared<T, C, M>>,
}

impl<T: Send, C: CellSlot<T>, M: IndexMap> Producer<T, C, M> {
    /// Enqueues `value`; waits — spinning, then parking per the configured
    /// [`WaitConfig`] — between full array scans if the queue is full
    /// (wait-free under the paper's sizing assumption).
    pub fn enqueue(&mut self, value: T) {
        self.raw.enqueue(value);
    }

    /// Enqueues `value`, giving up (and returning it back) once `timeout`
    /// has elapsed with the queue still full.
    pub fn enqueue_timeout(&mut self, value: T, timeout: Duration) -> Result<(), Full<T>> {
        self.raw.enqueue_timeout(value, timeout)
    }

    /// Replaces the wait policy used by blocking enqueues; see
    /// [`WaitConfig`].
    pub fn set_wait_config(&mut self, cfg: WaitConfig) {
        self.raw.set_wait_config(cfg);
    }

    /// Attempts to enqueue; O(1) rejection when clearly full, otherwise one
    /// bounded array scan (with the rank-consumption caveat of
    /// [`crate::spmc::Producer::try_enqueue`]).
    pub fn try_enqueue(&mut self, value: T) -> Result<(), Full<T>> {
        self.raw.try_enqueue(value)
    }

    /// Enqueues every item of `iter` (blocking as needed); returns the
    /// count.
    ///
    /// The batched path: data for a run of free cells is written first, the
    /// ranks are published in order behind one `Release` fence, and the
    /// shared tail mirror is stored once per run instead of once per item.
    pub fn enqueue_many<I: IntoIterator<Item = T>>(&mut self, iter: I) -> usize {
        self.raw.enqueue_many(iter)
    }

    /// Capacity of the underlying cell array.
    pub fn capacity(&self) -> usize {
        self.raw.capacity()
    }

    /// Approximate number of items currently enqueued.
    pub fn len_hint(&self) -> usize {
        self.raw.len_hint()
    }

    /// Snapshot of this producer's counters.
    pub fn stats(&self) -> ProducerStats {
        self.raw.stats()
    }
}

impl<T: Send, C: CellSlot<T>, M: IndexMap> Drop for Producer<T, C, M> {
    fn drop(&mut self) {
        // SeqCst (cold path): the Release half pairs with the consumer's
        // Acquire load in its disconnect check — every enqueue before this
        // drop is visible once the count reads 0; the SC position bounds
        // the death's latency to spinning wait predicates (see
        // mpmc::Producer::drop).
        let state = self.raw.queue().state();
        state.producers().fetch_sub(1, Ordering::SeqCst);
        // A consumer parked on the not-empty eventcount must observe the
        // disconnect promptly rather than after its bounded-park timeout.
        state.wake_all();
    }
}

/// The unique consuming side of an SPSC queue.
///
/// Not `Clone`: its `head` counter is private, which is exactly what makes
/// this variant cheaper than SPMC. Clone requirements mean you want
/// [`crate::spmc`].
pub struct Consumer<T: Send, C: CellSlot<T> = PaddedCell<T>, M: IndexMap = LinearMap> {
    raw: RawSpscConsumer<T, C, M>,
    /// Keeps the queue allocation alive (the raw view points into it).
    _shared: Arc<Shared<T, C, M>>,
}

impl<T: Send, C: CellSlot<T>, M: IndexMap> Consumer<T, C, M> {
    /// Attempts to dequeue one item without blocking.
    ///
    /// Unlike the SPMC consumer there is no pending-rank bookkeeping: the
    /// private head simply does not advance on `Empty`.
    pub fn try_dequeue(&mut self) -> Result<T, TryDequeueError> {
        self.raw.try_dequeue()
    }

    /// Dequeues one item, waiting — spinning, then parking per the
    /// configured [`WaitConfig`] — while the queue is empty.
    pub fn dequeue(&mut self) -> Result<T, Disconnected> {
        self.raw.dequeue()
    }

    /// Dequeues one item, giving up after `timeout`.
    ///
    /// While spinning, the deadline is only re-checked every few back-off
    /// rounds (`Instant::now()` costs far more than a spin iteration); once
    /// parked, every sleep is clamped to the remaining time, so the return
    /// lands within about a millisecond of the deadline.
    pub fn dequeue_timeout(&mut self, timeout: Duration) -> Result<T, TryDequeueError> {
        self.raw.dequeue_timeout(timeout)
    }

    /// Replaces the wait policy used by blocking dequeues; see
    /// [`WaitConfig`].
    pub fn set_wait_config(&mut self, cfg: WaitConfig) {
        self.raw.set_wait_config(cfg);
    }

    /// Harvests up to `max` ready items into `buf`; returns the count.
    /// Never blocks.
    ///
    /// The batched dequeue: the private head advances cell by cell exactly
    /// as `try_dequeue` would, but the shared head mirror — the word the
    /// producer's fullness pre-check polls — is stored once per harvested
    /// run instead of once per item. (There is no `claim_batch` here: with
    /// no shared head RMW there is nothing to amortize, and nothing is ever
    /// pending.)
    pub fn dequeue_batch(&mut self, buf: &mut Vec<T>, max: usize) -> usize {
        self.raw.dequeue_batch(buf, max)
    }

    /// Capacity of the underlying cell array.
    pub fn capacity(&self) -> usize {
        self.raw.capacity()
    }

    /// Approximate number of items currently enqueued.
    pub fn len_hint(&self) -> usize {
        self.raw.len_hint()
    }

    /// Snapshot of this consumer's counters.
    pub fn stats(&self) -> ConsumerStats {
        self.raw.stats()
    }
}

impl<T: Send, C: CellSlot<T>, M: IndexMap> IntoIterator for Consumer<T, C, M> {
    type Item = T;
    type IntoIter = IntoIter<T, C, M>;

    /// A blocking iterator: yields items until all producers disconnect
    /// and the queue is drained.
    fn into_iter(self) -> Self::IntoIter {
        IntoIter { consumer: self }
    }
}

/// Blocking consuming iterator; see [`Consumer::into_iter`].
pub struct IntoIter<T: Send, C: CellSlot<T> = PaddedCell<T>, M: IndexMap = LinearMap> {
    consumer: Consumer<T, C, M>,
}

impl<T: Send, C: CellSlot<T>, M: IndexMap> Iterator for IntoIter<T, C, M> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.consumer.dequeue().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CompactCell;
    use crate::layout::RotateMap;

    #[test]
    fn fifo_order_preserved() {
        let (mut tx, mut rx) = channel::<u32>(8);
        for i in 0..6 {
            tx.enqueue(i);
        }
        for i in 0..6 {
            assert_eq!(rx.try_dequeue(), Ok(i));
        }
        assert_eq!(rx.try_dequeue(), Err(TryDequeueError::Empty));
    }

    #[test]
    fn interleaved_wraparound() {
        let (mut tx, mut rx) = channel::<u64>(4);
        for round in 0..100u64 {
            tx.enqueue(round * 2);
            tx.enqueue(round * 2 + 1);
            assert_eq!(rx.try_dequeue(), Ok(round * 2));
            assert_eq!(rx.try_dequeue(), Ok(round * 2 + 1));
        }
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let (tx, _rx) = channel::<u32>(100);
        assert_eq!(tx.capacity(), 128);
        let (tx, _rx) = channel::<u32>(1);
        assert_eq!(tx.capacity(), 2, "floor of 2 cells");
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_panics() {
        let _ = channel::<u32>(0);
    }

    #[test]
    fn full_rejected_cheaply_then_drains() {
        let (mut tx, mut rx) = channel::<u32>(4);
        for i in 0..4 {
            tx.try_enqueue(i).unwrap();
        }
        // The counter pre-check rejects in O(1): no scan, no gaps burned.
        assert!(tx.try_enqueue(4).is_err());
        assert_eq!(tx.stats().full_rejections, 1);
        assert_eq!(tx.stats().gaps_created, 0);
        let drained: Vec<u32> = std::iter::from_fn(|| rx.try_dequeue().ok()).collect();
        assert_eq!(drained, vec![0, 1, 2, 3]);
        // Queue fully reusable afterwards.
        tx.enqueue(42);
        assert_eq!(rx.dequeue(), Ok(42));
    }

    #[test]
    fn disconnect_detected() {
        let (mut tx, mut rx) = channel::<u32>(8);
        tx.enqueue(5);
        drop(tx);
        assert_eq!(rx.try_dequeue(), Ok(5));
        assert_eq!(rx.try_dequeue(), Err(TryDequeueError::Disconnected));
        assert_eq!(rx.dequeue(), Err(Disconnected));
        assert_eq!(
            rx.dequeue_timeout(Duration::from_millis(1)),
            Err(TryDequeueError::Disconnected)
        );
    }

    #[test]
    fn cross_thread_stream() {
        const ITEMS: u64 = 200_000;
        let (mut tx, mut rx) = channel::<u64>(1 << 10);
        let t = std::thread::spawn(move || {
            for i in 0..ITEMS {
                tx.enqueue(i);
            }
        });
        for i in 0..ITEMS {
            assert_eq!(rx.dequeue(), Ok(i));
        }
        t.join().unwrap();
        assert_eq!(rx.try_dequeue(), Err(TryDequeueError::Disconnected));
    }

    #[test]
    fn enqueue_many_single_release_pass() {
        let (mut tx, mut rx) = channel::<u64>(128);
        assert_eq!(tx.enqueue_many(0..100), 100);
        let s = tx.stats();
        assert_eq!(s.enqueued, 100);
        assert_eq!(s.batch_enqueues, 1);
        assert_eq!(s.batch_items, 100);
        // Queue started empty and was never near full: the shadow head
        // bound was never exhausted, so the shared head was never read.
        assert_eq!(s.head_refreshes, 0);
        for i in 0..100 {
            assert_eq!(rx.try_dequeue(), Ok(i));
        }
    }

    #[test]
    fn dequeue_batch_mirrors_head_once() {
        let (mut tx, mut rx) = channel::<u64>(64);
        tx.enqueue_many(0..40);
        let mut buf = Vec::new();
        assert_eq!(rx.dequeue_batch(&mut buf, 64), 40);
        assert_eq!(buf, (0..40).collect::<Vec<_>>());
        let s = rx.stats();
        assert_eq!(s.batch_dequeues, 1);
        assert_eq!(s.batch_items, 40);
        // The SPSC head is private: no RMW at any batch size.
        assert_eq!(s.head_rmws, 0);
        // Empty queue: a batch harvest finds nothing and changes nothing.
        buf.clear();
        assert_eq!(rx.dequeue_batch(&mut buf, 8), 0);
        assert!(buf.is_empty());
    }

    #[test]
    fn batched_stream_cross_thread() {
        const ITEMS: u64 = 200_000;
        let (mut tx, mut rx) = channel::<u64>(1 << 8);
        let t = std::thread::spawn(move || {
            let mut next = 0u64;
            while next < ITEMS {
                let hi = (next + 128).min(ITEMS);
                tx.enqueue_many(next..hi);
                next = hi;
            }
        });
        let mut buf = Vec::new();
        let mut expected = 0u64;
        while expected < ITEMS {
            if rx.dequeue_batch(&mut buf, 64) == 0 {
                std::hint::spin_loop();
                continue;
            }
            for v in buf.drain(..) {
                assert_eq!(v, expected);
                expected += 1;
            }
        }
        t.join().unwrap();
        assert_eq!(rx.try_dequeue(), Err(TryDequeueError::Disconnected));
    }

    #[test]
    fn all_layouts_stream_correctly() {
        fn run<C: CellSlot<u64> + 'static, M: IndexMap>() {
            let (mut tx, mut rx) = channel_with::<u64, C, M>(64);
            let t = std::thread::spawn(move || {
                for i in 0..20_000u64 {
                    tx.enqueue(i);
                }
            });
            for i in 0..20_000u64 {
                assert_eq!(rx.dequeue(), Ok(i));
            }
            t.join().unwrap();
        }
        run::<PaddedCell<u64>, LinearMap>();
        run::<PaddedCell<u64>, RotateMap>();
        run::<CompactCell<u64>, LinearMap>();
        run::<CompactCell<u64>, RotateMap>();
    }

    #[test]
    fn boxed_payloads_not_leaked() {
        // Box payloads exercise the non-trivial-drop path end to end.
        let (mut tx, mut rx) = channel::<Box<u64>>(16);
        for i in 0..8 {
            tx.enqueue(Box::new(i));
        }
        for i in 0..4 {
            assert_eq!(*rx.dequeue().unwrap(), i);
        }
        // Remaining 4 dropped with the queue.
    }
}
