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
//! The handles are the heap handles of [`crate::spmc`] over the
//! private-head engine of [`crate::raw`]: [`Producer`] *is*
//! [`crate::spmc::Producer`], and [`Consumer`] is [`crate::spmc::Consumer`]
//! over [`RawSpscConsumer`]. They allocate the queue on the heap, pin it
//! with an `Arc`, and disconnect on drop; the protocol itself lives in the
//! raw layer, where `ffq-shm` reuses it over shared memory.

use crate::cell::{CellSlot, PaddedCell};
use crate::layout::{IndexMap, LinearMap};
use crate::raw::RawSpscConsumer;
use crate::shared::Shared;

/// The producing side of an SPSC queue: the single-producer heap handle
/// every single-producer flavor shares.
pub use crate::spmc::Producer;

/// The unique consuming side of an SPSC queue: [`crate::spmc::Consumer`]
/// over the private-head engine.
///
/// Not `Clone`: its `head` counter is private, which is exactly what makes
/// this variant cheaper than SPMC. Clone requirements mean you want
/// [`crate::spmc`]. With no shared head RMW there is nothing for a
/// `claim_batch` to amortize, and nothing is ever pending.
pub type Consumer<T, C = PaddedCell<T>, M = LinearMap> =
    crate::spmc::Consumer<T, C, M, RawSpscConsumer<T, C, M>>;

/// Blocking consuming iterator; see [`crate::spmc::Consumer::into_iter`].
pub type IntoIter<T, C = PaddedCell<T>, M = LinearMap> =
    crate::spmc::IntoIter<T, C, M, RawSpscConsumer<T, C, M>>;

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
    crate::bytes::heap_sp(capacity, slot_bytes, crate::SpillMode::Chain)
}

/// Creates an SPSC queue with explicit cell layout and index mapping.
///
/// # Panics
/// If `capacity` is 0 or exceeds [`crate::layout::MAX_CAPACITY`].
pub fn channel_with<T: Send, C: CellSlot<T>, M: IndexMap>(
    capacity: usize,
) -> (Producer<T, C, M>, Consumer<T, C, M>) {
    let shared = Shared::heap(capacity, "spsc");
    // SAFETY: a fresh queue's one producer and its one (private-head)
    // consumer.
    unsafe { (Producer::new(&shared), Consumer::new(shared)) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CompactCell;
    use crate::error::{Disconnected, TryDequeueError};
    use crate::layout::RotateMap;
    use std::time::Duration;

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
    fn consumer_drop_is_counted() {
        let (tx, rx) = channel::<u32>(8);
        assert_eq!(tx.consumers(), 1);
        drop(rx);
        assert_eq!(tx.consumers(), 0);
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
