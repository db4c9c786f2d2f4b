//! MCRingBuffer (Lee, Bu, Chandranmenon — IPDPS 2010, reference \[13\]).
//!
//! Lamport's ring with *batched control-variable updates*: each side works
//! against a cached copy of the other side's counter and only re-reads the
//! shared counter when the cached one proves insufficient; its own counter
//! is published only every `BATCH` operations. Control-line ping-pong drops
//! by the batch factor, at the cost of the consumer lagging up to a batch
//! behind (items are not visible until the producer publishes).

use core::cell::UnsafeCell;
use core::mem::MaybeUninit;
use core::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ffq_sync::CachePadded;

use super::{SpscPair, SpscRx, SpscTx};

/// Preferred operations between shared-counter publishes (the paper tunes
/// this to the cache line / workload; 32 is in its evaluated range).
const MAX_BATCH: u64 = 32;

struct Shared {
    buffer: Box<[UnsafeCell<MaybeUninit<u64>>]>,
    mask: u64,
    /// Effective batch: capped at a quarter of the ring so the consumer
    /// republishes its head often enough for the producer to ever see
    /// space (a batch larger than the ring livelocks the pair — the
    /// control-batching hazard §II credits B-Queue with eliminating).
    batch: u64,
    head: CachePadded<AtomicU64>,
    tail: CachePadded<AtomicU64>,
}

// SAFETY: as in Lamport — the published counter windows separate the two
// sides' slot accesses; batching only *delays* publication, it never lets
// the windows overlap.
unsafe impl Send for Shared {}
unsafe impl Sync for Shared {}

/// Marker type; construct through [`SpscPair::with_capacity`].
pub struct McRingBuffer;

/// Producing endpoint with batching state.
pub struct McTx {
    shared: Arc<Shared>,
    /// Private true tail (ahead of the published one by < BATCH).
    local_tail: u64,
    /// Last published tail.
    published_tail: u64,
    /// Cached copy of the consumer's head.
    cached_head: u64,
}

/// Consuming endpoint with batching state.
pub struct McRx {
    shared: Arc<Shared>,
    local_head: u64,
    published_head: u64,
    cached_tail: u64,
}

impl SpscPair for McRingBuffer {
    type Tx = McTx;
    type Rx = McRx;

    fn with_capacity(capacity: usize) -> (McTx, McRx) {
        let cap = capacity.next_power_of_two().max(2);
        let shared = Arc::new(Shared {
            buffer: (0..cap)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            mask: cap as u64 - 1,
            batch: (cap as u64 / 4).clamp(1, MAX_BATCH),
            head: CachePadded::new(AtomicU64::new(0)),
            tail: CachePadded::new(AtomicU64::new(0)),
        });
        (
            McTx {
                shared: Arc::clone(&shared),
                local_tail: 0,
                published_tail: 0,
                cached_head: 0,
            },
            McRx {
                shared,
                local_head: 0,
                published_head: 0,
                cached_tail: 0,
            },
        )
    }

    const NAME: &'static str = "mcringbuffer";
}

impl McTx {
    fn publish(&mut self) {
        if self.published_tail != self.local_tail {
            self.shared.tail.store(self.local_tail, Ordering::Release);
            self.published_tail = self.local_tail;
        }
    }
}

impl SpscTx for McTx {
    fn try_enqueue(&mut self, value: u64) -> bool {
        let s = &*self.shared;
        // Fullness against the cached head first; refresh only on demand.
        if self.local_tail.wrapping_sub(self.cached_head) > s.mask {
            self.cached_head = s.head.load(Ordering::Acquire);
            if self.local_tail.wrapping_sub(self.cached_head) > s.mask {
                // Genuinely full: flush our pending items so the consumer
                // can actually drain them (otherwise both sides deadlock on
                // invisible work).
                self.publish();
                return false;
            }
        }
        // SAFETY: slot outside the consumer's published window.
        unsafe {
            (*s.buffer[(self.local_tail & s.mask) as usize].get()).write(value);
        }
        self.local_tail = self.local_tail.wrapping_add(1);
        if self.local_tail.wrapping_sub(self.published_tail) >= s.batch {
            self.publish();
        }
        true
    }

    fn flush(&mut self) {
        self.publish();
    }
}

impl Drop for McTx {
    fn drop(&mut self) {
        // Unpublished items must not be stranded.
        self.publish();
    }
}

impl SpscRx for McRx {
    fn try_dequeue(&mut self) -> Option<u64> {
        let s = &*self.shared;
        if self.local_head == self.cached_tail {
            self.cached_tail = s.tail.load(Ordering::Acquire);
            if self.local_head == self.cached_tail {
                // Publish our progress so the producer unblocks even when
                // we found nothing (mirror of the producer-side flush).
                if self.published_head != self.local_head {
                    s.head.store(self.local_head, Ordering::Release);
                    self.published_head = self.local_head;
                }
                return None;
            }
        }
        // SAFETY: published tail proves the slot was written.
        let value =
            unsafe { (*s.buffer[(self.local_head & s.mask) as usize].get()).assume_init_read() };
        self.local_head = self.local_head.wrapping_add(1);
        if self.local_head.wrapping_sub(self.published_head) >= s.batch {
            s.head.store(self.local_head, Ordering::Release);
            self.published_head = self.local_head;
        }
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn items_invisible_until_batch_or_flush() {
        let (mut tx, mut rx) = McRingBuffer::with_capacity(128); // batch 32
                                                                 // Fewer than a batch: consumer sees nothing yet...
        for i in 0..(MAX_BATCH - 1) {
            assert!(tx.try_enqueue(i));
        }
        assert_eq!(rx.try_dequeue(), None, "pre-batch items leaked");
        // ...the batch-completing item publishes everything.
        assert!(tx.try_enqueue(MAX_BATCH - 1));
        for i in 0..MAX_BATCH {
            assert_eq!(rx.try_dequeue(), Some(i));
        }
    }

    #[test]
    fn tiny_ring_lockstep_does_not_livelock() {
        // Regression: with batch > capacity the producer could starve
        // waiting for a head publish that never came.
        let (mut tx, mut rx) = McRingBuffer::with_capacity(8);
        for i in 0..1_000u64 {
            tx.enqueue(i);
            tx.flush();
            assert_eq!(rx.dequeue(), i);
        }
    }

    #[test]
    fn full_flushes_pending_work() {
        let (mut tx, mut rx) = McRingBuffer::with_capacity(8);
        let mut accepted = 0;
        while tx.try_enqueue(accepted) {
            accepted += 1;
        }
        assert_eq!(accepted, 8);
        // The full-path flush made them visible despite BATCH > capacity.
        for i in 0..8 {
            assert_eq!(rx.try_dequeue(), Some(i));
        }
    }

    #[test]
    fn producer_drop_flushes() {
        let (mut tx, mut rx) = McRingBuffer::with_capacity(128);
        tx.try_enqueue(7);
        drop(tx);
        assert_eq!(rx.try_dequeue(), Some(7));
    }
}
