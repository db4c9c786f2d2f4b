//! BatchQueue (Preud'homme, Sopena, Thomas, Folliot — ICPADS 2012,
//! reference \[19\]).
//!
//! The buffer is split into two halves that producer and consumer exchange
//! wholesale: the producer fills one half while the consumer drains the
//! other, and a single flag word per half says whose turn it is. Producer
//! and consumer thus touch disjoint memory except for the two flags —
//! "BatchQueue avoids false sharing by isolating producer and consumer in
//! different parts of the queue" (§II).

use core::cell::UnsafeCell;
use core::mem::MaybeUninit;
use core::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use ffq_sync::CachePadded;

use super::{SpscPair, SpscRx, SpscTx};

struct Half {
    /// True when the half belongs to the consumer (filled, ready to drain).
    ready: CachePadded<AtomicBool>,
    /// Valid slots in the half (== half_len except for a shutdown flush).
    /// Written by the producer before the `ready` release-store.
    len: AtomicUsize,
    slots: Box<[UnsafeCell<MaybeUninit<u64>>]>,
}

struct Shared {
    halves: [Half; 2],
    half_len: usize,
}

// SAFETY: a half's slots are touched exclusively by the producer while
// `ready == false` and exclusively by the consumer while `ready == true`;
// the flag flips with release/acquire.
unsafe impl Send for Shared {}
unsafe impl Sync for Shared {}

/// Marker type; construct through [`SpscPair::with_capacity`].
pub struct BatchQueue;

/// Producing endpoint: fills the current half, hands it over when full.
pub struct BatchTx {
    shared: Arc<Shared>,
    half: usize,
    fill: usize,
}

/// Consuming endpoint: drains the current half, returns it when empty.
pub struct BatchRx {
    shared: Arc<Shared>,
    half: usize,
    drain: usize,
    available: usize,
}

impl SpscPair for BatchQueue {
    type Tx = BatchTx;
    type Rx = BatchRx;

    fn with_capacity(capacity: usize) -> (BatchTx, BatchRx) {
        let half_len = (capacity / 2).next_power_of_two().max(1);
        let mk_half = || Half {
            ready: CachePadded::new(AtomicBool::new(false)),
            len: AtomicUsize::new(0),
            slots: (0..half_len)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
        };
        let shared = Arc::new(Shared {
            halves: [mk_half(), mk_half()],
            half_len,
        });
        (
            BatchTx {
                shared: Arc::clone(&shared),
                half: 0,
                fill: 0,
            },
            BatchRx {
                shared,
                half: 0,
                drain: 0,
                available: 0,
            },
        )
    }

    const NAME: &'static str = "batchqueue";
}

impl BatchTx {
    fn hand_over_partial(&mut self) {
        if self.fill > 0 {
            let s = &*self.shared;
            let half = &s.halves[self.half];
            if !half.ready.load(Ordering::Acquire) {
                half.len.store(self.fill, Ordering::Relaxed);
                half.ready.store(true, Ordering::Release);
                self.half ^= 1;
                self.fill = 0;
            }
        }
    }
}

impl SpscTx for BatchTx {
    fn try_enqueue(&mut self, value: u64) -> bool {
        let s = &*self.shared;
        let half = &s.halves[self.half];
        // Our half still at the consumer? Then we are full.
        if half.ready.load(Ordering::Acquire) {
            return false;
        }
        // SAFETY: we own this half while ready == false.
        unsafe { (*half.slots[self.fill].get()).write(value) };
        self.fill += 1;
        if self.fill == s.half_len {
            // Hand the filled half over and move to the other one.
            half.len.store(s.half_len, Ordering::Relaxed);
            half.ready.store(true, Ordering::Release);
            self.half ^= 1;
            self.fill = 0;
        }
        true
    }

    fn flush(&mut self) {
        self.hand_over_partial();
    }
}

impl Drop for BatchTx {
    fn drop(&mut self) {
        // A partially filled half would be stranded by design in BatchQueue
        // (the original punts to a timeout-based flush); hand it over so
        // nothing is lost on producer shutdown.
        self.hand_over_partial();
    }
}

impl SpscRx for BatchRx {
    fn try_dequeue(&mut self) -> Option<u64> {
        let s = &*self.shared;
        if self.available == 0 {
            let half = &s.halves[self.half];
            if !half.ready.load(Ordering::Acquire) {
                return None;
            }
            // The acquire above ordered this len read after the publish.
            self.available = half.len.load(Ordering::Relaxed);
            self.drain = 0;
            if self.available == 0 {
                // Defensive: an empty handover (cannot happen today).
                half.ready.store(false, Ordering::Release);
                self.half ^= 1;
                return None;
            }
        }
        let half = &s.halves[self.half];
        // SAFETY: we own this half while ready == true.
        let value = unsafe { (*half.slots[self.drain].get()).assume_init_read() };
        self.drain += 1;
        self.available -= 1;
        if self.available == 0 {
            half.ready.store(false, Ordering::Release);
            self.half ^= 1;
        }
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn items_arrive_in_half_batches() {
        let (mut tx, mut rx) = BatchQueue::with_capacity(8); // halves of 4
        for i in 0..3 {
            assert!(tx.try_enqueue(i));
        }
        assert_eq!(rx.try_dequeue(), None, "partial half leaked");
        assert!(tx.try_enqueue(3)); // completes the half
        for i in 0..4 {
            assert_eq!(rx.try_dequeue(), Some(i));
        }
    }

    #[test]
    fn double_buffering_keeps_both_sides_busy() {
        let (mut tx, mut rx) = BatchQueue::with_capacity(4); // halves of 2
        assert!(tx.try_enqueue(0));
        assert!(tx.try_enqueue(1)); // half 0 handed over
        assert!(tx.try_enqueue(2));
        assert!(tx.try_enqueue(3)); // half 1 handed over
        assert!(!tx.try_enqueue(4), "both halves at the consumer");
        assert_eq!(rx.try_dequeue(), Some(0));
        assert_eq!(rx.try_dequeue(), Some(1)); // half 0 returned
        assert!(tx.try_enqueue(4));
        assert_eq!(rx.try_dequeue(), Some(2));
        assert_eq!(rx.try_dequeue(), Some(3));
        assert_eq!(rx.try_dequeue(), None, "half 1 only partially refilled");
    }
}
