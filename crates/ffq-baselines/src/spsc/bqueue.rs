//! B-Queue (Wang, Zhang, Tang, Hua — IJPP 2013, reference \[20\]).
//!
//! FastForward-style data-dependent slots plus *self-tuning batching with
//! backtracking*: instead of testing its own next slot, each side probes a
//! slot a whole batch ahead. Because slots are produced and consumed in
//! ring order, "slot `i + d - 1` is free" implies slots `i .. i+d` are all
//! free (and symmetrically for fullness), so a successful probe buys `d`
//! checks-free operations. On a failed probe the distance halves —
//! the backtracking that makes the batch size self-tuning and deadlock-free
//! without MCRingBuffer-style explicit flushes (§II: "avoids using
//! parameters that require system-specific tuning").
//!
//! Items are individually visible the instant they are written (FastForward
//! slots), so `flush` is a no-op — batching here saves *checks*, not
//! visibility.

use core::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use super::{SpscPair, SpscRx, SpscTx};

const EMPTY: u64 = 0;

/// Initial probe distance (self-tunes downward under pressure).
const MAX_BATCH: u64 = 64;

struct Shared {
    buffer: Box<[AtomicU64]>,
    mask: u64,
}

/// Marker type; construct through [`SpscPair::with_capacity`].
pub struct BQueue;

/// Producing endpoint: private index + granted batch budget.
pub struct BQueueTx {
    shared: Arc<Shared>,
    tail: u64,
    /// Slots verified free ahead of `tail` (inclusive of the next one).
    budget: u64,
}

/// Consuming endpoint: private index + granted batch budget.
pub struct BQueueRx {
    shared: Arc<Shared>,
    head: u64,
    budget: u64,
}

impl SpscPair for BQueue {
    type Tx = BQueueTx;
    type Rx = BQueueRx;

    fn with_capacity(capacity: usize) -> (BQueueTx, BQueueRx) {
        let cap = capacity.next_power_of_two().max(2);
        let shared = Arc::new(Shared {
            buffer: (0..cap).map(|_| AtomicU64::new(EMPTY)).collect(),
            mask: cap as u64 - 1,
        });
        (
            BQueueTx {
                shared: Arc::clone(&shared),
                tail: 0,
                budget: 0,
            },
            BQueueRx {
                shared,
                head: 0,
                budget: 0,
            },
        )
    }

    const NAME: &'static str = "bqueue";
}

impl BQueueTx {
    /// Backtracking probe: find the largest `d <= MAX_BATCH` (capped to the
    /// ring size) such that slot `tail + d - 1` is free.
    fn acquire_budget(&mut self) -> bool {
        let s = &*self.shared;
        let mut d = MAX_BATCH.min(s.mask + 1);
        while d > 0 {
            let probe = &s.buffer[((self.tail + d - 1) & s.mask) as usize];
            if probe.load(Ordering::Acquire) == EMPTY {
                self.budget = d;
                return true;
            }
            d /= 2;
        }
        false
    }
}

impl SpscTx for BQueueTx {
    fn try_enqueue(&mut self, value: u64) -> bool {
        debug_assert!(value < u64::MAX);
        if self.budget == 0 && !self.acquire_budget() {
            return false;
        }
        let slot = &self.shared.buffer[(self.tail & self.shared.mask) as usize];
        debug_assert_eq!(
            slot.load(Ordering::Relaxed),
            EMPTY,
            "probe guarantee violated"
        );
        slot.store(value + 1, Ordering::Release);
        self.tail = self.tail.wrapping_add(1);
        self.budget -= 1;
        true
    }
}

impl BQueueRx {
    fn acquire_budget(&mut self) -> bool {
        let s = &*self.shared;
        let mut d = MAX_BATCH.min(s.mask + 1);
        while d > 0 {
            let probe = &s.buffer[((self.head + d - 1) & s.mask) as usize];
            if probe.load(Ordering::Acquire) != EMPTY {
                self.budget = d;
                return true;
            }
            d /= 2;
        }
        false
    }
}

impl SpscRx for BQueueRx {
    fn try_dequeue(&mut self) -> Option<u64> {
        if self.budget == 0 && !self.acquire_budget() {
            return None;
        }
        let slot = &self.shared.buffer[(self.head & self.shared.mask) as usize];
        let v = slot.load(Ordering::Acquire);
        debug_assert_ne!(v, EMPTY, "probe guarantee violated");
        slot.store(EMPTY, Ordering::Release);
        self.head = self.head.wrapping_add(1);
        self.budget -= 1;
        Some(v - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_grants_full_batch_on_empty_ring() {
        let (mut tx, _rx) = BQueue::with_capacity(256);
        assert!(tx.try_enqueue(1));
        // One probe bought MAX_BATCH slots.
        assert_eq!(tx.budget, MAX_BATCH - 1);
    }

    #[test]
    fn backtracking_halves_until_fit() {
        let (mut tx, mut rx) = BQueue::with_capacity(16);
        // Fill 12 of 16; next producer probe at distance 16 and 8 fails
        // (those slots are occupied), succeeds at 4.
        for i in 0..12 {
            assert!(tx.try_enqueue(i));
        }
        tx.budget = 0; // force re-probe
        assert!(tx.try_enqueue(12));
        assert_eq!(tx.budget, 3, "expected a backtracked batch of 4");
        for i in 0..13 {
            assert_eq!(rx.try_dequeue(), Some(i));
        }
    }

    #[test]
    fn immediate_visibility_no_flush_needed() {
        let (mut tx, mut rx) = BQueue::with_capacity(64);
        assert!(tx.try_enqueue(5));
        assert_eq!(rx.try_dequeue(), Some(5), "item invisible without flush");
    }

    #[test]
    fn full_ring_rejects() {
        let (mut tx, mut rx) = BQueue::with_capacity(4);
        for i in 0..4 {
            assert!(tx.try_enqueue(i), "at {i}");
        }
        assert!(!tx.try_enqueue(4));
        assert_eq!(rx.try_dequeue(), Some(0));
        assert!(tx.try_enqueue(4));
    }
}
