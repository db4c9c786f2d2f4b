//! FastForward (Giacomoni et al., PPoPP 2008 — reference \[7\]).
//!
//! The insight: make the *slot itself* carry the full/empty information, so
//! producer and consumer never read each other's counter. Each side keeps a
//! purely local index; the producer writes into a slot it observes EMPTY,
//! the consumer takes from a slot it observes full. FFQ's `rank` field is a
//! descendant of this idea (the cell announces its own state), generalized
//! to multiple consumers.
//!
//! FastForward stores pointers and uses NULL as the EMPTY sentinel; this
//! word-queue port stores `value + 1` so 0 can be the sentinel (the
//! comparative benchmarks use small integers). The paper's *temporal
//! slipping* tuning (keeping the consumer a cache line behind) is
//! deliberately not implemented — §II: "slipping requires system-specific
//! tuning", which is FFQ's argument against it.

use core::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use super::{SpscPair, SpscRx, SpscTx};

const EMPTY: u64 = 0;

struct Shared {
    /// Slot = value + 1; EMPTY (0) = free.
    buffer: Box<[AtomicU64]>,
    mask: u64,
}

/// Marker type; construct through [`SpscPair::with_capacity`].
pub struct FastForward;

/// Producing endpoint with its private index.
pub struct FastForwardTx {
    shared: Arc<Shared>,
    tail: u64,
}

/// Consuming endpoint with its private index.
pub struct FastForwardRx {
    shared: Arc<Shared>,
    head: u64,
}

impl SpscPair for FastForward {
    type Tx = FastForwardTx;
    type Rx = FastForwardRx;

    fn with_capacity(capacity: usize) -> (FastForwardTx, FastForwardRx) {
        let cap = capacity.next_power_of_two().max(2);
        let shared = Arc::new(Shared {
            buffer: (0..cap).map(|_| AtomicU64::new(EMPTY)).collect(),
            mask: cap as u64 - 1,
        });
        (
            FastForwardTx {
                shared: Arc::clone(&shared),
                tail: 0,
            },
            FastForwardRx { shared, head: 0 },
        )
    }

    const NAME: &'static str = "fastforward";
}

impl SpscTx for FastForwardTx {
    fn try_enqueue(&mut self, value: u64) -> bool {
        debug_assert!(
            value < u64::MAX,
            "value must leave room for the +1 encoding"
        );
        let slot = &self.shared.buffer[(self.tail & self.shared.mask) as usize];
        // Full test is local to the slot: no shared counter read.
        if slot.load(Ordering::Acquire) != EMPTY {
            return false;
        }
        slot.store(value + 1, Ordering::Release);
        self.tail = self.tail.wrapping_add(1);
        true
    }
}

impl SpscRx for FastForwardRx {
    fn try_dequeue(&mut self) -> Option<u64> {
        let slot = &self.shared.buffer[(self.head & self.shared.mask) as usize];
        let v = slot.load(Ordering::Acquire);
        if v == EMPTY {
            return None;
        }
        slot.store(EMPTY, Ordering::Release);
        self.head = self.head.wrapping_add(1);
        Some(v - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_shared_counters_anywhere() {
        // Structural: the shared state is just the slot array.
        assert_eq!(
            core::mem::size_of::<Shared>(),
            core::mem::size_of::<Box<[AtomicU64]>>() + core::mem::size_of::<u64>()
        );
    }

    #[test]
    fn zero_value_roundtrips_despite_sentinel() {
        let (mut tx, mut rx) = FastForward::with_capacity(4);
        assert!(tx.try_enqueue(0));
        assert_eq!(rx.try_dequeue(), Some(0));
    }

    #[test]
    fn full_when_consumer_stalls() {
        let (mut tx, mut rx) = FastForward::with_capacity(4);
        for i in 0..4 {
            assert!(tx.try_enqueue(i));
        }
        assert!(!tx.try_enqueue(9));
        assert_eq!(rx.try_dequeue(), Some(0));
        assert!(tx.try_enqueue(9));
    }
}
