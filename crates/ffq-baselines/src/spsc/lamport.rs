//! Lamport's classic single-producer/single-consumer ring buffer
//! ("Specifying concurrent program modules", TOPLAS 1983 — reference \[11\]).
//!
//! Both the head and tail counters are shared: the producer reads `head` on
//! every enqueue to test fullness and the consumer reads `tail` on every
//! dequeue to test emptiness. That is precisely the control-variable cache
//! traffic MCRingBuffer and successors attack — every counter update by one
//! side invalidates a line the other side polls.

use core::cell::UnsafeCell;
use core::mem::MaybeUninit;
use core::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ffq_sync::CachePadded;

use super::{SpscPair, SpscRx, SpscTx};

struct Shared {
    buffer: Box<[UnsafeCell<MaybeUninit<u64>>]>,
    mask: u64,
    head: CachePadded<AtomicU64>,
    tail: CachePadded<AtomicU64>,
}

// SAFETY: slot (tail mod N) is written only by the unique producer before
// the tail publish; slot (head mod N) is read only by the unique consumer
// before the head publish; the counters order those accesses.
unsafe impl Send for Shared {}
unsafe impl Sync for Shared {}

/// Marker type; construct through [`SpscPair::with_capacity`].
pub struct LamportQueue;

/// Producing endpoint.
pub struct LamportTx {
    shared: Arc<Shared>,
}

/// Consuming endpoint.
pub struct LamportRx {
    shared: Arc<Shared>,
}

impl SpscPair for LamportQueue {
    type Tx = LamportTx;
    type Rx = LamportRx;

    fn with_capacity(capacity: usize) -> (LamportTx, LamportRx) {
        let cap = capacity.next_power_of_two().max(2);
        let shared = Arc::new(Shared {
            buffer: (0..cap)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            mask: cap as u64 - 1,
            head: CachePadded::new(AtomicU64::new(0)),
            tail: CachePadded::new(AtomicU64::new(0)),
        });
        (
            LamportTx {
                shared: Arc::clone(&shared),
            },
            LamportRx { shared },
        )
    }

    const NAME: &'static str = "lamport";
}

impl SpscTx for LamportTx {
    fn try_enqueue(&mut self, value: u64) -> bool {
        let s = &*self.shared;
        let tail = s.tail.load(Ordering::Relaxed); // we are the only writer
                                                   // Full test reads the shared head — Lamport's costly step.
        if tail.wrapping_sub(s.head.load(Ordering::Acquire)) > s.mask {
            return false;
        }
        // SAFETY: the slot is outside the consumer's [head, tail) window.
        unsafe { (*s.buffer[(tail & s.mask) as usize].get()).write(value) };
        s.tail.store(tail.wrapping_add(1), Ordering::Release);
        true
    }
}

impl SpscRx for LamportRx {
    fn try_dequeue(&mut self) -> Option<u64> {
        let s = &*self.shared;
        let head = s.head.load(Ordering::Relaxed); // we are the only writer
        if head == s.tail.load(Ordering::Acquire) {
            return None;
        }
        // SAFETY: tail > head proves the producer published this slot.
        let value = unsafe { (*s.buffer[(head & s.mask) as usize].get()).assume_init_read() };
        s.head.store(head.wrapping_add(1), Ordering::Release);
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_is_fully_usable() {
        let (mut tx, mut rx) = LamportQueue::with_capacity(4);
        for i in 0..4 {
            assert!(tx.try_enqueue(i));
        }
        assert!(!tx.try_enqueue(4), "5th item must be refused");
        assert_eq!(rx.try_dequeue(), Some(0));
        assert!(tx.try_enqueue(4));
    }

    #[test]
    fn counters_wrap_u64_safely() {
        // Not literally wrapping u64 here, but the wrapping arithmetic path
        // is exercised by many laps.
        let (mut tx, mut rx) = LamportQueue::with_capacity(2);
        for i in 0..1_000u64 {
            assert!(tx.try_enqueue(i));
            assert_eq!(rx.try_dequeue(), Some(i));
        }
    }
}
