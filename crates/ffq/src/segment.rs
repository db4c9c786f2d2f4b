//! One link of the unbounded tier: a fixed-capacity FFQ ring plus the
//! fields that chain it into a lock-free segment list.
//!
//! A [`Segment`] is exactly the data a bounded queue owns — a
//! [`QueueState`] counter block and a cell array — with three additions
//! that make it a list node:
//!
//! * `next` — the forward link. Written once per lifetime (null → successor)
//!   by the roll that seals the segment, *before* the seal is made visible,
//!   so any handle that observes the seal also observes the link.
//! * `seq` — the segment's *era*, a value from the queue-wide monotone
//!   counter, stamped at (re)allocation. The epoch reclamation protocol
//!   ([`ffq_sync::epoch`]) compares eras, never pointers, so a recycled
//!   segment can never be confused with its previous life (no ABA).
//! * `sealed_tail` — `i64::MAX` while the segment accepts enqueues; the
//!   final tail value once sealed. Consumers prune claimed ranks at or past
//!   it (those can never be published here) and advance once the head
//!   catches up to it.
//!
//! The ring protocol itself is untouched: handles attach the ordinary
//! [`crate::raw`] engines to [`Segment::raw`]'s view. Segments are fixed to
//! the default layout ([`PaddedCell`] + [`LinearMap`]) — the unbounded tier
//! trades layout genericity for a small, recyclable allocation unit.

use core::ptr;

use ffq_sync::atomic::{AtomicI64, AtomicPtr, AtomicU64, Ordering};

use crate::cell::{CellSlot, PaddedCell, GAP_NONE, RANK_FREE};
use crate::layout::LinearMap;
use crate::raw::{QueueState, RawQueue};

/// The tail value of a segment that is still open to enqueues.
pub(crate) const SEG_OPEN: i64 = i64::MAX;

/// One fixed-capacity ring in the unbounded tier's segment list.
///
/// Heap-only and always handled through raw pointers once shared: the
/// control block ([`crate::unbounded`]) owns every allocation and frees a
/// segment only after the epoch protocol proves no handle can still touch
/// it.
pub(crate) struct Segment<T: Send> {
    state: QueueState,
    cells: Box<[PaddedCell<T>]>,
    /// Forward link; null while this is the newest segment.
    next: AtomicPtr<Segment<T>>,
    /// Era stamped at (re)allocation; strictly increasing across the queue.
    seq: AtomicU64,
    /// Final tail once sealed; [`SEG_OPEN`] while enqueues may still land.
    sealed_tail: AtomicI64,
}

impl<T: Send> Segment<T> {
    /// Allocates a fresh open segment of `1 << cap_log2` cells with era
    /// `seq`. Inner handle counts start at one producer and one consumer:
    /// the *outer* counts live in the unbounded control block, and the
    /// inner producer count doubles as the seal flag (0 = sealed).
    pub(crate) fn boxed(cap_log2: u32, seq: u64) -> Box<Self> {
        Box::new(Self {
            state: QueueState::in_process(cap_log2, 1, 1),
            cells: (0..1usize << cap_log2)
                .map(|_| CellSlot::<T>::empty())
                .collect(),
            next: AtomicPtr::new(ptr::null_mut()),
            seq: AtomicU64::new(seq),
            sealed_tail: AtomicI64::new(SEG_OPEN),
        })
    }

    /// A raw view over this segment's ring, for attaching the ordinary
    /// handle engines.
    ///
    /// Valid while the segment is alive and not moved — the control block
    /// guarantees both (segments live behind stable heap pointers until
    /// proven quiescent).
    pub(crate) fn raw(&self) -> RawQueue<T, PaddedCell<T>, LinearMap> {
        // SAFETY: state and cells are initialized and live inside this
        // heap allocation, which the epoch protocol keeps alive for as long
        // as any handle can reach the view.
        unsafe { RawQueue::from_raw(&self.state, self.cells.as_ptr()) }
    }

    /// The shared counter block.
    #[inline(always)]
    pub(crate) fn state(&self) -> &QueueState {
        &self.state
    }

    /// Capacity of the ring.
    #[inline(always)]
    pub(crate) fn capacity(&self) -> usize {
        self.cells.len()
    }

    /// The forward link.
    #[inline(always)]
    pub(crate) fn next(&self) -> &AtomicPtr<Segment<T>> {
        &self.next
    }

    /// This segment's era.
    #[inline(always)]
    pub(crate) fn seq(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// The seal boundary: `Some(final_tail)` once sealed, `None` while
    /// open. Acquire — a consumer acting on the boundary also sees every
    /// rank resolution the sealer ordered before it.
    #[inline]
    pub(crate) fn sealed_tail(&self) -> Option<i64> {
        match self.sealed_tail.load(Ordering::Acquire) {
            SEG_OPEN => None,
            t => Some(t),
        }
    }

    /// Publishes the seal boundary. Release: pairs with
    /// [`sealed_tail`](Self::sealed_tail)'s Acquire.
    #[inline]
    pub(crate) fn set_sealed_tail(&self, tail: i64) {
        debug_assert!(tail != SEG_OPEN);
        self.sealed_tail.store(tail, Ordering::Release);
    }

    /// Resets a quiescent segment for reuse under era `seq`: drops any
    /// payload a detached consumer forfeited, frees every cell, zeroes the
    /// counters, reopens the seal, clears the link.
    ///
    /// Caller must hold the only reference (the segment came off the
    /// freelist, where only provably unreachable segments go), so plain
    /// stores suffice — the Release that makes the reset visible is the
    /// link store that puts the segment back into the list.
    pub(crate) fn recycle(&self, seq: u64) {
        for cell in self.cells.iter() {
            let words = cell.words();
            if words.load_lo(Ordering::Relaxed) >= 0 {
                // SAFETY: rank >= 0 means a completed enqueue nobody
                // consumed; quiescence makes us the unique owner.
                unsafe { (*cell.data()).assume_init_drop() };
            }
            words.store_lo_unpaired(RANK_FREE, Ordering::Relaxed);
            words.store_hi_unpaired(GAP_NONE, Ordering::Relaxed);
        }
        self.state.head().store(0, Ordering::Relaxed);
        self.state.tail().store(0, Ordering::Relaxed);
        self.state.producers().store(1, Ordering::Relaxed);
        self.state.consumers().store(1, Ordering::Relaxed);
        self.sealed_tail.store(SEG_OPEN, Ordering::Relaxed);
        self.seq.store(seq, Ordering::Relaxed);
        self.next.store(ptr::null_mut(), Ordering::Relaxed);
        // The WaitCells need no reset: their sequence words are monotone
        // eventcounts, meaningful only relative to a waiter's snapshot.
    }
}

impl<T: Send> Drop for Segment<T> {
    fn drop(&mut self) {
        // Only the control block drops segments, and only once they are
        // unreachable; any cell still publishing a rank holds an item that
        // was enqueued but never dequeued.
        for cell in self.cells.iter() {
            if cell.words().load_lo(Ordering::Relaxed) >= 0 {
                // SAFETY: rank >= 0 means the producer completed its data
                // write and no consumer consumed it.
                unsafe { (*cell.data()).assume_init_drop() };
            }
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::raw::{ConsumerEngine, RawProducer, RawSpscConsumer};

    #[test]
    fn fresh_segment_is_open_and_unlinked() {
        let seg = Segment::<u64>::boxed(3, 7);
        assert_eq!(seg.capacity(), 8);
        assert_eq!(seg.seq(), 7);
        assert_eq!(seg.sealed_tail(), None);
        assert!(seg.next().load(Ordering::Relaxed).is_null());
    }

    #[test]
    fn recycle_resets_ring_and_drops_leftovers() {
        use std::sync::atomic::{AtomicUsize, Ordering as O};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, O::Relaxed);
            }
        }

        let seg = Segment::<D>::boxed(2, 0);
        {
            let mut tx = unsafe { RawProducer::attach(seg.raw()) };
            let mut rx = unsafe { RawSpscConsumer::attach(seg.raw()) };
            tx.enqueue(D);
            tx.enqueue(D);
            drop(rx.try_dequeue()); // one consumed (and dropped), one left
        }
        seg.set_sealed_tail(2);
        assert_eq!(seg.sealed_tail(), Some(2));

        assert_eq!(DROPS.load(O::Relaxed), 1);
        seg.recycle(9);
        assert_eq!(DROPS.load(O::Relaxed), 2, "leftover payload dropped");
        assert_eq!(seg.seq(), 9);
        assert_eq!(seg.sealed_tail(), None);
        assert_eq!(seg.state().tail().load(Ordering::Relaxed), 0);
        assert_eq!(seg.state().producers().load(Ordering::Relaxed), 1);

        // The recycled ring runs the protocol from scratch.
        let mut tx = unsafe { RawProducer::attach(seg.raw()) };
        let mut rx = unsafe { RawSpscConsumer::attach(seg.raw()) };
        tx.enqueue(D);
        drop(rx.try_dequeue());
        assert_eq!(DROPS.load(O::Relaxed), 3);
    }
}
