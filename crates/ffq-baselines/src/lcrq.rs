//! LCRQ — Morrison & Afek's linked concurrent ring queue (PPoPP '13,
//! reference \[17\] of the paper).
//!
//! A CRQ is a bounded ring whose head and tail advance by fetch-and-add;
//! each cell packs `(value, ⟨safe, idx⟩)` into a 128-byte... *bit* pair that
//! is updated with a double-word CAS (the same `cmpxchg16b` primitive FFQ-m
//! needs — the paper notes "lcrq and FFQ-m use a double-word
//! compare-and-set, which is only available on a few high-end CPUs"). When a
//! CRQ fills or livelocks it is *closed* and a fresh CRQ is appended,
//! Michael–Scott style, making the full queue unbounded.
//!
//! Cell encoding on top of [`ffq_sync::DoubleWord`]:
//! `lo` = value + 1 (0 = empty), `hi` = cell index with bit 62 as the
//! *unsafe* flag. The CRQ tail uses bit 62 as its *closed* flag.
//!
//! Drained rings are reclaimed with the era slots of `reclaim.rs`: a
//! ring's era is its position in the list.

use core::ptr;
use core::sync::atomic::{AtomicI64, AtomicPtr, Ordering};
use std::sync::Arc;

use ffq_sync::{CachePadded, DoubleWord};

use crate::reclaim::{Eras, Limbo};
use crate::traits::{BenchHandle, BenchQueue};

/// Cell value sentinel: empty.
const EMPTY: i64 = 0;
/// `hi` bit 62: the cell is unsafe (a dequeuer overtook a slow enqueuer).
const UNSAFE_BIT: i64 = 1 << 62;
/// Tail bit 62: the CRQ is closed to further enqueues.
const CLOSED_BIT: i64 = 1 << 62;
/// Failed enqueue iterations on one CRQ before closing it (anti-livelock).
const STARVATION_LIMIT: u32 = 16;

#[inline]
fn cell_idx(hi: i64) -> i64 {
    hi & !UNSAFE_BIT
}

#[inline]
fn cell_is_safe(hi: i64) -> bool {
    hi & UNSAFE_BIT == 0
}

/// One bounded ring (a CRQ).
struct Crq {
    head: CachePadded<AtomicI64>,
    tail: CachePadded<AtomicI64>,
    ring: Box<[DoubleWord]>,
    mask: i64,
    /// Position in the list: the predecessor's era plus one.
    era: u64,
    next: AtomicPtr<Crq>,
}

enum CrqEnq {
    Ok,
    Closed,
}

impl Crq {
    fn new(size: usize) -> Self {
        debug_assert!(size.is_power_of_two());
        Self {
            head: CachePadded::new(AtomicI64::new(0)),
            tail: CachePadded::new(AtomicI64::new(0)),
            // Cell i starts safe, idx = i, empty.
            ring: (0..size as i64)
                .map(|i| DoubleWord::new(EMPTY, i))
                .collect(),
            mask: size as i64 - 1,
            era: 0,
            next: AtomicPtr::new(ptr::null_mut()),
        }
    }

    /// A CRQ born with one element already in slot 0 (used when appending a
    /// ring for an enqueue that closed its predecessor).
    fn with_first(size: usize, value: u64) -> Self {
        let crq = Self::new(size);
        crq.ring[0].store_lo(value as i64 + 1, Ordering::Relaxed);
        // Slot 0 now publishes idx 0 occupied; tail starts past it.
        crq.tail.store(1, Ordering::Relaxed);
        crq
    }

    fn size(&self) -> i64 {
        self.mask + 1
    }

    fn close(&self) {
        self.tail.fetch_or(CLOSED_BIT, Ordering::SeqCst);
    }

    fn enqueue(&self, value: u64) -> CrqEnq {
        debug_assert!((value as i64) < i64::MAX - 1, "value must fit 63 bits");
        let mut attempts = 0;
        loop {
            let t_raw = self.tail.fetch_add(1, Ordering::SeqCst);
            if t_raw & CLOSED_BIT != 0 {
                return CrqEnq::Closed;
            }
            let t = t_raw;
            let cell = &self.ring[(t & self.mask) as usize];
            let hi = cell.load_hi(Ordering::Acquire);
            let lo = cell.load_lo(Ordering::Acquire);
            let idx = cell_idx(hi);
            if lo == EMPTY
                && idx <= t
                && (cell_is_safe(hi) || self.head.load(Ordering::SeqCst) <= t)
            {
                // Deposit: value, ⟨safe, t⟩. The pair CAS fails if a
                // dequeuer advanced the cell meanwhile.
                if cell
                    .compare_exchange((EMPTY, hi), (value as i64 + 1, t))
                    .is_ok()
                {
                    return CrqEnq::Ok;
                }
            }
            attempts += 1;
            // Close when full (tail a full lap ahead of head) or starving.
            if t - self.head.load(Ordering::SeqCst) >= self.size() || attempts >= STARVATION_LIMIT {
                self.close();
                return CrqEnq::Closed;
            }
        }
    }

    fn dequeue(&self) -> Option<u64> {
        loop {
            let h = self.head.fetch_add(1, Ordering::SeqCst);
            let cell = &self.ring[(h & self.mask) as usize];
            loop {
                let hi = cell.load_hi(Ordering::Acquire);
                let lo = cell.load_lo(Ordering::Acquire);
                let idx = cell_idx(hi);
                let unsafe_bit = hi & UNSAFE_BIT;
                if idx > h {
                    // Cell already re-purposed for a later lap.
                    break;
                }
                if lo != EMPTY {
                    if idx == h {
                        // Our element: consume and advance the cell a lap.
                        if cell
                            .compare_exchange((lo, hi), (EMPTY, (h + self.size()) | unsafe_bit))
                            .is_ok()
                        {
                            return Some((lo - 1) as u64);
                        }
                    } else {
                        // An element deposited for an *older* index that its
                        // dequeuer has not reached — mark the cell unsafe so
                        // enqueuers keep out until the mismatch resolves.
                        if cell
                            .compare_exchange((lo, hi), (lo, idx | UNSAFE_BIT))
                            .is_ok()
                        {
                            break;
                        }
                    }
                } else {
                    // Empty: advance the cell so a slow enqueuer for index
                    // <= h cannot deposit into the past.
                    if cell
                        .compare_exchange((EMPTY, hi), (EMPTY, (h + self.size()) | unsafe_bit))
                        .is_ok()
                    {
                        break;
                    }
                }
            }
            // Empty check: no outstanding elements at or below our index?
            let t = self.tail.load(Ordering::SeqCst) & !CLOSED_BIT;
            if t <= h + 1 {
                self.fix_state();
                return None;
            }
        }
    }

    /// After dequeuers overshoot (head > tail), pull tail up so later
    /// enqueues do not land on already-skipped indices.
    fn fix_state(&self) {
        loop {
            let t_raw = self.tail.load(Ordering::SeqCst);
            let h = self.head.load(Ordering::SeqCst);
            if (t_raw & !CLOSED_BIT) >= h {
                return;
            }
            if self
                .tail
                .compare_exchange(
                    t_raw,
                    h | (t_raw & CLOSED_BIT),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_ok()
            {
                return;
            }
        }
    }
}

/// The unbounded linked list of CRQs.
pub struct Lcrq {
    head: CachePadded<AtomicPtr<Crq>>,
    tail: CachePadded<AtomicPtr<Crq>>,
    ring_size: usize,
    eras: Arc<Eras<Crq>>,
}

impl Lcrq {
    fn new(ring_size: usize) -> Self {
        let first = Box::into_raw(Box::new(Crq::new(ring_size)));
        Self {
            head: CachePadded::new(AtomicPtr::new(first)),
            tail: CachePadded::new(AtomicPtr::new(first)),
            ring_size,
            eras: Eras::new(),
        }
    }

    /// Era of the head ring: what a handle stays protected from.
    fn head_era(&self) -> u64 {
        // SAFETY: `head` is never null, and the caller's slot is at most
        // the era of any ring `head` can hold.
        unsafe { (*self.head.load(Ordering::SeqCst)).era }
    }

    fn enqueue(&self, limbo: &mut Limbo<Crq>, value: u64) {
        loop {
            let crq_ptr = self.tail.load(Ordering::SeqCst);
            // SAFETY: the tail never lags the head ring (dequeue swings it
            // before unlinking), so our slot protects it.
            let crq = unsafe { &*crq_ptr };
            let next = crq.next.load(Ordering::SeqCst);
            if !next.is_null() {
                // Help swing the tail to the real last ring.
                let _ =
                    self.tail
                        .compare_exchange(crq_ptr, next, Ordering::SeqCst, Ordering::Relaxed);
                continue;
            }
            if let CrqEnq::Closed = crq.enqueue(value) {
                // Append a fresh ring carrying our element.
                let mut new = Box::new(Crq::with_first(self.ring_size, value));
                new.era = crq.era + 1;
                let new = Box::into_raw(new);
                if crq
                    .next
                    .compare_exchange(ptr::null_mut(), new, Ordering::SeqCst, Ordering::Relaxed)
                    .is_err()
                {
                    // Someone else appended; retry there.
                    // SAFETY: never published.
                    drop(unsafe { Box::from_raw(new) });
                    continue;
                }
                let _ =
                    self.tail
                        .compare_exchange(crq_ptr, new, Ordering::SeqCst, Ordering::Relaxed);
            }
            limbo.advance(self.head_era());
            return;
        }
    }

    fn dequeue(&self, limbo: &mut Limbo<Crq>) -> Option<u64> {
        loop {
            let crq_ptr = self.head.load(Ordering::SeqCst);
            // SAFETY: our slot is at most the era of any head ring we load.
            let crq = unsafe { &*crq_ptr };
            if let Some(v) = crq.dequeue() {
                limbo.advance(crq.era);
                return Some(v);
            }
            // This ring looked empty. If it has no successor the whole queue
            // is empty; otherwise the ring is closed (successors are only
            // appended after closing) — drain once more, then unlink it.
            let next = crq.next.load(Ordering::SeqCst);
            if next.is_null() {
                limbo.advance(crq.era);
                return None;
            }
            if let Some(v) = crq.dequeue() {
                limbo.advance(crq.era);
                return Some(v);
            }
            // Keep the tail off the ring we are about to unlink.
            if self.tail.load(Ordering::SeqCst) == crq_ptr {
                let _ =
                    self.tail
                        .compare_exchange(crq_ptr, next, Ordering::SeqCst, Ordering::Relaxed);
            }
            if self
                .head
                .compare_exchange(crq_ptr, next, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                // SAFETY: `next` follows the ring our slot protects.
                limbo.advance(unsafe { (*next).era });
                // SAFETY: unlinked by our CAS; it came from `Box::into_raw`.
                unsafe { limbo.retire(crq_ptr, crq.era) };
            }
        }
    }
}

impl Drop for Lcrq {
    fn drop(&mut self) {
        // Exclusive access: free the linked rings; retired ones belong to
        // the era lists.
        let mut node = *self.head.get_mut();
        while !node.is_null() {
            // SAFETY: every linked ring came from `Box::into_raw` and is
            // freed once, here.
            let boxed = unsafe { Box::from_raw(node) };
            node = boxed.next.load(Ordering::Relaxed);
        }
    }
}

impl BenchQueue for Lcrq {
    type Handle = LcrqHandle;

    fn with_capacity(capacity: usize) -> Self {
        // The hint sizes the rings; the queue itself is unbounded.
        let ring = capacity.next_power_of_two().clamp(64, 1 << 16);
        Self::new(ring)
    }

    fn register(self: &Arc<Self>) -> LcrqHandle {
        LcrqHandle {
            limbo: Limbo::new(&self.eras, 1),
            queue: Arc::clone(self),
        }
    }

    const NAME: &'static str = "lcrq";
}

/// Per-thread handle: an era slot and the rings it has unlinked.
pub struct LcrqHandle {
    queue: Arc<Lcrq>,
    limbo: Limbo<Crq>,
}

impl BenchHandle for LcrqHandle {
    fn enqueue(&mut self, value: u64) {
        // Unbounded queue: never blocks.
        self.queue.enqueue(&mut self.limbo, value);
    }

    fn dequeue(&mut self) -> Option<u64> {
        self.queue.dequeue(&mut self.limbo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handle(ring_size: usize) -> LcrqHandle {
        Arc::new(Lcrq::new(ring_size)).register()
    }

    #[test]
    fn empty_then_fifo() {
        let mut q = handle(64);
        assert_eq!(q.dequeue(), None);
        for i in 0..100 {
            q.enqueue(i);
        }
        for i in 0..100 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn overflow_appends_new_ring() {
        let mut q = handle(64);
        // Far more items than one ring holds.
        for i in 0..1000 {
            q.enqueue(i);
        }
        for i in 0..1000 {
            assert_eq!(q.dequeue(), Some(i), "at {i}");
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn interleaved_over_ring_boundary() {
        let mut q = handle(64);
        let mut next_in = 0u64;
        let mut next_out = 0u64;
        for round in 0..500 {
            for _ in 0..(round % 7) + 1 {
                q.enqueue(next_in);
                next_in += 1;
            }
            for _ in 0..(round % 5) + 1 {
                if let Some(v) = q.dequeue() {
                    assert_eq!(v, next_out);
                    next_out += 1;
                }
            }
        }
        while let Some(v) = q.dequeue() {
            assert_eq!(v, next_out);
            next_out += 1;
        }
        assert_eq!(next_in, next_out);
    }

    #[test]
    fn dequeue_overshoot_recovers() {
        let mut q = handle(64);
        // Lots of empty dequeues push head ahead; fix_state must keep
        // subsequent enqueues reachable.
        for _ in 0..200 {
            assert_eq!(q.dequeue(), None);
        }
        q.enqueue(7);
        assert_eq!(q.dequeue(), Some(7));
    }

    /// Drained rings are freed while both handles stay registered.
    #[test]
    fn retired_rings_freed_while_handles_stay_registered() {
        let q = Arc::new(Lcrq::new(64));
        let (mut tx, mut rx) = (q.register(), q.register());
        for round in 0..100u64 {
            // A ring and a half per round: every round closes a ring.
            for i in 0..96 {
                tx.enqueue(round * 96 + i);
            }
            for i in 0..96 {
                assert_eq!(rx.dequeue(), Some(round * 96 + i));
            }
        }
        let (freed, pending) = (rx.limbo.freed(), rx.limbo.pending());
        assert!(freed >= 90, "freed {freed}, pending {pending}");
        assert!(pending <= 2, "pending {pending}");
    }
}
