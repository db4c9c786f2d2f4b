//! wfqueue — Yang & Mellor-Crummey's fetch-and-add queue (PPoPP '16,
//! reference \[21\] of the paper; the paper compares against its "fast WF-10"
//! configuration).
//!
//! The design's core is an *infinite array* realized as a linked list of
//! fixed-size segments: enqueuers fetch-and-add a tail index and CAS their
//! value into the addressed cell; dequeuers fetch-and-add a head index and
//! harvest the addressed cell, poisoning it (`TOP`) if the matching enqueuer
//! has not arrived so that it moves on. Every operation makes progress with
//! one FAA — no CAS loop on a shared pointer — which is why the paper's
//! Figure 8 shows it scaling where msqueue/ccqueue collapse.
//!
//! Segment reclamation uses the era slots of `reclaim.rs`, with a
//! segment's `id` as its era. Like the original's per-thread segment
//! pointers, each handle walks forward from a segment it caches, never
//! from the list's front: the cache sits at the segment of
//! `min(head, tail)` as of the handle's last segment change, below every
//! index the handle can still claim, and the handle's slot holds its id.
//! The dequeuer that finishes a segment unlinks the segments below every
//! slot and both indices, and frees them once no slot can reach them.
//!
//! **Documented simplification** (DESIGN.md §4): the original layers a
//! helping mechanism (per-thread request records, peer scanning, phase
//! numbers) on top of this fast path to turn lock-freedom into bounded
//! wait-freedom. This implementation keeps the fast path exact and replaces
//! the slow path with unbounded retries: it is linearizable and lock-free,
//! and on the benchmark workloads the slow path is cold — Yang &
//! Mellor-Crummey report the fast path succeeding on the overwhelming
//! majority of operations, which is what the throughput comparison
//! exercises.

use core::ptr;
use core::sync::atomic::{AtomicBool, AtomicI64, AtomicPtr, Ordering};
use std::sync::Arc;

use ffq_sync::CachePadded;

use crate::reclaim::{Eras, Limbo};
use crate::traits::{BenchHandle, BenchQueue};

/// Cells per segment (the original also uses 2^10).
const SEG_SHIFT: u32 = 10;
const SEG_SIZE: usize = 1 << SEG_SHIFT;

/// Cell states: 0 = `BOTTOM` (never written), -1 = `TOP` (poisoned by a
/// dequeuer that gave up), otherwise value + 1.
const BOTTOM: i64 = 0;
const TOP: i64 = -1;

/// Spins a dequeuer grants a pending enqueuer before poisoning its cell.
const PATIENCE: u32 = 128;

struct Segment {
    /// This segment covers global indices `[id << SEG_SHIFT, (id+1) << SEG_SHIFT)`;
    /// the id is also its era.
    id: i64,
    cells: Box<[AtomicI64]>,
    next: AtomicPtr<Segment>,
}

impl Segment {
    fn boxed(id: i64) -> *mut Segment {
        Box::into_raw(Box::new(Self {
            id,
            cells: (0..SEG_SIZE).map(|_| AtomicI64::new(BOTTOM)).collect(),
            next: AtomicPtr::new(ptr::null_mut()),
        }))
    }
}

/// Walks forward from `seg` to segment `id`, appending missing segments.
///
/// # Safety
///
/// `seg` is protected by the caller's era slot and `(*seg).id <= id`.
unsafe fn walk(mut seg: *mut Segment, id: i64) -> *mut Segment {
    // SAFETY: per the contract; every successor has a larger id, so the
    // slot protects it too.
    unsafe {
        debug_assert!((*seg).id <= id, "segment {id} is behind the walk start");
        while (*seg).id < id {
            let mut next = (*seg).next.load(Ordering::Acquire);
            if next.is_null() {
                let new = Segment::boxed((*seg).id + 1);
                next = match (*seg).next.compare_exchange(
                    ptr::null_mut(),
                    new,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => new,
                    Err(current) => {
                        drop(Box::from_raw(new));
                        current
                    }
                };
            }
            seg = next;
        }
    }
    seg
}

/// The FAA-based queue over an infinite segmented array.
pub struct WfQueue {
    head_idx: CachePadded<AtomicI64>,
    tail_idx: CachePadded<AtomicI64>,
    /// Oldest linked segment: where new handles start walking, and what
    /// the collector unlinks from.
    first: CachePadded<AtomicPtr<Segment>>,
    /// One collector at a time: it reads `first` below every slot, so
    /// nobody else may free it meanwhile.
    collecting: AtomicBool,
    eras: Arc<Eras<Segment>>,
}

impl WfQueue {
    fn new() -> Self {
        Self {
            head_idx: CachePadded::new(AtomicI64::new(0)),
            tail_idx: CachePadded::new(AtomicI64::new(0)),
            first: CachePadded::new(AtomicPtr::new(Segment::boxed(0))),
            collecting: AtomicBool::new(false),
            eras: Eras::new(),
        }
    }

    /// Unlinks and retires the segments below both indices and every slot.
    fn collect(&self, limbo: &mut Limbo<Segment>) {
        if self.collecting.swap(true, Ordering::Acquire) {
            return; // someone else is collecting
        }
        let head = self.head_idx.load(Ordering::SeqCst);
        let tail = self.tail_idx.load(Ordering::SeqCst);
        let min_era = i64::try_from(self.eras.min_active()).unwrap_or(i64::MAX);
        let min_live = (head.min(tail) >> SEG_SHIFT).min(min_era);
        loop {
            let first = self.first.load(Ordering::SeqCst);
            // SAFETY: linked segments are only unlinked, hence retired,
            // by the collector, which we are.
            let (id, next) = unsafe { ((*first).id, (*first).next.load(Ordering::Acquire)) };
            if id >= min_live || next.is_null() {
                break;
            }
            self.first.store(next, Ordering::SeqCst);
            // SAFETY: just unlinked; it came from `Segment::boxed`.
            unsafe { limbo.retire(first, id as u64) };
        }
        self.collecting.store(false, Ordering::Release);
    }
}

impl Drop for WfQueue {
    fn drop(&mut self) {
        // Exclusive access: free the linked segments; unlinked ones belong
        // to the era lists.
        let mut seg = *self.first.get_mut();
        while !seg.is_null() {
            // SAFETY: every linked segment came from `Segment::boxed` and is
            // freed once, here.
            let boxed = unsafe { Box::from_raw(seg) };
            seg = boxed.next.load(Ordering::Relaxed);
        }
    }
}

impl BenchQueue for WfQueue {
    type Handle = WfHandle;

    fn with_capacity(_capacity: usize) -> Self {
        // Unbounded; segments are fixed-size.
        Self::new()
    }

    fn register(self: &Arc<Self>) -> WfHandle {
        let mut limbo = Limbo::new(&self.eras, 1);
        let seg = self.first.load(Ordering::SeqCst);
        // SAFETY: the fresh slot sits at era 0, protecting every segment.
        limbo.advance(unsafe { (*seg).id } as u64);
        WfHandle {
            queue: Arc::clone(self),
            cursor: Cursor { seg, limbo },
        }
    }

    const NAME: &'static str = "wfqueue";
}

/// Per-thread handle: the original's per-thread record minus the helping
/// fields.
pub struct WfHandle {
    queue: Arc<WfQueue>,
    cursor: Cursor,
}

/// A cached segment to walk from, and the era slot protecting it.
struct Cursor {
    /// Segment of `min(head, tail)` as of the last segment change; its id
    /// is the slot's era.
    seg: *mut Segment,
    limbo: Limbo<Segment>,
}

// SAFETY: `seg` is a shared, atomically accessed segment that the era
// slot keeps alive; the cursor is otherwise plain owned data.
unsafe impl Send for Cursor {}

impl Cursor {
    /// The cell for global `index`, which this handle claimed after its
    /// last segment change (so `index` is not below the cached segment).
    /// The borrow of `self` keeps the slot, hence the cell, in place.
    fn cell(&mut self, q: &WfQueue, index: i64) -> &AtomicI64 {
        // SAFETY: the slot protects the cached segment, which precedes
        // `index`'s segment.
        let seg = unsafe { walk(self.seg, index >> SEG_SHIFT) };
        if seg != self.seg {
            // Entered a newer segment: move the cache up to the lowest
            // index this handle can still touch, this claim or a later one.
            let low = index
                .min(q.head_idx.load(Ordering::SeqCst))
                .min(q.tail_idx.load(Ordering::SeqCst));
            // SAFETY: `low` is at least the index the cache was set from.
            self.seg = unsafe { walk(self.seg, low >> SEG_SHIFT) };
            // SAFETY: the cache is protected until the slot moves past it.
            self.limbo.advance(unsafe { (*self.seg).id } as u64);
        }
        // SAFETY: `seg` is at least the cache, so still protected.
        unsafe { &(*seg).cells[(index & (SEG_SIZE as i64 - 1)) as usize] }
    }
}

impl BenchHandle for WfHandle {
    fn enqueue(&mut self, value: u64) {
        debug_assert!((value as i64) < i64::MAX - 1, "value must fit 63 bits");
        loop {
            let t = self.queue.tail_idx.fetch_add(1, Ordering::SeqCst);
            // Unique writer for index t: only the dequeuer assigned t can
            // interfere, by poisoning.
            let won = self
                .cursor
                .cell(&self.queue, t)
                .compare_exchange(
                    BOTTOM,
                    value as i64 + 1,
                    Ordering::Release,
                    Ordering::Relaxed,
                )
                .is_ok();
            if won {
                return;
            }
            // Poisoned: the dequeuer for t declared the queue empty first.
        }
    }

    fn dequeue(&mut self) -> Option<u64> {
        loop {
            let h = self.queue.head_idx.fetch_add(1, Ordering::SeqCst);
            let cell = self.cursor.cell(&self.queue, h);
            let mut spins = 0;
            let done = loop {
                let v = cell.load(Ordering::Acquire);
                if v > 0 {
                    // Ours exclusively (unique h); consume it.
                    cell.store(TOP, Ordering::Relaxed);
                    break Some(Some((v - 1) as u64));
                }
                debug_assert_eq!(v, BOTTOM, "cell for h poisoned by someone else");
                let t = self.queue.tail_idx.load(Ordering::SeqCst);
                if t <= h {
                    // No enqueuer has claimed h: declare empty by poisoning,
                    // so a future enqueuer at h moves on.
                    if cell
                        .compare_exchange(BOTTOM, TOP, Ordering::AcqRel, Ordering::Relaxed)
                        .is_ok()
                    {
                        break Some(None);
                    }
                    // Lost to the enqueuer: the value is there now.
                    continue;
                }
                // An enqueuer owns index h and is on its way.
                spins += 1;
                if spins < PATIENCE {
                    core::hint::spin_loop();
                    continue;
                }
                // Too slow (maybe descheduled): poison and take the next
                // index; that enqueuer will retry elsewhere.
                if cell
                    .compare_exchange(BOTTOM, TOP, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
                {
                    break None;
                }
                // Filled in the meantime — loop re-reads and consumes.
            };
            if let Some(r) = done {
                if h & (SEG_SIZE as i64 - 1) == SEG_SIZE as i64 - 1 {
                    self.queue.collect(&mut self.cursor.limbo);
                }
                return r;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handle() -> WfHandle {
        Arc::new(WfQueue::new()).register()
    }

    #[test]
    fn empty_then_fifo() {
        let mut q = handle();
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
    fn crosses_segment_boundaries() {
        let mut q = handle();
        let n = 3 * SEG_SIZE as u64 + 17;
        for i in 0..n {
            q.enqueue(i);
        }
        for i in 0..n {
            assert_eq!(q.dequeue(), Some(i), "at {i}");
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn empty_dequeues_burn_indices_but_stay_correct() {
        let mut q = handle();
        for _ in 0..500 {
            assert_eq!(q.dequeue(), None);
        }
        // Enqueuers step over the poisoned range.
        for i in 0..10 {
            q.enqueue(i);
        }
        for i in 0..10 {
            assert_eq!(q.dequeue(), Some(i));
        }
    }

    #[test]
    fn segments_reclaimed_over_long_run() {
        let q = Arc::new(WfQueue::new());
        let mut h = q.register();
        for round in 0..20u64 {
            for i in 0..SEG_SIZE as u64 {
                h.enqueue(round * SEG_SIZE as u64 + i);
            }
            for i in 0..SEG_SIZE as u64 {
                assert_eq!(h.dequeue(), Some(round * SEG_SIZE as u64 + i));
            }
        }
        // SAFETY: `first` is linked and the handle's slot protects it.
        let first = unsafe { (*q.first.load(Ordering::SeqCst)).id };
        assert!(first >= 18, "reclamation stalled");
    }

    #[test]
    fn handle_registration_and_drop_updates_hazards() {
        let q = Arc::new(WfQueue::new());
        let h1 = q.register();
        let h2 = q.register();
        assert_eq!(q.eras.min_active(), 0, "both slots live");
        drop(h1);
        assert_eq!(q.eras.min_active(), 0, "one slot live");
        drop(h2);
        assert_eq!(q.eras.min_active(), ffq_sync::ERA_IDLE, "all released");
    }

    /// Drained segments are freed while producer and consumer stay
    /// registered: the producer's cache follows `min(head, tail)`.
    #[test]
    fn retired_segments_freed_while_handles_stay_registered() {
        let q = Arc::new(WfQueue::new());
        let (mut tx, mut rx) = (q.register(), q.register());
        for round in 0..20u64 {
            for i in 0..SEG_SIZE as u64 {
                tx.enqueue(round * SEG_SIZE as u64 + i);
            }
            for i in 0..SEG_SIZE as u64 {
                assert_eq!(rx.dequeue(), Some(round * SEG_SIZE as u64 + i));
            }
        }
        let (freed, pending) = (rx.cursor.limbo.freed(), rx.cursor.limbo.pending());
        assert!(freed >= 17, "freed {freed}, pending {pending}");
        assert!(pending <= 2, "pending {pending}");
    }
}
