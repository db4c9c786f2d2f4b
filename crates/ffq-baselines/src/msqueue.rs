//! The Michael–Scott non-blocking queue (PODC '96), reference \[15\] of the
//! paper.
//!
//! A linked list with a dummy head node; `head` and `tail` are manipulated
//! with compare-and-swap loops. The paper's evaluation names it the worst
//! performer under contention precisely because every operation competes on
//! those two pointers with CASes "inside a loop that can repeat many times".
//!
//! Memory reclamation uses the era slots of `reclaim.rs`, the scheme
//! FFQ's unbounded tier uses: a node's era is its position in the list,
//! and a dequeued dummy is freed once every handle has moved past it. Scans
//! run once per 64 retired nodes, so the per-dequeue cost stays a vector
//! push.

use core::ptr;
use core::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;

use ffq_sync::CachePadded;

use crate::reclaim::{Eras, Limbo};
use crate::traits::{BenchHandle, BenchQueue};

struct Node {
    /// Unused in the dummy node.
    value: u64,
    /// Position in the list: the predecessor's era plus one.
    era: u64,
    next: AtomicPtr<Node>,
}

impl Node {
    fn boxed(value: u64) -> *mut Node {
        Box::into_raw(Box::new(Node {
            value,
            era: 0,
            next: AtomicPtr::new(ptr::null_mut()),
        }))
    }
}

/// The Michael–Scott two-pointer queue.
pub struct MsQueue {
    head: CachePadded<AtomicPtr<Node>>,
    tail: CachePadded<AtomicPtr<Node>>,
    eras: Arc<Eras<Node>>,
}

impl MsQueue {
    fn new() -> Self {
        let dummy = Node::boxed(0);
        Self {
            head: CachePadded::new(AtomicPtr::new(dummy)),
            tail: CachePadded::new(AtomicPtr::new(dummy)),
            eras: Eras::new(),
        }
    }

    /// Era of the current dummy: what a handle stays protected from.
    fn head_era(&self) -> u64 {
        // SAFETY: `head` is never null, and the caller's slot is at most
        // the era of any node `head` can hold (heads only move forward).
        unsafe { (*self.head.load(Ordering::SeqCst)).era }
    }

    fn enqueue(&self, limbo: &mut Limbo<Node>, value: u64) {
        let new = Node::boxed(value);
        loop {
            let tail = self.tail.load(Ordering::SeqCst);
            // SAFETY: tail never lags head, so its era is at least our
            // slot's and it cannot have been freed.
            let tail_ref = unsafe { &*tail };
            let next = tail_ref.next.load(Ordering::Acquire);
            if !next.is_null() {
                // Tail lagging: help swing it forward, then retry.
                let _ = self
                    .tail
                    .compare_exchange(tail, next, Ordering::SeqCst, Ordering::Relaxed);
                continue;
            }
            // SAFETY: `new` is still private to this call.
            unsafe { (*new).era = tail_ref.era + 1 };
            if tail_ref
                .next
                .compare_exchange(ptr::null_mut(), new, Ordering::Release, Ordering::Relaxed)
                .is_ok()
            {
                // Linearized; swing tail (failure is fine — someone helped).
                let _ = self
                    .tail
                    .compare_exchange(tail, new, Ordering::SeqCst, Ordering::Relaxed);
                break;
            }
        }
        limbo.advance(self.head_era());
    }

    fn dequeue(&self, limbo: &mut Limbo<Node>) -> Option<u64> {
        loop {
            let head = self.head.load(Ordering::SeqCst);
            // SAFETY: our slot is at most the era of any head we load.
            let head_ref = unsafe { &*head };
            let next = head_ref.next.load(Ordering::Acquire);
            if next.is_null() {
                // Empty queue: the dummy has no successor.
                limbo.advance(head_ref.era);
                return None;
            }
            // SAFETY: the successor's era exceeds the head's.
            let next_ref = unsafe { &*next };
            // Keep tail from pointing at the node we are about to unlink.
            let tail = self.tail.load(Ordering::SeqCst);
            if head == tail {
                let _ = self
                    .tail
                    .compare_exchange(tail, next, Ordering::SeqCst, Ordering::Relaxed);
            }
            let value = next_ref.value;
            if self
                .head
                .compare_exchange(head, next, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                limbo.advance(next_ref.era);
                // SAFETY: unlinked by our CAS; it came from `Node::boxed`.
                unsafe { limbo.retire(head, head_ref.era) };
                return Some(value);
            }
        }
    }
}

impl Drop for MsQueue {
    fn drop(&mut self) {
        // Exclusive access: walk and free the remaining chain (dummy + any
        // unconsumed nodes). Retired nodes belong to the era lists.
        let mut node = *self.head.get_mut();
        while !node.is_null() {
            // SAFETY: every linked node came from `Node::boxed` and is
            // freed once, here.
            let boxed = unsafe { Box::from_raw(node) };
            node = boxed.next.load(Ordering::Relaxed);
        }
    }
}

impl BenchQueue for MsQueue {
    type Handle = MsHandle;

    fn with_capacity(_capacity: usize) -> Self {
        // Unbounded: the hint is irrelevant.
        Self::new()
    }

    fn register(self: &Arc<Self>) -> MsHandle {
        MsHandle {
            limbo: Limbo::new(&self.eras, 64),
            queue: Arc::clone(self),
        }
    }

    const NAME: &'static str = "msqueue";
}

/// Per-thread handle: an era slot and the nodes it has unlinked.
pub struct MsHandle {
    queue: Arc<MsQueue>,
    limbo: Limbo<Node>,
}

impl BenchHandle for MsHandle {
    fn enqueue(&mut self, value: u64) {
        self.queue.enqueue(&mut self.limbo, value);
    }

    fn dequeue(&mut self) -> Option<u64> {
        self.queue.dequeue(&mut self.limbo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handle() -> MsHandle {
        Arc::new(MsQueue::new()).register()
    }

    #[test]
    fn empty_then_fifo() {
        let mut q = handle();
        assert_eq!(q.dequeue(), None);
        q.enqueue(1);
        q.enqueue(2);
        q.enqueue(3);
        assert_eq!(q.dequeue(), Some(1));
        assert_eq!(q.dequeue(), Some(2));
        assert_eq!(q.dequeue(), Some(3));
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn unconsumed_nodes_freed_on_drop() {
        // Leak detection is delegated to the allocator under miri/asan; here
        // we just exercise the drop path with pending nodes.
        let mut q = handle();
        for i in 0..100 {
            q.enqueue(i);
        }
        drop(q);
    }

    #[test]
    fn alternating_many_wraps() {
        let mut q = handle();
        for i in 0..50_000u64 {
            q.enqueue(i);
            assert_eq!(q.dequeue(), Some(i));
        }
    }

    /// Dequeued dummies are freed while both handles stay registered: the
    /// producer's slot follows the head too, so nothing waits for a drop.
    #[test]
    fn retired_nodes_freed_while_handles_stay_registered() {
        let q = Arc::new(MsQueue::new());
        let (mut tx, mut rx) = (q.register(), q.register());
        for i in 0..10_000u64 {
            tx.enqueue(i);
            assert_eq!(rx.dequeue(), Some(i));
        }
        assert!(
            rx.limbo.freed() >= 10_000 - 128,
            "freed {}",
            rx.limbo.freed()
        );
        assert!(rx.limbo.pending() <= 128, "pending {}", rx.limbo.pending());
    }
}
