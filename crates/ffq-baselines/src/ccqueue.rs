//! CC-Queue: a FIFO queue synchronized with the CC-Synch combining protocol
//! (Fatourou & Kallimanis, PPoPP '12 — reference \[5\] of the paper).
//!
//! Instead of every thread fighting over head/tail pointers, threads publish
//! *requests* into a combining list (a single `swap` on the list tail) and
//! spin locally; whichever thread finds itself at the head of the list
//! becomes the **combiner** and applies a batch of requests to a plain
//! sequential queue on everyone's behalf. One cache-line handoff per request
//! instead of a CAS storm — which is why the paper's Figure 8 shows ccqueue
//! winning single-threaded and degrading once the combiner's serial section
//! becomes the bottleneck.

use core::cell::UnsafeCell;
use core::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicU8, Ordering};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, PoisonError};

use ffq_sync::CachePadded;

use crate::traits::{BenchHandle, BenchQueue};

const OP_ENQ: u8 = 1;
const OP_DEQ: u8 = 2;

/// Max requests a combiner serves before handing the role off — bounds the
/// unfairness window (the paper's cited implementation uses a similar cap).
const COMBINE_LIMIT: usize = 1024;

/// A combining-list node. One per thread plus one list dummy; recycled
/// forever, freed when the queue drops.
struct CcNode {
    op: AtomicU8,
    arg: AtomicU64,
    /// Encoded result: 0 = `None`, otherwise value + 1.
    ret: AtomicU64,
    /// Spun on by the request owner; cleared by the combiner.
    wait: AtomicBool,
    /// Whether the combiner served the request (false on wake-up means
    /// "you are the combiner now").
    completed: AtomicBool,
    next: AtomicPtr<CcNode>,
}

impl CcNode {
    fn boxed() -> *mut CcNode {
        Box::into_raw(Box::new(CcNode {
            op: AtomicU8::new(0),
            arg: AtomicU64::new(0),
            ret: AtomicU64::new(0),
            wait: AtomicBool::new(false),
            completed: AtomicBool::new(false),
            next: AtomicPtr::new(core::ptr::null_mut()),
        }))
    }
}

/// The CC-Synch combined FIFO queue.
pub struct CcQueue {
    /// Tail of the combining list (always points at the current dummy).
    tail: CachePadded<AtomicPtr<CcNode>>,
    /// The sequential queue. Only the (unique) combiner touches it; the
    /// combiner role is transferred through the `wait` flag with
    /// release/acquire, which carries the happens-before chain.
    items: UnsafeCell<VecDeque<u64>>,
    /// Every node ever allocated, for cleanup on drop.
    nodes: Mutex<Vec<*mut CcNode>>,
}

// SAFETY: `items` is only accessed by the combiner (mutual exclusion by the
// combining protocol); nodes are shared via atomics.
unsafe impl Send for CcQueue {}
unsafe impl Sync for CcQueue {}

impl CcQueue {
    /// Runs one operation through the combining protocol.
    fn run_op(&self, spare: &mut *mut CcNode, op: u8, arg: u64) -> u64 {
        let next_node = *spare;
        // SAFETY: `next_node` is this thread's spare — no other thread holds
        // a reference to it (its previous owner finished waiting on it).
        unsafe {
            (*next_node)
                .next
                .store(core::ptr::null_mut(), Ordering::Relaxed);
            (*next_node).wait.store(true, Ordering::Relaxed);
            (*next_node).completed.store(false, Ordering::Relaxed);
        }
        // Publish our node as the new list dummy; the old dummy becomes our
        // request node.
        let cur = self.tail.swap(next_node, Ordering::AcqRel);
        // SAFETY: `cur` was the dummy; we own its request fields until the
        // combiner serves it.
        unsafe {
            (*cur).op.store(op, Ordering::Relaxed);
            (*cur).arg.store(arg, Ordering::Relaxed);
            // Release: the combiner's Acquire load of `next` must see op/arg.
            (*cur).next.store(next_node, Ordering::Release);
        }
        *spare = cur;

        // Spin locally until served or promoted to combiner.
        let mut backoff = ffq_sync::Backoff::new();
        // SAFETY: cur stays valid; nodes are only freed when the queue drops.
        while unsafe { (*cur).wait.load(Ordering::Acquire) } {
            backoff.wait();
        }
        if unsafe { (*cur).completed.load(Ordering::Acquire) } {
            return unsafe { (*cur).ret.load(Ordering::Acquire) };
        }

        // We are the combiner: serve a batch starting with our own request.
        // SAFETY: combiner exclusivity — only one thread at a time observes
        // wait == false && completed == false.
        let items = unsafe { &mut *self.items.get() };
        let mut tmp = cur;
        let mut served = 0;
        loop {
            let next = unsafe { (*tmp).next.load(Ordering::Acquire) };
            if next.is_null() || served >= COMBINE_LIMIT {
                break;
            }
            served += 1;
            unsafe {
                let node = &*tmp;
                match node.op.load(Ordering::Relaxed) {
                    OP_ENQ => {
                        items.push_back(node.arg.load(Ordering::Relaxed));
                        node.ret.store(0, Ordering::Relaxed);
                    }
                    OP_DEQ => {
                        let r = items.pop_front().map_or(0, |v| v + 1);
                        node.ret.store(r, Ordering::Relaxed);
                    }
                    other => unreachable!("combiner saw op {other}"),
                }
                node.completed.store(true, Ordering::Relaxed);
                // Release publishes ret/completed (and, transitively, the
                // sequential queue state to the next combiner).
                node.wait.store(false, Ordering::Release);
            }
            tmp = next;
        }
        // Hand the combiner role to the owner of `tmp` (completed stays
        // false). If the list is quiescent, tmp is the dummy and its future
        // owner will simply find wait == false when it enlists.
        unsafe { (*tmp).wait.store(false, Ordering::Release) };
        unsafe { (*cur).ret.load(Ordering::Relaxed) }
    }
}

impl Drop for CcQueue {
    fn drop(&mut self) {
        for &node in self
            .nodes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            // SAFETY: exclusive access at drop; every node came from
            // CcNode::boxed and is freed exactly once.
            drop(unsafe { Box::from_raw(node) });
        }
    }
}

impl BenchQueue for CcQueue {
    type Handle = CcHandle;

    fn with_capacity(capacity: usize) -> Self {
        let dummy = CcNode::boxed();
        // The initial dummy's owner-to-be must become combiner on arrival.
        // Its `wait` is false and `completed` false by construction, but it
        // is only examined after being *replaced* as dummy, so no special
        // casing is needed.
        Self {
            tail: CachePadded::new(AtomicPtr::new(dummy)),
            items: UnsafeCell::new(VecDeque::with_capacity(capacity)),
            nodes: Mutex::new(vec![dummy]),
        }
    }

    fn register(self: &Arc<Self>) -> CcHandle {
        let spare = CcNode::boxed();
        self.nodes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(spare);
        CcHandle {
            queue: Arc::clone(self),
            spare,
        }
    }

    const NAME: &'static str = "ccqueue";
}

/// Per-thread handle owning a recycled combining node.
pub struct CcHandle {
    queue: Arc<CcQueue>,
    spare: *mut CcNode,
}

// SAFETY: the spare node is exclusively this handle's between operations.
unsafe impl Send for CcHandle {}

impl BenchHandle for CcHandle {
    fn enqueue(&mut self, value: u64) {
        self.queue.run_op(&mut self.spare, OP_ENQ, value);
    }

    fn dequeue(&mut self) -> Option<u64> {
        let r = self.queue.run_op(&mut self.spare, OP_DEQ, 0);
        if r == 0 {
            None
        } else {
            Some(r - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_fifo() {
        let q = Arc::new(CcQueue::with_capacity(8));
        let mut h = q.register();
        assert_eq!(h.dequeue(), None);
        for i in 0..50 {
            h.enqueue(i);
        }
        for i in 0..50 {
            assert_eq!(h.dequeue(), Some(i));
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn combiner_serves_batches() {
        // Many threads hammering the queue forces combining; correctness is
        // checked by a strict produce/consume balance.
        use std::collections::HashSet;
        const THREADS: u64 = 8;
        const PER: u64 = 5_000;
        let q = Arc::new(CcQueue::with_capacity(1024));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut h = q.register();
                    let mut got = Vec::new();
                    for i in 0..PER {
                        h.enqueue(t * PER + i);
                        if let Some(v) = h.dequeue() {
                            got.push(v);
                        }
                    }
                    // Drain leftovers.
                    while let Some(v) = h.dequeue() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        let all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        assert_eq!(all.len() as u64, THREADS * PER);
        let set: HashSet<u64> = all.iter().copied().collect();
        assert_eq!(set.len(), all.len());
    }

    #[test]
    fn nodes_freed_on_drop() {
        let q = Arc::new(CcQueue::with_capacity(8));
        let mut handles: Vec<CcHandle> = (0..4).map(|_| q.register()).collect();
        for (i, h) in handles.iter_mut().enumerate() {
            h.enqueue(i as u64);
        }
        drop(handles);
        drop(q); // frees 1 dummy + 4 handle nodes; leak-checked under asan
    }
}
