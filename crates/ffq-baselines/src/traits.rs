//! The common interface all comparator queues implement.
//!
//! Modeled on the benchmark framework of Yang & Mellor-Crummey \[21\] that the
//! paper plugs FFQ into: a queue is shared (`Arc`) among threads, and each
//! thread *registers* to obtain a private handle it performs operations
//! through. Handles exist because several queues need genuine per-thread
//! state — wfqueue's peer records, CC-Queue's combining nodes, FFQ's
//! producer/consumer endpoints — and because it keeps per-thread statistics
//! uncontended.

use std::sync::Arc;

/// A shared MPMC word queue that benchmark threads can register with.
pub trait BenchQueue: Send + Sync + Sized + 'static {
    /// The per-thread handle type.
    type Handle: BenchHandle;

    /// Creates a queue. `capacity` is a sizing hint: bounded queues round it
    /// up to a power of two; unbounded queues (msqueue, lcrq, wfqueue) use
    /// it for segment sizing or ignore it.
    fn with_capacity(capacity: usize) -> Self;

    /// Registers the calling thread, returning its operation handle.
    fn register(self: &Arc<Self>) -> Self::Handle;

    /// Display name used in benchmark reports (matches the paper's labels).
    const NAME: &'static str;
}

/// A per-thread endpoint of a [`BenchQueue`].
pub trait BenchHandle: Send + 'static {
    /// Enqueues `value`, blocking/spinning if the queue is momentarily full
    /// (bounded queues only; unbounded queues never block).
    fn enqueue(&mut self, value: u64);

    /// Dequeues a value, or returns `None` if the queue appears empty.
    fn dequeue(&mut self) -> Option<u64>;

    /// Enqueues a batch of values. The default loops [`enqueue`] per item;
    /// queues with amortized bulk paths (FFQ's `enqueue_many` rank runs)
    /// override it so batch benchmarks compare real batch submission against
    /// this per-item floor.
    ///
    /// [`enqueue`]: BenchHandle::enqueue
    fn enqueue_batch(&mut self, values: &[u64]) {
        for &v in values {
            self.enqueue(v);
        }
    }

    /// Dequeues up to `max` values into `buf`, returning how many were
    /// appended. May return 0 when the queue appears empty. The default
    /// loops [`dequeue`]; FFQ overrides it with `dequeue_batch`, which
    /// claims and harvests a rank run under a single head RMW.
    ///
    /// [`dequeue`]: BenchHandle::dequeue
    fn dequeue_batch(&mut self, buf: &mut Vec<u64>, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            match self.dequeue() {
                Some(v) => {
                    buf.push(v);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }
}
