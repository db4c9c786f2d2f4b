//! The HTM-based queue of the paper's comparative study (§V-G):
//! "based on a bounded circular buffer and simply executes the enqueue and
//! dequeue operations inside hardware transactions".
//!
//! Hardware TM is unavailable here, so the transactions run on the
//! [`ffq_htm`] software emulation (see that crate and DESIGN.md §4.2 for why
//! the substitution preserves the comparison's shape: conflicts between
//! concurrent operations are genuine and produce genuine aborts/retries).
//!
//! Region word layout: `[0] = head`, `[1] = tail`, `[2..2+cap] = slots`.

use std::sync::Arc;

use ffq_htm::TxRegion;
use ffq_sync::Backoff;

use crate::traits::{BenchHandle, BenchQueue};

const HEAD: usize = 0;
const TAIL: usize = 1;
const SLOTS: usize = 2;

/// Speculative attempts before falling back to the global lock — the usual
/// small constant from HTM retry templates.
const RETRIES: u32 = 8;

/// A bounded circular-buffer queue executed inside (emulated) transactions.
pub struct HtmQueue {
    region: TxRegion,
    capacity: u64,
}

impl HtmQueue {
    fn try_enqueue(&self, value: u64) -> bool {
        self.region.transaction(|tx| {
            let head = tx.read(HEAD)?;
            let tail = tx.read(TAIL)?;
            if tail - head >= self.capacity {
                return Ok(false);
            }
            tx.write(SLOTS + (tail % self.capacity) as usize, value)?;
            tx.write(TAIL, tail + 1)?;
            Ok(true)
        })
    }

    fn try_dequeue(&self) -> Option<u64> {
        self.region.transaction(|tx| {
            let head = tx.read(HEAD)?;
            let tail = tx.read(TAIL)?;
            if head == tail {
                return Ok(None);
            }
            let value = tx.read(SLOTS + (head % self.capacity) as usize)?;
            tx.write(HEAD, head + 1)?;
            Ok(Some(value))
        })
    }

    /// Snapshot of the transactional statistics (commits, aborts, fallbacks).
    pub fn region_stats(&self) -> &ffq_htm::HtmStats {
        self.region.stats()
    }
}

impl BenchQueue for HtmQueue {
    type Handle = HtmHandle;

    fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        Self {
            region: TxRegion::new(SLOTS + cap, RETRIES),
            capacity: cap as u64,
        }
    }

    fn register(self: &Arc<Self>) -> HtmHandle {
        HtmHandle {
            queue: Arc::clone(self),
        }
    }

    const NAME: &'static str = "htm";
}

/// Per-thread handle (stateless).
pub struct HtmHandle {
    queue: Arc<HtmQueue>,
}

impl BenchHandle for HtmHandle {
    fn enqueue(&mut self, value: u64) {
        let mut backoff = Backoff::new();
        // Each re-poll is a whole transaction: back off a step at a time.
        while !self.queue.try_enqueue(value) {
            backoff.wait_step();
        }
    }

    fn dequeue(&mut self) -> Option<u64> {
        self.queue.try_dequeue()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_and_empty() {
        let q = Arc::new(HtmQueue::with_capacity(8));
        assert_eq!(q.try_dequeue(), None);
        assert!(q.try_enqueue(10));
        assert!(q.try_enqueue(20));
        assert_eq!(q.try_dequeue(), Some(10));
        assert_eq!(q.try_dequeue(), Some(20));
        assert_eq!(q.try_dequeue(), None);
    }

    #[test]
    fn full_detection() {
        let q = Arc::new(HtmQueue::with_capacity(4));
        for i in 0..4 {
            assert!(q.try_enqueue(i));
        }
        assert!(!q.try_enqueue(4));
        assert_eq!(q.try_dequeue(), Some(0));
        assert!(q.try_enqueue(4));
    }

    #[test]
    fn contended_operations_record_aborts() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let q = Arc::new(HtmQueue::with_capacity(64));
        let stop = Arc::new(AtomicBool::new(false));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut h = q.register();
                    let mut n = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        h.enqueue(n);
                        let _ = h.dequeue();
                        n += 1;
                    }
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(100));
        stop.store(true, Ordering::Relaxed);
        for t in threads {
            t.join().unwrap();
        }
        let snap = q.region_stats().snapshot();
        assert!(snap.commits > 0);
    }
}
