//! The SPSC queues of the paper's related-work section (§II).
//!
//! FFQ's design is positioned against a line of single-producer/
//! single-consumer ring buffers; this module implements each so the claims
//! of §II are reproducible as measurements (`related_work_spsc` binary):
//!
//! | Queue | Idea | Paper's remark |
//! |-------|------|----------------|
//! | [`lamport`] | head/tail counters, both shared | the 1983 baseline \[11\] |
//! | [`fastforward`] | data-dependent slots, no shared counters | needs system-specific slip tuning \[7\] |
//! | [`mcringbuffer`] | Lamport + batched control-variable updates | improves control-variable locality \[13\] |
//! | [`batchqueue`] | two buffer halves exchanged wholesale | fewer control variables \[19\] |
//! | [`bqueue`] | FastForward + self-tuning batch probe with backtracking | no tuning parameters \[20\] |
//!
//! All carry `u64` payloads like the comparative benchmarks. `ffq::spsc`
//! itself adapts to the same interface ([`ffqspsc`]) so the shootout
//! includes the paper's contribution.

pub mod batchqueue;
pub mod bqueue;
pub mod fastforward;
pub mod ffqspsc;
pub mod lamport;
pub mod mcringbuffer;

/// Constructor of a connected SPSC endpoint pair.
pub trait SpscPair {
    /// Producing endpoint.
    type Tx: SpscTx;
    /// Consuming endpoint.
    type Rx: SpscRx;

    /// Builds a queue with at least `capacity` usable slots (rounded up to
    /// a power of two where the algorithm needs it).
    fn with_capacity(capacity: usize) -> (Self::Tx, Self::Rx);

    /// Display name for reports.
    const NAME: &'static str;
}

/// The producing end of an SPSC queue.
pub trait SpscTx: Send + 'static {
    /// Attempts to enqueue; `false` means the queue was full.
    fn try_enqueue(&mut self, value: u64) -> bool;

    /// Blocking convenience: spins (with escalation) until accepted.
    fn enqueue(&mut self, value: u64) {
        let mut backoff = ffq_sync::Backoff::new();
        while !self.try_enqueue(value) {
            backoff.wait();
        }
    }

    /// Makes buffered items visible to the consumer.
    ///
    /// A no-op for unbatched designs. Batching queues (MCRingBuffer,
    /// BatchQueue) hold items back until a batch boundary — the very
    /// deadlock B-Queue's backtracking was invented to avoid (§II) — so a
    /// producer that will pause must flush.
    fn flush(&mut self) {}
}

/// The consuming end of an SPSC queue.
pub trait SpscRx: Send + 'static {
    /// Attempts to dequeue; `None` means the queue looked empty.
    fn try_dequeue(&mut self) -> Option<u64>;

    /// Blocking convenience: spins (with escalation) until an item arrives.
    fn dequeue(&mut self) -> u64 {
        let mut backoff = ffq_sync::Backoff::new();
        loop {
            if let Some(v) = self.try_dequeue() {
                return v;
            }
            backoff.wait();
        }
    }
}

#[cfg(test)]
mod conformance {
    use super::*;

    fn fifo_and_empty<Q: SpscPair>() {
        let (mut tx, mut rx) = Q::with_capacity(64);
        assert_eq!(rx.try_dequeue(), None, "{}", Q::NAME);
        for i in 0..50 {
            assert!(tx.try_enqueue(i), "{} refused at {i}", Q::NAME);
        }
        tx.flush();
        for i in 0..50 {
            assert_eq!(rx.try_dequeue(), Some(i), "{}", Q::NAME);
        }
        assert_eq!(rx.try_dequeue(), None, "{}", Q::NAME);
    }

    fn fills_up_and_recovers<Q: SpscPair>() {
        let (mut tx, mut rx) = Q::with_capacity(16);
        let mut accepted = 0u64;
        while tx.try_enqueue(accepted) {
            accepted += 1;
            assert!(accepted <= 64, "{} never reports full", Q::NAME);
        }
        // Batching designs may report full below nominal capacity, but a
        // 16-slot queue must hold at least 8 before refusing.
        assert!(accepted >= 8, "{} full after only {accepted}", Q::NAME);
        tx.flush();
        assert_eq!(rx.try_dequeue(), Some(0), "{}", Q::NAME);
        // Some space must eventually come back. Batched designs may need
        // more dequeues — including an empty one, which is where
        // MCRingBuffer's consumer publishes its progress — before the
        // producer observes it.
        let mut freed = false;
        let mut expected = 1;
        for _ in 0..accepted * 2 {
            if tx.try_enqueue(1000) {
                freed = true;
                break;
            }
            if let Some(v) = rx.try_dequeue() {
                assert_eq!(v, expected, "{}", Q::NAME);
                expected += 1;
            }
        }
        assert!(freed, "{} never recovered from full", Q::NAME);
    }

    fn wraparound_many_times<Q: SpscPair>() {
        let (mut tx, mut rx) = Q::with_capacity(8);
        for i in 0..10_000u64 {
            tx.enqueue(i);
            tx.flush();
            assert_eq!(rx.dequeue(), i, "{}", Q::NAME);
        }
    }

    fn cross_thread_stream<Q: SpscPair>()
    where
        Q::Tx: Send,
        Q::Rx: Send,
    {
        const N: u64 = 200_000;
        let (mut tx, mut rx) = Q::with_capacity(1 << 10);
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                tx.enqueue(i);
            }
        });
        for i in 0..N {
            assert_eq!(rx.dequeue(), i, "{} out of order", Q::NAME);
        }
        producer.join().unwrap();
        assert_eq!(rx.try_dequeue(), None);
    }

    macro_rules! spsc_conformance {
        ($name:ident, $q:ty) => {
            mod $name {
                #[test]
                fn fifo_and_empty() {
                    super::fifo_and_empty::<$q>();
                }

                #[test]
                fn fills_up_and_recovers() {
                    super::fills_up_and_recovers::<$q>();
                }

                #[test]
                fn wraparound_many_times() {
                    super::wraparound_many_times::<$q>();
                }

                #[test]
                fn cross_thread_stream() {
                    super::cross_thread_stream::<$q>();
                }
            }
        };
    }

    spsc_conformance!(lamport, crate::spsc::lamport::LamportQueue);
    spsc_conformance!(fastforward, crate::spsc::fastforward::FastForward);
    spsc_conformance!(mcringbuffer, crate::spsc::mcringbuffer::McRingBuffer);
    spsc_conformance!(batchqueue, crate::spsc::batchqueue::BatchQueue);
    spsc_conformance!(bqueue, crate::spsc::bqueue::BQueue);
    spsc_conformance!(ffqspsc, crate::spsc::ffqspsc::FfqSpsc);
}
