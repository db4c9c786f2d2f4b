//! Comparator queues for the FFQ paper's evaluation.
//!
//! Figure 8 of the paper compares FFQ-m against five state-of-the-art
//! concurrent queues inside the benchmark framework of Yang &
//! Mellor-Crummey \[21\]; Figure 7 additionally uses a generic bounded MPMC
//! queue (Vyukov's, footnote 8) as the non-FFQ syscall queue. This crate
//! implements all of them behind one [`BenchQueue`] interface:
//!
//! | Module | Queue | Origin |
//! |--------|-------|--------|
//! | [`msqueue`] | Michael–Scott two-pointer linked queue | PODC '96 \[15\] |
//! | [`ccqueue`] | CC-Queue: combining-synchronized queue | PPoPP '12 \[5\] |
//! | [`lcrq`] | LCRQ: linked list of concurrent ring queues | PPoPP '13 \[17\] |
//! | [`wfqueue`] | Yang & Mellor-Crummey FAA-based queue | PPoPP '16 \[21\] |
//! | [`vyukov`] | Bounded MPMC ring (the paper's "MPMC queue") | 1024cores |
//! | [`htmqueue`] | Circular buffer inside transactions | paper §V-G |
//! | [`mutexqueue`] | `Mutex<VecDeque>` reference model | (testing) |
//! | [`ffqueue`] | FFQ adapters implementing [`BenchQueue`] | this repo |
//!
//! All baselines are *word queues* (they carry `u64` payloads): the paper's
//! benchmark enqueues 64-bit integers, and LCRQ/wfqueue are natively
//! word-based designs. The `ffq` crate itself is fully generic.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod ccqueue;
pub mod ffqueue;
pub mod htmqueue;
pub mod lcrq;
pub mod msqueue;
pub mod mutexqueue;
mod reclaim;
pub mod spsc;
pub mod traits;
pub mod vyukov;
pub mod wfqueue;

pub use traits::{BenchHandle, BenchQueue};

#[cfg(test)]
mod conformance {
    //! One battery of behavioural tests instantiated for every queue.

    use super::traits::{BenchHandle, BenchQueue};
    use std::collections::HashSet;
    use std::sync::Arc;

    fn fifo_single_thread<Q: BenchQueue>() {
        let q = Arc::new(Q::with_capacity(256));
        let mut h = q.register();
        for i in 0..100 {
            h.enqueue(i);
        }
        for i in 0..100 {
            assert_eq!(h.dequeue(), Some(i), "{}", Q::NAME);
        }
        assert_eq!(h.dequeue(), None, "{}", Q::NAME);
    }

    fn interleaved_wraparound<Q: BenchQueue>() {
        let q = Arc::new(Q::with_capacity(16));
        let mut h = q.register();
        for round in 0..200u64 {
            h.enqueue(round * 3);
            h.enqueue(round * 3 + 1);
            h.enqueue(round * 3 + 2);
            assert_eq!(h.dequeue(), Some(round * 3));
            assert_eq!(h.dequeue(), Some(round * 3 + 1));
            assert_eq!(h.dequeue(), Some(round * 3 + 2));
        }
        assert_eq!(h.dequeue(), None);
    }

    fn mpmc_no_loss_no_dup<Q: BenchQueue>() {
        const THREADS: usize = 4;
        const PER: u64 = 10_000;
        let q = Arc::new(Q::with_capacity(1 << 12));
        let handles: Vec<_> = (0..THREADS as u64)
            .map(|t| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut h = q.register();
                    let mut got = Vec::new();
                    // Enqueue/dequeue pairs, like the Figure 8 benchmark.
                    for i in 0..PER {
                        h.enqueue(t * PER + i);
                        loop {
                            if let Some(v) = h.dequeue() {
                                got.push(v);
                                break;
                            }
                            std::hint::spin_loop();
                        }
                    }
                    got
                })
            })
            .collect();
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        assert_eq!(all.len() as u64, THREADS as u64 * PER, "{}", Q::NAME);
        let set: HashSet<u64> = all.iter().copied().collect();
        assert_eq!(set.len(), all.len(), "{}: duplicates", Q::NAME);
        all.sort_unstable();
        assert_eq!(all[0], 0);
        assert_eq!(*all.last().unwrap(), THREADS as u64 * PER - 1);
    }

    fn per_producer_order<Q: BenchQueue>() {
        const PER: u64 = 20_000;
        let q = Arc::new(Q::with_capacity(1 << 12));
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut h = q.register();
                for i in 0..PER {
                    h.enqueue(i);
                }
            })
        };
        let mut h = q.register();
        let mut expected = 0;
        while expected < PER {
            if let Some(v) = h.dequeue() {
                assert_eq!(v, expected, "{}: out of order", Q::NAME);
                expected += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
    }

    macro_rules! conformance_suite {
        ($modname:ident, $q:ty) => {
            mod $modname {
                #[test]
                fn fifo_single_thread() {
                    super::fifo_single_thread::<$q>();
                }

                #[test]
                fn interleaved_wraparound() {
                    super::interleaved_wraparound::<$q>();
                }

                #[test]
                fn mpmc_no_loss_no_dup() {
                    super::mpmc_no_loss_no_dup::<$q>();
                }

                #[test]
                fn per_producer_order() {
                    super::per_producer_order::<$q>();
                }
            }
        };
    }

    conformance_suite!(msqueue_conformance, crate::msqueue::MsQueue);
    conformance_suite!(ccqueue_conformance, crate::ccqueue::CcQueue);
    conformance_suite!(lcrq_conformance, crate::lcrq::Lcrq);
    conformance_suite!(wfqueue_conformance, crate::wfqueue::WfQueue);
    conformance_suite!(vyukov_conformance, crate::vyukov::VyukovQueue);
    conformance_suite!(htmqueue_conformance, crate::htmqueue::HtmQueue);
    conformance_suite!(mutexqueue_conformance, crate::mutexqueue::MutexQueue);
    conformance_suite!(ffq_mpmc_conformance, crate::ffqueue::FfqMpmc);
    conformance_suite!(ffq_bytes_mpmc_conformance, crate::ffqueue::FfqBytesMpmc);
}
