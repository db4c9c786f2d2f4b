//! The paper's SPMC microbenchmark (§V-A).
//!
//! "The benchmark spawns a predefined number of producer and consumer
//! threads. The consumers are statically assigned to producers ... Producer
//! threads have a state that consists of a SPMC submission queue and an
//! array with SPSC response queues for each of the consumers assigned to the
//! producer. Producer threads insert a number of 64-bit integers into the
//! submission queue and loop through the response queues for dequeuing
//! values. Consumers repeatedly retrieve a value from the submission queue
//! and enqueue a 64-bit integer into the associated response queue."
//!
//! One *operation* here is a full round trip (submission + response), the
//! unit Figures 2/3/6 count. Flow control mirrors the paper's application:
//! each producer keeps a bounded number of requests outstanding, so the
//! queues can never fill up (§I, observation 2).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ffq::cell::CellSlot;
use ffq::layout::IndexMap;
use ffq_affinity::{pin_to_cpu, Placement, Topology};

use crate::measure::Measurement;

/// Producer/consumer topology of one run.
#[derive(Debug, Clone, Copy)]
pub struct Topo {
    /// Independent producers, each with its own queues.
    pub producers: usize,
    /// Consumers statically assigned to each producer.
    pub consumers_per: usize,
    /// Capacity of every queue (power of two).
    pub queue_size: usize,
}

impl Topo {
    fn inflight_budget(&self) -> usize {
        // Enough to keep all consumers busy, far from the queue bound.
        (self.consumers_per * 4).min(self.queue_size / 2).max(1)
    }
}

/// Runs the microbenchmark with the **MPMC** variant of FFQ for all queues
/// (the Figure 2 configuration: "All experiments were conducted with the
/// MPMC variant of FFQ"), monomorphized over cell layout and index mapping.
pub fn mpmc_roundtrips<C, M>(topo: Topo, duration: Duration, label: &str) -> Measurement
where
    C: CellSlot<u64> + 'static,
    M: IndexMap,
{
    let stop = Arc::new(AtomicBool::new(false));
    let completed = Arc::new(AtomicU64::new(0));
    let mut threads = Vec::new();

    for p in 0..topo.producers {
        let (sub_tx, sub_rx) = ffq::mpmc::channel_with::<u64, C, M>(topo.queue_size);
        let mut resp_consumers = Vec::new();
        for c in 0..topo.consumers_per {
            let (resp_tx, resp_rx) = ffq::mpmc::channel_with::<u64, C, M>(topo.queue_size);
            resp_consumers.push(resp_rx);
            let mut sub_rx = sub_rx.clone();
            let stop = Arc::clone(&stop);
            let mut resp_tx = resp_tx;
            threads.push(std::thread::spawn(move || {
                let _ = (p, c);
                let mut backoff = ffq_sync::Backoff::new();
                while !stop.load(Ordering::Relaxed) {
                    if let Ok(v) = sub_rx.try_dequeue() {
                        resp_tx.enqueue(v.wrapping_add(1));
                        backoff.reset();
                    } else {
                        // Spin first, yield once spinning stops paying off —
                        // essential on oversubscribed hosts where the
                        // producer needs our timeslice to make work.
                        backoff.wait();
                    }
                }
            }));
        }
        drop(sub_rx);

        let stop = Arc::clone(&stop);
        let completed = Arc::clone(&completed);
        let budget = topo.inflight_budget();
        let mut sub_tx = sub_tx;
        threads.push(std::thread::spawn(move || {
            let mut outstanding = 0usize;
            let mut seq = 0u64;
            let mut done = 0u64;
            let mut backoff = ffq_sync::Backoff::new();
            while !stop.load(Ordering::Relaxed) {
                while outstanding < budget {
                    sub_tx.enqueue(seq);
                    seq += 1;
                    outstanding += 1;
                }
                let before = done;
                for rx in resp_consumers.iter_mut() {
                    while let Ok(_v) = rx.try_dequeue() {
                        outstanding -= 1;
                        done += 1;
                    }
                }
                if done == before {
                    backoff.wait();
                } else {
                    backoff.reset();
                }
            }
            completed.fetch_add(done, Ordering::Relaxed);
        }));
    }

    let start = Instant::now();
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    let elapsed = start.elapsed();
    for t in threads {
        t.join().unwrap();
    }
    Measurement::new(label, completed.load(Ordering::Relaxed), elapsed)
}

/// Runs the microbenchmark in the paper's native shape — **SPMC** submission
/// queue + **SPSC** response queues — optionally pinning each pair per a
/// placement policy (the Figure 6 configuration).
pub fn spmc_roundtrips(
    topo: Topo,
    duration: Duration,
    placement: Option<(Placement, &Topology)>,
    label: &str,
) -> Measurement {
    let stop = Arc::new(AtomicBool::new(false));
    let completed = Arc::new(AtomicU64::new(0));
    let mut threads = Vec::new();

    for p in 0..topo.producers {
        let assignment = placement.and_then(|(pol, topo_ref)| pol.assign(topo_ref, p));
        let (sub_tx, sub_rx) = ffq::spmc::channel::<u64>(topo.queue_size);
        let mut resp_consumers = Vec::new();
        for _c in 0..topo.consumers_per {
            let (resp_tx, resp_rx) = ffq::spsc::channel::<u64>(topo.queue_size);
            resp_consumers.push(resp_rx);
            let mut sub_rx = sub_rx.clone();
            let stop = Arc::clone(&stop);
            let mut resp_tx = resp_tx;
            let consumer_cpu = assignment.map(|a| a.consumer_cpu);
            threads.push(std::thread::spawn(move || {
                if let Some(cpu) = consumer_cpu {
                    let _ = pin_to_cpu(cpu);
                }
                let mut backoff = ffq_sync::Backoff::new();
                while !stop.load(Ordering::Relaxed) {
                    if let Ok(v) = sub_rx.try_dequeue() {
                        resp_tx.enqueue(v.wrapping_add(1));
                        backoff.reset();
                    } else {
                        backoff.wait();
                    }
                }
            }));
        }
        drop(sub_rx);

        let stop = Arc::clone(&stop);
        let completed = Arc::clone(&completed);
        let budget = topo.inflight_budget();
        let producer_cpu = assignment.map(|a| a.producer_cpu);
        let mut sub_tx = sub_tx;
        threads.push(std::thread::spawn(move || {
            if let Some(cpu) = producer_cpu {
                let _ = pin_to_cpu(cpu);
            }
            let mut outstanding = 0usize;
            let mut seq = 0u64;
            let mut done = 0u64;
            let mut backoff = ffq_sync::Backoff::new();
            while !stop.load(Ordering::Relaxed) {
                while outstanding < budget {
                    sub_tx.enqueue(seq);
                    seq += 1;
                    outstanding += 1;
                }
                let before = done;
                for rx in resp_consumers.iter_mut() {
                    while let Ok(_v) = rx.try_dequeue() {
                        outstanding -= 1;
                        done += 1;
                    }
                }
                if done == before {
                    backoff.wait();
                } else {
                    backoff.reset();
                }
            }
            completed.fetch_add(done, Ordering::Relaxed);
        }));
    }

    let start = Instant::now();
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    let elapsed = start.elapsed();
    for t in threads {
        t.join().unwrap();
    }
    Measurement::new(label, completed.load(Ordering::Relaxed), elapsed)
}

/// Single-producer/single-consumer streaming (the Figure 3 configuration):
/// SPSC submission + SPSC response, one round trip per operation.
pub fn spsc_roundtrips(queue_size: usize, duration: Duration, label: &str) -> Measurement {
    let topo = Topo {
        producers: 1,
        consumers_per: 1,
        queue_size,
    };
    let stop = Arc::new(AtomicBool::new(false));
    let completed = Arc::new(AtomicU64::new(0));

    let (mut sub_tx, mut sub_rx) = ffq::spsc::channel::<u64>(queue_size);
    let (mut resp_tx, mut resp_rx) = ffq::spsc::channel::<u64>(queue_size);

    let consumer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut backoff = ffq_sync::Backoff::new();
            while !stop.load(Ordering::Relaxed) {
                if let Ok(v) = sub_rx.try_dequeue() {
                    resp_tx.enqueue(v.wrapping_add(1));
                    backoff.reset();
                } else {
                    backoff.wait();
                }
            }
        })
    };

    let producer = {
        let stop = Arc::clone(&stop);
        let completed = Arc::clone(&completed);
        let budget = topo.inflight_budget().max(16).min(queue_size / 2).max(1);
        std::thread::spawn(move || {
            let mut outstanding = 0usize;
            let mut seq = 0u64;
            let mut done = 0u64;
            let mut backoff = ffq_sync::Backoff::new();
            while !stop.load(Ordering::Relaxed) {
                while outstanding < budget {
                    sub_tx.enqueue(seq);
                    seq += 1;
                    outstanding += 1;
                }
                let before = done;
                while let Ok(_v) = resp_rx.try_dequeue() {
                    outstanding -= 1;
                    done += 1;
                }
                if done == before {
                    backoff.wait();
                } else {
                    backoff.reset();
                }
            }
            completed.fetch_add(done, Ordering::Relaxed);
        })
    };

    let start = Instant::now();
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    let elapsed = start.elapsed();
    producer.join().unwrap();
    consumer.join().unwrap();
    Measurement::new(label, completed.load(Ordering::Relaxed), elapsed)
}

/// How the consumers of [`spmc_batch_drain`] harvest the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainMode {
    /// The per-item path: `try_iter` capped at the queue size, which
    /// claims one head rank per item (and none on an empty queue) — the
    /// baseline the batch API amortizes against.
    PerItem,
    /// `dequeue_batch` with this harvest bound: one head fetch-and-add
    /// claims a whole run of ranks.
    Batch(usize),
}

impl DrainMode {
    /// Short label fragment ("per-item" or "batch=N").
    pub fn label(&self) -> String {
        match self {
            DrainMode::PerItem => "per-item".into(),
            DrainMode::Batch(k) => format!("batch={k}"),
        }
    }
}

/// Aggregated consumer-side cost counters of one [`spmc_batch_drain`] run,
/// the quantities the batch API is meant to shrink.
#[derive(Debug, Clone, Copy, Default)]
pub struct DrainCost {
    /// Items dequeued across all consumers.
    pub items: u64,
    /// Head fetch-and-adds issued across all consumers.
    pub head_rmws: u64,
    /// Head ranks claimed across all consumers.
    pub ranks_claimed: u64,
}

impl DrainCost {
    /// Average ranks claimed per head RMW (`None` before any RMW).
    pub fn ranks_per_rmw(&self) -> Option<f64> {
        (self.head_rmws > 0).then(|| self.ranks_claimed as f64 / self.head_rmws as f64)
    }
}

/// One-way SPMC drain throughput: a single producer bulk-publishes runs
/// with `enqueue_many` while `consumers` threads race to drain, each in the
/// given [`DrainMode`]. Unlike the round-trip benchmarks above there are no
/// response queues — this isolates the consumer-side claim cost that
/// batching amortizes (one claim RMW per run instead of per item).
pub fn spmc_batch_drain(
    queue_size: usize,
    consumers: usize,
    mode: DrainMode,
    duration: Duration,
    label: &str,
) -> (Measurement, DrainCost) {
    let stop = Arc::new(AtomicBool::new(false));
    let (mut sub_tx, sub_rx) = ffq::spmc::channel::<u64>(queue_size);

    let workers: Vec<_> = (0..consumers)
        .map(|_| {
            let mut rx = sub_rx.clone();
            std::thread::spawn(move || {
                let mut buf = Vec::with_capacity(queue_size);
                let mut items = 0u64;
                let mut backoff = ffq_sync::Backoff::new();
                // Runs until the producer disconnects (not on the stop flag):
                // the producer may block in `enqueue_many` on a full queue, so
                // someone must keep draining until it has exited.
                loop {
                    buf.clear();
                    let n = match mode {
                        DrainMode::PerItem => {
                            buf.extend(rx.try_iter().take(queue_size));
                            buf.len()
                        }
                        DrainMode::Batch(k) => rx.dequeue_batch(&mut buf, k),
                    };
                    if n > 0 {
                        items += n as u64;
                        backoff.reset();
                        continue;
                    }
                    match rx.try_dequeue() {
                        Ok(_) => {
                            items += 1;
                            backoff.reset();
                        }
                        Err(ffq::TryDequeueError::Disconnected) => break,
                        Err(ffq::TryDequeueError::Empty) => backoff.wait(),
                    }
                }
                let stats = rx.stats();
                DrainCost {
                    items,
                    head_rmws: stats.head_rmws,
                    ranks_claimed: stats.ranks_claimed,
                }
            })
        })
        .collect();
    drop(sub_rx);

    let producer = {
        let stop = Arc::clone(&stop);
        let chunk = (queue_size / 2).max(1) as u64;
        std::thread::spawn(move || {
            let mut seq = 0u64;
            while !stop.load(Ordering::Relaxed) {
                sub_tx.enqueue_many(seq..seq + chunk);
                seq += chunk;
            }
        })
    };

    let start = Instant::now();
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    let elapsed = start.elapsed();
    producer.join().unwrap();
    let mut cost = DrainCost::default();
    for w in workers {
        let c = w.join().unwrap();
        cost.items += c.items;
        cost.head_rmws += c.head_rmws;
        cost.ranks_claimed += c.ranks_claimed;
    }
    (Measurement::new(label, cost.items, elapsed), cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffq::cell::PaddedCell;
    use ffq::layout::LinearMap;

    const DUR: Duration = Duration::from_millis(80);

    #[test]
    fn mpmc_microbench_completes_roundtrips() {
        let m = mpmc_roundtrips::<PaddedCell<u64>, LinearMap>(
            Topo {
                producers: 1,
                consumers_per: 2,
                queue_size: 256,
            },
            DUR,
            "test",
        );
        assert!(m.ops > 100, "ops {}", m.ops);
    }

    #[test]
    fn spmc_microbench_completes_roundtrips() {
        let m = spmc_roundtrips(
            Topo {
                producers: 2,
                consumers_per: 2,
                queue_size: 256,
            },
            DUR,
            None,
            "test",
        );
        assert!(m.ops > 100, "ops {}", m.ops);
    }

    #[test]
    fn spsc_microbench_completes_roundtrips() {
        let m = spsc_roundtrips(256, DUR, "test");
        assert!(m.ops > 100, "ops {}", m.ops);
    }

    #[test]
    fn batch_drain_modes_complete_and_amortize() {
        let (m, cost) = spmc_batch_drain(256, 2, DrainMode::Batch(32), DUR, "batch");
        assert!(m.ops > 100, "ops {}", m.ops);
        assert_eq!(m.ops, cost.items);
        // A batched harvest must claim several ranks per fetch_add.
        let r = cost.ranks_per_rmw().unwrap_or(0.0);
        assert!(r > 1.5, "ranks/rmw {r}");
        let (m, cost) = spmc_batch_drain(256, 2, DrainMode::PerItem, DUR, "per-item");
        assert!(m.ops > 100, "ops {}", m.ops);
        // The per-item path pays one RMW per claimed rank.
        let r = cost.ranks_per_rmw().unwrap_or(0.0);
        assert!(r <= 1.0 + 1e-9, "ranks/rmw {r}");
    }

    #[test]
    fn pinned_run_still_completes() {
        let topo_hw = Topology::detect().unwrap();
        let m = spmc_roundtrips(
            Topo {
                producers: 1,
                consumers_per: 1,
                queue_size: 128,
            },
            DUR,
            Some((Placement::SameHt, &topo_hw)),
            "pinned",
        );
        assert!(m.ops > 50, "ops {}", m.ops);
    }
}
