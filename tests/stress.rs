//! Cross-crate stress tests: the FFQ variants under hostile interleavings.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ffq::TryDequeueError;

/// A tiny queue, many items, many consumers: constant wrap-around and gap
/// pressure.
#[test]
fn spmc_tiny_queue_high_pressure() {
    const ITEMS: u64 = 60_000;
    let (mut tx, rx) = ffq::spmc::channel::<u64>(8);
    let consumers: Vec<_> = (0..4)
        .map(|_| {
            let mut rx = rx.clone();
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Ok(v) = rx.dequeue() {
                    got.push(v);
                }
                got
            })
        })
        .collect();
    drop(rx);
    for i in 0..ITEMS {
        tx.enqueue(i);
    }
    drop(tx);
    let mut all: Vec<u64> = consumers
        .into_iter()
        .flat_map(|c| c.join().unwrap())
        .collect();
    all.sort_unstable();
    assert_eq!(all, (0..ITEMS).collect::<Vec<_>>());
}

/// A deliberately stalled consumer holds a claimed rank while the producer
/// laps the array many times — the "slow consumer" scenario that creates
/// gap announcements for the same cell repeatedly (§III-A).
#[test]
fn spmc_stalled_consumer_gap_storm() {
    let (mut tx, rx) = ffq::spmc::channel::<u64>(16);
    let mut slow = rx.clone();
    let mut fast = rx.clone();
    drop(rx);

    // The slow consumer claims a rank while the queue is empty, then sits
    // on it (pending) for the whole test.
    assert_eq!(slow.try_dequeue(), Err(TryDequeueError::Empty));

    // The producer laps the array; the fast consumer keeps up.
    let mut received = Vec::new();
    for i in 0..10_000u64 {
        tx.enqueue(i);
        loop {
            match fast.try_dequeue() {
                Ok(v) => {
                    received.push(v);
                    break;
                }
                // The item may be destined for the slow consumer's pending
                // rank — it only claims one, so at most one item is parked.
                Err(TryDequeueError::Empty) => {
                    if let Ok(v) = slow.try_dequeue() {
                        received.push(v);
                        break;
                    }
                }
                Err(TryDequeueError::Disconnected) => unreachable!(),
            }
        }
    }
    received.sort_unstable();
    assert_eq!(received, (0..10_000).collect::<Vec<_>>());
    assert!(tx.stats().enqueued == 10_000);
}

/// MPMC with more threads than cores, constantly yielding: exercises the
/// claimed-cell (-2) window and the gap DWCAS races of Algorithm 2.
#[test]
fn mpmc_oversubscribed_yield_storm() {
    const PRODUCERS: u64 = 6;
    const CONSUMERS: usize = 6;
    const PER: u64 = 8_000;
    let (tx, rx) = ffq::mpmc::channel::<u64>(32); // tiny: maximal conflicts
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let mut tx = tx.clone();
            std::thread::spawn(move || {
                for i in 0..PER {
                    tx.enqueue(p * PER + i);
                    if i % 64 == 0 {
                        std::thread::yield_now();
                    }
                }
            })
        })
        .collect();
    drop(tx);
    let consumers: Vec<_> = (0..CONSUMERS)
        .map(|_| {
            let mut rx = rx.clone();
            std::thread::spawn(move || {
                let mut got = Vec::new();
                loop {
                    match rx.try_dequeue() {
                        Ok(v) => got.push(v),
                        Err(TryDequeueError::Empty) => std::thread::yield_now(),
                        Err(TryDequeueError::Disconnected) => break,
                    }
                }
                got
            })
        })
        .collect();
    drop(rx);
    for p in producers {
        p.join().unwrap();
    }
    let all: Vec<u64> = consumers
        .into_iter()
        .flat_map(|c| c.join().unwrap())
        .collect();
    assert_eq!(all.len() as u64, PRODUCERS * PER);
    let set: HashSet<u64> = all.iter().copied().collect();
    assert_eq!(set.len(), all.len(), "duplicates under yield storm");
}

/// Dropping a consumer with a *published* pending item must recycle the
/// cell (documented drop behaviour), keeping the queue fully usable.
#[test]
fn consumer_drop_recovers_published_pending() {
    let (mut tx, rx) = ffq::spmc::channel::<u64>(8);
    let mut doomed = rx.clone();
    let mut survivor = rx.clone();
    drop(rx);

    // doomed claims rank 0 while empty...
    assert!(doomed.try_dequeue().is_err());
    // ...the item for rank 0 then arrives...
    tx.enqueue(42);
    // ...and doomed dies without consuming it. Its Drop must free cell 0.
    drop(doomed);

    // The slot is reusable: fill the whole array twice over.
    for round in 0..2 {
        for i in 0..8u64 {
            tx.enqueue(round * 8 + i);
        }
        for _ in 0..8 {
            assert!(survivor.dequeue().is_ok());
        }
    }
}

/// Producer dropped while consumers are blocked in `dequeue()`: all of them
/// must wake with `Disconnected`, not hang.
#[test]
fn blocking_consumers_wake_on_disconnect() {
    let (tx, rx) = ffq::spmc::channel::<u64>(64);
    let woke = Arc::new(AtomicBool::new(false));
    let consumers: Vec<_> = (0..3)
        .map(|_| {
            let mut rx = rx.clone();
            let woke = Arc::clone(&woke);
            std::thread::spawn(move || {
                // Blocks until disconnection (queue stays empty).
                assert_eq!(rx.dequeue(), Err(ffq::Disconnected));
                woke.store(true, Ordering::Relaxed);
            })
        })
        .collect();
    drop(rx);
    std::thread::sleep(Duration::from_millis(50));
    drop(tx);
    for c in consumers {
        c.join().unwrap();
    }
    assert!(woke.load(Ordering::Relaxed));
}

/// The SPSC pair streaming boxed (heap) payloads across threads while the
/// queue wraps thousands of times: no leaks, no double frees (asserted via
/// drop counting).
#[test]
fn spsc_boxed_payload_drop_balance() {
    use std::sync::atomic::AtomicI64;
    static LIVE: AtomicI64 = AtomicI64::new(0);
    struct Tracked(#[allow(dead_code)] u64);
    impl Tracked {
        fn new(v: u64) -> Self {
            LIVE.fetch_add(1, Ordering::Relaxed);
            Tracked(v)
        }
    }
    impl Drop for Tracked {
        fn drop(&mut self) {
            LIVE.fetch_sub(1, Ordering::Relaxed);
        }
    }

    {
        let (mut tx, mut rx) = ffq::spsc::channel::<Tracked>(16);
        let t = std::thread::spawn(move || {
            for i in 0..50_000u64 {
                tx.enqueue(Tracked::new(i));
            }
        });
        let mut n = 0u64;
        // Consume most but not all, leaving some for queue-drop cleanup.
        while n < 49_990 {
            if rx.dequeue().is_ok() {
                n += 1;
            }
        }
        t.join().unwrap();
    }
    assert_eq!(
        LIVE.load(Ordering::Relaxed),
        0,
        "payloads leaked or double-dropped"
    );
}

/// try_enqueue storms against a full queue: the counter pre-check rejects
/// each attempt in O(1), and nothing is lost or duplicated once draining
/// resumes.
#[test]
fn full_queue_try_enqueue_storm_stays_consistent() {
    let (mut tx, mut rx) = ffq::spmc::channel::<u64>(4);
    for i in 0..4 {
        tx.try_enqueue(i).unwrap();
    }
    // 100 hopeless attempts: the pre-check rejects each before the scan,
    // so none burns a rank.
    for _ in 0..100 {
        assert!(tx.try_enqueue(999).is_err());
    }
    assert_eq!(tx.stats().full_rejections, 100);
    assert_eq!(tx.stats().gaps_created, 0);
    // Drain and refill repeatedly; FIFO per producer must survive.
    let mut expected = vec![0, 1, 2, 3];
    let drained: Vec<u64> = std::iter::from_fn(|| rx.try_dequeue().ok()).collect();
    assert_eq!(drained, expected);
    for i in 10..14u64 {
        tx.enqueue(i);
    }
    expected = vec![10, 11, 12, 13];
    let drained: Vec<u64> = std::iter::from_fn(|| rx.try_dequeue().ok()).collect();
    assert_eq!(drained, expected);
}
