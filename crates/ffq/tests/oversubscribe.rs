//! Tier-2 oversubscription stress: far more waiter threads than cores.
//!
//! The adaptive wait path replaces busy-spinning with bounded futex parks,
//! which is exactly where lost-wakeup bugs live: a consumer that parks the
//! instant before the producer publishes must still be woken (or wake
//! itself via the bounded park) and observe the item. Running 4x more
//! consumer threads than cores maximizes the park rate and the adverse
//! interleavings; every test asserts complete, loss-free delivery.

use std::time::{Duration, Instant};

/// 4x the machine's cores, floor 8 so the stress exists even on a 1-2 core
/// CI box.
fn oversubscribed_threads() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    (4 * cores).max(8)
}

#[test]
fn spmc_oversubscribed_consumers_lose_nothing() {
    const ITEMS: u64 = 100_000;
    let consumers = oversubscribed_threads();
    let (mut tx, rx) = ffq::spmc::channel::<u64>(256);
    let handles: Vec<_> = (0..consumers)
        .map(|_| {
            let mut rx = rx.clone();
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Ok(v) = rx.dequeue() {
                    got.push(v);
                }
                (got, rx.stats().parks)
            })
        })
        .collect();
    drop(rx);
    for i in 0..ITEMS {
        tx.enqueue(i);
        if i == ITEMS / 2 {
            // Stall mid-stream: starved consumers exhaust their spin and
            // yield budgets and must reach the park phase, so the rest of
            // the stream exercises the wake path for real.
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    drop(tx); // parked consumers must observe the disconnect and exit
    let mut all = Vec::new();
    let mut parks = 0u64;
    for h in handles {
        let (got, p) = h.join().unwrap();
        all.extend(got);
        parks += p;
    }
    all.sort_unstable();
    assert_eq!(all, (0..ITEMS).collect::<Vec<_>>());
    // With 4x oversubscription most consumers spend most of the run
    // starved; the adaptive strategy must actually have parked.
    assert!(parks > 0, "no consumer ever parked under oversubscription");
}

#[test]
fn mpmc_oversubscribed_both_sides_lose_nothing() {
    const PER_PRODUCER: u64 = 20_000;
    let threads = oversubscribed_threads();
    let producers = threads / 2;
    let consumers = threads - producers;
    let (tx, rx) = ffq::mpmc::channel::<u64>(128);
    let prod_handles: Vec<_> = (0..producers)
        .map(|p| {
            let mut tx = tx.clone();
            std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    tx.enqueue(p as u64 * PER_PRODUCER + i);
                }
            })
        })
        .collect();
    drop(tx);
    let cons_handles: Vec<_> = (0..consumers)
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
    for h in prod_handles {
        h.join().unwrap();
    }
    let mut all: Vec<u64> = cons_handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    all.sort_unstable();
    let expected: Vec<u64> = (0..producers as u64 * PER_PRODUCER).collect();
    assert_eq!(all, expected);
}

#[test]
fn spsc_blocking_both_sides_over_tiny_queue() {
    // Capacity 4 forces the producer to park on full and the consumer to
    // park on empty, repeatedly, in the same run.
    const ITEMS: u64 = 50_000;
    let (mut tx, mut rx) = ffq::spsc::channel::<u64>(4);
    let t = std::thread::spawn(move || {
        for i in 0..ITEMS {
            tx.enqueue(i);
        }
        tx.stats().parks
    });
    for i in 0..ITEMS {
        assert_eq!(rx.dequeue(), Ok(i));
    }
    t.join().unwrap();
}

#[test]
fn full_queue_producer_parks_then_resumes() {
    // The producer fills the queue and must block; a deliberately slow
    // consumer lets it park (the spin/yield phases last well under the
    // consumer's sleep), then frees cells. Everything still arrives in
    // order.
    let (mut tx, mut rx) = ffq::spmc::channel::<u64>(4);
    let t = std::thread::spawn(move || {
        for i in 0..64u64 {
            tx.enqueue(i);
        }
        tx.stats().parks
    });
    let mut got = Vec::new();
    while got.len() < 64 {
        std::thread::sleep(Duration::from_millis(2));
        while let Ok(v) = rx.try_dequeue() {
            got.push(v);
        }
    }
    let parks = t.join().unwrap();
    assert_eq!(got, (0..64).collect::<Vec<_>>());
    assert!(parks > 0, "producer never parked against the slow consumer");
}

/// A blocking call waits, and counts, only after its inline attempt
/// misses: a run of successful calls leaves `parks` and `full_rejections`
/// at zero. A timed enqueue on a full queue hands the value back once the
/// deadline has passed, after one full rejection and at least one park.
macro_rules! timed_enqueue_on_full_queue {
    ($channel:expr) => {{
        let (mut tx, mut rx) = $channel;
        for i in 0..4 {
            tx.enqueue(i);
        }
        let s = tx.stats();
        assert_eq!((s.parks, s.full_rejections), (0, 0), "a hit waited");
        let start = Instant::now();
        let err = tx
            .enqueue_timeout(99, Duration::from_millis(50))
            .unwrap_err();
        let waited = start.elapsed();
        assert_eq!(err.into_inner(), 99);
        assert!(
            waited >= Duration::from_millis(50),
            "gave up early: {waited:?}"
        );
        assert!(
            waited < Duration::from_millis(500),
            "deadline badly overshot: {waited:?}"
        );
        let s = tx.stats();
        assert_eq!(s.full_rejections, 1);
        assert!(s.parks >= 1, "the timed wait's parks went uncounted");
        for i in 0..4 {
            assert_eq!(rx.dequeue(), Ok(i));
        }
        assert_eq!(rx.stats().parks, 0, "a hit waited");
    }};
}

#[test]
fn enqueue_timeout_full_queue_expires_and_returns_value() {
    timed_enqueue_on_full_queue!(ffq::spmc::channel::<u64>(4));
    timed_enqueue_on_full_queue!(ffq::mpmc::channel::<u64>(4));
}

#[test]
fn bytes_recv_timeout_empty_queue_expires() {
    use ffq::bytes::{BytesConsumer, BytesProducer};
    let (mut tx, mut rx) = ffq::spsc::bytes_channel(4, 64).unwrap();
    for i in 0..4u8 {
        tx.send_bytes(&[i]).unwrap();
    }
    let s = tx.stats();
    assert_eq!((s.parks, s.full_rejections), (0, 0), "a hit waited");
    for i in 0..4u8 {
        assert_eq!(&*rx.recv().unwrap(), &[i]);
    }
    assert_eq!(rx.stats().parks, 0, "a hit waited");
    let start = Instant::now();
    let res = rx.recv_timeout(Duration::from_millis(50));
    let waited = start.elapsed();
    assert!(matches!(res, Err(ffq::TryDequeueError::Empty)));
    assert!(
        waited >= Duration::from_millis(50),
        "gave up early: {waited:?}"
    );
    assert!(
        waited < Duration::from_millis(500),
        "deadline badly overshot: {waited:?}"
    );
    drop(res);
    assert!(
        rx.stats().parks >= 1,
        "the timed wait's parks went uncounted"
    );
}

#[test]
fn bytes_blocking_reserve_counts_its_parks() {
    // The producer's blocking reserve on a full queue parks until the main
    // thread, well after the spin/yield phases end, releases one payload.
    use ffq::bytes::{BytesConsumer, BytesProducer};
    let (mut tx, mut rx) = ffq::spsc::bytes_channel(4, 64).unwrap();
    for i in 0..4u8 {
        tx.send_bytes(&[i]).unwrap();
    }
    let t = std::thread::spawn(move || {
        let mut slot = tx.reserve(1).unwrap();
        slot[0] = 4;
        slot.commit();
        tx.stats().parks
    });
    std::thread::sleep(Duration::from_millis(50));
    for i in 0..5u8 {
        assert_eq!(&*rx.recv().unwrap(), &[i]);
    }
    assert!(
        t.join().unwrap() >= 1,
        "the blocking reserve's parks went uncounted"
    );
}

#[test]
fn parked_dequeue_timeout_wakes_near_the_deadline() {
    // Satellite check for the adaptive deadline stride: once the consumer
    // is parked, each sleep slice is clamped to the remaining time, so the
    // expiry must land within a few bounded-park slices (~2 ms each) of
    // the deadline — not a whole slice grid late. Generous slack for CI.
    let (_tx, mut rx) = ffq::spmc::channel::<u64>(16);
    let timeout = Duration::from_millis(120);
    let start = Instant::now();
    let r = rx.dequeue_timeout(timeout);
    let waited = start.elapsed();
    assert_eq!(r, Err(ffq::TryDequeueError::Empty));
    assert!(
        waited >= timeout,
        "returned before the deadline: {waited:?}"
    );
    let overshoot = waited - timeout;
    assert!(
        overshoot < Duration::from_millis(50),
        "parked wake missed the deadline by {overshoot:?}"
    );
    assert!(
        rx.stats().parks > 0,
        "the wait never reached the park phase"
    );
}

#[test]
fn gap_announcements_wake_parked_consumers() {
    // Regression for the wrong-wakee window on the gap path: a gap
    // announcement unblocks one *specific* rank, so waking a single
    // arbitrary parked consumer can strand the one assigned that rank —
    // it re-parks on its own unsatisfied condition and the wake is lost.
    // The fix broadcasts on every gap announcement (mpmc `resolve_rank` /
    // `void_rank`, and the SP enqueue scan).
    //
    // Scenario engineering: batch consumers claim whole rank runs
    // (head advances, cells still occupied while the run is read back),
    // which makes the producers' `try_enqueue` probes land on occupied
    // cells and announce gaps — exactly the traffic that used to strand a
    // parked single-item consumer. The parked consumers use
    // `dequeue_timeout`, so a reintroduced lost wake fails the test
    // instead of hanging it: a 5 s starve while producers are streaming
    // can only mean the wake never arrived.
    const PER_PRODUCER: u64 = 40_000;
    const TIMEOUT: Duration = Duration::from_secs(5);
    let (tx, rx) = ffq::mpmc::channel::<u64>(64);
    let producers: Vec<_> = (0..2)
        .map(|p| {
            let mut tx = tx.clone();
            std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    let mut v = p as u64 * PER_PRODUCER + i;
                    loop {
                        match tx.try_enqueue(v) {
                            Ok(()) => break,
                            Err(full) => {
                                v = full.into_inner();
                                std::thread::yield_now();
                            }
                        }
                    }
                }
                tx.stats().gaps_created
            })
        })
        .collect();
    drop(tx);
    let batchers: Vec<_> = (0..4)
        .map(|_| {
            let mut rx = rx.clone();
            std::thread::spawn(move || {
                let mut got = Vec::new();
                let mut buf = Vec::new();
                loop {
                    if rx.dequeue_batch(&mut buf, 64) == 0 {
                        if rx.producers() == 0 && rx.dequeue_batch(&mut buf, 64) == 0 {
                            break;
                        }
                        std::thread::yield_now();
                    }
                    got.append(&mut buf);
                }
                got
            })
        })
        .collect();
    let parked: Vec<_> = (0..4)
        .map(|_| {
            let mut rx = rx.clone();
            std::thread::spawn(move || {
                let mut got = Vec::new();
                loop {
                    match rx.dequeue_timeout(TIMEOUT) {
                        Ok(v) => got.push(v),
                        Err(ffq::TryDequeueError::Disconnected) => break,
                        Err(ffq::TryDequeueError::Empty) => {
                            panic!("consumer starved {TIMEOUT:?} mid-stream: lost wake")
                        }
                    }
                }
                got
            })
        })
        .collect();
    drop(rx);
    let gaps: u64 = producers.into_iter().map(|h| h.join().unwrap()).sum();
    let mut all: Vec<u64> = batchers
        .into_iter()
        .chain(parked)
        .flat_map(|h| h.join().unwrap())
        .collect();
    all.sort_unstable();
    assert_eq!(all, (0..2 * PER_PRODUCER).collect::<Vec<_>>());
    // The scenario must actually have exercised the gap path.
    assert!(
        gaps > 0,
        "no gap was ever announced; scenario lost its teeth"
    );
}

#[test]
fn unbounded_absorbs_burst_without_stalling_producer() {
    // The unbounded tier's headline contract: a burst far past one
    // segment's capacity is absorbed by rolling onto fresh segments — the
    // producer never blocks, never parks, never sees `Full`. Four times
    // the segment capacity lands in one burst with no consumer running at
    // all; the consumers then drain exactly-once, in FIFO order, across
    // every seam.
    const SEGMENT_CAPACITY: usize = 256;
    const BURST: u64 = 4 * SEGMENT_CAPACITY as u64;
    let (mut tx, rx) = ffq::unbounded::spmc::channel::<u64>(SEGMENT_CAPACITY);
    // Nobody dequeues during the burst: absorption must come entirely
    // from segment rolls.
    for i in 0..BURST {
        tx.enqueue(i);
    }
    assert_eq!(
        tx.stats().parks,
        0,
        "producer blocked during the burst: {:?}",
        tx.stats()
    );
    // Each inner `Full` probe is absorbed by exactly one roll — the burst
    // never surfaces `Full` and never retries beyond the roll itself.
    assert!(
        tx.stats().full_rejections <= tx.seg_stats().segments_sealed,
        "burst retried beyond its rolls: {:?} / {:?}",
        tx.stats(),
        tx.seg_stats()
    );
    assert!(
        tx.seg_stats().segments_sealed >= 3,
        "a 4x burst must roll at least 3 times: {:?}",
        tx.seg_stats()
    );
    let workers: Vec<_> = (0..4)
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
    drop(tx);
    let mut all = Vec::new();
    for h in workers {
        let got = h.join().unwrap();
        // Per-consumer FIFO across segment seams: each handle's view of
        // the single producer's stream is strictly increasing.
        assert!(
            got.windows(2).all(|w| w[0] < w[1]),
            "per-consumer FIFO violated across seams"
        );
        all.extend(got);
    }
    all.sort_unstable();
    assert_eq!(all, (0..BURST).collect::<Vec<_>>(), "burst lost items");
}

#[test]
fn unbounded_mpmc_burst_and_oversubscribed_drain() {
    // Multi-producer burst into the unbounded tier under oversubscription:
    // every producer streams its items with no Full path at all (rolls
    // elect a sealer via the link CAS; losers follow the link), consumers
    // drain across seams, and the union is exactly-once with per-producer
    // FIFO.
    const PER_PRODUCER: u64 = 10_000;
    let threads = oversubscribed_threads();
    let producers = (threads / 2).min(8);
    let consumers = threads - producers;
    let (tx, rx) = ffq::unbounded::mpmc::channel::<u64>(128);
    let prod_handles: Vec<_> = (0..producers)
        .map(|p| {
            let mut tx = tx.clone();
            std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    tx.enqueue(p as u64 * PER_PRODUCER + i);
                }
                tx.stats().parks
            })
        })
        .collect();
    drop(tx);
    let cons_handles: Vec<_> = (0..consumers)
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
    for h in prod_handles {
        assert_eq!(h.join().unwrap(), 0, "unbounded producer parked");
    }
    let mut all: Vec<u64> = cons_handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    all.sort_unstable();
    let expected: Vec<u64> = (0..producers as u64 * PER_PRODUCER).collect();
    assert_eq!(all, expected);
}

#[test]
fn raw_published_wake_reaches_the_owning_claimant() {
    // Regression for the publish-path wrong-wakee window (ALGORITHM.md
    // §12): shared-head consumers attached at the raw layer once got a
    // *counted* publish wake gated on the live consumer count — a gate a
    // late-attaching consumer slips past (its relaxed count increment can
    // trail its park), letting the single wake land on a claimant whose
    // pending rank the publication does not resolve while the owning
    // claimant sleeps forever. Every publish wake broadcasts. The parked
    // claimants
    // here use `dequeue_timeout` with a panic on expiry, so a
    // reintroduced counted wake fails the test instead of hanging it;
    // oversubscription (4x cores) maximizes the park rate.
    use ffq::cell::{CellSlot, PaddedCell};
    use ffq::layout::LinearMap;
    use ffq::raw::{ConsumerEngine, QueueState, RawConsumer, RawProducer, RawQueue};

    const ITEMS: u64 = 50_000;
    const TIMEOUT: Duration = Duration::from_secs(5);
    let consumers = oversubscribed_threads();
    let state = QueueState::new(6, 1, consumers as u32);
    let cells: Vec<PaddedCell<u64>> = (0..64).map(|_| CellSlot::<u64>::empty()).collect();
    // SAFETY: state/cells outlive every handle (scoped threads); one
    // producer, shared-head consumers only.
    let q =
        unsafe { RawQueue::<u64, PaddedCell<u64>, LinearMap>::from_raw(&state, cells.as_ptr()) };
    let mut all = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..consumers)
            .map(|_| {
                let mut rx = unsafe { RawConsumer::<u64, _, _, false>::attach(q) };
                s.spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        match rx.dequeue_timeout(TIMEOUT) {
                            Ok(v) => got.push(v),
                            Err(ffq::TryDequeueError::Disconnected) => break,
                            Err(ffq::TryDequeueError::Empty) => {
                                panic!("claimant starved {TIMEOUT:?} mid-stream: lost wake")
                            }
                        }
                    }
                    got
                })
            })
            .collect();
        let mut tx = unsafe { RawProducer::attach(q) };
        for i in 0..ITEMS {
            let mut v = i;
            loop {
                match tx.try_enqueue(v) {
                    Ok(()) => break,
                    Err(full) => {
                        v = full.into_inner();
                        std::thread::yield_now();
                    }
                }
            }
            if i == ITEMS / 2 {
                // Stall so the claimants drain, claim ahead, and park.
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        // Producer gone: consumers must observe the disconnect and exit.
        state
            .producers()
            .fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
        state.wake_all();
        for h in handles {
            all.extend(h.join().unwrap());
        }
    });
    all.sort_unstable();
    assert_eq!(all, (0..ITEMS).collect::<Vec<_>>());
}

#[test]
fn broadcast_oversubscribed_subscribers_account_for_the_stream() {
    // Broadcast under oversubscription: the producer never blocks, every
    // subscriber individually accounts for the full stream as received +
    // lagged, and parked subscribers are woken by the publish broadcast
    // (expiry panics, so a lost wake fails fast).
    const ITEMS: u64 = 50_000;
    const TIMEOUT: Duration = Duration::from_secs(5);
    let subscribers = oversubscribed_threads();
    let (mut tx, rx) = ffq::broadcast::channel::<u64>(64);
    let handles: Vec<_> = (0..subscribers)
        .map(|_| {
            let mut rx = rx.clone();
            std::thread::spawn(move || {
                let mut received = 0u64;
                let mut lagged = 0u64;
                let mut last = 0u64;
                loop {
                    match rx.recv_timeout(TIMEOUT) {
                        Ok(v) => {
                            assert!(v > last, "reordered: {v} after {last}");
                            last = v;
                            received += 1;
                        }
                        Err(ffq::BroadcastTryRecvError::Lagged(n)) => lagged += n,
                        Err(ffq::BroadcastTryRecvError::Closed) => break,
                        Err(ffq::BroadcastTryRecvError::Empty) => {
                            panic!("subscriber starved {TIMEOUT:?} mid-stream: lost wake")
                        }
                    }
                }
                (received, lagged, rx.stats().parks)
            })
        })
        .collect();
    drop(rx);
    for i in 1..=ITEMS {
        tx.send(i);
        if i == ITEMS / 2 {
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    drop(tx);
    let mut parks = 0u64;
    for h in handles {
        let (received, lagged, p) = h.join().unwrap();
        assert_eq!(received + lagged, ITEMS, "stream not fully accounted");
        parks += p;
    }
    assert!(
        parks > 0,
        "no subscriber ever parked under oversubscription"
    );
}

#[test]
fn spin_only_config_still_delivers() {
    // The opt-out path: spin-only handles never park but must still make
    // progress and see disconnects.
    const ITEMS: u64 = 20_000;
    let (mut tx, rx) = ffq::spmc::channel::<u64>(64);
    let mut rx2 = rx.clone();
    rx2.set_wait_config(ffq::WaitConfig::spin_only());
    drop(rx);
    let t = std::thread::spawn(move || {
        let mut got = Vec::new();
        while let Ok(v) = rx2.dequeue() {
            got.push(v);
        }
        assert_eq!(rx2.stats().parks, 0, "spin-only handle parked");
        got
    });
    for i in 0..ITEMS {
        tx.enqueue(i);
    }
    drop(tx);
    assert_eq!(t.join().unwrap(), (0..ITEMS).collect::<Vec<_>>());
}

#[test]
#[cfg_attr(miri, ignore)]
fn every_park_on_an_in_process_queue_is_woken() {
    // On an in-process queue of a process registered for `membarrier`, the
    // producer's publish notifies behind a compiler fence only, and the
    // consumer's `membarrier` before its re-check is what keeps the wake.
    // The consumer waits for every item with no spin phase and unbounded
    // parks. For even items the producer waits until the consumer has
    // registered as a waiter and then sleeps briefly, so the consumer is
    // asleep in the futex when the wake comes. For odd items it publishes
    // a varying few pauses after the consumer took the previous item,
    // sweeping the window in which the consumer registers and re-checks —
    // the store-buffering race the fence pair closes. One lost wake hangs
    // the consumer, which the watchdog below turns into a failure.
    use ffq::cell::{CellSlot, PaddedCell};
    use ffq::layout::LinearMap;
    use ffq::raw::{ConsumerEngine, QueueState, RawProducer, RawQueue, RawSpscConsumer};
    use ffq_sync::WaitConfig;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{mpsc, Arc};

    const ITEMS: u64 = 24_000;
    const WATCHDOG: Duration = Duration::from_secs(120);
    if !ffq_sync::eventcount::register_membarrier() {
        eprintln!("membarrier refused: this run exercises the symmetric fence pair");
    }
    // Leaked so both threads can outlive a failing test.
    let state: &'static QueueState = Box::leak(Box::new(QueueState::new(4, 1, 1)));
    let cells: &'static [PaddedCell<u64>] =
        Vec::leak((0..16).map(|_| CellSlot::<u64>::empty()).collect());
    // SAFETY: state and cells are 'static and sized for `cap_log2` 4.
    let q = unsafe { RawQueue::<u64, PaddedCell<u64>, LinearMap>::from_raw(state, cells.as_ptr()) };
    // SAFETY: the only producer and the only consumer of `q`, which lives
    // for 'static.
    let (mut tx, mut rx) = unsafe { (RawProducer::attach(q), RawSpscConsumer::attach(q)) };
    rx.set_wait_config(WaitConfig {
        spin_limit: 0,
        yield_limit: 0,
        max_park: None,
        park: true,
    });
    let taken = Arc::new(AtomicU64::new(0));
    let taken_by_consumer = Arc::clone(&taken);
    let (done, finished) = mpsc::channel();
    let consumer = std::thread::spawn(move || {
        for i in 0..ITEMS {
            assert_eq!(rx.dequeue(), Ok(i));
            taken_by_consumer.store(i + 1, Ordering::Release);
        }
        done.send(()).unwrap();
        rx.stats().parks
    });
    // Spins briefly before yielding, so the odd items' timing stays fine
    // on two cores and the test still progresses on one.
    let until = |done: &dyn Fn() -> bool| {
        let mut spins = 0u32;
        while !done() {
            if spins < 1_000 {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    };
    let producer = std::thread::spawn(move || {
        for i in 0..ITEMS {
            until(&|| taken.load(Ordering::Acquire) >= i);
            if i % 2 == 0 {
                until(&|| state.not_empty().waiters() != 0);
                std::thread::sleep(Duration::from_micros(20));
            } else {
                for _ in 0..(i / 2) % 64 {
                    std::hint::spin_loop();
                }
            }
            tx.enqueue(i);
        }
    });
    if let Err(mpsc::RecvTimeoutError::Timeout) = finished.recv_timeout(WATCHDOG) {
        panic!("lost wake: the consumer is still parked after {WATCHDOG:?}");
    }
    producer.join().unwrap();
    let parks = consumer.join().unwrap();
    assert!(
        parks >= 10_000,
        "only {parks} parks: the stress did not park"
    );
}
