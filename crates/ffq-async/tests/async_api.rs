//! End-to-end async API coverage on the bundled mini runtime.
//!
//! Everything here runs with zero external crates: tasks are spawned on
//! `ffq_async::rt::Executor` and driven by `rt::block_on`, so the same
//! tests run offline, under CI, and under Miri.

use std::time::Duration;

use ffq_async::rt::{block_on, timeout, Executor};
use ffq_async::{mpmc, shard, spmc, spsc, unbounded, wrap, Disconnected};

#[test]
fn spsc_roundtrip_in_order() {
    let (mut tx, mut rx) = spsc::channel::<u64>(8);
    let ex = Executor::new(2);
    const N: u64 = 10_000;

    let prod = ex.spawn(async move {
        for i in 0..N {
            tx.enqueue(i).await.expect("spsc send cannot fail");
        }
        // tx drops here -> disconnect broadcast
    });
    let cons = ex.spawn(async move {
        let mut next = 0u64;
        loop {
            match rx.dequeue().await {
                Ok(v) => {
                    assert_eq!(v, next, "FIFO order violated");
                    next += 1;
                }
                Err(Disconnected) => break next,
            }
        }
    });

    prod.join();
    assert_eq!(cons.join(), N);
}

#[test]
fn spsc_backpressure_tiny_capacity() {
    // Capacity 4 forces the producer through the not_full wait path
    // thousands of times.
    let (mut tx, mut rx) = spsc::channel::<u64>(4);
    let ex = Executor::new(2);
    const N: u64 = 5_000;

    let prod = ex.spawn(async move {
        for i in 0..N {
            tx.enqueue(i).await.unwrap();
        }
    });
    let cons = ex.spawn(async move {
        let mut got = 0u64;
        while let Ok(v) = rx.dequeue().await {
            assert_eq!(v, got);
            got += 1;
        }
        got
    });
    prod.join();
    assert_eq!(cons.join(), N);
}

#[test]
fn enqueue_many_and_dequeue_batch() {
    let (mut tx, mut rx) = spsc::channel::<u32>(16);
    let ex = Executor::new(2);
    const N: u32 = 4_096;

    let prod = ex.spawn(async move {
        let sent = tx.enqueue_many(0..N).await;
        assert_eq!(sent, N as usize, "spsc enqueue_many must send everything");
    });
    let cons = ex.spawn(async move {
        let mut all = Vec::new();
        while let Ok(batch) = rx.dequeue_batch(64).await {
            assert!(!batch.is_empty(), "batch resolves only with items");
            assert!(batch.len() <= 64);
            all.extend(batch);
        }
        all
    });
    prod.join();
    let all = cons.join();
    assert_eq!(all, (0..N).collect::<Vec<_>>());
}

#[test]
fn dequeue_batch_zero_max_is_empty() {
    let (mut tx, mut rx) = spsc::channel::<u8>(4);
    block_on(async {
        tx.enqueue(9).await.unwrap();
        assert_eq!(rx.dequeue_batch(0).await.unwrap(), Vec::<u8>::new());
        assert_eq!(rx.dequeue_batch(8).await.unwrap(), vec![9]);
    });
}

#[test]
fn receiver_sees_disconnect_after_drain() {
    let (mut tx, mut rx) = spsc::channel::<u8>(8);
    block_on(async {
        tx.enqueue(1).await.unwrap();
        tx.enqueue(2).await.unwrap();
        drop(tx);
        // Already-published items are still delivered...
        assert_eq!(rx.dequeue().await, Ok(1));
        assert_eq!(rx.dequeue().await, Ok(2));
        // ...then the disconnect surfaces.
        assert_eq!(rx.dequeue().await, Err(Disconnected));
    });
}

#[test]
fn receiver_parked_when_producer_drops_wakes_up() {
    // The Drop-ordering case: the consumer is already parked on not_empty
    // when the last producer disappears; the drop broadcast must wake it
    // and the re-check must observe the disconnect.
    let (tx, mut rx) = spsc::channel::<u8>(8);
    let ex = Executor::new(2);
    let cons = ex.spawn(async move { rx.dequeue().await });
    std::thread::sleep(Duration::from_millis(50)); // let it park
    drop(tx);
    assert_eq!(cons.join(), Err(Disconnected));
}

#[test]
fn sender_sees_consumers_gone_mpmc() {
    let (mut tx, rx) = mpmc::channel::<u32>(4);
    block_on(async {
        // Fill the queue, then remove the only consumer: the parked
        // sender must resolve with SendError and return the item.
        for i in 0..4 {
            tx.enqueue(i).await.unwrap();
        }
        drop(rx);
        let err = tx.enqueue(99).await.expect_err("consumers are gone");
        assert_eq!(err.into_inner(), 99);
    });
}

#[test]
fn sender_sees_consumers_gone_spsc() {
    let (mut tx, rx) = spsc::channel::<u32>(4);
    block_on(async {
        // The SPSC producer counts its consumer too: once the receiver is
        // gone, a send resolves with SendError and returns the item.
        for i in 0..4 {
            tx.enqueue(i).await.unwrap();
        }
        drop(rx);
        let err = tx.enqueue(99).await.expect_err("the consumer is gone");
        assert_eq!(err.into_inner(), 99);
    });
}

#[test]
fn spmc_fanout_partitions_items() {
    let (mut tx, rx) = spmc::channel::<u64>(32);
    let ex = Executor::new(3);
    const N: u64 = 8_000;
    const CONSUMERS: usize = 3;

    let handles: Vec<_> = (0..CONSUMERS)
        .map(|_| {
            let mut rx = rx.clone();
            ex.spawn(async move {
                let mut mine = Vec::new();
                while let Ok(v) = rx.dequeue().await {
                    mine.push(v);
                }
                mine
            })
        })
        .collect();
    drop(rx); // only the clones remain

    let prod = ex.spawn(async move {
        for i in 0..N {
            if tx.enqueue(i).await.is_err() {
                panic!("consumers vanished mid-run");
            }
        }
    });
    prod.join();

    let mut union: Vec<u64> = Vec::new();
    for h in handles {
        let mine = h.join();
        // Rank claiming is in arrival order per consumer: each consumer's
        // view must be strictly increasing.
        assert!(
            mine.windows(2).all(|w| w[0] < w[1]),
            "per-consumer FIFO violated"
        );
        union.extend(mine);
    }
    union.sort_unstable();
    assert_eq!(
        union,
        (0..N).collect::<Vec<_>>(),
        "lost or duplicated items"
    );
}

#[test]
fn mpmc_many_to_many() {
    let (tx, rx) = mpmc::channel::<u64>(64);
    let ex = Executor::new(4);
    const PRODUCERS: u64 = 3;
    const PER: u64 = 3_000;

    let prods: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let mut tx = tx.clone();
            ex.spawn(async move {
                for i in 0..PER {
                    tx.enqueue(p * PER + i).await.unwrap();
                }
            })
        })
        .collect();
    drop(tx);

    let cons: Vec<_> = (0..2)
        .map(|_| {
            let mut rx = rx.clone();
            ex.spawn(async move {
                let mut mine = Vec::new();
                while let Ok(v) = rx.dequeue().await {
                    mine.push(v);
                }
                mine
            })
        })
        .collect();
    drop(rx);

    for p in prods {
        p.join();
    }
    let mut union: Vec<u64> = Vec::new();
    for c in cons {
        union.extend(c.join());
    }
    union.sort_unstable();
    assert_eq!(union, (0..PRODUCERS * PER).collect::<Vec<_>>());
}

#[test]
fn sharded_fanout_keeps_per_shard_fifo() {
    // Geometry (2 shards × 4-item blocks): a single producer's gapless
    // rotation lands value `v` on shard `(v / 4) % 2`, so each consumer's
    // per-shard subsequence must stay strictly increasing even though the
    // cross-shard merge is only k-relaxed.
    let (mut tx, rx) = shard::channel_with_geometry::<u64>(256, 2, 4);
    let ex = Executor::new(3);
    const N: u64 = 8_000;
    const CONSUMERS: usize = 3;

    let handles: Vec<_> = (0..CONSUMERS)
        .map(|_| {
            let mut rx = rx.clone();
            ex.spawn(async move {
                let mut mine = Vec::new();
                while let Ok(v) = rx.dequeue().await {
                    mine.push(v);
                }
                mine
            })
        })
        .collect();
    drop(rx);

    let prod = ex.spawn(async move {
        for i in 0..N {
            if tx.enqueue(i).await.is_err() {
                panic!("consumers vanished mid-run");
            }
        }
    });
    prod.join();

    let mut union: Vec<u64> = Vec::new();
    for h in handles {
        let mine = h.join();
        for shard in 0..2 {
            let sub: Vec<u64> = mine
                .iter()
                .copied()
                .filter(|v| (v / 4) % 2 == shard)
                .collect();
            assert!(
                sub.windows(2).all(|w| w[0] < w[1]),
                "per-shard FIFO violated on shard {shard}"
            );
        }
        union.extend(mine);
    }
    union.sort_unstable();
    assert_eq!(
        union,
        (0..N).collect::<Vec<_>>(),
        "lost or duplicated items"
    );
}

#[test]
fn stream_adapter_yields_until_end() {
    let (mut tx, rx) = spsc::channel::<u32>(8);
    let ex = Executor::new(2);

    let prod = ex.spawn(async move {
        for i in 0..100u32 {
            tx.enqueue(i).await.unwrap();
        }
    });
    let cons = ex.spawn(async move {
        let mut stream = rx.into_stream();
        let mut got = Vec::new();
        // Drive the stream through its inherent poll method with a tiny
        // hand-rolled future, proving the adapter needs no futures crate.
        loop {
            let next = std::future::poll_fn(|cx| stream.poll_next_item(cx)).await;
            match next {
                Some(v) => got.push(v),
                None => break,
            }
        }
        got
    });
    prod.join();
    assert_eq!(cons.join(), (0..100).collect::<Vec<_>>());
}

#[test]
fn sink_adapter_flushes_buffered_item() {
    let (tx, mut rx) = spsc::channel::<u32>(2);
    let ex = Executor::new(2);

    let prod = ex.spawn(async move {
        let mut sink = tx.into_sink();
        for i in 0..50u32 {
            std::future::poll_fn(|cx| sink.poll_ready_item(cx))
                .await
                .unwrap();
            sink.start_send_item(i).unwrap();
        }
        std::future::poll_fn(|cx| sink.poll_flush_item(cx))
            .await
            .unwrap();
        // sink (and its sender) drop here -> disconnect
    });
    let cons = ex.spawn(async move {
        let mut got = Vec::new();
        while let Ok(v) = rx.dequeue().await {
            got.push(v);
        }
        got
    });
    prod.join();
    assert_eq!(cons.join(), (0..50).collect::<Vec<_>>());
}

#[test]
fn wrap_existing_sync_pair() {
    // Queues built directly from the sync crate can be adopted.
    let (tx, rx) = ffq::mpmc::channel::<u16>(8);
    let (mut atx, mut arx) = wrap(tx, rx);
    block_on(async {
        atx.enqueue(7).await.unwrap();
        assert_eq!(arx.dequeue().await, Ok(7));
    });
}

#[test]
fn timeout_on_empty_queue_then_delivery() {
    let (mut tx, mut rx) = spsc::channel::<u8>(4);
    block_on(async {
        // Nothing queued: the dequeue must time out (and its drop is a
        // cancellation while parked).
        let r = timeout(Duration::from_millis(20), rx.dequeue()).await;
        assert!(r.is_err(), "empty queue cannot resolve a dequeue");
        // The cancelled wait must not wedge the receiver.
        tx.enqueue(42).await.unwrap();
        let r = timeout(Duration::from_millis(500), rx.dequeue()).await;
        assert_eq!(r.expect("item was queued"), Ok(42));
    });
}

#[test]
fn try_ops_notify_async_peers() {
    // try_enqueue on the wrapper must wake a parked async receiver (the
    // whole point of routing non-blocking ops through the wrapper).
    let (mut tx, mut rx) = spsc::channel::<u8>(4);
    let ex = Executor::new(2);
    let cons = ex.spawn(async move { rx.dequeue().await });
    std::thread::sleep(Duration::from_millis(50)); // let it park
    tx.try_enqueue(5).expect("queue is empty");
    assert_eq!(cons.join(), Ok(5));
}

#[test]
fn unbounded_sends_never_wait_and_cross_seams_in_order() {
    // Tiny segments force the whole stream through segment rolls; the
    // unbounded sender must complete every enqueue on the first poll
    // (there is no Full path) while the receiver crosses the seams in
    // FIFO order to the disconnect verdict.
    let (mut tx, mut rx) = unbounded::spsc::channel::<u64>(8);
    let ex = Executor::new(2);
    const N: u64 = 10_000;

    let prod = ex.spawn(async move {
        for i in 0..N {
            tx.enqueue(i).await.expect("unbounded send cannot fail");
        }
    });
    let cons = ex.spawn(async move {
        let mut next = 0u64;
        loop {
            match rx.dequeue().await {
                Ok(v) => {
                    assert_eq!(v, next, "FIFO order violated at a seam");
                    next += 1;
                }
                Err(Disconnected) => break next,
            }
        }
    });
    prod.join();
    assert_eq!(cons.join(), N);
}

#[test]
fn unbounded_mpmc_fanout_exactly_once() {
    // Cloned async ends over the unbounded MPMC tier: two producers burst
    // with no backpressure, two consumers drain across the seams; the
    // union is exactly-once.
    let (tx, rx) = unbounded::mpmc::channel::<u64>(16);
    let ex = Executor::new(4);
    const PER: u64 = 4_000;

    let producers: Vec<_> = (0..2u64)
        .map(|p| {
            let mut tx = tx.clone();
            ex.spawn(async move {
                for i in 0..PER {
                    tx.enqueue(p * PER + i).await.unwrap();
                }
            })
        })
        .collect();
    drop(tx);
    let consumers: Vec<_> = (0..2)
        .map(|_| {
            let mut rx = rx.clone();
            ex.spawn(async move {
                let mut got = Vec::new();
                while let Ok(v) = rx.dequeue().await {
                    got.push(v);
                }
                got
            })
        })
        .collect();
    drop(rx);
    for p in producers {
        p.join();
    }
    let mut all: Vec<u64> = consumers.into_iter().flat_map(|c| c.join()).collect();
    all.sort_unstable();
    assert_eq!(all, (0..2 * PER).collect::<Vec<_>>());
}

#[test]
fn unbounded_cancelled_dequeue_leaves_receiver_clean() {
    // Cancellation safety across the segment machinery: a dequeue future
    // dropped while parked (timeout) must leave the unbounded receiver
    // able to take the next item — including when that item lands in a
    // *new* segment after a roll.
    let (mut tx, mut rx) = unbounded::spmc::channel::<u8>(4);
    block_on(async {
        let r = timeout(Duration::from_millis(20), rx.dequeue()).await;
        assert!(r.is_err(), "empty queue cannot resolve a dequeue");
        // Burst past one segment so delivery crosses a seam.
        for i in 0..10u8 {
            tx.enqueue(i).await.unwrap();
        }
        for want in 0..10u8 {
            let r = timeout(Duration::from_millis(500), rx.dequeue()).await;
            assert_eq!(r.expect("items were queued"), Ok(want));
        }
    });
}

// ---------------------------------------------------------------------------
// Zero-copy bytes lane
// ---------------------------------------------------------------------------

/// Deterministic per-byte pattern so a wrong slot, a stale buffer, or a
/// cross-payload mixup is caught byte-for-byte, not just by length.
fn bytes_payload(i: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|j| (i as u8) ^ (j as u8).wrapping_mul(167).wrapping_add(13))
        .collect()
}

#[test]
fn bytes_spsc_zero_copy_roundtrip_variable_sizes() {
    // Inline, chained (>64 B) and empty payloads through the in-place
    // write / borrowed read path, producer and consumer on separate
    // executor threads.
    let (mut tx, mut rx) = ffq_async::bytes::spsc::channel(16, 64).unwrap();
    let ex = Executor::new(2);
    const N: u64 = 4_000;
    const LENS: [usize; 8] = [0, 1, 17, 63, 64, 65, 200, 450];

    let prod = ex.spawn(async move {
        for i in 0..N {
            let len = LENS[(i % LENS.len() as u64) as usize];
            let mut slot = tx.reserve(len).await.expect("within max_payload");
            slot.copy_from_slice(&bytes_payload(i, len));
            slot.commit();
        }
    });
    let cons = ex.spawn(async move {
        let mut next = 0u64;
        loop {
            match rx.recv().await {
                Ok(view) => {
                    let len = LENS[(next % LENS.len() as u64) as usize];
                    assert_eq!(&*view, &bytes_payload(next, len)[..], "payload {next}");
                    next += 1;
                }
                Err(Disconnected) => break next,
            }
        }
    });

    prod.join();
    assert_eq!(cons.join(), N);
}

#[test]
fn bytes_spmc_fanout_exactly_once() {
    // One producer, three cloned consumers; each payload carries its index
    // in the first 8 bytes and must arrive exactly once across the pool.
    const N: u64 = 6_000;
    const CONSUMERS: usize = 3;
    let (mut tx, rx) = ffq_async::bytes::spmc::channel(32, 64).unwrap();
    let ex = Executor::new(CONSUMERS + 1);

    let consumers: Vec<_> = (0..CONSUMERS)
        .map(|_| {
            let mut rx = rx.clone();
            ex.spawn(async move {
                let mut mine: Vec<u64> = Vec::new();
                loop {
                    match rx.recv_bytes().await {
                        Ok(buf) => {
                            mine.push(u64::from_le_bytes(buf[..8].try_into().unwrap()));
                        }
                        Err(Disconnected) => break mine,
                    }
                }
            })
        })
        .collect();
    drop(rx);

    let prod = ex.spawn(async move {
        for i in 0..N {
            // Mix inline and heap-spilled (>64 B) payloads.
            let len = if i % 5 == 0 { 120 } else { 24 };
            let mut payload = bytes_payload(i, len);
            payload[..8].copy_from_slice(&i.to_le_bytes());
            tx.send_bytes(&payload).await.unwrap();
        }
    });

    prod.join();
    let mut union: Vec<u64> = consumers.into_iter().flat_map(|c| c.join()).collect();
    union.sort_unstable();
    assert_eq!(
        union,
        (0..N).collect::<Vec<_>>(),
        "lost or duplicated payloads"
    );
}

#[test]
fn bytes_mpmc_many_to_many_roundtrip() {
    const PER: u64 = 3_000;
    const PRODUCERS: u64 = 2;
    let (tx, rx) = ffq_async::bytes::mpmc::channel(32, 64).unwrap();
    let ex = Executor::new(4);

    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let mut tx = tx.clone();
            ex.spawn(async move {
                for i in 0..PER {
                    let v = p * PER + i;
                    let mut slot = tx.reserve(16).await.unwrap();
                    slot[..8].copy_from_slice(&v.to_le_bytes());
                    slot[8..].copy_from_slice(&v.to_be_bytes());
                    slot.commit();
                }
            })
        })
        .collect();
    drop(tx);

    let consumers: Vec<_> = (0..2)
        .map(|_| {
            let mut rx = rx.clone();
            ex.spawn(async move {
                let mut mine: Vec<u64> = Vec::new();
                loop {
                    match rx.recv().await {
                        Ok(view) => {
                            let v = u64::from_le_bytes(view[..8].try_into().unwrap());
                            assert_eq!(
                                u64::from_be_bytes(view[8..].try_into().unwrap()),
                                v,
                                "torn payload"
                            );
                            mine.push(v);
                        }
                        Err(Disconnected) => break mine,
                    }
                }
            })
        })
        .collect();
    drop(rx);

    for p in producers {
        p.join();
    }
    let mut all: Vec<u64> = consumers.into_iter().flat_map(|c| c.join()).collect();
    all.sort_unstable();
    assert_eq!(all, (0..PRODUCERS * PER).collect::<Vec<_>>());
}

#[test]
fn bytes_too_large_fails_fast_and_parked_receiver_sees_disconnect() {
    let (mut tx, mut rx) = ffq_async::bytes::spmc::channel(8, 64).unwrap();
    block_on(async {
        // SPMC refuses nothing (heap spill) except absurd lengths; the
        // SPSC chain flavor has a finite max — check that one instead.
        let _ = &mut tx;
        let (mut ctx, _crx) = ffq_async::bytes::spsc::channel(8, 64).unwrap();
        let max = ctx.max_payload();
        match ctx.reserve(max + 1).await {
            Err(ffq_async::ReserveError::TooLarge { len, max: m }) => {
                assert_eq!((len, m), (max + 1, max));
            }
            Ok(_) => panic!("oversize reservation must fail, never truncate"),
        };
    });

    // A receiver parked on an empty queue must wake on sender drop.
    let ex = Executor::new(2);
    let cons = ex.spawn(async move {
        assert_eq!(
            rx.recv().await.err(),
            Some(Disconnected),
            "parked receiver missed the disconnect"
        );
    });
    std::thread::sleep(Duration::from_millis(50));
    drop(tx);
    cons.join();
}
