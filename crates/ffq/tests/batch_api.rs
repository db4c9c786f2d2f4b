//! Tests for the bulk and iterator conveniences on all three variants.

use ffq::TryDequeueError;

#[test]
fn spmc_enqueue_many_and_drain() {
    let (mut tx, mut rx) = ffq::spmc::channel::<u64>(64);
    assert_eq!(tx.enqueue_many(0..40), 40);
    let mut buf: Vec<u64> = rx.try_iter().take(25).collect();
    assert_eq!(buf, (0..25).collect::<Vec<u64>>());
    buf.extend(rx.try_iter().take(100));
    assert_eq!(buf.len(), 40);
    assert_eq!(rx.try_iter().count(), 0);
}

#[test]
fn spsc_enqueue_many_and_drain() {
    let (mut tx, mut rx) = ffq::spsc::channel::<u64>(64);
    assert_eq!(tx.enqueue_many(vec![9, 8, 7]), 3);
    let mut buf = Vec::new();
    assert_eq!(rx.dequeue_batch(&mut buf, 10), 3);
    assert_eq!(buf, vec![9, 8, 7]);
}

#[test]
fn mpmc_enqueue_many_and_drain() {
    let (mut tx, mut rx) = ffq::mpmc::channel::<u64>(64);
    assert_eq!(tx.enqueue_many(0..10), 10);
    let mut buf = Vec::new();
    assert_eq!(rx.dequeue_batch(&mut buf, 10), 10);
    assert_eq!(buf, (0..10).collect::<Vec<u64>>());
}

#[test]
fn spmc_into_iter_blocks_until_disconnect() {
    let (mut tx, rx) = ffq::spmc::channel::<u64>(128);
    let worker = std::thread::spawn(move || rx.into_iter().sum::<u64>());
    tx.enqueue_many(1..=100);
    drop(tx);
    assert_eq!(worker.join().unwrap(), 5050);
}

#[test]
fn spsc_into_iter_yields_in_order() {
    let (mut tx, rx) = ffq::spsc::channel::<u64>(16);
    tx.enqueue_many(0..10);
    drop(tx);
    let v: Vec<u64> = rx.into_iter().collect();
    assert_eq!(v, (0..10).collect::<Vec<u64>>());
}

#[test]
fn mpmc_into_iter_across_producers() {
    let (tx, rx) = ffq::mpmc::channel::<u64>(256);
    let mut tx2 = tx.clone();
    let mut tx1 = tx;
    let p1 = std::thread::spawn(move || tx1.enqueue_many(0..500));
    let p2 = std::thread::spawn(move || tx2.enqueue_many(500..1000));
    let total: u64 = rx.into_iter().count() as u64;
    assert_eq!(p1.join().unwrap() + p2.join().unwrap(), 1000);
    assert_eq!(total, 1000);
}

#[test]
fn drain_respects_pending_rank_semantics() {
    let (mut tx, mut rx) = ffq::spmc::channel::<u64>(16);
    // A drain on an empty queue claims nothing: the emptiness pre-check
    // rejects before any rank is taken from the shared head.
    assert_eq!(rx.try_iter().take(4).count(), 0);
    assert_eq!(rx.stats().ranks_claimed, 0);
    assert_eq!(rx.pending_ranks(), 0);
    tx.enqueue(5);
    let buf: Vec<u64> = rx.try_iter().take(4).collect();
    assert_eq!(buf, vec![5]);
    // A rank parked by an unsatisfied per-item attempt is still resumed —
    // never abandoned — by a later drain.
    assert_eq!(rx.try_dequeue(), Err(TryDequeueError::Empty));
    assert_eq!(rx.pending_ranks(), 1);
    tx.enqueue(6);
    let buf: Vec<u64> = rx.try_iter().take(4).collect();
    assert_eq!(buf, vec![6]);
    assert_eq!(rx.pending_ranks(), 0);
}

#[test]
fn dequeue_batch_roundtrip_all_variants() {
    // SPMC
    let (mut tx, mut rx) = ffq::spmc::channel::<u64>(64);
    tx.enqueue_many(0..48);
    let mut buf = Vec::new();
    assert_eq!(rx.dequeue_batch(&mut buf, 16), 16);
    assert_eq!(rx.dequeue_batch(&mut buf, 64), 32);
    assert_eq!(buf, (0..48).collect::<Vec<u64>>());
    assert_eq!(rx.dequeue_batch(&mut buf, 64), 0);
    assert_eq!(rx.pending_ranks(), 0);

    // MPMC
    let (mut tx, mut rx) = ffq::mpmc::channel::<u64>(64);
    tx.enqueue_many(0..48);
    let mut buf = Vec::new();
    assert_eq!(rx.dequeue_batch(&mut buf, 16), 16);
    assert_eq!(rx.dequeue_batch(&mut buf, 64), 32);
    assert_eq!(buf, (0..48).collect::<Vec<u64>>());
    assert_eq!(rx.dequeue_batch(&mut buf, 64), 0);
    assert_eq!(rx.pending_ranks(), 0);

    // SPSC
    let (mut tx, mut rx) = ffq::spsc::channel::<u64>(64);
    tx.enqueue_many(0..48);
    let mut buf = Vec::new();
    assert_eq!(rx.dequeue_batch(&mut buf, 16), 16);
    assert_eq!(rx.dequeue_batch(&mut buf, 64), 32);
    assert_eq!(buf, (0..48).collect::<Vec<u64>>());
    assert_eq!(rx.dequeue_batch(&mut buf, 64), 0);
}

#[test]
fn claim_batch_is_never_abandoned() {
    let (mut tx, mut rx) = ffq::spmc::channel::<u64>(32);
    tx.enqueue_many(0..4);
    // Claim more ranks than there are items: the surplus parks.
    rx.claim_batch(8);
    assert_eq!(rx.pending_ranks(), 8);
    let mut buf = Vec::new();
    assert_eq!(rx.dequeue_batch(&mut buf, 8), 4);
    assert_eq!(buf, vec![0, 1, 2, 3]);
    assert_eq!(rx.pending_ranks(), 4);
    // The parked run resumes across calls as items arrive, interleaving
    // batch and per-item harvesting.
    tx.enqueue_many(4..8);
    assert_eq!(rx.try_dequeue(), Ok(4));
    buf.clear();
    assert_eq!(rx.dequeue_batch(&mut buf, 8), 3);
    assert_eq!(buf, vec![5, 6, 7]);
    assert_eq!(rx.pending_ranks(), 0);
    // One head RMW for the claim_batch; per-item claims only after the
    // parked run was exhausted.
    assert!(rx.stats().head_rmws <= 2);
}
