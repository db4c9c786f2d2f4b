//! Model-checked executions of the core queue protocols, run with
//! `RUSTFLAGS="--cfg loom" cargo test -p ffq --release -- loom_`.
//!
//! Each test drives the *real* queue code (the atomics facade swaps
//! `core::sync::atomic` for `ffq-loom`'s model types) through every
//! schedule the model's preemption bound allows, with weak-memory
//! read-from choices explored at every load. Blocking paths use unbounded
//! model parks, so any lost wake or protocol deadlock fails the test
//! instead of hiding behind a timeout. Models are deliberately tiny —
//! state space is exponential in operations — but each one pins a protocol
//! property: handoff + publication visibility (SPSC), the batched
//! fence/relaxed-store release pass, rank claiming with gap skip and
//! sticky disconnect (SPMC), and the `(rank, gap)` pair-CAS races (MPMC).
#![cfg(loom)]

use ffq::error::TryDequeueError;
use ffq::{mpmc, spmc, spsc, WaitConfig};
use ffq_loom::thread;

/// Minimal spin phase: one yield round, then park (unbounded).
fn eager() -> WaitConfig {
    WaitConfig {
        spin_limit: 0,
        yield_limit: 0,
        max_park: None,
        park: true,
    }
}

/// SPSC handoff: a producer publishes two items (data write before Release
/// rank store); the consumer must receive exactly them, in order, through
/// blocking dequeues — across every schedule and read-from choice.
#[test]
fn loom_spsc_enqueue_dequeue_handoff() {
    ffq_loom::model(|| {
        let (mut tx, mut rx) = spsc::channel::<u64>(4);
        rx.set_wait_config(eager());
        let p = thread::spawn(move || {
            tx.enqueue(7);
            tx.enqueue(8);
        });
        assert_eq!(rx.dequeue(), Ok(7));
        assert_eq!(rx.dequeue(), Ok(8));
        // The producer handle dropped inside the thread; a drained queue
        // must now report the hangup, not a bogus Empty.
        p.join().unwrap();
        assert_eq!(rx.try_dequeue(), Err(TryDequeueError::Disconnected));
    });
}

/// The typed producer's not-full park, for one channel flavor: capacity 2,
/// a producer thread with `eager()` makes three blocking enqueues against
/// three blocking dequeues, so the third enqueue can find the queue full on
/// its inline attempt and enter the cold wait loop, where it parks until a
/// dequeue's head advance wakes it. Parks are unbounded, so a wake lost
/// between the first miss and the park deadlocks the model.
macro_rules! enqueue_parks_on_full {
    ($channel:expr) => {{
        let (mut tx, mut rx) = $channel;
        rx.set_wait_config(eager());
        let p = thread::spawn(move || {
            tx.set_wait_config(eager());
            for i in 1..=3u64 {
                tx.enqueue(i);
            }
        });
        for i in 1..=3u64 {
            assert_eq!(rx.dequeue(), Ok(i));
        }
        p.join().unwrap();
    }};
}

#[test]
fn loom_spsc_enqueue_parks_on_full() {
    ffq_loom::model(|| enqueue_parks_on_full!(spsc::channel::<u64>(2)));
}

/// [`loom_spsc_enqueue_parks_on_full`] over the multi-producer wait loop.
/// Preemption bound 1: at the default of 2 the model passes two million
/// executions.
#[test]
fn loom_mpmc_enqueue_parks_on_full() {
    ffq_loom::model_bounded(1, || enqueue_parks_on_full!(mpmc::channel::<u64>(2)));
}

/// The batched release pass: `enqueue_many` writes payloads first and
/// publishes all ranks afterwards with one `fence(Release)` followed by
/// *relaxed* rank stores. The consumer's Acquire rank load must still
/// order the payload read after the payload write (fence-to-atomic
/// synchronization) in every execution.
#[test]
fn loom_spsc_batched_release_pass() {
    ffq_loom::model(|| {
        let (mut tx, mut rx) = spsc::channel::<u64>(4);
        rx.set_wait_config(eager());
        let p = thread::spawn(move || {
            assert_eq!(tx.enqueue_many([7, 8]), 2);
        });
        assert_eq!(rx.dequeue(), Ok(7));
        assert_eq!(rx.dequeue(), Ok(8));
        p.join().unwrap();
    });
}

/// SPMC rank claiming with gap skip and sticky disconnect: two consumers
/// split a two-item queue exactly-once (one via a parked claim, one via a
/// fresh head claim), a full-queue `try_enqueue` burns a run of gap
/// announcements, and after the producer drops a single `try_dequeue`
/// must skip the whole gap run and report `Disconnected`.
#[test]
fn loom_spmc_claims_gaps_and_disconnect() {
    ffq_loom::model(|| {
        let (mut tx, mut rx1) = spmc::channel::<u64>(2);
        rx1.set_wait_config(eager());
        let mut rx2 = rx1.clone();
        rx2.set_wait_config(eager());
        tx.try_enqueue(10).unwrap();
        tx.try_enqueue(11).unwrap();
        // Park rank 0 on rx1, then scan a full queue: ranks 2 and 3 become
        // gap announcements at the (still occupied) cells 0 and 1.
        rx1.claim_batch(1);
        assert!(tx.try_enqueue(99).is_err());
        let c2 = thread::spawn(move || rx2.dequeue().unwrap());
        // rx1 satisfies its parked rank 0; rx2 claims rank 1 fresh.
        assert_eq!(rx1.dequeue(), Ok(10));
        assert_eq!(c2.join().unwrap(), 11);
        drop(tx);
        // One call: gap skips over ranks 2 and 3, then the sticky
        // disconnect verdict — never a bogus Empty.
        assert_eq!(rx1.try_dequeue(), Err(TryDequeueError::Disconnected));
    });
}

/// The batched-enqueue gap-loss recovery: `enqueue_many` sizes its rank
/// run from a `head`/`tail` snapshot, so a rival producer claiming the
/// free space inside that window makes the run land on still-occupied
/// cells. Those ranks must be resolved as gaps (`void_rank`) — never left
/// claimed, which would stall the consumer assigned them forever — and
/// the affected items must re-enter through the per-item path without
/// breaking the batch producer's FIFO order.
///
/// Kept to two threads so the bounded exploration stays tractable: the
/// main thread plays rival producer (two `try_enqueue`s into the sizing
/// window of the spawned `enqueue_many`) and then consumer, draining all
/// six items through blocking dequeues that must skip any gap ranks the
/// lost run created — including the interleaving where the batch producer
/// parks on a full queue after voiding its run and is only unblocked by
/// those drains.
///
/// Preemption bound 1 keeps the exploration under the execution cap; the
/// overshoot needs exactly one context switch (inside the sizing window),
/// so the target race is still covered.
#[test]
fn loom_mpmc_batch_gap_loss() {
    ffq_loom::model_bounded(1, || {
        let (mut tx, mut rx) = mpmc::channel::<u64>(4);
        rx.set_wait_config(eager());
        // Half-fill: cells 0 and 1 hold items, so an overshot run lands
        // on occupied cells.
        tx.try_enqueue(1).unwrap();
        tx.try_enqueue(2).unwrap();
        let mut tx1 = tx.clone();
        let p1 = thread::spawn(move || {
            tx1.set_wait_config(eager());
            assert_eq!(tx1.enqueue_many([10, 11]), 2);
        });
        // Racing the spawned producer's sizing window: when these claims
        // slot between its `head` load and `fetch_add`, its run of ranks
        // overshoots onto cells 0 and 1. In schedules where the batch
        // lands first the queue may already be full — a `Full` rejection
        // is then the correct outcome, and the item simply isn't in play.
        let mut main_seq = vec![1u64, 2];
        for v in [3u64, 4] {
            if tx.try_enqueue(v).is_ok() {
                main_seq.push(v);
            }
        }
        drop(tx);
        let mut expected: Vec<u64> = main_seq.iter().copied().chain([10, 11]).collect();
        // Every dequeue runs before the join: a voided run can cascade
        // (the per-item re-entry can burn further gap ranks), so the
        // parked producer may need drains right up to the last item.
        let mut got = Vec::new();
        for _ in 0..expected.len() {
            got.push(rx.dequeue().unwrap());
        }
        p1.join().unwrap();
        assert_eq!(rx.try_dequeue(), Err(TryDequeueError::Disconnected));
        let mut sorted = got.clone();
        sorted.sort_unstable();
        expected.sort_unstable();
        assert_eq!(sorted, expected, "lost or duplicated: {got:?}");
        // Per-producer FIFO: the main handle's items in order, and the
        // batch producer's 10 before 11 even when the run was voided and
        // re-entered per-item.
        for seq in [&main_seq[..], &[10, 11]] {
            let pos: Vec<usize> = seq
                .iter()
                .map(|v| got.iter().position(|g| g == v).unwrap())
                .collect();
            assert!(
                pos.windows(2).all(|w| w[0] < w[1]),
                "order violated: {got:?}"
            );
        }
    });
}

/// The sharded frontend's block rotation under a single consumer: the
/// producer publishes three items through strict rotation over two shards
/// (gapless claims — values 0 and 2 land on shard 0, value 1 on shard 1)
/// while the consumer drains through blocking dequeues to the disconnect
/// verdict. Every item must arrive exactly once, shard 0's pair in rank
/// order on the one handle that saw both, and the drained queue must
/// report `Disconnected` — never a bogus verdict over undelivered items.
///
/// This model found a real bug: the disconnect verdict re-sampled the
/// producer counts *after* the drain pass, so a stale "producers alive"
/// read could skip the re-scan and a fresh "producers gone" read at
/// verdict time then disconnected over items the drain never saw.
#[test]
fn loom_shard_rotation_fifo() {
    ffq_loom::model_bounded(1, || {
        let (mut tx, mut rx) = ffq::shard::channel_with_geometry::<u64>(4, 2, 1);
        rx.set_wait_config(eager());
        let p = thread::spawn(move || {
            assert_eq!(tx.enqueue_many(0..3u64), 3);
        });
        // Blocking dequeues: a lost wake on the aggregate not-empty cell
        // deadlocks the model instead of hiding behind a timeout.
        let mut got = Vec::new();
        while let Ok(v) = rx.dequeue() {
            got.push(v);
        }
        p.join().unwrap();
        // Per-shard FIFO is the one order the relaxed contract always
        // keeps: values 0 and 2 share shard 0 and this handle saw both,
        // so they must come out in rank order.
        let s0: Vec<u64> = got.iter().copied().filter(|v| *v != 1).collect();
        assert_eq!(s0, [0, 2], "shard-0 FIFO violated: {got:?}");
        got.sort_unstable();
        assert_eq!(
            got,
            [0, 1, 2],
            "lost item; len={} stats={:?}",
            rx.len_hint(),
            rx.stats(),
        );
        assert_eq!(rx.try_dequeue(), Err(TryDequeueError::Disconnected));
    });
}

/// The sharded claim/steal protocol under racing consumers: two consumer
/// handles contend for one item on each of two shards — c-choices
/// occupancy sampling over `len_hint`s that may be stale by claim time,
/// the bounded head claim against the laggard cap, and the work-stealing
/// fallback scan racing the other handle's drain of the same shard. The
/// union of both drains must be loss-free and duplicate-free, and both
/// handles must reach the disconnect verdict — under every schedule the
/// preemption bound allows.
///
/// Geometry 2 shards × block 1 × one item per shard keeps the state
/// space inside the execution cap with three threads; the enqueues run
/// deterministically *before* the spawns for the same reason — the
/// enqueue-vs-drain interleaving surface is covered by the (much
/// cheaper) single-consumer model above, so here only the producer's
/// drop and the two competing drains interleave. Preemption bound 1
/// still covers the target races — a stale occupancy sample at claim
/// time, a steal landing mid-drain, and the drop's one-shard-at-a-time
/// handle-count decrements racing a disconnect verdict each need
/// exactly one context switch.
///
/// This model found a real bug: `consumer_ready` folded each shard's
/// producers-gone term into its `any()`, so the window between a
/// dropping producer's first and last per-shard decrement left the
/// predicate true with no progress possible — a busy-poll the DFS
/// reported as a thread-0 livelock (see `consumer_ready` for the
/// `any`/`all` split that fixes it).
#[test]
fn loom_shard_claim_steal() {
    ffq_loom::model_bounded(1, || {
        let (mut tx, mut rx1) = ffq::shard::channel_with_geometry::<u64>(4, 2, 1);
        rx1.set_wait_config(eager());
        let mut rx2 = rx1.clone();
        rx2.set_wait_config(eager());
        assert_eq!(tx.enqueue_many(0..2u64), 2);
        // The producer handle drops on its own thread: the per-shard
        // handle-count decrements land one at a time against the drains.
        let p = thread::spawn(move || drop(tx));
        // Both handles drain to the disconnect verdict: stashed items are
        // always served before `Disconnected`, so the union must be
        // loss-free however the steals land.
        let c2 = thread::spawn(move || {
            let mut got = Vec::new();
            while let Ok(v) = rx2.dequeue() {
                got.push(v);
            }
            (got, rx2.stats())
        });
        let mut got = Vec::new();
        while let Ok(v) = rx1.dequeue() {
            got.push(v);
        }
        let (theirs, c2_stats) = c2.join().unwrap();
        got.extend(theirs);
        p.join().unwrap();
        got.sort_unstable();
        assert_eq!(
            got,
            [0, 1],
            "lost or duplicated item; len={} c1_stats={:?} c2_stats={c2_stats:?}",
            rx1.len_hint(),
            rx1.stats(),
        );
        assert_eq!(rx1.try_dequeue(), Err(TryDequeueError::Disconnected));
    });
}

/// The unbounded tier's segment seam: a producer that fills its 2-cell
/// segment rolls — allocates a successor, links it (Release, before the
/// seal), seals the old segment, and keeps enqueueing — while the consumer
/// concurrently drains across the boundary: it must observe the seal only
/// together with the link, prune nothing it could still satisfy, advance
/// `head_seg` exactly once, and retire the drained segment through the era
/// registry without freeing anything the producer's slot still protects.
/// Every item arrives in order through blocking dequeues (a lost wake on
/// the *new* segment's not-empty cell deadlocks the model), and the
/// drained queue reports `Disconnected` — across every schedule the
/// preemption bound allows.
///
/// Preemption bound 2 keeps the unbounded tier's extra machinery (link
/// AtomicPtr, SeqCst era slots, the retire spinlock) inside the execution
/// cap; the seam races each need at most two context switches (one inside
/// the roll's link/seal window, one inside the consumer's
/// seal-check/advance window).
#[test]
fn loom_segment_link_advance() {
    ffq_loom::model_bounded(2, || {
        let (mut tx, mut rx) = ffq::unbounded::spsc::channel::<u64>(2);
        rx.set_wait_config(eager());
        let p = thread::spawn(move || {
            // Three items through a 2-cell segment: the third forces a
            // roll, so the seam is crossed in every execution.
            tx.enqueue(7);
            tx.enqueue(8);
            tx.enqueue(9);
        });
        assert_eq!(rx.dequeue(), Ok(7));
        assert_eq!(rx.dequeue(), Ok(8));
        assert_eq!(rx.dequeue(), Ok(9));
        p.join().unwrap();
        // Producer gone, both segments drained: the seam must not turn the
        // hangup into a bogus Empty (or strand the consumer on the sealed
        // segment).
        assert_eq!(rx.try_dequeue(), Err(TryDequeueError::Disconnected));
    });
}

/// The multi-producer roll's tail publication: a roller that stalls
/// between winning the `next`-link CAS and publishing `tail_seg` lets a
/// later roll's publish race it, so publication must be monotone by era
/// (the tagged pair CAS in `Ctl::publish_tail`), not a one-shot pointer
/// CAS from the roller's own segment. With the one-shot CAS, the roller
/// of segment k+1 fails silently against the stale tail, the resumed
/// roller of k then re-publishes k+1 over the real list end, and the last
/// producer's drop decrements the *stale* segment's inner count — already
/// sealed, so it underflows — while the true newest segment keeps its
/// count forever: the drained queue answers `Empty` instead of
/// `Disconnected` (and a parked consumer would hang). Two producers each
/// forcing rolls of consecutive 2-cell segments reach that window within
/// the preemption bound; the final verdict must be a hangup under every
/// schedule.
#[test]
fn loom_mpmc_roll_publish_race() {
    ffq_loom::model_bounded(2, || {
        let (tx1, mut rx) = ffq::unbounded::mpmc::channel::<u64>(2);
        let mut tx2 = tx1.clone();
        let mut tx1 = tx1;
        let p1 = thread::spawn(move || {
            for i in 0..3 {
                tx1.enqueue(i);
            }
        });
        let p2 = thread::spawn(move || {
            for i in 10..13 {
                tx2.enqueue(i);
            }
        });
        p1.join().unwrap();
        p2.join().unwrap();
        // Both producers are gone; every item must drain and the hangup
        // must reach the newest segment.
        let mut got = Vec::new();
        while let Ok(v) = rx.try_dequeue() {
            got.push(v);
        }
        assert_eq!(rx.try_dequeue(), Err(TryDequeueError::Disconnected));
        got.sort_unstable();
        assert_eq!(got, [0, 1, 2, 10, 11, 12]);
    });
}

/// Wrong-wakee audit (multi-consumer publish must broadcast): two
/// consumers park on *assigned* ranks — rx1 holds rank 0, rx2 holds rank
/// 1 via `claim_batch` — and the producer publishes both items. A counted
/// `wake(1)` per publish can deliver the first wake to the consumer whose
/// rank is still unpublished (it re-parks) while the right claimant sleeps
/// through its item forever; the model then deadlocks on join. The fix —
/// multi-consumer publishes broadcast on the not-empty cell — must let
/// both claimants drain their ranks under every schedule.
#[test]
fn loom_spmc_publish_wakes_all_claimants() {
    ffq_loom::model_bounded(1, || {
        let (mut tx, mut rx1) = spmc::channel::<u64>(2);
        rx1.set_wait_config(eager());
        let mut rx2 = rx1.clone();
        rx2.set_wait_config(eager());
        // Deterministic rank assignment before any thread runs: rx1 parks
        // rank 0, rx2 parks rank 1.
        rx1.claim_batch(1);
        rx2.claim_batch(1);
        let c1 = thread::spawn(move || rx1.dequeue().unwrap());
        let c2 = thread::spawn(move || rx2.dequeue().unwrap());
        tx.enqueue(10);
        tx.enqueue(11);
        assert_eq!(c1.join().unwrap(), 10);
        assert_eq!(c2.join().unwrap(), 11);
    });
}

/// Batch claims stay below the tail: two consumers race `dequeue_batch`
/// over one published item. A run sized from a head that the other
/// consumer advances first must not land past the tail. If it did, the
/// loser would park an unpublished rank and return it from a later call,
/// after items enqueued behind it (a FIFO inversion).
#[test]
fn loom_spmc_batch_claims_stay_below_the_tail() {
    ffq_loom::model(|| {
        let (mut tx, rx) = spmc::channel::<u64>(4);
        tx.enqueue(10);
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let mut rx = rx.clone();
                thread::spawn(move || {
                    let mut buf = Vec::new();
                    let n = rx.dequeue_batch(&mut buf, 1);
                    assert_eq!(rx.pending_ranks(), 0, "a batch claim outran the tail");
                    n
                })
            })
            .collect();
        drop(rx);
        let got: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(got, 1);
        drop(tx);
    });
}

/// The MPMC `(rank, gap)` pair races on one cell: with the queue full, a
/// second producer's enqueue contends — gap-announce pair CAS against the
/// consumer's rank reset, claim CAS against a re-announced gap — while a
/// consumer drains. Every item must come out exactly once, per-producer
/// order preserved.
#[test]
fn loom_mpmc_pair_cas_race() {
    ffq_loom::model(|| {
        let (mut tx, mut rx) = mpmc::channel::<u64>(2);
        rx.set_wait_config(eager());
        tx.enqueue(1);
        tx.enqueue(2);
        let mut tx2 = tx.clone();
        drop(tx);
        let p2 = thread::spawn(move || {
            // Queue is full: this waits for the consumer, then fights for a
            // cell whose words the consumer is resetting concurrently.
            tx2.set_wait_config(eager());
            tx2.enqueue(3);
        });
        let mut got = Vec::new();
        for _ in 0..3 {
            got.push(rx.dequeue().unwrap());
        }
        p2.join().unwrap();
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, [1, 2, 3], "lost or duplicated item: {got:?}");
        // Per-producer FIFO: 1 before 2 (both from the first producer).
        let i1 = got.iter().position(|&v| v == 1).unwrap();
        let i2 = got.iter().position(|&v| v == 2).unwrap();
        assert!(i1 < i2, "per-producer order violated: {got:?}");
    });
}

/// The zero-copy bytes handoff: reserve → in-place slot write → commit
/// (Release publish) → borrowed read → retire. Capacity 2 with three
/// payloads forces the producer to wrap onto the very slot whose
/// `PayloadRef` the consumer may still hold; the reserve must park until
/// the retire recycles the cell (a claimed-but-unretired cell keeps
/// publishing its rank, so the producer treats it as busy). If slot reuse
/// could ever race a live borrow, the content assert under the held view
/// fails the model; if a retire wake were lost, the model deadlocks.
#[test]
fn loom_bytes_spsc_reserve_commit_borrow_retire() {
    use ffq::bytes::{BytesConsumer, BytesProducer};
    ffq_loom::model(|| {
        let (mut tx, mut rx) = spsc::bytes_channel(2, 64).unwrap();
        tx.set_wait_config(eager());
        rx.set_wait_config(eager());
        let p = thread::spawn(move || {
            for i in 1..=3u8 {
                let mut slot = tx.reserve(4).unwrap();
                slot.copy_from_slice(&[i; 4]);
                slot.commit();
            }
        });
        for i in 1..=3u8 {
            let view = rx.recv().unwrap();
            // Read while the rank is still claimed: the producer may be
            // inside its wrap-around reserve right now, and must not have
            // touched this slot.
            assert_eq!(&*view, &[i; 4], "slot reused under a live borrow");
            drop(view); // retire: only now may the producer recycle the slot
        }
        p.join().unwrap();
        assert!(rx.recv().is_err(), "producer gone, queue drained");
    });
}

/// A multi-producer bytes reservation that is dropped uncommitted must be
/// resolved, not abandoned: the abort publishes a tombstone descriptor the
/// consumer retires silently. Racing an abort against a commit, the
/// committed payload must always arrive byte-identical and the tombstone
/// must never surface (a stalled unresolved claim would deadlock the
/// consumer; a delivered tombstone would assert).
#[test]
fn loom_bytes_mpmc_abort_loses_nothing() {
    use ffq::bytes::{BytesConsumer, BytesProducer};
    ffq_loom::model(|| {
        let (mut tx, mut rx) = mpmc::bytes_channel(4, 64).unwrap();
        rx.set_wait_config(eager());
        let mut tx2 = tx.clone();
        let aborter = thread::spawn(move || {
            // Claim a rank, write nothing, drop uncommitted.
            let slot = tx2.try_reserve(8).ok();
            drop(slot);
        });
        tx.send_bytes(&[7u8; 8]).unwrap();
        drop(tx);
        let view = rx.recv().unwrap();
        assert_eq!(&*view, &[7u8; 8], "committed payload corrupted");
        drop(view);
        aborter.join().unwrap();
        // Both producers gone: the tombstone is skipped, never delivered.
        assert!(rx.recv().is_err(), "abort tombstone surfaced as a payload");
    });
}

/// Wrong-wakee regression at the raw layer: two shared-head consumers are
/// attached to one raw producer, as raw-layer embedders (and the bytes
/// engines built over them) can do. rx1 parks on claimed rank 0, rx2 on
/// rank 1; the producer publishes both. A counted `wake(1)` per publish
/// can spend both wakes on the claimant whose rank resolves second while
/// the other sleeps forever (model deadlock). The publish-time wake must
/// broadcast.
#[test]
fn loom_raw_publish_wakes_the_right_claimant() {
    use ffq::cell::{CellSlot, PaddedCell};
    use ffq::layout::LinearMap;
    use ffq::raw::{ConsumerEngine, QueueState, RawConsumer, RawProducer, RawQueue};
    // Bound 3: the misdirected-wake deadlock needs two preemptions of the
    // producer (park both claimants, then let the wrongly woken claimant
    // re-park between the two publishes) plus slack for the eventcount's
    // internal schedule points.
    ffq_loom::model_bounded(3, || {
        let state = Box::new(QueueState::new(1, 1, 2));
        let cells: Box<[PaddedCell<u64>]> = (0..2).map(|_| CellSlot::<u64>::empty()).collect();
        // SAFETY: state/cells outlive every handle (threads are joined
        // before the boxes drop); one producer, two shared-head consumers.
        let q = unsafe {
            RawQueue::<u64, PaddedCell<u64>, LinearMap>::from_raw(&*state, cells.as_ptr())
        };
        let mut tx = unsafe { RawProducer::attach(q) };
        let mut rx1 = unsafe { RawConsumer::<u64, _, _, false>::attach(q) };
        let mut rx2 = unsafe { RawConsumer::<u64, _, _, false>::attach(q) };
        rx1.set_wait_config(eager());
        rx2.set_wait_config(eager());
        // Deterministic rank ownership before any thread runs: rx1 owns
        // rank 0, rx2 owns rank 1. The rank-1 claimant spawns *first* —
        // the model's counted wake picks the lowest blocked thread id, so
        // publishing rank 0 with a `wake(1)` lands on rx2 (who re-parks),
        // exactly the misdirected wake the broadcast fix absorbs.
        rx1.claim_batch(1);
        rx2.claim_batch(1);
        let c2 = thread::spawn(move || rx2.dequeue().unwrap());
        let c1 = thread::spawn(move || rx1.dequeue().unwrap());
        tx.enqueue(10);
        tx.enqueue(11);
        assert_eq!(c1.join().unwrap(), 10);
        assert_eq!(c2.join().unwrap(), 11);
    });
}

/// The broadcast seqlock *cell* protocol, modeled with the payload chunk
/// spelled out as a model atomic. Production `write_racy`/`read_racy`
/// copy payloads through **relaxed `AtomicU64` chunks** (under loom they
/// degrade to plain serialized reads, which the model cannot track), so
/// this replica writes one 8-byte payload chunk through the facade's
/// `AtomicU64` and mirrors `RawBroadcastProducer::send` /
/// `RawBroadcastSubscriber::try_recv` exactly: writer `swap(odd,
/// AcqRel)` → `fence(Release)` → relaxed payload store → `store(even,
/// Release)`; reader `load(Acquire)` → relaxed payload load →
/// `fence(Acquire)` → relaxed stamp re-read.
///
/// The scenario is a capacity-2 ring wrapping: cell 0 holds published
/// rank 0 (stamp 2, payload 1) and the writer overwrites it with rank 2
/// (stamp 5 → payload 3 → stamp 6) while a reader at cursor 0 validates.
/// The property: a reader whose relaxed copy caught *any* of the new
/// payload must fail validation. Without the writer's `fence(Release)`
/// the model finds the torn execution — the swap's release half only
/// orders *prior* accesses, so nothing forces a reader that read payload
/// 3 to also see stamp 5 — which is exactly why `send` carries the fence.
#[test]
fn loom_broadcast_seqlock_cell_rejects_torn_copy() {
    use ffq_sync::atomic::{fence, AtomicU64, Ordering};
    use std::sync::Arc;
    ffq_loom::model(|| {
        let stamp = Arc::new(AtomicU64::new(2)); // seq_published(0)
        let data = Arc::new(AtomicU64::new(1)); // rank-0 payload
        let (w_stamp, w_data) = (Arc::clone(&stamp), Arc::clone(&data));
        let w = thread::spawn(move || {
            w_stamp.swap(5, Ordering::AcqRel); // seq_writing(2)
            fence(Ordering::Release);
            w_data.store(3, Ordering::Relaxed); // rank-2 payload
            w_stamp.store(6, Ordering::Release); // seq_published(2)
        });
        let s1 = stamp.load(Ordering::Acquire);
        if s1 == 2 {
            let copy = data.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            let s2 = stamp.load(Ordering::Relaxed);
            if s2 == 2 {
                assert_eq!(copy, 1, "validated copy leaked the new payload");
            }
        }
        w.join().unwrap();
    });
}

/// Broadcast wraparound end to end: a capacity-2 ring takes three
/// publishes, so rank 2 overwrites cell 0 while the subscriber may be
/// anywhere in its read/park cycle. Checked properties: the recv loop
/// terminates (every parked wait is woken — publish and close wakes are
/// unconditional broadcasts), at most rank 0 is ever reported lost, and
/// cursor arithmetic covers the stream exactly (observed + lost == 3).
/// Payload *values* are not asserted here — under loom `read_racy` is a
/// plain serialized read the model cannot order, so value integrity is
/// the cell model's job above.
#[test]
fn loom_broadcast_wraparound_accounts_for_stream() {
    use ffq::broadcast;
    use ffq::error::BroadcastRecvError;
    ffq_loom::model_bounded(2, || {
        let (mut tx, mut rx) = broadcast::channel::<u64>(2);
        rx.set_wait_config(eager());
        let p = thread::spawn(move || {
            tx.send(1);
            tx.send(2);
            tx.send(3);
        });
        let mut cursor = 0u64;
        let mut lost = 0u64;
        loop {
            match rx.recv() {
                Ok(_) => cursor += 1,
                Err(BroadcastRecvError::Lagged(n)) => {
                    assert!(n > 0);
                    cursor += n;
                    lost += n;
                }
                Err(BroadcastRecvError::Closed) => break,
            }
        }
        assert_eq!(cursor, 3, "observed + lost must cover the stream");
        assert!(lost <= 1, "capacity 2 can lose at most rank 0 here");
        p.join().unwrap();
    });
}

/// Publish-time fan-out wake: two subscribers park on the same
/// not-empty eventcount, then one publish must wake *both* (the
/// unconditional-broadcast rule — a counted wake could hand the single
/// token to one subscriber and strand the other, which loom reports as
/// a deadlock). Each subscriber owns an independent cursor, so each must
/// observe the item, not partition it; both must then see the closure.
#[test]
fn loom_broadcast_publish_wakes_every_subscriber() {
    use ffq::broadcast;
    use ffq::error::BroadcastRecvError;
    ffq_loom::model_bounded(1, || {
        let (mut tx, rx1) = broadcast::channel::<u64>(4);
        let mut rx1 = rx1;
        rx1.set_wait_config(eager());
        let mut rx2 = rx1.clone();
        let c1 = thread::spawn(move || {
            assert_eq!(rx1.recv(), Ok(7));
            assert_eq!(rx1.recv(), Err(BroadcastRecvError::Closed));
        });
        let c2 = thread::spawn(move || {
            assert_eq!(rx2.recv(), Ok(7));
            assert_eq!(rx2.recv(), Err(BroadcastRecvError::Closed));
        });
        tx.send(7);
        drop(tx);
        c1.join().unwrap();
        c2.join().unwrap();
    });
}

/// Closure race: the sender publishes once and drops while the
/// subscriber is anywhere in its park/check cycle. The subscriber must
/// observe the item *and then* the closure — never a premature `Closed`
/// (the producers==0 load is Acquire-ordered before the tail re-check)
/// and never a missed drop-wake (which would deadlock the model).
#[test]
fn loom_broadcast_sender_drop_wakes_and_closes() {
    use ffq::broadcast;
    use ffq::error::BroadcastRecvError;
    ffq_loom::model(|| {
        let (mut tx, mut rx) = broadcast::channel::<u64>(2);
        rx.set_wait_config(eager());
        let p = thread::spawn(move || {
            tx.send(42);
            // tx drops here: producers -> 0, then wake_all.
        });
        assert_eq!(rx.recv(), Ok(42));
        assert_eq!(rx.recv(), Err(BroadcastRecvError::Closed));
        p.join().unwrap();
    });
}
