//! The scale/latency harness: zero-copy payloads under simulated load.
//!
//! Not a paper figure — this is the repo's judging harness for the
//! bytes lane (ISSUE 8): thousands of simulated clients fan variable-size
//! payloads into a hand-sharded MPMC bytes queue (one
//! `ffq::mpmc::bytes_channel` ring per shard, clients hashed to shards,
//! rank-claiming multi-consumer drain per shard), and every message
//! carries a nanosecond timestamp so consumers record end-to-end latency
//! into HDR-style log-linear histograms ([`ffq_bench::hist`]).
//!
//! Two payload lanes run at identical topology so the difference is
//! exactly the copies:
//!
//! * **zero_copy** — the producer builds the message directly in the
//!   cell's slot buffer (`reserve(len)` → in-place write → `commit`) and
//!   the consumer reads it through the borrowed [`PayloadRef`] view. No
//!   intermediate buffer on either side.
//! * **copy_through** — the producer builds the message in a scratch
//!   `Vec` and `send_bytes` copies it into the slot; the consumer copies
//!   the payload out (`to_vec`) before reading it. This is what a
//!   fixed-item queue forces on variable-size traffic: serialize into a
//!   staging buffer, copy in, copy out.
//!
//! Scenarios:
//!
//! * **per_item_cost** — one thread bounces bursts through a
//!   cache-resident SPSC bytes ring: no parking, no scheduler, no rank
//!   contention, so the lane difference is exactly the copies. This is
//!   the row pair that prices the zero-copy bet itself.
//! * **burst_drain** — every client sends bursts of [`BURST`] messages;
//!   the bounded rings absorb, backpressure producers, and drain. The
//!   p999 shows the queue-buildup tail.
//! * **slow_consumer** — same traffic, but one consumer of shard 0
//!   stalls every [`SLOW_EVERY`] messages. In the zero-copy lane it
//!   stalls *while holding the borrowed view* (processing in place), so
//!   its claimed cell stays busy and the producer gap-skips around it —
//!   the honest cost of borrowing; the copy lane drops the view before
//!   stalling. Degradation, never corruption: every payload still
//!   arrives byte-identical.
//! * **slow_consumer_unbounded** — the same slow consumer over the
//!   unbounded segment-list tier (`ffq::unbounded::mpmc`), where
//!   producers never block and the queue grows instead. An extra *idle*
//!   consumer handle is held as a monitoring tap — exactly the handle
//!   users leave lying around — and because reclamation is handle-driven
//!   it pins every segment behind it (`segments_freed` stays ~0, the
//!   freelist starves). The `catch_up` variant has the tap call
//!   [`catch_up()`] periodically, releasing its era pin so drained
//!   segments actually recycle. Compare `segments_freed`/`freelist_hits`
//!   between the two rows.
//! * **shm_rpc** — cross-process RPC over POSIX shared memory: this
//!   binary re-executes itself as an echo server (`--rpc-echo-server`),
//!   the two processes connected only by shm names (the ISSUE 10 C-ABI
//!   satellite). The client ping-pongs request words through an SPMC
//!   submission queue and an SPSC response queue and records full
//!   round-trip latency. Both lanes talk to the *same* Rust echo server;
//!   only the client-side API differs — `rust_client` drives the native
//!   `ffq_shm` handles, `ffi_client` drives the `ffq-ffi` C ABI
//!   (`ffq_spmc_u64_enqueue`, opaque handles, panic shims, status codes)
//!   exactly as a C program would. The derived `ffi_overhead` row is the
//!   per-item difference: what crossing the ABI boundary costs.
//! * **adapter** — the [`BenchHandle`] word-benchmark interface over the
//!   fixed-item `FfqMpmc` vs the bytes-lane `FfqBytesMpmc` adapter, so
//!   the comparative figures' framing (u64 words) prices the descriptor
//!   machinery directly.
//! * **broadcast_fanout** — the seqlock-cell broadcast lane
//!   (`ffq::broadcast`): one wait-free producer, every subscriber
//!   consumes the *full* stream. Swept over subscriber counts; a slow
//!   subscriber loses items instead of backpressuring the producer, and
//!   the loss is accounted exactly — per row,
//!   `items + lagged_items == publishes × subscribers` (`items` counts
//!   deliveries). The producer finishes its publishes regardless of how
//!   many subscribers ride along (the wait-free claim); `lagged_items`
//!   shows what that costs the laggards, brutally so on a single-core
//!   host where the producer laps parked subscribers constantly.
//!
//! Usage: `fig_scale [--quick] [--clients <n>]`
//! (internal: `fig_scale --rpc-echo-server <base>` is the forked child)
//!
//! Writes `BENCH_scale.json` under `target/bench-results/`; the
//! committed copy lives at `results/BENCH_scale.json`.
//!
//! [`PayloadRef`]: ffq::bytes::PayloadRef
//! [`catch_up()`]: ffq::unbounded::McConsumer::catch_up

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ffq::bytes::{BytesConsumer, BytesProducer, McConsumer, MpProducer};
use ffq_baselines::{
    ffqueue::{FfqBytesMpmc, FfqMpmc},
    BenchHandle, BenchQueue,
};
use ffq_bench::hist::{Histogram, Summary};
use ffq_bench::json_object;
use ffq_bench::output::write_json;
use ffq_shm::{spmc, spsc, ShmDequeueError, ShmRegion};

/// Bytes-MPMC rings the clients hash onto.
const SHARDS: usize = 2;
/// OS threads driving the simulated clients (clients are multiplexed).
const DRIVERS: usize = 2;
/// Rank-claiming consumers per shard ring.
const CONSUMERS_PER_SHARD: usize = 2;
/// Cells per shard ring.
const RING_CAP: usize = 1024;
/// Messages per client burst.
const BURST: usize = 8;
/// Payload sizes swept in the burst/drain scenario.
const PAYLOADS: [usize; 4] = [64, 256, 1024, 4096];
/// Payload sizes swept in the slow-consumer scenario.
const SLOW_PAYLOADS: [usize; 2] = [256, 1024];
/// The slow consumer stalls every this many messages...
const SLOW_EVERY: u64 = 64;
/// ...for this long.
const SLOW_STALL: Duration = Duration::from_micros(200);
/// Segment capacity for the unbounded scenario.
const SEG_CAP: usize = 1024;

/// Payload bytes reserved for the header: `[0..8)` sequence number,
/// `[8..16)` nanosecond timestamp.
const HDR: usize = 16;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Lane {
    ZeroCopy,
    CopyThrough,
}

impl Lane {
    fn name(self) -> &'static str {
        match self {
            Lane::ZeroCopy => "zero_copy",
            Lane::CopyThrough => "copy_through",
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Scenario {
    BurstDrain,
    SlowConsumer,
}

impl Scenario {
    fn name(self) -> &'static str {
        match self {
            Scenario::BurstDrain => "burst_drain",
            Scenario::SlowConsumer => "slow_consumer",
        }
    }
}

/// One measured configuration, as serialized into `BENCH_scale.json`.
#[derive(Debug, Clone)]
struct ScaleRow {
    /// "burst_drain", "slow_consumer", "slow_consumer_unbounded",
    /// "shm_rpc", "adapter".
    scenario: String,
    /// "zero_copy", "copy_through", "unbounded_idle_pin",
    /// "unbounded_catch_up", "rust_client", "ffi_client", "ffi_overhead",
    /// "fixed_item", "bytes".
    lane: String,
    /// Bytes per message (8 for the word-queue adapter rows).
    payload_bytes: usize,
    /// Simulated clients (0 where the notion doesn't apply).
    clients: usize,
    /// Shard rings in the fan-in.
    shards: usize,
    /// Messages moved.
    items: u64,
    /// Wall-clock seconds.
    elapsed_secs: f64,
    /// Wall-clock nanoseconds per message (the per-item cost).
    per_item_ns: f64,
    /// Millions of messages per second.
    mops_per_sec: f64,
    /// End-to-end enqueue→dequeue latency percentiles (zeros for the
    /// throughput-only adapter rows).
    latency: Summary,
    /// For zero_copy rows: copy_through `per_item_ns` at the same
    /// scenario/payload divided by this row's (>1 means zero-copy wins).
    /// 0 when not applicable.
    speedup_vs_copy: f64,
    /// Unbounded rows: fresh segment allocations across all handles.
    segments_allocated: u64,
    /// Unbounded rows: rolls served by the freelist.
    freelist_hits: u64,
    /// Unbounded rows: drained segments retired into the limbo list.
    segments_retired: u64,
    /// Unbounded rows: retired segments proved quiescent and recycled.
    segments_freed: u64,
    /// Broadcast rows: items written off as `Lagged` across all
    /// subscribers (`items` counts actual deliveries; the two always sum
    /// to publishes × subscribers). 0 elsewhere.
    lagged_items: u64,
}
json_object!(ScaleRow: scenario, lane, payload_bytes, clients, shards, items, elapsed_secs,
    per_item_ns, mops_per_sec, latency, speedup_vs_copy, segments_allocated, freelist_hits,
    segments_retired, segments_freed, lagged_items);

impl ScaleRow {
    #[allow(clippy::too_many_arguments)]
    fn new(
        scenario: &str,
        lane: &str,
        payload_bytes: usize,
        clients: usize,
        shards: usize,
        items: u64,
        elapsed: Duration,
        latency: Summary,
    ) -> Self {
        let secs = elapsed.as_secs_f64().max(1e-9);
        Self {
            scenario: scenario.to_string(),
            lane: lane.to_string(),
            payload_bytes,
            clients,
            shards,
            items,
            elapsed_secs: secs,
            per_item_ns: secs * 1e9 / items.max(1) as f64,
            mops_per_sec: items as f64 / secs / 1e6,
            latency,
            speedup_vs_copy: 0.0,
            segments_allocated: 0,
            freelist_hits: 0,
            segments_retired: 0,
            segments_freed: 0,
            lagged_items: 0,
        }
    }
}

/// Fills `buf` with the message for `seq`: sequence number, a zeroed
/// timestamp slot (stamped at the last moment before publish), then
/// pattern words derived from `seq` so the consumer can verify every
/// byte it claims to have received.
fn fill_payload(buf: &mut [u8], seq: u64) {
    buf[..8].copy_from_slice(&seq.to_le_bytes());
    buf[8..HDR].copy_from_slice(&0u64.to_le_bytes());
    let mut i = 0u64;
    let mut chunks = buf[HDR..].chunks_exact_mut(8);
    for chunk in &mut chunks {
        let w = seq ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        chunk.copy_from_slice(&w.to_le_bytes());
        i += 1;
    }
    let rem = chunks.into_remainder();
    if !rem.is_empty() {
        let w = (seq ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).to_le_bytes();
        let n = rem.len();
        rem.copy_from_slice(&w[..n]);
    }
}

/// Verifies a received message against [`fill_payload`]'s pattern and
/// returns `(seq, stamp_ns)`. Panics on any corrupted byte — the harness
/// doubles as an integrity test.
fn verify_payload(buf: &[u8]) -> (u64, u64) {
    let mut w8 = [0u8; 8];
    w8.copy_from_slice(&buf[..8]);
    let seq = u64::from_le_bytes(w8);
    w8.copy_from_slice(&buf[8..HDR]);
    let stamp = u64::from_le_bytes(w8);
    // Branch-free word compare (one assert at the end) so verification
    // runs at memory speed and doesn't drown the lane difference the
    // harness exists to measure.
    let mut diff = 0u64;
    let mut i = 0u64;
    let mut chunks = buf[HDR..].chunks_exact(8);
    for chunk in &mut chunks {
        w8.copy_from_slice(chunk);
        diff |= u64::from_le_bytes(w8) ^ seq ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        i += 1;
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let w = (seq ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).to_le_bytes();
        diff |= u64::from(rem != &w[..rem.len()]);
    }
    assert_eq!(diff, 0, "payload corrupted (seq {seq})");
    (seq, stamp)
}

/// Runs one (scenario, lane, payload) configuration through the sharded
/// bytes fan-in and returns its row.
fn run_bytes_config(
    scenario: Scenario,
    lane: Lane,
    payload: usize,
    clients: usize,
    bursts_per_client: usize,
) -> ScaleRow {
    let items_total = (clients * bursts_per_client * BURST) as u64;
    let mut producers: Vec<Vec<MpProducer>> = (0..DRIVERS).map(|_| Vec::new()).collect();
    let mut consumers: Vec<(usize, McConsumer<true>)> = Vec::new();
    for shard in 0..SHARDS {
        let (tx, rx) = ffq::mpmc::bytes_channel(RING_CAP, payload)
            .expect("harness geometry within layout limits");
        for driver_producers in producers.iter_mut() {
            driver_producers.push(tx.clone());
        }
        for _ in 0..CONSUMERS_PER_SHARD {
            consumers.push((shard, rx.clone()));
        }
        // `tx`/`rx` drop here: the clones above are the only handles, so
        // consumers see Disconnected exactly when the drivers finish.
    }

    let epoch = Instant::now();
    let start = Instant::now();

    let driver_threads: Vec<_> = producers
        .into_iter()
        .enumerate()
        .map(|(driver, mut txs)| {
            std::thread::spawn(move || {
                let mut scratch = vec![0u8; payload];
                let mut counter = 0u64;
                // Clients are multiplexed round-robin: each round, every
                // client this driver simulates emits one burst.
                let my_clients: Vec<usize> = (driver..clients).step_by(DRIVERS).collect();
                for _round in 0..bursts_per_client {
                    for &client in &my_clients {
                        let shard = client % SHARDS;
                        for _ in 0..BURST {
                            let seq = (driver as u64) << 48 | counter;
                            counter += 1;
                            match lane {
                                Lane::ZeroCopy => {
                                    let mut slot = txs[shard]
                                        .reserve(payload)
                                        .expect("payload sized to the slot buffer");
                                    fill_payload(&mut slot, seq);
                                    let now = epoch.elapsed().as_nanos() as u64;
                                    slot[8..HDR].copy_from_slice(&now.to_le_bytes());
                                    slot.commit();
                                }
                                Lane::CopyThrough => {
                                    fill_payload(&mut scratch, seq);
                                    let now = epoch.elapsed().as_nanos() as u64;
                                    scratch[8..HDR].copy_from_slice(&now.to_le_bytes());
                                    txs[shard]
                                        .send_bytes(&scratch)
                                        .expect("payload sized to the slot buffer");
                                }
                            }
                        }
                    }
                }
            })
        })
        .collect();

    let consumer_threads: Vec<_> = consumers
        .into_iter()
        .enumerate()
        .map(|(idx, (shard, mut rx))| {
            let slow = scenario == Scenario::SlowConsumer && shard == 0 && idx == 0;
            std::thread::spawn(move || {
                let mut hist = Histogram::new();
                let mut got = 0u64;
                loop {
                    match lane {
                        Lane::ZeroCopy => match rx.recv() {
                            Ok(view) => {
                                let now = epoch.elapsed().as_nanos() as u64;
                                let (_seq, stamp) = verify_payload(&view);
                                hist.record(now.saturating_sub(stamp));
                                got += 1;
                                if slow && got.is_multiple_of(SLOW_EVERY) {
                                    // Stall while holding the borrowed
                                    // view: the cell stays busy and the
                                    // producer gap-skips around it.
                                    std::thread::sleep(SLOW_STALL);
                                }
                                drop(view);
                            }
                            Err(_) => break,
                        },
                        Lane::CopyThrough => {
                            let owned = match rx.recv() {
                                Ok(view) => view.to_vec(),
                                Err(_) => break,
                            };
                            let now = epoch.elapsed().as_nanos() as u64;
                            let (_seq, stamp) = verify_payload(&owned);
                            hist.record(now.saturating_sub(stamp));
                            got += 1;
                            if slow && got.is_multiple_of(SLOW_EVERY) {
                                // The copy released the cell already;
                                // the stall hits only this thread.
                                std::thread::sleep(SLOW_STALL);
                            }
                        }
                    }
                }
                (hist, got)
            })
        })
        .collect();

    for t in driver_threads {
        t.join().expect("driver thread panicked");
    }
    let mut hist = Histogram::new();
    let mut got_total = 0u64;
    for t in consumer_threads {
        let (h, got) = t.join().expect("consumer thread panicked");
        hist.merge(&h);
        got_total += got;
    }
    let elapsed = start.elapsed();
    assert_eq!(
        got_total, items_total,
        "harness lost or duplicated messages"
    );

    ScaleRow::new(
        scenario.name(),
        lane.name(),
        payload,
        clients,
        SHARDS,
        items_total,
        elapsed,
        hist.summary(),
    )
}

/// The slow consumer over the unbounded tier, with an idle monitoring
/// tap that either pins reclamation (`catch_up == false`) or releases
/// its pin periodically (`catch_up == true`).
fn run_unbounded_slow(catch_up: bool, items_total: u64) -> ScaleRow {
    let (tx, rx) = ffq::unbounded::mpmc::channel::<[u64; 2]>(SEG_CAP);
    // The idle tap: cloned up front, then held without polling — the
    // handle users keep "just in case" that silently pins every segment
    // behind its era.
    let mut tap = rx.clone();
    let done = Arc::new(AtomicBool::new(false));

    let epoch = Instant::now();
    let start = Instant::now();
    let per_driver = items_total / DRIVERS as u64;
    let items_total = per_driver * DRIVERS as u64;

    let drivers: Vec<_> = (0..DRIVERS)
        .map(|driver| {
            let mut tx = tx.clone();
            std::thread::spawn(move || {
                for i in 0..per_driver {
                    let seq = (driver as u64) << 48 | i;
                    let stamp = epoch.elapsed().as_nanos() as u64;
                    // Never blocks: full segments roll, the queue grows.
                    tx.enqueue([seq, stamp]);
                }
                tx.seg_stats()
            })
        })
        .collect();

    let tap_done = Arc::clone(&done);
    let tap_thread = std::thread::spawn(move || {
        while !tap_done.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_micros(500));
            if catch_up {
                // Follow the segment list without consuming: releases
                // this handle's era pin on everything behind the tip.
                tap.catch_up();
            }
        }
        tap.seg_stats()
    });

    let consumer = std::thread::spawn(move || {
        let mut rx = rx;
        let mut hist = Histogram::new();
        let mut got = 0u64;
        // Slow phase over the first half (the queue grows), then an
        // unthrottled drain.
        while got < items_total {
            match rx.try_dequeue() {
                Ok([_seq, stamp]) => {
                    let now = epoch.elapsed().as_nanos() as u64;
                    hist.record(now.saturating_sub(stamp));
                    got += 1;
                    if got < items_total / 2 && got.is_multiple_of(SLOW_EVERY) {
                        std::thread::sleep(SLOW_STALL);
                    }
                }
                Err(_) => std::hint::spin_loop(),
            }
        }
        (hist, rx)
    });

    let mut seg = ffq::SegmentStats::default();
    for d in drivers {
        seg = seg.merge(d.join().expect("driver thread panicked"));
    }
    let (hist, mut rx) = consumer.join().expect("consumer thread panicked");
    let elapsed = start.elapsed();

    // Coda: roll a few more segments through the drained queue (outside
    // the timed window, not counted in `items_total`) so the limbo scans
    // that run on rolls and seam advances get a chance to recycle what
    // the drain retired. The main thread's spare `tx` idle-pinned the
    // list until now — its first coda enqueue chases to the tip and
    // releases that pin — so after the coda the only era still parked in
    // the past is the tap's, and `segments_freed` isolates its effect.
    let mut tx = tx;
    let coda = 4 * SEG_CAP as u64;
    for _ in 0..coda {
        tx.enqueue([0, 0]);
    }
    let mut drained = 0u64;
    while drained < coda {
        if rx.try_dequeue().is_ok() {
            drained += 1;
        } else {
            std::hint::spin_loop();
        }
    }
    seg = seg.merge(tx.seg_stats());
    seg = seg.merge(rx.seg_stats());
    drop(tx);
    drop(rx);

    done.store(true, Ordering::Release);
    seg = seg.merge(tap_thread.join().expect("tap thread panicked"));

    let mut row = ScaleRow::new(
        "slow_consumer_unbounded",
        if catch_up {
            "unbounded_catch_up"
        } else {
            "unbounded_idle_pin"
        },
        16,
        0,
        1,
        items_total,
        elapsed,
        hist.summary(),
    );
    row.segments_allocated = seg.segments_allocated;
    row.freelist_hits = seg.freelist_hits;
    row.segments_retired = seg.segments_retired;
    row.segments_freed = seg.segments_freed;
    row
}

/// The contention-free per-item cost of each lane: one thread bounces
/// bursts through an SPSC bytes ring small enough to stay cache-resident,
/// so the *only* difference between the lanes is the copies — no parking,
/// no scheduler, no rank contention. This is the row pair that prices the
/// zero-copy bet itself; the threaded scenarios above price it under
/// load (where protocol + scheduling noise is shared by both lanes).
fn run_per_item(lane: Lane, payload: usize, items: u64) -> ScaleRow {
    const PI_RING: usize = 64;
    const PI_BURST: u64 = PI_RING as u64 / 2;
    let (mut tx, mut rx) =
        ffq::spsc::bytes_channel(PI_RING, payload).expect("harness geometry within layout limits");
    let epoch = Instant::now();
    let mut scratch = vec![0u8; payload];
    let mut hist = Histogram::new();
    let items = items / PI_BURST * PI_BURST;
    let mut seq = 0u64;
    let start = Instant::now();
    while seq < items {
        for _ in 0..PI_BURST {
            match lane {
                Lane::ZeroCopy => {
                    let mut slot = tx.reserve(payload).expect("payload fits the slot");
                    fill_payload(&mut slot, seq);
                    let now = epoch.elapsed().as_nanos() as u64;
                    slot[8..HDR].copy_from_slice(&now.to_le_bytes());
                    slot.commit();
                }
                Lane::CopyThrough => {
                    fill_payload(&mut scratch, seq);
                    let now = epoch.elapsed().as_nanos() as u64;
                    scratch[8..HDR].copy_from_slice(&now.to_le_bytes());
                    tx.send_bytes(&scratch).expect("payload fits the slot");
                }
            }
            seq += 1;
        }
        for _ in 0..PI_BURST {
            match lane {
                Lane::ZeroCopy => {
                    let view = rx.try_recv().expect("burst just published");
                    let now = epoch.elapsed().as_nanos() as u64;
                    let (_seq, stamp) = verify_payload(&view);
                    hist.record(now.saturating_sub(stamp));
                }
                Lane::CopyThrough => {
                    let owned = rx.try_recv().expect("burst just published").to_vec();
                    let now = epoch.elapsed().as_nanos() as u64;
                    let (_seq, stamp) = verify_payload(&owned);
                    hist.record(now.saturating_sub(stamp));
                }
            }
        }
    }
    let elapsed = start.elapsed();
    ScaleRow::new(
        "per_item_cost",
        lane.name(),
        payload,
        1,
        1,
        items,
        elapsed,
        hist.summary(),
    )
}

/// Cells in each RPC queue (one outstanding request, so far oversized).
const RPC_CAP: usize = 256;
/// Untimed ping-pongs before the measured window (attach handshake,
/// first-touch page faults, branch warm-up).
const RPC_WARMUP: u64 = 256;

/// Opens a shared-memory region by name, retrying while the peer process
/// is still creating/formatting it.
fn rpc_open_retry(name: &str) -> ShmRegion {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match ShmRegion::open(name) {
            Ok(region) => return region,
            Err(e) if Instant::now() > deadline => {
                panic!("rpc echo server: open {name} failed: {e}")
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// The child-process half of the `shm_rpc` scenario: attach to the
/// parent's submission (SPMC) and response (SPSC) queues and echo every
/// word back until the client detaches. Never returns.
fn run_rpc_echo_server(base: &str) -> ! {
    let mut rx =
        spmc::attach_consumer::<u64>(rpc_open_retry(&format!("{base}-sub"))).expect("attach sub");
    let mut tx =
        spsc::attach_producer::<u64>(rpc_open_retry(&format!("{base}-rsp"))).expect("attach rsp");
    loop {
        match rx.dequeue() {
            Ok(word) => {
                if tx.enqueue(word).is_err() {
                    std::process::exit(1);
                }
            }
            Err(ShmDequeueError::Disconnected) => std::process::exit(0),
            Err(ShmDequeueError::Poisoned) => std::process::exit(1),
        }
    }
}

/// The native-handle client lane: `ffq_shm` producer/consumer directly.
fn rpc_client_rust(sub: ShmRegion, rsp: ShmRegion, items: u64) -> (Duration, Histogram) {
    let mut tx = spmc::attach_producer::<u64>(sub).expect("attach submission producer");
    let mut rx = spsc::attach_consumer::<u64>(rsp).expect("attach response consumer");
    let mut hist = Histogram::new();
    for seq in 0..RPC_WARMUP {
        tx.enqueue(seq).expect("warmup enqueue");
        assert_eq!(rx.dequeue().expect("warmup echo"), seq);
    }
    let start = Instant::now();
    for seq in 0..items {
        let t0 = Instant::now();
        tx.enqueue(seq).expect("rpc enqueue");
        assert_eq!(
            rx.dequeue().expect("rpc echo"),
            seq,
            "rpc echo out of order"
        );
        hist.record(t0.elapsed().as_nanos() as u64);
    }
    (start.elapsed(), hist)
    // `tx` drops here: clean detach, the echo server sees Disconnected.
}

/// The C-ABI client lane: the same ping-pong, but every call crosses the
/// `ffq-ffi` boundary exactly as a C client would — open regions by name,
/// opaque handles, status codes, panic shims. Same server, same queues;
/// the row difference against [`rpc_client_rust`] is the ABI toll.
fn rpc_client_ffi(sub_name: &str, rsp_name: &str, items: u64) -> (Duration, Histogram) {
    use ffq_ffi::typed::{spmc_u64, spsc_u64};
    use ffq_ffi::{ffq_region_close, ffq_region_open, FFQ_OK};
    use std::ffi::CString;
    use std::ptr;

    let sub_c = CString::new(sub_name).expect("shm name");
    let rsp_c = CString::new(rsp_name).expect("shm name");
    // SAFETY: every pointer below is non-null and used per the ffq.h
    // contract (single thread, one live handle each, closed exactly once).
    unsafe {
        let mut sub = ptr::null_mut();
        assert_eq!(ffq_region_open(sub_c.as_ptr(), &mut sub), FFQ_OK);
        let mut rsp = ptr::null_mut();
        assert_eq!(ffq_region_open(rsp_c.as_ptr(), &mut rsp), FFQ_OK);
        let mut tx = ptr::null_mut();
        assert_eq!(spmc_u64::attach_producer(sub, &mut tx), FFQ_OK);
        let mut rx = ptr::null_mut();
        assert_eq!(spsc_u64::attach_consumer(rsp, &mut rx), FFQ_OK);
        ffq_region_close(sub);
        ffq_region_close(rsp);

        let mut hist = Histogram::new();
        for seq in 0..RPC_WARMUP {
            assert_eq!(spmc_u64::enqueue(tx, seq), FFQ_OK);
            let mut out = 0u64;
            assert_eq!(spsc_u64::dequeue(rx, &mut out), FFQ_OK);
            assert_eq!(out, seq);
        }
        let start = Instant::now();
        for seq in 0..items {
            let t0 = Instant::now();
            assert_eq!(spmc_u64::enqueue(tx, seq), FFQ_OK);
            let mut out = u64::MAX;
            assert_eq!(spsc_u64::dequeue(rx, &mut out), FFQ_OK);
            assert_eq!(out, seq, "rpc echo out of order");
            hist.record(t0.elapsed().as_nanos() as u64);
        }
        let elapsed = start.elapsed();
        spmc_u64::producer::close(tx);
        spsc_u64::consumer::close(rx);
        (elapsed, hist)
    }
}

/// Runs one `shm_rpc` client lane against a fresh echo-server child
/// process and returns its row.
fn run_shm_rpc(ffi: bool, items: u64) -> ScaleRow {
    let lane = if ffi { "ffi_client" } else { "rust_client" };
    let base = format!("ffq-scale-rpc-{}-{lane}", std::process::id());
    let sub_name = format!("{base}-sub");
    let rsp_name = format!("{base}-rsp");
    let _ = ShmRegion::unlink(&sub_name);
    let _ = ShmRegion::unlink(&rsp_name);

    let sub_region = ShmRegion::create(&sub_name, spmc::required_size::<u64>(RPC_CAP).unwrap())
        .expect("create submission region");
    spmc::format::<u64>(&sub_region, RPC_CAP).expect("format submission queue");
    let rsp_region = ShmRegion::create(&rsp_name, spsc::required_size::<u64>(RPC_CAP).unwrap())
        .expect("create response region");
    spsc::format::<u64>(&rsp_region, RPC_CAP).expect("format response queue");

    let exe = std::env::current_exe().expect("current_exe");
    let mut server = std::process::Command::new(exe)
        .arg("--rpc-echo-server")
        .arg(&base)
        .spawn()
        .expect("spawn rpc echo server");

    let (elapsed, hist) = if ffi {
        drop(sub_region);
        drop(rsp_region);
        rpc_client_ffi(&sub_name, &rsp_name, items)
    } else {
        rpc_client_rust(sub_region, rsp_region, items)
    };

    let status = server.wait().expect("reap rpc echo server");
    assert!(status.success(), "rpc echo server failed ({lane})");
    ShmRegion::unlink(&sub_name).expect("unlink submission region");
    ShmRegion::unlink(&rsp_name).expect("unlink response region");

    ScaleRow::new("shm_rpc", lane, 8, 1, 1, items, elapsed, hist.summary())
}

/// Broadcast fan-out: one wait-free producer publishing `[seq, stamp]`
/// pairs flat out, `subscribers` blocking subscribers each consuming the
/// full stream. `items` counts actual deliveries across all subscribers;
/// whatever a laggard loses to ring wrap-around comes back as `Lagged`
/// reports and lands in `lagged_items` — per subscriber,
/// `received + lagged == publishes`, asserted here, so the row proves the
/// lane's no-silent-loss contract at benchmark scale.
fn run_broadcast(subscribers: usize, publishes: u64) -> ScaleRow {
    let (mut tx, rx) = ffq::broadcast::channel::<[u64; 2]>(RING_CAP);
    let epoch = Instant::now();
    let start = Instant::now();

    let handles: Vec<_> = (0..subscribers)
        .map(|_| {
            let mut rx = rx.clone(); // cursor 0: accounts for the full stream
            std::thread::spawn(move || {
                let mut hist = Histogram::new();
                let (mut received, mut lagged) = (0u64, 0u64);
                loop {
                    match rx.recv() {
                        Ok([_seq, stamp]) => {
                            let now = epoch.elapsed().as_nanos() as u64;
                            hist.record(now.saturating_sub(stamp));
                            received += 1;
                        }
                        Err(ffq::BroadcastRecvError::Lagged(n)) => lagged += n,
                        Err(ffq::BroadcastRecvError::Closed) => break,
                    }
                }
                (hist, received, lagged)
            })
        })
        .collect();
    drop(rx);

    for seq in 0..publishes {
        let stamp = epoch.elapsed().as_nanos() as u64;
        tx.send([seq, stamp]);
    }
    drop(tx);

    let mut hist = Histogram::new();
    let (mut delivered, mut lagged_total) = (0u64, 0u64);
    for h in handles {
        let (h_hist, received, lagged) = h.join().expect("subscriber thread panicked");
        assert_eq!(
            received + lagged,
            publishes,
            "broadcast loss must be fully accounted"
        );
        hist.merge(&h_hist);
        delivered += received;
        lagged_total += lagged;
    }
    let elapsed = start.elapsed();

    let mut row = ScaleRow::new(
        "broadcast_fanout",
        &format!("broadcast_x{subscribers}"),
        16,
        subscribers,
        1,
        delivered,
        elapsed,
        hist.summary(),
    );
    row.lagged_items = lagged_total;
    row
}

/// Word-queue adapter comparison: the same enqueue/dequeue ping through
/// [`BenchHandle`] over the fixed-item and bytes-lane adapters.
fn run_adapter<Q: BenchQueue>(lane: &str, payload: usize, items: u64) -> ScaleRow {
    let q = Arc::new(Q::with_capacity(RING_CAP));
    let mut tx = q.register();
    let mut rx = q.register();
    let start = Instant::now();
    let producer = std::thread::spawn(move || {
        for i in 0..items {
            tx.enqueue(i);
        }
    });
    let mut expected = 0u64;
    while expected < items {
        match rx.dequeue() {
            Some(v) => {
                assert_eq!(v, expected, "adapter lane reordered");
                expected += 1;
            }
            None => std::hint::spin_loop(),
        }
    }
    producer.join().expect("producer thread panicked");
    let elapsed = start.elapsed();
    ScaleRow::new(
        "adapter",
        lane,
        payload,
        0,
        1,
        items,
        elapsed,
        Histogram::new().summary(),
    )
}

fn print_rows(rows: &[ScaleRow]) {
    println!(
        "\n{:<26} {:<18} {:>8} {:>9} {:>11} {:>8} {:>10} {:>10} {:>10}",
        "scenario",
        "lane",
        "payload",
        "items",
        "per-item ns",
        "Mops/s",
        "p50 us",
        "p99 us",
        "p999 us"
    );
    for r in rows {
        println!(
            "{:<26} {:<18} {:>8} {:>9} {:>11.1} {:>8.3} {:>10.1} {:>10.1} {:>10.1}",
            r.scenario,
            r.lane,
            r.payload_bytes,
            r.items,
            r.per_item_ns,
            r.mops_per_sec,
            r.latency.p50_ns as f64 / 1e3,
            r.latency.p99_ns as f64 / 1e3,
            r.latency.p999_ns as f64 / 1e3,
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--rpc-echo-server") {
        run_rpc_echo_server(args.get(1).expect("--rpc-echo-server needs a base name"));
    }
    let quick = args.iter().any(|a| a == "--quick");
    let mut clients = if quick { 256 } else { 2048 };
    if let Some(i) = args.iter().position(|a| a == "--clients") {
        clients = args
            .get(i + 1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(clients);
    }
    let bursts_per_client = if quick { 2 } else { 12 };
    let unbounded_items: u64 = if quick { 8_192 } else { 98_304 };
    let adapter_items: u64 = if quick { 20_000 } else { 400_000 };
    let per_item_items: u64 = if quick { 40_000 } else { 800_000 };

    println!(
        "fig_scale: {clients} simulated clients x {DRIVERS} drivers -> {SHARDS} shards x {CONSUMERS_PER_SHARD} consumers (ring {RING_CAP}, burst {BURST})"
    );

    let mut rows: Vec<ScaleRow> = Vec::new();

    for &payload in &PAYLOADS {
        for lane in [Lane::CopyThrough, Lane::ZeroCopy] {
            println!("per_item_cost: {} @{payload}B ...", lane.name());
            rows.push(run_per_item(lane, payload, per_item_items));
        }
    }
    for &payload in &PAYLOADS {
        for lane in [Lane::CopyThrough, Lane::ZeroCopy] {
            println!("burst_drain: {} @{payload}B ...", lane.name());
            rows.push(run_bytes_config(
                Scenario::BurstDrain,
                lane,
                payload,
                clients,
                bursts_per_client,
            ));
        }
    }
    for &payload in &SLOW_PAYLOADS {
        for lane in [Lane::CopyThrough, Lane::ZeroCopy] {
            println!("slow_consumer: {} @{payload}B ...", lane.name());
            rows.push(run_bytes_config(
                Scenario::SlowConsumer,
                lane,
                payload,
                clients,
                bursts_per_client,
            ));
        }
    }
    println!("slow_consumer_unbounded: idle tap pinning ...");
    rows.push(run_unbounded_slow(false, unbounded_items));
    println!("slow_consumer_unbounded: idle tap with catch_up ...");
    rows.push(run_unbounded_slow(true, unbounded_items));

    let broadcast_subs: &[usize] = if quick { &[2, 8] } else { &[2, 8, 32] };
    let broadcast_publishes: u64 = if quick { 40_000 } else { 400_000 };
    for &subs in broadcast_subs {
        println!("broadcast_fanout: {subs} subscribers ...");
        rows.push(run_broadcast(subs, broadcast_publishes));
    }

    let rpc_items: u64 = if quick { 4_000 } else { 40_000 };
    println!("shm_rpc: rust_client ({rpc_items} round trips) ...");
    let rpc_rust = run_shm_rpc(false, rpc_items);
    println!("shm_rpc: ffi_client ({rpc_items} round trips) ...");
    let rpc_ffi = run_shm_rpc(true, rpc_items);
    let (rpc_rust_ns, rpc_ffi_ns) = (rpc_rust.per_item_ns, rpc_ffi.per_item_ns);
    // The FFI-vs-Rust overhead row: same server, same queues, so the
    // per-item delta is exactly the C-ABI boundary (status mapping,
    // opaque-handle deref, panic shim, eager poison gate).
    let mut rpc_overhead = ScaleRow::new(
        "shm_rpc",
        "ffi_overhead",
        8,
        1,
        1,
        rpc_items,
        Duration::from_secs_f64((rpc_ffi_ns - rpc_rust_ns).max(0.0) * rpc_items as f64 / 1e9),
        Histogram::new().summary(),
    );
    rpc_overhead.mops_per_sec = 0.0;
    rows.push(rpc_rust);
    rows.push(rpc_ffi);
    rows.push(rpc_overhead);

    println!("adapter: fixed-item vs bytes BenchHandle ...");
    rows.push(run_adapter::<FfqMpmc>("fixed_item", 8, adapter_items));
    // The bytes adapter reads its payload size from the environment.
    std::env::set_var("FFQ_BENCH_PAYLOAD", "64");
    rows.push(run_adapter::<FfqBytesMpmc>("bytes@64", 64, adapter_items));

    // Zero-copy speedup vs the copy lane at identical scenario/payload.
    let copies: Vec<(String, usize, f64)> = rows
        .iter()
        .filter(|r| r.lane == "copy_through")
        .map(|r| (r.scenario.clone(), r.payload_bytes, r.per_item_ns))
        .collect();
    for r in rows.iter_mut().filter(|r| r.lane == "zero_copy") {
        if let Some((_, _, copy_ns)) = copies
            .iter()
            .find(|(s, p, _)| *s == r.scenario && *p == r.payload_bytes)
        {
            r.speedup_vs_copy = copy_ns / r.per_item_ns;
        }
    }

    print_rows(&rows);
    println!("\nzero-copy speedup vs copy-through (per-item cost):");
    for r in rows.iter().filter(|r| r.speedup_vs_copy > 0.0) {
        println!(
            "  {:<16} @{:>5}B: {:.2}x",
            r.scenario, r.payload_bytes, r.speedup_vs_copy
        );
    }
    for r in rows
        .iter()
        .filter(|r| r.scenario == "slow_consumer_unbounded")
    {
        println!(
            "  {:<22}: {} allocated, {} freelist hits, {} retired, {} freed",
            r.lane, r.segments_allocated, r.freelist_hits, r.segments_retired, r.segments_freed
        );
    }
    println!(
        "  shm_rpc: ffi client {rpc_ffi_ns:.0} ns/rt vs rust client {rpc_rust_ns:.0} ns/rt \
         ({:+.1}% C-ABI overhead)",
        (rpc_ffi_ns / rpc_rust_ns - 1.0) * 100.0
    );
    for r in rows.iter().filter(|r| r.scenario == "broadcast_fanout") {
        println!(
            "  {:<22}: {} delivered, {} written off as Lagged ({} publishes x {} subscribers)",
            r.lane,
            r.items,
            r.lagged_items,
            (r.items + r.lagged_items) / r.clients.max(1) as u64,
            r.clients
        );
    }

    write_json("BENCH_scale", &rows);
    println!("\nwrote BENCH_scale.json (copy the blessed run to results/BENCH_scale.json)");
}
