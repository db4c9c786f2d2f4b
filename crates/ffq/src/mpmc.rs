//! FFQ-m: the multi-producer/multi-consumer extension (Algorithm 2).
//!
//! Producers claim ranks with `fetch_add` on the now-shared `tail` and use a
//! 128-bit double-word CAS over the adjacent `(rank, gap)` cell words to
//! resolve the two races §III-B describes:
//!
//! 1. *Lost update*: a stalled producer overwriting a cell that a faster
//!    producer re-used for a later rank — prevented by claiming the cell
//!    with the `-2` sentinel (`CAS (-1,g) → (-2,g)`) before touching data.
//! 2. *Enqueue in the past*: publishing a rank at a cell whose `gap` has
//!    already been advanced beyond it, producing an item no consumer will
//!    ever dequeue — prevented because the claim CAS atomically verifies
//!    `gap` is still the value `g < rank` that was read, and because gap
//!    announcements themselves are double-word CASes that fail if the cell's
//!    occupancy changed.
//!
//! The price of generality (paper §III-B, last paragraph): enqueue is only
//! lock-free under the never-full assumption, and dequeue is no longer
//! lock-free — a producer preempted between claim and publish stalls the
//! consumer assigned that rank.
//!
//! Dequeue is Algorithm 1's `FFQ_DEQ`, unchanged — the shared-head engine
//! [`crate::raw::RawConsumer`] with `MP = true`, as the SPMC variant runs it
//! with `MP = false`. The batched enqueue claims a rank *run* with one
//! `fetch_add(k)` and resolves every claimed rank with the same per-cell
//! DWCAS protocol; a claimed rank is never left unresolved (it is published
//! or becomes a gap before the call blocks or returns), because an
//! unresolved rank stalls the consumer assigned to it.
//!
//! Algorithm 2's claim-or-gap step (lines 5–9) exists once, in this module,
//! over a [`RawQueue`] view: `claim_cell`. Every multi-producer path runs
//! it — the enqueues here (through `claim_rank_cell` or `resolve_rank`),
//! the zero-copy bytes reserve, and the unbounded tier's producer — and
//! publishes with `publish_claimed_rank`. The fullness pre-check and the
//! not-full wait round on the shared counters are here once too.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use ffq_sync::atomic::Ordering;

use ffq_sync::{Backoff, WaitRound, WaitStrategy};

use crate::cell::{CellSlot, PaddedCell, RANK_CLAIMED, RANK_FREE};
use crate::error::Full;
use crate::layout::{IndexMap, LinearMap};
use crate::raw::{RawConsumer, RawQueue};
use crate::shared::Shared;
use crate::stats::ProducerStats;
use crate::WaitConfig;

/// Creates an MPMC queue with the default layout (cache-line aligned cells,
/// linear mapping) and at least the given capacity (rounded up to a power of
/// two; see [`crate::layout::normalize_capacity`]).
///
/// Clone either handle for more producers/consumers.
///
/// # Panics
/// If `capacity` is 0 or exceeds [`crate::layout::MAX_CAPACITY`].
pub fn channel<T: Send>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    channel_with::<T, PaddedCell<T>, LinearMap>(capacity)
}

/// Creates a zero-copy bytes-mode MPMC queue: `capacity` cells, each owning
/// a slot buffer of at least `slot_bytes` bytes (both rounded up to powers
/// of two; see [`crate::layout::normalize_slot_bytes`]). Clone either
/// handle for more producers/consumers.
///
/// Payloads up to `slot_bytes` move through their rank's slot buffer with
/// one copy end to end; longer ones spill to a heap allocation handed over
/// through the descriptor ([`crate::bytes::SpillMode::Heap`]), never
/// truncated. An abandoned reservation publishes a tombstone descriptor
/// (consumers skip it) rather than stalling the rank's assigned consumer.
pub fn bytes_channel(
    capacity: usize,
    slot_bytes: usize,
) -> Result<(crate::bytes::MpProducer, crate::bytes::McConsumer<true>), crate::CapacityError> {
    crate::bytes::heap_mpmc(capacity, slot_bytes)
}

/// Creates an MPMC queue with explicit cell layout `C` and index mapping `M`.
///
/// # Panics
/// If `capacity` is 0 or exceeds [`crate::layout::MAX_CAPACITY`].
pub fn channel_with<T: Send, C: CellSlot<T>, M: IndexMap>(
    capacity: usize,
) -> (Producer<T, C, M>, Consumer<T, C, M>) {
    let shared = Shared::heap(capacity, "mpmc");
    let tx = Producer {
        queue: shared.raw(),
        _shared: Arc::clone(&shared),
        stats: ProducerStats::default(),
        wait: WaitConfig::default(),
    };
    // SAFETY: the fresh queue's one consumer; `MP = true` matches the
    // fetch_add producers.
    (tx, unsafe { Consumer::new(shared) })
}

/// A producing handle of an MPMC queue. Clone it to add producers.
pub struct Producer<T: Send, C: CellSlot<T> = PaddedCell<T>, M: IndexMap = LinearMap> {
    queue: RawQueue<T, C, M>,
    /// Keeps the queue allocation alive (the raw view points into it).
    _shared: Arc<Shared<T, C, M>>,
    stats: ProducerStats,
    /// Wait policy for blocking enqueues on a full queue.
    wait: WaitConfig,
}

impl<T: Send, C: CellSlot<T>, M: IndexMap> Producer<T, C, M> {
    /// Enqueues `value`, retrying until a cell is secured — spinning, then
    /// parking on the not-full eventcount per the configured
    /// [`WaitConfig`] between full passes. Lock-free under the paper's
    /// never-full assumption (the wait machinery only engages once a pass
    /// finds the queue full).
    pub fn enqueue(&mut self, value: T) {
        // Without a timeout the wait never expires, so the value never
        // comes back.
        let _ = self.enqueue_for(value, None);
    }

    /// Enqueues `value`, giving up (and returning it back) once `timeout`
    /// has elapsed with the queue still full.
    pub fn enqueue_timeout(&mut self, value: T, timeout: Duration) -> Result<(), Full<T>> {
        self.enqueue_for(value, Some(timeout))
    }

    /// [`enqueue`](Self::enqueue) and
    /// [`enqueue_timeout`](Self::enqueue_timeout): one attempt inline, the
    /// wait only after it misses.
    #[inline(always)]
    fn enqueue_for(&mut self, value: T, timeout: Option<Duration>) -> Result<(), Full<T>> {
        match claim(&self.queue, &mut self.stats) {
            Some(rank) => {
                publish_claimed_rank(&self.queue, &mut self.stats, rank, value);
                Ok(())
            }
            None => self.enqueue_wait(value, timeout),
        }
    }

    /// The one wait loop of [`enqueue_for`](Self::enqueue_for), entered
    /// after its first pass found the queue full.
    #[cold]
    fn enqueue_wait(&mut self, value: T, timeout: Option<Duration>) -> Result<(), Full<T>> {
        let mut strat = WaitStrategy::new(self.wait);
        let res = loop {
            if full_wait_round(&self.queue, &mut strat, timeout) == WaitRound::Expired {
                self.stats.full_rejections += 1;
                break Err(Full(value));
            }
            if let Some(rank) = claim(&self.queue, &mut self.stats) {
                publish_claimed_rank(&self.queue, &mut self.stats, rank, value);
                break Ok(());
            }
        };
        self.stats.parks += strat.parks();
        res
    }

    /// Replaces the wait policy used by blocking enqueues; see
    /// [`WaitConfig`].
    pub fn set_wait_config(&mut self, cfg: WaitConfig) {
        self.wait = cfg;
    }

    /// Attempts to enqueue, consuming at most one array's worth of ranks.
    ///
    /// May still spin briefly while another producer that has *claimed* the
    /// inspected cell publishes its rank — an acquired rank can never be
    /// abandoned mid-protocol (the consumer assigned to it would stall), so
    /// boundedness is in ranks, not in loop iterations.
    pub fn try_enqueue(&mut self, value: T) -> Result<(), Full<T>> {
        match claim(&self.queue, &mut self.stats) {
            Some(rank) => {
                publish_claimed_rank(&self.queue, &mut self.stats, rank, value);
                Ok(())
            }
            None => {
                self.stats.full_rejections += 1;
                Err(Full(value))
            }
        }
    }

    /// Attempts to enqueue without ever consuming a rank it cannot
    /// publish.
    ///
    /// Plain [`try_enqueue`](Self::try_enqueue) inherits FFQ-m's
    /// full-queue behavior: each probe of an occupied cell *burns* the
    /// claimed rank as a gap, so probing a full queue advances the tail
    /// without adding items. That is harmless for a standalone queue but
    /// poisons the cross-shard rank comparison of [`crate::shard`], which
    /// needs ranks taken ≈ items enqueued on every shard. This variant
    /// inspects the cell at the current tail *before* claiming: if the
    /// cell is not free, no rank is taken and the value is handed back.
    ///
    /// With a single producer handle the check is exact — no gap is ever
    /// created, because consumers only ever *free* cells, so the claimed
    /// rank still lands on the inspected (free) cell. With concurrent
    /// producer clones the claimed rank can exceed the inspected one and
    /// the call degrades to a single `try_enqueue` probe (at most one
    /// burned rank).
    pub fn try_enqueue_gapless(&mut self, value: T) -> Result<(), Full<T>> {
        let tail = self.queue.state().tail().load(Ordering::Relaxed);
        if self.queue.cell(tail).words().load_lo(Ordering::Acquire) != RANK_FREE {
            self.stats.full_rejections += 1;
            return Err(Full(value));
        }
        let rank = self.queue.state().tail().fetch_add(1, Ordering::Relaxed);
        debug_assert!(rank >= 0, "tail overflowed i64");
        self.stats.ranks_taken += 1;
        self.stats.tail_rmws += 1;
        match resolve_rank(&self.queue, &mut self.stats, rank, value) {
            Ok(()) => Ok(()),
            Err(value) => {
                self.stats.full_rejections += 1;
                Err(Full(value))
            }
        }
    }

    /// Number of consecutive free cells starting at rank `tail`, capped
    /// at `max`. Exact for a single producer handle (consumers only free
    /// cells, never occupy them), conservative otherwise.
    fn free_run(&self, tail: i64, max: usize) -> usize {
        let mut n = 0usize;
        while n < max {
            let words = self.queue.cell(tail + n as i64).words();
            if words.load_lo(Ordering::Acquire) != RANK_FREE {
                break;
            }
            n += 1;
        }
        n
    }

    /// Publishes up to `max` items from the front of `buf` as one claimed
    /// run, without consuming ranks it cannot publish (the batched
    /// counterpart of [`try_enqueue_gapless`](Self::try_enqueue_gapless)).
    ///
    /// Sizes the run by scanning the free cells ahead of the tail, claims
    /// exactly that many ranks with one `fetch_add`, and resolves them in
    /// order. Returns the number published — zero when the cell at the
    /// tail is still occupied (queue full, or a consumer is mid-way
    /// through reading a claimed run). Never blocks with a single
    /// producer handle; a racing clone can push one item down the
    /// blocking per-item fallback.
    pub fn enqueue_run_gapless(&mut self, buf: &mut VecDeque<T>, max: usize) -> usize {
        // Every claimed rank resolves before this returns, so cap runs at
        // half the array like `enqueue_many`.
        let run_max = (self.queue.capacity() / 2).max(1);
        let want = buf.len().min(max).min(run_max);
        if want == 0 {
            return 0;
        }
        let tail = self.queue.state().tail().load(Ordering::Relaxed);
        let k = self.free_run(tail, want);
        if k == 0 {
            self.stats.full_rejections += 1;
            return 0;
        }
        let start = self
            .queue
            .state()
            .tail()
            .fetch_add(k as i64, Ordering::Relaxed);
        debug_assert!(start >= 0, "tail overflowed i64");
        self.stats.ranks_taken += k as u64;
        self.stats.tail_rmws += 1;
        let mut published = 0usize;
        for j in 0..k {
            let value = buf.pop_front().expect("run sized to buf");
            match resolve_rank(&self.queue, &mut self.stats, start + j as i64, value) {
                Ok(()) => published += 1,
                Err(value) => {
                    // Only reachable when a producer clone raced the free
                    // scan: void the rest of the run, then re-enter this
                    // item per-item so this handle's order is preserved.
                    for l in (j + 1)..k {
                        self.void_rank(start + l as i64);
                    }
                    self.enqueue(value);
                    published += 1;
                    break;
                }
            }
        }
        if published > 0 {
            self.stats.batch_enqueues += 1;
            self.stats.batch_items += published as u64;
        }
        published
    }

    /// Enqueues every item of `iter` (blocking as needed); returns the
    /// count.
    ///
    /// The batched FFQ-m enqueue: a single `tail.fetch_add(k)` claims a run
    /// of `k` ranks, then each rank is resolved in order with the per-cell
    /// DWCAS protocol. If a rank is lost to a gap mid-run, the *remaining*
    /// ranks of the run are resolved as gaps too (never left claimed — an
    /// unresolved rank stalls the consumer assigned it) and the affected
    /// items re-enter through the per-item path, preserving this producer's
    /// FIFO order.
    pub fn enqueue_many<I: IntoIterator<Item = T>>(&mut self, iter: I) -> usize {
        let mut iter = iter.into_iter();
        let cap = self.queue.capacity();
        // Every claimed rank must resolve before anything can block, so a
        // run is never sized past half the array.
        let run_max = (cap / 2).max(1);
        let mut n = 0usize;
        let mut chunk: VecDeque<T> = VecDeque::with_capacity(run_max);
        loop {
            chunk.extend((&mut iter).take(run_max));
            if chunk.is_empty() {
                return n;
            }
            while !chunk.is_empty() {
                if looks_full(&self.queue) {
                    self.wait_not_full();
                }
                // Size the run to the items in hand and the free space the
                // counters report, then claim it with one fetch_add.
                let tail = self.queue.state().tail().load(Ordering::Relaxed);
                let head = self.queue.state().head().load(Ordering::Acquire);
                let free = (cap as i64 - (tail - head)).max(1) as usize;
                let k = chunk.len().min(free);
                let start = self
                    .queue
                    .state()
                    .tail()
                    .fetch_add(k as i64, Ordering::Relaxed);
                debug_assert!(start >= 0, "tail overflowed i64");
                self.stats.ranks_taken += k as u64;
                self.stats.tail_rmws += 1;
                let mut resolved = 0usize;
                let mut published = 0usize;
                while resolved < k {
                    let value = chunk.pop_front().expect("run sized to chunk");
                    let rank = start + resolved as i64;
                    resolved += 1;
                    match resolve_rank(&self.queue, &mut self.stats, rank, value) {
                        Ok(()) => {
                            n += 1;
                            published += 1;
                        }
                        Err(value) => {
                            // Our rank became a gap. Void the rest of the
                            // run, then re-enqueue this item per-item
                            // *before* the chunk's remaining items so this
                            // producer's order is preserved.
                            for j in resolved..k {
                                self.void_rank(start + j as i64);
                            }
                            self.enqueue(value);
                            n += 1;
                            break;
                        }
                    }
                }
                if published > 0 {
                    self.stats.batch_enqueues += 1;
                    self.stats.batch_items += published as u64;
                }
            }
        }
    }

    /// Waits until the shared counters stop reporting the queue full: the
    /// wait of [`enqueue_many`](Self::enqueue_many), entered only once a
    /// run finds the queue full, with a fresh spin phase each time.
    #[cold]
    fn wait_not_full(&mut self) {
        let mut strat = WaitStrategy::new(self.wait);
        loop {
            full_wait_round(&self.queue, &mut strat, None);
            if !looks_full(&self.queue) {
                break;
            }
        }
        self.stats.parks += strat.parks();
    }

    /// Resolves a claimed rank *without* an item by announcing it as a gap
    /// at its cell (batch path only: the run continues past a lost rank).
    /// Terminates because the cell's gap word is monotonic: either our CAS
    /// lands or someone else advanced it to `>= rank`.
    fn void_rank(&mut self, rank: i64) {
        let cell = self.queue.cell(rank);
        let words = cell.words();
        let mut backoff = Backoff::new();
        loop {
            let g = words.load_hi(Ordering::Acquire);
            if g >= rank {
                return;
            }
            let r = words.load_lo(Ordering::Acquire);
            if r == RANK_CLAIMED {
                backoff.wait();
                continue;
            }
            if words.compare_exchange((r, g), (r, rank)).is_ok() {
                self.stats.gaps_created += 1;
                // Broadcast: gaps unblock a specific parked rank, and a
                // single wake may pick the wrong consumer.
                self.queue.state().wake_consumers_all();
                return;
            }
            self.stats.cas_failures += 1;
        }
    }

    /// Capacity of the underlying cell array.
    pub fn capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Approximate number of items currently enqueued.
    pub fn len_hint(&self) -> usize {
        self.queue.len_hint()
    }

    /// Number of live producer handles.
    pub fn producers(&self) -> usize {
        // Acquire per the QueueState handle-count rule.
        self.queue.state().producers().load(Ordering::Acquire) as usize
    }

    /// Number of live consumer handles.
    pub fn consumers(&self) -> usize {
        // Acquire per the QueueState handle-count rule.
        self.queue.state().consumers().load(Ordering::Acquire) as usize
    }

    /// Snapshot of this producer's counters.
    pub fn stats(&self) -> ProducerStats {
        self.stats
    }
}

impl<T: Send, C: CellSlot<T>, M: IndexMap> Clone for Producer<T, C, M> {
    fn clone(&self) -> Self {
        self.queue
            .state()
            .producers()
            .fetch_add(1, Ordering::Relaxed);
        Self {
            queue: self.queue,
            _shared: Arc::clone(&self._shared),
            stats: ProducerStats::default(),
            wait: self.wait,
        }
    }
}

impl<T: Send, C: CellSlot<T>, M: IndexMap> Drop for Producer<T, C, M> {
    fn drop(&mut self) {
        let state = self.queue.state();
        // SeqCst (cold path — handle death only): the Release half pairs
        // with the consumers' Acquire disconnect loads as before; the SC
        // position additionally bounds how long a spinning wait predicate
        // can keep reading the old count, since every `begin_wait` issues
        // an SC fence. A plain Release decrement can stay invisible to a
        // reader that never parks — the sharded frontend's aggregate
        // predicate spins across shards exactly like that.
        state.producers().fetch_sub(1, Ordering::SeqCst);
        // Parked consumers must observe a possible last-producer
        // disconnect promptly rather than after their bounded-park timeout.
        state.wake_all();
    }
}

/// One pass of `FFQ_ENQ` (Algorithm 2) up to the publish: unless the
/// counters report the queue full, takes up to one array's worth of tail
/// ranks until one claims its cell. Always inline: it is the hit path of
/// every multi-producer enqueue.
#[inline(always)]
fn claim<T, C: CellSlot<T>, M: IndexMap>(
    queue: &RawQueue<T, C, M>,
    stats: &mut ProducerStats,
) -> Option<i64> {
    if looks_full(queue) {
        return None;
    }
    claim_rank_cell(queue, stats, queue.capacity()).ok()
}

/// Algorithm 2's claim-or-gap step (lines 5–9) for a tail rank the caller
/// took: claims the rank's cell — leaves it `RANK_CLAIMED`, ready for
/// [`publish_claimed_rank`] — and returns `true`, or leaves the rank a
/// *gap* and returns `false`. A gap is a rank the producer skipped and
/// announced in the cell's `gap` word (or that a later rank's announcement
/// already covers), so consumers assigned it step over it. Either way no
/// consumer stalls on the rank once the caller has published a claim.
#[inline]
pub(crate) fn claim_cell<T, C: CellSlot<T>, M: IndexMap>(
    queue: &RawQueue<T, C, M>,
    rank: i64,
    stats: &mut ProducerStats,
) -> bool {
    let words = queue.cell(rank).words();
    // Read below, then claimed (or gap-announced) by a pair CAS.
    words.prefetch_for_write();
    let mut backoff = None;
    // Line 6: while no gap announcement supersedes our rank.
    loop {
        let g = words.load_hi(Ordering::Acquire);
        if g >= rank {
            // Another producer skipped this cell for a rank at or past
            // ours: enqueueing here would be "in the past". Abandon *the
            // cell*, not the rank — the rank is the gap now, so consumers
            // step over it.
            return false;
        }
        let r = words.load_lo(Ordering::Acquire);
        if r != RANK_FREE {
            if gap_or_back_off(queue, rank, (r, g), stats, &mut backoff) {
                return false;
            }
            continue;
        }
        // Line 9: claim the free cell, atomically verifying the gap did
        // not move (second race above). Rank values are unique over the
        // queue's lifetime and gap is monotonic per cell, so the pair CAS
        // is ABA-free.
        if words
            .compare_exchange((RANK_FREE, g), (RANK_CLAIMED, g))
            .is_ok()
        {
            return true;
        }
        stats.cas_failures += 1;
    }
}

/// [`claim_cell`]'s step at a cell it saw not free, as `(r, g)`: announces
/// `rank` as a gap at an occupied cell (`true`: the rank is a gap now), or
/// backs off while another producer holds the cell claimed (`false`: look
/// again). The `Backoff` is built on the first such round.
#[cold]
fn gap_or_back_off<T, C: CellSlot<T>, M: IndexMap>(
    queue: &RawQueue<T, C, M>,
    rank: i64,
    (r, g): (i64, i64),
    stats: &mut ProducerStats,
    backoff: &mut Option<Backoff>,
) -> bool {
    if r >= 0 {
        // Line 8: occupied by an unconsumed item — announce our rank as a
        // gap. The double CAS fails if either the occupant changed (cell
        // may have become free: retry and use it) or another producer
        // raced the gap forward.
        if queue
            .cell(rank)
            .words()
            .compare_exchange((r, g), (r, rank))
            .is_ok()
        {
            stats.gaps_created += 1;
            // A consumer parked on this rank is unblocked by the gap
            // announcement: it can now step over the cell. Broadcast — a
            // single wake could land on a consumer parked on a different
            // rank (see `QueueState::wake_consumers_all`).
            queue.state().wake_consumers_all();
            return true;
        }
        stats.cas_failures += 1;
        return false;
    }
    debug_assert_eq!(r, RANK_CLAIMED);
    // Another producer is between claim and publish. Its publish is
    // imminent (no user code in that window), but it may be descheduled —
    // this is precisely where FFQ-m stops being lock-free (§III-B).
    backoff.get_or_insert_with(Backoff::new).wait();
    false
}

/// Resolves one claimed tail rank (Algorithm 2 lines 5–12): publishes
/// `value` at the rank's cell, or — when the cell is occupied or the rank
/// superseded — leaves the rank a gap and hands the value back. Either way
/// the rank is resolved when this returns; consumers assigned it will not
/// stall.
#[inline]
pub(crate) fn resolve_rank<T: Send, C: CellSlot<T>, M: IndexMap>(
    queue: &RawQueue<T, C, M>,
    stats: &mut ProducerStats,
    rank: i64,
    value: T,
) -> Result<(), T> {
    if !claim_cell(queue, rank, stats) {
        return Err(value);
    }
    publish_claimed_rank(queue, stats, rank, value);
    Ok(())
}

/// Takes tail ranks (Algorithm 2 line 4, one `fetch_add` each) until one
/// lands on a cell [`claim_cell`] claims, at most `limit` of them; returns
/// that rank with its cell claimed and nothing written. Every rank taken
/// before it is resolved as a gap, so no consumer ever stalls on a rank
/// this function consumed.
///
/// The claimed cell is exactly the state a publishing producer sits in
/// between lines 9 and 11 of Algorithm 2; an enqueue publishes right away,
/// the zero-copy reserve path (`crate::bytes`) only once its payload is
/// written. The claim must *always* be resolved through
/// [`publish_claimed_rank`] — a bytes reservation abandons it by
/// publishing a `DESC_ABORT` descriptor, never by leaving the cell claimed.
#[inline]
pub(crate) fn claim_rank_cell<T, C: CellSlot<T>, M: IndexMap>(
    queue: &RawQueue<T, C, M>,
    stats: &mut ProducerStats,
    limit: usize,
) -> Result<i64, Full<()>> {
    for _ in 0..limit {
        // Relaxed — uniqueness comes from atomicity; publication
        // synchronizes through the cell words.
        let rank = queue.state().tail().fetch_add(1, Ordering::Relaxed);
        debug_assert!(rank >= 0, "tail overflowed i64");
        stats.ranks_taken += 1;
        stats.tail_rmws += 1;
        if claim_cell(queue, rank, stats) {
            return Ok(rank);
        }
    }
    Err(Full(()))
}

/// The multi-producer fullness pre-check on the shared counters: a full
/// array's worth of ranks outstanding means a pass cannot succeed, so no
/// tail rank is taken. Conservative in the safe direction (see
/// [`crate::spmc::Producer::try_enqueue`]).
#[inline]
pub(crate) fn looks_full<T, C: CellSlot<T>, M: IndexMap>(queue: &RawQueue<T, C, M>) -> bool {
    let tail = queue.state().tail().load(Ordering::Acquire);
    let head = queue.state().head().load(Ordering::Acquire);
    tail - head >= queue.capacity() as i64
}

/// One wait round of a multi-producer enqueue or reserve on the not-full
/// eventcount; ready as soon as the shared counters stop reporting full.
pub(crate) fn full_wait_round<T, C: CellSlot<T>, M: IndexMap>(
    queue: &RawQueue<T, C, M>,
    strat: &mut WaitStrategy,
    timeout: Option<Duration>,
) -> WaitRound {
    let state = queue.state();
    strat.wait_round_for(
        state.not_full(),
        state.wait_is_shared(),
        timeout,
        &mut || !looks_full(queue),
    )
}

/// Publishes `value` at a cell previously claimed by [`claim_rank_cell`]
/// (lines 10–11 of Algorithm 2, deferred): the Release rank store orders
/// every prior write by this thread — the descriptor *and* the payload
/// bytes written into the rank's slot buffer — before the publication.
#[inline]
pub(crate) fn publish_claimed_rank<T, C: CellSlot<T>, M: IndexMap>(
    queue: &RawQueue<T, C, M>,
    stats: &mut ProducerStats,
    rank: i64,
    value: T,
) {
    let cell = queue.cell(rank);
    debug_assert_eq!(cell.words().load_lo(Ordering::Relaxed), RANK_CLAIMED);
    // SAFETY: the claim CAS made this thread the cell's unique owner until
    // the rank store below.
    unsafe { (*cell.data()).write(value) };
    cell.words().store_lo(rank, Ordering::Release);
    stats.enqueued += 1;
    // Broadcast, not a counted wake: the published rank may already sit in
    // one specific consumer's pending FIFO (claims run ahead of publication
    // here), and a single wake can land on a consumer parked on a
    // *different* rank, which re-parks while the owner sleeps — the same
    // wrong-wakee hazard the gap paths always broadcast around
    // (`QueueState::wake_consumers_all`).
    queue.state().wake_consumers_all();
}

/// A consuming handle of an MPMC queue: [`crate::spmc::Consumer`] over the
/// multi-producer shared-head engine. Clone it to add consumers.
///
/// Identical protocol and pending-rank semantics to
/// [`crate::spmc::Consumer`], including the batch operations and the
/// shard building blocks ([`dequeue_batch_capped`], [`head_rank`],
/// [`wake_ready_items`]).
///
/// [`dequeue_batch_capped`]: crate::spmc::Consumer::dequeue_batch_capped
/// [`head_rank`]: crate::spmc::Consumer::head_rank
/// [`wake_ready_items`]: crate::spmc::Consumer::wake_ready_items
pub type Consumer<T, C = PaddedCell<T>, M = LinearMap> =
    crate::spmc::Consumer<T, C, M, RawConsumer<T, C, M, true>>;

/// Blocking consuming iterator; see [`crate::spmc::Consumer::into_iter`].
pub type IntoIter<T, C = PaddedCell<T>, M = LinearMap> =
    crate::spmc::IntoIter<T, C, M, RawConsumer<T, C, M, true>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CompactCell;
    use crate::error::TryDequeueError;
    use crate::layout::RotateMap;
    use std::collections::HashSet;

    #[test]
    fn fifo_single_producer_single_consumer() {
        let (mut tx, mut rx) = channel::<u32>(16);
        for i in 0..10 {
            tx.enqueue(i);
        }
        for i in 0..10 {
            assert_eq!(rx.try_dequeue(), Ok(i));
        }
        assert_eq!(rx.try_dequeue(), Err(TryDequeueError::Empty));
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let (tx, _rx) = channel::<u32>(100);
        assert_eq!(tx.capacity(), 128);
    }

    #[test]
    fn try_enqueue_full_bounded() {
        let (mut tx, mut rx) = channel::<u32>(4);
        for i in 0..4 {
            tx.try_enqueue(i).unwrap();
        }
        let e = tx.try_enqueue(9).unwrap_err();
        assert_eq!(e.into_inner(), 9);
        for i in 0..4 {
            assert_eq!(rx.dequeue(), Ok(i));
        }
    }

    #[test]
    fn enqueue_many_claims_rank_runs() {
        let (mut tx, mut rx) = channel::<u64>(64);
        assert_eq!(tx.enqueue_many(0..30), 30);
        let s = tx.stats();
        assert_eq!(s.enqueued, 30);
        // One fetch_add for the whole run (30 < cap/2 = 32, nothing busy).
        assert_eq!(s.tail_rmws, 1);
        assert_eq!(s.ranks_taken, 30);
        assert_eq!(s.ranks_per_rmw(), Some(30.0));
        for i in 0..30 {
            assert_eq!(rx.try_dequeue(), Ok(i));
        }
    }

    #[test]
    fn enqueue_many_preserves_producer_fifo_past_full() {
        // Batch far larger than capacity: runs must recycle as the
        // consumer drains, and order must hold throughout.
        let (mut tx, mut rx) = channel::<u64>(8);
        let c = std::thread::spawn(move || {
            let mut got = Vec::new();
            while let Ok(v) = rx.dequeue() {
                got.push(v);
            }
            got
        });
        assert_eq!(tx.enqueue_many(0..2000), 2000);
        drop(tx);
        assert_eq!(c.join().unwrap(), (0..2000).collect::<Vec<_>>());
    }

    #[test]
    fn dequeue_batch_mpmc() {
        let (mut tx, mut rx) = channel::<u64>(64);
        tx.enqueue_many(0..20);
        let mut buf = Vec::new();
        assert_eq!(rx.dequeue_batch(&mut buf, 64), 20);
        assert_eq!(buf, (0..20).collect::<Vec<_>>());
        assert_eq!(rx.stats().head_rmws, 1);
        // Empty queue: no claim.
        buf.clear();
        assert_eq!(rx.dequeue_batch(&mut buf, 8), 0);
        assert_eq!(rx.pending_ranks(), 0);
    }

    #[test]
    fn handles_clone_and_count() {
        let (tx, rx) = channel::<u32>(16);
        let tx2 = tx.clone();
        let _rx2 = rx.clone();
        assert_eq!(tx.producers(), 2);
        assert_eq!(tx.consumers(), 2);
        drop(tx2);
        assert_eq!(tx.producers(), 1);
    }

    #[test]
    fn disconnect_requires_all_producers_gone() {
        let (mut tx, mut rx) = channel::<u32>(16);
        let tx2 = tx.clone();
        tx.enqueue(1);
        drop(tx);
        assert_eq!(rx.dequeue(), Ok(1));
        // tx2 still alive: Empty, not Disconnected.
        assert_eq!(rx.try_dequeue(), Err(TryDequeueError::Empty));
        drop(tx2);
        assert_eq!(rx.try_dequeue(), Err(TryDequeueError::Disconnected));
    }

    #[test]
    fn multi_producer_multi_consumer_no_loss_no_dup() {
        const PRODUCERS: u64 = 4;
        const CONSUMERS: usize = 4;
        const PER_PRODUCER: u64 = 25_000;
        let (tx, rx) = channel::<u64>(1 << 10);
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let mut tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        tx.enqueue(p * PER_PRODUCER + i);
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
                    while let Ok(v) = rx.dequeue() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        drop(rx);
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        assert_eq!(all.len() as u64, PRODUCERS * PER_PRODUCER);
        let set: HashSet<u64> = all.iter().copied().collect();
        assert_eq!(set.len(), all.len(), "duplicate items dequeued");
        all.sort_unstable();
        assert_eq!(all[0], 0);
        assert_eq!(*all.last().unwrap(), PRODUCERS * PER_PRODUCER - 1);
    }

    #[test]
    fn batched_producers_batched_consumers_no_loss_no_dup() {
        // The full batch matrix under contention: two batch producers, two
        // batch consumers, small queue to force gap traffic and run
        // splitting.
        const PRODUCERS: u64 = 2;
        const CONSUMERS: usize = 2;
        const PER_PRODUCER: u64 = 20_000;
        let (tx, rx) = channel::<u64>(64);
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let mut tx = tx.clone();
                std::thread::spawn(move || {
                    let mut next = 0u64;
                    while next < PER_PRODUCER {
                        let hi = (next + 50).min(PER_PRODUCER);
                        tx.enqueue_many((next..hi).map(|i| p * PER_PRODUCER + i));
                        next = hi;
                    }
                })
            })
            .collect();
        drop(tx);
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let mut rx = rx.clone();
                std::thread::spawn(move || {
                    let mut buf = Vec::new();
                    let mut got = Vec::new();
                    loop {
                        if rx.dequeue_batch(&mut buf, 32) > 0 {
                            got.append(&mut buf);
                            continue;
                        }
                        match rx.try_dequeue() {
                            Ok(v) => got.push(v),
                            Err(TryDequeueError::Empty) => std::hint::spin_loop(),
                            Err(TryDequeueError::Disconnected) => return got,
                        }
                    }
                })
            })
            .collect();
        drop(rx);
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        assert_eq!(all.len() as u64, PRODUCERS * PER_PRODUCER);
        let set: HashSet<u64> = all.iter().copied().collect();
        assert_eq!(set.len(), all.len(), "duplicate items dequeued");
        all.sort_unstable();
        for (i, v) in all.iter().enumerate() {
            let p = i as u64 / PER_PRODUCER;
            let off = i as u64 % PER_PRODUCER;
            assert_eq!(*v, p * PER_PRODUCER + off);
        }
    }

    #[test]
    fn per_producer_fifo_order() {
        // With multiple producers only per-producer order is guaranteed.
        const PER: u64 = 30_000;
        let (tx, mut rx) = channel::<(u8, u64)>(256);
        let mut tx2 = tx.clone();
        let mut tx1 = tx;
        let p1 = std::thread::spawn(move || {
            for i in 0..PER {
                tx1.enqueue((1, i));
            }
        });
        let p2 = std::thread::spawn(move || {
            for i in 0..PER {
                tx2.enqueue((2, i));
            }
        });
        let mut next = [0u64; 3];
        let mut count = 0;
        while count < 2 * PER {
            if let Ok((who, seq)) = rx.dequeue() {
                assert_eq!(seq, next[who as usize], "producer {who} out of order");
                next[who as usize] += 1;
                count += 1;
            }
        }
        p1.join().unwrap();
        p2.join().unwrap();
    }

    #[test]
    fn per_producer_fifo_order_with_batched_enqueue() {
        // enqueue_many must preserve per-producer order even when runs are
        // lost to gaps and re-enter through the per-item path.
        const PER: u64 = 30_000;
        let (tx, mut rx) = channel::<(u8, u64)>(32);
        let mut tx2 = tx.clone();
        let mut tx1 = tx;
        let p1 = std::thread::spawn(move || {
            let mut next = 0u64;
            while next < PER {
                let hi = (next + 20).min(PER);
                tx1.enqueue_many((next..hi).map(|i| (1u8, i)));
                next = hi;
            }
        });
        let p2 = std::thread::spawn(move || {
            let mut next = 0u64;
            while next < PER {
                let hi = (next + 7).min(PER);
                tx2.enqueue_many((next..hi).map(|i| (2u8, i)));
                next = hi;
            }
        });
        let mut next = [0u64; 3];
        let mut count = 0;
        while count < 2 * PER {
            if let Ok((who, seq)) = rx.dequeue() {
                assert_eq!(seq, next[who as usize], "producer {who} out of order");
                next[who as usize] += 1;
                count += 1;
            }
        }
        p1.join().unwrap();
        p2.join().unwrap();
    }

    #[test]
    fn all_layouts_mpmc_stress() {
        fn run<C: CellSlot<u64> + 'static, M: IndexMap>() {
            let (tx, rx) = channel_with::<u64, C, M>(64);
            let mut tx2 = tx.clone();
            let mut tx1 = tx;
            let p1 = std::thread::spawn(move || {
                for i in 0..10_000u64 {
                    tx1.enqueue(i * 2);
                }
            });
            let p2 = std::thread::spawn(move || {
                for i in 0..10_000u64 {
                    tx2.enqueue(i * 2 + 1);
                }
            });
            let mut rx = rx;
            let mut seen = HashSet::new();
            for _ in 0..20_000 {
                let v = rx.dequeue().unwrap();
                assert!(seen.insert(v), "duplicate {v}");
            }
            p1.join().unwrap();
            p2.join().unwrap();
        }
        run::<PaddedCell<u64>, LinearMap>();
        run::<PaddedCell<u64>, RotateMap>();
        run::<CompactCell<u64>, LinearMap>();
        run::<CompactCell<u64>, RotateMap>();
    }

    #[test]
    fn drop_releases_unconsumed_items_mpmc() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        {
            let (tx, mut rx) = channel::<Counted>(16);
            let mut tx2 = tx.clone();
            let mut tx1 = tx;
            for _ in 0..3 {
                tx1.enqueue(Counted);
                tx2.enqueue(Counted);
            }
            drop(rx.dequeue());
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), 6);
    }
}
