//! The heap-backed queue container, the consumer-side dequeue cores, and
//! the batched single-producer enqueue path.
//!
//! Since the raw-memory split (see [`crate::raw`]) every core algorithm here
//! operates on a [`RawQueue`] view — the same code path serves heap queues
//! and shared-memory queues. [`Shared`] is the heap backing: it owns the
//! `#[repr(C)]` [`QueueState`] and the cell array, hands out views into
//! itself, and drops unconsumed payloads when the last handle goes away.
//!
//! The dequeue protocol (Algorithm 1, `FFQ_DEQ`) is identical for the SPMC
//! and MPMC variants, so both delegate to [`dequeue_core`] /
//! [`dequeue_batch_core`] here. The generic parameter `MP` selects, at
//! compile time, whether cell words must stay coherent with double-word CAS
//! operations (only the multi-producer variant performs any).

use core::marker::PhantomData;
use std::collections::VecDeque;

use ffq_sync::atomic::{fence, Ordering};

use ffq_sync::{WaitConfig, WaitStrategy};

use crate::cell::{CellSlot, RANK_FREE};
use crate::error::TryDequeueError;
use crate::layout::IndexMap;
use crate::raw::{QueueState, RawQueue};
use crate::stats::{ConsumerStats, ProducerStats};

/// Heap backing of one queue: the `#[repr(C)]` counter block plus the cell
/// array, pinned behind an `Arc` by every handle.
pub(crate) struct Shared<T, C: CellSlot<T>, M: IndexMap> {
    state: QueueState,
    /// The circular cell array; length is `1 << cap_log2`.
    cells: Box<[C]>,
    _marker: PhantomData<(fn() -> T, M)>,
}

impl<T, C: CellSlot<T>, M: IndexMap> Shared<T, C, M> {
    /// Allocates an empty queue of `1 << cap_log2` cells with `producers`
    /// initial producer handles and one consumer handle.
    pub(crate) fn with_log2(cap_log2: u32, producers: u32) -> Self {
        let cells: Box<[C]> = (0..1usize << cap_log2).map(|_| C::empty()).collect();
        Self {
            state: QueueState::in_process(cap_log2, producers, 1),
            cells,
            _marker: PhantomData,
        }
    }

    /// A raw view over this allocation.
    ///
    /// Valid for as long as `self` is alive and not moved — which the heap
    /// wrappers guarantee by holding the owning `Arc` alongside every view.
    pub(crate) fn raw(&self) -> RawQueue<T, C, M> {
        // SAFETY: state and cells are initialized and live inside the Arc
        // allocation, which outlives every handle that embeds this view.
        unsafe { RawQueue::from_raw(&self.state, self.cells.as_ptr()) }
    }
}

impl<T, C: CellSlot<T>, M: IndexMap> Drop for Shared<T, C, M> {
    fn drop(&mut self) {
        // The last handle is dropping; no other thread can touch the cells.
        // Any cell still publishing a rank holds an item that was enqueued
        // but never dequeued — drop it in place. (A claimed cell, rank -2,
        // cannot outlive its producer's enqueue call, so it never reaches
        // this point holding initialized data.)
        for cell in self.cells.iter() {
            if cell.words().load_lo(Ordering::Relaxed) >= 0 {
                // SAFETY: rank >= 0 means the producer completed its data
                // write (the rank store is ordered after it) and no consumer
                // consumed it (consuming reset the rank to -1).
                unsafe { (*cell.data()).assume_init_drop() };
            }
        }
    }
}

/// A consumer handle's claimed-but-unsatisfied ranks, in claim order.
///
/// This generalizes the single `pending: Option<i64>` of earlier revisions:
/// `claim_batch` parks a whole contiguous run `[start, start + k)` obtained
/// from one `head.fetch_add(k)`, and per-rank harvesting re-parks at the
/// front the one rank it could not satisfy. Ranks leave strictly in claim
/// order, which is what both the no-abandoned-rank guarantee and
/// per-consumer FIFO order rest on.
#[derive(Debug, Default)]
pub(crate) struct PendingRanks {
    /// Half-open `[start, end)` runs, oldest first. Tiny in practice: one
    /// run per outstanding `claim_batch` plus at most one re-parked rank.
    runs: VecDeque<(i64, i64)>,
}

impl PendingRanks {
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The oldest parked rank, without taking it — the rank a waiting
    /// consumer is blocked on.
    #[inline]
    pub(crate) fn front_rank(&self) -> Option<i64> {
        self.runs.front().map(|&(s, _)| s)
    }

    /// Total number of parked ranks.
    pub(crate) fn len(&self) -> usize {
        self.runs
            .iter()
            .map(|&(s, e)| (e - s) as usize)
            .sum::<usize>()
    }

    /// Takes the oldest parked rank.
    #[inline]
    pub(crate) fn pop_front(&mut self) -> Option<i64> {
        let &(start, end) = self.runs.front()?;
        if start + 1 == end {
            self.runs.pop_front();
        } else {
            self.runs[0].0 = start + 1;
        }
        Some(start)
    }

    /// Re-parks a rank just taken with [`pop_front`](Self::pop_front), so it
    /// is the next rank handed out again.
    #[inline]
    pub(crate) fn push_front(&mut self, rank: i64) {
        match self.runs.front_mut() {
            Some(run) if run.0 == rank + 1 => run.0 = rank,
            _ => self.runs.push_front((rank, rank + 1)),
        }
    }

    /// Takes the oldest whole parked run, for callers that iterate it with
    /// a local cursor instead of popping rank by rank.
    #[inline]
    pub(crate) fn pop_run(&mut self) -> Option<(i64, i64)> {
        self.runs.pop_front()
    }

    /// Re-parks the unprocessed remainder `[start, end)` of a run just
    /// taken with [`pop_run`](Self::pop_run), so its ranks are the next
    /// ones handed out.
    #[inline]
    pub(crate) fn push_front_run(&mut self, start: i64, end: i64) {
        debug_assert!(start < end);
        match self.runs.front_mut() {
            Some(run) if run.0 == end => run.0 = start,
            _ => self.runs.push_front((start, end)),
        }
    }

    /// Parks a freshly claimed run `[start, start + len)` behind every
    /// already-parked rank.
    pub(crate) fn push_run(&mut self, start: i64, len: i64) {
        debug_assert!(len > 0);
        match self.runs.back_mut() {
            Some(run) if run.1 == start => run.1 = start + len,
            _ => self.runs.push_back((start, start + len)),
        }
    }

    /// Discards every parked rank `>= bound`, returning how many were
    /// dropped. Used by the unbounded tier when a consumer learns its
    /// segment was sealed at `bound`: ranks claimed at or past the seal can
    /// never be published there (the producers moved to the next segment),
    /// so holding them would park the consumer forever. Sound to forget
    /// because a claimed rank is owned by this handle — nobody else will
    /// ever present it — and a sealed cell at it stays `RANK_FREE` until
    /// the segment is recycled wholesale.
    pub(crate) fn truncate_from(&mut self, bound: i64) -> usize {
        let mut dropped = 0usize;
        while let Some(run) = self.runs.back_mut() {
            if run.1 <= bound {
                break;
            }
            if run.0 >= bound {
                dropped += (run.1 - run.0) as usize;
                self.runs.pop_back();
            } else {
                dropped += (run.1 - bound) as usize;
                run.1 = bound;
                break;
            }
        }
        dropped
    }
}

/// Claims one rank from the shared head (one RMW).
#[inline]
fn claim_one<T, C: CellSlot<T>, M: IndexMap>(
    q: &RawQueue<T, C, M>,
    stats: &mut ConsumerStats,
) -> i64 {
    stats.ranks_claimed += 1;
    stats.head_rmws += 1;
    // Relaxed: the fetch_add only hands out unique ranks; all inter-thread
    // publication goes through the cell's rank word (Acquire/Release).
    let rank = q.state().head().fetch_add(1, Ordering::Relaxed);
    // The head advance is what unblocks a producer parked on a full queue.
    q.state().wake_producers(1);
    rank
}

/// Claims a run of `k` ranks with a single `head.fetch_add(k)` and parks it
/// as pending. The amortization core of the batch API: one RMW — one
/// coherence transaction on the queue's most contended word — buys `k`
/// ranks instead of one.
pub(crate) fn claim_batch_core<T, C: CellSlot<T>, M: IndexMap>(
    q: &RawQueue<T, C, M>,
    pending: &mut PendingRanks,
    stats: &mut ConsumerStats,
    k: usize,
) {
    if k == 0 {
        return;
    }
    let start = q.state().head().fetch_add(k as i64, Ordering::Relaxed);
    debug_assert!(start >= 0, "head counter overflowed i64");
    stats.ranks_claimed += k as u64;
    stats.head_rmws += 1;
    q.state().wake_producers(k);
    pending.push_run(start, k as i64);
}

/// One attempt at `FFQ_DEQ` (Algorithm 1, lines 20–33) on behalf of a
/// consumer that persists its claimed-but-unsatisfied ranks in `pending`.
///
/// `MP` must be `true` for queues whose producers use double-word CAS on the
/// cell words (FFQ-m): the rank reset then goes through the DWCAS-coherent
/// store so the lock-striped emulation on non-x86_64 targets stays sound.
/// On x86_64 both paths compile to the same plain store.
#[inline]
pub(crate) fn dequeue_core<T, C: CellSlot<T>, M: IndexMap, const MP: bool>(
    q: &RawQueue<T, C, M>,
    pending: &mut PendingRanks,
    stats: &mut ConsumerStats,
) -> Result<T, TryDequeueError> {
    // Resume the oldest previously claimed rank, or claim the next one.
    let mut rank = match pending.pop_front() {
        Some(r) => r,
        None => claim_one(q, stats),
    };
    debug_assert!(rank >= 0, "rank counter overflowed i64");

    // After observing "producers == 0" we re-examine the cell once before
    // reporting disconnection: every enqueue completed before the producer
    // count dropped (Release on decrement), so the re-examination sees it
    // (Acquire on load). Sticky within this call: that one Acquire load
    // made *every* completed enqueue visible, not just the current cell's,
    // so gap skips after it must not reset the flag — resetting could
    // bounce a drained, producer-less queue back to `Empty`.
    let mut disconnect_checked = false;

    loop {
        let cell = q.cell(rank);
        let words = cell.words();

        // Lines 25/29 share one untorn (rank, gap) read per iteration; on
        // the emulated DWCAS path it is stripe-locked, so it can never
        // observe a half-applied pair update from a racing producer CAS.
        // The rank half's Acquire pairs with the producer's Release
        // rank-store (or release fence, on the batched path) and orders our
        // data read after the producer's data write.
        let (r, g) = words.load_pair_untorn(Ordering::Acquire);

        // Line 25: is this cell publishing exactly our rank?
        if r == rank {
            // SAFETY: a published cell's payload is initialized, and rank
            // equality makes this consumer its unique owner.
            let value = unsafe { (*cell.data()).assume_init_read() };
            // Line 27: recycle the cell. Release pairs with the producer's
            // Acquire rank-load so our data read happens-before any reuse.
            if MP {
                words.store_lo(RANK_FREE, Ordering::Release);
            } else {
                words.store_lo_unpaired(RANK_FREE, Ordering::Release);
            }
            stats.dequeued += 1;
            return Ok(value);
        }

        // Line 29: was our rank announced as a gap? `gap` is monotonically
        // increasing per cell, so `>= rank` also covers announcements that
        // superseded ours N positions later.
        if g >= rank {
            // Re-check the rank (the paper's `c.rank != rank` guard): the
            // producer may have published our rank after the pair read — a
            // gap announcement for a *later* rank does not cancel it.
            if words.load_lo(Ordering::Acquire) == rank {
                continue;
            }
            stats.gaps_skipped += 1;
            // Oldest parked rank first; only claim fresh when none parked.
            rank = match pending.pop_front() {
                Some(r) => r,
                None => claim_one(q, stats),
            };
            continue;
        }

        // Line 32: the item for our rank has not been produced yet.
        stats.not_ready += 1;
        if !disconnect_checked && q.state().producers().load(Ordering::Acquire) == 0 {
            // Give the cell one more look now that all completed enqueues
            // are guaranteed visible.
            disconnect_checked = true;
            continue;
        }
        pending.push_front(rank);
        return Err(if disconnect_checked {
            TryDequeueError::Disconnected
        } else {
            TryDequeueError::Empty
        });
    }
}

/// [`dequeue_core`] without the cell recycle: dequeues one item, leaving
/// its cell publishing the rank until the caller hands the rank back
/// through `RawConsumer::retire`. The borrowed-read primitive of the
/// zero-copy bytes lane — the un-recycled cell is what keeps the rank's
/// slot buffer safe from producer reuse while a `PayloadRef` borrows it.
/// `T: Copy` because the value is copied out of a still-initialized cell.
#[inline]
pub(crate) fn dequeue_claim_core<T: Copy, C: CellSlot<T>, M: IndexMap, const MP: bool>(
    q: &RawQueue<T, C, M>,
    pending: &mut PendingRanks,
    stats: &mut ConsumerStats,
) -> Result<(i64, T), TryDequeueError> {
    let mut rank = match pending.pop_front() {
        Some(r) => r,
        None => claim_one(q, stats),
    };
    debug_assert!(rank >= 0, "rank counter overflowed i64");
    let mut disconnect_checked = false;
    loop {
        let cell = q.cell(rank);
        let words = cell.words();
        // Same untorn pair read and ordering discipline as dequeue_core.
        let (r, g) = words.load_pair_untorn(Ordering::Acquire);
        if r == rank {
            // SAFETY: published cell, unique owner by rank equality; T is
            // Copy, so reading without un-initializing is sound.
            let value = unsafe { (*cell.data()).assume_init_read() };
            stats.dequeued += 1;
            return Ok((rank, value));
        }
        if g >= rank {
            if words.load_lo(Ordering::Acquire) == rank {
                continue;
            }
            stats.gaps_skipped += 1;
            rank = match pending.pop_front() {
                Some(r) => r,
                None => claim_one(q, stats),
            };
            continue;
        }
        stats.not_ready += 1;
        if !disconnect_checked && q.state().producers().load(Ordering::Acquire) == 0 {
            disconnect_checked = true;
            continue;
        }
        pending.push_front(rank);
        return Err(if disconnect_checked {
            TryDequeueError::Disconnected
        } else {
            TryDequeueError::Empty
        });
    }
}

/// Claims a run of up to `want` ranks below the mirrored tail, or `None`
/// when nothing is claimable. `head_cap` is an *absolute rank* the claim
/// must not reach (`i64::MAX`: no cap). Sharded consumers use the cap to
/// keep their shard's head within the documented reordering window of the
/// laggard shard (ALGORITHM.md §13).
///
/// The claim is a CAS loop, not a `fetch_add`: a `fetch_add` sized from a
/// head that another consumer advances before the RMW lands its run past
/// the tail snapshot (and past the cap). Past the tail, a single-producer
/// queue's ranks are unpublished, so the run would park in this handle
/// while later ranks go to other consumers — a FIFO inversion for a batch
/// call that returns before its parked ranks publish. The CAS re-reads the
/// head on every failure, so both bounds hold under any interleaving.
#[inline]
fn claim_run_capped<T, C: CellSlot<T>, M: IndexMap>(
    q: &RawQueue<T, C, M>,
    stats: &mut ConsumerStats,
    want: i64,
    head_cap: i64,
) -> Option<(i64, i64)> {
    // Emptiness pre-check and claim sizing in one: only ranks below the
    // mirrored tail are worth claiming.
    let tail = q.state().tail().load(Ordering::Acquire);
    let mut head = q.state().head().load(Ordering::Relaxed);
    loop {
        let avail = (tail - head).min(want).min(head_cap - head);
        if avail <= 0 {
            return None;
        }
        stats.head_rmws += 1;
        // Relaxed: the CAS only hands out unique rank runs; publication
        // synchronizes through the cell words. Strong, so `head_rmws`
        // counts only claims another consumer actually raced.
        match q.state().head().compare_exchange(
            head,
            head + avail,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => {
                debug_assert!(head >= 0, "head counter overflowed i64");
                stats.ranks_claimed += avail as u64;
                q.state().wake_producers(avail as usize);
                return Some((head, head + avail));
            }
            Err(cur) => head = cur,
        }
    }
}

/// Harvests up to `max` ready items into `buf`, claiming head ranks in runs
/// (one CAS per run, uncontended) instead of one at a time. Returns the
/// number of items appended; never blocks.
///
/// Parked ranks from earlier claims are always harvested first, in claim
/// order. When they run out, a new run is claimed only for ranks the
/// mirrored tail reports as resolved — so a drain on an empty queue claims
/// nothing, and (for single-producer queues, whose tail mirror trails rank
/// publication) a run claimed here never parks: every rank in it is already
/// published or gap-announced.
///
/// Reports neither emptiness nor disconnection — a `0` return means no item
/// was ready; use the per-item path to distinguish `Disconnected`.
pub(crate) fn dequeue_batch_core<T, C: CellSlot<T>, M: IndexMap, const MP: bool>(
    q: &RawQueue<T, C, M>,
    pending: &mut PendingRanks,
    stats: &mut ConsumerStats,
    buf: &mut Vec<T>,
    max: usize,
) -> usize {
    dequeue_batch_capped_core::<T, C, M, MP>(q, pending, stats, buf, max, i64::MAX)
}

/// [`dequeue_batch_core`] with a `head_cap` bound on *fresh* claims: no
/// rank at or past `head_cap` is claimed by this call (parked runs from
/// earlier claims are still harvested — they were bounded when claimed).
/// This is the consumer-side enforcement primitive for the sharded
/// frontend's k-relaxed FIFO contract.
pub(crate) fn dequeue_batch_capped_core<T, C: CellSlot<T>, M: IndexMap, const MP: bool>(
    q: &RawQueue<T, C, M>,
    pending: &mut PendingRanks,
    stats: &mut ConsumerStats,
    buf: &mut Vec<T>,
    max: usize,
    head_cap: i64,
) -> usize {
    let mut n = 0usize;
    'harvest: while n < max {
        // Take the oldest parked run whole, or claim a fresh one — the run
        // is then walked with a plain local cursor, touching the pending
        // deque again only for leftovers.
        let (start, end) = match pending.pop_run() {
            Some(run) => run,
            None => match claim_run_capped(q, stats, (max - n) as i64, head_cap) {
                Some(run) => run,
                None => break,
            },
        };
        // Ranks past the harvest bound go straight back; gap skips below
        // may leave `n` short of that bound, in which case the outer loop
        // claims again.
        let stop = end.min(start + (max - n) as i64);
        let mut rank = start;
        while rank < stop {
            let cell = q.cell(rank);
            let words = cell.words();
            loop {
                // Same cell protocol and ordering discipline as dequeue_core
                // (one untorn pair read, then the rank re-check guard).
                let (r, g) = words.load_pair_untorn(Ordering::Acquire);
                if r == rank {
                    // SAFETY: published cell, unique owner by rank equality.
                    let value = unsafe { (*cell.data()).assume_init_read() };
                    if MP {
                        words.store_lo(RANK_FREE, Ordering::Release);
                    } else {
                        words.store_lo_unpaired(RANK_FREE, Ordering::Release);
                    }
                    buf.push(value);
                    n += 1;
                    break;
                }
                if g >= rank {
                    if words.load_lo(Ordering::Acquire) == rank {
                        continue;
                    }
                    stats.gaps_skipped += 1;
                    break;
                }
                // Not produced yet (multi-producer claims can outrun
                // publication): park the rest of the run and stop.
                stats.not_ready += 1;
                pending.push_front_run(rank, end);
                break 'harvest;
            }
            rank += 1;
        }
        if stop < end {
            pending.push_front_run(stop, end);
        }
    }
    stats.dequeued += n as u64;
    stats.batch_dequeues += 1;
    stats.batch_items += n as u64;
    n
}

/// The wake condition of a consumer blocked after an `Empty`: its front
/// pending rank's cell got published or gap-announced, or — with no pending
/// rank — the mirrored tail shows *something* to claim, or no producer is
/// left to ever publish. Precise on the pending-rank side on purpose: for
/// multi-producer queues the shared tail advances at claim time, long
/// before publication, so "tail moved" would wake a parked consumer into a
/// still-unpublished cell over and over.
#[inline]
pub(crate) fn wake_ready<T, C: CellSlot<T>, M: IndexMap>(
    q: &RawQueue<T, C, M>,
    front: Option<i64>,
) -> bool {
    if q.state().producers().load(Ordering::Acquire) == 0 {
        return true;
    }
    wake_ready_items(q, front)
}

/// The item-progress half of [`wake_ready`]: the front pending rank
/// resolved, or (with no pending rank) unclaimed items are visible.
///
/// Split out because the producers-gone disconnect term does not
/// aggregate with `any()`: a sharded consumer's member queues lose their
/// producer handles one at a time during a sharded producer's drop, so
/// "any member's producers gone" holds from the first decrement while
/// the drain keeps coming up empty until the last — a busy-poll window
/// its wait loop would spin through. Aggregating callers must `any()`
/// this half and `all()` the producer counts themselves.
pub(crate) fn wake_ready_items<T, C: CellSlot<T>, M: IndexMap>(
    q: &RawQueue<T, C, M>,
    front: Option<i64>,
) -> bool {
    match front {
        Some(rank) => {
            let (r, g) = q.cell(rank).words().load_pair_untorn(Ordering::Acquire);
            r == rank || g >= rank
        }
        None => !q.looks_empty(),
    }
}

/// Blocking wrapper around [`dequeue_core`]: waits — spinning, then
/// parking on the not-empty eventcount — while empty, returns
/// `Err(Disconnected)` once no item can ever arrive.
#[inline]
pub(crate) fn dequeue_blocking<T, C: CellSlot<T>, M: IndexMap, const MP: bool>(
    q: &RawQueue<T, C, M>,
    pending: &mut PendingRanks,
    stats: &mut ConsumerStats,
    cfg: WaitConfig,
) -> Result<T, crate::error::Disconnected> {
    let mut strat = WaitStrategy::new(cfg);
    let res = loop {
        match dequeue_core::<T, C, M, MP>(q, pending, stats) {
            Ok(value) => break Ok(value),
            Err(TryDequeueError::Empty) => {
                // dequeue_core re-parked the rank it was blocked on at the
                // front; that rank's state cannot change except by a
                // producer, so the snapshot stays valid across the park.
                let front = pending.front_rank();
                let state = q.state();
                strat.wait_round(state.not_empty(), state.wait_is_shared(), None, &mut || {
                    wake_ready(q, front)
                });
            }
            Err(TryDequeueError::Disconnected) => break Err(crate::error::Disconnected),
        }
    };
    stats.parks += strat.parks();
    res
}

/// Best-effort recovery for a dropping consumer: consume and drop any
/// already-published item among its parked ranks so those cells return to
/// circulation. Unpublished ranks are forfeited (the paper's consumers are
/// immortal worker threads; see the README caveat).
pub(crate) fn recover_pending<T, C: CellSlot<T>, M: IndexMap, const MP: bool>(
    q: &RawQueue<T, C, M>,
    pending: &mut PendingRanks,
) {
    while let Some(rank) = pending.pop_front() {
        let cell = q.cell(rank);
        let words = cell.words();
        if words.load_lo(Ordering::Acquire) == rank {
            // SAFETY: rank equality makes this handle the payload's unique
            // owner.
            unsafe { (*cell.data()).assume_init_drop() };
            if MP {
                words.store_lo(RANK_FREE, Ordering::Release);
            } else {
                words.store_lo_unpaired(RANK_FREE, Ordering::Release);
            }
        }
    }
}

/// Fullness pre-check against the producer's *shadow* head (MCRingBuffer's
/// shadow-index technique): compares the private tail with a locally cached
/// head and re-reads the shared counter — the only Acquire load on this
/// path — when the cached bound is exhausted. The head only grows, so the
/// cache errs toward "full" and a pass is always safe; a refresh decides
/// for real.
#[inline]
pub(crate) fn looks_full_sp<T, C: CellSlot<T>, M: IndexMap>(
    q: &RawQueue<T, C, M>,
    tail: i64,
    head_cache: &mut i64,
    stats: &mut ProducerStats,
) -> bool {
    let cap = q.capacity() as i64;
    if tail - *head_cache < cap {
        return false;
    }
    *head_cache = q.state().head().load(Ordering::Acquire);
    stats.head_refreshes += 1;
    tail - *head_cache >= cap
}

/// The batched single-producer enqueue shared by the SPSC and SPMC
/// variants (the producer-side half of the amortization): write a run of
/// free cells' payloads first, publish all their ranks with one release
/// pass — a single `fence(Release)` followed by relaxed rank stores — and
/// mirror the tail once per run instead of once per item.
///
/// Gap announcements for busy cells are *not* deferred: consumers must be
/// able to step over a skipped cell before the run publishes.
///
/// Blocks (spinning, then parking on the not-full eventcount per `cfg`)
/// while the queue is full; never while holding staged cells. Staged cells
/// are invisible until their rank store, so a consumer assigned one of
/// those ranks simply sees "not ready" in the interim.
pub(crate) fn enqueue_many_sp<T, C: CellSlot<T>, M: IndexMap, I>(
    q: &RawQueue<T, C, M>,
    tail: &mut i64,
    head_cache: &mut i64,
    staged: &mut Vec<i64>,
    stats: &mut ProducerStats,
    cfg: WaitConfig,
    iter: I,
) -> usize
where
    I: IntoIterator<Item = T>,
{
    let mut iter = iter.into_iter();
    let cap = q.capacity() as i64;
    let mut n = 0usize;
    let mut carry = match iter.next() {
        Some(v) => v,
        None => return 0,
    };
    let mut strat = WaitStrategy::new(cfg);
    staged.clear(); // a panicking iterator may have left residue behind
    let n = loop {
        while looks_full_sp(q, *tail, head_cache, stats) {
            let state = q.state();
            let tail_now = *tail;
            strat.wait_round(state.not_full(), state.wait_is_shared(), None, &mut || {
                !looks_full_sp(q, tail_now, head_cache, stats)
            });
        }
        strat.reset();
        // Stage payload writes into free cells while the shadow bound
        // grants space (the head only grows, so the real free count is at
        // least the cached one). Clamped to one array's worth: consumers
        // claim head ranks *before* items exist, so `head` can run ahead of
        // `tail` and inflate the naive bound past `cap` — but publication
        // within a run is deferred, so the busy-cell check below cannot see
        // ranks staged earlier in the same run, and only a run of at most
        // `cap` consecutive ranks is guaranteed collision-free.
        let mut budget = (cap - (*tail - *head_cache)).min(cap);
        let run_start = *tail;
        // Fast path: while no gap has been burned, the staged ranks are
        // exactly `run_start..*tail` and need no side list. The first busy
        // cell spills the prefix into `staged` and the run continues there.
        let mut had_gap = false;
        let mut item = Some(carry);
        while budget > 0 {
            let Some(value) = item.take() else { break };
            let rank = *tail;
            debug_assert!(rank >= 0, "tail overflowed i64");
            let words = q.cell(rank).words();
            if words.load_lo(Ordering::Acquire) >= 0 {
                // Busy cell (Algorithm 1 line 13): skip it and announce the
                // gap immediately. Same ordering as the per-item path
                // (unpaired: single-producer queues never pair-CAS).
                words.store_hi_unpaired(rank, Ordering::Release);
                stats.gaps_created += 1;
                if !had_gap {
                    had_gap = true;
                    staged.extend(run_start..rank);
                }
                item = Some(value);
            } else {
                // SAFETY: a free cell stays free until this unique producer
                // publishes its rank; the Acquire load above pairs with the
                // consumer's Release reset, ordering its final payload read
                // before this overwrite.
                unsafe { (*q.cell(rank).data()).write(value) };
                if had_gap {
                    staged.push(rank);
                }
                item = iter.next();
            }
            *tail += 1;
            budget -= 1;
        }
        stats.ranks_taken += (*tail - run_start) as u64;
        let published = if had_gap {
            staged.len()
        } else {
            (*tail - run_start) as usize
        };
        if published > 0 {
            // The single release pass. The fence orders every staged
            // payload write before the relaxed rank stores, so a consumer's
            // Acquire load of any one published rank sees that cell's data
            // (fence-to-atomic synchronization); publishing in ascending
            // rank order keeps consumers from parking mid-run.
            fence(Ordering::Release);
            if had_gap {
                for &rank in staged.iter() {
                    q.cell(rank)
                        .words()
                        .store_lo_unpaired(rank, Ordering::Relaxed);
                }
                staged.clear();
            } else {
                for rank in run_start..*tail {
                    q.cell(rank)
                        .words()
                        .store_lo_unpaired(rank, Ordering::Relaxed);
                }
            }
            n += published;
            stats.enqueued += published as u64;
            stats.batch_enqueues += 1;
            stats.batch_items += published as u64;
        }
        // Mirror the tail once per run — len_hint and the consumers' claim
        // sizing read it; ordered after the rank stores so a rank below the
        // mirrored tail is always already resolved.
        q.state().tail().store(*tail, Ordering::Release);
        // Wake parked consumers once per run: a consumer parked on a
        // skipped or published rank it already *owns* is unblocked only by
        // that rank resolving, and a counted wake can land on other
        // consumers and leave the right wakee sleeping (see
        // `QueueState::wake_consumers_all`).
        if *tail > run_start {
            q.state().wake_consumers_all();
        }
        match item.or_else(|| iter.next()) {
            Some(v) => carry = v,
            None => break n,
        }
    };
    stats.parks += strat.parks();
    n
}

#[cfg(test)]
mod tests {
    use super::PendingRanks;

    #[test]
    fn pending_ranks_fifo_order() {
        let mut p = PendingRanks::default();
        assert!(p.is_empty());
        assert_eq!(p.pop_front(), None);
        p.push_run(10, 3); // 10, 11, 12
        p.push_run(20, 1); // 20
        assert_eq!(p.len(), 4);
        assert_eq!(p.pop_front(), Some(10));
        assert_eq!(p.pop_front(), Some(11));
        // Re-park 11: it must come out first again.
        p.push_front(11);
        assert_eq!(p.len(), 3);
        assert_eq!(p.pop_front(), Some(11));
        assert_eq!(p.pop_front(), Some(12));
        assert_eq!(p.pop_front(), Some(20));
        assert_eq!(p.pop_front(), None);
        assert!(p.is_empty());
    }

    #[test]
    fn pending_ranks_truncate_from_drops_only_the_tail() {
        let mut p = PendingRanks::default();
        p.push_run(0, 3); // 0, 1, 2
        p.push_run(10, 4); // 10, 11, 12, 13
                           // Bound inside the second run: 12 and 13 go, everything older stays.
        assert_eq!(p.truncate_from(12), 2);
        assert_eq!(p.len(), 5);
        // Bound below every parked rank: the whole set goes.
        assert_eq!(p.truncate_from(0), 5);
        assert!(p.is_empty());
        // Empty and past-the-end bounds are no-ops.
        assert_eq!(p.truncate_from(0), 0);
        p.push_run(5, 2);
        assert_eq!(p.truncate_from(7), 0);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn pending_ranks_coalesces_contiguous_runs() {
        let mut p = PendingRanks::default();
        p.push_run(0, 2);
        p.push_run(2, 2); // contiguous with [0, 2): coalesces
        assert_eq!(p.len(), 4);
        for want in 0..4 {
            assert_eq!(p.pop_front(), Some(want));
        }
        assert!(p.is_empty());
    }
}
