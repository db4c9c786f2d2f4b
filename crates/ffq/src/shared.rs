//! The heap-backed queue container, FFQ_DEQ's cell step, and the batched
//! single-producer enqueue path.
//!
//! Since the raw-memory split (see [`crate::raw`]) every protocol step here
//! operates on a [`RawQueue`] view — the same code path serves heap queues
//! and shared-memory queues. [`Shared`] is the heap backing: it owns the
//! `#[repr(C)]` [`QueueState`] and the cell array, hands out views into
//! itself, and drops unconsumed payloads when the last handle goes away.
//!
//! The dequeue protocol (Algorithm 1, `FFQ_DEQ`) is identical for every
//! variant, so its per-cell step — the untorn `(rank, gap)` read, the rank
//! match, the gap skip with the paper's re-check guard and the sticky
//! disconnect probe — is the one function [`visit`] here. The consumer
//! engines in [`crate::raw`] differ only in where a rank comes from: the
//! shared head (SPMC and MPMC, with pending ranks) or the SPSC private head.

use core::marker::PhantomData;
use std::collections::VecDeque;
use std::sync::Arc;

use ffq_sync::atomic::{fence, Ordering};

use ffq_sync::{WaitConfig, WaitStrategy};

use crate::cell::CellSlot;
use crate::error::TryDequeueError;
use crate::layout::{normalize_capacity, IndexMap};
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
    /// Allocates an empty `flavor` queue of at least `capacity` cells,
    /// counted for one producer and one consumer handle.
    ///
    /// # Panics
    /// If `capacity` is 0 or exceeds [`crate::layout::MAX_CAPACITY`].
    pub(crate) fn heap(capacity: usize, flavor: &str) -> Arc<Self> {
        let cap_log2 =
            normalize_capacity(capacity).unwrap_or_else(|e| panic!("ffq::{flavor}::channel: {e}"));
        let cells: Box<[C]> = (0..1usize << cap_log2).map(|_| C::empty()).collect();
        Arc::new(Self {
            state: QueueState::in_process(cap_log2, 1, 1),
            cells,
            _marker: PhantomData,
        })
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

/// How [`visit`] treats a rank whose item is not there yet. Carried across
/// the cells of one call, so the disconnect verdict is sticky.
#[derive(Clone, Copy)]
pub(crate) enum Probe {
    /// A harvest: stop at the cell, uncounted. Harvests never report
    /// disconnection, so they never read the producer count.
    Off,
    /// Count the miss and read `producers` once: at 0, look at the cell
    /// once more before answering.
    Armed,
    /// `producers` read 0 earlier in this call. That one Acquire load made
    /// *every* completed enqueue visible, not just the cell's it was read
    /// at, so a miss now is final — even after gap skips, which must not
    /// re-arm the probe (that could bounce a drained, producer-less queue
    /// back to `Empty`).
    Gone,
}

/// What [`visit`] found at a rank's cell.
pub(crate) enum Visit<'q, C> {
    /// The cell publishes the rank: its payload belongs to the caller.
    Published(&'q C),
    /// The rank was announced as a gap: step over it.
    Gap,
    /// Nothing there yet (`Empty`), or nothing ever will be
    /// (`Disconnected`, only after [`Probe::Armed`] read no producer).
    Missing(TryDequeueError),
}

/// FFQ_DEQ's cell step (Algorithm 1, lines 25–33) for a rank the caller
/// owns — claimed from the shared head, parked, or the SPSC private head.
/// Every consumer engine and harvest runs it.
///
/// Lines 25/29 share one untorn `(rank, gap)` read per look (`seen` is
/// the first look's, when the caller took it inline); on the
/// emulated DWCAS path it is stripe-locked, so it can never observe a
/// half-applied pair update from a racing producer CAS. Its rank half's
/// Acquire pairs with the producer's Release rank store (or release fence,
/// on the batched path) and orders the caller's payload read after the
/// producer's payload write.
#[inline(always)]
pub(crate) fn visit<'q, T, C: CellSlot<T>, M: IndexMap>(
    q: &'q RawQueue<T, C, M>,
    rank: i64,
    mut seen: Option<(i64, i64)>,
    probe: &mut Probe,
    stats: &mut ConsumerStats,
) -> Visit<'q, C> {
    debug_assert!(rank >= 0, "rank counter overflowed i64");
    let cell = q.cell(rank);
    let words = cell.words();
    loop {
        let (r, g) = match seen.take() {
            Some(pair) => pair,
            None => words.load_pair_untorn(Ordering::Acquire),
        };
        // Line 25: is this cell publishing exactly our rank?
        if r == rank {
            return Visit::Published(cell);
        }
        // Line 29: was our rank announced as a gap? `gap` only grows per
        // cell, so `>= rank` also covers announcements that superseded
        // ours N positions later.
        if g >= rank {
            // The paper's `c.rank != rank` guard: the producer may have
            // published our rank after the pair read — a gap announcement
            // for a *later* rank does not cancel it.
            if words.load_lo(Ordering::Acquire) == rank {
                continue;
            }
            stats.gaps_skipped += 1;
            return Visit::Gap;
        }
        // Line 32: the item for our rank has not been produced yet.
        match *probe {
            Probe::Off => return Visit::Missing(TryDequeueError::Empty),
            Probe::Gone => {
                stats.not_ready += 1;
                return Visit::Missing(TryDequeueError::Disconnected);
            }
            Probe::Armed => {
                stats.not_ready += 1;
                // Every enqueue completed before the producer count
                // dropped (Release on decrement), so once this Acquire
                // load reads 0 the next look sees it.
                if q.state().producers().load(Ordering::Acquire) != 0 {
                    return Visit::Missing(TryDequeueError::Empty);
                }
                *probe = Probe::Gone;
            }
        }
    }
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
    staged.clear(); // a panicking iterator may have left residue behind
    loop {
        if looks_full_sp(q, *tail, head_cache, stats) {
            wait_not_full_sp(q, *tail, head_cache, stats, cfg);
        }
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
            // Read now and written below, whichever way the check goes.
            words.prefetch_for_write();
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
            None => return n,
        }
    }
}

/// The wait of [`enqueue_many_sp`], entered only once a run finds the
/// queue full: parks on the not-full eventcount (per `cfg`, with a fresh
/// spin phase each time) until the shadow bound grants space again.
#[cold]
fn wait_not_full_sp<T, C: CellSlot<T>, M: IndexMap>(
    q: &RawQueue<T, C, M>,
    tail: i64,
    head_cache: &mut i64,
    stats: &mut ProducerStats,
    cfg: WaitConfig,
) {
    let mut strat = WaitStrategy::new(cfg);
    let state = q.state();
    loop {
        strat.wait_round(state.not_full(), state.wait_is_shared(), None, &mut || {
            !looks_full_sp(q, tail, head_cache, stats)
        });
        if !looks_full_sp(q, tail, head_cache, stats) {
            break;
        }
    }
    stats.parks += strat.parks();
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
