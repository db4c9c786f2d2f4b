//! Block-granular sharded MPMC frontend with a k-relaxed FIFO contract.
//!
//! A [`ShardedQueue`](self) spreads one logical queue over `N` independent
//! FFQ-m shards so that producers and consumers touching different shards
//! share no cache lines at all — the multi-shard analogue of the paper's
//! "one contended word is one coherence transaction" argument (§V-B). The
//! price is ordering: items on different shards may be delivered out of
//! enqueue order. This module makes that price *explicit and bounded*:
//!
//! - Producers fill shards in **blocks** of `B` consecutive items
//!   (`ShardedProducer` rotates shards on a block credit; `enqueue_many`
//!   reuses the staged-run publish of the batch API, so a block is one
//!   release pass). Per-shard FIFO is exact; cross-shard skew from the
//!   rotation is at most one block.
//! - Consumers pick shards by **c-choices load estimation** — sample two
//!   shards' occupancy, drain the fuller — with a work-stealing scan as
//!   fallback, and drain at most one block per shard visit.
//! - Every *fresh* rank claim is **capped** at `m + 2B`, where `m` is the
//!   smallest head rank over shards with visible items (the laggard).
//!   Heads are monotone, so a stale `m` only tightens the cap; the claim
//!   itself is a CAS, so the cap holds under any consumer race
//!   ([`crate::mpmc::Consumer::dequeue_batch_capped`]).
//!
//! Together these bound the reordering window: an item can be overtaken by
//! at most `k = 3 · (N − 1) · B` items enqueued after it
//! ([`relaxation_bound`]; derivation in ALGORITHM.md §13). The
//! [`Ordering`] contract names the two operating points: `Strict` degrades
//! to a single shard (`k = 0`, plain FFQ-m), `Relaxed(k)` picks the widest
//! shard count whose realized bound stays within `k`.
//!
//! The bound is stated for frontends with a single [`ShardedProducer`]
//! handle. Additional producer handles rotate independently, adding a
//! phase-skew term of up to `(P − 1) · B` per shard; per-producer FIFO is
//! still bounded, but by the larger window (§13 spells this out).

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use ffq_sync::atomic::{AtomicU64, Ordering as MemOrder};
use ffq_sync::{WaitCell, WaitConfig, WaitRound, WaitStrategy};

use crate::error::{Disconnected, Full, TryDequeueError};
use crate::mpmc;
use crate::stats::{ConsumerStats, ProducerStats, ShardStats};

/// Block size used by [`channel`]: items per shard visit. 64 × 8-byte
/// items is one block per 8 cache lines of payload — large enough to
/// amortize the rotation, small enough to keep the reordering window and
/// per-visit latency low.
pub const DEFAULT_BLOCK: usize = 64;

/// Upper limit on the shard count [`channel`] will derive from a
/// relaxation budget (explicit geometries may not exceed it either).
pub const MAX_SHARDS: usize = 64;

/// The FIFO contract of a sharded queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ordering {
    /// Exact FIFO: the queue degrades to a single shard and behaves as a
    /// plain FFQ-m MPMC queue (reordering bound 0, no sharding benefit).
    Strict,
    /// k-relaxed FIFO: an item may be overtaken by at most `k` items
    /// enqueued after it. [`channel`] picks the widest geometry whose
    /// realized bound ([`relaxation_bound`]) does not exceed the budget,
    /// so `Relaxed(0)` equals `Strict`.
    Relaxed(usize),
}

/// The realized reordering bound of an `(shards, block)` geometry:
/// `k = 3 · (shards − 1) · block`.
///
/// Per non-laggard shard, overtakers fit in the claim window
/// `[head, m + 2B)` of width at most `2B`, plus up to `B` of producer
/// rotation skew — `3B` per other shard. Single shard ⇒ `0`. Full
/// derivation: ALGORITHM.md §13.
pub const fn relaxation_bound(shards: usize, block: usize) -> usize {
    3 * (shards - 1) * block
}

/// Shared control block of one sharded queue: the aggregate eventcounts
/// (the per-shard `QueueState` cells stay in use for intra-shard waits,
/// but sharded handles park *here*, where one wake covers every shard)
/// and the immutable geometry.
struct ShardCtl {
    /// Parked sharded consumers; notified on every publish to any shard.
    not_empty: WaitCell,
    /// Parked sharded producers (all shards full); notified per harvest.
    not_full: WaitCell,
    /// Items per shard visit (the block size `B`).
    block: usize,
    /// Realized reordering bound `3 · (N − 1) · B`.
    bound: usize,
    /// The contract handed to [`channel`] (normalized: single shard ⇒
    /// `Strict`).
    ordering: Ordering,
}

/// Seed source for the consumers' xorshift generators: a counter stepped
/// by a large odd constant, so clones and fresh handles never share a
/// stream. No clock involved (loom-safe, deterministic under test).
static RNG_SEEDS: AtomicU64 = AtomicU64::new(0x9E37_79B9_7F4A_7C15);

fn next_seed() -> u64 {
    RNG_SEEDS.fetch_add(0x9E37_79B9_7F4A_7C15, MemOrder::Relaxed) | 1
}

/// Creates a sharded MPMC channel with the given total capacity and FIFO
/// contract, using [`DEFAULT_BLOCK`]-item blocks. `Relaxed(k)` yields
/// `k / (3 · B) + 1` shards (clamped to `[1, MAX_SHARDS]`) — the widest
/// geometry whose realized bound stays within the budget.
///
/// Both handles are [`Clone`]; capacity is split evenly across shards
/// (each shard gets at least one block, then rounds up to a power of
/// two, so the realized total can exceed the request).
pub fn channel<T: Send>(
    capacity: usize,
    ordering: Ordering,
) -> (ShardedProducer<T>, ShardedConsumer<T>) {
    let shards = match ordering {
        Ordering::Strict => 1,
        Ordering::Relaxed(k) => (k / (3 * DEFAULT_BLOCK) + 1).clamp(1, MAX_SHARDS),
    };
    channel_with_geometry(capacity, shards, DEFAULT_BLOCK)
}

/// [`channel`] with an explicit `(shards, block)` geometry. The realized
/// contract is `Relaxed(`[`relaxation_bound`]`(shards, block))`, or
/// `Strict` for a single shard.
pub fn channel_with_geometry<T: Send>(
    capacity: usize,
    shards: usize,
    block: usize,
) -> (ShardedProducer<T>, ShardedConsumer<T>) {
    assert!(
        (1..=MAX_SHARDS).contains(&shards),
        "shard count must be in 1..={MAX_SHARDS}"
    );
    assert!(block >= 1, "block size must be at least 1");
    let per_shard = (capacity / shards).max(block).max(2);
    let mut txs = Vec::with_capacity(shards);
    let mut rxs = Vec::with_capacity(shards);
    for _ in 0..shards {
        let (tx, rx) = mpmc::channel::<T>(per_shard);
        txs.push(tx);
        rxs.push(rx);
    }
    let bound = relaxation_bound(shards, block);
    let ctl = Arc::new(ShardCtl {
        not_empty: WaitCell::new(),
        not_full: WaitCell::new(),
        block,
        bound,
        ordering: if shards == 1 {
            Ordering::Strict
        } else {
            Ordering::Relaxed(bound)
        },
    });
    let tx = ShardedProducer {
        shards: txs,
        ctl: Arc::clone(&ctl),
        cur: 0,
        credit: block,
        wait: WaitConfig::default(),
        shard_stats: ShardStats::default(),
    };
    let rx = ShardedConsumer {
        shards: rxs,
        ctl,
        stash: VecDeque::new(),
        rng: next_seed(),
        wait: WaitConfig::default(),
        shard_stats: ShardStats::default(),
    };
    (tx, rx)
}

/// `true` when a sharded consumer has anything to act on: visible items
/// or parked claims on any shard, or no producer left (disconnect must
/// wake parked consumers).
fn consumer_ready<T: Send>(shards: &[mpmc::Consumer<T>]) -> bool {
    // Precision is load-bearing: `wait_round` skips the park when the
    // predicate holds, so a coarse condition (say "any pending rank")
    // would busy-spin while that rank is still unpublished. Per-shard
    // `wake_ready_items` is `true` only when a retry can harvest — the
    // front pending cell resolved or unclaimed items are visible.
    //
    // The disconnect term aggregates with `all()`, NOT inside the
    // `any()`: a sharded producer's drop zeroes the per-shard handle
    // counts one at a time, so "any shard's producers gone" turns true
    // at the first decrement while `try_dequeue` keeps reporting `Empty`
    // until the last — a busy-poll window (unbounded if the dropping
    // thread is preempted) that the `loom_shard_claim_steal` model
    // caught as a livelock.
    shards.iter().any(|c| c.wake_ready_items()) || shards.iter().all(|c| c.producers() == 0)
}

/// A producing handle of a sharded queue. Clone it to add producers (see
/// the module docs for the multi-producer bound caveat).
pub struct ShardedProducer<T: Send> {
    shards: Vec<mpmc::Producer<T>>,
    ctl: Arc<ShardCtl>,
    /// Shard currently being filled.
    cur: usize,
    /// Items left in the current block before rotating to the next shard.
    credit: usize,
    wait: WaitConfig,
    shard_stats: ShardStats,
}

impl<T: Send> ShardedProducer<T> {
    /// Advances to the next shard with a fresh block credit.
    fn rotate(&mut self) {
        self.cur = (self.cur + 1) % self.shards.len();
        self.credit = self.ctl.block;
        self.shard_stats.shard_visits += 1;
    }

    /// Attempts to enqueue without blocking. Stays on the current shard
    /// until its block credit is spent, then rotates.
    ///
    /// A full *current* shard fails the call — the rotation never skips a
    /// shard. Skipping would let shard phases drift apart (a
    /// systematically full shard would receive ever fewer items at ever
    /// lower shard-local ranks), and the consumers' head cap compares
    /// shard-local ranks: the k-bound holds precisely *because* strict
    /// rotation keeps every shard's tail rank within one block of the
    /// others. Progress is safe regardless: a full shard has visible
    /// items, is the eventual laggard, and the cap forces consumers onto
    /// it.
    ///
    /// For the same reason the inner call is the *gapless* variant: the
    /// stock FFQ-m `try_enqueue` burns tail ranks as gaps while probing a
    /// full shard, which silently advances that shard's rank phase past
    /// the others' and voids the cross-shard comparison. Gapless enqueues
    /// keep ranks taken equal to items enqueued on every shard.
    pub fn try_enqueue(&mut self, value: T) -> Result<(), Full<T>> {
        let gaps_before = self.shards[self.cur].stats().gaps_created;
        match self.shards[self.cur].try_enqueue_gapless(value) {
            Ok(()) => {
                self.ctl.not_empty.notify(1, false);
                self.credit -= 1;
                if self.credit == 0 {
                    self.rotate();
                }
                Ok(())
            }
            Err(full) => {
                // A clone race can burn the claimed rank as a gap. The
                // inner announce broadcasts on the per-shard eventcount,
                // but sharded consumers park *here* — re-announce on the
                // aggregate cell or a consumer parked on that rank is
                // never woken.
                if self.shards[self.cur].stats().gaps_created > gaps_before {
                    self.ctl.not_empty.notify_all(false);
                }
                Err(full)
            }
        }
    }

    /// Enqueues one item, waiting — spinning, then parking on the
    /// aggregate not-full eventcount — while the current shard is full.
    pub fn enqueue(&mut self, value: T) {
        let mut value = value;
        let mut strat = WaitStrategy::new(self.wait);
        loop {
            match self.try_enqueue(value) {
                Ok(()) => return,
                Err(Full(v)) => {
                    value = v;
                    let ctl = Arc::clone(&self.ctl);
                    let cur = &self.shards[self.cur];
                    strat.wait_round(&ctl.not_full, false, None, &mut || {
                        cur.len_hint() < cur.capacity()
                    });
                }
            }
        }
    }

    /// Enqueues every item of `iter`, splitting it into at-most-one-block
    /// runs per shard visit; each run goes through the inner
    /// [`enqueue_run_gapless`](mpmc::Producer::enqueue_run_gapless)
    /// staged publish (one tail RMW per run, no burned ranks — see
    /// [`try_enqueue`](Self::try_enqueue) for why gapless is load-bearing
    /// here). Blocks while the current shard is full, like `enqueue`.
    /// Returns the count (always the iterator's length).
    pub fn enqueue_many<I: IntoIterator<Item = T>>(&mut self, iter: I) -> usize {
        let mut iter = iter.into_iter();
        let mut chunk: VecDeque<T> = VecDeque::new();
        let mut n = 0usize;
        let mut strat = WaitStrategy::new(self.wait);
        loop {
            if chunk.is_empty() {
                chunk.extend(iter.by_ref().take(self.credit));
                if chunk.is_empty() {
                    break;
                }
            }
            let gaps_before = self.shards[self.cur].stats().gaps_created;
            let got = self.shards[self.cur].enqueue_run_gapless(&mut chunk, self.credit);
            if self.shards[self.cur].stats().gaps_created > gaps_before {
                // Clone-race fallback burned ranks as gaps; see
                // `try_enqueue` for why the aggregate broadcast is needed.
                self.ctl.not_empty.notify_all(false);
            }
            if got > 0 {
                strat.reset();
                n += got;
                self.ctl.not_empty.notify(got, false);
                self.credit -= got;
                if self.credit == 0 {
                    self.rotate();
                }
            } else {
                // Current shard full: wait for a harvest to free cells.
                // Strict rotation never skips it (see `try_enqueue`).
                let ctl = Arc::clone(&self.ctl);
                let cur = &self.shards[self.cur];
                strat.wait_round(&ctl.not_full, false, None, &mut || {
                    cur.len_hint() < cur.capacity()
                });
            }
        }
        n
    }

    /// Replaces the wait policy used by blocking enqueues.
    pub fn set_wait_config(&mut self, cfg: WaitConfig) {
        self.wait = cfg;
    }

    /// Total capacity across shards.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|p| p.capacity()).sum()
    }

    /// Approximate total number of items currently enqueued.
    pub fn len_hint(&self) -> usize {
        self.shards.iter().map(|p| p.len_hint()).sum()
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Items per shard visit (the block size `B`).
    pub fn block_size(&self) -> usize {
        self.ctl.block
    }

    /// The realized reordering bound `k` of this queue's geometry.
    pub fn relaxation_bound(&self) -> usize {
        self.ctl.bound
    }

    /// The realized FIFO contract.
    pub fn ordering(&self) -> Ordering {
        self.ctl.ordering
    }

    /// Number of live consumer handles (sharded handles count once per
    /// shard on each inner queue; this reports the sharded-handle count).
    pub fn consumers(&self) -> usize {
        self.shards.first().map_or(0, |p| p.consumers())
    }

    /// Per-shard producer counters of this handle, merged.
    pub fn stats(&self) -> ProducerStats {
        self.shards
            .iter()
            .fold(ProducerStats::default(), |acc, p| acc.merge(p.stats()))
    }

    /// This handle's shard-selection counters.
    pub fn shard_stats(&self) -> ShardStats {
        self.shard_stats
    }
}

impl<T: Send> Clone for ShardedProducer<T> {
    fn clone(&self) -> Self {
        Self {
            shards: self.shards.clone(),
            ctl: Arc::clone(&self.ctl),
            // Fresh handles start on shard 0 with a full block credit;
            // their rotation phase is independent by design.
            cur: 0,
            credit: self.ctl.block,
            wait: self.wait,
            shard_stats: ShardStats::default(),
        }
    }
}

impl<T: Send> Drop for ShardedProducer<T> {
    fn drop(&mut self) {
        // Release the per-shard handles first, then broadcast on the
        // aggregate cells: a parked sharded consumer re-checks
        // `producers()` and must be able to observe the decrements this
        // drop performed. (The inner drops broadcast on the per-shard
        // cells, but sharded handles never park there.)
        self.shards.clear();
        self.ctl.not_empty.notify_all(false);
        self.ctl.not_full.notify_all(false);
    }
}

/// A consuming handle of a sharded queue. Clone it to add consumers.
///
/// Items are drained one block per shard visit and served through a
/// handle-local stash, so per-item calls cost a deque pop between visits.
pub struct ShardedConsumer<T: Send> {
    shards: Vec<mpmc::Consumer<T>>,
    ctl: Arc<ShardCtl>,
    /// Items drained in block units but not yet handed out one-at-a-time.
    stash: VecDeque<T>,
    /// xorshift64* state for c-choices sampling and steal-scan offsets.
    rng: u64,
    wait: WaitConfig,
    shard_stats: ShardStats,
}

impl<T: Send> ShardedConsumer<T> {
    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// `true` when no producer handle is left on any shard (Acquire per
    /// the handle-count rule: observing zero makes every completed
    /// enqueue visible).
    fn producers_gone(&self) -> bool {
        self.shards.iter().all(|c| c.producers() == 0)
    }

    /// One block-granular drain pass: harvest parked claims first, then
    /// pick a shard by c-choices (fall back to a stealing scan) and drain
    /// at most one block from it under the `m + 2B` claim cap. Returns
    /// items appended to `buf`; `0` means nothing was ready *this pass* —
    /// a cap race with other consumers can under-report, so blocking
    /// paths re-poll via [`consumer_ready`].
    fn drain_block(&mut self, buf: &mut Vec<T>, max: usize) -> usize {
        let n = self.shards.len();
        let block = self.ctl.block;
        let want = max.min(block).max(1);

        // Parked runs are this handle's oldest claims; harvest them
        // before claiming anything new. `head_cap == 0` makes fresh
        // claims impossible (ranks are non-negative), so this pass is
        // harvest-only.
        for i in 0..n {
            if self.shards[i].pending_ranks() > 0 {
                let got = self.shards[i].dequeue_batch_capped(buf, want, 0);
                if got > 0 {
                    self.shard_stats.shard_visits += 1;
                    self.ctl.not_full.notify(got, false);
                    return got;
                }
            }
        }

        // Laggard bound: `m` = min head over shards with visible items.
        // Heads are monotone, so by the time a claim uses the cap a stale
        // `m` can only have *tightened* it — the k-bound never loosens.
        let mut m = i64::MAX;
        let mut active = 0usize;
        for c in &self.shards {
            if c.len_hint() > 0 {
                m = m.min(c.head_rank());
                active += 1;
            }
        }
        if active == 0 {
            return 0;
        }
        let cap = if n == 1 {
            i64::MAX // Strict mode: plain FFQ-m, no cap.
        } else {
            m.saturating_add(2 * block as i64)
        };
        let eligible = |c: &mpmc::Consumer<T>| c.len_hint() > 0 && (n == 1 || c.head_rank() < cap);

        // c-choices: sample two shards' occupancy, drain the fuller of
        // the eligible ones. Two uniform samples track the most loaded
        // shard exponentially better than one (power of two choices).
        let r = self.next_rand();
        let (a, b) = ((r as usize) % n, ((r >> 32) as usize) % n);
        self.shard_stats.occupancy_samples += if n > 1 { 2 } else { 1 };
        let choice = match (eligible(&self.shards[a]), eligible(&self.shards[b])) {
            (true, true) => {
                if self.shards[a].len_hint() >= self.shards[b].len_hint() {
                    Some(a)
                } else {
                    Some(b)
                }
            }
            (true, false) => Some(a),
            (false, true) => Some(b),
            (false, false) => None,
        };
        if let Some(i) = choice {
            let got = self.shards[i].dequeue_batch_capped(buf, want, cap);
            if got > 0 {
                self.shard_stats.shard_visits += 1;
                self.ctl.not_full.notify(got, false);
                return got;
            }
        }

        // Work-stealing fallback: both samples dry. Scan every shard from
        // a random offset; the laggard (head == m) is always eligible, so
        // a scan with items visible normally succeeds — it can still
        // return 0 when racing consumers out-drained us.
        let start = (self.next_rand() as usize) % n;
        for off in 0..n {
            let i = (start + off) % n;
            if Some(i) == choice || !eligible(&self.shards[i]) {
                continue;
            }
            let got = self.shards[i].dequeue_batch_capped(buf, want, cap);
            if got > 0 {
                self.shard_stats.shard_visits += 1;
                self.shard_stats.steals += 1;
                self.ctl.not_full.notify(got, false);
                return got;
            }
        }
        0
    }

    /// Attempts to dequeue one item without blocking.
    ///
    /// Best-effort like the underlying queues: a cap race with other
    /// consumers can report `Empty` while items are visible (the racing
    /// consumer claimed them). `Disconnected` is reported only after
    /// observing every producer gone *and* a full re-scan that turned up
    /// nothing — the Acquire producer-count loads guarantee every
    /// completed enqueue was visible to that re-scan.
    pub fn try_dequeue(&mut self) -> Result<T, TryDequeueError> {
        if let Some(v) = self.stash.pop_front() {
            return Ok(v);
        }
        // A single shard promises exact FIFO, so take one item per call:
        // an item left in the stash could be overtaken by another
        // consumer's dequeue that starts and ends before this handle's
        // next call returns it.
        let block = if self.shards.len() == 1 {
            1
        } else {
            self.ctl.block
        };
        let mut scratch = Vec::new();
        let mut got = self.drain_block(&mut scratch, block);
        // The disconnect verdict reuses the observation that gated the
        // re-scan: sampling the producer counts again at verdict time
        // would be a time-of-check/time-of-use hole — the fresh Acquire
        // load could observe a disconnect whose enqueues the drain above
        // never saw, reporting `Disconnected` over undelivered items.
        let mut gone = false;
        if got == 0 && self.producers_gone() {
            // Disconnect re-scan: the Acquire producer-count loads made
            // every completed enqueue visible, and with producers gone all
            // claims resolve — so one more pass either finds the leftovers
            // or proves the queue drained.
            gone = true;
            got = self.drain_block(&mut scratch, block);
        }
        self.stash.extend(scratch);
        match self.stash.pop_front() {
            Some(v) => Ok(v),
            None if got == 0 && gone => Err(TryDequeueError::Disconnected),
            None => Err(TryDequeueError::Empty),
        }
    }

    /// Dequeues one item, waiting — spinning, then parking on the
    /// aggregate not-empty eventcount — while every shard is empty.
    pub fn dequeue(&mut self) -> Result<T, Disconnected> {
        // Without a timeout only a disconnect ends the wait.
        self.dequeue_for(None).map_err(|_| Disconnected)
    }

    /// Dequeues one item, giving up after `timeout` (same deadline
    /// discipline as [`mpmc::Consumer::dequeue_timeout`]).
    pub fn dequeue_timeout(&mut self, timeout: Duration) -> Result<T, TryDequeueError> {
        self.dequeue_for(Some(timeout))
    }

    /// The one wait loop of [`dequeue`](Self::dequeue) and
    /// [`dequeue_timeout`](Self::dequeue_timeout).
    fn dequeue_for(&mut self, timeout: Option<Duration>) -> Result<T, TryDequeueError> {
        let mut strat = WaitStrategy::new(self.wait);
        loop {
            match self.try_dequeue() {
                Err(TryDequeueError::Empty) => {
                    let ctl = Arc::clone(&self.ctl);
                    let shards = &self.shards;
                    let round = strat.wait_round_for(&ctl.not_empty, false, timeout, &mut || {
                        consumer_ready(shards)
                    });
                    if round == WaitRound::Expired {
                        return Err(TryDequeueError::Empty);
                    }
                }
                res => return res,
            }
        }
    }

    /// Harvests up to `max` items into `buf`; returns the count. Never
    /// blocks. Serves the handle stash first, then drains block-by-block.
    pub fn dequeue_batch(&mut self, buf: &mut Vec<T>, max: usize) -> usize {
        let mut n = 0usize;
        while n < max {
            match self.stash.pop_front() {
                Some(v) => {
                    buf.push(v);
                    n += 1;
                }
                None => break,
            }
        }
        while n < max {
            let got = self.drain_block(buf, max - n);
            if got == 0 {
                break;
            }
            n += got;
        }
        n
    }

    /// Replaces the wait policy used by blocking dequeues.
    pub fn set_wait_config(&mut self, cfg: WaitConfig) {
        self.wait = cfg;
    }

    /// Total capacity across shards.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|c| c.capacity()).sum()
    }

    /// Approximate total number of items currently enqueued, including
    /// this handle's stash.
    pub fn len_hint(&self) -> usize {
        self.stash.len() + self.shards.iter().map(|c| c.len_hint()).sum::<usize>()
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Items per shard visit (the block size `B`).
    pub fn block_size(&self) -> usize {
        self.ctl.block
    }

    /// The realized reordering bound `k` of this queue's geometry.
    pub fn relaxation_bound(&self) -> usize {
        self.ctl.bound
    }

    /// The realized FIFO contract.
    pub fn ordering(&self) -> Ordering {
        self.ctl.ordering
    }

    /// Number of live producer handles.
    pub fn producers(&self) -> usize {
        self.shards.first().map_or(0, |c| c.producers())
    }

    /// Per-shard consumer counters of this handle, merged.
    pub fn stats(&self) -> ConsumerStats {
        self.shards
            .iter()
            .fold(ConsumerStats::default(), |acc, c| acc.merge(c.stats()))
    }

    /// This handle's shard-selection counters.
    pub fn shard_stats(&self) -> ShardStats {
        self.shard_stats
    }
}

impl<T: Send> Clone for ShardedConsumer<T> {
    fn clone(&self) -> Self {
        Self {
            shards: self.shards.clone(),
            ctl: Arc::clone(&self.ctl),
            stash: VecDeque::new(),
            rng: next_seed(),
            wait: self.wait,
            shard_stats: ShardStats::default(),
        }
    }
}

impl<T: Send> Drop for ShardedConsumer<T> {
    fn drop(&mut self) {
        // Inner drops recover published pending ranks; afterwards,
        // broadcast so parked producers re-check for freed space. The
        // stash is simply dropped — same forfeit semantics as the base
        // queues' pending recovery.
        self.shards.clear();
        self.ctl.not_full.notify_all(false);
        self.ctl.not_empty.notify_all(false);
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn strict_mode_is_single_shard_exact_fifo() {
        let (mut tx, mut rx) = channel::<u64>(128, Ordering::Strict);
        assert_eq!(tx.shards(), 1);
        assert_eq!(tx.relaxation_bound(), 0);
        assert_eq!(rx.ordering(), Ordering::Strict);
        for i in 0..100 {
            tx.enqueue(i);
        }
        for i in 0..100 {
            assert_eq!(rx.try_dequeue(), Ok(i));
        }
        assert_eq!(rx.try_dequeue(), Err(TryDequeueError::Empty));
    }

    #[test]
    fn relaxed_budget_picks_widest_geometry_within_bound() {
        let (tx, _rx) = channel::<u64>(1024, Ordering::Relaxed(0));
        assert_eq!(tx.shards(), 1); // Relaxed(0) == Strict
        let (tx, _rx) = channel::<u64>(1024, Ordering::Relaxed(3 * DEFAULT_BLOCK));
        assert_eq!(tx.shards(), 2);
        assert!(tx.relaxation_bound() <= 3 * DEFAULT_BLOCK);
        let (tx, _rx) = channel::<u64>(8192, Ordering::Relaxed(usize::MAX));
        assert_eq!(tx.shards(), MAX_SHARDS);
    }

    #[test]
    fn geometry_bound_formula() {
        assert_eq!(relaxation_bound(1, 64), 0);
        assert_eq!(relaxation_bound(4, 8), 72);
        let (tx, _rx) = channel_with_geometry::<u64>(256, 4, 8);
        assert_eq!(tx.relaxation_bound(), 72);
        assert_eq!(tx.ordering(), Ordering::Relaxed(72));
    }

    #[test]
    fn single_consumer_drains_all_with_per_shard_fifo() {
        let shards = 4;
        let block = 8;
        let total = 4000u64;
        let (mut tx, mut rx) = channel_with_geometry::<u64>(2048, shards, block);
        let producer = std::thread::spawn(move || {
            assert_eq!(tx.enqueue_many(0..total), total as usize);
        });
        let mut got = Vec::new();
        while got.len() < total as usize {
            match rx.dequeue() {
                Ok(v) => got.push(v),
                Err(Disconnected) => break,
            }
        }
        producer.join().unwrap();
        assert_eq!(got.len(), total as usize);
        // Exactly once.
        let set: HashSet<u64> = got.iter().copied().collect();
        assert_eq!(set.len(), total as usize);
        // Per-shard FIFO: with an unfull queue the producer rotates
        // strictly, so an item's shard is (v / block) % shards; each
        // shard's subsequence must arrive in order.
        let mut last = vec![None::<u64>; shards];
        for &v in &got {
            let s = (v / block as u64) as usize % shards;
            if let Some(prev) = last[s] {
                assert!(prev < v, "shard {s} reordered: {prev} after {v}");
            }
            last[s] = Some(v);
        }
    }

    #[test]
    fn displacement_stays_within_documented_bound() {
        // Single producer, single consumer: every delivery displacement
        // must stay within k = 3(N-1)B plus one in-flight block per shard
        // of slack (the stash and the block the producer is mid-way
        // through are delivery-side buffers the interval-based overtake
        // measure does not count).
        let shards = 4;
        let block = 8;
        let k = relaxation_bound(shards, block);
        let total = 20_000u64;
        let (mut tx, mut rx) = channel_with_geometry::<u64>(512, shards, block);
        let producer = std::thread::spawn(move || {
            for v in 0..total {
                tx.enqueue(v);
            }
            tx.stats()
        });
        let mut pos = vec![0u64; total as usize];
        for p in 0..total {
            let v = rx.dequeue().expect("producer still alive");
            pos[v as usize] = p;
        }
        let prod = producer.join().unwrap();
        // The bound only holds while rank phases stay aligned, which the
        // gapless enqueue path guarantees for a single producer handle:
        // no burned ranks, ever.
        assert_eq!(prod.gaps_created, 0, "single-handle producer burned ranks");
        assert_eq!(prod.ranks_taken, prod.enqueued, "rank/item parity broken");
        let max_disp = pos
            .iter()
            .enumerate()
            .map(|(v, &p)| (p as i64 - v as i64).unsigned_abs())
            .max()
            .unwrap();
        let slack = shards * block;
        assert!(
            max_disp <= (k + slack) as u64,
            "displacement {max_disp} exceeds bound {k} + slack {slack}"
        );
    }

    #[test]
    fn consumer_sees_disconnect_after_drain() {
        let (mut tx, mut rx) = channel_with_geometry::<u32>(64, 2, 4);
        tx.enqueue_many(0..10u32);
        drop(tx);
        let mut seen = HashSet::new();
        for _ in 0..10 {
            seen.insert(rx.dequeue().unwrap());
        }
        assert_eq!(seen.len(), 10);
        assert_eq!(rx.dequeue(), Err(Disconnected));
        assert_eq!(rx.try_dequeue(), Err(TryDequeueError::Disconnected));
    }

    #[test]
    fn mpmc_clones_partition_items() {
        let producers = 2;
        let consumers = 3;
        let per_producer = 5000u64;
        let (tx, rx) = channel_with_geometry::<u64>(1024, 4, 16);
        let mut handles = Vec::new();
        for p in 0..producers {
            let mut tx = tx.clone();
            handles.push(std::thread::spawn(move || {
                let base = p as u64 * per_producer;
                tx.enqueue_many(base..base + per_producer);
            }));
        }
        drop(tx);
        let mut drains = Vec::new();
        for _ in 0..consumers {
            let mut rx = rx.clone();
            drains.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                let mut buf = Vec::new();
                loop {
                    buf.clear();
                    if rx.dequeue_batch(&mut buf, 64) > 0 {
                        got.append(&mut buf);
                        continue;
                    }
                    match rx.dequeue() {
                        Ok(v) => got.push(v),
                        Err(Disconnected) => break,
                    }
                }
                got
            }));
        }
        drop(rx);
        for h in handles {
            h.join().unwrap();
        }
        let mut all = Vec::new();
        for d in drains {
            all.extend(d.join().unwrap());
        }
        assert_eq!(all.len(), (producers as u64 * per_producer) as usize);
        let set: HashSet<u64> = all.iter().copied().collect();
        assert_eq!(set.len(), all.len(), "duplicate delivery");
    }

    #[test]
    fn shard_stats_count_visits_and_samples() {
        let (mut tx, mut rx) = channel_with_geometry::<u64>(512, 4, 8);
        tx.enqueue_many(0..256u64);
        let mut buf = Vec::new();
        while rx.dequeue_batch(&mut buf, 64) > 0 {}
        assert_eq!(buf.len(), 256);
        let s = rx.shard_stats();
        assert!(s.shard_visits >= (256 / 8) as u64);
        assert!(s.occupancy_samples >= 2);
        assert!(tx.shard_stats().shard_visits >= (256 / 8 - 1) as u64);
        // Inner counters aggregate across shards.
        assert_eq!(rx.stats().dequeued, 256);
        assert_eq!(tx.stats().enqueued, 256);
    }

    #[test]
    fn blocking_enqueue_unblocks_on_harvest() {
        let (mut tx, mut rx) = channel_with_geometry::<u64>(8, 2, 2);
        let cap = tx.capacity() as u64;
        let producer = std::thread::spawn(move || {
            for v in 0..cap + 16 {
                tx.enqueue(v);
            }
        });
        let mut got = 0u64;
        while got < cap + 16 {
            if rx.dequeue().is_ok() {
                got += 1;
            }
        }
        producer.join().unwrap();
    }
}
