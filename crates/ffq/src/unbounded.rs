//! The unbounded tier: a lock-free segment list of FFQ rings.
//!
//! FFQ is bounded by design — the paper sizes the ring so it "never fills
//! up". This module removes the sizing obligation without touching the ring
//! protocol: an unbounded queue is a singly-linked list of fixed-capacity
//! `segment` rings. Enqueues run the ordinary bounded protocol on
//! the newest segment — [`crate::raw::RawProducer`] for one producer,
//! [`crate::mpmc`]'s claim-or-gap step for many; when it fills, the producer *rolls* — allocates (or
//! reuses, via a one-slot freelist) a fresh segment, links it, and seals the
//! old one — instead of waiting for consumers. **An unbounded enqueue never
//! blocks and never parks**; its cost beyond the bounded enqueue is one
//! pointer-chase amortized over a whole segment.
//!
//! Consumers drain the segment a handle is positioned on with the unchanged
//! [`crate::raw`] engines and follow the `next` link once a sealed segment
//! is drained. Drained segments are reclaimed through
//! [`ffq_sync::epoch`]: every handle owns an era slot; a retired segment is
//! freed (to the freelist, or the allocator) only once every live handle's
//! era has moved past the segment's. In steady state — consumers keeping up
//! — every roll is a freelist hit and the tier allocates nothing.
//!
//! # Sealing, per flavor
//!
//! *Single-producer* (spsc/spmc): the producer links the successor first,
//! then publishes the final tail as the segment's seal boundary, then drops
//! the segment's inner producer count to 0 (the consumers' disconnect
//! probe) and broadcasts a wake. Because the link precedes the seal, a
//! consumer that observes "disconnected" on a ring always finds either the
//! successor or a genuinely dropped producer.
//!
//! *Multi-producer* (mpmc): any producer that finds the segment full may
//! roll; a CAS on the `next` link elects one winner (losers donate their
//! fresh segment to the freelist). The winner then *poisons* the segment's
//! rank dispenser with a huge addend — claims landing at or past
//! `POISON_CUTOFF` (2^59) abandon the segment — and the dispenser value at
//! poison time becomes the seal boundary: every rank below it was claimed
//! by some producer and will be resolved (published or gap-announced) right
//! there; no rank at or past it ever will be. Consumers prune claimed ranks
//! beyond the boundary ([`crate::raw::RawConsumer::prune_pending_from`])
//! and advance once the head catches up to it.
//!
//! # Linearization at segment boundaries
//!
//! Within a segment, order is the ring's rank order, unchanged. Across
//! segments, every enqueue into segment *k+1* follows the seal of segment
//! *k* (the roll performs both), and every dequeue from *k+1* by a given
//! consumer follows its drain of *k* — so per-producer FIFO composes across
//! the seam exactly as it does across ranks. See ALGORITHM.md §14.
//!
//! # Reclamation is handle-driven
//!
//! A handle's era slot advances only when the handle itself crosses a
//! seam — so a handle that is held but never used (a prototype kept only
//! for `clone`, a standby consumer) keeps pinning the segment it last
//! touched, and every segment retired at or after that era stays in the
//! limbo list for as long as items keep flowing. This is the standard
//! epoch-reclamation trade: pinning is what makes the held pointer safe
//! to dereference later. Drop handles you are done with, or call
//! [`Consumer::catch_up`] / [`MpProducer::catch_up`] on rarely-used
//! ones to release their pin past segments other handles drained.
//!
//! # Handle limit
//!
//! Era slots are a fixed array: at most [`MAX_HANDLES`] producer+consumer
//! handles may be live on one unbounded queue (constructors and `clone`
//! panic past that). Bounded queues have no such limit.

use core::cell::UnsafeCell;
use core::ptr;
use std::sync::Arc;
use std::time::Duration;

use ffq_sync::atomic::{spin_loop, AtomicPtr, AtomicU32, AtomicU64, Ordering};
use ffq_sync::{DoubleWord, EraRegistry, WaitConfig, WaitRound, WaitStrategy};

use crate::cell::PaddedCell;
use crate::error::{Disconnected, Full, TryDequeueError};
use crate::layout::{normalize_capacity, LinearMap};
use crate::mpmc::resolve_rank;
use crate::raw::{ConsumerEngine, RawConsumer, RawProducer, RawSpscConsumer};
use crate::segment::Segment;
use crate::stats::{ConsumerStats, ProducerStats, SegmentStats};

/// Maximum live handles (producers + consumers) per unbounded queue — the
/// size of its era-slot registry.
pub const MAX_HANDLES: usize = 64;

/// Ranks at or past this value are poisoned: a multi-producer claim that
/// lands here learns the segment was sealed and abandons it. Far above any
/// reachable genuine rank (2^59 ranks at one per nanosecond is 18 years)
/// and far below the poison addend, so poisoned claims cannot wrap into
/// genuine range.
pub(crate) const POISON_CUTOFF: i64 = 1 << 59;

/// The addend the multi-producer seal applies to the rank dispenser.
const POISON: i64 = 1 << 60;

/// The shared control block of one unbounded queue: the segment-list ends,
/// the reclamation machinery, and the outer handle counts. One per queue,
/// behind an `Arc` in every handle.
struct Ctl<T: Send> {
    /// Newest *published* segment — where enqueues land — stored era-tagged
    /// as `(era as i64, ptr as i64)` so publication can be made monotone
    /// without dereferencing whatever pointer is currently stored (eras
    /// along the list strictly increase; see [`Ctl::publish_tail`]). A
    /// plain pointer CAS from the roller's own segment is not enough: a
    /// roller stalled between linking and publishing lets a later roll's
    /// publish fail silently, leaving the tail permanently stale.
    tail_seg: DoubleWord,
    /// Oldest possibly-undrained segment. Not a dequeue cursor (each
    /// consumer keeps its own position) — it elects the one retirer per
    /// segment: the consumer whose advance CASes `head_seg` past a segment
    /// owns putting it on the limbo list.
    head_seg: AtomicPtr<Segment<T>>,
    /// One-slot freelist of quiescent segments. One slot is enough to make
    /// the steady-state roll allocation-free: consumers keeping up retire
    /// segment *k* before the producer outgrows *k+1*.
    free: AtomicPtr<Segment<T>>,
    /// Spin lock over `retired` (cold path: one acquisition per segment
    /// lifetime, never on the enqueue/dequeue fast paths).
    retired_lock: AtomicU32,
    /// Limbo list: retired segments awaiting quiescence, `(ptr, era)`.
    retired: UnsafeCell<Vec<(*mut Segment<T>, u64)>>,
    /// Era dispenser for segment stamping; see [`ffq_sync::epoch`].
    next_seq: AtomicU64,
    /// Per-handle era slots gating reclamation.
    registry: EraRegistry,
    /// Live producer handles (the *outer* count; each segment's inner
    /// count is its seal flag).
    producers: AtomicU32,
    /// Live consumer handles.
    consumers: AtomicU32,
    /// log2 of every segment's cell count.
    cap_log2: u32,
}

// SAFETY: the raw segment pointers are shared-state handles whose access is
// mediated by the seal/epoch protocol; `retired` is guarded by
// `retired_lock`. `T: Send` is required because payloads move across
// threads through the segments.
unsafe impl<T: Send> Send for Ctl<T> {}
unsafe impl<T: Send> Sync for Ctl<T> {}

impl<T: Send> Ctl<T> {
    /// A queue of `1 << cap_log2`-cell segments with one initial producer
    /// and consumer handle (the constructor's pair).
    fn new(cap_log2: u32) -> Arc<Self> {
        let first = Box::into_raw(Segment::<T>::boxed(cap_log2, 0));
        Arc::new(Self {
            tail_seg: DoubleWord::new(0, first as i64),
            head_seg: AtomicPtr::new(first),
            free: AtomicPtr::new(ptr::null_mut()),
            retired_lock: AtomicU32::new(0),
            retired: UnsafeCell::new(Vec::new()),
            next_seq: AtomicU64::new(1),
            registry: EraRegistry::new(MAX_HANDLES),
            producers: AtomicU32::new(1),
            consumers: AtomicU32::new(1),
            cap_log2,
        })
    }

    /// The newest published segment.
    fn tail_ptr(&self) -> *mut Segment<T> {
        self.tail_seg.load_pair_untorn(Ordering::Acquire).1 as *mut Segment<T>
    }

    /// Advances `tail_seg` to `(era, new)` unless it already holds that
    /// era or a newer one. Monotone: the CAS retries from whatever older
    /// pair it finds, so a roller stalled mid-publish cannot hold the
    /// pointer back (a later roll's publish advances past it) and cannot
    /// regress it when it resumes (its stale expected pair no longer
    /// matches, and the era guard stops the retry). The era lives *in*
    /// the word — ordering two publishes never dereferences the stored
    /// pointer, which may belong to a segment this handle does not pin.
    fn publish_tail(&self, new: *mut Segment<T>, era: u64) {
        let era = era as i64;
        loop {
            let cur = self.tail_seg.load_pair_untorn(Ordering::Acquire);
            if cur.0 >= era {
                return;
            }
            if self
                .tail_seg
                .compare_exchange(cur, (era, new as i64))
                .is_ok()
            {
                return;
            }
        }
    }

    /// A fresh open segment for a roll: the freelist slot if it holds one
    /// (recycled under a new era), else a heap allocation.
    fn alloc_segment(&self, stats: &mut SegmentStats) -> *mut Segment<T> {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        // Acquire pairs with the Release that parked the segment in the
        // slot: its quiescent state is fully visible before we recycle.
        let cached = self.free.swap(ptr::null_mut(), Ordering::Acquire);
        if !cached.is_null() {
            stats.freelist_hits += 1;
            // SAFETY: only provably unreachable segments enter the slot,
            // and the swap made us their unique owner.
            unsafe { (*cached).recycle(seq) };
            cached
        } else {
            stats.segments_allocated += 1;
            Box::into_raw(Segment::boxed(self.cap_log2, seq))
        }
    }

    /// Returns a never-linked segment (a losing roll's allocation) to the
    /// freelist, or drops it if the slot is taken.
    fn release_unused(&self, seg: *mut Segment<T>) {
        if self
            .free
            .compare_exchange(ptr::null_mut(), seg, Ordering::Release, Ordering::Relaxed)
            .is_err()
        {
            // SAFETY: never linked — we are the unique owner.
            drop(unsafe { Box::from_raw(seg) });
        }
    }

    /// Puts a drained, unlinked-from-head segment on the limbo list, then
    /// frees every limbo entry whose era the registry proves quiescent
    /// (`era < min_active()`: no live handle can still touch it).
    fn retire(&self, seg: *mut Segment<T>, era: u64, stats: &mut SegmentStats) {
        stats.segments_retired += 1;
        while self
            .retired_lock
            .compare_exchange_weak(0, 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            spin_loop();
        }
        // SAFETY: the lock above grants exclusive access.
        let retired = unsafe { &mut *self.retired.get() };
        retired.push((seg, era));
        let min = self.registry.min_active();
        let mut i = 0;
        while i < retired.len() {
            if retired[i].1 < min {
                let (p, _) = retired.swap_remove(i);
                self.free_segment(p);
                stats.segments_freed += 1;
            } else {
                i += 1;
            }
        }
        self.retired_lock.store(0, Ordering::Release);
    }

    /// Frees a quiescent segment: into the freelist slot if empty, else
    /// back to the allocator.
    fn free_segment(&self, seg: *mut Segment<T>) {
        // Release pairs with `alloc_segment`'s Acquire swap.
        if self
            .free
            .compare_exchange(ptr::null_mut(), seg, Ordering::Release, Ordering::Relaxed)
            .is_err()
        {
            // SAFETY: quiescent — no handle can reach it.
            drop(unsafe { Box::from_raw(seg) });
        }
    }
}

impl<T: Send> Drop for Ctl<T> {
    fn drop(&mut self) {
        // The last handle is gone: exclusive access to everything.
        let retired = self.retired.get_mut();
        for (p, _) in retired.drain(..) {
            // SAFETY: limbo entries are unreachable from the list; sole owner.
            drop(unsafe { Box::from_raw(p) });
        }
        let mut cur = self.head_seg.load(Ordering::Relaxed);
        while !cur.is_null() {
            // SAFETY: walking the live chain as its sole owner.
            let next = unsafe { (*cur).next().load(Ordering::Relaxed) };
            drop(unsafe { Box::from_raw(cur) });
            cur = next;
        }
        let f = self.free.load(Ordering::Relaxed);
        if !f.is_null() {
            // SAFETY: the freelist slot's segment is unreachable; sole owner.
            drop(unsafe { Box::from_raw(f) });
        }
    }
}

fn new_ctl<T: Send>(segment_capacity: usize, flavor: &str) -> Arc<Ctl<T>> {
    let cap_log2 = normalize_capacity(segment_capacity)
        .unwrap_or_else(|e| panic!("ffq::unbounded::{flavor}::channel: {e}"));
    Ctl::new(cap_log2)
}

// ---- producers ----------------------------------------------------------

/// The single-producer side of an unbounded queue (spsc and spmc flavors).
///
/// Runs the ordinary bounded enqueue on the newest segment and rolls to a
/// fresh one instead of ever waiting: enqueues never block, never park
/// (`stats().parks` stays 0 structurally).
pub struct SpProducer<T: Send> {
    ctl: Arc<Ctl<T>>,
    /// Current (newest) segment; protected by this handle's era slot.
    seg: *mut Segment<T>,
    raw: RawProducer<T, PaddedCell<T>, LinearMap>,
    slot: usize,
    /// Inner-engine counters accumulated over sealed segments.
    acc: ProducerStats,
    seg_stats: SegmentStats,
}

// SAFETY: the raw segment pointer is protected by the era slot; every
// non-`Sync` part is owned.
unsafe impl<T: Send> Send for SpProducer<T> {}

impl<T: Send> SpProducer<T> {
    fn new(ctl: Arc<Ctl<T>>) -> Self {
        let seg = ctl.tail_ptr();
        // SAFETY: at construction the first segment is alive and stable.
        let slot = ctl.registry.acquire(unsafe { (*seg).seq() });
        let raw = unsafe { RawProducer::attach((*seg).raw()) };
        Self {
            ctl,
            seg,
            raw,
            slot,
            acc: ProducerStats::default(),
            seg_stats: SegmentStats::default(),
        }
    }

    /// Enqueues `value`. Never blocks: a full segment triggers a roll to a
    /// fresh one (amortized allocation-free via the freelist).
    pub fn enqueue(&mut self, value: T) {
        let mut value = value;
        loop {
            match self.raw.try_enqueue(value) {
                Ok(()) => return,
                Err(Full(v)) => {
                    value = v;
                    self.roll();
                }
            }
        }
    }

    /// Enqueues every item of `iter`; returns the count. Never blocks.
    pub fn enqueue_many<I: IntoIterator<Item = T>>(&mut self, iter: I) -> usize {
        let mut n = 0;
        for v in iter {
            self.enqueue(v);
            n += 1;
        }
        n
    }

    /// Seals the current segment and moves to a fresh one.
    fn roll(&mut self) {
        let new = self.ctl.alloc_segment(&mut self.seg_stats);
        // SAFETY: `old` is protected by our era slot; `new` is exclusively
        // ours until the link below publishes it.
        let old_ref = unsafe { &*self.seg };
        let new_seq = unsafe { (*new).seq() };
        // Link before seal: anyone who observes the seal finds the
        // successor. Release publishes the new segment's initialized state.
        old_ref.next().store(new, Ordering::Release);
        self.ctl.publish_tail(new, new_seq);
        // Seal: boundary first, then the inner producer count (the
        // consumers' disconnect probe; SeqCst orders the boundary and the
        // link before it), then the wake that unparks drained consumers.
        let final_tail = old_ref.state().tail().load(Ordering::Relaxed);
        old_ref.set_sealed_tail(final_tail);
        old_ref.state().producers().fetch_sub(1, Ordering::SeqCst);
        old_ref.state().wake_all();
        self.seg_stats.segments_sealed += 1;
        // Move over. Raising the era slot is what releases the old
        // segment for reclamation — nothing after this touches it.
        self.acc = self.acc.merge(self.raw.stats());
        self.ctl.registry.set(self.slot, new_seq);
        self.seg = new;
        // SAFETY: fresh or recycled segment; we are its unique producer.
        self.raw = unsafe { RawProducer::attach((*new).raw()) };
    }

    /// Capacity of one segment (the queue itself is unbounded).
    pub fn segment_capacity(&self) -> usize {
        self.raw.capacity()
    }

    /// Approximate number of items in the *current* segment (older sealed
    /// segments may hold more).
    pub fn len_hint(&self) -> usize {
        self.raw.len_hint()
    }

    /// Number of live consumer handles.
    pub fn consumers(&self) -> usize {
        self.ctl.consumers.load(Ordering::Acquire) as usize
    }

    /// Snapshot of this producer's ring-protocol counters, accumulated
    /// across every segment it has written.
    pub fn stats(&self) -> ProducerStats {
        self.acc.merge(self.raw.stats())
    }

    /// Snapshot of this producer's segment-churn counters.
    pub fn seg_stats(&self) -> SegmentStats {
        self.seg_stats
    }
}

impl<T: Send> Drop for SpProducer<T> {
    fn drop(&mut self) {
        // Outer count first, then inner (both SeqCst): a consumer that
        // observes the inner count at 0 with no successor linked is then
        // guaranteed to read the outer count as 0 too — the disconnect is
        // unambiguous.
        self.ctl.producers.fetch_sub(1, Ordering::SeqCst);
        // SAFETY: protected by our era slot until released below.
        let seg = unsafe { &*self.seg };
        seg.state().producers().fetch_sub(1, Ordering::SeqCst);
        seg.state().wake_all();
        self.ctl.registry.release(self.slot);
    }
}

/// The multi-producer side of an unbounded queue (mpmc flavor). `Clone`
/// for more producers.
///
/// Claims ranks with `fetch_add` on the newest segment's dispenser and
/// resolves them with the bounded MPMC claim-or-gap step (Algorithm 2,
/// [`crate::mpmc`]); a full segment triggers an elected roll instead of
/// blocking.
pub struct MpProducer<T: Send> {
    ctl: Arc<Ctl<T>>,
    /// Cached newest segment; may lag `tail_seg` — poisoned claims catch
    /// the handle up. Protected by this handle's era slot.
    seg: *mut Segment<T>,
    slot: usize,
    stats: ProducerStats,
    seg_stats: SegmentStats,
}

// SAFETY: as `SpProducer` — era slot protects the pointer.
unsafe impl<T: Send> Send for MpProducer<T> {}

impl<T: Send> MpProducer<T> {
    fn new(ctl: Arc<Ctl<T>>) -> Self {
        let seg = ctl.tail_ptr();
        // SAFETY: at construction the first segment is alive and stable.
        let slot = ctl.registry.acquire(unsafe { (*seg).seq() });
        Self {
            ctl,
            seg,
            slot,
            stats: ProducerStats::default(),
            seg_stats: SegmentStats::default(),
        }
    }

    /// Enqueues `value`. Lock-free (never parks): a full segment triggers
    /// a roll, a sealed one is skipped via its poisoned dispenser.
    pub fn enqueue(&mut self, value: T) {
        let mut value = value;
        let mut fails = 0usize;
        loop {
            // SAFETY: protected by our era slot.
            let seg = unsafe { &*self.seg };
            let q = seg.raw();
            // Acquire: a poisoned value was produced by the sealer's
            // Release RMW, so observing it also shows us the `next` link
            // the sealer ordered before it.
            let rank = q.state().tail().fetch_add(1, Ordering::Acquire);
            self.stats.tail_rmws += 1;
            if rank >= POISON_CUTOFF {
                // Sealed under us: move to the successor and retry there.
                if !self.advance_seg() {
                    spin_loop(); // link store in flight; re-claim shortly
                }
                fails = 0;
                continue;
            }
            self.stats.ranks_taken += 1;
            match resolve_rank(&q, &mut self.stats, rank, value) {
                Ok(()) => return,
                Err(v) => {
                    // Cell busy: the rank became a gap. A segment's worth
                    // of consecutive gaps means it is effectively full.
                    value = v;
                    fails += 1;
                    if fails >= seg.capacity() {
                        self.roll();
                        fails = 0;
                    }
                }
            }
        }
    }

    /// Enqueues every item of `iter`; returns the count. Never blocks.
    pub fn enqueue_many<I: IntoIterator<Item = T>>(&mut self, iter: I) -> usize {
        let mut n = 0;
        for v in iter {
            self.enqueue(v);
            n += 1;
        }
        n
    }

    /// Elects this producer to seal the current segment and link a fresh
    /// one; losers donate their allocation to the freelist. Either way the
    /// handle moves to the successor.
    fn roll(&mut self) {
        // SAFETY: protected by our era slot.
        let old_ref = unsafe { &*self.seg };
        if old_ref.sealed_tail().is_none() {
            let new = self.ctl.alloc_segment(&mut self.seg_stats);
            // SAFETY: `new` is exclusively ours until the link below
            // publishes it.
            let new_seq = unsafe { (*new).seq() };
            match old_ref.next().compare_exchange(
                ptr::null_mut(),
                new,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.ctl.publish_tail(new, new_seq);
                    // Poison the dispenser (Release: a claim that reads a
                    // poisoned value acquires the link above); its return
                    // value is the seal boundary — every rank below it was
                    // claimed and will be resolved here, none past it ever
                    // will.
                    let pre = old_ref.state().tail().fetch_add(POISON, Ordering::Release);
                    debug_assert!(pre < POISON_CUTOFF, "segment sealed twice");
                    old_ref.set_sealed_tail(pre);
                    old_ref.state().producers().fetch_sub(1, Ordering::SeqCst);
                    old_ref.state().wake_all();
                    self.seg_stats.segments_sealed += 1;
                }
                Err(_) => self.ctl.release_unused(new),
            }
        }
        while !self.advance_seg() {
            spin_loop();
        }
    }

    /// Moves the handle one segment forward; `false` if the successor is
    /// not linked yet (only reachable in the instants between a sealer's
    /// poison landing and its link store becoming visible).
    fn advance_seg(&mut self) -> bool {
        // SAFETY: protected by our era slot.
        let next = unsafe { (*self.seg).next().load(Ordering::Acquire) };
        if next.is_null() {
            return false;
        }
        // SAFETY: `next` is protected transitively (our slot is at the
        // current segment's era, which is below the successor's).
        let next_seq = unsafe { (*next).seq() };
        self.ctl.registry.set(self.slot, next_seq);
        self.seg = next;
        true
    }

    /// Capacity of one segment (the queue itself is unbounded).
    pub fn segment_capacity(&self) -> usize {
        // SAFETY: protected by our era slot.
        unsafe { (*self.seg).capacity() }
    }

    /// Number of live consumer handles.
    pub fn consumers(&self) -> usize {
        self.ctl.consumers.load(Ordering::Acquire) as usize
    }

    /// Follows the segment list to the newest linked segment, releasing
    /// this handle's era pin on everything behind it.
    ///
    /// Reclamation is handle-driven (see the module docs): a producer
    /// handle that rarely enqueues keeps pinning the segment other
    /// producers rolled past. Call this on handles held mostly for
    /// `clone` to let the queue recycle behind them. O(segments skipped);
    /// never blocks.
    pub fn catch_up(&mut self) {
        while self.advance_seg() {}
    }

    /// Snapshot of this producer's ring-protocol counters.
    pub fn stats(&self) -> ProducerStats {
        self.stats
    }

    /// Snapshot of this producer's segment-churn counters.
    pub fn seg_stats(&self) -> SegmentStats {
        self.seg_stats
    }
}

impl<T: Send> Clone for MpProducer<T> {
    fn clone(&self) -> Self {
        // SAFETY: the source handle's era slot protects `seg` throughout
        // (we hold `&self`, so the source cannot advance concurrently).
        let seq = unsafe { (*self.seg).seq() };
        // Acquire the era slot *before* counting the handle: `acquire`
        // panics past MAX_HANDLES, and a count bumped first would survive
        // a caught unwind permanently inflated — the disconnect condition
        // (producers == 0) would then never fire for any peer.
        let slot = self.ctl.registry.acquire(seq);
        // Relaxed per the handle-count rule (increments order nothing).
        self.ctl.producers.fetch_add(1, Ordering::Relaxed);
        Self {
            ctl: Arc::clone(&self.ctl),
            seg: self.seg,
            slot,
            stats: ProducerStats::default(),
            seg_stats: SegmentStats::default(),
        }
    }
}

impl<T: Send> Drop for MpProducer<T> {
    fn drop(&mut self) {
        if self.ctl.producers.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last producer: drop the newest segment's inner count so
            // blocked consumers observe disconnection (older segments were
            // sealed, their counts already 0).
            let ts = self.ctl.tail_ptr();
            // SAFETY: we are the last producer, so no roll is in flight —
            // every link winner completed its `publish_tail` before its
            // handle could be dropped, so `ts` is the true newest segment
            // and its era is >= our still-held slot's era; reclamation
            // (era < min_active <= ours) cannot have freed it.
            let ts_ref = unsafe { &*ts };
            ts_ref.state().producers().fetch_sub(1, Ordering::SeqCst);
            ts_ref.state().wake_all();
        }
        self.ctl.registry.release(self.slot);
    }
}

// ---- consumers ----------------------------------------------------------

/// What a consumer should do after its ring reported a miss.
enum Step {
    /// Moved to the successor segment — retry there.
    Moved,
    /// Progress is available right now (a resolved front rank or
    /// unclaimed ranks below the seal boundary) — retry immediately.
    Retry,
    /// Nothing ready on an open segment: the queue-level `Empty`.
    Empty,
    /// Sealed segment whose front parked rank awaits a lagging producer:
    /// no progress until that producer publishes or gap-announces.
    /// Blocking callers park on the segment's not-empty cell (both
    /// resolutions broadcast there); non-blocking callers report `Empty`.
    Waiting,
    /// No successor and no producer left anywhere: the queue is dead.
    Dead,
}

/// A consumer of an unbounded queue, generic over the ring engine it runs
/// on each segment: the private head ([`SpscConsumer`], spsc flavor) or
/// the shared head with pending ranks ([`McConsumer`]: spmc `MP = false`,
/// mpmc `MP = true`). Shared-head consumers are `Clone` for more
/// consumers.
///
/// Follows the seal/link protocol across seams with one seam step for
/// both engines: a private head holds no pending rank, and when its ring
/// reports the seal its head mirror is already at the boundary, so it
/// crosses at once.
pub struct Consumer<T: Send, E: ConsumerEngine<T>> {
    ctl: Arc<Ctl<T>>,
    /// Current segment; protected by this handle's era slot.
    seg: *mut Segment<T>,
    raw: E,
    slot: usize,
    wait: WaitConfig,
    acc: ConsumerStats,
    seg_stats: SegmentStats,
}

/// The unique consumer of an unbounded spsc queue.
pub type SpscConsumer<T> = Consumer<T, RawSpscConsumer<T>>;

/// A shared-head consumer of an unbounded spmc (`MP = false`) or mpmc
/// (`MP = true`) queue. `Clone` for more consumers.
pub type McConsumer<T, const MP: bool> = Consumer<T, RawConsumer<T, PaddedCell<T>, LinearMap, MP>>;

// SAFETY: era slot protects the pointer; everything else is owned.
unsafe impl<T: Send, E: ConsumerEngine<T>> Send for Consumer<T, E> {}

impl<T: Send, E: ConsumerEngine<T>> Consumer<T, E> {
    /// A consumer on segment `seg` (protected by era slot `slot`).
    ///
    /// # Safety
    ///
    /// `slot` pins `seg`, and the queue's flavor admits engine `E`.
    unsafe fn on(ctl: Arc<Ctl<T>>, seg: *mut Segment<T>, slot: usize, wait: WaitConfig) -> Self {
        Self {
            ctl,
            seg,
            // SAFETY: `seg` is alive per the caller's pin.
            raw: unsafe { E::attach((*seg).raw()) },
            slot,
            wait,
            acc: ConsumerStats::default(),
            seg_stats: SegmentStats::default(),
        }
    }

    /// The constructor's consumer, on the first segment.
    ///
    /// # Safety
    ///
    /// The queue's flavor admits engine `E`.
    unsafe fn new(ctl: Arc<Ctl<T>>) -> Self {
        let seg = ctl.head_seg.load(Ordering::Acquire);
        // SAFETY: at construction the first segment is alive and stable.
        let slot = ctl.registry.acquire(unsafe { (*seg).seq() });
        unsafe { Self::on(ctl, seg, slot, WaitConfig::default()) }
    }

    /// Handles a ring-level miss: prune unpublishable claims against the
    /// seal boundary, drain what remains, cross the seam once the segment
    /// is exhausted — or report death.
    ///
    /// A sealed segment's `Empty` is not the queue's: the ring's gap walk
    /// may have ended at its per-call bound short of the seal boundary
    /// (multi-producer rolls burn up to a segment's worth of ranks per
    /// producer), or the seal's producer-count drop may not be visible
    /// yet. Only an open segment's `Empty` is reported as is.
    fn step(&mut self, miss: TryDequeueError) -> Step {
        // SAFETY: protected by our era slot.
        let cur_ref = unsafe { &*self.seg };
        let Some(bound) = cur_ref.sealed_tail() else {
            if miss == TryDequeueError::Empty {
                return Step::Empty;
            }
            // No seal: the producers are genuinely gone. Forfeit parked
            // ranks (publishing them is impossible) and report death.
            self.raw.recover_pending();
            return Step::Dead;
        };
        // Claims at or past the boundary can never be published here.
        self.raw.prune_pending_from(bound);
        if !self.raw.pending_is_empty() {
            // The front parked rank is below the boundary, so the seal
            // guarantees it resolves (published or gap) — for mpmc,
            // possibly only after a lagging producer gets scheduled
            // again. Resolved already: retry consumes or skips it.
            // Unresolved: wait (a bare retry loop would burn 100% CPU
            // for as long as that producer stays descheduled).
            return if self.raw.wake_ready_items() {
                Step::Retry
            } else {
                Step::Waiting
            };
        }
        if cur_ref.state().head().load(Ordering::Acquire) < bound {
            // Unclaimed resolvable ranks remain — retry claims them.
            return Step::Retry;
        }
        // Every rank below the boundary is claimed and this handle holds
        // none: the segment is exhausted for us. Cross the seam (the
        // seal's link-before-seal invariant makes `next` non-null).
        let next = cur_ref.next().load(Ordering::Acquire);
        debug_assert!(!next.is_null(), "sealed segment without successor");
        if next.is_null() {
            return Step::Retry;
        }
        self.advance(next);
        Step::Moved
    }

    /// Crosses to `next`: elect the retirer, raise the era slot, retire
    /// the drained segment if this handle won the election, re-attach the
    /// ring engine.
    fn advance(&mut self, next: *mut Segment<T>) {
        let cur = self.seg;
        // SAFETY: both protected — `cur` by our slot, `next` transitively.
        let cur_seq = unsafe { (*cur).seq() };
        let next_seq = unsafe { (*next).seq() };
        self.acc = self.acc.merge(self.raw.stats());
        // Elect the retirer *while our slot still pins `cur`*: the pin
        // keeps `cur` out of the freelist (min_active <= its era), so a
        // recycled-and-relinked segment can never alias `cur` here and
        // this pointer-equality CAS cannot succeed against a recycled
        // tail (the ABA that would retire — and free — a live segment).
        let won = self
            .ctl
            .head_seg
            .compare_exchange(cur, next, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok();
        // Raising the slot releases `cur` for reclamation; nothing below
        // dereferences it.
        self.ctl.registry.set(self.slot, next_seq);
        if won {
            self.ctl.retire(cur, cur_seq, &mut self.seg_stats);
        }
        self.seg = next;
        // SAFETY: `next` is alive (protected by our raised slot).
        self.raw = unsafe { E::attach((*next).raw()) };
        self.seg_stats.segments_advanced += 1;
    }

    /// Attempts to dequeue one item without blocking (pending-rank
    /// semantics within the current segment on a shared head; see
    /// [`crate::spmc::Consumer::try_dequeue`]).
    pub fn try_dequeue(&mut self) -> Result<T, TryDequeueError> {
        loop {
            let miss = match self.raw.try_dequeue() {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            match self.step(miss) {
                Step::Moved | Step::Retry => continue,
                // Waiting: the front rank's enqueue is still in flight —
                // the queue-level answer is "nothing ready yet", not a
                // retry loop that spins until that producer runs.
                Step::Empty | Step::Waiting => return Err(TryDequeueError::Empty),
                Step::Dead => return Err(TryDequeueError::Disconnected),
            }
        }
    }

    /// Dequeues one item, waiting — per the configured [`WaitConfig`] —
    /// while the queue is empty.
    pub fn dequeue(&mut self) -> Result<T, Disconnected> {
        // Without a timeout only a disconnect ends the wait.
        self.dequeue_for(None).map_err(|_| Disconnected)
    }

    /// Dequeues one item, giving up after `timeout`.
    pub fn dequeue_timeout(&mut self, timeout: Duration) -> Result<T, TryDequeueError> {
        self.dequeue_for(Some(timeout))
    }

    /// [`dequeue`](Self::dequeue) and
    /// [`dequeue_timeout`](Self::dequeue_timeout): one ring attempt inline,
    /// the seam crossings and waits only after it misses.
    fn dequeue_for(&mut self, timeout: Option<Duration>) -> Result<T, TryDequeueError> {
        match self.raw.try_dequeue() {
            Ok(v) => Ok(v),
            Err(miss) => self.dequeue_wait(miss, timeout),
        }
    }

    /// The one wait loop of [`dequeue_for`](Self::dequeue_for), from its
    /// first ring miss: the ring engine's, plus seam crossings and the wait
    /// for a lagging producer.
    #[cold]
    fn dequeue_wait(
        &mut self,
        mut miss: TryDequeueError,
        timeout: Option<Duration>,
    ) -> Result<T, TryDequeueError> {
        let mut strat = WaitStrategy::new(self.wait);
        let res = loop {
            // Whether the wait is for a sealed segment's front rank, whose
            // producer count already reads 0: its wake condition is the
            // rank resolving (publish and gap-announce both broadcast on
            // the segment's not-empty cell), not the count.
            let sealed = match self.step(miss) {
                Step::Moved => {
                    strat.reset();
                    None
                }
                Step::Retry => None,
                Step::Empty => Some(false),
                Step::Waiting => Some(true),
                Step::Dead => break Err(TryDequeueError::Disconnected),
            };
            if let Some(sealed) = sealed {
                // SAFETY: protected by our era slot.
                let state = unsafe { &*self.seg }.state();
                let raw = &self.raw;
                let round = strat.wait_round_for(
                    state.not_empty(),
                    state.wait_is_shared(),
                    timeout,
                    &mut || {
                        if sealed {
                            raw.wake_ready_items()
                        } else {
                            raw.wake_ready()
                        }
                    },
                );
                if round == WaitRound::Expired {
                    break Err(TryDequeueError::Empty);
                }
            }
            miss = match self.raw.try_dequeue() {
                Ok(v) => break Ok(v),
                Err(e) => e,
            };
        };
        self.acc.parks += strat.parks();
        res
    }

    /// Harvests up to `max` ready items into `buf`, crossing segment seams
    /// as needed; returns the count. Never blocks.
    pub fn dequeue_batch(&mut self, buf: &mut Vec<T>, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            n += self.raw.dequeue_batch(buf, max - n);
            if n >= max {
                break;
            }
            // The ring came up short: empty, or a seam to cross.
            match self.raw.try_dequeue() {
                Ok(v) => {
                    buf.push(v);
                    n += 1;
                }
                Err(miss) => match self.step(miss) {
                    Step::Moved | Step::Retry => continue,
                    Step::Empty | Step::Waiting | Step::Dead => break,
                },
            }
        }
        n
    }

    /// Replaces the wait policy used by blocking dequeues.
    pub fn set_wait_config(&mut self, cfg: WaitConfig) {
        self.wait = cfg;
    }

    /// Capacity of one segment (the queue itself is unbounded).
    pub fn segment_capacity(&self) -> usize {
        self.raw.capacity()
    }

    /// Advances this handle past segments other consumers already
    /// drained — without dequeuing anything — releasing its era pin on
    /// them.
    ///
    /// Reclamation is handle-driven (see the module docs): a consumer
    /// handle that never dequeues keeps pinning the segment it last
    /// touched, and the limbo list grows behind it for as long as items
    /// keep flowing. Call this on handles held mostly for `clone` or as
    /// standbys. Stops at the first segment still open, not yet drained,
    /// or holding one of this handle's own parked claims. O(segments
    /// skipped); never blocks, never consumes.
    pub fn catch_up(&mut self) {
        // The seam step for an `Empty` miss: an open segment stops the walk
        // without the death verdict — whose `recover_pending` consumes
        // published items, sound only when the producers are gone and the
        // caller is detaching.
        while let Step::Moved = self.step(TryDequeueError::Empty) {}
    }

    /// Snapshot of this consumer's ring-protocol counters, accumulated
    /// across every segment it has drained.
    pub fn stats(&self) -> ConsumerStats {
        self.acc.merge(self.raw.stats())
    }

    /// Snapshot of this consumer's segment-churn counters.
    pub fn seg_stats(&self) -> SegmentStats {
        self.seg_stats
    }
}

impl<T: Send, const MP: bool> Clone for McConsumer<T, MP> {
    fn clone(&self) -> Self {
        // SAFETY: the source handle's era slot protects `seg` throughout
        // (`&self` excludes a concurrent advance by the source).
        let seq = unsafe { (*self.seg).seq() };
        // Slot before count — `acquire` can panic on MAX_HANDLES, and the
        // count must not stay inflated past a caught unwind (see
        // `MpProducer::clone`).
        let slot = self.ctl.registry.acquire(seq);
        self.ctl.consumers.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the new slot pins `seg` for the clone; a shared head
        // admits more consumers.
        unsafe { Self::on(Arc::clone(&self.ctl), self.seg, slot, self.wait) }
    }
}

impl<T: Send, E: ConsumerEngine<T>> Drop for Consumer<T, E> {
    fn drop(&mut self) {
        // Return published payloads among parked ranks to circulation
        // (same best-effort recovery as the bounded variants).
        self.raw.recover_pending();
        self.ctl.consumers.fetch_sub(1, Ordering::SeqCst);
        self.ctl.registry.release(self.slot);
    }
}

// ---- flavors ------------------------------------------------------------

/// Unbounded single-producer/single-consumer queues.
pub mod spsc {
    use super::*;

    /// The producing side; see [`SpProducer`].
    pub type Producer<T> = SpProducer<T>;
    /// The unique consuming side; see [`SpscConsumer`].
    pub type Consumer<T> = SpscConsumer<T>;

    /// Creates an unbounded SPSC queue built from segments of at least
    /// `segment_capacity` cells (rounded up to a power of two).
    ///
    /// # Panics
    /// If `segment_capacity` is 0 or exceeds
    /// [`crate::layout::MAX_CAPACITY`].
    pub fn channel<T: Send>(segment_capacity: usize) -> (Producer<T>, Consumer<T>) {
        let ctl = new_ctl::<T>(segment_capacity, "spsc");
        let tx = SpProducer::new(Arc::clone(&ctl));
        // SAFETY: the spsc flavor admits this consumer engine.
        (tx, unsafe { Consumer::new(ctl) })
    }
}

/// Unbounded single-producer/multiple-consumer queues.
pub mod spmc {
    use super::*;

    /// The producing side; see [`SpProducer`].
    pub type Producer<T> = SpProducer<T>;
    /// A consuming side; see [`McConsumer`]. `Clone` for more consumers.
    pub type Consumer<T> = McConsumer<T, false>;

    /// Creates an unbounded SPMC queue built from segments of at least
    /// `segment_capacity` cells (rounded up to a power of two).
    ///
    /// # Panics
    /// If `segment_capacity` is 0 or exceeds
    /// [`crate::layout::MAX_CAPACITY`].
    pub fn channel<T: Send>(segment_capacity: usize) -> (Producer<T>, Consumer<T>) {
        let ctl = new_ctl::<T>(segment_capacity, "spmc");
        let tx = SpProducer::new(Arc::clone(&ctl));
        // SAFETY: the spmc flavor admits this consumer engine.
        (tx, unsafe { Consumer::new(ctl) })
    }
}

/// Unbounded multiple-producer/multiple-consumer queues.
pub mod mpmc {
    use super::*;

    /// A producing side; see [`MpProducer`]. `Clone` for more producers.
    pub type Producer<T> = MpProducer<T>;
    /// A consuming side; see [`McConsumer`]. `Clone` for more consumers.
    pub type Consumer<T> = McConsumer<T, true>;

    /// Creates an unbounded MPMC queue built from segments of at least
    /// `segment_capacity` cells (rounded up to a power of two).
    ///
    /// # Panics
    /// If `segment_capacity` is 0 or exceeds
    /// [`crate::layout::MAX_CAPACITY`].
    pub fn channel<T: Send>(segment_capacity: usize) -> (Producer<T>, Consumer<T>) {
        let ctl = new_ctl::<T>(segment_capacity, "mpmc");
        let tx = MpProducer::new(Arc::clone(&ctl));
        // SAFETY: the mpmc flavor admits this consumer engine.
        (tx, unsafe { Consumer::new(ctl) })
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn spsc_rolls_across_segments_in_order() {
        let (mut tx, mut rx) = spsc::channel::<u64>(4);
        for i in 0..40 {
            tx.enqueue(i);
        }
        // 40 items through 4-cell segments: many rolls, zero parks.
        assert!(tx.seg_stats().segments_sealed >= 9);
        assert_eq!(tx.stats().parks, 0);
        for i in 0..40 {
            assert_eq!(rx.try_dequeue(), Ok(i), "FIFO across seams");
        }
        assert_eq!(rx.try_dequeue(), Err(TryDequeueError::Empty));
        assert!(rx.seg_stats().segments_advanced >= 9);
        assert!(rx.seg_stats().segments_retired >= 1);
    }

    #[test]
    fn spsc_steady_state_hits_the_freelist() {
        let (mut tx, mut rx) = spsc::channel::<u64>(4);
        // Burst past one segment, drain, repeat: the consumer keeps up
        // between rolls, so after the first roll every new segment comes
        // from the freelist.
        let mut next = 0u64;
        for _ in 0..50 {
            for _ in 0..6 {
                tx.enqueue(next);
                next += 1;
            }
            for want in next - 6..next {
                assert_eq!(rx.try_dequeue(), Ok(want));
            }
        }
        let s = tx.seg_stats();
        assert!(
            s.freelist_hits > 0,
            "steady state must recycle: {s:?} / rx {:?}",
            rx.seg_stats()
        );
        assert!(s.freelist_hits + s.segments_allocated >= s.segments_sealed);
    }

    #[test]
    fn spsc_disconnect_after_drain() {
        let (mut tx, mut rx) = spsc::channel::<u64>(4);
        for i in 0..10 {
            tx.enqueue(i);
        }
        drop(tx);
        for i in 0..10 {
            assert_eq!(rx.dequeue(), Ok(i));
        }
        assert_eq!(rx.try_dequeue(), Err(TryDequeueError::Disconnected));
        assert_eq!(rx.dequeue(), Err(Disconnected));
    }

    #[test]
    fn spsc_blocking_stream_cross_thread() {
        const ITEMS: u64 = 100_000;
        let (mut tx, mut rx) = spsc::channel::<u64>(256);
        let t = std::thread::spawn(move || {
            for i in 0..ITEMS {
                tx.enqueue(i);
            }
            tx.stats().parks
        });
        for i in 0..ITEMS {
            assert_eq!(rx.dequeue(), Ok(i));
        }
        assert_eq!(t.join().unwrap(), 0, "unbounded enqueue never parks");
        assert_eq!(rx.dequeue(), Err(Disconnected));
    }

    #[test]
    fn spsc_dequeue_batch_crosses_seams() {
        let (mut tx, mut rx) = spsc::channel::<u64>(4);
        for i in 0..30 {
            tx.enqueue(i);
        }
        let mut buf = Vec::new();
        assert_eq!(rx.dequeue_batch(&mut buf, 64), 30);
        assert_eq!(buf, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn spsc_timeout_expires_and_recovers() {
        let (mut tx, mut rx) = spsc::channel::<u64>(4);
        assert_eq!(
            rx.dequeue_timeout(Duration::from_millis(5)),
            Err(TryDequeueError::Empty)
        );
        tx.enqueue(7);
        assert_eq!(rx.dequeue_timeout(Duration::from_millis(100)), Ok(7));
    }

    #[test]
    fn spmc_burst_then_workers_drain_exactly_once() {
        let (mut tx, rx) = spmc::channel::<u64>(64);
        const ITEMS: u64 = 20_000;
        for i in 0..ITEMS {
            tx.enqueue(i);
        }
        assert_eq!(tx.stats().parks, 0);
        drop(tx);
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
        let mut all: Vec<u64> = workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..ITEMS).collect::<Vec<_>>(), "exactly once");
    }

    #[test]
    fn spmc_per_consumer_order_is_fifo_across_seams() {
        // One consumer on a multi-consumer channel must still see global
        // FIFO (it claims every rank itself).
        let (mut tx, mut rx) = spmc::channel::<u64>(8);
        for i in 0..100 {
            tx.enqueue(i);
        }
        for i in 0..100 {
            assert_eq!(rx.dequeue(), Ok(i));
        }
    }

    #[test]
    fn mpmc_many_producers_many_consumers_exactly_once() {
        const PER: u64 = 5_000;
        const TXS: u64 = 3;
        let (tx, rx) = mpmc::channel::<u64>(64);
        let producers: Vec<_> = (0..TXS)
            .map(|p| {
                let mut tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..PER {
                        tx.enqueue(p * PER + i);
                    }
                    tx.stats().parks
                })
            })
            .collect();
        drop(tx);
        let consumers: Vec<_> = (0..3)
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
            assert_eq!(p.join().unwrap(), 0, "unbounded enqueue never parks");
        }
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all.len() as u64, TXS * PER);
        assert_eq!(all, (0..TXS * PER).collect::<Vec<_>>());
    }

    #[test]
    fn mpmc_single_thread_roundtrip_with_rolls() {
        let (mut tx, mut rx) = mpmc::channel::<u64>(4);
        for i in 0..50 {
            tx.enqueue(i);
        }
        assert!(tx.seg_stats().segments_sealed >= 9);
        let mut got = Vec::new();
        while let Ok(v) = rx.try_dequeue() {
            got.push(v);
        }
        got.sort_unstable();
        assert_eq!(got, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn catch_up_releases_an_idle_consumer_pin() {
        let (mut tx, mut c1) = spmc::channel::<u64>(4);
        let mut c2 = c1.clone();
        let mut next = 0u64;
        // Burst two segments' worth at a time and drain on c1 only: the
        // idle clone c2 stays at era 0, pinning every retired segment.
        for _ in 0..3 {
            for _ in 0..8 {
                tx.enqueue(next);
                next += 1;
            }
            for want in next - 8..next {
                assert_eq!(c1.dequeue(), Ok(want));
            }
        }
        assert!(c1.seg_stats().segments_retired > 0);
        assert_eq!(
            c1.seg_stats().segments_freed,
            0,
            "an idle handle must pin retired segments: {:?}",
            c1.seg_stats()
        );
        // Releasing the pin lets subsequent retire scans free the limbo
        // backlog (and the freelist start serving rolls).
        c2.catch_up();
        assert!(c2.seg_stats().segments_advanced > 0);
        for _ in 0..2 {
            for _ in 0..8 {
                tx.enqueue(next);
                next += 1;
            }
            for want in next - 8..next {
                assert_eq!(c1.dequeue(), Ok(want));
            }
        }
        assert!(
            c1.seg_stats().segments_freed + c2.seg_stats().segments_freed > 0,
            "catch_up must unpin: c1 {:?} c2 {:?}",
            c1.seg_stats(),
            c2.seg_stats()
        );
    }

    #[test]
    fn mp_producer_catch_up_follows_rolls() {
        let (tx1, mut rx) = mpmc::channel::<u64>(4);
        let mut tx2 = tx1.clone();
        let mut tx1 = tx1;
        // tx1 rolls twice; the idle tx2 stays behind on era 0.
        for i in 0..10u64 {
            tx1.enqueue(i);
        }
        tx2.catch_up();
        // After catching up, tx2 enqueues into the *newest* segment —
        // its items land after tx1's in the single consumer's order.
        tx2.enqueue(100);
        let mut got = Vec::new();
        while let Ok(v) = rx.try_dequeue() {
            got.push(v);
        }
        assert_eq!(got, (0..10u64).chain([100]).collect::<Vec<_>>());
    }

    #[test]
    fn boxed_payloads_dropped_with_undrained_segments() {
        // Items left across several sealed segments must be dropped with
        // the queue (segment Drop + Ctl Drop walk).
        let (mut tx, rx) = spsc::channel::<Box<u64>>(4);
        for i in 0..20 {
            tx.enqueue(Box::new(i));
        }
        drop(tx);
        drop(rx); // leak check runs under the tier-1 sanitizer job
    }

    #[test]
    fn handle_limit_is_enforced() {
        let (tx, rx) = mpmc::channel::<u64>(4);
        let mut keep: Vec<mpmc::Producer<u64>> = Vec::new();
        // 2 live handles exist; fill the registry to the brim, then one
        // more must panic.
        for _ in 0..MAX_HANDLES - 2 {
            keep.push(tx.clone());
        }
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _boom = tx.clone();
        }));
        assert!(r.is_err(), "handle 65 must be refused");
        drop(keep);
        drop(tx);
        drop(rx);
    }

    #[test]
    fn failed_clone_does_not_wedge_disconnect() {
        // A clone refused at the handle limit must leave the producer
        // count untouched: were it bumped before the panicking era-slot
        // acquire, the count would stay inflated past the caught unwind
        // and consumers would wait for a 65th producer that never existed.
        let (tx, mut rx) = mpmc::channel::<u64>(4);
        let mut keep: Vec<mpmc::Producer<u64>> = Vec::new();
        for _ in 0..MAX_HANDLES - 2 {
            keep.push(tx.clone());
        }
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _boom = tx.clone();
        }));
        assert!(r.is_err(), "handle 65 must be refused");
        let mut tx = tx;
        tx.enqueue(1);
        drop(tx);
        drop(keep);
        assert_eq!(rx.dequeue_timeout(Duration::from_secs(2)), Ok(1));
        // Timed rather than unbounded so an inflated count fails the
        // assertion instead of hanging the test.
        assert_eq!(
            rx.dequeue_timeout(Duration::from_secs(2)),
            Err(TryDequeueError::Disconnected)
        );
    }
}
