//! Construction split from allocation: queues over caller-provided memory.
//!
//! Every FFQ variant in this crate is the same two pieces of data — a
//! [`QueueState`] counter block and a cell array — plus per-handle private
//! state. This module separates *where that data lives* from *how it is
//! operated on*: a [`RawQueue`] is a pointer-pair view over state and cells
//! placed anywhere the caller likes (a heap allocation, a static, a mapped
//! shared-memory region), and the raw handle types ([`RawProducer`],
//! [`RawConsumer`], [`RawSpscConsumer`]) run the full FFQ protocol over such
//! a view. The heap-backed `channel()` constructors in [`crate::spsc`],
//! [`crate::spmc`] and [`crate::mpmc`] are thin wrappers: they allocate the
//! two pieces, build a `RawQueue` over them, and tie its lifetime to an
//! `Arc`.
//!
//! Each step of the paper's procedures is written once. `FFQ_ENQ`
//! (Algorithm 1) is the gap-announcing scan `skip_busy` plus `publish`,
//! which every single-producer enqueue runs (the zero-copy reserve through
//! [`RawProducer::reserve_next`] and [`RawProducer::publish_reserved`]);
//! `FFQ_DEQ`'s cell step is
//! `crate::shared::visit`, which both consumer engines here run — the
//! shared-head [`RawConsumer`] with pending ranks, and the private-head
//! [`RawSpscConsumer`]. Algorithm 2's claim-or-gap step lives in
//! [`crate::mpmc`]. Each blocking call and its timed twin share one wait
//! loop.
//!
//! Everything reachable from a `RawQueue` is offset-based and `#[repr(C)]`:
//! no field of [`QueueState`] or of a cell is a pointer, ranks and gap
//! announcements are array-relative, and the counter block's layout is
//! independent of rustc's layout randomization. That is what makes the view
//! meaningful across *address spaces*, not just across threads — two
//! processes mapping the same region at different base addresses each build
//! their own `RawQueue` from their own mapping and interoperate through the
//! rank/gap protocol alone (see `ffq-shm`).
//!
//! # Safety model
//!
//! Constructing a view or handle from raw memory is `unsafe`: the caller
//! asserts the memory is valid, correctly initialized, and outlives the
//! handle, and that the handle-cardinality rules of the variant are upheld
//! (one `RawProducer` per single-producer queue, one `RawSpscConsumer` per
//! SPSC queue). Once constructed, all methods are safe — the protocol takes
//! care of cross-thread (and cross-process) synchronization.

use core::marker::PhantomData;
use core::ptr::NonNull;
use std::time::Duration;

use ffq_sync::atomic::{AtomicI64, AtomicU32, Ordering};

use ffq_sync::{CachePadded, WaitCell, WaitConfig, WaitRound, WaitStrategy};

use crate::cell::{CellSlot, PaddedCell, RANK_FREE};
use crate::error::{Disconnected, Full, TryDequeueError};
use crate::layout::{IndexMap, LinearMap};
use crate::shared::{
    enqueue_many_sp, looks_full_sp, visit, wake_ready, wake_ready_items, PendingRanks, Probe, Visit,
};
use crate::stats::{ConsumerStats, ProducerStats};

/// Marker for types whose bytes may cross an address-space boundary.
///
/// A shared-memory queue cell is read and written by processes that share
/// nothing but the mapped bytes, so the element type must be meaningful as
/// *pure data*: no pointers, no references, no destructor obligations, no
/// uninitialized padding semantics the receiving side could misread. This is
/// the usual "plain old data" contract (cf. `bytemuck::Pod`), kept local so
/// the core crate stays dependency-free.
///
/// Heap-backed queues do **not** require it — `ffq::spmc::channel::<Box<u64>>`
/// stays legal; only the `ffq-shm` constructors bound their element types by
/// this trait.
///
/// # Safety
///
/// Implementors must guarantee all of:
/// * `Self: Copy` (already in the bounds) with no drop glue anywhere inside;
/// * every bit pattern of `size_of::<Self>()` bytes is a valid `Self` (so a
///   value written by a crashed or hostile peer is at worst *wrong*, never
///   undefined behavior to read) — this rules out `bool`, `char`, enums and
///   padded structs;
/// * the layout is defined (`repr(C)` / `repr(transparent)` / primitive),
///   not left to rustc's field reordering.
pub unsafe trait ShmSafe: Copy + Send + Sync + 'static {}

macro_rules! shm_safe_prims {
    ($($t:ty),* $(,)?) => {
        $(
            // SAFETY: primitive integers/floats have defined layout, no
            // padding, no drop glue, and accept every bit pattern.
            unsafe impl ShmSafe for $t {}
        )*
    };
}

shm_safe_prims!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, f32, f64);

// SAFETY: an array of ShmSafe elements has no padding beyond its elements'
// and inherits their guarantees element-wise.
unsafe impl<T: ShmSafe, const N: usize> ShmSafe for [T; N] {}

// SAFETY: repr(C) with all-integer fields and no padding (8+4+4+8 at align
// 8): defined layout, no drop glue, every bit pattern is a valid value. A
// hostile peer can write a *wrong* descriptor — the bytes-lane consumers
// clamp every length and refuse heap pointers on shared-memory queues — but
// never an undefined one.
unsafe impl ShmSafe for crate::cell::PayloadDesc {}

/// The shared counter block of one queue, `#[repr(C)]` so its layout is
/// identical in every binary that maps it.
///
/// This is everything two handles need to agree on besides the cell array:
/// the rank dispensers and the liveness counts. It contains **no pointers**
/// and no lengths-in-disguise — the capacity is stored as its log2 so a
/// corrupt value cannot index out of bounds undetected (`ffq-shm` validates
/// it against the region size before building a view).
///
/// # Handle-count ordering rule
///
/// The `producers`/`consumers` counts follow one discipline everywhere:
/// **increments are `Relaxed`, decrements are `Release`, loads are
/// `Acquire`.** A decrement is the only transition callers draw
/// happens-before conclusions from ("this handle's last operation completed
/// before the count I read"), so it releases; the matching loads acquire —
/// including purely informational accessors, which costs nothing on x86 and
/// keeps every site greppably uniform. Increments order nothing (a new
/// handle synchronizes through the queue protocol itself, never through the
/// count), so they stay relaxed.
#[repr(C)]
pub struct QueueState {
    /// Head counter: monotonically increasing rank dispenser for consumers.
    /// Cache-padded — the single most contended word in the queue.
    head: CachePadded<AtomicI64>,
    /// Tail counter. Single-producer variants keep the authoritative tail
    /// privately in the producer handle (the paper's "tail is not shared")
    /// and mirror it here; the multi-producer variant fetch-and-adds it.
    tail: CachePadded<AtomicI64>,
    /// Eventcount consumers park on while the queue is empty; producers
    /// notify it after publishing ranks or announcing gaps. Padded so
    /// parked-side traffic never bounces the counter lines.
    not_empty: CachePadded<WaitCell>,
    /// Eventcount producers park on while the queue is full; consumers
    /// notify it after advancing the head.
    not_full: CachePadded<WaitCell>,
    /// Live producer handles; 0 means disconnected. `u32` (not `usize`) so
    /// the field width does not depend on the target's pointer size.
    producers: AtomicU32,
    /// Live consumer handles (informational).
    consumers: AtomicU32,
    /// log2 of the cell count.
    cap_log2: u32,
    /// 1 when futex waits must be visible across processes (the state block
    /// lives in a shared mapping); it also keeps the symmetric fence pair
    /// on the wait cells. Plain data, written at format time before the
    /// queue is ever shared.
    wait_shared: u32,
}

impl QueueState {
    /// A fresh counter block for an empty queue of `1 << cap_log2` cells.
    pub fn new(cap_log2: u32, producers: u32, consumers: u32) -> Self {
        Self {
            head: CachePadded::new(AtomicI64::new(0)),
            tail: CachePadded::new(AtomicI64::new(0)),
            not_empty: CachePadded::new(WaitCell::new()),
            not_full: CachePadded::new(WaitCell::new()),
            producers: AtomicU32::new(producers),
            consumers: AtomicU32::new(consumers),
            cap_log2,
            wait_shared: 0,
        }
    }

    /// [`new`](Self::new) for a heap queue: the first call in a process
    /// also attempts its `membarrier` registration, so that the publishes
    /// and consumes of in-process queues notify without a `SeqCst` fence
    /// even when no consumer ever waits (see `ffq_sync::eventcount`).
    /// Shared-memory formats use `new`: their cells keep the fence anyway.
    ///
    /// The registration costs a few µs in a process with one thread. In a
    /// process that already runs others, the kernel first waits out an RCU
    /// grace period: 6–18 ms (median ~14 ms) on a 2-vCPU Xeon VM, once per
    /// process.
    pub(crate) fn in_process(cap_log2: u32, producers: u32, consumers: u32) -> Self {
        ffq_sync::eventcount::register_membarrier();
        Self::new(cap_log2, producers, consumers)
    }

    /// Marks the wait cells as cross-process: parks and wakes go through
    /// process-shared futexes, and notifiers keep their `SeqCst` fence (a
    /// waiter's `membarrier` reaches only its own process). Call at format
    /// time, before any handle attaches — the flag is plain data and must
    /// never change while the queue is live.
    #[must_use]
    pub fn with_shared_wait(mut self) -> Self {
        self.wait_shared = 1;
        self
    }

    /// The shared head counter (consumer rank dispenser / SPSC head mirror).
    #[inline(always)]
    pub fn head(&self) -> &AtomicI64 {
        &self.head
    }

    /// The shared tail counter (mirror for single-producer variants).
    #[inline(always)]
    pub fn tail(&self) -> &AtomicI64 {
        &self.tail
    }

    /// Live producer-handle count.
    #[inline(always)]
    pub fn producers(&self) -> &AtomicU32 {
        &self.producers
    }

    /// Live consumer-handle count.
    #[inline(always)]
    pub fn consumers(&self) -> &AtomicU32 {
        &self.consumers
    }

    /// log2 of the cell count.
    #[inline(always)]
    pub fn cap_log2(&self) -> u32 {
        self.cap_log2
    }

    /// The eventcount consumers park on while the queue is empty.
    #[inline(always)]
    pub fn not_empty(&self) -> &WaitCell {
        &self.not_empty
    }

    /// The eventcount producers park on while the queue is full.
    #[inline(always)]
    pub fn not_full(&self) -> &WaitCell {
        &self.not_full
    }

    /// Whether parks/wakes use process-shared futexes.
    #[inline(always)]
    pub fn wait_is_shared(&self) -> bool {
        self.wait_shared != 0
    }

    /// Wakes up to `n` producers parked on the not-full eventcount.
    #[inline]
    pub fn wake_producers(&self, n: usize) {
        self.not_full.notify(n, self.wait_is_shared());
    }

    /// Wakes *every* consumer parked on the not-empty eventcount, after a
    /// publication or a gap announcement.
    ///
    /// A parked consumer re-checks only its own front pending rank, so a
    /// single wake may land on a consumer whose rank the publication or
    /// gap does not resolve — it re-parks, and the consumer actually
    /// blocked on that rank keeps sleeping (the wrong-wakee window,
    /// ALGORITHM.md §12). No handle count can prove there is only one
    /// parked consumer: a count's increment is relaxed, and a second
    /// consumer can attach, claim a rank and park entirely after the count
    /// was loaded. Broadcasting costs the same syscall as a counted wake
    /// whenever at most one waiter is parked, and `WaitCell::notify`'s
    /// no-waiter early-out is the same for both, so it gives up nothing.
    #[inline]
    pub fn wake_consumers_all(&self) {
        self.not_empty.notify_all(self.wait_is_shared());
    }

    /// Wakes everyone parked on either eventcount (disconnects, poisoning).
    #[inline]
    pub fn wake_all(&self) {
        let shared = self.wait_is_shared();
        self.not_empty.notify_all(shared);
        self.not_full.notify_all(shared);
    }
}

/// A borrowed, address-space-local view of one queue: a pointer to its
/// [`QueueState`] and a pointer to its cell array.
///
/// `Copy` and cheap — every handle embeds one. The view itself does nothing;
/// it only gives the protocol code a uniform way to reach state and cells
/// wherever they live.
pub struct RawQueue<T, C: CellSlot<T> = PaddedCell<T>, M: IndexMap = LinearMap> {
    state: NonNull<QueueState>,
    cells: NonNull<C>,
    /// Cached copy of `state.cap_log2` — hot in `cell()`, and immutable for
    /// the queue's lifetime.
    cap_log2: u32,
    _marker: PhantomData<(fn() -> T, M)>,
}

impl<T, C: CellSlot<T>, M: IndexMap> Clone for RawQueue<T, C, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T, C: CellSlot<T>, M: IndexMap> Copy for RawQueue<T, C, M> {}

// SAFETY: the view only dereferences into `QueueState` atomics and cell
// slots, both of which are `Sync` (CellSlot requires it); payload access is
// mediated by the rank/gap protocol, which demands `T: Send` to move items
// across threads.
unsafe impl<T: Send, C: CellSlot<T>, M: IndexMap> Send for RawQueue<T, C, M> {}
unsafe impl<T: Send, C: CellSlot<T>, M: IndexMap> Sync for RawQueue<T, C, M> {}

impl<T, C: CellSlot<T>, M: IndexMap> RawQueue<T, C, M> {
    /// Builds a view over an existing state block and cell array.
    ///
    /// # Safety
    ///
    /// * `state` points to an initialized [`QueueState`] and `cells` to an
    ///   array of `1 << state.cap_log2()` initialized `C` cells;
    /// * both stay valid (not moved, not freed, not unmapped) for as long
    ///   as this view or any copy of it is used;
    /// * all other handles on the same queue agree on `T`, `C` and `M`.
    pub unsafe fn from_raw(state: *const QueueState, cells: *const C) -> Self {
        let cap_log2 = unsafe { (*state).cap_log2 };
        Self {
            state: unsafe { NonNull::new_unchecked(state as *mut QueueState) },
            cells: unsafe { NonNull::new_unchecked(cells as *mut C) },
            cap_log2,
            _marker: PhantomData,
        }
    }

    /// The shared counter block.
    #[inline(always)]
    pub fn state(&self) -> &QueueState {
        // SAFETY: valid for the view's lifetime per `from_raw`'s contract.
        unsafe { self.state.as_ref() }
    }

    /// Capacity of the cell array.
    #[inline(always)]
    pub fn capacity(&self) -> usize {
        1usize << self.cap_log2
    }

    /// The cell assigned to `rank` under this queue's index mapping.
    #[inline(always)]
    pub(crate) fn cell(&self, rank: i64) -> &C {
        debug_assert!(rank >= 0);
        // SAFETY(index): IndexMap::slot returns a value < 2^cap_log2 = len;
        // the array is valid per `from_raw`'s contract.
        unsafe { &*self.cells.as_ptr().add(M::slot(rank, self.cap_log2)) }
    }

    /// Approximate number of items currently in the queue.
    ///
    /// Both counters move concurrently and gaps inflate the difference, so
    /// this is a hint, not a linearizable size — the paper's queue has no
    /// size operation at all.
    pub fn len_hint(&self) -> usize {
        let tail = self.state().tail.load(Ordering::Acquire);
        let head = self.state().head.load(Ordering::Acquire);
        usize::try_from((tail - head).max(0)).unwrap_or(0)
    }

    /// Consumer-side emptiness pre-check: `true` when the mirrored tail has
    /// no rank past the head. Conservative in the safe direction — an item
    /// whose tail mirror has not landed yet may be missed for one call, but
    /// a `true` result never claims anything.
    #[inline]
    pub fn looks_empty(&self) -> bool {
        let head = self.state().head.load(Ordering::Relaxed);
        let tail = self.state().tail.load(Ordering::Acquire);
        tail <= head
    }
}

/// The single-producer enqueue engine (SPSC and SPMC variants share it).
///
/// Owns the paper's private tail, the shadow head cache, and the staging
/// scratch of the batched release pass. `crate::spsc::Producer` and
/// `crate::spmc::Producer` are thin wrappers adding only heap keep-alive and
/// drop-time disconnection.
pub struct RawProducer<T: Send, C: CellSlot<T> = PaddedCell<T>, M: IndexMap = LinearMap> {
    queue: RawQueue<T, C, M>,
    /// The paper's `tail`: private, monotonically increasing (line 7:
    /// "Tail counter ... not shared").
    tail: i64,
    /// Shadow of the consumers' head (MCRingBuffer-style): the fullness
    /// pre-check reads this cached bound and touches the shared counter
    /// only when the bound is exhausted.
    head_cache: i64,
    /// Ranks staged by the current `enqueue_many` run, awaiting the single
    /// release pass. Empty between calls.
    staged: Vec<i64>,
    /// Waiting profile for full-queue blocking; see
    /// [`set_wait_config`](Self::set_wait_config).
    wait: WaitConfig,
    stats: ProducerStats,
}

impl<T: Send, C: CellSlot<T>, M: IndexMap> RawProducer<T, C, M> {
    /// Attaches the unique producer to `queue`, resuming from the mirrored
    /// tail (0 on a fresh queue; the last published rank boundary on a
    /// queue a previous producer detached from cleanly).
    ///
    /// # Safety
    ///
    /// `queue` upholds [`RawQueue::from_raw`]'s contract for this handle's
    /// lifetime, and no other producer handle exists on the same queue
    /// while this one does. The caller is responsible for the
    /// `producers` count in [`QueueState`] (this constructor does not touch
    /// it — heap channels pre-set it, shared-memory attach manages it
    /// through its own handshake).
    pub unsafe fn attach(queue: RawQueue<T, C, M>) -> Self {
        let tail = queue.state().tail().load(Ordering::Acquire);
        let head_cache = queue.state().head().load(Ordering::Acquire);
        Self {
            queue,
            tail,
            head_cache,
            staged: Vec::new(),
            wait: WaitConfig::default(),
            stats: ProducerStats::default(),
        }
    }

    /// The underlying view.
    #[inline(always)]
    pub fn queue(&self) -> &RawQueue<T, C, M> {
        &self.queue
    }

    /// Replaces the waiting profile used by the blocking enqueue paths
    /// (default: [`WaitConfig::adaptive`]). Per-handle — two handles on one
    /// queue may use different profiles.
    pub fn set_wait_config(&mut self, cfg: WaitConfig) {
        self.wait = cfg;
    }

    /// Enqueues `value`, scanning past busy cells (announcing gaps) until a
    /// free cell is found.
    ///
    /// Wait-free under the paper's sizing assumption that some cell is
    /// always free. If the queue is genuinely full, this waits — spinning,
    /// then parking on the not-full eventcount per the configured
    /// [`WaitConfig`] — until a consumer advances the head (footnote 2 of
    /// the paper).
    pub fn enqueue(&mut self, value: T) {
        // Without a timeout the wait never expires, so the value never
        // comes back.
        let _ = self.enqueue_for(value, None);
    }

    /// Enqueues `value`, giving up (and handing the value back) if the
    /// queue stays full past `timeout`. The wait escalates from spinning to
    /// parking exactly like [`enqueue`](Self::enqueue).
    pub fn enqueue_timeout(&mut self, value: T, timeout: Duration) -> Result<(), Full<T>> {
        self.enqueue_for(value, Some(timeout))
    }

    /// The one wait loop of [`enqueue`](Self::enqueue) and
    /// [`enqueue_timeout`](Self::enqueue_timeout).
    #[inline]
    fn enqueue_for(&mut self, value: T, timeout: Option<Duration>) -> Result<(), Full<T>> {
        let mut strat = WaitStrategy::new(self.wait);
        let q = self.queue;
        let (state, cap) = (q.state(), q.capacity() as i64);
        let res = loop {
            let (tail, stats) = (&mut self.tail, &mut self.stats);
            if let Some(cell) = skip_busy(&self.queue, tail, &mut self.head_cache, stats) {
                publish(&self.queue, cell, tail, stats, value);
                break Ok(());
            }
            // Ready = the head moved past our fullness bound. Fresh Acquire
            // load on purpose — the shadow cache is what we are waiting to
            // be able to refresh.
            let tail = self.tail;
            let round = strat.wait_round_for(
                state.not_full(),
                state.wait_is_shared(),
                timeout,
                &mut || state.head().load(Ordering::Acquire) > tail - cap,
            );
            if round == WaitRound::Expired {
                self.stats.full_rejections += 1;
                break Err(Full(value));
            }
        };
        self.stats.parks += strat.parks();
        res
    }

    /// Cheap fullness pre-check: `tail - head >= N` means at least a full
    /// array's worth of ranks is outstanding, so a scan cannot succeed.
    /// Checked against the shadow head first — the shared counter is read
    /// (one Acquire load) only when the cached bound is exhausted.
    /// Conservative in the safe direction — head inflated by gap skips or
    /// claims beyond the tail only makes the queue look *emptier*, in which
    /// case we fall through to the (bounded) scan.
    #[inline]
    pub fn looks_full(&mut self) -> bool {
        looks_full_sp(
            &self.queue,
            self.tail,
            &mut self.head_cache,
            &mut self.stats,
        )
    }

    /// Attempts to enqueue `value`.
    ///
    /// A counter pre-check rejects a clearly full queue in O(1) without
    /// side effects. If the pre-check passes but the (bounded, one-pass)
    /// scan still finds no free cell, the value is handed back — and that
    /// scan has already skipped (and announced gaps for) every busy cell it
    /// saw, consuming ranks; see [`Full`].
    pub fn try_enqueue(&mut self, value: T) -> Result<(), Full<T>> {
        let (tail, stats) = (&mut self.tail, &mut self.stats);
        let Some(cell) = skip_busy(&self.queue, tail, &mut self.head_cache, stats) else {
            stats.full_rejections += 1;
            return Err(Full(value));
        };
        publish(&self.queue, cell, tail, stats, value);
        Ok(())
    }

    /// Enqueues every item of `iter` (blocking as needed); returns the
    /// count.
    ///
    /// The batched enqueue path: payloads are written into runs of free
    /// cells first and all the run's ranks are published afterwards with
    /// one release pass (a single fence followed by plain rank stores),
    /// with the tail mirrored once per run instead of once per item. Items
    /// become visible in order, no later than the call's return; a gap for
    /// a busy cell is still announced immediately.
    pub fn enqueue_many<I: IntoIterator<Item = T>>(&mut self, iter: I) -> usize {
        enqueue_many_sp(
            &self.queue,
            &mut self.tail,
            &mut self.head_cache,
            &mut self.staged,
            &mut self.stats,
            self.wait,
            iter,
        )
    }

    /// The next rank this producer will publish (its private tail).
    #[inline(always)]
    pub fn tail_rank(&self) -> i64 {
        self.tail
    }

    /// This handle's waiting profile (see [`set_wait_config`]).
    ///
    /// [`set_wait_config`]: Self::set_wait_config
    pub fn wait_config(&self) -> WaitConfig {
        self.wait
    }

    /// Reserves the cell at the current tail for an in-place payload write,
    /// without publishing anything.
    ///
    /// Runs the scan every enqueue runs — skipping (and gap-announcing) busy
    /// cells until the tail lands on a free cell — then returns that rank
    /// **with the tail not yet advanced**: the zero-copy bytes lane writes
    /// the payload into the rank's slot buffer and only then calls
    /// [`publish_reserved`](Self::publish_reserved).
    /// Until that publication the reservation is invisible to consumers
    /// (the tail mirror never covered the rank), so abandoning it is a
    /// no-op — the next reservation returns the same rank.
    ///
    /// The returned rank stays valid because this is the unique producer: a
    /// free cell only leaves the free state through this handle.
    pub fn reserve_next(&mut self) -> Result<i64, Full<()>> {
        let (tail, stats) = (&mut self.tail, &mut self.stats);
        if skip_busy(&self.queue, tail, &mut self.head_cache, stats).is_none() {
            stats.full_rejections += 1;
            return Err(Full(()));
        }
        Ok(self.tail)
    }

    /// Reserves a run of `n` **consecutive** ranks whose cells are all
    /// free, for an oversize payload spilled across continuation cells.
    ///
    /// Returns the first rank of the run; like
    /// [`reserve_next`](Self::reserve_next) the tail does not advance, so
    /// an abandoned run reservation is a no-op. Publication must then walk
    /// the run in ascending rank order through
    /// [`publish_reserved`](Self::publish_reserved).
    ///
    /// A busy cell inside a candidate run forces a restart past it; the
    /// free cells scanned before it are burned as gap announcements (their
    /// ranks can no longer be part of a *consecutive* run starting at the
    /// tail). `n` must not exceed half the capacity — beyond that a
    /// consecutive free run is not guaranteed to ever exist.
    pub fn reserve_run(&mut self, n: usize) -> Result<i64, Full<()>> {
        debug_assert!(n >= 1);
        debug_assert!(
            n <= self.queue.capacity() / 2,
            "chain runs are capped at capacity/2"
        );
        let cap = self.queue.capacity() as i64;
        // Rank-consumption bound, same spirit as the one-pass scan bound of
        // try_enqueue: give up after burning about one array's worth.
        let mut budget = self.queue.capacity();
        loop {
            // Fullness pre-check for the whole run against the shadow head
            // (refresh once before giving up).
            if self.tail + n as i64 - self.head_cache > cap {
                self.head_cache = self.queue.state().head().load(Ordering::Acquire);
                self.stats.head_refreshes += 1;
                if self.tail + n as i64 - self.head_cache > cap {
                    self.stats.full_rejections += 1;
                    return Err(Full(()));
                }
            }
            let start = self.tail;
            let mut k = 0usize;
            let blocked = loop {
                if k == n {
                    break false;
                }
                let rank = start + k as i64;
                if self.queue.cell(rank).words().load_lo(Ordering::Acquire) >= 0 {
                    break true;
                }
                k += 1;
            };
            if !blocked {
                return Ok(start);
            }
            if budget < k + 1 {
                self.stats.full_rejections += 1;
                return Err(Full(()));
            }
            budget -= k + 1;
            // Burn the too-short free prefix and the blocking busy cell as
            // gaps, then retry from the new tail. Announcing a gap at a
            // *free* cell is sound: consumers holding those ranks skip, and
            // the cell's future occupant carries a larger rank than the
            // announcement.
            for rank in start..=start + k as i64 {
                self.queue
                    .cell(rank)
                    .words()
                    .store_hi_unpaired(rank, Ordering::Release);
                self.stats.gaps_created += 1;
                advance_tail(&self.queue, &mut self.tail, &mut self.stats);
            }
            self.queue.state().wake_consumers_all();
        }
    }

    /// Publishes `value` at a rank previously returned by
    /// [`reserve_next`](Self::reserve_next) / [`reserve_run`](Self::reserve_run)
    /// (Algorithm 1 lines 16–19, the step every enqueue ends with).
    ///
    /// `rank` must be the producer's current tail — i.e. reservations
    /// publish in ascending rank order with nothing enqueued in between.
    /// The Release rank store is the linearization point and orders every
    /// prior write by this thread (the descriptor *and* the payload bytes
    /// written into the rank's slot buffer) before the publication.
    #[inline]
    pub fn publish_reserved(&mut self, rank: i64, value: T) {
        assert_eq!(rank, self.tail, "reserved ranks publish in order");
        let cell = self.queue.cell(rank);
        publish(&self.queue, cell, &mut self.tail, &mut self.stats, value);
    }

    /// Capacity of the underlying cell array.
    pub fn capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Approximate number of items currently enqueued.
    pub fn len_hint(&self) -> usize {
        self.queue.len_hint()
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

/// `FFQ_ENQ`'s scan (Algorithm 1 lines 9–15) for the single-producer
/// engine's fields, bounded to one array's worth of cells: skips every busy
/// cell, announcing it as a gap, until the private `tail` names a free one,
/// and returns that cell (the tail is not advanced past it). `None` when
/// the fullness pre-check fails or the scan finds no free cell. Over the
/// fields rather than the handle, so the caller can publish into the
/// returned cell without computing its address again.
#[inline]
fn skip_busy<'q, T, C: CellSlot<T>, M: IndexMap>(
    q: &'q RawQueue<T, C, M>,
    tail: &mut i64,
    head_cache: &mut i64,
    stats: &mut ProducerStats,
) -> Option<&'q C> {
    if looks_full_sp(q, *tail, head_cache, stats) {
        return None;
    }
    for _ in 0..q.capacity() {
        let rank = *tail;
        debug_assert!(rank >= 0, "tail overflowed i64");
        let cell = q.cell(rank);
        let words = cell.words();
        // Line 13: cell still holds an unconsumed item? The Acquire pairs
        // with the consumer's Release reset, so when we observe rank == -1
        // the consumer's read of the previous payload happened-before the
        // publisher's overwrite.
        if words.load_lo(Ordering::Acquire) < 0 {
            return Some(cell);
        }
        // Line 14: skip it and announce the gap. `gap` only grows: we are
        // the only writer and tail is monotonic. Release so a consumer
        // acting on the announcement also sees every prior producer write
        // (not required for correctness of the skip itself, but keeps the
        // cell words causally consistent). Unpaired: single-producer
        // queues never pair-CAS the words.
        words.store_hi_unpaired(rank, Ordering::Release);
        stats.gaps_created += 1;
        advance_tail(q, tail, stats);
        // A consumer holding this rank may be parked waiting for it; the
        // announcement is what lets it move on. Broadcast — a single wake
        // could land on a consumer parked on a different rank (see
        // `QueueState::wake_consumers_all`).
        q.state().wake_consumers_all();
    }
    None
}

/// Lines 16–19: publishes `value` into `cell`, the free cell the private
/// `tail` names. The data write precedes the Release rank store, the
/// linearization point.
#[inline]
fn publish<T, C: CellSlot<T>, M: IndexMap>(
    q: &RawQueue<T, C, M>,
    cell: &C,
    tail: &mut i64,
    stats: &mut ProducerStats,
    value: T,
) {
    // SAFETY: the cell was observed free under this unique producer and
    // stays free until this rank store.
    unsafe { (*cell.data()).write(value) };
    cell.words().store_lo_unpaired(*tail, Ordering::Release);
    stats.enqueued += 1;
    advance_tail(q, tail, stats);
    // The published rank may belong to one specific parked consumer's
    // pending FIFO (see `QueueState::wake_consumers_all`).
    q.state().wake_consumers_all();
}

#[inline(always)]
fn advance_tail<T, C: CellSlot<T>, M: IndexMap>(
    q: &RawQueue<T, C, M>,
    tail: &mut i64,
    stats: &mut ProducerStats,
) {
    *tail += 1;
    stats.ranks_taken += 1;
    // Mirror for len_hint() and the consumers' claim sizing; ordered after
    // the rank store above so a rank below the mirrored tail is always
    // already resolved.
    q.state().tail().store(*tail, Ordering::Release);
}

/// The shared-head consumer engine (SPMC and MPMC variants).
///
/// `MP` selects, at compile time, whether cell-word resets must stay
/// coherent with the multi-producer double-word CAS: `false` for SPMC,
/// `true` for MPMC. On x86_64 both compile to the same plain store; on the
/// lock-striped emulation the MPMC reset goes through the stripe lock.
pub struct RawConsumer<
    T: Send,
    C: CellSlot<T> = PaddedCell<T>,
    M: IndexMap = LinearMap,
    const MP: bool = false,
> {
    queue: RawQueue<T, C, M>,
    pending: PendingRanks,
    /// Waiting profile for the blocking dequeue paths; see
    /// [`set_wait_config`](Self::set_wait_config).
    wait: WaitConfig,
    stats: ConsumerStats,
}

impl<T: Send, C: CellSlot<T>, M: IndexMap, const MP: bool> RawConsumer<T, C, M, MP> {
    /// Attaches a consumer to `queue`. The new handle owns no pending
    /// ranks; its first dequeue claims from the current head.
    ///
    /// # Safety
    ///
    /// `queue` upholds [`RawQueue::from_raw`]'s contract for this handle's
    /// lifetime, and `MP` matches the queue's producer variant. The caller
    /// is responsible for the `consumers` count in [`QueueState`] and for
    /// calling [`recover_pending`](Self::recover_pending) before abandoning
    /// a handle that may hold pending ranks.
    pub unsafe fn attach(queue: RawQueue<T, C, M>) -> Self {
        Self {
            queue,
            pending: PendingRanks::default(),
            wait: WaitConfig::default(),
            stats: ConsumerStats::default(),
        }
    }

    /// The underlying view.
    #[inline(always)]
    pub fn queue(&self) -> &RawQueue<T, C, M> {
        &self.queue
    }

    /// Replaces the waiting profile used by the blocking dequeue paths
    /// (default: [`WaitConfig::adaptive`]). Per-handle.
    pub fn set_wait_config(&mut self, cfg: WaitConfig) {
        self.wait = cfg;
    }

    /// Attempts to dequeue one item without blocking (pending-rank
    /// semantics; see [`crate::spmc::Consumer::try_dequeue`]).
    ///
    /// A dequeue is a claim, a read, and a recycle of the cell.
    #[inline]
    pub fn try_dequeue(&mut self) -> Result<T, TryDequeueError> {
        let (_, cell) = self.claim()?;
        // SAFETY: a published cell's payload is initialized, and rank
        // equality makes this consumer its unique owner.
        let value = unsafe { (*cell.data()).assume_init_read() };
        Self::recycle(cell);
        Ok(value)
    }

    /// `FFQ_DEQ` (Algorithm 1, lines 20–33) up to the payload read: the
    /// next rank this handle owns whose cell publishes it, with that cell.
    /// Resumes the oldest parked rank before claiming a fresh one from the
    /// shared head, and re-parks at the front the rank it could not
    /// satisfy.
    #[inline]
    fn claim(&mut self) -> Result<(i64, &C), TryDequeueError> {
        let q = &self.queue;
        let mut probe = Probe::Armed;
        loop {
            let rank = match self.pending.pop_front() {
                Some(r) => r,
                None => {
                    self.stats.ranks_claimed += 1;
                    self.stats.head_rmws += 1;
                    // Relaxed: the fetch_add only hands out unique ranks;
                    // all inter-thread publication goes through the cell's
                    // rank word (Acquire/Release).
                    let rank = q.state().head().fetch_add(1, Ordering::Relaxed);
                    // The head advance is what unblocks a producer parked
                    // on a full queue.
                    q.state().wake_producers(1);
                    rank
                }
            };
            match visit(q, rank, &mut probe, &mut self.stats) {
                Visit::Published(cell) => {
                    self.stats.dequeued += 1;
                    return Ok((rank, cell));
                }
                Visit::Gap => {}
                Visit::Missing(e) => {
                    self.pending.push_front(rank);
                    return Err(e);
                }
            }
        }
    }

    /// Line 27: recycles a consumed rank's cell. Release pairs with the
    /// producer's Acquire rank load, so every read of the payload (or of
    /// the rank's slot buffer) happens-before any reuse.
    #[inline(always)]
    fn recycle(cell: &C) {
        let words = cell.words();
        if MP {
            words.store_lo(RANK_FREE, Ordering::Release);
        } else {
            words.store_lo_unpaired(RANK_FREE, Ordering::Release);
        }
    }

    /// Dequeues one item, waiting — spinning, then parking on the
    /// not-empty eventcount — while the queue is empty.
    pub fn dequeue(&mut self) -> Result<T, Disconnected> {
        // Without a timeout only a disconnect ends the wait.
        self.dequeue_for(None).map_err(|_| Disconnected)
    }

    /// Dequeues one item, giving up after `timeout`.
    ///
    /// The deadline check adapts to the wait phase: sampled on a stride
    /// while spinning (`Instant::now()` costs far more than a spin
    /// iteration), every round — with the sleep clamped to the time
    /// remaining — once parked, so even a parked consumer wakes within
    /// about a millisecond of its deadline.
    pub fn dequeue_timeout(&mut self, timeout: Duration) -> Result<T, TryDequeueError> {
        self.dequeue_for(Some(timeout))
    }

    /// The one wait loop of [`dequeue`](Self::dequeue) and
    /// [`dequeue_timeout`](Self::dequeue_timeout).
    fn dequeue_for(&mut self, timeout: Option<Duration>) -> Result<T, TryDequeueError> {
        let mut strat = WaitStrategy::new(self.wait);
        let q = self.queue;
        let res = loop {
            match self.try_dequeue() {
                Err(TryDequeueError::Empty) => {
                    // The wake condition for the rank this handle is parked
                    // on (try_dequeue re-parked it at the front): published,
                    // gap-announced, or producers gone. Snapshotted here —
                    // it cannot change until our next try_dequeue.
                    let front = self.pending.front_rank();
                    let state = q.state();
                    let round = strat.wait_round_for(
                        state.not_empty(),
                        state.wait_is_shared(),
                        timeout,
                        &mut || wake_ready(&q, front),
                    );
                    if round == WaitRound::Expired {
                        break Err(TryDequeueError::Empty);
                    }
                }
                res => break res,
            }
        };
        self.stats.parks += strat.parks();
        res
    }

    /// Claims a run of `k` ranks with a single `head.fetch_add(k)` and
    /// parks it as pending (see [`crate::spmc::Consumer::claim_batch`]).
    /// The amortization core of the batch API: one RMW — one coherence
    /// transaction on the queue's most contended word — buys `k` ranks
    /// instead of one.
    pub fn claim_batch(&mut self, k: usize) {
        if k == 0 {
            return;
        }
        let start = self
            .queue
            .state()
            .head()
            .fetch_add(k as i64, Ordering::Relaxed);
        debug_assert!(start >= 0, "head counter overflowed i64");
        self.stats.ranks_claimed += k as u64;
        self.stats.head_rmws += 1;
        self.queue.state().wake_producers(k);
        self.pending.push_run(start, k as i64);
    }

    /// Harvests up to `max` ready items into `buf`; returns the count.
    /// Never blocks, and claims nothing on an empty queue (see
    /// [`crate::spmc::Consumer::dequeue_batch`]).
    pub fn dequeue_batch(&mut self, buf: &mut Vec<T>, max: usize) -> usize {
        self.dequeue_batch_capped(buf, max, i64::MAX)
    }

    /// [`dequeue_batch`](Self::dequeue_batch) whose *fresh* rank claims
    /// stop short of the absolute rank `head_cap` (previously parked runs
    /// still harvest — they honored the cap in force when claimed). The
    /// enforcement primitive behind the sharded frontend's bounded
    /// reordering; see `crate::shard`.
    ///
    /// Parked ranks from earlier claims are always harvested first, in
    /// claim order. When they run out, a new run is claimed only for ranks
    /// the mirrored tail reports as resolved — so a drain on an empty queue
    /// claims nothing, and (for single-producer queues, whose tail mirror
    /// trails rank publication) a run claimed here never parks: every rank
    /// in it is already published or gap-announced. Reports neither
    /// emptiness nor disconnection — a `0` return means no item was ready.
    pub fn dequeue_batch_capped(&mut self, buf: &mut Vec<T>, max: usize, head_cap: i64) -> usize {
        let q = self.queue;
        let mut n = 0usize;
        'harvest: while n < max {
            // Take the oldest parked run whole, or claim a fresh one — the
            // run is then walked with a plain local cursor, touching the
            // pending deque again only for leftovers.
            let (start, end) = match self.pending.pop_run() {
                Some(run) => run,
                None => match self.claim_run_capped((max - n) as i64, head_cap) {
                    Some(run) => run,
                    None => break,
                },
            };
            // Ranks past the harvest bound go straight back; gap skips
            // below may leave `n` short of that bound, in which case the
            // outer loop claims again.
            let stop = end.min(start + (max - n) as i64);
            for rank in start..stop {
                match visit(&q, rank, &mut Probe::Off, &mut self.stats) {
                    Visit::Published(cell) => {
                        // SAFETY: published cell, unique owner by rank
                        // equality.
                        let value = unsafe { (*cell.data()).assume_init_read() };
                        Self::recycle(cell);
                        buf.push(value);
                        n += 1;
                    }
                    Visit::Gap => {}
                    Visit::Missing(_) => {
                        // Not produced yet (multi-producer claims can
                        // outrun publication): park the rest of the run
                        // and stop.
                        self.stats.not_ready += 1;
                        self.pending.push_front_run(rank, end);
                        break 'harvest;
                    }
                }
            }
            if stop < end {
                self.pending.push_front_run(stop, end);
            }
        }
        self.stats.dequeued += n as u64;
        self.stats.batch_dequeues += 1;
        self.stats.batch_items += n as u64;
        n
    }

    /// Claims a run of up to `want` ranks below the mirrored tail, or
    /// `None` when nothing is claimable. `head_cap` is an *absolute rank*
    /// the claim must not reach (`i64::MAX`: no cap). Sharded consumers use
    /// the cap to keep their shard's head within the documented reordering
    /// window of the laggard shard (ALGORITHM.md §13).
    ///
    /// The claim is a CAS loop, not a `fetch_add`: a `fetch_add` sized from
    /// a head that another consumer advances before the RMW lands its run
    /// past the tail snapshot (and past the cap). Past the tail, a
    /// single-producer queue's ranks are unpublished, so the run would park
    /// in this handle while later ranks go to other consumers — a FIFO
    /// inversion for a batch call that returns before its parked ranks
    /// publish. The CAS re-reads the head on every failure, so both bounds
    /// hold under any interleaving.
    #[inline]
    fn claim_run_capped(&mut self, want: i64, head_cap: i64) -> Option<(i64, i64)> {
        let state = self.queue.state();
        // Emptiness pre-check and claim sizing in one: only ranks below the
        // mirrored tail are worth claiming.
        let tail = state.tail().load(Ordering::Acquire);
        let mut head = state.head().load(Ordering::Relaxed);
        loop {
            let avail = (tail - head).min(want).min(head_cap - head);
            if avail <= 0 {
                return None;
            }
            self.stats.head_rmws += 1;
            // Relaxed: the CAS only hands out unique rank runs; publication
            // synchronizes through the cell words. Strong, so `head_rmws`
            // counts only claims another consumer actually raced.
            match state.head().compare_exchange(
                head,
                head + avail,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    debug_assert!(head >= 0, "head counter overflowed i64");
                    self.stats.ranks_claimed += avail as u64;
                    state.wake_producers(avail as usize);
                    return Some((head, head + avail));
                }
                Err(cur) => head = cur,
            }
        }
    }

    /// The next unclaimed rank of this queue — a monotone snapshot (stale
    /// reads only under-report). Sharded consumers compare heads across
    /// shards to bound how far any one shard may run ahead.
    pub fn head_rank(&self) -> i64 {
        self.queue.state().head().load(Ordering::Relaxed)
    }

    /// Number of claimed-but-unsatisfied ranks currently parked on this
    /// handle.
    pub fn pending_ranks(&self) -> usize {
        self.pending.len()
    }

    /// `true` when this handle holds no pending rank.
    pub fn pending_is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// The wake condition of a blocked dequeue on this handle: its front
    /// pending rank's cell was published or gap-announced — or, with no
    /// pending rank, the mirrored tail shows something to claim, or no
    /// producer is left. Precise on the pending side on purpose: for
    /// multi-producer queues the shared tail advances at claim time, long
    /// before publication, so "tail moved" would wake a parked consumer
    /// into a still-unpublished cell over and over. `true` means a retry on
    /// this handle can make progress, not merely that the queue moved.
    pub fn wake_ready(&self) -> bool {
        wake_ready(&self.queue, self.pending.front_rank())
    }

    /// [`wake_ready`](Self::wake_ready) without the producers-gone
    /// disconnect term. Aggregating callers need the split: a sharded
    /// consumer's member queues lose their producer handles one at a time
    /// during a sharded producer's drop, so "any member's producers gone"
    /// holds from the first decrement while the drain keeps coming up
    /// empty until the last. They `any()` this half and `all()` the
    /// producer counts themselves.
    pub fn wake_ready_items(&self) -> bool {
        wake_ready_items(&self.queue, self.pending.front_rank())
    }

    /// Discards every pending rank `>= bound`, returning how many were
    /// dropped. The unbounded tier calls this when a consumer learns its
    /// segment was sealed at `bound`: ranks claimed at or past the seal can
    /// never be published there (enqueues moved to the next segment), so
    /// holding them would block this handle forever. Sound because a
    /// claimed rank is owned by this handle — nobody else will ever present
    /// it — and the sealed cells at those ranks stay free until the segment
    /// is recycled wholesale. Bounded queues never need this.
    pub fn prune_pending_from(&mut self, bound: i64) -> usize {
        self.pending.truncate_from(bound)
    }

    /// Best-effort recovery for a detaching consumer: consume and drop any
    /// already-published item among its parked ranks so those cells return
    /// to circulation. Unpublished ranks are forfeited (the paper's
    /// consumers are immortal worker threads; see the README caveat).
    pub fn recover_pending(&mut self) {
        while let Some(rank) = self.pending.pop_front() {
            let cell = self.queue.cell(rank);
            if cell.words().load_lo(Ordering::Acquire) == rank {
                // SAFETY: rank equality makes this handle the payload's
                // unique owner.
                unsafe { (*cell.data()).assume_init_drop() };
                Self::recycle(cell);
            }
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

    /// Snapshot of this consumer's counters.
    pub fn stats(&self) -> ConsumerStats {
        self.stats
    }

    /// This handle's waiting profile (see [`set_wait_config`]).
    ///
    /// [`set_wait_config`]: Self::set_wait_config
    pub fn wait_config(&self) -> WaitConfig {
        self.wait
    }
}

impl<T: Send + Copy, C: CellSlot<T>, M: IndexMap, const MP: bool> RawConsumer<T, C, M, MP> {
    /// Dequeues one item *without recycling its cell*: the borrowed-read
    /// primitive of the zero-copy bytes lane.
    ///
    /// On success the caller owns rank `r` — its cell keeps publishing `r`,
    /// so the producer side treats it as busy (skipping it with a gap
    /// announcement if its slot comes around again) — until the caller
    /// hands it back with [`retire`](Self::retire). Holding a claim is
    /// pure-degradation, never corruption, but it does consume ring
    /// capacity; retire promptly. Restricted to `T: Copy` because the value
    /// is copied out while the cell stays initialized.
    #[inline]
    pub fn try_claim(&mut self) -> Result<(i64, T), TryDequeueError> {
        let (rank, cell) = self.claim()?;
        // SAFETY: published cell, unique owner by rank equality; T is Copy,
        // so reading without un-initializing is sound.
        Ok((rank, unsafe { (*cell.data()).assume_init_read() }))
    }

    /// Recycles the cell of a rank obtained from [`try_claim`](Self::try_claim).
    /// The Release reset orders the caller's final read of the cell's slot
    /// buffer before any producer reuse.
    pub fn retire(&mut self, rank: i64) {
        Self::recycle(self.queue.cell(rank));
    }
}

/// The private-head consumer engine of the SPSC variant.
///
/// No shared-head RMW and no pending-rank bookkeeping: the private head
/// simply does not advance on `Empty`. The head is mirrored into
/// [`QueueState::head`] for the producer's fullness pre-check — once per
/// item on the per-item path, once per run on the batched path.
pub struct RawSpscConsumer<T: Send, C: CellSlot<T> = PaddedCell<T>, M: IndexMap = LinearMap> {
    queue: RawQueue<T, C, M>,
    /// Private head counter — the single-consumer specialization.
    head: i64,
    /// Waiting profile for the blocking dequeue paths; see
    /// [`set_wait_config`](Self::set_wait_config).
    wait: WaitConfig,
    stats: ConsumerStats,
}

impl<T: Send, C: CellSlot<T>, M: IndexMap> RawSpscConsumer<T, C, M> {
    /// Attaches the unique consumer to `queue`, resuming from the mirrored
    /// head (0 on a fresh queue).
    ///
    /// # Safety
    ///
    /// `queue` upholds [`RawQueue::from_raw`]'s contract for this handle's
    /// lifetime; no other consumer handle (of either kind) exists on the
    /// same queue while this one does; the queue's producer is a
    /// single-producer engine. The caller is responsible for the
    /// `consumers` count in [`QueueState`].
    pub unsafe fn attach(queue: RawQueue<T, C, M>) -> Self {
        let head = queue.state().head().load(Ordering::Acquire);
        Self {
            queue,
            head,
            wait: WaitConfig::default(),
            stats: ConsumerStats::default(),
        }
    }

    /// The underlying view.
    #[inline(always)]
    pub fn queue(&self) -> &RawQueue<T, C, M> {
        &self.queue
    }

    /// Replaces the waiting profile used by the blocking dequeue paths
    /// (default: [`WaitConfig::adaptive`]). Per-handle.
    pub fn set_wait_config(&mut self, cfg: WaitConfig) {
        self.wait = cfg;
    }

    /// Attempts to dequeue one item without blocking.
    ///
    /// A dequeue is a claim, a read, and a recycle of the cell.
    #[inline]
    pub fn try_dequeue(&mut self) -> Result<T, TryDequeueError> {
        let q = self.queue;
        let cell = self.claim(&q)?;
        // SAFETY: published cell owned by the unique consumer.
        let value = unsafe { (*cell.data()).assume_init_read() };
        self.recycle(cell);
        Ok(value)
    }

    /// `FFQ_DEQ` (Algorithm 1, lines 20–33) up to the payload read, from
    /// the private head: steps over gap-announced ranks and returns the
    /// head's cell once it publishes the head. The head stays put on a
    /// miss. `q` is the caller's local copy of the view, which the
    /// returned cell borrows, so the caller can still advance the head.
    #[inline]
    fn claim<'q>(&mut self, q: &'q RawQueue<T, C, M>) -> Result<&'q C, TryDequeueError> {
        let mut probe = Probe::Armed;
        loop {
            match visit(q, self.head, &mut probe, &mut self.stats) {
                Visit::Published(cell) => {
                    self.stats.dequeued += 1;
                    return Ok(cell);
                }
                Visit::Gap => self.advance(),
                Visit::Missing(e) => return Err(e),
            }
        }
    }

    /// Recycles the head's cell (the Release reset orders every read of its
    /// payload before producer reuse) and advances past it.
    #[inline(always)]
    fn recycle(&mut self, cell: &C) {
        cell.words().store_lo_unpaired(RANK_FREE, Ordering::Release);
        self.advance();
    }

    /// Moves the private head one rank on and mirrors it.
    #[inline(always)]
    fn advance(&mut self) {
        self.head += 1;
        // Mirror for the producer's fullness pre-check and len_hint;
        // nothing synchronizes on it beyond Acquire/Release pairing of the
        // counter value itself.
        self.queue
            .state()
            .head()
            .store(self.head, Ordering::Release);
        // A producer parked on a full queue waits for exactly this head
        // advance.
        self.queue.state().wake_producers(1);
        self.stats.ranks_claimed += 1;
    }

    /// Dequeues one item, waiting — spinning, then parking on the
    /// not-empty eventcount — while the queue is empty.
    pub fn dequeue(&mut self) -> Result<T, Disconnected> {
        // Without a timeout only a disconnect ends the wait.
        self.dequeue_for(None).map_err(|_| Disconnected)
    }

    /// Dequeues one item, giving up after `timeout` (phase-adaptive
    /// deadline checks; see [`crate::spmc::Consumer::dequeue_timeout`]).
    pub fn dequeue_timeout(&mut self, timeout: Duration) -> Result<T, TryDequeueError> {
        self.dequeue_for(Some(timeout))
    }

    /// The one wait loop of [`dequeue`](Self::dequeue) and
    /// [`dequeue_timeout`](Self::dequeue_timeout).
    fn dequeue_for(&mut self, timeout: Option<Duration>) -> Result<T, TryDequeueError> {
        let mut strat = WaitStrategy::new(self.wait);
        let q = self.queue;
        let res = loop {
            match self.try_dequeue() {
                Err(TryDequeueError::Empty) => {
                    // The private head does not advance on Empty, so the
                    // wake condition is our own next rank's cell.
                    let front = Some(self.head);
                    let state = q.state();
                    let round = strat.wait_round_for(
                        state.not_empty(),
                        state.wait_is_shared(),
                        timeout,
                        &mut || wake_ready(&q, front),
                    );
                    if round == WaitRound::Expired {
                        break Err(TryDequeueError::Empty);
                    }
                }
                res => break res,
            }
        };
        self.stats.parks += strat.parks();
        res
    }

    /// Harvests up to `max` ready items into `buf`; returns the count.
    /// Never blocks. The head mirror is stored once per harvested run
    /// instead of once per item.
    pub fn dequeue_batch(&mut self, buf: &mut Vec<T>, max: usize) -> usize {
        let q = self.queue;
        let start = self.head;
        let mut n = 0usize;
        while n < max {
            match visit(&q, self.head, &mut Probe::Off, &mut self.stats) {
                Visit::Published(cell) => {
                    // SAFETY: published cell owned by the unique consumer.
                    let value = unsafe { (*cell.data()).assume_init_read() };
                    cell.words().store_lo_unpaired(RANK_FREE, Ordering::Release);
                    buf.push(value);
                    self.stats.dequeued += 1;
                    n += 1;
                }
                Visit::Gap => {}
                Visit::Missing(_) => break,
            }
            self.head += 1;
        }
        if self.head != start {
            self.stats.ranks_claimed += (self.head - start) as u64;
            self.queue
                .state()
                .head()
                .store(self.head, Ordering::Release);
            self.queue
                .state()
                .wake_producers((self.head - start) as usize);
        }
        self.stats.batch_dequeues += 1;
        self.stats.batch_items += n as u64;
        n
    }

    /// Capacity of the underlying cell array.
    pub fn capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Approximate number of items currently enqueued.
    pub fn len_hint(&self) -> usize {
        self.queue.len_hint()
    }

    /// Snapshot of this consumer's counters.
    pub fn stats(&self) -> ConsumerStats {
        self.stats
    }

    /// This handle's waiting profile (see [`set_wait_config`]).
    ///
    /// [`set_wait_config`]: Self::set_wait_config
    pub fn wait_config(&self) -> WaitConfig {
        self.wait
    }

    /// The rank this consumer will examine next (its private head).
    #[inline(always)]
    pub fn head_rank(&self) -> i64 {
        self.head
    }

    /// The wake condition of a blocked dequeue on this handle — the private
    /// head's cell was published or gap-announced, or no producer is left.
    pub fn wake_ready(&self) -> bool {
        wake_ready(&self.queue, Some(self.head))
    }
}

impl<T: Send + Copy, C: CellSlot<T>, M: IndexMap> RawSpscConsumer<T, C, M> {
    /// Dequeues one item *without recycling its cell or advancing the
    /// head*: the SPSC borrowed-read primitive of the zero-copy bytes lane
    /// (see [`RawConsumer::try_claim`]). The claim must be handed back with
    /// [`retire`](Self::retire) before the next claim — the private head
    /// does not move until then.
    #[inline]
    pub fn try_claim(&mut self) -> Result<(i64, T), TryDequeueError> {
        let q = self.queue;
        let cell = self.claim(&q)?;
        // SAFETY: published cell owned by the unique consumer; T is Copy,
        // so reading without un-initializing is sound.
        Ok((self.head, unsafe { (*cell.data()).assume_init_read() }))
    }

    /// Recycles the cell of a rank obtained from
    /// [`try_claim`](Self::try_claim) and advances the private head past
    /// it. The Release reset orders the caller's final read of the cell's
    /// slot buffer before any producer reuse.
    pub fn retire(&mut self, rank: i64) {
        debug_assert_eq!(rank, self.head, "SPSC claims retire in order");
        let q = self.queue;
        self.recycle(q.cell(rank));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_state_layout_is_stable() {
        // The counter block is mapped by separately compiled binaries: its
        // size and field offsets must match the repr(C) prediction exactly.
        assert_eq!(core::mem::align_of::<QueueState>(), 128);
        assert_eq!(core::mem::size_of::<QueueState>(), 640);
        let s = QueueState::new(4, 1, 1);
        let base = &s as *const _ as usize;
        assert_eq!(s.head() as *const _ as usize - base, 0);
        assert_eq!(s.tail() as *const _ as usize - base, 128);
        assert_eq!(s.not_empty() as *const _ as usize - base, 256);
        assert_eq!(s.not_full() as *const _ as usize - base, 384);
        assert_eq!(s.producers() as *const _ as usize - base, 512);
        assert_eq!(s.consumers() as *const _ as usize - base, 516);
    }

    #[test]
    fn shared_wait_flag_survives_the_builder() {
        let s = QueueState::new(4, 1, 1);
        assert!(!s.wait_is_shared());
        let s = QueueState::new(4, 1, 1).with_shared_wait();
        assert!(s.wait_is_shared());
    }

    #[test]
    fn raw_view_over_local_memory_runs_the_protocol() {
        use crate::cell::PaddedCell;
        use crate::layout::LinearMap;

        // Queue state and cells in plain local allocations, handles built
        // through the raw layer only.
        let state = QueueState::new(3, 1, 1);
        let cells: Vec<PaddedCell<u64>> = (0..8).map(|_| CellSlot::<u64>::empty()).collect();
        // SAFETY: state/cells outlive the handles; one producer, one
        // shared-head consumer.
        let q = unsafe {
            RawQueue::<u64, PaddedCell<u64>, LinearMap>::from_raw(&state, cells.as_ptr())
        };
        let mut tx = unsafe { RawProducer::attach(q) };
        let mut rx = unsafe { RawConsumer::<u64, _, _, false>::attach(q) };
        for i in 0..100u64 {
            tx.enqueue(i);
            assert_eq!(rx.try_dequeue(), Ok(i));
        }
        assert_eq!(rx.try_dequeue(), Err(TryDequeueError::Empty));
        rx.recover_pending();
    }

    #[test]
    fn raw_producer_attach_resumes_from_tail_mirror() {
        use crate::cell::PaddedCell;
        use crate::layout::LinearMap;

        let state = QueueState::new(3, 1, 1);
        let cells: Vec<PaddedCell<u64>> = (0..8).map(|_| CellSlot::<u64>::empty()).collect();
        let q = unsafe {
            RawQueue::<u64, PaddedCell<u64>, LinearMap>::from_raw(&state, cells.as_ptr())
        };
        {
            let mut tx = unsafe { RawProducer::attach(q) };
            tx.enqueue(1);
            tx.enqueue(2);
        }
        // A second producer (the first is gone) resumes at rank 2.
        let mut tx = unsafe { RawProducer::attach(q) };
        tx.enqueue(3);
        let mut rx = unsafe { RawSpscConsumer::attach(q) };
        assert_eq!(rx.try_dequeue(), Ok(1));
        assert_eq!(rx.try_dequeue(), Ok(2));
        assert_eq!(rx.try_dequeue(), Ok(3));
    }

    /// Forges gap announcements at ranks `0..GAPS` over local memory with
    /// no producer left, then makes one `call` on a fresh private-head
    /// consumer: it must step over every gap, storing the head mirror as
    /// it goes, and report the disconnect once it reaches the empty cell.
    fn skips_forged_gaps_into_disconnect(
        call: impl FnOnce(&mut RawSpscConsumer<u64>) -> Result<(), TryDequeueError>,
    ) {
        const GAPS: i64 = 5;
        let state = QueueState::new(3, 0, 1);
        let cells: Vec<PaddedCell<u64>> = (0..8).map(|_| CellSlot::<u64>::empty()).collect();
        for rank in 0..GAPS {
            cells[rank as usize]
                .words()
                .store_hi_unpaired(rank, Ordering::Release);
        }
        // SAFETY: state/cells outlive the handle; it is the only one.
        let q = unsafe { RawQueue::<u64>::from_raw(&state, cells.as_ptr()) };
        let mut rx = unsafe { RawSpscConsumer::attach(q) };
        assert_eq!(call(&mut rx), Err(TryDequeueError::Disconnected));
        assert_eq!(rx.stats().gaps_skipped, GAPS as u64);
        assert_eq!(rx.head_rank(), GAPS);
        assert_eq!(state.head().load(Ordering::Acquire), GAPS);
    }

    #[test]
    fn private_head_try_dequeue_skips_gaps_into_disconnect() {
        skips_forged_gaps_into_disconnect(|rx| rx.try_dequeue().map(drop));
    }

    #[test]
    fn private_head_try_claim_skips_gaps_into_disconnect() {
        skips_forged_gaps_into_disconnect(|rx| rx.try_claim().map(drop));
    }
}
