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
use std::time::{Duration, Instant};

use ffq_sync::atomic::{AtomicI64, AtomicU32, Ordering};

use ffq_sync::{CachePadded, WaitCell, WaitConfig, WaitRound, WaitStrategy};

use crate::cell::{CellSlot, PaddedCell, RANK_FREE};
use crate::error::{Disconnected, Full, TryDequeueError};
use crate::layout::{IndexMap, LinearMap};
use crate::shared::{
    claim_batch_core, dequeue_batch_capped_core, dequeue_batch_core, dequeue_blocking,
    dequeue_claim_core, dequeue_core, enqueue_many_sp, looks_full_sp, recover_pending, wake_ready,
    wake_ready_items, PendingRanks,
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
        let mut value = value;
        let mut strat = WaitStrategy::new(self.wait);
        let q = self.queue;
        loop {
            if !self.looks_full() {
                match self.enqueue_scan(value, self.queue.capacity()) {
                    Ok(()) => break,
                    Err(Full(v)) => value = v,
                }
            }
            let (tail, cap) = (self.tail, q.capacity() as i64);
            let state = q.state();
            // Ready = the head moved past our fullness bound. Fresh Acquire
            // load on purpose — the shadow cache is what we are waiting to
            // be able to refresh.
            strat.wait_round(state.not_full(), state.wait_is_shared(), None, &mut || {
                state.head().load(Ordering::Acquire) > tail - cap
            });
        }
        self.stats.parks += strat.parks();
    }

    /// Enqueues `value`, giving up (and handing the value back) if the
    /// queue stays full past `timeout`. The wait escalates from spinning to
    /// parking exactly like [`enqueue`](Self::enqueue).
    pub fn enqueue_timeout(&mut self, value: T, timeout: Duration) -> Result<(), Full<T>> {
        // Deadline materializes on the first full round: a successful
        // enqueue must not pay a clock read (`ffq-shm` routes every
        // blocking enqueue through here in bounded slices).
        let mut deadline = None;
        let mut strat = WaitStrategy::new(self.wait);
        let q = self.queue;
        let mut value = value;
        let res = loop {
            if !self.looks_full() {
                match self.enqueue_scan(value, self.queue.capacity()) {
                    Ok(()) => break Ok(()),
                    Err(Full(v)) => value = v,
                }
            }
            let d = *deadline.get_or_insert_with(|| Instant::now() + timeout);
            let (tail, cap) = (self.tail, q.capacity() as i64);
            let state = q.state();
            let round = strat.wait_round(
                state.not_full(),
                state.wait_is_shared(),
                Some(d),
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
        if self.looks_full() {
            self.stats.full_rejections += 1;
            return Err(Full(value));
        }
        let r = self.enqueue_scan(value, self.queue.capacity());
        if r.is_err() {
            self.stats.full_rejections += 1;
        }
        r
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

    /// The body of `FFQ_ENQ` (Algorithm 1 lines 9–19), bounded to `limit`
    /// cells inspected.
    fn enqueue_scan(&mut self, value: T, limit: usize) -> Result<(), Full<T>> {
        for _ in 0..limit {
            let rank = self.tail;
            debug_assert!(rank >= 0, "tail overflowed i64");
            let cell = self.queue.cell(rank);
            let words = cell.words();

            // Line 13: cell still holds an unconsumed item? The Acquire
            // pairs with the consumer's Release reset, so when we observe
            // rank == -1 the consumer's read of the previous payload
            // happened-before our overwrite below.
            if words.load_lo(Ordering::Acquire) >= 0 {
                // Line 14: skip it and announce the gap. `gap` only grows:
                // we are the only writer and tail is monotonic. Release so a
                // consumer acting on the announcement also sees every prior
                // producer write (not required for correctness of the skip
                // itself, but keeps the cell words causally consistent).
                // Unpaired: single-producer queues never pair-CAS the words.
                words.store_hi_unpaired(rank, Ordering::Release);
                self.stats.gaps_created += 1;
                self.advance_tail();
                // A consumer holding this rank may be parked waiting for it;
                // the announcement is what lets it move on. Broadcast — a
                // single wake could land on a consumer parked on a
                // different rank (see `QueueState::wake_consumers_all`).
                self.queue.state().wake_consumers_all();
                continue;
            }

            // Lines 16–17: publish. The data write must precede the rank
            // store; Release makes the rank store the linearization point.
            // SAFETY: a free cell stays free until this unique producer
            // publishes its rank.
            unsafe { (*cell.data()).write(value) };
            words.store_lo_unpaired(rank, Ordering::Release);
            self.stats.enqueued += 1;
            self.advance_tail();
            // The published rank may belong to one specific parked
            // consumer's pending FIFO (see `QueueState::wake_consumers_all`).
            self.queue.state().wake_consumers_all();
            return Ok(());
        }
        Err(Full(value))
    }

    #[inline(always)]
    fn advance_tail(&mut self) {
        self.tail += 1;
        self.stats.ranks_taken += 1;
        // Mirror for len_hint() and the consumers' claim sizing; ordered
        // after the rank store above so a rank below the mirrored tail is
        // always already resolved.
        self.queue
            .state()
            .tail()
            .store(self.tail, Ordering::Release);
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
    /// Skips (and gap-announces) busy cells exactly like
    /// [`try_enqueue`](Self::try_enqueue) until the tail lands on a free
    /// cell, then returns that rank **with the tail not yet advanced**: the
    /// zero-copy bytes lane writes the payload into the rank's slot buffer
    /// and only then calls [`publish_reserved`](Self::publish_reserved).
    /// Until that publication the reservation is invisible to consumers
    /// (the tail mirror never covered the rank), so abandoning it is a
    /// no-op — the next reservation returns the same rank.
    ///
    /// The returned rank stays valid because this is the unique producer: a
    /// free cell only leaves the free state through this handle.
    pub fn reserve_next(&mut self) -> Result<i64, Full<()>> {
        if self.looks_full() {
            self.stats.full_rejections += 1;
            return Err(Full(()));
        }
        for _ in 0..self.queue.capacity() {
            let rank = self.tail;
            debug_assert!(rank >= 0, "tail overflowed i64");
            let words = self.queue.cell(rank).words();
            if words.load_lo(Ordering::Acquire) >= 0 {
                // Busy cell: same skip-and-announce as enqueue_scan.
                words.store_hi_unpaired(rank, Ordering::Release);
                self.stats.gaps_created += 1;
                self.advance_tail();
                self.queue.state().wake_consumers_all();
                continue;
            }
            return Ok(rank);
        }
        self.stats.full_rejections += 1;
        Err(Full(()))
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
                self.advance_tail();
            }
            self.queue.state().wake_consumers_all();
        }
    }

    /// Publishes `value` at a rank previously returned by
    /// [`reserve_next`](Self::reserve_next) / [`reserve_run`](Self::reserve_run).
    ///
    /// `rank` must be the producer's current tail — i.e. reservations
    /// publish in ascending rank order with nothing enqueued in between.
    /// The Release rank store is the linearization point and orders every
    /// prior write by this thread (the descriptor *and* the payload bytes
    /// written into the rank's slot buffer) before the publication.
    pub fn publish_reserved(&mut self, rank: i64, value: T) {
        assert_eq!(rank, self.tail, "reserved ranks publish in order");
        let cell = self.queue.cell(rank);
        // SAFETY: the cell was observed free under this unique producer and
        // stays free until this rank store.
        unsafe { (*cell.data()).write(value) };
        cell.words().store_lo_unpaired(rank, Ordering::Release);
        self.stats.enqueued += 1;
        self.advance_tail();
        self.queue.state().wake_consumers_all();
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

/// The shared-head consumer engine (SPMC and MPMC variants).
///
/// `MP` selects, at compile time, whether cell-word resets must stay
/// coherent with the multi-producer double-word CAS (see
/// [`crate::shared::dequeue_core`]); `false` for SPMC, `true` for MPMC.
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
    pub fn try_dequeue(&mut self) -> Result<T, TryDequeueError> {
        dequeue_core::<T, C, M, MP>(&self.queue, &mut self.pending, &mut self.stats)
    }

    /// Dequeues one item, waiting — spinning, then parking on the
    /// not-empty eventcount — while the queue is empty.
    pub fn dequeue(&mut self) -> Result<T, Disconnected> {
        dequeue_blocking::<T, C, M, MP>(&self.queue, &mut self.pending, &mut self.stats, self.wait)
    }

    /// Dequeues one item, giving up after `timeout`.
    ///
    /// The deadline check adapts to the wait phase: sampled on a stride
    /// while spinning (`Instant::now()` costs far more than a spin
    /// iteration), every round — with the sleep clamped to the time
    /// remaining — once parked, so even a parked consumer wakes within
    /// about a millisecond of its deadline.
    pub fn dequeue_timeout(&mut self, timeout: Duration) -> Result<T, TryDequeueError> {
        // Deadline materializes on the first empty round: a hit must not
        // pay a clock read (`ffq-shm` routes every blocking dequeue
        // through here in bounded slices).
        let mut deadline = None;
        let mut strat = WaitStrategy::new(self.wait);
        let q = self.queue;
        let res = loop {
            match self.try_dequeue() {
                Ok(v) => break Ok(v),
                e @ Err(TryDequeueError::Disconnected) => break e,
                e @ Err(TryDequeueError::Empty) => {
                    let d = *deadline.get_or_insert_with(|| Instant::now() + timeout);
                    // The wake condition for the rank this handle is parked
                    // on (try_dequeue re-parked it at the front): published,
                    // gap-announced, or producers gone. Snapshotted here —
                    // it cannot change until our next try_dequeue.
                    let front = self.pending.front_rank();
                    let state = q.state();
                    let round = strat.wait_round(
                        state.not_empty(),
                        state.wait_is_shared(),
                        Some(d),
                        &mut || wake_ready(&q, front),
                    );
                    if round == WaitRound::Expired {
                        break e;
                    }
                }
            }
        };
        self.stats.parks += strat.parks();
        res
    }

    /// Claims a run of `k` ranks with a single `head.fetch_add(k)` and
    /// parks it as pending (see [`crate::spmc::Consumer::claim_batch`]).
    pub fn claim_batch(&mut self, k: usize) {
        claim_batch_core(&self.queue, &mut self.pending, &mut self.stats, k);
    }

    /// Harvests up to `max` ready items into `buf`; returns the count.
    /// Never blocks, and claims nothing on an empty queue (see
    /// [`crate::spmc::Consumer::dequeue_batch`]).
    pub fn dequeue_batch(&mut self, buf: &mut Vec<T>, max: usize) -> usize {
        dequeue_batch_core::<T, C, M, MP>(&self.queue, &mut self.pending, &mut self.stats, buf, max)
    }

    /// [`dequeue_batch`](Self::dequeue_batch) whose *fresh* rank claims
    /// stop short of the absolute rank `head_cap` (previously parked runs
    /// still harvest — they honored the cap in force when claimed). The
    /// enforcement primitive behind the sharded frontend's bounded
    /// reordering; see `crate::shard`.
    pub fn dequeue_batch_capped(&mut self, buf: &mut Vec<T>, max: usize, head_cap: i64) -> usize {
        dequeue_batch_capped_core::<T, C, M, MP>(
            &self.queue,
            &mut self.pending,
            &mut self.stats,
            buf,
            max,
            head_cap,
        )
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
    /// producer is left. Precise on the pending side on purpose (see
    /// [`crate::shared::wake_ready`]): `true` means a retry on this handle
    /// can make progress, not merely that the queue moved.
    pub fn wake_ready(&self) -> bool {
        wake_ready(&self.queue, self.pending.front_rank())
    }

    /// [`wake_ready`](Self::wake_ready) without the producers-gone
    /// disconnect term — see [`crate::shared::wake_ready_items`] for why
    /// aggregating callers need the split.
    pub fn wake_ready_items(&self) -> bool {
        wake_ready_items(&self.queue, self.pending.front_rank())
    }

    /// Moves up to `max` currently available items into `buf`, one rank
    /// claim per item; returns the count. Never blocks, and never claims a
    /// rank on a queue whose tail shows nothing available.
    ///
    /// This is the *per-item* drain; prefer
    /// [`dequeue_batch`](Self::dequeue_batch), which claims rank runs.
    pub fn drain_into(&mut self, buf: &mut Vec<T>, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            // Claim-free emptiness pre-check: a drain on an empty queue
            // must not park a rank it cannot satisfy.
            if self.pending.is_empty() && self.queue.looks_empty() {
                break;
            }
            match self.try_dequeue() {
                Ok(v) => {
                    buf.push(v);
                    n += 1;
                }
                Err(_) => break,
            }
        }
        n
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
        recover_pending::<T, C, M, MP>(&self.queue, &mut self.pending);
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
    pub fn try_claim(&mut self) -> Result<(i64, T), TryDequeueError> {
        dequeue_claim_core::<T, C, M, MP>(&self.queue, &mut self.pending, &mut self.stats)
    }

    /// Recycles the cell of a rank obtained from [`try_claim`](Self::try_claim).
    /// The Release reset orders the caller's final read of the cell's slot
    /// buffer before any producer reuse.
    pub fn retire(&mut self, rank: i64) {
        let words = self.queue.cell(rank).words();
        if MP {
            words.store_lo(RANK_FREE, Ordering::Release);
        } else {
            words.store_lo_unpaired(RANK_FREE, Ordering::Release);
        }
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
    pub fn try_dequeue(&mut self) -> Result<T, TryDequeueError> {
        // Sticky within this call: one Acquire load of `producers() == 0`
        // makes every completed enqueue visible globally, so gap skips after
        // it must not reset the flag (resetting could bounce a drained,
        // producer-less queue back to `Empty`).
        let mut disconnect_checked = false;
        loop {
            let rank = self.head;
            let cell = self.queue.cell(rank);
            let words = cell.words();

            // One untorn (rank, gap) read per iteration; on the emulated
            // DWCAS path this is stripe-locked so it can never observe a
            // half-applied pair update.
            let (r, g) = words.load_pair_untorn(Ordering::Acquire);
            if r == rank {
                // SAFETY: published cell owned by the unique consumer.
                let value = unsafe { (*cell.data()).assume_init_read() };
                words.store_lo_unpaired(RANK_FREE, Ordering::Release);
                self.head += 1;
                // Mirror for the producer's fullness pre-check and
                // len_hint; nothing synchronizes on it beyond Acquire/
                // Release pairing of the counter value itself.
                self.queue
                    .state()
                    .head()
                    .store(self.head, Ordering::Release);
                // A producer parked on a full queue waits for exactly this
                // head advance.
                self.queue.state().wake_producers(1);
                self.stats.dequeued += 1;
                self.stats.ranks_claimed += 1;
                return Ok(value);
            }

            if g >= rank {
                // The paper's `c.rank != rank` guard: the producer may have
                // published our rank after the pair read above.
                if words.load_lo(Ordering::Acquire) == rank {
                    continue;
                }
                self.head += 1;
                self.queue
                    .state()
                    .head()
                    .store(self.head, Ordering::Release);
                self.queue.state().wake_producers(1);
                self.stats.gaps_skipped += 1;
                self.stats.ranks_claimed += 1;
                continue;
            }

            self.stats.not_ready += 1;
            if !disconnect_checked && self.queue.state().producers().load(Ordering::Acquire) == 0 {
                disconnect_checked = true;
                continue;
            }
            return Err(if disconnect_checked {
                TryDequeueError::Disconnected
            } else {
                TryDequeueError::Empty
            });
        }
    }

    /// Dequeues one item, waiting — spinning, then parking on the
    /// not-empty eventcount — while the queue is empty.
    pub fn dequeue(&mut self) -> Result<T, Disconnected> {
        let mut strat = WaitStrategy::new(self.wait);
        let q = self.queue;
        let res = loop {
            match self.try_dequeue() {
                Ok(v) => break Ok(v),
                Err(TryDequeueError::Empty) => {
                    // The private head does not advance on Empty, so the
                    // wake condition is our own next rank's cell.
                    let front = Some(self.head);
                    let state = q.state();
                    strat.wait_round(state.not_empty(), state.wait_is_shared(), None, &mut || {
                        wake_ready(&q, front)
                    });
                }
                Err(TryDequeueError::Disconnected) => break Err(Disconnected),
            }
        };
        self.stats.parks += strat.parks();
        res
    }

    /// Dequeues one item, giving up after `timeout` (phase-adaptive
    /// deadline checks; see [`crate::spmc::Consumer::dequeue_timeout`]).
    pub fn dequeue_timeout(&mut self, timeout: Duration) -> Result<T, TryDequeueError> {
        // Lazy deadline, same as the shared-head consumer: hits stay
        // clock-free.
        let mut deadline = None;
        let mut strat = WaitStrategy::new(self.wait);
        let q = self.queue;
        let res = loop {
            match self.try_dequeue() {
                Ok(v) => break Ok(v),
                e @ Err(TryDequeueError::Disconnected) => break e,
                e @ Err(TryDequeueError::Empty) => {
                    let d = *deadline.get_or_insert_with(|| Instant::now() + timeout);
                    let front = Some(self.head);
                    let state = q.state();
                    let round = strat.wait_round(
                        state.not_empty(),
                        state.wait_is_shared(),
                        Some(d),
                        &mut || wake_ready(&q, front),
                    );
                    if round == WaitRound::Expired {
                        break e;
                    }
                }
            }
        };
        self.stats.parks += strat.parks();
        res
    }

    /// Harvests up to `max` ready items into `buf`; returns the count.
    /// Never blocks. The head mirror is stored once per harvested run
    /// instead of once per item.
    pub fn dequeue_batch(&mut self, buf: &mut Vec<T>, max: usize) -> usize {
        let start = self.head;
        let mut n = 0usize;
        while n < max {
            let rank = self.head;
            let cell = self.queue.cell(rank);
            let words = cell.words();

            // Untorn (rank, gap) read — see try_dequeue.
            let (r, g) = words.load_pair_untorn(Ordering::Acquire);
            if r == rank {
                // SAFETY: published cell owned by the unique consumer.
                let value = unsafe { (*cell.data()).assume_init_read() };
                words.store_lo_unpaired(RANK_FREE, Ordering::Release);
                self.head += 1;
                self.stats.dequeued += 1;
                buf.push(value);
                n += 1;
                continue;
            }
            if g >= rank {
                if words.load_lo(Ordering::Acquire) == rank {
                    continue;
                }
                self.head += 1;
                self.stats.gaps_skipped += 1;
                continue;
            }
            break;
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

    /// Moves up to `max` currently available items into `buf`, one head
    /// mirror store per item; returns the count. Never blocks.
    ///
    /// This is the *per-item* drain; prefer
    /// [`dequeue_batch`](Self::dequeue_batch), which mirrors once per run.
    pub fn drain_into(&mut self, buf: &mut Vec<T>, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            match self.try_dequeue() {
                Ok(v) => {
                    buf.push(v);
                    n += 1;
                }
                Err(_) => break,
            }
        }
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
    pub fn try_claim(&mut self) -> Result<(i64, T), TryDequeueError> {
        let mut disconnect_checked = false;
        loop {
            let rank = self.head;
            let cell = self.queue.cell(rank);
            let words = cell.words();
            let (r, g) = words.load_pair_untorn(Ordering::Acquire);
            if r == rank {
                // SAFETY: published cell owned by the unique consumer; T is
                // Copy, so reading without un-initializing is sound.
                let value = unsafe { (*cell.data()).assume_init_read() };
                self.stats.dequeued += 1;
                return Ok((rank, value));
            }
            if g >= rank {
                if words.load_lo(Ordering::Acquire) == rank {
                    continue;
                }
                self.head += 1;
                self.queue
                    .state()
                    .head()
                    .store(self.head, Ordering::Release);
                self.queue.state().wake_producers(1);
                self.stats.gaps_skipped += 1;
                self.stats.ranks_claimed += 1;
                continue;
            }
            self.stats.not_ready += 1;
            if !disconnect_checked && self.queue.state().producers().load(Ordering::Acquire) == 0 {
                disconnect_checked = true;
                continue;
            }
            return Err(if disconnect_checked {
                TryDequeueError::Disconnected
            } else {
                TryDequeueError::Empty
            });
        }
    }

    /// Recycles the cell of a rank obtained from
    /// [`try_claim`](Self::try_claim) and advances the private head past
    /// it. The Release reset orders the caller's final read of the cell's
    /// slot buffer before any producer reuse.
    pub fn retire(&mut self, rank: i64) {
        debug_assert_eq!(rank, self.head, "SPSC claims retire in order");
        let words = self.queue.cell(rank).words();
        words.store_lo_unpaired(RANK_FREE, Ordering::Release);
        self.head += 1;
        self.queue
            .state()
            .head()
            .store(self.head, Ordering::Release);
        self.queue.state().wake_producers(1);
        self.stats.ranks_claimed += 1;
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
}
