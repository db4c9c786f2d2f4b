//! Zero-copy variable-size payload lane over the FFQ cell protocol.
//!
//! The typed queues move fixed-size `T`s *through* the cells; anything
//! variable-size had to be boxed (one allocation + one pointer chase per
//! item) or copied twice (caller buffer → queue → caller buffer). This
//! module adds a bytes mode in which every cell owns a cache-aligned **slot
//! buffer** of `slot_bytes` bytes (sized at construction, see
//! [`crate::layout::normalize_slot_bytes`]) living in a region parallel to
//! the cell array. Payloads move exactly once:
//!
//! * the producer [`reserve`](BytesProducer::reserve)s a length and gets a
//!   [`WriteSlot`] — a mutable borrow of the rank's slot buffer — writes the
//!   payload **in place**, and [`commit`](WriteSlot::commit)s, which
//!   publishes the rank exactly like a typed enqueue;
//! * the consumer [`recv`](BytesConsumer::recv)s a [`PayloadRef`] — a
//!   borrowed view of the same bytes — and the rank is retired (the cell
//!   recycled) only when the `PayloadRef` drops.
//!
//! The rank/gap protocol is reused untouched: the item a cell carries is a
//! 24-byte [`PayloadDesc`] describing where its payload lives, and the
//! Release rank store that publishes the descriptor also orders the payload
//! bytes (written before it into the rank's slot) for the consumer's
//! Acquire claim. A claimed-but-unretired cell looks *busy* to producers,
//! which skip it with a gap announcement if its slot comes around again —
//! holding a `PayloadRef` degrades capacity, never correctness.
//!
//! # Oversize payloads ([`SpillMode`])
//!
//! Nothing is ever truncated. A payload longer than `slot_bytes` takes the
//! queue's spill path:
//!
//! * [`SpillMode::Chain`] (SPSC, including shared memory): the payload is
//!   length-prefix chained across a run of *consecutive* ranks — a
//!   `DESC_CHAIN_HEAD` cell followed by `DESC_CHAIN_CONT` cells, reserved
//!   together so the run is contiguous. Capped at `capacity/2` cells.
//! * [`SpillMode::Heap`] (same-address-space SPMC/MPMC): the payload lives
//!   in a heap allocation owned by the descriptor; the consumer takes the
//!   allocation over. One copy is paid on neither side (the reservation
//!   hands out the heap buffer to write into) — only the drop moves.
//! * [`SpillMode::Refuse`] (shared-memory SPMC): `reserve` fails with
//!   [`TryReserveError::TooLarge`]. Heap pointers cannot cross address
//!   spaces and multiple producers cannot reserve consecutive runs, so the
//!   honest answer is a hard error at reserve time.
//!
//! # Engines
//!
//! [`SpProducer`], [`MpProducer`] and the one [`Consumer`] — over the
//! private-head engine ([`SpscConsumer`]) or the shared-head one
//! ([`McConsumer`]) — are fixed to `PaddedCell<PayloadDesc>` + `LinearMap`
//! (cells and slot buffers must agree on the rank→slot mapping, and a
//! padded descriptor cell is what keeps a producer's descriptor write off
//! the consumer's slot-buffer cache lines). The `bytes_channel`
//! constructors in [`crate::spsc`]/[`crate::spmc`]/[`crate::mpmc`] build
//! them on the heap; `ffq-shm` builds them over mapped regions through the
//! `from_raw_parts` constructors.

use core::ops::{Deref, DerefMut};
use core::ptr::NonNull;
use std::sync::Arc;
use std::time::Duration;

use ffq_sync::atomic::Ordering;
use ffq_sync::{WaitConfig, WaitRound, WaitStrategy};

use crate::cell::{
    CellSlot, PaddedCell, PayloadDesc, DESC_CHAIN_CONT, DESC_CHAIN_HEAD, DESC_HEAP, DESC_INLINE,
};
use crate::error::{CapacityError, Disconnected, ReserveError, TryDequeueError, TryReserveError};
use crate::layout::{normalize_capacity, normalize_slot_bytes, IndexMap, LinearMap};
use crate::mpmc::{self, claim_rank_cell, publish_claimed_rank};
use crate::raw::{ConsumerEngine, QueueState, RawConsumer, RawProducer, RawQueue, RawSpscConsumer};
use crate::stats::{ConsumerStats, ProducerStats};

/// The cell type of every bytes-mode queue: one cache line per descriptor.
pub type DescCell = PaddedCell<PayloadDesc>;

/// What a bytes queue does with a payload longer than its `slot_bytes`.
///
/// Chosen at construction per flavor (see the module docs); never a
/// per-send decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpillMode {
    /// Spill across a run of consecutive ranks (single producer only — the
    /// run must be reserved contiguously). Works over shared memory.
    Chain,
    /// Spill to a heap allocation handed over through the descriptor.
    /// Same-address-space queues only.
    Heap,
    /// Refuse at reserve time with [`TryReserveError::TooLarge`].
    Refuse,
}

/// A borrowed view of a queue's slot-buffer region: `capacity` buffers of
/// `slot_bytes` bytes each, indexed by the same `LinearMap` rank→slot
/// mapping as the cell array.
///
/// `Copy` and cheap, like [`RawQueue`]: every bytes engine embeds one. The
/// region itself lives wherever the caller placed it — the heap block of a
/// `bytes_channel`, or a shared-memory mapping in `ffq-shm`.
#[derive(Clone, Copy)]
pub struct SlotRegion {
    base: NonNull<u8>,
    slot_bytes: usize,
    cap_log2: u32,
}

// SAFETY: the region is plain bytes; all access is mediated by the rank/gap
// protocol (the unique owner of a rank's current state transition is the
// only thread touching its slot buffer).
unsafe impl Send for SlotRegion {}
unsafe impl Sync for SlotRegion {}

impl SlotRegion {
    /// Wraps a raw slot-buffer region.
    ///
    /// # Safety
    ///
    /// `base` points to (at least) `(1 << cap_log2) * slot_bytes` bytes of
    /// readable+writable memory, 64-byte aligned, valid and pinned for as
    /// long as any engine embedding this view is alive. `slot_bytes` is the
    /// normalized value every peer of the queue agrees on (a power of two,
    /// at least [`crate::layout::MIN_SLOT_BYTES`]), and `cap_log2` matches
    /// the queue's capacity.
    pub unsafe fn from_raw(base: *mut u8, slot_bytes: usize, cap_log2: u32) -> Self {
        debug_assert!(!base.is_null());
        debug_assert!(slot_bytes.is_power_of_two());
        Self {
            // SAFETY: non-null per the caller's contract.
            base: unsafe { NonNull::new_unchecked(base) },
            slot_bytes,
            cap_log2,
        }
    }

    /// Bytes per slot buffer — the largest payload that avoids the spill
    /// path.
    #[inline(always)]
    pub fn slot_bytes(&self) -> usize {
        self.slot_bytes
    }

    /// The slot buffer assigned to `rank`.
    #[inline(always)]
    fn slot_ptr(&self, rank: i64) -> *mut u8 {
        // SAFETY(index): LinearMap::slot < 2^cap_log2; the region covers
        // 2^cap_log2 buffers per `from_raw`'s contract.
        unsafe {
            self.base
                .as_ptr()
                .add(LinearMap::slot(rank, self.cap_log2) * self.slot_bytes)
        }
    }
}

/// One 64-byte unit of slot-buffer storage; the heap backing allocates the
/// region as `Box<[SlotLine]>` so it is cache-line aligned by construction.
#[repr(C, align(64))]
struct SlotLine([u8; 64]);

/// Heap backing of one bytes queue: counter block + descriptor cells + the
/// slot-buffer region, pinned behind an `Arc` by every handle.
struct BytesShared {
    state: QueueState,
    cells: Box<[DescCell]>,
    slots: Box<[SlotLine]>,
    slot_bytes: usize,
}

impl BytesShared {
    /// An empty queue of at least `capacity` cells with slot buffers of at
    /// least `slot_bytes` bytes, counted for one producer and one consumer.
    fn new(capacity: usize, slot_bytes: usize) -> Result<Arc<Self>, CapacityError> {
        let cap_log2 = normalize_capacity(capacity)?;
        let slot_bytes = normalize_slot_bytes(slot_bytes)?;
        let cap = 1usize << cap_log2;
        let cells: Box<[DescCell]> = (0..cap).map(|_| DescCell::empty()).collect();
        let slots: Box<[SlotLine]> = (0..cap * slot_bytes / 64)
            .map(|_| SlotLine([0; 64]))
            .collect();
        Ok(Arc::new(Self {
            state: QueueState::in_process(cap_log2, 1, 1),
            cells,
            slots,
            slot_bytes,
        }))
    }

    fn raw(&self) -> RawQueue<PayloadDesc, DescCell, LinearMap> {
        // SAFETY: state and cells live inside the Arc allocation, which
        // outlives every handle embedding the view.
        unsafe { RawQueue::from_raw(&self.state, self.cells.as_ptr()) }
    }

    fn region(&self) -> SlotRegion {
        // SAFETY: the slots box covers exactly capacity * slot_bytes
        // 64-aligned bytes and is pinned by the Arc alongside the cells.
        unsafe {
            SlotRegion::from_raw(
                self.slots.as_ptr() as *mut u8,
                self.slot_bytes,
                self.state.cap_log2(),
            )
        }
    }
}

impl Drop for BytesShared {
    fn drop(&mut self) {
        // Last handle: any still-published descriptor may own a heap spill
        // buffer that was never consumed — free it here. (Slot/chain
        // payloads are plain bytes inside this allocation; nothing to do.)
        for cell in self.cells.iter() {
            if cell.words().load_lo(Ordering::Relaxed) >= 0 {
                // SAFETY: rank >= 0 means the descriptor write completed
                // and no consumer took it over.
                let desc = unsafe { (*cell.data()).assume_init_read() };
                if desc.flags == DESC_HEAP && desc.heap != 0 {
                    // SAFETY: a DESC_HEAP descriptor owns the boxed slice
                    // it points to until a consumer (or this drop) takes it.
                    drop(unsafe { heap_buf_from_desc(&desc) });
                }
            }
        }
    }
}

/// Reconstructs the boxed payload a `DESC_HEAP` descriptor owns.
///
/// # Safety
/// `desc` is a `DESC_HEAP` descriptor whose buffer has not yet been taken
/// over (by a consumer or a previous call).
unsafe fn heap_buf_from_desc(desc: &PayloadDesc) -> Box<[u8]> {
    debug_assert_eq!(desc.flags, DESC_HEAP);
    // SAFETY: per this function's contract the pointer/length pair came
    // from Box::into_raw on exactly this allocation.
    unsafe {
        Box::from_raw(core::ptr::slice_from_raw_parts_mut(
            desc.heap as *mut u8,
            desc.len as usize,
        ))
    }
}

/// The descriptor of a heap spill: hands `buf`'s allocation over to
/// whoever takes the descriptor (see [`heap_buf_from_desc`]).
fn heap_desc(buf: Box<[u8]>) -> PayloadDesc {
    let len = buf.len();
    PayloadDesc {
        len: len as u64,
        flags: DESC_HEAP,
        seg: 0,
        heap: Box::into_raw(buf) as *mut u8 as u64,
    }
}

/// A producer-side reservation in flight (reserved, not yet committed).
enum PendingWrite {
    /// The payload fits the rank's slot buffer.
    Inline { rank: i64, len: usize },
    /// Chain spill staged in the producer's scratch buffer, to be scattered
    /// over `cells` consecutive ranks starting at `start` on commit.
    Chain { start: i64, cells: u32, len: usize },
    /// Heap spill: the reservation IS the allocation.
    Heap { rank: i64, buf: Box<[u8]> },
}

/// A consumer-side claim in flight (claimed, not yet released).
enum ClaimedView {
    /// Borrowing the rank's slot buffer; `retire(rank)` on release.
    Inline { rank: i64, len: usize },
    /// Chain spill reassembled into the consumer's scratch buffer; the
    /// ranks were already retired during assembly.
    Spill { len: usize },
    /// Heap spill taken over from the descriptor; freed on release.
    Heap { buf: Box<[u8]> },
}

mod sealed {
    /// The bytes traits are implemented only by this module's engines: the
    /// hidden protocol methods (`pending_parts`, `release_claimed`, …) form
    /// an unsafe-adjacent contract the [`super::WriteSlot`]/
    /// [`super::PayloadRef`] guards rely on.
    pub trait Sealed {}
}

/// The producing half of the zero-copy bytes protocol: reserve a length,
/// write in place, commit to publish.
///
/// Sealed — implemented by [`SpProducer`] and [`MpProducer`]. The provided
/// methods are the API; the `#[doc(hidden)]` required methods are the
/// engine protocol the guards drive.
pub trait BytesProducer: sealed::Sealed + Sized {
    /// The largest payload a `reserve` on this queue can ever satisfy
    /// (`usize::MAX` when heap spill makes it effectively unbounded).
    fn max_payload(&self) -> usize;

    /// Whether an uncommitted reservation is currently held. (Always
    /// `false` outside a [`WriteSlot`]'s lifetime.)
    fn has_pending(&self) -> bool;

    #[doc(hidden)]
    fn try_reserve_pending(&mut self, len: usize) -> Result<(), TryReserveError>;
    #[doc(hidden)]
    fn pending_parts(&mut self) -> (*mut u8, usize);
    #[doc(hidden)]
    fn commit_pending(&mut self);
    #[doc(hidden)]
    fn abort_pending(&mut self);
    #[doc(hidden)]
    fn full_wait_round(
        &mut self,
        len: usize,
        strat: &mut WaitStrategy,
        timeout: Option<Duration>,
    ) -> WaitRound;
    #[doc(hidden)]
    fn wait_config(&self) -> WaitConfig;
    /// Adds the futex parks a blocking reserve took to this handle's
    /// counters.
    #[doc(hidden)]
    fn add_parks(&mut self, parks: u64);

    /// Every blocking reserve: holds a reservation like
    /// [`try_reserve_pending`](Self::try_reserve_pending), waiting while
    /// the queue is full; [`TryReserveError::Full`] once `timeout` has
    /// passed since the first full round (never without one). One attempt
    /// inline, the wait only after it misses.
    #[doc(hidden)]
    fn reserve_pending(
        &mut self,
        len: usize,
        timeout: Option<Duration>,
    ) -> Result<(), TryReserveError> {
        match self.try_reserve_pending(len) {
            Err(TryReserveError::Full) => reserve_wait(self, len, timeout),
            res => res,
        }
    }

    /// Reserves space for a `len`-byte payload without blocking.
    ///
    /// On success the returned [`WriteSlot`] derefs to `len` writable bytes
    /// (zero-initialized only on the spill paths); fill it and
    /// [`commit`](WriteSlot::commit). Dropping it uncommitted aborts the
    /// reservation — consumers never observe it.
    ///
    /// An uncommitted previous reservation (possible only if a `WriteSlot`
    /// was leaked) is aborted first.
    fn try_reserve(&mut self, len: usize) -> Result<WriteSlot<'_, Self>, TryReserveError> {
        self.try_reserve_pending(len)?;
        let (ptr, n) = self.pending_parts();
        debug_assert_eq!(n, len);
        Ok(WriteSlot {
            tx: self,
            ptr,
            len: n,
            committed: false,
        })
    }

    /// Reserves space for a `len`-byte payload, waiting — spinning, then
    /// parking per the configured [`WaitConfig`] — while the queue is full.
    ///
    /// Only the permanent failure remains: a payload no reservation on
    /// this queue can ever satisfy.
    #[inline]
    fn reserve(&mut self, len: usize) -> Result<WriteSlot<'_, Self>, ReserveError> {
        // Without a timeout the wait never ends `Full`.
        if let Err(TryReserveError::TooLarge { len, max }) = self.reserve_pending(len, None) {
            return Err(ReserveError::TooLarge { len, max });
        }
        let (ptr, n) = self.pending_parts();
        Ok(WriteSlot {
            tx: self,
            ptr,
            len: n,
            committed: false,
        })
    }

    /// Builds the [`WriteSlot`] guard over a reservation already held via
    /// [`try_reserve_pending`](Self::try_reserve_pending) — for wrappers
    /// (ffq-shm's liveness-probing producers) that drive the claim loop
    /// themselves and only afterwards hand out the guard.
    #[doc(hidden)]
    fn pending_slot(&mut self) -> Option<WriteSlot<'_, Self>> {
        if !self.has_pending() {
            return None;
        }
        let (ptr, n) = self.pending_parts();
        Some(WriteSlot {
            tx: self,
            ptr,
            len: n,
            committed: false,
        })
    }

    /// Copy-in convenience: `reserve(payload.len())`, copy, commit.
    fn send_bytes(&mut self, payload: &[u8]) -> Result<(), ReserveError> {
        let mut slot = self.reserve(payload.len())?;
        slot.copy_from_slice(payload);
        slot.commit();
        Ok(())
    }
}

/// The consuming half of the zero-copy bytes protocol: claim a payload,
/// read it borrowed, release to recycle the cell.
///
/// Sealed — implemented by [`Consumer`], over either raw engine.
pub trait BytesConsumer: sealed::Sealed + Sized {
    /// Whether a claimed-but-unreleased payload is currently held. (Always
    /// `false` outside a [`PayloadRef`]'s lifetime.)
    fn has_claimed(&self) -> bool;

    #[doc(hidden)]
    fn try_claim_payload(&mut self) -> Result<(), TryDequeueError>;
    #[doc(hidden)]
    fn claimed_parts(&self) -> (*const u8, usize);
    #[doc(hidden)]
    fn release_claimed(&mut self);
    #[doc(hidden)]
    fn empty_wait_round(
        &mut self,
        strat: &mut WaitStrategy,
        timeout: Option<Duration>,
    ) -> WaitRound;
    #[doc(hidden)]
    fn wait_config(&self) -> WaitConfig;
    /// Adds the futex parks a blocking receive took to this handle's
    /// counters.
    #[doc(hidden)]
    fn add_parks(&mut self, parks: u64);

    /// Every blocking receive: holds a claim like
    /// [`try_claim_payload`](Self::try_claim_payload), waiting while the
    /// queue is empty; [`TryDequeueError::Empty`] once `timeout` has passed
    /// since the first empty round (never without one). One attempt
    /// inline, the wait only after it comes up empty.
    #[doc(hidden)]
    fn claim_payload(&mut self, timeout: Option<Duration>) -> Result<(), TryDequeueError> {
        match self.try_claim_payload() {
            Err(TryDequeueError::Empty) => claim_wait(self, timeout),
            res => res,
        }
    }

    /// Claims the next payload without blocking.
    ///
    /// The returned [`PayloadRef`] borrows the payload bytes in place
    /// (slot buffer, or the reassembled/taken-over spill); the rank is
    /// retired — its cell recycled — when the `PayloadRef` drops.
    #[inline(always)]
    fn try_recv(&mut self) -> Result<PayloadRef<'_, Self>, TryDequeueError> {
        self.try_claim_payload()?;
        let (ptr, len) = self.claimed_parts();
        Ok(PayloadRef { rx: self, ptr, len })
    }

    /// Claims the next payload, waiting — spinning, then parking per the
    /// configured [`WaitConfig`] — while the queue is empty.
    fn recv(&mut self) -> Result<PayloadRef<'_, Self>, Disconnected> {
        // Without a timeout only a disconnect ends the wait.
        self.claim_payload(None).map_err(|_| Disconnected)?;
        let (ptr, len) = self.claimed_parts();
        Ok(PayloadRef { rx: self, ptr, len })
    }

    /// Claims the next payload, giving up after `timeout`.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<PayloadRef<'_, Self>, TryDequeueError> {
        self.claim_payload(Some(timeout))?;
        let (ptr, len) = self.claimed_parts();
        Ok(PayloadRef { rx: self, ptr, len })
    }
}

/// The one wait loop of [`BytesProducer::reserve_pending`], entered after
/// its first attempt found the queue full.
#[cold]
fn reserve_wait<P: BytesProducer>(
    tx: &mut P,
    len: usize,
    timeout: Option<Duration>,
) -> Result<(), TryReserveError> {
    let mut strat = WaitStrategy::new(tx.wait_config());
    let res = loop {
        if tx.full_wait_round(len, &mut strat, timeout) == WaitRound::Expired {
            break Err(TryReserveError::Full);
        }
        match tx.try_reserve_pending(len) {
            Err(TryReserveError::Full) => {}
            res => break res,
        }
    };
    tx.add_parks(strat.parks());
    res
}

/// The one wait loop of [`BytesConsumer::claim_payload`], entered after its
/// first attempt came up empty.
#[cold]
fn claim_wait<R: BytesConsumer>(
    rx: &mut R,
    timeout: Option<Duration>,
) -> Result<(), TryDequeueError> {
    let mut strat = WaitStrategy::new(rx.wait_config());
    let res = loop {
        if rx.empty_wait_round(&mut strat, timeout) == WaitRound::Expired {
            break Err(TryDequeueError::Empty);
        }
        match rx.try_claim_payload() {
            Err(TryDequeueError::Empty) => {}
            res => break res,
        }
    };
    rx.add_parks(strat.parks());
    res
}

/// A reserved, writable payload buffer. Derefs to `[u8]`.
///
/// [`commit`](Self::commit) publishes the payload (the typed enqueue's
/// linearization point); dropping uncommitted aborts the reservation and
/// consumers never observe it. The pointee is stable for the guard's whole
/// lifetime: a slot buffer pinned by the queue allocation, or a spill
/// buffer owned by the reservation itself.
pub struct WriteSlot<'a, P: BytesProducer> {
    tx: &'a mut P,
    ptr: *mut u8,
    len: usize,
    committed: bool,
}

impl<P: BytesProducer> WriteSlot<'_, P> {
    /// Publishes the payload; after this call consumers can claim it.
    #[inline(always)]
    pub fn commit(mut self) {
        self.committed = true;
        self.tx.commit_pending();
    }

    /// The reserved length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the reservation is for zero bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<P: BytesProducer> Deref for WriteSlot<'_, P> {
    type Target = [u8];
    #[inline(always)]
    fn deref(&self) -> &[u8] {
        // SAFETY: `ptr` points at `len` bytes the pending reservation owns
        // exclusively (see the struct docs for pointee stability).
        unsafe { core::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl<P: BytesProducer> DerefMut for WriteSlot<'_, P> {
    #[inline(always)]
    fn deref_mut(&mut self) -> &mut [u8] {
        // SAFETY: as in Deref; `&mut self` makes the access unique.
        unsafe { core::slice::from_raw_parts_mut(self.ptr, self.len) }
    }
}

impl<P: BytesProducer> Drop for WriteSlot<'_, P> {
    fn drop(&mut self) {
        if !self.committed {
            self.tx.abort_pending();
        }
    }
}

/// A claimed, borrowed payload. Derefs to `[u8]`.
///
/// Dropping it retires the claimed rank, recycling the cell (and its slot
/// buffer) back to the producer side. Holding it long keeps the cell busy —
/// producers skip it via gap announcements, so throughput degrades but
/// nothing corrupts.
pub struct PayloadRef<'a, R: BytesConsumer> {
    rx: &'a mut R,
    ptr: *const u8,
    len: usize,
}

impl<R: BytesConsumer> Deref for PayloadRef<'_, R> {
    type Target = [u8];
    #[inline(always)]
    fn deref(&self) -> &[u8] {
        // SAFETY: `ptr` points at `len` bytes the claim holds: a published
        // slot buffer no producer reuses before the retire in Drop, or a
        // spill buffer the claim owns.
        unsafe { core::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl<R: BytesConsumer> Drop for PayloadRef<'_, R> {
    #[inline]
    fn drop(&mut self) {
        self.rx.release_claimed();
    }
}

/// Single-producer bytes engine (SPSC and SPMC flavors): the paper's
/// private-tail enqueue with the publish deferred to [`WriteSlot::commit`].
pub struct SpProducer {
    raw: RawProducer<PayloadDesc, DescCell, LinearMap>,
    slots: SlotRegion,
    spill: SpillMode,
    /// Scratch the chain spill stages into between reserve and commit.
    chain_buf: Vec<u8>,
    pending: Option<PendingWrite>,
    /// Pins the heap allocation (None for `from_raw_parts` engines, whose
    /// caller pins the region).
    _keep: Option<Arc<BytesShared>>,
    /// Whether Drop decrements the producer count (heap channels yes, raw
    /// engines defer to their caller's handshake).
    owns_count: bool,
}

impl sealed::Sealed for SpProducer {}

impl SpProducer {
    /// Wraps a raw single-producer handle and its slot region.
    ///
    /// # Safety
    ///
    /// `raw`'s attach contract holds (unique producer, live pinned queue),
    /// `slots` views the slot region every peer of this queue agrees on
    /// (same base, `slot_bytes`, capacity), and the region outlives this
    /// engine. `spill` must be [`SpillMode::Heap`] only if every consumer
    /// shares this address space. The caller manages the producer count.
    pub unsafe fn from_raw_parts(
        raw: RawProducer<PayloadDesc, DescCell, LinearMap>,
        slots: SlotRegion,
        spill: SpillMode,
    ) -> Self {
        Self {
            raw,
            slots,
            spill,
            chain_buf: Vec::new(),
            pending: None,
            _keep: None,
            owns_count: false,
        }
    }

    /// Replaces the wait policy used by blocking reserves; see
    /// [`WaitConfig`].
    pub fn set_wait_config(&mut self, cfg: WaitConfig) {
        self.raw.set_wait_config(cfg);
    }

    /// Capacity of the underlying cell array.
    pub fn capacity(&self) -> usize {
        self.raw.capacity()
    }

    /// Bytes per slot buffer — the largest payload that stays inline.
    pub fn slot_bytes(&self) -> usize {
        self.slots.slot_bytes()
    }

    /// Snapshot of this producer's counters.
    pub fn stats(&self) -> ProducerStats {
        self.raw.stats()
    }

    /// How many cells a `len`-byte payload occupies under this spill mode.
    fn cells_for(&self, len: usize) -> usize {
        if len <= self.slots.slot_bytes() || self.spill != SpillMode::Chain {
            1
        } else {
            len.div_ceil(self.slots.slot_bytes())
        }
    }

    /// Reserves a payload longer than one slot buffer, per the spill mode:
    /// the cold half of
    /// [`try_reserve_pending`](BytesProducer::try_reserve_pending).
    #[cold]
    fn reserve_spill(&mut self, len: usize) -> Result<(), TryReserveError> {
        let slot_bytes = self.slots.slot_bytes();
        match self.spill {
            SpillMode::Refuse => Err(TryReserveError::TooLarge {
                len,
                max: slot_bytes,
            }),
            SpillMode::Chain => {
                let cells = len.div_ceil(slot_bytes);
                let max_cells = self.raw.capacity() / 2;
                if cells > max_cells {
                    return Err(TryReserveError::TooLarge {
                        len,
                        max: slot_bytes * max_cells,
                    });
                }
                let start = self
                    .raw
                    .reserve_run(cells)
                    .map_err(|_| TryReserveError::Full)?;
                // The scatter on commit reads back from this scratch; it is
                // sized once here and never reallocated while pending, so
                // the WriteSlot's pointer stays stable.
                self.chain_buf.clear();
                self.chain_buf.resize(len, 0);
                self.pending = Some(PendingWrite::Chain {
                    start,
                    cells: cells as u32,
                    len,
                });
                Ok(())
            }
            SpillMode::Heap => {
                let rank = self.raw.reserve_next().map_err(|_| TryReserveError::Full)?;
                self.pending = Some(PendingWrite::Heap {
                    rank,
                    buf: vec![0u8; len].into_boxed_slice(),
                });
                Ok(())
            }
        }
    }

    /// Scatters a chain spill from the scratch buffer over its reserved
    /// run and publishes the run's ranks in ascending order.
    #[cold]
    fn commit_chain(&mut self, start: i64, cells: u32, len: usize) {
        let slot = self.slots.slot_bytes();
        let mut off = 0usize;
        for j in 0..cells as i64 {
            let rank = start + j;
            let seg = (len - off).min(slot);
            // SAFETY: reserve_run made this producer the unique owner of
            // every cell in [start, start+cells); the scratch holds `len`
            // bytes.
            unsafe {
                core::ptr::copy_nonoverlapping(
                    self.chain_buf.as_ptr().add(off),
                    self.slots.slot_ptr(rank),
                    seg,
                );
            }
            let desc = if j == 0 {
                PayloadDesc {
                    len: len as u64,
                    flags: DESC_CHAIN_HEAD,
                    seg: cells - 1,
                    heap: 0,
                }
            } else {
                PayloadDesc {
                    len: seg as u64,
                    flags: DESC_CHAIN_CONT,
                    seg: 0,
                    heap: 0,
                }
            };
            // Published in ascending rank order: a consumer that claims the
            // head may have to wait for the tail of this very loop, but
            // never observes a continuation before its head.
            self.raw.publish_reserved(rank, desc);
            off += seg;
        }
    }

    /// Publishes a heap spill, handing its allocation to the descriptor.
    #[cold]
    fn commit_heap(&mut self, rank: i64, buf: Box<[u8]>) {
        self.raw.publish_reserved(rank, heap_desc(buf));
    }
}

impl BytesProducer for SpProducer {
    fn max_payload(&self) -> usize {
        match self.spill {
            SpillMode::Refuse => self.slots.slot_bytes(),
            SpillMode::Chain => self.slots.slot_bytes() * (self.raw.capacity() / 2),
            SpillMode::Heap => usize::MAX,
        }
    }

    fn has_pending(&self) -> bool {
        self.pending.is_some()
    }

    #[inline(always)]
    fn try_reserve_pending(&mut self, len: usize) -> Result<(), TryReserveError> {
        if self.pending.is_some() {
            self.abort_pending();
        }
        if len > self.slots.slot_bytes() {
            return self.reserve_spill(len);
        }
        let rank = self.raw.reserve_next().map_err(|_| TryReserveError::Full)?;
        self.pending = Some(PendingWrite::Inline { rank, len });
        Ok(())
    }

    fn pending_parts(&mut self) -> (*mut u8, usize) {
        match self.pending.as_mut().expect("no pending reservation") {
            PendingWrite::Inline { rank, len } => (self.slots.slot_ptr(*rank), *len),
            PendingWrite::Chain { len, .. } => (self.chain_buf.as_mut_ptr(), *len),
            PendingWrite::Heap { buf, .. } => (buf.as_mut_ptr(), buf.len()),
        }
    }

    #[inline]
    fn commit_pending(&mut self) {
        match self.pending.take().expect("no pending reservation") {
            PendingWrite::Inline { rank, len } => {
                // The payload bytes are already in the rank's slot; the
                // Release publish inside orders them for the claimer.
                self.raw.publish_reserved(rank, PayloadDesc::inline(len));
            }
            PendingWrite::Chain { start, cells, len } => self.commit_chain(start, cells, len),
            PendingWrite::Heap { rank, buf } => self.commit_heap(rank, buf),
        }
    }

    #[cold]
    fn abort_pending(&mut self) {
        // Nothing was published and the private tail never moved: the
        // reservation was invisible, so dropping the bookkeeping (and any
        // heap buffer) is the entire abort.
        self.pending = None;
    }

    fn full_wait_round(
        &mut self,
        len: usize,
        strat: &mut WaitStrategy,
        timeout: Option<Duration>,
    ) -> WaitRound {
        let need = self.cells_for(len) as i64;
        let tail = self.raw.tail_rank();
        let cap = self.raw.capacity() as i64;
        let state = self.raw.queue().state();
        strat.wait_round_for(
            state.not_full(),
            state.wait_is_shared(),
            timeout,
            &mut || {
                // Ready once consumers have drained far enough that a run of
                // `need` cells *can* be free. (The single producer's tail is
                // frozen while it waits.)
                let head = state.head().load(Ordering::Acquire);
                tail + need - head <= cap
            },
        )
    }

    fn wait_config(&self) -> WaitConfig {
        self.raw.wait_config()
    }

    fn add_parks(&mut self, parks: u64) {
        self.raw.add_parks(parks);
    }
}

impl Drop for SpProducer {
    fn drop(&mut self) {
        self.abort_pending();
        if self.owns_count {
            let state = self.raw.queue().state();
            // SeqCst + broadcast: same disconnect discipline as the typed
            // producers (see spsc::Producer::drop).
            state.producers().fetch_sub(1, Ordering::SeqCst);
            state.wake_all();
        }
    }
}

/// Multi-producer bytes engine (MPMC flavor): Algorithm 2's claim CAS with
/// the publish deferred to [`WriteSlot::commit`].
///
/// A claimed cell *must* be resolved: aborting a reservation publishes a
/// `DESC_ABORT` descriptor (consumers retire it silently) rather than
/// leaving the claimed cell to stall its assigned consumer forever.
pub struct MpProducer {
    queue: RawQueue<PayloadDesc, DescCell, LinearMap>,
    stats: ProducerStats,
    wait: WaitConfig,
    slots: SlotRegion,
    spill: SpillMode,
    pending: Option<PendingWrite>,
    keep: Option<Arc<BytesShared>>,
    owns_count: bool,
}

impl sealed::Sealed for MpProducer {}

impl MpProducer {
    /// Replaces the wait policy used by blocking reserves; see
    /// [`WaitConfig`].
    pub fn set_wait_config(&mut self, cfg: WaitConfig) {
        self.wait = cfg;
    }

    /// Capacity of the underlying cell array.
    pub fn capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Bytes per slot buffer — the largest payload that stays inline.
    pub fn slot_bytes(&self) -> usize {
        self.slots.slot_bytes()
    }

    /// Snapshot of this producer's counters.
    pub fn stats(&self) -> ProducerStats {
        self.stats
    }

    /// The counter pre-check, then Algorithm 2's claim of one cell for a
    /// reservation.
    #[inline]
    fn claim_rank(&mut self) -> Result<i64, TryReserveError> {
        // Counter pre-check: reject a clearly full queue in O(1) without
        // consuming tail ranks.
        if mpmc::looks_full(&self.queue) {
            self.stats.full_rejections += 1;
            return Err(TryReserveError::Full);
        }
        claim_rank_cell(&self.queue, &mut self.stats, self.queue.capacity())
            .map_err(|_| TryReserveError::Full)
    }

    /// Reserves a payload longer than one slot buffer: a heap spill, or
    /// `TooLarge` — the cold half of
    /// [`try_reserve_pending`](BytesProducer::try_reserve_pending).
    #[cold]
    fn reserve_spill(&mut self, len: usize) -> Result<(), TryReserveError> {
        if self.spill != SpillMode::Heap {
            return Err(TryReserveError::TooLarge {
                len,
                max: self.slots.slot_bytes(),
            });
        }
        let rank = self.claim_rank()?;
        self.pending = Some(PendingWrite::Heap {
            rank,
            buf: vec![0u8; len].into_boxed_slice(),
        });
        Ok(())
    }

    /// Publishes a heap spill, handing its allocation to the descriptor.
    #[cold]
    fn commit_heap(&mut self, rank: i64, buf: Box<[u8]>) {
        publish_claimed_rank(&self.queue, &mut self.stats, rank, heap_desc(buf));
    }

    /// Resolves the pending claim as abandoned (never leaves it claimed).
    fn resolve_pending_abort(&mut self) {
        match self.pending.take() {
            None => {}
            Some(PendingWrite::Inline { rank, .. }) => {
                publish_claimed_rank(&self.queue, &mut self.stats, rank, PayloadDesc::abort());
            }
            Some(PendingWrite::Heap { rank, buf }) => {
                drop(buf);
                publish_claimed_rank(&self.queue, &mut self.stats, rank, PayloadDesc::abort());
            }
            Some(PendingWrite::Chain { .. }) => {
                unreachable!("multi-producer queues never reserve chains")
            }
        }
    }
}

impl BytesProducer for MpProducer {
    fn max_payload(&self) -> usize {
        match self.spill {
            SpillMode::Heap => usize::MAX,
            // Chain is unreachable on MP (multiple producers cannot
            // reserve consecutive runs); treat it as Refuse defensively.
            SpillMode::Refuse | SpillMode::Chain => self.slots.slot_bytes(),
        }
    }

    fn has_pending(&self) -> bool {
        self.pending.is_some()
    }

    #[inline]
    fn try_reserve_pending(&mut self, len: usize) -> Result<(), TryReserveError> {
        if self.pending.is_some() {
            self.abort_pending();
        }
        if len > self.slots.slot_bytes() {
            return self.reserve_spill(len);
        }
        let rank = self.claim_rank()?;
        self.pending = Some(PendingWrite::Inline { rank, len });
        Ok(())
    }

    fn pending_parts(&mut self) -> (*mut u8, usize) {
        match self.pending.as_mut().expect("no pending reservation") {
            PendingWrite::Inline { rank, len } => (self.slots.slot_ptr(*rank), *len),
            PendingWrite::Heap { buf, .. } => (buf.as_mut_ptr(), buf.len()),
            PendingWrite::Chain { .. } => {
                unreachable!("multi-producer queues never reserve chains")
            }
        }
    }

    #[inline]
    fn commit_pending(&mut self) {
        match self.pending.take().expect("no pending reservation") {
            PendingWrite::Inline { rank, len } => {
                publish_claimed_rank(&self.queue, &mut self.stats, rank, PayloadDesc::inline(len));
            }
            PendingWrite::Heap { rank, buf } => self.commit_heap(rank, buf),
            PendingWrite::Chain { .. } => {
                unreachable!("multi-producer queues never reserve chains")
            }
        }
    }

    #[cold]
    fn abort_pending(&mut self) {
        self.resolve_pending_abort();
    }

    fn full_wait_round(
        &mut self,
        _len: usize,
        strat: &mut WaitStrategy,
        timeout: Option<Duration>,
    ) -> WaitRound {
        mpmc::full_wait_round(&self.queue, strat, timeout)
    }

    fn wait_config(&self) -> WaitConfig {
        self.wait
    }

    fn add_parks(&mut self, parks: u64) {
        self.stats.parks += parks;
    }
}

impl Clone for MpProducer {
    /// Adds a producer. Heap-channel handles only.
    fn clone(&self) -> Self {
        let keep = self
            .keep
            .clone()
            .expect("raw-region bytes producers are cloned by the region owner");
        // Relaxed inc per the QueueState handle-count rule: a new handle is
        // handed to its thread through a happens-before edge anyway.
        keep.state.producers().fetch_add(1, Ordering::Relaxed);
        Self {
            queue: keep.raw(),
            stats: ProducerStats::default(),
            wait: self.wait,
            slots: self.slots,
            spill: self.spill,
            pending: None,
            keep: Some(keep),
            owns_count: true,
        }
    }
}

impl Drop for MpProducer {
    fn drop(&mut self) {
        self.resolve_pending_abort();
        if self.owns_count {
            let state = self.queue.state();
            state.producers().fetch_sub(1, Ordering::SeqCst);
            state.wake_all();
        }
    }
}

/// The consumer of every bytes flavor, generic over its raw engine: the
/// private head ([`SpscConsumer`], SPSC) or the shared head with
/// `fetch_add` rank claims and pending-rank semantics, exactly the typed
/// consumers' discipline ([`McConsumer`]: SPMC `MP = false`, MPMC
/// `MP = true`).
///
/// Chain reassembly runs only where the queue's [`SpillMode`] is
/// [`Chain`](SpillMode::Chain) — single-consumer queues, since a chain run
/// claimed from a shared head would be split across consumers — and heap
/// takeover only where it is [`Heap`](SpillMode::Heap). Every other
/// descriptor (an MPMC abort tombstone, a spill the queue does not run,
/// unknown flags from a hostile shm peer) is retired unread.
pub struct Consumer<E: ConsumerEngine<PayloadDesc>> {
    raw: E,
    slots: SlotRegion,
    /// The producers' spill mode, which gates reassembly and takeover.
    spill: SpillMode,
    /// Scratch that chain spills are reassembled into.
    spill_buf: Vec<u8>,
    claimed: Option<ClaimedView>,
    keep: Option<Arc<BytesShared>>,
    owns_count: bool,
}

/// The single-consumer bytes engine (SPSC flavor): private head, and the
/// only one that reassembles chain spills.
pub type SpscConsumer = Consumer<RawSpscConsumer<PayloadDesc>>;

/// The shared-head bytes engine (SPMC `MP = false`, MPMC `MP = true`).
pub type McConsumer<const MP: bool> = Consumer<RawConsumer<PayloadDesc, DescCell, LinearMap, MP>>;

impl<E: ConsumerEngine<PayloadDesc>> sealed::Sealed for Consumer<E> {}

impl<E: ConsumerEngine<PayloadDesc>> Consumer<E> {
    /// Wraps a raw consumer engine and its slot region.
    ///
    /// # Safety
    ///
    /// `raw`'s attach contract holds (live pinned region, an engine the
    /// queue's variant admits), and `slots` views the same slot region as
    /// every peer (same base, `slot_bytes`, capacity), outliving this
    /// engine. `spill` must match the producers' mode;
    /// [`SpillMode::Chain`] additionally requires `raw` to be the queue's
    /// only consumer, and [`SpillMode::Heap`] requires every producer to
    /// share this address space. The caller manages the consumer count.
    pub unsafe fn from_raw_parts(raw: E, slots: SlotRegion, spill: SpillMode) -> Self {
        Self {
            raw,
            slots,
            spill,
            spill_buf: Vec::new(),
            claimed: None,
            keep: None,
            owns_count: false,
        }
    }

    /// Replaces the wait policy used by blocking receives; see
    /// [`WaitConfig`].
    pub fn set_wait_config(&mut self, cfg: WaitConfig) {
        self.raw.set_wait_config(cfg);
    }

    /// Capacity of the underlying cell array.
    pub fn capacity(&self) -> usize {
        self.raw.capacity()
    }

    /// Snapshot of this consumer's counters.
    pub fn stats(&self) -> ConsumerStats {
        self.raw.stats()
    }

    /// Holds the claim of an inline payload: a view of the rank's slot
    /// buffer, retired on release.
    fn hold_inline(&mut self, rank: i64, desc: PayloadDesc) {
        // Clamp: a corrupt descriptor must not widen the view past the
        // slot buffer.
        let len = (desc.len as usize).min(self.slots.slot_bytes());
        self.claimed = Some(ClaimedView::Inline { rank, len });
    }

    /// The cold half of
    /// [`try_claim_payload`](BytesConsumer::try_claim_payload), from a
    /// claimed descriptor that is not inline: takes a spill over, or
    /// retires the rank and claims the next one.
    #[cold]
    fn claim_other(&mut self, mut rank: i64, mut desc: PayloadDesc) -> Result<(), TryDequeueError> {
        loop {
            match desc.flags {
                DESC_INLINE => {
                    self.hold_inline(rank, desc);
                    return Ok(());
                }
                DESC_CHAIN_HEAD if self.spill == SpillMode::Chain => {
                    let len = self
                        .assemble_chain(rank, desc)
                        .map_err(|_| TryDequeueError::Disconnected)?;
                    self.claimed = Some(ClaimedView::Spill { len });
                    return Ok(());
                }
                DESC_HEAP if self.spill == SpillMode::Heap && desc.heap != 0 => {
                    // Take the allocation over; the cell can recycle now.
                    // SAFETY: heap spill means the producers share this
                    // address space and published ownership with the rank.
                    let buf = unsafe { heap_buf_from_desc(&desc) };
                    self.raw.retire(rank);
                    self.claimed = Some(ClaimedView::Heap { buf });
                    return Ok(());
                }
                // DESC_ABORT (abandoned MP reservation), a spill this queue
                // does not run, or unknown flags (hostile shm peer): retire
                // and move on — degradation, never UB.
                _ => self.raw.retire(rank),
            }
            (rank, desc) = self.raw.try_claim()?;
        }
    }

    /// Reassembles a chain spill into `spill_buf`, retiring every rank of
    /// the run as its segment is copied out.
    ///
    /// Every length is clamped against what the slot geometry can actually
    /// hold, so a corrupt (or hostile shm peer's) descriptor can at worst
    /// deliver wrong *bytes* — never out-of-bounds reads. Continuations are
    /// published by the same commit that published the head, in rank order,
    /// so the waits here are bounded by the producer's memcpy progress.
    fn assemble_chain(&mut self, head_rank: i64, desc: PayloadDesc) -> Result<usize, Disconnected> {
        let slot = self.slots.slot_bytes();
        let total = (desc.len as usize).min(slot * (desc.seg as usize + 1));
        self.spill_buf.clear();
        self.spill_buf.reserve(total);
        let first = total.min(slot);
        // SAFETY: the claim on head_rank gives exclusive read access to its
        // slot buffer; `first <= slot_bytes`.
        unsafe {
            self.spill_buf
                .extend_from_slice(core::slice::from_raw_parts(
                    self.slots.slot_ptr(head_rank),
                    first,
                ));
        }
        self.raw.retire(head_rank);
        let mut copied = first;
        // Built on the first continuation not yet published.
        let mut strat = None;
        for _ in 0..desc.seg {
            let (rank, cdesc) = loop {
                match self.raw.try_claim() {
                    Ok(claim) => break claim,
                    Err(TryDequeueError::Empty) => {
                        let cfg = self.raw.wait_config();
                        let strat = strat.get_or_insert_with(|| WaitStrategy::new(cfg));
                        let state = self.raw.queue().state();
                        strat.wait_round(
                            state.not_empty(),
                            state.wait_is_shared(),
                            None,
                            &mut || self.raw.wake_ready(),
                        );
                    }
                    Err(TryDequeueError::Disconnected) => {
                        // Producer died between head and continuations —
                        // only possible for an shm peer killed mid-commit
                        // (an in-process commit completes before the handle
                        // can drop). Surface a clean disconnect, not a
                        // partial payload.
                        self.spill_buf.clear();
                        return Err(Disconnected);
                    }
                }
            };
            debug_assert_eq!(cdesc.flags, DESC_CHAIN_CONT);
            let seg = (cdesc.len as usize).min(slot).min(total - copied);
            // SAFETY: as for the head segment; `seg <= slot_bytes`.
            unsafe {
                self.spill_buf
                    .extend_from_slice(core::slice::from_raw_parts(self.slots.slot_ptr(rank), seg));
            }
            self.raw.retire(rank);
            copied += seg;
        }
        Ok(copied)
    }
}

impl<E: ConsumerEngine<PayloadDesc>> BytesConsumer for Consumer<E> {
    fn has_claimed(&self) -> bool {
        self.claimed.is_some()
    }

    #[inline(always)]
    fn try_claim_payload(&mut self) -> Result<(), TryDequeueError> {
        if self.claimed.is_some() {
            return Ok(());
        }
        let (rank, desc) = self.raw.try_claim()?;
        if desc.flags != DESC_INLINE {
            return self.claim_other(rank, desc);
        }
        self.hold_inline(rank, desc);
        Ok(())
    }

    fn claimed_parts(&self) -> (*const u8, usize) {
        match self.claimed.as_ref().expect("no claimed payload") {
            ClaimedView::Inline { rank, len } => (self.slots.slot_ptr(*rank) as *const u8, *len),
            ClaimedView::Spill { len } => (self.spill_buf.as_ptr(), *len),
            ClaimedView::Heap { buf } => (buf.as_ptr(), buf.len()),
        }
    }

    #[inline]
    fn release_claimed(&mut self) {
        match self.claimed.take() {
            None => {}
            Some(ClaimedView::Inline { rank, .. }) => self.raw.retire(rank),
            // Chain ranks were retired during assembly; the heap buffer
            // frees on drop.
            Some(ClaimedView::Spill { .. }) | Some(ClaimedView::Heap { .. }) => {}
        }
    }

    fn empty_wait_round(
        &mut self,
        strat: &mut WaitStrategy,
        timeout: Option<Duration>,
    ) -> WaitRound {
        let state = self.raw.queue().state();
        strat.wait_round_for(
            state.not_empty(),
            state.wait_is_shared(),
            timeout,
            &mut || self.raw.wake_ready(),
        )
    }

    fn wait_config(&self) -> WaitConfig {
        self.raw.wait_config()
    }

    fn add_parks(&mut self, parks: u64) {
        self.raw.add_parks(parks);
    }
}

impl<const MP: bool> Clone for McConsumer<MP> {
    /// Adds a consumer. Heap-channel handles only.
    fn clone(&self) -> Self {
        let keep = self
            .keep
            .clone()
            .expect("raw-region bytes consumers are cloned by the region owner");
        keep.state.consumers().fetch_add(1, Ordering::Relaxed);
        // SAFETY: same pinned queue, matching MP; the count was just added.
        let mut raw = unsafe { RawConsumer::attach(keep.raw()) };
        raw.set_wait_config(self.raw.wait_config());
        Self {
            raw,
            slots: self.slots,
            spill: self.spill,
            spill_buf: Vec::new(),
            claimed: None,
            keep: Some(keep),
            owns_count: true,
        }
    }
}

impl<E: ConsumerEngine<PayloadDesc>> Drop for Consumer<E> {
    fn drop(&mut self) {
        self.release_claimed();
        // Re-circulate any published item among parked pending ranks.
        self.raw.recover_pending();
        if self.owns_count {
            let state = self.raw.queue().state();
            state.consumers().fetch_sub(1, Ordering::SeqCst);
            state.wake_all();
        }
    }
}

/// Builds the heap-backed single-producer bytes queue of one flavor: SPSC
/// (chain spill, private-head consumer) or SPMC (heap spill, shared head).
pub(crate) fn heap_sp<E: ConsumerEngine<PayloadDesc>>(
    capacity: usize,
    slot_bytes: usize,
    spill: SpillMode,
) -> Result<(SpProducer, Consumer<E>), CapacityError> {
    let shared = BytesShared::new(capacity, slot_bytes)?;
    let tx = SpProducer {
        // SAFETY: the Arc in each handle pins the region; exactly one
        // producer is created, with the count pre-set to 1.
        raw: unsafe { RawProducer::attach(shared.raw()) },
        slots: shared.region(),
        spill,
        chain_buf: Vec::new(),
        pending: None,
        _keep: Some(Arc::clone(&shared)),
        owns_count: true,
    };
    Ok((tx, heap_consumer(shared, spill)))
}

/// Builds the heap-backed MPMC bytes queue (heap spill).
pub(crate) fn heap_mpmc(
    capacity: usize,
    slot_bytes: usize,
) -> Result<(MpProducer, McConsumer<true>), CapacityError> {
    let shared = BytesShared::new(capacity, slot_bytes)?;
    let tx = MpProducer {
        queue: shared.raw(),
        stats: ProducerStats::default(),
        wait: WaitConfig::default(),
        slots: shared.region(),
        spill: SpillMode::Heap,
        pending: None,
        keep: Some(Arc::clone(&shared)),
        owns_count: true,
    };
    Ok((tx, heap_consumer(shared, SpillMode::Heap)))
}

/// The one consumer of a fresh heap bytes queue.
fn heap_consumer<E: ConsumerEngine<PayloadDesc>>(
    shared: Arc<BytesShared>,
    spill: SpillMode,
) -> Consumer<E> {
    // SAFETY: the Arc pins the region; each builder picks the engine its
    // producer variant admits, and the consumer count was pre-set to 1.
    let raw = unsafe { E::attach(shared.raw()) };
    Consumer {
        raw,
        slots: shared.region(),
        spill,
        spill_buf: Vec::new(),
        claimed: None,
        keep: Some(shared),
        owns_count: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect()
    }

    /// Publishes `descs` through a raw producer on a local queue of eight
    /// descriptor cells with 64-byte slot buffers, then hands `check` a
    /// consumer over engine `E` running under `spill`.
    fn with_forged<E: ConsumerEngine<PayloadDesc>>(
        spill: SpillMode,
        descs: &[PayloadDesc],
        check: impl FnOnce(&mut Consumer<E>),
    ) {
        let state = QueueState::new(3, 1, 1);
        let cells: Vec<DescCell> = (0..8).map(|_| DescCell::empty()).collect();
        let mut lines: Vec<SlotLine> = (0..8).map(|_| SlotLine([0; 64])).collect();
        // SAFETY: state, cells and slot lines outlive both handles; one
        // producer, one consumer.
        unsafe {
            let q = RawQueue::from_raw(&state, cells.as_ptr());
            let mut tx = RawProducer::attach(q);
            for &desc in descs {
                tx.enqueue(desc);
            }
            let slots = SlotRegion::from_raw(lines.as_mut_ptr() as *mut u8, 64, 3);
            check(&mut Consumer::<E>::from_raw_parts(
                E::attach(q),
                slots,
                spill,
            ));
        }
    }

    #[test]
    fn shared_head_retires_a_forged_chain_head() {
        // A chain head claiming one continuation, then a 5-byte payload:
        // reassembling would swallow the payload as the chain's tail.
        let head = PayloadDesc {
            len: 128,
            flags: DESC_CHAIN_HEAD,
            seg: 1,
            heap: 0,
        };
        for spill in [SpillMode::Heap, SpillMode::Refuse] {
            with_forged::<RawConsumer<PayloadDesc, DescCell, LinearMap, false>>(
                spill,
                &[head, PayloadDesc::inline(5)],
                |rx| {
                    assert_eq!(rx.try_recv().unwrap().len(), 5);
                    assert!(matches!(rx.try_recv(), Err(TryDequeueError::Empty)));
                    assert_eq!(rx.stats().dequeued, 2);
                },
            );
        }
    }

    #[test]
    fn forged_heap_descriptor_is_retired_unread() {
        // Taking this "allocation" over would free a garbage pointer.
        let heap = PayloadDesc {
            len: 1 << 20,
            flags: DESC_HEAP,
            seg: 0,
            heap: 0xdead_bee0,
        };
        let descs = [heap, PayloadDesc::inline(3)];
        with_forged::<RawSpscConsumer<PayloadDesc>>(SpillMode::Chain, &descs, |rx| {
            assert_eq!(rx.try_recv().unwrap().len(), 3);
        });
        with_forged::<RawConsumer<PayloadDesc, DescCell, LinearMap, false>>(
            SpillMode::Refuse,
            &descs,
            |rx| assert_eq!(rx.try_recv().unwrap().len(), 3),
        );
    }

    #[test]
    fn spsc_inline_round_trip() {
        let (mut tx, mut rx) = crate::spsc::bytes_channel(8, 64).unwrap();
        assert_eq!(tx.slot_bytes(), 64);
        let msg = pattern(48, 7);
        let mut slot = tx.try_reserve(48).unwrap();
        slot.copy_from_slice(&msg);
        slot.commit();
        let got = rx.try_recv().unwrap();
        assert_eq!(&*got, &msg[..]);
        drop(got);
        assert!(matches!(rx.try_recv(), Err(TryDequeueError::Empty)));
    }

    #[test]
    fn spsc_zero_len_payload() {
        let (mut tx, mut rx) = crate::spsc::bytes_channel(4, 64).unwrap();
        tx.send_bytes(&[]).unwrap();
        let got = rx.try_recv().unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn spsc_chain_spill_round_trip() {
        let (mut tx, mut rx) = crate::spsc::bytes_channel(16, 64).unwrap();
        // 3 cells: 64 + 64 + 32.
        let msg = pattern(160, 3);
        tx.send_bytes(&msg).unwrap();
        // A small one behind it: ordering preserved across the chain.
        tx.send_bytes(b"tail").unwrap();
        let got = rx.try_recv().unwrap();
        assert_eq!(&*got, &msg[..]);
        drop(got);
        let got = rx.try_recv().unwrap();
        assert_eq!(&*got, b"tail");
    }

    #[test]
    fn spsc_chain_too_large_is_permanent() {
        let (mut tx, _rx) = crate::spsc::bytes_channel(8, 64).unwrap();
        // capacity 8 → max 4 chain cells → 256 bytes.
        assert_eq!(tx.max_payload(), 256);
        match tx.try_reserve(257) {
            Err(TryReserveError::TooLarge { len, max }) => {
                assert_eq!((len, max), (257, 256));
            }
            Err(e) => panic!("expected TooLarge, got {e:?}"),
            Ok(_) => panic!("expected TooLarge, got a reservation"),
        }
        assert!(matches!(
            tx.reserve(257),
            Err(ReserveError::TooLarge { len: 257, max: 256 })
        ));
    }

    #[test]
    fn abort_on_drop_publishes_nothing_spsc() {
        let (mut tx, mut rx) = crate::spsc::bytes_channel(8, 64).unwrap();
        {
            let mut slot = tx.try_reserve(10).unwrap();
            slot[..10].copy_from_slice(b"discard me");
            // dropped uncommitted
        }
        assert!(!tx.has_pending());
        assert!(matches!(rx.try_recv(), Err(TryDequeueError::Empty)));
        // The rank was not consumed: a full capacity of sends still fits.
        for i in 0..8u8 {
            tx.send_bytes(&[i]).unwrap();
        }
        for i in 0..8u8 {
            assert_eq!(&*rx.try_recv().unwrap(), &[i]);
        }
    }

    #[test]
    fn payload_ref_holds_cell_busy_until_drop() {
        let (mut tx, mut rx) = crate::spsc::bytes_channel(2, 64).unwrap();
        tx.send_bytes(b"a").unwrap();
        tx.send_bytes(b"b").unwrap();
        let held = rx.try_recv().unwrap();
        assert_eq!(&*held, b"a");
        // Queue of 2 with one rank still claimed: rank 2 maps onto the
        // claimed cell, so the reservation must fail rather than overwrite.
        assert!(matches!(tx.try_reserve(1), Err(TryReserveError::Full)));
        drop(held);
        // Retired: the producer can use the recycled cell now.
        tx.send_bytes(b"c").unwrap();
        assert_eq!(&*rx.try_recv().unwrap(), b"b");
        assert_eq!(&*rx.try_recv().unwrap(), b"c");
    }

    #[test]
    fn spmc_heap_spill_round_trip() {
        let (mut tx, mut rx) = crate::spmc::bytes_channel(8, 64).unwrap();
        assert_eq!(tx.max_payload(), usize::MAX);
        let big = pattern(1000, 9);
        tx.send_bytes(&big).unwrap();
        let got = rx.try_recv().unwrap();
        assert_eq!(&*got, &big[..]);
    }

    #[test]
    fn spmc_clone_shares_stream() {
        let (mut tx, rx) = crate::spmc::bytes_channel(64, 64).unwrap();
        let mut rx2 = rx.clone();
        let mut rx1 = rx;
        for i in 0..10u8 {
            tx.send_bytes(&[i]).unwrap();
        }
        let mut seen = Vec::new();
        loop {
            match rx1.try_recv() {
                Ok(p) => seen.push(p[0]),
                Err(_) => break,
            }
            match rx2.try_recv() {
                Ok(p) => seen.push(p[0]),
                Err(_) => break,
            }
        }
        while let Ok(p) = rx1.try_recv() {
            seen.push(p[0]);
        }
        while let Ok(p) = rx2.try_recv() {
            seen.push(p[0]);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn mpmc_abort_unblocks_consumers() {
        let (tx, mut rx) = heap_mpmc(8, 64).unwrap();
        let mut tx2 = tx.clone();
        let mut tx1 = tx;
        // tx1 claims rank 0 and abandons it; tx2 publishes rank 1. The
        // consumer must skip the aborted rank and deliver tx2's payload.
        let slot = tx1.try_reserve(4).unwrap();
        drop(slot); // abort → DESC_ABORT published at rank 0
        tx2.send_bytes(b"live").unwrap();
        let got = rx.recv().unwrap();
        assert_eq!(&*got, b"live");
    }

    #[test]
    fn mpmc_heap_spill_and_disconnect() {
        let (mut tx, mut rx) = heap_mpmc(8, 64).unwrap();
        let big = pattern(300, 5);
        tx.send_bytes(&big).unwrap();
        drop(tx);
        let got = rx.recv().unwrap();
        assert_eq!(&*got, &big[..]);
        drop(got);
        assert_eq!(rx.recv().err(), Some(Disconnected));
    }

    #[test]
    fn unconsumed_heap_spills_freed_with_queue() {
        // Leak-checked under Miri/ASan: heap descriptors still in cells
        // when the last handle drops must be freed by BytesShared::drop.
        let (mut tx, rx) = crate::spmc::bytes_channel(8, 64).unwrap();
        tx.send_bytes(&pattern(500, 1)).unwrap();
        tx.send_bytes(&pattern(700, 2)).unwrap();
        drop(tx);
        drop(rx);
    }

    #[test]
    fn reserve_overwrite_aborts_previous() {
        let (mut tx, mut rx) = crate::spsc::bytes_channel(8, 64).unwrap();
        tx.try_reserve_pending(5).unwrap();
        assert!(tx.has_pending());
        // Reserving again abandons the first reservation.
        tx.send_bytes(b"second").unwrap();
        assert_eq!(&*rx.try_recv().unwrap(), b"second");
        assert!(matches!(rx.try_recv(), Err(TryDequeueError::Empty)));
    }

    #[test]
    // The blocking endpoints park on a futex, which Miri cannot run; the
    // CI Miri step covers the single-threaded slot-view tests above.
    #[cfg_attr(miri, ignore)]
    fn cross_thread_spsc_stream_mixed_sizes() {
        const ROUNDS: usize = 2_000;
        let (mut tx, mut rx) = crate::spsc::bytes_channel(64, 64).unwrap();
        let t = std::thread::spawn(move || {
            for i in 0..ROUNDS {
                let len = [1usize, 40, 64, 100, 200][i % 5];
                let msg = pattern(len, i as u8);
                tx.send_bytes(&msg).unwrap();
            }
        });
        for i in 0..ROUNDS {
            let len = [1usize, 40, 64, 100, 200][i % 5];
            let want = pattern(len, i as u8);
            let got = rx.recv().unwrap();
            assert_eq!(&*got, &want[..], "round {i}");
        }
        t.join().unwrap();
        assert_eq!(rx.recv().err(), Some(Disconnected));
    }

    #[test]
    // See `cross_thread_spsc_stream_mixed_sizes` on Miri and futexes.
    #[cfg_attr(miri, ignore)]
    fn cross_thread_mpmc_fan_in_out() {
        const PER_PRODUCER: usize = 500;
        let (tx, rx) = heap_mpmc(256, 64).unwrap();
        let producers: Vec<_> = (0..3u8)
            .map(|p| {
                let mut tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        let len = 1 + (i % 120);
                        let mut msg = pattern(len, p);
                        msg[0] = p;
                        tx.send_bytes(&msg).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let mut rx = rx.clone();
                std::thread::spawn(move || {
                    let mut n = 0usize;
                    while let Ok(p) = rx.recv() {
                        assert!(!p.is_empty());
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        drop(rx);
        for p in producers {
            p.join().unwrap();
        }
        let total: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, 3 * PER_PRODUCER);
    }
}
