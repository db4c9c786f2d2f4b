//! Shared-memory queue handles: format, attach, and dead-peer detection.
//!
//! The heavy lifting is `ffq`'s [`raw`](ffq::raw) layer — the types here
//! add what a *cross-process* queue needs on top of the protocol itself:
//!
//! * the format/attach handshake over the [`RegionHeader`]
//!   (see [`crate::header`]);
//! * configuration validation, so an attach with the wrong element type,
//!   cell layout, index map or variant is refused instead of corrupting
//!   memory;
//! * liveness: every handle registers its pid in a header slot, the
//!   producer heartbeats as it publishes, and blocked peers escalate a
//!   stalled heartbeat to a `kill(pid, 0)` probe. A peer that vanished
//!   without detaching **poisons** the queue, so nobody hangs on ranks that
//!   will never be published.
//!
//! Every lane — typed SPSC/SPMC, the zero-copy bytes lanes and broadcast —
//! is a `PaddedCell<E>` array under `LinearMap`, where `E` is the element
//! type (or [`PayloadDesc`] for the bytes lanes), so one `format`, one
//! `validate` and one `Attachment` serve them all. A handle is an `ffq`
//! engine plus its attachment, which owns the mapping, the peer slot, the
//! heartbeat or producer watch, poison, and detach-on-drop, and runs every
//! blocking operation in liveness-probed slices.
//!
//! Ranks and gap announcements need no fixup across address spaces: both
//! are plain integers relative to the queue's own counters, and the cell a
//! rank lives in is recomputed from `rank & (N-1)` on each side — the
//! region contains no pointer anywhere.

use core::fmt;
use core::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use ffq::broadcast::{RawBroadcastProducer, RawBroadcastSubscriber};
use ffq::bytes::{
    BytesConsumer as _, BytesProducer as _, McConsumer, PayloadRef, SlotRegion, SpProducer,
    SpillMode, SpscConsumer, WriteSlot,
};
use ffq::cell::{CellSlot, PaddedCell, PayloadDesc};
use ffq::error::{BroadcastTryRecvError, Full, TryDequeueError, TryReserveError};
use ffq::layout::{IndexMap, LinearMap};
use ffq::raw::{QueueState, RawConsumer, RawProducer, RawQueue, RawSpscConsumer, ShmSafe};
use ffq::stats::{ConsumerStats, ProducerStats, SubscriberStats};
use ffq_sync::sys;

use crate::error::{
    Poisoned, ShmBroadcastRecvError, ShmBroadcastTryRecvError, ShmDequeueError, ShmError,
    ShmReserveError, ShmTryDequeueError,
};
use crate::header::{
    cell_discriminant, map_discriminant, region_layout, variant_is_bytes, CellGeometry,
    QueueConfig, RegionHeader, RegionLayout, MAX_CONSUMERS, VARIANT_BROADCAST, VARIANT_SPMC,
    VARIANT_SPMC_BYTES, VARIANT_SPSC, VARIANT_SPSC_BYTES,
};
use crate::region::ShmRegion;

/// How long a blocked handle waits (spinning, then parked on the queue's
/// process-shared futex) between liveness probes. A blocked peer burns no
/// CPU inside a slice, and a dead or poisoning peer is noticed within one
/// slice — the bound on how long a parked process can hang on ranks that
/// will never be published.
const BLOCK_SLICE: Duration = Duration::from_millis(10);

/// How long an attach waits for the creator to finish formatting.
const ATTACH_TIMEOUT: Duration = Duration::from_secs(5);

/// The wait config every shm handle attaches with: adaptive, plus the
/// [`WaitConfig::max_park`](ffq::WaitConfig) watchdog armed at one
/// [`BLOCK_SLICE`]. In-process queues park unboundedly — the eventcount
/// makes that safe — but a cross-process peer can die between publishing
/// and notifying without running any poisoning code, so a shm park must
/// never outlive a liveness-probe slice even on a code path that forgot
/// to pass a deadline.
fn shm_wait_config() -> ffq::WaitConfig {
    ffq::WaitConfig::adaptive().with_max_park(BLOCK_SLICE)
}

fn process_id() -> i64 {
    // SAFETY: getpid is always safe.
    i64::from(unsafe { sys::getpid() })
}

/// `kill(pid, 0)` liveness probe: delivery permission errors still prove
/// the process exists; only `ESRCH` (or an impossible pid) means gone.
pub(crate) fn pid_alive(pid: i64) -> bool {
    let Ok(pid) = sys::pid_t::try_from(pid) else {
        return false;
    };
    // SAFETY: signal 0 performs error checking only; no signal is sent.
    if unsafe { sys::kill(pid, 0) } == 0 {
        return true;
    }
    std::io::Error::last_os_error().raw_os_error() == Some(sys::EPERM)
}

/// The region's header view. Callers must have bounds-checked the region
/// against `size_of::<RegionHeader>()` (every public path does).
pub(crate) fn header_of(region: &ShmRegion) -> &RegionHeader {
    debug_assert!(region.len() >= core::mem::size_of::<RegionHeader>());
    // SAFETY: the mapping is page-aligned (mmap), lives as long as the
    // borrow (the region handle keeps it mapped), and is at least
    // header-sized per the callers' validation. All header fields are
    // atomics, so concurrent access from other processes is defined.
    unsafe { &*(region.as_ptr() as *const RegionHeader) }
}

fn ensure_len(region: &ShmRegion, required: usize) -> Result<(), ShmError> {
    if region.len() < required {
        return Err(ShmError::RegionTooSmall {
            required,
            actual: region.len(),
        });
    }
    Ok(())
}

/// The configuration and layout of a `variant` lane of `1 << cap_log2`
/// `PaddedCell<E>` cells under `LinearMap`, the only cell layout and index
/// map a shared-memory lane uses. `slot_log2` sizes a bytes lane's slot
/// buffers and is ignored otherwise. `None` if the region size overflows.
fn lane<E: ShmSafe>(
    variant: u8,
    cap_log2: u32,
    slot_log2: u8,
) -> Option<(QueueConfig, RegionLayout)> {
    let slots = variant_is_bytes(variant).then_some(slot_log2);
    let layout = region_layout(CellGeometry::of::<PaddedCell<E>>(), cap_log2, slots)?;
    let cfg = QueueConfig {
        variant,
        cell_layout: cell_discriminant(<PaddedCell<E> as CellSlot<E>>::NAME)?,
        index_map: map_discriminant(LinearMap::NAME)?,
        cap_log2,
        slot_log2: slots.unwrap_or(0),
        elem_size: u32::try_from(core::mem::size_of::<E>()).ok()?,
        elem_align: core::mem::align_of::<E>() as u32,
        state_offset: layout.state_offset as u32,
        cells_offset: layout.cells_offset as u32,
        region_len: layout.total_len as u64,
    };
    Some((cfg, layout))
}

/// The lane a `format`/`required_size` call asks for: `capacity` (and, for
/// the bytes lanes, `slot_bytes`) normalized up to powers of two.
fn sized_lane<E: ShmSafe>(
    variant: u8,
    capacity: usize,
    slot_bytes: Option<usize>,
) -> Result<(QueueConfig, RegionLayout), ShmError> {
    let cap_log2 = ffq::normalize_capacity(capacity)?;
    let slot_log2 = match slot_bytes {
        Some(bytes) => ffq::normalize_slot_bytes(bytes)?.trailing_zeros() as u8,
        None => 0,
    };
    lane::<E>(variant, cap_log2, slot_log2).ok_or(ShmError::Capacity(
        ffq::CapacityError::TooLarge {
            requested: capacity,
        },
    ))
}

fn required_size<E: ShmSafe>(
    variant: u8,
    capacity: usize,
    slot_bytes: Option<usize>,
) -> Result<usize, ShmError> {
    sized_lane::<E>(variant, capacity, slot_bytes).map(|(_, layout)| layout.total_len)
}

/// Formats `region` as a `variant` lane: wins the lifecycle claim, writes
/// the state block and empty cells, publishes `READY`. A bytes lane's slot
/// buffers stay zeroed — a slot's bytes are defined only by the descriptor
/// published for its rank.
fn format<E: ShmSafe>(
    region: &ShmRegion,
    variant: u8,
    capacity: usize,
    slot_bytes: Option<usize>,
) -> Result<(), ShmError> {
    let (cfg, layout) = sized_lane::<E>(variant, capacity, slot_bytes)?;
    ensure_len(region, layout.total_len)?;
    let header = header_of(region);
    header.begin_init()?;
    // We won the RAW -> INITIALIZING race: the region is exclusively ours
    // until we publish READY.
    // SAFETY: offsets are in bounds (checked above) and correctly aligned
    // (region_layout); nobody else references these bytes yet.
    unsafe {
        let base = region.as_ptr();
        let state = base.add(layout.state_offset) as *mut QueueState;
        // producers starts at 1: the count is pre-reserved for the (sole)
        // producer so consumers that attach first do not misread an
        // untaken producer slot as a disconnect. Shared-wait mode makes
        // the eventcount futexes process-shared (no FUTEX_PRIVATE_FLAG),
        // so parks and wakes work across address spaces.
        state.write(QueueState::new(cfg.cap_log2, 1, 0).with_shared_wait());
        let cells = base.add(layout.cells_offset) as *mut PaddedCell<E>;
        for i in 0..(1usize << cfg.cap_log2) {
            cells.add(i).write(PaddedCell::empty());
        }
    }
    header.publish_ready(&cfg, process_id())
}

/// Reads one [`QueueConfig`] field as a [`ShmError::ConfigMismatch`]
/// reports it.
type ConfigField = fn(&QueueConfig) -> u64;

/// Waits for `READY`, then checks that the region holds exactly the
/// `variant` lane of `E` cells: every field of the header's config must
/// equal what this binary would have formatted at the region's own
/// capacity (and slot size), and the state block must carry the header's
/// capacity and the shared-wait flag `format` set.
fn validate<E: ShmSafe>(
    region: &ShmRegion,
    variant: u8,
) -> Result<(QueueConfig, RegionLayout), ShmError> {
    ensure_len(region, core::mem::size_of::<RegionHeader>())?;
    let header = header_of(region);
    header.wait_ready(ATTACH_TIMEOUT)?;
    let found = QueueConfig::decode(header.config_words())?;
    let (expected, layout) =
        lane::<E>(variant, found.cap_log2, found.slot_log2).ok_or(ShmError::BadConfig {
            field: "capacity exponent",
        })?;
    let fields: [(&str, ConfigField); 8] = [
        ("variant", |c| c.variant.into()),
        ("cell layout", |c| c.cell_layout.into()),
        ("index map", |c| c.index_map.into()),
        ("element size", |c| c.elem_size.into()),
        ("element alignment", |c| c.elem_align.into()),
        ("state offset", |c| c.state_offset.into()),
        ("cells offset", |c| c.cells_offset.into()),
        ("region length", |c| c.region_len),
    ];
    for (field, get) in fields {
        if get(&expected) != get(&found) {
            return Err(ShmError::ConfigMismatch {
                field,
                expected: get(&expected),
                found: get(&found),
            });
        }
    }
    ensure_len(region, layout.total_len)?;
    // SAFETY: the state block lies inside the region (checked just above)
    // at the 128-aligned offset `region_layout` computed; QueueState is
    // atomics plus plain words, and every bit pattern is a valid value.
    let state = unsafe { &*(region.as_ptr().add(layout.state_offset) as *const QueueState) };
    // Handles take their capacity from the state block, not the header,
    // so the two must agree or indexing runs past the region.
    if state.cap_log2() != expected.cap_log2 {
        return Err(ShmError::ConfigMismatch {
            field: "state capacity exponent",
            expected: expected.cap_log2.into(),
            found: state.cap_log2().into(),
        });
    }
    // A process-private wait flag would let this process's notifiers skip
    // the fence that pairs with a waiter in another process.
    if !state.wait_is_shared() {
        return Err(ShmError::ConfigMismatch {
            field: "shared wait",
            expected: 1,
            found: 0,
        });
    }
    Ok((expected, layout))
}

/// `true` while at least one registered consumer process is alive. No
/// consumer *yet* (all slots untouched) also counts as alive — a
/// producer may legitimately publish before anyone attaches.
fn consumers_look_dead(header: &RegionHeader) -> bool {
    let mut saw_attached = false;
    for i in 0..MAX_CONSUMERS {
        let pid = header.consumer_slot(i).pid();
        if pid > 0 {
            saw_attached = true;
            if pid_alive(pid) {
                return false;
            }
        }
    }
    saw_attached
}

/// One handle's claim on a validated region: the mapping, the peer slot,
/// liveness bookkeeping, poison, and detach on drop.
///
/// Every handle declares its attachment *after* its engine. Fields drop in
/// declaration order, so the engine — aborting a held reservation,
/// releasing a claimed payload — is gone before the slot is released, and
/// a successor claiming the slot can never overlap its accesses.
struct Attachment {
    region: ShmRegion,
    cfg: QueueConfig,
    layout: RegionLayout,
    /// The consumer slot this handle holds; `None` on the producer side.
    slot: Option<usize>,
    /// Producer side: its own heartbeat. Consumer side: the producer's
    /// heartbeat as of the last probe.
    heartbeat: u64,
}

impl Attachment {
    /// Validates `region` as a `variant` lane of `E` cells, refuses a
    /// poisoned queue, and claims the producer slot or a consumer slot
    /// (slot 0 only, on the single-consumer lanes). Returns the attachment
    /// and the queue view, valid while the attachment lives.
    fn new<E: ShmSafe>(
        region: ShmRegion,
        variant: u8,
        producer: bool,
    ) -> Result<(Self, RawQueue<E>), ShmError> {
        let (cfg, layout) = validate::<E>(&region, variant)?;
        let header = header_of(&region);
        if header.is_poisoned() {
            return Err(ShmError::Poisoned);
        }
        let pid = process_id();
        let slot = if producer {
            if !header.producer_slot().try_claim(pid) {
                return Err(ShmError::ProducerAttached);
            }
            None
        } else if matches!(variant, VARIANT_SPSC | VARIANT_SPSC_BYTES) {
            // The SPSC contract allows exactly one consumer: slot 0 or bust.
            if !header.consumer_slot(0).try_claim(pid) {
                return Err(ShmError::SlotsFull);
            }
            Some(0)
        } else {
            Some(header.claim_consumer_slot(pid).ok_or(ShmError::SlotsFull)?)
        };
        // SAFETY: layout validated against the READY region for `E` cells;
        // the attachment keeps the mapping alive for the view's users.
        let queue = unsafe {
            let base = region.as_ptr();
            RawQueue::from_raw(
                base.add(layout.state_offset) as *const QueueState,
                base.add(layout.cells_offset) as *const PaddedCell<E>,
            )
        };
        if producer {
            // Winning the slot makes us the sole producer; re-arm the count
            // a previous producer's clean detach may have dropped to zero.
            queue.state().producers().store(1, Ordering::Release);
        } else {
            queue.state().consumers().fetch_add(1, Ordering::AcqRel);
        }
        let heartbeat = header.producer_slot().heartbeat();
        let att = Self {
            region,
            cfg,
            layout,
            slot,
            heartbeat,
        };
        Ok((att, queue))
    }

    /// The slot-buffer view of a bytes lane.
    fn slots(&self) -> SlotRegion {
        debug_assert!(variant_is_bytes(self.cfg.variant));
        // SAFETY: the validated layout holds `1 << cap_log2` buffers of
        // `1 << slot_log2` bytes at `slots_offset`, mapped while `self`
        // lives; every peer recomputes the same view from the header.
        unsafe {
            SlotRegion::from_raw(
                self.region.as_ptr().add(self.layout.slots_offset),
                1usize << self.cfg.slot_log2,
                self.cfg.cap_log2,
            )
        }
    }

    fn header(&self) -> &RegionHeader {
        header_of(&self.region)
    }

    fn state(&self) -> &QueueState {
        // SAFETY: validated, initialized state block, mapped while `self`
        // lives; QueueState is atomics plus immutable words.
        unsafe { &*(self.region.as_ptr().add(self.layout.state_offset) as *const QueueState) }
    }

    fn capacity(&self) -> usize {
        1usize << self.cfg.cap_log2
    }

    /// Producer side: publishes progress, which proves liveness to the
    /// consumers' probes without a syscall.
    fn beat(&mut self) {
        self.heartbeat += 1;
        header_of(&self.region)
            .producer_slot()
            .store_heartbeat(self.heartbeat);
    }

    fn is_poisoned(&self) -> bool {
        self.header().is_poisoned()
    }

    /// Poisons the queue and kicks every parked peer so the poison is
    /// observed now, not at the end of a bounded park.
    fn poison(&self) {
        self.header().poison();
        self.state().wake_all();
    }

    /// A non-blocking miss as a handle reports it: published items drain
    /// first, and only then does an empty poisoned queue say `Poisoned`.
    fn miss(&self, e: TryDequeueError) -> ShmTryDequeueError {
        match e {
            TryDequeueError::Disconnected => ShmTryDequeueError::Disconnected,
            TryDequeueError::Empty if self.is_poisoned() => ShmTryDequeueError::Poisoned,
            TryDequeueError::Empty => ShmTryDequeueError::Empty,
        }
    }

    /// One liveness probe; returns `true` once the queue is poisoned, after
    /// waking every parked peer onto it. The producer side keeps its own
    /// heartbeat fresh and poisons when every registered consumer is dead.
    /// The consumer side watches the producer: an advancing heartbeat
    /// proves life for free, and a stalled one whose pid no longer exists
    /// means a crash — poisoned, so consumers blocked on ranks the dead
    /// producer claimed but never published wake with an error.
    fn probe(&mut self) -> bool {
        let header = header_of(&self.region);
        let producer = header.producer_slot();
        let dead = if self.slot.is_none() {
            self.heartbeat += 1;
            producer.store_heartbeat(self.heartbeat);
            consumers_look_dead(header)
        } else {
            let hb = producer.heartbeat();
            let progressed = hb != self.heartbeat;
            self.heartbeat = hb;
            // pid <= 0: not attached, or detached cleanly — the disconnect
            // path covers those.
            let pid = producer.pid();
            !(progressed || pid <= 0 || pid_alive(pid))
        };
        if !(header.is_poisoned() || dead) {
            return false;
        }
        header.poison();
        self.state().wake_all();
        true
    }

    /// Runs one blocking operation in [`BLOCK_SLICE`] slices until `step`
    /// returns `Some`. `step(slice)` is one attempt that may wait up to
    /// `slice`, reading the clock only once it has to wait, and returns
    /// `None` when the slice expires unresolved. Between slices the handle
    /// probes its peer *before* checking `deadline`, so even a zero timeout
    /// notices a dead peer.
    ///
    /// Errors: [`ShmTryDequeueError::Poisoned`] once the queue is poisoned,
    /// [`ShmTryDequeueError::Empty`] once `deadline` has passed.
    fn block<R>(
        &mut self,
        deadline: Option<Instant>,
        mut step: impl FnMut(Duration) -> Option<R>,
    ) -> Result<R, ShmTryDequeueError> {
        loop {
            let slice = deadline.map_or(BLOCK_SLICE, |d| {
                BLOCK_SLICE.min(d.saturating_duration_since(Instant::now()))
            });
            if let Some(r) = step(slice) {
                return Ok(r);
            }
            if self.probe() {
                return Err(ShmTryDequeueError::Poisoned);
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(ShmTryDequeueError::Empty);
            }
        }
    }
}

impl Drop for Attachment {
    fn drop(&mut self) {
        let (state, header) = (self.state(), self.header());
        match self.slot {
            // Clean detach: drop the producer count (consumers see
            // `Disconnected` once drained), wake parked consumers so they
            // observe it promptly, then vacate the slot so the count
            // zeroing is never mistaken for a crash.
            None => {
                state.producers().fetch_sub(1, Ordering::Release);
                state.wake_all();
                header.producer_slot().release();
            }
            Some(slot) => {
                state.consumers().fetch_sub(1, Ordering::AcqRel);
                header.consumer_slot(slot).release();
            }
        }
    }
}

/// A blocking call's error, from [`Attachment::block`]'s timed one:
/// without a deadline only a disconnect or poison can end the wait.
fn blocking(e: ShmTryDequeueError) -> ShmDequeueError {
    match e {
        ShmTryDequeueError::Disconnected => ShmDequeueError::Disconnected,
        _ => ShmDequeueError::Poisoned,
    }
}

/// The methods every handle answers through its attachment.
macro_rules! attachment_api {
    () => {
        /// Capacity of the shared cell array (for broadcast, the retention
        /// window a lagging subscriber can still recover from).
        pub fn capacity(&self) -> usize {
            self.att.capacity()
        }

        /// `true` once the queue is poisoned.
        pub fn is_poisoned(&self) -> bool {
            self.att.is_poisoned()
        }

        /// Explicitly poisons the queue: every blocked or future operation
        /// on any attached handle errors out. Irreversible.
        pub fn poison(&self) {
            self.att.poison();
        }
    };
}

/// The producer side of a shared-memory queue (SPSC and SPMC — the
/// single-producer engine is identical; the variant only gates who may
/// attach on the other side).
///
/// Created by [`spsc::create`]/[`spmc::create`] (format + attach) or
/// [`spsc::attach_producer`]/[`spmc::attach_producer`] on an existing
/// region. Dropping the handle detaches cleanly: consumers drain whatever
/// was published, then observe `Disconnected`.
pub struct ShmProducer<T: ShmSafe> {
    raw: RawProducer<T>,
    att: Attachment,
}

impl<T: ShmSafe> ShmProducer<T> {
    fn attach(region: ShmRegion, variant: u8) -> Result<Self, ShmError> {
        let (att, queue) = Attachment::new::<T>(region, variant, true)?;
        // SAFETY: unique producer (slot claim); the attachment keeps the
        // view mapped and outlives the engine.
        let mut raw = unsafe { RawProducer::attach(queue) };
        raw.set_wait_config(shm_wait_config());
        Ok(Self { raw, att })
    }

    /// Enqueues `value`, blocking while the queue is full. The wait is
    /// adaptive: a short spin, then bounded parks on the queue's
    /// process-shared not-full futex, so a blocked producer burns no CPU.
    ///
    /// Between park slices it keeps its heartbeat fresh and probes the
    /// consumer side: if every registered consumer is dead it poisons the
    /// queue and returns [`Poisoned`] instead of waiting on cells that
    /// will never be freed.
    pub fn enqueue(&mut self, value: T) -> Result<(), Poisoned> {
        let raw = &mut self.raw;
        let enqueued = self
            .att
            .block(None, |slice| raw.enqueue_timeout(value, slice).ok());
        enqueued.map_err(|_| Poisoned)?;
        self.att.beat();
        Ok(())
    }

    /// Replaces the wait policy used while blocked on a full queue; see
    /// [`ffq::WaitConfig`].
    pub fn set_wait_config(&mut self, cfg: ffq::WaitConfig) {
        self.raw.set_wait_config(cfg);
    }

    /// Attempts to enqueue without blocking; hands the value back if the
    /// queue looks full (see [`ffq::spmc::Producer::try_enqueue`] for the
    /// rank-consumption caveat). Check [`is_poisoned`](Self::is_poisoned)
    /// separately if fullness persists.
    pub fn try_enqueue(&mut self, value: T) -> Result<(), Full<T>> {
        self.raw.try_enqueue(value)?;
        self.att.beat();
        Ok(())
    }

    /// Enqueues every item of `iter` on the batched release-pass path;
    /// returns the count. Blocks while full (without a dead-peer probe —
    /// size the queue by the flow-control rule so it cannot fill, as
    /// [`ffq_enclave::queue_capacity`] does).
    ///
    /// [`ffq_enclave::queue_capacity`]:
    ///     https://docs.rs/ffq-enclave "ffq-enclave's sizing rule"
    pub fn enqueue_many<I: IntoIterator<Item = T>>(&mut self, iter: I) -> usize {
        let n = self.raw.enqueue_many(iter);
        if n > 0 {
            self.att.beat();
        }
        n
    }

    /// Approximate number of items currently enqueued.
    pub fn len_hint(&self) -> usize {
        self.raw.len_hint()
    }

    /// Number of live consumer handles (attached across all processes).
    pub fn consumers(&self) -> usize {
        self.raw.consumers()
    }

    /// Snapshot of this producer's counters.
    pub fn stats(&self) -> ProducerStats {
        self.raw.stats()
    }

    attachment_api!();
}

macro_rules! consumer_common_impl {
    () => {
        /// Attempts to dequeue one item without blocking.
        pub fn try_dequeue(&mut self) -> Result<T, ShmTryDequeueError> {
            self.raw.try_dequeue().map_err(|e| self.att.miss(e))
        }

        /// Dequeues one item, waiting — spinning, then parked on the
        /// queue's process-shared not-empty futex — while the queue is
        /// empty. A blocked consumer burns no CPU between wakes.
        ///
        /// Between park slices it probes the producer: a stalled
        /// heartbeat whose pid no longer exists poisons the queue and
        /// returns [`ShmDequeueError::Poisoned`] — bounded by the slice
        /// length, a crashed producer never leaves parked consumers
        /// hanging.
        pub fn dequeue(&mut self) -> Result<T, ShmDequeueError> {
            self.wait(None).map_err(blocking)
        }

        /// Dequeues one item, giving up with
        /// [`ShmTryDequeueError::Empty`] after `timeout`. Runs the same
        /// liveness probes as [`dequeue`](Self::dequeue), the first one
        /// before the deadline is checked.
        pub fn dequeue_timeout(&mut self, timeout: Duration) -> Result<T, ShmTryDequeueError> {
            self.wait(Some(Instant::now() + timeout))
        }

        fn wait(&mut self, deadline: Option<Instant>) -> Result<T, ShmTryDequeueError> {
            let raw = &mut self.raw;
            let got = self
                .att
                .block(deadline, |slice| match raw.dequeue_timeout(slice) {
                    Err(TryDequeueError::Empty) => None,
                    r => Some(r),
                })?;
            got.map_err(|_| ShmTryDequeueError::Disconnected)
        }

        /// Replaces the wait policy used inside blocked slices; see
        /// [`ffq::WaitConfig`].
        pub fn set_wait_config(&mut self, cfg: ffq::WaitConfig) {
            self.raw.set_wait_config(cfg);
        }

        /// Harvests up to `max` ready items into `buf` without blocking;
        /// returns the count.
        pub fn dequeue_batch(&mut self, buf: &mut Vec<T>, max: usize) -> usize {
            self.raw.dequeue_batch(buf, max)
        }

        /// Approximate number of items currently enqueued.
        pub fn len_hint(&self) -> usize {
            self.raw.len_hint()
        }

        /// Snapshot of this consumer's counters.
        pub fn stats(&self) -> ConsumerStats {
            self.raw.stats()
        }

        attachment_api!();
    };
}

/// A shared-head consumer on a shared-memory SPMC queue. Attach up to
/// [`MAX_CONSUMERS`](crate::header::MAX_CONSUMERS) of these, from any mix
/// of processes and threads.
pub struct ShmSpmcConsumer<T: ShmSafe> {
    raw: RawConsumer<T, PaddedCell<T>, LinearMap, false>,
    att: Attachment,
}

impl<T: ShmSafe> ShmSpmcConsumer<T> {
    consumer_common_impl!();

    /// Number of ranks this handle has claimed but not yet resolved.
    pub fn pending_ranks(&self) -> usize {
        self.raw.pending_ranks()
    }
}

impl<T: ShmSafe> Drop for ShmSpmcConsumer<T> {
    fn drop(&mut self) {
        // Return published-but-pending cells to circulation; the
        // attachment detaches afterwards.
        self.raw.recover_pending();
    }
}

/// The unique consumer of a shared-memory SPSC queue (private head — no
/// shared-counter RMW on dequeue).
pub struct ShmSpscConsumer<T: ShmSafe> {
    raw: RawSpscConsumer<T>,
    att: Attachment,
}

impl<T: ShmSafe> ShmSpscConsumer<T> {
    consumer_common_impl!();
}

/// `required_size`/`format`/`create` and the producer-side attach of one
/// typed lane (`$tx::attach` builds its producing handle).
macro_rules! variant_module {
    ($variant:expr, $tx:ident, $attach:ident) => {
        /// Bytes a region must have for a lane of at least `capacity`
        /// elements of `T` (after power-of-two rounding). Pass the result
        /// to [`ShmRegion::create`] /
        /// [`ShmRegion::create_memfd`](crate::region::ShmRegion::create_memfd).
        pub fn required_size<T: ShmSafe>(capacity: usize) -> Result<usize, ShmError> {
            super::required_size::<T>($variant, capacity, None)
        }

        /// Formats `region` as this lane *without* attaching — for an
        /// owner process that only brokers the region. Exactly one process
        /// may format a region, ever.
        pub fn format<T: ShmSafe>(region: &ShmRegion, capacity: usize) -> Result<(), ShmError> {
            super::format::<T>(region, $variant, capacity, None)
        }

        /// Formats `region` and attaches its producing side in one step —
        /// the usual creator path.
        pub fn create<T: ShmSafe>(region: ShmRegion, capacity: usize) -> Result<$tx<T>, ShmError> {
            format::<T>(&region, capacity)?;
            $attach(region)
        }

        /// Attaches the producing side of an already-formatted region
        /// (waits for `READY`). Fails with [`ShmError::ProducerAttached`]
        /// while another live handle holds it; succeeds again after a
        /// clean detach, resuming from the mirrored tail.
        pub fn $attach<T: ShmSafe>(region: ShmRegion) -> Result<$tx<T>, ShmError> {
            $tx::attach(region, $variant)
        }
    };
}

/// Single-producer/single-consumer queues in shared memory.
pub mod spsc {
    use super::*;

    /// The producer handle ([`ShmProducer`] — shared with [`spmc`](super::spmc)).
    pub use super::ShmProducer as Producer;
    /// The consumer handle.
    pub use super::ShmSpscConsumer as Consumer;

    variant_module!(VARIANT_SPSC, Producer, attach_producer);

    /// Attaches the unique consumer of an already-formatted SPSC region
    /// (waits for `READY`). A second live consumer is refused with
    /// [`ShmError::SlotsFull`].
    pub fn attach_consumer<T: ShmSafe>(region: ShmRegion) -> Result<Consumer<T>, ShmError> {
        let (att, queue) = Attachment::new::<T>(region, VARIANT_SPSC, false)?;
        // SAFETY: consumer uniqueness enforced by the exclusive claim on
        // header slot 0; the attachment outlives the engine.
        let mut raw = unsafe { RawSpscConsumer::attach(queue) };
        raw.set_wait_config(shm_wait_config());
        Ok(Consumer { raw, att })
    }
}

/// Single-producer/multiple-consumer queues in shared memory — the paper's
/// headline variant, across processes.
pub mod spmc {
    use super::*;

    /// The producer handle ([`ShmProducer`] — shared with [`spsc`](super::spsc)).
    pub use super::ShmProducer as Producer;
    /// The consumer handle.
    pub use super::ShmSpmcConsumer as Consumer;

    variant_module!(VARIANT_SPMC, Producer, attach_producer);

    /// Attaches a consumer to an already-formatted SPMC region (waits for
    /// `READY`). Up to [`MAX_CONSUMERS`](crate::header::MAX_CONSUMERS) may
    /// be attached at once, from any mix of processes and threads.
    pub fn attach_consumer<T: ShmSafe>(region: ShmRegion) -> Result<Consumer<T>, ShmError> {
        let (att, queue) = Attachment::new::<T>(region, VARIANT_SPMC, false)?;
        // SAFETY: shared-head consumers may attach in any number up to the
        // slot limit; the attachment outlives the engine.
        let mut raw = unsafe { RawConsumer::attach(queue) };
        raw.set_wait_config(shm_wait_config());
        Ok(Consumer { raw, att })
    }
}

/// The sending side of a shared-memory broadcast queue: wait-free
/// publication to every subscriber in every attached process.
///
/// Unlike [`ShmProducer`], this handle **never blocks and never probes its
/// peers**: broadcast has no backpressure (slow subscribers lose items and
/// observe `Lagged`), so a dead subscriber cannot stall the sender and the
/// sender runs no liveness machinery beyond keeping its own heartbeat
/// fresh for the subscribers' probes.
pub struct ShmBroadcastSender<T: ShmSafe> {
    raw: RawBroadcastProducer<T>,
    att: Attachment,
}

impl<T: ShmSafe> ShmBroadcastSender<T> {
    fn attach(region: ShmRegion, variant: u8) -> Result<Self, ShmError> {
        let (att, queue) = Attachment::new::<T>(region, variant, true)?;
        // SAFETY: unique producer (slot claim); the variant check
        // guarantees every other handle on this region is a broadcast
        // subscriber. The attachment outlives the engine.
        let raw = unsafe { RawBroadcastProducer::attach(queue) };
        Ok(Self { raw, att })
    }

    /// Publishes `value` to every subscriber. Wait-free; never blocks and
    /// never fails — subscribers that cannot keep up observe `Lagged`, and
    /// a poisoned queue merely means nobody is left to read (check
    /// [`is_poisoned`](Self::is_poisoned) if that matters to the caller).
    pub fn send(&mut self, value: T) {
        self.raw.send(value);
        self.att.beat();
    }

    /// Publishes every item of `iter`; returns the count.
    pub fn send_many<I: IntoIterator<Item = T>>(&mut self, iter: I) -> usize {
        let n = self.raw.send_many(iter);
        if n > 0 {
            self.att.beat();
        }
        n
    }

    /// Number of items published so far.
    pub fn published(&self) -> u64 {
        self.raw.tail_rank() as u64
    }

    /// Number of live subscriber handles (attached across all processes).
    pub fn subscribers(&self) -> usize {
        self.raw.subscribers()
    }

    attachment_api!();
}

/// A subscriber on a shared-memory broadcast queue. Attach up to
/// [`MAX_CONSUMERS`](crate::header::MAX_CONSUMERS), from any mix of
/// processes and threads; each observes the full stream independently and
/// writes nothing to shared memory.
pub struct ShmBroadcastSubscriber<T: ShmSafe> {
    raw: RawBroadcastSubscriber<T>,
    att: Attachment,
}

impl<T: ShmSafe> ShmBroadcastSubscriber<T> {
    /// Attempts to receive the next item without blocking.
    ///
    /// `Lagged(n)` means the sender lapped this subscriber and `n` items
    /// are gone; the cursor is already resynced to the oldest retained
    /// item, so the next call resumes there.
    pub fn try_recv(&mut self) -> Result<T, ShmBroadcastTryRecvError> {
        self.raw.try_recv().map_err(|e| match e {
            BroadcastTryRecvError::Lagged(n) => ShmBroadcastTryRecvError::Lagged(n),
            BroadcastTryRecvError::Closed => ShmBroadcastTryRecvError::Closed,
            BroadcastTryRecvError::Empty if self.att.is_poisoned() => {
                ShmBroadcastTryRecvError::Poisoned
            }
            BroadcastTryRecvError::Empty => ShmBroadcastTryRecvError::Empty,
        })
    }

    /// Receives the next item, waiting — spinning, then parked on the
    /// queue's process-shared not-empty futex — while nothing new is
    /// published.
    ///
    /// Between park slices it probes the sender exactly as
    /// [`ShmSpmcConsumer::dequeue`] probes its producer: a stalled
    /// heartbeat whose pid no longer exists poisons the queue and returns
    /// [`ShmBroadcastRecvError::Poisoned`] within one slice.
    pub fn recv(&mut self) -> Result<T, ShmBroadcastRecvError> {
        self.wait(None).map_err(|e| match e {
            ShmBroadcastTryRecvError::Lagged(n) => ShmBroadcastRecvError::Lagged(n),
            ShmBroadcastTryRecvError::Closed => ShmBroadcastRecvError::Closed,
            _ => ShmBroadcastRecvError::Poisoned,
        })
    }

    /// Receives the next item, giving up with
    /// [`ShmBroadcastTryRecvError::Empty`] after `timeout`. Runs the same
    /// liveness probes as [`recv`](Self::recv), the first one before the
    /// deadline is checked.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<T, ShmBroadcastTryRecvError> {
        self.wait(Some(Instant::now() + timeout))
    }

    fn wait(&mut self, deadline: Option<Instant>) -> Result<T, ShmBroadcastTryRecvError> {
        let raw = &mut self.raw;
        match self
            .att
            .block(deadline, |slice| match raw.recv_timeout(slice) {
                Err(BroadcastTryRecvError::Empty) => None,
                r => Some(r),
            }) {
            Ok(Ok(v)) => Ok(v),
            Ok(Err(BroadcastTryRecvError::Lagged(n))) => Err(ShmBroadcastTryRecvError::Lagged(n)),
            Ok(Err(_)) => Err(ShmBroadcastTryRecvError::Closed),
            Err(ShmTryDequeueError::Empty) => Err(ShmBroadcastTryRecvError::Empty),
            Err(_) => Err(ShmBroadcastTryRecvError::Poisoned),
        }
    }

    /// Replaces the wait policy used inside blocked slices; see
    /// [`ffq::WaitConfig`].
    pub fn set_wait_config(&mut self, cfg: ffq::WaitConfig) {
        self.raw.set_wait_config(cfg);
    }

    /// Rank of the next item this subscriber will observe.
    pub fn cursor_rank(&self) -> i64 {
        self.raw.cursor_rank()
    }

    /// How many published items this subscriber has not yet observed
    /// (approximate — the sender keeps moving).
    pub fn len_behind(&self) -> usize {
        self.raw.len_behind()
    }

    /// Snapshot of this subscriber's counters.
    pub fn stats(&self) -> SubscriberStats {
        self.raw.stats()
    }

    attachment_api!();
}

/// Broadcast (pub-sub) queues in shared memory: every subscriber in every
/// attached process observes the full stream; subscribers that cannot keep
/// up lose items — observed as `Lagged`, never silent — instead of
/// blocking the sender (see [`ffq::broadcast`] for the cell-level seqlock
/// protocol, which is identical in-heap and over a mapping). The memory
/// layout is the typed lanes' — only the variant discriminant, and the
/// protocol run over the cells, differ.
///
/// ```
/// use ffq_shm::{broadcast, ShmRegion};
///
/// let bytes = broadcast::required_size::<u64>(64).unwrap();
/// let region = ShmRegion::create_memfd(bytes).unwrap();
///
/// let mut tx = broadcast::create::<u64>(region.clone(), 64).unwrap();
/// // Two subscribers on independent mappings (what other processes see).
/// let mut a = broadcast::attach_subscriber::<u64>(region.remap().unwrap()).unwrap();
/// let mut b = broadcast::attach_subscriber::<u64>(region.remap().unwrap()).unwrap();
///
/// tx.send(7);
/// assert_eq!(a.recv(), Ok(7)); // both observe the same item
/// assert_eq!(b.recv(), Ok(7));
/// ```
pub mod broadcast {
    use super::*;

    /// The sending handle.
    pub use super::ShmBroadcastSender as Sender;
    /// The subscribing handle.
    pub use super::ShmBroadcastSubscriber as Subscriber;

    variant_module!(VARIANT_BROADCAST, Sender, attach_sender);

    /// Attaches a subscriber at the **live edge** of an already-formatted
    /// broadcast region: it observes only items published after this call
    /// (the usual pub-sub join semantics).
    pub fn attach_subscriber<T: ShmSafe>(region: ShmRegion) -> Result<Subscriber<T>, ShmError> {
        attach_subscriber_at(region, false)
    }

    /// Attaches a subscriber at the **start of the stream** (rank 0): the
    /// first receive reports ranks the sender has already overwritten as
    /// `Lagged`, then replays everything still retained. Useful for
    /// late-joining readers that want the backlog.
    pub fn attach_subscriber_from_origin<T: ShmSafe>(
        region: ShmRegion,
    ) -> Result<Subscriber<T>, ShmError> {
        attach_subscriber_at(region, true)
    }

    fn attach_subscriber_at<T: ShmSafe>(
        region: ShmRegion,
        from_origin: bool,
    ) -> Result<Subscriber<T>, ShmError> {
        let (att, queue) = Attachment::new::<T>(region, VARIANT_BROADCAST, false)?;
        // SAFETY: validated broadcast lane; subscribers may attach in any
        // number up to the slot limit. The attachment outlives the engine.
        let mut raw = unsafe {
            if from_origin {
                RawBroadcastSubscriber::attach_from_origin(queue)
            } else {
                RawBroadcastSubscriber::attach_latest(queue)
            }
        };
        raw.set_wait_config(shm_wait_config());
        Ok(Subscriber { raw, att })
    }
}

// ---------------------------------------------------------------------------
// Zero-copy bytes queues: the `ffq::bytes` engines over a shared region that
// appends a slot-buffer array after the descriptor cells. Descriptors move
// through the rank/gap protocol exactly like typed elements; payload bytes
// are written in place by the producer and read borrowed by consumers — no
// copy crosses the process boundary.
// ---------------------------------------------------------------------------

/// The producer side of a shared-memory zero-copy bytes queue (SPSC and
/// SPMC — the single-producer engine is identical; the variant gates the
/// consumer side and the oversize policy).
///
/// [`reserve`](Self::reserve) hands out a [`WriteSlot`] pointing straight
/// into the mapped slot buffer: fill it in place and
/// [`commit`](WriteSlot::commit) — consumers in other processes read the
/// same bytes borrowed, with no copy in between.
pub struct ShmBytesProducer {
    engine: SpProducer,
    att: Attachment,
}

impl ShmBytesProducer {
    fn attach(region: ShmRegion, variant: u8) -> Result<Self, ShmError> {
        let (att, queue) = Attachment::new::<PayloadDesc>(region, variant, true)?;
        // The spill policy a shared-memory lane runs: *chained* across
        // cells for SPSC (the continuation bytes live in slot buffers, so
        // reassembly works cross-process) and *refusal* for SPMC — a chain
        // cannot be split across shared-head consumers, heap spill pointers
        // cannot cross address spaces, and truncation is never an option.
        let spill = if variant == VARIANT_SPSC_BYTES {
            SpillMode::Chain
        } else {
            SpillMode::Refuse
        };
        // SAFETY: unique producer (slot claim); the slot view is the one
        // every peer recomputes from the same header, and heap spill is
        // never selected. The attachment outlives the engine.
        let mut engine =
            unsafe { SpProducer::from_raw_parts(RawProducer::attach(queue), att.slots(), spill) };
        engine.set_wait_config(shm_wait_config());
        Ok(Self { engine, att })
    }

    /// Reserves an in-place writable buffer for a `len`-byte payload,
    /// blocking (bounded parks + liveness probes, like
    /// [`ShmProducer::enqueue`]) while the queue is full.
    ///
    /// Fails only permanently: a payload no reservation on this queue can
    /// satisfy ([`ShmReserveError::TooLarge`] — never truncation), or a
    /// poisoned queue. Dropping the returned [`WriteSlot`] uncommitted
    /// aborts the reservation; consumers never observe it.
    pub fn reserve(&mut self, len: usize) -> Result<WriteSlot<'_, SpProducer>, ShmReserveError> {
        let engine = &mut self.engine;
        let reserved = self.att.block(None, |slice| {
            match engine.reserve_pending(len, Some(slice)) {
                Ok(()) => Some(Ok(())),
                Err(TryReserveError::TooLarge { len, max }) => {
                    Some(Err(ShmReserveError::TooLarge { len, max }))
                }
                Err(TryReserveError::Full) => None,
            }
        });
        reserved.unwrap_or(Err(ShmReserveError::Poisoned))?;
        self.att.beat();
        Ok(self
            .engine
            .pending_slot()
            .expect("reservation just succeeded"))
    }

    /// Reserves without blocking; [`TryReserveError::Full`] if no cell (or
    /// chain run) is free right now. Check
    /// [`is_poisoned`](Self::is_poisoned) separately if fullness persists.
    pub fn try_reserve(
        &mut self,
        len: usize,
    ) -> Result<WriteSlot<'_, SpProducer>, TryReserveError> {
        self.engine.try_reserve_pending(len)?;
        self.att.beat();
        Ok(self
            .engine
            .pending_slot()
            .expect("reservation just succeeded"))
    }

    /// Copy-in convenience: `reserve(payload.len())`, copy, commit.
    pub fn send_bytes(&mut self, payload: &[u8]) -> Result<(), ShmReserveError> {
        let mut slot = self.reserve(payload.len())?;
        slot.copy_from_slice(payload);
        slot.commit();
        Ok(())
    }

    /// The largest payload a reserve on this queue can ever satisfy
    /// (`capacity/2 × slot_bytes` for the chained SPSC flavor, one slot
    /// buffer for SPMC).
    pub fn max_payload(&self) -> usize {
        self.engine.max_payload()
    }

    /// Bytes per slot buffer — the largest payload that avoids the
    /// chain-spill path.
    pub fn slot_bytes(&self) -> usize {
        self.engine.slot_bytes()
    }

    /// Replaces the wait policy used while blocked on a full queue; see
    /// [`ffq::WaitConfig`].
    pub fn set_wait_config(&mut self, cfg: ffq::WaitConfig) {
        self.engine.set_wait_config(cfg);
    }

    /// Snapshot of this producer's counters.
    pub fn stats(&self) -> ProducerStats {
        self.engine.stats()
    }

    attachment_api!();
}

macro_rules! bytes_consumer_common_impl {
    ($engine_ty:ty) => {
        /// Claims the next payload without blocking. The returned
        /// [`PayloadRef`] borrows the bytes in the mapped slot region;
        /// the cell recycles when it drops.
        pub fn try_recv(&mut self) -> Result<PayloadRef<'_, $engine_ty>, ShmTryDequeueError> {
            self.engine.try_recv().map_err(|e| self.att.miss(e))
        }

        /// Claims the next payload, waiting — bounded parks on the
        /// process-shared futex, with the same producer liveness probes as
        /// the typed [`dequeue`](ShmSpscConsumer::dequeue) — while the
        /// queue is empty.
        pub fn recv(&mut self) -> Result<PayloadRef<'_, $engine_ty>, ShmDequeueError> {
            self.claim(None).map_err(blocking)?;
            Ok(self.claimed())
        }

        /// Claims the next payload, giving up with
        /// [`ShmTryDequeueError::Empty`] after `timeout`. Runs the same
        /// liveness probes as [`recv`](Self::recv), the first one before
        /// the deadline is checked.
        pub fn recv_timeout(
            &mut self,
            timeout: Duration,
        ) -> Result<PayloadRef<'_, $engine_ty>, ShmTryDequeueError> {
            self.claim(Some(Instant::now() + timeout))?;
            Ok(self.claimed())
        }

        fn claim(&mut self, deadline: Option<Instant>) -> Result<(), ShmTryDequeueError> {
            let engine = &mut self.engine;
            let claimed =
                self.att
                    .block(deadline, |slice| match engine.claim_payload(Some(slice)) {
                        Err(TryDequeueError::Empty) => None,
                        r => Some(r),
                    })?;
            claimed.map_err(|_| ShmTryDequeueError::Disconnected)
        }

        /// The guard over the payload [`claim`](Self::claim) holds.
        fn claimed(&mut self) -> PayloadRef<'_, $engine_ty> {
            // Infallible: the claim is already held (claiming is
            // idempotent), so this only builds the guard.
            self.engine.try_recv().expect("payload already claimed")
        }

        /// Replaces the wait policy used inside blocked slices; see
        /// [`ffq::WaitConfig`].
        pub fn set_wait_config(&mut self, cfg: ffq::WaitConfig) {
            self.engine.set_wait_config(cfg);
        }

        /// Snapshot of this consumer's counters.
        pub fn stats(&self) -> ConsumerStats {
            self.engine.stats()
        }

        attachment_api!();
    };
}

/// The unique consumer of a shared-memory SPSC bytes queue: payloads —
/// including chain-spilled ones larger than a slot buffer — come out
/// borrowed from (or reassembled out of) the mapped slot region.
pub struct ShmBytesSpscConsumer {
    engine: SpscConsumer,
    att: Attachment,
}

impl ShmBytesSpscConsumer {
    bytes_consumer_common_impl!(SpscConsumer);
}

/// A shared-head consumer on a shared-memory SPMC bytes queue. Attach up
/// to [`MAX_CONSUMERS`](crate::header::MAX_CONSUMERS), from any mix of
/// processes and threads; each payload is delivered to exactly one.
pub struct ShmBytesSpmcConsumer {
    engine: McConsumer<false>,
    att: Attachment,
}

impl ShmBytesSpmcConsumer {
    bytes_consumer_common_impl!(McConsumer<false>);
}

macro_rules! bytes_variant_module {
    ($variant:expr) => {
        /// Bytes a region must have for a queue of at least `capacity`
        /// descriptor cells with `slot_bytes`-byte payload buffers (both
        /// normalized up to powers of two). Pass the result to
        /// [`ShmRegion::create`] /
        /// [`ShmRegion::create_memfd`](crate::region::ShmRegion::create_memfd).
        pub fn required_size(capacity: usize, slot_bytes: usize) -> Result<usize, ShmError> {
            super::required_size::<PayloadDesc>($variant, capacity, Some(slot_bytes))
        }

        /// Formats `region` as this variant's bytes queue *without*
        /// attaching. Exactly one process may format a region, ever.
        pub fn format(
            region: &ShmRegion,
            capacity: usize,
            slot_bytes: usize,
        ) -> Result<(), ShmError> {
            super::format::<PayloadDesc>(region, $variant, capacity, Some(slot_bytes))
        }

        /// Formats `region` and attaches as its producer in one step — the
        /// usual creator path.
        pub fn create(
            region: ShmRegion,
            capacity: usize,
            slot_bytes: usize,
        ) -> Result<Producer, ShmError> {
            format(&region, capacity, slot_bytes)?;
            attach_producer(region)
        }

        /// Attaches as the producer of an already-formatted bytes region
        /// (waits for `READY`). Exclusive while a live handle holds the
        /// producer side; reattachable after a clean detach.
        pub fn attach_producer(region: ShmRegion) -> Result<Producer, ShmError> {
            Producer::attach(region, $variant)
        }
    };
}

/// Single-producer/single-consumer zero-copy bytes queues in shared
/// memory. Payloads larger than a slot buffer spill by *chaining* across
/// cells — the continuation bytes live in slot buffers too, so reassembly
/// works across address spaces (up to `capacity/2 × slot_bytes`).
///
/// **Crash caveat:** a producer killed in the few instructions between
/// publishing a chain head and its continuation cells leaves the consumer
/// reassembling a run whose tail never arrives; the reassembly loop has no
/// liveness probe, so that consumer spins until its process is restarted
/// (single-cell payloads are immune — publish is one atomic store). Size
/// `slot_bytes` for the common payload and treat chains as a convenience
/// for rare outliers.
pub mod spsc_bytes {
    use super::*;

    /// The producer handle ([`ShmBytesProducer`] — shared with
    /// [`spmc_bytes`](super::spmc_bytes)).
    pub use super::ShmBytesProducer as Producer;
    /// The consumer handle.
    pub use super::ShmBytesSpscConsumer as Consumer;

    bytes_variant_module!(VARIANT_SPSC_BYTES);

    /// Attaches the unique consumer of an already-formatted SPSC bytes
    /// region (waits for `READY`). A second live consumer is refused with
    /// [`ShmError::SlotsFull`].
    pub fn attach_consumer(region: ShmRegion) -> Result<Consumer, ShmError> {
        let (att, queue) = Attachment::new::<PayloadDesc>(region, VARIANT_SPSC_BYTES, false)?;
        // SAFETY: consumer uniqueness enforced by the exclusive claim on
        // header slot 0; Chain matches the producer's mode for this lane
        // and needs no shared address space. The attachment outlives the
        // engine.
        let mut engine = unsafe {
            SpscConsumer::from_raw_parts(
                RawSpscConsumer::attach(queue),
                att.slots(),
                SpillMode::Chain,
            )
        };
        engine.set_wait_config(shm_wait_config());
        Ok(Consumer { engine, att })
    }
}

/// Single-producer/multiple-consumer zero-copy bytes queues in shared
/// memory. Payloads are bounded by one slot buffer: oversize reserves are
/// *refused* ([`ShmReserveError::TooLarge`]) — chains cannot be handed to
/// a shared-head consumer and heap spill cannot cross address spaces, and
/// silent truncation is never an option.
pub mod spmc_bytes {
    use super::*;

    /// The producer handle ([`ShmBytesProducer`] — shared with
    /// [`spsc_bytes`](super::spsc_bytes)).
    pub use super::ShmBytesProducer as Producer;
    /// The consumer handle.
    pub use super::ShmBytesSpmcConsumer as Consumer;

    bytes_variant_module!(VARIANT_SPMC_BYTES);

    /// Attaches a consumer to an already-formatted SPMC bytes region
    /// (waits for `READY`). Up to
    /// [`MAX_CONSUMERS`](crate::header::MAX_CONSUMERS) may be attached at
    /// once, from any mix of processes and threads.
    pub fn attach_consumer(region: ShmRegion) -> Result<Consumer, ShmError> {
        let (att, queue) = Attachment::new::<PayloadDesc>(region, VARIANT_SPMC_BYTES, false)?;
        // SAFETY: shared-head consumers may attach in any number up to the
        // slot limit; Refuse matches the producer's mode for this lane.
        // The attachment outlives the engine.
        let mut engine = unsafe {
            McConsumer::from_raw_parts(RawConsumer::attach(queue), att.slots(), SpillMode::Refuse)
        };
        engine.set_wait_config(shm_wait_config());
        Ok(Consumer { engine, att })
    }
}

/// One `Debug` for every handle: what its attachment knows.
macro_rules! debug_via_attachment {
    ($($handle:ident $(<$t:ident>)?),* $(,)?) => {$(
        impl$(<$t: ShmSafe>)? fmt::Debug for $handle$(<$t>)? {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_struct(stringify!($handle))
                    .field("variant", &self.att.cfg.variant)
                    .field("capacity", &self.att.capacity())
                    .field("slot", &self.att.slot)
                    .field("heartbeat", &self.att.heartbeat)
                    .finish_non_exhaustive()
            }
        }
    )*};
}

debug_via_attachment!(
    ShmProducer<T>,
    ShmSpscConsumer<T>,
    ShmSpmcConsumer<T>,
    ShmBroadcastSender<T>,
    ShmBroadcastSubscriber<T>,
    ShmBytesProducer,
    ShmBytesSpscConsumer,
    ShmBytesSpmcConsumer,
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::MAX_CONSUMERS;
    use std::sync::atomic::{AtomicU64, Ordering as AtOrdering};
    use std::sync::Arc;
    use std::thread;

    fn memfd_for_spsc(capacity: usize) -> ShmRegion {
        ShmRegion::create_memfd(spsc::required_size::<u64>(capacity).unwrap()).unwrap()
    }

    /// One lane's handles behind a common shape, so each lifecycle test
    /// runs on every lane instead of being copied per lane. Items are
    /// `u64`s (little-endian bytes on the bytes lanes).
    trait Lane: 'static {
        type Tx: fmt::Debug + Send + 'static;
        type Rx: fmt::Debug + Send + 'static;
        /// `true` for the lanes that allow exactly one consumer.
        const SINGLE_CONSUMER: bool;
        fn required_size() -> usize;
        fn format(region: &ShmRegion);
        fn attach_producer(region: ShmRegion) -> Result<Self::Tx, ShmError>;
        /// Attaches a consumer that sees everything already published.
        fn attach_consumer(region: ShmRegion) -> Result<Self::Rx, ShmError>;
        fn send(tx: &mut Self::Tx, v: u64);
        fn poison(tx: &Self::Tx);
        /// `Closed` on broadcast reads as `Disconnected`.
        fn recv(rx: &mut Self::Rx) -> Result<u64, ShmDequeueError>;
        fn recv_timeout(rx: &mut Self::Rx, timeout: Duration) -> Result<u64, ShmTryDequeueError>;

        fn region() -> ShmRegion {
            ShmRegion::create_memfd(Self::required_size()).unwrap()
        }
    }

    struct Spsc;
    struct Spmc;
    struct Broadcast;
    struct SpscBytes;
    struct SpmcBytes;

    macro_rules! typed_lane {
        ($lane:ident, $module:ident, $single:expr) => {
            impl Lane for $lane {
                type Tx = $module::Producer<u64>;
                type Rx = $module::Consumer<u64>;
                const SINGLE_CONSUMER: bool = $single;
                fn required_size() -> usize {
                    $module::required_size::<u64>(64).unwrap()
                }
                fn format(region: &ShmRegion) {
                    $module::format::<u64>(region, 64).unwrap();
                }
                fn attach_producer(region: ShmRegion) -> Result<Self::Tx, ShmError> {
                    $module::attach_producer(region)
                }
                fn attach_consumer(region: ShmRegion) -> Result<Self::Rx, ShmError> {
                    $module::attach_consumer(region)
                }
                fn send(tx: &mut Self::Tx, v: u64) {
                    tx.enqueue(v).unwrap();
                }
                fn poison(tx: &Self::Tx) {
                    tx.poison();
                }
                fn recv(rx: &mut Self::Rx) -> Result<u64, ShmDequeueError> {
                    rx.dequeue()
                }
                fn recv_timeout(
                    rx: &mut Self::Rx,
                    timeout: Duration,
                ) -> Result<u64, ShmTryDequeueError> {
                    rx.dequeue_timeout(timeout)
                }
            }
        };
    }

    typed_lane!(Spsc, spsc, true);
    typed_lane!(Spmc, spmc, false);

    macro_rules! bytes_lane {
        ($lane:ident, $module:ident, $single:expr) => {
            impl Lane for $lane {
                type Tx = $module::Producer;
                type Rx = $module::Consumer;
                const SINGLE_CONSUMER: bool = $single;
                fn required_size() -> usize {
                    $module::required_size(64, 64).unwrap()
                }
                fn format(region: &ShmRegion) {
                    $module::format(region, 64, 64).unwrap();
                }
                fn attach_producer(region: ShmRegion) -> Result<Self::Tx, ShmError> {
                    $module::attach_producer(region)
                }
                fn attach_consumer(region: ShmRegion) -> Result<Self::Rx, ShmError> {
                    $module::attach_consumer(region)
                }
                fn send(tx: &mut Self::Tx, v: u64) {
                    tx.send_bytes(&v.to_le_bytes()).unwrap();
                }
                fn poison(tx: &Self::Tx) {
                    tx.poison();
                }
                fn recv(rx: &mut Self::Rx) -> Result<u64, ShmDequeueError> {
                    rx.recv()
                        .map(|p| u64::from_le_bytes((*p).try_into().unwrap()))
                }
                fn recv_timeout(
                    rx: &mut Self::Rx,
                    timeout: Duration,
                ) -> Result<u64, ShmTryDequeueError> {
                    rx.recv_timeout(timeout)
                        .map(|p| u64::from_le_bytes((*p).try_into().unwrap()))
                }
            }
        };
    }

    bytes_lane!(SpscBytes, spsc_bytes, true);
    bytes_lane!(SpmcBytes, spmc_bytes, false);

    impl Lane for Broadcast {
        type Tx = broadcast::Sender<u64>;
        type Rx = broadcast::Subscriber<u64>;
        const SINGLE_CONSUMER: bool = false;
        fn required_size() -> usize {
            broadcast::required_size::<u64>(64).unwrap()
        }
        fn format(region: &ShmRegion) {
            broadcast::format::<u64>(region, 64).unwrap();
        }
        fn attach_producer(region: ShmRegion) -> Result<Self::Tx, ShmError> {
            broadcast::attach_sender(region)
        }
        fn attach_consumer(region: ShmRegion) -> Result<Self::Rx, ShmError> {
            broadcast::attach_subscriber_from_origin(region)
        }
        fn send(tx: &mut Self::Tx, v: u64) {
            tx.send(v);
        }
        fn poison(tx: &Self::Tx) {
            tx.poison();
        }
        fn recv(rx: &mut Self::Rx) -> Result<u64, ShmDequeueError> {
            rx.recv().map_err(|e| match e {
                ShmBroadcastRecvError::Closed => ShmDequeueError::Disconnected,
                ShmBroadcastRecvError::Poisoned => ShmDequeueError::Poisoned,
                ShmBroadcastRecvError::Lagged(n) => panic!("lagged {n} on a 64-cell ring"),
            })
        }
        fn recv_timeout(rx: &mut Self::Rx, timeout: Duration) -> Result<u64, ShmTryDequeueError> {
            rx.recv_timeout(timeout).map_err(|e| match e {
                ShmBroadcastTryRecvError::Empty => ShmTryDequeueError::Empty,
                ShmBroadcastTryRecvError::Closed => ShmTryDequeueError::Disconnected,
                ShmBroadcastTryRecvError::Poisoned => ShmTryDequeueError::Poisoned,
                ShmBroadcastTryRecvError::Lagged(n) => panic!("lagged {n} on a 64-cell ring"),
            })
        }
    }

    /// Runs the generic test body `$f::<Lane>()` on every lane in turn.
    macro_rules! on_every_lane {
        ($f:ident) => {
            $f::<Spsc>();
            $f::<Spmc>();
            $f::<Broadcast>();
            $f::<SpscBytes>();
            $f::<SpmcBytes>();
        };
    }

    /// Registers a pid that cannot exist (beyond Linux's PID_MAX_LIMIT of
    /// 2^22) in the producer slot: a crashed producer, without forking.
    fn plant_dead_producer(region: &ShmRegion) {
        assert!(header_of(region).producer_slot().try_claim((1 << 22) + 1));
    }

    #[test]
    fn handles_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<spsc::Producer<u64>>();
        assert_send::<spsc::Consumer<u64>>();
        assert_send::<spmc::Consumer<u64>>();
        assert_send::<broadcast::Sender<u64>>();
        assert_send::<broadcast::Subscriber<u64>>();
        assert_send::<spsc_bytes::Producer>();
        assert_send::<spsc_bytes::Consumer>();
        assert_send::<spmc_bytes::Consumer>();
    }

    #[test]
    fn spsc_round_trip_through_a_second_mapping() {
        let region = memfd_for_spsc(256);
        let mut tx = spsc::create::<u64>(region.clone(), 256).unwrap();
        // The consumer maps the same bytes at a different address — the
        // in-process stand-in for a second process.
        let mut rx = spsc::attach_consumer::<u64>(region.remap().unwrap()).unwrap();
        assert_eq!(tx.capacity(), 256);
        assert_eq!(rx.capacity(), 256);

        let t = thread::spawn(move || {
            let mut next = 0u64;
            loop {
                match rx.dequeue() {
                    Ok(v) => {
                        assert_eq!(v, next, "SPSC must preserve FIFO order");
                        next += 1;
                    }
                    Err(ShmDequeueError::Disconnected) => return next,
                    Err(e) => panic!("unexpected {e:?}"),
                }
            }
        });
        for i in 0..50_000u64 {
            tx.enqueue(i).unwrap();
        }
        drop(tx);
        assert_eq!(t.join().unwrap(), 50_000);
    }

    #[test]
    fn spmc_fan_out_across_mappings() {
        const ITEMS: u64 = 100_000;
        let region = ShmRegion::create_memfd(spmc::required_size::<u64>(1024).unwrap()).unwrap();
        let mut tx = spmc::create::<u64>(region.clone(), 1024).unwrap();

        let sum = Arc::new(AtomicU64::new(0));
        let count = Arc::new(AtomicU64::new(0));
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let mut rx = spmc::attach_consumer::<u64>(region.remap().unwrap()).unwrap();
                let (sum, count) = (Arc::clone(&sum), Arc::clone(&count));
                thread::spawn(move || {
                    let mut last = None;
                    loop {
                        match rx.dequeue() {
                            Ok(v) => {
                                // Per-consumer FIFO: ranks a consumer
                                // receives are increasing.
                                if let Some(prev) = last {
                                    assert!(v > prev, "per-consumer order violated");
                                }
                                last = Some(v);
                                sum.fetch_add(v, AtOrdering::Relaxed);
                                count.fetch_add(1, AtOrdering::Relaxed);
                            }
                            Err(ShmDequeueError::Disconnected) => return,
                            Err(e) => panic!("unexpected {e:?}"),
                        }
                    }
                })
            })
            .collect();

        for i in 0..ITEMS {
            tx.enqueue(i).unwrap();
        }
        drop(tx);
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(count.load(AtOrdering::Relaxed), ITEMS);
        assert_eq!(sum.load(AtOrdering::Relaxed), ITEMS * (ITEMS - 1) / 2);
    }

    #[test]
    fn attach_validates_the_configuration() {
        let region = memfd_for_spsc(64);
        spsc::format::<u64>(&region, 64).unwrap();
        // Wrong variant. The refusal names both sides so the operator can
        // see what the attaching binary wanted vs what the region holds.
        assert_eq!(
            spmc::attach_consumer::<u64>(region.remap().unwrap()).unwrap_err(),
            ShmError::ConfigMismatch {
                field: "variant",
                expected: u64::from(VARIANT_SPMC),
                found: u64::from(VARIANT_SPSC),
            }
        );
        // Wrong element type (size differs).
        assert_eq!(
            spsc::attach_consumer::<u32>(region.remap().unwrap()).unwrap_err(),
            ShmError::ConfigMismatch {
                field: "element size",
                expected: 4,
                found: 8,
            }
        );
        // Every handle formats padded cells under the linear map, so a
        // compact-cell or rotated-index region can only come from another
        // binary: publish such headers by hand and check the refusals.
        let good = QueueConfig::decode(header_of(&region).config_words()).unwrap();
        let foreign = |cfg: QueueConfig| {
            let r = memfd_for_spsc(64);
            header_of(&r).begin_init().unwrap();
            header_of(&r).publish_ready(&cfg, process_id()).unwrap();
            spsc::attach_consumer::<u64>(r).unwrap_err()
        };
        assert_eq!(
            foreign(QueueConfig {
                cell_layout: 2,
                ..good
            }),
            ShmError::ConfigMismatch {
                field: "cell layout",
                expected: 1,
                found: 2,
            }
        );
        assert_eq!(
            foreign(QueueConfig {
                index_map: 2,
                ..good
            }),
            ShmError::ConfigMismatch {
                field: "index map",
                expected: 1,
                found: 2,
            }
        );
        // Matching attach still works after all those rejections.
        let rx = spsc::attach_consumer::<u64>(region.remap().unwrap()).unwrap();
        drop(rx);
    }

    #[test]
    fn attach_refuses_a_state_block_that_disagrees_with_the_header() {
        fn check<L: Lane>() {
            let region = L::region();
            L::format(&region);
            let cfg = QueueConfig::decode(header_of(&region).config_words()).unwrap();
            let state = region.as_ptr().wrapping_add(cfg.state_offset as usize);
            // SAFETY: the formatted state block, read while nothing writes it.
            let shared = unsafe { (*(state as *const QueueState)).wait_is_shared() };
            assert!(shared, "every lane formats process-shared wait cells");
            // `cap_log2` and `wait_shared`: the state block's last two
            // words, at these offsets in the v4 layout.
            for (offset, corrupt, field, expected) in [
                (520, 20u32, "state capacity exponent", 6),
                (524, 0, "shared wait", 1),
            ] {
                let word = state.wrapping_add(offset) as *mut u32;
                // SAFETY: in bounds of the state block; no handle is
                // attached while the word is swapped and restored.
                let good = unsafe { word.replace(corrupt) };
                let refusal = ShmError::ConfigMismatch {
                    field,
                    expected,
                    found: corrupt.into(),
                };
                assert_eq!(
                    L::attach_consumer(region.remap().unwrap()).unwrap_err(),
                    refusal
                );
                assert_eq!(
                    L::attach_producer(region.remap().unwrap()).unwrap_err(),
                    refusal
                );
                // SAFETY: as above.
                unsafe { word.write(good) };
            }
            let mut tx = L::attach_producer(region.remap().unwrap()).unwrap();
            let mut rx = L::attach_consumer(region).unwrap();
            L::send(&mut tx, 7);
            assert_eq!(L::recv(&mut rx), Ok(7));
        }
        on_every_lane!(check);
    }

    #[test]
    fn region_format_is_pinned() {
        // Config words and region lengths as the v4 format has always
        // written them: a layout change must bump `header::VERSION`, not
        // silently move offsets under binaries already deployed.
        fn check(len: usize, format: impl FnOnce(&ShmRegion), words: [u64; 4]) {
            assert_eq!(len as u64, words[3], "required size");
            let region = ShmRegion::create_memfd(len).unwrap();
            format(&region);
            assert_eq!(header_of(&region).config_words(), words);
        }
        check(
            spsc::required_size::<u64>(64).unwrap(),
            |r| spsc::format::<u64>(r, 64).unwrap(),
            [0x600010101, 0x800000008, 0x40000000180, 5120],
        );
        check(
            spmc::required_size::<[u8; 32]>(128).unwrap(),
            |r| spmc::format::<[u8; 32]>(r, 128).unwrap(),
            [0x700010102, 0x100000020, 0x40000000180, 9216],
        );
        check(
            broadcast::required_size::<u32>(32).unwrap(),
            |r| broadcast::format::<u32>(r, 32).unwrap(),
            [0x500010105, 0x400000004, 0x40000000180, 3072],
        );
        check(
            spsc_bytes::required_size(64, 256).unwrap(),
            |r| spsc_bytes::format(r, 64, 256).unwrap(),
            [0x608010103, 0x800000018, 0x40000000180, 21504],
        );
        check(
            spmc_bytes::required_size(16, 100).unwrap(),
            |r| spmc_bytes::format(r, 16, 100).unwrap(),
            [0x407010104, 0x800000018, 0x40000000180, 4096],
        );
    }

    #[test]
    fn format_errors() {
        let region = memfd_for_spsc(64);
        assert_eq!(
            spsc::format::<u64>(&region, 0).unwrap_err(),
            ShmError::Capacity(ffq::CapacityError::Zero)
        );
        assert!(matches!(
            spsc::format::<u64>(&region, 1 << 20).unwrap_err(),
            ShmError::RegionTooSmall { .. }
        ));
        spsc::format::<u64>(&region, 64).unwrap();
        assert_eq!(
            spsc::format::<u64>(&region, 64).unwrap_err(),
            ShmError::AlreadyFormatted
        );
    }

    #[test]
    fn producer_side_is_exclusive_but_reattachable() {
        fn check<L: Lane>() {
            let region = L::region();
            L::format(&region);
            let mut rx = L::attach_consumer(region.remap().unwrap()).unwrap();
            let mut tx = L::attach_producer(region.remap().unwrap()).unwrap();
            L::send(&mut tx, 1);
            L::send(&mut tx, 2);
            assert_eq!(
                L::attach_producer(region.remap().unwrap()).unwrap_err(),
                ShmError::ProducerAttached
            );
            drop(tx);
            // Clean detach: a successor resumes from the mirrored tail.
            let mut tx2 = L::attach_producer(region.remap().unwrap()).unwrap();
            L::send(&mut tx2, 3);
            assert_eq!(L::recv(&mut rx), Ok(1));
            assert_eq!(L::recv(&mut rx), Ok(2));
            assert_eq!(L::recv(&mut rx), Ok(3));
            drop(tx2);
            assert_eq!(L::recv(&mut rx), Err(ShmDequeueError::Disconnected));
        }
        on_every_lane!(check);
    }

    #[test]
    fn spsc_allows_exactly_one_consumer() {
        fn check<L: Lane>() {
            let region = L::region();
            L::format(&region);
            let rx = L::attach_consumer(region.remap().unwrap()).unwrap();
            let second = L::attach_consumer(region.remap().unwrap());
            if L::SINGLE_CONSUMER {
                assert_eq!(second.unwrap_err(), ShmError::SlotsFull);
            } else {
                assert!(second.is_ok(), "multi-consumer lanes take a second one");
            }
            drop(rx);
            assert!(L::attach_consumer(region.remap().unwrap()).is_ok());
        }
        on_every_lane!(check);
    }

    #[test]
    fn spmc_consumer_slots_exhaust() {
        fn check<L: Lane>() {
            if L::SINGLE_CONSUMER {
                return; // covered by spsc_allows_exactly_one_consumer
            }
            let region = L::region();
            L::format(&region);
            let held: Vec<_> = (0..MAX_CONSUMERS)
                .map(|_| L::attach_consumer(region.clone()).unwrap())
                .collect();
            assert_eq!(
                L::attach_consumer(region.clone()).unwrap_err(),
                ShmError::SlotsFull
            );
            drop(held);
            assert!(L::attach_consumer(region).is_ok());
        }
        on_every_lane!(check);
    }

    #[test]
    fn explicit_poison_unblocks_a_waiting_consumer() {
        fn check<L: Lane>() {
            let region = L::region();
            L::format(&region);
            let tx = L::attach_producer(region.clone()).unwrap();
            let mut rx = L::attach_consumer(region.remap().unwrap()).unwrap();
            let t = thread::spawn(move || L::recv(&mut rx));
            thread::sleep(Duration::from_millis(20));
            L::poison(&tx);
            assert_eq!(t.join().unwrap(), Err(ShmDequeueError::Poisoned));
            assert!(header_of(&region).is_poisoned());
            // Attaching to a poisoned queue is refused.
            assert_eq!(
                L::attach_consumer(region.remap().unwrap()).unwrap_err(),
                ShmError::Poisoned
            );
        }
        on_every_lane!(check);
    }

    #[test]
    fn zero_timeout_still_probes_a_dead_producer() {
        // The liveness probe runs before the deadline check on every lane,
        // so even a zero timeout reports a crashed producer as poison.
        fn check<L: Lane>() {
            let region = L::region();
            L::format(&region);
            plant_dead_producer(&region);
            let mut rx = L::attach_consumer(region.remap().unwrap()).unwrap();
            assert_eq!(
                L::recv_timeout(&mut rx, Duration::ZERO),
                Err(ShmTryDequeueError::Poisoned),
                "{}",
                core::any::type_name::<L>()
            );
        }
        on_every_lane!(check);
    }

    #[test]
    fn dead_producer_pid_poisons_the_queue() {
        // The consumer's heartbeat probe finds the planted producer
        // stalled, the kill(2) probe reports ESRCH, and the queue poisons.
        let region = ShmRegion::create_memfd(spmc::required_size::<u64>(64).unwrap()).unwrap();
        spmc::format::<u64>(&region, 64).unwrap();
        plant_dead_producer(&region);
        let mut rx = spmc::attach_consumer::<u64>(region.remap().unwrap()).unwrap();
        let start = Instant::now();
        assert_eq!(
            rx.dequeue_timeout(Duration::from_secs(10)),
            Err(ShmTryDequeueError::Poisoned),
            "consumer must observe the crash, not time out"
        );
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "crash detection must be bounded"
        );
        assert!(rx.is_poisoned());
    }

    #[test]
    fn try_dequeue_reports_poison_only_when_drained() {
        let region = memfd_for_spsc(64);
        let mut tx = spsc::create::<u64>(region.clone(), 64).unwrap();
        let mut rx = spsc::attach_consumer::<u64>(region.remap().unwrap()).unwrap();
        tx.enqueue(7).unwrap();
        tx.poison();
        // The published item is still delivered; poison surfaces after.
        assert_eq!(rx.try_dequeue(), Ok(7));
        assert_eq!(rx.try_dequeue(), Err(ShmTryDequeueError::Poisoned));
        // A poisoned producer can no longer block forever either.
        assert_eq!(tx.enqueue(8), Ok(()), "space available: enqueue succeeds");
    }

    /// Deterministic payload for bytes tests: content derived from
    /// (index, length) so misdelivery or tearing cannot verify.
    fn bytes_payload(i: usize, len: usize) -> Vec<u8> {
        (0..len)
            .map(|j| (i as u8) ^ (j as u8).wrapping_mul(151).wrapping_add(29))
            .collect()
    }

    #[test]
    fn bytes_spsc_round_trip_through_a_second_mapping() {
        // Variable sizes through a second mapping of the same bytes:
        // inline, slot-exact and chain-spilled payloads all come out
        // byte-identical and in order on the far side.
        let region = ShmRegion::create_memfd(spsc_bytes::required_size(64, 64).unwrap()).unwrap();
        let mut tx = spsc_bytes::create(region.clone(), 64, 64).unwrap();
        assert_eq!(tx.slot_bytes(), 64);
        let mut rx = spsc_bytes::attach_consumer(region.remap().unwrap()).unwrap();

        let lens: Vec<usize> = (0..500)
            .map(|i| [0usize, 1, 17, 63, 64, 65, 200, 1000][i % 8])
            .collect();
        let expect = lens.clone();
        let t = thread::spawn(move || {
            let mut i = 0usize;
            loop {
                match rx.recv() {
                    Ok(view) => {
                        assert_eq!(view.len(), expect[i], "length corrupted");
                        assert_eq!(
                            &*view,
                            &bytes_payload(i, expect[i])[..],
                            "payload {i} corrupted"
                        );
                        i += 1;
                    }
                    Err(ShmDequeueError::Disconnected) => return i,
                    Err(e) => panic!("unexpected {e:?}"),
                }
            }
        });
        for (i, &len) in lens.iter().enumerate() {
            // Alternate the in-place path and the copy-in convenience.
            if i % 2 == 0 {
                let mut slot = tx.reserve(len).unwrap();
                slot.copy_from_slice(&bytes_payload(i, len));
                slot.commit();
            } else {
                tx.send_bytes(&bytes_payload(i, len)).unwrap();
            }
        }
        drop(tx);
        assert_eq!(t.join().unwrap(), lens.len());
    }

    #[test]
    fn bytes_spmc_fan_out_exactly_once() {
        let region = ShmRegion::create_memfd(spmc_bytes::required_size(256, 64).unwrap()).unwrap();
        let mut tx = spmc_bytes::create(region.clone(), 256, 64).unwrap();
        const ITEMS: usize = 20_000;

        let workers: Vec<_> = (0..3)
            .map(|_| {
                let mut rx = spmc_bytes::attach_consumer(region.remap().unwrap()).unwrap();
                thread::spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        match rx.recv() {
                            Ok(view) => {
                                let mut idx = [0u8; 8];
                                idx.copy_from_slice(&view[..8]);
                                got.push(u64::from_le_bytes(idx) as usize);
                            }
                            Err(ShmDequeueError::Disconnected) => return got,
                            Err(e) => panic!("unexpected {e:?}"),
                        }
                    }
                })
            })
            .collect();

        for i in 0..ITEMS {
            let len = 8 + (i % 56);
            let mut msg = bytes_payload(i, len);
            msg[..8].copy_from_slice(&(i as u64).to_le_bytes());
            tx.send_bytes(&msg).unwrap();
        }
        drop(tx);
        let mut seen = vec![false; ITEMS];
        for w in workers {
            for i in w.join().unwrap() {
                assert!(!seen[i], "payload {i} delivered twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "payloads lost");
    }

    #[test]
    fn bytes_spmc_refuses_oversize_instead_of_truncating() {
        let region = ShmRegion::create_memfd(spmc_bytes::required_size(16, 64).unwrap()).unwrap();
        let mut tx = spmc_bytes::create(region.clone(), 16, 64).unwrap();
        // Multi-consumer shm queues cap payloads at one slot buffer.
        assert_eq!(tx.max_payload(), 64);
        assert_eq!(
            tx.send_bytes(&[0u8; 65]),
            Err(ShmReserveError::TooLarge { len: 65, max: 64 })
        );
        // The refusal consumed nothing: a max-size payload still flows.
        tx.send_bytes(&bytes_payload(0, 64)).unwrap();
        let mut rx = spmc_bytes::attach_consumer(region.remap().unwrap()).unwrap();
        let view = rx.recv().unwrap();
        assert_eq!(&*view, &bytes_payload(0, 64)[..]);
    }

    #[test]
    fn bytes_attach_validates_the_configuration() {
        let region = ShmRegion::create_memfd(spsc_bytes::required_size(64, 128).unwrap()).unwrap();
        spsc_bytes::format(&region, 64, 128).unwrap();
        // Typed attach onto a bytes region: refused by variant.
        assert_eq!(
            spsc::attach_consumer::<u64>(region.remap().unwrap()).unwrap_err(),
            ShmError::ConfigMismatch {
                field: "variant",
                expected: u64::from(VARIANT_SPSC),
                found: u64::from(VARIANT_SPSC_BYTES),
            }
        );
        // Wrong bytes flavor.
        assert_eq!(
            spmc_bytes::attach_consumer(region.remap().unwrap()).unwrap_err(),
            ShmError::ConfigMismatch {
                field: "variant",
                expected: u64::from(VARIANT_SPMC_BYTES),
                found: u64::from(VARIANT_SPSC_BYTES),
            }
        );
        // Matching attach works after the rejections, and recomputes the
        // slot geometry from the header (nothing to mis-specify).
        let mut tx = spsc_bytes::attach_producer(region.remap().unwrap()).unwrap();
        assert_eq!(tx.slot_bytes(), 128);
        let mut rx = spsc_bytes::attach_consumer(region.remap().unwrap()).unwrap();
        tx.send_bytes(b"hello").unwrap();
        assert_eq!(&*rx.recv().unwrap(), b"hello");
        // Bytes attach onto a typed region: also refused by variant.
        let typed = memfd_for_spsc(64);
        spsc::format::<u64>(&typed, 64).unwrap();
        assert_eq!(
            spsc_bytes::attach_consumer(typed.remap().unwrap()).unwrap_err(),
            ShmError::ConfigMismatch {
                field: "variant",
                expected: u64::from(VARIANT_SPSC_BYTES),
                found: u64::from(VARIANT_SPSC),
            }
        );
    }

    #[test]
    fn bytes_poison_unblocks_and_try_recv_drains_first() {
        let region = ShmRegion::create_memfd(spmc_bytes::required_size(16, 64).unwrap()).unwrap();
        let mut tx = spmc_bytes::create(region.clone(), 16, 64).unwrap();
        let mut rx = spmc_bytes::attach_consumer(region.remap().unwrap()).unwrap();
        tx.send_bytes(b"last words").unwrap();
        tx.poison();
        // Published payloads still drain; poison surfaces after.
        assert_eq!(&*rx.try_recv().unwrap(), b"last words");
        assert!(matches!(rx.try_recv(), Err(ShmTryDequeueError::Poisoned)));
        // Like the typed producer, a poisoned producer only *blocks* with
        // an error — with space available the reserve itself succeeds.
        assert_eq!(
            tx.send_bytes(b"x"),
            Ok(()),
            "space available: reserve succeeds"
        );
        assert_eq!(&*rx.try_recv().unwrap(), b"x");
        // A blocked consumer is released promptly with the poison.
        assert!(matches!(
            rx.recv_timeout(Duration::from_secs(5)),
            Err(ShmTryDequeueError::Poisoned)
        ));
    }

    #[test]
    fn bytes_dead_producer_pid_poisons_the_queue() {
        // Same crash simulation as the typed test: an impossible pid in
        // the producer slot, a stalled heartbeat, and the consumer's probe
        // escalates to poison instead of parking forever.
        let region = ShmRegion::create_memfd(spmc_bytes::required_size(16, 64).unwrap()).unwrap();
        spmc_bytes::format(&region, 16, 64).unwrap();
        assert!(header_of(&region).producer_slot().try_claim((1 << 22) + 1));
        let mut rx = spmc_bytes::attach_consumer(region.remap().unwrap()).unwrap();
        let start = Instant::now();
        assert!(matches!(
            rx.recv_timeout(Duration::from_secs(10)),
            Err(ShmTryDequeueError::Poisoned)
        ));
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn bytes_slow_consumer_holding_a_view_degrades_not_corrupts() {
        // A consumer sitting on a borrowed PayloadRef keeps that cell
        // busy; the producer's try_reserve fails clean (no truncation, no
        // corruption) and everything drains once the view drops.
        let region = ShmRegion::create_memfd(spsc_bytes::required_size(4, 64).unwrap()).unwrap();
        let mut tx = spsc_bytes::create(region.clone(), 4, 64).unwrap();
        let mut rx = spsc_bytes::attach_consumer(region.remap().unwrap()).unwrap();
        for i in 0..4 {
            tx.send_bytes(&bytes_payload(i, 32)).unwrap();
        }
        let held = rx.try_recv().unwrap();
        assert_eq!(&*held, &bytes_payload(0, 32)[..]);
        // The ring is full behind the held rank; a wrapping reserve fails
        // without consuming anything.
        assert!(matches!(tx.try_reserve(64), Err(TryReserveError::Full)));
        drop(held);
        for i in 1..4 {
            assert_eq!(&*rx.recv().unwrap(), &bytes_payload(i, 32)[..]);
        }
        tx.send_bytes(b"after").unwrap();
        assert_eq!(&*rx.recv().unwrap(), b"after");
    }

    #[test]
    fn batched_paths_work_across_mappings() {
        let region = ShmRegion::create_memfd(spmc::required_size::<u64>(512).unwrap()).unwrap();
        let mut tx = spmc::create::<u64>(region.clone(), 512).unwrap();
        let mut rx = spmc::attach_consumer::<u64>(region.remap().unwrap()).unwrap();
        assert_eq!(tx.enqueue_many(0..300u64), 300);
        let mut buf = Vec::new();
        let mut got = 0;
        while got < 300 {
            got += rx.dequeue_batch(&mut buf, 64);
        }
        assert_eq!(buf, (0..300u64).collect::<Vec<_>>());
    }
}
