//! The versioned region header: format/attach handshake, peer liveness
//! slots, and the encoded queue configuration.
//!
//! A queue region is laid out as
//!
//! ```text
//! offset 0                    [RegionHeader]   — this module
//! state_offset (128-aligned)  [QueueState]     — ffq's repr(C) counter block
//! cells_offset                [C; 1 << cap_log2]
//! slots_offset (64-aligned)   [[u8; 1 << slot_log2]; 1 << cap_log2] — bytes lanes only
//! ```
//!
//! [`region_layout`] computes these offsets from a [`CellGeometry`].
//!
//! Every field is offset-based and `#[repr(C)]`; nothing in the region is a
//! pointer, so processes mapping it at different base addresses agree on all
//! of it. The header is written exactly once, by the *creator*, under the
//! lifecycle handshake below; after that it is read-only except for the
//! lifecycle word (poisoning) and the peer slots.
//!
//! # Lifecycle handshake
//!
//! The lifecycle word moves `RAW → INITIALIZING → READY`, with `POISONED`
//! reachable from `INITIALIZING` and `READY` and absorbing:
//!
//! * a fresh (`ftruncate`d, all-zero) region reads as `RAW`;
//! * the creator CASes `RAW → INITIALIZING` — winning that CAS grants
//!   exclusive write access to the whole region;
//! * it writes the [`QueueState`], the cell array, and the config words,
//!   then CASes `INITIALIZING → READY` — the single (release) publication
//!   point. A CAS, not a store: a peer that watched the creator die may
//!   have poisoned the region mid-format, and that verdict must stand;
//! * attachers spin (with a timeout) until they Acquire-load `READY`, so
//!   they observe every formatted byte.
//!
//! The word itself is [`ffq_sync::lifecycle::LifecycleWord`] (re-exported
//! here with its [`Lifecycle`]/[`LifecycleEvent`]/[`lifecycle_step`]
//! relation): it lives in `ffq-sync`, behind the atomics facade, so the
//! loom models check the same handshake code that runs cross-process.

use core::sync::atomic::{AtomicI64, AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ffq::raw::QueueState;
use ffq_sync::lifecycle::LifecycleWord;
pub use ffq_sync::lifecycle::{lifecycle_step, Lifecycle, LifecycleEvent};

use crate::error::ShmError;

/// Magic number at offset 0 of every formatted region: `"FFQSHM01"` as
/// little-endian bytes.
pub const MAGIC: u64 = u64::from_le_bytes(*b"FFQSHM01");

/// Format version written by this crate. Attach refuses other versions.
/// Version 2 grew [`QueueState`] by the two eventcount futex words and the
/// shared-wait flag, so version-1 regions are layout-incompatible.
/// Version 3 added the zero-copy bytes variants, whose config word carries
/// a slot-size exponent in the byte version 2 required to be zero — a v2
/// binary must refuse such a region outright rather than misread it.
/// Version 4 added the broadcast variant, whose cells are seqlock records
/// (the rank word carries version stamps, not ranks) — an older binary
/// attaching as a point-to-point consumer would misread every stamp as a
/// rank, so the version gate, not just the variant check, must refuse it.
pub const VERSION: u32 = 4;

/// Number of consumer attach slots (upper bound on concurrently attached
/// consumer processes; the SPSC variant uses only slot 0).
pub const MAX_CONSUMERS: usize = 16;

/// Queue-variant discriminant: single producer, single consumer.
pub const VARIANT_SPSC: u8 = 1;
/// Queue-variant discriminant: single producer, multiple consumers.
pub const VARIANT_SPMC: u8 = 2;
/// Queue-variant discriminant: zero-copy bytes lane, single consumer.
pub const VARIANT_SPSC_BYTES: u8 = 3;
/// Queue-variant discriminant: zero-copy bytes lane, shared-head consumers.
pub const VARIANT_SPMC_BYTES: u8 = 4;
/// Queue-variant discriminant: broadcast (pub-sub) lane over seqlock cells —
/// every subscriber observes the full stream; slow subscribers lose items
/// instead of blocking the producer.
pub const VARIANT_BROADCAST: u8 = 5;

/// `true` for the variants whose cells carry payload descriptors into a
/// per-cell slot-buffer region (the zero-copy bytes lane).
pub const fn variant_is_bytes(v: u8) -> bool {
    matches!(v, VARIANT_SPSC_BYTES | VARIANT_SPMC_BYTES)
}

/// A `pid` slot value meaning "never attached".
pub const PEER_FREE: i64 = 0;
/// A `pid` slot value meaning "attached once, detached cleanly".
pub const PEER_DETACHED: i64 = -1;

/// One peer's liveness record: its pid and a heartbeat counter it bumps as
/// it makes progress.
///
/// Liveness probing is two-phase: a reader first compares the heartbeat to
/// the last value it saw — any advance proves life without a syscall. Only
/// a *stalled* heartbeat escalates to `kill(pid, 0)`, which distinguishes
/// "alive but idle" (probe succeeds) from "gone" (`ESRCH`). A clean detach
/// stores [`PEER_DETACHED`] so it is never mistaken for a crash.
#[repr(C)]
pub struct PeerSlot {
    /// [`PEER_FREE`], [`PEER_DETACHED`], or the attached process's pid.
    pid: AtomicI64,
    /// Monotonic progress counter, written only by the slot's owner.
    heartbeat: AtomicU64,
}

impl PeerSlot {
    /// Claims the slot for `pid` if it is free or cleanly detached.
    pub fn try_claim(&self, pid: i64) -> bool {
        debug_assert!(pid > 0);
        for cur in [PEER_FREE, PEER_DETACHED] {
            if self
                .pid
                .compare_exchange(cur, pid, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                return true;
            }
        }
        false
    }

    /// Marks a clean detach.
    pub fn release(&self) {
        self.pid.store(PEER_DETACHED, Ordering::Release);
    }

    /// Current occupant: [`PEER_FREE`], [`PEER_DETACHED`] or a pid.
    pub fn pid(&self) -> i64 {
        self.pid.load(Ordering::Acquire)
    }

    /// Publishes a new heartbeat value (single writer: the slot owner).
    pub fn store_heartbeat(&self, hb: u64) {
        self.heartbeat.store(hb, Ordering::Relaxed);
    }

    /// Reads the heartbeat counter.
    pub fn heartbeat(&self) -> u64 {
        self.heartbeat.load(Ordering::Relaxed)
    }
}

/// The decoded queue configuration a region was formatted with.
///
/// Encoded into four `u64` words in the header ([`encode`](Self::encode) /
/// [`decode`](Self::decode)); attach decodes and compares every field
/// against what the attaching handle's type parameters predict, so two
/// binaries can never exchange ranks over memory they interpret differently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueConfig {
    /// [`VARIANT_SPSC`] or [`VARIANT_SPMC`].
    pub variant: u8,
    /// Cell layout discriminant (see [`cell_discriminant`]).
    pub cell_layout: u8,
    /// Index map discriminant (see [`map_discriminant`]).
    pub index_map: u8,
    /// log2 of the cell count.
    pub cap_log2: u32,
    /// log2 of the per-cell slot-buffer size for the bytes variants
    /// (`6..=30`, i.e. 64 B to 1 GiB); zero for the typed variants.
    pub slot_log2: u8,
    /// `size_of::<T>()` of the element type.
    pub elem_size: u32,
    /// `align_of::<T>()` of the element type.
    pub elem_align: u32,
    /// Byte offset of the [`QueueState`] block.
    pub state_offset: u32,
    /// Byte offset of the cell array.
    pub cells_offset: u32,
    /// Total bytes of header + state + cells.
    pub region_len: u64,
}

impl QueueConfig {
    /// Packs the configuration into the header's four config words.
    pub fn encode(&self) -> [u64; 4] {
        [
            u64::from(self.variant)
                | u64::from(self.cell_layout) << 8
                | u64::from(self.index_map) << 16
                | u64::from(self.slot_log2) << 24
                | u64::from(self.cap_log2) << 32,
            u64::from(self.elem_size) | u64::from(self.elem_align) << 32,
            u64::from(self.state_offset) | u64::from(self.cells_offset) << 32,
            self.region_len,
        ]
    }

    /// Unpacks and validates four config words. Every reserved bit must be
    /// zero and every discriminant in range — a corrupt or foreign header
    /// fails here rather than producing an out-of-bounds queue view.
    pub fn decode(w: [u64; 4]) -> Result<Self, ShmError> {
        let bad = |field| ShmError::BadConfig { field };
        let variant = (w[0] & 0xFF) as u8;
        if !(VARIANT_SPSC..=VARIANT_BROADCAST).contains(&variant) {
            return Err(bad("variant"));
        }
        let cell_layout = (w[0] >> 8 & 0xFF) as u8;
        if !(1..=2).contains(&cell_layout) {
            return Err(bad("cell layout"));
        }
        let index_map = (w[0] >> 16 & 0xFF) as u8;
        if !(1..=2).contains(&index_map) {
            return Err(bad("index map"));
        }
        let slot_log2 = (w[0] >> 24 & 0xFF) as u8;
        if variant_is_bytes(variant) {
            // Slot buffers are 64 B .. 1 GiB, matching
            // `ffq::normalize_slot_bytes`.
            if !(6..=30).contains(&slot_log2) {
                return Err(bad("slot exponent"));
            }
        } else if slot_log2 != 0 {
            // The byte was reserved-must-be-zero in version 2; keep that
            // strictness for the variants that carry no slot region.
            return Err(bad("slot exponent"));
        }
        let cap_log2 = (w[0] >> 32) as u32;
        if cap_log2 > 31 {
            return Err(bad("capacity exponent"));
        }
        let elem_size = (w[1] & 0xFFFF_FFFF) as u32;
        let elem_align = (w[1] >> 32) as u32;
        if !elem_align.is_power_of_two() {
            return Err(bad("element alignment"));
        }
        Ok(Self {
            variant,
            cell_layout,
            index_map,
            cap_log2,
            slot_log2,
            elem_size,
            elem_align,
            state_offset: (w[2] & 0xFFFF_FFFF) as u32,
            cells_offset: (w[2] >> 32) as u32,
            region_len: w[3],
        })
    }
}

/// Maps a [`CellSlot::NAME`](ffq::cell::CellSlot::NAME) to its on-region discriminant.
pub fn cell_discriminant(name: &str) -> Option<u8> {
    match name {
        "padded" => Some(1),
        "compact" => Some(2),
        _ => None,
    }
}

/// Maps an [`ffq::layout::IndexMap::NAME`] to its on-region discriminant.
pub fn map_discriminant(name: &str) -> Option<u8> {
    match name {
        "linear" => Some(1),
        "rotate" => Some(2),
        _ => None,
    }
}

/// The `#[repr(C)]` header at offset 0 of every queue region.
#[repr(C)]
pub struct RegionHeader {
    /// [`MAGIC`] once formatted.
    magic: AtomicU64,
    /// [`VERSION`] once formatted.
    version: AtomicU32,
    /// The [`Lifecycle`] word driving the format/attach handshake
    /// (`repr(transparent)` over an `AtomicU32`, so the `repr(C)` layout
    /// is unchanged).
    lifecycle: LifecycleWord,
    /// Encoded [`QueueConfig`].
    config: [AtomicU64; 4],
    /// pid of the formatting process (diagnostic).
    owner_pid: AtomicI64,
    /// The single producer's liveness slot.
    producer: PeerSlot,
    /// Consumer liveness slots.
    consumers: [PeerSlot; MAX_CONSUMERS],
}

impl RegionHeader {
    /// Claims a zeroed region for formatting (CAS `RAW → INITIALIZING`).
    pub fn begin_init(&self) -> Result<(), ShmError> {
        if self.lifecycle.begin_init() {
            Ok(())
        } else {
            Err(ShmError::AlreadyFormatted)
        }
    }

    /// Publishes a fully formatted region: writes config, identity and
    /// owner, then CASes `INITIALIZING → READY` (the release publication
    /// point). Caller must hold the `INITIALIZING` claim and have
    /// finished writing state and cells.
    ///
    /// Errors with [`ShmError::Poisoned`] if a peer poisoned the region
    /// mid-format (it watched this process stall and judged it dead): the
    /// poison verdict stands and the caller must abandon the region —
    /// publishing anyway would hand out handles other processes have
    /// already reported dead.
    pub fn publish_ready(&self, cfg: &QueueConfig, owner_pid: i64) -> Result<(), ShmError> {
        let words = cfg.encode();
        for (slot, w) in self.config.iter().zip(words) {
            slot.store(w, Ordering::Relaxed);
        }
        self.owner_pid.store(owner_pid, Ordering::Relaxed);
        self.version.store(VERSION, Ordering::Relaxed);
        self.magic.store(MAGIC, Ordering::Relaxed);
        if self.lifecycle.publish_ready() {
            Ok(())
        } else {
            Err(ShmError::Poisoned)
        }
    }

    /// Spins (politely) until the region is `READY`, then checks identity.
    ///
    /// Errors: [`ShmError::Poisoned`] if the lifecycle lands on `POISONED`,
    /// [`ShmError::NotReady`] on timeout, [`ShmError::BadMagic`] /
    /// [`ShmError::BadVersion`] for a region formatted by something else.
    pub fn wait_ready(&self, timeout: Duration) -> Result<(), ShmError> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.lifecycle.state() {
                Some(Lifecycle::Ready) => break,
                Some(Lifecycle::Poisoned) => return Err(ShmError::Poisoned),
                Some(Lifecycle::Raw) | Some(Lifecycle::Initializing) | None => {
                    if Instant::now() >= deadline {
                        return Err(ShmError::NotReady);
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
        let magic = self.magic.load(Ordering::Relaxed);
        if magic != MAGIC {
            return Err(ShmError::BadMagic {
                expected: MAGIC,
                found: magic,
            });
        }
        let version = self.version.load(Ordering::Relaxed);
        if version != VERSION {
            return Err(ShmError::BadVersion {
                supported: VERSION,
                found: version,
            });
        }
        Ok(())
    }

    /// The magic word as currently stored (equal to [`MAGIC`] on any
    /// region formatted by this crate). Introspection only — attach paths
    /// go through [`wait_ready`](Self::wait_ready), which enforces it.
    pub fn magic(&self) -> u64 {
        self.magic.load(Ordering::Relaxed)
    }

    /// The format version as currently stored (equal to [`VERSION`] on a
    /// region this binary can attach to).
    pub fn version(&self) -> u32 {
        self.version.load(Ordering::Relaxed)
    }

    /// The lifecycle word's current state, or `None` if the word holds a
    /// value outside the [`Lifecycle`] state machine (corruption, or not a
    /// queue region at all). Read-only introspection for the verifier; it
    /// never drives the handshake.
    pub fn lifecycle_state(&self) -> Option<Lifecycle> {
        self.lifecycle.state()
    }

    /// The four raw config words (valid once `READY`).
    pub fn config_words(&self) -> [u64; 4] {
        [
            self.config[0].load(Ordering::Relaxed),
            self.config[1].load(Ordering::Relaxed),
            self.config[2].load(Ordering::Relaxed),
            self.config[3].load(Ordering::Relaxed),
        ]
    }

    /// pid of the process that formatted the region.
    pub fn owner_pid(&self) -> i64 {
        self.owner_pid.load(Ordering::Relaxed)
    }

    /// Poisons the queue (CAS loop through [`lifecycle_step`]); returns
    /// `true` if the region is poisoned on return (newly or already).
    pub fn poison(&self) -> bool {
        self.lifecycle.poison()
    }

    /// `true` once the lifecycle word reads `POISONED`.
    pub fn is_poisoned(&self) -> bool {
        self.lifecycle.is_poisoned()
    }

    /// The producer's liveness slot.
    pub fn producer_slot(&self) -> &PeerSlot {
        &self.producer
    }

    /// Consumer liveness slot `idx`.
    pub fn consumer_slot(&self, idx: usize) -> &PeerSlot {
        &self.consumers[idx]
    }

    /// Claims the first free (or cleanly vacated) consumer slot for `pid`.
    pub fn claim_consumer_slot(&self, pid: i64) -> Option<usize> {
        (0..MAX_CONSUMERS).find(|&i| self.consumers[i].try_claim(pid))
    }
}

/// Byte size and alignment of one cell: the array stride and the
/// alignment the array must start at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellGeometry {
    /// `size_of` one cell (the array stride).
    pub size: usize,
    /// `align_of` one cell.
    pub align: usize,
}

impl CellGeometry {
    /// The geometry the compiler gives cell type `C`. The verifier, which
    /// has no type to ask, recomputes it from the header's discriminants
    /// ([`crate::verify::dynamic_cell_geometry`]).
    pub const fn of<C>() -> Self {
        Self {
            size: core::mem::size_of::<C>(),
            align: core::mem::align_of::<C>(),
        }
    }
}

/// Computed byte offsets of one queue region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionLayout {
    /// Byte offset of the [`QueueState`] block.
    pub state_offset: usize,
    /// Byte offset of the cell array.
    pub cells_offset: usize,
    /// Byte offset of a bytes lane's slot-buffer region (64-aligned, so
    /// slot buffers start on cache lines — the in-place write/borrowed
    /// read never false-shares with the descriptor cells); `total_len`
    /// for a lane without one.
    pub slots_offset: usize,
    /// Total bytes required.
    pub total_len: usize,
}

pub(crate) const fn round_up(x: usize, align: usize) -> usize {
    (x + align - 1) & !(align - 1)
}

/// Computes the layout of a region holding `1 << cap_log2` cells of
/// geometry `cell`, followed — for the bytes lanes, which pass
/// `slot_log2` — by one `1 << slot_log2`-byte slot buffer per cell. The one
/// layout function: handles and the verifier both call it.
///
/// The state block starts at the first 128-byte boundary past the header
/// (its own alignment, and a fresh cache-line pair away from the header's
/// peer slots); cells follow at their natural alignment, floored at 64 so a
/// compact cell array still begins on a cache line. `None` if the byte size
/// overflows `usize` — callers surface that as a capacity error.
pub fn region_layout(
    cell: CellGeometry,
    cap_log2: u32,
    slot_log2: Option<u8>,
) -> Option<RegionLayout> {
    let cells = 1usize.checked_shl(cap_log2)?;
    let state_align = core::mem::align_of::<QueueState>().max(128);
    let state_offset = round_up(core::mem::size_of::<RegionHeader>(), state_align);
    let cells_offset = round_up(
        state_offset.checked_add(core::mem::size_of::<QueueState>())?,
        cell.align.max(64),
    );
    let cells_end = cells_offset.checked_add(cells.checked_mul(cell.size)?)?;
    let Some(slot_log2) = slot_log2 else {
        return Some(RegionLayout {
            state_offset,
            cells_offset,
            slots_offset: cells_end,
            total_len: cells_end,
        });
    };
    let slots_offset = round_up(cells_end, 64);
    let slots_len = cells.checked_mul(1usize.checked_shl(slot_log2.into())?)?;
    Some(RegionLayout {
        state_offset,
        cells_offset,
        slots_offset,
        total_len: slots_offset.checked_add(slots_len)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffq::cell::{CompactCell, PaddedCell};

    #[test]
    fn header_layout_is_stable() {
        // Mapped by separately compiled binaries: size and offsets must
        // match the repr(C) prediction exactly.
        assert_eq!(core::mem::align_of::<RegionHeader>(), 8);
        assert_eq!(core::mem::size_of::<PeerSlot>(), 16);
        assert_eq!(
            core::mem::size_of::<RegionHeader>(),
            8 + 4 + 4 + 32 + 8 + 16 * (1 + MAX_CONSUMERS)
        );
        let h: RegionHeader = unsafe { core::mem::zeroed() };
        let base = &h as *const _ as usize;
        assert_eq!(&h.magic as *const _ as usize - base, 0);
        assert_eq!(&h.version as *const _ as usize - base, 8);
        assert_eq!(&h.lifecycle as *const _ as usize - base, 12);
        assert_eq!(&h.config as *const _ as usize - base, 16);
        assert_eq!(&h.owner_pid as *const _ as usize - base, 48);
        assert_eq!(&h.producer as *const _ as usize - base, 56);
        assert_eq!(&h.consumers as *const _ as usize - base, 72);
    }

    #[test]
    fn zeroed_header_reads_as_raw_and_free() {
        let h: RegionHeader = unsafe { core::mem::zeroed() };
        assert!(!h.is_poisoned());
        assert_eq!(h.producer_slot().pid(), PEER_FREE);
        assert!(h.begin_init().is_ok(), "fresh region must accept a creator");
        assert_eq!(h.begin_init(), Err(ShmError::AlreadyFormatted));
    }

    #[test]
    fn config_encode_decode_round_trip() {
        let cfgs = [
            QueueConfig {
                variant: VARIANT_SPMC,
                cell_layout: 1,
                index_map: 1,
                cap_log2: 10,
                slot_log2: 0,
                elem_size: 8,
                elem_align: 8,
                state_offset: 384,
                cells_offset: 768,
                region_len: 768 + 1024 * 64,
            },
            QueueConfig {
                variant: VARIANT_SPSC_BYTES,
                cell_layout: 1,
                index_map: 1,
                cap_log2: 10,
                slot_log2: 10,
                elem_size: 24,
                elem_align: 8,
                state_offset: 384,
                cells_offset: 1024,
                region_len: 1024 + 1024 * 64 + 1024 * 1024,
            },
            QueueConfig {
                variant: VARIANT_SPMC_BYTES,
                cell_layout: 1,
                index_map: 1,
                cap_log2: 4,
                slot_log2: 6,
                elem_size: 24,
                elem_align: 8,
                state_offset: 384,
                cells_offset: 1024,
                region_len: 1024 + 16 * 64 + 16 * 64,
            },
            QueueConfig {
                variant: VARIANT_BROADCAST,
                cell_layout: 1,
                index_map: 2,
                cap_log2: 8,
                slot_log2: 0,
                elem_size: 32,
                elem_align: 8,
                state_offset: 384,
                cells_offset: 1024,
                region_len: 1024 + 256 * 64,
            },
            QueueConfig {
                variant: VARIANT_SPSC,
                cell_layout: 2,
                index_map: 2,
                cap_log2: 1,
                slot_log2: 0,
                elem_size: 1,
                elem_align: 1,
                state_offset: 384,
                cells_offset: 768,
                region_len: 800,
            },
            QueueConfig {
                variant: VARIANT_SPSC,
                cell_layout: 1,
                index_map: 1,
                cap_log2: 31,
                slot_log2: 0,
                elem_size: u32::MAX,
                elem_align: 1 << 31,
                state_offset: u32::MAX,
                cells_offset: u32::MAX,
                region_len: u64::MAX,
            },
        ];
        for cfg in cfgs {
            assert_eq!(QueueConfig::decode(cfg.encode()), Ok(cfg));
        }
    }

    #[test]
    fn config_decode_rejects_corruption() {
        let good = QueueConfig {
            variant: VARIANT_SPMC,
            cell_layout: 1,
            index_map: 1,
            cap_log2: 10,
            slot_log2: 0,
            elem_size: 8,
            elem_align: 8,
            state_offset: 384,
            cells_offset: 768,
            region_len: 66304,
        }
        .encode();

        let patch = |i: usize, w: u64| {
            let mut c = good;
            c[i] = w;
            c
        };
        // variant 0 and 7 are out of range (1..=5 is the valid band)
        assert!(QueueConfig::decode(patch(0, good[0] & !0xFF)).is_err());
        assert!(QueueConfig::decode(patch(0, good[0] | 5)).is_err());
        // broadcast (5) is a typed variant: valid only with a zero slot byte
        let bcast = (good[0] & !0xFF) | u64::from(VARIANT_BROADCAST);
        assert!(QueueConfig::decode(patch(0, bcast)).is_ok());
        assert!(QueueConfig::decode(patch(0, bcast | 10 << 24)).is_err());
        // cell layout / index map discriminants
        assert!(QueueConfig::decode(patch(0, good[0] | 0xFF << 8)).is_err());
        assert!(QueueConfig::decode(patch(0, good[0] | 0xFF << 16)).is_err());
        // typed variants must keep the (once reserved) slot byte zero
        assert!(QueueConfig::decode(patch(0, good[0] | 1 << 24)).is_err());
        // bytes variants must keep the slot exponent in 6..=30
        let bytes_variant = (good[0] & !0xFF) | u64::from(VARIANT_SPSC_BYTES);
        assert!(QueueConfig::decode(patch(0, bytes_variant)).is_err());
        assert!(QueueConfig::decode(patch(0, bytes_variant | 31 << 24)).is_err());
        assert!(QueueConfig::decode(patch(0, bytes_variant | 10 << 24)).is_ok());
        // capacity exponent above 31
        assert!(QueueConfig::decode(patch(0, good[0] | 32u64 << 32)).is_err());
        // element alignment must be a nonzero power of two
        assert!(QueueConfig::decode(patch(1, 8)).is_err());
        assert!(QueueConfig::decode(patch(1, 8 | 3u64 << 32)).is_err());
    }

    #[test]
    fn lifecycle_poisoned_is_absorbing() {
        use LifecycleEvent::*;
        for ev in [BeginInit, Publish, Poison] {
            let next = lifecycle_step(Lifecycle::Poisoned, ev);
            assert!(
                next.is_none() || next == Some(Lifecycle::Poisoned),
                "{ev:?} must not leave POISONED"
            );
        }
    }

    #[test]
    fn lifecycle_ready_needs_full_handshake() {
        use LifecycleEvent::*;
        // The only path to READY is RAW -BeginInit-> INITIALIZING -Publish->.
        for state in [Lifecycle::Raw, Lifecycle::Ready, Lifecycle::Poisoned] {
            assert_ne!(lifecycle_step(state, Publish), Some(Lifecycle::Ready));
        }
        assert_eq!(
            lifecycle_step(Lifecycle::Raw, BeginInit).and_then(|s| lifecycle_step(s, Publish)),
            Some(Lifecycle::Ready)
        );
        // A raw region cannot be poisoned; formatting cannot be re-entered.
        assert_eq!(lifecycle_step(Lifecycle::Raw, Poison), None);
        for state in [
            Lifecycle::Initializing,
            Lifecycle::Ready,
            Lifecycle::Poisoned,
        ] {
            assert_eq!(lifecycle_step(state, BeginInit), None);
        }
    }

    #[test]
    fn header_poison_handshake() {
        let h: RegionHeader = unsafe { core::mem::zeroed() };
        assert!(!h.poison(), "RAW region must not poison");
        h.begin_init().unwrap();
        let cfg = QueueConfig {
            variant: VARIANT_SPSC,
            cell_layout: 1,
            index_map: 1,
            cap_log2: 4,
            slot_log2: 0,
            elem_size: 8,
            elem_align: 8,
            state_offset: 384,
            cells_offset: 768,
            region_len: 1792,
        };
        h.publish_ready(&cfg, 1234).unwrap();
        h.wait_ready(Duration::from_millis(10)).unwrap();
        assert_eq!(h.owner_pid(), 1234);
        assert_eq!(QueueConfig::decode(h.config_words()), Ok(cfg));
        assert!(h.poison());
        assert!(h.is_poisoned());
        assert!(h.poison(), "poisoning again stays poisoned");
        assert_eq!(
            h.wait_ready(Duration::from_millis(1)),
            Err(ShmError::Poisoned)
        );
    }

    #[test]
    fn peer_slot_claim_release_cycle() {
        let h: RegionHeader = unsafe { core::mem::zeroed() };
        let s = h.producer_slot();
        assert!(s.try_claim(42));
        assert!(!s.try_claim(43), "occupied slot must reject");
        assert_eq!(s.pid(), 42);
        s.release();
        assert_eq!(s.pid(), PEER_DETACHED);
        assert!(s.try_claim(43), "detached slot must be reclaimable");
    }

    #[test]
    fn consumer_slots_exhaust_at_max() {
        let h: RegionHeader = unsafe { core::mem::zeroed() };
        for i in 0..MAX_CONSUMERS {
            assert_eq!(h.claim_consumer_slot(100 + i as i64), Some(i));
        }
        assert_eq!(h.claim_consumer_slot(999), None);
        h.consumer_slot(7).release();
        assert_eq!(h.claim_consumer_slot(999), Some(7));
    }

    #[test]
    fn region_layout_offsets() {
        // Header is 328 bytes -> state at 384 (128-aligned); QueueState is
        // 640 bytes (two counter lines, two eventcount lines, one misc
        // line) -> cells at 1024 for both cell layouts.
        let l = region_layout(CellGeometry::of::<PaddedCell<u64>>(), 10, None).unwrap();
        assert_eq!(l.state_offset, 384);
        assert_eq!(l.cells_offset, 1024);
        assert_eq!(
            l.total_len,
            1024 + 1024 * core::mem::size_of::<PaddedCell<u64>>()
        );
        let c = region_layout(CellGeometry::of::<CompactCell<u64>>(), 4, None).unwrap();
        assert_eq!(c.cells_offset, 1024);
        assert_eq!(
            c.total_len,
            1024 + 16 * core::mem::size_of::<CompactCell<u64>>()
        );
        // Offsets respect every participant's alignment.
        assert_eq!(l.state_offset % core::mem::align_of::<QueueState>(), 0);
        assert_eq!(l.cells_offset % core::mem::align_of::<PaddedCell<u64>>(), 0);
    }

    #[test]
    fn region_layout_overflow_is_caught() {
        // 2^31 cells of 64 bytes = 2^37 bytes: fine on 64-bit, but the
        // arithmetic is checked, so a hypothetical overflow returns None
        // rather than wrapping. Exercise the biggest legal exponent.
        assert!(region_layout(CellGeometry::of::<PaddedCell<u64>>(), 31, None).is_some());
        assert!(region_layout(CellGeometry::of::<PaddedCell<[u64; 512]>>(), 31, None).is_some());
        assert!(region_layout(CellGeometry::of::<PaddedCell<u64>>(), 31, Some(30)).is_some());
        assert!(region_layout(CellGeometry::of::<PaddedCell<u64>>(), 64, None).is_none());
    }

    #[test]
    fn discriminants_cover_the_shipped_types() {
        use ffq::cell::CellSlot;
        use ffq::layout::{IndexMap, LinearMap, RotateMap};
        assert_eq!(
            cell_discriminant(<PaddedCell<u64> as CellSlot<u64>>::NAME),
            Some(1)
        );
        assert_eq!(
            cell_discriminant(<CompactCell<u64> as CellSlot<u64>>::NAME),
            Some(2)
        );
        assert_eq!(map_discriminant(<LinearMap as IndexMap>::NAME), Some(1));
        assert_eq!(map_discriminant(<RotateMap as IndexMap>::NAME), Some(2));
        assert_eq!(cell_discriminant("other"), None);
        assert_eq!(map_discriminant("other"), None);
    }
}
