//! Live-region auditing: attach read-only to a queue region and check the
//! invariants the protocol promises.
//!
//! [`verify_region`] is the library entry point; the `queue_verifier`
//! binary (`src/bin/queue_verifier.rs`) wraps it in a CLI for operators
//! and for post-mortem checks in tests. The audit never writes a byte —
//! it is built to run against [`ShmRegion::open_readonly`] mappings, so
//! pointing it at a live production queue cannot perturb the protocol.
//!
//! # What is checked
//!
//! 1. **Identity** — magic, version, lifecycle word, and a full
//!    [`QueueConfig`] decode. Anything that fails here is *refused*
//!    ([`Verdict::Refused`]): the bytes are not a region this binary can
//!    audit, and no further dereference happens (a truncated mapping is
//!    caught before any offset past the header is touched).
//! 2. **Geometry** — the header's recorded offsets must equal what this
//!    binary recomputes from the config ([`region_layout`] over the cell
//!    geometry from [`dynamic_cell_geometry`]), and
//!    the mapping must be at least `region_len` bytes. A header that
//!    disagrees with itself is refused, because every later pointer would
//!    be derived from untrusted offsets.
//! 3. **Counters** — head/tail are non-negative and the state block's
//!    capacity matches the config.
//! 4. **Rank continuity** — every published cell's rank (and every gap
//!    announcement) must map back to the slot that holds it under the
//!    region's index map; for v4 broadcast regions the seqlock stamps
//!    must decode to a rank that maps home, and a stamp stuck *odd*
//!    across the watch window means a writer died mid-publish.
//! 5. **Descriptor sanity** (bytes variants) — published payload
//!    descriptors carry a known discriminant, inline lengths that fit the
//!    slot buffer, and no heap spill (impossible cross-process).
//! 6. **Peer liveness** — each registered pid's heartbeat is sampled
//!    twice across the watch window; a stalled heartbeat escalates to
//!    `kill(pid, 0)` exactly like the in-protocol probe, and a dead peer
//!    (or an already-poisoned lifecycle word) makes the verdict
//!    [`Verdict::Unhealthy`].
//!
//! Checks 3–6 read concurrently-mutated memory, so they only flag states
//! the protocol can never produce (however the audit interleaves with
//! live peers): all loads of the `(rank, gap)` pair are untorn DWCAS
//! reads, and rank→slot mapping is a stable invariant of every published
//! value, not a transient.

use core::sync::atomic::Ordering;
use std::fmt;
use std::time::Duration;

use ffq::cell::{
    PayloadDesc, DESC_ABORT, DESC_CHAIN_CONT, DESC_CHAIN_HEAD, DESC_HEAP, DESC_INLINE, GAP_NONE,
    RANK_CLAIMED, RANK_FREE,
};
use ffq::layout::{IndexMap, LinearMap, RotateMap};
use ffq::raw::QueueState;
use ffq_sync::DoubleWord;

pub use crate::header::CellGeometry;
use crate::header::{
    region_layout, round_up, variant_is_bytes, Lifecycle, QueueConfig, RegionHeader, MAGIC,
    MAX_CONSUMERS, PEER_DETACHED, PEER_FREE, VARIANT_BROADCAST, VARIANT_SPSC, VERSION,
};
use crate::queue::{header_of, pid_alive};
use crate::region::ShmRegion;

/// Overall outcome of a [`verify_region`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every check passed: the region is a healthy queue.
    Clean,
    /// The region is a well-formed queue, but something is wrong with it:
    /// poisoned, a dead peer, or a protocol invariant violated.
    Unhealthy,
    /// The bytes are not a queue region this binary can audit (truncated,
    /// foreign magic/version, or a self-inconsistent header). Nothing past
    /// the failing field was dereferenced.
    Refused,
}

/// How serious one [`Finding`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Informational observation; does not affect the verdict.
    Note,
    /// A violated invariant; drives the verdict to [`Verdict::Unhealthy`]
    /// (or [`Verdict::Refused`] when identity/geometry checks fail).
    Violation,
}

/// One observation from the audit.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Whether this observation affects the verdict.
    pub severity: Severity,
    /// Short name of the check that produced it (`"magic"`, `"cells"`, …).
    pub check: &'static str,
    /// Human-readable detail, including expected-vs-found values.
    pub detail: String,
}

/// The full result of one audit pass.
#[derive(Debug, Clone)]
pub struct Report {
    /// The overall outcome.
    pub verdict: Verdict,
    /// Everything observed, notes included, in check order.
    pub findings: Vec<Finding>,
}

impl Report {
    /// Process exit code the `queue_verifier` binary maps this report to:
    /// 0 clean, 1 unhealthy, 2 refused.
    pub fn exit_code(&self) -> i32 {
        match self.verdict {
            Verdict::Clean => 0,
            Verdict::Unhealthy => 1,
            Verdict::Refused => 2,
        }
    }

    /// `true` when the verdict is [`Verdict::Clean`].
    pub fn is_clean(&self) -> bool {
        self.verdict == Verdict::Clean
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "verdict: {:?}", self.verdict)?;
        for finding in &self.findings {
            let tag = match finding.severity {
                Severity::Note => "note",
                Severity::Violation => "FAIL",
            };
            writeln!(f, "  [{tag}] {}: {}", finding.check, finding.detail)?;
        }
        Ok(())
    }
}

/// Tunables for one audit pass.
#[derive(Debug, Clone, Copy)]
pub struct VerifyOptions {
    /// How long to wait between the two heartbeat/stamp samples. Longer
    /// windows distinguish "slow" from "stuck" more reliably; the default
    /// (200 ms) is ~20 producer block-slices.
    pub watch: Duration,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        Self {
            watch: Duration::from_millis(200),
        }
    }
}

/// Recomputes what `size_of`/`align_of` the cell type would have, from the
/// on-region discriminant and element geometry. Mirrors the `repr(C)`
/// layouts of `ffq::cell::{CompactCell, PaddedCell}`: a 16-byte, 16-aligned
/// `DoubleWord` first, then the element at its natural alignment; the
/// padded flavor rounds the whole cell up to a 64-byte cache line.
/// `None` for an unknown discriminant or absurd geometry.
pub fn dynamic_cell_geometry(
    cell_layout: u8,
    elem_size: usize,
    elem_align: usize,
) -> Option<CellGeometry> {
    if !elem_align.is_power_of_two() || elem_align > (1 << 29) {
        return None;
    }
    // CompactCell<T>: repr(C) { words: DoubleWord /* 16 B, align 16 */,
    // data: UnsafeCell<MaybeUninit<T>> }.
    let align = elem_align.max(16);
    let data_offset = round_up(16, elem_align);
    let size = round_up(data_offset.checked_add(elem_size)?, align);
    match cell_layout {
        2 => Some(CellGeometry { size, align }),
        // PaddedCell<T>: repr(C, align(64)) { inner: CompactCell<T> }.
        1 => Some(CellGeometry {
            size: round_up(size, 64),
            align: align.max(64),
        }),
        _ => None,
    }
}

/// Collects findings and tracks the worst severity seen.
struct Audit {
    findings: Vec<Finding>,
    violated: bool,
}

impl Audit {
    fn new() -> Self {
        Self {
            findings: Vec::new(),
            violated: false,
        }
    }

    fn note(&mut self, check: &'static str, detail: String) {
        self.findings.push(Finding {
            severity: Severity::Note,
            check,
            detail,
        });
    }

    fn violation(&mut self, check: &'static str, detail: String) {
        self.violated = true;
        self.findings.push(Finding {
            severity: Severity::Violation,
            check,
            detail,
        });
    }

    fn refuse(mut self, check: &'static str, detail: String) -> Report {
        self.findings.push(Finding {
            severity: Severity::Violation,
            check,
            detail,
        });
        Report {
            verdict: Verdict::Refused,
            findings: self.findings,
        }
    }

    fn finish(self) -> Report {
        Report {
            verdict: if self.violated {
                Verdict::Unhealthy
            } else {
                Verdict::Clean
            },
            findings: self.findings,
        }
    }
}

/// `slot(rank)` under the region's recorded index map.
fn map_slot(index_map: u8, rank: i64, cap_log2: u32) -> usize {
    match index_map {
        2 => RotateMap::slot(rank, cap_log2),
        _ => LinearMap::slot(rank, cap_log2),
    }
}

/// Audits the queue region mapped at `region` and reports everything it
/// finds. Pure loads only — safe against [`ShmRegion::open_readonly`] /
/// [`ShmRegion::remap_readonly`] mappings, and safe to run concurrently
/// with live producers and consumers.
pub fn verify_region(region: &ShmRegion, opts: &VerifyOptions) -> Report {
    let mut a = Audit::new();

    // ---- 1. Identity: refuse before dereferencing anything derived. ----
    if region.len() < core::mem::size_of::<RegionHeader>() {
        return a.refuse(
            "size",
            format!(
                "mapping of {} bytes cannot hold a {}-byte region header",
                region.len(),
                core::mem::size_of::<RegionHeader>()
            ),
        );
    }
    // The mapping is at least header-sized; the header type is repr(C)
    // atomics, for which every bit pattern is valid.
    let header = header_of(region);
    let magic = header.magic();
    if magic != MAGIC {
        return a.refuse(
            "magic",
            format!("expected {MAGIC:#018x}, found {magic:#018x} — not an ffq-shm region"),
        );
    }
    let version = header.version();
    if version != VERSION {
        return a.refuse(
            "version",
            format!("this binary audits v{VERSION} regions, found v{version}"),
        );
    }
    let lifecycle = match header.lifecycle_state() {
        None => {
            return a.refuse(
                "lifecycle",
                "lifecycle word holds a value outside the state machine".to_string(),
            )
        }
        Some(s) => s,
    };
    match lifecycle {
        Lifecycle::Ready => {}
        Lifecycle::Poisoned => {
            a.violation(
                "lifecycle",
                "region is POISONED (a peer died mid-operation or poisoned explicitly)".to_string(),
            );
        }
        // Valid magic with a pre-READY lifecycle word: the creator died
        // in the few stores between writing identity and publishing.
        Lifecycle::Raw | Lifecycle::Initializing => {
            return a.refuse(
                "lifecycle",
                format!(
                    "region carries identity but is still {lifecycle:?} — creator died mid-format"
                ),
            );
        }
    }
    let cfg = match QueueConfig::decode(header.config_words()) {
        Ok(cfg) => cfg,
        Err(e) => return a.refuse("config", format!("config words do not decode: {e}")),
    };
    a.note(
        "config",
        format!(
            "variant {} · capacity 2^{} · elem {} B align {} · cell layout {} · index map {}{}",
            cfg.variant,
            cfg.cap_log2,
            cfg.elem_size,
            cfg.elem_align,
            cfg.cell_layout,
            cfg.index_map,
            if variant_is_bytes(cfg.variant) {
                format!(" · slot 2^{} B", cfg.slot_log2)
            } else {
                String::new()
            }
        ),
    );

    // ---- 2. Geometry: the header must agree with itself. ----
    let slot_log2 = variant_is_bytes(cfg.variant).then_some(cfg.slot_log2);
    let cell = dynamic_cell_geometry(
        cfg.cell_layout,
        cfg.elem_size as usize,
        cfg.elem_align as usize,
    );
    let layout = cell.and_then(|cell| region_layout(cell, cfg.cap_log2, slot_log2));
    let (Some(cell), Some(layout)) = (cell, layout) else {
        return a.refuse(
            "layout",
            "config describes a geometry this binary cannot recompute".to_string(),
        );
    };
    let (state_offset, cells_offset, total_len) =
        (layout.state_offset, layout.cells_offset, layout.total_len);
    if cfg.state_offset as usize != state_offset
        || cfg.cells_offset as usize != cells_offset
        || cfg.region_len != total_len as u64
    {
        return a.refuse(
            "layout",
            format!(
                "recorded offsets (state {}, cells {}, len {}) disagree with recomputed \
                 (state {state_offset}, cells {cells_offset}, len {total_len})",
                cfg.state_offset, cfg.cells_offset, cfg.region_len
            ),
        );
    }
    if region.len() < total_len {
        return a.refuse(
            "layout",
            format!(
                "mapping is {} bytes but the region claims {total_len}",
                region.len()
            ),
        );
    }

    // ---- 3. Counters. ----
    // SAFETY: state_offset was just validated in-bounds and 128-aligned;
    // QueueState is repr(C) atomics + plain words, every bit pattern valid.
    let state = unsafe { &*(region.as_ptr().add(state_offset) as *const QueueState) };
    let head = state.head().load(Ordering::Relaxed);
    let tail = state.tail().load(Ordering::Relaxed);
    let capacity = 1usize << cfg.cap_log2;
    if state.cap_log2() != cfg.cap_log2 {
        a.violation(
            "state",
            format!(
                "state block capacity 2^{} disagrees with header 2^{}",
                state.cap_log2(),
                cfg.cap_log2
            ),
        );
    }
    if head < 0 || tail < 0 {
        a.violation(
            "state",
            format!("negative rank counter (head {head}, tail {tail})"),
        );
    }
    let producers = state.producers().load(Ordering::Relaxed);
    let consumers = state.consumers().load(Ordering::Relaxed);
    if producers > 1 {
        a.violation(
            "state",
            format!("{producers} producers on a single-producer queue"),
        );
    }
    a.note(
        "state",
        format!(
            "head {head} · tail {tail} · {producers} producer(s) · {consumers} consumer(s) \
             · {} buffered (capacity {capacity})",
            tail.saturating_sub(head).max(0)
        ),
    );

    // ---- 4/5. Cells. ----
    if lifecycle == Lifecycle::Ready {
        let cells = Cells {
            // SAFETY: cells_offset validated in-bounds for the full array.
            base: unsafe { region.as_ptr().add(cells_offset) },
            stride: cell.size,
            count: capacity,
        };
        if cfg.variant == VARIANT_BROADCAST {
            audit_broadcast_cells(&mut a, &cells, &cfg, opts.watch);
        } else {
            audit_point_to_point_cells(&mut a, &cells, &cfg);
        }
    } else {
        a.note(
            "cells",
            "cell audit skipped: poisoned region makes no cell-state promises".to_string(),
        );
    }

    // ---- 6. Peers. ----
    audit_peers(&mut a, header, &cfg, opts.watch);

    a.finish()
}

/// Geometry of the region's cell array, recomputed for raw traversal.
struct Cells {
    base: *const u8,
    stride: usize,
    count: usize,
}

impl Cells {
    /// The `(rank, gap)` / `(stamp, gap)` word pair of cell `i`, loaded
    /// untorn.
    fn words(&self, i: usize) -> (i64, i64) {
        debug_assert!(i < self.count);
        // SAFETY: i in bounds; the DoubleWord is the first field of both
        // cell layouts (repr(C)), 16-aligned by the array's construction.
        let words = unsafe { &*(self.base.add(i * self.stride) as *const DoubleWord) };
        words.load_pair_untorn(Ordering::Acquire)
    }
}

/// Rank/gap continuity for the point-to-point variants, plus descriptor
/// sanity for the bytes lanes.
fn audit_point_to_point_cells(a: &mut Audit, cells: &Cells, cfg: &QueueConfig) {
    let is_bytes = variant_is_bytes(cfg.variant);
    let mut published = 0usize;
    let mut claimed = 0usize;
    let mut gaps = 0usize;
    let mut bad = 0usize;
    for i in 0..cells.count {
        let (rank, gap) = cells.words(i);
        match rank {
            RANK_FREE => {}
            RANK_CLAIMED => claimed += 1,
            r if r >= 0 => {
                published += 1;
                if map_slot(cfg.index_map, r, cfg.cap_log2) != i {
                    bad += 1;
                    if bad <= 3 {
                        a.violation(
                            "cells",
                            format!(
                                "cell {i} holds rank {r}, which maps to slot {} — rank \
                                 continuity broken",
                                map_slot(cfg.index_map, r, cfg.cap_log2)
                            ),
                        );
                    }
                }
                if is_bytes {
                    audit_descriptor(a, cfg, cells, i);
                }
            }
            r => {
                bad += 1;
                if bad <= 3 {
                    a.violation("cells", format!("cell {i} holds invalid rank {r}"));
                }
            }
        }
        match gap {
            GAP_NONE => {}
            g if g >= 0 => {
                gaps += 1;
                if map_slot(cfg.index_map, g, cfg.cap_log2) != i {
                    bad += 1;
                    if bad <= 3 {
                        a.violation(
                            "cells",
                            format!(
                                "cell {i} announces gap rank {g}, which maps to slot {}",
                                map_slot(cfg.index_map, g, cfg.cap_log2)
                            ),
                        );
                    }
                }
            }
            g => {
                bad += 1;
                if bad <= 3 {
                    a.violation("cells", format!("cell {i} holds invalid gap word {g}"));
                }
            }
        }
    }
    if bad > 3 {
        a.violation("cells", format!("… and {} more cell violations", bad - 3));
    }
    a.note(
        "cells",
        format!(
            "{} cells scanned: {published} published · {claimed} claimed · {gaps} gap-marked",
            cells.count
        ),
    );
}

/// Validates the published payload descriptor in bytes-lane cell `i`.
///
/// The read races with the consumer retiring the cell, so the descriptor
/// copy only counts if the rank word is unchanged on both sides of it
/// (seqlock-style validation); otherwise the cell is simply skipped.
fn audit_descriptor(a: &mut Audit, cfg: &QueueConfig, cells: &Cells, i: usize) {
    let elem_align = cfg.elem_align as usize;
    let data_offset = round_up(16, elem_align);
    let before = cells.words(i);
    // SAFETY: in-bounds (cell i's data field, validated geometry); the
    // descriptor is plain words and the copy is re-validated below.
    let desc =
        unsafe { (cells.base.add(i * cells.stride + data_offset) as *const PayloadDesc).read() };
    if cells.words(i) != before || before.0 < 0 {
        return; // Cell moved under us (or was never published): no claim.
    }
    let slot_bytes = 1u64 << cfg.slot_log2;
    match desc.flags {
        DESC_INLINE => {
            if desc.len > slot_bytes {
                a.violation(
                    "descriptors",
                    format!(
                        "cell {i}: inline descriptor of {} bytes exceeds the {slot_bytes}-byte \
                         slot buffer",
                        desc.len
                    ),
                );
            }
        }
        DESC_CHAIN_HEAD | DESC_CHAIN_CONT => {
            if cfg.variant != crate::header::VARIANT_SPSC_BYTES {
                a.violation(
                    "descriptors",
                    format!(
                        "cell {i}: chain descriptor on a variant that refuses spill (flags {})",
                        desc.flags
                    ),
                );
            }
        }
        DESC_ABORT => {}
        DESC_HEAP => {
            a.violation(
                "descriptors",
                format!("cell {i}: heap-spill descriptor cannot cross address spaces"),
            );
        }
        f => {
            a.violation(
                "descriptors",
                format!("cell {i}: unknown descriptor discriminant {f}"),
            );
        }
    }
}

/// Seqlock stamp parity for the v4 broadcast variant: stamps decode to a
/// rank that maps home, and no stamp stays *odd* (writer mid-publish)
/// across the watch window.
fn audit_broadcast_cells(a: &mut Audit, cells: &Cells, cfg: &QueueConfig, watch: Duration) {
    let mut published = 0usize;
    let mut bad = 0usize;
    let mut odd: Vec<(usize, i64)> = Vec::new();
    for i in 0..cells.count {
        let (stamp, _) = cells.words(i);
        match stamp {
            RANK_FREE => {}
            s if s >= 1 && s % 2 == 1 => odd.push((i, s)),
            s if s >= 2 => {
                published += 1;
                // seq_published(rank) = 2·rank + 2.
                let rank = (s - 2) / 2;
                if map_slot(cfg.index_map, rank, cfg.cap_log2) != i {
                    bad += 1;
                    if bad <= 3 {
                        a.violation(
                            "broadcast",
                            format!(
                                "cell {i} stamp {s} decodes to rank {rank}, which maps to \
                                 slot {}",
                                map_slot(cfg.index_map, rank, cfg.cap_log2)
                            ),
                        );
                    }
                }
            }
            s => {
                bad += 1;
                if bad <= 3 {
                    a.violation("broadcast", format!("cell {i} holds invalid stamp {s}"));
                }
            }
        }
    }
    if !odd.is_empty() {
        // An odd stamp is legal for the nanoseconds of one racy payload
        // write; across the whole watch window it means the writer died
        // between its odd and even stores.
        std::thread::sleep(watch);
        for (i, stamp) in odd {
            let (now, _) = cells.words(i);
            if now == stamp {
                a.violation(
                    "broadcast",
                    format!(
                        "cell {i} stamp {stamp} stayed mid-write (odd) across the watch \
                         window — writer died mid-publish"
                    ),
                );
            }
        }
    }
    if bad > 3 {
        a.violation(
            "broadcast",
            format!("… and {} more stamp violations", bad - 3),
        );
    }
    a.note(
        "broadcast",
        format!("{} cells scanned: {published} published", cells.count),
    );
}

/// Heartbeat freshness per registered peer slot, escalating to the
/// `kill(pid, 0)` probe exactly like the in-protocol watchdog.
fn audit_peers(a: &mut Audit, header: &RegionHeader, cfg: &QueueConfig, watch: Duration) {
    let consumer_slots = if cfg.variant == VARIANT_SPSC {
        1
    } else {
        MAX_CONSUMERS
    };
    let slots: Vec<(&'static str, usize, &crate::header::PeerSlot)> =
        std::iter::once(("producer", 0, header.producer_slot()))
            .chain((0..consumer_slots).map(|i| ("consumer", i, header.consumer_slot(i))))
            .collect();

    // First sample.
    let sampled: Vec<(i64, u64)> = slots
        .iter()
        .map(|(_, _, s)| (s.pid(), s.heartbeat()))
        .collect();
    let any_live = sampled.iter().any(|&(pid, _)| pid > 0);
    if any_live {
        std::thread::sleep(watch);
    }
    let mut attached = 0usize;
    for ((role, idx, slot), (pid, hb0)) in slots.iter().zip(sampled) {
        match pid {
            PEER_FREE => {}
            PEER_DETACHED => a.note("peers", format!("{role} slot {idx}: detached cleanly")),
            pid if pid > 0 => {
                attached += 1;
                let hb1 = slot.heartbeat();
                if hb1 != hb0 {
                    a.note(
                        "peers",
                        format!("{role} slot {idx}: pid {pid} alive (heartbeat advancing)"),
                    );
                } else if pid_alive(pid) {
                    a.note(
                        "peers",
                        format!("{role} slot {idx}: pid {pid} alive (idle heartbeat)"),
                    );
                } else {
                    a.violation(
                        "peers",
                        format!(
                            "{role} slot {idx}: pid {pid} is registered but dead — the \
                             in-protocol watchdog will poison this queue"
                        ),
                    );
                }
            }
            pid => a.violation(
                "peers",
                format!("{role} slot {idx}: invalid pid word {pid}"),
            ),
        }
    }
    a.note("peers", format!("{attached} peer(s) attached"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{broadcast, spmc, spsc, spsc_bytes};
    use ffq::cell::{CompactCell, PaddedCell};

    /// The runtime geometry must agree with the compiler for every shipped
    /// cell/element combination — this is what lets the verifier walk cell
    /// arrays it has no type parameters for.
    #[test]
    fn dynamic_cell_geometry_matches_the_compiler() {
        fn check<T>() {
            let size = core::mem::size_of::<T>();
            let align = core::mem::align_of::<T>();
            assert_eq!(
                dynamic_cell_geometry(1, size, align).unwrap(),
                CellGeometry {
                    size: core::mem::size_of::<PaddedCell<T>>(),
                    align: core::mem::align_of::<PaddedCell<T>>(),
                },
                "padded cell geometry for {}",
                core::any::type_name::<T>()
            );
            assert_eq!(
                dynamic_cell_geometry(2, size, align).unwrap(),
                CellGeometry {
                    size: core::mem::size_of::<CompactCell<T>>(),
                    align: core::mem::align_of::<CompactCell<T>>(),
                },
                "compact cell geometry for {}",
                core::any::type_name::<T>()
            );
        }
        check::<u32>();
        check::<u64>();
        check::<[u8; 16]>();
        check::<[u8; 32]>();
        check::<[u8; 64]>();
        check::<[u64; 7]>();
        check::<PayloadDesc>();
        assert_eq!(dynamic_cell_geometry(3, 8, 8), None, "unknown discriminant");
        assert_eq!(
            dynamic_cell_geometry(1, 8, 3),
            None,
            "non-power-of-two align"
        );
    }

    fn quick_opts() -> VerifyOptions {
        VerifyOptions {
            watch: Duration::from_millis(20),
        }
    }

    #[test]
    fn healthy_live_region_is_clean() {
        let region = ShmRegion::create_memfd(spmc::required_size::<u64>(64).unwrap()).unwrap();
        let mut tx = spmc::create::<u64>(region.clone(), 64).unwrap();
        let mut rx = spmc::attach_consumer::<u64>(region.remap().unwrap()).unwrap();
        for i in 0..40u64 {
            tx.enqueue(i).unwrap();
        }
        for _ in 0..10 {
            rx.dequeue().unwrap();
        }
        let report = verify_region(&region.remap_readonly().unwrap(), &quick_opts());
        assert!(report.is_clean(), "healthy region flagged:\n{report}");
        assert_eq!(report.exit_code(), 0);
    }

    #[test]
    fn healthy_bytes_region_is_clean() {
        let region = ShmRegion::create_memfd(spsc_bytes::required_size(16, 128).unwrap()).unwrap();
        let mut tx = spsc_bytes::create(region.clone(), 16, 128).unwrap();
        tx.send_bytes(b"payload one").unwrap();
        tx.send_bytes(&[7u8; 300]).unwrap(); // chain-spilled
        let report = verify_region(&region.remap_readonly().unwrap(), &quick_opts());
        assert!(report.is_clean(), "healthy bytes region flagged:\n{report}");
    }

    #[test]
    fn healthy_broadcast_region_is_clean() {
        let region = ShmRegion::create_memfd(broadcast::required_size::<u64>(32).unwrap()).unwrap();
        let mut tx = broadcast::create::<u64>(region.clone(), 32).unwrap();
        for i in 0..100u64 {
            tx.send(i); // wraps: every cell re-stamped several times
        }
        let report = verify_region(&region.remap_readonly().unwrap(), &quick_opts());
        assert!(
            report.is_clean(),
            "healthy broadcast region flagged:\n{report}"
        );
    }

    #[test]
    fn poisoned_region_is_unhealthy() {
        let region = ShmRegion::create_memfd(spsc::required_size::<u64>(16).unwrap()).unwrap();
        let tx = spsc::create::<u64>(region.clone(), 16).unwrap();
        tx.poison();
        let report = verify_region(&region.remap_readonly().unwrap(), &quick_opts());
        assert_eq!(report.verdict, Verdict::Unhealthy);
        assert_eq!(report.exit_code(), 1);
    }

    #[test]
    fn dead_registered_peer_is_unhealthy() {
        let region = ShmRegion::create_memfd(spmc::required_size::<u64>(16).unwrap()).unwrap();
        spmc::format::<u64>(&region, 16).unwrap();
        // A pid that cannot exist (beyond pid_max) in the producer slot:
        // the same trick the attach tests use for a crashed peer.
        let header = unsafe { &*(region.as_ptr() as *const RegionHeader) };
        assert!(header.producer_slot().try_claim((1 << 22) + 1));
        let report = verify_region(&region.remap_readonly().unwrap(), &quick_opts());
        assert_eq!(report.verdict, Verdict::Unhealthy);
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.check == "peers" && f.severity == Severity::Violation),
            "expected a dead-peer finding:\n{report}"
        );
    }

    #[test]
    fn truncated_and_corrupted_regions_are_refused_without_ub() {
        // Too small for a header.
        let tiny = ShmRegion::create_memfd(64).unwrap();
        let report = verify_region(&tiny, &quick_opts());
        assert_eq!(report.verdict, Verdict::Refused);
        assert_eq!(report.exit_code(), 2);

        // Zeroed (RAW) region: refused on magic.
        let raw = ShmRegion::create_memfd(4096).unwrap();
        let report = verify_region(&raw, &quick_opts());
        assert_eq!(report.verdict, Verdict::Refused);
        assert!(report.findings.iter().any(|f| f.check == "magic"));

        // Garbage bytes: refused, never dereferenced past the header.
        let junk = ShmRegion::create_memfd(4096).unwrap();
        for i in 0..4096 {
            // SAFETY: in-bounds writes to our own fresh mapping.
            unsafe { *junk.as_ptr().add(i) = (i * 37 + 11) as u8 };
        }
        assert_eq!(
            verify_region(&junk, &quick_opts()).verdict,
            Verdict::Refused
        );

        // A real region truncated mid-cells: the header claims more bytes
        // than the mapping holds.
        let real = ShmRegion::create_memfd(spsc::required_size::<u64>(256).unwrap()).unwrap();
        spsc::format::<u64>(&real, 256).unwrap();
        let header_len = 2048; // header + state, but not the full cell array
        let trunc = ShmRegion::create_memfd(header_len).unwrap();
        // SAFETY: both mappings are at least header_len bytes.
        unsafe {
            core::ptr::copy_nonoverlapping(real.as_ptr(), trunc.as_ptr(), header_len);
        }
        let report = verify_region(&trunc, &quick_opts());
        assert_eq!(report.verdict, Verdict::Refused);
        assert!(
            report.findings.iter().any(|f| f.check == "layout"),
            "expected a layout refusal:\n{report}"
        );
    }

    #[test]
    fn rank_continuity_violation_is_flagged() {
        let region = ShmRegion::create_memfd(spsc::required_size::<u64>(16).unwrap()).unwrap();
        let mut tx = spsc::create::<u64>(region.clone(), 16).unwrap();
        tx.enqueue(1).unwrap();
        // Corrupt cell 0's rank word to a rank that maps elsewhere.
        let cfg = QueueConfig::decode(
            unsafe { &*(region.as_ptr() as *const RegionHeader) }.config_words(),
        )
        .unwrap();
        let cells_offset = cfg.cells_offset as usize;
        // SAFETY: in-bounds write to our own region; this deliberately
        // breaks the queue, which is the point of the test.
        let words = unsafe { &*(region.as_ptr().add(cells_offset) as *const DoubleWord) };
        words.store_lo_unpaired(5, Ordering::Release); // slot(5) = 5 ≠ 0
        let report = verify_region(&region.remap_readonly().unwrap(), &quick_opts());
        assert_eq!(report.verdict, Verdict::Unhealthy);
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.check == "cells" && f.detail.contains("rank continuity")),
            "expected a continuity finding:\n{report}"
        );
    }
}
