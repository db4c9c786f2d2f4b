//! Double-word (128-bit) compare-and-set.
//!
//! Algorithm 2 of the paper (FFQ-m) resolves producer/producer races with a
//! `double-compare-and-set` over the *adjacent* `rank` and `gap` fields of a
//! cell, noting that it "can be supported by simply using a 128-bit version
//! of the compare-and-set operation ... and placing the rank and gap fields
//! consecutively". LCRQ needs the same primitive for its `(safe:idx, value)`
//! cells.
//!
//! Rust has no stable `AtomicU128`, so [`DoubleWord`] provides exactly this:
//! a 16-byte-aligned pair of `i64` words with
//!
//! * single-word atomic loads/stores on each half,
//! * untorn snapshots of the pair, and
//! * an atomic [`compare_exchange`](DoubleWord::compare_exchange) over the
//!   whole pair.
//!
//! On `x86_64` with the `cmpxchg16b` feature (every CPU the paper targets)
//! the pair CAS is a native `lock cmpxchg16b`. On other targets — or the rare
//! x86_64 CPU without the feature — a lock-striped software emulation is
//! used; in that mode single-word *stores* also take the stripe lock so they
//! cannot interleave with an in-flight emulated CAS (real `cmpxchg16b` is
//! ordered against plain stores by cache coherence; a mutex-based emulation
//! is not, unless stores participate), and paired *reads* must go through
//! [`load_pair`](DoubleWord::load_pair) or
//! [`load_pair_untorn`](DoubleWord::load_pair_untorn) — two separate half
//! loads can observe a torn pair mid-CAS.
//!
//! All pair CAS operations behave as `SeqCst`: `lock`-prefixed instructions
//! are full fences on x86, and the emulation brackets every operation in a
//! mutex.
//!
//! Under `cfg(loom)` the pair is a single 128-bit model atomic, so pair-CAS
//! atomicity and per-half coherence hold by construction and the loom models
//! exercise the same call sites. (One modeling caveat: a half *load* under
//! loom acquires the clock of whichever pair store it reads, even if only
//! the other half changed — a slight over-synchronization that can hide at
//! most missing lo↔hi ordering, which the non-loom TSan job still covers.)

use crate::atomic::Ordering;

#[cfg(not(loom))]
use crate::atomic::AtomicI64;

#[cfg(all(not(loom), target_arch = "x86_64"))]
use crate::atomic::AtomicU8;

/// A 16-byte aligned, atomically CAS-able pair of `i64` words.
///
/// The first word is `lo` ("rank" in FFQ-m cells), the second `hi` ("gap").
#[cfg(not(loom))]
#[repr(C, align(16))]
pub struct DoubleWord {
    lo: AtomicI64,
    hi: AtomicI64,
}

/// Model build: the pair is one 128-bit model location.
#[cfg(loom)]
pub struct DoubleWord {
    pair: ffq_loom::sync::atomic::AtomicU128,
}

/// Number of stripe locks for the software fallback. Power of two.
#[cfg(not(loom))]
const STRIPES: usize = 64;

/// Stripe locks for the emulated path, shared process-wide. Collisions
/// between unrelated `DoubleWord`s only cost performance, never correctness.
#[cfg(not(loom))]
fn stripe(addr: usize) -> std::sync::MutexGuard<'static, ()> {
    static LOCKS: [std::sync::Mutex<()>; STRIPES] = [const { std::sync::Mutex::new(()) }; STRIPES];
    // The pair is 16-byte aligned, so the low 4 bits carry no information.
    LOCKS[(addr >> 4) % STRIPES]
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Whether the native 128-bit CAS is available on this CPU.
#[cfg(not(loom))]
#[inline]
pub fn has_native_dwcas() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        // 0 = unknown, 1 = yes, 2 = no. Feature detection is cheap but not
        // free; cache it.
        static CACHE: AtomicU8 = AtomicU8::new(0);
        match CACHE.load(Ordering::Relaxed) {
            1 => true,
            2 => false,
            _ => detect_native_dwcas(&CACHE),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The first [`has_native_dwcas`] call: detects the feature and caches the
/// answer.
#[cfg(all(not(loom), target_arch = "x86_64"))]
#[cold]
#[inline(never)]
fn detect_native_dwcas(cache: &AtomicU8) -> bool {
    let yes = std::is_x86_feature_detected!("cmpxchg16b");
    cache.store(if yes { 1 } else { 2 }, Ordering::Relaxed);
    yes
}

/// The model pair is always atomic; report "native" so no caller takes a
/// (non-modeled) stripe-lock slow path under loom.
#[cfg(loom)]
#[inline]
pub fn has_native_dwcas() -> bool {
    true
}

/// Whether this CPU has `prefetchw` (PRFCHW), cached like
/// [`has_native_dwcas`].
#[cfg(all(not(loom), not(miri), target_arch = "x86_64"))]
#[inline(always)]
fn has_prefetchw() -> bool {
    // 0 = unknown, 1 = yes, 2 = no.
    static CACHE: AtomicU8 = AtomicU8::new(0);
    match CACHE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => detect_prefetchw(&CACHE),
    }
}

/// The first [`has_prefetchw`] call: reads PRFCHW (CPUID leaf
/// `0x8000_0001`, ECX bit 8) and caches the answer.
/// `is_x86_feature_detected!` does not know the feature.
#[cfg(all(not(loom), not(miri), target_arch = "x86_64"))]
#[cold]
#[inline(never)]
fn detect_prefetchw(cache: &AtomicU8) -> bool {
    use core::arch::x86_64::__cpuid;
    // `__cpuid` is a safe call on newer compilers only.
    #[allow(unused_unsafe)]
    let yes = unsafe {
        __cpuid(0x8000_0000).eax >= 0x8000_0001 && __cpuid(0x8000_0001).ecx & (1 << 8) != 0
    };
    cache.store(if yes { 1 } else { 2 }, Ordering::Relaxed);
    yes
}

/// `lock cmpxchg16b` on the 16-byte pair at `ptr`.
///
/// Returns the value observed in memory and whether the exchange happened.
///
/// # Safety
/// `ptr` must be 16-byte aligned, valid for reads and writes, and the CPU
/// must support `cmpxchg16b` (check [`has_native_dwcas`]).
#[cfg(all(not(loom), target_arch = "x86_64"))]
#[inline]
unsafe fn cmpxchg16b(ptr: *mut i64, expected: (i64, i64), new: (i64, i64)) -> ((i64, i64), bool) {
    debug_assert_eq!(ptr as usize % 16, 0);
    let ok: u64;
    let out_lo: i64;
    let out_hi: i64;
    // `lock cmpxchg16b` compares rdx:rax with [ptr]; on match it stores
    // rcx:rbx, else it loads [ptr] into rdx:rax. ZF reports which happened,
    // and the lock prefix makes the instruction a full memory barrier.
    //
    // rbx cannot be named as an operand (LLVM reserves it), so the new-low
    // word is swapped in and out around the instruction. Every *other*
    // operand is pinned to a named register on purpose: despite the
    // reservation, LLVM has been observed allocating rbx to a `reg`-class
    // operand in frames that juggle rbx themselves (e.g. with an inlined
    // `cpuid` from feature detection), which turned a `[{ptr}]` form of
    // this asm into `cmpxchg16b [rbx]` — a wild write to the new-low
    // *value*. With named registers only, the allocator has nothing left
    // to misplace, and the xchg dance keeps rbx itself net-unchanged.
    unsafe {
        core::arch::asm!(
            "xor r8d, r8d",
            "xchg rbx, rsi",
            "lock cmpxchg16b [rdi]",
            "sete r8b",
            "xchg rbx, rsi",
            in("rdi") ptr,
            inout("rsi") new.0 => _,
            out("r8") ok,
            inout("rax") expected.0 => out_lo,
            inout("rdx") expected.1 => out_hi,
            in("rcx") new.1,
        );
    }
    ((out_lo, out_hi), ok != 0)
}

#[cfg(not(loom))]
impl DoubleWord {
    /// Creates a pair initialized to `(lo, hi)`.
    pub const fn new(lo: i64, hi: i64) -> Self {
        Self {
            lo: AtomicI64::new(lo),
            hi: AtomicI64::new(hi),
        }
    }

    /// Runs `op` under this pair's stripe lock: the emulated path of every
    /// pair operation, taken only on CPUs without a native pair CAS, so it
    /// stays out of line.
    #[cold]
    #[inline(never)]
    fn striped<R>(&self, op: impl FnOnce() -> R) -> R {
        let _g = stripe(self as *const _ as usize);
        op()
    }

    /// Direct access to the low word as an `AtomicI64`.
    ///
    /// Intended for algorithms that never use the pair CAS on this value
    /// (e.g. LCRQ-style baselines): plain atomic operations on a half are
    /// only ordered against [`compare_exchange`](Self::compare_exchange)
    /// on the *native* path, not under the lock-striped emulation — mixing
    /// them there is a logic error. Callers that also pair-CAS must go
    /// through [`store_lo`](Self::store_lo)/[`store_hi`](Self::store_hi).
    /// Not available under `cfg(loom)` (the model pair has no per-half
    /// atomics); model-checked code uses the `DoubleWord` methods instead.
    #[inline]
    pub fn lo_atomic(&self) -> &AtomicI64 {
        &self.lo
    }

    /// Direct access to the high word (see [`lo_atomic`](Self::lo_atomic)).
    #[inline]
    pub fn hi_atomic(&self) -> &AtomicI64 {
        &self.hi
    }

    /// Hints that this thread is about to write the pair: `prefetchw` asks
    /// for the line in the exclusive state, so a load and then a store by
    /// this thread cost one line transfer, not a read miss and then an
    /// upgrade. It loads nothing, stores nothing and orders nothing. A
    /// no-op on other targets, on x86_64 CPUs without PRFCHW, and under
    /// Miri and loom.
    #[inline(always)]
    pub fn prefetch_for_write(&self) {
        #[cfg(all(not(miri), target_arch = "x86_64"))]
        if has_prefetchw() {
            // SAFETY: a prefetch of a live, aligned address; it has no
            // architectural effect and never faults.
            unsafe {
                core::arch::asm!(
                    "prefetchw [{0}]",
                    in(reg) self as *const Self,
                    options(nostack, preserves_flags, readonly),
                );
            }
        }
    }

    /// Atomically loads the low word.
    #[inline]
    pub fn load_lo(&self, order: Ordering) -> i64 {
        self.lo.load(order)
    }

    /// Atomically loads the high word.
    #[inline]
    pub fn load_hi(&self, order: Ordering) -> i64 {
        self.hi.load(order)
    }

    /// Atomically stores the low word.
    ///
    /// Ordered against concurrent [`compare_exchange`](Self::compare_exchange)
    /// calls: a pair CAS either sees the store or happens entirely before it.
    #[inline]
    pub fn store_lo(&self, value: i64, order: Ordering) {
        if has_native_dwcas() {
            self.lo.store(value, order);
        } else {
            self.striped(|| self.lo.store(value, order));
        }
    }

    /// Atomically stores the high word (see [`store_lo`](Self::store_lo)).
    #[inline]
    pub fn store_hi(&self, value: i64, order: Ordering) {
        if has_native_dwcas() {
            self.hi.store(value, order);
        } else {
            self.striped(|| self.hi.store(value, order));
        }
    }

    /// Stores the low word without stripe synchronization.
    ///
    /// Only for cells that are *never* pair-CASed (the single-producer
    /// variants): skips the emulation stripe lock that `store_lo` would
    /// take on CPUs without a native pair CAS.
    #[inline]
    pub fn store_lo_unpaired(&self, value: i64, order: Ordering) {
        self.lo.store(value, order);
    }

    /// Stores the high word without stripe synchronization (see
    /// [`store_lo_unpaired`](Self::store_lo_unpaired)).
    #[inline]
    pub fn store_hi_unpaired(&self, value: i64, order: Ordering) {
        self.hi.store(value, order);
    }

    /// Atomically swaps the low word without stripe synchronization,
    /// returning the previous value. Only for cells that are never
    /// pair-CASed (see [`store_lo_unpaired`](Self::store_lo_unpaired)).
    ///
    /// Unlike a plain store this is a read-modify-write, so it accepts
    /// `AcqRel`: the broadcast lane's seqlock writer uses exactly that to
    /// enter the odd write phase — the Acquire half keeps the payload
    /// stores that follow from being hoisted above the phase transition,
    /// which a Release-only store cannot guarantee (cf. the version
    /// `fetch_add` in [`crate::SeqLock::write_sync`]).
    #[inline]
    pub fn swap_lo_unpaired(&self, value: i64, order: Ordering) -> i64 {
        self.lo.swap(value, order)
    }

    /// Atomically loads both words as one 128-bit snapshot.
    #[inline]
    pub fn load_pair(&self) -> (i64, i64) {
        #[cfg(target_arch = "x86_64")]
        if has_native_dwcas() {
            // cmpxchg16b always returns the current memory value in rdx:rax.
            // Guess the current value so the (harmless) success path rewrites
            // the same bytes.
            let guess = (
                self.lo.load(Ordering::Relaxed),
                self.hi.load(Ordering::Relaxed),
            );
            let ptr = self as *const Self as *mut i64;
            // SAFETY: `self` is a live, 16-byte aligned DoubleWord and the
            // feature was detected.
            let (cur, _) = unsafe { cmpxchg16b(ptr, guess, guess) };
            return cur;
        }
        self.striped(|| {
            (
                self.lo.load(Ordering::Relaxed),
                self.hi.load(Ordering::Relaxed),
            )
        })
    }

    /// Loads both words as an *untorn* pair with the given per-half
    /// ordering: two plain loads where halves are coherent against the pair
    /// CAS (native path), the stripe lock where they are not (emulation).
    ///
    /// Cheaper than [`load_pair`](Self::load_pair) on the native path (no
    /// `lock` instruction) but weaker: the two halves are each atomic and
    /// cannot be torn by an emulated CAS, yet the snapshot is not a single
    /// point in the pair's modification order. That is exactly what the
    /// FFQ consumer's paired `(rank, gap)` reads need — each half is
    /// re-validated by the protocol, but a torn emulated write must never
    /// be visible.
    #[inline]
    pub fn load_pair_untorn(&self, order: Ordering) -> (i64, i64) {
        if has_native_dwcas() {
            (self.lo.load(order), self.hi.load(order))
        } else {
            self.striped(|| (self.lo.load(order), self.hi.load(order)))
        }
    }

    /// Atomically replaces `(lo, hi)` with `new` iff it currently equals
    /// `expected`.
    ///
    /// Returns `Ok(())` on success and `Err(observed_pair)` on failure.
    /// Sequentially consistent in both outcomes.
    #[inline]
    pub fn compare_exchange(
        &self,
        expected: (i64, i64),
        new: (i64, i64),
    ) -> Result<(), (i64, i64)> {
        #[cfg(target_arch = "x86_64")]
        if has_native_dwcas() {
            let ptr = self as *const Self as *mut i64;
            // SAFETY: as in `load_pair`.
            let (cur, ok) = unsafe { cmpxchg16b(ptr, expected, new) };
            return if ok { Ok(()) } else { Err(cur) };
        }
        self.striped(|| {
            let cur = (
                self.lo.load(Ordering::Relaxed),
                self.hi.load(Ordering::Relaxed),
            );
            if cur == expected {
                self.lo.store(new.0, Ordering::Relaxed);
                self.hi.store(new.1, Ordering::Relaxed);
                // Emulated path: the mutex release publishes the stores.
                Ok(())
            } else {
                Err(cur)
            }
        })
    }
}

#[cfg(loom)]
impl DoubleWord {
    #[inline]
    fn pack(lo: i64, hi: i64) -> u128 {
        (lo as u64 as u128) | ((hi as u64 as u128) << 64)
    }

    #[inline]
    fn unpack(v: u128) -> (i64, i64) {
        (v as u64 as i64, (v >> 64) as u64 as i64)
    }

    /// Creates a pair initialized to `(lo, hi)`.
    pub const fn new(lo: i64, hi: i64) -> Self {
        Self {
            pair: ffq_loom::sync::atomic::AtomicU128::new(
                (lo as u64 as u128) | ((hi as u64 as u128) << 64),
            ),
        }
    }

    /// A hint with no memory effect: nothing to model.
    #[inline(always)]
    pub fn prefetch_for_write(&self) {}

    /// Atomically loads the low word.
    #[inline]
    pub fn load_lo(&self, order: Ordering) -> i64 {
        Self::unpack(self.pair.load(order)).0
    }

    /// Atomically loads the high word.
    #[inline]
    pub fn load_hi(&self, order: Ordering) -> i64 {
        Self::unpack(self.pair.load(order)).1
    }

    /// Atomically stores the low word (modeled as a pair RMW so the other
    /// half keeps per-half coherence).
    #[inline]
    pub fn store_lo(&self, value: i64, order: Ordering) {
        self.pair.rmw_update(order, |cur| {
            let (_, hi) = Self::unpack(cur);
            Self::pack(value, hi)
        });
    }

    /// Atomically stores the high word.
    #[inline]
    pub fn store_hi(&self, value: i64, order: Ordering) {
        self.pair.rmw_update(order, |cur| {
            let (lo, _) = Self::unpack(cur);
            Self::pack(lo, value)
        });
    }

    /// Same as [`store_lo`](Self::store_lo) under the model.
    #[inline]
    pub fn store_lo_unpaired(&self, value: i64, order: Ordering) {
        self.store_lo(value, order);
    }

    /// Same as [`store_hi`](Self::store_hi) under the model.
    #[inline]
    pub fn store_hi_unpaired(&self, value: i64, order: Ordering) {
        self.store_hi(value, order);
    }

    /// Atomic low-word swap (modeled as a pair RMW), returning the
    /// previous low word.
    #[inline]
    pub fn swap_lo_unpaired(&self, value: i64, order: Ordering) -> i64 {
        let prev = self.pair.rmw_update(order, |cur| {
            let (_, hi) = Self::unpack(cur);
            Self::pack(value, hi)
        });
        Self::unpack(prev).0
    }

    /// Atomically loads both words as one snapshot.
    #[inline]
    pub fn load_pair(&self) -> (i64, i64) {
        Self::unpack(self.pair.load(Ordering::SeqCst))
    }

    /// Untorn pair load (a single model location is always untorn).
    #[inline]
    pub fn load_pair_untorn(&self, order: Ordering) -> (i64, i64) {
        Self::unpack(self.pair.load(order))
    }

    /// Atomic pair compare-exchange (SeqCst both outcomes, like native).
    #[inline]
    pub fn compare_exchange(
        &self,
        expected: (i64, i64),
        new: (i64, i64),
    ) -> Result<(), (i64, i64)> {
        match self.pair.compare_exchange(
            Self::pack(expected.0, expected.1),
            Self::pack(new.0, new.1),
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(_) => Ok(()),
            Err(cur) => Err(Self::unpack(cur)),
        }
    }
}

impl core::fmt::Debug for DoubleWord {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let (lo, hi) = self.load_pair();
        f.debug_struct("DoubleWord")
            .field("lo", &lo)
            .field("hi", &hi)
            .finish()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn layout_is_16_byte_aligned_pair() {
        assert_eq!(core::mem::size_of::<DoubleWord>(), 16);
        assert_eq!(core::mem::align_of::<DoubleWord>(), 16);
    }

    #[test]
    fn single_thread_cas_semantics() {
        let d = DoubleWord::new(1, 2);
        assert_eq!(d.load_pair(), (1, 2));
        assert_eq!(d.compare_exchange((0, 0), (9, 9)), Err((1, 2)));
        assert_eq!(d.compare_exchange((1, 2), (3, 4)), Ok(()));
        assert_eq!(d.load_pair(), (3, 4));
        assert_eq!(d.load_lo(Ordering::Relaxed), 3);
        assert_eq!(d.load_hi(Ordering::Relaxed), 4);
        assert_eq!(d.load_pair_untorn(Ordering::Acquire), (3, 4));
    }

    #[test]
    fn half_word_stores_visible_to_cas() {
        let d = DoubleWord::new(-1, -1);
        d.store_lo(7, Ordering::SeqCst);
        d.store_hi(8, Ordering::SeqCst);
        assert_eq!(d.compare_exchange((7, 8), (0, 0)), Ok(()));
    }

    #[test]
    fn unpaired_stores_visible_to_unpaired_reads() {
        let d = DoubleWord::new(-1, -1);
        d.store_lo_unpaired(5, Ordering::Release);
        d.store_hi_unpaired(6, Ordering::Release);
        assert_eq!(d.load_pair_untorn(Ordering::Acquire), (5, 6));
    }

    #[test]
    fn swap_lo_returns_previous_and_keeps_hi() {
        let d = DoubleWord::new(3, 9);
        assert_eq!(d.swap_lo_unpaired(7, Ordering::AcqRel), 3);
        assert_eq!(d.load_lo(Ordering::Relaxed), 7);
        assert_eq!(d.load_hi(Ordering::Relaxed), 9, "hi word untouched");
    }

    #[test]
    fn prefetch_for_write_changes_nothing() {
        // The first call detects the feature, the second reads the cache.
        let d = DoubleWord::new(3, 9);
        d.prefetch_for_write();
        d.prefetch_for_write();
        assert_eq!(d.load_pair(), (3, 9));
    }

    #[test]
    fn native_detection_is_stable() {
        let a = has_native_dwcas();
        let b = has_native_dwcas();
        assert_eq!(a, b);
        // This repository's CI target is x86_64; make regressions loud there.
        #[cfg(target_arch = "x86_64")]
        assert!(a, "cmpxchg16b expected on x86_64 test hosts");
    }

    /// Writers only ever install pairs with lo == hi; readers must never
    /// observe a torn pair.
    #[test]
    fn no_torn_pairs_under_contention() {
        let d = Arc::new(DoubleWord::new(0, 0));
        let stop = Arc::new(AtomicI64::new(0));
        let mut handles = Vec::new();
        for t in 0..2 {
            let d = Arc::clone(&d);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut i = t as i64;
                while stop.load(Ordering::Relaxed) == 0 {
                    let cur = d.load_pair();
                    let _ = d.compare_exchange(cur, (i, i));
                    i += 2;
                }
            }));
        }
        for _ in 0..100_000 {
            let (lo, hi) = d.load_pair();
            assert_eq!(lo, hi, "torn 128-bit read: ({lo}, {hi})");
        }
        stop.store(1, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
    }

    /// Concurrent CAS-increments of both halves must not lose updates.
    #[test]
    fn cas_increments_lose_nothing() {
        const THREADS: usize = 4;
        const PER_THREAD: i64 = 20_000;
        let d = Arc::new(DoubleWord::new(0, 0));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let d = Arc::clone(&d);
                std::thread::spawn(move || {
                    for _ in 0..PER_THREAD {
                        loop {
                            let cur = d.load_pair();
                            if d.compare_exchange(cur, (cur.0 + 1, cur.1 + 2)).is_ok() {
                                break;
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total = THREADS as i64 * PER_THREAD;
        assert_eq!(d.load_pair(), (total, 2 * total));
    }
}
