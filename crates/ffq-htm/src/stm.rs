//! A TL2-style word-granular software transactional memory.
//!
//! Classic two-phase design over a fixed array of versioned words:
//!
//! * **Read phase** — sample the global version clock (`rv`), then read
//!   words optimistically; abort if a word is locked or newer than `rv`.
//! * **Commit phase** — lock the write set (bounded spin: abort on
//!   contention, like a real HTM conflict), bump the clock, re-validate the
//!   read set, publish the writes with the new version.
//!
//! Read-only transactions commit without touching the clock or any lock.

use core::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use ffq_sync::CachePadded;

use crate::stats::{AbortCause, HtmStats};

/// Word version/lock: bit 0 = locked, bits 63..1 = version.
struct VWord {
    meta: AtomicU64,
    value: AtomicU64,
}

const LOCKED: u64 = 1;

impl VWord {
    fn new(value: u64) -> Self {
        Self {
            meta: AtomicU64::new(0),
            value: AtomicU64::new(value),
        }
    }
}

/// A fixed-size transactional memory region of `u64` words.
///
/// The HTM-queue baseline lays its head, tail and buffer cells out as words
/// of one region and runs every queue operation as a transaction, mirroring
/// the paper's "enqueue and dequeue operations inside hardware transactions".
pub struct TxRegion {
    words: Box<[VWord]>,
    /// TL2 global version clock.
    clock: CachePadded<AtomicU64>,
    /// Lock-elision fallback; serializes fallback holders against each
    /// other (exclusion vs. speculation flows through the word locks).
    fallback: Mutex<()>,
    stats: HtmStats,
    max_retries: u32,
    /// Emulated capacity limit: total (read + write) set size per attempt.
    set_capacity: usize,
}

/// Abort reason surfaced to the transaction body; propagate it with `?`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Abort(pub(crate) AbortCause);

impl Abort {
    /// Request an explicit retry of the enclosing transaction.
    pub fn retry() -> Self {
        Abort(AbortCause::Explicit)
    }
}

/// An in-flight speculative transaction. Created by
/// [`TxRegion::transaction`]; read and write words through it.
pub struct Tx<'r> {
    region: &'r TxRegion,
    rv: u64,
    read_set: Vec<(usize, u64)>,
    /// Write set with write-before-read-your-writes semantics.
    write_set: Vec<(usize, u64)>,
    /// Fallback mode: the caller holds every word lock, so reads are served
    /// directly and nothing aborts (real HTM fallbacks are non-speculative).
    exclusive: bool,
}

impl<'r> Tx<'r> {
    /// Transactionally reads word `idx`.
    pub fn read(&mut self, idx: usize) -> Result<u64, Abort> {
        // Read-your-writes.
        if let Some(&(_, v)) = self.write_set.iter().rev().find(|&&(i, _)| i == idx) {
            return Ok(v);
        }
        if self.exclusive {
            return Ok(self.region.words[idx].value.load(Ordering::Acquire));
        }
        if self.read_set.len() + self.write_set.len() >= self.region.set_capacity {
            return Err(Abort(AbortCause::Capacity));
        }
        let w = &self.region.words[idx];
        // TL2 read: meta must be unlocked and not newer than our snapshot,
        // both before and after the value read (the second check subsumes
        // the first for a racing commit).
        let m1 = w.meta.load(Ordering::Acquire);
        if m1 & LOCKED != 0 {
            return Err(Abort(AbortCause::Locked));
        }
        let value = w.value.load(Ordering::Acquire);
        let m2 = w.meta.load(Ordering::Acquire);
        if m1 != m2 || (m2 >> 1) > self.rv {
            return Err(Abort(AbortCause::Validation));
        }
        self.read_set.push((idx, m2));
        Ok(value)
    }

    /// Transactionally writes `value` to word `idx` (buffered until commit).
    pub fn write(&mut self, idx: usize, value: u64) -> Result<(), Abort> {
        if let Some(entry) = self.write_set.iter_mut().find(|e| e.0 == idx) {
            entry.1 = value;
            return Ok(());
        }
        if !self.exclusive && self.read_set.len() + self.write_set.len() >= self.region.set_capacity
        {
            return Err(Abort(AbortCause::Capacity));
        }
        self.write_set.push((idx, value));
        Ok(())
    }

    /// Attempts to commit; returns the abort cause on failure.
    fn commit(self) -> Result<(), Abort> {
        let region = self.region;
        if self.write_set.is_empty() {
            // Read-only: the per-read validation already proved a consistent
            // snapshot at version rv.
            return Ok(());
        }

        // Phase 1: lock the write set (sorted to avoid livelock between
        // writers; bounded — busy means conflict, abort like real HTM).
        let mut locked: Vec<usize> = Vec::with_capacity(self.write_set.len());
        let mut set: Vec<usize> = self.write_set.iter().map(|&(i, _)| i).collect();
        set.sort_unstable();
        set.dedup();
        let unlock = |ids: &[usize]| {
            for &i in ids {
                let w = &region.words[i];
                w.meta
                    .store(w.meta.load(Ordering::Relaxed) & !LOCKED, Ordering::Release);
            }
        };
        for &i in &set {
            let w = &region.words[i];
            let m = w.meta.load(Ordering::Relaxed);
            if m & LOCKED != 0
                || w.meta
                    .compare_exchange(m, m | LOCKED, Ordering::Acquire, Ordering::Relaxed)
                    .is_err()
            {
                unlock(&locked);
                return Err(Abort(AbortCause::Locked));
            }
            locked.push(i);
        }

        // Phase 2: new version.
        let wv = region.clock.fetch_add(1, Ordering::AcqRel) + 1;

        // Phase 3: validate the read set. Words we ourselves locked in
        // phase 1 are compared with the lock bit masked out — their version
        // must still be the one we read (a read-modify-write that lost a
        // race sees a newer version here and aborts).
        for &(i, m_seen) in &self.read_set {
            let m = region.words[i].meta.load(Ordering::Acquire);
            let owned = set.binary_search(&i).is_ok();
            let effective = if owned { m & !LOCKED } else { m };
            if effective != m_seen {
                unlock(&locked);
                return Err(Abort(AbortCause::Validation));
            }
        }

        // Phase 4: publish writes and release with the new version.
        for &(i, v) in &self.write_set {
            region.words[i].value.store(v, Ordering::Release);
        }
        for &i in &set {
            region.words[i].meta.store(wv << 1, Ordering::Release);
        }
        Ok(())
    }
}

impl TxRegion {
    /// Creates a region of `len` words, all zero, with speculative attempts
    /// capped at `max_retries` before falling back to the global lock.
    pub fn new(len: usize, max_retries: u32) -> Self {
        Self::with_capacity_limit(len, max_retries, usize::MAX)
    }

    /// Like [`new`](Self::new) but with an emulated read+write-set capacity,
    /// mirroring HTM capacity aborts (L1-sized working sets).
    pub fn with_capacity_limit(len: usize, max_retries: u32, set_capacity: usize) -> Self {
        Self {
            words: (0..len).map(|_| VWord::new(0)).collect(),
            clock: CachePadded::new(AtomicU64::new(0)),
            fallback: Mutex::new(()),
            stats: HtmStats::default(),
            max_retries,
            set_capacity,
        }
    }

    /// Number of words in the region.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when the region has zero words.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Runs `body` as a transaction: speculative attempts with exponential
    /// back-off, then the fallback lock. Always completes (the fallback path
    /// cannot abort), like the canonical HTM retry template.
    pub fn transaction<R>(&self, mut body: impl FnMut(&mut Tx<'_>) -> Result<R, Abort>) -> R {
        let mut backoff = ffq_sync::Backoff::new();
        for _ in 0..self.max_retries {
            let mut tx = Tx {
                region: self,
                rv: self.clock.load(Ordering::Acquire),
                read_set: Vec::with_capacity(8),
                write_set: Vec::with_capacity(8),
                exclusive: false,
            };
            match body(&mut tx) {
                Ok(result) => match tx.commit() {
                    Ok(()) => {
                        self.stats.commits.fetch_add(1, Ordering::Relaxed);
                        return result;
                    }
                    Err(Abort(cause)) => self.stats.record_abort(cause),
                },
                Err(Abort(cause)) => self.stats.record_abort(cause),
            }
            // One whole step per attempt: `max_retries` counts attempts,
            // and each re-poll here is a full transaction.
            backoff.wait_step();
        }

        // Fallback: exclusive execution. The mutex serializes fallback
        // holders against each other; exclusion against speculative commits
        // flows through the word locks themselves — we acquire *every* word
        // lock, so an in-flight speculative commit either finished first or
        // will see a locked word and abort. Speculative *reads* during our
        // window observe the locked bit (or a bumped version) and abort too.
        let _guard = self.fallback.lock().unwrap_or_else(PoisonError::into_inner);
        for (i, w) in self.words.iter().enumerate() {
            loop {
                let m = w.meta.load(Ordering::Relaxed);
                if m & LOCKED == 0
                    && w.meta
                        .compare_exchange_weak(m, m | LOCKED, Ordering::Acquire, Ordering::Relaxed)
                        .is_ok()
                {
                    break;
                }
                core::hint::spin_loop();
                let _ = i;
            }
        }
        // Run the body in exclusive mode: reads are served directly (we hold
        // every lock) and nothing can abort except an explicit retry.
        let result = loop {
            let mut sp = Tx {
                region: self,
                rv: u64::MAX >> 1,
                read_set: Vec::new(),
                write_set: Vec::new(),
                exclusive: true,
            };
            match body(&mut sp) {
                Ok(r) => {
                    let wv = self.clock.fetch_add(1, Ordering::AcqRel) + 1;
                    for &(idx, v) in &sp.write_set {
                        self.words[idx].value.store(v, Ordering::Release);
                        self.words[idx].meta.store(wv << 1, Ordering::Release);
                    }
                    // Release the untouched words with their old versions.
                    let written: std::collections::HashSet<usize> =
                        sp.write_set.iter().map(|&(idx, _)| idx).collect();
                    for (idx, w) in self.words.iter().enumerate() {
                        if !written.contains(&idx) {
                            let m = w.meta.load(Ordering::Relaxed);
                            w.meta.store(m & !LOCKED, Ordering::Release);
                        }
                    }
                    break r;
                }
                Err(Abort(AbortCause::Explicit)) => {
                    std::thread::yield_now();
                    continue;
                }
                Err(Abort(cause)) => {
                    unreachable!("fallback transaction aborted with {cause:?}")
                }
            }
        };
        self.stats.fallbacks.fetch_add(1, Ordering::Relaxed);
        result
    }

    /// Non-transactional read for tests and reporting (racy by nature).
    pub fn peek(&self, idx: usize) -> u64 {
        self.words[idx].value.load(Ordering::Acquire)
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &HtmStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn read_write_roundtrip() {
        let r = TxRegion::new(8, 8);
        r.transaction(|tx| {
            tx.write(3, 42)?;
            Ok(())
        });
        assert_eq!(r.peek(3), 42);
        let v = r.transaction(|tx| tx.read(3));
        assert_eq!(v, 42);
    }

    #[test]
    fn read_your_own_writes() {
        let r = TxRegion::new(4, 8);
        let out = r.transaction(|tx| {
            tx.write(0, 7)?;
            let v = tx.read(0)?;
            tx.write(0, v + 1)?;
            tx.read(0)
        });
        assert_eq!(out, 8);
        assert_eq!(r.peek(0), 8);
    }

    #[test]
    fn capacity_abort_falls_back_and_completes() {
        let r = TxRegion::with_capacity_limit(64, 4, 8);
        // Touches 16 words: always a capacity abort speculatively, must
        // complete via fallback.
        r.transaction(|tx| {
            for i in 0..16 {
                tx.write(i, i as u64)?;
            }
            Ok(())
        });
        for i in 0..16 {
            assert_eq!(r.peek(i), i as u64);
        }
        let snap = r.stats().snapshot();
        assert_eq!(snap.fallbacks, 1);
        assert!(snap.aborts_capacity >= 1);
    }

    #[test]
    fn explicit_retry_eventually_succeeds() {
        let r = TxRegion::new(2, 3);
        let mut attempts = 0;
        let v = r.transaction(|tx| {
            attempts += 1;
            if attempts < 3 {
                return Err(Abort::retry());
            }
            tx.write(0, 5)?;
            tx.read(0)
        });
        assert_eq!(v, 5);
        assert_eq!(r.stats().snapshot().aborts_explicit, 2);
    }

    #[test]
    fn concurrent_counter_increments_are_atomic() {
        const THREADS: usize = 4;
        const PER: u64 = 10_000;
        let r = Arc::new(TxRegion::new(1, 16));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for _ in 0..PER {
                        r.transaction(|tx| {
                            let v = tx.read(0)?;
                            tx.write(0, v + 1)
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.peek(0), THREADS as u64 * PER);
        // Contention must have produced genuine aborts (the behavioural
        // profile Figure 8 relies on).
        assert!(r.stats().snapshot().total_aborts() > 0 || r.stats().snapshot().fallbacks > 0);
    }

    #[test]
    fn invariant_across_words_never_torn() {
        // Writers keep word0 + word1 == 0 (mod 2^64). Readers must never
        // observe a violation.
        let r = Arc::new(TxRegion::new(2, 16));
        let stop = Arc::new(AtomicU64::new(0));
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let r = Arc::clone(&r);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut x = 1u64;
                    while stop.load(Ordering::Relaxed) == 0 {
                        r.transaction(|tx| {
                            tx.write(0, x)?;
                            tx.write(1, x.wrapping_neg())?;
                            Ok(())
                        });
                        x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                    }
                })
            })
            .collect();
        for _ in 0..20_000 {
            let (a, b) = r.transaction(|tx| {
                let a = tx.read(0)?;
                let b = tx.read(1)?;
                Ok((a, b))
            });
            assert_eq!(a.wrapping_add(b), 0, "torn transactional read");
        }
        stop.store(1, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
    }
}
