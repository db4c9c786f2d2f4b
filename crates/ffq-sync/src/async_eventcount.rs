//! Waker-registry eventcount: the async twin of [`crate::WaitCell`], and
//! [`AsyncWait`], the one wait step every async future polls through.
//!
//! The blocking eventcount parks OS threads on a futex word. An async
//! executor cannot park a thread — a pending task must instead leave a
//! [`Waker`] behind and return `Poll::Pending`. This module keeps the
//! model-checked `{seq, waiters}` protocol from [`crate::eventcount`] in
//! its symmetric form (notifier fast path: one SeqCst fence + one relaxed
//! load when nobody waits) and swaps the sleep mechanism: instead of
//! `futex_wait`, a waiter *registers* its `Waker` in a slot list guarded by
//! a tiny spinlock, and the notifier's slow path drains wakers in FIFO
//! registration order.
//!
//! The blocking cell's asymmetric variant — a compiler fence at the
//! notifier, a `membarrier` at the waiter — does not carry over. Async
//! waiters register on an executor's poll path, where a ~0.3 µs syscall
//! would stall every other task on that worker thread, so this cell keeps
//! the `SeqCst` fence on both sides.
//!
//! ## The lost-wake argument, restated for wakers
//!
//! The race is the same store-buffering pattern the blocking cell closes
//! (see `eventcount.rs` module docs): a task checks the queue (empty), and
//! before its waker is visible the producer publishes an item and loads
//! `waiters == 0`. Both sides close it with the same SC-fence pair:
//!
//! * **Waiter:** registration inserts the waker *and* increments `waiters`
//!   (SeqCst RMW) inside the registry lock, then issues a SeqCst fence.
//!   The condition must be re-checked after registering and before
//!   returning `Poll::Pending` — the re-check is ordered after the
//!   registration in the SC total order. [`AsyncWait::poll`] is the only
//!   way to register, and it always re-checks.
//! * **Notifier:** [`AsyncWaitCell::notify`] issues a SeqCst fence after
//!   the caller's publication and before its `waiters` load.
//!
//! Either the notifier's fence precedes the registration — then the
//! waiter's re-check sees the publication and the task completes without
//! sleeping — or the registration precedes the fence, the notifier sees
//! `waiters != 0` and takes the registry lock. The lock closes the second
//! half: the waker was inserted before `waiters` was incremented (both
//! under the lock), so a notifier that observed the increment finds the
//! waker when it acquires the lock. The blocking cell needed the futex's
//! atomic compare-and-sleep for this half; here mutual exclusion does the
//! job, and `seq` survives as the wake-generation counter (bumped Release
//! before wakers are drained) for parity and diagnostics.
//!
//! The `loom_async_*` models at the bottom of this file check exactly this,
//! driving [`AsyncWait`] itself: a registered waker that parks on a model
//! futex until woken turns a lost wake into a model deadlock, and two
//! `should_panic` models show that skipping the post-register re-check,
//! or the opposite-cell notify on a miss, resurrects a hang.
//!
//! ## Consumed registrations and wake handoff
//!
//! A notifier *consumes* registrations: it takes the waker out and the
//! token becomes stale. A wait that ends in progress keeps a consumed
//! wake (the progress is what the wake was for). A wait that is abandoned
//! — its future dropped while pending — has swallowed a wake some other
//! task may have needed, so [`AsyncWait::abandon`] passes it on with one
//! more [`AsyncWaitCell::notify`]`(1)`. This is the rank-handoff-on-drop
//! protocol `ffq-async` builds on (see ALGORITHM.md §12).
//!
//! Wakers are process-local by construction, so unlike the blocking cell
//! there is no `shared` parameter: an `AsyncWaitCell` must not be placed
//! in cross-process shared memory.

use core::cell::UnsafeCell;
use std::collections::VecDeque;
use std::task::{Context, Poll, Waker};

use crate::atomic::{fence, spin_loop, yield_now, AtomicU32, Ordering};

/// Proof of a live waker registration, returned by
/// [`AsyncWaitCell::register`].
///
/// Deliberately not `Copy`/`Clone`: a token is redeemed exactly once, by
/// [`AsyncWaitCell::deregister`] (explicitly) or by a notifier (implicitly,
/// which `deregister` then reports as `false`).
#[derive(Debug)]
pub(crate) struct WaitToken {
    slot: u32,
    epoch: u32,
}

/// One registry slot. `epoch` distinguishes reuses of the slot: every
/// removal (consume or deregister) bumps it, invalidating outstanding
/// tokens that point here.
#[derive(Debug)]
struct Slot {
    epoch: u32,
    waker: Option<Waker>,
}

/// Waker storage: a slab of slots plus a FIFO of registration order.
///
/// `order` entries carry the epoch observed at registration; entries whose
/// epoch no longer matches their slot are stale (the registration was
/// deregistered) and are skipped during drains. This makes `deregister`
/// O(1) — it never has to search the queue.
#[derive(Debug)]
struct Registry {
    slots: Vec<Slot>,
    free: Vec<u32>,
    order: VecDeque<(u32, u32)>,
}

/// A waker-registry eventcount: the park/wake rendezvous for one wait
/// direction of one queue, async edition.
///
/// Its notifier fast path is publication, SeqCst fence, one relaxed load,
/// as on a shared-memory [`crate::WaitCell`]. A queue that carries both a
/// blocking and an async cell pays that fence and load per publish on top
/// of the blocking cell's notify.
#[derive(Debug)]
pub struct AsyncWaitCell {
    /// Wake generation. Bumped (Release) before each drain, mirroring the
    /// blocking cell's pre-`futex_wake` bump; here it is diagnostic (the
    /// registry lock prevents the park/wake race the futex compare closed).
    seq: AtomicU32,
    /// Number of live registrations. Notifiers skip the lock entirely
    /// while this reads zero — the queue hot path's only added cost.
    waiters: AtomicU32,
    /// Spinlock over `registry`. Held for O(1)-ish slot bookkeeping only;
    /// wakers are invoked (and dropped) outside it.
    lock: AtomicU32,
    registry: UnsafeCell<Registry>,
}

// SAFETY: `registry` is only touched while `lock` is held (acquired with an
// Acquire CAS, released with a Release store), and `Waker` is Send + Sync.
unsafe impl Send for AsyncWaitCell {}
unsafe impl Sync for AsyncWaitCell {}

impl AsyncWaitCell {
    /// An empty cell: no waiters, generation zero.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            seq: AtomicU32::new(0),
            waiters: AtomicU32::new(0),
            lock: AtomicU32::new(0),
            registry: UnsafeCell::new(Registry {
                slots: Vec::new(),
                free: Vec::new(),
                order: VecDeque::new(),
            }),
        }
    }

    /// Spins on the CAS itself (no test-and-test-and-set load): an RMW
    /// must read the latest value in coherence order, so the loop is
    /// guaranteed to observe an unlock — a plain relaxed re-check load may
    /// legally stay stale forever on the abstract machine (and does, in
    /// the loom model, where it shows up as a livelock).
    #[inline]
    fn lock(&self) -> RegistryGuard<'_> {
        loop {
            if self
                .lock
                .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                return RegistryGuard { cell: self };
            }
            spin_loop();
        }
    }

    /// Registers `waker` and returns the token proving the registration.
    ///
    /// The caller MUST re-check the condition it is about to sleep on
    /// *after* this returns and before returning `Poll::Pending`; if the
    /// re-check finds the condition ready it must redeem the token with
    /// [`Self::deregister`] (honouring the handoff contract there). This
    /// is the waiter half of the SC-fence pair described in the module
    /// docs.
    #[must_use]
    pub(crate) fn register(&self, waker: &Waker) -> WaitToken {
        let token;
        {
            let guard = self.lock();
            let reg = guard.registry();
            let slot = match reg.free.pop() {
                Some(i) => i,
                None => {
                    let i = u32::try_from(reg.slots.len()).expect("waker slot overflow");
                    reg.slots.push(Slot {
                        epoch: 0,
                        waker: None,
                    });
                    i
                }
            };
            let s = &mut reg.slots[slot as usize];
            s.waker = Some(waker.clone());
            let epoch = s.epoch;
            reg.order.push_back((slot, epoch));
            // Inside the lock, *after* the waker is findable: a notifier
            // that observes this increment and takes the lock is
            // guaranteed to find the waker.
            self.waiters.fetch_add(1, Ordering::SeqCst);
            token = WaitToken { slot, epoch };
        }
        // An SC RMW alone does not order the caller's later non-SC
        // condition loads on the abstract machine; the fence does (same
        // fence as `WaitCell::begin_wait`).
        fence(Ordering::SeqCst);
        token
    }

    /// Replaces the waker of a still-live registration in place, keeping
    /// its FIFO position and without count churn.
    ///
    /// Returns `false` if the token is stale (consumed by a notifier or
    /// already deregistered) — the caller must then [`Self::register`]
    /// afresh and re-check its condition. This is the re-poll fast path:
    /// a future polled again with a different task waker updates rather
    /// than churning deregister/register.
    pub(crate) fn update(&self, token: &WaitToken, waker: &Waker) -> bool {
        let guard = self.lock();
        let reg = guard.registry();
        match reg.slots.get_mut(token.slot as usize) {
            Some(s) if s.epoch == token.epoch => {
                match &s.waker {
                    Some(w) if w.will_wake(waker) => {}
                    _ => s.waker = Some(waker.clone()),
                }
                true
            }
            _ => false,
        }
    }

    /// Redeems a token: removes the registration if it is still live.
    ///
    /// Returns `true` if the registration was removed here. Returns
    /// `false` if a notifier already consumed it — a wake was delivered
    /// (or is in flight) to the registered waker. **A caller that is
    /// abandoning its wait (future drop, cancellation) and gets `false`
    /// MUST call [`Self::notify`]`(1)` to pass the swallowed wake to the
    /// next waiter**; a caller that is completing its operation may keep
    /// the wake (it represents the very progress being consumed).
    pub(crate) fn deregister(&self, token: WaitToken) -> bool {
        let stale_waker;
        let removed;
        {
            let guard = self.lock();
            let reg = guard.registry();
            match reg.slots.get_mut(token.slot as usize) {
                Some(s) if s.epoch == token.epoch => {
                    stale_waker = s.waker.take();
                    s.epoch = s.epoch.wrapping_add(1);
                    reg.free.push(token.slot);
                    // The matching `order` entry goes stale via the epoch
                    // bump; drains skip it.
                    self.waiters.fetch_sub(1, Ordering::Release);
                    removed = true;
                }
                _ => {
                    stale_waker = None;
                    removed = false;
                }
            }
        }
        // Waker drop can run arbitrary code (task teardown); keep it out
        // of the spinlock.
        drop(stale_waker);
        removed
    }

    /// Wakes up to `n` registered waiters, in registration order.
    ///
    /// Call *after* publishing the condition the waiters poll; the SeqCst
    /// fence pairs with the one in [`Self::register`], as in the blocking
    /// cell's symmetric pair. Costs one fence + one relaxed load when
    /// nobody is registered.
    #[inline]
    pub fn notify(&self, n: usize) {
        fence(Ordering::SeqCst);
        if self.waiters.load(Ordering::Relaxed) != 0 {
            self.notify_slow(n);
        }
    }

    /// Wakes every registered waiter (disconnects, drops, `notify_all`
    /// semantics for rank-owned progress — see ALGORITHM.md §12).
    #[inline]
    pub fn notify_all(&self) {
        self.notify(usize::MAX);
    }

    #[cold]
    fn notify_slow(&self, n: usize) {
        let mut batch: Vec<Waker> = Vec::new();
        {
            let guard = self.lock();
            let reg = guard.registry();
            self.seq.fetch_add(1, Ordering::Release);
            while batch.len() < n {
                let Some((slot, epoch)) = reg.order.pop_front() else {
                    break;
                };
                let s = &mut reg.slots[slot as usize];
                if s.epoch != epoch {
                    // Stale entry left behind by a deregister; not a
                    // waiter.
                    continue;
                }
                if let Some(w) = s.waker.take() {
                    batch.push(w);
                }
                s.epoch = s.epoch.wrapping_add(1);
                reg.free.push(slot);
                self.waiters.fetch_sub(1, Ordering::Release);
            }
        }
        // Wakers may run arbitrary scheduler code; invoke outside the
        // lock so a waker that immediately re-registers cannot deadlock.
        for w in batch {
            w.wake();
        }
    }

    /// Current live-registration count (diagnostics and tests).
    #[must_use]
    pub fn waiters(&self) -> u32 {
        self.waiters.load(Ordering::Relaxed)
    }

    /// Current wake generation (diagnostics and tests).
    #[must_use]
    pub fn generation(&self) -> u32 {
        self.seq.load(Ordering::Relaxed)
    }
}

impl Default for AsyncWaitCell {
    fn default() -> Self {
        Self::new()
    }
}

/// One task's wait on an [`AsyncWaitCell`], kept across polls: its
/// registration, if any, and how many reschedule-spin polls it has used.
///
/// Every async future and stream polls through [`Self::poll`], which runs
/// the whole protocol of ALGORITHM.md §12, and ends an unfinished wait
/// with [`Self::abandon`] when it is dropped.
#[derive(Debug, Default)]
pub struct AsyncWait {
    token: Option<WaitToken>,
    spins: u16,
}

impl AsyncWait {
    /// A wait that has neither spun nor registered.
    #[inline]
    #[must_use]
    pub const fn new() -> Self {
        Self {
            token: None,
            spins: 0,
        }
    }

    /// One poll of a wait for `attempt` to succeed; the task waits on
    /// `cell`.
    ///
    /// 1. Try. `Ready` ends the wait: a live registration is removed, one
    ///    a notifier consumed is kept (its wake produced this progress),
    ///    and the spin budget restarts.
    /// 2. On a miss, while unregistered and under `spin_polls` spins:
    ///    reschedule-spin. Notify `opposite`, yield the OS thread in the
    ///    back half of the budget, `wake_by_ref`, return `Pending`.
    /// 3. Otherwise register (or update the live registration's waker)
    ///    and try again: the mandatory re-check. On a second miss notify
    ///    `opposite` and return `Pending`.
    ///
    /// `opposite` is the cell the other side of the queue waits on. A
    /// failed FFQ attempt is not a no-op — it can burn gap ranks or
    /// advance `head` — so every miss tells that side. `None` when a miss
    /// writes nothing anyone waits on (broadcast), or when the caller
    /// notifies once per poll itself.
    #[inline]
    pub fn poll<T>(
        &mut self,
        cell: &AsyncWaitCell,
        opposite: Option<&AsyncWaitCell>,
        spin_polls: u16,
        cx: &mut Context<'_>,
        mut attempt: impl FnMut() -> Poll<T>,
    ) -> Poll<T> {
        if let Poll::Ready(v) = attempt() {
            self.settle(cell);
            return Poll::Ready(v);
        }
        if self.token.is_none() && self.spins < spin_polls {
            self.spins += 1;
            if let Some(o) = opposite {
                o.notify_all();
            }
            // The first half of the budget costs an executor round-trip;
            // after that the peer probably shares this core, so hand it
            // the timeslice, as the sync `Backoff` yield rounds do.
            if self.spins > spin_polls / 2 {
                yield_now();
            }
            cx.waker().wake_by_ref();
            return Poll::Pending;
        }
        match &self.token {
            Some(t) if cell.update(t, cx.waker()) => {}
            _ => self.token = Some(cell.register(cx.waker())),
        }
        if let Poll::Ready(v) = attempt() {
            self.settle(cell);
            return Poll::Ready(v);
        }
        if let Some(o) = opposite {
            o.notify_all();
        }
        Poll::Pending
    }

    /// Ends the wait in progress: the spin budget restarts, and a
    /// consumed registration's wake is kept, since it produced that
    /// progress.
    #[inline]
    fn settle(&mut self, cell: &AsyncWaitCell) {
        self.spins = 0;
        if let Some(t) = self.token.take() {
            let _ = cell.deregister(t);
        }
    }

    /// Ends the wait without the progress it waited for (its future or
    /// stream is dropped). A registration a notifier already consumed
    /// swallowed a wake meant for that progress, so it is handed to the
    /// next waiter with `notify(1)`.
    #[inline]
    pub fn abandon(&mut self, cell: &AsyncWaitCell) {
        if let Some(t) = self.token.take() {
            if !cell.deregister(t) {
                cell.notify(1);
            }
        }
    }
}

/// RAII spinlock guard; unlocks with a Release store.
struct RegistryGuard<'a> {
    cell: &'a AsyncWaitCell,
}

impl RegistryGuard<'_> {
    /// Access to the locked registry.
    ///
    /// Takes `&self` but hands out `&mut Registry`: sound because the
    /// guard proves exclusive ownership of the lock, and the lifetime is
    /// capped by the guard's borrow.
    #[allow(clippy::mut_from_ref)]
    fn registry(&self) -> &mut Registry {
        // SAFETY: the lock is held for the guard's lifetime, so no other
        // thread can observe or touch the registry.
        unsafe { &mut *self.cell.registry.get() }
    }
}

impl Drop for RegistryGuard<'_> {
    fn drop(&mut self) {
        self.cell.lock.store(0, Ordering::Release);
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering as StdOrdering};
    use std::sync::Arc;
    use std::task::Wake;

    /// Test waker that counts its wakes.
    struct Counter(AtomicUsize);

    impl Wake for Counter {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, StdOrdering::SeqCst);
        }
    }

    fn counting_waker() -> (Arc<Counter>, Waker) {
        let c = Arc::new(Counter(AtomicUsize::new(0)));
        let w = Waker::from(Arc::clone(&c));
        (c, w)
    }

    #[test]
    fn notify_without_waiters_is_fence_and_load_only() {
        let cell = AsyncWaitCell::new();
        cell.notify(1);
        cell.notify_all();
        assert_eq!(cell.generation(), 0, "slow path must not run");
        assert_eq!(cell.waiters(), 0);
    }

    #[test]
    fn register_notify_wakes_and_consumes() {
        let cell = AsyncWaitCell::new();
        let (c, w) = counting_waker();
        let tok = cell.register(&w);
        assert_eq!(cell.waiters(), 1);
        cell.notify(1);
        assert_eq!(c.0.load(StdOrdering::SeqCst), 1);
        assert_eq!(cell.waiters(), 0);
        // The notifier consumed the registration.
        assert!(!cell.deregister(tok));
    }

    #[test]
    fn deregister_before_notify_removes_silently() {
        let cell = AsyncWaitCell::new();
        let (c, w) = counting_waker();
        let tok = cell.register(&w);
        assert!(cell.deregister(tok));
        assert_eq!(cell.waiters(), 0);
        cell.notify_all();
        assert_eq!(
            c.0.load(StdOrdering::SeqCst),
            0,
            "deregistered waker must not fire"
        );
    }

    #[test]
    fn wakes_in_fifo_registration_order() {
        let cell = AsyncWaitCell::new();
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));

        struct Tag(usize, Arc<std::sync::Mutex<Vec<usize>>>);
        impl Wake for Tag {
            fn wake(self: Arc<Self>) {
                self.1.lock().unwrap().push(self.0);
            }
        }

        let toks: Vec<_> = (0..3)
            .map(|i| cell.register(&Waker::from(Arc::new(Tag(i, Arc::clone(&order))))))
            .collect();
        cell.notify(1);
        cell.notify(1);
        cell.notify(1);
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2]);
        for t in toks {
            assert!(!cell.deregister(t));
        }
    }

    #[test]
    fn deregistered_entry_is_skipped_by_drain() {
        let cell = AsyncWaitCell::new();
        let (ca, wa) = counting_waker();
        let (cb, wb) = counting_waker();
        let ta = cell.register(&wa);
        let _tb = cell.register(&wb);
        assert!(cell.deregister(ta));
        cell.notify(1);
        assert_eq!(ca.0.load(StdOrdering::SeqCst), 0);
        assert_eq!(
            cb.0.load(StdOrdering::SeqCst),
            1,
            "drain must skip the stale entry"
        );
        assert_eq!(cell.waiters(), 0);
    }

    #[test]
    fn update_replaces_waker_in_place() {
        let cell = AsyncWaitCell::new();
        let (c1, w1) = counting_waker();
        let (c2, w2) = counting_waker();
        let tok = cell.register(&w1);
        assert!(cell.update(&tok, &w2));
        assert_eq!(cell.waiters(), 1, "update must not churn the count");
        cell.notify(1);
        assert_eq!(c1.0.load(StdOrdering::SeqCst), 0);
        assert_eq!(c2.0.load(StdOrdering::SeqCst), 1);
        // Consumed → update now fails, caller must re-register.
        assert!(!cell.update(&tok, &w1));
    }

    #[test]
    fn update_keeps_fifo_position() {
        let cell = AsyncWaitCell::new();
        let (ca, wa) = counting_waker();
        let (cb, wb) = counting_waker();
        let (ca2, wa2) = counting_waker();
        let ta = cell.register(&wa);
        let _tb = cell.register(&wb);
        assert!(cell.update(&ta, &wa2));
        cell.notify(1);
        // A registered first; its updated waker must win the first wake.
        assert_eq!(ca2.0.load(StdOrdering::SeqCst), 1);
        assert_eq!(ca.0.load(StdOrdering::SeqCst), 0);
        assert_eq!(cb.0.load(StdOrdering::SeqCst), 0);
    }

    #[test]
    fn notify_all_drains_everyone() {
        let cell = AsyncWaitCell::new();
        let counters: Vec<_> = (0..5).map(|_| counting_waker()).collect();
        let _toks: Vec<_> = counters.iter().map(|(_, w)| cell.register(w)).collect();
        cell.notify_all();
        for (c, _) in &counters {
            assert_eq!(c.0.load(StdOrdering::SeqCst), 1);
        }
        assert_eq!(cell.waiters(), 0);
    }

    #[test]
    fn slots_are_recycled() {
        let cell = AsyncWaitCell::new();
        let (_, w) = counting_waker();
        for _ in 0..64 {
            let t = cell.register(&w);
            assert!(cell.deregister(t));
        }
        // SAFETY-free observation via the public API: a fresh register
        // after heavy churn still works and the count is exact.
        let t = cell.register(&w);
        assert_eq!(cell.waiters(), 1);
        assert!(cell.deregister(t));
    }

    #[test]
    fn stale_token_from_recycled_slot_does_not_remove_new_registration() {
        let cell = AsyncWaitCell::new();
        let (_, w1) = counting_waker();
        let (c2, w2) = counting_waker();
        let t1 = cell.register(&w1);
        cell.notify(1); // consumes t1; slot goes back to the free list
        let _t2 = cell.register(&w2); // reuses the slot at a new epoch
        assert!(!cell.deregister(t1), "stale token must not match");
        assert_eq!(cell.waiters(), 1);
        cell.notify(1);
        assert_eq!(c2.0.load(StdOrdering::SeqCst), 1);
    }

    /// Runs one `AsyncWait::poll` whose attempt succeeds on the `hit`-th
    /// call of this poll (never, for `None`); returns the result and how
    /// many attempts the step made.
    fn step(
        wait: &mut AsyncWait,
        cells: (&AsyncWaitCell, &AsyncWaitCell),
        spin_polls: u16,
        waker: &Waker,
        hit: Option<u32>,
    ) -> (Poll<()>, u32) {
        let mut attempts = 0;
        let mut cx = Context::from_waker(waker);
        let r = wait.poll(cells.0, Some(cells.1), spin_polls, &mut cx, || {
            attempts += 1;
            if Some(attempts) == hit {
                Poll::Ready(())
            } else {
                Poll::Pending
            }
        });
        (r, attempts)
    }

    fn count(c: &Counter) -> usize {
        c.0.load(StdOrdering::SeqCst)
    }

    #[test]
    fn async_wait_spin_poll_reschedules_once_and_notifies_opposite_once() {
        let (cell, opposite) = (AsyncWaitCell::new(), AsyncWaitCell::new());
        let (task, w) = counting_waker();
        let (peer, pw) = counting_waker();
        let mut wait = AsyncWait::new();
        for i in 1..=3 {
            // A peer waiting on the opposite cell hears every miss.
            let peer_tok = opposite.register(&pw);
            let (r, attempts) = step(&mut wait, (&cell, &opposite), 3, &w, None);
            assert!(r.is_pending());
            assert_eq!(attempts, 1, "a spin poll tries once");
            assert_eq!(count(&task), i, "one wake_by_ref per spin poll");
            assert_eq!(count(&peer), i, "one opposite notify per spin poll");
            assert_eq!(cell.waiters(), 0, "spinning stays out of the registry");
            assert!(!opposite.deregister(peer_tok));
        }
    }

    #[test]
    fn async_wait_registers_once_the_budget_is_spent() {
        let (cell, opposite) = (AsyncWaitCell::new(), AsyncWaitCell::new());
        let (task, w) = counting_waker();
        let (peer, pw) = counting_waker();
        let mut wait = AsyncWait::new();
        for _ in 0..2 {
            assert!(step(&mut wait, (&cell, &opposite), 2, &w, None)
                .0
                .is_pending());
        }
        assert_eq!(cell.waiters(), 0);
        let peer_tok = opposite.register(&pw);
        let (r, attempts) = step(&mut wait, (&cell, &opposite), 2, &w, None);
        assert!(r.is_pending());
        assert_eq!(attempts, 2, "register, then re-check");
        assert_eq!(cell.waiters(), 1);
        assert_eq!(count(&task), 2, "a registered miss does not reschedule");
        assert_eq!(count(&peer), 1, "the re-check miss notifies opposite");
        assert!(!opposite.deregister(peer_tok));
        // A later poll updates the live registration in place.
        assert!(step(&mut wait, (&cell, &opposite), 2, &w, None)
            .0
            .is_pending());
        assert_eq!(cell.waiters(), 1);
        cell.notify_all();
        assert_eq!(count(&task), 3, "the registered waker is woken");
    }

    #[test]
    fn async_wait_recheck_hit_settles_and_restarts_the_budget() {
        let (cell, opposite) = (AsyncWaitCell::new(), AsyncWaitCell::new());
        let (task, w) = counting_waker();
        let (peer, pw) = counting_waker();
        let mut wait = AsyncWait::new();
        assert!(step(&mut wait, (&cell, &opposite), 1, &w, None)
            .0
            .is_pending());
        assert_eq!(count(&task), 1);
        let peer_tok = opposite.register(&pw);
        // Budget spent: the step registers and the re-check hits.
        let (r, attempts) = step(&mut wait, (&cell, &opposite), 1, &w, Some(2));
        assert!(r.is_ready());
        assert_eq!(attempts, 2);
        assert_eq!(cell.waiters(), 0, "the hit removes the registration");
        assert_eq!(count(&peer), 0, "success leaves notifying to the caller");
        assert!(opposite.deregister(peer_tok));
        // The next miss spins again: the budget restarted.
        assert!(step(&mut wait, (&cell, &opposite), 1, &w, None)
            .0
            .is_pending());
        assert_eq!(count(&task), 2);
        assert_eq!(cell.waiters(), 0);
    }

    #[test]
    fn async_wait_abandon_hands_a_consumed_wake_to_the_next_waiter() {
        let (cell, opposite) = (AsyncWaitCell::new(), AsyncWaitCell::new());
        let (a, wa) = counting_waker();
        let (b, wb) = counting_waker();
        let (mut wait_a, mut wait_b) = (AsyncWait::new(), AsyncWait::new());
        assert!(step(&mut wait_a, (&cell, &opposite), 0, &wa, None)
            .0
            .is_pending());
        assert!(step(&mut wait_b, (&cell, &opposite), 0, &wb, None)
            .0
            .is_pending());
        assert_eq!(cell.waiters(), 2);
        cell.notify(1); // consumes A's registration, the oldest
        assert_eq!((count(&a), count(&b)), (1, 0));
        wait_a.abandon(&cell);
        assert_eq!(count(&b), 1, "A's swallowed wake passes to B");
        assert_eq!(cell.waiters(), 0);
        // Abandoning a wait with no registration is a no-op.
        wait_a.abandon(&cell);
        assert_eq!((count(&a), count(&b)), (1, 1));
    }

    /// Cross-thread smoke: waiters park on a std condvar-ish loop via
    /// thread::park wakers while a publisher notifies; every waiter must
    /// observe the flag. Exercises the fence pair with real threads.
    #[test]
    fn threaded_publish_then_notify_wakes_parked_waiters() {
        use std::sync::atomic::AtomicBool;

        struct Unparker(std::thread::Thread);
        impl Wake for Unparker {
            fn wake(self: Arc<Self>) {
                self.0.unpark();
            }
        }

        let cell = Arc::new(AsyncWaitCell::new());
        let flag = Arc::new(AtomicBool::new(false));
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let flag = Arc::clone(&flag);
                std::thread::spawn(move || {
                    let waker = Waker::from(Arc::new(Unparker(std::thread::current())));
                    loop {
                        if flag.load(StdOrdering::Acquire) {
                            return;
                        }
                        let tok = cell.register(&waker);
                        if flag.load(StdOrdering::Acquire) {
                            // Completing, not abandoning: keep the wake if
                            // it was consumed.
                            let _ = cell.deregister(tok);
                            return;
                        }
                        std::thread::park();
                    }
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(20));
        flag.store(true, StdOrdering::Release);
        cell.notify_all();
        for w in waiters {
            w.join().unwrap();
        }
        assert_eq!(cell.waiters(), 0);
    }
}

/// Model checks. Run with `RUSTFLAGS="--cfg loom" cargo test -p ffq-sync
/// --release -- loom_`. A registered waker parks its thread on a *model*
/// futex with no timeout, so a lost wake is a hard model deadlock. The
/// waiters drive the shipped [`AsyncWait`] step with a spin budget of 0.
#[cfg(all(test, loom))]
mod loom_tests {
    use super::*;
    use crate::atomic::{AtomicU32, Ordering};
    use crate::futex::{futex_wait, futex_wake};
    use std::sync::Arc;
    use std::task::Wake;

    /// A waker whose wake sets a model word and futex-wakes it; the task
    /// "parks" by futex-waiting on the word. Lost wake ⇒ model deadlock.
    struct ModelWaker {
        signal: Arc<AtomicU32>,
    }

    impl Wake for ModelWaker {
        fn wake(self: Arc<Self>) {
            self.signal.store(1, Ordering::Release);
            futex_wake(&self.signal, u32::MAX, false);
        }
    }

    fn model_waker(signal: &Arc<AtomicU32>) -> std::task::Waker {
        std::task::Waker::from(Arc::new(ModelWaker {
            signal: Arc::clone(signal),
        }))
    }

    /// Parks until `signal` is raised, then lowers it.
    fn park_on(signal: &AtomicU32) {
        while signal.load(Ordering::Acquire) == 0 {
            futex_wait(signal, 0, None, false);
        }
        signal.store(0, Ordering::Relaxed);
    }

    /// A task awaiting `ready` on `cell`: polls the [`AsyncWait`] step
    /// and parks on its model waker whenever the step returns `Pending`.
    fn wait_until(
        cell: &AsyncWaitCell,
        opposite: Option<&AsyncWaitCell>,
        mut ready: impl FnMut() -> bool,
    ) {
        let signal = Arc::new(AtomicU32::new(0));
        let waker = model_waker(&signal);
        let mut cx = Context::from_waker(&waker);
        let mut wait = AsyncWait::new();
        let mut attempt = || {
            if ready() {
                Poll::Ready(())
            } else {
                Poll::Pending
            }
        };
        while wait
            .poll(cell, opposite, 0, &mut cx, &mut attempt)
            .is_pending()
        {
            park_on(&signal);
        }
    }

    /// The core protocol: publish → notify on one side, the wait step
    /// (try → register → re-check → park) on the other. Every
    /// interleaving must terminate.
    #[test]
    fn loom_async_waitcell_no_lost_wake() {
        ffq_loom::model(|| {
            let cell = Arc::new(AsyncWaitCell::new());
            let flag = Arc::new(AtomicU32::new(0));

            let producer = {
                let cell = Arc::clone(&cell);
                let flag = Arc::clone(&flag);
                ffq_loom::thread::spawn(move || {
                    flag.store(1, Ordering::Release);
                    cell.notify(1);
                })
            };

            wait_until(&cell, None, || flag.load(Ordering::Acquire) != 0);
            producer.join().unwrap();
        });
    }

    /// Drop-handoff: waiter A abandons its wait; if its registration was
    /// consumed, `abandon` re-notifies, so waiter B's wake can never be
    /// swallowed. B parks unboundedly — a swallowed wake deadlocks the
    /// model.
    #[test]
    fn loom_async_waitcell_handoff_on_cancel() {
        ffq_loom::model(|| {
            let cell = Arc::new(AsyncWaitCell::new());

            // A's step finds nothing and, with no spin budget, registers.
            let waker_a = model_waker(&Arc::new(AtomicU32::new(0)));
            let mut wait_a = AsyncWait::new();
            let mut cx = Context::from_waker(&waker_a);
            assert!(wait_a
                .poll(&cell, None, 0, &mut cx, || Poll::<()>::Pending)
                .is_pending());

            let producer = {
                let cell = Arc::clone(&cell);
                ffq_loom::thread::spawn(move || {
                    cell.notify(1);
                })
            };

            let sig_b = Arc::new(AtomicU32::new(0));
            let _tok_b = cell.register(&model_waker(&sig_b));

            // A abandons its wait. FIFO order means any notify that ran so
            // far consumed A, not B; the handoff passes that wake on.
            wait_a.abandon(&cell);

            // B must be woken in every interleaving.
            park_on(&sig_b);
            producer.join().unwrap();
        });
    }

    /// `notify_all` must drain every registration.
    #[test]
    fn loom_async_waitcell_notify_all_wakes_all() {
        ffq_loom::model(|| {
            let cell = Arc::new(AsyncWaitCell::new());
            let sig_a = Arc::new(AtomicU32::new(0));
            let sig_b = Arc::new(AtomicU32::new(0));
            let _ta = cell.register(&model_waker(&sig_a));
            let _tb = cell.register(&model_waker(&sig_b));

            let producer = {
                let cell = Arc::clone(&cell);
                ffq_loom::thread::spawn(move || {
                    cell.notify_all();
                })
            };

            park_on(&sig_a);
            park_on(&sig_b);
            producer.join().unwrap();
            assert_eq!(cell.waiters(), 0);
        });
    }

    /// The race the API contract exists to prevent: checking the condition
    /// only *before* registering. The producer can publish and notify in
    /// the check→register window, see `waiters == 0`, and skip the wake —
    /// the waiter then parks forever. Pinned as a must-deadlock model.
    #[test]
    #[should_panic(expected = "deadlock")]
    fn loom_async_waitcell_missing_recheck_deadlocks() {
        ffq_loom::model(|| {
            let cell = Arc::new(AsyncWaitCell::new());
            let flag = Arc::new(AtomicU32::new(0));

            let producer = {
                let cell = Arc::clone(&cell);
                let flag = Arc::clone(&flag);
                ffq_loom::thread::spawn(move || {
                    flag.store(1, Ordering::Release);
                    cell.notify(1);
                })
            };

            let signal = Arc::new(AtomicU32::new(0));
            let waker = model_waker(&signal);
            if flag.load(Ordering::Acquire) == 0 {
                let _tok = cell.register(&waker);
                // BUG under test: park without re-checking `flag`.
                park_on(&signal);
            }
            producer.join().unwrap();
        });
    }

    /// ALGORITHM.md §12's failure-path rule, as the circular wait it
    /// prevents. A consumer's *failed* dequeue is not a no-op: it claims
    /// a fresh head rank (advancing `head` — exactly what a producer
    /// parked on `not_full` is waiting to observe), finds nothing
    /// published, and waits on `not_empty`. The consumer's step names
    /// `not_full` as its opposite cell when `notify_opposite` is set, as
    /// every shipped consumer does.
    fn failed_attempt_then_wait(notify_opposite: bool) {
        ffq_loom::model(move || {
            let not_empty = Arc::new(AsyncWaitCell::new());
            let not_full = Arc::new(AsyncWaitCell::new());
            // The shared state a failed try_recv mutates: the head rank
            // counter a full producer's wait predicate reads.
            let head = Arc::new(AtomicU32::new(0));
            let published = Arc::new(AtomicU32::new(0));

            let consumer = {
                let (not_empty, not_full) = (Arc::clone(&not_empty), Arc::clone(&not_full));
                let (head, published) = (Arc::clone(&head), Arc::clone(&published));
                ffq_loom::thread::spawn(move || {
                    let opposite = notify_opposite.then_some(&*not_full);
                    // Failed try_recv: claim a head rank (once: it stays
                    // pending in the handle) and find it unpublished.
                    let mut claimed = false;
                    wait_until(&not_empty, opposite, || {
                        if !claimed {
                            head.fetch_add(1, Ordering::AcqRel);
                            claimed = true;
                        }
                        published.load(Ordering::Acquire) != 0
                    });
                })
            };

            // Producer blocked on a full ring: waits for `head` to
            // advance, then publishes and notifies its own opposite cell.
            wait_until(&not_full, Some(&not_empty), || {
                head.load(Ordering::Acquire) != 0
            });
            published.store(1, Ordering::Release);
            not_empty.notify_all();
            consumer.join().unwrap();
        });
    }

    /// With the opposite-cell notify on every miss, every schedule
    /// completes.
    #[test]
    fn loom_async_failed_attempt_notifies_opposite_cell() {
        failed_attempt_then_wait(true);
    }

    /// Without it, both sides can wait on opposite cells, each holding the
    /// event the other needs (consumer on `not_empty`, producer on
    /// `not_full`). Pinned as a must-deadlock model.
    #[test]
    #[should_panic(expected = "deadlock")]
    fn loom_async_miss_without_opposite_notify_deadlocks() {
        failed_attempt_then_wait(false);
    }
}
