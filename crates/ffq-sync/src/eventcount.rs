//! Adaptive spin-then-park waiting: an eventcount over a futex word.
//!
//! FFQ's protocol busy-waits: a consumer polls its claimed cell's rank, a
//! producer polls `head` until a slot frees. That is optimal when every
//! thread owns a core and traffic never pauses, and pathological otherwise —
//! oversubscribed threads burn their quantum spinning on a condition only a
//! descheduled peer can satisfy, and idle consumers convert electricity to
//! heat. This module adds the classic fix without touching the queue
//! protocol itself: a *wait strategy* that spins briefly, backs off, and
//! finally parks the thread on a kernel futex until the other side signals.
//!
//! The design splits into three pieces:
//!
//! * [`WaitCell`] — a 2-word eventcount (`seq`, `waiters`) that lives next
//!   to the queue indices. Notifiers pay one fence plus one load when
//!   nobody is parked — a compiler fence on in-process cells, see below;
//!   waiters pay an RMW, a fence (plus a `membarrier` on in-process
//!   cells), and a syscall only once they decide to sleep.
//! * [`WaitConfig`] — the knobs: how long to spin, when to start yielding,
//!   whether parking is enabled, and an optional park watchdog for
//!   cross-process use.
//! * [`WaitStrategy`] — per-wait-loop state machine driving a
//!   `Backoff`-style spin phase into parks, with adaptive deadline
//!   checking so a timed wait stays cheap while spinning yet wakes within
//!   about a millisecond of its deadline once parked.
//!
//! ## The lost-wake problem, and why unbounded parks are safe
//!
//! The canonical eventcount race: a waiter checks the queue (empty), and
//! before it parks the producer publishes an item and checks `waiters`
//! (zero — the waiter hasn't registered yet, or the store hasn't
//! propagated). If both sides can miss each other, the waiter sleeps on a
//! wake that will never come. This is the store-buffering (SB) litmus
//! pattern — publication store / flag load on one side, flag store (the
//! registration RMW) / publication load on the other — and release/acquire
//! alone does *not* exclude the outcome where both loads read stale values.
//!
//! The protocol closes it from both sides, the same way folly's
//! `EventCount` and crossbeam's parker do:
//!
//! * **Waiter:** [`WaitCell::begin_wait`] registers with a SeqCst RMW on
//!   `waiters` and then issues a SeqCst fence, *before* the caller's final
//!   condition re-check. The re-check is therefore ordered after the
//!   registration in the single total order of SC operations.
//! * **Notifier:** [`WaitCell::notify`] issues a SeqCst fence *after* the
//!   caller's publication and *before* its `waiters` load.
//!
//! With both fences in the SC order, one of two things must hold: the
//! notifier's fence precedes the waiter's registration — then the waiter's
//! re-check sees the publication and it never parks; or the registration
//! precedes the notifier's fence — then the notifier's `waiters` load sees
//! the registration and performs a real wake. In that second case the wake
//! itself cannot be lost either: the notifier bumps `seq` *before*
//! `futex_wake`, and the waiter's park ([`WaitCell::park`]) passes the
//! `seq` it snapshotted at registration to `futex_wait`, whose atomic
//! compare-and-sleep refuses to sleep on a stale sequence. Parks therefore
//! need **no timeout for correctness**, and the default configuration
//! sleeps unboundedly — an idle consumer wakes exactly zero times. The
//! `cfg(loom)` model in this file checks precisely this protocol (with
//! unbounded model parks, so a lost wake is a hard deadlock), and the
//! checked-in pre-fix model demonstrates the race the fences close.
//!
//! ## The asymmetric variant: no fence on the in-process notify path
//!
//! The notifier-side fence is paid on every publish and every consume, for
//! a sleeper that is almost never there (~9 ns against ~1 ns for the store
//! it orders, on a 2-vCPU Xeon VM). On an in-process cell (`shared ==
//! false`) of a process registered for `membarrier(2)`, the fence moves to
//! the waiter's side, which is already on its slow path:
//!
//! * **Notifier:** a `compiler_fence(SeqCst)` between the publication and
//!   the `waiters` load. It emits no instruction; it only keeps the
//!   compiler from swapping the two accesses.
//! * **Waiter:** after its SeqCst registration RMW and fence,
//!   [`WaitCell::begin_wait`] issues
//!   `membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED)` before the caller's
//!   re-check. The kernel makes every running thread of the process
//!   execute a full barrier before the call returns, interrupting it; one
//!   that is not running passed one when it was switched out.
//!
//! The trade is one fence per notify (~9 ns) against a syscall plus an
//! interrupt of every running peer thread per park. On a 2-vCPU Xeon VM
//! the syscall alone takes 0.2–0.3 µs, and in a ping-pong whose two
//! threads park on every handoff each park cost ~0.4–0.6 µs more than
//! with the symmetric pair (round trip 13.0 → 13.9 µs, median of ten
//! alternating pairs). The light path wins while parks are rarer than
//! about one per fifty notifies, as in a loaded queue whose waiters
//! mostly catch the handoff in their spin phase.
//!
//! The argument is the symmetric one with the notifier's fence supplied
//! by the kernel. The barrier lands in the notifier at some point of its
//! program. If that point is before the notifier's `waiters` load, the
//! load comes after the registration (the waiter's fence put it in the SC
//! order before the barrier) and sees it: a real wake follows. If the
//! point is after the load, the publication (before the compiler fence,
//! so before the load) precedes the barrier, and the waiter's re-check,
//! after the barrier returns, sees it: no park. The `loom_` models run
//! every eventcount protocol in both variants, over `ffq-loom`'s
//! `heavy_barrier`, and a negative model shows that a light notifier
//! paired with a waiter that only fences loses wakes.
//!
//! Three rules keep the two halves matched:
//!
//! * **Register before use.** The barrier command fails with `EPERM`
//!   until the process registered
//!   (`MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED`). Registration is
//!   attempted once per process, by [`register_membarrier`] — which
//!   `ffq`'s heap queue constructors call (shared-memory formats do not),
//!   so that queues whose consumers never wait still get the light path —
//!   or by the first in-process waiter. It survives `fork` (the child
//!   inherits the parent's registration) and is undone by `execve`, which
//!   also resets the cached outcome. In a process that already runs other
//!   threads the kernel first waits out an RCU grace period (6–18 ms on a
//!   2-vCPU Xeon VM, against a few µs with one thread), so the first
//!   queue built on a latency-sensitive thread, such as an async
//!   executor's worker, stalls it once; calling [`register_membarrier`]
//!   before spawning threads moves that cost to start-up.
//! * **The waiter works it out itself.** A notifier reads the cached
//!   outcome and goes light only once it says "registered". A waiter does
//!   not trust a stale view: it settles the registration (attempting it
//!   if nobody has) and issues the barrier whenever the process is
//!   registered. The outcome is settled once and never changes, so a
//!   notifier can only go light when every waiter on the cell goes heavy.
//! * **Who keeps the symmetric pair.** Shared-memory cells (`shared ==
//!   true`: `membarrier` reaches only the caller's own process); every
//!   [`crate::AsyncWaitCell`], whose waiters register on an executor's
//!   poll path, where a ~0.3 µs syscall would stall every task on that
//!   worker; Miri and targets other than 64-bit Linux, which never
//!   register; and a process whose registration was refused (`ENOSYS`,
//!   `EINVAL`, a seccomp `EPERM`).
//!
//! ## The watchdog
//!
//! What used to bound the lost-wake risk, a mandatory 2 ms `max_park`,
//! survives as an *opt-in watchdog*
//! ([`WaitConfig::with_max_park`]): the cross-process `ffq-shm` path still
//! bounds its parks, not because wakes can be lost, but because a peer
//! process can die *without running its poisoning/wake code at all* — only
//! a periodic liveness probe can observe that.
//!
//! Progress: a parked thread holds no lock and blocks nobody; threads that
//! never park run the identical lock-free/wait-free paths as before. The
//! strategy only ever *adds* sleeping to threads that had nothing to do.

use crate::atomic::{compiler_fence, fence, AtomicU32, Ordering};
use std::time::{Duration, Instant};

use crate::backoff::Backoff;
use crate::futex::{futex_wait, futex_wake};
use crate::membarrier;

/// How often a spinning (not yet parked) timed wait samples the clock, in
/// wait rounds. Parked rounds sample every time — the park itself costs a
/// syscall, so a clock read is noise there, and it is what bounds deadline
/// overshoot to roughly the final park slice.
const SPIN_DEADLINE_STRIDE: u32 = 8;

/// Attempts this process's `membarrier` registration, once per process
/// (later calls return at once), so that in-process cells notify without
/// a fence from then on; see the module docs. Returns whether the process
/// is registered. `ffq`'s heap queue constructors call it; without a
/// call, the first in-process waiter registers instead.
///
/// The first call costs a few µs in a process with one thread, but 6–18
/// ms (an RCU grace period, on a 2-vCPU Xeon VM) in one that already runs
/// others: call it early in `main` to pay the cheap one.
pub fn register_membarrier() -> bool {
    membarrier::register()
}

/// Whether a cell pairs a compiler fence at its notifiers with a
/// `membarrier` at its waiters (`true`), or a `SeqCst` fence on both
/// sides. Only in-process cells can go asymmetric, and only in a
/// registered process: `registered` is the notifier's cached view or the
/// waiter's settled one, and is not consulted for a shared cell.
#[inline(always)]
fn asymmetric(shared: bool, registered: impl FnOnce() -> bool) -> bool {
    !shared && registered()
}

/// A futex-backed eventcount: the park/wake rendezvous for one wait
/// direction of one queue.
///
/// Two live in every `QueueState` — one consumers sleep on (`not_empty`),
/// one producers sleep on (`not_full`). `#[repr(C)]` with two `u32`s keeps
/// the layout identical across processes so the cell works inside a
/// shared-memory mapping; all state is position-independent.
#[repr(C)]
#[derive(Debug)]
pub struct WaitCell {
    /// Wake sequence number. Incremented (Release) before every wake so a
    /// waiter that observed the pre-increment value either sees the bump
    /// when it tries to park (futex compare fails, no sleep) or is woken
    /// by the `futex_wake` that follows.
    seq: AtomicU32,
    /// Number of threads between `begin_wait` and their matching
    /// `cancel_wait`/wake. Notifiers skip the syscall entirely while this
    /// reads zero.
    waiters: AtomicU32,
}

impl WaitCell {
    /// A cell with no waiters and sequence zero (the all-zeroes state, so
    /// zero-filled shared memory is a valid cell).
    #[must_use]
    pub const fn new() -> Self {
        Self {
            seq: AtomicU32::new(0),
            waiters: AtomicU32::new(0),
        }
    }

    /// Wakes up to `n` parked threads, if any are registered.
    ///
    /// Call *after* publishing the condition the waiters poll. The fence
    /// pairs with the waiter's in [`Self::begin_wait`]: either this
    /// notifier observes the registration (and wakes), or the waiter's
    /// post-registration re-check observes the publication (and never
    /// parks). On a shared cell, or in a process without a `membarrier`
    /// registration, it is a `SeqCst` fence; on an in-process cell of a
    /// registered process it is a compiler fence, and the waiter's
    /// `membarrier` supplies the hardware fence. See the module docs for
    /// both arguments. `shared` must be `true` iff the cell lives in
    /// memory mapped by multiple processes, and must be the same value
    /// the cell's waiters pass.
    #[inline]
    pub fn notify(&self, n: usize, shared: bool) {
        // The notifier half of the SB-closing fence pair. Without it the
        // publication store can still sit in this core's store buffer while
        // the load below reads a stale `waiters == 0` — the lost-wake race
        // the `loom_prefix_*` regression model demonstrates.
        if asymmetric(shared, membarrier::registered) {
            compiler_fence(Ordering::SeqCst);
        } else {
            fence(Ordering::SeqCst);
        }
        if self.waiters.load(Ordering::Relaxed) != 0 {
            self.notify_slow(n, shared);
        }
    }

    /// Wakes every parked thread (disconnects, poisoning, drops).
    #[inline]
    pub fn notify_all(&self, shared: bool) {
        self.notify(usize::MAX, shared);
    }

    #[cold]
    #[inline(never)]
    fn notify_slow(&self, n: usize, shared: bool) {
        // Release: the bump happens-after the notifier's queue publication,
        // so a waiter whose futex compare fails on the new value re-checks
        // the queue with Acquire and must observe that publication.
        self.seq.fetch_add(1, Ordering::Release);
        futex_wake(&self.seq, n.min(u32::MAX as usize) as u32, shared);
    }

    /// Registers the caller as a waiter and snapshots the wake sequence.
    ///
    /// Must be called *before* the final not-ready check that justifies
    /// parking; pair with [`Self::park`] (then [`Self::cancel_wait`]) or
    /// with [`Self::cancel_wait`] alone if the condition turned ready.
    /// `shared` is the cell's, as passed to [`Self::notify`].
    ///
    /// The SeqCst RMW plus the trailing SeqCst fence are the waiter half of
    /// the fence pair described in the module docs: they order the
    /// registration before the caller's subsequent condition loads in the
    /// SC total order, which is what makes "notifier saw `waiters == 0`"
    /// imply "waiter's re-check sees the publication". On an in-process
    /// cell of a registered process (settling the registration first if
    /// nobody has) it then issues `membarrier`, which puts a full fence
    /// into every notifier that skipped its own.
    #[inline]
    #[must_use]
    pub fn begin_wait(&self, shared: bool) -> u32 {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        // An SC RMW alone does not order later non-SC loads on the C11
        // abstract machine (it compiles to a full barrier on x86/ARM, but
        // the model and TSan reason about the abstract semantics).
        fence(Ordering::SeqCst);
        if asymmetric(shared, membarrier::register) {
            membarrier::barrier();
        }
        self.seq.load(Ordering::Acquire)
    }

    /// Deregisters the caller (after a park returns, or instead of one).
    #[inline]
    pub fn cancel_wait(&self) {
        self.waiters.fetch_sub(1, Ordering::Release);
    }

    /// Sleeps until the wake sequence moves past `observed_seq`, a wake
    /// arrives, or `timeout` elapses (`None` sleeps unboundedly — safe
    /// because the futex compare validates `observed_seq` atomically). The
    /// caller must still hold a `begin_wait` registration and must re-check
    /// its condition afterwards.
    #[inline]
    pub fn park(&self, observed_seq: u32, timeout: Option<Duration>, shared: bool) {
        futex_wait(&self.seq, observed_seq, timeout, shared);
    }

    /// Current registered-waiter count (diagnostics and tests).
    #[must_use]
    pub fn waiters(&self) -> u32 {
        self.waiters.load(Ordering::Relaxed)
    }
}

impl Default for WaitCell {
    fn default() -> Self {
        Self::new()
    }
}

/// Tunables for the spin → yield → park progression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitConfig {
    /// `Backoff` step up to which wait rounds busy-spin: step `k` spends
    /// `2^k` `spin_loop` hints, at most four per round.
    pub spin_limit: u32,
    /// `Backoff` step up to which a wait round yields to the OS scheduler
    /// instead of parking; past it the thread parks (the snooze
    /// threshold).
    pub yield_limit: u32,
    /// Optional upper bound on a single park. `None` (the default) parks
    /// unboundedly — the eventcount protocol guarantees wakes are never
    /// lost, so in-process queues need no watchdog. `Some(bound)` is the
    /// opt-in watchdog for waiters that must observe state changes no wake
    /// will announce — e.g. `ffq-shm` consumers probing whether a peer
    /// process died before it could run its poisoning code.
    pub max_park: Option<Duration>,
    /// When `false` the strategy never parks — it degenerates to the
    /// pre-existing pure spin/yield loop (useful for latency-critical
    /// pinned deployments and as the benchmark baseline).
    pub park: bool,
}

impl WaitConfig {
    /// The default adaptive profile: spin like the original `Backoff`
    /// (steps 0–6 spinning, 7–10 yielding), then park unboundedly.
    #[must_use]
    pub const fn adaptive() -> Self {
        Self {
            spin_limit: 6,
            yield_limit: 10,
            max_park: None,
            park: true,
        }
    }

    /// Spin/yield only — byte-for-byte the waiting behaviour this crate
    /// shipped before parking existed.
    #[must_use]
    pub const fn spin_only() -> Self {
        Self {
            spin_limit: 6,
            yield_limit: 10,
            max_park: None,
            park: false,
        }
    }

    /// Adds a park watchdog: no single park sleeps longer than `bound`.
    /// Only needed when the waited-for state can change without a wake
    /// (cross-process peer death); pure in-process waiters don't want it.
    #[must_use]
    pub const fn with_max_park(mut self, bound: Duration) -> Self {
        self.max_park = Some(bound);
        self
    }
}

impl Default for WaitConfig {
    fn default() -> Self {
        Self::adaptive()
    }
}

/// What a single [`WaitStrategy::wait_round`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitRound {
    /// Spun or yielded; the condition may or may not be ready — loop and
    /// re-check.
    Spun,
    /// Parked on the futex (possibly waking early); re-check the
    /// condition.
    Parked,
    /// The deadline passed. The caller should do one final ready check
    /// and then give up.
    Expired,
}

/// Per-wait-loop driver: owns the spin/yield/park progression for one
/// blocking or timed operation.
///
/// Usage shape (the queue crates wrap this; a blocking call and its timed
/// twin share the loop, the untimed one passing `timeout = None`). The
/// first attempt runs inline, before any strategy exists, so a call that
/// succeeds at once pays for none of it; the strategy is built on the first
/// miss, in a `#[cold]` function that holds the whole wait loop:
///
/// ```ignore
/// fn blocking_op(&mut self, timeout: Option<Duration>) -> Result<V, Timeout> {
///     match self.try_the_operation() {
///         Some(v) => Ok(v),
///         None => self.wait_for_op(timeout),
///     }
/// }
///
/// #[cold]
/// fn wait_for_op(&mut self, timeout: Option<Duration>) -> Result<V, Timeout> {
///     let mut strat = WaitStrategy::new(self.cfg);
///     loop {
///         let round = strat.wait_round_for(&cell, shared, timeout, &mut || ready());
///         if round == WaitRound::Expired {
///             return Err(Timeout);
///         }
///         if let Some(v) = self.try_the_operation() {
///             return Ok(v);
///         }
///     }
/// }
/// ```
pub struct WaitStrategy {
    cfg: WaitConfig,
    /// The spin/yield ladder; its configured yield limit is the snooze
    /// threshold past which rounds park. Reset by [`Self::reset`] after
    /// progress.
    backoff: Backoff,
    /// Wait rounds since the last deadline sample (spin phase only).
    since_deadline_check: u32,
    /// The deadline of [`Self::wait_round_for`], fixed by its first round.
    deadline: Option<Instant>,
    /// Parks performed, for the `parks` statistics counters.
    parks: u64,
}

impl WaitStrategy {
    /// A fresh strategy at the start of its spin phase.
    #[must_use]
    pub fn new(cfg: WaitConfig) -> Self {
        Self {
            cfg,
            backoff: Backoff::with_limits(cfg.spin_limit, cfg.yield_limit),
            since_deadline_check: 0,
            deadline: None,
            parks: 0,
        }
    }

    /// Re-arms the spin phase after the caller made progress, so bursts
    /// stay fast while only true idleness escalates to parking.
    #[inline]
    pub fn reset(&mut self) {
        self.backoff.reset();
        self.since_deadline_check = 0;
    }

    /// Number of futex parks this strategy has performed.
    #[must_use]
    pub fn parks(&self) -> u64 {
        self.parks
    }

    /// True once the next `wait_round` would park rather than spin/yield.
    #[must_use]
    pub fn is_parkable(&self) -> bool {
        self.cfg.park && self.backoff.is_parkable()
    }

    /// Executes one round of waiting: a burst of at most four `spin_loop`
    /// hints, a `yield_now`, or a park on `cell`, per the current phase.
    ///
    /// `ready` is the wake condition; it is only consulted on the park
    /// path (between waiter registration and the sleep — the final
    /// re-check that makes parking sound) so the spin path stays exactly
    /// as cheap as the old `Backoff` loop. `deadline` of `None` waits
    /// forever. Returns what happened; on anything but `Expired` the
    /// caller re-polls its operation and loops.
    pub fn wait_round(
        &mut self,
        cell: &WaitCell,
        shared: bool,
        deadline: Option<Instant>,
        ready: &mut dyn FnMut() -> bool,
    ) -> WaitRound {
        // Phase 1+2: the classic backoff ladder, with the deadline sampled
        // on a stride so the hot spin phase rarely touches the clock.
        if !self.backoff.is_parkable() || !self.cfg.park {
            if let Some(d) = deadline {
                self.since_deadline_check += 1;
                // Always sample in the (cheap, scheduler-bound) yield
                // phase; sample on a stride while busy-spinning.
                if self.backoff.is_completed() || self.since_deadline_check >= SPIN_DEADLINE_STRIDE
                {
                    self.since_deadline_check = 0;
                    if Instant::now() >= d {
                        return WaitRound::Expired;
                    }
                }
            }
            self.backoff.wait();
            return WaitRound::Spun;
        }

        // Phase 3: park. Register first, then re-check the condition —
        // the ordering that makes a wake between check and sleep
        // impossible to lose (see module docs).
        let seq = cell.begin_wait(shared);
        if ready() {
            cell.cancel_wait();
            return WaitRound::Spun;
        }
        let mut slice = self.cfg.max_park;
        if let Some(d) = deadline {
            // Parked rounds check the deadline every time and clamp the
            // sleep to the time remaining, so a timed wait overshoots by
            // syscall jitter, not by a full watchdog slice.
            let now = Instant::now();
            if now >= d {
                cell.cancel_wait();
                return WaitRound::Expired;
            }
            let remaining = d - now;
            slice = Some(match slice {
                Some(s) => s.min(remaining),
                None => remaining,
            });
        }
        cell.park(seq, slice, shared);
        cell.cancel_wait();
        self.parks += 1;
        WaitRound::Parked
    }

    /// [`wait_round`](Self::wait_round) for a blocking call that gives up
    /// `timeout` after its first miss (`None`: never). This strategy's
    /// first round reads the deadline off the clock, so a call whose first
    /// attempt succeeds reads no clock at all — `ffq-shm` runs every
    /// blocking call as a series of such timed calls, one per slice.
    pub fn wait_round_for(
        &mut self,
        cell: &WaitCell,
        shared: bool,
        timeout: Option<Duration>,
        ready: &mut dyn FnMut() -> bool,
    ) -> WaitRound {
        let deadline = timeout.map(|t| *self.deadline.get_or_insert_with(|| Instant::now() + t));
        self.wait_round(cell, shared, deadline, ready)
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    /// A config that reaches the park phase almost immediately.
    fn eager() -> WaitConfig {
        WaitConfig {
            spin_limit: 1,
            yield_limit: 2,
            max_park: Some(Duration::from_millis(50)),
            park: true,
        }
    }

    #[test]
    fn notify_without_waiters_skips_the_sequence_bump() {
        let cell = WaitCell::new();
        cell.notify(1, false);
        cell.notify_all(false);
        assert_eq!(cell.seq.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn notify_with_a_registration_bumps_the_sequence() {
        for shared in [false, true] {
            let cell = WaitCell::new();
            let seq = cell.begin_wait(shared);
            cell.notify(1, shared);
            assert_eq!(cell.seq.load(Ordering::Relaxed), seq + 1);
            cell.cancel_wait();
            assert_eq!(cell.waiters(), 0);
        }
    }

    #[test]
    fn refused_registration_keeps_both_sides_symmetric() {
        let process = membarrier::Registration::new();
        let notifier = || asymmetric(false, || process.is_registered());
        assert!(!notifier(), "nobody has tried yet: the notifier fences");
        assert!(!asymmetric(false, || process.settle(|| false)));
        assert!(!notifier());
        // A refusal is final: later waiters do not try again.
        assert!(!asymmetric(false, || process.settle(|| unreachable!())));
    }

    #[test]
    fn registered_in_process_cells_go_asymmetric_on_both_sides() {
        let process = membarrier::Registration::new();
        let notifier = || asymmetric(false, || process.is_registered());
        assert!(!notifier());
        // The first waiter registers, and goes heavy before any notifier
        // can go light.
        assert!(asymmetric(false, || process.settle(|| true)));
        assert!(notifier());
        assert!(asymmetric(false, || process.settle(|| unreachable!())));
    }

    #[test]
    fn shared_cells_stay_symmetric_on_both_sides() {
        // A `membarrier` reaches only the caller's process, so neither
        // side of a shared cell consults the registration at all.
        assert!(!asymmetric(true, || unreachable!("registration consulted")));
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn notifier_and_waiter_never_both_miss() {
        // The store-buffering litmus test behind the fence pair, on real
        // threads and the real notify/begin_wait: per round, the notifier
        // publishes a flag and notifies while the waiter registers and
        // re-checks the flag, both released by the same barrier. The
        // outcome the fences forbid — the notifier read no waiter (it did
        // not bump `seq`) and the waiter's re-check missed the flag — is a
        // lost wake. Both variants run: in-process (the light notifier, if
        // this process is registered) and shared.
        const ROUNDS: u32 = 100_000;
        // Spins, then yields, so the test also finishes on one CPU.
        fn spin_until(done: impl Fn() -> bool) {
            let mut spins = 0u32;
            while !done() {
                if spins < 1_000 {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
        let barrier = |arrived: &AtomicU32, round: u32| {
            arrived.fetch_add(1, Ordering::AcqRel);
            spin_until(|| arrived.load(Ordering::Acquire) >= 2 * round);
        };
        for shared in [false, true] {
            let cell = Arc::new(WaitCell::new());
            let flag = Arc::new(AtomicU32::new(0));
            let arrived = Arc::new(AtomicU32::new(0));
            let notified = Arc::new(AtomicU32::new(0));
            let notifier = {
                let (cell, flag) = (Arc::clone(&cell), Arc::clone(&flag));
                let (arrived, notified) = (Arc::clone(&arrived), Arc::clone(&notified));
                std::thread::spawn(move || {
                    for round in 1..=ROUNDS {
                        barrier(&arrived, round);
                        // A cached copy of `waiters` lets the notifier's
                        // load complete while its flag store still waits
                        // for the line, which is when the race can show.
                        std::hint::black_box(cell.waiters());
                        flag.store(round, Ordering::Relaxed);
                        cell.notify(1, shared);
                        notified.store(round, Ordering::Release);
                    }
                })
            };
            let mut lost = 0;
            for round in 1..=ROUNDS {
                barrier(&arrived, round);
                let seq = cell.begin_wait(shared);
                let saw_flag = flag.load(Ordering::Relaxed) == round;
                // Stay registered, as a parked waiter would, until this
                // round's notify has returned; then judge the round.
                spin_until(|| notified.load(Ordering::Acquire) == round);
                if !saw_flag && cell.seq.load(Ordering::Relaxed) == seq {
                    lost += 1;
                }
                cell.cancel_wait();
            }
            notifier.join().unwrap();
            assert_eq!(
                lost, 0,
                "{lost} lost wakes in {ROUNDS} rounds (shared = {shared})"
            );
        }
    }

    #[test]
    fn default_config_parks_unboundedly() {
        let cfg = WaitConfig::default();
        assert!(cfg.park);
        assert_eq!(cfg.max_park, None);
        let watched = WaitConfig::adaptive().with_max_park(Duration::from_millis(10));
        assert_eq!(watched.max_park, Some(Duration::from_millis(10)));
    }

    #[test]
    fn strategy_progresses_spin_then_park() {
        let cfg = eager();
        let cell = WaitCell::new();
        let mut strat = WaitStrategy::new(cfg);
        let mut rounds = Vec::new();
        for _ in 0..(cfg.yield_limit + 3) {
            rounds.push(strat.wait_round(&cell, false, None, &mut || false));
            if matches!(rounds.last(), Some(WaitRound::Parked)) {
                break;
            }
        }
        // yield_limit + 1 spin/yield rounds, then parking begins.
        let spun = rounds
            .iter()
            .take_while(|r| matches!(r, WaitRound::Spun))
            .count();
        assert_eq!(spun, cfg.yield_limit as usize + 1);
        assert!(strat.is_parkable());
        assert!(matches!(rounds.last(), Some(WaitRound::Parked)));
        assert_eq!(strat.parks(), 1);
    }

    #[test]
    fn spin_only_config_never_parks() {
        let cell = WaitCell::new();
        let mut strat = WaitStrategy::new(WaitConfig {
            park: false,
            ..eager()
        });
        for _ in 0..64 {
            let r = strat.wait_round(&cell, false, None, &mut || false);
            assert_eq!(r, WaitRound::Spun);
        }
        assert_eq!(strat.parks(), 0);
        assert!(!strat.is_parkable());
        assert_eq!(cell.waiters(), 0);
    }

    #[test]
    fn ready_recheck_skips_the_park() {
        let cell = WaitCell::new();
        let mut strat = WaitStrategy::new(eager());
        // Burn through the spin phase.
        while !strat.is_parkable() {
            strat.wait_round(&cell, false, None, &mut || false);
        }
        let r = strat.wait_round(&cell, false, None, &mut || true);
        assert_eq!(r, WaitRound::Spun);
        assert_eq!(strat.parks(), 0);
        assert_eq!(cell.waiters(), 0);
    }

    #[test]
    fn parked_thread_wakes_on_notify() {
        let cell = Arc::new(WaitCell::new());
        let go = Arc::new(AtomicBool::new(false));
        let (c, g) = (Arc::clone(&cell), Arc::clone(&go));
        let waiter = std::thread::spawn(move || {
            // Unbounded parks: if the wake below were lost, this thread
            // would hang forever (the old 2 ms watchdog can no longer
            // paper over it) — so this doubles as a live lost-wake test.
            let mut strat = WaitStrategy::new(WaitConfig {
                max_park: None,
                ..eager()
            });
            let started = Instant::now();
            while !g.load(Ordering::Acquire) {
                strat.wait_round(&c, false, None, &mut || g.load(Ordering::Acquire));
            }
            (strat.parks(), started.elapsed())
        });
        // Give the waiter time to reach the park phase, then publish.
        std::thread::sleep(Duration::from_millis(50));
        go.store(true, Ordering::Release);
        cell.notify_all(false);
        let (parks, waited) = waiter.join().unwrap();
        assert!(parks >= 1, "waiter should have parked (parks = {parks})");
        assert!(
            waited < Duration::from_secs(10),
            "wake took implausibly long: {waited:?}"
        );
        assert_eq!(cell.waiters(), 0);
    }

    #[test]
    fn timed_wait_expires_close_to_its_deadline() {
        let cell = WaitCell::new();
        let mut strat = WaitStrategy::new(WaitConfig {
            max_park: Some(Duration::from_millis(20)),
            ..eager()
        });
        let timeout = Duration::from_millis(60);
        let start = Instant::now();
        let deadline = start + timeout;
        loop {
            if strat.wait_round(&cell, false, Some(deadline), &mut || false) == WaitRound::Expired {
                break;
            }
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "wait failed to expire"
            );
        }
        let elapsed = start.elapsed();
        assert!(elapsed >= timeout, "expired early: {elapsed:?}");
        // Parked rounds clamp the sleep to the remaining time, so overshoot
        // is syscall jitter — a loose bound keeps this robust in CI.
        assert!(
            elapsed < timeout + Duration::from_millis(25),
            "overshot deadline by {:?}",
            elapsed - timeout
        );
        assert!(strat.parks() >= 1);
    }

    #[test]
    fn unbounded_timed_wait_clamps_to_deadline() {
        // max_park: None must still respect an explicit deadline: the park
        // slice becomes the remaining time, not forever.
        let cell = WaitCell::new();
        let mut strat = WaitStrategy::new(WaitConfig {
            max_park: None,
            ..eager()
        });
        let timeout = Duration::from_millis(40);
        let start = Instant::now();
        let deadline = start + timeout;
        while strat.wait_round(&cell, false, Some(deadline), &mut || false) != WaitRound::Expired {
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "failed to expire"
            );
        }
        let elapsed = start.elapsed();
        assert!(elapsed >= timeout, "expired early: {elapsed:?}");
        assert!(
            elapsed < timeout + Duration::from_millis(50),
            "unbounded slice ignored the deadline: {elapsed:?}"
        );
    }
}

/// Loom models for the eventcount protocol. Run with
/// `RUSTFLAGS="--cfg loom" cargo test -p ffq-sync --release -- loom_`.
///
/// Under the model every process is registered for `membarrier`, so each
/// model runs twice: `shared = false` checks the asymmetric pair (light
/// notifier, `heavy_barrier` waiter), `shared = true` the symmetric one.
#[cfg(all(test, loom))]
mod loom_tests {
    use super::*;
    use ffq_loom::sync::Arc;
    use ffq_loom::thread;

    /// The waiter's side of every model: the real prepare/re-check/park
    /// protocol with an *unbounded* park, until `flag` is set.
    fn wait_for(cell: &WaitCell, flag: &AtomicU32, shared: bool) {
        loop {
            if flag.load(Ordering::Acquire) != 0 {
                break;
            }
            let seq = cell.begin_wait(shared);
            if flag.load(Ordering::Acquire) != 0 {
                cell.cancel_wait();
                break;
            }
            cell.park(seq, None, shared);
            cell.cancel_wait();
        }
    }

    /// One producer publishes a flag and notifies; one consumer waits.
    /// Under the model a lost wake is a deadlock, so this passing means
    /// the fence pair closes the race in every explored schedule and
    /// weak-memory outcome.
    #[test]
    fn loom_eventcount_park_notify_no_lost_wake() {
        for shared in [false, true] {
            ffq_loom::model(move || {
                let cell = Arc::new(WaitCell::new());
                let flag = Arc::new(AtomicU32::new(0));
                let (c, f) = (Arc::clone(&cell), Arc::clone(&flag));
                let producer = thread::spawn(move || {
                    f.store(1, Ordering::Release);
                    c.notify(1, shared);
                });
                wait_for(&cell, &flag, shared);
                producer.join().unwrap();
            });
        }
    }

    /// Same protocol driven through the real `WaitStrategy::wait_round`
    /// code path (tiny spin phase, unbounded park).
    #[test]
    fn loom_wait_round_no_lost_wake() {
        for shared in [false, true] {
            ffq_loom::model(move || {
                let cell = Arc::new(WaitCell::new());
                let flag = Arc::new(AtomicU32::new(0));
                let (c, f) = (Arc::clone(&cell), Arc::clone(&flag));
                let producer = thread::spawn(move || {
                    f.store(1, Ordering::Release);
                    c.notify_all(shared);
                });
                let mut strat = WaitStrategy::new(WaitConfig {
                    spin_limit: 0,
                    yield_limit: 0,
                    max_park: None,
                    park: true,
                });
                while flag.load(Ordering::Acquire) == 0 {
                    strat.wait_round(&cell, shared, None, &mut || {
                        flag.load(Ordering::Acquire) != 0
                    });
                }
                producer.join().unwrap();
            });
        }
    }

    /// Two waiters, one notify_all: nobody may be left sleeping.
    #[test]
    fn loom_notify_all_wakes_every_waiter() {
        for shared in [false, true] {
            ffq_loom::model(move || {
                let cell = Arc::new(WaitCell::new());
                let flag = Arc::new(AtomicU32::new(0));
                let waiters: Vec<_> = (0..2)
                    .map(|_| {
                        let (c, f) = (Arc::clone(&cell), Arc::clone(&flag));
                        thread::spawn(move || wait_for(&c, &f, shared))
                    })
                    .collect();
                flag.store(1, Ordering::Release);
                cell.notify_all(shared);
                for w in waiters {
                    w.join().unwrap();
                }
            });
        }
    }

    /// The asymmetric pair with its heavy half taken out: the real light
    /// notifier (an in-process cell, so a compiler fence) against a waiter
    /// that registers and fences exactly as the symmetric protocol does
    /// but issues no `membarrier`. Nothing orders the notifier's
    /// publication before its `waiters` load any more, so both sides can
    /// miss each other; the checker must find the resulting deadlock. If
    /// it ever stops finding it, either the light notifier grew a real
    /// fence or `heavy_barrier` is no longer what the positive models
    /// rely on.
    #[test]
    #[should_panic(expected = "deadlock")]
    fn loom_light_notify_without_heavy_barrier_loses_wakes() {
        ffq_loom::model(|| {
            let cell = Arc::new(WaitCell::new());
            let flag = Arc::new(AtomicU32::new(0));
            let (c, f) = (Arc::clone(&cell), Arc::clone(&flag));
            let producer = thread::spawn(move || {
                f.store(1, Ordering::Release);
                c.notify(1, false);
            });
            loop {
                if flag.load(Ordering::Acquire) != 0 {
                    break;
                }
                // `begin_wait(false)` without its `membarrier`.
                cell.waiters.fetch_add(1, Ordering::SeqCst);
                fence(Ordering::SeqCst);
                let seq = cell.seq.load(Ordering::Acquire);
                if flag.load(Ordering::Acquire) != 0 {
                    cell.cancel_wait();
                    break;
                }
                cell.park(seq, None, false);
                cell.cancel_wait();
            }
            producer.join().unwrap();
        });
    }

    /// The PR-3 eventcount, verbatim: the notifier read `waiters` with a
    /// plain relaxed load and **no SeqCst fence** (and the waiter had no
    /// fence after its RMW). Its parks were bounded at 2 ms precisely
    /// because this protocol can lose a wake — the module used to document
    /// the race and bound the damage instead of fixing it. This model pins
    /// the bug: with unbounded parks the lost wake is a deadlock, and the
    /// checker finds it. Kept as a regression artifact — if the model
    /// checker ever stops finding this deadlock, its weak-memory modeling
    /// broke.
    struct PreFixWaitCell {
        seq: AtomicU32,
        waiters: AtomicU32,
    }

    impl PreFixWaitCell {
        const fn new() -> Self {
            Self {
                seq: AtomicU32::new(0),
                waiters: AtomicU32::new(0),
            }
        }

        fn notify(&self, n: usize) {
            // Pre-fix: no fence. The publication can miss the waiter while
            // the waiter's registration misses this load (store-buffering).
            if self.waiters.load(Ordering::Relaxed) != 0 {
                self.seq.fetch_add(1, Ordering::Release);
                futex_wake(&self.seq, n.min(u32::MAX as usize) as u32, false);
            }
        }

        fn begin_wait(&self) -> u32 {
            // Pre-fix: SeqCst RMW but no trailing fence.
            self.waiters.fetch_add(1, Ordering::SeqCst);
            self.seq.load(Ordering::Acquire)
        }

        fn cancel_wait(&self) {
            self.waiters.fetch_sub(1, Ordering::Release);
        }

        fn park(&self, observed_seq: u32) {
            futex_wait(&self.seq, observed_seq, None, false);
        }
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn loom_prefix_eventcount_loses_wakes() {
        ffq_loom::model(|| {
            let cell = Arc::new(PreFixWaitCell::new());
            let flag = Arc::new(AtomicU32::new(0));
            let (c, f) = (Arc::clone(&cell), Arc::clone(&flag));
            let producer = thread::spawn(move || {
                f.store(1, Ordering::Release);
                c.notify(1);
            });
            loop {
                if flag.load(Ordering::Acquire) != 0 {
                    break;
                }
                let seq = cell.begin_wait();
                if flag.load(Ordering::Acquire) != 0 {
                    cell.cancel_wait();
                    break;
                }
                cell.park(seq);
                cell.cancel_wait();
            }
            producer.join().unwrap();
        });
    }
}
