//! The model-checking runtime.
//!
//! One *model run* (`crate::model`) executes the closure many times. Each
//! execution runs the model threads as real OS threads, but serialized: a
//! single baton (`ExecState::active`) decides who runs, and every visible
//! operation (atomic access, fence, futex call, spawn/join/yield) is a
//! *schedule point* where the runtime may hand the baton to another thread.
//! Every point where more than one continuation is legal — which thread runs
//! next, or which store a load reads from — is recorded as a [`Choice`]; the
//! driver replays the recorded prefix and advances the last choice like a
//! counter (depth-first search) until the space is exhausted.
//!
//! # Memory model
//!
//! Stores are kept per location as an append-only history with vector
//! clocks. A load may read any store that is not stale for the reader:
//! the *coherence floor* is the newest store the reader has already seen or
//! that happens-before the reader, and everything from the floor to the
//! newest store is a legal read-from (one DFS choice). This models C11
//! release/acquire + relaxed semantics closely:
//!
//! - a `Release`-or-stronger store publishes the writer's clock in the
//!   store's `sync_vc`; an `Acquire`-or-stronger load joins it into the
//!   reader's clock (synchronizes-with);
//! - a `Relaxed` load banks the store's `sync_vc` into `acq_pending`,
//!   claimed by a later `fence(Acquire)` (fence synchronization);
//! - a `Relaxed` store after a `fence(Release)` carries the fence clock
//!   (so `fence(Release)` + relaxed store + acquire load synchronizes);
//! - RMWs read the *newest* store and continue the release sequence
//!   (their `sync_vc` joins the overwritten store's `sync_vc`); plain
//!   stores do not (C++20 release-sequence rules);
//! - `SeqCst` operations and fences maintain a per-execution `sc_clock`:
//!   each SC op joins it into the thread clock and then publishes the
//!   thread clock back. This gives SC ops a total order consistent with
//!   happens-before and makes store-buffering outcomes where both SC-fenced
//!   readers miss both stores impossible — exactly the guarantee the
//!   eventcount protocol buys with its SeqCst fences. It is slightly
//!   stronger than C11 in corners (an SC *load* also publishes), which can
//!   only under-approximate the set of explored behaviors for non-SC code.
//! - `heavy_barrier` (the model of `membarrier(2)`) makes every other
//!   live thread perform an SC fence where it stands (a finished thread's
//!   final clock joins the SC order), then has the caller re-join the SC
//!   clock. A `compiler_fence` has no effect: a model thread already
//!   executes its operations in program order, which is all a compiler
//!   fence asks of the compiler.
//! - modification order is execution order (stores append); CAS failures
//!   read the newest store (documented simplification — a stale-read CAS
//!   failure is observationally a spurious failure plus retry, which the
//!   calling loops here all tolerate);
//! - a `yield_now` raises the yielding thread's coherence floor to the
//!   newest store on every location (C++ [intro.progress] eventual
//!   visibility: a thread only yields from a spin loop, and on hardware
//!   that wait is always long enough for completed stores to reach it).
//!   Without this rule every spin iteration is a fresh stale-read choice,
//!   so the DFS contains an infinite all-stale path that trips the
//!   livelock cap even when the awaited store already landed. Stale
//!   reads remain fully explored up to the first yield.
//!
//! # Termination
//!
//! Exploration is bounded by a *preemption bound* (default 2): taking the
//! baton away from a thread that could keep running costs budget; switches
//! at yields, blocks, and exits are free. `yield_now` must hand off to
//! another ready thread when one exists, so spin loops that yield (the
//! `Backoff` used by the queues under `cfg(loom)`) cannot starve the
//! system. A per-thread operation cap and a global execution cap turn
//! accidental infinite loops into loud failures instead of hangs.

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Upper bound on threads per execution (including the model's main thread).
pub(crate) const MAX_THREADS: usize = 6;

/// Per-thread schedule-point cap; tripping it means a loop is not yielding.
const MAX_OPS_PER_THREAD: u64 = 200_000;

/// Global cap on executions explored by one `model()` call.
const MAX_EXECUTIONS: u64 = 2_000_000;

/// Default preemption bound (see module docs).
const DEFAULT_PREEMPTION_BOUND: u32 = 2;

/// Sentinel panic payload used to unwind model threads when an execution
/// aborts (failure found). Never shown to the user: `catch_unwind` filters
/// it in `run_thread`.
pub(crate) struct Abort;

/// A vector clock over model threads.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub(crate) struct Vc([u32; MAX_THREADS]);

impl Vc {
    fn join(&mut self, other: &Vc) {
        for i in 0..MAX_THREADS {
            self.0[i] = self.0[i].max(other.0[i]);
        }
    }

    /// `self` happens-after (or equals) `other`.
    fn geq(&self, other: &Vc) -> bool {
        (0..MAX_THREADS).all(|i| self.0[i] >= other.0[i])
    }
}

/// One entry in a location's store history.
struct Store {
    val: u128,
    /// Clock of the writer at the write; used for the coherence floor.
    write_vc: Vc,
    /// Clock released by this store (empty for relaxed stores with no
    /// preceding release fence); acquired by readers per their ordering.
    sync_vc: Vc,
}

/// A model memory location (one atomic variable).
struct Location {
    stores: Vec<Store>,
    /// Newest store index each thread has read or overwritten; a thread
    /// never reads older than its own mark (per-location coherence).
    last_seen: [usize; MAX_THREADS],
}

/// One recorded nondeterministic decision.
#[derive(Clone, Copy, Debug)]
struct Choice {
    chosen: usize,
    n: usize,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum BlockReason {
    /// Parked on the futex modeled by location index.
    Futex(usize),
    /// Waiting in `JoinHandle::join` for the thread id.
    Join(usize),
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TState {
    Ready,
    Blocked(BlockReason),
    Finished,
}

struct ThreadInfo {
    state: TState,
    vc: Vc,
    /// Pending acquire clock: sync clocks of relaxed-read stores, claimed
    /// by the next `fence(Acquire)`.
    acq_pending: Vc,
    /// Clock at the last `fence(Release)`; carried by later relaxed stores.
    fence_rel: Vc,
    ops: u64,
}

struct ExecState {
    threads: Vec<ThreadInfo>,
    active: usize,
    locations: Vec<Location>,
    loc_map: HashMap<usize, usize>,
    sc_clock: Vc,
    trace: Vec<Choice>,
    cursor: usize,
    preemptions: u32,
    bound: u32,
    failure: Option<String>,
    abort: bool,
    done: bool,
}

pub(crate) struct Rt {
    mx: Mutex<ExecState>,
    cv: Condvar,
    os_handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

thread_local! {
    static CURRENT: std::cell::RefCell<Option<(Arc<Rt>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

fn set_current(rt: Arc<Rt>, tid: usize) {
    CURRENT.with(|c| *c.borrow_mut() = Some((rt, tid)));
}

fn clear_current() {
    CURRENT.with(|c| *c.borrow_mut() = None);
}

fn current() -> (Arc<Rt>, usize) {
    CURRENT.with(|c| {
        c.borrow().clone().expect(
            "ffq-loom model operation used outside ffq_loom::model(); \
             loom-cfg'd code must only run inside a model closure",
        )
    })
}

/// True when the calling OS thread is inside a model execution.
pub fn in_model() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

fn is_sc(ord: Ordering) -> bool {
    ord == Ordering::SeqCst
}

fn acquires(ord: Ordering) -> bool {
    matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn releases(ord: Ordering) -> bool {
    matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

fn fresh_thread(vc: Vc) -> ThreadInfo {
    ThreadInfo {
        state: TState::Ready,
        vc,
        acq_pending: Vc::default(),
        fence_rel: Vc::default(),
        ops: 0,
    }
}

impl ExecState {
    fn new(bound: u32, trace: Vec<Choice>) -> Self {
        ExecState {
            threads: vec![fresh_thread(Vc::default())],
            active: 0,
            locations: Vec::new(),
            loc_map: HashMap::new(),
            sc_clock: Vc::default(),
            trace,
            cursor: 0,
            preemptions: 0,
            bound,
            failure: None,
            abort: false,
            done: false,
        }
    }

    fn ready_others(&self, me: usize) -> Vec<usize> {
        self.threads
            .iter()
            .enumerate()
            .filter(|&(i, t)| i != me && t.state == TState::Ready)
            .map(|(i, _)| i)
            .collect()
    }

    fn blocked_tids(&self) -> Vec<usize> {
        self.threads
            .iter()
            .enumerate()
            .filter(|&(_, t)| matches!(t.state, TState::Blocked(_)))
            .map(|(i, _)| i)
            .collect()
    }

    /// Record or replay one decision among `n` options. Decisions with a
    /// single option are not recorded (they replay trivially).
    fn next_choice(&mut self, n: usize) -> usize {
        debug_assert!(n >= 1);
        if n == 1 {
            return 0;
        }
        if self.cursor < self.trace.len() {
            let c = self.trace[self.cursor];
            self.cursor += 1;
            if c.n != n {
                self.fail(format!(
                    "ffq-loom internal error: nondeterministic replay (recorded \
                     {} options, now {}); model closures must be deterministic \
                     apart from scheduling",
                    c.n, n
                ));
                return c.chosen.min(n - 1);
            }
            c.chosen
        } else {
            self.trace.push(Choice { chosen: 0, n });
            self.cursor += 1;
            0
        }
    }

    fn fail(&mut self, msg: String) {
        self.failure.get_or_insert(msg);
        self.abort = true;
    }
}

impl Rt {
    fn new(bound: u32, trace: Vec<Choice>) -> Rt {
        Rt {
            mx: Mutex::new(ExecState::new(bound, trace)),
            cv: Condvar::new(),
            os_handles: Mutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, ExecState> {
        self.mx.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn notify(&self) {
        self.cv.notify_all();
    }

    /// Park the calling OS thread until it holds the baton (or the
    /// execution aborts, in which case unwind with the sentinel).
    fn wait_active<'a>(
        &'a self,
        mut g: MutexGuard<'a, ExecState>,
        me: usize,
    ) -> MutexGuard<'a, ExecState> {
        loop {
            if g.abort {
                drop(g);
                panic::panic_any(Abort);
            }
            if g.active == me && g.threads[me].state == TState::Ready {
                return g;
            }
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn bump_ops<'a>(
        &'a self,
        mut g: MutexGuard<'a, ExecState>,
        me: usize,
        what: &str,
    ) -> MutexGuard<'a, ExecState> {
        if g.abort {
            if std::thread::panicking() {
                // Already unwinding (Abort or a user panic): destructors
                // may touch model atomics; serve them without scheduling
                // instead of panicking inside a panic.
                return g;
            }
            drop(g);
            panic::panic_any(Abort);
        }
        g.threads[me].ops += 1;
        if g.threads[me].ops > MAX_OPS_PER_THREAD {
            g.fail(format!(
                "thread {me} exceeded {MAX_OPS_PER_THREAD} schedule points in \
                 one execution ({what}): a loop is spinning without making \
                 progress (model livelock)"
            ));
            self.notify();
            if std::thread::panicking() {
                return g;
            }
            drop(g);
            panic::panic_any(Abort);
        }
        g
    }

    /// Schedule point before a visible operation: optionally preempt.
    fn op_point<'a>(
        &'a self,
        g: MutexGuard<'a, ExecState>,
        me: usize,
    ) -> MutexGuard<'a, ExecState> {
        let mut g = self.bump_ops(g, me, "op");
        let others = g.ready_others(me);
        if g.abort || others.is_empty() || g.preemptions >= g.bound {
            // On abort, `bump_ops` only returns (instead of unwinding)
            // for a thread that is already panicking; let its destructors
            // run unscheduled rather than double-panic into a process
            // abort that swallows the failure report.
            return g;
        }
        let c = g.next_choice(others.len() + 1);
        if g.abort {
            self.notify();
            drop(g);
            panic::panic_any(Abort);
        }
        if c == 0 {
            return g;
        }
        g.preemptions += 1;
        g.active = others[c - 1];
        self.notify();
        self.wait_active(g, me)
    }

    /// `yield_now`: a free switch that must pick another ready thread when
    /// one exists (this is what bounds spin loops).
    fn yield_point<'a>(
        &'a self,
        g: MutexGuard<'a, ExecState>,
        me: usize,
    ) -> MutexGuard<'a, ExecState> {
        let mut g = self.bump_ops(g, me, "yield");
        // Eventual visibility (C++ [intro.progress]): an implementation
        // "should ensure" every store becomes visible to all threads in a
        // finite amount of time. A thread only reaches a yield from a spin
        // loop, i.e. after choosing to wait — on hardware that wait is
        // always long enough for completed stores to reach it. Raise the
        // yielder's coherence floor to the newest store everywhere so its
        // re-reads cannot stay stale forever: without this, every spin
        // iteration is a fresh stale-read choice and the DFS contains an
        // infinite all-stale path that trips the livelock cap even though
        // the awaited store already landed. Stale reads remain fully
        // explored up to the first yield.
        for loc in g.locations.iter_mut() {
            loc.last_seen[me] = loc.stores.len() - 1;
        }
        let others = g.ready_others(me);
        if g.abort || others.is_empty() {
            // See `op_point`: an aborting, already-panicking thread must
            // not re-enter the scheduler.
            return g;
        }
        let c = g.next_choice(others.len());
        if g.abort {
            self.notify();
            drop(g);
            panic::panic_any(Abort);
        }
        g.active = others[c];
        self.notify();
        self.wait_active(g, me)
    }

    /// The caller has marked itself `Blocked`; hand the baton on. Returns
    /// once some other thread made this one ready and scheduled it.
    fn block_point<'a>(
        &'a self,
        mut g: MutexGuard<'a, ExecState>,
        me: usize,
        what: &str,
    ) -> MutexGuard<'a, ExecState> {
        debug_assert!(matches!(g.threads[me].state, TState::Blocked(_)));
        let ready = g.ready_others(me);
        if ready.is_empty() {
            let blocked = g.blocked_tids();
            g.fail(format!(
                "deadlock: all live threads are blocked ({blocked:?}); thread \
                 {me} blocked on {what} with no thread left to wake it"
            ));
            self.notify();
            // Fall through: wait_active sees `abort` and unwinds.
        } else {
            let c = g.next_choice(ready.len());
            g.active = ready[c];
            self.notify();
        }
        self.wait_active(g, me)
    }

    /// The caller is done; pass the baton and return (the OS thread exits).
    fn finish_point(&self, mut g: MutexGuard<'_, ExecState>, me: usize) {
        g.threads[me].state = TState::Finished;
        let final_vc = g.threads[me].vc;
        for t in g.threads.iter_mut() {
            if t.state == TState::Blocked(BlockReason::Join(me)) {
                t.state = TState::Ready;
                t.vc.join(&final_vc);
            }
        }
        let ready = g.ready_others(me);
        if ready.is_empty() {
            if g.threads.iter().all(|t| t.state == TState::Finished) {
                g.done = true;
            } else {
                let blocked = g.blocked_tids();
                g.fail(format!(
                    "deadlock: last runnable thread {me} exited while threads \
                     {blocked:?} are still blocked (lost wakeup?)"
                ));
            }
        } else {
            let c = g.next_choice(ready.len());
            g.active = ready[c];
        }
        self.notify();
    }
}

// ---------------------------------------------------------------------------
// Memory-model operations, called from sync.rs / futex.rs. Each resolves
// the current runtime, takes the lock, runs the schedule point, then
// performs the operation under the vector-clock semantics above.
// ---------------------------------------------------------------------------

/// Resolve (or create) the location index for a model atomic identified by
/// its global id, seeding the history with the atomic's `const new` value.
fn loc_index(st: &mut ExecState, gid: usize, init: u128) -> usize {
    if let Some(&i) = st.loc_map.get(&gid) {
        return i;
    }
    let i = st.locations.len();
    st.locations.push(Location {
        stores: vec![Store {
            val: init,
            write_vc: Vc::default(),
            sync_vc: Vc::default(),
        }],
        last_seen: [0; MAX_THREADS],
    });
    st.loc_map.insert(gid, i);
    i
}

/// Coherence floor: the oldest store index this thread may still read.
fn floor_of(st: &ExecState, li: usize, me: usize) -> usize {
    let loc = &st.locations[li];
    let mut floor = loc.last_seen[me];
    let vc = st.threads[me].vc;
    for (i, s) in loc.stores.iter().enumerate().skip(floor + 1) {
        if vc.geq(&s.write_vc) {
            floor = i;
        }
    }
    floor
}

fn sc_pre(g: &mut ExecState, me: usize, ord: Ordering) {
    if is_sc(ord) {
        let sc = g.sc_clock;
        g.threads[me].vc.join(&sc);
    }
}

fn sc_post(g: &mut ExecState, me: usize, ord: Ordering) {
    if is_sc(ord) {
        let vc = g.threads[me].vc;
        g.sc_clock.join(&vc);
    }
}

fn absorb_read(g: &mut ExecState, me: usize, sync: Vc, ord: Ordering) {
    if acquires(ord) {
        g.threads[me].vc.join(&sync);
    } else {
        g.threads[me].acq_pending.join(&sync);
    }
}

pub(crate) fn atomic_load(gid: usize, init: u128, ord: Ordering) -> u128 {
    let (rt, me) = current();
    let mut g = rt.op_point(rt.lock(), me);
    sc_pre(&mut g, me, ord);
    let li = loc_index(&mut g, gid, init);
    let floor = floor_of(&g, li, me);
    let newest = g.locations[li].stores.len() - 1;
    let pick = floor + g.next_choice(newest - floor + 1);
    let loc = &mut g.locations[li];
    loc.last_seen[me] = loc.last_seen[me].max(pick);
    let val = loc.stores[pick].val;
    let sync = loc.stores[pick].sync_vc;
    absorb_read(&mut g, me, sync, ord);
    sc_post(&mut g, me, ord);
    val
}

pub(crate) fn atomic_store(gid: usize, init: u128, val: u128, ord: Ordering) {
    let (rt, me) = current();
    let mut g = rt.op_point(rt.lock(), me);
    sc_pre(&mut g, me, ord);
    let li = loc_index(&mut g, gid, init);
    g.threads[me].vc.0[me] += 1;
    let write_vc = g.threads[me].vc;
    let sync_vc = if releases(ord) {
        write_vc
    } else {
        g.threads[me].fence_rel
    };
    let loc = &mut g.locations[li];
    loc.stores.push(Store {
        val,
        write_vc,
        sync_vc,
    });
    loc.last_seen[me] = loc.stores.len() - 1;
    sc_post(&mut g, me, ord);
}

/// Read-modify-write. Reads the newest store (atomicity pins the read to
/// the tail of modification order), applies `f`, appends the result.
/// Continues the release sequence per C++20 (sync joins the read store's
/// sync clock).
pub(crate) fn atomic_rmw(
    gid: usize,
    init: u128,
    ord: Ordering,
    f: impl FnOnce(u128) -> u128,
) -> u128 {
    let (rt, me) = current();
    let mut g = rt.op_point(rt.lock(), me);
    sc_pre(&mut g, me, ord);
    let li = loc_index(&mut g, gid, init);
    let newest = g.locations[li].stores.len() - 1;
    let old = g.locations[li].stores[newest].val;
    let old_sync = g.locations[li].stores[newest].sync_vc;
    absorb_read(&mut g, me, old_sync, ord);
    g.threads[me].vc.0[me] += 1;
    let write_vc = g.threads[me].vc;
    let mut sync_vc = if releases(ord) {
        write_vc
    } else {
        g.threads[me].fence_rel
    };
    sync_vc.join(&old_sync);
    let newv = f(old);
    let loc = &mut g.locations[li];
    loc.stores.push(Store {
        val: newv,
        write_vc,
        sync_vc,
    });
    loc.last_seen[me] = loc.stores.len() - 1;
    sc_post(&mut g, me, ord);
    old
}

/// Compare-exchange. Success is an RMW; failure is a load of the newest
/// store with the failure ordering (documented simplification: failures
/// never read stale values — callers retry anyway).
pub(crate) fn atomic_cas(
    gid: usize,
    init: u128,
    expected: u128,
    new: u128,
    success: Ordering,
    failure: Ordering,
) -> Result<u128, u128> {
    let (rt, me) = current();
    let mut g = rt.op_point(rt.lock(), me);
    let li = loc_index(&mut g, gid, init);
    let newest = g.locations[li].stores.len() - 1;
    let cur = g.locations[li].stores[newest].val;
    if cur == expected {
        sc_pre(&mut g, me, success);
        let old_sync = g.locations[li].stores[newest].sync_vc;
        absorb_read(&mut g, me, old_sync, success);
        g.threads[me].vc.0[me] += 1;
        let write_vc = g.threads[me].vc;
        let mut sync_vc = if releases(success) {
            write_vc
        } else {
            g.threads[me].fence_rel
        };
        sync_vc.join(&old_sync);
        let loc = &mut g.locations[li];
        loc.stores.push(Store {
            val: new,
            write_vc,
            sync_vc,
        });
        loc.last_seen[me] = loc.stores.len() - 1;
        sc_post(&mut g, me, success);
        Ok(cur)
    } else {
        sc_pre(&mut g, me, failure);
        let sync = g.locations[li].stores[newest].sync_vc;
        absorb_read(&mut g, me, sync, failure);
        g.locations[li].last_seen[me] = newest;
        sc_post(&mut g, me, failure);
        Err(cur)
    }
}

pub(crate) fn fence(ord: Ordering) {
    let (rt, me) = current();
    let mut g = rt.op_point(rt.lock(), me);
    match ord {
        Ordering::Acquire => {
            let pending = g.threads[me].acq_pending;
            g.threads[me].vc.join(&pending);
        }
        Ordering::Release => {
            let vc = g.threads[me].vc;
            g.threads[me].fence_rel = vc;
        }
        Ordering::AcqRel => {
            let pending = g.threads[me].acq_pending;
            g.threads[me].vc.join(&pending);
            let vc = g.threads[me].vc;
            g.threads[me].fence_rel = vc;
        }
        Ordering::SeqCst => sc_fence(&mut g, me),
        _ => panic!("fence does not accept {ord:?}"),
    }
}

/// `fence(SeqCst)` executed by thread `t`: acquire and release at once,
/// and a place in the SC order.
fn sc_fence(g: &mut ExecState, t: usize) {
    let sc = g.sc_clock;
    g.threads[t].vc.join(&sc);
    let pending = g.threads[t].acq_pending;
    g.threads[t].vc.join(&pending);
    let vc = g.threads[t].vc;
    g.threads[t].fence_rel = vc;
    g.sc_clock.join(&vc);
}

/// `membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED)`: every other live thread
/// performs an SC fence at the point where it is paused (the kernel's IPI
/// interrupts a running thread between two of its instructions; a thread
/// that is not running passed a full barrier when it was switched out),
/// and then the caller re-joins the SC clock, as the syscall returns
/// after the last of those barriers. A finished thread passed a full
/// barrier on its way out: its final clock enters the SC order unchanged.
pub(crate) fn heavy_barrier() {
    let (rt, me) = current();
    let mut g = rt.op_point(rt.lock(), me);
    for t in (0..g.threads.len()).filter(|&t| t != me) {
        if g.threads[t].state == TState::Finished {
            let vc = g.threads[t].vc;
            g.sc_clock.join(&vc);
        } else {
            sc_fence(&mut g, t);
        }
    }
    let sc = g.sc_clock;
    g.threads[me].vc.join(&sc);
}

// ---------------------------------------------------------------------------
// Futex model. The "kernel" reads the newest store in modification order
// (real futexes read RAM, not a thread's cache view). Timeouts are
// intentionally NOT modeled: a park is either woken or counts as blocked
// forever, so a lost wake shows up as a hard deadlock failure instead of
// being masked by a watchdog. Spurious wakeups are not generated (callers
// re-check predicates anyway; adding them would only grow the state space).
// ---------------------------------------------------------------------------

pub(crate) fn futex_wait(gid: usize, init: u128, expected: u32) {
    let (rt, me) = current();
    let mut g = rt.op_point(rt.lock(), me);
    let li = loc_index(&mut g, gid, init);
    let newest = g.locations[li].stores.len() - 1;
    let cur = g.locations[li].stores[newest].val as u32;
    // The kernel's compare told the caller the current value: advance its
    // coherence floor so later loads of this word cannot travel back in
    // time. No clock absorption — futex synchronizes nothing — but without
    // the floor a retry loop (stale `seq` read -> EAGAIN -> reread the same
    // stale store) is an infinite execution the DFS would chase to the op
    // cap. Real memory systems propagate stores in finite time; this is the
    // model's finite-propagation assumption, applied at the one blocking
    // primitive whose whole contract is "I read RAM".
    let loc = &mut g.locations[li];
    loc.last_seen[me] = loc.last_seen[me].max(newest);
    if cur != expected || g.abort {
        // On abort the execution is being torn down; never park a
        // destructor-running (already panicking) thread.
        return;
    }
    g.threads[me].state = TState::Blocked(BlockReason::Futex(li));
    let _g = rt.block_point(g, me, "futex_wait");
}

pub(crate) fn futex_wake(gid: usize, init: u128, n: usize) -> usize {
    let (rt, me) = current();
    let mut g = rt.op_point(rt.lock(), me);
    let li = loc_index(&mut g, gid, init);
    let mut woken = 0;
    for t in g.threads.iter_mut() {
        if woken == n {
            break;
        }
        if t.state == TState::Blocked(BlockReason::Futex(li)) {
            t.state = TState::Ready;
            woken += 1;
        }
    }
    woken
}

// ---------------------------------------------------------------------------
// Threads.
// ---------------------------------------------------------------------------

pub(crate) fn yield_now() {
    let (rt, me) = current();
    let g = rt.lock();
    let _g = rt.yield_point(g, me);
}

/// Register a child thread and return `(tid, runtime)` for `run_thread`.
pub(crate) fn register_spawn() -> (usize, Arc<Rt>) {
    let (rt, _) = current();
    (register_thread(), rt)
}

/// Register a child thread (happens-before edge: child clock starts at the
/// parent's clock) and hand back its tid; the caller then creates the OS
/// thread with `run_thread`. Also a schedule point.
fn register_thread() -> usize {
    let (rt, me) = current();
    let mut g = rt.op_point(rt.lock(), me);
    if g.threads.len() >= MAX_THREADS {
        g.fail(format!("model spawned more than {MAX_THREADS} threads"));
        rt.notify();
        drop(g);
        panic::panic_any(Abort);
    }
    g.threads[me].vc.0[me] += 1;
    let vc = g.threads[me].vc;
    let tid = g.threads.len();
    g.threads.push(fresh_thread(vc));
    tid
}

/// Body wrapper for every model OS thread (including the main model
/// thread). Waits for first activation, runs `f` under `catch_unwind`,
/// records user panics as execution failures, then passes the baton.
pub(crate) fn run_thread<F: FnOnce() + Send + 'static>(rt: Arc<Rt>, tid: usize, f: F) {
    let rt2 = Arc::clone(&rt);
    let h = std::thread::spawn(move || {
        set_current(Arc::clone(&rt2), tid);
        {
            let g = rt2.lock();
            let g = rt2.wait_active(g, tid);
            drop(g);
        }
        let res = panic::catch_unwind(AssertUnwindSafe(f));
        let mut g = rt2.lock();
        if let Err(payload) = res {
            if payload.downcast_ref::<Abort>().is_none() {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "model thread panicked".to_string());
                g.fail(format!("thread {tid} panicked: {msg}"));
                rt2.notify();
            }
        }
        rt2.finish_point(g, tid);
        clear_current();
    });
    rt.os_handles
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(h);
}

/// Block until `tid` finishes, then apply the join happens-before edge.
pub(crate) fn join_thread(tid: usize) {
    let (rt, me) = current();
    let mut g = rt.op_point(rt.lock(), me);
    if g.threads[tid].state != TState::Finished {
        g.threads[me].state = TState::Blocked(BlockReason::Join(tid));
        g = rt.block_point(g, me, "thread join");
    }
    let final_vc = g.threads[tid].vc;
    g.threads[me].vc.join(&final_vc);
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

/// Run `f` under every schedule and read-from combination the bounded
/// exploration generates. Panics with the failure message of the first
/// failing execution.
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    model_bounded(DEFAULT_PREEMPTION_BOUND, f)
}

/// [`model`] with an explicit preemption bound. Larger bounds explore more
/// interleavings at (steeply) higher cost; 2 catches most protocol bugs.
pub fn model_bounded<F>(bound: u32, f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    let f = Arc::new(f);
    let mut trace: Vec<Choice> = Vec::new();
    let mut execs: u64 = 0;
    loop {
        execs += 1;
        if execs > MAX_EXECUTIONS {
            panic!("ffq-loom: exceeded {MAX_EXECUTIONS} executions; state space too large");
        }
        let rt = Arc::new(Rt::new(bound, std::mem::take(&mut trace)));
        let fc = Arc::clone(&f);
        run_thread(Arc::clone(&rt), 0, move || fc());
        // The main model thread (tid 0) already holds the baton
        // (ExecState::active starts at 0); wake it.
        rt.notify();
        {
            let mut g = rt.lock();
            while !g.done && !g.abort {
                g = rt.cv.wait(g).unwrap_or_else(|e| e.into_inner());
            }
        }
        // Join every OS thread spawned during the execution. New threads
        // cannot appear once done/abort is set (spawning threads unwind at
        // their next schedule point before reaching std::thread::spawn).
        loop {
            let h = rt
                .os_handles
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop();
            match h {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
        let mut g = rt.lock();
        if let Some(msg) = g.failure.take() {
            drop(g);
            panic!("ffq-loom: model failed after {execs} execution(s): {msg}");
        }
        trace = std::mem::take(&mut g.trace);
        drop(g);
        // Depth-first advance: bump the last choice that still has room,
        // discard the suffix; done when no choice can advance.
        let advanced = loop {
            match trace.last_mut() {
                Some(last) => {
                    if last.chosen + 1 < last.n {
                        last.chosen += 1;
                        break true;
                    }
                    trace.pop();
                }
                None => break false,
            }
        };
        if !advanced {
            break;
        }
    }
}
