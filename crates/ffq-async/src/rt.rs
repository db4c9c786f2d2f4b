//! A dependency-free mini async runtime: `block_on`, a thread-pool
//! executor, and a timer.
//!
//! `ffq-async`'s futures are runtime-agnostic — they only need *some*
//! executor to poll them and deliver wakes. Production users bring their
//! own (tokio through `integrations/ffq-tokio`, smol, …); this
//! module exists so the crate's tests, stress harness, example and
//! benchmarks run in fully offline environments where no external runtime
//! crate can be built. It is intentionally minimal — a global injector
//! queue, no work stealing, no IO reactor — but it is a *correct* executor:
//! wakes are never lost, tasks never run concurrently with themselves
//! (single-slot future storage behind a mutex), and panics in a task
//! surface at `JoinHandle::await`.
//!
//! Why no wake is lost: the run queue keeps a count of the workers asleep
//! on its condvar, written and read only under the queue lock. A worker
//! that finds the queue empty raises the count and enters `Condvar::wait`
//! without letting go of the lock in between, and lowers the count once
//! `wait` returns. A wake pushes its task and reads the count under that
//! same lock, and signals the condvar only when the count is nonzero. So
//! a push either lands before a worker's empty check, which then finds
//! the task, or finds that worker counted, hence inside `wait`, and
//! signals it. The gate is what keeps a busy executor's wakes out of the
//! kernel: std's Linux condvar keeps no waiter count, so every
//! `notify_one` is a `FUTEX_WAKE` syscall, waiter or not.

use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, Weak};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// block_on
// ---------------------------------------------------------------------------

/// Current-thread waker: `wake` unparks the blocked thread.
struct ThreadWaker(std::thread::Thread);

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.0.unpark();
    }
}

/// Drives `fut` to completion on the calling thread, parking between
/// polls.
///
/// Safe against the park/wake race: `unpark` on a not-yet-parked thread
/// makes the next `park` return immediately (std's park token), so a wake
/// delivered between a `Pending` return and the park is never lost.
pub fn block_on<F: Future>(fut: F) -> F::Output {
    let mut fut = std::pin::pin!(fut);
    let waker = Waker::from(Arc::new(ThreadWaker(std::thread::current())));
    let mut cx = Context::from_waker(&waker);
    loop {
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(v) => return v,
            Poll::Pending => std::thread::park(),
        }
    }
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// Everything a worker decides to sleep on, behind one lock.
struct RunQueue {
    tasks: VecDeque<Arc<Task>>,
    /// Workers blocked in `ExecShared::cv.wait`: raised just before the
    /// wait, lowered once it returns.
    sleepers: usize,
    shutdown: bool,
}

struct ExecShared {
    queue: Mutex<RunQueue>,
    cv: Condvar,
}

impl ExecShared {
    fn lock(&self) -> MutexGuard<'_, RunQueue> {
        self.queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn push(&self, task: Arc<Task>) {
        let mut q = self.lock();
        q.tasks.push_back(task);
        // Zero here means every worker is awake and re-checks `tasks`
        // under this lock before it sleeps (module docs).
        let sleeping = q.sleepers > 0;
        drop(q);
        if sleeping {
            self.cv.notify_one();
        }
    }
}

struct Task {
    /// The future, present while the task is live; `None` after
    /// completion. The mutex also serializes polls of the same task from
    /// different workers (a re-queued task may be popped while its
    /// previous poll is still finishing).
    fut: Mutex<Option<BoxFuture>>,
    /// De-duplicates queue entries: a task is pushed only by the waker
    /// that flips this false→true; the worker flips it back before
    /// polling, so a wake during the poll re-queues exactly once.
    queued: AtomicBool,
    exec: Weak<ExecShared>,
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        if !self.queued.swap(true, Ordering::AcqRel) {
            if let Some(ex) = self.exec.upgrade() {
                ex.push(self);
            }
        }
    }
}

/// A small thread-pool executor for `'static` tasks.
///
/// Dropping the executor shuts the workers down; tasks that have not
/// completed are dropped (their `JoinHandle`s then report cancellation by
/// panicking on join — join everything you care about first).
pub struct Executor {
    shared: Arc<ExecShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Executor {
    /// Spawns `threads` worker threads (at least one).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(ExecShared {
            queue: Mutex::new(RunQueue {
                tasks: VecDeque::new(),
                sleepers: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
        });
        let workers = (0..threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ffq-async-worker-{i}"))
                    .spawn(move || worker(&shared))
                    .expect("spawn executor worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Spawns a task; the returned handle is a future resolving to the
    /// task's output (or use [`JoinHandle::join`] from sync code).
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let inner = Arc::new(JoinInner {
            result: Mutex::new(JoinState::Running(None)),
        });
        let inner2 = Arc::clone(&inner);
        let wrapped = async move {
            let out = fut.await;
            let waker = {
                let mut g = inner2
                    .result
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                let prev = std::mem::replace(&mut *g, JoinState::Done(Some(out)));
                match prev {
                    JoinState::Running(w) => w,
                    JoinState::Done(_) => None,
                }
            };
            if let Some(w) = waker {
                w.wake();
            }
        };
        let task = Arc::new(Task {
            fut: Mutex::new(Some(Box::pin(wrapped))),
            queued: AtomicBool::new(true),
            exec: Arc::downgrade(&self.shared),
        });
        self.shared.push(task);
        JoinHandle { inner }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        // Set under the lock, like every other sleep condition: a worker
        // between its shutdown check and its `wait` would miss the
        // notify otherwise.
        self.shared.lock().shutdown = true;
        self.shared.cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker(shared: &ExecShared) {
    loop {
        let task = {
            let mut q = shared.lock();
            loop {
                if q.shutdown {
                    return;
                }
                if let Some(t) = q.tasks.pop_front() {
                    break t;
                }
                q.sleepers += 1;
                q = shared
                    .cv
                    .wait(q)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                q.sleepers -= 1;
            }
        };
        // Clear before polling: a wake arriving mid-poll must re-queue.
        task.queued.store(false, Ordering::Release);
        let mut slot = task
            .fut
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let Some(fut) = slot.as_mut() else {
            continue; // completed by an earlier queue entry
        };
        let waker = Waker::from(Arc::clone(&task));
        let mut cx = Context::from_waker(&waker);
        // A panicking task poisons only its own future slot; the worker
        // survives. The JoinHandle observes it as a cancelled task.
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fut.as_mut().poll(&mut cx)))
        {
            Ok(Poll::Ready(())) | Err(_) => *slot = None,
            Ok(Poll::Pending) => {}
        }
    }
}

/// State shared between a task's completion wrapper and its
/// [`JoinHandle`].
enum JoinState<T> {
    /// Still running; the handle's waker, if it polled.
    Running(Option<Waker>),
    /// Finished; the output until the handle takes it.
    Done(Option<T>),
}

struct JoinInner<T> {
    result: Mutex<JoinState<T>>,
}

/// Future resolving to a spawned task's output.
pub struct JoinHandle<T> {
    inner: Arc<JoinInner<T>>,
}

impl<T> JoinHandle<T> {
    /// Blocks the current (non-executor!) thread until the task finishes.
    pub fn join(self) -> T {
        block_on(self)
    }

    /// Whether the task has finished.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        matches!(
            &*self
                .inner
                .result
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
            JoinState::Done(_)
        )
    }
}

impl<T> Unpin for JoinHandle<T> {}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut g = self
            .inner
            .result
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match &mut *g {
            JoinState::Done(out) => match out.take() {
                Some(v) => Poll::Ready(v),
                // Done(None) with no output: the task panicked (its
                // wrapper never stored a value) or the handle was polled
                // twice past completion.
                None => panic!("task panicked or JoinHandle polled after completion"),
            },
            JoinState::Running(w) => {
                *w = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Timer
// ---------------------------------------------------------------------------

/// One pending sleep: deadline + shared waker slot (the `Sleep` future
/// refreshes the waker on re-poll; `fired` tells it to stop).
struct TimerEntry {
    deadline: Instant,
    state: Arc<Mutex<SleepState>>,
}

struct SleepState {
    waker: Option<Waker>,
    fired: bool,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest
        // deadline on top.
        other.deadline.cmp(&self.deadline)
    }
}

struct TimerShared {
    heap: Mutex<BinaryHeap<TimerEntry>>,
    cv: Condvar,
}

/// The global timer thread, started on first use. One per process is
/// plenty for tests and benches; a real runtime brings its own timer
/// wheel.
fn timer() -> &'static TimerShared {
    static TIMER: OnceLock<&'static TimerShared> = OnceLock::new();
    TIMER.get_or_init(|| {
        let shared: &'static TimerShared = Box::leak(Box::new(TimerShared {
            heap: Mutex::new(BinaryHeap::new()),
            cv: Condvar::new(),
        }));
        std::thread::Builder::new()
            .name("ffq-async-timer".into())
            .spawn(move || timer_thread(shared))
            .expect("spawn timer thread");
        shared
    })
}

fn timer_thread(shared: &'static TimerShared) {
    let mut heap = shared
        .heap
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    loop {
        let now = Instant::now();
        // Fire everything due; collect wakers to invoke outside the lock.
        let mut due: Vec<Waker> = Vec::new();
        while let Some(top) = heap.peek() {
            if top.deadline > now {
                break;
            }
            let entry = heap.pop().expect("peeked");
            let mut st = entry
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            st.fired = true;
            if let Some(w) = st.waker.take() {
                due.push(w);
            }
        }
        if !due.is_empty() {
            drop(heap);
            for w in due {
                w.wake();
            }
            heap = shared
                .heap
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            continue;
        }
        heap = match heap.peek().map(|e| e.deadline) {
            Some(next) => {
                let wait = next.saturating_duration_since(now);
                shared
                    .cv
                    .wait_timeout(heap, wait)
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .0
            }
            None => shared
                .cv
                .wait(heap)
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        };
    }
}

/// Future of [`sleep`].
#[must_use = "futures do nothing unless polled"]
pub struct Sleep {
    deadline: Instant,
    /// Lazily created on first `Pending` poll so immediately-elapsed
    /// sleeps never touch the timer thread.
    state: Option<Arc<Mutex<SleepState>>>,
}

impl Unpin for Sleep {}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let me = self.get_mut();
        if Instant::now() >= me.deadline {
            return Poll::Ready(());
        }
        match &me.state {
            Some(state) => {
                let mut st = state
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                if st.fired {
                    return Poll::Ready(());
                }
                st.waker = Some(cx.waker().clone());
                Poll::Pending
            }
            None => {
                let state = Arc::new(Mutex::new(SleepState {
                    waker: Some(cx.waker().clone()),
                    fired: false,
                }));
                me.state = Some(Arc::clone(&state));
                let t = timer();
                t.heap
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push(TimerEntry {
                        deadline: me.deadline,
                        state,
                    });
                t.cv.notify_one();
                Poll::Pending
            }
        }
    }
}

/// Resolves after `dur` (millisecond-ish granularity; test/bench grade).
pub fn sleep(dur: Duration) -> Sleep {
    Sleep {
        deadline: Instant::now() + dur,
        state: None,
    }
}

/// A [`timeout`] that elapsed before its inner future resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Elapsed;

impl core::fmt::Display for Elapsed {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("timeout elapsed")
    }
}

impl std::error::Error for Elapsed {}

/// Future of [`timeout`].
#[must_use = "futures do nothing unless polled"]
pub struct Timeout<F> {
    fut: F,
    sleep: Sleep,
}

impl<F: Future + Unpin> Unpin for Timeout<F> {}

impl<F: Future + Unpin> Future for Timeout<F> {
    type Output = Result<F::Output, Elapsed>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let me = self.get_mut();
        if let Poll::Ready(v) = Pin::new(&mut me.fut).poll(cx) {
            return Poll::Ready(Ok(v));
        }
        match Pin::new(&mut me.sleep).poll(cx) {
            // The deadline cancels the inner future by *dropping* it with
            // this Timeout — exactly the cancellation path the queue
            // futures are hardened against.
            Poll::Ready(()) => Poll::Ready(Err(Elapsed)),
            Poll::Pending => Poll::Pending,
        }
    }
}

/// Limits `fut` to `dur`; on timeout the inner future is dropped
/// (cancelled). Requires `Unpin` (all queue futures are).
pub fn timeout<F: Future + Unpin>(dur: Duration, fut: F) -> Timeout<F> {
    Timeout {
        fut,
        sleep: sleep(dur),
    }
}

/// Future of [`yield_now`].
#[must_use = "futures do nothing unless polled"]
pub struct YieldNow {
    yielded: bool,
}

impl Unpin for YieldNow {}

impl Future for YieldNow {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            return Poll::Ready(());
        }
        self.get_mut().yielded = true;
        cx.waker().wake_by_ref();
        Poll::Pending
    }
}

/// Re-queues the current task once, letting peers run.
pub fn yield_now() -> YieldNow {
    YieldNow { yielded: false }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_on_ready_future() {
        assert_eq!(block_on(async { 41 + 1 }), 42);
    }

    #[test]
    fn block_on_drives_yields() {
        assert_eq!(
            block_on(async {
                yield_now().await;
                yield_now().await;
                7
            }),
            7
        );
    }

    #[test]
    fn executor_runs_tasks_and_joins() {
        let ex = Executor::new(2);
        let hs: Vec<_> = (0..8).map(|i| ex.spawn(async move { i * i })).collect();
        let sum: i32 = hs.into_iter().map(block_on).sum();
        assert_eq!(sum, (0..8).map(|i| i * i).sum());
    }

    #[test]
    fn join_handle_awaits_inside_task() {
        let ex = Executor::new(2);
        let inner = ex.spawn(async { 5 });
        let outer = ex.spawn(async move { inner.await + 1 });
        assert_eq!(block_on(outer), 6);
    }

    /// Waits until every worker of `ex` is blocked in `cv.wait` with
    /// nothing queued, as its sleeper count reports it.
    fn wait_until_idle(ex: &Executor, deadline: Instant) {
        loop {
            {
                let q = ex.shared.lock();
                if q.sleepers == ex.workers.len() && q.tasks.is_empty() {
                    return;
                }
            }
            assert!(
                Instant::now() < deadline,
                "the sleeper count never reached the worker count"
            );
            std::thread::yield_now();
        }
    }

    /// A wake delivered while every worker sleeps reaches one: each round
    /// waits until both workers are blocked, then wakes a parked echo
    /// task from this thread, whose push is the only thing that can
    /// rouse a worker.
    #[test]
    #[cfg_attr(miri, ignore)] // a thousand futex sleep/wake round trips
    fn wake_reaches_an_idle_executor() {
        const ROUNDS: u64 = 1000;
        let ex = Executor::new(2);
        let (mut ping_tx, mut ping_rx) = crate::spsc::channel::<u64>(4);
        let (mut pong_tx, mut pong_rx) = crate::spsc::channel::<u64>(4);
        let echo = ex.spawn(async move {
            while let Ok(v) = ping_rx.dequeue().await {
                pong_tx
                    .enqueue(v)
                    .await
                    .expect("the test holds the receiver");
            }
        });
        for round in 0..ROUNDS {
            let deadline = Instant::now() + Duration::from_secs(10);
            wait_until_idle(&ex, deadline);
            ping_tx
                .try_enqueue(round)
                .expect("the echo drained the last ping");
            let echoed = block_on(timeout(
                deadline.saturating_duration_since(Instant::now()),
                pong_rx.dequeue(),
            ));
            assert_eq!(echoed, Ok(Ok(round)), "round {round}: the wake was lost");
        }
        drop(ping_tx);
        block_on(echo);
    }

    #[test]
    fn sleep_and_timeout() {
        let start = Instant::now();
        block_on(sleep(Duration::from_millis(30)));
        assert!(Instant::now() - start >= Duration::from_millis(25));

        let r = block_on(timeout(
            Duration::from_millis(20),
            sleep(Duration::from_millis(500)),
        ));
        assert_eq!(r, Err(Elapsed));
        let r = block_on(timeout(
            Duration::from_millis(500),
            sleep(Duration::from_millis(5)),
        ));
        assert_eq!(r, Ok(()));
    }
}
