//! Workloads for the adaptive-wait evaluation (`fig_wait`).
//!
//! Three panels run once per [`WaitConfig`] (pure busy-wait vs the
//! spin → yield → park default); the fourth parks at once:
//!
//! 1. **Idle burn** — consumers blocked on an empty queue for a fixed
//!    window. The interesting number is CPU-seconds, not throughput: a
//!    spinning waiter burns a core doing nothing, a parked one doesn't.
//! 2. **Oversubscribed drain** — one producer feeding 2× more blocking
//!    consumers than cores. Spinning waiters steal cycles from the threads
//!    that have work; parking hands them back.
//! 3. **Uncontended pairs** — alternating enqueue/dequeue on one thread,
//!    so the blocking API runs its fast path only. This prices the wait
//!    layer's overhead when nobody ever waits.
//! 4. **Parked ping-pong** — two threads bounce one item through two
//!    SPSC queues whose consumers park as soon as their queue is empty,
//!    so nearly every handoff is a park and a futex wake. This prices
//!    the park path itself, which the other panels barely touch.
//!
//! CPU time is read per thread via `getrusage(RUSAGE_THREAD)` and summed
//! at join, so the numbers cover exactly the worker threads of each panel.

use std::time::{Duration, Instant};

use ffq::WaitConfig;
use ffq_sync::sys;

use crate::measure::Measurement;

/// CPU seconds (user + system) consumed so far by the calling thread.
pub fn thread_cpu_seconds() -> f64 {
    // SAFETY: zeroed is a valid byte pattern for the plain-data `rusage`.
    let mut ru: sys::rusage = unsafe { std::mem::zeroed() };
    // SAFETY: `ru` is a valid out-pointer for the duration of the call.
    let rc = unsafe { sys::getrusage(sys::RUSAGE_THREAD, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_THREAD) failed");
    let tv = |t: sys::timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    tv(ru.ru_utime) + tv(ru.ru_stime)
}

/// A measured panel run plus the resource numbers the panel is about.
#[derive(Debug, Clone)]
pub struct WaitRun {
    /// Ops and wall-clock throughput.
    pub m: Measurement,
    /// Summed CPU-seconds of every worker thread in the run.
    pub cpu_secs: f64,
    /// Summed futex parks across every handle in the run.
    pub parks: u64,
}

/// Panel 1: `consumers` blocked dequeues against an empty queue for
/// `window`. `ops` is 0 by construction — the whole point is that nothing
/// happens; `cpu_secs` says what that nothing cost.
pub fn idle_burn(
    consumers: usize,
    window: Duration,
    cfg: WaitConfig,
    label: impl Into<String>,
) -> WaitRun {
    let (tx, rx) = ffq::spmc::channel::<u64>(64);
    let start = Instant::now();
    let workers: Vec<_> = (0..consumers)
        .map(|_| {
            let mut rx = rx.clone();
            std::thread::spawn(move || {
                rx.set_wait_config(cfg);
                let r = rx.dequeue_timeout(window);
                assert_eq!(r, Err(ffq::TryDequeueError::Empty));
                (thread_cpu_seconds(), rx.stats().parks)
            })
        })
        .collect();
    drop(rx);
    let mut cpu_secs = 0.0;
    let mut parks = 0;
    for w in workers {
        let (cpu, p) = w.join().unwrap();
        cpu_secs += cpu;
        parks += p;
    }
    let elapsed = start.elapsed();
    drop(tx); // keep the producer alive for the whole window: Empty, not Disconnected
    WaitRun {
        m: Measurement::new(label, 0, elapsed),
        cpu_secs,
        parks,
    }
}

/// Panel 2: one producer pushes `items` through a `queue_size` SPMC queue
/// into `consumers` blocking consumers (intended: 2× the cores). Returns
/// wall-clock throughput over the full drain plus all threads' CPU.
pub fn oversubscribed_drain(
    queue_size: usize,
    consumers: usize,
    items: u64,
    cfg: WaitConfig,
    label: impl Into<String>,
) -> WaitRun {
    let (mut tx, rx) = ffq::spmc::channel::<u64>(queue_size);
    tx.set_wait_config(cfg);
    // The producer runs on the calling thread, which may have burnt CPU
    // before this panel — charge only the delta.
    let cpu_base = thread_cpu_seconds();
    let start = Instant::now();
    let workers: Vec<_> = (0..consumers)
        .map(|_| {
            let mut rx = rx.clone();
            std::thread::spawn(move || {
                rx.set_wait_config(cfg);
                let mut n = 0u64;
                while rx.dequeue().is_ok() {
                    n += 1;
                }
                (n, thread_cpu_seconds(), rx.stats().parks)
            })
        })
        .collect();
    drop(rx);
    for i in 0..items {
        tx.enqueue(i);
    }
    let producer_parks = tx.stats().parks;
    drop(tx); // consumers drain the tail and observe the disconnect
    let mut total = 0u64;
    let mut cpu_secs = thread_cpu_seconds() - cpu_base;
    let mut parks = producer_parks;
    for w in workers {
        let (n, cpu, p) = w.join().unwrap();
        total += n;
        cpu_secs += cpu;
        parks += p;
    }
    let elapsed = start.elapsed();
    assert_eq!(total, items, "oversubscribed drain lost items");
    WaitRun {
        m: Measurement::new(label, items, elapsed),
        cpu_secs,
        parks,
    }
}

/// Panel 3: `items` alternating enqueue → blocking dequeue pairs on a
/// single thread. The dequeue always finds its item published, so both
/// configs run the identical no-wait fast path; any ratio off 1.0 is
/// wait-layer overhead on the hot path.
pub fn uncontended_pairs(items: u64, cfg: WaitConfig, label: impl Into<String>) -> WaitRun {
    let (mut tx, mut rx) = ffq::spsc::channel::<u64>(64);
    tx.set_wait_config(cfg);
    rx.set_wait_config(cfg);
    // Single-threaded panel on the calling thread: charge only the delta.
    let cpu_base = thread_cpu_seconds();
    let start = Instant::now();
    for i in 0..items {
        tx.enqueue(i);
        assert_eq!(rx.dequeue(), Ok(i));
    }
    let elapsed = start.elapsed();
    let cpu_secs = thread_cpu_seconds() - cpu_base;
    let parks = tx.stats().parks + rx.stats().parks;
    WaitRun {
        m: Measurement::new(label, items, elapsed),
        cpu_secs,
        parks,
    }
}

/// Panel 4: `round_trips` two-thread round trips through a request and a
/// reply SPSC queue whose consumers skip the spin and yield phases and
/// park as soon as their queue is empty. Each round trip costs up to two
/// parks and two futex wakes, with the fence pair around every park
/// (on in-process queues, the parking waiter's `membarrier`). `ops`
/// counts round trips.
pub fn parked_pingpong(round_trips: u64, label: impl Into<String>) -> WaitRun {
    const PARK_NOW: WaitConfig = WaitConfig {
        spin_limit: 0,
        yield_limit: 0,
        max_park: None,
        park: true,
    };
    let (mut req_tx, mut req_rx) = ffq::spsc::channel::<u64>(64);
    let (mut rsp_tx, mut rsp_rx) = ffq::spsc::channel::<u64>(64);
    req_rx.set_wait_config(PARK_NOW);
    rsp_rx.set_wait_config(PARK_NOW);
    let server = std::thread::spawn(move || {
        while let Ok(v) = req_rx.dequeue() {
            rsp_tx.enqueue(v);
        }
        (thread_cpu_seconds(), req_rx.stats().parks)
    });
    let cpu_base = thread_cpu_seconds();
    let start = Instant::now();
    for i in 0..round_trips {
        req_tx.enqueue(i);
        assert_eq!(rsp_rx.dequeue(), Ok(i));
    }
    let elapsed = start.elapsed();
    let client_cpu = thread_cpu_seconds() - cpu_base;
    let client_parks = rsp_rx.stats().parks;
    drop(req_tx); // the server drains and observes the disconnect
    let (server_cpu, server_parks) = server.join().unwrap();
    WaitRun {
        m: Measurement::new(label, round_trips, elapsed),
        cpu_secs: client_cpu + server_cpu,
        parks: client_parks + server_parks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_is_monotonic_and_sane() {
        let a = thread_cpu_seconds();
        // Burn a little CPU so the delta is observable.
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
        let b = thread_cpu_seconds();
        assert!(b >= a);
        assert!(b < 3600.0, "absurd thread CPU reading: {b}");
    }

    #[test]
    fn idle_burn_adaptive_parks_and_burns_little() {
        let r = idle_burn(
            2,
            Duration::from_millis(200),
            WaitConfig::default(),
            "idle adaptive",
        );
        assert!(r.parks > 0, "idle consumers never parked");
        // Two consumers idling 200 ms must not cost anywhere near
        // 2 × 200 ms of CPU; allow generous slack for slow CI.
        assert!(r.cpu_secs < 0.2, "idle burn too high: {} s", r.cpu_secs);
    }

    #[test]
    fn parked_pingpong_parks() {
        let r = parked_pingpong(200, "parked");
        assert_eq!(r.m.ops, 200);
        assert!(r.parks > 0, "a park-at-once ping-pong never parked");
    }

    #[test]
    fn uncontended_pairs_never_park() {
        let r = uncontended_pairs(10_000, WaitConfig::default(), "pairs");
        assert_eq!(r.parks, 0, "hot handoff should never reach the waiter");
        assert_eq!(r.m.ops, 10_000);
    }

    #[test]
    fn oversubscribed_drain_delivers_everything() {
        // Delivery is asserted inside; parks may be zero on a fast box.
        let r = oversubscribed_drain(256, 4, 50_000, WaitConfig::default(), "drain");
        assert_eq!(r.m.ops, 50_000);
    }
}
