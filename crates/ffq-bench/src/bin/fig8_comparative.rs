//! Figure 8: the comparative study. All threads repeatedly execute
//! enqueue/dequeue pairs on one shared queue — the benchmark of Yang &
//! Mellor-Crummey \[21\] that the paper plugged FFQ into — with a 50–150 ns
//! think time between operations. The MPMC variant of FFQ faces wfqueue,
//! lcrq, ccqueue, msqueue and the HTM queue; single-threaded SPSC and SPMC
//! FFQ marks are reported alongside.
//!
//! Paper result: FFQ-m is consistently among the fastest at every thread
//! count; ccqueue wins single-threaded but collapses with threads; wfqueue
//! and lcrq scale well; msqueue is the worst performer; HTM cannot compete
//! under concurrency. SPMC beats MPMC by >50% single-threaded.
//!
//! Usage: `fig8_comparative [--quick] [--pairs <n>] [--threads <list>]`
//! (defaults: 1e6 pairs — the paper's 1e7 via `--pairs 10000000`)

use std::sync::Arc;
use std::time::Instant;

use ffq_baselines::{
    ccqueue::CcQueue, ffqueue::FfqMpmc, htmqueue::HtmQueue, lcrq::Lcrq, msqueue::MsQueue,
    mutexqueue::MutexQueue, vyukov::VyukovQueue, wfqueue::WfQueue, BenchHandle, BenchQueue,
};
use ffq_bench::delay::{SpinDelay, XorShift};
use ffq_bench::output::{print_table, write_json};
use ffq_bench::Measurement;

const QUEUE_CAP: usize = 1 << 12;

fn run_queue<Q: BenchQueue>(threads: usize, pairs_total: u64, delay: SpinDelay) -> Measurement {
    let q = Arc::new(Q::with_capacity(QUEUE_CAP));
    let per_thread = pairs_total / threads as u64;
    let start = Instant::now();
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut h = q.register();
                let mut rng = XorShift::new(0xFF0F_u64 ^ ((t as u64 + 1) * 0x9E37));
                for i in 0..per_thread {
                    h.enqueue(t as u64 * per_thread + i);
                    delay.think(&mut rng);
                    // Pairs on a shared queue: another thread may grab our
                    // element; retry until *an* element arrives.
                    while h.dequeue().is_none() {
                        std::hint::spin_loop();
                    }
                    delay.think(&mut rng);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let elapsed = start.elapsed();
    // Each pair is one enqueue + one dequeue = 2 operations.
    Measurement::new(
        format!("{} @{}", Q::NAME, threads),
        2 * per_thread * threads as u64,
        elapsed,
    )
}

fn run_ffq_spsc(pairs: u64, delay: SpinDelay) -> Measurement {
    let (mut tx, mut rx) = ffq::spsc::channel::<u64>(QUEUE_CAP);
    let mut rng = XorShift::new(1);
    let start = Instant::now();
    for i in 0..pairs {
        tx.enqueue(i);
        delay.think(&mut rng);
        let _ = rx.try_dequeue().expect("own element");
        delay.think(&mut rng);
    }
    Measurement::new("ffq (spsc) @1", 2 * pairs, start.elapsed())
}

fn run_ffq_spmc(pairs: u64, delay: SpinDelay) -> Measurement {
    let (mut tx, mut rx) = ffq::spmc::channel::<u64>(QUEUE_CAP);
    let mut rng = XorShift::new(2);
    let start = Instant::now();
    for i in 0..pairs {
        tx.enqueue(i);
        delay.think(&mut rng);
        let _ = rx.try_dequeue().expect("own element");
        delay.think(&mut rng);
    }
    Measurement::new("ffq (spmc) @1", 2 * pairs, start.elapsed())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let pairs: u64 = args
        .iter()
        .position(|a| a == "--pairs")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(if quick { 100_000 } else { 1_000_000 });
    let threads: Vec<usize> = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.split(',').filter_map(|x| x.parse().ok()).collect())
        .unwrap_or_else(|| vec![1, 2, 4, 8]);

    println!("Figure 8 reproduction: comparative study ({pairs} pairs total per run)");
    println!(
        "host parallelism: {} — thread counts beyond it are oversubscribed, as in the paper's >cores runs",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );
    let delay = SpinDelay::calibrate();

    let mut rows = Vec::new();
    rows.push(run_ffq_spsc(pairs, delay));
    rows.push(run_ffq_spmc(pairs, delay));
    for &t in &threads {
        rows.push(run_queue::<FfqMpmc>(t, pairs, delay));
        rows.push(run_queue::<WfQueue>(t, pairs, delay));
        rows.push(run_queue::<Lcrq>(t, pairs, delay));
        rows.push(run_queue::<CcQueue>(t, pairs, delay));
        rows.push(run_queue::<MsQueue>(t, pairs, delay));
        rows.push(run_queue::<HtmQueue>(t, pairs, delay));
        rows.push(run_queue::<VyukovQueue>(t, pairs, delay));
        rows.push(run_queue::<MutexQueue>(t, pairs, delay));
    }
    print_table("Fig.8 comparative throughput", &rows);
    write_json("fig8_comparative", &rows);
}
