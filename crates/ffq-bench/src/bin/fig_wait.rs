//! Adaptive-wait evaluation (not a paper figure; the evaluation for the
//! spin → yield → park blocking layer).
//!
//! Each panel runs twice — [`WaitConfig::spin_only`] (the old busy-wait
//! behavior) vs the adaptive default — and reports throughput *and*
//! CPU-seconds:
//!
//! 1. **idle** — consumers blocked on an empty queue for a fixed window.
//!    Adaptive waiting must cut the CPU burnt per idle second by ≥10×.
//! 2. **oversubscribed** — one producer, 2× more blocking consumers than
//!    cores. Adaptive throughput must be no worse than spin-only.
//! 3. **uncontended** — alternating enqueue/dequeue pairs on one thread.
//!    The wait layer never engages; adaptive must stay within ~5% of
//!    spin-only, pricing the fast-path overhead at a branch.
//! 4. **parked** — a two-thread ping-pong whose consumers park as soon
//!    as their queue is empty (one config, `park-now`): the cost of a
//!    park-and-wake handoff, which the panels above barely reach.
//!
//! Usage: `fig_wait [--quick] [--items <n>] [--pairs <n>] [--idle-ms <n>]`
//!
//! Writes `BENCH_wait.json` rows under `target/bench-results/`.

use std::time::Duration;

use ffq::WaitConfig;
use ffq_bench::json_object;
use ffq_bench::measure::CommonArgs;
use ffq_bench::output::write_json;
use ffq_bench::wait::{
    idle_burn, oversubscribed_drain, parked_pingpong, uncontended_pairs, WaitRun,
};

/// One panel × config measurement, as serialized into `BENCH_wait.json`.
#[derive(Debug, Clone)]
struct WaitRow {
    /// Configuration label.
    label: String,
    /// "idle" / "oversubscribed" / "uncontended" / "parked".
    panel: &'static str,
    /// "spin-only", "adaptive", or "park-now" (the parked panel).
    config: &'static str,
    /// Worker threads involved (consumers; +1 producer where one runs).
    threads: usize,
    /// Items moved (0 for the idle panel — nothing moves by design).
    ops: u64,
    /// Wall-clock seconds.
    elapsed_secs: f64,
    /// Millions of items per second (0 for the idle panel).
    mops_per_sec: f64,
    /// Summed worker-thread CPU-seconds.
    cpu_secs: f64,
    /// CPU-seconds burnt per wall-clock second (the idle panel's verdict).
    cpu_per_wall: f64,
    /// Futex parks taken across all handles.
    parks: u64,
}
json_object!(WaitRow: label, panel, config, threads, ops, elapsed_secs, mops_per_sec, cpu_secs,
    cpu_per_wall, parks);

fn row(panel: &'static str, config: &'static str, threads: usize, r: &WaitRun) -> WaitRow {
    WaitRow {
        label: r.m.label.clone(),
        panel,
        config,
        threads,
        ops: r.m.ops,
        elapsed_secs: r.m.elapsed_secs,
        mops_per_sec: r.m.mops_per_sec,
        cpu_secs: r.cpu_secs,
        cpu_per_wall: r.cpu_secs / r.m.elapsed_secs.max(1e-9),
        parks: r.parks,
    }
}

type NamedConfig = (&'static str, fn() -> WaitConfig);

const CONFIGS: [NamedConfig; 2] = [
    ("spin-only", WaitConfig::spin_only),
    ("adaptive", WaitConfig::adaptive),
];

fn main() {
    let args = CommonArgs::parse();
    let mut items: u64 = if args.quick { 200_000 } else { 1_000_000 };
    let mut pairs: u64 = if args.quick { 200_000 } else { 2_000_000 };
    let mut idle_ms: u64 = if args.quick { 250 } else { 1_000 };
    let mut it = args.rest.iter();
    while let Some(a) = it.next() {
        let parse = |v: Option<&String>| -> u64 {
            v.and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                eprintln!("usage: fig_wait [--quick] [--items <n>] [--pairs <n>] [--idle-ms <n>]");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--items" => items = parse(it.next()).max(1),
            "--pairs" => pairs = parse(it.next()).max(1),
            "--idle-ms" => idle_ms = parse(it.next()).max(1),
            _ => {
                eprintln!("unknown argument: {a}");
                std::process::exit(2);
            }
        }
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let idle_consumers = 2;
    let over_consumers = (2 * cores).max(2);
    const QUEUE_SIZE: usize = 256;
    let window = Duration::from_millis(idle_ms);

    println!(
        "Adaptive wait evaluation: spin-only vs spin->yield->park \
         ({cores} cores, {over_consumers} oversubscribed consumers)"
    );
    let mut rows = Vec::new();

    for (name, cfg) in CONFIGS {
        let r = idle_burn(
            idle_consumers,
            window,
            cfg(),
            format!("idle {idle_consumers}c {name}"),
        );
        rows.push(row("idle", name, idle_consumers, &r));
    }
    // Throughput panels are best-of-N: on an oversubscribed (or plain
    // busy) box a single drain is at the mercy of the scheduler, and the
    // question is what each config can do, not what the box happened to
    // be doing.
    let reps = if args.quick { 1 } else { 3 };
    let best = |runs: Vec<WaitRun>| {
        runs.into_iter()
            .max_by(|a, b| a.m.mops_per_sec.total_cmp(&b.m.mops_per_sec))
            .expect("reps >= 1")
    };
    for (name, cfg) in CONFIGS {
        let r = best(
            (0..reps)
                .map(|_| {
                    oversubscribed_drain(
                        QUEUE_SIZE,
                        over_consumers,
                        items,
                        cfg(),
                        format!("drain 1p/{over_consumers}c {name}"),
                    )
                })
                .collect(),
        );
        rows.push(row("oversubscribed", name, over_consumers + 1, &r));
    }
    for (name, cfg) in CONFIGS {
        let r = best(
            (0..reps)
                .map(|_| uncontended_pairs(pairs, cfg(), format!("pairs 1t {name}")))
                .collect(),
        );
        rows.push(row("uncontended", name, 1, &r));
    }
    let round_trips = if args.quick { 5_000 } else { 50_000 };
    let r = best(
        (0..reps)
            .map(|_| parked_pingpong(round_trips, "parked 2t park-now"))
            .collect(),
    );
    rows.push(row("parked", "park-now", 2, &r));

    println!(
        "\n{:<28} {:>10} {:>10} {:>10} {:>12} {:>10} {:>8}",
        "config", "ops", "secs", "Mops/s", "cpu-secs", "cpu/wall", "parks"
    );
    for r in &rows {
        println!(
            "{:<28} {:>10} {:>10.3} {:>10.3} {:>12.4} {:>10.3} {:>8}",
            r.label, r.ops, r.elapsed_secs, r.mops_per_sec, r.cpu_secs, r.cpu_per_wall, r.parks
        );
    }

    let by = |panel: &str, config: &str| {
        rows.iter()
            .find(|r| r.panel == panel && r.config == config)
            .expect("all panels ran")
    };
    let burn_ratio = by("idle", "spin-only").cpu_secs / by("idle", "adaptive").cpu_secs.max(1e-9);
    let thr_ratio = by("oversubscribed", "adaptive").mops_per_sec
        / by("oversubscribed", "spin-only").mops_per_sec;
    let lat_ratio =
        by("uncontended", "spin-only").mops_per_sec / by("uncontended", "adaptive").mops_per_sec;
    println!("\nidle CPU burn: adaptive is {burn_ratio:.1}x cheaper than spin-only");
    println!("oversubscribed throughput: adaptive/spin-only = {thr_ratio:.3}");
    println!("uncontended hot path: spin-only/adaptive = {lat_ratio:.3} (1.0 = free)");
    let parked = by("parked", "park-now");
    println!(
        "parked handoff: {:.2} us per round trip, {:.2} parks per round trip",
        parked.elapsed_secs * 1e6 / parked.ops as f64,
        parked.parks as f64 / parked.ops as f64
    );

    write_json("BENCH_wait", &rows);
}
