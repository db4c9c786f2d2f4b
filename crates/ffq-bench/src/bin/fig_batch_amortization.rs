//! Batch-amortization sweep: SPMC drain throughput as a function of the
//! consumer harvest bound, against the per-item `try_iter` baseline.
//!
//! This is the evaluation for the batch API (not a paper figure): consumers
//! claiming rank *runs* with one `fetch_add` and producers publishing runs
//! with one release pass should beat the per-item path by a growing margin
//! as the batch bound rises, with `batch=1` costing the same as per-item
//! (same one-RMW-per-rank schedule, so no regression).
//!
//! Usage: `fig_batch_amortization [--quick] [--secs <f>]`
//!
//! Writes `BENCH_batch.json` (rows with throughput, consumer-side RMW
//! counts, and speedup over the per-item baseline) next to the tables.

use ffq_bench::json_object;
use ffq_bench::measure::CommonArgs;
use ffq_bench::microbench::{spmc_batch_drain, DrainCost, DrainMode};
use ffq_bench::output::{print_table, write_json};
use ffq_bench::Measurement;

/// One sweep point, as serialized into `BENCH_batch.json`.
#[derive(Debug, Clone)]
struct BatchRow {
    /// Configuration label ("per-item 4c" / "batch=32 4c").
    label: String,
    /// Consumer threads draining the queue.
    consumers: usize,
    /// Harvest bound per `dequeue_batch` call; `null` for the per-item path.
    batch: Option<usize>,
    /// Items drained.
    ops: u64,
    /// Wall-clock seconds.
    elapsed_secs: f64,
    /// Millions of items drained per second.
    mops_per_sec: f64,
    /// Consumer-side head fetch-and-adds.
    head_rmws: u64,
    /// Head ranks claimed per fetch-and-add (the amortization factor).
    ranks_per_rmw: Option<f64>,
    /// Throughput relative to the per-item row at the same consumer count.
    speedup_vs_per_item: f64,
}
json_object!(BatchRow: label, consumers, batch, ops, elapsed_secs, mops_per_sec, head_rmws,
    ranks_per_rmw, speedup_vs_per_item);

fn row(
    label: &str,
    consumers: usize,
    batch: Option<usize>,
    m: &Measurement,
    cost: &DrainCost,
    base_mops: f64,
) -> BatchRow {
    BatchRow {
        label: label.to_string(),
        consumers,
        batch,
        ops: m.ops,
        elapsed_secs: m.elapsed_secs,
        mops_per_sec: m.mops_per_sec,
        head_rmws: cost.head_rmws,
        ranks_per_rmw: cost.ranks_per_rmw(),
        speedup_vs_per_item: m.mops_per_sec / base_mops.max(1e-12),
    }
}

/// Measures one configuration `reps` times and keeps the fastest run —
/// standard noise suppression for an unpinned, possibly oversubscribed
/// host, where one unlucky scheduling quantum can skew a short window.
fn measure_best(
    queue_size: usize,
    consumers: usize,
    mode: DrainMode,
    duration: std::time::Duration,
    reps: usize,
    label: &str,
) -> (Measurement, DrainCost) {
    let mut best: Option<(Measurement, DrainCost)> = None;
    for _ in 0..reps.max(1) {
        let (m, c) = spmc_batch_drain(queue_size, consumers, mode, duration, label);
        let better = match &best {
            Some((b, _)) => m.mops_per_sec > b.mops_per_sec,
            None => true,
        };
        if better {
            best = Some((m, c));
        }
    }
    best.unwrap()
}

fn main() {
    let args = CommonArgs::parse();
    // Large enough that per-phase costs (queue-full producer stalls, empty
    // consumer backoffs, timeslice handoffs on oversubscribed hosts) are
    // amortized over many items and the per-item claim cost dominates —
    // same regime where the paper's Figure 3 throughput peaks.
    const QUEUE_SIZE: usize = 16384;
    let consumer_counts: &[usize] = if args.quick { &[4] } else { &[1, 4] };
    let max_batch_log2 = if args.quick { 6 } else { 8 };
    let reps = if args.quick { 1 } else { 2 };
    println!("Batch amortization: SPMC drain, batched vs per-item claims");

    let mut rows = Vec::new();
    let mut table = Vec::new();
    for &consumers in consumer_counts {
        let label = format!("per-item {consumers}c");
        let (base_m, base_cost) = measure_best(
            QUEUE_SIZE,
            consumers,
            DrainMode::PerItem,
            args.duration,
            reps,
            &label,
        );
        rows.push(row(
            &label,
            consumers,
            None,
            &base_m,
            &base_cost,
            base_m.mops_per_sec,
        ));
        table.push(base_m.clone());

        let mut log2 = 0;
        while log2 <= max_batch_log2 {
            let batch = 1usize << log2;
            let label = format!("batch={batch} {consumers}c");
            let (m, cost) = measure_best(
                QUEUE_SIZE,
                consumers,
                DrainMode::Batch(batch),
                args.duration,
                reps,
                &label,
            );
            rows.push(row(
                &label,
                consumers,
                Some(batch),
                &m,
                &cost,
                base_m.mops_per_sec,
            ));
            table.push(m);
            log2 += 1;
        }
    }
    print_table("Batch amortization (SPMC drain)", &table);
    println!(
        "\n{:<20} {:>14} {:>14} {:>10}",
        "config", "head RMWs", "ranks/RMW", "speedup"
    );
    for r in &rows {
        println!(
            "{:<20} {:>14} {:>14} {:>10.3}",
            r.label,
            r.head_rmws,
            r.ranks_per_rmw.map_or("-".into(), |v| format!("{v:.1}")),
            r.speedup_vs_per_item
        );
    }
    write_json("BENCH_batch", &rows);
}
