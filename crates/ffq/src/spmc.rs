//! FFQ-s: the single-producer/multiple-consumer queue (Algorithm 1).
//!
//! This is the paper's primary contribution. The producer owns the `tail`
//! counter privately, so enqueuing needs no atomic read-modify-write at all —
//! it is *wait-free* as long as the queue never fills up (Proposition 1).
//! Consumers claim ranks with a single `fetch_add` on the shared `head` and
//! dequeuing is *lock-free* whenever items are available (Proposition 2).
//!
//! Both sides also expose amortized batch paths: [`Producer::enqueue_many`]
//! publishes runs of cells with one release pass, and
//! [`Consumer::dequeue_batch`] / [`Consumer::claim_batch`] take runs of
//! ranks with one `fetch_add` on the contended head.
//!
//! The handles here are thin wrappers over the raw engines in
//! [`crate::raw`]: they allocate the queue on the heap, pin it with an
//! `Arc`, and handle clone/drop accounting. The protocol itself lives
//! entirely in the raw layer, where `ffq-shm` reuses it over shared memory.
//! [`Producer`] is every single-producer flavor's producer and
//! [`Consumer`] every flavor's consumer, generic over the raw consumer
//! engine: [`crate::spsc`] and [`crate::mpmc`] name them over the
//! private-head and the multi-producer engines.
//!
//! ```
//! let (mut tx, rx) = ffq::spmc::channel::<u64>(1024);
//! let consumers: Vec<_> = (0..4).map(|_| rx.clone()).collect();
//! tx.enqueue(7);
//! let mut got = None;
//! for mut rx in consumers {
//!     if let Ok(v) = rx.try_dequeue() {
//!         got = Some(v);
//!     }
//! }
//! assert_eq!(got, Some(7));
//! ```

use ffq_sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use crate::cell::{CellSlot, PaddedCell};
use crate::error::{Disconnected, Full, TryDequeueError};
use crate::layout::{IndexMap, LinearMap};
use crate::raw::{ConsumerEngine, RawConsumer, RawProducer};
use crate::shared::Shared;
use crate::stats::{ConsumerStats, ProducerStats};
use crate::WaitConfig;

/// Creates an SPMC queue with the default layout (cache-line aligned cells,
/// linear index mapping) and at least the given capacity (rounded up to a
/// power of two; see [`crate::layout::normalize_capacity`]).
///
/// Returns the unique producer and one consumer; clone the consumer for more.
///
/// # Panics
/// If `capacity` is 0 or exceeds [`crate::layout::MAX_CAPACITY`].
pub fn channel<T: Send>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    channel_with::<T, PaddedCell<T>, LinearMap>(capacity)
}

/// Creates a zero-copy bytes-mode SPMC queue: `capacity` cells, each owning
/// a slot buffer of at least `slot_bytes` bytes (both rounded up to powers
/// of two; see [`crate::layout::normalize_slot_bytes`]). Clone the consumer
/// for more workers.
///
/// Payloads up to `slot_bytes` move through their rank's slot buffer with
/// one copy end to end; longer ones spill to a heap allocation handed over
/// through the descriptor ([`crate::bytes::SpillMode::Heap`]) — chains
/// would be split across consumers — never truncated.
pub fn bytes_channel(
    capacity: usize,
    slot_bytes: usize,
) -> Result<(crate::bytes::SpProducer, crate::bytes::McConsumer<false>), crate::CapacityError> {
    crate::bytes::heap_sp(capacity, slot_bytes, crate::SpillMode::Heap)
}

/// Creates an SPMC queue with explicit cell layout `C` and index mapping `M`
/// (see [`crate::cell`] and [`crate::layout`] for the paper's four
/// configurations).
///
/// # Panics
/// If `capacity` is 0 or exceeds [`crate::layout::MAX_CAPACITY`].
pub fn channel_with<T: Send, C: CellSlot<T>, M: IndexMap>(
    capacity: usize,
) -> (Producer<T, C, M>, Consumer<T, C, M>) {
    let shared = Shared::heap(capacity, "spmc");
    // SAFETY: a fresh queue's one producer and one shared-head consumer.
    unsafe { (Producer::new(&shared), Consumer::new(shared)) }
}

/// The unique producing side of an SPSC or SPMC queue (the single-producer
/// engine is identical; [`crate::spsc::Producer`] is this type).
///
/// Not `Clone` and takes `&mut self`: the algorithm's wait-freedom and the
/// unsynchronized `tail` are only sound with exactly one enqueuing thread.
/// Use [`crate::mpmc`] when multiple producers must share a queue.
pub struct Producer<T: Send, C: CellSlot<T> = PaddedCell<T>, M: IndexMap = LinearMap> {
    raw: RawProducer<T, C, M>,
    /// Keeps the queue allocation alive (the raw view points into it).
    _shared: Arc<Shared<T, C, M>>,
}

impl<T: Send, C: CellSlot<T>, M: IndexMap> Producer<T, C, M> {
    /// The producer of a fresh heap queue.
    ///
    /// # Safety
    ///
    /// The queue has no other producer handle; its count was pre-set by
    /// [`Shared::heap`].
    pub(crate) unsafe fn new(shared: &Arc<Shared<T, C, M>>) -> Self {
        Self {
            // SAFETY: the Arc keeps the allocation (and thus the raw view)
            // alive and pinned; uniqueness is the caller's contract.
            raw: unsafe { RawProducer::attach(shared.raw()) },
            _shared: Arc::clone(shared),
        }
    }

    /// Enqueues `value`, scanning past busy cells (announcing gaps) until a
    /// free cell is found.
    ///
    /// Wait-free under the paper's sizing assumption that some cell is
    /// always free. If the queue is genuinely full, this waits — spinning,
    /// then parking per the configured [`WaitConfig`] — between array scans
    /// until a consumer frees a cell (footnote 2 of the paper).
    pub fn enqueue(&mut self, value: T) {
        self.raw.enqueue(value);
    }

    /// Enqueues `value`, giving up (and returning it back) once `timeout`
    /// has elapsed with the queue still full.
    pub fn enqueue_timeout(&mut self, value: T, timeout: Duration) -> Result<(), Full<T>> {
        self.raw.enqueue_timeout(value, timeout)
    }

    /// Replaces the wait policy used by blocking enqueues; see
    /// [`WaitConfig`].
    pub fn set_wait_config(&mut self, cfg: WaitConfig) {
        self.raw.set_wait_config(cfg);
    }

    /// Attempts to enqueue `value`.
    ///
    /// A counter pre-check rejects a clearly full queue in O(1) without
    /// side effects. If the pre-check passes but the (bounded, one-pass)
    /// scan still finds no free cell, the value is handed back — and that
    /// scan has already skipped (and announced gaps for) every busy cell it
    /// saw, consuming ranks; see [`Full`].
    pub fn try_enqueue(&mut self, value: T) -> Result<(), Full<T>> {
        self.raw.try_enqueue(value)
    }

    /// Enqueues every item of `iter` (blocking as needed); returns the
    /// count.
    ///
    /// This is the batched enqueue path: payloads are written into runs of
    /// free cells first and all the run's ranks are published afterwards
    /// with one release pass (a single fence followed by plain rank
    /// stores), with the tail mirrored once per run instead of once per
    /// item. Items become visible in order, no later than the call's
    /// return; a gap for a busy cell is still announced immediately.
    pub fn enqueue_many<I: IntoIterator<Item = T>>(&mut self, iter: I) -> usize {
        self.raw.enqueue_many(iter)
    }

    /// Capacity of the underlying cell array.
    pub fn capacity(&self) -> usize {
        self.raw.capacity()
    }

    /// Approximate number of items currently enqueued (see
    /// [`Consumer::len_hint`]).
    pub fn len_hint(&self) -> usize {
        self.raw.len_hint()
    }

    /// Number of live consumer handles.
    pub fn consumers(&self) -> usize {
        self.raw.consumers()
    }

    /// Snapshot of this producer's counters.
    pub fn stats(&self) -> ProducerStats {
        self.raw.stats()
    }
}

impl<T: Send, C: CellSlot<T>, M: IndexMap> Drop for Producer<T, C, M> {
    fn drop(&mut self) {
        // SeqCst (cold path): the Release half makes every completed
        // enqueue happen-before a consumer's Acquire load that observes
        // the count at zero; the SC position keeps the death visible in
        // bounded time to wait predicates that spin without parking (see
        // mpmc::Producer::drop).
        let state = self.raw.queue().state();
        state.producers().fetch_sub(1, Ordering::SeqCst);
        // Parked consumers must observe the disconnect promptly rather
        // than after their bounded-park timeout.
        state.wake_all();
    }
}

/// A consuming handle of a heap queue, generic over its consumer engine
/// `E`: this is the SPMC consumer (the default, a shared head), and
/// [`crate::spsc::Consumer`] (the private head) and
/// [`crate::mpmc::Consumer`] (a shared head behind many producers) are
/// this type over the other engines. Clone a shared-head consumer to add
/// consumers; the SPSC one is not `Clone` — its head is private, which is
/// exactly what makes that variant cheaper.
///
/// A shared-head handle privately remembers its *pending ranks*: ranks
/// claimed from the shared head whose items have not arrived yet.
/// [`try_dequeue`] parks such a rank instead of abandoning it (an abandoned
/// rank would orphan the item later enqueued with it), [`claim_batch`]
/// parks whole runs, and every dequeue flavor resumes from the oldest
/// parked rank first. The private head simply does not advance on `Empty`.
///
/// [`try_dequeue`]: Consumer::try_dequeue
/// [`claim_batch`]: Consumer::claim_batch
pub struct Consumer<
    T: Send,
    C: CellSlot<T> = PaddedCell<T>,
    M: IndexMap = LinearMap,
    E: ConsumerEngine<T, C, M> = RawConsumer<T, C, M, false>,
> {
    raw: E,
    /// Keeps the queue allocation alive (the raw view points into it).
    shared: Arc<Shared<T, C, M>>,
}

impl<T: Send, C: CellSlot<T>, M: IndexMap, E: ConsumerEngine<T, C, M>> Consumer<T, C, M, E> {
    /// The first consumer of a fresh heap queue.
    ///
    /// # Safety
    ///
    /// The queue admits engine `E` (see [`ConsumerEngine::attach`]) and
    /// has no other consumer handle; its count was pre-set by
    /// [`Shared::heap`].
    pub(crate) unsafe fn new(shared: Arc<Shared<T, C, M>>) -> Self {
        Self {
            // SAFETY: the Arc keeps the allocation alive and pinned; the
            // rest is the caller's contract.
            raw: unsafe { E::attach(shared.raw()) },
            shared,
        }
    }

    /// Attempts to dequeue one item without blocking.
    ///
    /// `Err(Empty)` means no item is ready *for this consumer's rank*; a
    /// claimed rank is retained and retried on the next call.
    /// `Err(Disconnected)` means the producers are gone and this consumer
    /// can never receive another item.
    ///
    /// Linearizability granularity: the queue's logical dequeue (the
    /// paper's `FFQ_DEQ`) spans from the rank claim to the data read. A
    /// retry loop over `try_dequeue` is therefore *one* FIFO operation
    /// stretching from the first `Empty` of the episode to the eventual
    /// success; individual calls are not independently linearizable
    /// operations (an `Empty` both observes and claims).
    pub fn try_dequeue(&mut self) -> Result<T, TryDequeueError> {
        self.raw.try_dequeue()
    }

    /// Dequeues one item, waiting — spinning, then parking per the
    /// configured [`WaitConfig`] — while the queue is empty.
    ///
    /// Lock-free whenever items are available (Proposition 2 of the paper):
    /// the wait machinery only engages after `try_dequeue` has reported
    /// `Empty`, so the fast path is untouched.
    pub fn dequeue(&mut self) -> Result<T, Disconnected> {
        self.raw.dequeue()
    }

    /// Dequeues one item, giving up after `timeout`.
    ///
    /// While spinning, the deadline is only re-checked every few back-off
    /// rounds (`Instant::now()` costs far more than a spin iteration); once
    /// parked, every sleep is clamped to the remaining time, so the return
    /// lands within about a millisecond of the deadline.
    pub fn dequeue_timeout(&mut self, timeout: Duration) -> Result<T, TryDequeueError> {
        self.raw.dequeue_timeout(timeout)
    }

    /// Replaces the wait policy used by blocking dequeues; see
    /// [`WaitConfig`].
    pub fn set_wait_config(&mut self, cfg: WaitConfig) {
        self.raw.set_wait_config(cfg);
    }

    /// Harvests up to `max` ready items into `buf`; returns the count.
    /// Never blocks.
    ///
    /// On a shared head, parked ranks (from
    /// [`claim_batch`](Self::claim_batch) or earlier calls) are harvested
    /// first, in claim order; when they run out, new runs are claimed with
    /// one CAS per run (more only when another consumer claims in
    /// between), never past what the tail reports as available — an empty
    /// queue claims nothing, and a fresh SPMC run holds only ranks already
    /// published or skipped. The harvest stops early at a parked rank
    /// whose item has not been produced yet (the rank stays parked and is
    /// resumed by the next call; multi-producer claims can outrun
    /// publication). On the private head the head advances cell by cell
    /// exactly as `try_dequeue` would, but the shared head mirror — the
    /// word the producer's fullness pre-check polls — is stored once per
    /// harvested run instead of once per item.
    ///
    /// A return of `0` does not distinguish empty from disconnected; use
    /// [`try_dequeue`](Self::try_dequeue) for that.
    pub fn dequeue_batch(&mut self, buf: &mut Vec<T>, max: usize) -> usize {
        self.raw.dequeue_batch(buf, max)
    }

    /// Drains currently available items into an iterator; stops at the
    /// first `Empty`/`Disconnected` without claiming a rank on an
    /// already-empty queue.
    pub fn try_iter(&mut self) -> TryIter<'_, T, C, M, E> {
        TryIter { consumer: self }
    }

    /// The next rank this handle looks at — a monotone snapshot (a stale
    /// read only under-reports, never over-reports).
    pub fn head_rank(&self) -> i64 {
        self.raw.head_rank()
    }

    /// Number of live producer handles.
    pub fn producers(&self) -> usize {
        // Acquire per the QueueState handle-count rule: observing zero here
        // makes every completed enqueue visible.
        self.raw.queue().state().producers().load(Ordering::Acquire) as usize
    }

    /// The wake condition of a blocked dequeue on this handle — `true`
    /// when a retry can make progress: the rank it waits on was published
    /// or gap-announced, unclaimed items are visible, or every producer is
    /// gone. Sharded consumers park on an aggregate eventcount and use
    /// this as the per-shard readiness probe.
    pub fn wake_ready(&self) -> bool {
        self.raw.wake_ready()
    }

    /// [`wake_ready`](Self::wake_ready) minus the producers-gone term.
    /// Aggregators (the sharded consumer) `any()` this and `all()` the
    /// per-queue [`producers`](Self::producers) counts instead — any-ing
    /// the full condition would spin through the window where a sharded
    /// producer's drop has emptied some member queues' handle counts but
    /// not yet all.
    pub fn wake_ready_items(&self) -> bool {
        self.raw.wake_ready_items()
    }

    /// Capacity of the underlying cell array.
    pub fn capacity(&self) -> usize {
        self.raw.capacity()
    }

    /// Approximate number of items currently enqueued. Both counters move
    /// concurrently and skipped ranks inflate the estimate; use only as a
    /// hint.
    pub fn len_hint(&self) -> usize {
        self.raw.len_hint()
    }

    /// Snapshot of this consumer's counters.
    pub fn stats(&self) -> ConsumerStats {
        self.raw.stats()
    }
}

impl<T: Send, C: CellSlot<T>, M: IndexMap, const MP: bool>
    Consumer<T, C, M, RawConsumer<T, C, M, MP>>
{
    /// Claims a run of `k` ranks from the shared head with a *single*
    /// `fetch_add(k)` and parks it as pending — one coherence transaction
    /// on the queue's most contended word instead of `k`.
    ///
    /// The run obeys the no-abandoned-rank rule: once claimed it is never
    /// given back, and all subsequent dequeues (batch or per-item) harvest
    /// it in claim order. Claiming past the current tail is allowed — the
    /// surplus ranks wait for future items — but a claim on a queue whose
    /// producers then disconnect is never satisfied, so prefer
    /// [`dequeue_batch`](Self::dequeue_batch), which sizes its claims to
    /// the items actually available. FFQ-m caveat: claimed ranks below the
    /// shared tail may still be mid-resolution by their producers, so a
    /// batch harvest can park partway through a run and resume on a later
    /// call.
    pub fn claim_batch(&mut self, k: usize) {
        self.raw.claim_batch(k);
    }

    /// [`dequeue_batch`](Self::dequeue_batch) whose fresh rank claims stop
    /// short of the absolute rank `head_cap`: no rank `>= head_cap` is
    /// claimed by this call, under any interleaving with other consumers
    /// (the claim is a CAS, not a blind `fetch_add`). Runs parked by
    /// earlier calls still harvest — they honored the cap in force when
    /// they were claimed.
    ///
    /// Building block for [`crate::shard`]'s k-relaxed FIFO bound: a
    /// sharded consumer caps each shard's claims relative to the laggard
    /// shard's [`head_rank`](Self::head_rank).
    pub fn dequeue_batch_capped(&mut self, buf: &mut Vec<T>, max: usize, head_cap: i64) -> usize {
        self.raw.dequeue_batch_capped(buf, max, head_cap)
    }

    /// Number of claimed-but-unsatisfied ranks currently parked on this
    /// handle.
    pub fn pending_ranks(&self) -> usize {
        self.raw.pending_ranks()
    }
}

impl<T: Send, C: CellSlot<T>, M: IndexMap, const MP: bool> Clone
    for Consumer<T, C, M, RawConsumer<T, C, M, MP>>
{
    fn clone(&self) -> Self {
        self.raw
            .queue()
            .state()
            .consumers()
            .fetch_add(1, Ordering::Relaxed);
        Self {
            // SAFETY: same queue, kept alive by the cloned Arc; a fresh
            // shared-head consumer may attach at any time.
            raw: unsafe { RawConsumer::attach(*self.raw.queue()) },
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T: Send, C: CellSlot<T>, M: IndexMap, E: ConsumerEngine<T, C, M>> Drop
    for Consumer<T, C, M, E>
{
    fn drop(&mut self) {
        // Best effort: if a shared-head handle dies holding claimed ranks
        // whose items have already been published, consume and drop them
        // so the cells return to circulation. Items not yet published
        // cannot be waited for — those ranks are forfeited and their slots
        // stay busy once filled, permanently reducing effective capacity
        // (the paper's consumers are immortal worker threads; see README).
        self.raw.recover_pending();
        // SeqCst per the QueueState handle-count rule: the Release half
        // orders the recovery above before anyone observes the drop; the
        // SC position bounds its latency to spinning wait predicates (see
        // mpmc::Producer::drop).
        self.raw
            .queue()
            .state()
            .consumers()
            .fetch_sub(1, Ordering::SeqCst);
    }
}

/// Iterator over currently available items; see [`Consumer::try_iter`].
pub struct TryIter<
    'a,
    T: Send,
    C: CellSlot<T>,
    M: IndexMap,
    E: ConsumerEngine<T, C, M> = RawConsumer<T, C, M, false>,
> {
    consumer: &'a mut Consumer<T, C, M, E>,
}

impl<T: Send, C: CellSlot<T>, M: IndexMap, E: ConsumerEngine<T, C, M>> Iterator
    for TryIter<'_, T, C, M, E>
{
    type Item = T;

    fn next(&mut self) -> Option<T> {
        // Claim-free emptiness pre-check: ending an iteration on an empty
        // queue must not park a rank.
        let raw = &self.consumer.raw;
        if raw.pending_is_empty() && raw.queue().looks_empty() {
            return None;
        }
        self.consumer.try_dequeue().ok()
    }
}

impl<T: Send, C: CellSlot<T>, M: IndexMap, E: ConsumerEngine<T, C, M>> IntoIterator
    for Consumer<T, C, M, E>
{
    type Item = T;
    type IntoIter = IntoIter<T, C, M, E>;

    /// A blocking iterator: yields items until all producers disconnect
    /// and the queue is drained.
    fn into_iter(self) -> Self::IntoIter {
        IntoIter { consumer: self }
    }
}

/// Blocking consuming iterator; see [`Consumer::into_iter`].
pub struct IntoIter<
    T: Send,
    C: CellSlot<T> = PaddedCell<T>,
    M: IndexMap = LinearMap,
    E: ConsumerEngine<T, C, M> = RawConsumer<T, C, M, false>,
> {
    consumer: Consumer<T, C, M, E>,
}

impl<T: Send, C: CellSlot<T>, M: IndexMap, E: ConsumerEngine<T, C, M>> Iterator
    for IntoIter<T, C, M, E>
{
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.consumer.dequeue().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CompactCell;
    use crate::layout::RotateMap;

    #[test]
    fn fifo_single_thread() {
        let (mut tx, mut rx) = channel::<u32>(16);
        for i in 0..10 {
            tx.enqueue(i);
        }
        for i in 0..10 {
            assert_eq!(rx.try_dequeue(), Ok(i));
        }
        assert_eq!(rx.try_dequeue(), Err(TryDequeueError::Empty));
    }

    #[test]
    fn gappy_dead_producer_queue_reports_disconnected() {
        // Regression for the disconnect-detection reset: `try_dequeue` used
        // to clear its disconnect flag after every gap skip, un-doing the
        // "all enqueues are visible now" conclusion mid-call. On a queue
        // whose producer died behind a run of gap announcements, the call
        // must skip the whole run and still report Disconnected.
        let (mut tx, mut rx) = channel::<u64>(4);
        for i in 0..4 {
            tx.try_enqueue(i).unwrap();
        }
        // Park two claimed ranks: the fullness pre-check now passes while
        // every cell still holds an unconsumed item, so the scan below
        // burns one array's worth of ranks as gap announcements.
        rx.claim_batch(2);
        assert!(tx.try_enqueue(99).is_err());
        assert_eq!(tx.stats().gaps_created, 4);
        drop(tx);
        for i in 0..4 {
            assert_eq!(rx.dequeue(), Ok(i));
        }
        // One call: four gap skips, then the sticky disconnect verdict.
        assert_eq!(rx.try_dequeue(), Err(TryDequeueError::Disconnected));
    }

    #[test]
    fn wraparound_many_times() {
        let (mut tx, mut rx) = channel::<u64>(8);
        for i in 0..1000u64 {
            tx.enqueue(i);
            assert_eq!(rx.try_dequeue(), Ok(i));
        }
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let (tx, _rx) = channel::<u32>(100);
        assert_eq!(tx.capacity(), 128);
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_panics() {
        let _ = channel::<u32>(0);
    }

    #[test]
    fn try_enqueue_reports_full() {
        let (mut tx, mut rx) = channel::<u32>(4);
        for i in 0..4 {
            tx.try_enqueue(i).unwrap();
        }
        let err = tx.try_enqueue(99).unwrap_err();
        assert_eq!(err.into_inner(), 99);
        assert_eq!(tx.stats().full_rejections, 1);
        // Rejected by the counter pre-check: all four items remain
        // dequeuable in order.
        for i in 0..4 {
            assert_eq!(rx.dequeue(), Ok(i));
        }
    }

    #[test]
    fn enqueue_after_full_rejection_still_delivers() {
        let (mut tx, mut rx) = channel::<u32>(4);
        for i in 0..4 {
            tx.try_enqueue(i).unwrap();
        }
        assert!(tx.try_enqueue(100).is_err());
        assert_eq!(rx.try_dequeue(), Ok(0));
        // A slot is free again.
        tx.try_enqueue(100).unwrap();
        let mut seen = Vec::new();
        while let Ok(v) = rx.try_dequeue() {
            seen.push(v);
        }
        assert_eq!(seen, vec![1, 2, 3, 100]);
    }

    #[test]
    fn gap_statistics_track_skips() {
        // A gap needs a cell that is busy while the counters say the array
        // is not full — i.e. a slow consumer. The lagger claims rank 0 on
        // the empty queue (parking it as pending) and then stalls, so item
        // 0 sits unconsumed in cell 0 while head moves on.
        let (mut tx, rx) = channel::<u32>(4);
        let mut lagger = rx.clone();
        let mut rx = rx;
        assert!(lagger.try_dequeue().is_err()); // claims rank 0
        for i in 0..4 {
            tx.enqueue(i);
        }
        for expect in 1..4 {
            assert_eq!(rx.try_dequeue(), Ok(expect));
        }
        // tail == 4, head == 4: not full by counters, but cell 0 still
        // holds the lagger's unconsumed item => the enqueue skips it.
        tx.enqueue(4);
        assert!(tx.stats().gaps_created >= 1);
        assert_eq!(rx.try_dequeue(), Ok(4), "skips the announced gap");
        assert!(rx.stats().gaps_skipped >= 1);
        // The lagger's parked rank still delivers its item.
        assert_eq!(lagger.try_dequeue(), Ok(0));
    }

    #[test]
    fn enqueue_many_publishes_batched() {
        let (mut tx, mut rx) = channel::<u64>(128);
        assert_eq!(tx.enqueue_many(0..100), 100);
        let s = tx.stats();
        assert_eq!(s.enqueued, 100);
        assert!(s.batch_enqueues >= 1);
        assert_eq!(s.batch_items, 100);
        // The shadow head keeps the whole batch to at most a couple of
        // shared-head reads.
        assert!(
            s.head_refreshes <= 2,
            "head_refreshes = {}",
            s.head_refreshes
        );
        for i in 0..100 {
            assert_eq!(rx.try_dequeue(), Ok(i));
        }
    }

    #[test]
    fn enqueue_many_larger_than_capacity_blocks_in_runs() {
        // The batch is larger than the array: runs must interleave with
        // the consumer freeing cells. Run the consumer on another thread.
        let (mut tx, mut rx) = channel::<u64>(8);
        let c = std::thread::spawn(move || {
            let mut got = Vec::new();
            while let Ok(v) = rx.dequeue() {
                got.push(v);
            }
            got
        });
        assert_eq!(tx.enqueue_many(0..1000), 1000);
        drop(tx);
        let got = c.join().unwrap();
        assert_eq!(got, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn dequeue_batch_amortizes_head_rmws() {
        let (mut tx, mut rx) = channel::<u64>(64);
        tx.enqueue_many(0..32);
        let mut buf = Vec::new();
        assert_eq!(rx.dequeue_batch(&mut buf, 32), 32);
        assert_eq!(buf, (0..32).collect::<Vec<_>>());
        let s = rx.stats();
        assert_eq!(s.ranks_claimed, 32);
        assert_eq!(s.head_rmws, 1, "one RMW for the whole run");
        assert_eq!(s.batch_dequeues, 1);
        assert_eq!(s.batch_items, 32);
        // Nothing left, and an empty batch claims nothing.
        assert_eq!(rx.dequeue_batch(&mut buf, 8), 0);
        assert_eq!(rx.stats().head_rmws, 1);
        assert_eq!(rx.pending_ranks(), 0);
    }

    #[test]
    fn claim_batch_resumes_across_calls() {
        let (mut tx, mut rx) = channel::<u64>(16);
        // Claim ahead of production: the run parks.
        rx.claim_batch(4);
        assert_eq!(rx.pending_ranks(), 4);
        assert_eq!(rx.stats().head_rmws, 1);
        let mut buf = Vec::new();
        assert_eq!(rx.dequeue_batch(&mut buf, 4), 0, "nothing produced yet");
        assert_eq!(rx.pending_ranks(), 4, "claimed run is never abandoned");
        tx.enqueue_many(0..6);
        // The parked run is harvested first, then a fresh (single-RMW)
        // claim covers the remaining two items.
        assert_eq!(rx.dequeue_batch(&mut buf, 8), 6);
        assert_eq!(buf, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(rx.stats().head_rmws, 2);
        assert_eq!(rx.pending_ranks(), 0);
    }

    #[test]
    fn consumer_clone_shares_queue() {
        let (mut tx, rx) = channel::<u32>(16);
        let mut rx2 = rx.clone();
        assert_eq!(tx.consumers(), 2);
        tx.enqueue(1);
        assert_eq!(rx2.try_dequeue(), Ok(1));
        drop(rx);
        assert_eq!(tx.consumers(), 1);
    }

    #[test]
    fn disconnect_after_drain() {
        let (mut tx, mut rx) = channel::<u32>(16);
        tx.enqueue(1);
        tx.enqueue(2);
        drop(tx);
        assert_eq!(rx.dequeue(), Ok(1));
        assert_eq!(rx.try_dequeue(), Ok(2));
        assert_eq!(rx.try_dequeue(), Err(TryDequeueError::Disconnected));
        assert_eq!(rx.dequeue(), Err(Disconnected));
    }

    #[test]
    fn dequeue_timeout_expires_then_recovers() {
        let (mut tx, mut rx) = channel::<u32>(16);
        assert_eq!(
            rx.dequeue_timeout(Duration::from_millis(10)),
            Err(TryDequeueError::Empty)
        );
        // The pending rank is retained: the next enqueue is still received.
        tx.enqueue(7);
        assert_eq!(rx.dequeue_timeout(Duration::from_millis(100)), Ok(7));
    }

    #[test]
    fn try_iter_drains_available() {
        let (mut tx, mut rx) = channel::<u32>(16);
        for i in 0..5 {
            tx.enqueue(i);
        }
        let v: Vec<u32> = rx.try_iter().collect();
        assert_eq!(v, vec![0, 1, 2, 3, 4]);
        // Running dry did not park a rank.
        assert_eq!(rx.pending_ranks(), 0);
    }

    #[test]
    fn len_hint_tracks_occupancy() {
        let (mut tx, mut rx) = channel::<u32>(16);
        assert_eq!(tx.len_hint(), 0);
        for i in 0..5 {
            tx.enqueue(i);
        }
        assert_eq!(tx.len_hint(), 5);
        let _ = rx.try_dequeue();
        assert!(rx.len_hint() <= 4);
    }

    #[test]
    fn drop_releases_unconsumed_items() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        {
            let (mut tx, mut rx) = channel::<Counted>(16);
            for _ in 0..6 {
                tx.enqueue(Counted);
            }
            drop(rx.dequeue()); // one consumed and dropped here
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn dropped_consumer_recovers_published_pending_run() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let (mut tx, rx) = channel::<Counted>(16);
        {
            let mut doomed = rx.clone();
            doomed.claim_batch(3);
            for _ in 0..3 {
                tx.enqueue(Counted);
            }
            // doomed drops holding 3 published pending ranks: all 3 items
            // must be dropped and their cells freed.
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), 3);
        drop(tx);
        drop(rx);
    }

    #[test]
    fn all_layout_combinations_work() {
        fn smoke<C: CellSlot<u64>, M: IndexMap>() {
            // Capacity exceeds the worst-case backlog (500 items, one in
            // three drained eagerly), keeping the single-threaded blocking
            // enqueue from waiting on a consumer that cannot run.
            let (mut tx, mut rx) = channel_with::<u64, C, M>(1024);
            for i in 0..500 {
                tx.enqueue(i);
                if i % 3 == 0 {
                    assert!(rx.try_dequeue().is_ok());
                }
            }
            let mut last = None;
            while let Ok(v) = rx.try_dequeue() {
                if let Some(prev) = last {
                    assert!(v > prev);
                }
                last = Some(v);
            }
        }
        smoke::<PaddedCell<u64>, LinearMap>();
        smoke::<PaddedCell<u64>, RotateMap>();
        smoke::<CompactCell<u64>, LinearMap>();
        smoke::<CompactCell<u64>, RotateMap>();
    }

    #[test]
    fn two_threads_no_loss_no_duplication() {
        const ITEMS: u64 = 100_000;
        let (mut tx, rx) = channel::<u64>(1024);
        let consumers: Vec<_> = (0..3).map(|_| rx.clone()).collect();
        drop(rx);
        let producer = std::thread::spawn(move || {
            for i in 0..ITEMS {
                tx.enqueue(i);
            }
        });
        let handles: Vec<_> = consumers
            .into_iter()
            .map(|mut rx| {
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = rx.dequeue() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        producer.join().unwrap();
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        let expected: Vec<u64> = (0..ITEMS).collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn per_consumer_order_is_fifo() {
        // Items dequeued by one consumer must respect enqueue order even
        // with a competing consumer claiming interleaved ranks.
        const ITEMS: u64 = 50_000;
        let (mut tx, rx) = channel::<u64>(256);
        let mut rx2 = rx.clone();
        let mut rx1 = rx;
        let producer = std::thread::spawn(move || {
            for i in 0..ITEMS {
                tx.enqueue(i);
            }
        });
        let c2 = std::thread::spawn(move || {
            let mut got = Vec::new();
            while let Ok(v) = rx2.dequeue() {
                got.push(v);
            }
            got
        });
        let mut got1 = Vec::new();
        while let Ok(v) = rx1.dequeue() {
            got1.push(v);
        }
        producer.join().unwrap();
        let got2 = c2.join().unwrap();
        for w in got1.windows(2) {
            assert!(
                w[0] < w[1],
                "consumer 1 out of order: {} then {}",
                w[0],
                w[1]
            );
        }
        for w in got2.windows(2) {
            assert!(
                w[0] < w[1],
                "consumer 2 out of order: {} then {}",
                w[0],
                w[1]
            );
        }
        assert_eq!(got1.len() + got2.len(), ITEMS as usize);
    }

    #[test]
    fn batched_producer_batched_consumers_cross_thread() {
        // Batch producer + mixed batch sizes across threads: nothing lost,
        // nothing duplicated, per-consumer order preserved.
        const ITEMS: u64 = 120_000;
        let (mut tx, rx) = channel::<u64>(512);
        let consumers: Vec<_> = (0..3).map(|_| rx.clone()).collect();
        drop(rx);
        let producer = std::thread::spawn(move || {
            let mut next = 0u64;
            while next < ITEMS {
                let run = (next..(next + 64).min(ITEMS)).collect::<Vec<_>>();
                next += run.len() as u64;
                tx.enqueue_many(run);
            }
        });
        let handles: Vec<_> = consumers
            .into_iter()
            .enumerate()
            .map(|(i, mut rx)| {
                std::thread::spawn(move || {
                    let batch = 1 << (2 * i); // 1, 4, 16
                    let mut buf = Vec::new();
                    let mut got = Vec::new();
                    loop {
                        if rx.dequeue_batch(&mut buf, batch) > 0 {
                            got.append(&mut buf);
                            continue;
                        }
                        match rx.try_dequeue() {
                            Ok(v) => got.push(v),
                            Err(TryDequeueError::Empty) => std::hint::spin_loop(),
                            Err(TryDequeueError::Disconnected) => return got,
                        }
                    }
                })
            })
            .collect();
        producer.join().unwrap();
        let per_consumer: Vec<Vec<u64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for got in &per_consumer {
            for w in got.windows(2) {
                assert!(w[0] < w[1], "per-consumer order violated");
            }
        }
        let mut all: Vec<u64> = per_consumer.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..ITEMS).collect::<Vec<_>>());
    }
}
