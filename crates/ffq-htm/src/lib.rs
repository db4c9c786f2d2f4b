//! Software transactional emulation of hardware transactional memory.
//!
//! The paper's comparative study (Figure 8) includes "a simple concurrent
//! queue algorithm that uses hardware transactional memory (HTM) extensions
//! of Intel and IBM CPUs ... based on a bounded circular buffer \[that\]
//! simply executes the enqueue and dequeue operations inside hardware
//! transactions". No TM hardware is available in this environment, so this
//! crate provides the documented substitution (DESIGN.md §4.2): a
//! word-granular TL2-style software transactional memory with the canonical
//! HTM usage template on top —
//!
//! 1. try the operation speculatively up to `max_retries` times
//!    ([`TxRegion::transaction`]), aborting on any read/write conflict;
//! 2. fall back to a global lock once speculation keeps failing, exactly
//!    like the lock-elision fallback path every real HTM deployment needs.
//!
//! What the comparison needs from the HTM baseline is its *behavioural
//! profile*: near-zero synchronization cost when uncontended, collapse under
//! concurrency as conflicting transactions abort and retry. The conflicts
//! here are genuine — concurrent enqueues/dequeues really do collide on the
//! head/tail/cell words — so the profile is preserved; absolute single-thread
//! cost is higher than real HTM (a version-clock STM does more bookkeeping
//! than `XBEGIN`), which EXPERIMENTS.md notes.
//!
//! # Example
//!
//! ```
//! use ffq_htm::{TxRegion, Abort};
//!
//! let region = TxRegion::new(4, 16);
//! // Transfer between two "accounts" atomically.
//! region.transaction(|tx| {
//!     let a = tx.read(0)?;
//!     let b = tx.read(1)?;
//!     tx.write(0, a + 10)?;
//!     tx.write(1, b.wrapping_sub(10))?;
//!     Ok(())
//! });
//! assert_eq!(region.peek(0), 10);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod stats;
mod stm;

pub use stats::{AbortCause, HtmStats};
pub use stm::{Abort, Tx, TxRegion};
