//! The zero-copy byte-slice lane: `ffq_bytes_*` and `ffq_payload_*`.
//!
//! Variable-size payloads cross the ABI without a marshalling copy, in
//! both directions:
//!
//! * **Write in place** — [`ffq_bytes_reserve`] hands C a pointer straight
//!   into the mapped slot buffer; the client fills it and
//!   [`ffq_bytes_commit`]s (or [`ffq_bytes_abort`]s — consumers never see
//!   an aborted reservation). [`ffq_bytes_send`] is the copy-in
//!   convenience.
//! * **Read borrowed** — [`ffq_payload_ref`] yields a `const uint8_t*` +
//!   length pointing at the shared bytes; the cell recycles only at
//!   [`ffq_payload_release`].
//!
//! One producer handle type serves both variants (the single-producer
//! engine is identical); one consumer handle type holds either engine, so
//! the read API is a single function family. Each handle holds at most one
//! outstanding reservation / borrowed payload — a second `reserve` (or
//! `commit` without `reserve`, etc.) fails with `FFQ_ERR_STATE` instead of
//! corrupting the protocol. Each handle's `capacity`, `is_poisoned`,
//! `poison` and `close` come from the crate's one lifecycle macro, in the
//! [`producer`] and [`consumer`] modules.
//!
//! SPSC regions spill payloads larger than one slot buffer by chaining
//! cells (up to `capacity/2 × slot_bytes`); SPMC regions refuse them
//! (`FFQ_TOO_LARGE`) — never truncation, exactly like the Rust API.

use crate::{
    attach_handle, dequeue_status, guard, handle, out_ptr, poisoned, required_size, set_last_error,
    try_dequeue_status, FfqRegion, Wait, FFQ_ERR_NULL, FFQ_ERR_STATE, FFQ_FULL, FFQ_OK,
    FFQ_POISONED, FFQ_TOO_LARGE,
};
use std::time::Duration;

use ffq::bytes::{SpProducer, WriteSlot};
use ffq::cell::PayloadDesc;
use ffq::error::TryReserveError;
use ffq::raw::ConsumerEngine;
use ffq_shm::{
    spmc_bytes, spsc_bytes, ShmBytesConsumer, ShmBytesProducer, ShmBytesSpmcConsumer,
    ShmBytesSpscConsumer, ShmReserveError,
};

/// Opaque producer handle for a bytes queue (`ffq_bytes_producer_t`): the
/// `ffq-shm` producer itself, shared by the SPSC and SPMC variants. An
/// outstanding reservation is held by the engine between calls, not by a
/// guard.
pub type FfqBytesProducer = ShmBytesProducer;

/// Opaque consumer handle for a bytes queue (`ffq_bytes_consumer_t`):
/// either variant's `ffq-shm` consumer, so `ffq_payload_*` is one family.
/// An outstanding payload ref is a claim the engine holds between calls.
pub enum FfqBytesConsumer {
    /// The unique consumer of an SPSC bytes queue.
    Spsc(ShmBytesSpscConsumer),
    /// A shared-head consumer of an SPMC bytes queue.
    Spmc(ShmBytesSpmcConsumer),
}

/// Runs `$body` with `$c` bound to the consumer `$h` holds.
macro_rules! either {
    ($h:expr, $c:ident => $body:expr) => {
        match $h {
            FfqBytesConsumer::Spsc($c) => $body,
            FfqBytesConsumer::Spmc($c) => $body,
        }
    };
}

impl FfqBytesConsumer {
    fn capacity(&self) -> usize {
        either!(self, c => c.capacity())
    }

    fn is_poisoned(&self) -> bool {
        either!(self, c => c.is_poisoned())
    }

    fn poison(&self) {
        either!(self, c => c.poison())
    }
}

fn reserve_status(e: ShmReserveError) -> i32 {
    set_last_error(&e.to_string());
    match e {
        ShmReserveError::TooLarge { .. } => FFQ_TOO_LARGE,
        ShmReserveError::Poisoned => FFQ_POISONED,
    }
}

fn try_reserve_status(e: TryReserveError) -> i32 {
    match e {
        TryReserveError::TooLarge { len, max } => {
            set_last_error(&format!(
                "payload of {len} bytes exceeds queue maximum of {max}"
            ));
            FFQ_TOO_LARGE
        }
        TryReserveError::Full => FFQ_FULL,
    }
}

// ---------------------------------------------------------------------------
// Region setup
// ---------------------------------------------------------------------------

macro_rules! bytes_setup {
    (
        variant: $variant:ident,
        fns: $required_size:ident, $create:ident, $attach_producer:ident, $attach_consumer:ident,
        wrap_consumer: $wrap:ident
    ) => {
        #[doc = concat!(
                            "Stores in `*out` the region size (bytes) a `", stringify!($variant),
                            "` queue needs for `capacity` descriptor cells of `slot_bytes`-byte ",
                            "payload buffers (both rounded up to powers of two)."
                        )]
        #[no_mangle]
        pub unsafe extern "C" fn $required_size(
            capacity: usize,
            slot_bytes: usize,
            out: *mut usize,
        ) -> i32 {
            let size = || $variant::required_size(capacity, slot_bytes);
            // SAFETY: per header contract, `out` is writable or NULL.
            unsafe { required_size(out, size) }
        }

        #[doc = concat!(
                            "Formats `region` as a `", stringify!($variant),
                            "` queue and attaches as its producer (the creator path)."
                        )]
        #[no_mangle]
        pub unsafe extern "C" fn $create(
            region: *const FfqRegion,
            capacity: usize,
            slot_bytes: usize,
            out: *mut *mut FfqBytesProducer,
        ) -> i32 {
            let make = |r| $variant::create(r, capacity, slot_bytes);
            // SAFETY: per header contract, `region` is a live region handle
            // or NULL, and `out` is writable or NULL.
            unsafe { attach_handle(region, out, make) }
        }

        #[doc = concat!(
                            "Attaches as the producer of an already-formatted `",
                            stringify!($variant), "` region (waits for READY)."
                        )]
        #[no_mangle]
        pub unsafe extern "C" fn $attach_producer(
            region: *const FfqRegion,
            out: *mut *mut FfqBytesProducer,
        ) -> i32 {
            // SAFETY: as in the creator path.
            unsafe { attach_handle(region, out, $variant::attach_producer) }
        }

        #[doc = concat!(
                            "Attaches a consumer to an already-formatted `",
                            stringify!($variant), "` region (waits for READY)."
                        )]
        #[no_mangle]
        pub unsafe extern "C" fn $attach_consumer(
            region: *const FfqRegion,
            out: *mut *mut FfqBytesConsumer,
        ) -> i32 {
            let make = |r| $variant::attach_consumer(r).map(FfqBytesConsumer::$wrap);
            // SAFETY: as in the creator path.
            unsafe { attach_handle(region, out, make) }
        }
    };
}

bytes_setup! {
    variant: spsc_bytes,
    fns: ffq_bytes_spsc_required_size, ffq_bytes_spsc_create,
         ffq_bytes_spsc_attach_producer, ffq_bytes_spsc_attach_consumer,
    wrap_consumer: Spsc
}
bytes_setup! {
    variant: spmc_bytes,
    fns: ffq_bytes_spmc_required_size, ffq_bytes_spmc_create,
         ffq_bytes_spmc_attach_producer, ffq_bytes_spmc_attach_consumer,
    wrap_consumer: Spmc
}

// ---------------------------------------------------------------------------
// Producer: reserve / commit / abort / send
// ---------------------------------------------------------------------------

/// Hands the write pointer of a new reservation to C. The engine keeps
/// holding the reservation; only the guard that would abort it on drop
/// goes.
fn hold(mut slot: WriteSlot<'_, SpProducer>) -> *mut u8 {
    let buf = slot.as_mut_ptr();
    std::mem::forget(slot);
    buf
}

/// The body of [`ffq_bytes_reserve`] (`block`) and
/// [`ffq_bytes_try_reserve`].
///
/// # Safety
/// `p` is NULL or a live handle; `buf` is NULL or writable.
unsafe fn reserve(p: *mut FfqBytesProducer, len: usize, buf: *mut *mut u8, block: bool) -> i32 {
    guard(|| {
        out_ptr!(buf);
        let h = handle!(p, producer);
        if h.has_pending() {
            set_last_error("a reservation is already outstanding on this producer");
            return FFQ_ERR_STATE;
        }
        if h.is_poisoned() {
            return poisoned();
        }
        let reserved = if block {
            h.reserve(len).map(hold).map_err(reserve_status)
        } else {
            h.try_reserve(len).map(hold).map_err(try_reserve_status)
        };
        match reserved {
            Ok(ptr) => {
                // SAFETY: buf was null-checked; the slot buffer is len
                // writable bytes, stable until commit or abort.
                unsafe { *buf = ptr };
                FFQ_OK
            }
            Err(FFQ_FULL) if h.is_poisoned() => poisoned(),
            Err(status) => status,
        }
    })
}

/// Reserves an in-place writable buffer for a `len`-byte payload, blocking
/// while the queue is full; `*buf` receives the write pointer. Exactly one
/// reservation may be outstanding per handle (`FFQ_ERR_STATE` otherwise).
#[no_mangle]
pub unsafe extern "C" fn ffq_bytes_reserve(
    p: *mut FfqBytesProducer,
    len: usize,
    buf: *mut *mut u8,
) -> i32 {
    // SAFETY: per the header contract.
    unsafe { reserve(p, len, buf, true) }
}

/// [`ffq_bytes_reserve`] without blocking: `FFQ_FULL` when no cell (or
/// chain run) is free right now.
#[no_mangle]
pub unsafe extern "C" fn ffq_bytes_try_reserve(
    p: *mut FfqBytesProducer,
    len: usize,
    buf: *mut *mut u8,
) -> i32 {
    // SAFETY: per the header contract.
    unsafe { reserve(p, len, buf, false) }
}

/// Publishes the outstanding reservation; the buffer pointer from
/// `reserve` is dead afterwards.
#[no_mangle]
pub unsafe extern "C" fn ffq_bytes_commit(p: *mut FfqBytesProducer) -> i32 {
    guard(|| {
        let h = handle!(p, producer);
        match h.pending_slot() {
            Some(slot) => {
                slot.commit();
                FFQ_OK
            }
            None => {
                set_last_error("commit without an outstanding reservation");
                FFQ_ERR_STATE
            }
        }
    })
}

/// Drops the outstanding reservation unpublished; consumers never observe
/// it.
#[no_mangle]
pub unsafe extern "C" fn ffq_bytes_abort(p: *mut FfqBytesProducer) -> i32 {
    guard(|| {
        let h = handle!(p, producer);
        match h.pending_slot() {
            Some(slot) => {
                drop(slot);
                FFQ_OK
            }
            None => {
                set_last_error("abort without an outstanding reservation");
                FFQ_ERR_STATE
            }
        }
    })
}

/// Copy-in convenience: reserve `len` bytes, copy from `data`, commit.
#[no_mangle]
pub unsafe extern "C" fn ffq_bytes_send(
    p: *mut FfqBytesProducer,
    data: *const u8,
    len: usize,
) -> i32 {
    guard(|| {
        if data.is_null() && len != 0 {
            set_last_error("data is NULL");
            return FFQ_ERR_NULL;
        }
        let h = handle!(p, producer);
        if h.has_pending() {
            set_last_error("a reservation is already outstanding on this producer");
            return FFQ_ERR_STATE;
        }
        // SAFETY: per the header contract `data` points at len readable
        // bytes (NULL allowed only for len 0, checked above).
        let payload = if len == 0 {
            &[][..]
        } else {
            unsafe { std::slice::from_raw_parts(data, len) }
        };
        if h.is_poisoned() {
            return poisoned();
        }
        match h.send_bytes(payload) {
            Ok(()) => FFQ_OK,
            Err(e) => reserve_status(e),
        }
    })
}

/// The largest payload a reserve on this queue can ever satisfy (0 for
/// NULL).
#[no_mangle]
pub unsafe extern "C" fn ffq_bytes_max_payload(p: *const FfqBytesProducer) -> usize {
    // SAFETY: NULL or a live handle, per header contract.
    unsafe { p.as_ref() }.map_or(0, ShmBytesProducer::max_payload)
}

/// Bytes per slot buffer — the largest payload that avoids the SPSC
/// chain-spill path (0 for NULL).
#[no_mangle]
pub unsafe extern "C" fn ffq_bytes_slot_bytes(p: *const FfqBytesProducer) -> usize {
    // SAFETY: NULL or a live handle, per header contract.
    unsafe { p.as_ref() }.map_or(0, ShmBytesProducer::slot_bytes)
}

crate::lifecycle_fns!(
    FfqBytesProducer,
    producer,
    "ffq_bytes",
    "ffq_bytes_capacity"
);

// ---------------------------------------------------------------------------
// Consumer: borrowed payload refs
// ---------------------------------------------------------------------------

/// Claims the next payload from either engine and exposes it borrowed
/// through `*data`/`*len`. On success the claim stays held by the engine —
/// its cell out of circulation, the bytes in place — until
/// [`ffq_payload_release`]; only the guard that would release it on drop
/// goes. One claim may be outstanding per handle.
///
/// # Safety
/// `c` is NULL or a live handle; `data` and `len` are NULL or writable.
unsafe fn claim_ref(
    c: *mut FfqBytesConsumer,
    data: *mut *const u8,
    len: *mut usize,
    how: Wait,
) -> i32 {
    guard(|| {
        out_ptr!(data);
        out_ptr!(len);
        either!(handle!(c, consumer), rx => claim_from(rx, data, len, how))
    })
}

fn claim_from<E: ConsumerEngine<PayloadDesc>>(
    c: &mut ShmBytesConsumer<E>,
    data: *mut *const u8,
    len: *mut usize,
    how: Wait,
) -> i32 {
    if c.has_claimed() {
        set_last_error("a payload ref is already outstanding on this consumer");
        return FFQ_ERR_STATE;
    }
    let claimed = match how {
        Wait::Block => c.recv().map_err(dequeue_status),
        Wait::Try => c.try_recv().map_err(try_dequeue_status),
        Wait::Timeout(t) => c.recv_timeout(t).map_err(try_dequeue_status),
    };
    match claimed {
        Ok(payload) => {
            // SAFETY: data/len were null-checked by the caller.
            unsafe {
                *data = payload.as_ptr();
                *len = payload.len();
            }
            std::mem::forget(payload);
            FFQ_OK
        }
        Err(status) => status,
    }
}

/// Claims the next payload, blocking while the queue is empty. On `FFQ_OK`
/// the bytes at `*data` stay valid — and their cell stays out of
/// circulation — until [`ffq_payload_release`]. One ref may be outstanding
/// per handle (`FFQ_ERR_STATE` otherwise).
#[no_mangle]
pub unsafe extern "C" fn ffq_payload_ref(
    c: *mut FfqBytesConsumer,
    data: *mut *const u8,
    len: *mut usize,
) -> i32 {
    // SAFETY: per the header contract.
    unsafe { claim_ref(c, data, len, Wait::Block) }
}

/// [`ffq_payload_ref`] without blocking: `FFQ_EMPTY` when nothing is
/// ready.
#[no_mangle]
pub unsafe extern "C" fn ffq_payload_try_ref(
    c: *mut FfqBytesConsumer,
    data: *mut *const u8,
    len: *mut usize,
) -> i32 {
    // SAFETY: per the header contract.
    unsafe { claim_ref(c, data, len, Wait::Try) }
}

/// [`ffq_payload_ref`] giving up with `FFQ_EMPTY` after `timeout_ms`
/// milliseconds.
#[no_mangle]
pub unsafe extern "C" fn ffq_payload_ref_timeout_ms(
    c: *mut FfqBytesConsumer,
    data: *mut *const u8,
    len: *mut usize,
    timeout_ms: u64,
) -> i32 {
    let how = Wait::Timeout(Duration::from_millis(timeout_ms));
    // SAFETY: per the header contract.
    unsafe { claim_ref(c, data, len, how) }
}

/// Releases the outstanding payload ref; its cell recycles and the `data`
/// pointer from the claim is dead afterwards.
#[no_mangle]
pub unsafe extern "C" fn ffq_payload_release(c: *mut FfqBytesConsumer) -> i32 {
    guard(|| {
        if !either!(handle!(c, consumer), rx => rx.release_claimed()) {
            set_last_error("release without an outstanding payload ref");
            return FFQ_ERR_STATE;
        }
        FFQ_OK
    })
}

crate::lifecycle_fns!(
    FfqBytesConsumer,
    consumer,
    "ffq_bytes",
    "ffq_bytes_consumer_capacity"
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ffq_region_close, ffq_region_create, ffq_region_unlink, FFQ_EMPTY};
    use std::ffi::CString;
    use std::ptr;

    fn shm_name(tag: &str) -> CString {
        CString::new(format!("ffq-ffi-{tag}-{}", std::process::id())).unwrap()
    }

    #[test]
    fn reserve_commit_payload_ref_round_trip() {
        let name = shm_name("t-bytes-spsc");
        // SAFETY: all pointers below are valid per the ABI contract.
        unsafe {
            let mut size = 0usize;
            assert_eq!(ffq_bytes_spsc_required_size(16, 256, &mut size), FFQ_OK);
            let mut region = ptr::null_mut();
            assert_eq!(ffq_region_create(name.as_ptr(), size, &mut region), FFQ_OK);
            let mut prod = ptr::null_mut();
            assert_eq!(ffq_bytes_spsc_create(region, 16, 256, &mut prod), FFQ_OK);
            let mut cons = ptr::null_mut();
            assert_eq!(ffq_bytes_spsc_attach_consumer(region, &mut cons), FFQ_OK);
            ffq_region_close(region);
            assert_eq!(ffq_bytes_slot_bytes(prod), 256);

            // Zero-copy write: fill the slot buffer in place, commit.
            let msg = b"written in place through the C ABI";
            let mut buf = ptr::null_mut();
            assert_eq!(ffq_bytes_reserve(prod, msg.len(), &mut buf), FFQ_OK);
            assert_eq!(ffq_bytes_reserve(prod, 1, &mut buf), FFQ_ERR_STATE);
            ptr::copy_nonoverlapping(msg.as_ptr(), buf, msg.len());
            assert_eq!(ffq_bytes_commit(prod), FFQ_OK);
            assert_eq!(ffq_bytes_commit(prod), FFQ_ERR_STATE);

            // Borrowed read.
            let mut data = ptr::null();
            let mut len = 0usize;
            assert_eq!(ffq_payload_ref(cons, &mut data, &mut len), FFQ_OK);
            assert_eq!(std::slice::from_raw_parts(data, len), msg);
            assert_eq!(
                ffq_payload_try_ref(cons, &mut data, &mut len),
                FFQ_ERR_STATE
            );
            assert_eq!(ffq_payload_release(cons), FFQ_OK);
            assert_eq!(ffq_payload_release(cons), FFQ_ERR_STATE);

            // Aborted reservations are invisible; sends still flow after.
            let mut buf2 = ptr::null_mut();
            assert_eq!(ffq_bytes_reserve(prod, 8, &mut buf2), FFQ_OK);
            assert_eq!(ffq_bytes_abort(prod), FFQ_OK);
            assert_eq!(ffq_bytes_send(prod, b"after-abort".as_ptr(), 11), FFQ_OK);
            assert_eq!(
                ffq_payload_ref_timeout_ms(cons, &mut data, &mut len, 1000),
                FFQ_OK
            );
            assert_eq!(std::slice::from_raw_parts(data, len), b"after-abort");
            assert_eq!(ffq_payload_release(cons), FFQ_OK);
            assert_eq!(ffq_payload_try_ref(cons, &mut data, &mut len), FFQ_EMPTY);

            // SPSC chains: a payload bigger than one slot buffer spills.
            let big = vec![0xa5u8; 700];
            assert_eq!(ffq_bytes_send(prod, big.as_ptr(), big.len()), FFQ_OK);
            assert_eq!(ffq_payload_ref(cons, &mut data, &mut len), FFQ_OK);
            assert_eq!(std::slice::from_raw_parts(data, len), &big[..]);
            assert_eq!(ffq_payload_release(cons), FFQ_OK);

            producer::close(prod);
            consumer::close(cons);
            assert_eq!(ffq_region_unlink(name.as_ptr()), FFQ_OK);
        }
    }

    #[test]
    fn spmc_refuses_oversize_and_poisons_through_the_abi() {
        let name = shm_name("t-bytes-spmc");
        // SAFETY: all pointers below are valid per the ABI contract.
        unsafe {
            let mut size = 0usize;
            assert_eq!(ffq_bytes_spmc_required_size(8, 128, &mut size), FFQ_OK);
            let mut region = ptr::null_mut();
            assert_eq!(ffq_region_create(name.as_ptr(), size, &mut region), FFQ_OK);
            let mut prod = ptr::null_mut();
            assert_eq!(ffq_bytes_spmc_create(region, 8, 128, &mut prod), FFQ_OK);
            let mut cons = ptr::null_mut();
            assert_eq!(ffq_bytes_spmc_attach_consumer(region, &mut cons), FFQ_OK);
            ffq_region_close(region);

            // SPMC never chains: oversize is refused up front.
            let mut buf = ptr::null_mut();
            assert_eq!(ffq_bytes_try_reserve(prod, 129, &mut buf), FFQ_TOO_LARGE);
            assert_eq!(ffq_bytes_max_payload(prod), 128);

            assert_eq!(ffq_bytes_send(prod, b"fan-out".as_ptr(), 7), FFQ_OK);
            let mut data = ptr::null();
            let mut len = 0usize;
            assert_eq!(ffq_payload_try_ref(cons, &mut data, &mut len), FFQ_OK);
            assert_eq!(std::slice::from_raw_parts(data, len), b"fan-out");
            assert_eq!(ffq_payload_release(cons), FFQ_OK);

            assert_eq!(consumer::poison(cons), FFQ_OK);
            assert_eq!(producer::is_poisoned(prod), 1);
            assert_eq!(ffq_bytes_send(prod, b"x".as_ptr(), 1), FFQ_POISONED);

            producer::close(prod);
            consumer::close(cons);
            assert_eq!(ffq_region_unlink(name.as_ptr()), FFQ_OK);
        }
    }
}
