//! Monomorphized typed-queue lanes: `ffq_spsc_u64_*`, `ffq_spmc_16b_*`, …
//!
//! C has no generics, so each fixed payload size the ABI supports is
//! stamped out as its own family of functions over its own opaque handle
//! pair. Two macros do the stamping: [`queue_core!`](self) (create /
//! attach / close / poison / capacity) and `typed_io!` (enqueue / dequeue
//! over the element's codec: by value for `u64`, by pointer for the
//! `[u8; N]` blobs). Eight lanes ship:
//!
//! | prefix            | element    | C-side value        |
//! |-------------------|------------|---------------------|
//! | `ffq_spsc_u64_`   | `u64`      | `uint64_t`          |
//! | `ffq_spmc_u64_`   | `u64`      | `uint64_t`          |
//! | `ffq_spsc_16b_`   | `[u8; 16]` | `uint8_t*` 16 bytes |
//! | `ffq_spmc_16b_`   | `[u8; 16]` | `uint8_t*` 16 bytes |
//! | `ffq_spsc_32b_`   | `[u8; 32]` | `uint8_t*` 32 bytes |
//! | `ffq_spmc_32b_`   | `[u8; 32]` | `uint8_t*` 32 bytes |
//! | `ffq_spsc_64b_`   | `[u8; 64]` | `uint8_t*` 64 bytes |
//! | `ffq_spmc_64b_`   | `[u8; 64]` | `uint8_t*` 64 bytes |
//!
//! Blob lanes copy through unaligned caller buffers (`read_unaligned` /
//! `copy_nonoverlapping`), so the C side may pass any byte pointer.
//! Variable-size payloads belong to the zero-copy [`bytes`](crate::bytes)
//! lane instead.

use std::time::Duration;

use crate::{
    attach_handle, dequeue_status, guard, handle, out_ptr, poisoned, set_last_error, status_of,
    try_dequeue_status, FfqRegion, FFQ_ERR_NULL, FFQ_FULL, FFQ_OK, FFQ_POISONED,
};

/// Stamps the element-type-independent half of one typed lane: handle
/// types, region setup, lifecycle and introspection.
macro_rules! queue_core {
    (
        variant: $variant:ident, elem: $elem:ty,
        producer_handle: $Producer:ident, consumer_handle: $Consumer:ident,
        fns: $required_size:ident, $create:ident, $attach_producer:ident, $attach_consumer:ident,
             $producer_capacity:ident, $producer_is_poisoned:ident, $producer_poison:ident,
             $producer_close:ident,
             $consumer_capacity:ident, $consumer_is_poisoned:ident, $consumer_poison:ident,
             $consumer_close:ident
    ) => {
        #[doc = concat!(
                            "Opaque producer handle (`",
                            stringify!($variant), "`, `", stringify!($elem), "` elements)."
                        )]
        pub struct $Producer {
            inner: ffq_shm::$variant::Producer<$elem>,
        }

        #[doc = concat!(
                            "Opaque consumer handle (`",
                            stringify!($variant), "`, `", stringify!($elem), "` elements)."
                        )]
        pub struct $Consumer {
            inner: ffq_shm::$variant::Consumer<$elem>,
        }

        #[doc = concat!(
                            "Stores in `*out` the region size (bytes) this lane needs for ",
                            "at least `capacity` elements (rounded up to a power of two)."
                        )]
        #[no_mangle]
        pub unsafe extern "C" fn $required_size(capacity: usize, out: *mut usize) -> i32 {
            guard(|| {
                out_ptr!(out);
                match ffq_shm::$variant::required_size::<$elem>(capacity) {
                    Ok(n) => {
                        // SAFETY: out was null-checked.
                        unsafe { *out = n };
                        FFQ_OK
                    }
                    Err(e) => status_of(&e),
                }
            })
        }

        #[doc = concat!(
                            "Formats `region` as this lane's queue and attaches as its ",
                            "producer (the creator path). The new handle lands in `*out`; ",
                            "the caller may close its region handle afterwards."
                        )]
        #[no_mangle]
        pub unsafe extern "C" fn $create(
            region: *const FfqRegion,
            capacity: usize,
            out: *mut *mut $Producer,
        ) -> i32 {
            let make = |r| ffq_shm::$variant::create::<$elem>(r, capacity);
            // SAFETY: per header contract, `region` is a live region handle
            // or NULL, and `out` is writable or NULL.
            unsafe { attach_handle(region, out, |r| make(r).map(|inner| $Producer { inner })) }
        }

        #[doc = concat!(
                            "Attaches as the producer of an already-formatted region ",
                            "(waits for READY; `FFQ_ERR_PRODUCER_ATTACHED` while another ",
                            "live process holds that side)."
                        )]
        #[no_mangle]
        pub unsafe extern "C" fn $attach_producer(
            region: *const FfqRegion,
            out: *mut *mut $Producer,
        ) -> i32 {
            let make = ffq_shm::$variant::attach_producer::<$elem>;
            // SAFETY: as in the creator path.
            unsafe { attach_handle(region, out, |r| make(r).map(|inner| $Producer { inner })) }
        }

        #[doc = concat!(
                            "Attaches a consumer to an already-formatted region (waits for ",
                            "READY; `FFQ_ERR_SLOTS_FULL` when no consumer slot is free)."
                        )]
        #[no_mangle]
        pub unsafe extern "C" fn $attach_consumer(
            region: *const FfqRegion,
            out: *mut *mut $Consumer,
        ) -> i32 {
            let make = ffq_shm::$variant::attach_consumer::<$elem>;
            // SAFETY: as in the creator path.
            unsafe { attach_handle(region, out, |r| make(r).map(|inner| $Consumer { inner })) }
        }

        #[doc = "Queue capacity in elements (0 for NULL)."]
        #[no_mangle]
        pub unsafe extern "C" fn $producer_capacity(p: *const $Producer) -> usize {
            if p.is_null() {
                return 0;
            }
            // SAFETY: live handle per header contract.
            unsafe { (*p).inner.capacity() }
        }

        #[doc = "1 if the queue is poisoned, 0 if not, `FFQ_ERR_NULL` for NULL."]
        #[no_mangle]
        pub unsafe extern "C" fn $producer_is_poisoned(p: *const $Producer) -> i32 {
            if p.is_null() {
                return FFQ_ERR_NULL;
            }
            // SAFETY: live handle per header contract.
            unsafe { (*p).inner.is_poisoned() as i32 }
        }

        #[doc = "Poisons the queue for every attached handle in every process."]
        #[no_mangle]
        pub unsafe extern "C" fn $producer_poison(p: *const $Producer) -> i32 {
            guard(|| {
                if p.is_null() {
                    set_last_error("producer handle is NULL");
                    return FFQ_ERR_NULL;
                }
                // SAFETY: live handle per header contract.
                unsafe { (*p).inner.poison() };
                FFQ_OK
            })
        }

        #[doc = "Detaches and destroys the producer handle. NULL is a no-op."]
        #[no_mangle]
        pub unsafe extern "C" fn $producer_close(p: *mut $Producer) {
            if p.is_null() {
                return;
            }
            let _ = guard(move || {
                // SAFETY: live handle per header contract, not yet closed.
                drop(unsafe { Box::from_raw(p) });
                FFQ_OK
            });
        }

        #[doc = "Queue capacity in elements (0 for NULL)."]
        #[no_mangle]
        pub unsafe extern "C" fn $consumer_capacity(c: *const $Consumer) -> usize {
            if c.is_null() {
                return 0;
            }
            // SAFETY: live handle per header contract.
            unsafe { (*c).inner.capacity() }
        }

        #[doc = "1 if the queue is poisoned, 0 if not, `FFQ_ERR_NULL` for NULL."]
        #[no_mangle]
        pub unsafe extern "C" fn $consumer_is_poisoned(c: *const $Consumer) -> i32 {
            if c.is_null() {
                return FFQ_ERR_NULL;
            }
            // SAFETY: live handle per header contract.
            unsafe { (*c).inner.is_poisoned() as i32 }
        }

        #[doc = "Poisons the queue for every attached handle in every process."]
        #[no_mangle]
        pub unsafe extern "C" fn $consumer_poison(c: *const $Consumer) -> i32 {
            guard(|| {
                if c.is_null() {
                    set_last_error("consumer handle is NULL");
                    return FFQ_ERR_NULL;
                }
                // SAFETY: live handle per header contract.
                unsafe { (*c).inner.poison() };
                FFQ_OK
            })
        }

        #[doc = "Detaches and destroys the consumer handle. NULL is a no-op."]
        #[no_mangle]
        pub unsafe extern "C" fn $consumer_close(c: *mut $Consumer) {
            if c.is_null() {
                return;
            }
            let _ = guard(move || {
                // SAFETY: live handle per header contract, not yet closed.
                drop(unsafe { Box::from_raw(c) });
                FFQ_OK
            });
        }
    };
}

/// How a lane's element crosses the C boundary: `u64` by value, a
/// `[u8; N]` blob through a byte pointer of any alignment (exactly `N`
/// bytes are copied each way).
trait Elem: Copy {
    /// What an enqueue takes the element as.
    type In: Copy;
    /// What a dequeue writes the element through a pointer to.
    type Unit;
    /// Whether `value` is a NULL pointer (never, for a by-value element).
    fn is_null(value: Self::In) -> bool;
    /// # Safety
    /// A pointer `value` is non-NULL and addresses one readable element.
    unsafe fn read(value: Self::In) -> Self;
    /// # Safety
    /// `out` is non-NULL and addresses one writable element.
    unsafe fn write(self, out: *mut Self::Unit);
}

impl Elem for u64 {
    type In = u64;
    type Unit = u64;
    fn is_null(_: u64) -> bool {
        false
    }
    unsafe fn read(value: u64) -> u64 {
        value
    }
    unsafe fn write(self, out: *mut u64) {
        // SAFETY: per this function's contract.
        unsafe { *out = self };
    }
}

impl<const N: usize> Elem for [u8; N] {
    type In = *const u8;
    type Unit = u8;
    fn is_null(value: *const u8) -> bool {
        value.is_null()
    }
    unsafe fn read(value: *const u8) -> Self {
        // SAFETY: per this function's contract `value` points at N
        // readable bytes; read_unaligned imposes no alignment.
        unsafe { core::ptr::read_unaligned(value.cast()) }
    }
    unsafe fn write(self, out: *mut u8) {
        // SAFETY: per this function's contract `out` points at N writable
        // bytes; plain byte copy, no alignment.
        unsafe { core::ptr::copy_nonoverlapping(self.as_ptr(), out, N) };
    }
}

/// Writes a dequeued element through `out`, or maps the error to its
/// status with `status`.
///
/// # Safety
/// `out` is non-NULL and addresses one writable element.
unsafe fn deliver<E: Elem, X>(got: Result<E, X>, out: *mut E::Unit, status: fn(X) -> i32) -> i32 {
    match got {
        Ok(v) => {
            // SAFETY: per this function's contract.
            unsafe { v.write(out) };
            FFQ_OK
        }
        Err(e) => status(e),
    }
}

/// Stamps the enqueue/dequeue half of one typed lane over its [`Elem`]
/// codec; `value` and `out` name the codec's `In` and `Unit` types (the C
/// signatures spell them out). The header contract gives every non-NULL
/// element pointer room for exactly one element.
macro_rules! typed_io {
    (
        elem: $elem:ty, value: $In:ty, out: $Unit:ty,
        producer_handle: $Producer:ident, consumer_handle: $Consumer:ident,
        fns: $enqueue:ident, $try_enqueue:ident,
             $dequeue:ident, $try_dequeue:ident, $dequeue_timeout_ms:ident
    ) => {
        #[doc = "Enqueues `value`, blocking while the queue is full. \
                 `FFQ_POISONED` if a peer died."]
        #[no_mangle]
        pub unsafe extern "C" fn $enqueue(p: *mut $Producer, value: $In) -> i32 {
            guard(|| {
                if <$elem>::is_null(value) {
                    set_last_error("value is NULL");
                    return FFQ_ERR_NULL;
                }
                let h = handle!(p);
                if h.inner.is_poisoned() {
                    return poisoned();
                }
                // SAFETY: NULL-checked above; one element per the header.
                match h.inner.enqueue(unsafe { <$elem>::read(value) }) {
                    Ok(()) => FFQ_OK,
                    Err(e) => {
                        set_last_error(&e.to_string());
                        FFQ_POISONED
                    }
                }
            })
        }

        #[doc = "Enqueues `value` without blocking: `FFQ_FULL` when no cell \
                 is free, `FFQ_POISONED` if a peer died."]
        #[no_mangle]
        pub unsafe extern "C" fn $try_enqueue(p: *mut $Producer, value: $In) -> i32 {
            guard(|| {
                if <$elem>::is_null(value) {
                    set_last_error("value is NULL");
                    return FFQ_ERR_NULL;
                }
                let h = handle!(p);
                if h.inner.is_poisoned() {
                    return poisoned();
                }
                // SAFETY: NULL-checked above; one element per the header.
                match h.inner.try_enqueue(unsafe { <$elem>::read(value) }) {
                    Ok(()) => FFQ_OK,
                    Err(_) if h.inner.is_poisoned() => poisoned(),
                    Err(_) => FFQ_FULL,
                }
            })
        }

        #[doc = "Dequeues into `out`, blocking while the queue is empty. \
                 `FFQ_DISCONNECTED` once the producer detached cleanly and \
                 the queue drained; `FFQ_POISONED` if a peer died."]
        #[no_mangle]
        pub unsafe extern "C" fn $dequeue(c: *mut $Consumer, out: *mut $Unit) -> i32 {
            guard(|| {
                out_ptr!(out);
                let h = handle!(c);
                // SAFETY: NULL-checked above; one element per the header.
                unsafe { deliver(h.inner.dequeue(), out, dequeue_status) }
            })
        }

        #[doc = "Dequeues into `out` without blocking: `FFQ_EMPTY` when \
                 nothing is ready."]
        #[no_mangle]
        pub unsafe extern "C" fn $try_dequeue(c: *mut $Consumer, out: *mut $Unit) -> i32 {
            guard(|| {
                out_ptr!(out);
                let h = handle!(c);
                // SAFETY: NULL-checked above; one element per the header.
                unsafe { deliver(h.inner.try_dequeue(), out, try_dequeue_status) }
            })
        }

        #[doc = "Dequeues into `out`, giving up with `FFQ_EMPTY` after \
                 `timeout_ms` milliseconds."]
        #[no_mangle]
        pub unsafe extern "C" fn $dequeue_timeout_ms(
            c: *mut $Consumer,
            out: *mut $Unit,
            timeout_ms: u64,
        ) -> i32 {
            guard(|| {
                out_ptr!(out);
                let h = handle!(c);
                let got = h.inner.dequeue_timeout(Duration::from_millis(timeout_ms));
                // SAFETY: NULL-checked above; one element per the header.
                unsafe { deliver(got, out, try_dequeue_status) }
            })
        }
    };
}

// ---------------------------------------------------------------------------
// ffq_spsc_u64_* / ffq_spmc_u64_*
// ---------------------------------------------------------------------------

queue_core! {
    variant: spsc, elem: u64,
    producer_handle: FfqSpscU64Producer, consumer_handle: FfqSpscU64Consumer,
    fns: ffq_spsc_u64_required_size, ffq_spsc_u64_create,
         ffq_spsc_u64_attach_producer, ffq_spsc_u64_attach_consumer,
         ffq_spsc_u64_producer_capacity, ffq_spsc_u64_producer_is_poisoned,
         ffq_spsc_u64_producer_poison, ffq_spsc_u64_producer_close,
         ffq_spsc_u64_consumer_capacity, ffq_spsc_u64_consumer_is_poisoned,
         ffq_spsc_u64_consumer_poison, ffq_spsc_u64_consumer_close
}
typed_io! {
    elem: u64, value: u64, out: u64,
    producer_handle: FfqSpscU64Producer, consumer_handle: FfqSpscU64Consumer,
    fns: ffq_spsc_u64_enqueue, ffq_spsc_u64_try_enqueue,
         ffq_spsc_u64_dequeue, ffq_spsc_u64_try_dequeue, ffq_spsc_u64_dequeue_timeout_ms
}

queue_core! {
    variant: spmc, elem: u64,
    producer_handle: FfqSpmcU64Producer, consumer_handle: FfqSpmcU64Consumer,
    fns: ffq_spmc_u64_required_size, ffq_spmc_u64_create,
         ffq_spmc_u64_attach_producer, ffq_spmc_u64_attach_consumer,
         ffq_spmc_u64_producer_capacity, ffq_spmc_u64_producer_is_poisoned,
         ffq_spmc_u64_producer_poison, ffq_spmc_u64_producer_close,
         ffq_spmc_u64_consumer_capacity, ffq_spmc_u64_consumer_is_poisoned,
         ffq_spmc_u64_consumer_poison, ffq_spmc_u64_consumer_close
}
typed_io! {
    elem: u64, value: u64, out: u64,
    producer_handle: FfqSpmcU64Producer, consumer_handle: FfqSpmcU64Consumer,
    fns: ffq_spmc_u64_enqueue, ffq_spmc_u64_try_enqueue,
         ffq_spmc_u64_dequeue, ffq_spmc_u64_try_dequeue, ffq_spmc_u64_dequeue_timeout_ms
}

// ---------------------------------------------------------------------------
// ffq_spsc_16b_* / ffq_spmc_16b_*
// ---------------------------------------------------------------------------

queue_core! {
    variant: spsc, elem: [u8; 16],
    producer_handle: FfqSpsc16bProducer, consumer_handle: FfqSpsc16bConsumer,
    fns: ffq_spsc_16b_required_size, ffq_spsc_16b_create,
         ffq_spsc_16b_attach_producer, ffq_spsc_16b_attach_consumer,
         ffq_spsc_16b_producer_capacity, ffq_spsc_16b_producer_is_poisoned,
         ffq_spsc_16b_producer_poison, ffq_spsc_16b_producer_close,
         ffq_spsc_16b_consumer_capacity, ffq_spsc_16b_consumer_is_poisoned,
         ffq_spsc_16b_consumer_poison, ffq_spsc_16b_consumer_close
}
typed_io! {
    elem: [u8; 16], value: *const u8, out: u8,
    producer_handle: FfqSpsc16bProducer, consumer_handle: FfqSpsc16bConsumer,
    fns: ffq_spsc_16b_enqueue, ffq_spsc_16b_try_enqueue,
         ffq_spsc_16b_dequeue, ffq_spsc_16b_try_dequeue, ffq_spsc_16b_dequeue_timeout_ms
}

queue_core! {
    variant: spmc, elem: [u8; 16],
    producer_handle: FfqSpmc16bProducer, consumer_handle: FfqSpmc16bConsumer,
    fns: ffq_spmc_16b_required_size, ffq_spmc_16b_create,
         ffq_spmc_16b_attach_producer, ffq_spmc_16b_attach_consumer,
         ffq_spmc_16b_producer_capacity, ffq_spmc_16b_producer_is_poisoned,
         ffq_spmc_16b_producer_poison, ffq_spmc_16b_producer_close,
         ffq_spmc_16b_consumer_capacity, ffq_spmc_16b_consumer_is_poisoned,
         ffq_spmc_16b_consumer_poison, ffq_spmc_16b_consumer_close
}
typed_io! {
    elem: [u8; 16], value: *const u8, out: u8,
    producer_handle: FfqSpmc16bProducer, consumer_handle: FfqSpmc16bConsumer,
    fns: ffq_spmc_16b_enqueue, ffq_spmc_16b_try_enqueue,
         ffq_spmc_16b_dequeue, ffq_spmc_16b_try_dequeue, ffq_spmc_16b_dequeue_timeout_ms
}

// ---------------------------------------------------------------------------
// ffq_spsc_32b_* / ffq_spmc_32b_*
// ---------------------------------------------------------------------------

queue_core! {
    variant: spsc, elem: [u8; 32],
    producer_handle: FfqSpsc32bProducer, consumer_handle: FfqSpsc32bConsumer,
    fns: ffq_spsc_32b_required_size, ffq_spsc_32b_create,
         ffq_spsc_32b_attach_producer, ffq_spsc_32b_attach_consumer,
         ffq_spsc_32b_producer_capacity, ffq_spsc_32b_producer_is_poisoned,
         ffq_spsc_32b_producer_poison, ffq_spsc_32b_producer_close,
         ffq_spsc_32b_consumer_capacity, ffq_spsc_32b_consumer_is_poisoned,
         ffq_spsc_32b_consumer_poison, ffq_spsc_32b_consumer_close
}
typed_io! {
    elem: [u8; 32], value: *const u8, out: u8,
    producer_handle: FfqSpsc32bProducer, consumer_handle: FfqSpsc32bConsumer,
    fns: ffq_spsc_32b_enqueue, ffq_spsc_32b_try_enqueue,
         ffq_spsc_32b_dequeue, ffq_spsc_32b_try_dequeue, ffq_spsc_32b_dequeue_timeout_ms
}

queue_core! {
    variant: spmc, elem: [u8; 32],
    producer_handle: FfqSpmc32bProducer, consumer_handle: FfqSpmc32bConsumer,
    fns: ffq_spmc_32b_required_size, ffq_spmc_32b_create,
         ffq_spmc_32b_attach_producer, ffq_spmc_32b_attach_consumer,
         ffq_spmc_32b_producer_capacity, ffq_spmc_32b_producer_is_poisoned,
         ffq_spmc_32b_producer_poison, ffq_spmc_32b_producer_close,
         ffq_spmc_32b_consumer_capacity, ffq_spmc_32b_consumer_is_poisoned,
         ffq_spmc_32b_consumer_poison, ffq_spmc_32b_consumer_close
}
typed_io! {
    elem: [u8; 32], value: *const u8, out: u8,
    producer_handle: FfqSpmc32bProducer, consumer_handle: FfqSpmc32bConsumer,
    fns: ffq_spmc_32b_enqueue, ffq_spmc_32b_try_enqueue,
         ffq_spmc_32b_dequeue, ffq_spmc_32b_try_dequeue, ffq_spmc_32b_dequeue_timeout_ms
}

// ---------------------------------------------------------------------------
// ffq_spsc_64b_* / ffq_spmc_64b_*
// ---------------------------------------------------------------------------

queue_core! {
    variant: spsc, elem: [u8; 64],
    producer_handle: FfqSpsc64bProducer, consumer_handle: FfqSpsc64bConsumer,
    fns: ffq_spsc_64b_required_size, ffq_spsc_64b_create,
         ffq_spsc_64b_attach_producer, ffq_spsc_64b_attach_consumer,
         ffq_spsc_64b_producer_capacity, ffq_spsc_64b_producer_is_poisoned,
         ffq_spsc_64b_producer_poison, ffq_spsc_64b_producer_close,
         ffq_spsc_64b_consumer_capacity, ffq_spsc_64b_consumer_is_poisoned,
         ffq_spsc_64b_consumer_poison, ffq_spsc_64b_consumer_close
}
typed_io! {
    elem: [u8; 64], value: *const u8, out: u8,
    producer_handle: FfqSpsc64bProducer, consumer_handle: FfqSpsc64bConsumer,
    fns: ffq_spsc_64b_enqueue, ffq_spsc_64b_try_enqueue,
         ffq_spsc_64b_dequeue, ffq_spsc_64b_try_dequeue, ffq_spsc_64b_dequeue_timeout_ms
}

queue_core! {
    variant: spmc, elem: [u8; 64],
    producer_handle: FfqSpmc64bProducer, consumer_handle: FfqSpmc64bConsumer,
    fns: ffq_spmc_64b_required_size, ffq_spmc_64b_create,
         ffq_spmc_64b_attach_producer, ffq_spmc_64b_attach_consumer,
         ffq_spmc_64b_producer_capacity, ffq_spmc_64b_producer_is_poisoned,
         ffq_spmc_64b_producer_poison, ffq_spmc_64b_producer_close,
         ffq_spmc_64b_consumer_capacity, ffq_spmc_64b_consumer_is_poisoned,
         ffq_spmc_64b_consumer_poison, ffq_spmc_64b_consumer_close
}
typed_io! {
    elem: [u8; 64], value: *const u8, out: u8,
    producer_handle: FfqSpmc64bProducer, consumer_handle: FfqSpmc64bConsumer,
    fns: ffq_spmc_64b_enqueue, ffq_spmc_64b_try_enqueue,
         ffq_spmc_64b_dequeue, ffq_spmc_64b_try_dequeue, ffq_spmc_64b_dequeue_timeout_ms
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        ffq_region_close, ffq_region_create, ffq_region_open, ffq_region_unlink, FFQ_DISCONNECTED,
        FFQ_EMPTY,
    };
    use std::ffi::CString;
    use std::ptr;

    fn shm_name(tag: &str) -> CString {
        CString::new(format!("ffq-ffi-{tag}-{}", std::process::id())).unwrap()
    }

    #[test]
    fn spsc_u64_round_trip_through_the_c_abi() {
        let name = shm_name("t-spsc-u64");
        // SAFETY: all pointers below are valid per the ABI contract; the
        // test exercises the extern fns exactly as a C client would.
        unsafe {
            let mut size = 0usize;
            assert_eq!(ffq_spsc_u64_required_size(64, &mut size), FFQ_OK);
            assert!(size > 0);

            let mut region = ptr::null_mut();
            assert_eq!(ffq_region_create(name.as_ptr(), size, &mut region), FFQ_OK);

            let mut prod = ptr::null_mut();
            assert_eq!(ffq_spsc_u64_create(region, 64, &mut prod), FFQ_OK);
            assert_eq!(ffq_spsc_u64_producer_capacity(prod), 64);

            // A consumer in the same process, via a second mapping, as a
            // separate process would do it.
            let mut region2 = ptr::null_mut();
            assert_eq!(ffq_region_open(name.as_ptr(), &mut region2), FFQ_OK);
            let mut cons = ptr::null_mut();
            assert_eq!(ffq_spsc_u64_attach_consumer(region2, &mut cons), FFQ_OK);
            ffq_region_close(region);
            ffq_region_close(region2);

            for i in 0..1000u64 {
                assert_eq!(ffq_spsc_u64_enqueue(prod, i), FFQ_OK);
                let mut out = u64::MAX;
                assert_eq!(ffq_spsc_u64_dequeue(cons, &mut out), FFQ_OK);
                assert_eq!(out, i);
            }
            let mut out = 0u64;
            assert_eq!(ffq_spsc_u64_try_dequeue(cons, &mut out), FFQ_EMPTY);
            assert_eq!(
                ffq_spsc_u64_dequeue_timeout_ms(cons, &mut out, 1),
                FFQ_EMPTY
            );

            // Producer closing first → consumer sees clean disconnect.
            ffq_spsc_u64_producer_close(prod);
            assert_eq!(ffq_spsc_u64_dequeue(cons, &mut out), FFQ_DISCONNECTED);
            ffq_spsc_u64_consumer_close(cons);
            assert_eq!(ffq_region_unlink(name.as_ptr()), FFQ_OK);
        }
    }

    #[test]
    fn spmc_16b_round_trip_and_poison() {
        let name = shm_name("t-spmc-16b");
        // SAFETY: as above — valid pointers throughout.
        unsafe {
            let mut size = 0usize;
            assert_eq!(ffq_spmc_16b_required_size(32, &mut size), FFQ_OK);
            let mut region = ptr::null_mut();
            assert_eq!(ffq_region_create(name.as_ptr(), size, &mut region), FFQ_OK);
            let mut prod = ptr::null_mut();
            assert_eq!(ffq_spmc_16b_create(region, 32, &mut prod), FFQ_OK);
            let mut cons = ptr::null_mut();
            assert_eq!(ffq_spmc_16b_attach_consumer(region, &mut cons), FFQ_OK);
            ffq_region_close(region);

            let msg = *b"polyglot-payload";
            assert_eq!(ffq_spmc_16b_try_enqueue(prod, msg.as_ptr()), FFQ_OK);
            let mut out = [0u8; 16];
            assert_eq!(ffq_spmc_16b_dequeue(cons, out.as_mut_ptr()), FFQ_OK);
            assert_eq!(out, msg);

            assert_eq!(ffq_spmc_16b_producer_is_poisoned(prod), 0);
            assert_eq!(ffq_spmc_16b_consumer_poison(cons), FFQ_OK);
            assert_eq!(ffq_spmc_16b_producer_is_poisoned(prod), 1);
            assert_eq!(ffq_spmc_16b_enqueue(prod, msg.as_ptr()), FFQ_POISONED);
            let mut out2 = [0u8; 16];
            assert_eq!(
                ffq_spmc_16b_try_dequeue(cons, out2.as_mut_ptr()),
                FFQ_POISONED
            );

            ffq_spmc_16b_producer_close(prod);
            ffq_spmc_16b_consumer_close(cons);
            assert_eq!(ffq_region_unlink(name.as_ptr()), FFQ_OK);
        }
    }

    #[test]
    fn null_handles_are_rejected() {
        // SAFETY: deliberately passing NULL — the contract promises
        // FFQ_ERR_NULL (or a 0/no-op) instead of UB.
        unsafe {
            assert_eq!(ffq_spsc_u64_enqueue(ptr::null_mut(), 7), FFQ_ERR_NULL);
            let mut out = 0u64;
            assert_eq!(
                ffq_spsc_u64_dequeue(ptr::null_mut(), &mut out),
                FFQ_ERR_NULL
            );
            let mut cons = ptr::null_mut();
            assert_eq!(
                ffq_spmc_u64_attach_consumer(ptr::null(), &mut cons),
                FFQ_ERR_NULL
            );
            assert_eq!(ffq_spmc_u64_producer_capacity(ptr::null()), 0);
            assert_eq!(ffq_spmc_u64_consumer_is_poisoned(ptr::null()), FFQ_ERR_NULL);
            ffq_spsc_u64_producer_close(ptr::null_mut());
            ffq_spsc_u64_consumer_close(ptr::null_mut());
        }
    }
}
