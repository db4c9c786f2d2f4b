//! Monomorphized typed-queue lanes: `ffq_spsc_u64_*`, `ffq_spmc_16b_*`, …
//!
//! C has no generics, so each fixed payload size the ABI supports is
//! stamped out as its own family of functions over its own opaque handle
//! pair. Each lane is one row of the `typed_lanes!` table below: its
//! name, the `ffq-shm` variant, the element type, the C
//! types an enqueue takes and a dequeue writes through, and the text the
//! header describes the element by. The row stamps the lane's 17
//! functions into a module of the lane's name, exported under their C
//! names:
//!
//! * `ffq_<lane>_required_size`, `_create`, `_attach_producer` and
//!   `_attach_consumer` — region setup;
//! * `ffq_<lane>_enqueue`, `_try_enqueue`, `_dequeue`, `_try_dequeue` and
//!   `_dequeue_timeout_ms` — over the element's codec: by value for
//!   `u64`, by pointer for the `[u8; N]` blobs;
//! * `ffq_<lane>_producer_*` and `ffq_<lane>_consumer_*` — `capacity`,
//!   `is_poisoned`, `poison` and `close`, in the lane's `producer` and
//!   `consumer` modules (the crate's one lifecycle macro).
//!
//! So `ffq_spmc_64b_try_dequeue` is [`spmc_64b::try_dequeue`], and
//! `ffq_spsc_u64_producer_close` is [`spsc_u64::producer::close`]. The
//! same rows, as [`LANES`], are what the header generator prints, so a
//! new payload size is one more row.
//!
//! Each handle is the `ffq-shm` handle itself (`spsc_u64::Producer` is
//! `ffq_shm::spsc::Producer<u64>`). Blob lanes copy through unaligned
//! caller buffers (`read_unaligned` / `copy_nonoverlapping`), so the C
//! side may pass any byte pointer. Variable-size payloads belong to the
//! zero-copy [`bytes`](crate::bytes) lane instead.

use std::time::Duration;

use ffq::raw::ConsumerEngine;
use ffq_shm::{ShmConsumer, ShmProducer, ShmSafe};

use crate::{
    attach_handle, dequeue_status, guard, handle, out_ptr, poisoned, required_size, set_last_error,
    try_dequeue_status, FfqRegion, Wait, FFQ_ERR_NULL, FFQ_FULL, FFQ_OK, FFQ_POISONED,
};

/// How a lane's element crosses the C boundary: `u64` by value, a
/// `[u8; N]` blob through a byte pointer of any alignment (exactly `N`
/// bytes are copied each way).
trait Elem: ShmSafe + Copy {
    /// Whether the element crosses by value rather than by pointer.
    const BY_VALUE: bool;
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
    const BY_VALUE: bool = true;
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
    const BY_VALUE: bool = false;
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

/// One typed lane as the header generator prints it: a row of the
/// `typed_lanes!` table.
pub struct Lane {
    /// The C function prefix, e.g. `ffq_spsc_u64`.
    pub prefix: &'static str,
    /// The `ffq-shm` variant: `spsc` or `spmc`.
    pub variant: &'static str,
    /// How the header names the element, e.g. `uint64_t`.
    pub elem: &'static str,
    /// The element's size in bytes.
    pub size: usize,
    /// Whether the element crosses by value (`uint64_t`) rather than
    /// through a byte pointer.
    pub by_value: bool,
}

/// The body of every lane's `enqueue` (`block`) and `try_enqueue`. The
/// header contract gives a non-NULL `value` pointer one element.
///
/// # Safety
/// `p` is NULL or a live handle; a pointer `value` is NULL or addresses
/// one readable element.
unsafe fn put<T: Elem>(p: *mut ShmProducer<T>, value: T::In, block: bool) -> i32 {
    guard(|| {
        if T::is_null(value) {
            set_last_error("value is NULL");
            return FFQ_ERR_NULL;
        }
        let h = handle!(p, producer);
        if h.is_poisoned() {
            return poisoned();
        }
        // SAFETY: NULL-checked above; one element per the header.
        let value = unsafe { T::read(value) };
        if block {
            match h.enqueue(value) {
                Ok(()) => FFQ_OK,
                Err(e) => {
                    set_last_error(&e.to_string());
                    FFQ_POISONED
                }
            }
        } else {
            match h.try_enqueue(value) {
                Ok(()) => FFQ_OK,
                Err(_) if h.is_poisoned() => poisoned(),
                Err(_) => FFQ_FULL,
            }
        }
    })
}

/// The body of every lane's three dequeues: the element lands in `*out`.
///
/// # Safety
/// `c` is NULL or a live handle; `out` is NULL or addresses one writable
/// element.
unsafe fn take<T: Elem, E: ConsumerEngine<T>>(
    c: *mut ShmConsumer<T, E>,
    out: *mut T::Unit,
    how: Wait,
) -> i32 {
    guard(|| {
        out_ptr!(out);
        let h = handle!(c, consumer);
        let got = match how {
            Wait::Block => h.dequeue().map_err(dequeue_status),
            Wait::Try => h.try_dequeue().map_err(try_dequeue_status),
            Wait::Timeout(t) => h.dequeue_timeout(t).map_err(try_dequeue_status),
        };
        match got {
            Ok(v) => {
                // SAFETY: NULL-checked above; one element per the header.
                unsafe { v.write(out) };
                FFQ_OK
            }
            Err(status) => status,
        }
    })
}

/// Stamps each row's lane module and collects the rows into [`LANES`].
/// A row reads `lane: variant, element, C value type, C out type, header
/// text;`, the two C types spelling out the element codec's `In` and
/// `Unit` in the C signatures.
macro_rules! typed_lanes {
    ($($lane:ident: $variant:ident, $elem:ty, $In:ty, $Unit:ty, $text:literal;)+) => {
        /// Every typed lane, in the order the header declares them.
        pub const LANES: &[Lane] = &[$(Lane {
            prefix: concat!("ffq_", stringify!($lane)),
            variant: stringify!($variant),
            elem: $text,
            size: std::mem::size_of::<$elem>(),
            by_value: <$elem as Elem>::BY_VALUE,
        }),+];

        $(
        #[doc = concat!(
            "The `ffq_", stringify!($lane), "_*` lane: ffq-shm `", stringify!($variant),
            "` queues of `", stringify!($elem), "` elements."
        )]
        pub mod $lane {
            use super::*;

            /// The producer handle: the `ffq-shm` producer itself.
            pub type Producer = ffq_shm::$variant::Producer<$elem>;
            /// The consumer handle: the `ffq-shm` consumer itself.
            pub type Consumer = ffq_shm::$variant::Consumer<$elem>;

            /// Stores in `*out` the region size (bytes) this lane needs for
            /// at least `capacity` elements (rounded up to a power of two).
            #[export_name = concat!("ffq_", stringify!($lane), "_required_size")]
            pub unsafe extern "C" fn required_size(capacity: usize, out: *mut usize) -> i32 {
                let size = || ffq_shm::$variant::required_size::<$elem>(capacity);
                // SAFETY: per the header contract, `out` is writable or NULL.
                unsafe { super::required_size(out, size) }
            }

            /// Formats `region` as this lane's queue and attaches as its
            /// producer (the creator path). The new handle lands in `*out`;
            /// the caller may close its region handle afterwards.
            #[export_name = concat!("ffq_", stringify!($lane), "_create")]
            pub unsafe extern "C" fn create(
                region: *const FfqRegion,
                capacity: usize,
                out: *mut *mut Producer,
            ) -> i32 {
                let make = |r| ffq_shm::$variant::create::<$elem>(r, capacity);
                // SAFETY: per the header contract, `region` is a live region
                // handle or NULL, and `out` is writable or NULL.
                unsafe { attach_handle(region, out, make) }
            }

            /// Attaches as the producer of an already-formatted region (waits
            /// for READY; `FFQ_ERR_PRODUCER_ATTACHED` while another live
            /// process holds that side).
            #[export_name = concat!("ffq_", stringify!($lane), "_attach_producer")]
            pub unsafe extern "C" fn attach_producer(
                region: *const FfqRegion,
                out: *mut *mut Producer,
            ) -> i32 {
                let make = ffq_shm::$variant::attach_producer::<$elem>;
                // SAFETY: as in the creator path.
                unsafe { attach_handle(region, out, make) }
            }

            /// Attaches a consumer to an already-formatted region (waits for
            /// READY; `FFQ_ERR_SLOTS_FULL` when no consumer slot is free).
            #[export_name = concat!("ffq_", stringify!($lane), "_attach_consumer")]
            pub unsafe extern "C" fn attach_consumer(
                region: *const FfqRegion,
                out: *mut *mut Consumer,
            ) -> i32 {
                let make = ffq_shm::$variant::attach_consumer::<$elem>;
                // SAFETY: as in the creator path.
                unsafe { attach_handle(region, out, make) }
            }

            /// Enqueues `value`, blocking while the queue is full.
            /// `FFQ_POISONED` if a peer died.
            #[export_name = concat!("ffq_", stringify!($lane), "_enqueue")]
            pub unsafe extern "C" fn enqueue(p: *mut Producer, value: $In) -> i32 {
                // SAFETY: per the header contract.
                unsafe { put(p, value, true) }
            }

            /// Enqueues `value` without blocking: `FFQ_FULL` when no cell is
            /// free, `FFQ_POISONED` if a peer died.
            #[export_name = concat!("ffq_", stringify!($lane), "_try_enqueue")]
            pub unsafe extern "C" fn try_enqueue(p: *mut Producer, value: $In) -> i32 {
                // SAFETY: per the header contract.
                unsafe { put(p, value, false) }
            }

            /// Dequeues into `out`, blocking while the queue is empty.
            /// `FFQ_DISCONNECTED` once the producer detached cleanly and the
            /// queue drained; `FFQ_POISONED` if a peer died.
            #[export_name = concat!("ffq_", stringify!($lane), "_dequeue")]
            pub unsafe extern "C" fn dequeue(c: *mut Consumer, out: *mut $Unit) -> i32 {
                // SAFETY: per the header contract.
                unsafe { take(c, out, Wait::Block) }
            }

            /// Dequeues into `out` without blocking: `FFQ_EMPTY` when
            /// nothing is ready.
            #[export_name = concat!("ffq_", stringify!($lane), "_try_dequeue")]
            pub unsafe extern "C" fn try_dequeue(c: *mut Consumer, out: *mut $Unit) -> i32 {
                // SAFETY: per the header contract.
                unsafe { take(c, out, Wait::Try) }
            }

            /// Dequeues into `out`, giving up with `FFQ_EMPTY` after
            /// `timeout_ms` milliseconds.
            #[export_name = concat!("ffq_", stringify!($lane), "_dequeue_timeout_ms")]
            pub unsafe extern "C" fn dequeue_timeout_ms(
                c: *mut Consumer,
                out: *mut $Unit,
                timeout_ms: u64,
            ) -> i32 {
                let how = Wait::Timeout(Duration::from_millis(timeout_ms));
                // SAFETY: per the header contract.
                unsafe { take(c, out, how) }
            }

            $crate::lifecycle_fns!(
                Producer,
                producer,
                concat!("ffq_", stringify!($lane)),
                concat!("ffq_", stringify!($lane), "_producer_capacity")
            );
            $crate::lifecycle_fns!(
                Consumer,
                consumer,
                concat!("ffq_", stringify!($lane)),
                concat!("ffq_", stringify!($lane), "_consumer_capacity")
            );
        }
        )+
    };
}

typed_lanes! {
    spsc_u64: spsc, u64, u64, u64, "uint64_t";
    spmc_u64: spmc, u64, u64, u64, "uint64_t";
    spsc_16b: spsc, [u8; 16], *const u8, u8, "16-byte blob";
    spmc_16b: spmc, [u8; 16], *const u8, u8, "16-byte blob";
    spsc_32b: spsc, [u8; 32], *const u8, u8, "32-byte blob";
    spmc_32b: spmc, [u8; 32], *const u8, u8, "32-byte blob";
    spsc_64b: spsc, [u8; 64], *const u8, u8, "64-byte blob";
    spmc_64b: spmc, [u8; 64], *const u8, u8, "64-byte blob";
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
            assert_eq!(spsc_u64::required_size(64, &mut size), FFQ_OK);
            assert!(size > 0);

            let mut region = ptr::null_mut();
            assert_eq!(ffq_region_create(name.as_ptr(), size, &mut region), FFQ_OK);

            let mut prod = ptr::null_mut();
            assert_eq!(spsc_u64::create(region, 64, &mut prod), FFQ_OK);
            assert_eq!(spsc_u64::producer::capacity(prod), 64);

            // A consumer in the same process, via a second mapping, as a
            // separate process would do it.
            let mut region2 = ptr::null_mut();
            assert_eq!(ffq_region_open(name.as_ptr(), &mut region2), FFQ_OK);
            let mut cons = ptr::null_mut();
            assert_eq!(spsc_u64::attach_consumer(region2, &mut cons), FFQ_OK);
            ffq_region_close(region);
            ffq_region_close(region2);

            for i in 0..1000u64 {
                assert_eq!(spsc_u64::enqueue(prod, i), FFQ_OK);
                let mut out = u64::MAX;
                assert_eq!(spsc_u64::dequeue(cons, &mut out), FFQ_OK);
                assert_eq!(out, i);
            }
            let mut out = 0u64;
            assert_eq!(spsc_u64::try_dequeue(cons, &mut out), FFQ_EMPTY);
            assert_eq!(spsc_u64::dequeue_timeout_ms(cons, &mut out, 1), FFQ_EMPTY);

            // Producer closing first → consumer sees clean disconnect.
            spsc_u64::producer::close(prod);
            assert_eq!(spsc_u64::dequeue(cons, &mut out), FFQ_DISCONNECTED);
            spsc_u64::consumer::close(cons);
            assert_eq!(ffq_region_unlink(name.as_ptr()), FFQ_OK);
        }
    }

    #[test]
    fn poisoned_consumer_drains_published_items_first() {
        let name = shm_name("t-spsc-poison-drain");
        // SAFETY: as above — valid pointers throughout.
        unsafe {
            let mut size = 0usize;
            assert_eq!(spsc_u64::required_size(8, &mut size), FFQ_OK);
            let mut region = ptr::null_mut();
            assert_eq!(ffq_region_create(name.as_ptr(), size, &mut region), FFQ_OK);
            let mut prod = ptr::null_mut();
            assert_eq!(spsc_u64::create(region, 8, &mut prod), FFQ_OK);
            let mut cons = ptr::null_mut();
            assert_eq!(spsc_u64::attach_consumer(region, &mut cons), FFQ_OK);
            ffq_region_close(region);

            assert_eq!(spsc_u64::enqueue(prod, 1), FFQ_OK);
            assert_eq!(spsc_u64::enqueue(prod, 2), FFQ_OK);
            assert_eq!(spsc_u64::consumer::poison(cons), FFQ_OK);
            // The published items still come out, in order; the poison
            // shows once the queue is empty.
            let mut out = 0u64;
            assert_eq!(spsc_u64::dequeue(cons, &mut out), FFQ_OK);
            assert_eq!(out, 1);
            assert_eq!(spsc_u64::dequeue(cons, &mut out), FFQ_OK);
            assert_eq!(out, 2);
            assert_eq!(spsc_u64::try_dequeue(cons, &mut out), FFQ_POISONED);

            spsc_u64::producer::close(prod);
            spsc_u64::consumer::close(cons);
            assert_eq!(ffq_region_unlink(name.as_ptr()), FFQ_OK);
        }
    }

    #[test]
    fn spmc_16b_round_trip_and_poison() {
        let name = shm_name("t-spmc-16b");
        // SAFETY: as above — valid pointers throughout.
        unsafe {
            let mut size = 0usize;
            assert_eq!(spmc_16b::required_size(32, &mut size), FFQ_OK);
            let mut region = ptr::null_mut();
            assert_eq!(ffq_region_create(name.as_ptr(), size, &mut region), FFQ_OK);
            let mut prod = ptr::null_mut();
            assert_eq!(spmc_16b::create(region, 32, &mut prod), FFQ_OK);
            let mut cons = ptr::null_mut();
            assert_eq!(spmc_16b::attach_consumer(region, &mut cons), FFQ_OK);
            ffq_region_close(region);

            let msg = *b"polyglot-payload";
            assert_eq!(spmc_16b::try_enqueue(prod, msg.as_ptr()), FFQ_OK);
            let mut out = [0u8; 16];
            assert_eq!(spmc_16b::dequeue(cons, out.as_mut_ptr()), FFQ_OK);
            assert_eq!(out, msg);

            assert_eq!(spmc_16b::producer::is_poisoned(prod), 0);
            assert_eq!(spmc_16b::consumer::poison(cons), FFQ_OK);
            assert_eq!(spmc_16b::producer::is_poisoned(prod), 1);
            assert_eq!(spmc_16b::enqueue(prod, msg.as_ptr()), FFQ_POISONED);
            let mut out2 = [0u8; 16];
            assert_eq!(spmc_16b::try_dequeue(cons, out2.as_mut_ptr()), FFQ_POISONED);

            spmc_16b::producer::close(prod);
            spmc_16b::consumer::close(cons);
            assert_eq!(ffq_region_unlink(name.as_ptr()), FFQ_OK);
        }
    }

    /// The last-error message of the calling thread.
    fn last_error() -> String {
        // SAFETY: the library's message pointer is never NULL and stays
        // valid until this thread's next call.
        unsafe { std::ffi::CStr::from_ptr(crate::ffq_last_error_message()) }
            .to_str()
            .unwrap()
            .to_owned()
    }

    #[test]
    fn null_handles_are_rejected() {
        // SAFETY: deliberately passing NULL — the contract promises
        // FFQ_ERR_NULL (or a 0/no-op) instead of UB.
        unsafe {
            assert_eq!(spsc_u64::enqueue(ptr::null_mut(), 7), FFQ_ERR_NULL);
            assert_eq!(last_error(), "producer handle is NULL");
            let mut out = 0u64;
            assert_eq!(spsc_u64::dequeue(ptr::null_mut(), &mut out), FFQ_ERR_NULL);
            assert_eq!(last_error(), "consumer handle is NULL");
            assert_eq!(
                crate::bytes::ffq_bytes_commit(ptr::null_mut()),
                FFQ_ERR_NULL
            );
            assert_eq!(last_error(), "producer handle is NULL");
            let (mut data, mut len) = (ptr::null(), 0usize);
            assert_eq!(
                crate::bytes::ffq_payload_ref(ptr::null_mut(), &mut data, &mut len),
                FFQ_ERR_NULL
            );
            assert_eq!(last_error(), "consumer handle is NULL");
            let mut cons = ptr::null_mut();
            assert_eq!(
                spmc_u64::attach_consumer(ptr::null(), &mut cons),
                FFQ_ERR_NULL
            );
            assert_eq!(spmc_u64::producer::capacity(ptr::null()), 0);
            assert_eq!(spmc_u64::consumer::is_poisoned(ptr::null()), FFQ_ERR_NULL);
            spsc_u64::producer::close(ptr::null_mut());
            spsc_u64::consumer::close(ptr::null_mut());
        }
    }
}
