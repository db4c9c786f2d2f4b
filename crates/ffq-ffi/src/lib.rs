//! # ffq-ffi — the C ABI over `ffq-shm`
//!
//! Everything `ffq-shm` can do across processes — SPSC and SPMC typed
//! queues, the zero-copy bytes lane, region create/attach/close, crash
//! detection — exported as a plain C ABI, so the shared-memory region
//! format stops being a Rust-only protocol. A C (or Python-ctypes, Go-cgo,
//! …) process links `libffq_ffi` and includes the checked-in
//! `include/ffq.h`; the Rust side of the queue neither knows nor cares.
//!
//! ## Shape of the ABI
//!
//! * Every status is an [`ffq_status_t`](crate::FFQ_OK) (`int32_t`):
//!   `FFQ_OK` is 0, retryable conditions are small positives
//!   (`FFQ_EMPTY`, `FFQ_FULL`, …), setup/programming errors are
//!   negatives. [`ffq_last_error_message`] returns a thread-local,
//!   human-readable reason for the most recent failure — including the
//!   expected-vs-found detail of version/config refusals.
//! * Every handle is an opaque pointer (`ffq_region_t`,
//!   `ffq_spsc_u64_producer_t`, …) created by exactly one `…_create` /
//!   `…_attach_…` call and destroyed by exactly one `…_close` call. It
//!   points straight at the `ffq-shm` handle it names. Handles are not
//!   thread-safe; share queues by attaching more handles, not by sharing
//!   one.
//! * Monomorphized element types are stamped per fixed payload size
//!   ([`typed`]): `ffq_spsc_u64_*`, `ffq_spmc_16b_*`, `…32b…`, `…64b…`.
//!   Each lane is one row of one table, and its functions live in a
//!   module of its own under their C names' suffixes:
//!   `ffq_spsc_u64_enqueue` is [`typed::spsc_u64::enqueue`],
//!   `ffq_spsc_u64_producer_close` is
//!   [`typed::spsc_u64::producer::close`]. The C names are the interface;
//!   these Rust paths are not.
//!   Variable-size payloads go through the zero-copy byte-slice lane
//!   ([`bytes`]): `ffq_bytes_*_reserve` / `commit` to write in place,
//!   `ffq_bytes_*_payload_ref` / `payload_release` to read borrowed.
//! * Each handle kind's lifecycle calls — `capacity`, `is_poisoned`,
//!   `poison`, `close` — are stamped by one macro for every typed and
//!   bytes handle, into a `producer` or `consumer` module beside the
//!   lane's other calls.
//! * Every entry point catches Rust panics and converts them to
//!   `FFQ_ERR_PANIC` — a bug in this crate cannot unwind into C frames
//!   (which would be UB).
//!
//! The header is *generated from this crate* ([`header_gen`], the
//! `ffq_header_gen` binary) from the same lane table that stamps the
//! typed functions, and committed; CI diffs the two, and checks that the
//! built library exports exactly the functions the header declares.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
// Every extern fn takes raw pointers from C; the safety contract is the
// header's documentation, repeated on each fn.
#![allow(clippy::missing_safety_doc)]

use std::cell::RefCell;
use std::ffi::{c_char, CStr, CString};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use ffq_shm::{ShmDequeueError, ShmError, ShmRegion, ShmTryDequeueError};

pub mod bytes;
pub mod header_gen;
pub mod typed;

// ---------------------------------------------------------------------------
// ffq_status_t
// ---------------------------------------------------------------------------

/// Success.
pub const FFQ_OK: i32 = 0;
/// No item ready (try/timeout paths); retry later.
pub const FFQ_EMPTY: i32 = 1;
/// Queue full (try paths); retry later.
pub const FFQ_FULL: i32 = 2;
/// The peer detached cleanly and the queue is drained; no more items ever.
pub const FFQ_DISCONNECTED: i32 = 3;
/// The queue is poisoned (a peer process died mid-operation); tear down.
pub const FFQ_POISONED: i32 = 4;
/// The payload can never fit this queue's slot geometry.
pub const FFQ_TOO_LARGE: i32 = 5;
/// The subscriber lagged and items were overwritten (broadcast lanes).
pub const FFQ_LAGGED: i32 = 6;

/// An OS call failed (see `ffq_last_error_message`).
pub const FFQ_ERR_OS: i32 = -1;
/// Invalid shared-memory object name.
pub const FFQ_ERR_INVALID_NAME: i32 = -2;
/// Requested capacity/slot size is invalid or overflows.
pub const FFQ_ERR_CAPACITY: i32 = -3;
/// The region is smaller than the queue layout requires.
pub const FFQ_ERR_REGION_TOO_SMALL: i32 = -4;
/// The region was already formatted by another process.
pub const FFQ_ERR_ALREADY_FORMATTED: i32 = -5;
/// The region never became ready (creator slow, dead, or not a queue).
pub const FFQ_ERR_NOT_READY: i32 = -6;
/// Not an ffq-shm region (bad magic).
pub const FFQ_ERR_BAD_MAGIC: i32 = -7;
/// Region formatted by an incompatible ffq-shm version.
pub const FFQ_ERR_BAD_VERSION: i32 = -8;
/// Region header is self-inconsistent (corrupt).
pub const FFQ_ERR_BAD_CONFIG: i32 = -9;
/// Region holds a different queue than this call asked for.
pub const FFQ_ERR_CONFIG_MISMATCH: i32 = -10;
/// Another live process already holds the producer side.
pub const FFQ_ERR_PRODUCER_ATTACHED: i32 = -11;
/// All consumer attach slots are taken.
pub const FFQ_ERR_SLOTS_FULL: i32 = -12;
/// A required pointer argument was NULL.
pub const FFQ_ERR_NULL: i32 = -13;
/// Handle-state misuse (e.g. commit with no outstanding reservation).
pub const FFQ_ERR_STATE: i32 = -14;
/// A Rust panic was caught at the FFI boundary (a bug in ffq-ffi).
pub const FFQ_ERR_PANIC: i32 = -15;

thread_local! {
    static LAST_ERROR: RefCell<CString> = RefCell::new(CString::default());
}

/// Records `msg` as this thread's last-error string.
pub(crate) fn set_last_error(msg: &str) {
    let c = CString::new(msg.replace('\0', "?")).unwrap_or_default();
    LAST_ERROR.with(|slot| *slot.borrow_mut() = c);
}

/// Maps an [`ShmError`] to its stable status code, recording the display
/// string (which carries expected-vs-found detail for the negotiation
/// errors) as the thread's last error.
pub(crate) fn status_of(e: &ShmError) -> i32 {
    set_last_error(&e.to_string());
    match e {
        ShmError::Os { .. } => FFQ_ERR_OS,
        ShmError::InvalidName => FFQ_ERR_INVALID_NAME,
        ShmError::Capacity(_) => FFQ_ERR_CAPACITY,
        ShmError::RegionTooSmall { .. } => FFQ_ERR_REGION_TOO_SMALL,
        ShmError::AlreadyFormatted => FFQ_ERR_ALREADY_FORMATTED,
        ShmError::NotReady => FFQ_ERR_NOT_READY,
        ShmError::BadMagic { .. } => FFQ_ERR_BAD_MAGIC,
        ShmError::BadVersion { .. } => FFQ_ERR_BAD_VERSION,
        ShmError::BadConfig { .. } => FFQ_ERR_BAD_CONFIG,
        ShmError::ConfigMismatch { .. } => FFQ_ERR_CONFIG_MISMATCH,
        ShmError::ProducerAttached => FFQ_ERR_PRODUCER_ATTACHED,
        ShmError::SlotsFull => FFQ_ERR_SLOTS_FULL,
        ShmError::Poisoned => FFQ_POISONED,
    }
}

/// Runs `f`, converting a panic into [`FFQ_ERR_PANIC`] instead of letting
/// it unwind into the C caller's frames (which would be undefined
/// behavior). Every extern fn body goes through here.
///
/// `AssertUnwindSafe` is sound under the ABI contract: after
/// `FFQ_ERR_PANIC` the only calls the header permits on the involved
/// handles are the `…_close` ones, so broken-invariant state is never
/// observed.
pub(crate) fn guard<F: FnOnce() -> i32>(f: F) -> i32 {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(status) => status,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("unknown panic");
            set_last_error(&format!("panic at FFI boundary: {msg}"));
            FFQ_ERR_PANIC
        }
    }
}

/// Null-checks an output pointer.
macro_rules! out_ptr {
    ($p:expr) => {
        if $p.is_null() {
            $crate::set_last_error(concat!(stringify!($p), " is NULL"));
            return $crate::FFQ_ERR_NULL;
        }
    };
}
pub(crate) use out_ptr;

/// Null-checks a handle pointer and reborrows it mutably. `$side`
/// (`producer` or `consumer`) names the handle in the NULL message, as the
/// lifecycle calls do.
macro_rules! handle {
    ($p:expr, $side:ident) => {
        // SAFETY: per the header contract the pointer is either NULL
        // (rejected here) or a live handle created by this library and not
        // yet closed, used from one thread at a time.
        match unsafe { $p.as_mut() } {
            Some(h) => h,
            None => {
                $crate::set_last_error(concat!(stringify!($side), " handle is NULL"));
                return $crate::FFQ_ERR_NULL;
            }
        }
    };
}
pub(crate) use handle;

/// Stamps the lifecycle calls of one handle kind into a module named
/// after its side: `capacity` (0 for NULL), exported as `$capacity`, and
/// `is_poisoned` (1 / 0 / `FFQ_ERR_NULL`), `poison` and `close` (NULL is
/// a no-op), exported as `<$prefix>_<side>_is_poisoned`, `…_poison` and
/// `…_close`. The capacity name is its own argument because the bytes
/// producer's is `ffq_bytes_capacity`. `$H` names the handle type as
/// seen from the invoking module and answers `capacity`, `is_poisoned`
/// and `poison`.
macro_rules! lifecycle_fns {
    ($H:ty, $side:ident, $prefix:expr, $capacity:expr) => {
        #[doc = concat!("The lifecycle calls of the ", stringify!($side), " handle.")]
        pub mod $side {
            use super::*;

            /// Capacity of the queue's cell array (0 for NULL).
            #[export_name = $capacity]
            pub unsafe extern "C" fn capacity(h: *const $H) -> usize {
                // SAFETY: NULL or a live handle, per the header contract.
                unsafe { h.as_ref() }.map_or(0, |h| h.capacity())
            }

            /// 1 if the queue is poisoned, 0 if not, `FFQ_ERR_NULL` for NULL.
            #[export_name = concat!($prefix, "_", stringify!($side), "_is_poisoned")]
            pub unsafe extern "C" fn is_poisoned(h: *const $H) -> i32 {
                // SAFETY: NULL or a live handle, per the header contract.
                unsafe { h.as_ref() }.map_or($crate::FFQ_ERR_NULL, |h| h.is_poisoned() as i32)
            }

            /// Poisons the queue for every attached handle in every process.
            #[export_name = concat!($prefix, "_", stringify!($side), "_poison")]
            pub unsafe extern "C" fn poison(h: *const $H) -> i32 {
                $crate::guard(|| {
                    // SAFETY: NULL or a live handle, per the header contract.
                    let Some(h) = (unsafe { h.as_ref() }) else {
                        $crate::set_last_error(concat!(stringify!($side), " handle is NULL"));
                        return $crate::FFQ_ERR_NULL;
                    };
                    h.poison();
                    $crate::FFQ_OK
                })
            }

            /// Detaches and destroys the handle (a bytes handle's uncommitted
            /// reservation aborts, its borrowed payload releases). NULL is a
            /// no-op.
            #[export_name = concat!($prefix, "_", stringify!($side), "_close")]
            pub unsafe extern "C" fn close(h: *mut $H) {
                // SAFETY: NULL or a live handle not yet closed, per the
                // header contract.
                unsafe { $crate::close(h) }
            }
        }
    };
}
pub(crate) use lifecycle_fns;

/// How a call that may wait for its queue waits.
pub(crate) enum Wait {
    Block,
    Try,
    Timeout(Duration),
}

/// Records the poisoned-queue reason and returns [`FFQ_POISONED`].
pub(crate) fn poisoned() -> i32 {
    set_last_error("shared-memory queue poisoned");
    FFQ_POISONED
}

/// Status of a failed blocking dequeue, on every lane.
pub(crate) fn dequeue_status(e: ShmDequeueError) -> i32 {
    set_last_error(&e.to_string());
    match e {
        ShmDequeueError::Disconnected => FFQ_DISCONNECTED,
        ShmDequeueError::Poisoned => FFQ_POISONED,
    }
}

/// Status of a failed non-blocking or timed dequeue, on every lane.
pub(crate) fn try_dequeue_status(e: ShmTryDequeueError) -> i32 {
    match e {
        // Empty is the common retry path — skip the last-error write.
        ShmTryDequeueError::Empty => FFQ_EMPTY,
        ShmTryDequeueError::Disconnected => {
            set_last_error(&e.to_string());
            FFQ_DISCONNECTED
        }
        ShmTryDequeueError::Poisoned => {
            set_last_error(&e.to_string());
            FFQ_POISONED
        }
    }
}

/// Stores `made`'s value in `*out`, or maps its error to its status.
///
/// # Safety
/// `out` must be non-NULL and writable.
pub(crate) unsafe fn store<V>(out: *mut V, made: Result<V, ShmError>) -> i32 {
    match made {
        Ok(v) => {
            // SAFETY: writable per the caller's contract.
            unsafe { out.write(v) };
            FFQ_OK
        }
        Err(e) => status_of(&e),
    }
}

/// Boxes a newly built handle into `*out`, or maps the error to its
/// status.
///
/// # Safety
/// `out` must be non-NULL and writable.
unsafe fn new_handle<H>(out: *mut *mut H, made: Result<H, ShmError>) -> i32 {
    // SAFETY: per the caller's contract.
    unsafe { store(out, made.map(|h| Box::into_raw(Box::new(h)))) }
}

/// The body of every `…_required_size` call: NULL-checks `out` and stores
/// the region size `size` computes, or maps its error.
///
/// # Safety
/// `out` is NULL or writable.
pub(crate) unsafe fn required_size(
    out: *mut usize,
    size: impl FnOnce() -> Result<usize, ShmError>,
) -> i32 {
    guard(|| {
        out_ptr!(out);
        // SAFETY: out was null-checked.
        unsafe { store(out, size()) }
    })
}

/// The body of every constructor that attaches a queue handle to a
/// region: NULL-checks `out` and `region`, builds the handle with `make`
/// from the region's mapping, and boxes it into `*out`. Each queue handle
/// keeps the mapping alive independently of the caller's region handle.
///
/// # Safety
/// `region` is NULL or a live region handle; `out` is NULL or writable.
pub(crate) unsafe fn attach_handle<H>(
    region: *const FfqRegion,
    out: *mut *mut H,
    make: impl FnOnce(ShmRegion) -> Result<H, ShmError>,
) -> i32 {
    guard(|| {
        out_ptr!(out);
        // SAFETY: NULL or a live region handle, per the caller's contract.
        let Some(region) = (unsafe { region.as_ref() }) else {
            set_last_error("region handle is NULL");
            return FFQ_ERR_NULL;
        };
        // SAFETY: out was null-checked.
        unsafe { new_handle(out, make(region.clone())) }
    })
}

/// The body of every `…_close`: destroys the handle. NULL is a no-op.
///
/// # Safety
/// `h` is NULL or a live handle created by this library, not yet closed.
pub(crate) unsafe fn close<H>(h: *mut H) {
    if h.is_null() {
        return;
    }
    // The unwind guard matters even here: Drop runs arbitrary library code.
    let _ = guard(move || {
        // SAFETY: non-NULL, and live and not yet closed per the contract.
        drop(unsafe { Box::from_raw(h) });
        FFQ_OK
    });
}

/// Reads a required C string argument.
pub(crate) unsafe fn read_name(name: *const c_char) -> Result<String, i32> {
    if name.is_null() {
        set_last_error("name is NULL");
        return Err(FFQ_ERR_NULL);
    }
    // SAFETY: caller passed a NUL-terminated string per the header contract.
    match unsafe { CStr::from_ptr(name) }.to_str() {
        Ok(s) => Ok(s.to_owned()),
        Err(_) => {
            set_last_error("name is not valid UTF-8");
            Err(FFQ_ERR_INVALID_NAME)
        }
    }
}

/// The thread-local, human-readable reason for this thread's most recent
/// failing ffq call. Valid until the next ffq call on the same thread;
/// never NULL (empty string when nothing failed yet).
#[no_mangle]
pub extern "C" fn ffq_last_error_message() -> *const c_char {
    LAST_ERROR.with(|slot| slot.borrow().as_ptr())
}

// ---------------------------------------------------------------------------
// Regions
// ---------------------------------------------------------------------------

/// Opaque handle to one mapped shared-memory region (`ffq_region_t`): the
/// `ffq-shm` region itself.
pub type FfqRegion = ShmRegion;

/// The body of [`ffq_region_create`] and [`ffq_region_open`]: NULL-checks
/// `out`, reads `name` and maps the region `make` opens by it.
///
/// # Safety
/// `name` is NULL or a NUL-terminated string; `out` is NULL or writable.
unsafe fn region_handle(
    name: *const c_char,
    out: *mut *mut FfqRegion,
    make: impl FnOnce(&str) -> Result<ShmRegion, ShmError>,
) -> i32 {
    guard(|| {
        out_ptr!(out);
        // SAFETY: per header contract, `name` is a NUL-terminated string.
        let name = match unsafe { read_name(name) } {
            Ok(n) => n,
            Err(s) => return s,
        };
        // SAFETY: out was null-checked.
        unsafe { new_handle(out, make(&name)) }
    })
}

/// Creates a named POSIX shared-memory object of `len` bytes and maps it
/// (owner path; fails if the name exists). On success stores the new
/// handle in `*out`.
#[no_mangle]
pub unsafe extern "C" fn ffq_region_create(
    name: *const c_char,
    len: usize,
    out: *mut *mut FfqRegion,
) -> i32 {
    // SAFETY: per the header contract.
    unsafe { region_handle(name, out, |name| ShmRegion::create(name, len)) }
}

/// Opens an existing named region and maps its full size. Returns
/// `FFQ_ERR_OS` (errno `ENOENT`) while the creator has not created it yet
/// — attach loops retry on that.
#[no_mangle]
pub unsafe extern "C" fn ffq_region_open(name: *const c_char, out: *mut *mut FfqRegion) -> i32 {
    // SAFETY: per the header contract.
    unsafe { region_handle(name, out, ShmRegion::open) }
}

/// Removes a named region. Existing mappings stay valid; the name frees.
#[no_mangle]
pub unsafe extern "C" fn ffq_region_unlink(name: *const c_char) -> i32 {
    guard(|| {
        // SAFETY: per header contract, `name` is a NUL-terminated string.
        let name = match unsafe { read_name(name) } {
            Ok(n) => n,
            Err(s) => return s,
        };
        match ShmRegion::unlink(&name) {
            Ok(()) => FFQ_OK,
            Err(e) => status_of(&e),
        }
    })
}

/// Mapped length of the region in bytes (0 for NULL).
#[no_mangle]
pub unsafe extern "C" fn ffq_region_len(region: *const FfqRegion) -> usize {
    // SAFETY: NULL or a live handle created by this library, per header
    // contract.
    unsafe { region.as_ref() }.map_or(0, ShmRegion::len)
}

/// Unmaps the region and destroys the handle. Queue handles attached from
/// this region hold their own mapping reference and stay valid. NULL is a
/// no-op.
#[no_mangle]
pub unsafe extern "C" fn ffq_region_close(region: *mut FfqRegion) {
    // SAFETY: NULL or a live handle not yet closed, per header contract.
    unsafe { close(region) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ffi::CString;

    #[test]
    fn last_error_is_never_null_and_updates() {
        assert!(!ffq_last_error_message().is_null());
        let mut out: *mut FfqRegion = std::ptr::null_mut();
        // SAFETY: valid C string + out pointer.
        let status = unsafe {
            ffq_region_open(
                CString::new("ffq-ffi-definitely-missing").unwrap().as_ptr(),
                &mut out,
            )
        };
        assert_eq!(status, FFQ_ERR_OS);
        // SAFETY: pointer from ffq_last_error_message is NUL-terminated.
        let msg = unsafe { CStr::from_ptr(ffq_last_error_message()) }
            .to_str()
            .unwrap();
        assert!(msg.contains("shm_open"), "got {msg:?}");
    }

    #[test]
    fn null_arguments_are_rejected_not_ub() {
        // SAFETY: deliberately passing NULLs — the contract says that
        // returns FFQ_ERR_NULL rather than crashing.
        unsafe {
            assert_eq!(
                ffq_region_create(std::ptr::null(), 4096, std::ptr::null_mut()),
                FFQ_ERR_NULL
            );
            let mut out: *mut FfqRegion = std::ptr::null_mut();
            assert_eq!(
                ffq_region_create(std::ptr::null(), 4096, &mut out),
                FFQ_ERR_NULL
            );
            assert_eq!(ffq_region_open(std::ptr::null(), &mut out), FFQ_ERR_NULL);
            assert_eq!(ffq_region_unlink(std::ptr::null()), FFQ_ERR_NULL);
            assert_eq!(ffq_region_len(std::ptr::null()), 0);
            ffq_region_close(std::ptr::null_mut()); // no-op, no crash
        }
    }

    /// `capacity`, `is_poisoned`, `poison` and `close` of one side's
    /// lifecycle module, each passed NULL.
    macro_rules! null_lifecycle {
        ($($m:ident)::+ => $side:ident) => {
            // SAFETY: deliberately passing NULL — the contract promises 0,
            // FFQ_ERR_NULL or a no-op instead of UB.
            unsafe {
                assert_eq!($($m::)+$side::capacity(std::ptr::null()), 0);
                assert_eq!($($m::)+$side::is_poisoned(std::ptr::null()), FFQ_ERR_NULL);
                assert_eq!($($m::)+$side::poison(std::ptr::null()), FFQ_ERR_NULL);
                let msg = CStr::from_ptr(ffq_last_error_message()).to_str().unwrap();
                assert_eq!(msg, concat!(stringify!($side), " handle is NULL"));
                $($m::)+$side::close(std::ptr::null_mut());
            }
        };
    }

    #[test]
    fn null_handles_through_the_shared_lifecycle() {
        null_lifecycle!(crate::bytes => producer);
        null_lifecycle!(crate::bytes => consumer);
        null_lifecycle!(crate::typed::spmc_64b => producer);
        null_lifecycle!(crate::typed::spmc_64b => consumer);
    }

    #[test]
    fn region_create_open_close_cycle() {
        let name = CString::new(format!("ffq-ffi-region-{}", std::process::id())).unwrap();
        let mut created: *mut FfqRegion = std::ptr::null_mut();
        let mut opened: *mut FfqRegion = std::ptr::null_mut();
        // SAFETY: valid strings and out pointers; handles closed below.
        unsafe {
            assert_eq!(ffq_region_create(name.as_ptr(), 8192, &mut created), FFQ_OK);
            assert_eq!(ffq_region_len(created), 8192);
            assert_eq!(ffq_region_open(name.as_ptr(), &mut opened), FFQ_OK);
            assert_eq!(ffq_region_len(opened), 8192);
            ffq_region_close(created);
            ffq_region_close(opened);
            assert_eq!(ffq_region_unlink(name.as_ptr()), FFQ_OK);
        }
    }
}
