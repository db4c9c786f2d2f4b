//! Model `sync` namespace: atomics, fence, and `Arc`.
//!
//! The atomic types are `const`-constructible (unlike real loom's): each
//! instance carries its initial value plus a lazily assigned global id, and
//! the per-execution store history is seeded from the initial value the
//! first time the location is touched. This lets `cfg(loom)` builds keep
//! the exact `const fn new` constructors of the production types. The
//! trade-off is that `static` model atomics carry state *reset* (not
//! carried over) between executions — model closures should create their
//! atomics fresh per execution, which all the FFQ models do.

use std::sync::atomic::{AtomicUsize as StdAtomicUsize, Ordering as StdOrdering};

use crate::rt;

/// `Arc` needs no modeling (its refcounts only control deallocation);
/// re-export std's.
pub use std::sync::Arc;

pub mod atomic {
    //! Model atomic integers with the `core::sync::atomic` API subset the
    //! FFQ crates use. `Ordering` is re-exported from core so call sites
    //! keep their `use core::sync::atomic::Ordering` imports.

    use super::*;

    pub use std::sync::atomic::Ordering;

    static NEXT_GID: StdAtomicUsize = StdAtomicUsize::new(1);

    fn assign_gid(id: &StdAtomicUsize) -> usize {
        let cur = id.load(StdOrdering::Relaxed);
        if cur != 0 {
            return cur;
        }
        let fresh = NEXT_GID.fetch_add(1, StdOrdering::Relaxed);
        match id.compare_exchange(0, fresh, StdOrdering::Relaxed, StdOrdering::Relaxed) {
            Ok(_) => fresh,
            Err(existing) => existing,
        }
    }

    macro_rules! model_atomic_int {
        ($name:ident, $t:ty) => {
            /// Model atomic integer; see module docs.
            pub struct $name {
                init: $t,
                id: StdAtomicUsize,
            }

            impl $name {
                /// Create a new model atomic (const, like core's).
                pub const fn new(v: $t) -> Self {
                    Self {
                        init: v,
                        id: StdAtomicUsize::new(0),
                    }
                }

                pub(crate) fn key(&self) -> (usize, u128) {
                    (assign_gid(&self.id), self.init as u128)
                }

                /// Model load.
                pub fn load(&self, ord: Ordering) -> $t {
                    let (gid, init) = self.key();
                    rt::atomic_load(gid, init, ord) as $t
                }

                /// Model store.
                pub fn store(&self, v: $t, ord: Ordering) {
                    let (gid, init) = self.key();
                    rt::atomic_store(gid, init, v as u128, ord)
                }

                /// Model swap.
                pub fn swap(&self, v: $t, ord: Ordering) -> $t {
                    let (gid, init) = self.key();
                    rt::atomic_rmw(gid, init, ord, |_| v as u128) as $t
                }

                /// Model fetch_add (wrapping).
                pub fn fetch_add(&self, v: $t, ord: Ordering) -> $t {
                    let (gid, init) = self.key();
                    rt::atomic_rmw(gid, init, ord, |old| (old as $t).wrapping_add(v) as u128) as $t
                }

                /// Model fetch_sub (wrapping).
                pub fn fetch_sub(&self, v: $t, ord: Ordering) -> $t {
                    let (gid, init) = self.key();
                    rt::atomic_rmw(gid, init, ord, |old| (old as $t).wrapping_sub(v) as u128) as $t
                }

                /// Model fetch_or.
                pub fn fetch_or(&self, v: $t, ord: Ordering) -> $t {
                    let (gid, init) = self.key();
                    rt::atomic_rmw(gid, init, ord, |old| ((old as $t) | v) as u128) as $t
                }

                /// Model fetch_and.
                pub fn fetch_and(&self, v: $t, ord: Ordering) -> $t {
                    let (gid, init) = self.key();
                    rt::atomic_rmw(gid, init, ord, |old| ((old as $t) & v) as u128) as $t
                }

                /// Model compare_exchange. Failures read the newest store
                /// (no stale-read failures; callers retry regardless).
                pub fn compare_exchange(
                    &self,
                    current: $t,
                    new: $t,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$t, $t> {
                    let (gid, init) = self.key();
                    rt::atomic_cas(gid, init, current as u128, new as u128, success, failure)
                        .map(|v| v as $t)
                        .map_err(|v| v as $t)
                }

                /// Model compare_exchange_weak — no spurious failures are
                /// generated (they only add retry iterations, which the
                /// calling loops already exercise).
                pub fn compare_exchange_weak(
                    &self,
                    current: $t,
                    new: $t,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$t, $t> {
                    self.compare_exchange(current, new, success, failure)
                }
            }

            impl Default for $name {
                fn default() -> Self {
                    Self::new(0 as $t)
                }
            }

            impl std::fmt::Debug for $name {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                    f.debug_struct(stringify!($name)).finish_non_exhaustive()
                }
            }
        };
    }

    model_atomic_int!(AtomicU32, u32);
    model_atomic_int!(AtomicU64, u64);
    model_atomic_int!(AtomicUsize, usize);
    model_atomic_int!(AtomicI64, i64);
    model_atomic_int!(AtomicI32, i32);
    model_atomic_int!(AtomicU8, u8);

    /// Model atomic bool.
    pub struct AtomicBool {
        init: bool,
        id: StdAtomicUsize,
    }

    impl AtomicBool {
        /// Create a new model atomic bool (const).
        pub const fn new(v: bool) -> Self {
            Self {
                init: v,
                id: StdAtomicUsize::new(0),
            }
        }

        pub(crate) fn key(&self) -> (usize, u128) {
            (assign_gid(&self.id), self.init as u128)
        }

        /// Model load.
        pub fn load(&self, ord: Ordering) -> bool {
            let (gid, init) = self.key();
            rt::atomic_load(gid, init, ord) != 0
        }

        /// Model store.
        pub fn store(&self, v: bool, ord: Ordering) {
            let (gid, init) = self.key();
            rt::atomic_store(gid, init, v as u128, ord)
        }

        /// Model swap.
        pub fn swap(&self, v: bool, ord: Ordering) -> bool {
            let (gid, init) = self.key();
            rt::atomic_rmw(gid, init, ord, |_| v as u128) != 0
        }
    }

    impl Default for AtomicBool {
        fn default() -> Self {
            Self::new(false)
        }
    }

    /// Model 128-bit atomic used by the `cfg(loom)` `DoubleWord`: the
    /// `(rank, gap)` pair is one model location, so pair-CAS atomicity and
    /// per-half coherence both fall out of the single store history.
    pub struct AtomicU128 {
        init: u128,
        id: StdAtomicUsize,
    }

    impl AtomicU128 {
        /// Create a new model 128-bit atomic (const).
        pub const fn new(v: u128) -> Self {
            Self {
                init: v,
                id: StdAtomicUsize::new(0),
            }
        }

        pub(crate) fn key(&self) -> (usize, u128) {
            (assign_gid(&self.id), self.init)
        }

        /// Model load.
        pub fn load(&self, ord: Ordering) -> u128 {
            let (gid, init) = self.key();
            rt::atomic_load(gid, init, ord)
        }

        /// Model store.
        pub fn store(&self, v: u128, ord: Ordering) {
            let (gid, init) = self.key();
            rt::atomic_store(gid, init, v, ord)
        }

        /// Model compare_exchange.
        pub fn compare_exchange(
            &self,
            current: u128,
            new: u128,
            success: Ordering,
            failure: Ordering,
        ) -> Result<u128, u128> {
            let (gid, init) = self.key();
            rt::atomic_cas(gid, init, current, new, success, failure)
        }

        /// Atomic read-modify-write with an arbitrary pure update — used to
        /// model single-half stores of the pair without touching the other
        /// half. Returns the previous value.
        pub fn rmw_update(&self, ord: Ordering, f: impl FnOnce(u128) -> u128) -> u128 {
            let (gid, init) = self.key();
            rt::atomic_rmw(gid, init, ord, f)
        }
    }

    /// Model atomic pointer: an integer location holding the address.
    ///
    /// Good enough for the FFQ models because every pointer that crosses
    /// threads in the modeled code targets a heap allocation kept alive by
    /// the model closure (segments are only freed after the epoch check
    /// the model itself exercises), so round-tripping the address through
    /// the store history loses nothing the model checks.
    pub struct AtomicPtr<T> {
        init: *mut T,
        id: StdAtomicUsize,
    }

    // SAFETY: like `core::sync::atomic::AtomicPtr`, all access to the
    // pointer value goes through the (model-)atomic operations; the type
    // never dereferences it.
    unsafe impl<T> Send for AtomicPtr<T> {}
    unsafe impl<T> Sync for AtomicPtr<T> {}

    impl<T> AtomicPtr<T> {
        /// Create a new model atomic pointer (const, like core's).
        pub const fn new(v: *mut T) -> Self {
            Self {
                init: v,
                id: StdAtomicUsize::new(0),
            }
        }

        fn key(&self) -> (usize, u128) {
            (assign_gid(&self.id), self.init as usize as u128)
        }

        /// Model load.
        pub fn load(&self, ord: Ordering) -> *mut T {
            let (gid, init) = self.key();
            rt::atomic_load(gid, init, ord) as usize as *mut T
        }

        /// Model store.
        pub fn store(&self, v: *mut T, ord: Ordering) {
            let (gid, init) = self.key();
            rt::atomic_store(gid, init, v as usize as u128, ord)
        }

        /// Model swap.
        pub fn swap(&self, v: *mut T, ord: Ordering) -> *mut T {
            let (gid, init) = self.key();
            rt::atomic_rmw(gid, init, ord, |_| v as usize as u128) as usize as *mut T
        }

        /// Model compare_exchange.
        pub fn compare_exchange(
            &self,
            current: *mut T,
            new: *mut T,
            success: Ordering,
            failure: Ordering,
        ) -> Result<*mut T, *mut T> {
            let (gid, init) = self.key();
            rt::atomic_cas(
                gid,
                init,
                current as usize as u128,
                new as usize as u128,
                success,
                failure,
            )
            .map(|v| v as usize as *mut T)
            .map_err(|v| v as usize as *mut T)
        }

        /// Model compare_exchange_weak (no spurious failures; see the
        /// integer models).
        pub fn compare_exchange_weak(
            &self,
            current: *mut T,
            new: *mut T,
            success: Ordering,
            failure: Ordering,
        ) -> Result<*mut T, *mut T> {
            self.compare_exchange(current, new, success, failure)
        }
    }

    impl<T> Default for AtomicPtr<T> {
        fn default() -> Self {
            Self::new(core::ptr::null_mut())
        }
    }

    impl<T> std::fmt::Debug for AtomicPtr<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("AtomicPtr").finish_non_exhaustive()
        }
    }

    /// Model memory fence.
    pub fn fence(ord: Ordering) {
        rt::fence(ord)
    }

    /// Model compiler fence: no memory effect and no schedule point. A
    /// model thread runs its operations in program order, so there is no
    /// reordering for it to forbid; what a compiler fence buys the real
    /// code — a `membarrier` landing between the two accesses it
    /// separates — is modeled by [`super::heavy_barrier`].
    pub fn compiler_fence(ord: Ordering) {
        if ord == Ordering::Relaxed {
            panic!("there is no such thing as a relaxed compiler fence");
        }
    }
}

/// Model `membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED)`: every other live
/// model thread performs a `SeqCst` fence at the point where it stands
/// (a finished one has passed its last), then the caller joins the SC
/// order again. Pair it with a `SeqCst` fence of the caller's own before
/// it, as the real asymmetric protocol does.
pub fn heavy_barrier() {
    rt::heavy_barrier()
}
