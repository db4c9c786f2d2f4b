//! `membarrier(2)`: the waiter half of the asymmetric fence pair.
//!
//! `MEMBARRIER_CMD_PRIVATE_EXPEDITED` makes every running thread of the
//! calling process execute a full memory barrier (the kernel sends each
//! CPU running one of them an IPI) before the syscall returns; a thread
//! that is not running passed one when it was switched out. The kernel
//! also fences the caller on entry and exit. A thread that keeps its two
//! accesses apart with only a compiler fence therefore gets a full fence
//! between them whenever a `membarrier` lands there, which is what lets
//! [`crate::WaitCell::notify`] drop its `SeqCst` fence on in-process
//! cells (see the `eventcount` module docs).
//!
//! The command works only after the process registered with
//! `MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED`; before that it fails with
//! `EPERM`. Registration is per process (per `mm`), permanent, survives
//! `fork` (the child inherits its parent's state, checked on Linux 6.18),
//! and is reset by `execve`, which also resets this module's statics. It
//! costs one syscall (a few µs), plus an RCU grace period (6–18 ms on a
//! 2-vCPU Xeon VM) when the process already has other threads, so it is
//! attempted once and its outcome cached.
//!
//! Backends: the syscall on 64-bit Linux; the `ffq-loom` model under
//! `cfg(loom)` (always registered, the barrier is the model's
//! `heavy_barrier`); everywhere else, Miri included, registration is
//! refused and every cell keeps the symmetric fence pair.

use core::sync::atomic::{AtomicU8, Ordering};

/// A process's registration, settled once: `UNTRIED` until the first
/// attempt, then `REGISTERED` or `REFUSED` for good.
pub(crate) struct Registration(AtomicU8);

impl Registration {
    const UNTRIED: u8 = 0;
    const REGISTERED: u8 = 1;
    const REFUSED: u8 = 2;

    pub(crate) const fn new() -> Self {
        Self(AtomicU8::new(Self::UNTRIED))
    }

    /// The notifier's view: registered as far as anyone has settled it.
    /// Never attempts registration, so `UNTRIED` reads as not registered.
    ///
    /// Relaxed: the value is only a choice of fence. `REGISTERED` is
    /// stored after the kernel accepted the registration, and every waiter
    /// works its own answer out through [`settle`](Self::settle), which
    /// can only return that same settled value — the notifier's load
    /// orders nothing for anyone.
    #[inline(always)]
    pub(crate) fn is_registered(&self) -> bool {
        self.0.load(Ordering::Relaxed) == Self::REGISTERED
    }

    /// The waiter's view: settles the registration with `attempt` (the
    /// syscall, reporting success) if nobody has yet, and returns whether
    /// the process is registered. The first settled outcome wins, so two
    /// racing attempts agree, and a refusal is final even if a later
    /// attempt would have succeeded: notifiers that already read
    /// "refused" took the full fence, and so will every later one.
    pub(crate) fn settle(&self, attempt: impl FnOnce() -> bool) -> bool {
        let now = self.0.load(Ordering::Relaxed);
        if now != Self::UNTRIED {
            return now == Self::REGISTERED;
        }
        let got = if attempt() {
            Self::REGISTERED
        } else {
            Self::REFUSED
        };
        match self
            .0
            .compare_exchange(Self::UNTRIED, got, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => got == Self::REGISTERED,
            Err(settled) => settled == Self::REGISTERED,
        }
    }
}

/// This process's registration.
static PROCESS: Registration = Registration::new();

/// Settles this process's registration (attempting it on the first call)
/// and returns whether it is in effect.
pub(crate) fn register() -> bool {
    PROCESS.settle(sys::register)
}

/// Whether this process is registered, without attempting it.
#[inline(always)]
pub(crate) fn registered() -> bool {
    sys::ALWAYS_REGISTERED || PROCESS.is_registered()
}

/// Runs the expedited barrier. Only valid once [`register`] returned
/// `true`.
pub(crate) fn barrier() {
    sys::barrier();
}

#[cfg(all(
    not(loom),
    not(miri),
    target_os = "linux",
    any(
        target_arch = "x86_64",
        target_arch = "aarch64",
        target_arch = "riscv64"
    )
))]
mod sys {
    use crate::sys::syscall;

    #[cfg(target_arch = "x86_64")]
    const SYS_MEMBARRIER: i64 = 324;
    #[cfg(any(target_arch = "aarch64", target_arch = "riscv64"))]
    const SYS_MEMBARRIER: i64 = 283;
    const CMD_PRIVATE_EXPEDITED: i64 = 1 << 3;
    const CMD_REGISTER_PRIVATE_EXPEDITED: i64 = 1 << 4;

    pub(super) const ALWAYS_REGISTERED: bool = false;

    fn membarrier(cmd: i64) -> i64 {
        // SAFETY: membarrier takes two integer arguments (cmd, flags) and a
        // cpu id that is ignored without MEMBARRIER_CMD_FLAG_CPU; it
        // touches no user memory.
        unsafe { syscall(SYS_MEMBARRIER, cmd, 0i64, 0i64) }
    }

    /// `false` on any error: `ENOSYS` (kernel without membarrier),
    /// `EINVAL` (command not supported), `EPERM` (seccomp).
    pub(super) fn register() -> bool {
        membarrier(CMD_REGISTER_PRIVATE_EXPEDITED) == 0
    }

    pub(super) fn barrier() {
        // After a successful registration the command can only fail for
        // an invalid command or flags, neither of which it passes. A
        // failure would leave light notifiers unfenced, so it is a bug,
        // not something to recover from.
        let r = membarrier(CMD_PRIVATE_EXPEDITED);
        assert_eq!(
            r, 0,
            "membarrier(PRIVATE_EXPEDITED) failed after registration"
        );
    }
}

#[cfg(loom)]
mod sys {
    pub(super) const ALWAYS_REGISTERED: bool = true;

    pub(super) fn register() -> bool {
        true
    }

    pub(super) fn barrier() {
        ffq_loom::sync::heavy_barrier();
    }
}

#[cfg(all(
    not(loom),
    not(all(
        not(miri),
        target_os = "linux",
        any(
            target_arch = "x86_64",
            target_arch = "aarch64",
            target_arch = "riscv64"
        )
    ))
))]
mod sys {
    pub(super) const ALWAYS_REGISTERED: bool = false;

    pub(super) fn register() -> bool {
        false
    }

    pub(super) fn barrier() {
        unreachable!("membarrier without a registration");
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn racing_attempts_agree_on_the_first_outcome() {
        // A second attempt settles "refused" while the first is still in
        // its syscall; the first's success must not overturn it, or a
        // waiter could go symmetric while notifiers go light.
        let r = Registration::new();
        let first = r.settle(|| {
            assert!(!r.settle(|| false));
            true
        });
        assert!(!first);
        assert!(!r.is_registered());
    }

    #[test]
    fn the_process_registration_settles_once_and_never_under_miri() {
        let first = register();
        assert_eq!(register(), first);
        assert_eq!(registered(), first);
        if cfg!(miri) {
            assert!(
                !first,
                "Miri cannot run membarrier, so it must never register"
            );
        }
    }
}
