/// One burst of `n` spin-loop hints. Under loom a burst collapses to a
/// single model yield: the hint count is a real-time tuning knob with no
/// schedule-visible meaning, and a yield is what lets the model hand the
/// CPU to the thread being waited on.
#[inline]
fn spin_burst(n: u32) {
    #[cfg(loom)]
    {
        let _ = n;
        crate::atomic::spin_loop();
    }
    #[cfg(not(loom))]
    for _ in 0..n {
        core::hint::spin_loop();
    }
}

/// The most `spin_loop` hints one [`Backoff::wait`] spends before it
/// returns to its caller's re-poll: a `pause` costs ~20 ns on a 2-vCPU
/// Xeon VM, so a condition that turns ready mid-step is seen within
/// ~80 ns instead of up to the step's whole 2^k-hint burst (1.3 µs at
/// step 6). Under loom a step stays one round (one model yield), so the
/// re-grain does not grow the models' state space.
const MAX_BURST: u32 = if cfg!(loom) { u32::MAX } else { 4 };

/// Bounded exponential back-off for spin loops.
///
/// Algorithm 1 line 32 of the paper has a consumer "back off" while the
/// producer is still writing the cell it was assigned. This type implements
/// the usual two-phase policy: a few steps of exponentially growing
/// `spin_loop` hints (which keep the hardware thread available to its
/// sibling), then `yield_now` once spinning has clearly stopped paying off —
/// essential on over-subscribed machines where the thread we wait for may not
/// even be scheduled.
///
/// Step `k` of the spin phase spends `2^k` hints, in bursts of at most
/// four: each [`wait`](Self::wait) spins one burst and returns, so the
/// caller re-polls between bursts, and the step advances once its `2^k`
/// hints are spent. At the default limits that is 127 hints over 7 steps,
/// in 33 calls. Loops whose re-poll is a whole retry rather than a load
/// use [`wait_step`](Self::wait_step), which spends a step per call.
///
/// Both phase boundaries are tunable via [`Backoff::with_limits`]; the
/// yield limit is the *snooze threshold* consumed by
/// [`WaitStrategy`](crate::WaitStrategy), which escalates from this ladder
/// into bounded futex parks once [`is_parkable`](Self::is_parkable) turns
/// true.
pub struct Backoff {
    step: u32,
    /// Hints already spent in the current spin step.
    spent: u32,
    spin_limit: u32,
    yield_limit: u32,
}

impl Backoff {
    /// Default last spin step (`2^SPIN_LIMIT` hints).
    const SPIN_LIMIT: u32 = 6;
    /// Default steps (including spin steps) before every wait becomes a
    /// yield.
    const YIELD_LIMIT: u32 = 10;
    /// Hard cap on the spin shift: a single step never exceeds `2^16`
    /// `spin_loop` hints no matter how the limits are tuned, so the
    /// exponential phase cannot grow into a multi-millisecond busy stall
    /// (or overflow the `1 << step` shift).
    const MAX_SPIN_SHIFT: u32 = 16;

    /// Creates a fresh back-off with zero accumulated delay and the default
    /// phase limits.
    pub const fn new() -> Self {
        Self::with_limits(Self::SPIN_LIMIT, Self::YIELD_LIMIT)
    }

    /// Creates a back-off with explicit phase boundaries: busy-spin while
    /// `step <= spin_limit`, yield while `step <= yield_limit`, report
    /// [`is_parkable`](Self::is_parkable) past that.
    ///
    /// `spin_limit` is clamped to `2^16` iterations per step and
    /// `yield_limit` is raised to at least `spin_limit`, so every
    /// configuration yields a sane spin → yield → parkable progression.
    pub const fn with_limits(spin_limit: u32, yield_limit: u32) -> Self {
        let spin_limit = if spin_limit > Self::MAX_SPIN_SHIFT {
            Self::MAX_SPIN_SHIFT
        } else {
            spin_limit
        };
        let yield_limit = if yield_limit < spin_limit {
            spin_limit
        } else {
            yield_limit
        };
        Self {
            step: 0,
            spent: 0,
            spin_limit,
            yield_limit,
        }
    }

    /// Resets the accumulated delay to zero.
    ///
    /// Call after making progress, so the next contention episode starts with
    /// short waits again.
    pub fn reset(&mut self) {
        self.step = 0;
        self.spent = 0;
    }

    /// Waits a little: one burst of the current spin step, or a yield.
    pub fn wait(&mut self) {
        self.round(MAX_BURST);
    }

    /// Waits out the rest of the current step at once: its remaining spin
    /// hints in one burst, or a yield. For loops whose every re-poll is a
    /// whole retry — a transaction attempt, a full-queue `try_enqueue` —
    /// where re-polling every four hints would multiply the retries
    /// instead of seeing a handoff sooner, and for retry budgets that
    /// count calls.
    pub fn wait_step(&mut self) {
        self.round(u32::MAX);
    }

    fn round(&mut self, max_burst: u32) {
        match self.next_round(max_burst) {
            Some(hints) => spin_burst(hints),
            None => crate::atomic::yield_now(),
        }
    }

    /// Advances the ladder by one round of at most `max_burst` hints and
    /// returns its burst, or `None` for a yield round.
    fn next_round(&mut self, max_burst: u32) -> Option<u32> {
        let mut burst = None;
        if self.step <= self.spin_limit {
            let left = (1u32 << self.step) - self.spent;
            if left > max_burst {
                self.spent += max_burst;
                return Some(max_burst);
            }
            burst = Some(left);
        }
        self.spent = 0;
        if self.step <= self.yield_limit {
            self.step += 1;
        }
        burst
    }

    /// True once the back-off has escalated past pure spinning; callers that
    /// cannot park should start yielding or return `WouldBlock` here.
    pub fn is_completed(&self) -> bool {
        self.step > self.spin_limit
    }

    /// True once the back-off has escalated past yielding too — the snooze
    /// threshold. [`WaitStrategy`](crate::WaitStrategy) parks the thread on
    /// a futex at this point; callers without a futex word can sleep.
    pub fn is_parkable(&self) -> bool {
        self.step > self.yield_limit
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives `b` through its spin phase without spinning: the burst of
    /// every round, grouped by the step it belonged to.
    fn spin_phase(b: &mut Backoff) -> Vec<Vec<u32>> {
        let mut steps: Vec<Vec<u32>> = Vec::new();
        while !b.is_completed() {
            let step = b.step as usize;
            let burst = b.next_round(MAX_BURST).expect("a spin step spins");
            if steps.len() == step {
                steps.push(Vec::new());
            }
            steps[step].push(burst);
        }
        steps
    }

    #[cfg(not(loom))]
    #[test]
    fn spin_steps_are_spent_in_bursts_of_at_most_four() {
        let mut b = Backoff::new();
        let steps = spin_phase(&mut b);
        assert_eq!(steps.len(), Backoff::SPIN_LIMIT as usize + 1);
        for (k, bursts) in steps.iter().enumerate() {
            assert_eq!(bursts.iter().sum::<u32>(), 1 << k, "step {k} total");
            assert!(bursts.iter().all(|&n| (1..=4).contains(&n)), "step {k}");
        }
        // 1 + 1 + 1 + 2 + 4 + 8 + 16 calls; the budget is unchanged.
        assert_eq!(steps.iter().map(Vec::len).sum::<usize>(), 33);
        assert_eq!(steps.iter().flatten().sum::<u32>(), 127);
    }

    #[test]
    fn escalates_then_saturates() {
        let mut b = Backoff::new();
        assert!(!b.is_completed());
        let mut rounds = 0;
        while !b.is_completed() {
            b.wait();
            rounds += 1;
            assert!(rounds <= 127, "the spin phase never completed");
        }
        // Saturates instead of overflowing.
        for _ in 0..100 {
            b.wait();
        }
        assert_eq!(b.step, Backoff::YIELD_LIMIT + 1);
        assert!(b.is_parkable());
    }

    #[cfg(not(loom))]
    #[test]
    fn wait_step_spends_a_whole_step_per_call() {
        // The parent ladder, for whole-retry loops: 7 spin calls at the
        // default limits, then yields, saturating like `wait`.
        let mut b = Backoff::new();
        for k in 0..=Backoff::SPIN_LIMIT {
            assert!(!b.is_completed());
            assert_eq!(b.next_round(u32::MAX), Some(1 << k), "step {k}");
        }
        assert!(b.is_completed());
        for _ in 0..100 {
            b.wait_step();
        }
        assert_eq!(b.step, Backoff::YIELD_LIMIT + 1);
        // Mixed with `wait`: a step part-spent by bursts finishes at once.
        let mut b = Backoff::new();
        for _ in 0..4 {
            b.wait();
        }
        assert_eq!((b.step, b.spent), (3, 4));
        assert_eq!(b.next_round(u32::MAX), Some(4));
        assert_eq!((b.step, b.spent), (4, 0));
    }

    #[test]
    fn reset_restarts_spin_phase() {
        let mut b = Backoff::new();
        for _ in 0..20 {
            b.wait();
        }
        b.reset();
        assert!(!b.is_completed());
        assert_eq!((b.step, b.spent), (0, 0));
    }

    #[test]
    fn phase_transitions_follow_the_limits() {
        let mut b = Backoff::with_limits(2, 4);
        // Steps 0..=2: spinning, each step one burst of at most four.
        for step in 0..=2u32 {
            assert!(!b.is_completed(), "step {step} should still spin");
            assert!(!b.is_parkable());
            b.wait();
        }
        // Steps 3..=4: yielding.
        for step in 3..=4u32 {
            assert!(b.is_completed(), "step {step} should yield");
            assert!(!b.is_parkable(), "step {step} should not park yet");
            b.wait();
        }
        // Step 5 and beyond: parkable, saturated.
        assert!(b.is_parkable());
        b.wait();
        assert_eq!(b.step, 5);
        assert!(b.is_parkable());
    }

    #[test]
    fn spin_growth_is_capped() {
        // A pathological spin limit must clamp to MAX_SPIN_SHIFT rather
        // than overflow `1 << step` or stall for seconds.
        let mut b = Backoff::with_limits(40, 50);
        assert_eq!(b.spin_limit, Backoff::MAX_SPIN_SHIFT);
        let steps = spin_phase(&mut b);
        assert_eq!(steps.len(), Backoff::MAX_SPIN_SHIFT as usize + 1);
        let top = steps.last().unwrap();
        assert_eq!(top.iter().sum::<u32>(), 1 << Backoff::MAX_SPIN_SHIFT);
        assert!(steps.iter().flatten().all(|&n| n <= MAX_BURST));
        // The yield steps that follow saturate at the clamped limits.
        for _ in 0..60 {
            assert_eq!(b.next_round(MAX_BURST), None);
        }
        assert_eq!(b.step, 51);
        assert!(b.is_parkable());
    }

    #[test]
    fn yield_limit_never_undercuts_spin_limit() {
        let b = Backoff::with_limits(8, 3);
        assert_eq!(b.spin_limit, 8);
        assert_eq!(b.yield_limit, 8);
    }
}
