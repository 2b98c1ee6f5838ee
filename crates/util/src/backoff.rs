//! Capped exponential backoff.
//!
//! FUSE group repair uses "per-group exponential backoffs (capped at 40
//! seconds) for the frequency of repairs" (paper §6.5). The backoff is
//! deliberately deterministic: jitter, where wanted, is applied by the caller
//! from the simulation RNG so that traces stay reproducible.

/// Deterministic exponential backoff: `base * 2^attempts`, capped.
///
/// # Examples
///
/// ```
/// use fuse_util::Backoff;
///
/// let mut b = Backoff::new(1_000, 40_000);
/// assert_eq!(b.next_delay(), 1_000);
/// assert_eq!(b.next_delay(), 2_000);
/// assert_eq!(b.next_delay(), 4_000);
/// b.reset();
/// assert_eq!(b.next_delay(), 1_000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Backoff {
    base: u64,
    cap: u64,
    attempts: u32,
}

impl Backoff {
    /// Creates a backoff starting at `base` and never exceeding `cap`.
    ///
    /// Units are up to the caller (the simulator uses nanoseconds).
    pub fn new(base: u64, cap: u64) -> Self {
        assert!(base > 0, "backoff base must be positive");
        assert!(cap >= base, "cap must be at least the base");
        Backoff {
            base,
            cap,
            attempts: 0,
        }
    }

    /// Returns the next delay and advances the attempt counter.
    pub fn next_delay(&mut self) -> u64 {
        let d = self.peek();
        self.attempts = self.attempts.saturating_add(1);
        d
    }

    /// Returns the delay the next call to [`Backoff::next_delay`] will yield.
    pub fn peek(&self) -> u64 {
        // `base << attempts` overflows once `attempts` reaches the number of
        // leading zeros in `base`; `checked_shl` would not catch that.
        if self.attempts >= self.base.leading_zeros() {
            self.cap
        } else {
            (self.base << self.attempts).min(self.cap)
        }
    }

    /// Number of delays handed out since construction or the last reset.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Resets to the initial delay. FUSE resets a group's backoff when a
    /// round ends with every reply and every install in, and no repair
    /// was requested while it ran.
    pub fn reset(&mut self) {
        self.attempts = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubles_until_cap() {
        let mut b = Backoff::new(5, 40);
        assert_eq!(b.next_delay(), 5);
        assert_eq!(b.next_delay(), 10);
        assert_eq!(b.next_delay(), 20);
        assert_eq!(b.next_delay(), 40);
        assert_eq!(b.next_delay(), 40);
        assert_eq!(b.attempts(), 5);
    }

    #[test]
    fn paper_parameters_cap_at_40_seconds() {
        // Base 1 s, cap 40 s, expressed in nanoseconds as the simulator does.
        const SEC: u64 = 1_000_000_000;
        let mut b = Backoff::new(SEC, 40 * SEC);
        let delays: Vec<u64> = (0..8).map(|_| b.next_delay()).collect();
        assert_eq!(
            delays,
            [
                SEC,
                2 * SEC,
                4 * SEC,
                8 * SEC,
                16 * SEC,
                32 * SEC,
                40 * SEC,
                40 * SEC
            ]
        );
    }

    #[test]
    fn huge_attempt_counts_do_not_overflow() {
        let mut b = Backoff::new(1 << 40, u64::MAX);
        for _ in 0..200 {
            b.next_delay();
        }
        assert_eq!(b.peek(), u64::MAX);
    }

    #[test]
    fn reset_restores_base() {
        let mut b = Backoff::new(3, 100);
        b.next_delay();
        b.next_delay();
        b.reset();
        assert_eq!(b.peek(), 3);
        assert_eq!(b.attempts(), 0);
    }

    #[test]
    #[should_panic(expected = "base must be positive")]
    fn zero_base_panics() {
        let _ = Backoff::new(0, 10);
    }
}
