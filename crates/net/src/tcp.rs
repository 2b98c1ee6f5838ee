//! Analytic TCP model.
//!
//! All FUSE and overlay messages in the paper travel over TCP and "inherit
//! TCP's retry and congestion control behaviors"; a broken connection or a
//! timed-out liveness message is interpreted as peer failure (§6.1). FUSE
//! observes TCP through exactly two effects, and this model reproduces both
//! without simulating segments:
//!
//! 1. **Latency inflation under loss** — each message samples its number of
//!    transmission attempts from the route's delivery probability; failed
//!    attempts add exponentially backed-off RTO delays.
//! 2. **Connection breakage** — when the retry budget is exhausted the
//!    connection breaks and the sender is notified after the full timeout
//!    sequence, reproducing "TCP sockets will break under such adverse
//!    network conditions" (§7.6).
//!
//! Simplification (documented in DESIGN.md): per-message sampling is
//! independent — there is no cross-message RTO or congestion state. At the
//! paper's message rates (a ping per link per minute) connections are idle
//! between sends, so shared congestion state would change little.

use rand::rngs::StdRng;
use rand::Rng;

use fuse_sim::SimDuration;

/// Minimum retransmission timeout (initial RTO floor).
pub(crate) const MIN_RTO: SimDuration = SimDuration::from_secs(1);

/// RTO as a multiple of the path's RTT (the classic conservative 2×).
pub(crate) const RTT_MULTIPLIER: u64 = 2;

/// Retransmissions after the first attempt before the connection breaks.
/// With the 1 s floor an unreachable peer is given up on after
/// 1+2+4+8+16+32 = 63 s — slower than the overlay's 20 s ping timeout, so
/// (as in the paper) the liveness timeout, not TCP, usually detects
/// failures first.
pub(crate) const MAX_RETRIES: u32 = 5;

/// Outcome of pushing one message through a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpOutcome {
    /// Delivered; `extra_delay` is retransmission delay beyond propagation.
    Delivered {
        /// Sum of RTO waits before the successful attempt.
        extra_delay: SimDuration,
    },
    /// Retry budget exhausted; the sender notices after `give_up_after`.
    Broken {
        /// Total time until the sender abandons the connection.
        give_up_after: SimDuration,
    },
}

/// Initial RTO for a path with round-trip time `rtt`.
pub fn initial_rto(rtt: SimDuration) -> SimDuration {
    rtt.saturating_mul(RTT_MULTIPLIER).max(MIN_RTO)
}

/// Total time before the sender gives up on an unresponsive peer.
pub fn give_up_after(rtt: SimDuration) -> SimDuration {
    let mut total = SimDuration::ZERO;
    let mut rto = initial_rto(rtt);
    for _ in 0..=MAX_RETRIES {
        total = total + rto;
        rto = rto.saturating_mul(2);
    }
    total
}

/// Samples the fate of one message whose single-attempt success
/// probability (data out and ACK back) is `success_prob`.
pub fn attempt(rng: &mut StdRng, rtt: SimDuration, success_prob: f64) -> TcpOutcome {
    debug_assert!((0.0..=1.0).contains(&success_prob));
    if success_prob <= 0.0 {
        return TcpOutcome::Broken {
            give_up_after: give_up_after(rtt),
        };
    }
    let mut extra = SimDuration::ZERO;
    let mut rto = initial_rto(rtt);
    for _ in 0..=MAX_RETRIES {
        if rng.gen_bool(success_prob) {
            return TcpOutcome::Delivered { extra_delay: extra };
        }
        extra = extra + rto;
        rto = rto.saturating_mul(2);
    }
    TcpOutcome::Broken {
        give_up_after: extra,
    }
}

/// Probability that a message breaks the connection (all attempts fail).
pub fn break_probability(success_prob: f64) -> f64 {
    (1.0 - success_prob).powi(MAX_RETRIES as i32 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(77)
    }

    #[test]
    fn lossless_path_never_delays() {
        let mut r = rng();
        for _ in 0..100 {
            match attempt(&mut r, SimDuration::from_millis(130), 1.0) {
                TcpOutcome::Delivered { extra_delay } => {
                    assert_eq!(extra_delay, SimDuration::ZERO)
                }
                TcpOutcome::Broken { .. } => panic!("lossless path broke"),
            }
        }
    }

    #[test]
    fn dead_path_always_breaks_after_full_backoff() {
        let mut r = rng();
        let out = attempt(&mut r, SimDuration::from_millis(100), 0.0);
        // 1+2+4+8+16+32 s with the 1 s floor.
        assert_eq!(
            out,
            TcpOutcome::Broken {
                give_up_after: SimDuration::from_secs(63)
            }
        );
        assert_eq!(
            give_up_after(SimDuration::from_millis(100)),
            SimDuration::from_secs(63)
        );
    }

    #[test]
    fn rto_floor_and_rtt_scaling() {
        assert_eq!(
            initial_rto(SimDuration::from_millis(100)),
            SimDuration::from_secs(1),
            "floor applies to short RTTs"
        );
        assert_eq!(
            initial_rto(SimDuration::from_millis(900)),
            SimDuration::from_millis(1800),
            "2x RTT beyond the floor"
        );
    }

    #[test]
    fn empirical_break_rate_matches_formula() {
        let mut r = rng();
        let p_success = 0.6;
        let trials = 200_000;
        let mut breaks = 0;
        for _ in 0..trials {
            if matches!(
                attempt(&mut r, SimDuration::from_millis(100), p_success),
                TcpOutcome::Broken { .. }
            ) {
                breaks += 1;
            }
        }
        let expect = break_probability(p_success);
        let got = breaks as f64 / trials as f64;
        assert!(
            (got - expect).abs() < 0.0015,
            "empirical {got} vs formula {expect}"
        );
    }

    #[test]
    fn extra_delay_is_a_backoff_prefix_sum() {
        // With success only on the third attempt the delay must be RTO0+RTO1.
        // Drive the RNG until we observe a two-failure sample, then check
        // its delay is exactly 3 s.
        let mut r = rng();
        let mut seen = false;
        for _ in 0..10_000 {
            if let TcpOutcome::Delivered { extra_delay } =
                attempt(&mut r, SimDuration::from_millis(50), 0.5)
            {
                if extra_delay == SimDuration::from_secs(3) {
                    seen = true;
                    break;
                }
                // Any delivered delay must be one of the prefix sums.
                let valid = [0u64, 1, 3, 7, 15, 31]
                    .map(SimDuration::from_secs)
                    .contains(&extra_delay);
                assert!(valid, "delay {extra_delay:?} not a prefix sum");
            }
        }
        assert!(seen, "never sampled a two-failure delivery");
    }
}
