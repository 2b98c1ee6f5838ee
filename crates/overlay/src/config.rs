//! Overlay configuration and the paper's fixed overlay parameters.

use fuse_util::Duration as SimDuration;

/// Leaf-set entries per side (paper §7.1: a leaf set of 16, 8 per side).
pub(crate) const LEAF_SIDE: usize = 8;

/// Maximum numeric-ID levels of the routing table (base 8, so 8 digits
/// address 16.7 M nodes).
pub(crate) const MAX_LEVELS: usize = 8;

/// Period of background table-maintenance probes to random names.
pub(crate) const MAINTENANCE_PERIOD: SimDuration = SimDuration::from_secs(120);

/// TTL of routed messages (loop guard).
pub(crate) const ROUTE_TTL: u8 = 64;

/// Join retry timeout.
pub(crate) const JOIN_TIMEOUT: SimDuration = SimDuration::from_secs(10);

/// Capacity of the passive candidate cache.
pub(crate) const CANDIDATE_CACHE: usize = 256;

/// Most neighbours declared dead that a node keeps announcing itself to.
pub(crate) const DEPARTED_CAP: usize = 32;

/// Announces a departed neighbour gets, one maintenance period apart and
/// then doubling, before it is forgotten (1 + 1 + 2 + 4 + 8 periods).
pub(crate) const DEPARTED_TRIES: u32 = 5;

/// The overlay's failure-detector timings, defaulting to the paper's
/// configuration (§7.1): 60 s ping period, 20 s ping timeout. Everything
/// else about the overlay is a constant in this module.
#[derive(Debug, Clone)]
pub struct OverlayConfig {
    /// Liveness ping period per round: each round pings every monitored
    /// neighbor once.
    pub ping_period: SimDuration,
    /// Time to wait for a ping acknowledgment before declaring the neighbor
    /// dead. Must be below `ping_period`: each round replaces the last
    /// round's nonces and sweep, so a wait that outlives the period never
    /// comes due and a silent neighbour is never declared dead.
    pub ping_timeout: SimDuration,
}

impl Default for OverlayConfig {
    fn default() -> Self {
        OverlayConfig {
            ping_period: SimDuration::from_secs(60),
            ping_timeout: SimDuration::from_secs(20),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_parameters() {
        let c = OverlayConfig::default();
        assert_eq!(c.ping_period, SimDuration::from_secs(60));
        assert_eq!(c.ping_timeout, SimDuration::from_secs(20));
        assert_eq!(LEAF_SIDE * 2, 16, "§7.1: a leaf set of 16");
        assert_eq!(MAX_LEVELS, 8);
        assert_eq!(MAINTENANCE_PERIOD, SimDuration::from_secs(120));
        assert_eq!(ROUTE_TTL, 64);
        assert_eq!(JOIN_TIMEOUT, SimDuration::from_secs(10));
        assert_eq!(CANDIDATE_CACHE, 256);
        assert_eq!(DEPARTED_CAP, 32);
        assert_eq!(DEPARTED_TRIES, 5);
    }
}
