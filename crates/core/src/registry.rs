//! Link subscriptions: which groups monitor which peer.
//!
//! Every (group, link) the layer monitors is one subscription of the
//! group to the peer at the link's far end. The per-peer liveness deadline
//! and the piggyback digest are both kept per peer, so
//! subscribe/unsubscribe report edge transitions — first subscription for
//! a peer, last subscription gone — which is exactly when the layer starts
//! and stops watching that peer.

use fuse_util::det::DetHashMap;
use fuse_util::PeerAddr as ProcId;

use crate::types::FuseId;

/// Per-peer subscription table: which groups monitor the link to each
/// peer.
#[derive(Debug, Clone, Default)]
pub struct SubscriptionRegistry {
    /// Each peer's groups, kept sorted: [`subscribers`] hands the slice
    /// out as is.
    ///
    /// [`subscribers`]: SubscriptionRegistry::subscribers
    by_peer: DetHashMap<ProcId, Vec<FuseId>>,
    subs: usize,
}

impl SubscriptionRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        SubscriptionRegistry::default()
    }

    /// Subscribes `key` to `peer`. Returns `true` when this is the peer's
    /// *first* subscription (the caller should start watching it).
    /// Re-subscribing is a no-op returning `false`.
    pub fn subscribe(&mut self, peer: ProcId, key: FuseId) -> bool {
        let keys = self.by_peer.entry(peer).or_default();
        let first = keys.is_empty();
        if let Err(at) = keys.binary_search(&key) {
            keys.insert(at, key);
            self.subs += 1;
        }
        first
    }

    /// Drops `key`'s subscription on `peer`. Returns `true` when this was
    /// the peer's *last* subscription (the caller should stop watching it).
    pub fn unsubscribe(&mut self, peer: ProcId, key: FuseId) -> bool {
        let Some(keys) = self.by_peer.get_mut(&peer) else {
            return false;
        };
        if let Ok(at) = keys.binary_search(&key) {
            keys.remove(at);
            self.subs -= 1;
        }
        if keys.is_empty() {
            self.by_peer.remove(&peer);
            true
        } else {
            false
        }
    }

    /// The groups subscribed to `peer`, sorted (callers fail links in
    /// this order, and iteration order must be deterministic).
    pub fn subscribers(&self, peer: ProcId) -> &[FuseId] {
        self.by_peer.get(&peer).map_or(&[], Vec::as_slice)
    }

    /// Whether `key` is subscribed to `peer`.
    pub fn is_subscribed(&self, peer: ProcId, key: FuseId) -> bool {
        self.subscribers(peer).binary_search(&key).is_ok()
    }

    /// Peers with at least one subscription, sorted.
    pub fn peers(&self) -> Vec<ProcId> {
        let mut v: Vec<ProcId> = self.by_peer.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Number of peers with at least one subscription.
    pub fn peer_count(&self) -> usize {
        self.by_peer.len()
    }

    /// Total number of (peer, key) subscriptions.
    pub fn len(&self) -> usize {
        self.subs
    }

    /// Whether the registry holds no subscriptions at all.
    pub fn is_empty(&self) -> bool {
        self.subs == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_and_last_subscription_edges_are_reported() {
        let mut r = SubscriptionRegistry::new();
        assert!(r.subscribe(7, FuseId(100)), "first sub on peer 7");
        assert!(!r.subscribe(7, FuseId(200)), "second sub is not an edge");
        assert!(!r.subscribe(7, FuseId(100)), "duplicate sub is a no-op");
        assert_eq!(r.len(), 2);
        assert!(!r.unsubscribe(7, FuseId(100)), "one sub remains");
        assert!(r.unsubscribe(7, FuseId(200)), "last sub gone");
        assert!(r.is_empty());
        assert!(
            !r.unsubscribe(7, FuseId(200)),
            "double unsubscribe is a no-op"
        );
        assert_eq!(r.peer_count(), 0);
    }

    #[test]
    fn subscribers_are_sorted_and_per_peer() {
        let mut r = SubscriptionRegistry::new();
        for k in [300, 100, 200] {
            r.subscribe(7, FuseId(k));
        }
        r.subscribe(8, FuseId(400));
        assert_eq!(r.subscribers(7), [FuseId(100), FuseId(200), FuseId(300)]);
        assert_eq!(r.subscribers(8), [FuseId(400)]);
        assert!(r.subscribers(9).is_empty());
        assert_eq!(r.peers(), vec![7, 8]);
        assert!(r.is_subscribed(7, FuseId(200)));
        assert!(!r.is_subscribed(8, FuseId(200)));
    }

    #[test]
    fn churn_keeps_counts_consistent() {
        let mut r = SubscriptionRegistry::new();
        // Groups come and go across a pair of peers; the registry's
        // counts and edges must track exactly.
        for round in 0..50u64 {
            let peer = (round % 2) as ProcId;
            let key = round % 5;
            if round % 3 == 0 {
                r.unsubscribe(peer, FuseId(key));
            } else {
                r.subscribe(peer, FuseId(key));
            }
            let total: usize = r.peers().iter().map(|&p| r.subscribers(p).len()).sum();
            assert_eq!(total, r.len());
            assert!(r.peers().iter().all(|&p| !r.subscribers(p).is_empty()));
        }
    }
}
