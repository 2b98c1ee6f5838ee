//! Scriptable network failures.
//!
//! The paper's failure model is "any pattern of packet loss, duplication or
//! re-ordering ... includ\[ing\] simultaneous network partitions and even an
//! adversary dropping packets based on their content" (§3.5), and its
//! experiments disconnect machines (Figure 9) and inject per-link loss
//! (Figures 11–12). The fault plane implements the *control* part:
//!
//! * node **disconnect** — the process stays alive but no packet enters or
//!   leaves it (Figure 9's unplugged machine),
//! * directed **blackholes** — `a` cannot reach `b` while every other path
//!   works (intransitive connectivity, §3.4),
//! * **partitions** — only nodes in the same partition cell communicate,
//! * **content-based drops** — the §3.5 adversary: messages whose decoded
//!   class matches a rule vanish silently (no transport signal), optionally
//!   scoped to a sender and/or receiver,
//! * **injected loss** — extra Bernoulli loss on a directed process pair,
//!   composed with the topology's per-link loss (the chaos harness ramps
//!   these rates over time).
//!
//! Uniform stochastic loss lives in the TCP model; crash-stop lives in the
//! kernel.

use fuse_sim::ProcId;
use fuse_util::{DetHashMap, DetHashSet};

/// One content-drop rule of the §3.5 adversary: messages whose
/// [`Payload::class`](fuse_sim::Payload::class) equals `class` are dropped
/// when the sender/receiver scope matches (`None` = any).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDropRule {
    /// The payload class label to drop (e.g. `"overlay.ping"`,
    /// `"fuse.hard"`).
    pub class: String,
    /// Only drop messages sent by this process (`None` = any sender).
    pub from: Option<ProcId>,
    /// Only drop messages addressed to this process (`None` = any
    /// receiver).
    pub to: Option<ProcId>,
}

impl ClassDropRule {
    fn matches(&self, from: ProcId, to: ProcId, class: &str) -> bool {
        self.class == class
            && self.from.map(|f| f == from).unwrap_or(true)
            && self.to.map(|t| t == to).unwrap_or(true)
    }
}

/// Mutable switchboard of injected connectivity failures.
#[derive(Debug, Default, Clone)]
pub struct FaultPlane {
    disconnected: DetHashSet<ProcId>,
    blackholes: DetHashSet<(ProcId, ProcId)>,
    partition_of: DetHashMap<ProcId, u32>,
    class_drops: Vec<ClassDropRule>,
    /// Extra per-message loss probability on a directed process pair.
    link_loss: DetHashMap<(ProcId, ProcId), f64>,
}

impl FaultPlane {
    /// No failures.
    pub fn new() -> Self {
        FaultPlane::default()
    }

    /// Unplugs `n` from the network (process still running).
    pub fn disconnect(&mut self, n: ProcId) {
        self.disconnected.insert(n);
    }

    /// Restores `n`'s connectivity.
    pub fn reconnect(&mut self, n: ProcId) {
        self.disconnected.remove(&n);
    }

    /// Whether `n` is currently unplugged.
    pub fn is_disconnected(&self, n: ProcId) -> bool {
        self.disconnected.contains(&n)
    }

    /// Makes packets from `a` to `b` vanish (one direction only).
    pub fn add_blackhole(&mut self, a: ProcId, b: ProcId) {
        self.blackholes.insert((a, b));
    }

    /// Removes a directed blackhole.
    pub fn clear_blackhole(&mut self, a: ProcId, b: ProcId) {
        self.blackholes.remove(&(a, b));
    }

    /// Assigns `n` to a partition cell; nodes in different cells cannot
    /// communicate. All nodes start in cell 0.
    pub fn set_partition(&mut self, n: ProcId, cell: u32) {
        if cell == 0 {
            self.partition_of.remove(&n);
        } else {
            self.partition_of.insert(n, cell);
        }
    }

    /// The partition cell `n` currently sits in (0 = default cell).
    pub fn partition_of(&self, n: ProcId) -> u32 {
        self.partition_of.get(&n).copied().unwrap_or(0)
    }

    /// Heals all partitions.
    pub fn heal_partitions(&mut self) {
        self.partition_of.clear();
    }

    /// Installs a §3.5 content-drop rule: every message whose decoded class
    /// equals `class` is silently eaten, in any direction. Duplicate rules
    /// are ignored.
    pub fn drop_class(&mut self, class: &str) {
        self.drop_class_scoped(class, None, None);
    }

    /// Installs a scoped content-drop rule (`None` = wildcard side).
    pub fn drop_class_scoped(&mut self, class: &str, from: Option<ProcId>, to: Option<ProcId>) {
        let rule = ClassDropRule {
            class: class.to_string(),
            from,
            to,
        };
        if !self.class_drops.contains(&rule) {
            self.class_drops.push(rule);
        }
    }

    /// Removes every content-drop rule (the adversary walks away).
    pub fn clear_class_drops(&mut self) {
        self.class_drops.clear();
    }

    /// The installed content-drop rules, in installation order.
    pub fn class_drops(&self) -> &[ClassDropRule] {
        &self.class_drops
    }

    /// Whether the content adversary eats a `class` message from `a` to
    /// `b`. Unlike [`blocked`](FaultPlane::blocked), a content drop is
    /// *silent*: the sender's transport sees nothing (the most adversarial
    /// reading of §3.5 — detection must come from FUSE's own timers, not
    /// from a transport error).
    pub fn content_blocked(&self, a: ProcId, b: ProcId, class: &str) -> bool {
        !self.class_drops.is_empty() && self.class_drops.iter().any(|r| r.matches(a, b, class))
    }

    /// Sets the extra Bernoulli loss probability on the directed pair
    /// `a -> b` (composes with topology loss; `0.0` removes the entry).
    pub fn set_link_loss(&mut self, a: ProcId, b: ProcId, p: f64) {
        assert!((0.0..1.0).contains(&p), "loss rate must be in [0,1)");
        if p == 0.0 {
            self.link_loss.remove(&(a, b));
        } else {
            self.link_loss.insert((a, b), p);
        }
    }

    /// The injected loss rate on the directed pair `a -> b`.
    pub fn link_loss(&self, a: ProcId, b: ProcId) -> f64 {
        self.link_loss.get(&(a, b)).copied().unwrap_or(0.0)
    }

    /// Removes all injected pair loss.
    pub fn clear_link_loss(&mut self) {
        self.link_loss.clear();
    }

    /// Whether any injected pair loss is active (fast path for the
    /// per-send check).
    pub fn has_link_loss(&self) -> bool {
        !self.link_loss.is_empty()
    }

    /// Whether a packet from `a` to `b` is administratively blocked.
    pub fn blocked(&self, a: ProcId, b: ProcId) -> bool {
        if self.disconnected.contains(&a) || self.disconnected.contains(&b) {
            return true;
        }
        if self.blackholes.contains(&(a, b)) {
            return true;
        }
        let ca = self.partition_of.get(&a).copied().unwrap_or(0);
        let cb = self.partition_of.get(&b).copied().unwrap_or(0);
        ca != cb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_allows_everything() {
        let f = FaultPlane::new();
        assert!(!f.blocked(1, 2));
        assert!(!f.blocked(2, 1));
        assert!(!f.content_blocked(1, 2, "overlay.ping"));
        assert_eq!(f.link_loss(1, 2), 0.0);
    }

    #[test]
    fn disconnect_blocks_both_directions() {
        let mut f = FaultPlane::new();
        f.disconnect(3);
        assert!(f.blocked(3, 1));
        assert!(f.blocked(1, 3));
        assert!(!f.blocked(1, 2));
        f.reconnect(3);
        assert!(!f.blocked(3, 1));
    }

    #[test]
    fn blackhole_is_directional() {
        // The intransitive scenario of §3.4: A cannot reach C, but C can
        // reach A, and both talk to B.
        let (a, b, c) = (0, 1, 2);
        let mut f = FaultPlane::new();
        f.add_blackhole(a, c);
        assert!(f.blocked(a, c));
        assert!(!f.blocked(c, a));
        assert!(!f.blocked(a, b));
        assert!(!f.blocked(b, c));
        f.clear_blackhole(a, c);
        assert!(!f.blocked(a, c));
    }

    #[test]
    fn partitions_split_cells() {
        let mut f = FaultPlane::new();
        f.set_partition(1, 1);
        f.set_partition(2, 1);
        assert!(!f.blocked(1, 2), "same cell communicates");
        assert!(f.blocked(1, 3), "cross-cell blocked");
        assert!(f.blocked(3, 2));
        assert!(!f.blocked(3, 4), "cell 0 intact");
        f.heal_partitions();
        assert!(!f.blocked(1, 3));
    }

    #[test]
    fn returning_to_cell_zero_heals_a_node() {
        let mut f = FaultPlane::new();
        f.set_partition(5, 2);
        assert!(f.blocked(5, 0));
        assert_eq!(f.partition_of(5), 2);
        f.set_partition(5, 0);
        assert!(!f.blocked(5, 0));
        assert_eq!(f.partition_of(5), 0);
    }

    #[test]
    fn class_drops_match_by_class_and_scope() {
        let mut f = FaultPlane::new();
        f.drop_class("fuse.hard");
        f.drop_class_scoped("overlay.ping", Some(3), None);
        f.drop_class_scoped("fuse.repair", None, Some(7));

        // Unscoped rule: any direction.
        assert!(f.content_blocked(0, 1, "fuse.hard"));
        assert!(f.content_blocked(1, 0, "fuse.hard"));
        // Sender-scoped rule.
        assert!(f.content_blocked(3, 9, "overlay.ping"));
        assert!(!f.content_blocked(9, 3, "overlay.ping"));
        // Receiver-scoped rule.
        assert!(f.content_blocked(2, 7, "fuse.repair"));
        assert!(!f.content_blocked(7, 2, "fuse.repair"));
        // Other classes untouched.
        assert!(!f.content_blocked(0, 1, "fuse.soft"));

        f.clear_class_drops();
        assert!(!f.content_blocked(0, 1, "fuse.hard"));
    }

    #[test]
    fn duplicate_class_rules_are_deduped() {
        let mut f = FaultPlane::new();
        f.drop_class("app");
        f.drop_class("app");
        assert_eq!(f.class_drops().len(), 1);
    }

    #[test]
    fn link_loss_is_directional_and_clearable() {
        let mut f = FaultPlane::new();
        assert!(!f.has_link_loss());
        f.set_link_loss(1, 2, 0.25);
        assert!(f.has_link_loss());
        assert_eq!(f.link_loss(1, 2), 0.25);
        assert_eq!(f.link_loss(2, 1), 0.0);
        f.set_link_loss(1, 2, 0.0);
        assert!(!f.has_link_loss());
        f.set_link_loss(4, 5, 0.5);
        f.clear_link_loss();
        assert!(!f.has_link_loss());
    }
}
