//! The ring tables (paper §6.1: the routing table the overlay makes
//! visible to FUSE): SkipNet's leaf sets of ring neighbours and its
//! numeric-prefix routing table.
//!
//! This module alone writes the clockwise and counterclockwise leaf sets,
//! the routing table and the sorted neighbour scratch they are diffed
//! through; [`Tables`]' fields are private to it. The invariant it keeps:
//! each leaf side holds at most [`LEAF_SIDE`] distinct entries, nearest
//! first, and no table ever holds this node; a routing slot at level `l`
//! holds the nearest node on its side that shares at least `l` numeric
//! digits with this node, among the candidates integrated since that slot
//! last emptied. The monitored neighbours are the sorted, distinct union of
//! every entry.

use fuse_util::PeerAddr;

use crate::config::{LEAF_SIDE, MAX_LEVELS};
use crate::id::{
    closer_clockwise, closer_counterclockwise, further_clockwise, NodeInfo, NodeName, NumericId,
};
use crate::oracle::OracleTables;

/// Whether `a` lies nearer `from` than `b` on one side of the ring.
type Closer = fn(&NodeName, &NodeName, &NodeName) -> bool;

/// A node's leaf sets and routing table, and the identity they order by.
#[derive(Clone)]
pub(super) struct Tables {
    me: NodeInfo,
    numeric: NumericId,
    /// Clockwise leaf set, nearest first.
    cw: Vec<NodeInfo>,
    /// Counterclockwise leaf set, nearest first.
    ccw: Vec<NodeInfo>,
    /// Routing table: per level, `[ccw, cw]` nearest nodes sharing that many
    /// numeric-digit prefixes.
    rtable: Vec<[Option<NodeInfo>; 2]>,
    /// Reused sorted neighbour sets from before and after a batch is
    /// integrated, so diffing them allocates nothing once warm.
    before: Vec<PeerAddr>,
    after: Vec<PeerAddr>,
}

impl Tables {
    pub(super) fn new(me: NodeInfo) -> Self {
        Tables {
            me,
            numeric: me.numeric(),
            cw: Vec::new(),
            ccw: Vec::new(),
            rtable: vec![[None, None]; MAX_LEVELS],
            before: Vec::new(),
            after: Vec::new(),
        }
    }

    pub(super) fn me(&self) -> &NodeInfo {
        &self.me
    }

    pub(super) fn preload(&mut self, (cw, ccw, rtable): OracleTables) {
        self.cw = cw;
        self.ccw = ccw;
        let levels = self.rtable.len();
        self.rtable = rtable;
        self.rtable
            .resize(levels.max(self.rtable.len()), [None, None]);
    }

    /// Leaf set (clockwise then counterclockwise, nearest first).
    pub(super) fn leaf_set(&self) -> (&[NodeInfo], &[NodeInfo]) {
        (&self.cw, &self.ccw)
    }

    /// Routing-table levels.
    pub(super) fn levels(&self) -> usize {
        self.rtable.len()
    }

    fn entries(&self) -> impl Iterator<Item = &NodeInfo> {
        self.cw
            .iter()
            .chain(self.ccw.iter())
            .chain(self.rtable.iter().flat_map(|lvl| lvl.iter().flatten()))
    }

    /// Replaces `out` with the sorted, distinct neighbour addresses.
    pub(super) fn neighbors_into(&self, out: &mut Vec<PeerAddr>) {
        out.clear();
        out.extend(self.entries().map(|e| e.proc));
        out.sort_unstable();
        out.dedup();
    }

    /// The entry that makes the most clockwise progress toward `target`
    /// without passing it.
    pub(super) fn best_next_hop(&self, target: &NodeName) -> Option<&NodeInfo> {
        if *target == self.me.name {
            return None;
        }
        let ahead = |c: &&NodeInfo| self.me.name.arc_contains(target, &c.name);
        let further =
            |b: &NodeInfo, c: &NodeInfo| further_clockwise(&self.me.name, &c.name, &b.name);
        // The first entry ahead, replaced by each later one further along.
        self.entries()
            .filter(ahead)
            .reduce(|b, c| if further(b, c) { c } else { b })
    }

    /// This node, then its leaf sets and, when `levels`, its routing table,
    /// with adjacent repeats of a peer dropped: what a join or announce
    /// reply offers.
    pub(super) fn candidates(&self, levels: bool) -> Vec<NodeInfo> {
        let mut candidates: Vec<NodeInfo> = vec![self.me];
        candidates.extend_from_slice(&self.cw);
        candidates.extend_from_slice(&self.ccw);
        if levels {
            candidates.extend(self.rtable.iter().flatten().flatten());
        }
        candidates.dedup_by_key(|c| c.proc);
        candidates
    }

    /// Integrates a batch of candidates into the leaf sets and routing
    /// table, handing each one that is not this node to `seen` first, and
    /// returns the change to the neighbour set: each neighbour added
    /// (`true`), then each evicted (`false`), both in ascending order.
    pub(super) fn integrate_all(
        &mut self,
        cands: &[NodeInfo],
        mut seen: impl FnMut(&NodeInfo),
    ) -> impl Iterator<Item = (PeerAddr, bool)> + '_ {
        let mut before = std::mem::take(&mut self.before);
        let mut after = std::mem::take(&mut self.after);
        self.neighbors_into(&mut before);
        for cand in cands {
            if cand.proc == self.me.proc || cand.name == self.me.name {
                continue;
            }
            seen(cand);
            leaf_insert(&mut self.cw, &self.me.name, cand, closer_clockwise);
            leaf_insert(&mut self.ccw, &self.me.name, cand, closer_counterclockwise);
            let shared = self.numeric.common_prefix(&cand.numeric());
            let max_lvl = shared.min(self.rtable.len().saturating_sub(1));
            // Slot 0: counterclockwise; slot 1: clockwise.
            let sides: [Closer; 2] = [closer_counterclockwise, closer_clockwise];
            for slots in &mut self.rtable[..=max_lvl] {
                for (slot, closer) in slots.iter_mut().zip(sides) {
                    let better = slot.is_none_or(|cur| {
                        cur.proc != cand.proc && closer(&self.me.name, &cand.name, &cur.name)
                    });
                    if better {
                        *slot = Some(*cand);
                    }
                }
            }
        }
        self.neighbors_into(&mut after);
        (self.before, self.after) = (before, after);
        let (before, after) = (&self.before, &self.after);
        let added = after.iter().filter(|p| before.binary_search(p).is_err());
        let evicted = before.iter().filter(|p| after.binary_search(p).is_err());
        added
            .map(|&p| (p, true))
            .chain(evicted.map(|&p| (p, false)))
    }

    /// Drops `peer` from every table, returning its entry if it had one.
    pub(super) fn remove(&mut self, peer: PeerAddr) -> Option<NodeInfo> {
        let info = self.entries().find(|e| e.proc == peer).copied();
        self.cw.retain(|l| l.proc != peer);
        self.ccw.retain(|l| l.proc != peer);
        for slot in self.rtable.iter_mut().flatten() {
            slot.take_if(|e| e.proc == peer);
        }
        info
    }
}

/// Inserts `cand` into one leaf side by nearness, keeping the nearest
/// [`LEAF_SIDE`].
fn leaf_insert(side: &mut Vec<NodeInfo>, me: &NodeName, cand: &NodeInfo, closer: Closer) {
    if side.iter().any(|l| l.proc == cand.proc) {
        return;
    }
    match side.iter().position(|l| closer(me, &cand.name, &l.name)) {
        Some(i) => side.insert(i, *cand),
        None if side.len() < LEAF_SIDE => side.push(*cand),
        None => {}
    }
    side.truncate(LEAF_SIDE);
}
