//! Overlay identities and ring geometry.
//!
//! SkipNet nodes have two identities: a **name ID** (a string; the ring is
//! ordered lexicographically, with wraparound) and a **numeric ID** (a
//! sequence of uniformly random digits, base 8 here as in the paper's
//! configuration). The routing table at level `h` points to the nearest ring
//! neighbors sharing the first `h` numeric digits, which is what yields
//! O(log n) routing.
//!
//! A name is stored inline: up to [`NAME_CAP`] bytes of UTF-8, zero-padded,
//! plus a length. That makes [`NodeName`] and [`NodeInfo`] `Copy`, so
//! routing, table updates and message decoding never allocate for an
//! identity. Every name in use fits: `node-NNNNNN` is 11 bytes and a
//! maintenance probe's `probe-<16 hex digits>` is 22.

use std::fmt;
use std::hash::{Hash, Hasher};

use fuse_util::PeerAddr as ProcId;
use fuse_wire::{sha1, Decode, DecodeError, Encode, Reader, Writer};

/// Number of numeric-ID digits we derive (enough levels for any
/// experiment's scale).
pub const NUMERIC_DIGITS: usize = 16;

/// Longest ring name, in bytes.
pub const NAME_CAP: usize = 23;

/// A node's name ID: ring position in lexicographic order.
///
/// The derived order compares the zero-padded bytes first and the length
/// last, which is exactly byte-string order: where one name is a prefix of
/// the other, the padding byte 0 sorts at or below whatever the longer name
/// holds there, and a tie falls to the length. `Hash`, `Debug` and
/// `Display` match those of the name as a `String`, and so does the wire
/// encoding, `varint len ‖ bytes`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct NodeName {
    /// `bytes[..len]` is UTF-8; the rest is zero.
    bytes: [u8; NAME_CAP],
    len: u8,
}

impl NodeName {
    const EMPTY: NodeName = NodeName {
        bytes: [0; NAME_CAP],
        len: 0,
    };

    /// `name` as a ring name, or `None` when it is longer than
    /// [`NAME_CAP`] bytes.
    pub fn new(name: &str) -> Option<Self> {
        let mut n = NodeName::EMPTY;
        n.push(name).then_some(n)
    }

    /// Formats a name in place, with no heap allocation; `None` when the
    /// text is longer than [`NAME_CAP`] bytes.
    pub(crate) fn format(args: fmt::Arguments<'_>) -> Option<Self> {
        struct Fill(NodeName);
        impl fmt::Write for Fill {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0.push(s).then_some(()).ok_or(fmt::Error)
            }
        }
        let mut fill = Fill(NodeName::EMPTY);
        fmt::write(&mut fill, args).ok()?;
        Some(fill.0)
    }

    /// Appends `s` if it fits, leaving the name unchanged otherwise.
    fn push(&mut self, s: &str) -> bool {
        let at = usize::from(self.len);
        let Some(end) = at.checked_add(s.len()).filter(|&end| end <= NAME_CAP) else {
            return false;
        };
        self.bytes[at..end].copy_from_slice(s.as_bytes());
        self.len = end as u8;
        true
    }

    /// Builds a deterministic padded name; zero-padding makes lexicographic
    /// order match numeric order, handy in tests.
    ///
    /// # Panics
    ///
    /// When `i` has more than 18 digits, since the name would not fit.
    pub fn numbered(i: usize) -> Self {
        NodeName::format(format_args!("node-{i:06}")).expect("node numbers have at most 18 digits")
    }

    /// The name's bytes, without the padding.
    fn as_bytes(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len)]
    }

    /// The name as text.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(self.as_bytes()).expect("a NodeName holds UTF-8")
    }

    /// The name's ring position: its zero-padded bytes, then its length,
    /// as one 192-bit big-endian integer. Positions order exactly as names
    /// do, and distinct names have distinct positions.
    pub fn ring_pos(&self) -> RingPos {
        let mut be = [0u8; NAME_CAP + 1];
        be[..NAME_CAP].copy_from_slice(&self.bytes);
        be[NAME_CAP] = self.len;
        let (hi, lo) = be.split_at(8);
        RingPos {
            hi: u64::from_be_bytes(hi.try_into().expect("8 bytes")),
            lo: u128::from_be_bytes(lo.try_into().expect("16 bytes")),
        }
    }

    /// Cyclic "is `x` strictly inside the arc (self → to], walking
    /// clockwise (increasing names, wrapping at the top)?" When
    /// `self == to` the arc is the full circle: everything but the start.
    pub fn arc_contains(&self, to: &NodeName, x: &NodeName) -> bool {
        let from = self.ring_pos();
        let x = x.ring_pos();
        x != from && x.cw_rank(from) <= to.ring_pos().cw_rank(from)
    }
}

/// A [`NodeName`]'s position on the ring: a 192-bit integer, the high 64
/// bits in `hi`. Walking clockwise is counting up, modulo 2^192.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct RingPos {
    hi: u64,
    lo: u128,
}

impl RingPos {
    /// How far clockwise this position lies past `from`, less one, modulo
    /// 2^192: `from` itself ranks last, a full circle away. Nearer
    /// positions rank lower, so `x` lies inside the arc `(from → to]`
    /// exactly when `x ≠ from` and its rank is at most `to`'s.
    pub(crate) fn cw_rank(self, from: RingPos) -> RingPos {
        const ONE: RingPos = RingPos { hi: 0, lo: 1 };
        self.wrapping_sub(from).wrapping_sub(ONE)
    }

    /// `self − rhs`, modulo 2^192.
    fn wrapping_sub(self, rhs: RingPos) -> RingPos {
        let (lo, borrow) = self.lo.overflowing_sub(rhs.lo);
        let hi = self.hi.wrapping_sub(rhs.hi).wrapping_sub(u64::from(borrow));
        RingPos { hi, lo }
    }
}

impl Hash for NodeName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Debug for NodeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("NodeName").field(&self.as_str()).finish()
    }
}

impl fmt::Display for NodeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Encode for NodeName {
    fn encode(&self, w: &mut dyn Writer) {
        usize::from(self.len).encode(w);
        w.put(self.as_bytes());
    }

    fn size_hint(&self) -> usize {
        let len = usize::from(self.len);
        len.size_hint() + len
    }
}

impl Decode for NodeName {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = u64::decode(r)?;
        if len > NAME_CAP as u64 {
            return Err(DecodeError::Invalid("name longer than NAME_CAP"));
        }
        let text = std::str::from_utf8(r.take(len as usize)?)
            .map_err(|_| DecodeError::Invalid("utf-8"))?;
        Ok(NodeName::new(text).expect("length checked against NAME_CAP"))
    }
}

/// A node's numeric ID: `NUMERIC_DIGITS` base-8 digits derived from the
/// name by hashing, so it is uniform and reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NumericId {
    digits: [u8; NUMERIC_DIGITS],
}

impl NumericId {
    /// Derives the numeric ID for `name` (SHA-1 bits, 3 bits per digit).
    pub fn for_name(name: &NodeName) -> Self {
        let d = sha1(name.as_bytes());
        let mut digits = [0u8; NUMERIC_DIGITS];
        for (i, digit) in digits.iter_mut().enumerate() {
            // 3 bits per digit out of the 160-bit digest.
            let bit = i * 3;
            let byte = bit / 8;
            let off = bit % 8;
            let word = (u16::from(d.0[byte]) << 8) | u16::from(d.0[(byte + 1) % 20]);
            *digit = ((word >> (16 - 3 - off)) & 0x7) as u8;
        }
        NumericId { digits }
    }

    /// The digit at `level`.
    pub fn digit(&self, level: usize) -> u8 {
        self.digits[level]
    }

    /// Length of the common digit prefix with `other`.
    pub fn common_prefix(&self, other: &NumericId) -> usize {
        self.digits
            .iter()
            .zip(other.digits.iter())
            .take_while(|(a, b)| a == b)
            .count()
    }
}

/// Identity and address of an overlay node, as carried in messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeInfo {
    /// Simulation process id (the "network address").
    pub proc: ProcId,
    /// Ring name.
    pub name: NodeName,
}

impl NodeInfo {
    /// Convenience constructor.
    pub fn new(proc: ProcId, name: NodeName) -> Self {
        NodeInfo { proc, name }
    }

    /// Numeric ID derived from the name.
    pub fn numeric(&self) -> NumericId {
        NumericId::for_name(&self.name)
    }
}

impl Encode for NodeInfo {
    fn encode(&self, w: &mut dyn Writer) {
        self.proc.encode(w);
        self.name.encode(w);
    }

    fn size_hint(&self) -> usize {
        self.proc.size_hint() + self.name.size_hint()
    }
}

impl Decode for NodeInfo {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(NodeInfo {
            proc: ProcId::decode(r)?,
            name: NodeName::decode(r)?,
        })
    }
}

/// Clockwise arc comparison: among candidates inside the arc
/// `(from → target]`, the best next hop is the one *furthest* along, i.e.
/// with maximal position in arc order. Returns whether `a` is strictly
/// further clockwise from `from` than `b` (i.e. `b` lies inside the arc
/// `(from → a]`).
pub fn further_clockwise(from: &NodeName, a: &NodeName, b: &NodeName) -> bool {
    closer_clockwise(from, b, a)
}

/// Whether `a` is strictly closer than `b` when walking clockwise from
/// `from` (i.e. `a` lies inside the arc `(from → b)`).
pub fn closer_clockwise(from: &NodeName, a: &NodeName, b: &NodeName) -> bool {
    let from = from.ring_pos();
    a.ring_pos().cw_rank(from) < b.ring_pos().cw_rank(from)
}

/// Whether `a` is strictly closer than `b` when walking counterclockwise
/// from `from` (i.e. `a` lies inside the cw arc `(b → from)`): `from` is
/// then nearer clockwise past `a` than past `b`.
pub fn closer_counterclockwise(from: &NodeName, a: &NodeName, b: &NodeName) -> bool {
    let from = from.ring_pos();
    from.cw_rank(a.ring_pos()) < from.cw_rank(b.ring_pos())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuse_wire::Encode;

    fn n(s: &str) -> NodeName {
        NodeName::new(s).unwrap()
    }

    #[test]
    fn arc_contains_basic() {
        let a = n("b");
        let c = n("m");
        assert!(a.arc_contains(&c, &n("c")));
        assert!(a.arc_contains(&c, &n("m")), "arc is closed at the far end");
        assert!(!a.arc_contains(&c, &n("b")), "arc is open at the start");
        assert!(!a.arc_contains(&c, &n("z")));
    }

    #[test]
    fn arc_contains_wraps() {
        let a = n("x");
        let c = n("c");
        assert!(a.arc_contains(&c, &n("z")), "after start, pre-wrap");
        assert!(a.arc_contains(&c, &n("a")), "post-wrap");
        assert!(!a.arc_contains(&c, &n("m")));
    }

    #[test]
    fn arc_degenerate_full_circle() {
        let a = n("k");
        assert!(a.arc_contains(&a, &n("z")));
        assert!(!a.arc_contains(&a, &n("k")));
    }

    #[test]
    fn numeric_ids_are_uniform_ish_and_deterministic() {
        let x = NumericId::for_name(&n("node-000001"));
        let y = NumericId::for_name(&n("node-000001"));
        assert_eq!(x, y);
        // Digit histogram over many names should cover all 8 values.
        let mut counts = [0usize; 8];
        for i in 0..512 {
            let id = NumericId::for_name(&NodeName::numbered(i));
            counts[id.digit(0) as usize] += 1;
        }
        for (d, &c) in counts.iter().enumerate() {
            assert!(c > 20, "digit {d} badly skewed: {c}/512");
        }
    }

    #[test]
    fn common_prefix_reflexive_and_bounded() {
        let a = NumericId::for_name(&n("alpha"));
        let b = NumericId::for_name(&n("beta"));
        assert_eq!(a.common_prefix(&a), NUMERIC_DIGITS);
        assert!(a.common_prefix(&b) < NUMERIC_DIGITS);
    }

    #[test]
    fn node_info_roundtrips_on_wire() {
        let info = NodeInfo::new(42, n("node-000042"));
        let bytes = info.to_bytes();
        let back = NodeInfo::from_bytes(&bytes).unwrap();
        assert_eq!(back, info);
    }

    #[test]
    fn further_clockwise_orders_candidates() {
        let from = n("a");
        assert!(further_clockwise(&from, &n("m"), &n("c")));
        assert!(!further_clockwise(&from, &n("c"), &n("m")));
        // With wraparound: from "x", "b" (wrapped) is further than "z".
        assert!(further_clockwise(&n("x"), &n("b"), &n("z")));
        assert!(!further_clockwise(&n("x"), &n("z"), &n("b")));
    }

    #[test]
    fn closer_clockwise_orders_candidates() {
        let from = n("f");
        assert!(closer_clockwise(&from, &n("g"), &n("k")));
        assert!(!closer_clockwise(&from, &n("k"), &n("g")));
        // Wraparound: from "x", "z" is closer than "b".
        assert!(closer_clockwise(&n("x"), &n("z"), &n("b")));
    }

    #[test]
    fn closer_counterclockwise_orders_candidates() {
        let from = n("m");
        assert!(closer_counterclockwise(&from, &n("k"), &n("c")));
        assert!(!closer_counterclockwise(&from, &n("c"), &n("k")));
        // Wraparound: from "c", "z" is ccw-closer than "x".
        assert!(closer_counterclockwise(&n("c"), &n("z"), &n("x")));
        assert!(!closer_counterclockwise(&n("c"), &n("x"), &n("z")));
    }
}
