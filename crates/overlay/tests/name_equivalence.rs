//! The inline ring name against the `String` it replaced: ring order, ring
//! positions, arc geometry, the next hop over preloaded tables, wire bytes,
//! numeric IDs, `Hash`, `Debug` and `Display` must all agree for every text
//! of 0–23 bytes, and a hostile length prefix or body must decode to an
//! error.

use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};

use fuse_overlay::id::{
    closer_clockwise, closer_counterclockwise, further_clockwise, NodeName, NAME_CAP,
    NUMERIC_DIGITS,
};
use fuse_overlay::{NodeInfo, NumericId, OverlayConfig, OverlayMsg, OverlayNode};
use fuse_wire::{sha1, Decode, DecodeError, Encode};
use proptest::prelude::*;

/// Characters of 1 to 4 bytes, with NUL and DEL, so that generated names
/// often share prefixes and differ in padding-sensitive places.
const ALPHABET: [char; 8] = ['\0', 'a', 'b', 'z', '\u{7f}', 'é', '中', '𝕏'];

/// Appends characters while the text stays within `NAME_CAP` bytes.
fn fit(chars: impl IntoIterator<Item = char>) -> String {
    let mut s = String::new();
    for c in chars {
        if s.len() + c.len_utf8() > NAME_CAP {
            break;
        }
        s.push(c);
    }
    s
}

fn text() -> BoxedStrategy<String> {
    prop_oneof![
        prop::collection::vec(0usize..ALPHABET.len(), 0..24)
            .prop_map(|ix| fit(ix.into_iter().map(|i| ALPHABET[i]))),
        ".{0,23}".prop_map(|s| fit(s.chars())),
    ]
    .boxed()
}

/// Ring names for one set of tables: the alphabet's texts, texts that
/// share their first 16 bytes (`stem`) and differ after it, and 22-byte
/// `probe-<hex>` targets as maintenance names them, half of them sharing
/// their first 16 bytes too.
fn ring_text(stem: &str) -> BoxedStrategy<String> {
    let stem = stem.to_owned();
    let probe = prop_oneof![any::<u64>(), 0u64..4096];
    prop_oneof![
        text(),
        prop::collection::vec(0usize..ALPHABET.len(), 0..8)
            .prop_map(move |ix| fit(stem.chars().chain(ix.into_iter().map(|i| ALPHABET[i])))),
        probe.prop_map(|v| format!("probe-{v:016x}")),
    ]
    .boxed()
}

/// A node's name, a target, and the names in its clockwise and
/// counterclockwise leaf sets (up to eight each) and routing levels (up to
/// eight, two optional slots each).
type Case = (
    String,
    String,
    Vec<String>,
    Vec<String>,
    Vec<(Option<String>, Option<String>)>,
);

fn tables() -> impl Strategy<Value = Case> {
    "[a-z0-9]{16}".prop_flat_map(|stem| {
        let t = || ring_text(&stem);
        let slot = || prop::option::of(t());
        (
            t(),
            t(),
            prop::collection::vec(t(), 0..9),
            prop::collection::vec(t(), 0..9),
            prop::collection::vec((slot(), slot()), 0..9),
        )
    })
}

fn name(s: &str) -> NodeName {
    NodeName::new(s).expect("generated texts fit")
}

// The ring geometry as it was written over `String` names.

fn arc_contains(from: &str, to: &str, x: &str) -> bool {
    if from == to {
        return x != from;
    }
    if from < to {
        x > from && x <= to
    } else {
        x > from || x <= to
    }
}

/// The next hop as it was chosen over `String` names: among the entries in
/// table order, the first one inside `(me → target]`, replaced by each later
/// one further clockwise.
fn next_hop(me: &str, target: &str, entries: &[(u32, String)]) -> Option<u32> {
    if target == me {
        return None;
    }
    let further = |a: &str, b: &str| a != b && arc_contains(me, a, b);
    entries
        .iter()
        .filter(|(_, c)| arc_contains(me, target, c))
        .reduce(|b, c| if further(&c.1, &b.1) { c } else { b })
        .map(|(proc, _)| *proc)
}

fn numeric_digits(s: &str) -> Vec<u8> {
    let d = sha1(s.as_bytes());
    (0..NUMERIC_DIGITS)
        .map(|i| {
            let (byte, off) = (i * 3 / 8, i * 3 % 8);
            let word = (u16::from(d.0[byte]) << 8) | u16::from(d.0[(byte + 1) % 20]);
            ((word >> (16 - 3 - off)) & 0x7) as u8
        })
        .collect()
}

proptest! {
    #[test]
    fn order_and_arcs_match_string_names(a in text(), b in text(), x in text()) {
        let (na, nb, nx) = (name(&a), name(&b), name(&x));
        prop_assert_eq!(na.cmp(&nb), a.cmp(&b));
        prop_assert_eq!(na.ring_pos().cmp(&nb.ring_pos()), a.cmp(&b));
        prop_assert_eq!(na == nb, a == b);
        // Inside the arc, and at either end of it.
        for (n, s) in [(&nx, &x), (&na, &a), (&nb, &b)] {
            prop_assert_eq!(na.arc_contains(&nb, n), arc_contains(&a, &b, s));
        }
        prop_assert_eq!(
            further_clockwise(&nx, &na, &nb),
            na != nb && arc_contains(&x, &a, &b)
        );
        prop_assert_eq!(
            closer_clockwise(&nx, &na, &nb),
            na != nb && arc_contains(&x, &b, &a)
        );
        prop_assert_eq!(
            closer_counterclockwise(&nx, &na, &nb),
            a != b && a != x && arc_contains(&b, &x, &a)
        );
    }

    #[test]
    fn next_hop_matches_string_names(case in tables()) {
        let (me, target, cw, ccw, levels) = case;
        // Each entry's address is its place in table order (clockwise
        // leaves, counterclockwise leaves, then each level's ccw and cw
        // slots), so a tie between equal names shows which one won.
        let mut entries: Vec<(u32, String)> = Vec::new();
        let mut info = |s: &String| {
            let proc = entries.len() as u32;
            entries.push((proc, s.clone()));
            NodeInfo::new(proc, name(s))
        };
        let cw: Vec<NodeInfo> = cw.iter().map(&mut info).collect();
        let ccw: Vec<NodeInfo> = ccw.iter().map(&mut info).collect();
        let rtable: Vec<[Option<NodeInfo>; 2]> = levels
            .iter()
            .map(|(l, r)| [l.as_ref().map(&mut info), r.as_ref().map(&mut info)])
            .collect();
        let mut node = OverlayNode::new(
            NodeInfo::new(u32::MAX, name(&me)),
            None,
            OverlayConfig::default(),
        );
        node.preload_tables(cw, ccw, rtable);
        prop_assert_eq!(
            node.next_hop(&name(&target)),
            next_hop(&me, &target, &entries)
        );
    }

    #[test]
    fn wire_hash_and_text_match_string_names(s in text(), proc in any::<u32>()) {
        let n = name(&s);
        prop_assert_eq!(&n.to_bytes()[..], &s.to_bytes()[..]);
        prop_assert_eq!(n.size_hint(), s.size_hint());
        prop_assert_eq!(NodeName::from_bytes(&s.to_bytes()), Ok(n));
        let info = NodeInfo::new(proc, n);
        prop_assert_eq!(NodeInfo::from_bytes(&info.to_bytes()), Ok(info));
        let id = NumericId::for_name(&n);
        let digits: Vec<u8> = (0..NUMERIC_DIGITS).map(|level| id.digit(level)).collect();
        prop_assert_eq!(digits, numeric_digits(&s));
        let hasher = BuildHasherDefault::<DefaultHasher>::default();
        prop_assert_eq!(hasher.hash_one(n), hasher.hash_one(&s));
        prop_assert_eq!(n.as_str(), s.as_str());
        prop_assert_eq!(n.to_string(), s.clone());
        prop_assert_eq!(format!("{n:?}"), format!("NodeName({s:?})"));
    }
}

#[test]
fn ring_positions_add_no_bytes() {
    // A position is read from the name when it is needed, never stored:
    // names and table entries keep their size.
    assert_eq!(std::mem::size_of::<NodeName>(), 24);
    assert_eq!(std::mem::size_of::<NodeInfo>(), 28);
}

#[test]
fn names_longer_than_the_cap_are_refused() {
    assert!(NodeName::new(&"x".repeat(NAME_CAP)).is_some());
    assert_eq!(NodeName::new(&"x".repeat(NAME_CAP + 1)), None);
    // A multibyte character that would straddle the cap does not fit.
    assert_eq!(
        NodeName::new(&format!("{}é", "x".repeat(NAME_CAP - 1))),
        None
    );
}

#[test]
fn every_name_the_system_uses_fits() {
    assert_eq!(NodeName::numbered(0).as_str(), "node-000000");
    assert_eq!(NodeName::numbered(999_999).as_str().len(), 11);
    assert_eq!(
        NodeName::numbered(999_999_999_999_999_999).as_str().len(),
        NAME_CAP
    );
    assert!(NodeName::new(&format!("probe-{:016x}", u64::MAX)).is_some());
    assert!(NodeName::new("scores/football/final").is_some());
}

#[test]
fn hostile_names_decode_to_errors() {
    let long = |len: usize| {
        let mut frame = len.to_bytes().to_vec();
        frame.extend(vec![b'a'; len]);
        frame
    };
    let too_long = DecodeError::Invalid("name longer than NAME_CAP");
    assert!(NodeName::from_bytes(&long(NAME_CAP)).is_ok());
    assert_eq!(
        NodeName::from_bytes(&long(NAME_CAP + 1)),
        Err(too_long.clone())
    );
    assert_eq!(NodeName::from_bytes(&long(4096)), Err(too_long.clone()));
    // A huge length prefix with no body behind it is refused by its value
    // alone, before anything is read or reserved for it.
    for len in [u64::from(u32::MAX), u64::MAX] {
        assert_eq!(NodeName::from_bytes(&len.to_bytes()), Err(too_long.clone()));
    }
    assert_eq!(
        NodeName::from_bytes(&[5, b'a', b'b']),
        Err(DecodeError::Truncated)
    );
    assert_eq!(NodeName::from_bytes(&[]), Err(DecodeError::Truncated));
    let utf8 = DecodeError::Invalid("utf-8");
    assert_eq!(NodeName::from_bytes(&[2, 0xff, 0xfe]), Err(utf8.clone()));
    // A character cut in half by the length is not UTF-8 either.
    assert_eq!(NodeName::from_bytes(&[1, 0xc3, 0xa9]), Err(utf8));
    // The same bytes inside a routed frame fail the whole frame.
    let routed = OverlayMsg::Routed {
        src: NodeInfo::new(1, NodeName::numbered(1)),
        target: NodeName::numbered(2),
        ttl: 8,
        class: 0,
        payload: bytes::Bytes::new(),
        path: Vec::new(),
    };
    let mut frame = routed.to_bytes().to_vec();
    // The target's length byte; ttl, class and two empty lengths follow.
    let at = frame.len() - NodeName::numbered(2).size_hint() - 4;
    assert_eq!(frame[at], 11);
    frame[at] = NAME_CAP as u8 + 1;
    assert!(OverlayMsg::from_bytes(&frame).is_err());
}
