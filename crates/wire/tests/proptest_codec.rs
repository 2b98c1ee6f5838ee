//! Property tests for the wire codec: round-trip fidelity, decoder
//! robustness against arbitrary (hostile) inputs, and the single-pass
//! contracts — `size_hint()` exactness and bit-identity between the
//! single-pass path (plain `to_bytes`, reusable `EncodeBuf`) and the
//! preserved two-pass reference (`codec::twopass`).

use bytes::Bytes;
use fuse_wire::codec::twopass;
use fuse_wire::{sha1, varint_len, Decode, Encode, EncodeBuf};
use proptest::prelude::*;

/// The full single-pass-vs-two-pass equivalence check for one value.
fn assert_encode_equivalence<T: Encode>(v: &T) -> Result<(), TestCaseError> {
    let single = v.to_bytes();
    let two = twopass::to_bytes(v);
    prop_assert_eq!(&single[..], &two[..], "single-pass != two-pass bytes");
    prop_assert_eq!(single.len(), twopass::counted_size(v), "wire size drifted");
    prop_assert_eq!(single.len(), v.wire_size());
    prop_assert!(v.size_hint() >= single.len(), "size_hint() must bound len");
    prop_assert_eq!(v.size_hint(), single.len(), "hints are exact in-tree");
    let mut buf = EncodeBuf::new();
    prop_assert_eq!(buf.encode(v), &single[..], "EncodeBuf bytes differ");
    Ok(())
}

proptest! {
    #[test]
    fn varint_roundtrip(v in any::<u64>()) {
        let b = v.to_bytes();
        prop_assert_eq!(u64::from_bytes(&b).unwrap(), v);
        prop_assert_eq!(b.len(), v.wire_size());
        prop_assert_eq!(b.len(), varint_len(v));
    }

    /// Single-pass == two-pass, and hints are exact, across the primitive
    /// and composite impls the protocol messages are built from.
    #[test]
    fn encode_equivalence_for_primitives_and_composites(
        a in any::<u64>(),
        b in any::<u32>(),
        c in any::<u16>(),
        d in any::<u8>(),
        flag in any::<bool>(),
        s in ".{0,48}",
        v in prop::collection::vec(any::<u64>(), 0..24),
        pairs in prop::collection::vec((any::<u64>(), any::<u32>()), 0..16),
        raw in prop::collection::vec(any::<u8>(), 0..96),
        some in any::<bool>(),
    ) {
        assert_encode_equivalence(&a)?;
        assert_encode_equivalence(&b)?;
        assert_encode_equivalence(&c)?;
        assert_encode_equivalence(&d)?;
        assert_encode_equivalence(&flag)?;
        assert_encode_equivalence(&s.to_string())?;
        assert_encode_equivalence(&v)?;
        assert_encode_equivalence(&pairs)?;
        assert_encode_equivalence(&sha1(&raw))?;
        let bytes = Bytes::from(raw);
        assert_encode_equivalence(&bytes)?;
        let opt = if some { Some((a, bytes)) } else { None };
        assert_encode_equivalence(&opt)?;
    }

    /// A reused `EncodeBuf` must produce the same bytes regardless of what
    /// it encoded before (no stale-state bleed between messages).
    #[test]
    fn encode_buf_reuse_is_stateless(
        msgs in prop::collection::vec(prop::collection::vec(any::<u64>(), 0..32), 1..8)
    ) {
        let mut buf = EncodeBuf::new();
        for m in &msgs {
            prop_assert_eq!(buf.encode(m), &m.to_bytes()[..]);
        }
        // And in reverse order, same buffer.
        for m in msgs.iter().rev() {
            prop_assert_eq!(buf.encode(m), &m.to_bytes()[..]);
        }
    }

    #[test]
    fn string_roundtrip(s in ".{0,64}") {
        let owned = s.to_string();
        let b = owned.to_bytes();
        prop_assert_eq!(String::from_bytes(&b).unwrap(), owned);
    }

    #[test]
    fn vec_of_pairs_roundtrip(v in prop::collection::vec((any::<u64>(), any::<u32>()), 0..32)) {
        let b = v.to_bytes();
        prop_assert_eq!(Vec::<(u64, u32)>::from_bytes(&b).unwrap(), v);
    }

    #[test]
    fn option_bytes_roundtrip(payload in prop::collection::vec(any::<u8>(), 0..128), some in any::<bool>()) {
        let v = if some { Some(Bytes::from(payload)) } else { None };
        let b = v.to_bytes();
        prop_assert_eq!(Option::<Bytes>::from_bytes(&b).unwrap(), v);
    }

    /// The decoder must never panic on arbitrary input — only return
    /// errors. (This is the property that makes hostile peers survivable.)
    #[test]
    fn decoder_never_panics_on_garbage(data in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = u64::from_bytes(&data);
        let _ = String::from_bytes(&data);
        let _ = Vec::<u64>::from_bytes(&data);
        let _ = Option::<Bytes>::from_bytes(&data);
        let _ = fuse_wire::Digest::from_bytes(&data);
    }

    /// Truncating a valid encoding must produce an error, never a panic or
    /// a silent success (except the degenerate zero-truncation).
    #[test]
    fn truncation_is_detected(v in prop::collection::vec(any::<u64>(), 1..16), cut in 1usize..8) {
        let b = v.to_bytes();
        let cut = cut.min(b.len());
        let truncated = &b[..b.len() - cut];
        prop_assert!(Vec::<u64>::from_bytes(truncated).is_err());
    }

    /// Incremental SHA-1 equals one-shot on arbitrary splits, for inputs
    /// up to 64 blocks long, so the buffer carries across many blocks.
    #[test]
    fn sha1_incremental_equals_oneshot(data in prop::collection::vec(any::<u8>(), 0..4097), split in any::<prop::sample::Index>()) {
        let k = split.index(data.len() + 1);
        let mut h = fuse_wire::Sha1::new();
        h.update(&data[..k]);
        h.update(&data[k..]);
        prop_assert_eq!(h.finalize(), sha1(&data));
    }
}
