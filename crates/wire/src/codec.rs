//! Compact deterministic binary codec — single-pass on the hot path.
//!
//! Protocol messages implement [`Encode`]/[`Decode`] by hand (the codebase
//! avoids proc-macro dependencies). Integers use LEB128 varints, so small
//! values — the common case for counters and indices — cost one byte;
//! fixed-width forms are available where the paper specifies exact sizes
//! (the 20-byte SHA-1 digest travels as raw bytes).
//!
//! # The size-hint contract
//!
//! Every [`Encode`] impl provides [`size_hint`](Encode::size_hint): a cheap
//! arithmetic bound on the encoded length with the contract
//!
//! > `encoded_len <= size_hint()`, and for every type in this workspace the
//! > bound is **exact** (`encoded_len == size_hint()`).
//!
//! Exactness is what makes the encode path single-pass: sizing a message for
//! byte accounting ([`Encode::wire_size`]) is pure arithmetic — no counting
//! encode — and encoding reserves once and writes once. A type whose hint is
//! a loose upper bound must override `wire_size` (none in this workspace
//! does; the property tests pin hints to encoded lengths for every protocol
//! message).
//!
//! # Steady-state, allocation-free encoding
//!
//! [`EncodeBuf`] is a reusable encode scratch owned by long-lived components
//! (`FuseLayer`, benchmark loops): [`EncodeBuf::encode`] clears, reserves
//! `size_hint()` and encodes in one pass, returning the borrowed bytes —
//! zero allocations once the buffer has warmed up to the largest message.
//! [`EncodeBuf::encode_to_bytes`] does the same pass and pays exactly one
//! allocation for the owned [`Bytes`].
//!
//! The pre-PR-3 two-pass path (count via [`twopass::CountWriter`], then grow
//! a fresh buffer) is preserved in [`twopass`] as the reference
//! implementation; differential tests hold the single-pass path bit-identical
//! to it.

use bytes::Bytes;

use crate::sha1::Digest;

/// Encoding sink. Implemented for `Vec<u8>` (the single-pass buffer) and
/// for the two-pass reference writers in [`twopass`].
pub trait Writer {
    /// Appends raw bytes.
    fn put(&mut self, bytes: &[u8]);
}

impl Writer for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Reusable single-pass encode buffer.
///
/// Owned by long-lived components so steady-state encodes neither size-count
/// nor allocate: the backing `Vec` is cleared (capacity retained) and
/// reserved to the message's exact [`size_hint`](Encode::size_hint) before
/// the one encode pass.
#[derive(Clone, Default)]
pub struct EncodeBuf {
    buf: Vec<u8>,
}

impl EncodeBuf {
    /// Creates an empty buffer (it warms up on first use).
    pub fn new() -> Self {
        EncodeBuf::default()
    }

    /// Creates a buffer with `cap` bytes pre-reserved.
    pub fn with_capacity(cap: usize) -> Self {
        EncodeBuf {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Encodes `v` in a single pass and returns the encoded bytes,
    /// borrowed from the reusable buffer. Allocation-free once the buffer
    /// capacity covers the message size.
    pub fn encode<'a, T: Encode + ?Sized>(&'a mut self, v: &T) -> &'a [u8] {
        self.buf.clear();
        let hint = v.size_hint();
        self.buf.reserve(hint);
        v.encode(&mut self.buf);
        debug_assert!(
            self.buf.len() <= hint,
            "size_hint violated: encoded {} bytes, hint {}",
            self.buf.len(),
            hint
        );
        &self.buf
    }

    /// Encodes `v` in a single pass into an owned [`Bytes`]; costs exactly
    /// the one allocation the owned buffer needs.
    pub fn encode_to_bytes<T: Encode + ?Sized>(&mut self, v: &T) -> Bytes {
        Bytes::copy_from_slice(self.encode(v))
    }

    /// Encodes `v` as one stream frame, `u32-LE length ‖ payload`, in a
    /// single pass (the framing `fuse-node` speaks over TCP). Same
    /// allocation behaviour as [`encode`](EncodeBuf::encode).
    pub fn encode_frame<'a, T: Encode + ?Sized>(&'a mut self, v: &T) -> &'a [u8] {
        self.buf.clear();
        self.buf.reserve(4 + v.size_hint());
        self.buf.extend_from_slice(&[0; 4]);
        v.encode(&mut self.buf);
        let len = u32::try_from(self.buf.len() - 4).expect("frame payload exceeds u32::MAX bytes");
        self.buf[..4].copy_from_slice(&len.to_le_bytes());
        &self.buf
    }

    /// Current capacity of the backing buffer.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}

/// Number of bytes the LEB128 encoding of `v` occupies (1..=10).
#[inline]
pub fn varint_len(v: u64) -> usize {
    // ceil(significant_bits / 7), with v == 0 still costing one byte.
    let bits = 64 - (v | 1).leading_zeros() as usize;
    bits.div_ceil(7)
}

/// Decoding error: truncated input or invalid representation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the value was complete.
    Truncated,
    /// A length prefix or discriminant was out of range.
    Invalid(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated input"),
            DecodeError::Invalid(what) => write!(f, "invalid encoding: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Decoding cursor over a byte slice.
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// Remaining undecoded bytes.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Takes `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Fails unless the whole input was consumed.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::Invalid("trailing bytes"))
        }
    }
}

/// Value that can be written to the wire.
pub trait Encode {
    /// Encodes `self` into `w`.
    fn encode(&self, w: &mut dyn Writer);

    /// Cheap arithmetic bound on the encoded length: `encoded_len <=
    /// size_hint()`, exact for every type in this workspace (see the module
    /// docs for the contract).
    fn size_hint(&self) -> usize;

    /// Exact on-wire size in bytes. Defaults to [`size_hint`], which is
    /// exact for every impl here; a type with a loose hint must override
    /// this with a real count (e.g. [`twopass::counted_size`]).
    ///
    /// [`size_hint`]: Encode::size_hint
    fn wire_size(&self) -> usize {
        self.size_hint()
    }

    /// Convenience: single-pass encode into a fresh owned buffer (the
    /// buffer is reserved to `size_hint()` up front — no re-count, no
    /// growth). Hot paths should prefer a reusable [`EncodeBuf`].
    fn to_bytes(&self) -> Bytes {
        let hint = self.size_hint();
        let mut v = Vec::with_capacity(hint);
        self.encode(&mut v);
        debug_assert!(
            v.len() <= hint,
            "size_hint violated: encoded {} bytes, hint {hint}",
            v.len()
        );
        Bytes::from(v)
    }
}

/// Value that can be read back from the wire.
pub trait Decode: Sized {
    /// Decodes one value, advancing the reader.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;

    /// Convenience: decodes a complete buffer, rejecting trailing bytes.
    fn from_bytes(data: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(data);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

/// The pre-single-pass reference path: size by a counting encode, build
/// bytes by growing a buffer. Kept so differential tests can hold the
/// single-pass codec bit-identical (and size-identical) to the original
/// two-pass implementation; not used on any hot path.
pub mod twopass {
    use super::{Encode, Writer};
    use bytes::{BufMut, Bytes, BytesMut};

    /// Buffer-backed writer producing [`Bytes`] (reference path).
    #[derive(Default)]
    pub struct BufWriter {
        buf: BytesMut,
    }

    impl BufWriter {
        /// Creates an empty writer.
        pub fn new() -> Self {
            BufWriter::default()
        }

        /// Finishes, returning the encoded bytes.
        pub fn into_bytes(self) -> Bytes {
            self.buf.freeze()
        }
    }

    impl Writer for BufWriter {
        fn put(&mut self, bytes: &[u8]) {
            self.buf.put_slice(bytes);
        }
    }

    /// Size-only writer: counts bytes without storing them.
    #[derive(Default)]
    pub struct CountWriter {
        count: usize,
    }

    impl CountWriter {
        /// Creates a zeroed counter.
        pub fn new() -> Self {
            CountWriter::default()
        }

        /// Bytes "written" so far.
        pub fn count(&self) -> usize {
            self.count
        }
    }

    impl Writer for CountWriter {
        fn put(&mut self, bytes: &[u8]) {
            self.count += bytes.len();
        }
    }

    /// On-wire size by running a full counting encode (the original
    /// `wire_size`).
    pub fn counted_size<T: Encode + ?Sized>(v: &T) -> usize {
        let mut c = CountWriter::new();
        v.encode(&mut c);
        c.count()
    }

    /// Encoded bytes by growing a fresh buffer (the original `to_bytes`).
    pub fn to_bytes<T: Encode + ?Sized>(v: &T) -> Bytes {
        let mut w = BufWriter::new();
        v.encode(&mut w);
        w.into_bytes()
    }
}

/// Writes a LEB128 varint (staged on the stack: one `Writer::put` virtual
/// call per varint, not one per byte).
pub fn put_varint(w: &mut dyn Writer, mut v: u64) {
    let mut buf = [0u8; 10];
    let mut n = 0;
    loop {
        let mut byte = (v & 0x7f) as u8;
        v >>= 7;
        if v != 0 {
            byte |= 0x80;
        }
        buf[n] = byte;
        n += 1;
        if v == 0 {
            break;
        }
    }
    w.put(&buf[..n]);
}

/// Reads a LEB128 varint.
pub fn get_varint(r: &mut Reader<'_>) -> Result<u64, DecodeError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = r.take(1)?[0];
        if shift == 63 && byte > 1 {
            return Err(DecodeError::Invalid("varint overflow"));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(DecodeError::Invalid("varint too long"));
        }
    }
}

impl Encode for u64 {
    fn encode(&self, w: &mut dyn Writer) {
        put_varint(w, *self);
    }

    fn size_hint(&self) -> usize {
        varint_len(*self)
    }
}

impl Decode for u64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        get_varint(r)
    }
}

impl Encode for u32 {
    fn encode(&self, w: &mut dyn Writer) {
        put_varint(w, u64::from(*self));
    }

    fn size_hint(&self) -> usize {
        varint_len(u64::from(*self))
    }
}

impl Decode for u32 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let v = get_varint(r)?;
        u32::try_from(v).map_err(|_| DecodeError::Invalid("u32 overflow"))
    }
}

impl Encode for u16 {
    fn encode(&self, w: &mut dyn Writer) {
        put_varint(w, u64::from(*self));
    }

    fn size_hint(&self) -> usize {
        varint_len(u64::from(*self))
    }
}

impl Decode for u16 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let v = get_varint(r)?;
        u16::try_from(v).map_err(|_| DecodeError::Invalid("u16 overflow"))
    }
}

impl Encode for u8 {
    fn encode(&self, w: &mut dyn Writer) {
        w.put(&[*self]);
    }

    fn size_hint(&self) -> usize {
        1
    }
}

impl Decode for u8 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(r.take(1)?[0])
    }
}

impl Encode for bool {
    fn encode(&self, w: &mut dyn Writer) {
        w.put(&[u8::from(*self)]);
    }

    fn size_hint(&self) -> usize {
        1
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Invalid("bool")),
        }
    }
}

impl Encode for usize {
    fn encode(&self, w: &mut dyn Writer) {
        put_varint(w, *self as u64);
    }

    fn size_hint(&self) -> usize {
        varint_len(*self as u64)
    }
}

impl Decode for usize {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let v = get_varint(r)?;
        usize::try_from(v).map_err(|_| DecodeError::Invalid("usize overflow"))
    }
}

impl Encode for String {
    fn encode(&self, w: &mut dyn Writer) {
        put_varint(w, self.len() as u64);
        w.put(self.as_bytes());
    }

    fn size_hint(&self) -> usize {
        varint_len(self.len() as u64) + self.len()
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = get_varint(r)? as usize;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::Invalid("utf-8"))
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut dyn Writer) {
        put_varint(w, self.len() as u64);
        for item in self {
            item.encode(w);
        }
    }

    fn size_hint(&self) -> usize {
        varint_len(self.len() as u64) + self.iter().map(Encode::size_hint).sum::<usize>()
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = get_varint(r)? as usize;
        // Guard against absurd length prefixes on truncated input.
        if len > r.remaining().saturating_mul(8).saturating_add(16) {
            return Err(DecodeError::Invalid("length prefix too large"));
        }
        let mut out = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut dyn Writer) {
        match self {
            None => w.put(&[0]),
            Some(v) => {
                w.put(&[1]);
                v.encode(w);
            }
        }
    }

    fn size_hint(&self) -> usize {
        1 + self.as_ref().map_or(0, Encode::size_hint)
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.take(1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(DecodeError::Invalid("option tag")),
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, w: &mut dyn Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }

    fn size_hint(&self) -> usize {
        self.0.size_hint() + self.1.size_hint()
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl Encode for Bytes {
    fn encode(&self, w: &mut dyn Writer) {
        put_varint(w, self.len() as u64);
        w.put(self);
    }

    fn size_hint(&self) -> usize {
        varint_len(self.len() as u64) + self.len()
    }
}

impl Decode for Bytes {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = get_varint(r)? as usize;
        let raw = r.take(len)?;
        Ok(Bytes::copy_from_slice(raw))
    }
}

impl Encode for Digest {
    fn encode(&self, w: &mut dyn Writer) {
        // Fixed 20 bytes, exactly as the paper's piggyback hash.
        w.put(&self.0);
    }

    fn size_hint(&self) -> usize {
        20
    }
}

impl Decode for Digest {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let raw = r.take(20)?;
        let mut d = [0u8; 20];
        d.copy_from_slice(raw);
        Ok(Digest(d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(bytes.len(), v.wire_size());
        assert_eq!(bytes.len(), v.size_hint(), "hints are exact in-tree");
        assert_eq!(
            bytes.len(),
            twopass::counted_size(&v),
            "single-pass size disagrees with the counting reference"
        );
        assert_eq!(
            &bytes[..],
            &twopass::to_bytes(&v)[..],
            "single-pass bytes disagree with the two-pass reference"
        );
        let back = T::from_bytes(&bytes).expect("decode");
        assert_eq!(back, v);
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            roundtrip(v);
        }
    }

    #[test]
    fn varint_len_matches_encoding() {
        for shift in 0..64 {
            for delta in [0u64, 1] {
                let v = (1u64 << shift).wrapping_sub(delta);
                assert_eq!(varint_len(v), v.to_bytes().len(), "v = {v:#x}");
            }
        }
        assert_eq!(varint_len(0), 1);
        assert_eq!(varint_len(u64::MAX), 10);
    }

    #[test]
    fn varint_is_compact_for_small_values() {
        assert_eq!(5u64.wire_size(), 1);
        assert_eq!(127u64.wire_size(), 1);
        assert_eq!(128u64.wire_size(), 2);
    }

    #[test]
    fn truncated_varint_fails() {
        let mut r = Reader::new(&[0x80]);
        assert_eq!(get_varint(&mut r), Err(DecodeError::Truncated));
    }

    #[test]
    fn overlong_varint_fails() {
        let bytes = [0xff; 11];
        let mut r = Reader::new(&bytes);
        assert!(get_varint(&mut r).is_err());
    }

    #[test]
    fn strings_and_vecs_roundtrip() {
        roundtrip(String::from("fuse-group-1"));
        roundtrip(String::new());
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(Some(42u64));
        roundtrip(Option::<u64>::None);
        roundtrip((7u64, String::from("x")));
    }

    #[test]
    fn digest_is_exactly_20_wire_bytes() {
        let d = crate::sha1::sha1(b"group list");
        assert_eq!(d.wire_size(), 20);
        roundtrip(d);
    }

    #[test]
    fn encode_buf_reuses_capacity_and_matches_to_bytes() {
        let mut buf = EncodeBuf::new();
        let msgs: Vec<Vec<u64>> = vec![vec![1, 2, 3], vec![u64::MAX; 64], vec![]];
        // Warm up on the largest message, then ensure later encodes reuse.
        let _ = buf.encode(&msgs[1]);
        let cap = buf.capacity();
        for m in &msgs {
            assert_eq!(buf.encode(m), &m.to_bytes()[..]);
        }
        assert_eq!(buf.capacity(), cap, "warmed buffer must not reallocate");
        let owned = buf.encode_to_bytes(&msgs[0]);
        assert_eq!(&owned[..], &msgs[0].to_bytes()[..]);
    }

    #[test]
    fn encode_frame_is_length_prefix_then_reference_bytes() {
        let mut buf = EncodeBuf::new();
        for m in [vec![], vec![1u64, 2, 3], vec![u64::MAX; 64], vec![7]] {
            let payload = twopass::to_bytes(&m);
            let frame = buf.encode_frame(&m);
            assert_eq!(frame[..4], (payload.len() as u32).to_le_bytes());
            assert_eq!(&frame[4..], &payload[..]);
        }
    }

    #[test]
    fn invalid_bool_and_option_tags_fail() {
        assert!(bool::from_bytes(&[2]).is_err());
        assert!(Option::<u8>::from_bytes(&[9]).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        assert!(u8::from_bytes(&[1, 2]).is_err());
    }

    #[test]
    fn hostile_length_prefix_is_rejected() {
        // Vec claims 2^40 elements with 1 byte of payload.
        let mut b = Vec::new();
        put_varint(&mut b, 1 << 40);
        b.push(0);
        assert!(Vec::<u64>::from_bytes(&b).is_err());
    }
}
