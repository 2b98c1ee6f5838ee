//! Wire-format primitives for the FUSE reproduction.
//!
//! Two facilities live here:
//!
//! * [`codec`] — a compact, deterministic binary encoding with explicit
//!   [`Encode`]/[`Decode`] implementations for every protocol message.
//!   Encoding is **single-pass**: every impl carries an exact arithmetic
//!   [`Encode::size_hint`], so sizing never runs a counting encode and
//!   encoding into a reusable [`EncodeBuf`] is allocation-free in steady
//!   state. Byte accounting in the experiments (e.g. the 20-byte piggyback
//!   hash of paper §7.5) remains exact — the hints are property-tested
//!   against real encodings, and [`codec::twopass`] preserves the original
//!   two-pass path as the differential reference.
//! * [`sha1`](mod@sha1) — SHA-1, implemented from scratch as one portable
//!   rolled-loop block function and validated against the FIPS 180-1 test
//!   vectors and known answers from an independent implementation; it
//!   names overlay nodes. The paper piggybacks "a SHA1 hash (20 bytes)" of
//!   the jointly-monitored FUSE ID list on overlay ping requests (§6.1);
//!   the same 20 bytes travel here as a [`Digest`] that FUSE keeps as an
//!   XOR fold, with [`Digest::ZERO`] for a link no group monitors.

pub mod codec;
pub mod sha1;

pub use codec::{varint_len, Decode, DecodeError, Encode, EncodeBuf, Reader, Writer, MAX_FRAME};
pub use sha1::{sha1, Digest, Sha1};
