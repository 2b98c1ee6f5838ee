//! SHA-1 (FIPS 180-1), implemented from scratch.
//!
//! The allowed dependency set contains no cryptographic hash, and overlay
//! node names are placed on the ring by the SHA-1 of the name, so we
//! implement the function here. SHA-1 is cryptographically broken for
//! collision resistance, but the overlay only needs what the paper needed
//! in 2004: a compact fingerprint whose accidental collision probability
//! is negligible.
//!
//! One portable block function, the textbook rolled loop, does all the
//! work. A node name is at most 23 bytes, so a digest compresses one
//! block, padding included (DESIGN.md §4.1). Faster block functions pay
//! off only on long inputs, which never occur.
//!
//! The paper piggybacks a SHA-1 of a link's FUSE IDs on every ping. FUSE
//! here sends the same 20 bytes, a [`Digest`], but keeps it as an XOR
//! fold that an install or teardown updates in place (`fuse_core`'s
//! `layer/tree.rs`), so no ping runs this function.

/// A 20-byte digest: a SHA-1 output, or a link's piggybacked fold.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 20]);

impl Digest {
    /// All zero bytes: the identity of the XOR fold FUSE keeps as a link's
    /// digest, so the digest of a link no group monitors. The overlay
    /// hands it up for a ping or ack that carries no digest, and FUSE
    /// compares it with a link it keeps no record of.
    pub const ZERO: Digest = Digest([0; 20]);

    /// Hex rendering, mostly for debugging and test assertions.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(40);
        for b in self.0 {
            use std::fmt::Write as _;
            write!(s, "{b:02x}").expect("write to String cannot fail");
        }
        s
    }
}

impl std::fmt::Debug for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "digest:{}", &self.to_hex()[..12])
    }
}

/// SHA-1 compression of one 64-byte block into `state`.
fn compress(state: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 80];
    for (wi, word) in w.iter_mut().zip(block.chunks_exact(4)) {
        *wi = u32::from_be_bytes(word.try_into().expect("4-byte word"));
    }
    for i in 16..80 {
        w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
    }
    let [mut a, mut b, mut c, mut d, mut e] = *state;
    for (i, &wi) in w.iter().enumerate() {
        let (f, k) = match i {
            0..=19 => ((b & c) | ((!b) & d), 0x5A827999),
            20..=39 => (b ^ c ^ d, 0x6ED9EBA1),
            40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1BBCDC),
            _ => (b ^ c ^ d, 0xCA62C1D6),
        };
        let tmp = a
            .rotate_left(5)
            .wrapping_add(f)
            .wrapping_add(e)
            .wrapping_add(k)
            .wrapping_add(wi);
        e = d;
        d = c;
        c = b.rotate_left(30);
        b = a;
        a = tmp;
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e]) {
        *s = s.wrapping_add(v);
    }
}

/// Incremental SHA-1 hasher.
#[derive(Clone)]
pub struct Sha1 {
    state: [u32; 5],
    len_bytes: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Sha1::new()
    }
}

impl Sha1 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Sha1 {
            state: [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0],
            len_bytes: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Feeds `data` into the hash.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len_bytes = self.len_bytes.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            compress(&mut self.state, block.try_into().expect("64-byte block"));
        }
        let rest = blocks.remainder();
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Finalizes and returns the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.len_bytes.wrapping_mul(8);
        // Padding written in place: 0x80, zeros, then the 64-bit big-endian
        // bit length — one extra block only when fewer than 8 length bytes
        // fit after the terminator.
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n >= 56 {
            compress(&mut self.state, &self.buf);
            self.buf.fill(0);
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buf);

        let mut out = [0u8; 20];
        for (o, w) in out.chunks_exact_mut(4).zip(self.state) {
            o.copy_from_slice(&w.to_be_bytes());
        }
        Digest(out)
    }
}

/// One-shot SHA-1 of `data`.
pub fn sha1(data: &[u8]) -> Digest {
    let mut h = Sha1::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fips_180_1_vectors() {
        assert_eq!(
            sha1(b"abc").to_hex(),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
        assert_eq!(
            sha1(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
        assert_eq!(
            sha1(b"").to_hex(),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
    }

    #[test]
    fn million_a_vector() {
        let mut h = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            h.finalize().to_hex(),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn incremental_equals_oneshot_at_every_split() {
        let data: Vec<u8> = (0..257u16).map(|i| (i % 251) as u8).collect();
        let expect = sha1(&data);
        for split in 0..data.len() {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expect, "split at {split}");
        }
    }

    /// Known answers from an independent implementation (Python's
    /// `hashlib.sha1`, cross-checked with coreutils `sha1sum`), at the
    /// lengths around both padding edges (55/56 and 119/120 bytes), the
    /// block edges and many blocks.
    #[test]
    fn known_answers_at_padding_and_block_boundaries() {
        let data: Vec<u8> = (0..4096u32).map(|i| (i * 97 % 256) as u8).collect();
        let known = [
            (0, "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
            (1, "5ba93c9db0cff93f52b521d7420e43f6eda2784f"),
            (55, "7178ef9da8e7d991dd83ef389cc73e00076f903f"),
            (56, "410d8d72cb058f7572fc10a996d05e1aab0ba0d1"),
            (63, "c59ad75e88a6a38ddb54b3835e42a637b478a36c"),
            (64, "4fb6b3aed0f37db92c4d2a19d2c39156c8650d42"),
            (65, "c4d0d4d3be36443575f42a86e74350e4eaa38356"),
            (119, "32f34a3c13f26ffa964dafafa4ae249bd6cc550f"),
            (120, "99fd338dce7d6f2653ed055ca1882a4ac26a2e77"),
            (128, "7a7665343b8e5005590ec1687a7fd52b8f44728e"),
            (4096, "98f5ad3079b23b7e70f3163214be901602f54ea9"),
        ];
        for (len, hex) in known {
            assert_eq!(sha1(&data[..len]).to_hex(), hex, "len {len}");
        }
    }

    #[test]
    fn digest_is_20_bytes_as_the_paper_states() {
        assert_eq!(std::mem::size_of::<Digest>(), 20);
    }
}
