//! SHA-1 (FIPS 180-1), implemented from scratch.
//!
//! The allowed dependency set contains no cryptographic hash, and the paper's
//! FUSE implementation piggybacks a 20-byte SHA-1 digest on overlay pings, so
//! we implement the function here. SHA-1 is cryptographically broken for
//! collision resistance, but the protocol only needs what the paper needed in
//! 2004: a compact fingerprint whose accidental collision probability is
//! negligible.
//!
//! Two implementations sit behind the one public API:
//!
//! * a **fully unrolled scalar** compression (80 rounds in the standard
//!   four-phase split, 16-word circular message schedule, register rotation
//!   by argument permutation instead of data moves) — the rolled loop
//!   topped out at ~0.27 GiB/s because the per-round `match` and the
//!   80-word schedule array defeated instruction-level parallelism;
//! * on x86-64 with the SHA extensions (runtime-detected), the **SHA-NI**
//!   block function (`sha1rnds4`/`sha1nexte`/`sha1msg1`/`sha1msg2`),
//!   several times faster again.
//!
//! [`reference`](mod@reference) preserves the original rolled
//! implementation and [`sha1_portable`] pins the scalar unrolled path;
//! differential tests hold all paths bit-identical over random inputs and
//! lengths.

/// A 20-byte SHA-1 digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 20]);

impl Digest {
    /// Digest of the empty message; used as the "no groups on this link"
    /// sentinel by the piggyback layer, on every ping of such a link — so a
    /// constant, not a hash run.
    pub const fn of_empty() -> Self {
        Digest([
            0xda, 0x39, 0xa3, 0xee, 0x5e, 0x6b, 0x4b, 0x0d, 0x32, 0x55, 0xbf, 0xef, 0x95, 0x60,
            0x18, 0x90, 0xaf, 0xd8, 0x07, 0x09,
        ])
    }

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
        write!(f, "sha1:{}", &self.to_hex()[..12])
    }
}

const K0: u32 = 0x5A827999;
const K1: u32 = 0x6ED9EBA1;
const K2: u32 = 0x8F1BBCDC;
const K3: u32 = 0xCA62C1D6;

/// One schedule expansion: `w[i & 15]` becomes word `i` (`i >= 16`),
/// overwriting the slot whose value is no longer needed.
macro_rules! sched {
    ($w:ident, $i:literal) => {{
        let t = $w[($i + 13) & 15] ^ $w[($i + 8) & 15] ^ $w[($i + 2) & 15] ^ $w[$i & 15];
        $w[$i & 15] = t.rotate_left(1);
        $w[$i & 15]
    }};
}

/// Round with f = Ch(b,c,d) (rounds 0–19), in the 3-op form
/// `d ^ (b & (c ^ d))`. The five state registers rotate by argument
/// permutation at the call sites, so each round is pure ALU work on locals:
/// no shuffling moves, no round-number branch.
macro_rules! r_ch {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $wi:expr) => {
        $e = $e
            .wrapping_add($a.rotate_left(5))
            .wrapping_add($d ^ ($b & ($c ^ $d)))
            .wrapping_add(K0)
            .wrapping_add($wi);
        $b = $b.rotate_left(30);
    };
}

/// Round with f = Parity(b,c,d) (rounds 20–39 and 60–79; `$k` picks the
/// phase constant).
macro_rules! r_par {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $k:expr, $wi:expr) => {
        $e = $e
            .wrapping_add($a.rotate_left(5))
            .wrapping_add($b ^ $c ^ $d)
            .wrapping_add($k)
            .wrapping_add($wi);
        $b = $b.rotate_left(30);
    };
}

/// Round with f = Maj(b,c,d) (rounds 40–59), in the 4-op form
/// `(b & c) | (d & (b | c))`.
macro_rules! r_maj {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $wi:expr) => {
        $e = $e
            .wrapping_add($a.rotate_left(5))
            .wrapping_add(($b & $c) | ($d & ($b | $c)))
            .wrapping_add(K2)
            .wrapping_add($wi);
        $b = $b.rotate_left(30);
    };
}

/// Fully unrolled SHA-1 compression of one 64-byte block into `state`.
fn compress(state: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for i in 0..16 {
        w[i] = u32::from_be_bytes([
            block[i * 4],
            block[i * 4 + 1],
            block[i * 4 + 2],
            block[i * 4 + 3],
        ]);
    }
    let [mut a, mut b, mut c, mut d, mut e] = *state;

    // Phase 1: Ch, rounds 0..16 from the block, 16..20 from the schedule.
    r_ch!(a, b, c, d, e, w[0]);
    r_ch!(e, a, b, c, d, w[1]);
    r_ch!(d, e, a, b, c, w[2]);
    r_ch!(c, d, e, a, b, w[3]);
    r_ch!(b, c, d, e, a, w[4]);
    r_ch!(a, b, c, d, e, w[5]);
    r_ch!(e, a, b, c, d, w[6]);
    r_ch!(d, e, a, b, c, w[7]);
    r_ch!(c, d, e, a, b, w[8]);
    r_ch!(b, c, d, e, a, w[9]);
    r_ch!(a, b, c, d, e, w[10]);
    r_ch!(e, a, b, c, d, w[11]);
    r_ch!(d, e, a, b, c, w[12]);
    r_ch!(c, d, e, a, b, w[13]);
    r_ch!(b, c, d, e, a, w[14]);
    r_ch!(a, b, c, d, e, w[15]);
    r_ch!(e, a, b, c, d, sched!(w, 16));
    r_ch!(d, e, a, b, c, sched!(w, 17));
    r_ch!(c, d, e, a, b, sched!(w, 18));
    r_ch!(b, c, d, e, a, sched!(w, 19));

    // Phase 2: Parity with K1, rounds 20..40.
    r_par!(a, b, c, d, e, K1, sched!(w, 20));
    r_par!(e, a, b, c, d, K1, sched!(w, 21));
    r_par!(d, e, a, b, c, K1, sched!(w, 22));
    r_par!(c, d, e, a, b, K1, sched!(w, 23));
    r_par!(b, c, d, e, a, K1, sched!(w, 24));
    r_par!(a, b, c, d, e, K1, sched!(w, 25));
    r_par!(e, a, b, c, d, K1, sched!(w, 26));
    r_par!(d, e, a, b, c, K1, sched!(w, 27));
    r_par!(c, d, e, a, b, K1, sched!(w, 28));
    r_par!(b, c, d, e, a, K1, sched!(w, 29));
    r_par!(a, b, c, d, e, K1, sched!(w, 30));
    r_par!(e, a, b, c, d, K1, sched!(w, 31));
    r_par!(d, e, a, b, c, K1, sched!(w, 32));
    r_par!(c, d, e, a, b, K1, sched!(w, 33));
    r_par!(b, c, d, e, a, K1, sched!(w, 34));
    r_par!(a, b, c, d, e, K1, sched!(w, 35));
    r_par!(e, a, b, c, d, K1, sched!(w, 36));
    r_par!(d, e, a, b, c, K1, sched!(w, 37));
    r_par!(c, d, e, a, b, K1, sched!(w, 38));
    r_par!(b, c, d, e, a, K1, sched!(w, 39));

    // Phase 3: Maj, rounds 40..60.
    r_maj!(a, b, c, d, e, sched!(w, 40));
    r_maj!(e, a, b, c, d, sched!(w, 41));
    r_maj!(d, e, a, b, c, sched!(w, 42));
    r_maj!(c, d, e, a, b, sched!(w, 43));
    r_maj!(b, c, d, e, a, sched!(w, 44));
    r_maj!(a, b, c, d, e, sched!(w, 45));
    r_maj!(e, a, b, c, d, sched!(w, 46));
    r_maj!(d, e, a, b, c, sched!(w, 47));
    r_maj!(c, d, e, a, b, sched!(w, 48));
    r_maj!(b, c, d, e, a, sched!(w, 49));
    r_maj!(a, b, c, d, e, sched!(w, 50));
    r_maj!(e, a, b, c, d, sched!(w, 51));
    r_maj!(d, e, a, b, c, sched!(w, 52));
    r_maj!(c, d, e, a, b, sched!(w, 53));
    r_maj!(b, c, d, e, a, sched!(w, 54));
    r_maj!(a, b, c, d, e, sched!(w, 55));
    r_maj!(e, a, b, c, d, sched!(w, 56));
    r_maj!(d, e, a, b, c, sched!(w, 57));
    r_maj!(c, d, e, a, b, sched!(w, 58));
    r_maj!(b, c, d, e, a, sched!(w, 59));

    // Phase 4: Parity with K3, rounds 60..80.
    r_par!(a, b, c, d, e, K3, sched!(w, 60));
    r_par!(e, a, b, c, d, K3, sched!(w, 61));
    r_par!(d, e, a, b, c, K3, sched!(w, 62));
    r_par!(c, d, e, a, b, K3, sched!(w, 63));
    r_par!(b, c, d, e, a, K3, sched!(w, 64));
    r_par!(a, b, c, d, e, K3, sched!(w, 65));
    r_par!(e, a, b, c, d, K3, sched!(w, 66));
    r_par!(d, e, a, b, c, K3, sched!(w, 67));
    r_par!(c, d, e, a, b, K3, sched!(w, 68));
    r_par!(b, c, d, e, a, K3, sched!(w, 69));
    r_par!(a, b, c, d, e, K3, sched!(w, 70));
    r_par!(e, a, b, c, d, K3, sched!(w, 71));
    r_par!(d, e, a, b, c, K3, sched!(w, 72));
    r_par!(c, d, e, a, b, K3, sched!(w, 73));
    r_par!(b, c, d, e, a, K3, sched!(w, 74));
    r_par!(a, b, c, d, e, K3, sched!(w, 75));
    r_par!(e, a, b, c, d, K3, sched!(w, 76));
    r_par!(d, e, a, b, c, K3, sched!(w, 77));
    r_par!(c, d, e, a, b, K3, sched!(w, 78));
    r_par!(b, c, d, e, a, K3, sched!(w, 79));

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
}

/// Compresses a run of whole 64-byte blocks, dispatching to the fastest
/// available implementation: SHA-NI when the CPU has it **and** the run is
/// at least two blocks (the XMM state load/shuffle/store around a single
/// block costs more than the unrolled scalar rounds save — measured ~2×
/// slower on one-shot 64 B inputs, which is what the piggyback digest
/// mostly hashes), else the unrolled scalar rounds.
fn compress_blocks(state: &mut [u32; 5], data: &[u8]) {
    debug_assert_eq!(data.len() % 64, 0);
    #[cfg(target_arch = "x86_64")]
    if data.len() >= 128 && shani::available() {
        // SAFETY: feature presence checked at runtime just above.
        unsafe { shani::compress_blocks(state, data) };
        return;
    }
    for block in data.chunks_exact(64) {
        compress(state, block.try_into().expect("64-byte chunk"));
    }
}

/// The x86-64 SHA-extensions block function — a faithful transliteration of
/// Intel's published `sha1rnds4` schedule (four rounds per step, message
/// words rotating through four XMM registers).
#[cfg(target_arch = "x86_64")]
mod shani {
    use std::arch::x86_64::*;

    /// Whether the running CPU has every extension the block function uses
    /// (`std` caches the detection, so steady-state calls are one relaxed
    /// atomic load).
    pub fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// One steady-state 4-round group: absorb `$m0` into the running E,
    /// advance ABCD, and push the message schedule one step.
    macro_rules! grp {
        ($abcd:ident, $e_in:ident, $e_out:ident, $m0:ident, $m1:ident, $m2:ident, $m3:ident, $f:literal) => {
            $e_in = _mm_sha1nexte_epu32($e_in, $m0);
            $e_out = $abcd;
            $m1 = _mm_sha1msg2_epu32($m1, $m0);
            $abcd = _mm_sha1rnds4_epu32::<$f>($abcd, $e_in);
            $m3 = _mm_sha1msg1_epu32($m3, $m0);
            $m2 = _mm_xor_si128($m2, $m0);
        };
    }

    /// # Safety
    /// Requires the `sha`, `ssse3` and `sse4.1` CPU features (see
    /// [`available`]); `data.len()` must be a multiple of 64.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub unsafe fn compress_blocks(state: &mut [u32; 5], data: &[u8]) {
        // Big-endian lane loads with the word order reversed to match the
        // ABCD register layout (A in the highest lane).
        let mask = _mm_set_epi64x(0x0001020304050607, 0x08090a0b0c0d0e0f);
        let mut abcd = _mm_loadu_si128(state.as_ptr().cast::<__m128i>());
        abcd = _mm_shuffle_epi32::<0x1B>(abcd);
        let mut e0 = _mm_set_epi32(state[4] as i32, 0, 0, 0);
        let mut e1;

        for block in data.chunks_exact(64) {
            let abcd_save = abcd;
            let e0_save = e0;
            let p = block.as_ptr().cast::<__m128i>();
            let mut msg0 = _mm_shuffle_epi8(_mm_loadu_si128(p), mask);
            let mut msg1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), mask);
            let mut msg2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), mask);
            let mut msg3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), mask);

            // Rounds 0–3: plain add, the E chain starts here.
            e0 = _mm_add_epi32(e0, msg0);
            e1 = abcd;
            abcd = _mm_sha1rnds4_epu32::<0>(abcd, e0);

            // Rounds 4–7.
            e1 = _mm_sha1nexte_epu32(e1, msg1);
            e0 = abcd;
            abcd = _mm_sha1rnds4_epu32::<0>(abcd, e1);
            msg0 = _mm_sha1msg1_epu32(msg0, msg1);

            // Rounds 8–11.
            e0 = _mm_sha1nexte_epu32(e0, msg2);
            e1 = abcd;
            abcd = _mm_sha1rnds4_epu32::<0>(abcd, e0);
            msg1 = _mm_sha1msg1_epu32(msg1, msg2);
            msg0 = _mm_xor_si128(msg0, msg2);

            // Rounds 12–15.
            e1 = _mm_sha1nexte_epu32(e1, msg3);
            e0 = abcd;
            msg0 = _mm_sha1msg2_epu32(msg0, msg3);
            abcd = _mm_sha1rnds4_epu32::<0>(abcd, e1);
            msg2 = _mm_sha1msg1_epu32(msg2, msg3);
            msg1 = _mm_xor_si128(msg1, msg3);

            // Rounds 16–67: thirteen steady-state groups.
            grp!(abcd, e0, e1, msg0, msg1, msg2, msg3, 0); // 16–19
            grp!(abcd, e1, e0, msg1, msg2, msg3, msg0, 1); // 20–23
            grp!(abcd, e0, e1, msg2, msg3, msg0, msg1, 1); // 24–27
            grp!(abcd, e1, e0, msg3, msg0, msg1, msg2, 1); // 28–31
            grp!(abcd, e0, e1, msg0, msg1, msg2, msg3, 1); // 32–35
            grp!(abcd, e1, e0, msg1, msg2, msg3, msg0, 1); // 36–39
            grp!(abcd, e0, e1, msg2, msg3, msg0, msg1, 2); // 40–43
            grp!(abcd, e1, e0, msg3, msg0, msg1, msg2, 2); // 44–47
            grp!(abcd, e0, e1, msg0, msg1, msg2, msg3, 2); // 48–51
            grp!(abcd, e1, e0, msg1, msg2, msg3, msg0, 2); // 52–55
            grp!(abcd, e0, e1, msg2, msg3, msg0, msg1, 2); // 56–59
            grp!(abcd, e1, e0, msg3, msg0, msg1, msg2, 3); // 60–63
            grp!(abcd, e0, e1, msg0, msg1, msg2, msg3, 3); // 64–67

            // Rounds 68–71: the schedule stops feeding msg1.
            e1 = _mm_sha1nexte_epu32(e1, msg1);
            e0 = abcd;
            msg2 = _mm_sha1msg2_epu32(msg2, msg1);
            abcd = _mm_sha1rnds4_epu32::<3>(abcd, e1);
            msg3 = _mm_xor_si128(msg3, msg1);

            // Rounds 72–75.
            e0 = _mm_sha1nexte_epu32(e0, msg2);
            e1 = abcd;
            msg3 = _mm_sha1msg2_epu32(msg3, msg2);
            abcd = _mm_sha1rnds4_epu32::<3>(abcd, e0);

            // Rounds 76–79.
            e1 = _mm_sha1nexte_epu32(e1, msg3);
            e0 = abcd;
            abcd = _mm_sha1rnds4_epu32::<3>(abcd, e1);

            // Fold back into the running state.
            e0 = _mm_sha1nexte_epu32(e0, e0_save);
            abcd = _mm_add_epi32(abcd, abcd_save);
        }

        abcd = _mm_shuffle_epi32::<0x1B>(abcd);
        _mm_storeu_si128(state.as_mut_ptr().cast::<__m128i>(), abcd);
        state[4] = _mm_extract_epi32::<3>(e0) as u32;
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
            if self.buf_len == 64 {
                let block = self.buf;
                compress_blocks(&mut self.state, &block);
                self.buf_len = 0;
            }
        }
        let whole = data.len() - data.len() % 64;
        if whole > 0 {
            compress_blocks(&mut self.state, &data[..whole]);
            data = &data[whole..];
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finalizes and returns the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.len_bytes.wrapping_mul(8);
        // Padding written in place: 0x80, zeros, then the 64-bit big-endian
        // bit length — one extra block only when fewer than 8 length bytes
        // fit after the terminator.
        let n = self.buf_len;
        self.buf[n] = 0x80;
        if n >= 56 {
            self.buf[n + 1..].fill(0);
            let block = self.buf;
            compress_blocks(&mut self.state, &block);
            self.buf.fill(0);
        } else {
            self.buf[n + 1..56].fill(0);
        }
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        compress_blocks(&mut self.state, &block);

        let mut out = [0u8; 20];
        for (i, w) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        Digest(out)
    }
}

/// One-shot SHA-1 of `data` (fastest available path).
pub fn sha1(data: &[u8]) -> Digest {
    let mut h = Sha1::new();
    h.update(data);
    h.finalize()
}

/// One-shot SHA-1 pinned to the **unrolled scalar** rounds, bypassing any
/// hardware block function — the portable hot path, kept callable so the
/// benchmarks can stake both levels and the differential tests can compare
/// all three implementations on any machine.
pub fn sha1_portable(data: &[u8]) -> Digest {
    let mut state = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];
    let mut block = [0u8; 64];
    let mut chunks = data.chunks_exact(64);
    for c in &mut chunks {
        block.copy_from_slice(c);
        compress(&mut state, &block);
    }
    let rest = chunks.remainder();
    block[..rest.len()].copy_from_slice(rest);
    block[rest.len()] = 0x80;
    if rest.len() >= 56 {
        block[rest.len() + 1..].fill(0);
        compress(&mut state, &block);
        block.fill(0);
    } else {
        block[rest.len() + 1..56].fill(0);
    }
    block[56..].copy_from_slice(&((data.len() as u64).wrapping_mul(8)).to_be_bytes());
    compress(&mut state, &block);
    let mut out = [0u8; 20];
    for (i, w) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
    }
    Digest(out)
}

/// The pre-unroll rolled implementation, preserved as the differential
/// reference: `reference::sha1(x) == sha1(x)` for all `x` (property-tested
/// over random lengths). Not used on any hot path.
pub mod reference {
    use super::Digest;

    fn compress(state: &mut [u32; 5], block: &[u8; 64]) {
        let mut w = [0u32; 80];
        for i in 0..16 {
            w[i] = u32::from_be_bytes([
                block[i * 4],
                block[i * 4 + 1],
                block[i * 4 + 2],
                block[i * 4 + 3],
            ]);
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        let [mut a, mut b, mut c, mut d, mut e] = *state;
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | ((!b) & d), super::K0),
                20..=39 => (b ^ c ^ d, super::K1),
                40..=59 => ((b & c) | (b & d) | (c & d), super::K2),
                _ => (b ^ c ^ d, super::K3),
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
        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
    }

    /// One-shot rolled-loop SHA-1 (reference for the unrolled hot path).
    pub fn sha1(data: &[u8]) -> Digest {
        let mut state = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];
        let mut block = [0u8; 64];
        let mut chunks = data.chunks_exact(64);
        for c in &mut chunks {
            block.copy_from_slice(c);
            compress(&mut state, &block);
        }
        let rest = chunks.remainder();
        block[..rest.len()].copy_from_slice(rest);
        block[rest.len()] = 0x80;
        if rest.len() >= 56 {
            block[rest.len() + 1..].fill(0);
            compress(&mut state, &block);
            block.fill(0);
        } else {
            block[rest.len() + 1..56].fill(0);
        }
        block[56..].copy_from_slice(&((data.len() as u64).wrapping_mul(8)).to_be_bytes());
        compress(&mut state, &block);
        let mut out = [0u8; 20];
        for (i, w) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        Digest(out)
    }
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
        assert_eq!(Digest::of_empty(), sha1(b""));
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

    #[test]
    fn all_implementations_agree_at_all_padding_boundaries() {
        // 0..=130 crosses both the one-block and two-block padding edges
        // (55/56 and 119/120 bytes); `sha1` exercises SHA-NI when present.
        let data: Vec<u8> = (0..131u16)
            .map(|i| (i.wrapping_mul(97) % 256) as u8)
            .collect();
        for len in 0..=data.len() {
            let expect = reference::sha1(&data[..len]);
            assert_eq!(sha1(&data[..len]), expect, "auto path, len {len}");
            assert_eq!(sha1_portable(&data[..len]), expect, "scalar, len {len}");
        }
    }

    #[test]
    fn digest_is_20_bytes_as_the_paper_states() {
        assert_eq!(std::mem::size_of::<Digest>(), 20);
    }
}
