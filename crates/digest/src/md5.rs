//! The MD5 compression function and streaming state machine (RFC 1321).

/// Length of an MD5 digest in bytes.
pub const DIGEST_LEN: usize = 16;

pub(crate) const BLOCK_LEN: usize = 64;

/// The RFC 1321 initialization vector: the chaining state before any
/// block.
pub(crate) const IV: [u32; 4] = [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476];

/// Per-step left-rotate amounts (RFC 1321 §3.4), as the looped
/// reference looks them up.
#[cfg(test)]
const S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
];

/// Sine-derived additive constants: `floor(2^32 * |sin(i+1)|)`.
pub(crate) const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// Streaming MD5 hasher.
#[derive(Clone)]
pub struct Md5 {
    state: [u32; 4],
    /// Total message length in bytes so far.
    len: u64,
    /// Partial block awaiting 64 bytes.
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
}

impl Default for Md5 {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5 {
    /// Fresh hasher with the RFC 1321 initialization vector.
    pub fn new() -> Self {
        Md5 {
            state: IV,
            len: 0,
            buf: [0u8; BLOCK_LEN],
            buf_len: 0,
        }
    }

    /// Total number of message bytes absorbed so far.
    pub fn bytes_processed(&self) -> u64 {
        self.len
    }

    /// Absorb `data` into the hash state.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let need = BLOCK_LEN - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < BLOCK_LEN {
                // Buffer still partial: the remainder path below would
                // clobber buf_len with the (empty) remainder length.
                return;
            }
            let block = self.buf;
            self.compress(&block);
            self.buf_len = 0;
        }
        let mut chunks = data.chunks_exact(BLOCK_LEN);
        for block in &mut chunks {
            // chunks_exact guarantees the length; convert without copy.
            let block: &[u8; BLOCK_LEN] = block.try_into().expect("exact chunk");
            self.compress(block);
        }
        let rem = chunks.remainder();
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buf_len = rem.len();
    }

    /// Apply RFC 1321 padding and return the digest, consuming the hasher.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        // One 0x80 byte, zeros until length ≡ 56 (mod 64), then the
        // message length in bits, little-endian, in one update.
        let mut pad = [0u8; BLOCK_LEN + 8];
        pad[0] = 0x80;
        let zeros = (BLOCK_LEN + 55 - self.buf_len) % BLOCK_LEN;
        pad[1 + zeros..9 + zeros].copy_from_slice(&self.len.wrapping_mul(8).to_le_bytes());
        self.update(&pad[..9 + zeros]);
        debug_assert_eq!(self.buf_len, 0, "padding ends on a block boundary");

        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// One 64-byte block through the 64 steps of RFC 1321 §3.4, written
    /// out so that every message index, rotation and constant is fixed
    /// at compile time.
    fn compress(&mut self, block: &[u8; BLOCK_LEN]) {
        let m = words(block);
        let [mut a, mut b, mut c, mut d] = self.state;
        // Each step's `b` is the previous step's result, so the 64 steps
        // are one serial chain. Each round function adds itself to
        // `t = a + m[k] + K[i]` with every part that does not need `b`
        // grouped apart, so only the `b` operations wait on the previous
        // step. Same truth tables as the RFC's; G's two terms never
        // share a set bit, so its `|` is a `+`.
        let f = |t: u32, b: u32, c: u32, d: u32| t.wrapping_add(d ^ (b & (c ^ d)));
        let g = |t: u32, b: u32, c: u32, d: u32| t.wrapping_add(c & !d).wrapping_add(b & d);
        let h = |t: u32, b: u32, c: u32, d: u32| t.wrapping_add(b ^ (c ^ d));
        let i = |t: u32, b: u32, c: u32, d: u32| t.wrapping_add(c ^ (b | !d));
        // a = b + ((a + m[k] + K[i] + fun(b, c, d)) <<< s)
        macro_rules! step {
            ($fun:ident, $a:ident, $b:ident, $c:ident, $d:ident, $k:expr, $s:expr, $i:expr) => {
                let t = $a.wrapping_add(m[$k]).wrapping_add(K[$i]);
                $a = $b.wrapping_add($fun(t, $b, $c, $d).rotate_left($s));
            };
        }
        // Round 1: F, message words in order.
        step!(f, a, b, c, d, 0, 7, 0);
        step!(f, d, a, b, c, 1, 12, 1);
        step!(f, c, d, a, b, 2, 17, 2);
        step!(f, b, c, d, a, 3, 22, 3);
        step!(f, a, b, c, d, 4, 7, 4);
        step!(f, d, a, b, c, 5, 12, 5);
        step!(f, c, d, a, b, 6, 17, 6);
        step!(f, b, c, d, a, 7, 22, 7);
        step!(f, a, b, c, d, 8, 7, 8);
        step!(f, d, a, b, c, 9, 12, 9);
        step!(f, c, d, a, b, 10, 17, 10);
        step!(f, b, c, d, a, 11, 22, 11);
        step!(f, a, b, c, d, 12, 7, 12);
        step!(f, d, a, b, c, 13, 12, 13);
        step!(f, c, d, a, b, 14, 17, 14);
        step!(f, b, c, d, a, 15, 22, 15);
        // Round 2: G, word (5i + 1) mod 16.
        step!(g, a, b, c, d, 1, 5, 16);
        step!(g, d, a, b, c, 6, 9, 17);
        step!(g, c, d, a, b, 11, 14, 18);
        step!(g, b, c, d, a, 0, 20, 19);
        step!(g, a, b, c, d, 5, 5, 20);
        step!(g, d, a, b, c, 10, 9, 21);
        step!(g, c, d, a, b, 15, 14, 22);
        step!(g, b, c, d, a, 4, 20, 23);
        step!(g, a, b, c, d, 9, 5, 24);
        step!(g, d, a, b, c, 14, 9, 25);
        step!(g, c, d, a, b, 3, 14, 26);
        step!(g, b, c, d, a, 8, 20, 27);
        step!(g, a, b, c, d, 13, 5, 28);
        step!(g, d, a, b, c, 2, 9, 29);
        step!(g, c, d, a, b, 7, 14, 30);
        step!(g, b, c, d, a, 12, 20, 31);
        // Round 3: H, word (3i + 5) mod 16.
        step!(h, a, b, c, d, 5, 4, 32);
        step!(h, d, a, b, c, 8, 11, 33);
        step!(h, c, d, a, b, 11, 16, 34);
        step!(h, b, c, d, a, 14, 23, 35);
        step!(h, a, b, c, d, 1, 4, 36);
        step!(h, d, a, b, c, 4, 11, 37);
        step!(h, c, d, a, b, 7, 16, 38);
        step!(h, b, c, d, a, 10, 23, 39);
        step!(h, a, b, c, d, 13, 4, 40);
        step!(h, d, a, b, c, 0, 11, 41);
        step!(h, c, d, a, b, 3, 16, 42);
        step!(h, b, c, d, a, 6, 23, 43);
        step!(h, a, b, c, d, 9, 4, 44);
        step!(h, d, a, b, c, 12, 11, 45);
        step!(h, c, d, a, b, 15, 16, 46);
        step!(h, b, c, d, a, 2, 23, 47);
        // Round 4: I, word 7i mod 16.
        step!(i, a, b, c, d, 0, 6, 48);
        step!(i, d, a, b, c, 7, 10, 49);
        step!(i, c, d, a, b, 14, 15, 50);
        step!(i, b, c, d, a, 5, 21, 51);
        step!(i, a, b, c, d, 12, 6, 52);
        step!(i, d, a, b, c, 3, 10, 53);
        step!(i, c, d, a, b, 10, 15, 54);
        step!(i, b, c, d, a, 1, 21, 55);
        step!(i, a, b, c, d, 8, 6, 56);
        step!(i, d, a, b, c, 15, 10, 57);
        step!(i, c, d, a, b, 6, 15, 58);
        step!(i, b, c, d, a, 13, 21, 59);
        step!(i, a, b, c, d, 4, 6, 60);
        step!(i, d, a, b, c, 11, 10, 61);
        step!(i, c, d, a, b, 2, 15, 62);
        step!(i, b, c, d, a, 9, 21, 63);

        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
    }
}

/// A block's sixteen little-endian message words.
fn words(block: &[u8; BLOCK_LEN]) -> [u32; 16] {
    let mut m = [0u32; 16];
    for (w, bytes) in m.iter_mut().zip(block.chunks_exact(4)) {
        *w = u32::from_le_bytes(bytes.try_into().expect("4-byte word"));
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The looped compression function, one step per iteration with the
    /// round function, message index and rotation looked up: the
    /// reference the straight-line `Md5::compress` is checked against.
    fn compress_reference(state: &mut [u32; 4], block: &[u8; BLOCK_LEN]) {
        let m = words(block);
        let [mut a, mut b, mut c, mut d] = *state;
        for i in 0..64 {
            let (f, g) = match i / 16 {
                0 => ((b & c) | (!b & d), i),
                1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                2 => (b ^ c ^ d, (3 * i + 5) % 16),
                _ => (c ^ (b | !d), (7 * i) % 16),
            };
            let tmp = d;
            d = c;
            c = b;
            b = b.wrapping_add(
                a.wrapping_add(f)
                    .wrapping_add(K[i])
                    .wrapping_add(m[g])
                    .rotate_left(S[i]),
            );
            a = tmp;
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d]) {
            *s = s.wrapping_add(v);
        }
    }

    /// One-shot MD5 of `data`: RFC 1321 padding, then every block
    /// through the reference compression.
    fn reference_md5(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut state = Md5::new().state;
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % BLOCK_LEN != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64).wrapping_mul(8).to_le_bytes());
        for block in padded.chunks_exact(BLOCK_LEN) {
            compress_reference(&mut state, block.try_into().expect("exact chunk"));
        }
        let mut out = [0u8; DIGEST_LEN];
        for (o, w) in out.chunks_exact_mut(4).zip(state) {
            o.copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    #[test]
    fn empty_digest_is_iv_transform() {
        // Smoke: finalize of empty input must equal the RFC vector.
        let d = Md5::new().finalize();
        assert_eq!(
            d,
            [
                0xd4, 0x1d, 0x8c, 0xd9, 0x8f, 0x00, 0xb2, 0x04, 0xe9, 0x80, 0x09, 0x98, 0xec, 0xf8,
                0x42, 0x7e
            ]
        );
    }

    proptest! {
        /// The straight-line compression equals the looped reference on
        /// any chaining state and block.
        #[test]
        fn compress_matches_reference(
            state in proptest::collection::vec(any::<u32>(), 4..5),
            block in proptest::collection::vec(any::<u8>(), BLOCK_LEN..BLOCK_LEN + 1),
        ) {
            let state: [u32; 4] = state.try_into().expect("4 words");
            let block: &[u8; BLOCK_LEN] = block.as_slice().try_into().expect("one block");
            let mut h = Md5::new();
            h.state = state;
            h.compress(block);
            let mut want = state;
            compress_reference(&mut want, block);
            prop_assert_eq!(h.state, want);
        }

        /// Streaming through `update` in arbitrary pieces gives the
        /// reference digest, across block and padding boundaries.
        #[test]
        fn streaming_matches_reference(
            data in proptest::collection::vec(any::<u8>(), 0..1024),
            cuts in proptest::collection::vec(0usize..200, 0..16),
        ) {
            let mut h = Md5::new();
            let mut rest = &data[..];
            for c in cuts {
                let (piece, tail) = rest.split_at(c.min(rest.len()));
                h.update(piece);
                rest = tail;
            }
            h.update(rest);
            prop_assert_eq!(h.finalize(), reference_md5(&data));
        }
    }

    #[test]
    fn padding_counts_only_message_bytes() {
        // 64-byte message: padding adds a full extra block, and the
        // encoded bit length must be 512, not 512 + padding.
        let mut h = Md5::new();
        h.update(&[0xab; 64]);
        assert_eq!(h.bytes_processed(), 64);
        let _ = h.finalize(); // must not panic / loop forever
    }
}
