//! MD5 of several independent inputs at once.
//!
//! One MD5 is a serial chain: each of a block's 64 steps waits on the
//! step before, so a lone hash runs at the latency of that chain and
//! leaves most of the core idle. Independent inputs, such as a ranged
//! attempt's 64 KiB blocks, have independent chains. With AVX2, eight
//! of them run side by side, one per 32-bit lane of a 256-bit register:
//! the same 64 steps, applied to eight chaining states at once. Each
//! 64-byte chunk's message words are transposed so that register `k`
//! holds word `k` of every lane's chunk. The lanes stop after the last
//! whole chunk, and each lane's tail and padding are finished by the
//! scalar [`Md5`](crate::Md5), resumed from that lane's chaining state.
//! Lanes must be of one length, so each group of inputs is first split
//! by length.

use crate::md5::DIGEST_LEN;

/// Inputs hashed side by side in one multi-lane pass.
pub const LANES: usize = 8;

/// The MD5 of each input, in order, equal byte for byte to
/// [`crate::md5`] of each.
///
/// Inputs are taken [`LANES`] at a time, and each group is split by
/// length. Two or more inputs of one length run in AVX2 lanes
/// when the CPU has AVX2 (detected at run time); an input whose length
/// no other in its group shares, or any input without AVX2, is hashed
/// alone with the scalar [`Md5`](crate::Md5). So a stream's short last
/// block costs a scalar pass for itself alone, not for its group.
pub fn md5_many(inputs: &[&[u8]]) -> Vec<[u8; DIGEST_LEN]> {
    let lens: Vec<usize> = inputs.iter().map(|d| d.len()).collect();
    let mut out = vec![[0; DIGEST_LEN]; inputs.len()];
    for pass in plan(&lens) {
        let group: Vec<&[u8]> = pass.iter().map(|&i| inputs[i]).collect();
        #[cfg(target_arch = "x86_64")]
        if group.len() > 1 && is_x86_feature_detected!("avx2") {
            // SAFETY: `is_x86_feature_detected!("avx2")` just found AVX2
            // on this CPU, the one requirement of `avx2::lanes`.
            let states = unsafe { avx2::lanes(&group) };
            for ((&i, data), state) in pass.iter().zip(&group).zip(states) {
                out[i] = avx2::finish(data, state);
            }
            continue;
        }
        for (&i, digest) in pass.iter().zip(md5_each(&group)) {
            out[i] = digest;
        }
    }
    out
}

/// The passes [`md5_many`] makes over inputs of lengths `lens`: the
/// indices of each [`LANES`]-sized group, split into classes of one
/// length, in order of each class's first input. A class of two or more
/// is one multi-lane pass; a class of one is hashed alone.
pub(crate) fn plan(lens: &[usize]) -> Vec<Vec<usize>> {
    let mut passes: Vec<Vec<usize>> = Vec::new();
    for (g, group) in lens.chunks(LANES).enumerate() {
        let first = passes.len();
        for (i, &len) in group.iter().enumerate() {
            let i = g * LANES + i;
            match passes[first..].iter_mut().find(|p| lens[p[0]] == len) {
                Some(pass) => pass.push(i),
                None => passes.push(vec![i]),
            }
        }
    }
    passes
}

/// The scalar path: each input through its own [`Md5`](crate::Md5).
fn md5_each<'a>(inputs: &'a [&[u8]]) -> impl Iterator<Item = [u8; DIGEST_LEN]> + 'a {
    inputs.iter().map(|data| crate::md5(data))
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    use super::LANES;
    use crate::md5::{Md5, BLOCK_LEN, DIGEST_LEN, IV, K};

    /// The digest of `data`, given the chaining state after its whole
    /// 64-byte chunks: the tail and padding through a resumed [`Md5`].
    pub(super) fn finish(data: &[u8], state: [u32; 4]) -> [u8; DIGEST_LEN] {
        let whole = data.len() - data.len() % BLOCK_LEN;
        let mut h = Md5::resume(state, whole as u64);
        h.update(&data[whole..]);
        h.finalize()
    }

    /// The chaining state of each input after the whole 64-byte chunks
    /// of the shortest one, the inputs side by side in the eight 32-bit
    /// lanes of AVX2 registers. Lanes past `inputs.len()` repeat the
    /// first input and their states are discarded by the caller.
    #[target_feature(enable = "avx2")]
    pub(super) fn lanes(inputs: &[&[u8]]) -> [[u32; 4]; LANES] {
        let mut lane: [&[u8]; LANES] = [&[]; LANES];
        for (i, l) in lane.iter_mut().enumerate() {
            *l = inputs.get(i).or(inputs.first()).copied().unwrap_or(&[]);
        }
        let chunks = lane.iter().map(|d| d.len()).min().unwrap_or(0) / BLOCK_LEN;
        let mut state = IV.map(|w| _mm256_set1_epi32(w.cast_signed()));
        for c in 0..chunks {
            compress(&mut state, &words(&lane, c * BLOCK_LEN));
        }
        let mut out = [[0u32; 4]; LANES];
        for (j, v) in state.into_iter().enumerate() {
            let mut w = [0u32; LANES];
            // SAFETY: `w` is eight `u32`s, the 32 bytes one unaligned
            // store writes; AVX2 is enabled on this function, which
            // `md5_many` calls only after `is_x86_feature_detected!`.
            unsafe { _mm256_storeu_si256(w.as_mut_ptr().cast(), v) };
            for (o, x) in out.iter_mut().zip(w) {
                o[j] = x;
            }
        }
        out
    }

    /// The sixteen message words of every lane's chunk at `offset`,
    /// register `k` holding word `k` of each lane (little-endian, as
    /// x86 loads them).
    #[target_feature(enable = "avx2")]
    fn words(lane: &[&[u8]; LANES], offset: usize) -> [__m256i; 16] {
        let mut lo = [_mm256_setzero_si256(); LANES];
        let mut hi = lo;
        for ((l, h), data) in lo.iter_mut().zip(&mut hi).zip(lane) {
            let chunk = &data[offset..offset + BLOCK_LEN];
            // SAFETY: `chunk` is 64 bytes long, two unaligned 32-byte
            // loads; AVX2 is enabled on this function, reached only
            // after `is_x86_feature_detected!("avx2")` in `md5_many`.
            unsafe {
                *l = _mm256_loadu_si256(chunk.as_ptr().cast());
                *h = _mm256_loadu_si256(chunk[32..].as_ptr().cast());
            }
        }
        let mut m = [_mm256_setzero_si256(); 16];
        m[..8].copy_from_slice(&transpose(lo));
        m[8..].copy_from_slice(&transpose(hi));
        m
    }

    /// 8×8 transpose of 32-bit elements: row `i` of the result holds
    /// element `i` of every input row.
    #[target_feature(enable = "avx2")]
    fn transpose(r: [__m256i; 8]) -> [__m256i; 8] {
        // Pairs of rows interleaved, then pairs of pairs: each 128-bit
        // half now holds one element of four rows.
        let t0 = _mm256_unpacklo_epi32(r[0], r[1]);
        let t1 = _mm256_unpackhi_epi32(r[0], r[1]);
        let t2 = _mm256_unpacklo_epi32(r[2], r[3]);
        let t3 = _mm256_unpackhi_epi32(r[2], r[3]);
        let t4 = _mm256_unpacklo_epi32(r[4], r[5]);
        let t5 = _mm256_unpackhi_epi32(r[4], r[5]);
        let t6 = _mm256_unpacklo_epi32(r[6], r[7]);
        let t7 = _mm256_unpackhi_epi32(r[6], r[7]);
        let u0 = _mm256_unpacklo_epi64(t0, t2);
        let u1 = _mm256_unpackhi_epi64(t0, t2);
        let u2 = _mm256_unpacklo_epi64(t1, t3);
        let u3 = _mm256_unpackhi_epi64(t1, t3);
        let u4 = _mm256_unpacklo_epi64(t4, t6);
        let u5 = _mm256_unpackhi_epi64(t4, t6);
        let u6 = _mm256_unpacklo_epi64(t5, t7);
        let u7 = _mm256_unpackhi_epi64(t5, t7);
        // Rows 0–3 and rows 4–7 of one element joined across halves:
        // the low halves give elements 0–3, the high halves 4–7.
        [
            _mm256_permute2x128_si256::<0x20>(u0, u4),
            _mm256_permute2x128_si256::<0x20>(u1, u5),
            _mm256_permute2x128_si256::<0x20>(u2, u6),
            _mm256_permute2x128_si256::<0x20>(u3, u7),
            _mm256_permute2x128_si256::<0x31>(u0, u4),
            _mm256_permute2x128_si256::<0x31>(u1, u5),
            _mm256_permute2x128_si256::<0x31>(u2, u6),
            _mm256_permute2x128_si256::<0x31>(u3, u7),
        ]
    }

    /// One 64-byte chunk per lane through the 64 steps of RFC 1321
    /// §3.4: `Md5::compress`, eight lanes wide. AVX2 has no rotate, so
    /// each rotation is two shifts and an or.
    #[target_feature(enable = "avx2")]
    fn compress(state: &mut [__m256i; 4], m: &[__m256i; 16]) {
        let [mut a, mut b, mut c, mut d] = *state;
        let add = |x, y| _mm256_add_epi32(x, y);
        let ones = _mm256_set1_epi32(-1);
        let f = |b, c, d| _mm256_xor_si256(d, _mm256_and_si256(b, _mm256_xor_si256(c, d)));
        let g = |b, c, d| add(_mm256_andnot_si256(d, c), _mm256_and_si256(b, d));
        let h = |b, c, d| _mm256_xor_si256(b, _mm256_xor_si256(c, d));
        let i = |b, c, d| _mm256_xor_si256(c, _mm256_or_si256(b, _mm256_xor_si256(d, ones)));
        // a = b + ((a + m[k] + K[i] + fun(b, c, d)) <<< s)
        macro_rules! step {
            ($fun:ident, $a:ident, $b:ident, $c:ident, $d:ident, $k:expr, $s:expr, $i:expr) => {
                let t = add(add($a, m[$k]), _mm256_set1_epi32(K[$i].cast_signed()));
                let t = add(t, $fun($b, $c, $d));
                let rotated = _mm256_or_si256(
                    _mm256_slli_epi32::<{ $s }>(t),
                    _mm256_srli_epi32::<{ 32 - $s }>(t),
                );
                $a = add($b, rotated);
            };
        }
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
        for (s, v) in state.iter_mut().zip([a, b, c, d]) {
            *s = add(*s, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::md5;
    use proptest::prelude::*;

    fn data(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i.wrapping_mul(131) as u8) ^ seed.wrapping_mul(97))
            .collect()
    }

    /// Per-input `md5`, the reference every path must equal.
    fn reference(inputs: &[&[u8]]) -> Vec<[u8; DIGEST_LEN]> {
        inputs.iter().map(|d| md5(d)).collect()
    }

    #[test]
    fn equal_lengths_match_per_input_md5_at_padding_boundaries() {
        for len in [0usize, 1, 55, 56, 63, 64, 65, 65_536] {
            for n in 0..=LANES {
                let owned: Vec<Vec<u8>> = (0..n).map(|s| data(len, s as u8)).collect();
                let inputs: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
                assert_eq!(md5_many(&inputs), reference(&inputs), "len {len}, n {n}");
            }
        }
    }

    /// Unequal lengths split a group by length, and more than `LANES`
    /// inputs are taken a group at a time.
    #[test]
    fn unequal_lengths_and_more_than_a_group() {
        let owned: Vec<Vec<u8>> = [64usize, 64, 65_536, 1000, 64, 64, 64, 64, 64, 64, 7]
            .iter()
            .enumerate()
            .map(|(s, &len)| data(len, s as u8))
            .collect();
        let inputs: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
        assert_eq!(md5_many(&inputs), reference(&inputs));
        assert_eq!(md5_many(&inputs[..3]), reference(&inputs[..3]));
    }

    /// Each group of `LANES` splits by length: equal lengths share a
    /// multi-lane pass, and an odd one out is hashed alone. Seven full
    /// blocks and a short last one are a pass of seven and one scalar
    /// input, not eight scalar inputs.
    #[test]
    fn plan_groups_equal_lengths_and_hashes_the_odd_one_alone() {
        const B: usize = 65_536;
        assert_eq!(plan(&[]), Vec::<Vec<usize>>::new());
        assert_eq!(plan(&[B; 8]), vec![(0..8).collect::<Vec<_>>()]);
        let tail = [B, B, B, B, B, B, B, 1000];
        assert_eq!(plan(&tail), vec![(0..7).collect(), vec![7]]);
        // Classes keep input order, in order of their first input.
        assert_eq!(
            plan(&[5, B, 5, 7, B]),
            vec![vec![0, 2], vec![1, 4], vec![3]]
        );
        // Groups never mix: the ninth input starts a group of its own,
        // though its length matches the first eight.
        assert_eq!(plan(&[B; 10]), vec![(0..8).collect::<Vec<_>>(), vec![8, 9]]);
        let owned: Vec<Vec<u8>> = tail
            .iter()
            .enumerate()
            .map(|(s, &len)| data(len, s as u8))
            .collect();
        let inputs: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
        assert_eq!(md5_many(&inputs), reference(&inputs));
    }

    /// The scalar path, reached directly whatever the CPU has.
    #[test]
    fn scalar_path_matches_md5() {
        let owned: Vec<Vec<u8>> = (0..3).map(|s| data(1000 + s, s as u8)).collect();
        let inputs: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
        assert_eq!(md5_each(&inputs).collect::<Vec<_>>(), reference(&inputs));
    }

    proptest! {
        /// Up to `LANES` equal-length inputs of any length and content
        /// give each input's own digest.
        #[test]
        fn md5_many_equals_per_input_md5(
            base in proptest::collection::vec(any::<u8>(), 0..600),
            n in 0usize..=LANES,
            seeds in proptest::collection::vec(any::<u8>(), LANES..LANES + 1),
        ) {
            // Each lane a different rotation of `base`, xored with its own
            // byte, so a lane mix-up shows as a wrong digest.
            let owned: Vec<Vec<u8>> = seeds[..n]
                .iter()
                .enumerate()
                .map(|(i, &s)| {
                    let mut d = base.clone();
                    let by = i.min(d.len());
                    d.rotate_left(by);
                    d.iter().map(|b| b ^ s).collect()
                })
                .collect();
            let inputs: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
            prop_assert_eq!(md5_many(&inputs), reference(&inputs));
        }
    }
}
