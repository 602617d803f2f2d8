//! MD5 message digest (RFC 1321), implemented from scratch.
//!
//! The Logistical Session Layer sends an MD5 digest over the complete
//! stream between end systems, restoring end-to-end integrity above the
//! cascade of TCP sublinks (the paper, §III). This crate provides the
//! digest with both one-shot and incremental APIs so endpoints can hash
//! the stream as it is produced/consumed without buffering it.
//!
//! A ranged attempt is certified block by block: each block carries its
//! own MD5 and the trailer is the MD5 of those digests (a hash list), so
//! a receiver learns *which* blocks are good, not only whether the whole
//! range is. [`BlockLedger`] records which blocks of a session have
//! certified, in any order. [`md5_many`] hashes up to [`LANES`]
//! independent inputs (a sender's next blocks, a sink's landed ones)
//! side by side in AVX2 lanes when the CPU has them, with results equal
//! to [`md5`] of each.

mod lanes;
mod ledger;
mod md5;

pub use lanes::{md5_many, LANES};
pub use ledger::BlockLedger;
pub use md5::{Md5, DIGEST_LEN};

/// One-shot MD5 of a byte slice.
pub fn md5(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Md5::new();
    h.update(data);
    h.finalize()
}

/// Render a digest as lowercase hex, as `md5sum` would print it.
pub fn to_hex(digest: &[u8; DIGEST_LEN]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(DIGEST_LEN * 2);
    for &b in digest {
        s.push(HEX[(b >> 4) as usize] as char);
        s.push(HEX[(b & 0xf) as usize] as char);
    }
    s
}

/// Parse a 32-char hex string back into a digest. Returns `None` on any
/// malformed input (wrong length or non-hex character).
pub fn from_hex(s: &str) -> Option<[u8; DIGEST_LEN]> {
    let bytes = s.as_bytes();
    if bytes.len() != DIGEST_LEN * 2 {
        return None;
    }
    let mut out = [0u8; DIGEST_LEN];
    for (i, chunk) in bytes.chunks_exact(2).enumerate() {
        let hi = (chunk[0] as char).to_digit(16)?;
        let lo = (chunk[1] as char).to_digit(16)?;
        out[i] = ((hi << 4) | lo) as u8;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 1321 appendix A.5 test suite.
    const VECTORS: &[(&str, &str)] = &[
        ("", "d41d8cd98f00b204e9800998ecf8427e"),
        ("a", "0cc175b9c0f1b6a831c399e269772661"),
        ("abc", "900150983cd24fb0d6963f7d28e17f72"),
        ("message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
        (
            "abcdefghijklmnopqrstuvwxyz",
            "c3fcd3d76192e4007dfb496cca67e13b",
        ),
        (
            "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
            "d174ab98d277d9f5a5611c2c9f419d9f",
        ),
        (
            "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
            "57edf4a22be3c955ac49da2e2107b67a",
        ),
    ];

    #[test]
    fn rfc1321_vectors() {
        for (input, want) in VECTORS {
            assert_eq!(to_hex(&md5(input.as_bytes())), *want, "input {input:?}");
        }
    }

    #[test]
    fn million_a() {
        let mut h = Md5::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(to_hex(&h.finalize()), "7707d6ae4e027c70eea2a935c2296f21");
    }

    #[test]
    fn incremental_matches_oneshot_at_block_boundaries() {
        // Exercise lengths around the 64-byte block boundary and the
        // 56-byte padding threshold.
        for len in [0usize, 1, 55, 56, 57, 63, 64, 65, 127, 128, 129, 1000] {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let one = md5(&data);
            let mut h = Md5::new();
            for b in data.chunks(7) {
                h.update(b);
            }
            assert_eq!(h.finalize(), one, "len {len}");
        }
    }

    #[test]
    fn hex_roundtrip() {
        let d = md5(b"roundtrip");
        assert_eq!(from_hex(&to_hex(&d)), Some(d));
    }

    #[test]
    fn from_hex_rejects_bad_input() {
        assert_eq!(from_hex("short"), None);
        assert_eq!(from_hex(&"g".repeat(32)), None);
        assert_eq!(from_hex(&"0".repeat(31)), None);
        assert_eq!(from_hex(&"0".repeat(33)), None);
    }

    #[test]
    fn bytes_processed_is_tracked() {
        let mut h = Md5::new();
        h.update(b"hello ");
        h.update(b"world");
        assert_eq!(h.bytes_processed(), 11);
    }

    #[test]
    fn clone_preserves_state() {
        let mut h = Md5::new();
        h.update(b"prefix-");
        let mut h2 = h.clone();
        h.update(b"one");
        h2.update(b"one");
        assert_eq!(h.finalize(), h2.finalize());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Incremental hashing over arbitrary chunkings equals one-shot.
        #[test]
        fn incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..4096),
                                      cuts in proptest::collection::vec(1usize..64, 0..64)) {
            let one = md5(&data);
            let mut h = Md5::new();
            let mut off = 0;
            for c in cuts {
                if off >= data.len() { break; }
                let end = (off + c).min(data.len());
                h.update(&data[off..end]);
                off = end;
            }
            h.update(&data[off..]);
            prop_assert_eq!(h.finalize(), one);
        }

        /// Distinct single-bit flips produce distinct digests (no trivial
        /// collisions on small inputs).
        #[test]
        fn bit_flip_changes_digest(data in proptest::collection::vec(any::<u8>(), 1..256),
                                   idx in any::<proptest::sample::Index>()) {
            let mut flipped = data.clone();
            let i = idx.index(flipped.len());
            flipped[i] ^= 1;
            prop_assert_ne!(md5(&data), md5(&flipped));
        }

        /// Hex round-trips for arbitrary digests.
        #[test]
        fn hex_roundtrip_any(data in proptest::collection::vec(any::<u8>(), 0..64)) {
            let d = md5(&data);
            prop_assert_eq!(from_hex(&to_hex(&d)), Some(d));
        }
    }
}
