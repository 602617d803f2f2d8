//! A per-block digest chain over a byte stream.
//!
//! The paper verifies a transfer with one MD5 over the *whole* stream —
//! which means a failed check can only be answered by resending from
//! byte 0. [`DigestChain`] refines that: the stream is cut into
//! fixed-size blocks and each block gets its own MD5, so a receiver can
//! certify *which* blocks are known-good. The end-to-end check over the
//! range becomes a hash list: [`DigestChain::list_digest`] is the MD5 of
//! the block digests concatenated, so every byte is hashed once and the
//! list adds 16 bytes of hashing per block.
//!
//! A chain never rolls back. The sink feeds one chain per attempt, over
//! the block range the attempt was granted, as its bytes land (the
//! sender, which holds its payload, hashes its blocks ahead with
//! [`crate::md5_many`]); blocks that certify are recorded in a
//! [`crate::BlockLedger`], and a later attempt is granted only the
//! blocks still missing, so nothing before its range is ever re-read.

use crate::md5::{Md5, DIGEST_LEN};

/// Incremental per-block MD5 chain.
#[derive(Clone)]
pub struct DigestChain {
    block_size: u64,
    /// Hasher over the current (incomplete) block.
    cur: Md5,
    cur_len: u64,
    /// MD5 of each completed block, in stream order.
    blocks: Vec<[u8; DIGEST_LEN]>,
}

impl DigestChain {
    /// A chain cutting the stream into `block_size`-byte blocks (the
    /// final block may be short).
    ///
    /// Panics if `block_size` is zero.
    pub fn new(block_size: u64) -> DigestChain {
        assert!(block_size > 0, "block size must be positive");
        DigestChain {
            block_size,
            cur: Md5::new(),
            cur_len: 0,
            blocks: Vec::new(),
        }
    }

    /// Total bytes absorbed so far (stream position).
    pub fn position(&self) -> u64 {
        self.blocks.len() as u64 * self.block_size + self.cur_len
    }

    /// Number of *completed* blocks.
    pub fn completed(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// The digest of completed block `i` (0-based).
    pub fn digest_of(&self, i: u64) -> Option<[u8; DIGEST_LEN]> {
        self.blocks.get(i as usize).copied()
    }

    /// Absorb stream bytes, closing blocks as boundaries pass.
    pub fn update(&mut self, mut data: &[u8]) {
        while !data.is_empty() {
            let room = (self.block_size - self.cur_len) as usize;
            let take = room.min(data.len());
            let (head, rest) = data.split_at(take);
            self.cur.update(head);
            self.cur_len += take as u64;
            if self.cur_len == self.block_size {
                self.close_block();
            }
            data = rest;
        }
    }

    fn close_block(&mut self) {
        let finished = std::mem::take(&mut self.cur);
        self.blocks.push(finished.finalize());
        self.cur_len = 0;
    }

    /// Close the trailing short block, if any bytes are pending in it.
    /// Call once at end-of-stream so [`DigestChain::completed`] covers
    /// the whole stream.
    pub fn finish_partial(&mut self) {
        if self.cur_len > 0 {
            self.close_block();
        }
    }

    /// The hash list: MD5 of the completed blocks' digests
    /// concatenated, in stream order. Non-destructive: hashing may
    /// continue afterwards.
    pub fn list_digest(&self) -> [u8; DIGEST_LEN] {
        let mut list = Md5::new();
        for d in &self.blocks {
            list.update(d);
        }
        list.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::md5;

    fn pattern(range: std::ops::Range<u64>) -> Vec<u8> {
        range.map(|i| (i.wrapping_mul(31) % 251) as u8).collect()
    }

    #[test]
    fn list_digest_matches_oneshot_regardless_of_chunking() {
        let data = pattern(0..1000);
        let mut list = Vec::new();
        for block in data.chunks(128) {
            list.extend_from_slice(&md5(block));
        }
        for chunk in [1usize, 7, 64, 128, 999, 1000] {
            let mut c = DigestChain::new(128);
            for piece in data.chunks(chunk) {
                c.update(piece);
            }
            assert_eq!(c.position(), 1000);
            assert_eq!(c.completed(), 1000 / 128);
            c.finish_partial();
            assert_eq!(c.list_digest(), md5(&list), "chunk {chunk}");
        }
        assert_eq!(DigestChain::new(128).list_digest(), md5(b""));
    }

    #[test]
    fn block_digests_match_per_block_oneshot() {
        let data = pattern(0..520);
        let mut c = DigestChain::new(100);
        c.update(&data);
        assert_eq!(c.completed(), 5);
        for i in 0..5u64 {
            let lo = (i * 100) as usize;
            assert_eq!(c.digest_of(i), Some(md5(&data[lo..lo + 100])), "block {i}");
        }
        assert_eq!(c.digest_of(5), None);
        c.finish_partial();
        assert_eq!(c.completed(), 6);
        assert_eq!(c.digest_of(5), Some(md5(&data[500..])));
    }

    #[test]
    fn finish_partial_is_idempotent_and_noop_at_boundary() {
        let mut c = DigestChain::new(10);
        c.update(&pattern(0..20));
        c.finish_partial();
        c.finish_partial();
        assert_eq!(c.completed(), 2);
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn zero_block_size_rejected() {
        let _ = DigestChain::new(0);
    }
}
