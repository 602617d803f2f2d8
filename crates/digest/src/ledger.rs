//! Block certification in any order.
//!
//! An attempt certifies the blocks of one contiguous granted range, in
//! stream order, each against the MD5 that follows it in band. A
//! session is delivered by one or more such ranges: a one-cascade session by the ranges its successive attempts
//! were granted, a striped session by disjoint ranges over N concurrent
//! cascades. The sink therefore keeps one ledger per session recording
//! which blocks are verified, independent of arrival order, plus the
//! contiguous-prefix view a one-cascade resume is granted from and a
//! duplicate count for redundant (k-of-n) dispatch accounting.

/// Per-session record of which fixed-size blocks have been certified,
/// in any order. The ledger is pure bookkeeping: callers certify a
/// block only after its digest matched the reference, and the ledger
/// answers coverage questions (verified count, contiguous prefix, holes
/// in a range) plus counts duplicate certifications — the cost of
/// deliberately redundant tail dispatch. It needs no stream length, so
/// a stream that ends at FIN is tracked the same way.
#[derive(Clone, Debug, Default)]
pub struct BlockLedger {
    /// `verified[b]` for every block up to the highest one certified;
    /// blocks past the end are unverified.
    verified: Vec<bool>,
    verified_count: u64,
    /// Blocks `[0, prefix)` are all verified (cached scan position).
    prefix: u64,
    duplicates: u64,
}

impl BlockLedger {
    /// An empty ledger: no block verified yet.
    pub fn new() -> BlockLedger {
        BlockLedger::default()
    }

    /// Record block `block` as certified. Returns `true` if the block
    /// was newly verified, `false` for a duplicate (already certified
    /// by another cascade — counted, then discarded).
    pub fn certify(&mut self, block: u64) -> bool {
        if self.is_verified(block) {
            self.duplicates += 1;
            return false;
        }
        let i = block as usize;
        if i >= self.verified.len() {
            self.verified.resize(i + 1, false);
        }
        self.verified[i] = true;
        self.verified_count += 1;
        self.prefix = self.skip_verified(self.prefix);
        true
    }

    pub fn is_verified(&self, block: u64) -> bool {
        self.verified.get(block as usize).copied().unwrap_or(false)
    }

    /// Total blocks certified, in any order.
    pub fn verified_count(&self) -> u64 {
        self.verified_count
    }

    /// Length of the verified prefix `[0, n)` — the block a one-cascade
    /// resume is granted from.
    pub fn contiguous_verified(&self) -> u64 {
        self.prefix
    }

    /// Duplicate certifications seen (redundant dispatch discards).
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// First unverified block at or after `from` — how a sink advances a
    /// requested range past blocks some other cascade already delivered.
    pub fn skip_verified(&self, from: u64) -> u64 {
        let mut b = from;
        while self.is_verified(b) {
            b += 1;
        }
        b
    }

    /// Verified blocks within `[start, end)`.
    pub fn verified_in(&self, start: u64, end: u64) -> u64 {
        let end = end.min(self.verified.len() as u64);
        (start..end).filter(|&b| self.verified[b as usize]).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_ledger_is_empty() {
        let l = BlockLedger::new();
        assert_eq!(l.verified_count(), 0);
        assert_eq!(l.contiguous_verified(), 0);
        assert!(!l.is_verified(0));
        assert_eq!(l.verified_in(0, 4), 0);
    }

    #[test]
    fn out_of_order_certification_tracks_prefix() {
        let mut l = BlockLedger::new();
        assert!(l.certify(2));
        assert_eq!(l.verified_count(), 1);
        assert_eq!(l.contiguous_verified(), 0);
        assert!(l.certify(0));
        assert_eq!(l.contiguous_verified(), 1);
        assert!(l.certify(1));
        // Prefix jumps over the already-verified block 2.
        assert_eq!(l.contiguous_verified(), 3);
        assert!(l.certify(4));
        assert!(l.certify(3));
        assert_eq!(l.verified_count(), 5);
        assert_eq!(l.contiguous_verified(), 5);
        assert_eq!(l.duplicates(), 0);
    }

    #[test]
    fn duplicates_are_counted_and_discarded() {
        let mut l = BlockLedger::new();
        assert!(l.certify(1));
        assert!(!l.certify(1));
        assert!(!l.certify(1));
        assert_eq!(l.duplicates(), 2);
        assert_eq!(l.verified_count(), 1);
    }

    #[test]
    fn skip_verified_advances_past_done_blocks() {
        let mut l = BlockLedger::new();
        l.certify(2);
        l.certify(3);
        assert_eq!(l.skip_verified(0), 0);
        assert_eq!(l.skip_verified(2), 4);
        assert_eq!(l.skip_verified(3), 4);
        assert_eq!(l.skip_verified(5), 5);
        // Past the highest certified block everything is unverified.
        assert_eq!(l.skip_verified(99), 99);
    }

    #[test]
    fn verified_in_counts_certified_blocks_in_range() {
        let mut l = BlockLedger::new();
        l.certify(1);
        l.certify(4);
        assert_eq!(l.verified_in(0, 8), 2);
        assert_eq!(l.verified_in(1, 5), 2);
        assert_eq!(l.verified_in(2, 4), 0);
        // A range reaching past the highest certified block is cheap.
        assert_eq!(l.verified_in(4, u64::MAX), 1);
    }
}
