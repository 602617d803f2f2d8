//! The send buffer: unacknowledged and unsent outbound bytes.
//!
//! Data is stored as a queue of [`Bytes`] chunks, each tagged with the
//! sequence number of its first byte, so acknowledgments drop whole
//! chunks by reference count, (re)transmissions slice without copying,
//! and a read finds its first chunk by binary search.

use bytes::{Bytes, BytesMut};
use std::collections::VecDeque;

/// Outbound byte stream between `snd_una` and the last byte the
/// application has written.
#[derive(Debug, Default)]
pub struct SendBuf {
    /// Sequence number of the first byte held (== snd_una in data space).
    base: u64,
    /// `(start sequence number, bytes)`, contiguous and in order; the
    /// front chunk starts at `base`.
    chunks: VecDeque<(u64, Bytes)>,
    len: u64,
    cap: u64,
}

#[cfg_attr(not(test), allow(dead_code))] // len/is_empty/base_seq are test/diagnostic helpers
impl SendBuf {
    pub fn new(base: u64, cap: u64) -> SendBuf {
        SendBuf {
            base,
            chunks: VecDeque::new(),
            len: 0,
            cap,
        }
    }

    /// Bytes currently buffered (acked bytes are gone).
    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Free space for further application writes.
    pub fn space(&self) -> u64 {
        self.cap - self.len
    }

    /// Sequence number one past the last buffered byte.
    pub fn end_seq(&self) -> u64 {
        self.base + self.len
    }

    pub fn base_seq(&self) -> u64 {
        self.base
    }

    /// Append as much of `data` as fits; returns the number of bytes
    /// accepted (cheap slice, no copy).
    pub fn write(&mut self, data: &Bytes) -> usize {
        let take = (self.space().min(data.len() as u64)) as usize;
        if take > 0 {
            self.chunks.push_back((self.end_seq(), data.slice(..take)));
            self.len += take as u64;
        }
        take
    }

    /// Copy out the byte range `[seq, seq+len)` for (re)transmission.
    /// Single-chunk ranges are zero-copy slices; ranges spanning chunks
    /// are concatenated. Panics if the range is not fully buffered —
    /// the caller's sequence accounting must be exact.
    pub fn read(&self, seq: u64, len: u32) -> Bytes {
        let len = len as u64;
        assert!(
            seq >= self.base && seq + len <= self.end_seq(),
            "read [{}, {}) outside buffered [{}, {})",
            seq,
            seq + len,
            self.base,
            self.end_seq()
        );
        // The last chunk starting at or before `seq` holds its first
        // byte (none is empty, so it also ends after `seq`).
        let at = self
            .chunks
            .partition_point(|(start, _)| *start <= seq)
            .saturating_sub(1);
        let mut off = seq - self.chunks.get(at).map_or(seq, |(start, _)| *start);
        let mut remaining = len;
        let mut out: Option<BytesMut> = None;
        let mut first: Option<Bytes> = None;
        for (_, chunk) in self.chunks.range(at..) {
            let clen = chunk.len() as u64;
            let take = remaining.min(clen - off);
            let piece = chunk.slice(off as usize..(off + take) as usize);
            remaining -= take;
            off = 0;
            match (&mut out, &first) {
                (None, None) => first = Some(piece),
                (None, Some(_)) => {
                    let mut b = BytesMut::with_capacity(len as usize);
                    b.extend_from_slice(&first.take().expect("first set"));
                    b.extend_from_slice(&piece);
                    out = Some(b);
                }
                (Some(b), _) => b.extend_from_slice(&piece),
            }
            if remaining == 0 {
                break;
            }
        }
        debug_assert_eq!(remaining, 0);
        match out {
            Some(b) => b.freeze(),
            None => first.unwrap_or_default(),
        }
    }

    /// Acknowledge everything below `seq`: advance the base and release
    /// covered chunks.
    pub fn ack_to(&mut self, seq: u64) {
        if seq <= self.base {
            return;
        }
        let mut advance = (seq - self.base).min(self.len);
        self.base += advance;
        self.len -= advance;
        while advance > 0 {
            let (start, front) = self.chunks.front_mut().expect("accounting mismatch");
            let clen = front.len() as u64;
            if clen <= advance {
                advance -= clen;
                self.chunks.pop_front();
            } else {
                *front = front.slice(advance as usize..);
                *start = self.base;
                advance = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf() -> SendBuf {
        SendBuf::new(100, 1000)
    }

    #[test]
    fn write_respects_capacity() {
        let mut b = buf();
        assert_eq!(b.write(&Bytes::from(vec![1u8; 600])), 600);
        assert_eq!(b.write(&Bytes::from(vec![2u8; 600])), 400);
        assert_eq!(b.write(&Bytes::from(vec![3u8; 10])), 0);
        assert_eq!(b.len(), 1000);
        assert_eq!(b.space(), 0);
        assert_eq!(b.end_seq(), 1100);
    }

    #[test]
    fn read_within_single_chunk_is_identity() {
        let mut b = buf();
        b.write(&Bytes::from((0u8..100).collect::<Vec<_>>()));
        let r = b.read(110, 20);
        assert_eq!(&r[..], (10u8..30).collect::<Vec<_>>());
    }

    #[test]
    fn read_across_chunks_concatenates() {
        let mut b = buf();
        b.write(&Bytes::from(vec![1u8; 50]));
        b.write(&Bytes::from(vec![2u8; 50]));
        b.write(&Bytes::from(vec![3u8; 50]));
        let r = b.read(140, 70);
        assert_eq!(r.len(), 70);
        assert_eq!(&r[..10], &[1u8; 10]);
        assert_eq!(&r[10..60], &[2u8; 50]);
        assert_eq!(&r[60..], &[3u8; 10]);
    }

    #[test]
    fn ack_releases_and_retains_partial_chunk() {
        let mut b = buf();
        b.write(&Bytes::from(vec![1u8; 50]));
        b.write(&Bytes::from(vec![2u8; 50]));
        b.ack_to(175); // releases chunk 1 and half of chunk 2
        assert_eq!(b.base_seq(), 175);
        assert_eq!(b.len(), 25);
        assert_eq!(&b.read(175, 25)[..], &[2u8; 25]);
        // Stale (already-acked) ack is a no-op.
        b.ack_to(120);
        assert_eq!(b.base_seq(), 175);
    }

    #[test]
    fn ack_all_empties() {
        let mut b = buf();
        b.write(&Bytes::from(vec![9u8; 30]));
        b.ack_to(130);
        assert!(b.is_empty());
        assert_eq!(b.end_seq(), 130);
        assert_eq!(b.space(), 1000);
    }

    #[test]
    #[should_panic(expected = "outside buffered")]
    fn read_beyond_end_panics() {
        let mut b = buf();
        b.write(&Bytes::from(vec![0u8; 10]));
        b.read(105, 10);
    }

    #[test]
    fn zero_len_read() {
        let mut b = buf();
        b.write(&Bytes::from(vec![0u8; 10]));
        assert_eq!(b.read(105, 0).len(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Arbitrary interleavings of write/ack preserve the byte stream:
        /// reading any buffered range returns exactly the bytes written
        /// at those stream offsets. Writes are often tiny, so many small
        /// chunks are queued; after every op a random `[seq, seq+len)`
        /// sub-range is read as well as the whole live range.
        #[test]
        fn stream_consistency(
            ops in proptest::collection::vec(
                (1usize..200, any::<bool>(), any::<bool>(), any::<u64>(), any::<u64>()),
                1..120,
            ),
        ) {
            let mut model: Vec<u8> = Vec::new(); // entire stream ever written
            let mut acked = 0u64;
            let mut b = SendBuf::new(0, 4096);
            let mut next_byte = 0u8;
            for (n, is_write, tiny, pick, span) in ops {
                if is_write {
                    let n = if tiny { n % 8 + 1 } else { n };
                    let data: Vec<u8> = (0..n).map(|_| { next_byte = next_byte.wrapping_add(1); next_byte }).collect();
                    let accepted = b.write(&Bytes::from(data.clone()));
                    model.extend_from_slice(&data[..accepted]);
                } else {
                    let target = (acked + n as u64).min(model.len() as u64);
                    b.ack_to(target);
                    acked = acked.max(target);
                }
                prop_assert_eq!(b.base_seq(), acked);
                prop_assert_eq!(b.end_seq(), model.len() as u64);
                // Read the whole live range and compare to the model.
                let live = (model.len() as u64 - acked) as usize;
                if live > 0 {
                    let r = b.read(acked, live as u32);
                    prop_assert_eq!(&r[..], &model[acked as usize..]);
                    let seq = acked + pick % live as u64;
                    let len = 1 + span % (model.len() as u64 - seq);
                    let r = b.read(seq, len as u32);
                    prop_assert_eq!(&r[..], &model[seq as usize..(seq + len) as usize]);
                }
            }
        }
    }
}
