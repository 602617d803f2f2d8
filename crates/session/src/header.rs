//! The LSL wire header, exchanged at the head of every sublink.
//!
//! Version 1 layout (big-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic "LSL1"
//! 4       1     version (1)
//! 5       1     flags (bit 0: MD5 digest trails the payload)
//! 6       16    session id
//! 22      8     payload length in bytes (u64::MAX = until FIN, only
//!               without the digest flag)
//! 30      1     remaining hop count n (the loose source route)
//! 31      6n    hops: node id u32 + port u16, last hop = destination
//! ```
//!
//! Version 2 adds a resume request between the length and the hop
//! count — the sender's claim of how far a previous attempt of this
//! session got (see [`Resume`]); the sink replies with the offset it
//! actually *grants*:
//!
//! ```text
//! 30      8     requested resume offset in bytes
//! 38      8     last block the sender believes is verified (u64::MAX
//!               when no block is — i.e. resume-capable, starting fresh)
//! 46      1     remaining hop count n
//! 47      6n    hops
//! ```
//!
//! A v1 header is emitted whenever no resume request rides along, so
//! every pre-resume flow stays bit-identical on the wire; a v1-only
//! decoder confronted with a v2 header fails with the *typed*
//! [`WireError::UnsupportedVersion`]`(2)` rather than misparsing.
//!
//! Version 3 generalizes the resume request to a *block-range* request
//! for striped sessions: one of N concurrent cascades asks to carry
//! blocks `[start_block, end_block)` of the stream (see [`StripeReq`]).
//! The fixed-part layout mirrors v2 (two u64s between length and hop
//! count), and the sink replies with the block range it *grants* —
//! possibly advanced past blocks another cascade already delivered:
//!
//! ```text
//! 30      8     first block of the requested range
//! 38      8     one-past-last block of the requested range
//! 46      1     remaining hop count n
//! 47      6n    hops
//! ```
//!
//! The body after the header covers a block range `[s, e)` of the
//! stream's 64 KiB blocks (the final block may be short), and its
//! trailer is always the hash list of those blocks. A v2 or v3 body
//! covers the granted range and carries each block's MD5 in band:
//!
//! ```text
//! block s payload, MD5(block s), …, block e-1 payload, MD5(block e-1),
//! MD5(MD5(block s) ‖ … ‖ MD5(block e-1))      (the hash-list trailer)
//! ```
//!
//! A v1 body is the paper's stream, the range `[0, total)` without the
//! in-band digests: `length` payload bytes, then (with the digest flag)
//! the same 16-byte hash list. The paper sends one MD5 over the stream
//! there; the hash list is as long, so the stream's length and timing
//! are the paper's, and any changed byte defeats it unless MD5 collides.
//!
//! The grant and `length` fix where each payload run, digest and the
//! trailer begin. Both ends walk that layout through one private
//! `Frame`, so a header whose body carries evidence must declare its
//! length, and a ranged header must set the digest flag; the sink
//! refuses one that does not ([`WireError::UnframedRange`]). A
//! digestless body is payload until FIN.
//!
//! A depot reads the header, pops the first hop, opens the next sublink
//! and forwards the header with the shortened route (resume fields
//! ride along untouched — they are end-to-end state, not depot state).
//! The sink receives a header whose route is empty.

use bytes::{BufMut, Bytes, BytesMut};
use lsl_digest::DIGEST_LEN;
use lsl_netsim::NodeId;

use crate::endpoint::{block_offset, RESUME_BLOCK};
use crate::error::WireError;
use crate::id::SessionId;
use crate::route::Hop;

/// Flag bit: an MD5 digest (16 bytes) follows the payload.
pub const HEADER_FLAG_DIGEST: u8 = 0x01;

const MAGIC: &[u8; 4] = b"LSL1";
const VERSION: u8 = 1;
/// Version carrying the [`Resume`] request fields.
const VERSION_RESUME: u8 = 2;
/// Version carrying the [`StripeReq`] block-range fields.
const VERSION_STRIPE: u8 = 3;
const FIXED_LEN: usize = 31;
const FIXED_LEN_RESUME: usize = 47;
const FIXED_LEN_STRIPE: usize = 47;
/// Upper bound on hops, which bounds header size for parser buffers.
pub const MAX_HOPS: usize = 16;

/// Sentinel for [`Resume::verified_block`]: no block verified yet.
pub const NO_VERIFIED_BLOCK: u64 = u64::MAX;

/// A sender's resume request, carried by a version-2 header: where a
/// previous attempt of this session is believed to have got. The sink
/// is the authority — it replies with the offset it *grants* (its own
/// contiguously verified boundary), which is what the sender streams
/// from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Resume {
    /// Byte offset the sender asks to resume from (0 = fresh start).
    pub offset: u64,
    /// Index of the last block the sender believes the sink verified,
    /// or [`NO_VERIFIED_BLOCK`] when none is.
    pub verified_block: u64,
}

impl Resume {
    /// A resume-capable request that starts from scratch (the first
    /// attempt of a resumable session).
    pub fn fresh() -> Resume {
        Resume {
            offset: 0,
            verified_block: NO_VERIFIED_BLOCK,
        }
    }
}

/// A striped cascade's block-range request, carried by a version-3
/// header: this connection offers to carry blocks
/// `[start_block, end_block)` of the session's stream. As with
/// [`Resume`], the sink is the authority — it grants the range it
/// still needs (advancing `start_block` past blocks another cascade
/// already delivered; an empty grant means the whole range is covered).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StripeReq {
    /// First block of the requested range.
    pub start_block: u64,
    /// One past the last block of the requested range.
    pub end_block: u64,
}

/// Parsed LSL header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LslHeader {
    pub session: SessionId,
    pub flags: u8,
    /// Total payload bytes; `u64::MAX` means "stream until FIN".
    pub length: u64,
    /// Resume request (version-2 headers only). `None` encodes as a
    /// version-1 header, bit-identical to the pre-resume wire format.
    pub resume: Option<Resume>,
    /// Striped block-range request (version-3 headers only). Mutually
    /// exclusive with `resume`.
    pub stripe: Option<StripeReq>,
    /// Remaining hops, ending with the destination. Empty at the sink.
    pub route: Vec<Hop>,
}

impl LslHeader {
    pub fn has_digest(&self) -> bool {
        self.flags & HEADER_FLAG_DIGEST != 0
    }

    fn fixed_len(&self) -> usize {
        if self.stripe.is_some() {
            FIXED_LEN_STRIPE
        } else if self.resume.is_some() {
            FIXED_LEN_RESUME
        } else {
            FIXED_LEN
        }
    }

    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        self.fixed_len() + 6 * self.route.len()
    }

    /// Encode the header for the wire.
    ///
    /// Fails with [`WireError::RouteTooLong`] when the route exceeds
    /// [`MAX_HOPS`] — route validation happens at `RoutePlan`
    /// construction time, so in-repo senders never reach this arm; it
    /// exists so the encode path is total rather than panicking.
    pub fn encode(&self) -> Result<Bytes, WireError> {
        if self.route.len() > MAX_HOPS {
            return Err(WireError::RouteTooLong(
                u8::try_from(self.route.len()).unwrap_or(u8::MAX),
            ));
        }
        assert!(
            self.resume.is_none() || self.stripe.is_none(),
            "resume and stripe requests are mutually exclusive"
        );
        let mut b = BytesMut::with_capacity(self.encoded_len());
        b.put_slice(MAGIC);
        b.put_u8(if self.stripe.is_some() {
            VERSION_STRIPE
        } else if self.resume.is_some() {
            VERSION_RESUME
        } else {
            VERSION
        });
        b.put_u8(self.flags);
        b.put_slice(&self.session.to_bytes());
        b.put_u64(self.length);
        if let Some(s) = self.stripe {
            b.put_u64(s.start_block);
            b.put_u64(s.end_block);
        } else if let Some(r) = self.resume {
            b.put_u64(r.offset);
            b.put_u64(r.verified_block);
        }
        b.put_u8(self.route.len() as u8);
        for hop in &self.route {
            b.put_u32(hop.node.0);
            b.put_u16(hop.port);
        }
        Ok(b.freeze())
    }

    /// Attempt to parse a header from the front of `buf`.
    ///
    /// * `Ok(Some((header, consumed)))` — complete header parsed.
    /// * `Ok(None)` — need more bytes.
    /// * `Err(_)` — malformed (bad magic/version/hop count).
    ///
    /// `Ok(None)` means more bytes *may* complete the header; if the
    /// stream ends instead, the caller reports
    /// [`WireError::TruncatedHeader`].
    pub fn decode(buf: &[u8]) -> Result<Option<(LslHeader, usize)>, WireError> {
        // Reject early on bad magic so garbage connections fail fast.
        let n = buf.len().min(4);
        if buf[..n] != MAGIC[..n] {
            return Err(WireError::BadMagic);
        }
        if buf.len() < 5 {
            return Ok(None);
        }
        // The version byte picks the fixed-part layout.
        let fixed = match buf[4] {
            VERSION => FIXED_LEN,
            VERSION_RESUME => FIXED_LEN_RESUME,
            VERSION_STRIPE => FIXED_LEN_STRIPE,
            v => return Err(WireError::UnsupportedVersion(v)),
        };
        if buf.len() < fixed {
            return Ok(None);
        }
        let flags = buf[5];
        let session = SessionId::from_bytes(buf[6..22].try_into().expect("16 bytes"));
        let length = u64::from_be_bytes(buf[22..30].try_into().expect("8 bytes"));
        let resume = if buf[4] == VERSION_RESUME {
            Some(Resume {
                offset: u64::from_be_bytes(buf[30..38].try_into().expect("8 bytes")),
                verified_block: u64::from_be_bytes(buf[38..46].try_into().expect("8 bytes")),
            })
        } else {
            None
        };
        let stripe = if buf[4] == VERSION_STRIPE {
            Some(StripeReq {
                start_block: u64::from_be_bytes(buf[30..38].try_into().expect("8 bytes")),
                end_block: u64::from_be_bytes(buf[38..46].try_into().expect("8 bytes")),
            })
        } else {
            None
        };
        let nhops = buf[fixed - 1] as usize;
        if nhops > MAX_HOPS {
            return Err(WireError::RouteTooLong(buf[fixed - 1]));
        }
        let total = fixed + 6 * nhops;
        if buf.len() < total {
            return Ok(None);
        }
        let mut route = Vec::with_capacity(nhops);
        for i in 0..nhops {
            let off = fixed + 6 * i;
            let node = u32::from_be_bytes(buf[off..off + 4].try_into().expect("4 bytes"));
            let port = u16::from_be_bytes(buf[off + 4..off + 6].try_into().expect("2 bytes"));
            route.push(Hop::new(NodeId(node), port));
        }
        Ok(Some((
            LslHeader {
                session,
                flags,
                length,
                resume,
                stripe,
                route,
            },
            total,
        )))
    }

    /// The header a depot forwards: same session, route minus its first
    /// hop. Returns the popped next hop alongside. Resume and stripe
    /// fields are end-to-end state and ride along untouched.
    pub fn pop_hop(&self) -> Option<(Hop, LslHeader)> {
        let (&next, rest) = self.route.split_first()?;
        Some((
            next,
            LslHeader {
                session: self.session,
                flags: self.flags,
                length: self.length,
                resume: self.resume,
                stripe: self.stripe,
                route: rest.to_vec(),
            },
        ))
    }
}

/// What an attempt's body carries besides its payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Evidence {
    /// Nothing: direct TCP, or a digestless header.
    None,
    /// A hash-list trailer without in-band digests: the paper's v1
    /// stream.
    Trailer,
    /// Each block's MD5 after the block, then the MD5 of those digests
    /// (the hash list): a v2 or v3 ranged attempt.
    Blocks,
}

/// The layout of one attempt's body, drawn in the module doc: the
/// payload `[start, end)` of the stream, cut into runs that each end
/// where evidence is due, then the trailer. Sender and sink walk the
/// same frame, asking [`Frame::at`] what each body byte is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Frame {
    /// Stream offset of the first payload byte.
    pub start: u64,
    /// One past the last payload byte (`u64::MAX`: until FIN).
    pub end: u64,
    pub evidence: Evidence,
}

/// What one body byte of a [`Frame`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Piece {
    /// Payload at stream offset `offset`, `left` bytes before the end
    /// of its run.
    Payload { offset: u64, left: u64 },
    /// Byte `k` of stream block `block`'s digest.
    Digest { block: u64, k: usize },
    /// Byte `k` of the trailer.
    Trailer(usize),
    /// Past the end of the body.
    End,
}

impl Frame {
    /// A body that is payload until FIN (raw TCP, a digestless header).
    pub const UNTIL_FIN: Frame = Frame {
        start: 0,
        end: u64::MAX,
        evidence: Evidence::None,
    };

    /// The frame of granted blocks `[first, last)` of a `total`-byte
    /// stream.
    pub fn new((first, last): (u64, u64), total: u64, evidence: Evidence) -> Frame {
        Frame {
            start: block_offset(first, total),
            end: block_offset(last, total),
            evidence,
        }
    }

    /// Payload bytes the frame owes (none until FIN: the FIN ends it).
    pub fn owed(&self) -> u64 {
        match self.end {
            u64::MAX => 0,
            end => end - self.start,
        }
    }

    /// Granted block range `[first, last)`: both ends are block
    /// boundaries or the end of the stream.
    pub fn blocks(&self) -> (u64, u64) {
        (
            self.start.div_ceil(RESUME_BLOCK),
            self.end.div_ceil(RESUME_BLOCK),
        )
    }

    /// What body byte `pos` is.
    pub fn at(&self, pos: u64) -> Piece {
        const DIGEST: u64 = DIGEST_LEN as u64;
        let payload = self.end - self.start;
        let digests = match self.evidence {
            Evidence::Blocks => payload.div_ceil(RESUME_BLOCK),
            _ => 0,
        };
        // Saturating: a hostile `length` near `u64::MAX` must not
        // overflow; no real body reaches that far.
        let trailer = payload.saturating_add(digests * DIGEST);
        if pos >= trailer {
            return match pos - trailer {
                k if k < DIGEST && self.evidence != Evidence::None => Piece::Trailer(k as usize),
                _ => Piece::End,
            };
        }
        if self.evidence != Evidence::Blocks {
            return Piece::Payload {
                offset: self.start + pos,
                left: payload - pos,
            };
        }
        // Every run but the last is a full block and its digest.
        let (run, r) = (pos / (RESUME_BLOCK + DIGEST), pos % (RESUME_BLOCK + DIGEST));
        let lo = self.start + run * RESUME_BLOCK;
        let len = RESUME_BLOCK.min(self.end - lo);
        if r < len {
            Piece::Payload {
                offset: lo + r,
                left: len - r,
            }
        } else {
            Piece::Digest {
                block: lo / RESUME_BLOCK,
                k: (r - len) as usize,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(nhops: usize) -> LslHeader {
        LslHeader {
            session: SessionId(0xdead_beef_cafe_f00d_0123_4567_89ab_cdef),
            flags: HEADER_FLAG_DIGEST,
            length: 1 << 26,
            resume: None,
            stripe: None,
            route: (0..nhops)
                .map(|i| Hop::new(NodeId(i as u32 + 1), 7000 + i as u16))
                .collect(),
        }
    }

    fn header_v2(nhops: usize, resume: Resume) -> LslHeader {
        LslHeader {
            resume: Some(resume),
            ..header(nhops)
        }
    }

    fn header_v3(nhops: usize, stripe: StripeReq) -> LslHeader {
        LslHeader {
            stripe: Some(stripe),
            ..header(nhops)
        }
    }

    #[test]
    fn roundtrip() {
        for n in [0, 1, 2, 5, MAX_HOPS] {
            let h = header(n);
            let enc = h.encode().unwrap();
            assert_eq!(enc.len(), h.encoded_len());
            let (dec, used) = LslHeader::decode(&enc).unwrap().unwrap();
            assert_eq!(used, enc.len());
            assert_eq!(dec, h);
        }
    }

    #[test]
    fn roundtrip_v2() {
        for n in [0, 1, 2, MAX_HOPS] {
            for resume in [
                Resume::fresh(),
                Resume {
                    offset: 42 << 16,
                    verified_block: 41,
                },
            ] {
                let h = header_v2(n, resume);
                let enc = h.encode().unwrap();
                assert_eq!(enc.len(), h.encoded_len());
                assert_eq!(enc[4], VERSION_RESUME);
                let (dec, used) = LslHeader::decode(&enc).unwrap().unwrap();
                assert_eq!(used, enc.len());
                assert_eq!(dec, h);
            }
        }
    }

    #[test]
    fn roundtrip_v3() {
        for n in [0, 1, 2, MAX_HOPS] {
            for stripe in [
                StripeReq {
                    start_block: 0,
                    end_block: 8,
                },
                StripeReq {
                    start_block: 24,
                    end_block: 32,
                },
            ] {
                let h = header_v3(n, stripe);
                let enc = h.encode().unwrap();
                assert_eq!(enc.len(), h.encoded_len());
                assert_eq!(enc[4], VERSION_STRIPE);
                let (dec, used) = LslHeader::decode(&enc).unwrap().unwrap();
                assert_eq!(used, enc.len());
                assert_eq!(dec, h);
            }
        }
    }

    #[test]
    #[should_panic(expected = "mutually exclusive")]
    fn resume_and_stripe_together_are_rejected() {
        let h = LslHeader {
            resume: Some(Resume::fresh()),
            ..header_v3(
                1,
                StripeReq {
                    start_block: 0,
                    end_block: 1,
                },
            )
        };
        let _ = h.encode();
    }

    #[test]
    fn v1_wire_format_is_unchanged_by_the_resume_extension() {
        // Pre-resume flows must stay bit-identical: no-resume headers
        // still encode as 31-byte-fixed version-1 headers.
        let h = header(2);
        let enc = h.encode().unwrap();
        assert_eq!(enc[4], VERSION);
        assert_eq!(enc.len(), 31 + 6 * 2);
    }

    #[test]
    fn v1_only_decoder_gets_typed_error_for_v2() {
        // Simulate a pre-resume decoder: it knows only version 1, so the
        // version byte of a v2 header must surface as the typed
        // `UnsupportedVersion(2)` — exactly what the current decoder
        // reports for any version it does not know.
        let enc = header_v2(1, Resume::fresh()).encode().unwrap();
        let mut unknown = enc.to_vec();
        unknown[4] = 4; // a future version neither decoder knows
        assert_eq!(
            LslHeader::decode(&unknown),
            Err(WireError::UnsupportedVersion(4))
        );
    }

    #[test]
    fn partial_input_needs_more() {
        for enc in [
            header(3).encode().unwrap(),
            header_v2(3, Resume::fresh()).encode().unwrap(),
            header_v3(
                3,
                StripeReq {
                    start_block: 8,
                    end_block: 16,
                },
            )
            .encode()
            .unwrap(),
        ] {
            for cut in 4..enc.len() {
                assert_eq!(
                    LslHeader::decode(&enc[..cut]).unwrap(),
                    None,
                    "cut at {cut}"
                );
            }
            // Trailing payload bytes after the header are not consumed.
            let mut extended = enc.to_vec();
            extended.extend_from_slice(b"payload");
            let (_, used) = LslHeader::decode(&extended).unwrap().unwrap();
            assert_eq!(used, enc.len());
        }
    }

    #[test]
    fn until_fin_sentinel_rides_with_resume() {
        // `length == u64::MAX` ("until FIN") and a resume offset are
        // orthogonal: the sentinel must survive a v2 round-trip next to
        // a real offset, and must not be confused with the
        // NO_VERIFIED_BLOCK sentinel that shares its bit pattern.
        let h = LslHeader {
            length: u64::MAX,
            ..header_v2(
                1,
                Resume {
                    offset: 7 << 20,
                    verified_block: 6,
                },
            )
        };
        let (dec, _) = LslHeader::decode(&h.encode().unwrap()).unwrap().unwrap();
        assert_eq!(dec.length, u64::MAX);
        assert_eq!(dec.resume.unwrap().offset, 7 << 20);
        assert_eq!(dec.resume.unwrap().verified_block, 6);
    }

    #[test]
    fn a_ranged_frame_of_any_length_places_its_first_block() {
        for length in [RESUME_BLOCK + 10, u64::MAX - 1] {
            let blocks = length.div_ceil(RESUME_BLOCK);
            let frame = Frame::new((0, blocks), length, Evidence::Blocks);
            let first = Piece::Payload {
                offset: 0,
                left: RESUME_BLOCK,
            };
            assert_eq!(frame.at(0), first, "length {length}");
            let digest = Piece::Digest { block: 0, k: 3 };
            assert_eq!(frame.at(RESUME_BLOCK + 3), digest, "length {length}");
        }
    }

    #[test]
    fn bad_magic_rejected_early() {
        assert_eq!(LslHeader::decode(b"XXXX"), Err(WireError::BadMagic));
        assert!(LslHeader::decode(b"LS").is_ok()); // prefix still plausible
        assert_eq!(LslHeader::decode(b"LSX"), Err(WireError::BadMagic));
    }

    #[test]
    fn bad_version_rejected() {
        let mut enc = header(0).encode().unwrap().to_vec();
        enc[4] = 9;
        assert_eq!(
            LslHeader::decode(&enc),
            Err(WireError::UnsupportedVersion(9))
        );
    }

    #[test]
    fn oversized_route_rejected() {
        let mut enc = header(0).encode().unwrap().to_vec();
        enc[30] = (MAX_HOPS + 1) as u8;
        assert_eq!(
            LslHeader::decode(&enc),
            Err(WireError::RouteTooLong((MAX_HOPS + 1) as u8))
        );
    }

    #[test]
    fn oversized_route_fails_encode_with_typed_error() {
        // The encode path is total: an over-long route surfaces as the
        // same typed error the decoder reports, never a panic.
        let h = header(MAX_HOPS + 1);
        assert_eq!(
            h.encode(),
            Err(WireError::RouteTooLong((MAX_HOPS + 1) as u8))
        );
    }

    #[test]
    fn pop_hop_shortens_route() {
        let h = header(2);
        let (next, fwd) = h.pop_hop().unwrap();
        assert_eq!(next, h.route[0]);
        assert_eq!(fwd.route, h.route[1..]);
        assert_eq!(fwd.session, h.session);
        let (_, last) = fwd.pop_hop().unwrap();
        assert!(last.route.is_empty());
        assert!(last.pop_hop().is_none());
    }

    #[test]
    fn pop_hop_preserves_resume() {
        let h = header_v2(
            2,
            Resume {
                offset: 123,
                verified_block: 0,
            },
        );
        let (_, fwd) = h.pop_hop().unwrap();
        assert_eq!(fwd.resume, h.resume);
    }

    #[test]
    fn pop_hop_preserves_stripe() {
        let h = header_v3(
            2,
            StripeReq {
                start_block: 5,
                end_block: 9,
            },
        );
        let (_, fwd) = h.pop_hop().unwrap();
        assert_eq!(fwd.stripe, h.stripe);
        let (_, sink) = fwd.pop_hop().unwrap();
        assert_eq!(sink.stripe, h.stripe);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// An arbitrary header extension: none (v1), a resume request (v2),
    /// or a stripe block-range request (v3) — never both.
    fn any_extension() -> impl Strategy<Value = (Option<Resume>, Option<StripeReq>)> {
        prop_oneof![
            Just((None, None)),
            Just((Some(Resume::fresh()), None)),
            (any::<u64>(), any::<u64>()).prop_map(|(offset, verified_block)| (
                Some(Resume {
                    offset,
                    verified_block
                }),
                None
            )),
            (any::<u64>(), any::<u64>()).prop_map(|(start_block, end_block)| (
                None,
                Some(StripeReq {
                    start_block,
                    end_block
                })
            )),
        ]
    }

    proptest! {
        #[test]
        fn codec_roundtrip(sid in any::<u128>(), flags in any::<u8>(),
                           length in any::<u64>(),
                           ext in any_extension(),
                           hops in proptest::collection::vec((any::<u32>(), any::<u16>()), 0..MAX_HOPS)) {
            let (resume, stripe) = ext;
            let h = LslHeader {
                session: SessionId(sid),
                flags,
                length,
                resume,
                stripe,
                route: hops.into_iter().map(|(n, p)| Hop::new(NodeId(n), p)).collect(),
            };
            let enc = h.encode().unwrap();
            let (dec, used) = LslHeader::decode(&enc).unwrap().unwrap();
            prop_assert_eq!(used, enc.len());
            prop_assert_eq!(dec, h);
        }

        /// Decoding arbitrary bytes never panics.
        #[test]
        fn decode_total(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = LslHeader::decode(&data);
        }

        /// Every strict prefix of a valid encoding either asks for more
        /// bytes or reports `BadMagic` (never a spurious later error, and
        /// never a bogus parse).
        #[test]
        fn truncation_never_misparses(sid in any::<u128>(), length in any::<u64>(),
                                      ext in any_extension(),
                                      nhops in 0usize..MAX_HOPS,
                                      cut_frac in 0.0f64..1.0) {
            let (resume, stripe) = ext;
            let h = LslHeader {
                session: SessionId(sid),
                flags: HEADER_FLAG_DIGEST,
                length,
                resume,
                stripe,
                route: (0..nhops).map(|i| Hop::new(NodeId(i as u32), 7000)).collect(),
            };
            let enc = h.encode().unwrap();
            let cut = ((enc.len() as f64) * cut_frac) as usize; // < len
            match LslHeader::decode(&enc[..cut]) {
                Ok(None) => {}
                Err(WireError::BadMagic) => prop_assert!(cut < 4),
                other => prop_assert!(false, "prefix of len {cut} gave {other:?}"),
            }
        }

        /// A single corrupted byte in the fixed part is either detected as
        /// a typed wire error or yields a header that differs from the
        /// original only where the flip landed in an unvalidated field —
        /// never a panic, and magic/version/hop-count damage is always
        /// caught.
        #[test]
        fn corruption_is_detected_or_contained(sid in any::<u128>(),
                                               pos in 0usize..FIXED_LEN,
                                               flip in 1u8..=255) {
            let h = LslHeader {
                session: SessionId(sid),
                flags: 0,
                length: 4096,
                resume: None,
                stripe: None,
                route: vec![Hop::new(NodeId(7), 7000)],
            };
            let mut enc = h.encode().unwrap().to_vec();
            enc[pos] ^= flip;
            match (pos, LslHeader::decode(&enc)) {
                (0..=3, res) => prop_assert_eq!(res, Err(WireError::BadMagic)),
                (4, res) if VERSION ^ flip == VERSION_RESUME || VERSION ^ flip == VERSION_STRIPE => {
                    // The flip upgraded the version byte: the decoder
                    // now waits for the longer v2/v3 fixed part this
                    // 37-byte buffer cannot complete.
                    prop_assert_eq!(res, Ok(None));
                }
                (4, res) => prop_assert_eq!(res, Err(WireError::UnsupportedVersion(VERSION ^ flip))),
                (30, res) => {
                    // Hop count either exceeds MAX_HOPS (typed error) or the
                    // parser waits for the longer route it now expects.
                    let claimed = 1 ^ flip;
                    if claimed as usize > MAX_HOPS {
                        prop_assert_eq!(res, Err(WireError::RouteTooLong(claimed)));
                    } else {
                        prop_assert!(matches!(res, Ok(None)) || claimed as usize <= 1);
                    }
                }
                (_, res) => {
                    // Flags/session/length are opaque payload fields: the
                    // header still parses, and differs from the original.
                    let (dec, _) = res.unwrap().unwrap();
                    prop_assert_ne!(dec, h);
                }
            }
        }

        /// Single-byte corruption of a *version-2* header is likewise
        /// detected (typed wire error) or contained (parses to a header
        /// that differs from the original) — including the dangerous
        /// version-downgrade flip, which re-frames a resume-offset byte
        /// as the hop count.
        #[test]
        fn corruption_is_detected_or_contained_v2(sid in any::<u128>(),
                                                  pos in 0usize..FIXED_LEN_RESUME,
                                                  flip in 1u8..=255) {
            let h = LslHeader {
                session: SessionId(sid),
                flags: 0,
                length: 4096,
                // High offset byte 200: a downgraded-to-v1 parse reads
                // it as a hop count, which MAX_HOPS then rejects.
                resume: Some(Resume { offset: (200u64 << 56) | 4096, verified_block: 3 }),
                stripe: None,
                route: vec![Hop::new(NodeId(7), 7000)],
            };
            let mut enc = h.encode().unwrap().to_vec();
            enc[pos] ^= flip;
            let res = LslHeader::decode(&enc);
            match pos {
                0..=3 => prop_assert_eq!(res, Err(WireError::BadMagic)),
                4 => {
                    let v = VERSION_RESUME ^ flip;
                    if v == VERSION {
                        prop_assert_eq!(res, Err(WireError::RouteTooLong(200)));
                    } else if v == VERSION_STRIPE {
                        // v2 and v3 share the fixed length: the header
                        // reparses with the resume fields re-framed as a
                        // stripe range — contained, and visibly different.
                        let (dec, _) = res.unwrap().unwrap();
                        prop_assert!(dec.stripe.is_some() && dec.resume.is_none());
                        prop_assert_ne!(dec, h.clone());
                    } else {
                        prop_assert_eq!(res, Err(WireError::UnsupportedVersion(v)));
                    }
                }
                46 => {
                    // Hop count: either implausible (typed error) or the
                    // parser waits for the longer route it now expects.
                    let claimed = 1 ^ flip;
                    if claimed as usize > MAX_HOPS {
                        prop_assert_eq!(res, Err(WireError::RouteTooLong(claimed)));
                    } else {
                        prop_assert!(matches!(res, Ok(None)) || claimed as usize <= 1);
                    }
                }
                _ => {
                    let (dec, _) = res.unwrap().unwrap();
                    prop_assert_ne!(dec, h);
                }
            }
        }

        /// Single-byte corruption of a *version-3* (striped) header is
        /// detected or contained, symmetric with the v2 property — the
        /// v2↔v3 flip re-frames the range as a resume request, which is
        /// contained (parses, visibly different), and the v1 downgrade
        /// re-frames a range byte as the hop count.
        #[test]
        fn corruption_is_detected_or_contained_v3(sid in any::<u128>(),
                                                  pos in 0usize..FIXED_LEN_STRIPE,
                                                  flip in 1u8..=255) {
            let h = LslHeader {
                session: SessionId(sid),
                flags: 0,
                length: 4096,
                resume: None,
                // High start_block byte 200: a downgraded-to-v1 parse
                // reads it as a hop count, which MAX_HOPS rejects.
                stripe: Some(StripeReq { start_block: (200u64 << 56) | 5, end_block: (200u64 << 56) | 9 }),
                route: vec![Hop::new(NodeId(7), 7000)],
            };
            let mut enc = h.encode().unwrap().to_vec();
            enc[pos] ^= flip;
            let res = LslHeader::decode(&enc);
            match pos {
                0..=3 => prop_assert_eq!(res, Err(WireError::BadMagic)),
                4 => {
                    let v = VERSION_STRIPE ^ flip;
                    if v == VERSION {
                        prop_assert_eq!(res, Err(WireError::RouteTooLong(200)));
                    } else if v == VERSION_RESUME {
                        let (dec, _) = res.unwrap().unwrap();
                        prop_assert!(dec.resume.is_some() && dec.stripe.is_none());
                        prop_assert_ne!(dec, h.clone());
                    } else {
                        prop_assert_eq!(res, Err(WireError::UnsupportedVersion(v)));
                    }
                }
                46 => {
                    let claimed = 1 ^ flip;
                    if claimed as usize > MAX_HOPS {
                        prop_assert_eq!(res, Err(WireError::RouteTooLong(claimed)));
                    } else {
                        prop_assert!(matches!(res, Ok(None)) || claimed as usize <= 1);
                    }
                }
                _ => {
                    let (dec, _) = res.unwrap().unwrap();
                    prop_assert_ne!(dec, h);
                }
            }
        }

        /// `pop_hop` terminates: a route of n hops exhausts after exactly
        /// n pops (hop exhaustion at the sink is a defined state, not an
        /// error or a loop).
        #[test]
        fn pop_hop_exhausts_after_route_len(nhops in 0usize..=MAX_HOPS) {
            let mut h = LslHeader {
                session: SessionId(1),
                flags: 0,
                length: 0,
                resume: None,
                stripe: None,
                route: (0..nhops).map(|i| Hop::new(NodeId(i as u32), 7000)).collect(),
            };
            for left in (0..nhops).rev() {
                let (_, next) = h.pop_hop().unwrap();
                prop_assert_eq!(next.route.len(), left);
                h = next;
            }
            prop_assert!(h.pop_hop().is_none());
        }
    }
}
