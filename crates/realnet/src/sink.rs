//! Sink-side LSL listener over real TCP.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};

use lsl_digest::{DIGEST_LEN, LANES};
use lsl_session::endpoint::{HashList, SESSION_CONFIRM};
use lsl_session::{LslHeader, SessionId, RESUME_BLOCK};

use crate::wire::read_header;

/// A sink for LSL sessions.
pub struct LslListener {
    listener: TcpListener,
}

/// One accepted session, ready to be consumed.
pub struct IncomingSession {
    stream: TcpStream,
    header: LslHeader,
    leftover: Vec<u8>,
}

impl LslListener {
    pub fn bind(addr: SocketAddr) -> io::Result<LslListener> {
        Ok(LslListener {
            listener: TcpListener::bind(addr)?,
        })
    }

    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Block for the next session; reads its header and sends the
    /// synchronous session confirmation. This sink speaks v1 only: a
    /// header with residual route hops or a ranged request (v2 resume,
    /// v3 stripe) fails with `InvalidData` before anything is sent.
    pub fn accept(&self) -> io::Result<IncomingSession> {
        let (mut stream, _) = self.listener.accept()?;
        stream.set_nodelay(true)?;
        let (header, leftover) = read_header(&mut stream)?;
        if !header.route.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "sink received a header with residual route hops",
            ));
        }
        if header.resume.is_some() || header.stripe.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "sink speaks v1 only: refusing a ranged (resume or stripe) request",
            ));
        }
        stream.write_all(&[SESSION_CONFIRM])?;
        Ok(IncomingSession {
            stream,
            header,
            leftover,
        })
    }
}

impl IncomingSession {
    pub fn session(&self) -> SessionId {
        self.header.session
    }

    pub fn announced_length(&self) -> u64 {
        self.header.length
    }

    /// Consume the whole stream. Returns the payload and, when a digest
    /// was sent, whether it verified.
    ///
    /// The announced length is authoritative: payload is exactly
    /// `length` bytes, followed by the 16-byte digest when flagged: the
    /// hash list of the payload's 64 KiB blocks. The blocks are hashed
    /// as they arrive, so the hashing overlaps the peer's sending.
    pub fn read_all(self) -> io::Result<(Vec<u8>, Option<bool>)> {
        let IncomingSession {
            stream,
            header,
            leftover,
        } = self;
        read_body(
            leftover.as_slice().chain(stream),
            header.length,
            header.has_digest(),
            READ_STEP,
        )
    }
}

/// Most bytes one step of [`read_body`] reads before it hashes them.
const READ_STEP: u64 = 256 << 10;

/// Payload bytes the sink hashes at once: [`LANES`] whole blocks.
const HASH_GROUP: usize = LANES * RESUME_BLOCK as usize;

/// Read a session body to EOF: `length` payload bytes, then the 16-byte
/// trailer when `digest`. After each read of at most `step` bytes, the
/// whole groups of [`LANES`] blocks that have arrived among the first
/// `length` bytes are hashed, straight from the payload buffer, and the
/// rest once all `length` bytes are in (or the stream ends). The
/// announced length tells payload from trailer, so nothing is held back.
fn read_body(
    mut src: impl Read,
    length: u64,
    digest: bool,
    step: u64,
) -> io::Result<(Vec<u8>, Option<bool>)> {
    // Room for the announced stream, trailer included, so a well-formed
    // session never reallocates (capped: the length is the peer's
    // claim). The kernel copies straight into it.
    let trailer = if digest { DIGEST_LEN } else { 0 };
    let mut payload = Vec::with_capacity(length.min(1 << 26) as usize + trailer);
    let mut list = digest.then(HashList::default);
    let hash_limit = usize::try_from(length).unwrap_or(usize::MAX);
    let mut hashed = 0;
    loop {
        let n = (&mut src).take(step).read_to_end(&mut payload)?;
        if let Some(list) = &mut list {
            let arrived = payload.len().min(hash_limit);
            let upto = if n == 0 || arrived == hash_limit {
                arrived
            } else {
                hashed + (arrived - hashed) / HASH_GROUP * HASH_GROUP
            };
            list.blocks(&payload[hashed..upto]);
            hashed = upto;
        }
        if n == 0 {
            break;
        }
    }
    let received = payload.len() as u64;
    let digest_ok = match list {
        Some(list) => {
            if length.checked_add(DIGEST_LEN as u64) != Some(received) {
                Some(false)
            } else {
                let trailer = payload.split_off(hashed);
                Some(list.trailer()[..] == trailer[..])
            }
        }
        None => {
            if received != length {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("announced {length} bytes, received {received}"),
                ));
            }
            None
        }
    };
    Ok((payload, digest_ok))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::LslStream;
    use std::net::Ipv4Addr;

    /// Direct (no-depot) loopback session exercise of listener+stream.
    #[test]
    fn direct_loopback_session_with_digest() {
        let listener = LslListener::bind((Ipv4Addr::LOCALHOST, 0).into()).unwrap();
        let addr = listener.local_addr().unwrap();
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let expect = payload.clone();

        let t = std::thread::spawn(move || {
            let mut s =
                LslStream::connect(SessionId(5), &[], addr, expect.len() as u64, true, true)
                    .unwrap();
            s.write_all(&expect).unwrap();
            s.finish().unwrap();
        });

        let sess = listener.accept().unwrap();
        assert_eq!(sess.session(), SessionId(5));
        assert_eq!(sess.announced_length(), payload.len() as u64);
        let (got, digest_ok) = sess.read_all().unwrap();
        assert_eq!(got, payload);
        assert_eq!(digest_ok, Some(true));
        t.join().unwrap();
    }

    /// A v2 resume or v3 stripe header is refused with a typed error,
    /// and the peer gets no confirmation byte: the connection just ends.
    #[test]
    fn ranged_headers_are_refused_before_the_confirm() {
        use lsl_session::{Resume, StripeReq, HEADER_FLAG_DIGEST};
        use std::io::Write;
        use std::net::TcpStream;

        let ranged = [
            (Some(Resume::fresh()), None),
            (
                None,
                Some(StripeReq {
                    start_block: 0,
                    end_block: 2,
                }),
            ),
        ];
        for (resume, stripe) in ranged {
            let listener = LslListener::bind((Ipv4Addr::LOCALHOST, 0).into()).unwrap();
            let addr = listener.local_addr().unwrap();
            let header = LslHeader {
                session: SessionId(9),
                flags: HEADER_FLAG_DIGEST,
                length: 1 << 20,
                resume,
                stripe,
                route: vec![],
            };
            let t = std::thread::spawn(move || {
                let mut s = TcpStream::connect(addr).unwrap();
                s.write_all(&header.encode().unwrap()).unwrap();
                let mut reply = Vec::new();
                // EOF, or a reset if the close raced the read: either
                // way no byte arrives.
                let _ = s.read_to_end(&mut reply);
                reply
            });
            let err = listener.accept().err().expect("ranged header accepted");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(t.join().unwrap().is_empty(), "a confirm byte was sent");
        }
    }

    #[test]
    fn finish_rejects_short_write() {
        let listener = LslListener::bind((Ipv4Addr::LOCALHOST, 0).into()).unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let mut s = LslStream::connect(SessionId(6), &[], addr, 100, true, true).unwrap();
            s.write_all(b"only a little").unwrap();
            let err = s.finish().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        });
        let sess = listener.accept().unwrap();
        // The sender aborted; digest can't verify.
        let result = sess.read_all();
        match result {
            Ok((_, Some(ok))) => assert!(!ok),
            Ok((_, None)) => panic!("digest was announced"),
            Err(_) => {} // connection error is acceptable
        }
        t.join().unwrap();
    }

    /// Connects announcing `length`, writes `body`, then drops the
    /// stream without `finish`; returns what the sink's `read_all` made
    /// of it.
    fn abandoned_session(
        length: u64,
        digest: bool,
        body: &'static [u8],
    ) -> io::Result<(Vec<u8>, Option<bool>)> {
        let listener = LslListener::bind((Ipv4Addr::LOCALHOST, 0).into()).unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let mut s = LslStream::connect(SessionId(7), &[], addr, length, digest, true).unwrap();
            s.write_all(body).unwrap();
        });
        let sess = listener.accept().unwrap();
        let result = sess.read_all();
        t.join().unwrap();
        result
    }

    /// `u64::MAX` is the simulator's until-FIN length; over real TCP it
    /// is an announced length the stream can never meet.
    #[test]
    fn until_fin_length_does_not_overflow() {
        assert_eq!(
            abandoned_session(u64::MAX, true, b"hello").unwrap(),
            (b"hello".to_vec(), Some(false))
        );
        let err = abandoned_session(u64::MAX, false, b"hello").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// A byte source that hands out at most the next scheduled size per
    /// `read`, cycling through `sizes`.
    struct Scheduled<'a> {
        data: &'a [u8],
        sizes: &'a [usize],
        next: usize,
    }

    impl Read for Scheduled<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let size = self.sizes[self.next % self.sizes.len()];
            self.next += 1;
            let n = size.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// The hash list of `payload`: the MD5 of its 64 KiB blocks'
    /// digests, each block hashed alone.
    fn hash_list(payload: &[u8]) -> [u8; 16] {
        let list: Vec<u8> = payload
            .chunks(RESUME_BLOCK as usize)
            .flat_map(|block| lsl_digest::block_digests(&[block])[0])
            .collect();
        lsl_digest::md5(&list)
    }

    /// The one-shot rule the streaming verify must match: the digest
    /// verifies iff exactly `length + 16` bytes arrived and the hash
    /// list of the first `length` equals the last 16.
    fn one_shot(stream: &[u8], length: u64, digest: bool) -> Option<(Vec<u8>, Option<bool>)> {
        if !digest {
            return (stream.len() as u64 == length).then(|| (stream.to_vec(), None));
        }
        if stream.len() as u64 != length + 16 {
            return Some((stream.to_vec(), Some(false)));
        }
        let (payload, trailer) = stream.split_at(length as usize);
        Some((
            payload.to_vec(),
            Some(hash_list(payload)[..] == trailer[..]),
        ))
    }

    fn streamed(
        stream: &[u8],
        length: u64,
        digest: bool,
        sizes: &[usize],
        step: u64,
    ) -> Option<(Vec<u8>, Option<bool>)> {
        let src = Scheduled {
            data: stream,
            sizes,
            next: 0,
        };
        match read_body(src, length, digest, step) {
            Ok(got) => Some(got),
            Err(e) => {
                assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                None
            }
        }
    }

    /// `payload` followed by its hash-list trailer.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut v = payload.to_vec();
        v.extend_from_slice(&hash_list(payload));
        v
    }

    #[test]
    fn streaming_verify_edge_cases() {
        let payload: Vec<u8> = (0..100u8).collect();
        let good = framed(&payload);
        let mut flipped_payload = good.clone();
        flipped_payload[40] ^= 1;
        let mut flipped_trailer = good.clone();
        flipped_trailer[105] ^= 0x80;
        let mut extra = good.clone();
        extra.push(0);
        let short = &good[..good.len() - 1];
        let cases: [(&[u8], u64, Option<bool>); 6] = [
            (&good, 100, Some(true)),
            (&flipped_payload, 100, Some(false)),
            (&flipped_trailer, 100, Some(false)),
            (&extra, 100, Some(false)),
            (short, 100, Some(false)),
            (&framed(&[]), 0, Some(true)),
        ];
        // Reads of 7 and 3 bytes with 10-byte steps split the trailer
        // across reads and across steps.
        for (stream, length, want) in cases {
            for (sizes, step) in [
                (&[7usize, 3][..], 10),
                (&[1][..], 1),
                (&[4096][..], 1 << 20),
            ] {
                let got = streamed(stream, length, true, sizes, step).unwrap();
                assert_eq!(got.1, want, "stream of {} bytes", stream.len());
                assert_eq!(Some(got), one_shot(stream, length, true));
            }
        }
    }

    /// A payload over more than one group of eight blocks: the
    /// streaming verify hashes it group by group, and still matches the
    /// one-shot rule when a byte in the ninth block or the trailer is
    /// flipped, the stream is cut short, or two blocks swap places.
    #[test]
    fn streaming_verify_spans_hash_groups() {
        const B: usize = RESUME_BLOCK as usize;
        let payload: Vec<u8> = (0..9 * B + 1000).map(|i| (i * 131 % 251) as u8).collect();
        let good = framed(&payload);
        let mut flipped_block = good.clone();
        flipped_block[8 * B + 5] ^= 1;
        let mut flipped_trailer = good.clone();
        *flipped_trailer.last_mut().unwrap() ^= 1;
        let mut swapped = good.clone();
        swapped[..2 * B].rotate_left(B);
        let length = payload.len() as u64;
        let cases: [(&[u8], Option<bool>); 5] = [
            (&good, Some(true)),
            (&flipped_block, Some(false)),
            (&flipped_trailer, Some(false)),
            (&good[..good.len() - 1], Some(false)),
            (&swapped, Some(false)),
        ];
        for (stream, want) in cases {
            for (sizes, step) in [
                (&[4096usize][..], READ_STEP),
                (&[3 * B + 7][..], 1 << 20),
                (&[100_000][..], 70_000),
            ] {
                let got = streamed(stream, length, true, sizes, step).unwrap();
                assert_eq!(got.1, want, "stream of {} bytes", stream.len());
                assert_eq!(Some(got), one_shot(stream, length, true));
            }
        }
    }

    proptest::proptest! {
        /// Any payload under any read-size schedule and step gives the
        /// one-shot result, intact or with one byte flipped, added or
        /// removed, and with or without a digest.
        #[test]
        fn streaming_verify_matches_one_shot(
            payload in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..600),
            sizes in proptest::collection::vec(1usize..64, 1..8),
            step in 1u64..300,
            damage in 0u8..4,
            at in proptest::prelude::any::<usize>(),
            digest in proptest::prelude::any::<bool>(),
        ) {
            let length = payload.len() as u64;
            let mut stream = if digest { framed(&payload) } else { payload.clone() };
            match damage {
                0 => {}
                1 if !stream.is_empty() => {
                    let i = at % stream.len();
                    stream[i] ^= 1;
                }
                2 => stream.push(at as u8),
                _ => {
                    stream.pop();
                }
            }
            proptest::prop_assert_eq!(
                streamed(&stream, length, digest, &sizes, step),
                one_shot(&stream, length, digest)
            );
        }
    }
}
