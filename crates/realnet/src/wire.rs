//! Address conversion between real sockets and the shared LSL header.

use std::io::{self, Read};
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4};

use lsl_netsim::NodeId;
use lsl_session::{Hop, LslHeader};

/// Encode an IPv4 socket address as a header hop (the 32-bit node field
/// carries the address bits).
pub fn hop_from_addr(addr: SocketAddrV4) -> Hop {
    Hop::new(NodeId(u32::from(*addr.ip())), addr.port())
}

/// Decode a header hop back into a socket address.
pub fn addr_from_hop(hop: Hop) -> SocketAddrV4 {
    SocketAddrV4::new(Ipv4Addr::from(hop.node.0), hop.port)
}

/// Coerce a general `SocketAddr` to V4 (the realnet layer is IPv4-only;
/// the paper predates any IPv6 deployment concern — §III discusses v6
/// multihoming as future motivation).
pub fn require_v4(addr: SocketAddr) -> io::Result<SocketAddrV4> {
    match addr {
        SocketAddr::V4(a) => Ok(a),
        SocketAddr::V6(_) => Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "LSL realnet routes are IPv4-only",
        )),
    }
}

/// Most bytes one `read` asks for while a header is incomplete. Headers
/// are at most 143 B (the 47-byte v2 fixed part plus `MAX_HOPS` 6-byte
/// hops), so one read usually holds the whole header.
const HEADER_READ: usize = 1024;

/// Read a complete LSL header from a blocking stream. Reads take what
/// the socket has, so they may run past the header: the bytes after it
/// come back as the leftover, which the caller must forward or consume
/// before reading the stream again.
pub fn read_header(stream: &mut impl Read) -> io::Result<(LslHeader, Vec<u8>)> {
    let mut buf = Vec::with_capacity(HEADER_READ);
    loop {
        match LslHeader::decode(&buf) {
            Ok(Some((header, used))) => {
                let leftover = buf.split_off(used);
                return Ok((header, leftover));
            }
            Ok(None) => {}
            Err(e) => {
                return Err(io::Error::new(io::ErrorKind::InvalidData, e));
            }
        }
        let at = buf.len();
        buf.resize(at + HEADER_READ, 0);
        let n = stream.read(&mut buf[at..])?;
        buf.truncate(at + n);
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "EOF before complete LSL header",
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsl_session::SessionId;

    #[test]
    fn addr_roundtrip() {
        let a = SocketAddrV4::new(Ipv4Addr::new(127, 0, 0, 1), 7001);
        assert_eq!(addr_from_hop(hop_from_addr(a)), a);
        let b = SocketAddrV4::new(Ipv4Addr::new(10, 20, 30, 40), 65535);
        assert_eq!(addr_from_hop(hop_from_addr(b)), b);
    }

    /// Hands out at most `max` bytes per `read`.
    struct Trickle<R> {
        inner: R,
        max: usize,
    }

    impl<R: Read> Read for Trickle<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.max);
            self.inner.read(&mut buf[..n])
        }
    }

    /// However the reads split the stream, the header, the leftover and
    /// the unread rest put back together are the stream itself.
    #[test]
    fn read_header_from_cursor() {
        let h = LslHeader {
            session: SessionId(7),
            flags: 1,
            length: 99,
            resume: None,
            stripe: None,
            route: vec![hop_from_addr(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 9))],
        };
        let encoded = h.encode().unwrap().to_vec();
        let mut data = encoded.clone();
        data.extend_from_slice(b"payload-bytes");
        for max in [1, 7, encoded.len(), 4096] {
            let mut src = Trickle {
                inner: std::io::Cursor::new(data.clone()),
                max,
            };
            let (got, leftover) = read_header(&mut src).unwrap();
            assert_eq!(got, h, "reads of {max}");
            let mut rest = Vec::new();
            src.inner.read_to_end(&mut rest).unwrap();
            let rebuilt = [got.encode().unwrap().to_vec(), leftover, rest].concat();
            assert_eq!(rebuilt, data, "reads of {max}");
        }
    }

    #[test]
    fn read_header_eof_mid_header() {
        let h = LslHeader {
            session: SessionId(7),
            flags: 0,
            length: 1,
            resume: None,
            stripe: None,
            route: vec![],
        };
        let enc = h.encode().unwrap();
        let mut cur = std::io::Cursor::new(enc[..10].to_vec());
        assert_eq!(
            read_header(&mut cur).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn read_header_bad_magic() {
        let mut cur = std::io::Cursor::new(b"GARBAGE-NOT-LSL".to_vec());
        assert_eq!(
            read_header(&mut cur).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }
}
