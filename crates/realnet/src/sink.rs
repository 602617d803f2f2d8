//! Sink-side LSL listener over real TCP.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};

use lsl_digest::Md5;
use lsl_session::endpoint::SESSION_CONFIRM;
use lsl_session::{LslHeader, SessionId};

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
    /// synchronous session confirmation.
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
    /// `length` bytes, followed by the 16-byte digest when flagged.
    pub fn read_all(mut self) -> io::Result<(Vec<u8>, Option<bool>)> {
        let length = self.header.length as usize;
        // Room for the announced stream, trailer included, so a
        // well-formed session never reallocates (capped: the length is
        // the peer's claim). The kernel copies straight into it.
        let trailer = if self.header.has_digest() { 16 } else { 0 };
        let mut payload = Vec::with_capacity(length.min(1 << 26) + trailer);
        payload.extend_from_slice(&self.leftover);
        self.stream.read_to_end(&mut payload)?;
        let digest_ok = if self.header.has_digest() {
            if payload.len() != length + 16 {
                Some(false)
            } else {
                let trailer = payload.split_off(length);
                let mut md5 = Md5::new();
                md5.update(&payload);
                Some(md5.finalize()[..] == trailer[..])
            }
        } else {
            if payload.len() != length {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("announced {length} bytes, received {}", payload.len()),
                ));
            }
            None
        };
        Ok((payload, digest_ok))
    }
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
}
