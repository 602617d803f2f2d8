//! Client-side LSL stream over real TCP.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};

use lsl_digest::LANES;
use lsl_session::endpoint::{HashList, SESSION_CONFIRM};
use lsl_session::{LslHeader, SessionId, HEADER_FLAG_DIGEST, RESUME_BLOCK};

use crate::wire::{hop_from_addr, require_v4};

/// Stream bytes per block of the hash list.
const BLOCK: usize = RESUME_BLOCK as usize;

/// An outbound LSL session: connects to the first hop, sends the header,
/// (optionally) waits for the sink's confirmation, then streams writes;
/// [`LslStream::finish`] appends the digest trailer, the hash list of
/// the stream's 64 KiB blocks, and half-closes.
pub struct LslStream {
    stream: TcpStream,
    /// The hash list of the whole blocks written, and the written bytes
    /// of the block after them. None without a digest.
    digest: Option<(HashList, Vec<u8>)>,
    length: u64,
    written: u64,
}

impl LslStream {
    /// Open a session along `depots` toward `dst`, announcing a payload
    /// of exactly `length` bytes. `sync` waits for the sink confirmation
    /// before returning (the paper's synchronous mode).
    pub fn connect(
        session: SessionId,
        depots: &[SocketAddr],
        dst: SocketAddr,
        length: u64,
        digest: bool,
        sync: bool,
    ) -> io::Result<LslStream> {
        // The header's route lists the hops *after* the first connection:
        // all later depots, then the destination. A direct session (no
        // depots) therefore carries an empty route.
        let mut route = Vec::with_capacity(depots.len());
        for d in depots.iter().skip(1) {
            route.push(hop_from_addr(require_v4(*d)?));
        }
        if !depots.is_empty() {
            route.push(hop_from_addr(require_v4(dst)?));
        }
        let first = depots.first().copied().unwrap_or(dst);

        let header = LslHeader {
            session,
            flags: if digest { HEADER_FLAG_DIGEST } else { 0 },
            length,
            resume: None,
            stripe: None,
            route,
        };
        let mut stream = TcpStream::connect(first)?;
        stream.set_nodelay(true)?;
        let header_bytes = header
            .encode()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        stream.write_all(&header_bytes)?;
        if sync {
            let mut confirm = [0u8; 1];
            stream.read_exact(&mut confirm)?;
            if confirm[0] != SESSION_CONFIRM {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "bad session confirmation",
                ));
            }
        }
        Ok(LslStream {
            stream,
            digest: digest.then(Default::default),
            length,
            written: 0,
        })
    }

    /// Payload bytes written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flush the digest trailer (if any) and half-close the session.
    /// Exactly `length` bytes must have been written.
    pub fn finish(mut self) -> io::Result<()> {
        if self.written != self.length {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "session announced {} bytes but {} were written",
                    self.length, self.written
                ),
            ));
        }
        if let Some((mut list, partial)) = self.digest.take() {
            list.blocks(&partial);
            self.stream.write_all(&list.trailer())?;
        }
        self.stream.flush()?;
        self.stream.shutdown(Shutdown::Write)?;
        // Wait for the sink's FIN so teardown is clean before we return.
        let mut tail = [0u8; 64];
        while matches!(self.stream.read(&mut tail), Ok(n) if n > 0) {}
        Ok(())
    }
}

impl Write for LslStream {
    /// Sends at most [`LANES`] blocks per call, then hashes the whole
    /// blocks among them straight from `buf`; only a block cut across
    /// calls is copied aside.
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.stream.write(&buf[..buf.len().min(LANES * BLOCK)])?;
        if let Some((list, partial)) = &mut self.digest {
            let mut data = &buf[..n];
            if !partial.is_empty() {
                let fill = (BLOCK - partial.len()).min(data.len());
                partial.extend_from_slice(&data[..fill]);
                data = &data[fill..];
                if partial.len() == BLOCK {
                    list.blocks(partial);
                    partial.clear();
                }
            }
            let whole = data.len() - data.len() % BLOCK;
            list.blocks(&data[..whole]);
            partial.extend_from_slice(&data[whole..]);
        }
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}
