//! Endpoint applications: a bulk data source and a verifying sink.
//!
//! These drive the paper's experiments: fixed-size synchronous transfers
//! measured wall-clock from connection initiation to the sink consuming
//! the full stream (including LSL header and digest overheads, and "all
//! concomitant processing overheads" of the depots in between).
//!
//! Every attempt has one shape at each end. The sender
//! ([`BulkSender::start`]) takes an optional [`Request`] and streams the
//! block range `[start_block, end_block)` the sink grants, trailed by
//! its MD5: a v2 resume is the range from the first unverified block to
//! the end of the stream, a v3 stripe its own sub-range, and a plain v1
//! attempt's one-byte confirmation grants the whole stream. The sink
//! feeds each attempt's payload through one `Body` (trailer hold-back,
//! pattern check, hashing) — a ranged attempt hashes in a
//! per-connection [`DigestChain`] whose blocks certify into the
//! session's [`BlockLedger`] — and records every way an attempt ends as
//! one [`TransferOutcome`].

use std::collections::BTreeMap;
use std::sync::LazyLock;

use bytes::Bytes;
use lsl_digest::{md5, BlockLedger, DigestChain, Md5, DIGEST_LEN};
use lsl_netsim::{Dur, NodeId, Time};
use lsl_tcp::{AppEvent, Net, SockEvent, SockId, TcpConfig};

use crate::error::{Handled, SessionError, WireError};
use crate::header::{LslHeader, Resume, StripeReq, HEADER_FLAG_DIGEST};
use crate::id::SessionId;
use crate::route::LslPath;

/// Resume granularity: the sink certifies delivery in blocks of this
/// many bytes, and grants resume offsets only at block boundaries.
pub const RESUME_BLOCK: u64 = 64 * 1024;

/// The MD5 block `block` of a `total`-byte stream must carry when the
/// stream follows the generator pattern — the sink's per-block
/// verification reference (the pattern plays the role a stored file's
/// on-disk blocks would play in a deployment). The stream's final
/// block may be shorter than [`RESUME_BLOCK`].
pub fn expected_block_digest(block: u64, total: u64) -> [u8; DIGEST_LEN] {
    let start = block * RESUME_BLOCK;
    let len = RESUME_BLOCK.min(total.saturating_sub(start));
    md5(&payload_chunk(start, len as usize))
}

/// Number of [`RESUME_BLOCK`]-sized blocks covering a `total`-byte
/// stream (the last block may be short).
pub fn stream_blocks(total: u64) -> u64 {
    total.div_ceil(RESUME_BLOCK)
}

/// Stream offset of block boundary `block` in a `total`-byte stream:
/// where a range starting (or ending) there begins (or stops).
fn block_offset(block: u64, total: u64) -> u64 {
    block.saturating_mul(RESUME_BLOCK).min(total)
}

/// Period of the payload pattern: [`payload_byte`]`(i)` depends only on
/// `i mod 251`.
const PATTERN_PERIOD: u64 = 251;

/// Deterministic payload byte at stream offset `i` (shared by sender and
/// verifying sink).
pub fn payload_byte(i: u64) -> u8 {
    (((i % 251) * 131 + 7) % 251) as u8
}

/// The pattern from phase 0, `SEND_CHUNK + PATTERN_PERIOD - 1` bytes
/// long: any run of up to [`SEND_CHUNK`] stream bytes, at any phase, is
/// one slice of it. Built once; chunks are views of it.
static PATTERN: LazyLock<Bytes> = LazyLock::new(|| {
    Bytes::from(
        (0..SEND_CHUNK + PATTERN_PERIOD - 1)
            .map(payload_byte)
            .collect::<Vec<u8>>(),
    )
});

/// Payload bytes `[offset, offset+len)` as consecutive slices of
/// [`PATTERN`], each at most [`SEND_CHUNK`] long.
fn pattern_pieces(offset: u64, len: usize) -> impl Iterator<Item = &'static [u8]> {
    let table: &'static [u8] = &PATTERN;
    let step = SEND_CHUNK as usize;
    (0..len).step_by(step).map(move |done| {
        let phase = ((offset + done as u64) % PATTERN_PERIOD) as usize;
        &table[phase..phase + (len - done).min(step)]
    })
}

/// Materialize payload bytes `[offset, offset+len)`: a view of the
/// shared pattern table up to `SEND_CHUNK` (256 KiB) bytes, a copy
/// beyond.
pub fn payload_chunk(offset: u64, len: usize) -> Bytes {
    if len as u64 <= SEND_CHUNK {
        let phase = (offset % PATTERN_PERIOD) as usize;
        return PATTERN.slice(phase..phase + len);
    }
    let mut out = Vec::with_capacity(len);
    for piece in pattern_pieces(offset, len) {
        out.extend_from_slice(piece);
    }
    Bytes::from(out)
}

/// Whether `data` is the payload pattern at stream offset `offset`.
fn is_payload(offset: u64, data: &[u8]) -> bool {
    data.chunks(SEND_CHUNK as usize)
        .zip(pattern_pieces(offset, data.len()))
        .all(|(got, want)| got == want)
}

/// How the sender frames the stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendMode {
    /// Plain end-to-end TCP: raw payload only (the paper's baseline).
    DirectTcp,
    /// LSL, the paper's measured mode: header first, then payload,
    /// then the MD5 digest trailer. The source streams only after the
    /// sink's one-byte session confirmation has travelled back through
    /// the cascade.
    Lsl,
}

impl SendMode {
    /// The paper's LSL configuration.
    pub fn lsl() -> SendMode {
        SendMode::Lsl
    }
}

/// The sink's session-establishment confirmation byte.
pub const SESSION_CONFIRM: u8 = 0x4b; // 'K'

/// Sender progress.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SenderState {
    Connecting,
    /// Header sent; waiting for the sink's confirmation (LSL mode).
    AwaitingConfirm,
    Streaming,
    Done,
    Failed(SessionError),
}

/// A bulk data source pushing `total` patterned bytes along `path`.
pub struct BulkSender {
    sock: SockId,
    mode: SendMode,
    state: SenderState,
    total: u64,
    sent: u64,
    /// One past the last byte this attempt streams (the granted range's
    /// end; mid-stream only for striped attempts).
    limit: u64,
    /// The LSL header, then the digest trailer (both empty in direct
    /// TCP mode; the trailer until the payload is out).
    header: Bytes,
    header_sent: usize,
    trailer: Bytes,
    trailer_sent: usize,
    md5: Option<Md5>,
    /// The block-range request sent in the header (None = plain v1
    /// attempt, whose confirmation grants the whole stream).
    request: Option<Request>,
    /// Block range the sink granted (set on confirmation).
    grant: Option<(u64, u64)>,
    /// Accumulates the confirmation reply (1 byte plain, 9 with resume,
    /// 17 with a stripe request).
    confirm_buf: Vec<u8>,
    pub started_at: Time,
    pub finished_at: Option<Time>,
    /// Payload bytes handed to `net.send`, accepted or not.
    #[cfg(test)]
    generated: u64,
}

/// The block range a certifying attempt asks the sink for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Request {
    /// v2: the whole stream, from wherever the sink's verified prefix
    /// ends. The 9-byte grant carries that start as a byte offset.
    Resume(Resume),
    /// v3: an explicit block range. The 17-byte grant carries the
    /// sub-range the sink still needs.
    Stripe(StripeReq),
}

impl Request {
    /// Length of the sink's confirmation reply, confirm byte included.
    fn reply_len(self) -> usize {
        match self {
            Request::Resume(_) => 9,
            Request::Stripe(_) => 17,
        }
    }

    /// Decode the grant that follows the confirm byte into a block range
    /// of a `total`-byte stream. The sink is the verification authority,
    /// so a grant narrower than the request is normal (a resume below
    /// the request simply resends more; a stripe skips blocks another
    /// cascade delivered). A grant that is misaligned, or outside the
    /// request or the stream, is protocol corruption: the typed
    /// mismatch.
    fn decode_grant(self, grant: &[u8], total: u64) -> Result<(u64, u64), SessionError> {
        let word = |i: usize| u64::from_be_bytes(grant[i..i + 8].try_into().expect("8 bytes"));
        match self {
            Request::Resume(_) => {
                // A block boundary, or the end of the stream.
                let granted = word(0);
                if granted > total || (!granted.is_multiple_of(RESUME_BLOCK) && granted != total) {
                    return Err(SessionError::ResumeMismatch { granted });
                }
                Ok((granted.div_ceil(RESUME_BLOCK), stream_blocks(total)))
            }
            Request::Stripe(req) => {
                let (start, end) = (word(0), word(8));
                if start > end || start < req.start_block || end > req.end_block {
                    return Err(SessionError::StripeMismatch {
                        granted_start: start,
                        granted_end: end,
                    });
                }
                Ok((start, end))
            }
        }
    }
}

/// Most payload bytes handed to the socket in one send.
const SEND_CHUNK: u64 = 256 * 1024;

/// Hand `data[*sent..]` to the socket; true once all of it is accepted.
fn flush(net: &mut Net, sock: SockId, data: &Bytes, sent: &mut usize) -> bool {
    while *sent < data.len() {
        let n = net.send(sock, &data.slice(*sent..));
        *sent += n;
        if n == 0 {
            return false;
        }
    }
    true
}

impl BulkSender {
    /// Initiate the transfer: connect to the path's first hop.
    ///
    /// `request` asks the sink for a block range and requires
    /// `SendMode::Lsl`, whose digest verifies the blocks and whose
    /// confirmation round-trip carries the grant:
    /// - [`Request::Resume`] sends a version-2 header and expects the
    ///   9-byte confirmation carrying the sink's granted offset;
    /// - [`Request::Stripe`] (one striped cascade) sends a version-3
    ///   header offering blocks `[start_block, end_block)` and expects
    ///   the 17-byte confirmation carrying the range the sink grants,
    ///   possibly narrowed because another cascade delivered the head.
    ///
    /// Either way the attempt streams exactly the granted range and
    /// trails it with an MD5 over those bytes. Without a request, the
    /// one-byte v1 confirmation grants the whole stream.
    #[allow(clippy::too_many_arguments)] // one-shot constructor mirroring the LSL API surface
    pub fn start(
        net: &mut Net,
        src: NodeId,
        path: &LslPath,
        session: SessionId,
        total: u64,
        mode: SendMode,
        tcp: TcpConfig,
        trace_label: Option<&str>,
        request: Option<Request>,
    ) -> BulkSender {
        path.validate().expect("invalid LSL path");
        assert!(
            path.remaining_route().len() <= crate::header::MAX_HOPS,
            "route exceeds MAX_HOPS; build candidate sets through RoutePlan"
        );
        assert!(
            request.is_none() || mode == SendMode::Lsl,
            "a resume or stripe request requires LSL mode"
        );
        let (resume, stripe) = match request {
            None => (None, None),
            Some(Request::Resume(r)) => (Some(r), None),
            Some(Request::Stripe(s)) => {
                assert!(
                    s.start_block <= s.end_block && s.end_block <= stream_blocks(total),
                    "stripe range outside the stream"
                );
                (None, Some(s))
            }
        };
        let first = path.first_hop();
        let sock = net.connect(src, first.node, first.port, tcp);
        if let Some(label) = trace_label {
            net.enable_trace(sock, label);
        }
        let header = match mode {
            SendMode::DirectTcp => {
                assert!(path.depots.is_empty(), "direct TCP cannot traverse depots");
                Bytes::new()
            }
            SendMode::Lsl => LslHeader {
                session,
                flags: HEADER_FLAG_DIGEST,
                length: total,
                resume,
                stripe,
                route: path.remaining_route(),
            }
            .encode()
            .expect("route length asserted against MAX_HOPS above"),
        };
        let md5 = (mode == SendMode::Lsl).then(Md5::new);
        BulkSender {
            sock,
            mode,
            state: SenderState::Connecting,
            total,
            sent: 0,
            limit: total,
            header,
            header_sent: 0,
            trailer: Bytes::new(),
            trailer_sent: 0,
            md5,
            request,
            grant: None,
            confirm_buf: Vec::new(),
            started_at: net.now(),
            finished_at: None,
            #[cfg(test)]
            generated: 0,
        }
    }

    pub fn sock(&self) -> SockId {
        self.sock
    }

    pub fn state(&self) -> SenderState {
        self.state
    }

    pub fn is_done(&self) -> bool {
        matches!(self.state, SenderState::Done | SenderState::Failed(_))
    }

    /// Monotone progress metric for the recovery watchdog: bytes the
    /// socket has accepted so far (header + payload + digest trailer).
    pub fn progress(&self) -> u64 {
        self.header_sent as u64 + self.sent + self.trailer_sent as u64
    }

    /// The offset the sink granted this attempt (resume mode, after the
    /// confirmation round-trip). `None` before confirmation or when no
    /// resume request was sent.
    pub fn resume_granted(&self) -> Option<u64> {
        match self.request {
            Some(Request::Resume(_)) => {
                self.grant.map(|(start, _)| block_offset(start, self.total))
            }
            _ => None,
        }
    }

    /// The block range the sink granted this striped attempt. `None`
    /// before confirmation or for non-striped attempts.
    pub fn stripe_granted(&self) -> Option<(u64, u64)> {
        match self.request {
            Some(Request::Stripe(_)) => self.grant,
            _ => None,
        }
    }

    /// Absolute stream offset reached so far (granted range start +
    /// streamed payload) — what a later resumed attempt measures resend
    /// waste against.
    pub fn stream_offset(&self) -> u64 {
        self.sent
    }

    /// Tear the attempt down (recovery decided the sublink is dead):
    /// abort the socket and record the typed cause.
    pub fn fail(&mut self, net: &mut Net, err: SessionError) {
        if !self.is_done() {
            self.state = SenderState::Failed(err);
            self.finished_at.get_or_insert(net.now());
        }
        net.abort(self.sock);
    }

    /// Feed one event; [`Handled::Consumed`] means it was this sender's.
    pub fn handle(&mut self, net: &mut Net, ev: &AppEvent) -> Handled {
        let AppEvent::Sock { sock, event } = ev else {
            // Timers belong to other components; fault notifications are
            // broadcast and stay unconsumed by convention.
            return Handled::NotMine;
        };
        if *sock != self.sock {
            return Handled::NotMine;
        }
        match event {
            SockEvent::Connected => {
                // Ship the header immediately; in LSL mode the payload
                // waits for the sink's confirmation.
                flush(net, self.sock, &self.header, &mut self.header_sent);
                match self.mode {
                    SendMode::Lsl => self.state = SenderState::AwaitingConfirm,
                    SendMode::DirectTcp => {
                        self.state = SenderState::Streaming;
                        self.pump(net);
                    }
                }
            }
            SockEvent::Readable if self.state == SenderState::AwaitingConfirm => {
                // The confirm byte, followed by the grant when a range
                // was requested (the reply may arrive fragmented).
                let want = self.request.map_or(1, Request::reply_len);
                let b = net.recv(self.sock, want - self.confirm_buf.len());
                self.confirm_buf.extend_from_slice(&b);
                if self.confirm_buf.len() == want && self.confirm_buf[0] == SESSION_CONFIRM {
                    let grant = match self.request {
                        None => Ok((0, stream_blocks(self.total))),
                        Some(req) => req.decode_grant(&self.confirm_buf[1..], self.total),
                    };
                    self.on_grant(net, grant);
                }
            }
            SockEvent::Writable => self.pump(net),
            SockEvent::Error(e) => {
                self.state = SenderState::Failed(SessionError::Tcp(*e));
                self.finished_at.get_or_insert(net.now());
            }
            SockEvent::Closed => {
                self.finished_at.get_or_insert(net.now());
            }
            _ => {}
        }
        Handled::Consumed
    }

    /// The sink's grant arrived: stream exactly blocks `[start, end)`,
    /// trailed by an MD5 over those bytes only (the blocks outside it
    /// are certified through other ranges). An empty grant is a no-op
    /// attempt: everything it offered to carry is already verified. A
    /// malformed grant fails the attempt with its typed mismatch.
    fn on_grant(&mut self, net: &mut Net, grant: Result<(u64, u64), SessionError>) {
        let (start, end) = match grant {
            Ok(range) => range,
            Err(e) => {
                self.state = SenderState::Failed(e);
                self.finished_at.get_or_insert(net.now());
                net.abort(self.sock);
                return;
            }
        };
        self.grant = Some((start, end));
        self.sent = block_offset(start, self.total);
        self.limit = block_offset(end, self.total);
        self.state = SenderState::Streaming;
        self.pump(net);
    }

    fn pump(&mut self, net: &mut Net) {
        if self.state != SenderState::Streaming {
            return;
        }
        // 1. Header (when not already flushed pre-confirmation).
        if !flush(net, self.sock, &self.header, &mut self.header_sent) {
            return;
        }
        // 2. Payload (bounded by the granted range), never more than
        // the socket can take plus one byte: a full buffer refuses that
        // byte, and the short send arms the next Writable.
        while self.sent < self.limit {
            let room = net.send_space(self.sock).saturating_add(1);
            let len = (self.limit - self.sent).min(SEND_CHUNK).min(room) as usize;
            let chunk = payload_chunk(self.sent, len);
            #[cfg(test)]
            {
                self.generated += len as u64;
            }
            let n = net.send(self.sock, &chunk);
            if let Some(md5) = &mut self.md5 {
                md5.update(&chunk[..n]);
            }
            self.sent += n as u64;
            if n < len {
                return;
            }
        }
        // 3. Digest trailer.
        if let Some(md5) = self.md5.take() {
            self.trailer = Bytes::copy_from_slice(&md5.finalize());
        }
        if !flush(net, self.sock, &self.trailer, &mut self.trailer_sent) {
            return;
        }
        // 4. Done: half-close; FIN cascades to the sink.
        self.state = SenderState::Done;
        net.close(self.sock);
    }
}

/// How one inbound transfer attempt ended at the sink.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransferStatus {
    /// Full stream received and every enabled check passed.
    Complete,
    /// The attempt failed for the given typed reason (replaces the old
    /// opaque `SinkServer::errors` counter).
    Failed(SessionError),
}

/// Result of one inbound transfer attempt at the sink — successful or
/// not, every attempt yields exactly one outcome.
#[derive(Clone, Debug)]
pub struct TransferOutcome {
    /// Session id (None for direct-TCP transfers or pre-header failures).
    pub session: Option<SessionId>,
    /// Typed disposition of the attempt.
    pub status: TransferStatus,
    /// Stream position reached, in payload bytes (header and digest
    /// excluded; for resumed attempts this includes the granted prefix,
    /// so it is the absolute high-water mark, not this attempt's count).
    pub bytes: u64,
    /// Payload bytes *this* attempt (this cascade's connection) actually
    /// delivered — honest per-cascade attribution, excluding any
    /// resumed-over prefix that `bytes` folds in.
    pub attempt_bytes: u64,
    /// Blocks this attempt newly certified (duplicates another cascade
    /// already delivered are excluded — they were discarded).
    pub blocks_certified: u64,
    /// The block range the sink granted a striped attempt (None for
    /// non-striped attempts).
    pub stripe: Option<(u64, u64)>,
    /// Session-wide verified block count (in any order) when this
    /// attempt ended. Equals `verified_blocks` for single-cascade
    /// sessions; for striped sessions it includes out-of-order blocks
    /// beyond the contiguous prefix.
    pub session_verified: u64,
    /// Digest verification result (None when no digest was sent or the
    /// stream died first).
    pub digest_ok: Option<bool>,
    /// Whether every payload byte matched the generator pattern.
    pub content_ok: bool,
    /// Highest *contiguously verified* block count for the session when
    /// this attempt ended — the sink's delivery verdict that resume
    /// grants are based on (0 for non-resume attempts).
    pub verified_blocks: u64,
    /// The offset the sink granted this attempt (0 = started fresh).
    pub resume_offset: u64,
    /// When the connection was accepted.
    pub accepted_at: Time,
    /// When the attempt ended (EOF/digest verified, or the failure).
    pub completed_at: Time,
}

impl TransferOutcome {
    /// Did this attempt deliver a fully verified stream?
    pub fn ok(&self) -> bool {
        self.status == TransferStatus::Complete
    }

    /// The typed failure reason, if any.
    pub fn failure(&self) -> Option<SessionError> {
        match self.status {
            TransferStatus::Complete => None,
            TransferStatus::Failed(e) => Some(e),
        }
    }
}

/// Per-connection certification state for one granted block range
/// `[start_block, end_block)`: a [`DigestChain`] over *this
/// connection's bytes only*, whose block `i` is stream block
/// `start_block + i`. Certified blocks go into the session's
/// [`BlockLedger`], so attempts and cascades certify independently of
/// one another's arrival order.
struct RangeBody {
    start_block: u64,
    end_block: u64,
    chain: DigestChain,
    /// Chain blocks already checked against the reference digests.
    scanned: u64,
    /// Blocks this connection newly certified in the session ledger.
    certified: u64,
    /// A completed block failed its digest; certification is frozen.
    corrupt: bool,
}

impl RangeBody {
    fn new(start_block: u64, end_block: u64) -> RangeBody {
        RangeBody {
            start_block,
            end_block,
            chain: DigestChain::new(RESUME_BLOCK),
            scanned: 0,
            certified: 0,
            corrupt: false,
        }
    }

    /// Check every newly completed chain block of a `total`-byte stream
    /// against its reference digest and certify matches in the session
    /// ledger (duplicates are counted and discarded). A mismatch
    /// freezes certification for this connection; the next attempt is
    /// granted from the first block still missing.
    fn certify(&mut self, ledger: &mut BlockLedger, total: u64, sid: u64) {
        while !self.corrupt && self.scanned < self.chain.completed() {
            let block = self.start_block + self.scanned;
            if self.chain.digest_of(self.scanned) != Some(expected_block_digest(block, total)) {
                self.corrupt = true;
                break;
            }
            if ledger.certify(block) {
                self.certified += 1;
            } else {
                lsl_obs::counter_add("sink.stripe.dup_block", sid, 1);
            }
            self.scanned += 1;
        }
    }
}

/// The payload half of one attempt at the sink: everything after the
/// header (a raw TCP conn is all body). Plain attempts with a digest
/// hash into one whole-stream MD5; resume and stripe attempts hash into
/// their granted range's chain, which certifies blocks into the session
/// ledger; the rest are only pattern-checked.
struct Body {
    /// None for raw TCP. Boxed (like `range`) so the conn state stays
    /// small.
    header: Option<Box<LslHeader>>,
    /// Whole-stream hasher of a plain (v1) attempt that carries a digest.
    md5: Md5,
    /// Payload bytes consumed by *this* attempt.
    received: u64,
    /// The last up-to-16 bytes seen, held back from the hashers: the
    /// candidate digest trailer.
    tail: Vec<u8>,
    content_ok: bool,
    /// Stream offset this attempt started at (its granted range's
    /// first byte; 0 for plain attempts).
    offset: u64,
    /// The granted block range of a resume or stripe attempt.
    range: Option<Box<RangeBody>>,
}

impl Body {
    fn new(header: Option<LslHeader>, offset: u64, range: Option<RangeBody>) -> Body {
        Body {
            header: header.map(Box::new),
            md5: Md5::new(),
            received: 0,
            tail: Vec::new(),
            content_ok: true,
            offset,
            range: range.map(Box::new),
        }
    }

    fn has_digest(&self) -> bool {
        self.header.as_ref().is_some_and(|h| h.has_digest())
    }

    /// The granted range as outcomes report it: v3 stripes only (a v2
    /// resume's range is the stream tail from `resume_offset`).
    fn stripe(&self) -> Option<(u64, u64)> {
        match (&self.header, &self.range) {
            (Some(h), Some(r)) if h.stripe.is_some() => Some((r.start_block, r.end_block)),
            _ => None,
        }
    }

    /// The session ledger a ranged attempt certifies into.
    fn ledger<'a>(
        &self,
        sessions: &'a mut BTreeMap<SessionId, SessionProgress>,
    ) -> Option<&'a mut BlockLedger> {
        let h = self.header.as_ref().filter(|_| self.range.is_some())?;
        let p = sessions.get_mut(&h.session);
        Some(&mut p.expect("range conn without a session").ledger)
    }

    /// Take in one read, holding back the last 16 bytes seen when a
    /// digest is expected: they are the candidate trailer, and
    /// everything before them is payload.
    fn feed(&mut self, sessions: &mut BTreeMap<SessionId, SessionProgress>, data: &[u8]) {
        let mut ledger = self.ledger(sessions);
        if !self.has_digest() {
            self.absorb(ledger, data);
            return;
        }
        // Bytes beyond the last 16 are payload: the oldest come from the
        // held-back tail, the rest straight from `data`.
        let mut tail = std::mem::take(&mut self.tail);
        let excess = (tail.len() + data.len()).saturating_sub(DIGEST_LEN);
        let from_tail = excess.min(tail.len());
        self.absorb(ledger.as_deref_mut(), &tail[..from_tail]);
        tail.drain(..from_tail);
        let from_data = excess - from_tail;
        self.absorb(ledger, &data[..from_data]);
        tail.extend_from_slice(&data[from_data..]);
        self.tail = tail;
    }

    /// Absorb payload bytes: pattern-check, hash, and (for ranged
    /// attempts) certify newly completed blocks into `ledger`.
    fn absorb(&mut self, ledger: Option<&mut BlockLedger>, payload: &[u8]) {
        if self.content_ok {
            self.content_ok = is_payload(self.offset + self.received, payload);
        }
        match (&mut self.range, &self.header, ledger) {
            (Some(r), Some(h), Some(ledger)) => {
                r.chain.update(payload);
                r.certify(ledger, h.length, h.session.0 as u64);
            }
            (_, Some(h), _) if h.has_digest() => self.md5.update(payload),
            _ => {}
        }
        self.received += payload.len() as u64;
    }

    /// The stream ended: certify a ranged attempt's trailing partial
    /// block, then judge the attempt — its status and whether the
    /// trailer matched the digest.
    fn verdict(
        &mut self,
        sessions: &mut BTreeMap<SessionId, SessionProgress>,
    ) -> (TransferStatus, Option<bool>) {
        // The bytes this attempt owes: the rest of the stream, or its
        // granted range (until-FIN streams owe nothing in particular —
        // the FIN ends them).
        let declared = self
            .header
            .as_ref()
            .map(|h| h.length)
            .filter(|&l| l != u64::MAX);
        let mut owed = declared.map(|l| l - self.offset);
        // The end-to-end digest lives in the range chain of a resume or
        // stripe attempt, otherwise in the whole-stream hasher.
        let mut digest = None;
        let ledger = self.ledger(sessions);
        if let (Some(ledger), Some(h), Some(r)) = (ledger, &self.header, &mut self.range) {
            digest = Some(r.chain.whole_digest());
            if let Some(total) = declared {
                // The stream's final block may be short: close and
                // certify the trailing partial.
                r.chain.finish_partial();
                r.certify(ledger, total, h.session.0 as u64);
                owed = Some(block_offset(r.end_block, total) - self.offset);
            }
        }
        // The final 16 bytes are the digest; `feed` kept them out of the
        // hashers.
        let digest_ok = self.has_digest().then(|| {
            let d = digest.unwrap_or_else(|| std::mem::take(&mut self.md5).finalize());
            self.tail.len() == DIGEST_LEN && d[..] == self.tail[..]
        });
        // Most-specific failure first: a short stream explains a bad
        // digest, a bad digest trumps a content scan.
        let status = if owed.is_some_and(|o| self.received < o) {
            TransferStatus::Failed(SessionError::TruncatedStream)
        } else if digest_ok == Some(false) {
            TransferStatus::Failed(SessionError::DigestMismatch)
        } else if !self.content_ok {
            TransferStatus::Failed(SessionError::ContentMismatch)
        } else {
            TransferStatus::Complete
        };
        (status, digest_ok)
    }
}

enum SinkConnState {
    /// LSL: accumulating header bytes.
    ReadingHeader(Vec<u8>),
    /// Consuming payload (+ digest tail when flagged).
    Body(Body),
}

struct SinkConn {
    state: SinkConnState,
    accepted_at: Time,
    /// Cumulative bytes seen, sampled by the idle watchdog.
    activity: u64,
    /// Watchdog snapshot of `activity` at the last tick (`u64::MAX` =
    /// freshly accepted, grant one full interval of grace).
    checked: u64,
}

/// App-timer tokens with this bit belong to a [`SinkServer`] idle
/// watchdog. (Bit 63 is the net layer's app-timer discriminator, bit 62
/// the session client's; bit 61 is ours. Bits 32–47 carry the sink's
/// listening port so colocated sinks ignore each other.)
pub const SINK_TIMER_TAG: u64 = 1 << 61;

/// Per-session delivery state that *survives* attempt deaths — the
/// sink-side half of the resume and striping protocols.
#[derive(Default)]
struct SessionProgress {
    /// The v2 attempt currently feeding this session, if any. A new
    /// resume header supersedes (and fails) a lingering active conn.
    /// Striped conns run concurrently and leave this `None`.
    active: Option<SockId>,
    /// Which of the stream's blocks have been certified, by any attempt
    /// or cascade: what every grant is computed against.
    ledger: BlockLedger,
}

/// A verifying sink server: accepts transfers (LSL-framed or raw TCP),
/// checks the payload pattern and the trailing MD5 digest, and records a
/// [`TransferOutcome`] per stream — failed attempts included, each with
/// its typed [`TransferStatus`]. Sessions whose headers carry a
/// [`Resume`] or [`StripeReq`] request additionally get per-block
/// certification: each attempt is granted the block range the session
/// still needs, and its blocks certify into a session ledger that
/// outlives the attempt.
pub struct SinkServer {
    listener: SockId,
    node: NodeId,
    port: u16,
    expects_lsl: bool,
    conns: BTreeMap<SockId, SinkConn>,
    sessions: BTreeMap<SessionId, SessionProgress>,
    outcomes: Vec<TransferOutcome>,
    /// Idle watchdog period: a conn that moves no byte across a full
    /// interval is failed [`SessionError::Stalled`]. None = no watchdog.
    idle: Option<Dur>,
    /// Whether a watchdog timer is currently in flight (the watchdog
    /// self-re-arms only while conns exist, so idle sims still quiesce).
    timer_armed: bool,
    /// Verified blocks that appeared inside a grant — must stay 0: the
    /// sink advances every grant past verified blocks, so a nonzero
    /// count means a verified block was re-sent (the striped chaos
    /// contract machine-checks this).
    stripe_regrants: u64,
}

impl SinkServer {
    pub fn new(
        net: &mut Net,
        node: NodeId,
        port: u16,
        expects_lsl: bool,
        tcp: TcpConfig,
    ) -> SinkServer {
        let listener = net.listen(node, port, tcp);
        SinkServer {
            listener,
            node,
            port,
            expects_lsl,
            conns: BTreeMap::new(),
            sessions: BTreeMap::new(),
            outcomes: Vec::new(),
            idle: None,
            timer_armed: false,
            stripe_regrants: 0,
        }
    }

    /// Arm an idle watchdog: any accepted conn that goes a full `d`
    /// without delivering a byte is failed with a typed
    /// [`SessionError::Stalled`] outcome. This is what turns a silently
    /// dying upstream (a crashed depot holds no socket to RST) into a
    /// recoverable event *after* the sender has already handed the whole
    /// stream to its sublink and can no longer watch progress itself.
    pub fn with_idle_timeout(mut self, d: Dur) -> SinkServer {
        self.idle = Some(d);
        self
    }

    /// All recorded outcomes, failed attempts included.
    pub fn outcomes(&self) -> &[TransferOutcome] {
        &self.outcomes
    }

    /// Session-wide verified block count, in any order (0 when the
    /// session is unknown or never requested a range).
    pub fn session_certified(&self, session: SessionId) -> u64 {
        self.sessions
            .get(&session)
            .map_or(0, |p| p.ledger.verified_count())
    }

    /// Duplicate block deliveries discarded for `session` — the cost of
    /// redundant (k-of-n) tail dispatch, which the striped campaign
    /// accounts for explicitly.
    pub fn duplicate_blocks(&self, session: SessionId) -> u64 {
        self.sessions
            .get(&session)
            .map_or(0, |p| p.ledger.duplicates())
    }

    /// Verified blocks that ever appeared inside a grant (see the field:
    /// this staying 0 *is* the zero-verified-resend guarantee).
    pub fn stripe_regrants(&self) -> u64 {
        self.stripe_regrants
    }

    pub fn take_outcomes(&mut self) -> Vec<TransferOutcome> {
        std::mem::take(&mut self.outcomes)
    }

    /// Feed one event; [`Handled::Consumed`] means it was this sink's.
    pub fn handle(&mut self, net: &mut Net, ev: &AppEvent) -> Handled {
        if let AppEvent::Timer { node, token } = ev {
            if *node == self.node
                && token & SINK_TIMER_TAG != 0
                && (token >> 32) & 0xffff == self.port as u64
            {
                self.on_idle_tick(net);
                return Handled::Consumed;
            }
            return Handled::NotMine;
        }
        let AppEvent::Sock { sock, event } = ev else {
            return Handled::NotMine;
        };
        if *sock == self.listener {
            if let SockEvent::Accepted { conn } = event {
                let state = if self.expects_lsl {
                    SinkConnState::ReadingHeader(Vec::new())
                } else {
                    SinkConnState::Body(Body::new(None, 0, None))
                };
                self.conns.insert(
                    *conn,
                    SinkConn {
                        state,
                        accepted_at: net.now(),
                        activity: 0,
                        checked: u64::MAX,
                    },
                );
                self.ensure_watchdog(net);
            }
            return Handled::Consumed;
        }
        if !self.conns.contains_key(sock) {
            return Handled::NotMine;
        }
        match event {
            SockEvent::Readable | SockEvent::PeerFin => self.drain(net, *sock),
            SockEvent::Error(e) => self.fail_conn(net, *sock, SessionError::Tcp(*e)),
            SockEvent::Closed => {
                net.release(*sock);
                if let Some(conn) = self.conns.remove(sock) {
                    self.release_session_conn(*sock, &conn.state);
                }
            }
            _ => {}
        }
        Handled::Consumed
    }

    /// Detach a finished/removed conn from its session's `active` slot,
    /// so a later resume cannot mistake a reused socket id for a live
    /// predecessor. Returns the session's contiguously verified block
    /// count (0 for a plain attempt).
    fn release_session_conn(&mut self, sock: SockId, state: &SinkConnState) -> u64 {
        let SinkConnState::Body(Body {
            header: Some(h),
            range: Some(_),
            ..
        }) = state
        else {
            return 0;
        };
        let Some(p) = self.sessions.get_mut(&h.session) else {
            return 0;
        };
        if p.active == Some(sock) {
            p.active = None;
        }
        p.ledger.contiguous_verified()
    }

    /// Arm the next watchdog tick if the watchdog is enabled and not
    /// already in flight. Called on accept and after each tick, so the
    /// timer chain dies with the last conn and the sim can quiesce.
    fn ensure_watchdog(&mut self, net: &mut Net) {
        if let Some(d) = self.idle {
            if !self.timer_armed {
                let token = SINK_TIMER_TAG | ((self.port as u64) << 32);
                net.set_app_timer(self.node, net.now() + d, token);
                self.timer_armed = true;
            }
        }
    }

    /// Watchdog tick: fail every conn that moved no byte since the last
    /// tick (freshly accepted conns get one full interval of grace).
    fn on_idle_tick(&mut self, net: &mut Net) {
        self.timer_armed = false;
        let mut stalled = Vec::new();
        for (sock, conn) in self.conns.iter_mut() {
            if conn.checked == conn.activity {
                stalled.push(*sock);
            } else {
                conn.checked = conn.activity;
            }
        }
        for sock in stalled {
            self.fail_conn(net, sock, SessionError::Stalled);
            net.abort(sock);
        }
        if !self.conns.is_empty() {
            self.ensure_watchdog(net);
        }
    }

    /// Record a failed attempt as a typed outcome and drop the
    /// connection state.
    fn fail_conn(&mut self, net: &mut Net, sock: SockId, err: SessionError) {
        if let Some(conn) = self.conns.remove(&sock) {
            self.record(net, sock, &conn, TransferStatus::Failed(err), None);
        }
    }

    /// Record how the attempt on `sock` ended — the one place an outcome
    /// is built — and detach the conn from its session.
    fn record(
        &mut self,
        net: &Net,
        sock: SockId,
        conn: &SinkConn,
        status: TransferStatus,
        digest_ok: Option<bool>,
    ) -> &TransferOutcome {
        let verified_blocks = self.release_session_conn(sock, &conn.state);
        let pre_header;
        let body = match &conn.state {
            SinkConnState::Body(body) => body,
            SinkConnState::ReadingHeader(_) => {
                pre_header = Body::new(None, 0, None);
                &pre_header
            }
        };
        let session = body.header.as_ref().map(|h| h.session);
        self.outcomes.push(TransferOutcome {
            session,
            status,
            bytes: body.offset + body.received,
            attempt_bytes: body.received,
            blocks_certified: body.range.as_ref().map_or(0, |r| r.certified),
            stripe: body.stripe(),
            session_verified: session.map_or(0, |sid| self.session_certified(sid)),
            digest_ok,
            content_ok: body.content_ok,
            verified_blocks,
            resume_offset: body.offset,
            accepted_at: conn.accepted_at,
            completed_at: net.now(),
        });
        self.outcomes.last().expect("just pushed")
    }

    fn drain(&mut self, net: &mut Net, sock: SockId) {
        loop {
            let chunk = net.recv(sock, 1 << 20);
            if chunk.is_empty() {
                break;
            }
            // Split-borrow the conn table and the session map: body
            // bytes certify into the per-session ledger.
            let sessions = &mut self.sessions;
            let Some(conn) = self.conns.get_mut(&sock) else {
                return;
            };
            conn.activity += chunk.len() as u64;
            let parsed = match &mut conn.state {
                SinkConnState::ReadingHeader(buf) => {
                    buf.extend_from_slice(&chunk);
                    LslHeader::decode(buf).map(|h| h.map(|(h, used)| (h, buf.split_off(used))))
                }
                SinkConnState::Body(body) => {
                    body.feed(sessions, &chunk);
                    Ok(None)
                }
            };
            let accepted = match parsed {
                Ok(Some((header, leftover))) => self.on_header(net, sock, header, &leftover),
                other => other.map(drop),
            };
            if let Err(e) = accepted {
                self.fail_conn(net, sock, SessionError::Wire(e));
                net.abort(sock);
                return;
            }
        }
        // EOF: finalize.
        if net.at_eof(sock) {
            let mut conn = self.conns.remove(&sock).expect("present");
            net.close(sock);
            let SinkConnState::Body(body) = &mut conn.state else {
                let eof = TransferStatus::Failed(SessionError::Wire(WireError::TruncatedHeader));
                self.record(net, sock, &conn, eof, None);
                return;
            };
            let obs_sid = body.header.as_ref().map_or(0, |h| h.session.0 as u64);
            lsl_obs::span_begin(net.now().0, "sink.verdict.drain", obs_sid);
            let (status, digest_ok) = body.verdict(&mut self.sessions);
            let verified_blocks = self
                .record(net, sock, &conn, status, digest_ok)
                .verified_blocks;
            lsl_obs::gauge_set("sink.verified_blocks", obs_sid, verified_blocks);
            lsl_obs::counter_add(
                if status == TransferStatus::Complete {
                    "sink.verdict.complete"
                } else {
                    "sink.verdict.failed"
                },
                0,
                1,
            );
            lsl_obs::span_end(net.now().0, "sink.verdict.drain", obs_sid);
        }
    }

    /// A complete header arrived on `sock`: confirm the session back
    /// through the cascade (granting a block range when one was
    /// requested) and switch the conn to body consumption. A header
    /// this sink cannot serve is rejected before any reply.
    fn on_header(
        &mut self,
        net: &mut Net,
        sock: SockId,
        header: LslHeader,
        leftover: &[u8],
    ) -> Result<(), WireError> {
        if !header.route.is_empty() {
            return Err(WireError::ResidualRoute);
        }
        if header.stripe.is_some() && header.length == u64::MAX {
            return Err(WireError::UnboundedStripe);
        }
        let mut body = if header.resume.is_none() && header.stripe.is_none() {
            // Plain v1 confirmation — bit-identical to the pre-resume
            // handshake.
            let n = net.send(sock, &Bytes::from_static(&[SESSION_CONFIRM]));
            debug_assert_eq!(n, 1);
            Body::new(Some(header), 0, None)
        } else {
            if header.resume.is_some() {
                // A new attempt supersedes any lingering conn of the same
                // session (e.g. one whose death the sink has not noticed).
                // Striped conns feed one session concurrently instead.
                if let Some(stale) = self
                    .sessions
                    .get(&header.session)
                    .and_then(|p| p.active)
                    .filter(|&s| s != sock)
                {
                    self.fail_conn(net, stale, SessionError::Stalled);
                    net.abort(stale);
                }
            }
            let progress = self.sessions.entry(header.session).or_default();
            if header.resume.is_some() {
                progress.active = Some(sock);
            }
            // A resume asks for the whole stream, a stripe for its own
            // range. Either way the grant starts past the blocks already
            // verified: verified blocks are never re-sent.
            let total_blocks = stream_blocks(header.length);
            let (start, end) = header
                .stripe
                .map_or((0, total_blocks), |r| (r.start_block, r.end_block));
            let gend = end.min(total_blocks);
            let gstart = progress.ledger.skip_verified(start.min(gend)).min(gend);
            let granted_verified = progress.ledger.verified_in(gstart, gend);
            if granted_verified > 0 {
                // Should be structurally impossible; recorded so the
                // chaos contracts can machine-check it per seed.
                self.stripe_regrants += granted_verified;
                lsl_obs::counter_add(
                    "sink.stripe.regrant_verified",
                    header.session.0 as u64,
                    granted_verified,
                );
            }
            let offset = block_offset(gstart, header.length);
            // Grant: confirm byte + the offset this attempt streams from
            // (v2), or + the granted block range (v3).
            let mut reply = vec![SESSION_CONFIRM];
            if header.stripe.is_some() {
                reply.extend_from_slice(&gstart.to_be_bytes());
                reply.extend_from_slice(&gend.to_be_bytes());
            } else {
                reply.extend_from_slice(&offset.to_be_bytes());
            }
            let len = reply.len();
            let n = net.send(sock, &Bytes::from(reply));
            debug_assert_eq!(n, len);
            Body::new(Some(header), offset, Some(RangeBody::new(gstart, gend)))
        };
        body.feed(&mut self.sessions, leftover);
        if let Some(conn) = self.conns.get_mut(&sock) {
            conn.state = SinkConnState::Body(body);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::depot::{Depot, DepotConfig};
    use crate::route::Hop;
    use lsl_netsim::{LinkSpec, LossModel, Topology, TopologyBuilder};
    use proptest::prelude::*;

    #[test]
    fn payload_pattern_is_deterministic_and_nontrivial() {
        assert_eq!(payload_byte(0), payload_byte(0));
        let c = payload_chunk(100, 50);
        assert_eq!(c.len(), 50);
        assert_eq!(c[0], payload_byte(100));
        // Not constant.
        assert!(c.iter().any(|&b| b != c[0]));
    }

    #[test]
    fn payload_chunk_is_offset_consistent() {
        let a = payload_chunk(0, 100);
        let b = payload_chunk(50, 50);
        assert_eq!(&a[50..], &b[..]);
    }

    proptest! {
        /// Chunks served from the pattern table equal `payload_byte`,
        /// whether a table view (up to `SEND_CHUNK`) or a copy of
        /// several table slices, at any phase.
        #[test]
        fn pattern_table_equals_payload_byte(
            offset in 0u64..1 << 48,
            len in 0usize..2 * SEND_CHUNK as usize,
        ) {
            let chunk = payload_chunk(offset, len);
            prop_assert_eq!(chunk.len(), len);
            prop_assert!((0..len as u64).all(|i| chunk[i as usize] == payload_byte(offset + i)));
        }

        /// The sink's slice-based pattern check accepts the pattern and
        /// rejects it with any one byte flipped.
        #[test]
        fn pattern_check_catches_one_flipped_byte(
            offset in 0u64..1 << 48,
            len in 1usize..2 * SEND_CHUNK as usize,
            at in any::<proptest::sample::Index>(),
        ) {
            let mut data = payload_chunk(offset, len).to_vec();
            prop_assert!(is_payload(offset, &data));
            data[at.index(len)] ^= 0x01;
            prop_assert!(!is_payload(offset, &data));
        }

        /// The sink's trailer hold-back: however the stream is cut into
        /// reads, exactly the payload reaches the pattern check and the
        /// hasher, and the held 16 bytes are the trailer.
        #[test]
        fn trailer_hold_back_under_any_split(
            len in 0usize..4096,
            cuts in proptest::collection::vec(0usize..40, 0..64),
        ) {
            let payload = payload_chunk(0, len);
            let trailer = md5(&payload);
            let mut stream = payload.to_vec();
            stream.extend_from_slice(&trailer);
            let header = LslHeader {
                session: SessionId(1),
                flags: HEADER_FLAG_DIGEST,
                length: len as u64,
                resume: None,
                stripe: None,
                route: Vec::new(),
            };
            let mut body = Body::new(Some(header), 0, None);
            let mut sessions = BTreeMap::new();
            let mut rest = &stream[..];
            for cut in cuts {
                let (piece, after) = rest.split_at(cut.min(rest.len()));
                body.feed(&mut sessions, piece);
                rest = after;
            }
            body.feed(&mut sessions, rest);
            let Body { md5: hasher, received, tail, content_ok, .. } = body;
            prop_assert_eq!(received, len as u64);
            prop_assert!(content_ok);
            prop_assert_eq!(&tail[..], &trailer[..]);
            prop_assert_eq!(hasher.finalize(), trailer);
        }
    }

    /// The table's edges: the last phase of the period, chunks ending
    /// exactly at the table's end, and copies one byte past a table
    /// view.
    #[test]
    fn pattern_table_edges() {
        let period = PATTERN_PERIOD;
        for offset in [0, period - 1, period, 7 * period - 1, (1 << 48) - 1] {
            for len in [
                0,
                1,
                period as usize - 1,
                period as usize + 1,
                SEND_CHUNK as usize,
                SEND_CHUNK as usize + 1,
                2 * SEND_CHUNK as usize + 3,
            ] {
                let chunk = payload_chunk(offset, len);
                assert!(
                    (0..len as u64).all(|i| chunk[i as usize] == payload_byte(offset + i)),
                    "offset {offset} len {len}"
                );
                assert!(is_payload(offset, &chunk));
            }
        }
        assert_eq!(PATTERN.len() as u64, SEND_CHUNK + period - 1);
    }

    /// The paper's case 1 path, as `lsl_workloads::case1` builds it:
    /// campus access link, two lossy Abilene legs, and a depot one LAN
    /// hop off the Denver POP. Returns the topology, source, sink and
    /// depot nodes.
    fn case1() -> (Topology, NodeId, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let ucsb = b.node("ucsb");
        let la = b.node("pop-la");
        let denver = b.node("pop-denver");
        let uiuc = b.node("uiuc");
        let depot = b.node("depot-denver");
        b.duplex(
            ucsb,
            la,
            LinkSpec::new(100_000_000, Dur::from_millis(1)).with_queue_bytes(2 << 20),
        );
        let backbone =
            LinkSpec::new(622_000_000, Dur::from_millis(13)).with_loss(LossModel::bernoulli(9e-5));
        b.duplex(la, denver, backbone.clone());
        b.duplex(denver, uiuc, backbone);
        b.duplex(
            denver,
            depot,
            LinkSpec::new(1_000_000_000, Dur::from_micros(1500)),
        );
        (b.build(), ucsb, uiuc, depot)
    }

    /// Run one verified `total`-byte transfer on case 1, direct or via
    /// the depot; returns the finished sender and how many events it
    /// handled.
    fn case1_transfer(total: u64, via_depot: bool) -> (BulkSender, u64) {
        const DEPOT_PORT: u16 = 7000;
        const SINK_PORT: u16 = 5000;
        let (topo, src, dst, depot_node) = case1();
        let mut net = Net::new(topo.into_sim(1));
        let tcp = TcpConfig {
            time_wait: Dur::from_millis(1),
            ..TcpConfig::default()
        };
        let mut depot = via_depot.then(|| {
            Depot::new(
                &mut net,
                depot_node,
                DepotConfig {
                    port: DEPOT_PORT,
                    relay_buf: 256 * 1024,
                    tcp: tcp.clone(),
                    setup_delay: Dur::from_millis(40),
                    trace_downstream: None,
                },
            )
        });
        let mut sink = SinkServer::new(&mut net, dst, SINK_PORT, via_depot, tcp.clone());
        let sink_hop = Hop::new(dst, SINK_PORT);
        let (path, mode) = if via_depot {
            let depots = vec![Hop::new(depot_node, DEPOT_PORT)];
            (LslPath::via(depots, sink_hop), SendMode::lsl())
        } else {
            (LslPath::direct(sink_hop), SendMode::DirectTcp)
        };
        let mut sender = BulkSender::start(
            &mut net,
            src,
            &path,
            SessionId(1),
            total,
            mode,
            tcp,
            None,
            None,
        );
        let mut handled = 0;
        while let Some(ev) = net.poll() {
            if sender.handle(&mut net, &ev).consumed() {
                handled += 1;
            } else if !sink.handle(&mut net, &ev).consumed() {
                if let Some(d) = &mut depot {
                    let _ = d.handle(&mut net, &ev);
                }
            }
        }
        assert_eq!(sender.state(), SenderState::Done);
        let outcomes = sink.take_outcomes();
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].ok() && outcomes[0].content_ok);
        assert_eq!(outcomes[0].bytes, total);
        (sender, handled)
    }

    /// The sender generates only what the socket takes: a 16 MiB case 1
    /// transfer, direct and via the depot, hands `net.send` no more
    /// payload than was sent, apart from the one byte per wakeup that a
    /// full send buffer refuses (which arms the next Writable).
    #[test]
    fn generation_tracks_acceptance() {
        const TOTAL: u64 = 16 << 20;
        for via_depot in [false, true] {
            let (sender, handled) = case1_transfer(TOTAL, via_depot);
            assert_eq!(sender.sent, TOTAL);
            assert!(
                sender.generated <= sender.sent + handled,
                "via_depot {via_depot}: generated {} for {} sent over {handled} wakeups",
                sender.generated,
                sender.sent
            );
        }
    }
}
