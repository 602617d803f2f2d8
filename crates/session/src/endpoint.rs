//! Endpoint applications: a bulk data source and a verifying sink.
//!
//! These drive the paper's experiments: fixed-size synchronous transfers
//! measured wall-clock from connection initiation to the sink consuming
//! the full stream (including LSL header and digest overheads, and "all
//! concomitant processing overheads" of the depots in between).
//!
//! Every attempt has one shape at each end. The sender
//! ([`BulkSender::start`]) takes an optional [`Request`] and streams the
//! block range `[start_block, end_block)` the sink grants: a v2 resume
//! is the range from the first unverified block to the end of the
//! stream, a v3 stripe its own sub-range, and a plain v1 attempt's
//! one-byte confirmation grants the whole stream. Every attempt's
//! evidence follows one rule over its range of 64 KiB blocks: the
//! trailer is the MD5 of the blocks' MD5s (a hash list). A ranged
//! attempt also sends each block's MD5 after the block; the paper's v1
//! stream sends none, so its trailer alone judges it. Both ends walk the
//! body through the one frame the grant fixes (see [`crate::header`]),
//! and hash each payload byte once. A block's digest is
//! [`lsl_digest::block_digests`]'s two-level rule: the MD5 of the MD5s
//! of its eight 8 KiB pieces, which run side by side in AVX2 lanes, so
//! one block alone hashes at full lane width. The sender hashes each
//! block once per session: a session's attempts, on every lane, read
//! one table of block digests (`BlockDigests`), filled an aligned group
//! of eight blocks at a time the first time any attempt needs a digest
//! in the group. The sink's `Body` pattern-checks each payload run as it
//! lands and copies each block aside. Once the block (and its in-band
//! digest, if any) is in, the sink hashes it: the digest joins the
//! attempt's hash list, and a ranged block whose digest matches
//! certifies into the session's [`BlockLedger`] there and then. So
//! blocks certify in the order they land, and every grant, outcome,
//! trailer check or ledger read sees every block landed before it.
//! Every way an attempt ends is recorded as one [`TransferOutcome`].

#[cfg(test)]
use std::cell::Cell;
use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::LazyLock;

use bytes::Bytes;
use lsl_digest::{block_digests, BlockLedger, DIGEST_LEN, LANES};
use lsl_netsim::{Dur, NodeId, Time};
use lsl_tcp::{AppEvent, Net, SockEvent, SockId, TcpConfig};

use crate::error::{Handled, SessionError, WireError};
use crate::header::{Evidence, Frame, LslHeader, Piece, Resume, StripeReq, HEADER_FLAG_DIGEST};
use crate::id::SessionId;
use crate::route::LslPath;

/// Resume granularity: the sink certifies delivery in blocks of this
/// many bytes, and grants resume offsets only at block boundaries.
pub const RESUME_BLOCK: u64 = 64 * 1024;

// A whole block is `LANES` pieces of its digest: one multi-lane pass.
const _: () = assert!(RESUME_BLOCK as usize == LANES * lsl_digest::PIECE);

/// Number of [`RESUME_BLOCK`]-sized blocks covering a `total`-byte
/// stream (the last block may be short).
pub fn stream_blocks(total: u64) -> u64 {
    total.div_ceil(RESUME_BLOCK)
}

/// Stream offset of block boundary `block` in a `total`-byte stream:
/// where a range starting (or ending) there begins (or stops).
pub(crate) fn block_offset(block: u64, total: u64) -> u64 {
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
    /// The paper's LSL configuration: [`SendMode::Lsl`]. Kept only
    /// for the benchmark harness (`perfbench/`), its one caller; use
    /// the variant.
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
    /// Stream offset reached: the granted range's start plus the
    /// payload the socket accepted.
    sent: u64,
    /// The LSL header (empty in direct TCP mode).
    header: Bytes,
    header_sent: usize,
    /// The body this attempt streams (the whole stream until a ranged
    /// attempt's grant arrives).
    frame: Frame,
    /// Body bytes the socket accepted.
    pos: u64,
    /// The stream's block digests, which every piece of evidence reads
    /// (None in direct TCP mode, and until a lone attempt's grant).
    digests: Option<Rc<BlockDigests>>,
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

/// The sender's block digests for one stream, shared by every attempt
/// that sends its blocks. The blocks `[lo, hi)` it covers are split into
/// aligned groups of [`LANES`], `[8g, 8g + 8) ∩ [lo, hi)`. A group is
/// written once: the first lookup of any block in it hashes the whole
/// group in one [`block_digests`] call, from the sender's own payload
/// ([`payload_chunk`] views, not the bytes a socket took), and every
/// later lookup, from any attempt, is a read. A session's table covers
/// the whole stream; a lone attempt's covers only its grant.
pub(crate) struct BlockDigests {
    total: u64,
    lo: u64,
    hi: u64,
    /// Group `lo / LANES + i` at index `i`; block `b`'s digest at
    /// position `b % LANES`.
    groups: Box<[OnceCell<[[u8; DIGEST_LEN]; LANES]>]>,
    /// `block_digests` calls made and payload bytes hashed.
    #[cfg(test)]
    pub(crate) calls: Cell<u64>,
    #[cfg(test)]
    pub(crate) bytes: Cell<u64>,
}

impl BlockDigests {
    /// A table over blocks `[lo, hi)` of a `total`-byte stream.
    pub(crate) fn new(total: u64, (lo, hi): (u64, u64)) -> BlockDigests {
        let lanes = LANES as u64;
        let groups = hi.div_ceil(lanes).saturating_sub(lo / lanes);
        BlockDigests {
            total,
            lo,
            hi,
            groups: (0..groups).map(|_| OnceCell::new()).collect(),
            #[cfg(test)]
            calls: Cell::new(0),
            #[cfg(test)]
            bytes: Cell::new(0),
        }
    }

    /// The digest of block `block`, hashing its group first if no
    /// attempt has yet. This digest goes on the wire as the block's evidence.
    pub(crate) fn block_digest(&self, block: u64) -> [u8; DIGEST_LEN] {
        debug_assert!(
            (self.lo..self.hi).contains(&block),
            "block {block} outside the table's [{}, {})",
            self.lo,
            self.hi
        );
        let lanes = LANES as u64;
        let group = &self.groups[(block / lanes - self.lo / lanes) as usize];
        group.get_or_init(|| self.hash_group(block / lanes))[(block % lanes) as usize]
    }

    /// The hash list of blocks `[start, end)`: the trailer of an
    /// attempt granted that range.
    fn trailer(&self, (start, end): (u64, u64)) -> [u8; DIGEST_LEN] {
        let digests: Vec<_> = (start..end).map(|b| self.block_digest(b)).collect();
        hash_list(&digests)
    }

    /// Hash group `g`'s blocks in one [`block_digests`] call.
    fn hash_group(&self, g: u64) -> [[u8; DIGEST_LEN]; LANES] {
        let lanes = LANES as u64;
        let blocks = (g * lanes).max(self.lo)..((g + 1) * lanes).min(self.hi);
        let payload: Vec<Bytes> = blocks
            .clone()
            .map(|b| {
                let lo = block_offset(b, self.total);
                payload_chunk(lo, (block_offset(b + 1, self.total) - lo) as usize)
            })
            .collect();
        #[cfg(test)]
        {
            self.calls.set(self.calls.get() + 1);
            let bytes: u64 = payload.iter().map(|p| p.len() as u64).sum();
            self.bytes.set(self.bytes.get() + bytes);
        }
        let views: Vec<&[u8]> = payload.iter().map(|p| &p[..]).collect();
        let mut group = [[0; DIGEST_LEN]; LANES];
        for (b, digest) in blocks.zip(block_digests(&views)) {
            group[(b % lanes) as usize] = digest;
        }
        group
    }
}

/// Every attempt's trailer: the MD5 of its blocks' digests, in order.
fn hash_list(digests: &[[u8; DIGEST_LEN]]) -> [u8; DIGEST_LEN] {
    lsl_digest::md5(digests.as_flattened())
}

/// A v1 trailer built as the stream goes by, for the ends that see it
/// as a run of bytes (`lsl-realnet`'s): the hash list of the blocks
/// given so far, each block's digest from [`block_digests`].
#[derive(Default)]
pub struct HashList(Vec<[u8; DIGEST_LEN]>);

impl HashList {
    /// Hash the stream's next blocks: whole [`RESUME_BLOCK`]s, the last
    /// of which may be short only at the end of the stream.
    pub fn blocks(&mut self, data: &[u8]) {
        let blocks: Vec<&[u8]> = data.chunks(RESUME_BLOCK as usize).collect();
        self.0.extend(block_digests(&blocks));
    }

    /// The trailer of the blocks given so far.
    pub fn trailer(&self) -> [u8; DIGEST_LEN] {
        hash_list(&self.0)
    }
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
    /// Either way the attempt streams exactly the granted range, each
    /// block followed by its MD5, and trails it with the MD5 of those
    /// block digests. Without a request, the one-byte v1 confirmation
    /// grants the whole stream, trailed by the same hash list without
    /// the in-band digests.
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
        // The table arrives with `sharing`, or is made for the grant
        // alone when the grant arrives.
        let evidence = match (mode, request) {
            (SendMode::DirectTcp, _) => Evidence::None,
            (SendMode::Lsl, None) => Evidence::Trailer,
            (SendMode::Lsl, Some(_)) => Evidence::Blocks,
        };
        BulkSender {
            sock,
            mode,
            state: SenderState::Connecting,
            total,
            sent: 0,
            header,
            header_sent: 0,
            frame: Frame::new((0, stream_blocks(total)), total, evidence),
            pos: 0,
            digests: None,
            request,
            grant: None,
            confirm_buf: Vec::new(),
            started_at: net.now(),
            finished_at: None,
            #[cfg(test)]
            generated: 0,
        }
    }

    /// Read this attempt's block digests from `table`, the session's,
    /// instead of a table of its own grant.
    pub(crate) fn sharing(mut self, table: &Rc<BlockDigests>) -> BulkSender {
        if self.frame.evidence != Evidence::None {
            self.digests = Some(Rc::clone(table));
        }
        self
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
    /// socket has accepted so far (header + payload + evidence).
    pub fn progress(&self) -> u64 {
        self.header_sent as u64 + self.frame.start + self.pos
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

    /// The sink's grant arrived: stream exactly blocks `[start, end)`
    /// with their evidence (the blocks outside it are certified through
    /// other ranges). An empty grant is a no-op attempt: everything it
    /// offered to carry is already verified, and only the trailer (the
    /// MD5 of an empty list) is sent. A malformed grant fails the
    /// attempt with its typed mismatch.
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
        self.frame = Frame::new((start, end), self.total, self.frame.evidence);
        if self.frame.evidence != Evidence::None && self.digests.is_none() {
            let table = BlockDigests::new(self.total, (start, end));
            self.digests = Some(Rc::new(table));
        }
        self.sent = self.frame.start;
        self.state = SenderState::Streaming;
        self.pump(net);
    }

    /// Walk the frame from the body position: payload, evidence as it
    /// falls due, the trailer; then half-close, and the FIN cascades to
    /// the sink.
    fn pump(&mut self, net: &mut Net) {
        if self.state != SenderState::Streaming {
            return;
        }
        // The header, when not already flushed pre-confirmation.
        if !flush(net, self.sock, &self.header, &mut self.header_sent) {
            return;
        }
        loop {
            let evidence = match self.frame.at(self.pos) {
                Piece::Payload { offset, left } => {
                    // Never more than the socket can take plus one byte:
                    // a full buffer refuses that byte, and the short send
                    // arms the next Writable.
                    let room = net.send_space(self.sock).saturating_add(1);
                    let len = left.min(SEND_CHUNK).min(room) as usize;
                    let chunk = payload_chunk(offset, len);
                    #[cfg(test)]
                    {
                        self.generated += len as u64;
                    }
                    let n = net.send(self.sock, &chunk);
                    self.sent = offset + n as u64;
                    self.pos += n as u64;
                    if n < len {
                        return;
                    }
                    continue;
                }
                Piece::Digest { block, k } => self.table().block_digest(block)[k..].to_vec(),
                Piece::Trailer(k) => {
                    let grant = self.grant.expect("an attempt streams its grant");
                    self.table().trailer(grant)[k..].to_vec()
                }
                Piece::End => break,
            };
            let n = net.send(self.sock, &Bytes::from(evidence));
            if n == 0 {
                return;
            }
            self.pos += n as u64;
        }
        self.state = SenderState::Done;
        net.close(self.sock);
    }

    /// The stream's block digests, which every piece of evidence reads.
    fn table(&self) -> &BlockDigests {
        self.digests
            .as_deref()
            .expect("evidence is read from a table")
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
    /// Session id (None for direct-TCP transfers or failures before a
    /// header decoded).
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

/// The body of one attempt at the sink: everything after the header (a
/// raw TCP conn is all body), walked through its frame. Each payload
/// run is pattern-checked. An LSL attempt copies each block's payload
/// into a buffer and hashes it once it is in, with its in-band digest
/// on a ranged attempt: the digest joins the hash list, and a ranged
/// block that matches its in-band digest certifies into the session's
/// [`BlockLedger`] as it lands, so attempts and cascades certify
/// independently of one another's arrival order.
struct Body {
    /// None for raw TCP. Boxed so the conn state stays small.
    header: Option<Box<LslHeader>>,
    frame: Frame,
    /// Body bytes consumed.
    pos: u64,
    /// Payload bytes consumed by *this* attempt.
    received: u64,
    /// The payload of the block landing now (kept for the next block
    /// once hashed).
    block: Vec<u8>,
    /// The digest or trailer being gathered.
    evidence: [u8; DIGEST_LEN],
    /// The sink's own digest of each block checked so far: the hash
    /// list.
    list: Vec<[u8; DIGEST_LEN]>,
    /// Blocks this connection newly certified in the session ledger.
    certified: u64,
    /// A block or the trailer failed its digest, or bytes followed the
    /// trailer: certification is frozen and the attempt's evidence
    /// fails.
    corrupt: bool,
    content_ok: bool,
    /// Payload bytes fed to an MD5.
    #[cfg(test)]
    hashed: u64,
}

impl Body {
    fn new(header: Option<LslHeader>, frame: Frame) -> Body {
        Body {
            header: header.map(Box::new),
            frame,
            pos: 0,
            received: 0,
            block: Vec::new(),
            evidence: [0; DIGEST_LEN],
            list: Vec::new(),
            certified: 0,
            corrupt: false,
            content_ok: true,
            #[cfg(test)]
            hashed: 0,
        }
    }

    /// The granted range as outcomes report it: v3 stripes only (a v2
    /// resume's range is the stream tail from `resume_offset`).
    fn stripe(&self) -> Option<(u64, u64)> {
        let h = self.header.as_ref()?;
        h.stripe.map(|_| self.frame.blocks())
    }

    /// Take in one read, walking the frame; each block that lands is
    /// hashed and certified into `sessions` there and then.
    fn feed(&mut self, sessions: &mut BTreeMap<SessionId, SessionProgress>, data: &[u8]) {
        let mut taken = 0;
        while taken < data.len() {
            let data = &data[taken..];
            let n = match self.frame.at(self.pos) {
                Piece::Payload { offset, left } => {
                    // A v1 run has no digests to end its blocks: cut it
                    // at each block end here.
                    let left = left.min(RESUME_BLOCK - offset % RESUME_BLOCK);
                    let payload = &data[..left.min(data.len() as u64) as usize];
                    if self.content_ok {
                        self.content_ok = is_payload(offset, payload);
                    }
                    if self.frame.evidence != Evidence::None {
                        if self.block.is_empty() {
                            self.block.reserve(RESUME_BLOCK as usize);
                        }
                        self.block.extend_from_slice(payload);
                    }
                    self.received += payload.len() as u64;
                    if self.frame.evidence == Evidence::Trailer && payload.len() as u64 == left {
                        self.land(sessions, offset / RESUME_BLOCK, None);
                    }
                    payload.len()
                }
                Piece::Digest { block, k } => {
                    let n = self.gather(k, data);
                    if k + n == DIGEST_LEN {
                        self.land(sessions, block, Some(self.evidence));
                    }
                    n
                }
                Piece::Trailer(k) => self.gather(k, data),
                Piece::End => {
                    self.corrupt = true;
                    data.len()
                }
            };
            self.pos += n as u64;
            taken += n;
        }
    }

    /// Copy evidence bytes from `k` on from the front of `data`; returns
    /// how many were taken.
    fn gather(&mut self, k: usize, data: &[u8]) -> usize {
        let n = (DIGEST_LEN - k).min(data.len());
        self.evidence[k..k + n].copy_from_slice(&data[..n]);
        n
    }

    /// Block `block`'s payload (and in-band `digest`, if any) is in:
    /// hash it, and its digest joins the hash list. A v1 block stops
    /// there: only its trailer judges it, and it has no ledger. A ranged
    /// block that matches its in-band digest certifies in the session
    /// ledger (a duplicate another cascade delivered is counted and
    /// discarded); a mismatch freezes certification for this
    /// connection, and the next attempt is granted from the first block
    /// still missing.
    fn land(
        &mut self,
        sessions: &mut BTreeMap<SessionId, SessionProgress>,
        block: u64,
        digest: Option<[u8; DIGEST_LEN]>,
    ) {
        let own = block_digests(&[&self.block])[0];
        self.list.push(own);
        #[cfg(test)]
        {
            self.hashed += self.block.len() as u64;
        }
        self.block.clear();
        let Some(digest) = digest else {
            return;
        };
        let session = self
            .header
            .as_ref()
            .expect("a ranged attempt has a header")
            .session;
        let ledger = &mut sessions
            .get_mut(&session)
            .expect("a ranged attempt's session")
            .ledger;
        if self.corrupt || own != digest {
            self.corrupt = true;
        } else if ledger.certify(block) {
            self.certified += 1;
        } else {
            lsl_obs::counter_add("sink.stripe.dup_block", session.0 as u64, 1);
        }
    }

    /// The stream ended: judge the attempt — its status and whether its
    /// evidence matched. Most-specific failure first: a short payload
    /// explains bad evidence, bad evidence trumps a content scan.
    fn verdict(&self) -> (TransferStatus, Option<bool>) {
        let owed = match &self.header {
            // Payload until FIN, but a declared length is still owed.
            Some(h) if !h.has_digest() && h.length != u64::MAX => h.length,
            _ => self.frame.owed(),
        };
        // The evidence holds when the whole trailer arrived, matches,
        // and nothing failed.
        let whole = self.frame.at(self.pos) == Piece::End;
        let digest_ok = (self.frame.evidence != Evidence::None)
            .then(|| whole && !self.corrupt && hash_list(&self.list) == self.evidence);
        let status = if self.received < owed {
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
    /// Walking the body's frame. Boxed: a body is ten times the size of
    /// a header buffer.
    Body(Box<Body>),
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
/// checks the payload pattern and the hash-list trailer, and records a
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
    /// Payload bytes the recorded attempts fed to an MD5.
    #[cfg(test)]
    hashed: u64,
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
            #[cfg(test)]
            hashed: 0,
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
                    SinkConnState::Body(Box::new(Body::new(None, Frame::UNTIL_FIN)))
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
        let header = match state {
            SinkConnState::Body(b) if b.frame.evidence == Evidence::Blocks => b.header.as_ref(),
            _ => None,
        };
        let Some(p) = header.and_then(|h| self.sessions.get_mut(&h.session)) else {
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
            SinkConnState::Body(body) => body.as_ref(),
            SinkConnState::ReadingHeader(_) => {
                pre_header = Body::new(None, Frame::UNTIL_FIN);
                &pre_header
            }
        };
        let session = body.header.as_ref().map(|h| h.session);
        #[cfg(test)]
        {
            self.hashed += body.hashed;
        }
        let session_verified = session.map_or(0, |sid| self.session_certified(sid));
        self.outcomes.push(TransferOutcome {
            session,
            status,
            bytes: body.frame.start + body.received,
            attempt_bytes: body.received,
            blocks_certified: body.certified,
            stripe: body.stripe(),
            session_verified,
            digest_ok,
            content_ok: body.content_ok,
            verified_blocks,
            resume_offset: body.frame.start,
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
                    body.feed(&mut self.sessions, &chunk);
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
            let conn = self.conns.remove(&sock).expect("present");
            net.close(sock);
            let SinkConnState::Body(body) = &conn.state else {
                let eof = TransferStatus::Failed(SessionError::Wire(WireError::TruncatedHeader));
                self.record(net, sock, &conn, eof, None);
                return;
            };
            let obs_sid = body.header.as_ref().map_or(0, |h| h.session.0 as u64);
            lsl_obs::span_begin(net.now().0, "sink.verdict.drain", obs_sid);
            let (status, digest_ok) = body.verdict();
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
        // Evidence needs a declared length to be framed; a range needs
        // evidence.
        let ranged = header.resume.is_some() || header.stripe.is_some();
        let refusal = if !header.route.is_empty() {
            Some(WireError::ResidualRoute)
        } else if (header.has_digest() && header.length == u64::MAX)
            || (ranged && !header.has_digest())
        {
            Some(WireError::UnframedRange)
        } else {
            None
        };
        if let Some(e) = refusal {
            // Keep the decoded header so the failed outcome names its
            // session; with no granted range it opens no session state.
            if let Some(conn) = self.conns.get_mut(&sock) {
                let body = Body::new(Some(header), Frame::UNTIL_FIN);
                conn.state = SinkConnState::Body(Box::new(body));
            }
            return Err(e);
        }
        let body = if !ranged {
            // Plain v1 confirmation — bit-identical to the pre-resume
            // handshake.
            let n = net.send(sock, &Bytes::from_static(&[SESSION_CONFIRM]));
            debug_assert_eq!(n, 1);
            let frame = match header.has_digest() {
                true => Frame::new(
                    (0, stream_blocks(header.length)),
                    header.length,
                    Evidence::Trailer,
                ),
                false => Frame::UNTIL_FIN,
            };
            Body::new(Some(header), frame)
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
            let frame = Frame::new((gstart, gend), header.length, Evidence::Blocks);
            // Grant: confirm byte + the offset this attempt streams from
            // (v2), or + the granted block range (v3).
            let mut reply = vec![SESSION_CONFIRM];
            if header.stripe.is_some() {
                reply.extend_from_slice(&gstart.to_be_bytes());
                reply.extend_from_slice(&gend.to_be_bytes());
            } else {
                reply.extend_from_slice(&frame.start.to_be_bytes());
            }
            let len = reply.len();
            let n = net.send(sock, &Bytes::from(reply));
            debug_assert_eq!(n, len);
            Body::new(Some(header), frame)
        };
        let mut body = Box::new(body);
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
    use lsl_digest::md5;
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

    }

    /// An attempt's body as the sender frames it, for blocks
    /// `[start, end)` of a `total`-byte stream: each block, followed by
    /// its digest when ranged, then the MD5 of those block digests.
    fn framed(start: u64, end: u64, total: u64, ranged: bool) -> Vec<u8> {
        let (mut body, mut list) = (Vec::new(), Vec::new());
        for b in start..end {
            let (lo, hi) = (block_offset(b, total), block_offset(b + 1, total));
            let payload = payload_chunk(lo, (hi - lo) as usize);
            let digest = block_digests(&[&payload])[0];
            body.extend_from_slice(&payload);
            if ranged {
                body.extend_from_slice(&digest);
            }
            list.extend_from_slice(&digest);
        }
        body.extend_from_slice(&md5(&list));
        body
    }

    /// Of the first `cut` bytes of a ranged body for blocks
    /// `[start, end)`: the payload bytes, and the blocks whose payload
    /// and digest both lie within them.
    fn framed_before(start: u64, end: u64, total: u64, cut: usize) -> (u64, u64) {
        let (mut at, mut payload, mut blocks) = (0, 0, 0);
        for b in start..end {
            let len = block_offset(b + 1, total) - block_offset(b, total);
            payload += len.min((cut as u64).saturating_sub(at));
            at += len + DIGEST_LEN as u64;
            blocks += u64::from(at <= cut as u64);
        }
        (payload, blocks)
    }

    /// Feed `body` to a fresh sink body for blocks `[start, end)` of a
    /// `total`-byte stream (ranged as a stripe, or a plain v1 attempt),
    /// cut into reads at `cuts`; returns it and the session ledger's
    /// verified blocks.
    fn sink_body(
        (start, end, total): (u64, u64, u64),
        ranged: bool,
        body: &[u8],
        cuts: &[usize],
    ) -> (Body, Vec<u64>) {
        let session = SessionId(1);
        let header = LslHeader {
            session,
            flags: HEADER_FLAG_DIGEST,
            length: total,
            resume: None,
            stripe: ranged.then_some(StripeReq {
                start_block: start,
                end_block: end,
            }),
            route: Vec::new(),
        };
        let evidence = if ranged {
            Evidence::Blocks
        } else {
            Evidence::Trailer
        };
        let mut sink = Body::new(Some(header), Frame::new((start, end), total, evidence));
        let mut sessions = BTreeMap::new();
        sessions.insert(session, SessionProgress::default());
        let mut rest = body;
        for cut in cuts.iter().copied().chain([body.len()]) {
            let (piece, after) = rest.split_at(cut.min(rest.len()));
            sink.feed(&mut sessions, piece);
            rest = after;
        }
        let ledger = &sessions[&session].ledger;
        let verified = (0..stream_blocks(total)).filter(|&b| ledger.is_verified(b));
        (sink, verified.collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The sink walks an attempt's frame under any read split: a
        /// ranged one certifies exactly the granted blocks, a plain v1
        /// one (the whole stream) matches its digest. One flipped
        /// payload, in-band digest or trailer byte fails the attempt's
        /// digest and certifies only the blocks whose frame ends before
        /// the flip, and a byte past the trailer fails it too. Cut
        /// short, the attempt is truncated while payload is missing and
        /// fails its digest once the payload is all in; either way only
        /// the blocks framed before the cut certify.
        #[test]
        fn ranged_frame_certifies_exactly_the_grant(
            total in 0u64..4 * RESUME_BLOCK,
            ranged in any::<bool>(),
            first in any::<proptest::sample::Index>(),
            last in any::<proptest::sample::Index>(),
            cuts in proptest::collection::vec(0usize..80_000, 0..12),
            at in any::<proptest::sample::Index>(),
            cut in any::<proptest::sample::Index>(),
        ) {
            let blocks = stream_blocks(total);
            let (a, b) = (first.index(blocks as usize + 1) as u64, last.index(blocks as usize + 1) as u64);
            let (start, end) = if ranged { (a.min(b), a.max(b)) } else { (0, blocks) };
            let grant = (start, end, total);
            let payload = block_offset(end, total) - block_offset(start, total);
            let granted = if ranged { (start..end).collect() } else { Vec::new() };
            let frame = framed(start, end, total, ranged);
            let (body, verified) = sink_body(grant, ranged, &frame, &cuts);
            prop_assert_eq!(body.verdict(), (TransferStatus::Complete, Some(true)));
            prop_assert_eq!(body.received, payload);
            prop_assert_eq!(body.certified, granted.len() as u64);
            prop_assert_eq!(verified, granted);

            let mut flipped = frame.clone();
            let at = at.index(frame.len());
            flipped[at] ^= 0x01;
            let before = if ranged { framed_before(start, end, total, at).1 } else { 0 };
            let (body, verified) = sink_body(grant, ranged, &flipped, &cuts);
            prop_assert_eq!(body.verdict().0, TransferStatus::Failed(SessionError::DigestMismatch));
            prop_assert_eq!(body.certified, before);
            prop_assert_eq!(verified, (start..start + before).collect::<Vec<_>>());

            let mut longer = frame.clone();
            longer.push(0);
            let (body, _) = sink_body(grant, ranged, &longer, &cuts);
            let mismatch = TransferStatus::Failed(SessionError::DigestMismatch);
            prop_assert_eq!(body.verdict(), (mismatch, Some(false)));

            let cut = cut.index(frame.len());
            let (arrived, before) = match ranged {
                true => framed_before(start, end, total, cut),
                false => (payload.min(cut as u64), 0),
            };
            let (body, verified) = sink_body(grant, ranged, &frame[..cut], &cuts);
            let want = match arrived < payload {
                true => SessionError::TruncatedStream,
                false => SessionError::DigestMismatch,
            };
            prop_assert_eq!(body.verdict().0, TransferStatus::Failed(want));
            prop_assert_eq!(body.received, arrived);
            prop_assert_eq!(body.certified, before);
            prop_assert_eq!(verified, (start..start + before).collect::<Vec<_>>());
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Whether or not the stream's last block is short, and in
        /// whatever order attempts look blocks up, every digest a table
        /// returns is that block's digest, and the trailer of any grant
        /// inside the table is the hash list of those digests. Each
        /// group is hashed in one call, the first time one of its blocks
        /// is looked up.
        #[test]
        fn table_digests_are_the_blocks_md5s(
            blocks in 1u64..14,
            short in any::<bool>(),
            cut in 1u64..RESUME_BLOCK,
            bounds in (any::<proptest::sample::Index>(), any::<proptest::sample::Index>()),
            lookups in proptest::collection::vec(any::<proptest::sample::Index>(), 1..24),
            grants in proptest::collection::vec(
                (any::<proptest::sample::Index>(), any::<proptest::sample::Index>()),
                1..4,
            ),
        ) {
            let total = (blocks - 1) * RESUME_BLOCK + if short { cut } else { RESUME_BLOCK };
            let md5_of = |b: u64| {
                let lo = block_offset(b, total);
                block_digests(&[&payload_chunk(lo, (block_offset(b + 1, total) - lo) as usize)])[0]
            };
            let (x, y) = (bounds.0.index(blocks as usize + 1), bounds.1.index(blocks as usize + 1));
            let (lo, hi) = (x.min(y) as u64, x.max(y) as u64);
            let table = BlockDigests::new(total, (lo, hi));
            let mut touched = std::collections::BTreeSet::new();
            if hi > lo {
                for i in &lookups {
                    let b = lo + i.index((hi - lo) as usize) as u64;
                    prop_assert_eq!(table.block_digest(b), md5_of(b), "block {}", b);
                    touched.insert(b / LANES as u64);
                }
            }
            prop_assert_eq!(table.calls.get(), touched.len() as u64);
            for (a, b) in &grants {
                let (a, b) = (a.index((hi - lo) as usize + 1), b.index((hi - lo) as usize + 1));
                let grant = (lo + a.min(b) as u64, lo + a.max(b) as u64);
                let want: Vec<_> = (grant.0..grant.1).map(md5_of).collect();
                prop_assert_eq!(table.trailer(grant), hash_list(&want), "grant {:?}", grant);
            }
            let groups = (lo..hi).map(|b| b / LANES as u64).collect::<std::collections::BTreeSet<_>>();
            prop_assert!(table.calls.get() <= groups.len() as u64);
            prop_assert!(table.bytes.get() <= block_offset(hi, total) - block_offset(lo, total));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// [`HashList`], the real-socket ends' v1 trailer, is the
        /// simulator's: whatever the length, and however the stream is
        /// split into runs of whole blocks, its trailer is the sender
        /// table's over `[0, total)` and ends the v1 body as framed.
        #[test]
        fn hash_list_is_the_v1_trailer(
            total in 0u64..12 * RESUME_BLOCK,
            splits in proptest::collection::vec(0u64..13, 0..4),
        ) {
            let blocks = stream_blocks(total);
            let stream = payload_chunk(0, total as usize);
            let mut bounds: Vec<u64> = splits.iter().map(|&b| block_offset(b, total)).collect();
            bounds.extend([0, total]);
            bounds.sort_unstable();
            let mut list = HashList::default();
            for run in bounds.windows(2) {
                list.blocks(&stream[run[0] as usize..run[1] as usize]);
            }
            let table = BlockDigests::new(total, (0, blocks));
            prop_assert_eq!(list.trailer(), table.trailer((0, blocks)));
            let body = framed(0, blocks, total, false);
            prop_assert_eq!(&body[body.len() - DIGEST_LEN..], &list.trailer()[..]);
        }
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
    /// the depot, asking for `request`'s range (which needs the depot);
    /// returns the finished sender, the sink and how many events the
    /// sender handled.
    fn case1_transfer(
        total: u64,
        via_depot: bool,
        request: Option<Request>,
    ) -> (BulkSender, SinkServer, u64) {
        let tcp = TcpConfig::default();
        let (sender, mut sink, handled) =
            case1_run(total, via_depot, request, tcp.send_buf, |_, _| {});
        assert_eq!(sender.state(), SenderState::Done);
        let outcomes = sink.take_outcomes();
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].ok() && outcomes[0].content_ok);
        assert_eq!(outcomes[0].bytes, sender.sent);
        (sender, sink, handled)
    }

    /// [`case1_transfer`]'s run with `send_buf`-byte socket buffers;
    /// `watch` sees the sender after each event and may act on it.
    fn case1_run(
        total: u64,
        via_depot: bool,
        request: Option<Request>,
        send_buf: u64,
        mut watch: impl FnMut(&mut BulkSender, &mut Net),
    ) -> (BulkSender, SinkServer, u64) {
        const DEPOT_PORT: u16 = 7000;
        const SINK_PORT: u16 = 5000;
        let (topo, src, dst, depot_node) = case1();
        let mut net = Net::new(topo.into_sim(1));
        let tcp = TcpConfig {
            time_wait: Dur::from_millis(1),
            send_buf,
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
            (LslPath::via(depots, sink_hop), SendMode::Lsl)
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
            request,
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
            watch(&mut sender, &mut net);
        }
        (sender, sink, handled)
    }

    impl BulkSender {
        /// Payload bytes this attempt's table has hashed.
        fn hashed(&self) -> u64 {
            self.digests.as_ref().map_or(0, |t| t.bytes.get())
        }
    }

    /// The sender generates only what the socket takes: a 16 MiB case 1
    /// transfer, direct and via the depot, hands `net.send` no more
    /// payload than was sent, apart from the one byte per wakeup that a
    /// full send buffer refuses (which arms the next Writable).
    #[test]
    fn generation_tracks_acceptance() {
        const TOTAL: u64 = 16 << 20;
        for via_depot in [false, true] {
            let (sender, _, handled) = case1_transfer(TOTAL, via_depot, None);
            assert_eq!(sender.sent, TOTAL);
            assert!(
                sender.generated <= sender.sent + handled,
                "via_depot {via_depot}: generated {} for {} sent over {handled} wakeups",
                sender.generated,
                sender.sent
            );
        }
    }

    /// Each certifying payload byte is hashed once at each end: MD5
    /// bytes per payload byte are exactly 1.0 at the sender and at the
    /// sink, for a plain v1 attempt, a resume and a stripe. (The
    /// two-level block digest and the hash list add 16 bytes of hashing
    /// per piece and per block on top.) The 20-block resume ending in a
    /// short block is hashed in groups of 8, 8 and 4 at the sender, and
    /// a block at a time, as each lands, at the sink.
    #[test]
    fn each_certifying_byte_is_hashed_once_at_each_end() {
        const SHORT: u64 = 4 * RESUME_BLOCK + 1000;
        const TWENTY: u64 = 19 * RESUME_BLOCK + 1000;
        let requests = [
            (SHORT, None),
            (SHORT, Some(Request::Resume(Resume::fresh()))),
            (
                SHORT,
                Some(Request::Stripe(StripeReq {
                    start_block: 1,
                    end_block: 3,
                })),
            ),
            (TWENTY, Some(Request::Resume(Resume::fresh()))),
        ];
        for (total, request) in requests {
            let (sender, sink, _) = case1_transfer(total, true, request);
            let (start, end) = sender.grant.expect("granted");
            let payload = block_offset(end, total) - block_offset(start, total);
            assert!(payload > 0);
            assert_eq!(sender.hashed(), payload, "sender, {request:?}");
            assert_eq!(sink.hashed, payload, "sink, {request:?}");
        }
    }

    /// A 16-block v1 transfer is hashed in two groups of eight at the
    /// sender (two `block_digests` calls) and a block at a time at the
    /// sink, each block once; the v1 header opened no session state
    /// there.
    #[test]
    fn a_sixteen_block_v1_transfer_hashes_each_block_once_at_each_end() {
        let (sender, sink, _) = case1_transfer(16 * RESUME_BLOCK, true, None);
        assert_eq!(sender.table().calls.get(), 2);
        assert_eq!(sink.hashed, 16 * RESUME_BLOCK);
        assert!(sink.sessions.is_empty());
    }

    /// A sink on a two-node LAN, fed by raw conns that a test drives
    /// byte for byte: each [`HandSink::send`] runs the network until it
    /// is quiet, so what lands at the sink, and in what order, is the
    /// test's choice.
    struct HandSink {
        net: Net,
        sink: SinkServer,
        src: NodeId,
        dst: NodeId,
    }

    impl HandSink {
        fn new(idle: Option<Dur>) -> HandSink {
            let mut b = TopologyBuilder::new();
            let (src, dst) = (b.node("src"), b.node("sink"));
            b.duplex(
                src,
                dst,
                LinkSpec::new(1_000_000_000, Dur::from_micros(100)),
            );
            let mut net = Net::new(b.build().into_sim(1));
            let mut sink = SinkServer::new(&mut net, dst, 5000, true, TcpConfig::default());
            if let Some(d) = idle {
                sink = sink.with_idle_timeout(d);
            }
            HandSink {
                net,
                sink,
                src,
                dst,
            }
        }

        /// Open a conn whose first bytes are `header`, and any more
        /// bytes in `body`.
        fn open(&mut self, header: &LslHeader, body: &[u8]) -> SockId {
            let sock = self
                .net
                .connect(self.src, self.dst, 5000, TcpConfig::default());
            let mut first = header.encode().expect("no route").to_vec();
            first.extend_from_slice(body);
            self.send(sock, &first);
            sock
        }

        fn send(&mut self, sock: SockId, data: &[u8]) {
            assert_eq!(
                self.net.send(sock, &Bytes::copy_from_slice(data)),
                data.len()
            );
            self.run();
        }

        /// Half-close `sock`: the sink judges the attempt at EOF.
        fn finish(&mut self, sock: SockId) {
            self.net.close(sock);
            self.run();
        }

        /// The sink's grant on `sock`, after the confirm byte.
        fn grant(&mut self, sock: SockId) -> Vec<u8> {
            let reply = self.net.recv(sock, 64);
            assert_eq!(reply.first(), Some(&SESSION_CONFIRM));
            reply[1..].to_vec()
        }

        fn run(&mut self) {
            while let Some(ev) = self.net.poll() {
                let _ = self.sink.handle(&mut self.net, &ev);
            }
        }

        /// Whole blocks the sink has hashed so far, on recorded
        /// attempts and live conns alike.
        fn blocks_hashed(&self) -> u64 {
            let live = self.sink.conns.values().map(|c| match &c.state {
                SinkConnState::Body(body) => body.hashed,
                SinkConnState::ReadingHeader(_) => 0,
            });
            (self.sink.hashed + live.sum::<u64>()) / RESUME_BLOCK
        }
    }

    /// A ranged header for `session`: a stripe of `stripe`, or a fresh
    /// resume.
    fn ranged(session: u128, total: u64, stripe: Option<(u64, u64)>) -> LslHeader {
        LslHeader {
            session: SessionId(session),
            flags: HEADER_FLAG_DIGEST,
            length: total,
            resume: stripe.is_none().then(Resume::fresh),
            stripe: stripe.map(|(start_block, end_block)| StripeReq {
                start_block,
                end_block,
            }),
            route: Vec::new(),
        }
    }

    /// Framed bytes per full block: its payload and its digest.
    const FRAMED: usize = RESUME_BLOCK as usize + DIGEST_LEN;

    /// The v1 trailer is the hash list, not the paper's MD5 over the
    /// whole stream: a v1 body trailed by that MD5 fails its digest, so
    /// an end still on the old rule cannot pass, while the same payload
    /// under the hash list completes. Neither opens session state.
    #[test]
    fn a_v1_body_trailed_by_the_whole_stream_md5_fails() {
        let total = 3 * RESUME_BLOCK + 1000;
        let header = LslHeader {
            session: SessionId(1),
            flags: HEADER_FLAG_DIGEST,
            length: total,
            resume: None,
            stripe: None,
            route: Vec::new(),
        };
        let new = framed(0, stream_blocks(total), total, false);
        let payload = &new[..total as usize];
        let old = [payload, &md5(payload)].concat();
        let mut h = HandSink::new(None);
        for body in [old, new] {
            let sock = h.open(&header, &body);
            h.finish(sock);
        }
        let outcomes = h.sink.take_outcomes();
        let mismatch = TransferStatus::Failed(SessionError::DigestMismatch);
        assert_eq!(
            (outcomes[0].status, outcomes[0].digest_ok),
            (mismatch, Some(false))
        );
        assert!(outcomes[0].content_ok);
        assert_eq!(
            (outcomes[1].status, outcomes[1].digest_ok),
            (TransferStatus::Complete, Some(true))
        );
        assert!(h.sink.sessions.is_empty());
    }

    /// Two striped conns carry block 1. Conn A's copy lands first, but
    /// conn B's digest completes first, so B certifies the block and A's
    /// copy is the duplicate: certification follows the order in which
    /// digests land: each block is hashed and certified on its digest's
    /// arrival, once.
    #[test]
    fn blocks_certify_in_digest_landing_order() {
        let total = 3 * RESUME_BLOCK;
        let mut h = HandSink::new(None);
        let a_frame = framed(0, 2, total, true);
        let b_frame = framed(1, 3, total, true);
        // Both are granted what they ask: no block is certified yet.
        let a = h.open(&ranged(1, total, Some((0, 2))), &[]);
        let b = h.open(&ranged(1, total, Some((1, 3))), &[]);
        assert_eq!(
            h.grant(a),
            [0u64.to_be_bytes(), 2u64.to_be_bytes()].concat()
        );
        assert_eq!(
            h.grant(b),
            [1u64.to_be_bytes(), 3u64.to_be_bytes()].concat()
        );
        h.send(a, &a_frame[..FRAMED + RESUME_BLOCK as usize]);
        h.send(b, &b_frame[..FRAMED]);
        assert_eq!(h.blocks_hashed(), 2, "A's block 0, B's block 1");
        h.send(a, &a_frame[FRAMED + RESUME_BLOCK as usize..]);
        h.finish(a);
        h.send(b, &b_frame[FRAMED..]);
        h.finish(b);
        let outcomes = h.sink.take_outcomes();
        let summary: Vec<_> = outcomes
            .iter()
            .map(|o| (o.ok(), o.blocks_certified, o.session_verified))
            .collect();
        assert_eq!(summary, [(true, 1, 2), (true, 2, 3)]);
        assert_eq!(h.sink.duplicate_blocks(SessionId(1)), 1);
        assert_eq!(h.sink.session_certified(SessionId(1)), 3);
        assert_eq!(h.blocks_hashed(), 4);
    }

    /// A flipped in-band digest fails only its own conn: its later
    /// blocks do not certify, and the other session's blocks landed
    /// between them do. Every block is hashed as it lands.
    #[test]
    fn a_bad_digest_fails_only_its_own_conn() {
        let mut h = HandSink::new(None);
        let mut a_frame = framed(0, 5, 5 * RESUME_BLOCK, true);
        a_frame[FRAMED + RESUME_BLOCK as usize + 3] ^= 0x01;
        let b_frame = framed(0, 3, 3 * RESUME_BLOCK, true);
        let a = h.open(&ranged(1, 5 * RESUME_BLOCK, None), &[]);
        let b = h.open(&ranged(2, 3 * RESUME_BLOCK, None), &[]);
        h.send(a, &a_frame[..3 * FRAMED]);
        h.send(b, &b_frame);
        h.send(a, &a_frame[3 * FRAMED..]);
        assert_eq!(h.blocks_hashed(), 8, "A 0-2, B 0-2, A 3-4");
        h.finish(a);
        h.finish(b);
        let outcomes = h.sink.take_outcomes();
        assert_eq!(
            outcomes[0].status,
            TransferStatus::Failed(SessionError::DigestMismatch)
        );
        assert_eq!(
            (outcomes[0].blocks_certified, outcomes[0].verified_blocks),
            (1, 1)
        );
        assert!(outcomes[1].ok());
        assert_eq!(outcomes[1].blocks_certified, 3);
        assert_eq!(h.sink.session_certified(SessionId(1)), 1);
        assert_eq!(h.sink.session_certified(SessionId(2)), 3);
    }

    /// A conn ended mid-range, by a resume that supersedes it or by the
    /// idle watchdog, has its landed blocks certified: the outcome, and
    /// the superseding attempt's grant, count them.
    #[test]
    fn a_superseded_or_stalled_conn_counts_its_landed_blocks() {
        let total = 5 * RESUME_BLOCK;
        let body = framed(0, 5, total, true);
        for watchdog in [false, true] {
            let mut h = HandSink::new(watchdog.then(|| Dur::from_millis(50)));
            let a = h.open(&ranged(1, total, None), &body[..3 * FRAMED]);
            if !watchdog {
                let b = h.open(&ranged(1, total, None), &[]);
                assert_eq!(h.grant(a), 0u64.to_be_bytes());
                assert_eq!(h.grant(b), (3 * RESUME_BLOCK).to_be_bytes());
            }
            let o = &h.sink.outcomes()[0];
            assert_eq!(o.status, TransferStatus::Failed(SessionError::Stalled));
            assert_eq!(
                (o.blocks_certified, o.verified_blocks, o.session_verified),
                (3, 3, 3),
                "watchdog {watchdog}"
            );
            assert_eq!(h.blocks_hashed(), 3, "watchdog {watchdog}");
        }
    }

    /// A grant and the public ledger reads count every landed block: a
    /// stripe opened once a resume's first three blocks have landed is
    /// granted from block 3, and `session_certified` then counts a
    /// fourth block the moment it lands.
    #[test]
    fn grants_and_ledger_reads_count_landed_blocks() {
        let total = 5 * RESUME_BLOCK;
        let body = framed(0, 5, total, true);
        let mut h = HandSink::new(None);
        let a = h.open(&ranged(1, total, None), &body[..3 * FRAMED]);
        assert_eq!(h.blocks_hashed(), 3);
        let b = h.open(&ranged(1, total, Some((0, 5))), &[]);
        assert_eq!(
            h.grant(b),
            [3u64.to_be_bytes(), 5u64.to_be_bytes()].concat()
        );
        h.send(a, &body[3 * FRAMED..4 * FRAMED]);
        assert_eq!(h.sink.session_certified(SessionId(1)), 4);
        assert_eq!(h.sink.duplicate_blocks(SessionId(1)), 0);
        assert_eq!(h.blocks_hashed(), 4);
        assert!(h.sink.outcomes().is_empty(), "both conns still open");
        assert_eq!(h.sink.stripe_regrants(), 0);
    }

    /// A 16-block resume is hashed at the sink a block at a time,
    /// each block once, and all sixteen certify.
    #[test]
    fn a_sixteen_block_resume_hashes_each_block_once_at_the_sink() {
        let request = Some(Request::Resume(Resume::fresh()));
        let (_, sink, _) = case1_transfer(16 * RESUME_BLOCK, true, request);
        assert_eq!(sink.hashed, 16 * RESUME_BLOCK);
        assert_eq!(sink.session_certified(SessionId(1)), 16);
    }

    /// A ranged attempt hashes ahead no further than the end of its
    /// current group: after every event, at most `LANES - 1` blocks
    /// past the payload it sent. Aborted mid-range (64 KiB socket
    /// buffers keep it from sending the range in one wakeup), it has
    /// hashed short of the whole grant, and nothing more afterwards.
    #[test]
    fn an_aborted_attempt_hashes_no_further_than_its_group() {
        const TOTAL: u64 = 20 * RESUME_BLOCK;
        let request = Some(Request::Resume(Resume::fresh()));
        for cut in [1, 8, 10, 15] {
            let mut aborted_at = None;
            let (sender, _, _) = case1_run(TOTAL, true, request, RESUME_BLOCK, |s, net| {
                assert!(
                    s.hashed() <= s.sent + (LANES as u64 - 1) * RESUME_BLOCK,
                    "cut {cut}: hashed {} for {} sent",
                    s.hashed(),
                    s.sent
                );
                if aborted_at.is_none() && s.sent >= cut * RESUME_BLOCK {
                    s.fail(net, SessionError::Stalled);
                    aborted_at = Some(s.hashed());
                }
            });
            assert!(
                matches!(sender.state(), SenderState::Failed(_)),
                "cut {cut}"
            );
            assert!(sender.sent < TOTAL, "cut {cut}: aborted mid-range");
            assert_eq!(Some(sender.hashed()), aborted_at, "cut {cut}");
            assert!(sender.hashed() < TOTAL, "cut {cut}");
        }
    }
}
