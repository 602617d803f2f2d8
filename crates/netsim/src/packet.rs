//! Packets and the identifiers for nodes and links.
//!
//! A packet carries its transport header as real serialized bytes,
//! inline in a fixed-size [`Header`]: the receiving stack re-parses
//! them on every hop, and building or moving a packet allocates
//! nothing for them. Only the payload is shared, as [`Bytes`].

use bytes::Bytes;
use std::fmt;
use std::ops::Deref;

/// Identifies a node (host or router) in the topology.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

/// Identifies a unidirectional link.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(pub u32);

/// IP protocol number for TCP; the only protocol the stacks above use,
/// but kept as a field so probes/other protocols can coexist.
pub const PROTO_TCP: u8 = 6;

/// Fixed per-packet network+link overhead charged on the wire, in bytes
/// (20 B IP header + a nominal 18 B of framing). TCP header bytes are
/// part of `header` and counted separately.
pub const WIRE_OVERHEAD: u32 = 38;

/// Longest transport header a packet carries, in bytes (TCP's is 32).
pub const HEADER_MAX: usize = 32;

/// A serialized transport header of up to [`HEADER_MAX`] bytes, stored
/// inline. Derefs to the header bytes.
#[derive(Clone, Copy, Debug)]
pub struct Header {
    len: u8,
    bytes: [u8; HEADER_MAX],
}

impl Header {
    /// Copy `bytes` in. Panics past [`HEADER_MAX`]: a protocol that
    /// emits a longer header is misbuilt.
    pub fn new(bytes: &[u8]) -> Header {
        assert!(
            bytes.len() <= HEADER_MAX,
            "transport header of {} bytes exceeds HEADER_MAX",
            bytes.len()
        );
        let mut h = Header {
            len: bytes.len() as u8,
            bytes: [0; HEADER_MAX],
        };
        h.bytes[..bytes.len()].copy_from_slice(bytes);
        h
    }
}

impl Deref for Header {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len)]
    }
}

/// A packet in flight.
///
/// The transport header travels as real serialized bytes in `header`
/// (encode/decode is exercised on every hop); bulk payload is carried in
/// `data` as a cheaply-cloneable [`Bytes`] so retransmissions and relay
/// buffering never copy.
#[derive(Clone)]
pub struct Packet {
    pub src: NodeId,
    pub dst: NodeId,
    pub proto: u8,
    /// Serialized transport header.
    pub header: Header,
    /// Transport payload.
    pub data: Bytes,
    /// Unique id assigned by the simulator at send time (for tracing).
    pub id: u64,
}

impl Packet {
    /// New TCP packet; `id` is assigned by [`crate::Simulator::send`].
    pub fn tcp(src: NodeId, dst: NodeId, header: impl AsRef<[u8]>, data: Bytes) -> Packet {
        Packet {
            src,
            dst,
            proto: PROTO_TCP,
            header: Header::new(header.as_ref()),
            data,
            id: 0,
        }
    }

    /// Total size charged on the wire, in bytes.
    pub fn wire_len(&self) -> u32 {
        WIRE_OVERHEAD + self.header.len() as u32 + self.data.len() as u32
    }
}

impl fmt::Debug for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Packet")
            .field("src", &self.src.0)
            .field("dst", &self.dst.0)
            .field("proto", &self.proto)
            .field("hdr_len", &self.header.len())
            .field("data_len", &self.data.len())
            .field("id", &self.id)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_len_counts_header_data_and_overhead() {
        let p = Packet::tcp(
            NodeId(0),
            NodeId(1),
            Bytes::from_static(&[0u8; 20]),
            Bytes::from_static(&[0u8; 100]),
        );
        assert_eq!(p.wire_len(), WIRE_OVERHEAD + 120);
    }

    #[test]
    fn header_holds_exactly_the_bytes_given() {
        let h = Header::new(&[1, 2, 3]);
        assert_eq!(&*h, &[1, 2, 3]);
        assert_eq!(Header::new(&[]).len(), 0);
        assert_eq!(Header::new(&[9; HEADER_MAX]).len(), HEADER_MAX);
    }

    #[test]
    #[should_panic(expected = "exceeds HEADER_MAX")]
    fn oversized_header_rejected() {
        let _ = Header::new(&[0; HEADER_MAX + 1]);
    }

    #[test]
    fn clone_is_shallow_for_data() {
        let data = Bytes::from(vec![7u8; 1460]);
        let p = Packet::tcp(NodeId(0), NodeId(1), Bytes::new(), data.clone());
        let q = p.clone();
        // Bytes clones share the same backing allocation.
        assert_eq!(q.data.as_ptr(), data.as_ptr());
    }
}
