//! TCP segment header and its wire codec.
//!
//! Headers travel as real serialized bytes inside `lsl_netsim::Packet`
//! and are re-parsed at the receiving stack, so the codec is exercised by
//! every simulated segment. Sequence/ack/window fields are 64-bit (see
//! the crate docs for the rationale); the fixed header is 32 bytes.
//! [`Segment::encode`] writes them into a plain array, which the packet
//! stores inline, so a segment header costs no heap allocation.

/// TCP flag bits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Flags {
    pub syn: bool,
    pub ack: bool,
    pub fin: bool,
    pub rst: bool,
}

impl Flags {
    pub const SYN: Flags = Flags {
        syn: true,
        ack: false,
        fin: false,
        rst: false,
    };
    pub const ACK: Flags = Flags {
        syn: false,
        ack: true,
        fin: false,
        rst: false,
    };
    pub const SYN_ACK: Flags = Flags {
        syn: true,
        ack: true,
        fin: false,
        rst: false,
    };
    pub const FIN_ACK: Flags = Flags {
        syn: false,
        ack: true,
        fin: true,
        rst: false,
    };
    pub const RST: Flags = Flags {
        syn: false,
        ack: false,
        fin: false,
        rst: true,
    };

    fn to_bits(self) -> u8 {
        (self.syn as u8) | (self.ack as u8) << 1 | (self.fin as u8) << 2 | (self.rst as u8) << 3
    }

    fn from_bits(b: u8) -> Flags {
        Flags {
            syn: b & 1 != 0,
            ack: b & 2 != 0,
            fin: b & 4 != 0,
            rst: b & 8 != 0,
        }
    }
}

/// A parsed TCP header. Payload travels separately in the packet body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segment {
    pub src_port: u16,
    pub dst_port: u16,
    /// Sequence number of the first payload byte (or of the SYN/FIN).
    pub seq: u64,
    /// Cumulative acknowledgment (valid when `flags.ack`).
    pub ack: u64,
    pub flags: Flags,
    /// Advertised receive window in bytes.
    pub wnd: u64,
    /// MSS option, carried on SYN segments.
    pub mss: Option<u16>,
}

/// Serialized header length in bytes.
pub const HEADER_LEN: usize = 32;

impl Segment {
    /// Serialize to the fixed 32-byte wire format.
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut b = [0u8; HEADER_LEN];
        b[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        b[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        b[4..12].copy_from_slice(&self.seq.to_be_bytes());
        b[12..20].copy_from_slice(&self.ack.to_be_bytes());
        b[20] = self.flags.to_bits();
        b[21] = u8::from(self.mss.is_some());
        b[22..24].copy_from_slice(&self.mss.unwrap_or(0).to_be_bytes());
        b[24..32].copy_from_slice(&self.wnd.to_be_bytes());
        b
    }

    /// Parse a wire header; `None` on truncation or a malformed option
    /// marker (the simulator never corrupts, but the depot and realnet
    /// share this codec and must not panic on bad input).
    pub fn decode(buf: &[u8]) -> Option<Segment> {
        if buf.len() < HEADER_LEN {
            return None;
        }
        let src_port = u16::from_be_bytes([buf[0], buf[1]]);
        let dst_port = u16::from_be_bytes([buf[2], buf[3]]);
        let seq = u64::from_be_bytes(buf[4..12].try_into().ok()?);
        let ack = u64::from_be_bytes(buf[12..20].try_into().ok()?);
        let flags = Flags::from_bits(buf[20]);
        let mss_present = match buf[21] {
            0 => false,
            1 => true,
            _ => return None,
        };
        let mss_val = u16::from_be_bytes([buf[22], buf[23]]);
        let wnd = u64::from_be_bytes(buf[24..32].try_into().ok()?);
        Some(Segment {
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            wnd,
            mss: mss_present.then_some(mss_val),
        })
    }

    /// Payload end sequence given a payload of `len` bytes, counting the
    /// virtual SYN/FIN octets.
    pub fn seq_space(&self, payload_len: u64) -> u64 {
        payload_len + self.flags.syn as u64 + self.flags.fin as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Segment {
        Segment {
            src_port: 40000,
            dst_port: 5000,
            seq: 123456789012,
            ack: 987654321098,
            flags: Flags {
                syn: true,
                ack: true,
                fin: false,
                rst: false,
            },
            wnd: 8 * 1024 * 1024,
            mss: Some(1460),
        }
    }

    #[test]
    fn roundtrip() {
        let s = sample();
        let enc = s.encode();
        assert_eq!(enc.len(), HEADER_LEN);
        assert_eq!(Segment::decode(&enc), Some(s));
    }

    #[test]
    fn encode_writes_the_big_endian_layout() {
        let s = Segment {
            src_port: 0x0102,
            dst_port: 0x0304,
            seq: 0x0506_0708_090a_0b0c,
            ack: 0x0d0e_0f10_1112_1314,
            flags: Flags::SYN_ACK,
            wnd: 0x1718_191a_1b1c_1d1e,
            mss: Some(0x1516),
        };
        let mut want: Vec<u8> = (0x01..=0x14).collect();
        want.extend([0b0011, 1, 0x15, 0x16]);
        want.extend(0x17..=0x1e);
        assert_eq!(s.encode().to_vec(), want);
    }

    #[test]
    fn roundtrip_no_mss() {
        let s = Segment {
            mss: None,
            flags: Flags::ACK,
            ..sample()
        };
        assert_eq!(Segment::decode(&s.encode()), Some(s));
    }

    #[test]
    fn truncated_rejected() {
        let enc = sample().encode();
        for len in 0..HEADER_LEN {
            assert_eq!(Segment::decode(&enc[..len]), None, "len {len}");
        }
    }

    #[test]
    fn bad_option_marker_rejected() {
        let mut enc = sample().encode().to_vec();
        enc[21] = 7;
        assert_eq!(Segment::decode(&enc), None);
    }

    #[test]
    fn flag_bits_roundtrip() {
        for bits in 0..16u8 {
            let f = Flags::from_bits(bits);
            assert_eq!(f.to_bits(), bits);
        }
    }

    #[test]
    fn seq_space_counts_syn_fin() {
        let mut s = sample();
        s.flags = Flags::SYN;
        assert_eq!(s.seq_space(0), 1);
        s.flags = Flags::FIN_ACK;
        assert_eq!(s.seq_space(10), 11);
        s.flags = Flags::ACK;
        assert_eq!(s.seq_space(10), 10);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn codec_roundtrip(src in any::<u16>(), dst in any::<u16>(),
                           seq in any::<u64>(), ack in any::<u64>(),
                           bits in 0u8..16, wnd in any::<u64>(),
                           mss in proptest::option::of(any::<u16>())) {
            let s = Segment {
                src_port: src, dst_port: dst, seq, ack,
                flags: Flags::from_bits(bits), wnd, mss,
            };
            prop_assert_eq!(Segment::decode(&s.encode()), Some(s));
        }

        /// Decoding arbitrary bytes never panics.
        #[test]
        fn decode_total(data in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = Segment::decode(&data);
        }
    }
}
