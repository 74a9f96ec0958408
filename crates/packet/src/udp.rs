//! UDP datagram view.

use crate::checksum;
use crate::error::{Error, Result};
use crate::ipv4;

/// UDP header length.
pub const HEADER_LEN: usize = 8;

mod field {
    use core::ops::Range;
    pub const SRC_PORT: Range<usize> = 0..2;
    pub const DST_PORT: Range<usize> = 2..4;
    pub const LENGTH: Range<usize> = 4..6;
    pub const CHECKSUM: Range<usize> = 6..8;
    pub const PAYLOAD: usize = 8;
}

/// A view of a UDP datagram.
#[derive(Debug, Clone)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    /// Wrap a buffer without validation.
    pub fn new_unchecked(buffer: T) -> Packet<T> {
        Packet { buffer }
    }

    /// Wrap a buffer, validating header and length field.
    pub fn new_checked(buffer: T) -> Result<Packet<T>> {
        let len = buffer.as_ref().len();
        if len < HEADER_LEN {
            return Err(Error::Truncated);
        }
        let packet = Packet { buffer };
        let l = packet.length() as usize;
        if l < HEADER_LEN || l > len {
            return Err(Error::Malformed);
        }
        Ok(packet)
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[0], d[1]])
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[2], d[3]])
    }

    /// The UDP length field (header + payload).
    pub fn length(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[4], d[5]])
    }

    /// The checksum field.
    pub fn checksum_field(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[6], d[7]])
    }

    /// Datagram payload.
    pub fn payload(&self) -> &[u8] {
        let l = self.length() as usize;
        &self.buffer.as_ref()[field::PAYLOAD..l]
    }

    /// Verify the checksum against an IPv4 pseudo-header. A zero checksum
    /// means "not computed" and is accepted, per RFC 768.
    pub fn verify_checksum(&self, src: ipv4::Address, dst: ipv4::Address) -> bool {
        if self.checksum_field() == 0 {
            return true;
        }
        let init = checksum::pseudo_header_v4(src.0, dst.0, 17, self.length());
        let data = &self.buffer.as_ref()[..self.length() as usize];
        checksum::checksum(init, data) == 0
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Packet<T> {
    /// Set the source port.
    pub fn set_src_port(&mut self, v: u16) {
        self.buffer.as_mut()[field::SRC_PORT].copy_from_slice(&v.to_be_bytes());
    }

    /// Set the destination port.
    pub fn set_dst_port(&mut self, v: u16) {
        self.buffer.as_mut()[field::DST_PORT].copy_from_slice(&v.to_be_bytes());
    }

    /// Set the UDP length field.
    pub fn set_length(&mut self, v: u16) {
        self.buffer.as_mut()[field::LENGTH].copy_from_slice(&v.to_be_bytes());
    }

    /// Store an already-computed checksum (for a sender that knows the sum
    /// without reading the datagram back; see [`Packet::fill_checksum`]
    /// for the zero → `0xffff` rule it must apply itself).
    pub fn set_checksum_field(&mut self, v: u16) {
        self.buffer.as_mut()[field::CHECKSUM].copy_from_slice(&v.to_be_bytes());
    }

    /// Recompute and store the checksum over the pseudo-header and datagram.
    pub fn fill_checksum(&mut self, src: ipv4::Address, dst: ipv4::Address) {
        self.buffer.as_mut()[field::CHECKSUM].copy_from_slice(&[0, 0]);
        let init = checksum::pseudo_header_v4(src.0, dst.0, 17, self.length());
        let sum = {
            let data = &self.buffer.as_ref()[..self.length() as usize];
            checksum::checksum(init, data)
        };
        // RFC 768: an all-zero computed checksum is transmitted as all-ones.
        let sum = if sum == 0 { 0xffff } else { sum };
        self.buffer.as_mut()[field::CHECKSUM].copy_from_slice(&sum.to_be_bytes());
    }

    /// Mutable payload view.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let l = self.length() as usize;
        &mut self.buffer.as_mut()[field::PAYLOAD..l]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: ipv4::Address = ipv4::Address::new(10, 0, 0, 1);
    const DST: ipv4::Address = ipv4::Address::new(10, 0, 0, 2);

    fn build(payload: &[u8]) -> Vec<u8> {
        let mut buf = vec![0u8; HEADER_LEN + payload.len()];
        {
            let mut u = Packet::new_unchecked(&mut buf[..]);
            u.set_src_port(4242);
            u.set_dst_port(53);
            u.set_length((HEADER_LEN + payload.len()) as u16);
            u.payload_mut().copy_from_slice(payload);
            u.fill_checksum(SRC, DST);
        }
        buf
    }

    #[test]
    fn roundtrip() {
        let buf = build(b"query");
        let u = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(u.src_port(), 4242);
        assert_eq!(u.dst_port(), 53);
        assert_eq!(u.payload(), b"query");
        assert!(u.verify_checksum(SRC, DST));
    }

    #[test]
    fn corrupt_payload_fails_checksum() {
        let mut buf = build(b"query");
        *buf.last_mut().unwrap() ^= 0xff;
        let u = Packet::new_checked(&buf[..]).unwrap();
        assert!(!u.verify_checksum(SRC, DST));
    }

    #[test]
    fn zero_checksum_accepted() {
        let mut buf = build(b"x");
        buf[6] = 0;
        buf[7] = 0;
        let u = Packet::new_checked(&buf[..]).unwrap();
        assert!(u.verify_checksum(SRC, DST));
    }

    #[test]
    fn truncated_and_malformed() {
        assert_eq!(
            Packet::new_checked(&[0u8; 7][..]).unwrap_err(),
            Error::Truncated
        );
        let mut buf = build(b"abc");
        buf[4..6].copy_from_slice(&100u16.to_be_bytes()); // length > buffer
        assert_eq!(Packet::new_checked(&buf[..]).unwrap_err(), Error::Malformed);
        let mut buf2 = build(b"abc");
        buf2[4..6].copy_from_slice(&4u16.to_be_bytes()); // length < header
        assert_eq!(
            Packet::new_checked(&buf2[..]).unwrap_err(),
            Error::Malformed
        );
    }
}
