//! Where the L4 payload sits in a frame, for the NFs that rewrite it
//! (Encrypt, Decrypt, FastEncrypt, Dedup): one parse per packet, shared by
//! the payload kernel and the length/checksum fix-up that follows it.

use lemur_packet::ethernet::{self, EtherType};
use lemur_packet::ipv4::Protocol;
use lemur_packet::{ipv4, tcp, udp, vlan, PacketBuf};

/// Byte offsets of the L3/L4 layers of an (optionally VLAN-tagged)
/// IPv4 UDP or TCP frame.
pub(crate) struct Layout {
    /// Offset of the IPv4 header within the frame.
    pub l3: usize,
    /// Offset of the L4 header.
    pub l4: usize,
    /// Offset of the L4 payload.
    pub payload: usize,
    pub protocol: Protocol,
}

impl Layout {
    /// Parse the frame's layers; `None` for anything but well-formed
    /// IPv4 UDP/TCP.
    pub fn parse(frame: &[u8]) -> Option<Layout> {
        let eth = ethernet::Frame::new_checked(frame).ok()?;
        let l3 = match eth.ethertype() {
            EtherType::Ipv4 => ethernet::HEADER_LEN,
            EtherType::Vlan => {
                let tag = vlan::Tag::new_checked(eth.payload()).ok()?;
                if tag.inner_ethertype() != EtherType::Ipv4 {
                    return None;
                }
                ethernet::HEADER_LEN + vlan::TAG_LEN
            }
            _ => return None,
        };
        let ip = ipv4::Packet::new_checked(&frame[l3..]).ok()?;
        let l4 = l3 + ip.header_len() as usize;
        let payload = match ip.protocol() {
            Protocol::Udp => l4 + udp::HEADER_LEN,
            Protocol::Tcp => {
                let t = tcp::Packet::new_checked(&frame[l4..]).ok()?;
                l4 + t.header_len() as usize
            }
            _ => return None,
        };
        if payload > frame.len() {
            return None;
        }
        Some(Layout {
            l3,
            l4,
            payload,
            protocol: ip.protocol(),
        })
    }

    /// Recompute IP total length, UDP length, and L3/L4 checksums after the
    /// payload was rewritten (the headers before it have not moved relative
    /// to the start of the frame).
    pub fn fix_lengths_and_checksums(&self, pkt: &mut PacketBuf) {
        let frame_len = pkt.len();
        let ip_total = (frame_len - self.l3) as u16;
        let l4_len = (frame_len - self.l4) as u16;
        let data = pkt.as_mut_slice();
        let (src, dst) = {
            let ip = ipv4::Packet::new_unchecked(&data[self.l3..]);
            (ip.src(), ip.dst())
        };
        {
            let mut ip = ipv4::Packet::new_unchecked(&mut data[self.l3..]);
            ip.set_total_len(ip_total);
            ip.fill_checksum();
        }
        match self.protocol {
            Protocol::Udp => {
                let mut u = udp::Packet::new_unchecked(&mut data[self.l4..]);
                u.set_length(l4_len);
                u.fill_checksum(src, dst);
            }
            Protocol::Tcp => {
                let mut t = tcp::Packet::new_unchecked(&mut data[self.l4..]);
                t.fill_checksum(src, dst);
            }
            _ => {}
        }
    }
}
