//! Convenience builders for fully-formed packets.
//!
//! The traffic generator and the tests use these to construct valid frames
//! with correct lengths and checksums at every layer.

use crate::batch::PacketBuf;
use crate::ethernet::{self, EtherType};
use crate::ipv4::{self, Protocol};
use crate::{nsh, tcp, udp, vlan};

/// Build an Ethernet/IPv4/UDP packet with the given payload.
#[allow(clippy::too_many_arguments)]
pub fn udp_packet(
    eth_src: ethernet::Address,
    eth_dst: ethernet::Address,
    ip_src: ipv4::Address,
    ip_dst: ipv4::Address,
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
) -> PacketBuf {
    udp_packet_with(
        eth_src,
        eth_dst,
        ip_src,
        ip_dst,
        src_port,
        dst_port,
        payload.len(),
        |buf| buf.copy_from_slice(payload),
    )
}

/// [`udp_packet`] for a payload the caller generates: `fill` is handed the
/// frame's `payload_len` payload bytes (zeroed) to write in place, before
/// the checksums are taken — no payload buffer of the caller's to copy.
#[allow(clippy::too_many_arguments)]
pub fn udp_packet_with(
    eth_src: ethernet::Address,
    eth_dst: ethernet::Address,
    ip_src: ipv4::Address,
    ip_dst: ipv4::Address,
    src_port: u16,
    dst_port: u16,
    payload_len: usize,
    fill: impl FnOnce(&mut [u8]),
) -> PacketBuf {
    let udp_len = udp::HEADER_LEN + payload_len;
    let ip_len = ipv4::HEADER_LEN + udp_len;
    let total = ethernet::HEADER_LEN + ip_len;
    let mut buf = PacketBuf::zeroed(total);
    {
        let mut eth = ethernet::Frame::new_unchecked(buf.as_mut_slice());
        eth.set_src(eth_src);
        eth.set_dst(eth_dst);
        eth.set_ethertype(EtherType::Ipv4);
        let mut ip = ipv4::Packet::new_unchecked(eth.payload_mut());
        ip.set_version_and_len(ipv4::HEADER_LEN as u8);
        ip.set_dscp_ecn(0);
        ip.set_total_len(ip_len as u16);
        ip.set_ident(0);
        ip.clear_flags();
        ip.set_ttl(64);
        ip.set_protocol(Protocol::Udp);
        ip.set_src(ip_src);
        ip.set_dst(ip_dst);
        let mut u = udp::Packet::new_unchecked(ip.payload_mut());
        u.set_src_port(src_port);
        u.set_dst_port(dst_port);
        u.set_length(udp_len as u16);
        fill(u.payload_mut());
        u.fill_checksum(ip_src, ip_dst);
        ip.fill_checksum();
    }
    buf
}

/// Build an Ethernet/IPv4/TCP packet with the given payload and flags.
#[allow(clippy::too_many_arguments)]
pub fn tcp_packet(
    eth_src: ethernet::Address,
    eth_dst: ethernet::Address,
    ip_src: ipv4::Address,
    ip_dst: ipv4::Address,
    src_port: u16,
    dst_port: u16,
    flags: tcp::Flags,
    payload: &[u8],
) -> PacketBuf {
    let tcp_len = tcp::HEADER_LEN + payload.len();
    let ip_len = ipv4::HEADER_LEN + tcp_len;
    let total = ethernet::HEADER_LEN + ip_len;
    let mut buf = PacketBuf::zeroed(total);
    {
        let mut eth = ethernet::Frame::new_unchecked(buf.as_mut_slice());
        eth.set_src(eth_src);
        eth.set_dst(eth_dst);
        eth.set_ethertype(EtherType::Ipv4);
        let mut ip = ipv4::Packet::new_unchecked(eth.payload_mut());
        ip.set_version_and_len(ipv4::HEADER_LEN as u8);
        ip.set_total_len(ip_len as u16);
        ip.set_ident(0);
        ip.clear_flags();
        ip.set_ttl(64);
        ip.set_protocol(Protocol::Tcp);
        ip.set_src(ip_src);
        ip.set_dst(ip_dst);
        let mut t = tcp::Packet::new_unchecked(ip.payload_mut());
        t.set_src_port(src_port);
        t.set_dst_port(dst_port);
        t.set_seq(0);
        t.set_ack(0);
        t.set_header_len(tcp::HEADER_LEN as u8);
        t.set_flags(flags);
        t.set_window(65535);
        t.set_urgent(0);
        t.payload_mut().copy_from_slice(payload);
        t.fill_checksum(ip_src, ip_dst);
        ip.fill_checksum();
    }
    buf
}

/// Push an NSH header (plus an outer Ethernet header carrying EtherType NSH)
/// in front of an existing frame. This is what the generated `NSHencap`
/// module does at the tail of a server subgroup (§A.1.2).
pub fn nsh_encap(pkt: &mut PacketBuf, spi: u32, si: u8) {
    // Copy the original Ethernet addresses to the new outer header. A
    // frame too short to carry them cannot be service-chained: leave it
    // alone rather than fabricate an outer header from garbage.
    let Ok(eth) = ethernet::Frame::new_checked(pkt.as_slice()) else {
        return;
    };
    let (dst, src) = (eth.dst(), eth.src());
    let mut hdr = [0u8; ethernet::HEADER_LEN + nsh::HEADER_LEN];
    {
        let mut eth = ethernet::Frame::new_unchecked(&mut hdr[..]);
        eth.set_dst(dst);
        eth.set_src(src);
        eth.set_ethertype(EtherType::Nsh);
        let mut n = nsh::Header::new_unchecked(eth.payload_mut());
        n.init(nsh::NextProtocol::Ethernet);
        n.set_spi(spi);
        n.set_si(si);
    }
    pkt.push_front(&hdr);
}

/// Remove the outer Ethernet+NSH headers pushed by [`nsh_encap`], returning
/// the SPI/SI that were carried. Returns `None` if the packet does not start
/// with an NSH encapsulation.
pub fn nsh_decap(pkt: &mut PacketBuf) -> Option<(u32, u8)> {
    let eth = ethernet::Frame::new_checked(pkt.as_slice()).ok()?;
    if eth.ethertype() != EtherType::Nsh {
        return None;
    }
    let n = nsh::Header::new_checked(eth.payload()).ok()?;
    let out = (n.spi(), n.si());
    pkt.advance_front(ethernet::HEADER_LEN + nsh::HEADER_LEN);
    Some(out)
}

/// Read SPI/SI of an NSH-encapsulated frame without removing the header.
pub fn nsh_peek(frame: &[u8]) -> Option<(u32, u8)> {
    let eth = ethernet::Frame::new_checked(frame).ok()?;
    if eth.ethertype() != EtherType::Nsh {
        return None;
    }
    let n = nsh::Header::new_checked(eth.payload()).ok()?;
    Some((n.spi(), n.si()))
}

/// Rewrite the SI of an NSH-encapsulated frame in place. Returns false if
/// the frame is not NSH-encapsulated.
pub fn nsh_set_si(pkt: &mut PacketBuf, si: u8) -> bool {
    let is_nsh = matches!(
        ethernet::Frame::new_checked(pkt.as_slice()).map(|e| e.ethertype()),
        Ok(EtherType::Nsh)
    );
    // The EtherType may promise NSH on a frame truncated mid-header;
    // only a complete service header is writable.
    if !is_nsh || pkt.len() < ethernet::HEADER_LEN + nsh::HEADER_LEN {
        return false;
    }
    let data = pkt.as_mut_slice();
    let mut n = nsh::Header::new_unchecked(&mut data[ethernet::HEADER_LEN..]);
    n.set_si(si);
    true
}

/// Splice an 802.1Q tag into a plain Ethernet frame (Tunnel NF).
pub fn vlan_push(pkt: &mut PacketBuf, vid: u16) {
    vlan_push_at(pkt, 0, vid)
}

/// [`vlan_push`] on an Ethernet frame starting at `frame_off` within the
/// buffer — the form the PISA runtime uses on NSH-encapsulated packets
/// (the tag belongs to the *inner* frame, not the service header).
pub fn vlan_push_at(pkt: &mut PacketBuf, frame_off: usize, vid: u16) {
    // An offset beyond the buffer or a frame too short for an Ethernet
    // header has no EtherType to splice behind: no-op.
    let Some(frame) = pkt.as_slice().get(frame_off..) else {
        return;
    };
    let Ok(eth) = ethernet::Frame::new_checked(frame) else {
        return;
    };
    let inner_type = eth.ethertype();
    let mut tag = [0u8; vlan::TAG_LEN];
    {
        let mut t = vlan::Tag::new_unchecked(&mut tag[..]);
        t.set_tci(0, false, vid);
        t.set_inner_ethertype(inner_type);
    }
    pkt.insert_at(frame_off + 12, &tag);
    // Rewrite the frame's EtherType to VLAN.
    let data = &mut pkt.as_mut_slice()[frame_off..];
    data[12..14].copy_from_slice(&u16::from(EtherType::Vlan).to_be_bytes());
    data[14..16].copy_from_slice(&tag[0..2]);
    data[16..18].copy_from_slice(&tag[2..4]);
}

/// Remove an 802.1Q tag from a frame (Detunnel NF); returns the VID, or
/// `None` if the frame carried no tag.
pub fn vlan_pop(pkt: &mut PacketBuf) -> Option<u16> {
    vlan_pop_at(pkt, 0)
}

/// [`vlan_pop`] on an Ethernet frame starting at `frame_off`.
pub fn vlan_pop_at(pkt: &mut PacketBuf, frame_off: usize) -> Option<u16> {
    let (vid, inner) = {
        let eth = ethernet::Frame::new_checked(pkt.as_slice().get(frame_off..)?).ok()?;
        if eth.ethertype() != EtherType::Vlan {
            return None;
        }
        let tag = vlan::Tag::new_checked(eth.payload()).ok()?;
        (tag.vid(), tag.inner_ethertype())
    };
    pkt.remove_at_discard(frame_off + 12, vlan::TAG_LEN);
    let data = &mut pkt.as_mut_slice()[frame_off..];
    data[12..14].copy_from_slice(&u16::from(inner).to_be_bytes());
    Some(vid)
}

/// Read the VID of a tagged frame without modifying it.
pub fn vlan_peek(frame: &[u8]) -> Option<u16> {
    let eth = ethernet::Frame::new_checked(frame).ok()?;
    if eth.ethertype() != EtherType::Vlan {
        return None;
    }
    vlan::Tag::new_checked(eth.payload()).ok().map(|t| t.vid())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FiveTuple;

    fn sample() -> PacketBuf {
        udp_packet(
            ethernet::Address([2, 0, 0, 0, 0, 1]),
            ethernet::Address([2, 0, 0, 0, 0, 2]),
            ipv4::Address::new(10, 0, 0, 1),
            ipv4::Address::new(10, 0, 0, 2),
            1234,
            80,
            b"data-data-data",
        )
    }

    #[test]
    fn udp_packet_is_valid_at_all_layers() {
        let pkt = sample();
        let eth = ethernet::Frame::new_checked(pkt.as_slice()).unwrap();
        let ip = ipv4::Packet::new_checked(eth.payload()).unwrap();
        assert!(ip.verify_checksum());
        let u = udp::Packet::new_checked(ip.payload()).unwrap();
        assert!(u.verify_checksum(ip.src(), ip.dst()));
        assert_eq!(u.payload(), b"data-data-data");
    }

    #[test]
    fn tcp_packet_is_valid_at_all_layers() {
        let pkt = tcp_packet(
            ethernet::Address([2, 0, 0, 0, 0, 1]),
            ethernet::Address([2, 0, 0, 0, 0, 2]),
            ipv4::Address::new(1, 1, 1, 1),
            ipv4::Address::new(2, 2, 2, 2),
            1000,
            2000,
            tcp::Flags::PSH.union(tcp::Flags::ACK),
            b"req",
        );
        let eth = ethernet::Frame::new_checked(pkt.as_slice()).unwrap();
        let ip = ipv4::Packet::new_checked(eth.payload()).unwrap();
        assert!(ip.verify_checksum());
        let t = tcp::Packet::new_checked(ip.payload()).unwrap();
        assert!(t.verify_checksum(ip.src(), ip.dst()));
        assert_eq!(t.payload(), b"req");
    }

    #[test]
    fn nsh_encap_decap_roundtrip() {
        let mut pkt = sample();
        let original = pkt.as_slice().to_vec();
        nsh_encap(&mut pkt, 42, 254);
        assert_eq!(nsh_peek(pkt.as_slice()), Some((42, 254)));
        assert_eq!(
            pkt.len(),
            original.len() + ethernet::HEADER_LEN + nsh::HEADER_LEN
        );
        assert!(nsh_set_si(&mut pkt, 200));
        assert_eq!(nsh_decap(&mut pkt), Some((42, 200)));
        assert_eq!(pkt.as_slice(), &original[..]);
    }

    #[test]
    fn nsh_decap_on_plain_frame_is_none() {
        let mut pkt = sample();
        assert_eq!(nsh_decap(&mut pkt), None);
        assert!(!nsh_set_si(&mut pkt, 1));
    }

    #[test]
    fn vlan_push_pop_roundtrip() {
        let mut pkt = sample();
        let original = pkt.as_slice().to_vec();
        vlan_push(&mut pkt, 0x0abc);
        assert_eq!(vlan_peek(pkt.as_slice()), Some(0x0abc));
        assert_eq!(pkt.len(), original.len() + vlan::TAG_LEN);
        // The 5-tuple must still parse through the tag.
        let t = FiveTuple::parse(pkt.as_slice()).unwrap();
        assert_eq!(t.dst_port, 80);
        assert_eq!(vlan_pop(&mut pkt), Some(0x0abc));
        assert_eq!(pkt.as_slice(), &original[..]);
    }

    #[test]
    fn vlan_pop_on_untagged_is_none() {
        let mut pkt = sample();
        assert_eq!(vlan_pop(&mut pkt), None);
        assert_eq!(vlan_peek(pkt.as_slice()), None);
    }

    #[test]
    fn nested_encap_nsh_over_vlan() {
        let mut pkt = sample();
        vlan_push(&mut pkt, 7);
        nsh_encap(&mut pkt, 1, 255);
        assert_eq!(nsh_decap(&mut pkt), Some((1, 255)));
        assert_eq!(vlan_pop(&mut pkt), Some(7));
        let u = FiveTuple::parse(pkt.as_slice()).unwrap();
        assert_eq!(u.src_port, 1234);
    }
}
