//! The parse-once header view: where a frame's headers are, which of them
//! are complete enough to touch, and field reads/writes given that.
//!
//! The runtime parses a packet at most once per visit ([`HeaderView::parse`])
//! and then reads and writes fields at the recorded offsets; this module
//! is the single definition of what every packet-resident [`FieldRef`]
//! means on well-formed, nested and truncated frames.

use crate::ir::FieldRef;
use lemur_packet::ethernet::{self, EtherType};
use lemur_packet::flow::FiveTuple;
use lemur_packet::ipv4::{self, Protocol};
use lemur_packet::{nsh, tcp, udp, vlan};

pub(crate) const ETH: usize = ethernet::HEADER_LEN;

/// Where a frame's headers are, and which of them are complete enough to
/// read or write — everything field access needs besides the bytes.
///
/// A view stays valid until a header is inserted or removed or an
/// EtherType is rewritten: no other field write can change an offset, a
/// length field, or a protocol selector.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct HeaderView {
    /// The outer EtherType says NSH and a whole service header fits: SPI
    /// and SI are writable (and `DecNshSi` applies).
    pub(crate) nsh_writable: bool,
    /// ... and the service header is well-formed: SPI and SI are readable,
    /// and the inner frame starts behind it (see [`HeaderView::inner`]).
    pub(crate) nsh_readable: bool,
    /// The inner frame has a complete Ethernet header.
    pub(crate) eth: bool,
    /// ... whose EtherType says VLAN, and the whole tag fits.
    pub(crate) vlan: bool,
    /// Offset of a well-formed IPv4 header (looking through one tag).
    pub(crate) l3: Option<usize>,
    /// Offset of a UDP/TCP header that is well-formed within the frame:
    /// ports are readable and writable.
    pub(crate) l4: Option<usize>,
    /// ... and also within the IPv4 total length: the 5-tuple parses, so
    /// the flow hash is defined.
    pub(crate) tuple: bool,
}

impl HeaderView {
    /// Offset of the inner (service-payload) Ethernet frame: behind the
    /// outer Ethernet+NSH headers for service-chained packets, else 0.
    pub(crate) fn inner(&self) -> usize {
        if self.nsh_readable {
            ETH + nsh::HEADER_LEN
        } else {
            0
        }
    }

    pub(crate) fn parse(b: &[u8]) -> HeaderView {
        let mut v = HeaderView::default();
        let outer_nsh =
            matches!(ethernet::Frame::new_checked(b), Ok(e) if e.ethertype() == EtherType::Nsh);
        // The EtherType may promise NSH on a frame truncated mid-header;
        // only a complete service header is writable.
        if outer_nsh && b.len() >= ETH + nsh::HEADER_LEN {
            v.nsh_writable = true;
            v.nsh_readable = nsh::Header::new_checked(&b[ETH..]).is_ok();
        }
        let inner = v.inner();
        let frame = &b[inner..];
        let Ok(eth) = ethernet::Frame::new_checked(frame) else {
            return v;
        };
        v.eth = true;
        let (ethertype, l3) = match eth.ethertype() {
            EtherType::Vlan => match vlan::Tag::new_checked(eth.payload()) {
                Ok(tag) => (tag.inner_ethertype(), ETH + vlan::TAG_LEN),
                Err(_) => return v,
            },
            other => (other, ETH),
        };
        v.vlan = l3 != ETH;
        if ethertype != EtherType::Ipv4 {
            return v;
        }
        let Ok(ip) = ipv4::Packet::new_checked(&frame[l3..]) else {
            return v;
        };
        v.l3 = Some(inner + l3);
        let l4 = l3 + ip.header_len() as usize;
        let well_formed = |l4_bytes: &[u8]| match ip.protocol() {
            Protocol::Udp => udp::Packet::new_checked(l4_bytes).is_ok(),
            Protocol::Tcp => tcp::Packet::new_checked(l4_bytes).is_ok(),
            _ => false,
        };
        if well_formed(&frame[l4..]) {
            v.l4 = Some(inner + l4);
            v.tuple = well_formed(ip.payload());
        }
        v
    }

    /// Read a header field of `b`; `None` if its header is absent or
    /// truncated (and for `Meta`/`FlowHash`, which are not header fields).
    pub(crate) fn read(&self, b: &[u8], f: FieldRef) -> Option<u64> {
        Some(match f {
            FieldRef::NshSpi | FieldRef::NshSi => {
                let h = nsh::Header::new_unchecked(&b[self.nsh_readable.then_some(ETH)?..]);
                match f {
                    FieldRef::NshSpi => h.spi() as u64,
                    _ => h.si() as u64,
                }
            }
            FieldRef::EthSrc | FieldRef::EthDst | FieldRef::EtherType => {
                let eth = ethernet::Frame::new_unchecked(&b[self.eth.then_some(self.inner())?..]);
                match f {
                    FieldRef::EthSrc => mac_to_u64(eth.src()),
                    FieldRef::EthDst => mac_to_u64(eth.dst()),
                    _ => u16::from(eth.ethertype()) as u64,
                }
            }
            FieldRef::VlanVid => {
                vlan::Tag::new_unchecked(&b[self.vlan.then_some(self.inner() + ETH)?..]).vid()
                    as u64
            }
            FieldRef::Ipv4Src | FieldRef::Ipv4Dst | FieldRef::Ipv4Proto | FieldRef::Ipv4Ttl => {
                let ip = ipv4::Packet::new_unchecked(&b[self.l3?..]);
                match f {
                    FieldRef::Ipv4Src => ip.src().to_u32() as u64,
                    FieldRef::Ipv4Dst => ip.dst().to_u32() as u64,
                    FieldRef::Ipv4Proto => u8::from(ip.protocol()) as u64,
                    _ => ip.ttl() as u64,
                }
            }
            FieldRef::L4Sport => self.ports(b)?.0 as u64,
            FieldRef::L4Dport => self.ports(b)?.1 as u64,
            FieldRef::FlowHash(_) | FieldRef::Meta(_) => return None,
        })
    }

    /// Write `v` to header field `f` of `b`; a no-op if the field's header
    /// is absent or truncated (adversarial frames truncate mid-header, and
    /// a partial header is unwritable) or the field is read-only
    /// (`Ipv4Proto`, `FlowHash`).
    pub(crate) fn write(&self, b: &mut [u8], f: FieldRef, v: u64) {
        match f {
            FieldRef::NshSpi | FieldRef::NshSi if self.nsh_writable => {
                let mut h = nsh::Header::new_unchecked(&mut b[ETH..]);
                match f {
                    FieldRef::NshSpi => h.set_spi(v as u32 & 0x00ff_ffff),
                    _ => h.set_si(v as u8),
                }
            }
            FieldRef::EthSrc | FieldRef::EthDst | FieldRef::EtherType if self.eth => {
                let mut eth = ethernet::Frame::new_unchecked(&mut b[self.inner()..]);
                match f {
                    FieldRef::EthSrc => eth.set_src(u64_to_mac(v)),
                    FieldRef::EthDst => eth.set_dst(u64_to_mac(v)),
                    _ => eth.set_ethertype(EtherType::from((v & 0xffff) as u16)),
                }
            }
            FieldRef::VlanVid if self.vlan => {
                vlan::Tag::new_unchecked(&mut b[self.inner() + ETH..]).set_vid((v & 0x0fff) as u16);
            }
            FieldRef::Ipv4Src | FieldRef::Ipv4Dst | FieldRef::Ipv4Ttl => {
                let Some(l3) = self.l3 else { return };
                let mut ip = ipv4::Packet::new_unchecked(&mut b[l3..]);
                match f {
                    FieldRef::Ipv4Src => ip.set_src(ipv4::Address::from_u32(v as u32)),
                    FieldRef::Ipv4Dst => ip.set_dst(ipv4::Address::from_u32(v as u32)),
                    _ => ip.set_ttl(v as u8),
                }
                ip.fill_checksum();
            }
            FieldRef::L4Sport | FieldRef::L4Dport => {
                let Some(l4) = self.l4 else { return };
                let at = l4 + if f == FieldRef::L4Sport { 0 } else { 2 };
                b[at..at + 2].copy_from_slice(&(v as u16).to_be_bytes());
            }
            _ => {}
        }
    }

    /// UDP and TCP both lead with source and destination port.
    fn ports(&self, b: &[u8]) -> Option<(u16, u16)> {
        let p = &b[self.l4?..];
        Some((
            u16::from_be_bytes([p[0], p[1]]),
            u16::from_be_bytes([p[2], p[3]]),
        ))
    }

    /// The unsalted symmetric flow hash, if the 5-tuple parses.
    pub(crate) fn flow_hash(&self, b: &[u8]) -> Option<u64> {
        if !self.tuple {
            return None;
        }
        let ip = ipv4::Packet::new_unchecked(&b[self.l3?..]);
        let (src_port, dst_port) = self.ports(b)?;
        let tuple = FiveTuple {
            src_ip: ip.src(),
            dst_ip: ip.dst(),
            src_port,
            dst_port,
            protocol: ip.protocol().into(),
        };
        Some(tuple.symmetric_hash())
    }
}

fn mac_to_u64(a: ethernet::Address) -> u64 {
    let mut v = 0u64;
    for b in a.0 {
        v = (v << 8) | b as u64;
    }
    v
}

fn u64_to_mac(v: u64) -> ethernet::Address {
    let b = v.to_be_bytes();
    ethernet::Address([b[2], b[3], b[4], b[5], b[6], b[7]])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_u64_roundtrip() {
        let a = ethernet::Address([1, 2, 3, 4, 5, 6]);
        assert_eq!(u64_to_mac(mac_to_u64(a)), a);
    }
}
