//! # lemur-packet
//!
//! Wire formats and packet buffers for the Lemur NFV reproduction.
//!
//! This crate provides the packet-level substrate that every other Lemur
//! component builds on: Ethernet II, 802.1Q VLAN, IPv4, UDP, TCP, and the
//! Network Service Header (NSH, RFC 8300) that Lemur's meta-compiler uses to
//! stitch NF chains across platforms.
//!
//! The design follows the smoltcp idiom: each protocol exposes a thin
//! `Packet<T: AsRef<[u8]>>` view over a byte buffer with checked constructors
//! (`new_checked`) and explicit field offsets. Views never allocate; owned
//! packets live in [`PacketBuf`].
//!
//! ```
//! use lemur_packet::{ethernet, ipv4, udp};
//!
//! // Build a UDP/IPv4/Ethernet packet and parse it back.
//! let payload = b"hello lemur";
//! let pkt = lemur_packet::builder::udp_packet(
//!     ethernet::Address([2, 0, 0, 0, 0, 1]),
//!     ethernet::Address([2, 0, 0, 0, 0, 2]),
//!     ipv4::Address::new(10, 0, 0, 1),
//!     ipv4::Address::new(10, 0, 0, 2),
//!     5000,
//!     53,
//!     payload,
//! );
//! let eth = ethernet::Frame::new_checked(pkt.as_slice()).unwrap();
//! assert_eq!(eth.ethertype(), ethernet::EtherType::Ipv4);
//! let ip = ipv4::Packet::new_checked(eth.payload()).unwrap();
//! assert!(ip.verify_checksum());
//! let u = udp::Packet::new_checked(ip.payload()).unwrap();
//! assert_eq!(u.payload(), payload);
//! ```

pub mod batch;
pub mod builder;
pub mod checksum;
pub mod digest;
pub mod error;
pub mod ethernet;
pub mod flow;
pub mod ipv4;
pub mod nsh;
pub mod tcp;
pub mod udp;
pub mod vlan;

pub use batch::PacketBuf;
pub use error::{Error, Result};
pub use flow::{FiveTuple, TrafficAggregate};
