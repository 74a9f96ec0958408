//! Property-based tests for the switch runtime's execution plan: the
//! cached header view against a from-scratch reference reader across
//! restructure-heavy action sequences on arbitrary (nested, truncated)
//! frames; entry order under run-time installs; wrong-arity entries; and
//! tree-order vs stage-order execution.

use lemur_p4sim::compiler::CompileOptions;
use lemur_p4sim::{
    Action, CmpOp, Control, FieldRef, MatchKind, MatchValue, P4Program, PisaModel, Primitive,
    Switch, Table, TableEntry, TableId,
};
use lemur_packet::builder::{nsh_encap, tcp_packet, udp_packet, vlan_push};
use lemur_packet::ethernet::{self, EtherType};
use lemur_packet::flow::{salted_hash, FiveTuple};
use lemur_packet::ipv4::{self, Protocol};
use lemur_packet::{nsh, tcp, udp, vlan, PacketBuf};
use proptest::prelude::*;

fn roomy() -> PisaModel {
    PisaModel {
        num_stages: 255,
        ..PisaModel::default()
    }
}

fn keyless(p: &mut P4Program, name: &str, prims: Vec<Primitive>) -> TableId {
    p.add_table(Table {
        name: name.into(),
        keys: vec![],
        actions: vec![Action::new("act", prims)],
        default_action: Some(0),
        size: 1,
    })
}

fn entry(keys: Vec<MatchValue>, action_data: Vec<u64>, priority: u32) -> TableEntry {
    TableEntry {
        keys,
        action: 0,
        action_data,
        priority,
    }
}

// ---------------------------------------------------------------- frames

/// A frame from selector words: UDP or TCP, optionally VLAN-tagged,
/// NSH-encapsulated and tagged again outside, then cut at any length.
fn frame(shape: u8, ports: (u16, u16), cut: u16) -> Vec<u8> {
    let (src, dst) = (
        ethernet::Address([2, 0, 0, 0, 0, 1]),
        ethernet::Address([2, 0, 0, 0, 0, 2]),
    );
    let (a, b) = (
        ipv4::Address::new(10, 1, 2, 3),
        ipv4::Address::new(10, 9, 8, 7),
    );
    let mut pkt = if shape & 1 == 0 {
        udp_packet(src, dst, a, b, ports.0, ports.1, b"payload!")
    } else {
        tcp_packet(
            src,
            dst,
            a,
            b,
            ports.0,
            ports.1,
            tcp::Flags::ACK,
            b"payload!",
        )
    };
    if shape & 2 != 0 {
        vlan_push(&mut pkt, 0x123);
    }
    if shape & 4 != 0 {
        nsh_encap(&mut pkt, 77, if shape & 8 != 0 { 0 } else { 200 });
    }
    if shape & 16 != 0 {
        // A tag outside the service header: the outer EtherType is VLAN,
        // so the frame is no longer NSH-encapsulated to the switch.
        vlan_push(&mut pkt, 0x456);
    }
    let mut bytes = pkt.as_slice().to_vec();
    if shape & 32 != 0 {
        bytes.truncate(cut as usize % (bytes.len() + 1));
    }
    bytes
}

// ------------------------------------------------------- reference reader

/// Field semantics written from scratch on `lemur_packet`'s checked wire
/// views, re-deriving every offset from byte 0 on every read — what the
/// runtime's cached view must agree with. An unreadable field reads 0.
fn reference_read(whole: &[u8], f: FieldRef) -> u64 {
    fn inner_offset(frame: &[u8]) -> usize {
        if let Ok(eth) = ethernet::Frame::new_checked(frame) {
            if eth.ethertype() == EtherType::Nsh && nsh::Header::new_checked(eth.payload()).is_ok()
            {
                return ethernet::HEADER_LEN + nsh::HEADER_LEN;
            }
        }
        0
    }
    fn l3_offset(frame: &[u8]) -> Option<usize> {
        let eth = ethernet::Frame::new_checked(frame).ok()?;
        match eth.ethertype() {
            EtherType::Ipv4 => Some(ethernet::HEADER_LEN),
            EtherType::Vlan => {
                let tag = vlan::Tag::new_checked(eth.payload()).ok()?;
                (tag.inner_ethertype() == EtherType::Ipv4)
                    .then_some(ethernet::HEADER_LEN + vlan::TAG_LEN)
            }
            _ => None,
        }
    }
    fn mac(a: ethernet::Address) -> u64 {
        a.0.iter().fold(0, |v, b| (v << 8) | *b as u64)
    }
    let read = || -> Option<u64> {
        if matches!(f, FieldRef::NshSpi | FieldRef::NshSi) {
            let eth = ethernet::Frame::new_checked(whole).ok()?;
            if eth.ethertype() != EtherType::Nsh {
                return None;
            }
            let h = nsh::Header::new_checked(eth.payload()).ok()?;
            return Some(if f == FieldRef::NshSpi {
                h.spi() as u64
            } else {
                h.si() as u64
            });
        }
        let frame = &whole[inner_offset(whole)..];
        match f {
            FieldRef::EthSrc => Some(mac(ethernet::Frame::new_checked(frame).ok()?.src())),
            FieldRef::EthDst => Some(mac(ethernet::Frame::new_checked(frame).ok()?.dst())),
            FieldRef::EtherType => {
                let eth = ethernet::Frame::new_checked(frame).ok()?;
                Some(u16::from(eth.ethertype()) as u64)
            }
            FieldRef::VlanVid => {
                let eth = ethernet::Frame::new_checked(frame).ok()?;
                if eth.ethertype() != EtherType::Vlan {
                    return None;
                }
                Some(vlan::Tag::new_checked(eth.payload()).ok()?.vid() as u64)
            }
            FieldRef::FlowHash(salt) => FiveTuple::parse(frame)
                .ok()
                .map(|t| salted_hash(t.symmetric_hash(), salt)),
            FieldRef::Ipv4Src | FieldRef::Ipv4Dst | FieldRef::Ipv4Proto | FieldRef::Ipv4Ttl => {
                let ip = ipv4::Packet::new_checked(&frame[l3_offset(frame)?..]).ok()?;
                Some(match f {
                    FieldRef::Ipv4Src => ip.src().to_u32() as u64,
                    FieldRef::Ipv4Dst => ip.dst().to_u32() as u64,
                    FieldRef::Ipv4Proto => u8::from(ip.protocol()) as u64,
                    _ => ip.ttl() as u64,
                })
            }
            FieldRef::L4Sport | FieldRef::L4Dport => {
                let l3 = l3_offset(frame)?;
                let ip = ipv4::Packet::new_checked(&frame[l3..]).ok()?;
                let l4 = &frame[l3 + ip.header_len() as usize..];
                let (s, d) = match ip.protocol() {
                    Protocol::Udp => {
                        let u = udp::Packet::new_checked(l4).ok()?;
                        (u.src_port(), u.dst_port())
                    }
                    Protocol::Tcp => {
                        let t = tcp::Packet::new_checked(l4).ok()?;
                        (t.src_port(), t.dst_port())
                    }
                    _ => return None,
                };
                Some(if f == FieldRef::L4Sport { s } else { d } as u64)
            }
            FieldRef::NshSpi | FieldRef::NshSi | FieldRef::Meta(_) => None,
        }
    };
    read().unwrap_or(0)
}

// --------------------------------------------- restructure-heavy sequences

/// Scratch register the sequences write and the probes read.
const SCRATCH: FieldRef = FieldRef::Meta(5);

const PROBED: [FieldRef; 15] = [
    FieldRef::EthSrc,
    FieldRef::EthDst,
    FieldRef::EtherType,
    FieldRef::VlanVid,
    FieldRef::Ipv4Src,
    FieldRef::Ipv4Dst,
    FieldRef::Ipv4Proto,
    FieldRef::Ipv4Ttl,
    FieldRef::L4Sport,
    FieldRef::L4Dport,
    FieldRef::NshSpi,
    FieldRef::NshSi,
    FieldRef::FlowHash(0),
    FieldRef::FlowHash(3),
    SCRATCH,
];

/// One action step as `(primitive, action data)`.
fn step(sel: u8, v: u64) -> (Primitive, Vec<u64>) {
    const WRITABLE: [FieldRef; 12] = [
        FieldRef::Ipv4Src,
        FieldRef::Ipv4Dst,
        FieldRef::L4Sport,
        FieldRef::L4Dport,
        FieldRef::Ipv4Ttl,
        FieldRef::EthSrc,
        FieldRef::EthDst,
        FieldRef::VlanVid,
        FieldRef::NshSpi,
        FieldRef::NshSi,
        FieldRef::EtherType,
        SCRATCH,
    ];
    const ETHERTYPES: [u64; 4] = [0x0800, 0x8100, 0x894f, 0x0806];
    match sel % 20 {
        0 | 1 => (Primitive::PushVlanFromData(0), vec![v]),
        2 | 3 => (Primitive::PopVlan, vec![]),
        4 | 5 => (Primitive::PushNshFromData(0), vec![v, v >> 8]),
        6 | 7 => (Primitive::PopNsh, vec![]),
        8 => (Primitive::DecNshSi, vec![]),
        n => {
            let f = WRITABLE[(n - 9) as usize % WRITABLE.len()];
            let v = if f == FieldRef::EtherType {
                ETHERTYPES[v as usize % 4]
            } else {
                v
            };
            (Primitive::SetFieldFromData(f, 0), vec![v])
        }
    }
}

/// Run `prim` alone, as a visit of its own — so on a freshly parsed view.
/// `None` if it dropped the packet.
fn alone(prim: Primitive, data: &[u64], bytes: &[u8]) -> Option<Vec<u8>> {
    let mut p = P4Program::new();
    let t = keyless(&mut p, "alone", vec![prim]);
    p.control = Some(Control::Apply(t));
    let mut sw = Switch::new(p, roomy()).unwrap();
    sw.add_entry(t, entry(vec![], data.to_vec(), 1));
    let mut pkt = PacketBuf::from_bytes(bytes);
    (!sw.process(&mut pkt).dropped).then(|| pkt.as_slice().to_vec())
}

proptest! {
    /// All steps in ONE visit, every field probed before, between and
    /// after them, must see exactly what a reference reader sees on the
    /// bytes the same steps produce one visit at a time.
    #[test]
    fn reads_through_the_cached_view_match_a_fresh_parse(
        shape: u8,
        ports in (1u16..1024, 1u16..1024),
        cut: u16,
        steps in prop::collection::vec((any::<u8>(), 0u64..70_000), 1..6),
    ) {
        let start = frame(shape, ports, cut);
        // The packet after each step, one fresh-view visit per step; the
        // sequence ends early at a step that drops.
        let mut states = vec![start.clone()];
        let mut taken = Vec::new();
        for (sel, v) in &steps {
            let (prim, data) = step(*sel, *v);
            let Some(next) = alone(prim, &data, states.last().unwrap()) else { break };
            states.push(next);
            taken.push((prim, data));
        }
        // probes(0), step 0, probes(1), step 1, ..., probes(n).
        let mut p = P4Program::new();
        let mut control = Vec::new();
        let mut installs = Vec::new();
        let mut probes = Vec::new();
        let mut scratch = 0;
        for (i, bytes) in states.iter().enumerate() {
            for f in PROBED {
                let t = p.add_table(Table {
                    name: format!("probe{i}_{f}"),
                    keys: vec![(f, MatchKind::Exact)],
                    actions: vec![Action::new("seen", vec![Primitive::NoOp])],
                    default_action: None,
                    size: 1,
                });
                let want = if f == SCRATCH { scratch } else { reference_read(bytes, f) };
                installs.push((t, entry(vec![MatchValue::Exact(want)], vec![], 1)));
                control.push(Control::Apply(t));
                probes.push((t, f, want));
            }
            if let Some((prim, data)) = taken.get(i) {
                let t = keyless(&mut p, &format!("step{i}"), vec![*prim]);
                installs.push((t, entry(vec![], data.clone(), 1)));
                control.push(Control::Apply(t));
                if *prim == Primitive::SetFieldFromData(SCRATCH, 0) {
                    scratch = data[0];
                }
            }
        }
        p.control = Some(Control::Seq(control));
        let mut sw = Switch::new_naive(p, roomy()).unwrap();
        for (t, e) in installs {
            sw.add_entry(t, e);
        }
        let mut pkt = PacketBuf::from_bytes(&start);
        prop_assert!(!sw.process(&mut pkt).dropped);
        prop_assert_eq!(pkt.as_slice(), &states.last().unwrap()[..]);
        for (t, f, want) in probes {
            prop_assert!(
                sw.table_counters()[t.0].hits == 1,
                "table {} read {f} != {want:#x} after {taken:?} on {start:02x?}",
                t.0
            );
        }
    }

    /// Entries installed while packets flow keep "highest priority wins,
    /// ties to the first inserted" — checked against a plain model.
    #[test]
    fn runtime_installs_keep_priority_then_insertion_order(
        ops in prop::collection::vec((any::<bool>(), 0u32..4, 0u8..4), 1..40),
    ) {
        let mut p = P4Program::new();
        let t = p.add_table(Table {
            name: "t".into(),
            keys: vec![(FieldRef::L4Dport, MatchKind::Exact)],
            actions: vec![Action::new("out", vec![Primitive::SetEgressFromData(0)])],
            default_action: None,
            size: 64,
        });
        p.control = Some(Control::Apply(t));
        let mut sw = Switch::new(p, roomy()).unwrap();
        // (priority, key, id) in insertion order; key 0 is a wildcard.
        let mut model: Vec<(u32, u8, u16)> = Vec::new();
        for (install, priority, key) in ops {
            if install {
                let id = model.len() as u16;
                let m = if key == 0 { MatchValue::Any } else { MatchValue::Exact(key as u64) };
                sw.try_add_entry(t, entry(vec![m], vec![id as u64], priority)).unwrap();
                model.push((priority, key, id));
            } else {
                let mut best: Option<(u32, u16)> = None;
                for (pr, k, id) in &model {
                    if (*k == 0 || *k == key) && best.is_none_or(|(b, _)| *pr > b) {
                        best = Some((*pr, *id));
                    }
                }
                let mut pkt = PacketBuf::from_bytes(&frame(0, (9, key as u16), 0));
                prop_assert_eq!(sw.process(&mut pkt).egress_port, best.map(|(_, id)| id));
            }
        }
    }

    /// An entry whose key count differs from its table's never matches,
    /// however permissive its keys and however high its priority.
    #[test]
    fn wrong_arity_entries_never_hit(
        table_keys in 0usize..4,
        entry_keys in 0usize..6,
        right_one: bool,
    ) {
        let fields = [FieldRef::L4Dport, FieldRef::Ipv4Ttl, FieldRef::EtherType];
        let mut p = P4Program::new();
        let t = p.add_table(Table {
            name: "t".into(),
            keys: fields[..table_keys].iter().map(|f| (*f, MatchKind::Ternary)).collect(),
            actions: vec![Action::new("out", vec![Primitive::SetEgressFromData(0)])],
            default_action: None,
            size: 8,
        });
        p.control = Some(Control::Apply(t));
        let mut sw = Switch::new(p, roomy()).unwrap();
        // The trusted path installs without an arity check.
        sw.add_entry(t, entry(vec![MatchValue::Any; entry_keys], vec![7], 100));
        if right_one {
            sw.add_entry(t, entry(vec![MatchValue::Any; table_keys], vec![3], 1));
        }
        let mut pkt = PacketBuf::from_bytes(&frame(0, (1, 2), 0));
        let want = if entry_keys == table_keys {
            Some(7)
        } else if right_one {
            Some(3)
        } else {
            None
        };
        prop_assert_eq!(sw.process(&mut pkt).egress_port, want);
        prop_assert_eq!(sw.table_counters()[t.0].hits, want.is_some() as u64);
    }

    /// Tree order and stage order (packed and naive) agree on verdicts,
    /// bytes and per-table counters: a classifier picks a `Switch` arm and
    /// a level, `If`s gate on the level, and every `Exclusive` child runs
    /// its own guard (at most one passes — the contract that lets the
    /// compiler overlay the children on the same stages).
    #[test]
    fn tree_and_staged_execution_leave_identical_counters(
        bodies in prop::collection::vec((any::<u8>(), 0u64..5000), 3..9),
        packets in prop::collection::vec((any::<u8>(), (1u16..7, 78u16..82), any::<u16>()), 1..12),
    ) {
        let mut p = P4Program::new();
        let classify = p.add_table(Table {
            name: "classify".into(),
            keys: vec![(FieldRef::L4Sport, MatchKind::Exact)],
            actions: vec![Action::new(
                "class",
                vec![
                    Primitive::SetFieldFromData(FieldRef::Meta(0), 0),
                    Primitive::SetFieldFromData(FieldRef::Meta(1), 1),
                ],
            )],
            default_action: None,
            size: 8,
        });
        // Body tables never write a register a branch tests: stage order
        // re-evaluates each table's path condition when the table runs.
        let body: Vec<Control> = bodies
            .iter()
            .enumerate()
            .map(|(i, (sel, v))| {
                let prim = match sel % 8 {
                    0 => Primitive::Drop,
                    1 => Primitive::SetEgressConst(*v as u16 % 8),
                    2 => Primitive::SetFieldConst(FieldRef::Ipv4Src, *v),
                    3 => Primitive::SetFieldConst(FieldRef::L4Sport, *v),
                    4 => Primitive::PushVlanFromData(0),
                    5 => Primitive::PopVlan,
                    6 => Primitive::SetFieldConst(SCRATCH, *v),
                    _ => Primitive::DecNshSi,
                };
                let t = p.add_table(Table {
                    name: format!("body{i}"),
                    keys: vec![(FieldRef::L4Dport, MatchKind::Range)],
                    actions: vec![Action::new("act", vec![prim])],
                    default_action: (sel & 8 != 0).then_some(0),
                    size: 8,
                });
                Control::Apply(t)
            })
            .collect();
        let mut arms = body.chunks(2).map(|c| Control::Seq(c.to_vec()));
        let gated = |c: Control, op, value| Control::If {
            field: FieldRef::Meta(1),
            op,
            value,
            then_: Box::new(c),
        };
        let first = arms.next().unwrap();
        let second = arms.next().unwrap();
        p.control = Some(Control::Seq(vec![
            Control::Apply(classify),
            Control::Switch {
                on: FieldRef::Meta(0),
                cases: vec![(1, first), (2, gated(second, CmpOp::Ge, 62))],
                default: Some(Box::new(Control::Exclusive(
                    arms.enumerate().map(|(i, c)| gated(c, CmpOp::Eq, 63 + i as u64)).collect(),
                ))),
            },
        ]));
        let opts = CompileOptions { effect_deps: true, ..CompileOptions::default() };
        let mut tree = Switch::new_naive(p.clone(), roomy()).unwrap();
        let mut packed = Switch::new_with_options(p.clone(), roomy(), opts).unwrap();
        let mut naive = Switch::new_naive(p.clone(), roomy()).unwrap();
        for sw in [&mut tree, &mut packed, &mut naive] {
            for class in 1..=5u64 {
                let level = 60 + class;
                sw.add_entry(classify, entry(vec![MatchValue::Exact(class)], vec![class, level], 1));
            }
            for t in 1..p.num_tables() {
                sw.add_entry(TableId(t), entry(vec![MatchValue::Range { lo: 80, hi: 90 }], vec![9], 1));
            }
        }
        for (shape, ports, cut) in packets {
            let bytes = frame(shape, ports, cut);
            let (mut a, mut b, mut c) = (
                PacketBuf::from_bytes(&bytes),
                PacketBuf::from_bytes(&bytes),
                PacketBuf::from_bytes(&bytes),
            );
            let v = tree.process(&mut a);
            prop_assert_eq!(v, packed.process_staged(&mut b));
            prop_assert_eq!(v, naive.process_staged(&mut c));
            prop_assert_eq!(a.as_slice(), b.as_slice());
            prop_assert_eq!(a.as_slice(), c.as_slice());
        }
        prop_assert_eq!(tree.table_counters(), packed.table_counters());
        prop_assert_eq!(tree.table_counters(), naive.table_counters());
    }
}
