//! UrlFilter NF: HTML/URL keyword filtering over packet payloads (Table 3).
//!
//! Implements multi-pattern search with a from-scratch Aho–Corasick
//! automaton, which is also what gives the NF its high cycle cost in the
//! profiles (payload scanning touches every byte).

use crate::{NetworkFunction, NfCtx, NfKind, NfParams, ParamValue, Verdict};
use lemur_packet::ethernet::{self, EtherType};
use lemur_packet::ipv4::Protocol;
use lemur_packet::{ipv4, tcp, udp, vlan, PacketBuf};
use std::collections::VecDeque;

/// A case-sensitive multi-pattern matcher (Aho–Corasick).
#[derive(Debug, Clone)]
pub struct AhoCorasick {
    /// goto function: node → (byte → node), dense 256-wide rows.
    goto_fn: Vec<[u32; 256]>,
    /// True if any pattern ends at this node (directly or via suffix links).
    terminal: Vec<bool>,
    num_patterns: usize,
}

impl AhoCorasick {
    /// Build the automaton from patterns (empty patterns are ignored).
    pub fn new<P: AsRef<[u8]>>(patterns: &[P]) -> AhoCorasick {
        const NONE: u32 = u32::MAX;
        // Phase 1: trie.
        let mut children: Vec<[u32; 256]> = vec![[NONE; 256]];
        let mut terminal = vec![false];
        let mut count = 0usize;
        for pat in patterns {
            let bytes = pat.as_ref();
            if bytes.is_empty() {
                continue;
            }
            count += 1;
            let mut node = 0u32;
            for &b in bytes {
                let next = children[node as usize][b as usize];
                node = if next == NONE {
                    children.push([NONE; 256]);
                    terminal.push(false);
                    let id = (children.len() - 1) as u32;
                    children[node as usize][b as usize] = id;
                    id
                } else {
                    next
                };
            }
            terminal[node as usize] = true;
        }
        // Phase 2: BFS to compute failure links and complete the goto
        // function into a DFA (each missing edge points where the failure
        // chain would land).
        let n = children.len();
        let mut fail = vec![0u32; n];
        let mut queue = VecDeque::new();
        for slot in children[0].iter_mut() {
            let c = *slot;
            if c == NONE {
                *slot = 0;
            } else {
                fail[c as usize] = 0;
                queue.push_back(c);
            }
        }
        while let Some(node) = queue.pop_front() {
            let f = fail[node as usize] as usize;
            if terminal[f] {
                terminal[node as usize] = true;
            }
            let frow = children[f];
            for (b, slot) in children[node as usize].iter_mut().enumerate() {
                let c = *slot;
                if c == NONE {
                    *slot = frow[b];
                } else {
                    fail[c as usize] = frow[b];
                    queue.push_back(c);
                }
            }
        }
        AhoCorasick {
            goto_fn: children,
            terminal,
            num_patterns: count,
        }
    }

    /// True if any pattern occurs in `haystack`.
    ///
    /// Walking the DFA costs one load per byte that depends on the load
    /// before it. Most payload bytes start no pattern, and in the root
    /// state such a byte changes nothing (the root is never terminal), so
    /// while in the root the scan looks only for the next byte that
    /// leaves it — independent loads from one row, see [`first_start`] —
    /// and walks the DFA from there until it falls back to the root.
    pub fn any_match(&self, haystack: &[u8]) -> bool {
        let root = &self.goto_fn[0];
        let mut rest = haystack;
        while let Some(start) = first_start(root, rest) {
            let mut node = 0u32;
            let mut walked = start;
            for &b in &rest[start..] {
                node = self.goto_fn[node as usize][b as usize];
                walked += 1;
                if self.terminal[node as usize] {
                    return true;
                }
                if node == 0 {
                    break;
                }
            }
            rest = &rest[walked..];
        }
        false
    }

    /// The plain one-state-per-byte walk [`AhoCorasick::any_match`]
    /// replaced, kept as the reference the tests compare it to.
    #[cfg(test)]
    fn any_match_reference(&self, haystack: &[u8]) -> bool {
        let mut node = 0u32;
        for &b in haystack {
            node = self.goto_fn[node as usize][b as usize];
            if self.terminal[node as usize] {
                return true;
            }
        }
        false
    }

    /// Number of patterns compiled in.
    pub fn num_patterns(&self) -> usize {
        self.num_patterns
    }
}

/// Index of the first byte of `hay` that leaves the root state (`root` is
/// the root's goto row; `0` = stays). Eight bytes are tested per branch —
/// their row entries OR-ed together, so the loads overlap instead of each
/// waiting on a compare — and only the group that has one is searched.
fn first_start(root: &[u32; 256], hay: &[u8]) -> Option<usize> {
    let mut clear = 0;
    for group in hay.chunks_exact(8) {
        if group.iter().fold(0, |any, &b| any | root[b as usize]) != 0 {
            break;
        }
        clear += 8;
    }
    hay[clear..]
        .iter()
        .position(|&b| root[b as usize] != 0)
        .map(|i| clear + i)
}

/// The UrlFilter NF: drops packets whose L4 payload contains any blocked
/// keyword. Packets without an L4 payload pass through.
pub struct UrlFilter {
    matcher: AhoCorasick,
    patterns: Vec<Vec<u8>>,
    scanned: u64,
    blocked: u64,
}

impl UrlFilter {
    /// Create from blocked keywords.
    pub fn new<P: AsRef<[u8]>>(patterns: &[P]) -> UrlFilter {
        UrlFilter {
            matcher: AhoCorasick::new(patterns),
            patterns: patterns.iter().map(|p| p.as_ref().to_vec()).collect(),
            scanned: 0,
            blocked: 0,
        }
    }

    /// Build from spec parameters: `blocked=['evil.example', ...]`
    /// (defaults to a small canonical blocklist).
    pub fn from_params(params: &NfParams) -> UrlFilter {
        let mut patterns: Vec<Vec<u8>> = Vec::new();
        if let Some(list) = params.get("blocked").and_then(ParamValue::as_list) {
            for item in list {
                if let Some(s) = item.as_str() {
                    patterns.push(s.as_bytes().to_vec());
                }
            }
        }
        if patterns.is_empty() {
            patterns = ["malware.example", "phish.example", "blocked.example"]
                .iter()
                .map(|s| s.as_bytes().to_vec())
                .collect();
        }
        UrlFilter::new(&patterns)
    }

    /// Packets dropped by the filter so far.
    pub fn blocked(&self) -> u64 {
        self.blocked
    }

    fn payload_range(frame: &[u8]) -> Option<std::ops::Range<usize>> {
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
        let start = match ip.protocol() {
            Protocol::Udp => l4 + udp::HEADER_LEN,
            Protocol::Tcp => {
                let t = tcp::Packet::new_checked(&frame[l4..]).ok()?;
                l4 + t.header_len() as usize
            }
            _ => return None,
        };
        (start <= frame.len()).then_some(start..frame.len())
    }
}

impl NetworkFunction for UrlFilter {
    fn kind(&self) -> NfKind {
        NfKind::UrlFilter
    }

    fn process(&mut self, _ctx: &NfCtx, pkt: &mut PacketBuf) -> Verdict {
        let Some(range) = Self::payload_range(pkt.as_slice()) else {
            return Verdict::Forward; // nothing scannable
        };
        self.scanned += 1;
        if self.matcher.any_match(&pkt.as_slice()[range]) {
            self.blocked += 1;
            Verdict::Drop
        } else {
            Verdict::Forward
        }
    }

    fn clone_fresh(&self) -> Box<dyn NetworkFunction> {
        Box::new(UrlFilter::new(&self.patterns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lemur_packet::builder::{tcp_packet, udp_packet};
    use proptest::prelude::*;

    fn http(payload: &[u8]) -> PacketBuf {
        tcp_packet(
            ethernet::Address([2, 0, 0, 0, 0, 1]),
            ethernet::Address([2, 0, 0, 0, 0, 2]),
            ipv4::Address::new(10, 0, 0, 1),
            ipv4::Address::new(93, 184, 216, 34),
            40000,
            80,
            tcp::Flags::PSH,
            payload,
        )
    }

    #[test]
    fn aho_corasick_basics() {
        let ac = AhoCorasick::new(&["he", "she", "his", "hers"]);
        assert!(ac.any_match(b"ushers"));
        assert!(ac.any_match(b"his story"));
        assert!(ac.any_match(b"hi there")); // "he" inside "there"
        assert!(!ac.any_match(b"ham and eggs"));
        assert!(!ac.any_match(b""));
        assert_eq!(ac.num_patterns(), 4);
    }

    #[test]
    fn aho_corasick_overlapping_suffixes() {
        // Pattern that is a suffix of another must still fire via the
        // failure chain.
        let ac = AhoCorasick::new(&["abcd", "bc"]);
        assert!(ac.any_match(b"xxbcxx"));
        assert!(ac.any_match(b"xabcdx"));
        let ac2 = AhoCorasick::new(&["aaa"]);
        assert!(ac2.any_match(b"aaaa"));
        assert!(!ac2.any_match(b"aabaab"));
    }

    #[test]
    fn aho_corasick_matches_naive_search() {
        let patterns = [b"lem".as_slice(), b"urf".as_slice(), b"xyz".as_slice()];
        let ac = AhoCorasick::new(&patterns);
        let texts: [&[u8]; 5] = [
            b"lemur filter",
            b"surf",
            b"surfing lemurs",
            b"nothing here",
            b"xy z",
        ];
        for text in texts {
            let expect = patterns
                .iter()
                .any(|p| text.windows(p.len()).any(|w| w == *p));
            assert_eq!(ac.any_match(text), expect, "text {:?}", text);
        }
    }

    /// Bytes drawn from a small alphabet, so random haystacks actually
    /// contain random patterns.
    fn letters(
        alphabet: &'static [u8],
        len: std::ops::Range<usize>,
    ) -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec((0..alphabet.len()).prop_map(|i| alphabet[i]), len)
    }

    proptest! {
        #![cases = 4000]

        /// The root-skipping scan and the plain DFA walk agree — over
        /// pattern sets with shared prefixes, a pattern that is a suffix
        /// of another, single-byte patterns and random ones, against
        /// text-like, random and constant-fill haystacks (the payload
        /// shapes the traffic generators emit), the empty one included.
        #[test]
        fn root_skip_scan_matches_plain_walk(
            (set, random_set) in (0usize..6, prop::collection::vec(letters(b"abcm.", 1..6), 1..6)),
            (shape, text) in (0usize..4, letters(b"abcdm.e xyz/", 0..200)),
            random in prop::collection::vec(any::<u8>(), 0..200),
            (fill, fill_letter, fill_len) in (any::<u8>(), 0usize..5, 0usize..200),
            plant: bool,
        ) {
            let patterns: Vec<Vec<u8>> = match set {
                0 => vec![b"abc".to_vec(), b"abd".to_vec(), b"ab".to_vec()],
                1 => vec![b"abcd".to_vec(), b"bc".to_vec(), b"d".to_vec()],
                2 => vec![b"m".to_vec()],
                3 => vec![
                    b"malware.example".to_vec(),
                    b"phish.example".to_vec(),
                    b"blocked.example".to_vec(),
                ],
                _ => random_set,
            };
            let hay = match shape {
                0 => text,
                1 => random,
                2 => vec![fill; fill_len],
                _ => vec![b"abcm."[fill_letter]; fill_len],
            };
            let ac = AhoCorasick::new(&patterns);
            prop_assert_eq!(ac.any_match(&hay), ac.any_match_reference(&hay));
            // A pattern's first byte as the haystack's last byte: the DFA
            // walk starts on the final iteration.
            let mut tail = hay.clone();
            tail.push(patterns[0][0]);
            prop_assert_eq!(ac.any_match(&tail), ac.any_match_reference(&tail));
            // And a haystack that certainly contains a match, at its end.
            if plant {
                let mut planted = hay;
                planted.extend_from_slice(&patterns[patterns.len() - 1]);
                prop_assert!(ac.any_match_reference(&planted));
                prop_assert!(ac.any_match(&planted));
            }
        }
    }

    #[test]
    fn blocks_bad_urls() {
        let mut f = UrlFilter::from_params(&NfParams::new());
        let ctx = NfCtx::default();
        let mut bad = http(b"GET http://malware.example/payload HTTP/1.1");
        let mut good = http(b"GET http://example.com/ HTTP/1.1");
        assert_eq!(f.process(&ctx, &mut bad), Verdict::Drop);
        assert_eq!(f.process(&ctx, &mut good), Verdict::Forward);
        assert_eq!(f.blocked(), 1);
    }

    #[test]
    fn custom_blocklist() {
        let mut params = NfParams::new();
        params.set(
            "blocked",
            ParamValue::List(vec![ParamValue::Str("forbidden".into())]),
        );
        let mut f = UrlFilter::from_params(&params);
        let ctx = NfCtx::default();
        assert_eq!(
            f.process(&ctx, &mut http(b"this is forbidden text")),
            Verdict::Drop
        );
        assert_eq!(
            f.process(&ctx, &mut http(b"GET malware.example")),
            Verdict::Forward,
            "default blocklist must be replaced, not extended"
        );
    }

    #[test]
    fn udp_payload_scanned_too() {
        let mut f = UrlFilter::new(&["secret"]);
        let ctx = NfCtx::default();
        let mut p = udp_packet(
            ethernet::Address([2, 0, 0, 0, 0, 1]),
            ethernet::Address([2, 0, 0, 0, 0, 2]),
            ipv4::Address::new(1, 1, 1, 1),
            ipv4::Address::new(2, 2, 2, 2),
            1,
            2,
            b"the secret word",
        );
        assert_eq!(f.process(&ctx, &mut p), Verdict::Drop);
    }

    #[test]
    fn non_ip_passes() {
        let mut f = UrlFilter::new(&["x"]);
        let ctx = NfCtx::default();
        let mut garbage = PacketBuf::from_bytes(&[0u8; 30]);
        assert_eq!(f.process(&ctx, &mut garbage), Verdict::Forward);
    }

    #[test]
    fn pattern_split_across_scan_is_found_within_packet() {
        let mut f = UrlFilter::new(&["needle"]);
        let ctx = NfCtx::default();
        let mut hay = Vec::new();
        hay.extend_from_slice(&[b'n'; 100]);
        hay.extend_from_slice(b"needle");
        hay.extend_from_slice(&[b'e'; 100]);
        assert_eq!(f.process(&ctx, &mut http(&hay)), Verdict::Drop);
    }
}
