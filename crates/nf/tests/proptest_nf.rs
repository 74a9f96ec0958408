//! Property-based tests for NF data structures and invariants.

use lemur_nf::crypto::{cbc_decrypt, cbc_encrypt, Aes128, ChaCha20};
use lemur_nf::fwd::LpmTrie;
use lemur_nf::urlfilter::AhoCorasick;
use lemur_packet::ipv4::{Address, Cidr};
use proptest::prelude::*;

fn arb_cidr() -> impl Strategy<Value = Cidr> {
    (any::<u32>(), 0u8..=32)
        .prop_map(|(addr, len)| Cidr::new(Address::from_u32(addr), len).unwrap())
}

proptest! {
    /// The LPM trie agrees with a brute-force longest-prefix scan for any
    /// route table and query address.
    #[test]
    fn lpm_matches_linear_scan(
        routes in prop::collection::vec((arb_cidr(), any::<u32>()), 0..40),
        queries in prop::collection::vec(any::<u32>(), 0..40),
    ) {
        let mut trie = LpmTrie::new();
        for (prefix, value) in &routes {
            trie.insert(*prefix, *value);
        }
        for q in queries {
            let addr = Address::from_u32(q);
            // Brute force: longest matching prefix, later insertion wins
            // ties (the trie replaces on re-insert of the same prefix).
            let expect = routes
                .iter()
                .enumerate()
                .filter(|(_, (p, _))| p.contains(addr))
                .max_by_key(|(i, (p, _))| (p.prefix_len(), *i))
                .map(|(_, (_, v))| *v);
            prop_assert_eq!(trie.lookup(addr).copied(), expect);
        }
    }

    /// AES-CBC decrypt(encrypt(x)) == x for any key, IV, and plaintext.
    #[test]
    fn aes_cbc_roundtrip(
        key: [u8; 16],
        iv: [u8; 16],
        data in prop::collection::vec(any::<u8>(), 0..400),
    ) {
        let aes = Aes128::new(&key);
        let ct = cbc_encrypt(&aes, &iv, &data);
        prop_assert_eq!(ct.len() % 16, 0);
        prop_assert!(ct.len() > data.len());
        let pt = cbc_decrypt(&aes, &iv, &ct).expect("valid padding");
        prop_assert_eq!(pt, data);
    }

    /// ChaCha20 double application is the identity, through both
    /// constructors (the AVX2 body where `new` detects it, and the scalar
    /// one), and both encipher to the same bytes.
    #[test]
    fn chacha_involutive(
        key: [u8; 32],
        nonce: [u8; 12],
        counter: u32,
        data in prop::collection::vec(any::<u8>(), 1..1600),
    ) {
        let mut ciphertexts = Vec::new();
        for cipher in [ChaCha20::new(&key, &nonce), ChaCha20::scalar_only(&key, &nonce)] {
            let mut buf = data.clone();
            cipher.apply(counter, &mut buf);
            ciphertexts.push(buf.clone());
            cipher.apply(counter, &mut buf);
            prop_assert_eq!(buf, data.clone(), "wide {}", cipher.is_wide());
        }
        prop_assert_eq!(&ciphertexts[0], &ciphertexts[1]);
    }

    /// Aho–Corasick agrees with naive substring search for arbitrary
    /// patterns and haystacks.
    #[test]
    fn aho_corasick_matches_naive(
        patterns in prop::collection::vec(
            prop::collection::vec(any::<u8>(), 1..6), 1..6),
        haystack in prop::collection::vec(any::<u8>(), 0..120),
    ) {
        let ac = AhoCorasick::new(&patterns);
        let naive = patterns.iter().any(|p| {
            !p.is_empty() && haystack.windows(p.len()).any(|w| w == &p[..])
        });
        prop_assert_eq!(ac.any_match(&haystack), naive);
    }

    /// Content-defined chunk boundaries are strictly increasing, cover the
    /// payload, and respect the minimum chunk size.
    #[test]
    fn dedup_boundaries_well_formed(data in prop::collection::vec(any::<u8>(), 0..2000)) {
        let bounds = lemur_nf::dedup::chunk_boundaries(&data);
        prop_assert_eq!(*bounds.last().unwrap(), data.len());
        let mut prev = 0usize;
        for (i, b) in bounds.iter().enumerate() {
            if i + 1 < bounds.len() {
                // Interior boundaries respect the minimum chunk size.
                prop_assert!(*b >= prev + 32, "chunk too small: {prev}..{b}");
            }
            prop_assert!(*b >= prev);
            prev = *b;
        }
    }
}
