//! Criterion benches for the NF library — the per-packet processing cost
//! ladder behind Table 4 / the Placer's profiles. Each bench processes one
//! pre-built packet through one NF (matching the profiler's per-packet
//! accounting).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lemur_bess::profiler::{generate_traffic, TrafficPattern};
use lemur_nf::dedup::Dedup;
use lemur_nf::{build_nf, NetworkFunction, NfCtx, NfKind, NfParams, ParamValue};
use lemur_packet::PacketBuf;

fn bench_nfs(c: &mut Criterion) {
    let traffic = generate_traffic(TrafficPattern::LongLived, 256, 1024);
    let mut group = c.benchmark_group("nf_per_packet");
    group.throughput(Throughput::Elements(traffic.len() as u64));
    for kind in NfKind::ALL {
        let mut params = NfParams::new();
        if kind == NfKind::Acl {
            params.set("num_rules", ParamValue::Int(1024));
        }
        group.bench_with_input(BenchmarkId::from_parameter(kind.name()), &kind, |b, &k| {
            b.iter_batched(
                || (build_nf(k, &params), traffic.clone()),
                |(mut nf, mut batch)| {
                    let ctx = NfCtx { now_ns: 0 };
                    for pkt in batch.iter_mut() {
                        let _ = nf.process(&ctx, pkt);
                    }
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// Encrypt, Decrypt, FastEncrypt and Dedup — the NFs whose cost is per byte
/// — at the two frame sizes the performance ledger runs (64 B and 1500 B on
/// the wire). Decrypt is fed frames Encrypt produced, so it deciphers
/// rather than drops.
fn bench_per_byte_nfs(c: &mut Criterion) {
    let ctx = NfCtx { now_ns: 0 };
    let params = NfParams::new();
    let mut group = c.benchmark_group("nf_per_byte");
    for frame_len in [64usize, 1500] {
        let plain = generate_traffic(TrafficPattern::LongLived, 256, frame_len - 42);
        let mut encrypted = plain.clone();
        let mut enc = build_nf(NfKind::Encrypt, &params);
        for pkt in encrypted.iter_mut() {
            let _ = enc.process(&ctx, pkt);
        }
        group.throughput(Throughput::Elements(plain.len() as u64));
        for kind in [
            NfKind::Encrypt,
            NfKind::Decrypt,
            NfKind::FastEncrypt,
            NfKind::Dedup,
        ] {
            let traffic = if kind == NfKind::Decrypt {
                &encrypted
            } else {
                &plain
            };
            let id = BenchmarkId::new(kind.name(), format!("{frame_len}B"));
            group.bench_with_input(id, &kind, |b, &k| {
                b.iter_batched(
                    || (build_nf(k, &params), traffic.clone()),
                    |(mut nf, mut batch)| {
                        for pkt in batch.iter_mut() {
                            let _ = nf.process(&ctx, pkt);
                        }
                    },
                    criterion::BatchSize::SmallInput,
                );
            });
        }
    }
    group.finish();
}

fn bench_crypto(c: &mut Criterion) {
    use lemur_nf::crypto::{
        cbc_decrypt, cbc_decrypt_in_place, cbc_encrypt, cbc_encrypt_in_place, pkcs7_pad_len,
        Aes128, ChaCha20,
    };
    let data = vec![0xabu8; 1400];
    let iv = [0u8; 16];
    let aes = Aes128::new(b"0123456789abcdef");
    let chacha = ChaCha20::new(&[7u8; 32], &[1u8; 12]);
    let mut group = c.benchmark_group("crypto_1400B");
    group.throughput(Throughput::Bytes(1400));
    group.bench_function("aes128_cbc", |b| {
        b.iter(|| cbc_encrypt(&aes, &iv, &data));
    });
    let cipher = cbc_encrypt(&aes, &iv, &data);
    group.bench_function("aes128_cbc_decrypt", |b| {
        b.iter(|| cbc_decrypt(&aes, &iv, &cipher));
    });
    // Both AES bodies on one machine: the table body pinned, and the AES
    // instructions where `Aes128::new` finds them.
    let table = Aes128::table_only(b"0123456789abcdef");
    for (name, key) in [("native", &aes), ("table", &table)] {
        if name == "native" && !key.is_native() {
            continue;
        }
        // One padded buffer enciphered over and over: no allocation, no copy.
        let mut padded = data.clone();
        padded.resize(data.len() + pkcs7_pad_len(data.len()), 0);
        group.bench_function(BenchmarkId::new("aes128_cbc_in_place", name), |b| {
            b.iter(|| cbc_encrypt_in_place(key, &iv, &mut padded));
        });
        group.bench_function(BenchmarkId::new("aes128_cbc_decrypt_in_place", name), |b| {
            b.iter_batched(
                || cipher.clone(),
                |mut buf| cbc_decrypt_in_place(key, &iv, &mut buf),
                criterion::BatchSize::SmallInput,
            );
        });
    }
    // Both ChaCha bodies likewise: the scalar one pinned, and AVX2 where
    // `ChaCha20::new` finds it. The keystream is XORed into one buffer over
    // and over.
    let scalar = ChaCha20::scalar_only(&[7u8; 32], &[1u8; 12]);
    for (name, cipher) in [("wide", &chacha), ("scalar", &scalar)] {
        if name == "wide" && !cipher.is_wide() {
            continue;
        }
        let mut buf = data.clone();
        group.bench_function(BenchmarkId::new("chacha20", name), |b| {
            b.iter(|| cipher.apply(1, &mut buf));
        });
    }
    group.finish();
}

/// `n` packets whose 1400-byte payloads share no chunk with one another
/// (a splitmix-style byte stream numbered from `first`).
fn unique_payload_packets(first: u64, n: usize) -> Vec<PacketBuf> {
    let mut packets = generate_traffic(TrafficPattern::LongLived, n, 1400);
    for (i, pkt) in packets.iter_mut().enumerate() {
        let mut x = (first + i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for b in pkt.as_mut_slice()[42..].iter_mut() {
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9) ^ (x >> 27);
            *b = (x >> 56) as u8;
        }
    }
    packets
}

/// Dedup's encoder on payloads it has never seen (every chunk is a store
/// miss and an insert): into an empty store, and into one already at
/// capacity, where inserts also pay for eviction.
fn bench_dedup(c: &mut Criterion) {
    const BATCH: usize = 64;
    const STORE: usize = 4096;
    let ctx = NfCtx { now_ns: 0 };
    let mut group = c.benchmark_group("dedup_encode_1400B");
    group.throughput(Throughput::Bytes(1400 * BATCH as u64));
    group.bench_function("fresh_store", |b| {
        b.iter_batched(
            || (Dedup::new(1 << 20), unique_payload_packets(0, BATCH)),
            |(mut dedup, mut batch)| {
                for pkt in batch.iter_mut() {
                    let _ = dedup.process(&ctx, pkt);
                }
            },
            criterion::BatchSize::SmallInput,
        );
    });
    // A 1400-byte payload is a dozen chunks or more, so STORE / 8 packets
    // overfill the store and force the first evictions.
    let mut saturated = Dedup::new(STORE);
    let mut fed = 0u64;
    while fed < STORE as u64 / 8 {
        for pkt in unique_payload_packets(fed, BATCH).iter_mut() {
            let _ = saturated.process(&ctx, pkt);
        }
        fed += BATCH as u64;
    }
    assert!(saturated.store_size() >= STORE * 7 / 8);
    group.bench_function("saturated_store", |b| {
        b.iter_batched(
            || {
                fed += BATCH as u64;
                unique_payload_packets(fed, BATCH)
            },
            |mut batch| {
                for pkt in batch.iter_mut() {
                    let _ = saturated.process(&ctx, pkt);
                }
            },
            criterion::BatchSize::SmallInput,
        );
    });
    group.finish();
}

/// UrlFilter's multi-pattern scan over one MTU payload (1458 B) of each
/// shape the traffic generators emit: text that starts many patterns
/// without finishing one, random bytes, and one byte repeated (a
/// materialized flow's payload). None matches, so every byte is scanned.
fn bench_urlfilter_scan(c: &mut Criterion) {
    let matcher = lemur_nf::urlfilter::AhoCorasick::new(&[
        "malware.example",
        "phish.example",
        "blocked.example",
    ]);
    let text: Vec<u8> = b"The quick brown fox jumps over the lazy dog. "
        .iter()
        .copied()
        .cycle()
        .take(1458)
        .collect();
    let random = unique_payload_packets(7, 1)[0].as_slice()[42..].to_vec();
    let random = [&random[..], &random[..58]].concat();
    let constant_fill = vec![0x2a; 1458];
    let mut group = c.benchmark_group("urlfilter_scan_1458B");
    group.throughput(Throughput::Bytes(1458));
    for (name, payload) in [
        ("text", text),
        ("random", random),
        ("constant_fill", constant_fill),
    ] {
        assert_eq!(payload.len(), 1458);
        assert!(!matcher.any_match(&payload));
        group.bench_function(name, |b| {
            b.iter(|| matcher.any_match(criterion::black_box(&payload)))
        });
    }
    group.finish();
}

/// Short measurement windows: these benches exist to regenerate the
/// paper's cost comparisons, not to chase nanosecond precision.
fn quick_config() -> Criterion {
    Criterion::default()
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_secs(1))
        .sample_size(10)
}

criterion_group! {
    name = benches;
    config = quick_config();
    targets = bench_nfs, bench_per_byte_nfs, bench_crypto, bench_dedup, bench_urlfilter_scan
}
criterion_main!(benches);
