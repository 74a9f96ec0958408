//! Single-layer timings: one call into one layer, repeated over pinned
//! inputs, median of a few batches. These feed the `<crate>.<metric>`
//! per-layer numbers that the replay forwarder cannot see (a lone NF, a
//! lone LP solve, compile and load steps).

use crate::adapters::{self, PacketBuf, SingleNf, HEADER_BYTES};
use crate::stats::median;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Batches per timing; the median batch is reported.
const BATCHES: usize = 5;

/// Median over `BATCHES` of the wall time of `f`, in seconds.
pub fn time_median(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Median ns per call of `f` over `BATCHES` batches of `calls` calls.
pub fn ns_per_call(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    time_median(|| {
        for i in 0..calls {
            f(i);
        }
    }) * 1e9
        / calls as f64
}

/// A pinned mix of frames at the workload's size: 512 flows, half the
/// payloads redundant text and half seeded bytes — `ChainSource`'s mix.
pub fn frames(frame_bytes: usize, count: usize, seed: u64) -> Vec<PacketBuf> {
    let payload_len = frame_bytes - HEADER_BYTES;
    let mut text = Vec::with_capacity(payload_len);
    while text.len() < payload_len {
        text.extend_from_slice(b"GET /index.html HTTP/1.1 host: example.org ");
    }
    text.truncate(payload_len);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            let payload: Vec<u8> = if i % 2 == 0 {
                text.clone()
            } else {
                (0..payload_len).map(|_| rng.gen::<u8>()).collect()
            };
            adapters::build_udp(i as u32 % 512, &payload)
        })
        .collect()
}

/// `packet.parse_ns`: `FiveTuple::parse` + hash on a generated frame.
pub fn packet_parse_ns(frames: &[PacketBuf]) -> f64 {
    ns_per_call(frames.len() * 20, |i| {
        black_box(adapters::flow_hash_mod(
            frames[i % frames.len()].as_slice(),
            4,
        ));
    })
}

/// `packet.build_ns`: `udp_packet` incl. checksum at the frame size.
pub fn packet_build_ns(frame_bytes: usize, calls: usize) -> f64 {
    let payload = vec![0x5au8; frame_bytes - HEADER_BYTES];
    ns_per_call(calls, |i| {
        black_box(adapters::build_udp(i as u32, &payload));
    })
}

/// `nf.kind.<Kind>_ns`: one software NF over the frame mix. Each batch
/// gets a fresh NF and fresh copies of the frames (NFs rewrite packets
/// and keep state), built outside the timed region.
pub fn nf_kind_ns(kind_name: &str, frames: &[PacketBuf]) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut nf = SingleNf::new(kind_name);
            let mut batch: Vec<PacketBuf> = frames.to_vec();
            let t = Instant::now();
            for (i, pkt) in batch.iter_mut().enumerate() {
                nf.process(i as u64 * 1_000, pkt);
            }
            t.elapsed().as_secs_f64() * 1e9 / frames.len() as f64
        })
        .collect();
    median(&samples)
}
