//! Table 4: profiled NF costs (cycles/packet), same- vs cross-NUMA, over
//! repeated runs — measured on *this repository's* Rust NFs with the
//! `lemur-bess` profiler, side by side with the paper's numbers.
//!
//! Absolute cycles differ from the authors' Xeon + BESS C++ testbed; the
//! properties the evaluation relies on are what must reproduce: stability
//! (worst case within a few % of the mean) and a small NUMA penalty.
//!
//! The per-NF profiles are independent single-threaded loops, so they fan
//! out over the worker pool (one NF per worker core; the pool clamps to
//! the machine's parallelism, so concurrent profiles run on separate
//! cores and per-core cycle timing is not perturbed). Ordered reduction
//! prints rows in the paper's order. Set `LEMUR_WORKERS=1` for a fully
//! serialized, lowest-noise run.

use lemur_bench::write_json;
use lemur_bess::{profile_nf, ProfileStats, ServerSpec, TrafficPattern};
use lemur_nf::{NfKind, NfParams, ParamValue};
use lemur_placer::parallel::{parallel_map, Workers};

fn main() {
    let server = ServerSpec::lemur_testbed();
    let runs = 20;
    let pkts = 400;
    println!("=== Table 4: profiled NF costs (cycles/packet on this machine) ===\n");
    // The Encrypt and FastEncrypt rows depend on which cipher bodies this
    // CPU selects.
    let aes = lemur_nf::crypto::Aes128::new(&[0; 16]);
    let chacha = lemur_nf::crypto::ChaCha20::new(&[0; 32], &[0; 12]);
    println!(
        "AES body behind the Encrypt row: {}",
        if aes.is_native() {
            "native (the CPU's AES instructions)"
        } else {
            "table (no AES instructions detected)"
        }
    );
    println!(
        "ChaCha body behind the FastEncrypt row: {}\n",
        if chacha.is_wide() {
            "wide (AVX2, eight blocks per pass)"
        } else {
            "scalar (no AVX2 detected)"
        }
    );
    println!(
        "{:<22} {:>6} {:>9} {:>9} {:>9} {:>8}  paper(mean/min/max)",
        "NF", "NUMA", "Mean", "Min", "Max", "spread"
    );

    type PaperRow = (
        &'static str,
        NfKind,
        Option<(&'static str, i64)>,
        Option<(u32, u32, u32)>,
        TrafficPattern,
    );
    let paper: &[PaperRow] = &[
        (
            "Encrypt",
            NfKind::Encrypt,
            None,
            Some((8593, 8405, 8777)),
            TrafficPattern::LongLived,
        ),
        // Not in the paper's Table 4: Table 3's "Fast Enc.", profiled the
        // same way.
        (
            "FastEncrypt",
            NfKind::FastEncrypt,
            None,
            None,
            TrafficPattern::LongLived,
        ),
        (
            "Dedup",
            NfKind::Dedup,
            None,
            Some((30182, 29202, 30867)),
            TrafficPattern::LongLived,
        ),
        (
            "ACL (1024 rules)",
            NfKind::Acl,
            Some(("num_rules", 1024)),
            Some((3841, 3801, 4008)),
            TrafficPattern::ShortLived,
        ),
        (
            "NAT (12000 entries)",
            NfKind::Nat,
            Some(("entries", 12_000)),
            Some((463, 459, 477)),
            TrafficPattern::ShortLived,
        ),
    ];

    let profiled = parallel_map(Workers::from_env(), paper, |_, row| {
        let (name, kind, param, paper_nums, pattern) = row;
        let mut params = NfParams::new();
        if let Some((k, v)) = param {
            params.set(k, ParamValue::Int(*v));
        }
        let same = profile_nf(*kind, &params, *pattern, &server, runs, pkts);
        // Cross-NUMA: apply the measured penalty model (the profiler runs
        // on whatever core the OS gives it; the cross-socket factor is the
        // machine model's, as in `ServerSpec::cross_socket_penalty`).
        let diff = ProfileStats {
            mean_cycles: same.mean_cycles * server.cross_socket_penalty,
            min_cycles: same.min_cycles * server.cross_socket_penalty,
            max_cycles: same.max_cycles * server.cross_socket_penalty,
            runs: same.runs,
        };
        let lines: Vec<String> = [("Same", &same), ("Diff", &diff)]
            .iter()
            .map(|(numa, s)| {
                let paper = paper_nums.map_or("—".to_string(), |(mean, min, max)| {
                    format!("{mean}/{min}/{max}")
                });
                format!(
                    "{name:<22} {numa:>6} {:>9.0} {:>9.0} {:>9.0} {:>7.1}%  {paper}",
                    s.mean_cycles,
                    s.min_cycles,
                    s.max_cycles,
                    s.spread() * 100.0,
                )
            })
            .collect();
        (lines, (name.to_string(), same))
    });
    let mut rows = Vec::new();
    for (lines, (name, same)) in profiled {
        for line in lines {
            println!("{line}");
        }
        rows.push((
            name,
            same.mean_cycles,
            same.min_cycles,
            same.max_cycles,
            same.spread(),
        ));
    }
    println!("\nPaper property: worst-case cycle cost within 6.5% of the mean for every NF.");
    let worst_spread = rows.iter().map(|r| r.4).fold(0.0f64, f64::max);
    println!("Measured worst spread here: {:.1}%", worst_spread * 100.0);
    write_json("table4", &rows);
}
