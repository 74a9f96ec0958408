//! The ledger's vocabulary: workloads and metric names, units, directions
//! and regression bounds. The root `BENCHMARK.json` states the same lists
//! for the driver; a unit test below fails if the two drift apart.
//!
//! Two kinds of number, and every name says which: **host** metrics
//! (`setup_s`, `run_s`, `host_*`, `peak_rss_mb`, every `*_ns/_us/_ms/_s`
//! layer time) are what the program costs to run — noisy, reported as the
//! quiet quartile of a run's operations (`Summary::quiet`); **sim** metrics (`sim_*`, counts, ratios of
//! counts) are what the modelled rack delivers — exact for a seed.

use crate::stats::Summary;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "rack-64b",
        why: "smallest frames: per-hop overhead (event loop, p4sim, demux/mux, parse) is nearly all the work",
    },
    Workload {
        name: "rack-mtu",
        why: "1500-byte frames: per-byte NF, checksum and payload work dominates; the bypass case of rack-64b",
    },
    Workload {
        name: "rack-chaos",
        why: "supervised run under a fault storm: fault, drain, epoch-swap, migration, repair and WAL paths",
    },
    Workload {
        name: "million-flow",
        why: "hybrid engine at 1.1 M flows: flow materialization, per-window tail cells, aggregate NF sweeps, memory",
    },
    Workload {
        name: "place-sweep",
        why: "placement only: heuristic and brute-force search, LP, compiler-in-the-loop oracle; no packets",
    },
    Workload {
        name: "fleet-storm",
        why: "multi-PoP control under storm weather: coordinator rounds, lossy channel, hierarchical placement",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Exact for a seed (a sim result), not a host measurement.
    pub exact: bool,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "run_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "host_units_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "sim_delivered_gbps",
        unit: "Gbps",
        better: Better::Higher,
        bound: 0.01,
        exact: true,
    },
    EndToEnd {
        name: "sim_goodput_frac",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.01,
        exact: true,
    },
    EndToEnd {
        name: "sim_slo_frac",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.01,
        exact: true,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Every per-layer metric, `<crate>.<metric>`. A traced run prints all of
/// them; a workload that does not route through a layer prints 0 for it.
pub const PER_LAYER: &[PerLayer] = &[
    // packet
    layer("packet.parse_ns", "ns", Lower),
    layer("packet.build_ns", "ns", Lower),
    // dataplane: replay budget
    layer("dataplane.source_ns", "ns", Lower),
    layer("dataplane.build_ms", "ms", Lower),
    layer("dataplane.hops_per_pkt", "count", Lower),
    layer("dataplane.host_ns_per_pkt", "ns", Lower),
    layer("dataplane.engine_residual_ns", "ns", Lower),
    layer("dataplane.engine_share", "ratio", Lower),
    layer("dataplane.replay_delivered_frac", "ratio", Higher),
    layer("dataplane.fused_vs_reference", "ratio", Higher),
    // dataplane: sim results of the workload's own run
    layer("dataplane.lat_mean_us", "us", Lower),
    layer("dataplane.lat_max_us", "us", Lower),
    // dataplane: offered-load sweep (sim)
    layer("dataplane.load_0.5x.drop_frac", "ratio", Lower),
    layer("dataplane.load_0.5x.lat_mean_us", "us", Lower),
    layer("dataplane.load_0.5x.lat_max_us", "us", Lower),
    layer("dataplane.load_0.9x.drop_frac", "ratio", Lower),
    layer("dataplane.load_0.9x.lat_mean_us", "us", Lower),
    layer("dataplane.load_0.9x.lat_max_us", "us", Lower),
    layer("dataplane.load_1.1x.drop_frac", "ratio", Lower),
    layer("dataplane.load_1.1x.lat_mean_us", "us", Lower),
    layer("dataplane.load_1.1x.lat_max_us", "us", Lower),
    layer("dataplane.load_2.0x.drop_frac", "ratio", Lower),
    layer("dataplane.load_2.0x.lat_mean_us", "us", Lower),
    layer("dataplane.load_2.0x.lat_max_us", "us", Lower),
    layer("dataplane.lossfree_gbps", "Gbps", Higher),
    // dataplane: flow-level path
    layer("dataplane.materialize_s", "s", Lower),
    layer("dataplane.validate_s", "s", Lower),
    layer("dataplane.tail_plan_s", "s", Lower),
    layer("dataplane.heavy_pkts", "count", Lower),
    layer("dataplane.tail_pkts", "count", Higher),
    layer("dataplane.tail_only_s", "s", Lower),
    layer("dataplane.heavy_ns_per_pkt", "ns", Lower),
    // p4sim
    layer("p4sim.process_ns", "ns", Lower),
    layer("p4sim.visits_per_pkt", "count", Lower),
    layer("p4sim.tables", "count", Lower),
    layer("p4sim.stages_used", "count", Lower),
    layer("p4sim.load_ms", "ms", Lower),
    layer("p4sim.share", "ratio", Lower),
    // bess
    layer("bess.steer_mux_ns", "ns", Lower),
    layer("bess.server_visits_per_pkt", "count", Lower),
    layer("bess.share", "ratio", Lower),
    // nf
    layer("nf.segment_ns", "ns", Lower),
    layer("nf.segment_ns_ref", "ns", Lower),
    layer("nf.share", "ratio", Lower),
    layer("nf.kind.Encrypt_ns", "ns", Lower),
    layer("nf.kind.Decrypt_ns", "ns", Lower),
    layer("nf.kind.FastEncrypt_ns", "ns", Lower),
    layer("nf.kind.Dedup_ns", "ns", Lower),
    layer("nf.kind.Tunnel_ns", "ns", Lower),
    layer("nf.kind.Detunnel_ns", "ns", Lower),
    layer("nf.kind.IPv4Fwd_ns", "ns", Lower),
    layer("nf.kind.Limiter_ns", "ns", Lower),
    layer("nf.kind.UrlFilter_ns", "ns", Lower),
    layer("nf.kind.Monitor_ns", "ns", Lower),
    layer("nf.kind.NAT_ns", "ns", Lower),
    layer("nf.kind.LB_ns", "ns", Lower),
    layer("nf.kind.BPF_ns", "ns", Lower),
    layer("nf.kind.ACL_ns", "ns", Lower),
    layer("nf.aggregate_apply_ns", "ns", Lower),
    // ebpf
    layer("ebpf.run_ns", "ns", Lower),
    layer("ebpf.steps_per_pkt", "count", Lower),
    // lp / placer / metacompiler
    layer("lp.solve_us", "us", Lower),
    layer("placer.heuristic_ms_p50", "ms", Lower),
    layer("placer.brute_s", "s", Lower),
    layer("placer.brute_pool_speedup", "ratio", Higher),
    layer("placer.marginal_gbps", "Gbps", Higher),
    layer("placer.opt_ratio", "ratio", Higher),
    layer("placer.evaluate_us", "us", Lower),
    layer("placer.lp_evals", "count", Lower),
    layer("placer.oracle_calls", "count", Lower),
    layer("placer.cache_hit_rate", "ratio", Higher),
    layer("placer.pruned", "count", Higher),
    layer("placer.unexplained_frac", "ratio", Lower),
    layer("placer.repair_ms", "ms", Lower),
    layer("placer.place_fleet_ms", "ms", Lower),
    layer("metacompiler.oracle_us", "us", Lower),
    layer("metacompiler.compile_ms", "ms", Lower),
    layer("metacompiler.compile_repair_ms", "ms", Lower),
    // control
    layer("control.hook_calls", "count", Lower),
    layer("control.hook_s", "s", Lower),
    layer("control.hook_us_p50", "us", Lower),
    layer("control.hook_us_max", "us", Lower),
    layer("control.replans", "count", Lower),
    layer("control.commits", "count", Lower),
    layer("control.rollbacks", "count", Lower),
    layer("control.update_loss_pkts", "count", Lower),
    layer("control.wal_records", "count", Lower),
    layer("control.wal_replay_us", "us", Lower),
    layer("control.share", "ratio", Lower),
    // fleet
    layer("fleet.us_per_tick", "us", Lower),
    layer("fleet.ticks", "count", Lower),
    layer("fleet.channel_sent", "count", Lower),
    layer("fleet.failovers", "count", Lower),
    layer("fleet.control_only_s", "s", Lower),
    layer("fleet.validate_share", "ratio", Lower),
    // the tracing itself
    layer("trace.overhead_frac", "ratio", Lower),
    layer("trace.spans", "count", Lower),
];

/// Measured values by metric name. `BTreeMap` so output order is stable.
pub type Values = BTreeMap<&'static str, Summary>;

/// The catalogue's `&'static` name for a per-layer metric whose name was
/// assembled at run time (`nf.kind.<Kind>_ns`, `dataplane.load_<x>x.*`).
/// Panics on a name the catalogue does not list: that is a bug here.
pub fn layer_name(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|m| m.name)
        .find(|n| *n == name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for n in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(valid(n), "bad name {n}");
            assert!(seen.insert(n), "duplicate name {n}");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "bad unit {unit}"
            );
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    /// The root `BENCHMARK.json` and this catalogue say the same thing:
    /// same workloads with the same reasons, same metrics in the same
    /// order with the same unit, direction and bound.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("root BENCHMARK.json");
        assert!(text.len() <= 64 * 1024);
        let doc = serde_json::parse_value_str(&text).expect("valid JSON");
        let serde::Value::Object(entries) = &doc else {
            panic!("BENCHMARK.json is not an object")
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let list = |key: &str| doc.get(key).and_then(|v| v.as_array()).expect("array");
        let text_of = |v: &serde::Value, key: &str| {
            v.get(key)
                .and_then(|s| s.as_str())
                .expect("string")
                .to_string()
        };

        let paths = list("paths");
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("crates/bench/src/bin/exp_perf"));
        let run_seconds = doc.get("run_seconds").and_then(|v| v.as_i128()).unwrap();
        assert!((1..=60).contains(&run_seconds));

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text_of(w, "name"), text_of(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, expected);
        assert!(workloads
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));

        let end_to_end: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    text_of(m, "name"),
                    text_of(m, "unit"),
                    text_of(m, "better"),
                    m.get("bound").and_then(|b| b.as_f64()).expect("bound"),
                )
            })
            .collect();
        let expected: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(end_to_end, expected);

        let per_layer: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (text_of(m, "name"), text_of(m, "unit"), text_of(m, "better")))
            .collect();
        let expected: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                )
            })
            .collect();
        assert_eq!(per_layer, expected);
    }

    #[test]
    fn every_nf_kind_has_a_metric() {
        for kind in crate::adapters::nf_kind_names() {
            assert!(layer_name(&format!("nf.kind.{kind}_ns")).contains(kind));
        }
    }
}
