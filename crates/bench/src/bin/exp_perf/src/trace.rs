//! In-memory spans recorded from the benchmark's own files, around the
//! calls into each layer. Nothing here reaches into the program: tracing
//! inside the product crates is a later issue.
//!
//! A span is `(layer, start, end, parent, packet)`. Spans stay in memory
//! while the traced pass runs; per-layer counts and self times are
//! aggregated afterwards and the first packets' spans are written out as
//! JSON. A layer's self time is its spans' duration minus the part their
//! child spans cover, minus the clock's own cost per span (calibrated at
//! start-up: reading the clock twice per span is not free next to a
//! 50 ns demux call).

use std::time::Instant;

/// Index of a span in its tracer, usable as a parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: u16,
    parent: u32,
    packet: u32,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    layers: Vec<&'static str>,
    epoch: Instant,
    spans: Vec<Span>,
    /// Measured cost of one empty span (two clock reads), ns.
    clock_ns: f64,
}

/// Per-layer totals of a traced pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    pub count: u64,
    /// Σ (end − start), children included.
    pub total_ns: f64,
    /// `total_ns` minus child spans minus the clock's cost.
    pub self_ns: f64,
}

impl Tracer {
    /// `layers` fixes the layer names; spans refer to them by index.
    pub fn new(layers: &[&'static str]) -> Tracer {
        let mut t = Tracer {
            layers: layers.to_vec(),
            epoch: Instant::now(),
            spans: Vec::new(),
            clock_ns: 0.0,
        };
        // Calibrate on empty spans, then forget them.
        const CAL: usize = 20_000;
        for _ in 0..CAL {
            let id = t.open(0, None, 0);
            t.close(id);
        }
        let mut durations: Vec<f64> = t
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect();
        durations.sort_by(f64::total_cmp);
        t.clock_ns = durations[CAL / 2];
        t.spans.clear();
        t
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[inline]
    pub fn open(&mut self, layer: usize, parent: Option<SpanId>, packet: u32) -> SpanId {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            layer: layer as u16,
            parent: parent.map_or(NO_PARENT, |p| p.0),
            packet,
            start_ns: 0,
            end_ns: 0,
        });
        // Read the clock last so bookkeeping is outside the span.
        self.spans[id as usize].start_ns = self.now_ns();
        SpanId(id)
    }

    #[inline]
    pub fn close(&mut self, id: SpanId) {
        let end = self.now_ns();
        self.spans[id.0 as usize].end_ns = end;
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    pub fn clock_ns(&self) -> f64 {
        self.clock_ns
    }

    /// Totals per layer, index-aligned with the names given to `new`.
    pub fn totals(&self) -> Vec<LayerTotals> {
        let mut child_ns = vec![0f64; self.spans.len()];
        let mut child_count = vec![0u32; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += (s.end_ns - s.start_ns) as f64;
                child_count[s.parent as usize] += 1;
            }
        }
        let mut out = vec![LayerTotals::default(); self.layers.len()];
        for (i, s) in self.spans.iter().enumerate() {
            let dur = (s.end_ns - s.start_ns) as f64;
            let t = &mut out[s.layer as usize];
            t.count += 1;
            t.total_ns += dur;
            // A span's own two clock reads cost about one `clock_ns`
            // inside it; each child's reads cost about one more outside
            // the child but inside this span.
            let overhead = self.clock_ns * (1.0 + child_count[i] as f64);
            t.self_ns += (dur - child_ns[i] - overhead).max(0.0);
        }
        out
    }

    /// The spans of packets `< first_packets` as a JSON document.
    pub fn to_json(&self, workload: &str, first_packets: u32) -> serde::Value {
        use serde::{Serialize, Value};
        let spans: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.packet < first_packets)
            .map(|(i, s)| {
                Value::Object(vec![
                    ("id".to_string(), i.to_value()),
                    ("name".to_string(), self.layers[s.layer as usize].to_value()),
                    ("start_ns".to_string(), s.start_ns.to_value()),
                    ("end_ns".to_string(), s.end_ns.to_value()),
                    (
                        "parent".to_string(),
                        if s.parent == NO_PARENT {
                            Value::Null
                        } else {
                            (s.parent as u64).to_value()
                        },
                    ),
                    ("packet".to_string(), (s.packet as u64).to_value()),
                ])
            })
            .collect();
        Value::Object(vec![
            ("workload".to_string(), workload.to_value()),
            ("clock_ns".to_string(), self.clock_ns.to_value()),
            ("spans_recorded".to_string(), self.spans.len().to_value()),
            ("spans".to_string(), Value::Array(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::black_box(());
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(&["root", "child"]);
        let root = t.open(0, None, 7);
        spin(200_000);
        for _ in 0..2 {
            let c = t.open(1, Some(root), 7);
            spin(300_000);
            t.close(c);
        }
        t.close(root);
        let totals = t.totals();
        assert_eq!((totals[0].count, totals[1].count), (1, 2));
        assert!(totals[1].self_ns >= 590_000.0, "{:?}", totals[1]);
        assert!(totals[0].total_ns >= 800_000.0, "{:?}", totals[0]);
        // Root self time is its own ~200 µs, not the 800 µs it spans.
        assert!(
            totals[0].self_ns >= 190_000.0 && totals[0].self_ns < 500_000.0,
            "{:?}",
            totals[0]
        );
    }

    #[test]
    fn json_keeps_only_the_first_packets() {
        let mut t = Tracer::new(&["a"]);
        for packet in 0..5 {
            let id = t.open(0, None, packet);
            t.close(id);
        }
        assert_eq!(t.span_count(), 5);
        let doc = t.to_json("w", 2);
        let spans = doc.get("spans").and_then(|s| s.as_array()).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("name").and_then(|n| n.as_str()), Some("a"));
        assert_eq!(spans[0].get("parent"), Some(&serde::Value::Null));
    }
}
