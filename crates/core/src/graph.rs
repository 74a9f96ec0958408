//! The NF-graph IR: a DAG of NF instances (§4).
//!
//! "Nodes are NFs, links represent data-flows, and each node is associated
//! with attributes that govern placement." Branch edges carry the traffic
//! fraction operators estimate from historical measurements (§3.2), which
//! the decomposition into linear chains uses to weight each path.

use crate::slo::Slo;
use lemur_nf::{NfKind, NfParams};
use lemur_packet::TrafficAggregate;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Identifies a node within one [`NfGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// One NF instance in a chain.
#[derive(Debug, Clone)]
pub struct NfNode {
    /// Instance name (unique within the graph), e.g. `acl0`.
    pub name: String,
    pub kind: NfKind,
    pub params: NfParams,
}

/// An edge with an output gate and the estimated traffic fraction taking it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    pub from: NodeId,
    pub to: NodeId,
    /// Output gate of `from` this edge is attached to.
    pub gate: usize,
    /// Fraction of `from`'s traffic taking this edge (1.0 on linear edges).
    pub fraction: f64,
}

/// Errors graph validation can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    Cycle,
    DuplicateName(String),
    DanglingEdge,
    Empty,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Cycle => write!(f, "NF graph contains a cycle"),
            GraphError::DuplicateName(n) => write!(f, "duplicate instance name {n}"),
            GraphError::DanglingEdge => write!(f, "edge references unknown node"),
            GraphError::Empty => write!(f, "empty NF graph"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A DAG of NF instances.
#[derive(Debug, Clone, Default)]
pub struct NfGraph {
    nodes: Vec<NfNode>,
    edges: Vec<Edge>,
}

impl NfGraph {
    /// An empty graph.
    pub fn new() -> NfGraph {
        NfGraph::default()
    }

    /// Add a node with an auto-derived instance name.
    pub fn add(&mut self, kind: NfKind, params: NfParams) -> NodeId {
        let name = format!("{}_{}", kind.name().to_lowercase(), self.nodes.len());
        self.add_named(&name, kind, params)
    }

    /// Add a node with an explicit instance name.
    pub fn add_named(&mut self, name: &str, kind: NfKind, params: NfParams) -> NodeId {
        self.nodes.push(NfNode {
            name: name.to_string(),
            kind,
            params,
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Connect `from` (gate 0, full traffic) to `to`.
    pub fn connect(&mut self, from: NodeId, to: NodeId) {
        self.edges.push(Edge {
            from,
            to,
            gate: 0,
            fraction: 1.0,
        });
    }

    /// Connect a branch edge with a gate and traffic fraction.
    pub fn connect_branch(&mut self, from: NodeId, to: NodeId, gate: usize, fraction: f64) {
        self.edges.push(Edge {
            from,
            to,
            gate,
            fraction,
        });
    }

    /// Node accessor.
    pub fn node(&self, id: NodeId) -> &NfNode {
        &self.nodes[id.0]
    }

    /// All nodes, in insertion order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &NfNode)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i), n))
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Outgoing edges of a node, sorted by gate.
    pub fn out_edges(&self, id: NodeId) -> Vec<Edge> {
        let mut v: Vec<Edge> = self
            .edges
            .iter()
            .filter(|e| e.from == id)
            .copied()
            .collect();
        v.sort_by_key(|e| e.gate);
        v
    }

    /// Outgoing edge count of a node.
    pub fn out_degree(&self, id: NodeId) -> usize {
        self.edges.iter().filter(|e| e.from == id).count()
    }

    /// Incoming edge count of a node.
    pub fn in_degree(&self, id: NodeId) -> usize {
        self.edges.iter().filter(|e| e.to == id).count()
    }

    /// Source nodes (no incoming edges).
    pub fn sources(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .map(NodeId)
            .filter(|id| self.in_degree(*id) == 0)
            .collect()
    }

    /// Sink nodes (no outgoing edges).
    pub fn sinks(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .map(NodeId)
            .filter(|id| self.out_degree(*id) == 0)
            .collect()
    }

    /// True if `id` has more than one outgoing edge (a branch point).
    pub fn is_branch(&self, id: NodeId) -> bool {
        self.out_degree(id) > 1
    }

    /// True if `id` has more than one incoming edge (a merge point).
    pub fn is_merge(&self, id: NodeId) -> bool {
        self.in_degree(id) > 1
    }

    /// Validate: non-empty, unique names, edges in range, acyclic.
    pub fn validate(&self) -> Result<(), GraphError> {
        if self.nodes.is_empty() {
            return Err(GraphError::Empty);
        }
        let mut seen = BTreeMap::new();
        for n in &self.nodes {
            if seen.insert(n.name.clone(), ()).is_some() {
                return Err(GraphError::DuplicateName(n.name.clone()));
            }
        }
        for e in &self.edges {
            if e.from.0 >= self.nodes.len() || e.to.0 >= self.nodes.len() {
                return Err(GraphError::DanglingEdge);
            }
        }
        self.topo_order().map(|_| ())
    }

    /// Kahn topological order; `Err(Cycle)` if cyclic.
    pub fn topo_order(&self) -> Result<Vec<NodeId>, GraphError> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        for e in &self.edges {
            indeg[e.to.0] += 1;
        }
        let mut queue: VecDeque<usize> = (0..n).filter(|i| indeg[*i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop_front() {
            order.push(NodeId(i));
            for e in self.edges.iter().filter(|e| e.from.0 == i) {
                indeg[e.to.0] -= 1;
                if indeg[e.to.0] == 0 {
                    queue.push_back(e.to.0);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(GraphError::Cycle)
        }
    }

    /// Decompose into weighted linear chains (§3.2): every source→sink
    /// path becomes one [`LinearChain`] whose weight is the product of edge
    /// fractions along it. "If a chain branches from NF X to two NFs Y and
    /// Z, and then merges back into an NF W, we decompose these into two
    /// chains X→Y→W and X→Z→W."
    pub fn decompose(&self) -> Vec<LinearChain> {
        let mut out = Vec::new();
        for src in self.sources() {
            self.walk(src, &mut vec![src], 1.0, &mut out);
        }
        out
    }

    fn walk(&self, at: NodeId, path: &mut Vec<NodeId>, weight: f64, out: &mut Vec<LinearChain>) {
        let edges = self.out_edges(at);
        if edges.is_empty() {
            out.push(LinearChain {
                nodes: path.clone(),
                weight,
            });
            return;
        }
        for e in edges {
            path.push(e.to);
            self.walk(e.to, path, weight * e.fraction, out);
            path.pop();
        }
    }

    /// Render in the dataflow spec syntax (single-path graphs only get the
    /// exact round-trip form; branchy graphs are annotated).
    pub fn to_spec_string(&self) -> String {
        let mut parts = Vec::new();
        for chain in self.decompose() {
            let names: Vec<&str> = chain
                .nodes
                .iter()
                .map(|id| self.node(*id).name.as_str())
                .collect();
            parts.push(format!(
                "# weight {:.3}\n{}",
                chain.weight,
                names.join(" -> ")
            ));
        }
        parts.join("\n")
    }
}

/// One linear chain from the branch decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearChain {
    pub nodes: Vec<NodeId>,
    /// Fraction of the chain's aggregate traffic taking this path.
    pub weight: f64,
}

/// A chain specification: the graph plus its SLO and traffic aggregate.
#[derive(Debug, Clone)]
pub struct ChainSpec {
    pub name: String,
    pub graph: NfGraph,
    pub slo: Option<Slo>,
    pub aggregate: Option<TrafficAggregate>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use lemur_nf::NfKind;

    fn diamond() -> NfGraph {
        // x -> {y (0.7), z (0.3)} -> w
        let mut g = NfGraph::new();
        let x = g.add_named("x", NfKind::Match, NfParams::new());
        let y = g.add_named("y", NfKind::Encrypt, NfParams::new());
        let z = g.add_named("z", NfKind::Monitor, NfParams::new());
        let w = g.add_named("w", NfKind::Ipv4Fwd, NfParams::new());
        g.connect_branch(x, y, 0, 0.7);
        g.connect_branch(x, z, 1, 0.3);
        g.connect(y, w);
        g.connect(z, w);
        g
    }

    #[test]
    fn diamond_decomposition() {
        let g = diamond();
        g.validate().unwrap();
        let chains = g.decompose();
        assert_eq!(chains.len(), 2);
        let weights: Vec<f64> = chains.iter().map(|c| c.weight).collect();
        assert!(weights.contains(&0.7) && weights.contains(&0.3));
        for c in &chains {
            assert_eq!(c.nodes.len(), 3); // x -> {y|z} -> w
            assert_eq!(g.node(c.nodes[0]).name, "x");
            assert_eq!(g.node(c.nodes[2]).name, "w");
        }
    }

    #[test]
    fn branch_and_merge_detection() {
        let g = diamond();
        assert!(g.is_branch(NodeId(0)));
        assert!(!g.is_branch(NodeId(1)));
        assert!(g.is_merge(NodeId(3)));
        assert!(!g.is_merge(NodeId(1)));
        assert_eq!(g.sources(), vec![NodeId(0)]);
        assert_eq!(g.sinks(), vec![NodeId(3)]);
    }

    #[test]
    fn linear_graph_single_chain() {
        let mut g = NfGraph::new();
        let a = g.add(NfKind::Acl, NfParams::new());
        let b = g.add(NfKind::Encrypt, NfParams::new());
        let c = g.add(NfKind::Ipv4Fwd, NfParams::new());
        g.connect(a, b);
        g.connect(b, c);
        let chains = g.decompose();
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].weight, 1.0);
        assert_eq!(chains[0].nodes, vec![a, b, c]);
    }

    #[test]
    fn cycle_detected() {
        let mut g = NfGraph::new();
        let a = g.add(NfKind::Acl, NfParams::new());
        let b = g.add(NfKind::Encrypt, NfParams::new());
        g.connect(a, b);
        g.connect(b, a);
        assert_eq!(g.validate().unwrap_err(), GraphError::Cycle);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut g = NfGraph::new();
        g.add_named("same", NfKind::Acl, NfParams::new());
        g.add_named("same", NfKind::Encrypt, NfParams::new());
        assert_eq!(
            g.validate().unwrap_err(),
            GraphError::DuplicateName("same".to_string())
        );
    }

    #[test]
    fn empty_graph_rejected() {
        assert_eq!(NfGraph::new().validate().unwrap_err(), GraphError::Empty);
    }

    #[test]
    fn topo_order_respects_edges() {
        let g = diamond();
        let order = g.topo_order().unwrap();
        let pos = |id: NodeId| order.iter().position(|x| *x == id).unwrap();
        for e in g.edges() {
            assert!(pos(e.from) < pos(e.to));
        }
    }

    #[test]
    fn nested_branches_multiply_fractions() {
        // a -> {b (0.5) -> {d (0.5), e (0.5)}, c (0.5)}
        let mut g = NfGraph::new();
        let a = g.add_named("a", NfKind::Match, NfParams::new());
        let b = g.add_named("b", NfKind::Match, NfParams::new());
        let c = g.add_named("c", NfKind::Monitor, NfParams::new());
        let d = g.add_named("d", NfKind::Encrypt, NfParams::new());
        let e = g.add_named("e", NfKind::Acl, NfParams::new());
        g.connect_branch(a, b, 0, 0.5);
        g.connect_branch(a, c, 1, 0.5);
        g.connect_branch(b, d, 0, 0.5);
        g.connect_branch(b, e, 1, 0.5);
        let chains = g.decompose();
        assert_eq!(chains.len(), 3);
        let total: f64 = chains.iter().map(|c| c.weight).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(chains.iter().any(|ch| (ch.weight - 0.25).abs() < 1e-9));
    }

    #[test]
    fn spec_string_contains_names() {
        let g = diamond();
        let s = g.to_spec_string();
        assert!(s.contains("x -> y -> w"));
        assert!(s.contains("x -> z -> w"));
    }
}
