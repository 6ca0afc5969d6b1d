//! Query networks and HAU-level views (§II-A, Fig. 1).
//!
//! A query network is a directed acyclic graph whose vertices are
//! operators and whose edges are producer→consumer data streams. One or
//! more operators grouped inside an SPE form a High Availability Unit
//! (HAU) — the smallest unit of independent checkpoint/recovery. The
//! stream application can then be viewed at a higher level as a DAG of
//! HAUs (Fig. 1.b); the token protocol operates on that HAU graph.

use std::collections::BTreeSet;

use crate::error::{Error, Result};
use crate::ids::{HauId, OperatorId, PortId};

/// Static metadata for one operator vertex.
#[derive(Clone, Debug)]
pub struct OperatorMeta {
    /// The operator's id (index into the network's operator table).
    pub id: OperatorId,
    /// Human-readable name, e.g. `"A3"` or `"KMeans-3"`.
    pub name: String,
}

/// A query network: operators plus directed streams between them.
///
/// Invariants (enforced by [`QueryNetwork::validate`], and checked
/// incrementally where cheap): the graph is acyclic, edges are unique,
/// and every operator id is in range. Input/output *port numbering* is
/// positional: the `k`-th entry of [`QueryNetwork::upstream`] feeds
/// input port `k`, and the `k`-th entry of [`QueryNetwork::downstream`]
/// is reached by output port `k`.
#[derive(Clone, Debug, Default)]
pub struct QueryNetwork {
    ops: Vec<OperatorMeta>,
    /// Adjacency: downstream[i] lists consumers of operator i, in
    /// output-port order.
    downstream: Vec<Vec<OperatorId>>,
    /// Adjacency: upstream[i] lists producers feeding operator i, in
    /// input-port order.
    upstream: Vec<Vec<OperatorId>>,
}

impl QueryNetwork {
    /// Creates an empty network.
    pub fn new() -> QueryNetwork {
        QueryNetwork::default()
    }

    /// Adds an operator and returns its id.
    pub fn add_operator(&mut self, name: impl Into<String>) -> OperatorId {
        let id = OperatorId(self.ops.len() as u32);
        self.ops.push(OperatorMeta {
            id,
            name: name.into(),
        });
        self.downstream.push(Vec::new());
        self.upstream.push(Vec::new());
        id
    }

    /// Connects `from → to`, appending to both port orders.
    ///
    /// Returns the (output port at `from`, input port at `to`) pair.
    pub fn connect(&mut self, from: OperatorId, to: OperatorId) -> Result<(PortId, PortId)> {
        self.check(from)?;
        self.check(to)?;
        if from == to {
            return Err(Error::Graph(format!("self loop on {from}")));
        }
        if self.downstream[from.index()].contains(&to) {
            return Err(Error::Graph(format!("duplicate edge {from} -> {to}")));
        }
        let out_port = PortId(self.downstream[from.index()].len() as u32);
        let in_port = PortId(self.upstream[to.index()].len() as u32);
        self.downstream[from.index()].push(to);
        self.upstream[to.index()].push(from);
        Ok((out_port, in_port))
    }

    fn check(&self, id: OperatorId) -> Result<()> {
        if id.index() >= self.ops.len() {
            Err(Error::Graph(format!("unknown operator {id}")))
        } else {
            Ok(())
        }
    }

    /// Number of operators.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the network has no operators.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// All operator ids.
    pub fn operators(&self) -> impl Iterator<Item = OperatorId> + '_ {
        (0..self.ops.len()).map(|i| OperatorId(i as u32))
    }

    /// Metadata for one operator.
    pub fn meta(&self, id: OperatorId) -> &OperatorMeta {
        &self.ops[id.index()]
    }

    /// Consumers of `id`, in output-port order.
    pub fn downstream(&self, id: OperatorId) -> &[OperatorId] {
        &self.downstream[id.index()]
    }

    /// Producers feeding `id`, in input-port order.
    pub fn upstream(&self, id: OperatorId) -> &[OperatorId] {
        &self.upstream[id.index()]
    }

    /// The input port of `to` that receives the stream from `from`.
    pub fn input_port(&self, from: OperatorId, to: OperatorId) -> Option<PortId> {
        self.upstream[to.index()]
            .iter()
            .position(|&u| u == from)
            .map(|p| PortId(p as u32))
    }

    /// The output port of `from` that feeds `to`.
    pub fn output_port(&self, from: OperatorId, to: OperatorId) -> Option<PortId> {
        self.downstream[from.index()]
            .iter()
            .position(|&d| d == to)
            .map(|p| PortId(p as u32))
    }

    /// Operators with no inputs — "source operators".
    pub fn sources(&self) -> Vec<OperatorId> {
        self.operators()
            .filter(|op| self.upstream(*op).is_empty())
            .collect()
    }

    /// Operators with no outputs — "sink operators".
    pub fn sinks(&self) -> Vec<OperatorId> {
        self.operators()
            .filter(|op| self.downstream(*op).is_empty())
            .collect()
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.downstream.iter().map(Vec::len).sum()
    }

    /// All `(from, to)` edges, in `from`-major, output-port order.
    pub fn edges(&self) -> impl Iterator<Item = (OperatorId, OperatorId)> + '_ {
        self.operators()
            .flat_map(move |from| self.downstream(from).iter().map(move |&to| (from, to)))
    }

    /// Kahn topological order; errors if the graph has a cycle.
    pub fn topo_order(&self) -> Result<Vec<OperatorId>> {
        let mut indeg: Vec<usize> = self.upstream.iter().map(Vec::len).collect();
        let mut ready: Vec<OperatorId> = self
            .operators()
            .filter(|op| indeg[op.index()] == 0)
            .collect();
        let mut order = Vec::with_capacity(self.len());
        while let Some(op) = ready.pop() {
            order.push(op);
            for &next in self.downstream(op) {
                indeg[next.index()] -= 1;
                if indeg[next.index()] == 0 {
                    ready.push(next);
                }
            }
        }
        if order.len() != self.len() {
            return Err(Error::Graph("query network contains a cycle".into()));
        }
        Ok(order)
    }

    /// Full validation: acyclicity plus (in this representation,
    /// structurally guaranteed) edge consistency. Also rejects networks
    /// with no source or no sink, which cannot carry a stream.
    pub fn validate(&self) -> Result<()> {
        if self.is_empty() {
            return Err(Error::Graph("empty query network".into()));
        }
        self.topo_order()?;
        if self.sources().is_empty() {
            return Err(Error::Graph("no source operators".into()));
        }
        if self.sinks().is_empty() {
            return Err(Error::Graph("no sink operators".into()));
        }
        Ok(())
    }
}

/// Assignment of operators to High Availability Units.
#[derive(Clone, Debug)]
pub struct HauAssignment {
    hau_of_op: Vec<HauId>,
    ops_of_hau: Vec<Vec<OperatorId>>,
}

impl HauAssignment {
    /// One HAU per operator — the configuration used throughout the
    /// paper's evaluation ("Each operator constitutes an HAU").
    pub fn one_per_operator(qn: &QueryNetwork) -> HauAssignment {
        HauAssignment {
            hau_of_op: (0..qn.len()).map(|i| HauId(i as u32)).collect(),
            ops_of_hau: (0..qn.len()).map(|i| vec![OperatorId(i as u32)]).collect(),
        }
    }

    /// Groups operators explicitly; every operator must appear in
    /// exactly one group.
    pub fn from_groups(qn: &QueryNetwork, groups: Vec<Vec<OperatorId>>) -> Result<HauAssignment> {
        let mut hau_of_op = vec![None; qn.len()];
        for (h, group) in groups.iter().enumerate() {
            for &op in group {
                if op.index() >= qn.len() {
                    return Err(Error::Graph(format!("unknown operator {op} in group {h}")));
                }
                if hau_of_op[op.index()].is_some() {
                    return Err(Error::Graph(format!("operator {op} in two HAUs")));
                }
                hau_of_op[op.index()] = Some(HauId(h as u32));
            }
        }
        let hau_of_op = hau_of_op
            .into_iter()
            .enumerate()
            .map(|(i, h)| h.ok_or_else(|| Error::Graph(format!("operator op{i} not in any HAU"))))
            .collect::<Result<Vec<_>>>()?;
        Ok(HauAssignment {
            hau_of_op,
            ops_of_hau: groups,
        })
    }

    /// Number of HAUs.
    pub fn len(&self) -> usize {
        self.ops_of_hau.len()
    }

    /// True if there are no HAUs.
    pub fn is_empty(&self) -> bool {
        self.ops_of_hau.is_empty()
    }

    /// All HAU ids.
    pub fn haus(&self) -> impl Iterator<Item = HauId> + '_ {
        (0..self.len()).map(|i| HauId(i as u32))
    }

    /// The HAU containing an operator.
    pub fn hau_of(&self, op: OperatorId) -> HauId {
        self.hau_of_op[op.index()]
    }

    /// Operators inside an HAU.
    pub fn ops_of(&self, hau: HauId) -> &[OperatorId] {
        &self.ops_of_hau[hau.index()]
    }
}

/// The high-level query network between HAUs (Fig. 1.b), derived from a
/// query network plus an HAU assignment. The token protocol, the
/// checkpoint schemes and recovery all operate at this level.
#[derive(Clone, Debug)]
pub struct HauGraph {
    /// HAU-level adjacency, deduplicated, in deterministic order.
    downstream: Vec<Vec<HauId>>,
    /// HAU-level reverse adjacency.
    upstream: Vec<Vec<HauId>>,
    /// HAUs containing at least one source operator.
    sources: Vec<HauId>,
    /// HAUs containing at least one sink operator.
    sinks: Vec<HauId>,
}

impl HauGraph {
    /// Derives the HAU graph. Edges between operators inside the same
    /// HAU become internal data passes (not network connections); edges
    /// across HAUs are deduplicated into one stream per HAU pair.
    pub fn derive(qn: &QueryNetwork, assign: &HauAssignment) -> Result<HauGraph> {
        let n = assign.len();
        let mut down: Vec<BTreeSet<HauId>> = vec![BTreeSet::new(); n];
        let mut up: Vec<BTreeSet<HauId>> = vec![BTreeSet::new(); n];
        for (from, to) in qn.edges() {
            let (hf, ht) = (assign.hau_of(from), assign.hau_of(to));
            if hf != ht {
                down[hf.index()].insert(ht);
                up[ht.index()].insert(hf);
            }
        }
        let sources = assign
            .haus()
            .filter(|h| {
                assign
                    .ops_of(*h)
                    .iter()
                    .any(|op| qn.upstream(*op).is_empty())
            })
            .collect();
        let sinks = assign
            .haus()
            .filter(|h| {
                assign
                    .ops_of(*h)
                    .iter()
                    .any(|op| qn.downstream(*op).is_empty())
            })
            .collect();
        let g = HauGraph {
            downstream: down.into_iter().map(|s| s.into_iter().collect()).collect(),
            upstream: up.into_iter().map(|s| s.into_iter().collect()).collect(),
            sources,
            sinks,
        };
        g.topo_order()
            .map_err(|_| Error::Graph("HAU grouping introduced a cycle".into()))?;
        Ok(g)
    }

    /// Number of HAUs.
    pub fn len(&self) -> usize {
        self.downstream.len()
    }

    /// True if there are no HAUs.
    pub fn is_empty(&self) -> bool {
        self.downstream.is_empty()
    }

    /// All HAU ids.
    pub fn haus(&self) -> impl Iterator<Item = HauId> + '_ {
        (0..self.len()).map(|i| HauId(i as u32))
    }

    /// Downstream HAU neighbours, in output-port order.
    pub fn downstream(&self, h: HauId) -> &[HauId] {
        &self.downstream[h.index()]
    }

    /// Upstream HAU neighbours, in input-port order.
    pub fn upstream(&self, h: HauId) -> &[HauId] {
        &self.upstream[h.index()]
    }

    /// Source HAUs.
    pub fn sources(&self) -> &[HauId] {
        &self.sources
    }

    /// Sink HAUs.
    pub fn sinks(&self) -> &[HauId] {
        &self.sinks
    }

    /// The input port of `to` receiving the stream from `from`.
    pub fn input_port(&self, from: HauId, to: HauId) -> Option<PortId> {
        self.upstream[to.index()]
            .iter()
            .position(|&u| u == from)
            .map(|p| PortId(p as u32))
    }

    /// Number of HAU-level streams.
    pub fn edge_count(&self) -> usize {
        self.downstream.iter().map(Vec::len).sum()
    }

    /// All `(from, to)` HAU streams.
    pub fn edges(&self) -> impl Iterator<Item = (HauId, HauId)> + '_ {
        self.haus()
            .flat_map(move |from| self.downstream(from).iter().map(move |&to| (from, to)))
    }

    /// Kahn topological order over HAUs.
    pub fn topo_order(&self) -> Result<Vec<HauId>> {
        let mut indeg: Vec<usize> = self.upstream.iter().map(Vec::len).collect();
        let mut ready: Vec<HauId> = self.haus().filter(|h| indeg[h.index()] == 0).collect();
        let mut order = Vec::with_capacity(self.len());
        while let Some(h) = ready.pop() {
            order.push(h);
            for &next in self.downstream(h) {
                indeg[next.index()] -= 1;
                if indeg[next.index()] == 0 {
                    ready.push(next);
                }
            }
        }
        if order.len() != self.len() {
            return Err(Error::Graph("HAU graph contains a cycle".into()));
        }
        Ok(order)
    }
}

/// Builds the five-HAU diamond used in the paper's protocol
/// walkthroughs (Figs. 6–7): `1 → 2 → {3, 4} → 5`.
pub fn diamond_example() -> (QueryNetwork, HauAssignment, HauGraph) {
    let mut qn = QueryNetwork::new();
    let s = qn.add_operator("1-source");
    let a = qn.add_operator("2");
    let b = qn.add_operator("3");
    let c = qn.add_operator("4");
    let k = qn.add_operator("5-sink");
    qn.connect(s, a).unwrap();
    qn.connect(a, b).unwrap();
    qn.connect(a, c).unwrap();
    qn.connect(b, k).unwrap();
    qn.connect(c, k).unwrap();
    let assign = HauAssignment::one_per_operator(&qn);
    let graph = HauGraph::derive(&qn, &assign).unwrap();
    (qn, assign, graph)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_ports() {
        let (qn, _, _) = diamond_example();
        assert_eq!(qn.len(), 5);
        assert_eq!(qn.edge_count(), 5);
        assert_eq!(qn.sources(), vec![OperatorId(0)]);
        assert_eq!(qn.sinks(), vec![OperatorId(4)]);
        // Sink's two inputs, in connect order.
        assert_eq!(qn.input_port(OperatorId(2), OperatorId(4)), Some(PortId(0)));
        assert_eq!(qn.input_port(OperatorId(3), OperatorId(4)), Some(PortId(1)));
        assert_eq!(qn.input_port(OperatorId(0), OperatorId(4)), None);
        assert_eq!(
            qn.output_port(OperatorId(1), OperatorId(3)),
            Some(PortId(1))
        );
    }

    #[test]
    fn rejects_bad_edges() {
        let mut qn = QueryNetwork::new();
        let a = qn.add_operator("a");
        let b = qn.add_operator("b");
        assert!(qn.connect(a, a).is_err());
        qn.connect(a, b).unwrap();
        assert!(qn.connect(a, b).is_err());
        assert!(qn.connect(a, OperatorId(99)).is_err());
    }

    #[test]
    fn topo_order_is_consistent() {
        let (qn, _, _) = diamond_example();
        let order = qn.topo_order().unwrap();
        let pos: Vec<usize> = (0..qn.len())
            .map(|i| {
                order
                    .iter()
                    .position(|&o| o == OperatorId(i as u32))
                    .unwrap()
            })
            .collect();
        for (from, to) in qn.edges() {
            assert!(pos[from.index()] < pos[to.index()]);
        }
    }

    #[test]
    fn cycle_is_detected() {
        let mut qn = QueryNetwork::new();
        let a = qn.add_operator("a");
        let b = qn.add_operator("b");
        let c = qn.add_operator("c");
        qn.connect(a, b).unwrap();
        qn.connect(b, c).unwrap();
        qn.connect(c, a).unwrap();
        assert!(qn.topo_order().is_err());
        assert!(qn.validate().is_err());
    }

    #[test]
    fn validate_requires_sources_and_sinks() {
        let qn = QueryNetwork::new();
        assert!(qn.validate().is_err());
        let (qn, _, _) = diamond_example();
        assert!(qn.validate().is_ok());
    }

    #[test]
    fn hau_graph_one_per_operator_mirrors_query_network() {
        let (qn, assign, graph) = diamond_example();
        assert_eq!(graph.len(), qn.len());
        assert_eq!(graph.edge_count(), qn.edge_count());
        assert_eq!(graph.sources(), &[HauId(0)]);
        assert_eq!(graph.sinks(), &[HauId(4)]);
        assert_eq!(assign.hau_of(OperatorId(3)), HauId(3));
        assert_eq!(graph.upstream(HauId(4)), &[HauId(2), HauId(3)]);
    }

    #[test]
    fn grouping_dedups_edges_and_internalizes_passes() {
        let (qn, _, _) = diamond_example();
        // Group the two middle parallel operators with the splitter:
        // {1}, {2,3,4}, {5}.
        let assign = HauAssignment::from_groups(
            &qn,
            vec![
                vec![OperatorId(0)],
                vec![OperatorId(1), OperatorId(2), OperatorId(3)],
                vec![OperatorId(4)],
            ],
        )
        .unwrap();
        let graph = HauGraph::derive(&qn, &assign).unwrap();
        assert_eq!(graph.len(), 3);
        // op2->op3 and op2->op4 are internal; both paths into the sink
        // dedup into a single HAU-level stream.
        assert_eq!(graph.edge_count(), 2);
        assert_eq!(graph.downstream(HauId(1)), &[HauId(2)]);
    }

    #[test]
    fn grouping_rejects_overlap_and_gaps() {
        let (qn, _, _) = diamond_example();
        assert!(HauAssignment::from_groups(&qn, vec![vec![OperatorId(0)]]).is_err());
        assert!(HauAssignment::from_groups(
            &qn,
            vec![
                vec![OperatorId(0), OperatorId(1)],
                vec![OperatorId(1), OperatorId(2)],
                vec![OperatorId(3), OperatorId(4)],
            ],
        )
        .is_err());
    }

    #[test]
    fn grouping_that_creates_hau_cycle_is_rejected() {
        // a -> b -> c with {a, c} grouped creates hau0 <-> hau1.
        let mut qn = QueryNetwork::new();
        let a = qn.add_operator("a");
        let b = qn.add_operator("b");
        let c = qn.add_operator("c");
        qn.connect(a, b).unwrap();
        qn.connect(b, c).unwrap();
        let assign = HauAssignment::from_groups(&qn, vec![vec![a, c], vec![b]]).unwrap();
        assert!(HauGraph::derive(&qn, &assign).is_err());
    }
}
