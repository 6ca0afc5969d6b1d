//! Cluster model: nodes, racks, liveness, HAU placement, and the
//! commodity-data-center failure model of Table I.
//!
//! The paper's target platform is a commodity data center "like
//! Google's" — 2400+ nodes, 30+ racks, 80 blade servers per rack —
//! where failures are frequent, dominated by network/environment/ooops
//! causes, and about 10% of them arrive in rack- or power-correlated
//! bursts (§II-B1). [`FailureModel`] encodes that model generatively;
//! the `table1` experiment regenerates the paper's AFN100 table from
//! it.

pub use crate::failure::{FailureEvent, FailureModel, FailureScope, FailureSource, IncidentClass};
pub use crate::placement::Placement;

use ms_core::ids::{NodeId, RackId};

/// Static description of a cluster.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Total node count (the paper's evaluation uses 56).
    pub nodes: usize,
    /// Nodes per rack (Google's figure: 80 blades/rack).
    pub nodes_per_rack: usize,
    /// Cores per node (EC2 instances with two 2.3 GHz cores).
    pub cores_per_node: u32,
    /// Memory per node (1.7 GB in the paper's evaluation).
    pub mem_bytes: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 56,
            nodes_per_rack: 80,
            cores_per_node: 2,
            mem_bytes: 1_700_000_000,
        }
    }
}

impl ClusterConfig {
    /// A Google-scale data center (for failure-model experiments).
    pub fn google_dc() -> ClusterConfig {
        ClusterConfig {
            nodes: 2400,
            nodes_per_rack: 80,
            cores_per_node: 2,
            mem_bytes: 8_000_000_000,
        }
    }
}

/// Mutable cluster state: which nodes are up, and their rack layout.
#[derive(Clone, Debug)]
pub struct Cluster {
    cfg: ClusterConfig,
    up: Vec<bool>,
    rack_of: Vec<RackId>,
}

impl Cluster {
    /// Builds a cluster with sequential rack assignment.
    pub fn new(cfg: ClusterConfig) -> Cluster {
        let rack_of = (0..cfg.nodes)
            .map(|i| RackId((i / cfg.nodes_per_rack) as u32))
            .collect();
        Cluster {
            up: vec![true; cfg.nodes],
            rack_of,
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Node count.
    pub fn len(&self) -> usize {
        self.up.len()
    }

    /// True if the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.up.is_empty()
    }

    /// Number of racks.
    pub fn racks(&self) -> usize {
        self.cfg.nodes.div_ceil(self.cfg.nodes_per_rack)
    }

    /// The rack containing a node.
    pub fn rack_of(&self, node: NodeId) -> RackId {
        self.rack_of[node.index()]
    }

    /// All nodes in a rack.
    pub fn nodes_in_rack(&self, rack: RackId) -> Vec<NodeId> {
        (0..self.len())
            .map(|i| NodeId(i as u32))
            .filter(|n| self.rack_of(*n) == rack)
            .collect()
    }

    /// Marks a node up/down.
    pub fn set_up(&mut self, node: NodeId, up: bool) {
        self.up[node.index()] = up;
    }

    /// True if the node is up.
    pub fn up(&self, node: NodeId) -> bool {
        self.up[node.index()]
    }

    /// All currently-alive nodes.
    pub fn alive(&self) -> Vec<NodeId> {
        (0..self.len())
            .map(|i| NodeId(i as u32))
            .filter(|n| self.up(*n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rack_layout() {
        let c = Cluster::new(ClusterConfig {
            nodes: 10,
            nodes_per_rack: 4,
            ..ClusterConfig::default()
        });
        assert_eq!(c.racks(), 3);
        assert_eq!(c.rack_of(NodeId(0)), RackId(0));
        assert_eq!(c.rack_of(NodeId(5)), RackId(1));
        assert_eq!(c.rack_of(NodeId(9)), RackId(2));
        assert_eq!(c.nodes_in_rack(RackId(1)).len(), 4);
        assert_eq!(c.nodes_in_rack(RackId(2)).len(), 2);
    }

    #[test]
    fn liveness() {
        let mut c = Cluster::new(ClusterConfig {
            nodes: 4,
            nodes_per_rack: 2,
            ..ClusterConfig::default()
        });
        assert_eq!(c.alive().len(), 4);
        c.set_up(NodeId(1), false);
        assert!(!c.up(NodeId(1)));
        assert_eq!(c.alive(), vec![NodeId(0), NodeId(2), NodeId(3)]);
    }
}
