//! HAU-to-node placement.
//!
//! The paper's evaluation places 55 HAUs on 55 compute nodes with one
//! node reserved for shared storage + controller. On failure, "the
//! HAUs on those failed nodes are restarted on other healthy nodes" —
//! the engine models that by bringing replacement capacity up under
//! the failed nodes' ids, so a placement never changes once made.

use ms_core::error::{Error, Result};
use ms_core::ids::{HauId, NodeId};

use crate::cluster::Cluster;

/// An HAU → node mapping.
#[derive(Clone, Debug)]
pub struct Placement {
    node_of_hau: Vec<NodeId>,
}

impl Placement {
    /// Round-robin placement of `haus` HAUs over all nodes except the
    /// `reserved` ones (e.g. the storage/controller node).
    pub fn round_robin(haus: usize, cluster: &Cluster, reserved: &[NodeId]) -> Result<Placement> {
        let candidates: Vec<NodeId> = (0..cluster.len())
            .map(|i| NodeId(i as u32))
            .filter(|n| !reserved.contains(n))
            .collect();
        if candidates.is_empty() {
            return Err(Error::Config("no placeable nodes".into()));
        }
        let node_of_hau = (0..haus)
            .map(|i| candidates[i % candidates.len()])
            .collect();
        Ok(Placement { node_of_hau })
    }

    /// The node currently hosting an HAU.
    pub fn node_of(&self, hau: HauId) -> NodeId {
        self.node_of_hau[hau.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;

    fn cluster(n: usize) -> Cluster {
        Cluster::new(ClusterConfig {
            nodes: n,
            nodes_per_rack: 4,
            ..ClusterConfig::default()
        })
    }

    #[test]
    fn round_robin_skips_reserved() {
        let c = cluster(4);
        let p = Placement::round_robin(6, &c, &[NodeId(0)]).unwrap();
        for i in 0..6 {
            assert_ne!(p.node_of(HauId(i)), NodeId(0));
        }
        // 6 HAUs over 3 nodes: 2 each.
        for n in 1..4u32 {
            let on_n = (0..6).filter(|&i| p.node_of(HauId(i)) == NodeId(n));
            assert_eq!(on_n.count(), 2);
        }
    }

    #[test]
    fn no_placeable_nodes_is_an_error() {
        let c = cluster(1);
        assert!(Placement::round_robin(1, &c, &[NodeId(0)]).is_err());
    }
}
