//! Simulated cluster network.
//!
//! Meteor Shower "assumes that TCP/IP protocol is used for the network
//! communication. Network packets are delivered in-order and will not
//! be lost silently" (§III). This module models exactly that contract on
//! virtual time:
//!
//! * every node has a full-duplex NIC of configurable bandwidth
//!   (1 Gbps in the paper's EC2 setup) — egress transfers serialize
//!   FIFO per sender;
//! * every message pays a propagation latency;
//! * delivery on a directed channel `(from, to)` is in-order;
//! * failures are fail-stop: a send to/from a down node returns
//!   [`SendOutcome::Unreachable`] — the message vanishes and the sender
//!   can observe the broken connection, never a silent loss of an
//!   otherwise healthy channel.
//!
//! The module is a *cost model*: it computes delivery instants; the
//! runtime owns payloads and schedules its own delivery events. That
//! keeps the substrate reusable by any event alphabet.

use std::collections::HashMap;

use ms_core::ids::NodeId;
use ms_core::time::{transfer_time, SimDuration, SimTime};

/// Network configuration.
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// One-way propagation + protocol latency per message.
    pub latency: SimDuration,
    /// Per-node NIC bandwidth, bytes/second, each direction.
    /// 1 Gbps Ethernet ≈ 125 MB/s.
    pub node_bandwidth: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            // Intra-data-center RTT ~ 500 µs; one way 250 µs.
            latency: SimDuration::from_micros(250),
            node_bandwidth: 125_000_000,
        }
    }
}

/// Result of asking the network to carry a message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendOutcome {
    /// The message will arrive at the destination at this instant.
    Delivered(SimTime),
    /// Source or destination is down; nothing is delivered
    /// and the sender may treat the connection as broken (fail-stop).
    ///
    /// This is the cost-model twin of what the real transport
    /// (`ms-wire`) observes against a dead peer: `connection refused` /
    /// `broken pipe` on the sending side (surfaced as
    /// `ms_core::error::Error::Wire`) and a bare socket close or torn
    /// frame on the receiving side. In both worlds a failed channel is
    /// *visible* to the endpoints — never a silent loss on an
    /// otherwise healthy link.
    Unreachable,
}

impl SendOutcome {
    /// The delivery time, if delivered.
    pub fn time(self) -> Option<SimTime> {
        match self {
            SendOutcome::Delivered(t) => Some(t),
            SendOutcome::Unreachable => None,
        }
    }
}

/// The simulated network.
#[derive(Clone, Debug)]
pub struct Network {
    cfg: NetConfig,
    /// Egress NIC busy-until per node (FIFO serialization).
    egress_busy: Vec<SimTime>,
    /// Last delivery time per directed channel, enforcing in-order
    /// delivery even when later sends are smaller/faster.
    channel_last: HashMap<(NodeId, NodeId), SimTime>,
    /// Node liveness (updated by the cluster layer).
    up: Vec<bool>,
}

impl Network {
    /// Creates a network over `n` nodes, all up.
    pub fn new(cfg: NetConfig, n: usize) -> Network {
        Network {
            cfg,
            egress_busy: vec![SimTime::ZERO; n],
            channel_last: HashMap::new(),
            up: vec![true; n],
        }
    }

    /// Marks a node down (fail-stop) or back up.
    pub fn set_node_up(&mut self, node: NodeId, up: bool) {
        self.up[node.index()] = up;
        if up {
            // A restarted node has an idle NIC and fresh channels.
            self.egress_busy[node.index()] = SimTime::ZERO;
            self.channel_last
                .retain(|&(a, b), _| a != node && b != node);
        }
    }

    /// True if `a` can currently reach `b`.
    fn reachable(&self, a: NodeId, b: NodeId) -> bool {
        self.up[a.index()] && self.up[b.index()]
    }

    /// Asks the network to carry `bytes` from `from` to `to`, with the
    /// send initiated at `now`. Messages on the same node co-located
    /// (`from == to`) bypass the NIC and arrive instantly (intra-node
    /// data pass within an SPE).
    pub fn send(&mut self, now: SimTime, from: NodeId, to: NodeId, bytes: u64) -> SendOutcome {
        if !self.reachable(from, to) {
            return SendOutcome::Unreachable;
        }
        if from == to {
            return SendOutcome::Delivered(now);
        }
        let start = now.max(self.egress_busy[from.index()]);
        let xfer = transfer_time(bytes, self.cfg.node_bandwidth);
        let done_sending = start + xfer;
        self.egress_busy[from.index()] = done_sending;
        let mut arrival = done_sending + self.cfg.latency;
        // In-order delivery per directed channel.
        let last = self.channel_last.entry((from, to)).or_insert(SimTime::ZERO);
        arrival = arrival.max(*last);
        *last = arrival;
        SendOutcome::Delivered(arrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Network {
        Network::new(
            NetConfig {
                latency: SimDuration::from_micros(100),
                node_bandwidth: 1_000_000, // 1 MB/s for easy numbers
            },
            4,
        )
    }

    #[test]
    fn delivery_includes_serialization_and_latency() {
        let mut n = net();
        // 1 MB at 1 MB/s = 1 s, plus 100 µs latency.
        let out = n.send(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000);
        assert_eq!(out, SendOutcome::Delivered(SimTime::from_micros(1_000_100)));
    }

    #[test]
    fn egress_serializes_fifo() {
        let mut n = net();
        let a = n
            .send(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000)
            .time()
            .unwrap();
        // Second message (to a different destination) waits for the NIC.
        let b = n
            .send(SimTime::ZERO, NodeId(0), NodeId(2), 1_000_000)
            .time()
            .unwrap();
        assert_eq!(b.as_micros() - a.as_micros(), 1_000_000);
    }

    #[test]
    fn per_channel_in_order() {
        let mut n = net();
        let big = n
            .send(SimTime::ZERO, NodeId(0), NodeId(1), 2_000_000)
            .time()
            .unwrap();
        let small = n
            .send(SimTime::ZERO, NodeId(0), NodeId(1), 10)
            .time()
            .unwrap();
        assert!(small >= big, "later send must not overtake");
    }

    #[test]
    fn local_delivery_is_instant() {
        let mut n = net();
        assert_eq!(
            n.send(SimTime::from_secs(5), NodeId(2), NodeId(2), 1 << 30),
            SendOutcome::Delivered(SimTime::from_secs(5))
        );
    }

    #[test]
    fn down_nodes_are_unreachable() {
        let mut n = net();
        n.set_node_up(NodeId(1), false);
        assert_eq!(
            n.send(SimTime::ZERO, NodeId(0), NodeId(1), 10),
            SendOutcome::Unreachable
        );
        assert_eq!(
            n.send(SimTime::ZERO, NodeId(1), NodeId(0), 10),
            SendOutcome::Unreachable
        );
        n.set_node_up(NodeId(1), true);
        assert!(n
            .send(SimTime::ZERO, NodeId(0), NodeId(1), 10)
            .time()
            .is_some());
    }

    #[test]
    fn restart_resets_channel_ordering_state() {
        let mut n = net();
        // Build up channel history, then bounce the node.
        n.send(SimTime::ZERO, NodeId(0), NodeId(1), 5_000_000);
        n.set_node_up(NodeId(1), false);
        n.set_node_up(NodeId(1), true);
        // A fresh post-restart send is not held behind the pre-failure
        // delivery horizon of the old channel.
        let t = n
            .send(SimTime::from_secs(1), NodeId(0), NodeId(1), 10)
            .time()
            .unwrap();
        assert!(
            t < SimTime::from_secs(6),
            "fresh channel after restart: {t:?}"
        );
    }
}
