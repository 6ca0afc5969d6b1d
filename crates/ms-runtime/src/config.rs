//! Engine configuration.

use ms_core::aware::AwareConfig;
use ms_core::config::{CheckpointConfig, SchemeKind};
use ms_core::ids::NodeId;
use ms_core::time::{SimDuration, SimTime};
use ms_sim::net::NetConfig;
use ms_sim::storage::StorageConfig;

/// Which nodes a planned failure takes down.
#[derive(Clone, Debug)]
pub enum FailTarget {
    /// Every compute node hosting an HAU — the paper's worst case
    /// (§IV-C).
    AllComputeNodes,
    /// A specific set of nodes.
    Nodes(Vec<NodeId>),
}

/// A scheduled failure injection.
#[derive(Clone, Debug)]
pub struct FailurePlan {
    /// Absolute virtual time of the failure.
    pub at: SimTime,
    /// Scope.
    pub target: FailTarget,
}

/// Full engine configuration. Defaults reproduce the paper's EC2
/// deployment: 55 HAU nodes + 1 storage/controller node, two-core
/// 2.3 GHz instances, 1 Gbps Ethernet (see DESIGN.md §2 for the
/// calibration of the storage-bandwidth figures).
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Fault-tolerance scheme under test.
    pub scheme: SchemeKind,
    /// Checkpoint cadence.
    pub ckpt: CheckpointConfig,
    /// Network cost model.
    pub net: NetConfig,
    /// Storage cost model.
    pub storage: StorageConfig,
    /// Master random seed.
    pub seed: u64,
    /// Warm-up window (also the application-aware profiling window).
    pub warmup: SimDuration,
    /// Measurement window (the paper uses 10 minutes).
    pub measure: SimDuration,
    /// State-size sampling cadence (Fig. 5 traces, aa controller).
    pub sample_interval: SimDuration,
    /// State serialization rate, bytes/s ("other" phase of Fig. 14).
    pub serialize_bw: u64,
    /// State deserialization rate, bytes/s (recovery phase 3).
    pub deserialize_bw: u64,
    /// Fixed cost of forking the checkpoint child process.
    pub fork_fixed: SimDuration,
    /// Per-byte cost of fork (page-table setup), seconds per byte.
    pub fork_per_byte: f64,
    /// Parent slowdown while a COW child is live (§III-B): fraction
    /// added to service times (page copy-on-write traffic).
    pub cow_overhead: f64,
    /// Per-byte rate at which a baseline HAU saves its output tuples
    /// for input preservation, bytes/s (buffer copy + serialization;
    /// the per-hop input-preservation tax of §II-B3). Charged as
    /// `preserve_overhead + bytes / preserve_cpu_bw` per tuple.
    pub preserve_cpu_bw: u64,
    /// Fixed per-tuple overhead of the intermediate-hop save (buffer
    /// bookkeeping, small-write syscalls).
    pub preserve_overhead: SimDuration,
    /// Append bandwidth seen by one source HAU writing its preserved
    /// tuples to the shared storage (GFS-style pipelined streaming
    /// append), bytes/s. Charged inline per source ("the source HAU
    /// saves these tuples in stable storage before sending them out")
    /// as `append_overhead + bytes / source_log_bw`.
    pub source_log_bw: u64,
    /// Fixed per-tuple overhead of the source append (both schemes'
    /// source-side saving pays this).
    pub append_overhead: SimDuration,
    /// Recovery phase 1: reloading one HAU's operators.
    pub op_load_time: SimDuration,
    /// Recovery phase 4: controller reconnection cost per HAU.
    pub reconnect_per_hau: SimDuration,
    /// Failure-detection latency (controller ping timeout).
    pub detect_delay: SimDuration,
    /// Global backpressure window: sources pause while at least this
    /// many logical *bytes* of data tuples are queued inside the
    /// application (a safety net above the per-channel caps).
    pub inflight_cap: u64,
    /// Per-channel receiver-buffer bound in logical bytes (bounded
    /// stream buffers + TCP flow control): a sender whose target
    /// channel is at the cap stalls until the receiver drains — this
    /// hop-by-hop backpressure is what lets one suspended HAU starve
    /// the pipeline (the baseline's checkpoint disruption).
    pub channel_cap: u64,
    /// If non-empty, checkpoints fire exactly at these absolute times
    /// instead of periodically (Fig. 15 single-checkpoint runs and the
    /// Fig. 14/16 Oracle).
    pub forced_checkpoints: Vec<SimTime>,
    /// Optional failure injection.
    pub failure: Option<FailurePlan>,
    /// Application-aware tuning.
    pub aware: AwareConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            scheme: SchemeKind::MsSrcAp,
            ckpt: CheckpointConfig::default(),
            net: NetConfig::default(),
            storage: StorageConfig::default(),
            seed: 42,
            warmup: SimDuration::from_secs(60),
            measure: SimDuration::from_secs(600),
            sample_interval: SimDuration::from_secs(2),
            serialize_bw: 50_000_000,
            deserialize_bw: 100_000_000,
            fork_fixed: SimDuration::from_millis(30),
            fork_per_byte: 1.0e-9,
            cow_overhead: 0.08,
            preserve_cpu_bw: 30_000_000,
            preserve_overhead: SimDuration::from_millis(3),
            source_log_bw: 60_000_000,
            append_overhead: SimDuration::from_millis(1),
            op_load_time: SimDuration::from_secs(1),
            reconnect_per_hau: SimDuration::from_millis(30),
            detect_delay: SimDuration::from_secs(2),
            inflight_cap: 512_000_000,
            channel_cap: 4_000_000,
            forced_checkpoints: Vec::new(),
            failure: None,
            aware: AwareConfig::default(),
        }
    }
}

impl EngineConfig {
    /// Convenience: a config for scheme `s` with `n` checkpoints in the
    /// 10-minute measurement window (the Fig. 12/13 sweep knob).
    pub fn sweep(s: SchemeKind, n_checkpoints: u32) -> EngineConfig {
        EngineConfig {
            scheme: s,
            ckpt: CheckpointConfig::n_in_window(n_checkpoints, SimDuration::from_secs(600)),
            ..EngineConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_sets_period() {
        let c = EngineConfig::sweep(SchemeKind::MsSrc, 4);
        assert_eq!(c.ckpt.period, SimDuration::from_secs(150));
        assert!(EngineConfig::sweep(SchemeKind::MsSrc, 0).ckpt.disabled());
    }
}
