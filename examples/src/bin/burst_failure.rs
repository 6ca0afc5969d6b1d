//! Surviving a correlated burst failure (the paper's motivating
//! scenario, §II-B1): a rack failure takes out a batch of TMI's nodes
//! mid-run; Meteor Shower rolls the whole application back to the most
//! recent complete checkpoint, replays the preserved source tuples,
//! and keeps streaming.
//!
//! Run with `cargo run --release -p ms-examples --bin burst_failure`.

use ms_apps::Tmi;
use ms_core::config::{CheckpointConfig, SchemeKind};
use ms_core::ids::NodeId;
use ms_core::time::{SimDuration, SimTime};
use ms_runtime::{Engine, EngineConfig, FailTarget, FailurePlan};
use ms_sim::cluster::{Cluster, ClusterConfig, FailureModel};
use ms_sim::DetRng;

fn main() {
    // Draw a realistic burst from the Table-I failure model: the first
    // rack-failure incident of a sampled year, mapped onto the 56-node
    // deployment.
    let dc = Cluster::new(ClusterConfig::google_dc());
    let mut rng = DetRng::new(7);
    let events = FailureModel::google().sample(&dc, 1.0, &mut rng);
    let burst = events
        .iter()
        .find(|e| e.name == "rack failure")
        .expect("rack failures happen ~20x/year");
    // Map the first 14 affected nodes onto compute nodes 1..=14 (a
    // quarter of the deployment failing at once).
    let nodes: Vec<NodeId> = (1..=14).map(NodeId).collect();
    println!(
        "injected burst: '{}' ({} nodes in the model; mapped to {} deployment nodes)",
        burst.name,
        burst.nodes.len(),
        nodes.len()
    );

    let cfg = EngineConfig {
        scheme: SchemeKind::MsSrcAp,
        ckpt: CheckpointConfig::n_in_window(3, SimDuration::from_secs(600)),
        warmup: SimDuration::from_secs(60),
        measure: SimDuration::from_secs(600),
        failure: Some(FailurePlan {
            at: SimTime::from_secs(360),
            target: FailTarget::Nodes(nodes),
        }),
        ..EngineConfig::default()
    };
    let report = Engine::new(Tmi::default_app(), cfg)
        .expect("valid app")
        .run();

    println!(
        "\nTMI under MS-src+ap: processed {} tuples ({:.0}/s) across the window",
        report.metrics.processed_tuples,
        report.throughput()
    );
    for r in &report.recoveries {
        println!(
            "recovery: failed at {}, detected at {}, recovered at {}",
            r.failed_at, r.detected_at, r.recovered_at
        );
        println!(
            "  restored {} HAUs from {} | recovery time {:.2}s | replayed {} preserved tuples",
            r.restarted_haus,
            r.epoch,
            r.recovery_time().as_secs_f64(),
            r.replayed_tuples
        );
        for (phase, d) in r.breakdown.parts() {
            println!("  {phase}: {:.2}s", d.as_secs_f64());
        }
    }
    let after_failure = report
        .metrics
        .instantaneous_latency
        .points()
        .iter()
        .filter(|(t, _)| t.as_secs_f64() > 420.0)
        .count();
    println!("tuples completing after recovery: {after_failure} (the stream kept flowing)");
    println!(
        "\n(the baseline scheme \"can only handle single node failures\" — a burst\n\
         of this size is unrecoverable for it; Meteor Shower's whole-application\n\
         rollback plus source replay is what makes the burst survivable)"
    );
}
