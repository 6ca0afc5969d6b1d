//! The Table-I failure model.
//!
//! Table I of the paper reports commodity-data-center failure rates as
//! AFN100 — "the average number of node failures observed across 100
//! nodes running through a year" — broken down by cause:
//!
//! | Source      | Google DC | Abe cluster |
//! |-------------|-----------|-------------|
//! | Network     | >300      | ~250        |
//! | Environment | 100–150   | NA          |
//! | Ooops       | ~100      | ~40         |
//! | Disk        | 1.7–8.6   | 2–6         |
//! | Memory      | 1.3       | NA          |
//!
//! The Google network figure is derived in §II-B1 from one year of
//! incidents: one rewiring (5% of nodes), twenty rack failures (80
//! nodes each), five rack unsteadiness events (80 nodes), fifteen
//! router failures/reloads and eight network maintenances (10% of
//! nodes each, conservatively) — 7640 node-failures over 2400 nodes,
//! AFN100 > 300. This module encodes those incident classes
//! generatively so the table can be *regenerated* by sampling, and so
//! integration tests can inject realistic correlated bursts.

use crate::cluster::Cluster;
use crate::DetRng;
use ms_core::ids::NodeId;
use ms_core::time::{SimDuration, SimTime};

/// Failure cause categories of Table I.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FailureSource {
    /// Rack, switch, router and DNS malfunctions. A major source of
    /// large-scale burst failures.
    Network,
    /// Power outage, overheating, maintenance. The other major burst
    /// source.
    Environment,
    /// Software faults, operator mistakes, unknown causes.
    Ooops,
    /// Uncorrectable disk errors (correctable scan/seek/CRC errors are
    /// excluded, following Table I).
    Disk,
    /// Uncorrectable memory errors (ECC-correctable soft errors are
    /// excluded).
    Memory,
}

impl FailureSource {
    /// All categories in Table I's row order.
    pub const ALL: [FailureSource; 5] = [
        FailureSource::Network,
        FailureSource::Environment,
        FailureSource::Ooops,
        FailureSource::Disk,
        FailureSource::Memory,
    ];

    /// Table I row label.
    pub fn label(self) -> &'static str {
        match self {
            FailureSource::Network => "Network",
            FailureSource::Environment => "Environment",
            FailureSource::Ooops => "Ooops",
            FailureSource::Disk => "Disk",
            FailureSource::Memory => "Memory",
        }
    }
}

/// How many nodes one incident takes down.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FailureScope {
    /// One node.
    SingleNode,
    /// Every node in one rack (highly rack-correlated bursts).
    Rack,
    /// A random fraction of all nodes (rewirings, router failures,
    /// power events).
    Fraction(f64),
}

/// One incident class: e.g. "rack failure: 20 per year, whole rack,
/// 1–6 h to recover".
#[derive(Clone, Debug)]
pub struct IncidentClass {
    /// Descriptive name.
    pub name: &'static str,
    /// Table I category this class contributes to.
    pub source: FailureSource,
    /// Expected incidents per year for the whole data center (scaled
    /// by cluster size relative to 2400 nodes for per-node causes).
    pub per_year: f64,
    /// True if `per_year` counts per-2400-node fleet and should scale
    /// linearly with cluster size (disk/memory/ooops); false for
    /// fleet-wide infrastructure events (rewiring, maintenance).
    pub scales_with_nodes: bool,
    /// Blast radius.
    pub scope: FailureScope,
    /// Recovery time range (uniform), e.g. rack failures "take 1–6
    /// hours to recover".
    pub recovery: (SimDuration, SimDuration),
}

/// A sampled failure incident.
#[derive(Clone, Debug)]
pub struct FailureEvent {
    /// When the incident strikes.
    pub at: SimTime,
    /// Category.
    pub source: FailureSource,
    /// Incident class name.
    pub name: &'static str,
    /// Affected nodes.
    pub nodes: Vec<NodeId>,
    /// Time until the affected nodes return.
    pub recovery: SimDuration,
}

impl FailureEvent {
    /// True if this incident downs more than one node — "part of a
    /// correlated burst" in the paper's terminology.
    pub fn is_burst(&self) -> bool {
        self.nodes.len() > 1
    }
}

/// A generative failure model: a set of incident classes.
#[derive(Clone, Debug)]
pub struct FailureModel {
    classes: Vec<IncidentClass>,
    /// The fleet size the non-scaling incident rates were calibrated
    /// against (2400 for the Google model).
    reference_nodes: f64,
}

const HOUR: SimDuration = SimDuration::from_secs(3600);

impl FailureModel {
    /// The Google data-center model of §II-B1 (2400 nodes reference).
    pub fn google() -> FailureModel {
        let classes = vec![
            // --- Network: 7640 node-failures/year over 2400 nodes ---
            IncidentClass {
                name: "network rewiring",
                source: FailureSource::Network,
                per_year: 1.0,
                scales_with_nodes: false,
                scope: FailureScope::Fraction(0.05),
                recovery: (HOUR, HOUR * 6),
            },
            IncidentClass {
                name: "rack failure",
                source: FailureSource::Network,
                per_year: 20.0,
                scales_with_nodes: false,
                scope: FailureScope::Rack,
                recovery: (HOUR, HOUR * 6),
            },
            IncidentClass {
                name: "rack unsteadiness",
                source: FailureSource::Network,
                per_year: 5.0,
                scales_with_nodes: false,
                scope: FailureScope::Rack,
                recovery: (SimDuration::from_secs(600), HOUR),
            },
            IncidentClass {
                name: "router failure/reload",
                source: FailureSource::Network,
                per_year: 15.0,
                scales_with_nodes: false,
                scope: FailureScope::Fraction(0.10),
                recovery: (SimDuration::from_secs(300), HOUR),
            },
            IncidentClass {
                name: "network maintenance",
                source: FailureSource::Network,
                per_year: 8.0,
                scales_with_nodes: false,
                scope: FailureScope::Fraction(0.10),
                recovery: (SimDuration::from_secs(1800), HOUR * 2),
            },
            // --- Environment: AFN100 100-150 (≈3000 node-failures) ---
            IncidentClass {
                name: "power event",
                source: FailureSource::Environment,
                per_year: 2.0,
                scales_with_nodes: false,
                scope: FailureScope::Fraction(0.50),
                recovery: (HOUR, HOUR * 8),
            },
            IncidentClass {
                name: "overheating/maintenance",
                source: FailureSource::Environment,
                per_year: 4.0,
                scales_with_nodes: false,
                scope: FailureScope::Fraction(0.0625),
                recovery: (HOUR, HOUR * 4),
            },
            // --- Ooops: ~100 AFN100, mostly independent nodes ---
            IncidentClass {
                name: "software/operator error",
                source: FailureSource::Ooops,
                per_year: 2400.0,
                scales_with_nodes: true,
                scope: FailureScope::SingleNode,
                recovery: (SimDuration::from_secs(300), HOUR * 2),
            },
            // --- Disk: 1.7-8.6 AFN100 uncorrectable ---
            IncidentClass {
                name: "uncorrectable disk error",
                source: FailureSource::Disk,
                per_year: 120.0,
                scales_with_nodes: true,
                scope: FailureScope::SingleNode,
                recovery: (HOUR * 2, HOUR * 24),
            },
            // --- Memory: 1.3 AFN100 uncorrectable ---
            IncidentClass {
                name: "uncorrectable memory error",
                source: FailureSource::Memory,
                per_year: 31.0,
                scales_with_nodes: true,
                scope: FailureScope::SingleNode,
                recovery: (HOUR, HOUR * 8),
            },
        ];
        FailureModel {
            classes,
            reference_nodes: 2400.0,
        }
    }

    /// The NCSA Abe cluster model (InfiniBand network, RAID6 storage;
    /// lower network rate, no environment/memory data).
    pub fn abe() -> FailureModel {
        let mut m = FailureModel::google();
        m.classes
            .retain(|c| !matches!(c.source, FailureSource::Environment | FailureSource::Memory));
        for c in &mut m.classes {
            match c.source {
                // ~250 AFN100: scale the Google network classes down.
                FailureSource::Network => c.per_year *= 250.0 / 318.0,
                // ~40 AFN100.
                FailureSource::Ooops => c.per_year *= 40.0 / 100.0,
                // 2-6 AFN100: RAID6 absorbs most disk faults.
                FailureSource::Disk => c.per_year *= 4.0 / 5.0,
                _ => {}
            }
        }
        m
    }

    /// The incident classes.
    pub fn classes(&self) -> &[IncidentClass] {
        &self.classes
    }

    /// Samples every incident over `years` of operation of `cluster`.
    /// Incident counts are Poisson; arrival times are uniform over the
    /// horizon; blast radii follow each class's scope.
    pub fn sample(&self, cluster: &Cluster, years: f64, rng: &mut DetRng) -> Vec<FailureEvent> {
        let horizon_secs = years * 365.0 * 24.0 * 3600.0;
        let node_scale = cluster.len() as f64 / self.reference_nodes;
        let mut events = Vec::new();
        for class in &self.classes {
            let rate = class.per_year
                * years
                * if class.scales_with_nodes {
                    node_scale
                } else {
                    1.0
                };
            let count = rng.poisson(rate);
            for _ in 0..count {
                let at = SimTime::from_secs(rng.range_f64(0.0, horizon_secs) as u64);
                let nodes = self.blast_radius(cluster, class.scope, rng);
                if nodes.is_empty() {
                    continue;
                }
                let recovery = SimDuration::from_secs(rng.range_u64(
                    class.recovery.0.as_micros() / 1_000_000,
                    (class.recovery.1.as_micros() / 1_000_000).max(1),
                ));
                events.push(FailureEvent {
                    at,
                    source: class.source,
                    name: class.name,
                    nodes,
                    recovery,
                });
            }
        }
        events.sort_by_key(|e| e.at);
        events
    }

    fn blast_radius(
        &self,
        cluster: &Cluster,
        scope: FailureScope,
        rng: &mut DetRng,
    ) -> Vec<NodeId> {
        match scope {
            FailureScope::SingleNode => {
                vec![NodeId(rng.range_u64(0, cluster.len() as u64) as u32)]
            }
            FailureScope::Rack => {
                let rack = rng.range_u64(0, cluster.racks() as u64) as u32;
                cluster.nodes_in_rack(ms_core::ids::RackId(rack))
            }
            FailureScope::Fraction(f) => {
                let want = ((cluster.len() as f64 * f).round() as usize).max(1);
                // Contiguous span approximates the spatial correlation
                // of infrastructure failures.
                let start = rng.range_u64(0, cluster.len() as u64) as usize;
                (0..want)
                    .map(|k| NodeId(((start + k) % cluster.len()) as u32))
                    .collect()
            }
        }
    }

    /// Computes AFN100 per failure source from sampled events:
    /// `node-failures / nodes * 100 / years`.
    pub fn afn100(events: &[FailureEvent], nodes: usize, years: f64) -> Vec<(FailureSource, f64)> {
        FailureSource::ALL
            .iter()
            .map(|&src| {
                let node_failures: usize = events
                    .iter()
                    .filter(|e| e.source == src)
                    .map(|e| e.nodes.len())
                    .sum();
                (src, node_failures as f64 / nodes as f64 * 100.0 / years)
            })
            .collect()
    }

    /// Fraction of failure events that are part of a correlated burst
    /// (≥ 2 nodes). The paper observes "about 10% failures in the data
    /// center are correlated and occur in bursts".
    pub fn burst_fraction(events: &[FailureEvent]) -> f64 {
        if events.is_empty() {
            return 0.0;
        }
        events.iter().filter(|e| e.is_burst()).count() as f64 / events.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;

    fn google_cluster() -> Cluster {
        Cluster::new(ClusterConfig::google_dc())
    }

    #[test]
    fn google_afn100_matches_table1() {
        let cluster = google_cluster();
        let model = FailureModel::google();
        let mut rng = DetRng::new(1);
        let years = 20.0;
        let events = model.sample(&cluster, years, &mut rng);
        let afn = FailureModel::afn100(&events, cluster.len(), years);
        let get = |s: FailureSource| afn.iter().find(|(src, _)| *src == s).unwrap().1;
        assert!(
            get(FailureSource::Network) > 300.0,
            "network {}",
            get(FailureSource::Network)
        );
        assert!(get(FailureSource::Network) < 400.0);
        let env = get(FailureSource::Environment);
        assert!((90.0..170.0).contains(&env), "environment {env}");
        let ooops = get(FailureSource::Ooops);
        assert!((80.0..120.0).contains(&ooops), "ooops {ooops}");
        let disk = get(FailureSource::Disk);
        assert!((1.7..8.6).contains(&disk), "disk {disk}");
        let mem = get(FailureSource::Memory);
        assert!((0.8..2.0).contains(&mem), "memory {mem}");
    }

    #[test]
    fn abe_rates_are_lower() {
        let cluster = google_cluster();
        let mut rng = DetRng::new(2);
        let years = 20.0;
        let g = FailureModel::afn100(
            &FailureModel::google().sample(&cluster, years, &mut rng),
            cluster.len(),
            years,
        );
        let mut rng = DetRng::new(2);
        let a = FailureModel::afn100(
            &FailureModel::abe().sample(&cluster, years, &mut rng),
            cluster.len(),
            years,
        );
        let net_g = g
            .iter()
            .find(|(s, _)| *s == FailureSource::Network)
            .unwrap()
            .1;
        let net_a = a
            .iter()
            .find(|(s, _)| *s == FailureSource::Network)
            .unwrap()
            .1;
        assert!(net_a < net_g);
        let env_a = a
            .iter()
            .find(|(s, _)| *s == FailureSource::Environment)
            .unwrap()
            .1;
        assert_eq!(env_a, 0.0);
    }

    #[test]
    fn bursts_are_rack_correlated_and_about_ten_percent() {
        let cluster = google_cluster();
        let model = FailureModel::google();
        let mut rng = DetRng::new(3);
        let events = model.sample(&cluster, 10.0, &mut rng);
        let frac = FailureModel::burst_fraction(&events);
        assert!(
            (0.01..0.25).contains(&frac),
            "burst fraction {frac} should be around 10%"
        );
        // Rack failures must take down exactly one rack's nodes.
        let rack_event = events
            .iter()
            .find(|e| e.name == "rack failure")
            .expect("20/year: must appear in 10 years");
        assert_eq!(rack_event.nodes.len(), cluster.config().nodes_per_rack);
        let rack = cluster.rack_of(rack_event.nodes[0]);
        assert!(rack_event.nodes.iter().all(|n| cluster.rack_of(*n) == rack));
    }

    #[test]
    fn sampling_is_deterministic() {
        let cluster = google_cluster();
        let model = FailureModel::google();
        let a = model.sample(&cluster, 1.0, &mut DetRng::new(9));
        let b = model.sample(&cluster, 1.0, &mut DetRng::new(9));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.nodes, y.nodes);
        }
    }

    #[test]
    fn events_sorted_by_time() {
        let cluster = google_cluster();
        let events = FailureModel::google().sample(&cluster, 2.0, &mut DetRng::new(4));
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
    }
}
