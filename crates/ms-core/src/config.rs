//! Configuration shared across substrates.

use crate::time::SimDuration;

/// Which fault-tolerance scheme drives checkpointing (§II-B3, §III).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// The state-of-the-art baseline: independent periodic checkpoints
    /// per HAU (randomized phase), synchronous snapshots, and *input
    /// preservation* (every HAU saves its output tuples until the
    /// downstream neighbour checkpoints them).
    Baseline,
    /// Basic Meteor Shower: token-coordinated global checkpoints with
    /// *source preservation*; individual checkpoints are synchronous and
    /// tokens propagate hop by hop (§III-A).
    MsSrc,
    /// Meteor Shower with parallel, asynchronous checkpointing:
    /// controller-broadcast 1-hop tokens; snapshots taken by a forked
    /// copy-on-write child while the parent keeps processing (§III-B).
    MsSrcAp,
    /// MS-src+ap plus application-aware checkpoint timing: profiles
    /// state-size fluctuation and fires checkpoints at local minima
    /// (§III-C).
    MsSrcApAa,
}

impl SchemeKind {
    /// All schemes, in the order the paper's figures present them.
    pub const ALL: [SchemeKind; 4] = [
        SchemeKind::Baseline,
        SchemeKind::MsSrc,
        SchemeKind::MsSrcAp,
        SchemeKind::MsSrcApAa,
    ];

    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            SchemeKind::Baseline => "Baseline",
            SchemeKind::MsSrc => "MS-src",
            SchemeKind::MsSrcAp => "MS-src+ap",
            SchemeKind::MsSrcApAa => "MS-src+ap+aa",
        }
    }

    /// True for the three Meteor Shower variants.
    pub fn is_meteor_shower(self) -> bool {
        !matches!(self, SchemeKind::Baseline)
    }

    /// True if snapshots run asynchronously in a COW child.
    pub fn asynchronous(self) -> bool {
        matches!(self, SchemeKind::MsSrcAp | SchemeKind::MsSrcApAa)
    }

    /// True if checkpoint timing is application-aware.
    pub fn application_aware(self) -> bool {
        matches!(self, SchemeKind::MsSrcApAa)
    }
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Checkpoint cadence configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CheckpointConfig {
    /// Checkpoint period. The paper's default is 200 s; the Fig. 12/13
    /// sweeps instead pin "N checkpoints within a 10-minute window".
    pub period: SimDuration,
    /// Baseline only: each HAU picks a random phase for its first
    /// checkpoint within `[0, period)`.
    pub randomize_phase: bool,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig {
            period: SimDuration::from_secs(200),
            randomize_phase: true,
        }
    }
}

impl CheckpointConfig {
    /// A cadence producing exactly `n` checkpoints in `window`
    /// (the Fig. 12/13 experimental knob). `n == 0` disables
    /// checkpointing by setting an effectively infinite period.
    pub fn n_in_window(n: u32, window: SimDuration) -> CheckpointConfig {
        let period = if n == 0 {
            SimDuration::MAX
        } else {
            window / u64::from(n)
        };
        CheckpointConfig {
            period,
            randomize_phase: true,
        }
    }

    /// True if checkpointing is disabled.
    pub fn disabled(&self) -> bool {
        self.period == SimDuration::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(SchemeKind::Baseline.label(), "Baseline");
        assert_eq!(SchemeKind::MsSrc.label(), "MS-src");
        assert_eq!(SchemeKind::MsSrcAp.label(), "MS-src+ap");
        assert_eq!(SchemeKind::MsSrcApAa.label(), "MS-src+ap+aa");
    }

    #[test]
    fn scheme_predicates() {
        assert!(!SchemeKind::Baseline.is_meteor_shower());
        assert!(SchemeKind::MsSrc.is_meteor_shower());
        assert!(!SchemeKind::MsSrc.asynchronous());
        assert!(SchemeKind::MsSrcAp.asynchronous());
        assert!(SchemeKind::MsSrcApAa.application_aware());
        assert!(!SchemeKind::MsSrcAp.application_aware());
    }

    #[test]
    fn n_in_window() {
        let w = SimDuration::from_secs(600);
        let c = CheckpointConfig::n_in_window(3, w);
        assert_eq!(c.period, SimDuration::from_secs(200));
        assert!(!c.disabled());
        assert!(CheckpointConfig::n_in_window(0, w).disabled());
    }
}
