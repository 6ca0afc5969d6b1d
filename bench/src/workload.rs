//! The four workloads: cluster shape, traffic, failure schedule, and
//! the seeded event generator.
//!
//! Every workload is an *open-loop, paced* stream well below the
//! cluster's capacity on a 2-core host (see README "measured hazards"
//! for why nothing here saturates). They differ in which layer does
//! the work: admission (`ingest_hot`), the per-tuple data path
//! (`fanout_unique`), checkpointing (`bigstate_paced`) and restore
//! under a correlated double failure (`burst_mid`).

use std::collections::BTreeSet;

/// `KeyedStat` maps value `v` to key `(v / KEY_STRIDE) % keys`
/// (`ms_wire::apps::KEY_STRIDE`).
pub const KEY_STRIDE: u64 = ms_wire::apps::KEY_STRIDE;

/// Batches in the pre-generated event ring; batch `b` sends ring slot
/// `b % RING`.
pub const RING: usize = 64;

/// What the harness kills, and when, after the steady window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Failure {
    /// SIGKILL `wb` (the gate host), spawn `wc`.
    GateHost,
    /// SIGKILL `wa`, spawn `wc`; `BURST_STAGGER_MS` later SIGKILL `wb`,
    /// spawn `wd` — two detections on different controller ticks.
    Burst,
}

/// Gap between the two kills of [`Failure::Burst`]: longer than one
/// heartbeat (50 ms) plus one controller tick (25 ms), so the two
/// detections always land on different ticks (two rollbacks, never a
/// tick-phase coin toss between one and two).
pub const BURST_STAGGER_MS: u64 = 200;

/// How a batch's gate keys are chosen (the gate pre-aggregates per key
/// within a batch).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Keys {
    /// Events cycle this many hot keys: the batch folds to that many
    /// tuples.
    Hot(u64),
    /// Every event of a batch has its own key: the fold is 1:1.
    Unique,
}

/// One workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Offered rate, events per second.
    pub rate: u64,
    /// Events per producer batch.
    pub batch_events: usize,
    pub keys: Keys,
    /// `--keyed-state`: key space of the interior `KeyedStat`.
    pub keyed_state: u64,
    /// `--shards` (0 = unsharded).
    pub shards: u64,
    pub failure: Failure,
    /// Seconds the load keeps running after the first kill.
    pub tail_s: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ingest_hot",
        why: "2M ev/s on 8 hot keys folds 256:1 at the gate, so decode/admit/ack do nearly all the work; WAL, wire, operators and checkpoints are ~0 and changes there must not move this row",
        rate: 2_000_000,
        batch_events: 2048,
        keys: Keys::Hot(8),
        keyed_state: 64,
        shards: 0,
        failure: Failure::GateHost,
        tail_s: 6.0,
    },
    Workload {
        name: "fanout_unique",
        why: "50k ev/s, all keys distinct (fold 1:1), 2 shards: every event pays WAL append, TupleBatch frame, event loop, KeyedStat apply and fan-in alignment; state is tiny, so checkpoints are cheap",
        rate: 50_000,
        batch_events: 256,
        keys: Keys::Unique,
        keyed_state: 4096,
        shards: 2,
        failure: Failure::GateHost,
        tail_s: 6.0,
    },
    Workload {
        name: "bigstate_paced",
        why: "20k ev/s over 65536 prefilled keys (17 MB state): snapshot_delta, delta encode and FsStore delta/rebase writes dominate; restore reads a full base plus a delta chain",
        rate: 20_000,
        batch_events: 200,
        keys: Keys::Unique,
        keyed_state: 65536,
        shards: 0,
        failure: Failure::GateHost,
        tail_s: 6.0,
    },
    Workload {
        name: "burst_mid",
        why: "50k ev/s, 4 MB state, 2 shards, correlated burst (kill wa, then wb 200 ms later): the store is read twice, so cheaper checkpoint writes that lengthen delta chains show here as slower recovery",
        rate: 50_000,
        batch_events: 512,
        keys: Keys::Unique,
        keyed_state: 16384,
        shards: 2,
        failure: Failure::Burst,
        tail_s: 18.0,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// Nanoseconds between two batches' due times.
    pub fn interval_ns(&self) -> u64 {
        self.batch_events as u64 * 1_000_000_000 / self.rate
    }

    /// Recoveries the result file must report (hazard (e)).
    pub fn expected_recoveries(&self) -> u64 {
        match self.failure {
            Failure::GateHost => 1,
            Failure::Burst => 2,
        }
    }

    /// Operators of the deployed (sharded) chain3: gate, keyed
    /// shards, sink.
    pub fn physical_ops(&self) -> usize {
        2 + self.shards.max(1) as usize
    }
}

/// splitmix64: the whole generator state is one `u64`, so a seed
/// reproduces its inputs exactly.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One pre-generated batch plus what the sink must see of it.
pub struct Slot {
    pub events: Vec<(u64, i64)>,
    /// Sum of the batch's values (pre-aggregation preserves it).
    pub sum: i64,
    /// Tuples the gate emits for it: distinct keys under pre-agg.
    pub tuples: u64,
}

impl Slot {
    fn new(events: Vec<(u64, i64)>) -> Slot {
        let sum = events.iter().map(|&(_, v)| v).sum();
        let tuples = events
            .iter()
            .map(|&(k, _)| k)
            .collect::<BTreeSet<_>>()
            .len() as u64;
        Slot {
            events,
            sum,
            tuples,
        }
    }
}

/// The prefill batches: every key of the keyed operator written
/// exactly once (hazard (b): a still-filling table does not repeat).
pub fn prefill(w: &Workload) -> Vec<Slot> {
    let keys: Vec<u64> = (0..w.keyed_state).collect();
    keys.chunks(w.batch_events)
        .map(|chunk| {
            Slot::new(
                chunk
                    .iter()
                    .map(|&k| (k, (k * KEY_STRIDE) as i64))
                    .collect(),
            )
        })
        .collect()
}

/// The timed traffic: a ring of [`RING`] batches generated from
/// `seed`. Values are uniform over the keyed operator's key space
/// (hot-key batches use small values; their fold lands on a few keys).
pub fn ring(w: &Workload, seed: u64) -> Vec<Slot> {
    let mut rng = Rng::new(seed ^ 0x6d73_6265_6e63_6831);
    let span = w.keyed_state * KEY_STRIDE;
    (0..RING)
        .map(|slot| {
            let events = (0..w.batch_events)
                .map(|j| match w.keys {
                    Keys::Hot(n) => (j as u64 % n, rng.below(KEY_STRIDE) as i64),
                    Keys::Unique => ((slot * w.batch_events + j) as u64, rng.below(span) as i64),
                })
                .collect();
            Slot::new(events)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let w = find("fanout_unique").unwrap();
        let (a, b, c) = (ring(&w, 7), ring(&w, 7), ring(&w, 8));
        assert!(a.iter().zip(&b).all(|(x, y)| x.events == y.events));
        assert!(a.iter().zip(&c).any(|(x, y)| x.events != y.events));
    }

    #[test]
    fn fold_counts_match_the_key_mode() {
        let hot = find("ingest_hot").unwrap();
        assert!(ring(&hot, 1).iter().all(|s| s.tuples == 8));
        let uniq = find("bigstate_paced").unwrap();
        assert!(ring(&uniq, 1).iter().all(|s| s.tuples == 200));
    }

    #[test]
    fn prefill_writes_every_key_once() {
        for w in WORKLOADS {
            let keys: BTreeSet<u64> = prefill(&w)
                .iter()
                .flat_map(|s| {
                    s.events
                        .iter()
                        .map(|&(_, v)| (v as u64 / KEY_STRIDE) % w.keyed_state)
                })
                .collect();
            assert_eq!(keys.len() as u64, w.keyed_state);
        }
    }

    #[test]
    fn interval_matches_rate() {
        assert_eq!(find("ingest_hot").unwrap().interval_ns(), 1_024_000);
        assert_eq!(find("bigstate_paced").unwrap().interval_ns(), 10_000_000);
    }
}
