//! Demo application for the TCP cluster: a structural operator factory
//! over `ms-live`'s demo operators plus the keyed-state interiors.
//!
//! The cluster binaries need an application whose stream lasts long
//! enough, in *real* time, that a worker can be SIGKILLed mid-stream.
//! Sources are `ms-live`'s [`CountSource`], which the worker ticks at a
//! per-tuple delay ([`skewed_delay_us`]);
//! interior operators double, sinks sum — so the sink's final
//! `(sum, count)` is a closed-form function of the graph and the source
//! limit, and any lost or duplicated tuple shows up in the recovered
//! answer.
//!
//! [`build_operator`] is structural: an operator with no upstream is a
//! source, one with no downstream is a sink, everything else doubles.
//! Every worker derives the same operator set from the transmitted
//! graph alone — no code shipping, mirroring the paper's precompiled
//! operator binaries (§III-C).

use ms_core::delta::DeltaTable;
use ms_core::error::{Error, Result};
use ms_core::graph::QueryNetwork;
use ms_core::ids::{OperatorId, PortId};
use ms_core::operator::{DeferredSnapshot, Operator, OperatorContext, OperatorSnapshot};
use ms_core::tuple::Tuple;
use ms_core::value::Value;
use ms_live::{CountSource, Doubler, Summer};

/// Tuple values per key: consecutive source values map to the same
/// key, so an epoch's worth of tuples touches a small, contiguous
/// slice of the key space — the "large state, few keys mutated per
/// epoch" regime delta checkpoints are built for.
pub const KEY_STRIDE: u64 = 8;

/// Fixed per-key feature payload (bytes), on top of an 8-byte counter.
pub const FEATURE_BYTES: usize = 256;

/// An interior operator with real keyed state: a [`DeltaTable`] of
/// `keys` entries, each an update counter plus a [`FEATURE_BYTES`]
/// feature vector. Every tuple updates exactly one key (value `v`
/// touches key `(v / KEY_STRIDE) % keys`) and forwards `v * 2`, so
/// swapping it in for [`Doubler`] leaves the demo's closed-form sink
/// answer unchanged while giving checkpoints megabytes of state of
/// which each epoch dirties only a sliver.
///
/// The state is deterministic in the tuple history (count-derived
/// bytes), so a recovered instance must be *byte-identical* to an
/// uninterrupted one — which is how the kill-recover tests catch any
/// delta-chain corruption.
#[derive(Debug)]
pub struct KeyedStat {
    keys: u64,
    table: DeltaTable,
}

impl KeyedStat {
    /// Creates the operator with an empty `keys`-entry key space.
    pub fn new(keys: u64) -> KeyedStat {
        KeyedStat {
            keys: keys.max(1),
            table: DeltaTable::new(),
        }
    }

    /// One key's record, built on the stack: the table copies it into
    /// its page.
    fn record(key: u64, count: u64) -> [u8; 8 + FEATURE_BYTES] {
        let mut v = [0u8; 8 + FEATURE_BYTES];
        v[..8].copy_from_slice(&count.to_le_bytes());
        for (i, b) in v[8..].iter_mut().enumerate() {
            *b = (key as u8) ^ (count as u8).wrapping_add(i as u8);
        }
        v
    }
}

impl Operator for KeyedStat {
    fn kind(&self) -> &'static str {
        "KeyedStat"
    }

    fn on_tuple(&mut self, _p: PortId, t: Tuple, ctx: &mut dyn OperatorContext) {
        if let Some(v) = t.fields.first().and_then(Value::as_int) {
            let key = (v as u64 / KEY_STRIDE) % self.keys;
            let count = self
                .table
                .get(key)
                .and_then(|r| r.get(..8))
                .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte slice")))
                .unwrap_or(0)
                + 1;
            self.table.insert(key, KeyedStat::record(key, count));
            ctx.emit_all(vec![Value::Int(v * 2)]);
        }
    }

    fn state_size(&self) -> u64 {
        self.table.value_bytes()
    }

    fn snapshot(&self) -> OperatorSnapshot {
        OperatorSnapshot {
            data: self.table.snapshot(),
            logical_bytes: self.table.value_bytes(),
        }
    }

    fn snapshot_deferred(&mut self) -> DeferredSnapshot {
        DeferredSnapshot::Full(self.table.freeze(self.table.value_bytes()))
    }

    fn snapshot_delta(&mut self) -> Option<DeferredSnapshot> {
        Some(DeferredSnapshot::Delta(
            self.table.freeze(self.table.value_bytes()),
        ))
    }

    fn restore(&mut self, s: &OperatorSnapshot) -> Result<()> {
        self.table = DeltaTable::restore(&s.data)?;
        Ok(())
    }
}

/// The reserved [`DeltaTable`] key under which [`SawtoothStat`] keeps
/// its applied-tuple counter, so the sawtooth phase rides snapshots
/// and delta chains like any other state and recovery resumes the
/// cycle exactly where the failed instance left it.
pub const SAWTOOTH_SEEN_KEY: u64 = u64::MAX;

/// [`KeyedStat`] with a deliberately *dynamic* state profile: every
/// `window` applied tuples it drops all keyed entries, so its state
/// size traces a sawtooth — ramp, collapse, ramp — instead of the
/// monotone fill the live `+aa` profiler would classify as static.
/// This is the workload the `aware_live` integration test runs: the
/// collapses produce half-drop notifications and aggregate local
/// minima for alert mode to checkpoint at.
///
/// Stream semantics are untouched (`v * 2` forwarded for every tuple),
/// so the closed-form chain sink answer — and therefore the
/// byte-identical recovery assertions — hold unchanged. The applied
/// counter lives *inside* the table ([`SAWTOOTH_SEEN_KEY`]), making
/// the whole sawtooth, phase included, a deterministic function of
/// tuple history: a recovered instance collapses at the same instants
/// the uninterrupted one did.
#[derive(Debug)]
pub struct SawtoothStat {
    keys: u64,
    window: u64,
    table: DeltaTable,
}

impl SawtoothStat {
    /// Creates the operator: `keys`-entry key space, state collapse
    /// every `window` applied tuples.
    pub fn new(keys: u64, window: u64) -> SawtoothStat {
        SawtoothStat {
            keys: keys.max(1),
            window: window.max(1),
            table: DeltaTable::new(),
        }
    }
}

impl Operator for SawtoothStat {
    fn kind(&self) -> &'static str {
        "SawtoothStat"
    }

    fn on_tuple(&mut self, _p: PortId, t: Tuple, ctx: &mut dyn OperatorContext) {
        if let Some(v) = t.fields.first().and_then(Value::as_int) {
            let seen = self
                .table
                .get(SAWTOOTH_SEEN_KEY)
                .and_then(|r| r.get(..8))
                .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte slice")))
                .unwrap_or(0)
                + 1;
            self.table.insert(SAWTOOTH_SEEN_KEY, seen.to_le_bytes());
            let key = (v as u64 / KEY_STRIDE) % self.keys;
            let count = self
                .table
                .get(key)
                .and_then(|r| r.get(..8))
                .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte slice")))
                .unwrap_or(0)
                + 1;
            self.table.insert(key, KeyedStat::record(key, count));
            if seen % self.window == 0 {
                // Collapse: drop every keyed entry (a tracked removal,
                // so delta chains carry it too) and start the next
                // ramp from an empty table.
                let keys: Vec<u64> = self
                    .table
                    .iter()
                    .map(|(k, _)| k)
                    .filter(|&k| k != SAWTOOTH_SEEN_KEY)
                    .collect();
                for k in keys {
                    self.table.remove(k);
                }
            }
            ctx.emit_all(vec![Value::Int(v * 2)]);
        }
    }

    fn state_size(&self) -> u64 {
        self.table.value_bytes()
    }

    fn snapshot(&self) -> OperatorSnapshot {
        OperatorSnapshot {
            data: self.table.snapshot(),
            logical_bytes: self.table.value_bytes(),
        }
    }

    fn snapshot_deferred(&mut self) -> DeferredSnapshot {
        DeferredSnapshot::Full(self.table.freeze(self.table.value_bytes()))
    }

    fn snapshot_delta(&mut self) -> Option<DeferredSnapshot> {
        Some(DeferredSnapshot::Delta(
            self.table.freeze(self.table.value_bytes()),
        ))
    }

    fn restore(&mut self, s: &OperatorSnapshot) -> Result<()> {
        self.table = DeltaTable::restore(&s.data)?;
        Ok(())
    }
}

/// Builds the demo query network for a shape name: `chainN` (N ≥ 2
/// operators in a line), `diamond` (the paper's five-operator
/// walkthrough graph, Figs. 6–7), `fanin` (two independent
/// source→doubler branches converging on one sink — the shape that
/// exercises token alignment, because the sink must hold a consistent
/// cut across inputs that run at different speeds), or `fleetSxK`
/// (S skewed sources all feeding a K-stage pipeline into one sink —
/// the *logical* graph behind the paper-scale sharded deployments:
/// `fleet6x6` expanded at 8 shards per stage is 6 + 48 + 1 = 55
/// physical HAUs).
pub fn demo_network(shape: &str) -> Result<QueryNetwork> {
    let mut qn = QueryNetwork::new();
    if let Some((s, k)) = shape.strip_prefix("fleet").and_then(|rest| {
        let (s, k) = rest.split_once('x')?;
        Some((s.parse::<usize>().ok()?, k.parse::<usize>().ok()?))
    }) {
        if s < 1 || k < 1 {
            return Err(Error::Graph(format!(
                "fleet needs ≥ 1 source and ≥ 1 stage, got {s}x{k}"
            )));
        }
        let sources: Vec<OperatorId> = (0..s).map(|i| qn.add_operator(format!("src{i}"))).collect();
        let stages: Vec<OperatorId> = (0..k)
            .map(|j| qn.add_operator(format!("stage{j}")))
            .collect();
        let sink = qn.add_operator("sink");
        for &src in &sources {
            qn.connect(src, stages[0])?;
        }
        for pair in stages.windows(2) {
            qn.connect(pair[0], pair[1])?;
        }
        qn.connect(stages[k - 1], sink)?;
    } else if shape == "fanin" {
        let s0 = qn.add_operator("src_fast");
        let s1 = qn.add_operator("src_slow");
        let d2 = qn.add_operator("dbl_fast");
        let d3 = qn.add_operator("dbl_slow");
        let k4 = qn.add_operator("sink");
        qn.connect(s0, d2)?;
        qn.connect(s1, d3)?;
        qn.connect(d2, k4)?;
        qn.connect(d3, k4)?;
    } else if shape == "diamond" {
        let s = qn.add_operator("source");
        let a = qn.add_operator("split");
        let b = qn.add_operator("left");
        let c = qn.add_operator("right");
        let k = qn.add_operator("sink");
        qn.connect(s, a)?;
        qn.connect(a, b)?;
        qn.connect(a, c)?;
        qn.connect(b, k)?;
        qn.connect(c, k)?;
    } else if let Some(n) = shape
        .strip_prefix("chain")
        .and_then(|s| s.parse::<usize>().ok())
    {
        if n < 2 {
            return Err(Error::Graph(format!("chain needs ≥ 2 operators, got {n}")));
        }
        let ops: Vec<OperatorId> = (0..n).map(|i| qn.add_operator(format!("op{i}"))).collect();
        for pair in ops.windows(2) {
            qn.connect(pair[0], pair[1])?;
        }
    } else {
        return Err(Error::Graph(format!(
            "unknown demo shape {shape:?} (want chainN, diamond, fanin or fleetSxK)"
        )));
    }
    qn.validate()?;
    Ok(qn)
}

/// How much slower each successive source runs than the first: the
/// second source's per-tuple delay is `1 + SOURCE_SKEW` times the
/// base delay. A multi-source graph therefore always has a fast and
/// a slow branch, which is what makes fan-in alignment non-trivial.
pub const SOURCE_SKEW: u64 = 3;

/// Per-tuple delay for a source operator: the base delay scaled by
/// the source's ordinal among the graph's sources, so the branches of
/// a fan-in arrive at the merge point out of step. Single-source
/// shapes get the base delay unchanged.
pub fn skewed_delay_us(qn: &QueryNetwork, op: OperatorId, base_us: u64) -> u64 {
    let ordinal = qn.sources().iter().position(|&s| s == op).unwrap_or(0) as u64;
    base_us * (1 + SOURCE_SKEW * ordinal)
}

/// Structural operator factory: source / interior / sink by topology.
///
/// A nonzero `keyed_state` swaps the stateless interior
/// [`Doubler`] for a [`KeyedStat`] over that many keys — same stream
/// semantics, delta-checkpointed keyed state. A nonzero
/// `sawtooth_window` on top of that selects [`SawtoothStat`], whose
/// keyed table collapses every `sawtooth_window` tuples — the dynamic
/// state profile the live `+aa` plane checkpoints at the minima of.
pub fn build_operator(
    qn: &QueryNetwork,
    op: OperatorId,
    source_limit: u64,
    keyed_state: u64,
    sawtooth_window: u64,
) -> Box<dyn Operator> {
    if qn.upstream(op).is_empty() {
        Box::new(CountSource::new(source_limit))
    } else if qn.downstream(op).is_empty() {
        Box::new(Summer::default())
    } else if keyed_state > 0 && sawtooth_window > 0 {
        Box::new(SawtoothStat::new(keyed_state, sawtooth_window))
    } else if keyed_state > 0 {
        Box::new(KeyedStat::new(keyed_state))
    } else {
        Box::new(Doubler::default())
    }
}

/// The sink answer a failure-free `chainN` run must produce: every
/// tuple `0..limit` doubled once per interior operator.
pub fn expected_chain_sum(n_ops: usize, limit: u64) -> i64 {
    let base: i64 = (0..limit as i64).sum();
    base << (n_ops.saturating_sub(2) as u32)
}

/// The sink answer a failure-free `fanin` run must produce: both
/// sources emit `0..limit`, each branch doubles once, the sink sums
/// the two branches — so `4 × Σ 0..limit`, over `2 × limit` tuples.
pub fn expected_fanin_sum(limit: u64) -> i64 {
    4 * (0..limit as i64).sum::<i64>()
}

/// The sink answer a failure-free `fleetSxK` run must produce:
/// `sources` sources each emit `0..limit`, every tuple is doubled
/// once per stage (sharding a stage changes *where* a tuple is
/// doubled, never how often), and the sink sums everything —
/// `(sum, count) = (2^stages × S × Σ 0..limit, S × limit)`.
pub fn expected_fleet_sum(sources: u64, stages: u32, limit: u64) -> (i64, u64) {
    let per_source: i64 = (0..limit as i64).sum();
    ((per_source * sources as i64) << stages, sources * limit)
}

/// The routing-key extractor every producer of a sharded consumer
/// uses: with keyed state it is exactly [`KeyedStat`]'s key function
/// (`(v / KEY_STRIDE) % keyed_state`), so one logical key always
/// lands on one shard instance and the shard-local tables partition
/// the unsharded table; stateless deployments hash the raw value.
/// Deterministic in the tuple alone — replayed tuples rejoin the same
/// shard, which is what keeps recovery byte-identical.
pub fn route_key(keyed_state: u64) -> ms_live::RouteKeyFn {
    std::sync::Arc::new(move |t: &Tuple| {
        let v = t.fields.first().and_then(Value::as_int).unwrap_or(0) as u64;
        if keyed_state > 0 {
            (v / KEY_STRIDE) % keyed_state
        } else {
            v
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_core::time::SimTime;
    use ms_core::tuple::Fields;

    struct Ctx {
        emitted: Vec<Fields>,
    }

    impl OperatorContext for Ctx {
        fn emit_fields(&mut self, _port: PortId, fields: Fields) {
            self.emitted.push(fields);
        }
        fn emit_all_fields(&mut self, fields: Fields) {
            self.emitted.push(fields);
        }
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }
        fn self_id(&self) -> OperatorId {
            OperatorId(0)
        }
        fn rand_f64(&mut self) -> f64 {
            0.5
        }
        fn rand_u64(&mut self) -> u64 {
            0
        }
    }

    #[test]
    fn shapes_build_and_validate() {
        let chain = demo_network("chain3").unwrap();
        assert_eq!(chain.len(), 3);
        assert_eq!(chain.sources().len(), 1);
        assert_eq!(chain.sinks().len(), 1);
        let diamond = demo_network("diamond").unwrap();
        assert_eq!(diamond.len(), 5);
        assert_eq!(diamond.upstream(OperatorId(4)).len(), 2);
        let fanin = demo_network("fanin").unwrap();
        assert_eq!(fanin.len(), 5);
        assert_eq!(fanin.sources().len(), 2);
        assert_eq!(fanin.sinks().len(), 1);
        assert_eq!(fanin.upstream(OperatorId(4)).len(), 2);
        assert!(demo_network("chain1").is_err());
        assert!(demo_network("ring").is_err());
    }

    #[test]
    fn fanin_sources_are_skewed() {
        let qn = demo_network("fanin").unwrap();
        // First source runs at the base delay, second one slower.
        assert_eq!(skewed_delay_us(&qn, OperatorId(0), 100), 100);
        assert_eq!(
            skewed_delay_us(&qn, OperatorId(1), 100),
            100 * (1 + SOURCE_SKEW)
        );
        // Single-source shapes are unaffected.
        let chain = demo_network("chain3").unwrap();
        assert_eq!(skewed_delay_us(&chain, OperatorId(0), 100), 100);
        // Interior and sink roles are unchanged by multiple sources.
        assert_eq!(
            build_operator(&qn, OperatorId(0), 10, 0, 0).kind(),
            "CountSource"
        );
        assert_eq!(
            build_operator(&qn, OperatorId(2), 10, 0, 0).kind(),
            "Doubler"
        );
        assert_eq!(
            build_operator(&qn, OperatorId(4), 10, 0, 0).kind(),
            "Summer"
        );
    }

    #[test]
    fn fanin_sum_closed_form() {
        // limit 4: both sources emit 0..4 (sum 6 each), doubled once
        // per branch, summed at the sink: 4 × 6 = 24 over 8 tuples.
        assert_eq!(expected_fanin_sum(4), 24);
        assert_eq!(expected_fanin_sum(0), 0);
    }

    #[test]
    fn factory_is_structural() {
        let qn = demo_network("chain3").unwrap();
        assert_eq!(
            build_operator(&qn, OperatorId(0), 10, 0, 0).kind(),
            "CountSource"
        );
        assert_eq!(
            build_operator(&qn, OperatorId(1), 10, 0, 0).kind(),
            "Doubler"
        );
        assert_eq!(
            build_operator(&qn, OperatorId(2), 10, 0, 0).kind(),
            "Summer"
        );
        // A keyed-state request swaps only the interior stage.
        assert_eq!(
            build_operator(&qn, OperatorId(1), 10, 64, 0).kind(),
            "KeyedStat"
        );
        assert_eq!(
            build_operator(&qn, OperatorId(2), 10, 64, 0).kind(),
            "Summer"
        );
        // A sawtooth window on top swaps in the collapsing variant —
        // interior only, and only with keyed state.
        assert_eq!(
            build_operator(&qn, OperatorId(1), 10, 64, 500).kind(),
            "SawtoothStat"
        );
        assert_eq!(
            build_operator(&qn, OperatorId(1), 10, 0, 500).kind(),
            "Doubler"
        );
        assert_eq!(
            build_operator(&qn, OperatorId(2), 10, 64, 500).kind(),
            "Summer"
        );
    }

    fn int_tuple(v: i64) -> Tuple {
        Tuple::new(OperatorId(0), v as u64, SimTime::ZERO, vec![Value::Int(v)])
    }

    #[test]
    fn keyed_stat_doubles_and_restores_byte_identically() {
        let mut a = KeyedStat::new(64);
        let mut ctx = Ctx {
            emitted: Vec::new(),
        };
        for v in 0..100 {
            a.on_tuple(PortId(0), int_tuple(v), &mut ctx);
        }
        assert_eq!(ctx.emitted.len(), 100);
        assert_eq!(ctx.emitted[3], vec![Value::Int(6)], "still a doubler");
        let snap = a.snapshot();
        let mut b = KeyedStat::new(64);
        b.restore(&snap).unwrap();
        assert_eq!(b.snapshot().data, snap.data, "restore is byte-identical");
        // Same history on the restored instance ⇒ same bytes.
        let mut ctx2 = Ctx {
            emitted: Vec::new(),
        };
        for v in 100..120 {
            a.on_tuple(PortId(0), int_tuple(v), &mut ctx2);
            b.on_tuple(PortId(0), int_tuple(v), &mut ctx2);
        }
        assert_eq!(a.snapshot().data, b.snapshot().data);
    }

    #[test]
    fn sawtooth_collapses_and_restores_byte_identically() {
        let mut a = SawtoothStat::new(64, 50);
        let mut ctx = Ctx {
            emitted: Vec::new(),
        };
        let mut peak = 0;
        for v in 0..49 {
            a.on_tuple(PortId(0), int_tuple(v), &mut ctx);
            peak = peak.max(a.state_size());
        }
        assert_eq!(ctx.emitted[3], vec![Value::Int(6)], "still a doubler");
        let before = a.state_size();
        // The 50th tuple collapses the keyed entries: state drops by
        // more than half (only the seen counter remains).
        a.on_tuple(PortId(0), int_tuple(49), &mut ctx);
        assert!(
            a.state_size() < before / 2,
            "state {} did not collapse from {}",
            a.state_size(),
            before
        );
        assert_eq!(ctx.emitted.len(), 50, "every tuple still forwarded");
        // Snapshot mid-cycle, replay the same history on the restored
        // instance: phase rides the snapshot, bytes stay identical.
        for v in 50..77 {
            a.on_tuple(PortId(0), int_tuple(v), &mut ctx);
        }
        let snap = a.snapshot();
        let mut b = SawtoothStat::new(64, 50);
        b.restore(&snap).unwrap();
        assert_eq!(b.snapshot().data, snap.data, "restore is byte-identical");
        for v in 77..160 {
            a.on_tuple(PortId(0), int_tuple(v), &mut ctx);
            b.on_tuple(PortId(0), int_tuple(v), &mut ctx);
        }
        assert_eq!(
            a.snapshot().data,
            b.snapshot().data,
            "collapse instants are a function of tuple history"
        );
    }

    #[test]
    fn sawtooth_deltas_carry_removals() {
        use ms_core::delta;
        use ms_core::operator::SnapshotPayload;

        let mut op = SawtoothStat::new(64, 30);
        let mut ctx = Ctx {
            emitted: Vec::new(),
        };
        for v in 0..25 {
            op.on_tuple(PortId(0), int_tuple(v), &mut ctx);
        }
        let base = op.snapshot().data;
        op.snapshot_delta().unwrap().resolve();
        // Cross the collapse inside one epoch; the delta must fold to
        // the post-collapse table exactly.
        for v in 25..40 {
            op.on_tuple(PortId(0), int_tuple(v), &mut ctx);
        }
        let delta = match op.snapshot_delta().unwrap().resolve() {
            SnapshotPayload::Delta(d) => d,
            SnapshotPayload::Full(_) => panic!("SawtoothStat captures deltas"),
        };
        let folded = delta::fold(&base, &[delta]).unwrap();
        assert_eq!(folded, op.snapshot().data, "removals fold byte-identically");
    }

    #[test]
    fn keyed_stat_deltas_fold_to_full_snapshot() {
        use ms_core::delta;
        use ms_core::operator::SnapshotPayload;

        let mut op = KeyedStat::new(256);
        let mut ctx = Ctx {
            emitted: Vec::new(),
        };
        for v in 0..200 {
            op.on_tuple(PortId(0), int_tuple(v), &mut ctx);
        }
        let base = op.snapshot().data;
        op.snapshot_delta().unwrap().resolve(); // drain dirty set at the base
        let mut deltas = Vec::new();
        for round in 0..3 {
            for v in (round * 40)..(round * 40 + 40) {
                op.on_tuple(PortId(0), int_tuple(v), &mut ctx);
            }
            match op.snapshot_delta().unwrap().resolve() {
                SnapshotPayload::Delta(d) => deltas.push(d),
                SnapshotPayload::Full(_) => panic!("KeyedStat captures deltas"),
            }
        }
        let folded = delta::fold(&base, &deltas).unwrap();
        assert_eq!(folded, op.snapshot().data, "chain folds byte-identically");
        // An epoch touching 40 of 256 keys writes a fraction of the state.
        assert!(deltas[0].encoded_bytes() * 3 < base.len());
    }

    /// A full capture through the host clears the operator's dirty
    /// marks: the checkpoint after it is a delta of the keys written
    /// since that cut, not of every key the table was ever given.
    #[test]
    fn host_delta_after_a_full_capture_carries_only_later_writes() {
        use ms_core::ids::EpochId;
        use ms_core::operator::SnapshotPayload;
        use ms_live::{HostMsg, HostWiring, InteriorCore};

        const N: u64 = 200;
        let (persist, persisted) = std::sync::mpsc::channel();
        let wiring = HostWiring {
            op_id: OperatorId(1),
            op: Box::new(KeyedStat::new(N + 1)),
            outputs: Vec::new(),
            restored_seq: 0,
            resume_seq: Vec::new(),
            last_durable: None,
            telemetry: None,
        };
        let mut core = InteriorCore::new(wiring, 1, persist);
        // One tuple per key: value `k * KEY_STRIDE` writes key `k`.
        let writes = |keys: std::ops::Range<u64>| {
            let batch = keys.map(|k| int_tuple((k * KEY_STRIDE) as i64));
            HostMsg::DataBatch(batch.collect())
        };
        assert!(core.on_msg(0, writes(0..N)));
        assert!(core.on_msg(0, HostMsg::Token(EpochId(1))));
        let first = persisted.try_recv().expect("cut 1 captured");
        assert_eq!(first.base, None, "the first capture is full");
        let SnapshotPayload::Full(full) = first.snapshot.resolve() else {
            panic!("a first capture is a full snapshot");
        };
        assert_eq!(DeltaTable::restore(&full.data).unwrap().len(), N as usize);
        assert!(core.on_msg(0, writes(N..N + 1)));
        assert!(core.on_msg(0, HostMsg::Token(EpochId(2))));
        let second = persisted.try_recv().expect("cut 2 captured");
        assert_eq!(second.base, Some(EpochId(1)));
        let SnapshotPayload::Delta(delta) = second.snapshot.resolve() else {
            panic!("KeyedStat captures a delta on its previous capture");
        };
        let changed: Vec<u64> = delta.changed.iter().map(|(k, _)| *k).collect();
        assert_eq!(changed, [N], "only the key written after the full cut");
        assert!(delta.removed.is_empty());
    }

    #[test]
    fn count_source_snapshot_roundtrip() {
        let mut src = CountSource::new(100);
        let mut ctx = Ctx {
            emitted: Vec::new(),
        };
        for _ in 0..7 {
            src.on_timer(&mut ctx);
        }
        assert_eq!(ctx.emitted.len(), 7);
        let snap = src.snapshot();
        let mut fresh = CountSource::new(0);
        fresh.restore(&snap).unwrap();
        // The bytes are `(limit, emitted)`.
        assert_eq!(fresh.snapshot().data, snap.data);
        let mut w = ms_core::codec::SnapshotWriter::new();
        w.put_u64(100).put_u64(7);
        assert_eq!(snap.data, w.finish());
    }

    #[test]
    fn chain_sum_closed_form() {
        // chain3, limit 4: (0+1+2+3) doubled once = 12.
        assert_eq!(expected_chain_sum(3, 4), 12);
        // chain4 doubles twice.
        assert_eq!(expected_chain_sum(4, 4), 24);
        assert_eq!(expected_chain_sum(2, 4), 6);
    }

    #[test]
    fn fleet_shape_builds() {
        let qn = demo_network("fleet6x6").unwrap();
        assert_eq!(qn.len(), 13); // 6 sources + 6 stages + sink
        assert_eq!(qn.sources().len(), 6);
        assert_eq!(qn.sinks().len(), 1);
        // All sources feed stage0 (op index 6).
        assert_eq!(qn.upstream(OperatorId(6)).len(), 6);
        // fleet2x1: two sources, one stage, sink.
        let small = demo_network("fleet2x1").unwrap();
        assert_eq!(small.len(), 4);
        assert!(demo_network("fleet0x3").is_err());
        assert!(demo_network("fleetx").is_err());
    }

    #[test]
    fn fleet_sum_closed_form() {
        // 2 sources × Σ0..4 = 12, doubled by 3 stages → 96, 8 tuples.
        assert_eq!(expected_fleet_sum(2, 3, 4), (96, 8));
        assert_eq!(expected_fleet_sum(6, 6, 0), (0, 0));
        // fleet6x6 at limit 400: 6 × 79800 × 64.
        assert_eq!(expected_fleet_sum(6, 6, 400), (6 * 79800 * 64, 2400));
    }

    #[test]
    fn route_key_matches_keyed_stat_partition() {
        let key = route_key(64);
        for v in 0..1000i64 {
            let t = int_tuple(v);
            assert_eq!(key(&t), (v as u64 / KEY_STRIDE) % 64);
        }
        // Stateless fallback: raw value.
        let raw = route_key(0);
        assert_eq!(raw(&int_tuple(17)), 17);
    }
}
