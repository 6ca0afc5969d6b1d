//! Transportation Mode Inference (TMI, §II-B2, Fig. 2).
//!
//! TMI collects mobile-phone position data from base stations and
//! infers each bearer's transportation mode (driving / bus / walking /
//! still) in real time with k-means clustering over speed features.
//!
//! Query network (55 operators, one HAU each, as in the paper):
//!
//! * `S0..S9` — sources: base-station position batches;
//! * `P0..P11` — Pair: speed computation from successive positions;
//! * `M0..M11` — GoogleMap: reference-speed annotation; **each M
//!   connects to all G** (Fig. 2);
//! * `G0..G9` — Group: per-phone-shard aggregation;
//! * `A0..A9` — k-means: pools grouped batches for an N-minute window
//!   and clusters at the window boundary (the dynamic HAUs);
//! * `K` — sink.

use ms_core::codec::{SnapshotReader, SnapshotWriter};
use ms_core::delta::{decode_table, encode_table, StateDelta};
use ms_core::error::Error;
use ms_core::graph::QueryNetwork;
use ms_core::ids::{OperatorId, PortId};
use ms_core::operator::{DeferredSnapshot, Operator, OperatorContext, OperatorSnapshot};
use ms_core::time::SimDuration;
use ms_core::tuple::Tuple;
use ms_core::value::Value;
use ms_runtime::AppSpec;
use ms_sim::DetRng;

use crate::kmeans::kmeans;
use crate::ops::SinkOp;
use crate::pool::Pool;

/// TMI parameters.
#[derive(Clone, Copy, Debug)]
pub struct TmiConfig {
    /// The k-means window length in minutes (the paper's `N`;
    /// Fig. 5a shows N = 1, 5, 10).
    pub window_minutes: u64,
    /// Source emission attempt interval (sources are greedy and
    /// backpressured; this is the maximum rate knob).
    pub source_tick: SimDuration,
    /// Logical bytes of one base-station position batch.
    pub batch_bytes: u64,
    /// Logical bytes of one grouped batch pooled by the k-means ops.
    pub grouped_bytes: u64,
}

impl Default for TmiConfig {
    fn default() -> Self {
        TmiConfig {
            window_minutes: 10,
            source_tick: SimDuration::from_millis(5),
            batch_bytes: 100_000,
            grouped_bytes: 25_000,
        }
    }
}

const N_SOURCES: usize = 10;
const N_PAIR: usize = 12;
const N_MAP: usize = 12;
const N_GROUP: usize = 10;
const N_KMEANS: usize = 10;

/// Role of each operator in the TMI network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Role {
    Source(u32),
    Pair,
    Map,
    Group,
    KMeans,
    Sink,
}

/// The TMI application.
pub struct Tmi {
    cfg: TmiConfig,
    qn: QueryNetwork,
    roles: Vec<Role>,
}

impl Tmi {
    /// Builds TMI with the given configuration.
    pub fn new(cfg: TmiConfig) -> Tmi {
        let mut qn = QueryNetwork::new();
        let mut roles = Vec::new();
        let mut add = |qn: &mut QueryNetwork, name: String, role: Role| -> OperatorId {
            roles.push(role);
            qn.add_operator(name)
        };

        let sources: Vec<_> = (0..N_SOURCES)
            .map(|i| add(&mut qn, format!("S{i}"), Role::Source(i as u32)))
            .collect();
        let pairs: Vec<_> = (0..N_PAIR)
            .map(|i| add(&mut qn, format!("P{i}"), Role::Pair))
            .collect();
        let maps: Vec<_> = (0..N_MAP)
            .map(|i| add(&mut qn, format!("M{i}"), Role::Map))
            .collect();
        let groups: Vec<_> = (0..N_GROUP)
            .map(|i| add(&mut qn, format!("G{i}"), Role::Group))
            .collect();
        let kms: Vec<_> = (0..N_KMEANS)
            .map(|i| add(&mut qn, format!("A{i}"), Role::KMeans))
            .collect();
        let sink = add(&mut qn, "K".to_string(), Role::Sink);

        // S_{j mod 10} feeds P_j (10 base-station groups over 12 Pair
        // operators).
        for (j, &p) in pairs.iter().enumerate() {
            qn.connect(sources[j % N_SOURCES], p).unwrap();
        }
        for (j, &m) in maps.iter().enumerate() {
            qn.connect(pairs[j], m).unwrap();
        }
        // "Each GoogleMap operator connects to all Group operators."
        for &m in &maps {
            for &g in &groups {
                qn.connect(m, g).unwrap();
            }
        }
        for (i, &a) in kms.iter().enumerate() {
            qn.connect(groups[i], a).unwrap();
        }
        for &a in &kms {
            qn.connect(a, sink).unwrap();
        }
        debug_assert_eq!(qn.len(), 55);
        Tmi { cfg, qn, roles }
    }

    /// Default-configured TMI (N = 10).
    pub fn default_app() -> Tmi {
        Tmi::new(TmiConfig::default())
    }

    /// TMI with a specific window length (Fig. 5a's N).
    pub fn with_window_minutes(n: u64) -> Tmi {
        Tmi::new(TmiConfig {
            window_minutes: n,
            ..TmiConfig::default()
        })
    }
}

impl AppSpec for Tmi {
    fn name(&self) -> &str {
        "TMI"
    }

    fn query_network(&self) -> QueryNetwork {
        self.qn.clone()
    }

    fn build_operator(&self, op: OperatorId, _rng: &mut DetRng) -> Box<dyn Operator> {
        match self.roles[op.index()] {
            Role::Source(station) => Box::new(SourceOp {
                station,
                emitted: 0,
                tick: self.cfg.source_tick,
                batch_bytes: self.cfg.batch_bytes,
            }),
            Role::Pair => Box::new(PairOp::default()),
            Role::Map => Box::new(MapOp::default()),
            Role::Group => Box::new(GroupOp {
                grouped_bytes: self.cfg.grouped_bytes,
                ..GroupOp::default()
            }),
            Role::KMeans => Box::new(KMeansOp {
                window: SimDuration::from_secs(self.cfg.window_minutes * 60),
                ..KMeansOp::default()
            }),
            Role::Sink => Box::new(SinkOp::default()),
        }
    }
}

// ---------------- operators ----------------

/// Base-station source: emits one position batch per tick (greedy,
/// backpressured by the engine).
struct SourceOp {
    station: u32,
    emitted: u64,
    tick: SimDuration,
    batch_bytes: u64,
}

impl Operator for SourceOp {
    fn kind(&self) -> &'static str {
        "TmiSource"
    }

    fn on_tuple(&mut self, _p: PortId, _t: Tuple, _ctx: &mut dyn OperatorContext) {}

    fn on_timer(&mut self, ctx: &mut dyn OperatorContext) {
        self.emitted += 1;
        // Position batch: station id + a handful of phone speed
        // observations (mode-dependent speed distributions).
        let mut digest = vec![f64::from(self.station), self.emitted as f64];
        for _ in 0..6 {
            let mode = ctx.rand_u64() % 4;
            let speed = match mode {
                0 => 0.2 + ctx.rand_f64() * 1.0,   // still
                1 => 1.0 + ctx.rand_f64() * 2.0,   // walking
                2 => 6.0 + ctx.rand_f64() * 6.0,   // bus
                _ => 10.0 + ctx.rand_f64() * 20.0, // driving
            };
            digest.push(speed);
        }
        ctx.emit_all(vec![Value::Blob {
            logical_bytes: self.batch_bytes,
            digest: digest.iter().map(|&v| v as f32).collect(),
        }]);
    }

    fn timer_interval(&self) -> Option<SimDuration> {
        Some(self.tick)
    }

    fn state_size(&self) -> u64 {
        16
    }

    fn snapshot(&self) -> OperatorSnapshot {
        let mut w = SnapshotWriter::new();
        w.put_u64(self.emitted);
        OperatorSnapshot {
            data: w.finish(),
            logical_bytes: self.state_size(),
        }
    }

    fn restore(&mut self, s: &OperatorSnapshot) -> ms_core::Result<()> {
        self.emitted = SnapshotReader::new(&s.data).get_u64()?;
        Ok(())
    }

    fn timer_cost(&self) -> SimDuration {
        SimDuration::from_micros(500)
    }
}

/// Pair: computes speeds from successive positions; keeps a bounded
/// last-position table (static state).
#[derive(Default)]
struct PairOp {
    /// Logical bytes of the last-position table (bounded).
    table_bytes: u64,
    processed: u64,
}

const PAIR_TABLE_CAP: u64 = 3_000_000;

impl Operator for PairOp {
    fn kind(&self) -> &'static str {
        "Pair"
    }

    fn on_tuple(&mut self, _p: PortId, t: Tuple, ctx: &mut dyn OperatorContext) {
        self.processed += 1;
        // Table grows toward its cap as phones are seen.
        self.table_bytes = (self.table_bytes + 2_000).min(PAIR_TABLE_CAP);
        if let Some(Value::Blob {
            logical_bytes,
            digest,
        }) = t.fields.first()
        {
            // Speed = |Δposition| / Δt, already folded into the speed
            // features; pass them through with the pairing applied.
            let speeds: Vec<f32> = digest.iter().skip(2).copied().collect();
            ctx.emit_all(vec![Value::Blob {
                logical_bytes: logical_bytes / 2,
                digest: [&digest[..2.min(digest.len())], &speeds[..]].concat(),
            }]);
        }
    }

    fn service_time(&self, _t: &Tuple) -> SimDuration {
        SimDuration::from_millis(25)
    }

    fn state_size(&self) -> u64 {
        self.table_bytes + 16
    }

    fn snapshot(&self) -> OperatorSnapshot {
        let mut w = SnapshotWriter::new();
        w.put_u64(self.table_bytes).put_u64(self.processed);
        OperatorSnapshot {
            data: w.finish(),
            logical_bytes: self.state_size(),
        }
    }

    fn restore(&mut self, s: &OperatorSnapshot) -> ms_core::Result<()> {
        let mut r = SnapshotReader::new(&s.data);
        self.table_bytes = r.get_u64()?;
        self.processed = r.get_u64()?;
        Ok(())
    }
}

/// GoogleMap: annotates with reference speeds and shards to the Group
/// operators by phone hash ("downloading reference speed for each
/// transportation mode").
#[derive(Default)]
struct MapOp {
    cache_bytes: u64,
    processed: u64,
}

const MAP_CACHE_CAP: u64 = 1_000_000;

impl Operator for MapOp {
    fn kind(&self) -> &'static str {
        "GoogleMap"
    }

    fn on_tuple(&mut self, _p: PortId, t: Tuple, ctx: &mut dyn OperatorContext) {
        self.processed += 1;
        self.cache_bytes = (self.cache_bytes + 1_000).min(MAP_CACHE_CAP);
        if let Some(Value::Blob {
            logical_bytes,
            digest,
        }) = t.fields.first()
        {
            // Reference speed per mode appended; shard by station hash.
            let mut annotated = digest.clone();
            annotated.extend_from_slice(&[0.5, 1.5, 8.0, 16.0]);
            let shard = (digest.first().copied().unwrap_or(0.0) as u64 + t.seq) % N_GROUP as u64;
            ctx.emit(
                PortId(shard as u32),
                vec![Value::Blob {
                    logical_bytes: *logical_bytes,
                    digest: annotated,
                }],
            );
        }
    }

    fn service_time(&self, _t: &Tuple) -> SimDuration {
        SimDuration::from_millis(20)
    }

    fn state_size(&self) -> u64 {
        self.cache_bytes + 16
    }

    fn snapshot(&self) -> OperatorSnapshot {
        let mut w = SnapshotWriter::new();
        w.put_u64(self.cache_bytes).put_u64(self.processed);
        OperatorSnapshot {
            data: w.finish(),
            logical_bytes: self.state_size(),
        }
    }

    fn restore(&mut self, s: &OperatorSnapshot) -> ms_core::Result<()> {
        let mut r = SnapshotReader::new(&s.data);
        self.cache_bytes = r.get_u64()?;
        self.processed = r.get_u64()?;
        Ok(())
    }
}

/// Group: aggregates annotated batches; emits one grouped batch to its
/// k-means operator every `GROUP_FANIN` inputs.
#[derive(Default)]
struct GroupOp {
    grouped_bytes: u64,
    acc: Vec<f64>,
    count: u64,
}

const GROUP_FANIN: u64 = 25;

impl Operator for GroupOp {
    fn kind(&self) -> &'static str {
        "Group"
    }

    fn on_tuple(&mut self, _p: PortId, t: Tuple, ctx: &mut dyn OperatorContext) {
        if let Some(Value::Blob { digest, .. }) = t.fields.first() {
            if self.acc.len() < 8 {
                self.acc.resize(8, 0.0);
            }
            for (a, &d) in self.acc.iter_mut().zip(digest.iter().skip(2)) {
                *a += f64::from(d);
            }
            self.count += 1;
            if self.count % GROUP_FANIN == 0 {
                let n = GROUP_FANIN as f64;
                let features: Vec<f32> = self.acc.iter().map(|&v| (v / n) as f32).collect();
                self.acc.iter_mut().for_each(|v| *v = 0.0);
                ctx.emit_all(vec![Value::Blob {
                    logical_bytes: self.grouped_bytes,
                    digest: features,
                }]);
            }
        }
    }

    fn service_time(&self, _t: &Tuple) -> SimDuration {
        SimDuration::from_millis(5)
    }

    fn state_size(&self) -> u64 {
        64 + self.acc.len() as u64 * 8
    }

    fn snapshot(&self) -> OperatorSnapshot {
        let mut w = SnapshotWriter::with_capacity(27 + 9 * self.acc.len());
        w.put_u64(self.grouped_bytes).put_u64(self.count);
        w.put_u64(self.acc.len() as u64);
        for v in &self.acc {
            w.put_f64(*v);
        }
        OperatorSnapshot {
            data: w.finish(),
            logical_bytes: self.state_size(),
        }
    }

    fn restore(&mut self, s: &OperatorSnapshot) -> ms_core::Result<()> {
        let mut r = SnapshotReader::new(&s.data);
        self.grouped_bytes = r.get_u64()?;
        self.count = r.get_u64()?;
        let n = r.get_u64()? as usize;
        self.acc = (0..n)
            .map(|_| r.get_f64())
            .collect::<ms_core::Result<_>>()?;
        Ok(())
    }
}

/// K-means: pools grouped batches for the N-minute window, clusters at
/// the boundary, emits the mode summary, clears the pool. This is
/// TMI's dynamic HAU (Fig. 5a).
///
/// Delta-capable: the snapshot is a canonical `ms_core::delta` table —
/// one entry per pooled item (key = item index) plus a scalar-state
/// entry under [`KMEANS_META_KEY`] — so steady pooling epochs persist
/// only the newly pooled items, not the whole window.
#[derive(Default)]
struct KMeansOp {
    window: SimDuration,
    pool: Pool,
    windows_closed: u64,
    /// `windows_closed` at the last capture (dirty tracking for the
    /// scalar-state table entry).
    captured_windows: u64,
}

/// Table key of the k-means scalar state (`windows_closed`); item keys
/// count up from zero, so `u64::MAX` can never collide.
const KMEANS_META_KEY: u64 = u64::MAX;

impl Operator for KMeansOp {
    fn kind(&self) -> &'static str {
        "KMeans"
    }

    fn on_tuple(&mut self, _p: PortId, t: Tuple, _ctx: &mut dyn OperatorContext) {
        if let Some(Value::Blob {
            logical_bytes,
            digest,
        }) = t.fields.first()
        {
            self.pool.push(
                digest.iter().map(|&f| f64::from(f)).collect(),
                *logical_bytes,
            );
        }
        // Absorbing operator: tuples retire into the pool.
    }

    fn on_timer(&mut self, ctx: &mut dyn OperatorContext) {
        self.windows_closed += 1;
        if self.pool.is_empty() {
            return;
        }
        let mut rng = DetRng::new(ctx.rand_u64());
        let result = kmeans(&self.pool.features(), 4, 10, &mut rng);
        let mut digest: Vec<f32> = vec![self.pool.len() as f32];
        for c in result.centroids.iter().take(4) {
            digest.push(c.first().copied().unwrap_or(0.0) as f32);
        }
        self.pool.clear();
        ctx.emit_all(vec![Value::Blob {
            logical_bytes: 10_000,
            digest,
        }]);
    }

    fn timer_interval(&self) -> Option<SimDuration> {
        Some(self.window)
    }

    fn timer_aligned(&self) -> bool {
        true
    }

    fn timer_cost(&self) -> SimDuration {
        // Clustering cost scales with the pooled batch.
        SimDuration::from_micros(200) * self.pool.len() as u64
    }

    fn service_time(&self, _t: &Tuple) -> SimDuration {
        SimDuration::from_millis(5)
    }

    fn state_size(&self) -> u64 {
        64 + self.pool.sampled_size()
    }

    fn snapshot(&self) -> OperatorSnapshot {
        let mut table = self.pool.table();
        table.insert(KMEANS_META_KEY, self.windows_closed.to_le_bytes().to_vec());
        OperatorSnapshot {
            data: encode_table(&table),
            logical_bytes: self.state_size(),
        }
    }

    fn snapshot_delta(&mut self) -> Option<DeferredSnapshot> {
        let (mut changed, removed) = self.pool.take_delta();
        if self.windows_closed != self.captured_windows {
            changed.push((KMEANS_META_KEY, self.windows_closed.to_le_bytes().to_vec()));
            self.captured_windows = self.windows_closed;
        }
        let delta = StateDelta {
            changed,
            removed,
            logical_bytes: self.state_size(),
        };
        Some(DeferredSnapshot::Delta(delta.into()))
    }

    fn restore(&mut self, s: &OperatorSnapshot) -> ms_core::Result<()> {
        let mut table = decode_table(&s.data)?;
        let meta = table
            .remove(&KMEANS_META_KEY)
            .ok_or_else(|| Error::Codec("k-means snapshot missing scalar state".into()))?;
        self.windows_closed = u64::from_le_bytes(
            meta.as_slice()
                .try_into()
                .map_err(|_| Error::Codec("k-means scalar state malformed".into()))?,
        );
        let mut pool = Pool::new();
        for value in table.values() {
            let item = Pool::decode_item(value)?;
            pool.push(item.features, item.logical);
        }
        pool.mark_clean();
        self.pool = pool;
        self.captured_windows = self.windows_closed;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testctx::TestCtx;
    use ms_core::graph::{HauAssignment, HauGraph};

    #[test]
    fn network_matches_paper_shape() {
        let app = Tmi::default_app();
        let qn = app.query_network();
        assert_eq!(qn.len(), 55);
        qn.validate().unwrap();
        assert_eq!(qn.sources().len(), N_SOURCES);
        assert_eq!(qn.sinks().len(), 1);
        // Every GoogleMap op connects to all Group ops.
        let maps: Vec<OperatorId> = qn
            .operators()
            .filter(|&o| qn.meta(o).name.starts_with('M'))
            .collect();
        assert_eq!(maps.len(), N_MAP);
        for m in maps {
            assert_eq!(qn.downstream(m).len(), N_GROUP);
        }
        let assign = HauAssignment::one_per_operator(&qn);
        let graph = HauGraph::derive(&qn, &assign).unwrap();
        assert_eq!(graph.len(), 55);
    }

    #[test]
    fn kmeans_op_pools_and_clears() {
        let mut op = KMeansOp {
            window: SimDuration::from_secs(60),
            ..KMeansOp::default()
        };
        let mut ctx = TestCtx::new(1);
        for seq in 0..30 {
            let t = Tuple::new(
                OperatorId(0),
                seq,
                ms_core::time::SimTime::ZERO,
                vec![Value::Blob {
                    logical_bytes: 25_000,
                    digest: vec![1.0, 2.0, 3.0],
                }],
            );
            op.on_tuple(PortId(0), t, &mut ctx);
        }
        assert_eq!(op.pool.len(), 30);
        assert!(op.state_size() > 25_000 * 29);
        assert!(ctx.emitted.is_empty(), "pooling absorbs");
        let cost_full = op.timer_cost();
        op.on_timer(&mut ctx);
        assert_eq!(ctx.emitted.len(), 1, "summary emitted at window close");
        assert_eq!(op.pool.len(), 0, "pool cleared");
        assert!(op.state_size() < 1_000);
        assert!(cost_full > op.timer_cost());
    }

    #[test]
    fn kmeans_op_snapshot_roundtrip() {
        let mut op = KMeansOp {
            window: SimDuration::from_secs(60),
            ..KMeansOp::default()
        };
        let mut ctx = TestCtx::new(1);
        for seq in 0..5 {
            let t = Tuple::new(
                OperatorId(0),
                seq,
                ms_core::time::SimTime::ZERO,
                vec![Value::Blob {
                    logical_bytes: 100,
                    digest: vec![seq as f32],
                }],
            );
            op.on_tuple(PortId(0), t, &mut ctx);
        }
        let snap = op.snapshot();
        assert_eq!(snap.logical_bytes, op.state_size());
        let mut fresh = KMeansOp::default();
        fresh.restore(&snap).unwrap();
        assert_eq!(fresh.pool, op.pool);
    }

    #[test]
    fn kmeans_deltas_fold_to_full_snapshot() {
        use ms_core::delta::fold;
        use ms_core::operator::SnapshotPayload;

        let mut op = KMeansOp {
            window: SimDuration::from_secs(60),
            ..KMeansOp::default()
        };
        let mut ctx = TestCtx::new(1);
        let feed = |op: &mut KMeansOp, ctx: &mut TestCtx, range: std::ops::Range<u64>| {
            for seq in range {
                let t = Tuple::new(
                    OperatorId(0),
                    seq,
                    ms_core::time::SimTime::ZERO,
                    vec![Value::Blob {
                        logical_bytes: 100,
                        digest: vec![seq as f32],
                    }],
                );
                op.on_tuple(PortId(0), t, ctx);
            }
        };
        feed(&mut op, &mut ctx, 0..20);
        let base = op.snapshot();
        // Full capture as chain base: marks the tracker clean the same
        // way the host does when it persists a full snapshot.
        let _ = op.snapshot_delta();

        // Epoch 2: steady pooling — the delta is only the new items.
        feed(&mut op, &mut ctx, 20..25);
        let Some(d) = op.snapshot_delta() else {
            panic!("k-means must be delta-capable");
        };
        let SnapshotPayload::Delta(d1) = d.resolve() else {
            panic!("expected a delta payload");
        };
        assert_eq!(d1.changed.len(), 5, "only newly pooled items change");
        assert!(d1.encoded_bytes() * 3 < base.data.len());

        // Epoch 3: the window closes (pool cleared) and refills a bit.
        op.on_timer(&mut ctx);
        feed(&mut op, &mut ctx, 25..28);
        let Some(d) = op.snapshot_delta() else {
            panic!("k-means must be delta-capable");
        };
        let SnapshotPayload::Delta(d2) = d.resolve() else {
            panic!("expected a delta payload");
        };
        assert!(!d2.removed.is_empty(), "window close shrinks the table");

        // Folding the chain rebuilds the epoch-3 full snapshot exactly,
        // and restoring the fold rebuilds the operator exactly.
        let folded = fold(&base.data, &[d1, d2]).unwrap();
        assert_eq!(folded, op.snapshot().data);
        let mut fresh = KMeansOp::default();
        fresh
            .restore(&OperatorSnapshot {
                data: folded,
                logical_bytes: 0,
            })
            .unwrap();
        assert_eq!(fresh.pool, op.pool);
        assert_eq!(fresh.windows_closed, op.windows_closed);
    }

    #[test]
    fn source_emits_one_batch_per_tick() {
        let mut op = SourceOp {
            station: 3,
            emitted: 0,
            tick: SimDuration::from_millis(10),
            batch_bytes: 100_000,
        };
        let mut ctx = TestCtx::new(1);
        op.on_timer(&mut ctx);
        op.on_timer(&mut ctx);
        assert_eq!(ctx.emitted.len(), 2);
        let (_, fields) = &ctx.emitted[0];
        let (bytes, digest) = fields[0].as_blob().unwrap();
        assert_eq!(bytes, 100_000);
        assert_eq!(digest[0], 3.0);
        assert!(digest.len() >= 8);
    }
}
