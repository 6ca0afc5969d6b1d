//! The operator abstraction.
//!
//! "Each operator is executed repeatedly to process the incoming data.
//! Whenever an operator finishes processing a unit of input data, it
//! produces the output data and sends them to the next operator."
//! (§II-A). Operators are single-threaded within an SPE; all
//! parallelism in the system comes from running many operators on many
//! nodes, so the trait is deliberately `&mut self` and dyn-safe.

use crate::delta::{StateDelta, TableView};
use crate::ids::{OperatorId, PortId};
use crate::state::StateSize;
use crate::time::{SimDuration, SimTime};
use crate::tuple::{Fields, Tuple};
use crate::value::Value;

/// A snapshot of one operator's state, as written to stable storage.
#[derive(Clone, Debug, PartialEq)]
pub struct OperatorSnapshot {
    /// The serialized state (real bytes, produced with
    /// [`crate::codec::SnapshotWriter`]).
    pub data: Vec<u8>,
    /// The state's *logical* size at snapshot time; disk and network
    /// cost models charge this amount.
    pub logical_bytes: u64,
}

impl OperatorSnapshot {
    /// An empty snapshot (stateless operator).
    pub fn empty() -> OperatorSnapshot {
        OperatorSnapshot {
            data: Vec::new(),
            logical_bytes: 0,
        }
    }
}

/// A state capture on its way to stable storage: plain owned data
/// with no closure in it, so it crosses to the persister thread as it
/// is.
///
/// `Ready` is bytes: small operators (gates, sinks, sources) serialize
/// inline with [`Operator::snapshot`]. `Full` and `Delta` are a frozen
/// [`TableView`] of a [`crate::delta::DeltaTable`] — O(pages) to take,
/// its pages shared copy-on-write with the live table, the live
/// stand-in for the paper's forked child (§III-B). Whoever holds the
/// view encodes from it: the whole table for `Full`, the changes since
/// the operator's previous capture for `Delta`. Only operators whose
/// full snapshot is a canonical [`crate::delta::encode_table`] table
/// may produce a `Delta` — the store folds the chain back into exactly
/// those bytes.
#[derive(Debug)]
pub enum DeferredSnapshot {
    /// Already-serialized state.
    Ready(OperatorSnapshot),
    /// The whole table, as a view.
    Full(TableView),
    /// The changes since the previous capture, as a view.
    Delta(TableView),
}

/// What a resolved capture turned out to be: a full snapshot, or a
/// delta relative to the operator's previous capture.
#[derive(Debug)]
pub enum SnapshotPayload {
    /// Complete serialized state.
    Full(OperatorSnapshot),
    /// Changes since the previous capture.
    Delta(StateDelta),
}

impl DeferredSnapshot {
    /// Produces the capture's payload in owned buffers: a full view
    /// encoded, a delta view's changed values copied. The persister
    /// never calls this — it streams a view into the store.
    pub fn resolve(self) -> SnapshotPayload {
        match self {
            DeferredSnapshot::Ready(s) => SnapshotPayload::Full(s),
            DeferredSnapshot::Full(view) => SnapshotPayload::Full(OperatorSnapshot {
                data: view.encode(),
                logical_bytes: view.logical_bytes(),
            }),
            DeferredSnapshot::Delta(view) => SnapshotPayload::Delta(view.to_delta()),
        }
    }

    /// The operator's logical state size at the capture.
    pub fn logical_bytes(&self) -> u64 {
        match self {
            DeferredSnapshot::Ready(s) => s.logical_bytes,
            DeferredSnapshot::Full(view) | DeferredSnapshot::Delta(view) => view.logical_bytes(),
        }
    }

    /// Pages the operator's table copied on write since its previous
    /// capture (zero for bytes).
    pub fn pages_copied(&self) -> u64 {
        match self {
            DeferredSnapshot::Ready(_) => 0,
            DeferredSnapshot::Full(view) | DeferredSnapshot::Delta(view) => view.pages_copied(),
        }
    }
}

/// Host-provided services available to an operator while it runs.
///
/// The context hides where the operator executes: the discrete-event
/// engine (`ms-runtime`) and the real-thread engine (`ms-live`) both
/// implement it, so the exact same operator code runs in either.
pub trait OperatorContext {
    /// Emits a tuple on the given output port. Port `k` reaches the
    /// operator's `k`-th downstream neighbour. The host stamps
    /// `producer`, `seq` and `source_time` (derived tuples inherit the
    /// source timestamp of the input being processed, so end-to-end
    /// latency is measured source-to-sink).
    fn emit(&mut self, port: PortId, fields: Vec<Value>) {
        self.emit_fields(port, fields.into());
    }

    /// Emits the same fields on every output port.
    fn emit_all(&mut self, fields: Vec<Value>) {
        self.emit_all_fields(fields.into());
    }

    /// Like [`OperatorContext::emit`], taking an existing [`Fields`]
    /// handle. Pass-through operators forward an input's payload this
    /// way so the emission shares the input's allocation instead of
    /// copying it.
    fn emit_fields(&mut self, port: PortId, fields: Fields);

    /// Like [`OperatorContext::emit_all`] for an existing [`Fields`]
    /// handle; every port shares one allocation.
    fn emit_all_fields(&mut self, fields: Fields);

    /// Current virtual time.
    fn now(&self) -> SimTime;

    /// The id of the operator being executed.
    fn self_id(&self) -> OperatorId;

    /// Deterministic per-operator random stream: uniform in `[0, 1)`.
    fn rand_f64(&mut self) -> f64;

    /// Deterministic per-operator random stream: uniform `u64`.
    fn rand_u64(&mut self) -> u64;
}

/// A stream operator.
///
/// Implementations hold their mutable state inline; the engine invokes
/// [`Operator::on_tuple`] for every arriving tuple and
/// [`Operator::on_timer`] at the interval requested by
/// [`Operator::timer_interval`]. Checkpointing uses
/// [`Operator::snapshot`]/[`Operator::restore`]; the application-aware
/// profiler polls [`Operator::state_size`].
pub trait Operator: Send {
    /// Short human-readable role name ("KMeans", "MotionFilter", …).
    fn kind(&self) -> &'static str;

    /// Processes one input tuple from the given input port. Port `k`
    /// carries tuples from the operator's `k`-th upstream neighbour
    /// (the paper's `input_port_k()` functions).
    fn on_tuple(&mut self, port: PortId, tuple: Tuple, ctx: &mut dyn OperatorContext);

    /// Invoked periodically if [`Operator::timer_interval`] is `Some`.
    /// Sources use this to generate tuples; windowed operators use it to
    /// close batches.
    fn on_timer(&mut self, _ctx: &mut dyn OperatorContext) {}

    /// Requested timer period, if any.
    fn timer_interval(&self) -> Option<SimDuration> {
        None
    }

    /// If true, the host fires this operator's timer on aligned period
    /// boundaries (first tick exactly one interval in). Windowed batch
    /// kernels set this so sibling windows close together — the
    /// application-wide state-size sawtooth of Fig. 5 depends on it.
    /// Sources keep the default (randomized phase).
    fn timer_aligned(&self) -> bool {
        false
    }

    /// Estimated logical state size in bytes (the precompiler-generated
    /// `state_size()` of §III-C1).
    ///
    /// Must be O(1) — a maintained counter or a fixed-size sample,
    /// never a walk of the state: the live host samples it every 32
    /// applied tuples and at every checkpoint cut, so its cost is paid
    /// on the tuple path, and a walk of a large state there costs more
    /// than the tuples themselves.
    fn state_size(&self) -> u64;

    /// Serializes the operator's full state.
    fn snapshot(&self) -> OperatorSnapshot;

    /// Captures the full state for checkpointing. The default
    /// serializes eagerly via [`Operator::snapshot`]; an operator that
    /// keeps its state in a [`crate::delta::DeltaTable`] returns
    /// [`DeferredSnapshot::Full`] of [`crate::delta::DeltaTable::freeze`]
    /// instead, so the host thread resumes processing after an
    /// O(pages) capture while the persister encodes — the §III-B
    /// hot-checkpoint path.
    ///
    /// An operator that implements [`Operator::snapshot_delta`] clears
    /// its dirty tracker here (hence `&mut self`; `freeze` does it):
    /// the full capture covers every change so far, and the next delta
    /// must carry only the changes made after it.
    fn snapshot_deferred(&mut self) -> DeferredSnapshot {
        DeferredSnapshot::Ready(self.snapshot())
    }

    /// Captures only the state changed since this operator's *previous*
    /// capture, for incremental checkpointing. `None` (the default)
    /// means the operator does not track dirty state and the host falls
    /// back to [`Operator::snapshot_deferred`].
    ///
    /// Contract for implementors:
    /// * The capture is a [`DeferredSnapshot::Delta`]: a
    ///   [`crate::delta::DeltaTable::freeze`], or the view of a
    ///   [`StateDelta`] the operator computed itself.
    /// * [`Operator::snapshot`] must serialize the full state as a
    ///   canonical [`crate::delta::encode_table`] table, so folding a
    ///   base + delta chain is byte-identical to a full snapshot.
    /// * A successful call transfers the dirty set into the returned
    ///   capture and leaves the tracker clean (hence `&mut self`); the
    ///   host guarantees the previous capture is durably ordered before
    ///   this one (the persister is a FIFO).
    /// * [`Operator::restore`] must reset the tracker to clean — a
    ///   restored snapshot *is* the last durable capture.
    fn snapshot_delta(&mut self) -> Option<DeferredSnapshot> {
        None
    }

    /// Restores state from a snapshot taken by the same operator kind.
    fn restore(&mut self, snapshot: &OperatorSnapshot) -> crate::error::Result<()>;

    /// Virtual CPU time needed to process one tuple. The default charges
    /// a fixed 50 µs plus 5 ns per payload byte (≈ moving the tuple
    /// through one core at 200 MB/s), a reasonable stand-in for light
    /// per-tuple work; compute-heavy kernels override this.
    fn service_time(&self, tuple: &Tuple) -> SimDuration {
        SimDuration::from_micros(50 + tuple.payload_bytes() / 200)
    }

    /// Virtual CPU time charged for one [`Operator::on_timer`] tick,
    /// evaluated *before* the tick runs (so window-closing kernels can
    /// price the batch they are about to process). Sources typically
    /// keep the default; batch kernels override.
    fn timer_cost(&self) -> SimDuration {
        SimDuration::from_micros(50)
    }
}

impl StateSize for dyn Operator {
    fn state_size(&self) -> u64 {
        Operator::state_size(self)
    }
}

/// A trivially stateless pass-through operator, useful in tests and as
/// a building block for routing stages.
#[derive(Debug, Default)]
pub struct Passthrough {
    forwarded: u64,
}

impl Passthrough {
    /// Creates a pass-through operator.
    pub fn new() -> Passthrough {
        Passthrough::default()
    }
}

impl Operator for Passthrough {
    fn kind(&self) -> &'static str {
        "Passthrough"
    }

    fn on_tuple(&mut self, _port: PortId, tuple: Tuple, ctx: &mut dyn OperatorContext) {
        self.forwarded += 1;
        ctx.emit_all_fields(tuple.fields);
    }

    fn state_size(&self) -> u64 {
        8
    }

    fn snapshot(&self) -> OperatorSnapshot {
        let mut w = crate::codec::SnapshotWriter::new();
        w.put_u64(self.forwarded);
        OperatorSnapshot {
            data: w.finish(),
            logical_bytes: self.state_size(),
        }
    }

    fn restore(&mut self, snapshot: &OperatorSnapshot) -> crate::error::Result<()> {
        let mut r = crate::codec::SnapshotReader::new(&snapshot.data);
        self.forwarded = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::PortId;

    /// Minimal test double for [`OperatorContext`].
    pub struct TestCtx {
        pub now: SimTime,
        pub id: OperatorId,
        pub emitted: Vec<(PortId, Fields)>,
        pub fanout: usize,
        seed: u64,
    }

    impl TestCtx {
        pub fn new(fanout: usize) -> TestCtx {
            TestCtx {
                now: SimTime::ZERO,
                id: OperatorId(0),
                emitted: Vec::new(),
                fanout,
                seed: 0x9E3779B97F4A7C15,
            }
        }
    }

    impl OperatorContext for TestCtx {
        fn emit_fields(&mut self, port: PortId, fields: Fields) {
            self.emitted.push((port, fields));
        }
        fn emit_all_fields(&mut self, fields: Fields) {
            for p in 0..self.fanout {
                self.emitted.push((PortId(p as u32), fields.clone()));
            }
        }
        fn now(&self) -> SimTime {
            self.now
        }
        fn self_id(&self) -> OperatorId {
            self.id
        }
        fn rand_f64(&mut self) -> f64 {
            (self.rand_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
        fn rand_u64(&mut self) -> u64 {
            // SplitMix64 step: plenty for tests.
            self.seed = self.seed.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn passthrough_forwards_to_every_port() {
        let mut op = Passthrough::new();
        let mut ctx = TestCtx::new(2);
        let t = Tuple::new(OperatorId(1), 0, SimTime::ZERO, vec![Value::Int(7)]);
        op.on_tuple(PortId(0), t, &mut ctx);
        assert_eq!(ctx.emitted.len(), 2);
        assert_eq!(ctx.emitted[0].0, PortId(0));
        assert_eq!(ctx.emitted[1].0, PortId(1));
    }

    #[test]
    fn passthrough_snapshot_roundtrip() {
        let mut op = Passthrough::new();
        let mut ctx = TestCtx::new(1);
        for i in 0..5 {
            let t = Tuple::new(OperatorId(1), i, SimTime::ZERO, vec![]);
            op.on_tuple(PortId(0), t, &mut ctx);
        }
        let snap = op.snapshot();
        let mut fresh = Passthrough::new();
        fresh.restore(&snap).unwrap();
        assert_eq!(fresh.forwarded, 5);
    }

    #[test]
    fn default_service_time_scales_with_payload() {
        let op = Passthrough::new();
        let small = Tuple::new(OperatorId(0), 0, SimTime::ZERO, vec![]);
        let big = Tuple::new(OperatorId(0), 0, SimTime::ZERO, vec![Value::blob(1 << 20)]);
        assert!(op.service_time(&big) > op.service_time(&small));
    }

    #[test]
    fn test_ctx_rand_is_deterministic() {
        let mut a = TestCtx::new(1);
        let mut b = TestCtx::new(1);
        for _ in 0..10 {
            assert_eq!(a.rand_u64(), b.rand_u64());
            let f = a.rand_f64();
            assert!((0.0..1.0).contains(&f));
            let _ = b.rand_f64();
        }
    }
}
