//! The operator-host layer: one HAU of the MS-src token protocol,
//! independent of *what carries its streams* and *what thread runs it*.
//!
//! A host is a plain state machine with no I/O of its own. It owns a
//! set of [`OutputRoute`]s (one per logical consumer, each either a
//! single edge or a hash-sharded group of edges) and an [`Outbox`]:
//! everything it sends is queued there, addressed to a physical
//! target, and its driver moves the outbox after each call. It comes
//! in the paper's two shapes (§III-A/B):
//!
//! * [`SourceCore`] — preserve every emitted tuple in the
//!   [`StableStore`] *before* sending it; on a checkpoint command mark
//!   the stream boundary durably, hand the capture to the
//!   [`Persister`], then emit the token; on recovery resend the
//!   preserved suffix and resume numbering past it.
//! * [`InteriorCore`] — align tokens on fan-in, cut the checkpoint,
//!   forward the token.
//!
//! Whatever owns the streams drives them: `ms-wire` runs every core of
//! a worker on the poll(2) I/O thread that reads its sockets (demo
//! generators tick an [`Operator`](ms_core::operator::Operator) on
//! their deadlines; `ms-gate` feeds its source core from producer
//! sockets), and the crate's own tests pump both cores
//! deterministically on one thread. Either way the protocol logic is
//! this module's, unduplicated.
//!
//! # Three messages, and where data leaves an interior
//!
//! A stream carries [`HostMsg::DataBatch`], [`HostMsg::Token`] and
//! [`HostMsg::Eos`], nothing else: a run of tuples — one or a thousand
//! — is the only unit of data on every edge. A source routes a run as
//! soon as it is preserved. An interior stamps what its operator emits
//! at apply time (sequence numbers never depend on batching) but holds
//! it until the message in hand is done, then queues each route its
//! share as one [`OutputRoute::data_batch`]: a host fed batches emits
//! batches. That flush is private — no driver calls or observes it —
//! and also runs in `finish` and before every capture, so a token or
//! EOS never overtakes data emitted before it in the outbox and a cut's
//! `next_seq` is one past the last tuple queued.
//!
//! # The alignment window (MS-src+ap) and the one cut rule
//!
//! Interior hosts cut their checkpoint with a *non-blocking* alignment
//! window. Once an input has delivered its token for epoch `e`,
//! further tuples from that input are **buffered, never applied**,
//! until tokens for `e` have arrived on every live input. At that
//! point the host:
//!
//! 1. records per-input replay thresholds — one past the last tuple
//!    it applied from each input, the window's tuples not counted,
//! 2. captures its state with [`Operator::snapshot_deferred`] (or a
//!    delta) — for a table-backed operator an O(pages) copy-on-write
//!    view; the encode happens on the persister thread (the live
//!    stand-in for the forked COW child of §III-B),
//! 3. forwards the token and only then applies the buffered tuples.
//!
//! Alignment state is kept per epoch (a deque of windows), so a fast
//! input may deliver the token for `e+1` while `e` is still aligning
//! without corrupting either cut.
//!
//! A cut persists no in-flight tuples. §III-B has to save the tuples
//! between incoming and outgoing tokens because its 1-hop tokens jump
//! ahead of queued data. Here a token travels *behind* the data on a
//! FIFO edge, so every tuple a window buffers was sent after its
//! producer's own cut, and the producer sends it again after the
//! global rollback. A restored host starts from its state, its
//! `next_seq` and its thresholds, and nothing else; a replayed tuple
//! below its input's threshold is already in the restored state and is
//! dropped. The thresholds are recorded before the window is applied,
//! so none exceeds its producer's restored `next_seq`: the rule never
//! depends on a producer regenerating the *same* sequence numbers,
//! which a fan-in producer, whose interleaving across inputs is
//! timing-dependent, does not.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use ms_core::codec::BatchSizer;
use ms_core::error::{Error, Result};
use ms_core::ids::{EpochId, OperatorId, PortId};
use ms_core::metrics::{BackpressureGauges, CkptPhases, OperatorMeter};
use ms_core::operator::{DeferredSnapshot, Operator, OperatorContext};
use ms_core::shard::shard_of;
use ms_core::time::SimTime;
use ms_core::tuple::{Fields, Tuple};

use crate::storage::{CkptState, CkptWrite, StableStore};

/// What travels on a live stream between two hosts.
#[derive(Debug)]
pub enum HostMsg {
    /// A run of data tuples delivered as one unit — the only data
    /// message. A batch is exactly its tuples in order: every tuple
    /// keeps its own `seq`, so replay and dedup work per tuple, but the
    /// run crosses outboxes, inboxes, and the wire as a single
    /// message/frame.
    DataBatch(Arc<[Tuple]>),
    /// A checkpoint token for the given epoch.
    Token(EpochId),
    /// End of stream: the upstream host drained and exited.
    Eos,
}

impl HostMsg {
    /// Data tuples this message carries (tokens and EOS carry none).
    pub fn tuple_count(&self) -> usize {
        match self {
            HostMsg::DataBatch(batch) => batch.len(),
            HostMsg::Token(_) | HostMsg::Eos => 0,
        }
    }
}

/// One persistence work item: an individual checkpoint on its way to
/// stable storage. A table view is still unencoded — the persister
/// thread encodes it straight into the store write, off the hot path.
pub struct PersistItem {
    /// Checkpoint epoch.
    pub epoch: EpochId,
    /// The operator the checkpoint belongs to.
    pub op: OperatorId,
    /// The state capture: bytes, or a view still to encode.
    pub snapshot: DeferredSnapshot,
    /// For a [`DeferredSnapshot::Delta`] capture, the epoch of the
    /// previous capture the delta builds on. Must be `Some` for delta
    /// captures — the persister refuses a delta without a base rather
    /// than persist an unfoldable chain link.
    pub base: Option<EpochId>,
    /// Next emission sequence at the boundary.
    pub next_seq: u64,
    /// Per-input replay thresholds at the cut.
    pub resume_seq: Vec<u64>,
    /// Token-alignment wait for this cut (window opened → cut), µs.
    /// Zero for sources, which never align.
    pub align_us: u64,
    /// How long taking the capture held the host thread, µs.
    pub capture_us: u64,
    /// Per-operator meter the persister reports checkpoint bytes and
    /// phase timings into once the write lands. `None` disables
    /// telemetry for this item.
    pub meter: Option<Arc<OperatorMeter>>,
}

impl PersistItem {
    /// Writes the checkpoint to `store`, a view encoded on the way —
    /// the persister thread's whole job per item, callable inline by a
    /// single-threaded driver. `Ok(complete)` is the store's verdict on
    /// the epoch.
    pub fn persist(self, store: &dyn StableStore) -> Result<bool> {
        let pages_copied = self.snapshot.pages_copied();
        let state = match (self.snapshot, self.base) {
            (DeferredSnapshot::Ready(s), _) => CkptState::Full(s),
            (DeferredSnapshot::Full(view), _) => CkptState::FullView(view),
            (DeferredSnapshot::Delta(view), Some(base)) => CkptState::DeltaView { base, view },
            (DeferredSnapshot::Delta(_), None) => {
                return Err(Error::Storage(format!(
                    "delta capture {}/{} submitted without a base epoch",
                    self.epoch, self.op
                )))
            }
        };
        let write = CkptWrite {
            state,
            next_seq: self.next_seq,
            in_flight: Vec::new(),
            resume_seq: self.resume_seq,
        };
        let persist_start = Instant::now();
        let written = store.write_checkpoint(self.epoch, self.op, &write)?;
        if let Some(m) = &self.meter {
            let phases = CkptPhases {
                align_us: self.align_us,
                capture_us: self.capture_us,
                persist_us: persist_start.elapsed().as_micros() as u64,
            };
            let bytes = write.state.encoded_bytes() as u64;
            let is_delta = write.state.base().is_some();
            m.record_checkpoint(
                self.epoch.0,
                bytes,
                is_delta,
                phases,
                pages_copied,
                written.file,
            );
        }
        Ok(written.complete)
    }
}

/// Called by the persister after each checkpoint write attempt with
/// the item's meter and the store's verdict (`Ok(complete)` or error).
pub type DurableHook =
    Box<dyn Fn(EpochId, OperatorId, Option<&OperatorMeter>, &Result<bool>) + Send>;

/// The background persister thread — the live stand-in for the forked
/// COW child of §III-B. Hosts hand it [`PersistItem`]s over a channel
/// and keep processing; it resolves deferred snapshots (the expensive
/// serialization) and writes them to the [`StableStore`]. Dropping
/// the `Persister` closes the channel and joins the thread, so every
/// queued checkpoint is durable before the owner proceeds.
pub struct Persister {
    handle: Option<JoinHandle<()>>,
    tx: Option<Sender<PersistItem>>,
}

impl Persister {
    /// Spawns the persister thread over a stable store.
    pub fn spawn(store: Arc<dyn StableStore>) -> Persister {
        Persister::spawn_with(store, None)
    }

    /// Spawns the persister with a hook invoked after every write —
    /// the TCP worker uses it to ack durable checkpoints to the
    /// controller (`CkptDone`), closing the epoch barrier.
    pub fn spawn_with(store: Arc<dyn StableStore>, on_durable: Option<DurableHook>) -> Persister {
        let (tx, rx) = channel::<PersistItem>();
        let handle = std::thread::spawn(move || {
            while let Ok(item) = rx.recv() {
                let (epoch, op, meter) = (item.epoch, item.op, item.meter.clone());
                let outcome = item.persist(&*store);
                if let Err(e) = &outcome {
                    eprintln!("persister: checkpoint {epoch}/{op} not persisted: {e}");
                }
                if let Some(hook) = &on_durable {
                    hook(epoch, op, meter.as_deref(), &outcome);
                }
            }
        });
        Persister {
            handle: Some(handle),
            tx: Some(tx),
        }
    }

    /// A sender handle for hosts to submit checkpoints on.
    pub fn sender(&self) -> Sender<PersistItem> {
        self.tx.as_ref().expect("persister running").clone()
    }
}

impl Drop for Persister {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

// ---------------- output routing ----------------

/// Extracts the routing key from a tuple — the same function on every
/// producer of a sharded consumer, so one key always lands on one
/// shard.
pub type RouteKeyFn = Arc<dyn Fn(&Tuple) -> u64 + Send + Sync>;

/// A core's emissions awaiting its driver: `(target, message)` pairs in
/// emission order. The driver gives every physical target a `u32`
/// address when it wires the routes, and moves the outbox after each
/// call ([`InteriorCore::take_outbox`], [`SourceCore::take_outbox`]).
/// Queueing cannot fail, so no core ever learns whether or when its
/// consumer reads.
pub type Outbox = Vec<(u32, HostMsg)>;

/// Most encoded bytes — the exact batch-record size a [`BatchSizer`]
/// counts — one [`HostMsg::DataBatch`] carries: far above any steady-state batch
/// (tens of KiB), far below the 64 MiB
/// [`MAX_FRAME_BYTES`](ms_core::codec::MAX_FRAME_BYTES) past which the
/// peer's decoder reads a frame length as corruption and drops the
/// connection without an `Eos` — what the uncut recovery replay of a
/// long checkpoint period would hit.
const MAX_BATCH_BYTES: usize = 1 << 20;

/// Where one *logical* out-edge delivers: either a single physical
/// target, or the full shard group of a key-partitioned consumer, each
/// an address in the owning core's [`Outbox`]. Data tuples go to
/// exactly one target (the key's shard); tokens and EOS are broadcast
/// to every target, because each shard instance aligns and checkpoints
/// as a first-class HAU.
pub struct OutputRoute {
    targets: Vec<u32>,
    key: Option<RouteKeyFn>,
}

impl OutputRoute {
    /// A plain one-edge route (the unsharded wiring).
    pub fn single(target: u32) -> OutputRoute {
        OutputRoute {
            targets: vec![target],
            key: None,
        }
    }

    /// A hash-sharded route over a consumer's instance group, shard
    /// order. `key` must be deterministic in the tuple alone.
    pub fn sharded(targets: Vec<u32>, key: RouteKeyFn) -> OutputRoute {
        debug_assert!(!targets.is_empty(), "a route needs at least one target");
        OutputRoute {
            targets,
            key: Some(key),
        }
    }

    /// Queues a run of data tuples as [`HostMsg::DataBatch`]es: each
    /// tuple goes to its key's shard (or the only target), order within
    /// a shard preserved, and a shard's run leaves as consecutive
    /// batches of at most `MAX_BATCH_BYTES` encoded bytes — one batch
    /// in the common case; a single larger tuple travels alone.
    /// Returns the encoded bytes of every batch queued.
    pub fn data_batch(&self, out: &mut Outbox, tuples: impl IntoIterator<Item = Tuple>) -> u64 {
        let shards = self.targets.len();
        let mut runs = vec![(Vec::new(), BatchSizer::default()); shards];
        let mut bytes = 0;
        for t in tuples {
            let idx = match &self.key {
                Some(key) if shards > 1 => shard_of(key(&t), shards),
                _ => 0,
            };
            let (run, size) = &mut runs[idx];
            if !size.push_within(&t, MAX_BATCH_BYTES) {
                bytes += size.bytes();
                out.push((
                    self.targets[idx],
                    HostMsg::DataBatch(std::mem::take(run).into()),
                ));
                *size = BatchSizer::default();
                size.push(&t);
            }
            run.push(t);
        }
        for (&target, (run, size)) in self.targets.iter().zip(runs) {
            if !run.is_empty() {
                bytes += size.bytes();
                out.push((target, HostMsg::DataBatch(run.into())));
            }
        }
        bytes as u64
    }

    /// Broadcasts a checkpoint token to every shard instance.
    pub fn token(&self, out: &mut Outbox, epoch: EpochId) {
        out.extend(self.targets.iter().map(|&t| (t, HostMsg::Token(epoch))));
    }

    /// Broadcasts end-of-stream to every shard instance.
    pub fn eos(&self, out: &mut Outbox) {
        out.extend(self.targets.iter().map(|&t| (t, HostMsg::Eos)));
    }
}

/// Everything an interior (or sink) host needs to run one HAU.
pub struct HostWiring {
    /// The operator's id (stamped on emitted tuples).
    pub op_id: OperatorId,
    /// The operator itself.
    pub op: Box<dyn Operator>,
    /// One route per *logical* output port, in port order. A sharded
    /// consumer is one route over its whole instance group, so the
    /// operator's fanout (what `emit_all` sees) stays the logical one.
    pub outputs: Vec<OutputRoute>,
    /// First emission sequence (restored from a checkpoint, else 0).
    pub restored_seq: u64,
    /// Restored per-input replay thresholds: a tuple arriving on input
    /// `i` with `seq < resume_seq[i]` was applied before the restored
    /// cut and is dropped. Empty means no filtering (fresh start).
    pub resume_seq: Vec<u64>,
    /// Epoch of the checkpoint this host was restored from, if any.
    /// Seeds incremental capture: a delta-capable operator's first
    /// delta after recovery chains on the restored epoch (whose
    /// snapshot is exactly the state `restore` loaded). `None` on a
    /// fresh start — the first capture is always full.
    pub last_durable: Option<EpochId>,
    /// Per-operator flow/checkpoint meter (tuples in/out, bytes,
    /// state-size gauge, checkpoint phases). Updated on the hot path
    /// with relaxed atomics; `None` disables telemetry.
    pub telemetry: Option<Arc<OperatorMeter>>,
}

/// How a host ended: the operator with its final state, plus the first
/// stable-storage error if one stopped the stream early.
pub struct HostExit {
    /// The operator's id.
    pub op_id: OperatorId,
    /// The operator with its final state.
    pub op: Box<dyn Operator>,
    /// `Some` if the host stopped on a storage failure rather than a
    /// drained stream.
    pub error: Option<Error>,
}

/// Collects emissions inside a host.
struct LiveCtx {
    op: OperatorId,
    fanout: usize,
    emissions: Vec<(PortId, Fields)>,
    seed: u64,
}

impl OperatorContext for LiveCtx {
    fn emit_fields(&mut self, port: PortId, fields: Fields) {
        self.emissions.push((port, fields));
    }
    fn emit_all_fields(&mut self, fields: Fields) {
        for p in 0..self.fanout {
            self.emissions.push((PortId(p as u32), fields.clone()));
        }
    }
    fn now(&self) -> SimTime {
        SimTime::ZERO
    }
    fn self_id(&self) -> OperatorId {
        self.op
    }
    fn rand_f64(&mut self) -> f64 {
        (self.rand_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
    fn rand_u64(&mut self) -> u64 {
        self.seed = self.seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        self.seed
    }
}

/// One checkpoint's state as the host thread took it.
#[derive(Debug)]
pub struct Capture {
    /// The state: bytes, or a view the persister encodes.
    pub snapshot: DeferredSnapshot,
    /// The epoch a delta builds on; `None` for a full capture.
    pub base: Option<EpochId>,
    /// How long taking it held the host thread, µs.
    pub capture_us: u64,
}

impl Capture {
    /// Captures `op` for one checkpoint: an incremental delta chained
    /// on the previous capture when the operator supports it *and* a
    /// previous capture exists, else a full capture.
    pub fn of(op: &mut dyn Operator, last_captured: Option<EpochId>) -> Capture {
        Capture::timed(|| {
            if let Some(base) = last_captured {
                if let Some(delta) = op.snapshot_delta() {
                    return (delta, Some(base));
                }
            }
            (op.snapshot_deferred(), None)
        })
    }

    /// The full capture `take` returns, timed.
    pub fn full(take: impl FnOnce() -> DeferredSnapshot) -> Capture {
        Capture::timed(|| (take(), None))
    }

    fn timed(take: impl FnOnce() -> (DeferredSnapshot, Option<EpochId>)) -> Capture {
        let started = Instant::now();
        let (snapshot, base) = take();
        Capture {
            snapshot,
            base,
            capture_us: started.elapsed().as_micros() as u64,
        }
    }
}

/// One outstanding epoch in the alignment window of an interior host.
struct Window {
    epoch: EpochId,
    /// Which inputs have delivered this epoch's token.
    tokens: Vec<bool>,
    /// Tuples that arrived on a tokened input while this epoch was the
    /// youngest window covering that input: post-cut, applied after it.
    buffered: Vec<(u32, Tuple)>,
    /// When the first token opened this window — the cut's align-wait
    /// (the paper's "token collection" checkpoint phase) is measured
    /// from here.
    opened: Instant,
}

/// Stamps a run of emissions with consecutive sequence numbers.
fn stamp(
    op_id: OperatorId,
    next_seq: &mut u64,
    emissions: Vec<(PortId, Fields)>,
) -> impl Iterator<Item = (PortId, Tuple)> + '_ {
    emissions.into_iter().map(move |(port, fields)| {
        let t = Tuple::new(op_id, *next_seq, SimTime::ZERO, fields);
        *next_seq += 1;
        (port, t)
    })
}

/// Meters a run of stamped emissions and queues for each output route
/// the tuples bound for its port as one [`OutputRoute::data_batch`] —
/// how data leaves either core.
fn route_stamped(
    outputs: &[OutputRoute],
    telemetry: &Option<Arc<OperatorMeter>>,
    out: &mut Outbox,
    stamped: impl Iterator<Item = (PortId, Tuple)>,
) {
    let mut runs = vec![Vec::new(); outputs.len()];
    let mut emitted = 0u64;
    for (port, t) in stamped {
        emitted += 1;
        if let Some(run) = runs.get_mut(port.index()) {
            run.push(t);
        }
    }
    let sent_bytes: u64 = outputs
        .iter()
        .zip(runs)
        .map(|(route, run)| route.data_batch(out, run))
        .sum();
    // Emission metering is batched: one pair of relaxed adds per call,
    // not per tuple.
    if let Some(m) = telemetry.as_ref().filter(|_| emitted > 0) {
        m.add_tuples_out(emitted, sent_bytes);
    }
}

/// The interior/sink half of the host protocol as a plain state
/// machine: feed it messages with [`InteriorCore::on_msg`] from
/// whatever execution engine owns the streams — `ms-wire`'s I/O
/// thread, or a single-threaded test pump — and it runs token alignment,
/// cuts checkpoints, and queues what goes downstream in its [`Outbox`].
pub struct InteriorCore {
    op_id: OperatorId,
    op: Box<dyn Operator>,
    outputs: Vec<OutputRoute>,
    n_in: usize,
    next_seq: u64,
    cut_seq: Vec<u64>,
    eos: Vec<bool>,
    windows: VecDeque<Window>,
    last_captured: Option<EpochId>,
    persist: Sender<PersistItem>,
    /// Input-queue depth and alignment-window occupancy, as published.
    gauges: BackpressureGauges,
    telemetry: Option<Arc<OperatorMeter>>,
    /// Applied-tuple counter driving the periodic state-gauge sample
    /// in [`InteriorCore::apply`].
    applied: u64,
    /// Stamped emissions of the message in hand, not yet routed.
    pending: Vec<(PortId, Tuple)>,
    /// Routed messages awaiting the driver.
    outbox: Outbox,
    done: bool,
}

/// How many applied tuples between state-size gauge samples. The
/// gauge used to be written only at checkpoint cuts, so heartbeats
/// between epochs reported the *previous* epoch's size — useless to
/// the live `+aa` profiler, which needs to see intra-epoch movement.
/// A sample costs one `state_size()` call plus one relaxed atomic
/// store, amortized 1/32 per tuple — cheap only because
/// [`Operator::state_size`] is O(1) by contract: the keyed operators
/// return `DeltaTable::value_bytes`, a counter every mutation keeps
/// current. (A walk of the table here cost more than the tuples it
/// sampled on a 65,536-key state.)
pub const STATE_GAUGE_SAMPLE_EVERY: u64 = 32;

impl InteriorCore {
    /// Builds the state machine for a host with `n_in` input ports.
    pub fn new(w: HostWiring, n_in: usize, persist: Sender<PersistItem>) -> InteriorCore {
        debug_assert!(n_in > 0, "an interior host has at least one input");
        let cut_seq = if w.resume_seq.len() == n_in {
            w.resume_seq
        } else {
            vec![0; n_in]
        };
        InteriorCore {
            op_id: w.op_id,
            op: w.op,
            outputs: w.outputs,
            n_in,
            next_seq: w.restored_seq,
            cut_seq,
            eos: vec![false; n_in],
            windows: VecDeque::new(),
            last_captured: w.last_durable,
            persist,
            gauges: BackpressureGauges::default(),
            telemetry: w.telemetry,
            applied: 0,
            pending: Vec::new(),
            outbox: Outbox::new(),
            done: false,
        }
    }

    /// Whether every input has reached EOS. Once done, further
    /// messages are ignored.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Publishes backpressure gauges: the driver supplies the queued
    /// input depth (it owns the queues); window occupancy comes from
    /// the alignment state here.
    pub fn publish_backpressure(&mut self, queued_inputs: u64) {
        let buffered = self
            .windows
            .iter()
            .map(|win| win.buffered.len())
            .sum::<usize>();
        self.gauges = BackpressureGauges {
            queued_tuples: queued_inputs,
            open_windows: self.windows.len() as u64,
            window_tuples: buffered as u64,
        };
    }

    /// The backpressure gauges as last published.
    pub fn backpressure(&self) -> BackpressureGauges {
        self.gauges
    }

    /// Feeds one message from input `input`; returns `false` once the
    /// host is done and the driver should stop delivering.
    pub fn on_msg(&mut self, input: usize, msg: HostMsg) -> bool {
        if self.done {
            return false;
        }
        match msg {
            HostMsg::DataBatch(batch) => {
                // Inside an alignment window for this input? The batch
                // arrived after that token: buffer into the *youngest*
                // window whose token this input has delivered. No token
                // is handled mid-message, so one lookup serves the run.
                let win = self.windows.iter().rposition(|win| win.tokens[input]);
                for t in batch.iter() {
                    // Replay filter: below the threshold means the
                    // restored cut already accounted for this tuple.
                    if t.seq < self.cut_seq[input] {
                        continue;
                    }
                    match win {
                        Some(at) => self.windows[at].buffered.push((input as u32, t.clone())),
                        None => {
                            self.cut_seq[input] = t.seq + 1;
                            self.apply(input as u32, t.clone());
                        }
                    }
                }
            }
            HostMsg::Token(epoch) => {
                if let Some(win) = self.windows.iter_mut().find(|win| win.epoch == epoch) {
                    win.tokens[input] = true;
                } else {
                    // Tokens ride each edge in epoch order, so a fresh
                    // epoch opens a new window at the back; the sorted
                    // insert is defensive.
                    let at = self.windows.partition_point(|win| win.epoch < epoch);
                    let mut tokens = vec![false; self.n_in];
                    tokens[input] = true;
                    self.windows.insert(
                        at,
                        Window {
                            epoch,
                            tokens,
                            buffered: Vec::new(),
                            opened: Instant::now(),
                        },
                    );
                }
                self.cut_ready_windows();
            }
            HostMsg::Eos => {
                self.eos[input] = true;
                self.cut_ready_windows();
                if self.eos.iter().all(|&e| e) {
                    self.done = true;
                }
            }
        }
        self.flush();
        !self.done
    }

    /// Everything queued downstream since the last take, in emission
    /// order.
    pub fn take_outbox(&mut self) -> Outbox {
        std::mem::take(&mut self.outbox)
    }

    /// Consumes the host: queues EOS downstream — behind anything still
    /// pending — and returns the exit record with the operator's final
    /// state, and the last of the outbox.
    pub fn finish(mut self) -> (HostExit, Outbox) {
        self.flush();
        for route in &self.outputs {
            route.eos(&mut self.outbox);
        }
        let exit = HostExit {
            op_id: self.op_id,
            op: self.op,
            error: None,
        };
        (exit, self.outbox)
    }

    /// Queues for every output route the emissions pending since the
    /// last flush, one batch per route. Private on purpose: a driver
    /// delivers messages and never learns when data is routed.
    fn flush(&mut self) {
        if !self.pending.is_empty() {
            let pending = self.pending.drain(..);
            route_stamped(&self.outputs, &self.telemetry, &mut self.outbox, pending);
        }
    }

    /// Runs the operator on one tuple; what it emits is stamped now
    /// and leaves at the next [`InteriorCore::flush`].
    fn apply(&mut self, port: u32, t: Tuple) {
        if let Some(m) = &self.telemetry {
            m.add_tuples_in(1);
            self.applied += 1;
            if self.applied % STATE_GAUGE_SAMPLE_EVERY == 0 {
                m.set_state_bytes(self.op.state_size());
            }
        }
        let mut ctx = LiveCtx {
            op: self.op_id,
            fanout: self.outputs.len(),
            emissions: Vec::new(),
            seed: t.seq ^ 0xA5A5_A5A5,
        };
        self.op.on_tuple(PortId(port), t, &mut ctx);
        self.pending
            .extend(stamp(self.op_id, &mut self.next_seq, ctx.emissions));
    }

    /// Cuts every leading window whose tokens (or EOS) are complete.
    fn cut_ready_windows(&mut self) {
        while let Some(front) = self.windows.front() {
            if !(0..self.n_in).all(|i| front.tokens[i] || self.eos[i]) {
                break;
            }
            // Everything applied so far leaves before the cut: the
            // capture's `next_seq` is one past the last tuple sent, and
            // on every route the data precedes the token.
            self.flush();
            let win = self.windows.pop_front().expect("front window");
            let align_us = win.opened.elapsed().as_micros() as u64;
            if let Some(m) = &self.telemetry {
                m.set_state_bytes(self.op.state_size());
            }
            let capture = Capture::of(self.op.as_mut(), self.last_captured);
            self.last_captured = Some(win.epoch);
            let _ = self.persist.send(PersistItem {
                epoch: win.epoch,
                op: self.op_id,
                snapshot: capture.snapshot,
                base: capture.base,
                next_seq: self.next_seq,
                // Recorded before the window is applied: its tuples are
                // post-cut and pass these thresholds when re-sent.
                resume_seq: self.cut_seq.clone(),
                align_us,
                capture_us: capture.capture_us,
                meter: self.telemetry.clone(),
            });
            for route in &self.outputs {
                route.token(&mut self.outbox, win.epoch);
            }
            // The buffered tuples were only deferred for the cut:
            // apply them now, ahead of anything still in the streams.
            for (i, t) in win.buffered {
                let s = &mut self.cut_seq[i as usize];
                *s = (*s).max(t.seq + 1);
                self.apply(i, t);
            }
        }
    }
}

/// The source half of the host protocol as a plain state machine
/// (§III-A): every tuple goes to stable storage before it goes
/// downstream, a checkpoint is durable mark → capture to the persister
/// → token, recovery resends the preserved suffix and resumes numbering
/// past it. The driver owns whatever produces the data — a generating
/// [`Operator`] it [`tick`](SourceCore::tick)s, or (`ms-gate`) producer
/// sockets whose admitted batches it [`send`](SourceCore::send)s — and
/// decides when to checkpoint, and moves the [`Outbox`] after each call.
/// The first storage failure stops the host: later calls are refused
/// and [`SourceCore::finish`] reports it in the [`HostExit`].
pub struct SourceCore {
    op_id: OperatorId,
    outputs: Vec<OutputRoute>,
    outbox: Outbox,
    next_seq: u64,
    last_captured: Option<EpochId>,
    store: Arc<dyn StableStore>,
    persist: Sender<PersistItem>,
    telemetry: Option<Arc<OperatorMeter>>,
    error: Option<Error>,
}

impl SourceCore {
    /// Builds a source host. `restored_seq` and `last_durable` mean
    /// what they mean in [`HostWiring`].
    pub fn new(
        op_id: OperatorId,
        outputs: Vec<OutputRoute>,
        restored_seq: u64,
        last_durable: Option<EpochId>,
        store: Arc<dyn StableStore>,
        persist: Sender<PersistItem>,
        telemetry: Option<Arc<OperatorMeter>>,
    ) -> SourceCore {
        SourceCore {
            op_id,
            outputs,
            outbox: Outbox::new(),
            next_seq: restored_seq,
            last_captured: last_durable,
            store,
            persist,
            telemetry,
            error: None,
        }
    }

    /// The emission counter, for a driver that stamps its own tuples
    /// before handing them to [`SourceCore::send`].
    pub fn next_seq_mut(&mut self) -> &mut u64 {
        &mut self.next_seq
    }

    /// Everything queued downstream since the last take, in emission
    /// order.
    pub fn take_outbox(&mut self) -> Outbox {
        std::mem::take(&mut self.outbox)
    }

    /// Stops the host on `e` (the first error wins).
    pub fn fail(&mut self, e: Error) {
        self.error.get_or_insert(e);
    }

    /// Recovery catch-up: queues the preserved log suffix downstream —
    /// one run per route, skipping records that are not `routable`
    /// (WAL-only markers) — and continues numbering past all of it.
    /// Replay goes through the routes, so a sharded consumer sees each
    /// tuple on the shard the original delivery used.
    pub fn replay(&mut self, mut preserved: Vec<Tuple>, routable: impl Fn(&Tuple) -> bool) {
        if let Some(last) = preserved.last() {
            self.next_seq = self.next_seq.max(last.seq + 1);
        }
        preserved.retain(routable);
        for route in &self.outputs {
            route.data_batch(&mut self.outbox, preserved.iter().cloned());
        }
    }

    /// [`SourceCore::replay`] for a generating operator, which is then
    /// fast-forwarded through the replayed interval: the preserved log
    /// *is* that data, it must not be generated again.
    pub fn resume(&mut self, op: &mut dyn Operator, preserved: Vec<Tuple>) {
        let replayed = preserved.len();
        self.replay(preserved, |_| true);
        for _ in 0..replayed {
            op.on_timer(&mut self.ctx(0));
        }
    }

    fn ctx(&self, seed: u64) -> LiveCtx {
        LiveCtx {
            op: self.op_id,
            fanout: self.outputs.len(),
            emissions: Vec::new(),
            seed,
        }
    }

    /// Source preservation: `wal` is durable when this returns the
    /// bytes the log grew by.
    fn preserve(&mut self, wal: &[Tuple]) -> Option<u64> {
        if self.error.is_none() && !wal.is_empty() {
            match self.store.append_log_batch(self.op_id, wal) {
                Ok(bytes) => return Some(bytes),
                Err(e) => self.fail(e),
            }
        }
        self.error.is_none().then_some(0)
    }

    /// Ticks a generating operator once: stamps what it emits,
    /// preserves the run, then queues each route its share. `false`
    /// means stop ticking — the operator stayed silent (the convention
    /// for an exhausted source) or the host failed.
    pub fn tick(&mut self, op: &mut dyn Operator) -> bool {
        if self.error.is_some() {
            return false;
        }
        let mut ctx = self.ctx(0x5DEECE66D ^ self.op_id.0 as u64);
        op.on_timer(&mut ctx);
        let (ports, tuples): (Vec<PortId>, Vec<Tuple>) =
            stamp(self.op_id, &mut self.next_seq, ctx.emissions).unzip();
        if tuples.is_empty() || self.preserve(&tuples).is_none() {
            return false;
        }
        let stamped = ports.into_iter().zip(tuples);
        route_stamped(&self.outputs, &self.telemetry, &mut self.outbox, stamped);
        true
    }

    /// Preserves `wal` — tuples the driver stamped itself — as one
    /// group append, and only then queues each `deliver` range of it
    /// as one batch on every route (a gateway fans out like a source).
    /// Records outside every range are WAL-only. Returns the bytes the
    /// log grew by; `None`: nothing is durable and nothing was queued.
    pub fn send(
        &mut self,
        wal: &[Tuple],
        deliver: impl IntoIterator<Item = Range<usize>>,
    ) -> Option<u64> {
        let wal_bytes = self.preserve(wal)?;
        for run in deliver.into_iter().map(|range| &wal[range]) {
            let sent_bytes: u64 = self
                .outputs
                .iter()
                .map(|route| route.data_batch(&mut self.outbox, run.iter().cloned()))
                .sum();
            if let Some(m) = self.telemetry.as_ref().filter(|_| !run.is_empty()) {
                m.add_tuples_out(run.len() as u64, sent_bytes);
            }
        }
        Some(wal_bytes)
    }

    /// The source checkpoint, in the only safe order: the stream
    /// boundary is durable before the checkpoint is even enqueued (an
    /// epoch that looks complete on disk always has its replay
    /// boundary), and the token leaves last. `state_bytes` feeds the
    /// state-size gauge. `false`: the mark failed — nothing enqueued, no token.
    pub fn checkpoint(&mut self, epoch: EpochId, capture: Capture, state_bytes: u64) -> bool {
        if self.error.is_some() {
            return false;
        }
        if let Err(e) = self.store.mark_epoch(self.op_id, epoch, self.next_seq) {
            self.fail(e);
            return false;
        }
        if let Some(m) = &self.telemetry {
            m.set_state_bytes(state_bytes);
        }
        self.last_captured = Some(epoch);
        let _ = self.persist.send(PersistItem {
            epoch,
            op: self.op_id,
            snapshot: capture.snapshot,
            base: capture.base,
            next_seq: self.next_seq,
            resume_seq: Vec::new(),
            align_us: 0,
            capture_us: capture.capture_us,
            meter: self.telemetry.clone(),
        });
        for route in &self.outputs {
            route.token(&mut self.outbox, epoch);
        }
        true
    }

    /// [`SourceCore::checkpoint`] of a generating operator's state — a
    /// delta on its previous capture when the operator supports it.
    pub fn checkpoint_operator(&mut self, epoch: EpochId, op: &mut dyn Operator) -> bool {
        let capture = Capture::of(op, self.last_captured);
        self.checkpoint(epoch, capture, op.state_size())
    }

    /// Consumes the host: queues EOS downstream and returns the exit
    /// record carrying `op`'s final state, and the last of the outbox.
    pub fn finish(mut self, op: Box<dyn Operator>) -> (HostExit, Outbox) {
        for route in &self.outputs {
            route.eos(&mut self.outbox);
        }
        let exit = HostExit {
            op_id: self.op_id,
            op,
            error: self.error,
        };
        (exit, self.outbox)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::Receiver;
    use std::sync::Mutex;

    use ms_core::value::Value;

    use crate::protocol::{CountSource, Doubler};
    use crate::storage::{CkptWritten, LiveHauCheckpoint};

    /// A recording store, and the ordered log it shares with the
    /// messages drained from a core's outbox. Every note first moves
    /// whatever sits in the persist queue into the log, so a
    /// [`PersistItem`] lands exactly between the last note made before
    /// it was enqueued and the first one made after. Calls whose name
    /// starts with `fail` are refused.
    struct Rec {
        log: Mutex<Vec<String>>,
        persist_rx: Mutex<Receiver<PersistItem>>,
        fail: &'static str,
    }

    impl Rec {
        /// Locks the log, first moving queued checkpoints into it.
        fn log(&self) -> std::sync::MutexGuard<'_, Vec<String>> {
            let mut log = self.log.lock().unwrap();
            let queued = self.persist_rx.lock().unwrap();
            log.extend(
                queued
                    .try_iter()
                    .map(|i| format!("enqueue {} next_seq {}", i.epoch.0, i.next_seq)),
            );
            log
        }

        fn note(&self, ev: String) -> Result<()> {
            let mut log = self.log();
            if !self.fail.is_empty() && ev.starts_with(self.fail) {
                return Err(Error::Storage(format!("{ev} refused")));
            }
            log.push(ev);
            Ok(())
        }

        fn take(&self) -> Vec<String> {
            std::mem::take(&mut *self.log())
        }
    }

    impl StableStore for Rec {
        fn write_checkpoint(
            &self,
            _: EpochId,
            _: OperatorId,
            _: &CkptWrite,
        ) -> Result<CkptWritten> {
            unreachable!("no persister runs")
        }
        fn get_checkpoint(&self, _: EpochId, _: OperatorId) -> Option<LiveHauCheckpoint> {
            None
        }
        fn latest_complete(&self) -> Option<EpochId> {
            None
        }
        fn append_log_batch(&self, _: OperatorId, batch: &[Tuple]) -> Result<u64> {
            self.note(format!("append {}", batch.len())).map(|()| 0)
        }
        fn mark_epoch(&self, _: OperatorId, epoch: EpochId, _: u64) -> Result<()> {
            self.note(format!("mark {}", epoch.0))
        }
        fn replay_from(&self, _: OperatorId, _: EpochId) -> Vec<Tuple> {
            Vec::new()
        }
        fn preserved_tuples(&self) -> usize {
            0
        }
    }

    impl Rec {
        /// Notes every message a call queued, in outbox order.
        fn drain(&self, outbox: Outbox) {
            for (route, msg) in outbox {
                let what = match &msg {
                    HostMsg::Token(epoch) => format!("token {}", epoch.0),
                    HostMsg::Eos => "eos".into(),
                    data => format!("data x{}", data.tuple_count()),
                };
                self.note(format!("{what} on {route}")).unwrap();
            }
        }
    }

    fn recorder(fail: &'static str) -> (Arc<Rec>, Sender<PersistItem>) {
        let (persist, persist_rx) = channel();
        let rec = Arc::new(Rec {
            log: Mutex::new(Vec::new()),
            persist_rx: Mutex::new(persist_rx),
            fail,
        });
        (rec, persist)
    }

    /// A two-route source over a recording store.
    fn source(fail: &'static str) -> (SourceCore, Arc<Rec>) {
        let (rec, persist) = recorder(fail);
        let outputs = (0..2).map(OutputRoute::single).collect();
        let src = SourceCore::new(OperatorId(0), outputs, 0, None, rec.clone(), persist, None);
        (src, rec)
    }

    fn stamped(seqs: Range<u64>) -> Vec<Tuple> {
        seqs.map(|seq| Tuple::new(OperatorId(0), seq, SimTime::ZERO, Vec::new()))
            .collect()
    }

    #[test]
    fn source_preserves_before_routing_and_marks_before_enqueue_before_token() {
        let (mut src, rec) = source("");
        let mut op = CountSource::new(10);
        // One tick of a two-port source: both emissions are durable in
        // one append before either leaves.
        assert!(src.tick(&mut op));
        rec.drain(src.take_outbox());
        assert_eq!(rec.take(), ["append 2", "data x1 on 0", "data x1 on 1"]);
        // A driver-stamped run: the WAL-only record in the middle is
        // preserved with the rest and delivered nowhere.
        assert!(src.send(&stamped(2..7), [0..2, 3..5]).is_some());
        rec.drain(src.take_outbox());
        let twice = ["data x2 on 0", "data x2 on 1"];
        assert_eq!(rec.take(), [&["append 5"][..], &twice, &twice].concat());
        assert!(src.checkpoint_operator(EpochId(1), &mut op));
        rec.drain(src.take_outbox());
        assert_eq!(
            rec.take(),
            [
                "mark 1",
                "enqueue 1 next_seq 2",
                "token 1 on 0",
                "token 1 on 1"
            ]
        );
        let (exit, outbox) = src.finish(Box::new(op));
        assert!(exit.error.is_none());
        rec.drain(outbox);
        assert_eq!(rec.take(), ["eos on 0", "eos on 1"]);
    }

    #[test]
    fn failed_mark_enqueues_nothing_sends_no_token_and_surfaces_at_exit() {
        let (mut src, rec) = source("mark");
        let mut op = CountSource::new(10);
        assert!(src.tick(&mut op));
        rec.drain(src.take_outbox());
        rec.take();
        assert!(!src.checkpoint_operator(EpochId(1), &mut op));
        assert!(!src.tick(&mut op), "a failed host stops generating");
        rec.drain(src.take_outbox());
        assert!(rec.take().is_empty());
        let (exit, _) = src.finish(Box::new(op));
        assert!(matches!(exit.error, Some(Error::Storage(_))));
    }

    #[test]
    fn failed_append_routes_nothing() {
        let (mut src, rec) = source("append");
        assert!(src.send(&stamped(0..3), Some(0..3)).is_none());
        assert!(!src.tick(&mut CountSource::new(10)));
        rec.drain(src.take_outbox());
        assert!(rec.take().is_empty());
        let (exit, _) = src.finish(Box::new(CountSource::new(0)));
        assert!(matches!(exit.error, Some(Error::Storage(_))));
    }

    fn int(seq: u64) -> Tuple {
        Tuple::new(OperatorId(0), seq, SimTime::ZERO, vec![Value::Int(1)])
    }

    fn ints(seqs: Range<u64>) -> HostMsg {
        HostMsg::DataBatch(seqs.map(int).collect())
    }

    /// A fresh two-input doubler with one recorded route.
    fn fan_in_doubler() -> (InteriorCore, Arc<Rec>) {
        let (rec, persist) = recorder("");
        let wiring = HostWiring {
            op_id: OperatorId(1),
            op: Box::new(Doubler::default()),
            outputs: vec![OutputRoute::single(0)],
            restored_seq: 0,
            resume_seq: Vec::new(),
            last_durable: None,
            telemetry: None,
        };
        (InteriorCore::new(wiring, 2, persist), rec)
    }

    #[test]
    fn published_gauges_count_the_queue_and_the_open_windows() {
        let (mut core, _) = fan_in_doubler();
        assert_eq!(core.backpressure(), BackpressureGauges::default());
        // Input 0 runs two epochs ahead: two windows open, holding the
        // 2 + 3 tuples that followed its tokens.
        for msg in [
            HostMsg::Token(EpochId(1)),
            ints(0..2),
            HostMsg::Token(EpochId(2)),
            ints(2..5),
        ] {
            assert!(core.on_msg(0, msg));
        }
        core.publish_backpressure(12);
        let published = BackpressureGauges {
            queued_tuples: 12,
            open_windows: 2,
            window_tuples: 5,
        };
        assert_eq!(core.backpressure(), published);
    }

    #[test]
    fn emissions_of_one_message_leave_as_one_batch_and_never_behind_a_token_or_eos() {
        let (mut core, rec) = fan_in_doubler();
        assert!(core.on_msg(0, ints(0..2)));
        rec.drain(core.take_outbox());
        assert_eq!(rec.take(), ["data x2 on 0"]);
        assert!(core.on_msg(1, ints(0..3)));
        rec.drain(core.take_outbox());
        assert_eq!(rec.take(), ["data x3 on 0"]);
        // Input 0 runs two epochs ahead and ends; its data waits in the
        // two alignment windows.
        for msg in [
            HostMsg::Token(EpochId(1)),
            ints(2..4),
            HostMsg::Token(EpochId(2)),
            ints(4..7),
            HostMsg::Eos,
        ] {
            assert!(core.on_msg(0, msg));
            rec.drain(core.take_outbox());
        }
        assert!(rec.take().is_empty());
        // Input 1 ending completes both windows inside one message.
        // What window 1's re-applied buffer emitted is queued before
        // cut 2 is taken — so cut 2's `next_seq` is one past the last
        // tuple queued (2 + 3 + 2) — and before token 2; window 2's is
        // queued before the host reports done, so EOS follows it.
        // Nothing leaves during a call: both cuts are enqueued before
        // the route's messages are drained.
        assert!(!core.on_msg(1, HostMsg::Eos));
        rec.drain(core.take_outbox());
        let (exit, outbox) = core.finish();
        assert!(exit.error.is_none());
        rec.drain(outbox);
        assert_eq!(
            rec.take(),
            [
                "enqueue 1 next_seq 5",
                "enqueue 2 next_seq 7",
                "token 1 on 0",
                "data x2 on 0",
                "token 2 on 0",
                "data x3 on 0",
                "eos on 0",
            ]
        );
    }

    #[test]
    fn a_replay_over_the_batch_cap_reaches_each_shard_as_several_batches_in_order() {
        let route = OutputRoute::sharded(vec![0, 1], Arc::new(|t: &Tuple| t.seq));
        let (rec, persist) = recorder("");
        let mut src = SourceCore::new(OperatorId(0), vec![route], 0, None, rec, persist, None);
        // 48 tuples of ~100 KiB — each shard's share is about twice the
        // cap — and one that exceeds the cap by itself.
        let blob = |seq: u64, len: usize| {
            let fields = vec![Value::Str("x".repeat(len))];
            Tuple::new(OperatorId(0), seq, SimTime::ZERO, fields)
        };
        let mut preserved: Vec<Tuple> = (0..48).map(|seq| blob(seq, 100 << 10)).collect();
        preserved[7] = blob(7, MAX_BATCH_BYTES + 1);
        src.replay(preserved.clone(), |_| true);
        let outbox = src.take_outbox();
        for shard in 0..2 {
            let batches: Vec<Arc<[Tuple]>> = outbox
                .iter()
                .filter(|(target, _)| *target == shard as u32)
                .map(|(_, msg)| match msg {
                    HostMsg::DataBatch(batch) => batch.clone(),
                    other => panic!("replay sent {other:?}"),
                })
                .collect();
            assert!(batches.len() > 1, "shard {shard} got one message");
            for batch in &batches {
                // Under the cap encoded, or the one over-sized tuple by
                // itself.
                let mut size = BatchSizer::default();
                batch.iter().for_each(|t| size.push(t));
                assert!(
                    size.bytes() <= MAX_BATCH_BYTES || batch.len() == 1,
                    "{}-byte batch",
                    size.bytes()
                );
            }
            let got: Vec<u64> = batches
                .iter()
                .flat_map(|b| b.iter().map(|t| t.seq))
                .collect();
            let want = (0..48u64).filter(|&seq| shard_of(seq, 2) == shard);
            assert_eq!(got, want.collect::<Vec<_>>(), "shard {shard} order");
        }
    }

    #[test]
    fn a_rebased_delta_meters_its_delta_and_the_full_file_the_store_wrote() {
        use crate::store::tests::tmpdir;
        use crate::{FsStore, RebasePolicy};
        use ms_core::delta::DeltaTable;

        let dir = tmpdir("meter_file");
        // Every delta is the chain's first link past its limit.
        let store = FsStore::open(&dir, 1).unwrap().with_policy(RebasePolicy {
            max_chain: 1,
            max_delta_pct: 1_000_000,
        });
        let meter = Arc::new(OperatorMeter::new());
        let item = |epoch, snapshot, base| PersistItem {
            epoch: EpochId(epoch),
            op: OperatorId(0),
            snapshot,
            base,
            next_seq: 0,
            resume_seq: Vec::new(),
            align_us: 0,
            capture_us: 0,
            meter: Some(Arc::clone(&meter)),
        };
        let mut t = DeltaTable::new();
        for k in 0..64u64 {
            t.insert(k, [k as u8; 16]);
        }
        let full = DeferredSnapshot::Full(t.freeze(0));
        assert!(item(1, full, None).persist(&store).unwrap());
        t.insert(7, [0xCC; 16]);
        let view = t.freeze(0);
        let delta_bytes = view.delta_bytes() as u64;
        let delta = DeferredSnapshot::Delta(view);
        assert!(item(2, delta, Some(EpochId(1))).persist(&store).unwrap());

        let s = meter.sample();
        let file = std::fs::metadata(dir.join("ckpt").join("e2_op0.ckpt"))
            .unwrap()
            .len();
        assert_eq!((s.ckpt_bytes, s.ckpt_is_delta), (delta_bytes, true));
        assert_eq!((s.file_bytes, s.file_is_delta), (file, false));
        assert!(
            file > 10 * delta_bytes,
            "{file} B rebased from {delta_bytes} B"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
