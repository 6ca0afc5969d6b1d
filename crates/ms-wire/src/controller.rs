//! The `ms-controller` daemon: deployment, checkpoint pacing, failure
//! detection, and recovery orchestration for a TCP cluster.
//!
//! The controller is one thread. [`run_controller`] polls the listener
//! and both connections of every worker (control and heartbeat) with
//! `ms_net::ready::poll`, sleeping at most until the next 25 ms tick.
//! The sockets stay blocking: a readable one gets exactly one `read`
//! into its `FrameDecoder`, so the loop never blocks mid-frame. A
//! connection's first frame (`Register` or `HeartbeatHello`) binds it
//! to a worker name.
//!
//! Every decision lives in `Control`, a state machine that owns no
//! socket and reads no clock: it is fed registrations, messages and
//! ticks, each with its instant, and reaches workers through `Link`s.
//! Its transitions are the paper's §IV sequence:
//!
//! * **deploy** (nothing deployed and a full bench, evaluated on the
//!   input that can fill it — a registration or a rollback — so the
//!   [`Assignment`] leaves in the same call; after a failure, the tick
//!   deploys onto any survivors once `respawn_wait` has passed):
//!   broadcast the next generation's [`Assignment`]. After a failure,
//!   or on a controller resumed onto a store with history, it restores
//!   the latest *complete* checkpoint and sources replay their logs.
//! * **initiate** (tick, no barrier outstanding): the
//!   [`TelemetryPlane`] — the fixed timer unless `--aware` or a
//!   recovery budget is set — decides; `Checkpoint(e+1)` goes to every
//!   live worker and a decision row, `timer` included, to the ledger.
//! * **ack** (`CkptDone` of the deployed generation and epoch): its
//!   sample updates the operator's telemetry; the last of the n acks
//!   closes the barrier and cuts one ledger row per operator. Epoch
//!   `e+1` never starts before every HAU's epoch `e` is durable.
//! * **roll back** (heartbeat silence past `hb_timeout` of a worker
//!   hosting operators, a current `WorkerError`, a barrier open past
//!   `barrier_stall`, or an op-hosting worker registering again): one
//!   path — `Rollback` to the survivors, recovery clock armed, and the
//!   redeploy at once if the survivors (with any spare) fill the bench.
//! * **finish** (every sink's `SinkDone`): write the result file and
//!   shut the cluster down. The recovered answer is byte-identical to
//!   a failure-free run, which the integration tests assert.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ms_core::codec::FrameDecoder;
use ms_core::error::{Error, Result};
use ms_core::gate::GateConfig;
use ms_core::graph::QueryNetwork;
use ms_core::ids::{EpochId, OperatorId};
use ms_core::metrics::{BackpressureGauges, OperatorSample};
use ms_core::shard::{expand, ShardPlan};
use ms_gate::GateSample;
use ms_live::{FsStore, StableStore};
use ms_net::ready::{poll, Interest};

use crate::apps::demo_network;
use crate::cadence::{EpochSignals, PlaneConfig, TelemetryPlane};
use crate::ledger::{read_ledger, DecisionRecord, LedgerRecord, LedgerWriter, LEDGER_FILE};
use crate::message::{send_msg, Assignment, GateSpec, OpPlacement, WireMsg};
use crate::placement::{place_gates, spread_shards};

const TICK: Duration = Duration::from_millis(25);
/// Bytes one readiness event reads off a worker connection.
const READ_CHUNK: usize = 64 << 10;
/// Queued-tuple counts at/above this print a backpressure stall line…
const STALL_HI: u64 = 512;
/// …which clears (hysteresis) only once the queue drains below this.
const STALL_LO: u64 = 64;

/// Controller configuration.
#[derive(Clone, Debug)]
pub struct ControllerConfig {
    /// Listen address for worker control connections (use port 0 for
    /// an ephemeral port plus `addr_file`).
    pub listen: String,
    /// File to publish the bound address into (atomic rename), for
    /// workers started with `--controller-file`.
    pub addr_file: Option<PathBuf>,
    /// Shared stable-store directory.
    pub store_dir: PathBuf,
    /// Workers to wait for before the first assignment.
    pub workers: usize,
    /// Demo graph shape (`chainN` or `diamond`).
    pub shape: String,
    /// Tuples each source emits.
    pub source_limit: u64,
    /// Per-tuple source delay (µs).
    pub source_delay_us: u64,
    /// Key count for the keyed-state interior operator (0 = stateless
    /// doubler interiors, the original demo shape).
    pub keyed_state: u64,
    /// With `keyed_state`, collapse the interior keyed table every
    /// this many applied tuples (`SawtoothStat`) — gives the state a
    /// sawtooth profile with real local minima (0 = plain `KeyedStat`).
    pub sawtooth_window: u64,
    /// Key-partitioned instances per interior operator (0 or 1 = no
    /// sharding). The shape above is the *logical* graph; the cluster
    /// deploys its [`expand`]-ed physical graph, so e.g. `fleet6x6`
    /// with 8 shards runs 6 sources + 48 stage shards + 1 sink = 55
    /// HAUs — the paper's evaluation scale.
    pub shards: u64,
    /// Checkpoint-token cadence.
    pub ckpt_interval: Duration,
    /// Heartbeat silence treated as a failure.
    pub hb_timeout: Duration,
    /// An epoch barrier held open longer than this is treated as a
    /// generation failure and rolled back (`None` = wait forever). A
    /// severed edge eats checkpoint tokens without killing any
    /// process, so heartbeat detection never fires; this is the only
    /// detector that catches a live-but-partitioned cluster.
    pub barrier_stall: Option<Duration>,
    /// After a failure, how long to hold redeployment open for a spare
    /// worker to register before continuing with the survivors.
    pub respawn_wait: Duration,
    /// Hard wall-clock budget for the whole run (belt-and-braces for
    /// CI; exceeded ⇒ error exit, never a hang).
    pub deadline: Duration,
    /// Where to write the final result (first line `recoveries=N`,
    /// then one `sink op{N} {hex}` line per sink).
    pub result_file: Option<PathBuf>,
    /// When set, every source of the graph is hosted as an ingestion
    /// gateway (`ms-gate`) under this admission configuration instead
    /// of a demo source; external producers push batches at the
    /// addresses the gate hosts publish (`gate_op{N}.addr` under the
    /// store directory).
    pub gate: Option<GateConfig>,
    /// Live application-aware checkpoint timing (§III-C): profile the
    /// heartbeat state-size stream for `aware_profile_periods`
    /// checkpoint periods, then initiate epoch barriers at detected
    /// aggregate local minima instead of on the fixed timer. The
    /// fixed timer still runs while profiling and as the period-end
    /// backstop.
    pub aware: bool,
    /// Spacing between execution-phase sampling rounds of the live
    /// profiler (how often alert mode re-evaluates turning points).
    pub aware_sample: Duration,
    /// Checkpoint periods observed before the profile — dynamic set,
    /// `smax` — freezes and execution mode starts.
    pub aware_profile_periods: u32,
    /// Recovery-time budget for the adaptive cadence layer: after
    /// every epoch barrier the controller estimates worst-case
    /// recovery (restore + replay window) from measured ledger
    /// signals and widens/narrows the checkpoint period to hold this
    /// budget. `None` = the period stays fixed.
    pub recovery_budget: Option<Duration>,
}

/// What a finished run looked like.
#[derive(Debug, Default)]
pub struct ClusterReport {
    /// Failures recovered from.
    pub recoveries: usize,
    /// Checkpoint commands issued.
    pub checkpoints: u64,
    /// The epoch each recovery restored from (`None` = fresh restart).
    pub restore_epochs: Vec<Option<EpochId>>,
    /// Final serialized state per sink operator.
    pub sink_states: BTreeMap<OperatorId, Vec<u8>>,
}

impl ClusterReport {
    /// The result-file / stdout rendering (deterministic line order).
    pub fn render(&self) -> String {
        let mut out = format!("recoveries={}\n", self.recoveries);
        for (op, state) in &self.sink_states {
            let hex: String = state.iter().map(|b| format!("{b:02x}")).collect();
            out.push_str(&format!("sink {op} {hex}\n"));
        }
        out
    }
}

/// The controller's end of one worker's control connection: all
/// [`Control`] ever does with a worker is send it a message or close
/// the connection.
pub(crate) trait Link {
    /// Sends one message. A failed send is not reported: a worker that
    /// cannot be reached stops heartbeating, and that is what the
    /// controller acts on.
    fn send(&mut self, msg: &WireMsg);
    /// Closes the connection in both directions.
    fn close(&mut self);
}

impl Link for TcpStream {
    fn send(&mut self, msg: &WireMsg) {
        let _ = send_msg(self, msg);
    }

    fn close(&mut self) {
        let _ = self.shutdown(Shutdown::Both);
    }
}

struct Worker<L> {
    name: String,
    data_addr: String,
    link: L,
    last_beat: Instant,
    alive: bool,
    has_ops: bool,
    /// Latest backpressure gauges off the heartbeat stream.
    gauges: BackpressureGauges,
    /// Currently over the stall threshold (prints with hysteresis).
    stalled: bool,
}

impl<L> Worker<L> {
    /// Records a heartbeat. Sustained backpressure (deep input queues
    /// relative to the bounded channels) prints on crossing the high
    /// mark and clears only below the low mark — not a line per beat.
    fn beat(&mut self, now: Instant, gauges: BackpressureGauges) {
        self.last_beat = now;
        self.gauges = gauges;
        if !self.stalled && gauges.queued_tuples >= STALL_HI {
            self.stalled = true;
            println!(
                "ms-controller: worker {} backpressured (queued={} windows={} buffered={})",
                self.name, gauges.queued_tuples, gauges.open_windows, gauges.window_tuples
            );
        } else if self.stalled && gauges.queued_tuples <= STALL_LO {
            self.stalled = false;
            println!("ms-controller: worker {} drained", self.name);
        }
    }
}

/// The epoch barrier: the epoch whose durable acks are outstanding,
/// when its tokens went out, and the HAUs that acked it so far.
struct Barrier {
    epoch: EpochId,
    since: Instant,
    acked: HashSet<OperatorId>,
}

/// The controller as a state machine: every transition of the module
/// docs, driven by explicit instants, with workers behind [`Link`]s.
/// The stable store and the run ledger are the real ones, under
/// [`ControllerConfig::store_dir`].
pub(crate) struct Control<L> {
    cfg: ControllerConfig,
    qn: QueryNetwork,
    plan: ShardPlan,
    n_sinks: usize,
    store: FsStore,
    /// Advisory: a ledger that cannot be opened disables the trail but
    /// never fails the cluster.
    ledger: Option<LedgerWriter>,
    /// The store had history at start: this controller resumes an
    /// interrupted run.
    resumed: bool,
    workers: Vec<Worker<L>>,
    generation: u64,
    deployed: bool,
    /// The newest epoch any token was sent for.
    epoch: EpochId,
    last_ckpt: Instant,
    barrier: Option<Barrier>,
    /// When the failure being recovered was detected: set by a
    /// rollback, timing the redeploy's `respawn_wait`, and read at the
    /// restored generation's first barrier close into the measured
    /// recovery time.
    failed_at: Option<Instant>,
    /// Freshest sample per operator and per gate (current generation
    /// only), and where each operator runs — for folding the hosting
    /// worker's gauges into that operator's ledger rows.
    latest: HashMap<OperatorId, OperatorSample>,
    latest_gate: HashMap<OperatorId, GateSample>,
    op_worker: HashMap<OperatorId, String>,
    plane: TelemetryPlane,
    report: ClusterReport,
}

impl<L: Link> Control<L> {
    /// Loads the query network and opens the store and the run ledger
    /// under `cfg.store_dir`. A store with history means a restarted
    /// controller (the double-fault scenario): epoch numbering resumes
    /// strictly past every epoch any incarnation started, generation
    /// numbering past the ledger's last record, and the first
    /// deployment restores the latest complete checkpoint instead of
    /// replaying the run from scratch.
    pub fn new(cfg: ControllerConfig, now: Instant) -> Result<Control<L>> {
        // The configured shape is the logical graph; everything below —
        // checkpoint barrier, placement, store layout, ledger — runs on
        // its sharded physical expansion (identity when `shards <= 1`).
        let logical = demo_network(&cfg.shape)?;
        let (qn, plan) = expand(&logical, cfg.shards as usize)?;
        if cfg.shards > 1 {
            println!(
                "ms-controller: sharded {} logical operators into {} HAUs ({} shards/interior)",
                logical.len(),
                qn.len(),
                cfg.shards
            );
        }
        let store = FsStore::open(&cfg.store_dir, qn.len())?;
        // The ledger lives next to the checkpoints, opened in append
        // mode so one trail spans every generation of the run.
        let ledger_path = cfg.store_dir.join(LEDGER_FILE);
        let ledger = LedgerWriter::open(&ledger_path)
            .inspect_err(|e| eprintln!("ms-controller: run ledger disabled: {e}"))
            .ok();
        let epoch = store.max_epoch_started().unwrap_or(EpochId::INITIAL);
        let generation = read_ledger(&ledger_path)
            .ok()
            .and_then(|recs| recs.iter().map(|r| r.generation).max())
            .unwrap_or(0);
        let resumed = epoch != EpochId::INITIAL || generation > 0;
        if resumed {
            println!(
                "ms-controller: resuming on existing store \
                 (generation > {generation}, epoch > {epoch})"
            );
        }
        let plane = TelemetryPlane::new(
            &PlaneConfig {
                aware: cfg.aware,
                sample_interval: cfg.aware_sample,
                profile_periods: cfg.aware_profile_periods,
                period: cfg.ckpt_interval,
                recovery_budget: cfg.recovery_budget,
            },
            now,
        );
        Ok(Control {
            n_sinks: qn.sinks().len(),
            cfg,
            qn,
            plan,
            store,
            ledger,
            resumed,
            workers: Vec::new(),
            generation,
            deployed: false,
            epoch,
            last_ckpt: now,
            barrier: None,
            failed_at: None,
            latest: HashMap::new(),
            latest_gate: HashMap::new(),
            op_worker: HashMap::new(),
            plane,
            report: ClusterReport::default(),
        })
    }

    /// Every sink of the deployed generation has reported: the run is
    /// over.
    pub fn finished(&self) -> bool {
        self.report.sink_states.len() == self.n_sinks
    }

    /// A worker's control connection opened with `Register`; `link` is
    /// its write half.
    pub fn register(&mut self, now: Instant, name: String, data_addr: String, link: L) {
        println!("ms-controller: worker {name} registered at {data_addr}");
        // Still hosting operators of the deployed generation, yet
        // registering again: the process was restarted (a supervisor
        // can do that inside `hb_timeout`), its operators are gone and
        // its heartbeats never stopped. That is its loss.
        let restarted = self.deployed
            && self
                .workers
                .iter()
                .any(|w| w.name == name && w.alive && w.has_ops);
        self.workers.retain(|w| w.name != name);
        if restarted {
            println!("ms-controller: worker {name} restarted while hosting operators");
            self.roll_back(now);
        }
        self.workers.push(Worker {
            name,
            data_addr,
            link,
            last_beat: now,
            alive: true,
            has_ops: false,
            gauges: BackpressureGauges::default(),
            stalled: false,
        });
        self.try_deploy(now);
    }

    /// One message from worker `from`, on either of its connections.
    /// A message no worker sends is an error, and the caller drops the
    /// connection it came on.
    pub fn on_msg(&mut self, now: Instant, from: &str, msg: WireMsg) -> Result<()> {
        match msg {
            WireMsg::Heartbeat {
                generation,
                gauges,
                ops,
                gates,
            } => {
                if let Some(w) = self.workers.iter_mut().find(|w| w.name == from) {
                    w.beat(now, gauges);
                }
                if self.current(generation) {
                    for (op, s) in ops {
                        self.ingest(now, op, s);
                    }
                    self.latest_gate.extend(gates);
                }
            }
            WireMsg::CkptDone {
                generation,
                epoch,
                op,
                sample,
            } => {
                if self.current(generation) {
                    if let Some(s) = sample {
                        self.ingest(now, op, s);
                    }
                    self.ack(now, epoch, op);
                }
            }
            WireMsg::WorkerError { generation, detail } => {
                // The worker process is healthy — its generation is
                // not: no heartbeat timeout to wait out.
                if self.current(generation) {
                    println!("ms-controller: worker {from} reported fault: {detail}");
                    self.roll_back(now);
                }
            }
            WireMsg::SinkDone {
                generation,
                op,
                snapshot,
            } => {
                if self.current(generation) {
                    println!("ms-controller: sink {op} finished (generation {generation})");
                    self.report.sink_states.insert(op, snapshot);
                }
            }
            other => {
                return Err(Error::Wire(format!(
                    "worker {from} sent a controller message: {other:?}"
                )))
            }
        }
        Ok(())
    }

    /// The 25 ms beat, timer work only: heartbeat silence, then the
    /// barrier (a stall or the next initiation) — or, with nothing
    /// deployed, the redeploy onto survivors that `respawn_wait`'s
    /// expiry enables.
    pub fn tick(&mut self, now: Instant) {
        // Heartbeat silence counts whether or not a generation is
        // deployed: a worker that dies while a redeploy waits for
        // spares must leave the bench before it is handed operators.
        // Only a loss under a deployed generation is a recovery.
        let mut lost_ops = false;
        for w in &mut self.workers {
            if w.alive && now.duration_since(w.last_beat) > self.cfg.hb_timeout {
                println!(
                    "ms-controller: worker {} failed (heartbeat timeout)",
                    w.name
                );
                w.alive = false;
                w.link.close();
                lost_ops |= w.has_ops;
            }
        }
        if !self.deployed {
            self.try_deploy(now);
        } else {
            // A severed edge eats tokens without killing a process, so
            // heartbeats never stop: only a stall limit sees a
            // live-but-partitioned cluster.
            let stall = self.barrier.as_ref().and_then(|b| {
                let held = now.duration_since(b.since);
                self.cfg
                    .barrier_stall
                    .is_some_and(|limit| held > limit)
                    .then_some((b.epoch, held))
            });
            if lost_ops {
                self.roll_back(now);
            } else if let Some((epoch, held)) = stall {
                println!("ms-controller: epoch {epoch} barrier stalled {held:?} (partition?)");
                self.roll_back(now);
            } else if self.barrier.is_none() {
                self.initiate(now);
            }
        }
    }

    /// Ends the run: `Shutdown` to every live worker, every connection
    /// closed, and the report.
    pub fn shutdown(mut self) -> ClusterReport {
        self.broadcast(&WireMsg::Shutdown);
        for w in &mut self.workers {
            w.link.close();
        }
        self.report
    }

    fn current(&self, generation: u64) -> bool {
        self.deployed && generation == self.generation
    }

    fn broadcast(&mut self, msg: &WireMsg) {
        for w in self.workers.iter_mut().filter(|w| w.alive) {
            w.link.send(msg);
        }
    }

    fn append_decision(&mut self, rec: &DecisionRecord) {
        if let Some(l) = self.ledger.as_mut() {
            let _ = l.append_decision(rec);
        }
    }

    /// Keeps `s` as `op`'s freshest sample and feeds its state size to
    /// the profiler. Heartbeat samples race the acks' samples across
    /// the two connections: a stale one never rolls an operator's
    /// checkpoint record back an epoch.
    fn ingest(&mut self, now: Instant, op: OperatorId, s: OperatorSample) {
        if self
            .latest
            .get(&op)
            .is_some_and(|old| s.ckpt_epoch < old.ckpt_epoch)
        {
            return;
        }
        self.plane.ingest(now, op, s.state_bytes);
        self.latest.insert(op, s);
    }

    /// The one rollback path: abandon the generation, tell every
    /// survivor, arm the recovery clock, and redeploy at once when the
    /// bench is still full.
    fn roll_back(&mut self, now: Instant) {
        println!("ms-controller: rolling back generation {}", self.generation);
        self.report.recoveries += 1;
        self.report.sink_states.clear();
        self.deployed = false;
        self.barrier = None;
        self.failed_at = Some(now);
        self.broadcast(&WireMsg::Rollback);
        self.try_deploy(now);
    }

    /// The one initiation path: the plane decides, and every barrier it
    /// starts leaves a decision row saying why.
    fn initiate(&mut self, now: Instant) {
        let Some(cause) = self.plane.poll(now, now.duration_since(self.last_ckpt)) else {
            return;
        };
        self.epoch = self.epoch.next();
        self.report.checkpoints += 1;
        self.last_ckpt = now;
        self.barrier = Some(Barrier {
            epoch: self.epoch,
            since: now,
            acked: HashSet::new(),
        });
        let rec = self
            .plane
            .initiation_record(self.generation, self.epoch.0, cause);
        self.append_decision(&rec);
        self.broadcast(&WireMsg::Checkpoint(self.epoch));
    }

    fn ack(&mut self, now: Instant, epoch: EpochId, op: OperatorId) {
        let Some(b) = self.barrier.as_mut().filter(|b| b.epoch == epoch) else {
            return;
        };
        b.acked.insert(op);
        if b.acked.len() < self.qn.len() {
            return;
        }
        let barrier_us = now.duration_since(b.since).as_micros() as u64;
        self.barrier = None;
        self.close_barrier(now, epoch, barrier_us);
    }

    /// Epoch durable on every HAU: its ledger rows, the recovery row
    /// if this is a restored generation's first close, and the cadence
    /// layer's decision.
    fn close_barrier(&mut self, now: Instant, epoch: EpochId, barrier_us: u64) {
        self.write_ledger_epoch(epoch, barrier_us);
        let state_bytes = self.latest.values().map(|s| s.state_bytes).sum();
        if let Some(t0) = self.failed_at.take() {
            let rec = DecisionRecord {
                state_bytes,
                barrier_us,
                recovery_us: now.duration_since(t0).as_micros() as u64,
                ..self.plane.decision(self.generation, epoch.0, "recovery")
            };
            self.append_decision(&rec);
        }
        let sig = EpochSignals {
            generation: self.generation,
            epoch: epoch.0,
            state_bytes,
            ckpt_bytes: self.latest.values().map(|s| s.ckpt_bytes).sum(),
            barrier_us,
            persist_us: self
                .latest
                .values()
                .map(|s| s.persist_us)
                .max()
                .unwrap_or(0),
        };
        if let Some(d) = self.plane.on_barrier_close(&sig) {
            self.append_decision(&d);
        }
    }

    /// One ledger row per operator for a just-closed barrier: flow
    /// counters and checkpoint phases from the operator's freshest
    /// sample, backpressure gauges from its hosting worker's latest
    /// heartbeat, and the barrier latency (token broadcast → last
    /// `CkptDone`) shared by every row of the epoch. Append failures
    /// are reported but never fail the run.
    fn write_ledger_epoch(&mut self, epoch: EpochId, barrier_us: u64) {
        let Some(ledger) = self.ledger.as_mut() else {
            return;
        };
        let mut ops: Vec<&OperatorId> = self.latest.keys().collect();
        ops.sort();
        for &op in ops {
            let s = &self.latest[&op];
            let gauges = self
                .op_worker
                .get(&op)
                .and_then(|name| self.workers.iter().find(|w| &w.name == name))
                .map(|w| w.gauges)
                .unwrap_or_default();
            let gate = self.latest_gate.get(&op).copied().unwrap_or_default();
            let logical = self.plan.logical_of(op).map_or(op.0, |l| l.0);
            let record = LedgerRecord::cut(
                self.generation,
                epoch.0,
                op.0,
                logical,
                s,
                &gauges,
                &gate,
                barrier_us,
            );
            if let Err(e) = ledger.append(&record) {
                eprintln!("ms-controller: ledger append failed: {e}");
                return;
            }
        }
    }

    /// Deploys the next generation if nothing is deployed and the bench
    /// is ready: the first deployment waits for the configured cluster
    /// size; a redeploy prefers a full bench (a spare may be
    /// mid-registration) but continues with the survivors after
    /// `respawn_wait`.
    fn try_deploy(&mut self, now: Instant) {
        if self.deployed {
            return;
        }
        let live = self.workers.iter().filter(|w| w.alive).count();
        let ready = live >= self.cfg.workers
            || (live >= 1
                && self
                    .failed_at
                    .is_some_and(|t0| now.duration_since(t0) > self.cfg.respawn_wait));
        if !ready {
            return;
        }
        // Only the first deployment follows no rollback: on a resumed
        // controller it is a recovery of the interrupted run.
        let failed = self.failed_at.is_some();
        if !failed && self.resumed {
            self.report.recoveries += 1;
        }
        let restore = (failed || self.resumed).then(|| self.store.latest_complete());
        self.report.restore_epochs.extend(restore);
        self.generation += 1;
        self.assign(restore.flatten());
        self.latest.clear();
        self.latest_gate.clear();
        self.deployed = true;
        self.last_ckpt = now;
        self.barrier = None;
    }

    /// Broadcasts the generation: sorted live workers, physical
    /// operators placed by [`spread_shards`] (round-robin over the
    /// plan's flattened groups — the classic `op i → workers[i mod n]`
    /// for unsharded deployments, and consecutive shards on distinct
    /// workers when a group fits the cluster), recording which worker
    /// runs each operator.
    fn assign(&mut self, restore_epoch: Option<EpochId>) {
        let generation = self.generation;
        let mut live: Vec<&mut Worker<L>> = self.workers.iter_mut().filter(|w| w.alive).collect();
        live.sort_by(|a, b| a.name.cmp(&b.name));
        let spread =
            spread_shards(&self.plan.groups, live.len()).expect("deploy gated on live >= 1");
        let mut placement: Vec<OpPlacement> = spread
            .into_iter()
            .map(|(op, i)| OpPlacement {
                op,
                worker: live[i].name.clone(),
                data_addr: live[i].data_addr.clone(),
            })
            .collect();
        debug_assert_eq!(placement.len(), self.qn.len());
        // Gateway mode: every source becomes an ingestion gate, placed
        // by the reversed round-robin so gates and sinks land on
        // different workers whenever the cluster has more than one.
        let gates: Vec<GateSpec> = match self.cfg.gate {
            Some(cfg) => self
                .qn
                .sources()
                .into_iter()
                .map(|op| GateSpec { op, cfg })
                .collect(),
            None => Vec::new(),
        };
        if !gates.is_empty() {
            let gate_ops: Vec<OperatorId> = gates.iter().map(|g| g.op).collect();
            let placed = place_gates(&gate_ops, live.len()).expect("deploy gated on live >= 1");
            for (op, i) in placed {
                if let Some(p) = placement.iter_mut().find(|p| p.op == op) {
                    p.worker = live[i].name.clone();
                    p.data_addr = live[i].data_addr.clone();
                }
            }
        }
        for w in live.iter_mut() {
            w.has_ops = placement.iter().any(|p| p.worker == w.name);
        }
        self.op_worker = placement.iter().map(|p| (p.op, p.worker.clone())).collect();
        let assignment = Assignment {
            generation,
            restore_epoch,
            n_ops: self.qn.len() as u32,
            edges: self.qn.edges().collect(),
            placement,
            source_limit: self.cfg.source_limit,
            source_delay_us: self.cfg.source_delay_us,
            keyed_state: self.cfg.keyed_state,
            sawtooth_window: self.cfg.sawtooth_window,
            groups: self.plan.groups.clone(),
            gates,
        };
        println!(
            "ms-controller: deploying generation {generation} to {} workers (restore: {})",
            live.len(),
            match restore_epoch {
                Some(e) => e.to_string(),
                None => "fresh".into(),
            }
        );
        let msg = WireMsg::Assign(assignment);
        for w in live {
            w.link.send(&msg);
        }
    }
}

/// One accepted worker connection, control or heartbeat.
struct Conn {
    stream: TcpStream,
    dec: FrameDecoder,
    /// The worker its first frame named; `None` until then.
    worker: Option<String>,
}

impl Conn {
    /// Handles one readiness event: exactly one `read` — the socket is
    /// blocking, and poll said this one will not block — then every
    /// complete frame, until the run is finished. `false` = drop the
    /// connection (EOF, a read error, a torn or unexpected frame).
    fn on_readable(&mut self, ctl: &mut Control<TcpStream>, buf: &mut [u8]) -> bool {
        let n = match (&self.stream).read(buf) {
            Ok(0) => return false,
            Ok(n) => n,
            Err(e) => return e.kind() == io::ErrorKind::Interrupted,
        };
        self.dec.feed(&buf[..n]);
        let now = Instant::now();
        while !ctl.finished() {
            let Some(frame) = self.dec.next_frame().transpose() else {
                break;
            };
            let Ok(msg) = frame.and_then(|f| WireMsg::decode(&f)) else {
                return false;
            };
            match (&self.worker, msg) {
                (Some(name), msg) => {
                    if let Err(e) = ctl.on_msg(now, name, msg) {
                        println!("ms-controller: {e}");
                        return false;
                    }
                }
                (None, WireMsg::Register { name, data_addr }) => {
                    let Ok(link) = self.stream.try_clone() else {
                        return false;
                    };
                    ctl.register(now, name.clone(), data_addr, link);
                    self.worker = Some(name);
                }
                // A heartbeat-only connection: its beats count for the
                // worker registered under this name.
                (None, WireMsg::HeartbeatHello { name }) => self.worker = Some(name),
                (None, _) => return false,
            }
        }
        true
    }
}

fn publish_addr(path: &PathBuf, addr: &str) -> Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, addr)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Runs the controller to completion and returns the cluster report.
pub fn run_controller(cfg: ControllerConfig) -> Result<ClusterReport> {
    let mut ctl = Control::new(cfg.clone(), Instant::now())?;
    let listener = TcpListener::bind(cfg.listen.as_str())?;
    let addr = listener.local_addr()?.to_string();
    if let Some(path) = &cfg.addr_file {
        publish_addr(path, &addr)?;
    }
    println!("ms-controller: listening on {addr}");
    // Nonblocking so an accept whose peer vanished after the poll
    // cannot park the loop; accepted connections are blocking.
    listener.set_nonblocking(true)?;

    let deadline = Instant::now() + cfg.deadline;
    let mut next_tick = Instant::now() + TICK;
    let mut conns: Vec<Conn> = Vec::new();
    let mut buf = vec![0u8; READ_CHUNK];
    let outcome = 'run: loop {
        let now = Instant::now();
        if now > deadline {
            break Err(Error::Wire(format!(
                "controller deadline ({:?}) exceeded",
                cfg.deadline
            )));
        }
        if now >= next_tick {
            ctl.tick(now);
            next_tick = now + TICK;
        }
        let mut watch = vec![(listener.as_raw_fd(), 0, Interest::READ)];
        watch.extend(
            conns
                .iter()
                .enumerate()
                .map(|(i, c)| (c.stream.as_raw_fd(), i + 1, Interest::READ)),
        );
        // poll(2) counts whole milliseconds. Rounding the rest up on
        // every wake would stretch each tick by half a millisecond on
        // average, and 20 of them push a 500 ms checkpoint past its
        // tick; the last fraction is slept instead.
        let left = next_tick.saturating_duration_since(now);
        if left < Duration::from_millis(1) {
            std::thread::sleep(left);
            continue;
        }
        let ready = match poll(&watch, left.as_millis() as i32) {
            Ok(ready) => ready,
            Err(e) => break Err(e.into()),
        };
        let mut dropped = Vec::new();
        for ev in ready {
            if ev.token == 0 {
                while let Ok((stream, _)) = listener.accept() {
                    let _ = stream.set_nonblocking(false);
                    let _ = stream.set_nodelay(true);
                    conns.push(Conn {
                        stream,
                        dec: FrameDecoder::new(),
                        worker: None,
                    });
                }
            } else if !conns[ev.token - 1].on_readable(&mut ctl, &mut buf) {
                dropped.push(ev.token - 1);
            }
            if ctl.finished() {
                break 'run Ok(());
            }
        }
        // Descending, so each swap_remove moves in a survivor.
        for i in dropped.into_iter().rev() {
            if let Some(name) = conns.swap_remove(i).worker {
                // Heartbeats from this worker have stopped too; the
                // timeout-based detector classifies the failure, as
                // the paper's controller does. Acting on the close
                // itself waits on a benchmark that can measure a
                // recovery with no late batch, and on losses keyed by
                // incarnation (ROADMAP P).
                println!("ms-controller: lost connection to {name}");
            }
        }
    };

    // Shut the cluster down whatever happened.
    let report = ctl.shutdown();
    outcome.map(|()| {
        if let Some(path) = &cfg.result_file {
            if let Err(e) = std::fs::File::create(path)
                .and_then(|mut f| f.write_all(report.render().as_bytes()))
            {
                eprintln!("ms-controller: result file {path:?} not written: {e}");
            }
        }
        report
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    use ms_core::operator::OperatorSnapshot;
    use ms_live::CkptWrite;

    use crate::ledger::read_decisions;

    /// What one fake link saw.
    #[derive(Default)]
    struct Wire {
        sent: Vec<WireMsg>,
        closed: bool,
    }

    /// A recording [`Link`]; the test holds a handle on the same record.
    #[derive(Clone, Default)]
    struct Fake(Rc<RefCell<Wire>>);

    impl Link for Fake {
        fn send(&mut self, msg: &WireMsg) {
            self.0.borrow_mut().sent.push(msg.clone());
        }

        fn close(&mut self) {
            self.0.borrow_mut().closed = true;
        }
    }

    fn config(tag: &str) -> ControllerConfig {
        let store_dir = std::env::temp_dir().join(format!("ms_ctl_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store_dir);
        ControllerConfig {
            listen: String::new(),
            addr_file: None,
            store_dir,
            workers: 2,
            shape: "chain3".into(),
            source_limit: 100,
            source_delay_us: 0,
            keyed_state: 0,
            sawtooth_window: 0,
            shards: 0,
            ckpt_interval: Duration::from_millis(100),
            hb_timeout: Duration::from_millis(500),
            barrier_stall: None,
            respawn_wait: Duration::from_millis(2000),
            deadline: Duration::from_secs(60),
            result_file: None,
            gate: None,
            aware: false,
            aware_sample: Duration::from_millis(100),
            aware_profile_periods: 2,
            recovery_budget: None,
        }
    }

    /// A controller on a temp store, every instant a millisecond offset
    /// from `t0`, and the test's end of every worker link (the newest
    /// incarnation's, for a name registered twice).
    struct Rig {
        ctl: Control<Fake>,
        t0: Instant,
        links: HashMap<String, Fake>,
    }

    impl Rig {
        fn new(cfg: ControllerConfig) -> Rig {
            let t0 = Instant::now();
            Rig {
                ctl: Control::new(cfg, t0).unwrap(),
                t0,
                links: HashMap::new(),
            }
        }

        /// chain3 on `wa` (ops 0 and 2) and `wb` (op 1), both
        /// registered at 0 ms, generation 1 deployed by `wb`'s
        /// registration.
        fn deployed(cfg: ControllerConfig) -> Rig {
            let mut r = Rig::new(cfg);
            r.register("wa", 0);
            r.register("wb", 0);
            for w in ["wa", "wb"] {
                assert!(matches!(r.sent(w)[..], [WireMsg::Assign(ref a)] if a.generation == 1));
            }
            r
        }

        fn at(&self, ms: u64) -> Instant {
            self.t0 + Duration::from_millis(ms)
        }

        fn register(&mut self, name: &str, ms: u64) {
            let link = Fake::default();
            self.links.insert(name.into(), link.clone());
            let now = self.at(ms);
            self.ctl
                .register(now, name.into(), format!("{name}:1"), link);
        }

        fn tick(&mut self, ms: u64) {
            let now = self.at(ms);
            self.ctl.tick(now);
        }

        fn send(&mut self, from: &str, ms: u64, msg: WireMsg) {
            let now = self.at(ms);
            self.ctl.on_msg(now, from, msg).unwrap();
        }

        fn beat(&mut self, from: &str, ms: u64) {
            let generation = self.ctl.generation;
            let beat = WireMsg::Heartbeat {
                generation,
                gauges: BackpressureGauges::default(),
                ops: Vec::new(),
                gates: Vec::new(),
            };
            self.send(from, ms, beat);
        }

        fn ack(&mut self, ms: u64, generation: u64, epoch: u64, op: u32) {
            let ack = WireMsg::CkptDone {
                generation,
                epoch: EpochId(epoch),
                op: OperatorId(op),
                sample: None,
            };
            self.send("wa", ms, ack);
        }

        /// Takes what `name`'s link was sent since the last call.
        fn sent(&self, name: &str) -> Vec<WireMsg> {
            std::mem::take(&mut self.links[name].0.borrow_mut().sent)
        }

        /// Rollbacks among what `name` was sent since the last call.
        fn rollbacks(&self, name: &str) -> usize {
            count_rollbacks(&self.sent(name))
        }

        fn dir(&self) -> &std::path::Path {
            &self.ctl.cfg.store_dir
        }
    }

    impl Drop for Rig {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(self.dir());
        }
    }

    /// Makes epoch 1 complete on the store, as a run's workers would.
    fn complete_epoch_1(dir: &std::path::Path) -> Option<EpochId> {
        let store = FsStore::open(dir, 3).unwrap();
        for op in 0..3 {
            let snapshot = OperatorSnapshot {
                data: vec![op as u8],
                logical_bytes: 1,
            };
            let write = CkptWrite::full(snapshot, 0);
            store
                .put_checkpoint(EpochId(1), OperatorId(op), write)
                .unwrap();
        }
        store.latest_complete()
    }

    fn count_rollbacks(msgs: &[WireMsg]) -> usize {
        msgs.iter()
            .filter(|m| matches!(m, WireMsg::Rollback))
            .count()
    }

    /// The generation and restore point `name` was last assigned.
    fn assigned(msgs: &[WireMsg]) -> Option<(u64, Option<EpochId>)> {
        msgs.iter().rev().find_map(|m| match m {
            WireMsg::Assign(a) => Some((a.generation, a.restore_epoch)),
            _ => None,
        })
    }

    #[test]
    fn the_next_checkpoint_waits_for_every_op_to_ack_the_current_epoch() {
        let mut r = Rig::deployed(config("barrier"));
        r.tick(75);
        assert!(r.sent("wa").is_empty(), "the period has not elapsed");
        r.tick(100);
        for w in ["wa", "wb"] {
            assert_eq!(r.sent(w), vec![WireMsg::Checkpoint(EpochId(1))]);
        }
        r.ack(105, 1, 1, 0);
        r.ack(106, 1, 1, 0); // a duplicate counts once
        r.ack(107, 1, 1, 1);
        r.ack(108, 0, 1, 2); // stale generation
        r.ack(109, 2, 1, 2); // a generation not yet deployed
        r.ack(110, 1, 2, 2); // another epoch
        r.ack(111, 1, 0, 2);
        for ms in (125..=375).step_by(25) {
            r.tick(ms);
        }
        assert!(r.sent("wa").is_empty() && r.sent("wb").is_empty());
        r.ack(385, 1, 1, 2);
        r.tick(400);
        for w in ["wa", "wb"] {
            assert_eq!(r.sent(w), vec![WireMsg::Checkpoint(EpochId(2))]);
        }
        assert_eq!(r.ctl.report.checkpoints, 2);
        assert_eq!(r.ctl.report.recoveries, 0);
    }

    /// Heartbeat loss of an op host: one `Rollback` to the survivor,
    /// then generation 2 restoring the latest complete checkpoint — as
    /// soon as a spare registers, or on the survivor alone once
    /// `respawn_wait` has passed.
    fn silent_op_host_recovers(tag: &str, spare: bool) {
        let mut r = Rig::deployed(config(tag));
        let complete = complete_epoch_1(r.dir());
        assert_eq!(complete, Some(EpochId(1)));
        let mut ms = 25;
        let mut redeployed = None;
        while ms < 4000 && redeployed.is_none() {
            ms += 25;
            if ms % 200 == 0 {
                r.beat("wa", ms);
            }
            if spare && ms == 1000 {
                r.register("wc", ms);
            }
            r.tick(ms);
            let sent = r.sent("wa");
            let rollbacks = sent.iter().filter(|m| matches!(m, WireMsg::Rollback));
            match (ms, rollbacks.count()) {
                // wb's last beat was its registration at 0 ms.
                (525, n) => assert_eq!(n, 1, "exactly one rollback at detection"),
                (_, n) => assert_eq!(n, 0, "rollback at {ms} ms"),
            }
            redeployed = assigned(&sent).map(|a| (ms, a));
        }
        let (ms, (generation, restore)) = redeployed.expect("never redeployed");
        assert_eq!((generation, restore), (2, complete));
        assert_eq!(ms, if spare { 1000 } else { 2550 });
        if spare {
            assert_eq!(assigned(&r.sent("wc")), Some((2, complete)));
        }
        // The dead worker got its checkpoint 1 token, then nothing.
        assert!(r.links["wb"].0.borrow().closed);
        assert_eq!(r.sent("wb"), vec![WireMsg::Checkpoint(EpochId(1))]);
        assert_eq!(r.ctl.report.recoveries, 1);
        assert_eq!(r.ctl.report.restore_epochs, vec![complete]);
    }

    #[test]
    fn heartbeat_silence_of_an_op_host_rolls_back_once_and_redeploys_onto_a_spare() {
        silent_op_host_recovers("silent_spare", true);
    }

    #[test]
    fn heartbeat_silence_of_an_op_host_redeploys_onto_survivors_after_respawn_wait() {
        silent_op_host_recovers("silent_alone", false);
    }

    #[test]
    fn a_silent_worker_without_operators_is_not_a_recovery() {
        let mut r = Rig::deployed(config("idle"));
        r.register("wc", 100);
        for ms in (150..=1000).step_by(25) {
            if ms % 200 == 0 {
                r.beat("wa", ms);
                r.beat("wb", ms);
            }
            r.tick(ms);
        }
        assert!(r.links["wc"].0.borrow().closed, "wc was struck off");
        assert_eq!(r.rollbacks("wa") + r.rollbacks("wb"), 0);
        assert_eq!(r.ctl.report.recoveries, 0);
        assert!(r.ctl.deployed);
    }

    #[test]
    fn a_worker_error_rolls_back_at_once_and_a_stale_one_is_ignored() {
        let mut r = Rig::deployed(config("fault"));
        let fault = |generation| WireMsg::WorkerError {
            generation,
            detail: "disk full".into(),
        };
        r.send("wa", 30, fault(0));
        assert_eq!(r.rollbacks("wa") + r.rollbacks("wb"), 0);
        // No tick: the report alone rolls the generation back, and the
        // bench it leaves is full, so generation 2 goes out with it.
        r.send("wa", 40, fault(1));
        for w in ["wa", "wb"] {
            let sent = r.sent(w);
            assert!(matches!(sent[..], [WireMsg::Rollback, WireMsg::Assign(_)]));
            assert_eq!(assigned(&sent), Some((2, None)));
        }
        r.send("wb", 45, fault(1)); // the same generation, already gone
        r.tick(50);
        r.send("wa", 60, fault(1));
        assert_eq!(r.rollbacks("wa") + r.rollbacks("wb"), 0);
        assert_eq!(r.ctl.report.recoveries, 1);
    }

    /// Checkpoint 1 goes out at 100 ms and is never acked; both
    /// workers beat throughout. Returns when, if ever, it rolled back.
    fn stalled_barrier(tag: &str, limit: Option<Duration>) -> Option<u64> {
        let mut r = Rig::deployed(ControllerConfig {
            barrier_stall: limit,
            ..config(tag)
        });
        for ms in (50..=5000).step_by(25) {
            if ms % 200 == 0 {
                r.beat("wa", ms);
                r.beat("wb", ms);
            }
            r.tick(ms);
            if r.rollbacks("wa") > 0 {
                assert_eq!(r.rollbacks("wb"), 1);
                assert_eq!(r.ctl.report.recoveries, 1);
                return Some(ms);
            }
        }
        None
    }

    #[test]
    fn a_stalled_barrier_rolls_back_only_under_a_stall_limit() {
        assert_eq!(stalled_barrier("nostall", None), None);
        let limit = Duration::from_millis(1000);
        // Held 1,000 ms at 1,100 ms; past the limit one tick later.
        assert_eq!(stalled_barrier("stall", Some(limit)), Some(1125));
    }

    #[test]
    fn the_ack_samples_land_in_their_epochs_ledger_rows() {
        let mut r = Rig::deployed(config("ledger"));
        r.tick(125);
        // Each operator's delta was rebased into a full file.
        let sample = |ckpt_epoch, state_bytes| OperatorSample {
            ckpt_epoch,
            state_bytes,
            ckpt_bytes: state_bytes / 2,
            ckpt_is_delta: true,
            persist_us: 7,
            file_bytes: state_bytes + 40,
            file_is_delta: false,
            ..OperatorSample::default()
        };
        let ack = |op: u32, s| WireMsg::CkptDone {
            generation: 1,
            epoch: EpochId(1),
            op: OperatorId(op),
            sample: Some(s),
        };
        r.send("wa", 140, ack(0, sample(1, 100)));
        // A heartbeat sampled before op 0's write, overtaken on the
        // other connection: it must not roll op 0's record back.
        let stale = WireMsg::Heartbeat {
            generation: 1,
            gauges: BackpressureGauges::default(),
            ops: vec![(OperatorId(0), sample(0, 7))],
            gates: Vec::new(),
        };
        r.send("wa", 145, stale);
        r.send("wb", 148, ack(1, sample(1, 101)));
        r.send("wa", 150, ack(2, sample(1, 102)));

        let rows = read_ledger(&r.dir().join(LEDGER_FILE)).unwrap();
        let got: Vec<(u64, u64, u32, u64, u64)> = rows
            .iter()
            .map(|x| (x.generation, x.epoch, x.op, x.state_bytes, x.barrier_us))
            .collect();
        // Barrier latency: tokens at 125 ms, last ack at 150 ms.
        assert_eq!(
            got,
            vec![
                (1, 1, 0, 100, 25_000),
                (1, 1, 1, 101, 25_000),
                (1, 1, 2, 102, 25_000)
            ]
        );
        // The submitted capture and the file the store wrote, side by side.
        let files: Vec<(u64, bool, u64, bool)> = rows
            .iter()
            .map(|x| (x.ckpt_bytes, x.delta, x.file_bytes, x.file_delta))
            .collect();
        assert_eq!(
            files,
            vec![
                (50, true, 140, false),
                (50, true, 141, false),
                (51, true, 142, false)
            ]
        );
        // The fixed timer's initiation has its decision row too.
        let decisions = read_decisions(&r.dir().join(LEDGER_FILE)).unwrap();
        let reasons: Vec<(u64, &str)> = decisions
            .iter()
            .map(|d| (d.epoch, d.reason.as_str()))
            .collect();
        assert_eq!(reasons, vec![(1, "timer")]);
    }

    #[test]
    fn a_worker_restarted_under_its_own_name_is_its_own_loss() {
        let mut r = Rig::new(config("restart"));
        // Before anything is deployed, registering twice is harmless.
        r.register("wa", 0);
        r.register("wa", 5);
        r.register("wb", 10);
        assert_eq!(assigned(&r.sent("wa")), Some((1, None)));
        assert_eq!(assigned(&r.sent("wb")), Some((1, None)));
        let old_wb = r.links["wb"].clone();
        // wb's process restarts well inside the heartbeat timeout.
        r.beat("wb", 100);
        r.register("wb", 200);
        let (wa, wb) = (r.sent("wa"), r.sent("wb"));
        assert_eq!(count_rollbacks(&wa), 1);
        assert!(old_wb.0.borrow().sent.is_empty());
        assert_eq!(
            count_rollbacks(&wb),
            0,
            "the new incarnation has nothing to roll back"
        );
        assert_eq!(r.ctl.report.recoveries, 1);
        assert_eq!(assigned(&wa), Some((2, None)));
        assert_eq!(assigned(&wb), Some((2, None)));
    }

    #[test]
    fn the_registration_that_fills_the_bench_deploys_at_its_own_instant() {
        let mut r = Rig::new(config("fill"));
        r.register("wa", 0);
        assert!(r.sent("wa").is_empty(), "one worker of two is no bench");
        // No tick anywhere: wb's registration is what completes it.
        r.register("wb", 7);
        for w in ["wa", "wb"] {
            assert_eq!(assigned(&r.sent(w)), Some((1, None)));
        }
        // A spare registering under a deployed generation waits.
        r.register("wc", 9);
        assert!(r.sent("wc").is_empty());
        assert!(r.sent("wa").is_empty() && r.sent("wb").is_empty());
        assert_eq!(r.ctl.report.recoveries, 0);
    }

    #[test]
    fn a_restart_under_the_same_name_rolls_back_and_redeploys_in_the_same_call() {
        let mut r = Rig::deployed(config("restart_now"));
        // Before any tick, wb's process comes back under its own name.
        r.register("wb", 3);
        let (wa, wb) = (r.sent("wa"), r.sent("wb"));
        assert!(
            matches!(wa[..], [WireMsg::Rollback, WireMsg::Assign(_)]),
            "{wa:?}"
        );
        assert!(matches!(wb[..], [WireMsg::Assign(_)]), "{wb:?}");
        assert_eq!(assigned(&wa), Some((2, None)));
        assert_eq!(assigned(&wb), Some((2, None)));
        assert_eq!(r.ctl.report.recoveries, 1);
    }
}
