//! The `ms-worker` daemon: hosts operators over real TCP streams.
//!
//! One worker process runs any subset of a generation's operators —
//! including shard instances of key-partitioned HAUs — on six threads,
//! not O(edges + operators): main, heartbeat, control reader, I/O, and
//! per generation a joiner and a persister.
//!
//! * **One I/O thread** (the `evloop` module) owns the data-plane
//!   listener and every peer socket, nonblocking, multiplexed with
//!   `poll(2)`, and runs every HAU: interiors and sinks
//!   ([`ms_live::InteriorCore`]), demo sources ([`ms_live::SourceCore`]
//!   ticked on deadlines) and ingestion [`Gate`]s. Inbound frames land
//!   in per-operator inboxes and are applied in the same poll turn;
//!   outbound frames coalesce in per-connection buffers written after
//!   each turn's cell pass.
//!
//! The main thread builds each generation — cells, a recovering
//! source's replay, outbound connections, routes — as plain owned data
//! and hands it to the I/O thread in one command. Local edges are
//! direct inbox pushes — colocated operators pay no socket tax, exactly
//! the HAU-grouping benefit of §II-A. A producer
//! whose logical consumer is sharded gets one [`OutputRoute`] over
//! the whole instance group (hash of the routing key picks the
//! shard); tokens and EOS broadcast to every instance, because each
//! shard checkpoints as a first-class HAU.
//!
//! Failure semantics, the part that makes recovery correct:
//!
//! * A data socket that dies **without** [`WireMsg::Eos`] is a peer
//!   failure, not an end-of-stream. The connection is dropped but the
//!   consumer's input stays open and *silent*, so a sink can never
//!   mistake a crash for completion. Only the controller's `Rollback`
//!   (or a superseding `Assign`) unwinds it.
//! * An egress buffer whose socket breaks switches to *drain* mode:
//!   pushes are discarded so local hosts never wedge mid-teardown.
//!   The discarded tuples are safe — they are either preserved in the
//!   source log or derivable from it, and the rollback rewinds
//!   downstream state behind them.
//! * Teardown (`Rollback`, a superseding `Assign`, or `Shutdown`)
//!   tells the I/O thread to drop the generation's sockets and routes
//!   and finish its sources, gates and cells, so their final state is
//!   flushed. It also marks the generation torn, so neither its late
//!   checkpoint acks nor its partial sink state reach the controller.
//! * Every wait of a deploy is *generation-scoped*. The control
//!   connection is read by its own thread, which counts each message
//!   that ends the current generation (`Assign`, `Rollback`,
//!   `Shutdown`, a dead connection) the moment it arrives; a deploy
//!   still restoring state or retrying a connect to a peer that died
//!   before the controller noticed sees the count move and is
//!   abandoned on the spot, so the worker is ready for the next
//!   `Assign` one heartbeat timeout after the failure, not
//!   [`CONNECT_WAIT`] later.
//! * The persister acks every durable individual checkpoint to the
//!   controller (`CkptDone`) — the controller's epoch barrier — and
//!   surfaces storage failures as `WorkerError` instead of aborting
//!   the process. Each ack carries its operator's meter sample taken
//!   after the write, so the controller never needs a second message
//!   to cut that epoch's ledger row.
//! * Heartbeats ride a dedicated TCP connection (`HeartbeatHello`
//!   handshake), so a stalled report write on the shared control
//!   socket can never delay liveness signals into a spurious failure
//!   detection. A beat is one `Heartbeat` frame: the generation, the
//!   hosts' summed backpressure gauges, and a sample of every local
//!   operator and ingestion gate meter.

use std::collections::HashMap;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ms_core::error::{Error, Result};
use ms_core::ids::OperatorId;
use ms_core::metrics::{BackpressureGauges, BackpressureMeter, OperatorMeter, OperatorSample};
use ms_gate::{Gate, GateMeter, GateOp, GateWiring};
use ms_live::{
    FsStore, HostExit, HostWiring, InteriorCore, OutputRoute, Persister, SourceCore, StableStore,
};
use ms_net::ready::Waker;

use crate::apps::{build_operator, route_key, skewed_delay_us};
use crate::chaos::{FaultStore, RetryStore, StoreFaultSpec};
use crate::evloop::{self, CellPort, EgressBuf, Gen, Hau, HostCell, IoCmd, Pace, Target};
use crate::message::{recv_msg, send_msg, Assignment, WireMsg};
use ms_net::fault::FaultPlan;

const FILE_POLL: Duration = Duration::from_millis(20);
const CONNECT_POLL: Duration = Duration::from_millis(25);
/// Upper bound on a connect that nothing supersedes: the controller at
/// start-up, and a deploy's data-plane peers.
const CONNECT_WAIT: Duration = Duration::from_secs(10);
/// Heartbeat cadence. Every `--hb-timeout-ms` in use (500–1000) spans
/// at least ten beats, and the application-aware profiler learns state
/// sizes from the beats at this cadence.
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(50);

/// How a worker finds its controller.
#[derive(Clone, Debug)]
pub enum ControllerAddr {
    /// A literal `host:port`.
    Addr(String),
    /// A file the controller writes its address into (atomic rename);
    /// the worker polls until it appears.
    File(PathBuf),
}

/// Worker configuration.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// Unique worker name (placement is keyed on it).
    pub name: String,
    /// Controller location.
    pub controller: ControllerAddr,
    /// Shared stable-store directory (same filesystem as the other
    /// processes of the cluster).
    pub store_dir: PathBuf,
}

/// The current generation's meters, tagged with that generation so
/// samplers never attribute a torn-down run's counters to the new one.
#[derive(Default)]
struct Meters {
    generation: u64,
    /// Per-host backpressure meters, summed into each heartbeat.
    hosts: Vec<Arc<BackpressureMeter>>,
    /// Per-operator telemetry meters.
    ops: Vec<(OperatorId, Arc<OperatorMeter>)>,
    /// Gateway meters of locally hosted ingestion gates.
    gates: Vec<(OperatorId, Arc<GateMeter>)>,
}

/// Cross-thread worker state.
struct Shared {
    /// Sampled by the heartbeat thread on each beat and by the durable
    /// hook for each `CkptDone`.
    meters: Mutex<Meters>,
    /// Whole-process stop flag.
    stop: AtomicBool,
}

impl Shared {
    fn new() -> Shared {
        Shared {
            meters: Mutex::new(Meters::default()),
            stop: AtomicBool::new(false),
        }
    }

    /// One beat: the hosts' summed gauges and every operator and gate
    /// sample of the current generation, in one message.
    fn heartbeat(&self) -> WireMsg {
        let m = self.meters.lock().expect("meters lock");
        WireMsg::Heartbeat {
            generation: m.generation,
            gauges: m
                .hosts
                .iter()
                .fold(BackpressureGauges::default(), |acc, h| {
                    acc.merge(&h.sample())
                }),
            ops: m.ops.iter().map(|(op, o)| (*op, o.sample())).collect(),
            gates: m.gates.iter().map(|(op, g)| (*op, g.sample())).collect(),
        }
    }

    /// One operator's sample, if it belongs to `generation`.
    fn sample_op(&self, generation: u64, op: OperatorId) -> Option<OperatorSample> {
        let m = self.meters.lock().expect("meters lock");
        if m.generation != generation {
            return None;
        }
        m.ops
            .iter()
            .find(|(id, _)| *id == op)
            .map(|(_, o)| o.sample())
    }
}

/// The process-wide execution engine every generation runs on: the
/// I/O thread's command channel and its waker.
struct Engine {
    io: Sender<IoCmd>,
    waker: Waker,
}

impl Engine {
    fn send_io(&self, cmd: IoCmd) {
        let _ = self.io.send(cmd);
        self.waker.wake();
    }
}

/// A deploy's view of the control stream: `ticket` is the value
/// `superseded` had when the deploy's own `Assign` was read, and the
/// control reader bumps the counter for every later message that ends
/// a generation. Once the two differ the deploy is stale.
struct Scope<'a> {
    superseded: &'a AtomicU64,
    ticket: u64,
}

impl Scope<'_> {
    fn live(&self) -> bool {
        self.superseded.load(Ordering::SeqCst) == self.ticket
    }
}

/// One deployed generation on this worker.
struct Run {
    generation: u64,
    joiner: JoinHandle<()>,
    /// Read by the persister's durable hook and the joiner: once set,
    /// neither reports to the controller.
    torn: Arc<AtomicBool>,
}

impl Run {
    /// Tears the generation down. Order matters: mark torn (the hook
    /// and the joiner go quiet) → drop its sockets and routes and
    /// finish its HAUs, so each exit record flushes even with no
    /// traffic → join.
    fn teardown(self, eng: &Engine) {
        self.torn.store(true, Ordering::SeqCst);
        eng.send_io(IoCmd::Tear {
            generation: self.generation,
        });
        let _ = self.joiner.join();
    }

    /// Builds, restores and wires `a`'s local operators. `Ok(None)`
    /// means the controller superseded the generation while this was
    /// still restoring or connecting, and the deploy was abandoned
    /// with nothing spawned.
    fn start(
        a: Assignment,
        cfg: &WorkerConfig,
        shared: &Arc<Shared>,
        ctrl_w: &Arc<Mutex<TcpStream>>,
        eng: &Engine,
        scope: &Scope,
    ) -> Result<Option<Run>> {
        let qn = a.network()?;
        let fs_store = FsStore::open(&cfg.store_dir, qn.len())?;
        // Every store sits behind the transient-retry decorator; chaos
        // runs (`MS_FAULT_STORE`) slide a fault injector between the
        // two so the retry loop is exercised against a misbehaving
        // disk rather than trusted on faith.
        let store: Arc<dyn StableStore> = match StoreFaultSpec::from_env()
            .map_err(|e| Error::Wire(format!("MS_FAULT_STORE: {e}")))?
        {
            Some(spec) => Arc::new(RetryStore::new(FaultStore::new(fs_store, spec))),
            None => Arc::new(RetryStore::new(fs_store)),
        };
        let generation = a.generation;
        let my_ops = a.ops_on(&cfg.name);
        let is_mine = |op: OperatorId| a.worker_of(op) == Some(cfg.name.as_str());

        // Fallible phase first: build + restore every local operator,
        // connect every outbound edge. Nothing is spawned yet, so a
        // superseded deploy can simply return between any two steps.
        struct Restored {
            operator: Box<dyn ms_core::operator::Operator>,
            restored_seq: u64,
            replay: Vec<ms_core::tuple::Tuple>,
            resume_seq: Vec<u64>,
        }
        let is_gate = |op: OperatorId| a.gates.iter().any(|g| g.op == op);
        let mut restored: HashMap<u32, Restored> = HashMap::new();
        for &op in &my_ops {
            if !scope.live() {
                return Ok(None);
            }
            // A gateway op hosts no demo operator; the placeholder
            // GateOp carries the restored dedup snapshot (its generic
            // `restore` below just stores the bytes) into the gate's
            // wiring.
            let mut operator: Box<dyn ms_core::operator::Operator> = if is_gate(op) {
                Box::new(GateOp::new(ms_core::operator::OperatorSnapshot::empty()))
            } else {
                build_operator(&qn, op, a.source_limit, a.keyed_state, a.sawtooth_window)
            };
            let is_source = qn.upstream(op).is_empty();
            let (restored_seq, replay, resume_seq) = match a.restore_epoch {
                Some(epoch) => {
                    let ck = store.get_checkpoint(epoch, op).ok_or_else(|| {
                        Error::Wire(format!(
                            "assignment gen {generation} restores {epoch} but {op} has no checkpoint"
                        ))
                    })?;
                    operator.restore(&ck.snapshot)?;
                    if !scope.live() {
                        return Ok(None);
                    }
                    let replay = if is_source {
                        store.replay_from(op, epoch)
                    } else {
                        Vec::new()
                    };
                    (ck.next_seq, replay, ck.resume_seq)
                }
                // Fresh start: sources regenerate deterministically;
                // the store's dedup guard keeps the log duplicate-free.
                None => (0, Vec::new(), Vec::new()),
            };
            restored.insert(
                op.0,
                Restored {
                    operator,
                    restored_seq,
                    replay,
                    resume_seq,
                },
            );
        }
        // Outbound connections, blocking while the hello goes out,
        // then switched nonblocking for the I/O thread. A live peer's
        // listener is up before the controller assigns (it binds
        // before registering), so its connect resolves immediately; a
        // peer that died after its last heartbeat refuses until the
        // controller notices and supersedes this generation.
        let mut remote: HashMap<(u32, u32), TcpStream> = HashMap::new();
        for &op in &my_ops {
            for &down in qn.downstream(op) {
                if is_mine(down) {
                    continue;
                }
                let addr = a
                    .addr_of(down)
                    .ok_or_else(|| Error::Wire(format!("{down} missing from placement")))?;
                let Some(mut s) = connect_retry(addr, CONNECT_WAIT, || scope.live())? else {
                    return Ok(None);
                };
                s.set_nodelay(true)?;
                send_msg(
                    &mut s,
                    &WireMsg::StreamHello {
                        generation,
                        from: op,
                        to: down,
                    },
                )?;
                s.set_nonblocking(true)?;
                remote.insert((op.0, down.0), s);
            }
        }
        // Gate listeners last: a bind error fails the deploy, and an
        // early producer waits in the backlog until the gate is adopted.
        let mut listeners: HashMap<u32, TcpListener> = HashMap::new();
        for gate in a.gates.iter().filter(|g| is_mine(g.op)) {
            let addr_file = cfg.store_dir.join(format!("gate_op{}.addr", gate.op.0));
            listeners.insert(gate.op.0, ms_gate::listen("127.0.0.1:0", Some(&addr_file))?);
        }

        // Infallible phase: build HAUs and wire routes.
        let torn = Arc::new(AtomicBool::new(false));
        let (exits_tx, exits_rx) = channel::<HostExit>();

        // Durable-checkpoint acks close the controller's epoch
        // barrier: the persister reports every write outcome on the
        // control connection (CkptDone, or WorkerError on a storage
        // failure). Acks from a torn-down generation are suppressed.
        let ack_w = ctrl_w.clone();
        let ack_torn = torn.clone();
        let ack_shared = shared.clone();
        let hook: ms_live::DurableHook = Box::new(move |epoch, op, outcome| {
            if ack_torn.load(Ordering::SeqCst) {
                return;
            }
            let msg = match outcome {
                // The ack carries the operator's sample taken after the
                // write, so the ack that closes the epoch-e barrier
                // brings its operator's epoch-e checkpoint phases — what
                // lets the controller cut complete ledger records then.
                Ok(_) => WireMsg::CkptDone {
                    generation,
                    epoch,
                    op,
                    sample: ack_shared.sample_op(generation, op),
                },
                Err(e) => WireMsg::WorkerError {
                    generation,
                    detail: e.to_string(),
                },
            };
            let _ = send_msg(&mut *ack_w.lock().expect("control socket lock"), &msg);
        });
        let persister = Persister::spawn_with(store.clone(), Some(hook));

        // Fresh generation, fresh gauges — the torn-down run's meters
        // would otherwise keep reporting their last values forever.
        *shared.meters.lock().expect("meters lock") = Meters {
            generation,
            ..Meters::default()
        };

        // Shard plan lookup: physical op → logical group index. The
        // plan's ordering guarantee (a producer's downstream is
        // contiguous runs, one per logical consumer, in logical port
        // order) is what lets the grouping below be a linear scan.
        let mut logical_of: HashMap<u32, usize> = HashMap::new();
        for (li, group) in a.groups.iter().enumerate() {
            for &p in group {
                logical_of.insert(p.0, li);
            }
        }

        // The local cells, producers first: a cell's index in this
        // order is its address.
        let order: Vec<OperatorId> = qn
            .topo_order()?
            .into_iter()
            .filter(|&op| is_mine(op))
            .collect();
        let cell_of: HashMap<u32, usize> =
            order.iter().zip(0..).map(|(op, at)| (op.0, at)).collect();
        let mut gen = Gen {
            generation,
            cells: Vec::new(),
            targets: Vec::new(),
            ingress: HashMap::new(),
        };
        for &op in &order {
            let r = restored.remove(&op.0).expect("restored once per local op");
            let is_source = qn.upstream(op).is_empty();

            // One OutputRoute per *logical* consumer: group the
            // physical downstream list into its contiguous runs.
            let downs = qn.downstream(op);
            let mut outputs: Vec<OutputRoute> = Vec::new();
            let mut i = 0;
            while i < downs.len() {
                let li = logical_of.get(&downs[i].0).copied();
                let mut j = i + 1;
                while li.is_some() && j < downs.len() && logical_of.get(&downs[j].0).copied() == li
                {
                    j += 1;
                }
                let mut addrs: Vec<u32> = Vec::new();
                for &down in &downs[i..j] {
                    addrs.push(gen.targets.len() as u32);
                    gen.targets.push(if is_mine(down) {
                        let port = qn.input_port(op, down).expect("edge exists").0;
                        let at = cell_of[&down.0];
                        Target::Cell(CellPort { at, port })
                    } else {
                        let stream = remote
                            .remove(&(op.0, down.0))
                            .expect("remote edge connected once");
                        Target::Egress(EgressBuf::new(stream))
                    });
                }
                outputs.push(if addrs.len() > 1 {
                    OutputRoute::sharded(addrs, route_key(a.keyed_state))
                } else {
                    OutputRoute::single(addrs[0])
                });
                i = j;
            }

            // A gateway host: same output wiring as any source; the
            // replay is queued here and delivered when the I/O thread
            // adopts the generation, before the gate can admit a batch.
            if let Some(gate) = a.gates.iter().find(|g| g.op == op) {
                let op_meter = Arc::new(OperatorMeter::new());
                let gate_meter = Arc::new(GateMeter::new());
                let mut meters = shared.meters.lock().expect("meters lock");
                meters.ops.push((op, op_meter.clone()));
                meters.gates.push((op, gate_meter.clone()));
                drop(meters);
                let wiring = GateWiring {
                    op_id: op,
                    cfg: gate.cfg,
                    outputs,
                    listener: listeners.remove(&op.0).expect("gate listener bound"),
                    restored: a.restore_epoch.is_some().then(|| r.operator.snapshot()),
                    restored_seq: r.restored_seq,
                    replay: r.replay,
                    meter: gate_meter,
                    telemetry: Some(op_meter),
                };
                let gate = Gate::new(wiring, store.clone(), persister.sender());
                let cell = HostCell::new(Hau::Gate(Box::new(gate)), exits_tx.clone());
                gen.cells.push(cell);
                continue;
            }

            let op_meter = Arc::new(OperatorMeter::new());
            shared
                .meters
                .lock()
                .expect("meters lock")
                .ops
                .push((op, op_meter.clone()));
            if is_source {
                let mut src = SourceCore::new(
                    op,
                    outputs,
                    r.restored_seq,
                    a.restore_epoch,
                    store.clone(),
                    persister.sender(),
                    Some(op_meter),
                );
                let mut operator = r.operator;
                src.resume(operator.as_mut(), r.replay);
                // Later sources of a fan-in run slower, so the merge
                // sees misaligned inputs.
                let period = Duration::from_micros(skewed_delay_us(&qn, op, a.source_delay_us));
                let hau = Hau::Source {
                    core: src,
                    op: operator,
                    pace: Pace::new(period, Instant::now()),
                };
                gen.cells.push(HostCell::new(hau, exits_tx.clone()));
                continue;
            }

            let meter = Arc::new(BackpressureMeter::new());
            shared
                .meters
                .lock()
                .expect("meters lock")
                .hosts
                .push(meter.clone());
            let wiring = HostWiring {
                op_id: op,
                op: r.operator,
                outputs,
                restored_seq: r.restored_seq,
                resume_seq: r.resume_seq,
                last_durable: a.restore_epoch,
                meter: Some(meter),
                telemetry: Some(op_meter),
            };
            let core = InteriorCore::new(wiring, qn.upstream(op).len(), persister.sender());
            for &up in qn.upstream(op) {
                if !is_mine(up) {
                    let port = qn.input_port(up, op).expect("edge exists").0;
                    let at = gen.cells.len();
                    gen.ingress.insert((up.0, op.0), CellPort { at, port });
                }
            }
            gen.cells
                .push(HostCell::new(Hau::Interior(core), exits_tx.clone()));
        }
        drop(exits_tx);
        eng.send_io(IoCmd::Deploy(gen));
        // The joiner waits the hosts out, makes queued checkpoints
        // durable, then reports finished sinks — unless the generation
        // was torn down, in which case partial sink state is garbage.
        let n_local = my_ops.len();
        let sinks: Vec<OperatorId> = my_ops
            .iter()
            .copied()
            .filter(|&op| qn.downstream(op).is_empty())
            .collect();
        let torn_j = torn.clone();
        let ctrl_w = ctrl_w.clone();
        let joiner = thread::Builder::new()
            .name("ms-joiner".into())
            .spawn(move || {
                let mut finals = Vec::new();
                for _ in 0..n_local {
                    match exits_rx.recv() {
                        Ok(exit) => finals.push(exit),
                        Err(_) => break,
                    }
                }
                drop(persister);
                if !torn_j.load(Ordering::SeqCst) {
                    for exit in &finals {
                        // A host that stopped on a storage failure is a
                        // failed HAU, not a finished one: surface it so
                        // the controller rolls the generation back.
                        if let Some(e) = &exit.error {
                            let msg = WireMsg::WorkerError {
                                generation,
                                detail: format!("{}: {e}", exit.op_id),
                            };
                            let _ =
                                send_msg(&mut *ctrl_w.lock().expect("control socket lock"), &msg);
                        } else if sinks.contains(&exit.op_id) {
                            let msg = WireMsg::SinkDone {
                                generation,
                                op: exit.op_id,
                                snapshot: exit.op.snapshot().data,
                            };
                            let _ =
                                send_msg(&mut *ctrl_w.lock().expect("control socket lock"), &msg);
                        }
                    }
                }
            })
            .expect("spawn joiner thread");

        Ok(Some(Run {
            generation,
            joiner,
            torn,
        }))
    }

    /// Starts `a`, or leaves the worker idle and clean: a failed or
    /// abandoned start spawned nothing, but peers may already have
    /// parked `StreamHello`s for the generation with the I/O thread —
    /// those go now, not at some later generation's teardown. A failed
    /// deploy (corrupt checkpoint, unreachable store or peer) fails
    /// the generation, not the daemon: it is reported and the worker
    /// awaits the next assignment. An abandoned one reports nothing —
    /// the controller already moved on.
    fn deploy(
        a: Assignment,
        cfg: &WorkerConfig,
        shared: &Arc<Shared>,
        ctrl_w: &Arc<Mutex<TcpStream>>,
        eng: &Engine,
        scope: &Scope,
    ) -> Option<Run> {
        let generation = a.generation;
        let failure = match Run::start(a, cfg, shared, ctrl_w, eng, scope) {
            Ok(Some(run)) => return Some(run),
            Ok(None) => None,
            Err(e) => Some(e),
        };
        eng.send_io(IoCmd::Tear { generation });
        if let Some(e) = failure {
            let msg = WireMsg::WorkerError {
                generation,
                detail: e.to_string(),
            };
            let _ = send_msg(&mut *ctrl_w.lock().expect("control socket lock"), &msg);
        }
        None
    }
}

/// Connects to `addr`, retrying refusals for up to `wait` while
/// `wanted()` holds; `Ok(None)` once it no longer does.
fn connect_retry(
    addr: &str,
    wait: Duration,
    wanted: impl Fn() -> bool,
) -> Result<Option<TcpStream>> {
    let deadline = Instant::now() + wait;
    while wanted() {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(Some(s)),
            Err(e) if Instant::now() > deadline => {
                return Err(Error::Wire(format!("connect {addr}: {e}")));
            }
            Err(_) => thread::sleep(CONNECT_POLL),
        }
    }
    Ok(None)
}

fn resolve_controller(addr: &ControllerAddr, wait: Duration) -> Result<String> {
    match addr {
        ControllerAddr::Addr(a) => Ok(a.clone()),
        ControllerAddr::File(path) => {
            let deadline = Instant::now() + wait;
            loop {
                if let Ok(text) = std::fs::read_to_string(path) {
                    let text = text.trim();
                    if !text.is_empty() {
                        return Ok(text.to_string());
                    }
                }
                if Instant::now() > deadline {
                    return Err(Error::Wire(format!(
                        "controller address file {path:?} never appeared"
                    )));
                }
                thread::sleep(FILE_POLL);
            }
        }
    }
}

/// Runs a worker to completion: register, host assigned operators
/// across generations, exit on `Shutdown` (or controller loss).
pub fn run_worker(cfg: WorkerConfig) -> Result<()> {
    let ctrl_addr = resolve_controller(&cfg.controller, CONNECT_WAIT)?;
    let shared = Arc::new(Shared::new());

    // The engine: data-plane listener + I/O thread, created once per
    // process and reused across generations.
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let data_addr = listener.local_addr()?.to_string();
    listener.set_nonblocking(true)?;
    let waker = Waker::new()?;
    let (io_tx, io_rx) = channel();
    // Chaos runs plant a deterministic fault plan (`MS_FAULT_PLAN`) in
    // the I/O thread; production workers carry `None` and pay nothing.
    let plan = FaultPlan::from_env().map_err(|e| Error::Wire(format!("MS_FAULT_PLAN: {e}")))?;
    let io = evloop::spawn_io(listener, waker.clone(), io_rx, plan);
    let eng = Engine { io: io_tx, waker };

    // Control plane.
    let connect =
        || connect_retry(&ctrl_addr, CONNECT_WAIT, || true).map(|s| s.expect("always wanted"));
    let mut ctrl = connect()?;
    ctrl.set_nodelay(true)?;
    send_msg(
        &mut ctrl,
        &WireMsg::Register {
            name: cfg.name.clone(),
            data_addr,
        },
    )?;
    let ctrl_w = Arc::new(Mutex::new(ctrl.try_clone()?));
    // Heartbeats ride a dedicated connection: the shared control
    // writer can stall behind a large SinkDone/CkptDone while the
    // controller is busy, and a liveness signal queued behind it would
    // read as a dead worker. A socket of their own means heartbeat
    // cadence only ever reflects this process being alive.
    let mut hb = connect()?;
    hb.set_nodelay(true)?;
    send_msg(
        &mut hb,
        &WireMsg::HeartbeatHello {
            name: cfg.name.clone(),
        },
    )?;
    let hb_shared = shared.clone();
    let heartbeat = thread::spawn(move || {
        while !hb_shared.stop.load(Ordering::SeqCst) {
            thread::sleep(HEARTBEAT_INTERVAL);
            if send_msg(&mut hb, &hb_shared.heartbeat()).is_err() {
                return;
            }
        }
    });

    // The control connection gets a reader thread of its own, so a
    // message that ends the current generation is *counted* the moment
    // it arrives — while the loop below may still be inside that
    // generation's `Run::start` — and handled in order afterwards.
    let superseded = Arc::new(AtomicU64::new(0));
    let (ctl_tx, ctl_rx) = channel();
    let reader_superseded = superseded.clone();
    let reader = thread::Builder::new()
        .name("ms-control".into())
        .spawn(move || loop {
            let msg = recv_msg(&mut ctrl);
            let last = !matches!(msg, Ok(Some(_)));
            let ticket = match msg {
                Ok(Some(WireMsg::Checkpoint(_))) => reader_superseded.load(Ordering::SeqCst),
                _ => reader_superseded.fetch_add(1, Ordering::SeqCst) + 1,
            };
            if ctl_tx.send((ticket, msg)).is_err() || last {
                return;
            }
        })
        .expect("spawn control reader thread");

    let mut run: Option<Run> = None;
    let mut outcome = Ok(());
    for (ticket, msg) in ctl_rx {
        match msg {
            Ok(Some(WireMsg::Assign(a))) => {
                if let Some(r) = run.take() {
                    r.teardown(&eng);
                }
                let scope = Scope {
                    superseded: &superseded,
                    ticket,
                };
                run = Run::deploy(a, &cfg, &shared, &ctrl_w, &eng, &scope);
            }
            Ok(Some(WireMsg::Checkpoint(epoch))) => {
                if let Some(r) = &run {
                    let generation = r.generation;
                    eng.send_io(IoCmd::Checkpoint { generation, epoch });
                }
            }
            Ok(Some(WireMsg::Rollback)) => {
                if let Some(r) = run.take() {
                    r.teardown(&eng);
                }
            }
            Ok(Some(WireMsg::Shutdown)) | Ok(None) => break,
            Ok(Some(other)) => {
                outcome = Err(Error::Wire(format!("unexpected control message {other:?}")));
                break;
            }
            Err(e) => {
                outcome = Err(e);
                break;
            }
        }
    }
    if let Some(r) = run.take() {
        r.teardown(&eng);
    }
    shared.stop.store(true, Ordering::SeqCst);
    // Closing the socket is also what ends the reader's blocking read.
    let _ = ctrl_w
        .lock()
        .expect("control socket lock")
        .shutdown(Shutdown::Both);
    let _ = reader.join();
    let _ = heartbeat.join();
    eng.send_io(IoCmd::Stop);
    let _ = io.join();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::OpPlacement;
    use ms_core::ids::EpochId;
    use std::sync::mpsc::Receiver;

    /// An address nothing listens on: bound, then closed.
    fn dead_addr() -> String {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    }

    /// Everything `Run::deploy` needs, with both far ends in hand: the
    /// I/O thread's command queue and the controller's side of the
    /// control socket.
    struct Rig {
        cfg: WorkerConfig,
        shared: Arc<Shared>,
        eng: Engine,
        io_rx: Receiver<IoCmd>,
        ctrl_w: Arc<Mutex<TcpStream>>,
        controller_side: TcpStream,
        superseded: Arc<AtomicU64>,
    }

    fn rig(tag: &str) -> Rig {
        let store_dir =
            std::env::temp_dir().join(format!("ms_worker_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store_dir);
        let (io, io_rx) = channel();
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let ctrl = TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let (controller_side, _) = l.accept().unwrap();
        controller_side
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        Rig {
            cfg: WorkerConfig {
                name: "me".into(),
                controller: ControllerAddr::Addr(String::new()),
                store_dir,
            },
            shared: Arc::new(Shared::new()),
            eng: Engine {
                io,
                waker: Waker::new().unwrap(),
            },
            io_rx,
            ctrl_w: Arc::new(Mutex::new(ctrl)),
            controller_side,
            superseded: Arc::new(AtomicU64::new(0)),
        }
    }

    impl Rig {
        fn deploy(&self, a: Assignment) -> Option<Run> {
            let scope = Scope {
                superseded: &self.superseded,
                ticket: 0,
            };
            Run::deploy(a, &self.cfg, &self.shared, &self.ctrl_w, &self.eng, &scope)
        }

        /// The control socket stays silent until its read times out.
        fn controller_hears_nothing(&self) -> bool {
            recv_msg(&mut &self.controller_side).is_err()
        }

        /// The generation the I/O thread was told to tear, if any.
        fn torn(&self) -> Option<u64> {
            match self.io_rx.try_recv() {
                Ok(IoCmd::Tear { generation }) => Some(generation),
                _ => None,
            }
        }
    }

    /// chain2 with the source here and the sink on a peer whose data
    /// port refuses: the worker that died after its last heartbeat.
    fn onto_dead_peer(generation: u64, restore_epoch: Option<EpochId>) -> Assignment {
        let place = |op, worker: &str, data_addr| OpPlacement {
            op: OperatorId(op),
            worker: worker.into(),
            data_addr,
        };
        Assignment {
            generation,
            restore_epoch,
            n_ops: 2,
            edges: vec![(OperatorId(0), OperatorId(1))],
            placement: vec![
                place(0, "me", "127.0.0.1:1".into()),
                place(1, "peer", dead_addr()),
            ],
            source_limit: 10,
            source_delay_us: 0,
            keyed_state: 0,
            sawtooth_window: 0,
            groups: vec![vec![OperatorId(0)], vec![OperatorId(1)]],
            gates: Vec::new(),
        }
    }

    #[test]
    fn connect_never_superseded_is_bounded_by_its_wait() {
        let wait = Duration::from_millis(150);
        let t0 = Instant::now();
        assert!(connect_retry(&dead_addr(), wait, || true).is_err());
        let took = t0.elapsed();
        assert!(
            took >= wait && took < wait + Duration::from_millis(200),
            "{took:?}"
        );
    }

    #[test]
    fn deploy_onto_a_dead_peer_is_abandoned_on_supersession() {
        let b = rig("abandon");
        let superseded = b.superseded.clone();
        // What the control reader does when the controller's Rollback
        // arrives, some time into the connect retries.
        let bump = thread::spawn(move || {
            thread::sleep(Duration::from_millis(300));
            let at = Instant::now();
            superseded.fetch_add(1, Ordering::SeqCst);
            at
        });
        let run = b.deploy(onto_dead_peer(7, None));
        let returned = Instant::now();
        let bumped = bump.join().unwrap();
        assert!(run.is_none());
        assert!(returned >= bumped, "gave up before it was superseded");
        let lag = returned - bumped;
        assert!(lag < Duration::from_millis(200), "abandoned {lag:?} late");
        // The generation's parked hellos go with it, and the controller
        // — which already moved on — hears nothing.
        assert_eq!(b.torn(), Some(7));
        assert!(b.controller_hears_nothing());
        let _ = std::fs::remove_dir_all(&b.cfg.store_dir);
    }

    #[test]
    fn failed_deploy_tears_its_generation_and_reports_once() {
        let b = rig("failed");
        // Restores an epoch the store never saw: fails before any connect.
        assert!(b.deploy(onto_dead_peer(3, Some(EpochId(5)))).is_none());
        assert_eq!(b.torn(), Some(3));
        match recv_msg(&mut &b.controller_side) {
            Ok(Some(WireMsg::WorkerError { generation: 3, .. })) => {}
            other => panic!("want WorkerError for generation 3, got {other:?}"),
        }
        assert!(b.controller_hears_nothing());
        let _ = std::fs::remove_dir_all(&b.cfg.store_dir);
    }
}
