//! The `ms-worker` daemon: hosts operators over real TCP streams.
//!
//! One worker process runs any subset of a generation's operators —
//! including shard instances of key-partitioned HAUs — on three
//! threads, not O(edges + operators): main, I/O, and per generation a
//! persister. Each connection has one owner; the threads share no
//! state and talk over channels.
//!
//! * **The I/O thread** (the `evloop` module) owns every data socket,
//!   nonblocking, multiplexed with `poll(2)`, and runs every HAU:
//!   interiors and sinks ([`ms_live::InteriorCore`]), demo sources
//!   ([`ms_live::SourceCore`] ticked on deadlines) and ingestion
//!   [`Gate`]s. It is the only reader of the control connection and
//!   the only writer of the heartbeat connection.
//! * **The main thread** is the only writer of the control connection
//!   and the only owner of a generation's lifecycle: one loop over
//!   `Event`s — control messages, persister outcomes, HAU exits. It
//!   builds each generation (cells, a recovering source's replay,
//!   outbound connections, routes, meters) as plain owned data and
//!   hands it to the I/O thread in one command.
//!
//! Local edges are direct inbox pushes — colocated operators pay no
//! socket tax, exactly the HAU-grouping benefit of §II-A. A producer
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
//!   has the I/O thread drop the generation's sockets and routes and
//!   finish its HAUs, flushing their final state, and waits their exits
//!   out. Reports go out only for main's current generation, so a torn
//!   one's late acks and partial sink state never reach the controller.
//! * Every wait of a deploy is *generation-scoped*. Between its steps
//!   and connect retries, a deploy queues what waits on main's channel
//!   for after it; a control message there that ends the generation
//!   (anything but `Checkpoint`) abandons the deploy on the spot, so
//!   the worker is ready for the next `Assign` one heartbeat timeout
//!   after a peer's failure, not [`CONNECT_WAIT`] later.
//! * Main acks every durable individual checkpoint (`CkptDone`) — the
//!   controller's epoch barrier — with its operator's meter sample
//!   taken after the write, and surfaces storage failures as
//!   `WorkerError` instead of aborting the process. Once every local
//!   HAU has exited, main drains the persister, acks what the drain
//!   wrote, and only then reports finished sinks.
//! * Heartbeats ride a dedicated TCP connection (`HeartbeatHello`
//!   handshake), so a stalled report write can never delay liveness
//!   signals into a spurious failure detection. A beat is one
//!   `Heartbeat` frame: the generation, the hosts' summed backpressure
//!   gauges, and every local operator and gate meter sample. The I/O
//!   thread writes it between turns, so a beat also proves the data
//!   plane turns, well inside the 500 ms `--hb-timeout-ms`. A
//!   checkpoint capture, once the longest turn at 21 ms, is a
//!   copy-on-write view: the ledger's `capture_us` for a 17 MB
//!   `KeyedStat` reads p50 0.11 ms and p99 0.69 ms (EXPERIMENTS.md,
//!   "Copy-on-write operator state").

use std::collections::{HashMap, VecDeque};
use std::mem;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ms_core::error::{Error, Result};
use ms_core::ids::OperatorId;
use ms_core::metrics::OperatorMeter;
use ms_gate::{Gate, GateOp, GateWiring};
use ms_live::{
    FsStore, HostExit, HostWiring, InteriorCore, OutputRoute, Persister, SourceCore, StableStore,
};
use ms_net::ready::Waker;

use crate::apps::{build_operator, route_key, skewed_delay_us};
use crate::chaos::{FaultStore, RetryStore, StoreFaultSpec};
use crate::evloop::{self, CellPort, EgressBuf, Event, Gen, Hau, HostCell, IoCmd, Pace, Target};
use crate::message::{send_msg, Assignment, WireMsg};
use ms_net::fault::FaultPlan;

const FILE_POLL: Duration = Duration::from_millis(20);
const CONNECT_POLL: Duration = Duration::from_millis(25);
/// Upper bound on a connect that nothing supersedes: the controller at
/// start-up, and a deploy's data-plane peers.
const CONNECT_WAIT: Duration = Duration::from_secs(10);

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

/// Main's inbox: the channel every [`Event`] arrives on, behind the
/// events a deploy already took off it.
struct Events {
    rx: Receiver<Event>,
    /// Cloned into each generation's cells and persister hook.
    tx: Sender<Event>,
    /// Taken off `rx` while a deploy looked for supersession; handled
    /// first, in order.
    pending: VecDeque<Event>,
}

impl Events {
    fn new() -> Events {
        let (tx, rx) = channel();
        Events {
            rx,
            tx,
            pending: VecDeque::new(),
        }
    }

    /// The next event. `tx` keeps the channel open, so one always comes.
    fn next(&mut self) -> Event {
        let next = self.pending.pop_front();
        next.unwrap_or_else(|| self.rx.recv().expect("main holds a sender"))
    }

    /// Whether a control message that ends the current generation is
    /// waiting — anything but a `Checkpoint`, a closed or failed
    /// connection included.
    fn superseded(&mut self) -> bool {
        self.pending.extend(self.rx.try_iter());
        self.pending.iter().any(|ev| match ev {
            Event::Control(msg) => !matches!(msg, Ok(Some(WireMsg::Checkpoint(_)))),
            _ => false,
        })
    }
}

/// One deployed generation on this worker.
struct Run {
    generation: u64,
    /// Dropped, which drains it, once every local HAU has exited.
    persister: Option<Persister>,
    /// Local HAUs whose exit has not arrived.
    running: usize,
    /// The exits that have.
    exits: Vec<HostExit>,
    sinks: Vec<OperatorId>,
}

/// The main thread's state.
struct Worker {
    cfg: WorkerConfig,
    /// The I/O thread's command channel, and the waker that goes with it.
    io: Sender<IoCmd>,
    waker: Waker,
    /// The control connection, written only here.
    ctrl: TcpStream,
    events: Events,
    run: Option<Run>,
}

impl Worker {
    fn send_io(&self, cmd: IoCmd) {
        let _ = self.io.send(cmd);
        self.waker.wake();
    }

    /// Handles events until `Shutdown` or the control connection's end,
    /// then tears the current generation down.
    fn serve(&mut self) -> Result<()> {
        let outcome = loop {
            let ev = self.events.next();
            if let Some(end) = self.handle(ev) {
                break end;
            }
        };
        self.teardown();
        outcome
    }

    /// Handles one event; `Some` ends the worker with that outcome.
    /// Reports go out only for the current generation.
    fn handle(&mut self, ev: Event) -> Option<Result<()>> {
        match ev {
            Event::Control(Ok(Some(WireMsg::Assign(a)))) => {
                self.teardown();
                self.run = self.deploy(a);
            }
            Event::Control(Ok(Some(WireMsg::Checkpoint(epoch)))) => {
                if let Some(r) = &self.run {
                    let generation = r.generation;
                    self.send_io(IoCmd::Checkpoint { generation, epoch });
                }
            }
            Event::Control(Ok(Some(WireMsg::Rollback))) => self.teardown(),
            Event::Control(Ok(Some(WireMsg::Shutdown)) | Ok(None)) => return Some(Ok(())),
            Event::Control(Ok(Some(other))) => {
                let e = Error::Wire(format!("unexpected control message {other:?}"));
                return Some(Err(e));
            }
            Event::Control(Err(e)) => return Some(Err(e)),
            Event::Durable {
                generation,
                epoch,
                op,
                outcome,
                sample,
            } => {
                if self.run.as_ref().map(|r| r.generation) == Some(generation) {
                    // The ack carries the operator's sample taken after
                    // the write, so the ack that closes the epoch-e
                    // barrier brings its operator's epoch-e checkpoint
                    // phases — what lets the controller cut complete
                    // ledger records then.
                    self.report(match outcome {
                        Ok(_) => WireMsg::CkptDone {
                            generation,
                            epoch,
                            op,
                            sample,
                        },
                        Err(e) => WireMsg::WorkerError {
                            generation,
                            detail: e.to_string(),
                        },
                    });
                }
            }
            Event::Exit { generation, exit } => self.on_exit(generation, exit),
        }
        None
    }

    fn report(&mut self, msg: WireMsg) {
        let _ = send_msg(&mut self.ctrl, &msg);
    }

    /// One HAU of the current generation finished. After the last one,
    /// the persister is drained and what it wrote acked; only then are
    /// finished sinks and failed HAUs reported.
    fn on_exit(&mut self, generation: u64, exit: HostExit) {
        let Some(run) = self.run.as_mut().filter(|r| r.generation == generation) else {
            return;
        };
        run.exits.push(exit);
        run.running -= 1;
        if run.running > 0 {
            return;
        }
        drop(run.persister.take());
        let exits = mem::take(&mut run.exits);
        let sinks = mem::take(&mut run.sinks);
        // Every outcome of the drain is on the channel now: ack them
        // ahead of the sink reports; other events wait their turn.
        for ev in self.events.rx.try_iter().collect::<Vec<_>>() {
            match ev {
                Event::Durable { .. } => _ = self.handle(ev),
                _ => self.events.pending.push_back(ev),
            }
        }
        for exit in exits {
            // A host that stopped on a storage failure is a failed HAU,
            // not a finished one: surface it so the controller rolls
            // the generation back.
            if let Some(e) = &exit.error {
                self.report(WireMsg::WorkerError {
                    generation,
                    detail: format!("{}: {e}", exit.op_id),
                });
            } else if sinks.contains(&exit.op_id) {
                self.report(WireMsg::SinkDone {
                    generation,
                    op: exit.op_id,
                    snapshot: exit.op.snapshot().data,
                });
            }
        }
    }

    /// Tears the current generation down, if any. Order matters: it
    /// stops being current (its reports go quiet) → the I/O thread
    /// finishes its HAUs, so each exit flushes even with no traffic →
    /// the exits are waited out → the persister drains.
    fn teardown(&mut self) {
        let Some(mut run) = self.run.take() else {
            return;
        };
        self.send_io(IoCmd::Tear {
            generation: run.generation,
        });
        while run.running > 0 {
            match self.events.rx.recv().expect("main holds a sender") {
                Event::Exit { generation, .. } if generation == run.generation => run.running -= 1,
                ev @ Event::Control(_) => self.events.pending.push_back(ev),
                _ => {}
            }
        }
    }

    /// Starts `a`, or leaves the worker idle and clean: a failed or
    /// abandoned start spawned nothing, but peers may already have
    /// parked `StreamHello`s for the generation with the I/O thread —
    /// those go now, not at some later generation's teardown. A failed
    /// deploy (corrupt checkpoint, unreachable store or peer) fails
    /// the generation, not the daemon: it is reported and the worker
    /// awaits the next assignment. An abandoned one reports nothing —
    /// the controller already moved on.
    fn deploy(&mut self, a: Assignment) -> Option<Run> {
        let generation = a.generation;
        let failure = match self.start(a) {
            Ok(Some(run)) => return Some(run),
            Ok(None) => None,
            Err(e) => Some(e),
        };
        self.send_io(IoCmd::Tear { generation });
        if let Some(e) = failure {
            self.report(WireMsg::WorkerError {
                generation,
                detail: e.to_string(),
            });
        }
        None
    }

    /// Builds, restores and wires `a`'s local operators. `Ok(None)`
    /// means the controller superseded the generation while this was
    /// still restoring or connecting, and the deploy was abandoned
    /// with nothing spawned.
    fn start(&mut self, a: Assignment) -> Result<Option<Run>> {
        let cfg = &self.cfg;
        let events = &mut self.events;
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
            if events.superseded() {
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
                    if events.superseded() {
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
                let Some(mut s) = connect_retry(addr, CONNECT_WAIT, || !events.superseded())?
                else {
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

        // Infallible phase: build HAUs and wire routes. Each persister
        // write outcome goes to main, with the operator's sample after it.
        let tx = events.tx.clone();
        let hook: ms_live::DurableHook = Box::new(move |epoch, op, meter, outcome| {
            let _ = tx.send(Event::Durable {
                generation,
                epoch,
                op,
                outcome: outcome.clone(),
                sample: meter.map(OperatorMeter::sample),
            });
        });
        let persister = Persister::spawn_with(store.clone(), Some(hook));

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
            ..Gen::default()
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

            let op_meter = Arc::new(OperatorMeter::new());
            gen.ops.push((op, op_meter.clone()));
            // A gateway host: same output wiring as any source; the
            // replay is queued here and delivered when the I/O thread
            // adopts the generation, before the gate can admit a batch.
            let hau = if let Some(gate) = a.gates.iter().find(|g| g.op == op) {
                let wiring = GateWiring {
                    op_id: op,
                    cfg: gate.cfg,
                    outputs,
                    listener: listeners.remove(&op.0).expect("gate listener bound"),
                    restored: a.restore_epoch.is_some().then(|| r.operator.snapshot()),
                    restored_seq: r.restored_seq,
                    replay: r.replay,
                    telemetry: Some(op_meter),
                };
                let gate = Gate::new(wiring, store.clone(), persister.sender());
                Hau::Gate(Box::new(gate))
            } else if is_source {
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
                Hau::Source {
                    core: src,
                    op: operator,
                    pace: Pace::new(period, Instant::now()),
                }
            } else {
                let wiring = HostWiring {
                    op_id: op,
                    op: r.operator,
                    outputs,
                    restored_seq: r.restored_seq,
                    resume_seq: r.resume_seq,
                    last_durable: a.restore_epoch,
                    telemetry: Some(op_meter),
                };
                for &up in qn.upstream(op) {
                    if !is_mine(up) {
                        let port = qn.input_port(up, op).expect("edge exists").0;
                        let at = gen.cells.len();
                        gen.ingress.insert((up.0, op.0), CellPort { at, port });
                    }
                }
                let n_in = qn.upstream(op).len();
                Hau::Interior(InteriorCore::new(wiring, n_in, persister.sender()))
            };
            let cell = HostCell::new(generation, hau, events.tx.clone());
            gen.cells.push(cell);
        }
        self.send_io(IoCmd::Deploy(gen));
        Ok(Some(Run {
            generation,
            persister: Some(persister),
            running: my_ops.len(),
            exits: Vec::new(),
            sinks: my_ops
                .iter()
                .copied()
                .filter(|&op| qn.downstream(op).is_empty())
                .collect(),
        }))
    }
}

/// Connects to `addr`, retrying refusals for up to `wait` while
/// `wanted()` holds; `Ok(None)` once it no longer does.
fn connect_retry(
    addr: &str,
    wait: Duration,
    mut wanted: impl FnMut() -> bool,
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
    // The data-plane listener is bound before registering, which
    // carries its address.
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let data_addr = listener.local_addr()?.to_string();
    // Chaos runs plant a deterministic fault plan (`MS_FAULT_PLAN`) in
    // the I/O thread; production workers carry `None` and pay nothing.
    let plan = FaultPlan::from_env().map_err(|e| Error::Wire(format!("MS_FAULT_PLAN: {e}")))?;
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
    // Heartbeats ride a dedicated connection: a report write can stall
    // behind a large SinkDone/CkptDone while the controller is busy,
    // and a liveness signal queued behind it would read as a dead
    // worker. A socket of their own means heartbeat cadence only ever
    // reflects this process being alive.
    let mut heartbeat = connect()?;
    heartbeat.set_nodelay(true)?;
    send_msg(
        &mut heartbeat,
        &WireMsg::HeartbeatHello {
            name: cfg.name.clone(),
        },
    )?;
    listener.set_nonblocking(true)?;
    heartbeat.set_nonblocking(true)?;
    let control = ctrl.try_clone()?;
    let waker = Waker::new()?;
    let (io, io_rx) = channel();
    let events = Events::new();
    let (tx, wake) = (events.tx.clone(), waker.clone());
    let thread = evloop::spawn_io(listener, control, heartbeat, wake, io_rx, tx, plan);
    let mut worker = Worker {
        cfg,
        io,
        waker,
        ctrl,
        events,
        run: None,
    };
    let outcome = worker.serve();
    worker.send_io(IoCmd::Stop);
    let _ = thread.join();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{recv_msg, OpPlacement};
    use ms_core::ids::EpochId;
    use std::collections::BTreeSet;
    use std::io::Write;

    /// An address nothing listens on: bound, then closed.
    fn dead_addr() -> String {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    }

    /// Two ends of one loopback connection.
    fn pair() -> (TcpStream, TcpStream) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let near = TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let (far, _) = l.accept().unwrap();
        (near, far)
    }

    fn store_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ms_worker_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Main's state with no I/O thread, and both far ends in hand: the
    /// I/O thread's command queue and the controller's side of the
    /// control socket.
    struct Rig {
        worker: Worker,
        io_rx: Receiver<IoCmd>,
        controller_side: TcpStream,
    }

    fn rig(tag: &str) -> Rig {
        let (io, io_rx) = channel();
        let (ctrl, controller_side) = pair();
        controller_side
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        Rig {
            worker: Worker {
                cfg: WorkerConfig {
                    name: "me".into(),
                    controller: ControllerAddr::Addr(String::new()),
                    store_dir: store_dir(tag),
                },
                io,
                waker: Waker::new().unwrap(),
                ctrl,
                events: Events::new(),
                run: None,
            },
            io_rx,
            controller_side,
        }
    }

    impl Rig {
        fn deploy(&mut self, a: Assignment) -> Option<Run> {
            self.worker.deploy(a)
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

    /// chain2, the source on `source` and the sink on `sink`.
    fn chain2(
        generation: u64,
        restore_epoch: Option<EpochId>,
        source: OpPlacement,
        sink: OpPlacement,
    ) -> Assignment {
        Assignment {
            generation,
            restore_epoch,
            n_ops: 2,
            edges: vec![(OperatorId(0), OperatorId(1))],
            placement: vec![source, sink],
            source_limit: 10,
            source_delay_us: 0,
            keyed_state: 0,
            sawtooth_window: 0,
            groups: vec![vec![OperatorId(0)], vec![OperatorId(1)]],
            gates: Vec::new(),
        }
    }

    fn place(op: u32, worker: &str, data_addr: String) -> OpPlacement {
        OpPlacement {
            op: OperatorId(op),
            worker: worker.into(),
            data_addr,
        }
    }

    /// chain2 with the source here and the sink on a peer whose data
    /// port refuses: the worker that died after its last heartbeat.
    fn onto_dead_peer(generation: u64, restore_epoch: Option<EpochId>) -> Assignment {
        let source = place(0, "me", "127.0.0.1:1".into());
        chain2(
            generation,
            restore_epoch,
            source,
            place(1, "peer", dead_addr()),
        )
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
        let mut b = rig("abandon");
        let events = b.worker.events.tx.clone();
        // What the I/O thread forwards when the controller's Rollback
        // arrives, some time into the connect retries.
        let bump = thread::spawn(move || {
            thread::sleep(Duration::from_millis(300));
            let at = Instant::now();
            let _ = events.send(Event::Control(Ok(Some(WireMsg::Rollback))));
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
        let _ = std::fs::remove_dir_all(&b.worker.cfg.store_dir);
    }

    #[test]
    fn failed_deploy_tears_its_generation_and_reports_once() {
        let mut b = rig("failed");
        // Restores an epoch the store never saw: fails before any connect.
        assert!(b.deploy(onto_dead_peer(3, Some(EpochId(5)))).is_none());
        assert_eq!(b.torn(), Some(3));
        match recv_msg(&mut &b.controller_side) {
            Ok(Some(WireMsg::WorkerError { generation: 3, .. })) => {}
            other => panic!("want WorkerError for generation 3, got {other:?}"),
        }
        assert!(b.controller_hears_nothing());
        let _ = std::fs::remove_dir_all(&b.worker.cfg.store_dir);
    }

    #[test]
    fn the_last_exit_acks_what_the_persister_drains_before_the_sink_report() {
        use ms_core::operator::{DeferredSnapshot, OperatorSnapshot};
        use ms_live::{PersistItem, Summer};

        let mut b = rig("drain");
        // A checkpoint write that takes 200 ms: still in flight when the
        // generation's one HAU, a sink, exits.
        let slow = StoreFaultSpec {
            slow_ckpt_us: 200_000,
            ..StoreFaultSpec::default()
        };
        let fs = FsStore::open(&b.worker.cfg.store_dir, 2).unwrap();
        let tx = b.worker.events.tx.clone();
        let hook: ms_live::DurableHook = Box::new(move |epoch, op, _, outcome| {
            let _ = tx.send(Event::Durable {
                generation: 1,
                epoch,
                op,
                outcome: outcome.clone(),
                sample: None,
            });
        });
        let persister = Persister::spawn_with(Arc::new(FaultStore::new(fs, slow)), Some(hook));
        let item = PersistItem {
            epoch: EpochId(1),
            op: OperatorId(1),
            snapshot: DeferredSnapshot::Ready(OperatorSnapshot::empty()),
            base: None,
            next_seq: 0,
            resume_seq: Vec::new(),
            align_us: 0,
            capture_us: 0,
            meter: None,
        };
        assert!(persister.sender().send(item).is_ok());
        b.worker.run = Some(Run {
            generation: 1,
            persister: Some(persister),
            running: 1,
            exits: Vec::new(),
            sinks: vec![OperatorId(1)],
        });
        let exit = HostExit {
            op_id: OperatorId(1),
            op: Box::<Summer>::default(),
            error: None,
        };
        assert!(b
            .worker
            .handle(Event::Exit {
                generation: 1,
                exit
            })
            .is_none());
        // The drain's ack goes out first, then the sink's report.
        match recv_msg(&mut &b.controller_side) {
            Ok(Some(WireMsg::CkptDone {
                generation: 1,
                epoch: EpochId(1),
                op: OperatorId(1),
                ..
            })) => {}
            other => panic!("want the drained CkptDone first, got {other:?}"),
        }
        match recv_msg(&mut &b.controller_side) {
            Ok(Some(WireMsg::SinkDone { generation: 1, .. })) => {}
            other => panic!("want SinkDone after the ack, got {other:?}"),
        }
        assert!(b.controller_hears_nothing());
        let _ = std::fs::remove_dir_all(&b.worker.cfg.store_dir);
    }

    #[test]
    fn acks_precede_the_sink_report_and_a_torn_generation_reports_nothing() {
        let dir = store_dir("acks");
        let ctl = TcpListener::bind("127.0.0.1:0").unwrap();
        let cfg = WorkerConfig {
            name: "me".into(),
            controller: ControllerAddr::Addr(ctl.local_addr().unwrap().to_string()),
            store_dir: dir.clone(),
        };
        let worker = thread::spawn(move || run_worker(cfg));
        // The worker registers on its control connection, then opens its
        // heartbeat connection.
        let (mut controller, _) = ctl.accept().unwrap();
        controller
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let Ok(Some(WireMsg::Register {
            data_addr: here, ..
        })) = recv_msg(&mut controller)
        else {
            panic!("the worker did not register");
        };
        let (mut beats, _) = ctl.accept().unwrap();
        beats
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        // Both operators here; the source emits one tuple a millisecond,
        // 300 in all.
        let local = |generation| Assignment {
            source_limit: 300,
            source_delay_us: 1000,
            ..chain2(
                generation,
                None,
                place(0, "me", here.clone()),
                place(1, "me", here.clone()),
            )
        };

        // Generation 1 runs to its end through two barriers.
        send_msg(&mut controller, &WireMsg::Assign(local(1))).unwrap();
        for epoch in 1..=2 {
            thread::sleep(Duration::from_millis(50));
            send_msg(&mut controller, &WireMsg::Checkpoint(EpochId(epoch))).unwrap();
        }
        let mut acked = BTreeSet::new();
        loop {
            match recv_msg(&mut controller).unwrap().unwrap() {
                WireMsg::CkptDone {
                    generation: 1,
                    epoch,
                    op,
                    ..
                } => assert!(acked.insert((epoch.0, op.0))),
                WireMsg::SinkDone {
                    generation: 1, op, ..
                } => {
                    assert_eq!(op, OperatorId(1));
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        // Both epochs of both operators were acked, every ack ahead of
        // the sink's report, and nothing follows it.
        assert_eq!(acked, BTreeSet::from([(1, 0), (1, 1), (2, 0), (2, 1)]));
        controller
            .set_read_timeout(Some(Duration::from_millis(300)))
            .unwrap();
        assert!(
            recv_msg(&mut controller).is_err(),
            "a report after SinkDone"
        );

        // Generation 2 is torn while it runs: once a beat shows the I/O
        // thread runs it, a barrier and the Rollback arrive in one
        // write, so main handles the Rollback before any outcome of the
        // barrier's writes.
        send_msg(&mut controller, &WireMsg::Assign(local(2))).unwrap();
        while !matches!(
            recv_msg(&mut beats).unwrap(),
            Some(WireMsg::Heartbeat { generation: 2, .. })
        ) {}
        let mut both = Vec::new();
        send_msg(&mut both, &WireMsg::Checkpoint(EpochId(3))).unwrap();
        send_msg(&mut both, &WireMsg::Rollback).unwrap();
        controller.write_all(&both).unwrap();
        assert!(
            recv_msg(&mut controller).is_err(),
            "the torn generation reported"
        );
        send_msg(&mut controller, &WireMsg::Shutdown).unwrap();
        worker.join().unwrap().unwrap();
        // The barrier's checkpoint was written: its ack was withheld,
        // not lost.
        let store = FsStore::open(&dir, 2).unwrap();
        assert!(store.get_checkpoint(EpochId(3), OperatorId(0)).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
