//! The `ms-worker` daemon: hosts operators over real TCP streams.
//!
//! One worker process runs any subset of a generation's operators —
//! including shard instances of key-partitioned HAUs — on two threads,
//! not O(edges + operators): the event loop (the `evloop` module) on
//! the process's main thread, and per generation a persister. The loop
//! owns every socket, runs every HAU — interiors and sinks
//! ([`ms_live::InteriorCore`]), demo sources ([`ms_live::SourceCore`]
//! ticked on deadlines) and ingestion [`Gate`]s — and owns each
//! generation's lifecycle. It is the only reader and writer of the
//! control connection and the only writer of the heartbeat connection.
//! The persister writes checkpoints beside it and sends it each
//! outcome, the one thing that crosses between the two.
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
//!   drops the generation's sockets and routes, finishes its HAUs,
//!   flushing their final state, and drains its persister, before the
//!   loop reads on. Only the current generation reports, so a torn
//!   one's late acks and partial sink state never reach the controller.
//! * A [`Deploy`] builds and restores every local operator at once,
//!   then connects its outbound edges from the loop. No attempt blocks
//!   longer than [`CONNECT_POLL`]; a refused one is retried when the
//!   next `CONNECT_POLL` deadline comes due, while the loop turns and
//!   beats. A control message that ends the generation (anything but
//!   `Checkpoint`) drops the half-built deploy on the spot, so the
//!   worker is ready for the next `Assign` one heartbeat timeout after
//!   a peer's failure, not [`CONNECT_WAIT`] later.
//! * The loop acks every durable individual checkpoint (`CkptDone`) —
//!   the controller's epoch barrier — with its operator's meter sample
//!   taken after the write, and surfaces storage failures as
//!   `WorkerError` instead of aborting the process. Once every local
//!   HAU has exited, it drains the persister, acks what the drain
//!   wrote, and only then reports finished sinks. Reports are written
//!   nonblocking, so a controller slow to read never stalls the loop.
//! * Heartbeats ride a dedicated TCP connection (`HeartbeatHello`
//!   handshake), so a report queued behind a slow controller can never
//!   delay liveness signals into a spurious failure detection. A beat
//!   is one `Heartbeat` frame: the generation, the hosts' summed
//!   backpressure gauges, and every local operator and gate meter
//!   sample. The loop writes it between turns, so a beat also proves
//!   the data plane turns, well inside the 500 ms `--hb-timeout-ms`. A
//!   checkpoint capture, once the longest turn at 21 ms, is a
//!   copy-on-write view: the ledger's `capture_us` for a 17 MB
//!   `KeyedStat` reads p50 0.11 ms and p99 0.69 ms (EXPERIMENTS.md,
//!   "Copy-on-write operator state").

use std::collections::HashMap;
use std::io;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ms_core::error::{Error, Result};
use ms_core::graph::QueryNetwork;
use ms_core::ids::{EpochId, OperatorId};
use ms_core::metrics::OperatorMeter;
use ms_gate::{Gate, GateOp, GateWiring};
use ms_live::{
    DurableHook, FsStore, HostWiring, InteriorCore, OutputRoute, Persister, SourceCore, StableStore,
};

use crate::apps::{build_operator, route_key, skewed_delay_us};
use crate::chaos::{FaultStore, RetryStore, StoreFaultSpec};
use crate::evloop::{CellPort, EgressBuf, Gen, Hau, HostCell, Pace, Target, Worker};
use crate::message::{send_msg, Assignment, WireMsg};
use ms_net::fault::FaultPlan;

const FILE_POLL: Duration = Duration::from_millis(20);
/// The longest one connect attempt blocks, and the period of retries.
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

/// One local operator, built and restored.
struct Restored {
    operator: Box<dyn ms_core::operator::Operator>,
    restored_seq: u64,
    replay: Vec<ms_core::tuple::Tuple>,
    resume_seq: Vec<u64>,
}

/// A generation between its `Assign` and its adoption by the loop:
/// every local operator built and restored, its outbound edges
/// connecting. Nothing runs yet, so a superseded deploy is dropped.
pub(crate) struct Deploy {
    a: Assignment,
    qn: QueryNetwork,
    store: Arc<dyn StableStore>,
    restored: HashMap<u32, Restored>,
    /// Outbound edges to other workers not yet connected,
    /// `(producer, consumer)`.
    unconnected: Vec<(OperatorId, OperatorId)>,
    /// The connected ones, hello sent, nonblocking.
    remote: HashMap<(u32, u32), TcpStream>,
    /// When a refused connect is tried again.
    pub(crate) retry: Pace,
    /// When a connect that nothing superseded gives up.
    give_up: Instant,
    /// Barriers that arrived while it connected, cut once it runs.
    pub(crate) barriers: Vec<EpochId>,
}

impl Deploy {
    /// Builds and restores `a`'s local operators, and lists the
    /// outbound edges to connect.
    pub(crate) fn new(cfg: &WorkerConfig, a: Assignment) -> Result<Deploy> {
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
        let is_gate = |op: OperatorId| a.gates.iter().any(|g| g.op == op);
        let mut restored: HashMap<u32, Restored> = HashMap::new();
        let mut unconnected = Vec::new();
        for op in a.ops_on(&cfg.name) {
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
            for &down in qn.downstream(op) {
                if !is_mine(&a, cfg, down) {
                    unconnected.push((op, down));
                }
            }
        }
        let now = Instant::now();
        Ok(Deploy {
            a,
            qn,
            store,
            restored,
            unconnected,
            remote: HashMap::new(),
            retry: Pace::new(CONNECT_POLL, now),
            give_up: now + CONNECT_WAIT,
            barriers: Vec::new(),
        })
    }

    pub(crate) fn generation(&self) -> u64 {
        self.a.generation
    }

    /// Connects the outbound edges not yet up, each hello sent before
    /// its socket turns nonblocking; `Ok(true)` once all are. A live
    /// peer's listener is up before the controller assigns (it binds
    /// before registering), so its connect resolves at once; a peer
    /// that died after its last heartbeat refuses until the controller
    /// notices and supersedes the generation. So a refusal is
    /// `Ok(false)`, tried again when `retry` comes due, and an error
    /// once `give_up` has passed.
    pub(crate) fn connect_retry(&mut self, now: Instant) -> Result<bool> {
        while let Some(&(op, down)) = self.unconnected.last() {
            let addr = self
                .a
                .addr_of(down)
                .ok_or_else(|| Error::Wire(format!("{down} missing from placement")))?;
            let mut s = match connect(addr) {
                Ok(s) => s,
                Err(e) if now > self.give_up => {
                    return Err(Error::Wire(format!("connect {addr}: {e}")));
                }
                Err(_) => return Ok(false),
            };
            s.set_nodelay(true)?;
            let generation = self.a.generation;
            let hello = WireMsg::StreamHello {
                generation,
                from: op,
                to: down,
            };
            send_msg(&mut s, &hello)?;
            s.set_nonblocking(true)?;
            self.remote.insert((op.0, down.0), s);
            self.unconnected.pop();
        }
        Ok(true)
    }

    /// Binds the gate listeners, then builds the generation: its
    /// persister, reporting each write through `hook`, its cells and
    /// its routes. A bind error fails the deploy; an early producer
    /// waits in the backlog until the loop adopts the gate.
    pub(crate) fn build(self, cfg: &WorkerConfig, hook: DurableHook) -> Result<Gen> {
        let Deploy {
            a,
            qn,
            store,
            mut restored,
            mut remote,
            ..
        } = self;
        let is_mine = |op: OperatorId| is_mine(&a, cfg, op);
        let mut listeners: HashMap<u32, TcpListener> = HashMap::new();
        for gate in a.gates.iter().filter(|g| is_mine(g.op)) {
            let addr_file = cfg.store_dir.join(format!("gate_op{}.addr", gate.op.0));
            listeners.insert(gate.op.0, ms_gate::listen("127.0.0.1:0", Some(&addr_file))?);
        }
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
            generation: a.generation,
            sinks: order
                .iter()
                .copied()
                .filter(|&op| qn.downstream(op).is_empty())
                .collect(),
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
            // replay is queued here and delivered when the loop adopts
            // the generation, before the gate can admit a batch.
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
            gen.cells.push(HostCell::new(hau));
        }
        gen.persister = Some(persister);
        Ok(gen)
    }
}

/// Whether `a` places `op` on this worker.
fn is_mine(a: &Assignment, cfg: &WorkerConfig, op: OperatorId) -> bool {
    a.worker_of(op) == Some(cfg.name.as_str())
}

/// One connect attempt per address `addr` resolves to, each blocking no
/// longer than [`CONNECT_POLL`]; the last error if none connects.
fn connect(addr: &str) -> io::Result<TcpStream> {
    let mut last = io::Error::from(io::ErrorKind::AddrNotAvailable);
    for addr in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&addr, CONNECT_POLL) {
            Ok(s) => return Ok(s),
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// Polls `attempt` every `period` until it succeeds or `wait` has
/// passed, then fails with its last error — start-up only, before the
/// loop runs.
fn retry_for<T>(
    wait: Duration,
    period: Duration,
    mut attempt: impl FnMut() -> std::result::Result<T, String>,
) -> Result<T> {
    let deadline = Instant::now() + wait;
    loop {
        match attempt() {
            Ok(v) => return Ok(v),
            Err(e) if Instant::now() > deadline => return Err(Error::Wire(e)),
            Err(_) => thread::sleep(period),
        }
    }
}

/// Runs a worker to completion on the calling thread: register, host
/// assigned operators across generations, exit on `Shutdown` (or
/// controller loss).
pub fn run_worker(cfg: WorkerConfig) -> Result<()> {
    let ctrl_addr = match &cfg.controller {
        ControllerAddr::Addr(a) => a.clone(),
        ControllerAddr::File(path) => retry_for(CONNECT_WAIT, FILE_POLL, || {
            let text = std::fs::read_to_string(path).unwrap_or_default();
            let text = text.trim();
            let missing = || format!("controller address file {path:?} never appeared");
            (!text.is_empty())
                .then(|| text.to_string())
                .ok_or_else(missing)
        })?,
    };
    // The data-plane listener is bound before registering, which
    // carries its address.
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let data_addr = listener.local_addr()?.to_string();
    // Chaos runs plant a deterministic fault plan (`MS_FAULT_PLAN`) in
    // the loop; production workers carry `None` and pay nothing.
    let plan = FaultPlan::from_env().map_err(|e| Error::Wire(format!("MS_FAULT_PLAN: {e}")))?;
    let connect = || {
        let s = retry_for(CONNECT_WAIT, CONNECT_POLL, || {
            connect(&ctrl_addr).map_err(|e| format!("connect {ctrl_addr}: {e}"))
        })?;
        s.set_nodelay(true)?;
        Ok::<_, Error>(s)
    };
    let mut ctrl = connect()?;
    send_msg(
        &mut ctrl,
        &WireMsg::Register {
            name: cfg.name.clone(),
            data_addr,
        },
    )?;
    // Heartbeats ride a dedicated connection: a report can queue behind
    // a large SinkDone/CkptDone while the controller is busy, and a
    // liveness signal queued behind it would read as a dead worker. A
    // socket of their own means heartbeat cadence only ever reflects
    // this process being alive.
    let mut heartbeat = connect()?;
    send_msg(
        &mut heartbeat,
        &WireMsg::HeartbeatHello {
            name: cfg.name.clone(),
        },
    )?;
    Worker::new(cfg, listener, ctrl, heartbeat, plan)?.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evloop::tests::{fill, pair};
    use crate::message::{recv_msg, OpPlacement};
    use std::collections::BTreeSet;
    use std::io::{Read, Write};
    use std::path::Path;

    /// An address nothing listens on: bound, then closed.
    fn dead_addr() -> String {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    }

    fn store_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ms_worker_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn config(dir: &Path) -> WorkerConfig {
        WorkerConfig {
            name: "me".into(),
            controller: ControllerAddr::Addr(String::new()),
            store_dir: dir.to_path_buf(),
        }
    }

    /// A worker's loop, not yet turning, and the far ends of its
    /// connections: its data address, and the controller's ends of its
    /// control and heartbeat connections.
    struct Rig {
        worker: Worker,
        here: String,
        controller: TcpStream,
        beats: TcpStream,
        dir: PathBuf,
    }

    /// A worker over `control`, whose far end is the controller's.
    fn rig_over(tag: &str, control: (TcpStream, TcpStream)) -> Rig {
        let dir = store_dir(tag);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let here = listener.local_addr().unwrap().to_string();
        let (heartbeat, beats) = pair();
        let worker = Worker::new(config(&dir), listener, control.0, heartbeat, None).unwrap();
        let controller = control.1;
        controller
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        Rig {
            worker,
            here,
            controller,
            beats,
            dir,
        }
    }

    fn rig(tag: &str) -> Rig {
        rig_over(tag, pair())
    }

    /// The loop of a [`Rig`] running on a thread of its own.
    struct Running {
        worker: thread::JoinHandle<Result<()>>,
        controller: TcpStream,
        beats: TcpStream,
        dir: PathBuf,
    }

    impl Rig {
        fn run(self) -> Running {
            let mut worker = self.worker;
            Running {
                worker: thread::spawn(move || worker.run()),
                controller: self.controller,
                beats: self.beats,
                dir: self.dir,
            }
        }

        /// A peer's stream for `generation`, its hello sent: parked
        /// until the generation runs.
        fn stream_of(&self, generation: u64) -> TcpStream {
            let mut s = TcpStream::connect(&self.here).unwrap();
            let hello = WireMsg::StreamHello {
                generation,
                from: OperatorId(1),
                to: OperatorId(0),
            };
            send_msg(&mut s, &hello).unwrap();
            s
        }
    }

    impl Running {
        fn send(&mut self, msg: &WireMsg) {
            send_msg(&mut self.controller, msg).unwrap();
        }

        /// The control socket stays silent until its read times out.
        fn controller_hears_nothing(&self) -> bool {
            recv_msg(&mut &self.controller).is_err()
        }

        /// Shuts the worker down cleanly.
        fn shutdown(mut self) {
            self.send(&WireMsg::Shutdown);
            self.worker.join().unwrap().unwrap();
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    /// Whether the worker closed `s` within `wait`.
    fn closed_within(s: &TcpStream, wait: Duration) -> bool {
        s.set_read_timeout(Some(wait)).unwrap();
        match (&*s).read(&mut [0u8; 64]) {
            Ok(0) => true,
            Ok(_) => panic!("the worker wrote on a data stream"),
            Err(e) => !matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
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
        let dir = store_dir("bounded");
        let mut deploy = Deploy::new(&config(&dir), onto_dead_peer(1, None)).unwrap();
        let wait = Duration::from_millis(150);
        let t0 = Instant::now();
        deploy.give_up = t0 + wait;
        loop {
            // Each attempt is one refused connect, not a wait.
            let at = Instant::now();
            let tried = deploy.connect_retry(at);
            assert!(
                at.elapsed() < CONNECT_POLL,
                "one attempt took {:?}",
                at.elapsed()
            );
            match tried {
                Ok(false) => thread::sleep(CONNECT_POLL),
                Ok(true) => panic!("connected to a dead peer"),
                Err(_) => break,
            }
        }
        let took = t0.elapsed();
        assert!(
            took >= wait && took < wait + Duration::from_millis(200),
            "{took:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deploy_onto_a_dead_peer_is_abandoned_on_supersession() {
        let r = rig("abandon");
        let parked = r.stream_of(7);
        let mut w = r.run();
        w.send(&WireMsg::Assign(onto_dead_peer(7, None)));
        // The deploy retries its refusing peer for as long as nothing
        // supersedes it, and the generation's parked stream waits.
        assert!(!closed_within(&parked, Duration::from_millis(300)));
        let bumped = Instant::now();
        w.send(&WireMsg::Rollback);
        // The Rollback drops the deploy, and the generation's parked
        // hellos go with it; the controller — which already moved on —
        // hears nothing.
        assert!(closed_within(&parked, Duration::from_secs(5)));
        let lag = bumped.elapsed();
        assert!(lag < Duration::from_millis(200), "abandoned {lag:?} late");
        assert!(w.controller_hears_nothing());
        w.shutdown();
    }

    #[test]
    fn failed_deploy_tears_its_generation_and_reports_once() {
        let r = rig("failed");
        let parked = r.stream_of(3);
        let mut w = r.run();
        // Restores an epoch the store never saw: fails before any connect.
        w.send(&WireMsg::Assign(onto_dead_peer(3, Some(EpochId(5)))));
        match recv_msg(&mut w.controller) {
            Ok(Some(WireMsg::WorkerError { generation: 3, .. })) => {}
            other => panic!("want WorkerError for generation 3, got {other:?}"),
        }
        assert!(w.controller_hears_nothing());
        assert!(closed_within(&parked, Duration::from_secs(5)));
        w.shutdown();
    }

    #[test]
    fn the_last_exit_acks_what_the_persister_drains_before_the_sink_report() {
        use ms_core::operator::{DeferredSnapshot, OperatorSnapshot};
        use ms_live::{HostExit, PersistItem, Summer};

        let mut r = rig("drain");
        // A checkpoint write that takes 200 ms: still in flight when the
        // generation's one HAU, a sink, exits.
        let slow = StoreFaultSpec {
            slow_ckpt_us: 200_000,
            ..StoreFaultSpec::default()
        };
        let fs = FsStore::open(&r.dir, 2).unwrap();
        let hook = r.worker.hook(1);
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
        let exit = HostExit {
            op_id: OperatorId(1),
            op: Box::<Summer>::default(),
            error: None,
        };
        let gen = Gen {
            generation: 1,
            cells: vec![HostCell::new(Hau::Done(None))],
            sinks: vec![OperatorId(1)],
            exits: vec![exit],
            persister: Some(persister),
            ..Gen::default()
        };
        r.worker.adopt(gen, Vec::new());
        assert!(r.worker.turn().is_none());
        // The drain's ack goes out first, then the sink's report.
        match recv_msg(&mut r.controller) {
            Ok(Some(WireMsg::CkptDone {
                generation: 1,
                epoch: EpochId(1),
                op: OperatorId(1),
                ..
            })) => {}
            other => panic!("want the drained CkptDone first, got {other:?}"),
        }
        match recv_msg(&mut r.controller) {
            Ok(Some(WireMsg::SinkDone { generation: 1, .. })) => {}
            other => panic!("want SinkDone after the ack, got {other:?}"),
        }
        assert!(recv_msg(&mut r.controller).is_err());
        let _ = std::fs::remove_dir_all(&r.dir);
    }

    #[test]
    fn beats_keep_their_cadence_while_a_deploy_retries_and_reports_back_up() {
        // The worker's side of the control socket starts full, and the
        // controller never reads it: every report queues.
        let control = pair();
        fill(&control.0);
        let mut w = rig_over("cadence", control).run();
        w.beats
            .set_read_timeout(Some(Duration::from_secs(1)))
            .unwrap();
        let cadence = |w: &mut Running| {
            let mut next_beat = || match recv_msg(&mut w.beats) {
                Ok(Some(WireMsg::Heartbeat { .. })) => Instant::now(),
                other => panic!("want a beat, got {other:?}"),
            };
            let first = next_beat();
            let last = (0..4).map(|_| next_beat()).last().unwrap();
            let span = last - first;
            assert!(
                span >= Duration::from_millis(120) && span < Duration::from_millis(500),
                "four intervals in {span:?}"
            );
        };
        // A deploy whose peer refuses keeps retrying, and the beats go on.
        w.send(&WireMsg::Assign(onto_dead_peer(5, None)));
        cadence(&mut w);
        // The next deploy fails, and its report waits behind the full
        // socket; the beats go on.
        w.send(&WireMsg::Assign(onto_dead_peer(6, Some(EpochId(9)))));
        cadence(&mut w);
        w.shutdown();
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

        // Generation 2 is torn while it runs: once a beat shows the loop
        // runs it, a barrier and the Rollback arrive in one write, so
        // the loop acts on the Rollback before any outcome of the
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
