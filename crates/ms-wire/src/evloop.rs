//! The worker's data plane: one I/O thread that multiplexes every peer
//! socket and runs every HAU the worker hosts, as an HAU of the paper
//! is one processing thread ([`spawn_io`]), not one per edge or
//! operator:
//!
//! * It owns the data-plane listener and every data socket,
//!   nonblocking, driven by [`ms_net::ready::poll`]. Inbound frames are
//!   batch-decoded into the consuming cell's inbox (a
//!   [`WireMsg::TupleBatch`] frame lands as one inbox push for the
//!   whole run).
//! * It owns every [`HostCell`] of every generation ([`Gen`]) — an
//!   interior or sink ([`InteriorCore`] plus its inbox), a demo source
//!   ([`SourceCore`]) ticked on its deadlines, or an ingestion [`Gate`]
//!   whose sockets join the poll set — and every inbox and egress
//!   queue; no core, inbox or queue is shared with another thread.
//! * A core sends by queueing into its own outbox, addressed through
//!   its generation's target table. One delivery routine
//!   ([`Gen::deliver`]) moves the outbox after every input message an
//!   interior applies and every step, checkpoint and finish: a message
//!   for a colocated consumer goes into that consumer's inbox, one for
//!   another worker is encoded onto the connection's [`EgressBuf`].
//! * Each turn reads the ready sockets, applies commands, visits the
//!   cells in topological order (sources and gates first, so a gate's
//!   group commit lands before the interiors run and a colocated chain
//!   drains in one pass), then writes every non-empty [`EgressBuf`]
//!   with vectored writes — many frames per syscall. It blocks in poll
//!   until a socket, a command, a deadline (a source's, or the next
//!   heartbeat's) or cells left waiting behind producer input
//!   ([`QUIET_MS`]) need it: idle means *blocked in poll*, not sleeping
//!   in a loop.
//! * It is the only reader of the control connection ([`Event::Control`]
//!   to the main thread, in order) and the only writer of the heartbeat
//!   connection: a beat of the newest generation's meters every
//!   [`HEARTBEAT_INTERVAL`], replacing one the socket has not taken.
//!   That deadline is the backstop should a wake ever be lost.
//!
//! The thread takes input from other threads only through [`IoCmd`]
//! and the [`Waker`], and sends them [`Event`]s. The worker's main
//! thread builds a generation — its cells with a recovering source's
//! replay in their outboxes, its connections, routes and meters — as
//! plain owned data that crosses once, in [`IoCmd::Deploy`].
//!
//! Failure semantics:
//!
//! * An inbound socket that dies **without** [`WireMsg::Eos`] is a
//!   peer failure: the connection is dropped but the consumer's input
//!   is left open and silent (no Eos is synthesized), so a sink can
//!   never mistake a crash for completion.
//! * An outbound socket that breaks flips its [`EgressBuf`] to
//!   *drain*: pushes are discarded, the producer keeps running. The
//!   discarded tuples are preserved in (or derivable from) the source
//!   logs; the controller's rollback rewinds downstream state behind
//!   them.
//! * [`IoCmd::Tear`] drops the generation's connections and routes and
//!   finishes its sources, gates and cells, discarding what they would
//!   still send, so each final [`HostExit`] reaches the main thread
//!   ([`Event::Exit`]) even if no message ever arrives.
//!
//! Streams that arrive before their `Assign` (the controller sends
//! assignments concurrently, so a peer can connect first) sit in a
//! *pending* state with **no read interest** — TCP backpressure holds
//! the bytes upstream — until [`IoCmd::Deploy`] delivers the route
//! table.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read};
use std::mem;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ms_core::codec::{frame, FrameDecoder};
use ms_core::error::{Error, Result};
use ms_core::ids::{EpochId, OperatorId};
use ms_core::metrics::{BackpressureGauges, OperatorMeter, OperatorSample};
use ms_core::operator::Operator;
use ms_gate::{Gate, GateMeter};
use ms_live::{HostExit, HostMsg, InteriorCore, Outbox, SourceCore};
use ms_net::fault::FaultPlan;
use ms_net::ready::{poll, Interest, PollTarget, ReadyEvent, Waker};
use ms_net::vectored;

use crate::message::{encode_tuple_batch, WireMsg};

/// Heartbeat cadence. Every `--hb-timeout-ms` in use (500–1000) spans
/// at least ten beats, and the application-aware profiler learns state
/// sizes from the beats at this cadence.
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(50);
/// The most ticks one source runs per turn, so an unpaced or far-behind
/// source still yields the thread every turn.
const MAX_TICKS_PER_TURN: u32 = 256;
/// After a turn that read producer input, the next poll waits this long
/// for more before the interior cells apply it, so a producer awaiting
/// its ack is answered at admission speed, not behind the apply.
const QUIET_MS: i32 = 1;
/// The longest interior cells wait behind producer input.
const MAX_APPLY_LAG: Duration = Duration::from_millis(100);
/// Per-read scratch size for ingress sockets.
const READ_CHUNK: usize = 16 * 1024;

// ---------------- egress ----------------

/// One outbound data connection and its userspace send queue. Delivery
/// appends encoded frames; the write pass drains the queue with
/// vectored writes ([`ms_net::vectored::write_frames`], `writev(2)` on
/// unix) — many frames per syscall instead of one. The queue stays
/// unbounded until end-to-end credit bounds it (ROADMAP B): a colocated
/// gate feeds it at producer speed, and the alternative (blocking the
/// I/O thread on a slow socket) stalls every operator of the worker.
pub(crate) struct EgressBuf {
    /// The socket; `None` once it broke: drain mode, pushes are
    /// discarded (see module docs).
    stream: Option<TcpStream>,
    /// Encoded frames awaiting the socket, front-to-back.
    frames: VecDeque<Vec<u8>>,
    /// Bytes of the front frame already written by a partial flush.
    head: usize,
}

impl EgressBuf {
    /// A queue over a connected, nonblocking socket whose hello is out.
    pub(crate) fn new(stream: TcpStream) -> EgressBuf {
        EgressBuf {
            stream: Some(stream),
            frames: VecDeque::new(),
            head: 0,
        }
    }

    fn push(&mut self, msg: HostMsg) {
        if self.stream.is_none() {
            return;
        }
        let payload = match msg {
            // One TupleBatch frame per batch — one header, one decode,
            // one inbox push on the far side — encoded in place.
            HostMsg::DataBatch(b) => encode_tuple_batch(&b),
            HostMsg::Token(e) => WireMsg::Token(e).encode(),
            HostMsg::Eos => WireMsg::Eos.encode(),
        };
        self.frames.push_back(frame(&payload));
    }

    /// Queues `msg` in place of every frame not yet begun, so a
    /// heartbeat stream whose peer stops reading holds one beat, never a
    /// backlog. A frame partly written finishes first; `msg` is dropped.
    fn replace(&mut self, msg: &WireMsg) {
        if self.head == 0 {
            self.frames.clear();
        }
        if self.frames.is_empty() && self.stream.is_some() {
            self.frames.push_back(frame(&msg.encode()));
        }
    }

    /// The socket to poll for writability while frames wait on it.
    fn blocked_fd(&self) -> Option<PollTarget> {
        let stream = self.stream.as_ref().filter(|_| !self.frames.is_empty());
        stream.map(|s| s.as_raw_fd())
    }

    /// Drains as many queued frames as the socket accepts, a vectored
    /// write per pass, until it would block. An error drops the socket
    /// and flips the queue to drain mode.
    fn write(&mut self) {
        let Some(s) = &mut self.stream else { return };
        while !self.frames.is_empty() {
            match vectored::write_frames(s, self.frames.iter().map(|f| f.as_slice()), self.head) {
                Ok(0) => break,
                Ok(n) => self.head = vectored::consume_frames(n, self.head, &mut self.frames),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        if !self.frames.is_empty() {
            self.stream = None;
            self.frames = VecDeque::new();
            self.head = 0;
        }
    }
}

// ---------------- the cells ----------------

/// The protocol state machine of one HAU.
pub(crate) enum Hau {
    /// An interior or sink, fed through its inbox.
    Interior(InteriorCore),
    /// A demo source, ticked when its deadlines pass.
    Source {
        core: SourceCore,
        op: Box<dyn Operator>,
        pace: Pace,
    },
    /// An ingestion gate, whose sockets join the poll set.
    Gate(Box<Gate>),
    /// Finished, its exit record sent. The tombstone keeps the cell's
    /// index, its address, until the generation is torn down.
    Done,
}

/// One HAU, owned by the I/O thread: its state machine, its inbox (fed
/// only to interiors and sinks), and where its exit record goes.
pub(crate) struct HostCell {
    generation: u64,
    hau: Hau,
    /// `(input port, message)`, in arrival order.
    inbox: VecDeque<(u32, HostMsg)>,
    exits: Sender<Event>,
}

impl HostCell {
    pub(crate) fn new(generation: u64, hau: Hau, exits: Sender<Event>) -> HostCell {
        HostCell {
            generation,
            hau,
            inbox: VecDeque::new(),
            exits,
        }
    }

    /// Queues `msg` on input `port`; a cell that is not a live
    /// interior discards it.
    fn push(&mut self, port: u32, msg: HostMsg) {
        if matches!(self.hau, Hau::Interior(_)) {
            self.inbox.push_back((port, msg));
        }
    }

    /// Publishes an interior's backpressure gauges ahead of applying
    /// its inbox. The gauge counts tuples, not inbox messages: one
    /// DataBatch is up to hundreds of tuples.
    fn publish_backpressure(&mut self) {
        if let Hau::Interior(core) = &mut self.hau {
            if !self.inbox.is_empty() {
                let tuples: usize = self.inbox.iter().map(|(_, msg)| msg.tuple_count()).sum();
                core.publish_backpressure(tuples as u64);
            }
        }
    }

    /// Applies an interior's oldest input through its core, with what
    /// that message emitted; `None` once the inbox is empty.
    fn apply_next(&mut self) -> Option<Outbox> {
        let Hau::Interior(core) = &mut self.hau else {
            return None;
        };
        let (port, msg) = self.inbox.pop_front()?;
        core.on_msg(port as usize, msg);
        Some(core.take_outbox())
    }

    /// One visit: a gate commits and acks what it staged, a source runs
    /// the ticks due at `now`; an interior, whose inbox [`run_cells`]
    /// applies, only reports whether it is done. Returns what the HAU
    /// queued downstream; a HAU that is done finishes here, so its EOS
    /// is at the end.
    fn step(&mut self, now: Instant) -> Outbox {
        let live = match &mut self.hau {
            Hau::Interior(core) => !core.is_done(),
            Hau::Source { core, op, pace } => (0..pace.due(now)).all(|_| core.tick(op.as_mut())),
            Hau::Gate(gate) => {
                gate.commit();
                gate.flush_acks();
                !gate.is_done()
            }
            Hau::Done => return Outbox::new(),
        };
        if live {
            self.take_outbox()
        } else {
            self.finish()
        }
    }

    /// A source's or gate's checkpoint, with what it queued; an
    /// interior cuts on tokens.
    fn checkpoint(&mut self, epoch: EpochId) -> Outbox {
        match &mut self.hau {
            Hau::Source { core, op, .. } => _ = core.checkpoint_operator(epoch, op.as_mut()),
            Hau::Gate(gate) => gate.checkpoint(epoch),
            Hau::Interior(_) | Hau::Done => {}
        }
        self.take_outbox()
    }

    fn take_outbox(&mut self) -> Outbox {
        match &mut self.hau {
            Hau::Interior(core) => core.take_outbox(),
            Hau::Source { core, .. } => core.take_outbox(),
            Hau::Gate(gate) => gate.take_outbox(),
            Hau::Done => Outbox::new(),
        }
    }

    /// Finishes the HAU, EOS queued downstream, and sends its exit
    /// record as an [`Event::Exit`]; the cell stays as a tombstone.
    /// Returns the last of the HAU's outbox.
    fn finish(&mut self) -> Outbox {
        let (exit, outbox) = match mem::replace(&mut self.hau, Hau::Done) {
            Hau::Interior(core) => core.finish(),
            Hau::Source { core, op, .. } => core.finish(op),
            Hau::Gate(gate) => gate.finish(),
            Hau::Done => return Outbox::new(),
        };
        self.inbox = VecDeque::new();
        let generation = self.generation;
        let _ = self.exits.send(Event::Exit { generation, exit });
        outbox
    }
}

/// Input `port` of the cell at index `at` of its generation's cell
/// list.
#[derive(Clone, Copy)]
pub(crate) struct CellPort {
    pub(crate) at: usize,
    pub(crate) port: u32,
}

/// What one outbox address of a generation names.
pub(crate) enum Target {
    /// A colocated consumer's input.
    Cell(CellPort),
    /// An outbound connection to a consumer on another worker.
    Egress(EgressBuf),
}

/// One deployed generation, as the worker builds it and the I/O thread
/// owns it.
#[derive(Default)]
pub(crate) struct Gen {
    pub(crate) generation: u64,
    /// The local cells, producers first.
    pub(crate) cells: Vec<HostCell>,
    /// What each outbox address names: an address is an index here.
    pub(crate) targets: Vec<Target>,
    /// `(producer op, consumer op)` → the consumer's input, for the
    /// streams other workers open.
    pub(crate) ingress: HashMap<(u32, u32), CellPort>,
    /// Every HAU's telemetry meter, sampled into each heartbeat.
    pub(crate) ops: Vec<(OperatorId, Arc<OperatorMeter>)>,
    /// The ingestion gates' meters, sampled into each heartbeat.
    pub(crate) gates: Vec<(OperatorId, Arc<GateMeter>)>,
}

impl Gen {
    /// One beat: the generation, its interiors' summed gauges and every
    /// operator and gate sample, in one message.
    fn heartbeat(&self) -> WireMsg {
        let gauges = self.cells.iter().filter_map(|c| match &c.hau {
            Hau::Interior(core) => Some(core.backpressure()),
            _ => None,
        });
        WireMsg::Heartbeat {
            generation: self.generation,
            gauges: gauges.fold(BackpressureGauges::default(), |acc, g| acc.merge(&g)),
            ops: self.ops.iter().map(|(op, m)| (*op, m.sample())).collect(),
            gates: self.gates.iter().map(|(op, g)| (*op, g.sample())).collect(),
        }
    }

    /// The delivery routine: each message goes into a colocated
    /// consumer's inbox or onto an outbound connection, in outbox
    /// order.
    fn deliver(&mut self, outbox: Outbox) {
        for (addr, msg) in outbox {
            match &mut self.targets[addr as usize] {
                Target::Cell(to) => self.cells[to.at].push(to.port, msg),
                Target::Egress(buf) => buf.push(msg),
            }
        }
    }

    /// Runs `f` on every cell in list order, delivering each cell's
    /// outbox before the next cell runs.
    fn visit(&mut self, mut f: impl FnMut(&mut HostCell) -> Outbox) {
        for at in 0..self.cells.len() {
            let outbox = f(&mut self.cells[at]);
            self.deliver(outbox);
        }
    }

    /// Finishes every cell, discarding what each would still send, and
    /// drops the generation's connections.
    fn tear(mut self) {
        for cell in &mut self.cells {
            cell.finish();
        }
    }
}

/// Visits every cell of `gen` once, in list order, delivering what each
/// emits before the next one runs. Cells are listed producers first
/// (sources and gates lead), so a batch a cell emits to a colocated
/// consumer is applied later in the same pass. An interior applies its
/// inbox unless `lagging` behind producer input, one message at a
/// time: each message's emissions are delivered (encoded, for a remote
/// consumer) before the next is applied, so a long inbox never holds a
/// whole visit's output decoded.
fn run_cells(gen: &mut Gen, now: Instant, lagging: bool) {
    for at in 0..gen.cells.len() {
        if !lagging {
            gen.cells[at].publish_backpressure();
            while let Some(outbox) = gen.cells[at].apply_next() {
                gen.deliver(outbox);
            }
        }
        let outbox = gen.cells[at].step(now);
        gen.deliver(outbox);
    }
}

// ---------------- source pacing ----------------

/// A paced source's tick schedule, a function of the instants its
/// caller passes in. Each deadline advances one period from the
/// previous one, never from the turn that ran it: a late turn runs
/// every tick it missed and the rate never drifts.
pub(crate) struct Pace {
    period: Duration,
    next: Instant,
}

impl Pace {
    /// The first tick is due one period after `now`.
    pub(crate) fn new(period: Duration, now: Instant) -> Pace {
        Pace {
            period,
            next: now + period,
        }
    }

    /// The ticks due at `now` — every deadline not after it, at most
    /// [`MAX_TICKS_PER_TURN`] — advancing past each one counted.
    fn due(&mut self, now: Instant) -> u32 {
        let mut ticks = 0;
        while ticks < MAX_TICKS_PER_TURN && self.next <= now {
            self.next += self.period;
            ticks += 1;
        }
        ticks
    }
}

/// The poll timeout for a turn: whole ms to the nearest deadline,
/// rounded up (poll(2) waits no less), 0 once one has passed.
fn poll_timeout_ms<'a>(paces: impl IntoIterator<Item = &'a Pace>, now: Instant) -> i32 {
    let wait = paces.into_iter().map(|p| p.next - p.next.min(now)).min();
    let us = wait.map_or(u128::MAX, |w| w.as_micros());
    us.div_ceil(1000).min(i32::MAX as u128) as i32
}

// ---------------- the I/O thread ----------------

/// What the worker's main thread hears, on one channel in arrival order:
/// control messages and HAU exits from here, the persister's outcomes.
pub(crate) enum Event {
    /// One message off the control connection; `Ok(None)` once it
    /// closed cleanly, `Err` once it failed. Either is the last.
    Control(Result<Option<WireMsg>>),
    /// A generation's persister wrote one checkpoint: the store's
    /// verdict, and the operator's meter sampled after the write.
    Durable {
        generation: u64,
        epoch: EpochId,
        op: OperatorId,
        outcome: Result<bool>,
        sample: Option<OperatorSample>,
    },
    /// A HAU of `generation` finished.
    Exit { generation: u64, exit: HostExit },
}

/// Commands the worker sends the I/O thread (paired with a
/// [`Waker::wake`] so a blocked poll picks them up immediately).
pub(crate) enum IoCmd {
    /// Adopt a generation: its cells, its target table with the
    /// outbound connections in it (nonblocking, hello already sent) and
    /// its ingress routes. Delivers what the cells queued while they
    /// were built (a recovering source's replay), then resolves any
    /// pending streams that connected before the assignment arrived.
    Deploy(Gen),
    /// Checkpoint every source and gate of `generation`.
    Checkpoint {
        /// Generation the checkpoint belongs to.
        generation: u64,
        /// The epoch to cut.
        epoch: EpochId,
    },
    /// Finish every source, gate and cell and drop every connection and
    /// route of generations `<= generation`. Streams still awaiting
    /// their hello are kept and checked against the raised floor when
    /// the hello arrives.
    Tear {
        /// Highest generation to tear down.
        generation: u64,
    },
    /// Exit the I/O thread, dropping all state.
    Stop,
}

#[derive(Clone, Copy)]
enum IngressState {
    /// Connected, hello not yet read.
    AwaitHello,
    /// Hello read, but the route table for its generation has not
    /// arrived: no read interest (TCP backpressure) until
    /// [`IoCmd::Deploy`] resolves it.
    Pending { generation: u64, from: u32, to: u32 },
    /// Streaming into a consumer inbox. `from`/`to` identify the edge
    /// for per-edge fault injection.
    Routed {
        generation: u64,
        from: u32,
        to: u32,
        dest: CellPort,
    },
}

struct IngressConn {
    stream: TcpStream,
    decoder: FrameDecoder,
    state: IngressState,
}

struct Io {
    listener: TcpListener,
    waker: Waker,
    cmds: Receiver<IoCmd>,
    events: Sender<Event>,
    /// The control connection's read side; `None` once it closed.
    control: Option<(TcpStream, FrameDecoder)>,
    heartbeat: EgressBuf,
    /// When the next beat is due.
    beat: Pace,
    ingress: Vec<IngressConn>,
    /// Every deployed generation, oldest first.
    gens: Vec<Gen>,
    /// Generations below this are stale; hellos for them are dropped.
    min_gen: u64,
    /// Deterministic fault injection consulted once per routed ingress
    /// frame (chaos runs only; `None` in production).
    plan: Option<FaultPlan>,
}

/// What one poll entry refers to this iteration.
#[derive(Clone, Copy)]
enum Slot {
    Waker,
    Listener,
    Control,
    Ingress(usize),
    /// A blocked egress or heartbeat socket; the write pass retries it.
    Egress,
    /// Poll entry `entry` of the gate at `gens[gen].cells[at]`.
    Gate {
        gen: usize,
        at: usize,
        entry: usize,
    },
}

/// Spawns the I/O thread over the worker's connections, which it owns
/// for the worker's life: the data-plane `listener` and the
/// `heartbeat` connection (its hello sent), both nonblocking, and a
/// handle on the `control` connection, which it only reads — main
/// writes it with blocking writes. `waker` must be the one written
/// after every send on `cmds`; control messages and exits go out on
/// `events`.
pub(crate) fn spawn_io(
    listener: TcpListener,
    control: TcpStream,
    heartbeat: TcpStream,
    waker: Waker,
    cmds: Receiver<IoCmd>,
    events: Sender<Event>,
    plan: Option<FaultPlan>,
) -> JoinHandle<()> {
    thread::Builder::new()
        .name("ms-io".into())
        .spawn(move || {
            let mut io = Io {
                listener,
                waker,
                cmds,
                events,
                control: Some((control, FrameDecoder::new())),
                heartbeat: EgressBuf::new(heartbeat),
                beat: Pace::new(HEARTBEAT_INTERVAL, Instant::now()),
                ingress: Vec::new(),
                gens: Vec::new(),
                min_gen: 0,
                plan,
            };
            io.run();
        })
        .expect("spawn io thread")
}

impl Io {
    /// One turn per pass: read the ready sockets, apply commands, visit
    /// the cells, beat when due, write the egress and heartbeat queues.
    fn run(&mut self) {
        // Since when the interior cells have waited behind producer input.
        let mut lag: Option<Instant> = None;
        loop {
            let (targets, slots) = self.build_poll_set();
            let cells = self.gens.iter().flat_map(|gen| &gen.cells);
            let paces = cells.filter_map(|c| match &c.hau {
                Hau::Source { pace, .. } => Some(pace),
                _ => None,
            });
            let mut timeout = poll_timeout_ms(paces.chain([&self.beat]), Instant::now());
            if lag.is_some() {
                timeout = timeout.min(QUIET_MS);
            }
            let produced = poll(&targets, timeout).is_ok_and(|r| self.read_ready(r, &slots));
            if !self.drain_cmds() {
                return;
            }
            let now = Instant::now();
            lag = produced
                .then(|| lag.unwrap_or(now))
                .filter(|since| now.duration_since(*since) < MAX_APPLY_LAG);
            for gen in &mut self.gens {
                run_cells(gen, now, lag.is_some());
            }
            if self.beat.due(now) > 0 {
                let newest = self.gens.last();
                let beat = newest.map_or_else(|| Gen::default().heartbeat(), Gen::heartbeat);
                self.heartbeat.replace(&beat);
            }
            for target in self.gens.iter_mut().flat_map(|gen| &mut gen.targets) {
                if let Target::Egress(buf) = target {
                    buf.write();
                }
            }
            self.heartbeat.write();
        }
    }

    /// Handles one poll's readiness; `true` if a gate read producer
    /// input.
    fn read_ready(&mut self, ready: Vec<ReadyEvent>, slots: &[Slot]) -> bool {
        let mut dead: Vec<usize> = Vec::new();
        let mut produced = false;
        for ev in ready {
            match slots[ev.token] {
                Slot::Waker => self.waker.drain(),
                Slot::Listener => self.accept_ready(),
                Slot::Control => self.control_ready(),
                Slot::Ingress(i) => {
                    if ev.readable && !self.ingress_ready(i) {
                        dead.push(i);
                    }
                }
                Slot::Egress => {}
                Slot::Gate { gen, at, entry } => {
                    if let Hau::Gate(gate) = &mut self.gens[gen].cells[at].hau {
                        produced |= ev.readable;
                        gate.on_ready(entry, &ev);
                    }
                }
            }
        }
        // Drop dead connections, highest index first so the remaining
        // indices stay valid.
        dead.sort_unstable_by(|a, b| b.cmp(a));
        for i in dead {
            self.ingress.swap_remove(i);
        }
        produced
    }

    /// Applies queued commands; `false` means Stop.
    fn drain_cmds(&mut self) -> bool {
        while let Ok(cmd) = self.cmds.try_recv() {
            match cmd {
                IoCmd::Deploy(mut gen) => {
                    if gen.generation < self.min_gen {
                        gen.tear();
                        continue;
                    }
                    // A recovering source's replay goes out first.
                    gen.visit(HostCell::take_outbox);
                    // Resolve streams that connected ahead of the
                    // assignment. Frames already buffered (bytes that
                    // rode in with the hello) flow now; the socket
                    // itself is picked up by the next poll, which is
                    // level-triggered.
                    let plan = &mut self.plan;
                    self.ingress.retain_mut(|conn| {
                        let IngressState::Pending {
                            generation,
                            from,
                            to,
                        } = conn.state
                        else {
                            return true;
                        };
                        let dest = gen.ingress.get(&(from, to));
                        let Some(&dest) = dest.filter(|_| generation == gen.generation) else {
                            return true;
                        };
                        conn.state = IngressState::Routed {
                            generation,
                            from,
                            to,
                            dest,
                        };
                        drain_frames(conn, &mut gen, plan.as_mut())
                    });
                    self.gens.push(gen);
                }
                IoCmd::Checkpoint { generation, epoch } => {
                    for gen in self.gens.iter_mut().filter(|g| g.generation == generation) {
                        gen.visit(|cell| cell.checkpoint(epoch));
                    }
                }
                IoCmd::Tear { generation } => {
                    self.min_gen = self.min_gen.max(generation + 1);
                    self.ingress.retain(|c| match c.state {
                        IngressState::AwaitHello => true,
                        IngressState::Pending { generation: g, .. }
                        | IngressState::Routed { generation: g, .. } => g > generation,
                    });
                    let (torn, live): (Vec<Gen>, Vec<Gen>) = mem::take(&mut self.gens)
                        .into_iter()
                        .partition(|gen| gen.generation <= generation);
                    self.gens = live;
                    for gen in torn {
                        gen.tear();
                    }
                }
                IoCmd::Stop => return false,
            }
        }
        true
    }

    fn build_poll_set(&self) -> (Vec<(PollTarget, usize, Interest)>, Vec<Slot>) {
        let mut targets = Vec::with_capacity(2 + self.ingress.len());
        let mut slots = Vec::with_capacity(targets.capacity());
        let mut add = |fd: PollTarget, slot: Slot, want: Interest| {
            targets.push((fd, slots.len(), want));
            slots.push(slot);
        };
        add(self.waker.fd(), Slot::Waker, Interest::READ);
        add(self.listener.as_raw_fd(), Slot::Listener, Interest::READ);
        if let Some((stream, _)) = &self.control {
            add(stream.as_raw_fd(), Slot::Control, Interest::READ);
        }
        if let Some(fd) = self.heartbeat.blocked_fd() {
            add(fd, Slot::Egress, Interest::WRITE);
        }
        for (i, c) in self.ingress.iter().enumerate() {
            // Pending streams keep no read interest: the bytes wait in
            // the socket (and eventually the peer's send buffer) until
            // the route arrives. Hangup is still reported.
            let want = match c.state {
                IngressState::Pending { .. } => Interest::default(),
                _ => Interest::READ,
            };
            add(c.stream.as_raw_fd(), Slot::Ingress(i), want);
        }
        for (g, gen) in self.gens.iter().enumerate() {
            for target in &gen.targets {
                if let Target::Egress(buf) = target {
                    if let Some(fd) = buf.blocked_fd() {
                        add(fd, Slot::Egress, Interest::WRITE);
                    }
                }
            }
            for (at, c) in gen.cells.iter().enumerate() {
                if let Hau::Gate(gate) = &c.hau {
                    for (entry, (fd, want)) in gate.poll_entries().enumerate() {
                        add(fd, Slot::Gate { gen: g, at, entry }, want);
                    }
                }
            }
        }
        (targets, slots)
    }

    /// Reads the control connection once — poll reported it readable,
    /// so the read does not block — and forwards every whole message,
    /// then a close or failure, which ends the connection.
    fn control_ready(&mut self) {
        let Some((stream, decoder)) = &mut self.control else {
            return;
        };
        let mut scratch = [0u8; READ_CHUNK];
        let mut last = match stream.read(&mut scratch) {
            Ok(0) if decoder.buffered() == 0 => Some(Ok(None)),
            Ok(0) => Some(Err(Error::Wire("torn frame at control EOF".into()))),
            Ok(n) => {
                decoder.feed(&scratch[..n]);
                None
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => None,
            Err(e) => Some(Err(e.into())),
        };
        while let Some(msg) = decoder.next_frame().transpose() {
            match msg.and_then(|f| WireMsg::decode(&f)) {
                Ok(msg) => _ = self.events.send(Event::Control(Ok(Some(msg)))),
                Err(e) => {
                    last = Some(Err(e));
                    break;
                }
            }
        }
        if let Some(last) = last {
            let _ = self.events.send(Event::Control(last));
            self.control = None;
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    self.ingress.push(IngressConn {
                        stream,
                        decoder: FrameDecoder::new(),
                        state: IngressState::AwaitHello,
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Reads one ready ingress socket to `WouldBlock` and pushes the
    /// decoded frames along. `false` = connection finished (clean Eos)
    /// or failed (bare close / torn frame / protocol violation); in
    /// the failure case no Eos is delivered — see module docs.
    fn ingress_ready(&mut self, i: usize) -> bool {
        if matches!(self.ingress[i].state, IngressState::Pending { .. }) {
            // Only hangup gets us here for a pending stream; check
            // whether the peer is really gone without consuming data.
            let mut probe = [0u8; 1];
            return !matches!(self.ingress[i].stream.peek(&mut probe), Ok(0) | Err(_));
        }
        let mut scratch = [0u8; READ_CHUNK];
        loop {
            // Re-borrowed each pass: `advance` needs `&mut self`.
            let conn = &mut self.ingress[i];
            match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    // EOF: process what we have, then drop. A stream
                    // that ended without Eos is a peer failure — the
                    // consumer's input stays open and silent.
                    self.drain(i);
                    return false;
                }
                Ok(n) => {
                    conn.decoder.feed(&scratch[..n]);
                    if !self.advance(i) {
                        return false;
                    }
                    if n < READ_CHUNK {
                        return true;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// Advances one ingress connection's state machine over its
    /// buffered frames. `false` = drop the connection.
    fn advance(&mut self, i: usize) -> bool {
        let conn = &mut self.ingress[i];
        if let IngressState::AwaitHello = conn.state {
            let frame = match conn.decoder.next_frame() {
                Ok(Some(f)) => f,
                Ok(None) => return true,
                Err(_) => return false,
            };
            let (generation, from, to) = match WireMsg::decode(&frame) {
                Ok(WireMsg::StreamHello {
                    generation,
                    from,
                    to,
                }) => (generation, from.0, to.0),
                _ => return false,
            };
            if generation < self.min_gen {
                return false;
            }
            let gen = self.gens.iter().find(|gen| gen.generation == generation);
            conn.state = match gen.and_then(|gen| gen.ingress.get(&(from, to))) {
                Some(&dest) => IngressState::Routed {
                    generation,
                    from,
                    to,
                    dest,
                },
                None => IngressState::Pending {
                    generation,
                    from,
                    to,
                },
            };
        }
        self.drain(i)
    }

    /// Delivers the buffered frames of ingress connection `i` if it is
    /// routed; `false` = drop the connection.
    fn drain(&mut self, i: usize) -> bool {
        let conn = &mut self.ingress[i];
        let IngressState::Routed { generation, .. } = conn.state else {
            return true;
        };
        match self
            .gens
            .iter_mut()
            .find(|gen| gen.generation == generation)
        {
            Some(gen) => drain_frames(conn, gen, self.plan.as_mut()),
            None => false,
        }
    }
}

/// Decodes every buffered frame of a routed stream into its consumer's
/// inbox in `gen`. `false` = the connection should be dropped (Eos
/// delivered, decode failure, or an injected fault severed the edge).
///
/// With a fault `plan`, every frame consults the per-edge rules first.
/// A severed edge kills the connection *without* an Eos,
/// indistinguishable from a switch failure: under the fail-stop model
/// a frame may never be skipped on a connection that lives on.
fn drain_frames(conn: &mut IngressConn, gen: &mut Gen, mut plan: Option<&mut FaultPlan>) -> bool {
    let IngressState::Routed {
        generation,
        from,
        to,
        dest,
    } = conn.state
    else {
        return true;
    };
    let cell = &mut gen.cells[dest.at];
    loop {
        let frame = match conn.decoder.next_frame() {
            Ok(Some(f)) => f,
            Ok(None) => return true,
            Err(_) => return false,
        };
        if plan
            .as_deref_mut()
            .is_some_and(|plan| plan.on_frame(generation, from, to))
        {
            return false;
        }
        let msg = match WireMsg::decode(&frame) {
            // Batch-decode: the whole run becomes one shared slice and
            // one inbox push, which the cell applies in one visit
            // instead of one per tuple. The fault
            // plan above was consulted once for the frame, i.e. once
            // per batch: injected faults stay frame-granular.
            Ok(WireMsg::TupleBatch(ts)) => HostMsg::DataBatch(ts.into()),
            Ok(WireMsg::Token(e)) => HostMsg::Token(e),
            Ok(WireMsg::Eos) => {
                cell.push(dest.port, HostMsg::Eos);
                return false;
            }
            _ => return false,
        };
        cell.push(dest.port, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::send_msg;
    use ms_core::gate::{GateConfig, GateMsg};
    use ms_core::ids::OperatorId;
    use ms_core::ids::PortId;
    use ms_core::operator::{OperatorContext, OperatorSnapshot, SnapshotPayload};
    use ms_core::tuple::Tuple;
    use ms_core::value::Value;
    use ms_gate::{GateMeter, GateWiring};
    use ms_live::{
        CountSource, Doubler, FsStore, HostWiring, OutputRoute, PersistItem, StableStore,
    };
    use std::io::Write;
    use std::sync::mpsc::channel;
    use std::sync::Arc;

    /// A sink that sums Int fields (local stand-in for apps::Summer
    /// without the crate cycle).
    #[derive(Default)]
    struct Sum(i64);
    impl Operator for Sum {
        fn kind(&self) -> &'static str {
            "TestSum"
        }
        fn on_tuple(&mut self, _port: PortId, t: Tuple, _ctx: &mut dyn OperatorContext) {
            for f in t.fields.iter() {
                if let Value::Int(v) = f {
                    self.0 += v;
                }
            }
        }
        fn state_size(&self) -> u64 {
            8
        }
        fn snapshot(&self) -> OperatorSnapshot {
            OperatorSnapshot {
                data: self.0.to_le_bytes().to_vec(),
                logical_bytes: 8,
            }
        }
        fn restore(&mut self, snap: &OperatorSnapshot) -> ms_core::error::Result<()> {
            self.0 = sum_of(snap);
            Ok(())
        }
    }

    fn sum_of(snap: &OperatorSnapshot) -> i64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&snap.data);
        i64::from_le_bytes(b)
    }

    fn recv_within<T>(rx: &Receiver<T>, d: Duration) -> Option<T> {
        rx.recv_timeout(d).ok()
    }

    /// The exit record a cell sent on `rx`, if one comes within `d`.
    fn exit_within(rx: &Receiver<Event>, d: Duration) -> Option<HostExit> {
        match recv_within(rx, d)? {
            Event::Exit { exit, .. } => Some(exit),
            _ => panic!("a cell sends only its exit"),
        }
    }

    fn tuple(seq: u64, v: i64) -> Tuple {
        Tuple::new(
            OperatorId(0),
            seq,
            ms_core::time::SimTime::ZERO,
            vec![Value::Int(v)],
        )
    }

    /// Everything a test needs to drive one single-input cell: the
    /// cell itself, its exit channel and the checkpoints it captured.
    struct CellRig {
        cell: HostCell,
        exit_rx: Receiver<Event>,
        persisted: Receiver<PersistItem>,
    }

    fn cell(op_id: u32, op: Box<dyn Operator>, outputs: Vec<OutputRoute>) -> CellRig {
        let (ptx, persisted) = channel::<PersistItem>();
        let wiring = HostWiring {
            op_id: OperatorId(op_id),
            op,
            outputs,
            restored_seq: 0,
            resume_seq: Vec::new(),
            last_durable: None,
            telemetry: None,
        };
        let core = InteriorCore::new(wiring, 1, ptx);
        let (exit_tx, exit_rx) = channel();
        CellRig {
            cell: HostCell::new(1, Hau::Interior(core), exit_tx),
            exit_rx,
            persisted,
        }
    }

    fn sink_cell() -> CellRig {
        cell(1, Box::<Sum>::default(), Vec::new())
    }

    /// Input 0 of the cell at `at`.
    fn input(at: usize) -> CellPort {
        CellPort { at, port: 0 }
    }

    /// Generation 1 over `cells`, with its target table and the
    /// `(producer, consumer)` streams routed in.
    fn generation(
        cells: Vec<HostCell>,
        targets: Vec<Target>,
        ingress: impl IntoIterator<Item = ((u32, u32), CellPort)>,
    ) -> Gen {
        Gen {
            generation: 1,
            cells,
            targets,
            ingress: ingress.into_iter().collect(),
            ..Gen::default()
        }
    }

    /// Two ends of one loopback connection.
    fn pair() -> (TcpStream, TcpStream) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let near = TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let (far, _) = l.accept().unwrap();
        (near, far)
    }

    /// The controller's ends of an I/O thread's control and heartbeat
    /// connections, and the thread's event channel.
    struct Peers {
        _control: TcpStream,
        heartbeat: TcpStream,
        _events: Receiver<Event>,
    }

    /// Starts an I/O thread on a fresh loopback listener, beating into
    /// `heartbeat`; returns its address, command queue, waker, handle
    /// and far ends.
    fn io_thread_beating_into(
        heartbeat: (TcpStream, TcpStream),
    ) -> (String, Sender<IoCmd>, Waker, JoinHandle<()>, Peers) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        listener.set_nonblocking(true).unwrap();
        heartbeat.0.set_nonblocking(true).unwrap();
        let (control, controller) = pair();
        let waker = Waker::new().unwrap();
        let (cmd_tx, cmd_rx) = channel();
        let (events, events_rx) = channel();
        let near = heartbeat.0;
        let io = spawn_io(listener, control, near, waker.clone(), cmd_rx, events, None);
        let peers = Peers {
            _control: controller,
            heartbeat: heartbeat.1,
            _events: events_rx,
        };
        (addr, cmd_tx, waker, io, peers)
    }

    fn io_thread() -> (String, Sender<IoCmd>, Waker, JoinHandle<()>, Peers) {
        io_thread_beating_into(pair())
    }

    fn command(cmds: &Sender<IoCmd>, waker: &Waker, cmd: IoCmd) {
        assert!(cmds.send(cmd).is_ok());
        waker.wake();
    }

    fn hello(peer: &mut TcpStream, to: u32) {
        send_msg(
            peer,
            &WireMsg::StreamHello {
                generation: 1,
                from: OperatorId(0),
                to: OperatorId(to),
            },
        )
        .unwrap();
    }

    #[test]
    fn cell_applies_batches_and_finishes_on_eos() {
        let CellRig {
            mut cell, exit_rx, ..
        } = sink_cell();
        for v in 0..100i64 {
            cell.push(0, HostMsg::DataBatch([tuple(v as u64, v)].into()));
        }
        cell.push(0, HostMsg::Token(EpochId(1)));
        cell.push(0, HostMsg::Eos);
        let mut gen = generation(vec![cell], Vec::new(), []);
        run_cells(&mut gen, Instant::now(), false);
        assert!(
            matches!(gen.cells[0].hau, Hau::Done),
            "a cell at Eos is a tombstone after the pass"
        );
        let exit = exit_within(&exit_rx, Duration::from_secs(5)).unwrap();
        assert!(exit.error.is_none());
        assert_eq!(sum_of(&exit.op.snapshot()), (0..100).sum::<i64>());
        // A finished cell discards further input.
        gen.cells[0].push(0, HostMsg::Eos);
        assert!(gen.cells[0].inbox.is_empty());
    }

    #[test]
    fn one_pass_carries_batches_a_token_and_eos_through_a_colocated_chain() {
        // doubler --inbox--> doubler --inbox--> sink, fed by hand: one
        // run_cells call, no I/O thread, no socket.
        const N: i64 = 300;
        const BEFORE_TOKEN: i64 = 120;
        let first = cell(1, Box::<Doubler>::default(), vec![OutputRoute::single(0)]);
        let second = cell(2, Box::<Doubler>::default(), vec![OutputRoute::single(1)]);
        let sink = cell(3, Box::<Sum>::default(), Vec::new());
        let mut head = first.cell;
        let batch =
            |vs: std::ops::Range<i64>| HostMsg::DataBatch(vs.map(|v| tuple(v as u64, v)).collect());
        for lo in (0..BEFORE_TOKEN).step_by(40) {
            head.push(0, batch(lo..lo + 40));
        }
        head.push(0, HostMsg::Token(EpochId(1)));
        for lo in (BEFORE_TOKEN..N).step_by(60) {
            head.push(0, batch(lo..lo + 60));
        }
        head.push(0, HostMsg::Eos);
        let targets = vec![Target::Cell(input(1)), Target::Cell(input(2))];
        let mut gen = generation(vec![head, second.cell, sink.cell], targets, []);
        run_cells(&mut gen, Instant::now(), false);

        // Every cell finished in that one pass: Σ 4v over 0..N at the
        // sink, closed by the Eos that followed the data down.
        assert!(gen.cells.iter().all(|c| matches!(c.hau, Hau::Done)));
        assert!(first.exit_rx.try_recv().is_ok());
        assert!(second.exit_rx.try_recv().is_ok());
        let exit = exit_within(&sink.exit_rx, Duration::ZERO).unwrap();
        assert!(exit.error.is_none());
        assert_eq!(sum_of(&exit.op.snapshot()), 2 * N * (N - 1));
        // The token reached the sink behind exactly the tuples sent
        // before it.
        let cut = sink.persisted.try_recv().unwrap();
        assert_eq!(cut.epoch, EpochId(1));
        assert_eq!(cut.resume_seq, vec![BEFORE_TOKEN as u64]);
    }

    #[test]
    fn queue_gauge_counts_tuples_not_inbox_messages() {
        let CellRig { mut cell, .. } = sink_cell();
        let tup = |seq: u64| tuple(seq, 1);
        // Four inbox messages carrying 1 + 3 + 0 + 2 tuples; one
        // visit drains exactly this inbox.
        cell.push(0, HostMsg::DataBatch([tup(0)].into()));
        cell.push(0, HostMsg::DataBatch((1..4).map(tup).collect()));
        cell.push(0, HostMsg::Token(EpochId(1)));
        cell.push(0, HostMsg::DataBatch((4..6).map(tup).collect()));
        let mut gen = generation(vec![cell], Vec::new(), []);
        run_cells(&mut gen, Instant::now(), false);
        assert!(matches!(gen.cells[0].hau, Hau::Interior(_)));
        let WireMsg::Heartbeat { gauges, .. } = gen.heartbeat() else {
            unreachable!("a beat is a Heartbeat");
        };
        assert_eq!(gauges.queued_tuples, 6);
    }

    #[test]
    fn torn_cell_flushes_exit_without_traffic() {
        let (_, cmds, waker, io, _peers) = io_thread();
        let CellRig { cell, exit_rx, .. } = sink_cell();
        let gen = generation(vec![cell], Vec::new(), []);
        command(&cmds, &waker, IoCmd::Deploy(gen));
        command(&cmds, &waker, IoCmd::Tear { generation: 1 });
        let exit = exit_within(&exit_rx, Duration::from_secs(5)).unwrap();
        assert_eq!(exit.op_id, OperatorId(1));
        command(&cmds, &waker, IoCmd::Stop);
        io.join().unwrap();
    }

    #[test]
    fn io_thread_runs_a_socket_fed_chain_of_colocated_cells() {
        // peer --socket--> doubler cell --inbox--> sink cell, both
        // cells on the one I/O thread.
        const N: i64 = 300;
        const BEFORE_TOKEN: i64 = 120;
        let (addr, cmds, waker, io, _peers) = io_thread();
        let sink = cell(2, Box::<Sum>::default(), Vec::new());
        let doubler = cell(1, Box::<Doubler>::default(), vec![OutputRoute::single(0)]);
        let gen = generation(
            vec![doubler.cell, sink.cell],
            vec![Target::Cell(input(1))],
            [((0, 1), input(0))],
        );
        command(&cmds, &waker, IoCmd::Deploy(gen));

        let mut peer = TcpStream::connect(addr).unwrap();
        hello(&mut peer, 1);
        let batch = |vs: std::ops::Range<i64>| {
            WireMsg::TupleBatch(vs.map(|v| tuple(v as u64, v)).collect())
        };
        for lo in (0..BEFORE_TOKEN).step_by(40) {
            send_msg(&mut peer, &batch(lo..lo + 40)).unwrap();
        }
        send_msg(&mut peer, &WireMsg::Token(EpochId(1))).unwrap();
        for lo in (BEFORE_TOKEN..N).step_by(60) {
            send_msg(&mut peer, &batch(lo..lo + 60)).unwrap();
        }
        send_msg(&mut peer, &WireMsg::Eos).unwrap();

        // Σ 2v over 0..N, and the doubler closes the sink with its Eos.
        let exit = exit_within(&sink.exit_rx, Duration::from_secs(5)).unwrap();
        assert!(exit.error.is_none());
        assert_eq!(sum_of(&exit.op.snapshot()), N * (N - 1));
        assert!(exit_within(&doubler.exit_rx, Duration::from_secs(5)).is_some());
        // The token reached the sink behind exactly the batches sent
        // before it: its epoch-1 cut holds Σ 2v over 0..BEFORE_TOKEN.
        let cut = recv_within(&sink.persisted, Duration::from_secs(5)).unwrap();
        assert_eq!(cut.epoch, EpochId(1));
        assert_eq!(cut.resume_seq, vec![BEFORE_TOKEN as u64]);
        match cut.snapshot.resolve() {
            SnapshotPayload::Full(s) => {
                assert_eq!(sum_of(&s), BEFORE_TOKEN * (BEFORE_TOKEN - 1))
            }
            SnapshotPayload::Delta(_) => panic!("Sum captures full snapshots"),
        }
        command(&cmds, &waker, IoCmd::Stop);
        io.join().unwrap();
    }

    #[test]
    fn io_routes_stream_even_when_hello_races_routes() {
        // Connect and send the hello BEFORE the route table is
        // installed: the stream must park as Pending and resolve on
        // IoCmd::Deploy, with no data lost.
        let (addr, cmds, waker, io, _peers) = io_thread();
        let mut peer = TcpStream::connect(addr).unwrap();
        hello(&mut peer, 1);
        for v in 0..10i64 {
            send_msg(&mut peer, &WireMsg::TupleBatch(vec![tuple(v as u64, v)])).unwrap();
        }
        // Give the io thread time to accept and park the stream.
        std::thread::sleep(Duration::from_millis(100));

        let CellRig { cell, exit_rx, .. } = sink_cell();
        let gen = generation(vec![cell], Vec::new(), [((0, 1), input(0))]);
        command(&cmds, &waker, IoCmd::Deploy(gen));
        send_msg(&mut peer, &WireMsg::Eos).unwrap();

        let exit = exit_within(&exit_rx, Duration::from_secs(5)).unwrap();
        assert_eq!(sum_of(&exit.op.snapshot()), (0..10).sum::<i64>());

        command(&cmds, &waker, IoCmd::Stop);
        io.join().unwrap();
    }

    #[test]
    fn bare_close_does_not_deliver_eos() {
        let (addr, cmds, waker, io, _peers) = io_thread();
        let CellRig { cell, exit_rx, .. } = sink_cell();
        let gen = generation(vec![cell], Vec::new(), [((0, 1), input(0))]);
        command(&cmds, &waker, IoCmd::Deploy(gen));

        let mut peer = TcpStream::connect(addr).unwrap();
        hello(&mut peer, 1);
        send_msg(&mut peer, &WireMsg::TupleBatch(vec![tuple(0, 7)])).unwrap();
        drop(peer); // crash, not Eos

        // The consumer must NOT finish: no Eos was ever sent.
        assert!(exit_within(&exit_rx, Duration::from_millis(600)).is_none());

        // Teardown still flushes the exit.
        command(&cmds, &waker, IoCmd::Tear { generation: 1 });
        let exit = exit_within(&exit_rx, Duration::from_secs(5)).unwrap();
        assert_eq!(sum_of(&exit.op.snapshot()), 7);

        command(&cmds, &waker, IoCmd::Stop);
        io.join().unwrap();
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn a_late_turn_catches_up_without_drift() {
        let t0 = Instant::now();
        let mut pace = Pace::new(ms(10), t0);
        assert_eq!(pace.due(t0 + ms(9)), 0);
        // Five ms late: the tick runs, and the next deadline is still
        // t0 + 20, not five ms after the turn that ran it.
        assert_eq!(pace.due(t0 + ms(15)), 1);
        assert_eq!(pace.next, t0 + ms(20));
        assert_eq!(pace.due(t0 + ms(19)), 0);
        assert_eq!(pace.due(t0 + ms(20)), 1);
        assert_eq!(pace.next, t0 + ms(30));
    }

    #[test]
    fn overdue_ticks_all_run_in_one_turn() {
        let t0 = Instant::now();
        let mut pace = Pace::new(ms(10), t0);
        // Deadlines 10, 20, …, 70 have passed by 75.
        assert_eq!(pace.due(t0 + ms(75)), 7);
        assert_eq!(pace.next, t0 + ms(80));
        assert_eq!(pace.due(t0 + ms(75)), 0);
        // An unpaced source runs a bounded number per turn, and is due
        // again at once.
        let mut flat = Pace::new(Duration::ZERO, t0);
        assert_eq!(flat.due(t0), MAX_TICKS_PER_TURN);
        assert_eq!(poll_timeout_ms([&flat], t0), 0);
    }

    #[test]
    fn poll_timeout_is_bounded_by_the_nearest_deadline() {
        let t0 = Instant::now();
        let (a, b) = (Pace::new(ms(10), t0), Pace::new(ms(3), t0));
        assert_eq!(poll_timeout_ms([&a, &b], t0), 3);
        // Rounded up to whole ms: 2.5 ms left waits 3, never 2.
        assert_eq!(poll_timeout_ms([&a], t0 + Duration::from_micros(7_500)), 3);
        assert_eq!(poll_timeout_ms([&a], t0 + ms(11)), 0);
        // No source, or only distant ones: the heartbeat deadline, which
        // is always in the set, is the backstop.
        let beat = Pace::new(HEARTBEAT_INTERVAL, t0);
        assert_eq!(poll_timeout_ms([&beat], t0), 50);
        let slow = Pace::new(Duration::from_secs(5), t0);
        assert_eq!(poll_timeout_ms([&slow, &beat], t0), 50);
    }

    fn temp_store(tag: &str) -> (std::path::PathBuf, Arc<FsStore>) {
        let dir = std::env::temp_dir().join(format!("ms_evloop_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(FsStore::open(dir.join("store"), 1).unwrap());
        (dir, store)
    }

    #[test]
    fn a_socket_fed_batch_is_applied_before_a_slow_sources_next_tick() {
        let (dir, store) = temp_store("paced");
        let (addr, cmds, waker, io, _peers) = io_thread();
        let downstream = cell(1, Box::<Sum>::default(), Vec::new());
        let fed = cell(2, Box::<Sum>::default(), Vec::new());
        let (persist, _) = channel();
        let route = OutputRoute::single(0);
        let core = SourceCore::new(
            OperatorId(0),
            vec![route],
            0,
            None,
            store.clone(),
            persist,
            None,
        );
        let (exit_tx, source_exit) = channel();
        let op = Box::new(CountSource::new(10));
        let pace = Pace::new(ms(200), Instant::now());
        let source = HostCell::new(1, Hau::Source { core, op, pace }, exit_tx);
        let gen = generation(
            vec![source, downstream.cell, fed.cell],
            vec![Target::Cell(input(1))],
            [((0, 2), input(2))],
        );
        command(&cmds, &waker, IoCmd::Deploy(gen));

        let mut peer = TcpStream::connect(addr).unwrap();
        hello(&mut peer, 2);
        send_msg(
            &mut peer,
            &WireMsg::TupleBatch(vec![tuple(0, 7), tuple(1, 8)]),
        )
        .unwrap();
        send_msg(&mut peer, &WireMsg::Eos).unwrap();
        // The socket ends the poll the source's deadline bounds: the
        // batch is applied and the cell done while the source, due
        // 200 ms after deploy, has not ticked once.
        let exit = exit_within(&fed.exit_rx, Duration::from_secs(5)).unwrap();
        assert_eq!(sum_of(&exit.op.snapshot()), 15);
        assert_eq!(store.preserved_tuples(), 0, "the source ticked first");
        // It does tick on its deadline.
        let deadline = Instant::now() + Duration::from_secs(5);
        while store.preserved_tuples() == 0 {
            assert!(Instant::now() < deadline, "the paced source never ticked");
            thread::sleep(ms(10));
        }

        command(&cmds, &waker, IoCmd::Tear { generation: 1 });
        assert!(exit_within(&source_exit, Duration::from_secs(5)).is_some());
        command(&cmds, &waker, IoCmd::Stop);
        io.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Writes zeros into `s` (nonblocking) until it refuses more;
    /// returns how many it took.
    fn fill(s: &TcpStream) -> usize {
        s.set_nonblocking(true).unwrap();
        let mut junk = 0;
        loop {
            match (&*s).write(&[0u8; 64 << 10]) {
                Ok(n) => junk += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return junk,
                Err(e) => panic!("filling a socket: {e}"),
            }
        }
    }

    #[test]
    fn beats_keep_their_cadence_and_a_peer_that_never_reads_holds_one() {
        let (dir, store) = temp_store("beat");
        // The heartbeat connection starts full: its far end does not
        // read, and the kernel's buffers already hold `junk` bytes.
        let (near, far) = pair();
        let junk = fill(&near);
        let (addr, cmds, waker, io, peers) = io_thread_beating_into((near, far));
        // A source ticking every 2 ms into a sink, and a socket-fed cell.
        let sink = cell(1, Box::<Sum>::default(), Vec::new());
        let fed = cell(2, Box::<Sum>::default(), Vec::new());
        let (persist, _) = channel();
        let route = OutputRoute::single(0);
        let core = SourceCore::new(
            OperatorId(0),
            vec![route],
            0,
            None,
            store.clone(),
            persist,
            None,
        );
        let (exit_tx, _source_exit) = channel();
        let op = Box::new(CountSource::new(1_000_000));
        let pace = Pace::new(ms(2), Instant::now());
        let source = HostCell::new(1, Hau::Source { core, op, pace }, exit_tx);
        let gen = generation(
            vec![source, sink.cell, fed.cell],
            vec![Target::Cell(input(1))],
            [((0, 2), input(2))],
        );
        command(&cmds, &waker, IoCmd::Deploy(gen));

        // The beats find no room, and the cells still run: the fed cell
        // applies its batch and finishes, the source keeps ticking.
        let mut peer = TcpStream::connect(addr).unwrap();
        hello(&mut peer, 2);
        send_msg(
            &mut peer,
            &WireMsg::TupleBatch(vec![tuple(0, 7), tuple(1, 8)]),
        )
        .unwrap();
        send_msg(&mut peer, &WireMsg::Eos).unwrap();
        let exit = exit_within(&fed.exit_rx, Duration::from_secs(5)).unwrap();
        assert_eq!(sum_of(&exit.op.snapshot()), 15);
        thread::sleep(ms(600));
        let ticked = store.preserved_tuples();
        assert!(ticked > 100, "the source stalled at {ticked} tuples");

        // Once the peer reads, every beat is a whole frame of this
        // generation — partial writes never tear one. The few the
        // kernel took meanwhile arrive at once, the first gap ends
        // them, and from then on a beat arrives every 50 ms.
        let mut beats = peers.heartbeat;
        beats
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        beats.read_exact(&mut vec![0u8; junk]).unwrap();
        let mut next_beat = || match crate::message::recv_msg(&mut beats).unwrap().unwrap() {
            WireMsg::Heartbeat { generation: 1, .. } => Instant::now(),
            other => panic!("unexpected {other:?} on the heartbeat connection"),
        };
        let mut last = next_beat();
        for waiting in 0.. {
            assert!(waiting < 200, "the beats never settle into a cadence");
            let at = next_beat();
            let gap = at - last;
            last = at;
            if gap >= ms(20) {
                break;
            }
        }
        let first = last;
        for _ in 0..4 {
            last = next_beat();
        }
        let span = last - first;
        assert!(
            span >= ms(120) && span < ms(500),
            "four intervals in {span:?}"
        );
        assert!(store.preserved_tuples() > ticked, "the source stopped");
        command(&cmds, &waker, IoCmd::Stop);
        io.join().unwrap();

        // The loop's queue for them, beat after beat into a socket that
        // refuses: one beat, never a backlog, and never torn down.
        let (near, _far) = pair();
        fill(&near);
        let mut queue = EgressBuf::new(near);
        let beat = Gen::default().heartbeat();
        let mut refused = false;
        for _ in 0..1000 {
            queue.replace(&beat);
            queue.write();
            refused |= !queue.frames.is_empty();
            assert!(
                queue.frames.len() <= 1,
                "{} beats queued",
                queue.frames.len()
            );
        }
        assert!(refused && queue.stream.is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn recv_ack(sock: &mut TcpStream, dec: &mut FrameDecoder) -> GateMsg {
        loop {
            if let Some(p) = dec.next_frame().unwrap() {
                return GateMsg::decode(&p).unwrap();
            }
            let mut buf = [0u8; 4096];
            let n = sock.read(&mut buf).unwrap();
            assert!(n > 0, "gate closed mid-conversation");
            dec.feed(&buf[..n]);
        }
    }

    fn batch(batch: u64, keys: std::ops::Range<u64>) -> Vec<u8> {
        let events = keys.map(|k| (k, 1)).collect();
        frame(&GateMsg::Batch { batch, events }.encode())
    }

    /// A one-producer gate cell emitting on address 0, its producer
    /// address and its exit channel.
    fn gate_cell(
        store: &Arc<FsStore>,
        persist: Sender<PersistItem>,
    ) -> (HostCell, std::net::SocketAddr, Receiver<Event>) {
        let listener = ms_gate::listen("127.0.0.1:0", None).unwrap();
        let addr = listener.local_addr().unwrap();
        let wiring = GateWiring {
            op_id: OperatorId(0),
            cfg: GateConfig {
                expected_producers: 1,
                ..GateConfig::default()
            },
            outputs: vec![OutputRoute::single(0)],
            listener,
            restored: None,
            restored_seq: 0,
            replay: Vec::new(),
            meter: Arc::new(GateMeter::new()),
            telemetry: None,
        };
        let (exit_tx, exit_rx) = channel();
        let gate = Box::new(Gate::new(wiring, store.clone(), persist));
        (HostCell::new(1, Hau::Gate(gate), exit_tx), addr, exit_rx)
    }

    #[test]
    fn a_cut_never_splits_a_group_commit() {
        let (dir, store) = temp_store("cut");
        // The gate's edge is an outbound connection this test reads.
        let edge_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let edge = TcpStream::connect(edge_listener.local_addr().unwrap()).unwrap();
        edge.set_nonblocking(true).unwrap();
        let (mut edge_rx, _) = edge_listener.accept().unwrap();
        edge_rx
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let (persist, persisted) = channel::<PersistItem>();
        let (gate, gate_addr, gate_exit) = gate_cell(&store, persist);
        let (_, cmds, waker, io, _peers) = io_thread();
        let gen = generation(vec![gate], vec![Target::Egress(EgressBuf::new(edge))], []);
        command(&cmds, &waker, IoCmd::Deploy(gen));

        let mut producer = TcpStream::connect(gate_addr).unwrap();
        let mut dec = FrameDecoder::new();
        producer
            .write_all(&frame(&GateMsg::Hello { producer: 1 }.encode()))
            .unwrap();
        producer.write_all(&batch(1, 0..3)).unwrap();
        assert_eq!(
            recv_ack(&mut producer, &mut dec),
            GateMsg::Accepted { batch: 1 }
        );
        // The checkpoint is queued without a wake and four batches
        // follow in one write: the turn their bytes end stages all four
        // and then applies the command.
        assert!(cmds
            .send(IoCmd::Checkpoint {
                generation: 1,
                epoch: EpochId(1),
            })
            .is_ok());
        let staged: Vec<u8> = (2..6).flat_map(|b| batch(b, b * 10..b * 10 + 4)).collect();
        producer.write_all(&staged).unwrap();
        for b in 2..6 {
            assert_eq!(
                recv_ack(&mut producer, &mut dec),
                GateMsg::Accepted { batch: b }
            );
        }
        // Every acked batch lies below the mark: its next_seq counts
        // all 3 + 4 × 4 tuples, and the WAL holds nothing above it.
        let cut = recv_within(&persisted, Duration::from_secs(5)).unwrap();
        assert_eq!(cut.epoch, EpochId(1));
        assert_eq!(cut.next_seq, 19);
        assert_eq!(store.preserved_tuples(), 19);
        assert!(store.replay_from(OperatorId(0), EpochId(1)).is_empty());
        // On the edge the token follows every one of those tuples.
        let mut before_token = 0;
        loop {
            match crate::message::recv_msg(&mut edge_rx).unwrap().unwrap() {
                WireMsg::TupleBatch(b) => before_token += b.len(),
                WireMsg::Token(e) => {
                    assert_eq!(e, EpochId(1));
                    break;
                }
                other => panic!("unexpected {other:?} before the token"),
            }
        }
        assert_eq!(before_token, 19);

        producer
            .write_all(&frame(&GateMsg::Fin { producer: 1 }.encode()))
            .unwrap();
        assert_eq!(recv_ack(&mut producer, &mut dec), GateMsg::FinOk);
        let exit = exit_within(&gate_exit, Duration::from_secs(5)).unwrap();
        assert!(exit.error.is_none());
        command(&cmds, &waker, IoCmd::Stop);
        io.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A sink summing field 0 whose apply takes 50 ms a tuple.
    #[derive(Default)]
    struct SlowSum(i64);
    impl Operator for SlowSum {
        fn kind(&self) -> &'static str {
            "TestSlowSum"
        }
        fn on_tuple(&mut self, _port: PortId, t: Tuple, _ctx: &mut dyn OperatorContext) {
            thread::sleep(ms(50));
            self.0 += t.field(0).and_then(Value::as_int).unwrap_or(0);
        }
        fn state_size(&self) -> u64 {
            8
        }
        fn snapshot(&self) -> OperatorSnapshot {
            Sum(self.0).snapshot()
        }
        fn restore(&mut self, snap: &OperatorSnapshot) -> ms_core::error::Result<()> {
            self.0 = sum_of(snap);
            Ok(())
        }
    }

    #[test]
    fn a_waiting_producer_is_acked_ahead_of_a_slow_apply() {
        let (dir, store) = temp_store("admit");
        let sink = cell(1, Box::<SlowSum>::default(), Vec::new());
        let (persist, _) = channel();
        let (gate, gate_addr, _) = gate_cell(&store, persist);
        let (_, cmds, waker, io, _peers) = io_thread();
        let gen = generation(vec![gate, sink.cell], vec![Target::Cell(input(1))], []);
        command(&cmds, &waker, IoCmd::Deploy(gen));
        let mut producer = TcpStream::connect(gate_addr).unwrap();
        let mut dec = FrameDecoder::new();
        producer
            .write_all(&frame(&GateMsg::Hello { producer: 1 }.encode()))
            .unwrap();
        // Stop-and-wait, like a producer awaiting each ack: every batch
        // is admitted while the sink still applies the first, not one
        // 50 ms apply after the other.
        let t0 = Instant::now();
        for b in 1..5 {
            producer.write_all(&batch(b, b..b + 1)).unwrap();
            assert_eq!(
                recv_ack(&mut producer, &mut dec),
                GateMsg::Accepted { batch: b }
            );
        }
        assert!(
            t0.elapsed() < ms(100),
            "acks waited on the apply: {:?}",
            t0.elapsed()
        );
        // And every batch is applied: the Fin closes the gate, its Eos
        // the sink.
        producer
            .write_all(&frame(&GateMsg::Fin { producer: 1 }.encode()))
            .unwrap();
        assert_eq!(recv_ack(&mut producer, &mut dec), GateMsg::FinOk);
        let exit = exit_within(&sink.exit_rx, Duration::from_secs(5)).unwrap();
        assert_eq!(sum_of(&exit.op.snapshot()), 4);
        command(&cmds, &waker, IoCmd::Stop);
        io.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
