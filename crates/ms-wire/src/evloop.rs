//! The worker's event loop: one thread — the process's main thread —
//! that multiplexes every socket of the worker, runs every HAU it
//! hosts, as an HAU of the paper is one processing thread, not one per
//! edge or operator, and owns each generation's lifecycle
//! ([`Worker::run`]):
//!
//! * It owns the data-plane listener and every data socket,
//!   nonblocking, driven by [`ms_net::ready::poll`]. Inbound frames are
//!   batch-decoded into the consuming cell's inbox (a
//!   [`WireMsg::TupleBatch`] frame lands as one inbox push for the
//!   whole run).
//! * It owns every [`HostCell`] of the generation ([`Gen`]) — an
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
//! * Each turn reads the ready sockets and acts on the control messages
//!   they brought, acks what the persister wrote, retries a deploy's
//!   refused connects when due, visits the cells in topological order
//!   (sources and gates first, so a gate's group commit lands before
//!   the interiors run and a colocated chain drains in one pass), then
//!   writes every non-empty [`EgressBuf`] with vectored writes — many
//!   frames per syscall. It blocks in poll until a socket, the
//!   persister's wake, a deadline (a source's, a connect retry's or the
//!   next heartbeat's) or cells left waiting behind producer input
//!   ([`QUIET_MS`]) need it: idle means *blocked in poll*, not sleeping
//!   in a loop.
//! * It is the only reader and the only writer of the control
//!   connection, and acts on each message where it decodes it:
//!   `Assign` tears the generation down and deploys the next
//!   ([`Deploy`]), `Checkpoint` visits the cells, `Rollback` tears
//!   down, and `Shutdown` or the connection's end stops the worker.
//!   Reports (`CkptDone`, `WorkerError`, `SinkDone`) queue on the
//!   connection's [`EgressBuf`], so a controller slow to read never
//!   blocks the loop. It is the only writer of the heartbeat
//!   connection: a beat of the generation's meters every
//!   [`HEARTBEAT_INTERVAL`], replacing one the socket has not taken.
//!   That deadline is the backstop should a wake ever be lost.
//!
//! The generation's persister is the one other thread, and the one
//! sender: each checkpoint write's outcome ([`Durable`]) crosses on a
//! channel paired with the [`Waker`].
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
//! * A teardown drops the generation's connections and routes,
//!   finishes its sources, gates and cells, discarding what they would
//!   still send, and drains its persister, before the loop acts on the
//!   next message. A torn generation reports nothing.
//!
//! Streams that arrive before their generation (the controller sends
//! assignments concurrently, so a peer can connect first) sit in a
//! *pending* state with **no read interest** — TCP backpressure holds
//! the bytes upstream — until the loop adopts the generation.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read};
use std::mem;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ms_core::codec::{frame, FrameDecoder};
use ms_core::error::{Error, Result};
use ms_core::ids::{EpochId, OperatorId};
use ms_core::metrics::{BackpressureGauges, OperatorMeter, OperatorSample};
use ms_core::operator::Operator;
use ms_gate::{Gate, GateSample};
use ms_live::{DurableHook, HostExit, HostMsg, InteriorCore, Outbox, Persister, SourceCore};
use ms_net::fault::FaultPlan;
use ms_net::ready::{poll, Interest, PollTarget, ReadyEvent, Waker};
use ms_net::vectored;

use crate::message::{encode_tuple_batch, WireMsg};
use crate::worker::{Deploy, WorkerConfig};

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

/// One outbound connection and its userspace send queue. Delivery
/// appends encoded frames; the write pass drains the queue with
/// vectored writes ([`ms_net::vectored::write_frames`], `writev(2)` on
/// unix) — many frames per syscall instead of one. The queue stays
/// unbounded until end-to-end credit bounds it (ROADMAP B): a colocated
/// gate feeds it at producer speed, and the alternative (blocking the
/// loop on a slow socket) stalls every operator of the worker.
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

    /// Queues one control-plane message: a report or a beat.
    fn send(&mut self, msg: &WireMsg) {
        if self.stream.is_some() {
            self.frames.push_back(frame(&msg.encode()));
        }
    }

    /// Queues `msg` in place of every frame not yet begun, so a
    /// heartbeat stream whose peer stops reading holds one beat, never a
    /// backlog. A frame partly written finishes first; `msg` is dropped.
    fn replace(&mut self, msg: &WireMsg) {
        if self.head == 0 {
            self.frames.clear();
        }
        if self.frames.is_empty() {
            self.send(msg);
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
    /// Finished, its exit record returned. The tombstone keeps the
    /// cell's index, its address, until the generation is torn down,
    /// and a gate's last meter reading, which the heartbeats keep
    /// carrying.
    Done(Option<(OperatorId, GateSample)>),
}

/// One HAU, owned by the loop: its state machine and its inbox (fed
/// only to interiors and sinks).
pub(crate) struct HostCell {
    hau: Hau,
    /// `(input port, message)`, in arrival order.
    inbox: VecDeque<(u32, HostMsg)>,
}

impl HostCell {
    pub(crate) fn new(hau: Hau) -> HostCell {
        HostCell {
            hau,
            inbox: VecDeque::new(),
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
    /// is at the end, and its exit record comes back with it.
    fn step(&mut self, now: Instant) -> (Outbox, Option<HostExit>) {
        let live = match &mut self.hau {
            Hau::Interior(core) => !core.is_done(),
            Hau::Source { core, op, pace } => (0..pace.due(now)).all(|_| core.tick(op.as_mut())),
            Hau::Gate(gate) => {
                gate.commit();
                gate.flush_acks();
                !gate.is_done()
            }
            Hau::Done(_) => return (Outbox::new(), None),
        };
        if live {
            return (self.take_outbox(), None);
        }
        let (exit, outbox) = self.finish().expect("a live HAU finishes");
        (outbox, Some(exit))
    }

    /// A source's or gate's checkpoint, with what it queued; an
    /// interior cuts on tokens.
    fn checkpoint(&mut self, epoch: EpochId) -> Outbox {
        match &mut self.hau {
            Hau::Source { core, op, .. } => _ = core.checkpoint_operator(epoch, op.as_mut()),
            Hau::Gate(gate) => gate.checkpoint(epoch),
            Hau::Interior(_) | Hau::Done(_) => {}
        }
        self.take_outbox()
    }

    fn take_outbox(&mut self) -> Outbox {
        match &mut self.hau {
            Hau::Interior(core) => core.take_outbox(),
            Hau::Source { core, .. } => core.take_outbox(),
            Hau::Gate(gate) => gate.take_outbox(),
            Hau::Done(_) => Outbox::new(),
        }
    }

    /// Finishes the HAU, EOS queued downstream; the cell stays as a
    /// tombstone. Returns its exit record and the last of its outbox,
    /// or `None` if it had finished.
    fn finish(&mut self) -> Option<(HostExit, Outbox)> {
        let tombstone = Hau::Done(self.gate_sample());
        let finished = match mem::replace(&mut self.hau, tombstone) {
            Hau::Interior(core) => core.finish(),
            Hau::Source { core, op, .. } => core.finish(op),
            Hau::Gate(gate) => gate.finish(),
            Hau::Done(_) => return None,
        };
        self.inbox = VecDeque::new();
        Some(finished)
    }

    /// A gate's operator and meter reading, live or kept by its
    /// tombstone.
    fn gate_sample(&self) -> Option<(OperatorId, GateSample)> {
        match &self.hau {
            Hau::Gate(gate) => Some(gate.sample()),
            Hau::Done(last) => *last,
            Hau::Interior(_) | Hau::Source { .. } => None,
        }
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

/// One deployed generation, as a [`Deploy`] builds it and the loop owns
/// it.
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
    /// The operators whose final state is reported once all exit.
    pub(crate) sinks: Vec<OperatorId>,
    /// The exit record of each HAU that finished, in order.
    pub(crate) exits: Vec<HostExit>,
    /// Writes the generation's checkpoints; `None` once drained. After
    /// the cells, which hold its senders: a drain waits for them all.
    pub(crate) persister: Option<Persister>,
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
            gates: self
                .cells
                .iter()
                .filter_map(HostCell::gate_sample)
                .collect(),
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

    /// Finishes every cell, discarding what each would still send and
    /// its exit record, then drops the generation's connections and
    /// drains its persister.
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
        let (outbox, exit) = gen.cells[at].step(now);
        gen.deliver(outbox);
        gen.exits.extend(exit);
    }
}

// ---------------- deadlines ----------------

/// A schedule of deadlines one period apart — a paced source's ticks, a
/// deploy's connect retries — a function of the instants its caller
/// passes in. Each deadline advances one period from the previous one,
/// never from the turn that ran it: a late turn runs every tick it
/// missed and the rate never drifts.
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

// ---------------- the loop ----------------

/// A generation's persister wrote one checkpoint: the store's verdict,
/// and the operator's meter sampled after the write.
pub(crate) struct Durable {
    generation: u64,
    epoch: EpochId,
    op: OperatorId,
    outcome: Result<bool>,
    sample: Option<OperatorSample>,
}

#[derive(Clone, Copy)]
enum IngressState {
    /// Connected, hello not yet read.
    AwaitHello,
    /// Hello read, but its generation has not been adopted: no read
    /// interest (TCP backpressure) until it is.
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

/// The loop's state: every socket of the worker and its generation.
pub(crate) struct Worker {
    cfg: WorkerConfig,
    listener: TcpListener,
    /// Woken by the persister hook after each outcome it sends.
    waker: Waker,
    durable_tx: Sender<Durable>,
    durable: Receiver<Durable>,
    /// The control connection's read side; `None` once it closed.
    control: Option<(TcpStream, FrameDecoder)>,
    /// Its write side: the reports.
    reports: EgressBuf,
    heartbeat: EgressBuf,
    /// When the next beat is due.
    beat: Pace,
    ingress: Vec<IngressConn>,
    /// The deployed generation. There is at most one: a deploy starts
    /// after its predecessor's teardown.
    gen: Option<Gen>,
    /// The next generation, while its outbound edges connect.
    deploy: Option<Deploy>,
    /// Generations below this are stale; hellos for them are dropped.
    min_gen: u64,
    /// Deterministic fault injection consulted once per routed ingress
    /// frame (chaos runs only; `None` in production).
    plan: Option<FaultPlan>,
    /// Since when the interior cells have waited behind producer input.
    lag: Option<Instant>,
    /// How the worker ends, once a control message or the connection's
    /// end decided it.
    end: Option<Result<()>>,
}

/// What one poll entry refers to this iteration.
#[derive(Clone, Copy)]
enum Slot {
    Waker,
    Listener,
    Control,
    Ingress(usize),
    /// A blocked egress, heartbeat or report socket; the write pass
    /// retries it.
    Egress,
    /// Poll entry `entry` of the gate at `gen.cells[at]`.
    Gate {
        at: usize,
        entry: usize,
    },
}

impl Worker {
    /// A worker over its connections, which the loop owns for the
    /// worker's life: the data-plane `listener`, the `control`
    /// connection (registered) and the `heartbeat` connection (its
    /// hello sent).
    pub(crate) fn new(
        cfg: WorkerConfig,
        listener: TcpListener,
        control: TcpStream,
        heartbeat: TcpStream,
        plan: Option<FaultPlan>,
    ) -> Result<Worker> {
        listener.set_nonblocking(true)?;
        control.set_nonblocking(true)?;
        heartbeat.set_nonblocking(true)?;
        let (durable_tx, durable) = channel();
        Ok(Worker {
            cfg,
            listener,
            waker: Waker::new()?,
            durable_tx,
            durable,
            reports: EgressBuf::new(control.try_clone()?),
            control: Some((control, FrameDecoder::new())),
            heartbeat: EgressBuf::new(heartbeat),
            beat: Pace::new(HEARTBEAT_INTERVAL, Instant::now()),
            ingress: Vec::new(),
            gen: None,
            deploy: None,
            min_gen: 0,
            plan,
            lag: None,
            end: None,
        })
    }

    /// Turns until `Shutdown` or the control connection's end.
    pub(crate) fn run(&mut self) -> Result<()> {
        loop {
            if let Some(end) = self.turn() {
                return end;
            }
        }
    }

    /// One turn: read the ready sockets and act on the control messages
    /// they brought, ack what the persister wrote, retry a deploy's
    /// connects when due, visit the cells, beat when due, write the
    /// egress, heartbeat and report queues. `Some` once the worker
    /// ended, its generation torn down.
    pub(crate) fn turn(&mut self) -> Option<Result<()>> {
        let (targets, slots) = self.build_poll_set();
        let cells = self.gen.iter().flat_map(|gen| &gen.cells);
        let paces = cells.filter_map(|c| match &c.hau {
            Hau::Source { pace, .. } => Some(pace),
            _ => None,
        });
        let retry = self.deploy.as_ref().map(|d| &d.retry);
        let mut timeout = poll_timeout_ms(paces.chain(retry).chain([&self.beat]), Instant::now());
        if self.lag.is_some() {
            timeout = timeout.min(QUIET_MS);
        }
        let produced = poll(&targets, timeout).is_ok_and(|r| self.read_ready(r, &slots));
        if let Some(end) = self.end.take() {
            self.teardown();
            self.reports.write();
            return Some(end);
        }
        self.ack_durable();
        let now = Instant::now();
        if self.deploy.as_mut().is_some_and(|d| d.retry.due(now) > 0) {
            self.deploy_step(now);
        }
        self.lag = produced
            .then(|| self.lag.unwrap_or(now))
            .filter(|since| now.duration_since(*since) < MAX_APPLY_LAG);
        if let Some(gen) = &mut self.gen {
            run_cells(gen, now, self.lag.is_some());
        }
        self.on_exits();
        if self.beat.due(now) > 0 {
            let gen = self.gen.as_ref();
            let beat = gen.map_or_else(|| Gen::default().heartbeat(), Gen::heartbeat);
            self.heartbeat.replace(&beat);
        }
        for target in self.gen.iter_mut().flat_map(|gen| &mut gen.targets) {
            if let Target::Egress(buf) = target {
                buf.write();
            }
        }
        self.heartbeat.write();
        self.reports.write();
        None
    }

    /// Handles one poll's readiness, the control connection last: a
    /// message there may tear down the generation the slots index.
    /// `true` if a gate read producer input.
    fn read_ready(&mut self, ready: Vec<ReadyEvent>, slots: &[Slot]) -> bool {
        let mut dead: Vec<usize> = Vec::new();
        let (mut produced, mut control) = (false, false);
        for ev in ready {
            match slots[ev.token] {
                Slot::Waker => self.waker.drain(),
                Slot::Listener => self.accept_ready(),
                Slot::Control => control = true,
                Slot::Ingress(i) => {
                    if ev.readable && !self.ingress_ready(i) {
                        dead.push(i);
                    }
                }
                Slot::Egress => {}
                Slot::Gate { at, entry } => {
                    if let Some(Hau::Gate(gate)) = self.gen.as_mut().map(|g| &mut g.cells[at].hau) {
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
        if control {
            self.control_ready();
        }
        produced
    }

    /// Reads the control connection once — poll reported it readable —
    /// and acts on every whole message, in order, until one ends the
    /// worker; then on a close or failure, which does.
    fn control_ready(&mut self) {
        let Some((stream, decoder)) = &mut self.control else {
            return;
        };
        let mut scratch = [0u8; READ_CHUNK];
        let mut last = match stream.read(&mut scratch) {
            Ok(0) if decoder.buffered() == 0 => Some(Ok(())),
            Ok(0) => Some(Err(Error::Wire("torn frame at control EOF".into()))),
            Ok(n) => {
                decoder.feed(&scratch[..n]);
                None
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => None,
            Err(e) => Some(Err(e.into())),
        };
        while self.end.is_none() {
            let next = self
                .control
                .as_mut()
                .and_then(|(_, d)| d.next_frame().transpose());
            match next.map(|f| f.and_then(|f| WireMsg::decode(&f))) {
                None => break,
                Some(Ok(msg)) => self.on_control(msg),
                Some(Err(e)) => {
                    last = Some(Err(e));
                    break;
                }
            }
        }
        if let Some(last) = last {
            self.end.get_or_insert(last);
            self.control = None;
        }
    }

    fn on_control(&mut self, msg: WireMsg) {
        match msg {
            WireMsg::Assign(a) => {
                self.teardown();
                let generation = a.generation;
                match Deploy::new(&self.cfg, a) {
                    Ok(deploy) => {
                        self.deploy = Some(deploy);
                        self.deploy_step(Instant::now());
                    }
                    Err(e) => self.fail(generation, e),
                }
            }
            WireMsg::Checkpoint(epoch) => {
                if let Some(gen) = &mut self.gen {
                    gen.visit(|cell| cell.checkpoint(epoch));
                } else if let Some(deploy) = &mut self.deploy {
                    deploy.barriers.push(epoch);
                }
            }
            WireMsg::Rollback => self.teardown(),
            WireMsg::Shutdown => self.end = Some(Ok(())),
            other => {
                let e = Error::Wire(format!("unexpected control message {other:?}"));
                self.end = Some(Err(e));
            }
        }
    }

    /// Connects what the deploy can; once every edge is up, builds the
    /// generation and adopts it. A failed deploy (corrupt checkpoint,
    /// unreachable store or peer) fails the generation, not the worker.
    fn deploy_step(&mut self, now: Instant) {
        let connected = match &mut self.deploy {
            Some(deploy) => deploy.connect_retry(now),
            None => return,
        };
        if let Ok(false) = connected {
            return;
        }
        let mut deploy = self.deploy.take().expect("deploying");
        let (generation, barriers) = (deploy.generation(), mem::take(&mut deploy.barriers));
        match connected.and_then(|_| deploy.build(&self.cfg, self.hook(generation))) {
            Ok(gen) => self.adopt(gen, barriers),
            Err(e) => self.fail(generation, e),
        }
    }

    /// The hook a generation's persister calls after each write.
    pub(crate) fn hook(&self, generation: u64) -> DurableHook {
        let (tx, waker) = (self.durable_tx.clone(), self.waker.clone());
        Box::new(move |epoch, op, meter, outcome| {
            let _ = tx.send(Durable {
                generation,
                epoch,
                op,
                outcome: outcome.clone(),
                sample: meter.map(OperatorMeter::sample),
            });
            waker.wake();
        })
    }

    /// Adopts a built generation: delivers what its cells queued while
    /// they were built (a recovering source's replay), resolves the
    /// streams that connected ahead of it, and cuts the barriers that
    /// arrived while it deployed.
    pub(crate) fn adopt(&mut self, mut gen: Gen, barriers: Vec<EpochId>) {
        gen.visit(HostCell::take_outbox);
        // Frames already buffered (bytes that rode in with the hello)
        // flow now; the socket itself is picked up by the next poll,
        // which is level-triggered.
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
        for epoch in barriers {
            gen.visit(|cell| cell.checkpoint(epoch));
        }
        self.gen = Some(gen);
    }

    /// Fails generation `generation`'s deploy: its streams close, and the
    /// controller hears why.
    fn fail(&mut self, generation: u64, e: Error) {
        self.close_streams(generation);
        let detail = e.to_string();
        self.reports
            .send(&WireMsg::WorkerError { generation, detail });
    }

    /// Tears the current generation down, deployed or deploying. It
    /// stops being current, so it reports nothing more; its streams,
    /// parked ones included, close; its cells finish, each flushing its
    /// final state; its persister drains.
    fn teardown(&mut self) {
        let deploying = self.deploy.take().map(|d| d.generation());
        let Some(generation) = deploying.or(self.gen.as_ref().map(|g| g.generation)) else {
            return;
        };
        self.close_streams(generation);
        if let Some(gen) = self.gen.take() {
            gen.tear();
        }
    }

    /// Drops the streams of generations `<= generation` and refuses
    /// their later hellos. Streams still awaiting their hello are kept
    /// and checked against the raised floor when the hello arrives.
    fn close_streams(&mut self, generation: u64) {
        self.min_gen = self.min_gen.max(generation + 1);
        self.ingress.retain(|c| match c.state {
            IngressState::AwaitHello => true,
            IngressState::Pending { generation: g, .. }
            | IngressState::Routed { generation: g, .. } => g > generation,
        });
    }

    /// Acks each checkpoint the persister wrote for the current
    /// generation, or reports its failure. The ack carries the
    /// operator's sample taken after the write, so the ack that closes
    /// the epoch-e barrier brings its operator's epoch-e checkpoint
    /// phases — what lets the controller cut complete ledger records
    /// then.
    fn ack_durable(&mut self) {
        while let Ok(d) = self.durable.try_recv() {
            let generation = d.generation;
            if self.gen.as_ref().map(|g| g.generation) != Some(generation) {
                continue;
            }
            self.reports.send(&match d.outcome {
                Ok(_) => WireMsg::CkptDone {
                    generation,
                    epoch: d.epoch,
                    op: d.op,
                    sample: d.sample,
                },
                Err(e) => WireMsg::WorkerError {
                    generation,
                    detail: e.to_string(),
                },
            });
        }
    }

    /// Once every HAU of the generation has exited: the persister
    /// drains, what it wrote is acked, and only then are finished sinks
    /// and failed HAUs reported.
    fn on_exits(&mut self) {
        let Some(gen) = &mut self.gen else { return };
        if gen.persister.is_none() || gen.exits.len() < gen.cells.len() {
            return;
        }
        drop(gen.persister.take());
        let generation = gen.generation;
        let (exits, sinks) = (mem::take(&mut gen.exits), mem::take(&mut gen.sinks));
        self.ack_durable();
        for exit in exits {
            // A host that stopped on a storage failure is a failed HAU,
            // not a finished one: surface it so the controller rolls
            // the generation back.
            if let Some(e) = &exit.error {
                let detail = format!("{}: {e}", exit.op_id);
                self.reports
                    .send(&WireMsg::WorkerError { generation, detail });
            } else if sinks.contains(&exit.op_id) {
                self.reports.send(&WireMsg::SinkDone {
                    generation,
                    op: exit.op_id,
                    snapshot: exit.op.snapshot().data,
                });
            }
        }
    }

    fn build_poll_set(&self) -> (Vec<(PollTarget, usize, Interest)>, Vec<Slot>) {
        let mut targets = Vec::with_capacity(3 + self.ingress.len());
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
        for buf in [&self.heartbeat, &self.reports] {
            if let Some(fd) = buf.blocked_fd() {
                add(fd, Slot::Egress, Interest::WRITE);
            }
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
        let Some(gen) = &self.gen else {
            return (targets, slots);
        };
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
                    add(fd, Slot::Gate { at, entry }, want);
                }
            }
        }
        (targets, slots)
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
            let gen = self.gen.as_ref().filter(|gen| gen.generation == generation);
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
        match self.gen.as_mut().filter(|gen| gen.generation == generation) {
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
pub(crate) mod tests {
    use super::*;
    use crate::message::send_msg;
    use crate::worker::ControllerAddr;
    use ms_core::gate::{GateConfig, GateMsg};
    use ms_core::ids::OperatorId;
    use ms_core::ids::PortId;
    use ms_core::operator::{OperatorContext, OperatorSnapshot, SnapshotPayload};
    use ms_core::tuple::Tuple;
    use ms_core::value::Value;
    use ms_gate::GateWiring;
    use ms_live::{
        CountSource, Doubler, FsStore, HostWiring, OutputRoute, PersistItem, StableStore,
    };
    use std::io::Write;
    use std::sync::mpsc::channel;
    use std::sync::Arc;
    use std::thread;

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

    /// Turns `w` until `done(w)` holds, for at most `d`; whether it did.
    fn turn_until(w: &mut Worker, d: Duration, mut done: impl FnMut(&mut Worker) -> bool) -> bool {
        let deadline = Instant::now() + d;
        while !done(w) {
            if Instant::now() > deadline {
                return false;
            }
            assert!(w.turn().is_none(), "the worker stopped");
        }
        true
    }

    /// The exit record of `op`, if its cell has finished.
    fn exit_of(w: &Worker, op: u32) -> Option<&HostExit> {
        let exits = w.gen.as_ref().map_or(&[][..], |gen| &gen.exits);
        exits.iter().find(|exit| exit.op_id == OperatorId(op))
    }

    /// Turns `w` until `op`'s cell has finished, for at most 5 s, and
    /// returns its exit record.
    fn exit_after_turns(w: &mut Worker, op: u32) -> &HostExit {
        let finished = turn_until(w, Duration::from_secs(5), |w| exit_of(w, op).is_some());
        assert!(finished, "op{op} never finished");
        exit_of(w, op).unwrap()
    }

    /// Turns `w` until a whole frame arrives on `sock`, read
    /// nonblocking through `dec`, for at most 5 s.
    fn next_frame(w: &mut Worker, sock: &mut TcpStream, dec: &mut FrameDecoder) -> Vec<u8> {
        sock.set_nonblocking(true).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if let Some(f) = dec.next_frame().unwrap() {
                return f;
            }
            let mut buf = [0u8; 4096];
            match sock.read(&mut buf) {
                Ok(0) => panic!("closed mid-conversation"),
                Ok(n) => dec.feed(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    assert!(Instant::now() < deadline, "no frame within 5 s");
                    assert!(w.turn().is_none(), "the worker stopped");
                }
                Err(e) => panic!("reading: {e}"),
            }
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
    /// cell itself and the checkpoints it captured.
    struct CellRig {
        cell: HostCell,
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
        CellRig {
            cell: HostCell::new(Hau::Interior(core)),
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
    pub(crate) fn pair() -> (TcpStream, TcpStream) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let near = TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let (far, _) = l.accept().unwrap();
        (near, far)
    }

    /// A worker, not yet turning, and the far ends of its connections:
    /// its data address and the controller's ends of its control and
    /// heartbeat connections.
    struct Rig {
        w: Worker,
        addr: String,
        controller: TcpStream,
        beats: TcpStream,
    }

    /// A worker on a fresh loopback listener, beating into `heartbeat`.
    fn rig_beating_into(heartbeat: (TcpStream, TcpStream)) -> Rig {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (control, controller) = pair();
        let cfg = WorkerConfig {
            name: "me".into(),
            controller: ControllerAddr::Addr(String::new()),
            store_dir: std::env::temp_dir(),
        };
        let w = Worker::new(cfg, listener, control, heartbeat.0, None).unwrap();
        Rig {
            w,
            addr,
            controller,
            beats: heartbeat.1,
        }
    }

    fn rig(gen: Gen) -> Rig {
        let mut r = rig_beating_into(pair());
        r.w.adopt(gen, Vec::new());
        r
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
        let CellRig { mut cell, .. } = sink_cell();
        for v in 0..100i64 {
            cell.push(0, HostMsg::DataBatch([tuple(v as u64, v)].into()));
        }
        cell.push(0, HostMsg::Token(EpochId(1)));
        cell.push(0, HostMsg::Eos);
        let mut gen = generation(vec![cell], Vec::new(), []);
        run_cells(&mut gen, Instant::now(), false);
        assert!(
            matches!(gen.cells[0].hau, Hau::Done(_)),
            "a cell at Eos is a tombstone after the pass"
        );
        let [exit] = &gen.exits[..] else {
            panic!("{} exits", gen.exits.len());
        };
        assert!(exit.error.is_none());
        assert_eq!(sum_of(&exit.op.snapshot()), (0..100).sum::<i64>());
        // A finished cell discards further input.
        gen.cells[0].push(0, HostMsg::Eos);
        assert!(gen.cells[0].inbox.is_empty());
    }

    #[test]
    fn one_pass_carries_batches_a_token_and_eos_through_a_colocated_chain() {
        // doubler --inbox--> doubler --inbox--> sink, fed by hand: one
        // run_cells call, no turn, no socket.
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
        assert!(gen.cells.iter().all(|c| matches!(c.hau, Hau::Done(_))));
        let ops: Vec<OperatorId> = gen.exits.iter().map(|exit| exit.op_id).collect();
        assert_eq!(ops, [1, 2, 3].map(OperatorId));
        let exit = &gen.exits[2];
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
        let CellRig { cell, .. } = sink_cell();
        let mut r = rig(generation(vec![cell], Vec::new(), []));
        assert!(r.w.turn().is_none());
        assert!(exit_of(&r.w, 1).is_none(), "no input, no exit");
        // Finishing the cell, as a teardown does, hands its exit back.
        let cell = &mut r.w.gen.as_mut().unwrap().cells[0];
        let (exit, _) = cell.finish().unwrap();
        assert_eq!(exit.op_id, OperatorId(1));
        assert!(cell.finish().is_none(), "a cell finishes once");
        r.w.teardown();
        assert!(r.w.gen.is_none());
    }

    #[test]
    fn io_thread_runs_a_socket_fed_chain_of_colocated_cells() {
        // peer --socket--> doubler cell --inbox--> sink cell, both
        // cells on the one loop.
        const N: i64 = 300;
        const BEFORE_TOKEN: i64 = 120;
        let sink = cell(2, Box::<Sum>::default(), Vec::new());
        let doubler = cell(1, Box::<Doubler>::default(), vec![OutputRoute::single(0)]);
        let gen = generation(
            vec![doubler.cell, sink.cell],
            vec![Target::Cell(input(1))],
            [((0, 1), input(0))],
        );
        let mut r = rig(gen);

        let mut peer = TcpStream::connect(&r.addr).unwrap();
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
        let exit = exit_after_turns(&mut r.w, 2);
        assert!(exit.error.is_none());
        assert_eq!(sum_of(&exit.op.snapshot()), N * (N - 1));
        assert!(exit_of(&r.w, 1).is_some());
        // The token reached the sink behind exactly the batches sent
        // before it: its epoch-1 cut holds Σ 2v over 0..BEFORE_TOKEN.
        let cut = sink.persisted.try_recv().unwrap();
        assert_eq!(cut.epoch, EpochId(1));
        assert_eq!(cut.resume_seq, vec![BEFORE_TOKEN as u64]);
        match cut.snapshot.resolve() {
            SnapshotPayload::Full(s) => {
                assert_eq!(sum_of(&s), BEFORE_TOKEN * (BEFORE_TOKEN - 1))
            }
            SnapshotPayload::Delta(_) => panic!("Sum captures full snapshots"),
        }
    }

    #[test]
    fn io_routes_stream_even_when_hello_races_routes() {
        // Connect and send the hello BEFORE the generation is adopted:
        // the stream must park as Pending and resolve on adoption, with
        // no data lost.
        let mut r = rig_beating_into(pair());
        let mut peer = TcpStream::connect(&r.addr).unwrap();
        hello(&mut peer, 1);
        for v in 0..10i64 {
            send_msg(&mut peer, &WireMsg::TupleBatch(vec![tuple(v as u64, v)])).unwrap();
        }
        // The loop accepts and parks the stream.
        let parked = |w: &mut Worker| {
            let mut states = w.ingress.iter().map(|c| c.state);
            states.any(|s| matches!(s, IngressState::Pending { .. }))
        };
        assert!(turn_until(&mut r.w, Duration::from_secs(5), parked));

        let CellRig { cell, .. } = sink_cell();
        let gen = generation(vec![cell], Vec::new(), [((0, 1), input(0))]);
        r.w.adopt(gen, Vec::new());
        send_msg(&mut peer, &WireMsg::Eos).unwrap();

        let exit = exit_after_turns(&mut r.w, 1);
        assert_eq!(sum_of(&exit.op.snapshot()), (0..10).sum::<i64>());
    }

    #[test]
    fn bare_close_does_not_deliver_eos() {
        let CellRig { cell, .. } = sink_cell();
        let mut r = rig(generation(vec![cell], Vec::new(), [((0, 1), input(0))]));

        let mut peer = TcpStream::connect(&r.addr).unwrap();
        hello(&mut peer, 1);
        send_msg(&mut peer, &WireMsg::TupleBatch(vec![tuple(0, 7)])).unwrap();
        drop(peer); // crash, not Eos

        // The consumer must NOT finish: no Eos was ever sent.
        let finished = |w: &mut Worker| exit_of(w, 1).is_some();
        assert!(!turn_until(&mut r.w, Duration::from_millis(600), finished));

        // Finishing it, as a teardown does, still flushes the exit.
        let (exit, _) = r.w.gen.as_mut().unwrap().cells[0].finish().unwrap();
        assert_eq!(sum_of(&exit.op.snapshot()), 7);
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
        let op = Box::new(CountSource::new(10));
        let pace = Pace::new(ms(200), Instant::now());
        let source = HostCell::new(Hau::Source { core, op, pace });
        let gen = generation(
            vec![source, downstream.cell, fed.cell],
            vec![Target::Cell(input(1))],
            [((0, 2), input(2))],
        );
        let mut r = rig(gen);

        let mut peer = TcpStream::connect(&r.addr).unwrap();
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
        let exit = exit_after_turns(&mut r.w, 2);
        assert_eq!(sum_of(&exit.op.snapshot()), 15);
        assert_eq!(store.preserved_tuples(), 0, "the source ticked first");
        // It does tick on its deadline.
        let ticked = |_: &mut Worker| store.preserved_tuples() > 0;
        let on_time = turn_until(&mut r.w, Duration::from_secs(5), ticked);
        assert!(on_time, "the paced source never ticked");

        let source = &mut r.w.gen.as_mut().unwrap().cells[0];
        assert!(source.finish().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Writes zeros into `s` (nonblocking) until it refuses more;
    /// returns how many it took.
    pub(crate) fn fill(s: &TcpStream) -> usize {
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
        let mut r = rig_beating_into((near, far));
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
        let op = Box::new(CountSource::new(1_000_000));
        let pace = Pace::new(ms(2), Instant::now());
        let source = HostCell::new(Hau::Source { core, op, pace });
        let gen = generation(
            vec![source, sink.cell, fed.cell],
            vec![Target::Cell(input(1))],
            [((0, 2), input(2))],
        );
        r.w.adopt(gen, Vec::new());

        // The beats find no room, and the cells still run: the fed cell
        // applies its batch and finishes, the source keeps ticking.
        let mut peer = TcpStream::connect(&r.addr).unwrap();
        hello(&mut peer, 2);
        send_msg(
            &mut peer,
            &WireMsg::TupleBatch(vec![tuple(0, 7), tuple(1, 8)]),
        )
        .unwrap();
        send_msg(&mut peer, &WireMsg::Eos).unwrap();
        let exit = exit_after_turns(&mut r.w, 2);
        assert_eq!(sum_of(&exit.op.snapshot()), 15);
        turn_until(&mut r.w, ms(600), |_| false);
        let ticked = store.preserved_tuples();
        assert!(ticked > 100, "the source stalled at {ticked} tuples");

        // Once the peer reads, every beat is a whole frame of this
        // generation — partial writes never tear one. The few the
        // kernel took meanwhile arrive at once, the first gap ends
        // them, and from then on a beat arrives every 50 ms.
        let mut beats = r.beats;
        beats
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        beats.read_exact(&mut vec![0u8; junk]).unwrap();
        let mut dec = FrameDecoder::new();
        let mut next_beat = || match WireMsg::decode(&next_frame(&mut r.w, &mut beats, &mut dec)) {
            Ok(WireMsg::Heartbeat { generation: 1, .. }) => Instant::now(),
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

    /// Turns `w` until the gate's next reply arrives on `sock`.
    fn recv_ack(w: &mut Worker, sock: &mut TcpStream, dec: &mut FrameDecoder) -> GateMsg {
        GateMsg::decode(&next_frame(w, sock, dec)).unwrap()
    }

    fn batch(batch: u64, keys: std::ops::Range<u64>) -> Vec<u8> {
        let events = keys.map(|k| (k, 1)).collect();
        frame(&GateMsg::Batch { batch, events }.encode())
    }

    /// A one-producer gate cell emitting on address 0, and its producer
    /// address.
    fn gate_cell(
        store: &Arc<FsStore>,
        persist: Sender<PersistItem>,
    ) -> (HostCell, std::net::SocketAddr) {
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
            telemetry: None,
        };
        let gate = Box::new(Gate::new(wiring, store.clone(), persist));
        (HostCell::new(Hau::Gate(gate)), addr)
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
        let (gate, gate_addr) = gate_cell(&store, persist);
        let gen = generation(vec![gate], vec![Target::Egress(EgressBuf::new(edge))], []);
        let mut r = rig(gen);

        let mut producer = TcpStream::connect(gate_addr).unwrap();
        let mut dec = FrameDecoder::new();
        producer
            .write_all(&frame(&GateMsg::Hello { producer: 1 }.encode()))
            .unwrap();
        producer.write_all(&batch(1, 0..3)).unwrap();
        assert_eq!(
            recv_ack(&mut r.w, &mut producer, &mut dec),
            GateMsg::Accepted { batch: 1 }
        );
        // The checkpoint arrives on the control connection and four
        // batches follow in one write, both while the loop waits: the
        // turn that reads them stages all four, then acts on the
        // checkpoint.
        send_msg(&mut r.controller, &WireMsg::Checkpoint(EpochId(1))).unwrap();
        let staged: Vec<u8> = (2..6).flat_map(|b| batch(b, b * 10..b * 10 + 4)).collect();
        producer.write_all(&staged).unwrap();
        for b in 2..6 {
            assert_eq!(
                recv_ack(&mut r.w, &mut producer, &mut dec),
                GateMsg::Accepted { batch: b }
            );
        }
        // Every acked batch lies below the mark: its next_seq counts
        // all 3 + 4 × 4 tuples, and the WAL holds nothing above it.
        let cut = persisted.try_recv().unwrap();
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
        assert_eq!(recv_ack(&mut r.w, &mut producer, &mut dec), GateMsg::FinOk);
        let exit = exit_after_turns(&mut r.w, 0);
        assert!(exit.error.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_finished_gate_keeps_riding_the_heartbeat() {
        let (dir, store) = temp_store("tombstone");
        let (persist, _) = channel();
        let (mut gate, _) = gate_cell(&store, persist);
        gate.finish();
        assert!(matches!(gate.hau, Hau::Done(Some(_))));
        let gen = generation(vec![gate], Vec::new(), []);
        let WireMsg::Heartbeat { gates, .. } = gen.heartbeat() else {
            panic!("a beat is a heartbeat");
        };
        assert_eq!(gates, vec![(OperatorId(0), GateSample::default())]);
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
        let (gate, gate_addr) = gate_cell(&store, persist);
        let gen = generation(vec![gate, sink.cell], vec![Target::Cell(input(1))], []);
        let mut r = rig(gen);
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
                recv_ack(&mut r.w, &mut producer, &mut dec),
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
        assert_eq!(recv_ack(&mut r.w, &mut producer, &mut dec), GateMsg::FinOk);
        let exit = exit_after_turns(&mut r.w, 1);
        assert_eq!(sum_of(&exit.op.snapshot()), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
