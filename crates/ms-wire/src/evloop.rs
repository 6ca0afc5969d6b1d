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
//! * It owns every [`HostCell`] of every generation — an interior or
//!   sink ([`InteriorCore`] plus its inbox), a demo source
//!   ([`SourceCore`]) ticked on its deadlines, or an ingestion [`Gate`]
//!   whose sockets join the poll set; no core is shared with another
//!   thread.
//! * Each turn reads the ready sockets, applies commands, visits the
//!   cells in topological order (sources and gates first, so a gate's
//!   group commit lands before the interiors run and a colocated chain
//!   drains in one pass), then writes every non-empty [`EgressBuf`]
//!   with vectored writes — many frames per syscall. It blocks in poll
//!   until a socket, a command, a source deadline or cells left waiting
//!   behind producer input ([`QUIET_MS`]) need it: idle means *blocked
//!   in poll*, not sleeping in a loop.
//!
//! Only the worker's commands write the [`Waker`]. The inbox and egress
//! locks stay because the main thread builds a generation's HAUs (a
//! recovering source's replay included) before [`IoCmd::Deploy`].
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
//! * Teardown marks the generation's `torn` flag (every producer's
//!   next emission returns `false`, unwinding hosts) and sends
//!   [`IoCmd::Tear`], which drops the generation's connections and
//!   routes and finishes its sources, gates and cells, so each final
//!   [`HostExit`] reaches the joiner even if no message ever arrives.
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
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ms_core::codec::{frame, FrameDecoder};
use ms_core::ids::EpochId;
use ms_core::operator::Operator;
use ms_gate::Gate;
use ms_live::{EdgeTx, HostExit, HostMsg, InteriorCore, SourceCore};
use ms_net::fault::FaultPlan;
use ms_net::ready::{poll, Interest, PollTarget, ReadyEvent, Waker};
use ms_net::vectored;

use crate::message::{encode_tuple_batch, WireMsg};

/// Longest poll timeout. Sockets, the [`Waker`] and source deadlines
/// end the poll sooner: this only bounds an idle thread's looks at its
/// command queue, the backstop should a wake ever be lost.
const POLL_TIMEOUT_MS: i32 = 250;
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

struct EgressState {
    /// Encoded frames awaiting the socket, front-to-back.
    frames: VecDeque<Vec<u8>>,
    /// Bytes of the front frame already written by a partial flush.
    head: usize,
    /// Socket gone: discard pushes (drain mode — see module docs).
    broken: bool,
}

/// The userspace send queue of one outbound data connection. Hosts
/// append encoded frames; the I/O thread drains the queue with
/// vectored writes ([`ms_net::vectored::write_frames`], `writev(2)` on
/// unix) — many frames per syscall instead of one. Unbounded by
/// design: the only unbounded producers are throttled sources, and the
/// alternative (blocking the I/O thread on a slow socket) stalls every
/// operator of the worker.
pub(crate) struct EgressBuf {
    inner: Mutex<EgressState>,
}

impl EgressBuf {
    pub(crate) fn new() -> Arc<EgressBuf> {
        Arc::new(EgressBuf {
            inner: Mutex::new(EgressState {
                frames: VecDeque::new(),
                head: 0,
                broken: false,
            }),
        })
    }

    fn push(&self, payload: &[u8]) {
        let mut g = self.inner.lock().expect("egress lock");
        if !g.broken {
            g.frames.push_back(frame(payload));
        }
    }

    fn is_empty(&self) -> bool {
        let g = self.inner.lock().expect("egress lock");
        g.broken || g.frames.is_empty()
    }

    fn mark_broken(&self) {
        let mut g = self.inner.lock().expect("egress lock");
        g.broken = true;
        g.frames = VecDeque::new();
        g.head = 0;
    }

    /// Drains as many queued frames as the socket accepts, a vectored
    /// write per pass. `Ok(false)` means the socket would block with
    /// frames still queued; errors flip the buffer to drain mode.
    fn write_to(&self, s: &mut TcpStream) -> io::Result<bool> {
        let mut g = self.inner.lock().expect("egress lock");
        let r = loop {
            if g.frames.is_empty() {
                break Ok(true);
            }
            match vectored::write_frames(s, g.frames.iter().map(|f| f.as_slice()), g.head) {
                Ok(0) => break Err(io::Error::from(io::ErrorKind::WriteZero)),
                Ok(n) => {
                    let EgressState { frames, head, .. } = &mut *g;
                    *head = vectored::consume_frames(n, *head, frames);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => break Err(e),
            }
        };
        if r.is_err() {
            g.broken = true;
            g.frames = VecDeque::new();
            g.head = 0;
        }
        r
    }
}

/// Producer-side [`EdgeTx`] over one outbound connection: encode and
/// append to the [`EgressBuf`], which the I/O thread writes after its
/// cell pass. Returns `false` only when the generation is torn down —
/// a broken socket drains silently, exactly like the old egress pump.
pub(crate) struct EgressHandle {
    pub(crate) buf: Arc<EgressBuf>,
    pub(crate) torn: Arc<AtomicBool>,
}

impl EdgeTx for EgressHandle {
    fn send(&self, msg: HostMsg) -> bool {
        if self.torn.load(Ordering::SeqCst) {
            return false;
        }
        let payload = match msg {
            // One TupleBatch frame per batch — one header, one decode,
            // one inbox push on the far side — encoded in place.
            HostMsg::DataBatch(b) => encode_tuple_batch(&b),
            HostMsg::Token(e) => WireMsg::Token(e).encode(),
            HostMsg::Eos => WireMsg::Eos.encode(),
        };
        self.buf.push(&payload);
        true
    }
}

// ---------------- the cells ----------------

/// The shared half of a [`HostCell`]: the inbox its producers append
/// to, in emission order per producer, and the flags a send checks.
struct Inbox {
    queue: Mutex<VecDeque<(u32, HostMsg)>>,
    /// Generation-level teardown flag (shared with every handle of the
    /// run). A torn cell finishes on its next visit.
    torn: Arc<AtomicBool>,
    /// Set once the core has finished: senders get `false` from then
    /// on, mirroring a disconnected channel.
    gone: AtomicBool,
}

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
}

/// One HAU, owned by the I/O thread: its state machine, its inbox (fed
/// only to interiors and sinks), and where its exit record goes.
pub(crate) struct HostCell {
    hau: Hau,
    inbox: Arc<Inbox>,
    exits: Sender<HostExit>,
}

impl HostCell {
    pub(crate) fn new(hau: Hau, torn: Arc<AtomicBool>, exits: Sender<HostExit>) -> HostCell {
        HostCell {
            hau,
            inbox: Arc::new(Inbox {
                queue: Mutex::new(VecDeque::new()),
                torn,
                gone: AtomicBool::new(false),
            }),
            exits,
        }
    }

    /// An edge handle into input `port` of this cell.
    pub(crate) fn tx(&self, port: u32) -> CellTx {
        CellTx {
            inbox: self.inbox.clone(),
            port,
        }
    }

    /// One visit: an interior drains its inbox through its core unless
    /// `lagging` behind producer input, a gate commits and acks what it
    /// staged, a source runs the ticks due at `now`. `false` once the
    /// HAU is done or its generation torn.
    fn step(&mut self, now: Instant, lagging: bool) -> bool {
        let live = match &mut self.hau {
            Hau::Interior(core) if lagging => !core.is_done(),
            Hau::Interior(core) => {
                let queued = mem::take(&mut *self.inbox.queue.lock().expect("inbox lock"));
                if !queued.is_empty() {
                    // The gauge counts tuples, not inbox messages: one
                    // DataBatch is up to hundreds of tuples.
                    let tuples: usize = queued.iter().map(|(_, msg)| msg.tuple_count()).sum();
                    core.publish_backpressure(tuples as u64);
                    for (port, msg) in queued {
                        core.on_msg(port as usize, msg);
                    }
                }
                !core.is_done()
            }
            Hau::Source { core, op, pace } => (0..pace.due(now)).all(|_| core.tick(op.as_mut())),
            Hau::Gate(gate) => {
                gate.commit();
                gate.flush_acks();
                !gate.is_done()
            }
        };
        live && !self.inbox.torn.load(Ordering::SeqCst)
    }

    /// A source's or gate's checkpoint; an interior cuts on tokens.
    fn checkpoint(&mut self, epoch: EpochId) {
        match &mut self.hau {
            Hau::Interior(_) => {}
            Hau::Source { core, op, .. } => _ = core.checkpoint_operator(epoch, op.as_mut()),
            Hau::Gate(gate) => gate.checkpoint(epoch),
        }
    }

    /// Finishes the HAU (EOS downstream) and hands its exit record to
    /// the joiner.
    fn finish(self) {
        self.inbox.gone.store(true, Ordering::SeqCst);
        let exit = match self.hau {
            Hau::Interior(core) => core.finish(),
            Hau::Source { core, op, .. } => core.finish(op),
            Hau::Gate(gate) => gate.finish(),
        };
        let _ = self.exits.send(exit);
    }
}

/// Visits every cell once, in list order. Each generation's cells are
/// listed producers first (sources and gates lead), so a batch a cell
/// emits to a colocated consumer is applied later in the same pass. A
/// finished cell leaves the list, its exit record sent.
fn run_cells(cells: &mut Vec<(u64, HostCell)>, now: Instant, lagging: bool) {
    for (generation, mut cell) in mem::replace(cells, Vec::with_capacity(cells.len())) {
        if cell.step(now, lagging) {
            cells.push((generation, cell));
        } else {
            cell.finish();
        }
    }
}

/// Local-edge (or ingress-route) [`EdgeTx`]: append to the consumer
/// cell's inbox. Port is the consumer's input index for this edge.
#[derive(Clone)]
pub(crate) struct CellTx {
    inbox: Arc<Inbox>,
    port: u32,
}

impl EdgeTx for CellTx {
    fn send(&self, msg: HostMsg) -> bool {
        if self.inbox.gone.load(Ordering::SeqCst) || self.inbox.torn.load(Ordering::SeqCst) {
            return false;
        }
        self.inbox
            .queue
            .lock()
            .expect("inbox lock")
            .push_back((self.port, msg));
        true
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

/// The poll timeout for a turn: whole ms to the nearest source deadline,
/// rounded up (poll(2) waits no less), 0 once one has passed, at most
/// `cap`.
fn poll_timeout_ms<'a>(paces: impl IntoIterator<Item = &'a Pace>, now: Instant, cap: i32) -> i32 {
    let wait = paces.into_iter().map(|p| p.next - p.next.min(now)).min();
    let us = wait.map_or(u128::MAX, |w| w.as_micros());
    us.div_ceil(1000).min(cap as u128) as i32
}

// ---------------- the I/O thread ----------------

/// Commands the worker sends the I/O thread (paired with a
/// [`Waker::wake`] so a blocked poll picks them up immediately).
pub(crate) enum IoCmd {
    /// Adopt one outbound data connection (already nonblocking, hello
    /// already sent) and flush its [`EgressBuf`] as the socket allows.
    Egress {
        /// Generation the connection belongs to.
        generation: u64,
        /// The connected, nonblocking socket.
        stream: TcpStream,
        /// The buffer hosts append frames to.
        buf: Arc<EgressBuf>,
    },
    /// Adopt a generation's cells and install its ingress route table.
    /// Resolves any pending streams that connected before the
    /// assignment arrived.
    Deploy {
        /// Generation the cells and routes belong to.
        generation: u64,
        /// The generation's local cells, producers first.
        cells: Vec<HostCell>,
        /// `(producer op, consumer op)` → the consumer's edge handle.
        routes: HashMap<(u32, u32), CellTx>,
    },
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
        tx: CellTx,
    },
}

struct IngressConn {
    stream: TcpStream,
    decoder: FrameDecoder,
    state: IngressState,
}

struct EgressConn {
    generation: u64,
    stream: TcpStream,
    buf: Arc<EgressBuf>,
}

struct Io {
    listener: TcpListener,
    waker: Waker,
    cmds: Receiver<IoCmd>,
    ingress: Vec<IngressConn>,
    egress: Vec<EgressConn>,
    routes: HashMap<(u64, u32, u32), CellTx>,
    /// Every hosted cell with its generation, producers first.
    cells: Vec<(u64, HostCell)>,
    /// Generations below this are stale; hellos for them are dropped.
    min_gen: u64,
    /// Deterministic fault injection consulted once per routed ingress
    /// frame (chaos runs only; `None` in production).
    plan: Option<Arc<FaultPlan>>,
}

/// What one poll entry refers to this iteration.
#[derive(Clone, Copy)]
enum Slot {
    Waker,
    Listener,
    Ingress(usize),
    /// A blocked egress socket; the write pass retries it.
    Egress,
    /// Poll entry `.1` of the gate at `cells[.0]`.
    Gate(usize, usize),
}

/// Spawns the I/O thread over the (nonblocking) data-plane listener.
/// `waker` must be the one written after every send on `cmds`.
pub(crate) fn spawn_io(
    listener: TcpListener,
    waker: Waker,
    cmds: Receiver<IoCmd>,
    plan: Option<Arc<FaultPlan>>,
) -> JoinHandle<()> {
    thread::Builder::new()
        .name("ms-io".into())
        .spawn(move || {
            let mut io = Io {
                listener,
                waker,
                cmds,
                ingress: Vec::new(),
                egress: Vec::new(),
                routes: HashMap::new(),
                cells: Vec::new(),
                min_gen: 0,
                plan,
            };
            io.run();
        })
        .expect("spawn io thread")
}

impl Io {
    /// One turn per pass: read the ready sockets, apply commands, visit
    /// the cells, write the egress buffers.
    fn run(&mut self) {
        // Since when the interior cells have waited behind producer input.
        let mut lag: Option<Instant> = None;
        loop {
            let (targets, slots) = self.build_poll_set();
            let paces = self.cells.iter().filter_map(|(_, c)| match &c.hau {
                Hau::Source { pace, .. } => Some(pace),
                _ => None,
            });
            let cap = if lag.is_some() {
                QUIET_MS
            } else {
                POLL_TIMEOUT_MS
            };
            let timeout = poll_timeout_ms(paces, Instant::now(), cap);
            let produced = poll(&targets, timeout).is_ok_and(|r| self.read_ready(r, &slots));
            if !self.drain_cmds() {
                return;
            }
            let now = Instant::now();
            lag = produced
                .then(|| lag.unwrap_or(now))
                .filter(|since| now.duration_since(*since) < MAX_APPLY_LAG);
            run_cells(&mut self.cells, now, lag.is_some());
            // A failed write flips its buffer to drain mode; the
            // connection goes.
            self.egress
                .retain_mut(|c| c.buf.write_to(&mut c.stream).is_ok());
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
                Slot::Ingress(i) => {
                    if ev.readable && !self.ingress_ready(i) {
                        dead.push(i);
                    }
                }
                Slot::Egress => {}
                Slot::Gate(at, entry) => {
                    if let Hau::Gate(gate) = &mut self.cells[at].1.hau {
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
                IoCmd::Egress {
                    generation,
                    stream,
                    buf,
                } => {
                    if generation >= self.min_gen {
                        self.egress.push(EgressConn {
                            generation,
                            stream,
                            buf,
                        });
                    } else {
                        buf.mark_broken();
                    }
                }
                IoCmd::Deploy {
                    generation,
                    cells,
                    routes,
                } => {
                    self.cells
                        .extend(cells.into_iter().map(|c| (generation, c)));
                    if generation < self.min_gen {
                        continue;
                    }
                    for ((from, to), tx) in routes {
                        self.routes.insert((generation, from, to), tx);
                    }
                    // Resolve streams that connected ahead of the
                    // assignment. Frames already buffered (bytes that
                    // rode in with the hello) flow now; the socket
                    // itself is picked up by the next poll, which is
                    // level-triggered.
                    let mut resolved_dead = Vec::new();
                    for (i, conn) in self.ingress.iter_mut().enumerate() {
                        let (pg, from, to) = match conn.state {
                            IngressState::Pending {
                                generation: pg,
                                from,
                                to,
                            } if pg == generation => (pg, from, to),
                            _ => continue,
                        };
                        if let Some(tx) = self.routes.get(&(pg, from, to)) {
                            conn.state = IngressState::Routed {
                                generation: pg,
                                from,
                                to,
                                tx: tx.clone(),
                            };
                            if !drain_frames(
                                &mut conn.decoder,
                                &mut conn.state,
                                self.plan.as_deref(),
                            ) {
                                resolved_dead.push(i);
                            }
                        }
                    }
                    resolved_dead.sort_unstable_by(|a, b| b.cmp(a));
                    for i in resolved_dead {
                        self.ingress.swap_remove(i);
                    }
                }
                IoCmd::Checkpoint { generation, epoch } => {
                    for (_, cell) in self.cells.iter_mut().filter(|(g, _)| *g == generation) {
                        cell.checkpoint(epoch);
                    }
                }
                IoCmd::Tear { generation } => {
                    self.min_gen = self.min_gen.max(generation + 1);
                    self.routes.retain(|(g, _, _), _| *g > generation);
                    self.ingress.retain(|c| match &c.state {
                        IngressState::AwaitHello => true,
                        IngressState::Pending { generation: g, .. }
                        | IngressState::Routed { generation: g, .. } => *g > generation,
                    });
                    self.egress.retain(|c| {
                        if c.generation <= generation {
                            c.buf.mark_broken();
                            false
                        } else {
                            true
                        }
                    });
                    let (torn, live) = mem::take(&mut self.cells)
                        .into_iter()
                        .partition(|(g, _)| *g <= generation);
                    self.cells = live;
                    for (_, cell) in torn {
                        cell.finish();
                    }
                }
                IoCmd::Stop => return false,
            }
        }
        true
    }

    fn build_poll_set(&self) -> (Vec<(PollTarget, usize, Interest)>, Vec<Slot>) {
        let mut targets = Vec::with_capacity(2 + self.ingress.len() + self.egress.len());
        let mut slots = Vec::with_capacity(targets.capacity());
        let mut add = |fd: PollTarget, slot: Slot, want: Interest| {
            targets.push((fd, slots.len(), want));
            slots.push(slot);
        };
        add(self.waker.fd(), Slot::Waker, Interest::READ);
        add(self.listener.as_raw_fd(), Slot::Listener, Interest::READ);
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
        for c in &self.egress {
            if !c.buf.is_empty() {
                add(c.stream.as_raw_fd(), Slot::Egress, Interest::WRITE);
            }
        }
        for (at, (_, c)) in self.cells.iter().enumerate() {
            if let Hau::Gate(gate) = &c.hau {
                for (entry, (fd, want)) in gate.poll_entries().enumerate() {
                    add(fd, Slot::Gate(at, entry), want);
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
                    drain_frames(&mut conn.decoder, &mut conn.state, self.plan.as_deref());
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
        loop {
            let conn = &mut self.ingress[i];
            match conn.state {
                IngressState::AwaitHello => {
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
                    match self.routes.get(&(generation, from, to)) {
                        Some(tx) => {
                            conn.state = IngressState::Routed {
                                generation,
                                from,
                                to,
                                tx: tx.clone(),
                            };
                        }
                        None => {
                            conn.state = IngressState::Pending {
                                generation,
                                from,
                                to,
                            };
                            return true;
                        }
                    }
                }
                IngressState::Pending { .. } => return true,
                IngressState::Routed { .. } => {
                    return drain_frames(&mut conn.decoder, &mut conn.state, self.plan.as_deref());
                }
            }
        }
    }
}

/// Decodes and delivers every buffered frame of a routed stream.
/// `false` = the connection should be dropped (Eos delivered, decode
/// failure, the consumer is gone, or an injected fault severed the
/// edge).
///
/// With a fault `plan`, every frame consults the per-edge rules first.
/// A severed edge kills the connection *without* an Eos,
/// indistinguishable from a switch failure: under the fail-stop model
/// a frame may never be skipped on a connection that lives on.
fn drain_frames(
    decoder: &mut FrameDecoder,
    state: &mut IngressState,
    plan: Option<&FaultPlan>,
) -> bool {
    let (generation, from, to, tx) = match state {
        IngressState::Routed {
            generation,
            from,
            to,
            tx,
        } => (*generation, *from, *to, tx),
        _ => return true,
    };
    loop {
        let frame = match decoder.next_frame() {
            Ok(Some(f)) => f,
            Ok(None) => return true,
            Err(_) => return false,
        };
        if plan.is_some_and(|plan| plan.on_frame(generation, from, to)) {
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
                tx.send(HostMsg::Eos);
                return false;
            }
            _ => return false,
        };
        if !tx.send(msg) {
            return false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::send_msg;
    use ms_core::gate::{GateConfig, GateMsg};
    use ms_core::ids::OperatorId;
    use ms_core::ids::PortId;
    use ms_core::metrics::BackpressureMeter;
    use ms_core::operator::{OperatorContext, OperatorSnapshot, SnapshotPayload};
    use ms_core::tuple::Tuple;
    use ms_core::value::Value;
    use ms_gate::{GateMeter, GateWiring};
    use ms_live::{
        CountSource, Doubler, FsStore, HostWiring, OutputRoute, PersistItem, StableStore,
    };
    use std::io::Write;
    use std::sync::mpsc::channel;

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

    fn tuple(seq: u64, v: i64) -> Tuple {
        Tuple::new(
            OperatorId(0),
            seq,
            ms_core::time::SimTime::ZERO,
            vec![Value::Int(v)],
        )
    }

    /// Everything a test needs to drive one single-input cell: the
    /// cell itself, its exit channel, the checkpoints it captured, and
    /// its backpressure meter.
    struct CellRig {
        cell: HostCell,
        exit_rx: Receiver<HostExit>,
        persisted: Receiver<PersistItem>,
        meter: Arc<BackpressureMeter>,
    }

    fn cell(
        op_id: u32,
        op: Box<dyn Operator>,
        outputs: Vec<OutputRoute>,
        torn: &Arc<AtomicBool>,
    ) -> CellRig {
        let (ptx, persisted) = channel::<PersistItem>();
        let meter = Arc::new(BackpressureMeter::new());
        let wiring = HostWiring {
            op_id: OperatorId(op_id),
            op,
            outputs,
            restored_seq: 0,
            resume_seq: Vec::new(),
            last_durable: None,
            meter: Some(meter.clone()),
            telemetry: None,
        };
        let core = InteriorCore::new(wiring, 1, ptx);
        let (exit_tx, exit_rx) = channel();
        CellRig {
            cell: HostCell::new(Hau::Interior(core), torn.clone(), exit_tx),
            exit_rx,
            persisted,
            meter,
        }
    }

    fn sink_cell(torn: &Arc<AtomicBool>) -> CellRig {
        cell(1, Box::<Sum>::default(), Vec::new(), torn)
    }

    /// Starts an I/O thread on a fresh loopback listener; returns its
    /// address, command queue, waker and handle.
    fn io_thread() -> (String, Sender<IoCmd>, Waker, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        listener.set_nonblocking(true).unwrap();
        let waker = Waker::new().unwrap();
        let (cmd_tx, cmd_rx) = channel();
        let io = spawn_io(listener, waker.clone(), cmd_rx, None);
        (addr, cmd_tx, waker, io)
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
        let torn = Arc::new(AtomicBool::new(false));
        let CellRig { cell, exit_rx, .. } = sink_cell(&torn);
        let tx = cell.tx(0);
        for v in 0..100i64 {
            assert!(tx.send(HostMsg::DataBatch([tuple(v as u64, v)].into())));
        }
        tx.send(HostMsg::Token(EpochId(1)));
        tx.send(HostMsg::Eos);
        let mut cells = vec![(1, cell)];
        run_cells(&mut cells, Instant::now(), false);
        assert!(cells.is_empty(), "a cell at Eos leaves the pass");
        let exit = recv_within(&exit_rx, Duration::from_secs(5)).unwrap();
        assert!(exit.error.is_none());
        assert_eq!(sum_of(&exit.op.snapshot()), (0..100).sum::<i64>());
        // Finished cell refuses further sends.
        assert!(!tx.send(HostMsg::Eos));
    }

    #[test]
    fn queue_gauge_counts_tuples_not_inbox_messages() {
        let torn = Arc::new(AtomicBool::new(false));
        let mut rig = sink_cell(&torn);
        let tx = rig.cell.tx(0);
        let tup = |seq: u64| tuple(seq, 1);
        // Four inbox messages carrying 1 + 3 + 0 + 2 tuples; one
        // direct step drains exactly this inbox.
        tx.send(HostMsg::DataBatch([tup(0)].into()));
        tx.send(HostMsg::DataBatch((1..4).map(tup).collect()));
        tx.send(HostMsg::Token(EpochId(1)));
        tx.send(HostMsg::DataBatch((4..6).map(tup).collect()));
        assert!(rig.cell.step(Instant::now(), false));
        assert_eq!(rig.meter.sample().queued_tuples, 6);
    }

    #[test]
    fn torn_cell_flushes_exit_without_traffic() {
        let (_, cmds, waker, io) = io_thread();
        let torn = Arc::new(AtomicBool::new(false));
        let CellRig { cell, exit_rx, .. } = sink_cell(&torn);
        command(
            &cmds,
            &waker,
            IoCmd::Deploy {
                generation: 1,
                cells: vec![cell],
                routes: HashMap::new(),
            },
        );
        torn.store(true, Ordering::SeqCst);
        command(&cmds, &waker, IoCmd::Tear { generation: 1 });
        let exit = recv_within(&exit_rx, Duration::from_secs(5)).unwrap();
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
        let (addr, cmds, waker, io) = io_thread();
        let torn = Arc::new(AtomicBool::new(false));
        let sink = cell(2, Box::<Sum>::default(), Vec::new(), &torn);
        let doubler = cell(
            1,
            Box::<Doubler>::default(),
            vec![OutputRoute::single(sink.cell.tx(0))],
            &torn,
        );
        let mut routes = HashMap::new();
        routes.insert((0u32, 1u32), doubler.cell.tx(0));
        command(
            &cmds,
            &waker,
            IoCmd::Deploy {
                generation: 1,
                cells: vec![doubler.cell, sink.cell],
                routes,
            },
        );

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
        let exit = recv_within(&sink.exit_rx, Duration::from_secs(5)).unwrap();
        assert!(exit.error.is_none());
        assert_eq!(sum_of(&exit.op.snapshot()), N * (N - 1));
        assert!(recv_within(&doubler.exit_rx, Duration::from_secs(5)).is_some());
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
        let (addr, cmds, waker, io) = io_thread();
        let mut peer = TcpStream::connect(addr).unwrap();
        hello(&mut peer, 1);
        for v in 0..10i64 {
            send_msg(&mut peer, &WireMsg::TupleBatch(vec![tuple(v as u64, v)])).unwrap();
        }
        // Give the io thread time to accept and park the stream.
        std::thread::sleep(Duration::from_millis(100));

        let torn = Arc::new(AtomicBool::new(false));
        let CellRig { cell, exit_rx, .. } = sink_cell(&torn);
        let mut routes = HashMap::new();
        routes.insert((0u32, 1u32), cell.tx(0));
        command(
            &cmds,
            &waker,
            IoCmd::Deploy {
                generation: 1,
                cells: vec![cell],
                routes,
            },
        );
        send_msg(&mut peer, &WireMsg::Eos).unwrap();

        let exit = recv_within(&exit_rx, Duration::from_secs(5)).unwrap();
        assert_eq!(sum_of(&exit.op.snapshot()), (0..10).sum::<i64>());

        command(&cmds, &waker, IoCmd::Stop);
        io.join().unwrap();
    }

    #[test]
    fn bare_close_does_not_deliver_eos() {
        let (addr, cmds, waker, io) = io_thread();
        let torn = Arc::new(AtomicBool::new(false));
        let CellRig { cell, exit_rx, .. } = sink_cell(&torn);
        let mut routes = HashMap::new();
        routes.insert((0u32, 1u32), cell.tx(0));
        command(
            &cmds,
            &waker,
            IoCmd::Deploy {
                generation: 1,
                cells: vec![cell],
                routes,
            },
        );

        let mut peer = TcpStream::connect(addr).unwrap();
        hello(&mut peer, 1);
        send_msg(&mut peer, &WireMsg::TupleBatch(vec![tuple(0, 7)])).unwrap();
        drop(peer); // crash, not Eos

        // The consumer must NOT finish: no Eos was ever sent.
        assert!(recv_within(&exit_rx, Duration::from_millis(600)).is_none());

        // Teardown still flushes the exit.
        torn.store(true, Ordering::SeqCst);
        command(&cmds, &waker, IoCmd::Tear { generation: 1 });
        let exit = recv_within(&exit_rx, Duration::from_secs(5)).unwrap();
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
        assert_eq!(poll_timeout_ms([&flat], t0, POLL_TIMEOUT_MS), 0);
    }

    #[test]
    fn poll_timeout_is_bounded_by_the_nearest_deadline() {
        let t0 = Instant::now();
        let (a, b) = (Pace::new(ms(10), t0), Pace::new(ms(3), t0));
        assert_eq!(poll_timeout_ms([&a, &b], t0, POLL_TIMEOUT_MS), 3);
        // Rounded up to whole ms: 2.5 ms left waits 3, never 2.
        assert_eq!(
            poll_timeout_ms([&a], t0 + Duration::from_micros(7_500), POLL_TIMEOUT_MS),
            3
        );
        assert_eq!(poll_timeout_ms([&a], t0 + ms(11), POLL_TIMEOUT_MS), 0);
        // No source, or only distant ones: the backstop.
        assert_eq!(poll_timeout_ms([], t0, POLL_TIMEOUT_MS), POLL_TIMEOUT_MS);
        let slow = Pace::new(Duration::from_secs(5), t0);
        assert_eq!(
            poll_timeout_ms([&slow], t0, POLL_TIMEOUT_MS),
            POLL_TIMEOUT_MS
        );
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
        let (addr, cmds, waker, io) = io_thread();
        let torn = Arc::new(AtomicBool::new(false));
        let downstream = cell(1, Box::<Sum>::default(), Vec::new(), &torn);
        let fed = cell(2, Box::<Sum>::default(), Vec::new(), &torn);
        let (persist, _) = channel();
        let route = OutputRoute::single(downstream.cell.tx(0));
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
        let source = HostCell::new(Hau::Source { core, op, pace }, torn.clone(), exit_tx);
        let mut routes = HashMap::new();
        routes.insert((0u32, 2u32), fed.cell.tx(0));
        command(
            &cmds,
            &waker,
            IoCmd::Deploy {
                generation: 1,
                cells: vec![source, downstream.cell, fed.cell],
                routes,
            },
        );

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
        let exit = recv_within(&fed.exit_rx, Duration::from_secs(5)).unwrap();
        assert_eq!(sum_of(&exit.op.snapshot()), 15);
        assert_eq!(store.preserved_tuples(), 0, "the source ticked first");
        // It does tick on its deadline.
        let deadline = Instant::now() + Duration::from_secs(5);
        while store.preserved_tuples() == 0 {
            assert!(Instant::now() < deadline, "the paced source never ticked");
            thread::sleep(ms(10));
        }

        torn.store(true, Ordering::SeqCst);
        command(&cmds, &waker, IoCmd::Tear { generation: 1 });
        assert!(recv_within(&source_exit, Duration::from_secs(5)).is_some());
        command(&cmds, &waker, IoCmd::Stop);
        io.join().unwrap();
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

    /// A one-producer gate cell emitting on `output`, its producer
    /// address and its exit channel.
    fn gate_cell(
        store: &Arc<FsStore>,
        output: impl EdgeTx + 'static,
        persist: Sender<PersistItem>,
        torn: &Arc<AtomicBool>,
    ) -> (HostCell, std::net::SocketAddr, Receiver<HostExit>) {
        let listener = ms_gate::listen("127.0.0.1:0", None).unwrap();
        let addr = listener.local_addr().unwrap();
        let wiring = GateWiring {
            op_id: OperatorId(0),
            cfg: GateConfig {
                expected_producers: 1,
                ..GateConfig::default()
            },
            outputs: vec![OutputRoute::single(output)],
            listener,
            restored: None,
            restored_seq: 0,
            replay: Vec::new(),
            meter: Arc::new(GateMeter::new()),
            telemetry: None,
        };
        let (exit_tx, exit_rx) = channel();
        let gate = Box::new(Gate::new(wiring, store.clone(), persist));
        (
            HostCell::new(Hau::Gate(gate), torn.clone(), exit_tx),
            addr,
            exit_rx,
        )
    }

    #[test]
    fn a_cut_never_splits_a_group_commit() {
        let (dir, store) = temp_store("cut");
        let (edge, edge_rx) = channel::<HostMsg>();
        let (persist, persisted) = channel::<PersistItem>();
        let torn = Arc::new(AtomicBool::new(false));
        let (gate, gate_addr, gate_exit) = gate_cell(&store, edge, persist, &torn);
        let (_, cmds, waker, io) = io_thread();
        command(
            &cmds,
            &waker,
            IoCmd::Deploy {
                generation: 1,
                cells: vec![gate],
                routes: HashMap::new(),
            },
        );

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
            match recv_within(&edge_rx, Duration::from_secs(5)).unwrap() {
                HostMsg::DataBatch(b) => before_token += b.len(),
                HostMsg::Token(e) => {
                    assert_eq!(e, EpochId(1));
                    break;
                }
                HostMsg::Eos => panic!("premature EOS"),
            }
        }
        assert_eq!(before_token, 19);

        producer
            .write_all(&frame(&GateMsg::Fin { producer: 1 }.encode()))
            .unwrap();
        assert_eq!(recv_ack(&mut producer, &mut dec), GateMsg::FinOk);
        let exit = recv_within(&gate_exit, Duration::from_secs(5)).unwrap();
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
        let torn = Arc::new(AtomicBool::new(false));
        let sink = cell(1, Box::<SlowSum>::default(), Vec::new(), &torn);
        let (persist, _) = channel();
        let (gate, gate_addr, _) = gate_cell(&store, sink.cell.tx(0), persist, &torn);
        let (_, cmds, waker, io) = io_thread();
        command(
            &cmds,
            &waker,
            IoCmd::Deploy {
                generation: 1,
                cells: vec![gate, sink.cell],
                routes: HashMap::new(),
            },
        );
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
        let exit = recv_within(&sink.exit_rx, Duration::from_secs(5)).unwrap();
        assert_eq!(sum_of(&exit.op.snapshot()), 4);
        command(&cmds, &waker, IoCmd::Stop);
        io.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
