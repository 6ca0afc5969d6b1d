//! The worker's event-loop core: one I/O thread multiplexing every
//! peer socket, a small fixed apply pool running operator callbacks.
//!
//! The first TCP worker spent threads freely — one egress pump per
//! cross edge, one detached ingress thread per inbound connection, one
//! host thread per operator — which is O(edges + operators) threads
//! per process and collapses once a worker hosts its share of a
//! 55-HAU sharded topology. This module replaces all of that with a
//! thread count that is O(cores):
//!
//! * **One I/O thread** ([`spawn_io`]) owns the data-plane listener
//!   and every data socket, nonblocking, driven by
//!   [`ms_net::ready::poll`]. Inbound frames are batch-decoded and
//!   delivered to the consuming operator's inbox (a
//!   [`WireMsg::TupleBatch`] frame lands as one inbox push for the
//!   whole run); outbound frames queue in per-connection
//!   [`EgressBuf`]s and drain with vectored writes — many frames per
//!   syscall — when the socket reports writable. Idle means *blocked
//!   in poll*, not sleeping in a loop — no socket traffic, no CPU.
//! * **A fixed apply pool** ([`spawn_pool`], 2–4 threads) runs the
//!   protocol state machine ([`InteriorCore`]) of every interior/sink
//!   HAU. A [`HostCell`] is scheduled onto the pool only while its
//!   inbox is non-empty, with a `scheduled` flag guaranteeing at most
//!   one pool thread ever touches a cell at a time — the core itself
//!   needs no further synchronization.
//!
//! Failure semantics carry over from the pump design unchanged:
//!
//! * An inbound socket that dies **without** [`WireMsg::Eos`] is a
//!   peer failure: the connection is dropped but the consumer's input
//!   is left open and silent (no Eos is synthesized), so a sink can
//!   never mistake a crash for completion. The old implementation
//!   *parked a thread* in a sleep-poll loop to hold the input open;
//!   here absence of a message costs nothing.
//! * An outbound socket that breaks flips its [`EgressBuf`] to
//!   *drain*: pushes are discarded, the producer keeps running. The
//!   discarded tuples are preserved in (or derivable from) the source
//!   logs; the controller's rollback rewinds downstream state behind
//!   them.
//! * Teardown marks the generation's `torn` flag (every producer's
//!   next emission returns `false`, unwinding hosts), instructs the
//!   I/O thread to drop the generation's connections and routes
//!   ([`IoCmd::Tear`]), and schedules every cell once more so its
//!   final [`HostExit`] is flushed even if no message ever arrives.
//!
//! Streams that arrive before their `Assign` (the controller sends
//! assignments concurrently, so a peer can connect first) sit in a
//! *pending* state with **no read interest** — TCP backpressure holds
//! the bytes upstream — until [`IoCmd::Routes`] delivers the route
//! table. This replaces the old 15-second route-wait sleep loop.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};

use ms_core::codec::{frame, FrameDecoder};
use ms_live::{EdgeTx, HostExit, HostMsg, InteriorCore};
use ms_net::fault::{FaultDecision, FaultPlan};
use ms_net::ready::{poll, Interest, PollTarget, Waker};
use ms_net::vectored;

use crate::message::{encode_tuple_batch, WireMsg};

/// Poll timeout. On unix the [`Waker`] interrupts the poll, so this
/// only bounds how stale the non-unix sleep stub can get.
const POLL_TIMEOUT_MS: i32 = 250;
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
/// unix) when the socket is writable — many frames per syscall instead
/// of one. Unbounded by design: the only unbounded producers are
/// throttled sources, and the alternative (blocking a pool thread on a
/// slow socket) stalls unrelated operators.
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

/// Producer-side [`EdgeTx`] over one outbound connection: encode,
/// append to the [`EgressBuf`], wake the I/O thread (coalesced).
/// Returns `false` only when the generation is torn down — a broken
/// socket drains silently, exactly like the old egress pump.
pub(crate) struct EgressHandle {
    pub(crate) buf: Arc<EgressBuf>,
    pub(crate) torn: Arc<AtomicBool>,
    pub(crate) waker: Waker,
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
        self.waker.wake();
        true
    }
}

// ---------------- the apply pool ----------------

/// One interior/sink HAU hosted on the apply pool: the protocol state
/// machine plus its inbox. `scheduled` makes scheduling idempotent —
/// a cell is on the pool's queue at most once, so at most one pool
/// thread runs its core at a time and message order per producer is
/// preserved (each producer appends to the inbox in emission order).
pub(crate) struct HostCell {
    core: Mutex<Option<InteriorCore>>,
    inbox: Mutex<VecDeque<(u32, HostMsg)>>,
    scheduled: AtomicBool,
    /// Generation-level teardown flag (shared with every handle of the
    /// run). A torn cell finishes on its next step.
    torn: Arc<AtomicBool>,
    /// Set once the core has finished: senders get `false` from then
    /// on, mirroring a disconnected channel.
    gone: AtomicBool,
    exits: Sender<HostExit>,
}

impl HostCell {
    pub(crate) fn new(
        core: InteriorCore,
        torn: Arc<AtomicBool>,
        exits: Sender<HostExit>,
    ) -> Arc<HostCell> {
        Arc::new(HostCell {
            core: Mutex::new(Some(core)),
            inbox: Mutex::new(VecDeque::new()),
            scheduled: AtomicBool::new(false),
            torn,
            gone: AtomicBool::new(false),
            exits,
        })
    }

    /// Puts the cell on the pool queue unless it is already there.
    pub(crate) fn schedule(self: &Arc<Self>, work: &WorkQueue) {
        if !self.scheduled.swap(true, Ordering::AcqRel) {
            work.push(self.clone());
        }
    }

    /// One pool-thread visit: drain the inbox through the core, finish
    /// the core if it is done (or the generation is torn), and re-run
    /// if messages raced in behind the drain.
    fn step(self: &Arc<Self>) {
        loop {
            let batch: Vec<(u32, HostMsg)> = {
                let mut q = self.inbox.lock().expect("inbox lock");
                q.drain(..).collect()
            };
            {
                let mut guard = self.core.lock().expect("host core lock");
                if let Some(core) = guard.as_mut() {
                    // The gauge counts tuples, not inbox messages: one
                    // DataBatch is up to hundreds of tuples.
                    let queued: usize = batch.iter().map(|(_, msg)| msg.tuple_count()).sum();
                    core.publish_backpressure(queued as u64);
                    for (port, msg) in batch {
                        core.on_msg(port as usize, msg);
                    }
                    if self.torn.load(Ordering::SeqCst) || core.is_done() {
                        let core = guard.take().expect("core present");
                        self.gone.store(true, Ordering::SeqCst);
                        let _ = self.exits.send(core.finish());
                    }
                }
            }
            // Clear `scheduled` first, then re-check: a producer that
            // appended after the drain either sees `scheduled` still
            // set (and we catch its message here) or re-queues the
            // cell itself. Either way nothing is stranded.
            self.scheduled.store(false, Ordering::Release);
            let rerun = !self.inbox.lock().expect("inbox lock").is_empty()
                || (self.torn.load(Ordering::SeqCst)
                    && self.core.lock().expect("host core lock").is_some());
            if rerun && !self.scheduled.swap(true, Ordering::AcqRel) {
                continue;
            }
            return;
        }
    }
}

/// Local-edge (or ingress-route) [`EdgeTx`]: append to the consumer
/// cell's inbox and schedule it. Port is the consumer's input index
/// for this edge.
#[derive(Clone)]
pub(crate) struct CellTx {
    pub(crate) cell: Arc<HostCell>,
    pub(crate) port: u32,
    pub(crate) work: Arc<WorkQueue>,
}

impl EdgeTx for CellTx {
    fn send(&self, msg: HostMsg) -> bool {
        if self.cell.gone.load(Ordering::SeqCst) || self.cell.torn.load(Ordering::SeqCst) {
            return false;
        }
        self.cell
            .inbox
            .lock()
            .expect("inbox lock")
            .push_back((self.port, msg));
        self.cell.schedule(&self.work);
        true
    }
}

/// The apply pool's work queue: any thread pushes, the pool threads
/// pop. A queue under a `Condvar` rather than an `mpsc` channel whose
/// receiver the pool shares behind a lock: handing that lock from one
/// idle thread to the next costs a second wake-up per cell (msbench
/// `fanout_unique`: 139 → 303 context switches per kevent).
#[derive(Default)]
pub(crate) struct WorkQueue {
    /// Scheduled cells, and whether the queue is closed.
    state: Mutex<(VecDeque<Arc<HostCell>>, bool)>,
    ready: Condvar,
}

impl WorkQueue {
    fn push(&self, cell: Arc<HostCell>) {
        let mut state = self.state.lock().expect("work queue lock");
        state.0.push_back(cell);
        self.ready.notify_one();
    }

    /// Blocks for the next cell; `None` once closed and drained.
    fn pop(&self) -> Option<Arc<HostCell>> {
        let mut state = self.state.lock().expect("work queue lock");
        loop {
            if let Some(cell) = state.0.pop_front() {
                return Some(cell);
            }
            if state.1 {
                return None;
            }
            state = self.ready.wait(state).expect("work queue lock");
        }
    }

    /// Lets the pool threads drain what is queued and exit.
    pub(crate) fn close(&self) {
        self.state.lock().expect("work queue lock").1 = true;
        self.ready.notify_all();
    }
}

/// Spawns the apply pool: `n` threads draining one shared work queue
/// until it is [closed](WorkQueue::close).
pub(crate) fn spawn_pool(n: usize, work: &Arc<WorkQueue>) -> Vec<JoinHandle<()>> {
    (0..n)
        .map(|i| {
            let work = work.clone();
            thread::Builder::new()
                .name(format!("ms-apply-{i}"))
                .spawn(move || {
                    while let Some(cell) = work.pop() {
                        cell.step();
                    }
                })
                .expect("spawn apply pool thread")
        })
        .collect()
}

/// The apply-pool width for this machine: a couple of threads is
/// enough to keep operator work off the I/O thread without growing
/// the per-process thread budget past O(cores).
pub(crate) fn pool_width() -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        .clamp(2, 4)
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
    /// Install a generation's ingress route table: `(from, to)` →
    /// consumer inbox. Resolves any pending streams that connected
    /// before the assignment arrived.
    Routes {
        /// Generation the routes belong to.
        generation: u64,
        /// `(producer op, consumer op)` → the consumer's edge handle.
        map: HashMap<(u32, u32), CellTx>,
    },
    /// Drop every connection and route of generations `<= generation`.
    /// Streams still awaiting their hello are kept and checked against
    /// the raised floor when the hello arrives.
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
    /// [`IoCmd::Routes`] resolves it.
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
    Egress(usize),
}

/// Spawns the I/O thread over the (nonblocking) data-plane listener.
/// `waker` must be the same waker handed to every [`EgressHandle`]
/// and used when sending on `cmds`.
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
                min_gen: 0,
                plan,
            };
            io.run();
        })
        .expect("spawn io thread")
}

impl Io {
    fn run(&mut self) {
        loop {
            if !self.drain_cmds() {
                return;
            }
            let (targets, slots) = self.build_poll_set();
            let ready = match poll(&targets, POLL_TIMEOUT_MS) {
                Ok(r) => r,
                Err(_) => continue,
            };
            let mut dead_in: Vec<usize> = Vec::new();
            let mut dead_out: Vec<usize> = Vec::new();
            for ev in ready {
                match slots[ev.token] {
                    Slot::Waker => self.waker.drain(),
                    Slot::Listener => self.accept_ready(),
                    Slot::Ingress(i) => {
                        if ev.readable && !self.ingress_ready(i) {
                            dead_in.push(i);
                        }
                    }
                    Slot::Egress(j) => {
                        if ev.writable || ev.hangup {
                            let c = &mut self.egress[j];
                            if c.buf.write_to(&mut c.stream).is_err() {
                                dead_out.push(j);
                            }
                        }
                    }
                }
            }
            // Drop dead connections, highest index first so the
            // remaining indices stay valid.
            dead_in.sort_unstable_by(|a, b| b.cmp(a));
            for i in dead_in {
                self.ingress.swap_remove(i);
            }
            dead_out.sort_unstable_by(|a, b| b.cmp(a));
            for j in dead_out {
                self.egress.swap_remove(j);
            }
        }
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
                IoCmd::Routes { generation, map } => {
                    if generation < self.min_gen {
                        continue;
                    }
                    for ((from, to), tx) in map {
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
        add(raw_fd(&self.listener), Slot::Listener, Interest::READ);
        for (i, c) in self.ingress.iter().enumerate() {
            // Pending streams keep no read interest: the bytes wait in
            // the socket (and eventually the peer's send buffer) until
            // the route arrives. Hangup is still reported.
            let want = match c.state {
                IngressState::Pending { .. } => Interest::default(),
                _ => Interest::READ,
            };
            add(raw_fd(&c.stream), Slot::Ingress(i), want);
        }
        for (j, c) in self.egress.iter().enumerate() {
            if !c.buf.is_empty() {
                add(raw_fd(&c.stream), Slot::Egress(j), Interest::WRITE);
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
/// With a fault `plan`, every frame consults the per-edge decision
/// first. A `Delay` sleeps on the I/O thread before delivery — crude,
/// but exactly what a slow link does to everything multiplexed behind
/// it. `Drop` and `Sever` both kill the connection *without* an Eos,
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
        if let Some(plan) = plan {
            match plan.on_frame(generation, from, to) {
                FaultDecision::Deliver => {}
                FaultDecision::Delay(d) => thread::sleep(d),
                FaultDecision::Drop | FaultDecision::Sever => return false,
            }
        }
        let msg = match WireMsg::decode(&frame) {
            // Batch-decode: the whole run becomes one shared slice and
            // one inbox push — the apply pool schedules one HostCell
            // visit for the batch instead of one per tuple. The fault
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

/// The descriptor [`ms_net::ready::poll`] watches for a socket.
#[cfg(unix)]
pub(crate) fn raw_fd<T: std::os::unix::io::AsRawFd>(t: &T) -> PollTarget {
    t.as_raw_fd()
}

#[cfg(not(unix))]
pub(crate) fn raw_fd<T>(_t: &T) -> PollTarget {
    -1
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use crate::message::send_msg;
    use ms_core::ids::OperatorId;
    use ms_core::ids::{EpochId, PortId};
    use ms_core::metrics::BackpressureMeter;
    use ms_core::operator::{Operator, OperatorContext, OperatorSnapshot};
    use ms_core::tuple::Tuple;
    use ms_core::value::Value;
    use ms_live::{HostWiring, PersistItem};
    use std::sync::mpsc::channel;
    use std::time::Duration;

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
            let mut b = [0u8; 8];
            b.copy_from_slice(&snap.data);
            self.0 = i64::from_le_bytes(b);
            Ok(())
        }
    }

    fn recv_within<T>(rx: &Receiver<T>, d: Duration) -> Option<T> {
        rx.recv_timeout(d).ok()
    }

    /// Everything a test needs to drive one summing sink cell: the
    /// cell itself, its exit channel, and the work queue a pool (or
    /// the test directly) drains.
    struct SinkRig {
        cell: Arc<HostCell>,
        exit_rx: Receiver<HostExit>,
        work: Arc<WorkQueue>,
        meter: Arc<BackpressureMeter>,
    }

    fn sink_cell(torn: &Arc<AtomicBool>, n_in: usize) -> SinkRig {
        // No persister: these tests never read a checkpoint back, so
        // the cell's captures are dropped unwritten.
        let (ptx, _) = channel::<PersistItem>();
        let meter = Arc::new(BackpressureMeter::new());
        let wiring = HostWiring {
            op_id: OperatorId(1),
            op: Box::new(Sum::default()),
            outputs: Vec::new(),
            restored_seq: 0,
            resume_seq: Vec::new(),
            in_flight: Vec::new(),
            last_durable: None,
            persist_in_flight: true,
            meter: Some(meter.clone()),
            telemetry: None,
        };
        let core = InteriorCore::new(wiring, n_in, ptx);
        let (exit_tx, exit_rx) = channel();
        let cell = HostCell::new(core, torn.clone(), exit_tx);
        SinkRig {
            cell,
            exit_rx,
            work: Arc::default(),
            meter,
        }
    }

    #[test]
    fn cell_applies_batches_and_finishes_on_eos() {
        let torn = Arc::new(AtomicBool::new(false));
        let SinkRig {
            cell,
            exit_rx,
            work,
            ..
        } = sink_cell(&torn, 1);
        let pool = spawn_pool(2, &work);
        let tx = CellTx {
            cell: cell.clone(),
            port: 0,
            work: work.clone(),
        };
        for v in 0..100i64 {
            let t = Tuple::new(
                OperatorId(0),
                v as u64,
                ms_core::time::SimTime::ZERO,
                vec![Value::Int(v)],
            );
            assert!(tx.send(HostMsg::DataBatch([t].into())));
        }
        tx.send(HostMsg::Token(EpochId(1)));
        tx.send(HostMsg::Eos);
        let exit = recv_within(&exit_rx, Duration::from_secs(5)).unwrap();
        assert!(exit.error.is_none());
        let mut b = [0u8; 8];
        b.copy_from_slice(&exit.op.snapshot().data);
        assert_eq!(i64::from_le_bytes(b), (0..100).sum::<i64>());
        // Finished cell refuses further sends.
        assert!(!tx.send(HostMsg::Eos));
        work.close();
        drop(tx);
        for p in pool {
            p.join().unwrap();
        }
    }

    #[test]
    fn queue_gauge_counts_tuples_not_inbox_messages() {
        let torn = Arc::new(AtomicBool::new(false));
        let rig = sink_cell(&torn, 1);
        let tx = CellTx {
            cell: rig.cell.clone(),
            port: 0,
            work: rig.work.clone(),
        };
        let tup = |seq: u64| {
            Tuple::new(
                OperatorId(0),
                seq,
                ms_core::time::SimTime::ZERO,
                vec![Value::Int(1)],
            )
        };
        // Four inbox messages carrying 1 + 3 + 0 + 2 tuples; no pool
        // runs, so one direct step drains exactly this inbox.
        tx.send(HostMsg::DataBatch([tup(0)].into()));
        tx.send(HostMsg::DataBatch((1..4).map(tup).collect()));
        tx.send(HostMsg::Token(EpochId(1)));
        tx.send(HostMsg::DataBatch((4..6).map(tup).collect()));
        rig.cell.step();
        assert_eq!(rig.meter.sample().queued_tuples, 6);
    }

    #[test]
    fn torn_cell_flushes_exit_without_traffic() {
        let torn = Arc::new(AtomicBool::new(false));
        let SinkRig {
            cell,
            exit_rx,
            work,
            ..
        } = sink_cell(&torn, 1);
        let pool = spawn_pool(2, &work);
        torn.store(true, Ordering::SeqCst);
        cell.schedule(&work);
        let exit = recv_within(&exit_rx, Duration::from_secs(5)).unwrap();
        assert_eq!(exit.op_id, OperatorId(1));
        work.close();
        drop(cell);
        for p in pool {
            p.join().unwrap();
        }
    }

    #[test]
    fn io_routes_stream_even_when_hello_races_routes() {
        // Connect and send the hello BEFORE the route table is
        // installed: the stream must park as Pending and resolve on
        // IoCmd::Routes, with no data lost.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();
        let waker = Waker::new().unwrap();
        let (cmd_tx, cmd_rx) = channel();
        let io = spawn_io(listener, waker.clone(), cmd_rx, None);

        let mut peer = TcpStream::connect(addr).unwrap();
        send_msg(
            &mut peer,
            &WireMsg::StreamHello {
                generation: 1,
                from: OperatorId(0),
                to: OperatorId(1),
            },
        )
        .unwrap();
        for v in 0..10i64 {
            send_msg(
                &mut peer,
                &WireMsg::TupleBatch(vec![Tuple::new(
                    OperatorId(0),
                    v as u64,
                    ms_core::time::SimTime::ZERO,
                    vec![Value::Int(v)],
                )]),
            )
            .unwrap();
        }
        // Give the io thread time to accept and park the stream.
        std::thread::sleep(Duration::from_millis(100));

        let torn = Arc::new(AtomicBool::new(false));
        let SinkRig {
            cell,
            exit_rx,
            work,
            ..
        } = sink_cell(&torn, 1);
        let pool = spawn_pool(2, &work);
        let mut map = HashMap::new();
        map.insert(
            (0u32, 1u32),
            CellTx {
                cell: cell.clone(),
                port: 0,
                work: work.clone(),
            },
        );
        assert!(cmd_tx.send(IoCmd::Routes { generation: 1, map }).is_ok());
        waker.wake();
        send_msg(&mut peer, &WireMsg::Eos).unwrap();

        let exit = recv_within(&exit_rx, Duration::from_secs(5)).unwrap();
        let mut b = [0u8; 8];
        b.copy_from_slice(&exit.op.snapshot().data);
        assert_eq!(i64::from_le_bytes(b), (0..10).sum::<i64>());

        assert!(cmd_tx.send(IoCmd::Stop).is_ok());
        waker.wake();
        io.join().unwrap();
        work.close();
        drop(cell);
        for p in pool {
            p.join().unwrap();
        }
    }

    #[test]
    fn bare_close_does_not_deliver_eos() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();
        let waker = Waker::new().unwrap();
        let (cmd_tx, cmd_rx) = channel();
        let io = spawn_io(listener, waker.clone(), cmd_rx, None);

        let torn = Arc::new(AtomicBool::new(false));
        let SinkRig {
            cell,
            exit_rx,
            work,
            ..
        } = sink_cell(&torn, 1);
        let pool = spawn_pool(2, &work);
        let mut map = HashMap::new();
        map.insert(
            (0u32, 1u32),
            CellTx {
                cell: cell.clone(),
                port: 0,
                work: work.clone(),
            },
        );
        assert!(cmd_tx.send(IoCmd::Routes { generation: 1, map }).is_ok());
        waker.wake();

        let mut peer = TcpStream::connect(addr).unwrap();
        send_msg(
            &mut peer,
            &WireMsg::StreamHello {
                generation: 1,
                from: OperatorId(0),
                to: OperatorId(1),
            },
        )
        .unwrap();
        send_msg(
            &mut peer,
            &WireMsg::TupleBatch(vec![Tuple::new(
                OperatorId(0),
                0,
                ms_core::time::SimTime::ZERO,
                vec![Value::Int(7)],
            )]),
        )
        .unwrap();
        drop(peer); // crash, not Eos

        // The consumer must NOT finish: no Eos was ever sent.
        assert!(recv_within(&exit_rx, Duration::from_millis(600)).is_none());

        // Teardown still flushes the exit.
        torn.store(true, Ordering::SeqCst);
        cell.schedule(&work);
        let exit = recv_within(&exit_rx, Duration::from_secs(5)).unwrap();
        let mut b = [0u8; 8];
        b.copy_from_slice(&exit.op.snapshot().data);
        assert_eq!(i64::from_le_bytes(b), 7);

        assert!(cmd_tx.send(IoCmd::Stop).is_ok());
        waker.wake();
        io.join().unwrap();
        work.close();
        drop(cell);
        for p in pool {
            p.join().unwrap();
        }
    }
}
