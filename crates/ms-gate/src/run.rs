//! [`Gate`]: one gateway HAU as a state machine the worker's I/O thread
//! drives — any number of producer connections, no thread of its own.
//!
//! The gate's listener and producer sockets join its host's one
//! [`ms_net::ready::poll`] set ([`Gate::poll_entries`], [`Gate::on_ready`]).
//! Per connection it keeps a [`FrameDecoder`] for inbound frames and a
//! pending-ack buffer drained on write readiness, so a slow producer
//! can never stall the host.
//!
//! Ingest leaves each batch where the socket delivered it. A readable
//! connection is read straight into its decoder's buffer
//! ([`FrameDecoder::read_from`]) until a short read; each complete
//! frame is popped as a slice of that buffer and handed to
//! [`GateCore::on_frame`], which checks a batch's every event in place
//! and folds them into tuples without an intermediate copy. The only
//! per-batch allocations are the tuples themselves.
//!
//! The durability order per accepted batch is the whole contract:
//! admit → stamp tuples → append to the preservation log (`Err` is
//! fatal: the gate stops streaming rather than ack unpreserved data)
//! → queue onto engine edges → queue `Accepted`. [`Gate::on_ready`]
//! *stages* every batch admitted during one poll turn — across all
//! ready producer connections — and [`Gate::commit`] commits the lot
//! with a single [`StableStore::append_log_batch`]: one lock, one
//! encode buffer, one `write(2)` for the whole group. Only after that
//! append returns are the tuples routed and the `Accepted` / `FinOk`
//! acks queued, so an ack still implies durability, and a storage
//! error still stops the gate with nothing from the group acked. A
//! SIGKILL between WAL and ack re-delivers via the producer's retry,
//! which the rebuilt dedup table answers with `Accepted` and no
//! re-admission.
//!
//! The gate is a driver for [`ms_live::SourceCore`], which owns that
//! preserve-then-route order, recovery replay, and the checkpoint
//! sequence every source host runs: mark the stream boundary durably,
//! hand the dedup snapshot to the persister, broadcast the token. The
//! gate then reopens its admission window.

use std::fs;
use std::io::{ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::ops::Range;
use std::os::unix::io::AsRawFd;
use std::path::Path;
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Instant;

use ms_core::codec::{frame, FrameDecoder, READ_CHUNK};
use ms_core::error::Result;
use ms_core::gate::{GateConfig, GateMsg};
use ms_core::ids::{EpochId, OperatorId, PortId};
use ms_core::metrics::OperatorMeter;
use ms_core::operator::{DeferredSnapshot, Operator, OperatorContext, OperatorSnapshot};
use ms_core::tuple::Tuple;
use ms_live::{Capture, HostExit, Outbox, OutputRoute, PersistItem, SourceCore, StableStore};
use ms_net::ready::{Interest, PollTarget, ReadyEvent};

use crate::admission::{is_fin_marker, Admission, FrameStep, GateCore};
use crate::meter::{GateMeter, GateSample};

/// Everything [`Gate::new`] needs to host one gateway HAU.
pub struct GateWiring {
    /// The gateway's operator id (stamped on emitted tuples).
    pub op_id: OperatorId,
    /// Admission/pre-agg configuration.
    pub cfg: GateConfig,
    /// One route per logical consumer; every emitted tuple is
    /// delivered to each route (a gateway fans out like a source).
    pub outputs: Vec<OutputRoute>,
    /// The producer listener, already bound and published ([`listen`]).
    pub listener: TcpListener,
    /// Restored checkpoint (dedup snapshot + `next_seq`), if any.
    pub restored: Option<OperatorSnapshot>,
    /// First emission sequence (the restored checkpoint's `next_seq`,
    /// else 0).
    pub restored_seq: u64,
    /// Preserved tuples to resend before accepting traffic (recovery);
    /// also rebuilds the dedup table for batches WAL'd after the mark.
    pub replay: Vec<Tuple>,
    /// Standard per-operator meter (checkpoint phases, tuples out);
    /// `None` disables.
    pub telemetry: Option<Arc<OperatorMeter>>,
}

/// The inert [`Operator`] a finished gateway hands back in its
/// [`HostExit`] — it carries the final dedup snapshot so generic exit
/// handling (which expects an operator) keeps working.
pub struct GateOp {
    state: OperatorSnapshot,
}

impl GateOp {
    /// Wraps a final gateway state.
    pub fn new(state: OperatorSnapshot) -> GateOp {
        GateOp { state }
    }
}

impl Operator for GateOp {
    fn kind(&self) -> &'static str {
        "Gate"
    }
    fn on_tuple(&mut self, _port: PortId, _tuple: Tuple, _ctx: &mut dyn OperatorContext) {}
    fn state_size(&self) -> u64 {
        self.state.logical_bytes
    }
    fn snapshot(&self) -> OperatorSnapshot {
        self.state.clone()
    }
    fn restore(&mut self, snapshot: &OperatorSnapshot) -> Result<()> {
        self.state = snapshot.clone();
        Ok(())
    }
}

/// One producer connection.
struct Conn {
    sock: TcpStream,
    dec: FrameDecoder,
    /// Pending ack bytes, drained on write readiness.
    out: Vec<u8>,
    /// Bound by the connection's `Hello`.
    producer: Option<u64>,
    gone: bool,
}

impl Conn {
    fn new(sock: TcpStream) -> Conn {
        Conn {
            sock,
            dec: FrameDecoder::new(),
            out: Vec::new(),
            producer: None,
            gone: false,
        }
    }

    fn queue(&mut self, msg: &GateMsg) {
        self.out.extend_from_slice(&frame(&msg.encode()));
    }

    /// Writes as much of the pending ack buffer as the socket takes.
    fn flush(&mut self) {
        while !self.out.is_empty() {
            match self.sock.write(&self.out) {
                Ok(0) => {
                    self.gone = true;
                    return;
                }
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.gone = true;
                    return;
                }
            }
        }
    }

    /// Reads one chunk from the socket into the frame decoder; `true`
    /// if the socket may hold more (the read filled the chunk).
    fn read_chunk(&mut self) -> bool {
        loop {
            match self.dec.read_from(&mut self.sock) {
                Ok(0) => {
                    self.gone = true;
                    return false;
                }
                Ok(n) => return n == READ_CHUNK,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.gone = true;
                    return false;
                }
            }
        }
    }
}

/// One accepted batch staged for this poll turn's group commit.
struct PendingAccept {
    /// Index of the producer connection to ack.
    conn: usize,
    /// Batch id for the `Accepted` ack.
    batch: u64,
    /// The batch's tuples inside [`Turn::wal`].
    range: Range<usize>,
    /// Admission instant, for the ack-latency meter.
    start: Instant,
}

/// Everything admitted during one poll turn, awaiting the turn's
/// single group append. Nothing in here is routed or acked until that
/// append returns — the staged form *is* the ack-after-WAL contract.
#[derive(Default)]
struct Turn {
    /// WAL records — pre-aggregated tuples and Fin markers — in
    /// admission (= sequence) order across every ready connection.
    wal: Vec<Tuple>,
    accepts: Vec<PendingAccept>,
    /// Connections owed a `FinOk` once the turn commits.
    fins: Vec<usize>,
}

impl Turn {
    fn is_empty(&self) -> bool {
        self.wal.is_empty() && self.accepts.is_empty() && self.fins.is_empty()
    }
}

/// Binds a nonblocking producer listener and publishes its address
/// (temp file + atomic rename) so producers discover the gate after
/// every (re)deploy. `None` skips publication.
pub fn listen(addr: &str, addr_file: Option<&Path>) -> Result<TcpListener> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    if let Some(path) = addr_file {
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, listener.local_addr()?.to_string())?;
        fs::rename(&tmp, path)?;
    }
    Ok(listener)
}

/// One gateway HAU. Its host calls, each turn: [`Gate::poll_entries`]
/// into the poll set, [`Gate::on_ready`] per ready entry, then
/// [`Gate::commit`] and [`Gate::flush_acks`]; [`Gate::checkpoint`] on
/// command; [`Gate::finish`] once [`Gate::is_done`] or at teardown. It
/// moves what the gate emitted with [`Gate::take_outbox`].
pub struct Gate {
    op: OperatorId,
    core: GateCore,
    src: SourceCore,
    listener: TcpListener,
    conns: Vec<Conn>,
    turn: Turn,
    meter: GateMeter,
    all_fin: bool,
    failed: bool,
}

impl Gate {
    /// Restores the admission state, folds the preserved tuples' batch
    /// ids and Fin markers back into it, and resends them, before any
    /// producer batch is admitted. A restore error stops the gate.
    pub fn new(w: GateWiring, store: Arc<dyn StableStore>, persist: Sender<PersistItem>) -> Gate {
        let mut core = GateCore::new(w.op_id, w.cfg);
        let mut src = SourceCore::new(
            w.op_id,
            w.outputs,
            w.restored_seq,
            None,
            store,
            persist,
            w.telemetry,
        );
        let restored = w.restored.as_ref().map_or(Ok(()), |s| core.restore(s));
        let failed = restored.is_err();
        match restored {
            // The preserved tuples were durable — and their batches
            // possibly acked — before the crash. Fin markers are WAL-only:
            // they must not reach downstream operators, whose tuple counts
            // would diverge from the unfailed run.
            Ok(()) => {
                core.rebuild_from_replay(&w.replay);
                src.replay(w.replay, |t| !is_fin_marker(t));
            }
            Err(e) => src.fail(e),
        }
        // Every expected producer already Fin'd before the crash: their
        // FinOk acks were durable promises, so the recovered gate closes
        // the stream instead of waiting forever for Fins that will never
        // be re-sent (the producers exited on their acks).
        let all_fin = core.all_finished();
        Gate {
            op: w.op_id,
            core,
            src,
            listener: w.listener,
            conns: Vec::new(),
            turn: Turn::default(),
            meter: GateMeter::default(),
            all_fin,
            failed,
        }
    }

    /// The descriptors to poll this turn, in entry order: the listener
    /// (entry 0), then one per producer connection — with write
    /// interest while it owes acks.
    pub fn poll_entries(&self) -> impl Iterator<Item = (PollTarget, Interest)> + '_ {
        let conns = self.conns.iter().map(|c| {
            let want = if c.out.is_empty() {
                Interest::READ
            } else {
                Interest::BOTH
            };
            (c.sock.as_raw_fd(), want)
        });
        std::iter::once((self.listener.as_raw_fd(), Interest::READ)).chain(conns)
    }

    /// Handles readiness of poll entry `entry`: accepts every pending
    /// connection, or flushes acks / reads and stages frames on one.
    /// Entries stay valid until [`Gate::flush_acks`].
    pub fn on_ready(&mut self, entry: usize, ev: &ReadyEvent) {
        let Some(idx) = entry.checked_sub(1) else {
            self.accept();
            return;
        };
        let Some(conn) = self.conns.get_mut(idx) else {
            return;
        };
        if ev.writable {
            conn.flush();
        }
        if !ev.readable {
            return;
        }
        // Stage between reads, so the decoder holds at most one chunk
        // beyond a partial frame however much the producer sends.
        loop {
            let more = self.conns[idx].read_chunk();
            self.stage(idx);
            if !more {
                return;
            }
        }
    }

    /// Handles every complete frame buffered on one connection, staging
    /// admitted work into `turn` for the turn's group commit. Protocol
    /// violations just drop the connection (producers are unreliable by
    /// design); acks queued here (duplicates, sheds) are not flushed
    /// until the turn commits, so no ack can overtake the group's WAL
    /// append.
    fn stage(&mut self, conn_idx: usize) {
        let (conn, next_seq) = (&mut self.conns[conn_idx], self.src.next_seq_mut());
        while !conn.gone {
            let payload = match conn.dec.pop_frame() {
                Ok(Some(p)) => p,
                Ok(None) => break,
                Err(_) => {
                    conn.gone = true;
                    break;
                }
            };
            let start = Instant::now();
            match self.core.on_frame(next_seq, &mut conn.producer, payload) {
                FrameStep::Hello => {}
                FrameStep::Batch { batch, admission } => match admission {
                    Admission::Accept(tuples) => {
                        // Stage for the group commit: the tuples are
                        // owned, so they move straight into the WAL
                        // batch — no per-tuple clone on this path.
                        let range = self.turn.wal.len()..self.turn.wal.len() + tuples.len();
                        self.turn.wal.extend(tuples);
                        self.turn.accepts.push(PendingAccept {
                            conn: conn_idx,
                            batch,
                            range,
                            start,
                        });
                    }
                    Admission::Duplicate => {
                        // The original admission was WAL'd before its
                        // ack, so a duplicate can re-ack without
                        // touching storage. The queued bytes still
                        // only flush after this turn's commit.
                        conn.queue(&GateMsg::Accepted { batch });
                        self.meter.record_ack_us(start.elapsed().as_micros() as u64);
                    }
                    Admission::Shed => {
                        self.meter.record_shed();
                        conn.queue(&GateMsg::Busy {
                            batch,
                            retry_after_ms: self.core.retry_after_ms(),
                        });
                    }
                },
                FrameStep::Fin { marker } => {
                    // Ack-after-WAL for Fin too: the marker rides this
                    // turn's group append, and FinOk is only queued after
                    // it returns — so a durable FinOk still implies a
                    // durable marker, a rollback past the last checkpoint
                    // replays it, and the recovered gate counts the
                    // producer as done. Retried Fins re-ack without
                    // re-appending.
                    self.turn.wal.extend(marker);
                    if self.core.all_finished() {
                        self.all_fin = true;
                    }
                    self.turn.fins.push(conn_idx);
                }
                FrameStep::Drop => conn.gone = true,
            }
        }
    }

    fn accept(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((sock, _peer)) => {
                    let _ = sock.set_nodelay(true);
                    if sock.set_nonblocking(true).is_ok() {
                        self.conns.push(Conn::new(sock));
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// The group commit: one append covering every batch and Fin
    /// marker staged this turn, then — and only then — routing (both in
    /// [`SourceCore::send`]), metering and ack queueing. A storage
    /// failure stops the gate with nothing from the group acked.
    pub fn commit(&mut self) {
        if self.turn.is_empty() {
            return;
        }
        let turn = &mut self.turn;
        let Some(wal_bytes) = self
            .src
            .send(&turn.wal, turn.accepts.iter().map(|acc| acc.range.clone()))
        else {
            self.failed = true;
            return;
        };
        self.meter.record_wal_bytes(wal_bytes);
        for acc in turn.accepts.drain(..) {
            self.meter.record_accept();
            if let Some(c) = self.conns.get_mut(acc.conn) {
                c.queue(&GateMsg::Accepted { batch: acc.batch });
            }
            self.meter
                .record_ack_us(acc.start.elapsed().as_micros() as u64);
        }
        for ci in turn.fins.drain(..) {
            if let Some(c) = self.conns.get_mut(ci) {
                c.queue(&GateMsg::FinOk);
            }
        }
        turn.wal.clear();
    }

    /// Writes every connection's pending acks as far as its socket
    /// takes them, then drops the connections that went away.
    pub fn flush_acks(&mut self) {
        for c in &mut self.conns {
            if !c.out.is_empty() {
                c.flush();
            }
        }
        self.conns.retain(|c| !c.gone);
    }

    /// The source checkpoint of the dedup table, then a fresh admission
    /// window. It commits what this turn staged first, so a cut never
    /// splits a group commit: every tuple below the mark is in the WAL
    /// and routed ahead of the token. A failed mark stops the gate.
    pub fn checkpoint(&mut self, epoch: EpochId) {
        self.commit();
        let capture = Capture::full(|| DeferredSnapshot::Ready(self.core.snapshot()));
        let state_bytes = capture.snapshot.logical_bytes();
        if self.src.checkpoint(epoch, capture, state_bytes) {
            self.core.reset_window();
        } else {
            self.failed = true;
        }
    }

    /// The gate's operator and a reading of its meter, for the
    /// heartbeat.
    pub fn sample(&self) -> (OperatorId, GateSample) {
        (self.op, self.meter.sample())
    }

    /// Whether every expected producer sent `Fin` or storage failed;
    /// asked after [`Gate::commit`], so the last `FinOk`s are queued.
    pub fn is_done(&self) -> bool {
        self.all_fin || self.failed
    }

    /// Everything the gate's source core queued downstream since the
    /// last take: the recovery replay, committed batches, tokens.
    pub fn take_outbox(&mut self) -> Outbox {
        self.src.take_outbox()
    }

    /// Best-effort delivery of pending acks, then EOS queued on every
    /// route: the exit record and the last of the outbox.
    pub fn finish(mut self) -> (HostExit, Outbox) {
        for c in &mut self.conns {
            c.flush();
        }
        self.src.finish(Box::new(GateOp::new(self.core.snapshot())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_core::gate::EVENT_BYTES;
    use ms_core::value::Value;
    use ms_live::{FsStore, HostMsg, Persister};
    use ms_net::ready::poll;
    use std::path::PathBuf;
    use std::sync::mpsc::{channel, Receiver};
    use std::sync::Mutex;
    use std::time::Duration;

    /// Hosts a gate the way the worker's I/O thread does, on a thread
    /// of its own: one poll over the gate's entries, readiness, queued
    /// checkpoints, the group commit and the ack flush per turn, then
    /// the gate's outbox onto `edge`. Each turn's meter reading lands
    /// in `meter` before the turn's acks go out.
    fn pump(
        mut gate: Gate,
        checkpoints: Receiver<EpochId>,
        edge: Sender<HostMsg>,
        meter: Arc<Mutex<GateSample>>,
    ) -> HostExit {
        let forward = |outbox: Outbox| {
            for (_, msg) in outbox {
                let _ = edge.send(msg);
            }
        };
        forward(gate.take_outbox());
        loop {
            let entries: Vec<_> = gate
                .poll_entries()
                .enumerate()
                .map(|(entry, (fd, want))| (fd, entry, want))
                .collect();
            for ev in poll(&entries, 5).unwrap() {
                gate.on_ready(ev.token, &ev);
            }
            while let Ok(epoch) = checkpoints.try_recv() {
                gate.checkpoint(epoch);
            }
            gate.commit();
            *meter.lock().unwrap() = gate.sample().1;
            gate.flush_acks();
            forward(gate.take_outbox());
            if gate.is_done() {
                let (exit, outbox) = gate.finish();
                forward(outbox);
                return exit;
            }
        }
    }

    fn send(sock: &mut TcpStream, msg: &GateMsg) {
        sock.write_all(&frame(&msg.encode())).unwrap();
    }

    fn recv(sock: &mut TcpStream, dec: &mut FrameDecoder) -> GateMsg {
        loop {
            if let Some(p) = dec.next_frame().unwrap() {
                return GateMsg::decode(&p).unwrap();
            }
            let n = dec.read_from(sock).unwrap();
            assert!(n > 0, "gateway closed mid-conversation");
        }
    }

    fn recv_host(rx: &Receiver<HostMsg>) -> HostMsg {
        rx.recv_timeout(Duration::from_secs(10))
            .expect("engine edge delivers within the deadline")
    }

    fn wait_addr(path: &std::path::Path) -> String {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok(s) = fs::read_to_string(path) {
                if !s.is_empty() {
                    return s;
                }
            }
            assert!(Instant::now() < deadline, "gateway never published addr");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// A gate hosted by [`pump`] and everything its tests inspect.
    struct Hosted {
        addr: String,
        cmd_tx: Sender<EpochId>,
        rx: Receiver<HostMsg>,
        store: Arc<FsStore>,
        meter: Arc<Mutex<GateSample>>,
        handle: std::thread::JoinHandle<HostExit>,
        dir: PathBuf,
    }

    fn start_gate(tag: &str, cfg: GateConfig) -> Hosted {
        let dir = std::env::temp_dir().join(format!("ms_gate_run_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let store = Arc::new(FsStore::open(dir.join("store"), 1).unwrap());
        let persister = Persister::spawn(store.clone());
        let persist = persister.sender();
        let (cmd_tx, cmd_rx) = channel();
        let (tx, rx) = channel::<HostMsg>();
        let addr_file = dir.join("gate.addr");
        let meter = Arc::new(Mutex::new(GateSample::default()));
        let wiring = GateWiring {
            op_id: OperatorId(0),
            cfg,
            outputs: vec![OutputRoute::single(0)],
            listener: listen("127.0.0.1:0", Some(&addr_file)).unwrap(),
            restored: None,
            restored_seq: 0,
            replay: Vec::new(),
            telemetry: None,
        };
        let (store2, meter2) = (store.clone(), meter.clone());
        let handle = std::thread::spawn(move || {
            let exit = pump(Gate::new(wiring, store2, persist), cmd_rx, tx, meter2);
            drop(persister);
            exit
        });
        let addr = wait_addr(&addr_file);
        Hosted {
            addr,
            cmd_tx,
            rx,
            store,
            meter,
            handle,
            dir,
        }
    }

    #[test]
    fn metered_wal_bytes_are_the_bytes_the_log_grew_by() {
        let g = start_gate(
            "walbytes",
            GateConfig {
                expected_producers: 2,
                ..GateConfig::default()
            },
        );
        let log = g.dir.join("store").join("log").join("op0.log");
        let mut a = TcpStream::connect(&g.addr).unwrap();
        let mut da = FrameDecoder::new();
        send(&mut a, &GateMsg::Hello { producer: 1 });
        // One acked batch per turn, of varied sizes and values, then
        // both Fins: every append is metered, Fin markers included.
        for batch in 1..=6u64 {
            let events = (0..batch * 37)
                .map(|i| (i * 7, (i * batch) as i64 - 90))
                .collect();
            send(&mut a, &GateMsg::Batch { batch, events });
            assert_eq!(recv(&mut a, &mut da), GateMsg::Accepted { batch });
            let grown = fs::metadata(&log).unwrap().len();
            assert_eq!(
                g.meter.lock().unwrap().wal_bytes,
                grown,
                "after batch {batch}"
            );
        }
        send(&mut a, &GateMsg::Fin { producer: 1 });
        assert_eq!(recv(&mut a, &mut da), GateMsg::FinOk);
        let mut b = TcpStream::connect(&g.addr).unwrap();
        let mut db = FrameDecoder::new();
        send(&mut b, &GateMsg::Fin { producer: 2 });
        assert_eq!(recv(&mut b, &mut db), GateMsg::FinOk);
        assert!(g.handle.join().unwrap().error.is_none());
        assert_eq!(
            g.store.preserved_tuples(),
            (1..=6).map(|b| b * 37).sum::<u64>() as usize + 2
        );
        assert_eq!(
            g.meter.lock().unwrap().wal_bytes,
            fs::metadata(&log).unwrap().len()
        );
        let _ = fs::remove_dir_all(&g.dir);
    }

    #[test]
    fn acks_after_wal_dedups_and_closes_on_fin() {
        let g = start_gate(
            "fin",
            GateConfig {
                expected_producers: 2,
                ..GateConfig::default()
            },
        );
        let mut a = TcpStream::connect(&g.addr).unwrap();
        let mut da = FrameDecoder::new();
        send(&mut a, &GateMsg::Hello { producer: 1 });
        send(
            &mut a,
            &GateMsg::Batch {
                batch: 1,
                events: vec![(5, 10), (5, 20), (8, 1)],
            },
        );
        assert_eq!(recv(&mut a, &mut da), GateMsg::Accepted { batch: 1 });
        // The ack means the WAL already holds the pre-aggregated
        // tuples: keys 5 and 8 → two records.
        assert_eq!(g.store.preserved_tuples(), 2);
        // A retry of the same batch re-acks without re-admitting.
        send(
            &mut a,
            &GateMsg::Batch {
                batch: 1,
                events: vec![(5, 10), (5, 20), (8, 1)],
            },
        );
        assert_eq!(recv(&mut a, &mut da), GateMsg::Accepted { batch: 1 });
        assert_eq!(g.store.preserved_tuples(), 2, "duplicate admitted nothing");
        // Checkpoint: the token rides the engine edge behind the data.
        g.cmd_tx.send(EpochId(1)).unwrap();
        let mut got_tuples = Vec::new();
        loop {
            match recv_host(&g.rx) {
                HostMsg::DataBatch(b) => got_tuples.extend(b.iter().cloned()),
                HostMsg::Token(e) => {
                    assert_eq!(e, EpochId(1));
                    break;
                }
                HostMsg::Eos => panic!("premature EOS"),
            }
        }
        assert_eq!(got_tuples.len(), 2);
        assert_eq!(
            got_tuples[0].field(0).and_then(Value::as_int),
            Some(30),
            "per-key fold: 10+20 on key 5"
        );
        // Fin from both producers closes the stream.
        send(&mut a, &GateMsg::Fin { producer: 1 });
        assert_eq!(recv(&mut a, &mut da), GateMsg::FinOk);
        let mut b = TcpStream::connect(&g.addr).unwrap();
        let mut db = FrameDecoder::new();
        send(&mut b, &GateMsg::Fin { producer: 2 });
        assert_eq!(recv(&mut b, &mut db), GateMsg::FinOk);
        loop {
            match recv_host(&g.rx) {
                HostMsg::Eos => break,
                _ => continue,
            }
        }
        let exit = g.handle.join().unwrap();
        assert!(exit.error.is_none());
        assert_eq!(exit.op.kind(), "Gate");
    }

    #[test]
    fn over_budget_batches_are_shed_with_retry_hint() {
        let g = start_gate(
            "shed",
            GateConfig {
                budget_bytes: EVENT_BYTES, // one event per window
                expected_producers: 1,
                retry_after_ms: 7,
            },
        );
        let mut a = TcpStream::connect(&g.addr).unwrap();
        let mut da = FrameDecoder::new();
        send(&mut a, &GateMsg::Hello { producer: 1 });
        send(
            &mut a,
            &GateMsg::Batch {
                batch: 1,
                events: vec![(1, 1), (2, 2)],
            },
        );
        assert_eq!(
            recv(&mut a, &mut da),
            GateMsg::Busy {
                batch: 1,
                retry_after_ms: 7
            }
        );
        assert_eq!(
            g.store.preserved_tuples(),
            0,
            "shed batches never touch the WAL"
        );
        // A within-budget batch still gets through.
        send(
            &mut a,
            &GateMsg::Batch {
                batch: 1,
                events: vec![(3, 3)],
            },
        );
        assert_eq!(recv(&mut a, &mut da), GateMsg::Accepted { batch: 1 });
        assert_eq!(g.store.preserved_tuples(), 1);
        send(&mut a, &GateMsg::Fin { producer: 1 });
        assert_eq!(recv(&mut a, &mut da), GateMsg::FinOk);
        let exit = g.handle.join().unwrap();
        assert!(exit.error.is_none());
    }

    #[test]
    fn fin_is_wal_durable_before_finok_and_retry_does_not_reappend() {
        let g = start_gate(
            "fin_wal",
            GateConfig {
                expected_producers: 2,
                ..GateConfig::default()
            },
        );
        let mut a = TcpStream::connect(&g.addr).unwrap();
        let mut da = FrameDecoder::new();
        send(&mut a, &GateMsg::Fin { producer: 1 });
        assert_eq!(recv(&mut a, &mut da), GateMsg::FinOk);
        assert_eq!(
            g.store.preserved_tuples(),
            1,
            "the FinOk ack implies the Fin marker is already durable"
        );
        // A retried Fin (the ack was lost, the producer resends)
        // re-acks without appending a second marker.
        send(&mut a, &GateMsg::Fin { producer: 1 });
        assert_eq!(recv(&mut a, &mut da), GateMsg::FinOk);
        assert_eq!(g.store.preserved_tuples(), 1);
        send(&mut a, &GateMsg::Fin { producer: 2 });
        assert_eq!(recv(&mut a, &mut da), GateMsg::FinOk);
        let exit = g.handle.join().unwrap();
        assert!(exit.error.is_none());
    }

    #[test]
    fn fins_replayed_from_wal_close_the_recovered_gate() {
        // The regression the Fin marker exists for: every producer
        // Fin'd (and was acked) after the last complete checkpoint,
        // then the gate's worker died. The recovered gate rebuilds the
        // finished set from replayed markers and closes the stream
        // instead of waiting forever for Fins that will never be
        // re-sent — and the markers themselves never reach downstream.
        let dir = std::env::temp_dir().join(format!("ms_gate_finrep_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let store = Arc::new(FsStore::open(dir.join("store"), 1).unwrap());
        let persister = Persister::spawn(store.clone());
        let persist = persister.sender();
        let (cmd_tx, cmd_rx) = channel();
        let (tx, rx) = channel::<HostMsg>();
        let mut pre = GateCore::new(
            OperatorId(0),
            GateConfig {
                expected_producers: 1,
                ..GateConfig::default()
            },
        );
        let mut seq = 0;
        let Admission::Accept(mut replay) = pre.admit(&mut seq, 7, 1, &[(1, 4)]) else {
            panic!("accept expected");
        };
        let data_tuples = replay.clone();
        replay.push(pre.fin_marker(&mut seq, 7));
        let wiring = GateWiring {
            op_id: OperatorId(0),
            cfg: GateConfig {
                expected_producers: 1,
                ..GateConfig::default()
            },
            outputs: vec![OutputRoute::single(0)],
            listener: listen("127.0.0.1:0", None).unwrap(),
            restored: None,
            restored_seq: 0,
            replay,
            telemetry: None,
        };
        let meter = Arc::default();
        let handle =
            std::thread::spawn(move || pump(Gate::new(wiring, store, persist), cmd_rx, tx, meter));
        // No producer ever connects. The gate must still terminate:
        // replayed data, then Eos — and no marker in between.
        let mut got = Vec::new();
        while got.len() < data_tuples.len() {
            match recv_host(&rx) {
                HostMsg::DataBatch(b) => got.extend(b.iter().cloned()),
                other => panic!("expected replayed data, got {other:?}"),
            }
        }
        assert_eq!(got, data_tuples);
        match recv_host(&rx) {
            HostMsg::Eos => {}
            other => panic!("expected Eos after replay, got {other:?}"),
        }
        let exit = handle.join().unwrap();
        assert!(exit.error.is_none());
        drop(cmd_tx);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_rebuilds_dedup_and_resends_preserved_tuples() {
        // Simulate recovery wiring directly: preserved tuples go back
        // out and their batch ids answer retries as duplicates.
        let dir = std::env::temp_dir().join(format!("ms_gate_replay_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let store = Arc::new(FsStore::open(dir.join("store"), 1).unwrap());
        let persister = Persister::spawn(store.clone());
        let persist = persister.sender();
        let (cmd_tx, cmd_rx) = channel();
        let (tx, rx) = channel::<HostMsg>();
        // Build the "pre-crash" tuples through a core.
        let mut pre = GateCore::new(OperatorId(0), GateConfig::default());
        let mut seq = 0;
        let Admission::Accept(walled) = pre.admit(&mut seq, 7, 3, &[(1, 4), (2, 6)]) else {
            panic!("accept expected");
        };
        let addr_file = dir.join("gate.addr");
        let wiring = GateWiring {
            op_id: OperatorId(0),
            cfg: GateConfig {
                expected_producers: 1,
                ..GateConfig::default()
            },
            outputs: vec![OutputRoute::single(0)],
            listener: listen("127.0.0.1:0", Some(&addr_file)).unwrap(),
            restored: None,
            restored_seq: 0,
            replay: walled.clone(),
            telemetry: None,
        };
        let (store2, meter) = (store.clone(), Arc::default());
        let handle =
            std::thread::spawn(move || pump(Gate::new(wiring, store2, persist), cmd_rx, tx, meter));
        let addr = wait_addr(&addr_file);
        // The replayed tuples arrive downstream before any new data.
        let mut got = Vec::new();
        while got.len() < walled.len() {
            match recv_host(&rx) {
                HostMsg::DataBatch(b) => got.extend(b.iter().cloned()),
                other => panic!("expected replayed data, got {other:?}"),
            }
        }
        assert_eq!(got, walled);
        // The producer retries the batch that was WAL'd pre-crash:
        // acked as duplicate, nothing re-emitted.
        let mut a = TcpStream::connect(&addr).unwrap();
        let mut da = FrameDecoder::new();
        send(&mut a, &GateMsg::Hello { producer: 7 });
        send(
            &mut a,
            &GateMsg::Batch {
                batch: 3,
                events: vec![(1, 4), (2, 6)],
            },
        );
        assert_eq!(recv(&mut a, &mut da), GateMsg::Accepted { batch: 3 });
        assert_eq!(store.preserved_tuples(), 0, "duplicate batch not re-logged");
        send(&mut a, &GateMsg::Fin { producer: 7 });
        assert_eq!(recv(&mut a, &mut da), GateMsg::FinOk);
        let exit = handle.join().unwrap();
        assert!(exit.error.is_none());
        drop(cmd_tx);
        let _ = fs::remove_dir_all(&dir);
    }
}
