//! One benchmark run against a live cluster: set-up, settle, steady
//! window, failure, tail, drain.
//!
//! The harness is the load generator *and* the observer, on one
//! thread (hazard (c): a second busy harness thread makes CPU per
//! event bimodal on two cores). The producer loop is open: batch `b`
//! is due at `t0 + b·interval`, sent stop-and-wait, and timed from
//! its due time. Every wait of that loop — for the next due time, for
//! an ack, for the gate to come back — calls [`Driver::tick`], which
//! tails the ledger, walks the phases, samples `/proc` at window
//! edges and injects the failure.

use std::fs::{self, File};
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ms_core::gate::GateMsg;
use ms_wire::LedgerRecord;

use crate::cluster::{self, Cluster};
use crate::metrics::{Batch, Close};
use crate::producer::{encode, Conn, Reply, PRODUCER};
use crate::trace::Tracer;
use crate::workload::{self, Failure, Slot, Workload, BURST_STAGGER_MS};

/// Barrier closes to wait for, under load, before the steady window.
const SETTLE_CLOSES: usize = 3;
/// The failure lands this long after the first barrier close that
/// follows the steady window, so the WAL suffix to replay is the same
/// every run.
const KILL_AFTER_CLOSE: Duration = Duration::from_millis(250);
/// Nothing in a run may take longer than this; a run that does has
/// failed, it is not slow.
const RUN_LIMIT: Duration = Duration::from_secs(140);
const LEDGER_POLL: Duration = Duration::from_millis(1);

pub struct RunConfig<'a> {
    pub w: &'a Workload,
    pub seed: u64,
    /// Length of the steady window.
    pub steady: Duration,
    /// Sub-windows the steady window is cut into.
    pub sub_windows: usize,
    /// Clusters set up (and prefilled) per run; all but the last are
    /// torn down again. `setup_s` is their median.
    pub setups: usize,
    /// Seconds of load after the first kill.
    pub tail: Duration,
    pub bin_dir: &'a Path,
    pub tmp_dir: &'a Path,
    /// Traced pass: spans around the harness's calls, recording
    /// toggled per sub-window, and a copy of the store at the kill.
    pub trace: bool,
}

/// What the harness read at one sub-window edge (always between two
/// batches, so `acked` and `wal_bytes` describe the same instant).
#[derive(Clone, Debug)]
pub struct Edge {
    pub t_us: u64,
    /// Batches acked since the load started.
    pub acked: u64,
    /// CPU seconds of controller, `wa`, `wb`.
    pub cpu_s: [f64; 3],
    pub harness_cpu_s: f64,
    pub wal_bytes: u64,
    /// Context switches of `wa` + `wb`.
    pub ctx_switches: u64,
    /// Whether spans were recorded during the sub-window that *ends*
    /// at this edge.
    pub traced: bool,
    /// `/proc/stat` steal and total ticks since boot.
    pub host_ticks: (u64, u64),
}

impl Edge {
    /// CPU seconds of controller + `wa` + `wb`.
    pub fn cluster_cpu_s(&self) -> f64 {
        self.cpu_s.iter().sum()
    }
}

/// Everything one run observed; `report` turns it into metrics.
pub struct RunData {
    pub setup_s: Vec<f64>,
    pub settle_s: f64,
    /// Every batch of the load, settle included.
    pub batches: Vec<Batch>,
    /// Index of the first batch of the steady window.
    pub first_measured: usize,
    pub edges: Vec<Edge>,
    pub closes: Vec<Close>,
    pub kill_us: u64,
    /// Controller exit, µs since the load's first due time.
    pub exit_us: u64,
    /// `gate_op0.addr` first held a new address at this instant.
    pub addr_changed_us: Option<u64>,
    /// Σ VmHWM of controller + workers at the end of the steady
    /// window, and at the end of the tail.
    pub rss_steady_mb: f64,
    pub rss_exit_mb: f64,
    pub worker_threads: u64,
    pub controller_ok: bool,
    pub result: String,
    pub ledger: Result<Vec<LedgerRecord>, String>,
    pub ledger_bytes: u64,
    /// Milliseconds `read_ledger` took on the final ledger.
    pub ledger_read_ms: f64,
    /// The controller's own recovery clock (failure detected → first
    /// barrier close of the restored generation), last recovery.
    pub ledger_recovery_us: u64,
    /// What the sink must hold: doubled sum and tuple count of every
    /// accepted batch, prefill included.
    pub expect_sum: i64,
    pub expect_count: u64,
    /// Traced pass only: the store as it stood at the first kill.
    pub store_copy: Option<PathBuf>,
}

impl RunData {
    /// First and last edge of the steady window. `execute` only
    /// returns a run whose window was sampled to its end.
    pub fn window(&self) -> (&Edge, &Edge) {
        match (self.edges.first(), self.edges.last()) {
            (Some(a), Some(b)) => (a, b),
            _ => unreachable!("a finished run has its window edges"),
        }
    }
}

enum Phase {
    Settle,
    Steady {
        next_edge: usize,
    },
    /// Steady window over: wait for the next barrier close.
    ArmKill {
        closes_seen: usize,
    },
    WaitKill {
        at: Instant,
    },
    SecondKill {
        at: Instant,
    },
    Tail,
    Done,
}

/// Files of the store frozen at the kill: checkpoint files are
/// immutable (temp + rename) so a hard link keeps them past GC; the
/// append-only log and marks are cut to their length at the kill
/// when the copy is materialized after the run.
struct StoreFreeze {
    dir: PathBuf,
    appendable: Vec<(PathBuf, PathBuf, u64)>,
}

struct Driver<'a> {
    cfg: &'a RunConfig<'a>,
    cluster: Cluster,
    conn: Option<Conn>,
    t0: Instant,
    limit: Instant,
    ledger_pos: u64,
    ledger_tail: String,
    last_poll: Instant,
    closes: Vec<Close>,
    phase: Phase,
    steady_start: Option<Instant>,
    first_measured: usize,
    edges: Vec<Edge>,
    acked: u64,
    kill: Option<Instant>,
    addr_at_kill: Option<String>,
    addr_changed_us: Option<u64>,
    rss_steady_mb: f64,
    worker_threads: u64,
    freeze: Option<StoreFreeze>,
}

fn timed_out(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::TimedOut,
        format!("run limit hit while {what}"),
    )
}

impl Driver<'_> {
    fn us(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_micros() as u64
    }

    /// Appends the ledger rows written since the last poll to
    /// `closes`: the first row of a new (generation, epoch) marks
    /// that barrier's close as seen now.
    fn poll_ledger(&mut self, now: Instant) {
        let Ok(mut f) = File::open(self.cluster.ledger()) else {
            return;
        };
        let Ok(len) = f.metadata().map(|m| m.len()) else {
            return;
        };
        if len <= self.ledger_pos || f.seek(SeekFrom::Start(self.ledger_pos)).is_err() {
            return;
        }
        let mut fresh = String::new();
        if f.read_to_string(&mut fresh).is_err() {
            return;
        }
        self.ledger_pos += fresh.len() as u64;
        self.ledger_tail.push_str(&fresh);
        let seen_us = self.us(now);
        while let Some(nl) = self.ledger_tail.find('\n') {
            let line: String = self.ledger_tail.drain(..=nl).collect();
            // Decision rows share the file; they are not barrier rows.
            if line.contains("\"reason\"") {
                continue;
            }
            if let Ok(r) = LedgerRecord::from_json(&line) {
                let last = self.closes.last();
                if last.is_none_or(|c| (c.generation, c.epoch) != (r.generation, r.epoch)) {
                    self.closes.push(Close {
                        generation: r.generation,
                        epoch: r.epoch,
                        seen_us,
                    });
                }
            }
        }
    }

    fn sample_edge(&mut self, now: Instant, traced: bool) {
        let pids = [
            self.cluster.controller.pid(),
            self.cluster.workers[0].pid(),
            self.cluster.workers[1].pid(),
        ];
        let edge = Edge {
            t_us: self.us(now),
            acked: self.acked,
            cpu_s: pids.map(|p| cluster::cpu_seconds(p).unwrap_or(0.0)),
            harness_cpu_s: cluster::cpu_seconds(std::process::id()).unwrap_or(0.0),
            wal_bytes: fs::metadata(self.cluster.wal()).map_or(0, |m| m.len()),
            ctx_switches: if self.cfg.trace {
                cluster::ctx_switches(pids[1]) + cluster::ctx_switches(pids[2])
            } else {
                0
            },
            traced,
            host_ticks: cluster::steal_and_total_ticks(),
        };
        self.edges.push(edge);
    }

    fn rss_sum_mb(&self) -> f64 {
        self.cluster
            .live_pids()
            .iter()
            .filter_map(|&p| cluster::peak_rss_mb(p))
            .sum()
    }

    fn freeze_store(&mut self) {
        let store = self.cluster.store();
        let dir =
            self.cfg
                .tmp_dir
                .join(format!("frozen-{}-{}", self.cfg.w.name, std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut appendable = Vec::new();
        for sub in ["ckpt", "log", "marks"] {
            let _ = fs::create_dir_all(dir.join(sub));
            for e in fs::read_dir(store.join(sub))
                .into_iter()
                .flatten()
                .flatten()
            {
                let name = e.file_name();
                if name.to_string_lossy().starts_with('.') {
                    continue;
                }
                let to = dir.join(sub).join(&name);
                if sub == "ckpt" {
                    let _ = fs::hard_link(e.path(), to);
                } else {
                    let len = e.metadata().map_or(0, |m| m.len());
                    appendable.push((e.path(), to, len));
                }
            }
        }
        self.freeze = Some(StoreFreeze { dir, appendable });
    }

    /// Kills `victim` and starts `spare` in its place, on its CPU.
    fn fail_over(&mut self, victim: &str, spare: &str, cpu: usize) -> io::Result<()> {
        self.cluster.kill_worker(victim);
        self.cluster.spawn_worker(spare, cpu)
    }

    /// The observer. `idle` is true only between two batches, when
    /// nothing is in flight; window edges are sampled only then.
    fn tick(&mut self, tracer: &mut Tracer, idle: bool) -> io::Result<()> {
        let now = Instant::now();
        if now.duration_since(self.last_poll) >= LEDGER_POLL {
            self.last_poll = now;
            self.poll_ledger(now);
            if let (Some(old), None) = (&self.addr_at_kill, self.addr_changed_us) {
                if self.cluster.gate_addr().is_some_and(|a| &a != old) {
                    self.addr_changed_us = Some(self.us(now));
                }
            }
        }
        match self.phase {
            Phase::Settle => {
                if idle && self.closes.len() >= SETTLE_CLOSES {
                    self.steady_start = Some(now);
                    // Idle: every batch sent so far is acked.
                    self.first_measured = self.acked as usize;
                    self.sample_edge(now, false);
                    // Traced pass: spans on during odd sub-windows.
                    tracer.on = false;
                    self.phase = Phase::Steady { next_edge: 1 };
                }
            }
            Phase::Steady { next_edge } => {
                let start = self.steady_start.expect("steady phase has a start");
                let sub = self.cfg.steady / self.cfg.sub_windows as u32;
                if idle && now >= start + sub * next_edge as u32 {
                    self.sample_edge(now, tracer.on);
                    if next_edge == self.cfg.sub_windows {
                        self.rss_steady_mb = self.rss_sum_mb();
                        self.worker_threads = self.cluster.workers[..2]
                            .iter()
                            .filter_map(|p| cluster::status_field(p.pid(), "Threads"))
                            .sum();
                        tracer.on = self.cfg.trace;
                        self.phase = Phase::ArmKill {
                            closes_seen: self.closes.len(),
                        };
                    } else {
                        tracer.on = self.cfg.trace && next_edge % 2 == 1;
                        self.phase = Phase::Steady {
                            next_edge: next_edge + 1,
                        };
                    }
                }
            }
            Phase::ArmKill { closes_seen } => {
                if self.closes.len() > closes_seen {
                    self.phase = Phase::WaitKill {
                        at: now + KILL_AFTER_CLOSE,
                    };
                }
            }
            Phase::WaitKill { at } => {
                if now >= at {
                    self.addr_at_kill = self.cluster.gate_addr();
                    let kill = Instant::now();
                    self.kill = Some(kill);
                    match self.cfg.w.failure {
                        Failure::GateHost => {
                            self.fail_over("wb", "wc", 1)?;
                            self.phase = Phase::Tail;
                        }
                        Failure::Burst => {
                            self.fail_over("wa", "wc", 0)?;
                            self.phase = Phase::SecondKill {
                                at: kill + Duration::from_millis(BURST_STAGGER_MS),
                            };
                        }
                    }
                    if self.cfg.trace {
                        self.freeze_store();
                    }
                }
            }
            Phase::SecondKill { at } => {
                if now >= at {
                    self.fail_over("wb", "wd", 1)?;
                    self.phase = Phase::Tail;
                }
            }
            Phase::Tail => {
                let kill = self.kill.expect("tail phase follows a kill");
                if now >= kill + self.cfg.tail {
                    self.phase = Phase::Done;
                }
            }
            Phase::Done => {}
        }
        if now > self.limit {
            return Err(timed_out("driving the load"));
        }
        Ok(())
    }

    /// Sleeps until `due`, ticking at least every 2 ms.
    fn wait_until(&mut self, tracer: &mut Tracer, due: Instant) -> io::Result<()> {
        loop {
            self.tick(tracer, true)?;
            let now = Instant::now();
            if now >= due {
                return Ok(());
            }
            std::thread::sleep((due - now).min(Duration::from_millis(2)));
        }
    }

    /// (Re)connects to whatever address the gate last published.
    fn connect(&mut self, tracer: &mut Tracer) -> io::Result<()> {
        while self.conn.is_none() {
            self.tick(tracer, false)?;
            match self.cluster.gate_addr().map(|a| Conn::open(&a)) {
                Some(Ok(conn)) => self.conn = Some(conn),
                _ => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        Ok(())
    }

    /// Sends `framed` and waits for the reply `done` accepts,
    /// resending across reconnects (the gate dedups on batch id and
    /// re-acks a repeated `Fin`). Returns the reply's arrival time.
    fn exchange(
        &mut self,
        tracer: &mut Tracer,
        framed: &[u8],
        done: impl Fn(&GateMsg) -> bool,
    ) -> io::Result<Instant> {
        let mut to_send = true;
        loop {
            self.connect(tracer)?;
            let conn = self.conn.as_mut().expect("connected above");
            if to_send {
                if conn.send(framed).is_err() {
                    self.conn = None;
                    continue;
                }
                to_send = false;
            }
            match conn.recv() {
                Reply::Msg(m) if done(&m) => return Ok(Instant::now()),
                Reply::Msg(GateMsg::Busy { retry_after_ms, .. }) => {
                    let until = Instant::now() + Duration::from_millis(retry_after_ms.max(1));
                    while Instant::now() < until {
                        self.tick(tracer, false)?;
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    to_send = true;
                }
                // A re-ack of an older batch after a resend.
                Reply::Msg(_) => {}
                Reply::Pending => self.tick(tracer, false)?,
                Reply::Dead => {
                    self.conn = None;
                    to_send = true;
                }
            }
        }
    }

    fn materialize_freeze(&mut self) -> Option<PathBuf> {
        let freeze = self.freeze.take()?;
        for (from, to, len) in &freeze.appendable {
            let mut buf = Vec::new();
            if let Ok(f) = File::open(from) {
                let _ = f.take(*len).read_to_end(&mut buf);
            }
            let _ = fs::write(to, buf);
        }
        Some(freeze.dir)
    }
}

/// Frames batch `id` of `slot` without copying its events.
pub fn batch_frame(slot: &mut Slot, id: u64) -> Vec<u8> {
    let msg = GateMsg::Batch {
        batch: id,
        events: std::mem::take(&mut slot.events),
    };
    let framed = encode(&msg);
    if let GateMsg::Batch { events, .. } = msg {
        slot.events = events;
    }
    framed
}

/// Spawns a cluster and prefills the keyed operator; returns it with
/// the producer connection and the seconds from first spawn to the
/// last prefill batch's `Accepted`.
fn set_up(
    cfg: &RunConfig<'_>,
    prefill: &mut [Slot],
    round: usize,
) -> io::Result<(Cluster, Conn, f64)> {
    let start = Instant::now();
    let dir = cfg
        .tmp_dir
        .join(format!("{}-{}-{round}", cfg.w.name, std::process::id()));
    let cluster = Cluster::launch(cfg.bin_dir, dir, cfg.w)?;
    let limit = start + Duration::from_secs(30);
    let mut conn = loop {
        match cluster.gate_addr().map(|a| Conn::open(&a)) {
            Some(Ok(conn)) => break conn,
            _ if Instant::now() > limit => return Err(timed_out("connecting to the gate")),
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    };
    for (i, slot) in prefill.iter_mut().enumerate() {
        let id = i as u64 + 1;
        conn.send(&batch_frame(slot, id))?;
        loop {
            match conn.recv() {
                Reply::Msg(GateMsg::Accepted { batch }) if batch == id => break,
                Reply::Msg(_) | Reply::Dead => {
                    return Err(io::Error::other("prefill batch not accepted"))
                }
                Reply::Pending if Instant::now() > limit => return Err(timed_out("prefilling")),
                Reply::Pending => {}
            }
        }
    }
    Ok((cluster, conn, start.elapsed().as_secs_f64()))
}

/// Runs one workload once.
pub fn execute(cfg: &RunConfig<'_>, tracer: &mut Tracer) -> io::Result<RunData> {
    let w = cfg.w;
    let mut ring = workload::ring(w, cfg.seed);
    let mut prefill = workload::prefill(w);
    let mut expect_sum: i64 = prefill.iter().map(|s| 2 * s.sum).sum();
    let mut expect_count: u64 = prefill.iter().map(|s| s.tuples).sum();

    // Each discarded round's cluster is dropped (killed, reaped,
    // store removed) before the next one is timed.
    let mut setup_s = Vec::new();
    for round in 1..cfg.setups {
        setup_s.push(set_up(cfg, &mut prefill, round)?.2);
    }
    let (cluster, conn, secs) = set_up(cfg, &mut prefill, 0)?;
    setup_s.push(secs);

    let t0 = Instant::now();
    let mut d = Driver {
        cfg,
        cluster,
        conn: Some(conn),
        t0,
        limit: t0 + RUN_LIMIT,
        ledger_pos: 0,
        ledger_tail: String::new(),
        last_poll: t0,
        closes: Vec::new(),
        phase: Phase::Settle,
        steady_start: None,
        first_measured: 0,
        edges: Vec::new(),
        acked: 0,
        kill: None,
        addr_at_kill: None,
        addr_changed_us: None,
        rss_steady_mb: 0.0,
        worker_threads: 0,
        freeze: None,
    };
    tracer.on = false;

    let interval = Duration::from_nanos(w.interval_ns());
    let first_id = prefill.len() as u64 + 1;
    let mut batches: Vec<Batch> = Vec::new();
    loop {
        let b = batches.len();
        let due = t0 + interval * b as u32;
        d.wait_until(tracer, due)?;
        if matches!(d.phase, Phase::Done) {
            break;
        }
        let slot = &mut ring[b % workload::RING];
        let id = first_id + b as u64;
        let sent = Instant::now();
        let framed = batch_frame(slot, id);
        let acked = d.exchange(
            tracer,
            &framed,
            |m| matches!(m, GateMsg::Accepted { batch } if *batch == id),
        )?;
        d.acked += 1;
        expect_sum += 2 * slot.sum;
        expect_count += slot.tuples;
        batches.push(Batch {
            due_us: d.us(due),
            sent_us: d.us(sent),
            acked_us: Some(d.us(acked)),
        });
        tracer.record("producer.batch", sent, acked, b as u32);
    }
    let rss_exit_mb = d.rss_sum_mb();

    let fin = encode(&GateMsg::Fin { producer: PRODUCER });
    d.exchange(tracer, &fin, |m| matches!(m, GateMsg::FinOk))?;
    let controller_ok = d.cluster.wait_controller(Duration::from_secs(60))?;
    let exit_us = d.us(Instant::now());

    let result = fs::read_to_string(d.cluster.result_file()).unwrap_or_default();
    let read_started = Instant::now();
    let ledger = ms_wire::read_ledger(&d.cluster.ledger()).map_err(|e| e.to_string());
    let ledger_read_ms = read_started.elapsed().as_secs_f64() * 1e3;
    let ledger_recovery_us = ms_wire::read_decisions(&d.cluster.ledger())
        .ok()
        .and_then(|ds| {
            ds.iter()
                .rev()
                .find(|r| r.reason == "recovery")
                .map(|r| r.recovery_us)
        })
        .unwrap_or(0);
    let ledger_bytes = fs::metadata(d.cluster.ledger()).map_or(0, |m| m.len());
    let store_copy = d.materialize_freeze();
    let steady_start = d
        .steady_start
        .ok_or_else(|| io::Error::other("the steady window never started"))?;
    let kill = d
        .kill
        .ok_or_else(|| io::Error::other("the failure was never injected"))?;

    Ok(RunData {
        setup_s,
        settle_s: steady_start.duration_since(t0).as_secs_f64(),
        first_measured: d.first_measured,
        batches,
        kill_us: d.us(kill),
        exit_us,
        addr_changed_us: d.addr_changed_us,
        rss_steady_mb: d.rss_steady_mb,
        rss_exit_mb,
        worker_threads: d.worker_threads,
        controller_ok,
        result,
        ledger,
        ledger_bytes,
        ledger_read_ms,
        ledger_recovery_us,
        expect_sum,
        expect_count,
        store_copy,
        edges: std::mem::take(&mut d.edges),
        closes: std::mem::take(&mut d.closes),
    })
}
