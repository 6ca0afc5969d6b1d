//! The one cluster harness of the multi-process tests: spawn and kill
//! the `ms-controller` / `ms-worker` binaries on a throwaway store,
//! count the checkpoint files, audit the run ledger, read the result
//! file, and drive the gateway as a producer.
//!
//! Each contract the scenarios hold a run to is written here once:
//! the sink of a failed run is byte-identical to an unfailed one (the
//! tests compare [`parse_result`]'s sink lines), and [`check_ledger`]
//! holds every run's ledger to per-generation epoch contiguity and to
//! coverage up to the newest complete checkpoint.
// Each test binary compiles its own copy of this module and uses a
// different subset of it.
#![allow(dead_code)]

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Display;
use std::fs;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ms_core::codec::{frame, FrameDecoder, SnapshotReader};
use ms_core::gate::GateMsg;
use ms_wire::{read_ledger, LedgerRecord, LEDGER_FILE};

/// Operators in the `chain3` demo graph (source, interior, sink).
pub const CHAIN_OPS: usize = 3;

/// The test's processes. Kills every still-running child on drop so a
/// failing assert never leaks processes.
pub struct Cluster(pub Vec<Child>);

impl Cluster {
    /// Spawns `cmd`; returns its index in the cluster.
    pub fn spawn(&mut self, mut cmd: Command) -> usize {
        self.0.push(cmd.spawn().unwrap());
        self.0.len() - 1
    }

    /// SIGKILLs child `i` (std's `Child::kill` on unix) and reaps it.
    pub fn kill(&mut self, i: usize) {
        self.0[i].kill().unwrap();
        let _ = self.0[i].wait();
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for c in &mut self.0 {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// An `ms-controller` on `dir`'s store, address file and result file,
/// run with the test's own `--flag value` pairs.
pub fn controller(dir: &Path, flags: &[(&str, &dyn Display)]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ms-controller"));
    cmd.arg("--store")
        .arg(dir.join("store"))
        .arg("--addr-file")
        .arg(dir.join("addr"))
        .arg("--result-file")
        .arg(dir.join("result"));
    for (flag, value) in flags {
        cmd.arg(flag).arg(value.to_string());
    }
    cmd.stdout(Stdio::null()).stderr(Stdio::inherit());
    cmd
}

/// An `ms-worker` named `name` on `dir`'s store; `envs` carries the
/// fault-injection variables (`MS_FAULT_PLAN`, `MS_FAULT_STORE`).
pub fn worker(dir: &Path, name: &str, envs: &[(&str, &str)]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ms-worker"));
    cmd.args(["--name", name])
        .arg("--store")
        .arg(dir.join("store"))
        .arg("--controller-file")
        .arg(dir.join("addr"))
        .envs(envs.iter().copied())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit());
    cmd
}

/// A fresh, empty directory for one run under the system temp dir.
pub fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ms_wire_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Waits for `child` to exit, asserting it does within `budget`.
pub fn wait_exit(child: &mut Child, budget: Duration) -> ExitStatus {
    let deadline = Instant::now() + budget;
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return status;
        }
        assert!(
            Instant::now() < deadline,
            "process did not exit within {budget:?}"
        );
        thread::sleep(Duration::from_millis(25));
    }
}

/// Polls `cond` until it holds, asserting it does within `budget`.
pub fn wait_until(what: &str, budget: Duration, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + budget;
    while !cond() {
        assert!(Instant::now() < deadline, "{what}: not within {budget:?}");
        thread::sleep(Duration::from_millis(5));
    }
}

/// The unfailed run: a controller with `flags` and workers `wa` and
/// `wb` stream to completion under `dir`. Returns the sink lines.
pub fn clean_run(dir: &Path, flags: &[(&str, &dyn Display)]) -> Vec<String> {
    let mut cluster = Cluster(Vec::new());
    let ctl = cluster.spawn(controller(dir, flags));
    cluster.spawn(worker(dir, "wa", &[]));
    cluster.spawn(worker(dir, "wb", &[]));
    let status = wait_exit(&mut cluster.0[ctl], Duration::from_secs(80));
    assert!(status.success(), "reference controller failed: {status:?}");
    let (rec, sinks) = parse_result(&dir.join("result"));
    assert_eq!(rec, "recoveries=0");
    assert_eq!(sinks.len(), 1);
    sinks
}

// --- Checkpoint-file census. `FsStore` writes one `e{E}_op{N}.ckpt`
// --- or `.delta` file per operator per epoch under `ckpt/`.

fn ckpt_files(store: &Path) -> Vec<String> {
    let Ok(entries) = fs::read_dir(store.join("ckpt")) else {
        return Vec::new();
    };
    entries
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect()
}

fn files_per_epoch(store: &Path) -> HashMap<u64, usize> {
    let mut per_epoch = HashMap::new();
    for name in ckpt_files(store) {
        if let Some(epoch) = name
            .strip_prefix('e')
            .and_then(|r| r.split_once("_op"))
            .and_then(|(e, _)| e.parse::<u64>().ok())
        {
            *per_epoch.entry(epoch).or_insert(0usize) += 1;
        }
    }
    per_epoch
}

/// Highest *complete* application checkpoint epoch: all `n_ops`
/// operators renamed their file into place. Epochs count up from 1,
/// so `n` means `n` checkpoints have completed. The store GCs epochs
/// made obsolete by newer complete ones, so this takes the max rather
/// than counting retained ones.
pub fn max_complete_epoch(store: &Path, n_ops: usize) -> u64 {
    files_per_epoch(store)
        .into_iter()
        .filter(|&(_, n)| n >= n_ops)
        .map(|(e, _)| e)
        .max()
        .unwrap_or(0)
}

/// An epoch newer than the newest complete one with *some* but not all
/// checkpoint files in place: an application checkpoint actively in
/// flight. (Only epochs above the complete watermark count — GC of an
/// obsolete epoch also passes through partial states.)
pub fn partial_epoch(store: &Path, n_ops: usize) -> Option<u64> {
    let complete = max_complete_epoch(store, n_ops);
    files_per_epoch(store)
        .into_iter()
        .filter(|&(e, n)| e > complete && n < n_ops)
        .map(|(e, _)| e)
        .max()
}

/// Delta checkpoint files currently on disk.
pub fn delta_files(store: &Path) -> usize {
    ckpt_files(store)
        .iter()
        .filter(|n| n.ends_with(".delta"))
        .count()
}

// --- Run ledger and result file.

/// Full audit of the run ledger: every row parses, every ledger epoch
/// covers all `n_ops` operators, each generation's epochs are
/// contiguous (the epoch in flight at a failure may vanish *between*
/// generations, but none may go missing inside one), the trail spans
/// at least `min_generations`, and it reaches the newest complete
/// checkpoint in the store minus one epoch of slack for a barrier
/// still closing at the cut. Rows of `gate_op` skip the byte gauges —
/// a gateway's telemetry races its first admission.
pub fn check_ledger(
    store: &Path,
    n_ops: usize,
    min_generations: usize,
    gate_op: Option<u32>,
) -> Vec<LedgerRecord> {
    let records = read_ledger(&store.join(LEDGER_FILE)).expect("run ledger must parse");
    assert!(!records.is_empty(), "run ledger is empty");
    let mut by_epoch: BTreeMap<u64, BTreeSet<u32>> = BTreeMap::new();
    let mut by_gen: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for r in &records {
        if Some(r.op) != gate_op {
            assert!(
                r.state_bytes > 0,
                "op{} epoch {}: state-size gauge never sampled",
                r.op,
                r.epoch
            );
            assert!(
                r.ckpt_bytes > 0,
                "op{} epoch {}: checkpoint bytes missing",
                r.op,
                r.epoch
            );
        }
        assert!(r.barrier_us > 0, "epoch {}: zero barrier latency", r.epoch);
        by_epoch.entry(r.epoch).or_default().insert(r.op);
        by_gen.entry(r.generation).or_default().insert(r.epoch);
    }
    for (epoch, ops) in &by_epoch {
        assert_eq!(
            ops.len(),
            n_ops,
            "epoch {epoch} covers ops {ops:?}, want all {n_ops} operators"
        );
    }
    for (gen, epochs) in &by_gen {
        let lo = *epochs.first().unwrap();
        let hi = *epochs.last().unwrap();
        assert_eq!(
            epochs.len() as u64,
            hi - lo + 1,
            "generation {gen} ledger has an epoch hole: {epochs:?}"
        );
    }
    assert!(
        by_gen.len() >= min_generations,
        "ledger spans {} generation(s), want >= {min_generations}",
        by_gen.len()
    );
    let max_ledger = *by_epoch.keys().last().unwrap();
    let max_store = max_complete_epoch(store, n_ops);
    assert!(
        max_ledger + 1 >= max_store,
        "ledger stops at epoch {max_ledger} but the store holds complete epoch {max_store}"
    );
    records
}

/// `(recoveries line, sink lines)` from a result file.
pub fn parse_result(path: &Path) -> (String, Vec<String>) {
    let text = fs::read_to_string(path).unwrap();
    let mut lines = text.lines();
    let recoveries = lines.next().unwrap().to_string();
    (recoveries, lines.map(str::to_string).collect())
}

/// Parses the count out of a `recoveries=N` result line.
pub fn recoveries(line: &str) -> u64 {
    line.strip_prefix("recoveries=")
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("malformed recoveries line {line:?}"))
}

/// Decodes a `sink op{N} {hex}` line into the Summer's `(sum, count)`.
pub fn decode_sink(line: &str) -> (i64, u64) {
    let hex = line.rsplit(' ').next().unwrap();
    let bytes: Vec<u8> = (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect();
    let mut r = SnapshotReader::new(&bytes);
    (r.get_i64().unwrap(), r.get_u64().unwrap())
}

// --- Gateway producer: stop-and-wait batches, reconnect through
// --- outages, retry everything un-acked.

pub const EVENTS_PER_BATCH: u64 = 16;
/// Keys a batch's events cycle over, so pre-aggregation folds every
/// batch to exactly `KEYS` tuples.
pub const KEYS: u64 = 8;
pub const PRODUCER_DEADLINE: Duration = Duration::from_secs(120);

/// The deterministic event value of producer `p`, batch `b`, slot `j`.
pub fn value(p: u64, b: u64, j: u64) -> i64 {
    (p * 100_000 + b * 100 + j) as i64
}

/// One producer-side connection: framed stop-and-wait over TCP with a
/// read timeout, so a killed gateway surfaces as a dead exchange
/// instead of a hang.
pub struct GateConn {
    sock: TcpStream,
    dec: FrameDecoder,
}

impl GateConn {
    fn send(&mut self, msg: &GateMsg) -> std::io::Result<()> {
        self.sock.write_all(&frame(&msg.encode()))
    }

    /// One reply, or `None` when the connection is dead (reset, EOF,
    /// or silent past the read timeout) — the caller reconnects.
    fn recv(&mut self) -> Option<GateMsg> {
        loop {
            match self.dec.next_frame() {
                Ok(Some(p)) => return GateMsg::decode(&p).ok(),
                Ok(None) => {}
                Err(_) => return None,
            }
            let mut buf = [0u8; 4096];
            match self.sock.read(&mut buf) {
                Ok(0) | Err(_) => return None,
                Ok(n) => self.dec.feed(&buf[..n]),
            }
        }
    }
}

/// Connects (or reconnects) to the gateway, re-reading the published
/// address on every attempt — after a recovery the replacement gate
/// binds a fresh port and rewrites the file.
pub fn connect_gate(addr_file: &Path, producer: u64, deadline: Instant) -> GateConn {
    loop {
        assert!(
            Instant::now() < deadline,
            "producer {producer} could not reach the gateway in time"
        );
        if let Ok(addr) = fs::read_to_string(addr_file) {
            let addr = addr.trim();
            if !addr.is_empty() {
                if let Ok(sock) = TcpStream::connect(addr) {
                    sock.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
                    let _ = sock.set_nodelay(true);
                    let mut conn = GateConn {
                        sock,
                        dec: FrameDecoder::new(),
                    };
                    if conn.send(&GateMsg::Hello { producer }).is_ok() {
                        return conn;
                    }
                }
            }
        }
        thread::sleep(Duration::from_millis(50));
    }
}

/// One stop-and-wait exchange, resending across reconnects until the
/// gateway answers. Resends are safe: the gateway dedups on batch id
/// (a batch whose ack was lost to the crash is re-acked without being
/// re-admitted) and re-acks `Fin`s without re-appending their WAL
/// marker.
pub fn exchange(
    conn: &mut GateConn,
    addr_file: &Path,
    producer: u64,
    deadline: Instant,
    msg: &GateMsg,
) -> GateMsg {
    loop {
        assert!(
            Instant::now() < deadline,
            "producer {producer} got no answer in time"
        );
        if conn.send(msg).is_err() {
            *conn = connect_gate(addr_file, producer, deadline);
            continue;
        }
        match conn.recv() {
            Some(reply) => return reply,
            None => *conn = connect_gate(addr_file, producer, deadline),
        }
    }
}

/// A well-behaved producer: `batches` strictly increasing batches of
/// [`EVENTS_PER_BATCH`] events over [`KEYS`] keys, each retried until
/// `Accepted` and followed by `pace`, then `Fin` retried until
/// `FinOk`. With a `fin_gate`, the `Fin` is held until the flag flips
/// — a scenario uses this to land a `FinOk` just before a SIGKILL, so
/// the fin's only durable trace is its preservation-log marker. On
/// `FinOk` the producer counts itself into `finished` and is gone for
/// good: if the recovered gate forgot the fin, the run hangs to the
/// controller deadline.
pub fn run_producer(
    addr_file: PathBuf,
    producer: u64,
    batches: u64,
    pace: Duration,
    fin_gate: Option<Arc<AtomicBool>>,
    finished: Arc<AtomicUsize>,
) {
    let deadline = Instant::now() + PRODUCER_DEADLINE;
    let mut conn = connect_gate(&addr_file, producer, deadline);
    for b in 1..=batches {
        let msg = GateMsg::Batch {
            batch: b,
            events: (0..EVENTS_PER_BATCH)
                .map(|j| (j % KEYS, value(producer, b, j)))
                .collect(),
        };
        loop {
            match exchange(&mut conn, &addr_file, producer, deadline, &msg) {
                GateMsg::Accepted { batch } if batch == b => break,
                GateMsg::Busy { retry_after_ms, .. } => {
                    thread::sleep(Duration::from_millis(retry_after_ms.clamp(1, 100)));
                }
                other => panic!("producer {producer} batch {b}: unexpected reply {other:?}"),
            }
        }
        thread::sleep(pace);
    }
    if let Some(gate) = fin_gate {
        while !gate.load(Ordering::SeqCst) {
            assert!(
                Instant::now() < deadline,
                "producer {producer} never released to fin"
            );
            thread::sleep(Duration::from_millis(5));
        }
    }
    match exchange(
        &mut conn,
        &addr_file,
        producer,
        deadline,
        &GateMsg::Fin { producer },
    ) {
        GateMsg::FinOk => {}
        other => panic!("producer {producer} fin: unexpected reply {other:?}"),
    }
    finished.fetch_add(1, Ordering::SeqCst);
}
