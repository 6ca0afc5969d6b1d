//! Paper-scale deployment: the 55-HAU evaluation topology on eight
//! real worker processes.
//!
//! The logical graph is `fleet6x6` (6 skewed sources → 6 chained
//! keyed stages → 1 sink); at 8 shards per stage the controller
//! deploys 6 + 48 + 1 = 55 physical HAUs — the paper's evaluation
//! scale — across 8 worker processes on localhost.
//!
//! Reference run: no failure; the sink must land on the closed-form
//! answer, the ledger must carry all 55 HAUs every epoch, keyed state
//! must spread across each stage's shards, and — the event-loop
//! worker's whole point — every worker process must host its ~7 HAUs
//! and ~100 peer edges with O(cores) threads, not O(edges), while the
//! controller serves every worker connection from one thread.
//!
//! Failure run: SIGKILL one worker once two complete application
//! checkpoints exist, hand its HAUs to a spare, and require the
//! recovered sink state to be byte-identical to the reference run.

#![cfg(unix)]

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ms_core::codec::SnapshotReader;
use ms_wire::apps::expected_fleet_sum;
use ms_wire::{by_shard_summary, read_ledger, LedgerRecord, LEDGER_FILE};

const WORKERS: usize = 8;
const SOURCES: u64 = 6;
const STAGES: u32 = 6;
const SHARDS: u64 = 8;
/// 6 sources + 6 stages × 8 shards + 1 sink.
const HAUS: usize = 55;
const LIMIT: u64 = 2500;
const DELAY_US: u64 = 120;
/// The worker thread budget: main + heartbeat + I/O + ≤4 appliers +
/// joiner + persister + ≤1 local source thread, with headroom. A
/// thread-per-edge worker at this scale runs 50–100 threads.
const MAX_WORKER_THREADS: usize = 16;
/// The controller polls the listener and both connections of every
/// worker on its main thread, however many workers register.
const CONTROLLER_THREADS: usize = 1;

struct Cluster(Vec<Child>);

impl Cluster {
    fn push(&mut self, c: Child) -> usize {
        self.0.push(c);
        self.0.len() - 1
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

fn controller(dir: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ms-controller"));
    cmd.args(["--store".as_ref(), dir.join("store").as_os_str()])
        .args(["--addr-file".as_ref(), dir.join("addr").as_os_str()])
        .args(["--result-file".as_ref(), dir.join("result").as_os_str()])
        .args(["--workers", &WORKERS.to_string()])
        .args(["--shape", &format!("fleet{SOURCES}x{STAGES}")])
        .args(["--shards", &SHARDS.to_string()])
        .args(["--keyed-state", "512"])
        .args(["--limit", &LIMIT.to_string()])
        .args(["--delay-us", &DELAY_US.to_string()])
        .args(["--ckpt-ms", "150", "--hb-timeout-ms", "800"])
        .args(["--respawn-wait-ms", "3000", "--deadline-secs", "110"])
        .stdout(Stdio::null())
        .stderr(Stdio::inherit());
    cmd
}

fn worker(dir: &Path, name: &str) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ms-worker"));
    cmd.args(["--name", name])
        .args(["--store".as_ref(), dir.join("store").as_os_str()])
        .args(["--controller-file".as_ref(), dir.join("addr").as_os_str()])
        .stdout(Stdio::null())
        .stderr(Stdio::inherit());
    cmd
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ms_wire_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn wait_exit(child: &mut Child, budget: Duration) -> std::process::ExitStatus {
    let deadline = Instant::now() + budget;
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return status;
        }
        assert!(
            Instant::now() < deadline,
            "process did not exit within {budget:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Highest epoch for which all [`HAUS`] operators have a checkpoint
/// file in place (delta or full).
fn max_complete_epoch(store: &Path) -> u64 {
    let mut per_epoch = std::collections::HashMap::new();
    let Ok(entries) = fs::read_dir(store.join("ckpt")) else {
        return 0;
    };
    for e in entries.flatten() {
        let name = e.file_name().to_string_lossy().into_owned();
        if let Some(epoch) = name
            .strip_prefix('e')
            .and_then(|r| r.split_once("_op"))
            .and_then(|(e, _)| e.parse::<u64>().ok())
        {
            *per_epoch.entry(epoch).or_insert(0usize) += 1;
        }
    }
    per_epoch
        .iter()
        .filter(|(_, &n)| n >= HAUS)
        .map(|(&e, _)| e)
        .max()
        .unwrap_or(0)
}

/// `Threads:` line from `/proc/<pid>/status` — the resident thread
/// count of a live process (linux-only; elsewhere report 0 and skip
/// the bound).
fn thread_count(pid: u32) -> usize {
    fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

fn parse_result(path: &Path) -> (String, Vec<String>) {
    let text = fs::read_to_string(path).unwrap();
    let mut lines = text.lines();
    let recoveries = lines.next().unwrap().to_string();
    (recoveries, lines.map(str::to_string).collect())
}

fn decode_sink(line: &str) -> (i64, u64) {
    let hex = line.rsplit(' ').next().unwrap();
    let bytes: Vec<u8> = (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect();
    let mut r = SnapshotReader::new(&bytes);
    (r.get_i64().unwrap(), r.get_u64().unwrap())
}

/// Ledger audit at fleet scale: every epoch present in the trail
/// covers all 55 HAUs, and at the newest such epoch each sharded
/// logical stage shows keyed state on *every* shard with bounded
/// max/min skew.
fn check_fleet_ledger(store: &Path) -> Vec<LedgerRecord> {
    let records = read_ledger(&store.join(LEDGER_FILE)).expect("run ledger must parse");
    assert!(!records.is_empty(), "run ledger is empty");
    let mut by_epoch: BTreeMap<u64, std::collections::BTreeSet<u32>> = BTreeMap::new();
    for r in &records {
        by_epoch.entry(r.epoch).or_default().insert(r.op);
    }
    for (epoch, ops) in &by_epoch {
        assert_eq!(
            ops.len(),
            HAUS,
            "epoch {epoch} covers {} HAUs, want all {HAUS}",
            ops.len()
        );
    }
    let last_epoch = *by_epoch.keys().last().unwrap();
    // Per logical operator at the newest epoch: state bytes per shard.
    let mut shards_of: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for r in records.iter().filter(|r| r.epoch == last_epoch) {
        shards_of.entry(r.logical).or_default().push(r.state_bytes);
    }
    let mut sharded_groups = 0;
    for (logical, states) in &shards_of {
        if states.len() as u64 != SHARDS {
            continue; // sources / sink singletons
        }
        sharded_groups += 1;
        let max = *states.iter().max().unwrap();
        let min = *states.iter().min().unwrap();
        assert!(
            min > 0,
            "logical op{logical}: a shard holds no keyed state at epoch {last_epoch}"
        );
        let skew = max as f64 / min as f64;
        assert!(
            skew <= 4.0,
            "logical op{logical}: shard state skew {skew:.2}× (max {max} / min {min})"
        );
    }
    assert_eq!(
        sharded_groups, STAGES as usize,
        "expected every keyed stage to report {SHARDS} shards"
    );
    // The --by-shard rendering digests the same records.
    let view = by_shard_summary(&records);
    assert!(view.contains("shard"), "by-shard view empty:\n{view}");
    records
}

#[test]
fn fifty_five_haus_on_eight_processes_survive_sigkill() {
    // --- Reference run: 55 HAUs, 8 processes, no failure. ---
    let ref_dir = fresh_dir("scale_ref");
    let mut cluster = Cluster(Vec::new());
    let ctl = cluster.push(controller(&ref_dir).spawn().unwrap());
    for i in 0..WORKERS {
        cluster.push(worker(&ref_dir, &format!("w{i}")).spawn().unwrap());
    }

    // Once a complete application checkpoint exists, every worker is
    // deployed and streaming: sample resident thread counts mid-run.
    let deadline = Instant::now() + Duration::from_secs(45);
    while max_complete_epoch(&ref_dir.join("store")) < 1 {
        assert!(
            Instant::now() < deadline,
            "no complete 55-HAU checkpoint appeared in time"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    if cfg!(target_os = "linux") {
        assert_eq!(
            thread_count(cluster.0[ctl].id()),
            CONTROLLER_THREADS,
            "controller threads with all {WORKERS} workers registered"
        );
        for (i, c) in cluster.0.iter().enumerate().skip(1) {
            let threads = thread_count(c.id());
            assert!(threads > 0, "worker {} thread count unreadable", i - 1);
            assert!(
                threads <= MAX_WORKER_THREADS,
                "worker {} runs {threads} threads hosting ~{} HAUs — \
                 the event-loop budget is {MAX_WORKER_THREADS}",
                i - 1,
                HAUS / WORKERS + 1,
            );
        }
    }

    let status = wait_exit(&mut cluster.0[ctl], Duration::from_secs(100));
    assert!(status.success(), "reference controller failed: {status:?}");
    let (recoveries, ref_sinks) = parse_result(&ref_dir.join("result"));
    assert_eq!(recoveries, "recoveries=0");
    assert_eq!(ref_sinks.len(), 1);
    let (sum, count) = decode_sink(&ref_sinks[0]);
    let (want_sum, want_count) = expected_fleet_sum(SOURCES, STAGES, LIMIT);
    assert_eq!(count, want_count, "lost or duplicated tuples");
    assert_eq!(sum, want_sum);
    check_fleet_ledger(&ref_dir.join("store"));
    drop(cluster);

    // --- Failure run: SIGKILL one worker mid-stream. ---
    let dir = fresh_dir("scale_kill");
    let mut cluster = Cluster(Vec::new());
    let ctl = cluster.push(controller(&dir).spawn().unwrap());
    let mut victim = 0;
    for i in 0..WORKERS {
        let idx = cluster.push(worker(&dir, &format!("w{i}")).spawn().unwrap());
        if i == 3 {
            // w3 hosts shards of several keyed stages (round-robin
            // over 55 physical ids) — killing it severs dozens of
            // edges at once.
            victim = idx;
        }
    }

    let deadline = Instant::now() + Duration::from_secs(45);
    while max_complete_epoch(&dir.join("store")) < 2 {
        assert!(
            Instant::now() < deadline,
            "no complete 55-HAU checkpoint appeared in time"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        !dir.join("result").exists(),
        "stream finished before the kill; raise --limit"
    );
    cluster.0[victim].kill().unwrap(); // SIGKILL on unix
    let _ = cluster.0[victim].wait();
    cluster.push(worker(&dir, "w8").spawn().unwrap());

    // Through detection, rollback, the spare's registration (all nine
    // workers) and the redeploy, the controller never grows a thread:
    // every reading while it runs is the one (0 once it has exited).
    let deadline = Instant::now() + Duration::from_secs(100);
    while cluster.0[ctl].try_wait().unwrap().is_none() {
        let threads = thread_count(cluster.0[ctl].id());
        assert!(
            threads <= CONTROLLER_THREADS,
            "controller runs {threads} threads during recovery"
        );
        assert!(Instant::now() < deadline, "recovery controller hung");
        std::thread::sleep(Duration::from_millis(25));
    }
    let status = wait_exit(&mut cluster.0[ctl], Duration::from_secs(1));
    assert!(status.success(), "recovery controller failed: {status:?}");
    let (recoveries, sinks) = parse_result(&dir.join("result"));
    assert_eq!(recoveries, "recoveries=1");

    // The recovered 55-HAU answer is byte-identical to the unfailed
    // run: same sink state, same closed form.
    assert_eq!(sinks, ref_sinks);
    check_fleet_ledger(&dir.join("store"));

    let _ = fs::remove_dir_all(&ref_dir);
    let _ = fs::remove_dir_all(&dir);
}
