//! End-to-end exercise of the live telemetry plane on a real
//! 3-process cluster: the controller profiles the running sawtooth
//! workload over worker heartbeats, arms the §III-C classifier, and
//! initiates at least one epoch barrier at a detected aggregate
//! local minimum — then survives a SIGKILL with a byte-identical
//! recovered answer, proving aware timing costs nothing in
//! correctness.
//!
//! The middle operator is [`SawtoothStat`](ms_wire::apps): its keyed
//! table collapses every `--sawtooth-window` applied tuples, so with
//! a key space larger than the window the state size ramps linearly
//! and crashes to near zero on a fixed cadence — the canonical
//! Fig. 10 shape, produced by real tuples instead of a trace.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ms_core::codec::SnapshotReader;
use ms_wire::{read_decisions, read_ledger, LEDGER_FILE};

const LIMIT: u64 = 14000;
const DELAY_US: u64 = 500;
/// Key space (values cycle through `v % KEYED_STATE`); must exceed the
/// sawtooth window so every in-window tuple inserts a fresh key and
/// the table *ramps* instead of saturating.
const KEYED_STATE: u64 = 4096;
/// Applied tuples between state collapses: at 500 µs per tuple the
/// aggregate state dives every ~565 ms, well inside a 1 s period.
///
/// `smax` is the highest of the profiled periods' minima, and each
/// minimum is the lowest sample after a collapse — so whether a later
/// collapse's lowest sample comes in under it depends on where the
/// samples fall in the tooth. A tooth that is a multiple of the sample
/// period locks every tooth to one phase, and an unlucky lock misses
/// every period. This tooth is no multiple of the 50 ms sample period:
/// successive teeth shift the phase by ~15 ms and sweep it.
const SAWTOOTH_WINDOW: u64 = 1130;

/// Kills every still-running child on drop so a failing assert never
/// leaks processes.
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
        .args(["--workers", "2", "--shape", "chain3"])
        .args(["--limit", &LIMIT.to_string()])
        .args(["--delay-us", &DELAY_US.to_string()])
        .args(["--keyed-state", &KEYED_STATE.to_string()])
        .args(["--sawtooth-window", &SAWTOOTH_WINDOW.to_string()])
        // One-second period, three profiling periods, and 50 ms
        // sampling — the heartbeat cadence the profile is built from,
        // so a round sees a collapse as finely as the profile did. The
        // classifier arms ~3 s in, with ~4 s of sawtooth left; the
        // third profiled period raises `smax` (the highest of three
        // minima, not two).
        .args(["--ckpt-ms", "1000", "--aware", "1"])
        .args(["--aware-sample-ms", "50", "--aware-profile-periods", "3"])
        .args(["--hb-timeout-ms", "500"])
        .args(["--respawn-wait-ms", "3000", "--deadline-secs", "90"])
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

/// `(recoveries line, sink lines)` from a result file.
fn parse_result(path: &Path) -> (String, Vec<String>) {
    let text = fs::read_to_string(path).unwrap();
    let mut lines = text.lines();
    let recoveries = lines.next().unwrap().to_string();
    (recoveries, lines.map(str::to_string).collect())
}

/// Decodes a `sink op{N} {hex}` line into the Summer's `(sum, count)`.
fn decode_sink(line: &str) -> (i64, u64) {
    let hex = line.rsplit(' ').next().unwrap();
    let bytes: Vec<u8> = (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect();
    let mut r = SnapshotReader::new(&bytes);
    (r.get_i64().unwrap(), r.get_u64().unwrap())
}

/// Asserts the decision trail shows the plane working: timer-paced
/// initiations while profiling, then at least one barrier initiated
/// at a detected aggregate local minimum.
fn check_decisions(store: &Path, run: &str) {
    let decisions = read_decisions(&store.join(LEDGER_FILE)).expect("decision trail must parse");
    assert!(!decisions.is_empty(), "{run}: no decision records");
    assert!(
        decisions.iter().any(|d| d.reason == "timer"),
        "{run}: no timer-paced initiation during the profiling phase"
    );
    assert!(
        decisions.iter().any(|d| d.reason == "local_minimum"),
        "{run}: classifier never initiated at a local minimum; reasons: {:?}",
        decisions
            .iter()
            .map(|d| d.reason.clone())
            .collect::<Vec<_>>()
    );
    for d in &decisions {
        assert!(d.period_us_before > 0, "{run}: decision without a period");
    }
    // Decision rows share the file with epoch rows without corrupting
    // them for the batch reader.
    let epochs = read_ledger(&store.join(LEDGER_FILE)).expect("epoch rows must still parse");
    assert!(!epochs.is_empty(), "{run}: epoch rows vanished");
}

#[test]
fn aware_cluster_checkpoints_at_minima_and_survives_sigkill() {
    // --- Reference run: no failure. ---
    let ref_dir = fresh_dir("aware_ref");
    let mut cluster = Cluster(Vec::new());
    let ctl = cluster.push(controller(&ref_dir).spawn().unwrap());
    cluster.push(worker(&ref_dir, "wa").spawn().unwrap());
    cluster.push(worker(&ref_dir, "wb").spawn().unwrap());
    let status = wait_exit(&mut cluster.0[ctl], Duration::from_secs(80));
    assert!(status.success(), "reference controller failed: {status:?}");
    let (recoveries, ref_sinks) = parse_result(&ref_dir.join("result"));
    assert_eq!(recoveries, "recoveries=0");
    assert_eq!(ref_sinks.len(), 1);
    check_decisions(&ref_dir.join("store"), "reference");
    drop(cluster);

    // --- Failure run: SIGKILL the sawtooth worker mid-stream. ---
    let dir = fresh_dir("aware_kill");
    let mut cluster = Cluster(Vec::new());
    let ctl = cluster.push(controller(&dir).spawn().unwrap());
    cluster.push(worker(&dir, "wa").spawn().unwrap());
    // Placement is round-robin over sorted names: op0,op2 → wa and
    // op1 (the sawtooth table) → wb.
    let victim = cluster.push(worker(&dir, "wb").spawn().unwrap());

    // Let the stream run until the ledger holds the first barrier
    // initiated at a local minimum — past the profiling phase, so the
    // rollback rewinds an aware-timed epoch whatever phase of the
    // sawtooth the post-recovery samples land on.
    let ledger = dir.join("store").join(LEDGER_FILE);
    let at_minimum =
        || read_decisions(&ledger).is_ok_and(|ds| ds.iter().any(|d| d.reason == "local_minimum"));
    let deadline = Instant::now() + Duration::from_secs(30);
    while !at_minimum() {
        assert!(
            Instant::now() < deadline,
            "no barrier initiated at a local minimum in time"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        !dir.join("result").exists(),
        "stream finished before the kill; raise --limit"
    );
    cluster.0[victim].kill().unwrap(); // SIGKILL on unix
    let _ = cluster.0[victim].wait();
    // Spare worker takes the bench.
    cluster.push(worker(&dir, "wc").spawn().unwrap());

    let status = wait_exit(&mut cluster.0[ctl], Duration::from_secs(80));
    assert!(status.success(), "recovery controller failed: {status:?}");
    let (recoveries, sinks) = parse_result(&dir.join("result"));
    assert_eq!(recoveries, "recoveries=1");

    // The recovered answer is byte-identical to the unfailed run: the
    // sawtooth phase counter rides the checkpoints, so replay rebuilds
    // the exact collapse schedule.
    assert_eq!(sinks, ref_sinks);
    let (sum, count) = decode_sink(&sinks[0]);
    assert_eq!(
        count, LIMIT,
        "exactly-once violated: lost or duplicated tuples"
    );
    // The sawtooth operator forwards every value doubled.
    let expected: i64 = 2 * (0..LIMIT as i64).sum::<i64>();
    assert_eq!(sum, expected);

    check_decisions(&dir.join("store"), "failure");
    // The measured recovery landed in the decision trail.
    let decisions = read_decisions(&dir.join("store").join(LEDGER_FILE)).unwrap();
    let rec: Vec<_> = decisions
        .iter()
        .filter(|d| d.reason == "recovery")
        .collect();
    assert_eq!(rec.len(), 1, "want exactly one recovery row: {rec:?}");
    assert!(rec[0].recovery_us > 0, "recovery time not measured");

    let _ = fs::remove_dir_all(&ref_dir);
    let _ = fs::remove_dir_all(&dir);
}
