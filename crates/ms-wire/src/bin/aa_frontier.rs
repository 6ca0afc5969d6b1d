//! Recovery-time-vs-checkpoint-overhead frontier for EXPERIMENTS.md.
//!
//! Runs the same sawtooth chain3 workload — SIGKILL of the keyed
//! worker included — under fixed checkpoint periods and under the
//! live telemetry plane (aware initiation + adaptive cadence) at
//! several recovery budgets. Each cell is a real 3-process cluster on
//! localhost; the metrics come out of the run ledger the controller
//! writes anyway: total checkpoint bytes, barrier-latency p99, the
//! measured failure-detection → caught-up recovery time, and how many
//! barriers the classifier landed on aggregate state minima.
//!
//! Prints the markdown table recorded in EXPERIMENTS.md.
//!
//! Usage: `aa_frontier` (next to `ms-controller` / `ms-worker`, i.e.
//! run via `cargo run --release -p ms-wire --bin aa_frontier`).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ms_wire::{read_decisions, read_ledger, LEDGER_FILE};

const LIMIT: u64 = 12000;
const DELAY_US: u64 = 500;
const KEYED_STATE: u64 = 4096;
const SAWTOOTH_WINDOW: u64 = 1000;

struct Cell {
    label: &'static str,
    ckpt_ms: u64,
    aware: bool,
    budget_ms: u64,
}

const CELLS: &[Cell] = &[
    Cell {
        label: "fixed-200ms",
        ckpt_ms: 200,
        aware: false,
        budget_ms: 0,
    },
    Cell {
        label: "fixed-500ms",
        ckpt_ms: 500,
        aware: false,
        budget_ms: 0,
    },
    Cell {
        label: "fixed-1000ms",
        ckpt_ms: 1000,
        aware: false,
        budget_ms: 0,
    },
    Cell {
        label: "adaptive-1s",
        ckpt_ms: 1000,
        aware: true,
        budget_ms: 1000,
    },
    Cell {
        label: "adaptive-2s",
        ckpt_ms: 1000,
        aware: true,
        budget_ms: 2000,
    },
    Cell {
        label: "adaptive-4s",
        ckpt_ms: 1000,
        aware: true,
        budget_ms: 4000,
    },
];

struct Measured {
    ckpt_bytes: u64,
    checkpoints: usize,
    barrier_p99_ms: f64,
    recovery_ms: f64,
    local_minima: usize,
}

/// Kills every still-running child on drop so a failed cell never
/// leaks processes.
struct Cluster(Vec<Child>);

impl Drop for Cluster {
    fn drop(&mut self) {
        for c in &mut self.0 {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

fn sibling(name: &str) -> PathBuf {
    let mut p = std::env::current_exe().expect("current_exe");
    p.set_file_name(name);
    assert!(p.exists(), "{} not built next to aa_frontier", p.display());
    p
}

fn controller(dir: &Path, cell: &Cell) -> Command {
    let mut cmd = Command::new(sibling("ms-controller"));
    cmd.args(["--store".as_ref(), dir.join("store").as_os_str()])
        .args(["--addr-file".as_ref(), dir.join("addr").as_os_str()])
        .args(["--result-file".as_ref(), dir.join("result").as_os_str()])
        .args(["--workers", "2", "--shape", "chain3"])
        .args(["--limit", &LIMIT.to_string()])
        .args(["--delay-us", &DELAY_US.to_string()])
        .args(["--keyed-state", &KEYED_STATE.to_string()])
        .args(["--sawtooth-window", &SAWTOOTH_WINDOW.to_string()])
        .args(["--ckpt-ms", &cell.ckpt_ms.to_string()])
        .args(["--hb-timeout-ms", "500"])
        .args(["--respawn-wait-ms", "3000", "--deadline-secs", "90"])
        .stdout(Stdio::null())
        .stderr(Stdio::inherit());
    if cell.aware {
        cmd.args(["--aware", "1"]).args([
            "--aware-sample-ms",
            "100",
            "--aware-profile-periods",
            "2",
        ]);
    }
    if cell.budget_ms > 0 {
        cmd.args(["--recovery-budget-ms", &cell.budget_ms.to_string()]);
    }
    cmd
}

fn worker(dir: &Path, name: &str) -> Command {
    let mut cmd = Command::new(sibling("ms-worker"));
    cmd.args(["--name", name])
        .args(["--store".as_ref(), dir.join("store").as_os_str()])
        .args(["--controller-file".as_ref(), dir.join("addr").as_os_str()])
        .stdout(Stdio::null())
        .stderr(Stdio::inherit());
    cmd
}

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
        .filter(|(_, &n)| n >= 3)
        .map(|(&e, _)| e)
        .max()
        .unwrap_or(0)
}

fn run_cell(cell: &Cell, scratch: &Path) -> Measured {
    let dir = scratch.join(cell.label);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("cell dir");

    let mut cluster = Cluster(Vec::new());
    cluster
        .0
        .push(controller(&dir, cell).spawn().expect("spawn controller"));
    cluster
        .0
        .push(worker(&dir, "wa").spawn().expect("spawn wa"));
    cluster
        .0
        .push(worker(&dir, "wb").spawn().expect("spawn wb"));

    // SIGKILL the sawtooth worker once two application checkpoints are
    // durable — same protocol as the `aware_live` integration test.
    let deadline = Instant::now() + Duration::from_secs(30);
    while max_complete_epoch(&dir.join("store")) < 2 {
        assert!(
            Instant::now() < deadline,
            "{}: no complete checkpoint in time",
            cell.label
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    cluster.0[2].kill().expect("kill wb");
    let _ = cluster.0[2].wait();
    cluster
        .0
        .push(worker(&dir, "wc").spawn().expect("spawn wc"));

    let exit_by = Instant::now() + Duration::from_secs(80);
    loop {
        if let Some(status) = cluster.0[0].try_wait().expect("controller wait") {
            assert!(status.success(), "{}: controller failed", cell.label);
            break;
        }
        assert!(Instant::now() < exit_by, "{}: controller hung", cell.label);
        std::thread::sleep(Duration::from_millis(25));
    }
    drop(cluster);

    // Everything below comes off the run ledger.
    let ledger_path = dir.join("store").join(LEDGER_FILE);
    let records = read_ledger(&ledger_path).expect("ledger parse");
    let ckpt_bytes: u64 = records.iter().map(|r| r.ckpt_bytes).sum();
    let mut per_epoch: std::collections::BTreeMap<u64, u64> = Default::default();
    for r in &records {
        per_epoch.insert(r.epoch, r.barrier_us);
    }
    let mut barriers: Vec<u64> = per_epoch.values().copied().collect();
    barriers.sort_unstable();
    let p99_idx = (barriers.len().saturating_sub(1)) * 99 / 100;
    let barrier_p99_ms = barriers.get(p99_idx).map_or(0.0, |&us| us as f64 / 1e3);

    let decisions = read_decisions(&ledger_path).expect("decision parse");
    let recovery_ms = decisions
        .iter()
        .find(|d| d.reason == "recovery")
        .map_or(0.0, |d| d.recovery_us as f64 / 1e3);
    let local_minima = decisions
        .iter()
        .filter(|d| d.reason == "local_minimum")
        .count();

    let _ = fs::remove_dir_all(&dir);
    Measured {
        ckpt_bytes,
        checkpoints: per_epoch.len(),
        barrier_p99_ms,
        recovery_ms,
        local_minima,
    }
}

fn main() {
    let scratch = std::env::temp_dir().join(format!("ms_aa_frontier_{}", std::process::id()));
    fs::create_dir_all(&scratch).expect("scratch dir");

    println!(
        "aa_frontier: sawtooth chain3, {LIMIT} tuples @ {DELAY_US} µs, \
         window {SAWTOOTH_WINDOW}, SIGKILL mid-stream"
    );
    println!("| cell | ckpts | ckpt bytes | barrier p99 ms | recovery ms | minima |");
    println!("|---|---|---|---|---|---|");
    for cell in CELLS {
        let m = run_cell(cell, &scratch);
        println!(
            "| {} | {} | {} | {:.1} | {:.1} | {} |",
            cell.label,
            m.checkpoints,
            m.ckpt_bytes,
            m.barrier_p99_ms,
            m.recovery_ms,
            m.local_minima
        );
    }
    let _ = fs::remove_dir_all(&scratch);
}
