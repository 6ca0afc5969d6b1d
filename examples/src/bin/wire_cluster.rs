//! The paper's evaluation topology over *real TCP* on localhost: one
//! controller (hosted on a thread here) and **eight worker
//! processes**, each a genuine OS process running the same daemon code
//! as the `ms-worker` binary — this example re-executes itself with
//! `--worker` to spawn them. The logical graph is `fleet6x6` (6
//! sources → 6 chained keyed stages → 1 sink); with `--shards 8`
//! every stage expands to 8 hash-partitioned HAU instances, so the
//! cluster deploys 6 + 48 + 1 = **55 HAUs**, the paper's scale.
//!
//! Each worker hosts its ~7 HAUs on the event-loop core: one I/O
//! thread multiplexing every peer socket plus a fixed 2–4 thread
//! apply pool, so the whole 55-HAU topology fits in 8 small
//! processes instead of hundreds of threads.
//!
//! Run with `cargo run --release -p ms-examples --bin wire_cluster`.
//!
//! For the full failure story — SIGKILL a worker process mid-stream
//! and watch the controller roll back, redeploy, and replay — see the
//! `kill_recover` and `scale_cluster` integration tests, which
//! automate it at chain and fleet scale respectively.

use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::Duration;

use ms_core::codec::SnapshotReader;
use ms_wire::apps::expected_fleet_sum;
use ms_wire::{
    by_shard_summary, read_ledger, run_controller, run_worker, summarize, ControllerAddr,
    ControllerConfig, WorkerConfig, LEDGER_FILE,
};

const WORKERS: usize = 8;
const SOURCES: u64 = 6;
const STAGES: u32 = 6;
const SHARDS: u64 = 8;
/// 6 + 6×8 + 1.
const HAUS: usize = 55;
/// Long enough (slowest skewed source ≈ 1 s of emission) that several
/// 150 ms checkpoint epochs close their barrier and reach the ledger.
const LIMIT: u64 = 1200;

fn main() {
    // Re-executed in worker mode by the parent below.
    let args: Vec<String> = std::env::args().collect();
    if args.len() == 4 && args[1] == "--worker" {
        worker_main(&args[2], &args[3]);
        return;
    }

    let dir = std::env::temp_dir().join(format!("ms_wire_example_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("store");
    let addr_file = dir.join("addr");

    let cfg = ControllerConfig {
        listen: "127.0.0.1:0".into(),
        addr_file: Some(addr_file.clone()),
        store_dir: store.clone(),
        workers: WORKERS,
        shape: format!("fleet{SOURCES}x{STAGES}"),
        source_limit: LIMIT,
        source_delay_us: 50,
        keyed_state: 256,
        sawtooth_window: 0,
        shards: SHARDS,
        ckpt_interval: Duration::from_millis(150),
        hb_timeout: Duration::from_millis(1000),
        barrier_stall: None,
        respawn_wait: Duration::from_millis(2000),
        deadline: Duration::from_secs(120),
        result_file: None,
        gate: None,
        aware: false,
        aware_sample: Duration::from_millis(100),
        aware_profile_periods: 2,
        recovery_budget: None,
    };
    let controller = thread::spawn(move || run_controller(cfg));

    // Eight real worker *processes*: this binary, re-executed.
    let exe = std::env::current_exe().unwrap();
    let mut children: Vec<Child> = (0..WORKERS)
        .map(|i| {
            Command::new(&exe)
                .arg("--worker")
                .arg(format!("w{i}"))
                .arg(&dir)
                .stdout(Stdio::null())
                .spawn()
                .expect("spawn worker process")
        })
        .collect();

    let report = match controller.join().unwrap() {
        Ok(r) => r,
        Err(e) => {
            for c in &mut children {
                let _ = c.kill();
            }
            panic!("controller failed: {e}");
        }
    };
    for c in &mut children {
        let status = c.wait().expect("wait worker");
        assert!(status.success(), "worker exited with {status}");
    }

    println!(
        "cluster done: {HAUS} HAUs on {WORKERS} processes, {} checkpoints paced, {} recoveries",
        report.checkpoints, report.recoveries
    );
    let (want_sum, want_count) = expected_fleet_sum(SOURCES, STAGES, LIMIT);
    for (op, state) in &report.sink_states {
        let mut r = SnapshotReader::new(state);
        let sum = r.get_i64().unwrap();
        let count = r.get_u64().unwrap();
        println!("sink op{}: sum={sum} over {count} tuples", op.0);
        assert_eq!(sum, want_sum);
        assert_eq!(count, want_count);
    }

    // The run ledger has one row per (epoch, HAU): every complete
    // epoch must carry all 55 physical operators, and the --by-shard
    // view shows how evenly the keyed state spread over each stage's
    // 8 instances.
    let records = read_ledger(&store.join(LEDGER_FILE)).expect("run ledger must parse");
    assert!(
        !records.is_empty(),
        "no epoch barrier closed during the run — ledger is empty"
    );
    for epoch in records
        .iter()
        .map(|r| r.epoch)
        .collect::<std::collections::BTreeSet<_>>()
    {
        let ops: std::collections::BTreeSet<u32> = records
            .iter()
            .filter(|r| r.epoch == epoch)
            .map(|r| r.op)
            .collect();
        assert_eq!(ops.len(), HAUS, "epoch {epoch} missing operators: {ops:?}");
    }
    print!("{}", summarize(&records, 3));
    print!("{}", by_shard_summary(&records));

    let _ = std::fs::remove_dir_all(&dir);
}

/// One worker process: the same `run_worker` the `ms-worker` binary
/// runs, pointed at the parent's store and address file.
fn worker_main(name: &str, dir: &str) {
    let dir = std::path::PathBuf::from(dir);
    let cfg = WorkerConfig {
        name: name.into(),
        controller: ControllerAddr::File(dir.join("addr")),
        store_dir: dir.join("store"),
    };
    if let Err(e) = run_worker(cfg) {
        eprintln!("worker {name}: {e}");
        std::process::exit(1);
    }
}
