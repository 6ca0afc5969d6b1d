//! End-to-end exactly-once through the ingestion gateway across a
//! SIGKILL of the worker hosting it.
//!
//! Five real producer processes (threads speaking the TCP protocol)
//! push batches at a `--gate-producers` cluster: four well-behaved
//! stop-and-wait producers and one hostile producer whose single batch
//! always exceeds the admission budget. Reference run: no failure.
//! Failure run: the worker hosting the gateway is SIGKILLed once two
//! application checkpoints are complete, mid-stream; producers ride
//! out the outage by re-reading the published gate address and
//! retrying un-acked batches on fresh connections. The sink's final
//! state must be byte-identical to the reference run: every acked
//! batch exactly once, the shed batch provably absent.

mod cluster;

use std::fmt::Display;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use cluster::*;
use ms_core::gate::GateMsg;

const PRODUCERS: u64 = 4;
const BATCHES: u64 = 80;
/// Inter-batch pacing: keeps the stream alive long enough for the
/// mid-stream kill to land before the producers finish.
const PACE: Duration = Duration::from_millis(25);

/// Admission budget per checkpoint window. Normal traffic stays far
/// below it; the oversize batch alone exceeds it.
const BUDGET_BYTES: u64 = 65_536;
const OVERSIZE_PRODUCER: u64 = 999;
/// 8192 events * 16 bytes = 131072 > BUDGET_BYTES: shed even into an
/// empty window.
const OVERSIZE_EVENTS: u64 = 8192;
/// A value so distinctive that a single admitted oversize event would
/// blow the exact-sum assertion.
const OVERSIZE_VALUE: i64 = 1_000_003;

const FLAGS: &[(&str, &dyn Display)] = &[
    ("--workers", &2),
    ("--shape", &"chain3"),
    ("--gate-producers", &(PRODUCERS + 1)), // 4 normal + 1 oversize
    ("--gate-budget-bytes", &BUDGET_BYTES),
    ("--gate-retry-ms", &25),
    ("--ckpt-ms", &120),
    ("--hb-timeout-ms", &500),
    ("--respawn-wait-ms", &3000),
    ("--deadline-secs", &90),
];

/// The hostile producer: one batch that always exceeds the admission
/// budget, offered over and over (across the kill too) — it must be
/// shed with `Busy` every single time, before and after recovery. It
/// `Fin`s last so its shed loop keeps pressure on the gate for the
/// whole run; a `Fin` acked at any point would survive rollbacks
/// regardless (the fin WAL marker — see `chaos_matrix`).
fn run_oversize(addr_file: PathBuf, finished: Arc<AtomicUsize>) {
    let producer = OVERSIZE_PRODUCER;
    let deadline = Instant::now() + PRODUCER_DEADLINE;
    let msg = GateMsg::Batch {
        batch: 1,
        events: (0..OVERSIZE_EVENTS)
            .map(|j| (j % KEYS, OVERSIZE_VALUE))
            .collect(),
    };
    let mut conn = connect_gate(&addr_file, producer, deadline);
    let mut sheds = 0u64;
    while finished.load(Ordering::SeqCst) < PRODUCERS as usize {
        assert!(
            Instant::now() < deadline,
            "oversize producer outlived its deadline"
        );
        match exchange(&mut conn, &addr_file, producer, deadline, &msg) {
            GateMsg::Busy { retry_after_ms, .. } => {
                sheds += 1;
                thread::sleep(Duration::from_millis(retry_after_ms.clamp(5, 100)));
            }
            GateMsg::Accepted { .. } => panic!("oversize batch admitted — budget not enforced"),
            other => panic!("oversize producer: unexpected reply {other:?}"),
        }
    }
    assert!(sheds > 0, "oversize batch was never offered");
    match exchange(
        &mut conn,
        &addr_file,
        producer,
        deadline,
        &GateMsg::Fin { producer },
    ) {
        GateMsg::FinOk => {}
        other => panic!("oversize fin: unexpected reply {other:?}"),
    }
}

/// Runs one full gateway cluster (controller + 2 workers + 5 producer
/// threads) and returns `(recoveries line, sink lines)`. With
/// `kill_gate_host`, SIGKILLs the worker hosting the gateway once two
/// application checkpoints are complete and spawns a spare.
fn run_gate_cluster(tag: &str, kill_gate_host: bool) -> (String, Vec<String>) {
    let dir = fresh_dir(tag);
    let store = dir.join("store");
    let mut cluster = Cluster(Vec::new());
    let ctl = cluster.spawn(controller(&dir, FLAGS));
    cluster.spawn(worker(&dir, "wa", &[]));
    // Gate placement reverses the round-robin: with two workers the
    // gateway (op0) lands on wb, away from the sink on wa — killing wb
    // kills the gate's host without destroying the sink.
    let victim = cluster.spawn(worker(&dir, "wb", &[]));

    let addr_file = store.join("gate_op0.addr");
    let finished = Arc::new(AtomicUsize::new(0));
    let mut producers = Vec::new();
    for p in 1..=PRODUCERS {
        let af = addr_file.clone();
        let fin = finished.clone();
        producers.push(thread::spawn(move || {
            run_producer(af, p, BATCHES, PACE, None, fin)
        }));
    }
    {
        let af = addr_file.clone();
        let fin = finished.clone();
        producers.push(thread::spawn(move || run_oversize(af, fin)));
    }

    if kill_gate_host {
        wait_until("complete checkpoint", Duration::from_secs(40), || {
            max_complete_epoch(&store, CHAIN_OPS) >= 2
        });
        assert!(
            !dir.join("result").exists(),
            "stream finished before the kill; raise BATCHES"
        );
        cluster.kill(victim);
        cluster.spawn(worker(&dir, "wc", &[]));
    }

    let status = wait_exit(&mut cluster.0[ctl], Duration::from_secs(110));
    assert!(status.success(), "controller failed: {status:?}");
    for h in producers {
        h.join().expect("producer thread panicked");
    }

    // The run ledger carries the gateway's telemetry on the gate op's
    // rows — admissions, sheds — and zeros everywhere else.
    let generations = if kill_gate_host { 2 } else { 1 };
    let records = check_ledger(&store, CHAIN_OPS, generations, Some(0));
    let gate_max = |f: fn(&ms_wire::LedgerRecord) -> u64| {
        records
            .iter()
            .filter(|r| r.op == 0)
            .map(f)
            .max()
            .unwrap_or(0)
    };
    assert!(
        gate_max(|r| r.gate_accepted) > 0,
        "ledger never recorded gateway admissions"
    );
    assert!(
        gate_max(|r| r.gate_shed) > 0,
        "oversize shedding never reached the ledger"
    );
    assert!(
        records
            .iter()
            .filter(|r| r.op != 0)
            .all(|r| r.gate_accepted == 0 && r.gate_shed == 0),
        "non-gateway rows must carry zero gate columns"
    );

    let result = parse_result(&dir.join("result"));
    drop(cluster);
    let _ = fs::remove_dir_all(&dir);
    result
}

#[test]
fn sigkill_of_gate_host_loses_no_acked_batch() {
    // --- Reference run: no failure. ---
    let (recoveries, ref_sinks) = run_gate_cluster("gate_ref", false);
    assert_eq!(recoveries, "recoveries=0");
    assert_eq!(ref_sinks.len(), 1);

    // --- Failure run: SIGKILL the gateway's worker mid-stream. ---
    let (recoveries, sinks) = run_gate_cluster("gate_kill", true);
    assert_eq!(recoveries, "recoveries=1");

    // Byte-identical to the unfailed run: every acked batch exactly
    // once, nothing lost, nothing duplicated.
    assert_eq!(sinks, ref_sinks, "recovered sink differs from unfailed run");

    let (sum, count) = decode_sink(&sinks[0]);
    let mut expected = 0i64;
    for p in 1..=PRODUCERS {
        for b in 1..=BATCHES {
            for j in 0..EVENTS_PER_BATCH {
                // The chain's Doubler doubles every value on the way
                // to the Summer sink.
                expected += 2 * value(p, b, j);
            }
        }
    }
    assert_eq!(
        sum, expected,
        "acked events lost or duplicated — or the shed oversize batch leaked through"
    );
    // One tuple per distinct key per batch proves pre-aggregation ran
    // at the gate, and exactly once each proves the dedup held across
    // the SIGKILL.
    assert_eq!(count, PRODUCERS * BATCHES * KEYS);
}
