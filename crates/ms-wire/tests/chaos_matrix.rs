//! The correlated-failure chaos matrix: eight scenarios, each a real
//! multi-process cluster with a deterministic fault injected, each
//! held to one gold bar — the sink's final state is **byte-identical**
//! to an unfailed run, and the run ledger stays epoch-contiguous
//! inside every generation.
//!
//! | scenario | fault | detector exercised |
//! |---|---|---|
//! | double worker kill | SIGKILL both workers in the same instant | heartbeat timeout, correlated |
//! | staggered double kill | SIGKILL `wa`, then `wb` 200 ms later: the redeploy lands on a dead-but-undetected worker | generation-scoped deploy waits |
//! | loss while waiting for spares | SIGKILL `wa`, then `wb` inside the `respawn_wait` window, spares late | heartbeat check with nothing deployed |
//! | kill during checkpoint | SIGKILL while an application checkpoint is mid-flight (slow-disk persister widens the window) | heartbeat timeout + tmp/rename idempotence |
//! | controller + worker | SIGKILL controller and a worker together, restart on the same store | controller resume (ledger + epoch watermark) |
//! | severed edge | `MS_FAULT_PLAN` kills one edge's frames, generation-scoped | barrier-stall rollback, partition heals on redeploy |
//! | flaky slow disk | `MS_FAULT_STORE` latency + every-Nth transient write failures | `RetryStore` absorption — zero rollbacks |
//! | gate-host kill | SIGKILL the gateway worker under live producers, one producer already `Fin`ed and gone | fin WAL marker replay + batch dedup |
//!
//! The seven chain-shaped scenarios share one reference run (same
//! graph, same limit — byte-comparable by construction); the gateway
//! scenario drives its own. Process plumbing, the checkpoint census,
//! the ledger audit and the gateway producer are the `cluster` module
//! every multi-process test shares; faults are injected by SIGKILL and
//! the `MS_FAULT_PLAN` / `MS_FAULT_STORE` env vars.

mod cluster;

use std::fmt::Display;
use std::fs;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::Duration;

use cluster::*;

/// Tuples each demo source emits.
const LIMIT: u64 = 4000;

/// The chain3 cluster every scenario runs. Everything is pinned here
/// so the chain scenarios stay byte-comparable to one reference run;
/// a scenario appends only a detector or gateway flag.
const FLAGS: &[(&str, &dyn Display)] = &[
    ("--workers", &2),
    ("--shape", &"chain3"),
    ("--limit", &LIMIT),
    ("--delay-us", &300),
    ("--ckpt-ms", &120),
    ("--hb-timeout-ms", &500),
    ("--respawn-wait-ms", &3000),
    ("--deadline-secs", &90),
];

/// The unfailed chain3 run every chain scenario diffs against: run
/// once per test binary, shared across scenarios (they use identical
/// graph knobs, so their sink bytes must match it exactly).
static REFERENCE: OnceLock<Vec<String>> = OnceLock::new();

fn reference_sinks() -> &'static [String] {
    REFERENCE.get_or_init(|| {
        let dir = fresh_dir("ref");
        let sinks = clean_run(&dir, FLAGS);
        // The Doubler doubles every source value on its way to the
        // Summer sink.
        let (sum, count) = decode_sink(&sinks[0]);
        assert_eq!((sum, count), (2 * (0..LIMIT as i64).sum::<i64>(), LIMIT));
        check_ledger(&dir.join("store"), CHAIN_OPS, 1, None);
        let _ = fs::remove_dir_all(&dir);
        sinks
    })
}

/// Blocks until at least `n` complete application checkpoints exist,
/// and asserts the stream has not already finished — a kill landing
/// after completion tests nothing.
fn wait_checkpoints_mid_stream(dir: &std::path::Path, n: u64) {
    let store = dir.join("store");
    wait_until("complete checkpoint", Duration::from_secs(40), || {
        max_complete_epoch(&store, CHAIN_OPS) >= n
    });
    assert!(
        !dir.join("result").exists(),
        "stream finished before the fault; raise --limit"
    );
}

/// How long a measured recovery (failure detected → first barrier
/// close of the restored generation, the ledger's `"reason":"recovery"`
/// row) may take. Detection, restore and one checkpoint period add up
/// to about a second here; a deploy that sat out its 10 s connect wait
/// against a dead peer's data port lands far past this.
const RECOVERY_BOUND_US: u64 = 5_000_000;

/// Asserts the run measured at least one recovery and none ran long.
fn assert_recoveries_bounded(store: &std::path::Path) {
    let rows: Vec<u64> = ms_wire::read_decisions(&store.join(ms_wire::LEDGER_FILE))
        .expect("run ledger must parse")
        .iter()
        .filter(|d| d.reason == "recovery")
        .map(|d| d.recovery_us)
        .collect();
    assert!(!rows.is_empty(), "no measured recovery in the ledger");
    assert!(
        rows.iter().all(|&us| us < RECOVERY_BOUND_US),
        "a recovery waited out a dead peer: {rows:?} us"
    );
}

/// Scenario 1 — correlated worker loss: both workers of the cluster
/// SIGKILLed in the same instant (the rack-level failure the paper's
/// commodity-DC argument leads with), two spares take the bench.
#[test]
fn double_worker_sigkill_recovers_to_identical_answer() {
    let refs = reference_sinks();
    let dir = fresh_dir("dblkill");
    let mut cluster = Cluster(Vec::new());
    let ctl = cluster.spawn(controller(&dir, FLAGS));
    let wa = cluster.spawn(worker(&dir, "wa", &[]));
    let wb = cluster.spawn(worker(&dir, "wb", &[]));

    wait_checkpoints_mid_stream(&dir, 2);
    for victim in [wa, wb] {
        cluster.0[victim].kill().unwrap(); // SIGKILL on unix
    }
    for victim in [wa, wb] {
        let _ = cluster.0[victim].wait();
    }
    cluster.spawn(worker(&dir, "wc", &[]));
    cluster.spawn(worker(&dir, "wd", &[]));

    let status = wait_exit(&mut cluster.0[ctl], Duration::from_secs(80));
    assert!(status.success(), "recovery controller failed: {status:?}");
    let (rec, sinks) = parse_result(&dir.join("result"));
    // One rollback if both deaths land in the same detection tick; a
    // second if a straggler redeploy caught a half-dead bench.
    assert!(recoveries(&rec) >= 1, "no recovery recorded: {rec}");
    assert_eq!(sinks, refs, "recovered sink differs from unfailed run");
    check_ledger(&dir.join("store"), CHAIN_OPS, 2, None);
    // Whichever way the two deaths split across detection ticks.
    assert_recoveries_bounded(&dir.join("store"));

    drop(cluster);
    let _ = fs::remove_dir_all(&dir);
}

/// Scenario 1b — staggered correlated loss (msbench's `burst_mid`):
/// one worker dies, the other 200 ms later. The controller detects the
/// first death and redeploys onto a bench that still lists the second
/// worker, whose heartbeats only just stopped; connects to its data
/// port are refused until it is detected too and the generation is
/// rolled back. The spares must drop that deploy at the rollback, not
/// retry the connect for the rest of `CONNECT_WAIT` with the next
/// `Assign` unread. Placement is round-robin over sorted names, so the
/// spares are named to sort *before* the doomed `wd`: that puts a
/// downstream operator on `wd` and a live spare upstream of it.
#[test]
fn staggered_double_kill_abandons_the_deploy_onto_the_dead_worker() {
    let refs = reference_sinks();
    let dir = fresh_dir("stagger");
    let mut cluster = Cluster(Vec::new());
    let ctl = cluster.spawn(controller(&dir, FLAGS));
    let first = cluster.spawn(worker(&dir, "wc", &[]));
    let second = cluster.spawn(worker(&dir, "wd", &[]));

    wait_checkpoints_mid_stream(&dir, 2);
    cluster.kill(first);
    cluster.spawn(worker(&dir, "wa", &[]));
    thread::sleep(Duration::from_millis(200));
    cluster.kill(second);
    cluster.spawn(worker(&dir, "wb", &[]));

    let status = wait_exit(&mut cluster.0[ctl], Duration::from_secs(80));
    assert!(status.success(), "recovery controller failed: {status:?}");
    let (rec, sinks) = parse_result(&dir.join("result"));
    assert_eq!(
        recoveries(&rec),
        2,
        "the scenario needs the redeploy between the two detections: {rec}"
    );
    assert_eq!(sinks, refs, "recovered sink differs from unfailed run");
    check_ledger(&dir.join("store"), CHAIN_OPS, 2, None);
    assert_recoveries_bounded(&dir.join("store"));

    drop(cluster);
    let _ = fs::remove_dir_all(&dir);
}

/// Scenario 1c — a worker lost while nothing is deployed: `wa` dies and
/// no spare shows up, so the controller rolls back and holds the
/// redeploy open (`respawn_wait`, 3 s); `wb` dies inside that window
/// and the spares register only after its heartbeats have timed out.
/// The controller must have struck `wb` off the bench by then — one
/// failure, one recovery — not deploy onto it and need a second
/// rollback to find out.
#[test]
fn worker_lost_while_waiting_for_spares_is_not_handed_operators() {
    let refs = reference_sinks();
    let dir = fresh_dir("respawnloss");
    let mut cluster = Cluster(Vec::new());
    let ctl = cluster.spawn(controller(&dir, FLAGS));
    let wa = cluster.spawn(worker(&dir, "wa", &[]));
    let wb = cluster.spawn(worker(&dir, "wb", &[]));

    wait_checkpoints_mid_stream(&dir, 2);
    cluster.kill(wa);
    // Past wa's detection (500 ms), well inside the 3 s window.
    thread::sleep(Duration::from_millis(1000));
    cluster.kill(wb);
    // Past wb's heartbeat timeout, still inside the window.
    thread::sleep(Duration::from_millis(1000));
    cluster.spawn(worker(&dir, "wc", &[]));
    cluster.spawn(worker(&dir, "wd", &[]));

    let status = wait_exit(&mut cluster.0[ctl], Duration::from_secs(80));
    assert!(status.success(), "recovery controller failed: {status:?}");
    let (rec, sinks) = parse_result(&dir.join("result"));
    assert_eq!(
        recoveries(&rec),
        1,
        "the dead worker was deployed onto and cost a second rollback"
    );
    assert_eq!(sinks, refs, "recovered sink differs from unfailed run");
    check_ledger(&dir.join("store"), CHAIN_OPS, 2, None);

    drop(cluster);
    let _ = fs::remove_dir_all(&dir);
}

/// Scenario 2 — kill mid-checkpoint: a slow-disk persister
/// (`MS_FAULT_STORE` checkpoint latency) holds each application
/// checkpoint open for hundreds of milliseconds, and the SIGKILL lands
/// while one is verifiably in flight — some but not all of the
/// epoch's files renamed into place. Recovery must treat the torn
/// epoch as incomplete and restore the previous complete one.
#[test]
fn sigkill_during_active_checkpoint_recovers() {
    let refs = reference_sinks();
    let dir = fresh_dir("midckpt");
    let slow = [("MS_FAULT_STORE", "slow_ckpt_us=40000")];
    let mut cluster = Cluster(Vec::new());
    let ctl = cluster.spawn(controller(&dir, FLAGS));
    cluster.spawn(worker(&dir, "wa", &slow));
    let victim = cluster.spawn(worker(&dir, "wb", &slow));

    wait_checkpoints_mid_stream(&dir, 2);
    let store = dir.join("store");
    wait_until("checkpoint in flight", Duration::from_secs(40), || {
        partial_epoch(&store, CHAIN_OPS).is_some()
    });
    let torn = partial_epoch(&store, CHAIN_OPS);
    cluster.kill(victim);
    cluster.spawn(worker(&dir, "wc", &slow));

    let status = wait_exit(&mut cluster.0[ctl], Duration::from_secs(80));
    assert!(status.success(), "recovery controller failed: {status:?}");
    let (rec, sinks) = parse_result(&dir.join("result"));
    assert!(recoveries(&rec) >= 1, "no recovery recorded: {rec}");
    assert_eq!(
        sinks, refs,
        "kill during epoch {torn:?} broke exactly-once: sink differs from unfailed run"
    );
    check_ledger(&store, CHAIN_OPS, 2, None);

    drop(cluster);
    let _ = fs::remove_dir_all(&dir);
}

/// Scenario 3 — control-plane + data-plane double fault: SIGKILL the
/// controller and a worker in the same instant, then restart a fresh
/// controller (and bench) on the same store. The new controller must
/// resume — generation numbering past the ledger's last record, epoch
/// numbering past every checkpoint any incarnation started, first
/// deployment restoring from the latest complete checkpoint — and the
/// ledger, torn mid-append by the first controller's death, must
/// repair at reopen and stay contiguous across both incarnations.
#[test]
fn controller_and_worker_double_fault_resumes_on_same_store() {
    let refs = reference_sinks();
    let dir = fresh_dir("dblfault");
    let mut cluster = Cluster(Vec::new());
    let ctl1 = cluster.spawn(controller(&dir, FLAGS));
    let wa = cluster.spawn(worker(&dir, "wa", &[]));
    let wb = cluster.spawn(worker(&dir, "wb", &[]));

    wait_checkpoints_mid_stream(&dir, 2);
    cluster.0[ctl1].kill().unwrap();
    cluster.0[wb].kill().unwrap();
    let _ = cluster.0[ctl1].wait();
    let _ = cluster.0[wb].wait();
    // The survivor exits on its own when the control connection dies.
    wait_exit(&mut cluster.0[wa], Duration::from_secs(15));

    // Fresh incarnation on the same store. The stale address file must
    // go first: a worker that read it before the new controller
    // publishes would chase a dead port.
    fs::remove_file(dir.join("addr")).unwrap();
    let ctl2 = cluster.spawn(controller(&dir, FLAGS));
    cluster.spawn(worker(&dir, "wc", &[]));
    cluster.spawn(worker(&dir, "wd", &[]));

    let status = wait_exit(&mut cluster.0[ctl2], Duration::from_secs(80));
    assert!(status.success(), "resumed controller failed: {status:?}");
    let (rec, sinks) = parse_result(&dir.join("result"));
    assert!(
        recoveries(&rec) >= 1,
        "resumed controller did not count the interrupted run: {rec}"
    );
    assert_eq!(sinks, refs, "resumed run differs from unfailed run");
    // Two generations minimum: the first controller's and the resumed
    // one's — with contiguous epochs inside each.
    check_ledger(&dir.join("store"), CHAIN_OPS, 2, None);

    drop(cluster);
    let _ = fs::remove_dir_all(&dir);
}

/// Scenario 4 — network partition that heals: `MS_FAULT_PLAN` severs
/// the op1→op2 edge after 40 frames, scoped to `gen<=1`. Every
/// process stays alive, so heartbeat detection never fires — only the
/// barrier-stall detector can see the partition. The rollback bumps
/// the generation, which is exactly what heals the edge.
#[test]
fn severed_edge_partition_heals_after_generation_bump() {
    let refs = reference_sinks();
    let dir = fresh_dir("partition");
    let plan = [("MS_FAULT_PLAN", "sever:1->2:after=40,gen<=1")];
    let flags = [FLAGS, &[("--barrier-stall-ms", &1500)]].concat();
    let mut cluster = Cluster(Vec::new());
    let ctl = cluster.spawn(controller(&dir, &flags));
    cluster.spawn(worker(&dir, "wa", &plan));
    cluster.spawn(worker(&dir, "wb", &plan));

    let status = wait_exit(&mut cluster.0[ctl], Duration::from_secs(80));
    assert!(
        status.success(),
        "partitioned controller failed: {status:?}"
    );
    let (rec, sinks) = parse_result(&dir.join("result"));
    assert!(
        recoveries(&rec) >= 1,
        "the barrier-stall detector never fired: {rec}"
    );
    assert_eq!(sinks, refs, "healed run differs from unfailed run");
    // Generation 1 never closes a barrier (the severed edge eats its
    // tokens), so the ledger may start at generation 2 — but whatever
    // generations it has must be contiguous inside.
    let records = check_ledger(&dir.join("store"), CHAIN_OPS, 1, None);
    assert!(
        records.iter().all(|r| r.generation >= 2),
        "generation 1 closed a barrier across a severed edge"
    );

    drop(cluster);
    let _ = fs::remove_dir_all(&dir);
}

/// Scenario 5 — flaky, slow disk under load: every write pays latency
/// and every 7th write fails transiently. The `RetryStore` must
/// absorb all of it — the run finishes with *zero* rollbacks, because
/// a flaky disk is not a failed worker.
#[test]
fn flaky_slow_disk_is_absorbed_without_recovery() {
    let refs = reference_sinks();
    let dir = fresh_dir("flakydisk");
    let flaky = [(
        "MS_FAULT_STORE",
        "slow_us=200;slow_ckpt_us=3000;fail_every=7",
    )];
    let mut cluster = Cluster(Vec::new());
    let ctl = cluster.spawn(controller(&dir, FLAGS));
    cluster.spawn(worker(&dir, "wa", &flaky));
    cluster.spawn(worker(&dir, "wb", &flaky));

    let status = wait_exit(&mut cluster.0[ctl], Duration::from_secs(80));
    assert!(status.success(), "flaky-disk controller failed: {status:?}");
    let (rec, sinks) = parse_result(&dir.join("result"));
    assert_eq!(
        recoveries(&rec),
        0,
        "transient disk faults escalated to a rollback — retry layer not absorbing"
    );
    assert_eq!(sinks, refs, "flaky-disk run differs from unfailed run");
    check_ledger(&dir.join("store"), CHAIN_OPS, 1, None);

    drop(cluster);
    let _ = fs::remove_dir_all(&dir);
}

/// Gateway scenario knobs: producer 1 finishes early (its `Fin` is
/// released just before the kill), producers 2 and 3 stream through
/// the outage.
const GATE_PRODUCERS: u64 = 3;
const EARLY_BATCHES: u64 = 8;
const LATE_BATCHES: u64 = 60;

/// One full gateway cluster; with `kill_gate_host`, releases producer
/// 1's `Fin`, waits for its `FinOk`, then immediately SIGKILLs the
/// gateway's worker — so the fin's only durable home is the WAL
/// marker appended before the ack.
fn run_gate_cluster(tag: &str, kill_gate_host: bool) -> (u64, Vec<String>) {
    let dir = fresh_dir(tag);
    let gate: &[(&str, &dyn Display)] = &[
        ("--gate-producers", &GATE_PRODUCERS),
        ("--gate-retry-ms", &25),
    ];
    let mut cluster = Cluster(Vec::new());
    let ctl = cluster.spawn(controller(&dir, &[FLAGS, gate].concat()));
    cluster.spawn(worker(&dir, "wa", &[]));
    // Gate placement reverses the round-robin: the gateway (op0) lands
    // on wb, away from the sink on wa.
    let victim = cluster.spawn(worker(&dir, "wb", &[]));

    let addr_file = dir.join("store").join("gate_op0.addr");
    let fin_gate = Arc::new(AtomicBool::new(false));
    let finished = Arc::new(AtomicUsize::new(0));
    let mut producers = Vec::new();
    for (p, batches, pace_ms, gated) in [
        (1, EARLY_BATCHES, 5, true),
        (2, LATE_BATCHES, 25, false),
        (3, LATE_BATCHES, 25, false),
    ] {
        let af = addr_file.clone();
        let fin = finished.clone();
        let gate = gated.then(|| fin_gate.clone());
        producers.push(thread::spawn(move || {
            run_producer(af, p, batches, Duration::from_millis(pace_ms), gate, fin)
        }));
    }

    let store = dir.join("store");
    wait_until("complete checkpoint", Duration::from_secs(40), || {
        max_complete_epoch(&store, CHAIN_OPS) >= 2
    });
    // Release the early producer's Fin only now, so its WAL marker
    // almost surely postdates the checkpoint the recovery restores.
    fin_gate.store(true, Ordering::SeqCst);
    wait_until("early producer FinOk", Duration::from_secs(30), || {
        finished.load(Ordering::SeqCst) >= 1
    });
    if kill_gate_host {
        assert!(
            !dir.join("result").exists(),
            "stream finished before the kill; raise LATE_BATCHES"
        );
        cluster.kill(victim);
        cluster.spawn(worker(&dir, "wc", &[]));
    }

    let status = wait_exit(&mut cluster.0[ctl], Duration::from_secs(110));
    assert!(status.success(), "gate controller failed: {status:?}");
    for h in producers {
        h.join().expect("producer thread panicked");
    }
    check_ledger(
        &store,
        CHAIN_OPS,
        if kill_gate_host { 2 } else { 1 },
        Some(0),
    );
    let (rec, sinks) = parse_result(&dir.join("result"));
    drop(cluster);
    let _ = fs::remove_dir_all(&dir);
    (recoveries(&rec), sinks)
}

/// Scenario 6 — gateway-host kill under live producers. Producer 1 got
/// its `FinOk` and exited for good moments before the SIGKILL; under
/// the old "fin lives only in the dedup snapshot" design the recovered
/// gate would wait forever for a producer that never returns
/// (regression for the DESIGN.md liveness caveat). Producers 2 and 3
/// ride out the outage retrying un-acked batches; every acked batch
/// lands exactly once.
#[test]
fn gate_host_sigkill_under_live_producers_preserves_fins() {
    let (rec, ref_sinks) = run_gate_cluster("gate_ref", false);
    assert_eq!(rec, 0);
    assert_eq!(ref_sinks.len(), 1);

    let (rec, sinks) = run_gate_cluster("gate_kill", true);
    assert!(rec >= 1, "gate-host kill recorded no recovery");
    assert_eq!(sinks, ref_sinks, "recovered sink differs from unfailed run");

    let (sum, count) = decode_sink(&sinks[0]);
    let mut expected = 0i64;
    for (p, batches) in [(1, EARLY_BATCHES), (2, LATE_BATCHES), (3, LATE_BATCHES)] {
        for b in 1..=batches {
            for j in 0..EVENTS_PER_BATCH {
                // The chain's Doubler doubles every value on the way
                // to the Summer sink.
                expected += 2 * value(p, b, j);
            }
        }
    }
    assert_eq!(sum, expected, "acked events lost or duplicated");
    // One tuple per distinct key per batch: pre-aggregation ran at the
    // gate and the batch dedup held across the SIGKILL.
    assert_eq!(count, (EARLY_BATCHES + 2 * LATE_BATCHES) * KEYS);
}
