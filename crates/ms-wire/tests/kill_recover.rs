//! End-to-end recovery of a real 3-process cluster on localhost.
//!
//! Reference run: controller + two workers stream to completion with
//! no failure. Failure run: same cluster, but the worker hosting the
//! middle operator is SIGKILLed mid-stream once a complete application
//! checkpoint exists; a spare worker is started in its place. The
//! controller must detect the lost heartbeat, roll back, restore the
//! latest complete checkpoint, replay the preserved source log — and
//! the sink's final state must be byte-identical to the reference run.

mod cluster;

use std::fmt::Display;
use std::fs;
use std::time::Duration;

use cluster::*;

const LIMIT: u64 = 4000;

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

#[test]
fn sigkill_mid_stream_recovers_to_identical_answer() {
    // --- Reference run: no failure. ---
    let ref_dir = fresh_dir("ref");
    let ref_sinks = clean_run(&ref_dir, FLAGS);
    // A failure-free run leaves a single-generation telemetry trail.
    check_ledger(&ref_dir.join("store"), CHAIN_OPS, 1, None);

    // --- Failure run: SIGKILL the middle-operator worker mid-stream. ---
    let dir = fresh_dir("kill");
    let store = dir.join("store");
    let mut cluster = Cluster(Vec::new());
    let ctl = cluster.spawn(controller(&dir, FLAGS));
    cluster.spawn(worker(&dir, "wa", &[]));
    // Placement is round-robin over sorted names: op0,op2 → wa and
    // op1 → wb, so killing wb severs the middle of the chain.
    let victim = cluster.spawn(worker(&dir, "wb", &[]));

    // Let the stream run until at least two application checkpoints
    // are complete — the recovery then genuinely rolls back.
    wait_until("complete checkpoint", Duration::from_secs(30), || {
        max_complete_epoch(&store, CHAIN_OPS) >= 2
    });
    assert!(
        !dir.join("result").exists(),
        "stream finished before the kill; raise --limit"
    );
    cluster.kill(victim);
    // Spare worker takes the bench.
    cluster.spawn(worker(&dir, "wc", &[]));

    let status = wait_exit(&mut cluster.0[ctl], Duration::from_secs(80));
    assert!(status.success(), "recovery controller failed: {status:?}");
    let (recoveries, sinks) = parse_result(&dir.join("result"));
    assert_eq!(recoveries, "recoveries=1");

    // The recovered answer is byte-identical to the unfailed run.
    assert_eq!(sinks, ref_sinks);
    let (sum, count) = decode_sink(&sinks[0]);
    assert_eq!(
        count, LIMIT,
        "exactly-once violated: lost or duplicated tuples"
    );
    let expected: i64 = 2 * (0..LIMIT as i64).sum::<i64>();
    assert_eq!(sum, expected);

    // The ledger survived the SIGKILL boundary: rows from both the
    // failed and the recovery generation, no epoch holes inside
    // either, and coverage up to the store's newest complete epoch.
    check_ledger(&store, CHAIN_OPS, 2, None);

    let _ = fs::remove_dir_all(&ref_dir);
    let _ = fs::remove_dir_all(&dir);
}
