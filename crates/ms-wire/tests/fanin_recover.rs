//! Fan-in misalignment recovery on a real 3-process cluster.
//!
//! The `fanin` shape runs two source→doubler branches into a single
//! sink, with the second source throttled ~4× slower than the first —
//! so at every checkpoint the sink's fast input is several tuples and
//! often a full token ahead of its slow input, and the alignment
//! window is genuinely holding buffered tuples when the cut is taken.
//!
//! Reference run: no failure. Failure run: the worker hosting the
//! slow branch is SIGKILLed mid-stream once complete application
//! checkpoints exist. The controller must roll back all five
//! operators (including the surviving sink, whose buffered alignment
//! state is discarded with the generation), restore the latest
//! complete cut — buffered in-flight tuples included — and replay the
//! preserved source logs. The sink's final state must be
//! byte-identical to the reference run.

mod cluster;

use std::fmt::Display;
use std::fs;
use std::time::Duration;

use cluster::*;
use ms_wire::apps::expected_fanin_sum;

const LIMIT: u64 = 4000;
/// Two sources, two doublers, one sink.
const FANIN_OPS: usize = 5;

const FLAGS: &[(&str, &dyn Display)] = &[
    ("--workers", &2),
    ("--shape", &"fanin"),
    ("--limit", &LIMIT),
    ("--delay-us", &300),
    ("--ckpt-ms", &120),
    ("--hb-timeout-ms", &500),
    ("--respawn-wait-ms", &3000),
    ("--deadline-secs", &90),
];

#[test]
fn fanin_sigkill_slow_branch_recovers_to_identical_answer() {
    // --- Reference run: no failure. ---
    let ref_dir = fresh_dir("fanin_ref");
    let ref_sinks = clean_run(&ref_dir, FLAGS);
    check_ledger(&ref_dir.join("store"), FANIN_OPS, 1, None);

    // --- Failure run: SIGKILL the slow-branch worker mid-stream. ---
    let dir = fresh_dir("fanin_kill");
    let store = dir.join("store");
    let mut cluster = Cluster(Vec::new());
    let ctl = cluster.spawn(controller(&dir, FLAGS));
    // Placement is round-robin over sorted names: op0 (fast source),
    // op2 (fast doubler) and op4 (sink) → wa; op1 (slow source) and
    // op3 (slow doubler) → wb. Killing wb severs the slow branch while
    // the surviving sink holds fast-branch tuples in its alignment
    // window.
    cluster.spawn(worker(&dir, "wa", &[]));
    let victim = cluster.spawn(worker(&dir, "wb", &[]));

    // Let the stream run until at least two application checkpoints
    // are complete — the recovery then genuinely rolls back a cut
    // that includes buffered in-flight tuples at the sink.
    wait_until("complete checkpoint", Duration::from_secs(30), || {
        max_complete_epoch(&store, FANIN_OPS) >= 2
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
        count,
        2 * LIMIT,
        "exactly-once violated: lost or duplicated tuples"
    );
    assert_eq!(sum, expected_fanin_sum(LIMIT));
    check_ledger(&store, FANIN_OPS, 2, None);

    let _ = fs::remove_dir_all(&ref_dir);
    let _ = fs::remove_dir_all(&dir);
}
