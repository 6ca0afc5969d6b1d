//! End-to-end recovery of a real 3-process cluster whose interior
//! operator checkpoints *incrementally* (base + delta chain).
//!
//! The chain3 graph runs with `--keyed-state 512`, so the middle
//! operator is the keyed-statistics table: its first checkpoint is a
//! full base and every later epoch persists only the keys touched
//! since the previous capture (`e{e}_op{N}.delta` files). Reference
//! run: no failure. Failure run: the worker hosting the keyed operator
//! is SIGKILLed once at least two application checkpoints are complete
//! *and* at least one delta frame is on disk — so recovery genuinely
//! folds a base + delta chain, not just a full snapshot. The sink's
//! final state must be byte-identical to the reference run.

mod cluster;

use std::fmt::Display;
use std::fs;
use std::time::Duration;

use cluster::*;

const LIMIT: u64 = 4000;
/// Keyed-table size. Must be large next to the ~400 tuples a 120 ms
/// epoch carries: the key stride touches ~50 distinct keys per epoch,
/// and with 512 keys that is ~10% of the base — small enough that the
/// store persists a genuine `.delta` instead of rebasing every epoch
/// to a full file under its 50%-of-base policy.
const KEYED_STATE: u64 = 512;

const FLAGS: &[(&str, &dyn Display)] = &[
    ("--workers", &2),
    ("--shape", &"chain3"),
    ("--limit", &LIMIT),
    ("--delay-us", &300),
    ("--keyed-state", &KEYED_STATE),
    ("--ckpt-ms", &120),
    ("--hb-timeout-ms", &500),
    ("--respawn-wait-ms", &3000),
    ("--deadline-secs", &90),
];

#[test]
fn sigkill_mid_delta_chain_recovers_to_identical_answer() {
    // --- Reference run: no failure. ---
    let ref_dir = fresh_dir("delta_ref");
    let ref_sinks = clean_run(&ref_dir, FLAGS);
    check_ledger(&ref_dir.join("store"), CHAIN_OPS, 1, None);

    // --- Failure run: SIGKILL the keyed-operator worker mid-chain. ---
    let dir = fresh_dir("delta_kill");
    let store = dir.join("store");
    let mut cluster = Cluster(Vec::new());
    let ctl = cluster.spawn(controller(&dir, FLAGS));
    cluster.spawn(worker(&dir, "wa", &[]));
    // Placement is round-robin over sorted names: op0,op2 → wa and
    // op1 (the keyed table writing the delta chain) → wb.
    let victim = cluster.spawn(worker(&dir, "wb", &[]));

    // Kill only once the store holds at least two complete application
    // checkpoints and at least one delta frame: the recovery then has
    // to fold a genuine base + delta chain.
    wait_until(
        "complete checkpoint + delta chain",
        Duration::from_secs(60),
        || max_complete_epoch(&store, CHAIN_OPS) >= 2 && delta_files(&store) >= 1,
    );
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
    // The keyed operator forwards every value doubled, so the sink's
    // closed-form answer matches the stateless chain.
    let expected: i64 = 2 * (0..LIMIT as i64).sum::<i64>();
    assert_eq!(sum, expected);
    check_ledger(&store, CHAIN_OPS, 2, None);

    let _ = fs::remove_dir_all(&ref_dir);
    let _ = fs::remove_dir_all(&dir);
}
