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

mod cluster;

use std::fmt::Display;
use std::fs;
use std::path::Path;
use std::time::Duration;

use cluster::*;
use ms_wire::{read_decisions, LEDGER_FILE};

const LIMIT: u64 = 14000;
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

const FLAGS: &[(&str, &dyn Display)] = &[
    ("--workers", &2),
    ("--shape", &"chain3"),
    ("--limit", &LIMIT),
    ("--delay-us", &500),
    ("--keyed-state", &KEYED_STATE),
    ("--sawtooth-window", &SAWTOOTH_WINDOW),
    // One-second period, three profiling periods, and 50 ms sampling —
    // the heartbeat cadence the profile is built from, so a round sees
    // a collapse as finely as the profile did. The classifier arms
    // ~3 s in, with ~4 s of sawtooth left; the third profiled period
    // raises `smax` (the highest of three minima, not two).
    ("--ckpt-ms", &1000),
    ("--aware", &1),
    ("--aware-sample-ms", &50),
    ("--aware-profile-periods", &3),
    ("--hb-timeout-ms", &500),
    ("--respawn-wait-ms", &3000),
    ("--deadline-secs", &90),
];

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
}

#[test]
fn aware_cluster_checkpoints_at_minima_and_survives_sigkill() {
    // --- Reference run: no failure. ---
    let ref_dir = fresh_dir("aware_ref");
    let ref_sinks = clean_run(&ref_dir, FLAGS);
    check_decisions(&ref_dir.join("store"), "reference");
    // Decision rows share the file with epoch rows without corrupting
    // them for the batch reader.
    check_ledger(&ref_dir.join("store"), CHAIN_OPS, 1, None);

    // --- Failure run: SIGKILL the sawtooth worker mid-stream. ---
    let dir = fresh_dir("aware_kill");
    let store = dir.join("store");
    let mut cluster = Cluster(Vec::new());
    let ctl = cluster.spawn(controller(&dir, FLAGS));
    cluster.spawn(worker(&dir, "wa", &[]));
    // Placement is round-robin over sorted names: op0,op2 → wa and
    // op1 (the sawtooth table) → wb.
    let victim = cluster.spawn(worker(&dir, "wb", &[]));

    // Let the stream run until the ledger holds the first barrier
    // initiated at a local minimum — past the profiling phase, so the
    // rollback rewinds an aware-timed epoch whatever phase of the
    // sawtooth the post-recovery samples land on.
    let ledger = store.join(LEDGER_FILE);
    wait_until(
        "barrier initiated at a local minimum",
        Duration::from_secs(30),
        || read_decisions(&ledger).is_ok_and(|ds| ds.iter().any(|d| d.reason == "local_minimum")),
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

    check_decisions(&store, "failure");
    check_ledger(&store, CHAIN_OPS, 2, None);
    // The measured recovery landed in the decision trail.
    let decisions = read_decisions(&ledger).unwrap();
    let rec: Vec<_> = decisions
        .iter()
        .filter(|d| d.reason == "recovery")
        .collect();
    assert_eq!(rec.len(), 1, "want exactly one recovery row: {rec:?}");
    assert!(rec[0].recovery_us > 0, "recovery time not measured");

    let _ = fs::remove_dir_all(&ref_dir);
    let _ = fs::remove_dir_all(&dir);
}
