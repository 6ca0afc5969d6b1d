//! The `ms-controller` daemon: deployment, checkpoint pacing, failure
//! detection, and recovery orchestration for a TCP cluster.
//!
//! The controller is the MS-src control plane in one event loop. It
//! loads the query network, waits for enough workers to register,
//! broadcasts an [`Assignment`] (generation 1), then paces checkpoint
//! tokens on a fixed cadence — gated by the epoch barrier: epoch
//! `e+1` tokens are only broadcast once every HAU's epoch-`e`
//! checkpoint has been acked durable (`CkptDone`), so two epochs'
//! tokens can never race through the graph no matter how short the
//! cadence. Workers heartbeat continuously on a dedicated heartbeat
//! connection; a heartbeat silence longer than the timeout on any
//! worker that hosts operators is a failure, and a `WorkerError`
//! report (storage failure, failed deploy) rolls the generation back
//! without waiting for a timeout. Recovery is the paper's §IV sequence:
//! broadcast `Rollback` to the survivors, wait briefly for a spare to
//! register, read the latest *complete* application checkpoint off the
//! shared stable store, and broadcast a new generation restoring from
//! it (sources replay their preserved logs past that boundary). When
//! every sink reports its final state, the controller writes the
//! result file and shuts the cluster down — the recovered answer is
//! byte-identical to a failure-free run, which the integration test
//! asserts by diffing the two result files.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ms_cluster::{place_gates, spread_shards};
use ms_core::error::{Error, Result};
use ms_core::gate::GateConfig;
use ms_core::graph::QueryNetwork;
use ms_core::ids::{EpochId, OperatorId};
use ms_core::metrics::{BackpressureGauges, OperatorSample};
use ms_core::shard::{expand, ShardPlan};
use ms_gate::GateSample;
use ms_live::{FsStore, StableStore};

use crate::apps::demo_network;
use crate::cadence::{CheckpointCause, EpochSignals, PlaneConfig, TelemetryPlane};
use crate::ledger::{read_ledger, DecisionRecord, LedgerRecord, LedgerWriter, LEDGER_FILE};
use crate::message::{recv_msg, send_msg, Assignment, GateSpec, OpPlacement, WireMsg};

const ACCEPT_POLL: Duration = Duration::from_millis(10);
const TICK: Duration = Duration::from_millis(25);
/// Queued-tuple counts at/above this print a backpressure stall line…
const STALL_HI: u64 = 512;
/// …which clears (hysteresis) only once the queue drains below this.
const STALL_LO: u64 = 64;

/// Controller configuration.
#[derive(Clone, Debug)]
pub struct ControllerConfig {
    /// Listen address for worker control connections (use port 0 for
    /// an ephemeral port plus `addr_file`).
    pub listen: String,
    /// File to publish the bound address into (atomic rename), for
    /// workers started with `--controller-file`.
    pub addr_file: Option<PathBuf>,
    /// Shared stable-store directory.
    pub store_dir: PathBuf,
    /// Workers to wait for before the first assignment.
    pub workers: usize,
    /// Demo graph shape (`chainN` or `diamond`).
    pub shape: String,
    /// Tuples each source emits.
    pub source_limit: u64,
    /// Per-tuple source delay (µs).
    pub source_delay_us: u64,
    /// Key count for the keyed-state interior operator (0 = stateless
    /// doubler interiors, the original demo shape).
    pub keyed_state: u64,
    /// With `keyed_state`, collapse the interior keyed table every
    /// this many applied tuples (`SawtoothStat`) — gives the state a
    /// sawtooth profile with real local minima (0 = plain `KeyedStat`).
    pub sawtooth_window: u64,
    /// Key-partitioned instances per interior operator (0 or 1 = no
    /// sharding). The shape above is the *logical* graph; the cluster
    /// deploys its [`expand`]-ed physical graph, so e.g. `fleet6x6`
    /// with 8 shards runs 6 sources + 48 stage shards + 1 sink = 55
    /// HAUs — the paper's evaluation scale.
    pub shards: u64,
    /// Checkpoint-token cadence.
    pub ckpt_interval: Duration,
    /// Heartbeat silence treated as a failure.
    pub hb_timeout: Duration,
    /// An epoch barrier held open longer than this is treated as a
    /// generation failure and rolled back (`None` = wait forever). A
    /// severed edge eats checkpoint tokens without killing any
    /// process, so heartbeat detection never fires; this is the only
    /// detector that catches a live-but-partitioned cluster.
    pub barrier_stall: Option<Duration>,
    /// After a failure, how long to hold redeployment open for a spare
    /// worker to register before continuing with the survivors.
    pub respawn_wait: Duration,
    /// Hard wall-clock budget for the whole run (belt-and-braces for
    /// CI; exceeded ⇒ error exit, never a hang).
    pub deadline: Duration,
    /// Where to write the final result (first line `recoveries=N`,
    /// then one `sink op{N} {hex}` line per sink).
    pub result_file: Option<PathBuf>,
    /// When set, every source of the graph is hosted as an ingestion
    /// gateway (`ms-gate`) under this admission configuration instead
    /// of a demo source; external producers push batches at the
    /// addresses the gate hosts publish (`gate_op{N}.addr` under the
    /// store directory).
    pub gate: Option<GateConfig>,
    /// Live application-aware checkpoint timing (§III-C): profile the
    /// heartbeat state-size stream for `aware_profile_periods`
    /// checkpoint periods, then initiate epoch barriers at detected
    /// aggregate local minima instead of on the fixed timer. The
    /// fixed timer still runs while profiling and as the period-end
    /// backstop.
    pub aware: bool,
    /// Spacing between execution-phase sampling rounds of the live
    /// profiler (how often alert mode re-evaluates turning points).
    pub aware_sample: Duration,
    /// Checkpoint periods observed before the profile — dynamic set,
    /// `smax` — freezes and execution mode starts.
    pub aware_profile_periods: u32,
    /// Recovery-time budget for the adaptive cadence layer: after
    /// every epoch barrier the controller estimates worst-case
    /// recovery (restore + replay window) from measured ledger
    /// signals and widens/narrows the checkpoint period to hold this
    /// budget. `None` = the period stays fixed.
    pub recovery_budget: Option<Duration>,
}

/// What a finished run looked like.
#[derive(Debug)]
pub struct ClusterReport {
    /// Failures recovered from.
    pub recoveries: usize,
    /// Checkpoint commands issued.
    pub checkpoints: u64,
    /// The epoch each recovery restored from (`None` = fresh restart).
    pub restore_epochs: Vec<Option<EpochId>>,
    /// Final serialized state per sink operator.
    pub sink_states: BTreeMap<OperatorId, Vec<u8>>,
}

impl ClusterReport {
    /// The result-file / stdout rendering (deterministic line order).
    pub fn render(&self) -> String {
        let mut out = format!("recoveries={}\n", self.recoveries);
        for (op, state) in &self.sink_states {
            let hex: String = state.iter().map(|b| format!("{b:02x}")).collect();
            out.push_str(&format!("sink {op} {hex}\n"));
        }
        out
    }
}

enum Event {
    Register {
        name: String,
        data_addr: String,
        writer: TcpStream,
    },
    Beat {
        name: String,
        gauges: BackpressureGauges,
    },
    SinkDone {
        generation: u64,
        op: OperatorId,
        snapshot: Vec<u8>,
    },
    /// A batch of operator telemetry samples from one worker — the
    /// heartbeat-cadence sweep of every local operator, or the single
    /// fresh sample a worker sends just ahead of each `CkptDone`.
    Telemetry {
        generation: u64,
        samples: Vec<(OperatorId, OperatorSample)>,
    },
    /// Gateway meter samples from one worker's heartbeat sweep.
    GateTelemetry {
        generation: u64,
        samples: Vec<(OperatorId, GateSample)>,
    },
    /// One HAU's individual checkpoint is durable (the epoch barrier).
    CkptAck {
        generation: u64,
        epoch: EpochId,
        op: OperatorId,
    },
    /// A worker hit a local non-recoverable fault (storage failure,
    /// failed deploy) but its process is still up.
    WorkerFault {
        generation: u64,
        name: String,
        detail: String,
    },
    ConnLost {
        name: String,
    },
    Tick,
}

struct Worker {
    name: String,
    data_addr: String,
    writer: TcpStream,
    last_beat: Instant,
    alive: bool,
    has_ops: bool,
    /// Latest backpressure gauges off the heartbeat stream.
    gauges: BackpressureGauges,
    /// Currently over the stall threshold (prints with hysteresis).
    stalled: bool,
}

/// Per-connection reader: demands `Register` (control connection) or
/// `HeartbeatHello` (dedicated heartbeat connection) first, then pumps
/// heartbeats, checkpoint acks, faults, and sink reports into the
/// event queue until the connection dies.
fn reader(mut stream: TcpStream, events: Sender<Event>) {
    let name = match recv_msg(&mut stream) {
        Ok(Some(WireMsg::Register { name, data_addr })) => {
            let Ok(writer) = stream.try_clone() else {
                return;
            };
            if events
                .send(Event::Register {
                    name: name.clone(),
                    data_addr,
                    writer,
                })
                .is_err()
            {
                return;
            }
            name
        }
        // A heartbeat-only stream: beats are attributed to the worker
        // registered (on its control connection) under this name.
        Ok(Some(WireMsg::HeartbeatHello { name })) => name,
        _ => return,
    };
    loop {
        let event = match recv_msg(&mut stream) {
            Ok(Some(WireMsg::Heartbeat { gauges })) => Event::Beat {
                name: name.clone(),
                gauges,
            },
            Ok(Some(WireMsg::Telemetry {
                generation,
                samples,
            })) => Event::Telemetry {
                generation,
                samples,
            },
            Ok(Some(WireMsg::GateTelemetry {
                generation,
                samples,
            })) => Event::GateTelemetry {
                generation,
                samples,
            },
            Ok(Some(WireMsg::SinkDone {
                generation,
                op,
                snapshot,
            })) => Event::SinkDone {
                generation,
                op,
                snapshot,
            },
            Ok(Some(WireMsg::CkptDone {
                generation,
                epoch,
                op,
            })) => Event::CkptAck {
                generation,
                epoch,
                op,
            },
            Ok(Some(WireMsg::WorkerError { generation, detail })) => Event::WorkerFault {
                generation,
                name: name.clone(),
                detail,
            },
            _ => {
                let _ = events.send(Event::ConnLost { name });
                return;
            }
        };
        if events.send(event).is_err() {
            return;
        }
    }
}

fn publish_addr(path: &PathBuf, addr: &str) -> Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, addr)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Runs the controller to completion and returns the cluster report.
pub fn run_controller(cfg: ControllerConfig) -> Result<ClusterReport> {
    // The configured shape is the logical graph; everything below —
    // checkpoint barrier, placement, store layout, ledger — runs on
    // its sharded physical expansion (identity when `shards <= 1`).
    let logical = demo_network(&cfg.shape)?;
    let (qn, plan) = expand(&logical, cfg.shards as usize)?;
    if cfg.shards > 1 {
        println!(
            "ms-controller: sharded {} logical operators into {} HAUs ({} shards/interior)",
            logical.len(),
            qn.len(),
            cfg.shards
        );
    }
    let store = FsStore::open(&cfg.store_dir, qn.len())?;
    let n_sinks = qn.sinks().len();
    // The run ledger lives next to the checkpoints, opened in append
    // mode so one trail spans every generation of the run. Telemetry
    // is advisory: a ledger that cannot be opened disables the trail
    // but never fails the cluster.
    let mut ledger = match LedgerWriter::open(&cfg.store_dir.join(LEDGER_FILE)) {
        Ok(l) => Some(l),
        Err(e) => {
            eprintln!("ms-controller: run ledger disabled: {e}");
            None
        }
    };

    let listener = TcpListener::bind(cfg.listen.as_str())?;
    let addr = listener.local_addr()?.to_string();
    if let Some(path) = &cfg.addr_file {
        publish_addr(path, &addr)?;
    }
    println!("ms-controller: listening on {addr}");
    listener.set_nonblocking(true)?;

    let (etx, erx) = channel::<Event>();
    let stop = Arc::new(AtomicBool::new(false));

    let accept_stop = stop.clone();
    let accept_etx = etx.clone();
    let accept = thread::spawn(move || loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                let etx = accept_etx.clone();
                // Detached; exits when the worker's connection closes.
                thread::spawn(move || reader(stream, etx));
            }
            Err(_) => {
                if accept_stop.load(Ordering::SeqCst) {
                    return;
                }
                thread::sleep(ACCEPT_POLL);
            }
        }
    });
    let tick_stop = stop.clone();
    let ticker = thread::spawn(move || {
        while !tick_stop.load(Ordering::SeqCst) {
            thread::sleep(TICK);
            if etx.send(Event::Tick).is_err() {
                return;
            }
        }
    });

    let deadline = Instant::now() + cfg.deadline;
    let mut workers: Vec<Worker> = Vec::new();
    // A controller started onto a store with history is a restarted
    // controller (the double-fault scenario): resume epoch numbering
    // strictly past every epoch any incarnation ever started, resume
    // generation numbering past the ledger's last record, and restore
    // the first deployment from the latest complete checkpoint rather
    // than replaying the run from scratch.
    let mut next_epoch = store.max_epoch_started().unwrap_or(EpochId::INITIAL);
    let mut generation = read_ledger(&cfg.store_dir.join(LEDGER_FILE))
        .ok()
        .and_then(|recs| recs.iter().map(|r| r.generation).max())
        .unwrap_or(0);
    let resumed = next_epoch != EpochId::INITIAL || generation > 0;
    if resumed {
        println!(
            "ms-controller: resuming on existing store \
             (generation > {generation}, epoch > {next_epoch})"
        );
    }
    let mut last_ckpt = Instant::now();
    let mut deployed = false;
    let mut recovering_since: Option<Instant> = None;
    // The epoch barrier: the epoch whose durable acks are still
    // outstanding, and the HAUs that acked it so far. While `Some`,
    // no further checkpoint token is broadcast — epoch `e+1` tokens
    // only enter the graph once every HAU's epoch-`e` checkpoint is
    // durable.
    let mut outstanding: Option<EpochId> = None;
    let mut outstanding_since = Instant::now();
    let mut acked: HashSet<OperatorId> = HashSet::new();
    // Freshest telemetry sample per operator (current generation only)
    // and where each operator runs, for folding the hosting worker's
    // backpressure gauges into that operator's ledger records.
    let mut latest: HashMap<OperatorId, OperatorSample> = HashMap::new();
    // Freshest gateway sample per gate op (cumulative counters, so the
    // newest heartbeat sweep always supersedes).
    let mut latest_gate: HashMap<OperatorId, GateSample> = HashMap::new();
    let mut op_worker: HashMap<OperatorId, String> = HashMap::new();
    let n_ops_total = qn.len();
    let mut report = ClusterReport {
        recoveries: 0,
        checkpoints: 0,
        restore_epochs: Vec::new(),
        sink_states: BTreeMap::new(),
    };
    // The live telemetry plane: §III-C aware barrier initiation
    // (`--aware`) and/or the adaptive cadence layer
    // (`--recovery-budget-ms`). `None` keeps the legacy fixed timer
    // bit-for-bit (and writes no decision records).
    let mut plane: Option<TelemetryPlane> =
        (cfg.aware || cfg.recovery_budget.is_some()).then(|| {
            TelemetryPlane::new(&PlaneConfig {
                aware: cfg.aware,
                sample_interval: cfg.aware_sample,
                profile_periods: cfg.aware_profile_periods,
                period: cfg.ckpt_interval,
                recovery_budget: cfg.recovery_budget,
            })
        });
    // Measured recovery clock: armed when a failure is detected, read
    // at the first barrier close of the restored generation.
    let mut recovery_t0: Option<Instant> = None;

    let outcome = loop {
        let event = match erx.recv() {
            Ok(e) => e,
            Err(_) => break Err(Error::Wire("controller event queue died".into())),
        };
        if Instant::now() > deadline {
            break Err(Error::Wire(format!(
                "controller deadline ({:?}) exceeded",
                cfg.deadline
            )));
        }
        match event {
            Event::Register {
                name,
                data_addr,
                writer,
            } => {
                println!("ms-controller: worker {name} registered at {data_addr}");
                workers.retain(|w| w.name != name);
                workers.push(Worker {
                    name,
                    data_addr,
                    writer,
                    last_beat: Instant::now(),
                    alive: true,
                    has_ops: false,
                    gauges: BackpressureGauges::default(),
                    stalled: false,
                });
            }
            Event::Beat { name, gauges } => {
                if let Some(w) = workers.iter_mut().find(|w| w.name == name) {
                    w.last_beat = Instant::now();
                    w.gauges = gauges;
                    // Surface sustained backpressure (deep input queues
                    // relative to the bounded channels) without spamming
                    // a line per heartbeat: print on crossing the high
                    // mark, clear only below the low mark.
                    if !w.stalled && gauges.queued_tuples >= STALL_HI {
                        w.stalled = true;
                        println!(
                            "ms-controller: worker {} backpressured \
                             (queued={} windows={} buffered={})",
                            w.name, gauges.queued_tuples, gauges.open_windows, gauges.window_tuples
                        );
                    } else if w.stalled && gauges.queued_tuples <= STALL_LO {
                        w.stalled = false;
                        println!("ms-controller: worker {} drained", w.name);
                    }
                }
            }
            Event::ConnLost { name } => {
                // Heartbeats from this worker have necessarily stopped;
                // let the timeout-based detector classify the failure,
                // as the paper's controller does.
                println!("ms-controller: lost connection to {name}");
            }
            Event::Telemetry {
                generation: g,
                samples,
            } => {
                if g == generation && deployed {
                    for (op, s) in samples {
                        // Heartbeat-cadence samples race the per-ack
                        // samples across two connections; never let a
                        // stale heartbeat sweep roll an operator's
                        // checkpoint record back an epoch.
                        match latest.get(&op) {
                            Some(old) if s.ckpt_epoch < old.ckpt_epoch => {}
                            _ => {
                                // Sub-epoch state-size samples feed the
                                // live §III-C profiler; the plane stamps
                                // them onto its own clock at receipt.
                                if let Some(pl) = plane.as_mut() {
                                    pl.ingest(op, s.state_bytes);
                                }
                                latest.insert(op, s);
                            }
                        }
                    }
                }
            }
            Event::GateTelemetry {
                generation: g,
                samples,
            } => {
                if g == generation && deployed {
                    for (op, s) in samples {
                        latest_gate.insert(op, s);
                    }
                }
            }
            Event::CkptAck {
                generation: g,
                epoch,
                op,
            } => {
                if g == generation && deployed && outstanding == Some(epoch) {
                    acked.insert(op);
                    if acked.len() >= n_ops_total {
                        // Epoch durable everywhere: open the barrier
                        // and cut one ledger record per operator. The
                        // workers send a fresh sample ahead of each
                        // `CkptDone` on the same connection, so by now
                        // `latest` holds every operator's epoch-`epoch`
                        // checkpoint phases.
                        let barrier_us = outstanding_since.elapsed().as_micros() as u64;
                        if let Some(l) = ledger.as_mut() {
                            let close = BarrierClose {
                                generation,
                                epoch,
                                barrier_us,
                                plan: &plan,
                            };
                            write_ledger_epoch(
                                l,
                                &close,
                                &latest,
                                &latest_gate,
                                &op_worker,
                                &workers,
                            );
                        }
                        // First barrier close after a restore marks the
                        // cluster caught up: read the recovery clock
                        // into the decision ledger. Written with or
                        // without the telemetry plane, so fixed-period
                        // baselines report measured recovery too.
                        if let Some(t0) = recovery_t0.take() {
                            let period_us = plane
                                .as_ref()
                                .map_or(cfg.ckpt_interval, TelemetryPlane::period)
                                .as_micros() as u64;
                            let rec = DecisionRecord {
                                generation,
                                epoch: epoch.0,
                                reason: "recovery".to_string(),
                                state_bytes: latest.values().map(|s| s.state_bytes).sum(),
                                ckpt_bytes: 0,
                                barrier_us,
                                est_recovery_us: 0,
                                budget_us: cfg.recovery_budget.map_or(0, |b| b.as_micros() as u64),
                                period_us_before: period_us,
                                period_us_after: period_us,
                                recovery_us: t0.elapsed().as_micros() as u64,
                            };
                            if let Some(l) = ledger.as_mut() {
                                let _ = l.append_decision(&rec);
                            }
                        }
                        if let Some(pl) = plane.as_mut() {
                            let sig = EpochSignals {
                                generation,
                                epoch: epoch.0,
                                state_bytes: latest.values().map(|s| s.state_bytes).sum(),
                                ckpt_bytes: latest.values().map(|s| s.ckpt_bytes).sum(),
                                barrier_us,
                                persist_us: latest
                                    .values()
                                    .map(|s| s.persist_us)
                                    .max()
                                    .unwrap_or(0),
                            };
                            if let Some(d) = pl.on_barrier_close(&sig) {
                                if let Some(l) = ledger.as_mut() {
                                    let _ = l.append_decision(&d);
                                }
                            }
                        }
                        outstanding = None;
                    }
                }
            }
            Event::WorkerFault {
                generation: g,
                name,
                detail,
            } => {
                if g == generation && deployed {
                    // The worker process is healthy — its generation is
                    // not. Roll back and redeploy, same as a crash but
                    // without waiting out a heartbeat timeout.
                    println!("ms-controller: worker {name} reported fault: {detail}");
                    report.recoveries += 1;
                    deployed = false;
                    recovering_since = Some(Instant::now());
                    recovery_t0 = Some(Instant::now());
                    report.sink_states.clear();
                    outstanding = None;
                    acked.clear();
                    for w in workers.iter_mut().filter(|w| w.alive) {
                        let _ = send_msg(&mut w.writer, &WireMsg::Rollback);
                    }
                    println!("ms-controller: rolling back generation {generation}");
                }
            }
            Event::SinkDone {
                generation: g,
                op,
                snapshot,
            } => {
                if g == generation && deployed {
                    println!("ms-controller: sink {op} finished (generation {g})");
                    report.sink_states.insert(op, snapshot);
                    if report.sink_states.len() == n_sinks {
                        break Ok(());
                    }
                }
            }
            Event::Tick => {
                let now = Instant::now();
                // Failure detection: heartbeat silence, checked whether
                // or not a generation is deployed — a worker that dies
                // while a redeploy waits for spares must leave the
                // bench before `deploy` hands it operators. Only a loss
                // under a deployed generation is a recovery.
                let failed: Vec<String> = workers
                    .iter()
                    .filter(|w| w.alive && now.duration_since(w.last_beat) > cfg.hb_timeout)
                    .map(|w| w.name.clone())
                    .collect();
                let lost_ops = deployed
                    && workers
                        .iter()
                        .any(|w| failed.contains(&w.name) && w.has_ops);
                for w in workers.iter_mut() {
                    if failed.contains(&w.name) {
                        println!(
                            "ms-controller: worker {} failed (heartbeat timeout)",
                            w.name
                        );
                        w.alive = false;
                        let _ = w.writer.shutdown(Shutdown::Both);
                    }
                }
                if deployed {
                    let stalled_barrier = !lost_ops
                        && outstanding.is_some()
                        && cfg
                            .barrier_stall
                            .is_some_and(|limit| now.duration_since(outstanding_since) > limit);
                    if lost_ops || stalled_barrier {
                        if stalled_barrier {
                            println!(
                                "ms-controller: epoch {} barrier stalled {:?} (partition?)",
                                outstanding.expect("stalled_barrier implies outstanding"),
                                now.duration_since(outstanding_since)
                            );
                        }
                        report.recoveries += 1;
                        deployed = false;
                        recovering_since = Some(now);
                        recovery_t0 = Some(now);
                        report.sink_states.clear();
                        outstanding = None;
                        acked.clear();
                        for w in workers.iter_mut().filter(|w| w.alive) {
                            let _ = send_msg(&mut w.writer, &WireMsg::Rollback);
                        }
                        println!("ms-controller: rolling back generation {generation}");
                    } else if outstanding.is_none() {
                        // The barrier is open (previous epoch durable
                        // on every HAU): ask the telemetry plane — or,
                        // without one, the fixed timer — whether the
                        // next token should enter now.
                        let cause = match plane.as_mut() {
                            Some(pl) => pl.poll(now.duration_since(last_ckpt)),
                            None => (now.duration_since(last_ckpt) >= cfg.ckpt_interval)
                                .then_some(CheckpointCause::Timer),
                        };
                        if let Some(cause) = cause {
                            next_epoch = next_epoch.next();
                            report.checkpoints += 1;
                            last_ckpt = now;
                            outstanding = Some(next_epoch);
                            outstanding_since = now;
                            acked.clear();
                            if let (Some(pl), Some(l)) = (plane.as_ref(), ledger.as_mut()) {
                                let rec = pl.initiation_record(generation, next_epoch.0, cause);
                                let _ = l.append_decision(&rec);
                            }
                            for w in workers.iter_mut().filter(|w| w.alive) {
                                let _ = send_msg(&mut w.writer, &WireMsg::Checkpoint(next_epoch));
                            }
                        }
                    }
                }
                let live = workers.iter().filter(|w| w.alive).count();
                if !deployed {
                    let ready = match recovering_since {
                        // Initial deployment: wait for the configured
                        // cluster size.
                        None => live >= cfg.workers,
                        // Redeployment: prefer a full bench (a spare
                        // may be mid-registration), but continue with
                        // the survivors after `respawn_wait`.
                        Some(t0) => {
                            live >= cfg.workers
                                || (now.duration_since(t0) > cfg.respawn_wait && live >= 1)
                        }
                    };
                    if ready {
                        let restore = match recovering_since.take() {
                            Some(_) => {
                                let e = store.latest_complete();
                                report.restore_epochs.push(e);
                                e
                            }
                            // A resumed controller's "first" deployment
                            // is a recovery of the interrupted run.
                            None if resumed => {
                                let e = store.latest_complete();
                                report.recoveries += 1;
                                report.restore_epochs.push(e);
                                e
                            }
                            None => None,
                        };
                        generation += 1;
                        let placement = deploy(&qn, &plan, &cfg, generation, restore, &mut workers);
                        op_worker = placement.into_iter().map(|p| (p.op, p.worker)).collect();
                        latest.clear();
                        latest_gate.clear();
                        deployed = true;
                        last_ckpt = now;
                        outstanding = None;
                        acked.clear();
                    }
                }
            }
        }
    };

    // Shut the cluster down whatever happened; closing the writers
    // also unblocks any reader thread still parked on a live socket.
    for w in workers.iter_mut().filter(|w| w.alive) {
        let _ = send_msg(&mut w.writer, &WireMsg::Shutdown);
    }
    for w in workers.iter_mut() {
        let _ = w.writer.shutdown(Shutdown::Both);
    }
    stop.store(true, Ordering::SeqCst);
    let _ = ticker.join();
    let _ = accept.join();

    outcome.map(|()| {
        if let Some(path) = &cfg.result_file {
            if let Err(e) = std::fs::File::create(path)
                .and_then(|mut f| f.write_all(report.render().as_bytes()))
            {
                eprintln!("ms-controller: result file {path:?} not written: {e}");
            }
        }
        report
    })
}

/// One ledger record per operator for a just-closed epoch barrier.
/// Flow counters and checkpoint phases come from the operator's
/// freshest telemetry sample; backpressure gauges come from the
/// hosting worker's latest heartbeat; the barrier latency (token
/// broadcast → last `CkptDone`) is shared by every record of the
/// epoch. Append failures are reported but never fail the run.
struct BarrierClose<'a> {
    generation: u64,
    epoch: EpochId,
    barrier_us: u64,
    plan: &'a ShardPlan,
}

fn write_ledger_epoch(
    ledger: &mut LedgerWriter,
    close: &BarrierClose<'_>,
    latest: &HashMap<OperatorId, OperatorSample>,
    latest_gate: &HashMap<OperatorId, GateSample>,
    op_worker: &HashMap<OperatorId, String>,
    workers: &[Worker],
) {
    let mut ops: Vec<&OperatorId> = latest.keys().collect();
    ops.sort();
    for &op in ops {
        let s = &latest[&op];
        let gauges = op_worker
            .get(&op)
            .and_then(|name| workers.iter().find(|w| &w.name == name))
            .map(|w| w.gauges)
            .unwrap_or_default();
        let gate = latest_gate.get(&op).copied().unwrap_or_default();
        let record = LedgerRecord {
            generation: close.generation,
            epoch: close.epoch.0,
            op: op.0,
            logical: close.plan.logical_of(op).map_or(op.0, |l| l.0),
            state_bytes: s.state_bytes,
            ckpt_bytes: s.ckpt_bytes,
            delta: s.ckpt_is_delta,
            align_wait_us: s.align_wait_us,
            serialize_us: s.serialize_us,
            persist_us: s.persist_us,
            tuples_in: s.tuples_in,
            tuples_out: s.tuples_out,
            bytes_out: s.bytes_out,
            queued_tuples: gauges.queued_tuples,
            open_windows: gauges.open_windows,
            window_tuples: gauges.window_tuples,
            gate_accepted: gate.accepted_batches,
            gate_shed: gate.shed_batches,
            gate_wal_bytes: gate.wal_bytes,
            gate_ack_p50_us: gate.ack_p50_us,
            gate_ack_p99_us: gate.ack_p99_us,
            barrier_us: close.barrier_us,
        };
        if let Err(e) = ledger.append(&record) {
            eprintln!("ms-controller: ledger append failed: {e}");
            return;
        }
    }
}

/// Broadcasts a generation: sorted live workers, physical operators
/// placed by [`spread_shards`] (round-robin over the plan's flattened
/// groups — the classic `op i → workers[i mod n]` for unsharded
/// deployments, and consecutive shards on distinct workers when a
/// group fits the cluster), returning the placement for the caller's
/// operator→worker bookkeeping.
fn deploy(
    qn: &QueryNetwork,
    plan: &ShardPlan,
    cfg: &ControllerConfig,
    generation: u64,
    restore_epoch: Option<EpochId>,
    workers: &mut [Worker],
) -> Vec<OpPlacement> {
    let mut live: Vec<&mut Worker> = workers.iter_mut().filter(|w| w.alive).collect();
    live.sort_by(|a, b| a.name.cmp(&b.name));
    let spread = spread_shards(&plan.groups, live.len()).expect("deploy gated on live >= 1");
    let mut placement: Vec<OpPlacement> = spread
        .into_iter()
        .map(|(op, i)| {
            let w = &live[i];
            OpPlacement {
                op,
                worker: w.name.clone(),
                data_addr: w.data_addr.clone(),
            }
        })
        .collect();
    debug_assert_eq!(placement.len(), qn.len());
    // Gateway mode: every source becomes an ingestion gate, placed by
    // the reversed round-robin so gates and sinks land on different
    // workers whenever the cluster has more than one.
    let gates: Vec<GateSpec> = match &cfg.gate {
        Some(gc) => qn
            .sources()
            .into_iter()
            .map(|op| GateSpec { op, cfg: *gc })
            .collect(),
        None => Vec::new(),
    };
    if !gates.is_empty() {
        let gate_ops: Vec<OperatorId> = gates.iter().map(|g| g.op).collect();
        let placed = place_gates(&gate_ops, live.len()).expect("deploy gated on live >= 1");
        for (op, i) in placed {
            if let Some(p) = placement.iter_mut().find(|p| p.op == op) {
                p.worker = live[i].name.clone();
                p.data_addr = live[i].data_addr.clone();
            }
        }
    }
    for w in live.iter_mut() {
        w.has_ops = placement.iter().any(|p| p.worker == w.name);
    }
    let assignment = Assignment {
        generation,
        restore_epoch,
        n_ops: qn.len() as u32,
        edges: qn.edges().collect(),
        placement,
        source_limit: cfg.source_limit,
        source_delay_us: cfg.source_delay_us,
        keyed_state: cfg.keyed_state,
        sawtooth_window: cfg.sawtooth_window,
        groups: plan.groups.clone(),
        gates,
    };
    println!(
        "ms-controller: deploying generation {generation} to {} workers (restore: {})",
        live.len(),
        match restore_epoch {
            Some(e) => e.to_string(),
            None => "fresh".into(),
        }
    );
    for w in live {
        let _ = send_msg(&mut w.writer, &WireMsg::Assign(assignment.clone()));
    }
    assignment.placement
}
