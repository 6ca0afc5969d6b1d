//! The single-threaded, in-process layer replay: the workload's first
//! seconds of batches pushed through each layer's public functions in
//! pipeline order — decode, admit, WAL append, batch frame, vectored
//! write, frame decode, keyed apply, sink — with a checkpoint every
//! period, one span per call. It is the per-layer clock the cluster
//! run cannot have without touching the program, and the
//! single-threaded baseline of the same job.
//!
//! After the pipeline come the calls the steady path does not
//! exercise on its own: delta take/encode/fold at the workload's
//! state size, store open/restore/replay on the copy of the store the
//! cluster left at the kill, and the waker round trip.

use std::collections::BTreeMap;
use std::io::{self, ErrorKind, Read};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Instant;

use ms_core::codec::{frame, FrameDecoder};
use ms_core::delta::{self, DeltaTable, StateDelta};
use ms_core::gate::{GateConfig, GateMsg};
use ms_core::ids::{EpochId, OperatorId, PortId};
use ms_core::operator::{Operator, OperatorContext, SnapshotPayload};
use ms_core::time::SimTime;
use ms_core::tuple::{Fields, Tuple};
use ms_gate::{Admission, GateCore};
use ms_live::{CkptState, CkptWrite, StableStore, Summer};
use ms_net::ready::{poll, Interest, Waker};
use ms_net::vectored::write_frames;
use ms_wire::apps::{KeyedStat, FEATURE_BYTES};
use ms_wire::{FsStore, WireMsg};

use crate::cluster::CKPT_MS;
use crate::producer::PRODUCER;
use crate::report::{metric, Metric};
use crate::run::batch_frame;
use crate::trace::Tracer;
use crate::workload::{self, Workload};

/// Seconds of the workload's schedule the pipeline replays.
const REPLAY_SECS: u64 = 2;
const GATE: OperatorId = OperatorId(0);
const KEYED: OperatorId = OperatorId(1);
const SINK: OperatorId = OperatorId(2);

/// Collects what the keyed operator emits, for the sink.
#[derive(Default)]
struct Collect {
    out: Vec<Fields>,
}

impl OperatorContext for Collect {
    fn emit_fields(&mut self, _port: PortId, fields: Fields) {
        self.out.push(fields);
    }
    fn emit_all_fields(&mut self, fields: Fields) {
        self.out.push(fields);
    }
    fn now(&self) -> SimTime {
        SimTime::ZERO
    }
    fn self_id(&self) -> OperatorId {
        KEYED
    }
    fn rand_f64(&mut self) -> f64 {
        0.5
    }
    fn rand_u64(&mut self) -> u64 {
        0
    }
}

fn storage(e: ms_core::Error) -> io::Error {
    io::Error::other(e.to_string())
}

/// Writes `framed` into `tx` with `write_frames` (the timed part),
/// draining `rx` into `dec` whenever the socket is full.
fn ship(
    tracer: &mut Tracer,
    tx: &mut UnixStream,
    rx: &mut UnixStream,
    framed: &[u8],
    dec: &mut FrameDecoder,
) -> io::Result<()> {
    let mut head = 0;
    let mut buf = vec![0u8; 64 * 1024];
    while head < framed.len() {
        let wrote = tracer.scope("net.writev", |_| {
            write_frames(tx, std::iter::once(framed), head)
        });
        match wrote {
            Ok(n) => head += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            Err(e) => return Err(e),
        }
        loop {
            match rx.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => dec.feed(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
    }
    Ok(())
}

/// A lookup of total nanoseconds and calls per span name since
/// `from`.
fn totals(tracer: &Tracer, from: usize) -> impl Fn(&str) -> (f64, f64) {
    let by_name = tracer.totals(from);
    move |name| {
        by_name
            .get(name)
            .map_or((0.0, 0.0), |&(ns, n)| (ns as f64, n as f64))
    }
}

fn per(ns: f64, n: f64) -> f64 {
    if n > 0.0 {
        ns / n
    } else {
        0.0
    }
}

/// The pipeline replay; returns its metrics.
fn pipeline(
    w: &Workload,
    seed: u64,
    tracer: &mut Tracer,
    dir: &Path,
) -> io::Result<(Vec<Metric>, f64)> {
    let store = FsStore::open(dir.join("replay-store"), 3).map_err(storage)?;
    let mut core = GateCore::new(
        GATE,
        GateConfig {
            expected_producers: 1,
            ..GateConfig::default()
        },
    );
    let mut keyed = KeyedStat::new(w.keyed_state);
    let mut sink = Summer::default();
    let mut ctx = Collect::default();
    let (mut tx, mut rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    let mut gate_dec = FrameDecoder::new();
    let mut wire_dec = FrameDecoder::new();
    let mut next_seq = 0u64;

    // Prefill outside the spans, like the cluster run's set-up.
    tracer.on = false;
    for slot in workload::prefill(w) {
        for (_, v) in slot.events {
            let t = Tuple::new(GATE, 0, SimTime::ZERO, vec![ms_core::Value::Int(v)]);
            keyed.on_tuple(PortId(0), t, &mut ctx);
        }
        ctx.out.clear();
    }
    tracer.on = true;
    let from = tracer.spans.len();

    let mut ring = workload::ring(w, seed);
    let batches = REPLAY_SECS * 1_000_000_000 / w.interval_ns();
    let period = (CKPT_MS * 1_000_000 / w.interval_ns()).max(1);
    let (mut events, mut tuples_n) = (0u64, 0u64);
    let (mut full_bytes, mut delta_bytes, mut dirty, mut deltas) = (0u64, 0u64, 0u64, 0u64);
    let mut epoch = EpochId::INITIAL;
    let mut base: Option<EpochId> = None;
    let started = Instant::now();
    for b in 0..batches {
        tracer.set_run(b as u32);
        let slot = &mut ring[b as usize % workload::RING];
        let id = b + 1;
        tracer.scope("replay.batch", |tracer| -> io::Result<()> {
            let framed = batch_frame(slot, id);
            let decoded = tracer.scope("gate.decode", |_| {
                gate_dec.feed(&framed);
                let payload = gate_dec.next_frame().map_err(storage)?;
                GateMsg::decode(&payload.unwrap_or_default()).map_err(storage)
            })?;
            let GateMsg::Batch { batch, events: evs } = decoded else {
                return Err(io::Error::other("replay decoded a non-batch"));
            };
            events += evs.len() as u64;
            let admitted = tracer.scope("gate.admit", |_| {
                core.admit(&mut next_seq, PRODUCER, batch, &evs)
            });
            let Admission::Accept(tuples) = admitted else {
                return Err(io::Error::other("replay batch not admitted"));
            };
            tuples_n += tuples.len() as u64;
            tracer
                .scope("store.wal_append", |_| {
                    store.append_log_batch(GATE, &tuples)
                })
                .map_err(storage)?;
            let framed = tracer.scope("wire.encode", |_| {
                frame(&WireMsg::TupleBatch(tuples).encode())
            });
            ship(tracer, &mut tx, &mut rx, &framed, &mut wire_dec)?;
            let arrived = tracer.scope("wire.decode", |_| {
                let payload = wire_dec.next_frame().map_err(storage)?;
                WireMsg::decode(&payload.unwrap_or_default()).map_err(storage)
            })?;
            let WireMsg::TupleBatch(arrived) = arrived else {
                return Err(io::Error::other("replay decoded a non-batch frame"));
            };
            tracer.scope("op.apply", |_| {
                for t in arrived {
                    keyed.on_tuple(PortId(0), t, &mut ctx);
                }
            });
            tracer.scope("sink.apply", |_| {
                for (i, fields) in ctx.out.drain(..).enumerate() {
                    let t = Tuple::new(KEYED, i as u64, SimTime::ZERO, fields);
                    sink.on_tuple(PortId(0), t, &mut Collect::default());
                }
            });
            Ok(())
        })?;

        if (b + 1) % period != 0 {
            continue;
        }
        epoch = epoch.next();
        tracer.scope("replay.checkpoint", |tracer| -> io::Result<()> {
            tracer
                .scope("store.mark", |_| store.mark_epoch(GATE, epoch, next_seq))
                .map_err(storage)?;
            let small = |op, snapshot| {
                store
                    .put_checkpoint(epoch, op, CkptWrite::full(snapshot, next_seq))
                    .map_err(storage)
            };
            tracer.scope("store.put_small", |_| small(GATE, core.snapshot()))?;
            // The first capture is a full snapshot, every later one a
            // delta on the previous capture — what the hosts do.
            let payload = tracer.scope("op.snapshot_delta", |_| match base {
                None => {
                    let _ = keyed.snapshot_delta();
                    SnapshotPayload::Full(keyed.snapshot())
                }
                Some(_) => keyed
                    .snapshot_delta()
                    .expect("KeyedStat captures deltas")
                    .resolve(),
            });
            match payload {
                SnapshotPayload::Full(s) => {
                    full_bytes += s.data.len() as u64;
                    tracer
                        .scope("store.put_full", |_| {
                            store.put_checkpoint(epoch, KEYED, CkptWrite::full(s, 0))
                        })
                        .map_err(storage)?;
                }
                SnapshotPayload::Delta(d) => {
                    delta_bytes += d.encoded_bytes() as u64;
                    dirty += d.changed.len() as u64;
                    deltas += 1;
                    let write = CkptWrite {
                        state: CkptState::Delta {
                            base: base.expect("delta follows a base"),
                            delta: d,
                        },
                        next_seq: 0,
                        in_flight: Vec::new(),
                        resume_seq: Vec::new(),
                    };
                    tracer
                        .scope("store.put_delta", |_| {
                            store.put_checkpoint(epoch, KEYED, write)
                        })
                        .map_err(storage)?;
                }
            }
            base = Some(epoch);
            tracer.scope("store.put_small", |_| small(SINK, sink.snapshot()))?;
            Ok(())
        })?;
    }
    let wall = started.elapsed().as_secs_f64();

    let t = totals(tracer, from);
    // Shares are of the layers' self time: the `replay.*` spans are
    // the harness's own work between the calls (framing the producer
    // batch, draining the socket pair).
    let own = tracer.self_time_ns(from);
    let all: u64 = own
        .iter()
        .filter(|(name, _)| !name.starts_with("replay."))
        .map(|(_, ns)| ns)
        .sum();
    let share = |names: &[&str]| -> f64 {
        names.iter().filter_map(|n| own.get(n)).sum::<u64>() as f64 / all.max(1) as f64
    };
    let mb = |bytes: u64| bytes.max(1) as f64 / 1e6;
    let dirty_per_epoch = per(dirty as f64, deltas as f64);
    let out = vec![
        metric(
            "gate.decode_ns_per_event",
            per(t("gate.decode").0, events as f64),
            "ns",
        ),
        metric(
            "gate.admit_ns_per_event",
            per(t("gate.admit").0, events as f64),
            "ns",
        ),
        metric(
            "gate.fold_ratio",
            per(events as f64, tuples_n as f64),
            "ratio",
        ),
        metric(
            "store.wal_append_ns_per_tuple",
            per(t("store.wal_append").0, tuples_n as f64),
            "ns",
        ),
        metric(
            "store.wal_writes_per_batch",
            per(store.log_write_syscalls() as f64, batches as f64),
            "count",
        ),
        metric(
            "store.put_full_ms_per_mb",
            t("store.put_full").0 / 1e6 / mb(full_bytes),
            "ms",
        ),
        metric(
            "store.put_delta_ms_per_mb",
            t("store.put_delta").0 / 1e6 / mb(delta_bytes),
            "ms",
        ),
        metric(
            "wire.encode_ns_per_tuple",
            per(t("wire.encode").0, tuples_n as f64),
            "ns",
        ),
        metric(
            "wire.decode_ns_per_tuple",
            per(t("wire.decode").0, tuples_n as f64),
            "ns",
        ),
        metric(
            "net.writev_ns_per_frame",
            per(t("net.writev").0, batches as f64),
            "ns",
        ),
        metric(
            "op.apply_ns_per_tuple",
            per(t("op.apply").0, tuples_n as f64),
            "ns",
        ),
        metric(
            "op.snapshot_delta_us",
            per(t("op.snapshot_delta").0, t("op.snapshot_delta").1) / 1e3,
            "us",
        ),
        metric("delta.dirty_keys_per_epoch", dirty_per_epoch, "count"),
        metric(
            "replay.single_thread_events_per_s",
            events as f64 / wall.max(1e-9),
            "1/s",
        ),
        metric(
            "replay.gate_share",
            share(&["gate.decode", "gate.admit"]),
            "ratio",
        ),
        metric(
            "replay.store_share",
            share(&[
                "store.wal_append",
                "store.mark",
                "store.put_small",
                "store.put_full",
                "store.put_delta",
            ]),
            "ratio",
        ),
        metric(
            "replay.ckpt_share",
            share(&[
                "store.mark",
                "store.put_small",
                "store.put_full",
                "store.put_delta",
                "op.snapshot_delta",
            ]),
            "ratio",
        ),
        metric(
            "replay.wire_share",
            share(&["wire.encode", "wire.decode", "net.writev"]),
            "ratio",
        ),
        metric(
            "replay.op_share",
            share(&["op.apply", "sink.apply"]),
            "ratio",
        ),
    ];
    Ok((out, dirty_per_epoch))
}

/// One `KeyedStat`-sized record.
fn record(key: u64, round: u64) -> Vec<u8> {
    let mut v = vec![(key ^ round) as u8; 8 + FEATURE_BYTES];
    v[..8].copy_from_slice(&round.to_le_bytes());
    v
}

/// `ms-core::delta` at the workload's state size: take a delta of
/// `dirty` keys, encode the full table, fold a base plus 7 deltas.
fn delta_layer(w: &Workload, dirty: u64, tracer: &mut Tracer) -> Vec<Metric> {
    let keys = w.keyed_state;
    let dirty = dirty.clamp(1, keys);
    let mut table = DeltaTable::new();
    let mut plain: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    for k in 0..keys {
        table.insert(k, record(k, 0));
        plain.insert(k, record(k, 0));
    }
    table.mark_clean();
    let from = tracer.spans.len();
    // 8 rounds: each dirties `dirty` keys spread over the table and
    // takes the delta; the last 7 deltas feed the fold.
    let stride = (keys / dirty).max(1);
    let mut chain: Vec<StateDelta> = Vec::new();
    for round in 1..=8u64 {
        for i in 0..dirty {
            table.insert((i * stride + round) % keys, record(i, round));
        }
        let bytes = table.value_bytes();
        chain.push(tracer.scope("delta.take", |_| table.take_delta(bytes)));
    }
    let base = tracer.scope("delta.encode_table", |_| delta::encode_table(&plain));
    let folded = tracer.scope("delta.fold", |_| delta::fold(&base, &chain[1..]));
    std::hint::black_box(&folded);
    let t = totals(tracer, from);
    let mb = base.len().max(1) as f64 / 1e6;
    vec![
        metric(
            "delta.take_ns_per_key",
            per(t("delta.take").0, (8 * dirty) as f64),
            "ns",
        ),
        metric(
            "delta.encode_ms_per_mb",
            t("delta.encode_table").0 / 1e6 / mb,
            "ms",
        ),
        metric("delta.fold_ms_per_mb", t("delta.fold").0 / 1e6 / mb, "ms"),
    ]
}

/// `FsStore` read path on the store the cluster left at the kill:
/// open, find and fold the latest complete checkpoint of every
/// operator, read the WAL suffix the gate would replay.
fn restore_layer(w: &Workload, frozen: &Path, tracer: &mut Tracer) -> io::Result<Vec<Metric>> {
    let from = tracer.spans.len();
    let ops = w.physical_ops();
    let store = tracer
        .scope("store.open", |_| FsStore::open(frozen, ops))
        .map_err(storage)?;
    let epoch = tracer.scope("store.restore", |_| {
        let epoch = store.latest_complete();
        if let Some(e) = epoch {
            for op in 0..ops {
                std::hint::black_box(store.get_checkpoint(e, OperatorId(op as u32)));
            }
        }
        epoch
    });
    let epoch = epoch.ok_or_else(|| io::Error::other("frozen store has no complete checkpoint"))?;
    let replayed = tracer.scope("store.replay_from", |_| store.replay_from(GATE, epoch));
    std::hint::black_box(&replayed);
    // `replay_from` reads and decodes the whole log to return its
    // suffix, so its cost is per tuple *scanned*.
    let scanned = store.preserved_tuples();
    let t = totals(tracer, from);
    Ok(vec![
        metric("store.open_ms", t("store.open").0 / 1e6, "ms"),
        metric("store.restore_ms", t("store.restore").0 / 1e6, "ms"),
        metric(
            "store.replay_ms_per_mtuple",
            t("store.replay_from").0 / 1e6 / (scanned.max(1) as f64 / 1e6),
            "ms",
        ),
    ])
}

/// `Waker::wake` → `ready::poll` reporting the waker readable.
fn waker_layer(tracer: &mut Tracer) -> io::Result<Vec<Metric>> {
    let waker = Waker::new()?;
    let from = tracer.spans.len();
    for _ in 0..200 {
        tracer.scope("net.wake", |_| -> io::Result<()> {
            waker.wake();
            poll(&[(waker.fd(), 0, Interest::READ)], 1000)?;
            Ok(())
        })?;
        waker.drain();
    }
    let mut us: Vec<f64> = tracer.spans[from..]
        .iter()
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    Ok(vec![metric(
        "net.wake_us_p50",
        crate::metrics::percentile_of(&mut us, 0.5),
        "us",
    )])
}

/// Every `[call]` metric of the per-layer table.
pub fn layers(
    w: &Workload,
    seed: u64,
    frozen: Option<&Path>,
    tmp_dir: &Path,
    tracer: &mut Tracer,
) -> io::Result<Vec<Metric>> {
    let dir = tmp_dir.join(format!("replay-{}-{}", w.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    let result = (|| {
        let (mut out, dirty) = pipeline(w, seed, tracer, &dir)?;
        out.extend(delta_layer(w, dirty as u64, tracer));
        let frozen = frozen.ok_or_else(|| io::Error::other("no copy of the store at the kill"))?;
        out.extend(restore_layer(w, frozen, tracer)?);
        out.extend(waker_layer(tracer)?);
        Ok(out)
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}
