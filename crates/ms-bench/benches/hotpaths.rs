//! Criterion microbenchmarks over the system's hot paths: snapshot
//! codec, state-size estimation, the DES kernel, the network and
//! storage cost models, preservation buffers, the k-means kernel,
//! meter and checkpoint-capture overhead on the tuple path, and one
//! engine ablation (sync vs async snapshotting). The live data path
//! (gate, WAL, wire, event loop) is msbench's, under `bench/`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use ms_apps::kmeans::kmeans;
use ms_apps::pool::Pool;
use ms_core::codec::{SnapshotReader, SnapshotWriter};
use ms_core::config::{CheckpointConfig, SchemeKind};
use ms_core::ids::{NodeId, OperatorId};
use ms_core::metrics::{LatencyHistogram, OperatorMeter};
use ms_core::state::estimate;
use ms_core::time::{SimDuration, SimTime};
use ms_core::tuple::Tuple;
use ms_core::value::Value;
use ms_runtime::{Engine, EngineConfig};
use ms_sim::net::{NetConfig, Network};
use ms_sim::storage::{BwDevice, InputPreservationBuffer};
use ms_sim::{DetRng, EventQueue};

fn tuple_with_blob(seq: u64, bytes: u64) -> Tuple {
    Tuple::new(
        OperatorId(1),
        seq,
        SimTime::from_micros(seq),
        vec![Value::Blob {
            logical_bytes: bytes,
            digest: vec![1.0, 2.0, 3.0, 4.0],
        }],
    )
}

fn bench_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec");
    let tuples: Vec<Tuple> = (0..100).map(|i| tuple_with_blob(i, 50_000)).collect();
    g.throughput(Throughput::Elements(100));
    g.bench_function("encode_100_tuples", |b| {
        b.iter(|| {
            let mut w = SnapshotWriter::new();
            for t in &tuples {
                w.put_tuple(t);
            }
            w.finish()
        })
    });
    let mut w = SnapshotWriter::new();
    for t in &tuples {
        w.put_tuple(t);
    }
    let buf = w.finish();
    g.bench_function("decode_100_tuples", |b| {
        b.iter(|| {
            let mut r = SnapshotReader::new(&buf);
            for _ in 0..100 {
                r.get_tuple().unwrap();
            }
        })
    });
    g.finish();
}

fn bench_state_size(c: &mut Criterion) {
    let mut g = c.benchmark_group("state_size");
    let mut pool = Pool::new();
    for i in 0..10_000 {
        pool.push(vec![i as f64; 8], 25_000);
    }
    // The paper's 3-point sampling estimator vs an exact sum: the
    // O(1)-vs-O(n) gap is why the precompiler samples.
    g.bench_function("sampled_10k_pool", |b| b.iter(|| pool.sampled_size()));
    g.bench_function("exact_10k_pool", |b| {
        b.iter(|| {
            pool.items()
                .iter()
                .map(ms_core::state::StateSize::state_size)
                .sum::<u64>()
        })
    });
    g.bench_function("sampled_n=16", |b| {
        b.iter(|| estimate::sampled(pool.items(), 16))
    });
    g.finish();
}

fn bench_des_kernel(c: &mut Criterion) {
    let mut g = c.benchmark_group("des");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("schedule_pop_10k", |b| {
        b.iter_batched(
            || {
                let mut rng = DetRng::new(7);
                let mut q: EventQueue<u64> = EventQueue::new();
                for i in 0..10_000u64 {
                    q.schedule(SimTime::from_micros(rng.range_u64(0, 1 << 30)), i);
                }
                q
            },
            |mut q| while q.pop().is_some() {},
            BatchSize::SmallInput,
        )
    });
    g.bench_function("detrng_u64", |b| {
        let mut r = DetRng::new(3);
        b.iter(|| r.next_u64())
    });
    g.finish();
}

fn bench_cost_models(c: &mut Criterion) {
    let mut g = c.benchmark_group("cost_models");
    g.bench_function("network_send", |b| {
        let mut net = Network::new(NetConfig::default(), 56);
        let mut t = 0u64;
        b.iter(|| {
            t += 100;
            net.send(
                SimTime::from_micros(t),
                NodeId((t % 55) as u32),
                NodeId(((t + 7) % 55) as u32),
                50_000,
            )
        })
    });
    g.bench_function("device_access", |b| {
        let mut d = BwDevice::new(7_500_000, SimDuration::from_millis(5));
        let mut t = 0u64;
        b.iter(|| {
            t += 1000;
            d.access(SimTime::from_micros(t), 1_000_000)
        })
    });
    g.finish();
}

fn bench_preservation(c: &mut Criterion) {
    let mut g = c.benchmark_group("preservation");
    g.bench_function("push_trim_cycle", |b| {
        b.iter_batched(
            || InputPreservationBuffer::new(50_000_000),
            |mut buf| {
                for seq in 0..500u64 {
                    buf.push(tuple_with_blob(seq, 100_000));
                }
                buf.trim_below(400);
                buf
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_kmeans(c: &mut Criterion) {
    let mut g = c.benchmark_group("kmeans");
    let mut rng = DetRng::new(5);
    let pts: Vec<Vec<f64>> = (0..1_000)
        .map(|_| (0..8).map(|_| rng.range_f64(0.0, 30.0)).collect())
        .collect();
    g.bench_function("cluster_1000x8_k4", |b| {
        b.iter(|| kmeans(&pts, 4, 10, &mut DetRng::new(11)))
    });
    g.finish();
}

/// Zero-copy emit path: `Tuple::clone` is a refcount bump on the
/// shared payload, so it costs the same whether the tuple logically
/// carries 1 KB or 100 MB. The rebuild variant (deep-copying the
/// values, what emit used to cost) is the contrast.
fn bench_tuple_clone(c: &mut Criterion) {
    let mut g = c.benchmark_group("tuple_clone");
    for (label, logical) in [("1kb_payload", 1_000u64), ("100mb_payload", 100_000_000)] {
        let t = tuple_with_blob(1, logical);
        g.bench_function(&format!("refcount_clone_{label}"), |b| b.iter(|| t.clone()));
        g.bench_function(&format!("rebuild_{label}"), |b| {
            b.iter(|| Tuple::new(t.producer, t.seq, t.source_time, t.fields.to_vec()))
        });
    }
    g.finish();
}

/// Snapshot serialization with and without pre-sizing: the writer's
/// buffer either grows by repeated doubling or is allocated once from
/// the exact encoded size.
fn bench_snapshot_presize(c: &mut Criterion) {
    let mut g = c.benchmark_group("snapshot_presize");
    let tuples: Vec<Tuple> = (0..1_000).map(|i| tuple_with_blob(i, 50_000)).collect();
    let encoded: usize = tuples.iter().map(SnapshotWriter::encoded_tuple_bytes).sum();
    g.throughput(Throughput::Bytes(encoded as u64));
    g.bench_function("growing_1k_tuples", |b| {
        b.iter(|| {
            let mut w = SnapshotWriter::new();
            for t in &tuples {
                w.put_tuple(t);
            }
            w.finish()
        })
    });
    g.bench_function("presized_1k_tuples", |b| {
        b.iter(|| {
            let mut w = SnapshotWriter::with_capacity(encoded);
            for t in &tuples {
                w.put_tuple(t);
            }
            w.finish()
        })
    });
    let mut pool = Pool::new();
    for i in 0..10_000 {
        pool.push(vec![i as f64; 8], 25_000);
    }
    g.bench_function("pool_encode_10k", |b| {
        b.iter(|| {
            let mut w = SnapshotWriter::new();
            pool.encode(&mut w);
            w.finish()
        })
    });
    g.finish();
}

/// Ablation: synchronous (MS-src) vs asynchronous (MS-src+ap) snapshot
/// handling on the same tiny deployment — the design choice §III-B
/// motivates, measured as wall-clock of the whole simulated run.
fn bench_engine_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.sample_size(10);
    for (label, scheme) in [
        ("sync_ckpt_run", SchemeKind::MsSrc),
        ("async_ckpt_run", SchemeKind::MsSrcAp),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let app = ms_apps::Tmi::with_window_minutes(1);
                let cfg = EngineConfig {
                    scheme,
                    ckpt: CheckpointConfig::n_in_window(2, SimDuration::from_secs(60)),
                    warmup: SimDuration::from_secs(5),
                    measure: SimDuration::from_secs(60),
                    ..EngineConfig::default()
                };
                Engine::new(app, cfg).unwrap().run().throughput()
            })
        });
    }
    g.finish();
}

/// Telemetry overhead on the tuple hot path. Models `ms-live`'s host
/// loop — tuple allocation, a bounded-channel hop, then apply and
/// route — with the exact meter calls the host makes when telemetry
/// is wired: `add_tuples_in` per applied tuple, `add_tuples_out` per
/// emit, and every `STATE_GAUGE_SAMPLE_EVERY` applied tuples
/// `set_state_bytes(state_size())` of an operator holding a keyed
/// [`DeltaTable`] the size of msbench `bigstate_paced`'s — 65,536
/// entries of `KeyedStat` records — so a `state_size()` that walks its
/// state shows here. Prints a one-shot throughput ratio alongside the
/// criterion timings; the acceptance bound is meters-on within 2% of
/// meters-off.
fn bench_meter_overhead(c: &mut Criterion) {
    use ms_core::delta::DeltaTable;
    use ms_live::STATE_GAUGE_SAMPLE_EVERY;
    use std::time::Instant;

    const N: u64 = 100_000;
    /// `ms_wire::apps::KeyedStat`'s record: an 8-byte counter plus its
    /// 256-byte `FEATURE_BYTES` feature vector.
    const RECORD_BYTES: usize = 8 + 256;

    let mut table = DeltaTable::new();
    for k in 0..65_536u64 {
        table.insert(k, vec![k as u8; RECORD_BYTES]);
    }

    fn run(meter: Option<&OperatorMeter>, state: &DeltaTable, n: u64) -> u64 {
        // An upstream thread allocates tuples and pushes them through
        // the same bounded channel the live wiring uses; the consumer
        // side is the host thread's apply+route with the meter calls.
        let (tx, rx) = std::sync::mpsc::sync_channel::<Tuple>(1024);
        let producer = std::thread::spawn(move || {
            for seq in 0..n {
                let t = Tuple::new(
                    OperatorId(0),
                    seq,
                    SimTime::from_micros(seq),
                    vec![Value::Int(seq as i64)],
                );
                if tx.send(t).is_err() {
                    return;
                }
            }
        });
        let (mut acc, mut applied) = (0u64, 0u64);
        while let Ok(t) = rx.recv() {
            if let Some(m) = meter {
                m.add_tuples_in(1);
                applied += 1;
                if applied % STATE_GAUGE_SAMPLE_EVERY == 0 {
                    m.set_state_bytes(state.value_bytes());
                }
            }
            acc = acc.wrapping_add(t.seq);
            let bytes = t.payload_bytes();
            if let Some(m) = meter {
                m.add_tuples_out(1, bytes);
            }
        }
        producer.join().unwrap();
        acc
    }

    let meter = OperatorMeter::new();
    // One-shot ratio over a long run, reported once per bench run.
    std::hint::black_box(run(None, &table, N)); // warmup
    let t0 = Instant::now();
    std::hint::black_box(run(None, &table, 10 * N));
    let off = t0.elapsed();
    let t0 = Instant::now();
    std::hint::black_box(run(Some(&meter), &table, 10 * N));
    let on = t0.elapsed();
    eprintln!(
        "telemetry_overhead: {} tuples meters-off={off:?} meters-on={on:?} ratio={:.4}",
        10 * N,
        on.as_nanos() as f64 / off.as_nanos().max(1) as f64,
    );

    let mut g = c.benchmark_group("telemetry_overhead");
    g.throughput(Throughput::Elements(N));
    g.bench_function("meters_off_100k", |b| b.iter(|| run(None, &table, N)));
    g.bench_function("meters_on_100k", |b| {
        b.iter(|| run(Some(&meter), &table, N))
    });
    g.finish();
}

/// Checkpoint stall: tuple latency while a 16 MiB table is being
/// persisted, versus steady state. The big-state operator keeps its
/// state in a `DeltaTable` (65,536 keys of 256 bytes, `bigstate_paced`'s
/// shape) and captures it as a copy-on-write view, so the host thread's
/// capture is a clone of the page map and the 16 MiB encode runs on
/// the persister thread, while every tuple writes a key. Keys are
/// written in order, so one tuple in sixteen lands on a page the view
/// still holds and pays that page's copy: the tail of the "during"
/// latencies is that copy. The eager `snapshot()` bench shows what the
/// host thread would pay per checkpoint if the capture were
/// synchronous.
fn bench_ckpt_stall(c: &mut Criterion) {
    use std::io;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use ms_core::delta::DeltaTable;
    use ms_core::error::Result;
    use ms_core::ids::{EpochId, PortId};
    use ms_core::operator::{DeferredSnapshot, Operator, OperatorContext, OperatorSnapshot};
    use ms_core::tuple::Fields;
    use ms_live::ckpt_codec;
    use ms_live::{CkptWrite, CkptWritten, LiveHauCheckpoint, PersistItem, Persister, StableStore};

    const KEYS: u64 = 1 << 16;
    const VALUE_BYTES: usize = 256; // 16 MiB of values

    struct BigState {
        table: DeltaTable,
    }

    impl BigState {
        fn new() -> BigState {
            let mut table = DeltaTable::new();
            for k in 0..KEYS {
                table.insert(k, vec![k as u8; VALUE_BYTES]);
            }
            BigState { table }
        }
    }

    impl Operator for BigState {
        fn kind(&self) -> &'static str {
            "BigState"
        }

        fn on_tuple(&mut self, _p: PortId, t: Tuple, _ctx: &mut dyn OperatorContext) {
            self.table
                .insert(t.seq % KEYS, vec![t.seq as u8; VALUE_BYTES]);
        }

        fn state_size(&self) -> u64 {
            self.table.value_bytes()
        }

        fn snapshot(&self) -> OperatorSnapshot {
            OperatorSnapshot {
                data: self.table.snapshot(),
                logical_bytes: self.table.value_bytes(),
            }
        }

        fn snapshot_deferred(&mut self) -> DeferredSnapshot {
            DeferredSnapshot::Full(self.table.freeze(self.table.value_bytes()))
        }

        fn restore(&mut self, s: &OperatorSnapshot) -> Result<()> {
            self.table = DeltaTable::restore(&s.data)?;
            Ok(())
        }
    }

    struct NullCtx;

    impl OperatorContext for NullCtx {
        fn emit_fields(&mut self, _port: PortId, _fields: Fields) {}
        fn emit_all_fields(&mut self, _fields: Fields) {}
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }
        fn self_id(&self) -> OperatorId {
            OperatorId(0)
        }
        fn rand_f64(&mut self) -> f64 {
            0.5
        }
        fn rand_u64(&mut self) -> u64 {
            0
        }
    }

    /// A store that encodes each checkpoint into nothing — the bench
    /// measures capture + encode contention, not disk bandwidth.
    struct DevNullStore;

    impl StableStore for DevNullStore {
        fn write_checkpoint(
            &self,
            _epoch: EpochId,
            _op: OperatorId,
            ckpt: &CkptWrite,
        ) -> Result<CkptWritten> {
            ckpt_codec::write_ckpt(ckpt, &mut io::sink()).expect("a sink takes every write");
            Ok(CkptWritten {
                complete: true,
                ..CkptWritten::default()
            })
        }
        fn get_checkpoint(&self, _epoch: EpochId, _op: OperatorId) -> Option<LiveHauCheckpoint> {
            None
        }
        fn latest_complete(&self) -> Option<EpochId> {
            None
        }
        fn append_log_batch(&self, _source: OperatorId, _batch: &[Tuple]) -> Result<u64> {
            Ok(0)
        }
        fn mark_epoch(&self, _source: OperatorId, _epoch: EpochId, _next_seq: u64) -> Result<()> {
            Ok(())
        }
        fn replay_from(&self, _source: OperatorId, _epoch: EpochId) -> Vec<Tuple> {
            Vec::new()
        }
        fn preserved_tuples(&self) -> usize {
            0
        }
    }

    fn apply_one(op: &mut BigState, ctx: &mut NullCtx, seq: u64) -> Duration {
        let t = Tuple::new(
            OperatorId(0),
            seq,
            SimTime::from_micros(seq),
            vec![Value::Int(seq as i64)],
        );
        let t0 = Instant::now();
        op.on_tuple(PortId(0), t, ctx);
        t0.elapsed()
    }

    // --- The p99 experiment, reported once per bench run. ---
    let in_flight = Arc::new(AtomicBool::new(false));
    let hook_flag = Arc::clone(&in_flight);
    let persister = Persister::spawn_with(
        Arc::new(DevNullStore),
        Some(Box::new(move |_, _, _, _| {
            hook_flag.store(false, Ordering::SeqCst);
        })),
    );
    let tx = persister.sender();
    let mut op = BigState::new();
    let mut ctx = NullCtx;
    let mut seq = 0u64;

    // Latencies go straight into fixed-bucket histograms (≤6.25%
    // relative error) instead of a sort-the-Vec percentile — the same
    // estimator `DurationStats` uses, in nanosecond ticks here.
    let mut steady = LatencyHistogram::new();
    for _ in 0..10_000 {
        apply_one(&mut op, &mut ctx, seq); // warmup
        seq += 1;
    }
    for _ in 0..50_000 {
        steady.record(apply_one(&mut op, &mut ctx, seq).as_nanos() as u64);
        seq += 1;
    }

    let mut during = LatencyHistogram::new();
    for epoch in 0..16u64 {
        in_flight.store(true, Ordering::SeqCst);
        let sent = tx.send(PersistItem {
            epoch: EpochId(epoch),
            op: OperatorId(0),
            snapshot: op.snapshot_deferred(),
            base: None,
            next_seq: seq,
            resume_seq: Vec::new(),
            align_us: 0,
            capture_us: 0,
            meter: None,
        });
        assert!(sent.is_ok(), "persister thread died");
        // Keep streaming while the persister encodes 16 MiB.
        while in_flight.load(Ordering::SeqCst) && during.count() < 1_000_000 {
            during.record(apply_one(&mut op, &mut ctx, seq).as_nanos() as u64);
            seq += 1;
        }
    }
    drop(tx);
    drop(persister);

    eprintln!(
        "ckpt_stall: tuple latency steady p50={}ns p95={}ns p99={}ns \
         during-16MiB-ckpt p50={}ns p95={}ns p99={}ns \
         p99-ratio={:.2} ({} in-ckpt samples)",
        steady.p50(),
        steady.p95(),
        steady.p99(),
        during.p50(),
        during.p95(),
        during.p99(),
        during.p99() as f64 / steady.p99().max(1) as f64,
        during.count(),
    );

    // --- Criterion timings for the two capture strategies. ---
    let mut g = c.benchmark_group("ckpt_stall");
    g.bench_function("deferred_capture_16mb", |b| {
        b.iter(|| op.snapshot_deferred())
    });
    g.sample_size(10);
    g.bench_function("eager_snapshot_16mb", |b| b.iter(|| op.snapshot()));
    g.finish();
}

criterion_group!(
    benches,
    bench_codec,
    bench_state_size,
    bench_des_kernel,
    bench_cost_models,
    bench_preservation,
    bench_kmeans,
    bench_tuple_clone,
    bench_snapshot_presize,
    bench_engine_ablation,
    bench_meter_overhead,
    bench_ckpt_stall
);
criterion_main!(benches);
