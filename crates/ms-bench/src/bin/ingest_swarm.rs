//! `ingest_swarm`: gateway ingestion throughput and ack latency under
//! producer swarms.
//!
//! Drives one `ms-gate` gateway — a single event-loop thread — with
//! 8 / 64 / 256 concurrent stop-and-wait TCP producers, per-key
//! pre-aggregation on and off, and WAL group commit on (production)
//! vs off (one append per tuple, the pre-batching baseline). Every
//! batch's events cycle over the same 8 hot keys (the skewed-ingest
//! regime the gateway is built for), so pre-aggregation folds each
//! 32-event batch to 8 engine-edge tuples. Reported per cell:
//! accepted-event throughput, engine-edge tuple count and the
//! resulting reduction factor, and the producer-observed ack latency
//! (send → `Accepted`, which includes the WAL append the ack waits
//! on). Ends with the JSON snapshot recorded under the `ingest_swarm`
//! key of `BENCH_sweep.json`.
//!
//! `ingest_swarm --smoke` runs one short cell (32 producers, group
//! commit on) and fails unless batched throughput is nonzero — the CI
//! batched-hot-path smoke check.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::channel;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use ms_core::codec::{frame, FrameDecoder};
use ms_core::error::Result;
use ms_core::gate::{GateConfig, GateMsg};
use ms_core::ids::{EpochId, OperatorId};
use ms_core::tuple::Tuple;
use ms_gate::{run_gate, GateMeter, GateWiring};
use ms_live::{
    CkptWrite, HostMsg, LiveHauCheckpoint, LiveStorage, OutputRoute, Persister, StableStore,
};

/// Total batches per cell, split evenly over the producers so every
/// cell admits the same event volume regardless of swarm width.
const TOTAL_BATCHES: u64 = 4096;
const EVENTS_PER_BATCH: u64 = 32;
/// The skew: every batch cycles over the same 8 hot keys, so per-key
/// pre-aggregation folds 32 events to 8 tuples (4x) per batch.
const HOT_KEYS: u64 = 8;

/// The pre-batching baseline store: everything forwards to the inner
/// store except the group append, which is left at the trait's default
/// — one `append_log` (one lock, one encode, one write) per tuple.
struct PerTupleLog(Arc<LiveStorage>);

impl StableStore for PerTupleLog {
    fn put_checkpoint(&self, epoch: EpochId, op: OperatorId, ckpt: CkptWrite) -> Result<bool> {
        self.0.put_checkpoint(epoch, op, ckpt)
    }
    fn get_checkpoint(&self, epoch: EpochId, op: OperatorId) -> Option<LiveHauCheckpoint> {
        self.0.get_checkpoint(epoch, op)
    }
    fn latest_complete(&self) -> Option<EpochId> {
        self.0.latest_complete()
    }
    fn append_log(&self, source: OperatorId, t: Tuple) -> Result<()> {
        self.0.append_log(source, t)
    }
    fn mark_epoch(&self, source: OperatorId, epoch: EpochId, next_seq: u64) -> Result<()> {
        self.0.mark_epoch(source, epoch, next_seq)
    }
    fn replay_from(&self, source: OperatorId, epoch: EpochId) -> Vec<Tuple> {
        self.0.replay_from(source, epoch)
    }
    fn preserved_tuples(&self) -> usize {
        self.0.preserved_tuples()
    }
}

fn send(sock: &mut TcpStream, msg: &GateMsg) {
    sock.write_all(&frame(&msg.encode())).unwrap();
}

fn recv(sock: &mut TcpStream, dec: &mut FrameDecoder) -> GateMsg {
    loop {
        if let Some(p) = dec.next_frame().unwrap() {
            return GateMsg::decode(&p).unwrap();
        }
        let mut buf = [0u8; 4096];
        let n = sock.read(&mut buf).unwrap();
        assert!(n > 0, "gateway closed mid-conversation");
        dec.feed(&buf[..n]);
    }
}

/// One producer: `batches` stop-and-wait batches, then `Fin`. Returns
/// the per-batch ack latencies in microseconds. Connection setup and
/// `Hello` happen before the start barrier: a 256-wide simultaneous
/// connect burst can overflow the listen backlog and eat a ~1s SYN
/// retransmit, which is connection-setup noise, not ingest throughput.
fn run_producer(addr: &str, producer: u64, batches: u64, go: &Barrier) -> Vec<u64> {
    let mut sock = TcpStream::connect(addr).unwrap();
    sock.set_nodelay(true).unwrap();
    let mut dec = FrameDecoder::new();
    send(&mut sock, &GateMsg::Hello { producer });
    go.wait();
    let mut lat = Vec::with_capacity(batches as usize);
    for b in 1..=batches {
        let msg = GateMsg::Batch {
            batch: b,
            events: (0..EVENTS_PER_BATCH)
                .map(|j| (j % HOT_KEYS, (producer + b + j) as i64))
                .collect(),
        };
        let t0 = Instant::now();
        send(&mut sock, &msg);
        loop {
            match recv(&mut sock, &mut dec) {
                GateMsg::Accepted { batch } if batch == b => break,
                GateMsg::Busy { retry_after_ms, .. } => {
                    // Unbounded budget: not expected, but honor it.
                    thread::sleep(Duration::from_millis(retry_after_ms.max(1)));
                    send(&mut sock, &msg);
                }
                other => panic!("producer {producer}: unexpected reply {other:?}"),
            }
        }
        lat.push(t0.elapsed().as_micros() as u64);
    }
    send(&mut sock, &GateMsg::Fin { producer });
    assert_eq!(recv(&mut sock, &mut dec), GateMsg::FinOk);
    lat
}

fn pct(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

struct Cell {
    producers: u64,
    preagg: bool,
    group_commit: bool,
    events: u64,
    edge_tuples: u64,
    wall_secs: f64,
    events_per_sec: f64,
    reduction: f64,
    ack_p50_us: u64,
    ack_p99_us: u64,
}

fn run_cell(producers: u64, preagg: bool, group_commit: bool, total_batches: u64) -> Cell {
    let dir = std::env::temp_dir().join(format!(
        "ms_ingest_swarm_{producers}_{preagg}_{group_commit}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store = Arc::new(LiveStorage::new(1));
    let persister = Persister::spawn(store.clone());
    let persist = persister.sender();
    let (cmd_tx, cmd_rx) = channel();
    let (tx, rx) = channel::<HostMsg>();
    let meter = Arc::new(GateMeter::new());
    let addr_file = dir.join("gate.addr");
    let wiring = GateWiring {
        op_id: OperatorId(0),
        cfg: GateConfig {
            preagg,
            expected_producers: producers as u32,
            retry_after_ms: 1,
            ..GateConfig::default()
        },
        outputs: vec![OutputRoute::single(tx)],
        cmd: cmd_rx,
        listen: "127.0.0.1:0".into(),
        addr_file: Some(addr_file.clone()),
        restored: None,
        restored_seq: 0,
        replay: Vec::new(),
        meter: meter.clone(),
        telemetry: None,
    };
    let gate_store: Arc<dyn StableStore> = if group_commit {
        store.clone()
    } else {
        Arc::new(PerTupleLog(store.clone()))
    };
    let gate = thread::spawn(move || run_gate(wiring, gate_store, persist));
    // Engine-edge drain: counts every tuple the gateway emits
    // (batches count as their tuples).
    let drain = thread::spawn(move || {
        let mut n = 0u64;
        loop {
            match rx.recv() {
                Ok(HostMsg::Data(_)) => n += 1,
                Ok(HostMsg::DataBatch(b)) => n += b.len() as u64,
                Ok(HostMsg::Token(_)) => {}
                Ok(HostMsg::Eos) | Err(_) => return n,
            }
        }
    });
    let addr = {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match std::fs::read_to_string(&addr_file) {
                Ok(s) if !s.is_empty() => break s,
                _ => {
                    assert!(Instant::now() < deadline, "gateway never published addr");
                    thread::sleep(Duration::from_millis(5));
                }
            }
        }
    };

    let batches_per_producer = total_batches / producers;
    // All producers connect and say Hello first; the wall clock starts
    // when the whole swarm is ready to send.
    let go = Arc::new(Barrier::new(producers as usize + 1));
    let handles: Vec<_> = (0..producers)
        .map(|p| {
            let addr = addr.clone();
            let go = go.clone();
            thread::spawn(move || run_producer(&addr, p, batches_per_producer, &go))
        })
        .collect();
    go.wait();
    let start = Instant::now();
    let mut lat: Vec<u64> = Vec::new();
    for h in handles {
        lat.extend(h.join().expect("producer panicked"));
    }
    let wall_secs = start.elapsed().as_secs_f64();
    let edge_tuples = drain.join().unwrap();
    let exit = gate.join().unwrap();
    assert!(exit.error.is_none(), "gateway error: {:?}", exit.error);
    drop(cmd_tx);
    let _ = std::fs::remove_dir_all(&dir);

    lat.sort_unstable();
    let s = meter.sample();
    Cell {
        producers,
        preagg,
        group_commit,
        events: s.accepted_events,
        edge_tuples,
        wall_secs,
        events_per_sec: s.accepted_events as f64 / wall_secs,
        reduction: s.accepted_events as f64 / edge_tuples.max(1) as f64,
        ack_p50_us: pct(&lat, 0.50),
        ack_p99_us: pct(&lat, 0.99),
    }
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        // CI smoke: one short batched cell must move data. Group
        // commit on — this is the production ingest path.
        let c = run_cell(32, true, true, 512);
        println!(
            "ingest_swarm --smoke: 32 producers group_commit=true  {} events  {:.0} ev/s",
            c.events, c.events_per_sec
        );
        assert!(
            c.events > 0 && c.events_per_sec > 0.0,
            "batched ingest path moved no data"
        );
        return;
    }
    println!(
        "ingest_swarm: one gateway event-loop thread, {TOTAL_BATCHES} batches x \
         {EVENTS_PER_BATCH} events over {HOT_KEYS} hot keys per cell"
    );
    // Untimed warmup: the first cell in a fresh process otherwise pays
    // thread-spawn, page-fault, and allocator warmup that the later
    // cells don't, skewing the cross-cell comparison.
    let _ = run_cell(64, true, true, 512);
    let mut cells = Vec::new();
    for &producers in &[8u64, 64, 256] {
        // Production shape (group commit on) with pre-agg on and off,
        // plus the per-tuple-append baseline at pre-agg on — the
        // batched-vs-per-tuple comparison at each swarm width.
        for &(preagg, group_commit) in &[(true, true), (false, true), (true, false)] {
            // Best of 3: on a small shared box the noise is one-sided
            // (the scheduler only ever slows a cell down), so the
            // fastest repetition is the best estimate of the true cost.
            let c = (0..3)
                .map(|_| run_cell(producers, preagg, group_commit, TOTAL_BATCHES))
                .max_by(|a, b| a.events_per_sec.total_cmp(&b.events_per_sec))
                .unwrap();
            println!(
                "  {:>4} producers preagg={:<5} group_commit={:<5} {:>7} events in {:>6.3}s  \
                 {:>9.0} ev/s  edge tuples {:>7} (x{:.2} reduction)  ack p50 {:>4}us p99 {:>5}us",
                c.producers,
                c.preagg,
                c.group_commit,
                c.events,
                c.wall_secs,
                c.events_per_sec,
                c.edge_tuples,
                c.reduction,
                c.ack_p50_us,
                c.ack_p99_us
            );
            cells.push(c);
        }
    }
    // The snapshot recorded under BENCH_sweep.json's "ingest_swarm"
    // key (same convention as "edge_scaling": paste the block below).
    println!("\n\"ingest_swarm\": {{");
    println!(
        " \"note\": \"one gateway event-loop thread; {TOTAL_BATCHES} stop-and-wait batches x \
         {EVENTS_PER_BATCH} events over {HOT_KEYS} hot keys per cell; ack latency is \
         producer-observed send->Accepted incl. the WAL append; group_commit=false is the \
         per-tuple-append baseline; best of 3 repetitions per cell; recorded snapshot\","
    );
    println!(" \"total_batches\": {TOTAL_BATCHES},");
    println!(" \"events_per_batch\": {EVENTS_PER_BATCH},");
    println!(" \"hot_keys\": {HOT_KEYS},");
    println!(" \"cells\": [");
    for (i, c) in cells.iter().enumerate() {
        println!(
            "  {{ \"producers\": {}, \"preagg\": {}, \"group_commit\": {}, \"events\": {}, \
             \"edge_tuples\": {}, \"wall_secs\": {:.6}, \"events_per_sec\": {:.1}, \
             \"reduction\": {:.2}, \"ack_p50_us\": {}, \"ack_p99_us\": {} }}{}",
            c.producers,
            c.preagg,
            c.group_commit,
            c.events,
            c.edge_tuples,
            c.wall_secs,
            c.events_per_sec,
            c.reduction,
            c.ack_p50_us,
            c.ack_p99_us,
            if i + 1 == cells.len() { "" } else { "," }
        );
    }
    println!(" ]\n}}");
}
