//! The live-protocol wire alphabet and its binary codec.
//!
//! Every message that crosses a process boundary in the TCP cluster is
//! a [`WireMsg`], encoded with `ms-core`'s tagged snapshot codec and
//! carried inside one length-prefixed frame
//! ([`ms_core::codec::write_frame`]). The alphabet covers all three
//! conversations of the MS-src protocol (§III):
//!
//! * **data plane** (worker ↔ worker, one TCP stream per graph edge):
//!   [`WireMsg::StreamHello`] identifies the edge, then exactly three
//!   messages ride it in order — [`WireMsg::TupleBatch`] (the only
//!   carrier of tuples), [`WireMsg::Token`] and the closing
//!   [`WireMsg::Eos`], mirroring `ms_live::HostMsg` variant for variant.
//!   A socket that dies *without* an `Eos` is a failure, never an
//!   end-of-stream — the distinction is what lets a consumer hold its
//!   input open across a peer crash until the controller rolls back.
//! * **control plane, worker → controller**: [`WireMsg::Register`],
//!   [`WireMsg::Heartbeat`] (on a dedicated heartbeat connection,
//!   opened with [`WireMsg::HeartbeatHello`]; one frame per beat with
//!   the gauges and every local meter sample), [`WireMsg::CkptDone`]
//!   durable-checkpoint acks (the controller's epoch barrier, each
//!   with its operator's sample), [`WireMsg::WorkerError`],
//!   [`WireMsg::SinkDone`].
//! * **control plane, controller → worker**: [`WireMsg::Assign`],
//!   [`WireMsg::Checkpoint`], [`WireMsg::Rollback`],
//!   [`WireMsg::Shutdown`].

use std::io::Write;

use ms_core::codec::{write_frame, SnapshotReader, SnapshotWriter};
use ms_core::error::{Error, Result};
use ms_core::gate::GateConfig;
use ms_core::graph::QueryNetwork;
use ms_core::ids::{EpochId, OperatorId};
use ms_core::metrics::{BackpressureGauges, OperatorSample};
use ms_core::tuple::Tuple;
use ms_gate::GateSample;

/// Where one operator of an assignment runs.
#[derive(Clone, Debug, PartialEq)]
pub struct OpPlacement {
    /// The operator.
    pub op: OperatorId,
    /// Name of the worker hosting it.
    pub worker: String,
    /// That worker's data-plane listen address (`host:port`).
    pub data_addr: String,
}

/// One source operator to host as an ingestion gateway (`ms-gate`)
/// instead of a demo source: the worker owning it runs the gate event
/// loop, publishes its TCP address to `gate_op{N}.addr` under the
/// store directory, and external producers push batches at it.
#[derive(Clone, Debug, PartialEq)]
pub struct GateSpec {
    /// The source operator the gateway replaces.
    pub op: OperatorId,
    /// Admission/pre-aggregation configuration.
    pub cfg: GateConfig,
}

/// A full generation of work, broadcast by the controller to every
/// live worker. Carries the query network itself (operator count plus
/// edges in `QueryNetwork::edges` order, so each worker rebuilds an
/// identical graph with identical port numbering), the placement map,
/// and the recovery point.
#[derive(Clone, Debug, PartialEq)]
pub struct Assignment {
    /// Monotone generation number; one per (re)deployment.
    pub generation: u64,
    /// Complete application checkpoint to restore from, or `None` for
    /// a fresh start.
    pub restore_epoch: Option<EpochId>,
    /// Number of operators in the query network.
    pub n_ops: u32,
    /// All edges in `QueryNetwork::edges` order (from-major, output
    /// port order) — replaying `connect` in this order reproduces the
    /// original port numbering on every worker.
    pub edges: Vec<(OperatorId, OperatorId)>,
    /// Where each operator runs.
    pub placement: Vec<OpPlacement>,
    /// Demo-app parameter: tuples each source emits in total.
    pub source_limit: u64,
    /// Demo-app parameter: per-tuple source delay (µs), to stretch the
    /// stream over wall-clock time.
    pub source_delay_us: u64,
    /// Demo-app parameter: when nonzero, interior operators carry a
    /// keyed state table of this many keys (delta-checkpointed) instead
    /// of being stateless doublers.
    pub keyed_state: u64,
    /// Demo-app parameter: when nonzero (together with `keyed_state`),
    /// interior operators are `SawtoothStat`s whose keyed table
    /// collapses every this many applied tuples — the dynamic state
    /// profile exercised by the live application-aware plane.
    pub sawtooth_window: u64,
    /// The shard plan of the deployment: `groups[logical]` lists the
    /// physical instances of that logical operator, shard order (see
    /// `ms_core::shard::ShardPlan`). Every worker derives its hash
    /// routes (one route per logical consumer, over the consumer's
    /// whole instance group) from this map. Singleton groups everywhere
    /// ⇒ the unsharded wiring, byte-identical to the historical one.
    pub groups: Vec<Vec<OperatorId>>,
    /// Sources hosted as ingestion gateways this generation (empty ⇒
    /// every source is a demo source, the historical wiring).
    pub gates: Vec<GateSpec>,
}

impl Assignment {
    /// Rebuilds the query network this assignment describes.
    pub fn network(&self) -> Result<QueryNetwork> {
        let mut qn = QueryNetwork::new();
        for i in 0..self.n_ops {
            qn.add_operator(format!("op{i}"));
        }
        for &(from, to) in &self.edges {
            qn.connect(from, to)?;
        }
        qn.validate()?;
        Ok(qn)
    }

    /// The worker hosting `op`, if placed.
    pub fn worker_of(&self, op: OperatorId) -> Option<&str> {
        self.placement
            .iter()
            .find(|p| p.op == op)
            .map(|p| p.worker.as_str())
    }

    /// The data address of the worker hosting `op`, if placed.
    pub fn addr_of(&self, op: OperatorId) -> Option<&str> {
        self.placement
            .iter()
            .find(|p| p.op == op)
            .map(|p| p.data_addr.as_str())
    }

    /// Operators placed on the named worker.
    pub fn ops_on(&self, worker: &str) -> Vec<OperatorId> {
        self.placement
            .iter()
            .filter(|p| p.worker == worker)
            .map(|p| p.op)
            .collect()
    }
}

/// Everything that travels between the processes of a cluster.
#[derive(Clone, Debug, PartialEq)]
pub enum WireMsg {
    /// Worker → controller: first message on a control connection.
    Register {
        /// Unique worker name.
        name: String,
        /// The worker's data-plane listen address.
        data_addr: String,
    },
    /// Worker → controller: liveness signal, sent on a fixed cadence
    /// on the heartbeat connection — the whole of a beat in one frame.
    /// Carries the worker's aggregate backpressure gauges (input-queue
    /// depth and alignment-window occupancy summed over its hosts, so
    /// the controller sees a congesting worker before it stalls) and a
    /// meter sample of every local operator and ingestion gate.
    Heartbeat {
        /// Generation the samples belong to (the controller ignores
        /// the samples of any other; the beat itself always counts).
        generation: u64,
        /// Summed [`BackpressureGauges`] across the worker's hosts.
        gauges: BackpressureGauges,
        /// One meter reading per local operator.
        ops: Vec<(OperatorId, OperatorSample)>,
        /// One gateway meter reading per locally hosted gate.
        gates: Vec<(OperatorId, GateSample)>,
    },
    /// Worker → controller: a sink operator of `generation` drained its
    /// stream; `snapshot` is its final serialized state.
    SinkDone {
        /// Generation the sink belonged to (stale ones are ignored).
        generation: u64,
        /// The sink operator.
        op: OperatorId,
        /// `OperatorSnapshot::data` of the finished sink.
        snapshot: Vec<u8>,
    },
    /// Controller → worker: deploy (or redeploy) a generation.
    Assign(Assignment),
    /// Controller → worker: forward a checkpoint command to every local
    /// source HAU (the controller-triggered token of §III-A).
    Checkpoint(EpochId),
    /// Controller → worker: abandon the current generation (a peer
    /// failed); tear down hosts and discard in-flight work.
    Rollback,
    /// Controller → worker: the application finished; exit cleanly.
    Shutdown,
    /// Data plane: identifies the graph edge a fresh stream carries.
    StreamHello {
        /// Generation this stream belongs to.
        generation: u64,
        /// Producing operator.
        from: OperatorId,
        /// Consuming operator.
        to: OperatorId,
    },
    /// Data plane: a run of tuples in one frame — the only message
    /// that carries tuples, as batch records
    /// ([`SnapshotWriter::put_batch`]), the layout the preservation log
    /// uses. Every tuple keeps its own `seq`, so replay cuts and dedup
    /// work per tuple, while the edge pays one frame header, one decode
    /// dispatch, and one inbox push for the whole run.
    TupleBatch(Vec<Tuple>),
    /// Data plane: a checkpoint token trickling down the dataflow.
    Token(EpochId),
    /// Data plane: graceful end of stream. Only this message ends a
    /// stream; a bare socket close is treated as a failure.
    Eos,
    /// Worker → controller: one local HAU's individual checkpoint for
    /// `epoch` is durable in stable storage. The controller only
    /// broadcasts the next [`WireMsg::Checkpoint`] once every HAU of
    /// the generation has acked the previous epoch — the barrier that
    /// keeps the timer-driven ticker from ever having two epochs'
    /// tokens racing through the graph. The ack carries the HAU's
    /// meter sample taken after the write, so when the last ack of an
    /// epoch arrives the controller holds every operator's checkpoint
    /// phases for that epoch and can cut its ledger records.
    CkptDone {
        /// Generation the checkpoint belongs to (stale acks ignored).
        generation: u64,
        /// The acked epoch.
        epoch: EpochId,
        /// The HAU whose checkpoint is durable.
        op: OperatorId,
        /// The HAU's meter sample after the write (`None` when the
        /// worker holds no meter for it).
        sample: Option<OperatorSample>,
    },
    /// Worker → controller: first message on a *heartbeat* connection.
    /// Heartbeats ride their own socket so a stalled report write can
    /// never delay liveness signals into a spurious failure detection.
    /// The worker's I/O thread writes a beat between turns every 50 ms.
    HeartbeatHello {
        /// The registered worker this heartbeat stream belongs to.
        name: String,
    },
    /// Worker → controller: a local HAU hit a non-recoverable local
    /// fault (stable storage unusable, restore failed). The controller
    /// fails the worker and rolls the generation back; the process
    /// itself stays up for the next generation.
    WorkerError {
        /// Generation the failure occurred in (stale ones ignored).
        generation: u64,
        /// Human-readable failure description (logged controller-side).
        detail: String,
    },
}

const TAG_REGISTER: u64 = 1;
const TAG_HEARTBEAT: u64 = 2;
const TAG_SINK_DONE: u64 = 3;
const TAG_ASSIGN: u64 = 4;
const TAG_CHECKPOINT: u64 = 5;
const TAG_ROLLBACK: u64 = 6;
const TAG_SHUTDOWN: u64 = 7;
const TAG_STREAM_HELLO: u64 = 8;
// Tag 9 carried the single-tuple data frame; retired, never reused.
const TAG_TOKEN: u64 = 10;
const TAG_EOS: u64 = 11;
const TAG_CKPT_DONE: u64 = 12;
const TAG_HEARTBEAT_HELLO: u64 = 13;
const TAG_WORKER_ERROR: u64 = 14;
// Tags 15 and 16 carried per-operator and gateway samples as
// messages of their own; they ride `Heartbeat` and `CkptDone` now.
// Retired, never reused.
const TAG_TUPLE_BATCH: u64 = 17;

impl WireMsg {
    /// Encodes the message into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        match self {
            WireMsg::Register { name, data_addr } => {
                w.put_u64(TAG_REGISTER).put_str(name).put_str(data_addr);
            }
            WireMsg::Heartbeat {
                generation,
                gauges,
                ops,
                gates,
            } => {
                w.put_u64(TAG_HEARTBEAT)
                    .put_u64(*generation)
                    .put_u64(gauges.queued_tuples)
                    .put_u64(gauges.open_windows)
                    .put_u64(gauges.window_tuples);
                w.put_seq(ops.iter(), |w, (op, s)| {
                    w.put_u64(op.0 as u64);
                    put_sample(w, s);
                });
                w.put_seq(gates.iter(), |w, (op, s)| {
                    w.put_u64(op.0 as u64)
                        .put_u64(s.accepted_batches)
                        .put_u64(s.shed_batches)
                        .put_u64(s.accepted_events)
                        .put_u64(s.emitted_tuples)
                        .put_u64(s.wal_bytes)
                        .put_u64(s.ack_p50_us)
                        .put_u64(s.ack_p99_us);
                });
            }
            WireMsg::SinkDone {
                generation,
                op,
                snapshot,
            } => {
                w.put_u64(TAG_SINK_DONE)
                    .put_u64(*generation)
                    .put_u64(op.0 as u64)
                    .put_bytes(snapshot);
            }
            WireMsg::Assign(a) => {
                w.put_u64(TAG_ASSIGN).put_u64(a.generation);
                match a.restore_epoch {
                    Some(e) => w.put_u64(1).put_u64(e.0),
                    None => w.put_u64(0).put_u64(0),
                };
                w.put_u64(a.n_ops as u64);
                w.put_seq(a.edges.iter(), |w, (f, t)| {
                    w.put_u64(f.0 as u64).put_u64(t.0 as u64);
                });
                w.put_seq(a.placement.iter(), |w, p| {
                    w.put_u64(p.op.0 as u64)
                        .put_str(&p.worker)
                        .put_str(&p.data_addr);
                });
                w.put_u64(a.source_limit)
                    .put_u64(a.source_delay_us)
                    .put_u64(a.keyed_state)
                    .put_u64(a.sawtooth_window);
                w.put_seq(a.groups.iter(), |w, group| {
                    w.put_seq(group.iter(), |w, op| {
                        w.put_u64(op.0 as u64);
                    });
                });
                w.put_seq(a.gates.iter(), |w, g| {
                    w.put_u64(g.op.0 as u64)
                        .put_u64(g.cfg.budget_bytes)
                        .put_u64(g.cfg.expected_producers as u64)
                        .put_u64(g.cfg.retry_after_ms);
                });
            }
            WireMsg::Checkpoint(e) => {
                w.put_u64(TAG_CHECKPOINT).put_u64(e.0);
            }
            WireMsg::Rollback => {
                w.put_u64(TAG_ROLLBACK);
            }
            WireMsg::Shutdown => {
                w.put_u64(TAG_SHUTDOWN);
            }
            WireMsg::StreamHello {
                generation,
                from,
                to,
            } => {
                w.put_u64(TAG_STREAM_HELLO)
                    .put_u64(*generation)
                    .put_u64(from.0 as u64)
                    .put_u64(to.0 as u64);
            }
            WireMsg::TupleBatch(tuples) => return encode_tuple_batch(tuples),
            WireMsg::Token(e) => {
                w.put_u64(TAG_TOKEN).put_u64(e.0);
            }
            WireMsg::Eos => {
                w.put_u64(TAG_EOS);
            }
            WireMsg::CkptDone {
                generation,
                epoch,
                op,
                sample,
            } => {
                w.put_u64(TAG_CKPT_DONE)
                    .put_u64(*generation)
                    .put_u64(epoch.0)
                    .put_u64(op.0 as u64);
                match sample {
                    Some(s) => put_sample(w.put_u64(1), s),
                    None => {
                        w.put_u64(0);
                    }
                }
            }
            WireMsg::HeartbeatHello { name } => {
                w.put_u64(TAG_HEARTBEAT_HELLO).put_str(name);
            }
            WireMsg::WorkerError { generation, detail } => {
                w.put_u64(TAG_WORKER_ERROR)
                    .put_u64(*generation)
                    .put_str(detail);
            }
        }
        w.finish()
    }

    /// Decodes one frame payload.
    pub fn decode(buf: &[u8]) -> Result<WireMsg> {
        let mut r = SnapshotReader::new(buf);
        let tag = r.get_u64()?;
        let msg = match tag {
            TAG_REGISTER => WireMsg::Register {
                name: r.get_str()?,
                data_addr: r.get_str()?,
            },
            TAG_HEARTBEAT => WireMsg::Heartbeat {
                generation: r.get_u64()?,
                gauges: BackpressureGauges {
                    queued_tuples: r.get_u64()?,
                    open_windows: r.get_u64()?,
                    window_tuples: r.get_u64()?,
                },
                ops: r.get_seq(|r| Ok((get_op(r)?, get_sample(r)?)))?,
                gates: r.get_seq(|r| {
                    Ok((
                        get_op(r)?,
                        GateSample {
                            accepted_batches: r.get_u64()?,
                            shed_batches: r.get_u64()?,
                            accepted_events: r.get_u64()?,
                            emitted_tuples: r.get_u64()?,
                            wal_bytes: r.get_u64()?,
                            ack_p50_us: r.get_u64()?,
                            ack_p99_us: r.get_u64()?,
                        },
                    ))
                })?,
            },
            TAG_SINK_DONE => WireMsg::SinkDone {
                generation: r.get_u64()?,
                op: get_op(&mut r)?,
                snapshot: r.get_bytes()?,
            },
            TAG_ASSIGN => {
                let generation = r.get_u64()?;
                let has_restore = r.get_u64()? != 0;
                let raw_epoch = r.get_u64()?;
                let restore_epoch = has_restore.then_some(EpochId(raw_epoch));
                let n_ops = r.get_u64()? as u32;
                let edges = r.get_seq(|r| Ok((get_op(r)?, get_op(r)?)))?;
                let placement = r.get_seq(|r| {
                    Ok(OpPlacement {
                        op: get_op(r)?,
                        worker: r.get_str()?,
                        data_addr: r.get_str()?,
                    })
                })?;
                let source_limit = r.get_u64()?;
                let source_delay_us = r.get_u64()?;
                let keyed_state = r.get_u64()?;
                let sawtooth_window = r.get_u64()?;
                let groups = r.get_seq(|r| r.get_seq(get_op))?;
                let gates = r.get_seq(|r| {
                    Ok(GateSpec {
                        op: get_op(r)?,
                        cfg: GateConfig {
                            budget_bytes: r.get_u64()?,
                            expected_producers: u32::try_from(r.get_u64()?).map_err(|_| {
                                Error::Wire("expected_producers out of range".into())
                            })?,
                            retry_after_ms: r.get_u64()?,
                        },
                    })
                })?;
                WireMsg::Assign(Assignment {
                    generation,
                    restore_epoch,
                    n_ops,
                    edges,
                    placement,
                    source_limit,
                    source_delay_us,
                    keyed_state,
                    sawtooth_window,
                    groups,
                    gates,
                })
            }
            TAG_CHECKPOINT => WireMsg::Checkpoint(EpochId(r.get_u64()?)),
            TAG_ROLLBACK => WireMsg::Rollback,
            TAG_SHUTDOWN => WireMsg::Shutdown,
            TAG_STREAM_HELLO => WireMsg::StreamHello {
                generation: r.get_u64()?,
                from: get_op(&mut r)?,
                to: get_op(&mut r)?,
            },
            TAG_TUPLE_BATCH => WireMsg::TupleBatch(r.get_batch()?),
            TAG_TOKEN => WireMsg::Token(EpochId(r.get_u64()?)),
            TAG_EOS => WireMsg::Eos,
            TAG_CKPT_DONE => WireMsg::CkptDone {
                generation: r.get_u64()?,
                epoch: EpochId(r.get_u64()?),
                op: get_op(&mut r)?,
                sample: match r.get_u64()? {
                    0 => None,
                    1 => Some(get_sample(&mut r)?),
                    n => return Err(Error::Wire(format!("CkptDone sample flag {n}"))),
                },
            },
            TAG_HEARTBEAT_HELLO => WireMsg::HeartbeatHello { name: r.get_str()? },
            TAG_WORKER_ERROR => WireMsg::WorkerError {
                generation: r.get_u64()?,
                detail: r.get_str()?,
            },
            other => {
                return Err(Error::Wire(format!("unknown wire message tag {other}")));
            }
        };
        if !r.is_exhausted() {
            return Err(Error::Wire("trailing bytes after wire message".into()));
        }
        Ok(msg)
    }
}

/// The frame payload of [`WireMsg::TupleBatch`] over borrowed tuples —
/// what a data edge sends, with no owned copy of the run.
pub(crate) fn encode_tuple_batch(tuples: &[Tuple]) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.put_u64(TAG_TUPLE_BATCH).put_batch(tuples);
    w.finish()
}

fn put_sample(w: &mut SnapshotWriter, s: &OperatorSample) {
    w.put_u64(s.tuples_in)
        .put_u64(s.tuples_out)
        .put_u64(s.bytes_out)
        .put_u64(s.state_bytes)
        .put_u64(s.ckpt_epoch)
        .put_u64(s.ckpt_bytes)
        .put_u64(s.ckpt_is_delta as u64)
        .put_u64(s.full_bytes_total)
        .put_u64(s.delta_bytes_total)
        .put_u64(s.align_wait_us)
        .put_u64(s.serialize_us)
        .put_u64(s.persist_us)
        .put_u64(s.capture_us)
        .put_u64(s.cow_pages_copied)
        .put_u64(s.file_bytes)
        .put_u64(s.file_is_delta as u64);
}

fn get_sample(r: &mut SnapshotReader<'_>) -> Result<OperatorSample> {
    Ok(OperatorSample {
        tuples_in: r.get_u64()?,
        tuples_out: r.get_u64()?,
        bytes_out: r.get_u64()?,
        state_bytes: r.get_u64()?,
        ckpt_epoch: r.get_u64()?,
        ckpt_bytes: r.get_u64()?,
        ckpt_is_delta: r.get_u64()? != 0,
        full_bytes_total: r.get_u64()?,
        delta_bytes_total: r.get_u64()?,
        align_wait_us: r.get_u64()?,
        serialize_us: r.get_u64()?,
        persist_us: r.get_u64()?,
        capture_us: r.get_u64()?,
        cow_pages_copied: r.get_u64()?,
        file_bytes: r.get_u64()?,
        file_is_delta: r.get_u64()? != 0,
    })
}

fn get_op(r: &mut SnapshotReader<'_>) -> Result<OperatorId> {
    let raw = r.get_u64()?;
    u32::try_from(raw)
        .map(OperatorId)
        .map_err(|_| Error::Wire(format!("operator id {raw} out of range")))
}

/// Writes one message as one frame.
pub fn send_msg(w: &mut impl Write, msg: &WireMsg) -> Result<()> {
    write_frame(w, &msg.encode())
}

#[cfg(test)]
/// Reads one message, blocking: how tests play a worker's controller.
/// `Ok(None)` is a clean end-of-stream (EOF at a frame boundary); torn
/// frames and decode failures are [`Error::Wire`].
pub(crate) fn recv_msg(r: &mut impl std::io::Read) -> Result<Option<WireMsg>> {
    match ms_core::codec::read_frame(r)? {
        None => Ok(None),
        Some(payload) => WireMsg::decode(&payload).map(Some),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_core::time::SimTime;
    use ms_core::value::Value;

    fn sample_assignment() -> Assignment {
        Assignment {
            generation: 3,
            restore_epoch: Some(EpochId(7)),
            n_ops: 3,
            edges: vec![
                (OperatorId(0), OperatorId(1)),
                (OperatorId(1), OperatorId(2)),
            ],
            placement: vec![
                OpPlacement {
                    op: OperatorId(0),
                    worker: "wa".into(),
                    data_addr: "127.0.0.1:4000".into(),
                },
                OpPlacement {
                    op: OperatorId(1),
                    worker: "wb".into(),
                    data_addr: "127.0.0.1:4001".into(),
                },
                OpPlacement {
                    op: OperatorId(2),
                    worker: "wa".into(),
                    data_addr: "127.0.0.1:4000".into(),
                },
            ],
            source_limit: 1000,
            source_delay_us: 250,
            keyed_state: 4096,
            sawtooth_window: 512,
            groups: vec![
                vec![OperatorId(0)],
                vec![OperatorId(1)],
                vec![OperatorId(2)],
            ],
            gates: vec![GateSpec {
                op: OperatorId(0),
                cfg: GateConfig {
                    budget_bytes: 65536,
                    expected_producers: 4,
                    retry_after_ms: 25,
                },
            }],
        }
    }

    fn sharded_assignment() -> Assignment {
        // A sharded chain: one logical interior expanded to two
        // physical instances (ops 1 and 2), sink pushed to op 3.
        Assignment {
            generation: 9,
            restore_epoch: None,
            n_ops: 4,
            edges: vec![
                (OperatorId(0), OperatorId(1)),
                (OperatorId(0), OperatorId(2)),
                (OperatorId(1), OperatorId(3)),
                (OperatorId(2), OperatorId(3)),
            ],
            placement: vec![
                OpPlacement {
                    op: OperatorId(0),
                    worker: "wa".into(),
                    data_addr: "127.0.0.1:4000".into(),
                },
                OpPlacement {
                    op: OperatorId(1),
                    worker: "wb".into(),
                    data_addr: "127.0.0.1:4001".into(),
                },
                OpPlacement {
                    op: OperatorId(2),
                    worker: "wa".into(),
                    data_addr: "127.0.0.1:4000".into(),
                },
                OpPlacement {
                    op: OperatorId(3),
                    worker: "wb".into(),
                    data_addr: "127.0.0.1:4001".into(),
                },
            ],
            source_limit: 100,
            source_delay_us: 0,
            keyed_state: 64,
            sawtooth_window: 0,
            groups: vec![
                vec![OperatorId(0)],
                vec![OperatorId(1), OperatorId(2)],
                vec![OperatorId(3)],
            ],
            gates: Vec::new(),
        }
    }

    fn busy_sample() -> OperatorSample {
        OperatorSample {
            tuples_in: 0,
            tuples_out: 900,
            bytes_out: 7200,
            state_bytes: 16,
            ckpt_epoch: 4,
            ckpt_bytes: 16,
            ckpt_is_delta: true,
            full_bytes_total: 64,
            delta_bytes_total: 0,
            align_wait_us: 0,
            capture_us: 2,
            serialize_us: 3,
            persist_us: 120,
            cow_pages_copied: 5,
            file_bytes: 40,
            file_is_delta: true,
        }
    }

    fn all_messages() -> Vec<WireMsg> {
        vec![
            WireMsg::Register {
                name: "wa".into(),
                data_addr: "127.0.0.1:4000".into(),
            },
            WireMsg::Heartbeat {
                generation: 5,
                gauges: BackpressureGauges {
                    queued_tuples: 17,
                    open_windows: 2,
                    window_tuples: 140,
                },
                ops: vec![
                    (OperatorId(0), busy_sample()),
                    (OperatorId(2), OperatorSample::default()),
                ],
                gates: vec![
                    (
                        OperatorId(0),
                        GateSample {
                            accepted_batches: 40,
                            shed_batches: 3,
                            accepted_events: 640,
                            emitted_tuples: 200,
                            wal_bytes: 12800,
                            ack_p50_us: 90,
                            ack_p99_us: 410,
                        },
                    ),
                    (OperatorId(4), GateSample::default()),
                ],
            },
            WireMsg::Heartbeat {
                generation: 0,
                gauges: BackpressureGauges::default(),
                ops: Vec::new(),
                gates: Vec::new(),
            },
            WireMsg::SinkDone {
                generation: 2,
                op: OperatorId(4),
                snapshot: vec![1, 2, 3, 4],
            },
            WireMsg::Assign(sample_assignment()),
            WireMsg::Assign(Assignment {
                restore_epoch: None,
                ..sample_assignment()
            }),
            WireMsg::Checkpoint(EpochId(12)),
            WireMsg::Rollback,
            WireMsg::Shutdown,
            WireMsg::StreamHello {
                generation: 1,
                from: OperatorId(0),
                to: OperatorId(1),
            },
            WireMsg::TupleBatch(vec![]),
            WireMsg::TupleBatch(
                (0..3)
                    .map(|i| {
                        Tuple::new(
                            OperatorId(1),
                            100 + i,
                            SimTime::from_micros(10 + i),
                            vec![Value::Int(i as i64), Value::Str("batched".into())],
                        )
                    })
                    .collect(),
            ),
            WireMsg::Token(EpochId(3)),
            WireMsg::Eos,
            WireMsg::CkptDone {
                generation: 2,
                epoch: EpochId(5),
                op: OperatorId(3),
                sample: Some(busy_sample()),
            },
            WireMsg::CkptDone {
                generation: 2,
                epoch: EpochId(5),
                op: OperatorId(4),
                sample: None,
            },
            WireMsg::HeartbeatHello { name: "wb".into() },
            WireMsg::WorkerError {
                generation: 4,
                detail: "storage error: disk full".into(),
            },
        ]
    }

    #[test]
    fn every_message_roundtrips() {
        for msg in all_messages() {
            let decoded = WireMsg::decode(&msg.encode()).unwrap();
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn stream_of_messages_roundtrips_over_frames() {
        let msgs = all_messages();
        let mut stream = Vec::new();
        for m in &msgs {
            send_msg(&mut stream, m).unwrap();
        }
        let mut cursor = std::io::Cursor::new(stream);
        for m in &msgs {
            assert_eq!(recv_msg(&mut cursor).unwrap().as_ref(), Some(m));
        }
        assert_eq!(recv_msg(&mut cursor).unwrap(), None);
    }

    #[test]
    fn unknown_tag_and_trailing_bytes_error() {
        let mut w = SnapshotWriter::new();
        w.put_u64(999);
        assert!(WireMsg::decode(&w.finish()).is_err());
        // Tag 9, once the single-tuple data frame, is retired: a peer
        // still speaking it is a protocol error, not a silent reroute.
        let t = Tuple::new(OperatorId(1), 42, SimTime::ZERO, vec![Value::Int(5)]);
        let mut w = SnapshotWriter::new();
        w.put_u64(9).put_tuple(&t);
        assert!(WireMsg::decode(&w.finish()).is_err());
        // So are tags 15 and 16, once samples sent as messages of their
        // own: a generation and an empty sample list no longer decode.
        for tag in [15, 16] {
            let mut w = SnapshotWriter::new();
            w.put_u64(tag).put_u64(5).put_u64(0);
            assert!(WireMsg::decode(&w.finish()).is_err(), "tag {tag}");
        }
        // An ack's sample flag is 0 or 1, nothing else.
        let mut w = SnapshotWriter::new();
        w.put_u64(TAG_CKPT_DONE)
            .put_u64(2)
            .put_u64(5)
            .put_u64(3)
            .put_u64(2);
        assert!(WireMsg::decode(&w.finish()).is_err());
        let mut extra = WireMsg::Rollback.encode();
        extra.extend_from_slice(&WireMsg::Eos.encode());
        assert!(WireMsg::decode(&extra).is_err());
    }

    #[test]
    fn assignment_network_rebuilds_identical_ports() {
        let a = sample_assignment();
        let qn = a.network().unwrap();
        assert_eq!(qn.len(), 3);
        assert_eq!(qn.edges().collect::<Vec<_>>(), a.edges);
        assert_eq!(a.worker_of(OperatorId(1)), Some("wb"));
        assert_eq!(a.addr_of(OperatorId(2)), Some("127.0.0.1:4000"));
        assert_eq!(a.ops_on("wa"), vec![OperatorId(0), OperatorId(2)]);
    }

    #[test]
    fn sharded_assignment_roundtrips_with_groups() {
        let a = sharded_assignment();
        let msg = WireMsg::Assign(a.clone());
        let decoded = WireMsg::decode(&msg.encode()).unwrap();
        let WireMsg::Assign(b) = decoded else {
            panic!("decoded to a different variant");
        };
        assert_eq!(b, a);
        assert_eq!(b.groups[1], vec![OperatorId(1), OperatorId(2)]);
        // The physical network rebuilds with the sharded fan-in: both
        // shard instances feed the sink on distinct input ports.
        let qn = b.network().unwrap();
        assert_eq!(qn.len(), 4);
        assert_eq!(qn.upstream(OperatorId(3)), &[OperatorId(1), OperatorId(2)]);
        assert_eq!(
            qn.downstream(OperatorId(0)),
            &[OperatorId(1), OperatorId(2)]
        );
    }
}
