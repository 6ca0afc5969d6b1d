//! The discrete-event DSPS engine.
//!
//! One [`Engine`] owns a full simulated deployment: the query network
//! and its operators, the HAU runtimes, the cluster (nodes/racks), the
//! network and storage cost models, the controller, and the
//! fault-tolerance scheme under test. Running it to completion yields
//! a [`RunReport`] with every quantity the paper's evaluation section
//! measures.

use std::collections::HashMap;

use ms_core::aware::{profile, AwareAction, AwareController};
use ms_core::codec::{SnapshotReader, SnapshotWriter};
use ms_core::config::SchemeKind;
use ms_core::graph::{HauAssignment, HauGraph, QueryNetwork};
use ms_core::ids::{EpochId, HauId, NodeId, OperatorId, PortId};
use ms_core::metrics::{Breakdown, RunMetrics, TimeSeries};
use ms_core::time::{SimDuration, SimTime};
use ms_core::token::{Token, TokenKind};
use ms_core::tuple::{StreamItem, Tuple};
use ms_sim::cluster::{Cluster, ClusterConfig, Placement};
use ms_sim::net::{Network, SendOutcome};
use ms_sim::storage::{
    BwDevice, CheckpointStore, HauCheckpoint, InputPreservationBuffer, SourceLog, SpillAction,
};
use ms_sim::{DetRng, EventQueue, World};

use crate::app::AppSpec;
use crate::config::{EngineConfig, FailTarget};
use crate::event::Event;
use crate::hau::{EmitCtx, HauRt, InputChan};
use crate::report::{rec_phase, CheckpointRecord, IndividualCheckpoint, RecoveryRecord, RunReport};

/// The simulated deployment.
pub struct Engine<A: AppSpec> {
    app: A,
    cfg: EngineConfig,
    qn: QueryNetwork,
    assign: HauAssignment,
    graph: HauGraph,
    cluster: Cluster,
    placement: Placement,
    net: Network,
    /// Shared-storage checkpoint write channel.
    ckpt_write_dev: BwDevice,
    /// Shared-storage read channel (recovery).
    ckpt_read_dev: BwDevice,
    /// Per-node local disks (baseline spills).
    local_disks: Vec<BwDevice>,
    store: CheckpointStore,
    source_logs: HashMap<HauId, SourceLog>,
    haus: Vec<HauRt>,
    /// Snapshots serialized but not yet landed on stable storage.
    pending_writes: HashMap<(HauId, EpochId), HauCheckpoint>,
    /// Recovery-in-progress flag.
    down: bool,
    /// Event generation (stale-event guard across recoveries).
    gen: u32,
    /// Global backpressure counter: logical bytes of data tuples
    /// queued at HAU inputs.
    inflight: u64,
    next_epoch: EpochId,
    /// Application-aware controller (execution phase).
    aware: Option<AwareController>,
    /// Measurement window.
    window_start: SimTime,
    window_end: SimTime,
    measuring: bool,
    // ---- measured output ----
    metrics: RunMetrics,
    ckpt_records: Vec<CheckpointRecord>,
    recoveries: Vec<RecoveryRecord>,
    state_trace: TimeSeries,
    hau_traces: Vec<TimeSeries>,
    source_tuples: u64,
    preserved_bytes: u64,
    /// Pending failure bookkeeping.
    failed_at: SimTime,
    rng: DetRng,
}

impl<A: AppSpec> Engine<A> {
    /// Builds the deployment: one HAU per `app.hau_assignment`, one
    /// compute node per HAU plus one storage/controller node (node 0),
    /// mirroring the paper's 55+1 EC2 setup.
    pub fn new(app: A, cfg: EngineConfig) -> ms_core::Result<Engine<A>> {
        let qn = app.query_network();
        qn.validate()?;
        let assign = app.hau_assignment(&qn);
        let graph = HauGraph::derive(&qn, &assign)?;
        let n = graph.len();

        let cluster = Cluster::new(ClusterConfig {
            nodes: n + 1,
            ..ClusterConfig::default()
        });
        let placement = Placement::round_robin(n, &cluster, &[NodeId(0)])?;
        let net = Network::new(cfg.net, n + 1);

        let rng = DetRng::new(cfg.seed);
        let mut haus = Vec::with_capacity(n);
        for h in graph.haus() {
            let mut hau_rng = rng.fork_idx("hau", h.0 as u64);
            let op_ids: Vec<OperatorId> = assign.ops_of(h).to_vec();
            let ops = op_ids
                .iter()
                .map(|&op| Some(app.build_operator(op, &mut hau_rng)))
                .collect();
            let n_in = graph.upstream(h).len();
            let n_out = graph.downstream(h).len();
            haus.push(HauRt {
                id: h,
                alive: true,
                ops,
                op_ids,
                inputs: (0..n_in).map(|_| InputChan::default()).collect(),
                rr: 0,
                busy_until: SimTime::ZERO,
                process_scheduled: false,
                suspended: false,
                async_active: false,
                out_retain: vec![Vec::new(); n_out],
                retaining: false,
                preserve: (0..n_out)
                    .map(|_| InputPreservationBuffer::with_default_cap())
                    .collect(),
                next_seq: HashMap::new(),
                ck: Default::default(),
                baseline_epoch: EpochId::INITIAL,
                pending_timers: Vec::new(),
                backlog_stash: Vec::new(),
                rng: hau_rng,
            });
        }

        let expected = if cfg.scheme.is_meteor_shower() { n } else { 0 };
        let source_logs = graph
            .sources()
            .iter()
            .map(|&s| (s, SourceLog::new()))
            .collect();

        Ok(Engine {
            app,
            qn,
            assign,
            cluster,
            placement,
            net,
            ckpt_write_dev: BwDevice::new(cfg.storage.shared_write_bw, cfg.storage.access_overhead),
            ckpt_read_dev: BwDevice::new(cfg.storage.shared_read_bw, cfg.storage.access_overhead),
            local_disks: (0..n + 1)
                .map(|_| BwDevice::new(cfg.storage.local_disk_bw, cfg.storage.access_overhead))
                .collect(),
            store: CheckpointStore::new(expected),
            source_logs,
            haus,
            pending_writes: HashMap::new(),
            down: false,
            gen: 0,
            inflight: 0,
            next_epoch: EpochId::INITIAL,
            aware: None,
            window_start: SimTime::ZERO,
            window_end: SimTime::ZERO,
            measuring: false,
            metrics: RunMetrics::new(),
            ckpt_records: Vec::new(),
            recoveries: Vec::new(),
            state_trace: TimeSeries::new(),
            hau_traces: vec![TimeSeries::new(); graph.len()],
            source_tuples: 0,
            preserved_bytes: 0,
            failed_at: SimTime::ZERO,
            rng,
            graph,
            cfg,
        })
    }

    /// The HAU graph (useful for examples/inspection).
    pub fn hau_graph(&self) -> &HauGraph {
        &self.graph
    }

    /// Runs warmup + measurement and returns the report.
    pub fn run(mut self) -> RunReport {
        let mut queue: EventQueue<Event> = EventQueue::new();
        self.bootstrap(&mut queue);
        let end = SimTime::ZERO + self.cfg.warmup + self.cfg.measure;
        ms_sim::run(&mut self, &mut queue, end);
        self.finish()
    }

    fn bootstrap(&mut self, q: &mut EventQueue<Event>) {
        // Operator timers.
        for i in 0..self.haus.len() {
            let intervals: Vec<(usize, SimDuration, bool)> = self.haus[i]
                .ops
                .iter()
                .enumerate()
                .filter_map(|(oi, op)| {
                    op.as_ref()
                        .and_then(|o| o.timer_interval().map(|iv| (oi, iv, o.timer_aligned())))
                })
                .collect();
            for (op_idx, interval, aligned) in intervals {
                // Aligned timers (windowed kernels) first fire exactly
                // one interval in; source timers get a deterministic
                // random phase so 55 of them don't tick in lockstep.
                let phase = if aligned {
                    interval
                } else {
                    SimDuration::from_micros(
                        self.haus[i].rng.range_u64(0, interval.as_micros().max(1)),
                    )
                };
                q.schedule(
                    SimTime::ZERO + phase,
                    Event::OpTimer {
                        hau: HauId(i as u32),
                        op_idx,
                        gen: self.gen,
                    },
                );
            }
        }
        // State sampling.
        q.schedule(SimTime::ZERO + self.cfg.sample_interval, Event::StateSample);
        // Measurement window.
        q.schedule(SimTime::ZERO + self.cfg.warmup, Event::EndWarmup);
        // Checkpoint cadence.
        if !self.cfg.forced_checkpoints.is_empty() {
            for &t in &self.cfg.forced_checkpoints {
                match self.cfg.scheme {
                    SchemeKind::Baseline => {
                        for i in 0..self.haus.len() {
                            q.schedule(
                                t,
                                Event::BaselineCkptDue {
                                    hau: HauId(i as u32),
                                    gen: self.gen,
                                },
                            );
                        }
                    }
                    _ => q.schedule(t, Event::PeriodTick),
                }
            }
        } else if !self.cfg.ckpt.disabled() {
            let period = self.cfg.ckpt.period;
            match self.cfg.scheme {
                SchemeKind::Baseline => {
                    for i in 0..self.haus.len() {
                        let phase = if self.cfg.ckpt.randomize_phase {
                            SimDuration::from_micros(
                                self.haus[i].rng.range_u64(0, period.as_micros().max(1)),
                            )
                        } else {
                            SimDuration::ZERO
                        };
                        q.schedule(
                            SimTime::ZERO + self.cfg.warmup + phase,
                            Event::BaselineCkptDue {
                                hau: HauId(i as u32),
                                gen: self.gen,
                            },
                        );
                    }
                }
                SchemeKind::MsSrcApAa => {
                    // aa drives its own cadence from StateSample via the
                    // AwareController built at EndWarmup.
                }
                _ => {
                    // First checkpoint lands half a period into the
                    // window so N fit inside it.
                    q.schedule(
                        SimTime::ZERO + self.cfg.warmup + period / 2,
                        Event::PeriodTick,
                    );
                }
            }
        }
        // Failure plan: only the target node list needs owning (the
        // event stores it); the plan itself stays in the config.
        if let Some(plan) = &self.cfg.failure {
            let nodes = match &plan.target {
                FailTarget::AllComputeNodes => {
                    (1..self.cluster.len()).map(|i| NodeId(i as u32)).collect()
                }
                FailTarget::Nodes(ns) => ns.clone(),
            };
            q.schedule(plan.at, Event::InjectFailure { nodes });
        }
    }

    fn finish(self) -> RunReport {
        let mut final_snapshots = Vec::new();
        for hau in &self.haus {
            for (&op_id, op) in hau.op_ids.iter().zip(&hau.ops) {
                if let Some(op) = op {
                    final_snapshots.push((op_id, op.snapshot()));
                }
            }
        }
        RunReport {
            scheme: self.cfg.scheme,
            app: self.app.name().to_string(),
            metrics: self.metrics,
            window: self.cfg.measure,
            checkpoints: self.ckpt_records,
            recoveries: self.recoveries,
            state_trace: self.state_trace,
            hau_state_traces: self
                .hau_traces
                .into_iter()
                .enumerate()
                .map(|(i, t)| (HauId(i as u32), t))
                .collect(),
            source_tuples: self.source_tuples,
            preserved_bytes: self.preserved_bytes,
            final_snapshots,
        }
    }

    // ---------------- helpers ----------------

    fn node_of(&self, h: HauId) -> NodeId {
        self.placement.node_of(h)
    }

    fn is_source_hau(&self, h: HauId) -> bool {
        self.graph.sources().contains(&h)
    }

    fn schedule_process(&mut self, q: &mut EventQueue<Event>, i: usize) {
        let now = q.now();
        let h = &mut self.haus[i];
        if !h.alive || h.suspended || h.process_scheduled || !h.has_work() {
            return;
        }
        h.process_scheduled = true;
        let at = now.max(h.busy_until);
        q.schedule(
            at,
            Event::ProcessNext {
                hau: HauId(i as u32),
                gen: self.gen,
            },
        );
    }

    /// Sends one stream item on the HAU-level channel `from → to`,
    /// charging the network; schedules the delivery event.
    fn send_item(
        &mut self,
        q: &mut EventQueue<Event>,
        from: HauId,
        to: HauId,
        item: StreamItem,
        at: SimTime,
    ) {
        let bytes = item.wire_bytes();
        let (nf, nt) = (self.node_of(from), self.node_of(to));
        match self.net.send(at, nf, nt, bytes) {
            SendOutcome::Delivered(t) => {
                q.schedule(
                    t,
                    Event::Deliver {
                        from,
                        to,
                        item,
                        gen: self.gen,
                    },
                );
            }
            SendOutcome::Unreachable => {
                // Fail-stop: the message vanishes; the controller's
                // detection loop handles the rest.
            }
        }
    }

    /// Runs one operator dispatch (a tuple or a timer tick), walking
    /// intra-HAU operator chains inline. Returns the total service
    /// time, the cross-HAU emissions `(output port, tuple)`, and the
    /// number of sink completions.
    fn dispatch(
        &mut self,
        i: usize,
        op_idx: usize,
        kind: DispatchKind,
        now: SimTime,
    ) -> (SimDuration, Vec<(usize, Tuple)>, u64) {
        let mut service = SimDuration::ZERO;
        let mut outs: Vec<(usize, Tuple)> = Vec::new();
        let mut sink_hits = 0u64;
        // Work stack of (op_idx within HAU, input port, tuple).
        let mut stack: Vec<(usize, PortId, Option<Tuple>)> = vec![match kind {
            DispatchKind::Tuple(port, t) => (op_idx, port, Some(t)),
            DispatchKind::Timer => (op_idx, PortId(0), None),
        }];

        while let Some((oi, port, tuple)) = stack.pop() {
            let op_id = self.haus[i].op_ids[oi];
            let mut op = self.haus[i].ops[oi].take().expect("operator present");
            let fanout = self.qn.downstream(op_id).len();
            let is_sink = fanout == 0;
            let source_time = tuple.as_ref().map(|t| t.source_time).unwrap_or(now);

            let mut ctx = EmitCtx {
                now,
                op: op_id,
                fanout,
                emissions: Vec::new(),
                rng: &mut self.haus[i].rng,
            };
            match tuple {
                Some(t) => {
                    service += op.service_time(&t);
                    op.on_tuple(port, t, &mut ctx);
                    if is_sink {
                        sink_hits += 1;
                    }
                }
                None => {
                    service += op.timer_cost();
                    op.on_timer(&mut ctx);
                }
            }
            let emissions = ctx.emissions;
            self.haus[i].ops[oi] = Some(op);

            for (out_port, fields) in emissions {
                let Some(&target_op) = self.qn.downstream(op_id).get(out_port.index()) else {
                    continue; // emission on a dangling port: dropped
                };
                let seq = {
                    let e = self.haus[i].next_seq.entry(op_id).or_insert(0);
                    let s = *e;
                    *e += 1;
                    s
                };
                let t = Tuple::new(op_id, seq, source_time, fields);
                let target_hau = self.assign.hau_of(target_op);
                if target_hau == HauId(i as u32) {
                    // Intra-SPE data pass: free, processed inline.
                    let target_idx = self.haus[i]
                        .op_ids
                        .iter()
                        .position(|&o| o == target_op)
                        .expect("operator in HAU");
                    let in_port = self.qn.input_port(op_id, target_op).expect("edge exists");
                    stack.push((target_idx, in_port, Some(t)));
                } else {
                    let out_idx = self
                        .graph
                        .downstream(HauId(i as u32))
                        .iter()
                        .position(|&d| d == target_hau)
                        .expect("HAU edge exists");
                    outs.push((out_idx, t));
                }
            }
        }
        (service, outs, sink_hits)
    }

    /// Applies preservation costs and sends cross-HAU emissions.
    /// Returns the instant the HAU's worker becomes free.
    fn emit_outputs(
        &mut self,
        q: &mut EventQueue<Event>,
        i: usize,
        outs: Vec<(usize, Tuple)>,
        mut ready: SimTime,
    ) -> SimTime {
        let h_id = HauId(i as u32);
        let baseline = self.cfg.scheme == SchemeKind::Baseline;
        let is_src = self.is_source_hau(h_id);
        let node = self.node_of(h_id);
        for (out_idx, t) in outs {
            let wire = t.wire_bytes();
            if baseline {
                // Input preservation: copy into the buffer (sources
                // pay the lighter raw-append overhead; intermediate
                // hops pay full tuple serialization), dump to local
                // disk when full (stall).
                let (fixed, bw) = if is_src {
                    (self.cfg.append_overhead, self.cfg.preserve_cpu_bw)
                } else {
                    (self.cfg.preserve_overhead, self.cfg.preserve_cpu_bw)
                };
                ready += fixed + SimDuration::from_secs_f64(wire as f64 / bw as f64);
                self.preserved_bytes += wire;
                match self.haus[i].preserve[out_idx].push(t.clone()) {
                    SpillAction::ToDisk { bytes } => {
                        ready = self.local_disks[node.index()].access_done(ready, bytes);
                    }
                    SpillAction::None => {}
                }
            } else if is_src {
                // Source preservation: save to stable storage *before*
                // sending out (pipelined streaming append, charged
                // per-source).
                self.preserved_bytes += wire;
                ready += self.cfg.append_overhead
                    + SimDuration::from_secs_f64(wire as f64 / self.cfg.source_log_bw as f64);
                if let Some(log) = self.source_logs.get_mut(&h_id) {
                    log.append(t.clone());
                }
            }
            if self.haus[i].retaining {
                self.haus[i].out_retain[out_idx].push(t.clone());
            }
            let to = self.graph.downstream(h_id)[out_idx];
            self.send_item(q, h_id, to, StreamItem::Data(t), ready);
        }
        ready
    }

    // ---------------- event handlers ----------------

    fn on_deliver(&mut self, q: &mut EventQueue<Event>, from: HauId, to: HauId, item: StreamItem) {
        let i = to.index();
        if !self.haus[i].alive {
            return;
        }
        let Some(in_port) = self.graph.input_port(from, to) else {
            return;
        };
        let chan = &mut self.haus[i].inputs[in_port.index()];
        match item {
            StreamItem::Data(t) => {
                if chan.is_duplicate(&t) {
                    return; // recovery resend already processed
                }
                self.inflight += t.wire_bytes();
                chan.bytes += t.wire_bytes();
                chan.queue.push_back(StreamItem::Data(t));
            }
            StreamItem::Token(tok) => match tok.kind {
                // 1-hop tokens jump ahead of the queued backlog
                // ("placed at the head of the queue", Fig. 8); the
                // jumped tuples are captured as channel state when the
                // token is processed.
                TokenKind::OneHop => chan.queue.push_front(StreamItem::Token(tok)),
                TokenKind::Propagating => chan.queue.push_back(StreamItem::Token(tok)),
            },
        }
        self.schedule_process(q, i);
    }

    fn on_process_next(&mut self, q: &mut EventQueue<Event>, i: usize) {
        let now = q.now();
        {
            let h = &mut self.haus[i];
            h.process_scheduled = false;
            if !h.alive || h.suspended {
                return;
            }
            if h.busy_until > now {
                // Re-arm at the busy horizon.
                h.process_scheduled = true;
                let at = h.busy_until;
                q.schedule(
                    at,
                    Event::ProcessNext {
                        hau: HauId(i as u32),
                        gen: self.gen,
                    },
                );
                return;
            }
        }
        // Due timers run first: a saturated HAU must still close its
        // windows (and a checkpointing source must emit its tokens'
        // surroundings in order).
        if let Some(op_idx) = {
            let h = &mut self.haus[i];
            if h.pending_timers.is_empty() {
                None
            } else {
                Some(h.pending_timers.remove(0))
            }
        } {
            self.run_timer(q, i, op_idx);
            self.schedule_process(q, i);
            return;
        }
        if self.outputs_blocked(i) {
            // A downstream buffer is full: stall until the receiver
            // drains (it wakes us) or the retry timer fires.
            let h = &mut self.haus[i];
            h.process_scheduled = true;
            q.schedule(
                now + SimDuration::from_millis(250),
                Event::ProcessNext {
                    hau: HauId(i as u32),
                    gen: self.gen,
                },
            );
            return;
        }
        let Some(input_idx) = self.haus[i].next_input() else {
            return;
        };
        let item = self.haus[i].inputs[input_idx]
            .queue
            .pop_front()
            .expect("non-empty input");
        match item {
            StreamItem::Token(tok) => {
                self.on_token(q, i, input_idx, tok);
                self.schedule_process(q, i);
            }
            StreamItem::Data(t) => {
                self.inflight = self.inflight.saturating_sub(t.wire_bytes());
                {
                    let chan = &mut self.haus[i].inputs[input_idx];
                    let was_over = chan.bytes >= self.cfg.channel_cap;
                    chan.bytes = chan.bytes.saturating_sub(t.wire_bytes());
                    let now_under = chan.bytes < self.cfg.channel_cap;
                    if was_over && now_under {
                        // The channel drained below its cap: wake the
                        // stalled upstream sender.
                        let up = self.graph.upstream(HauId(i as u32))[input_idx];
                        self.schedule_process(q, up.index());
                    }
                }
                self.haus[i].inputs[input_idx].advance(&t);
                let op_idx = self.op_for_input(i, input_idx);
                let port = self.port_for_input(i, input_idx, &t);
                let source_time = t.source_time;
                let (mut service, outs, sinks) =
                    self.dispatch(i, op_idx, DispatchKind::Tuple(port, t), now);
                if self.haus[i].async_active {
                    service = service.mul_f64(1.0 + self.cfg.cow_overhead);
                }
                let absorbed = outs.is_empty();
                let ready = self.emit_outputs(q, i, outs, now + service);
                self.haus[i].busy_until = ready;
                if self.measuring && ready < self.window_end {
                    self.metrics.record_processed();
                    // Terminal consumption: a sink processed it, or an
                    // absorbing operator (window pool) retired it.
                    // Observed at dispatch time (monotone across HAUs)
                    // with the latency measured to completion.
                    if sinks > 0 || absorbed {
                        self.metrics
                            .record_completion(now, ready.saturating_since(source_time));
                    }
                }
                self.schedule_process(q, i);
            }
        }
    }

    /// True if any of HAU `i`'s output channels is at its cap —
    /// bounded buffers force the sender to stall (hop-by-hop
    /// backpressure).
    fn outputs_blocked(&self, i: usize) -> bool {
        let h_id = HauId(i as u32);
        self.graph.downstream(h_id).iter().any(|&d| {
            if !self.haus[d.index()].alive {
                return false; // fail-stop: sends vanish, no blocking
            }
            self.graph
                .input_port(h_id, d)
                .map(|p| self.haus[d.index()].inputs[p.index()].bytes >= self.cfg.channel_cap)
                .unwrap_or(false)
        })
    }

    /// The operator index within HAU `i` that consumes input channel
    /// `input_idx`. With one operator per HAU this is always 0; with
    /// grouped HAUs, the operator that has the upstream producer among
    /// its `qn` upstreams.
    fn op_for_input(&self, i: usize, input_idx: usize) -> usize {
        if self.haus[i].ops.len() == 1 {
            return 0;
        }
        let up_hau = self.graph.upstream(HauId(i as u32))[input_idx];
        for (oi, &op) in self.haus[i].op_ids.iter().enumerate() {
            if self
                .qn
                .upstream(op)
                .iter()
                .any(|&u| self.assign.hau_of(u) == up_hau)
            {
                return oi;
            }
        }
        0
    }

    /// The operator-level input port for a tuple arriving on HAU input
    /// `input_idx`.
    fn port_for_input(&self, i: usize, input_idx: usize, t: &Tuple) -> PortId {
        let oi = self.op_for_input(i, input_idx);
        let op = self.haus[i].op_ids[oi];
        self.qn.input_port(t.producer, op).unwrap_or(PortId(0))
    }

    fn on_op_timer(&mut self, q: &mut EventQueue<Event>, i: usize, op_idx: usize) {
        let now = q.now();
        if !self.haus[i].alive {
            return;
        }
        if self.haus[i].suspended || self.haus[i].busy_until > now {
            // Busy or checkpointing: queue the tick to run at the next
            // processing boundary (sources do not emit during a
            // synchronous snapshot — that is the disruption Fig. 15
            // measures; saturated kernels still close their windows).
            if !self.haus[i].pending_timers.contains(&op_idx) {
                self.haus[i].pending_timers.push(op_idx);
            }
            self.schedule_process(q, i);
            return;
        }
        self.run_timer(q, i, op_idx);
    }

    /// Executes one operator timer tick and re-arms the timer.
    fn run_timer(&mut self, q: &mut EventQueue<Event>, i: usize, op_idx: usize) {
        let now = q.now();
        let Some(interval) = self.haus[i].ops[op_idx]
            .as_ref()
            .and_then(|o| o.timer_interval())
        else {
            return;
        };
        let is_source = self.qn.upstream(self.haus[i].op_ids[op_idx]).is_empty();
        if is_source && (self.inflight >= self.cfg.inflight_cap || self.outputs_blocked(i)) {
            // Backpressure: a downstream buffer is full (or the global
            // safety window is exhausted); try again next tick.
            q.schedule(
                now + interval,
                Event::OpTimer {
                    hau: HauId(i as u32),
                    op_idx,
                    gen: self.gen,
                },
            );
            return;
        }
        let (mut service, outs, _) = self.dispatch(i, op_idx, DispatchKind::Timer, now);
        if self.haus[i].async_active {
            service = service.mul_f64(1.0 + self.cfg.cow_overhead);
        }
        if is_source {
            self.source_tuples += outs.len() as u64;
        }
        let ready = self.emit_outputs(q, i, outs, now + service);
        self.haus[i].busy_until = ready;
        q.schedule(
            now + interval,
            Event::OpTimer {
                hau: HauId(i as u32),
                op_idx,
                gen: self.gen,
            },
        );
        self.schedule_process(q, i);
    }

    // ---------------- checkpoint protocol ----------------

    fn initiate_checkpoint(&mut self, q: &mut EventQueue<Event>) {
        if self.down {
            return;
        }
        let epoch = self.next_epoch.next();
        self.next_epoch = epoch;
        let now = q.now();
        self.ckpt_records.push(CheckpointRecord {
            epoch,
            initiated_at: now,
            completed_at: None,
            individuals: Vec::new(),
        });
        let latency = self.cfg.net.latency;
        match self.cfg.scheme {
            SchemeKind::Baseline => unreachable!("baseline has no application checkpoints"),
            SchemeKind::MsSrc => {
                // Tokens originate at the source HAUs.
                for &s in self.graph.sources() {
                    q.schedule(
                        now + latency,
                        Event::CommandArrive {
                            hau: s,
                            epoch,
                            gen: self.gen,
                        },
                    );
                }
            }
            SchemeKind::MsSrcAp | SchemeKind::MsSrcApAa => {
                // The controller sends the token command to every HAU
                // simultaneously (§III-B, Fig. 7).
                for h in self.graph.haus() {
                    q.schedule(
                        now + latency,
                        Event::CommandArrive {
                            hau: h,
                            epoch,
                            gen: self.gen,
                        },
                    );
                }
            }
        }
    }

    fn on_command(&mut self, q: &mut EventQueue<Event>, i: usize, epoch: EpochId) {
        let now = q.now();
        if !self.haus[i].alive {
            return;
        }
        let h_id = HauId(i as u32);
        let n_inputs = self.graph.upstream(h_id).len();
        match self.cfg.scheme {
            SchemeKind::MsSrc => {
                // Source HAU: checkpoint own state first; the token is
                // forwarded once the write completes.
                self.haus[i].ck.begin(epoch, n_inputs, now);
                self.begin_snapshot(q, i, epoch, false);
            }
            SchemeKind::MsSrcAp | SchemeKind::MsSrcApAa => {
                if self.haus[i].ck.epoch != Some(epoch) {
                    self.haus[i].ck.begin(epoch, n_inputs, now);
                    self.haus[i].backlog_stash.clear();
                }
                // Emit 1-hop tokens to every downstream neighbour
                // immediately and start retaining output copies.
                self.haus[i].retaining = true;
                for r in &mut self.haus[i].out_retain {
                    r.clear();
                }
                let token = Token::one_hop(epoch, h_id);
                let targets: Vec<HauId> = self.graph.downstream(h_id).to_vec();
                for to in targets {
                    self.send_item(q, h_id, to, StreamItem::Token(token), now);
                }
                if self.is_source_hau(h_id) {
                    // Stream boundary on the source's preserved log.
                    let next_seq = self.haus[i]
                        .op_ids
                        .iter()
                        .map(|op| *self.haus[i].next_seq.get(op).unwrap_or(&0))
                        .max()
                        .unwrap_or(0);
                    if let Some(log) = self.source_logs.get_mut(&h_id) {
                        log.mark_epoch(epoch, next_seq);
                    }
                }
                if self.haus[i].ck.all_tokens() {
                    self.begin_snapshot(q, i, epoch, true);
                }
            }
            SchemeKind::Baseline => {}
        }
    }

    fn on_token(&mut self, q: &mut EventQueue<Event>, i: usize, input_idx: usize, tok: Token) {
        let now = q.now();
        let h_id = HauId(i as u32);
        let n_inputs = self.graph.upstream(h_id).len();
        match tok.kind {
            TokenKind::Propagating => {
                if self.haus[i].ck.epoch != Some(tok.epoch) {
                    self.haus[i].ck.begin(tok.epoch, n_inputs, now);
                }
                self.haus[i].ck.token_seen[input_idx] = true;
                self.haus[i].inputs[input_idx].blocked = true;
                if self.haus[i].ck.all_tokens() {
                    self.begin_snapshot(q, i, tok.epoch, false);
                }
            }
            TokenKind::OneHop => {
                if self.haus[i].ck.epoch != Some(tok.epoch) {
                    // Token outran the controller command (possible on
                    // short paths); start tracking now, the command
                    // will top up retention/token emission.
                    self.haus[i].ck.begin(tok.epoch, n_inputs, now);
                    self.haus[i].backlog_stash.clear();
                }
                // The tuples this token jumped over are in-flight
                // channel state: they precede the sender's boundary
                // but follow ours, so the snapshot must carry them.
                let backlog: Vec<Tuple> = self.haus[i].inputs[input_idx]
                    .queue
                    .iter()
                    .filter_map(|item| item.as_data().cloned())
                    .collect();
                if !backlog.is_empty() {
                    self.haus[i].backlog_stash.push((input_idx, backlog));
                }
                self.haus[i].ck.token_seen[input_idx] = true;
                self.haus[i].inputs[input_idx].blocked = true;
                if self.haus[i].ck.all_tokens() {
                    self.begin_snapshot(q, i, tok.epoch, true);
                }
            }
        }
    }

    /// Serializes the HAU state and submits the write to stable
    /// storage. `asynchronous` selects the COW-child path.
    fn begin_snapshot(
        &mut self,
        q: &mut EventQueue<Event>,
        i: usize,
        epoch: EpochId,
        asynchronous: bool,
    ) {
        let now = q.now();
        let h_id = HauId(i as u32);
        let snapshot = self.take_snapshot(i, now);
        let bytes = snapshot.logical_bytes();
        let ser = SimDuration::from_secs_f64(bytes as f64 / self.cfg.serialize_bw as f64);
        self.haus[i].ck.tokens_done_at = now;

        let write_submit;
        if asynchronous {
            let fork = self.cfg.fork_fixed
                + SimDuration::from_secs_f64(bytes as f64 * self.cfg.fork_per_byte);
            // Parent blocks only for process creation, then resumes
            // with COW overhead while the child serializes and writes.
            self.haus[i].busy_until = self.haus[i].busy_until.max(now + fork);
            self.haus[i].ck.serialized_at = now + fork + ser;
            write_submit = now + fork + ser;
            self.haus[i].async_active = true;
            self.haus[i].retaining = false;
            for r in &mut self.haus[i].out_retain {
                r.clear();
            }
            self.unblock_inputs(i);
        } else {
            // Synchronous: processing fully suspended until the write
            // lands.
            self.haus[i].suspended = true;
            self.haus[i].ck.serialized_at = now + ser;
            write_submit = now + ser;
        }
        let (_, done) = self.ckpt_write_dev.access(write_submit, bytes);
        if !asynchronous {
            self.haus[i].busy_until = done;
        }
        self.pending_writes.insert((h_id, epoch), snapshot);
        q.schedule(
            done,
            Event::WriteDone {
                hau: h_id,
                epoch,
                gen: self.gen,
            },
        );
    }

    /// Captures the HAU's operator snapshots, retained in-flight
    /// tuples, and engine bookkeeping.
    fn take_snapshot(&mut self, i: usize, now: SimTime) -> HauCheckpoint {
        let h_id = HauId(i as u32);
        let ops = self.haus[i]
            .op_ids
            .iter()
            .enumerate()
            .map(|(oi, &op)| {
                (
                    op,
                    self.haus[i].ops[oi]
                        .as_ref()
                        .map(|o| o.snapshot())
                        .unwrap_or_else(ms_core::operator::OperatorSnapshot::empty),
                )
            })
            .collect();
        let output_pending: Vec<(HauId, Vec<Tuple>)> = self
            .graph
            .downstream(h_id)
            .iter()
            .enumerate()
            .filter(|(oi, _)| !self.haus[i].out_retain.get(*oi).is_none_or(Vec::is_empty))
            .map(|(oi, &d)| (d, self.haus[i].out_retain[oi].clone()))
            .collect();
        let input_backlog: Vec<(HauId, Vec<Tuple>)> = self.haus[i]
            .backlog_stash
            .drain(..)
            .map(|(idx, tuples)| (self.graph.upstream(h_id)[idx], tuples))
            .collect();

        // Engine bookkeeping: per-operator sequence counters and
        // per-input watermarks. Every entry below is one tagged u64
        // (9 bytes), so the exact encoded size is known up front.
        let meta_items = 2
            + 2 * self.haus[i].next_seq.len()
            + self.haus[i]
                .inputs
                .iter()
                .map(|c| 1 + 2 * c.watermarks.len())
                .sum::<usize>();
        let mut w = SnapshotWriter::with_capacity(meta_items * 9);
        w.put_u64(self.haus[i].next_seq.len() as u64);
        let mut seqs: Vec<_> = self.haus[i]
            .next_seq
            .iter()
            .map(|(k, v)| (k.0, *v))
            .collect();
        seqs.sort_unstable();
        for (op, seq) in seqs {
            w.put_u64(op as u64);
            w.put_u64(seq);
        }
        w.put_u64(self.haus[i].inputs.len() as u64);
        for chan in &self.haus[i].inputs {
            let mut ws: Vec<_> = chan.watermarks.iter().map(|(k, v)| (k.0, *v)).collect();
            ws.sort_unstable();
            w.put_u64(ws.len() as u64);
            for (op, wm) in ws {
                w.put_u64(op as u64);
                w.put_u64(wm);
            }
        }

        HauCheckpoint {
            ops,
            input_backlog,
            output_pending,
            taken_at: now,
            meta: w.finish(),
        }
    }

    fn restore_meta(&mut self, i: usize, meta: &[u8]) -> ms_core::Result<()> {
        if meta.is_empty() {
            return Ok(());
        }
        let mut r = SnapshotReader::new(meta);
        self.haus[i].next_seq.clear();
        let n = r.get_u64()?;
        for _ in 0..n {
            let op = OperatorId(r.get_u64()? as u32);
            let seq = r.get_u64()?;
            self.haus[i].next_seq.insert(op, seq);
        }
        let n_inputs = r.get_u64()? as usize;
        for ii in 0..n_inputs.min(self.haus[i].inputs.len()) {
            self.haus[i].inputs[ii].watermarks.clear();
            let k = r.get_u64()?;
            for _ in 0..k {
                let op = OperatorId(r.get_u64()? as u32);
                let wm = r.get_u64()?;
                self.haus[i].inputs[ii].watermarks.insert(op, wm);
            }
        }
        Ok(())
    }

    fn unblock_inputs(&mut self, i: usize) {
        for chan in &mut self.haus[i].inputs {
            chan.blocked = false;
        }
        if let Some(n) = Some(self.haus[i].ck.token_seen.len()) {
            self.haus[i].ck.token_seen = vec![false; n];
        }
    }

    fn on_write_done(&mut self, q: &mut EventQueue<Event>, i: usize, epoch: EpochId) {
        let now = q.now();
        let h_id = HauId(i as u32);
        let Some(snapshot) = self.pending_writes.remove(&(h_id, epoch)) else {
            return; // superseded by a recovery
        };
        if !self.haus[i].alive {
            return;
        }
        let bytes = snapshot.logical_bytes();
        let complete = self.store.put(epoch, h_id, snapshot);

        // Record timings.
        let ck = self.haus[i].ck.clone();
        if let Some(rec) = self.ckpt_records.iter_mut().find(|r| r.epoch == epoch) {
            rec.individuals.push(IndividualCheckpoint {
                hau: h_id,
                started_at: ck.started_at,
                tokens_done_at: ck.tokens_done_at,
                serialized_at: ck.serialized_at,
                stored_at: now,
                bytes,
            });
            if complete {
                rec.completed_at = Some(now);
            }
        }

        match self.cfg.scheme {
            SchemeKind::Baseline => {
                self.haus[i].suspended = false;
                self.haus[i].baseline_epoch = epoch;
                // Acknowledge upstream neighbours so they trim their
                // preservation buffers.
                let ups: Vec<HauId> = self.graph.upstream(h_id).to_vec();
                for (ii, up) in ups.into_iter().enumerate() {
                    let watermarks: Vec<(OperatorId, u64)> = self.haus[i].inputs[ii]
                        .watermarks
                        .iter()
                        .map(|(k, v)| (*k, *v))
                        .collect();
                    q.schedule(
                        now + self.cfg.net.latency,
                        Event::AckArrive {
                            to: up,
                            from: h_id,
                            watermarks,
                            gen: self.gen,
                        },
                    );
                }
            }
            SchemeKind::MsSrc => {
                self.haus[i].suspended = false;
                // Forward the propagating token downstream, then
                // resume.
                let token = Token::propagating(epoch, h_id);
                let targets: Vec<HauId> = self.graph.downstream(h_id).to_vec();
                for to in targets {
                    self.send_item(q, h_id, to, StreamItem::Token(token), now);
                }
                if self.is_source_hau(h_id) {
                    let next_seq = self.haus[i]
                        .op_ids
                        .iter()
                        .map(|op| *self.haus[i].next_seq.get(op).unwrap_or(&0))
                        .max()
                        .unwrap_or(0);
                    if let Some(log) = self.source_logs.get_mut(&h_id) {
                        log.mark_epoch(epoch, next_seq);
                    }
                }
                self.unblock_inputs(i);
            }
            SchemeKind::MsSrcAp | SchemeKind::MsSrcApAa => {
                self.haus[i].async_active = false;
            }
        }

        if complete {
            // The MRC advanced: trim source logs and GC older epochs.
            for (_, log) in self.source_logs.iter_mut() {
                log.trim_to(epoch);
            }
            self.store.gc_before(epoch);
        }
        self.schedule_process(q, i);
    }

    fn on_baseline_due(&mut self, q: &mut EventQueue<Event>, i: usize) {
        let now = q.now();
        if !self.haus[i].alive || self.down {
            return;
        }
        let epoch = self.haus[i].baseline_epoch.next();
        self.haus[i].ck.begin(epoch, 0, now);
        self.begin_snapshot(q, i, epoch, false);
        if self.cfg.forced_checkpoints.is_empty() && !self.cfg.ckpt.disabled() {
            q.schedule(
                now + self.cfg.ckpt.period,
                Event::BaselineCkptDue {
                    hau: HauId(i as u32),
                    gen: self.gen,
                },
            );
        }
    }

    fn on_ack(&mut self, to: HauId, from: HauId, watermarks: &[(OperatorId, u64)]) {
        let i = to.index();
        if !self.haus[i].alive {
            return;
        }
        let Some(out_idx) = self.graph.downstream(to).iter().position(|&d| d == from) else {
            return;
        };
        // One producing operator per channel in baseline mode: trim by
        // the highest watermark mentioned.
        if let Some(&(_, w)) = watermarks.iter().max_by_key(|&&(_, w)| w) {
            self.haus[i].preserve[out_idx].trim_below(w);
        }
    }

    // ---------------- sampling & aa ----------------

    fn on_state_sample(&mut self, q: &mut EventQueue<Event>) {
        let now = q.now();
        if !self.down {
            let mut total = 0u64;
            let mut dynamic_sizes: Vec<(HauId, u64)> = Vec::new();
            for i in 0..self.haus.len() {
                let s = self.haus[i].state_size();
                total += s;
                self.hau_traces[i].push(now, s as f64);
                dynamic_sizes.push((HauId(i as u32), s));
            }
            self.state_trace.push(now, total as f64);

            if let Some(ctrl) = &mut self.aware {
                let sizes: Vec<(HauId, u64)> = dynamic_sizes
                    .into_iter()
                    .filter(|(h, _)| ctrl.profile().dynamic.contains(h))
                    .collect();
                if let AwareAction::Checkpoint(_) = ctrl.on_sample(now, &sizes) {
                    self.initiate_checkpoint(q);
                }
            }
        }
        q.schedule(now + self.cfg.sample_interval, Event::StateSample);
    }

    fn on_end_warmup(&mut self, q: &mut EventQueue<Event>) {
        let now = q.now();
        self.window_start = now;
        self.window_end = now + self.cfg.measure;
        self.measuring = true;
        self.metrics = RunMetrics::new();
        self.source_tuples = 0;

        if self.cfg.scheme == SchemeKind::MsSrcApAa && !self.cfg.ckpt.disabled() {
            // Profiling ran during warmup; derive the profile and start
            // the execution-phase controller.
            // Skip the startup transient (first quarter of warmup):
            // empty pools at t=0 would poison the per-period minima.
            let cutoff = SimTime::ZERO + SimDuration::from_micros(self.cfg.warmup.as_micros() / 4);
            let series: Vec<(HauId, TimeSeries)> = self
                .hau_traces
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let mut trimmed = TimeSeries::new();
                    for &(tt, v) in t.points().iter().filter(|(tt, _)| *tt >= cutoff) {
                        trimmed.push(tt, v);
                    }
                    (HauId(i as u32), trimmed)
                })
                .collect();
            let prof = profile(&series, self.cfg.ckpt.period, &self.cfg.aware);
            self.aware = Some(AwareController::new(prof, self.cfg.ckpt.period, now));
        }
    }

    // ---------------- failure & recovery ----------------

    fn on_inject_failure(&mut self, q: &mut EventQueue<Event>, nodes: &[NodeId]) {
        let now = q.now();
        self.failed_at = now;
        self.down = true;
        for &n in nodes {
            self.cluster.set_up(n, false);
            self.net.set_node_up(n, false);
        }
        for i in 0..self.haus.len() {
            if !self.cluster.up(self.node_of(HauId(i as u32))) {
                let h = &mut self.haus[i];
                h.alive = false;
                h.suspended = false;
                h.async_active = false;
                h.retaining = false;
                h.process_scheduled = false;
                for c in &mut h.inputs {
                    c.queue.clear();
                    c.bytes = 0;
                    c.blocked = false;
                }
                for r in &mut h.out_retain {
                    r.clear();
                }
            }
        }
        self.recount_inflight();
        q.schedule(now + self.cfg.detect_delay, Event::DetectFailure);
    }

    fn recount_inflight(&mut self) {
        self.inflight = self.haus.iter().map(HauRt::queued_bytes).sum();
    }

    fn on_detect_failure(&mut self, q: &mut EventQueue<Event>) {
        let now = q.now();
        let epoch = self.store.latest_complete().unwrap_or(EpochId::INITIAL);

        // Replacement capacity comes up; local disks are cold.
        for n in 0..self.cluster.len() {
            let node = NodeId(n as u32);
            if !self.cluster.up(node) {
                self.cluster.set_up(node, true);
                self.net.set_node_up(node, true);
                self.local_disks[n].reset();
            }
        }

        // Phase plan per HAU: reload → read from shared storage →
        // deserialize; then one controller reconnection pass.
        let restart: Vec<usize> = (0..self.haus.len())
            .filter(|&i| !self.haus[i].alive)
            .collect();
        let meteor = self.cfg.scheme.is_meteor_shower();
        let mut slowest_ready = now;
        let mut slowest = (SimDuration::ZERO, SimDuration::ZERO); // (read, other)
        for &i in &restart {
            let bytes = if meteor {
                self.store
                    .get(epoch, HauId(i as u32))
                    .map(HauCheckpoint::logical_bytes)
                    .unwrap_or(0)
            } else {
                self.store
                    .latest_for_hau(HauId(i as u32))
                    .map(|(_, c)| c.logical_bytes())
                    .unwrap_or(0)
            };
            let reload_done = now + self.cfg.op_load_time;
            let (read_start, read_done) = self.ckpt_read_dev.access(reload_done, bytes);
            let deser = SimDuration::from_secs_f64(bytes as f64 / self.cfg.deserialize_bw as f64);
            let ready = read_done + deser;
            if ready > slowest_ready {
                slowest_ready = ready;
                slowest = (
                    read_done.saturating_since(read_start.min(reload_done)),
                    self.cfg.op_load_time + deser,
                );
            }
        }
        let reconnect = self.cfg.reconnect_per_hau * restart.len() as u64;
        let recovered_at = slowest_ready + reconnect;

        let mut breakdown = Breakdown::new();
        breakdown.add(rec_phase::DISK_IO, slowest.0);
        breakdown.add(rec_phase::OTHER, slowest.1);
        breakdown.add(rec_phase::RECONNECTION, reconnect);

        self.recoveries.push(RecoveryRecord {
            failed_at: self.failed_at,
            detected_at: now,
            recovered_at,
            epoch,
            breakdown,
            restarted_haus: restart.len(),
            replayed_tuples: 0,
        });
        q.schedule(recovered_at, Event::RecoveryDone { epoch });
    }

    fn on_recovery_done(&mut self, q: &mut EventQueue<Event>, epoch: EpochId) {
        let now = q.now();
        self.gen += 1;
        self.down = false;
        self.pending_writes.clear();

        let meteor = self.cfg.scheme.is_meteor_shower();
        // Meteor Shower restores *all* HAUs to the MRC; the baseline
        // would restore only the failed ones (single-node recovery is
        // exercised separately in tests).
        let targets: Vec<usize> = if meteor {
            (0..self.haus.len()).collect()
        } else {
            (0..self.haus.len())
                .filter(|&i| !self.haus[i].alive)
                .collect()
        };

        let mut backlog_deliveries: Vec<(HauId, HauId, Tuple)> = Vec::new();
        let mut pending_deliveries: Vec<(HauId, HauId, Tuple)> = Vec::new();
        for &i in &targets {
            let h_id = HauId(i as u32);
            // Rebuild operators from scratch, then restore state.
            let mut hau_rng = self
                .rng
                .fork_idx("hau-restart", h_id.0 as u64 + ((self.gen as u64) << 32));
            let ckpt = if meteor {
                self.store.get(epoch, h_id).cloned()
            } else {
                // Baseline restores each failed HAU from its own most
                // recent individual checkpoint.
                self.store.latest_for_hau(h_id).map(|(e, c)| {
                    self.haus[i].baseline_epoch = e;
                    c.clone()
                })
            };
            for oi in 0..self.haus[i].op_ids.len() {
                let op_id = self.haus[i].op_ids[oi];
                let mut op = self.app.build_operator(op_id, &mut hau_rng);
                if let Some(c) = &ckpt {
                    if let Some((_, snap)) = c.ops.iter().find(|(o, _)| *o == op_id) {
                        let _ = op.restore(snap);
                    }
                }
                self.haus[i].ops[oi] = Some(op);
            }
            {
                let h = &mut self.haus[i];
                h.alive = true;
                h.suspended = false;
                h.async_active = false;
                h.retaining = false;
                h.process_scheduled = false;
                h.busy_until = now;
                h.next_seq.clear();
                h.ck = Default::default();
                for c in &mut h.inputs {
                    c.queue.clear();
                    c.bytes = 0;
                    c.blocked = false;
                    c.watermarks.clear();
                }
                for r in &mut h.out_retain {
                    r.clear();
                }
                h.pending_timers.clear();
                h.backlog_stash.clear();
            }
            if let Some(c) = &ckpt {
                let meta = c.meta.clone();
                let _ = self.restore_meta(i, &meta);
                // Re-inject the checkpointed in-flight tuples. Channel
                // backlogs (tuples a 1-hop token jumped) precede the
                // sender-retained tuples on the same channel, so they
                // are queued first.
                for (from, tuples) in &c.input_backlog {
                    for t in tuples {
                        backlog_deliveries.push((*from, h_id, t.clone()));
                    }
                }
                for (to, tuples) in &c.output_pending {
                    for t in tuples {
                        pending_deliveries.push((h_id, *to, t.clone()));
                    }
                }
            }
        }

        // Baseline: upstream neighbours resend their preserved output
        // tuples from the restored HAU's watermark ("its upstream
        // operators then resend all the tuples that the failed
        // operator had processed since its MRC").
        if !meteor {
            for &i in &targets {
                let h_id = HauId(i as u32);
                let ups: Vec<HauId> = self.graph.upstream(h_id).to_vec();
                for (idx, u) in ups.into_iter().enumerate() {
                    if !self.haus[u.index()].alive {
                        continue;
                    }
                    let Some(out_idx) = self.graph.downstream(u).iter().position(|&d| d == h_id)
                    else {
                        continue;
                    };
                    let from_seq = self.haus[i].inputs[idx]
                        .watermarks
                        .values()
                        .copied()
                        .max()
                        .unwrap_or(0);
                    let (tuples, disk_bytes) =
                        self.haus[u.index()].preserve[out_idx].resend_from(from_seq);
                    let node_u = self.node_of(u);
                    let ready = if disk_bytes > 0 {
                        self.local_disks[node_u.index()].access_done(now, disk_bytes)
                    } else {
                        now
                    };
                    for t in tuples {
                        self.send_item(q, u, h_id, StreamItem::Data(t), ready);
                    }
                }
            }
        }

        // Sources replay preserved tuples (at-speed catch-up).
        let mut replayed = 0u64;
        if meteor {
            let source_ids: Vec<HauId> = self.source_logs.keys().copied().collect();
            for s in source_ids {
                let tuples = self
                    .source_logs
                    .get_mut(&s)
                    .map(|l| {
                        let replay = l.replay_from(epoch);
                        // The restored source regenerates sequence
                        // numbers from the boundary; roll the log back
                        // so its appends stay monotone.
                        l.truncate_to_mark(epoch);
                        replay
                    })
                    .unwrap_or_default();
                replayed += tuples.len() as u64;
                let downs: Vec<HauId> = self.graph.downstream(s).to_vec();
                for t in tuples {
                    for &d in &downs {
                        pending_deliveries.push((s, d, t.clone()));
                    }
                }
            }
        }
        if let Some(rec) = self.recoveries.last_mut() {
            rec.replayed_tuples = replayed;
        }
        for (from, to, t) in backlog_deliveries.into_iter().chain(pending_deliveries) {
            self.send_item(q, from, to, StreamItem::Data(t), now);
        }

        self.recount_inflight();
        // Restart timers and processing.
        for i in 0..self.haus.len() {
            for (op_idx, op) in self.haus[i].ops.iter().enumerate() {
                if let Some(interval) = op.as_ref().and_then(|o| o.timer_interval()) {
                    q.schedule(
                        now + interval,
                        Event::OpTimer {
                            hau: HauId(i as u32),
                            op_idx,
                            gen: self.gen,
                        },
                    );
                }
            }
            self.schedule_process(q, i);
        }
    }
}

/// What a dispatch call feeds the operator.
enum DispatchKind {
    /// A data tuple on an input port.
    Tuple(PortId, Tuple),
    /// A timer tick.
    Timer,
}

impl<A: AppSpec> World for Engine<A> {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, q: &mut EventQueue<Event>) {
        debug_assert_eq!(now, q.now());
        match event {
            Event::Deliver {
                from,
                to,
                item,
                gen,
            } => {
                if gen == self.gen {
                    self.on_deliver(q, from, to, item);
                }
            }
            Event::ProcessNext { hau, gen } => {
                if gen == self.gen {
                    self.on_process_next(q, hau.index());
                }
            }
            Event::OpTimer { hau, op_idx, gen } => {
                if gen == self.gen {
                    self.on_op_timer(q, hau.index(), op_idx);
                }
            }
            Event::PeriodTick => {
                if !self.down {
                    self.initiate_checkpoint(q);
                    if self.cfg.forced_checkpoints.is_empty() && !self.cfg.ckpt.disabled() {
                        q.schedule_in(self.cfg.ckpt.period, Event::PeriodTick);
                    }
                }
            }
            Event::BaselineCkptDue { hau, gen } => {
                if gen == self.gen {
                    self.on_baseline_due(q, hau.index());
                }
            }
            Event::CommandArrive { hau, epoch, gen } => {
                if gen == self.gen {
                    self.on_command(q, hau.index(), epoch);
                }
            }
            Event::WriteDone { hau, epoch, gen } => {
                if gen == self.gen {
                    self.on_write_done(q, hau.index(), epoch);
                }
            }
            Event::AckArrive {
                to,
                from,
                watermarks,
                gen,
            } => {
                if gen == self.gen {
                    self.on_ack(to, from, &watermarks);
                }
            }
            Event::StateSample => self.on_state_sample(q),
            Event::InjectFailure { nodes } => self.on_inject_failure(q, &nodes),
            Event::DetectFailure => self.on_detect_failure(q),
            Event::RecoveryDone { epoch } => self.on_recovery_done(q, epoch),
            Event::EndWarmup => self.on_end_warmup(q),
        }
    }
}
