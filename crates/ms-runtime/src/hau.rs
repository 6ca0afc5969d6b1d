//! Per-HAU runtime state.

use std::collections::{HashMap, VecDeque};

use ms_core::ids::{EpochId, HauId, OperatorId, PortId};
use ms_core::operator::{Operator, OperatorContext};
use ms_core::time::SimTime;
use ms_core::tuple::{Fields, StreamItem, Tuple};
use ms_sim::storage::InputPreservationBuffer;
use ms_sim::DetRng;

/// One input channel of an HAU (from one upstream neighbour).
#[derive(Debug, Default)]
pub struct InputChan {
    /// Queued items, in arrival order.
    pub queue: VecDeque<StreamItem>,
    /// Logical bytes of queued data tuples (channel-cap accounting).
    pub bytes: u64,
    /// True while a token has been taken from this channel's head and
    /// the HAU is waiting for tokens on its other inputs — "the HAU
    /// stops processing tuples from [that neighbour]" (Fig. 6).
    pub blocked: bool,
    /// Highest tuple sequence processed, per producer operator
    /// (duplicate suppression across baseline recovery resends).
    pub watermarks: HashMap<OperatorId, u64>,
}

impl InputChan {
    /// True if a data tuple with this identity was already processed.
    /// (Watermarks store `last_seq + 1`.)
    pub fn is_duplicate(&self, t: &Tuple) -> bool {
        self.watermarks.get(&t.producer).is_some_and(|&w| t.seq < w)
    }

    /// Records a processed tuple.
    pub fn advance(&mut self, t: &Tuple) {
        let w = self.watermarks.entry(t.producer).or_insert(0);
        // Sequence 0 needs the +1 offset to distinguish "seen seq 0"
        // from "seen nothing": watermark stores seq + 1.
        *w = (*w).max(t.seq + 1);
    }

    /// True if a data tuple was already processed (watermark form:
    /// stored value is `last_seq + 1`).
    pub fn seen(&self, producer: OperatorId, seq: u64) -> bool {
        self.watermarks.get(&producer).is_some_and(|&w| seq < w)
    }
}

/// Checkpoint progress of one HAU within the current epoch.
#[derive(Debug, Default, Clone)]
pub struct CkptProgress {
    /// The epoch being worked on, if any.
    pub epoch: Option<EpochId>,
    /// Which inputs have delivered their token.
    pub token_seen: Vec<bool>,
    /// When the command/token wave reached this HAU.
    pub started_at: SimTime,
    /// When all tokens were collected.
    pub tokens_done_at: SimTime,
    /// When serialization (and fork, for async) finished.
    pub serialized_at: SimTime,
}

impl CkptProgress {
    /// Resets for a new epoch with `n` inputs.
    pub fn begin(&mut self, epoch: EpochId, n_inputs: usize, now: SimTime) {
        self.epoch = Some(epoch);
        self.token_seen = vec![false; n_inputs];
        self.started_at = now;
        self.tokens_done_at = now;
        self.serialized_at = now;
    }

    /// True once every input has delivered its token.
    pub fn all_tokens(&self) -> bool {
        self.token_seen.iter().all(|&b| b)
    }
}

/// The full runtime state of one HAU.
pub struct HauRt {
    /// Id.
    pub id: HauId,
    /// Alive (fail-stop flag).
    pub alive: bool,
    /// Operator instances (usually one), `take()`n during dispatch.
    pub ops: Vec<Option<Box<dyn Operator>>>,
    /// Operator ids matching `ops` by index.
    pub op_ids: Vec<OperatorId>,
    /// Input channels, in input-port order (upstream HAU order).
    pub inputs: Vec<InputChan>,
    /// Round-robin cursor over inputs.
    pub rr: usize,
    /// Busy horizon: the HAU's single worker thread is occupied until
    /// this instant (covers service time and synchronous snapshots).
    pub busy_until: SimTime,
    /// Whether a `ProcessNext` event is already queued.
    pub process_scheduled: bool,
    /// Synchronous snapshot in flight: processing fully suspended.
    pub suspended: bool,
    /// Asynchronous (COW child) snapshot in flight: parent continues
    /// with a copy-on-write overhead on its service times.
    pub async_active: bool,
    /// Retained output tuples per output port (MS-src+ap: local copies
    /// of everything sent between the token command and the fork).
    pub out_retain: Vec<Vec<Tuple>>,
    /// True while retaining.
    pub retaining: bool,
    /// Baseline input-preservation buffers, one per output port.
    pub preserve: Vec<InputPreservationBuffer>,
    /// Next tuple sequence per operator.
    pub next_seq: HashMap<OperatorId, u64>,
    /// Checkpoint progress.
    pub ck: CkptProgress,
    /// Baseline: this HAU's private checkpoint epoch counter.
    pub baseline_epoch: EpochId,
    /// Operator timers that came due while the worker was busy; they
    /// run at the next processing boundary (prevents timer starvation
    /// on saturated HAUs).
    pub pending_timers: Vec<usize>,
    /// Channel backlogs captured when a 1-hop token jumped the input
    /// queue (Fig. 8): `(input index, jumped tuples)`. Folded into the
    /// next snapshot as its `input_backlog`.
    pub backlog_stash: Vec<(usize, Vec<Tuple>)>,
    /// Deterministic per-HAU random stream.
    pub rng: DetRng,
}

impl HauRt {
    /// Total logical state size across constituent operators.
    pub fn state_size(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| op.as_ref().map_or(0, |o| o.state_size()))
            .sum()
    }

    /// True if any unblocked input has queued work or a timer is
    /// waiting to run.
    pub fn has_work(&self) -> bool {
        !self.pending_timers.is_empty()
            || self
                .inputs
                .iter()
                .any(|c| !c.blocked && !c.queue.is_empty())
    }

    /// Picks the next input to serve, round-robin over unblocked,
    /// non-empty channels. Returns the input index.
    pub fn next_input(&mut self) -> Option<usize> {
        let n = self.inputs.len();
        for k in 0..n {
            let i = (self.rr + k) % n;
            if !self.inputs[i].blocked && !self.inputs[i].queue.is_empty() {
                self.rr = (i + 1) % n;
                return Some(i);
            }
        }
        None
    }

    /// Tuples currently queued across all inputs.
    pub fn queued_tuples(&self) -> usize {
        self.inputs
            .iter()
            .map(|c| c.queue.iter().filter(|i| !i.is_token()).count())
            .sum()
    }

    /// Logical bytes currently queued across all inputs (backpressure
    /// accounting).
    pub fn queued_bytes(&self) -> u64 {
        self.inputs
            .iter()
            .flat_map(|c| c.queue.iter())
            .filter(|i| !i.is_token())
            .map(|i| i.wire_bytes())
            .sum()
    }
}

/// The [`OperatorContext`] handed to operators during dispatch:
/// collects emissions for the engine to route afterwards.
pub struct EmitCtx<'a> {
    /// Current virtual time.
    pub now: SimTime,
    /// The operator being executed.
    pub op: OperatorId,
    /// Number of output ports of this operator.
    pub fanout: usize,
    /// Collected `(port, fields)` emissions. Fan-out stores one
    /// [`Fields`] handle per port, all sharing a single allocation.
    pub emissions: Vec<(PortId, Fields)>,
    /// Per-HAU random stream.
    pub rng: &'a mut DetRng,
}

impl OperatorContext for EmitCtx<'_> {
    fn emit_fields(&mut self, port: PortId, fields: Fields) {
        self.emissions.push((port, fields));
    }

    fn emit_all_fields(&mut self, fields: Fields) {
        for p in 0..self.fanout {
            self.emissions.push((PortId(p as u32), fields.clone()));
        }
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn self_id(&self) -> OperatorId {
        self.op
    }

    fn rand_f64(&mut self) -> f64 {
        self.rng.f64()
    }

    fn rand_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_core::tuple::Tuple;

    fn tup(producer: u32, seq: u64) -> Tuple {
        Tuple::new(OperatorId(producer), seq, SimTime::ZERO, vec![])
    }

    #[test]
    fn watermarks_dedupe() {
        let mut c = InputChan::default();
        assert!(!c.is_duplicate(&tup(1, 0)));
        c.advance(&tup(1, 0));
        assert!(c.is_duplicate(&tup(1, 0)));
        assert!(!c.is_duplicate(&tup(1, 1)));
        assert!(!c.is_duplicate(&tup(2, 0)));
        assert!(c.seen(OperatorId(1), 0));
        assert!(!c.seen(OperatorId(1), 1));
    }

    #[test]
    fn ckpt_progress_token_tracking() {
        let mut ck = CkptProgress::default();
        ck.begin(EpochId(1), 2, SimTime::ZERO);
        assert!(!ck.all_tokens());
        ck.token_seen[0] = true;
        assert!(!ck.all_tokens());
        ck.token_seen[1] = true;
        assert!(ck.all_tokens());
    }

    #[test]
    fn zero_input_hau_has_all_tokens_trivially() {
        let mut ck = CkptProgress::default();
        ck.begin(EpochId(1), 0, SimTime::ZERO);
        assert!(ck.all_tokens());
    }
}
