//! Measurement primitives used by the evaluation harness.
//!
//! The paper reports: end-to-end throughput (tuples per 10-minute
//! window) and average latency (Figs. 12–13), instantaneous latency
//! time series (Fig. 15), checkpoint-time and recovery-time breakdowns
//! (Figs. 14, 16), and state-size traces (Fig. 5). These types collect
//! exactly those quantities.

use std::sync::atomic::Ordering;

use crate::time::{SimDuration, SimTime};

/// A flat record of telemetry columns, each a `u64` or a `bool`,
/// declared once with [`columns!`](crate::columns): the wire encodes a
/// record as its columns' words, in declaration order.
pub trait Columns: Sized {
    /// The column names, in declaration order.
    const NAMES: &'static [&'static str];

    /// Hands each column's word to `put`, in declaration order.
    fn put_words(&self, put: impl FnMut(u64));

    /// Builds a record from its words, read in declaration order.
    fn from_words<E>(
        word: impl FnMut() -> std::result::Result<u64, E>,
    ) -> std::result::Result<Self, E>;
}

/// The type of one column: what it is as a word.
pub trait Column: Copy {
    /// The column as a word (`true` is 1).
    fn to_word(self) -> u64;
    /// The column a word holds (any nonzero word is `true`).
    fn from_word(word: u64) -> Self;
}

impl Column for u64 {
    fn to_word(self) -> u64 {
        self
    }
    fn from_word(word: u64) -> u64 {
        word
    }
}

impl Column for bool {
    fn to_word(self) -> u64 {
        self as u64
    }
    fn from_word(word: u64) -> bool {
        word != 0
    }
}

/// Declares a telemetry record as one table of columns: the struct
/// (every column `pub`) and its [`Columns`] impl. A second, field-less
/// struct after the table declares that record's lock-free meter: one
/// `AtomicU64` per column, and a `sample` that loads each. The meter's
/// setters stay hand-written next to it.
///
/// [`Columns`]: crate::metrics::Columns
#[macro_export]
macro_rules! columns {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$doc:meta])* $col:ident : $ty:ty ),* $(,)?
        }
        $(#[$meter_meta:meta])*
        $meter_vis:vis struct $meter:ident;
    ) => {
        $crate::columns! {
            $(#[$meta])*
            $vis struct $name { $( $(#[$doc])* $col: $ty ),* }
        }

        $(#[$meter_meta])*
        $meter_vis struct $meter {
            $( $col: ::std::sync::atomic::AtomicU64 ),*
        }

        impl $meter {
            /// A point-in-time reading of every column.
            pub fn sample(&self) -> $name {
                $name {
                    $( $col: $crate::metrics::Column::from_word(
                        self.$col.load(::std::sync::atomic::Ordering::Relaxed),
                    ) ),*
                }
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$doc:meta])* $col:ident : $ty:ty ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$doc])* pub $col: $ty ),*
        }

        impl $crate::metrics::Columns for $name {
            const NAMES: &'static [&'static str] = &[$( stringify!($col) ),*];

            fn put_words(&self, mut put: impl FnMut(u64)) {
                $( put($crate::metrics::Column::to_word(self.$col)); )*
            }

            fn from_words<E>(
                mut word: impl FnMut() -> ::std::result::Result<u64, E>,
            ) -> ::std::result::Result<Self, E> {
                Ok($name {
                    $( $col: $crate::metrics::Column::from_word(word()?) ),*
                })
            }
        }
    };
}

columns! {
    /// A point-in-time reading of one worker's backpressure state: how
    /// much input is queued ahead of its hosts and how much the alignment
    /// windows are holding back. Rising queue depths or window occupancy
    /// are the early signal of a stalled stage — visible in the heartbeat
    /// long before the stall degrades into a timeout-detected failure.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct BackpressureGauges {
        /// Tuples sitting unread in host input channels.
        queued_tuples: u64,
        /// Alignment windows currently open (epochs mid-alignment).
        open_windows: u64,
        /// Tuples buffered inside open alignment windows (arrived after a
        /// token, held back until the epoch cuts).
        window_tuples: u64,
    }
}

impl BackpressureGauges {
    /// Field-wise sum — aggregates per-host readings into a worker
    /// total.
    pub fn merge(&self, other: &BackpressureGauges) -> BackpressureGauges {
        BackpressureGauges {
            queued_tuples: self.queued_tuples + other.queued_tuples,
            open_windows: self.open_windows + other.open_windows,
            window_tuples: self.window_tuples + other.window_tuples,
        }
    }
}

columns! {
    /// One reading of an [`OperatorMeter`] — a plain value that crosses
    /// threads and the wire (workers fold these into telemetry messages;
    /// the controller keys them into the run ledger).
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct OperatorSample {
        /// Tuples applied to the operator since launch.
        tuples_in: u64,
        /// Tuples emitted since launch.
        tuples_out: u64,
        /// Encoded batch-record bytes handed to the output routes since
        /// launch — what the edges carry, before the per-message frame.
        bytes_out: u64,
        /// Logical state size at the last snapshot.
        state_bytes: u64,
        /// Epoch of the most recent durable checkpoint (0 = none yet).
        ckpt_epoch: u64,
        /// Encoded bytes of that checkpoint (delta bytes if incremental).
        ckpt_bytes: u64,
        /// Whether that checkpoint was a delta rather than a full snapshot.
        ckpt_is_delta: bool,
        /// Token-alignment wait for the last checkpoint (window opened →
        /// window cut), µs. Zero for sources.
        align_wait_us: u64,
        /// The last checkpoint's capture on the host thread, µs.
        capture_us: u64,
        /// Stable-store write time for the last checkpoint, µs (a table
        /// view is encoded inside the write).
        persist_us: u64,
        /// Pages the operator's table copied on write between the last
        /// checkpoint's capture and the one before — the measured
        /// counterpart of the simulator's COW cost (`cow_overhead`).
        cow_pages_copied: u64,
        /// Bytes of the file the store wrote for that checkpoint (see
        /// [`CkptFile`]): a delta it rebased counts its full file here,
        /// while `ckpt_bytes` keeps the delta's size.
        file_bytes: u64,
        /// Whether that file is a delta link.
        file_is_delta: bool,
    }

    /// Lock-free per-operator (per-HAU) meter: the host thread and the
    /// persister thread bump it on their hot paths with relaxed atomics,
    /// and a sampler (the worker's heartbeat, and its durable-checkpoint
    /// acks) reads it concurrently. Collects the quantities the paper's
    /// evaluation plots per HAU: tuple flow, the state-size trace
    /// (Fig. 5), and the checkpoint phase breakdown (Fig. 14) with
    /// delta-vs-full byte accounting.
    ///
    /// Every column is an independent `AtomicU64`; a [`sample`] is
    /// advisory (columns may be from slightly different instants) but
    /// each counter is individually exact and monotone — a sampler can
    /// never observe a torn or decreasing total.
    ///
    /// Each column has exactly one writer: the host thread owns the flow
    /// counters and the state gauge (written at the snapshot cut), the
    /// persister thread owns the checkpoint columns. That contract lets
    /// the tuple-path increments be a relaxed load+store pair instead of
    /// an atomic read-modify-write — plain `mov`s on x86, keeping the
    /// metered hot path within the ≤2% throughput budget — while any
    /// number of samplers read concurrently.
    ///
    /// [`sample`]: OperatorMeter::sample
    #[derive(Debug, Default)]
    pub struct OperatorMeter;
}

/// The phases of one checkpoint, µs, in the paper's Fig. 14 order:
/// token alignment and the capture on the host thread, then the store
/// write on the persister.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CkptPhases {
    /// Window opened → cut. Zero for sources, which never align.
    pub align_us: u64,
    /// The capture itself, on the host thread: what a checkpoint holds
    /// the event loop for.
    pub capture_us: u64,
    /// The store write. A table view is encoded inside it; a ready
    /// snapshot was encoded on the host thread, inside `capture_us`.
    pub persist_us: u64,
}

/// The file a store wrote for one checkpoint. A store may rebase a
/// submitted delta into a full snapshot, so this can differ in kind
/// and size from the capture the host handed it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CkptFile {
    /// Bytes of the file, frame header included.
    pub bytes: u64,
    /// The file is a delta link (`false`: a full snapshot).
    pub delta: bool,
}

impl OperatorMeter {
    /// Creates a zeroed meter.
    pub fn new() -> OperatorMeter {
        OperatorMeter::default()
    }

    /// Counts `n` tuples applied to the operator. Host-thread only
    /// (the single-writer contract): the load+store pair is exact
    /// without an atomic read-modify-write.
    pub fn add_tuples_in(&self, n: u64) {
        let v = self.tuples_in.load(Ordering::Relaxed);
        self.tuples_in.store(v + n, Ordering::Relaxed);
    }

    /// Counts `n` emitted tuples that left on the output routes as
    /// `bytes` encoded batch-record bytes. Host-thread only, like
    /// [`add_tuples_in`].
    ///
    /// [`add_tuples_in`]: OperatorMeter::add_tuples_in
    pub fn add_tuples_out(&self, n: u64, bytes: u64) {
        let t = self.tuples_out.load(Ordering::Relaxed);
        self.tuples_out.store(t + n, Ordering::Relaxed);
        let b = self.bytes_out.load(Ordering::Relaxed);
        self.bytes_out.store(b + bytes, Ordering::Relaxed);
    }

    /// Records the operator's logical state size, sampled at snapshot
    /// time — the live feed for the paper's Fig. 5 state-size trace.
    pub fn set_state_bytes(&self, bytes: u64) {
        self.state_bytes.store(bytes, Ordering::Relaxed);
    }

    /// Records one durable checkpoint: its epoch, the encoded size and
    /// delta-vs-full kind of the capture submitted, its [`CkptPhases`],
    /// the pages its table copied on write since the capture before,
    /// and the [`CkptFile`] the store wrote. Called once per epoch from
    /// the persister after the write lands.
    pub fn record_checkpoint(
        &self,
        epoch: u64,
        bytes: u64,
        delta: bool,
        phases: CkptPhases,
        cow_pages_copied: u64,
        file: CkptFile,
    ) {
        self.ckpt_bytes.store(bytes, Ordering::Relaxed);
        self.ckpt_is_delta.store(delta.to_word(), Ordering::Relaxed);
        self.align_wait_us.store(phases.align_us, Ordering::Relaxed);
        self.capture_us.store(phases.capture_us, Ordering::Relaxed);
        self.persist_us.store(phases.persist_us, Ordering::Relaxed);
        self.cow_pages_copied
            .store(cow_pages_copied, Ordering::Relaxed);
        self.file_bytes.store(file.bytes, Ordering::Relaxed);
        self.file_is_delta
            .store(file.delta.to_word(), Ordering::Relaxed);
        // Epoch last: a sampler that sees the new epoch has, at worst,
        // gauge values at most one store behind it.
        self.ckpt_epoch.store(epoch, Ordering::Relaxed);
    }
}

/// Sub-bucket resolution of [`LatencyHistogram`]: each power-of-two
/// range is split into `2^SUB_BITS` linear sub-buckets, bounding the
/// relative quantile error at `2^-SUB_BITS` (6.25%).
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;

/// A fixed-bucket log-linear histogram over unit-agnostic `u64` ticks
/// (microseconds for [`DurationStats`], nanoseconds in benches that
/// need sub-µs resolution). Values below `2^SUB_BITS` get exact
/// single-value buckets; above that, buckets widen geometrically with
/// 16 linear sub-buckets per octave, so any quantile is reported
/// within ~6% of the true sample. Memory is bounded (≤ 976 counters)
/// and grows lazily from the low buckets, so an empty histogram is a
/// few words.
#[derive(Clone, Debug, Default)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    fn bucket_of(v: u64) -> usize {
        if v < SUB as u64 {
            v as usize
        } else {
            let exp = 63 - v.leading_zeros();
            let sub = ((v >> (exp - SUB_BITS)) as usize) - SUB;
            (exp - SUB_BITS) as usize * SUB + SUB + sub
        }
    }

    /// Inclusive upper bound of bucket `i` — what quantiles report, so
    /// percentile estimates never undershoot the true sample.
    fn bucket_high(i: usize) -> u64 {
        if i < SUB {
            i as u64
        } else {
            let oct = ((i - SUB) / SUB) as u32;
            let sub = ((i - SUB) % SUB) as u64;
            ((SUB as u64 + sub) << oct).saturating_add((1u64 << oct) - 1)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let i = LatencyHistogram::bucket_of(v);
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.total += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (`0.0..=1.0`) in the histogram's tick unit, or
    /// zero when empty. Reports the containing bucket's upper bound.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cum = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return LatencyHistogram::bucket_high(i);
            }
        }
        LatencyHistogram::bucket_high(self.counts.len().saturating_sub(1))
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// Streaming summary of a sequence of duration samples, including
/// fixed-bucket percentiles (see [`LatencyHistogram`]).
#[derive(Clone, Debug, Default)]
pub struct DurationStats {
    count: u64,
    sum_us: u128,
    min_us: u64,
    max_us: u64,
    hist: LatencyHistogram,
}

impl DurationStats {
    /// Creates an empty summary.
    pub fn new() -> DurationStats {
        DurationStats {
            count: 0,
            sum_us: 0,
            min_us: u64::MAX,
            max_us: 0,
            hist: LatencyHistogram::new(),
        }
    }

    /// Records one sample.
    pub fn record(&mut self, d: SimDuration) {
        let us = d.as_micros();
        self.count += 1;
        self.sum_us += us as u128;
        self.min_us = self.min_us.min(us);
        self.max_us = self.max_us.max(us);
        self.hist.record(us);
    }

    /// The `q`-quantile (`0.0..=1.0`), within ~6% relative error,
    /// clamped to the observed maximum. Zero when empty.
    pub fn quantile(&self, q: f64) -> SimDuration {
        SimDuration::from_micros(self.hist.quantile(q).min(self.max_us))
    }

    /// Median sample.
    pub fn p50(&self) -> SimDuration {
        self.quantile(0.50)
    }

    /// 95th-percentile sample.
    pub fn p95(&self) -> SimDuration {
        self.quantile(0.95)
    }

    /// 99th-percentile sample.
    pub fn p99(&self) -> SimDuration {
        self.quantile(0.99)
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean sample, or zero when empty.
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_micros((self.sum_us / self.count as u128) as u64)
        }
    }

    /// Smallest sample, or zero when empty.
    pub fn min(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_micros(self.min_us)
        }
    }

    /// Largest sample.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_micros(self.max_us)
    }
}

/// A `(time, value)` series, e.g. state size over time (Fig. 5) or
/// instantaneous latency during a checkpoint (Fig. 15).
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> TimeSeries {
        TimeSeries::default()
    }

    /// Appends a point. Times must be non-decreasing; a timestamp that
    /// precedes the last recorded point is clamped to the last point's
    /// time, so wall-clock jitter across workers (or a stepped clock)
    /// cannot break the sorted-order invariant [`interpolate`] and the
    /// ledger series rely on. Used to be a debug-only assertion, which
    /// let release builds silently record out-of-order times.
    ///
    /// [`interpolate`]: TimeSeries::interpolate
    pub fn push(&mut self, t: SimTime, v: f64) {
        let t = match self.points.last() {
            Some(&(last, _)) if t < last => last,
            _ => t,
        };
        self.points.push((t, v));
    }

    /// The recorded points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no points were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Mean of the values (time-unweighted), or zero when empty.
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            0.0
        } else {
            self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64
        }
    }

    /// Largest value, or zero when empty.
    pub fn max(&self) -> f64 {
        self.points.iter().map(|&(_, v)| v).fold(0.0, f64::max)
    }

    /// Smallest value, or zero when empty.
    pub fn min(&self) -> f64 {
        if self.points.is_empty() {
            0.0
        } else {
            self.points.iter().map(|&(_, v)| v).fold(f64::MAX, f64::min)
        }
    }

    /// Indices of strict local minima (the red circles of Fig. 5).
    /// Plateau edges are treated as minima if both strict neighbours
    /// are larger.
    pub fn local_minima(&self) -> Vec<usize> {
        let v = &self.points;
        let n = v.len();
        let mut out = Vec::new();
        for i in 0..n {
            let left_greater = (0..i).rev().find(|&j| v[j].1 != v[i].1);
            let right_greater = (i + 1..n).find(|&j| v[j].1 != v[i].1);
            let left_ok = left_greater.is_some_and(|j| v[j].1 > v[i].1);
            let right_ok = right_greater.is_some_and(|j| v[j].1 > v[i].1);
            if left_ok && right_ok {
                out.push(i);
            }
        }
        out
    }

    /// Linear interpolation between recorded points; clamps outside the
    /// domain. Matches the paper's reconstruction of state size between
    /// turning points (§III-C2).
    pub fn interpolate(&self, t: SimTime) -> f64 {
        match self.points.as_slice() {
            [] => 0.0,
            [(_, v)] => *v,
            points => {
                if t <= points[0].0 {
                    return points[0].1;
                }
                if t >= points[points.len() - 1].0 {
                    return points[points.len() - 1].1;
                }
                let i = points.partition_point(|&(pt, _)| pt <= t);
                let (t0, v0) = points[i - 1];
                let (t1, v1) = points[i];
                if t1 == t0 {
                    return v1;
                }
                let frac = (t.as_micros() - t0.as_micros()) as f64
                    / (t1.as_micros() - t0.as_micros()) as f64;
                v0 + (v1 - v0) * frac
            }
        }
    }
}

/// A labelled breakdown of one measured duration into phases — used for
/// checkpoint time (token collection / disk I/O / other, Fig. 14) and
/// recovery time (reconnection / disk I/O / other, Fig. 16).
#[derive(Clone, Debug, Default)]
pub struct Breakdown {
    parts: Vec<(String, SimDuration)>,
}

impl Breakdown {
    /// Creates an empty breakdown.
    pub fn new() -> Breakdown {
        Breakdown::default()
    }

    /// Adds `d` to the phase named `label` (creating it if new).
    pub fn add(&mut self, label: &str, d: SimDuration) {
        if let Some(entry) = self.parts.iter_mut().find(|(l, _)| l == label) {
            entry.1 += d;
        } else {
            self.parts.push((label.to_string(), d));
        }
    }

    /// The phase durations, in insertion order.
    pub fn parts(&self) -> &[(String, SimDuration)] {
        &self.parts
    }

    /// Duration of one phase (zero if absent).
    pub fn get(&self, label: &str) -> SimDuration {
        self.parts
            .iter()
            .find(|(l, _)| l == label)
            .map_or(SimDuration::ZERO, |(_, d)| *d)
    }

    /// Sum over all phases.
    pub fn total(&self) -> SimDuration {
        self.parts
            .iter()
            .fold(SimDuration::ZERO, |acc, (_, d)| acc + *d)
    }
}

/// Throughput/latency aggregates for one run.
///
/// Throughput counts every data tuple *processed* by the application
/// ("the number of tuples processed by the application within a
/// 10-minute time window", §IV-A). Latency is end-to-end: it is
/// sampled wherever a tuple is terminally consumed — at a sink, or at
/// an absorbing operator (e.g. a windowed kernel pooling its input).
#[derive(Clone, Debug, Default)]
pub struct RunMetrics {
    /// Data tuples processed by any operator inside the window.
    pub processed_tuples: u64,
    /// Tuples terminally consumed (sink arrivals + absorptions).
    pub sink_tuples: u64,
    /// Source-to-consumption latency of those tuples.
    pub latency: DurationStats,
    /// Instantaneous latency samples `(arrival time, latency seconds)`.
    pub instantaneous_latency: TimeSeries,
}

impl RunMetrics {
    /// Creates empty metrics.
    pub fn new() -> RunMetrics {
        RunMetrics::default()
    }

    /// Counts one processed data tuple.
    pub fn record_processed(&mut self) {
        self.processed_tuples += 1;
    }

    /// Records one terminal consumption (sink arrival or absorption).
    pub fn record_sink_arrival(&mut self, now: SimTime, emitted: SimTime) {
        self.record_completion(now, now.saturating_since(emitted));
    }

    /// Records a terminal consumption observed at `observed_at` with an
    /// explicit end-to-end latency. `observed_at` must be non-decreasing
    /// across calls (use the observation instant, not the completion
    /// instant, when several workers finish out of order).
    pub fn record_completion(&mut self, observed_at: SimTime, latency: SimDuration) {
        self.sink_tuples += 1;
        self.latency.record(latency);
        self.instantaneous_latency
            .push(observed_at, latency.as_secs_f64());
    }

    /// Throughput over a window, in processed tuples/second.
    pub fn throughput(&self, window: SimDuration) -> f64 {
        if window == SimDuration::ZERO {
            0.0
        } else {
            self.processed_tuples as f64 / window.as_secs_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backpressure_gauges_merge() {
        let a = BackpressureGauges {
            queued_tuples: 12,
            open_windows: 2,
            window_tuples: 7,
        };
        assert_eq!(a.merge(&BackpressureGauges::default()), a);
        let b = BackpressureGauges {
            queued_tuples: 3,
            open_windows: 1,
            window_tuples: 0,
        };
        let merged = a.merge(&b);
        assert_eq!(merged.queued_tuples, 15);
        assert_eq!(merged.open_windows, 3);
        assert_eq!(merged.window_tuples, 7);
    }

    #[test]
    fn duration_stats() {
        let mut s = DurationStats::new();
        assert_eq!(s.mean(), SimDuration::ZERO);
        s.record(SimDuration::from_secs(1));
        s.record(SimDuration::from_secs(3));
        assert_eq!(s.count(), 2);
        assert_eq!(s.mean(), SimDuration::from_secs(2));
        assert_eq!(s.min(), SimDuration::from_secs(1));
        assert_eq!(s.max(), SimDuration::from_secs(3));
    }

    #[test]
    fn histogram_small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 15);
        // Exact single-value buckets below 2^SUB_BITS.
        for v in 0..16u64 {
            let mut one = LatencyHistogram::new();
            one.record(v);
            assert_eq!(one.p50(), v);
        }
    }

    #[test]
    fn histogram_quantiles_within_relative_error() {
        let mut h = LatencyHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (q, exact) in [(0.50, 5_000u64), (0.95, 9_500), (0.99, 9_900)] {
            let est = h.quantile(q);
            assert!(
                est >= exact && est as f64 <= exact as f64 * 1.07,
                "q={q}: est {est} vs exact {exact}"
            );
        }
        // Empty histogram reports zero.
        assert_eq!(LatencyHistogram::new().quantile(0.99), 0);
        // Huge values don't overflow the bucket math.
        let mut big = LatencyHistogram::new();
        big.record(u64::MAX);
        assert!(big.p99() >= u64::MAX / 16 * 15);
    }

    #[test]
    fn duration_stats_percentiles() {
        let mut s = DurationStats::new();
        for ms in 1..=1000u64 {
            s.record(SimDuration::from_millis(ms));
        }
        let p50 = s.p50().as_micros();
        let p99 = s.p99().as_micros();
        assert!((500_000..=535_000).contains(&p50), "p50 {p50}");
        assert!((990_000..=1_000_000).contains(&p99), "p99 {p99}");
        // Percentiles never exceed the observed maximum.
        assert!(s.p99() <= s.max());
        assert_eq!(DurationStats::new().p99(), SimDuration::ZERO);
    }

    #[test]
    fn operator_meter_counts() {
        let m = OperatorMeter::new();
        assert_eq!(m.sample(), OperatorSample::default());
        m.add_tuples_in(3);
        m.add_tuples_out(2, 64);
        m.set_state_bytes(1024);
        let phases = |align_us, capture_us, persist_us| CkptPhases {
            align_us,
            capture_us,
            persist_us,
        };
        let file = |bytes, delta| CkptFile { bytes, delta };
        m.record_checkpoint(7, 256, true, phases(10, 5, 30), 4, file(270, true));
        let s = m.sample();
        assert_eq!(s.tuples_in, 3);
        assert_eq!(s.tuples_out, 2);
        assert_eq!(s.bytes_out, 64);
        assert_eq!(s.state_bytes, 1024);
        assert_eq!(s.ckpt_epoch, 7);
        assert_eq!(s.ckpt_bytes, 256);
        assert!(s.ckpt_is_delta);
        assert_eq!((s.align_wait_us, s.capture_us, s.persist_us), (10, 5, 30));
        assert_eq!(s.cow_pages_copied, 4);
        assert_eq!((s.file_bytes, s.file_is_delta), (270, true));
        m.record_checkpoint(8, 4096, false, phases(1, 1, 3), 0, file(4108, false));
        assert_eq!(
            (m.sample().file_bytes, m.sample().file_is_delta),
            (4108, false)
        );
        assert!(!m.sample().ckpt_is_delta);
    }

    #[test]
    fn columns_are_their_words_in_declaration_order() {
        let s = OperatorSample {
            tuples_in: 1,
            ckpt_is_delta: true,
            file_bytes: 7,
            ..OperatorSample::default()
        };
        let mut words = Vec::new();
        s.put_words(|w| words.push(w));
        assert_eq!(words.len(), OperatorSample::NAMES.len());
        let at = |name| {
            OperatorSample::NAMES
                .iter()
                .position(|n| *n == name)
                .unwrap()
        };
        assert_eq!(
            (
                words[at("tuples_in")],
                words[at("ckpt_is_delta")],
                words[at("file_bytes")]
            ),
            (1, 1, 7)
        );
        assert_eq!(words.iter().sum::<u64>(), 9);
        let mut it = words.into_iter();
        let back = OperatorSample::from_words(|| it.next().ok_or(()));
        assert_eq!(back, Ok(s));
        // Too few words is the reader's error, passed through.
        assert_eq!(
            BackpressureGauges::from_words(|| Err::<u64, _>("short")),
            Err("short")
        );
    }

    #[test]
    fn operator_meter_concurrent_updates_never_tear() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        const TUPLES: u64 = 200_000;
        const EPOCHS: u64 = 200;
        let meter = Arc::new(OperatorMeter::new());
        let done = Arc::new(AtomicBool::new(false));

        let sampler = {
            let meter = Arc::clone(&meter);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut last = OperatorSample::default();
                let mut reads = 0u64;
                while !done.load(Ordering::Acquire) {
                    let s = meter.sample();
                    // Counters are monotone: a torn or word-sliced read
                    // would show up as a decrease.
                    assert!(s.tuples_in >= last.tuples_in);
                    assert!(s.tuples_out >= last.tuples_out);
                    assert!(s.bytes_out >= last.bytes_out);
                    assert!(s.ckpt_epoch >= last.ckpt_epoch);
                    last = s;
                    reads += 1;
                }
                reads
            })
        };

        // The real writer topology (the single-writer contract): the
        // host thread owns the flow counters and the state gauge (set at
        // the cut), the persister thread owns the checkpoint columns,
        // and the sampler races both.
        let host = {
            let meter = Arc::clone(&meter);
            std::thread::spawn(move || {
                for i in 0..TUPLES {
                    meter.add_tuples_in(1);
                    meter.add_tuples_out(1, 8);
                    meter.set_state_bytes(i);
                }
            })
        };
        let persister = {
            let meter = Arc::clone(&meter);
            std::thread::spawn(move || {
                for e in 1..=EPOCHS {
                    meter.record_checkpoint(
                        e,
                        100,
                        false,
                        CkptPhases::default(),
                        0,
                        CkptFile::default(),
                    );
                }
            })
        };
        host.join().unwrap();
        persister.join().unwrap();
        done.store(true, Ordering::Release);
        assert!(sampler.join().unwrap() > 0, "sampler observed the run");

        let s = meter.sample();
        assert_eq!(s.tuples_in, TUPLES);
        assert_eq!(s.tuples_out, TUPLES);
        assert_eq!(s.bytes_out, TUPLES * 8);
        assert_eq!(s.ckpt_epoch, EPOCHS);
        assert_eq!(s.state_bytes, TUPLES - 1);
        assert_eq!(s.ckpt_bytes, 100);
    }

    #[test]
    fn time_series_stats_and_minima() {
        let mut ts = TimeSeries::new();
        let vals = [5.0, 3.0, 4.0, 1.0, 2.0];
        for (i, v) in vals.iter().enumerate() {
            ts.push(SimTime::from_secs(i as u64), *v);
        }
        assert_eq!(ts.mean(), 3.0);
        assert_eq!(ts.max(), 5.0);
        assert_eq!(ts.min(), 1.0);
        assert_eq!(ts.local_minima(), vec![1, 3]);
    }

    #[test]
    fn out_of_order_push_is_clamped() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_secs(5), 1.0);
        ts.push(SimTime::from_secs(3), 2.0); // behind: clamped to t=5
        ts.push(SimTime::from_secs(7), 3.0);
        assert_eq!(
            ts.points(),
            &[
                (SimTime::from_secs(5), 1.0),
                (SimTime::from_secs(5), 2.0),
                (SimTime::from_secs(7), 3.0),
            ]
        );
        // The series stays sorted, so interpolation still works.
        assert_eq!(ts.interpolate(SimTime::from_secs(6)), 2.5);
    }

    #[test]
    fn minima_handles_plateaus() {
        let mut ts = TimeSeries::new();
        for (i, v) in [3.0, 1.0, 1.0, 2.0].iter().enumerate() {
            ts.push(SimTime::from_secs(i as u64), *v);
        }
        // Both plateau points qualify: nearest differing neighbours are
        // larger on each side.
        assert_eq!(ts.local_minima(), vec![1, 2]);
    }

    #[test]
    fn interpolation() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_secs(0), 0.0);
        ts.push(SimTime::from_secs(10), 100.0);
        assert_eq!(ts.interpolate(SimTime::from_secs(5)), 50.0);
        assert_eq!(ts.interpolate(SimTime::from_secs(20)), 100.0);
        assert_eq!(ts.interpolate(SimTime::ZERO), 0.0);
    }

    #[test]
    fn breakdown_accumulates() {
        let mut b = Breakdown::new();
        b.add("disk", SimDuration::from_secs(2));
        b.add("disk", SimDuration::from_secs(1));
        b.add("other", SimDuration::from_secs(4));
        assert_eq!(b.get("disk"), SimDuration::from_secs(3));
        assert_eq!(b.total(), SimDuration::from_secs(7));
        assert_eq!(b.get("missing"), SimDuration::ZERO);
    }

    #[test]
    fn run_metrics_throughput() {
        let mut m = RunMetrics::new();
        m.record_processed();
        m.record_processed();
        m.record_sink_arrival(SimTime::from_secs(2), SimTime::from_secs(1));
        m.record_sink_arrival(SimTime::from_secs(4), SimTime::from_secs(1));
        assert_eq!(m.sink_tuples, 2);
        assert_eq!(m.processed_tuples, 2);
        assert_eq!(m.throughput(SimDuration::from_secs(2)), 1.0);
        assert_eq!(m.latency.mean(), SimDuration::from_secs(2));
    }
}
