//! Gateway telemetry: lock-light counters the event loop bumps on the
//! hot path and samples into each heartbeat for the controller (which
//! folds them into the run ledger).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use ms_core::metrics::LatencyHistogram;

/// Cumulative gateway counters (process-lifetime, like
/// [`ms_core::metrics::OperatorMeter`]): the consumer diffs or keeps
/// the freshest sample.
#[derive(Default)]
pub struct GateMeter {
    accepted_batches: AtomicU64,
    shed_batches: AtomicU64,
    accepted_events: AtomicU64,
    emitted_tuples: AtomicU64,
    wal_bytes: AtomicU64,
    ack_us: Mutex<LatencyHistogram>,
}

/// One point-in-time reading of a [`GateMeter`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GateSample {
    /// Batches admitted (WAL'd and acked `Accepted`).
    pub accepted_batches: u64,
    /// Batches shed at admission (acked `Busy`, nothing logged).
    pub shed_batches: u64,
    /// Raw producer events inside accepted batches.
    pub accepted_events: u64,
    /// Tuples emitted onto engine edges (under pre-aggregation this is
    /// what shrank relative to `accepted_events`).
    pub emitted_tuples: u64,
    /// Bytes appended to the preservation log.
    pub wal_bytes: u64,
    /// Median admission-to-ack latency, µs.
    pub ack_p50_us: u64,
    /// 99th-percentile admission-to-ack latency, µs.
    pub ack_p99_us: u64,
}

impl GateMeter {
    /// A zeroed meter.
    pub fn new() -> GateMeter {
        GateMeter::default()
    }

    /// Records one accepted batch: its raw event count and the tuples
    /// it emitted.
    pub fn record_accept(&self, events: u64, tuples: u64) {
        self.accepted_batches.fetch_add(1, Ordering::Relaxed);
        self.accepted_events.fetch_add(events, Ordering::Relaxed);
        self.emitted_tuples.fetch_add(tuples, Ordering::Relaxed);
    }

    /// Records the bytes one group append wrote to the preservation log.
    pub fn record_wal_bytes(&self, bytes: u64) {
        self.wal_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one admission-shed batch.
    pub fn record_shed(&self) {
        self.shed_batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one batch's admission-to-ack latency.
    pub fn record_ack_us(&self, us: u64) {
        self.ack_us.lock().expect("ack histogram lock").record(us);
    }

    /// A point-in-time sample.
    pub fn sample(&self) -> GateSample {
        let h = self.ack_us.lock().expect("ack histogram lock");
        GateSample {
            accepted_batches: self.accepted_batches.load(Ordering::Relaxed),
            shed_batches: self.shed_batches.load(Ordering::Relaxed),
            accepted_events: self.accepted_events.load(Ordering::Relaxed),
            emitted_tuples: self.emitted_tuples.load(Ordering::Relaxed),
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
            ack_p50_us: h.p50(),
            ack_p99_us: h.p99(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_reflects_recorded_activity() {
        let m = GateMeter::new();
        m.record_accept(16, 4);
        m.record_accept(16, 3);
        m.record_wal_bytes(512);
        m.record_wal_bytes(400);
        m.record_shed();
        m.record_ack_us(100);
        m.record_ack_us(200);
        let s = m.sample();
        assert_eq!(s.accepted_batches, 2);
        assert_eq!(s.shed_batches, 1);
        assert_eq!(s.accepted_events, 32);
        assert_eq!(s.emitted_tuples, 7);
        assert_eq!(s.wal_bytes, 912);
        assert!(s.ack_p50_us > 0);
        assert!(s.ack_p99_us >= s.ack_p50_us);
    }
}
