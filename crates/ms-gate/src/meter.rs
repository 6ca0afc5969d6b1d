//! Gateway telemetry: counters the gate bumps on its hot path, owned by
//! the gate like the rest of its state. The worker's I/O thread, which
//! runs the gate, samples them into each heartbeat for the controller
//! (which folds them into the run ledger).

use ms_core::metrics::LatencyHistogram;

/// Cumulative gateway counters (since the gate started): the consumer
/// keeps the freshest sample.
#[derive(Default)]
pub(crate) struct GateMeter {
    accepted_batches: u64,
    shed_batches: u64,
    wal_bytes: u64,
    ack_us: LatencyHistogram,
}

ms_core::columns! {
    /// One point-in-time reading of a gate's meter.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct GateSample {
        /// Batches admitted (WAL'd and acked `Accepted`).
        accepted_batches: u64,
        /// Batches shed at admission (acked `Busy`, nothing logged).
        shed_batches: u64,
        /// Bytes appended to the preservation log.
        wal_bytes: u64,
        /// Median admission-to-ack latency, µs.
        ack_p50_us: u64,
        /// 99th-percentile admission-to-ack latency, µs.
        ack_p99_us: u64,
    }
}

impl GateMeter {
    /// Records one accepted batch.
    pub(crate) fn record_accept(&mut self) {
        self.accepted_batches += 1;
    }

    /// Records the bytes one group append wrote to the preservation log.
    pub(crate) fn record_wal_bytes(&mut self, bytes: u64) {
        self.wal_bytes += bytes;
    }

    /// Records one admission-shed batch.
    pub(crate) fn record_shed(&mut self) {
        self.shed_batches += 1;
    }

    /// Records one batch's admission-to-ack latency.
    pub(crate) fn record_ack_us(&mut self, us: u64) {
        self.ack_us.record(us);
    }

    /// A point-in-time sample.
    pub(crate) fn sample(&self) -> GateSample {
        GateSample {
            accepted_batches: self.accepted_batches,
            shed_batches: self.shed_batches,
            wal_bytes: self.wal_bytes,
            ack_p50_us: self.ack_us.p50(),
            ack_p99_us: self.ack_us.p99(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_reflects_recorded_activity() {
        let mut m = GateMeter::default();
        m.record_accept();
        m.record_accept();
        m.record_wal_bytes(512);
        m.record_wal_bytes(400);
        m.record_shed();
        m.record_ack_us(100);
        m.record_ack_us(200);
        let s = m.sample();
        assert_eq!(s.accepted_batches, 2);
        assert_eq!(s.shed_batches, 1);
        assert_eq!(s.wal_bytes, 912);
        assert!(s.ack_p50_us > 0);
        assert!(s.ack_p99_us >= s.ack_p50_us);
    }
}
