//! FIFO bandwidth devices.

use ms_core::time::{transfer_time, SimDuration, SimTime};

/// A device that serializes accesses FIFO at a fixed bandwidth — the
/// single queueing model shared by the storage node's disk array and
/// each compute node's local disk. Contention emerges naturally: when
/// 55 HAUs checkpoint at once (MS-src+ap), their writes queue here and
/// the slowest individual checkpoint observes the full backlog, exactly
/// the effect Fig. 14 measures.
#[derive(Clone, Debug)]
pub struct BwDevice {
    bandwidth: u64,
    overhead: SimDuration,
    busy_until: SimTime,
    bytes_total: u64,
}

impl BwDevice {
    /// Creates a device with the given bandwidth (bytes/second) and
    /// fixed per-access overhead.
    pub fn new(bandwidth: u64, overhead: SimDuration) -> BwDevice {
        BwDevice {
            bandwidth,
            overhead,
            busy_until: SimTime::ZERO,
            bytes_total: 0,
        }
    }

    /// Enqueues an access of `bytes` at `now`; returns
    /// `(start, completion)`.
    pub fn access(&mut self, now: SimTime, bytes: u64) -> (SimTime, SimTime) {
        let start = now.max(self.busy_until);
        let done = start + self.overhead + transfer_time(bytes, self.bandwidth);
        self.busy_until = done;
        self.bytes_total += bytes;
        (start, done)
    }

    /// Completion time only (common case).
    pub fn access_done(&mut self, now: SimTime, bytes: u64) -> SimTime {
        self.access(now, bytes).1
    }

    /// The instant the device drains its current queue.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Total bytes moved.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_total
    }

    /// Resets queue state (device replaced after a node restart).
    pub fn reset(&mut self) {
        self.busy_until = SimTime::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> BwDevice {
        // 1 MB/s, 1 ms overhead.
        BwDevice::new(1_000_000, SimDuration::from_millis(1))
    }

    #[test]
    fn single_access_cost() {
        let mut d = dev();
        let (start, done) = d.access(SimTime::ZERO, 500_000);
        assert_eq!(start, SimTime::ZERO);
        // 1 ms overhead + 0.5 s transfer.
        assert_eq!(done, SimTime::from_micros(501_000));
    }

    #[test]
    fn fifo_queueing() {
        let mut d = dev();
        let first = d.access_done(SimTime::ZERO, 1_000_000);
        let (start2, done2) = d.access(SimTime::ZERO, 1_000_000);
        assert_eq!(start2, first);
        assert!(done2 > first);
    }

    #[test]
    fn idle_gap_is_not_charged() {
        let mut d = dev();
        d.access(SimTime::ZERO, 1_000_000);
        // Arriving long after the queue drained starts immediately.
        let (start, _) = d.access(SimTime::from_secs(100), 1);
        assert_eq!(start, SimTime::from_secs(100));
    }

    #[test]
    fn counters() {
        let mut d = dev();
        d.access(SimTime::ZERO, 100);
        d.access(SimTime::ZERO, 200);
        assert_eq!(d.bytes_total(), 300);
        // Two accesses: two 1 ms overheads on top of 300 µs of transfer.
        assert_eq!(d.busy_until(), SimTime::from_micros(2_300));
    }
}
