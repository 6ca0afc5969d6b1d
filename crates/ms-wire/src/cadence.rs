//! The controller's live telemetry plane: application-aware checkpoint
//! initiation plus adaptive cadence.
//!
//! The simulator proved out the paper's §III-C timing logic against
//! replayed traces; this module puts the same decision procedure behind
//! the *running* cluster. Worker heartbeats already carry per-operator
//! [`state_bytes`](ms_core::metrics::OperatorSample::state_bytes)
//! gauges every 50 ms — far finer than the checkpoint period — so the
//! controller can feed them straight into a [`LiveProfiler`] and let
//! the §III-C classifier pick barrier instants at detected aggregate
//! state minima instead of a blind timer.
//!
//! Layered on top (and usable independently) is the *cadence*
//! controller: after every barrier close it re-estimates worst-case
//! recovery time from measured ledger signals — checkpoint restore at
//! the observed persist rate, plus one replay window — and widens or
//! narrows the checkpoint period multiplicatively to track a
//! configured recovery-time budget. Every initiation and every cadence
//! move is written to the run ledger as a
//! [`DecisionRecord`](crate::ledger::DecisionRecord), so `ms_ledger
//! --follow` shows the plane thinking in real time.
//!
//! Wall-clock never leaks into the decision logic: the plane reads no
//! clock, it is handed the instant of every call and stamps samples
//! onto a [`SimTime`] axis anchored at its construction, which keeps
//! the live path byte-for-byte the same classifier the simulator (and
//! the trace-replay tests) exercise. Without `--aware` and a budget
//! the plane is just the fixed timer, so the controller has one
//! initiation path whatever its flags.

use std::time::{Duration, Instant};

use ms_core::aware::{AwareAction, CheckpointReason, LiveAwareConfig, LivePhase, LiveProfiler};
use ms_core::ids::{HauId, OperatorId};
use ms_core::time::{SimDuration, SimTime};

use crate::ledger::DecisionRecord;

/// The adaptive period may narrow to 1/4 of the configured interval…
const MIN_PERIOD_DIV: u32 = 4;
/// …and widen to 8× it. Both bounds are relative so one flag move
/// rescales the whole envelope.
const MAX_PERIOD_MUL: u32 = 8;
/// Narrowing halves the period: recovery estimates over budget mean
/// real exposure, so the response is aggressive.
const NARROW_FACTOR: f64 = 0.5;
/// Widening is gentler (×1.25): overhead saved by a longer period is
/// linear, while the cost of overshooting the budget is an SLO miss.
const WIDEN_FACTOR: f64 = 1.25;

/// Static configuration for the telemetry plane, split out of
/// [`ControllerConfig`](crate::ControllerConfig) so the plane can be
/// unit-tested without a cluster.
#[derive(Debug, Clone)]
pub struct PlaneConfig {
    /// Drive barrier initiation from the §III-C profiler (vs the
    /// fixed timer).
    pub aware: bool,
    /// Profiler sampling/evaluation cadence (paper: one round per
    /// sub-epoch sample interval).
    pub sample_interval: Duration,
    /// How many whole periods the profiling phase observes before the
    /// live classifier arms.
    pub profile_periods: u32,
    /// The configured checkpoint period — the cadence layer's starting
    /// point and the anchor for its min/max envelope.
    pub period: Duration,
    /// Recovery-time budget; `Some` enables the adaptive cadence layer.
    pub recovery_budget: Option<Duration>,
}

/// Why the controller initiated a checkpoint barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointCause {
    /// Fixed-period (or profiling-phase fallback) timer expiry.
    Timer,
    /// The live §III-C classifier fired.
    Aware(CheckpointReason),
}

impl CheckpointCause {
    /// The ledger reason code for this cause.
    pub fn as_str(&self) -> &'static str {
        match self {
            CheckpointCause::Timer => "timer",
            CheckpointCause::Aware(r) => r.as_str(),
        }
    }
}

/// Measured signals from one closed barrier, aggregated over the
/// `latest` heartbeat map the controller already keeps.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpochSignals {
    /// Deployment generation the barrier closed in.
    pub generation: u64,
    /// The epoch that closed.
    pub epoch: u64,
    /// Sum of live state across operators (bytes).
    pub state_bytes: u64,
    /// Sum of checkpoint bytes written for this epoch.
    pub ckpt_bytes: u64,
    /// Token-injection → last-ack barrier latency (µs).
    pub barrier_us: u64,
    /// Slowest operator's persist time for this epoch (µs) — with
    /// `ckpt_bytes` this yields the store's effective write rate.
    pub persist_us: u64,
}

/// The live telemetry plane the controller consults from its event
/// loop. Owns the [`LiveProfiler`] (when `--aware`) and the cadence
/// state (when `--recovery-budget-ms`); either half works alone.
pub struct TelemetryPlane {
    started: Instant,
    profiler: Option<LiveProfiler>,
    budget: Option<Duration>,
    period: Duration,
    min_period: Duration,
    max_period: Duration,
}

impl TelemetryPlane {
    /// Builds the plane at `now`; call once per controller process,
    /// before the first deployment.
    pub fn new(cfg: &PlaneConfig, now: Instant) -> TelemetryPlane {
        let profiler = cfg.aware.then(|| {
            LiveProfiler::new(LiveAwareConfig {
                period: SimDuration::from_micros(cfg.period.as_micros() as u64),
                profile_periods: cfg.profile_periods,
                sample_interval: SimDuration::from_micros(cfg.sample_interval.as_micros() as u64),
                ..LiveAwareConfig::default()
            })
        });
        TelemetryPlane {
            started: now,
            profiler,
            budget: cfg.recovery_budget,
            period: cfg.period,
            min_period: cfg.period / MIN_PERIOD_DIV,
            max_period: cfg.period * MAX_PERIOD_MUL,
        }
    }

    /// The checkpoint period currently in force (adaptive, when a
    /// budget is set; otherwise the configured constant).
    pub fn period(&self) -> Duration {
        self.period
    }

    /// True once the profiler has finished its observation window and
    /// the §III-C classifier is armed.
    pub fn executing(&self) -> bool {
        self.profiler
            .as_ref()
            .is_some_and(|p| p.phase() == LivePhase::Executing)
    }

    fn sim_time(&self, now: Instant) -> SimTime {
        SimTime::from_micros(now.saturating_duration_since(self.started).as_micros() as u64)
    }

    /// Feeds one heartbeat state-size gauge, received at `now`, into
    /// the profiler. Stale/duplicate deliveries are dropped by the
    /// profiler itself.
    pub fn ingest(&mut self, now: Instant, op: OperatorId, state_bytes: u64) {
        self.ingest_at(self.sim_time(now), op, state_bytes);
    }

    fn ingest_at(&mut self, now: SimTime, op: OperatorId, state_bytes: u64) {
        if let Some(p) = &mut self.profiler {
            p.ingest(now, HauId(op.0), state_bytes);
        }
    }

    /// Asks the plane whether to initiate a barrier at `now`.
    /// `since_last` is wall time since the previous initiation. At most
    /// one cause per call; the controller only calls this with no
    /// barrier outstanding.
    pub fn poll(&mut self, now: Instant, since_last: Duration) -> Option<CheckpointCause> {
        self.poll_at(self.sim_time(now), since_last)
    }

    fn poll_at(&mut self, now: SimTime, since_last: Duration) -> Option<CheckpointCause> {
        if let Some(p) = &mut self.profiler {
            if let AwareAction::Checkpoint(reason) = p.poll(now) {
                return Some(CheckpointCause::Aware(reason));
            }
            // During the profiling phase nothing else would checkpoint,
            // so the plain timer keeps the cluster durable until the
            // classifier arms.
            if p.phase() == LivePhase::Profiling && since_last >= self.period {
                return Some(CheckpointCause::Timer);
            }
            None
        } else {
            (since_last >= self.period).then_some(CheckpointCause::Timer)
        }
    }

    /// A ledger decision row stamped with the budget and the period in
    /// force (unchanged); the caller fills in what it measured.
    pub fn decision(&self, generation: u64, epoch: u64, reason: &str) -> DecisionRecord {
        DecisionRecord {
            generation,
            epoch,
            reason: reason.to_string(),
            budget_us: self.budget.map_or(0, |b| b.as_micros() as u64),
            period_us_before: self.period.as_micros() as u64,
            period_us_after: self.period.as_micros() as u64,
            ..DecisionRecord::default()
        }
    }

    /// Builds the ledger decision row for a barrier the plane just
    /// initiated, `timer` included.
    pub fn initiation_record(
        &self,
        generation: u64,
        epoch: u64,
        cause: CheckpointCause,
    ) -> DecisionRecord {
        DecisionRecord {
            state_bytes: self
                .profiler
                .as_ref()
                .map_or(0, LiveProfiler::total_state_bytes),
            ..self.decision(generation, epoch, cause.as_str())
        }
    }

    /// Re-evaluates the cadence from one closed barrier's signals.
    /// Returns the decision row to append (`widen`/`narrow`/`hold`),
    /// or `None` when no budget is configured.
    pub fn on_barrier_close(&mut self, sig: &EpochSignals) -> Option<DecisionRecord> {
        let budget = self.budget?;
        let budget_us = budget.as_micros() as u64;
        // Worst-case recovery = restore the latest complete checkpoint
        // chain + replay one full period of source log. Restore speed
        // is approximated by this epoch's measured persist rate (the
        // store is symmetric enough on localhost; on a real rack the
        // read rate would be sampled the same way).
        let restore_us = if sig.persist_us > 0 && sig.ckpt_bytes > 0 {
            (sig.state_bytes as f64 * sig.persist_us as f64 / sig.ckpt_bytes as f64) as u64
        } else {
            0
        };
        let est_recovery_us = restore_us + self.period.as_micros() as u64;

        let before = self.period;
        let target = if est_recovery_us > budget_us {
            mul_duration(before, NARROW_FACTOR)
        } else if est_recovery_us.saturating_mul(2) < budget_us {
            // Hysteresis: only widen when comfortably under budget, so
            // the period doesn't oscillate around the boundary.
            mul_duration(before, WIDEN_FACTOR)
        } else {
            before
        };
        let after = target.clamp(self.min_period, self.max_period);
        let reason = if after > before {
            "widen"
        } else if after < before {
            "narrow"
        } else {
            "hold"
        };
        self.period = after;
        if after != before {
            if let Some(p) = &mut self.profiler {
                p.set_period(SimDuration::from_micros(after.as_micros() as u64));
            }
        }
        Some(DecisionRecord {
            generation: sig.generation,
            epoch: sig.epoch,
            reason: reason.to_string(),
            state_bytes: sig.state_bytes,
            ckpt_bytes: sig.ckpt_bytes,
            barrier_us: sig.barrier_us,
            est_recovery_us,
            budget_us,
            period_us_before: before.as_micros() as u64,
            period_us_after: after.as_micros() as u64,
            recovery_us: 0,
        })
    }
}

/// `Duration * f64` with µs rounding, keeping the arithmetic in one
/// place so the clamp envelope sees consistent values.
fn mul_duration(d: Duration, factor: f64) -> Duration {
    Duration::from_micros((d.as_micros() as f64 * factor).round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(aware: bool, budget_ms: u64) -> TelemetryPlane {
        TelemetryPlane::new(
            &PlaneConfig {
                aware,
                sample_interval: Duration::from_millis(100),
                profile_periods: 2,
                period: Duration::from_millis(1000),
                recovery_budget: (budget_ms > 0).then(|| Duration::from_millis(budget_ms)),
            },
            Instant::now(),
        )
    }

    fn signals(state: u64, ckpt: u64, persist_us: u64) -> EpochSignals {
        EpochSignals {
            generation: 0,
            epoch: 3,
            state_bytes: state,
            ckpt_bytes: ckpt,
            barrier_us: 1500,
            persist_us,
        }
    }

    #[test]
    fn timer_only_plane_paces_at_fixed_period() {
        let mut p = plane(false, 0);
        let now = p.started;
        assert_eq!(p.poll(now, Duration::from_millis(999)), None);
        assert_eq!(
            p.poll(now, Duration::from_millis(1000)),
            Some(CheckpointCause::Timer)
        );
        assert_eq!(p.period(), Duration::from_millis(1000));
    }

    #[test]
    fn no_budget_means_no_cadence_decisions() {
        let mut p = plane(false, 0);
        assert!(p
            .on_barrier_close(&signals(1 << 20, 1 << 18, 5_000))
            .is_none());
    }

    #[test]
    fn over_budget_narrows_under_half_widens() {
        // persist rate = 2^18 B / 4000 µs = 64 B/µs; restore of 2^26 B
        // takes 2^26/64 = 1,048,576 µs, + 1s period ≈ 2.05 s estimate.
        let mut p = plane(false, 1500);
        let d = p
            .on_barrier_close(&signals(1 << 26, 1 << 18, 4_000))
            .unwrap();
        assert_eq!(d.reason, "narrow");
        assert_eq!(d.period_us_before, 1_000_000);
        assert_eq!(d.period_us_after, 500_000);
        assert!(d.est_recovery_us > d.budget_us);
        assert_eq!(p.period(), Duration::from_millis(500));

        // Tiny state: estimate ≈ the (now 500 ms) period alone, far
        // under half of 1500 ms ⇒ widen by 1.25×.
        let d = p
            .on_barrier_close(&signals(1 << 10, 1 << 10, 1_000))
            .unwrap();
        assert_eq!(d.reason, "widen");
        assert_eq!(d.period_us_after, 625_000);
        assert_eq!(p.period(), Duration::from_micros(625_000));
    }

    #[test]
    fn hysteresis_band_holds() {
        // Estimate lands between budget/2 and budget ⇒ hold.
        let mut p = plane(false, 1500);
        // restore = 0 (no persist signal) ⇒ estimate = period = 1 s,
        // which sits inside [750 ms, 1500 ms].
        let d = p.on_barrier_close(&signals(1 << 20, 0, 0)).unwrap();
        assert_eq!(d.reason, "hold");
        assert_eq!(d.period_us_before, d.period_us_after);
    }

    #[test]
    fn period_clamps_to_envelope() {
        let mut p = plane(false, 1);
        // Budget of 1 ms can never be met: every close narrows, but the
        // period floors at 1/4 of the configured 1 s.
        for _ in 0..10 {
            p.on_barrier_close(&signals(1 << 26, 1 << 18, 4_000));
        }
        assert_eq!(p.period(), Duration::from_millis(250));

        let mut p = plane(false, 3_600_000);
        // A huge budget widens every close, capping at 8×.
        for _ in 0..30 {
            p.on_barrier_close(&signals(1 << 10, 1 << 10, 100));
        }
        assert_eq!(p.period(), Duration::from_millis(8000));
    }

    #[test]
    fn cadence_change_reaches_the_profiler() {
        let mut p = plane(true, 1500);
        assert!(!p.executing());
        // Sawtooth samples across the 2-period profiling window: state
        // ramps 0..900 ms then collapses, twice, on a 100 ms grid.
        for i in 0..20u64 {
            let t = SimTime::from_millis(i * 100);
            let s = 1_000 + (i % 10) * 5_000;
            p.ingest_at(t, OperatorId(0), s);
        }
        // First poll past the window arms the classifier.
        assert_eq!(
            p.poll_at(SimTime::from_millis(2_050), Duration::from_millis(50)),
            None
        );
        assert!(p.executing());
        // A narrow decision must reach the armed controller: feed more
        // samples and confirm the (shorter) period still rolls over,
        // i.e. the plane keeps producing actions on the new cadence.
        let d = p
            .on_barrier_close(&signals(1 << 26, 1 << 18, 4_000))
            .unwrap();
        assert_eq!(d.reason, "narrow");
        let mut fired = false;
        for i in 21..40u64 {
            let t = SimTime::from_millis(i * 100);
            p.ingest_at(t, OperatorId(0), 1_000 + (i % 10) * 5_000);
            if p.poll_at(t, Duration::from_millis(100)).is_some() {
                fired = true;
            }
        }
        assert!(fired, "armed classifier stopped producing actions");
    }

    #[test]
    fn profiling_phase_falls_back_to_timer() {
        let mut p = plane(true, 0);
        p.ingest_at(SimTime::from_millis(50), OperatorId(0), 10_000);
        // Profiler still observing ⇒ the plain timer paces.
        assert_eq!(
            p.poll_at(SimTime::from_millis(60), Duration::from_millis(1_000)),
            Some(CheckpointCause::Timer)
        );
        assert_eq!(
            p.poll_at(SimTime::from_millis(70), Duration::from_millis(10)),
            None
        );
    }

    #[test]
    fn initiation_records_carry_the_period() {
        let mut p = plane(false, 2000);
        p.on_barrier_close(&signals(1 << 26, 1 << 18, 4_000)); // narrow
        let init = p.initiation_record(1, 7, CheckpointCause::Timer);
        assert_eq!(init.reason, "timer");
        assert_eq!(init.period_us_before, init.period_us_after);
        assert_eq!(init.period_us_before, 500_000);
        assert_eq!(init.budget_us, 2_000_000);
    }
}
