//! The harness's own arithmetic, kept pure so `cargo test` pins it:
//! percentile pick, on-time accounting from due time, the
//! 45-of-50 recovery rule, sub-window medians and ledger window
//! selection.

/// A batch is on time when its `Accepted` arrives at most this long
/// after its *due* time (SNIPPETS §2's < 50 ms ack target).
pub const ON_TIME_US: u64 = 50_000;

/// Service counts as restored at the first on-time batch from which
/// at least [`RECOVERY_ON_TIME`] of the next [`RECOVERY_RUN`] batches
/// are on time.
pub const RECOVERY_RUN: usize = 50;
/// A few late batches inside the run are tolerated: the restored
/// generation's first checkpoint lands in the middle of the catch-up,
/// and with a strict run of 50 one 60 ms hiccup there moved
/// `recovery_ms` by a whole run length (256 ms on `fanout_unique`) in
/// 3 runs of 10.
pub const RECOVERY_ON_TIME: usize = 45;

/// One batch of the open loop, in microseconds since the load's first
/// due time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Batch {
    /// When the schedule said to send it: `index × interval`.
    pub due_us: u64,
    /// When the generator actually wrote it (first attempt).
    pub sent_us: u64,
    /// When its `Accepted` arrived; `None` = never acked.
    pub acked_us: Option<u64>,
}

impl Batch {
    /// Latency the schedule's user saw: due → ack, so an outage
    /// charges every batch it delays, not only the one in flight.
    pub fn latency_us(&self) -> Option<u64> {
        self.acked_us.map(|a| a.saturating_sub(self.due_us))
    }

    pub fn on_time(&self) -> bool {
        self.latency_us().is_some_and(|l| l <= ON_TIME_US)
    }
}

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1); 0.0
/// for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` and returns the `q` percentile.
pub fn percentile_of(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    percentile(values, q)
}

/// Median as the mean of the two middle values for even counts (what
/// `statistics.median` gives); 0.0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// First and third quartile of an ascending slice, as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method);
/// needs at least two values.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let len = sorted.len();
    if len < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Batches acked on time ÷ batches attempted.
pub fn on_time_share(batches: &[Batch]) -> f64 {
    if batches.is_empty() {
        return 0.0;
    }
    batches.iter().filter(|b| b.on_time()).count() as f64 / batches.len() as f64
}

/// Index of the first batch the failure at `kill_us` made late: the
/// one in flight or first blocked when service stopped, so its ack is
/// the first `Accepted` of the restored service.
pub fn outage_start(batches: &[Batch], kill_us: u64) -> Option<usize> {
    batches
        .iter()
        .position(|b| !b.on_time() && b.acked_us.is_none_or(|a| a >= kill_us))
}

/// User-visible outage after a kill at `kill_us`: from the kill to the
/// ack of the first on-time batch that starts a run of
/// [`RECOVERY_RUN`] batches of which at least [`RECOVERY_ON_TIME`] are
/// on time, looking only from the first late batch after the kill
/// onward (acks keep flowing for a heartbeat timeout when the victim
/// is not the gate host — those are not the recovery). An isolated
/// late batch after service resumed does not move the result; the
/// naive "last late batch" rule would report it. `None` when service
/// never came back for a full run of batches.
pub fn recovery_us(batches: &[Batch], kill_us: u64) -> Option<u64> {
    let outage = outage_start(batches, kill_us)?;
    let on_time: Vec<usize> = batches[outage..]
        .iter()
        .map(|b| b.on_time() as usize)
        .collect();
    let mut in_run: usize = on_time.iter().take(RECOVERY_RUN).sum();
    for start in 0..on_time.len().saturating_sub(RECOVERY_RUN - 1) {
        if on_time[start] == 1 && in_run >= RECOVERY_ON_TIME {
            return batches[outage + start]
                .acked_us
                .map(|a| a.saturating_sub(kill_us));
        }
        in_run -= on_time[start];
        in_run += on_time.get(start + RECOVERY_RUN).copied().unwrap_or(0);
    }
    None
}

/// How late the generator itself ran on each batch: send time minus
/// the later of the due time and the previous ack (stop-and-wait: the
/// generator cannot send before the previous batch is acked).
pub fn sched_lag_us(batches: &[Batch]) -> Vec<f64> {
    let mut prev_ack = 0u64;
    batches
        .iter()
        .map(|b| {
            let free_at = b.due_us.max(prev_ack);
            prev_ack = b.acked_us.unwrap_or(prev_ack);
            b.sent_us.saturating_sub(free_at) as f64
        })
        .collect()
}

/// Median over sub-windows of `cost ÷ Mevents` (each pair is one
/// sub-window's cost and accepted events); sub-windows that accepted
/// nothing are skipped.
pub fn subwindow_median(windows: &[(f64, u64)]) -> f64 {
    let mut per: Vec<f64> = windows
        .iter()
        .filter(|&&(_, events)| events > 0)
        .map(|&(cost, events)| cost / (events as f64 / 1e6))
        .collect();
    median(&mut per)
}

/// A barrier close the harness observed: the epoch's ledger rows
/// appeared at `seen_us`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Close {
    pub generation: u64,
    pub epoch: u64,
    pub seen_us: u64,
}

/// The closes inside `[from_us, to_us]`, in order. Ledger sums over a
/// window run from the first to the last of these: rows of epochs
/// *after* the first close up to and including the last, set against
/// the events accepted between the same two instants, so a window
/// edge falling mid-epoch cannot add or drop a checkpoint.
pub fn closes_in(closes: &[Close], from_us: u64, to_us: u64) -> &[Close] {
    let lo = closes.partition_point(|c| c.seen_us < from_us);
    let hi = closes.partition_point(|c| c.seen_us <= to_us);
    &closes[lo..hi.max(lo)]
}

/// Events acked by `t_us` (batches are in ack order; `events` per
/// batch is constant).
pub fn events_acked_by(batches: &[Batch], events_per_batch: u64, t_us: u64) -> u64 {
    batches
        .iter()
        .filter(|b| b.acked_us.is_some_and(|a| a <= t_us))
        .count() as u64
        * events_per_batch
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(due_ms: u64, ack_ms: Option<u64>) -> Batch {
        Batch {
            due_us: due_ms * 1000,
            sent_us: due_ms * 1000,
            acked_us: ack_ms.map(|a| a * 1000),
        }
    }

    /// 10 ms schedule: on time until the kill at 1000 ms, nothing
    /// acked until `back_ms`, then every backlog batch acked 1 ms
    /// apart until caught up.
    fn outage(back_ms: u64, until_ms: u64) -> Vec<Batch> {
        let mut out = Vec::new();
        let mut free = 0;
        for due in (0..until_ms).step_by(10) {
            let ack = if due < 1000 {
                due + 1
            } else {
                (due + 1).max(back_ms).max(free + 1)
            };
            free = ack;
            out.push(b(due, Some(ack)));
        }
        out
    }

    #[test]
    fn percentile_picks_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        let mut unsorted = [3.0, 1.0, 2.0];
        assert_eq!(percentile_of(&mut unsorted, 0.5), 2.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        let five: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quartiles(&five), (1.5, 4.5));
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0));
    }

    #[test]
    fn on_time_is_counted_from_due_time_not_send_time() {
        // Sent 200 ms late because the previous batch blocked, acked
        // 1 ms after sending: late for the schedule's user.
        let late = Batch {
            due_us: 0,
            sent_us: 200_000,
            acked_us: Some(201_000),
        };
        assert!(!late.on_time());
        assert_eq!(late.latency_us(), Some(201_000));
        assert!(b(0, Some(50)).on_time());
        assert!(!b(0, Some(51)).on_time());
        assert!(!b(0, None).on_time());
        let run = [b(0, Some(1)), b(10, Some(70)), b(20, None), b(30, Some(31))];
        assert_eq!(on_time_share(&run), 0.5);
    }

    #[test]
    fn recovery_ends_at_the_first_batch_of_an_on_time_run() {
        // Acks resume at 2200 ms; the backlog (120 batches) drains at
        // 1 ms each, the schedule adds one per 10 ms: caught up where
        // due + 50 >= ack.
        let run = outage(2200, 8000);
        let got = recovery_us(&run, 1_000_000).unwrap();
        let first_on_time = run
            .iter()
            .position(|x| x.due_us >= 1_000_000 && x.on_time())
            .unwrap();
        assert_eq!(got, run[first_on_time].acked_us.unwrap() - 1_000_000);
        assert!((1_200_000..1_400_000).contains(&got), "{got}");
    }

    #[test]
    fn an_isolated_late_batch_seconds_later_does_not_move_recovery() {
        let clean = outage(2200, 12_000);
        let mut hiccup = clean.clone();
        // One batch 8 s after the kill acked 80 ms late.
        let i = hiccup.iter().position(|x| x.due_us == 9_000_000).unwrap();
        hiccup[i].acked_us = Some(9_080_000);
        assert_eq!(
            recovery_us(&hiccup, 1_000_000),
            recovery_us(&clean, 1_000_000)
        );
        // The naive rule (last late batch) would have said 8.08 s.
        let naive = hiccup.iter().rev().find(|x| !x.on_time()).unwrap();
        assert_eq!(naive.acked_us.unwrap() - 1_000_000, 8_080_000);
    }

    #[test]
    fn a_hiccup_inside_the_first_run_does_not_move_recovery_either() {
        let clean = outage(2200, 12_000);
        let base = recovery_us(&clean, 1_000_000).unwrap();
        let first = clean
            .iter()
            .position(|x| x.acked_us == Some(base + 1_000_000))
            .unwrap();
        let mut hiccup = clean.clone();
        // The 10th batch after service is back is 70 ms late (the new
        // generation's first checkpoint).
        hiccup[first + 10].acked_us = Some(hiccup[first + 10].due_us + 70_000);
        assert_eq!(recovery_us(&hiccup, 1_000_000), Some(base));
        // Six late batches in the run are an outage still going on.
        for x in &mut hiccup[first + 10..first + 16] {
            x.acked_us = Some(x.due_us + 70_000);
        }
        assert!(recovery_us(&hiccup, 1_000_000).unwrap() > base);
    }

    #[test]
    fn recovery_skips_acks_that_flow_before_the_outage_starts() {
        // Victim is not the gate host: 60 on-time acks after the kill,
        // then the rollback cuts service for 2 s.
        let mut run = Vec::new();
        for due in (0..1600).step_by(10) {
            run.push(b(due, Some(due + 1)));
        }
        let mut free = 0;
        for due in (1600..9000).step_by(10) {
            let ack = (due + 1).max(3600).max(free + 1);
            free = ack;
            run.push(b(due, Some(ack)));
        }
        let got = recovery_us(&run, 1_000_000).unwrap();
        assert!(got > 2_600_000, "{got}");
    }

    #[test]
    fn recovery_is_none_without_a_full_run_or_without_an_outage() {
        // Acks resume but the tail ends 30 batches later.
        let mut run = outage(2200, 8000);
        let back = run.iter().position(|x| x.on_time() && x.due_us > 1_000_000);
        run.truncate(back.unwrap() + 30);
        assert_eq!(recovery_us(&run, 1_000_000), None);
        let healthy: Vec<Batch> = (0..200).map(|i| b(i * 10, Some(i * 10 + 1))).collect();
        assert_eq!(recovery_us(&healthy, 1_000_000), None);
    }

    #[test]
    fn sched_lag_excludes_time_blocked_on_the_previous_ack() {
        let run = [
            Batch {
                due_us: 0,
                sent_us: 40,
                acked_us: Some(500),
            },
            // Due at 100 but the previous ack came at 500: sending at
            // 520 is 20 late, not 420.
            Batch {
                due_us: 100,
                sent_us: 520,
                acked_us: Some(600),
            },
        ];
        assert_eq!(sched_lag_us(&run), vec![40.0, 20.0]);
    }

    #[test]
    fn subwindow_median_rejects_one_outlier() {
        let w = [
            (1.0, 1_000_000),
            (1.1, 1_000_000),
            (5.0, 1_000_000),
            (0.0, 0),
        ];
        assert!((subwindow_median(&w) - 1.1).abs() < 1e-12);
        assert_eq!(subwindow_median(&[]), 0.0);
    }

    #[test]
    fn ledger_window_keeps_only_closes_inside() {
        let closes: Vec<Close> = (1..=6)
            .map(|e| Close {
                generation: 1,
                epoch: e,
                seen_us: e * 500_000,
            })
            .collect();
        let inside = closes_in(&closes, 900_000, 2_600_000);
        assert_eq!(
            inside.iter().map(|c| c.epoch).collect::<Vec<_>>(),
            vec![2, 3, 4, 5]
        );
        assert!(closes_in(&closes, 3_100_000, 3_400_000).is_empty());
        assert!(closes_in(&closes, 5_000_000, 1_000_000).is_empty());
    }

    #[test]
    fn events_acked_by_counts_whole_batches() {
        let run = [b(0, Some(1)), b(10, Some(11)), b(20, None)];
        assert_eq!(events_acked_by(&run, 512, 11_000), 1024);
        assert_eq!(events_acked_by(&run, 512, 10_999), 512);
    }
}
