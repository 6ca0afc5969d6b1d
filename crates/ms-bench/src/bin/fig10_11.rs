//! Figs. 10 & 11 — application-aware profiling and checkpoint-timing
//! walkthrough.
//!
//! Replays the paper's two-dynamic-HAU zigzag example through the
//! profiling pass (dynamic-HAU classification, smax/smin, relaxation
//! factor) and the execution-phase controller (alert mode, aggregated
//! ICR, checkpoint at the first local minimum of each period).

use ms_bench::BenchArgs;
use ms_core::aware::{profile, AwareAction, AwareConfig, AwareController};
use ms_core::ids::HauId;
use ms_core::metrics::TimeSeries;
use ms_core::time::{SimDuration, SimTime};

fn series(points: &[(u64, f64)]) -> TimeSeries {
    let mut ts = TimeSeries::new();
    for &(t, v) in points {
        ts.push(SimTime::from_secs(t), v);
    }
    ts
}

fn main() {
    // Shared-flag parsing only (the walkthrough replays fixed series;
    // no simulation sweep to seed or parallelize).
    let _ = BenchArgs::parse();
    // Fig. 10's two dynamic HAUs (sizes in MB, time in 10 s steps).
    let hau1: Vec<(u64, f64)> = [
        100.0, 150.0, 200.0, 250.0, 200.0, 150.0, 100.0, 40.0, 100.0, 160.0, 220.0, 160.0, 100.0,
        50.0, 95.0, 140.0,
    ]
    .iter()
    .enumerate()
    .map(|(i, &v)| (i as u64 * 10, v))
    .collect();
    let hau2: Vec<(u64, f64)> = [
        220.0, 250.0, 190.0, 130.0, 100.0, 130.0, 160.0, 190.0, 220.0, 160.0, 100.0, 50.0, 87.5,
        120.0, 87.5, 60.0,
    ]
    .iter()
    .enumerate()
    .map(|(i, &v)| (i as u64 * 10, v))
    .collect();
    // A static HAU for contrast: never classified dynamic.
    let hau3: Vec<(u64, f64)> = (0..16).map(|i| (i * 10, 80.0)).collect();

    let period = SimDuration::from_secs(100);
    let cfg = AwareConfig::default();
    let prof = profile(
        &[
            (HauId(1), series(&hau1)),
            (HauId(2), series(&hau2)),
            (HauId(3), series(&hau3)),
        ],
        period,
        &cfg,
    );
    println!("Fig. 10: profiling phase");
    println!(
        "  dynamic HAUs: {:?} (paper: <20% of all HAUs)",
        prof.dynamic
    );
    println!(
        "  smin = {:.1} MB, smax = {:.1} MB, relaxation factor = {:.0}% (bounded >= 20%)",
        prof.smin,
        prof.smax,
        prof.relaxation * 100.0
    );

    println!("\nFig. 11: execution phase (checkpoint period = 100 s)");
    let mut ctrl = AwareController::new(prof, period, SimTime::ZERO);
    for i in 0..16u64 {
        let now = SimTime::from_secs(i * 10);
        let sizes = [
            (HauId(1), hau1[i as usize].1 as u64),
            (HauId(2), hau2[i as usize].1 as u64),
        ];
        let total: u64 = sizes.iter().map(|&(_, s)| s).sum();
        let action = ctrl.on_sample(now, &sizes);
        let marker = match action {
            AwareAction::Checkpoint(reason) => format!("  <== CHECKPOINT ({reason:?})"),
            AwareAction::None if ctrl.in_alert() => "  [alert mode]".to_string(),
            AwareAction::None => String::new(),
        };
        println!(
            "  t={:>3}s  HAU1={:>5.1}  HAU2={:>5.1}  total={total:>4}{marker}",
            i * 10,
            hau1[i as usize].1,
            hau2[i as usize].1
        );
    }
    println!(
        "\n(paper: the controller checkpoints at the first local minimum of each\n\
         period — t4, t6 and t12 in Fig. 11's timeline — and forces one at the\n\
         period end if the state never falls below smax)"
    );
}
