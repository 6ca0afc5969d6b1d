//! `msbench`: load generator and observer for the real
//! producer → gate → WAL → wire → operators → sink path.
//!
//! ```text
//! msbench --workload NAME [--seed N] [--seconds N] [--trace 0|1] [--smoke]
//! msbench --calibrate N [--workload NAME] [--seed N] [--seconds N]
//!         (both: [--bin-dir DIR] [--out-dir DIR])
//! ```
//!
//! The first form runs one workload once against a freshly spawned
//! 3-process cluster, prints every metric by name with its unit, and
//! ends with one JSON line: `correct`, `attempted`, `failed`,
//! `metrics`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! runs the traced pass (spans around the harness's calls plus the
//! in-process layer replay) and reports the per-layer metrics. The
//! second form repeats each workload N times on seeds `seed..seed+N`
//! and prints the spread of every end-to-end metric against its
//! bound. `bench/run.sh` builds everything and wraps both.

mod cluster;
mod metrics;
mod producer;
mod replay;
mod report;
mod run;
mod trace;
mod verify;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::Metric;
use run::RunConfig;
use trace::Tracer;
use workload::Workload;

/// Clusters set up per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Length of one sub-window of the steady window: 4 checkpoint
/// periods. `cpu_s_per_mevent` is the median over the sub-windows, so
/// a burst of host steal spoils one of them, not the run.
const SUB_WINDOW_S: u64 = 2;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    calibrate: u64,
    bin_dir: PathBuf,
    out_dir: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: msbench (--workload {} | --calibrate N) [--seed N] [--seconds N] \
         [--trace 0|1] [--smoke] [--bin-dir DIR] [--out-dir DIR]",
        workload::WORKLOADS.map(|w| w.name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let num = |key: &str, default: u64| {
        get(key).map_or(default, |v| v.parse().unwrap_or_else(|_| usage()))
    };
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    Args {
        workload: get("--workload"),
        seed: num("--seed", 14),
        seconds: num("--seconds", 16).clamp(1, 60),
        trace: num("--trace", 0) != 0,
        smoke: argv.iter().any(|a| a == "--smoke"),
        calibrate: num("--calibrate", 0),
        bin_dir: get("--bin-dir")
            .map_or_else(|| PathBuf::from(target).join("release"), PathBuf::from),
        out_dir: get("--out-dir").map_or_else(|| PathBuf::from("bench/out"), PathBuf::from),
    }
}

/// What one run reported.
struct Outcome {
    metrics: Vec<Metric>,
    correct: bool,
}

/// Runs workload `w` once on `seed`, prints its table and result
/// line, writes its output file.
fn run_once(args: &Args, w: &Workload, seed: u64) -> Result<Outcome, String> {
    let tmp_dir = args.out_dir.join("tmp");
    let cfg = RunConfig {
        w,
        seed,
        steady: Duration::from_secs(args.seconds),
        // The traced pass alternates untraced / traced sub-windows:
        // an even count.
        sub_windows: match (args.seconds / SUB_WINDOW_S).max(1) as usize {
            n if args.trace => n.max(2) & !1,
            n => n,
        },
        // Smoke is correctness only: one set-up, and a tail just long
        // enough for the cluster to come back and drain.
        setups: if args.smoke { 1 } else { SETUPS },
        tail: Duration::from_secs_f64(if args.smoke { w.tail_s / 2.0 } else { w.tail_s }),
        bin_dir: &args.bin_dir,
        tmp_dir: &tmp_dir,
        trace: args.trace,
    };

    let mut tracer = Tracer::new(false);
    let data = run::execute(&cfg, &mut tracer).map_err(|e| format!("run failed: {e}"))?;

    let mut misses = verify::check(w, &data);
    let (e2e, recovered) = report::end_to_end(w, &data);
    // The two ways a run measures the host instead of the cluster.
    // They are warnings, not gate misses: the program's outputs are
    // still right, and on a shared sandbox a burst of hypervisor
    // steal causes both.
    let mut warnings = Vec::new();
    if !recovered && !args.smoke {
        warnings.push(
            "service never returned to a full run of on-time batches; \
             recovery_ms is the whole tail"
                .to_string(),
        );
    }
    let lag = report::sched_lag_p99_ms(&data);
    if lag > report::SCHED_LAG_LIMIT_MS {
        warnings.push(format!(
            "generator lagged {lag:.2} ms at p99 (limit {} ms): read this run as invalid, not slow",
            report::SCHED_LAG_LIMIT_MS
        ));
    }

    let metrics: Vec<Metric> = if args.trace {
        let mut layers = report::cluster_layers(w, &data);
        match replay::layers(w, seed, data.store_copy.as_deref(), &tmp_dir, &mut tracer) {
            Ok(m) => layers.extend(m),
            Err(e) => misses.push(format!("layer replay failed: {e}")),
        }
        layers
    } else {
        e2e
    };
    if let Some(dir) = &data.store_copy {
        let _ = std::fs::remove_dir_all(dir);
    }
    let _ = std::fs::remove_dir(&tmp_dir);

    // A run that fails the gate counts every batch as failed (and
    // late); otherwise a batch fails only by never being acked.
    let measured = &data.batches[data.first_measured..];
    let attempted = measured.len() as u64;
    let correct = misses.is_empty();
    let failed = if correct {
        measured.iter().filter(|b| b.acked_us.is_none()).count() as u64
    } else {
        attempted
    };

    println!(
        "workload {} seed {seed} trace {}: {}",
        w.name, args.trace as u8, w.why
    );
    report::print_table(&metrics);
    if !args.trace {
        println!("{:<38} {:>16.6} ms", "harness.sched_lag_p99_ms", lag);
        println!(
            "{:<38} {:>16.6} ratio",
            "host.steal_share",
            report::steal_share(&data)
        );
    }
    println!("{:<38} {:>16} count", "batches_attempted", attempted);
    println!("{:<38} {:>16} count", "batches_failed", failed);
    for m in &misses {
        println!("MISS {m}");
    }
    for m in &warnings {
        println!("WARN {m}");
    }
    let line = report::result_line(correct, attempted.max(1), failed, &metrics);
    let kind = if args.trace { "trace" } else { "e2e" };
    if let Err(e) = report::write_file(
        &args.out_dir,
        kind,
        w,
        seed,
        &line,
        &report::observed_json(w, &data),
        args.trace.then_some(&tracer),
    ) {
        eprintln!("msbench: output file not written: {e}");
    }
    println!("{line}");
    Ok(Outcome { metrics, correct })
}

/// `--calibrate N`: each workload N times back to back on seeds
/// `seed..seed+N`; per workload × end-to-end metric the median, the
/// quartiles, the quartile distance and the full range as shares of
/// the median, against the metric's bound.
fn calibrate(args: &Args, workloads: &[Workload]) -> ExitCode {
    let mut table = String::from(
        "| workload | metric | unit | median | q1 | q3 | (q3-q1)/median | (max-min)/median | bound | verdict |\n\
         |---|---|---|---|---|---|---|---|---|---|\n",
    );
    let mut ok = true;
    for w in workloads {
        let mut runs: Vec<Vec<Metric>> = Vec::new();
        for i in 0..args.calibrate {
            match run_once(args, w, args.seed + i) {
                Ok(o) if o.correct => runs.push(o.metrics),
                Ok(_) => ok = false,
                Err(e) => {
                    eprintln!("msbench: {}: {e}", w.name);
                    ok = false;
                }
            }
        }
        let Some(first) = runs.first() else { continue };
        for (i, m) in first.iter().enumerate() {
            let mut v: Vec<f64> = runs.iter().map(|r| r[i].value).collect();
            let med = metrics::median(&mut v);
            let (q1, q3) = metrics::quartiles(&v);
            let bound = report::bound_of(&m.name);
            let iqr = (q3 - q1) / med.abs().max(f64::MIN_POSITIVE);
            let range = (v[v.len() - 1] - v[0]) / med.abs().max(f64::MIN_POSITIVE);
            let verdict = match bound {
                Some(b) if iqr <= b / 3.0 => "steady (under a third)",
                Some(b) if iqr <= b => "within bound",
                Some(_) => "OVER BOUND",
                None => "-",
            };
            table.push_str(&format!(
                "| {} | {} | {} | {:.6} | {:.6} | {:.6} | {:.4} | {:.4} | {} | {} |\n",
                w.name,
                m.name,
                m.unit,
                med,
                q1,
                q3,
                iqr,
                range,
                bound.map_or("-".to_string(), |b| format!("{b}")),
                verdict
            ));
        }
    }
    println!(
        "\ncalibration: {} runs per workload, seeds {}..={}, {} s steady window\n",
        args.calibrate,
        args.seed,
        args.seed + args.calibrate - 1,
        args.seconds
    );
    println!("stamp: {}\n", report::stamp(args.seed));
    print!("{table}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    for bin in ["ms-controller", "ms-worker"] {
        if !args.bin_dir.join(bin).is_file() {
            eprintln!(
                "msbench: {} not found; build the cluster first (bench/run.sh does)",
                args.bin_dir.join(bin).display()
            );
            return ExitCode::from(2);
        }
    }
    let chosen: Vec<Workload> = match &args.workload {
        Some(name) => vec![workload::find(name).unwrap_or_else(|| usage())],
        None => workload::WORKLOADS.to_vec(),
    };
    if args.calibrate > 0 {
        return calibrate(&args, &chosen);
    }
    let [w] = chosen[..] else { usage() };
    match run_once(&args, &w, args.seed) {
        Ok(o) if o.correct => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("msbench: {}: {e}", w.name);
            ExitCode::FAILURE
        }
    }
}
