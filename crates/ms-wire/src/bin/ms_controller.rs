//! Cluster controller daemon. See `ms-wire`'s crate docs for the
//! localhost walkthrough.

use std::path::PathBuf;
use std::time::Duration;

use ms_core::gate::GateConfig;
use ms_wire::args::{exit_usage, Args};
use ms_wire::{run_controller, ControllerConfig};

const USAGE: &str = "--store DIR [--listen ADDR] [--addr-file FILE] \
         [--workers N] [--shape chainN|diamond|fanin|fleetSxK] [--limit N] \
         [--delay-us N] [--keyed-state N] [--sawtooth-window N] [--shards N] \
         [--ckpt-ms N] \
         [--hb-timeout-ms N] [--barrier-stall-ms N] [--respawn-wait-ms N] \
         [--deadline-secs N] \
         [--aware 0|1] [--aware-sample-ms N] [--aware-profile-periods N] \
         [--recovery-budget-ms N] \
         [--result-file FILE] [--gate-producers N] [--gate-budget-bytes N] \
         [--gate-budget-batches N] [--gate-preagg 0|1] [--gate-retry-ms N]";

fn config(argv: impl IntoIterator<Item = String>) -> Result<ControllerConfig, String> {
    let args = Args::parse(USAGE, argv)?;
    let get = |key: &str| args.get(key).map(String::from);
    let num = |key: &str, default: u64| args.num(key, default);
    Ok(ControllerConfig {
        listen: get("--listen").unwrap_or_else(|| "127.0.0.1:0".into()),
        addr_file: get("--addr-file").map(PathBuf::from),
        store_dir: PathBuf::from(get("--store").ok_or("--store is required")?),
        workers: num("--workers", 2)? as usize,
        shape: get("--shape").unwrap_or_else(|| "chain3".into()),
        source_limit: num("--limit", 4000)?,
        source_delay_us: num("--delay-us", 300)?,
        keyed_state: num("--keyed-state", 0)?,
        sawtooth_window: num("--sawtooth-window", 0)?,
        shards: num("--shards", 0)?,
        ckpt_interval: Duration::from_millis(num("--ckpt-ms", 120)?),
        hb_timeout: Duration::from_millis(num("--hb-timeout-ms", 500)?),
        barrier_stall: match num("--barrier-stall-ms", 0)? {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        },
        respawn_wait: Duration::from_millis(num("--respawn-wait-ms", 2000)?),
        deadline: Duration::from_secs(num("--deadline-secs", 120)?),
        result_file: get("--result-file").map(PathBuf::from),
        // Gateway mode is keyed on --gate-producers: 0 (the default)
        // keeps every source a demo source.
        gate: match num("--gate-producers", 0)? {
            0 => None,
            n => Some(GateConfig {
                budget_bytes: num("--gate-budget-bytes", 0)?,
                budget_batches: num("--gate-budget-batches", 0)?,
                preagg: num("--gate-preagg", 1)? != 0,
                expected_producers: n as u32,
                retry_after_ms: num("--gate-retry-ms", 50)?,
            }),
        },
        aware: num("--aware", 0)? != 0,
        aware_sample: Duration::from_millis(num("--aware-sample-ms", 100)?),
        aware_profile_periods: num("--aware-profile-periods", 2)? as u32,
        recovery_budget: match num("--recovery-budget-ms", 0)? {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        },
    })
}

fn main() {
    let cfg =
        config(std::env::args().skip(1)).unwrap_or_else(|e| exit_usage("ms-controller", USAGE, &e));
    match run_controller(cfg) {
        Ok(report) => {
            println!(
                "ms-controller: done, recoveries={} checkpoints={} restore_epochs={:?}",
                report.recoveries, report.checkpoints, report.restore_epochs
            );
            print!("{}", report.render());
        }
        Err(e) => {
            eprintln!("ms-controller: error: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &str) -> Result<ControllerConfig, String> {
        config(argv.split_whitespace().map(String::from))
    }

    #[test]
    fn the_bench_command_line_parses_and_a_misspelt_flag_does_not() {
        let bench = "--store /s --addr-file /a --result-file /r --workers 2 --shape chain3 \
            --gate-producers 1 --keyed-state 64 --shards 2 --ckpt-ms 500 --hb-timeout-ms 300 \
            --respawn-wait-ms 100 --deadline-secs 60";
        let cfg = parse(bench).unwrap();
        assert_eq!(cfg.ckpt_interval, Duration::from_millis(500));
        assert_eq!(cfg.gate.unwrap().expected_producers, 1);
        let err = parse("--store /s --ckpt-interval-ms 100").unwrap_err();
        assert!(err.contains("--ckpt-interval-ms"), "{err}");
        assert!(parse("").unwrap_err().contains("--store is required"));
        assert!(parse("--store /s --workers two").is_err());
    }
}
