//! Cluster worker daemon. See `ms-wire`'s crate docs for the
//! localhost walkthrough.

use std::path::PathBuf;

use ms_wire::args::{exit_usage, Args};
use ms_wire::{run_worker, ControllerAddr, WorkerConfig};

const USAGE: &str = "--name NAME --store DIR \
         (--controller ADDR | --controller-file FILE)";

fn config(argv: impl IntoIterator<Item = String>) -> Result<WorkerConfig, String> {
    let args = Args::parse(USAGE, argv)?;
    let (Some(name), Some(store_dir)) = (args.get("--name"), args.get("--store")) else {
        return Err("--name and --store are required".into());
    };
    let controller = match (args.get("--controller"), args.get("--controller-file")) {
        (Some(addr), None) => ControllerAddr::Addr(addr.into()),
        (None, Some(path)) => ControllerAddr::File(PathBuf::from(path)),
        _ => return Err("give exactly one of --controller and --controller-file".into()),
    };
    Ok(WorkerConfig {
        name: name.into(),
        controller,
        store_dir: PathBuf::from(store_dir),
    })
}

fn main() {
    let cfg =
        config(std::env::args().skip(1)).unwrap_or_else(|e| exit_usage("ms-worker", USAGE, &e));
    let name = cfg.name.clone();
    if let Err(e) = run_worker(cfg) {
        eprintln!("ms-worker[{name}]: error: {e}");
        std::process::exit(1);
    }
    println!("ms-worker[{name}]: clean exit");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_bench_command_line_parses_and_typos_or_two_controllers_do_not() {
        let parse = |argv: &str| config(argv.split_whitespace().map(String::from));
        let cfg = parse("--name wa --store /s --controller-file /a").unwrap();
        assert_eq!(cfg.name, "wa");
        assert!(parse("--name wa --store /s").is_err(), "no controller");
        assert!(parse("--name wa --store /s --controller h:1 --controller-file /a").is_err());
        // The heartbeat cadence is a constant; its old flag is unknown.
        let err = parse("--name wa --store /s --controller h:1 --hb-ms 50").unwrap_err();
        assert!(err.contains("--hb-ms"), "{err}");
    }
}
