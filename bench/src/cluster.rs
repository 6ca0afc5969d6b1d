//! The system under test as an operator sees it: three real
//! processes, a store directory, and `/proc`.
//!
//! [`Cluster`] owns every child and the temp store; dropping it kills
//! and reaps the children and removes the directory on every exit
//! path (normal end, failed gate, panic unwinding).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::workload::Workload;

/// Checkpoint period the controller runs at (`--ckpt-ms`).
pub const CKPT_MS: u64 = 500;
const HB_TIMEOUT_MS: u64 = 500;
const RESPAWN_WAIT_MS: u64 = 3000;
/// The controller's own hard stop; every run ends far inside it.
const DEADLINE_SECS: u64 = 150;
const SPAWN_WAIT: Duration = Duration::from_secs(20);

/// One child process of the cluster.
pub struct Proc {
    pub name: String,
    pub child: Child,
    /// Cleared once the harness killed it or saw it exit.
    pub alive: bool,
}

impl Proc {
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

pub struct Cluster {
    dir: PathBuf,
    bin_dir: PathBuf,
    pub controller: Proc,
    pub workers: Vec<Proc>,
}

extern "C" {
    // From the C library std already links.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}
const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

/// Starts `cmd` with its output discarded. The child is killed by the
/// kernel if the harness dies without running its drop guard (a
/// signal, an abort), and with `cpu` set it starts pinned to that CPU;
/// every thread it creates inherits the mask. Both are best effort: a
/// host that refuses either still gets a cluster.
fn spawn(cmd: &mut Command, name: &str, cpu: Option<usize>) -> io::Result<Proc> {
    use std::os::unix::process::CommandExt;
    let mask: u64 = cpu.map_or(0, |c| 1 << (c % 64));
    // SAFETY: the closure runs in the forked child before exec and
    // makes two async-signal-safe system calls on values it owns; it
    // allocates nothing and touches no shared state.
    unsafe {
        cmd.pre_exec(move || {
            prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);
            if mask != 0 {
                sched_setaffinity(0, std::mem::size_of::<u64>(), &mask);
            }
            Ok(())
        });
    }
    let child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()?;
    Ok(Proc {
        name: name.to_string(),
        child,
        alive: true,
    })
}

/// Polls `probe` until it yields a value; sleeps 1 ms between tries.
fn wait_for<T>(what: &str, mut probe: impl FnMut() -> Option<T>) -> io::Result<T> {
    let deadline = Instant::now() + SPAWN_WAIT;
    loop {
        if let Some(v) = probe() {
            return Ok(v);
        }
        if Instant::now() > deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("timed out waiting for {what}"),
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn read_nonempty(path: &Path) -> Option<String> {
    fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
}

impl Cluster {
    /// Spawns `ms-controller` plus workers `wa` and `wb` on a fresh
    /// store under `dir` and returns once the gate published its
    /// address (registered → deployed → gate listening). Ports are
    /// ephemeral; addresses travel through files.
    pub fn launch(bin_dir: &Path, dir: PathBuf, w: &Workload) -> io::Result<Cluster> {
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir)?;
        let store = dir.join("store");
        let mut cmd = Command::new(bin_dir.join("ms-controller"));
        cmd.arg("--store")
            .arg(&store)
            .arg("--addr-file")
            .arg(dir.join("ctl.addr"))
            .arg("--result-file")
            .arg(dir.join("result"))
            .args([
                "--workers",
                "2",
                "--shape",
                "chain3",
                "--gate-producers",
                "1",
            ])
            .args(["--keyed-state", &w.keyed_state.to_string()])
            .args(["--shards", &w.shards.to_string()])
            .args(["--ckpt-ms", &CKPT_MS.to_string()])
            .args(["--hb-timeout-ms", &HB_TIMEOUT_MS.to_string()])
            .args(["--respawn-wait-ms", &RESPAWN_WAIT_MS.to_string()])
            .args(["--deadline-secs", &DEADLINE_SECS.to_string()]);
        let controller = spawn(&mut cmd, "controller", None)?;
        let mut cluster = Cluster {
            dir,
            bin_dir: bin_dir.to_path_buf(),
            controller,
            workers: Vec::new(),
        };
        wait_for("controller address", || {
            read_nonempty(&cluster.dir.join("ctl.addr"))
        })?;
        cluster.spawn_worker("wa", 0)?;
        cluster.spawn_worker("wb", 1)?;
        wait_for("gate address", || cluster.gate_addr())?;
        Ok(cluster)
    }

    /// Starts worker `name` pinned to CPU `cpu` (modulo the CPUs the
    /// host has): one worker per core, the way one worker per node
    /// runs. Unpinned, the kernel's thread placement settles each run
    /// into one of two regimes whose CPU per event differs by 1.6x.
    pub fn spawn_worker(&mut self, name: &str, cpu: usize) -> io::Result<()> {
        let mut cmd = Command::new(self.bin_dir.join("ms-worker"));
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        cmd.args(["--name", name])
            .arg("--store")
            .arg(self.store())
            .arg("--controller-file")
            .arg(self.dir.join("ctl.addr"));
        self.workers.push(spawn(&mut cmd, name, Some(cpu % cpus))?);
        Ok(())
    }

    /// SIGKILLs worker `name` (std's `Child::kill` is SIGKILL on unix)
    /// and reaps it.
    pub fn kill_worker(&mut self, name: &str) {
        if let Some(p) = self.workers.iter_mut().find(|p| p.name == name) {
            let _ = p.child.kill();
            let _ = p.child.wait();
            p.alive = false;
        }
    }

    pub fn store(&self) -> PathBuf {
        self.dir.join("store")
    }

    pub fn gate_addr(&self) -> Option<String> {
        read_nonempty(&self.store().join("gate_op0.addr"))
    }

    pub fn ledger(&self) -> PathBuf {
        self.store().join(ms_wire::LEDGER_FILE)
    }

    pub fn wal(&self) -> PathBuf {
        self.store().join("log").join("op0.log")
    }

    pub fn result_file(&self) -> PathBuf {
        self.dir.join("result")
    }

    /// Pids of the live cluster processes, controller first.
    pub fn live_pids(&self) -> Vec<u32> {
        std::iter::once(&self.controller)
            .chain(self.workers.iter())
            .filter(|p| p.alive)
            .map(Proc::pid)
            .collect()
    }

    /// Waits for the controller to exit on its own (sink result
    /// written); `Ok(true)` on exit code 0.
    pub fn wait_controller(&mut self, limit: Duration) -> io::Result<bool> {
        let deadline = Instant::now() + limit;
        loop {
            if let Some(status) = self.controller.child.try_wait()? {
                self.controller.alive = false;
                return Ok(status.success());
            }
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "controller did not finish",
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for p in std::iter::once(&mut self.controller).chain(self.workers.iter_mut()) {
            let _ = p.child.kill();
            let _ = p.child.wait();
        }
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// CPU time a process has consumed, in seconds: the sum of its tasks'
/// on-CPU nanoseconds from `/proc/<pid>/task/*/schedstat`, falling
/// back to `utime + stime` ticks of `/proc/<pid>/stat` where the
/// kernel keeps no schedstats. `None` once the process is gone — a
/// `/proc` entry read after exit returns nothing, so every sample is
/// taken from a live process at a window edge.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let mut ns = 0u64;
    let mut seen = false;
    if let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) {
        for t in tasks.flatten() {
            if let Ok(s) = fs::read_to_string(t.path().join("schedstat")) {
                if let Some(v) = s
                    .split_whitespace()
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                {
                    ns += v;
                    seen = true;
                }
            }
        }
    }
    if seen {
        return Some(ns as f64 / 1e9);
    }
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, 12th and 13th after ") ".
    let rest = stat.rsplit_once(") ")?.1;
    let mut f = rest.split_whitespace().skip(11);
    let utime: u64 = f.next()?.parse().ok()?;
    let stime: u64 = f.next()?.parse().ok()?;
    const CLK_TCK: f64 = 100.0;
    Some((utime + stime) as f64 / CLK_TCK)
}

/// Ticks the hypervisor kept this guest's CPUs from running (the
/// `steal` column of `/proc/stat`'s first line) and the ticks of all
/// columns, since boot.
pub fn steal_and_total_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal (guest columns
    // repeat time already in user/nice).
    (
        ticks.get(7).copied().unwrap_or(0),
        ticks.iter().take(8).sum(),
    )
}

/// One numeric `Key:` line of `/proc/<pid>/status`.
pub fn status_field(pid: u32, key: &str) -> Option<u64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status.lines().find_map(|l| {
        let rest = l.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    status_field(pid, "VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// Voluntary + involuntary context switches summed over the
/// process's tasks.
pub fn ctx_switches(pid: u32) -> u64 {
    let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
        .map(|s| {
            s.lines()
                .filter(|l| l.contains("ctxt_switches"))
                .filter_map(|l| l.split_whitespace().last()?.parse::<u64>().ok())
                .sum::<u64>()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_is_readable() {
        let me = std::process::id();
        assert!(cpu_seconds(me).is_some());
        assert!(peak_rss_mb(me).unwrap() > 0.0);
        assert!(status_field(me, "Threads").unwrap() >= 1);
        assert!(cpu_seconds(u32::MAX - 1).is_none());
    }
}
