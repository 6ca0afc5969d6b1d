//! From a run's observations to named metrics, and from metrics to
//! the printed table, the result line and the stamped output files.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

use ms_wire::LedgerRecord;

use crate::metrics::{self, Batch};
use crate::run::RunData;
use crate::trace::Tracer;
use crate::workload::Workload;

/// A run whose generator ran later than this at p99 (steady window)
/// measured its own lateness, not the cluster's.
pub const SCHED_LAG_LIMIT_MS: f64 = 5.0;

/// Allowed worsening of each end-to-end metric as a share of the
/// parent's median — the `bound`s of `BENCHMARK.json` (a test keeps
/// the two in step).
pub const BOUNDS: [(&str, f64); 7] = [
    ("setup_s", 0.25),
    ("events_per_s", 0.03),
    ("on_time_share", 0.05),
    ("recovery_ms", 0.25),
    ("cpu_s_per_mevent", 0.25),
    ("store_mb_per_mevent", 0.03),
    ("peak_rss_mb", 0.20),
];

pub fn bound_of(name: &str) -> Option<f64> {
    BOUNDS.iter().find(|(n, _)| *n == name).map(|&(_, b)| b)
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// The measured part of the load: the steady window onward.
fn measured(run: &RunData) -> &[Batch] {
    &run.batches[run.first_measured..]
}

/// The batches of the steady window itself.
fn steady(run: &RunData) -> &[Batch] {
    let end = run.window().1.t_us;
    let m = measured(run);
    &m[..m.partition_point(|b| b.due_us < end)]
}

/// Ledger rows of the epochs that closed inside the steady window,
/// after its first close (see `metrics::closes_in`), with the events
/// accepted between the first and the last of those closes.
fn steady_rows<'a>(w: &Workload, run: &'a RunData) -> (Vec<&'a LedgerRecord>, u64) {
    let (first, last) = run.window();
    let inside = metrics::closes_in(&run.closes, first.t_us, last.t_us);
    let (Some(a), Some(b)) = (inside.first(), inside.last()) else {
        return (Vec::new(), 0);
    };
    let rows = run
        .ledger
        .iter()
        .flatten()
        .filter(|r| r.generation == a.generation && r.epoch > a.epoch && r.epoch <= b.epoch)
        .collect();
    let per_batch = w.batch_events as u64;
    let events = metrics::events_acked_by(&run.batches, per_batch, b.seen_us)
        - metrics::events_acked_by(&run.batches, per_batch, a.seen_us);
    (rows, events)
}

/// Share of the host's CPU time the hypervisor withheld from this
/// guest during the steady window.
pub fn steal_share(run: &RunData) -> f64 {
    let (a, b) = run.window();
    (b.host_ticks.0 - a.host_ticks.0) as f64 / (b.host_ticks.1 - a.host_ticks.1).max(1) as f64
}

pub fn sched_lag_p99_ms(run: &RunData) -> f64 {
    metrics::percentile_of(&mut metrics::sched_lag_us(steady(run)), 0.99) / 1e3
}

/// The seven end-to-end metrics, same definition on every workload,
/// and whether service came back for a full run of on-time batches
/// (when it did not, `recovery_ms` is kill → controller exit).
pub fn end_to_end(w: &Workload, run: &RunData) -> (Vec<Metric>, bool) {
    let per_batch = w.batch_events as u64;
    let m = measured(run);
    let t_first = m.first().map_or(0, |b| b.due_us);
    let wall_s = run.exit_us.saturating_sub(t_first) as f64 / 1e6;
    let events = m.len() as u64 * per_batch;

    let cpu_windows: Vec<(f64, u64)> = run
        .edges
        .windows(2)
        .map(|e| {
            let cpu = e[1].cluster_cpu_s() - e[0].cluster_cpu_s();
            (cpu, (e[1].acked - e[0].acked) * per_batch)
        })
        .collect();

    let (rows, ckpt_events) = steady_rows(w, run);
    let ckpt_bytes: u64 = rows.iter().map(|r| r.ckpt_bytes).sum();
    let (a, b) = run.window();
    let (wal_bytes, wal_events) = (b.wal_bytes - a.wal_bytes, (b.acked - a.acked) * per_batch);
    // MB per Mevent is bytes per event.
    let per_event = |bytes: u64, events: u64| bytes as f64 / events.max(1) as f64;

    let recovery = metrics::recovery_us(m, run.kill_us);
    let recovered = recovery.is_some();
    let recovery_ms = recovery.unwrap_or(run.exit_us.saturating_sub(run.kill_us)) as f64 / 1e3;

    let out = vec![
        metric("setup_s", metrics::median(&mut run.setup_s.clone()), "s"),
        metric("events_per_s", events as f64 / wall_s.max(1e-9), "1/s"),
        metric("on_time_share", metrics::on_time_share(m), "ratio"),
        metric("recovery_ms", recovery_ms, "ms"),
        metric(
            "cpu_s_per_mevent",
            metrics::subwindow_median(&cpu_windows),
            "s",
        ),
        metric(
            "store_mb_per_mevent",
            per_event(ckpt_bytes, ckpt_events) + per_event(wal_bytes, wal_events),
            "MB",
        ),
        metric("peak_rss_mb", run.rss_steady_mb, "MB"),
    ];
    (out, recovered)
}

fn p(values: impl Iterator<Item = u64>, q: f64) -> f64 {
    let mut v: Vec<f64> = values.map(|x| x as f64).collect();
    metrics::percentile_of(&mut v, q)
}

/// Per-layer metrics read off the traced cluster run: ledger rows,
/// `/proc`, and the producer-side clock.
pub fn cluster_layers(w: &Workload, run: &RunData) -> Vec<Metric> {
    let per_batch = w.batch_events as u64;
    let st = steady(run);
    let (rows, events) = steady_rows(w, run);
    let mevents = events.max(1) as f64 / 1e6;
    let gate_rows: Vec<&&LedgerRecord> = rows.iter().filter(|r| r.op == 0).collect();
    let sink_op = w.physical_ops() as u32 - 1;
    let keyed_rows: Vec<&&LedgerRecord> = rows
        .iter()
        .filter(|r| r.op != 0 && r.op != sink_op)
        .collect();
    let downstream: Vec<&&LedgerRecord> = rows.iter().filter(|r| r.op != 0).collect();
    let grow = |f: fn(&LedgerRecord) -> u64| match (gate_rows.first(), gate_rows.last()) {
        (Some(a), Some(b)) if gate_rows.len() > 1 => {
            // Growth between the first and last row covers one epoch
            // fewer than `events`.
            let scale = gate_rows.len() as f64 / (gate_rows.len() - 1) as f64;
            (f(b) - f(a)) as f64 * scale / events.max(1) as f64
        }
        _ => 0.0,
    };

    let mut ack_ms: Vec<f64> = st
        .iter()
        .filter_map(|b| b.acked_us.map(|a| (a - b.sent_us) as f64 / 1e3))
        .collect();
    let busy_us: f64 = ack_ms.iter().sum::<f64>() * 1e3;
    let (a, b) = run.window();
    let window_us = (b.t_us - a.t_us).max(1) as f64;
    let window_mevents = ((b.acked - a.acked) * per_batch).max(1) as f64 / 1e6;
    let cpu = |i: usize| b.cpu_s[i] - a.cpu_s[i];
    let total_cpu: f64 = (0..3).map(cpu).sum();

    // Tracing overhead: CPU (cluster + harness) per Mevent of the
    // sub-windows that recorded spans against those that did not.
    let by_tracing = |on: bool| -> f64 {
        let win: Vec<(f64, u64)> = run
            .edges
            .windows(2)
            .filter(|e| e[1].traced == on)
            .map(|e| {
                let cpu = e[1].cluster_cpu_s() + e[1].harness_cpu_s
                    - e[0].cluster_cpu_s()
                    - e[0].harness_cpu_s;
                (cpu, (e[1].acked - e[0].acked) * per_batch)
            })
            .collect();
        metrics::subwindow_median(&win)
    };
    let (traced, untraced) = (by_tracing(true), by_tracing(false));
    let overhead = if traced > 0.0 && untraced > 0.0 {
        traced / untraced - 1.0
    } else {
        0.0
    };

    let m = measured(run);
    let reaccept_us = metrics::outage_start(m, run.kill_us)
        .and_then(|i| m[i].acked_us)
        .map_or(0, |a| a.saturating_sub(run.kill_us));
    let recovery_us = metrics::recovery_us(m, run.kill_us).unwrap_or(0);
    let last_gen = run.closes.iter().map(|c| c.generation).max().unwrap_or(0);
    let first_barrier_us = run
        .closes
        .iter()
        .find(|c| c.generation == last_gen && c.seen_us >= run.kill_us)
        .map_or(0, |c| c.seen_us - run.kill_us);
    let all_rows: &[LedgerRecord] = run.ledger.as_deref().unwrap_or(&[]);
    let epochs: BTreeSet<(u64, u64)> = all_rows.iter().map(|r| (r.generation, r.epoch)).collect();
    let last_epoch_state: u64 = rows
        .iter()
        .filter(|r| Some(r.epoch) == rows.last().map(|l| l.epoch))
        .map(|r| r.state_bytes)
        .sum();
    let steady_only: Vec<LedgerRecord> = rows.iter().map(|r| (*r).clone()).collect();

    let mut barrier: Vec<f64> = gate_rows
        .iter()
        .map(|r| r.barrier_us as f64 / 1e3)
        .collect();
    vec![
        metric(
            "gate.ack_p50_ms",
            metrics::percentile_of(&mut ack_ms, 0.5),
            "ms",
        ),
        metric(
            "gate.ack_p99_ms",
            metrics::percentile_of(&mut ack_ms, 0.99),
            "ms",
        ),
        metric("gate.busy_share", busy_us / window_us, "ratio"),
        metric(
            "gate.inner_ack_p50_us",
            p(gate_rows.iter().map(|r| r.gate_ack_p50_us), 0.5),
            "us",
        ),
        metric("store.wal_mb_per_mevent", grow(|r| r.gate_wal_bytes), "MB"),
        metric(
            "store.ckpt_mb_per_mevent",
            rows.iter().map(|r| r.ckpt_bytes).sum::<u64>() as f64 / 1e6 / mevents,
            "MB",
        ),
        metric(
            "store.delta_share",
            keyed_rows.iter().filter(|r| r.delta).count() as f64 / keyed_rows.len().max(1) as f64,
            "ratio",
        ),
        metric(
            "store.persist_ms_p50",
            p(keyed_rows.iter().map(|r| r.persist_us), 0.5) / 1e3,
            "ms",
        ),
        metric("wire.bytes_per_event", grow(|r| r.bytes_out), "B"),
        metric(
            "worker.gate_host_cpu_s_per_mevent",
            cpu(2) / window_mevents,
            "s",
        ),
        metric("worker.peer_cpu_s_per_mevent", cpu(1) / window_mevents, "s"),
        metric(
            "worker.ctx_switches_per_kevent",
            (b.ctx_switches - a.ctx_switches) as f64 / (window_mevents * 1e3),
            "count",
        ),
        metric("worker.threads", run.worker_threads as f64, "count"),
        metric(
            "evloop.queued_tuples_p90",
            p(downstream.iter().map(|r| r.queued_tuples), 0.9),
            "count",
        ),
        metric(
            "op.align_wait_ms_p50",
            p(downstream.iter().map(|r| r.align_wait_us), 0.5) / 1e3,
            "ms",
        ),
        metric(
            "op.serialize_ms_p50",
            p(keyed_rows.iter().map(|r| r.serialize_us), 0.5) / 1e3,
            "ms",
        ),
        metric("op.state_mb", last_epoch_state as f64 / 1e6, "MB"),
        metric(
            "op.shard_skew",
            ms_wire::worst_shard_skew(&steady_only).unwrap_or(1.0),
            "ratio",
        ),
        metric(
            "ctl.barrier_p50_ms",
            metrics::percentile_of(&mut barrier, 0.5),
            "ms",
        ),
        metric(
            "ctl.barrier_p90_ms",
            metrics::percentile_of(&mut barrier, 0.9),
            "ms",
        ),
        metric("ctl.epochs", gate_rows.len() as f64, "count"),
        metric(
            "ctl.ledger_recovery_ms",
            run.ledger_recovery_us as f64 / 1e3,
            "ms",
        ),
        metric("ctl.cpu_share", cpu(0) / total_cpu.max(1e-9), "ratio"),
        metric(
            "ctl.recoveries",
            crate::verify::parse_result(&run.result).map_or(0.0, |r| r.0 as f64),
            "count",
        ),
        metric(
            "recovery.redeploy_ms",
            run.addr_changed_us
                .map_or(0, |t| t.saturating_sub(run.kill_us)) as f64
                / 1e3,
            "ms",
        ),
        metric("recovery.reaccept_ms", reaccept_us as f64 / 1e3, "ms"),
        metric(
            "recovery.catchup_ms",
            recovery_us.saturating_sub(reaccept_us) as f64 / 1e3,
            "ms",
        ),
        metric(
            "recovery.first_barrier_ms",
            first_barrier_us as f64 / 1e3,
            "ms",
        ),
        metric("recovery.peak_rss_mb", run.rss_exit_mb, "MB"),
        metric(
            "ledger.read_ms_per_krow",
            run.ledger_read_ms / (all_rows.len().max(1) as f64 / 1e3),
            "ms",
        ),
        metric(
            "ledger.bytes_per_epoch",
            run.ledger_bytes as f64 / epochs.len().max(1) as f64,
            "B",
        ),
        metric("harness.sched_lag_p99_ms", sched_lag_p99_ms(run), "ms"),
        metric(
            "harness.cpu_s_per_mevent",
            (b.harness_cpu_s - a.harness_cpu_s) / window_mevents,
            "s",
        ),
        metric("harness.settle_s", run.settle_s, "s"),
        metric("host.steal_share", steal_share(run), "ratio"),
        metric("trace.overhead_share", overhead, "ratio"),
    ]
}

/// Host, toolchain, commit, seed and date: stamped on every output
/// file so a number can be traced to what produced it.
pub fn stamp(seed: u64) -> String {
    let run = |cmd: &str, args: &[&str]| -> String {
        Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let dirty = match run("git", &["status", "--porcelain"]).as_str() {
        "unknown" => "unknown",
        "" => "false",
        _ => "true",
    };
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    format!(
        "{{\"nproc\":{nproc},\"kernel\":{},\"rustc\":{},\"git_rev\":{},\"dirty\":\"{dirty}\",\"seed\":{seed},\"date\":{}}}",
        json_str(&run("uname", &["-r"])),
        json_str(&run("rustc", &["-V"])),
        json_str(&run("git", &["rev-parse", "HEAD"])),
        json_str(&utc_date(secs)),
    )
}

/// `YYYY-MM-DDThh:mm:ssZ` of a UNIX time (civil-from-days, proleptic
/// Gregorian).
fn utc_date(secs: u64) -> String {
    let (days, rem) = (secs / 86_400, secs % 86_400);
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    )
}

pub fn print_table(metrics: &[Metric]) {
    for m in metrics {
        println!("{:<38} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// What the metrics were computed from, for whoever reads the output
/// file: set-up rounds, sub-window readings, barrier closes as seen,
/// the kill, and the steady window's ledger rows.
pub fn observed_json(w: &Workload, run: &RunData) -> String {
    let per_batch = w.batch_events as u64;
    let list = |items: Vec<String>| format!("[{}]", items.join(","));
    let subs = run
        .edges
        .windows(2)
        .map(|e| {
            format!(
                "{{\"from_us\":{},\"to_us\":{},\"cluster_cpu_s\":{},\"harness_cpu_s\":{},\"events\":{},\"wal_bytes\":{},\"steal_ticks\":{},\"traced\":{}}}",
                e[0].t_us,
                e[1].t_us,
                json_num(e[1].cluster_cpu_s() - e[0].cluster_cpu_s()),
                json_num(e[1].harness_cpu_s - e[0].harness_cpu_s),
                (e[1].acked - e[0].acked) * per_batch,
                e[1].wal_bytes - e[0].wal_bytes,
                e[1].host_ticks.0 - e[0].host_ticks.0,
                e[1].traced
            )
        })
        .collect();
    let closes = run
        .closes
        .iter()
        .map(|c| format!("[{},{},{}]", c.generation, c.epoch, c.seen_us))
        .collect();
    let rows = steady_rows(w, run)
        .0
        .iter()
        .map(|r| {
            format!(
                "[{},{},{},{},{}]",
                r.epoch, r.op, r.ckpt_bytes, r.delta, r.barrier_us
            )
        })
        .collect();
    format!(
        "{{\"setup_s\":{},\"settle_s\":{},\"kill_us\":{},\"exit_us\":{},\"sub_windows\":{},\"closes_generation_epoch_seen_us\":{},\"steady_rows_epoch_op_ckpt_bytes_delta_barrier_us\":{}}}",
        list(run.setup_s.iter().map(|&s| json_num(s)).collect()),
        json_num(run.settle_s),
        run.kill_us,
        run.exit_us,
        list(subs),
        list(closes),
        list(rows)
    )
}

/// Writes `<out>/<kind>_<workload>.json`: stamp, result, the raw
/// observations and (traced pass) every span.
pub fn write_file(
    out_dir: &Path,
    kind: &str,
    w: &Workload,
    seed: u64,
    result: &str,
    observed: &str,
    tracer: Option<&Tracer>,
) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir)?;
    let mut text = format!(
        "{{\"workload\": {}, \"stamp\": {}, \"result\": {result}, \"observed\": {observed}",
        json_str(w.name),
        stamp(seed)
    );
    if let Some(t) = tracer {
        text.push_str(", \"spans\": [");
        for (i, s) in t.spans.iter().enumerate() {
            if i > 0 {
                text.push(',');
            }
            let _ = write!(
                text,
                "\n{{\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"run\":{}}}",
                json_str(s.name),
                s.start_ns,
                s.end_ns,
                if s.parent == crate::trace::NO_PARENT {
                    "null".to_string()
                } else {
                    s.parent.to_string()
                },
                s.run
            );
        }
        text.push_str("\n]");
    }
    text.push_str("}\n");
    std::fs::write(out_dir.join(format!("{kind}_{}.json", w.name)), text)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every quoted string that follows `key` in `text`, in order.
    fn strings_after<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
        text.split(key)
            .skip(1)
            .filter_map(|rest| rest.split('"').nth(1))
            .collect()
    }

    /// `BENCHMARK.json` is the contract; the harness holds a second
    /// copy of the names, rationales and bounds.
    #[test]
    fn benchmark_json_agrees_with_the_harness() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let (head, per_layer) = text.split_once("\"per_layer\"").expect("per_layer key");
        let (head, end_to_end) = head.split_once("\"end_to_end\"").expect("end_to_end key");

        let whys = strings_after(head, "\"why\":");
        let names: Vec<&str> = strings_after(head, "\"name\":");
        let ours = crate::workload::WORKLOADS;
        assert_eq!(names, ours.map(|w| w.name));
        assert_eq!(whys, ours.map(|w| w.why));
        assert!(whys.iter().all(|w| w.len() <= 200));

        assert_eq!(
            strings_after(end_to_end, "\"name\":"),
            BOUNDS.map(|(n, _)| n)
        );
        let bounds: Vec<f64> = end_to_end
            .split("\"bound\":")
            .skip(1)
            .filter_map(|rest| rest.split([',', '}', '\n']).next()?.trim().parse().ok())
            .collect();
        assert_eq!(bounds, BOUNDS.map(|(_, b)| b));

        // Every per-layer metric the harness can emit is declared, and
        // nothing else is.
        let mut emitted: Vec<&str> = [include_str!("report.rs"), include_str!("replay.rs")]
            .iter()
            .flat_map(|src| strings_after(src, "metric("))
            .filter(|n| n.contains('.') && !n.contains(char::is_whitespace))
            .collect();
        let mut declared = strings_after(per_layer, "\"name\":");
        emitted.sort_unstable();
        emitted.dedup();
        declared.sort_unstable();
        assert_eq!(emitted, declared);
    }

    #[test]
    fn dates_are_civil() {
        assert_eq!(utc_date(0), "1970-01-01T00:00:00Z");
        assert_eq!(utc_date(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(utc_date(1_790_500_000), "2026-09-27T09:06:40Z");
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(true, 10, 0, &[metric("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(f64::NAN), "0");
    }
}
