//! The controller's run ledger: one JSONL record per (epoch,
//! operator), written next to the generation's checkpoint directory.
//!
//! The ledger is the cluster's durable telemetry trail — the offline
//! counterpart of the samples [`WireMsg::Heartbeat`] and
//! [`WireMsg::CkptDone`] carry. Every time an epoch's barrier closes
//! (the last `CkptDone` arrives), the controller cuts one
//! [`LedgerRecord`] per operator from the freshest meter samples:
//! state size (the paper's Fig. 5 trace, and the series the ROADMAP's
//! `+aa` profiler will consume), checkpoint bytes with delta-vs-full
//! kind, the checkpoint phase breakdown (align-wait / capture /
//! persist, Fig. 14) with the pages the operator's table copied on
//! write, the hosting worker's backpressure gauges, and the
//! token-broadcast→last-ack barrier latency.
//!
//! Each record is one flat, numeric JSON object per line, append-only,
//! so the file survives controller restarts (recovery generations
//! append to the same ledger) and any JSON tool can consume it. The
//! row is declared once, as a table of columns that names what each
//! is cut from ([`LedgerRecord::cut`]); its JSON writer and reader are
//! generated from that table, as the samples' wire encoding is from
//! theirs ([`ms_core::columns!`]). [`read_ledger`] and [`summarize`]
//! are the programmatic consumers; the `ms_ledger` bin wraps them for
//! the command line.
//!
//! [`WireMsg::Heartbeat`]: crate::WireMsg::Heartbeat
//! [`WireMsg::CkptDone`]: crate::WireMsg::CkptDone

use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;
use std::str::FromStr;

use ms_core::error::{Error, Result};
use ms_core::metrics::{BackpressureGauges, DurationStats, OperatorSample};
use ms_core::time::SimDuration;
use ms_gate::GateSample;

/// File name of the run ledger inside the controller's store
/// directory, next to `ckpt/` and `log/`.
pub const LEDGER_FILE: &str = "ledger.jsonl";

/// Whether a ledger column carries the `or_default` marker.
macro_rules! or_default {
    () => {
        false
    };
    (or_default) => {
        true
    };
}

/// Declares the ledger row as one table. Each column gives its name,
/// type and doc, the expression of `cut`'s arguments it is cut from,
/// and, for a column added after the first ledgers were written, the
/// `or_default` marker: a row without that column reads its default.
/// Every other column is required. The struct, `cut`, `to_json` and
/// `from_json` are generated from the table.
macro_rules! ledger_table {
    (
        $(#[$meta:meta])*
        pub struct $name:ident;
        $(#[$cut_doc:meta])*
        pub fn cut($($arg:ident: $arg_ty:ty),* $(,)?);
        $( $(#[$doc:meta])* $col:ident: $ty:ty = $src:expr $(, $marker:ident)?; )*
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$doc])* pub $col: $ty, )*
        }

        impl $name {
            $(#[$cut_doc])*
            #[allow(clippy::too_many_arguments)]
            pub fn cut($($arg: $arg_ty),*) -> $name {
                $name { $( $col: $src, )* }
            }

            /// Encodes the record as one flat JSON object (no trailing
            /// newline), its columns in table order.
            pub fn to_json(&self) -> String {
                let mut out = String::from("{");
                $( let _ = write!(out, concat!("\"", stringify!($col), "\":{},"), self.$col); )*
                out.pop();
                out.push('}');
                out
            }

            /// Parses one JSON line. Unknown fields are ignored (forward
            /// compatibility).
            pub fn from_json(line: &str) -> Result<$name> {
                let s = line.trim();
                if !(s.starts_with('{') && s.ends_with('}')) {
                    return Err(Error::Storage(format!(
                        "ledger line is not a JSON object: {s:?}"
                    )));
                }
                Ok($name {
                    $( $col: column(s, stringify!($col), or_default!($($marker)?))?, )*
                })
            }
        }
    };
}

ledger_table! {
    /// One (epoch, operator) row of the run ledger.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct LedgerRecord;

    /// The row of operator `op` for a just-closed barrier: flow counters
    /// and checkpoint phases from its sample `s`, its hosting worker's
    /// `gauges`, its `gate` sample (zero for an operator that is no
    /// gate), and the epoch's `barrier_us`.
    pub fn cut(
        generation: u64,
        epoch: u64,
        op: u32,
        logical: u32,
        s: &OperatorSample,
        gauges: &BackpressureGauges,
        gate: &GateSample,
        barrier_us: u64,
    );

    /// Deployment generation the epoch completed in.
    generation: u64 = generation;
    /// The completed (barrier-closed) epoch.
    epoch: u64 = epoch;
    /// The (physical) operator this row describes.
    op: u32 = op;
    /// The logical operator the physical instance belongs to. Equal to
    /// `op` for unsharded deployments; shards of one keyed operator
    /// share a `logical` and differ in `op`.
    logical: u32 = logical;
    /// Logical state size at the operator's last snapshot.
    state_bytes: u64 = s.state_bytes;
    /// Encoded bytes of the capture the operator submitted for the
    /// epoch (a delta's own bytes, even when the store rebased it).
    ckpt_bytes: u64 = s.ckpt_bytes;
    /// Whether that capture was a delta rather than a full.
    delta: bool = s.ckpt_is_delta;
    /// Token-alignment wait of the cut (µs). Zero for sources.
    align_wait_us: u64 = s.align_wait_us;
    /// The capture on the host thread (µs): how long the checkpoint
    /// held the worker's event loop.
    capture_us: u64 = s.capture_us, or_default;
    /// Written as zero: no phase serializes apart from the capture and
    /// the store write any more. The column stays only until ROADMAP
    /// I-a(2) drops the benchmark report's reading of it.
    serialize_us: u64 = 0;
    /// Stable-store write time (µs).
    persist_us: u64 = s.persist_us;
    /// Pages the operator's table copied on write between this capture
    /// and the one before.
    cow_pages_copied: u64 = s.cow_pages_copied, or_default;
    /// Bytes of the checkpoint file the store wrote: a delta it
    /// rebased counts its full file here.
    file_bytes: u64 = s.file_bytes, or_default;
    /// Whether that file is a delta link; `delta` without `file_delta`
    /// is a rebased epoch.
    file_delta: bool = s.file_is_delta, or_default;
    /// Tuples the operator has consumed since its generation started.
    tuples_in: u64 = s.tuples_in;
    /// Tuples the operator has emitted.
    tuples_out: u64 = s.tuples_out;
    /// Encoded batch-record bytes the operator has emitted on its
    /// routes.
    bytes_out: u64 = s.bytes_out;
    /// Hosting worker's queued-input gauge at the barrier.
    queued_tuples: u64 = gauges.queued_tuples;
    /// Hosting worker's open-alignment-window gauge at the barrier.
    open_windows: u64 = gauges.open_windows;
    /// Hosting worker's window-buffered-tuple gauge at the barrier.
    window_tuples: u64 = gauges.window_tuples;
    /// Ingestion-gateway rows only (zero elsewhere): batches admitted
    /// and acked `Accepted` since the generation started.
    gate_accepted: u64 = gate.accepted_batches;
    /// Gateway rows only: batches shed at admission (acked `Busy`).
    gate_shed: u64 = gate.shed_batches;
    /// Gateway rows only: bytes appended to the preservation log.
    gate_wal_bytes: u64 = gate.wal_bytes;
    /// Gateway rows only: median admission-to-ack latency (µs).
    gate_ack_p50_us: u64 = gate.ack_p50_us;
    /// Gateway rows only: p99 admission-to-ack latency (µs).
    gate_ack_p99_us: u64 = gate.ack_p99_us;
    /// Token broadcast → last `CkptDone` for the epoch (µs). The same
    /// value repeats on every row of the epoch.
    barrier_us: u64 = barrier_us;
}

/// One cadence/recovery decision of the controller's telemetry plane,
/// written to the same `ledger.jsonl` as the per-(epoch, operator)
/// rows but tagged `"kind":"decision"` so the two record types share
/// one append-ordered durable stream. Epoch-row consumers
/// ([`read_ledger`]) skip decision lines; [`read_decisions`] reads
/// only them.
///
/// A decision line is written when the live application-aware plane
/// initiates a checkpoint (`reason` = `local_minimum` / `period_end`),
/// when the adaptive cadence layer moves the checkpoint period
/// (`widen` / `narrow` / `hold`), and when a recovery completes
/// (`recovery`, with the measured failure-to-barrier time in
/// `recovery_us`). Fields that don't apply to a given reason are zero.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DecisionRecord {
    /// Deployment generation the decision was taken in.
    pub generation: u64,
    /// The epoch the decision concerns (the barrier it initiated, or
    /// the barrier whose signals it was computed from).
    pub epoch: u64,
    /// Reason code: `timer`, `local_minimum`, `period_end`, `widen`,
    /// `narrow`, `hold`, `recovery`.
    pub reason: String,
    /// Aggregate live state size input to the decision (bytes).
    pub state_bytes: u64,
    /// Checkpoint bytes of the epoch the decision was computed from.
    pub ckpt_bytes: u64,
    /// Barrier latency of that epoch (µs).
    pub barrier_us: u64,
    /// The cadence layer's estimated worst-case recovery time (µs):
    /// checkpoint restore plus the replay window.
    pub est_recovery_us: u64,
    /// The configured recovery-time budget (µs); zero when no budget.
    pub budget_us: u64,
    /// Checkpoint period in force before the decision (µs).
    pub period_us_before: u64,
    /// Checkpoint period in force after the decision (µs).
    pub period_us_after: u64,
    /// Measured failure-detection → first-post-restore-barrier time
    /// (µs); only on `recovery` rows.
    pub recovery_us: u64,
}

impl DecisionRecord {
    /// Encodes the record as one flat JSON object (no newline).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"kind\":\"decision\",\"generation\":{},\"epoch\":{},",
                "\"reason\":\"{}\",\"state_bytes\":{},\"ckpt_bytes\":{},",
                "\"barrier_us\":{},\"est_recovery_us\":{},\"budget_us\":{},",
                "\"period_us_before\":{},\"period_us_after\":{},",
                "\"recovery_us\":{}}}"
            ),
            self.generation,
            self.epoch,
            self.reason,
            self.state_bytes,
            self.ckpt_bytes,
            self.barrier_us,
            self.est_recovery_us,
            self.budget_us,
            self.period_us_before,
            self.period_us_after,
            self.recovery_us,
        )
    }

    /// Parses one decision JSON line (must carry the
    /// `"kind":"decision"` tag).
    pub fn from_json(line: &str) -> Result<DecisionRecord> {
        let s = line.trim();
        if !(s.starts_with('{') && s.ends_with('}')) {
            return Err(Error::Storage(format!(
                "decision line is not a JSON object: {s:?}"
            )));
        }
        if json_str(s, "kind")? != "decision" {
            return Err(Error::Storage("not a decision record".into()));
        }
        Ok(DecisionRecord {
            generation: field(s, "generation")?,
            epoch: field(s, "epoch")?,
            reason: json_str(s, "reason")?.to_string(),
            state_bytes: field(s, "state_bytes")?,
            ckpt_bytes: field(s, "ckpt_bytes")?,
            barrier_us: field(s, "barrier_us")?,
            est_recovery_us: field(s, "est_recovery_us")?,
            budget_us: field(s, "budget_us")?,
            period_us_before: field(s, "period_us_before")?,
            period_us_after: field(s, "period_us_after")?,
            recovery_us: field(s, "recovery_us")?,
        })
    }

    /// One-line human rendering, shared by `ms_ledger --follow` and
    /// the decision section of the summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "decision gen={} epoch={} reason={}",
            self.generation, self.epoch, self.reason
        );
        if self.state_bytes > 0 {
            out.push_str(&format!(" state={}B", self.state_bytes));
        }
        if self.period_us_before != self.period_us_after {
            out.push_str(&format!(
                " period {:.0}ms->{:.0}ms",
                ms(self.period_us_before),
                ms(self.period_us_after)
            ));
        } else if self.period_us_after > 0 {
            out.push_str(&format!(" period {:.0}ms", ms(self.period_us_after)));
        }
        if self.est_recovery_us > 0 {
            out.push_str(&format!(" est_recovery={:.1}ms", ms(self.est_recovery_us)));
        }
        if self.budget_us > 0 {
            out.push_str(&format!(" budget={:.0}ms", ms(self.budget_us)));
        }
        if self.recovery_us > 0 {
            out.push_str(&format!(" recovered_in={:.1}ms", ms(self.recovery_us)));
        }
        out
    }
}

/// Whether a raw ledger line is a decision record rather than an
/// (epoch, operator) row.
fn is_decision_line(line: &str) -> bool {
    line.contains("\"kind\":\"decision\"")
}

/// Reads only the [`DecisionRecord`]s of a ledger file, in file order,
/// with the same torn-final-line tolerance as [`read_ledger`].
pub fn read_decisions(path: &Path) -> Result<Vec<DecisionRecord>> {
    let mut text = String::new();
    File::open(path)
        .and_then(|mut f| f.read_to_string(&mut text))
        .map_err(|e| Error::Storage(format!("read ledger {}: {e}", path.display())))?;
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let mut decisions = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if !is_decision_line(line) {
            continue;
        }
        match DecisionRecord::from_json(line) {
            Ok(d) => decisions.push(d),
            Err(e) if i + 1 == lines.len() => {
                eprintln!(
                    "[ledger] skipping torn trailing line of {}: {e}",
                    path.display()
                );
            }
            Err(e) => return Err(e),
        }
    }
    Ok(decisions)
}

fn json_str<'a>(s: &'a str, key: &str) -> Result<&'a str> {
    let v = json_value(s, key)?;
    v.strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or_else(|| Error::Storage(format!("ledger field {key:?} is not a string")))
}

fn json_value<'a>(s: &'a str, key: &str) -> Result<&'a str> {
    let pat = format!("\"{key}\":");
    let start = s
        .find(&pat)
        .ok_or_else(|| Error::Storage(format!("ledger record missing field {key:?}")))?
        + pat.len();
    let rest = &s[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Ok(rest[..end].trim())
}

/// The value of field `key` of a JSON object line.
fn field<T: FromStr>(s: &str, key: &str) -> Result<T> {
    let v = json_value(s, key)?;
    v.parse()
        .map_err(|_| Error::Storage(format!("ledger field {key:?} is malformed: {v:?}")))
}

/// [`field`] of a ledger column; with `or_default`, a row without the
/// column reads its default. A present but malformed one is an error.
fn column<T: FromStr + Default>(s: &str, key: &str, or_default: bool) -> Result<T> {
    if or_default && !s.contains(&format!("\"{key}\":")) {
        Ok(T::default())
    } else {
        field(s, key)
    }
}

/// Append-mode writer for a run ledger. The controller opens one per
/// run; recovery generations keep appending to the same file, so a
/// ledger spans worker failures.
pub struct LedgerWriter {
    out: File,
}

impl LedgerWriter {
    /// Opens (or creates) the ledger at `path` for appending.
    ///
    /// A torn trailing line left by a crashed predecessor (a row is one
    /// `write_all`, so only the final line can tear, and a torn line
    /// never got its newline) is truncated away first: appending after
    /// it would bury the tear as unparseable *interior* corruption.
    pub fn open(path: &Path) -> Result<LedgerWriter> {
        let out = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| Error::Storage(format!("open ledger {}: {e}", path.display())))?;
        if let Ok(bytes) = std::fs::read(path) {
            if !bytes.is_empty() && bytes[bytes.len() - 1] != b'\n' {
                let clean = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
                eprintln!(
                    "[ledger] truncating torn trailing line of {} ({} bytes)",
                    path.display(),
                    bytes.len() - clean
                );
                out.set_len(clean as u64).map_err(|e| {
                    Error::Storage(format!("repair ledger {}: {e}", path.display()))
                })?;
            }
        }
        Ok(LedgerWriter { out })
    }

    /// Appends one record as one line and flushes it — a ledger row is
    /// on disk before the next epoch's tokens go out. The whole line
    /// (newline included) goes down in a single `write_all`, so a
    /// crash mid-append can tear at most the final line of the file —
    /// the exact case [`read_ledger`] tolerates — never interleave or
    /// split an interior one.
    pub fn append(&mut self, rec: &LedgerRecord) -> Result<()> {
        let mut line = rec.to_json();
        line.push('\n');
        self.out
            .write_all(line.as_bytes())
            .and_then(|()| self.out.flush())
            .map_err(|e| Error::Storage(format!("append ledger record: {e}")))
    }

    /// Appends one [`DecisionRecord`] line, with the same
    /// single-`write_all` tear discipline as [`LedgerWriter::append`].
    pub fn append_decision(&mut self, rec: &DecisionRecord) -> Result<()> {
        let mut line = rec.to_json();
        line.push('\n');
        self.out
            .write_all(line.as_bytes())
            .and_then(|()| self.out.flush())
            .map_err(|e| Error::Storage(format!("append ledger decision: {e}")))
    }
}

/// Reads and parses the records of a ledger file, in file order.
///
/// A malformed *final* line is skipped with a warning: the writer
/// appends each row in one `write_all`, so a controller crash can tear
/// the last line and nothing else — rejecting the whole ledger for it
/// would make every post-crash summary (and the restarted controller's
/// generation resume) fail exactly when they matter most. A malformed
/// *interior* line still fails the parse: that is corruption, not a
/// torn append.
pub fn read_ledger(path: &Path) -> Result<Vec<LedgerRecord>> {
    let mut text = String::new();
    File::open(path)
        .and_then(|mut f| f.read_to_string(&mut text))
        .map_err(|e| Error::Storage(format!("read ledger {}: {e}", path.display())))?;
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let mut records = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        // Decision records share the file but not the schema; they
        // have their own reader ([`read_decisions`]).
        if is_decision_line(line) {
            continue;
        }
        match LedgerRecord::from_json(line) {
            Ok(rec) => records.push(rec),
            Err(e) if i + 1 == lines.len() => {
                eprintln!(
                    "[ledger] skipping torn trailing line of {}: {e}",
                    path.display()
                );
            }
            Err(e) => return Err(e),
        }
    }
    Ok(records)
}

fn ms(us: u64) -> f64 {
    us as f64 / 1000.0
}

/// Incremental reader behind `ms_ledger --follow`: tails a (possibly
/// still growing) ledger file and turns newly appended lines into
/// human-readable output lines — one summary line per *completed*
/// epoch (all rows of an epoch are appended before the first row of
/// the next, so a new epoch id closes the previous one), plus every
/// decision record as it lands.
///
/// Torn trailing lines are handled the way [`read_ledger`] handles
/// them, but live: only newline-terminated input is parsed, so a
/// mid-append tail is simply held back until the writer finishes the
/// line. A malformed *complete* line is still loud — that is interior
/// corruption, exactly as in the batch reader.
#[derive(Debug, Default)]
pub struct LedgerFollower {
    /// File offset up to which input has been consumed.
    offset: u64,
    /// Carry for a read that ended mid-line (not yet parseable).
    partial: String,
    /// Epoch currently being accumulated, with its rows so far.
    current: Option<(u64, Vec<LedgerRecord>)>,
    /// Running barrier-latency distribution across followed epochs.
    barrier: DurationStats,
}

impl LedgerFollower {
    /// A follower that starts at the beginning of the file.
    pub fn new() -> LedgerFollower {
        LedgerFollower::default()
    }

    /// Reads whatever the writer appended since the last poll and
    /// returns the output lines it completes. An absent file is not
    /// an error (the controller may not have opened the ledger yet);
    /// it just yields nothing.
    pub fn poll(&mut self, path: &Path) -> Result<Vec<String>> {
        let mut f = match File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => {
                return Err(Error::Storage(format!(
                    "follow ledger {}: {e}",
                    path.display()
                )))
            }
        };
        let len = f
            .metadata()
            .map_err(|e| Error::Storage(format!("follow ledger {}: {e}", path.display())))?
            .len();
        if len < self.offset {
            // The writer truncated a torn tail on reopen; our carry
            // (if any) was part of what got cut. Re-read from the
            // last newline we fully consumed.
            self.offset = self.offset.saturating_sub(self.partial.len() as u64);
            self.partial.clear();
            if len < self.offset {
                self.offset = 0;
                self.current = None;
            }
        }
        use std::io::Seek;
        f.seek(std::io::SeekFrom::Start(self.offset))
            .map_err(|e| Error::Storage(format!("follow ledger {}: {e}", path.display())))?;
        let mut fresh = String::new();
        f.read_to_string(&mut fresh)
            .map_err(|e| Error::Storage(format!("follow ledger {}: {e}", path.display())))?;
        self.offset += fresh.len() as u64;
        self.partial.push_str(&fresh);

        let mut out = Vec::new();
        // Only newline-terminated lines are complete; the remainder
        // stays in the carry until the writer finishes it.
        while let Some(nl) = self.partial.find('\n') {
            let line: String = self.partial.drain(..=nl).collect();
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if is_decision_line(line) {
                out.push(DecisionRecord::from_json(line)?.render());
                continue;
            }
            let rec = LedgerRecord::from_json(line)?;
            if matches!(&self.current, Some((epoch, _)) if *epoch != rec.epoch) {
                out.extend(self.flush());
            }
            match &mut self.current {
                Some((_, rows)) => rows.push(rec),
                None => self.current = Some((rec.epoch, vec![rec])),
            }
        }
        Ok(out)
    }

    /// Renders and drops the epoch currently being accumulated, if
    /// any. `poll` calls this when a new epoch opens; callers use it
    /// at end of stream so the final epoch isn't lost.
    pub fn flush(&mut self) -> Vec<String> {
        let Some((epoch, rows)) = self.current.take() else {
            return Vec::new();
        };
        let gen = rows.iter().map(|r| r.generation).max().unwrap_or(0);
        let state: u64 = rows.iter().map(|r| r.state_bytes).sum();
        let ckpt: u64 = rows.iter().map(|r| r.ckpt_bytes).sum();
        let barrier = rows.iter().map(|r| r.barrier_us).max().unwrap_or(0);
        self.barrier.record(SimDuration::from_micros(barrier));
        let grower = rows
            .iter()
            .max_by_key(|r| r.state_bytes)
            .map(|r| format!("  top op{}={}B", r.op, r.state_bytes))
            .unwrap_or_default();
        let accepted: u64 = rows.iter().map(|r| r.gate_accepted).sum();
        let shed: u64 = rows.iter().map(|r| r.gate_shed).sum();
        let gate = if accepted > 0 || shed > 0 {
            format!("  gate acc={accepted} shed={shed}")
        } else {
            String::new()
        };
        vec![format!(
            "epoch {epoch:>4}  gen {gen}  ops {:>2}  state {state:>9}B  ckpt {ckpt:>8}B  \
             barrier {:>7.1}ms  p99 {:>7.1}ms{grower}{gate}",
            rows.len(),
            ms(barrier),
            ms(self.barrier.p99().as_micros()),
        )]
    }
}

/// Renders a human-readable summary of ledger records: a per-epoch
/// table (state/checkpoint bytes, phase critical paths, barrier
/// latency), the top-`top_n` operators by state growth, and
/// barrier-latency stats. Shared by the `ms_ledger` bin and the
/// `wire_cluster` example.
pub fn summarize(records: &[LedgerRecord], top_n: usize) -> String {
    use std::collections::BTreeMap;

    let mut out = String::new();
    if records.is_empty() {
        out.push_str("run ledger: empty\n");
        return out;
    }
    // Group rows per epoch (epochs are unique across generations).
    let mut epochs: BTreeMap<u64, Vec<&LedgerRecord>> = BTreeMap::new();
    for r in records {
        epochs.entry(r.epoch).or_default().push(r);
    }
    let generations: std::collections::BTreeSet<u64> =
        records.iter().map(|r| r.generation).collect();
    out.push_str(&format!(
        "run ledger: {} records, {} epochs, {} generation(s)\n",
        records.len(),
        epochs.len(),
        generations.len()
    ));
    out.push_str(
        "epoch  gen  ops  state_B    ckpt_B   delta    file_B  file_delta  align_ms  capture_ms  persist_ms  cow_pages  barrier_ms\n",
    );
    for (epoch, rows) in &epochs {
        let gen = rows.iter().map(|r| r.generation).max().unwrap_or(0);
        let state: u64 = rows.iter().map(|r| r.state_bytes).sum();
        let ckpt: u64 = rows.iter().map(|r| r.ckpt_bytes).sum();
        let deltas = rows.iter().filter(|r| r.delta).count();
        // What the store wrote: a rebased epoch counts its delta under
        // `delta` but lands as a full file.
        let file: u64 = rows.iter().map(|r| r.file_bytes).sum();
        let file_deltas = rows.iter().filter(|r| r.file_delta).count();
        // Phase columns report the slowest operator — the phase's
        // critical path, which is what bounds the epoch.
        let align = rows.iter().map(|r| r.align_wait_us).max().unwrap_or(0);
        let capture = rows.iter().map(|r| r.capture_us).max().unwrap_or(0);
        let persist = rows.iter().map(|r| r.persist_us).max().unwrap_or(0);
        let barrier = rows.iter().map(|r| r.barrier_us).max().unwrap_or(0);
        // Copied pages add up: every operator's copies cost memory.
        let cow: u64 = rows.iter().map(|r| r.cow_pages_copied).sum();
        out.push_str(&format!(
            "{epoch:>5}  {gen:>3}  {:>3}  {state:>8}  {ckpt:>8}  {deltas:>5}  {file:>8}  {file_deltas:>10}  {:>8.1}  {:>10.2}  {:>10.1}  {cow:>9}  {:>10.1}\n",
            rows.len(),
            ms(align),
            ms(capture),
            ms(persist),
            ms(barrier),
        ));
    }

    // Top-N state growers: per operator, first→last state-size gauge.
    let mut span: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for r in records {
        span.entry(r.op)
            .and_modify(|(_, last)| *last = r.state_bytes)
            .or_insert((r.state_bytes, r.state_bytes));
    }
    let mut growth: Vec<(u32, u64, u64, i64)> = span
        .into_iter()
        .map(|(op, (first, last))| (op, first, last, last as i64 - first as i64))
        .collect();
    growth.sort_by_key(|&(_, _, _, g)| std::cmp::Reverse(g));
    out.push_str(&format!("top {} state growers:\n", top_n.min(growth.len())));
    for (op, first, last, g) in growth.into_iter().take(top_n) {
        out.push_str(&format!("  op{op}: {first} -> {last} B ({g:+} B)\n"));
    }

    // Barrier latency across epochs (each epoch counted once).
    let mut barrier = DurationStats::new();
    for rows in epochs.values() {
        let us = rows.iter().map(|r| r.barrier_us).max().unwrap_or(0);
        barrier.record(SimDuration::from_micros(us));
    }
    out.push_str(&format!(
        "barrier latency: n={} mean={:.1}ms min={:.1}ms p50={:.1}ms p95={:.1}ms p99={:.1}ms max={:.1}ms\n",
        barrier.count(),
        ms(barrier.mean().as_micros()),
        ms(barrier.min().as_micros()),
        ms(barrier.p50().as_micros()),
        ms(barrier.p95().as_micros()),
        ms(barrier.p99().as_micros()),
        ms(barrier.max().as_micros()),
    ));

    // Ingestion gateways, when the run had any: the counters are
    // cumulative, so each gate's freshest row is its total.
    let mut gate_last: BTreeMap<u32, &LedgerRecord> = BTreeMap::new();
    for r in records {
        if r.gate_accepted > 0 || r.gate_shed > 0 {
            gate_last.insert(r.op, r);
        }
    }
    if !gate_last.is_empty() {
        let accepted: u64 = gate_last.values().map(|r| r.gate_accepted).sum();
        let shed: u64 = gate_last.values().map(|r| r.gate_shed).sum();
        let wal: u64 = gate_last.values().map(|r| r.gate_wal_bytes).sum();
        let p99 = gate_last
            .values()
            .map(|r| r.gate_ack_p99_us)
            .max()
            .unwrap_or(0);
        out.push_str(&format!(
            "gateways: {} gate(s), batches accepted={accepted} shed={shed}, wal_B={wal}, ack_p99={:.1}ms\n",
            gate_last.len(),
            ms(p99),
        ));
    }
    out
}

/// Renders the sharding view of a ledger: records grouped by *logical*
/// operator, with the per-shard state-byte balance of each group at
/// its freshest epoch. The skew column is `max/min` over the group's
/// final per-instance state sizes — 1.00 is a perfect spread, `inf`
/// means at least one shard never accumulated state. Sharded groups
/// also list their instances so a hot shard can be named. This is the
/// `ms_ledger --by-shard` view and the balance check the scale test
/// asserts on.
pub fn by_shard_summary(records: &[LedgerRecord]) -> String {
    use std::collections::BTreeMap;

    let mut out = String::new();
    if records.is_empty() {
        out.push_str("run ledger: empty\n");
        return out;
    }
    // Freshest row per physical instance (file order is epoch order,
    // and recovery generations only append).
    let mut last: BTreeMap<u32, &LedgerRecord> = BTreeMap::new();
    for r in records {
        last.insert(r.op, r);
    }
    // Physical instances grouped by logical operator.
    let mut groups: BTreeMap<u32, Vec<&LedgerRecord>> = BTreeMap::new();
    for r in last.values() {
        groups.entry(r.logical).or_default().push(r);
    }
    let sharded = groups.values().filter(|g| g.len() > 1).count();
    out.push_str(&format!(
        "shard view: {} logical operator(s), {} physical instance(s), {} sharded group(s)\n",
        groups.len(),
        last.len(),
        sharded,
    ));
    out.push_str("logical  shards  state_B_total  min_B  max_B  skew  tuples_in\n");
    for (logical, rows) in &groups {
        let total: u64 = rows.iter().map(|r| r.state_bytes).sum();
        let min = rows.iter().map(|r| r.state_bytes).min().unwrap_or(0);
        let max = rows.iter().map(|r| r.state_bytes).max().unwrap_or(0);
        let tuples: u64 = rows.iter().map(|r| r.tuples_in).sum();
        let skew = if min == 0 {
            if max == 0 {
                "1.00".to_string()
            } else {
                "inf".to_string()
            }
        } else {
            format!("{:.2}", max as f64 / min as f64)
        };
        out.push_str(&format!(
            "{logical:>7}  {:>6}  {total:>13}  {min:>5}  {max:>5}  {skew:>4}  {tuples:>9}\n",
            rows.len(),
        ));
        if rows.len() > 1 {
            for r in rows {
                out.push_str(&format!(
                    "         op{:<4} state={} B  ckpt={} B  in={}\n",
                    r.op, r.state_bytes, r.ckpt_bytes, r.tuples_in
                ));
            }
        }
    }
    out
}

/// The worst `max/min` per-shard state skew across a ledger's sharded
/// groups at their freshest epoch: 1.0 is a perfect spread,
/// [`f64::INFINITY`] means a shard never accumulated state, `None`
/// means nothing is sharded. The scale test's balance assertion.
pub fn worst_shard_skew(records: &[LedgerRecord]) -> Option<f64> {
    use std::collections::BTreeMap;
    let mut last: BTreeMap<u32, &LedgerRecord> = BTreeMap::new();
    for r in records {
        last.insert(r.op, r);
    }
    let mut groups: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for r in last.values() {
        groups.entry(r.logical).or_default().push(r.state_bytes);
    }
    let mut worst: Option<f64> = None;
    for sizes in groups.values().filter(|g| g.len() > 1) {
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        let skew = match (min, max) {
            (0, 0) => 1.0,
            (0, _) => f64::INFINITY,
            _ => max as f64 / min as f64,
        };
        if worst.is_none_or(|w| skew > w) {
            worst = Some(skew);
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WireMsg;
    use ms_core::ids::{EpochId, OperatorId};
    use ms_core::metrics::Columns;

    fn sample(epoch: u64, op: u32) -> LedgerRecord {
        LedgerRecord {
            generation: 1 + epoch / 4,
            epoch,
            op,
            logical: op,
            state_bytes: 1024 * (epoch + 1),
            ckpt_bytes: 128 * (op as u64 + 1),
            delta: epoch > 1,
            align_wait_us: 40 * op as u64,
            capture_us: 60 + epoch,
            serialize_us: 350,
            persist_us: 900,
            cow_pages_copied: 3 * op as u64,
            // Epoch 3's deltas were rebased into full files.
            file_bytes: if epoch == 3 {
                9_000
            } else {
                128 * (op as u64 + 1) + 40
            },
            file_delta: epoch > 1 && epoch != 3,
            tuples_in: 10_000 * epoch,
            tuples_out: 9_000 * epoch,
            bytes_out: 72_000 * epoch,
            queued_tuples: 3,
            open_windows: 1,
            window_tuples: 17,
            gate_accepted: if op == 0 { 5 * epoch } else { 0 },
            gate_shed: if op == 0 { epoch } else { 0 },
            gate_wal_bytes: if op == 0 { 640 * epoch } else { 0 },
            gate_ack_p50_us: if op == 0 { 80 } else { 0 },
            gate_ack_p99_us: if op == 0 { 410 } else { 0 },
            barrier_us: 4_200 + epoch,
        }
    }

    /// A row as the ledger writes it today, every column distinct.
    const FULL_LINE: &str = concat!(
        "{\"generation\":1,\"epoch\":2,\"op\":3,\"logical\":4,",
        "\"state_bytes\":5,\"ckpt_bytes\":6,\"delta\":true,",
        "\"align_wait_us\":8,\"capture_us\":9,\"serialize_us\":10,",
        "\"persist_us\":11,\"cow_pages_copied\":12,",
        "\"file_bytes\":13,\"file_delta\":false,",
        "\"tuples_in\":15,\"tuples_out\":16,\"bytes_out\":17,",
        "\"queued_tuples\":18,\"open_windows\":19,\"window_tuples\":20,",
        "\"gate_accepted\":21,\"gate_shed\":22,\"gate_wal_bytes\":23,",
        "\"gate_ack_p50_us\":24,\"gate_ack_p99_us\":25,",
        "\"barrier_us\":26}"
    );

    /// The record [`FULL_LINE`] holds.
    fn full_record() -> LedgerRecord {
        LedgerRecord {
            generation: 1,
            epoch: 2,
            op: 3,
            logical: 4,
            state_bytes: 5,
            ckpt_bytes: 6,
            delta: true,
            align_wait_us: 8,
            capture_us: 9,
            serialize_us: 10,
            persist_us: 11,
            cow_pages_copied: 12,
            file_bytes: 13,
            file_delta: false,
            tuples_in: 15,
            tuples_out: 16,
            bytes_out: 17,
            queued_tuples: 18,
            open_windows: 19,
            window_tuples: 20,
            gate_accepted: 21,
            gate_shed: 22,
            gate_wal_bytes: 23,
            gate_ack_p50_us: 24,
            gate_ack_p99_us: 25,
            barrier_us: 26,
        }
    }

    /// A flat JSON object's key → value pairs, whatever their order.
    fn keys_and_values(line: &str) -> std::collections::BTreeMap<&str, &str> {
        line.trim_start_matches('{')
            .trim_end_matches('}')
            .split(',')
            .map(|kv| kv.split_once(':').expect("key:value"))
            .collect()
    }

    #[test]
    fn a_full_line_pins_every_column() {
        assert_eq!(LedgerRecord::from_json(FULL_LINE).unwrap(), full_record());
        assert_eq!(
            keys_and_values(&full_record().to_json()),
            keys_and_values(FULL_LINE)
        );
    }

    #[test]
    fn a_line_from_before_the_capture_column_still_parses() {
        // The row format before the capture, copy-on-write and file
        // columns: they read as zero.
        let old = concat!(
            "{\"generation\":1,\"epoch\":2,\"op\":3,\"logical\":4,",
            "\"state_bytes\":5,\"ckpt_bytes\":6,\"delta\":true,",
            "\"align_wait_us\":8,\"serialize_us\":10,\"persist_us\":11,",
            "\"tuples_in\":15,\"tuples_out\":16,\"bytes_out\":17,",
            "\"queued_tuples\":18,\"open_windows\":19,\"window_tuples\":20,",
            "\"gate_accepted\":21,\"gate_shed\":22,\"gate_wal_bytes\":23,",
            "\"gate_ack_p50_us\":24,\"gate_ack_p99_us\":25,",
            "\"barrier_us\":26}"
        );
        assert_eq!(
            LedgerRecord::from_json(old).unwrap(),
            LedgerRecord {
                capture_us: 0,
                cow_pages_copied: 0,
                file_bytes: 0,
                file_delta: false,
                ..full_record()
            }
        );
    }

    /// The ledger key each telemetry column lands in; `None` for a
    /// column no ledger column is cut from.
    const LANDS: [(&str, Option<&str>); 21] = [
        ("tuples_in", Some("tuples_in")),
        ("tuples_out", Some("tuples_out")),
        ("bytes_out", Some("bytes_out")),
        ("state_bytes", Some("state_bytes")),
        ("ckpt_epoch", None),
        ("ckpt_bytes", Some("ckpt_bytes")),
        ("ckpt_is_delta", Some("delta")),
        ("align_wait_us", Some("align_wait_us")),
        ("capture_us", Some("capture_us")),
        ("persist_us", Some("persist_us")),
        ("cow_pages_copied", Some("cow_pages_copied")),
        ("file_bytes", Some("file_bytes")),
        ("file_is_delta", Some("file_delta")),
        ("queued_tuples", Some("queued_tuples")),
        ("open_windows", Some("open_windows")),
        ("window_tuples", Some("window_tuples")),
        ("accepted_batches", Some("gate_accepted")),
        ("shed_batches", Some("gate_shed")),
        ("wal_bytes", Some("gate_wal_bytes")),
        ("ack_p50_us", Some("gate_ack_p50_us")),
        ("ack_p99_us", Some("gate_ack_p99_us")),
    ];

    /// Each column of `C` set alone, to a distinct nonzero word (`true`
    /// for a flag), with the JSON value it must read as in the ledger.
    fn alone<C: Columns>() -> Vec<(&'static str, C, String)> {
        let alone = |(i, &name): (usize, &&'static str)| {
            let word = 1000 + i as u64;
            let mut at = 0;
            let c = C::from_words(|| {
                at += 1;
                Ok::<_, ()>(if at == i + 1 { word } else { 0 })
            })
            .unwrap();
            let mut back = 0;
            c.put_words(|w| back += w);
            assert!(back == word || back == 1, "{name} reads back {back}");
            let json = if back == 1 {
                "true".into()
            } else {
                word.to_string()
            };
            (name, c, json)
        };
        C::NAMES.iter().enumerate().map(alone).collect()
    }

    #[test]
    fn every_telemetry_column_reaches_its_ledger_key() {
        let heartbeat = |gauges, ops, gates| WireMsg::Heartbeat {
            generation: 0,
            gauges,
            ops,
            gates,
        };
        let decode = |msg: WireMsg| WireMsg::decode(&msg.encode()).unwrap();
        let zero = (OperatorSample::default(), GateSample::default());
        let cut = |s: &OperatorSample, g: &BackpressureGauges, gate: &GateSample| {
            LedgerRecord::cut(0, 0, 0, 0, s, g, gate, 0)
        };
        let mut rows = Vec::new();
        for (name, s, json) in alone::<OperatorSample>() {
            let ack = WireMsg::CkptDone {
                generation: 0,
                epoch: EpochId(0),
                op: OperatorId(0),
                sample: Some(s),
            };
            let WireMsg::CkptDone {
                sample: Some(s), ..
            } = decode(ack)
            else {
                panic!("an ack decodes to an ack");
            };
            rows.push((name, json.clone(), cut(&s, &Default::default(), &zero.1)));
            let beat = heartbeat(Default::default(), vec![(OperatorId(0), s)], Vec::new());
            let WireMsg::Heartbeat { ops, .. } = decode(beat) else {
                panic!("a beat decodes to a beat");
            };
            rows.push((name, json, cut(&ops[0].1, &Default::default(), &zero.1)));
        }
        for (name, g, json) in alone::<BackpressureGauges>() {
            let WireMsg::Heartbeat { gauges, .. } = decode(heartbeat(g, Vec::new(), Vec::new()))
            else {
                panic!("a beat decodes to a beat");
            };
            rows.push((name, json, cut(&zero.0, &gauges, &zero.1)));
        }
        for (name, gate, json) in alone::<GateSample>() {
            let beat = heartbeat(Default::default(), Vec::new(), vec![(OperatorId(0), gate)]);
            let WireMsg::Heartbeat { gates, .. } = decode(beat) else {
                panic!("a beat decodes to a beat");
            };
            rows.push((name, json, cut(&zero.0, &Default::default(), &gates[0].1)));
        }
        // The map above names every column of the three tables.
        let mut named: Vec<&str> = rows.iter().map(|(name, ..)| *name).collect();
        named.dedup();
        assert_eq!(named, LANDS.map(|(name, _)| name));

        for (name, json, rec) in rows {
            let line = rec.to_json();
            assert_eq!(LedgerRecord::from_json(&line).unwrap(), rec);
            let key = LANDS.iter().find(|(n, _)| *n == name).unwrap().1;
            let values = keys_and_values(&line);
            if let Some(key) = key {
                assert_eq!(
                    values.get(format!("\"{key}\"").as_str()),
                    Some(&json.as_str())
                );
            }
            for (k, v) in values {
                if Some(k.trim_matches('"')) != key {
                    assert!(v == "0" || v == "false", "{name} leaked into {k}: {line}");
                }
            }
        }
    }

    #[test]
    fn record_roundtrips_through_json() {
        for epoch in 0..6 {
            for op in 0..3 {
                let rec = sample(epoch, op);
                let parsed = LedgerRecord::from_json(&rec.to_json()).unwrap();
                assert_eq!(parsed, rec);
            }
        }
        // Extremes survive.
        let rec = LedgerRecord {
            state_bytes: u64::MAX,
            ..LedgerRecord::default()
        };
        assert_eq!(LedgerRecord::from_json(&rec.to_json()).unwrap(), rec);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(LedgerRecord::from_json("").is_err());
        assert!(LedgerRecord::from_json("not json").is_err());
        assert!(LedgerRecord::from_json("{\"generation\":1}").is_err());
        let bad_type = sample(1, 0)
            .to_json()
            .replace("\"delta\":false", "\"delta\":7");
        assert!(LedgerRecord::from_json(&bad_type).is_err());
        // Every schema column is required, the logical and gate ones too.
        let rec = sample(2, 0);
        let json = rec.to_json();
        for (field, value) in [
            ("logical", rec.logical.into()),
            ("gate_shed", rec.gate_shed),
        ] {
            let column = format!("\"{field}\":{value},");
            assert!(json.contains(&column), "{json}");
            assert!(LedgerRecord::from_json(&json.replace(&column, "")).is_err());
            // A present-but-malformed field is an error too.
            let bad = json.replace(&column, &format!("\"{field}\":x,"));
            assert!(LedgerRecord::from_json(&bad).is_err());
        }
        // The capture and file columns postdate the first ledgers: a
        // row without them parses as zero; a malformed one is still
        // refused.
        let rec = sample(2, 1);
        let json = rec.to_json();
        for (field, value, zeroed) in [
            (
                "capture_us",
                rec.capture_us.to_string(),
                LedgerRecord {
                    capture_us: 0,
                    ..rec.clone()
                },
            ),
            (
                "cow_pages_copied",
                rec.cow_pages_copied.to_string(),
                LedgerRecord {
                    cow_pages_copied: 0,
                    ..rec.clone()
                },
            ),
            (
                "file_bytes",
                rec.file_bytes.to_string(),
                LedgerRecord {
                    file_bytes: 0,
                    ..rec.clone()
                },
            ),
            (
                "file_delta",
                rec.file_delta.to_string(),
                LedgerRecord {
                    file_delta: false,
                    ..rec.clone()
                },
            ),
        ] {
            let column = format!("\"{field}\":{value},");
            assert!(zeroed != rec && json.contains(&column), "{json}");
            let old_row = LedgerRecord::from_json(&json.replace(&column, "")).unwrap();
            assert_eq!(old_row, zeroed);
            let bad = json.replace(&column, &format!("\"{field}\":x,"));
            assert!(LedgerRecord::from_json(&bad).is_err());
        }
        // Unknown extra fields are tolerated.
        let extended = sample(1, 0)
            .to_json()
            .replace("\"barrier_us\"", "\"future_field\":9,\"barrier_us\"");
        assert_eq!(LedgerRecord::from_json(&extended).unwrap(), sample(1, 0));
    }

    #[test]
    fn writer_appends_and_reader_reads_back() {
        let dir = std::env::temp_dir().join(format!("ms_ledger_rw_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(LEDGER_FILE);
        let _ = std::fs::remove_file(&path);
        let records: Vec<LedgerRecord> = (1..=3)
            .flat_map(|e| (0..3).map(move |op| sample(e, op)))
            .collect();
        {
            let mut w = LedgerWriter::open(&path).unwrap();
            for r in &records[..6] {
                w.append(r).unwrap();
            }
        }
        // Reopening appends — a recovery generation extends the file.
        {
            let mut w = LedgerWriter::open(&path).unwrap();
            for r in &records[6..] {
                w.append(r).unwrap();
            }
        }
        assert_eq!(read_ledger(&path).unwrap(), records);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_trailing_line_is_skipped_and_still_summarizes() {
        let dir = std::env::temp_dir().join(format!("ms_ledger_torn_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(LEDGER_FILE);
        let _ = std::fs::remove_file(&path);
        let records: Vec<LedgerRecord> = (1..=3).map(|e| sample(e, 0)).collect();
        {
            let mut w = LedgerWriter::open(&path).unwrap();
            for r in &records {
                w.append(r).unwrap();
            }
        }
        // Hand-tear the last line mid-record, as a controller crash
        // mid-append would.
        let text = std::fs::read_to_string(&path).unwrap();
        let torn = &text[..text.len() - 25];
        assert!(!torn.ends_with('\n'), "tear must land mid-line");
        std::fs::write(&path, torn).unwrap();

        let read = read_ledger(&path).expect("torn trailing line must not fail the parse");
        assert_eq!(read, records[..2], "intact prefix survives");
        let report = summarize(&read, 3);
        assert!(
            report.contains("2 epochs"),
            "summary still renders: {report}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopening_a_torn_ledger_repairs_the_tail_before_appending() {
        // A restarted controller appends to the crashed one's file; if
        // the tear survived the reopen, the next append would turn it
        // into interior corruption and fail every later full parse.
        let dir = std::env::temp_dir().join(format!("ms_ledger_reopen_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(LEDGER_FILE);
        let _ = std::fs::remove_file(&path);
        {
            let mut w = LedgerWriter::open(&path).unwrap();
            w.append(&sample(1, 0)).unwrap();
            w.append(&sample(2, 0)).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 25]).unwrap();

        let mut w = LedgerWriter::open(&path).unwrap();
        w.append(&sample(3, 1)).unwrap();
        let read = read_ledger(&path).expect("repaired ledger must parse end to end");
        assert_eq!(read, vec![sample(1, 0), sample(3, 1)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_interior_line_still_fails_the_parse() {
        let dir = std::env::temp_dir().join(format!("ms_ledger_interior_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(LEDGER_FILE);
        let _ = std::fs::remove_file(&path);
        let a = sample(1, 0).to_json();
        let b = sample(2, 0).to_json();
        // An interior line torn *with* its newline intact is not a torn
        // append — it is corruption, and must stay loud.
        std::fs::write(&path, format!("{}\n{b}\n", &a[..a.len() - 10])).unwrap();
        assert!(read_ledger(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn decision(epoch: u64, reason: &str) -> DecisionRecord {
        DecisionRecord {
            generation: 1,
            epoch,
            reason: reason.to_string(),
            state_bytes: 4096 * epoch,
            ckpt_bytes: 512 * epoch,
            barrier_us: 900,
            est_recovery_us: 150_000,
            budget_us: 1_000_000,
            period_us_before: 120_000,
            period_us_after: if reason == "widen" { 150_000 } else { 120_000 },
            recovery_us: if reason == "recovery" { 73_000 } else { 0 },
        }
    }

    #[test]
    fn decision_record_roundtrips_through_json() {
        for reason in ["timer", "local_minimum", "period_end", "widen", "recovery"] {
            let d = decision(3, reason);
            assert_eq!(DecisionRecord::from_json(&d.to_json()).unwrap(), d);
        }
        // Epoch rows are not decisions and vice versa.
        assert!(DecisionRecord::from_json(&sample(1, 0).to_json()).is_err());
        assert!(LedgerRecord::from_json(&decision(1, "timer").to_json()).is_err());
    }

    #[test]
    fn decisions_and_epoch_rows_share_one_file() {
        let dir = std::env::temp_dir().join(format!("ms_ledger_mixed_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(LEDGER_FILE);
        let _ = std::fs::remove_file(&path);
        {
            let mut w = LedgerWriter::open(&path).unwrap();
            w.append_decision(&decision(1, "local_minimum")).unwrap();
            w.append(&sample(1, 0)).unwrap();
            w.append(&sample(1, 1)).unwrap();
            w.append_decision(&decision(1, "widen")).unwrap();
            w.append(&sample(2, 0)).unwrap();
        }
        // Each reader sees only its record type, both in file order.
        assert_eq!(
            read_ledger(&path).unwrap(),
            vec![sample(1, 0), sample(1, 1), sample(2, 0)]
        );
        assert_eq!(
            read_decisions(&path).unwrap(),
            vec![decision(1, "local_minimum"), decision(1, "widen")]
        );
        // The legacy summarizer is oblivious to the decision lines.
        let text = summarize(&read_ledger(&path).unwrap(), 3);
        assert!(text.contains("3 records, 2 epochs"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_trailing_decision_is_skipped_by_both_readers() {
        let dir = std::env::temp_dir().join(format!("ms_ledger_torn_dec_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(LEDGER_FILE);
        let _ = std::fs::remove_file(&path);
        {
            let mut w = LedgerWriter::open(&path).unwrap();
            w.append(&sample(1, 0)).unwrap();
            w.append_decision(&decision(1, "narrow")).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 15]).unwrap();
        assert_eq!(read_ledger(&path).unwrap(), vec![sample(1, 0)]);
        assert_eq!(read_decisions(&path).unwrap(), Vec::new());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn follower_streams_epoch_summaries_and_decisions() {
        let dir = std::env::temp_dir().join(format!("ms_ledger_follow_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(LEDGER_FILE);
        let _ = std::fs::remove_file(&path);
        let mut f = LedgerFollower::new();
        // Nothing to read before the controller creates the file.
        assert!(f.poll(&path).unwrap().is_empty());

        let mut w = LedgerWriter::open(&path).unwrap();
        w.append(&sample(1, 0)).unwrap();
        w.append(&sample(1, 1)).unwrap();
        // Epoch 1 is still open: no summary yet.
        assert!(f.poll(&path).unwrap().is_empty());
        // A decision line streams immediately, ahead of the summary.
        w.append_decision(&decision(1, "local_minimum")).unwrap();
        let lines = f.poll(&path).unwrap();
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(lines[0].contains("reason=local_minimum"), "{lines:?}");
        // The first row of epoch 2 closes epoch 1.
        w.append(&sample(2, 0)).unwrap();
        let lines = f.poll(&path).unwrap();
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(lines[0].starts_with("epoch    1"), "{lines:?}");
        assert!(lines[0].contains("ops  2"), "{lines:?}");
        // End of stream: flush renders the still-open epoch 2.
        let tail = f.flush();
        assert_eq!(tail.len(), 1, "{tail:?}");
        assert!(tail[0].starts_with("epoch    2"), "{tail:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn follower_holds_back_torn_tail_until_completed() {
        use std::io::Write as _;
        let dir =
            std::env::temp_dir().join(format!("ms_ledger_follow_torn_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(LEDGER_FILE);
        let _ = std::fs::remove_file(&path);
        let mut f = LedgerFollower::new();
        let line_a = sample(1, 0).to_json();
        let line_b = sample(2, 0).to_json();
        // First write ends mid-line, as a crashed or mid-append writer
        // would leave it.
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .unwrap();
        file.write_all(format!("{line_a}\n").as_bytes()).unwrap();
        file.write_all(&line_b.as_bytes()[..line_b.len() - 20])
            .unwrap();
        file.flush().unwrap();
        // The complete line is consumed (held as the open epoch); the
        // torn tail is neither parsed nor fatal.
        assert!(f.poll(&path).unwrap().is_empty());
        // The writer finishes the line: now epoch 1 closes.
        file.write_all(format!("{}\n", &line_b[line_b.len() - 20..]).as_bytes())
            .unwrap();
        file.flush().unwrap();
        let lines = f.poll(&path).unwrap();
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(lines[0].starts_with("epoch    1"), "{lines:?}");
        assert_eq!(f.flush().len(), 1, "epoch 2 open at end of stream");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two shards of logical op 1 plus singleton source/sink; the
    /// freshest epoch decides the balance.
    fn sharded_records() -> Vec<LedgerRecord> {
        let mut records = Vec::new();
        for epoch in 1..=2u64 {
            for (op, logical, state) in [(0, 0, 16), (1, 1, 300), (2, 1, 100), (3, 3, 64)] {
                let mut r = sample(epoch, op);
                r.logical = logical;
                r.state_bytes = state * epoch;
                records.push(r);
            }
        }
        records
    }

    #[test]
    fn by_shard_view_groups_by_logical_and_reports_skew() {
        let text = by_shard_summary(&sharded_records());
        assert!(
            text.contains("3 logical operator(s), 4 physical instance(s), 1 sharded group(s)"),
            "{text}"
        );
        // Logical 1 at epoch 2: shards hold 600 and 200 bytes → 3.00.
        assert!(text.contains("3.00"), "{text}");
        // Sharded groups list their instances.
        assert!(text.contains("op1"), "{text}");
        assert!(text.contains("op2"), "{text}");
        assert_eq!(by_shard_summary(&[]), "run ledger: empty\n");
    }

    #[test]
    fn worst_skew_tracks_freshest_epoch() {
        let records = sharded_records();
        assert_eq!(worst_shard_skew(&records), Some(3.0));
        // Unsharded ledgers have no skew to report.
        let flat: Vec<LedgerRecord> = (0..3).map(|op| sample(1, op)).collect();
        assert_eq!(worst_shard_skew(&flat), None);
        // A shard with zero state is infinite skew.
        let mut zeroed = records.clone();
        for r in zeroed.iter_mut().filter(|r| r.op == 2) {
            r.state_bytes = 0;
        }
        assert_eq!(worst_shard_skew(&zeroed), Some(f64::INFINITY));
    }

    #[test]
    fn summary_covers_epochs_growers_and_barrier() {
        let records: Vec<LedgerRecord> = (1..=4)
            .flat_map(|e| (0..3).map(move |op| sample(e, op)))
            .collect();
        let text = summarize(&records, 2);
        assert!(
            text.contains("12 records, 4 epochs, 2 generation(s)"),
            "{text}"
        );
        assert!(text.contains("top 2 state growers"), "{text}");
        assert!(text.contains("barrier latency: n=4"), "{text}");
        // Op 0 carries gateway counters; the freshest epoch (4) wins.
        assert!(
            text.contains("gateways: 1 gate(s), batches accepted=20 shed=4"),
            "{text}"
        );
        // Every epoch appears as a table row.
        for epoch in 1..=4 {
            assert!(
                text.lines()
                    .any(|l| l.trim_start().starts_with(&format!("{epoch}  "))),
                "epoch {epoch} missing:\n{text}"
            );
        }
        // The rebased epoch: three deltas submitted (768 B), three full
        // files written (27,000 B).
        let row3: Vec<&str> = text
            .lines()
            .find(|l| l.trim_start().starts_with("3  "))
            .unwrap()
            .split_whitespace()
            .collect();
        assert_eq!(row3[4..8], ["768", "3", "27000", "0"], "{text}");
        assert_eq!(summarize(&[], 3), "run ledger: empty\n");
    }
}
