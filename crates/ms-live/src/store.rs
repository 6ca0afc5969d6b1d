//! [`FsStore`]: the one [`StableStore`] that persists anything — a
//! directory shared by every process of a cluster, so preservation
//! logs and checkpoints survive a SIGKILL of any of them:
//!
//! * `ckpt/e{epoch}_op{N}.ckpt` — full individual checkpoints, and
//!   `ckpt/e{epoch}_op{N}.delta` — incremental ones carrying only the
//!   keys changed/removed since the operator's previous capture plus a
//!   pointer to that capture's epoch (the delta's *base*). Payloads use
//!   the [`ckpt_codec`] layout, framed one per file. Both are
//!   written to a dot-prefixed temp file and atomically renamed into
//!   place, so a checkpoint file either exists complete or not at all.
//!   Reads fold the chain: [`StableStore::get_checkpoint`] always
//!   returns the complete state, byte-identical to a full snapshot.
//! * `log/op{N}.log` — source-preservation logs, written *before* the
//!   tuples they hold are sent (§III-A): a sequence of frames, each
//!   holding one batch record ([`ms_core::codec::frame_batch`]) of the
//!   tuples one append ([`StableStore::append_log_batch`]) made fresh
//!   — a header, then every tuple as seq and time deltas and varint
//!   fields, a batch-constant column one byte. An append is one
//!   lock, one encode and one `write_all`; a run past
//!   [`MAX_FRAME_BYTES`] lands as several records. The bytes therefore
//!   depend on how a run was split into appends; the replay does not.
//!   Bytes handed to the kernel survive the process, so a SIGKILL can
//!   tear at most the final record, which readers drop whole: acks
//!   follow appends, so none of its tuples was acked.
//! * `marks/op{N}.marks` — per-source `(epoch, next_seq)` stream
//!   boundaries, appended the same way.
//!
//! # Delta chains, rebase, GC
//!
//! An epoch is *complete* only when every operator has a checkpoint
//! for it **and** each one resolves — following base pointers — to a
//! full snapshot still on disk, so `latest_complete` never names an
//! epoch recovery could not restore. A [`RebasePolicy`] bounds chain
//! length and cumulative delta bytes: past either bound the store
//! folds the chain and writes a fresh `.ckpt` instead of a `.delta`.
//! When an epoch completes, files older than the oldest base its
//! chains rest on are deleted — they are unreachable from the newest
//! restorable epoch. Crash-safety of GC: deletion happens only after
//! the completing epoch's files (and their bases) are durable, and a
//! process dying mid-GC leaves extra files, never missing ones.
//!
//! Restart idempotence: a source restarted from scratch (no complete
//! checkpoint) deterministically regenerates tuples it already logged.
//! The log writer remembers the highest sequence on disk and skips
//! appends at or below it, so the log never holds duplicates and
//! recovery replay stays exactly-once.
//!
//! Failure model: fail-stop, surfaced instead of aborted. An I/O
//! error on the preservation path returns [`Error::Storage`]; the
//! host stops streaming (a source that cannot reach stable storage
//! must not keep sending) and the worker reports the failure to the
//! controller, which recovers it like a crash — without taking the
//! whole worker process (and its healthy co-located operators) down.
//! Read paths degrade to "nothing stored". The store assumes the
//! controller serializes incarnations (a killed worker is dead before
//! its operators are reassigned); two live writers on one log are out
//! of scope, as in the paper's single-controller design.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use ms_core::codec::{
    frame, frame_batch, BatchHeader, SnapshotReader, SnapshotWriter, BATCH_HEADER_MAX_BYTES,
    FRAME_HEADER_BYTES, MAX_FILE_FRAME_BYTES, MAX_FRAME_BYTES,
};
use ms_core::delta::{self, StateDelta};
use ms_core::error::{Error, Result};
use ms_core::ids::{EpochId, OperatorId};
use ms_core::operator::OperatorSnapshot;
use ms_core::tuple::Tuple;

use crate::ckpt_codec;
use crate::storage::{CkptState, CkptWrite, LiveHauCheckpoint, RebasePolicy, StableStore};

struct LogWriter {
    file: File,
    /// Highest sequence already durable in this log (dedup guard).
    last_seq: Option<u64>,
    /// Bytes currently in the log file: the length a failed write
    /// restores.
    bytes: u64,
}

/// Filesystem-backed stable store. Cheap to open; every process of the
/// cluster (workers *and* the controller) opens its own handle on the
/// shared directory.
pub struct FsStore {
    root: PathBuf,
    expected: usize,
    policy: RebasePolicy,
    logs: Mutex<HashMap<OperatorId, LogWriter>>,
    /// Preservation-log `write(2)` calls issued (group-commit
    /// instrumentation: tuples-per-syscall = appended tuples / this).
    log_writes: AtomicU64,
}

impl FsStore {
    /// Opens (creating if needed) a store rooted at `root`, expecting
    /// `expected` individual checkpoints per complete application
    /// checkpoint. Operators are ids `0..expected` (how both runtimes
    /// number a query network).
    pub fn open(root: impl Into<PathBuf>, expected: usize) -> Result<FsStore> {
        let root = root.into();
        for sub in ["ckpt", "log", "marks"] {
            fs::create_dir_all(root.join(sub))?;
        }
        Ok(FsStore {
            root,
            expected,
            policy: RebasePolicy::default(),
            logs: Mutex::new(HashMap::new()),
            log_writes: AtomicU64::new(0),
        })
    }

    /// Preservation-log `write(2)` calls this handle has issued. An
    /// append costs exactly one however many tuples it carries, which
    /// `wal_props` asserts and msbench reports as
    /// `store.wal_writes_per_batch`.
    pub fn log_write_syscalls(&self) -> u64 {
        self.log_writes.load(Ordering::Relaxed)
    }

    /// Replaces the rebase policy (builder style).
    pub fn with_policy(mut self, policy: RebasePolicy) -> FsStore {
        self.policy = policy;
        self
    }

    /// The highest epoch any checkpoint file was ever written for,
    /// complete or not. A restarted controller must number its tokens
    /// strictly above this: reusing an epoch that a previous
    /// incarnation partially persisted would mix two barriers' files
    /// under one name.
    pub fn max_epoch_started(&self) -> Option<EpochId> {
        let entries = fs::read_dir(self.root.join("ckpt")).ok()?;
        entries
            .flatten()
            .filter_map(|e| parse_ckpt_epoch(&e.file_name().to_string_lossy()))
            .max()
            .map(EpochId)
    }

    fn full_path(&self, epoch: EpochId, op: OperatorId) -> PathBuf {
        self.root
            .join("ckpt")
            .join(format!("e{}_op{}.ckpt", epoch.0, op.0))
    }

    fn delta_path(&self, epoch: EpochId, op: OperatorId) -> PathBuf {
        self.root
            .join("ckpt")
            .join(format!("e{}_op{}.delta", epoch.0, op.0))
    }

    fn log_path(&self, op: OperatorId) -> PathBuf {
        self.root.join("log").join(format!("op{}.log", op.0))
    }

    fn marks_path(&self, op: OperatorId) -> PathBuf {
        self.root.join("marks").join(format!("op{}.marks", op.0))
    }

    /// Atomically writes one checkpoint frame (temp file + rename)
    /// whose payload is `parts` back to back, each written from where
    /// it lies. Checkpoint files carry full operator state, so they use
    /// the file cap, not the wire cap — and an over-cap payload must
    /// fail *here*, loudly, never land on disk unreadable.
    fn write_ckpt_file(&self, path: &Path, parts: &[&[u8]]) -> Result<()> {
        let name = path.file_name().expect("ckpt file name").to_string_lossy();
        let len: usize = parts.iter().map(|p| p.len()).sum();
        if len > MAX_FILE_FRAME_BYTES {
            return Err(Error::Storage(format!(
                "checkpoint {name} is {len} bytes, over the {MAX_FILE_FRAME_BYTES}-byte file cap"
            )));
        }
        let header = (len as u32).to_le_bytes();
        let framed = [&[header.as_slice()], parts].concat();
        // Temp-write + rename is idempotent, so a transient failure
        // here is safely retryable from scratch.
        write_atomic(path, &framed)
            .map_err(|e| Error::storage_io(&format!("checkpoint {name} not persisted"), &e))
    }

    /// Writes a full checkpoint file, the snapshot data straight from
    /// its buffer.
    fn write_full(
        &self,
        epoch: EpochId,
        op: OperatorId,
        snapshot: &OperatorSnapshot,
        next_seq: u64,
        in_flight: &[(u32, Tuple)],
        resume_seq: &[u64],
    ) -> Result<()> {
        let [head, cut] = ckpt_codec::encode_full_parts(next_seq, snapshot, in_flight, resume_seq);
        self.write_ckpt_file(&self.full_path(epoch, op), &[&head, &snapshot.data, &cut])
    }

    /// Reads only a delta file's base pointer (chain validation reads
    /// the header of each link, never its body).
    fn delta_base(&self, epoch: EpochId, op: OperatorId) -> Option<EpochId> {
        let head = read_ckpt_head(&self.delta_path(epoch, op), ckpt_codec::DELTA_HEAD_BYTES)?;
        ckpt_codec::decode_delta_base(&head)
            .ok()
            .map(|(_next_seq, base)| base)
    }

    /// Walks the chain from `top` down to its full base: each delta
    /// link is read and sized in place, the base only by its header.
    /// `Err` names where the chain breaks.
    fn chain_under(&self, top: EpochId, op: OperatorId) -> std::result::Result<Chain, String> {
        let mut links = Vec::new();
        let mut delta_bytes = 0;
        let mut at = top;
        loop {
            let broken = || format!("chain broken at {at}");
            if let Some(head) = read_ckpt_head(&self.full_path(at, op), ckpt_codec::FULL_HEAD_BYTES)
            {
                let base_bytes = ckpt_codec::decode_full_data_len(&head).map_err(|_| broken())?;
                return Ok(Chain {
                    links,
                    delta_bytes,
                    base: at,
                    base_bytes,
                });
            }
            let payload = read_ckpt_frame(&self.delta_path(at, op)).ok_or_else(broken)?;
            let (base, bytes) = ckpt_codec::decode_delta_link(&payload).map_err(|_| broken())?;
            if base >= at {
                return Err(format!("corrupt base pointer at {at}"));
            }
            delta_bytes += bytes;
            links.push(payload);
            at = base;
        }
    }

    /// Folds `chain` — and `newest`, a delta on top of it — onto its
    /// base, read whole once and folded in place.
    fn fold_chain(&self, chain: &Chain, op: OperatorId, newest: StateDelta) -> Result<Vec<u8>> {
        let base = read_ckpt_frame(&self.full_path(chain.base, op))
            .ok_or_else(|| Error::Storage("base file unreadable".into()))?;
        let base = ckpt_codec::decode_full_view(&base)?;
        let mut deltas = Vec::with_capacity(chain.links.len() + 1);
        for link in chain.links.iter().rev() {
            let CkptState::Delta { delta, .. } = ckpt_codec::decode_delta(link)?.state else {
                unreachable!("decode_delta yields a delta");
            };
            deltas.push(delta);
        }
        deltas.push(newest);
        delta::fold(base.data, &deltas)
    }

    /// The epoch of the full snapshot `(epoch, op)`'s chain bottoms out
    /// at, or `None` for a missing/broken chain.
    fn full_base_of(&self, epoch: EpochId, op: OperatorId) -> Option<EpochId> {
        let mut at = epoch;
        loop {
            if self.full_path(at, op).exists() {
                return Some(at);
            }
            let base = self.delta_base(at, op)?;
            if base >= at {
                return None; // corrupt pointer; treat as broken
            }
            at = base;
        }
    }

    /// Is `epoch` restorable: one resolvable checkpoint per operator?
    fn epoch_is_complete(&self, epoch: EpochId) -> bool {
        (0..self.expected).all(|i| self.full_base_of(epoch, OperatorId(i as u32)).is_some())
    }

    /// Deletes checkpoint files no epoch ≥ the newest complete one can
    /// need: everything older than the oldest full base `epoch`'s
    /// chains rest on.
    fn gc_below(&self, epoch: EpochId) {
        let oldest = (0..self.expected)
            .filter_map(|i| self.full_base_of(epoch, OperatorId(i as u32)))
            .min();
        let Some(keep_from) = oldest else { return };
        let Ok(entries) = fs::read_dir(self.root.join("ckpt")) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            if let Some(e) = parse_ckpt_epoch(&name.to_string_lossy()) {
                if e < keep_from.0 {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
    }

    /// The replay boundary a source marked for `epoch`, if any.
    fn mark_for(&self, source: OperatorId, epoch: EpochId) -> Option<u64> {
        frames(&fs::read(self.marks_path(source)).unwrap_or_default())
            .filter_map(|p| {
                let mut r = SnapshotReader::new(p);
                Some((r.get_u64().ok()?, r.get_u64().ok()?))
            })
            .find(|&(e, _)| e == epoch.0)
            .map(|(_, s)| s)
    }

    /// Ensures the writer for `source`'s preservation log exists,
    /// running the cold-open recovery scan — walk the record headers
    /// once, find the clean prefix, trim a torn record, remember the
    /// highest durable sequence — exactly when the writer is first
    /// created. Every later append (including a retry after a transient
    /// write error) finds the cached writer and never re-reads the file.
    /// Called with the log mutex held.
    fn ensure_writer<'a>(
        &self,
        logs: &'a mut HashMap<OperatorId, LogWriter>,
        source: OperatorId,
    ) -> Result<&'a mut LogWriter> {
        if let std::collections::hash_map::Entry::Vacant(slot) = logs.entry(source) {
            let path = self.log_path(source);
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .map_err(|e| Error::Storage(format!("cannot open source log {path:?}: {e}")))?;
            // Scan what an earlier incarnation already made durable.
            let scan = scan_log(&path, u64::MAX)
                .map_err(|e| Error::Storage(format!("cannot scan source log {path:?}: {e}")))?;
            // Drop the record a crash cut short (a no-op on a clean
            // log), so appends resume on a record boundary.
            // Failure here leaves a log whose tail would corrupt every
            // later append — the source must stop, not stream over it.
            file.set_len(scan.clean_len)
                .map_err(|e| Error::Storage(format!("cannot trim torn log {path:?}: {e}")))?;
            slot.insert(LogWriter {
                file,
                last_seq: scan.last_seq,
                bytes: scan.clean_len,
            });
        }
        Ok(logs.get_mut(&source).expect("writer just ensured"))
    }
}

/// Parses `e{epoch}_op{N}.ckpt` / `.delta`; temp files (dot-prefixed)
/// and foreign names yield `None`.
fn parse_ckpt_epoch(name: &str) -> Option<u64> {
    let rest = name.strip_prefix('e')?;
    let (epoch, rest) = rest.split_once("_op")?;
    let op = rest
        .strip_suffix(".ckpt")
        .or_else(|| rest.strip_suffix(".delta"))?;
    op.parse::<u64>().ok()?;
    epoch.parse().ok()
}

/// Writes `parts`, back to back, to a dot-prefixed sibling of `path`
/// and renames it into place: the file exists complete or not at all.
fn write_atomic(path: &Path, parts: &[&[u8]]) -> io::Result<()> {
    let name = path.file_name().expect("store file name");
    let tmp = path.with_file_name(format!(".tmp_{}", name.to_string_lossy()));
    let mut file = File::create(&tmp)?;
    for part in parts {
        file.write_all(part)?;
    }
    drop(file);
    fs::rename(&tmp, path)
}

/// The delta chain under a checkpoint, as much as a write needs to
/// decide on a rebase: its delta links' payloads (newest first) with
/// their summed [`StateDelta::encoded_bytes`], and the full base's
/// epoch and data length, read from the base's header.
struct Chain {
    links: Vec<Vec<u8>>,
    delta_bytes: u64,
    base: EpochId,
    base_bytes: u64,
}

/// The payloads of the complete frames at the front of `bytes`.
fn frames(mut bytes: &[u8]) -> impl Iterator<Item = &[u8]> {
    std::iter::from_fn(move || {
        let (header, rest) = bytes.split_first_chunk::<FRAME_HEADER_BYTES>()?;
        let (payload, tail) = rest.split_at_checked(u32::from_le_bytes(*header) as usize)?;
        bytes = tail;
        Some(payload)
    })
}

/// What one pass over a preservation log's record headers found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LogScan {
    /// Bytes of complete records at the front of the file; anything
    /// past them is the one record a SIGKILL cut short.
    pub clean_len: u64,
    /// Records in that clean prefix.
    pub records: usize,
    /// Tuples those records hold.
    pub tuples: usize,
    /// Sequence number of its last tuple.
    pub last_seq: Option<u64>,
    /// Where the first record whose last tuple has `seq >= from_seq`
    /// starts (`clean_len` when there is none): sequence numbers
    /// strictly increase along a log (the append dedup guard), so every
    /// tuple at or past `from_seq` lies in the records from here on —
    /// and the first of them may also hold earlier ones.
    pub suffix_offset: u64,
}

/// Streams over the log at `path` without decoding or buffering it:
/// reads each record's frame length and header, seeks past its tuples.
/// A complete record whose header does not parse — a log in another
/// layout, or corruption — is an [`io::ErrorKind::InvalidData`] error,
/// never a misread.
pub fn scan_log(path: &Path, from_seq: u64) -> io::Result<LogScan> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut scan = LogScan::default();
    let mut r = BufReader::with_capacity(1 << 18, file);
    let mut len_bytes = [0u8; FRAME_HEADER_BYTES];
    let mut head = [0u8; BATCH_HEADER_MAX_BYTES];
    while file_len - scan.clean_len >= FRAME_HEADER_BYTES as u64 {
        r.read_exact(&mut len_bytes)?;
        let len = u32::from_le_bytes(len_bytes) as usize;
        let end = scan.clean_len + (FRAME_HEADER_BYTES + len) as u64;
        if len > MAX_FRAME_BYTES || end > file_len {
            break;
        }
        let head = &mut head[..len.min(BATCH_HEADER_MAX_BYTES)];
        r.read_exact(head)?;
        r.seek_relative((len - head.len()) as i64)?;
        let corrupt = |why: String| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("log record at byte {}: {why}", scan.clean_len),
            )
        };
        let h = BatchHeader::decode(head).map_err(|e| corrupt(e.to_string()))?;
        // Every tuple takes at least one byte: a count past the
        // record's length is no record this store wrote.
        if h.count > len as u64 {
            return Err(corrupt(format!("{} tuples in {len} bytes", h.count)));
        }
        scan.clean_len = end;
        scan.records += 1;
        scan.tuples += h.count as usize;
        scan.last_seq = Some(h.last_seq);
        if h.last_seq < from_seq {
            scan.suffix_offset = end;
        }
    }
    Ok(scan)
}

/// Reads bytes `from..to` of the file at `path`.
fn read_range(path: &Path, from: u64, to: u64) -> io::Result<Vec<u8>> {
    let mut out = vec![0; (to - from) as usize];
    File::open(path)?.read_exact_at(&mut out, from)?;
    Ok(out)
}

/// Opens a checkpoint file positioned at its payload and returns the
/// payload's length — or `None` for a missing file, one shorter than
/// its frame, or a frame over the file cap. Checkpoint files use the
/// loose file cap — a full snapshot legitimately outgrows the 64 MiB
/// wire cap that guards TCP reads. Bytes past the frame are ignored.
fn open_ckpt_frame(path: &Path) -> Option<(File, usize)> {
    let mut file = File::open(path).ok()?;
    let file_len = file.metadata().ok()?.len();
    let mut header = [0u8; FRAME_HEADER_BYTES];
    file.read_exact(&mut header).ok()?;
    let len = u32::from_le_bytes(header) as usize;
    (len <= MAX_FILE_FRAME_BYTES && (FRAME_HEADER_BYTES + len) as u64 <= file_len)
        .then_some((file, len))
}

/// Reads the single frame of a checkpoint file into a buffer of its
/// own size.
fn read_ckpt_frame(path: &Path) -> Option<Vec<u8>> {
    let (mut file, len) = open_ckpt_frame(path)?;
    let mut payload = vec![0; len];
    file.read_exact(&mut payload).ok()?;
    Some(payload)
}

/// Reads the first `n` payload bytes of a checkpoint file (all of them
/// when the payload is shorter) — a header, without the body behind
/// it. `None` exactly when [`read_ckpt_frame`] would find nothing.
fn read_ckpt_head(path: &Path, n: usize) -> Option<Vec<u8>> {
    let (mut file, len) = open_ckpt_frame(path)?;
    let mut head = vec![0; n.min(len)];
    file.read_exact(&mut head).ok()?;
    Some(head)
}

impl StableStore for FsStore {
    fn put_checkpoint(&self, epoch: EpochId, op: OperatorId, ckpt: CkptWrite) -> Result<bool> {
        let CkptWrite {
            state,
            next_seq,
            in_flight,
            resume_seq,
        } = ckpt;
        match state {
            CkptState::Full(snapshot) => {
                self.write_full(epoch, op, &snapshot, next_seq, &in_flight, &resume_seq)?;
            }
            CkptState::Delta { base, delta } => {
                // Price the chain the incoming delta would extend
                // without reading the base's body: only a rebase needs
                // it.
                let chain = self.chain_under(base, op).map_err(|why| {
                    Error::Storage(format!("delta checkpoint {epoch}/{op}: {why}"))
                })?;
                if self.policy.should_rebase(
                    chain.links.len() as u32 + 1,
                    chain.delta_bytes + delta.encoded_bytes() as u64,
                    chain.base_bytes,
                ) {
                    // Fold the whole chain into a fresh full snapshot.
                    let logical_bytes = delta.logical_bytes;
                    let data = self.fold_chain(&chain, op, delta).map_err(|e| {
                        Error::Storage(format!(
                            "delta checkpoint {epoch}/{op}: rebase onto {} failed: {e}",
                            chain.base
                        ))
                    })?;
                    let snapshot = OperatorSnapshot {
                        data,
                        logical_bytes,
                    };
                    self.write_full(epoch, op, &snapshot, next_seq, &in_flight, &resume_seq)?;
                } else {
                    let write = CkptWrite {
                        state: CkptState::Delta { base, delta },
                        next_seq,
                        in_flight,
                        resume_seq,
                    };
                    self.write_ckpt_file(
                        &self.delta_path(epoch, op),
                        &[&ckpt_codec::encode_ckpt(&write)],
                    )?;
                }
            }
        }
        let complete = self.epoch_is_complete(epoch);
        if complete {
            self.gc_below(epoch);
        }
        Ok(complete)
    }

    fn get_checkpoint(&self, epoch: EpochId, op: OperatorId) -> Option<LiveHauCheckpoint> {
        // The file extension disambiguates the two payload layouts of
        // the shared codec.
        if let Some(payload) = read_ckpt_frame(&self.full_path(epoch, op)) {
            let full = ckpt_codec::decode_full_view(&payload).ok()?;
            return Some(LiveHauCheckpoint {
                snapshot: OperatorSnapshot {
                    data: full.data.to_vec(),
                    logical_bytes: full.logical_bytes,
                },
                next_seq: full.next_seq,
                in_flight: full.in_flight,
                resume_seq: full.resume_seq,
            });
        }
        let payload = read_ckpt_frame(&self.delta_path(epoch, op))?;
        let CkptWrite {
            state: CkptState::Delta { base, delta },
            next_seq,
            in_flight,
            resume_seq,
        } = ckpt_codec::decode_delta(&payload).ok()?
        else {
            unreachable!("decode_delta yields a delta");
        };
        let chain = self.chain_under(base, op).ok()?;
        let logical_bytes = delta.logical_bytes;
        let data = self.fold_chain(&chain, op, delta).ok()?;
        Some(LiveHauCheckpoint {
            snapshot: OperatorSnapshot {
                data,
                logical_bytes,
            },
            next_seq,
            in_flight,
            resume_seq,
        })
    }

    fn latest_complete(&self) -> Option<EpochId> {
        let Ok(entries) = fs::read_dir(self.root.join("ckpt")) else {
            return None;
        };
        let mut epochs: Vec<u64> = entries
            .flatten()
            .filter_map(|e| parse_ckpt_epoch(&e.file_name().to_string_lossy()))
            .collect();
        epochs.sort_unstable();
        epochs.dedup();
        epochs
            .into_iter()
            .rev()
            .map(EpochId)
            .find(|&e| self.epoch_is_complete(e))
    }

    fn append_log_batch(&self, source: OperatorId, batch: &[Tuple]) -> Result<u64> {
        if batch.is_empty() {
            return Ok(0);
        }
        let mut logs = self.logs.lock().expect("log writers lock");
        let lw = self.ensure_writer(&mut logs, source)?;
        // Dedup guard per tuple: a restarted source regenerates tuples
        // an earlier incarnation already made durable.
        let fresh: Vec<&Tuple> = batch
            .iter()
            .filter(|t| lw.last_seq.is_none_or(|s| t.seq > s))
            .collect();
        let Some(last) = fresh.last() else {
            return Ok(0); // whole batch already durable
        };
        let last_seq = last.seq;
        // The fresh suffix as one framed record (several past the frame
        // cap): what a torn tail loses is whole records, and replay
        // never depends on the split. One write_all for the whole batch:
        // the kernel has every record (or, on a crash, at most a torn
        // final one) — never an interleaving.
        let rec = frame_batch(&fresh, MAX_FRAME_BYTES);
        if let Err(e) = lw.file.write_all(&rec) {
            // A failed write may have landed a partial record; restore
            // the pre-write length so a retry appends onto a clean
            // boundary. Only a restored tail may report transient —
            // retrying over torn bytes would corrupt the log interior.
            return Err(if lw.file.set_len(lw.bytes).is_ok() {
                Error::storage_io(&format!("source preservation failed for {source}"), &e)
            } else {
                Error::Storage(format!(
                    "source preservation failed for {source}: {e} (tail not restored)"
                ))
            });
        }
        self.log_writes.fetch_add(1, Ordering::Relaxed);
        lw.bytes += rec.len() as u64;
        lw.last_seq = Some(last_seq);
        Ok(rec.len() as u64)
    }

    fn mark_epoch(&self, source: OperatorId, epoch: EpochId, next_seq: u64) -> Result<()> {
        let mut w = SnapshotWriter::new();
        w.put_u64(epoch.0).put_u64(next_seq);
        let path = self.marks_path(source);
        let mut f = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| Error::storage_io(&format!("epoch mark open for {source}"), &e))?;
        let len = f
            .metadata()
            .map_err(|e| Error::Storage(format!("epoch mark stat for {source}: {e}")))?
            .len();
        if let Err(e) = f.write_all(&frame(&w.finish())) {
            // Same retry-safety contract as the preservation log: a
            // restored tail may retry, an unrestorable one may not.
            return Err(if f.set_len(len).is_ok() {
                Error::storage_io(&format!("epoch mark failed for {source}"), &e)
            } else {
                Error::Storage(format!(
                    "epoch mark failed for {source}: {e} (tail not restored)"
                ))
            });
        }
        Ok(())
    }

    fn replay_from(&self, source: OperatorId, epoch: EpochId) -> Vec<Tuple> {
        let from_seq = self.mark_for(source, epoch).unwrap_or(0);
        let path = self.log_path(source);
        // Only the records reaching the epoch's mark are read and
        // decoded; the first of them may begin below it.
        let suffix = scan_log(&path, from_seq)
            .and_then(|scan| read_range(&path, scan.suffix_offset, scan.clean_len))
            .unwrap_or_default();
        frames(&suffix)
            .filter_map(|p| SnapshotReader::new(p).get_batch().ok())
            .flatten()
            .filter(|t| t.seq >= from_seq)
            .collect()
    }

    fn preserved_tuples(&self) -> usize {
        let Ok(entries) = fs::read_dir(self.root.join("log")) else {
            return 0;
        };
        entries
            .flatten()
            .map(|e| scan_log(&e.path(), u64::MAX).map_or(0, |scan| scan.tuples))
            .sum()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ms_core::delta::DeltaTable;
    use ms_core::time::SimTime;
    use ms_core::value::Value;

    /// A fresh directory for one test's store, unique per process and
    /// call (a property test opens one per case).
    pub(crate) fn tmpdir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("ms_live_{tag}_{}_{n}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn tup(seq: u64) -> Tuple {
        Tuple::new(
            OperatorId(0),
            seq,
            SimTime::ZERO,
            vec![Value::Int(seq as i64)],
        )
    }

    pub(crate) fn snap(data: Vec<u8>) -> OperatorSnapshot {
        OperatorSnapshot {
            logical_bytes: data.len() as u64,
            data,
        }
    }

    fn ck(next_seq: u64) -> CkptWrite {
        CkptWrite::full(snap(vec![9, 9, 9]), next_seq)
    }

    pub(crate) fn delta_write(base: EpochId, delta: StateDelta, next_seq: u64) -> CkptWrite {
        CkptWrite {
            state: CkptState::Delta { base, delta },
            next_seq,
            in_flight: Vec::new(),
            resume_seq: Vec::new(),
        }
    }

    #[test]
    fn completeness_is_visible_across_handles() {
        let dir = tmpdir("complete");
        let a = FsStore::open(&dir, 2).unwrap();
        // A second handle on the same directory — as a second process
        // would hold.
        let b = FsStore::open(&dir, 2).unwrap();
        assert!(!a.put_checkpoint(EpochId(1), OperatorId(0), ck(5)).unwrap());
        assert_eq!(b.latest_complete(), None);
        assert!(b.put_checkpoint(EpochId(1), OperatorId(1), ck(0)).unwrap());
        assert_eq!(a.latest_complete(), Some(EpochId(1)));
        let got = b.get_checkpoint(EpochId(1), OperatorId(0)).unwrap();
        assert_eq!(got.next_seq, 5);
        assert_eq!(got.snapshot.data, vec![9, 9, 9]);
        assert!(got.in_flight.is_empty());
        assert!(got.resume_seq.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_flight_portion_roundtrips() {
        let dir = tmpdir("inflight");
        let s = FsStore::open(&dir, 1).unwrap();
        let full = CkptWrite {
            state: CkptState::Full(snap(vec![1, 2])),
            next_seq: 44,
            in_flight: vec![(0, tup(7)), (1, tup(9))],
            resume_seq: vec![8, 10],
        };
        assert!(s.put_checkpoint(EpochId(3), OperatorId(0), full).unwrap());
        let got = s.get_checkpoint(EpochId(3), OperatorId(0)).unwrap();
        assert_eq!(got.next_seq, 44);
        assert_eq!(got.resume_seq, vec![8, 10]);
        assert_eq!(got.in_flight.len(), 2);
        assert_eq!(got.in_flight[0].0, 0);
        assert_eq!(got.in_flight[0].1.seq, 7);
        assert_eq!(got.in_flight[1].0, 1);
        assert_eq!(got.in_flight[1].1.seq, 9);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn log_survives_handle_and_dedups_restart() {
        let dir = tmpdir("log");
        {
            let s = FsStore::open(&dir, 1).unwrap();
            for seq in 0..10 {
                s.append_log_batch(OperatorId(0), &[tup(seq)]).unwrap();
            }
            s.mark_epoch(OperatorId(0), EpochId(1), 6).unwrap();
        }
        // "Restarted" incarnation regenerates from scratch: the first
        // ten appends are duplicates and must be skipped.
        let s = FsStore::open(&dir, 1).unwrap();
        for seq in 0..12 {
            s.append_log_batch(OperatorId(0), &[tup(seq)]).unwrap();
        }
        assert_eq!(s.preserved_tuples(), 12);
        let replay = s.replay_from(OperatorId(0), EpochId(1));
        assert_eq!(replay.len(), 6);
        assert_eq!(replay[0].seq, 6);
        // Unknown epoch: everything.
        assert_eq!(s.replay_from(OperatorId(0), EpochId(42)).len(), 12);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let dir = tmpdir("torn");
        {
            let s = FsStore::open(&dir, 1).unwrap();
            for seq in 0..5 {
                s.append_log_batch(OperatorId(0), &[tup(seq)]).unwrap();
            }
        }
        // Simulate a SIGKILL mid-append: cut the last record short.
        let path = dir.join("log").join("op0.log");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let s = FsStore::open(&dir, 1).unwrap();
        let replay = s.replay_from(OperatorId(0), EpochId(0));
        assert_eq!(replay.len(), 4);
        // The next incarnation re-appends the torn tuple: seq 4 is
        // above the highest *complete* record, so it must not be
        // dropped by the dedup guard.
        s.append_log_batch(OperatorId(0), &[tup(4)]).unwrap();
        assert_eq!(s.replay_from(OperatorId(0), EpochId(0)).len(), 5);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The preservation log's bytes, pinned: one frame per append, each
    /// holding one batch record — version `b1`, producer, count, first
    /// and last seq, base time, then per tuple a seq delta, a time
    /// delta, a field count and a varint `Int`.
    #[test]
    fn wal_records_match_golden_bytes() {
        let dir = tmpdir("golden");
        let s = FsStore::open(&dir, 1).unwrap();
        let first = s
            .append_log_batch(OperatorId(0), &[tup(5), tup(6), tup(7)])
            .unwrap();
        let second = s.append_log_batch(OperatorId(0), &[tup(8)]).unwrap();
        let bytes = fs::read(dir.join("log").join("op0.log")).unwrap();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        let golden = [
            // Frame of 21 bytes; v1, producer 0, 3 tuples, seqs 5 to 7.
            "15000000 b10003050700",
            // Per tuple: seq delta 0, time delta 0, 1 field, `Int`.
            "000001210a 000001210c 000001210e",
            // The second append: its own frame and record, seq 8.
            "0b000000 b10001080800 0000012110",
        ];
        assert_eq!(hex, golden.concat().replace(' ', ""));
        assert_eq!(
            (first, second),
            (25, 15),
            "appends report the bytes written"
        );
        assert_eq!(
            s.replay_from(OperatorId(0), EpochId(0)),
            (5..9).map(tup).collect::<Vec<_>>()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn preserved_tuples_counts_tuples_not_records() {
        let dir = tmpdir("counts");
        let s = FsStore::open(&dir, 1).unwrap();
        let mut seq = 0;
        for n in [1u64, 7, 256, 3, 1000, 2] {
            let run: Vec<Tuple> = (seq..seq + n).map(tup).collect();
            s.append_log_batch(OperatorId(0), &run).unwrap();
            seq += n;
        }
        assert_eq!(s.preserved_tuples(), seq as usize);
        let scan = scan_log(&dir.join("log").join("op0.log"), 0).unwrap();
        assert_eq!((scan.records, scan.tuples), (6, seq as usize));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A log in the per-tuple layout that preceded batch records is
    /// refused on cold open, never misread as records or trimmed as a
    /// torn tail.
    #[test]
    fn a_log_in_the_old_per_tuple_layout_is_a_storage_error() {
        let dir = tmpdir("oldlog");
        let s = FsStore::open(&dir, 1).unwrap();
        let path = dir.join("log").join("op0.log");
        let old: Vec<u8> = (0..3)
            .flat_map(|seq| {
                let mut w = SnapshotWriter::new();
                w.put_tuple(&tup(seq));
                frame(&w.finish())
            })
            .collect();
        fs::write(&path, &old).unwrap();
        let err = s.append_log_batch(OperatorId(0), &[tup(3)]);
        assert!(matches!(err, Err(Error::Storage(_))), "{err:?}");
        assert_eq!(fs::read(&path).unwrap(), old, "nothing trimmed or appended");
        assert!(s.replay_from(OperatorId(0), EpochId(0)).is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn temp_files_never_count_toward_completeness() {
        let dir = tmpdir("tmpfiles");
        let s = FsStore::open(&dir, 1).unwrap();
        fs::write(dir.join("ckpt").join(".tmp_e9_op0.ckpt"), b"junk").unwrap();
        assert_eq!(s.latest_complete(), None);
        assert!(s.put_checkpoint(EpochId(9), OperatorId(0), ck(1)).unwrap());
        assert_eq!(s.latest_complete(), Some(EpochId(9)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn delta_chain_folds_byte_identically_across_handles() {
        let dir = tmpdir("deltachain");
        let s = FsStore::open(&dir, 1).unwrap();
        let mut t = DeltaTable::new();
        for k in 0..32u64 {
            t.insert(k, vec![k as u8; 24]);
        }
        s.put_checkpoint(
            EpochId(1),
            OperatorId(0),
            CkptWrite::full(snap(t.snapshot()), 5),
        )
        .unwrap();
        t.mark_clean();
        t.insert(7, vec![0xAA; 24]);
        t.remove(9);
        s.put_checkpoint(
            EpochId(2),
            OperatorId(0),
            delta_write(EpochId(1), t.take_delta(77), 6),
        )
        .unwrap();
        t.insert(40, vec![0xBB; 24]);
        s.put_checkpoint(
            EpochId(3),
            OperatorId(0),
            delta_write(EpochId(2), t.take_delta(78), 7),
        )
        .unwrap();
        assert!(dir.join("ckpt").join("e3_op0.delta").exists());
        // A fresh handle (another process) folds the chain on read.
        let other = FsStore::open(&dir, 1).unwrap();
        let got = other.get_checkpoint(EpochId(3), OperatorId(0)).unwrap();
        assert_eq!(got.snapshot.data, t.snapshot(), "fold is byte-identical");
        assert_eq!(got.snapshot.logical_bytes, 78);
        assert_eq!(got.next_seq, 7);
        assert_eq!(other.latest_complete(), Some(EpochId(3)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn broken_chain_is_neither_complete_nor_writable() {
        let dir = tmpdir("broken");
        let s = FsStore::open(&dir, 1).unwrap();
        // A delta whose base was never written is rejected.
        let mut t = DeltaTable::new();
        t.insert(1, vec![1]);
        assert!(s
            .put_checkpoint(
                EpochId(2),
                OperatorId(0),
                delta_write(EpochId(1), t.take_delta(0), 0),
            )
            .is_err());
        // Hand-plant a delta file with a dangling base: the epoch must
        // not count as complete.
        t.insert(2, vec![2]);
        let dangling = delta_write(EpochId(1), t.take_delta(0), 0); // base = missing epoch 1
        fs::write(
            dir.join("ckpt").join("e2_op0.delta"),
            frame(&ckpt_codec::encode_ckpt(&dangling)),
        )
        .unwrap();
        assert_eq!(s.latest_complete(), None);
        assert!(s.get_checkpoint(EpochId(2), OperatorId(0)).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_codec_parity_with_live_storage() {
        // One checkpoint format: the bytes FsStore framed to disk are
        // exactly the shared codec's encoding of the write, and they
        // fold back to the live table with the write's cut.
        let dir = tmpdir("parity");
        let fs_store = FsStore::open(&dir, 1).unwrap();
        let mut t = DeltaTable::new();
        for k in 0..16u64 {
            t.insert(k, vec![k as u8; 12]);
        }
        let w1 = CkptWrite::full(snap(t.snapshot()), 3);
        fs_store
            .put_checkpoint(EpochId(1), OperatorId(0), w1)
            .unwrap();
        t.mark_clean();
        t.insert(5, vec![0xAA; 12]);
        t.remove(2);
        let w2 = CkptWrite {
            state: CkptState::Delta {
                base: EpochId(1),
                delta: t.take_delta(50),
            },
            next_seq: 9,
            in_flight: vec![(1, tup(8))],
            resume_seq: vec![4, 9],
        };
        fs_store
            .put_checkpoint(EpochId(2), OperatorId(0), w2.clone())
            .unwrap();
        let on_disk = read_ckpt_frame(&dir.join("ckpt").join("e2_op0.delta")).unwrap();
        assert_eq!(on_disk, ckpt_codec::encode_ckpt(&w2), "one format on disk");
        let a = fs_store.get_checkpoint(EpochId(2), OperatorId(0)).unwrap();
        assert_eq!(a.snapshot.data, t.snapshot());
        assert_eq!(a.snapshot.logical_bytes, w2.state.logical_bytes());
        assert_eq!(a.next_seq, w2.next_seq);
        assert_eq!(a.in_flight, w2.in_flight);
        assert_eq!(a.resume_seq, w2.resume_seq);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rebase_writes_full_and_completion_gcs_old_epochs() {
        let dir = tmpdir("rebase");
        let s = FsStore::open(&dir, 1).unwrap().with_policy(RebasePolicy {
            max_chain: 3,
            max_delta_pct: 1_000_000,
        });
        let mut t = DeltaTable::new();
        for k in 0..64u64 {
            t.insert(k, vec![k as u8; 16]);
        }
        s.put_checkpoint(
            EpochId(1),
            OperatorId(0),
            CkptWrite::full(snap(t.snapshot()), 0),
        )
        .unwrap();
        t.mark_clean();
        let mut prev = EpochId(1);
        for e in 2..=4u64 {
            t.insert(100 + e, vec![0xCC; 16]);
            s.put_checkpoint(
                EpochId(e),
                OperatorId(0),
                delta_write(prev, t.take_delta(0), e),
            )
            .unwrap();
            prev = EpochId(e);
        }
        // Epoch 4 would be the third delta in the chain — rebased to a
        // full file, and its completion GCs epochs 1–3.
        assert!(dir.join("ckpt").join("e4_op0.ckpt").exists());
        assert!(!dir.join("ckpt").join("e4_op0.delta").exists());
        assert!(!dir.join("ckpt").join("e1_op0.ckpt").exists(), "GC'd");
        assert!(!dir.join("ckpt").join("e2_op0.delta").exists(), "GC'd");
        assert_eq!(s.latest_complete(), Some(EpochId(4)));
        let got = s.get_checkpoint(EpochId(4), OperatorId(0)).unwrap();
        assert_eq!(got.snapshot.data, t.snapshot());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn delta_writes_far_fewer_bytes_on_mostly_unchanged_state() {
        // The CI smoke check: on a mostly-unchanged keyed state, the
        // delta file must be a small fraction of the full snapshot.
        let dir = tmpdir("smoke");
        let s = FsStore::open(&dir, 1).unwrap();
        let mut t = DeltaTable::new();
        for k in 0..1000u64 {
            t.insert(k, vec![(k % 251) as u8; 100]);
        }
        s.put_checkpoint(
            EpochId(1),
            OperatorId(0),
            CkptWrite::full(snap(t.snapshot()), 0),
        )
        .unwrap();
        t.mark_clean();
        for k in 0..10u64 {
            t.insert(k * 97, vec![0xEE; 100]); // 1% of keys
        }
        s.put_checkpoint(
            EpochId(2),
            OperatorId(0),
            delta_write(EpochId(1), t.take_delta(0), 0),
        )
        .unwrap();
        let full_bytes = fs::metadata(dir.join("ckpt").join("e1_op0.ckpt"))
            .unwrap()
            .len();
        let delta_bytes = fs::metadata(dir.join("ckpt").join("e2_op0.delta"))
            .unwrap()
            .len();
        assert!(
            delta_bytes * 5 < full_bytes,
            "delta path must write far fewer bytes ({delta_bytes} vs {full_bytes})"
        );
        // And the chain still restores byte-identically.
        let got = s.get_checkpoint(EpochId(2), OperatorId(0)).unwrap();
        assert_eq!(got.snapshot.data, t.snapshot());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_over_the_wire_frame_cap_roundtrips() {
        // A full snapshot of a large operator legitimately exceeds the
        // 64 MiB wire frame cap; checkpoint files must still write and
        // read (they use the loose file cap), and a delta based on one
        // must still validate its chain.
        let dir = tmpdir("bigckpt");
        let s = FsStore::open(&dir, 1).unwrap();
        let big = snap(vec![0xAB; MAX_FRAME_BYTES + 1024]);
        assert!(s
            .put_checkpoint(EpochId(1), OperatorId(0), CkptWrite::full(big.clone(), 3))
            .unwrap());
        let got = s.get_checkpoint(EpochId(1), OperatorId(0)).unwrap();
        assert_eq!(got.snapshot.data.len(), big.data.len());
        assert_eq!(got.snapshot.data, big.data);
        assert_eq!(s.latest_complete(), Some(EpochId(1)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn delta_put_reads_the_base_header_and_only_a_rebase_its_body() {
        let dir = tmpdir("garbagebase");
        let op = OperatorId(0);
        let s = FsStore::open(&dir, 1).unwrap().with_policy(RebasePolicy {
            max_chain: 2,
            max_delta_pct: 1_000_000,
        });
        let mut t = DeltaTable::new();
        for k in 0..64u64 {
            t.insert(k, vec![k as u8; 16]);
        }
        s.put_checkpoint(EpochId(1), op, CkptWrite::full(snap(t.snapshot()), 0))
            .unwrap();
        t.mark_clean();
        // Garbage over everything behind the base payload's fixed
        // header — its table and its cut — at the same length.
        let base = dir.join("ckpt").join("e1_op0.ckpt");
        let mut bytes = fs::read(&base).unwrap();
        bytes[FRAME_HEADER_BYTES + ckpt_codec::FULL_HEAD_BYTES..].fill(0xFF);
        fs::write(&base, &bytes).unwrap();
        t.insert(3, vec![0xAA; 16]);
        assert!(s
            .put_checkpoint(EpochId(2), op, delta_write(EpochId(1), t.take_delta(0), 1))
            .unwrap());
        assert!(dir.join("ckpt").join("e2_op0.delta").exists());
        // The next delta would be the chain's second: a rebase, which
        // must read the body — and fail loudly rather than write.
        t.insert(4, vec![0xBB; 16]);
        let err = s.put_checkpoint(EpochId(3), op, delta_write(EpochId(2), t.take_delta(0), 2));
        assert!(matches!(err, Err(Error::Storage(_))), "{err:?}");
        assert!(!dir.join("ckpt").join("e3_op0.ckpt").exists());
        assert!(!dir.join("ckpt").join("e3_op0.delta").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rebase_decisions_and_file_bytes_match_live_storage_over_24_epochs() {
        let op = OperatorId(0);
        let tight = RebasePolicy {
            max_chain: 3,
            max_delta_pct: 20,
        };
        for (tag, policy) in [("default", RebasePolicy::default()), ("tight", tight)] {
            let dir = tmpdir(&format!("script_{tag}"));
            let fs_store = FsStore::open(&dir, 1).unwrap().with_policy(policy);
            let mut t = DeltaTable::new();
            for k in 0..256u64 {
                t.insert(k, vec![k as u8; 32]);
            }
            let first = CkptWrite::full(snap(t.snapshot()), 0);
            fs_store.put_checkpoint(EpochId(1), op, first).unwrap();
            // The reference: the chain the policy prices, counted from
            // what was written — its deltas, their summed encoded bytes
            // and its full base's data length.
            let (mut chain_len, mut chain_bytes) = (0, 0);
            let mut base_bytes = t.snapshot().len() as u64;
            t.mark_clean();
            let mut rebased_at = Vec::new();
            for e in 2..=24u64 {
                // Mostly small deltas, now and then one large enough
                // to cross the byte bound, values of varied length,
                // one removal (present or absent) per epoch.
                let dirty = [2u64, 5, 1, 40, 3, 9, 0, 70][e as usize % 8];
                for i in 0..dirty {
                    let len = 16 + (i % 5) as usize * 8;
                    t.insert((e * 37 + i * 11) % 300, vec![e as u8; len]);
                }
                t.remove(e * 13 % 300);
                let w = CkptWrite {
                    state: CkptState::Delta {
                        base: EpochId(e - 1),
                        delta: t.take_delta(t.value_bytes()),
                    },
                    next_seq: e,
                    in_flight: vec![(0, tup(e))],
                    resume_seq: vec![e],
                };
                let CkptState::Delta {
                    delta: incoming, ..
                } = &w.state
                else {
                    unreachable!("the script writes deltas");
                };
                chain_len += 1;
                chain_bytes += incoming.encoded_bytes() as u64;
                let expect_rebase = policy.should_rebase(chain_len, chain_bytes, base_bytes);
                fs_store.put_checkpoint(EpochId(e), op, w.clone()).unwrap();
                let full = dir.join("ckpt").join(format!("e{e}_op0.ckpt"));
                let delta = dir.join("ckpt").join(format!("e{e}_op0.delta"));
                let rebased = full.exists();
                assert_ne!(rebased, delta.exists(), "{tag} e{e}: exactly one file");
                assert_eq!(rebased, expect_rebase, "{tag} e{e}: against the policy");
                if rebased {
                    rebased_at.push(e);
                    (chain_len, chain_bytes) = (0, 0);
                    base_bytes = t.snapshot().len() as u64;
                }
                // The file is the shared encoder's bytes for that
                // decision.
                let expect = if rebased {
                    let logical_bytes = w.state.logical_bytes();
                    ckpt_codec::encode_ckpt(&CkptWrite {
                        state: CkptState::Full(OperatorSnapshot {
                            data: t.snapshot(),
                            logical_bytes,
                        }),
                        ..w
                    })
                } else {
                    ckpt_codec::encode_ckpt(&w)
                };
                let on_disk = read_ckpt_frame(if rebased { &full } else { &delta });
                assert_eq!(on_disk.unwrap(), expect, "{tag} e{e}");
                let got = fs_store.get_checkpoint(EpochId(e), op).unwrap();
                assert_eq!(got.snapshot.data, t.snapshot(), "{tag} e{e}");
            }
            assert!(
                !rebased_at.is_empty() && rebased_at.len() < 12,
                "{tag}: the script should exercise both decisions, rebased at {rebased_at:?}"
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn delta_torn_inside_its_header_is_missing() {
        let dir = tmpdir("tornhead");
        let op = OperatorId(0);
        let s = FsStore::open(&dir, 1).unwrap();
        let mut t = DeltaTable::new();
        for k in 0..8u64 {
            t.insert(k, vec![k as u8; 16]);
        }
        s.put_checkpoint(EpochId(1), op, CkptWrite::full(snap(t.snapshot()), 0))
            .unwrap();
        t.mark_clean();
        t.insert(1, vec![0xAA; 16]);
        s.put_checkpoint(EpochId(2), op, delta_write(EpochId(1), t.take_delta(0), 2))
            .unwrap();
        assert_eq!(s.latest_complete(), Some(EpochId(2)));
        let path = dir.join("ckpt").join("e2_op0.delta");
        let bytes = fs::read(&path).unwrap();
        // Torn inside the frame header, at the last byte of the
        // payload's `(next_seq, base)` header, and just past it: a
        // header-only read still finds the file shorter than its frame.
        let head_end = FRAME_HEADER_BYTES + ckpt_codec::DELTA_HEAD_BYTES;
        for torn in [2, head_end - 1, head_end + 1] {
            fs::write(&path, &bytes[..torn]).unwrap();
            assert_eq!(s.latest_complete(), Some(EpochId(1)), "torn at {torn}");
            assert!(s.get_checkpoint(EpochId(2), op).is_none());
            t.insert(2, vec![0xBB; 16]);
            let on_torn = delta_write(EpochId(2), t.take_delta(0), 3);
            assert!(s.put_checkpoint(EpochId(3), op, on_torn).is_err());
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
