//! Chaos decorators for stable storage — and the retry layer that
//! makes transient faults survivable.
//!
//! Two [`StableStore`] wrappers compose around `ms-live`'s
//! [`FsStore`](ms_live::FsStore):
//!
//! * [`FaultStore`] *injects* disk misbehaviour on the write paths —
//!   per-operation latency (a saturated device) and every-Nth
//!   transient failures (interrupted syscalls) — driven by a
//!   deterministic counter, never a clock or RNG, so a chaos run is
//!   replayable. Configured from the `MS_FAULT_STORE` env var:
//!   `slow_us=2000;fail_every=50`.
//! * [`RetryStore`] *absorbs* transient failures: any write that
//!   returns [`Error::Transient`] is retried with doubling backoff
//!   before the error escalates to the hard storage path (worker →
//!   `WireMsg::WorkerError` → controller rollback). Without this
//!   layer a single `EINTR` on a preservation append would fail the
//!   whole generation; with it, only a *persistently* failing disk
//!   does.
//!
//! Production workers always run `RetryStore(FsStore)`; chaos runs
//! insert the fault layer inside the retry layer —
//! `RetryStore(FaultStore(FsStore))` — which is exactly the real
//! topology: the kernel's flakiness happens below the retry loop.

use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::Duration;

use ms_core::error::{Error, Result};
use ms_core::ids::{EpochId, OperatorId};
use ms_core::tuple::Tuple;
use ms_live::{CkptWrite, CkptWritten, LiveHauCheckpoint, StableStore};

/// Parsed `MS_FAULT_STORE` spec: what the fault layer injects.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreFaultSpec {
    /// Sleep this long before every write (append / mark / checkpoint).
    pub slow_us: u64,
    /// Extra sleep before checkpoint-path writes only
    /// (`write_checkpoint` and `mark_epoch`) — widens the persister's vulnerable window
    /// without stretching every per-tuple preservation append.
    pub slow_ckpt_us: u64,
    /// Fail every Nth write with a transient error (1-based count;
    /// 0 = never fail).
    pub fail_every: u64,
}

impl StoreFaultSpec {
    /// Parses `slow_us=N;slow_ckpt_us=M;fail_every=K` (every clause
    /// optional, `;` separated). Errors on unknown keys so typos fail
    /// loudly.
    pub fn parse(spec: &str) -> std::result::Result<StoreFaultSpec, String> {
        let mut out = StoreFaultSpec::default();
        let mut any = false;
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (k, v) = clause
                .split_once('=')
                .ok_or_else(|| format!("store fault clause {clause:?} is not key=value"))?;
            let v = v
                .parse::<u64>()
                .map_err(|_| format!("store fault clause {clause:?}: not an integer"))?;
            match k {
                "slow_us" => out.slow_us = v,
                "slow_ckpt_us" => out.slow_ckpt_us = v,
                "fail_every" => out.fail_every = v,
                other => return Err(format!("unknown store fault key {other:?}")),
            }
            any = true;
        }
        if !any {
            return Err(format!("store fault spec {spec:?} declares nothing"));
        }
        Ok(out)
    }

    /// Reads the `MS_FAULT_STORE` environment variable. `Ok(None)` when
    /// unset or empty; `Err` when set but malformed.
    pub fn from_env() -> std::result::Result<Option<StoreFaultSpec>, String> {
        match std::env::var("MS_FAULT_STORE") {
            Ok(spec) if !spec.trim().is_empty() => StoreFaultSpec::parse(&spec).map(Some),
            _ => Ok(None),
        }
    }
}

/// A [`StableStore`] decorator that injects the [`StoreFaultSpec`] into
/// every write path. Reads pass through untouched — a slow disk still
/// serves its old bytes.
pub struct FaultStore<S> {
    inner: S,
    spec: StoreFaultSpec,
    /// Writes attempted so far (the deterministic fault clock).
    writes: AtomicU64,
}

impl<S: StableStore> FaultStore<S> {
    /// Wraps `inner` with fault injection per `spec`.
    pub fn new(inner: S, spec: StoreFaultSpec) -> FaultStore<S> {
        FaultStore {
            inner,
            spec,
            writes: AtomicU64::new(0),
        }
    }

    /// Applies the spec to one write attempt: sleep if slow, then fail
    /// transiently if this is an Nth write. Fault-before-delegate, so a
    /// failed attempt leaves the inner store untouched and a retry
    /// re-runs the whole operation.
    fn gate(&self, what: &str, extra_us: u64) -> Result<()> {
        let slow = self.spec.slow_us + extra_us;
        if slow > 0 {
            thread::sleep(Duration::from_micros(slow));
        }
        let n = self.writes.fetch_add(1, Ordering::Relaxed) + 1;
        if self.spec.fail_every > 0 && n % self.spec.fail_every == 0 {
            return Err(Error::Transient(format!(
                "injected fault on write #{n} ({what})"
            )));
        }
        Ok(())
    }
}

impl<S: StableStore> StableStore for FaultStore<S> {
    fn write_checkpoint(
        &self,
        epoch: EpochId,
        op: OperatorId,
        ckpt: &CkptWrite,
    ) -> Result<CkptWritten> {
        self.gate("write_checkpoint", self.spec.slow_ckpt_us)?;
        self.inner.write_checkpoint(epoch, op, ckpt)
    }

    fn get_checkpoint(&self, epoch: EpochId, op: OperatorId) -> Option<LiveHauCheckpoint> {
        self.inner.get_checkpoint(epoch, op)
    }

    fn latest_complete(&self) -> Option<EpochId> {
        self.inner.latest_complete()
    }

    fn append_log_batch(&self, source: OperatorId, batch: &[Tuple]) -> Result<u64> {
        // One gate per batch: a group commit is one write to the disk,
        // so it ticks the deterministic fault clock once — and a
        // failed attempt leaves the whole batch unwritten
        // (fault-before-delegate), matching the all-or-nothing
        // durability contract the caller relies on.
        self.gate("append_log_batch", 0)?;
        self.inner.append_log_batch(source, batch)
    }

    fn mark_epoch(&self, source: OperatorId, epoch: EpochId, next_seq: u64) -> Result<()> {
        self.gate("mark_epoch", self.spec.slow_ckpt_us)?;
        self.inner.mark_epoch(source, epoch, next_seq)
    }

    fn replay_from(&self, source: OperatorId, epoch: EpochId) -> Vec<Tuple> {
        self.inner.replay_from(source, epoch)
    }

    fn preserved_tuples(&self) -> usize {
        self.inner.preserved_tuples()
    }
}

/// Write attempts per operation before a transient failure is promoted
/// to a hard [`Error::Storage`].
const RETRY_ATTEMPTS: u32 = 6;
/// First backoff; doubles per attempt (1, 2, 4, 8, 16 ms ≈ 31 ms total
/// patience — far below the heartbeat timeout, so retrying never turns
/// a flaky disk into a phantom worker death).
const RETRY_BASE: Duration = Duration::from_millis(1);

/// A [`StableStore`] decorator that retries transient write failures
/// with doubling backoff before letting them escalate.
pub struct RetryStore<S> {
    inner: S,
    /// Total retries performed (observability + tests).
    retries: AtomicU64,
}

impl<S: StableStore> RetryStore<S> {
    /// Wraps `inner` with the retry policy.
    pub fn new(inner: S) -> RetryStore<S> {
        RetryStore {
            inner,
            retries: AtomicU64::new(0),
        }
    }

    /// Total transient failures retried so far.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    fn with_retry<T>(&self, what: &str, mut op: impl FnMut() -> Result<T>) -> Result<T> {
        let mut backoff = RETRY_BASE;
        let mut last = None;
        for attempt in 0..RETRY_ATTEMPTS {
            match op() {
                Err(e) if e.is_transient() => {
                    last = Some(e);
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    if attempt + 1 < RETRY_ATTEMPTS {
                        thread::sleep(backoff);
                        backoff *= 2;
                    }
                }
                other => return other,
            }
        }
        // Persistently failing storage: promote to the hard path the
        // worker already knows how to escalate.
        Err(Error::Storage(format!(
            "{what} still failing after {RETRY_ATTEMPTS} attempts: {}",
            last.expect("exhausted retries imply a failure")
        )))
    }
}

impl<S: StableStore> StableStore for RetryStore<S> {
    fn write_checkpoint(
        &self,
        epoch: EpochId,
        op: OperatorId,
        ckpt: &CkptWrite,
    ) -> Result<CkptWritten> {
        // Every attempt reads the same borrowed write: a view is
        // encoded again from its pages, and nothing is copied.
        self.with_retry("checkpoint write", || {
            self.inner.write_checkpoint(epoch, op, ckpt)
        })
    }

    fn get_checkpoint(&self, epoch: EpochId, op: OperatorId) -> Option<LiveHauCheckpoint> {
        self.inner.get_checkpoint(epoch, op)
    }

    fn latest_complete(&self) -> Option<EpochId> {
        self.inner.latest_complete()
    }

    fn append_log_batch(&self, source: OperatorId, batch: &[Tuple]) -> Result<u64> {
        // The borrowed slice retries for free — no per-attempt clone.
        self.with_retry("preservation batch append", || {
            self.inner.append_log_batch(source, batch)
        })
    }

    fn mark_epoch(&self, source: OperatorId, epoch: EpochId, next_seq: u64) -> Result<()> {
        self.with_retry("epoch mark", || {
            self.inner.mark_epoch(source, epoch, next_seq)
        })
    }

    fn replay_from(&self, source: OperatorId, epoch: EpochId) -> Vec<Tuple> {
        self.inner.replay_from(source, epoch)
    }

    fn preserved_tuples(&self) -> usize {
        self.inner.preserved_tuples()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_core::time::SimTime;
    use ms_core::value::Value;
    use ms_live::FsStore;
    use std::path::PathBuf;
    use std::time::Instant;

    fn tup(seq: u64) -> Tuple {
        Tuple::new(
            OperatorId(0),
            seq,
            SimTime::ZERO,
            vec![Value::Int(seq as i64)],
        )
    }

    /// An [`FsStore`] on a fresh directory named for the test.
    fn disk(tag: &str) -> (FsStore, PathBuf) {
        let dir = std::env::temp_dir().join(format!("ms_chaos_unit_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (FsStore::open(&dir, 1).unwrap(), dir)
    }

    #[test]
    fn spec_parses_and_rejects() {
        assert_eq!(
            StoreFaultSpec::parse("slow_us=2000;fail_every=50").unwrap(),
            StoreFaultSpec {
                slow_us: 2000,
                slow_ckpt_us: 0,
                fail_every: 50,
            }
        );
        assert_eq!(
            StoreFaultSpec::parse("fail_every=3").unwrap().slow_us,
            0,
            "clauses are optional"
        );
        assert_eq!(
            StoreFaultSpec::parse("slow_ckpt_us=40000")
                .unwrap()
                .slow_ckpt_us,
            40_000
        );
        for bad in ["", "slow_us", "slow_us=x", "explode=1"] {
            assert!(StoreFaultSpec::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn injected_transient_append_recovers_through_retry() {
        // Every 2nd write fails: each logical append needs at most one
        // retry, and every tuple must land in the inner store exactly
        // once (fault-before-delegate means a failed attempt appended
        // nothing).
        let (inner, dir) = disk("retry_append");
        let store = RetryStore::new(FaultStore::new(
            inner,
            StoreFaultSpec {
                slow_us: 0,
                slow_ckpt_us: 0,
                fail_every: 2,
            },
        ));
        for seq in 0..20 {
            store.append_log_batch(OperatorId(0), &[tup(seq)]).unwrap();
        }
        assert_eq!(store.preserved_tuples(), 20);
        assert!(store.retries() > 0, "the fault layer never fired");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_append_ticks_the_fault_clock_once_and_retries_whole() {
        let (inner, dir) = disk("batch_clock");
        let store = RetryStore::new(FaultStore::new(
            inner,
            StoreFaultSpec {
                slow_us: 0,
                slow_ckpt_us: 0,
                fail_every: 2,
            },
        ));
        let first: Vec<Tuple> = (0..8).map(tup).collect();
        store.append_log_batch(OperatorId(0), &first).unwrap();
        // A group commit is one write: the second batch is write #2,
        // fails once, and lands whole on the retry — never split.
        let second: Vec<Tuple> = (8..16).map(tup).collect();
        store.append_log_batch(OperatorId(0), &second).unwrap();
        assert_eq!(store.preserved_tuples(), 16);
        assert_eq!(store.retries(), 1, "one fault-clock tick per batch");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn real_interrupted_io_is_transient() {
        // The classification the retry loop keys on: an interrupted
        // syscall is retryable, a missing file is not.
        let io = std::io::Error::new(std::io::ErrorKind::Interrupted, "EINTR");
        assert!(Error::storage_io("append", &io).is_transient());
    }

    #[test]
    fn persistent_failure_escalates_to_hard_storage_error() {
        let (inner, dir) = disk("persistent");
        let store = RetryStore::new(FaultStore::new(
            inner,
            StoreFaultSpec {
                slow_us: 0,
                slow_ckpt_us: 0,
                fail_every: 1, // every attempt fails
            },
        ));
        let err = store
            .append_log_batch(OperatorId(0), &[tup(0)])
            .unwrap_err();
        assert!(
            matches!(err, Error::Storage(_)),
            "exhausted retries must surface as a hard error, got {err:?}"
        );
        assert_eq!(store.preserved_tuples(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mark_epoch_and_checkpoint_paths_are_gated_too() {
        let (inner, dir) = disk("mark_gated");
        let store = RetryStore::new(FaultStore::new(
            inner,
            StoreFaultSpec {
                slow_us: 0,
                slow_ckpt_us: 0,
                fail_every: 2,
            },
        ));
        for e in 1..=6u64 {
            store.mark_epoch(OperatorId(0), EpochId(e), e * 10).unwrap();
        }
        assert!(store.retries() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn slow_store_injects_latency_but_succeeds() {
        let (inner, dir) = disk("slow");
        let store = FaultStore::new(
            inner,
            StoreFaultSpec {
                slow_us: 2_000,
                slow_ckpt_us: 0,
                fail_every: 0,
            },
        );
        let t0 = Instant::now();
        for seq in 0..5 {
            store.append_log_batch(OperatorId(0), &[tup(seq)]).unwrap();
        }
        assert!(
            t0.elapsed() >= Duration::from_millis(10),
            "5 appends at 2ms each should take >= 10ms"
        );
        assert_eq!(store.preserved_tuples(), 5);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
