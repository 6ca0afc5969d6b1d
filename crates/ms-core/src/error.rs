//! Error type shared across the workspace.

use std::fmt;

/// Result alias using [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the Meteor Shower crates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A snapshot could not be decoded (truncated/corrupt data or a
    /// tag mismatch).
    Codec(String),
    /// A query network is malformed (cycle, dangling edge, duplicate
    /// connection, …).
    Graph(String),
    /// An experiment or cluster configuration is invalid.
    Config(String),
    /// A recovery step failed (e.g. no complete checkpoint exists).
    Recovery(String),
    /// A component was addressed that does not exist.
    NotFound(String),
    /// A real-transport failure: connection refused or reset, broken
    /// pipe, torn/oversized frame, unexpected EOF mid-message. This is
    /// the live-cluster counterpart of the simulator's
    /// `ms_sim::net::SendOutcome::Unreachable` — fail-stop, observable
    /// by the sender, never a silent loss.
    Wire(String),
    /// Stable storage failed (preservation append, epoch mark, or
    /// checkpoint write/trim). Surfaced to the controller so the run
    /// fails visibly instead of aborting the worker process.
    Storage(String),
    /// Stable storage failed in a way that is plausibly transient — an
    /// interrupted syscall, a momentarily saturated device, an injected
    /// chaos fault. Durability-critical callers retry these with
    /// backoff; an exhausted retry budget escalates to the hard
    /// [`Error::Storage`] path. Keeping the distinction in the type
    /// (not in message text) is what lets the retry layer stay a thin
    /// decorator.
    Transient(String),
}

impl Error {
    /// True if retrying the failed operation may succeed.
    pub fn is_transient(&self) -> bool {
        matches!(self, Error::Transient(_))
    }

    /// Classifies a storage-path I/O failure: interrupted / would-block
    /// / timed-out syscalls are transient (the kernel is telling us to
    /// try again), everything else — missing files, permission, ENOSPC,
    /// corrupt data — is a hard storage error.
    pub fn storage_io(context: &str, e: &std::io::Error) -> Error {
        use std::io::ErrorKind;
        let msg = format!("{context}: {:?}: {e}", e.kind());
        match e.kind() {
            ErrorKind::Interrupted | ErrorKind::WouldBlock | ErrorKind::TimedOut => {
                Error::Transient(msg)
            }
            _ => Error::Storage(msg),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Codec(m) => write!(f, "codec error: {m}"),
            Error::Graph(m) => write!(f, "query network error: {m}"),
            Error::Config(m) => write!(f, "configuration error: {m}"),
            Error::Recovery(m) => write!(f, "recovery error: {m}"),
            Error::NotFound(m) => write!(f, "not found: {m}"),
            Error::Wire(m) => write!(f, "wire error: {m}"),
            Error::Storage(m) => write!(f, "storage error: {m}"),
            Error::Transient(m) => write!(f, "transient storage error: {m}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    /// Wire transports surface OS-level socket failures; the error
    /// kind is preserved in text so callers (and logs) can still tell
    /// a refused connect from a broken pipe. `io::Error` is neither
    /// `Clone` nor `PartialEq`, hence the stringly capture.
    fn from(e: std::io::Error) -> Error {
        Error::Wire(format!("{:?}: {e}", e.kind()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_category() {
        assert!(Error::Codec("x".into()).to_string().contains("codec"));
        assert!(Error::Graph("x".into())
            .to_string()
            .contains("query network"));
        assert!(Error::Wire("x".into()).to_string().contains("wire"));
    }

    #[test]
    fn storage_io_classifies_retryable_kinds() {
        use std::io::{Error as IoError, ErrorKind};
        for kind in [
            ErrorKind::Interrupted,
            ErrorKind::WouldBlock,
            ErrorKind::TimedOut,
        ] {
            let e = Error::storage_io("append", &IoError::new(kind, "busy"));
            assert!(e.is_transient(), "{kind:?} should be transient");
            assert!(e.to_string().contains("transient"));
        }
        for kind in [
            ErrorKind::NotFound,
            ErrorKind::PermissionDenied,
            ErrorKind::UnexpectedEof,
        ] {
            let e = Error::storage_io("append", &IoError::new(kind, "gone"));
            assert!(!e.is_transient(), "{kind:?} must be hard");
            assert!(matches!(e, Error::Storage(_)));
        }
    }

    #[test]
    fn io_error_maps_to_wire_with_kind() {
        let io = std::io::Error::new(std::io::ErrorKind::BrokenPipe, "pipe gone");
        let e = Error::from(io);
        match &e {
            Error::Wire(m) => {
                assert!(m.contains("BrokenPipe"));
                assert!(m.contains("pipe gone"));
            }
            other => panic!("expected Wire, got {other:?}"),
        }
    }
}
