//! A minimal poll(2)-style readiness layer for the real transport.
//!
//! The event-loop worker multiplexes every peer socket on one I/O
//! thread; this module supplies the two primitives that makes that
//! possible without an external event library:
//!
//! * [`poll`] — level-triggered readiness over a set of raw file
//!   descriptors, a thin safe wrapper over the `poll(2)` system call
//!   (no `libc` crate: the one symbol is declared by hand, and the
//!   `pollfd` layout is fixed by POSIX).
//! * [`Waker`] — a self-pipe the I/O thread registers alongside its
//!   sockets, so other threads can interrupt a blocking [`poll`] to
//!   deliver commands or flush egress. Wakes are coalesced: any number
//!   of `wake()` calls between two poll iterations cost at most one
//!   pipe write.

use std::io::{self, Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// What a caller wants to know about one descriptor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor is readable (or has hung up).
    pub readable: bool,
    /// Wake when the descriptor is writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Write-only interest.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Read+write interest.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One ready descriptor out of a [`poll`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadyEvent {
    /// The caller-supplied token identifying the descriptor.
    pub token: usize,
    /// Readable now (includes EOF: a read will not block).
    pub readable: bool,
    /// Writable now.
    pub writable: bool,
    /// Peer hung up or the descriptor errored; the owner should read
    /// to EOF / tear the connection down.
    pub hangup: bool,
}

// POSIX-fixed layout; see poll(2).
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;

extern "C" {
    #[link_name = "poll"]
    fn sys_poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
}

/// The raw descriptor type accepted by [`poll`].
pub type PollTarget = RawFd;

/// Blocks until at least one entry is ready or the timeout elapses
/// (`timeout_ms < 0` blocks forever), returning the ready subset.
/// Level-triggered: a descriptor that stays readable is reported again
/// on the next call. `EINTR` retries transparently. The entry slice is
/// rebuilt per call, which at the worker's scale (a few hundred
/// descriptors) costs microseconds.
pub fn poll(
    entries: &[(PollTarget, usize, Interest)],
    timeout_ms: i32,
) -> io::Result<Vec<ReadyEvent>> {
    let mut fds: Vec<PollFd> = entries
        .iter()
        .map(|&(fd, _, want)| PollFd {
            fd,
            events: if want.readable { POLLIN } else { 0 }
                | if want.writable { POLLOUT } else { 0 },
            revents: 0,
        })
        .collect();
    loop {
        // SAFETY: `fds` is an exclusively borrowed buffer of exactly
        // `fds.len()` `pollfd` records (POSIX layout) that outlives the
        // call; poll(2) writes only their `revents` fields.
        let n = unsafe { sys_poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                continue;
            }
            return Err(e);
        }
        let mut out = Vec::with_capacity(n as usize);
        for (pfd, &(_, token, _)) in fds.iter().zip(entries) {
            let r = pfd.revents;
            if r != 0 {
                out.push(ReadyEvent {
                    token,
                    readable: r & (POLLIN | POLLHUP | POLLERR) != 0,
                    writable: r & POLLOUT != 0,
                    hangup: r & (POLLHUP | POLLERR) != 0,
                });
            }
        }
        return Ok(out);
    }
}

/// A self-pipe that interrupts a blocking [`poll`].
///
/// The I/O thread registers [`Waker::fd`] with read interest; any
/// thread calls [`Waker::wake`]. Wakes coalesce through `pending`:
/// between one `drain` and the next, at most one byte crosses the
/// pipe no matter how many producers call `wake`, so the pipe can
/// never fill and `wake` never blocks.
#[derive(Clone)]
pub struct Waker {
    read: Arc<UnixStream>,
    write: Arc<UnixStream>,
    pending: Arc<AtomicBool>,
}

impl Waker {
    /// Creates the pipe pair (both ends nonblocking).
    pub fn new() -> io::Result<Waker> {
        let (read, write) = UnixStream::pair()?;
        read.set_nonblocking(true)?;
        write.set_nonblocking(true)?;
        Ok(Waker {
            read: Arc::new(read),
            write: Arc::new(write),
            pending: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The descriptor the I/O thread registers with read interest.
    pub fn fd(&self) -> RawFd {
        self.read.as_raw_fd()
    }

    /// Interrupts the poller (no-op if a wake is already pending).
    pub fn wake(&self) {
        if !self.pending.swap(true, Ordering::AcqRel) {
            let _ = (&*self.write).write(&[1]);
        }
    }

    /// Drains the pipe and re-arms. The I/O thread calls this on
    /// readiness of [`Waker::fd`] *before* reading the command
    /// queue: a producer that enqueues after the drain sets
    /// `pending` afresh and lands a new byte, so its command is
    /// seen next iteration at the latest.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        while matches!((&*self.read).read(&mut buf), Ok(n) if n > 0) {}
        self.pending.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn poll_reports_readable_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();

        // Nothing to read yet: poll times out empty.
        let entries = [(server.as_raw_fd(), 7usize, Interest::READ)];
        let ready = poll(&entries, 50).unwrap();
        assert!(ready.is_empty());

        client.write_all(b"x").unwrap();
        let ready = poll(&entries, 1000).unwrap();
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].token, 7);
        assert!(ready[0].readable);
        assert!(!ready[0].hangup);
    }

    #[test]
    fn poll_reports_hangup_on_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        drop(client);

        let entries = [(server.as_raw_fd(), 0usize, Interest::READ)];
        let ready = poll(&entries, 1000).unwrap();
        assert_eq!(ready.len(), 1);
        // A closed peer is at least readable (EOF); POLLHUP is
        // platform-dependent but Linux sets it for TCP.
        assert!(ready[0].readable);
    }

    #[test]
    fn poll_reports_writable() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (_server, _) = listener.accept().unwrap();
        let entries = [(client.as_raw_fd(), 1usize, Interest::WRITE)];
        let ready = poll(&entries, 1000).unwrap();
        assert_eq!(ready.len(), 1);
        assert!(ready[0].writable);
    }

    #[test]
    fn waker_interrupts_poll_and_coalesces() {
        let w = Waker::new().unwrap();
        let entries = [(w.fd(), 0usize, Interest::READ)];
        // Not woken: times out.
        assert!(poll(&entries, 30).unwrap().is_empty());
        // Many wakes, one byte: a single drain clears them all.
        for _ in 0..100 {
            w.wake();
        }
        let ready = poll(&entries, 1000).unwrap();
        assert_eq!(ready.len(), 1);
        w.drain();
        assert!(poll(&entries, 30).unwrap().is_empty());
        // Re-armed after drain.
        w.wake();
        assert_eq!(poll(&entries, 1000).unwrap().len(), 1);
        w.drain();
    }
}
