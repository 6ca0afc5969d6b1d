//! One producer connection speaking `GateMsg` to the gate: the only
//! way load enters the cluster.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use ms_core::codec::{frame, FrameDecoder};
use ms_core::gate::GateMsg;

/// The single producer identity (`--gate-producers 1`).
pub const PRODUCER: u64 = 1;

/// How long a read waits before handing control back to the caller,
/// so the observer keeps ticking while an ack is outstanding.
const READ_SLICE: Duration = Duration::from_millis(5);
const CONNECT_TIMEOUT: Duration = Duration::from_millis(100);

pub struct Conn {
    sock: TcpStream,
    dec: FrameDecoder,
}

/// What one bounded wait for a reply produced.
pub enum Reply {
    Msg(GateMsg),
    /// Nothing yet; the connection is still up.
    Pending,
    /// Reset, EOF or garbage: reconnect and resend.
    Dead,
}

/// The framed bytes of one message.
pub fn encode(msg: &GateMsg) -> Vec<u8> {
    frame(&msg.encode())
}

impl Conn {
    /// Connects to `addr` and binds the connection with `Hello`.
    pub fn open(addr: &str) -> io::Result<Conn> {
        let addr: SocketAddr = addr
            .parse()
            .map_err(|e| io::Error::new(ErrorKind::InvalidInput, format!("{addr}: {e}")))?;
        let sock = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
        sock.set_nodelay(true)?;
        sock.set_read_timeout(Some(READ_SLICE))?;
        let mut conn = Conn {
            sock,
            dec: FrameDecoder::new(),
        };
        conn.send(&encode(&GateMsg::Hello { producer: PRODUCER }))?;
        Ok(conn)
    }

    pub fn send(&mut self, framed: &[u8]) -> io::Result<()> {
        self.sock.write_all(framed)
    }

    /// Waits up to [`READ_SLICE`] for the next reply.
    pub fn recv(&mut self) -> Reply {
        loop {
            match self.dec.next_frame() {
                Ok(Some(p)) => return GateMsg::decode(&p).map_or(Reply::Dead, Reply::Msg),
                Ok(None) => {}
                Err(_) => return Reply::Dead,
            }
            let mut buf = [0u8; 4096];
            match self.sock.read(&mut buf) {
                Ok(0) => return Reply::Dead,
                Ok(n) => self.dec.feed(&buf[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Reply::Pending
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Reply::Dead,
            }
        }
    }
}
