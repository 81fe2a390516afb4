//! Byte transports under the frame layer: Unix domain sockets and TCP
//! loopback behind one enum, plus the byte-counting wrapper the
//! coordinator's `CommMetrics` reads its wire volume from.
//!
//! Endpoints are strings (`unix:<path>` / `tcp:<addr>`) so the
//! coordinator can hand a worker process its rendezvous in a single
//! argv entry regardless of transport.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Which byte stream the coordinator and workers rendezvous over.
///
/// Both carry the identical `dlb-wire/3` frames; the choice is purely
/// operational. Unix sockets are the default (no ports, no firewall,
/// slightly lower per-byte cost); TCP binds loopback and exists to prove
/// the frames survive a real network stack — pointing it at a remote
/// address is a deployment exercise, not a protocol change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Transport {
    /// Unix domain socket at a temp path (removed on listener drop).
    #[default]
    Unix,
    /// TCP on `127.0.0.1` with an OS-assigned port.
    Tcp,
}

impl Transport {
    /// Stable lowercase name (`unix` / `tcp`) — the scenario schema's
    /// `transport` key and the CLI's `--transport` values.
    pub fn name(self) -> &'static str {
        match self {
            Transport::Unix => "unix",
            Transport::Tcp => "tcp",
        }
    }
}

impl fmt::Display for Transport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// `"unix"` / `"tcp"`, matching [`Transport::name`]. Anything else is an
/// error listing the accepted values, mirroring the scenario parser's
/// strictness.
impl FromStr for Transport {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "unix" => Ok(Transport::Unix),
            "tcp" => Ok(Transport::Tcp),
            other => Err(format!(
                "unknown transport {other:?} (expected \"unix\" or \"tcp\")"
            )),
        }
    }
}

static SOCK_SEQ: AtomicU64 = AtomicU64::new(0);

/// A bound rendezvous the coordinator accepts worker connections on.
#[derive(Debug)]
pub enum WireListener {
    /// Unix-domain listener plus the socket path (unlinked on drop).
    Unix(UnixListener, PathBuf),
    /// Loopback TCP listener.
    Tcp(TcpListener),
}

impl WireListener {
    /// Binds a fresh listener for `transport`: a unique temp-dir socket
    /// path for Unix, `127.0.0.1:0` (OS-assigned port) for TCP.
    pub fn bind(transport: Transport) -> io::Result<WireListener> {
        match transport {
            Transport::Unix => {
                let path = std::env::temp_dir().join(format!(
                    "dlb-wire-{}-{}.sock",
                    std::process::id(),
                    SOCK_SEQ.fetch_add(1, Ordering::Relaxed)
                ));
                // A stale path from a crashed earlier run with the same
                // pid would fail the bind; clear it first.
                let _ = std::fs::remove_file(&path);
                Ok(WireListener::Unix(UnixListener::bind(&path)?, path))
            }
            Transport::Tcp => Ok(WireListener::Tcp(TcpListener::bind("127.0.0.1:0")?)),
        }
    }

    /// The endpoint string a worker passes to [`WireStream::connect`]
    /// (`unix:<path>` / `tcp:<addr>`).
    pub fn endpoint(&self) -> String {
        match self {
            WireListener::Unix(_, path) => format!("unix:{}", path.display()),
            WireListener::Tcp(l) => match l.local_addr() {
                Ok(addr) => format!("tcp:{addr}"),
                Err(_) => "tcp:<unbound>".to_string(),
            },
        }
    }

    /// Accepts one worker connection.
    pub fn accept(&self) -> io::Result<WireStream> {
        match self {
            WireListener::Unix(l, _) => Ok(WireStream::Unix(l.accept()?.0)),
            WireListener::Tcp(l) => Ok(WireStream::Tcp(l.accept()?.0)),
        }
    }
}

impl Drop for WireListener {
    fn drop(&mut self) {
        if let WireListener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One connected byte stream of either transport.
#[derive(Debug)]
pub enum WireStream {
    /// Unix-domain stream.
    Unix(UnixStream),
    /// TCP stream (`TCP_NODELAY` set on connect/accept-side use).
    Tcp(TcpStream),
}

impl WireStream {
    /// Connects to an `endpoint()` string (`unix:<path>` / `tcp:<addr>`).
    pub fn connect(endpoint: &str) -> io::Result<WireStream> {
        if let Some(path) = endpoint.strip_prefix("unix:") {
            Ok(WireStream::Unix(UnixStream::connect(path)?))
        } else if let Some(addr) = endpoint.strip_prefix("tcp:") {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            Ok(WireStream::Tcp(s))
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("endpoint {endpoint:?} must start with \"unix:\" or \"tcp:\""),
            ))
        }
    }

    /// Bounds every blocking read — the coordinator's no-deadlock
    /// guarantee: a wedged worker becomes a timeout error, never a hang.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            WireStream::Unix(s) => s.set_read_timeout(dur),
            WireStream::Tcp(s) => s.set_read_timeout(dur),
        }
    }

    /// Bounds every blocking write (a dead peer with a full socket
    /// buffer stalls writes, not just reads).
    pub fn set_write_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            WireStream::Unix(s) => s.set_write_timeout(dur),
            WireStream::Tcp(s) => s.set_write_timeout(dur),
        }
    }

    /// Toggles non-blocking mode (the coordinator's accept loop polls;
    /// accepted streams are switched back to blocking + timeouts).
    pub fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        match self {
            WireStream::Unix(s) => s.set_nonblocking(on),
            WireStream::Tcp(s) => s.set_nonblocking(on),
        }
    }

    /// Half-closes the write side so the peer sees EOF while this side
    /// can still drain replies.
    pub fn shutdown_write(&self) -> io::Result<()> {
        match self {
            WireStream::Unix(s) => s.shutdown(std::net::Shutdown::Write),
            WireStream::Tcp(s) => s.shutdown(std::net::Shutdown::Write),
        }
    }
}

impl Read for WireStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            WireStream::Unix(s) => s.read(buf),
            WireStream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for WireStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            WireStream::Unix(s) => s.write(buf),
            WireStream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            WireStream::Unix(s) => s.flush(),
            WireStream::Tcp(s) => s.flush(),
        }
    }
}

/// A [`WireStream`] that counts bytes as they actually cross the socket
/// — envelope included — which is what `CommMetrics`' wire-level
/// counters report instead of the idealized `values × size_of` volume.
#[derive(Debug)]
pub struct CountingStream {
    inner: WireStream,
    bytes_out: u64,
    bytes_in: u64,
}

impl CountingStream {
    /// Wraps a connected stream with zeroed counters.
    pub fn new(inner: WireStream) -> CountingStream {
        CountingStream {
            inner,
            bytes_out: 0,
            bytes_in: 0,
        }
    }

    /// Total bytes written since construction (or the last
    /// [`reset_counts`](CountingStream::reset_counts)).
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out
    }

    /// Total bytes read since construction (or the last reset).
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in
    }

    /// Zeroes both counters (the engine snapshots per-round deltas).
    pub fn reset_counts(&mut self) {
        self.bytes_out = 0;
        self.bytes_in = 0;
    }

    /// The wrapped stream, for timeout configuration.
    pub fn stream(&self) -> &WireStream {
        &self.inner
    }
}

impl Read for CountingStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes_in += n as u64;
        Ok(n)
    }
}

impl Write for CountingStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes_out += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{read_frame, Frame};
    use std::thread;

    fn loopback(transport: Transport) {
        let listener = WireListener::bind(transport).unwrap();
        let endpoint = listener.endpoint();
        let client = thread::spawn(move || {
            let mut s = WireStream::connect(&endpoint).unwrap();
            let request = Frame::Done(crate::DoneFrame { seq: 5, ok: false });
            s.write_all(&request.encode()).unwrap();
            match read_frame(&mut s).unwrap() {
                Frame::Done(d) => assert!(d.ok),
                other => panic!("client got {other:?}"),
            }
        });
        let mut conn = CountingStream::new(listener.accept().unwrap());
        match read_frame(&mut conn).unwrap() {
            Frame::Done(d) => assert_eq!(d, crate::DoneFrame { seq: 5, ok: false }),
            other => panic!("server got {other:?}"),
        }
        let done = Frame::Done(crate::DoneFrame { seq: 5, ok: true }).encode();
        conn.write_all(&done).unwrap();
        client.join().unwrap();
        // Counters see framed bytes including the 5-byte envelope.
        assert_eq!(conn.bytes_in(), 5 + 9);
        assert_eq!(conn.bytes_out(), done.len() as u64);
    }

    #[test]
    fn unix_loopback_counts_framed_bytes() {
        loopback(Transport::Unix);
    }

    #[test]
    fn tcp_loopback_counts_framed_bytes() {
        loopback(Transport::Tcp);
    }

    #[test]
    fn unix_socket_path_removed_on_drop() {
        let listener = WireListener::bind(Transport::Unix).unwrap();
        let path = match &listener {
            WireListener::Unix(_, p) => p.clone(),
            WireListener::Tcp(_) => unreachable!(),
        };
        assert!(path.exists());
        drop(listener);
        assert!(!path.exists());
    }

    #[test]
    fn transport_parses_strictly() {
        assert_eq!("unix".parse::<Transport>().unwrap(), Transport::Unix);
        assert_eq!("tcp".parse::<Transport>().unwrap(), Transport::Tcp);
        assert!("udp".parse::<Transport>().is_err());
    }

    #[test]
    fn read_timeout_bounds_a_silent_peer() {
        let listener = WireListener::bind(Transport::Unix).unwrap();
        let endpoint = listener.endpoint();
        let _client = WireStream::connect(&endpoint).unwrap();
        let mut conn = listener.accept().unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let err = read_frame(&mut conn).unwrap_err();
        match err {
            crate::WireError::Io(e) => assert!(
                matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ),
                "{e:?}"
            ),
            other => panic!("got {other:?}"),
        }
    }
}
