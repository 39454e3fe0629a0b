//! Byte-stream transports the server and client speak over.
//!
//! The protocol only needs a blocking, ordered, reliable byte stream in
//! each direction, captured by the [`Connection`] trait.  Two transports
//! implement it:
//!
//! * **TCP** — [`std::net::TcpStream`], the deployment transport.
//! * **Loopback** — [`loopback`], an in-memory duplex pipe.  Tests use it
//!   to drive the full server/protocol stack (framing, sessions, batching,
//!   error frames) with no sockets, ports or OS networking involved, so
//!   protocol tests cannot flake on the environment.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A blocking, ordered, reliable byte stream — everything the wire
/// protocol requires of its carrier.
pub trait Connection: Read + Write + Send {
    /// A handle that, invoked from *another* thread, shuts down the
    /// stream's **read** half so that a thread blocked reading it wakes up
    /// with end-of-stream.  The write half stays open: a response already
    /// being computed can still be delivered before the reader-side
    /// end-of-stream ends the connection.  The server takes one closer per
    /// connection so `shutdown` can interrupt handlers parked on idle
    /// peers instead of waiting for them forever.
    ///
    /// The default is a no-op: a custom transport without one only delays
    /// server shutdown until its connection closes on its own.
    fn closer(&self) -> Box<dyn FnOnce() + Send> {
        Box::new(|| {})
    }

    /// Bound how long a blocking read may park before failing with
    /// [`io::ErrorKind::TimedOut`] (or `WouldBlock` — TCP reports either);
    /// `None` restores indefinite blocking.  The client maps both kinds to
    /// its typed `Timeout` error.  The default accepts and ignores the
    /// bound — a custom transport without timeout support simply keeps
    /// blocking reads, it does not error.
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        let _ = timeout;
        Ok(())
    }

    /// Bound how long a blocking write may park (same error contract as
    /// [`set_read_timeout`](Connection::set_read_timeout)).  Ignored by
    /// transports whose writes cannot block (the in-memory loopback).
    fn set_write_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        let _ = timeout;
        Ok(())
    }

    /// Terminate the stream *now*, so the peer observes end-of-stream even
    /// if other handles to the same underlying transport are still alive.
    /// Dropping is not always enough: a TCP [`closer`](Connection::closer)
    /// is a duplicated file descriptor, so dropping the handler's stream
    /// alone would not send FIN until that clone is also swept — leaving a
    /// peer blocked in a read with no timeout waiting forever.  The server
    /// calls this whenever a handler stops serving a connection.  The
    /// default is a no-op, correct for transports whose drop already closes
    /// the stream for the peer.
    fn shutdown_stream(&mut self) {}
}

impl Connection for TcpStream {
    fn closer(&self) -> Box<dyn FnOnce() + Send> {
        match self.try_clone() {
            Ok(clone) => Box::new(move || {
                let _ = clone.shutdown(std::net::Shutdown::Read);
            }),
            Err(_) => Box::new(|| {}),
        }
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, timeout)
    }

    fn set_write_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        TcpStream::set_write_timeout(self, timeout)
    }

    fn shutdown_stream(&mut self) {
        let _ = TcpStream::shutdown(self, std::net::Shutdown::Both);
    }
}

/// One direction of an in-memory pipe.
#[derive(Default)]
struct PipeBuf {
    state: Mutex<PipeState>,
    readable: Condvar,
}

#[derive(Default)]
struct PipeState {
    data: VecDeque<u8>,
    /// Set when either endpoint drops: readers drain what is buffered and
    /// then see end-of-stream; writers fail with `BrokenPipe`.
    closed: bool,
}

impl PipeBuf {
    /// Append every buffer under one lock and one wake-up.
    fn write(&self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        let mut state = self.state.lock().expect("pipe lock poisoned");
        if state.closed {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "loopback peer is gone",
            ));
        }
        for buf in bufs {
            state.data.extend(&**buf);
        }
        self.readable.notify_all();
        Ok(bufs.iter().map(|buf| buf.len()).sum())
    }

    fn read(&self, buf: &mut [u8], timeout: Option<Duration>) -> io::Result<usize> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut state = self.state.lock().expect("pipe lock poisoned");
        while state.data.is_empty() {
            if state.closed {
                return Ok(0); // end of stream
            }
            match deadline {
                None => state = self.readable.wait(state).expect("pipe lock poisoned"),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "loopback read timed out",
                        ));
                    }
                    state = self
                        .readable
                        .wait_timeout(state, deadline - now)
                        .expect("pipe lock poisoned")
                        .0;
                }
            }
        }
        let n = state.data.len().min(buf.len());
        let (front, back) = state.data.as_slices();
        let head = front.len().min(n);
        buf[..head].copy_from_slice(&front[..head]);
        buf[head..n].copy_from_slice(&back[..n - head]);
        state.data.drain(..n);
        Ok(n)
    }

    fn close(&self) {
        let mut state = self.state.lock().expect("pipe lock poisoned");
        state.closed = true;
        self.readable.notify_all();
    }
}

/// One endpoint of an in-memory duplex byte stream (see [`loopback`]).
///
/// Dropping an endpoint closes *both* directions: the peer's reads drain
/// whatever is already buffered and then report end-of-stream, and its
/// writes fail with `BrokenPipe` — the same shutdown shape a closed TCP
/// socket presents.
pub struct PipeStream {
    incoming: Arc<PipeBuf>,
    outgoing: Arc<PipeBuf>,
    /// Read timeout ([`Connection::set_read_timeout`]); writes to the
    /// unbounded in-memory buffer never block, so no write counterpart.
    read_timeout: Option<Duration>,
}

impl Read for PipeStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.incoming.read(buf, self.read_timeout)
    }
}

impl Write for PipeStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.outgoing.write(&[IoSlice::new(buf)])
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        self.outgoing.write(bufs)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for PipeStream {
    fn drop(&mut self) {
        self.incoming.close();
        self.outgoing.close();
    }
}

impl Connection for PipeStream {
    fn closer(&self) -> Box<dyn FnOnce() + Send> {
        // Read half only, mirroring the TCP closer: pending writes (an
        // in-flight response) still reach the peer.
        let incoming = Arc::clone(&self.incoming);
        Box::new(move || incoming.close())
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.read_timeout = timeout;
        Ok(())
    }

    fn shutdown_stream(&mut self) {
        // Same effect as dropping: both directions close immediately (the
        // pipe has no fd-clone aliasing to defeat).
        self.incoming.close();
        self.outgoing.close();
    }
}

/// A connected in-memory duplex pair: bytes written to one endpoint are
/// read from the other, in order, with blocking reads.
pub fn loopback() -> (PipeStream, PipeStream) {
    let a_to_b = Arc::new(PipeBuf::default());
    let b_to_a = Arc::new(PipeBuf::default());
    (
        PipeStream {
            incoming: Arc::clone(&b_to_a),
            outgoing: Arc::clone(&a_to_b),
            read_timeout: None,
        },
        PipeStream {
            incoming: a_to_b,
            outgoing: b_to_a,
            read_timeout: None,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn loopback_carries_bytes_both_ways() {
        let (mut a, mut b) = loopback();
        a.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        b.write_all(b"pong").unwrap();
        a.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
    }

    #[test]
    fn reads_block_until_data_arrives() {
        let (mut a, mut b) = loopback();
        let reader = thread::spawn(move || {
            let mut buf = [0u8; 3];
            b.read_exact(&mut buf).unwrap();
            buf
        });
        // The reader is (very likely) parked by now; writing wakes it.
        a.write_all(b"abc").unwrap();
        assert_eq!(reader.join().unwrap(), *b"abc");
    }

    #[test]
    fn read_timeout_fires_and_clears() {
        let (mut a, mut b) = loopback();
        a.set_read_timeout(Some(Duration::from_millis(10))).unwrap();
        let err = a.read(&mut [0u8; 4]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        // Data present: the timeout is irrelevant.
        b.write_all(b"hi").unwrap();
        assert_eq!(a.read(&mut [0u8; 4]).unwrap(), 2);
        // Cleared: reads block again (delivered by a late writer).
        a.set_read_timeout(None).unwrap();
        let reader = thread::spawn(move || {
            let mut buf = [0u8; 2];
            a.read_exact(&mut buf).unwrap();
            buf
        });
        b.write_all(b"ok").unwrap();
        assert_eq!(reader.join().unwrap(), *b"ok");
    }

    #[test]
    fn drop_closes_both_directions() {
        let (mut a, b) = loopback();
        a.write_all(b"tail").unwrap();
        drop(b);
        // Peer gone: writes fail...
        assert_eq!(a.write(b"x").unwrap_err().kind(), io::ErrorKind::BrokenPipe);
        // ...and reads see end-of-stream (nothing was in flight for `a`).
        assert_eq!(a.read(&mut [0u8; 8]).unwrap(), 0);

        // Buffered bytes survive the writer's drop and are drained first.
        let (mut c, mut d) = loopback();
        c.write_all(b"rest").unwrap();
        drop(c);
        let mut buf = [0u8; 4];
        d.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"rest");
        assert_eq!(d.read(&mut buf).unwrap(), 0);
    }
}
