//! Minimal `poll(2)`-based socket readiness, shared by the server's
//! acceptor and its shard event loops.
//!
//! The workspace's no-async stance rules out a runtime, but a blocking
//! accept would force [`Server::shutdown`](crate::Server::shutdown) to
//! poke the listener with a throwaway connection — a poke
//! indistinguishable from a real client, which could land in the
//! shedding/refusal accounting. Readiness polling removes the need for
//! any wake-up traffic: every loop parks in `poll(2)` with a short
//! timeout and re-checks the shutdown flag on each wake.
//!
//! `poll(2)` is declared with a three-line `extern "C"` prototype; the
//! symbol already lives in every binary std links, so this adds no
//! dependency. On non-unix targets the module degrades to a timed sleep
//! that reports everything ready — callers use nonblocking operations
//! that simply return `WouldBlock`, so correctness is preserved at the
//! cost of a bounded busy-poll.

use std::io;
use std::time::Duration;

#[cfg(unix)]
mod sys {
    use std::os::raw::{c_int, c_ulong};
    use std::os::unix::io::RawFd;

    /// Mirror of `struct pollfd` from `<poll.h>`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: RawFd,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }
}

/// Anything with a pollable file descriptor. On unix this is every
/// socket type; elsewhere the bound is vacuous and the fallback ignores
/// the handle.
#[cfg(unix)]
pub trait Pollable: std::os::unix::io::AsRawFd {}
#[cfg(unix)]
impl<T: std::os::unix::io::AsRawFd> Pollable for T {}

/// Anything with a pollable file descriptor (non-unix fallback).
#[cfg(not(unix))]
pub trait Pollable {}
#[cfg(not(unix))]
impl<T> Pollable for T {}

/// A reusable set of descriptors to wait on, the event loop's one
/// allocation. `clear` + `push` each iteration, then `wait`.
#[derive(Default)]
pub struct PollSet {
    #[cfg(unix)]
    fds: Vec<sys::PollFd>,
    #[cfg(not(unix))]
    len: usize,
}

impl PollSet {
    /// An empty set.
    pub fn new() -> PollSet {
        PollSet::default()
    }

    /// Drops every registered descriptor, keeping the allocation.
    pub fn clear(&mut self) {
        #[cfg(unix)]
        self.fds.clear();
        #[cfg(not(unix))]
        {
            self.len = 0;
        }
    }

    /// Registers a socket with the given interest. Returns the slot
    /// index to pass to [`PollSet::readable`] / [`PollSet::writable`]
    /// after `wait`.
    pub fn push<S: Pollable>(&mut self, sock: &S, readable: bool, writable: bool) -> usize {
        #[cfg(unix)]
        {
            let mut events = 0i16;
            if readable {
                events |= sys::POLLIN;
            }
            if writable {
                events |= sys::POLLOUT;
            }
            self.fds.push(sys::PollFd { fd: sock.as_raw_fd(), events, revents: 0 });
            self.fds.len() - 1
        }
        #[cfg(not(unix))]
        {
            let _ = (sock, readable, writable);
            self.len += 1;
            self.len - 1
        }
    }

    /// Blocks until at least one registered socket is ready or the
    /// timeout elapses. Returns how many are ready (0 on timeout).
    /// `EINTR` reports as 0 ready — callers loop anyway.
    pub fn wait(&mut self, timeout: Duration) -> io::Result<usize> {
        #[cfg(unix)]
        {
            if self.fds.is_empty() {
                std::thread::sleep(timeout);
                return Ok(0);
            }
            let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
            let rc = unsafe {
                sys::poll(self.fds.as_mut_ptr(), self.fds.len() as std::os::raw::c_ulong, ms)
            };
            if rc < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(err);
            }
            Ok(rc as usize)
        }
        #[cfg(not(unix))]
        {
            // Bounded busy-poll: report everything ready after a short
            // sleep; nonblocking callers see WouldBlock when idle.
            std::thread::sleep(timeout.min(Duration::from_millis(5)));
            Ok(self.len)
        }
    }

    /// Whether slot `i` is readable (or has an error/hangup to reap —
    /// both surface through a read attempt).
    pub fn readable(&self, i: usize) -> bool {
        #[cfg(unix)]
        {
            self.fds[i].revents & (sys::POLLIN | sys::POLLERR | sys::POLLHUP) != 0
        }
        #[cfg(not(unix))]
        {
            i < self.len
        }
    }

    /// Whether slot `i` is writable (or errored — a write attempt reaps
    /// the error).
    pub fn writable(&self, i: usize) -> bool {
        #[cfg(unix)]
        {
            self.fds[i].revents & (sys::POLLOUT | sys::POLLERR | sys::POLLHUP) != 0
        }
        #[cfg(not(unix))]
        {
            i < self.len
        }
    }
}

/// Waits for one socket to become readable. `Ok(true)` means a read (or
/// accept) will not block; `Ok(false)` is a timeout.
pub fn wait_readable<S: Pollable>(sock: &S, timeout: Duration) -> io::Result<bool> {
    let mut set = PollSet::new();
    set.push(sock, true, false);
    Ok(set.wait(timeout)? > 0 && set.readable(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn listener_readiness_follows_pending_connections() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        assert!(
            !wait_readable(&listener, Duration::from_millis(10)).unwrap(),
            "no pending connection yet"
        );
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        assert!(
            wait_readable(&listener, Duration::from_millis(1000)).unwrap(),
            "pending connection must mark the listener readable"
        );
    }

    #[test]
    fn poll_set_reports_readable_stream_data() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let mut set = PollSet::new();
        let slot = set.push(&server_side, true, true);
        assert!(set.wait(Duration::from_millis(50)).unwrap() > 0);
        assert!(set.writable(slot), "idle socket is writable");

        client.write_all(b"x").unwrap();
        client.flush().unwrap();
        set.clear();
        let slot = set.push(&server_side, true, false);
        assert!(set.wait(Duration::from_millis(1000)).unwrap() > 0);
        assert!(set.readable(slot), "buffered byte must mark the socket readable");
    }
}
