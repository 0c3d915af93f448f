//! A thin, hand-rolled readiness abstraction over nonblocking sockets.
//!
//! Per the workspace's offline-deps policy there is no `mio`/`epoll`
//! crate here: on Linux the poller talks to the kernel's `epoll`
//! facility directly through the C ABI `std` already links (the same
//! pattern as `tensor::par`'s `sched_setaffinity` pinning); everywhere
//! else a portable scan fallback reports every registered socket as
//! possibly ready and relies on the nonblocking I/O calls to sort out
//! the truth (`WouldBlock` is cheap).
//!
//! The surface is deliberately tiny — register a fd with a token, wait
//! for readable/hangup events — because the event loop in
//! [`crate::server`] flushes writes opportunistically every turn
//! instead of tracking `EPOLLOUT` interest.

use std::io;
use std::os::fd::RawFd;

/// One readiness event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: usize,
    /// The peer closed or the socket errored — the connection should
    /// be torn down after draining whatever is readable.
    pub hangup: bool,
}

#[cfg(target_os = "linux")]
mod imp {
    use super::Event;
    use std::io;
    use std::os::fd::RawFd;

    // The epoll C ABI, declared directly: `std` links libc, so the
    // symbols are always present on Linux. `epoll_event` is packed on
    // x86-64 (kernel UAPI quirk) and naturally aligned elsewhere.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    #[allow(unsafe_code)]
    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLLIN: u32 = 0x001;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    /// Linux: a real `epoll` instance.
    #[derive(Debug)]
    pub(crate) struct Poller {
        epfd: RawFd,
    }

    impl Poller {
        #[allow(unsafe_code)]
        pub(crate) fn new() -> io::Result<Self> {
            // SAFETY: plain syscall wrapper; no pointers involved.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Self { epfd })
        }

        #[allow(unsafe_code)]
        pub(crate) fn register(&mut self, fd: RawFd, token: usize) -> io::Result<()> {
            let mut ev = EpollEvent {
                // Level-triggered readable + peer-closed interest; the
                // event loop flushes writes opportunistically, so no
                // EPOLLOUT (it would busy-wake on writable sockets).
                events: EPOLLIN | EPOLLRDHUP,
                data: token as u64,
            };
            // SAFETY: `ev` outlives the call; the kernel copies it.
            let rc = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_ADD, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        #[allow(unsafe_code)]
        pub(crate) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            let mut ev = EpollEvent { events: 0, data: 0 };
            // SAFETY: as in `register`; DEL ignores the event payload
            // (non-null for pre-2.6.9 kernel compatibility).
            let rc = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        #[allow(unsafe_code)]
        pub(crate) fn wait(&mut self, timeout_ms: i32, out: &mut Vec<Event>) -> io::Result<()> {
            const CAP: usize = 256;
            let mut events = [EpollEvent { events: 0, data: 0 }; CAP];
            // SAFETY: the buffer is a stack array of CAP entries and
            // the kernel writes at most `maxevents` of them.
            let n = unsafe { epoll_wait(self.epfd, events.as_mut_ptr(), CAP as i32, timeout_ms) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(()); // EINTR: treat as an empty wake-up
                }
                return Err(err);
            }
            for e in &events[..n as usize] {
                let bits = e.events;
                out.push(Event {
                    token: e.data as usize,
                    hangup: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        #[allow(unsafe_code)]
        fn drop(&mut self) {
            // SAFETY: closing the fd we own exactly once.
            unsafe { close(self.epfd) };
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::Event;
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    /// Portable fallback: report every registered fd as possibly
    /// readable after a short sleep; the nonblocking reads discover
    /// the truth. Correct, just not as idle-efficient as epoll.
    #[derive(Debug, Default)]
    pub(crate) struct Poller {
        tokens: Vec<(RawFd, usize)>,
    }

    impl Poller {
        pub(crate) fn new() -> io::Result<Self> {
            Ok(Self::default())
        }
        pub(crate) fn register(&mut self, fd: RawFd, token: usize) -> io::Result<()> {
            self.tokens.push((fd, token));
            Ok(())
        }
        pub(crate) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.tokens.retain(|&(f, _)| f != fd);
            Ok(())
        }
        pub(crate) fn wait(&mut self, timeout_ms: i32, out: &mut Vec<Event>) -> io::Result<()> {
            if timeout_ms > 0 {
                std::thread::sleep(Duration::from_millis(timeout_ms.min(5) as u64));
            }
            out.extend(self.tokens.iter().map(|&(_, token)| Event {
                token,
                hangup: false,
            }));
            Ok(())
        }
    }
}

/// The platform poller (`epoll` on Linux, scan fallback elsewhere).
#[derive(Debug)]
pub(crate) struct Poller(imp::Poller);

impl Poller {
    /// Creates a poller.
    pub(crate) fn new() -> io::Result<Self> {
        imp::Poller::new().map(Self)
    }

    /// Watches `fd` for readability/hangup, reporting it as `token`.
    pub(crate) fn register(&mut self, fd: RawFd, token: usize) -> io::Result<()> {
        self.0.register(fd, token)
    }

    /// Stops watching `fd`.
    pub(crate) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.0.deregister(fd)
    }

    /// Waits up to `timeout_ms` (0 = just poll, -1 = block) and appends
    /// ready events to `out`.
    pub(crate) fn wait(&mut self, timeout_ms: i32, out: &mut Vec<Event>) -> io::Result<()> {
        self.0.wait(timeout_ms, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn readiness_surfaces_connects_and_data() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(listener.as_raw_fd(), 0).unwrap();

        let mut client = TcpStream::connect(addr).unwrap();
        let mut events = Vec::new();
        // The pending connect must wake the listener token.
        for _ in 0..200 {
            poller.wait(10, &mut events).unwrap();
            if events.iter().any(|e| e.token == 0) {
                break;
            }
        }
        assert!(events.iter().any(|e| e.token == 0), "accept readiness");

        let (conn, _) = listener.accept().unwrap();
        conn.set_nonblocking(true).unwrap();
        poller.register(conn.as_raw_fd(), 1).unwrap();
        client.write_all(b"ping").unwrap();
        events.clear();
        for _ in 0..200 {
            poller.wait(10, &mut events).unwrap();
            if events.iter().any(|e| e.token == 1) {
                break;
            }
        }
        assert!(events.iter().any(|e| e.token == 1), "data readiness");
        poller.deregister(conn.as_raw_fd()).unwrap();
    }
}
