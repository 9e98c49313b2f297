//! A blocking client of the wire protocol: one request line out, one JSON
//! line back (see `dslog::net`).

use std::collections::VecDeque;
use std::io::{BufRead as _, BufReader, ErrorKind, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
    pub requests: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A server that stops answering must fail the run, not hang it.
        stream.set_read_timeout(Some(std::time::Duration::from_secs(30)))?;
        Ok(Self {
            writer: stream.try_clone()?,
            reader: BufReader::with_capacity(1 << 16, stream),
            line: String::new(),
            requests: 0,
            bytes_sent: 0,
            bytes_received: 0,
        })
    }

    /// Send one request line (newline included) and wait for its response
    /// line, returned without the newline.
    pub fn roundtrip(&mut self, request: &str) -> std::io::Result<&str> {
        self.writer.write_all(request.as_bytes())?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.requests += 1;
        self.bytes_sent += request.len() as u64;
        self.bytes_received += self.line.len() as u64;
        Ok(self.line.trim_end())
    }
}

impl Client {
    /// The closed loop of the read workloads: keep `window` requests in
    /// flight on this connection for as long as `next` makes requests,
    /// sending the next one only when a response has arrived, and polling
    /// the socket in between. Past `cut_off` nothing more is sent.
    ///
    /// Why not one request at a time, blocking? Then both ends sleep between
    /// messages, and on this kind of box (a 2-vCPU virtual machine) waking a
    /// sleeping vCPU costs several times what the request costs, at one of
    /// two levels depending on what the host did a minute ago. With a few
    /// requests in flight the server always finds the next one waiting, and
    /// the client polls instead of sleeping, so neither end sleeps and the
    /// time measured is the system's own.
    ///
    /// `next` makes a request (its tag and its line), or `None` to stop;
    /// `done` receives the tag, the response line and the time from send to
    /// response in nanoseconds, which includes the wait behind the requests
    /// ahead of it.
    pub fn run_window<T>(
        &mut self,
        window: usize,
        cut_off: Instant,
        mut next: impl FnMut() -> Option<(T, String)>,
        mut done: impl FnMut(T, &str, u64),
    ) -> std::io::Result<()> {
        assert!(self.reader.buffer().is_empty(), "responses left unread");
        // `writer` and the reader's socket are clones of one socket: this
        // makes both non-blocking.
        self.writer.set_nonblocking(true)?;
        let result = self.window_loop(window, cut_off, &mut next, &mut done);
        self.writer.set_nonblocking(false)?;
        result
    }

    fn window_loop<T>(
        &mut self,
        window: usize,
        cut_off: Instant,
        next: &mut impl FnMut() -> Option<(T, String)>,
        done: &mut impl FnMut(T, &str, u64),
    ) -> std::io::Result<()> {
        let give_up = cut_off + Duration::from_secs(30);
        let mut in_flight: VecDeque<(T, Instant)> = VecDeque::with_capacity(window);
        let mut received: Vec<u8> = Vec::with_capacity(1 << 16);
        let mut chunk = vec![0u8; 1 << 16];
        let mut sending = true;
        loop {
            while sending && in_flight.len() < window {
                let Some((tag, line)) = next() else {
                    sending = false;
                    break;
                };
                let sent = Instant::now();
                let mut bytes = line.as_bytes();
                while !bytes.is_empty() {
                    match self.writer.write(bytes) {
                        Ok(n) => bytes = &bytes[n..],
                        Err(e) if e.kind() == ErrorKind::WouldBlock => std::hint::spin_loop(),
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(e) => return Err(e),
                    }
                }
                self.requests += 1;
                self.bytes_sent += line.len() as u64;
                in_flight.push_back((tag, sent));
            }
            if in_flight.is_empty() {
                return Ok(());
            }
            match self.reader.get_mut().read(&mut chunk) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => {
                    let now = Instant::now();
                    self.bytes_received += n as u64;
                    received.extend_from_slice(&chunk[..n]);
                    let mut start = 0;
                    while let Some(len) = received[start..].iter().position(|&b| b == b'\n') {
                        let line = String::from_utf8_lossy(&received[start..start + len]);
                        start += len + 1;
                        let Some((tag, sent)) = in_flight.pop_front() else {
                            return Err(std::io::Error::new(
                                ErrorKind::InvalidData,
                                "response without a request",
                            ));
                        };
                        done(tag, line.trim_end(), (now - sent).as_nanos() as u64);
                    }
                    received.drain(..start);
                    if now >= cut_off {
                        sending = false;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::hint::spin_loop();
                    if Instant::now() >= give_up {
                        return Err(std::io::Error::new(
                            ErrorKind::TimedOut,
                            "server stopped answering",
                        ));
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Whether a response line reports success. Every response is checked with
/// this; a sample is later parsed and compared with the oracle.
pub fn is_ok(response: &str) -> bool {
    response.starts_with("{\"ok\":true")
}
