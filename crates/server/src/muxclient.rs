//! A multiplexed TATP load driver: one thread driving thousands of
//! connections through the same [`Poller`] the server's reactor uses.
//!
//! The thread-per-connection [`crate::client::Conn`] caps a load
//! generator at a few hundred concurrent connections — exactly the
//! cliff the evented server exists to remove — so the 5k+ connection
//! experiments need an evented *client* too. Each connection walks
//! [`WireTatp::statement`]'s script as a state machine (BEGIN → typed
//! statements → COMMIT, with read-modify-write rows derived from the
//! previous `Row` reply) — the same script [`WireTatp::execute`] walks —
//! and splits replies with the framing rule the server's reactor uses
//! ([`crate::protocol::split_frame`]); only the socket discipline
//! differs from the blocking driver.
//!
//! Sheds (`RETRY_LATER` at BEGIN) and engine aborts
//! (deadlock/lock-timeout) are expected outcomes: the connection moves
//! on to its next sampled transaction. Any other surprise —
//! unexpected frame, mid-script EOF, malformed reply — counts as a
//! protocol error and kills that connection; the report's
//! `protocol_errors` must be zero on a healthy run.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use tpd_common::poll::{Interest, PollEvent, Poller, Token};

use crate::protocol::{split_frame, ErrorCode, Frame, Split};
use crate::wire_tatp::{WireSpec, WireTatp};

/// Mux driver configuration.
#[derive(Debug, Clone)]
pub struct MuxConfig {
    /// Concurrent connections to open.
    pub conns: usize,
    /// Transaction attempts per connection (sheds and aborts consume an
    /// attempt, like the blocking loadgen's closed loop).
    pub txns_per_conn: u64,
    /// RNG seed (per-connection streams derive from it).
    pub seed: u64,
    /// Set `TCP_NODELAY` on client sockets.
    pub nodelay: bool,
    /// Overall wall-clock budget; `None` runs to completion. On expiry
    /// the report covers what finished.
    pub deadline: Option<Duration>,
}

impl Default for MuxConfig {
    fn default() -> Self {
        MuxConfig {
            conns: 64,
            txns_per_conn: 10,
            seed: 42,
            nodelay: true,
            deadline: Some(Duration::from_secs(300)),
        }
    }
}

/// Outcome tallies and commit latencies from one mux run.
#[derive(Debug, Default)]
pub struct MuxReport {
    /// Transaction attempts started (`commits + aborts + sheds` when
    /// every connection drained cleanly).
    pub issued: u64,
    /// Committed transactions.
    pub commits: u64,
    /// Engine aborts (deadlock / lock timeout).
    pub aborts: u64,
    /// Admission sheds (`RETRY_LATER` at BEGIN).
    pub sheds: u64,
    /// Unexpected frames, mid-script EOFs, or decode failures.
    pub protocol_errors: u64,
    /// Connections that drained their full script.
    pub completed_conns: u64,
    /// BEGIN-sent → COMMITTED-received, nanoseconds, one per commit.
    pub latencies_ns: Vec<u64>,
}

impl MuxReport {
    /// (p50, p99, p999) commit latency in nanoseconds (zeros when no
    /// commits happened).
    pub fn latency_percentiles(&self) -> (u64, u64, u64) {
        if self.latencies_ns.is_empty() {
            return (0, 0, 0);
        }
        let mut v = self.latencies_ns.clone();
        v.sort_unstable();
        let at = |q: f64| v[((v.len() - 1) as f64 * q) as usize];
        (at(0.50), at(0.99), at(0.999))
    }
}

/// The request in flight on one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InFlight {
    Begin,
    Stmt(usize),
    Commit,
}

enum ConnStatus {
    Active,
    Finished,
    Broken,
}

struct MuxConn {
    stream: TcpStream,
    fd: RawFd,
    rng: SmallRng,
    remaining: u64,
    spec: WireSpec,
    saved: Option<Vec<i64>>,
    inflight: InFlight,
    txn_start: Instant,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    interest: Interest,
}

impl MuxConn {
    fn new(stream: TcpStream, rng: SmallRng, txns: u64) -> io::Result<MuxConn> {
        let fd = stream.as_raw_fd();
        Ok(MuxConn {
            stream,
            fd,
            rng,
            remaining: txns,
            spec: WireSpec {
                ty: 0,
                s: 0,
                sf: 0,
                val: 0,
            },
            saved: None,
            inflight: InFlight::Begin,
            txn_start: Instant::now(),
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            interest: Interest::READ,
        })
    }

    fn queue(&mut self, frame: &Frame) {
        frame.encode(&mut self.wbuf);
    }

    /// Start the next sampled transaction; `false` when the script
    /// budget is spent.
    fn start_next(&mut self, wire: &WireTatp, report: &mut MuxReport) -> bool {
        if self.remaining == 0 {
            return false;
        }
        self.remaining -= 1;
        report.issued += 1;
        self.spec = wire.sample(&mut self.rng);
        self.saved = None;
        self.inflight = InFlight::Begin;
        self.txn_start = Instant::now();
        self.queue(&Frame::Begin { ty: self.spec.ty });
        true
    }

    /// Advance past a completed statement: send the next one, or COMMIT.
    fn advance(&mut self, wire: &WireTatp, next_stmt: usize) {
        let spec = self.spec;
        match wire.statement(&spec, next_stmt, &mut self.saved) {
            Some(frame) => {
                self.inflight = InFlight::Stmt(next_stmt);
                self.queue(&frame);
            }
            None => {
                self.inflight = InFlight::Commit;
                self.queue(&Frame::Commit);
            }
        }
    }

    /// Feed one decoded reply through the script state machine.
    fn on_reply(&mut self, wire: &WireTatp, frame: Frame, report: &mut MuxReport) -> ConnStatus {
        let next_txn = match (self.inflight, frame) {
            (InFlight::Begin, Frame::TxnBegun { .. }) => {
                self.advance(wire, 0);
                return ConnStatus::Active;
            }
            (
                InFlight::Begin,
                Frame::Error {
                    code: ErrorCode::RetryLater,
                    ..
                },
            ) => {
                report.sheds += 1;
                true
            }
            (InFlight::Stmt(i), Frame::Row { row }) => {
                self.saved = Some(row);
                self.advance(wire, i + 1);
                return ConnStatus::Active;
            }
            (InFlight::Stmt(i), Frame::Updated | Frame::Inserted { .. }) => {
                self.advance(wire, i + 1);
                return ConnStatus::Active;
            }
            (
                InFlight::Stmt(_) | InFlight::Commit,
                Frame::Error {
                    code: ErrorCode::Deadlock | ErrorCode::LockTimeout,
                    ..
                },
            ) => {
                // Engine abort: the server already rolled back and
                // released the slot; just move on.
                report.aborts += 1;
                true
            }
            (InFlight::Commit, Frame::Committed) => {
                report.commits += 1;
                report
                    .latencies_ns
                    .push(self.txn_start.elapsed().as_nanos() as u64);
                true
            }
            _ => {
                report.protocol_errors += 1;
                return ConnStatus::Broken;
            }
        };
        debug_assert!(next_txn);
        if self.start_next(wire, report) {
            ConnStatus::Active
        } else {
            ConnStatus::Finished
        }
    }

    /// Drain readable bytes and run every complete frame through the
    /// state machine.
    fn read_and_process(&mut self, wire: &WireTatp, report: &mut MuxReport) -> ConnStatus {
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    // EOF mid-script is a server-side failure.
                    report.protocol_errors += 1;
                    return ConnStatus::Broken;
                }
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    report.protocol_errors += 1;
                    return ConnStatus::Broken;
                }
            }
        }
        loop {
            let frame = match split_frame(&self.rbuf) {
                Split::Incomplete => return ConnStatus::Active,
                Split::Frame(n, Ok(frame)) => {
                    self.rbuf.drain(..n);
                    frame
                }
                Split::Frame(_, Err(_)) | Split::Poison(_) => {
                    report.protocol_errors += 1;
                    return ConnStatus::Broken;
                }
            };
            match self.on_reply(wire, frame, report) {
                ConnStatus::Active => {}
                other => return other,
            }
        }
    }

    /// Flush pending output; `false` means the connection broke.
    fn flush(&mut self) -> bool {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return false,
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        self.wbuf.clear();
        self.wpos = 0;
        true
    }

    fn wanted_interest(&self) -> Interest {
        Interest {
            readable: true,
            writable: self.wpos < self.wbuf.len(),
        }
    }
}

fn connect_with_retry(addr: SocketAddr) -> io::Result<TcpStream> {
    let mut delay = Duration::from_millis(2);
    let mut last = io::Error::other("no connect attempt made");
    for _ in 0..50 {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => last = e,
        }
        std::thread::sleep(delay);
        delay = (delay * 2).min(Duration::from_millis(100));
    }
    Err(last)
}

/// Drive `cfg.conns` concurrent connections of TATP against `addr`
/// from a single thread, multiplexed over the poller.
///
/// Replies are processed while the connections are still being opened
/// (a zero-timeout poll after each connect), so a transaction admitted
/// early in the ramp does not hold its admission slot until the last
/// connection is up.
pub fn run_mux(addr: SocketAddr, wire: &WireTatp, cfg: &MuxConfig) -> io::Result<MuxReport> {
    let poller = Poller::new()?;
    let mut report = MuxReport::default();
    let mut conns: Vec<Option<MuxConn>> = Vec::with_capacity(cfg.conns);
    let mut events: Vec<PollEvent> = Vec::new();
    let mut active = 0usize;
    for i in 0..cfg.conns {
        let stream = connect_with_retry(addr)?;
        if cfg.nodelay {
            let _ = stream.set_nodelay(true);
        }
        stream.set_nonblocking(true)?;
        let seed = cfg
            .seed
            .wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut conn = MuxConn::new(stream, SmallRng::seed_from_u64(seed), cfg.txns_per_conn)?;
        if !conn.start_next(wire, &mut report) {
            conns.push(None);
            continue; // zero-txn config
        }
        conn.flush();
        let want = conn.wanted_interest();
        poller.register(conn.fd, Token(i), want)?;
        conn.interest = want;
        conns.push(Some(conn));
        active += 1;
        active -= pump(
            &poller,
            &mut conns,
            &mut events,
            Duration::ZERO,
            wire,
            &mut report,
        )?;
    }
    let started = Instant::now();
    while active > 0 {
        if let Some(deadline) = cfg.deadline {
            if started.elapsed() >= deadline {
                break;
            }
        }
        let wait = Duration::from_millis(100);
        active -= pump(&poller, &mut conns, &mut events, wait, wire, &mut report)?;
    }
    Ok(report)
}

/// Wait up to `timeout` for ready connections and advance the script of
/// each; returns how many connections it retired (finished or broken).
fn pump(
    poller: &Poller,
    conns: &mut [Option<MuxConn>],
    events: &mut Vec<PollEvent>,
    timeout: Duration,
    wire: &WireTatp,
    report: &mut MuxReport,
) -> io::Result<usize> {
    let mut retired = 0;
    poller.wait(events, Some(timeout))?;
    for ev in events.drain(..) {
        let idx = ev.token.0;
        let Some(conn) = conns.get_mut(idx).and_then(Option::as_mut) else {
            continue;
        };
        let mut status = ConnStatus::Active;
        if ev.writable && !conn.flush() {
            report.protocol_errors += 1;
            status = ConnStatus::Broken;
        }
        if matches!(status, ConnStatus::Active) && (ev.readable || ev.hangup || ev.error) {
            status = conn.read_and_process(wire, report);
        }
        if matches!(status, ConnStatus::Active) && !conn.flush() {
            report.protocol_errors += 1;
            status = ConnStatus::Broken;
        }
        match status {
            ConnStatus::Active => {
                let want = conn.wanted_interest();
                if want != conn.interest && poller.reregister(conn.fd, ev.token, want).is_ok() {
                    conn.interest = want;
                }
            }
            ConnStatus::Finished | ConnStatus::Broken => {
                if matches!(status, ConnStatus::Finished) {
                    report.completed_conns += 1;
                }
                let _ = poller.deregister(conn.fd);
                conns[idx] = None;
                retired += 1;
            }
        }
    }
    Ok(retired)
}
