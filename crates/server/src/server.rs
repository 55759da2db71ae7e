//! The TCP front end: accept loop, per-connection execution, and the
//! request core that decides what each frame means.
//!
//! Two concurrency models, selected by [`ServerConfig::mode`], share
//! that core:
//!
//! * [`ServerMode::Threads`] — the paper's baseline (MySQL's
//!   thread-per-connection): the accept thread spawns one OS thread per
//!   connection; that thread owns the connection's [`Session`] for the
//!   connection's lifetime. Simple, but a few hundred connections in it
//!   hits the scheduler cliff the paper attributes to OS-level noise.
//! * [`ServerMode::Evented`] — a readiness-driven reactor
//!   ([`crate::reactor`]): nonblocking sockets multiplexed by one event
//!   loop, per-connection state machines, and a bounded worker pool as
//!   the execution stage. Scales to 10k+ connections on a handful of
//!   threads.
//!
//! The request core is sans-I/O: `step` maps one decoded frame (or its
//! decode error) to a `Step` — reply at once, admit a BEGIN, or execute
//! a statement — and `begin`/`execute` carry out the last two on the
//! session. Every protocol decision (what is a request, which state
//! errors the engine never sees, the malformed-frame reply and its
//! count) is stated there once; a front end only chooses how to wait:
//! the threads mode blocks in place, the reactor parks the connection
//! and ships `Execute` to a worker. DESIGN.md §9 has the step table.
//!
//! In both modes the admission controller sits between accept and
//! execute: a BEGIN frame must win an execution slot (or survive the
//! FIFO/deadline queue) before the engine sees it; overload is answered
//! with a typed `RETRY_LATER` instead of an ever-deeper queue.
//! Connection death in any state rolls back the open transaction
//! (dropping the `Session`) and frees the slot (dropping the
//! [`Permit`]) — no lock-queue entry survives a dead client.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use tpd_engine::{Engine, EngineError, Session, SessionError, TableId, TxnType};
use tpd_metrics::{Counter, MetricsSnapshot};

use crate::admission::{AdmissionConfig, AdmissionController, Permit, Shed};
use crate::protocol::{
    read_frame, write_frame, ErrorCode, Frame, FrameReadError, HistSummary, WireError,
};
use crate::reactor;

/// Which concurrency model serves connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServerMode {
    /// One OS thread per connection (the comparison baseline).
    #[default]
    Threads,
    /// One reactor thread multiplexing nonblocking sockets, with a
    /// bounded worker pool executing transactions.
    Evented,
}

impl std::str::FromStr for ServerMode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "threads" => Ok(ServerMode::Threads),
            "evented" => Ok(ServerMode::Evented),
            other => Err(format!(
                "unknown server mode {other:?} (expected \"threads\" or \"evented\")"
            )),
        }
    }
}

impl std::fmt::Display for ServerMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ServerMode::Threads => "threads",
            ServerMode::Evented => "evented",
        })
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Concurrency model for serving connections.
    pub mode: ServerMode,
    /// Admission control between accept and execute.
    pub admission: AdmissionConfig,
    /// Maximum simultaneously open connections; excess connections get a
    /// `RETRY_LATER` error frame and an immediate close.
    pub max_conns: usize,
    /// Per-connection idle deadline: a client that sends nothing for
    /// this long has its session rolled back, its admission permit
    /// released, and the connection closed — this is what reclaims
    /// permits from half-open (slow-loris / vanished-without-FIN)
    /// clients. `None` waits forever. In threads mode this is the socket
    /// read timeout; in evented mode the reactor enforces it.
    pub read_timeout: Option<Duration>,
    /// Worker threads for the evented execution stage. `0` defaults to
    /// `admission.slots` — one worker per execution slot, so a
    /// permit-holding transaction can always make progress (workers
    /// never block on admission; only admitted work reaches them).
    pub workers: usize,
    /// Set `TCP_NODELAY` on accepted sockets. Small length-prefixed
    /// request/response frames are the textbook delayed-ACK/Nagle
    /// interaction; leaving Nagle on poisons p999. On by default;
    /// disable only to measure the damage.
    pub nodelay: bool,
    /// Test hook: while this counter is nonzero, each accept attempt
    /// consumes one unit and fails with a synthetic `EMFILE` instead of
    /// accepting. Exercises the accept-error backoff path.
    #[doc(hidden)]
    pub inject_accept_errors: Option<Arc<AtomicU64>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            mode: ServerMode::Threads,
            admission: AdmissionConfig::default(),
            max_conns: 1024,
            read_timeout: Some(Duration::from_secs(60)),
            workers: 0,
            nodelay: true,
            inject_accept_errors: None,
        }
    }
}

/// A running server; dropping the handle shuts it down.
#[derive(Debug)]
pub struct ServerHandle {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    /// Threads mode: the accept thread. Evented mode: the reactor.
    accept_thread: Option<JoinHandle<()>>,
    /// Evented mode: wakes the reactor out of its poll wait.
    reactor_waker: Option<tpd_common::poll::Waker>,
}

#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) engine: Arc<Engine>,
    pub(crate) config: ServerConfig,
    pub(crate) admission: Arc<AdmissionController>,
    pub(crate) shutdown: AtomicBool,
    pub(crate) open_conns: AtomicU64,
    pub(crate) conns_opened: AtomicU64,
    pub(crate) conn_rejects: AtomicU64,
    pub(crate) protocol_errors: AtomicU64,
    pub(crate) frames: AtomicU64,
    /// Transient accept-path failures (EMFILE, ECONNABORTED, …) that
    /// were retried instead of killing the listener.
    pub(crate) accept_errs: Arc<Counter>,
}

impl Shared {
    fn new(engine: Arc<Engine>, config: ServerConfig) -> Shared {
        let registry = engine.metrics_registry();
        let admission = AdmissionController::new(
            config.admission.clone(),
            registry.counter("server.shed_total"),
            registry.histogram("server.admission_wait_ns"),
            registry.counter("sched.deferred_total"),
        );
        let accept_errs = registry.counter("server.accept_err_total");
        Shared {
            engine,
            config,
            admission,
            shutdown: AtomicBool::new(false),
            open_conns: AtomicU64::new(0),
            conns_opened: AtomicU64::new(0),
            conn_rejects: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            accept_errs,
        }
    }

    /// The engine snapshot plus the server's own families. `server.*`
    /// names are part of the protocol surface: loadgen reads
    /// `server.shed_total` / `server.open_conns` out of the METRICS reply.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let mut m = self.engine.metrics_snapshot();
        let open = self.open_conns.load(Ordering::Relaxed);
        m.set_counter("server.open_conns", open);
        m.set_counter("server.conns_open", open);
        m.set_counter(
            "server.conns_opened",
            self.conns_opened.load(Ordering::Relaxed),
        );
        m.set_counter(
            "server.conn_rejects",
            self.conn_rejects.load(Ordering::Relaxed),
        );
        m.set_counter(
            "server.protocol_errors",
            self.protocol_errors.load(Ordering::Relaxed),
        );
        m.set_counter("server.frames_total", self.frames.load(Ordering::Relaxed));
        m
    }
}

/// Spawn a server for `engine` per `config`. The listener is bound (and
/// the address resolvable via [`ServerHandle::local_addr`]) before this
/// returns.
pub fn spawn(engine: Arc<Engine>, config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let local_addr = listener.local_addr()?;
    let mode = config.mode;
    let shared = Arc::new(Shared::new(engine, config));
    let (accept_thread, reactor_waker) = match mode {
        ServerMode::Threads => {
            let accept_shared = shared.clone();
            let t = std::thread::Builder::new()
                .name("tpd-accept".to_string())
                .spawn(move || accept_loop(listener, accept_shared))?;
            (t, None)
        }
        ServerMode::Evented => {
            let (t, waker) = reactor::spawn(listener, shared.clone())?;
            (t, Some(waker))
        }
    };
    Ok(ServerHandle {
        local_addr,
        shared,
        accept_thread: Some(accept_thread),
        reactor_waker,
    })
}

impl ServerHandle {
    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Currently open connections.
    pub fn open_conns(&self) -> u64 {
        self.shared.open_conns.load(Ordering::Relaxed)
    }

    /// Protocol-level errors (malformed frames, bad versions) seen so far.
    pub fn protocol_errors(&self) -> u64 {
        self.shared.protocol_errors.load(Ordering::Relaxed)
    }

    /// Transient accept-path failures retried (not fatal) so far.
    pub fn accept_errors(&self) -> u64 {
        self.shared.accept_errs.get()
    }

    /// The server-side metrics snapshot (engine + `server.*` families) —
    /// the same data a METRICS frame returns.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.snapshot()
    }

    /// Stop accepting, wake the front end, and wait for it to exit. In
    /// threads mode, live connection threads notice the flag at their
    /// next frame (or read timeout) and unwind, rolling back open
    /// transactions; in evented mode the reactor tears down every
    /// connection (rolling back open transactions) before exiting.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        match &self.reactor_waker {
            Some(waker) => waker.wake(),
            // Unblock the blocking accept with a throwaway connection.
            None => drop(TcpStream::connect(self.local_addr)),
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What the accept loop should do about a failed `accept(2)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AcceptDisposition {
    /// Transient per-connection failure (the connection that aborted is
    /// gone; the listener is fine): retry immediately.
    Retry,
    /// Resource pressure (fd exhaustion) or an unrecognised error: back
    /// off briefly before retrying so the loop cannot hot-spin, then
    /// keep serving. Nothing kills the listener short of shutdown.
    Backoff,
}

const EMFILE: i32 = 24;
const ENFILE: i32 = 23;
pub(crate) const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Classify an accept-loop error. At 10k connections `EMFILE` is
/// routine — the listener must survive every transient error, counting
/// it in `server.accept_err_total`, instead of silently dying.
pub(crate) fn classify_accept_error(e: &io::Error) -> AcceptDisposition {
    if matches!(e.raw_os_error(), Some(EMFILE) | Some(ENFILE)) {
        return AcceptDisposition::Backoff;
    }
    match e.kind() {
        io::ErrorKind::Interrupted
        | io::ErrorKind::ConnectionAborted
        | io::ErrorKind::ConnectionReset
        | io::ErrorKind::WouldBlock => AcceptDisposition::Retry,
        _ => AcceptDisposition::Backoff,
    }
}

/// `listener.accept()` with the test-only fault injection applied.
pub(crate) fn accept_with_faults(
    listener: &TcpListener,
    shared: &Shared,
) -> io::Result<(TcpStream, SocketAddr)> {
    if let Some(budget) = &shared.config.inject_accept_errors {
        if budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            return Err(io::Error::from_raw_os_error(EMFILE));
        }
    }
    listener.accept()
}

/// Over the connection limit: best-effort typed rejection, then close.
pub(crate) fn reject_over_limit(stream: &TcpStream, shared: &Shared) {
    shared.conn_rejects.fetch_add(1, Ordering::Relaxed);
    let mut buf = Vec::with_capacity(64);
    Frame::Error {
        code: ErrorCode::RetryLater,
        detail: "connection limit reached".to_string(),
    }
    .encode(&mut buf);
    let mut w = stream;
    let _ = w.write_all(&buf);
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let stream = match accept_with_faults(&listener, &shared) {
            Ok((s, _)) => s,
            Err(_) if shared.shutdown.load(Ordering::SeqCst) => return,
            Err(e) => {
                shared.accept_errs.inc();
                match classify_accept_error(&e) {
                    AcceptDisposition::Retry => continue,
                    AcceptDisposition::Backoff => {
                        std::thread::sleep(ACCEPT_BACKOFF);
                        continue;
                    }
                }
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if shared.open_conns.load(Ordering::SeqCst) >= shared.config.max_conns as u64 {
            reject_over_limit(&stream, &shared);
            continue; // stream drops ⇒ closed
        }
        shared.open_conns.fetch_add(1, Ordering::SeqCst);
        shared.conns_opened.fetch_add(1, Ordering::Relaxed);
        let conn_shared = shared.clone();
        let res = std::thread::Builder::new()
            .name("tpd-conn".to_string())
            .spawn(move || {
                serve_conn(stream, &conn_shared);
                conn_shared.open_conns.fetch_sub(1, Ordering::SeqCst);
            });
        if res.is_err() {
            shared.open_conns.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

fn serve_conn(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(shared.config.read_timeout);
    if shared.config.nodelay {
        let _ = stream.set_nodelay(true);
    }
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = BufWriter::new(stream);
    // Dropping these on any return rolls back the open transaction and
    // frees the admission slot.
    let mut session = Session::new(shared.engine.clone());
    let mut permit: Option<Permit> = None;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            let _ = write_frame(
                &mut writer,
                &Frame::Error {
                    code: ErrorCode::Shutdown,
                    detail: "server shutting down".to_string(),
                },
            );
            let _ = writer.flush();
            return;
        }
        let decoded = match read_frame(&mut reader) {
            Ok(Some(f)) => Ok(f),
            // Clean close, torn close, or I/O error (incl. read timeout).
            Ok(None) | Err(FrameReadError::Eof) | Err(FrameReadError::Io(_)) => return,
            Err(FrameReadError::Wire(e)) => Err(e),
        };
        // A bad length prefix is answered, then the connection closes:
        // the stream cannot be resynced.
        let poisoned = decoded.as_ref().is_err_and(|e| !e.recoverable());
        let reply = match step(shared, permit.is_some(), decoded) {
            Step::Reply(reply) => reply,
            Step::Admit { ty, hot } => match shared.admission.admit_hot(hot) {
                Ok(granted) => begin(&mut session, &mut permit, granted, ty),
                Err(shed) => shed_reply(shed),
            },
            Step::Execute(frame) => execute(&mut session, &mut permit, frame),
        };
        if write_frame(&mut writer, &reply).is_err() || writer.flush().is_err() || poisoned {
            return;
        }
    }
}

// ---- the request core: what a frame means, decided once for both front ends ----

/// What one received frame asks of its connection. Deciding it does no
/// I/O and never blocks; each front end carries the step out its own
/// way (see DESIGN.md §9).
pub(crate) enum Step {
    /// Answer with this frame; nothing else happens.
    Reply(Frame),
    /// BEGIN on an idle session: win an admission slot (`hot` feeds the
    /// defer gate), then [`begin`].
    Admit { ty: TxnType, hot: bool },
    /// A statement, COMMIT or ABORT of the open transaction: [`execute`]
    /// it. The only step that can block, on engine locks or the log.
    Execute(Frame),
}

/// Decide what `decoded` — one delimited frame, or the reason it failed
/// to decode — asks of a connection. A connection holds an admission
/// permit (`has_permit`) exactly while its session has a transaction
/// open. Counts `server.frames_total` and `server.protocol_errors`.
pub(crate) fn step(shared: &Shared, has_permit: bool, decoded: Result<Frame, WireError>) -> Step {
    let frame = match decoded {
        Ok(frame) => frame,
        Err(e) => return malformed(shared, e.to_string()),
    };
    shared.frames.fetch_add(1, Ordering::Relaxed);
    match frame {
        Frame::Begin { .. } if has_permit => {
            Step::Reply(session_error_reply(SessionError::TxnAlreadyActive))
        }
        Frame::Begin { ty } => Step::Admit {
            ty,
            hot: begin_is_hot(shared, ty),
        },
        Frame::Metrics => Step::Reply(metrics_reply(shared.snapshot())),
        Frame::Read { .. }
        | Frame::Update { .. }
        | Frame::Insert { .. }
        | Frame::Commit
        | Frame::Abort => {
            // Without a transaction this is a state error the engine
            // need not see.
            if has_permit {
                Step::Execute(frame)
            } else {
                Step::Reply(session_error_reply(SessionError::NoActiveTxn))
            }
        }
        // A reply frame arriving as a request is a protocol violation,
        // but a well-formed one: answer with a typed error, keep the
        // connection.
        other => malformed(
            shared,
            format!("frame kind 0x{:02x} is not a request", other.kind()),
        ),
    }
}

fn malformed(shared: &Shared, detail: String) -> Step {
    shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
    Step::Reply(Frame::Error {
        code: ErrorCode::Malformed,
        detail,
    })
}

/// Open the transaction of a [`Step::Admit`] once `granted` won its
/// slot. On success the connection keeps the slot in `permit`;
/// otherwise `granted` drops here and the slot is freed.
pub(crate) fn begin(
    session: &mut Session,
    permit: &mut Option<Permit>,
    granted: Permit,
    ty: TxnType,
) -> Frame {
    match session.begin(ty) {
        Ok(txn_id) => {
            *permit = Some(granted);
            Frame::TxnBegun { txn_id }
        }
        Err(e) => session_error_reply(e),
    }
}

/// Carry out a [`Step::Execute`] on the session. When the transaction
/// ends — by COMMIT, ABORT or an engine rollback — `permit` is dropped,
/// freeing the admission slot before the reply is sent.
pub(crate) fn execute(session: &mut Session, permit: &mut Option<Permit>, frame: Frame) -> Frame {
    // Row widths need no check here: the decoder bounds them.
    let result = match frame {
        Frame::Read { table, key } => session
            .read(TableId(table), key)
            .map(|row| Frame::Row { row }),
        Frame::Update { table, key, row } => session
            .update_row(TableId(table), key, row)
            .map(|()| Frame::Updated),
        Frame::Insert { table, row } => session
            .insert(TableId(table), row)
            .map(|key| Frame::Inserted { key }),
        Frame::Commit => session.commit().map(|()| Frame::Committed),
        Frame::Abort => session.abort().map(|()| Frame::Aborted),
        other => unreachable!("not an in-transaction frame: kind 0x{:02x}", other.kind()),
    };
    if !session.in_txn() {
        drop(permit.take());
    }
    result.unwrap_or_else(session_error_reply)
}

/// The reply to a BEGIN that admission control shed.
pub(crate) fn shed_reply(shed: Shed) -> Frame {
    Frame::Error {
        code: ErrorCode::RetryLater,
        detail: shed.to_string(),
    }
}

fn session_error_reply(e: SessionError) -> Frame {
    let code = match e {
        SessionError::Engine(EngineError::Deadlock) => ErrorCode::Deadlock,
        // Snapshot-too-old behaves like a timeout on the wire: the engine
        // rolled back; the client retries with a fresh transaction.
        SessionError::Engine(EngineError::LockTimeout | EngineError::SnapshotTooOld) => {
            ErrorCode::LockTimeout
        }
        SessionError::Engine(EngineError::RowNotFound { .. }) => ErrorCode::RowNotFound,
        SessionError::Engine(EngineError::TxnFinished)
        | SessionError::NoActiveTxn
        | SessionError::TxnAlreadyActive => ErrorCode::TxnState,
    };
    Frame::Error {
        code,
        detail: e.to_string(),
    }
}

/// Render the metrics snapshot as a wire reply.
fn metrics_reply(snap: MetricsSnapshot) -> Frame {
    let counters = snap.counters.into_iter().collect();
    let histograms = snap
        .histograms
        .into_iter()
        .map(|(name, h)| {
            (
                name,
                HistSummary {
                    count: h.count,
                    sum: h.sum,
                    p50: h.p50(),
                    p95: h.p95(),
                    p99: h.p99(),
                    p999: h.p999(),
                },
            )
        })
        .collect();
    Frame::MetricsSnapshot {
        counters,
        histograms,
    }
}

/// Classify a BEGIN as predicted-hot for the admission defer gate. The
/// wire protocol declares no key sample, so the classification is the
/// transaction type's learned conflict rate alone; always cold when the
/// engine runs a non-predictive policy.
fn begin_is_hot(shared: &Shared, ty: TxnType) -> bool {
    shared
        .engine
        .predictor()
        .is_some_and(|p| p.is_hot(p.predict(ty, &[])))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpd_common::dist::ServiceTime;
    use tpd_common::DiskConfig;
    use tpd_engine::{EngineConfig, Policy};

    fn txn_state(step: Step) -> bool {
        matches!(
            step,
            Step::Reply(Frame::Error {
                code: ErrorCode::TxnState,
                ..
            })
        )
    }

    /// The request core without sockets: the step each frame maps to,
    /// and the admission permit's lifetime across `begin`/`execute`.
    #[test]
    fn request_core_steps_and_permit_lifetime() {
        let disk = DiskConfig {
            service: ServiceTime::Fixed(10_000),
            ns_per_byte: 0.0,
            seed: 1,
        };
        let engine = Engine::new(EngineConfig {
            data_disk: disk.clone(),
            log_disks: vec![disk],
            seed: 1,
            ..EngineConfig::mysql(Policy::Fcfs)
        });
        let table = engine.catalog().create_table("t", 8);
        let shared = Shared::new(engine.clone(), ServerConfig::default());
        let mut session = Session::new(engine.clone());
        let mut permit = None;
        let lock_acquires = || engine.metrics_snapshot().counters["lock.acquires"];

        let idle_metrics = step(&shared, false, Ok(Frame::Metrics));
        assert!(matches!(
            idle_metrics,
            Step::Reply(Frame::MetricsSnapshot { .. })
        ));

        // COMMIT with no transaction is answered without the engine.
        let acquires = lock_acquires();
        assert!(txn_state(step(&shared, false, Ok(Frame::Commit))));
        assert_eq!(lock_acquires(), acquires);

        let Step::Admit { ty, hot } = step(&shared, false, Ok(Frame::Begin { ty: 3 })) else {
            panic!("BEGIN on an idle session asks for admission");
        };
        assert_eq!((ty, hot), (3, false));
        let granted = shared.admission.admit_hot(hot).expect("a free slot");
        let begun = begin(&mut session, &mut permit, granted, ty);
        assert!(matches!(begun, Frame::TxnBegun { .. }));
        assert!(permit.is_some());
        assert!(txn_state(step(&shared, true, Ok(Frame::Begin { ty: 0 }))));

        let read = Frame::Read {
            table: table.0,
            key: 99,
        };
        let Step::Execute(frame) = step(&shared, true, Ok(read.clone())) else {
            panic!("a statement with a permit executes");
        };
        assert_eq!(frame, read);
        let missing = execute(&mut session, &mut permit, frame);
        assert!(matches!(
            missing,
            Frame::Error {
                code: ErrorCode::RowNotFound,
                ..
            }
        ));
        assert!(permit.is_some(), "RowNotFound leaves the transaction open");

        for bad in [Ok(Frame::Committed), Err(WireError::BadVersion { got: 9 })] {
            let errors = shared.protocol_errors.load(Ordering::Relaxed);
            assert!(matches!(
                step(&shared, true, bad),
                Step::Reply(Frame::Error {
                    code: ErrorCode::Malformed,
                    ..
                })
            ));
            assert_eq!(shared.protocol_errors.load(Ordering::Relaxed), errors + 1);
        }

        assert_eq!(
            execute(&mut session, &mut permit, Frame::Commit),
            Frame::Committed
        );
        assert!(permit.is_none());
        assert_eq!(shared.admission.in_flight(), 0, "COMMIT freed the slot");
    }

    #[test]
    fn server_mode_parses_both_names_and_rejects_junk() {
        assert_eq!("threads".parse::<ServerMode>(), Ok(ServerMode::Threads));
        assert_eq!("evented".parse::<ServerMode>(), Ok(ServerMode::Evented));
        assert!("epoll".parse::<ServerMode>().is_err());
        assert_eq!(ServerMode::Evented.to_string(), "evented");
    }

    #[test]
    fn accept_classifier_backs_off_on_fd_exhaustion() {
        for errno in [EMFILE, ENFILE] {
            let e = io::Error::from_raw_os_error(errno);
            assert_eq!(classify_accept_error(&e), AcceptDisposition::Backoff);
        }
    }

    #[test]
    fn accept_classifier_retries_per_connection_failures() {
        for kind in [
            io::ErrorKind::Interrupted,
            io::ErrorKind::ConnectionAborted,
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::WouldBlock,
        ] {
            let e = io::Error::new(kind, "transient");
            assert_eq!(classify_accept_error(&e), AcceptDisposition::Retry);
        }
    }

    #[test]
    fn accept_classifier_never_returns_a_fatal_disposition() {
        // Unknown errors must not kill the listener either — worst case
        // is a brief backoff.
        let e = io::Error::other("mystery");
        assert_eq!(classify_accept_error(&e), AcceptDisposition::Backoff);
    }
}
