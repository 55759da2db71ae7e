//! The evented front end: one reactor thread multiplexing nonblocking
//! sockets over [`tpd_common::poll::Poller`], per-connection state
//! machines, and a bounded worker pool as the execution stage.
//!
//! # Architecture
//!
//! ```text
//!                    ┌────────────────────────────────────────┐
//!    accept ───────▶ │  reactor thread (epoll/poll readiness) │
//!    nonblocking     │  per-conn: read-accumulate → split     │
//!    sockets         │  → step → write-drain                  │
//!                    └───────┬───────────────────▲────────────┘
//!                            │ Job{session,      │ Resume::Done /
//!                            │     permit,frame} │ Resume::Admitted
//!                            ▼                   │ (+ Waker)
//!                    ┌───────────────────────────┴────────────┐
//!                    │  bounded worker pool (≥ admission      │
//!                    │  slots ⇒ permit holders never starve)  │
//!                    └────────────────────────────────────────┘
//! ```
//!
//! The reactor owns every connection's buffers and its [`Session`]
//! while the connection is at rest. It splits frames off the read
//! buffer with [`crate::protocol::split_frame`] and hands each to the
//! request core ([`crate::server`]'s `step`), which decides what the
//! frame means; the reactor only decides where each step runs:
//!
//! * `Step::Reply` (METRICS, state errors, malformed frames) is
//!   answered inline: it cannot block.
//! * `Step::Admit` (BEGIN) never blocks either: it uses
//!   [`AdmissionController::try_admit_or_enqueue_hot`] and, when no
//!   slot is free, parks the connection in `awaiting`; the grant
//!   callback posts `Resume::Admitted` and wakes the poller.
//! * `Step::Execute` — the only step that can block, on engine locks
//!   or the log — goes to the worker pool. Exactly one operation per
//!   connection is in flight at a time: the session **and the
//!   admission permit move into the job**, the connection is marked
//!   `executing`, and no further frames are split for it until the
//!   worker posts `Resume::Done` back (returning the session, the
//!   reply, and the permit — unless the frame ended the transaction,
//!   in which case the worker dropped the permit and the slot is
//!   already free).
//!
//! The core executes only frames from permit-holding sessions, so with
//! the default pool size of one worker per admission slot every
//! admitted transaction can always occupy a worker, and COMMIT frames
//! cannot starve behind lock waits.
//!
//! The reactor enforces the admission queue deadline itself (periodic
//! sweep + [`AdmissionController::cancel`], answered with the core's
//! shed reply), and the same sweep applies the per-connection idle
//! deadline that reclaims sessions and permits from half-open clients.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use tpd_common::poll::{Interest, PollEvent, Poller, Token, Waker};
use tpd_engine::{Session, TxnType};
use tpd_metrics::{Counter, Histogram};

#[allow(unused_imports)] // doc links
use crate::admission::AdmissionController;
use crate::admission::{AdmitAttempt, Permit, Shed};
use crate::protocol::{split_frame, Frame, Split};
use crate::server::{
    accept_with_faults, begin, classify_accept_error, execute, reject_over_limit, shed_reply, step,
    AcceptDisposition, Shared, Step, ACCEPT_BACKOFF,
};

/// Token for the listening socket (`usize::MAX` is the poller's waker).
const LISTENER: Token = Token(usize::MAX - 1);
/// Per-read chunk size.
const READ_CHUNK: usize = 16 * 1024;
/// While a worker owns the session, stop reading once this much input
/// is buffered (backpressure against pipelining floods).
const RBUF_PAUSE: usize = 64 * 1024;
/// Deadline sweep granularity (idle + admission deadlines resolve to
/// within one sweep).
const SWEEP_EVERY: Duration = Duration::from_millis(20);

/// Work shipped to the pool: a [`Step::Execute`] frame plus ownership
/// of the session and the admission permit for the duration of the
/// execution.
struct Job {
    idx: usize,
    gen: u64,
    frame: Frame,
    session: Session,
    permit: Option<Permit>,
}

/// Completion posted back to the reactor (paired with a waker kick).
/// The variants' sizes are lopsided (a `Session` rides along in
/// `Done`), but these are short-lived and never accumulate beyond the
/// in-flight job count — boxing would just add a hop.
#[allow(clippy::large_enum_variant)]
enum Resume {
    /// A worker finished an in-transaction frame. `permit` is `None`
    /// when the frame ended the transaction (slot already released).
    Done {
        idx: usize,
        gen: u64,
        reply: Frame,
        session: Session,
        permit: Option<Permit>,
    },
    /// A queued BEGIN won its admission slot.
    Admitted {
        idx: usize,
        gen: u64,
        permit: Permit,
    },
}

/// Minimal closeable MPMC job queue (std `mpsc::Receiver` is single-
/// consumer; the pool needs many).
struct JobQueue {
    inner: Mutex<JobQueueInner>,
    cv: Condvar,
}

struct JobQueueInner {
    q: VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    fn new() -> Self {
        JobQueue {
            inner: Mutex::new(JobQueueInner {
                q: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn push(&self, job: Job) {
        self.inner.lock().q.push_back(job);
        self.cv.notify_one();
    }

    /// After close, remaining jobs still drain; then `pop` returns `None`.
    fn close(&self) {
        self.inner.lock().closed = true;
        self.cv.notify_all();
    }

    fn pop(&self) -> Option<Job> {
        let mut inner = self.inner.lock();
        loop {
            if let Some(job) = inner.q.pop_front() {
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            self.cv.wait(&mut inner);
        }
    }
}

/// Admission wait state for a connection parked on BEGIN.
struct AwaitState {
    ticket: u64,
    ty: TxnType,
    deadline: Instant,
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    fd: RawFd,
    /// `None` while a worker owns the session (`executing`).
    session: Option<Session>,
    /// Held from BEGIN to COMMIT/ABORT/disconnect.
    permit: Option<Permit>,
    /// A worker owns this connection's session right now.
    executing: bool,
    /// Parked on BEGIN waiting for an admission slot.
    awaiting: Option<AwaitState>,
    /// Torn down, but the slot is parked until the worker returns the
    /// session (we must not free the admission slot out from under it).
    dead: bool,
    /// A poison frame (length-prefix desync) was answered; close once
    /// the write buffer drains.
    close_after_drain: bool,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    interest: Interest,
    last_activity: Instant,
    write_stall_since: Option<Instant>,
}

pub(crate) struct Reactor {
    shared: Arc<Shared>,
    poller: Poller,
    listener: TcpListener,
    conns: Vec<Option<Conn>>,
    /// Per-slot generation, bumped on free; stale `Resume`s are dropped.
    gens: Vec<u64>,
    free: Vec<usize>,
    resumes: Arc<Mutex<Vec<Resume>>>,
    waker: Waker,
    jobs: Arc<JobQueue>,
    /// EMFILE backoff: the listener is deregistered until this instant.
    accept_paused_until: Option<Instant>,
    wakeups: Arc<Counter>,
    write_stall_ns: Arc<Histogram>,
    idle_reaped: Arc<Counter>,
}

/// Spawn the reactor thread plus its worker pool. Returns the reactor
/// join handle and a waker that interrupts its poll wait (used by
/// shutdown).
pub(crate) fn spawn(
    listener: TcpListener,
    shared: Arc<Shared>,
) -> io::Result<(JoinHandle<()>, Waker)> {
    if shared.engine.profiler().is_collecting() {
        // Profiler trace attribution is per-thread; the worker pool
        // moves statement execution across threads.
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "evented mode cannot serve an engine whose profiler is collecting",
        ));
    }
    listener.set_nonblocking(true)?;
    let poller = Poller::new()?;
    poller.register(listener.as_raw_fd(), LISTENER, Interest::READ)?;
    let waker = poller.waker();
    let resumes: Arc<Mutex<Vec<Resume>>> = Arc::new(Mutex::new(Vec::new()));
    let jobs = Arc::new(JobQueue::new());
    let n_workers = if shared.config.workers == 0 {
        shared.config.admission.slots.max(1)
    } else {
        shared.config.workers
    };
    let mut workers = Vec::with_capacity(n_workers);
    for i in 0..n_workers {
        let jq = jobs.clone();
        let rs = resumes.clone();
        let wk = waker.clone();
        workers.push(
            std::thread::Builder::new()
                .name(format!("tpd-worker-{i}"))
                .spawn(move || worker_loop(&jq, &rs, &wk))?,
        );
    }
    let registry = shared.engine.metrics_registry();
    let wakeups = registry.counter("server.reactor_wakeups");
    let write_stall_ns = registry.histogram("server.write_stall_ns");
    let idle_reaped = registry.counter("server.idle_reaped_total");
    let ret_waker = waker.clone();
    let reactor = Reactor {
        shared,
        poller,
        listener,
        conns: Vec::new(),
        gens: Vec::new(),
        free: Vec::new(),
        resumes,
        waker,
        jobs,
        accept_paused_until: None,
        wakeups,
        write_stall_ns,
        idle_reaped,
    };
    let t = std::thread::Builder::new()
        .name("tpd-reactor".to_string())
        .spawn(move || reactor.run(workers))?;
    Ok((t, ret_waker))
}

fn worker_loop(jobs: &JobQueue, resumes: &Mutex<Vec<Resume>>, waker: &Waker) {
    while let Some(job) = jobs.pop() {
        let Job {
            idx,
            gen,
            frame,
            mut session,
            mut permit,
        } = job;
        // A transaction that ends frees its slot here, from the worker:
        // the next admission grant (sync wakeup or async callback) fires
        // immediately, not a reactor tick later.
        let reply = execute(&mut session, &mut permit, frame);
        resumes.lock().push(Resume::Done {
            idx,
            gen,
            reply,
            session,
            permit,
        });
        waker.wake();
    }
}

impl Reactor {
    fn run(mut self, workers: Vec<JoinHandle<()>>) {
        let mut events: Vec<PollEvent> = Vec::new();
        let mut next_sweep = Instant::now() + SWEEP_EVERY;
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let now = Instant::now();
            let timeout = next_sweep.saturating_duration_since(now).min(SWEEP_EVERY);
            let _ = self.poller.wait(&mut events, Some(timeout));
            self.wakeups.inc();
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            self.drain_resumes();
            for ev in events.drain(..) {
                if ev.token == LISTENER {
                    self.accept_ready();
                } else {
                    self.conn_ready(ev);
                }
            }
            let now = Instant::now();
            if now >= next_sweep {
                self.sweep(now);
                next_sweep = now + SWEEP_EVERY;
            }
        }
        self.teardown(workers);
    }

    // ---- accept path ----

    fn accept_ready(&mut self) {
        if self.accept_paused_until.is_some() {
            return;
        }
        loop {
            match accept_with_faults(&self.listener, &self.shared) {
                Ok((stream, _)) => self.add_conn(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) => {
                    self.shared.accept_errs.inc();
                    match classify_accept_error(&e) {
                        AcceptDisposition::Retry => continue,
                        AcceptDisposition::Backoff => {
                            // Deregister so level-triggered readiness
                            // doesn't spin us; the sweep re-registers
                            // once the backoff elapses.
                            self.accept_paused_until = Some(Instant::now() + ACCEPT_BACKOFF);
                            let _ = self.poller.deregister(self.listener.as_raw_fd());
                            return;
                        }
                    }
                }
            }
        }
    }

    fn add_conn(&mut self, stream: TcpStream) {
        if self.shared.open_conns.load(Ordering::SeqCst) >= self.shared.config.max_conns as u64 {
            reject_over_limit(&stream, &self.shared);
            return; // drop ⇒ close
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        if self.shared.config.nodelay {
            let _ = stream.set_nodelay(true);
        }
        let fd = stream.as_raw_fd();
        let conn = Conn {
            stream,
            fd,
            session: Some(Session::new(self.shared.engine.clone())),
            permit: None,
            executing: false,
            awaiting: None,
            dead: false,
            close_after_drain: false,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            interest: Interest::READ,
            last_activity: Instant::now(),
            write_stall_since: None,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.conns[i] = Some(conn);
                i
            }
            None => {
                self.conns.push(Some(conn));
                self.gens.push(0);
                self.conns.len() - 1
            }
        };
        if self
            .poller
            .register(fd, Token(idx), Interest::READ)
            .is_err()
        {
            self.conns[idx] = None;
            self.free.push(idx);
            self.gens[idx] += 1;
            return;
        }
        self.shared.open_conns.fetch_add(1, Ordering::SeqCst);
        self.shared.conns_opened.fetch_add(1, Ordering::Relaxed);
    }

    // ---- connection I/O ----

    fn conn_ready(&mut self, ev: PollEvent) {
        let idx = ev.token.0;
        if self.conns.get(idx).is_none_or(Option::is_none) {
            return;
        }
        if ev.writable {
            self.flush_writes(idx);
        }
        if ev.readable || ev.hangup || ev.error {
            self.read_ready(idx);
        }
    }

    fn read_ready(&mut self, idx: usize) {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            let Some(conn) = self.conns[idx].as_mut() else {
                return;
            };
            if conn.dead || conn.close_after_drain {
                return;
            }
            if conn.executing && conn.rbuf.len() >= RBUF_PAUSE {
                break; // backpressure; interest update pauses reads
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    // EOF — clean FIN or drained RST: tear down (the
                    // session drop rolls back, the permit drop frees
                    // the slot).
                    self.close_conn(idx);
                    return;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&chunk[..n]);
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Hard error (ECONNRESET et al.).
                    self.close_conn(idx);
                    return;
                }
            }
        }
        self.process_rbuf(idx);
        self.update_interest(idx);
    }

    /// Split and carry out complete frames; stops at partial input, at
    /// an operation in flight (one per connection), or at a poisoned
    /// stream.
    fn process_rbuf(&mut self, idx: usize) {
        loop {
            let Some(conn) = self.conns[idx].as_mut() else {
                return;
            };
            if conn.dead || conn.close_after_drain || conn.executing || conn.awaiting.is_some() {
                return;
            }
            let decoded = match split_frame(&conn.rbuf) {
                Split::Incomplete => return,
                Split::Frame(n, decoded) => {
                    conn.rbuf.drain(..n);
                    decoded
                }
                Split::Poison(e) => {
                    // Answer, then close once the reply drains.
                    conn.close_after_drain = true;
                    Err(e)
                }
            };
            match step(&self.shared, conn.permit.is_some(), decoded) {
                Step::Reply(reply) => self.queue_reply(idx, reply),
                Step::Admit { ty, hot } => self.admit(idx, ty, hot),
                Step::Execute(frame) => {
                    // Ship session + permit to the pool; nothing else
                    // runs on this connection until Resume::Done.
                    conn.executing = true;
                    self.jobs.push(Job {
                        idx,
                        gen: self.gens[idx],
                        frame,
                        session: conn.session.take().expect("idle conn owns session"),
                        permit: conn.permit.take(),
                    });
                }
            }
        }
    }

    /// Carry out [`Step::Admit`] without blocking: begin now if a slot
    /// is free, else park the connection until `Resume::Admitted`.
    fn admit(&mut self, idx: usize, ty: TxnType, hot: bool) {
        let gen = self.gens[idx];
        let resumes = self.resumes.clone();
        let waker = self.waker.clone();
        let attempt = self.shared.admission.try_admit_or_enqueue_hot(
            Box::new(move |permit| {
                resumes.lock().push(Resume::Admitted { idx, gen, permit });
                waker.wake();
            }),
            hot,
        );
        let conn = self.conns[idx].as_mut().expect("admitting conn is live");
        let reply = match attempt {
            AdmitAttempt::Admitted(granted) => begin(
                conn.session.as_mut().expect("idle conn owns session"),
                &mut conn.permit,
                granted,
                ty,
            ),
            AdmitAttempt::Queued(ticket) => {
                conn.awaiting = Some(AwaitState {
                    ticket,
                    ty,
                    deadline: Instant::now() + self.shared.config.admission.queue_deadline,
                });
                return;
            }
            AdmitAttempt::Shed(shed) => shed_reply(shed),
        };
        self.queue_reply(idx, reply);
    }

    fn queue_reply(&mut self, idx: usize, frame: Frame) {
        if let Some(conn) = self.conns[idx].as_mut() {
            frame.encode(&mut conn.wbuf);
        }
        self.flush_writes(idx);
    }

    fn flush_writes(&mut self, idx: usize) {
        let closed = loop {
            let Some(conn) = self.conns[idx].as_mut() else {
                return;
            };
            if conn.dead {
                return;
            }
            if conn.wpos >= conn.wbuf.len() {
                conn.wbuf.clear();
                conn.wpos = 0;
                if let Some(since) = conn.write_stall_since.take() {
                    self.write_stall_ns
                        .record(since.elapsed().as_nanos() as u64);
                }
                break conn.close_after_drain;
            }
            match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => break true,
                Ok(n) => conn.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if conn.write_stall_since.is_none() {
                        conn.write_stall_since = Some(Instant::now());
                    }
                    self.update_interest(idx);
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break true,
            }
        };
        if closed {
            self.close_conn(idx);
        } else {
            self.update_interest(idx);
        }
    }

    /// Reconcile the poller registration with what the connection
    /// currently needs: reads unless backpressured, writes only while
    /// the write buffer has a backlog.
    fn update_interest(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        if conn.dead {
            return;
        }
        let want = Interest {
            readable: !(conn.executing && conn.rbuf.len() >= RBUF_PAUSE),
            writable: conn.wpos < conn.wbuf.len(),
        };
        if want != conn.interest && self.poller.reregister(conn.fd, Token(idx), want).is_ok() {
            conn.interest = want;
        }
    }

    // ---- resumes from workers and admission grants ----

    fn drain_resumes(&mut self) {
        let batch: Vec<Resume> = std::mem::take(&mut *self.resumes.lock());
        for resume in batch {
            match resume {
                Resume::Done {
                    idx,
                    gen,
                    reply,
                    session,
                    permit,
                } => {
                    if self.gens.get(idx) != Some(&gen) {
                        // Slot recycled: the conn died and was freed.
                        // Dropping session/permit rolls back + releases.
                        continue;
                    }
                    let freed = {
                        let Some(conn) = self.conns[idx].as_mut() else {
                            continue;
                        };
                        conn.executing = false;
                        conn.session = Some(session);
                        conn.permit = permit;
                        conn.last_activity = Instant::now();
                        conn.dead
                    };
                    if freed {
                        // Torn down mid-execution; now that the worker
                        // has returned the session, finish the job:
                        // drop session (rollback) + permit (release).
                        self.free_slot(idx);
                        continue;
                    }
                    self.queue_reply(idx, reply);
                    // Pipelined frames may already be buffered.
                    self.process_rbuf(idx);
                    self.update_interest(idx);
                }
                Resume::Admitted { idx, gen, permit } => {
                    // A recycled slot, or a connection no longer waiting
                    // (closing takes `awaiting`): the permit drops here,
                    // freeing the slot.
                    if self.gens.get(idx) != Some(&gen) {
                        continue;
                    }
                    let Some(conn) = self.conns[idx].as_mut() else {
                        continue;
                    };
                    let Some(aw) = conn.awaiting.take() else {
                        continue;
                    };
                    let reply = begin(
                        conn.session.as_mut().expect("idle conn owns session"),
                        &mut conn.permit,
                        permit,
                        aw.ty,
                    );
                    self.queue_reply(idx, reply);
                    self.process_rbuf(idx);
                    self.update_interest(idx);
                }
            }
        }
    }

    // ---- lifecycle ----

    /// Tear down a connection. If a worker currently owns its session,
    /// the slot is parked (`dead`) until `Resume::Done` returns it;
    /// otherwise the slot is freed immediately (dropping the session
    /// rolls back, dropping the permit releases the admission slot).
    fn close_conn(&mut self, idx: usize) {
        let executing = {
            let Some(conn) = self.conns[idx].as_mut() else {
                return;
            };
            let _ = self.poller.deregister(conn.fd);
            if let Some(aw) = conn.awaiting.take() {
                // Not counted as a shed: the client left, it wasn't
                // pushed out. A racing grant is handled when the
                // Admitted resume finds the slot dead/recycled.
                let _ = self.shared.admission.cancel(aw.ticket, false);
            }
            if conn.executing {
                conn.dead = true;
                let _ = conn.stream.shutdown(Shutdown::Both);
                true
            } else {
                false
            }
        };
        if !executing {
            self.free_slot(idx);
        }
    }

    fn free_slot(&mut self, idx: usize) {
        if self.conns[idx].take().is_some() {
            self.gens[idx] += 1;
            self.free.push(idx);
            self.shared.open_conns.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Periodic deadline pass: admission-queue deadlines, idle
    /// (half-open reclamation) deadlines, and the accept backoff.
    fn sweep(&mut self, now: Instant) {
        enum Act {
            Nothing,
            ExpireAdmission(u64),
            ReapIdle,
        }
        for idx in 0..self.conns.len() {
            let act = match &self.conns[idx] {
                Some(conn) if !conn.dead => {
                    if let Some(aw) = &conn.awaiting {
                        if now >= aw.deadline {
                            Act::ExpireAdmission(aw.ticket)
                        } else {
                            Act::Nothing
                        }
                    } else if let Some(idle) = self.shared.config.read_timeout {
                        if !conn.executing && now.duration_since(conn.last_activity) >= idle {
                            Act::ReapIdle
                        } else {
                            Act::Nothing
                        }
                    } else {
                        Act::Nothing
                    }
                }
                _ => Act::Nothing,
            };
            match act {
                Act::Nothing => {}
                Act::ExpireAdmission(ticket) => {
                    // cancel() == false ⇒ the grant is already in
                    // flight; leave the conn parked, the Admitted
                    // resume is about to arrive.
                    if self.shared.admission.cancel(ticket, true) {
                        if let Some(conn) = self.conns[idx].as_mut() {
                            conn.awaiting = None;
                        }
                        self.queue_reply(idx, shed_reply(Shed::DeadlineExpired));
                        self.process_rbuf(idx);
                    }
                }
                Act::ReapIdle => {
                    // Half-open / slow-loris client: reclaim the
                    // session (rollback) and the admission permit.
                    self.idle_reaped.inc();
                    self.close_conn(idx);
                }
            }
        }
        if let Some(until) = self.accept_paused_until {
            if now >= until {
                self.accept_paused_until = None;
                if self
                    .poller
                    .register(self.listener.as_raw_fd(), LISTENER, Interest::READ)
                    .is_ok()
                {
                    self.accept_ready();
                }
            }
        }
    }

    fn teardown(mut self, workers: Vec<JoinHandle<()>>) {
        // Let in-flight jobs finish (their sessions come back through
        // the resume queue), then stop the pool.
        self.jobs.close();
        for w in workers {
            let _ = w.join();
        }
        // Dropping the final resumes rolls back returned sessions and
        // releases their permits.
        drop(std::mem::take(&mut *self.resumes.lock()));
        for idx in 0..self.conns.len() {
            if self.conns[idx].take().is_some() {
                self.shared.open_conns.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}
