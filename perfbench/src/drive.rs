//! Executors of one transaction attempt against the wire (`tpd_server::Conn`)
//! or the embedded engine (`Engine::begin` / `Txn`), and the closed- and
//! open-loop schedules that feed them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tpd_engine::{Engine, EngineError, TableId};
use tpd_server::{BeginOutcome, ClientError, Conn, WireTatp};

use crate::gen::{lane, Generator, Script, Stmt, Tbl};
use crate::trace::{Recorder, ROOT};

/// How one attempt of a transaction ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Attempt {
    Committed,
    /// Deadlock victim or lock-wait timeout, already rolled back: retry.
    Aborted,
    /// Refused by admission control (`RETRY_LATER`).
    Shed,
    /// Protocol or transport failure.
    Error(String),
}

/// Something that runs one attempt of a script, recording a span around
/// every call it makes into the layer it drives.
pub trait Executor: Send {
    fn attempt(&mut self, index: u64, script: &Script, rec: &mut Recorder, parent: u32) -> Attempt;
}

/// Attempts per transaction before it counts as failed. An engine abort
/// that succeeds on a later attempt is not an error.
pub const MAX_ATTEMPTS: u32 = 16;

/// Run a script to a terminal outcome: `Ok(retries)` once committed.
pub fn run_txn<E: Executor + ?Sized>(
    exec: &mut E,
    index: u64,
    script: &Script,
    rec: &mut Recorder,
    parent: u32,
) -> Result<u32, String> {
    for retries in 0..MAX_ATTEMPTS {
        match exec.attempt(index, script, rec, parent) {
            Attempt::Committed => return Ok(retries),
            Attempt::Aborted => continue,
            Attempt::Shed => return Err("shed by admission control".to_string()),
            Attempt::Error(e) => return Err(e),
        }
    }
    Err(format!("aborted {MAX_ATTEMPTS} times"))
}

/// One client connection to the server under test.
#[derive(Debug)]
pub struct WireExec {
    conn: Conn,
    tables: [u32; 4],
}

impl WireExec {
    pub fn connect(addr: std::net::SocketAddr, wire: &WireTatp) -> std::io::Result<WireExec> {
        let conn = Conn::connect(addr)?;
        conn.set_read_timeout(Some(Duration::from_secs(20)))?;
        Ok(WireExec {
            conn,
            tables: [
                wire.subscriber,
                wire.access_info,
                wire.special_facility,
                wire.call_forwarding,
            ],
        })
    }

    fn body(
        &mut self,
        index: u64,
        script: &Script,
        rec: &mut Recorder,
        parent: u32,
    ) -> Result<(), ClientError> {
        let conn = &mut self.conn;
        for stmt in &script.stmts {
            match stmt {
                Stmt::Read { table, key } => {
                    let t = self.tables[*table as usize];
                    rec.call("server.read", parent, index, || conn.read(t, *key))?;
                }
                Stmt::Rmw {
                    table,
                    key,
                    col,
                    val,
                } => {
                    let t = self.tables[*table as usize];
                    let mut row = rec.call("server.read", parent, index, || conn.read(t, *key))?;
                    if let Some(cell) = row.get_mut(*col) {
                        *cell = *val;
                    }
                    rec.call("server.update", parent, index, || conn.update(t, *key, row))?;
                }
                Stmt::Insert { table, row } => {
                    let t = self.tables[*table as usize];
                    rec.call("server.insert", parent, index, || {
                        conn.insert(t, row.clone())
                    })?;
                }
            }
        }
        rec.call("server.commit", parent, index, || conn.commit())
    }
}

fn client_failure(e: ClientError) -> Attempt {
    if e.is_txn_abort() {
        Attempt::Aborted
    } else {
        Attempt::Error(e.to_string())
    }
}

impl Executor for WireExec {
    fn attempt(&mut self, index: u64, script: &Script, rec: &mut Recorder, parent: u32) -> Attempt {
        let conn = &mut self.conn;
        match rec.call("server.begin", parent, index, || conn.begin(script.ty)) {
            Ok(BeginOutcome::Started { .. }) => {}
            Ok(BeginOutcome::Shed) => return Attempt::Shed,
            Err(e) => return client_failure(e),
        }
        match self.body(index, script, rec, parent) {
            Ok(()) => Attempt::Committed,
            Err(e) => client_failure(e),
        }
    }
}

/// The same scripts run in-process against the engine, with no server.
#[derive(Debug, Clone)]
pub struct EngineExec {
    engine: Arc<Engine>,
    tables: [TableId; 4],
}

impl EngineExec {
    pub fn new(engine: Arc<Engine>, wire: &WireTatp) -> EngineExec {
        EngineExec {
            engine,
            tables: [
                TableId(wire.subscriber),
                TableId(wire.access_info),
                TableId(wire.special_facility),
                TableId(wire.call_forwarding),
            ],
        }
    }
}

fn engine_failure(e: EngineError) -> Attempt {
    match e {
        EngineError::Deadlock | EngineError::LockTimeout => Attempt::Aborted,
        other => Attempt::Error(other.to_string()),
    }
}

impl Executor for EngineExec {
    fn attempt(&mut self, index: u64, script: &Script, rec: &mut Recorder, parent: u32) -> Attempt {
        let engine = &self.engine;
        let mut txn = rec.call("engine.begin", parent, index, || engine.begin(script.ty));
        let table = |t: &Tbl| self.tables[*t as usize];
        for stmt in &script.stmts {
            let step = match stmt {
                Stmt::Read { table: t, key } => rec
                    .call("engine.read", parent, index, || txn.read(table(t), *key))
                    .map(drop),
                Stmt::Rmw {
                    table: t,
                    key,
                    col,
                    val,
                } => rec
                    .call("engine.read", parent, index, || txn.read(table(t), *key))
                    .and_then(|_| {
                        rec.call("engine.update", parent, index, || {
                            txn.update(table(t), *key, |r| {
                                if let Some(cell) = r.get_mut(*col) {
                                    *cell = *val;
                                }
                            })
                        })
                    }),
                Stmt::Insert { table: t, row } => rec
                    .call("engine.insert", parent, index, || {
                        txn.insert(table(t), row.clone())
                    })
                    .map(drop),
            };
            if let Err(e) = step {
                return engine_failure(e);
            }
        }
        match rec.call("engine.commit", parent, index, || txn.commit()) {
            Ok(()) => Attempt::Committed,
            Err(e) => engine_failure(e),
        }
    }
}

/// One transaction as its client saw it. Times are nanoseconds since the
/// loop started. In a closed loop `due == free == send`.
#[derive(Debug, Clone, Copy)]
pub struct Req {
    pub index: u64,
    pub write: bool,
    /// When the schedule said to send it.
    pub due: u64,
    /// When its client thread was free to send it.
    pub free: u64,
    /// When BEGIN left.
    pub send: u64,
    /// When the COMMIT ack (or the final failure) came back.
    pub ack: u64,
    pub committed: bool,
    pub retries: u32,
}

impl Req {
    /// Open-loop latency: due time to COMMIT ack, in ms.
    pub fn latency_ms(&self) -> f64 {
        (self.ack - self.due) as f64 / 1e6
    }

    /// How late the generator sent it against its schedule, beyond any
    /// wait for a busy client thread, in ms.
    pub fn late_ms(&self) -> f64 {
        self.send.saturating_sub(self.due.max(self.free)) as f64 / 1e6
    }
}

/// Everything one loop produced.
#[derive(Debug)]
pub struct LoopOut {
    pub reqs: Vec<Req>,
    /// Seconds from start to the last client thread finishing.
    pub elapsed: f64,
    /// Failure messages of transactions that never committed.
    pub errors: Vec<String>,
    pub recorders: Vec<Recorder>,
}

impl LoopOut {
    pub fn commits(&self) -> u64 {
        self.reqs.iter().filter(|r| r.committed).count() as u64
    }

    pub fn failed(&self) -> u64 {
        self.reqs.len() as u64 - self.commits()
    }

    pub fn retries(&self) -> u64 {
        self.reqs.iter().map(|r| r.retries as u64).sum()
    }

    /// Commits per second in each consecutive `window` of the loop. Only
    /// whole windows count.
    pub fn window_tps(&self, window: Duration) -> Vec<f64> {
        let w = window.as_nanos() as u64;
        let whole = ((self.elapsed * 1e9) as u64 / w) as usize;
        let mut counts = vec![0u64; whole];
        for r in self.reqs.iter().filter(|r| r.committed) {
            if let Some(c) = counts.get_mut((r.ack / w) as usize) {
                *c += 1;
            }
        }
        counts
            .iter()
            .map(|&c| c as f64 / window.as_secs_f64())
            .collect()
    }

    /// Latencies in ms of committed transactions that write (or do not),
    /// in order of due time.
    pub fn latencies_in_order(&self, write: bool) -> Vec<f64> {
        let mut picked: Vec<&Req> = self
            .reqs
            .iter()
            .filter(|r| r.committed && r.write == write)
            .collect();
        picked.sort_by_key(|r| r.due);
        picked.iter().map(|r| r.latency_ms()).collect()
    }

    /// Stream indices of committed transactions that wrote.
    pub fn acked_writes(&self) -> impl Iterator<Item = u64> + '_ {
        self.reqs
            .iter()
            .filter(|r| r.committed && r.write)
            .map(|r| r.index)
    }
}

/// When a closed loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    After(Duration),
    /// After this many transactions of the lane, shared by all client threads.
    Count(u64),
}

/// One closed-loop client per executor: each sends its next transaction
/// only after the previous one ends. All clients draw from one shared
/// position in `lane` of the stream.
pub fn closed_loop<E: Executor>(
    execs: &mut [E],
    gen: &Generator,
    lane_id: u64,
    stop: Stop,
    traced: bool,
) -> LoopOut {
    let next = AtomicU64::new(0);
    let epoch = Instant::now();
    let (limit, deadline) = match stop {
        Stop::After(d) => (u64::MAX, d.as_nanos() as u64),
        Stop::Count(n) => (n, u64::MAX),
    };
    run_threads(execs, epoch, traced, |exec, rec, out, errors| loop {
        if rec.now() >= deadline {
            break;
        }
        let k = next.fetch_add(1, Ordering::Relaxed);
        if k >= limit {
            break;
        }
        let index = lane::index(lane_id, k);
        let script = gen.script(index);
        let send = rec.now();
        let txn = rec.open("txn", ROOT, index);
        let result = run_txn(exec, index, &script, rec, txn);
        rec.close(txn);
        out.push(finish(
            index,
            &script,
            send,
            send,
            send,
            rec.now(),
            result,
            errors,
        ));
    })
}

/// Open loop: transaction `k` of `lane` is due `k / rate` seconds after the
/// start, whatever happened before. Executors are servers of one shared
/// queue: a free one takes the next due transaction, sleeping until it is
/// due, so a stall delays every transaction that comes due behind it.
pub fn open_loop<E: Executor>(
    execs: &mut [E],
    gen: &Generator,
    lane_id: u64,
    rate: f64,
    dur: Duration,
    traced: bool,
) -> LoopOut {
    let next = AtomicU64::new(0);
    let epoch = Instant::now();
    let end = dur.as_nanos() as u64;
    run_threads(execs, epoch, traced, |exec, rec, out, errors| loop {
        let k = next.fetch_add(1, Ordering::Relaxed);
        let due = (k as f64 * 1e9 / rate) as u64;
        if due >= end {
            break;
        }
        let free = rec.now();
        if due > free {
            std::thread::sleep(Duration::from_nanos(due - free));
        }
        let index = lane::index(lane_id, k);
        let script = gen.script(index);
        let request = rec.push("request", due, due, ROOT, index);
        let send = rec.now();
        rec.push("queue", due, send, request, index);
        let txn = rec.open("txn", request, index);
        let result = run_txn(exec, index, &script, rec, txn);
        rec.close(txn);
        rec.close(request);
        out.push(finish(
            index,
            &script,
            due,
            free,
            send,
            rec.now(),
            result,
            errors,
        ));
    })
}

#[allow(clippy::too_many_arguments)]
fn finish(
    index: u64,
    script: &Script,
    due: u64,
    free: u64,
    send: u64,
    ack: u64,
    result: Result<u32, String>,
    errors: &mut Vec<String>,
) -> Req {
    let (committed, retries) = match result {
        Ok(r) => (true, r),
        Err(e) => {
            errors.push(format!("txn {index:#x}: {e}"));
            (false, MAX_ATTEMPTS)
        }
    };
    Req {
        index,
        write: script.writes(),
        due,
        free,
        send,
        ack,
        committed,
        retries,
    }
}

/// Run `body` on one scoped thread per executor and gather the results.
fn run_threads<E, F>(execs: &mut [E], epoch: Instant, traced: bool, body: F) -> LoopOut
where
    E: Executor,
    F: Fn(&mut E, &mut Recorder, &mut Vec<Req>, &mut Vec<String>) + Sync,
{
    let body = &body;
    let parts: Vec<(Vec<Req>, Vec<String>, Recorder)> = std::thread::scope(|s| {
        let handles: Vec<_> = execs
            .iter_mut()
            .map(|exec| {
                s.spawn(move || {
                    crate::pin::pin_current_thread(crate::pin::CLIENT_CPU);
                    let mut rec = Recorder::new(epoch, traced);
                    let mut out = Vec::new();
                    let mut errors = Vec::new();
                    body(exec, &mut rec, &mut out, &mut errors);
                    (out, errors, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = epoch.elapsed().as_secs_f64();
    let mut out = LoopOut {
        reqs: Vec::new(),
        elapsed,
        errors: Vec::new(),
        recorders: Vec::new(),
    };
    for (reqs, errors, rec) in parts {
        out.reqs.extend(reqs);
        out.errors.extend(errors);
        out.recorders.push(rec);
    }
    out
}
