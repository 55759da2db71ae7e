//! The test bed: the real server started in-process through the public
//! bring-up, its client connections, the client-side tally, and the
//! correctness checks run after shutdown.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tpd_bench::netbench::{served_engine, start_tatp_server, NetArgs};
use tpd_engine::{Engine, TableId};
use tpd_server::{ServerHandle, ServerMode, WireTatp};

use crate::drive::{closed_loop, LoopOut, Stop, WireExec};
use crate::gen::{index_of, lane, Generator, Workload};

/// Client connections, one client thread each.
pub const CONNS: usize = 2;
/// Warm-up transactions run before the first timed request.
pub const WARMUP_TXNS: u64 = 2_000;

/// The engine seed is fixed: only the workload seed varies between runs.
const ENGINE_SEED: u64 = 42;

/// What the clients saw commit, for the checks against the server.
#[derive(Debug, Default)]
pub struct Tally {
    pub commits: u64,
    pub write_commits: u64,
    pub acked_writes: HashSet<u64>,
}

impl Tally {
    pub fn add(&mut self, out: &LoopOut) {
        self.commits += out.commits();
        for index in out.acked_writes() {
            self.write_commits += 1;
            self.acked_writes.insert(index);
        }
    }
}

/// A running server with its clients.
pub struct Bed {
    pub engine: Arc<Engine>,
    pub handle: ServerHandle,
    pub wire: WireTatp,
    pub conns: Vec<WireExec>,
    pub tally: Tally,
}

impl Bed {
    /// Build the engine, install the schema, start the server with front
    /// end `mode`, connect and warm up. Returns the bed and the seconds this
    /// took.
    pub fn up(
        w: &Workload,
        mode: ServerMode,
        gen: &Generator,
        rep: u64,
    ) -> Result<(Bed, f64), String> {
        let t0 = Instant::now();
        let args = NetArgs {
            subscribers: w.subscribers,
            mode,
            seed: ENGINE_SEED,
            ..NetArgs::default()
        };
        let (engine, handle, wire) =
            start_tatp_server(&args, None).map_err(|e| format!("start server: {e}"))?;
        let conns = (0..CONNS)
            .map(|_| WireExec::connect(handle.local_addr(), &wire))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect: {e}"))?;
        let mut bed = Bed {
            engine,
            handle,
            wire,
            conns,
            tally: Tally::default(),
        };
        let warm = closed_loop(
            &mut bed.conns,
            gen,
            lane::WARMUP + rep * lane::ROUND,
            Stop::Count(WARMUP_TXNS),
            false,
        );
        bed.tally.add(&warm);
        if let Some(e) = warm.errors.first() {
            return Err(format!("warm-up: {e}"));
        }
        Ok((bed, t0.elapsed().as_secs_f64()))
    }

    /// Close the clients and stop the server; returns the failed checks:
    /// the client commit tally equals the server's `txn.commits`, no
    /// protocol errors, and no lock or snapshot pin outlives the clients.
    pub fn shutdown(&mut self) -> Vec<String> {
        self.conns.clear();
        self.handle.shutdown();
        let mut failed = Vec::new();
        let server_commits = self.engine.stats().commits;
        if server_commits != self.tally.commits {
            failed.push(format!(
                "clients saw {} commits, server counted txn.commits={server_commits}",
                self.tally.commits
            ));
        }
        let protocol_errors = self.handle.protocol_errors();
        if protocol_errors != 0 {
            failed.push(format!("server counted {protocol_errors} protocol errors"));
        }
        failed.extend(self.quiescent());
        failed
    }

    /// No lock-queue entry and no snapshot pin is left.
    pub fn quiescent(&self) -> Vec<String> {
        let mut failed = Vec::new();
        let outstanding = self.engine.locks().outstanding();
        if outstanding != (0, 0) {
            failed.push(format!("locks outstanding after shutdown: {outstanding:?}"));
        }
        let pins = self.engine.active_snapshots();
        if pins != 0 {
            failed.push(format!("{pins} snapshot pins outstanding after shutdown"));
        }
        failed
    }

    /// Replay the records the WAL holds as durable into a fresh engine
    /// with empty tables, through `Engine::recover_from`, at least once and
    /// until `min_total` has passed; returns the seconds each replay took
    /// and the failed checks of the first. The served engine's simulated log
    /// device keeps its records in memory, so this is what a restart
    /// replays.
    pub fn recover(&self, min_total: Duration) -> (Vec<f64>, Vec<String>) {
        let records = self.engine.simulate_crash();
        let mut times = Vec::new();
        let mut failed = Vec::new();
        let started = Instant::now();
        while times.is_empty() || started.elapsed() < min_total {
            let t0 = Instant::now();
            let engine = served_engine(ENGINE_SEED);
            for i in 0..self.engine.catalog().len() {
                let t = self.engine.catalog().table(TableId(i as u32));
                engine.catalog().create_table(&t.name, t.rows_per_page);
            }
            let report = engine.recover_from(&records);
            times.push(t0.elapsed().as_secs_f64());
            if times.len() == 1 {
                failed.extend(self.check_recovered(&engine, report.committed_txns));
            }
        }
        (times, failed)
    }

    /// The reopened state equals the state the server held at shutdown,
    /// every written cell names an acknowledged transaction, and the log
    /// holds exactly one commit per acknowledged writing transaction.
    fn check_recovered(&self, recovered: &Engine, committed: u64) -> Vec<String> {
        let mut failed = Vec::new();
        if committed != self.tally.write_commits {
            failed.push(format!(
                "recovery found {committed} committed writers, clients acked {}",
                self.tally.write_commits
            ));
        }
        let (live, back) = (self.engine.catalog(), recovered.catalog());
        for i in 0..live.len() {
            let (lt, bt) = (live.table(TableId(i as u32)), back.table(TableId(i as u32)));
            let keys = bt.range_keys(0, u64::MAX, usize::MAX);
            let mut bad = 0u64;
            for key in keys {
                let (l, b) = (lt.get(key), bt.get(key));
                let unacked = b
                    .iter()
                    .flatten()
                    .any(|&v| index_of(v).is_some_and(|i| !self.tally.acked_writes.contains(&i)));
                if l != b || unacked {
                    bad += 1;
                }
            }
            if bad > 0 {
                failed.push(format!(
                    "table {}: {bad} recovered rows differ from the shutdown state or hold unacked writes",
                    lt.name
                ));
            }
        }
        failed
    }
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
