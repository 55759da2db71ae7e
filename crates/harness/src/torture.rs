//! The seeded torture driver.
//!
//! One OS thread, `sessions` logical sessions, a virtual clock. The driver
//! interleaves *statements* from concurrent transactions at seeded points,
//! records every operation, periodically crashes the engine
//! ([`Engine::simulate_crash`]) and recovers into a fresh one, and audits:
//!
//! * **durability** — every commit whose acknowledgement implied
//!   durability (eager flush, or a lazy commit followed by a flush) must
//!   survive the crash;
//! * **recovery correctness** — the recovered state must equal the
//!   epoch-start checkpoint plus exactly the writes of the transactions
//!   the durable log prefix committed, in order;
//! * **serializability** — each epoch's committed history must be
//!   cycle-free (see [`crate::checker`]).
//!
//! Determinism: the only timing source is the virtual clock, all
//! scheduling randomness comes from one seeded RNG, and conflicting lock
//! requests fail immediately (`lock_timeout = 0`) instead of blocking on
//! wall-clock waits. Same seed ⇒ identical operation history, digest, and
//! verdict — a failing seed is a replayable artifact.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use tpd_common::clock::VirtualClock;
use tpd_common::dist::ServiceTime;
use tpd_common::FaultPlan;
use tpd_engine::{Concurrency, DiskBackend, Engine, EngineConfig, Policy, TableId, Txn};
use tpd_metrics::MetricsSnapshot;
use tpd_wal::{AppendMode, FlushPolicy, WalFaultPlan};
use tpd_workloads::{install_torture_schema, TortureMix, TortureOp, TortureTxn};

use crate::checker::{self, CheckerViolation};
use crate::history::{digest, encode_value, OpKind, OpRecord};

/// Torture-run parameters.
#[derive(Debug, Clone)]
pub struct TortureConfig {
    /// Master seed: drives scheduling, plans, faults, and abort decisions.
    pub seed: u64,
    /// Transactions to complete (commit or abort) before stopping.
    pub txns: u64,
    /// Concurrent logical sessions.
    pub sessions: usize,
    /// Crash + recover every this many completed transactions (0 = never).
    pub crash_every: u64,
    /// For lazy flush policies: flush the WAL every this many completed
    /// transactions (0 = never). Ignored under eager flush.
    pub flush_every: u64,
    /// Probability a transaction voluntarily aborts instead of committing.
    pub abort_prob: f64,
    /// Inject device faults (stalls, latency spikes) and torn WAL tails.
    pub faults: bool,
    /// Redo flush policy under test.
    pub flush_policy: FlushPolicy,
    /// Transaction shape mix.
    pub mix: TortureMix,
    /// Concurrency-control mode under test: strict 2PL (default) or
    /// snapshot reads over version chains (`mvcc`). Both must pass the
    /// same serializability checker.
    pub concurrency: Concurrency,
    /// Seeded bug: skip all lock acquisition (the checker must catch the
    /// resulting anomalies).
    pub skip_locking: bool,
    /// Seeded bug: mvcc snapshot reads ignore visibility and return the
    /// newest (possibly uncommitted) version — the checker must catch the
    /// dirty/non-repeatable reads. Only meaningful with
    /// [`Concurrency::Mvcc`].
    pub chaos_snapshots: bool,
    /// Seeded bug: acknowledge commits before the WAL flush completes (the
    /// durability audit must catch the loss after a crash).
    pub ack_before_flush: bool,
    /// Simulated client round trip before each statement. Under the
    /// harness's virtual clock this is a deterministic logical-time bump
    /// drawn from each transaction's seeded RNG, so enabling it must not
    /// perturb replay determinism.
    pub statement_rtt: Option<ServiceTime>,
    /// WAL append path under test (mutex vs reserve-then-copy).
    pub wal_append: AppendMode,
    /// Parallel redo logs (MySQL personality; either append mode).
    pub log_writers: usize,
    /// WAL device: [`DiskBackend::Sim`] (default; crashes are simulated
    /// via [`Engine::simulate_crash`]) or [`DiskBackend::File`] (real
    /// segment files under `data_dir`; a crash abandons the engine and
    /// recovery re-reads the segments, exactly like a process restart).
    pub disk_backend: DiskBackend,
    /// Segment directory for [`DiskBackend::File`]. Must start empty: the
    /// driver's audit model assumes the initial state is all zeros.
    pub data_dir: Option<PathBuf>,
    /// Lock scheduling policy under test. [`Policy::Predictive`] also
    /// makes the driver declare each transaction's planned keys at BEGIN
    /// so the conflict predictor has a footprint to score.
    pub lock_policy: Policy,
}

impl Default for TortureConfig {
    fn default() -> Self {
        TortureConfig {
            seed: 42,
            txns: 200,
            sessions: 4,
            crash_every: 60,
            flush_every: 7,
            abort_prob: 0.05,
            faults: false,
            flush_policy: FlushPolicy::Eager,
            mix: TortureMix::default(),
            concurrency: Concurrency::S2pl,
            skip_locking: false,
            chaos_snapshots: false,
            ack_before_flush: false,
            statement_rtt: None,
            wal_append: AppendMode::Lockfree,
            log_writers: 1,
            disk_backend: DiskBackend::Sim,
            data_dir: None,
            lock_policy: Policy::Fcfs,
        }
    }
}

/// A violation found by the torture run.
#[derive(Debug, Clone)]
pub enum TortureViolation {
    /// The epoch's committed history is not serializable (or shows G1
    /// anomalies).
    Serializability {
        /// Epoch the anomaly occurred in.
        epoch: u32,
        /// The checker finding.
        violation: CheckerViolation,
        /// Minimized trace: only the implicated transactions and keys.
        trace: Vec<String>,
    },
    /// An acknowledged-durable commit did not survive the crash.
    DurabilityLoss {
        /// Epoch of the crash.
        epoch: u32,
        /// Harness serial of the lost transaction.
        txn: u64,
    },
    /// Recovered state diverged from checkpoint + durable committed writes.
    RecoveryMismatch {
        /// Epoch of the crash.
        epoch: u32,
        /// Torture-table index.
        table: usize,
        /// Row key.
        key: u64,
        /// Expected value.
        expected: i64,
        /// Value actually recovered (`None` = row missing).
        found: Option<i64>,
    },
}

impl std::fmt::Display for TortureViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TortureViolation::Serializability {
                epoch, violation, ..
            } => {
                write!(f, "[epoch {epoch}] {violation}")
            }
            TortureViolation::DurabilityLoss { epoch, txn } => write!(
                f,
                "[epoch {epoch}] durability loss: commit of T{txn} was acknowledged as durable but did not survive the crash"
            ),
            TortureViolation::RecoveryMismatch {
                epoch,
                table,
                key,
                expected,
                found,
            } => write!(
                f,
                "[epoch {epoch}] recovery mismatch at t{table}[{key}]: expected {expected}, recovered {found:?}"
            ),
        }
    }
}

/// What a torture run produced.
#[derive(Debug, Clone)]
pub struct TortureReport {
    /// The seed that produced this run.
    pub seed: u64,
    /// FNV digest of the full operation history (reproducibility witness).
    pub digest: u64,
    /// Committed transactions.
    pub commits: u64,
    /// Aborted transactions (voluntary, conflict, or crash-killed).
    pub aborts: u64,
    /// Simulated crashes survived.
    pub crashes: u32,
    /// Operations recorded.
    pub ops: usize,
    /// Violations found (empty = the run passed).
    pub violations: Vec<TortureViolation>,
    /// Engine metrics merged across every crash epoch. Under the virtual
    /// clock this is a pure function of the seed; its JSON rendering is a
    /// second reproducibility witness alongside [`TortureReport::digest`].
    pub metrics: MetricsSnapshot,
}

impl TortureReport {
    /// Whether the run found no violations.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable failure report: the offending seed plus each
    /// violation with its minimized trace.
    pub fn render_failures(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "torture run FAILED: seed {} ({} violations, digest {:016x})",
            self.seed,
            self.violations.len(),
            self.digest
        );
        for v in &self.violations {
            let _ = writeln!(out, "- {v}");
            if let TortureViolation::Serializability { trace, .. } = v {
                for line in trace {
                    let _ = writeln!(out, "    {line}");
                }
            }
        }
        out
    }
}

struct Session {
    txn: Txn,
    serial: u64,
    plan: TortureTxn,
    at: usize,
    seq: u32,
    /// Whether the transaction wrote anything (read-only commits leave no
    /// WAL trace, so they make no durability claim).
    wrote: bool,
}

struct Driver<'a> {
    cfg: &'a TortureConfig,
    engine: Arc<Engine>,
    tables: Vec<TableId>,
    history: Vec<OpRecord>,
    epoch: u32,
    epoch_start: usize,
    /// Harness serial -> engine txn id, this epoch.
    engine_of: BTreeMap<u64, u64>,
    /// Serials whose commit acknowledgement implies durability.
    durable_claims: BTreeSet<u64>,
    /// Lazy-policy commits not yet covered by a flush.
    unflushed_commits: Vec<u64>,
    /// Values at the start of the epoch (recovered/initial state).
    checkpoint: BTreeMap<(usize, u64), i64>,
    violations: Vec<TortureViolation>,
    commits: u64,
    aborts: u64,
    crashes: u32,
    /// Metrics folded in from engines retired at each crash.
    metrics: MetricsSnapshot,
}

fn build_engine(cfg: &TortureConfig) -> (Arc<Engine>, Vec<TableId>) {
    let mut ec = EngineConfig::mysql(cfg.lock_policy);
    // Conflicting lock requests fail immediately instead of blocking: the
    // driver is single-threaded, so a blocked session would deadlock the
    // scheduler — and try-lock conflicts are deterministic.
    ec.lock_timeout = Some(Duration::ZERO);
    ec.lock_shards = 1;
    // Small pool: exercise eviction, writeback, and the LLU/ratio debug
    // invariants in tpd-storage.
    ec.pool.frames = 64;
    ec.flush_policy = cfg.flush_policy;
    // Background flusher threads would do timing off the virtual-clock
    // thread; the driver flushes at seeded points instead.
    ec.wal_manual_flush = true;
    ec.seed = cfg.seed;
    ec.concurrency = cfg.concurrency;
    ec.skip_locking = cfg.skip_locking;
    ec.broken_snapshots = cfg.chaos_snapshots;
    ec.statement_rtt = cfg.statement_rtt.clone();
    ec = ec
        .with_wal_append(cfg.wal_append)
        .with_log_writers(cfg.log_writers);
    if cfg.faults {
        ec.data_faults = Some(FaultPlan::chaos(cfg.seed ^ 0xD15C));
        ec.log_faults = Some(FaultPlan::chaos(cfg.seed ^ 0x10D1));
    }
    ec.wal_faults = Some(WalFaultPlan {
        crash_at_lsn: None,
        torn_tail: cfg.faults,
        ack_before_flush: cfg.ack_before_flush,
    });
    if cfg.disk_backend == DiskBackend::File {
        let dir = cfg
            .data_dir
            .clone()
            .expect("disk_backend = file requires a data_dir");
        ec = ec.with_file_backend(dir);
    }
    let engine = Engine::new(ec);
    let tables = install_torture_schema(&engine, &cfg.mix);
    (engine, tables)
}

impl<'a> Driver<'a> {
    fn new(cfg: &'a TortureConfig) -> Self {
        let (engine, tables) = build_engine(cfg);
        // File mode: consume whatever the (expected-empty) directory held,
        // then write the bootstrap checkpoint — schema operations are not
        // logged, so a reopen can only recreate tables from a checkpoint.
        if cfg.disk_backend == DiskBackend::File {
            engine.recover_from_disk();
        }
        let mut checkpoint = BTreeMap::new();
        for t in 0..cfg.mix.tables {
            for k in 0..cfg.mix.keyspace {
                checkpoint.insert((t, k), 0);
            }
        }
        Driver {
            cfg,
            engine,
            tables,
            history: Vec::new(),
            epoch: 0,
            epoch_start: 0,
            engine_of: BTreeMap::new(),
            durable_claims: BTreeSet::new(),
            unflushed_commits: Vec::new(),
            checkpoint,
            violations: Vec::new(),
            commits: 0,
            aborts: 0,
            crashes: 0,
            metrics: MetricsSnapshot::new(),
        }
    }

    fn record(&mut self, session: usize, txn: u64, seq: u32, kind: OpKind) {
        self.history.push(OpRecord {
            epoch: self.epoch,
            session,
            txn,
            seq,
            kind,
        });
    }

    /// Execute the session's next statement. `Err` means the transaction is
    /// gone (conflict abort or execution error) and was rolled back.
    fn step(&mut self, sess: &mut Session, session: usize) -> Result<(), ()> {
        let op = sess.plan.ops[sess.at];
        let (serial, seq) = (sess.serial, sess.seq);
        let result: Result<Vec<OpKind>, ()> = match op {
            TortureOp::Read { table, key } => sess
                .txn
                .read(self.tables[table], key)
                .map(|row| {
                    vec![OpKind::Read {
                        table,
                        key,
                        value: row[0],
                    }]
                })
                .map_err(|_| ()),
            TortureOp::ReadForUpdate { table, key } => sess
                .txn
                .read_for_update(self.tables[table], key)
                .map(|row| {
                    vec![OpKind::Read {
                        table,
                        key,
                        value: row[0],
                    }]
                })
                .map_err(|_| ()),
            TortureOp::Update { table, key } => {
                let value = encode_value(serial, seq);
                let mut prev = 0i64;
                sess.txn
                    .update(self.tables[table], key, |r| {
                        prev = r[0];
                        r[0] = value;
                    })
                    .map(|()| {
                        vec![OpKind::Write {
                            table,
                            key,
                            prev,
                            value,
                        }]
                    })
                    .map_err(|_| ())
            }
            TortureOp::Insert { table } => {
                let value = encode_value(serial, seq);
                sess.txn
                    .insert(self.tables[table], vec![value])
                    .map(|key| vec![OpKind::Insert { table, key, value }])
                    .map_err(|_| ())
            }
            TortureOp::Scan { table, start, len } => sess
                .txn
                .scan(self.tables[table], start, start + len, len as usize)
                .map(|rows| {
                    rows.into_iter()
                        .map(|(key, row)| OpKind::Read {
                            table,
                            key,
                            value: row[0],
                        })
                        .collect()
                })
                .map_err(|_| ()),
        };
        match result {
            Ok(kinds) => {
                for kind in &kinds {
                    if matches!(kind, OpKind::Write { .. } | OpKind::Insert { .. }) {
                        sess.wrote = true;
                    }
                    self.record(session, serial, seq, *kind);
                }
                sess.at += 1;
                sess.seq += 1;
                Ok(())
            }
            Err(()) => Err(()),
        }
    }

    /// Crash the engine, audit durability and recovery, check the closed
    /// epoch for serializability, and continue on a recovered engine.
    fn crash_and_recover(&mut self, sessions: &mut [Option<Session>]) {
        // The crash kills in-flight sessions: their writes are uncommitted.
        for (s, slot) in sessions.iter_mut().enumerate() {
            if let Some(sess) = slot.take() {
                self.record(s, sess.serial, sess.seq, OpKind::Abort);
                drop(sess.txn); // rolls back in-memory state; WAL untouched
                self.aborts += 1;
            }
        }
        // The durable log prefix and the recovered engine. Sim mode
        // snapshots the redo buffer at the crash point and replays it into
        // a fresh engine seeded with the epoch-start checkpoint; file mode
        // abandons the old engine outright and re-reads the segment files,
        // exactly as a restarted process would (the on-disk checkpoint
        // stands in for the driver-side one).
        let (engine, tables, snapshot) = if self.cfg.disk_backend == DiskBackend::File {
            let (engine, tables) = build_engine(self.cfg);
            let rec = engine
                .recover_from_disk()
                .expect("file backend recovers on reopen");
            (engine, tables, rec.records)
        } else {
            let snapshot = self.engine.simulate_crash();
            // Recover into a fresh engine seeded with the epoch-start
            // checkpoint (the log only covers this epoch).
            let (engine, tables) = build_engine(self.cfg);
            for (&(t, k), &v) in &self.checkpoint {
                engine.catalog().table(tables[t]).put(k, vec![v]);
            }
            engine.recover_from(&snapshot);
            (engine, tables, snapshot)
        };
        let recovered_ids: HashSet<u64> = tpd_wal::committed_txns(&snapshot);

        // Durability audit: every acknowledged-durable commit must be in
        // the durable log prefix.
        for &serial in &self.durable_claims {
            let engine_id = self.engine_of[&serial];
            if !recovered_ids.contains(&engine_id) {
                self.violations.push(TortureViolation::DurabilityLoss {
                    epoch: self.epoch,
                    txn: serial,
                });
            }
        }

        // Expected post-recovery state: checkpoint + the writes of the
        // transactions the durable prefix committed, in history order
        // (single-threaded, so history order is commit order).
        let mut expected = self.checkpoint.clone();
        for r in &self.history[self.epoch_start..] {
            let recovered = self
                .engine_of
                .get(&r.txn)
                .is_some_and(|id| recovered_ids.contains(id));
            if !recovered {
                continue;
            }
            match r.kind {
                OpKind::Write {
                    table, key, value, ..
                }
                | OpKind::Insert { table, key, value } => {
                    expected.insert((table, key), value);
                }
                _ => {}
            }
        }

        for (&(t, k), &v) in &expected {
            let found = engine.catalog().table(tables[t]).get(k).map(|row| row[0]);
            if found != Some(v) {
                self.violations.push(TortureViolation::RecoveryMismatch {
                    epoch: self.epoch,
                    table: t,
                    key: k,
                    expected: v,
                    found,
                });
            }
        }

        self.check_epoch();
        // Every in-flight session was killed above, so the retiring engine
        // must hold no pinned snapshots (and no locks) — the GC low-water
        // mark audit.
        assert_eq!(
            self.engine.active_snapshots(),
            0,
            "crash epoch leaked snapshot pins"
        );
        // The crashed engine is about to be dropped; fold its metrics into
        // the whole-run view first.
        self.metrics.merge(&self.engine.metrics_snapshot());
        self.checkpoint = expected;
        self.engine = engine;
        self.tables = tables;
        self.engine_of.clear();
        self.durable_claims.clear();
        self.unflushed_commits.clear();
        self.epoch += 1;
        self.crashes += 1;
        self.epoch_start = self.history.len();
    }

    /// Serializability-check the current epoch's history slice.
    fn check_epoch(&mut self) {
        let slice = &self.history[self.epoch_start..];
        for violation in checker::check(slice).violations {
            let trace = checker::minimized_trace(slice, &violation);
            self.violations.push(TortureViolation::Serializability {
                epoch: self.epoch,
                violation,
                trace,
            });
        }
    }
}

/// Run one seeded torture run. Enables the virtual clock for the calling
/// thread for the duration (panics if one is already active).
pub fn run_torture(cfg: &TortureConfig) -> TortureReport {
    assert!(cfg.sessions >= 1, "need at least one session");
    assert!(cfg.txns >= 1, "need at least one transaction");
    let _clock = VirtualClock::enable(1);
    let mut rng = SmallRng::seed_from_u64(cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let mut d = Driver::new(cfg);
    let mut sessions: Vec<Option<Session>> = (0..cfg.sessions).map(|_| None).collect();
    let mut serial_next = 1u64;
    let mut completed = 0u64;
    let mut since_crash = 0u64;
    let mut since_flush = 0u64;

    while completed < cfg.txns {
        let s = rng.gen_range(0..cfg.sessions);
        if sessions[s].is_none() {
            let plan = cfg.mix.sample(&mut rng);
            // Declare the plan's point keys at BEGIN: under the
            // predictive policy the conflict predictor folds their
            // learned rates into the transaction's footprint; every
            // other policy ignores the sample.
            let declared: Vec<_> = plan
                .ops
                .iter()
                .filter_map(|op| match *op {
                    TortureOp::Read { table, key }
                    | TortureOp::ReadForUpdate { table, key }
                    | TortureOp::Update { table, key } => Some((d.tables[table], key)),
                    TortureOp::Insert { .. } | TortureOp::Scan { .. } => None,
                })
                .collect();
            let txn = d.engine.begin_with_keys(0, &declared);
            d.engine_of.insert(serial_next, txn.id());
            sessions[s] = Some(Session {
                txn,
                serial: serial_next,
                plan,
                at: 0,
                seq: 0,
                wrote: false,
            });
            serial_next += 1;
        }
        let mut sess = sessions[s].take().expect("just ensured");
        if sess.at < sess.plan.ops.len() {
            match d.step(&mut sess, s) {
                Ok(()) => sessions[s] = Some(sess),
                Err(()) => {
                    // Conflict abort (engine already rolled back) or
                    // execution error: finish the rollback and record it.
                    d.record(s, sess.serial, sess.seq, OpKind::Abort);
                    sess.txn.abort();
                    d.aborts += 1;
                    completed += 1;
                    since_crash += 1;
                }
            }
        } else {
            let serial = sess.serial;
            let seq = sess.seq;
            if rng.gen_bool(cfg.abort_prob) {
                d.record(s, serial, seq, OpKind::Abort);
                sess.txn.abort();
                d.aborts += 1;
            } else {
                let wrote = sess.wrote;
                match sess.txn.commit() {
                    Ok(()) => {
                        d.record(s, serial, seq, OpKind::Commit);
                        d.commits += 1;
                        // Read-only commits leave no WAL trace: nothing to
                        // claim, nothing to lose.
                        if wrote {
                            if matches!(cfg.flush_policy, FlushPolicy::Eager) {
                                // Eager acknowledgement claims durability.
                                d.durable_claims.insert(serial);
                            } else {
                                d.unflushed_commits.push(serial);
                            }
                        }
                    }
                    Err(_) => {
                        d.record(s, serial, seq, OpKind::Abort);
                        d.aborts += 1;
                    }
                }
            }
            completed += 1;
            since_crash += 1;
            since_flush += 1;
        }

        // Seeded flush points make lazy policies durable incrementally.
        if !matches!(cfg.flush_policy, FlushPolicy::Eager)
            && cfg.flush_every > 0
            && since_flush >= cfg.flush_every
        {
            d.engine.wal_flush_now();
            let flushed: Vec<u64> = d.unflushed_commits.drain(..).collect();
            d.durable_claims.extend(flushed);
            since_flush = 0;
        }

        if (cfg.crash_every > 0 && since_crash >= cfg.crash_every && completed < cfg.txns)
            || d.engine.wal_crash_armed()
        {
            d.crash_and_recover(&mut sessions);
            since_crash = 0;
            since_flush = 0;
        }
    }

    // Wind down: open transactions abort, then the final epoch is checked.
    for (s, slot) in sessions.iter_mut().enumerate() {
        if let Some(sess) = slot.take() {
            d.record(s, sess.serial, sess.seq, OpKind::Abort);
            sess.txn.abort();
            d.aborts += 1;
        }
    }
    d.check_epoch();
    assert_eq!(
        d.engine.active_snapshots(),
        0,
        "run ended with leaked snapshot pins"
    );
    assert_eq!(
        d.engine.locks().outstanding(),
        (0, 0),
        "run ended with leaked lock entries"
    );
    d.metrics.merge(&d.engine.metrics_snapshot());

    TortureReport {
        seed: cfg.seed,
        digest: digest(&d.history),
        commits: d.commits,
        aborts: d.aborts,
        crashes: d.crashes,
        ops: d.history.len(),
        violations: d.violations,
        metrics: d.metrics,
    }
}
