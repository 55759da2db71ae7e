//! The engine proper: transactions, 2PL, WAL, and the instrumented
//! execution paths.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tpd_common::clock::{cpu_work, now_nanos};
use tpd_common::disk::{DiskDevice, FileDisk, SimDisk};
use tpd_common::Nanos;
use tpd_core::predictor::{WEIGHT_ABORT, WEIGHT_WAIT};
use tpd_core::{
    ConflictPredictor, LockError, LockManager, LockManagerConfig, LockMode, ObjectId, Policy,
    PredictorConfig, TxnToken,
};
use tpd_metrics::{Histogram, MetricsRegistry, MetricsSnapshot};
use tpd_profiler::{OwnedSpanGuard, OwnedTxnGuard, Profiler};
use tpd_storage::{BufferPool, PoolProbes};
use tpd_wal::{
    committed_txns, CheckpointData, CheckpointTable, FileWal, LogRecord, Lsn, MysqlWalProbes,
    PgWalProbes, RecoveredLog, RedoLog, RedoLogConfig, StampedRecord, WalWriter,
};

use crate::catalog::{Catalog, TableInfo, VersionRead};
use crate::config::{Concurrency, DiskBackend, EngineConfig, Personality};
use crate::probes::EngineProbes;
use crate::types::{row_bytes, EngineError, Row, RowKey, TableId, TxnType};

/// Lock namespace 0 is table-level locks; rows use `table_id + 1`.
const TABLE_LOCK_SPACE: u32 = 0;

/// Predicate-lock bucket width (keys per bucket).
const PREDICATE_BUCKET: u64 = 1024;

/// One (age, remaining-time) observation at a blocking event — the data
/// behind Appendix C.2 / Figure 8.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgeRemainingSample {
    /// Transaction type.
    pub txn_type: TxnType,
    /// Transaction age when it blocked, ns.
    pub age_ns: f64,
    /// Time from the blocking instant to commit, ns.
    pub remaining_ns: f64,
}

/// Outcome of [`Engine::recover_from_disk`]: the replay report plus the
/// raw frames that replayed, for harnesses auditing exactly which
/// transactions survived.
#[derive(Debug)]
pub struct DiskRecovery {
    /// What the replay applied.
    pub report: RecoveryReport,
    /// The recovered frames above the checkpoint floor, seq-ordered.
    pub records: Vec<StampedRecord>,
    /// Whether a checkpoint was restored.
    pub restored_checkpoint: bool,
    /// Segment files truncated at a torn or corrupt frame.
    pub torn_truncated: u64,
}

/// Outcome of replaying a durable log prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Transactions whose commit marker survived.
    pub committed_txns: u64,
    /// Update/insert records applied.
    pub records_applied: u64,
    /// Records of uncommitted transactions skipped.
    pub records_skipped: u64,
}

/// Engine-level counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted transactions (all causes).
    pub aborts: u64,
    /// Aborts due to deadlock victimization.
    pub deadlock_aborts: u64,
    /// Aborts due to lock timeouts.
    pub timeout_aborts: u64,
}

#[derive(Debug)]
enum WalBackend {
    Mysql(Arc<RedoLog>),
    Pg(Box<WalWriter>),
}

/// The engine. Construct with [`Engine::new`], create schema through
/// [`Engine::catalog`], then drive transactions with [`Engine::begin`].
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    catalog: Catalog,
    locks: LockManager,
    pool: BufferPool,
    wal: WalBackend,
    /// File-backed segment log (`disk_backend = file` only).
    file_wal: Option<Arc<FileWal>>,
    /// What [`FileWal::open`] recovered, held until
    /// [`Engine::recover_from_disk`] consumes it.
    recovered: Mutex<Option<RecoveredLog>>,
    profiler: Arc<Profiler>,
    probes: EngineProbes,
    next_txn: AtomicU64,
    /// Postgres predicate locks: (table, key bucket) → holders.
    predicate: Mutex<HashMap<(TableId, u64), Vec<u64>>>,
    /// MVCC commit timestamp: the publish point for stamped versions.
    /// Readers snapshot it at BEGIN; committers bump it after stamping.
    commit_ts: AtomicU64,
    /// MVCC pinned snapshots: begin timestamp → pin count. The smallest
    /// key is the GC low-water mark; the map doubles as the commit mutex
    /// (timestamp allocation + stamping + publish run under its lock).
    snapshots: Mutex<BTreeMap<u64, usize>>,
    /// Version-chain length observed at each mvcc commit stamping.
    mvcc_chain_len: Histogram,
    mvcc_gc_reclaimed: AtomicU64,
    mvcc_snapshot_reads: AtomicU64,
    mvcc_too_old: AtomicU64,
    age_remaining: Mutex<Vec<AgeRemainingSample>>,
    commits: AtomicU64,
    aborts: AtomicU64,
    deadlock_aborts: AtomicU64,
    timeout_aborts: AtomicU64,
    /// Conflict predictor — present iff `lock_policy == Predictive`. Fed
    /// from the lock-wait/deadlock/timeout events in [`Txn::acquire`];
    /// consulted at BEGIN to stamp each [`TxnToken`]'s footprint.
    predictor: Option<Arc<ConflictPredictor>>,
    /// Transactions whose BEGIN-time footprint crossed the hot threshold.
    sched_predicted_hot: AtomicU64,
    /// Finished transactions whose hot/cold prediction matched whether
    /// they actually conflicted (waited or aborted on a lock).
    sched_prediction_hits: AtomicU64,
    /// Finished transactions scored for prediction accuracy.
    sched_prediction_total: AtomicU64,
    /// Per-[`TxnType`] end-to-end latency histograms (begin → commit and
    /// begin → rollback), indexed by type clamped to the last slot. Fixed
    /// arrays so the commit path records without locks or lookups.
    commit_latency: [Histogram; TXN_TYPE_SLOTS],
    abort_latency: [Histogram; TXN_TYPE_SLOTS],
    /// Named instruments beyond the built-in families (callers may hang
    /// their own counters/histograms off the engine).
    registry: MetricsRegistry,
}

/// Distinct [`TxnType`] latency slots; types ≥ 15 share the last slot.
const TXN_TYPE_SLOTS: usize = 16;

fn txn_type_slot(ty: TxnType) -> usize {
    (ty as usize).min(TXN_TYPE_SLOTS - 1)
}

impl Engine {
    /// Build an engine from a configuration.
    pub fn new(config: EngineConfig) -> Arc<Self> {
        let (profiler, probes) = EngineProbes::build();
        let profiler = Arc::new(profiler);
        let data_disk = Arc::new(SimDisk::with_faults(
            config.data_disk.clone(),
            config.data_faults.clone(),
        ));
        let pool = BufferPool::new(
            config.pool.clone(),
            data_disk,
            Some(PoolProbes {
                profiler: profiler.clone(),
                mutex_enter: probes.buf_pool_mutex_enter,
                page_io: probes.buf_page_io,
            }),
        );
        // File backend: open (and recover) the segment log first, so its
        // per-stripe devices can stand in for the simulated log disks.
        let stripes = match config.personality {
            Personality::Mysql => config.log_writers.max(1),
            Personality::Postgres => config.wal.sets.max(1),
        };
        let (file_wal, recovered) = match config.disk_backend {
            DiskBackend::Sim => (None, None),
            DiskBackend::File => {
                let dir = config
                    .data_dir
                    .as_ref()
                    .expect("disk_backend = file requires a data_dir");
                let (wal, rec) = FileWal::open(dir, stripes, config.wal_rotate_bytes)
                    .expect("open file-backed wal");
                (Some(wal), Some(rec))
            }
        };
        let wal = match config.personality {
            Personality::Mysql => {
                // One device per parallel log writer. Extra devices are
                // derived deterministically when the config lists too few.
                let writers = stripes;
                let disks: Vec<Arc<dyn DiskDevice>> = match &file_wal {
                    Some(wal) => (0..writers)
                        .map(|k| wal.stripe_disk(k) as Arc<dyn DiskDevice>)
                        .collect(),
                    None => {
                        let mut disk_configs = config.log_disks.clone();
                        while disk_configs.len() < writers {
                            let mut d = disk_configs[0].clone();
                            d.seed = d.seed.wrapping_add(disk_configs.len() as u64 * 7919);
                            disk_configs.push(d);
                        }
                        disk_configs
                            .into_iter()
                            .take(writers)
                            .map(|d| {
                                Arc::new(SimDisk::with_faults(d, config.log_faults.clone()))
                                    as Arc<dyn DiskDevice>
                            })
                            .collect()
                    }
                };
                WalBackend::Mysql(RedoLog::with_disks(
                    RedoLogConfig {
                        policy: config.flush_policy,
                        flush_interval: config.flush_interval,
                        faults: config.wal_faults.clone(),
                        manual_flush: config.wal_manual_flush,
                        append: config.wal_append,
                        writers,
                        sink: file_wal.clone(),
                    },
                    disks,
                    Some(MysqlWalProbes {
                        profiler: profiler.clone(),
                        fil_flush: probes.fil_flush,
                    }),
                ))
            }
            Personality::Postgres => {
                // The pg writer only counts bytes and flushes, so in file
                // mode its sets get scratch files — never the
                // frame-carrying segments, which the commit path writes
                // through `FileWal::append_auto` instead.
                let disks: Vec<Arc<dyn DiskDevice>> = match (&file_wal, &config.data_dir) {
                    (Some(_), Some(dir)) => (0..config.log_disks.len().max(1))
                        .map(|k| {
                            Arc::new(
                                FileDisk::create(dir.join(format!("pg-set-{k}.dat")))
                                    .expect("create pg scratch log"),
                            ) as Arc<dyn DiskDevice>
                        })
                        .collect(),
                    _ => config
                        .log_disks
                        .iter()
                        .map(|d| {
                            Arc::new(SimDisk::with_faults(d.clone(), config.log_faults.clone()))
                                as Arc<dyn DiskDevice>
                        })
                        .collect(),
                };
                let mut wal_config = config.wal.clone();
                wal_config.faults = config.wal_faults.clone();
                wal_config.append = config.wal_append;
                WalBackend::Pg(Box::new(WalWriter::new(
                    wal_config,
                    disks,
                    Some(PgWalProbes {
                        profiler: profiler.clone(),
                        lwlock_acquire: probes.lwlock_acquire_or_wait,
                    }),
                )))
            }
        };
        let locks = LockManager::new(LockManagerConfig {
            policy: config.lock_policy,
            victim: config.victim,
            wait_timeout: config.lock_timeout,
            shards: config.lock_shards,
            rng_seed: config.seed,
        });
        Arc::new(Engine {
            catalog: Catalog::new(),
            locks,
            pool,
            wal,
            file_wal,
            recovered: Mutex::new(recovered),
            profiler,
            probes,
            next_txn: AtomicU64::new(1),
            predicate: Mutex::new(HashMap::new()),
            commit_ts: AtomicU64::new(0),
            snapshots: Mutex::new(BTreeMap::new()),
            mvcc_chain_len: Histogram::new(),
            mvcc_gc_reclaimed: AtomicU64::new(0),
            mvcc_snapshot_reads: AtomicU64::new(0),
            mvcc_too_old: AtomicU64::new(0),
            age_remaining: Mutex::new(Vec::new()),
            commits: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
            deadlock_aborts: AtomicU64::new(0),
            timeout_aborts: AtomicU64::new(0),
            predictor: (config.lock_policy == Policy::Predictive).then(|| {
                Arc::new(ConflictPredictor::new(PredictorConfig {
                    hot_threshold: config.predict_hot_threshold,
                }))
            }),
            sched_predicted_hot: AtomicU64::new(0),
            sched_prediction_hits: AtomicU64::new(0),
            sched_prediction_total: AtomicU64::new(0),
            commit_latency: std::array::from_fn(|_| Histogram::new()),
            abort_latency: std::array::from_fn(|_| Histogram::new()),
            registry: MetricsRegistry::new(),
            config,
        })
    }

    /// The schema catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The profiler (enable probes / drain traces through this).
    pub fn profiler(&self) -> &Arc<Profiler> {
        &self.profiler
    }

    /// The probe-site ids.
    pub fn probes(&self) -> &EngineProbes {
        &self.probes
    }

    /// The lock manager (for stats and introspection).
    pub fn locks(&self) -> &LockManager {
        &self.locks
    }

    /// The buffer pool (for stats).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// MySQL redo-log stats, if running the MySQL personality.
    pub fn redo_stats(&self) -> Option<tpd_wal::RedoStats> {
        match &self.wal {
            WalBackend::Mysql(r) => Some(r.stats()),
            WalBackend::Pg(_) => None,
        }
    }

    /// Postgres WAL stats, if running the Postgres personality.
    pub fn pg_wal_stats(&self) -> Option<tpd_wal::WalWriterStats> {
        match &self.wal {
            WalBackend::Pg(w) => Some(w.stats()),
            WalBackend::Mysql(_) => None,
        }
    }

    /// Enable every probe and start collecting traces.
    pub fn enable_full_profiling(&self) {
        self.profiler.enable_only(&self.probes.all());
        self.profiler.set_collecting(true);
    }

    /// Engine counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            commits: self.commits.load(Ordering::Relaxed),
            aborts: self.aborts.load(Ordering::Relaxed),
            deadlock_aborts: self.deadlock_aborts.load(Ordering::Relaxed),
            timeout_aborts: self.timeout_aborts.load(Ordering::Relaxed),
        }
    }

    /// The engine's metrics registry, for caller-defined instruments.
    /// Anything registered here appears in [`Engine::metrics_snapshot`].
    pub fn metrics_registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Number of pinned begin-snapshots (mvcc mode; always 0 under s2pl).
    /// The leak-check twin of [`tpd_core::LockManager::outstanding`]: a
    /// nonzero value with no transaction in flight means some exit path
    /// failed to unpin and version-chain GC is stuck at an old low-water
    /// mark.
    pub fn active_snapshots(&self) -> usize {
        self.snapshots.lock().values().sum()
    }

    /// The current mvcc commit timestamp (0 until the first mvcc commit).
    pub fn commit_timestamp(&self) -> u64 {
        self.commit_ts.load(Ordering::Acquire)
    }

    /// Assemble one snapshot of every metric family the engine exposes:
    /// `lock.*` (acquires, waits, deadlocks, per-shard contention, wait
    /// latency), `pool.*` (hits, misses, evictions, LLU backlog depth),
    /// `wal.*` (appends, flushes, group commits, fsync latency, flush
    /// batch sizes), `txn.*` (commit/abort latency per [`TxnType`]), plus
    /// anything registered via [`Engine::metrics_registry`].
    ///
    /// Under the virtual clock every recorded duration is logical, so for
    /// a fixed seed the snapshot (and its JSON rendering) is
    /// byte-deterministic — the torture harness diffs it across doubled
    /// runs as a reproducibility witness.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut m = self.registry.snapshot();

        let ls = self.locks.stats();
        m.set_counter("lock.acquires", ls.acquires);
        m.set_counter("lock.immediate", ls.immediate);
        m.set_counter("lock.waits", ls.waited);
        m.set_counter("lock.upgrades", ls.upgrades);
        m.set_counter("lock.deadlocks", ls.deadlocks);
        m.set_counter("lock.timeouts", ls.timeouts);
        m.set_counter("lock.wait_ns_total", ls.wait_ns);
        m.set_histogram("lock.wait_ns", self.locks.wait_histogram());
        for (i, n) in self.locks.shard_wait_counts().into_iter().enumerate() {
            m.set_counter(format!("lock.shard{i:02}.waits"), n);
        }

        let ps = self.pool.stats();
        m.set_counter("pool.hits", ps.hits);
        m.set_counter("pool.misses", ps.misses);
        m.set_counter("pool.evictions", ps.evictions);
        m.set_counter("pool.dirty_writebacks", ps.dirty_writebacks);
        m.set_counter("pool.make_young", ps.make_young);
        m.set_counter("pool.deferred_updates", ps.deferred_updates);
        m.set_counter("pool.backlog_applied", ps.backlog_applied);
        m.set_counter("pool.mutex_wait_ns_total", ps.mutex_wait_ns);
        m.set_histogram("pool.backlog_depth", self.pool.backlog_depth_histogram());

        match &self.wal {
            WalBackend::Mysql(r) => {
                let s = r.stats();
                m.set_counter("wal.bytes_appended", s.bytes_appended);
                m.set_counter("wal.commits", s.commits);
                m.set_counter("wal.flushes", s.flushes);
                m.set_counter("wal.group_commits", s.group_commits);
                m.set_counter("wal.bytes_written", s.bytes_written);
                m.set_counter("wal.commit_wait_ns_total", s.commit_wait_ns);
                m.set_counter("wal.log_writers", r.writers() as u64);
                m.set_histogram("wal.fsync_ns", r.fsync_histogram());
                m.set_histogram("wal.flush_batch_bytes", r.batch_histogram());
                m.set_histogram("wal.reserve_ns", r.reserve_histogram());
                m.set_histogram("wal.group_commit_batch", r.group_commit_batch_histogram());
            }
            WalBackend::Pg(w) => {
                let s = w.stats();
                m.set_counter("wal.commits", s.commits);
                m.set_counter("wal.flushes", s.flushes);
                m.set_counter("wal.group_commits", s.group_commits);
                m.set_counter("wal.blocks_written", s.blocks_written);
                m.set_counter("wal.bytes_requested", s.bytes_requested);
                m.set_counter("wal.lock_wait_ns_total", s.lock_wait_ns);
                m.set_histogram("wal.lwlock_wait_ns", w.lock_wait_histogram());
                m.set_histogram("wal.flush_batch_blocks", w.batch_histogram());
                m.set_histogram("wal.reserve_ns", w.reserve_histogram());
                m.set_histogram("wal.group_commit_batch", w.group_commit_batch_histogram());
            }
        }

        if self.config.concurrency == Concurrency::Mvcc {
            m.set_counter(
                "mvcc.snapshot_reads",
                self.mvcc_snapshot_reads.load(Ordering::Relaxed),
            );
            m.set_counter(
                "mvcc.gc_reclaimed_total",
                self.mvcc_gc_reclaimed.load(Ordering::Relaxed),
            );
            m.set_counter(
                "mvcc.snapshot_too_old_total",
                self.mvcc_too_old.load(Ordering::Relaxed),
            );
            m.set_counter("mvcc.commit_ts", self.commit_ts.load(Ordering::Relaxed));
            m.set_histogram("mvcc.version_chain_len", self.mvcc_chain_len.snapshot());
        }

        if let Some(p) = &self.predictor {
            let hits = self.sched_prediction_hits.load(Ordering::Relaxed);
            let total = self.sched_prediction_total.load(Ordering::Relaxed);
            m.set_counter(
                "sched.predicted_conflicts",
                self.sched_predicted_hot.load(Ordering::Relaxed),
            );
            m.set_counter("sched.prediction_hits", hits);
            m.set_counter("sched.prediction_total", total);
            // Integer percent so the snapshot stays byte-deterministic.
            m.set_counter(
                "sched.prediction_hit_rate",
                (hits * 100).checked_div(total).unwrap_or(0),
            );
            m.set_counter("sched.conflict_events", p.events());
        }

        m.set_counter("txn.commits", self.commits.load(Ordering::Relaxed));
        m.set_counter("txn.aborts", self.aborts.load(Ordering::Relaxed));
        m.set_counter(
            "txn.deadlock_aborts",
            self.deadlock_aborts.load(Ordering::Relaxed),
        );
        m.set_counter(
            "txn.timeout_aborts",
            self.timeout_aborts.load(Ordering::Relaxed),
        );
        // Only types that ran: 16 always-empty families per personality
        // would be noise in the JSON and the Prometheus scrape alike.
        for (i, h) in self.commit_latency.iter().enumerate() {
            let snap = h.snapshot();
            if snap.count > 0 {
                m.set_histogram(format!("txn.type{i:02}.commit_ns"), snap);
            }
        }
        for (i, h) in self.abort_latency.iter().enumerate() {
            let snap = h.snapshot();
            if snap.count > 0 {
                m.set_histogram(format!("txn.type{i:02}.abort_ns"), snap);
            }
        }
        m
    }

    /// Drain the Fig. 8 (age, remaining) samples.
    pub fn drain_age_remaining(&self) -> Vec<AgeRemainingSample> {
        std::mem::take(&mut self.age_remaining.lock())
    }

    /// Simulate a crash: return the redo records that were durable at this
    /// instant (MySQL personality). Under the eager flush policy this
    /// covers every acknowledged commit; under the lazy policies recent
    /// commits may be missing — the forward-progress loss the paper's
    /// flush-policy tuning accepts.
    pub fn simulate_crash(&self) -> Vec<StampedRecord> {
        match &self.wal {
            WalBackend::Mysql(redo) => redo.simulate_crash(),
            // The Postgres personality flushes synchronously at commit, so
            // everything acknowledged is durable; typed-record retention is
            // a MySQL-path feature here.
            WalBackend::Pg(_) => Vec::new(),
        }
    }

    /// Flush pending redo now (MySQL personality; no-op for Postgres,
    /// whose commits flush synchronously). The deterministic harness calls
    /// this at seeded points in place of the background flusher — see
    /// [`EngineConfig::wal_manual_flush`].
    pub fn wal_flush_now(&self) {
        if let WalBackend::Mysql(redo) = &self.wal {
            redo.flush_now();
        }
    }

    /// Whether an injected crash-at-LSN point has been reached (see
    /// [`tpd_wal::WalFaultPlan::crash_at_lsn`]). The harness polls this
    /// between operations and crashes the engine when it fires.
    pub fn wal_crash_armed(&self) -> bool {
        match &self.wal {
            WalBackend::Mysql(redo) => redo.crash_armed(),
            WalBackend::Pg(_) => false,
        }
    }

    /// Replay a durable log prefix into this (freshly created, same-schema)
    /// engine: apply every record of every transaction whose commit marker
    /// survived. Physical redo with full after-images, so replay is
    /// idempotent.
    ///
    /// A torn tail record ends the readable log: replay stops at the tear
    /// (a checksum-verifying reader cannot see past it) and everything
    /// before it is applied normally. Never panics on a torn input.
    pub fn recover_from(&self, records: &[StampedRecord]) -> RecoveryReport {
        let records = tpd_wal::durable_prefix(records);
        let committed = committed_txns(records);
        let mut applied = 0u64;
        let mut skipped = 0u64;
        for r in records {
            match &r.record {
                LogRecord::Update {
                    txn,
                    table,
                    key,
                    after,
                }
                | LogRecord::Insert {
                    txn,
                    table,
                    key,
                    row: after,
                } => {
                    // Schema operations are not logged: a record naming a
                    // table the catalog does not have (log older than the
                    // schema, or no bootstrap checkpoint) is skipped, not
                    // a panic.
                    if (*table as usize) >= self.catalog.len() {
                        skipped += 1;
                    } else if committed.contains(txn) {
                        self.catalog.table(TableId(*table)).put(*key, after.clone());
                        applied += 1;
                    } else {
                        skipped += 1;
                    }
                }
                LogRecord::Commit { .. } => {}
                // durable_prefix cuts before the first tear; nothing to do.
                LogRecord::Torn { .. } => {}
            }
        }
        RecoveryReport {
            committed_txns: committed.len() as u64,
            records_applied: applied,
            records_skipped: skipped,
        }
    }

    /// The file-backed segment log, when `disk_backend = file` (crash-gate
    /// control and frame accounting for the crash-point harness).
    pub fn file_wal(&self) -> Option<&Arc<FileWal>> {
        self.file_wal.as_ref()
    }

    /// Apply what the file-backed WAL recovered at open: restore the
    /// checkpoint's table images (creating tables in id order when the
    /// catalog does not have them yet), replay the log tail above the
    /// floor, then write a fresh checkpoint so the next boot starts from a
    /// clean floor — transaction ids restart at 1 every boot, so pruning
    /// the replayed frames is what keeps ids from colliding across epochs.
    ///
    /// Returns `None` on the sim backend, or if already consumed. Calling
    /// it again after recovery (or on a fresh directory) is a no-op, which
    /// is what makes recovery idempotent at the API level; replay itself
    /// is idempotent because redo carries full after-images.
    pub fn recover_from_disk(&self) -> Option<DiskRecovery> {
        self.file_wal.as_ref()?;
        let rec = self.recovered.lock().take()?;
        let restored_checkpoint = rec.checkpoint.is_some();
        if let Some(ckpt) = &rec.checkpoint {
            for ct in &ckpt.tables {
                let table = if (ct.id as usize) < self.catalog.len() {
                    self.catalog.table(TableId(ct.id))
                } else {
                    let id = self.catalog.create_table(&ct.name, ct.rows_per_page);
                    assert_eq!(id.0, ct.id, "checkpoint tables are id-ordered");
                    self.catalog.table(id)
                };
                for (key, row) in &ct.rows {
                    table.put(*key, row.clone());
                }
                table.ensure_next_key(ct.next_key);
            }
        }
        let report = self.recover_from(&rec.records);
        self.checkpoint().expect("post-recovery checkpoint");
        Some(DiskRecovery {
            report,
            records: rec.records,
            restored_checkpoint,
            torn_truncated: rec.torn_truncated,
        })
    }

    /// Write a fuzzy checkpoint (file backend; no-op on sim): flush
    /// pending redo so the floor covers every record reflected in the
    /// tables, snapshot every table, atomically install `checkpoint.ckpt`,
    /// and prune the covered segments. The caller must be write-quiescent
    /// (no transactions in flight) — the checkpoint carries no undo.
    pub fn checkpoint(&self) -> std::io::Result<()> {
        let Some(wal) = &self.file_wal else {
            return Ok(());
        };
        self.wal_flush_now();
        let mut tables = Vec::with_capacity(self.catalog.len());
        for i in 0..self.catalog.len() {
            let t = self.catalog.table(TableId(i as u32));
            let keys = t.range_keys(0, u64::MAX, usize::MAX);
            let rows = keys
                .into_iter()
                .filter_map(|k| t.get(k).map(|row| (k, row)))
                .collect();
            tables.push(CheckpointTable {
                id: t.id.0,
                name: t.name.clone(),
                rows_per_page: t.rows_per_page,
                next_key: t.next_key_hint(),
                rows,
            });
        }
        wal.checkpoint(&CheckpointData {
            next_seq: wal.next_seq(),
            tables,
        })
    }

    /// Begin a transaction of the given workload type.
    pub fn begin(self: &Arc<Self>, ty: TxnType) -> Txn {
        self.begin_with_keys(ty, &[])
    }

    /// Begin a transaction, declaring a hot-key sample: up to a handful
    /// of `(table, row)` pairs the transaction expects to touch. Under
    /// [`Policy::Predictive`] the conflict predictor folds their learned
    /// conflict rates (plus the type's own rate) into the token's
    /// footprint; under every other policy the sample is ignored.
    pub fn begin_with_keys(self: &Arc<Self>, ty: TxnType, keys: &[(TableId, RowKey)]) -> Txn {
        let id = self.next_txn.fetch_add(1, Ordering::Relaxed);
        let mut token = TxnToken::new(id, now_nanos());
        let mut predicted_hot = false;
        if let Some(p) = &self.predictor {
            let objs: Vec<ObjectId> = keys
                .iter()
                .map(|&(table, key)| Txn::row_lock_obj(table, key))
                .collect();
            let footprint = p.predict(ty, &objs);
            token = token.with_footprint(footprint);
            if p.is_hot(footprint) {
                predicted_hot = true;
                self.sched_predicted_hot.fetch_add(1, Ordering::Relaxed);
            }
        }
        let txn_guard = self.profiler.begin_txn_arc(ty);
        let root_span = self.profiler.probe_arc(self.probes.execute_transaction);
        // Per-txn RNG derived from (engine seed, txn id): statement timing
        // is then a pure function of the seed, independent of which OS
        // thread runs the transaction.
        let rng = SmallRng::seed_from_u64(
            self.config
                .seed
                .wrapping_add(id.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        // MVCC: pin a begin-timestamp snapshot. Taking `commit_ts` under
        // the snapshots mutex orders BEGIN against the commit critical
        // section, so a pinned snapshot S always has every version stamped
        // ≤ S already published.
        let snapshot = match self.config.concurrency {
            Concurrency::S2pl => None,
            Concurrency::Mvcc => {
                let mut pins = self.snapshots.lock();
                let ts = self.commit_ts.load(Ordering::Acquire);
                *pins.entry(ts).or_insert(0) += 1;
                Some(ts)
            }
        };
        Txn {
            _root_span: Some(root_span),
            _txn_guard: Some(txn_guard),
            engine: self.clone(),
            token,
            ty,
            rng,
            undo: Vec::new(),
            snapshot,
            writes: Vec::new(),
            predicate_buckets: Vec::new(),
            redo_bytes: 0,
            redo_records: Vec::new(),
            block_instants: Vec::new(),
            predicted_hot,
            conflicted: false,
            finished: false,
        }
    }

    /// The conflict predictor, present iff the lock policy is
    /// [`Policy::Predictive`]. Servers use it to classify BEGINs as hot
    /// for the admission controller's defer gate.
    pub fn predictor(&self) -> Option<&Arc<ConflictPredictor>> {
        self.predictor.as_ref()
    }

    /// Drop one pin on snapshot `ts`, advancing the GC low-water mark.
    fn unpin_snapshot(&self, ts: u64) {
        let mut pins = self.snapshots.lock();
        if let Some(n) = pins.get_mut(&ts) {
            *n -= 1;
            if *n == 0 {
                pins.remove(&ts);
            }
        }
    }
}

#[derive(Debug)]
enum Undo {
    Update {
        table: TableId,
        key: RowKey,
        old: Row,
    },
    Insert {
        table: TableId,
        key: RowKey,
    },
}

/// A live transaction. Obtain via [`Engine::begin`]; drop without
/// [`Txn::commit`] rolls back.
#[derive(Debug)]
pub struct Txn {
    // RAII only — never read. Declared before `_txn_guard` so the root
    // span closes first on drop (fields drop in declaration order).
    _root_span: Option<OwnedSpanGuard>,
    _txn_guard: Option<OwnedTxnGuard>,
    engine: Arc<Engine>,
    token: TxnToken,
    ty: TxnType,
    /// Seeded from (engine seed, txn id); drives statement-RTT sampling.
    rng: SmallRng,
    undo: Vec<Undo>,
    /// MVCC begin-timestamp snapshot (`None` under s2pl). Unpinned on
    /// every exit path — commit, rollback, and drop.
    snapshot: Option<u64>,
    /// MVCC first-writes (table, key): the tentative versions to stamp at
    /// commit or discard at rollback. Empty under s2pl (undo serves there).
    writes: Vec<(TableId, RowKey)>,
    predicate_buckets: Vec<(TableId, u64)>,
    redo_bytes: u64,
    redo_records: Vec<LogRecord>,
    /// Instants at which this transaction blocked on a lock (Fig. 8).
    block_instants: Vec<Nanos>,
    /// Whether the predictor classified this transaction as hot at BEGIN
    /// (always false without a predictor).
    predicted_hot: bool,
    /// Whether the transaction actually conflicted: waited on a lock, or
    /// aborted as a deadlock/timeout victim. Scored against
    /// `predicted_hot` at commit/rollback for the prediction hit rate.
    conflicted: bool,
    finished: bool,
}

impl Txn {
    /// The transaction's id.
    pub fn id(&self) -> u64 {
        self.token.id.0
    }

    /// The transaction's birth timestamp (ns).
    pub fn birth(&self) -> Nanos {
        self.token.birth
    }

    /// The predicted conflict footprint stamped at BEGIN (Q16; zero
    /// unless the lock policy is [`Policy::Predictive`]).
    pub fn footprint(&self) -> u64 {
        self.token.footprint
    }

    /// Whether the predictor classified this transaction as hot at BEGIN.
    pub fn predicted_hot(&self) -> bool {
        self.predicted_hot
    }

    fn check_active(&self) -> Result<(), EngineError> {
        if self.finished {
            Err(EngineError::TxnFinished)
        } else {
            Ok(())
        }
    }

    /// Model the client round trip that precedes each statement. Attributed
    /// to `net_read_packet` so TProfiler sees it as client-side time.
    ///
    /// Draws from the per-txn seeded RNG and advances via the clock layer,
    /// so under the virtual clock the delay is a deterministic logical bump
    /// rather than a wall-clock sleep — same seed, same trace, same
    /// metrics.
    fn statement_rtt(&mut self) {
        if let Some(st) = &self.engine.config.statement_rtt {
            let e = &self.engine;
            let _span = e.profiler.probe(e.probes.net_read_packet);
            let ns = st.sample(&mut self.rng);
            if ns > 0 {
                tpd_common::clock::advance(ns);
            }
        }
    }

    fn table_lock_obj(table: TableId) -> ObjectId {
        ObjectId::new(TABLE_LOCK_SPACE, table.0 as u64)
    }

    fn row_lock_obj(table: TableId, key: RowKey) -> ObjectId {
        ObjectId::new(table.0 + 1, key)
    }

    /// Acquire a lock, mapping failures to engine errors (with rollback)
    /// and feeding wait time to the `os_event_wait` probe.
    fn acquire(&mut self, obj: ObjectId, mode: LockMode) -> Result<(), EngineError> {
        if self.engine.config.skip_locking {
            // Seeded bug (EngineConfig::skip_locking): no isolation at all.
            return Ok(());
        }
        let e = self.engine.clone();
        let result = {
            let _suspend = e.profiler.probe(e.probes.lock_wait_suspend_thread);
            let result = e.locks.acquire(self.token, obj, mode);
            if let Ok(outcome) = &result {
                // Attribute the suspension while the suspend span is open,
                // so `os_event_wait` nests under `lock_wait_suspend_thread`
                // (its call site is then the enclosing statement span).
                let waited = outcome.waited();
                if waited > 0 {
                    let now = now_nanos();
                    e.profiler
                        .add_event(e.probes.os_event_wait, now - waited, waited);
                    if e.config.record_age_remaining {
                        self.block_instants.push(now - waited);
                    }
                    if let Some(p) = &e.predictor {
                        p.observe(self.ty, obj, WEIGHT_WAIT);
                    }
                    self.conflicted = true;
                }
            }
            result
        };
        match result {
            Ok(_) => Ok(()),
            Err(LockError::Deadlock) => {
                self.note_conflict_abort(obj);
                self.engine.deadlock_aborts.fetch_add(1, Ordering::Relaxed);
                self.rollback();
                Err(EngineError::Deadlock)
            }
            Err(LockError::Timeout) => {
                self.note_conflict_abort(obj);
                self.engine.timeout_aborts.fetch_add(1, Ordering::Relaxed);
                self.rollback();
                Err(EngineError::LockTimeout)
            }
        }
    }

    /// Feed a deadlock/timeout abort on `obj` to the conflict predictor
    /// (the strongest conflict signal it learns from).
    fn note_conflict_abort(&mut self, obj: ObjectId) {
        if let Some(p) = &self.engine.predictor {
            p.observe(self.ty, obj, WEIGHT_ABORT);
        }
        self.conflicted = true;
    }

    /// Walk the index to `key`: touches the internal index pages and burns
    /// CPU proportional to the depth (inherent variance per Section 4.1).
    fn index_descent(&self, table: &TableInfo, key: RowKey) {
        let e = &self.engine;
        let _span = e.profiler.probe(e.probes.btr_cur_search_to_nth_level);
        let fanout = e.config.index_fanout;
        let depth = table.index_depth(fanout);
        for level in (1..=depth).rev() {
            e.pool.access(table.index_page(key, level, fanout), false);
        }
        cpu_work(depth as u64 * e.config.work_per_index_level);
    }

    /// Access the data page through the buffer pool.
    fn page_access(&self, table: &TableInfo, key: RowKey, write: bool) {
        let e = &self.engine;
        let _span = e.profiler.probe(e.probes.buf_page_get);
        e.pool.access(table.data_page(key), write);
    }

    /// Resolve one key against the version chain at this transaction's
    /// snapshot (mvcc read path — the lock manager is never consulted).
    /// `TooOld` aborts the transaction: its snapshot fell off a capped
    /// chain, so no consistent read is possible anymore.
    fn snapshot_read(
        &mut self,
        table: TableId,
        key: RowKey,
        snapshot: u64,
    ) -> Result<Option<Row>, EngineError> {
        let e = self.engine.clone();
        let t = e.catalog.table(table);
        e.mvcc_snapshot_reads.fetch_add(1, Ordering::Relaxed);
        if e.config.broken_snapshots {
            // Seeded bug (EngineConfig::broken_snapshots): read the newest
            // version regardless of stamp or writer — dirty reads.
            return Ok(t.get(key));
        }
        match t.read_version(key, snapshot, self.token.id.0) {
            VersionRead::Visible(row) => Ok(Some(row)),
            VersionRead::NotVisible => Ok(None),
            VersionRead::TooOld => {
                e.mvcc_too_old.fetch_add(1, Ordering::Relaxed);
                self.rollback();
                Err(EngineError::SnapshotTooOld)
            }
        }
    }

    /// Read a row: under a shared lock (s2pl), or lock-free against the
    /// begin-timestamp snapshot (mvcc).
    pub fn read(&mut self, table: TableId, key: RowKey) -> Result<Row, EngineError> {
        self.check_active()?;
        self.statement_rtt();
        let e = self.engine.clone();
        let _span = e.profiler.probe(e.probes.row_search_for_mysql);
        if let Some(snapshot) = self.snapshot {
            let t = e.catalog.table(table);
            self.index_descent(&t, key);
            self.page_access(&t, key, false);
            return self
                .snapshot_read(table, key, snapshot)?
                .ok_or(EngineError::RowNotFound { table, key });
        }
        self.acquire(Self::table_lock_obj(table), LockMode::IS)?;
        let t = e.catalog.table(table);
        self.index_descent(&t, key);
        self.acquire(Self::row_lock_obj(table, key), LockMode::S)?;
        self.page_access(&t, key, false);
        t.get(key).ok_or(EngineError::RowNotFound { table, key })
    }

    /// Read a row under an exclusive lock (select ... for update).
    pub fn read_for_update(&mut self, table: TableId, key: RowKey) -> Result<Row, EngineError> {
        self.check_active()?;
        self.statement_rtt();
        let e = self.engine.clone();
        let _span = e.profiler.probe(e.probes.row_search_for_mysql);
        self.acquire(Self::table_lock_obj(table), LockMode::IX)?;
        let t = e.catalog.table(table);
        self.index_descent(&t, key);
        self.acquire(Self::row_lock_obj(table, key), LockMode::X)?;
        self.page_access(&t, key, false);
        t.get(key).ok_or(EngineError::RowNotFound { table, key })
    }

    /// Update a row in place under an exclusive lock.
    pub fn update<F: FnOnce(&mut Row)>(
        &mut self,
        table: TableId,
        key: RowKey,
        mutate: F,
    ) -> Result<(), EngineError> {
        self.check_active()?;
        self.statement_rtt();
        let e = self.engine.clone();
        let _span = e.profiler.probe(e.probes.row_upd_step);
        self.acquire(Self::table_lock_obj(table), LockMode::IX)?;
        let t = e.catalog.table(table);
        self.index_descent(&t, key);
        self.acquire(Self::row_lock_obj(table, key), LockMode::X)?;
        self.page_access(&t, key, true);
        // A current read: the X lock means no other writer is in flight,
        // so `get` is the committed latest (or this txn's own write) in
        // both modes — write-write conflicts keep 2PL semantics.
        let mut row = t.get(key).ok_or(EngineError::RowNotFound { table, key })?;
        if self.snapshot.is_none() {
            self.undo.push(Undo::Update {
                table,
                key,
                old: row.clone(),
            });
        }
        mutate(&mut row);
        self.redo_bytes += row_bytes(&row) * e.config.redo_amplification;
        self.redo_records.push(LogRecord::Update {
            txn: self.token.id.0,
            table: table.0,
            key,
            after: row.clone(),
        });
        if self.snapshot.is_some() {
            // Tentative version, stamped with the commit ts at commit.
            if t.write_version(key, row, self.token.id.0) {
                self.writes.push((table, key));
            }
        } else {
            t.put(key, row);
        }
        Ok(())
    }

    /// Insert a row; returns its assigned key.
    pub fn insert(&mut self, table: TableId, row: Row) -> Result<RowKey, EngineError> {
        self.check_active()?;
        self.statement_rtt();
        let e = self.engine.clone();
        let _span = e.profiler.probe(e.probes.row_ins_clust_index_entry_low);
        self.acquire(Self::table_lock_obj(table), LockMode::IX)?;
        let t = e.catalog.table(table);
        let key = t.allocate_key();
        self.acquire(Self::row_lock_obj(table, key), LockMode::X)?;
        // Inherent body variance: periodic page splits cost extra CPU
        // (Section 4.1's `row_ins_clust_index_entry_low` finding).
        if e.config.split_period > 0 && key.is_multiple_of(e.config.split_period) {
            cpu_work(e.config.page_split_work);
        } else {
            cpu_work(e.config.work_per_index_level);
        }
        self.page_access(&t, key, true);
        self.redo_bytes += row_bytes(&row) * e.config.redo_amplification;
        self.redo_records.push(LogRecord::Insert {
            txn: self.token.id.0,
            table: table.0,
            key,
            row: row.clone(),
        });
        if self.snapshot.is_some() {
            // Invisible to concurrent snapshots until stamped at commit.
            if t.write_version(key, row, self.token.id.0) {
                self.writes.push((table, key));
            }
        } else {
            self.undo.push(Undo::Insert { table, key });
            t.put(key, row);
        }
        Ok(key)
    }

    /// Range scan `[lo, hi)` with shared locks on each returned row; in the
    /// Postgres personality also takes predicate locks on the range.
    pub fn scan(
        &mut self,
        table: TableId,
        lo: RowKey,
        hi: RowKey,
        limit: usize,
    ) -> Result<Vec<(RowKey, Row)>, EngineError> {
        self.check_active()?;
        self.statement_rtt();
        let e = self.engine.clone();
        let _span = e.profiler.probe(e.probes.row_search_for_mysql);
        if let Some(snapshot) = self.snapshot {
            // Snapshot scan: no table/record locks, and no predicate locks
            // either — visibility replaces the phantom guard, since keys
            // committed after the snapshot simply are not visible.
            let t = e.catalog.table(table);
            self.index_descent(&t, lo);
            let keys = t.range_keys(lo, hi, limit);
            let mut out = Vec::with_capacity(keys.len());
            for key in keys {
                self.page_access(&t, key, false);
                if let Some(row) = self.snapshot_read(table, key, snapshot)? {
                    out.push((key, row));
                }
            }
            return Ok(out);
        }
        self.acquire(Self::table_lock_obj(table), LockMode::IS)?;
        let t = e.catalog.table(table);
        self.index_descent(&t, lo);
        if e.config.personality == Personality::Postgres {
            let mut preds = e.predicate.lock();
            for bucket in (lo / PREDICATE_BUCKET)..=(hi.saturating_sub(1) / PREDICATE_BUCKET) {
                let entry = preds.entry((table, bucket)).or_default();
                if !entry.contains(&self.token.id.0) {
                    entry.push(self.token.id.0);
                    self.predicate_buckets.push((table, bucket));
                }
            }
        }
        let keys = t.range_keys(lo, hi, limit);
        let mut out = Vec::with_capacity(keys.len());
        for key in keys {
            self.acquire(Self::row_lock_obj(table, key), LockMode::S)?;
            self.page_access(&t, key, false);
            if let Some(row) = t.get(key) {
                out.push((key, row));
            }
        }
        Ok(out)
    }

    /// Commit: make redo durable per policy, release predicate locks
    /// (Postgres), then release record locks.
    pub fn commit(mut self) -> Result<(), EngineError> {
        self.check_active()?;
        let e = self.engine.clone();
        {
            let _span = e.profiler.probe(e.probes.trx_commit);
            if self.redo_bytes > 0 {
                match &e.wal {
                    WalBackend::Mysql(redo) => {
                        let mut records = std::mem::take(&mut self.redo_records);
                        records.push(LogRecord::Commit {
                            txn: self.token.id.0,
                        });
                        let typed: u64 = records.iter().map(LogRecord::encoded_len).sum();
                        let extra = self.redo_bytes.saturating_sub(typed);
                        let lsn = redo.append_records(records, extra);
                        redo.commit(lsn);
                    }
                    WalBackend::Pg(w) => {
                        // File mode: the pg writer models timing only, so
                        // the typed frames go straight to the segment log
                        // here, with an explicit durability barrier on the
                        // stripe we wrote (the writer's internal set choice
                        // flushes its own scratch device).
                        if let Some(wal) = &e.file_wal {
                            let mut records = std::mem::take(&mut self.redo_records);
                            records.push(LogRecord::Commit {
                                txn: self.token.id.0,
                            });
                            let stripe = (self.token.id.0 as usize) % wal.stripes();
                            for record in records {
                                wal.append_auto(
                                    stripe,
                                    &StampedRecord {
                                        end: Lsn(0),
                                        record,
                                    },
                                );
                            }
                            w.commit(self.redo_bytes);
                            wal.sync(stripe);
                        } else {
                            w.commit(self.redo_bytes);
                        }
                    }
                }
            }
            if e.config.personality == Personality::Postgres {
                self.release_predicate_locks();
            }
            // MVCC: stamp this transaction's tentative versions with the
            // next commit timestamp and publish it — all under the
            // snapshots mutex, so BEGIN never observes a timestamp whose
            // stamps are still being written, and still holding the X
            // locks, so no new writer can slip under an unstamped version.
            if !self.writes.is_empty() {
                let pins = e.snapshots.lock();
                let ts = e.commit_ts.load(Ordering::Relaxed) + 1;
                let floor = pins.keys().next().copied().unwrap_or(ts);
                let cap = e.config.mvcc_chain_cap;
                let mut reclaimed = 0u64;
                for (table, key) in std::mem::take(&mut self.writes) {
                    let t = e.catalog.table(table);
                    let (len, r) = t.commit_version(key, self.token.id.0, ts, floor, cap);
                    e.mvcc_chain_len.record(len as u64);
                    reclaimed += r;
                }
                e.commit_ts.store(ts, Ordering::Release);
                drop(pins);
                if reclaimed > 0 {
                    e.mvcc_gc_reclaimed.fetch_add(reclaimed, Ordering::Relaxed);
                }
            }
        }
        if let Some(s) = self.snapshot.take() {
            e.unpin_snapshot(s);
        }
        e.locks.release_all(self.token.id);
        let commit_time = now_nanos();
        if e.config.record_age_remaining && !self.block_instants.is_empty() {
            let mut samples = e.age_remaining.lock();
            for &at in &self.block_instants {
                samples.push(AgeRemainingSample {
                    txn_type: self.ty,
                    age_ns: at.saturating_sub(self.token.birth) as f64,
                    remaining_ns: commit_time.saturating_sub(at) as f64,
                });
            }
        }
        e.commits.fetch_add(1, Ordering::Relaxed);
        e.commit_latency[txn_type_slot(self.ty)]
            .record(commit_time.saturating_sub(self.token.birth));
        self.score_prediction();
        self.finished = true;
        Ok(())
    }

    /// Score the BEGIN-time hot/cold prediction against what actually
    /// happened (predictive policy only). Runs exactly once per
    /// transaction: commit and rollback are mutually exclusive exits.
    fn score_prediction(&self) {
        let e = &self.engine;
        if e.predictor.is_some() {
            e.sched_prediction_total.fetch_add(1, Ordering::Relaxed);
            if self.predicted_hot == self.conflicted {
                e.sched_prediction_hits.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Explicit rollback.
    pub fn abort(mut self) {
        if !self.finished {
            self.rollback();
        }
    }

    /// The `ReleasePredicateLocks` phase: drop this transaction's predicate
    /// entries, charging work per conflict discovered (Section 4.2).
    fn release_predicate_locks(&mut self) {
        let e = self.engine.clone();
        let _span = e.profiler.probe(e.probes.release_predicate_locks);
        let mut preds = e.predicate.lock();
        for (table, bucket) in self.predicate_buckets.drain(..) {
            if let Some(holders) = preds.get_mut(&(table, bucket)) {
                holders.retain(|&h| h != self.token.id.0);
                let conflicts = holders.len() as u64;
                cpu_work(64 * (1 + conflicts));
                if holders.is_empty() {
                    preds.remove(&(table, bucket));
                }
            }
        }
    }

    /// Undo all changes and release locks.
    fn rollback(&mut self) {
        if self.finished {
            return;
        }
        let e = self.engine.clone();
        self.redo_records.clear();
        for undo in self.undo.drain(..).rev() {
            match undo {
                Undo::Update { table, key, old } => {
                    e.catalog.table(table).put(key, old);
                }
                Undo::Insert { table, key } => {
                    e.catalog.table(table).remove(key);
                }
            }
        }
        // MVCC: pop this transaction's tentative versions (the committed
        // chain below them is untouched, so no undo images are needed),
        // then unpin the snapshot so GC's low-water mark can advance.
        for (table, key) in std::mem::take(&mut self.writes).into_iter().rev() {
            e.catalog.table(table).abort_version(key, self.token.id.0);
        }
        if let Some(s) = self.snapshot.take() {
            e.unpin_snapshot(s);
        }
        if e.config.personality == Personality::Postgres {
            let mut preds = e.predicate.lock();
            for (table, bucket) in self.predicate_buckets.drain(..) {
                if let Some(holders) = preds.get_mut(&(table, bucket)) {
                    holders.retain(|&h| h != self.token.id.0);
                    if holders.is_empty() {
                        preds.remove(&(table, bucket));
                    }
                }
            }
        }
        e.locks.release_all(self.token.id);
        e.aborts.fetch_add(1, Ordering::Relaxed);
        e.abort_latency[txn_type_slot(self.ty)]
            .record(now_nanos().saturating_sub(self.token.birth));
        self.score_prediction();
        self.finished = true;
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        if !self.finished {
            self.rollback();
        }
        // Guards close in field order: root span, then the trace guard.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use tpd_common::dist::ServiceTime;
    use tpd_common::DiskConfig;
    use tpd_core::Policy;

    fn fast_config() -> EngineConfig {
        let quick = DiskConfig {
            service: ServiceTime::Fixed(20_000),
            ns_per_byte: 0.0,
            seed: 5,
        };
        EngineConfig {
            data_disk: quick.clone(),
            log_disks: vec![quick],
            ..EngineConfig::mysql(Policy::Fcfs)
        }
    }

    fn engine_with_table() -> (Arc<Engine>, TableId) {
        let e = Engine::new(fast_config());
        let t = e.catalog().create_table("t", 16);
        {
            let mut txn = e.begin(0);
            for i in 0..50 {
                txn.insert(t, vec![i, 0]).expect("insert");
            }
            txn.commit().expect("setup commit");
        }
        (e, t)
    }

    #[test]
    fn crud_roundtrip() {
        let (e, t) = engine_with_table();
        let mut txn = e.begin(0);
        let row = txn.read(t, 5).expect("read");
        assert_eq!(row, vec![5, 0]);
        txn.update(t, 5, |r| r[1] = 99).expect("update");
        assert_eq!(txn.read(t, 5).expect("reread"), vec![5, 99]);
        let new_key = txn.insert(t, vec![123, 0]).expect("insert");
        assert!(new_key >= 50);
        txn.commit().expect("commit");
        assert_eq!(e.stats().commits, 2);
    }

    #[test]
    fn missing_row_errors_without_poisoning_txn() {
        let (e, t) = engine_with_table();
        let mut txn = e.begin(0);
        let err = txn.read(t, 9999).expect_err("missing row");
        assert!(matches!(err, EngineError::RowNotFound { .. }));
        // Transaction still usable.
        assert!(txn.read(t, 1).is_ok());
        txn.commit().expect("commit");
    }

    #[test]
    fn drop_without_commit_rolls_back() {
        let (e, t) = engine_with_table();
        {
            let mut txn = e.begin(0);
            txn.update(t, 3, |r| r[1] = 7).expect("update");
            // dropped here
        }
        let mut check = e.begin(0);
        assert_eq!(check.read(t, 3).expect("read"), vec![3, 0], "rolled back");
        check.commit().expect("commit");
        assert_eq!(e.stats().aborts, 1);
    }

    #[test]
    fn abort_undoes_insert() {
        let (e, t) = engine_with_table();
        let before = e.catalog.table(t).len();
        let mut txn = e.begin(0);
        txn.insert(t, vec![1, 1]).expect("insert");
        txn.abort();
        assert_eq!(e.catalog.table(t).len(), before);
    }

    #[test]
    fn scan_returns_range() {
        let (e, t) = engine_with_table();
        let mut txn = e.begin(0);
        let rows = txn.scan(t, 10, 15, 100).expect("scan");
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].0, 10);
        txn.commit().expect("commit");
    }

    #[test]
    fn concurrent_increments_are_serializable() {
        let (e, t) = engine_with_table();
        let threads = 4;
        let per_thread = 10;
        let mut handles = Vec::new();
        for _ in 0..threads {
            let e = e.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..per_thread {
                    loop {
                        let mut txn = e.begin(0);
                        match txn.update(t, 0, |r| r[1] += 1) {
                            Ok(()) => {
                                txn.commit().expect("commit");
                                break;
                            }
                            Err(EngineError::Deadlock | EngineError::LockTimeout) => {
                                continue; // retry with a fresh txn
                            }
                            Err(other) => panic!("unexpected {other:?}"),
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().expect("worker");
        }
        let mut check = e.begin(0);
        let row = check.read(t, 0).expect("read");
        assert_eq!(row[1], (threads * per_thread) as i64);
        check.commit().expect("commit");
    }

    #[test]
    fn deadlocks_are_detected_and_recovered() {
        let (e, t) = engine_with_table();
        // Two transactions locking {1,2} in opposite orders, repeatedly.
        let e2 = e.clone();
        let h = std::thread::spawn(move || {
            for _ in 0..20 {
                let mut txn = e2.begin(0);
                if txn.update(t, 1, |r| r[1] += 1).is_ok()
                    && txn.update(t, 2, |r| r[1] += 1).is_ok()
                {
                    let _ = txn.commit();
                }
            }
        });
        for _ in 0..20 {
            let mut txn = e.begin(0);
            if txn.update(t, 2, |r| r[1] += 1).is_ok() && txn.update(t, 1, |r| r[1] += 1).is_ok() {
                let _ = txn.commit();
            }
        }
        h.join().expect("worker");
        // No hang is the main assertion; typically some deadlocks occurred.
        let s = e.stats();
        assert!(s.commits > 0);
        // Rows 1 and 2 saw the same number of successful +1s.
        let mut check = e.begin(0);
        let r1 = check.read(t, 1).expect("r1");
        let r2 = check.read(t, 2).expect("r2");
        assert_eq!(r1[1], r2[1], "atomicity under deadlock aborts");
        check.commit().expect("commit");
    }

    #[test]
    fn read_only_commit_skips_wal() {
        let (e, t) = engine_with_table();
        let flushes_before = e.redo_stats().expect("mysql").flushes;
        let mut txn = e.begin(0);
        txn.read(t, 1).expect("read");
        txn.commit().expect("commit");
        assert_eq!(e.redo_stats().expect("mysql").flushes, flushes_before);
    }

    #[test]
    fn postgres_personality_predicate_locks_cycle() {
        let quick = DiskConfig {
            service: ServiceTime::Fixed(20_000),
            ns_per_byte: 0.0,
            seed: 5,
        };
        let cfg = EngineConfig {
            data_disk: quick.clone(),
            log_disks: vec![quick],
            ..EngineConfig::postgres()
        };
        let e = Engine::new(cfg);
        let t = e.catalog().create_table("t", 16);
        {
            let mut setup = e.begin(0);
            for i in 0..10 {
                setup.insert(t, vec![i]).expect("insert");
            }
            setup.commit().expect("commit");
        }
        let mut txn = e.begin(0);
        txn.scan(t, 0, 10, 100).expect("scan");
        assert!(!e.predicate.lock().is_empty(), "predicate lock registered");
        txn.commit().expect("commit");
        assert!(e.predicate.lock().is_empty(), "predicate locks released");
        assert!(e.pg_wal_stats().is_some());
        assert!(e.redo_stats().is_none());
    }

    #[test]
    fn age_remaining_sampling() {
        let mut cfg = fast_config();
        cfg.record_age_remaining = true;
        let e = Engine::new(cfg);
        let t = e.catalog().create_table("t", 16);
        {
            let mut setup = e.begin(0);
            setup.insert(t, vec![0, 0]).expect("insert");
            setup.commit().expect("commit");
        }
        // Create one blocking wait.
        let e2 = e.clone();
        let h = std::thread::spawn(move || {
            let mut a = e2.begin(1);
            a.update(t, 0, |r| r[1] += 1).expect("lock");
            std::thread::sleep(std::time::Duration::from_millis(10));
            a.commit().expect("commit");
        });
        std::thread::sleep(std::time::Duration::from_millis(2));
        let mut b = e.begin(2);
        b.update(t, 0, |r| r[1] += 1).expect("blocked then granted");
        b.commit().expect("commit");
        h.join().expect("holder");
        let samples = e.drain_age_remaining();
        assert!(!samples.is_empty(), "blocking produced a sample");
        let s = samples
            .iter()
            .find(|s| s.txn_type == 2)
            .expect("blocked txn sampled");
        assert!(s.remaining_ns > 0.0);
    }

    fn mvcc_config() -> EngineConfig {
        EngineConfig {
            concurrency: Concurrency::Mvcc,
            ..fast_config()
        }
    }

    #[test]
    fn mvcc_snapshot_reads_bypass_locks_and_skip_writers() {
        let e = Engine::new(mvcc_config());
        let t = e.catalog().create_table("t", 16);
        {
            let mut setup = e.begin(0);
            for i in 0..10 {
                setup.insert(t, vec![i, 0]).expect("insert");
            }
            setup.commit().expect("setup");
        }
        // Writer holds an X lock on key 5 across the reader's statements.
        let mut w = e.begin(0);
        w.update(t, 5, |r| r[1] = 99).expect("update");
        let acquires_before = e.locks().stats().acquires;
        let mut r = e.begin(0);
        // Under s2pl this read would block on the X lock; here it returns
        // the committed version immediately, without touching the manager.
        assert_eq!(r.read(t, 5).expect("read"), vec![5, 0]);
        assert_eq!(r.scan(t, 0, 10, 100).expect("scan").len(), 10);
        assert_eq!(
            e.locks().stats().acquires,
            acquires_before,
            "snapshot reads took no locks"
        );
        w.commit().expect("writer commit");
        assert_eq!(
            r.read(t, 5).expect("reread"),
            vec![5, 0],
            "repeatable read: commit after my begin stays invisible"
        );
        r.commit().expect("reader commit");
        let mut r2 = e.begin(0);
        assert_eq!(r2.read(t, 5).expect("read"), vec![5, 99], "fresh snapshot");
        r2.commit().expect("commit");
        assert_eq!(e.active_snapshots(), 0, "all snapshots unpinned");
    }

    #[test]
    fn mvcc_insert_invisible_until_commit_and_to_older_snapshots() {
        let e = Engine::new(mvcc_config());
        let t = e.catalog().create_table("t", 16);
        {
            let mut setup = e.begin(0);
            for i in 0..3 {
                setup.insert(t, vec![i]).expect("insert");
            }
            setup.commit().expect("setup");
        }
        let mut r = e.begin(0);
        let mut w = e.begin(0);
        let k = w.insert(t, vec![7]).expect("insert");
        assert!(matches!(r.read(t, k), Err(EngineError::RowNotFound { .. })));
        assert!(
            r.scan(t, 0, k + 1, 100)
                .expect("scan")
                .iter()
                .all(|(key, _)| *key != k),
            "tentative insert filtered from scans"
        );
        w.commit().expect("writer commit");
        assert!(
            matches!(r.read(t, k), Err(EngineError::RowNotFound { .. })),
            "committed insert still invisible to the older snapshot"
        );
        r.commit().expect("reader commit");
        let mut r2 = e.begin(0);
        assert_eq!(r2.read(t, k).expect("read"), vec![7]);
        r2.commit().expect("commit");
    }

    #[test]
    fn mvcc_rollback_restores_chain_and_unpins() {
        let e = Engine::new(mvcc_config());
        let t = e.catalog().create_table("t", 16);
        {
            let mut setup = e.begin(0);
            setup.insert(t, vec![0, 0]).expect("insert");
            setup.commit().expect("setup");
        }
        let before = e.catalog.table(t).len();
        {
            let mut txn = e.begin(0);
            txn.update(t, 0, |r| r[1] = 5).expect("update");
            txn.insert(t, vec![9, 9]).expect("insert");
            assert_eq!(e.active_snapshots(), 1);
            // dropped: rollback
        }
        assert_eq!(e.active_snapshots(), 0, "rollback unpinned the snapshot");
        assert_eq!(e.catalog.table(t).len(), before, "insert vanished");
        assert_eq!(e.catalog.table(t).chain_len(0), 1, "tentative popped");
        let mut check = e.begin(0);
        assert_eq!(check.read(t, 0).expect("read"), vec![0, 0]);
        check.commit().expect("commit");
    }

    #[test]
    fn mvcc_chain_cap_forces_snapshot_too_old() {
        let mut cfg = mvcc_config();
        cfg.mvcc_chain_cap = 2;
        let e = Engine::new(cfg);
        let t = e.catalog().create_table("t", 16);
        {
            let mut setup = e.begin(0);
            setup.insert(t, vec![0, 0]).expect("insert");
            setup.commit().expect("setup");
        }
        let mut old = e.begin(0); // pins the pre-update snapshot
        for i in 0..5 {
            let mut w = e.begin(0);
            w.update(t, 0, |r| r[1] = i).expect("update");
            w.commit().expect("commit");
        }
        let err = old
            .read(t, 0)
            .expect_err("snapshot fell off the capped chain");
        assert_eq!(err, EngineError::SnapshotTooOld);
        assert!(
            matches!(old.read(t, 0), Err(EngineError::TxnFinished)),
            "too-old rolled the transaction back"
        );
        drop(old);
        assert_eq!(e.active_snapshots(), 0);
        let snap = e.metrics_snapshot();
        assert!(snap.counters.get("mvcc.gc_reclaimed_total").copied() > Some(0));
        assert_eq!(snap.counters.get("mvcc.snapshot_too_old_total"), Some(&1));
    }

    #[test]
    fn broken_snapshots_bug_exposes_dirty_reads() {
        let mut cfg = mvcc_config();
        cfg.broken_snapshots = true;
        let e = Engine::new(cfg);
        let t = e.catalog().create_table("t", 16);
        {
            let mut setup = e.begin(0);
            setup.insert(t, vec![0, 0]).expect("insert");
            setup.commit().expect("setup");
        }
        let mut w = e.begin(0);
        w.update(t, 0, |r| r[1] = 42).expect("update");
        let mut r = e.begin(0);
        assert_eq!(
            r.read(t, 0).expect("read"),
            vec![0, 42],
            "seeded bug: uncommitted write is visible"
        );
        w.abort();
        r.commit().expect("commit");
    }

    #[test]
    fn profiling_produces_traces_with_paper_functions() {
        let (e, t) = engine_with_table();
        e.enable_full_profiling();
        for i in 0..5 {
            let mut txn = e.begin(0);
            txn.read(t, i).expect("read");
            txn.update(t, i, |r| r[1] += 1).expect("update");
            txn.commit().expect("commit");
        }
        let traces = e.profiler().drain_traces();
        assert_eq!(traces.len(), 5);
        let g = e.profiler().graph();
        let names: std::collections::HashSet<&str> = traces
            .iter()
            .flat_map(|t| t.events.iter().map(|ev| g.name(ev.func)))
            .collect();
        for expected in [
            "execute_transaction",
            "row_search_for_mysql",
            "row_upd_step",
            "btr_cur_search_to_nth_level",
            "buf_page_get",
            "trx_commit",
        ] {
            assert!(names.contains(expected), "missing {expected}: {names:?}");
        }
    }

    #[test]
    fn predictor_absent_unless_policy_is_predictive() {
        let (e, _) = engine_with_table();
        assert!(e.predictor().is_none());
        let snap = e.metrics_snapshot();
        assert!(!snap.counters.contains_key("sched.predicted_conflicts"));
        assert!(!snap.counters.contains_key("sched.prediction_hit_rate"));
    }

    #[test]
    fn predictive_engine_learns_and_stamps_footprints() {
        let cfg = EngineConfig {
            lock_policy: Policy::Predictive,
            ..fast_config()
        };
        let e = Engine::new(cfg);
        let t = e.catalog().create_table("t", 16);
        {
            let mut setup = e.begin(0);
            for i in 0..8 {
                setup.insert(t, vec![i, 0]).expect("insert");
            }
            setup.commit().expect("setup");
        }
        let p = e
            .predictor()
            .expect("predictive policy has a predictor")
            .clone();
        assert_eq!(
            e.begin_with_keys(1, &[(t, 3)]).footprint(),
            0,
            "no history yet"
        );
        // Teach the predictor that key 3 is hot, straight through its
        // observation API (the engine feeds it the same way from waits).
        for _ in 0..8 {
            p.observe(1, Txn::row_lock_obj(t, 3), WEIGHT_ABORT);
        }
        let hot = e.begin_with_keys(1, &[(t, 3)]);
        assert!(hot.footprint() > 0, "learned footprint stamped at BEGIN");
        assert!(hot.predicted_hot());
        drop(hot);
        let snap = e.metrics_snapshot();
        assert!(snap.counters["sched.predicted_conflicts"] >= 1);
        assert!(snap.counters["sched.prediction_total"] >= 1);
        assert_eq!(snap.counters["sched.conflict_events"], 8);
        assert!(snap.counters["sched.prediction_hit_rate"] <= 100);
    }

    #[test]
    fn predictive_engine_observes_real_lock_waits() {
        let cfg = EngineConfig {
            lock_policy: Policy::Predictive,
            lock_timeout: Some(Duration::from_secs(5)),
            ..fast_config()
        };
        let e = Engine::new(cfg);
        let t = e.catalog().create_table("t", 16);
        {
            let mut setup = e.begin(0);
            setup.insert(t, vec![0, 0]).expect("insert");
            setup.commit().expect("setup");
        }
        let p = e.predictor().expect("predictor").clone();
        // Writer holds the row; a second thread must wait on it.
        let mut holder = e.begin(0);
        holder.update(t, 0, |r| r[1] = 1).expect("hold X lock");
        let e2 = e.clone();
        let waiter = std::thread::spawn(move || {
            let mut w = e2.begin(0);
            w.update(t, 0, |r| r[1] = 2).expect("eventually granted");
            w.commit().expect("commit");
        });
        while e.locks().outstanding().1 == 0 {
            std::thread::yield_now();
        }
        holder.commit().expect("release");
        waiter.join().expect("waiter thread");
        assert!(p.events() >= 1, "the wait fed the predictor");
        let snap = e.metrics_snapshot();
        assert!(snap.counters["sched.conflict_events"] >= 1);
    }
}
