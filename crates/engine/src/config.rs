//! Engine configuration: personality, scheduling, storage, and logging
//! knobs — every tuning parameter the paper sweeps has a field here.

use std::path::PathBuf;
use std::time::Duration;

use tpd_core::{Policy, VictimPolicy};
use tpd_storage::{MutexPolicy, PoolConfig};
use tpd_wal::{AppendMode, FlushPolicy, WalFaultPlan, WalWriterConfig};

use tpd_common::dist::ServiceTime;
use tpd_common::{DiskConfig, FaultPlan};

/// Which system the engine imitates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Personality {
    /// InnoDB-style: per-record lock scheduling, buffer pool, redo flush
    /// policies.
    Mysql,
    /// Postgres-style: WALWriteLock commit path, predicate locks.
    Postgres,
}

/// Where the log physically lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiskBackend {
    /// Simulated devices with service-time models — deterministic under
    /// the virtual clock, byte-identical digests across runs. The default.
    #[default]
    Sim,
    /// Real files: CRC-framed append-only segments plus a checkpoint under
    /// [`EngineConfig::data_dir`], with ARIES-style redo on reopen.
    File,
}

impl std::str::FromStr for DiskBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sim" => Ok(DiskBackend::Sim),
            "file" => Ok(DiskBackend::File),
            other => Err(format!("unknown disk backend: {other:?} (sim|file)")),
        }
    }
}

/// Concurrency-control mode for the read path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Concurrency {
    /// Strict two-phase locking for everything — the paper-faithful mode:
    /// reads take IS/S record locks and hold them to commit. The default.
    #[default]
    S2pl,
    /// MVCC-lite: plain reads and scans resolve against a begin-timestamp
    /// snapshot over per-record version chains and never touch the lock
    /// manager. Writes (and `read_for_update`) keep strict 2PL, so
    /// write-write conflicts behave exactly as under [`Concurrency::S2pl`];
    /// new versions are stamped with the commit timestamp at commit. See
    /// DESIGN.md §13.
    Mvcc,
}

impl std::str::FromStr for Concurrency {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "s2pl" | "2pl" => Ok(Concurrency::S2pl),
            "mvcc" => Ok(Concurrency::Mvcc),
            other => Err(format!("unknown concurrency mode: {other:?} (s2pl|mvcc)")),
        }
    }
}

impl std::fmt::Display for Concurrency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Concurrency::S2pl => "s2pl",
            Concurrency::Mvcc => "mvcc",
        })
    }
}

/// Full engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// MySQL or Postgres behaviour on the commit/locking paths.
    pub personality: Personality,
    /// Lock scheduling policy (the paper's FCFS / VATS / RS).
    pub lock_policy: Policy,
    /// Deadlock victim selection.
    pub victim: VictimPolicy,
    /// Lock wait timeout (liveness fallback).
    pub lock_timeout: Option<Duration>,
    /// Lock-table shards (`0` = auto: `min(16, cores)` as a power of two).
    /// The paper presets pin this to `1` — the single lock-system-mutex
    /// layout of the InnoDB 5.6 the paper profiled.
    pub lock_shards: usize,
    /// Buffer-pool configuration (frames, old/young split, LLU).
    pub pool: PoolConfig,
    /// MySQL redo durability policy.
    pub flush_policy: FlushPolicy,
    /// Background flusher period for lazy policies.
    pub flush_interval: Duration,
    /// Configuration of the one WAL append mechanism (both
    /// personalities): `Lockfree` reserves log space with one `fetch_add`
    /// and parks committers that lose the flush-baton race; `Mutex`
    /// serializes each append on the log's append mutex and makes
    /// committers block on the baton — the paper's serialized log. The
    /// paper-faithful presets pin `Mutex`.
    pub wal_append: AppendMode,
    /// Parallel redo logs for the MySQL personality, in either append
    /// mode (records stripe by txn id, epoch-ordered commit acks). The
    /// Postgres analogue is [`WalWriterConfig::sets`].
    pub log_writers: usize,
    /// Postgres WAL configuration (sets, block size).
    pub wal: WalWriterConfig,
    /// Whether the WAL lives on simulated devices or real segment files.
    pub disk_backend: DiskBackend,
    /// Data directory for [`DiskBackend::File`] (segments + checkpoint).
    /// Required when the backend is `File`; ignored for `Sim`.
    pub data_dir: Option<PathBuf>,
    /// Segment rotation size for [`DiskBackend::File`].
    pub wal_rotate_bytes: u64,
    /// Data device model.
    pub data_disk: DiskConfig,
    /// Log device model(s); one per WAL set (Postgres) or the first one
    /// (MySQL).
    pub log_disks: Vec<DiskConfig>,
    /// B-tree fanout used to derive index depth from table size.
    pub index_fanout: u64,
    /// CPU work units per index level descended.
    pub work_per_index_level: u64,
    /// Extra CPU work on inserts that trigger a (modeled) page split.
    pub page_split_work: u64,
    /// A page split is charged every `split_period` inserts per table.
    pub split_period: u64,
    /// Redo bytes written per logical row byte (real engines log images,
    /// index entries, and headers far larger than the row delta; Postgres
    /// additionally logs full pages after checkpoints). Drives how many WAL
    /// blocks a commit spans in the Fig. 4 block-size sweep.
    pub redo_amplification: u64,
    /// Per-statement client round-trip model: each statement (read, update,
    /// insert, scan) pauses this long before touching the engine, modeling
    /// the SQL-over-network execution of the paper's OLTP-Bench setup.
    /// Locks are therefore held across round trips — the regime in which
    /// lock scheduling matters. `None` disables (embedded execution).
    pub statement_rtt: Option<ServiceTime>,
    /// Record the (age, remaining-time) samples for Fig. 8.
    pub record_age_remaining: bool,
    /// Rng seed for the engine's internal randomness.
    pub seed: u64,
    /// Fault plan for the data device (stalls, spikes).
    pub data_faults: Option<FaultPlan>,
    /// Fault plan for the log device(s).
    pub log_faults: Option<FaultPlan>,
    /// WAL-level faults (crash-at-LSN, torn tails, ack-before-flush).
    pub wal_faults: Option<WalFaultPlan>,
    /// Suppress the redo log's background flusher; the harness flushes at
    /// seeded points via [`crate::Engine::wal_flush_now`] so lazy-policy
    /// runs stay deterministic.
    pub wal_manual_flush: bool,
    /// Seeded bug: bypass all lock acquisition. Statements execute with no
    /// isolation whatsoever, so interleaved transactions produce lost
    /// updates and dirty reads. Exists so the torture harness can prove
    /// its serializability checker catches real violations.
    pub skip_locking: bool,
    /// Concurrency-control mode for the read path: strict 2PL (default,
    /// paper-faithful) or snapshot reads over version chains (`mvcc`).
    pub concurrency: Concurrency,
    /// Maximum committed versions retained per record under
    /// [`Concurrency::Mvcc`], beyond what the GC low-water mark would keep.
    /// A chain forced below a live snapshot's horizon turns that reader's
    /// next access into [`crate::EngineError::SnapshotTooOld`].
    pub mvcc_chain_cap: usize,
    /// Seeded bug: under [`Concurrency::Mvcc`], snapshot reads ignore the
    /// visibility rule and return the newest version — including other
    /// transactions' uncommitted writes. Dirty/non-repeatable reads the
    /// torture checker must flag (the mvcc analogue of `skip_locking`).
    pub broken_snapshots: bool,
    /// Footprints at or above this (Q16 fixed point) classify a
    /// transaction as *predicted hot* under [`Policy::Predictive`] — the
    /// input to `sched.predicted_conflicts` and the admission
    /// controller's defer-hot gate. Ignored by every other policy.
    pub predict_hot_threshold: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        let log_disk = DiskConfig {
            // Log devices: sequential writes, modest variability.
            service: ServiceTime::LogNormal {
                median: 150_000,
                sigma: 0.35,
            },
            ns_per_byte: 1.0,
            seed: 0x10F5,
        };
        EngineConfig {
            personality: Personality::Mysql,
            lock_policy: Policy::Fcfs,
            victim: VictimPolicy::Youngest,
            lock_timeout: Some(Duration::from_secs(10)),
            lock_shards: 0,
            pool: PoolConfig::default(),
            flush_policy: FlushPolicy::Eager,
            flush_interval: Duration::from_millis(10),
            wal_append: AppendMode::Lockfree,
            log_writers: 1,
            wal: WalWriterConfig::default(),
            disk_backend: DiskBackend::Sim,
            data_dir: None,
            wal_rotate_bytes: tpd_wal::FileWal::DEFAULT_ROTATE_BYTES,
            data_disk: DiskConfig {
                service: ServiceTime::LogNormal {
                    median: 200_000,
                    sigma: 0.4,
                },
                ns_per_byte: 2.0,
                seed: 0xDA7A,
            },
            log_disks: vec![log_disk],
            index_fanout: 64,
            work_per_index_level: 96,
            page_split_work: 4096,
            split_period: 32,
            redo_amplification: 1,
            statement_rtt: None,
            record_age_remaining: false,
            seed: 0x5EED,
            data_faults: None,
            log_faults: None,
            wal_faults: None,
            wal_manual_flush: false,
            skip_locking: false,
            concurrency: Concurrency::S2pl,
            mvcc_chain_cap: 16,
            broken_snapshots: false,
            predict_hot_threshold: tpd_core::PredictorConfig::default().hot_threshold,
        }
    }
}

impl EngineConfig {
    /// MySQL personality with the given lock policy (the Table 4 matrix).
    pub fn mysql(policy: Policy) -> Self {
        EngineConfig {
            personality: Personality::Mysql,
            lock_policy: policy,
            ..Default::default()
        }
    }

    /// Postgres personality (FCFS locks, single WAL set).
    pub fn postgres() -> Self {
        EngineConfig {
            personality: Personality::Postgres,
            ..Default::default()
        }
    }

    /// Memory-pressured variant (the paper's 2-WH setup): a pool far
    /// smaller than the working set.
    pub fn with_pool_frames(mut self, frames: usize) -> Self {
        self.pool.frames = frames;
        self
    }

    /// Use the paper's Lazy LRU Update with the given spin budget.
    pub fn with_llu(mut self, spin_budget: Duration) -> Self {
        self.pool.mutex_policy = MutexPolicy::Llu { spin_budget };
        self
    }

    /// Set the redo flush policy (MySQL).
    pub fn with_flush_policy(mut self, policy: FlushPolicy) -> Self {
        self.flush_policy = policy;
        self
    }

    /// Enable the paper's parallel logging (Postgres) with `sets` log sets.
    pub fn with_parallel_logging(mut self, sets: usize) -> Self {
        self.wal.sets = sets;
        while self.log_disks.len() < sets {
            let mut d = self.log_disks[0].clone();
            d.seed = d.seed.wrapping_add(self.log_disks.len() as u64 * 7919);
            self.log_disks.push(d);
        }
        self.log_disks.truncate(sets.max(1));
        self
    }

    /// Select the WAL append path (both personalities).
    pub fn with_wal_append(mut self, mode: AppendMode) -> Self {
        self.wal_append = mode;
        self
    }

    /// Run `k` parallel redo logs (MySQL personality, lockfree append),
    /// provisioning one log device per writer.
    pub fn with_log_writers(mut self, k: usize) -> Self {
        self.log_writers = k.max(1);
        while self.log_disks.len() < self.log_writers {
            let mut d = self.log_disks[0].clone();
            d.seed = d.seed.wrapping_add(self.log_disks.len() as u64 * 7919);
            self.log_disks.push(d);
        }
        self
    }

    /// Set the lock-table shard count (`0` = auto).
    pub fn with_lock_shards(mut self, shards: usize) -> Self {
        self.lock_shards = shards;
        self
    }

    /// Set the WAL block size (Postgres, Fig. 4 right).
    pub fn with_block_size(mut self, bytes: u64) -> Self {
        self.wal.block_size = bytes;
        self
    }

    /// Enable the per-statement round-trip model with a fixed delay.
    pub fn with_statement_rtt(mut self, rtt: std::time::Duration) -> Self {
        self.statement_rtt = Some(ServiceTime::Fixed(rtt.as_nanos() as u64));
        self
    }

    /// Inject device faults: `data` perturbs the data disk, `log` every
    /// log disk.
    pub fn with_disk_faults(mut self, data: Option<FaultPlan>, log: Option<FaultPlan>) -> Self {
        self.data_faults = data;
        self.log_faults = log;
        self
    }

    /// Inject WAL-level faults (crash points, torn tails, commit-ack bugs).
    pub fn with_wal_faults(mut self, plan: WalFaultPlan) -> Self {
        self.wal_faults = Some(plan);
        self
    }

    /// Disable the redo log's background flusher (deterministic harness
    /// mode); flush via [`crate::Engine::wal_flush_now`].
    pub fn with_manual_wal_flush(mut self) -> Self {
        self.wal_manual_flush = true;
        self
    }

    /// Select the concurrency-control mode (see [`Concurrency`]).
    pub fn with_concurrency(mut self, mode: Concurrency) -> Self {
        self.concurrency = mode;
        self
    }

    /// Put the WAL on real segment files under `dir` (see
    /// [`DiskBackend::File`]). The engine recovers any existing log there
    /// on construction; call [`crate::Engine::recover_from_disk`] to apply
    /// what it found.
    pub fn with_file_backend(mut self, dir: impl Into<PathBuf>) -> Self {
        self.disk_backend = DiskBackend::File;
        self.data_dir = Some(dir.into());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let c = EngineConfig::mysql(Policy::Vats)
            .with_pool_frames(64)
            .with_llu(Duration::from_micros(10))
            .with_flush_policy(FlushPolicy::LazyFlush)
            .with_lock_shards(4);
        assert_eq!(c.lock_policy, Policy::Vats);
        assert_eq!(c.pool.frames, 64);
        assert_eq!(c.lock_shards, 4);
        assert!(matches!(c.pool.mutex_policy, MutexPolicy::Llu { .. }));
        assert_eq!(c.flush_policy, FlushPolicy::LazyFlush);
    }

    #[test]
    fn parallel_logging_provisions_disks() {
        let c = EngineConfig::postgres().with_parallel_logging(2);
        assert_eq!(c.wal.sets, 2);
        assert_eq!(c.log_disks.len(), 2);
        assert_ne!(c.log_disks[0].seed, c.log_disks[1].seed);
    }

    #[test]
    fn default_is_mysql_fcfs() {
        let c = EngineConfig::default();
        assert_eq!(c.personality, Personality::Mysql);
        assert_eq!(c.lock_policy, tpd_core::Policy::Fcfs);
        assert_eq!(c.concurrency, Concurrency::S2pl);
    }

    #[test]
    fn predictive_policy_carries_the_hot_threshold() {
        let c = EngineConfig::mysql(Policy::Predictive);
        assert_eq!(c.lock_policy, Policy::Predictive);
        assert_eq!(
            c.predict_hot_threshold,
            tpd_core::PredictorConfig::default().hot_threshold
        );
    }

    #[test]
    fn concurrency_parses_and_displays() {
        assert_eq!("s2pl".parse::<Concurrency>(), Ok(Concurrency::S2pl));
        assert_eq!("mvcc".parse::<Concurrency>(), Ok(Concurrency::Mvcc));
        assert!("si".parse::<Concurrency>().is_err());
        assert_eq!(Concurrency::Mvcc.to_string(), "mvcc");
        let c = EngineConfig::default().with_concurrency(Concurrency::Mvcc);
        assert_eq!(c.concurrency, Concurrency::Mvcc);
    }
}
