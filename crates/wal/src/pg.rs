//! Postgres-style WAL with a global `WALWriteLock`, and the paper's
//! parallel-logging variant.
//!
//! In Postgres, a committing backend calls `LWLockAcquireOrWait` on the
//! single `WALWriteLock`; the variance of that wait accounts for 76.8% of
//! Postgres's overall transaction-latency variance (Table 2). The holder
//! flushes everything buffered, so blocked backends frequently find their
//! records already durable when the lock releases — group commit.
//!
//! Flush cost is block-quantized: a flush of `b` bytes writes
//! `ceil(b / block_size)` whole blocks. Larger blocks mean fewer device
//! operations but more padding — the trade-off swept in Figure 4 (right).
//!
//! [`WalWriterConfig::sets`] > 1 enables the paper's parallel logging
//! (Section 6.2): multiple independent log sets, each with its own device
//! and lock. A committer takes any free set; when all are busy it waits on
//! the set with the fewest waiters.
//!
//! Each set is one [`Stripe`] (see [`crate::lockfree`]); its flush baton
//! is the set's `WALWriteLock`. One mechanism, two configurations:
//!
//! * **Mutex** — backends serialize their appends on the set's append
//!   mutex and block on the baton until they can flush or find their
//!   bytes flushed, faithful to the measured pathology.
//! * **Lockfree** — a backend claims its WAL bytes with one `fetch_add`
//!   on the set's reserved cursor, publishes through the sequence-word
//!   ring, and either grabs the baton or parks until a flush round
//!   covers its bytes.
//!
//! In both, the `LWLockAcquireOrWait` probe times only the wait for the
//! baton (blocked or parked), never the backend's own write and fsync.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tpd_common::clock::now_nanos;
use tpd_common::disk::DiskDevice;
use tpd_metrics::{Histogram, HistogramSnapshot};
use tpd_profiler::{FuncId, Profiler};

use crate::lockfree::{AppendMode, Stripe};

/// Configuration for the WAL writer.
#[derive(Debug, Clone)]
pub struct WalWriterConfig {
    /// Number of independent log sets (1 = stock Postgres; 2 = the paper's
    /// parallel logging).
    pub sets: usize,
    /// WAL block size in bytes (Postgres default 8 KiB).
    pub block_size: u64,
    /// Fixed cost per block written (write(2) syscall + device command
    /// overhead), spent on the flush critical path. This is what larger
    /// blocks amortize in the Fig. 4 sweep.
    pub per_block_overhead: std::time::Duration,
    /// Injected WAL faults. Only `ack_before_flush` applies to this
    /// personality: commit takes its ticket and returns without flushing,
    /// so acked bytes sit in the pending batch until someone else's
    /// commit flushes them.
    pub faults: Option<crate::WalFaultPlan>,
    /// Stripe configuration: mutex-serialized (paper-faithful) or
    /// reserve-then-copy.
    pub append: AppendMode,
}

impl Default for WalWriterConfig {
    fn default() -> Self {
        WalWriterConfig {
            sets: 1,
            block_size: 8 * 1024,
            per_block_overhead: std::time::Duration::from_micros(150),
            faults: None,
            append: AppendMode::Lockfree,
        }
    }
}

/// Profiler hookup for the paper-named probe site.
#[derive(Debug, Clone)]
pub struct PgWalProbes {
    /// The engine's profiler.
    pub profiler: Arc<Profiler>,
    /// `LWLockAcquireOrWait` — wait for the WALWriteLock (the set's
    /// flush baton).
    pub lwlock_acquire: FuncId,
}

/// Cumulative statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalWriterStats {
    /// Commit calls.
    pub commits: u64,
    /// Device flush operations (sum over sets).
    pub flushes: u64,
    /// Commits satisfied by another backend's flush.
    pub group_commits: u64,
    /// Blocks written (including padding).
    pub blocks_written: u64,
    /// Payload bytes requested (before padding).
    pub bytes_requested: u64,
    /// Total ns spent waiting for a WALWriteLock (excluding the holder's
    /// own write and fsync).
    pub lock_wait_ns: u64,
}

/// One log set: its device and stripe.
#[derive(Debug)]
struct LogSet {
    disk: Arc<dyn DiskDevice>,
    /// Byte-counted stripe (pg commits retain no typed records).
    stripe: Stripe,
}

/// The WAL writer. See module docs.
#[derive(Debug)]
pub struct WalWriter {
    sets: Vec<LogSet>,
    config: WalWriterConfig,
    probes: Option<PgWalProbes>,
    commits: AtomicU64,
    flushes: AtomicU64,
    group_commits: AtomicU64,
    blocks_written: AtomicU64,
    bytes_requested: AtomicU64,
    lock_wait_ns: AtomicU64,
    /// WALWriteLock wait per commit (ns).
    lock_wait_hist: Histogram,
    /// Blocks written per flush batch (including padding).
    batch_hist: Histogram,
    /// Append-path reservation latency (ns).
    reserve_hist: Histogram,
    /// Commits acknowledged per fsync (group-commit batch size).
    group_batch_hist: Histogram,
}

impl WalWriter {
    /// Create a writer with one device per set.
    pub fn new(
        config: WalWriterConfig,
        disks: Vec<Arc<dyn DiskDevice>>,
        probes: Option<PgWalProbes>,
    ) -> Self {
        assert!(config.sets >= 1, "need at least one log set");
        assert_eq!(disks.len(), config.sets, "one device per log set required");
        assert!(config.block_size > 0);
        WalWriter {
            sets: disks
                .into_iter()
                .map(|disk| LogSet {
                    disk,
                    stripe: Stripe::new(config.append),
                })
                .collect(),
            config,
            probes,
            commits: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            group_commits: AtomicU64::new(0),
            blocks_written: AtomicU64::new(0),
            bytes_requested: AtomicU64::new(0),
            lock_wait_ns: AtomicU64::new(0),
            lock_wait_hist: Histogram::new(),
            batch_hist: Histogram::new(),
            reserve_hist: Histogram::new(),
            group_batch_hist: Histogram::new(),
        }
    }

    /// Commit `bytes` of WAL durably. Returns ns spent on the commit path.
    pub fn commit(&self, bytes: u64) -> u64 {
        self.commits.fetch_add(1, Ordering::Relaxed);
        self.bytes_requested.fetch_add(bytes, Ordering::Relaxed);
        let start = now_nanos();

        let set = &self.sets[self.pick_set()];

        // Even a "zero-byte" commit carries a commit record on the wire.
        let bytes = bytes.max(1);
        let end = set.stripe.append(bytes, |_| Vec::new()) + bytes;
        self.reserve_hist.record(now_nanos() - start);

        if self
            .config
            .faults
            .as_ref()
            .is_some_and(|f| f.ack_before_flush)
        {
            // Seeded bug: acknowledge with the bytes still pending.
            return now_nanos() - start;
        }

        // LWLockAcquireOrWait: either we take the baton and flush, or we
        // wait and discover the holder flushed us. Only the wait is
        // charged to the probe; our own flush rounds are subtracted.
        let wait_start = now_nanos();
        let mut own_flush_ns = 0;
        let durable = || set.stripe.flushed() >= end;
        if durable() {
            self.group_commits.fetch_add(1, Ordering::Relaxed);
        } else {
            set.stripe.acks_pending.fetch_add(1, Ordering::SeqCst);
            let flushed_self = set.stripe.await_durable(durable, || {
                let t0 = now_nanos();
                self.flush_set_round(set);
                own_flush_ns += now_nanos() - t0;
            });
            if !flushed_self {
                self.group_commits.fetch_add(1, Ordering::Relaxed);
            }
        }
        let lock_wait = now_nanos() - wait_start - own_flush_ns;
        self.lock_wait_ns.fetch_add(lock_wait, Ordering::Relaxed);
        self.lock_wait_hist.record(lock_wait);
        if let Some(p) = &self.probes {
            p.profiler
                .add_event(p.lwlock_acquire, wait_start, lock_wait);
        }
        now_nanos() - start
    }

    /// Requires the set's baton: drain, write the padded block batch for
    /// `published − flushed`, fsync, account the batch, wake waiters.
    fn flush_set_round(&self, set: &LogSet) {
        set.stripe.drain();
        let target = set.stripe.published();
        let flushed = set.stripe.flushed();
        if target <= flushed {
            set.stripe.wake_all();
            return;
        }
        let blocks = (target - flushed).div_ceil(self.config.block_size).max(1);
        set.disk.write(blocks * self.config.block_size);
        if !self.config.per_block_overhead.is_zero() {
            let cost = self.config.per_block_overhead * blocks as u32;
            tpd_common::clock::advance(cost.as_nanos() as u64);
        }
        set.disk.flush(0);
        self.flushes.fetch_add(1, Ordering::Relaxed);
        self.blocks_written.fetch_add(blocks, Ordering::Relaxed);
        self.batch_hist.record(blocks);
        set.stripe.set_written(target);
        set.stripe.set_flushed(target);
        let acked = set.stripe.acks_pending.swap(0, Ordering::SeqCst);
        if acked > 0 {
            self.group_batch_hist.record(acked);
        }
        set.stripe.wake_all();
    }

    /// Pick a log set: one whose flush baton is free, else the one with
    /// the fewest waiting committers (the paper's rule).
    fn pick_set(&self) -> usize {
        if self.sets.len() == 1 {
            return 0;
        }
        for (i, set) in self.sets.iter().enumerate() {
            if let Some(g) = set.stripe.try_baton() {
                drop(g); // probing only
                return i;
            }
        }
        self.sets
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| s.stripe.acks_pending.load(Ordering::Relaxed))
            .map(|(i, _)| i)
            .expect("at least one set")
    }

    /// Number of configured log sets.
    pub fn set_count(&self) -> usize {
        self.sets.len()
    }

    /// The active append mode.
    pub fn append_mode(&self) -> AppendMode {
        self.config.append
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> WalWriterStats {
        WalWriterStats {
            commits: self.commits.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            group_commits: self.group_commits.load(Ordering::Relaxed),
            blocks_written: self.blocks_written.load(Ordering::Relaxed),
            bytes_requested: self.bytes_requested.load(Ordering::Relaxed),
            lock_wait_ns: self.lock_wait_ns.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of the WALWriteLock wait histogram (ns per commit).
    pub fn lock_wait_histogram(&self) -> HistogramSnapshot {
        self.lock_wait_hist.snapshot()
    }

    /// Snapshot of the flush batch-size histogram (blocks per flush).
    pub fn batch_histogram(&self) -> HistogramSnapshot {
        self.batch_hist.snapshot()
    }

    /// Snapshot of the append-path reservation latency histogram (ns).
    pub fn reserve_histogram(&self) -> HistogramSnapshot {
        self.reserve_hist.snapshot()
    }

    /// Snapshot of the commits-acked-per-fsync histogram.
    pub fn group_commit_batch_histogram(&self) -> HistogramSnapshot {
        self.group_batch_hist.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpd_common::dist::ServiceTime;
    use tpd_common::{DiskConfig, SimDisk};

    fn fast_disk(seed: u64) -> Arc<dyn DiskDevice> {
        Arc::new(SimDisk::new(DiskConfig {
            service: ServiceTime::Fixed(50_000),
            ns_per_byte: 0.0,
            seed,
        }))
    }

    fn writer_with(sets: usize, block: u64, append: AppendMode) -> WalWriter {
        let disks = (0..sets).map(|i| fast_disk(i as u64)).collect();
        WalWriter::new(
            WalWriterConfig {
                sets,
                block_size: block,
                per_block_overhead: std::time::Duration::ZERO,
                append,
                ..Default::default()
            },
            disks,
            None,
        )
    }

    fn writer(sets: usize, block: u64) -> WalWriter {
        writer_with(sets, block, AppendMode::Lockfree)
    }

    #[test]
    fn single_commit_flushes_one_padded_block() {
        for append in [AppendMode::Mutex, AppendMode::Lockfree] {
            let w = writer_with(1, 8192, append);
            let t = w.commit(100);
            assert!(t >= 100_000, "write + flush, got {t}");
            let s = w.stats();
            assert_eq!(s.commits, 1);
            assert_eq!(s.flushes, 1);
            assert_eq!(s.blocks_written, 1, "100 bytes pads to one block");
            assert_eq!(s.bytes_requested, 100);
            assert!(
                s.lock_wait_ns < 50_000,
                "a solo committer's own flush is not lock wait ({append:?}): {} ns",
                s.lock_wait_ns
            );
        }
    }

    #[test]
    fn large_commit_writes_multiple_blocks() {
        for append in [AppendMode::Mutex, AppendMode::Lockfree] {
            let w = writer_with(1, 4096, append);
            w.commit(10_000);
            assert_eq!(w.stats().blocks_written, 3, "ceil(10000/4096)");
        }
    }

    #[test]
    fn concurrent_commits_group() {
        for append in [AppendMode::Mutex, AppendMode::Lockfree] {
            let w = Arc::new(writer_with(1, 8192, append));
            let mut handles = Vec::new();
            for _ in 0..8 {
                let w = w.clone();
                handles.push(std::thread::spawn(move || {
                    w.commit(64);
                }));
            }
            for h in handles {
                h.join().expect("committer");
            }
            let s = w.stats();
            assert_eq!(s.commits, 8);
            assert!(s.flushes < 8, "{} flushes for 8 commits", s.flushes);
            assert!(s.group_commits > 0);
        }
    }

    #[test]
    fn mutex_convoy_lock_wait_excludes_flushers_own_rounds() {
        // Eight committers convoy on one set's baton. Every flush round
        // (write + fsync, at least 100 µs on these disks) runs inside
        // some committer's commit, so the commit time left over after the
        // lock wait must cover all of them; charging a flusher's own
        // round to its lock wait would leave almost nothing.
        let w = Arc::new(writer_with(1, 8192, AppendMode::Mutex));
        let total_ns = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let w = w.clone();
                let total_ns = &total_ns;
                scope.spawn(move || {
                    for _ in 0..5 {
                        total_ns.fetch_add(w.commit(64), Ordering::Relaxed);
                    }
                });
            }
        });
        let s = w.stats();
        assert_eq!(s.commits, 40);
        assert!(s.lock_wait_ns > 0, "the convoy waited");
        let outside_wait = total_ns.load(Ordering::Relaxed) - s.lock_wait_ns;
        assert!(
            outside_wait >= s.flushes * 100_000,
            "{} flushes need {} ns outside the lock wait; got {outside_wait}",
            s.flushes,
            s.flushes * 100_000
        );
    }

    #[test]
    fn parallel_logging_uses_both_sets() {
        let w = Arc::new(writer(2, 8192));
        let mut handles = Vec::new();
        for _ in 0..16 {
            let w = w.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..4 {
                    w.commit(64);
                }
            }));
        }
        for h in handles {
            h.join().expect("committer");
        }
        assert_eq!(w.set_count(), 2);
        let s = w.stats();
        assert_eq!(s.commits, 64);
        // Both devices must have seen traffic: total flushes spread. We can
        // only check aggregate here; per-set spread is visible via each
        // disk's stats in the engine integration tests.
        assert!(s.flushes >= 2);
    }

    #[test]
    fn zero_byte_commit_still_flushes_a_block() {
        for append in [AppendMode::Mutex, AppendMode::Lockfree] {
            let w = writer_with(1, 8192, append);
            w.commit(0);
            assert_eq!(w.stats().blocks_written, 1);
        }
    }

    #[test]
    #[should_panic(expected = "one device per log set")]
    fn wrong_disk_count_rejected() {
        WalWriter::new(
            WalWriterConfig {
                sets: 2,
                block_size: 8192,
                per_block_overhead: std::time::Duration::ZERO,
                ..Default::default()
            },
            vec![fast_disk(1)],
            None,
        );
    }

    #[test]
    fn ack_before_flush_bug_leaves_bytes_pending() {
        for append in [AppendMode::Mutex, AppendMode::Lockfree] {
            let w = WalWriter::new(
                WalWriterConfig {
                    sets: 1,
                    block_size: 8192,
                    per_block_overhead: std::time::Duration::ZERO,
                    faults: Some(crate::WalFaultPlan {
                        ack_before_flush: true,
                        ..Default::default()
                    }),
                    append,
                },
                vec![fast_disk(1)],
                None,
            );
            let t = w.commit(100);
            assert!(t < 25_000, "no flush on the commit path: {t} ns");
            let s = w.stats();
            assert_eq!(s.commits, 1);
            assert_eq!(s.flushes, 0, "the acked bytes were never made durable");
        }
    }

    #[test]
    fn group_batch_histogram_counts_solo_commits() {
        let w = writer(1, 8192);
        for _ in 0..3 {
            w.commit(64);
        }
        let h = w.group_commit_batch_histogram();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 3);
        assert_eq!(w.reserve_histogram().count, 3);
    }
}
