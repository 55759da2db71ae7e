//! InnoDB-style redo logging.
//!
//! Transactions append redo bytes to a shared log buffer during execution;
//! at commit, durability is governed by [`FlushPolicy`] (MySQL's
//! `innodb_flush_log_at_trx_commit`, studied in Section 7.5 / Appendix B):
//!
//! * [`FlushPolicy::Eager`] — the committing thread writes and fsyncs
//!   before acknowledging. The fsync is the paper's `fil_flush` probe site.
//!   Concurrent committers group-commit: whoever holds the flush baton
//!   flushes everything buffered, and the rest observe their LSN is already
//!   durable.
//! * [`FlushPolicy::LazyFlush`] — the committer writes (into the OS cache)
//!   but fsync is deferred to a background flusher thread.
//! * [`FlushPolicy::LazyWrite`] — both write and fsync are deferred; commit
//!   never touches the device.
//!
//! Both lazy modes risk losing the last interval's commits on a crash, as
//! the paper notes.
//!
//! One append mechanism, two configurations (see [`crate::lockfree`]):
//! every log is a [`Stripe`] whose appends claim LSN ranges and publish
//! through a sequence-word ring, and whose committers share fsyncs via a
//! flush baton. [`AppendMode::Lockfree`] (the default) reserves with one
//! `fetch_add` and parks committers that lose the baton race;
//! [`AppendMode::Mutex`] serializes each append on the stripe's append
//! mutex and makes committers block on the baton — the log-mutex and
//! `fil_flush` convoy the paper measured (Table 1).
//!
//! [`RedoLogConfig::writers`] > 1 stripes records across K parallel logs
//! by transaction id, in either mode, with **epoch-ordered commit acks**:
//! each fsync closes a global epoch, and a commit is acknowledged only
//! once every stripe's flush epoch has caught up with the epoch observed
//! at its own flush — so an ack implies every earlier-epoch commit on
//! every log is durable.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use tpd_common::clock::now_nanos;
use tpd_common::disk::DiskDevice;
use tpd_metrics::{Histogram, HistogramSnapshot};
use tpd_profiler::{FuncId, Profiler};

use crate::lockfree::{make_lsn, offset_of, stripe_of, AppendMode, Stripe};
use crate::record::{LogRecord, StampedRecord};
use crate::Lsn;

/// Commit durability policy (`innodb_flush_log_at_trx_commit`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushPolicy {
    /// Write + fsync on the commit path (fully durable).
    Eager,
    /// Write on commit; fsync by the background flusher.
    LazyFlush,
    /// Write and fsync both deferred to the background flusher.
    LazyWrite,
}

/// Redo log configuration.
#[derive(Debug, Clone)]
pub struct RedoLogConfig {
    /// Durability policy.
    pub policy: FlushPolicy,
    /// Background flusher period for the lazy policies (MySQL uses ~1 s;
    /// scaled down to suit microsecond-scale transactions).
    pub flush_interval: Duration,
    /// Injected WAL faults (crash points, torn tails, ack-before-flush).
    pub faults: Option<crate::WalFaultPlan>,
    /// Suppress the background flusher for the lazy policies; the owner
    /// drives flushing via [`RedoLog::flush_now`]. The deterministic
    /// harness needs this: with no second thread, every flush happens at a
    /// seeded point on the driver thread and the run is replayable.
    pub manual_flush: bool,
    /// Stripe configuration: mutex-serialized (paper-faithful) or
    /// reserve-then-copy.
    pub append: AppendMode,
    /// Parallel log count (records striped by txn id, one flush baton
    /// each).
    pub writers: usize,
    /// File-backed log sink (`disk_backend = file`). When set, the write
    /// path persists typed records as CRC-framed segments through the
    /// [`crate::FileWal`] instead of byte-count device writes, and the
    /// commit-path fsync routes through [`crate::FileWal::sync`] so the
    /// crash-injection gate applies. The stripe devices should be the
    /// wal's own [`tpd_common::FileDisk`]s so stats stay on one surface.
    pub sink: Option<Arc<crate::FileWal>>,
}

impl Default for RedoLogConfig {
    fn default() -> Self {
        RedoLogConfig {
            policy: FlushPolicy::Eager,
            flush_interval: Duration::from_millis(10),
            faults: None,
            manual_flush: false,
            append: AppendMode::Lockfree,
            writers: 1,
            sink: None,
        }
    }
}

/// Profiler hookup for the redo log's paper-named probe site.
#[derive(Debug, Clone)]
pub struct MysqlWalProbes {
    /// The engine's profiler.
    pub profiler: Arc<Profiler>,
    /// `fil_flush` — the commit-path fsync.
    pub fil_flush: FuncId,
}

/// Cumulative redo-log statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RedoStats {
    /// Bytes appended to the log buffer.
    pub bytes_appended: u64,
    /// Commit calls.
    pub commits: u64,
    /// Device flush operations.
    pub flushes: u64,
    /// Commits satisfied by another transaction's flush (group commit).
    pub group_commits: u64,
    /// Bytes written to the device.
    pub bytes_written: u64,
    /// Total ns commit paths spent achieving durability.
    pub commit_wait_ns: u64,
}

/// One parallel log: its device plus the stripe state.
#[derive(Debug)]
struct StripeLog {
    disk: Arc<dyn DiskDevice>,
    stripe: Stripe,
    /// This log's stripe index (the file sink's chain id).
    idx: usize,
    /// Retained records already framed out to the file sink. Only read or
    /// written under the stripe's flush baton.
    persisted: AtomicU64,
}

/// The redo log. See module docs.
#[derive(Debug)]
pub struct RedoLog {
    config: RedoLogConfig,
    stripes: Vec<StripeLog>,
    shutdown: Arc<AtomicBool>,
    shutdown_cv: Arc<(Mutex<bool>, Condvar)>,
    flusher: Option<std::thread::JoinHandle<()>>,
    probes: Option<MysqlWalProbes>,
    bytes_appended: AtomicU64,
    commits: AtomicU64,
    flushes: AtomicU64,
    group_commits: AtomicU64,
    bytes_written: AtomicU64,
    commit_wait_ns: AtomicU64,
    /// Global append sequence, stamped on every typed record so crash
    /// snapshots merge stripes in true append order.
    global_seq: AtomicU64,
    /// Global flush epoch: bumped once per fsync (any stripe). Drives the
    /// K-way epoch-ordered commit-ack rule.
    epoch: AtomicU64,
    /// Round-robin cursor for striping record-less appends.
    append_rr: AtomicU64,
    /// Fsync latency per flush (ns).
    fsync_hist: Histogram,
    /// Bytes made durable per flush batch.
    batch_hist: Histogram,
    /// Append-path reservation latency (ns) — the cost of claiming and
    /// publishing log space, including any wait for the append mutex.
    reserve_hist: Histogram,
    /// Commits acknowledged per fsync (group-commit batch size).
    group_batch_hist: Histogram,
}

impl RedoLog {
    /// Create a single-log redo log; lazy policies spawn the background
    /// flusher unless `manual_flush` is set.
    pub fn new(
        config: RedoLogConfig,
        disk: Arc<dyn DiskDevice>,
        probes: Option<MysqlWalProbes>,
    ) -> Arc<Self> {
        Self::with_disks(config, vec![disk], probes)
    }

    /// Create a redo log over one device per parallel log writer
    /// (`disks.len() == writers`).
    pub fn with_disks(
        config: RedoLogConfig,
        disks: Vec<Arc<dyn DiskDevice>>,
        probes: Option<MysqlWalProbes>,
    ) -> Arc<Self> {
        let writers = config.writers.max(1);
        assert!(writers <= 256, "stripe index must fit the LSN top byte");
        assert_eq!(disks.len(), writers, "one device per log writer required");
        let stripes = disks
            .into_iter()
            .enumerate()
            .map(|(idx, disk)| StripeLog {
                disk,
                stripe: Stripe::new(config.append),
                idx,
                persisted: AtomicU64::new(0),
            })
            .collect();
        let mut log = RedoLog {
            config: config.clone(),
            stripes,
            shutdown: Arc::new(AtomicBool::new(false)),
            shutdown_cv: Arc::new((Mutex::new(false), Condvar::new())),
            flusher: None,
            probes,
            bytes_appended: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            group_commits: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            commit_wait_ns: AtomicU64::new(0),
            global_seq: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            append_rr: AtomicU64::new(0),
            fsync_hist: Histogram::new(),
            batch_hist: Histogram::new(),
            reserve_hist: Histogram::new(),
            group_batch_hist: Histogram::new(),
        };
        if matches!(config.policy, FlushPolicy::Eager) || config.manual_flush {
            return Arc::new(log);
        }
        // Lazy policies: cyclic Arc via a placeholder then spawn.
        Arc::new_cyclic(|weak: &std::sync::Weak<RedoLog>| {
            let weak = weak.clone();
            let shutdown = log.shutdown.clone();
            let cv = log.shutdown_cv.clone();
            let interval = config.flush_interval;
            log.flusher = Some(std::thread::spawn(move || loop {
                {
                    let (lock, cvar) = &*cv;
                    let mut stop = lock.lock();
                    if !*stop {
                        cvar.wait_for(&mut stop, interval);
                    }
                }
                if shutdown.load(Ordering::Acquire) {
                    // One final flush so shutdown is durable.
                    if let Some(log) = weak.upgrade() {
                        log.write_and_flush_pending();
                    }
                    return;
                }
                if let Some(log) = weak.upgrade() {
                    log.write_and_flush_pending();
                } else {
                    return;
                }
            }));
            log
        })
    }

    /// The active policy.
    pub fn policy(&self) -> FlushPolicy {
        self.config.policy
    }

    /// The active append mode.
    pub fn append_mode(&self) -> AppendMode {
        self.config.append
    }

    /// Number of parallel logs.
    pub fn writers(&self) -> usize {
        self.stripes.len()
    }

    /// Append `bytes` of redo for a transaction; returns the end LSN that
    /// commit must make durable (eager) or acknowledge (lazy).
    pub fn append(&self, bytes: u64) -> Lsn {
        let t0 = now_nanos();
        let idx = if self.stripes.len() == 1 {
            0
        } else {
            self.append_rr.fetch_add(1, Ordering::Relaxed) as usize % self.stripes.len()
        };
        let lsn = self.append_to_stripe(idx, Vec::new(), bytes);
        self.bytes_appended.fetch_add(bytes, Ordering::Relaxed);
        self.reserve_hist.record(now_nanos() - t0);
        lsn
    }

    /// Append typed records (retained for recovery) plus `extra_bytes` of
    /// untyped payload (e.g. amplification modeling index/page images).
    /// Returns the end LSN of the batch. With parallel logs the whole
    /// batch lands on one stripe chosen by the records' transaction id,
    /// so a transaction's redo (and its commit marker) share a log.
    pub fn append_records(&self, records: Vec<LogRecord>, extra_bytes: u64) -> Lsn {
        let t0 = now_nanos();
        let mut total = extra_bytes;
        for r in &records {
            total += r.encoded_len();
        }
        let n = self.stripes.len();
        let idx = if n == 1 {
            0
        } else {
            match records.iter().find_map(|r| r.txn()) {
                Some(txn) => txn as usize % n,
                None => self.append_rr.fetch_add(1, Ordering::Relaxed) as usize % n,
            }
        };
        let lsn = self.append_to_stripe(idx, records, extra_bytes);
        self.bytes_appended.fetch_add(total, Ordering::Relaxed);
        self.reserve_hist.record(now_nanos() - t0);
        lsn
    }

    /// Claim the batch's range on stripe `idx`, stamp each record with its
    /// end offset inside the range and a global sequence number (crash
    /// snapshots merge stripes by it), publish. Returns the end LSN.
    fn append_to_stripe(&self, idx: usize, records: Vec<LogRecord>, extra_bytes: u64) -> Lsn {
        let typed: u64 = records.iter().map(|r| r.encoded_len()).sum();
        let bytes = typed + extra_bytes;
        let start = self.stripes[idx].stripe.append(bytes, |start| {
            let mut off = start;
            records
                .into_iter()
                .map(|record| {
                    off += record.encoded_len();
                    let seq = self.global_seq.fetch_add(1, Ordering::SeqCst);
                    (
                        seq,
                        StampedRecord {
                            end: make_lsn(idx, off),
                            record,
                        },
                    )
                })
                .collect()
        });
        make_lsn(idx, start + bytes)
    }

    /// Simulate a crash: return exactly the records that were durable
    /// (end-LSN within the flushed prefix) at this instant, merged across
    /// stripes in append order. Lazy policies can lose recently-committed
    /// transactions — the trade-off the paper's flush-policy tuning
    /// accepts.
    ///
    /// With [`crate::WalFaultPlan::torn_tail`] armed and a record in
    /// flight past a flushed prefix, the snapshot ends with partial
    /// [`LogRecord::Torn`] tails (one per affected stripe): the crash
    /// interrupted those records' writes, and a recovery reader sees
    /// garbage where their checksums should be.
    pub fn simulate_crash(&self) -> Vec<StampedRecord> {
        let torn = self.config.faults.as_ref().is_some_and(|f| f.torn_tail);
        let mut durable: Vec<(u64, StampedRecord)> = Vec::new();
        let mut tears: Vec<(u64, StampedRecord)> = Vec::new();
        for (idx, s) in self.stripes.iter().enumerate() {
            let flushed = s.stripe.flushed();
            s.stripe.with_records(|records| {
                for (seq, r) in records {
                    if offset_of(r.end) <= flushed {
                        durable.push((*seq, r.clone()));
                    } else {
                        if torn {
                            // Half the record (header included) made it out.
                            let bytes = (r.record.encoded_len() / 2).max(1);
                            tears.push((
                                *seq,
                                StampedRecord {
                                    end: make_lsn(idx, flushed + bytes),
                                    record: LogRecord::Torn { bytes },
                                },
                            ));
                        }
                        break;
                    }
                }
            });
        }
        // Durable records in append order; tears last so readers stop at
        // the first unreadable record.
        durable.sort_by_key(|(seq, _)| *seq);
        tears.sort_by_key(|(seq, _)| *seq);
        durable.into_iter().chain(tears).map(|(_, r)| r).collect()
    }

    /// Whether an armed [`crate::WalFaultPlan::crash_at_lsn`] point has
    /// been reached. The harness polls this between operations and calls
    /// the engine's crash path when it fires.
    pub fn crash_armed(&self) -> bool {
        match self.config.faults.as_ref().and_then(|f| f.crash_at_lsn) {
            Some(lsn) => self.bytes_appended.load(Ordering::SeqCst) >= lsn,
            None => false,
        }
    }

    /// Write + fsync everything pending. The manual-flush analogue of one
    /// background-flusher tick, called by the harness at seeded points.
    pub fn flush_now(&self) {
        self.write_and_flush_pending();
    }

    /// Commit: make `lsn` durable according to the policy. Returns the time
    /// spent waiting on durability (0 for the lazy policies' fast paths).
    pub fn commit(&self, lsn: Lsn) -> u64 {
        self.commits.fetch_add(1, Ordering::Relaxed);
        let start = now_nanos();
        match self.config.policy {
            FlushPolicy::Eager => {
                if self
                    .config
                    .faults
                    .as_ref()
                    .is_some_and(|f| f.ack_before_flush)
                {
                    // Seeded bug: write, skip the fsync, acknowledge. The
                    // torture checker must flag the resulting losses.
                    self.ensure_written(lsn);
                } else {
                    self.ensure_flushed(lsn);
                    self.epoch_ordered_ack(lsn);
                }
            }
            FlushPolicy::LazyFlush => {
                // Write into the OS cache on the commit path; no fsync.
                self.ensure_written(lsn);
            }
            FlushPolicy::LazyWrite => {
                // Nothing: the flusher does both.
            }
        }
        let waited = now_nanos() - start;
        self.commit_wait_ns.fetch_add(waited, Ordering::Relaxed);
        waited
    }

    /// Write buffered bytes up to at least `lsn` into the device cache.
    fn ensure_written(&self, lsn: Lsn) {
        let s = &self.stripes[stripe_of(lsn)];
        let off = offset_of(lsn);
        loop {
            if s.stripe.written() >= off {
                return;
            }
            if let Some(_baton) = s.stripe.try_baton() {
                // May fall short if an unpublished lower reservation
                // blocks the watermark; loop.
                self.write_stripe_pending(s);
            } else {
                // The baton holder may have drained before our publish;
                // retry after it releases.
                std::thread::yield_now();
            }
        }
    }

    /// Write + fsync everything up to at least `lsn` (group commit).
    fn ensure_flushed(&self, lsn: Lsn) {
        let s = &self.stripes[stripe_of(lsn)];
        let off = offset_of(lsn);
        let durable = || s.stripe.flushed() >= off;
        if !durable() {
            s.stripe.acks_pending.fetch_add(1, Ordering::SeqCst);
            if s.stripe
                .await_durable(durable, || self.flush_stripe_round(s))
            {
                return;
            }
        }
        self.group_commits.fetch_add(1, Ordering::Relaxed);
    }

    /// K-way epoch rule: a commit is acknowledged only when every other
    /// stripe's flush epoch has reached the epoch current at (or after)
    /// this commit's own flush — so the ack implies every commit flushed
    /// in an earlier epoch, on any log, is durable. Single-threaded
    /// callers flush lagging stripes themselves (the baton is free);
    /// concurrent callers usually just observe other committers' rounds.
    fn epoch_ordered_ack(&self, lsn: Lsn) {
        if self.stripes.len() == 1 {
            return;
        }
        let my = stripe_of(lsn);
        let e0 = self.epoch.load(Ordering::SeqCst);
        for (i, s) in self.stripes.iter().enumerate() {
            if i == my {
                continue;
            }
            loop {
                if s.stripe.flushed_epoch() >= e0 {
                    break;
                }
                if let Some(_baton) = s.stripe.try_baton() {
                    self.flush_stripe_round(s);
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Background entry point: flush all pending bytes on every log.
    fn write_and_flush_pending(&self) {
        for s in &self.stripes {
            let _baton = s.stripe.baton();
            self.flush_stripe_round(s);
        }
    }

    /// Requires the stripe's baton: write `published − written` into the
    /// device cache (CRC frames through the file sink when one is set).
    fn write_stripe_pending(&self, s: &StripeLog) {
        s.stripe.drain();
        let target = s.stripe.published();
        let written = s.stripe.written();
        if target > written {
            if let Some(sink) = &self.config.sink {
                // File backend: frame the newly-drained records out as
                // CRC-framed segments (they land on this stripe's own
                // FileDisk, so byte accounting stays on one surface). The
                // byte-count write below would interleave zero fill with
                // the frame stream, so it is skipped.
                let from = s.persisted.load(Ordering::Relaxed) as usize;
                let upto = s.stripe.with_records(|records| {
                    for (seq, r) in &records[from..] {
                        sink.append(s.idx, *seq, r);
                    }
                    records.len()
                });
                s.persisted.store(upto as u64, Ordering::Relaxed);
            } else {
                s.disk.write(target - written);
            }
            self.bytes_written
                .fetch_add(target - written, Ordering::Relaxed);
            s.stripe.set_written(target);
        }
    }

    /// Requires the stripe's baton. One full flush round: write, fsync if
    /// anything new, account the group-commit batch, close an epoch, and
    /// wake parked committers.
    fn flush_stripe_round(&self, s: &StripeLog) {
        self.write_stripe_pending(s);
        let target = s.stripe.written();
        if s.stripe.flushed() >= target {
            // Clean round: nothing new to fsync, but the stripe is now
            // provably caught up with every epoch closed before this
            // point — no fsync needed to advance its epoch.
            s.stripe
                .raise_flushed_epoch(self.epoch.load(Ordering::SeqCst));
            s.stripe.wake_all();
            return;
        }
        self.batch_hist.record(target - s.stripe.flushed());
        // The fsync: the paper's `fil_flush`. The file sink's barrier is
        // the same device flush, but gated so an injected crash drops it.
        let t0 = now_nanos();
        match &self.config.sink {
            Some(sink) => {
                sink.sync(s.idx);
            }
            None => {
                s.disk.flush(0);
            }
        }
        let dur = now_nanos() - t0;
        if let Some(p) = &self.probes {
            p.profiler.add_event(p.fil_flush, t0, dur);
        }
        self.fsync_hist.record(dur);
        self.flushes.fetch_add(1, Ordering::Relaxed);
        s.stripe.set_flushed(target);
        let acked = s.stripe.acks_pending.swap(0, Ordering::SeqCst);
        if acked > 0 {
            self.group_batch_hist.record(acked);
        }
        // Every fsync closes a global epoch; this stripe is caught up to
        // the epoch it just closed.
        let e = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        s.stripe.raise_flushed_epoch(e);
        s.stripe.wake_all();
    }

    /// Durable LSN (for tests and recovery assertions). With parallel
    /// logs this reports stripe 0's durable offset; per-stripe cursors
    /// are available via [`RedoLog::stripe_cursors`].
    pub fn flushed_lsn(&self) -> Lsn {
        make_lsn(0, self.stripes[0].stripe.flushed())
    }

    /// Per-stripe `(reserved, published, written, flushed)` cursors for
    /// invariant checks.
    pub fn stripe_cursors(&self) -> Vec<(u64, u64, u64, u64)> {
        self.stripes.iter().map(|s| s.stripe.cursors()).collect()
    }

    /// Snapshot of the fsync-latency histogram (ns per flush).
    pub fn fsync_histogram(&self) -> HistogramSnapshot {
        self.fsync_hist.snapshot()
    }

    /// Snapshot of the flush batch-size histogram (bytes per flush).
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

    /// Statistics snapshot.
    pub fn stats(&self) -> RedoStats {
        RedoStats {
            bytes_appended: self.bytes_appended.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            group_commits: self.group_commits.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            commit_wait_ns: self.commit_wait_ns.load(Ordering::Relaxed),
        }
    }

    /// Stop the background flusher (if any), flushing once more first.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        let (lock, cvar) = &*self.shutdown_cv;
        let mut stop = lock.lock();
        *stop = true;
        cvar.notify_all();
    }
}

impl Drop for RedoLog {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(h) = self.flusher.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpd_common::dist::ServiceTime;
    use tpd_common::{DiskConfig, SimDisk};

    fn fast_disk() -> Arc<dyn DiskDevice> {
        Arc::new(SimDisk::new(DiskConfig {
            service: ServiceTime::Fixed(50_000),
            ns_per_byte: 0.0,
            seed: 3,
        }))
    }

    fn seeded_disk(seed: u64) -> Arc<dyn DiskDevice> {
        Arc::new(SimDisk::new(DiskConfig {
            service: ServiceTime::Fixed(50_000),
            ns_per_byte: 0.0,
            seed,
        }))
    }

    #[test]
    fn eager_commit_is_durable() {
        for append in [AppendMode::Mutex, AppendMode::Lockfree] {
            let log = RedoLog::new(
                RedoLogConfig {
                    policy: FlushPolicy::Eager,
                    append,
                    ..Default::default()
                },
                fast_disk(),
                None,
            );
            let lsn = log.append(100);
            let waited = log.commit(lsn);
            assert!(waited >= 50_000, "commit waited for I/O: {waited}");
            assert!(log.flushed_lsn() >= lsn);
            let s = log.stats();
            assert_eq!(s.commits, 1);
            assert_eq!(s.flushes, 1);
            assert_eq!(s.bytes_written, 100);
        }
    }

    #[test]
    fn group_commit_batches_concurrent_flushes() {
        for append in [AppendMode::Mutex, AppendMode::Lockfree] {
            let log = RedoLog::new(
                RedoLogConfig {
                    policy: FlushPolicy::Eager,
                    append,
                    ..Default::default()
                },
                fast_disk(),
                None,
            );
            let mut handles = Vec::new();
            for _ in 0..8 {
                let log = log.clone();
                handles.push(std::thread::spawn(move || {
                    let lsn = log.append(64);
                    log.commit(lsn);
                    assert!(log.flushed_lsn() >= lsn);
                }));
            }
            for h in handles {
                h.join().expect("committer");
            }
            let s = log.stats();
            assert_eq!(s.commits, 8);
            assert!(
                s.flushes < 8,
                "grouping must reduce flushes ({append:?}): {} flushes",
                s.flushes
            );
            assert!(s.flushes + s.group_commits >= 8 - s.flushes);
        }
    }

    #[test]
    fn lazy_flush_commit_writes_but_does_not_fsync() {
        let log = RedoLog::new(
            RedoLogConfig {
                policy: FlushPolicy::LazyFlush,
                flush_interval: Duration::from_millis(5),
                ..Default::default()
            },
            fast_disk(),
            None,
        );
        let lsn = log.append(128);
        log.commit(lsn);
        // Written but (likely) not yet flushed by the committer itself.
        assert_eq!(log.stats().bytes_written, 128);
        // The background flusher catches up.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while log.flushed_lsn() < lsn {
            assert!(std::time::Instant::now() < deadline, "flusher never ran");
            std::thread::sleep(Duration::from_millis(2));
        }
        log.shutdown();
    }

    #[test]
    fn lazy_write_commit_touches_nothing() {
        let disk = fast_disk();
        let log = RedoLog::new(
            RedoLogConfig {
                policy: FlushPolicy::LazyWrite,
                flush_interval: Duration::from_millis(5),
                ..Default::default()
            },
            disk.clone(),
            None,
        );
        let lsn = log.append(256);
        let waited = log.commit(lsn);
        assert!(waited < 5_000_000, "lazy-write commit must be fast");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while log.flushed_lsn() < lsn {
            assert!(std::time::Instant::now() < deadline, "flusher never ran");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(log.stats().bytes_written, 256);
        log.shutdown();
    }

    #[test]
    fn shutdown_flushes_pending() {
        let log = RedoLog::new(
            RedoLogConfig {
                policy: FlushPolicy::LazyWrite,
                flush_interval: Duration::from_secs(3600), // effectively never
                ..Default::default()
            },
            fast_disk(),
            None,
        );
        let lsn = log.append(64);
        log.commit(lsn);
        log.shutdown();
        // Drop joins the flusher, which flushes one final time.
        let log2 = log.clone();
        drop(log);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while log2.flushed_lsn() < lsn {
            assert!(std::time::Instant::now() < deadline, "final flush missing");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn manual_flush_spawns_no_thread_and_flushes_on_demand() {
        let log = RedoLog::new(
            RedoLogConfig {
                policy: FlushPolicy::LazyWrite,
                flush_interval: Duration::from_micros(1), // would race if spawned
                manual_flush: true,
                ..Default::default()
            },
            fast_disk(),
            None,
        );
        let lsn = log.append_records(vec![LogRecord::Commit { txn: 1 }], 0);
        log.commit(lsn);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(log.flushed_lsn(), Lsn(0), "nothing flushes on its own");
        log.flush_now();
        assert!(log.flushed_lsn() >= lsn);
        assert_eq!(log.simulate_crash().len(), 1);
    }

    #[test]
    fn torn_tail_appears_past_flushed_prefix() {
        for append in [AppendMode::Mutex, AppendMode::Lockfree] {
            let log = RedoLog::new(
                RedoLogConfig {
                    policy: FlushPolicy::LazyWrite,
                    manual_flush: true,
                    faults: Some(crate::WalFaultPlan {
                        torn_tail: true,
                        ..Default::default()
                    }),
                    append,
                    ..Default::default()
                },
                fast_disk(),
                None,
            );
            let flushed = log.append_records(vec![LogRecord::Commit { txn: 1 }], 0);
            log.flush_now();
            log.append_records(
                vec![
                    LogRecord::Update {
                        txn: 2,
                        table: 0,
                        key: 9,
                        after: vec![1, 2],
                    },
                    LogRecord::Commit { txn: 2 },
                ],
                0,
            );
            let snap = log.simulate_crash();
            assert_eq!(snap.len(), 2, "flushed commit + torn tail ({append:?})");
            assert!(matches!(snap[1].record, LogRecord::Torn { .. }));
            assert!(snap[1].end > flushed);
            let c = crate::committed_txns(&snap);
            assert!(c.contains(&1) && !c.contains(&2));
        }
    }

    #[test]
    fn no_torn_tail_when_everything_flushed() {
        let log = RedoLog::new(
            RedoLogConfig {
                faults: Some(crate::WalFaultPlan {
                    torn_tail: true,
                    ..Default::default()
                }),
                ..Default::default()
            },
            fast_disk(),
            None,
        );
        let lsn = log.append_records(vec![LogRecord::Commit { txn: 1 }], 0);
        log.commit(lsn);
        let snap = log.simulate_crash();
        assert_eq!(snap.len(), 1, "no record in flight, no tear");
    }

    #[test]
    fn crash_at_lsn_arms_when_log_grows_past_it() {
        let log = RedoLog::new(
            RedoLogConfig {
                faults: Some(crate::WalFaultPlan {
                    crash_at_lsn: Some(50),
                    ..Default::default()
                }),
                ..Default::default()
            },
            fast_disk(),
            None,
        );
        assert!(!log.crash_armed());
        log.append(40);
        assert!(!log.crash_armed());
        log.append(40);
        assert!(log.crash_armed());
    }

    #[test]
    fn ack_before_flush_bug_loses_acked_commits() {
        for append in [AppendMode::Mutex, AppendMode::Lockfree] {
            let log = RedoLog::new(
                RedoLogConfig {
                    policy: FlushPolicy::Eager,
                    faults: Some(crate::WalFaultPlan {
                        ack_before_flush: true,
                        ..Default::default()
                    }),
                    append,
                    ..Default::default()
                },
                fast_disk(),
                None,
            );
            let lsn = log.append_records(vec![LogRecord::Commit { txn: 1 }], 0);
            log.commit(lsn); // "eager" commit acks without fsync
            assert!(log.flushed_lsn() < lsn, "fsync was skipped ({append:?})");
            assert!(
                crate::committed_txns(&log.simulate_crash()).is_empty(),
                "the acked commit is gone after a crash"
            );
        }
    }

    #[test]
    fn append_assigns_monotone_lsns() {
        let log = RedoLog::new(RedoLogConfig::default(), fast_disk(), None);
        let a = log.append(10);
        let b = log.append(20);
        assert!(b > a);
        assert_eq!(b, Lsn(30));
    }

    #[test]
    fn already_durable_commit_is_free() {
        let log = RedoLog::new(RedoLogConfig::default(), fast_disk(), None);
        let lsn = log.append(10);
        log.commit(lsn);
        let waited = log.commit(lsn); // second commit of same lsn
        assert!(waited < 1_000_000, "no second flush: {waited}");
        assert_eq!(log.stats().group_commits, 1);
    }

    #[test]
    fn group_commit_batch_histogram_counts_acks() {
        let log = RedoLog::new(RedoLogConfig::default(), fast_disk(), None);
        for _ in 0..3 {
            let lsn = log.append(32);
            log.commit(lsn);
        }
        let h = log.group_commit_batch_histogram();
        assert_eq!(h.count, 3, "each solo commit is a batch of one");
        assert_eq!(h.sum, 3);
        assert!(log.reserve_histogram().count >= 3);
    }

    #[test]
    fn two_writers_stripe_by_txn_and_recover_everything() {
        for append in [AppendMode::Mutex, AppendMode::Lockfree] {
            let log = RedoLog::with_disks(
                RedoLogConfig {
                    policy: FlushPolicy::Eager,
                    append,
                    writers: 2,
                    ..Default::default()
                },
                vec![seeded_disk(1), seeded_disk(2)],
                None,
            );
            assert_eq!(log.writers(), 2);
            // Odd txns land on stripe 1, even on stripe 0.
            for txn in 1..=6u64 {
                let lsn = log.append_records(
                    vec![
                        LogRecord::Update {
                            txn,
                            table: 0,
                            key: txn,
                            after: vec![txn as i64],
                        },
                        LogRecord::Commit { txn },
                    ],
                    0,
                );
                assert_eq!(
                    crate::lockfree::stripe_of(lsn),
                    txn as usize % 2,
                    "records stripe by txn id ({append:?})"
                );
                log.commit(lsn);
            }
            let committed = crate::committed_txns(&log.simulate_crash());
            assert_eq!(committed, (1..=6).collect());
            let cursors = log.stripe_cursors();
            assert_eq!(cursors.len(), 2);
            for (reserved, published, written, flushed) in cursors {
                assert!(flushed <= written && written <= published && published <= reserved);
                assert!(flushed > 0, "both stripes saw commits");
            }
        }
    }

    #[test]
    fn epoch_ack_makes_other_stripes_durable() {
        // Txn 2's records land on stripe 0, txn 1's on stripe 1. Only
        // txn 1 commits — but its epoch-ordered ack must force stripe 0
        // to catch up, so txn 2's already-appended commit record becomes
        // durable too.
        let log = RedoLog::with_disks(
            RedoLogConfig {
                policy: FlushPolicy::Eager,
                writers: 2,
                ..Default::default()
            },
            vec![seeded_disk(3), seeded_disk(4)],
            None,
        );
        let l2 = log.append_records(vec![LogRecord::Commit { txn: 2 }], 0);
        assert_eq!(crate::lockfree::stripe_of(l2), 0);
        let l1 = log.append_records(vec![LogRecord::Commit { txn: 1 }], 0);
        assert_eq!(crate::lockfree::stripe_of(l1), 1);
        log.commit(l1);
        let committed = crate::committed_txns(&log.simulate_crash());
        assert!(committed.contains(&1));
        assert!(
            committed.contains(&2),
            "epoch rule: stripe 0 must be flushed before txn 1's ack"
        );
    }

    #[test]
    fn mutex_mode_stamps_records_in_lsn_order() {
        // Eight concurrent committers on one stripe: the append mutex
        // covers stamping, so records merged by global seq (the crash
        // snapshot's order) carry strictly increasing end LSNs. Without
        // it, a later reservation can take an earlier seq.
        let log = RedoLog::new(
            RedoLogConfig {
                policy: FlushPolicy::Eager,
                append: AppendMode::Mutex,
                ..Default::default()
            },
            Arc::new(SimDisk::new(DiskConfig {
                service: ServiceTime::Fixed(0),
                ns_per_byte: 0.0,
                seed: 5,
            })),
            None,
        );
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let log = log.clone();
                scope.spawn(move || {
                    for i in 0..200u64 {
                        let txn = t * 1_000 + i + 1;
                        let lsn = log.append_records(
                            vec![
                                LogRecord::Update {
                                    txn,
                                    table: 0,
                                    key: txn,
                                    after: vec![txn as i64; 1 + (i % 4) as usize],
                                },
                                LogRecord::Commit { txn },
                            ],
                            0,
                        );
                        log.commit(lsn);
                    }
                });
            }
        });
        log.flush_now();
        let snap = log.simulate_crash();
        assert_eq!(snap.len(), 8 * 200 * 2, "every record is durable");
        for pair in snap.windows(2) {
            assert!(
                pair[0].end < pair[1].end,
                "seq order must be LSN order: {} then {}",
                pair[0].end,
                pair[1].end
            );
        }
    }

    #[test]
    #[should_panic(expected = "one device per log writer")]
    fn wrong_disk_count_rejected() {
        RedoLog::with_disks(
            RedoLogConfig {
                writers: 2,
                ..Default::default()
            },
            vec![fast_disk()],
            None,
        );
    }
}
