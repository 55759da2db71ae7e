//! The buffer pool.
//!
//! Layout follows InnoDB 5.6, the configuration the paper profiled:
//!
//! * a **page hash** (`RwLock<HashMap>`) mapping page id → frame, touched by
//!   every access;
//! * the **buf_pool mutex** guarding the LRU list, taken when a page must be
//!   *made young* (a hit in the old sublist) and around eviction — the
//!   paper's `buf_pool_mutex_enter`, its #1 variance source under memory
//!   pressure (Table 1, 2-WH);
//! * miss I/O performed *outside* the mutex, with an in-flight table so
//!   concurrent requests for the same page coalesce.
//!
//! [`MutexPolicy::Llu`] implements the paper's Lazy LRU Update (Section 6.1):
//! bound the wait for the mutex on the make-young path; on failure, defer
//! the reorder to a thread-local backlog that is drained on the next
//! successful acquisition.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex, RwLock};

use tpd_common::clock::{cpu_work, now_nanos};
use tpd_common::disk::SimDisk;
use tpd_metrics::{Histogram, HistogramSnapshot};
use tpd_profiler::{FuncId, Profiler};

use crate::lru::LruList;

/// A page identifier. Engines map (table, row-range) onto these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

/// How `buf_pool_mutex_enter` behaves on the make-young path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutexPolicy {
    /// Block until acquired (stock MySQL 5.6).
    Blocking,
    /// Lazy LRU Update: spin up to `spin_budget`; on failure defer the
    /// update to a thread-local backlog (the paper used 0.01 ms).
    Llu {
        /// Maximum time to wait for the LRU mutex before deferring.
        spin_budget: Duration,
    },
}

/// Buffer pool configuration.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Number of frames (pages held in memory).
    pub frames: usize,
    /// Old-sublist fraction numerator (MySQL default 3).
    pub old_num: usize,
    /// Old-sublist fraction denominator (MySQL default 8).
    pub old_den: usize,
    /// Page size in bytes (for disk transfer accounting).
    pub page_bytes: u64,
    /// Mutex policy on the make-young path.
    pub mutex_policy: MutexPolicy,
    /// CPU work units charged per logical page access (models row
    /// processing on the page).
    pub access_work: u64,
    /// InnoDB 5.6 behaviour: when the eviction victim is dirty, write it
    /// back *while holding the pool mutex* (the single-page-flush convoy
    /// the Percona multi-threaded LRU flusher later fixed — exactly the
    /// pathology behind the paper's 2-WH `buf_pool_mutex_enter` finding).
    pub writeback_under_mutex: bool,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            frames: 1024,
            old_num: 3,
            old_den: 8,
            page_bytes: 16 * 1024,
            mutex_policy: MutexPolicy::Blocking,
            access_work: 64,
            writeback_under_mutex: true,
        }
    }
}

/// Profiler hookup for the pool's paper-named probe sites.
#[derive(Debug, Clone)]
pub struct PoolProbes {
    /// The engine's profiler.
    pub profiler: Arc<Profiler>,
    /// `buf_pool_mutex_enter` — wait to acquire the LRU mutex.
    pub mutex_enter: FuncId,
    /// Page read/write I/O performed on a miss.
    pub page_io: FuncId,
}

/// Cumulative pool statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Accesses served from memory.
    pub hits: u64,
    /// Accesses requiring a disk read.
    pub misses: u64,
    /// Pages evicted.
    pub evictions: u64,
    /// Dirty pages written back during eviction.
    pub dirty_writebacks: u64,
    /// Successful make-young moves.
    pub make_young: u64,
    /// LLU: updates deferred because the mutex was busy.
    pub deferred_updates: u64,
    /// LLU: deferred updates later applied.
    pub backlog_applied: u64,
    /// Total ns spent waiting for the LRU mutex (make-young path).
    pub mutex_wait_ns: u64,
}

/// Result of a page access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Served from the pool.
    Hit,
    /// Required a disk read (and possibly an eviction).
    Miss,
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    page: Option<PageId>,
    dirty: bool,
    io_busy: bool,
}

/// Debug-build bound on consecutive retries inside one
/// [`BufferPool::access`].
#[cfg(debug_assertions)]
const MAX_ACCESS_RETRIES: u32 = 100_000;

#[derive(Debug)]
struct LruState {
    lru: LruList,
    frames: Vec<Frame>,
    free: Vec<usize>,
}

#[derive(Debug, Default)]
struct IoWait {
    done: Mutex<bool>,
    cv: Condvar,
}

thread_local! {
    /// LLU backlogs, per pool instance (keyed by pool id).
    static BACKLOG: RefCell<HashMap<u64, Vec<PageId>>> = RefCell::new(HashMap::new());
}

static POOL_IDS: AtomicU64 = AtomicU64::new(0);

/// The buffer pool. See module docs.
#[derive(Debug)]
pub struct BufferPool {
    id: u64,
    config: PoolConfig,
    disk: Arc<SimDisk>,
    page_table: RwLock<HashMap<PageId, usize>>,
    lru: Mutex<LruState>,
    /// Shared view of the LRU old-flags for the mutex-free hit path.
    old_flags: std::sync::Arc<Vec<std::sync::atomic::AtomicBool>>,
    in_flight: Mutex<HashMap<PageId, Arc<IoWait>>>,
    probes: Option<PoolProbes>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    dirty_writebacks: AtomicU64,
    make_young_n: AtomicU64,
    deferred: AtomicU64,
    backlog_applied: AtomicU64,
    /// LLU backlog depth observed at each drain (pages deferred while the
    /// LRU mutex was contended).
    backlog_depth_hist: Histogram,
    mutex_wait_ns: AtomicU64,
    /// Debug-build frame pin counts: incremented while a frame's contents
    /// are being used, decremented after. The invariant checked is that a
    /// count never goes negative (an unpin without a matching pin would
    /// mean a frame was reused while still referenced). Compiled out of
    /// release builds.
    #[cfg(debug_assertions)]
    pins: Vec<std::sync::atomic::AtomicI64>,
}

impl BufferPool {
    /// A pool backed by `disk`, optionally instrumented.
    pub fn new(config: PoolConfig, disk: Arc<SimDisk>, probes: Option<PoolProbes>) -> Self {
        assert!(config.frames >= 2, "pool needs at least two frames");
        #[cfg(debug_assertions)]
        let nframes = config.frames;
        let frames = vec![
            Frame {
                page: None,
                dirty: false,
                io_busy: false,
            };
            config.frames
        ];
        let lru_list = LruList::new(config.frames, config.old_num, config.old_den);
        let old_flags = lru_list.old_flags();
        BufferPool {
            id: POOL_IDS.fetch_add(1, Ordering::Relaxed),
            page_table: RwLock::new(HashMap::with_capacity(config.frames * 2)),
            lru: Mutex::new(LruState {
                lru: lru_list,
                frames,
                free: (0..config.frames).rev().collect(),
            }),
            old_flags,
            in_flight: Mutex::new(HashMap::new()),
            disk,
            probes,
            config,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            dirty_writebacks: AtomicU64::new(0),
            make_young_n: AtomicU64::new(0),
            deferred: AtomicU64::new(0),
            backlog_applied: AtomicU64::new(0),
            backlog_depth_hist: Histogram::new(),
            mutex_wait_ns: AtomicU64::new(0),
            #[cfg(debug_assertions)]
            pins: (0..nframes)
                .map(|_| std::sync::atomic::AtomicI64::new(0))
                .collect(),
        }
    }

    /// Pin a frame (debug builds only): record that its contents are in use.
    #[inline]
    fn debug_pin(&self, f: usize) {
        #[cfg(debug_assertions)]
        {
            let now = self.pins[f].fetch_add(1, Ordering::SeqCst) + 1;
            debug_assert!(now >= 1, "frame {f} pin count corrupted: {now}");
        }
        #[cfg(not(debug_assertions))]
        let _ = f;
    }

    /// Unpin a frame (debug builds only): the count must never go negative.
    #[inline]
    fn debug_unpin(&self, f: usize) {
        #[cfg(debug_assertions)]
        {
            let now = self.pins[f].fetch_sub(1, Ordering::SeqCst) - 1;
            debug_assert!(now >= 0, "frame {f} pin count went negative: {now}");
        }
        #[cfg(not(debug_assertions))]
        let _ = f;
    }

    /// Debug-build invariant, checked with the LRU mutex held (every
    /// page-table write happens under it): a page-table entry `pid -> f`
    /// implies `frames[f].page == Some(pid)`.
    #[inline]
    fn debug_check_mapping(&self, state: &LruState, pid: PageId) {
        #[cfg(debug_assertions)]
        if let Some(&f) = self.page_table.read().get(&pid) {
            assert_eq!(
                state.frames[f].page,
                Some(pid),
                "page table maps {pid:?} to frame {f}, which holds another page"
            );
        }
        #[cfg(not(debug_assertions))]
        let _ = (state, pid);
    }

    /// The pool configuration.
    pub fn config(&self) -> &PoolConfig {
        &self.config
    }

    /// Access a page: read (`write = false`) or modify (`write = true`).
    ///
    /// Blocks for disk I/O on a miss. Charges `access_work` CPU to model
    /// in-page row processing.
    pub fn access(&self, pid: PageId, write: bool) -> AccessKind {
        #[cfg(debug_assertions)]
        let mut retries = 0u32;
        loop {
            // A legitimate retry follows a lost eviction race or a
            // coalesced read; an unbounded run of them is a livelock
            // (e.g. a stale page-table entry), so debug builds fail fast.
            #[cfg(debug_assertions)]
            {
                retries += 1;
                assert!(
                    retries <= MAX_ACCESS_RETRIES,
                    "access to {pid:?} retried {MAX_ACCESS_RETRIES} times: livelock"
                );
            }
            // Fast path: page-hash lookup (InnoDB's page_hash rw-latch).
            let frame = self.page_table.read().get(&pid).copied();
            if let Some(f) = frame {
                if self.try_hit(pid, f, write) {
                    self.debug_pin(f);
                    cpu_work(self.config.access_work);
                    self.debug_unpin(f);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return AccessKind::Hit;
                }
                // Frame was concurrently evicted; retry as a miss.
                continue;
            }
            match self.miss(pid, write) {
                Some(kind) => {
                    cpu_work(self.config.access_work);
                    return kind;
                }
                None => continue, // coalesced with another reader; retry
            }
        }
    }

    /// Handle a hit: mark dirty and make young if needed. Returns false if
    /// the frame no longer holds `pid` (lost a race with eviction).
    ///
    /// Clean hits on *young* pages are entirely mutex-free (a racy flag
    /// read), exactly the property that makes stock InnoDB fine until the
    /// working set spills into the old sublist.
    fn try_hit(&self, pid: PageId, f: usize, write: bool) -> bool {
        if write {
            // Dirty marking needs the frame, which lives under the mutex.
            let mut state = self.lru.lock();
            self.debug_check_mapping(&state, pid);
            if state.frames[f].page != Some(pid) || state.frames[f].io_busy {
                return false;
            }
            state.frames[f].dirty = true;
        }
        if self.old_flags[f].load(Ordering::Relaxed) {
            self.make_young_path(pid, f);
        }
        true
    }

    /// The `buf_pool_mutex_enter` + `buf_page_make_young` path, with the
    /// configured mutex policy.
    fn make_young_path(&self, pid: PageId, f: usize) {
        let start = now_nanos();
        match self.config.mutex_policy {
            MutexPolicy::Blocking => {
                let mut state = self.lru.lock();
                self.record_mutex_wait(start);
                if state.frames[f].page == Some(pid) && state.lru.make_young(f) {
                    self.make_young_n.fetch_add(1, Ordering::Relaxed);
                }
            }
            MutexPolicy::Llu { spin_budget } => {
                match self.lru.try_lock_for(spin_budget) {
                    Some(mut state) => {
                        self.record_mutex_wait(start);
                        // Drain this thread's backlog first (paper: process
                        // deferred pages before the triggering page).
                        let backlog =
                            BACKLOG.with(|b| b.borrow_mut().remove(&self.id).unwrap_or_default());
                        self.backlog_depth_hist.record(backlog.len() as u64);
                        for bpid in backlog {
                            let bf = self.page_table.read().get(&bpid).copied();
                            if let Some(bf) = bf {
                                if state.frames[bf].page == Some(bpid) && state.lru.make_young(bf) {
                                    self.backlog_applied.fetch_add(1, Ordering::Relaxed);
                                    self.make_young_n.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                        if state.frames[f].page == Some(pid) && state.lru.make_young(f) {
                            self.make_young_n.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    None => {
                        self.record_mutex_wait(start);
                        BACKLOG.with(|b| {
                            b.borrow_mut().entry(self.id).or_default().push(pid);
                        });
                        self.deferred.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
    }

    fn record_mutex_wait(&self, start: u64) {
        let waited = now_nanos() - start;
        self.mutex_wait_ns.fetch_add(waited, Ordering::Relaxed);
        if let Some(p) = &self.probes {
            p.profiler.add_event(p.mutex_enter, start, waited);
        }
    }

    /// Handle a miss. Returns `None` when the caller should retry (another
    /// thread is reading the page in).
    fn miss(&self, pid: PageId, write: bool) -> Option<AccessKind> {
        // Coalesce concurrent reads of the same page.
        let waiter: Arc<IoWait>;
        {
            let mut inflight = self.in_flight.lock();
            if self.page_table.read().contains_key(&pid) {
                return None; // installed while we took the lock
            }
            if let Some(w) = inflight.get(&pid) {
                // Another thread is reading this page in; wait for it
                // (InnoDB's buf_wait_for_read) and attribute the wait as
                // page I/O.
                let w = w.clone();
                drop(inflight);
                let wait_start = now_nanos();
                let mut done = w.done.lock();
                while !*done {
                    w.cv.wait(&mut done);
                }
                drop(done);
                if let Some(p) = &self.probes {
                    p.profiler
                        .add_event(p.page_io, wait_start, now_nanos() - wait_start);
                }
                return None; // now resident; retry to count as hit
            }
            waiter = Arc::new(IoWait::default());
            inflight.insert(pid, waiter.clone());
        }

        // Obtain a frame: free list or evict the LRU tail.
        let (frame, writeback) = self.obtain_frame(pid);
        self.debug_pin(frame);

        // Disk I/O outside the mutex.
        let io_start = now_nanos();
        if let Some(old_pid) = writeback {
            self.disk.write(self.config.page_bytes);
            self.dirty_writebacks.fetch_add(1, Ordering::Relaxed);
            let _ = old_pid;
        }
        self.disk.read(self.config.page_bytes);
        if let Some(p) = &self.probes {
            p.profiler
                .add_event(p.page_io, io_start, now_nanos() - io_start);
        }

        // Publish: LRU insert then page-hash insert, both under the LRU
        // mutex (lock order lru -> page_table, as in `obtain_frame`).
        // Mapping after the unlock would let an evictor take the frame
        // first, find no entry to remove, and leave a stale `pid -> frame`.
        {
            let mut state = self.lru.lock();
            state.frames[frame].io_busy = false;
            state.frames[frame].dirty = write;
            state.lru.insert_old_head(frame);
            self.page_table.write().insert(pid, frame);
        }
        {
            let mut inflight = self.in_flight.lock();
            inflight.remove(&pid);
        }
        let mut done = waiter.done.lock();
        *done = true;
        waiter.cv.notify_all();
        drop(done);
        self.debug_unpin(frame);

        self.misses.fetch_add(1, Ordering::Relaxed);
        Some(AccessKind::Miss)
    }

    /// Pick a victim frame for `pid`: from the free list, else evict the
    /// coldest non-busy page. Returns `(frame, dirty_page_to_writeback)`.
    fn obtain_frame(&self, pid: PageId) -> (usize, Option<PageId>) {
        loop {
            {
                // This is also a `buf_pool_mutex_enter` call site: misses
                // convoy here behind make-young reorders and (5.6-style)
                // single-page flushes.
                let start = now_nanos();
                let mut state = self.lru.lock();
                self.record_mutex_wait(start);
                if let Some(f) = state.free.pop() {
                    state.frames[f] = Frame {
                        page: Some(pid),
                        dirty: false,
                        io_busy: true,
                    };
                    return (f, None);
                }
                // Walk from the tail skipping io-busy frames.
                let mut cand = state.lru.evict_candidate();
                while let Some(f) = cand {
                    if !state.frames[f].io_busy {
                        break;
                    }
                    cand = state.lru.prev_of(f);
                }
                if let Some(f) = cand {
                    let old = state.frames[f];
                    state.lru.remove(f);
                    state.frames[f] = Frame {
                        page: Some(pid),
                        dirty: false,
                        io_busy: true,
                    };
                    // Unmap the victim before anyone can re-find the frame
                    // (lock order: lru -> page_table, used nowhere reversed).
                    if let Some(old_pid) = old.page {
                        self.page_table.write().remove(&old_pid);
                    }
                    let mut writeback = old.dirty.then_some(old.page).flatten();
                    if writeback.is_some() && self.config.writeback_under_mutex {
                        // Single-page flush with the mutex held (5.6-style):
                        // everyone needing the LRU list convoys behind us.
                        let io_start = now_nanos();
                        self.disk.write(self.config.page_bytes);
                        if let Some(p) = &self.probes {
                            p.profiler
                                .add_event(p.page_io, io_start, now_nanos() - io_start);
                        }
                        self.dirty_writebacks.fetch_add(1, Ordering::Relaxed);
                        writeback = None;
                    }
                    drop(state);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    return (f, writeback);
                }
            }
            // Everything busy (tiny pool, heavy concurrency): back off.
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    /// Write back every dirty page (checkpoint / shutdown).
    pub fn flush_all(&self) -> u64 {
        let dirty: Vec<usize> = {
            let state = self.lru.lock();
            (0..state.frames.len())
                .filter(|&f| state.frames[f].dirty && state.frames[f].page.is_some())
                .collect()
        };
        let mut n = 0;
        for f in dirty {
            self.disk.write(self.config.page_bytes);
            let mut state = self.lru.lock();
            state.frames[f].dirty = false;
            n += 1;
        }
        n
    }

    /// Whether a page is currently resident.
    pub fn is_resident(&self, pid: PageId) -> bool {
        self.page_table.read().contains_key(&pid)
    }

    /// Sorted resident page set (test/inspection hook).
    pub fn resident_pages(&self) -> Vec<PageId> {
        let mut pages: Vec<PageId> = self.page_table.read().keys().copied().collect();
        pages.sort_unstable();
        pages
    }

    /// `(young_len, old_len)` of the LRU list, read under the pool mutex.
    pub fn lru_lens(&self) -> (usize, usize) {
        let state = self.lru.lock();
        (state.lru.young_len(), state.lru.old_len())
    }

    /// Run `f` while holding the pool's LRU mutex. Test hook: lets a test
    /// make the mutex contended from the outside, forcing the LLU path to
    /// defer make-young updates (the condition Section 6.1 targets).
    pub fn with_lru_held<R>(&self, f: impl FnOnce() -> R) -> R {
        let _guard = self.lru.lock();
        f()
    }

    /// Number of resident pages.
    pub fn resident_count(&self) -> usize {
        self.page_table.read().len()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            dirty_writebacks: self.dirty_writebacks.load(Ordering::Relaxed),
            make_young: self.make_young_n.load(Ordering::Relaxed),
            deferred_updates: self.deferred.load(Ordering::Relaxed),
            backlog_applied: self.backlog_applied.load(Ordering::Relaxed),
            mutex_wait_ns: self.mutex_wait_ns.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of the LLU backlog-depth histogram (pages per drain).
    pub fn backlog_depth_histogram(&self) -> HistogramSnapshot {
        self.backlog_depth_hist.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpd_common::dist::ServiceTime;
    use tpd_common::DiskConfig;

    fn fast_disk() -> Arc<SimDisk> {
        Arc::new(SimDisk::new(DiskConfig {
            service: ServiceTime::Fixed(30_000), // 30 µs
            ns_per_byte: 0.0,
            seed: 1,
        }))
    }

    fn pool(frames: usize) -> BufferPool {
        BufferPool::new(
            PoolConfig {
                frames,
                access_work: 8,
                ..Default::default()
            },
            fast_disk(),
            None,
        )
    }

    #[test]
    fn first_access_misses_second_hits() {
        let p = pool(8);
        assert_eq!(p.access(PageId(1), false), AccessKind::Miss);
        assert_eq!(p.access(PageId(1), false), AccessKind::Hit);
        let s = p.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
        assert!(p.is_resident(PageId(1)));
    }

    #[test]
    fn evicts_lru_when_full() {
        let p = pool(4);
        for k in 0..4 {
            p.access(PageId(k), false);
        }
        assert_eq!(p.resident_count(), 4);
        // Next distinct page forces an eviction.
        p.access(PageId(100), false);
        assert_eq!(p.resident_count(), 4);
        assert_eq!(p.stats().evictions, 1);
    }

    #[test]
    fn dirty_pages_written_back_on_eviction() {
        let p = pool(4);
        p.access(PageId(0), true); // dirty
        for k in 1..4 {
            p.access(PageId(k), false);
        }
        // Page 0 sits in the old tail region; touch the others so 0 is
        // coldest, then force eviction.
        for k in 10..14 {
            p.access(PageId(k), false);
        }
        let s = p.stats();
        assert!(s.evictions >= 4);
        assert!(s.dirty_writebacks >= 1, "dirty page written back");
    }

    #[test]
    fn repeated_old_hits_make_young() {
        let p = pool(16);
        for k in 0..16 {
            p.access(PageId(k), false);
        }
        // 3/8 of 16 = 6 old pages; hitting an old page promotes it.
        let before = p.stats().make_young;
        for k in 0..16 {
            p.access(PageId(k), false);
        }
        assert!(p.stats().make_young > before, "some promotions happened");
    }

    #[test]
    fn flush_all_clears_dirty() {
        let p = pool(8);
        for k in 0..6 {
            p.access(PageId(k), true);
        }
        let flushed = p.flush_all();
        assert_eq!(flushed, 6);
        assert_eq!(p.flush_all(), 0, "second flush has nothing to do");
    }

    #[test]
    fn llu_defers_when_mutex_held() {
        let p = Arc::new(BufferPool::new(
            PoolConfig {
                frames: 16,
                mutex_policy: MutexPolicy::Llu {
                    spin_budget: Duration::from_micros(50),
                },
                access_work: 8,
                ..Default::default()
            },
            fast_disk(),
            None,
        ));
        for k in 0..16 {
            p.access(PageId(k), false);
        }
        // Find an old page to hit.
        let old_pid = (0..16)
            .map(PageId)
            .find(|pid| {
                let f = p.page_table.read().get(pid).copied().expect("resident");
                p.lru.lock().lru.is_old(f)
            })
            .expect("some old page");
        // Hold the LRU mutex from another thread to force deferral.
        let guard = p.lru.lock();
        let p2 = p.clone();
        let h = std::thread::spawn(move || {
            p2.access(old_pid, false);
        });
        h.join().expect("access with held mutex must not block");
        drop(guard);
        let s = p.stats();
        assert_eq!(s.deferred_updates, 1, "update deferred");
        // A later hit on another old page drains the backlog. The backlog
        // is thread-local, so drain from a thread that has it — the same
        // thread deferred it, so spawn accesses on this thread instead:
        // simplest is to hit an old page from this thread after deferring
        // one here too.
        let guard = p.lru.lock();
        p.access(old_pid, false); // deferred on main thread
        drop(guard);
        assert_eq!(p.stats().deferred_updates, 2);
        // Now a successful acquisition on this thread drains main's backlog.
        for k in 0..16 {
            p.access(PageId(k), false);
        }
        assert!(p.stats().backlog_applied >= 1, "backlog drained");
    }

    #[test]
    fn concurrent_access_is_consistent() {
        use std::sync::atomic::AtomicU32;
        let p = Arc::new(pool(32));
        let errors = Arc::new(AtomicU32::new(0));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let p = p.clone();
            let errors = errors.clone();
            handles.push(std::thread::spawn(move || {
                use rand::rngs::SmallRng;
                use rand::{Rng, SeedableRng};
                let mut rng = SmallRng::seed_from_u64(t);
                for _ in 0..300 {
                    let pid = PageId(rng.gen_range(0..64));
                    let kind = p.access(pid, rng.gen_bool(0.3));
                    if kind == AccessKind::Miss && p.stats().misses == 0 {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        for h in handles {
            h.join().expect("worker");
        }
        assert_eq!(errors.load(Ordering::Relaxed), 0);
        let s = p.stats();
        assert_eq!(s.hits + s.misses, 1200);
        assert!(p.resident_count() <= 32);
    }

    #[test]
    fn coalesced_misses_single_read() {
        let p = Arc::new(pool(8));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let p = p.clone();
            handles.push(std::thread::spawn(move || p.access(PageId(7), false)));
        }
        let kinds: Vec<AccessKind> = handles.into_iter().map(|h| h.join().expect("t")).collect();
        // Exactly one thread performs the miss; the rest coalesce into hits.
        let misses = kinds.iter().filter(|k| **k == AccessKind::Miss).count();
        assert_eq!(misses, 1, "kinds: {kinds:?}");
        assert_eq!(p.stats().misses, 1);
    }
}
