//! A simulated disk device.
//!
//! The paper's experiments ran against real storage whose service-time
//! variability surfaces in `fil_flush` (MySQL) and the WAL flush path
//! (Postgres). We stand in a [`SimDisk`]: a device that services one request
//! at a time (requests queue on the device mutex, exactly like a disk queue),
//! where each request costs a base service time drawn from a configurable
//! distribution plus a per-byte transfer cost. "Service" is charged through
//! [`clock::advance`](crate::clock::advance): a kernel sleep in real mode —
//! which yields the CPU, so concurrency effects (other transactions making
//! progress during I/O) are preserved even on a single-core host, and which
//! wakes a few microseconds after the service time because the sleeping
//! thread's timer slack is tightened — and a free logical-clock bump under
//! the harness's virtual clock.
//!
//! A device may additionally carry a seeded [`FaultPlan`] (write stalls,
//! latency spikes); see [`SimDisk::with_faults`].
//!
//! Both [`SimDisk`] and the real-file [`FileDisk`] implement the
//! [`DiskDevice`] trait, so the WAL, buffer pool, and engine are generic
//! over the backend: simulation keeps the deterministic digests
//! byte-identical, while `disk_backend = file` pays real `write(2)` +
//! `fdatasync(2)` costs against an on-disk file.

use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::dist::ServiceTime;
use crate::fault::FaultPlan;
use crate::{now_nanos, Nanos};

/// Configuration for one simulated device.
#[derive(Debug, Clone)]
pub struct DiskConfig {
    /// Base service time per request (seek + rotational or flash overhead).
    pub service: ServiceTime,
    /// Transfer cost per byte, nanoseconds (e.g. 0.01 ns/B ≈ 100 GB/s bus,
    /// 10 ns/B ≈ 100 MB/s disk).
    pub ns_per_byte: f64,
    /// RNG seed so experiments are repeatable.
    pub seed: u64,
}

impl Default for DiskConfig {
    fn default() -> Self {
        DiskConfig {
            // ~200 µs median with a heavy tail: a fast SSD scaled up so
            // that the few microseconds each simulated request adds for
            // its wake-up (see `clock::SLEEP_TIMER_SLACK_NS`) stay small.
            service: ServiceTime::LogNormal {
                median: 200_000,
                sigma: 0.4,
            },
            ns_per_byte: 2.0,
            seed: 0xD15C,
        }
    }
}

/// Cumulative device statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Completed read requests.
    pub reads: u64,
    /// Completed write requests.
    pub writes: u64,
    /// Completed flush (durability barrier) requests.
    pub flushes: u64,
    /// Total bytes transferred.
    pub bytes: u64,
    /// Total nanoseconds spent in service (not counting queueing).
    pub busy_ns: u64,
    /// Injected write stalls that fired (fault plan).
    pub stalls: u64,
    /// Injected latency spikes that fired (fault plan).
    pub spikes: u64,
}

/// A single simulated device. One request in service at a time; callers
/// queue on the internal channel mutex, which models the device queue.
#[derive(Debug)]
pub struct SimDisk {
    channel: Mutex<SmallRng>,
    config: DiskConfig,
    /// Fault plan with its own RNG, so enabling faults never shifts the
    /// base service-time sequence.
    faults: Option<Mutex<(FaultPlan, SmallRng)>>,
    reads: AtomicU64,
    writes: AtomicU64,
    flushes: AtomicU64,
    bytes: AtomicU64,
    busy_ns: AtomicU64,
    stalls: AtomicU64,
    spikes: AtomicU64,
}

/// What kind of request a caller issued (affects only accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoKind {
    /// Page or log read.
    Read,
    /// Page or log write (into the device cache).
    Write,
    /// Durability barrier (fsync-like; what commit waits on).
    Flush,
}

/// A block device the storage and log layers can issue requests against.
///
/// Two implementations: [`SimDisk`] (modeled service times, deterministic
/// under the virtual clock) and [`FileDisk`] (a real file; writes and
/// durability barriers are real syscalls). Callers only care about the
/// request/stats surface, so everything above the device takes
/// `Arc<dyn DiskDevice>`.
pub trait DiskDevice: Send + Sync + std::fmt::Debug {
    /// Issue one request of `bytes` bytes and block until it completes.
    /// Returns the time spent, including queueing behind other requests.
    fn request(&self, kind: IoKind, bytes: u64) -> Nanos;

    /// Convenience wrapper for a read.
    fn read(&self, bytes: u64) -> Nanos {
        self.request(IoKind::Read, bytes)
    }

    /// Convenience wrapper for a write.
    fn write(&self, bytes: u64) -> Nanos {
        self.request(IoKind::Write, bytes)
    }

    /// Convenience wrapper for a flush (durability barrier).
    fn flush(&self, bytes: u64) -> Nanos {
        self.request(IoKind::Flush, bytes)
    }

    /// Snapshot of cumulative statistics.
    fn stats(&self) -> DiskStats;
}

impl DiskDevice for SimDisk {
    fn request(&self, kind: IoKind, bytes: u64) -> Nanos {
        SimDisk::request(self, kind, bytes)
    }

    fn stats(&self) -> DiskStats {
        SimDisk::stats(self)
    }
}

impl SimDisk {
    /// A new device with the given configuration.
    pub fn new(config: DiskConfig) -> Self {
        Self::with_faults(config, None)
    }

    /// A new device that perturbs service times with the given fault plan.
    pub fn with_faults(config: DiskConfig, plan: Option<FaultPlan>) -> Self {
        SimDisk {
            channel: Mutex::new(SmallRng::seed_from_u64(config.seed)),
            faults: plan.map(|p| {
                let rng = SmallRng::seed_from_u64(p.seed);
                Mutex::new((p, rng))
            }),
            config,
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            spikes: AtomicU64::new(0),
        }
    }

    /// A device with default (SSD-like, heavy-tailed) service times.
    pub fn default_device() -> Self {
        Self::new(DiskConfig::default())
    }

    /// Issue one request of `bytes` bytes and block until it completes.
    ///
    /// Returns the time spent, including queueing behind other requests.
    pub fn request(&self, kind: IoKind, bytes: u64) -> Nanos {
        let start = now_nanos();
        {
            // Hold the channel for the duration of service: requests behind
            // us queue here, exactly like a disk queue.
            let mut rng = self.channel.lock();
            let base = self.config.service.sample(&mut *rng);
            let mut service = base + (bytes as f64 * self.config.ns_per_byte) as Nanos;
            if let Some(faults) = &self.faults {
                let (plan, fault_rng) = &mut *faults.lock();
                let (extra, stalled, spiked) = plan.perturb(fault_rng, kind, base);
                service = service.saturating_add(extra);
                if stalled {
                    self.stalls.fetch_add(1, Ordering::Relaxed);
                }
                if spiked {
                    self.spikes.fetch_add(1, Ordering::Relaxed);
                }
            }
            crate::clock::advance(service);
            self.busy_ns.fetch_add(service, Ordering::Relaxed);
        }
        match kind {
            IoKind::Read => self.reads.fetch_add(1, Ordering::Relaxed),
            IoKind::Write => self.writes.fetch_add(1, Ordering::Relaxed),
            IoKind::Flush => self.flushes.fetch_add(1, Ordering::Relaxed),
        };
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        now_nanos() - start
    }

    /// Convenience wrapper for a read.
    pub fn read(&self, bytes: u64) -> Nanos {
        self.request(IoKind::Read, bytes)
    }

    /// Convenience wrapper for a write.
    pub fn write(&self, bytes: u64) -> Nanos {
        self.request(IoKind::Write, bytes)
    }

    /// Convenience wrapper for a flush (durability barrier).
    pub fn flush(&self, bytes: u64) -> Nanos {
        self.request(IoKind::Flush, bytes)
    }

    /// Snapshot of cumulative statistics.
    pub fn stats(&self) -> DiskStats {
        DiskStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            stalls: self.stalls.load(Ordering::Relaxed),
            spikes: self.spikes.load(Ordering::Relaxed),
        }
    }

    /// The device's configuration.
    pub fn config(&self) -> &DiskConfig {
        &self.config
    }
}

/// A real file as a disk device.
///
/// Byte-count requests ([`DiskDevice::write`]) append zero-fill of the
/// requested length — the simulation-style callers only model I/O volume —
/// while the file-backed WAL writes real frame payloads through
/// [`FileDisk::append_raw`]. A flush is a real `fdatasync(2)`, so commit
/// latency in `disk_backend = file` mode includes genuine device cost.
/// Appends reserve disjoint offsets under the state lock and land via
/// `pwrite`, so concurrent writers never interleave bytes.
#[derive(Debug)]
pub struct FileDisk {
    state: Mutex<FileState>,
    path: PathBuf,
    reads: AtomicU64,
    writes: AtomicU64,
    flushes: AtomicU64,
    bytes: AtomicU64,
    busy_ns: AtomicU64,
    /// Crash-injection: a killed device issues no further syscalls — in
    /// particular the `fdatasync` of [`IoKind::Flush`] never happens, so
    /// bytes already `pwrite`-landed sit unsynced exactly as after a
    /// process death between `pwrite` and `fdatasync`.
    killed: AtomicBool,
}

#[derive(Debug)]
struct FileState {
    file: File,
    /// Logical end of file: next append offset.
    len: u64,
}

/// Zero-fill chunk for byte-count writes.
const ZERO_CHUNK: [u8; 16 * 1024] = [0u8; 16 * 1024];

impl FileDisk {
    /// Create (or truncate) the file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok(Self::from_file(file, 0, path))
    }

    /// Open the existing file at `path`, appending after its current
    /// contents.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::options().read(true).write(true).open(&path)?;
        let len = file.metadata()?.len();
        Ok(Self::from_file(file, len, path))
    }

    fn from_file(file: File, len: u64, path: PathBuf) -> Self {
        FileDisk {
            state: Mutex::new(FileState { file, len }),
            path,
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            killed: AtomicBool::new(false),
        }
    }

    /// Kill the device: every later request (including the `fdatasync`
    /// behind [`IoKind::Flush`]) and [`FileDisk::append_raw`] silently
    /// does nothing, as if the owning process died. Bytes written before
    /// the kill stay in the file — the "landed but never synced" window
    /// the crash matrix's after-write phase exercises.
    pub fn kill(&self) {
        self.killed.store(true, Ordering::SeqCst);
    }

    /// Whether [`FileDisk::kill`] has fired.
    pub fn is_killed(&self) -> bool {
        self.killed.load(Ordering::SeqCst)
    }

    /// The path this device writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current logical length (next append offset).
    pub fn len(&self) -> u64 {
        self.state.lock().len
    }

    /// Whether nothing has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a real payload (a WAL frame) and return the time spent.
    /// Counts as one write request of `buf.len()` bytes.
    pub fn append_raw(&self, buf: &[u8]) -> io::Result<Nanos> {
        if self.killed.load(Ordering::Acquire) {
            return Ok(0);
        }
        let wall = std::time::Instant::now();
        {
            let mut st = self.state.lock();
            let off = st.len;
            st.file.write_all_at(buf, off)?;
            st.len = off + buf.len() as u64;
        }
        let spent = wall.elapsed().as_nanos() as Nanos;
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.busy_ns.fetch_add(spent, Ordering::Relaxed);
        Ok(spent)
    }

    /// Swap in a fresh file (segment rotation). Subsequent requests land in
    /// `file`; the old handle is returned so the caller can decide whether
    /// to keep or drop it.
    pub fn swap_file(&self, file: File) -> File {
        let mut st = self.state.lock();
        let old = std::mem::replace(&mut st.file, file);
        st.len = 0;
        old
    }

    /// Real `fdatasync(2)` on the current file.
    fn sync(&self) -> io::Result<()> {
        let st = self.state.lock();
        st.file.sync_data()
    }
}

impl DiskDevice for FileDisk {
    fn request(&self, kind: IoKind, bytes: u64) -> Nanos {
        if self.killed.load(Ordering::Acquire) {
            return 0;
        }
        let wall = std::time::Instant::now();
        match kind {
            IoKind::Read => {
                // Read `bytes` from the head of the file (content is
                // irrelevant to the storage model; the syscall cost is not).
                let st = self.state.lock();
                let mut buf = [0u8; ZERO_CHUNK.len()];
                let mut off = 0u64;
                let end = bytes.min(st.len);
                while off < end {
                    let n = ((end - off) as usize).min(buf.len());
                    if st.file.read_at(&mut buf[..n], off).is_err() {
                        break;
                    }
                    off += n as u64;
                }
                self.reads.fetch_add(1, Ordering::Relaxed);
            }
            IoKind::Write => {
                let mut st = self.state.lock();
                let mut off = st.len;
                let end = off + bytes;
                while off < end {
                    let n = ((end - off) as usize).min(ZERO_CHUNK.len());
                    if st.file.write_all_at(&ZERO_CHUNK[..n], off).is_err() {
                        break;
                    }
                    off += n as u64;
                }
                st.len = end;
                self.writes.fetch_add(1, Ordering::Relaxed);
            }
            IoKind::Flush => {
                let _ = self.sync();
                self.flushes.fetch_add(1, Ordering::Relaxed);
            }
        }
        let spent = wall.elapsed().as_nanos() as Nanos;
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.busy_ns.fetch_add(spent, Ordering::Relaxed);
        spent
    }

    fn stats(&self) -> DiskStats {
        DiskStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            stalls: 0,
            spikes: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn fast_disk() -> SimDisk {
        SimDisk::new(DiskConfig {
            service: ServiceTime::Fixed(100_000), // 100 µs
            ns_per_byte: 0.0,
            seed: 7,
        })
    }

    #[test]
    fn request_takes_at_least_service_time() {
        let disk = fast_disk();
        let t = disk.read(0);
        assert!(t >= 100_000, "took {t} ns");
    }

    #[test]
    fn stats_account_by_kind() {
        let disk = fast_disk();
        disk.read(10);
        disk.write(20);
        disk.flush(0);
        let s = disk.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.flushes, 1);
        assert_eq!(s.bytes, 30);
        assert!(s.busy_ns >= 300_000);
    }

    #[test]
    fn per_byte_cost_applies() {
        let disk = SimDisk::new(DiskConfig {
            service: ServiceTime::Fixed(0),
            ns_per_byte: 1000.0, // 1 µs per byte
            seed: 7,
        });
        let t = disk.write(1000); // = 1 ms transfer
        assert!(t >= 1_000_000, "took {t} ns");
    }

    #[test]
    fn faults_fire_and_are_counted() {
        let disk = SimDisk::with_faults(
            DiskConfig {
                service: ServiceTime::Fixed(1_000),
                ns_per_byte: 0.0,
                seed: 7,
            },
            Some(FaultPlan {
                seed: 11,
                stall_prob: 1.0,
                stall_ns: 50_000,
                spike_prob: 0.0,
                spike_mult: 1,
            }),
        );
        disk.read(0); // reads never stall
        disk.write(0);
        let s = disk.stats();
        assert_eq!(s.stalls, 1);
        assert_eq!(s.spikes, 0);
        assert!(s.busy_ns >= 51_000 + 1_000, "stall charged: {}", s.busy_ns);
    }

    #[test]
    fn virtual_clock_makes_io_free_and_deterministic() {
        let run = || {
            let _guard = crate::clock::VirtualClock::enable(0);
            let disk = SimDisk::with_faults(
                DiskConfig {
                    service: ServiceTime::LogNormal {
                        median: 200_000,
                        sigma: 0.4,
                    },
                    ns_per_byte: 2.0,
                    seed: 99,
                },
                Some(FaultPlan::chaos(3)),
            );
            for i in 0..200 {
                match i % 3 {
                    0 => disk.read(512),
                    1 => disk.write(4096),
                    _ => disk.flush(0),
                };
            }
            (now_nanos(), disk.stats())
        };
        let wall = std::time::Instant::now();
        let (t1, s1) = run();
        let (t2, s2) = run();
        assert_eq!(t1, t2, "same seed, same virtual elapsed time");
        assert_eq!(s1, s2, "same seed, same stats (incl. fault counters)");
        assert!(s1.busy_ns > 0 && t1 >= s1.busy_ns);
        // 200 requests at ~200 µs each is ~40 ms of modeled time; the
        // virtual runs must cost far less wall time than that.
        assert!(wall.elapsed() < std::time::Duration::from_millis(40));
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "tpd-filedisk-{tag}-{}-{:x}",
            std::process::id(),
            now_nanos()
        ));
        p
    }

    #[test]
    fn file_disk_appends_flushes_and_accounts() {
        let path = temp_path("basic");
        let disk = FileDisk::create(&path).expect("create");
        disk.append_raw(b"hello").expect("append");
        disk.write(11); // zero-fill
        disk.flush(0);
        disk.read(16);
        let s = DiskDevice::stats(&disk);
        assert_eq!((s.reads, s.writes, s.flushes), (1, 2, 1));
        assert_eq!(s.bytes, 5 + 11 + 16);
        assert_eq!(disk.len(), 16);
        assert_eq!(std::fs::metadata(&path).expect("meta").len(), 16);
        let contents = std::fs::read(&path).expect("read back");
        assert_eq!(&contents[..5], b"hello");
        assert!(contents[5..].iter().all(|&b| b == 0));
        drop(disk);
        let reopened = FileDisk::open(&path).expect("open");
        assert_eq!(reopened.len(), 16, "open resumes after existing bytes");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_disk_swap_file_restarts_offsets() {
        let path = temp_path("swap");
        let path2 = temp_path("swap2");
        let disk = FileDisk::create(&path).expect("create");
        disk.append_raw(b"old segment").expect("append");
        let fresh = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path2)
            .expect("new segment");
        drop(disk.swap_file(fresh));
        disk.append_raw(b"new").expect("append");
        assert_eq!(disk.len(), 3);
        assert_eq!(std::fs::read(&path2).expect("read"), b"new");
        assert_eq!(std::fs::read(&path).expect("read"), b"old segment");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&path2).ok();
    }

    #[test]
    fn dyn_device_dispatch_reaches_both_backends() {
        let path = temp_path("dyn");
        let devices: Vec<Arc<dyn DiskDevice>> = vec![
            Arc::new(fast_disk()),
            Arc::new(FileDisk::create(&path).expect("create")),
        ];
        for d in &devices {
            d.write(8);
            d.flush(0);
            let s = d.stats();
            assert_eq!((s.writes, s.flushes), (1, 1));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_requests_serialize() {
        let disk = Arc::new(fast_disk());
        let start = now_nanos();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let d = disk.clone();
            handles.push(std::thread::spawn(move || d.flush(0)));
        }
        for h in handles {
            h.join().expect("io thread panicked");
        }
        let elapsed = now_nanos() - start;
        // Four 100 µs requests through one channel take >= 400 µs.
        assert!(elapsed >= 400_000, "elapsed {elapsed} ns");
        assert_eq!(disk.stats().flushes, 4);
    }
}
