//! Multi-threaded WAL append microbench: the log stripe's two
//! configurations — mutex-serialized appends with a blocking flush baton
//! (the paper's log) vs reserve-then-copy with parked committers — across
//! thread counts and flush policies.
//!
//! Three outputs:
//!
//! * A plain-text *fsyncs-per-commit* report (printed before Criterion
//!   runs): fixed commit count per config, `flushes / commits` and the
//!   group-commit batch mean, on both the simulated disk and a real
//!   [`FileDisk`] — the honest-fsync numbers the simulator calibrates
//!   against.
//! * A Fig. 4-style block-size sweep of the Postgres WALWriteLock path:
//!   commit block size vs fsyncs-per-commit and group-commit batch,
//!   again `SimDisk` vs `FileDisk`.
//! * Criterion `wal_append/<mode>_<policy>` groups parameterized by
//!   thread count: wall-clock append+commit throughput on instant disks,
//!   i.e. pure synchronization overhead.
//!
//! Sim disks are `Fixed(0)` so the contended lock/atomic path is the
//! only cost; file disks pay real `fdatasync(2)`. Numbers from a run of
//! this bench are recorded in DESIGN.md §10.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{black_box, BenchmarkId, Criterion};

use tpd_common::dist::ServiceTime;
use tpd_common::{DiskConfig, DiskDevice, FileDisk, SimDisk};
use tpd_wal::{AppendMode, FlushPolicy, RedoLog, RedoLogConfig, WalWriter, WalWriterConfig};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Backend {
    Sim,
    File,
}

const BACKENDS: [(Backend, &str); 2] = [(Backend::Sim, "sim"), (Backend::File, "file")];

fn instant_disk(seed: u64) -> Arc<dyn DiskDevice> {
    Arc::new(SimDisk::new(DiskConfig {
        service: ServiceTime::Fixed(0),
        ns_per_byte: 0.0,
        seed,
    }))
}

/// Scratch directory for FileDisk-backed report runs.
fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tpd-wal-append-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench scratch dir");
    dir
}

fn device(backend: Backend, seed: u64, tag: &str) -> Arc<dyn DiskDevice> {
    match backend {
        Backend::Sim => instant_disk(seed),
        Backend::File => Arc::new(
            FileDisk::create(scratch_dir().join(format!("{tag}-{seed}.log")))
                .expect("create bench file disk"),
        ),
    }
}

fn build_log(
    append: AppendMode,
    policy: FlushPolicy,
    writers: usize,
    backend: Backend,
    tag: &str,
) -> Arc<RedoLog> {
    let disks = (0..writers.max(1))
        .map(|i| device(backend, 1 + i as u64, tag))
        .collect();
    RedoLog::with_disks(
        RedoLogConfig {
            policy,
            append,
            writers: writers.max(1),
            // No background flusher: keep the bench single-process
            // deterministic; eager commits flush inline anyway.
            manual_flush: true,
            ..Default::default()
        },
        disks,
        None,
    )
}

/// Run `per_thread` append+commit pairs on each of `threads` threads.
fn drive(log: &Arc<RedoLog>, threads: usize, per_thread: u64) -> Duration {
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let log = Arc::clone(log);
            s.spawn(move || {
                for i in 0..per_thread {
                    let lsn = log.append(64 + ((t as u64 + i) % 7) * 32);
                    black_box(log.commit(lsn));
                }
            });
        }
    });
    start.elapsed()
}

const MODES: [(AppendMode, &str); 2] = [
    (AppendMode::Mutex, "mutex"),
    (AppendMode::Lockfree, "lockfree"),
];
const POLICIES: [(FlushPolicy, &str); 2] = [
    (FlushPolicy::Eager, "eager"),
    (FlushPolicy::LazyWrite, "lazy_write"),
];
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Fixed-work comparison: fsyncs per commit and group-commit sharing,
/// sim vs real file-backed devices.
fn fsync_report() {
    println!("wal_append fsyncs-per-commit (sim: instant disks; file: real fdatasync)");
    println!(
        "{:<33} {:>8} {:>9} {:>10} {:>13} {:>11}",
        "config", "threads", "commits", "flushes", "fsync/commit", "batch mean"
    );
    for (backend, backend_name) in BACKENDS {
        // Real fsyncs are ~10^4× the instant sim request, so the file
        // pass runs a smaller fixed workload to stay interactive.
        let per_thread: u64 = match backend {
            Backend::Sim => 2_000,
            Backend::File => 200,
        };
        for (mode, mode_name) in MODES {
            for (policy, policy_name) in POLICIES {
                for writers in [1, 2] {
                    for threads in THREADS {
                        let tag = format!("{backend_name}-{mode_name}-{policy_name}-t{threads}");
                        let log = build_log(mode, policy, writers, backend, &tag);
                        drive(&log, threads, per_thread);
                        let stats = log.stats();
                        let batch = log.group_commit_batch_histogram();
                        println!(
                            "{:<33} {:>8} {:>9} {:>10} {:>13.4} {:>11.2}",
                            format!("{backend_name}/{mode_name}/{policy_name}/k{writers}"),
                            threads,
                            stats.commits,
                            stats.flushes,
                            stats.flushes as f64 / stats.commits.max(1) as f64,
                            batch.sum as f64 / batch.count.max(1) as f64,
                        );
                        log.shutdown();
                    }
                }
            }
        }
    }
}

/// Fig. 4-style sweep: Postgres WALWriteLock commit block size vs
/// fsyncs-per-commit and group-commit batch, sim vs real file disks.
/// The paper's Fig. 4 isolates the log-block knob's effect on commit
/// cost; with a real device the padding written per flush becomes an
/// actual `pwrite` + `fdatasync`.
fn block_size_report() {
    const THREADS: usize = 4;
    const PAYLOAD: u64 = 2_500;
    println!();
    println!("pg commit block-size sweep (Fig. 4 regime, {THREADS} threads, {PAYLOAD} B/commit)");
    println!(
        "{:<12} {:>7} {:>9} {:>10} {:>13} {:>11}",
        "backend", "block", "commits", "flushes", "fsync/commit", "batch mean"
    );
    for (backend, backend_name) in BACKENDS {
        let per_thread: u64 = match backend {
            Backend::Sim => 2_000,
            Backend::File => 200,
        };
        for block in [4096u64, 8192, 65536] {
            let w = Arc::new(WalWriter::new(
                WalWriterConfig {
                    sets: 1,
                    block_size: block,
                    per_block_overhead: Duration::ZERO,
                    faults: None,
                    ..Default::default()
                },
                vec![device(backend, 90 + block, &format!("{backend_name}-pg"))],
                None,
            ));
            std::thread::scope(|s| {
                for _ in 0..THREADS {
                    let w = Arc::clone(&w);
                    s.spawn(move || {
                        for _ in 0..per_thread {
                            black_box(w.commit(PAYLOAD));
                        }
                    });
                }
            });
            let stats = w.stats();
            let batch = w.group_commit_batch_histogram();
            println!(
                "{:<12} {:>7} {:>9} {:>10} {:>13.4} {:>11.2}",
                backend_name,
                block,
                stats.commits,
                stats.flushes,
                stats.flushes as f64 / stats.commits.max(1) as f64,
                batch.sum as f64 / batch.count.max(1) as f64,
            );
        }
    }
}

/// Single-threaded append-only cost (no commit): the reservation path
/// itself, mutex vs fetch_add+publish.
fn append_only(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_append/append_only");
    for (mode, mode_name) in MODES {
        group.bench_with_input(BenchmarkId::from_parameter(mode_name), &mode, |b, &mode| {
            let log = build_log(mode, FlushPolicy::LazyWrite, 1, Backend::Sim, "criterion");
            b.iter(|| black_box(log.append(256)));
            log.shutdown();
        });
    }
    group.finish();
}

fn append_commit(c: &mut Criterion) {
    for (mode, mode_name) in MODES {
        for (policy, policy_name) in POLICIES {
            let mut group = c.benchmark_group(format!("wal_append/{mode_name}_{policy_name}"));
            for threads in THREADS {
                group.bench_with_input(
                    BenchmarkId::from_parameter(threads),
                    &threads,
                    |b, &threads| {
                        b.iter_custom(|iters| {
                            let log = build_log(mode, policy, 1, Backend::Sim, "criterion");
                            let elapsed =
                                drive(&log, threads, iters.div_ceil(threads as u64).max(1));
                            log.shutdown();
                            elapsed
                        });
                    },
                );
            }
            group.finish();
        }
    }
}

fn main() {
    // `cargo bench -- --help`-style flag probing shouldn't trigger the
    // fixed-work report; only real runs print it.
    if std::env::args().all(|a| a != "--help" && a != "--version") {
        fsync_report();
        block_size_report();
        let _ = std::fs::remove_dir_all(scratch_dir());
    }
    let mut c = Criterion::default().sample_size(10);
    append_only(&mut c);
    append_commit(&mut c);
}
