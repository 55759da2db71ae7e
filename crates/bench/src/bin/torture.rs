//! The torture binary: seeded deterministic crash–recovery + isolation
//! testing against the mini engine.
//!
//! ```text
//! cargo run -p tpd-bench --bin torture -- --seed 42
//! cargo run -p tpd-bench --bin torture -- --seeds 8 --faults
//! ```
//!
//! One line per seed: digest, commit/abort/crash counts, verdict. On a
//! violation the full report (seed + minimized trace) is printed and
//! written to `torture-seed-<S>.trace.txt`, and the process exits 1 —
//! CI uploads the trace file as the failing artifact.

use std::path::PathBuf;

use tpd_common::dist::ServiceTime;
use tpd_engine::{Concurrency, DiskBackend, Policy};
use tpd_harness::{run_torture, TortureConfig};
use tpd_wal::{AppendMode, FlushPolicy};
use tpd_workloads::TortureMix;

#[derive(Debug, Clone)]
struct TortureArgs {
    /// Single seed to run (`--seed S`).
    seed: u64,
    /// Run seeds `seed..seed + seeds` (`--seeds N`).
    seeds: u64,
    /// Enable fault injection (`--faults`).
    faults: bool,
    /// Transactions per seed.
    txns: u64,
    /// Logical sessions.
    sessions: usize,
    /// Crash cadence (transactions; 0 = never).
    crash_every: u64,
    /// Flush policy: `eager`, `lazy-write`, or `lazy-flush`.
    policy: FlushPolicy,
    /// Lock scheduling policy: `fcfs`, `vats`, `rs`, `cats`, or
    /// `predictive`. Shares the `--policy` flag with the flush policies —
    /// the two name sets are disjoint, so each value routes to its knob.
    lock_policy: Policy,
    /// Seeded bug: skip lock acquisition.
    chaos_locks: bool,
    /// Seeded bug: acknowledge commits before the flush.
    chaos_ack: bool,
    /// Print a per-seed metrics summary (`--metrics`).
    metrics: bool,
    /// Print the full per-seed metrics snapshot as JSON (`--metrics-json`).
    /// Byte-identical across same-seed runs; CI diffs it.
    metrics_json: bool,
    /// Median of a lognormal client round trip before each statement, in
    /// ns (`--rtt NS`; 0 = off).
    rtt_ns: u64,
    /// WAL append path: `mutex` or `lockfree` (`--wal-append MODE`).
    wal_append: AppendMode,
    /// Parallel redo logs (`--log-writers K`; either append mode).
    log_writers: usize,
    /// WAL device: `sim` (default) or `file` (`--disk-backend file`).
    disk_backend: DiskBackend,
    /// Segment directory for `--disk-backend file` (`--data-dir DIR`).
    /// Each seed gets its own fresh subdirectory; default is a temp dir.
    data_dir: Option<PathBuf>,
    /// Concurrency control: `s2pl` (default) or `mvcc`
    /// (`--concurrency MODE`).
    concurrency: Concurrency,
    /// Transaction shape mix: `default` or `read-heavy` (`--mix MIX`).
    read_heavy: bool,
    /// Seeded bug: mvcc reads ignore the snapshot (`--chaos-snapshots`).
    chaos_snapshots: bool,
}

impl Default for TortureArgs {
    fn default() -> Self {
        TortureArgs {
            seed: 42,
            seeds: 1,
            faults: false,
            txns: 400,
            sessions: 4,
            crash_every: 60,
            policy: FlushPolicy::Eager,
            lock_policy: Policy::Fcfs,
            chaos_locks: false,
            chaos_ack: false,
            metrics: false,
            metrics_json: false,
            rtt_ns: 0,
            wal_append: AppendMode::Lockfree,
            log_writers: 1,
            disk_backend: DiskBackend::Sim,
            data_dir: None,
            concurrency: Concurrency::S2pl,
            read_heavy: false,
            chaos_snapshots: false,
        }
    }
}

const USAGE: &str = "usage: torture [--seed S] [--seeds N] [--faults] [--txns N] \
[--sessions N] [--crash-every N] \
[--policy eager|lazy-write|lazy-flush|fcfs|vats|rs|cats|predictive] \
[--chaos-locks] [--chaos-ack] [--metrics] [--metrics-json] [--rtt NS] \
[--wal-append mutex|lockfree] [--log-writers K] [--disk-backend sim|file] \
[--data-dir DIR] [--concurrency s2pl|mvcc] [--mix default|read-heavy] \
[--chaos-snapshots]";

impl TortureArgs {
    fn parse_from<I: IntoIterator<Item = String>>(items: I) -> Result<TortureArgs, String> {
        let mut args = TortureArgs::default();
        let mut it = items.into_iter();
        while let Some(flag) = it.next() {
            let mut take = |name: &str| -> Result<String, String> {
                it.next().ok_or_else(|| format!("{name} needs a value"))
            };
            let num = |name: &str, v: String| -> Result<u64, String> {
                v.parse::<u64>().map_err(|e| format!("{name}: {e}"))
            };
            match flag.as_str() {
                "--seed" => args.seed = num("--seed", take("--seed")?)?,
                "--seeds" => args.seeds = num("--seeds", take("--seeds")?)?.max(1),
                "--faults" => args.faults = true,
                "--txns" => args.txns = num("--txns", take("--txns")?)?.max(1),
                "--sessions" => {
                    args.sessions = num("--sessions", take("--sessions")?)?.max(1) as usize
                }
                "--crash-every" => args.crash_every = num("--crash-every", take("--crash-every")?)?,
                "--policy" => {
                    // One flag, two disjoint name sets: flush policies
                    // and lock scheduling policies route to their knob.
                    let v = take("--policy")?;
                    match v.as_str() {
                        "eager" => args.policy = FlushPolicy::Eager,
                        "lazy-write" => args.policy = FlushPolicy::LazyWrite,
                        "lazy-flush" => args.policy = FlushPolicy::LazyFlush,
                        other => {
                            args.lock_policy = other.parse::<Policy>().map_err(|_| {
                                format!(
                                    "unknown policy {other} (flush: eager|lazy-write|lazy-flush; \
                                     lock: fcfs|vats|rs|cats|predictive)"
                                )
                            })?
                        }
                    }
                }
                "--chaos-locks" => args.chaos_locks = true,
                "--chaos-ack" => args.chaos_ack = true,
                "--metrics" => args.metrics = true,
                "--metrics-json" => args.metrics_json = true,
                "--rtt" => args.rtt_ns = num("--rtt", take("--rtt")?)?,
                "--wal-append" => {
                    args.wal_append = take("--wal-append")?
                        .parse::<AppendMode>()
                        .map_err(|e| format!("--wal-append: {e}"))?
                }
                "--log-writers" => {
                    args.log_writers = num("--log-writers", take("--log-writers")?)?.max(1) as usize
                }
                "--disk-backend" => {
                    args.disk_backend = take("--disk-backend")?
                        .parse::<DiskBackend>()
                        .map_err(|e| format!("--disk-backend: {e}"))?
                }
                "--data-dir" => args.data_dir = Some(PathBuf::from(take("--data-dir")?)),
                "--concurrency" => {
                    args.concurrency = take("--concurrency")?
                        .parse::<Concurrency>()
                        .map_err(|e| format!("--concurrency: {e}"))?
                }
                "--mix" => {
                    args.read_heavy = match take("--mix")?.as_str() {
                        "default" => false,
                        "read-heavy" => true,
                        other => return Err(format!("unknown mix {other} (default|read-heavy)")),
                    }
                }
                "--chaos-snapshots" => args.chaos_snapshots = true,
                "--help" | "-h" => return Err(USAGE.to_string()),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(args)
    }

    fn config(&self, seed: u64) -> TortureConfig {
        TortureConfig {
            seed,
            txns: self.txns,
            sessions: self.sessions,
            crash_every: self.crash_every,
            faults: self.faults,
            flush_policy: self.policy,
            lock_policy: self.lock_policy,
            skip_locking: self.chaos_locks,
            ack_before_flush: self.chaos_ack,
            statement_rtt: (self.rtt_ns > 0).then_some(ServiceTime::LogNormal {
                median: self.rtt_ns,
                sigma: 0.6,
            }),
            wal_append: self.wal_append,
            log_writers: self.log_writers,
            disk_backend: self.disk_backend,
            concurrency: self.concurrency,
            chaos_snapshots: self.chaos_snapshots,
            mix: if self.read_heavy {
                TortureMix::read_heavy()
            } else {
                TortureMix::default()
            },
            // One fresh subdirectory per seed: the torture audit assumes
            // the initial state is empty.
            data_dir: (self.disk_backend == DiskBackend::File).then(|| {
                self.data_dir
                    .clone()
                    .unwrap_or_else(std::env::temp_dir)
                    .join(format!("tpd-torture-seed-{seed}"))
            }),
            ..Default::default()
        }
    }
}

fn main() {
    let args = match TortureArgs::parse_from(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let mut failed = false;
    for seed in args.seed..args.seed + args.seeds {
        let cfg = args.config(seed);
        if let Some(dir) = &cfg.data_dir {
            // Stale segments from a previous run would make the audit lie.
            std::fs::remove_dir_all(dir).ok();
        }
        let report = run_torture(&cfg);
        println!(
            "seed {seed:>6}  digest {:016x}  commits {:>5}  aborts {:>5}  crashes {:>2}  ops {:>6}  {}",
            report.digest,
            report.commits,
            report.aborts,
            report.crashes,
            report.ops,
            if report.ok() {
                "OK".to_string()
            } else {
                format!("FAIL ({} violations)", report.violations.len())
            }
        );
        if args.metrics {
            let m = &report.metrics;
            let g = |k: &str| m.counters.get(k).copied().unwrap_or(0);
            println!(
                "  lock: acquires {} waits {} deadlocks {} timeouts {}  wait p99 {} ns",
                g("lock.acquires"),
                g("lock.waits"),
                g("lock.deadlocks"),
                g("lock.timeouts"),
                m.histograms.get("lock.wait_ns").map_or(0, |h| h.p99()),
            );
            println!(
                "  pool: hits {} misses {} evictions {}  wal: flushes {} group {}  fsync p99 {} ns",
                g("pool.hits"),
                g("pool.misses"),
                g("pool.evictions"),
                g("wal.flushes"),
                g("wal.group_commits"),
                m.histograms.get("wal.fsync_ns").map_or(0, |h| h.p99()),
            );
        }
        if args.metrics_json {
            // Byte-deterministic for a fixed seed: the CI torture matrix
            // runs each seed twice and diffs the full stdout, so this
            // JSON doubles as a reproducibility witness.
            print!("{}", report.metrics.to_json());
        }
        if !report.ok() {
            failed = true;
            let rendered = report.render_failures();
            eprint!("{rendered}");
            let path = format!("torture-seed-{seed}.trace.txt");
            if let Err(e) = std::fs::write(&path, &rendered) {
                eprintln!("could not write {path}: {e}");
            } else {
                eprintln!("trace written to {path}");
            }
            if let Some(dir) = &cfg.data_dir {
                // Keep the segments as the failure artifact.
                eprintln!("segment directory kept at {}", dir.display());
            }
        } else if let Some(dir) = &cfg.data_dir {
            std::fs::remove_dir_all(dir).ok();
        }
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<TortureArgs, String> {
        TortureArgs::parse_from(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_and_flags() {
        let a = parse(&[]).expect("empty ok");
        assert_eq!(a.seed, 42);
        assert_eq!(a.seeds, 1);
        let a = parse(&[
            "--seed",
            "7",
            "--seeds",
            "3",
            "--faults",
            "--policy",
            "lazy-write",
        ])
        .expect("parse");
        assert_eq!((a.seed, a.seeds, a.faults), (7, 3, true));
        assert_eq!(a.policy, FlushPolicy::LazyWrite);
    }

    #[test]
    fn metrics_and_rtt_flags() {
        let a = parse(&["--metrics", "--metrics-json", "--rtt", "25000"]).expect("parse");
        assert!(a.metrics && a.metrics_json);
        assert_eq!(a.rtt_ns, 25_000);
        assert!(matches!(
            a.config(1).statement_rtt,
            Some(ServiceTime::LogNormal { median: 25_000, .. })
        ));
        let b = parse(&[]).expect("empty");
        assert!(b.config(1).statement_rtt.is_none());
    }

    #[test]
    fn wal_append_flags() {
        let a = parse(&["--wal-append", "mutex"]).expect("parse");
        assert_eq!(a.wal_append, AppendMode::Mutex);
        assert_eq!(a.config(1).wal_append, AppendMode::Mutex);
        let a = parse(&["--log-writers", "2"]).expect("parse");
        assert_eq!(a.wal_append, AppendMode::Lockfree);
        assert_eq!(a.config(1).log_writers, 2);
        assert!(parse(&["--wal-append", "spinlock"]).is_err());
    }

    #[test]
    fn disk_backend_flags() {
        let a = parse(&[]).expect("empty");
        assert_eq!(a.disk_backend, DiskBackend::Sim);
        assert!(a.config(1).data_dir.is_none());
        let a = parse(&["--disk-backend", "file", "--data-dir", "/tmp/tort"]).expect("parse");
        assert_eq!(a.disk_backend, DiskBackend::File);
        let cfg = a.config(7);
        assert_eq!(cfg.disk_backend, DiskBackend::File);
        assert_eq!(
            cfg.data_dir.as_deref(),
            Some(std::path::Path::new("/tmp/tort/tpd-torture-seed-7"))
        );
        // File mode without --data-dir still lands each seed somewhere.
        let a = parse(&["--disk-backend", "file"]).expect("parse");
        assert!(a.config(1).data_dir.is_some());
        assert!(parse(&["--disk-backend", "ramdisk"]).is_err());
    }

    #[test]
    fn concurrency_and_mix_flags() {
        let a = parse(&[]).expect("empty");
        assert_eq!(a.concurrency, Concurrency::S2pl);
        assert!(!a.read_heavy && !a.chaos_snapshots);
        let a = parse(&[
            "--concurrency",
            "mvcc",
            "--mix",
            "read-heavy",
            "--chaos-snapshots",
        ])
        .expect("parse");
        assert_eq!(a.concurrency, Concurrency::Mvcc);
        assert!(a.read_heavy && a.chaos_snapshots);
        let cfg = a.config(1);
        assert_eq!(cfg.concurrency, Concurrency::Mvcc);
        assert!(cfg.chaos_snapshots);
        assert_eq!(cfg.mix.ycsb_read_slots, 8);
        assert!(parse(&["--concurrency", "occ"]).is_err());
        assert!(parse(&["--mix", "write-heavy"]).is_err());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--policy", "yolo"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
    }

    #[test]
    fn policy_flag_routes_flush_and_lock_names() {
        let a = parse(&[]).expect("empty");
        assert_eq!(a.policy, FlushPolicy::Eager);
        assert_eq!(a.lock_policy, Policy::Fcfs);

        // A lock-policy name leaves the flush policy alone and vice versa.
        let a = parse(&["--policy", "predictive"]).expect("parse");
        assert_eq!(a.policy, FlushPolicy::Eager);
        assert_eq!(a.lock_policy, Policy::Predictive);
        assert_eq!(a.config(1).lock_policy, Policy::Predictive);

        let a = parse(&["--policy", "lazy-flush", "--policy", "vats"]).expect("parse");
        assert_eq!(a.policy, FlushPolicy::LazyFlush);
        assert_eq!(a.lock_policy, Policy::Vats);
    }
}
