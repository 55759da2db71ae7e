//! Shared plumbing for the network front-end binaries (`serve`,
//! `loadgen`): flag parsing and the engine/TATP/server bring-up both
//! sides need. Kept in the library so the flag grammar is unit-tested.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use tpd_common::dist::ServiceTime;
use tpd_common::DiskConfig;
use tpd_engine::{AppendMode, Concurrency, DiskBackend, Engine, EngineConfig, Personality, Policy};
use tpd_server::{spawn, AdmissionConfig, ServerConfig, ServerHandle, ServerMode, WireTatp};
use tpd_workloads::Tatp;

/// Flags shared by `serve` and `loadgen`. Each binary uses the subset
/// that applies and rejects the rest via [`NetArgs::parse_from`]'s
/// `allow` list.
#[derive(Debug, Clone)]
pub struct NetArgs {
    /// Listen / connect address. `None` on `loadgen` means "spawn an
    /// in-process server" (also enables the leaked-lock check).
    pub addr: Option<String>,
    /// TATP subscriber rows installed at startup.
    pub subscribers: u64,
    /// Admission slots (concurrently executing transactions).
    pub slots: usize,
    /// Admission queue capacity (`--admission-cap`).
    pub admission_cap: usize,
    /// Admission queue deadline.
    pub deadline: Duration,
    /// Connection bound at accept.
    pub max_conns: usize,
    /// Run length in seconds; `0` on `serve` means "until killed".
    pub secs: f64,
    /// Closed-loop client connections (`loadgen`).
    pub conns: usize,
    /// Aggregate target rate in txn/s; `0` = as fast as the loop goes.
    pub rate: f64,
    /// Engine + client RNG seed.
    pub seed: u64,
    /// WAL append path for the in-process engine (`--wal-append`).
    pub wal_append: AppendMode,
    /// Parallel redo logs for the in-process engine (`--log-writers`).
    pub log_writers: usize,
    /// WAL device: `sim` (default) or `file` (`--disk-backend file`).
    /// File mode makes `serve` restartable: on startup the engine
    /// recovers whatever the data dir holds.
    pub disk_backend: DiskBackend,
    /// Segment directory for `--disk-backend file` (`--data-dir DIR`).
    pub data_dir: Option<PathBuf>,
    /// Concurrency control for the in-process engine (`--concurrency
    /// s2pl|mvcc`): snapshot reads bypass the lock manager under `mvcc`.
    pub concurrency: Concurrency,
    /// Concurrency model (`--server-mode threads|evented`).
    pub mode: ServerMode,
    /// Evented worker threads (`--workers`; 0 = one per admission slot).
    pub workers: usize,
    /// Per-connection idle deadline override (`--idle-ms`; server
    /// default when absent).
    pub idle: Option<Duration>,
    /// `TCP_NODELAY` on server sockets; `--no-nodelay` clears it to
    /// measure the Nagle/delayed-ACK tail.
    pub nodelay: bool,
    /// `loadgen`: drive all connections from one multiplexed thread
    /// (`--mux`) instead of one OS thread per connection. Required for
    /// multi-thousand-connection ramps.
    pub mux: bool,
    /// `loadgen --mux`: scripted transactions per connection (`--txns`).
    pub txns: u64,
    /// Lock scheduling policy for the in-process engine (`--policy
    /// fcfs|vats|rs|cats|predictive`).
    pub policy: Policy,
    /// Defer predicted-hot BEGINs at the admission controller
    /// (`--admit-defer-hot`); only meaningful with `--policy predictive`
    /// (no other policy builds a predictor, so nothing classifies hot).
    pub admit_defer_hot: bool,
    /// Aging bound for the defer gate (`--defer-max`).
    pub defer_max: u32,
}

impl Default for NetArgs {
    fn default() -> Self {
        NetArgs {
            addr: None,
            subscribers: 10_000,
            slots: 64,
            admission_cap: 256,
            deadline: Duration::from_millis(500),
            max_conns: 1024,
            secs: 10.0,
            conns: 8,
            rate: 0.0,
            seed: 42,
            wal_append: AppendMode::Lockfree,
            log_writers: 1,
            disk_backend: DiskBackend::Sim,
            data_dir: None,
            concurrency: Concurrency::S2pl,
            mode: ServerMode::Threads,
            workers: 0,
            idle: None,
            nodelay: true,
            mux: false,
            txns: 50,
            policy: Policy::Fcfs,
            admit_defer_hot: false,
            defer_max: 4,
        }
    }
}

impl NetArgs {
    /// Parse from an iterator; `usage` is printed on `--help` or error.
    pub fn parse_from<I: IntoIterator<Item = String>>(
        items: I,
        usage: &str,
    ) -> Result<NetArgs, String> {
        let mut args = NetArgs::default();
        let mut it = items.into_iter();
        while let Some(flag) = it.next() {
            let mut raw = |name: &str| -> Result<String, String> {
                it.next().ok_or_else(|| format!("{name} needs a value"))
            };
            match flag.as_str() {
                "--addr" => args.addr = Some(raw("--addr")?),
                "--subscribers" => args.subscribers = num(&raw("--subscribers")?, "--subscribers")?,
                "--slots" => args.slots = num(&raw("--slots")?, "--slots")? as usize,
                "--admission-cap" => {
                    args.admission_cap = num(&raw("--admission-cap")?, "--admission-cap")? as usize
                }
                "--deadline-ms" => {
                    args.deadline =
                        Duration::from_millis(num(&raw("--deadline-ms")?, "--deadline-ms")?)
                }
                "--max-conns" => {
                    args.max_conns = num(&raw("--max-conns")?, "--max-conns")? as usize
                }
                "--secs" | "--duration" => {
                    args.secs = raw(&flag)?
                        .parse::<f64>()
                        .map_err(|e| format!("{flag}: {e}"))?;
                    if args.secs < 0.0 {
                        return Err(format!("{flag} must be >= 0"));
                    }
                }
                "--conns" => {
                    args.conns = num(&raw("--conns")?, "--conns")? as usize;
                    if args.conns == 0 {
                        return Err("--conns must be >= 1".to_string());
                    }
                }
                "--rate" => {
                    args.rate = raw("--rate")?
                        .parse::<f64>()
                        .map_err(|e| format!("--rate: {e}"))?;
                    if args.rate < 0.0 {
                        return Err("--rate must be >= 0".to_string());
                    }
                }
                "--seed" => args.seed = num(&raw("--seed")?, "--seed")?,
                "--wal-append" => {
                    args.wal_append = raw("--wal-append")?
                        .parse::<AppendMode>()
                        .map_err(|e| format!("--wal-append: {e}"))?
                }
                "--log-writers" => {
                    args.log_writers =
                        (num(&raw("--log-writers")?, "--log-writers")? as usize).max(1)
                }
                "--disk-backend" => {
                    args.disk_backend = raw("--disk-backend")?
                        .parse::<DiskBackend>()
                        .map_err(|e| format!("--disk-backend: {e}"))?
                }
                "--data-dir" => args.data_dir = Some(PathBuf::from(raw("--data-dir")?)),
                "--concurrency" => {
                    args.concurrency = raw("--concurrency")?
                        .parse::<Concurrency>()
                        .map_err(|e| format!("--concurrency: {e}"))?
                }
                "--server-mode" => {
                    args.mode = raw("--server-mode")?
                        .parse::<ServerMode>()
                        .map_err(|e| format!("--server-mode: {e}"))?
                }
                "--workers" => args.workers = num(&raw("--workers")?, "--workers")? as usize,
                "--idle-ms" => {
                    args.idle = Some(Duration::from_millis(num(&raw("--idle-ms")?, "--idle-ms")?))
                }
                "--no-nodelay" => args.nodelay = false,
                "--mux" => args.mux = true,
                "--txns" => {
                    args.txns = num(&raw("--txns")?, "--txns")?;
                    if args.txns == 0 {
                        return Err("--txns must be >= 1".to_string());
                    }
                }
                "--policy" => {
                    args.policy = raw("--policy")?
                        .parse::<Policy>()
                        .map_err(|e| format!("--policy: {e}"))?
                }
                "--admit-defer-hot" => args.admit_defer_hot = true,
                "--defer-max" => args.defer_max = num(&raw("--defer-max")?, "--defer-max")? as u32,
                "--help" | "-h" => return Err(usage.to_string()),
                other => return Err(format!("unknown flag {other}\n{usage}")),
            }
        }
        if args.subscribers == 0 {
            return Err("--subscribers must be >= 1".to_string());
        }
        if args.disk_backend == DiskBackend::File && args.data_dir.is_none() {
            // Restartability is the point of file mode, so the location
            // must be explicit and stable across runs.
            return Err("--disk-backend file requires --data-dir".to_string());
        }
        Ok(args)
    }

    /// The admission configuration these flags describe.
    pub fn admission(&self) -> AdmissionConfig {
        AdmissionConfig {
            slots: self.slots,
            queue_cap: self.admission_cap,
            queue_deadline: self.deadline,
            defer_hot: self.admit_defer_hot,
            defer_max: self.defer_max,
        }
    }
}

fn num(s: &str, name: &str) -> Result<u64, String> {
    s.parse::<u64>().map_err(|e| format!("{name}: {e}"))
}

/// An engine tuned for serving live network traffic: fast fixed devices
/// (the network path is the experiment here, not the disk model) and no
/// modeled statement round-trip — the wire provides the real one. This
/// is the engine [`start_tatp_server`] serves under default flags.
pub fn served_engine(seed: u64) -> Arc<Engine> {
    Engine::new(served_config(&NetArgs {
        seed,
        ..NetArgs::default()
    }))
}

/// The served engine's configuration with the device and scheduling
/// choices the flags name: `--wal-append`, `--log-writers`,
/// `--disk-backend`/`--data-dir`, `--concurrency` and `--policy`.
fn served_config(args: &NetArgs) -> EngineConfig {
    let disk = DiskConfig {
        service: ServiceTime::Fixed(20_000),
        ns_per_byte: 0.0,
        seed: args.seed,
    };
    let mut cfg = EngineConfig {
        personality: Personality::Mysql,
        data_disk: disk.clone(),
        log_disks: vec![disk],
        statement_rtt: None,
        lock_timeout: Some(Duration::from_secs(5)),
        lock_shards: 0,
        seed: args.seed,
        ..EngineConfig::mysql(args.policy)
    }
    .with_wal_append(args.wal_append)
    .with_log_writers(args.log_writers)
    .with_concurrency(args.concurrency);
    if args.disk_backend == DiskBackend::File {
        let dir = args
            .data_dir
            .clone()
            .expect("file backend requires a data dir");
        cfg = cfg.with_file_backend(dir);
    }
    cfg
}

/// Build the engine, install (or, on a file-backend restart, recover)
/// TATP, and start the server; returns the wire-side table map alongside.
/// `addr` of `None` binds an ephemeral port.
pub fn start_tatp_server(
    args: &NetArgs,
    addr: Option<&str>,
) -> std::io::Result<(Arc<Engine>, ServerHandle, WireTatp)> {
    let engine = Engine::new(served_config(args));
    let tatp = if args.disk_backend == DiskBackend::File {
        // Restart path: replay whatever the previous process persisted.
        // A checkpoint means the schema already exists — installing again
        // would create a second set of tables.
        let recovery = engine.recover_from_disk();
        let restart = recovery.as_ref().is_some_and(|r| r.restored_checkpoint);
        if let Some(rec) = &recovery {
            eprintln!(
                "recovered data dir: checkpoint={} committed_txns={} torn_bytes_truncated={}",
                rec.restored_checkpoint, rec.report.committed_txns, rec.torn_truncated
            );
        }
        if restart {
            Tatp::attach(&engine, args.subscribers).expect("checkpoint restored a non-TATP schema")
        } else {
            let tatp = Tatp::install(&engine, args.subscribers);
            // Bootstrap checkpoint: schema operations are not WAL-logged,
            // so recovery-after-kill needs this to recreate the tables.
            engine.checkpoint()?;
            tatp
        }
    } else {
        Tatp::install(&engine, args.subscribers)
    };
    let ids = tatp.table_ids();
    let wire = WireTatp {
        subscriber: ids[0].0,
        access_info: ids[1].0,
        special_facility: ids[2].0,
        call_forwarding: ids[3].0,
        subscribers: args.subscribers,
    };
    let mut config = ServerConfig {
        addr: addr.unwrap_or("127.0.0.1:0").to_string(),
        mode: args.mode,
        admission: args.admission(),
        max_conns: args.max_conns,
        workers: args.workers,
        nodelay: args.nodelay,
        ..ServerConfig::default()
    };
    if let Some(idle) = args.idle {
        config.read_timeout = Some(idle);
    }
    let handle = spawn(engine.clone(), config)?;
    Ok((engine, handle, wire))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<NetArgs, String> {
        NetArgs::parse_from(v.iter().map(|s| s.to_string()), "usage")
    }

    #[test]
    fn defaults_are_sane() {
        let a = parse(&[]).expect("empty ok");
        assert!(a.addr.is_none());
        assert_eq!(a.conns, 8);
        assert_eq!(a.admission().queue_cap, 256);
    }

    #[test]
    fn all_flags_apply() {
        let a = parse(&[
            "--addr",
            "127.0.0.1:9999",
            "--subscribers",
            "500",
            "--slots",
            "4",
            "--admission-cap",
            "2",
            "--deadline-ms",
            "50",
            "--max-conns",
            "16",
            "--secs",
            "3",
            "--conns",
            "32",
            "--rate",
            "1000",
            "--seed",
            "7",
        ])
        .expect("parse");
        assert_eq!(a.addr.as_deref(), Some("127.0.0.1:9999"));
        assert_eq!(a.subscribers, 500);
        let adm = a.admission();
        assert_eq!(adm.slots, 4);
        assert_eq!(adm.queue_cap, 2);
        assert_eq!(adm.queue_deadline, Duration::from_millis(50));
        assert_eq!(a.max_conns, 16);
        assert_eq!(a.secs, 3.0);
        assert_eq!(a.conns, 32);
        assert_eq!(a.rate, 1000.0);
        assert_eq!(a.seed, 7);
    }

    #[test]
    fn duration_is_an_alias_for_secs() {
        let a = parse(&["--duration", "12"]).expect("parse");
        assert_eq!(a.secs, 12.0);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["--conns", "0"]).is_err());
        assert!(parse(&["--subscribers", "0"]).is_err());
        assert!(parse(&["--rate", "-1"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--help"]).is_err());
    }

    #[test]
    fn evented_flags_apply() {
        let a = parse(&[]).expect("empty");
        assert_eq!(a.mode, ServerMode::Threads);
        assert_eq!(a.workers, 0);
        assert!(a.idle.is_none());
        assert!(a.nodelay);
        assert!(!a.mux);
        assert_eq!(a.txns, 50);

        let a = parse(&[
            "--server-mode",
            "evented",
            "--workers",
            "8",
            "--idle-ms",
            "250",
            "--no-nodelay",
            "--mux",
            "--txns",
            "12",
        ])
        .expect("parse");
        assert_eq!(a.mode, ServerMode::Evented);
        assert_eq!(a.workers, 8);
        assert_eq!(a.idle, Some(Duration::from_millis(250)));
        assert!(!a.nodelay);
        assert!(a.mux);
        assert_eq!(a.txns, 12);

        assert!(parse(&["--server-mode", "fibers"]).is_err());
        assert!(parse(&["--txns", "0"]).is_err());
    }

    #[test]
    fn evented_in_process_server_comes_up_and_serves() {
        let args = parse(&[
            "--subscribers",
            "64",
            "--slots",
            "8",
            "--server-mode",
            "evented",
        ])
        .expect("parse");
        let (engine, mut handle, wire) = start_tatp_server(&args, None).expect("spawn");
        let mut conn = tpd_server::Conn::connect(handle.local_addr()).expect("connect");
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(2);
        let spec = wire.sample(&mut rng);
        let outcome = wire.execute(&mut conn, &spec).expect("no protocol errors");
        assert!(matches!(
            outcome,
            tpd_server::Outcome::Committed | tpd_server::Outcome::Aborted
        ));
        drop(conn);
        handle.shutdown();
        assert_eq!(engine.locks().outstanding(), (0, 0));
        assert_eq!(engine.active_snapshots(), 0);
    }

    #[test]
    fn concurrency_flag_applies() {
        let a = parse(&[]).expect("empty");
        assert_eq!(a.concurrency, Concurrency::S2pl);
        let a = parse(&["--concurrency", "mvcc"]).expect("parse");
        assert_eq!(a.concurrency, Concurrency::Mvcc);
        assert!(parse(&["--concurrency", "occ"]).is_err());
    }

    #[test]
    fn mvcc_in_process_server_comes_up_and_serves() {
        let args = parse(&[
            "--subscribers",
            "64",
            "--slots",
            "8",
            "--concurrency",
            "mvcc",
        ])
        .expect("parse");
        let (engine, mut handle, wire) = start_tatp_server(&args, None).expect("spawn");
        let mut conn = tpd_server::Conn::connect(handle.local_addr()).expect("connect");
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(5);
        for _ in 0..4 {
            let spec = wire.sample(&mut rng);
            let outcome = wire.execute(&mut conn, &spec).expect("no protocol errors");
            assert!(matches!(
                outcome,
                tpd_server::Outcome::Committed | tpd_server::Outcome::Aborted
            ));
        }
        drop(conn);
        handle.shutdown();
        assert_eq!(engine.locks().outstanding(), (0, 0));
        assert_eq!(engine.active_snapshots(), 0, "server leaked snapshot pins");
    }

    #[test]
    fn policy_and_defer_flags_apply() {
        let a = parse(&[]).expect("empty");
        assert_eq!(a.policy, Policy::Fcfs);
        assert!(!a.admit_defer_hot);
        assert_eq!(a.defer_max, 4);
        assert!(!a.admission().defer_hot, "defer off by default");

        let a = parse(&[
            "--policy",
            "predictive",
            "--admit-defer-hot",
            "--defer-max",
            "7",
        ])
        .expect("parse");
        assert_eq!(a.policy, Policy::Predictive);
        let adm = a.admission();
        assert!(adm.defer_hot);
        assert_eq!(adm.defer_max, 7);

        assert_eq!(
            parse(&["--policy", "vats"]).expect("vats").policy,
            Policy::Vats
        );
        assert!(parse(&["--policy", "lifo"]).is_err());
    }

    #[test]
    fn predictive_in_process_server_comes_up_and_serves() {
        let args = parse(&[
            "--subscribers",
            "64",
            "--slots",
            "8",
            "--policy",
            "predictive",
            "--admit-defer-hot",
        ])
        .expect("parse");
        let (engine, mut handle, wire) = start_tatp_server(&args, None).expect("spawn");
        assert!(
            engine.predictor().is_some(),
            "--policy predictive builds the predictor"
        );
        let mut conn = tpd_server::Conn::connect(handle.local_addr()).expect("connect");
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(9);
        for _ in 0..4 {
            let spec = wire.sample(&mut rng);
            let outcome = wire.execute(&mut conn, &spec).expect("no protocol errors");
            assert!(matches!(
                outcome,
                tpd_server::Outcome::Committed | tpd_server::Outcome::Aborted
            ));
        }
        drop(conn);
        handle.shutdown();
        assert_eq!(engine.locks().outstanding(), (0, 0));
        assert_eq!(engine.active_snapshots(), 0);
    }

    #[test]
    fn disk_backend_flags() {
        let a = parse(&[]).expect("empty");
        assert_eq!(a.disk_backend, DiskBackend::Sim);
        let a = parse(&["--disk-backend", "file", "--data-dir", "/tmp/d"]).expect("parse");
        assert_eq!(a.disk_backend, DiskBackend::File);
        assert_eq!(a.data_dir.as_deref(), Some(std::path::Path::new("/tmp/d")));
        // File mode without a stable location is a config error.
        assert!(parse(&["--disk-backend", "file"]).is_err());
        assert!(parse(&["--disk-backend", "tape"]).is_err());
    }

    #[test]
    fn file_backend_server_round_trips_a_restart() {
        let dir = std::env::temp_dir().join(format!("tpd-netbench-file-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let args = parse(&[
            "--subscribers",
            "32",
            "--slots",
            "4",
            "--disk-backend",
            "file",
            "--data-dir",
            dir.to_str().expect("utf8 path"),
        ])
        .expect("parse");
        // First boot installs and serves one UPD_LOCATION-style write.
        {
            let (engine, mut handle, wire) = start_tatp_server(&args, None).expect("spawn");
            let sub = engine.catalog().table(tpd_engine::TableId(wire.subscriber));
            assert_eq!(sub.get(3).expect("row")[3], 0);
            let mut txn = engine.begin(0);
            txn.update(tpd_engine::TableId(wire.subscriber), 3, |r| r[3] = 77)
                .expect("update");
            txn.commit().expect("commit");
            handle.shutdown();
        }
        // Second boot recovers the write instead of reinstalling zeros.
        {
            let (engine, mut handle, wire) = start_tatp_server(&args, None).expect("respawn");
            assert_eq!(
                engine.catalog().len(),
                4,
                "restart must not re-create tables"
            );
            let sub = engine.catalog().table(tpd_engine::TableId(wire.subscriber));
            assert_eq!(sub.get(3).expect("row")[3], 77, "committed write survived");
            handle.shutdown();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn in_process_server_comes_up_and_serves() {
        let args = parse(&["--subscribers", "64", "--slots", "8"]).expect("parse");
        let (engine, mut handle, wire) = start_tatp_server(&args, None).expect("spawn");
        let mut conn = tpd_server::Conn::connect(handle.local_addr()).expect("connect");
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(1);
        let spec = wire.sample(&mut rng);
        let outcome = wire.execute(&mut conn, &spec).expect("no protocol errors");
        assert!(matches!(
            outcome,
            tpd_server::Outcome::Committed | tpd_server::Outcome::Aborted
        ));
        drop(conn);
        handle.shutdown();
        assert_eq!(engine.locks().outstanding(), (0, 0));
        assert_eq!(engine.active_snapshots(), 0);
    }
}
