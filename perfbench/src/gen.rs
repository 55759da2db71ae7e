//! The benchmark's own workloads and seeded statement generator.
//!
//! Transaction `i` of a stream is a pure function of `(workload, seed, i)`:
//! its RNG is seeded from the pair, so two executors (the wire client and the
//! embedded replay) and two runs with one seed see the same statements in
//! the same order, however threads interleave. The program under test only
//! ever receives the generated statements.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Access-info / special-facility / call-forwarding rows per subscriber,
/// matching `tpd_workloads::Tatp::install`.
pub const ROWS_PER_SUB: u64 = 4;

/// The four TATP tables, in install order (their index is the table id on
/// a fresh install).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tbl {
    Subscriber = 0,
    AccessInfo = 1,
    SpecialFacility = 2,
    CallForwarding = 3,
}

/// One statement, as sent over the wire or replayed in-process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// READ one row.
    Read { table: Tbl, key: u64 },
    /// READ the row, then UPDATE it with column `col` set to `val`: the
    /// read takes S and the write upgrades it to X.
    Rmw {
        table: Tbl,
        key: u64,
        col: usize,
        val: i64,
    },
    /// INSERT a row; the server assigns the key.
    Insert { table: Tbl, row: Vec<i64> },
}

/// One transaction: its type byte (sent with BEGIN) and statements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Script {
    pub ty: u8,
    pub stmts: Vec<Stmt>,
}

impl Script {
    /// Whether the transaction writes (and so waits on the WAL flush).
    pub fn writes(&self) -> bool {
        self.stmts.iter().any(|s| !matches!(s, Stmt::Read { .. }))
    }
}

/// Values written by transaction `i` are `VAL_BASE + i`: unique per
/// transaction and never equal to an installed value, so a recovered cell
/// names the transaction that wrote it.
pub const VAL_BASE: i64 = 1 << 48;

/// The value transaction `index` writes.
pub fn val_of(index: u64) -> i64 {
    VAL_BASE + index as i64
}

/// The transaction that wrote `val`, if it is a generated value.
pub fn index_of(val: i64) -> Option<u64> {
    (val >= VAL_BASE).then(|| (val - VAL_BASE) as u64)
}

/// Stream lanes: each phase draws from its own index range, so phases of
/// one run never share a transaction.
pub mod lane {
    /// Warm-up of set-up repetition `r` uses lane `WARMUP + r * ROUND`.
    pub const WARMUP: u64 = 1;
    pub const CLOSED: u64 = 8;
    pub const OPEN: u64 = 9;
    pub const CLOSED_TRACED: u64 = 10;
    pub const OPEN_TRACED: u64 = 11;
    /// Round `r` of a phase that repeats uses lane `phase + r * ROUND`;
    /// the phases above differ modulo `ROUND`, so no two rounds share a lane.
    pub const ROUND: u64 = 16;

    /// The stream index of transaction `k` of lane `lane`.
    pub fn index(lane: u64, k: u64) -> u64 {
        (lane << 40) | k
    }
}

/// Transaction mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// The standard seven-transaction TATP mix, 80% read-only.
    Tatp,
    /// 50% location read-modify-write, 30% subscriber + special-facility
    /// two-row update, 20% single reads.
    HotWrite,
}

/// Key distribution over subscriber ids.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Keys {
    Uniform,
    /// Zipf with skew `theta`; id 0 is the hottest.
    Zipf(f64),
}

/// One benchmark workload: data size, mix and the open-loop arrival rate.
/// Every workload is served by the threads front end.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub subscribers: u64,
    pub mix: Mix,
    pub keys: Keys,
    /// Open-loop arrival rate, txn/s: about 35% of the closed-loop
    /// capacity with 2 connections.
    pub rate: f64,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "tatp-spill",
        subscribers: 100_000,
        mix: Mix::Tatp,
        keys: Keys::Uniform,
        rate: 3_000.0,
    },
    Workload {
        name: "hot-write",
        subscribers: 10_000,
        mix: Mix::HotWrite,
        keys: Keys::Zipf(0.99),
        rate: 2_500.0,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }
}

/// YCSB's Zipfian generator (Gray et al., "Quickly generating
/// billion-record synthetic databases").
#[derive(Debug, Clone, Copy)]
struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    fn new(n: u64, theta: f64) -> Zipf {
        let zeta = |m: u64| (1..=m).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let zeta2 = zeta(2);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    fn sample(&self, rng: &mut SmallRng) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let k = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        k.min(self.n - 1)
    }
}

/// The seeded statement generator of one workload.
#[derive(Debug, Clone)]
pub struct Generator {
    seed: u64,
    subscribers: u64,
    mix: Mix,
    zipf: Option<Zipf>,
}

impl Generator {
    pub fn new(w: &Workload, seed: u64) -> Generator {
        Generator {
            seed,
            subscribers: w.subscribers,
            mix: w.mix,
            zipf: match w.keys {
                Keys::Uniform => None,
                Keys::Zipf(theta) => Some(Zipf::new(w.subscribers, theta)),
            },
        }
    }

    /// Transaction `index` of the stream.
    pub fn script(&self, index: u64) -> Script {
        let mut rng = SmallRng::seed_from_u64(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03))
                ^ index,
        );
        let s = match &self.zipf {
            Some(z) => z.sample(&mut rng),
            None => rng.gen_range(0..self.subscribers),
        };
        let sf = rng.gen_range(0..ROWS_PER_SUB);
        let roll = rng.gen_range(0..100u32);
        let val = val_of(index);
        let fac = s * ROWS_PER_SUB + sf;
        use Stmt::*;
        use Tbl::*;
        let (ty, stmts) = match self.mix {
            // Type bytes follow `tpd_server::wire_tatp::txn_type`.
            Mix::Tatp => match roll {
                0..=34 => (
                    0,
                    vec![Read {
                        table: Subscriber,
                        key: s,
                    }],
                ),
                35..=44 => (
                    1,
                    vec![
                        Read {
                            table: SpecialFacility,
                            key: fac,
                        },
                        Read {
                            table: CallForwarding,
                            key: fac,
                        },
                    ],
                ),
                45..=79 => (
                    2,
                    vec![Read {
                        table: AccessInfo,
                        key: fac,
                    }],
                ),
                80..=81 => (
                    3,
                    vec![
                        Rmw {
                            table: Subscriber,
                            key: s,
                            col: 2,
                            val,
                        },
                        Rmw {
                            table: SpecialFacility,
                            key: fac,
                            col: 2,
                            val,
                        },
                    ],
                ),
                82..=95 => (
                    4,
                    vec![Rmw {
                        table: Subscriber,
                        key: s,
                        col: 3,
                        val,
                    }],
                ),
                96..=97 => (
                    5,
                    vec![
                        Read {
                            table: Subscriber,
                            key: s,
                        },
                        Read {
                            table: SpecialFacility,
                            key: fac,
                        },
                        Insert {
                            table: CallForwarding,
                            row: vec![s as i64, sf as i64, 1],
                        },
                    ],
                ),
                _ => (
                    6,
                    vec![Rmw {
                        table: CallForwarding,
                        key: fac,
                        col: 2,
                        val,
                    }],
                ),
            },
            Mix::HotWrite => match roll {
                0..=49 => (
                    4,
                    vec![Rmw {
                        table: Subscriber,
                        key: s,
                        col: 3,
                        val,
                    }],
                ),
                50..=79 => (
                    3,
                    vec![
                        Rmw {
                            table: Subscriber,
                            key: s,
                            col: 2,
                            val,
                        },
                        Rmw {
                            table: SpecialFacility,
                            key: fac,
                            col: 2,
                            val,
                        },
                    ],
                ),
                _ => (
                    0,
                    vec![Read {
                        table: Subscriber,
                        key: s,
                    }],
                ),
            },
        };
        Script { ty, stmts }
    }
}
