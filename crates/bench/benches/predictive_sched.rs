//! Scheduling-policy shootout for the conflict-prediction scheduler:
//! FCFS vs VATS vs RS vs PRED on a read-heavy TATP mix and a contended
//! Zipfian YCSB update mix, reporting the paper's Lp-norm loss
//! (expected Lp, eq. 4) per policy.
//!
//! Plain-main bench (no criterion): each cell is a full open-loop run,
//! so the interesting output is the loss table, not per-op timing.
//!
//! ```text
//! cargo bench -p tpd-bench --bench predictive_sched [-- --secs N]
//! ```

use std::sync::Arc;
use std::time::Duration;

use tpd_bench::harness::{run_workload_raw, RunConfig};
use tpd_bench::presets;
use tpd_common::dist::KeyDist;
use tpd_common::stats::lp_norm;
use tpd_common::table::TextTable;
use tpd_engine::{Engine, Policy};
use tpd_workloads::{Tatp, Workload, Ycsb};

const POLICIES: [Policy; 4] = [
    Policy::Fcfs,
    Policy::Vats,
    Policy::Random,
    Policy::Predictive,
];

/// Expected Lp: `(1/n Σ l_i^p)^(1/p)` — the per-transaction loss the
/// paper's schedulers minimize, so the figure is comparable across runs
/// of different lengths.
fn expected_lp(ms: &[f64], p: f64) -> f64 {
    if ms.is_empty() {
        return 0.0;
    }
    if p.is_infinite() {
        return lp_norm(ms, p);
    }
    lp_norm(ms, p) / (ms.len() as f64).powf(1.0 / p)
}

fn run_mix(
    label: &str,
    table: &mut TextTable,
    secs: f64,
    install: impl Fn(&Arc<Engine>) -> Box<dyn Workload>,
) {
    for policy in POLICIES {
        let engine = Engine::new(presets::mysql_inmemory(policy, 42));
        let w = install(&engine);
        let cfg = RunConfig {
            rate_tps: 400.0,
            duration: Duration::from_secs_f64(secs),
            warmup: Duration::from_secs_f64(secs / 4.0),
            clients: 24,
            seed: 42,
            ..RunConfig::default()
        };
        let (records, failed, _retries) = run_workload_raw(&engine, w.as_ref(), &cfg);
        let ms: Vec<f64> = records.iter().map(|r| r.latency as f64 / 1e6).collect();
        table.row([
            label.to_string(),
            policy.name().to_string(),
            format!("{:.3}", expected_lp(&ms, 1.0)),
            format!("{:.3}", expected_lp(&ms, 2.0)),
            format!("{:.3}", expected_lp(&ms, f64::INFINITY)),
            format!("{} ({} failed)", ms.len(), failed),
        ]);
    }
}

fn main() {
    let mut secs = 4.0;
    let mut args = std::env::args().skip(1);
    // `cargo bench` forwards its own flags (e.g. --bench); ignore them.
    while let Some(a) = args.next() {
        if a == "--secs" {
            secs = args
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--secs needs a number");
        }
    }
    let mut table = TextTable::new(["mix", "policy", "L1 ms", "L2 ms", "Linf ms", "txns"]);
    run_mix("tatp (read-heavy)", &mut table, secs, |e| {
        Box::new(Tatp::install(e, 200))
    });
    run_mix("ycsb-zipf (update-heavy)", &mut table, secs, |e| {
        Box::new(Ycsb::install_with_dist(
            e,
            1_000,
            KeyDist::zipfian(1_000, 0.9),
        ))
    });
    println!("{}", table.render());
    println!("expected Lp loss per policy (paper eq. 4); lower is better");
}
