//! The metric catalogue and the result line.
//!
//! Every metric the benchmark prints is declared here with its unit; the
//! catalogue matches `BENCHMARK.json`, which a self-test checks.

use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("commit_tps", "txn/s"),
    ("read_p50_ms", "ms"),
    ("read_p95_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p95_ms", "ms"),
    ("commit_frac", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics of the traced run (`--trace 1`): name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.queue_share", "ratio"),
    ("server.begin_rtt_p50_us", "us"),
    ("server.begin_rtt_p99_us", "us"),
    ("server.read_rtt_p50_us", "us"),
    ("server.read_rtt_p99_us", "us"),
    ("server.update_rtt_p50_us", "us"),
    ("server.update_rtt_p99_us", "us"),
    ("server.insert_rtt_p50_us", "us"),
    ("server.insert_rtt_p99_us", "us"),
    ("server.commit_rtt_p50_us", "us"),
    ("server.commit_rtt_p99_us", "us"),
    ("server.frames_per_txn", "1/txn"),
    ("server.admission_wait_p99_us", "us"),
    ("server.evented_tps_frac", "ratio"),
    ("server.reactor_wakeups_per_txn", "1/txn"),
    ("server.write_stall_ns_per_txn", "ns/txn"),
    ("engine.read_p50_us", "us"),
    ("engine.read_p99_us", "us"),
    ("engine.update_p50_us", "us"),
    ("engine.update_p99_us", "us"),
    ("engine.insert_p50_us", "us"),
    ("engine.insert_p99_us", "us"),
    ("engine.commit_p50_us", "us"),
    ("engine.commit_p99_us", "us"),
    ("engine.wire_overhead_frac", "ratio"),
    ("txn.abort_frac", "ratio"),
    ("txn.retries_per_commit", "1/commit"),
    ("lock.acquires_per_txn", "1/txn"),
    ("lock.immediate_frac", "ratio"),
    ("lock.waits_per_txn", "1/txn"),
    ("lock.wait_p99_us", "us"),
    ("lock.wait_ns_per_txn", "ns/txn"),
    ("lock.upgrades_per_txn", "1/txn"),
    ("lock.deadlocks_per_ktxn", "1/ktxn"),
    ("pool.hit_frac", "ratio"),
    ("pool.misses_per_txn", "1/txn"),
    ("pool.evictions_per_txn", "1/txn"),
    ("pool.dirty_writebacks_per_txn", "1/txn"),
    ("pool.mutex_wait_ns_per_txn", "ns/txn"),
    ("pool.make_young_per_txn", "1/txn"),
    ("wal.flushes_per_commit", "1/commit"),
    ("wal.group_commit_batch_mean", "commits"),
    ("wal.fsync_p50_us", "us"),
    ("wal.fsync_p99_us", "us"),
    ("wal.commit_wait_ns_per_commit", "ns/commit"),
    ("wal.reserve_publish_p99_ns", "ns"),
    ("wal.bytes_written_per_commit", "B/commit"),
    ("wal.replay_ms", "ms"),
    ("tail.read_p99_ms", "ms"),
    ("tail.write_p99_ms", "ms"),
    ("tail.p999_ms", "ms"),
    ("tail.lat_std_ms", "ms"),
    ("tail.stalls_over_10ms", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.txn_self_frac", "ratio"),
];

/// Whether `name` may be emitted: `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// Metrics gathered by one run, checked against the catalogue.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Record `name`; it must be catalogued.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// Names that `expected` lists but this report lacks, and values that
    /// are not finite.
    pub fn problems(&self, expected: &[(&str, &str)]) -> Vec<String> {
        let mut out = Vec::new();
        for (name, _) in expected {
            match self.values.get(name) {
                None => out.push(format!("metric {name} was not measured")),
                Some(v) if !v.is_finite() => out.push(format!("metric {name} is {v}")),
                Some(_) => {}
            }
        }
        out
    }

    /// One human-readable line per metric of `set`: name, value, unit.
    pub fn lines(&self, set: &[(&str, &str)]) -> Vec<String> {
        set.iter()
            .filter_map(|(name, unit)| self.values.get(name).map(|v| format!("{name} {v} {unit}")))
            .collect()
    }

    /// The result line: the metrics of `set` only, each with its unit.
    pub fn json(&self, set: &[(&str, &str)], correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = set
            .iter()
            .filter_map(|(name, unit)| {
                self.values
                    .get(name)
                    .filter(|v| v.is_finite())
                    .map(|v| format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"))
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}
