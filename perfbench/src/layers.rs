//! Per-layer metrics of the traced run, each taken from outside the
//! program: client-timed spans around calls into a layer, and deltas of
//! the layers' own counters across the measured window.

use tpd_common::stats::OnlineStats;

use crate::drive::LoopOut;
use crate::report::Report;
use crate::stats::{hist_percentile, percentile, ratio, sorted, Delta};
use crate::trace::{self_times, Recorder};

/// Inputs gathered by the traced run.
pub struct TracedRun<'a> {
    /// Closed-loop phases without and with spans, for the tracing overhead.
    pub closed_untraced: &'a [LoopOut],
    pub closed_traced: &'a [LoopOut],
    /// The traced open-loop phase: the measured window of `delta`.
    pub open: &'a LoopOut,
    pub delta: &'a Delta,
    /// The traced closed-loop stream replayed in-process.
    pub embedded: &'a LoopOut,
    /// The first untraced closed-loop stream served by the evented front
    /// end, and the server's counters across it.
    pub evented: &'a LoopOut,
    pub evented_delta: &'a Delta,
}

/// Mean and standard deviation of a sample.
fn moments(v: &[f64]) -> OnlineStats {
    let mut s = OnlineStats::new();
    for &x in v {
        s.push(x);
    }
    s
}

/// Durations in µs of spans called `name`.
fn span_us<'a>(recs: impl IntoIterator<Item = &'a Recorder>, name: &str) -> Vec<f64> {
    recs.into_iter()
        .flat_map(|r| r.spans.iter())
        .filter(|s| s.name == name)
        .map(|s| s.dur() as f64 / 1e3)
        .collect()
}

/// Percentile or 0 when the sample is too thin (noted on stderr).
fn pct_or_zero(name: &str, v: Vec<f64>, q: f64) -> f64 {
    let n = v.len();
    percentile(&sorted(v), q).unwrap_or_else(|| {
        eprintln!("{name}: p{q} refused with {n} samples; reported as 0");
        0.0
    })
}

fn tps(loops: &[LoopOut]) -> f64 {
    let commits: u64 = loops.iter().map(LoopOut::commits).sum();
    let secs: f64 = loops.iter().map(|l| l.elapsed).sum();
    ratio(commits as f64, secs)
}

pub fn per_layer(run: &TracedRun, r: &mut Report) {
    let d = run.delta;
    let open = run.open;
    let txns = open.reqs.len() as f64;
    let commits = d.counter("txn.commits");
    let committed: Vec<_> = open.reqs.iter().filter(|q| q.committed).collect();

    // The generator.
    r.set(
        "loadgen.late_p99_ms",
        pct_or_zero(
            "loadgen.late",
            open.reqs.iter().map(|q| q.late_ms()).collect(),
            99.0,
        ),
    );
    r.set(
        "loadgen.queue_share",
        ratio(
            committed.iter().map(|q| (q.send - q.due) as f64).sum(),
            committed.iter().map(|q| (q.ack - q.due) as f64).sum(),
        ),
    );

    // tpd-server: client-timed round trips per frame kind.
    let wire_recs: Vec<&Recorder> = run
        .closed_traced
        .iter()
        .chain(std::iter::once(open))
        .flat_map(|l| l.recorders.iter())
        .collect();
    for (kind, p50, p99) in [
        (
            "server.begin",
            "server.begin_rtt_p50_us",
            "server.begin_rtt_p99_us",
        ),
        (
            "server.read",
            "server.read_rtt_p50_us",
            "server.read_rtt_p99_us",
        ),
        (
            "server.update",
            "server.update_rtt_p50_us",
            "server.update_rtt_p99_us",
        ),
        (
            "server.insert",
            "server.insert_rtt_p50_us",
            "server.insert_rtt_p99_us",
        ),
        (
            "server.commit",
            "server.commit_rtt_p50_us",
            "server.commit_rtt_p99_us",
        ),
    ] {
        let v = span_us(wire_recs.iter().copied(), kind);
        r.set(p50, pct_or_zero(kind, v.clone(), 50.0));
        r.set(p99, pct_or_zero(kind, v, 99.0));
    }
    r.set(
        "server.frames_per_txn",
        ratio(d.counter("server.frames_total"), txns),
    );
    r.set(
        "server.admission_wait_p99_us",
        hist_percentile(&d.hist("server.admission_wait_ns"), 99.0).unwrap_or(0.0) / 1e3,
    );
    // The evented front end, on its own bed.
    let (ev, ed) = (run.evented, run.evented_delta);
    let ev_txns = ev.reqs.len() as f64;
    r.set(
        "server.evented_tps_frac",
        ratio(tps(std::slice::from_ref(ev)), tps(run.closed_untraced)),
    );
    r.set(
        "server.reactor_wakeups_per_txn",
        ratio(ed.counter("server.reactor_wakeups"), ev_txns),
    );
    r.set(
        "server.write_stall_ns_per_txn",
        ratio(ed.hist("server.write_stall_ns").sum as f64, ev_txns),
    );

    // tpd-engine: the same stream without the server.
    let emb = &run.embedded.recorders;
    for (kind, p50, p99) in [
        ("engine.read", "engine.read_p50_us", "engine.read_p99_us"),
        (
            "engine.update",
            "engine.update_p50_us",
            "engine.update_p99_us",
        ),
        (
            "engine.insert",
            "engine.insert_p50_us",
            "engine.insert_p99_us",
        ),
        (
            "engine.commit",
            "engine.commit_p50_us",
            "engine.commit_p99_us",
        ),
    ] {
        let v = span_us(emb.iter(), kind);
        r.set(p50, pct_or_zero(kind, v.clone(), 50.0));
        r.set(p99, pct_or_zero(kind, v, 99.0));
    }
    let wire_txn = moments(&span_us(
        run.closed_traced.iter().flat_map(|l| l.recorders.iter()),
        "txn",
    ))
    .mean();
    let embedded_txn = moments(&span_us(emb.iter(), "txn")).mean();
    r.set(
        "engine.wire_overhead_frac",
        1.0 - ratio(embedded_txn, wire_txn),
    );
    let aborts = d.counter("txn.aborts");
    r.set("txn.abort_frac", ratio(aborts, commits + aborts));
    r.set(
        "txn.retries_per_commit",
        ratio(open.retries() as f64, open.commits() as f64),
    );

    // tpd-core lock manager.
    let acquires = d.counter("lock.acquires");
    r.set("lock.acquires_per_txn", ratio(acquires, txns));
    r.set(
        "lock.immediate_frac",
        ratio(d.counter("lock.immediate"), acquires),
    );
    r.set("lock.waits_per_txn", ratio(d.counter("lock.waits"), txns));
    r.set(
        "lock.wait_p99_us",
        hist_percentile(&d.hist("lock.wait_ns"), 99.0).unwrap_or(0.0) / 1e3,
    );
    r.set(
        "lock.wait_ns_per_txn",
        ratio(d.counter("lock.wait_ns_total"), txns),
    );
    r.set(
        "lock.upgrades_per_txn",
        ratio(d.counter("lock.upgrades"), txns),
    );
    r.set(
        "lock.deadlocks_per_ktxn",
        ratio(d.counter("lock.deadlocks") * 1e3, txns),
    );

    // tpd-storage buffer pool.
    let (hits, misses) = (d.counter("pool.hits"), d.counter("pool.misses"));
    r.set("pool.hit_frac", ratio(hits, hits + misses));
    r.set("pool.misses_per_txn", ratio(misses, txns));
    r.set(
        "pool.evictions_per_txn",
        ratio(d.counter("pool.evictions"), txns),
    );
    r.set(
        "pool.dirty_writebacks_per_txn",
        ratio(d.counter("pool.dirty_writebacks"), txns),
    );
    r.set(
        "pool.mutex_wait_ns_per_txn",
        ratio(d.counter("pool.mutex_wait_ns_total"), txns),
    );
    r.set(
        "pool.make_young_per_txn",
        ratio(d.counter("pool.make_young"), txns),
    );

    // tpd-wal and its device; "per commit" is per committed transaction,
    // read-only ones included.
    r.set(
        "wal.flushes_per_commit",
        ratio(d.counter("wal.flushes"), commits),
    );
    r.set(
        "wal.group_commit_batch_mean",
        d.hist("wal.group_commit_batch").mean(),
    );
    let fsync = d.hist("wal.fsync_ns");
    r.set(
        "wal.fsync_p50_us",
        hist_percentile(&fsync, 50.0).unwrap_or(0.0) / 1e3,
    );
    r.set(
        "wal.fsync_p99_us",
        hist_percentile(&fsync, 99.0).unwrap_or(0.0) / 1e3,
    );
    r.set(
        "wal.commit_wait_ns_per_commit",
        ratio(d.counter("wal.commit_wait_ns_total"), commits),
    );
    // `wal.reserve_ns` times reserve, stamp and publish, not the reserve
    // alone; the name here says what it times.
    r.set(
        "wal.reserve_publish_p99_ns",
        hist_percentile(&d.hist("wal.reserve_ns"), 99.0).unwrap_or(0.0),
    );
    r.set(
        "wal.bytes_written_per_commit",
        ratio(d.counter("wal.bytes_written"), commits),
    );

    // Tail diagnostics of the open loop: recorded, not gated.
    r.set(
        "tail.read_p99_ms",
        pct_or_zero("tail.read", open.latencies_in_order(false), 99.0),
    );
    r.set(
        "tail.write_p99_ms",
        pct_or_zero("tail.write", open.latencies_in_order(true), 99.0),
    );
    let lat: Vec<f64> = committed.iter().map(|q| q.latency_ms()).collect();
    r.set("tail.lat_std_ms", moments(&lat).std_dev());
    r.set("tail.p999_ms", pct_or_zero("tail", lat, 99.9));
    r.set(
        "tail.stalls_over_10ms",
        open.reqs
            .iter()
            .filter(|q| q.ack - q.send > 10_000_000)
            .count() as f64,
    );

    // The tracing itself.
    r.set(
        "trace.overhead_frac",
        1.0 - ratio(tps(run.closed_traced), tps(run.closed_untraced)),
    );
    let (mut own, mut total) = (0u64, 0u64);
    for rec in &open.recorders {
        for (s, self_ns) in rec.spans.iter().zip(self_times(&rec.spans)) {
            if s.name == "txn" {
                own += self_ns;
                total += s.dur();
            }
        }
    }
    r.set("trace.txn_self_frac", ratio(own as f64, total as f64));
}
