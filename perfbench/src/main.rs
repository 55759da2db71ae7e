//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload against an in-process server and prints one line per
//! metric (name, value, unit), then the JSON result as the last line.
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the traced
//! run that gives the per-layer metrics. Exits 1 if a correctness check
//! fails, 2 on bad arguments.

use std::path::PathBuf;
use std::time::Duration;

use tpd_server::ServerMode;

use perfbench::bed::{peak_rss_mb, Bed, CONNS};
use perfbench::drive::{closed_loop, open_loop, EngineExec, LoopOut, Stop};
use perfbench::gen::{lane, Generator, Workload, WORKLOADS};
use perfbench::layers::{per_layer, TracedRun};
use perfbench::pin;
use perfbench::report::{Report, END_TO_END, PER_LAYER};
use perfbench::stats::{
    median, percentile, quiet_window_percentile, sorted, upper_quartile, Delta,
};
use perfbench::trace::write_tsv;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: u64 = 9;
/// The traced run replays the log for at least this long;
/// `wal.replay_ms` is the median replay.
const REPLAY_TIME: Duration = Duration::from_millis(500);
/// `commit_tps` is the upper quartile over closed-loop windows of this
/// length.
const TPS_WINDOW: Duration = Duration::from_millis(250);
/// Share of `--seconds` spent in the closed loop; the rest is open loop.
const CLOSED_SHARE: f64 = 0.3;
/// The measured run alternates open and closed loops this many times, so
/// that the closed-loop windows are spread over the whole run. On a shared
/// host the closed loop slows by up to a quarter for seconds at a time.
const ROUNDS: u64 = 5;
/// Open-loop rates are set at this share of closed-loop capacity.
const OFFERED_LOAD: f64 = 0.35;
/// Generator lateness p99 beyond which an open-loop run is invalid.
const MAX_LATE_P99_MS: f64 = 1.0;
/// Where the traced run writes its spans, under the working directory.
const TRACE_DIR: &str = ".bench_run";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let usage = format!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
        names.join("|")
    );
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{usage}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}\n{usage}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad(&"must be in (0, 120]"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}\n{usage}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or(format!("--workload is required\n{usage}"))?,
        seed: seed.ok_or(format!("--seed is required\n{usage}"))?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// What a run found besides its metrics.
#[derive(Default)]
struct Outcome {
    report: Report,
    attempted: u64,
    failed: u64,
    /// Failed correctness checks.
    broken: Vec<String>,
}

impl Outcome {
    fn count(&mut self, out: &LoopOut) {
        self.attempted += out.reqs.len() as u64;
        self.failed += out.failed();
        for e in out.errors.iter().take(5) {
            eprintln!("transaction failed: {e}");
        }
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    // Server threads inherit this placement; client threads move to the
    // client core when they start.
    pin::pin_current_thread(pin::SERVER_CPU);
    let result = if args.trace {
        traced_run(&args)
    } else {
        end_to_end_run(&args)
    };
    let set = if args.trace { PER_LAYER } else { END_TO_END };
    let mut out = result.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    });
    out.broken.extend(out.report.problems(set));
    for line in out.report.lines(set) {
        println!("{line}");
    }
    for b in &out.broken {
        eprintln!("CHECK FAILED: {b}");
    }
    let correct = out.broken.is_empty();
    println!(
        "{}",
        out.report.json(set, correct, out.attempted, out.failed)
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Transactions of all closed-loop rounds together: what the workload's
/// nominal capacity completes in its share of `--seconds`. A fixed count,
/// not a fixed time, keeps the work behind memory and log size the same
/// whatever the throughput.
fn closed_txns(args: &Args) -> u64 {
    (args.workload.rate / OFFERED_LOAD * args.seconds * CLOSED_SHARE) as u64
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

/// Set up `SETUP_REPS` times, keep the last bed, and return it with the
/// median set-up time.
fn set_up(
    args: &Args,
    gen: &Generator,
    out: &mut Outcome,
    reps: u64,
) -> Result<(Bed, f64), String> {
    let mut times = Vec::new();
    for rep in 0..reps {
        let (mut bed, t) = Bed::up(&args.workload, ServerMode::Threads, gen, rep)?;
        times.push(t);
        if rep + 1 == reps {
            return Ok((bed, median(&times)));
        }
        out.broken.extend(bed.shutdown());
    }
    unreachable!("at least one set-up repetition")
}

/// Open-loop latency of transactions that write (or do not), over the
/// rounds in order: the median over all of them for p50, the quiet-window
/// reading above.
fn latency_pct(rounds: &[LoopOut], write: bool, q: f64) -> Result<f64, String> {
    let lat: Vec<f64> = rounds
        .iter()
        .flat_map(|o| o.latencies_in_order(write))
        .collect();
    let n = lat.len();
    let value = if q == 50.0 {
        percentile(&sorted(lat), q)
    } else {
        quiet_window_percentile(&lat, q)
    };
    value.ok_or_else(|| {
        format!(
            "{} p{q}: only {n} samples; lengthen --seconds",
            if write { "write" } else { "read" }
        )
    })
}

fn end_to_end_run(args: &Args) -> Result<Outcome, String> {
    let w = &args.workload;
    let gen = Generator::new(w, args.seed);
    let mut out = Outcome::default();
    let (mut bed, setup_s) = set_up(args, &gen, &mut out, SETUP_REPS)?;

    let (mut opens, mut closeds) = (Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        let shift = round * lane::ROUND;
        opens.push(open_loop(
            &mut bed.conns,
            &gen,
            lane::OPEN + shift,
            w.rate,
            secs(args.seconds * (1.0 - CLOSED_SHARE) / ROUNDS as f64),
            false,
        ));
        closeds.push(closed_loop(
            &mut bed.conns,
            &gen,
            lane::CLOSED + shift,
            Stop::Count(closed_txns(args) / ROUNDS),
            false,
        ));
    }
    let rss = peak_rss_mb();
    for l in opens.iter().chain(&closeds) {
        bed.tally.add(l);
        out.count(l);
    }
    out.broken.extend(bed.shutdown());
    let (_, broken) = bed.recover(Duration::ZERO);
    out.broken.extend(broken);

    let windows: Vec<f64> = closeds
        .iter()
        .flat_map(|c| c.window_tps(TPS_WINDOW))
        .collect();
    let r = &mut out.report;
    r.set(
        "commit_tps",
        upper_quartile(windows).ok_or("closed loop shorter than one window; lengthen --seconds")?,
    );
    r.set("read_p50_ms", latency_pct(&opens, false, 50.0)?);
    r.set("read_p95_ms", latency_pct(&opens, false, 95.0)?);
    r.set("write_p50_ms", latency_pct(&opens, true, 50.0)?);
    r.set("write_p95_ms", latency_pct(&opens, true, 95.0)?);
    r.set(
        "commit_frac",
        (out.attempted - out.failed) as f64 / out.attempted as f64,
    );
    r.set("peak_rss_mb", rss);
    r.set("setup_s", setup_s);
    out.broken.extend(opens.iter().filter_map(schedule_kept));
    eprintln!(
        "open loop: {} txn at {} txn/s; closed loop: {:.0} txn/s overall; error_frac {}",
        opens.iter().map(|o| o.reqs.len()).sum::<usize>(),
        w.rate,
        closeds.iter().map(LoopOut::commits).sum::<u64>() as f64
            / closeds.iter().map(|c| c.elapsed).sum::<f64>(),
        out.failed as f64 / out.attempted as f64
    );
    Ok(out)
}

fn traced_run(args: &Args) -> Result<Outcome, String> {
    let w = &args.workload;
    let gen = Generator::new(w, args.seed);
    let mut out = Outcome::default();
    let (mut bed, _) = set_up(args, &gen, &mut out, 1)?;

    // Untraced and traced closed loops alternate, so drift over the run
    // does not masquerade as tracing overhead.
    let phase = secs(args.seconds * CLOSED_SHARE / 2.0);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for shift in [0, lane::ROUND] {
        untraced.push(closed_loop(
            &mut bed.conns,
            &gen,
            lane::CLOSED + shift,
            Stop::After(phase),
            false,
        ));
        traced.push(closed_loop(
            &mut bed.conns,
            &gen,
            lane::CLOSED_TRACED + shift,
            Stop::After(phase),
            true,
        ));
    }
    let before = bed.handle.metrics_snapshot();
    let open = open_loop(
        &mut bed.conns,
        &gen,
        lane::OPEN_TRACED,
        w.rate,
        secs(args.seconds * (1.0 - CLOSED_SHARE)),
        true,
    );
    let delta = Delta::new(before, bed.handle.metrics_snapshot());
    out.broken.extend(schedule_kept(&open));
    for l in untraced.iter().chain(&traced).chain([&open]) {
        bed.tally.add(l);
        out.count(l);
    }
    out.broken.extend(bed.shutdown());

    // The first traced closed-loop stream again, in-process.
    let mut engines: Vec<EngineExec> = (0..CONNS)
        .map(|_| EngineExec::new(bed.engine.clone(), &bed.wire))
        .collect();
    let embedded = closed_loop(
        &mut engines,
        &gen,
        lane::CLOSED_TRACED,
        Stop::Count(traced[0].reqs.len() as u64),
        true,
    );
    bed.tally.add(&embedded);
    out.count(&embedded);
    out.broken.extend(embedded_checks(&bed));
    let (replays, broken) = bed.recover(REPLAY_TIME);
    out.broken.extend(broken);
    out.report.set("wal.replay_ms", median(&replays) * 1e3);
    let (evented, evented_delta) = evented_probe(args, &gen, phase, &mut out)?;

    per_layer(
        &TracedRun {
            closed_untraced: &untraced,
            closed_traced: &traced,
            open: &open,
            delta: &delta,
            embedded: &embedded,
            evented: &evented,
            evented_delta: &evented_delta,
        },
        &mut out.report,
    );
    // The measured window's spans; the closed loops' would add ten times
    // as many lines and nothing the metrics above do not already say.
    let trace_file = PathBuf::from(TRACE_DIR).join(format!("trace-{}.tsv", w.name));
    match write_tsv(&trace_file, &open.recorders) {
        Ok(()) => eprintln!(
            "wrote {} spans to {}",
            open.recorders.iter().map(|r| r.spans.len()).sum::<usize>(),
            trace_file.display()
        ),
        Err(e) => eprintln!("could not write {}: {e}", trace_file.display()),
    }
    Ok(out)
}

/// The first untraced closed-loop stream again, on a bed of its own served
/// by the evented front end (reactor plus worker pool), which the measured
/// runs do not use: on a cached TATP mix with two connections its
/// throughput moved by a fifth from one set-up to the next, more than any
/// bound could hold. Returns the loop and the server's counters across it.
fn evented_probe(
    args: &Args,
    gen: &Generator,
    phase: Duration,
    out: &mut Outcome,
) -> Result<(LoopOut, Delta), String> {
    let (mut bed, _) = Bed::up(&args.workload, ServerMode::Evented, gen, 0)?;
    let before = bed.handle.metrics_snapshot();
    let closed = closed_loop(&mut bed.conns, gen, lane::CLOSED, Stop::After(phase), false);
    let delta = Delta::new(before, bed.handle.metrics_snapshot());
    bed.tally.add(&closed);
    out.count(&closed);
    out.broken.extend(bed.shutdown());
    Ok((closed, delta))
}

/// An open loop whose sends left late against the schedule, beyond any
/// wait for a busy connection, measured the generator, not the server:
/// the run is invalid.
fn schedule_kept(open: &LoopOut) -> Option<String> {
    let late = percentile(
        &sorted(open.reqs.iter().map(|q| q.late_ms()).collect()),
        99.0,
    )?;
    (late > MAX_LATE_P99_MS).then(|| {
        format!("generator lateness p99 {late:.3} ms exceeds {MAX_LATE_P99_MS} ms: run invalid")
    })
}

/// After the in-process replay the engine's commit count still matches
/// what the clients saw, and nothing is left locked.
fn embedded_checks(bed: &Bed) -> Vec<String> {
    let mut broken = bed.quiescent();
    let commits = bed.engine.stats().commits;
    if commits != bed.tally.commits {
        broken.push(format!(
            "clients saw {} commits, engine counted {commits}",
            bed.tally.commits
        ));
    }
    broken
}
