//! Self-tests of the benchmark's own machinery: open-loop timing, the
//! percentile rule, the metric catalogue and the seeded generator.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use perfbench::drive::{open_loop, Attempt, Executor};
use perfbench::gen::{lane, Generator, Script, WORKLOADS};
use perfbench::report::{valid_name, Report, END_TO_END, PER_LAYER};
use perfbench::stats::{hist_percentile, percentile, quiet_window_percentile, sorted, WINDOW};
use perfbench::trace::{self_times, Recorder, Span, ROOT};
use tpd_metrics::Histogram;

/// A fake server: one service shared by every connection, 100 µs per
/// transaction, except that transaction `stall_at` holds it for 50 ms.
struct FakeService {
    service: Arc<Mutex<()>>,
    stall_at: u64,
}

impl Executor for FakeService {
    fn attempt(&mut self, index: u64, _: &Script, _: &mut Recorder, _: u32) -> Attempt {
        let _busy = self.service.lock().unwrap();
        std::thread::sleep(if index == self.stall_at {
            Duration::from_millis(50)
        } else {
            Duration::from_micros(100)
        });
        Attempt::Committed
    }
}

#[test]
fn a_stall_delays_every_request_that_came_due_during_it() {
    let service = Arc::new(Mutex::new(()));
    let stall_at = lane::index(lane::OPEN, 100);
    let mut execs: Vec<FakeService> = (0..2)
        .map(|_| FakeService {
            service: service.clone(),
            stall_at,
        })
        .collect();
    let gen = Generator::new(&WORKLOADS[0], 1);
    let out = open_loop(
        &mut execs,
        &gen,
        lane::OPEN,
        1_000.0,
        Duration::from_millis(400),
        false,
    );
    assert_eq!(out.reqs.len(), 400);
    assert_eq!(out.failed(), 0);

    let stall = out
        .reqs
        .iter()
        .find(|r| r.index == stall_at)
        .expect("stalled request ran");
    let (start, end) = (stall.send, stall.ack);
    assert!(end - start >= 50_000_000, "the stall lasted 50 ms");
    let during: Vec<_> = out
        .reqs
        .iter()
        .filter(|r| r.index != stall_at && r.due > start && r.due < end)
        .collect();
    assert!(
        during.len() >= 40,
        "{} requests came due during the stall",
        during.len()
    );
    let slack = 1_000_000; // the stalled client thread may be descheduled after releasing
    for r in &during {
        assert!(
            r.ack + slack >= end,
            "request due at {} ns finished at {} ns, before the stall ended at {end} ns",
            r.due,
            r.ack
        );
        assert!(r.latency_ms() * 1e6 + slack as f64 >= (end - r.due) as f64);
    }
    // Timed from the send instead, most of them would look unaffected.
    let unaffected_from_send = during.iter().filter(|r| r.ack - r.send < 5_000_000).count();
    assert!(unaffected_from_send * 2 > during.len());
}

#[test]
fn percentile_needs_ten_samples_beyond_it() {
    let v = |n: usize| sorted((0..n).map(|i| i as f64).collect());
    assert_eq!(percentile(&v(999), 99.0), None);
    assert_eq!(percentile(&v(1_000), 99.0), Some(989.0));
    assert_eq!(percentile(&v(19), 50.0), None);
    assert_eq!(percentile(&v(20), 50.0), Some(9.0));
    assert_eq!(percentile(&v(9_999), 99.9), None);
    assert!(percentile(&v(10_000), 99.9).is_some());

    let h = Histogram::new();
    for i in 0..999u64 {
        h.record(1_000 + i);
    }
    assert_eq!(hist_percentile(&h.snapshot(), 99.0), None);
    h.record(2_000);
    let p99 = hist_percentile(&h.snapshot(), 99.0).expect("1000 samples");
    assert!(
        (1_536.0..2_048.0).contains(&p99),
        "p99 {p99} inside its bucket"
    );

    assert_eq!(quiet_window_percentile(&v(WINDOW - 1), 95.0), None);
    assert!(quiet_window_percentile(&v(3 * WINDOW), 95.0).is_some());
}

#[test]
fn stall_episodes_in_most_windows_do_not_move_the_quiet_p95() {
    let mut lat = vec![0.2; 20 * WINDOW];
    // A neighbour stalls 10% of the transactions in 14 of the 20 windows.
    for w in 0..14 {
        for x in lat.iter_mut().skip(w * WINDOW).take(WINDOW / 10) {
            *x = 40.0;
        }
    }
    assert_eq!(quiet_window_percentile(&lat, 95.0), Some(0.2));
    assert_eq!(percentile(&sorted(lat), 95.0), Some(40.0));
    // A slowdown of every transaction moves it.
    let slower: Vec<f64> = vec![0.3; 20 * WINDOW];
    assert_eq!(quiet_window_percentile(&slower, 95.0), Some(0.3));
}

#[test]
fn every_emitted_name_is_valid_and_carries_a_unit() {
    let mut seen = std::collections::HashSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(name), "bad name {name}");
        assert!(seen.insert(*name), "{name} listed twice");
        assert!(
            !unit.is_empty()
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{name} has bad unit {unit:?}"
        );
    }
    for set in [END_TO_END, PER_LAYER] {
        let mut r = Report::default();
        for (name, _) in set {
            r.set(name, 1.5);
        }
        assert!(r.problems(set).is_empty());
        let json = r.json(set, true, 1, 0);
        for (name, unit) in set {
            assert!(json.contains(&format!(
                "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
            )));
        }
    }
    assert!(!valid_name("") && !valid_name("p99 ms") && !valid_name("a/b"));
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "BENCHMARK.json does not list {name} in {unit}"
        );
    }
    for w in WORKLOADS {
        assert!(text.contains(&format!("\"name\": \"{}\"", w.name)));
    }
}

#[test]
fn one_seed_yields_one_statement_stream() {
    for w in &WORKLOADS {
        let (a, b, other) = (
            Generator::new(w, 7),
            Generator::new(w, 7),
            Generator::new(w, 8),
        );
        let mut differs = false;
        for l in [lane::WARMUP, lane::CLOSED, lane::OPEN] {
            for k in 0..2_000 {
                let i = lane::index(l, k);
                assert_eq!(a.script(i), b.script(i), "{} txn {i:#x}", w.name);
                differs |= a.script(i) != other.script(i);
            }
        }
        assert!(differs, "{}: seeds 7 and 8 gave the same stream", w.name);
    }
}

#[test]
fn self_time_subtracts_what_children_cover() {
    let span = |start, end, parent| Span {
        name: "s",
        start,
        end,
        parent,
        txn: 0,
    };
    let spans = [
        span(0, 100, ROOT),
        span(10, 30, 0),
        span(20, 50, 0),
        span(80, 90, 0),
        span(85, 88, 3),
    ];
    assert_eq!(self_times(&spans), vec![50, 20, 30, 7, 3]);
}
