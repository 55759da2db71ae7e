//! Monotonic time utilities, with a pluggable real/virtual mode.
//!
//! All latencies in this workspace are nanoseconds measured from a single
//! process-wide [`Instant`] origin, so timestamps taken on different threads
//! are directly comparable and fit in a `u64` (584 years of range).
//!
//! # Virtual time
//!
//! The deterministic simulation harness (`tpd-harness`) runs with a
//! *virtual* clock: [`now_nanos`] reads a logical counter, [`sleep_until`]
//! jumps the counter to the deadline, and [`advance`] — the primitive the
//! simulated devices call instead of `thread::sleep` — adds the service
//! time to the counter. Simulated I/O then costs zero wall-clock time and
//! the whole run is a pure function of its seed.
//!
//! The virtual clock is **thread-local**, enabled by holding a
//! [`VirtualClock`] guard. This is deliberate: the torture driver is
//! single-threaded (seeded interleaving of logical sessions on one OS
//! thread is what makes runs replayable), and a thread-local switch cannot
//! perturb unrelated tests or benchmark threads running in the same
//! process. Components that must work under simulation therefore do all
//! their timing on the caller's thread (see `RedoLogConfig::manual_flush`).
//!
//! # Real time
//!
//! In real mode [`advance`] and [`sleep_until`] sleep in the kernel. Linux
//! lets a timer fire up to the thread's *timer slack* late (50 µs by
//! default) so that it can batch wake-ups; that would add about 55 µs to
//! every modeled device request. The first real-mode sleep of each thread
//! therefore sets that thread's slack to [`SLEEP_TIMER_SLACK_NS`]. Only
//! threads that model device or arrival time are affected; the slack is a
//! per-thread attribute, and a thread created later by one of them inherits
//! it.

use std::cell::Cell;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A monotonic timestamp or duration in nanoseconds.
pub type Nanos = u64;

/// Timer slack, in nanoseconds, that a thread takes on at its first
/// real-mode sleep. With Linux's default 50 µs slack, a 20 µs `advance`
/// slept ~76 µs at p50; with 1 ns it sleeps ~27 µs, the modeled time plus
/// the wake-up latency. 1 is the smallest value: 0 restores the default.
/// No spinning is added: a spinning sleeper would take the CPU from the
/// threads it shares a core with.
pub const SLEEP_TIMER_SLACK_NS: u64 = 1;

thread_local! {
    /// `Some(now)` while this thread runs on virtual time.
    static VIRTUAL_NOW: Cell<Option<Nanos>> = const { Cell::new(None) };
}

#[cfg(target_os = "linux")]
mod sys {
    use std::cell::Cell;
    use std::os::raw::{c_int, c_ulong};

    pub const PR_SET_TIMERSLACK: c_int = 29;
    #[cfg(test)]
    pub const PR_GET_TIMERSLACK: c_int = 30;

    extern "C" {
        pub fn prctl(option: c_int, ...) -> c_int;
    }

    thread_local! {
        /// Whether this thread's slack is already `SLEEP_TIMER_SLACK_NS`.
        static SLACK_SET: Cell<bool> = const { Cell::new(false) };
    }

    /// Set this thread's timer slack to `SLEEP_TIMER_SLACK_NS`, once.
    pub fn tighten_timer_slack() {
        if SLACK_SET.with(Cell::get) {
            return;
        }
        SLACK_SET.with(|s| s.set(true));
        // SAFETY: PR_SET_TIMERSLACK reads one integer argument and changes
        // only the calling thread's timer slack. It cannot fail for a
        // positive slack; if it did, sleeps would merely stay as coarse as
        // the default slack makes them.
        unsafe { prctl(PR_SET_TIMERSLACK, super::SLEEP_TIMER_SLACK_NS as c_ulong) };
    }
}

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Sleep for `d` of real time with this thread's timer slack tightened.
fn sleep_exact(d: Duration) {
    #[cfg(target_os = "linux")]
    sys::tighten_timer_slack();
    std::thread::sleep(d);
}

/// Nanoseconds elapsed since the first call to any clock function in this
/// process. Monotonic and comparable across threads — unless the calling
/// thread holds a [`VirtualClock`] guard, in which case this is the logical
/// simulation time.
#[inline]
pub fn now_nanos() -> Nanos {
    match VIRTUAL_NOW.with(Cell::get) {
        Some(t) => t,
        None => origin().elapsed().as_nanos() as Nanos,
    }
}

/// Whether the calling thread is on virtual time.
#[inline]
pub fn is_virtual() -> bool {
    VIRTUAL_NOW.with(Cell::get).is_some()
}

/// Sleep until the given process-relative deadline (in nanoseconds).
///
/// Used by the open-loop harness to pace arrivals. In real mode this sleeps
/// in the kernel with this thread's timer slack at [`SLEEP_TIMER_SLACK_NS`],
/// so it wakes a few microseconds after the deadline rather than up to
/// 50 µs after it. Under a [`VirtualClock`] the logical clock jumps
/// straight to the deadline and no system call is made.
pub fn sleep_until(deadline: Nanos) {
    if let Some(t) = VIRTUAL_NOW.with(Cell::get) {
        if deadline > t {
            VIRTUAL_NOW.with(|v| v.set(Some(deadline)));
        }
        return;
    }
    let now = now_nanos();
    if deadline > now {
        sleep_exact(Duration::from_nanos(deadline - now));
    }
}

/// Let `ns` nanoseconds of *modeled* time pass.
///
/// This is the primitive simulated devices use to charge service time.
/// In real mode it sleeps (yielding the CPU, preserving concurrency effects)
/// with this thread's timer slack at [`SLEEP_TIMER_SLACK_NS`], so a request
/// costs its service time plus the wake-up latency (a few microseconds).
/// Under a [`VirtualClock`] it advances the logical clock and returns
/// immediately, without a system call.
pub fn advance(ns: Nanos) {
    if let Some(t) = VIRTUAL_NOW.with(Cell::get) {
        VIRTUAL_NOW.with(|v| v.set(Some(t.saturating_add(ns))));
        return;
    }
    if ns > 0 {
        sleep_exact(Duration::from_nanos(ns));
    }
}

/// Guard that switches the *current thread* onto virtual time for its
/// lifetime. Dropping it restores the real clock.
///
/// Nesting is a bug (two simulations would fight over one counter), so
/// enabling twice on the same thread panics.
#[derive(Debug)]
pub struct VirtualClock {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl VirtualClock {
    /// Switch this thread to virtual time, starting the logical clock at
    /// `start` nanoseconds.
    ///
    /// # Panics
    /// If the thread is already on virtual time.
    pub fn enable(start: Nanos) -> VirtualClock {
        VIRTUAL_NOW.with(|v| {
            assert!(
                v.get().is_none(),
                "virtual clock already enabled on this thread"
            );
            v.set(Some(start));
        });
        VirtualClock {
            _not_send: std::marker::PhantomData,
        }
    }
}

impl Drop for VirtualClock {
    fn drop(&mut self) {
        VIRTUAL_NOW.with(|v| v.set(None));
    }
}

/// Perform a deterministic amount of CPU work.
///
/// Models the in-function computation the paper attributes to "inherent"
/// variance (e.g. `row_ins_clust_index_entry_low` taking different code
/// paths). One unit is a handful of nanoseconds; callers scale by the work
/// they want to model. The result is returned so the optimizer cannot
/// remove the loop.
#[inline]
pub fn cpu_work(units: u64) -> u64 {
    let mut acc: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..units {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        acc ^= acc >> 29;
    }
    std::hint::black_box(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_is_monotonic() {
        let a = now_nanos();
        let b = now_nanos();
        assert!(b >= a);
    }

    #[test]
    fn sleep_until_past_deadline_returns_immediately() {
        let start = now_nanos();
        sleep_until(0);
        assert!(now_nanos() - start < 10_000_000, "should not sleep");
    }

    #[test]
    fn sleep_until_future_deadline_waits() {
        let deadline = now_nanos() + 5_000_000; // 5 ms
        sleep_until(deadline);
        assert!(now_nanos() >= deadline);
    }

    #[test]
    fn cpu_work_scales_and_is_deterministic() {
        assert_eq!(cpu_work(100), cpu_work(100));
        // Different unit counts produce different results (no constant fold).
        assert_ne!(cpu_work(100), cpu_work(101));
    }

    #[test]
    fn virtual_clock_advances_without_sleeping() {
        let wall = Instant::now();
        {
            let _guard = VirtualClock::enable(1_000);
            assert!(is_virtual());
            assert_eq!(now_nanos(), 1_000);
            advance(5_000_000_000); // 5 virtual seconds
            assert_eq!(now_nanos(), 5_000_001_000);
            sleep_until(7_000_000_000);
            assert_eq!(now_nanos(), 7_000_000_000);
            sleep_until(1); // past deadline: no-op
            assert_eq!(now_nanos(), 7_000_000_000);
        }
        assert!(!is_virtual());
        // The 7 virtual seconds cost (much) less than 1 real second.
        assert!(wall.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn virtual_clock_is_thread_local() {
        let _guard = VirtualClock::enable(0);
        let handle = std::thread::spawn(is_virtual);
        assert!(
            !handle.join().expect("spawned thread"),
            "other threads stay real"
        );
    }

    /// This thread's timer slack, in nanoseconds.
    #[cfg(target_os = "linux")]
    fn timer_slack() -> u64 {
        // SAFETY: PR_GET_TIMERSLACK takes no further argument and only
        // reads the calling thread's slack.
        unsafe { sys::prctl(sys::PR_GET_TIMERSLACK) as u64 }
    }

    #[cfg(target_os = "linux")]
    fn set_timer_slack(ns: u64) {
        // SAFETY: as in `sys::tighten_timer_slack`.
        assert_eq!(
            unsafe { sys::prctl(sys::PR_SET_TIMERSLACK, ns as std::os::raw::c_ulong) },
            0
        );
    }

    /// Run `f` on a new thread and return its result.
    #[cfg(target_os = "linux")]
    fn on_fresh_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::spawn(f).join().expect("fresh thread")
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn timer_slack_is_tightened_only_by_real_sleeps_of_this_thread() {
        // A known slack other than the constant, inherited by every thread
        // spawned below.
        const INHERITED: u64 = 50_000;
        assert_ne!(INHERITED, SLEEP_TIMER_SLACK_NS);
        set_timer_slack(INHERITED);

        // Virtual time makes no system call.
        let (before, after) = on_fresh_thread(|| {
            let before = timer_slack();
            let _guard = VirtualClock::enable(0);
            advance(1_000);
            sleep_until(now_nanos() + 1_000);
            (before, timer_slack())
        });
        assert_eq!((before, after), (INHERITED, INHERITED));

        // A real sleep tightens the sleeper's slack, and only its slack.
        let (before, after) = on_fresh_thread(|| {
            let before = timer_slack();
            advance(1_000);
            (before, timer_slack())
        });
        assert_eq!((before, after), (INHERITED, SLEEP_TIMER_SLACK_NS));
        let after = on_fresh_thread(|| {
            sleep_until(now_nanos() + 1_000);
            timer_slack()
        });
        assert_eq!(after, SLEEP_TIMER_SLACK_NS);

        // A thread that never sleeps through this module keeps its slack,
        // whatever its siblings did.
        let kept = on_fresh_thread(|| {
            let _ = now_nanos();
            std::thread::sleep(Duration::from_micros(1));
            timer_slack()
        });
        assert_eq!(kept, INHERITED);
        assert_eq!(timer_slack(), INHERITED);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn advance_costs_the_modeled_time() {
        // With the default 50 µs slack the median is ~76 µs.
        let mut took: Vec<u64> = (0..500)
            .map(|_| {
                let t0 = Instant::now();
                advance(20_000);
                t0.elapsed().as_nanos() as u64
            })
            .collect();
        took.sort_unstable();
        let median = took[took.len() / 2];
        assert!(median >= 20_000, "slept less than asked: {median} ns");
        assert!(median <= 40_000, "median advance(20 µs) took {median} ns");
    }

    #[test]
    #[should_panic(expected = "already enabled")]
    fn virtual_clock_rejects_nesting() {
        let _a = VirtualClock::enable(0);
        let _b = VirtualClock::enable(0);
    }
}
