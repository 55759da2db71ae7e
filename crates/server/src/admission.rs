//! Admission control between accept and execute.
//!
//! The controller bounds concurrent transaction execution with
//! `slots` permits. A request that finds no free slot joins a FIFO
//! admission queue of at most `queue_cap` waiters, each with a deadline;
//! anything beyond the cap — or still queued when its deadline expires —
//! is **shed** with a typed reason the server maps to `RETRY_LATER`, so
//! overload produces fast typed rejections instead of unbounded queueing
//! (the paper's top-down premise: queue wait is a variance *factor* to
//! measure and bound, not an invisible buffer).
//!
//! Admission order among queued waiters is strictly FIFO: only the queue
//! head is ever granted a freed slot, even if a later waiter's thread
//! happens to wake first. Queue wait time feeds the
//! `server.admission_wait_ns` histogram; sheds count into
//! `server.shed_total`.
//!
//! Two entry points share the one FIFO queue:
//!
//! * [`AdmissionController::admit`] — the thread-per-connection path:
//!   blocks the calling thread (condvar) up to the deadline;
//! * [`AdmissionController::try_admit_or_enqueue`] — the reactor path:
//!   never blocks. Either the slot is granted immediately, the request is
//!   shed, or a callback is parked in the queue and invoked **with the
//!   permit** from whichever thread frees a slot (the reactor's callback
//!   posts the permit back to its event loop). Queued tickets are
//!   cancellable, which is how the reactor enforces deadlines and cleans
//!   up after disconnected waiters.
//!
//! A freed slot is handed directly to the queue head — sync waiters are
//! woken, async waiters have their callback fired — so FIFO order holds
//! across a mix of both kinds.
//!
//! # Deferring predicted-hot transactions
//!
//! With [`AdmissionConfig::defer_hot`] enabled (`--admit-defer-hot`),
//! waiters flagged *hot* by the engine's conflict predictor yield freed
//! slots to the first cooler waiter behind them, spreading lock-hotspot
//! transactions out in time. The deferral is strictly bounded so
//! starvation is impossible: each bypass increments the hot waiter's
//! counter, and once it reaches [`AdmissionConfig::defer_max`] the
//! waiter *ages out* — it is treated exactly like a cold waiter at its
//! original FIFO position, so at most `defer_max` grants can ever pass
//! it (plus whatever was already queued ahead, which only shrinks).
//! If every queued waiter is hot-and-fresh the head is granted anyway —
//! a slot is never idled while anyone waits. Bypasses count into
//! `sched.deferred_total`. With `defer_hot` off (the default) the
//! eligible waiter is always the head, byte-identical to plain FIFO.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use tpd_metrics::{Counter, Histogram};

/// Admission controller configuration.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Concurrently executing transactions. `0` degenerates to shedding
    /// every request.
    pub slots: usize,
    /// Maximum queued waiters; a request arriving with the queue full is
    /// shed immediately. `0` disables queueing (no free slot ⇒ shed).
    pub queue_cap: usize,
    /// Maximum time a waiter may sit in the queue before being shed.
    pub queue_deadline: Duration,
    /// Defer predicted-hot waiters: a freed slot goes to the first
    /// queued waiter that is not hot-and-fresh (see the module docs).
    /// Off by default — admission is then plain FIFO.
    pub defer_hot: bool,
    /// Aging bound: a hot waiter bypassed this many times stops
    /// deferring and competes at its FIFO position (the strict-FIFO
    /// escape hatch that makes starvation impossible).
    pub defer_max: u32,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            slots: 64,
            queue_cap: 256,
            queue_deadline: Duration::from_millis(500),
            defer_hot: false,
            defer_max: 4,
        }
    }
}

/// Why a request was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shed {
    /// The admission queue was at capacity (or `slots == 0`).
    QueueFull,
    /// The waiter's queue deadline expired before a slot freed.
    DeadlineExpired,
}

impl std::fmt::Display for Shed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Shed::QueueFull => f.write_str("admission queue full"),
            Shed::DeadlineExpired => f.write_str("admission deadline expired"),
        }
    }
}

/// Callback fired with the granted permit when an async waiter reaches
/// the head of the queue and a slot frees.
type GrantFn = Box<dyn FnOnce(Permit) + Send>;

struct Waiter {
    ticket: u64,
    /// Classified hot by the engine's conflict predictor at BEGIN.
    hot: bool,
    /// Times a freed slot has been granted past this waiter. At
    /// [`AdmissionConfig::defer_max`] the waiter ages out of deferral.
    bypassed: u32,
    kind: WaiterKind,
}

enum WaiterKind {
    /// A blocked thread (condvar-woken); it grants itself on wake.
    Sync,
    /// A parked callback; the releasing thread grants it directly.
    Async {
        enqueued_at: Instant,
        notify: GrantFn,
    },
}

impl std::fmt::Debug for Waiter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.kind {
            WaiterKind::Sync => "Sync",
            WaiterKind::Async { .. } => "Async",
        };
        write!(
            f,
            "{kind}({}, hot={}, bypassed={})",
            self.ticket, self.hot, self.bypassed
        )
    }
}

#[derive(Debug, Default)]
struct State {
    in_flight: usize,
    /// Queued waiters, oldest first.
    queue: VecDeque<Waiter>,
    next_ticket: u64,
}

/// Outcome of the non-blocking admission attempt.
#[derive(Debug)]
pub enum AdmitAttempt {
    /// A slot was free (and the queue empty): admitted immediately.
    Admitted(Permit),
    /// Parked in the FIFO queue; the callback will deliver the permit.
    /// Cancel with [`AdmissionController::cancel`] to enforce a deadline.
    Queued(u64),
    /// Shed at the door (queue full or `slots == 0`).
    Shed(Shed),
}

/// See the module docs.
#[derive(Debug)]
pub struct AdmissionController {
    config: AdmissionConfig,
    state: Mutex<State>,
    freed: Condvar,
    shed_total: Arc<Counter>,
    wait_ns: Arc<Histogram>,
    deferred_total: Arc<Counter>,
}

impl AdmissionController {
    /// Build a controller reporting into the given instruments (register
    /// them under `server.shed_total` / `server.admission_wait_ns` /
    /// `sched.deferred_total`).
    pub fn new(
        config: AdmissionConfig,
        shed_total: Arc<Counter>,
        wait_ns: Arc<Histogram>,
        deferred_total: Arc<Counter>,
    ) -> Arc<Self> {
        Arc::new(AdmissionController {
            config,
            state: Mutex::new(State::default()),
            freed: Condvar::new(),
            shed_total,
            wait_ns,
            deferred_total,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Currently executing requests.
    pub fn in_flight(&self) -> usize {
        self.state.lock().in_flight
    }

    /// Currently queued waiters.
    pub fn queued(&self) -> usize {
        self.state.lock().queue.len()
    }

    /// Index of the waiter the next freed slot belongs to. Plain FIFO:
    /// the head. Under `defer_hot`: the first waiter that is not
    /// hot-and-fresh; if every waiter is deferrable, the head anyway (a
    /// slot is never idled while anyone waits).
    fn eligible_index(&self, state: &State) -> usize {
        if !self.config.defer_hot {
            return 0;
        }
        state
            .queue
            .iter()
            .position(|w| !(w.hot && w.bypassed < self.config.defer_max))
            .unwrap_or(0)
    }

    /// Remove and return the waiter at `idx`, charging one bypass to
    /// every (necessarily hot-and-fresh) waiter skipped ahead of it.
    fn take_eligible(&self, state: &mut State, idx: usize) -> Waiter {
        for w in state.queue.iter_mut().take(idx) {
            w.bypassed += 1;
            self.deferred_total.inc();
        }
        state.queue.remove(idx).expect("eligible index in range")
    }

    /// Grant every eligible async waiter a free slot; returns the grants
    /// to fire once the state lock is released (callbacks must never run
    /// under it). If the eligible waiter is a sync one it is left in
    /// place for the caller's `notify_all` to wake.
    fn drain_async_heads(self: &Arc<Self>, state: &mut State) -> Vec<(GrantFn, Instant)> {
        let mut grants = Vec::new();
        while state.in_flight < self.config.slots && !state.queue.is_empty() {
            let idx = self.eligible_index(state);
            if !matches!(state.queue[idx].kind, WaiterKind::Async { .. }) {
                break;
            }
            let w = self.take_eligible(state, idx);
            let WaiterKind::Async {
                enqueued_at,
                notify,
            } = w.kind
            else {
                unreachable!("eligible checked to be Async");
            };
            state.in_flight += 1;
            grants.push((notify, enqueued_at));
        }
        grants
    }

    /// Fire collected grants. Must be called with the state lock released.
    fn fire(self: &Arc<Self>, grants: Vec<(GrantFn, Instant)>) {
        for (notify, enqueued_at) in grants {
            self.wait_ns.record(enqueued_at.elapsed().as_nanos() as u64);
            notify(Permit {
                controller: self.clone(),
            });
        }
    }

    /// Try to admit one request, blocking in the FIFO queue up to the
    /// configured deadline. On success the returned [`Permit`] holds the
    /// slot until dropped.
    pub fn admit(self: &Arc<Self>) -> Result<Permit, Shed> {
        self.admit_hot(false)
    }

    /// [`AdmissionController::admit`] with a hotness classification from
    /// the engine's conflict predictor. Hot waiters are deferrable under
    /// `defer_hot` (see the module docs); with it off, `hot` is inert.
    pub fn admit_hot(self: &Arc<Self>, hot: bool) -> Result<Permit, Shed> {
        let enqueued_at = Instant::now();
        let mut state = self.state.lock();
        if self.config.slots == 0 {
            drop(state);
            self.shed_total.inc();
            return Err(Shed::QueueFull);
        }
        if state.in_flight < self.config.slots && state.queue.is_empty() {
            state.in_flight += 1;
            drop(state);
            self.wait_ns.record(0);
            return Ok(Permit {
                controller: self.clone(),
            });
        }
        if state.queue.len() >= self.config.queue_cap {
            drop(state);
            self.shed_total.inc();
            return Err(Shed::QueueFull);
        }
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.queue.push_back(Waiter {
            ticket,
            hot,
            bypassed: 0,
            kind: WaiterKind::Sync,
        });
        loop {
            // Strict FIFO among eligible waiters: only the one a freed
            // slot belongs to may take it (the head unless `defer_hot`
            // redirects past hot-and-fresh waiters).
            let idx = self.eligible_index(&state);
            if state.queue.get(idx).map(|w| w.ticket) == Some(ticket)
                && state.in_flight < self.config.slots
            {
                let _ = self.take_eligible(&mut state, idx);
                state.in_flight += 1;
                // The new head may also be admissible (several slots can
                // free while multiple waiters queue) — async heads are
                // granted here, a sync head is condvar-woken.
                let grants = self.drain_async_heads(&mut state);
                drop(state);
                self.freed.notify_all();
                self.fire(grants);
                self.wait_ns.record(enqueued_at.elapsed().as_nanos() as u64);
                return Ok(Permit {
                    controller: self.clone(),
                });
            }
            let elapsed = enqueued_at.elapsed();
            if elapsed >= self.config.queue_deadline {
                state.queue.retain(|w| w.ticket != ticket);
                drop(state);
                // Our departure may unblock the waiter behind us.
                self.freed.notify_all();
                self.shed_total.inc();
                return Err(Shed::DeadlineExpired);
            }
            let remaining = self.config.queue_deadline - elapsed;
            self.freed.wait_for(&mut state, remaining);
        }
    }

    /// Non-blocking admission for event-driven callers. Immediate permit
    /// if a slot is free and nobody is queued ahead; otherwise either a
    /// queued ticket (the `notify` callback later receives the permit
    /// from the releasing thread) or an immediate shed. The caller owns
    /// deadline enforcement via [`AdmissionController::cancel`].
    pub fn try_admit_or_enqueue(self: &Arc<Self>, notify: GrantFn) -> AdmitAttempt {
        self.try_admit_or_enqueue_hot(notify, false)
    }

    /// [`AdmissionController::try_admit_or_enqueue`] with a hotness
    /// classification from the engine's conflict predictor. Hot waiters
    /// are deferrable under `defer_hot`; with it off, `hot` is inert.
    pub fn try_admit_or_enqueue_hot(self: &Arc<Self>, notify: GrantFn, hot: bool) -> AdmitAttempt {
        let mut state = self.state.lock();
        if self.config.slots == 0 {
            drop(state);
            self.shed_total.inc();
            return AdmitAttempt::Shed(Shed::QueueFull);
        }
        if state.in_flight < self.config.slots && state.queue.is_empty() {
            state.in_flight += 1;
            drop(state);
            self.wait_ns.record(0);
            return AdmitAttempt::Admitted(Permit {
                controller: self.clone(),
            });
        }
        if state.queue.len() >= self.config.queue_cap {
            drop(state);
            self.shed_total.inc();
            return AdmitAttempt::Shed(Shed::QueueFull);
        }
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.queue.push_back(Waiter {
            ticket,
            hot,
            bypassed: 0,
            kind: WaiterKind::Async {
                enqueued_at: Instant::now(),
                notify,
            },
        });
        AdmitAttempt::Queued(ticket)
    }

    /// Withdraw a queued async ticket. Returns `true` if the waiter was
    /// still queued (its callback will never fire); `false` means the
    /// grant already happened (or is in flight) and the permit will
    /// arrive through the callback — the caller must handle it.
    ///
    /// `count_shed` distinguishes a deadline expiry (a real shed, counted
    /// in `server.shed_total`) from a disconnect cleanup (not a shed).
    pub fn cancel(&self, ticket: u64, count_shed: bool) -> bool {
        let mut state = self.state.lock();
        let before = state.queue.len();
        state.queue.retain(|w| w.ticket != ticket);
        let removed = state.queue.len() < before;
        drop(state);
        if removed {
            if count_shed {
                self.shed_total.inc();
            }
            // Head may have changed; re-evaluate sync waiters.
            self.freed.notify_all();
        }
        removed
    }
}

/// An admitted request's slot; freeing it (drop) hands the slot to the
/// queue head — directly for async waiters, via wakeup for sync ones.
#[derive(Debug)]
pub struct Permit {
    controller: Arc<AdmissionController>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        let controller = self.controller.clone();
        let mut state = controller.state.lock();
        state.in_flight -= 1;
        let grants = controller.drain_async_heads(&mut state);
        drop(state);
        controller.freed.notify_all();
        controller.fire(grants);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    fn controller(slots: usize, cap: usize, deadline: Duration) -> Arc<AdmissionController> {
        AdmissionController::new(
            AdmissionConfig {
                slots,
                queue_cap: cap,
                queue_deadline: deadline,
                ..AdmissionConfig::default()
            },
            Arc::new(Counter::new()),
            Arc::new(Histogram::new()),
            Arc::new(Counter::new()),
        )
    }

    fn deferring_controller(
        slots: usize,
        cap: usize,
        deadline: Duration,
        defer_max: u32,
    ) -> Arc<AdmissionController> {
        AdmissionController::new(
            AdmissionConfig {
                slots,
                queue_cap: cap,
                queue_deadline: deadline,
                defer_hot: true,
                defer_max,
            },
            Arc::new(Counter::new()),
            Arc::new(Histogram::new()),
            Arc::new(Counter::new()),
        )
    }

    #[test]
    fn admits_up_to_slots_without_queueing() {
        let c = controller(3, 8, Duration::from_millis(100));
        let p1 = c.admit().expect("slot 1");
        let p2 = c.admit().expect("slot 2");
        let p3 = c.admit().expect("slot 3");
        assert_eq!(c.in_flight(), 3);
        drop((p1, p2, p3));
        assert_eq!(c.in_flight(), 0);
    }

    #[test]
    fn burst_over_cap_sheds_exactly_the_overflow() {
        // The slot is busy; a burst of cap + k requests must shed exactly
        // k at the queue door, whatever order the threads arrive in.
        let c = controller(1, 4, Duration::from_secs(5));
        let held = c.admit().expect("occupy the slot");
        let k = 3;
        let sheds = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..(4 + k) {
            let c = c.clone();
            let sheds = sheds.clone();
            handles.push(std::thread::spawn(move || match c.admit() {
                Ok(p) => drop(p),
                Err(Shed::QueueFull) => {
                    sheds.fetch_add(1, Ordering::SeqCst);
                }
                Err(Shed::DeadlineExpired) => panic!("deadline generous enough"),
            }));
        }
        // Wait until the queue has filled and the overflow has bounced.
        let start = Instant::now();
        while sheds.load(Ordering::SeqCst) < k && start.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(sheds.load(Ordering::SeqCst), k, "exactly k sheds");
        drop(held);
        for h in handles {
            h.join().expect("waiter");
        }
        assert_eq!(c.in_flight(), 0);
        assert_eq!(c.queued(), 0);
    }

    #[test]
    fn deadline_expired_waiters_get_shed_not_executed() {
        let c = controller(1, 8, Duration::from_millis(20));
        let held = c.admit().expect("occupy");
        let c2 = c.clone();
        let h = std::thread::spawn(move || c2.admit());
        let res = h.join().expect("waiter");
        assert_eq!(res.err(), Some(Shed::DeadlineExpired));
        assert_eq!(c.queued(), 0, "expired waiter left the queue");
        // The slot was never double-granted.
        assert_eq!(c.in_flight(), 1);
        drop(held);
    }

    #[test]
    fn fifo_order_preserved_among_admitted() {
        let c = controller(1, 16, Duration::from_secs(5));
        let held = c.admit().expect("occupy");
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for i in 0..6u64 {
            let worker = c.clone();
            let order = order.clone();
            handles.push(std::thread::spawn(move || {
                let permit = worker.admit().expect("eventually admitted");
                order.lock().push(i);
                // Hold briefly so admissions are strictly sequential.
                std::thread::sleep(Duration::from_millis(2));
                drop(permit);
            }));
            // Stagger arrivals so tickets are issued in thread index
            // order (the queue is FIFO over arrival, not thread id).
            while c.queued() < (i + 1) as usize {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        drop(held);
        for h in handles {
            h.join().expect("waiter");
        }
        assert_eq!(*order.lock(), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn zero_queue_cap_degenerates_to_unconditional_shed() {
        let c = controller(1, 0, Duration::from_secs(1));
        let held = c.admit().expect("the slot itself still works");
        for _ in 0..5 {
            assert_eq!(c.admit().err(), Some(Shed::QueueFull));
        }
        drop(held);
        assert!(c.admit().is_ok(), "free slot admits again");
    }

    #[test]
    fn zero_slots_sheds_everything() {
        let c = controller(0, 8, Duration::from_secs(1));
        assert_eq!(c.admit().err(), Some(Shed::QueueFull));
        assert_eq!(c.shed_total.get(), 1);
    }

    #[test]
    fn sheds_and_waits_reach_the_instruments() {
        let c = controller(1, 0, Duration::from_millis(10));
        let held = c.admit().expect("slot");
        let _ = c.admit(); // shed
        let _ = c.admit(); // shed
        assert_eq!(c.shed_total.get(), 2);
        drop(held);
        let _ = c.admit().expect("admitted");
        assert!(c.wait_ns.count() >= 2, "zero-wait admissions recorded");
    }

    // ---- async (reactor-path) admission ----

    #[test]
    fn async_admits_immediately_when_slot_free() {
        let c = controller(2, 4, Duration::from_secs(1));
        match c.try_admit_or_enqueue(Box::new(|_p| panic!("must not queue"))) {
            AdmitAttempt::Admitted(p) => {
                assert_eq!(c.in_flight(), 1);
                drop(p);
            }
            other => panic!("expected immediate admit, got {other:?}"),
        }
        assert_eq!(c.in_flight(), 0);
    }

    #[test]
    fn async_queues_then_receives_permit_on_release() {
        let c = controller(1, 4, Duration::from_secs(1));
        let held = c.admit().expect("occupy");
        let (tx, rx) = mpsc::channel();
        let ticket = match c.try_admit_or_enqueue(Box::new(move |p| {
            tx.send(p).expect("deliver");
        })) {
            AdmitAttempt::Queued(t) => t,
            other => panic!("expected queued, got {other:?}"),
        };
        assert_eq!(c.queued(), 1);
        assert!(
            rx.try_recv().is_err(),
            "no grant while the slot is occupied"
        );
        drop(held); // releasing thread fires the callback synchronously
        let permit = rx.recv_timeout(Duration::from_secs(2)).expect("granted");
        assert_eq!(c.in_flight(), 1, "slot transferred, never idle");
        assert!(!c.cancel(ticket, true), "granted ticket not cancellable");
        drop(permit);
        assert_eq!(c.in_flight(), 0);
    }

    #[test]
    fn async_sheds_at_the_door_when_queue_full() {
        let c = controller(1, 1, Duration::from_secs(1));
        let _held = c.admit().expect("occupy");
        let _q = c.try_admit_or_enqueue(Box::new(|_p| ())); // fills the queue
        match c.try_admit_or_enqueue(Box::new(|_p| panic!("shed, not queued"))) {
            AdmitAttempt::Shed(Shed::QueueFull) => {}
            other => panic!("expected shed, got {other:?}"),
        }
        assert_eq!(c.shed_total.get(), 1);
    }

    #[test]
    fn cancel_prevents_grant_and_counts_choice_of_shed() {
        let c = controller(1, 4, Duration::from_secs(1));
        let held = c.admit().expect("occupy");
        let fired = Arc::new(AtomicUsize::new(0));
        let f = fired.clone();
        let t1 = match c.try_admit_or_enqueue(Box::new(move |p| {
            f.fetch_add(1, Ordering::SeqCst);
            drop(p);
        })) {
            AdmitAttempt::Queued(t) => t,
            other => panic!("queued expected, got {other:?}"),
        };
        // Deadline-style cancel: counted as a shed.
        assert!(c.cancel(t1, true));
        assert_eq!(c.shed_total.get(), 1);
        // Disconnect-style cancel: not counted.
        let t2 = match c.try_admit_or_enqueue(Box::new(|_p| panic!("cancelled"))) {
            AdmitAttempt::Queued(t) => t,
            other => panic!("queued expected, got {other:?}"),
        };
        assert!(c.cancel(t2, false));
        assert_eq!(c.shed_total.get(), 1, "disconnect cancel is not a shed");
        drop(held);
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(
            fired.load(Ordering::SeqCst),
            0,
            "cancelled callbacks never fire"
        );
        assert_eq!(c.in_flight(), 0);
    }

    #[test]
    fn mixed_sync_async_waiters_grant_in_fifo_order() {
        let c = controller(1, 8, Duration::from_secs(5));
        let held = c.admit().expect("occupy");
        let order = Arc::new(Mutex::new(Vec::new()));

        // Waiter 0: async.
        let o = order.clone();
        let (tx0, rx0) = mpsc::channel();
        match c.try_admit_or_enqueue(Box::new(move |p| {
            o.lock().push(0u64);
            tx0.send(p).expect("deliver");
        })) {
            AdmitAttempt::Queued(_) => {}
            other => panic!("queued expected, got {other:?}"),
        }
        // Waiter 1: a blocked thread.
        let c1 = c.clone();
        let o1 = order.clone();
        let h = std::thread::spawn(move || {
            let p = c1.admit().expect("sync waiter admitted");
            o1.lock().push(1);
            drop(p);
        });
        while c.queued() < 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Waiter 2: async again.
        let o2 = order.clone();
        let (tx2, rx2) = mpsc::channel();
        match c.try_admit_or_enqueue(Box::new(move |p| {
            o2.lock().push(2);
            tx2.send(p).expect("deliver");
        })) {
            AdmitAttempt::Queued(_) => {}
            other => panic!("queued expected, got {other:?}"),
        }

        drop(held);
        // Grant 0 arrives via callback; dropping its permit admits 1;
        // 1's drop grants 2.
        let p0 = rx0.recv_timeout(Duration::from_secs(2)).expect("grant 0");
        drop(p0);
        h.join().expect("sync waiter");
        let p2 = rx2.recv_timeout(Duration::from_secs(2)).expect("grant 2");
        drop(p2);
        assert_eq!(*order.lock(), vec![0, 1, 2], "strict FIFO across kinds");
        assert_eq!(c.in_flight(), 0);
        assert_eq!(c.queued(), 0);
    }

    // ---- defer-hot ----

    /// Park `hot` async waiters in arrival order and return the receive
    /// side of each one's grant, so tests can observe grant order.
    fn park_async(
        c: &Arc<AdmissionController>,
        hots: &[bool],
        order: &Arc<Mutex<Vec<usize>>>,
    ) -> Vec<mpsc::Receiver<Permit>> {
        hots.iter()
            .enumerate()
            .map(|(i, &hot)| {
                let (tx, rx) = mpsc::channel();
                let o = order.clone();
                match c.try_admit_or_enqueue_hot(
                    Box::new(move |p| {
                        o.lock().push(i);
                        tx.send(p).expect("deliver");
                    }),
                    hot,
                ) {
                    AdmitAttempt::Queued(_) => rx,
                    other => panic!("expected queued, got {other:?}"),
                }
            })
            .collect()
    }

    #[test]
    fn defer_hot_grants_first_cool_waiter_past_hot_head() {
        let c = deferring_controller(1, 8, Duration::from_secs(5), 4);
        let held = c.admit().expect("occupy");
        let order = Arc::new(Mutex::new(Vec::new()));
        // Queue: hot, cool, cool.
        let rxs = park_async(&c, &[true, false, false], &order);
        drop(held);
        // Cool waiters leapfrog the fresh hot head; each release charges
        // it one bypass.
        let p1 = rxs[1].recv_timeout(Duration::from_secs(2)).expect("cool 1");
        drop(p1);
        let p2 = rxs[2].recv_timeout(Duration::from_secs(2)).expect("cool 2");
        drop(p2);
        let p0 = rxs[0]
            .recv_timeout(Duration::from_secs(2))
            .expect("hot last");
        drop(p0);
        assert_eq!(*order.lock(), vec![1, 2, 0]);
        assert_eq!(c.deferred_total.get(), 2, "one bypass per leapfrog");
        assert_eq!(c.in_flight(), 0);
        assert_eq!(c.queued(), 0);
    }

    #[test]
    fn all_hot_queue_grants_the_head_rather_than_idling() {
        let c = deferring_controller(1, 8, Duration::from_secs(5), 4);
        let held = c.admit().expect("occupy");
        let order = Arc::new(Mutex::new(Vec::new()));
        let rxs = park_async(&c, &[true, true, true], &order);
        drop(held);
        for (i, rx) in rxs.iter().enumerate() {
            let p = rx
                .recv_timeout(Duration::from_secs(2))
                .unwrap_or_else(|_| panic!("hot waiter {i} granted"));
            drop(p);
        }
        assert_eq!(*order.lock(), vec![0, 1, 2], "plain FIFO when all hot");
        assert_eq!(c.deferred_total.get(), 0, "nothing was bypassed");
    }

    #[test]
    fn aged_hot_waiter_stops_deferring_after_defer_max_bypasses() {
        let c = deferring_controller(1, 16, Duration::from_secs(5), 2);
        let held = c.admit().expect("occupy");
        let order = Arc::new(Mutex::new(Vec::new()));
        // Hot head plus four cool waiters: with defer_max = 2 the hot
        // waiter is bypassed exactly twice, then ages out and is granted
        // ahead of the remaining cool waiters.
        let rxs = park_async(&c, &[true, false, false, false, false], &order);
        drop(held);
        let expect = [1usize, 2, 0, 3, 4];
        for &i in &expect {
            let p = rxs[i]
                .recv_timeout(Duration::from_secs(2))
                .unwrap_or_else(|_| panic!("waiter {i} granted"));
            drop(p);
        }
        assert_eq!(*order.lock(), expect.to_vec(), "aging bound honored");
        assert_eq!(c.deferred_total.get(), 2, "exactly defer_max bypasses");
    }

    #[test]
    fn defer_hot_sync_waiter_respects_the_same_bound() {
        let c = deferring_controller(1, 8, Duration::from_secs(5), 1);
        let held = c.admit().expect("occupy");
        let order = Arc::new(Mutex::new(Vec::new()));
        // Hot *sync* waiter first.
        let c0 = c.clone();
        let o0 = order.clone();
        let h = std::thread::spawn(move || {
            let p = c0.admit_hot(true).expect("hot sync waiter admitted");
            o0.lock().push(0usize);
            std::thread::sleep(Duration::from_millis(2));
            drop(p);
        });
        while c.queued() < 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Two cool async waiters behind it; defer_max = 1 lets exactly
        // one of them leapfrog.
        let rxs = park_async(&c, &[false, false], &order);
        drop(held);
        let p1 = rxs[0].recv_timeout(Duration::from_secs(2)).expect("cool 1");
        drop(p1);
        h.join().expect("hot sync waiter");
        let p2 = rxs[1].recv_timeout(Duration::from_secs(2)).expect("cool 2");
        drop(p2);
        // park_async indexes restart at 0, so the sync waiter logged 0
        // and the async waiters logged 0 and 1 — disambiguate by count.
        assert_eq!(order.lock().len(), 3);
        assert_eq!(c.deferred_total.get(), 1, "one bypass, then aged out");
        assert_eq!(c.in_flight(), 0);
        assert_eq!(c.queued(), 0);
    }

    #[test]
    fn defer_disabled_ignores_hot_flags_entirely() {
        let c = controller(1, 8, Duration::from_secs(5));
        let held = c.admit().expect("occupy");
        let order = Arc::new(Mutex::new(Vec::new()));
        let rxs = park_async(&c, &[true, false, true], &order);
        drop(held);
        for rx in &rxs {
            let p = rx.recv_timeout(Duration::from_secs(2)).expect("granted");
            drop(p);
        }
        assert_eq!(*order.lock(), vec![0, 1, 2], "hot flags inert: plain FIFO");
        assert_eq!(c.deferred_total.get(), 0);
    }
}
