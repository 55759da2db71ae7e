//! Admission-order properties for the defer-hot scheduler.
//!
//! Three contracts, checked over generated hot/cool arrival streams:
//!
//! 1. **Degenerate equivalence** — with `defer_hot` off the hot flags
//!    are inert and the grant stream is exactly FIFO arrival order.
//! 2. **Bounded bypass** — with `defer_hot` on, every waiter is granted
//!    within `defer_max` bypasses of its FIFO position: waiter `i` is
//!    granted no later than position `i + defer_max`, cool waiters no
//!    later than position `i`, and nobody is lost.
//! 3. **Starvation freedom under adversarial arrivals** — a hot waiter
//!    facing an endless stream of fresh cool arrivals (the worst case
//!    for deferral) is still granted after exactly `defer_max`
//!    bypasses.
//!
//! Method: one slot, one long-lived permit holder, async waiters whose
//! grant callbacks ship the permit over a channel so the test controls
//! exactly when each grant's slot frees — the drain order *is* the
//! scheduler's decision sequence, with no thread races.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use tpd_metrics::{Counter, Histogram};
use tpd_server::{AdmissionConfig, AdmissionController, AdmitAttempt, Permit};

struct Rig {
    controller: Arc<AdmissionController>,
    deferred_total: Arc<Counter>,
}

fn rig(defer_hot: bool, defer_max: u32) -> Rig {
    let deferred_total = Arc::new(Counter::new());
    let controller = AdmissionController::new(
        AdmissionConfig {
            slots: 1,
            queue_cap: 1024,
            queue_deadline: Duration::from_secs(30),
            defer_hot,
            defer_max,
        },
        Arc::new(Counter::new()),
        Arc::new(Histogram::new()),
        deferred_total.clone(),
    );
    Rig {
        controller,
        deferred_total,
    }
}

/// Enqueue an async waiter that reports `(id, permit)` on grant.
fn park(
    controller: &Arc<AdmissionController>,
    tx: &mpsc::Sender<(usize, Permit)>,
    id: usize,
    hot: bool,
) {
    let tx = tx.clone();
    match controller.try_admit_or_enqueue_hot(
        Box::new(move |permit| tx.send((id, permit)).expect("test receiver alive")),
        hot,
    ) {
        AdmitAttempt::Queued(_) => {}
        other => panic!("expected waiter {id} to queue, got {other:?}"),
    }
}

/// Park one waiter per hot flag behind a held slot, release the slot,
/// and return the ids in grant order (each grant's permit is dropped
/// only after it is recorded, so grants are strictly sequential).
fn grant_order(r: &Rig, hots: &[bool]) -> Vec<usize> {
    let holder = match r
        .controller
        .try_admit_or_enqueue_hot(Box::new(|_| ()), false)
    {
        AdmitAttempt::Admitted(p) => p,
        other => panic!("empty controller must admit, got {other:?}"),
    };
    let (tx, rx) = mpsc::channel();
    for (id, &hot) in hots.iter().enumerate() {
        park(&r.controller, &tx, id, hot);
    }
    drop(tx);
    drop(holder);
    let mut order = Vec::with_capacity(hots.len());
    while let Ok((id, permit)) = rx.recv() {
        order.push(id);
        drop(permit);
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `defer_hot = false` ⇒ hot flags are inert: the grant stream is
    /// the arrival stream, whatever the flags say, and nothing defers.
    #[test]
    fn defer_disabled_grant_stream_is_fifo(
        hots in proptest::collection::vec(any::<bool>(), 1..24)
    ) {
        let r = rig(false, 4);
        let order = grant_order(&r, &hots);
        let fifo: Vec<usize> = (0..hots.len()).collect();
        prop_assert_eq!(order, fifo);
        prop_assert_eq!(r.deferred_total.get(), 0);
        prop_assert_eq!(r.controller.in_flight(), 0);
        prop_assert_eq!(r.controller.queued(), 0);
    }

    /// `defer_hot = true` ⇒ every waiter is granted, within the aging
    /// bound: waiter `i` no later than grant position `i + defer_max`
    /// (cool waiters no later than `i`), and the deferral counter never
    /// exceeds `defer_max` charges per hot waiter.
    #[test]
    fn defer_enabled_grants_everyone_within_aging_bound(
        hots in proptest::collection::vec(any::<bool>(), 1..24),
        defer_max in 1u32..4
    ) {
        let r = rig(true, defer_max);
        let order = grant_order(&r, &hots);

        let mut sorted = order.clone();
        sorted.sort_unstable();
        let everyone: Vec<usize> = (0..hots.len()).collect();
        prop_assert_eq!(&sorted, &everyone, "every waiter must be granted");

        for (pos, &id) in order.iter().enumerate() {
            let bound = if hots[id] { id + defer_max as usize } else { id };
            prop_assert!(
                pos <= bound,
                "waiter {} (hot={}) granted at position {} > bound {}",
                id, hots[id], pos, bound
            );
        }

        let hot_count = hots.iter().filter(|&&h| h).count() as u64;
        prop_assert!(r.deferred_total.get() <= hot_count * u64::from(defer_max));
        prop_assert_eq!(r.controller.in_flight(), 0);
        prop_assert_eq!(r.controller.queued(), 0);
    }
}

/// Adversarial arrival stream: after every grant a *fresh cool* waiter
/// arrives behind the queue — the configuration most favourable to
/// starving a hot head. The hot waiter is bypassed exactly `defer_max`
/// times, then ages out of deferral and wins the next slot even though
/// cool work keeps arriving.
#[test]
fn adversarial_cool_stream_cannot_starve_a_hot_waiter() {
    const DEFER_MAX: u32 = 3;
    let r = rig(true, DEFER_MAX);
    let holder = match r
        .controller
        .try_admit_or_enqueue_hot(Box::new(|_| ()), false)
    {
        AdmitAttempt::Admitted(p) => p,
        other => panic!("empty controller must admit, got {other:?}"),
    };
    let (tx, rx) = mpsc::channel();
    // id 0: the hot victim; ids 1.. : the adversarial cool stream.
    park(&r.controller, &tx, 0, true);
    let mut next_id = 1;
    park(&r.controller, &tx, next_id, false);
    drop(holder);

    let mut order = Vec::new();
    while order.last() != Some(&0) {
        let (id, permit) = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("no starvation");
        order.push(id);
        // The adversary refills the queue before the slot frees.
        next_id += 1;
        park(&r.controller, &tx, next_id, false);
        drop(permit);
    }
    // Exactly defer_max cool grants jumped the hot waiter, then aging
    // put it back at its FIFO (head) position.
    assert_eq!(order, vec![1, 2, 3, 0]);
    assert_eq!(r.deferred_total.get(), u64::from(DEFER_MAX));

    // Drain the remaining adversaries so the controller winds down idle.
    drop(tx);
    while let Ok((_, permit)) = rx.recv() {
        drop(permit);
    }
    assert_eq!(r.controller.in_flight(), 0);
    assert_eq!(r.controller.queued(), 0);
}
