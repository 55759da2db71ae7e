//! Degenerate-equivalence properties for `Policy::Predictive`.
//!
//! The predictive policy is *VATS plus a learned bias*: waiters are
//! ranked by `(footprint desc, birth, arrival)`. With no history every
//! footprint is zero, so the bias term vanishes and the rank must
//! degenerate to VATS's eldest-first order — not approximately, but
//! grant-for-grant. These properties pin that contract so predictor
//! changes can never silently shift the no-history schedule, which is
//! what keeps the doubled-run torture witnesses meaningful across the
//! policy matrix.
//!
//! Method: one holder pins an X lock while waiters with chosen
//! (birth, footprint) tokens queue behind it one at a time (arrival
//! order fixed by waiting-count handshakes); releasing the holder then
//! lets the policy drain the queue one grant at a time, each waiter
//! recording its position. Single object, X-only ⇒ no deadlocks, and
//! the observed sequence is exactly the policy's rank.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use tpd_core::{
    LockManager, LockManagerConfig, LockMode, ObjectId, Policy, TxnToken, VictimPolicy,
};

/// Queue waiters with the given `(birth, footprint)` tokens behind a
/// held X lock in slice order, release the holder, and return the txn
/// ids in grant order.
fn grant_order(policy: Policy, waiters: &[(u64, u64)]) -> Vec<u64> {
    let mgr = Arc::new(LockManager::new(LockManagerConfig {
        policy,
        victim: VictimPolicy::Youngest,
        wait_timeout: Some(Duration::from_secs(30)),
        shards: 1,
        rng_seed: 7,
    }));
    let obj = ObjectId::new(1, 0);
    let holder = TxnToken::new(u64::MAX, 0);
    mgr.acquire(holder, obj, LockMode::X).expect("holder");
    let order = Arc::new(Mutex::new(Vec::new()));
    std::thread::scope(|scope| {
        for (i, &(birth, footprint)) in waiters.iter().enumerate() {
            let worker = mgr.clone();
            let order = order.clone();
            let txn = TxnToken::new(i as u64 + 1, birth).with_footprint(footprint);
            scope.spawn(move || {
                worker.acquire(txn, obj, LockMode::X).expect("granted");
                order.lock().expect("no poison").push(txn.id.0);
                worker.release_all(txn.id);
            });
            // Arrival handshake: waiter i is queued before i+1 spawns,
            // so arrival order (the policies' tiebreak) is slice order.
            while mgr.waiting_count(obj) < i + 1 {
                std::thread::yield_now();
            }
        }
        mgr.release_all(holder.id);
    });
    let order = Arc::try_unwrap(order).expect("threads joined");
    order.into_inner().expect("no poison")
}

proptest! {
    // Each case runs two thread-scoped drains.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Zero history (every footprint 0) ⇒ the predictive grant order is
    /// identical to VATS, whatever order the waiters arrived in.
    #[test]
    fn zero_footprint_predictive_equals_vats(
        births in proptest::collection::vec(1u64..1_000_000, 2..7)
    ) {
        let waiters: Vec<(u64, u64)> = births.iter().map(|&b| (b, 0)).collect();
        let predictive = grant_order(Policy::Predictive, &waiters);
        let vats = grant_order(Policy::Vats, &waiters);
        prop_assert_eq!(predictive, vats);
    }

    /// With distinct footprints the predictive order is exactly
    /// descending footprint, regardless of births and arrival order.
    #[test]
    fn distinct_footprints_rank_descending(perm_seed in 0u64..1 << 32) {
        let mut shuffled: Vec<u64> = (1..=5).collect();
        // Fisher–Yates off a seeded RNG (the vendored rand has no
        // SliceRandom).
        let mut rng = SmallRng::seed_from_u64(perm_seed);
        for i in (1..shuffled.len()).rev() {
            let j = rng.gen_range(0..=i);
            shuffled.swap(i, j);
        }
        // Waiter i (id i+1) gets footprint shuffled[i] << 16 and a birth
        // that *inverts* the footprint order, so a VATS fallback would
        // produce the exact opposite schedule.
        let waiters: Vec<(u64, u64)> = shuffled
            .iter()
            .map(|&f| (1_000_000 * f, f << 16))
            .collect();
        let got = grant_order(Policy::Predictive, &waiters);
        let mut want: Vec<u64> = (1..=waiters.len() as u64).collect();
        want.sort_by_key(|&id| std::cmp::Reverse(waiters[id as usize - 1].1));
        prop_assert_eq!(got, want);
    }
}

/// The degenerate case the proptests subsume, kept as a fast explicit
/// witness: reversed births, zero footprints, both policies grant
/// eldest-first.
#[test]
fn reversed_births_zero_footprint_matches_vats() {
    let waiters = [(500u64, 0u64), (400, 0), (300, 0), (200, 0), (100, 0)];
    let predictive = grant_order(Policy::Predictive, &waiters);
    let vats = grant_order(Policy::Vats, &waiters);
    assert_eq!(predictive, vats);
    assert_eq!(
        predictive,
        vec![5, 4, 3, 2, 1],
        "eldest (smallest birth) first"
    );
}
