//! The conflict predictor behind `Policy::Predictive`.
//!
//! Conflict-prediction scheduling (Zhang, Tomasic, Pavlo, arXiv
//! 2409.01675; ForeSight, arXiv 2508.17375) ranks transactions by how
//! much contention they are *about* to cause. This module learns that
//! signal online: a per-key (and per-transaction-type) conflict rate,
//! maintained as an exponentially weighted moving average over the lock
//! manager's own wait/deadlock/timeout events, and folded into a single
//! *footprint* estimate at BEGIN.
//!
//! # Determinism
//!
//! The torture harness proves scheduling decisions reproducible by
//! running every configuration twice and diffing a digest plus the full
//! metrics JSON. A predictor that read the wall clock or used floats
//! would break that witness, so this one is integer-only and uses a
//! *logical* clock:
//!
//! * Rates are Q16 fixed point (`1.0 == 1 << 16`); all arithmetic is
//!   shifts and saturating adds on `u64`.
//! * Time is the global conflict-event counter — `observe` bumps it,
//!   `predict` only reads it. Two runs that observe the same event
//!   sequence therefore hold identical tables, regardless of wall time.
//!
//! # Encoding
//!
//! On an observation with weight `w` (Q16) at event time `t`, a key's
//! rate first *cools* by one halving per [`HALF_LIFE_EVENTS`] elapsed
//! events, then takes the standard EWMA step with `α = 2⁻ᴰ`:
//!
//! ```text
//! rate ← rate - (rate >> DECAY_SHIFT) + (w >> DECAY_SHIFT)
//! ```
//!
//! Reads apply the same cooling without mutating state, so predictions
//! decay toward zero for keys that stopped conflicting — without any
//! background sweeper thread (which would be nondeterministic).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::types::ObjectId;

/// EWMA smoothing: `α = 1/4` per observation.
pub const DECAY_SHIFT: u32 = 2;

/// Read-side cooling: one halving of the stored rate per this many
/// global conflict events without a new observation on the key.
pub const HALF_LIFE_EVENTS: u64 = 64;

/// Q16 fixed-point one: the weight of a plain lock wait.
pub const WEIGHT_WAIT: u64 = 1 << 16;

/// Weight of a deadlock (or timeout) abort — a far stronger conflict
/// signal than a wait that eventually succeeded.
pub const WEIGHT_ABORT: u64 = 4 << 16;

/// At most this many keys of a transaction's hot-key sample contribute
/// to its footprint; beyond that the estimate is already saturated and
/// the extra lookups only cost BEGIN latency.
pub const MAX_KEY_SAMPLE: usize = 8;

/// Tuning knobs for [`ConflictPredictor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictorConfig {
    /// Footprints at or above this (Q16) classify the transaction as
    /// *predicted hot* — the admission controller's defer gate and the
    /// `sched.predicted_conflicts` counter key off this.
    pub hot_threshold: u64,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        PredictorConfig {
            // Half a conflict per event window: a key must have been in
            // roughly every other recent conflict to count as hot.
            hot_threshold: WEIGHT_WAIT / 2,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Rate {
    /// Q16 conflict rate as of `last_event`.
    value: u64,
    /// Global event time of the last observation.
    last_event: u64,
}

impl Rate {
    /// The rate cooled to event time `now` (pure; no state change).
    fn cooled(&self, now: u64) -> u64 {
        let elapsed = now.saturating_sub(self.last_event);
        let halvings = (elapsed / HALF_LIFE_EVENTS).min(63);
        self.value >> halvings
    }

    /// Cool to `now`, then take one EWMA step with weight `w`.
    fn observe(&mut self, now: u64, w: u64) {
        let cooled = self.cooled(now);
        self.value = cooled - (cooled >> DECAY_SHIFT) + (w >> DECAY_SHIFT);
        self.last_event = now;
    }
}

#[derive(Debug, Default)]
struct Table {
    /// Per-key conflict rates, keyed by the lock manager's object ids.
    keys: HashMap<ObjectId, Rate>,
    /// Per-transaction-type conflict rates (workload-defined type index).
    types: HashMap<u8, Rate>,
}

/// Online conflict-rate table: observe lock conflicts, predict a
/// transaction's conflict footprint at BEGIN.
///
/// Thread-safe; in the deterministic torture harness all calls come from
/// one driver thread, so the observation order (and hence every rate) is
/// identical across doubled runs.
#[derive(Debug)]
pub struct ConflictPredictor {
    config: PredictorConfig,
    /// Logical clock: total conflict events observed.
    events: AtomicU64,
    table: Mutex<Table>,
}

impl ConflictPredictor {
    /// A predictor with the given knobs and an empty history.
    pub fn new(config: PredictorConfig) -> Self {
        ConflictPredictor {
            config,
            events: AtomicU64::new(0),
            table: Mutex::new(Table::default()),
        }
    }

    /// The configured hot threshold (Q16).
    pub fn hot_threshold(&self) -> u64 {
        self.config.hot_threshold
    }

    /// Total conflict events observed (the logical clock).
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// Record one conflict event: transaction of type `ty` waited on (or
    /// aborted over) `key`. `weight` is Q16 — [`WEIGHT_WAIT`] for a wait
    /// that eventually succeeded, [`WEIGHT_ABORT`] for a deadlock or
    /// timeout victim.
    pub fn observe(&self, ty: u8, key: ObjectId, weight: u64) {
        let mut table = self.table.lock();
        // Advance the logical clock under the lock so (event time, rate)
        // pairs are consistent even with concurrent observers.
        let now = self.events.fetch_add(1, Ordering::Relaxed) + 1;
        table.keys.entry(key).or_default().observe(now, weight);
        table.types.entry(ty).or_default().observe(now, weight);
    }

    /// Estimate the conflict footprint (Q16) of a transaction of type
    /// `ty` that expects to touch `keys`: the type's own rate plus the
    /// rates of up to [`MAX_KEY_SAMPLE`] sampled keys, each cooled to the
    /// current logical time. Read-only — prediction never perturbs the
    /// table, so doubled runs that predict a different number of times
    /// still converge.
    pub fn predict(&self, ty: u8, keys: &[ObjectId]) -> u64 {
        let now = self.events.load(Ordering::Relaxed);
        let table = self.table.lock();
        let mut footprint = table.types.get(&ty).map_or(0, |r| r.cooled(now));
        for key in keys.iter().take(MAX_KEY_SAMPLE) {
            let rate = table.keys.get(key).map_or(0, |r| r.cooled(now));
            footprint = footprint.saturating_add(rate);
        }
        footprint
    }

    /// Whether a footprint classifies as *predicted hot*.
    pub fn is_hot(&self, footprint: u64) -> bool {
        footprint >= self.config.hot_threshold
    }
}

impl Default for ConflictPredictor {
    fn default() -> Self {
        Self::new(PredictorConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(k: u64) -> ObjectId {
        ObjectId::new(1, k)
    }

    #[test]
    fn empty_history_predicts_zero() {
        let p = ConflictPredictor::default();
        assert_eq!(p.predict(0, &[key(1), key(2)]), 0);
        assert!(!p.is_hot(0));
    }

    #[test]
    fn observations_raise_the_footprint() {
        let p = ConflictPredictor::default();
        for _ in 0..8 {
            p.observe(3, key(7), WEIGHT_WAIT);
        }
        let hot = p.predict(3, &[key(7)]);
        let cold = p.predict(3, &[key(8)]);
        assert!(hot > cold, "conflicted key outranks untouched key");
        assert!(p.predict(5, &[key(8)]) == 0, "other types unaffected");
        assert!(p.is_hot(hot), "8 straight waits crosses the threshold");
    }

    #[test]
    fn aborts_weigh_more_than_waits() {
        let p = ConflictPredictor::default();
        p.observe(0, key(1), WEIGHT_WAIT);
        p.observe(1, key(2), WEIGHT_ABORT);
        // Compare keys alone (types differ so the type rate cancels out
        // of neither; use disjoint types and subtract via fresh keys).
        let wait_only = p.predict(0, &[key(1)]);
        let abort_only = p.predict(1, &[key(2)]);
        assert!(abort_only > wait_only);
    }

    #[test]
    fn rates_cool_with_logical_time() {
        let p = ConflictPredictor::default();
        p.observe(0, key(1), WEIGHT_ABORT);
        let fresh = p.predict(0, &[key(1)]);
        // Pour events onto an unrelated key to advance the clock.
        for _ in 0..(HALF_LIFE_EVENTS * 4) {
            p.observe(9, key(99), WEIGHT_WAIT);
        }
        let stale = p.predict(0, &[key(1)]);
        assert!(
            stale < fresh / 8,
            "4 half-lives must cool at least 8x: fresh={fresh} stale={stale}"
        );
    }

    #[test]
    fn prediction_is_read_only() {
        let p = ConflictPredictor::default();
        p.observe(0, key(1), WEIGHT_WAIT);
        let a = p.predict(0, &[key(1)]);
        for _ in 0..100 {
            p.predict(0, &[key(1)]);
        }
        assert_eq!(a, p.predict(0, &[key(1)]));
        assert_eq!(p.events(), 1, "predict must not advance the clock");
    }

    #[test]
    fn key_sample_is_capped() {
        let p = ConflictPredictor::default();
        for k in 0..32u64 {
            p.observe(0, key(k), WEIGHT_ABORT);
        }
        let all: Vec<ObjectId> = (0..32).map(key).collect();
        let capped: Vec<ObjectId> = (0..MAX_KEY_SAMPLE as u64).map(key).collect();
        assert_eq!(p.predict(0, &all), p.predict(0, &capped));
    }

    #[test]
    fn identical_event_sequences_yield_identical_tables() {
        let run = || {
            let p = ConflictPredictor::default();
            for i in 0..500u64 {
                let w = if i % 7 == 0 {
                    WEIGHT_ABORT
                } else {
                    WEIGHT_WAIT
                };
                p.observe((i % 5) as u8, key(i % 13), w);
            }
            (0..13).map(|k| p.predict(2, &[key(k)])).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
