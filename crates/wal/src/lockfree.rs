//! The log append mechanism both personalities share: one [`Stripe`]
//! per parallel log, in one of two configurations ([`AppendMode`]).
//!
//! The paper diagnoses the commit-path log flush as the single largest
//! variance source in both engines. The default configuration removes
//! the append-side serialization:
//!
//! 1. **Reserve** — an appender claims an LSN range with a single
//!    `fetch_add` on [`Stripe::reserved`]. No lock is held; concurrent
//!    appenders get disjoint, gap-free ranges.
//! 2. **Copy** — the appender stamps its records against the claimed
//!    range outside any lock (in the real system this is the memcpy into
//!    the log buffer slice).
//! 3. **Publish** — completion is announced through a bounded MPSC ring
//!    of per-slot sequence words (Vyukov-style). A single drainer — the
//!    flush-baton holder, or any appender when the ring fills — collects
//!    completions and advances the `published` watermark strictly in LSN
//!    order, parking out-of-order completions in a `BTreeMap` until their
//!    predecessor lands.
//!
//! Flushing is a **baton**: whoever `try_lock`s it drains the ring,
//! writes `published − written` bytes, fsyncs, and wakes every parked
//! committer at or below the new durable watermark. Committers that lose
//! the baton race park on a condvar instead of queueing on a mutex — N
//! committers share one fsync (group commit).
//!
//! [`AppendMode::Mutex`] reproduces the pathology the paper measured
//! (InnoDB's log mutex and `fil_flush`, Postgres's `WALWriteLock`) on the
//! same stripe by changing exactly two things:
//!
//! * an append mutex is held from reserve through stamping to publish,
//!   so appends serialize (and stamps follow LSN order);
//! * a committer whose bytes are not durable blocks on the flush baton
//!   and re-checks once it holds it, instead of parking — the flush-lock
//!   convoy.
//!
//! Invariants (checked by debug assertions):
//!
//! * `flushed ≤ written ≤ published ≤ reserved` at all times.
//! * Reservations tile the LSN space: when the watermark advances past a
//!   completion, `completion.start == published`.
//! * A flush round only acknowledges commits whose publish happened
//!   before the round's drain (the round's `target` covers them).

use std::cell::UnsafeCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::record::StampedRecord;

/// The configuration of a [`Stripe`]: how appends claim log space and how
/// committers wait for the flush baton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AppendMode {
    /// Paper-faithful: every append serializes on the stripe's append
    /// mutex, and committers block on the flush baton (the pathology of
    /// Table 1/2; kept selectable for the reproductions).
    Mutex,
    /// Reserve-then-copy: appenders claim an LSN range with one
    /// `fetch_add`, copy outside any lock, and publish through the
    /// sequence-word ring; committers that lose the baton race park. The
    /// default.
    #[default]
    Lockfree,
}

impl std::str::FromStr for AppendMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "mutex" => Ok(AppendMode::Mutex),
            "lockfree" => Ok(AppendMode::Lockfree),
            other => Err(format!("unknown wal_append mode: {other:?}")),
        }
    }
}

/// Stripe index bits live in the top byte of an [`crate::Lsn`], so each
/// of up to `2^8` parallel logs gets an independent 56-bit offset space.
/// With one stripe the encoding is the identity: LSNs are raw offsets.
pub(crate) const STRIPE_SHIFT: u32 = 56;
const OFFSET_MASK: u64 = (1 << STRIPE_SHIFT) - 1;

/// Compose a striped LSN from a stripe index and in-stripe offset.
pub(crate) fn make_lsn(stripe: usize, offset: u64) -> crate::Lsn {
    debug_assert!(offset <= OFFSET_MASK, "stripe offset overflow");
    crate::Lsn(((stripe as u64) << STRIPE_SHIFT) | offset)
}

/// The stripe an LSN belongs to.
pub(crate) fn stripe_of(lsn: crate::Lsn) -> usize {
    (lsn.0 >> STRIPE_SHIFT) as usize
}

/// The in-stripe offset of an LSN.
pub(crate) fn offset_of(lsn: crate::Lsn) -> u64 {
    lsn.0 & OFFSET_MASK
}

/// A completed copy: the reserved range plus the typed records stamped
/// into it. `records` carry a global sequence number so crash snapshots
/// can merge stripes in true append order.
#[derive(Debug)]
struct Reservation {
    /// First byte of the claimed range (== previous reservation's end).
    pub start: u64,
    /// One past the last byte of the claimed range.
    pub end: u64,
    /// Typed records in the range, stamped with global sequence numbers.
    pub records: Vec<(u64, StampedRecord)>,
}

/// Number of publish slots per stripe. Must be a power of two. Appenders
/// that lap the drainer help drain instead of blocking on a mutex.
const RING_SLOTS: usize = 1024;

/// One publish slot (Vyukov bounded-queue protocol). `seq == pos` means
/// free for the producer holding ticket `pos`; `seq == pos + 1` means the
/// producer finished and the drainer may consume; the drainer then stores
/// `pos + RING_SLOTS` to hand the slot to the producer one lap ahead.
struct Slot {
    seq: AtomicU64,
    data: UnsafeCell<Option<Reservation>>,
}

// SAFETY: `data` is only touched by the producer that won `seq == pos`
// (before its Release store of `pos + 1`) and by the single drainer that
// observed `seq == pos + 1` with Acquire (before its Release store of
// `pos + RING_SLOTS`). The seq word hands off exclusive access.
unsafe impl Sync for Slot {}
unsafe impl Send for Slot {}

/// Out-of-order completion parking + retained records. Guarded by the
/// drain mutex: there is at most one drainer at a time.
#[derive(Debug, Default)]
struct DrainState {
    /// Next ring position to consume.
    head: u64,
    /// Completions whose predecessor has not yet published, keyed by
    /// their start offset.
    parked: BTreeMap<u64, Reservation>,
    /// Typed records retained for crash/recovery simulation, in stripe
    /// LSN order (drained strictly by the watermark).
    records: Vec<(u64, StampedRecord)>,
}

/// One parallel log: an independent LSN space, publish ring, and flush
/// baton. The mysql personality stripes records across K of these by
/// transaction id; the pg personality uses one per log set.
pub(crate) struct Stripe {
    mode: AppendMode,
    /// Held from reserve through publish under [`AppendMode::Mutex`].
    append_lock: Mutex<()>,
    /// Next unreserved offset. `fetch_add` here is the entire append-side
    /// reservation protocol.
    reserved: AtomicU64,
    /// Contiguous prefix of reserved space whose copy has completed.
    published: AtomicU64,
    /// Prefix written to the device cache (advanced under the baton).
    written: AtomicU64,
    /// Durable prefix (advanced after fsync, under the baton).
    flushed: AtomicU64,
    /// Epoch of this stripe's most recent flush round (see the K-way
    /// commit-ack rule in `mysql.rs`).
    flushed_epoch: AtomicU64,
    /// Eager committers currently waiting on durability; swapped to zero
    /// at each fsync to size the group-commit batch.
    pub acks_pending: AtomicU64,
    /// Producer ticket counter for the publish ring.
    tail: AtomicU64,
    slots: Box<[Slot]>,
    /// Single-drainer state (watermark advance + record retention).
    drain: Mutex<DrainState>,
    /// Flush baton: whoever holds it writes + fsyncs for everyone.
    baton: Mutex<()>,
    /// Number of committers inside `park_round` (lets `wake_all` skip the
    /// park lock entirely on uncontended flush rounds; a stale zero is
    /// safe because parkers time out and re-check).
    parked: AtomicU64,
    /// Parked committers, woken after every flush round.
    park: Mutex<()>,
    park_cv: Condvar,
}

impl std::fmt::Debug for Stripe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stripe")
            .field("reserved", &self.reserved.load(Ordering::Relaxed))
            .field("published", &self.published.load(Ordering::Relaxed))
            .field("written", &self.written.load(Ordering::Relaxed))
            .field("flushed", &self.flushed.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Stripe {
    pub fn new(mode: AppendMode) -> Self {
        Stripe {
            mode,
            append_lock: Mutex::new(()),
            reserved: AtomicU64::new(0),
            published: AtomicU64::new(0),
            written: AtomicU64::new(0),
            flushed: AtomicU64::new(0),
            flushed_epoch: AtomicU64::new(0),
            acks_pending: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            slots: (0..RING_SLOTS as u64)
                .map(|i| Slot {
                    seq: AtomicU64::new(i),
                    data: UnsafeCell::new(None),
                })
                .collect(),
            drain: Mutex::new(DrainState::default()),
            baton: Mutex::new(()),
            parked: AtomicU64::new(0),
            park: Mutex::new(()),
            park_cv: Condvar::new(),
        }
    }

    /// Append `bytes`: reserve the range, let `stamp` build its typed
    /// records from the range's start offset, publish. Returns the start
    /// offset. Under [`AppendMode::Mutex`] the whole sequence holds the
    /// append mutex.
    pub fn append(&self, bytes: u64, stamp: impl FnOnce(u64) -> Vec<(u64, StampedRecord)>) -> u64 {
        let _serial = (self.mode == AppendMode::Mutex).then(|| self.append_lock.lock());
        let start = self.reserve(bytes);
        let records = stamp(start);
        self.publish(Reservation {
            start,
            end: start + bytes,
            records,
        });
        start
    }

    /// Claim `bytes` of LSN space. Returns the range's start offset.
    fn reserve(&self, bytes: u64) -> u64 {
        self.reserved.fetch_add(bytes, Ordering::SeqCst)
    }

    /// Announce a completed copy. Never blocks on a lock: if the ring is
    /// full (we lapped the drainer), we help drain until our slot frees.
    fn publish(&self, res: Reservation) {
        debug_assert!(res.start <= res.end);
        // Fast path: when this completion is the next one in LSN order and
        // the drain lock is uncontended, land it directly — no ring
        // traffic. This keeps the single-threaded append within a few
        // nanoseconds of a plain mutex; under contention the try_lock
        // fails (or we are out of order) and we fall through to the ring.
        if self.published.load(Ordering::Acquire) == res.start {
            if let Some(mut st) = self.drain.try_lock() {
                // `published` only moves under the drain lock, and only by
                // consuming the contiguous next range — which is ours and
                // is not in the ring. It is therefore still == start.
                debug_assert_eq!(self.published.load(Ordering::Acquire), res.start);
                st.records.extend(res.records);
                self.published.store(res.end, Ordering::Release);
                if !st.parked.is_empty() {
                    // A parked successor may be unblocked now.
                    self.drain_locked(&mut st);
                }
                return;
            }
        }
        let pos = self.tail.fetch_add(1, Ordering::SeqCst);
        let slot = &self.slots[(pos as usize) & (RING_SLOTS - 1)];
        while slot.seq.load(Ordering::Acquire) != pos {
            // Ring full: drain on behalf of the missing drainer. Bounded
            // by the publish progress of the appenders one lap behind.
            self.try_drain();
            std::hint::spin_loop();
        }
        // SAFETY: seq == pos grants this producer exclusive slot access.
        unsafe { *slot.data.get() = Some(res) };
        slot.seq.store(pos + 1, Ordering::Release);
    }

    /// Drain if no one else is draining (non-blocking).
    pub fn try_drain(&self) {
        if let Some(mut st) = self.drain.try_lock() {
            self.drain_locked(&mut st);
        }
    }

    /// Drain the ring and advance the publish watermark (blocking lock;
    /// contention is only ever with another brief drain).
    pub fn drain(&self) {
        let mut st = self.drain.lock();
        self.drain_locked(&mut st);
    }

    fn drain_locked(&self, st: &mut DrainState) {
        loop {
            let slot = &self.slots[(st.head as usize) & (RING_SLOTS - 1)];
            if slot.seq.load(Ordering::Acquire) != st.head + 1 {
                break;
            }
            // SAFETY: seq == head + 1 grants the (single) drainer
            // exclusive slot access; the producer's Release store made
            // its write to `data` visible to our Acquire load.
            let res = unsafe { (*slot.data.get()).take() }.expect("published slot holds data");
            slot.seq
                .store(st.head + RING_SLOTS as u64, Ordering::Release);
            st.head += 1;
            st.parked.insert(res.start, res);
        }
        // Advance the watermark strictly in LSN order: a completion only
        // lands once every byte before it has landed.
        let mut published = self.published.load(Ordering::Acquire);
        while let Some(res) = st.parked.remove(&published) {
            debug_assert_eq!(res.start, published, "reservations tile the LSN space");
            published = res.end;
            st.records.extend(res.records);
        }
        self.published.store(published, Ordering::Release);
    }

    /// Run `f` over the retained typed records (drains first so every
    /// publish that completed before this call is visible).
    pub fn with_records<R>(&self, f: impl FnOnce(&[(u64, StampedRecord)]) -> R) -> R {
        let mut st = self.drain.lock();
        self.drain_locked(&mut st);
        f(&st.records)
    }

    pub fn reserved(&self) -> u64 {
        self.reserved.load(Ordering::SeqCst)
    }

    pub fn published(&self) -> u64 {
        self.published.load(Ordering::SeqCst)
    }

    pub fn written(&self) -> u64 {
        self.written.load(Ordering::SeqCst)
    }

    pub fn flushed(&self) -> u64 {
        self.flushed.load(Ordering::SeqCst)
    }

    pub fn flushed_epoch(&self) -> u64 {
        self.flushed_epoch.load(Ordering::SeqCst)
    }

    /// Advance the written cursor (baton holder only).
    pub fn set_written(&self, to: u64) {
        debug_assert!(to >= self.written.load(Ordering::SeqCst));
        self.written.store(to, Ordering::SeqCst);
    }

    /// Advance the durable cursor (baton holder only, after fsync).
    pub fn set_flushed(&self, to: u64) {
        debug_assert!(to >= self.flushed.load(Ordering::SeqCst));
        debug_assert!(to <= self.written.load(Ordering::SeqCst));
        self.flushed.store(to, Ordering::SeqCst);
    }

    /// Raise this stripe's flush epoch (monotone).
    pub fn raise_flushed_epoch(&self, to: u64) {
        self.flushed_epoch.fetch_max(to, Ordering::SeqCst);
    }

    /// Try to take the flush baton.
    pub fn try_baton(&self) -> Option<MutexGuard<'_, ()>> {
        self.baton.try_lock()
    }

    /// Take the flush baton (background flusher / flush_now / shutdown).
    pub fn baton(&self) -> MutexGuard<'_, ()> {
        self.baton.lock()
    }

    /// The committer's durability wait: returns once `durable()` holds.
    /// Whenever this caller holds the flush baton and is not yet durable
    /// it runs `flush` (one flush round). Otherwise it waits for the
    /// holder — parked under [`AppendMode::Lockfree`], blocked on the
    /// baton under [`AppendMode::Mutex`]. Returns whether this caller ran
    /// a round. A round may fall short of `durable()` (an unpublished
    /// lower reservation holds the watermark back), so this loops.
    pub fn await_durable(&self, durable: impl Fn() -> bool, mut flush: impl FnMut()) -> bool {
        let mut flushed_self = false;
        while !durable() {
            if self.mode == AppendMode::Mutex {
                let _baton = self.baton();
                if !durable() {
                    flush();
                    flushed_self = true;
                }
            } else if let Some(_baton) = self.try_baton() {
                flush();
                flushed_self = true;
            } else {
                self.park_round(&durable);
            }
        }
        flushed_self
    }

    /// Park for one flush round: wait until woken (or a short timeout)
    /// unless `done()` already holds. Returns so the caller can re-check
    /// its durability target and retry the baton — the timeout makes
    /// lost wake-ups impossible by construction. The deterministic
    /// single-threaded harness never reaches this: the baton is always
    /// free there.
    pub fn park_round(&self, done: impl Fn() -> bool) {
        self.parked.fetch_add(1, Ordering::SeqCst);
        let mut g = self.park.lock();
        if !done() {
            self.park_cv.wait_for(&mut g, Duration::from_millis(1));
        }
        drop(g);
        self.parked.fetch_sub(1, Ordering::SeqCst);
    }

    /// Wake every parked committer (after a flush round). Uncontended
    /// rounds (nobody parked) skip the lock; a committer racing into
    /// `park_round` right now is covered by its bounded wait + re-check.
    pub fn wake_all(&self) {
        if self.parked.load(Ordering::SeqCst) == 0 {
            return;
        }
        let _g = self.park.lock();
        self.park_cv.notify_all();
    }

    /// Cursor snapshot `(reserved, published, written, flushed)` for
    /// invariant checks in tests.
    pub fn cursors(&self) -> (u64, u64, u64, u64) {
        (
            self.reserved(),
            self.published(),
            self.written(),
            self.flushed(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::LogRecord;
    use crate::Lsn;

    #[test]
    fn lsn_striping_roundtrips_and_is_identity_for_stripe_zero() {
        let l = make_lsn(0, 1234);
        assert_eq!(l, Lsn(1234), "stripe 0 LSNs are raw offsets");
        assert_eq!(stripe_of(l), 0);
        assert_eq!(offset_of(l), 1234);
        let l2 = make_lsn(3, 77);
        assert_eq!(stripe_of(l2), 3);
        assert_eq!(offset_of(l2), 77);
        assert!(l2 > make_lsn(2, u64::MAX >> 9), "stripe dominates ordering");
    }

    #[test]
    fn reservations_are_disjoint_and_watermark_advances_in_order() {
        let s = Stripe::new(AppendMode::Lockfree);
        let a = s.reserve(10);
        let b = s.reserve(20);
        assert_eq!((a, b), (0, 10));
        // Publish out of order: b first, then a. The watermark must wait
        // for a before covering b.
        s.publish(Reservation {
            start: b,
            end: b + 20,
            records: vec![],
        });
        s.drain();
        assert_eq!(s.published(), 0, "gap at [0,10) blocks the watermark");
        s.publish(Reservation {
            start: a,
            end: a + 10,
            records: vec![],
        });
        s.drain();
        assert_eq!(s.published(), 30, "contiguous prefix lands at once");
    }

    #[test]
    fn records_are_retained_in_lsn_order_despite_publish_order() {
        let s = Stripe::new(AppendMode::Lockfree);
        let a = s.reserve(16);
        let b = s.reserve(16);
        let rec = |seq: u64, end: u64, txn: u64| {
            (
                seq,
                StampedRecord {
                    end: Lsn(end),
                    record: LogRecord::Commit { txn },
                },
            )
        };
        s.publish(Reservation {
            start: b,
            end: b + 16,
            records: vec![rec(1, 32, 2)],
        });
        s.publish(Reservation {
            start: a,
            end: a + 16,
            records: vec![rec(0, 16, 1)],
        });
        s.with_records(|rs| {
            let txns: Vec<u64> = rs.iter().filter_map(|(_, r)| r.record.txn()).collect();
            assert_eq!(txns, vec![1, 2], "retained in LSN order");
        });
    }

    #[test]
    fn ring_wraps_without_losing_publishes() {
        let s = Stripe::new(AppendMode::Lockfree);
        let total = RING_SLOTS * 3 + 17;
        for _ in 0..total {
            let start = s.reserve(8);
            s.publish(Reservation {
                start,
                end: start + 8,
                records: vec![],
            });
        }
        s.drain();
        assert_eq!(s.published(), total as u64 * 8);
    }

    #[test]
    fn concurrent_publishes_tile_the_space() {
        let s = std::sync::Arc::new(Stripe::new(AppendMode::Lockfree));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let s = s.clone();
                scope.spawn(move || {
                    for _ in 0..500 {
                        let start = s.reserve(8);
                        s.publish(Reservation {
                            start,
                            end: start + 8,
                            records: vec![],
                        });
                    }
                });
            }
        });
        s.drain();
        assert_eq!(s.published(), 8 * 500 * 8);
        assert_eq!(s.reserved(), s.published());
    }
}
