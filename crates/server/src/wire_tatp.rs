//! TATP replayed over the wire: the standard seven-transaction mix
//! expressed as protocol frames, so the closed-loop load generator and
//! the end-to-end tests drive the server the way OLTP-Bench drives a
//! real DBMS — one statement per round trip, locks held across round
//! trips (the regime where admission wait and lock scheduling dominate
//! latency variance).
//!
//! Each transaction is one statement script ([`WireTatp::statement`]);
//! the blocking [`WireTatp::execute`] and the multiplexed
//! [`crate::muxclient`] both walk it. Read-modify-write transactions
//! (UpdateSubscriberData's bit flip) READ first and UPDATE with the
//! derived row, which exercises the lock manager's S→X upgrade path
//! over the network.

use rand::rngs::SmallRng;
use rand::Rng;

use crate::client::{BeginOutcome, ClientError, Conn};
use crate::protocol::Frame;

/// Access-info rows per subscriber (mirrors `tpd_workloads::tatp`).
pub const AI_PER_SUB: u64 = 4;
/// Special-facility rows per subscriber.
pub const SF_PER_SUB: u64 = 4;

/// TATP transaction types, by wire driver convention (identical to the
/// in-process driver's numbering).
pub mod txn_type {
    /// Read one subscriber row.
    pub const GET_SUBSCRIBER: u8 = 0;
    /// Read special-facility + call-forwarding.
    pub const GET_NEW_DEST: u8 = 1;
    /// Read one access-info row.
    pub const GET_ACCESS: u8 = 2;
    /// RMW subscriber bit + overwrite special-facility data.
    pub const UPD_SUBSCRIBER: u8 = 3;
    /// Overwrite the subscriber's VLR location.
    pub const UPD_LOCATION: u8 = 4;
    /// Two reads + an insert into call-forwarding.
    pub const INS_CALL_FWD: u8 = 5;
    /// Logical delete: clear a call-forwarding active flag.
    pub const DEL_CALL_FWD: u8 = 6;
}

/// One sampled wire transaction, parameters drawn up front so retries
/// re-run identical logical work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireSpec {
    /// Transaction type (see [`txn_type`]).
    pub ty: u8,
    /// Subscriber id.
    pub s: u64,
    /// Special-facility index within the subscriber (0..4).
    pub sf: u64,
    /// Payload value.
    pub val: i64,
}

/// Terminal outcome of one driven transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Committed.
    Committed,
    /// Shed by admission control at BEGIN (`RETRY_LATER`).
    Shed,
    /// Aborted by the engine (deadlock victim or lock timeout); already
    /// rolled back server-side.
    Aborted,
}

/// The TATP schema as the wire client addresses it: table ids in install
/// order plus the subscriber count (both must match the serving engine).
#[derive(Debug, Clone, Copy)]
pub struct WireTatp {
    /// `subscriber` table id.
    pub subscriber: u32,
    /// `access_info` table id.
    pub access_info: u32,
    /// `special_facility` table id.
    pub special_facility: u32,
    /// `call_forwarding` table id.
    pub call_forwarding: u32,
    /// Installed subscriber count.
    pub subscribers: u64,
}

impl WireTatp {
    /// The conventional layout: TATP installed first on a fresh engine,
    /// so tables get ids 0..=3 in install order.
    pub fn fresh_install(subscribers: u64) -> WireTatp {
        WireTatp {
            subscriber: 0,
            access_info: 1,
            special_facility: 2,
            call_forwarding: 3,
            subscribers,
        }
    }

    /// Draw the next transaction with the standard TATP mix over a
    /// uniform subscriber space.
    pub fn sample(&self, rng: &mut SmallRng) -> WireSpec {
        use txn_type::*;
        let roll = rng.gen_range(0..100);
        let ty = match roll {
            0..=34 => GET_SUBSCRIBER,
            35..=44 => GET_NEW_DEST,
            45..=79 => GET_ACCESS,
            80..=81 => UPD_SUBSCRIBER,
            82..=95 => UPD_LOCATION,
            96..=97 => INS_CALL_FWD,
            _ => DEL_CALL_FWD,
        };
        WireSpec {
            ty,
            s: rng.gen_range(0..self.subscribers),
            sf: rng.gen_range(0..SF_PER_SUB),
            val: rng.gen_range(0..1000),
        }
    }

    /// The `i`th statement of `spec`'s script, or `None` past the last
    /// (COMMIT comes next). `saved` holds the row of the previous `Row`
    /// reply; a read-modify-write step takes it and sends the derived
    /// row. Both wire drivers walk this one script: [`WireTatp::execute`]
    /// and the multiplexed [`crate::muxclient`].
    pub fn statement(
        &self,
        spec: &WireSpec,
        i: usize,
        saved: &mut Option<Vec<i64>>,
    ) -> Option<Frame> {
        use txn_type::*;
        let (s, sf, val) = (spec.s, spec.sf, spec.val);
        let sfk = s * SF_PER_SUB + sf;
        let read = |table, key| Frame::Read { table, key };
        // Write the saved row back with column `col` rewritten by `set`.
        let mut rmw = |table, key, col: usize, set: &dyn Fn(i64) -> i64| {
            let mut row = saved.take().unwrap_or_default();
            if let Some(cell) = row.get_mut(col) {
                *cell = set(*cell);
            }
            Frame::Update { table, key, row }
        };
        Some(match (spec.ty, i) {
            (GET_SUBSCRIBER, 0) => read(self.subscriber, s),
            (GET_NEW_DEST, 0) => read(self.special_facility, sfk),
            (GET_NEW_DEST, 1) => read(self.call_forwarding, sfk),
            (GET_ACCESS, 0) => read(self.access_info, s * AI_PER_SUB + (sf % AI_PER_SUB)),
            (UPD_SUBSCRIBER, 0) => read(self.subscriber, s),
            (UPD_SUBSCRIBER, 1) => rmw(self.subscriber, s, 1, &|bit| bit ^ 1),
            (UPD_SUBSCRIBER, 2) => read(self.special_facility, sfk),
            (UPD_SUBSCRIBER, 3) => rmw(self.special_facility, sfk, 2, &|_| val),
            (UPD_LOCATION, 0) => read(self.subscriber, s),
            (UPD_LOCATION, 1) => rmw(self.subscriber, s, 3, &|_| val),
            (INS_CALL_FWD, 0) => read(self.subscriber, s),
            (INS_CALL_FWD, 1) => read(self.special_facility, sfk),
            (INS_CALL_FWD, 2) => Frame::Insert {
                table: self.call_forwarding,
                row: vec![s as i64, sf as i64, 1],
            },
            (DEL_CALL_FWD, 0) => read(self.call_forwarding, sfk),
            (DEL_CALL_FWD, 1) => rmw(self.call_forwarding, sfk, 2, &|_| 0),
            _ => return None,
        })
    }

    /// Drive one transaction to a terminal outcome over `conn`, one
    /// [`WireTatp::statement`] per round trip, then COMMIT.
    ///
    /// Engine aborts (deadlock/timeout) and admission sheds are expected
    /// outcomes, not errors; everything else (I/O, protocol violations,
    /// unexpected frames) is an `Err`.
    pub fn execute(&self, conn: &mut Conn, spec: &WireSpec) -> Result<Outcome, ClientError> {
        match conn.begin(spec.ty)? {
            BeginOutcome::Shed => return Ok(Outcome::Shed),
            BeginOutcome::Started { .. } => {}
        }
        let mut saved = None;
        for i in 0.. {
            let stmt = self.statement(spec, i, &mut saved);
            let committing = stmt.is_none();
            match conn.call(&stmt.unwrap_or(Frame::Commit))? {
                Frame::Committed if committing => return Ok(Outcome::Committed),
                Frame::Row { row } if !committing => saved = Some(row),
                Frame::Updated | Frame::Inserted { .. } if !committing => {}
                Frame::Error { code, detail } => {
                    let e = ClientError::Server { code, detail };
                    return if e.is_txn_abort() {
                        Ok(Outcome::Aborted)
                    } else {
                        Err(e)
                    };
                }
                other => return Err(ClientError::Unexpected { kind: other.kind() }),
            }
        }
        unreachable!("every script ends in COMMIT")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn mix_proportions_match_tatp() {
        let w = WireTatp::fresh_install(100);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut counts = [0usize; 7];
        for _ in 0..10_000 {
            counts[w.sample(&mut rng).ty as usize] += 1;
        }
        let frac = |i: usize| counts[i] as f64 / 10_000.0;
        assert!((frac(0) - 0.35).abs() < 0.03);
        assert!((frac(2) - 0.35).abs() < 0.03);
        assert!((frac(4) - 0.14).abs() < 0.02);
    }

    #[test]
    fn script_lengths_match_the_tatp_transactions() {
        use txn_type::*;
        let w = WireTatp::fresh_install(100);
        let expected = [
            (GET_SUBSCRIBER, 1),
            (GET_NEW_DEST, 2),
            (GET_ACCESS, 1),
            (UPD_SUBSCRIBER, 4),
            (UPD_LOCATION, 2),
            (INS_CALL_FWD, 3),
            (DEL_CALL_FWD, 2),
        ];
        for (ty, want) in expected {
            let spec = WireSpec {
                ty,
                s: 7,
                sf: 2,
                val: 55,
            };
            let mut saved = Some(vec![0i64; 8]);
            let mut n = 0;
            while w.statement(&spec, n, &mut saved).is_some() {
                saved = Some(vec![0i64; 8]); // refresh the RMW row
                n += 1;
            }
            assert_eq!(n, want, "txn type {ty} statement count");
        }
    }

    #[test]
    fn rmw_steps_transform_the_saved_row() {
        use txn_type::*;
        let w = WireTatp::fresh_install(100);
        let spec = WireSpec {
            ty: UPD_SUBSCRIBER,
            s: 3,
            sf: 1,
            val: 99,
        };
        let mut saved = Some(vec![10, 20, 30, 40]);
        let frame = w.statement(&spec, 1, &mut saved).expect("update step");
        match frame {
            Frame::Update { table, key, row } => {
                assert_eq!(table, w.subscriber);
                assert_eq!(key, 3);
                assert_eq!(row, vec![10, 21, 30, 40], "bit flip on col 1");
            }
            other => panic!("expected update, got {other:?}"),
        }
        assert!(saved.is_none(), "row consumed");
    }

    #[test]
    fn sample_stays_in_subscriber_space() {
        let w = WireTatp::fresh_install(10);
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..1000 {
            let spec = w.sample(&mut rng);
            assert!(spec.s < 10);
            assert!(spec.sf < SF_PER_SUB);
        }
    }
}
