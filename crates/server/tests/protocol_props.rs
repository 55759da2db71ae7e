//! Codec property tests: encode→decode is the identity for every frame
//! kind, the decoder is total (typed errors, never a panic) over
//! mutated and random byte soup, and the accumulating splitter frames a
//! stream exactly as the blocking reader does.

use proptest::prelude::*;
use std::collections::BTreeMap;

use tpd_server::protocol::{
    read_frame, split_frame, Frame, FrameReadError, HistSummary, Split, WireError, MAX_FRAME_LEN,
};
use tpd_server::ErrorCode;

/// What a reader made of a byte stream: the delimited frames in order
/// (decoded, or why not), then the length-prefix error that ended it.
type Framed = (Vec<Result<Frame, WireError>>, Option<WireError>);

fn by_read_frame(mut stream: &[u8]) -> Framed {
    let mut out = Vec::new();
    loop {
        match read_frame(&mut stream) {
            Ok(Some(f)) => out.push(Ok(f)),
            Ok(None) | Err(FrameReadError::Eof) => return (out, None),
            Err(FrameReadError::Wire(e)) if !e.recoverable() => return (out, Some(e)),
            Err(FrameReadError::Wire(e)) => out.push(Err(e)),
            Err(FrameReadError::Io(e)) => panic!("reading a slice failed: {e}"),
        }
    }
}

/// Feed `stream` to `split_frame` in chunks ending at `cuts`.
fn by_split_frame(stream: &[u8], cuts: &[usize]) -> Framed {
    let mut ends: Vec<usize> = cuts.iter().map(|c| c % (stream.len() + 1)).collect();
    ends.push(stream.len());
    ends.sort_unstable();
    let (mut buf, mut out, mut at) = (Vec::new(), Vec::new(), 0);
    for end in ends {
        buf.extend_from_slice(&stream[at..end]);
        at = end;
        loop {
            match split_frame(&buf) {
                Split::Incomplete => break,
                Split::Frame(n, decoded) => {
                    buf.drain(..n);
                    out.push(decoded);
                }
                Split::Poison(e) => return (out, Some(e)),
            }
        }
    }
    (out, None)
}

/// Build a frame of kind index `k` (0..15) from raw entropy.
fn frame_from(k: u8, a: u64, b: u64, row: Vec<i64>, s: String, names: Vec<u64>) -> Frame {
    match k {
        0 => Frame::Begin { ty: a as u8 },
        1 => Frame::Read {
            table: a as u32,
            key: b,
        },
        2 => Frame::Update {
            table: a as u32,
            key: b,
            row,
        },
        3 => Frame::Insert {
            table: a as u32,
            row,
        },
        4 => Frame::Commit,
        5 => Frame::Abort,
        6 => Frame::Metrics,
        7 => Frame::TxnBegun { txn_id: a },
        8 => Frame::Row { row },
        9 => Frame::Updated,
        10 => Frame::Inserted { key: a },
        11 => Frame::Committed,
        12 => Frame::Aborted,
        13 => {
            let mut counters = BTreeMap::new();
            let mut histograms = BTreeMap::new();
            for (i, v) in names.iter().enumerate() {
                let name = format!("fam.{i}.{s}");
                if i % 2 == 0 {
                    counters.insert(name, *v);
                } else {
                    histograms.insert(
                        name,
                        HistSummary {
                            count: *v,
                            sum: v.wrapping_mul(3),
                            p50: a,
                            p95: b,
                            p99: a ^ b,
                            p999: v.wrapping_add(a),
                        },
                    );
                }
            }
            Frame::MetricsSnapshot {
                counters,
                histograms,
            }
        }
        _ => Frame::Error {
            code: match a % 7 {
                0 => ErrorCode::RetryLater,
                1 => ErrorCode::Deadlock,
                2 => ErrorCode::LockTimeout,
                3 => ErrorCode::RowNotFound,
                4 => ErrorCode::TxnState,
                5 => ErrorCode::Malformed,
                _ => ErrorCode::Shutdown,
            },
            detail: s,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn encode_decode_roundtrip(
        k in 0u8..15,
        ab in (any::<u64>(), any::<u64>()),
        row in collection::vec(any::<i64>(), 0..32),
        s in ".*",
        names in collection::vec(any::<u64>(), 0..6),
    ) {
        // Strings cross the wire as UTF-8 with a byte-length prefix;
        // the generator already emits ASCII, keep it that way.
        let frame = frame_from(k, ab.0, ab.1, row, s, names);
        let mut buf = Vec::new();
        frame.encode(&mut buf);
        let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
        prop_assert_eq!(len, buf.len() - 4, "length prefix covers payload");
        prop_assert!(len <= MAX_FRAME_LEN);
        let decoded = Frame::decode(&buf[4..]);
        prop_assert_eq!(decoded, Ok(frame));
    }

    #[test]
    fn decoder_is_total_on_truncations(
        k in 0u8..15,
        ab in (any::<u64>(), any::<u64>()),
        row in collection::vec(any::<i64>(), 0..8),
        cut in 0usize..64,
    ) {
        // Every proper prefix of a valid payload must decode to a typed
        // error (or, for nested variable-length fields, a shorter valid
        // frame is impossible because lengths are explicit).
        let frame = frame_from(k, ab.0, ab.1, row, "x".to_string(), vec![1, 2]);
        let mut buf = Vec::new();
        frame.encode(&mut buf);
        let payload = &buf[4..];
        if !payload.is_empty() {
            let cut = cut % payload.len();
            // Must not panic; prefix decode may legitimately succeed only
            // if it equals the whole payload (cut == len is excluded).
            let _ = Frame::decode(&payload[..cut]);
        }
    }

    #[test]
    fn decoder_is_total_on_mutations(
        k in 0u8..15,
        ab in (any::<u64>(), any::<u64>()),
        row in collection::vec(any::<i64>(), 0..8),
        flips in collection::vec((0usize..4096, any::<u8>()), 1..8),
    ) {
        let frame = frame_from(k, ab.0, ab.1, row, "y".to_string(), vec![3]);
        let mut buf = Vec::new();
        frame.encode(&mut buf);
        let mut payload = buf[4..].to_vec();
        for (pos, byte) in flips {
            let idx = pos % payload.len();
            payload[idx] ^= byte;
        }
        // Typed result either way; never a panic, never an allocation
        // blow-up (bounded fields).
        let _ = Frame::decode(&payload);
    }

    #[test]
    fn split_frame_frames_chunked_streams_like_read_frame(
        items in collection::vec((0u8..16, any::<u64>(), collection::vec(any::<i64>(), 0..8)), 0..12),
        poison in (0usize..16, 0usize..5),
        tail in 0usize..6,
        cuts in collection::vec(0usize..4096, 0..16),
    ) {
        // Valid frames of every kind, plus (kind 15) delimited payloads
        // of 2..9 arbitrary bytes that mostly fail to decode.
        let mut stream = Vec::new();
        let mut starts = Vec::new();
        for (k, a, row) in items {
            starts.push(stream.len());
            if k < 15 {
                frame_from(k, a, !a, row, "z".to_string(), vec![a]).encode(&mut stream);
            } else {
                let payload = &a.to_le_bytes()[..2 + (a % 7) as usize];
                stream.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                stream.extend_from_slice(payload);
            }
        }
        // An out-of-range length prefix between two frames (choice 4:
        // none), or else a torn frame at the end of the stream.
        let bad = [0, 1, MAX_FRAME_LEN as u32 + 1, u32::MAX];
        let poisoned = poison.1 < bad.len();
        if poisoned {
            let at = starts.get(poison.0).copied().unwrap_or(stream.len());
            stream.splice(at..at, bad[poison.1].to_le_bytes());
        } else {
            let mut torn = Vec::new();
            Frame::Commit.encode(&mut torn);
            stream.extend_from_slice(&torn[..tail]);
        }
        let expected = by_read_frame(&stream);
        prop_assert_eq!(expected.1.is_some(), poisoned);
        prop_assert_eq!(by_split_frame(&stream, &cuts), expected);
    }

    #[test]
    fn decoder_is_total_on_random_bytes(
        soup in collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = Frame::decode(&soup);
    }
}
