//! The wire protocol: length-prefixed binary frames with a versioned
//! header.
//!
//! Layout of one frame on the wire:
//!
//! ```text
//! u32 LE  payload length (header + body; 2 ..= MAX_FRAME_LEN)
//! u8      protocol version (= VERSION)
//! u8      frame kind
//! ...     kind-specific body, little-endian fixed-width integers
//! ```
//!
//! Variable-length fields carry their own length prefix (`u32` for rows
//! and strings) and are bounded (`MAX_ROW_COLS`, `MAX_STR_BYTES`) so a
//! malicious length can never drive an allocation beyond the frame cap.
//! Decoding is total: every malformed input maps to a typed [`WireError`],
//! never a panic — the proptest suite and the malformed-frame corpus in
//! `tests/` hold the codec to that.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};

/// Protocol version carried in every frame header.
pub const VERSION: u8 = 1;

/// Maximum payload length (header + body) the codec accepts.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Maximum columns in a row field.
pub const MAX_ROW_COLS: usize = 4096;

/// Maximum bytes in a string field.
pub const MAX_STR_BYTES: usize = 4096;

/// Typed decode failures. `BadLength` poisons the byte stream (the reader
/// no longer knows where the next frame starts); every other error is
/// confined to one fully-delimited payload, so a server can reply with a
/// typed error and keep the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the field being read.
    Truncated,
    /// Declared payload length exceeds [`MAX_FRAME_LEN`] (or is < 2).
    BadLength {
        /// The declared length.
        len: u64,
    },
    /// Header version byte is not [`VERSION`].
    BadVersion {
        /// The version byte received.
        got: u8,
    },
    /// Unknown frame kind byte.
    UnknownKind {
        /// The kind byte received.
        got: u8,
    },
    /// A row/string length field exceeds its bound.
    FieldTooLarge {
        /// The declared element count.
        len: u64,
    },
    /// Bytes left over after the body was fully decoded.
    TrailingBytes {
        /// How many bytes remained.
        extra: usize,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => f.write_str("frame truncated"),
            WireError::BadLength { len } => write!(f, "bad frame length {len}"),
            WireError::BadVersion { got } => write!(f, "unsupported protocol version {got}"),
            WireError::UnknownKind { got } => write!(f, "unknown frame kind 0x{got:02x}"),
            WireError::FieldTooLarge { len } => write!(f, "field length {len} over bound"),
            WireError::TrailingBytes { extra } => write!(f, "{extra} trailing bytes"),
            WireError::BadUtf8 => f.write_str("string field is not UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

impl WireError {
    /// Whether the byte stream can still be framed after this error.
    /// Only the length prefix layer can desynchronise the stream; body
    /// errors (including `Truncated`, which here means the delimited
    /// payload was shorter than its fields) consume exactly one frame.
    pub fn recoverable(&self) -> bool {
        !matches!(self, WireError::BadLength { .. })
    }
}

/// Typed error codes carried by [`Frame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Admission control shed the request; retry after a backoff.
    RetryLater = 0,
    /// Deadlock victim; the transaction was rolled back.
    Deadlock = 1,
    /// Lock wait timeout; the transaction was rolled back.
    LockTimeout = 2,
    /// Row not found; the transaction is still live.
    RowNotFound = 3,
    /// Frame illegal in the current session state (e.g. READ with no
    /// open transaction, BEGIN inside a transaction).
    TxnState = 4,
    /// The frame failed to decode.
    Malformed = 5,
    /// The server is shutting down.
    Shutdown = 6,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<ErrorCode> {
        Some(match v {
            0 => ErrorCode::RetryLater,
            1 => ErrorCode::Deadlock,
            2 => ErrorCode::LockTimeout,
            3 => ErrorCode::RowNotFound,
            4 => ErrorCode::TxnState,
            5 => ErrorCode::Malformed,
            6 => ErrorCode::Shutdown,
            _ => return None,
        })
    }
}

/// Summary of one histogram family in a [`Frame::MetricsSnapshot`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistSummary {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// 50th / 95th / 99th / 99.9th percentile bucket floors.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

/// One protocol frame — requests (client → server) and replies
/// (server → client) share the enum; kinds are disjoint byte ranges
/// (requests 0x01.., replies 0x81..).
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    // ---- requests ----
    /// Open a transaction of the given workload type.
    Begin {
        /// Workload-defined transaction type.
        ty: u8,
    },
    /// Read a row under a shared lock.
    Read {
        /// Table id.
        table: u32,
        /// Row key.
        key: u64,
    },
    /// Overwrite a row under an exclusive lock.
    Update {
        /// Table id.
        table: u32,
        /// Row key.
        key: u64,
        /// Full replacement row.
        row: Vec<i64>,
    },
    /// Insert a row; the server assigns and returns the key.
    Insert {
        /// Table id.
        table: u32,
        /// Row to insert.
        row: Vec<i64>,
    },
    /// Commit the open transaction.
    Commit,
    /// Roll back the open transaction.
    Abort,
    /// Request a metrics snapshot.
    Metrics,

    // ---- replies ----
    /// BEGIN succeeded.
    TxnBegun {
        /// Engine transaction id.
        txn_id: u64,
    },
    /// READ result.
    Row {
        /// The row read.
        row: Vec<i64>,
    },
    /// UPDATE applied.
    Updated,
    /// INSERT result.
    Inserted {
        /// The assigned key.
        key: u64,
    },
    /// COMMIT durable.
    Committed,
    /// ABORT (or rollback) completed.
    Aborted,
    /// METRICS result: every counter plus a per-histogram summary.
    MetricsSnapshot {
        /// Counter families by name.
        counters: BTreeMap<String, u64>,
        /// Histogram families by name.
        histograms: BTreeMap<String, HistSummary>,
    },
    /// Typed failure reply.
    Error {
        /// Machine-readable cause.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
}

const K_BEGIN: u8 = 0x01;
const K_READ: u8 = 0x02;
const K_UPDATE: u8 = 0x03;
const K_INSERT: u8 = 0x04;
const K_COMMIT: u8 = 0x05;
const K_ABORT: u8 = 0x06;
const K_METRICS: u8 = 0x07;
const K_TXN_BEGUN: u8 = 0x81;
const K_ROW: u8 = 0x82;
const K_UPDATED: u8 = 0x83;
const K_INSERTED: u8 = 0x84;
const K_COMMITTED: u8 = 0x85;
const K_ABORTED: u8 = 0x86;
const K_METRICS_SNAPSHOT: u8 = 0x87;
const K_ERROR: u8 = 0x88;

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn row(&mut self) -> Result<Vec<i64>, WireError> {
        let n = self.u32()? as usize;
        if n > MAX_ROW_COLS {
            return Err(WireError::FieldTooLarge { len: n as u64 });
        }
        // The length claim is validated against the remaining bytes by the
        // per-element reads, so a lying prefix cannot over-allocate.
        let mut row = Vec::with_capacity(n.min(self.buf.len() - self.pos));
        for _ in 0..n {
            row.push(self.i64()?);
        }
        Ok(row)
    }

    fn string(&mut self) -> Result<String, WireError> {
        let n = self.u32()? as usize;
        if n > MAX_STR_BYTES {
            return Err(WireError::FieldTooLarge { len: n as u64 });
        }
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    fn finish(self) -> Result<(), WireError> {
        let extra = self.buf.len() - self.pos;
        if extra == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes { extra })
        }
    }
}

fn put_row(out: &mut Vec<u8>, row: &[i64]) {
    out.extend_from_slice(&(row.len() as u32).to_le_bytes());
    for v in row {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

impl Frame {
    /// The kind byte this frame encodes with.
    pub fn kind(&self) -> u8 {
        match self {
            Frame::Begin { .. } => K_BEGIN,
            Frame::Read { .. } => K_READ,
            Frame::Update { .. } => K_UPDATE,
            Frame::Insert { .. } => K_INSERT,
            Frame::Commit => K_COMMIT,
            Frame::Abort => K_ABORT,
            Frame::Metrics => K_METRICS,
            Frame::TxnBegun { .. } => K_TXN_BEGUN,
            Frame::Row { .. } => K_ROW,
            Frame::Updated => K_UPDATED,
            Frame::Inserted { .. } => K_INSERTED,
            Frame::Committed => K_COMMITTED,
            Frame::Aborted => K_ABORTED,
            Frame::MetricsSnapshot { .. } => K_METRICS_SNAPSHOT,
            Frame::Error { .. } => K_ERROR,
        }
    }

    /// Encode as one length-prefixed wire frame, appended to `out`.
    ///
    /// Oversized variable fields must be rejected by the caller; encoding
    /// truncates nothing and asserts the bounds in debug builds.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let len_at = out.len();
        out.extend_from_slice(&[0; 4]); // patched below
        out.push(VERSION);
        out.push(self.kind());
        match self {
            Frame::Begin { ty } => out.push(*ty),
            Frame::Read { table, key } => {
                out.extend_from_slice(&table.to_le_bytes());
                out.extend_from_slice(&key.to_le_bytes());
            }
            Frame::Update { table, key, row } => {
                debug_assert!(row.len() <= MAX_ROW_COLS);
                out.extend_from_slice(&table.to_le_bytes());
                out.extend_from_slice(&key.to_le_bytes());
                put_row(out, row);
            }
            Frame::Insert { table, row } => {
                debug_assert!(row.len() <= MAX_ROW_COLS);
                out.extend_from_slice(&table.to_le_bytes());
                put_row(out, row);
            }
            Frame::Commit | Frame::Abort | Frame::Metrics => {}
            Frame::TxnBegun { txn_id } => out.extend_from_slice(&txn_id.to_le_bytes()),
            Frame::Row { row } => put_row(out, row),
            Frame::Updated | Frame::Committed | Frame::Aborted => {}
            Frame::Inserted { key } => out.extend_from_slice(&key.to_le_bytes()),
            Frame::MetricsSnapshot {
                counters,
                histograms,
            } => {
                out.extend_from_slice(&(counters.len() as u32).to_le_bytes());
                for (name, v) in counters {
                    put_string(out, name);
                    out.extend_from_slice(&v.to_le_bytes());
                }
                out.extend_from_slice(&(histograms.len() as u32).to_le_bytes());
                for (name, h) in histograms {
                    put_string(out, name);
                    for v in [h.count, h.sum, h.p50, h.p95, h.p99, h.p999] {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }
            Frame::Error { code, detail } => {
                out.push(*code as u8);
                put_string(out, detail);
            }
        }
        let payload = (out.len() - len_at - 4) as u32;
        out[len_at..len_at + 4].copy_from_slice(&payload.to_le_bytes());
    }

    /// Decode one frame payload (the bytes after the length prefix).
    /// Total: every input maps to `Ok` or a typed [`WireError`].
    pub fn decode(payload: &[u8]) -> Result<Frame, WireError> {
        let mut c = Cursor {
            buf: payload,
            pos: 0,
        };
        let version = c.u8()?;
        if version != VERSION {
            return Err(WireError::BadVersion { got: version });
        }
        let kind = c.u8()?;
        let frame = match kind {
            K_BEGIN => Frame::Begin { ty: c.u8()? },
            K_READ => Frame::Read {
                table: c.u32()?,
                key: c.u64()?,
            },
            K_UPDATE => Frame::Update {
                table: c.u32()?,
                key: c.u64()?,
                row: c.row()?,
            },
            K_INSERT => Frame::Insert {
                table: c.u32()?,
                row: c.row()?,
            },
            K_COMMIT => Frame::Commit,
            K_ABORT => Frame::Abort,
            K_METRICS => Frame::Metrics,
            K_TXN_BEGUN => Frame::TxnBegun { txn_id: c.u64()? },
            K_ROW => Frame::Row { row: c.row()? },
            K_UPDATED => Frame::Updated,
            K_INSERTED => Frame::Inserted { key: c.u64()? },
            K_COMMITTED => Frame::Committed,
            K_ABORTED => Frame::Aborted,
            K_METRICS_SNAPSHOT => {
                let nc = c.u32()? as usize;
                let mut counters = BTreeMap::new();
                for _ in 0..nc {
                    let name = c.string()?;
                    counters.insert(name, c.u64()?);
                }
                let nh = c.u32()? as usize;
                let mut histograms = BTreeMap::new();
                for _ in 0..nh {
                    let name = c.string()?;
                    histograms.insert(
                        name,
                        HistSummary {
                            count: c.u64()?,
                            sum: c.u64()?,
                            p50: c.u64()?,
                            p95: c.u64()?,
                            p99: c.u64()?,
                            p999: c.u64()?,
                        },
                    );
                }
                Frame::MetricsSnapshot {
                    counters,
                    histograms,
                }
            }
            K_ERROR => {
                let code_byte = c.u8()?;
                let code = ErrorCode::from_u8(code_byte)
                    .ok_or(WireError::UnknownKind { got: code_byte })?;
                Frame::Error {
                    code,
                    detail: c.string()?,
                }
            }
            other => return Err(WireError::UnknownKind { got: other }),
        };
        c.finish()?;
        Ok(frame)
    }
}

/// A frame-read failure: transport-level I/O or a codec error.
#[derive(Debug)]
pub enum FrameReadError {
    /// The underlying stream failed (includes timeouts).
    Io(io::Error),
    /// The bytes did not decode.
    Wire(WireError),
    /// The stream ended mid-frame.
    Eof,
}

impl std::fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameReadError::Io(e) => write!(f, "io: {e}"),
            FrameReadError::Wire(e) => write!(f, "wire: {e}"),
            FrameReadError::Eof => f.write_str("connection closed mid-frame"),
        }
    }
}

impl std::error::Error for FrameReadError {}

/// The framing rule every reader applies to a length prefix: a payload
/// of `2 ..= MAX_FRAME_LEN` bytes, or [`WireError::BadLength`].
fn payload_len(prefix: [u8; 4]) -> Result<usize, WireError> {
    let len = u32::from_le_bytes(prefix) as usize;
    if (2..=MAX_FRAME_LEN).contains(&len) {
        Ok(len)
    } else {
        Err(WireError::BadLength { len: len as u64 })
    }
}

/// What the front of a receive buffer holds (see [`split_frame`]).
#[derive(Debug)]
pub enum Split {
    /// Not yet one whole frame; read more.
    Incomplete,
    /// One delimited frame: consume this many bytes (length prefix
    /// included) whatever the decode result; the stream stays framable.
    Frame(usize, Result<Frame, WireError>),
    /// The length prefix is out of range: the stream can no longer be
    /// framed, so nothing after this point can be read.
    Poison(WireError),
}

/// Split the next frame off the front of `buf` — the nonblocking
/// counterpart of [`read_frame`] for readers that accumulate bytes.
pub fn split_frame(buf: &[u8]) -> Split {
    let Some(prefix) = buf.first_chunk::<4>() else {
        return Split::Incomplete;
    };
    match payload_len(*prefix) {
        Err(e) => Split::Poison(e),
        Ok(len) if buf.len() < 4 + len => Split::Incomplete,
        Ok(len) => Split::Frame(4 + len, Frame::decode(&buf[4..4 + len])),
    }
}

/// Read one frame. `Ok(None)` is a clean close (EOF exactly on a frame
/// boundary); an EOF inside a frame is [`FrameReadError::Eof`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Frame>, FrameReadError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(FrameReadError::Eof),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameReadError::Io(e)),
        }
    }
    let len = payload_len(len_buf).map_err(FrameReadError::Wire)?;
    let mut payload = vec![0u8; len];
    if let Err(e) = r.read_exact(&mut payload) {
        return Err(if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameReadError::Eof
        } else {
            FrameReadError::Io(e)
        });
    }
    Frame::decode(&payload)
        .map(Some)
        .map_err(FrameReadError::Wire)
}

/// Encode and write one frame.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    let mut buf = Vec::with_capacity(64);
    frame.encode(&mut buf);
    w.write_all(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: Frame) {
        let mut buf = Vec::new();
        f.encode(&mut buf);
        let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
        assert_eq!(len, buf.len() - 4, "length prefix covers the payload");
        assert_eq!(Frame::decode(&buf[4..]), Ok(f));
    }

    #[test]
    fn roundtrip_every_kind() {
        let mut counters = BTreeMap::new();
        counters.insert("txn.commits".to_string(), 42u64);
        let mut histograms = BTreeMap::new();
        histograms.insert(
            "server.admission_wait_ns".to_string(),
            HistSummary {
                count: 3,
                sum: 900,
                p50: 256,
                p95: 512,
                p99: 512,
                p999: 512,
            },
        );
        for f in [
            Frame::Begin { ty: 4 },
            Frame::Read { table: 2, key: 77 },
            Frame::Update {
                table: 1,
                key: 9,
                row: vec![-1, 0, i64::MAX],
            },
            Frame::Insert {
                table: 3,
                row: vec![],
            },
            Frame::Commit,
            Frame::Abort,
            Frame::Metrics,
            Frame::TxnBegun { txn_id: 12345 },
            Frame::Row {
                row: vec![i64::MIN, 7],
            },
            Frame::Updated,
            Frame::Inserted { key: 400 },
            Frame::Committed,
            Frame::Aborted,
            Frame::MetricsSnapshot {
                counters,
                histograms,
            },
            Frame::Error {
                code: ErrorCode::RetryLater,
                detail: "admission queue full".to_string(),
            },
        ] {
            roundtrip(f);
        }
    }

    #[test]
    fn decode_rejects_bad_version() {
        assert_eq!(
            Frame::decode(&[9, K_COMMIT]),
            Err(WireError::BadVersion { got: 9 })
        );
    }

    #[test]
    fn decode_rejects_unknown_kind() {
        assert_eq!(
            Frame::decode(&[VERSION, 0x7F]),
            Err(WireError::UnknownKind { got: 0x7F })
        );
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        assert_eq!(
            Frame::decode(&[VERSION, K_COMMIT, 0xAB]),
            Err(WireError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn decode_rejects_lying_row_length() {
        // Row claims 1000 columns but carries none.
        let mut buf = vec![VERSION, K_INSERT];
        buf.extend_from_slice(&1u32.to_le_bytes()); // table
        buf.extend_from_slice(&1000u32.to_le_bytes()); // column count
        assert_eq!(Frame::decode(&buf), Err(WireError::Truncated));
    }

    #[test]
    fn decode_rejects_oversized_row_claim() {
        let mut buf = vec![VERSION, K_INSERT];
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert_eq!(
            Frame::decode(&buf),
            Err(WireError::FieldTooLarge {
                len: u32::MAX as u64
            })
        );
    }

    #[test]
    fn read_frame_clean_eof_is_none() {
        let empty: &[u8] = &[];
        assert!(matches!(read_frame(&mut { empty }), Ok(None)));
    }

    #[test]
    fn read_frame_rejects_oversized_length_prefix() {
        let bytes = (MAX_FRAME_LEN as u32 + 1).to_le_bytes();
        let mut r: &[u8] = &bytes;
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameReadError::Wire(WireError::BadLength { .. }))
        ));
    }

    #[test]
    fn read_frame_mid_frame_eof_is_eof() {
        let mut buf = Vec::new();
        Frame::Commit.encode(&mut buf);
        let mut r: &[u8] = &buf[..buf.len() - 1];
        assert!(matches!(read_frame(&mut r), Err(FrameReadError::Eof)));
    }
}
