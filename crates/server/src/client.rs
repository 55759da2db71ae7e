//! A blocking protocol client: one TCP connection, strict
//! request/reply framing, typed outcomes. Used by the load generator,
//! the end-to-end tests, and anything else that wants to drive the
//! server without hand-rolling frames.

use std::collections::BTreeMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use tpd_engine::{Row, RowKey};

use crate::protocol::{read_frame, write_frame, ErrorCode, Frame, FrameReadError, HistSummary};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The reply failed to decode, or the stream broke mid-frame.
    Protocol(String),
    /// The server answered with a typed error frame.
    Server {
        /// The error code.
        code: ErrorCode,
        /// The server's detail string.
        detail: String,
    },
    /// The server answered with a well-formed frame of the wrong kind.
    Unexpected {
        /// The reply's kind byte.
        kind: u8,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol: {e}"),
            ClientError::Server { code, detail } => write!(f, "server {code:?}: {detail}"),
            ClientError::Unexpected { kind } => write!(f, "unexpected reply kind 0x{kind:02x}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A parsed METRICS reply.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsReply {
    /// Counter families by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistSummary>,
}

impl MetricsReply {
    /// A counter's value, defaulting to 0 when the family is absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Outcome of a BEGIN attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BeginOutcome {
    /// Admitted; the transaction is open.
    Started {
        /// Engine transaction id.
        txn_id: u64,
    },
    /// Load-shed with `RETRY_LATER`.
    Shed,
}

/// One protocol connection.
#[derive(Debug)]
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    /// Connect to a server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Set the reply-read timeout.
    pub fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(t)
    }

    /// Arm an abrupt close: after this, dropping the connection sends
    /// RST (`SO_LINGER` zero) instead of a clean FIN. For exercising
    /// the server's abrupt-disconnect paths.
    pub fn arm_rst(&self) -> io::Result<()> {
        tpd_common::poll::set_linger_rst(self.reader.get_ref())
    }

    /// Send one request and read one reply.
    pub fn call(&mut self, request: &Frame) -> Result<Frame, ClientError> {
        write_frame(&mut self.writer, request)?;
        self.writer.flush()?;
        self.recv()
    }

    fn expect(&mut self, request: &Frame) -> Result<Frame, ClientError> {
        match self.call(request)? {
            Frame::Error { code, detail } => Err(ClientError::Server { code, detail }),
            other => Ok(other),
        }
    }

    /// BEGIN; a `RETRY_LATER` error maps to [`BeginOutcome::Shed`].
    pub fn begin(&mut self, ty: u8) -> Result<BeginOutcome, ClientError> {
        match self.call(&Frame::Begin { ty })? {
            Frame::TxnBegun { txn_id } => Ok(BeginOutcome::Started { txn_id }),
            Frame::Error {
                code: ErrorCode::RetryLater,
                ..
            } => Ok(BeginOutcome::Shed),
            Frame::Error { code, detail } => Err(ClientError::Server { code, detail }),
            other => Err(ClientError::Unexpected { kind: other.kind() }),
        }
    }

    /// READ a row.
    pub fn read(&mut self, table: u32, key: RowKey) -> Result<Row, ClientError> {
        match self.expect(&Frame::Read { table, key })? {
            Frame::Row { row } => Ok(row),
            other => Err(ClientError::Unexpected { kind: other.kind() }),
        }
    }

    /// UPDATE (full-row overwrite).
    pub fn update(&mut self, table: u32, key: RowKey, row: Row) -> Result<(), ClientError> {
        match self.expect(&Frame::Update { table, key, row })? {
            Frame::Updated => Ok(()),
            other => Err(ClientError::Unexpected { kind: other.kind() }),
        }
    }

    /// INSERT; returns the server-assigned key.
    pub fn insert(&mut self, table: u32, row: Row) -> Result<RowKey, ClientError> {
        match self.expect(&Frame::Insert { table, row })? {
            Frame::Inserted { key } => Ok(key),
            other => Err(ClientError::Unexpected { kind: other.kind() }),
        }
    }

    /// COMMIT the open transaction.
    pub fn commit(&mut self) -> Result<(), ClientError> {
        match self.expect(&Frame::Commit)? {
            Frame::Committed => Ok(()),
            other => Err(ClientError::Unexpected { kind: other.kind() }),
        }
    }

    /// ABORT the open transaction.
    pub fn abort(&mut self) -> Result<(), ClientError> {
        match self.expect(&Frame::Abort)? {
            Frame::Aborted => Ok(()),
            other => Err(ClientError::Unexpected { kind: other.kind() }),
        }
    }

    /// Fetch and parse a METRICS snapshot.
    pub fn metrics(&mut self) -> Result<MetricsReply, ClientError> {
        match self.expect(&Frame::Metrics)? {
            Frame::MetricsSnapshot {
                counters,
                histograms,
            } => Ok(MetricsReply {
                counters,
                histograms,
            }),
            other => Err(ClientError::Unexpected { kind: other.kind() }),
        }
    }

    /// Write raw bytes (malformed-frame injection for tests) and flush.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    /// Read one reply frame without sending anything.
    pub fn recv(&mut self) -> Result<Frame, ClientError> {
        match read_frame(&mut self.reader) {
            Ok(Some(f)) => Ok(f),
            Ok(None) => Err(ClientError::Protocol("server closed connection".into())),
            Err(FrameReadError::Io(e)) => Err(ClientError::Io(e)),
            Err(e) => Err(ClientError::Protocol(e.to_string())),
        }
    }
}

impl ClientError {
    /// Whether this is a typed server error that rolled back the
    /// transaction (deadlock victim or lock-wait timeout) — the retryable
    /// abort class.
    pub fn is_txn_abort(&self) -> bool {
        matches!(
            self,
            ClientError::Server {
                code: ErrorCode::Deadlock | ErrorCode::LockTimeout,
                ..
            }
        )
    }
}
