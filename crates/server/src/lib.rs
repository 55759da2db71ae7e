//! The networked front end (`tpd-server`).
//!
//! Everything before this crate calls [`tpd_engine::Engine::begin`]
//! in-process; the paper's latency-variance story, though, lives at the
//! boundary where concurrent clients meet a server — connection
//! scheduling, queueing, and overload. This crate makes "traffic" a real
//! thing:
//!
//! * [`protocol`] — a small length-prefixed binary protocol
//!   (`BEGIN/READ/UPDATE/INSERT/COMMIT/ABORT/METRICS`) with a versioned
//!   header and total, panic-free decoding;
//! * [`admission`] — the admission controller between accept and
//!   execute: bounded execution slots, a FIFO/deadline queue with a
//!   configurable cap, and typed `RETRY_LATER` load shedding;
//! * [`server`] — the TCP server and its sans-I/O request core, which
//!   decides once what each frame means and translates it into
//!   [`tpd_engine::Session`] calls, with `server.*` metrics
//!   (`admission_wait_ns`, `shed_total`, `open_conns`, ...) wired into
//!   the engine's snapshot. Two concurrency models behind one flag
//!   share the core: thread-per-connection (the baseline) and the
//!   evented [`reactor`];
//! * [`reactor`] — the readiness-driven front end: one reactor thread
//!   multiplexing nonblocking sockets, per-connection state machines,
//!   and a bounded worker pool as the execution stage;
//! * [`client`] — a blocking typed client;
//! * [`muxclient`] — a multiplexed TATP driver: one thread driving
//!   thousands of connections through the same poller, for
//!   high-connection-count load generation;
//! * [`wire_tatp`] — the TATP mix as one statement script per
//!   transaction, walked by both drivers, for the load generators and
//!   the end-to-end suite.

pub mod admission;
pub mod client;
pub mod muxclient;
pub mod protocol;
pub(crate) mod reactor;
pub mod server;
pub mod wire_tatp;

pub use admission::{AdmissionConfig, AdmissionController, AdmitAttempt, Permit, Shed};
pub use client::{BeginOutcome, ClientError, Conn, MetricsReply};
pub use muxclient::{run_mux, MuxConfig, MuxReport};
pub use protocol::{ErrorCode, Frame, FrameReadError, HistSummary, WireError, VERSION};
pub use server::{spawn, ServerConfig, ServerHandle, ServerMode};
pub use wire_tatp::{Outcome, WireSpec, WireTatp};
