//! The predictadb benchmark: fixed-rate TATP over the wire against the real
//! server started in-process, measured end to end and layer by layer. See
//! `README.md` in this directory for the workloads and how to run them.

pub mod bed;
pub mod drive;
pub mod gen;
pub mod layers;
pub mod pin;
pub mod report;
pub mod stats;
pub mod trace;
