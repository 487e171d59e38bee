//! Continuous-learning observability: a crash-safe flight recorder and a
//! model lineage ledger for the live desk.
//!
//! The desk's train → gate → swap loop is only as debuggable as the
//! evidence it leaves behind when something goes wrong. This crate holds
//! the two durable evidence stores:
//!
//! * [`FlightRecorder`] — a bounded ring buffer of structured events
//!   spanning feed → fine-tune → gate → swap → serve, dumped to a
//!   schema-versioned file (`spikefolio.blackbox.v1`) on panic, fault, or
//!   demand. The ring is shared (`Arc`) between the desk loop and the
//!   process panic hook, so a mid-round crash still flushes the ordered
//!   tail of events leading up to the fault.
//! * [`lineage`] — an append-only JSONL ledger
//!   (`spikefolio.lineage.v1`) recording, for every candidate version,
//!   its parent, training window, all three gate stage numbers, swap
//!   outcome, and quarantine reason. Every line carries its own CRC32
//!   frame, so a torn append (power loss mid-line) costs exactly one
//!   entry: the tolerant reader skips the torn line and keeps the rest.
//!
//! Both stores are observe-only: recording never feeds back into the
//! computation being recorded.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod lineage;
pub mod recorder;

pub use lineage::{read_ledger, LineageEntry, LineageLog};
pub use recorder::{install_panic_dump, BlackboxEvent, FlightRecorder, BLACKBOX_SCHEMA};
