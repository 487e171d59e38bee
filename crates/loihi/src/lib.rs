//! Behavioural Intel Loihi simulator for `spikefolio`.
//!
//! The paper deploys the trained SDP network on Intel's Loihi neuromorphic
//! processor (§II.D) and measures energy/latency against CPU/GPU baselines
//! (Table 4). Real Loihi hardware is not available here, so this crate
//! implements the deployment pipeline behaviourally:
//!
//! * [`quantize`] — eq. (14): per-layer rescaling of weights and thresholds
//!   to Loihi's 8-bit signed integer weights.
//! * [`chip`] — a fixed-point chip model: neurocores with compartment and
//!   fan-in budgets, integer dual-state LIF dynamics (12-bit decay
//!   arithmetic like the real chip), and spike/synop event counters.
//! * [`energy`] — an event-linear energy model
//!   `E = E_synop·synops + E_spike·spikes + E_update·updates + E_io`,
//!   with two constant sets: physically-grounded (`davies2018`) and
//!   calibrated to reproduce the paper's measured Table 4 rows.
//! * [`device`] — analytic CPU/GPU device models (FLOP counting + power
//!   envelope) for the DRL baseline's rows of Table 4.
//!
//! Loihi's published energy behaviour is linear in event counts, so an
//! event-counting simulator exercises the same pipeline a hardware
//! deployment would (quantize → map → run → read probes) and reproduces
//! the relative energy/speed picture of Table 4.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod chip;
pub mod device;
pub mod energy;
pub mod quantize;
pub mod telemetry;

pub use chip::{ChipConfig, LoihiChip, LoihiNetwork};
pub use device::{DeviceKind, DeviceModel};
pub use energy::{EnergyReport, LoihiEnergyModel};
pub use quantize::{
    QuantizationReport, QuantizeError, QuantizeOptions, QuantizedLayer, QuantizedNetwork,
};
