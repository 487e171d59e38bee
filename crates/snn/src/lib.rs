//! Spiking neural network substrate for `spikefolio`.
//!
//! Implements §II.B–II.C of the paper from scratch:
//!
//! * **Population encoder** (eqs. 2–4): Gaussian receptive fields per state
//!   dimension, with deterministic (one-step soft-reset LIF) or
//!   probabilistic (Bernoulli) spike generation — [`encoder`].
//! * **Dual-state LIF layers** (eqs. 5–7 / Algorithm 1): synaptic current
//!   and membrane voltage with separate decays `d_c`, `d_v` — [`layer`],
//!   run for a batch of states (or one, at `B = 1`) by [`batch`].
//! * **Rate decoder** (eqs. 8–10): per-action output populations, firing
//!   rate → affine map → normalized action on the simplex — [`decoder`].
//! * **STBP training** (eqs. 11–13): backprop through time with a
//!   configurable pseudo-gradient (rectangular by default) — [`stbp`],
//!   [`surrogate`].
//!
//! The full policy network is assembled in [`network::SdpNetwork`].
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use spikefolio_snn::network::{SdpNetwork, SdpNetworkConfig};
//! use spikefolio_snn::SingleSample;
//!
//! let cfg = SdpNetworkConfig::small(6, 3); // 6 state dims, 3 actions
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let net = SdpNetwork::new(cfg, &mut rng);
//! // One decision: a batch of one state, encoded with its own RNG.
//! let mut one = SingleSample::new(&net);
//! let action = one.forward(&net, &[0.9, 1.0, 1.1, 1.0, 0.95, 1.05], &mut rng);
//! assert!((action.iter().sum::<f64>() - 1.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod decoder;
pub mod encoder;
pub mod layer;
pub mod network;
pub mod neuron;
pub mod stbp;
pub mod surrogate;

pub use batch::{BatchLayerTrace, BatchNetworkTrace, BatchWorkspace, SingleSample};
pub use encoder::{Encoding, PopulationEncoder, PopulationEncoderConfig};
pub use network::{SdpNetwork, SdpNetworkConfig};
pub use neuron::LifParams;
pub use spikefolio_tensor::sparse::SpikeSet;
pub use surrogate::Surrogate;
