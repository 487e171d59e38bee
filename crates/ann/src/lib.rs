//! Dense neural-network substrate for the DRL\[Jiang\] baseline.
//!
//! The paper compares SDP against the deep (non-spiking) deterministic
//! policy of Jiang, Xu & Liang (2017). This crate provides the dense
//! network that baseline needs: linear layers, pointwise activations, a
//! softmax policy head (or a raw value head, the DDPG critic), and manual
//! backprop — validated by finite-difference gradient checks, exactly
//! like the spiking substrate.
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use spikefolio_ann::{Activation, Mlp};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let net = Mlp::new(&[4, 8, 3], Activation::Relu, &mut rng);
//! let action = net.act(&[1.0, 0.9, 1.1, 1.0]);
//! assert!((action.iter().sum::<f64>() - 1.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod conv;
pub mod eiie;
pub mod linear;
pub mod mlp;

pub use activation::Activation;
pub use conv::Conv1d;
pub use eiie::{Eiie, EiieConfig, EiieGradients, EiieScratch, EiieTrace, EiieTrainer};
pub use linear::Linear;
pub use mlp::{Mlp, MlpGradients, MlpScratch, MlpTrace, MlpTrainer};
