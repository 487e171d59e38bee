//! # spikefolio
//!
//! A from-scratch Rust reproduction of *"A Novel Neuromorphic Processors
//! Realization of Spiking Deep Reinforcement Learning for Portfolio
//! Management"* (DATE 2022): a spiking deterministic policy (SDP) trained
//! with spatio-temporal backpropagation to allocate a cryptocurrency
//! portfolio, deployed on a behavioural Intel Loihi simulator, and compared
//! against the DRL\[Jiang\] dense baseline and five classical strategies.
//!
//! The workspace layering (each its own crate):
//!
//! * [`spikefolio_tensor`] — dense linear algebra + optimizers,
//! * [`spikefolio_market`] — synthetic crypto market generator (Table 1),
//! * [`spikefolio_env`] — portfolio environment, costs, metrics, backtester,
//! * [`spikefolio_snn`] — population coding, dual-state LIF, STBP,
//! * [`spikefolio_ann`] — dense MLP substrate for the DRL baseline,
//! * [`spikefolio_baselines`] — ONS, ANTICOR, Best Stock, M0, UCRP,
//! * [`spikefolio_loihi`] — eq. (14) quantization, fixed-point chip model,
//!   energy/device models (Table 4),
//! * this crate — the agents, training loops, deployment pipeline, and the
//!   drivers that regenerate every table of the paper.
//!
//! # Quickstart
//!
//! ```
//! use spikefolio::agent::SdpAgent;
//! use spikefolio::config::SdpConfig;
//! use spikefolio::training::Trainer;
//! use spikefolio_env::Backtester;
//! use spikefolio_market::experiments::ExperimentPreset;
//!
//! // A deliberately tiny run: see examples/ for full-scale scripts.
//! let preset = ExperimentPreset::experiment1().shrunk(60, 15);
//! let (train, test) = preset.generate_split(7);
//! let mut config = SdpConfig::smoke();
//! let mut agent = SdpAgent::new(&config, train.num_assets(), 99);
//! let log = Trainer::new(&config).train_sdp(&mut agent, &train);
//! let result = Backtester::new(config.backtest).run(&mut agent, &test);
//! assert!(result.fapv() > 0.0);
//! # let _ = log;
//! # config.training.epochs = 1;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod agent;
pub mod checkpoint;
pub mod config;
pub mod ddpg;
pub mod deploy;
pub mod desk;
pub mod desk_top;
pub mod drl;
pub mod eiie;
pub mod experiments;
pub mod figures;
pub mod guarded;
pub mod online;
pub mod profiling;
pub mod report;
pub mod scenarios;
pub mod serving;
pub mod telemetry_report;
pub mod training;
pub mod triage;

pub use agent::SdpAgent;
pub use config::SdpConfig;
pub use ddpg::DdpgAgent;
pub use deploy::LoihiDeployment;
pub use desk::{parse_fault_spec, run_desk, run_desk_quiet, DeskOptions, DeskReport, RoundRecord};
pub use desk_top::{
    lineage_json, render_ancestry, render_desk_top, render_lineage_ledger, run_desk_top,
    DeskTopOptions,
};
pub use drl::DrlAgent;
pub use guarded::{train_sdp_guarded, GuardedOutcome, ResilienceOptions};
pub use scenarios::{run_scenario_matrix, ScenarioMatrixOptions};
pub use training::{Trainer, TrainingLog};
pub use triage::{run_triage, TriageOptions, TriageReport};
