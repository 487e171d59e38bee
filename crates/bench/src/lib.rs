//! Shared setup for the Criterion benches under `benches/`.
//!
//! Every kernel bench pins the same workload — a seeded paper-scale
//! network and a smooth deterministic state fill — so their numbers stay
//! comparable across benches and with the `spikefolio bench` regression
//! harness, which uses the identical fill (see
//! `spikefolio::profiling::bench_states`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench_support {
    //! The pinned networks, states, and RNGs the kernel benches share.

    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spikefolio_snn::network::{SdpNetwork, SdpNetworkConfig};
    use spikefolio_snn::stbp::{self, SdpGradients};
    use spikefolio_snn::SingleSample;
    use spikefolio_telemetry::NoopRecorder;
    use spikefolio_tensor::Matrix;

    /// Paper-scale state dimension: 11 assets × window 8 × 4 channels +
    /// 12 weights.
    pub const PAPER_STATE_DIM: usize = 364;
    /// Paper-scale action dimension: 11 assets + cash.
    pub const PAPER_ACTION_DIM: usize = 12;

    /// The seeded paper-scale network (364-dim state, hidden 128 × 128,
    /// T = 5) every kernel bench runs against.
    pub fn paper_network(seed: u64) -> SdpNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        SdpNetwork::new(SdpNetworkConfig::paper(PAPER_STATE_DIM, PAPER_ACTION_DIM), &mut rng)
    }

    /// The seeded network of the smoke live desk: `SdpConfig::smoke` over
    /// 11 assets (144-dim state, 576 encoder neurons, hidden 24, 48
    /// output neurons, T = 5), the narrow layers the desk trains.
    pub fn smoke_desk_network(seed: u64) -> SdpNetwork {
        let cfg = spikefolio::config::SdpConfig::smoke().network_config(11);
        SdpNetwork::new(cfg, &mut StdRng::seed_from_u64(seed))
    }

    /// A small seeded network for smoke-scale comparison rows.
    pub fn small_network(seed: u64) -> SdpNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        SdpNetwork::new(SdpNetworkConfig::small(16, 4), &mut rng)
    }

    /// The pinned single-sample state fill: smooth values around 1.0,
    /// deterministic in the flat index.
    pub fn pinned_state(dim: usize) -> Vec<f64> {
        (0..dim).map(|i| 0.85 + 0.001 * (i % 300) as f64).collect()
    }

    /// The batched version of [`pinned_state`]: row `b` of the matrix is
    /// the same fill continued at flat offset `b * dim`.
    pub fn pinned_states(batch: usize, dim: usize) -> Matrix {
        Matrix::from_fn(batch, dim, |b, d| 0.85 + 0.001 * ((b * dim + d) % 300) as f64)
    }

    /// The pinned action-gradient batch the backward benches feed STBP.
    pub fn pinned_d_actions(batch: usize, action_dim: usize) -> Matrix {
        Matrix::from_fn(batch, action_dim, |_, a| 0.1 - 0.01 * a as f64)
    }

    /// The STBP gradients of `one`'s latest forward pass for the loss
    /// gradient `d_action` (one row, `1 × action_dim`).
    pub fn backward_one(
        net: &SdpNetwork,
        one: &mut SingleSample,
        d_action: &Matrix,
        rate_penalty: f64,
    ) -> SdpGradients {
        let (trace, ws, rec) = (&one.trace, &mut one.ws, &mut NoopRecorder);
        stbp::backward_batch(net, trace, d_action, rate_penalty, ws, rec)
    }

    /// One deterministic encoder RNG per sample, seeded by sample index.
    pub fn sample_rngs(batch: usize) -> Vec<StdRng> {
        (0..batch).map(|s| StdRng::seed_from_u64(s as u64)).collect()
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn pinned_fills_agree_between_vector_and_matrix_forms() {
            let batch = 3;
            let m = pinned_states(batch, PAPER_STATE_DIM);
            let flat = pinned_state(batch * PAPER_STATE_DIM);
            for b in 0..batch {
                assert_eq!(m.row(b), &flat[b * PAPER_STATE_DIM..(b + 1) * PAPER_STATE_DIM]);
            }
        }

        #[test]
        fn smoke_desk_network_has_the_desk_shape() {
            let net = smoke_desk_network(9);
            let shapes: Vec<_> = net.layers().iter().map(|l| (l.in_dim(), l.out_dim())).collect();
            assert_eq!(shapes, [(576, 24), (24, 48)]);
        }

        #[test]
        fn networks_are_seed_deterministic() {
            let a = paper_network(9);
            let b = paper_network(9);
            assert_eq!(stbp::flat_params(&a), stbp::flat_params(&b));
        }
    }
}
