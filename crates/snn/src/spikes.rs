//! Spike-set views of rasters and stacked spike matrices.
//!
//! Re-exports the compact event representation from
//! [`spikefolio_tensor::sparse`] and anchors its contract at the SNN
//! level: every spike raster produced by the [`crate::encoder`] or a
//! [`crate::layer::LifLayer`] can be viewed as a [`SpikeSet`] — per row,
//! the ascending indices of the neurons that fired — and that view is
//! what the event-driven batched kernels ([`crate::batch`],
//! [`crate::stbp`]) consume instead of scanning the dense matrix.

pub use spikefolio_tensor::sparse::SpikeSet;

use spikefolio_tensor::Matrix;

/// Builds the event view of a spike raster or stacked spike matrix: one
/// [`SpikeSet`] row per matrix row, with the ascending column indices of
/// every non-zero entry.
pub fn raster_spike_set(raster: &Matrix) -> SpikeSet {
    SpikeSet::from_matrix(raster)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{Encoding, PopulationEncoder, PopulationEncoderConfig};
    use crate::layer::LifLayer;
    use crate::neuron::{LifParams, SpikeFn};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn encoder(encoding: Encoding) -> PopulationEncoder {
        let cfg = PopulationEncoderConfig { pop_size: 4, encoding, ..Default::default() };
        PopulationEncoder::new(3, cfg)
    }

    #[test]
    fn encoder_raster_round_trips_through_the_set() {
        // Build from a real encoder raster and reconstruct the occupancy:
        // binary rasters must round-trip exactly.
        for encoding in [Encoding::Deterministic, Encoding::Probabilistic] {
            let enc = encoder(encoding);
            let mut rng = StdRng::seed_from_u64(11);
            let raster = enc.encode(&[0.9, 1.0, 1.1], 6, &mut rng);
            let set = raster_spike_set(&raster);
            assert_eq!(set.rows(), raster.rows(), "{encoding:?}");
            assert_eq!(set.cols(), raster.cols(), "{encoding:?}");
            assert_eq!(set.occupancy(), raster, "{encoding:?}: binary raster must round-trip");
        }
    }

    #[test]
    fn layer_raster_round_trips_through_the_set() {
        let mut rng = StdRng::seed_from_u64(3);
        let layer = LifLayer::new(
            12,
            5,
            LifParams::paper(),
            SpikeFn::Hard { surrogate: crate::surrogate::Surrogate::paper_rectangular() },
            &mut rng,
        );
        let enc = encoder(Encoding::Deterministic); // 3 dims × 4 = 12 = layer input
        let raster = enc.encode(&[1.0, 0.95, 1.05], 7, &mut rng);
        let (out, _) = layer.forward(&raster, false);
        let set = raster_spike_set(&out);
        assert_eq!(set.occupancy(), out);
        let spikes = out.as_slice().iter().filter(|&&s| s > 0.0).count() as u64;
        assert_eq!(set.nnz(), spikes, "event count must equal the spike count");
    }

    #[test]
    fn iteration_order_is_deterministic_and_ascending() {
        let mut rng = StdRng::seed_from_u64(21);
        let raster = encoder(Encoding::Probabilistic).encode(&[1.1, 0.9, 1.0], 5, &mut rng);
        let set = raster_spike_set(&raster);
        for r in 0..set.rows() {
            assert!(
                set.row(r).windows(2).all(|w| w[0] < w[1]),
                "row {r} indices must be strictly ascending"
            );
        }
        // Rebuilding from the identical raster yields the identical set.
        assert_eq!(raster_spike_set(&raster), set);
    }

    #[test]
    fn silent_raster_yields_empty_rows() {
        let set = raster_spike_set(&Matrix::zeros(4, 9));
        assert_eq!(set.rows(), 4);
        assert_eq!(set.nnz(), 0);
        for r in 0..4 {
            assert!(set.row(r).is_empty());
        }
        assert_eq!(set.occupancy(), Matrix::zeros(4, 9));
    }

    #[test]
    fn saturated_raster_yields_full_rows() {
        let full = Matrix::filled(3, 7, 1.0);
        let set = raster_spike_set(&full);
        assert_eq!(set.nnz(), 21);
        for r in 0..3 {
            assert_eq!(set.row(r), &[0, 1, 2, 3, 4, 5, 6]);
        }
        assert_eq!(set.occupancy(), full);
    }
}
