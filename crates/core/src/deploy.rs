//! Loihi deployment pipeline (Fig. 2): train → rescale (eq. 14) → map →
//! run on the chip model with the off-chip decoder.

use crate::agent::SdpAgent;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spikefolio_env::{DecisionContext, Policy, StateBuilder};
use spikefolio_loihi::chip::{LoihiChip, LoihiNetwork, LoihiRunStats, MapNetworkError};
use spikefolio_loihi::quantize::{
    try_quantize_network, QuantizationReport, QuantizeError, QuantizeOptions,
};
use spikefolio_snn::decoder::Decoder;
use spikefolio_snn::network::SpikeStats;
use spikefolio_snn::PopulationEncoder;
use spikefolio_telemetry::{labels, NoopRecorder, Recorder, Stopwatch};

/// A trained SDP policy deployed on the behavioural Loihi chip model.
///
/// The spiking body runs in 8-bit integer arithmetic on the chip model;
/// the population encoder and rate decoder run "off chip" (on Loihi's
/// embedded x86 lakemont cores in real deployments). Implements
/// [`Policy`], so the deployed network can be backtested with the exact
/// same engine as the float agent — which is how the pipeline tests
/// verify that quantization preserves trading behaviour.
#[derive(Debug, Clone)]
pub struct LoihiDeployment {
    encoder: PopulationEncoder,
    decoder: Decoder,
    state_builder: StateBuilder,
    chip_net: LoihiNetwork,
    report: QuantizationReport,
    timesteps: usize,
    rng: StdRng,
    /// Accumulated event counters over all inferences run so far.
    pub total_stats: LoihiRunStats,
    /// Number of inferences run so far.
    pub inferences: u64,
}

/// Why a trained agent could not be deployed on the chip model.
#[derive(Debug, Clone, PartialEq)]
pub enum DeployError {
    /// Quantization failed (ALIF network, all-zero layer, or too many
    /// weights saturating at full scale).
    Quantize(QuantizeError),
    /// The quantized network exceeds the chip budget.
    Map(MapNetworkError),
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::Quantize(e) => write!(f, "quantization failed: {e}"),
            DeployError::Map(e) => write!(f, "chip mapping failed: {e}"),
        }
    }
}

impl std::error::Error for DeployError {}

impl LoihiDeployment {
    /// Quantizes (eq. 14) and maps a trained agent onto `chip`. The
    /// number of weights clamped to full scale during rescaling is
    /// recorded on the `loihi/saturated_weights` counter. Observe-only —
    /// the deployment is identical with any recorder.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError`] if quantization fails (ALIF network,
    /// all-zero layer, or a saturated fraction above
    /// `opts.max_saturation_fraction`) or the network exceeds the chip
    /// budget.
    pub fn new(
        agent: &SdpAgent,
        chip: &LoihiChip,
        opts: &QuantizeOptions,
        rec: &mut dyn Recorder,
    ) -> Result<Self, DeployError> {
        let quantize_watch = Stopwatch::start(rec);
        let (quantized, report) =
            try_quantize_network(&agent.network, opts).map_err(DeployError::Quantize)?;
        quantize_watch.stop(rec, labels::SPAN_PROFILE_LOIHI_QUANTIZE);
        if rec.enabled() && report.total_saturated() > 0 {
            rec.counter(labels::COUNTER_LOIHI_SATURATED_WEIGHTS, report.total_saturated());
        }
        let timesteps = quantized.timesteps;
        let chip_net = chip.map(quantized).map_err(DeployError::Map)?;
        Ok(Self {
            encoder: agent.network.encoder.clone(),
            decoder: agent.network.decoder.clone(),
            state_builder: *agent.state_builder(),
            chip_net,
            report,
            timesteps,
            rng: StdRng::seed_from_u64(0xC41),
            total_stats: LoihiRunStats::default(),
            inferences: 0,
        })
    }

    /// The quantization report (per-layer ratios and error bounds).
    pub fn quantization_report(&self) -> &QuantizationReport {
        &self.report
    }

    /// Core allocation on the chip.
    pub fn allocation(&self) -> &spikefolio_loihi::chip::CoreAllocation {
        self.chip_net.allocation()
    }

    /// The state layout the deployed policy reads.
    pub fn state_builder(&self) -> &StateBuilder {
        &self.state_builder
    }

    /// Length of the state vector [`infer`](Self::infer) takes.
    pub fn state_dim(&self) -> usize {
        self.encoder.state_dim()
    }

    /// Length of the weight vector [`infer`](Self::infer) returns.
    pub fn action_dim(&self) -> usize {
        self.decoder.action_dim()
    }

    /// One on-chip inference: encodes `state` off-chip with `rng`, runs
    /// the chip model and decodes the spike sums into weights. Returns
    /// the action and the inference's event counts; touches no counter.
    pub fn infer<R: Rng + ?Sized>(&self, state: &[f64], rng: &mut R) -> (Vec<f64>, LoihiRunStats) {
        let raster = self.encoder.encode(state, self.timesteps, rng);
        let (sums, stats) = self.chip_net.infer(&raster);
        (self.decoder.decode(&sums).action, stats)
    }

    /// [`infer`](Self::infer) with the deployment's own RNG, accumulating
    /// the event counts. Times the inference (`loihi/infer` span) and
    /// records its event counts under the `loihi/*` counters.
    /// Observe-only — the action is identical with any recorder.
    pub fn act(&mut self, state: &[f64], rec: &mut dyn Recorder) -> Vec<f64> {
        let mut rng = self.rng.clone();
        let infer_watch = Stopwatch::start(rec);
        let (action, stats) = self.infer(state, &mut rng);
        infer_watch.stop(rec, labels::SPAN_CHIP_INFER);
        self.rng = rng;
        self.total_stats += stats;
        self.inferences += 1;
        spikefolio_loihi::telemetry::record_run_stats(rec, &stats, 1);
        action
    }

    /// Average event counts per inference so far (zeroes before the first
    /// inference).
    pub fn mean_stats(&self) -> SpikeStats {
        spikefolio_loihi::telemetry::mean_spike_stats(&self.total_stats, self.inferences).0
    }
}

impl Policy for LoihiDeployment {
    fn rebalance(&mut self, ctx: &DecisionContext<'_>) -> Vec<f64> {
        let state = self.state_builder.build(ctx.market, ctx.t, ctx.prev_weights);
        self.act(&state, &mut NoopRecorder)
    }

    fn warmup_periods(&self) -> usize {
        self.state_builder.min_period()
    }

    fn name(&self) -> &str {
        "SDP (Loihi)"
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::config::SdpConfig;
    use spikefolio_env::Backtester;
    use spikefolio_market::experiments::ExperimentPreset;
    use spikefolio_tensor::simplex::is_on_simplex;
    use spikefolio_tensor::vector::argmax;

    fn deploy(agent: &SdpAgent) -> LoihiDeployment {
        LoihiDeployment::new(
            agent,
            &LoihiChip::default(),
            &QuantizeOptions::default(),
            &mut NoopRecorder,
        )
        .unwrap()
    }

    fn agent_and_market() -> (SdpAgent, spikefolio_market::MarketData) {
        let market = ExperimentPreset::experiment1().shrunk(30, 10).generate(5);
        let agent = SdpAgent::new(&SdpConfig::smoke(), market.num_assets(), 2);
        (agent, market)
    }

    #[test]
    fn deployment_succeeds_for_smoke_network() {
        let (agent, _) = agent_and_market();
        let dep = deploy(&agent);
        assert!(dep.allocation().total_cores >= 1);
        assert!(!dep.quantization_report().ratios.is_empty());
    }

    #[test]
    fn chip_actions_match_float_agent_mostly() {
        let (mut agent, market) = agent_and_market();
        let mut dep = deploy(&agent);
        let w = vec![1.0 / 12.0; 12];
        let mut agree = 0;
        let total = 15;
        for t in 4..4 + total {
            let s = agent.state(&market, t, &w);
            let a_float = agent.act(&s);
            let a_chip = dep.act(&s, &mut NoopRecorder);
            assert!(is_on_simplex(&a_chip, 1e-9));
            if argmax(&a_float) == argmax(&a_chip) {
                agree += 1;
            }
        }
        assert!(agree * 10 >= total * 8, "only {agree}/{total} argmax agreements");
    }

    #[test]
    fn recorded_act_is_identical_and_counts_events() {
        let (agent, market) = agent_and_market();
        let mut plain_dep = deploy(&agent);
        let mut rec_dep = deploy(&agent);
        let w = vec![1.0 / 12.0; 12];
        let s = agent.state_builder().build(&market, 4, &w);
        let plain = plain_dep.act(&s, &mut NoopRecorder);
        let mut rec = spikefolio_telemetry::MemoryRecorder::new();
        let recorded = rec_dep.act(&s, &mut rec);
        assert_eq!(plain, recorded, "telemetry must not change the action");
        assert_eq!(rec.counter_total(labels::COUNTER_LOIHI_INFERENCES), 1);
        assert_eq!(rec.counter_total(labels::COUNTER_LOIHI_SYNOPS), rec_dep.total_stats.synops);
        assert_eq!(rec.span_total(labels::SPAN_CHIP_INFER).1, 1);
    }

    #[test]
    fn saturation_counter_is_emitted_for_aggressive_options() {
        let (agent, _) = agent_and_market();
        // Defaults: nothing saturates, counter untouched.
        let mut rec = spikefolio_telemetry::MemoryRecorder::new();
        let dep = LoihiDeployment::new(
            &agent,
            &LoihiChip::default(),
            &QuantizeOptions::default(),
            &mut rec,
        )
        .unwrap();
        assert_eq!(rec.counter_total(labels::COUNTER_LOIHI_SATURATED_WEIGHTS), 0);
        assert_eq!(dep.quantization_report().total_saturated(), 0);
        // Median-scaled ratio: outlier weights clamp and the counter sees
        // exactly the report's total.
        let opts = QuantizeOptions { ratio_percentile: 0.5, max_saturation_fraction: 1.0 };
        let mut rec = spikefolio_telemetry::MemoryRecorder::new();
        let dep = LoihiDeployment::new(&agent, &LoihiChip::default(), &opts, &mut rec).unwrap();
        let saturated = dep.quantization_report().total_saturated();
        assert!(saturated > 0);
        assert_eq!(rec.counter_total(labels::COUNTER_LOIHI_SATURATED_WEIGHTS), saturated);
        // A tight bound turns the same saturation into a typed error.
        let tight = QuantizeOptions { ratio_percentile: 0.1, max_saturation_fraction: 0.001 };
        let err = LoihiDeployment::new(&agent, &LoihiChip::default(), &tight, &mut NoopRecorder)
            .unwrap_err();
        assert!(matches!(err, DeployError::Quantize(_)), "{err}");
    }

    #[test]
    fn deployment_backtests_and_accumulates_stats() {
        let (agent, market) = agent_and_market();
        let mut dep = deploy(&agent);
        let r = Backtester::default().run(&mut dep, &market);
        assert!(r.fapv() > 0.0);
        assert!(dep.inferences > 0);
        assert!(dep.mean_stats().neuron_updates > 0);
        assert_eq!(dep.total_stats.timesteps, 5 * dep.inferences);
    }
}
