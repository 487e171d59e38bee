//! Canonical hierarchical label constants shared by all instrumented
//! crates, so run logs stay greppable and the summarizer can rely on
//! exact names.

/// Span: one whole training epoch.
pub const SPAN_TRAIN_EPOCH: &str = "train/epoch";
/// Span: phase 1 of a training step — sampling periods and building
/// states.
pub const SPAN_TRAIN_SAMPLE: &str = "train/epoch/sample";
/// Span: batched SNN forward passes of a training step.
pub const SPAN_TRAIN_FORWARD: &str = "train/epoch/forward_batch";
/// Span: batched STBP backward passes of a training step.
pub const SPAN_TRAIN_BACKWARD: &str = "train/epoch/backward_batch";
/// Span: gradient accumulation + optimizer apply of a training step.
pub const SPAN_TRAIN_APPLY: &str = "train/epoch/apply";
/// Span: checkpoint write (serialize + IO + retries) of a guarded epoch.
pub const SPAN_TRAIN_CHECKPOINT: &str = "train/epoch/checkpoint";
/// Span: one backtester decision + portfolio step.
pub const SPAN_BACKTEST_STEP: &str = "backtest/step";
/// Span: one on-chip inference (off-chip encode, quantized spiking body,
/// off-chip decode).
pub const SPAN_CHIP_INFER: &str = "loihi/infer";

/// Span: population-encoding section of a batched SNN forward pass.
pub const SPAN_PROFILE_SNN_ENCODE: &str = "profile/snn/encode";
/// Span: LIF timestep loop (eqs. 5–7) of a batched SNN forward pass.
pub const SPAN_PROFILE_SNN_LIF: &str = "profile/snn/lif_forward";
/// Span: one batched STBP backward pass (eqs. 11–13).
pub const SPAN_PROFILE_SNN_STBP: &str = "profile/snn/stbp_backward";
/// Span: eq. (14) weight quantization during a Loihi deployment.
pub const SPAN_PROFILE_LOIHI_QUANTIZE: &str = "profile/loihi/quantize";

/// Gauge: micro-batches in flight per training step.
pub const GAUGE_QUEUE_MICRO_BATCHES: &str = "train/queue/micro_batches";
/// Gauge: worker threads serving the micro-batch queue.
pub const GAUGE_QUEUE_WORKERS: &str = "train/queue/workers";
/// Gauge: micro-batch queue occupancy (micro-batches per worker).
pub const GAUGE_QUEUE_OCCUPANCY: &str = "train/queue/occupancy";

/// Counter: spikes injected into the chip (encoder output).
pub const COUNTER_LOIHI_INPUT_SPIKES: &str = "loihi/input_spikes";
/// Counter: spikes fired by on-chip neurons.
pub const COUNTER_LOIHI_NEURON_SPIKES: &str = "loihi/neuron_spikes";
/// Counter: on-chip synaptic operations.
pub const COUNTER_LOIHI_SYNOPS: &str = "loihi/synops";
/// Counter: on-chip compartment updates.
pub const COUNTER_LOIHI_NEURON_UPDATES: &str = "loihi/neuron_updates";
/// Counter: algorithmic timesteps executed on chip.
pub const COUNTER_LOIHI_TIMESTEPS: &str = "loihi/timesteps";
/// Counter: quantized inferences executed.
pub const COUNTER_LOIHI_INFERENCES: &str = "loihi/inferences";
/// Counter: weights clamped to full scale during quantization.
pub const COUNTER_LOIHI_SATURATED_WEIGHTS: &str = "loihi/saturated_weights";

/// Counter: successful recoveries (rollback + retry) of guarded training.
pub const COUNTER_RESILIENCE_RECOVERIES: &str = "resilience/recoveries";
/// Counter: epochs discarded by the `Skip` guard policy.
pub const COUNTER_RESILIENCE_EPOCHS_SKIPPED: &str = "resilience/epochs_skipped";
/// Counter: corrupted checkpoints detected at load time.
pub const COUNTER_RESILIENCE_CORRUPTIONS: &str = "resilience/corruption_detected";
/// Counter: transient checkpoint IO failures absorbed by retry/backoff.
pub const COUNTER_RESILIENCE_IO_RETRIES: &str = "resilience/io_retries";
/// Counter: market candles repaired by the sanitizer.
pub const COUNTER_SANITIZE_REPAIRS: &str = "sanitize/repairs";

/// Span: one micro-batch dispatched by the inference server (collect +
/// forward + fan-out).
pub const SPAN_SERVE_BATCH: &str = "serve/batch";
/// Gauge: requests waiting in the inference server's admission queue.
pub const GAUGE_SERVE_QUEUE_DEPTH: &str = "serve/queue/depth";
/// Counter: inference requests admitted into the queue.
pub const COUNTER_SERVE_REQUESTS: &str = "serve/requests";
/// Counter: inference responses successfully served.
pub const COUNTER_SERVE_SERVED: &str = "serve/served";
/// Counter: requests shed because the admission queue was full.
pub const COUNTER_SERVE_SHED_QUEUE_FULL: &str = "serve/shed/queue_full";
/// Counter: requests shed because their deadline expired before dispatch.
pub const COUNTER_SERVE_SHED_DEADLINE: &str = "serve/shed/deadline";
/// Counter: requests rejected at the boundary (bad dimension or
/// non-finite state input).
pub const COUNTER_SERVE_INVALID_INPUT: &str = "serve/invalid_input";
/// Counter: decoder outputs rejected because they were non-finite.
pub const COUNTER_SERVE_NONFINITE_OUTPUT: &str = "serve/nonfinite_output";
/// Counter: decoder outputs renormalized back onto the simplex before
/// leaving the service.
pub const COUNTER_SERVE_RENORMALIZED: &str = "serve/renormalized";
/// Counter: micro-batches executed by the server.
pub const COUNTER_SERVE_BATCHES: &str = "serve/batches";
/// Counter: successful hot checkpoint swaps.
pub const COUNTER_SERVE_SWAPS: &str = "serve/swaps";
/// Counter: rejected hot-swap attempts (old model kept serving).
pub const COUNTER_SERVE_SWAP_FAILURES: &str = "serve/swap_failures";
/// Counter: candidate models the validation gate turned away before any
/// swap was attempted (integrity / validation / drift rejections).
pub const COUNTER_SERVE_SWAP_REJECTED: &str = "serve/swap_rejected";
/// Counter: inference lines the server front end failed to parse.
pub const COUNTER_SERVE_PARSE_ERRORS: &str = "serve/parse_errors";
/// Counter: served responses whose queue+infer latency exceeded the SLO.
pub const COUNTER_SERVE_OVER_SLO: &str = "serve/over_slo";
/// Counter: request traces sampled into the chrome-trace exporter.
pub const COUNTER_SERVE_TRACES_SAMPLED: &str = "serve/traces_sampled";
/// Counter: snapshots taken while the health watchdog flagged the
/// service degraded (0 = healthy for the whole run).
pub const COUNTER_SERVE_HEALTH_DEGRADED: &str = "serve/health/degraded";
/// Gauge: model-health drift score (max of entropy and firing-rate
/// drift) at flush time.
pub const GAUGE_SERVE_HEALTH_DRIFT: &str = "serve/health/drift_score";
/// Gauge: latency SLO burn rate (over-SLO fraction / budget) at flush.
pub const GAUGE_SERVE_HEALTH_BURN: &str = "serve/health/burn_rate";
/// Gauge: shed fraction of admitted requests at flush time.
pub const GAUGE_SERVE_HEALTH_SHED: &str = "serve/health/shed_rate";

/// Counter: live-desk rounds completed (one feed poll → train →
/// gate → swap/quarantine cycle each).
pub const COUNTER_DESK_ROUNDS: &str = "desk/rounds";
/// Counter: candidate checkpoints that passed the gate and were
/// hot-swapped into serving.
pub const COUNTER_DESK_PROMOTIONS: &str = "desk/promotions";
/// Counter: candidate checkpoints quarantined (gate rejection or
/// unrecoverable fault) while serving stayed on last-good.
pub const COUNTER_DESK_QUARANTINES: &str = "desk/quarantines";
/// Counter: pipeline faults the desk absorbed and recovered from
/// (trainer retries, candidate heals, swap IO retries, feed re-polls).
pub const COUNTER_DESK_RECOVERIES: &str = "desk/recoveries";
/// Counter: feed polls that returned no new data (stall watchdog ticks).
pub const COUNTER_DESK_FEED_STALLS: &str = "desk/feed_stalls";
/// Counter: non-fatal feed anomalies the tail recovered from on its own
/// (e.g. a torn line that completed but stayed malformed and was dropped).
pub const COUNTER_DESK_FEED_WARNINGS: &str = "desk/feed_warnings";

/// Counter: dense multiply–accumulates an equivalent ANN forward pass
/// would execute for the same workload (`Σ_k in_k · out_k · T` per
/// sample) — the denominator of the effective-sparsity gauge.
pub const COUNTER_OPS_DENSE_MACS: &str = "profile/ops/dense_macs";
/// Counter: spike-driven synaptic operations actually executed (every
/// input spike fanned out across one layer's synapses).
pub const COUNTER_OPS_SYNOPS: &str = "profile/ops/synops";
/// Gauge: effective synaptic sparsity, `1 − synops / dense_macs`, over
/// the records of one observation window.
pub const GAUGE_OPS_SPARSITY: &str = "profile/ops/sparsity";
