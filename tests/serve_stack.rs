//! Integration tests for the `spikefolio-serve` stack: hot checkpoint
//! swap under live load, serving-boundary weight guarantees, the NDJSON
//! TCP protocol end to end, deterministic-mode bitwise reproducibility,
//! and the CI smoke flow.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spikefolio::config::SdpConfig;
use spikefolio::serving::{
    run_loadgen_smoke, write_reference_checkpoint, BackendKind, CheckpointBackendLoader,
};
use spikefolio_serve::{
    InferenceBackend, InferenceRequest, LatencyHistogram, ModelLoader, ModelStore, Server,
    ServerOptions, Service, ServiceConfig,
};
use spikefolio_telemetry::value::{parse, Value};
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

const ASSETS: usize = 5;

fn temp_ckpt(name: &str, seed: u64) -> String {
    let path: PathBuf = std::env::temp_dir().join(format!("spikefolio_{name}_{seed}.ckpt"));
    let path = path.to_string_lossy().into_owned();
    write_reference_checkpoint(&path, &SdpConfig::smoke(), ASSETS, seed).expect("write checkpoint");
    path
}

fn loader() -> CheckpointBackendLoader {
    CheckpointBackendLoader::new(SdpConfig::smoke(), ASSETS, BackendKind::Float)
}

/// A state every test can agree on: deterministic, mid-range values.
fn fixed_state(dim: usize) -> Vec<f64> {
    (0..dim).map(|i| 0.9 + 0.2 * ((i % 7) as f64 / 7.0)).collect()
}

// ---------------------------------------------------------------- smoke

#[test]
fn loadgen_smoke_flow_passes() {
    let outcome = run_loadgen_smoke(None, 11).expect("smoke run");
    assert!(outcome.clean_shutdown, "server did not shut down cleanly");
    assert_eq!(outcome.report.served, outcome.report.requests);
    assert_eq!(outcome.report.deterministic, Some(true), "responses not bitwise identical");
    assert!(outcome.passed(), "{}", outcome.report.render());
}

// ------------------------------------------------------- hot swap (sat 6)

#[test]
fn hot_swap_under_load_switches_versions_and_survives_bad_reload() {
    let ckpt_a = temp_ckpt("swap_a", 1);
    let ckpt_b = temp_ckpt("swap_b", 2);

    // Precompute, per version, the exact weights the fixed probe request
    // must yield: (model, state, seed) fully determines them.
    let probe_seed = 9u64;
    let backend_a = loader().load(&ckpt_a).expect("load A");
    let backend_b = loader().load(&ckpt_b).expect("load B");
    let dim = backend_a.state_dim();
    let state = fixed_state(dim);
    let expect_a = backend_a.infer_batch(&state, &[probe_seed]).remove(0);
    let expect_b = backend_b.infer_batch(&state, &[probe_seed]).remove(0);
    assert_ne!(
        expect_a.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
        expect_b.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
        "seeds 1 and 2 produced identical checkpoints"
    );

    let store = Arc::new(ModelStore::open(Box::new(loader()), &ckpt_a).expect("open store"));
    let service =
        Service::start(Arc::clone(&store), ServiceConfig { workers: 2, ..Default::default() });

    let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

    // Callers hammer the service while the swap happens; every response
    // must carry weights consistent with the version it reports.
    std::thread::scope(|s| {
        let mut callers = Vec::new();
        for t in 0..3u64 {
            let service = Arc::clone(&service);
            let state = state.clone();
            let (expect_a, expect_b) = (expect_a.clone(), expect_b.clone());
            callers.push(s.spawn(move || {
                for i in 0..120u64 {
                    let resp = service
                        .call(InferenceRequest {
                            id: t * 1000 + i,
                            state: state.clone(),
                            seed: probe_seed,
                            deadline: None,
                            corr: 0,
                        })
                        .expect("call during swap");
                    let expect = match resp.model_version {
                        1 => &expect_a,
                        2 => &expect_b,
                        v => panic!("unexpected model version {v}"),
                    };
                    assert_eq!(
                        bits(&resp.weights),
                        bits(expect),
                        "weights inconsistent with reported version {}",
                        resp.model_version
                    );
                }
            }));
        }
        // Let some version-1 traffic through, then swap mid-flight.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let v = store.reload(&ckpt_b).expect("hot swap to B");
        assert_eq!(v, 2);
        for c in callers {
            c.join().expect("caller thread");
        }
    });

    // After the swap every new request sees version 2.
    let resp = service
        .call(InferenceRequest {
            id: 9999,
            state: state.clone(),
            seed: probe_seed,
            deadline: None,
            corr: 0,
        })
        .expect("post-swap call");
    assert_eq!(resp.model_version, 2);
    assert_eq!(bits(&resp.weights), bits(&expect_b));

    // A bad checkpoint must be rejected and leave version 2 serving.
    let err = store.reload("/nonexistent/model.ckpt").expect_err("bad reload must fail");
    assert!(!err.is_empty());
    assert_eq!(store.version(), 2);
    assert_eq!(store.swap_counts(), (1, 1), "one swap, one rejected swap");
    let resp = service
        .call(InferenceRequest { id: 10_000, state, seed: probe_seed, deadline: None, corr: 0 })
        .expect("call after failed reload");
    assert_eq!(resp.model_version, 2);
    assert_eq!(bits(&resp.weights), bits(&expect_b));

    service.shutdown();
}

// ------------------------------------- boundary validation proptest (sat 1)

/// One shared service for the property test (building the SNN stack per
/// case would dominate the runtime), plus the model's state dimension.
fn shared_service() -> &'static (Arc<Service>, usize) {
    static SERVICE: OnceLock<(Arc<Service>, usize)> = OnceLock::new();
    SERVICE.get_or_init(|| {
        let ckpt = temp_ckpt("proptest", 3);
        let store = Arc::new(ModelStore::open(Box::new(loader()), &ckpt).expect("open store"));
        let dim = store.current().backend.state_dim();
        (Service::start(store, ServiceConfig::default()), dim)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever finite state a client sends — huge, negative, tiny — the
    /// served weights are finite and on the probability simplex.
    #[test]
    fn served_weights_are_finite_and_sum_to_one(seed in 0u64..500, scale in 1e-3f64..1e6) {
        let (service, state_dim) = shared_service();
        let mut rng = StdRng::seed_from_u64(seed);
        let state: Vec<f64> = (0..*state_dim).map(|_| rng.gen_range(-scale..scale)).collect();
        let resp = service
            .call(InferenceRequest { id: seed, state, seed, deadline: None, corr: 0 })
            .expect("adversarial-but-finite state must be served");
        prop_assert!(resp.weights.iter().all(|w| w.is_finite()));
        prop_assert!(
            spikefolio_tensor::simplex::is_on_simplex(&resp.weights, 1e-6),
            "served weights off the simplex: {:?}",
            resp.weights
        );
    }
}

// --------------------------------------------------------- TCP round trip

fn is_true(v: &Value, key: &str) -> bool {
    matches!(v.get(key), Some(Value::Bool(true)))
}

fn send_line(reader: &mut BufReader<TcpStream>, line: &str) -> Value {
    let mut out = line.to_string();
    out.push('\n');
    reader.get_mut().write_all(out.as_bytes()).expect("write request");
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("read response");
    parse(resp.trim()).expect("response is JSON")
}

fn start_tcp_server(
    ckpt: &str,
    config: ServiceConfig,
) -> (String, spikefolio_serve::ServerHandle, std::thread::JoinHandle<std::io::Result<()>>) {
    let store = Arc::new(ModelStore::open(Box::new(loader()), ckpt).expect("open store"));
    let service = Service::start(store, config);
    let server =
        Server::bind("127.0.0.1:0", service, ServerOptions::default()).expect("bind loopback");
    let handle = server.handle();
    let addr = handle.addr().to_string();
    let join = std::thread::spawn(move || server.run());
    (addr, handle, join)
}

#[test]
fn tcp_protocol_round_trip_state_window_and_control_verbs() {
    let ckpt = temp_ckpt("tcp", 4);
    let ckpt_b = temp_ckpt("tcp_b", 5);
    let (addr, handle, join) = start_tcp_server(&ckpt, ServiceConfig::default());
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream);

    // info: schema, dims, version.
    let info = send_line(&mut reader, r#"{"cmd":"info"}"#);
    assert_eq!(info.get("schema").and_then(Value::as_str), Some("spikefolio.serve.v1"));
    assert_eq!(info.get("model_version").and_then(Value::as_u64), Some(1));
    let dim = info.get("state_dim").and_then(Value::as_u64).expect("state_dim") as usize;
    let action_dim = info.get("action_dim").and_then(Value::as_u64).expect("action_dim") as usize;
    assert_eq!(action_dim, ASSETS + 1);

    // ping.
    let pong = send_line(&mut reader, r#"{"cmd":"ping"}"#);
    assert!(is_true(&pong, "ok"), "{pong:?}");

    // A raw-window request and the equivalent pre-built state request
    // must serve identical weights (same model, same seed).
    let config = SdpConfig::smoke();
    let window = config.state.window;
    let mut candles = Vec::new();
    for p in 0..window {
        for a in 0..ASSETS {
            let base = 1.0 + 0.01 * (p * ASSETS + a) as f64;
            candles.extend_from_slice(&[base, base * 1.02, base * 0.98, base * 1.01]);
        }
    }
    let mut prev = vec![0.0; ASSETS + 1];
    prev[0] = 1.0;
    let backend = loader().load(&ckpt).expect("load");
    let state = backend.state_from_window(&candles, ASSETS, &prev).expect("window state");
    assert_eq!(state.len(), dim);

    let render_list = |v: &[f64]| v.iter().map(|x| format!("{x}")).collect::<Vec<_>>().join(",");
    let by_state = send_line(
        &mut reader,
        &format!(r#"{{"id":1,"state":[{}],"seed":7}}"#, render_list(&state)),
    );
    let by_window = send_line(
        &mut reader,
        &format!(
            r#"{{"id":2,"window":[{}],"assets":{ASSETS},"prev_weights":[{}],"seed":7}}"#,
            render_list(&candles),
            render_list(&prev)
        ),
    );
    assert!(is_true(&by_state, "ok"), "{by_state:?}");
    assert!(is_true(&by_window, "ok"), "{by_window:?}");
    let weights = |v: &Value| {
        v.get("weights")
            .and_then(Value::as_list)
            .expect("weights")
            .iter()
            .map(|x| x.as_f64().expect("weight").to_bits())
            .collect::<Vec<_>>()
    };
    assert_eq!(weights(&by_state), weights(&by_window), "window path diverged from state path");

    // A malformed line gets a parse error, not a dropped connection.
    let bad = send_line(&mut reader, r#"{"id":3,"state":"nope"}"#);
    assert!(!is_true(&bad, "ok"), "{bad:?}");

    // reload to a second checkpoint bumps the served version.
    let reloaded = send_line(&mut reader, &format!(r#"{{"cmd":"reload","path":"{ckpt_b}"}}"#));
    assert_eq!(reloaded.get("model_version").and_then(Value::as_u64), Some(2), "{reloaded:?}");

    // stats reflects the traffic and the swap.
    let reply = send_line(&mut reader, r#"{"cmd":"stats"}"#);
    let stats = reply.get("stats").expect("stats map");
    assert!(stats.get("served").and_then(Value::as_u64).unwrap_or(0) >= 2, "{reply:?}");
    assert_eq!(stats.get("swaps").and_then(Value::as_u64), Some(1), "{reply:?}");

    // shutdown verb stops the server; the accept loop joins cleanly.
    let ack = send_line(&mut reader, r#"{"cmd":"shutdown"}"#);
    assert!(is_true(&ack, "ok"), "{ack:?}");
    assert!(join.join().expect("server thread").is_ok());
    assert!(handle.is_stopped());
}

// ------------------------------------------------ metrics verb (observatory)

#[test]
fn metrics_verb_reports_schema_exact_stage_counts_and_corr_echo() {
    let ckpt = temp_ckpt("metrics", 7);
    let (addr, handle, join) = start_tcp_server(&ckpt, ServiceConfig::default());
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream);

    let dim = loader().load(&ckpt).expect("load").state_dim();
    let state_json = fixed_state(dim).iter().map(f64::to_string).collect::<Vec<_>>().join(",");
    let requests = 12u64;
    let mut corrs = Vec::new();
    for i in 0..requests {
        let resp =
            send_line(&mut reader, &format!(r#"{{"id":{i},"state":[{state_json}],"seed":{i}}}"#));
        assert!(is_true(&resp, "ok"), "{resp:?}");
        corrs.push(resp.get("corr").and_then(Value::as_u64).expect("served response carries corr"));
    }
    // Correlation IDs are minted per request: all distinct, never zero.
    let mut unique = corrs.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), corrs.len(), "correlation ids not distinct: {corrs:?}");
    assert!(corrs.iter().all(|&c| c > 0));

    // One infer request per response has passed every stage exactly once,
    // so all six per-stage histogram counts equal the request tally.
    let reply = send_line(&mut reader, r#"{"cmd":"metrics"}"#);
    assert!(is_true(&reply, "ok"), "{reply:?}");
    assert_eq!(reply.get("schema").and_then(Value::as_str), Some("spikefolio.metrics.v1"));
    let metrics = reply.get("metrics").expect("metrics map");
    let stages = metrics.get("stages").expect("stages map");
    for stage in ["accept", "parse", "queue_wait", "batch_form", "backend_infer", "render"] {
        let count = stages.get(stage).and_then(|s| s.get("count")).and_then(Value::as_u64);
        assert_eq!(count, Some(requests), "stage {stage} count mismatch: {metrics:?}");
    }
    assert_eq!(
        metrics.get("counters").and_then(|c| c.get("served")).and_then(Value::as_u64),
        Some(requests)
    );
    assert_eq!(
        metrics.get("swap").and_then(|s| s.get("last_good_version")).and_then(Value::as_u64),
        Some(1)
    );

    // The Prometheus exposition renders the same counters as text.
    let prom = send_line(&mut reader, r#"{"cmd":"metrics","format":"prometheus"}"#);
    assert!(is_true(&prom, "ok"), "{prom:?}");
    let text = prom.get("text").and_then(Value::as_str).expect("prometheus text");
    assert!(text.contains(&format!("spikefolio_serve_served_total {requests}")), "{text}");
    assert!(text.contains("spikefolio_serve_stage_latency_seconds_bucket"), "{text}");

    handle.shutdown();
    assert!(join.join().expect("server thread").is_ok());
}

/// A backend that sleeps through every batch: what a wedged or
/// mis-deployed model looks like to the SLO watchdog.
struct SlowBackend {
    dim: usize,
    delay_ms: u64,
}

impl InferenceBackend for SlowBackend {
    fn name(&self) -> &str {
        "slow-test"
    }
    fn state_dim(&self) -> usize {
        self.dim
    }
    fn action_dim(&self) -> usize {
        3
    }
    fn infer_batch(&self, _states: &[f64], seeds: &[u64]) -> Vec<Vec<f64>> {
        std::thread::sleep(std::time::Duration::from_millis(self.delay_ms));
        seeds.iter().map(|_| vec![0.5, 0.25, 0.25]).collect()
    }
}

struct SlowLoader;

impl ModelLoader for SlowLoader {
    fn load(&self, _source: &str) -> Result<Box<dyn InferenceBackend>, String> {
        Ok(Box::new(SlowBackend { dim: 4, delay_ms: 5 }))
    }
}

#[test]
fn degraded_flag_trips_over_tcp_with_injected_slow_backend() {
    let store = Arc::new(ModelStore::open(Box::new(SlowLoader), "slow").expect("open store"));
    let mut config = ServiceConfig::default();
    // A 5 ms backend against a 100 µs SLO: every request burns budget.
    config.health.latency_slo_us = 100;
    let service = Service::start(store, config);
    let server =
        Server::bind("127.0.0.1:0", service, ServerOptions::default()).expect("bind loopback");
    let handle = server.handle();
    let addr = handle.addr().to_string();
    let join = std::thread::spawn(move || server.run());

    let stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream);
    for i in 0..8u64 {
        let resp = send_line(&mut reader, &format!(r#"{{"id":{i},"state":[1,1,1,1],"seed":{i}}}"#));
        assert!(is_true(&resp, "ok"), "{resp:?}");
    }
    let reply = send_line(&mut reader, r#"{"cmd":"metrics"}"#);
    let health = reply.get("metrics").and_then(|m| m.get("health")).expect("health map");
    assert!(is_true(health, "degraded"), "slow backend did not trip the watchdog: {reply:?}");
    let reasons: Vec<&str> = health
        .get("reasons")
        .and_then(Value::as_list)
        .expect("reasons list")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert!(reasons.contains(&"latency_burn"), "reasons: {reasons:?}");

    handle.shutdown();
    assert!(join.join().expect("server thread").is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Exact-count invariant under adversarial durations: however many
    /// observations land and however they are split across two
    /// histograms, the merge is bucket-exact and the total count is
    /// conserved — including extreme values (0, 1, u64::MAX).
    #[test]
    fn histogram_merge_is_exact_under_adversarial_durations(
        raw in collection::vec(0u64..=u64::MAX, 1usize..64),
        split in 0usize..64,
    ) {
        // Interleave bucket-boundary extremes with the random stream so
        // every case also exercises 0, 1, the exact-range edge (7/8),
        // and saturation at u64::MAX.
        let durations: Vec<u64> = raw
            .iter()
            .enumerate()
            .map(|(k, &v)| match k % 7 {
                0 => 0,
                1 => 1,
                2 => 7,
                3 => 8,
                4 => u64::MAX,
                _ => v,
            })
            .collect();
        let whole = LatencyHistogram::new();
        let left = LatencyHistogram::new();
        let right = LatencyHistogram::new();
        let cut = split.min(durations.len());
        for (k, &ns) in durations.iter().enumerate() {
            whole.observe_ns(ns);
            if k < cut { left.observe_ns(ns) } else { right.observe_ns(ns) }
        }
        left.merge_from(&right);
        let merged = left.snapshot();
        let direct = whole.snapshot();
        prop_assert_eq!(merged.count, durations.len() as u64);
        prop_assert_eq!(&merged.buckets, &direct.buckets);
        prop_assert_eq!(merged.max_us.to_bits(), direct.max_us.to_bits());
        // Quantiles are monotone and bounded by the exact max.
        prop_assert!(merged.p50_us <= merged.p95_us);
        prop_assert!(merged.p95_us <= merged.p99_us);
        prop_assert!(merged.p99_us <= merged.max_us);
        // Every observed duration maps into a bucket whose bounds hold it.
        for &ns in &durations {
            let idx = spikefolio_serve::metrics::bucket_index(ns);
            let (lo, hi) = spikefolio_serve::metrics::bucket_bounds_ns(idx);
            prop_assert!(lo <= ns && ns <= hi);
        }
    }
}

// ------------------------------------------------- bitwise determinism

#[test]
fn deterministic_mode_renders_bitwise_identical_response_streams() {
    let ckpt = temp_ckpt("det", 6);
    let (addr, handle, join) =
        start_tcp_server(&ckpt, ServiceConfig { deterministic: true, ..Default::default() });

    let dim = {
        let backend = loader().load(&ckpt).expect("load");
        backend.state_dim()
    };
    let run_stream = || {
        let stream = TcpStream::connect(&addr).expect("connect");
        let mut reader = BufReader::new(stream);
        let mut lines = Vec::new();
        for i in 0..16u64 {
            let mut rng = StdRng::seed_from_u64(i);
            let state: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.5..1.5)).collect();
            let state_json = state.iter().map(|x| format!("{x}")).collect::<Vec<_>>().join(",");
            let mut out = format!(r#"{{"id":{i},"state":[{state_json}],"seed":{i}}}"#);
            out.push('\n');
            reader.get_mut().write_all(out.as_bytes()).expect("write");
            let mut resp = String::new();
            reader.read_line(&mut resp).expect("read");
            lines.push(resp);
        }
        lines
    };
    let first = run_stream();
    let second = run_stream();
    assert_eq!(first, second, "deterministic mode responses differ between identical streams");

    handle.shutdown();
    assert!(join.join().expect("server thread").is_ok());
}

// ------------------------------------------------------ hostile clients

#[test]
fn oversized_line_is_refused_and_the_next_client_is_served() {
    use spikefolio_serve::MAX_LINE_BYTES;
    let ckpt = temp_ckpt("long_line", 6);
    let (addr, handle, join) = start_tcp_server(&ckpt, ServiceConfig::default());

    // 2 MiB with no newline, from a separate thread: the server may close
    // before the client finishes writing, so write errors are expected.
    let stream = TcpStream::connect(&addr).expect("connect");
    stream.set_read_timeout(Some(std::time::Duration::from_secs(10))).expect("read timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    let flood = std::thread::spawn(move || {
        let block = vec![b'['; 64 * 1024];
        for _ in 0..(2 * MAX_LINE_BYTES) / block.len() {
            if writer.write_all(&block).is_err() {
                break;
            }
        }
    });
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).expect("read refusal");
    flood.join().expect("flood thread");
    let reply = parse(reply.trim()).expect("refusal is JSON");
    assert!(!is_true(&reply, "ok"), "{reply:?}");
    assert_eq!(reply.get("error").and_then(Value::as_str), Some("line_too_long"), "{reply:?}");

    // The server is still up for the next client, and counted the refusal.
    let mut reader = BufReader::new(TcpStream::connect(&addr).expect("reconnect"));
    assert!(is_true(&send_line(&mut reader, r#"{"cmd":"ping"}"#), "ok"));
    let metrics = send_line(&mut reader, r#"{"cmd":"metrics"}"#);
    let parse_errors = metrics
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get("parse_errors"))
        .and_then(Value::as_u64);
    assert_eq!(parse_errors, Some(1), "{metrics:?}");

    let ack = send_line(&mut reader, r#"{"cmd":"shutdown"}"#);
    assert!(is_true(&ack, "ok"), "{ack:?}");
    assert!(join.join().expect("server thread").is_ok());
    assert!(handle.is_stopped());
}
