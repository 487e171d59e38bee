#!/usr/bin/env bash
# Repository gate: formatting, lints (warnings are errors), and the full
# test suite. Run from the workspace root before pushing.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (rustdoc warnings are errors: no dangling intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo test -q"
cargo test -q

echo "==> chaos suite (fault injection + property tests)"
cargo test -q -p spikefolio --test fault_injection

echo "==> live-desk chaos acceptance (gate invariants, bitwise replay)"
cargo test -q -p spikefolio --test live_desk

echo "==> sparse-kernel equivalence battery (dense vs event-driven, bitwise)"
cargo test -q -p spikefolio --test sparse_kernels

# The release build vectorizes the tiled kernels (target-cpu=native), the
# debug build does not, so a kernel whose bits depended on vector width
# would only fail here. The spikefolio-snn unit tests hold the
# network-level dense-vs-event battery (forward traces and backward
# gradients at b1/b8/b32), whose dense reference exists only in test
# builds. The spikefolio-tensor unit tests pin the drive's register tiles
# at every tile width against the dense GEMM. batched_snn pins each batch
# row against its own B = 1 run, the path every single decision takes.
# The serving reply pins are the only ones that drive paper-scale
# micro-batches of 4 and 8 through the event-driven drive, whose 128-wide
# layers keep the streaming form. strategy_invariants pins every weight
# ANTICOR and ONS choose on the scenario matrix's smoke windows. The desk
# artifact pin covers every round outcome the desk books, in the release
# code perfbench's desk-rounds workload runs. The checkpoint pin and the
# codec's differential tests (table-driven CRC-32 and hex against bytewise
# references) run here too, since the release build is what vectorizes
# those loops.
echo "==> bitwise pins in the release build (trained weights, sparse kernels, batch composition, classical weights, served replies, checkpoint bytes, desk artifacts)"
cargo test -q --release -p spikefolio --test end_to_end_training --test sparse_kernels \
  --test batched_snn --test strategy_invariants
cargo test -q --release -p spikefolio-snn -p spikefolio-tensor --lib
cargo test -q --release -p spikefolio --lib -- --exact \
  serving::tests::float_backend_replies_are_pinned serving::tests::loihi_backend_replies_are_pinned \
  checkpoint::tests::checkpoint_files_are_pinned_bitwise \
  checkpoint::tests::decoder_matches_reference_on_damaged_real_files \
  checkpoint::tests::decoder_matches_reference_on_unusual_tokens_and_separators \
  checkpoint::tests::decoder_matches_reference_on_every_ascii_byte_at_every_digit
cargo test -q --release -p spikefolio-resilience --lib -- crc::tests::
cargo test -q --release -p spikefolio --test live_desk -- --exact desk_artifacts_are_pinned_bitwise

echo "==> cargo bench --no-run (benches must keep compiling)"
cargo bench --no-run --workspace

echo "==> perfbench unit tests (its own cargo workspace: keeps its calls into the crates compiling)"
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "==> bench-baseline smoke (pin + self-compare must pass)"
mkdir -p target
cargo run --release -q --bin spikefolio -- bench run --smoke --seed 7 \
  --out target/bench_smoke.json
cargo run --release -q --bin spikefolio -- bench compare target/bench_smoke.json --smoke --seed 7
python3 -c "import json; d=json.load(open('target/bench_smoke.json')); \
e={x['name']: x['ops'] for x in d['entries']}; f=e['forward/b32']; \
assert f['sparse_events'] == f['synops'] > 0, \
    f\"kernel event tally {f['sparse_events']} != synops {f['synops']}\"; \
print(f\"    forward/b32 sparse_events == synops == {f['synops']}\")"

echo "==> profile smoke (chrome trace must be valid JSON)"
cargo run --release -q --bin spikefolio -- profile --smoke --seed 7 \
  --trace target/profile_trace.json >/dev/null
python3 -c "import json,sys; d=json.load(open('target/profile_trace.json')); \
events=d['traceEvents']; assert events, 'empty trace'; \
print(f'    profile_trace.json OK ({len(events)} events)')" 2>/dev/null \
  || test -s target/profile_trace.json

echo "==> serve smoke (loopback server, seeded checkpoint, deterministic loadgen)"
cargo run --release -q --bin spikefolio -- checkpoint init target/serve_smoke.ckpt \
  --smoke --seed 7
cargo run --release -q --bin spikefolio -- loadgen --smoke \
  --checkpoint target/serve_smoke.ckpt --seed 7

echo "==> hostile-client smoke (oversized and deeply nested lines, then a loadgen client)"
cargo run --release -q --bin spikefolio -- serve --checkpoint target/serve_smoke.ckpt \
  --smoke --addr 127.0.0.1:0 > target/serve_hostile.log 2>&1 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
HOSTILE_ADDR=""
for _ in $(seq 1 50); do
  HOSTILE_ADDR=$(sed -n 's/^serving .* on \([0-9.]*:[0-9]*\) .*$/\1/p' target/serve_hostile.log | head -1)
  [ -n "$HOSTILE_ADDR" ] && break
  sleep 0.1
done
test -n "$HOSTILE_ADDR" || { echo "server never reported its address"; cat target/serve_hostile.log; exit 1; }
# One client floods a 2 MiB line (twice MAX_LINE_BYTES) from a writer
# thread, since the server may close before the write ends; another sends
# a line nested 10,000 levels deep. Each must get its typed error.
python3 - "$HOSTILE_ADDR" <<'PYEOF'
import json, socket, sys, threading
host, port = sys.argv[1].rsplit(":", 1)

def reply_line(s):
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = s.recv(65536)
        if not chunk:
            break
        buf += chunk
    return json.loads(buf.decode())

s = socket.create_connection((host, int(port)), timeout=10)
def flood():
    try:
        s.sendall(b"[" * (2 << 20))
    except OSError:
        pass
writer = threading.Thread(target=flood)
writer.start()
resp = reply_line(s)
writer.join()
s.close()
assert resp.get("ok") is False and resp.get("error") == "line_too_long", f"oversized line: {resp}"

s = socket.create_connection((host, int(port)), timeout=10)
s.sendall(b"[" * 10000 + b"]" * 10000 + b"\n")
resp = reply_line(s)
s.close()
assert resp.get("ok") is False and resp.get("error") == "parse", f"deep nesting: {resp}"
assert "nesting deeper than" in resp.get("message", ""), f"deep nesting: {resp}"
print("    oversized line -> line_too_long; 10,000-deep line -> parse")
PYEOF
cargo run --release -q --bin spikefolio -- loadgen --addr "$HOSTILE_ADDR" --requests 64 --seed 7 \
  > target/loadgen_hostile.log
grep -q "  errors 0$" target/loadgen_hostile.log \
  || { echo "server answered the next client with errors"; cat target/loadgen_hostile.log; exit 1; }
python3 - "$HOSTILE_ADDR" <<'PYEOF'
import socket, sys
host, port = sys.argv[1].rsplit(":", 1)
s = socket.create_connection((host, int(port)), timeout=10)
s.sendall(b'{"cmd":"shutdown"}\n')
s.recv(4096)
s.close()
PYEOF
wait "$SERVE_PID"
trap - EXIT
echo "    next client served: $(sed -n 's/^ *\(served .*\)$/\1/p' target/loadgen_hostile.log)"

echo "==> observatory smoke (metrics verb schema + exact stage counts under load)"
OBS_REQUESTS=192
cargo run --release -q --bin spikefolio -- serve --checkpoint target/serve_smoke.ckpt \
  --smoke --addr 127.0.0.1:0 --trace-sample 64 --trace target/serve_trace.json \
  > target/serve_obs.log 2>&1 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
# The server prints its bound address ("serving ... on HOST:PORT ...") on
# startup; poll the log until it appears.
OBS_ADDR=""
for _ in $(seq 1 50); do
  OBS_ADDR=$(sed -n 's/^serving .* on \([0-9.]*:[0-9]*\) .*$/\1/p' target/serve_obs.log | head -1)
  [ -n "$OBS_ADDR" ] && break
  sleep 0.1
done
test -n "$OBS_ADDR" || { echo "server never reported its address"; cat target/serve_obs.log; exit 1; }
cargo run --release -q --bin spikefolio -- loadgen --addr "$OBS_ADDR" \
  --requests "$OBS_REQUESTS" --seed 7 --out target/loadgen_obs.json
# Mid-life dashboard scrape: one serve-top frame must render.
cargo run --release -q --bin spikefolio -- serve-top --addr "$OBS_ADDR" --iterations 1 \
  | grep -q "spikefolio serve-top" || { echo "serve-top frame missing"; exit 1; }
# Scrape the snapshot and validate: schema tag, and each of the six stage
# histogram counts exactly equals the loadgen request tally (the
# observatory's no-lost-no-double-count invariant).
python3 - "$OBS_ADDR" "$OBS_REQUESTS" <<'PYEOF'
import json, socket, sys
addr, expected = sys.argv[1], int(sys.argv[2])
host, port = addr.rsplit(":", 1)
s = socket.create_connection((host, int(port)), timeout=10)
s.sendall(b'{"cmd":"metrics"}\n')
buf = b""
while not buf.endswith(b"\n"):
    chunk = s.recv(65536)
    if not chunk:
        break
    buf += chunk
s.close()
resp = json.loads(buf.decode())
assert resp.get("ok") is True, f"metrics verb failed: {resp}"
assert resp.get("schema") == "spikefolio.metrics.v1", f"schema: {resp.get('schema')}"
m = resp.get("metrics", {})
stages = m.get("stages", {})
for stage in ("accept", "parse", "queue_wait", "batch_form", "backend_infer", "render"):
    count = stages.get(stage, {}).get("count")
    assert count == expected, f"stage {stage}: count {count} != issued requests {expected}"
served = m.get("counters", {}).get("served")
assert served == expected, f"served {served} != {expected}"
health = m.get("health", {})
assert isinstance(health.get("degraded"), bool), "health.degraded missing"
trace = m.get("trace", {})
assert trace.get("sample_every") == 64, f"trace sampling: {trace}"
print(f"    metrics schema OK; all 6 stage counts == {expected}; "
      f"{trace.get('sampled', 0)} requests trace-sampled")
PYEOF
# Clean shutdown via the protocol, then the sampled request trace must be
# valid chrome-trace JSON.
python3 - "$OBS_ADDR" <<'PYEOF'
import socket, sys
host, port = sys.argv[1].rsplit(":", 1)
s = socket.create_connection((host, int(port)), timeout=10)
s.sendall(b'{"cmd":"shutdown"}\n')
s.recv(4096)
s.close()
PYEOF
wait "$SERVE_PID"
trap - EXIT
python3 -c "import json; d=json.load(open('target/serve_trace.json')); \
events=[e for e in d['traceEvents'] if e.get('name','').startswith('serve/req/')]; \
assert events, 'no sampled request spans in trace'; \
print(f'    serve_trace.json OK ({len(events)} request spans)')"

echo "==> Loihi serve smoke (quantized chip backend over the wire; bitwise replay)"
cargo run --release -q --bin spikefolio -- serve --checkpoint target/serve_smoke.ckpt \
  --backend loihi --smoke --deterministic --addr 127.0.0.1:0 > target/serve_loihi.log 2>&1 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
LOIHI_ADDR=""
for _ in $(seq 1 50); do
  LOIHI_ADDR=$(sed -n 's/^serving .* on \([0-9.]*:[0-9]*\) (backend loihi-quantized)$/\1/p' \
    target/serve_loihi.log | head -1)
  [ -n "$LOIHI_ADDR" ] && break
  sleep 0.1
done
test -n "$LOIHI_ADDR" || { echo "Loihi server never reported its address"; cat target/serve_loihi.log; exit 1; }
cargo run --release -q --bin spikefolio -- loadgen --addr "$LOIHI_ADDR" --requests 64 --seed 7 \
  --check-determinism > target/loadgen_loihi.log
grep -q "  errors 0$" target/loadgen_loihi.log \
  || { echo "Loihi serve answered with errors"; cat target/loadgen_loihi.log; exit 1; }
grep -q "determinism: bitwise identical across runs" target/loadgen_loihi.log \
  || { echo "Loihi replies differ across runs"; cat target/loadgen_loihi.log; exit 1; }
python3 - "$LOIHI_ADDR" <<'PYEOF'
import socket, sys
host, port = sys.argv[1].rsplit(":", 1)
s = socket.create_connection((host, int(port)), timeout=10)
s.sendall(b'{"cmd":"shutdown"}\n')
s.recv(4096)
s.close()
PYEOF
wait "$SERVE_PID"
trap - EXIT
echo "    Loihi serve OK: $(sed -n 's/^ *\(served .*\)$/\1/p' target/loadgen_loihi.log)"

echo "==> live-desk smoke (seeded fault script; serving must never regress)"
rm -rf target/live_desk_smoke
# Seed 5 is picked so the faulted rounds reach their fault's pipeline
# stage (a round the reward floor rejects never attempts its swap, so a
# swapio fault scheduled there would go unexercised).
cargo run --release -q --bin spikefolio -- live-desk --seed 5 --rounds 4 --epochs 2 \
  --faults "corrupt@1,nan@2,swapio@3" --dir target/live_desk_smoke \
  --out target/live_desk_smoke/report.json
python3 - <<'PYEOF'
import json
d = json.load(open("target/live_desk_smoke/report.json"))
assert d["schema"] == "spikefolio.desk.v1", f"schema: {d.get('schema')}"
gated = set(d["gate_passed_versions"])
for r in d["rounds"]:
    s, i = r["serving_reward"], r["incumbent_reward"]
    if s == s and i == i:  # both finite (NaN != NaN)
        assert s >= i, f"round {r['round']}: served {s} regressed below incumbent {i}"
    assert r["served_version"] in gated, \
        f"round {r['round']} served ungated v{r['served_version']}"
assert d["final_version"] in gated, f"final v{d['final_version']} ungated"
assert d["recoveries"] >= 3, f"3 injected faults, only {d['recoveries']} recoveries"
assert d["degraded"] is False, "desk must end healthy after recovering every fault"
assert d["ended_early"] is False, "feed must not stall in the smoke"
print(f"    live-desk OK: {d['promotions']} promoted, {d['quarantines']} quarantined, "
      f"{d['recoveries']} recoveries, serving v{d['final_version']} "
      f"(crc {d['final_weights_crc']:#010x}), degraded cleared")
PYEOF
# The desk-top dashboard must render one frame from the final status file.
cargo run --release -q --bin spikefolio -- desk-top \
  --status target/live_desk_smoke/desk-top.json --iterations 1 \
  | grep -q "spikefolio desk-top" || { echo "desk-top frame missing"; exit 1; }

echo "==> blackbox crash smoke (panic mid-round must leave an ordered flight-recorder dump)"
rm -rf target/blackbox_smoke
cargo run --release -q --bin spikefolio -- live-desk --seed 5 --rounds 2 --epochs 2 \
  --faults "crash@1" --dir target/blackbox_smoke > target/blackbox_smoke.log 2>&1 \
  && { echo "crash fault did not kill the desk"; exit 1; } || true
python3 - <<'PYEOF'
import json
d = json.load(open("target/blackbox_smoke/blackbox.json"))
assert d["schema"] == "spikefolio.blackbox.v1", f"schema: {d.get('schema')}"
ev = d["events"]
assert ev, "empty dump"
seqs = [e["seq"] for e in ev]
assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs), f"unordered tail: {seqs}"
assert ev[-1]["stage"] == "panic", f"last event {ev[-1]['stage']!r} is not the panic"
stages = [e["stage"] for e in ev]
ci = stages.index("fault/crash")
assert ci < len(stages) - 1, "crash event must precede the panic"
assert ev[ci]["round"] == 1, f"crash recorded for round {ev[ci].get('round')}, scheduled for 1"
print(f"    blackbox dump OK: {len(ev)} events, ordered tail ends at the panic (seq {seqs[-1]})")
PYEOF

echo "==> lineage ledger smoke (verb renders; JSON schema checks out)"
cargo run --release -q --bin spikefolio -- lineage target/live_desk_smoke/lineage.jsonl \
  | grep -q "round" || { echo "lineage table missing"; exit 1; }
cargo run --release -q --bin spikefolio -- lineage target/live_desk_smoke/lineage.jsonl --json \
  > target/lineage_smoke.json
python3 - <<'PYEOF'
import json
d = json.load(open("target/lineage_smoke.json"))
assert d["schema"] == "spikefolio.lineage-log.v1", f"schema: {d.get('schema')}"
assert d["skipped"] == 0, f"{d['skipped']} torn/corrupt ledger lines in a clean run"
assert len(d["entries"]) == 4, f"{len(d['entries'])} ledger entries != 4 desk rounds"
print(f"    lineage ledger OK: {len(d['entries'])} entries, 0 skipped")
PYEOF

echo "==> scenario matrix smoke (2 universes x 2 scenarios; schema + determinism + coverage)"
# The first run uses every core; the second is pinned to one, so the cmp
# also checks that the scorecard does not depend on the core count.
cargo run --release -q --bin spikefolio -- scenarios run \
  --universes crypto,equity --scenarios calm,flash-crash --smoke --seed 11 \
  --json --out target/scenario_smoke_a.json > /dev/null
taskset -c 0 cargo run --release -q --bin spikefolio -- scenarios run \
  --universes crypto,equity --scenarios calm,flash-crash --smoke --seed 11 \
  --json --out target/scenario_smoke_b.json > /dev/null
cmp target/scenario_smoke_a.json target/scenario_smoke_b.json \
  || { echo "scorecard differs between all cores and one core under a pinned seed"; exit 1; }
python3 - <<'PYEOF'
import json
d = json.load(open("target/scenario_smoke_a.json"))
assert d["schema"] == "spikefolio.scorecard.v1", f"schema: {d.get('schema')}"
assert d["seed"] == 11, f"seed: {d.get('seed')}"
universes, scenarios = ["crypto", "equity"], ["calm", "flash-crash"]
strategies = ["SDP", "DRL[Jiang]", "EIIE", "DDPG", "ONS", "ANTICOR", "UCRP", "Buy and Hold"]
assert d["universes"] == universes and d["scenarios"] == scenarios, \
    f"axes: {d['universes']} x {d['scenarios']}"
assert set(d["strategies"]) == set(strategies), f"strategies: {d['strategies']}"
cells = {(c["universe"], c["scenario"], c["strategy"]): c for c in d["cells"]}
assert len(cells) == len(d["cells"]) == len(universes) * len(scenarios) * len(strategies), \
    f"{len(d['cells'])} cells (after dedup {len(cells)})"
for u in universes:
    for s in scenarios:
        for strat in strategies:
            c = cells[(u, s, strat)]
            for k in ("reward", "sharpe", "max_drawdown", "turnover", "cost_drag", "final_value"):
                assert isinstance(c[k], (int, float)) and c[k] == c[k], f"{(u,s,strat)}: bad {k}"
            assert c["final_value"] > 0, f"{(u,s,strat)}: value {c['final_value']}"
assert "wall_s" not in json.dumps(d), "scorecard must not carry wall-clock fields"
print(f"    scenario matrix OK: {len(d['cells'])} cells, deterministic replay, all strategies scored")
PYEOF

echo "CI checks passed."
