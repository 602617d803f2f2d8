#!/usr/bin/env bash
# Workspace CI gate. Run from the repository root: scripts/ci.sh
#
# Order is cheapest-first so style failures surface before long test
# runs: formatting, lints, rustdoc, the determinism audit (lsl-audit),
# then the workspace test suite. Tests build in debug, so every runtime
# invariant check (a `debug_assert!`) is live in every crate's tests.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (workspace, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (workspace, rustdoc warnings are errors)"
# A deleted or private item must not leave a dangling doc link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> no payload oracle in program code"
# A sink certifies blocks against the digests that travel in band. A
# helper that regenerates the payload pattern to hash it is something
# no real sink could run, so it lives in tests only.
if grep -rn expected_block_digest crates/*/src src; then
  echo "expected_block_digest is test-only (crates/session/tests/)"; exit 1
fi

echo "==> no whole-stream hasher"
# Every attempt's trailer is the hash list of its 64 KiB blocks, hashed
# eight at a time (md5_many), v1 included. A scalar MD5 over the whole
# stream in the session or real-socket crates would bring back a second
# evidence rule; their tests use the one-shot md5 function.
if grep -rnw Md5 crates/session/src crates/realnet/src; then
  echo "Md5 found: hash whole blocks with md5_many (or md5), not a whole-stream Md5"; exit 1
fi

echo "==> lsl-audit (static determinism analyzer, SARIF artifact)"
# The analyzer must (a) pass clean, (b) emit a well-formed SARIF
# artifact for CI annotation, and (c) stay fast enough to run on every
# push: the analysis itself (release binary, build cost excluded) has a
# 10-second budget over the whole workspace.
cargo build -q --release -p lsl-audit
mkdir -p target/audit
audit_start=$SECONDS
target/release/lsl-audit --format sarif > target/audit/lsl-audit.sarif \
  || { echo "lsl-audit found violations:"; target/release/lsl-audit || true; exit 1; }
audit_elapsed=$(( SECONDS - audit_start ))
if [ "$audit_elapsed" -gt 10 ]; then
  echo "lsl-audit took ${audit_elapsed}s (budget: 10s)"; exit 1
fi
grep -q '"version": "2.1.0"' target/audit/lsl-audit.sarif \
  || { echo "SARIF artifact missing version"; exit 1; }
grep -q '"name": "lsl-audit"' target/audit/lsl-audit.sarif \
  || { echo "SARIF artifact missing tool driver"; exit 1; }
grep -q '"id": "nondet-taint"' target/audit/lsl-audit.sarif \
  || { echo "SARIF artifact missing rule table"; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 -c "import json, sys; json.load(open(sys.argv[1]))" target/audit/lsl-audit.sarif \
    || { echo "SARIF artifact is not valid JSON"; exit 1; }
fi

echo "==> cargo test (workspace)"
cargo test -q --workspace

echo "==> perfbench build (the benchmark is its own workspace)"
# `cargo test --workspace` never compiles perfbench, so a session-API
# change could break the benchmark unnoticed; build it here.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> perfbench workloads (one second each, outputs checked)"
# perfbench exits 0 even when a session's output is wrong; its verdict
# is the last line of stdout, one JSON object. Run each workload briefly
# and require every session correct and none failed.
for run in paper_bulk:401 fault_storm:402 realnet_relay:403; do
  workload=${run%:*} seed=${run#*:}
  last=$(perfbench/target/release/lsl-perfbench --workload "$workload" --seed "$seed" \
    --seconds 1 --trace 0 | tail -n 1)
  case "$last" in
    *'"correct": true'*'"failed": 0,'*) echo "  $workload: correct, 0 failed" ;;
    *) echo "perfbench $workload (seed $seed): outputs not correct: $last"; exit 1 ;;
  esac
done

echo "==> fault campaign smokes (drills, chaos, striped, routing)"
# One release build of the campaign binary, then each campaign's CI
# gate. Every run must satisfy the contract — terminate, end in verified
# delivery or a typed SessionError, never re-send a verified block —
# and the first runs must
# fingerprint byte-identically when re-run sequentially; a violation
# ships the run's telemetry, shrinks its storm to a minimal drill and
# fails the gate.
cargo build -q --release -p lsl-bench --bin campaign
campaign=target/release/campaign
check_dat() { # file, columns...
  local f="results/$1.dat"; shift
  [ -s "$f" ] || { echo "$f missing or empty"; exit 1; }
  for col in "$@"; do
    grep -q "$col" "$f" || { echo "$f missing column: $col"; exit 1; }
  done
}
# Scripted drills: a depot crash must fail over and verify the digest;
# an access-link flap must be survived by reconnect backoff.
"$campaign" faults --smoke
# Seeded random fault storms against the failover topology.
"$campaign" chaos --smoke
check_dat chaos_outcomes duration_s resume_offset
# RAIL-style striped sessions on the three-depot topology: every storm
# includes a targeted permanent depot kill mid-transfer; every block is
# certified on Done, the sink's stripe_regrants counter stays zero, and
# striping must beat the single cascade on the calm comparison seed.
"$campaign" striped --smoke
check_dat striped_outcomes duration_s certified_blocks stolen_blocks regrants
# The closed NWS loop: each storm runs with blind next-in-list recovery
# and again with forecast-driven selection + proactive re-routing; the
# forecast arm must complete at least as many transfers at least as
# fast (in aggregate).
"$campaign" routing --smoke
check_dat routing_outcomes static_duration_s forecast_duration_s forecast_reroutes

echo "==> observability smoke (telemetry determinism, trace shape, idle overhead)"
# The obs-report gate replays a chaos seed twice (telemetry must be
# byte-identical), validates the exported Chrome trace (schema version,
# parseable events, per-pid monotone ts), and measures the netsim event
# rate with recording compiled in but idle — it must stay within 3% of
# the committed BENCH_netsim.json figure.
cargo run -q --release -p lsl-bench --bin obs-report -- --smoke

echo "==> perfetto trace artifact (seed 3 timeline under results/obs/)"
# Full artifact path: flight-recorder summary + trace.json + spans +
# metrics for one stormy seed, then validate the written file's shape
# (same validator the smoke gate uses, applied to the on-disk artifact).
cargo run -q --release -p lsl-bench --bin obs-report -- --seed 3
if command -v python3 >/dev/null 2>&1; then
  python3 -c "import json, sys; json.load(open(sys.argv[1]))" results/obs/chaos_seed3.trace.json \
    || { echo "results/obs/chaos_seed3.trace.json is not valid JSON"; exit 1; }
fi
grep -q '"schemaVersion": 1' results/obs/chaos_seed3.trace.json \
  || { echo "trace artifact missing schemaVersion"; exit 1; }

echo "==> bench smoke (BENCH_netsim.json shape)"
# BENCH_OUT keeps the smoke run from clobbering the committed
# full-measurement BENCH_netsim.json at the repo root.
# Absolute: cargo runs the bench with CWD = crates/bench.
smoke_json="$PWD/target/BENCH_netsim.smoke.json"
BENCH_SMOKE=1 BENCH_OUT="$smoke_json" cargo bench -q -p lsl-bench --bench micro
for key in netsim_events_per_sec netsim_timer_events_per_sec \
           run_wall_s_1mb_direct run_wall_s_1mb_depot \
           run_wall_s_16mb_direct run_wall_s_16mb_depot run_wall_s_16mb_ranged \
           run_wall_s_1mb_striped \
           md5_mb_per_s md5_lanes_mb_per_s \
           realnet_relay_mb_per_s campaign_jobs campaign_wall_s_jobs1 campaign_wall_s_jobsN \
           segment_encode_decode_ns lsl_header_encode_decode_ns nws_mixture_update_x100_ns \
           baseline; do
  grep -q "\"$key\"" "$smoke_json" \
    || { echo "$smoke_json missing key: $key"; exit 1; }
done
if command -v python3 >/dev/null 2>&1; then
  python3 -c "import json, sys; json.load(open(sys.argv[1]))" "$smoke_json" \
    || { echo "$smoke_json is not valid JSON"; exit 1; }
fi

echo "==> bench regression gate (smoke rate vs committed BENCH_netsim.json)"
# The smoke run uses a tiny event budget, so its rates sit well below a
# full measurement (observed ~75-100% of committed on a quiet machine).
# The gate is deliberately generous — smoke must reach 50% of the
# committed figure — so it only trips on structural regressions (an
# accidental O(n) scan, a lost fast path), never on machine noise. The
# 16 MiB loopback relay rate (real sockets, digest verified as it
# arrives) and the eight-lane MD5 rate (a lost AVX2 path reads about
# 15% of committed) are held to the same 50% rule. The
# 16 MiB case 1 wall times (direct, via the depot, and the ranged
# attempt both ends certify block by block) and the calm 1 MiB session
# striped over three cascades get the same rule the other way up: a
# smoke run may take at most 2x the committed time (the per-byte path;
# one run each, no warm-up).
if command -v python3 >/dev/null 2>&1; then
  python3 - "$smoke_json" BENCH_netsim.json <<'PY'
import json, sys
smoke, committed = (json.load(open(p)) for p in sys.argv[1:3])
ok = True
for key in ("netsim_events_per_sec", "netsim_timer_events_per_sec",
            "realnet_relay_mb_per_s", "md5_lanes_mb_per_s"):
    got, want = smoke[key], committed[key]
    if got < 0.5 * want:
        print(f"regression: smoke {key} = {got:.0f} < 50% of committed {want:.0f}")
        ok = False
    else:
        print(f"  {key}: smoke {got:.0f} vs committed {want:.0f} (ok)")
for key in ("run_wall_s_16mb_direct", "run_wall_s_16mb_depot", "run_wall_s_16mb_ranged",
            "run_wall_s_1mb_striped"):
    got, want = smoke[key], committed[key]
    if got > 2 * want:
        print(f"regression: smoke {key} = {got:.3f} s > 2x committed {want:.3f} s")
        ok = False
    else:
        print(f"  {key}: smoke {got:.3f} s vs committed {want:.3f} s (ok)")
sys.exit(0 if ok else 1)
PY
fi

echo "==> scale bench smoke (BENCH_scale.json shape)"
# Same pattern as the micro smoke: a budget-limited run into target/,
# shape-checked against the keys the committed curve carries. The
# committed BENCH_scale.json is validated too, so a hand-edit that
# breaks its shape fails CI even without re-running the full bench.
scale_smoke_json="$PWD/target/BENCH_scale.smoke.json"
BENCH_SMOKE=1 BENCH_SCALE_OUT="$scale_smoke_json" cargo bench -q -p lsl-bench --bench scale
for f in "$scale_smoke_json" BENCH_scale.json; do
  for key in timer_curve session_curve baseline armed sessions events_per_sec \
             striped sessions_per_sec single_cascade_sessions_per_sec; do
    grep -q "\"$key\"" "$f" || { echo "$f missing key: $key"; exit 1; }
  done
  if command -v python3 >/dev/null 2>&1; then
    python3 -c "import json, sys; json.load(open(sys.argv[1]))" "$f" \
      || { echo "$f is not valid JSON"; exit 1; }
  fi
done

echo "CI: all gates passed"
