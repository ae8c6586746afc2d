#!/usr/bin/env bash
# Tier-1 gate: exactly what CI runs. Keep this in sync with README.md.
# --offline: the build environment has no registry access; all deps must
# already be vendored or cached.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --workspace --release --offline
cargo build --workspace --examples --offline
cargo test --workspace -q --offline
# perfbench measures the release build, where the lane-batched native
# executors are vectorised: pin their bit-identity to the scalar arithmetic
# and to the simulation in release too.
cargo test --release --offline -q -p fft-math --test lanes
cargo test --release --offline -q -p bifft --test replay
# Each in-core plan's launch list against its functional launches, over
# every shape with axes in {16, 32, 64} on all four cards; only the release
# build also runs the 256³ cases (about 12 s).
cargo test --release --offline -q -p bifft --test launch_sweep
# The gateway's wire codec in the build perfbench measures: a warm encode
# into a reused buffer and a warm decode allocate nothing, and streams of
# frames (some corrupted) decode alike however the reads split them.
cargo test --release --offline -q -p fft-gate --test codec_allocs --test frame_stream_fuzz
cargo fmt --all -- --check
# Keep the public API clippy-clean and documented: the workspace crates carry
# #![warn(missing_docs)]; -D warnings promotes that (and deprecated calls
# surviving a migration) to errors here.
cargo clippy --workspace --all-targets --offline -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
# The standalone perfbench package (its own workspace, see BENCHMARK.json)
# calls the gpu-sim/bifft/serve/gate APIs directly; build and test it here so
# an API change cannot break the benchmark unnoticed.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --release --offline --manifest-path perfbench/Cargo.toml
# Functional smokes of paper-kernel and the serve workloads: perfbench
# exits non-zero unless every output matches the oracle and same-seed (and,
# for gate-small, wire) reports are byte-identical. paper-kernel's 1 s run
# transforms each plan twice, so the second five-step, six-step and
# cufft-like transforms replay their launches natively and are checked
# against the oracle like the first.
# serve-pipeline is the one workload that runs DAGs, volumes and the shared
# single/DAG queue through those checks.
for w in paper-kernel serve-small serve-pipeline gate-small; do
    cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$w" --seed 1 --seconds 1 --trace 0
done
# gate-small traced: the wire path under the span recorder, plus perfbench's
# codec probe, which encodes and decodes a whole block of Submit frames.
cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
    --workload gate-small --seed 1 --seconds 1 --trace 1
# paper-kernel again on perfbench's held-out seed (HELD_OUT_SEED), whose
# volumes seed 1 never draws: the replayed executors meet the oracle on
# inputs no tuning saw.
cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
    --workload paper-kernel --seed 6840135908842086438 --seconds 1 --trace 0
# Shapes outside a planner's envelope are typed failures (exit 1), never a
# panic (exit 101): a five-step Y of 512, a Y of 1024 (planned before its
# 128 MiB host volume would be built), and out-of-core slabs thinner than
# the 16 planes an in-slab six-step plan needs.
for cmd in "fft3d --dims 16x512x16" "fft3d --dims 16x1024x1024" \
    "profile --algo out-of-core --n 16"; do
    status=0
    target/release/$cmd > /dev/null 2>&1 || status=$?
    [ "$status" -eq 1 ] || { echo "ci: '$cmd' exited $status, want 1" >&2; exit 1; }
done
# Benchmark-regression gate: the quick grid (64³, all algorithms × cards,
# and every serving-derived section) against the committed baseline, with
# every cell under the validation layer (DESIGN.md §11). All figures are
# modelled, so the comparison is exact and machine-independent; checking is
# purely functional, so it gates the same timings as an unchecked run. What
# each section gates is its field table in crates/bench/src/bench.rs
# (DESIGN.md §10). Fails on a gated regression or any hazard diagnostic.
# Refresh the baseline with
#   cargo run --release -p fft-bench --bin bifft-bench -- --quick --out crates/bench/baselines/bench-quick.json
cargo run --release -p fft-bench --bin bifft-bench --offline -- \
    --quick --check-hazards --check crates/bench/baselines/bench-quick.json
# Serving smoke: a small deterministic fft-serve load run with every card
# under the same validation layer. Exits non-zero on any hazard diagnostic
# anywhere in the serving stack (DESIGN.md §12). The run also writes its
# telemetry document (DESIGN.md §13), which the follow-up invocation
# re-reads and validates: schema must parse and the recorded SLO verdict
# must be ok, so a latency-tail or error-budget violation fails CI here.
mkdir -p target
cargo run --release -p fft-serve --bin fft-serve --offline -- \
    --smoke --check-hazards --metrics-out target/ci-metrics.json \
    --attr-out target/ci-attr.json --attr-audit
cargo run --release -p fft-serve --bin fft-serve --offline -- \
    --validate-metrics target/ci-metrics.json
# The reader parses the whole document: a copy with one value that is not
# JSON must fail validation, not pass on the keys it still finds.
sed 's/"tick_s": [^,]*/"tick_s": garbage/' target/ci-metrics.json \
    > target/ci-metrics-corrupt.json
if cargo run --release -p fft-serve --bin fft-serve --offline -- \
    --validate-metrics target/ci-metrics-corrupt.json; then
    echo "ci: --validate-metrics accepted a corrupted metrics document" >&2
    exit 1
fi
# Attribution gate (DESIGN.md §15): --attr-audit above already failed the
# smoke run if any completed request's time ledger did not balance
# (category sum == e2e latency within 1e-9 s). On top of that, a second
# same-seed smoke run must export a byte-identical attribution document —
# the ledger is part of the deterministic surface — and fft-prof must
# accept the document (show exits non-zero on a failed conservation
# audit; the self-diff proves the diff path parses what we ship).
cargo run --release -p fft-serve --bin fft-serve --offline -- \
    --smoke --attr-out target/ci-attr-repeat.json --attr-audit
cmp target/ci-attr.json target/ci-attr-repeat.json \
    || { echo "ci: same-seed attribution documents diverged" >&2; exit 1; }
cargo run --release -p fft-serve --bin fft-prof --offline -- \
    show target/ci-attr.json
cargo run --release -p fft-serve --bin fft-prof --offline -- \
    diff target/ci-attr.json target/ci-attr-repeat.json
# Likewise a copy of the attribution document with a non-JSON line.
sed '2i ]]] not json [[[' target/ci-attr.json > target/ci-attr-corrupt.json
if cargo run --release -p fft-serve --bin fft-prof --offline -- \
    show target/ci-attr-corrupt.json; then
    echo "ci: fft-prof show accepted a corrupted attribution document" >&2
    exit 1
fi
# Multi-tenant smoke (DESIGN.md §16): the same smoke workload spread over
# 3 weighted-share tenants with lane preemption enabled, still under the
# hazard validator and the conservation audit (which now carries the
# `preempted` category). At 40000 req/s the run preempts (3 lanes; at the
# plain smoke's 5000 req/s it never does). Two same-seed runs must render
# byte-identical reports — QoS arbitration is part of the deterministic
# surface.
cargo run --release -p fft-serve --bin fft-serve --offline -- \
    --smoke --tenants 3 --preempt --rate 40000 --check-hazards --attr-audit \
    --json target/ci-qos-report.json
cargo run --release -p fft-serve --bin fft-serve --offline -- \
    --smoke --tenants 3 --preempt --rate 40000 --check-hazards --attr-audit \
    --json target/ci-qos-repeat.json
cmp target/ci-qos-report.json target/ci-qos-repeat.json \
    || { echo "ci: same-seed multi-tenant reports diverged" >&2; exit 1; }
# Pipeline smoke (DESIGN.md §17): the --workload pipeline mix (roughly a
# third of draws are convolution/docking DAGs with device-resident
# intermediates) under the hazard validator and the conservation audit,
# which carries the `resident` category for pipeline requests. The apps
# crate's served-pipeline parity tests (bit-for-bit against the direct
# correlator, strictly fewer PCIe bytes than staged submission) run
# explicitly here so a pipeline regression names this gate. Like the
# multi-tenant smoke, two same-seed runs must write byte-identical reports
# and attribution documents.
cargo test --release -p fft-apps -q --offline
for run in report repeat; do
    cargo run --release -p fft-serve --bin fft-serve --offline -- \
        --smoke --workload pipeline --check-hazards --attr-audit \
        --json "target/ci-pipe-$run.json" --attr-out "target/ci-pipe-attr-$run.json"
done
cmp target/ci-pipe-report.json target/ci-pipe-repeat.json \
    || { echo "ci: same-seed pipeline reports diverged" >&2; exit 1; }
cmp target/ci-pipe-attr-report.json target/ci-pipe-attr-repeat.json \
    || { echo "ci: same-seed pipeline attribution documents diverged" >&2; exit 1; }
# Gateway smoke: boot fft-gate on an ephemeral port (the bound port comes
# back through --port-file), replay a seeded workload over 8 concurrent TCP
# clients, and require (a) the hazard validator to come back clean over the
# wire, (b) the exported metrics document to parse and meet its SLOs, and
# (c) the wire-fetched report to be byte-identical to an in-process run of
# the same schedule (DESIGN.md §14). --shutdown stops the server so `wait`
# collects its exit code; a crashed or wedged gateway fails the gate.
rm -f target/ci-gate-port
cargo run --release -p fft-gate --bin fft-gate --offline -- \
    serve --addr 127.0.0.1:0 --check-hazards \
    --port-file target/ci-gate-port --metrics-out target/ci-gate-metrics.json &
GATE_PID=$!
for _ in $(seq 1 100); do
    [ -s target/ci-gate-port ] && break
    kill -0 "$GATE_PID" 2>/dev/null || { echo "ci: fft-gate died before binding" >&2; exit 1; }
    sleep 0.1
done
[ -s target/ci-gate-port ] || { echo "ci: fft-gate never wrote its port" >&2; exit 1; }
GATE_PORT=$(cat target/ci-gate-port)
cargo run --release -p fft-gate --bin fft-gate --offline -- \
    bench --addr "127.0.0.1:${GATE_PORT}" --clients 8 --check-hazards \
    --validate-metrics --compare-local --shutdown
wait "$GATE_PID"
cargo run --release -p fft-serve --bin fft-serve --offline -- \
    --validate-metrics target/ci-gate-metrics.json
# DAG frames over TCP: a self-contained gateway run (no --addr, so bench
# boots its own gateway on an ephemeral loopback port) of the pipeline
# workload, so PipelineSubmit/PipelineAck cross a real socket under the
# hazard validator and the report must match the in-process run byte for
# byte.
cargo run --release -p fft-gate --bin fft-gate --offline -- \
    bench --workload pipeline --check-hazards --compare-local
