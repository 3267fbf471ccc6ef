#!/usr/bin/env bash
# Local CI gate: everything a PR must pass.
#
#   ./ci.sh          # full gate
#   ./ci.sh quick    # skip the release build (fmt + clippy + tests)
set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n==> %s\n' "$*"; }

step "cargo fmt --check"
cargo fmt --all -- --check

step "cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

step "cargo test (workspace)"
cargo test --workspace -q

if [ "${1:-}" != "quick" ]; then
  step "cargo build --release (experiment harness)"
  cargo build --release -p bench

  step "cargo bench --no-run (Criterion benches must compile)"
  cargo bench -p bench --no-run

  # Wall-clock experiments: each runs a shrunken smoke workload (its
  # PROXIDE_E<n>_SMOKE switch) that asserts its own shape checks and
  # writes BENCH_e<n>.json under target/ (PROXIDE_BENCH_DIR keeps the
  # committed full-mode baselines intact). perfgate then compares the
  # committed baseline with itself strictly (artifact well-formed, all
  # metrics within tolerance), and the smoke artifact against the
  # baseline warn-only: the shrunken config is legitimately
  # incomparable, so that step only exercises the refusal path.
  #   e14 closed-loop hot path     e17 observability plane (obs on/off)
  #   e16 million-process fleet    e18 multi-core scheduler thread sweep
  #   e19 bulk data plane          e20 continuous profiler overhead
  for bin in e14_hotpath e16_million e17_obsplane e18_multicore e19_bulkplane e20_profiler; do
    n="${bin%%_*}"
    n="${n#e}"
    step "E${n} smoke (${bin} + BENCH_e${n}.json)"
    env "PROXIDE_E${n}_SMOKE=1" PROXIDE_BENCH_DIR=target \
      cargo run -q --release -p bench --bin "$bin"

    step "perfgate (E${n} baseline self-compare + warn-only smoke compare)"
    cargo run -q --release -p bench --bin perfgate -- "BENCH_e${n}.json" "BENCH_e${n}.json"
    cargo run -q --release -p bench --bin perfgate -- --warn-only \
      "target/BENCH_e${n}.json" "BENCH_e${n}.json"
  done

  step "E7 at-most-once gate (zero over-executions under loss + duplication)"
  # Also bounds the adaptive RTO's carried back-off: the exponential
  # leg's mean latency at 30% loss must stay within 2x its fixed-RTO
  # value.
  cargo run -q --release -p bench --bin e7_loss

  step "flamegraph gate (folded export validates + tracectl flame round-trips)"
  # The smoke run above exported the collapsed flamegraph and the
  # RunReport it came from. Both must validate, and re-deriving the
  # folded file from the report must reproduce it byte for byte.
  cargo run -q --release -p bench --bin tracectl -- check target/traces/e20-profile.folded
  cargo run -q --release -p bench --bin tracectl -- flame \
    target/traces/e20-profile.report.json --out=target/traces/e20-profile.rt.folded
  cmp target/traces/e20-profile.folded target/traces/e20-profile.rt.folded

  step "threaded-determinism gate (1-thread vs 4-thread trace artifacts)"
  # The E18/E19 smoke runs above exported the causal traces of their
  # 1-thread and 4-thread legs. All must be well-formed and each pair
  # byte-for-byte equal: threads are a wall-clock knob, never an
  # ordering knob.
  cargo run -q --release -p bench --bin tracectl -- check target/traces/e18-t1.trace.jsonl
  cargo run -q --release -p bench --bin tracectl -- check target/traces/e18-t4.trace.jsonl
  cmp target/traces/e18-t1.trace.jsonl target/traces/e18-t4.trace.jsonl
  cargo run -q --release -p bench --bin tracectl -- check target/traces/e19-t1.trace.jsonl
  cargo run -q --release -p bench --bin tracectl -- check target/traces/e19-t4.trace.jsonl
  cmp target/traces/e19-t1.trace.jsonl target/traces/e19-t4.trace.jsonl

  step "E15 flight-recorder smoke (windowed telemetry + exemplars + validators)"
  # Runs the chaos sweep, asserts re-bucketing invariance, conservation,
  # exemplar tiling, and exports artifacts for the checks below.
  cargo run -q --release -p bench --bin e15_flight
  cargo run -q --release -p bench --bin tracectl -- check target/traces/e15-flight.timeseries.csv
  cargo run -q --release -p bench --bin tracectl -- check target/traces/e15-flight.report.json

  step "tracectl smoke (trace export + round-trip + critical-path self-check)"
  # Exits nonzero on malformed Chrome output, a failed JSONL round-trip,
  # no reconstructable critical path, component sums off by >1%, or any
  # verify_causality() violation.
  cargo run -q --release -p bench --bin tracectl -- smoke

  step "chaos causality gate (verify_causality under loss/partitions/crashes)"
  cargo test -q --test chaos
fi

printf '\nci.sh: all green\n'
