#!/usr/bin/env bash
# Tier-1 verification, hermetically: the workspace must build and test
# with networking denied so a reintroduced registry dependency fails fast
# instead of passing on a warm cache.
#
# Usage: verify.sh [--fast]
#   --fast skips the example/benchmark compiles and the chaos matrix, but
#   always keeps the static analyzer, the crash-recovery smoke, and the
#   consistency-check subset — the cheap gates that catch whole bug
#   classes.
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
if [[ "${1:-}" == "--fast" ]]; then
  FAST=1
fi

export CARGO_NET_OFFLINE=true

echo "== formatting (cargo fmt --check)"
cargo fmt --check

echo "== tier-1: release build (offline)"
cargo build --release

echo "== tier-1: tests (offline)"
cargo test -q

echo "== workspace tests (offline)"
cargo test -q --workspace

if [[ "$FAST" -eq 0 ]]; then
  echo "== examples compile (offline)"
  cargo build --examples

  echo "== repository benchmark and its tests compile (offline)"
  cargo test --release --manifest-path perfbench/Cargo.toml --no-run
fi

echo "== clippy, warnings denied (offline)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== static analysis (svm-analyzer: determinism, unsafe-audit, panic-policy, message-totality, trace-totality, timer-token-disjointness)"
cargo run --release -p svm-bench --bin analyze

echo "== exhaustive exploration gate (svm-explore: bounded matrix, all four protocols, crash on/off)"
cargo run --release -p svm-bench --bin explore -- --fast

if [[ "$FAST" -eq 0 ]]; then
  echo "== fault-injection smoke matrix (mixed 0 / 0.1% / 1% + dup/delay/stall-dominated)"
  cargo run --release -p svm-bench --bin chaos -- --scale 0.03 --nodes 4 --drop 0,0.001,0.01
fi

echo "== crash-recovery smoke matrix (seeded node crashes, graceful recovery)"
cargo run --release -p svm-bench --bin crash -- --scale 0.03 --nodes 4 --seeds 1,2

echo "== consistency check matrix (record -> svm-checker, fast subset)"
cargo run --release -p svm-bench --bin check -- --fast

echo "== serve smoke (DSM-backed services under load; same-seed rerun must be bit-identical)"
cargo run --release -p svm-bench --bin serve -- --fast --out target/serve_fast.json

# The fast matrix includes 64-node cells (paper-scale fan-out smoke), and
# --check gates the deterministic sweep_serial allocation budget plus the
# parallel-vs-serial speedup on multi-core recordings, not just file shape.
echo "== perf smoke (parallel driver must match serial bit-for-bit; 64-node cells)"
cargo run --release -p svm-bench --bin perf -- --fast --out target/BENCH_fast.json
cargo run --release -p svm-bench --bin perf -- --check target/BENCH_fast.json

echo "== recorded perf baseline (BENCH_svm.json) well-formed and within budgets"
cargo run --release -p svm-bench --bin perf -- --check BENCH_svm.json

echo "verify: OK"
