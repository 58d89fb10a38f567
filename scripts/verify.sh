#!/usr/bin/env bash
# Tier-1 verification, hermetically: the workspace must build and test
# with networking denied so a reintroduced registry dependency fails fast
# instead of passing on a warm cache.
#
# Usage: verify.sh [--fast]
#   --fast skips the examples compile, the perfbench tests and the chaos
#   matrix, but always keeps the static analyzer, the crash-recovery
#   smoke, and the consistency-check subset — the cheap gates that catch
#   whole bug classes.
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

# --no-fail-fast: one failing crate must not hide every later crate's
# tests; the step still exits nonzero on any failure. The serial/parallel
# sweep gates (pinned fingerprints, allocation budget, parallel speedup)
# run here, in crates/bench/tests/engine_equivalence.rs.
echo "== workspace tests (offline)"
cargo test -q --workspace --no-fail-fast

if [[ "$FAST" -eq 0 ]]; then
  echo "== examples compile (offline)"
  cargo build --examples

  echo "== repository benchmark tests: every workload at tiny size, the seeded-bug check, the Table 2 pins (offline)"
  cargo test --release --manifest-path perfbench/Cargo.toml
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

echo "verify: OK"
