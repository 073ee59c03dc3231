#!/usr/bin/env bash
# Repository gate: formatting, lints, rustdoc (broken or private
# intra-doc links fail it), release build, the full test suite, the
# loopback benchmark's smoke test, and the release-only experiment
# gates. Everything runs offline — the workspace has no external
# dependencies.
#
# Each fact is asserted once. Deterministic facts (byte identity,
# exact counts, ordering, paper shapes) are pinned by tests and run in
# the workspace test step. Timing and scale claims (parallel wall
# clock, telemetry overhead, adaptive surge, million-user capacity, hot
# path speedups) only mean something in a release build, so they run
# once, in the single `experiments` step at the end.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy -D warnings =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo doc -D warnings =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "== cargo build --release =="
cargo build --release --offline --workspace

echo "== cargo test -q =="
cargo test -q --offline --workspace

# perfbench is a workspace of its own, so the step above never reaches it.
echo "== loopback benchmark smoke test =="
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "== release-only gates: timing and scale claims =="
cargo run --release --offline -p msite-bench --bin experiments -- \
    throughput telemetry surge capacity hotpath
