#!/usr/bin/env bash
# Repository gate: formatting, lints, rustdoc (broken or private
# intra-doc links fail it), release build, the full test
# suite (every suite runs once, in the workspace step), the loopback
# benchmark's smoke test, and the experiment shape gates. Everything
# runs offline — the workspace has no external dependencies.
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

echo "== throughput shape assertions (serial vs parallel, overload) =="
cargo run --release --offline -p msite-bench --bin experiments -- throughput

echo "== telemetry overhead gate =="
cargo run --release --offline -p msite-bench --bin experiments -- telemetry

echo "== streaming TTFB + incremental re-adaptation gate =="
cargo run --release --offline -p msite-bench --bin experiments -- streaming

echo "== durability + adaptive-capacity gate (warm restart, surge) =="
cargo run --release --offline -p msite-bench --bin experiments -- durability

echo "== million-user session capacity gate (bounded store, quotas) =="
cargo run --release --offline -p msite-bench --bin experiments -- capacity

echo "== SWAR hot-path speedup gate (tokenizer+entity, crc32) =="
cargo run --release --offline -p msite-bench --bin experiments -- hotpath

echo "== content extraction precision/recall + fidelity tier gate =="
cargo run --release --offline -p msite-bench --bin experiments -- content
