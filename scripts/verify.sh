#!/usr/bin/env bash
# Local all-in-one verification chain: the tier-1 commands plus the
# perfbench smoke test and the `experiments` gates, which CI runs as
# separate steps (.github/workflows/ci.yml).
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --test streaming_equivalence (week-at-a-time == batch, byte-identical)"
cargo test -q --release --test streaming_equivalence

echo "==> perfbench smoke test (the benchmark builds against crates/ by path)"
cargo test --offline --release --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

# --lib: the retrodns-serve lib and bin would collide on one doc file.
echo "==> cargo doc (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib

echo "==> memory trajectory (100k/1M streamed; 24 B/obs + 3.0x reduction gates)"
cargo run --release -p retrodns-bench --bin experiments -- --max-obs 1000000 \
    --max-bytes-per-obs 24.0 --min-mem-reduction 3.0 mem

echo "==> archetype matrix (7 archetypes x 3 seeds; full-recall + no-regression gates; matrix unchanged)"
cargo run --release -p retrodns-bench --bin experiments -- archetypes
git diff --exit-code ARCHETYPES_matrix.json EXPERIMENTS.md

echo "==> fault matrix (every cell survived and reconciled; matrix unchanged)"
cargo run --release -p retrodns-bench --bin experiments -- faults
git diff --exit-code FAULTS_matrix.json

echo "==> serve chaos + load (5 SIGKILLs mid-analysis at workers 1/2/8, byte-identical resume; 50 qps gate)"
cargo run --release -p retrodns-bench --bin experiments -- --min-serve-qps 50 serve

echo "tier-1 verification passed"
