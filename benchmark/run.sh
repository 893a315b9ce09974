#!/usr/bin/env bash
# Build the `gcube` CLI with the repository's own manifest (the daemon
# workload drives it) and the benchmark package, then run `benchmark`
# with these arguments. Run from the repository root; honours
# CARGO_TARGET_DIR.
set -euo pipefail
dir=$(dirname "$0")
cargo build --release --quiet --offline --manifest-path Cargo.toml --workspace --bin gcube
cargo build --release --quiet --offline --manifest-path "$dir/Cargo.toml"
export GCUBE_BIN="${CARGO_TARGET_DIR:-target}/release/gcube"
exec "${CARGO_TARGET_DIR:-$dir/target}/release/benchmark" "$@"
