#!/usr/bin/env bash
# Perf gate: benchmark two checkouts of the repository interleaved on one
# host, and fail when the second regresses against the first.
#
#   bash scripts/perf_gate.sh PARENT_DIR CHANGE_DIR
#
# In each checkout it runs `bash benchmark/run.sh --seconds 0 --seed S`
# (every workload once, each with its correctness gates) for seeds
# 1..PAIRS. The side that goes first alternates from pair to pair, so host
# drift falls on both. Then the change's `benchmark compare` reads the
# parent's result files against the change's, with the change's
# BENCHMARK.json bounds, and the script exits with its status. `compare`
# fails only on a `worse` row or on a higher share of failed operations.
# Result files and logs go to `perf_gate/` in the current directory.
set -euo pipefail

PAIRS=5        # interleaved parent/change pairs, seeds 1..PAIRS
RUN_SECONDS=0  # benchmark --seconds: 0 runs each workload's minimum five rounds

[ $# -eq 2 ] || { echo "usage: $0 PARENT_DIR CHANGE_DIR" >&2; exit 2; }
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
out="$PWD/perf_gate"
mkdir -p "$out"
# Each checkout builds into its own target directories.
unset CARGO_TARGET_DIR

run() {
  local side=$1 seed=$2 dir
  dir=$([ "$side" = parent ] && echo "$parent" || echo "$change")
  echo "perf-gate: $side, seed $seed"
  (cd "$dir" && bash benchmark/run.sh --seconds "$RUN_SECONDS" --seed "$seed" \
    --out "$out/$side-$seed.json") > "$out/$side-$seed.log" 2>&1 || {
    # A failed gate still writes its result file, and `compare` weighs the
    # failures; a missing file means the run itself broke.
    echo "perf-gate: $side seed $seed exited non-zero (see $out/$side-$seed.log)" >&2
    [ -f "$out/$side-$seed.json" ] || exit 1
  }
}

parent_files=()
change_files=()
for seed in $(seq "$PAIRS"); do
  if [ $((seed % 2)) = 1 ]; then
    run parent "$seed"
    run change "$seed"
  else
    run change "$seed"
    run parent "$seed"
  fi
  parent_files+=("$out/parent-$seed.json")
  change_files+=("$out/change-$seed.json")
done

join() { local IFS=,; echo "$*"; }
"$change/benchmark/target/release/benchmark" compare \
  "$(join "${parent_files[@]}")" "$(join "${change_files[@]}")" | tee "$out/compare.txt"
