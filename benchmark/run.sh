#!/usr/bin/env bash
# The repo benchmark, one command: builds the benchmark crate offline,
# then runs it.
#
#   benchmark/run.sh                       every workload (one process each), then a
#                                          second-seed sanity pass and their comparison;
#                                          writes benchmark/out/results.json
#   benchmark/run.sh --traced              the separate per-layer pass; writes
#                                          benchmark/out/layers.json and trace_<workload>.jsonl
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one workload; the last line printed is its result
#   benchmark/run.sh --selftest | --compare A.json B.json | --contract
#
# See benchmark/README.md.
set -euo pipefail

DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# The repo's own target directory, unless the caller chose one.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$(dirname "$DIR")/target}"

cargo build --release --offline --quiet --manifest-path "$DIR/Cargo.toml" >&2
BIN="$CARGO_TARGET_DIR/release/pgrid-benchmark"

# `--traced` is this script's spelling of the program's `--trace 1`.
args=()
whole_set=1
for arg in "$@"; do
    case "$arg" in
    --traced)
        args+=(--trace 1)
        whole_set=0
        ;;
    --workload | --selftest | --compare | --contract)
        args+=("$arg")
        whole_set=0
        ;;
    *) args+=("$arg") ;;
    esac
done

if [ "$whole_set" = 0 ]; then
    exec "$BIN" --out "$DIR/out" "${args[@]}"
fi

"$BIN" --out "$DIR/out" "${args[@]}"
# Another seed draws other inputs: counts differ, timings should not
# leave their bounds. Reported, never fatal.
echo
echo "second-seed sanity pass (--seed 41)"
"$BIN" --out "$DIR/out/seed41" "${args[@]}" --seed 41
"$BIN" --compare "$DIR/out/results.json" "$DIR/out/seed41/results.json" ||
    echo "seed 41 leaves the bounds of the first pass on the pairs marked WORSE above"
