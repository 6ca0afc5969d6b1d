#!/usr/bin/env bash
# msbench: one command for the end-to-end and per-layer benchmark.
#
#   bench/run.sh                      every workload, end-to-end metrics
#   bench/run.sh --trace              every workload, traced pass (per-layer
#                                     metrics, bench/out/trace_<workload>.json)
#   bench/run.sh --smoke              2 s windows, correctness gate only (< 40 s)
#   bench/run.sh --calibrate [N]      N runs per workload (default 5), spread table
#   bench/run.sh --workload NAME --seed N --seconds N --trace 0|1
#                                     one run; the last stdout line is the
#                                     result object (what BENCHMARK.json runs)
#
# Builds ms-controller / ms-worker and the harness first (a no-op when
# they are current). Exits non-zero when a run fails its correctness
# gate, and when run outside a full checkout of the repository.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"
if [[ ! -f Cargo.toml || ! -d crates/ms-wire ]]; then
    echo "bench/run.sh: $ROOT is not a checkout of the repository (no Cargo.toml, no crates/): nothing to build" >&2
    exit 3
fi

# One target directory for both builds when the caller names one (made
# absolute: cargo resolves a relative one against each manifest's
# directory); otherwise the repository's and the harness's own.
if [[ -n "${CARGO_TARGET_DIR:-}" ]]; then
    case "$CARGO_TARGET_DIR" in
        /*) SYSTEM_TARGET="$CARGO_TARGET_DIR" ;;
        *) SYSTEM_TARGET="$ROOT/$CARGO_TARGET_DIR" ;;
    esac
    HARNESS_TARGET="$SYSTEM_TARGET"
else
    SYSTEM_TARGET="$ROOT/target"
    HARNESS_TARGET="$ROOT/bench/target"
fi

# Only the two daemons the benchmark drives, not the whole workspace:
# the same `cargo build --release` profile, a fraction of the time.
CARGO_TARGET_DIR="$SYSTEM_TARGET" cargo build --release --offline --quiet \
    -p ms-wire --bin ms-controller --bin ms-worker >&2
CARGO_TARGET_DIR="$HARNESS_TARGET" cargo build --release --offline --quiet \
    --manifest-path bench/Cargo.toml >&2

msbench() {
    "$HARNESS_TARGET/release/msbench" --bin-dir "$SYSTEM_TARGET/release" --out-dir "$ROOT/bench/out" "$@"
}

WORKLOADS=(ingest_hot fanout_unique bigstate_paced burst_mid)

# The driver's form: everything is for the harness.
for arg in "$@"; do
    if [[ "$arg" == "--workload" ]]; then
        msbench "$@"
        exit $?
    fi
done

mode="${1:-}"
case "$mode" in
    "")
        status=0
        for w in "${WORKLOADS[@]}"; do
            msbench --workload "$w" || status=1
        done
        exit $status
        ;;
    --trace)
        status=0
        for w in "${WORKLOADS[@]}"; do
            msbench --workload "$w" --trace 1 || status=1
        done
        exit $status
        ;;
    --smoke)
        # Correctness only, so the long one (burst_mid sits out a 10 s
        # connect stall) runs beside the other three.
        mkdir -p "$ROOT/bench/out"
        msbench --workload burst_mid --seconds 2 --smoke >"$ROOT/bench/out/smoke_burst_mid.txt" 2>&1 &
        burst=$!
        status=0
        for w in ingest_hot fanout_unique bigstate_paced; do
            msbench --workload "$w" --seconds 2 --smoke || status=1
        done
        wait "$burst" || status=1
        cat "$ROOT/bench/out/smoke_burst_mid.txt"
        if [[ $status -eq 0 ]]; then echo "smoke: all four workloads passed the correctness gate"; fi
        exit $status
        ;;
    --calibrate)
        msbench --calibrate "${2:-5}" "${@:3}"
        ;;
    *)
        sed -n '2,14p' "${BASH_SOURCE[0]}" >&2
        exit 2
        ;;
esac
