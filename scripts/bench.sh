#!/usr/bin/env bash
# Tier-1 test suite plus the library micro-benchmarks.
#
# Leaves the perf trajectory on disk:
#   benchmarks/output/BENCH_encoders.json   — scalar vs. vectorised encoding
#   benchmarks/output/BENCH_gateway.json    — sequential vs. interleaved gateway
#                                             scheduling, per-IP vs. shared-IP rates
#   benchmarks/output/BENCH_campaigns.json  — attack-campaign sweep rates/drops
#   benchmarks/output/BENCH_inference.json  — float graph vs. compiled engine fps,
#                                             serial vs. thread/process sweep walls
#   benchmarks/output/BENCH_bus.json        — event-driven vs. columnar bus
#                                             simulation frame rates
#   benchmarks/output/BENCH_faults.json     — wire-fault layer: clean-path
#                                             overhead and BER-swept rates
#   benchmarks/output/BENCH_datapath.json   — zero-record data path: capture->
#                                             train encode, chunked streaming,
#                                             saturated-flood arbitration
#   benchmarks/output/BENCH_fleet.json      — fleet-scale campaign service:
#                                             single-core vs default-options
#                                             vehicles/sec, same population
#
# Usage:
#   scripts/bench.sh            full run: tier-1 tests + micro-benchmarks,
#                               recorded into benchmarks/output/
#                               (REPRO_BENCH_RECORD=1)
#   scripts/bench.sh --smoke    CI lane: one iteration over tiny inputs,
#                               archived under benchmarks/output/smoke/ and
#                               checked against the committed trajectory with
#                               scripts/check_bench_regression.py
#
# Any other benchmark run (e.g. a plain tier-1 pytest) archives under the
# gitignored benchmarks/output/scratch/ and leaves the trajectory alone.
# The paper-table benchmarks (test_bench_table*.py etc.) train at full
# scale and are not part of this quick loop; run them directly with
# REPRO_BENCH_RECORD=1 when regenerating the tables.
set -euo pipefail

# Resolve the repo root from this script's own location (not the CWD,
# which differs between CI runners and local shells).
SCRIPT_DIR="$(cd -- "$(dirname -- "${BASH_SOURCE[0]}")" >/dev/null 2>&1 && pwd -P)"
REPO_ROOT="$(dirname -- "$SCRIPT_DIR")"
cd -- "$REPO_ROOT"
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

SMOKE=0
for arg in "$@"; do
    case "$arg" in
        --smoke) SMOKE=1 ;;
        *) echo "usage: $0 [--smoke]" >&2; exit 2 ;;
    esac
done

MICRO_BENCHES=(
    benchmarks/test_bench_encoder.py
    benchmarks/test_bench_bus.py
    benchmarks/test_bench_faults.py
    benchmarks/test_bench_datapath.py
    benchmarks/test_bench_inference.py
    benchmarks/test_bench_gateway.py
    benchmarks/test_bench_campaigns.py
    benchmarks/test_bench_fleet.py
)

if [ "$SMOKE" -eq 1 ]; then
    echo "== micro-benchmarks (smoke: one iteration, tiny inputs) =="
    REPRO_BENCH_SMOKE=1 python -m pytest -q -s "${MICRO_BENCHES[@]}"
    echo "== bench-regression check (committed trajectory vs smoke run) =="
    python scripts/check_bench_regression.py \
        --baseline-dir benchmarks/output --run-dir benchmarks/output/smoke
else
    echo "== tier-1 tests =="
    python -m pytest -x -q tests

    echo "== micro-benchmarks =="
    REPRO_BENCH_RECORD=1 python -m pytest -q -s "${MICRO_BENCHES[@]}" benchmarks/test_bench_micro.py

    echo "perf trajectory written to benchmarks/output/BENCH_{encoders,bus,faults,datapath,inference,gateway,campaigns,fleet}.json"
fi
