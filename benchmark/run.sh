#!/usr/bin/env bash
# The benchmark's one command: build the package offline and run it.
#
#   benchmark/run.sh                       every workload, end to end and traced:
#                                          prints every metric by name with its
#                                          unit, writes benchmark/out/summary.json
#   benchmark/run.sh --quick               the same on tiny data sets (smoke)
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                          one workload in one process; the last
#                                          line of stdout is the result object
#                                          (the form BENCHMARK.json's driver uses)
#
# Runs from the repository root so that a relative CARGO_TARGET_DIR and the
# benchmark/out/ directory mean the same thing wherever it is called from.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
