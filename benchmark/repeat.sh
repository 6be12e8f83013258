#!/usr/bin/env bash
# Two full sets of the same build, then every metric x workload of the second
# set beside the first and its bound.  Exits non-zero when an end-to-end
# metric is worse by more than its bound, or when a metric that must repeat
# exactly (allocation totals, modeled results, counts, digests) does not.
# Extra arguments (--seed N, --seconds S, --quick) go to both sets.
set -euo pipefail
cd "$(dirname "$0")/.."
bench() { cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"; }
mkdir -p benchmark/out
bench run --summary benchmark/out/set1.json "$@"
bench run --summary benchmark/out/set2.json "$@"
bench compare benchmark/out/set1.json benchmark/out/set2.json
