#!/usr/bin/env bash
# Byte identity of the result documents, as one committed check.  Builds the
# per-change document set with the release `tm-bench` and compares each
# document's SHA-256 with its line in tests/golden/documents.sha256
# (--check), or rewrites the manifest from this build (--record).  The set,
# all at `--threads 2` (a document records its thread count):
#
#   * every experiment `--tiny` x topology (ideal, bus, switched) x
#     aggregation (per-message, batched) x protocol, as JSON;
#   * every experiment at paper scale x protocol, as JSON;
#   * the large Jacobi sweep (`fig2 4 --scale large --app Jacobi`), as CSV.
#
# The documents are left in target/documents/ for inspection.  A change that
# moves modeled results on purpose runs --record and names every changed
# line in CHANGES.md.
#
#   bash scripts/documents.sh --check|--record
set -euo pipefail
cd "$(dirname "$0")/.."

mode=${1:-}
case "$mode" in
  --check | --record) ;;
  *)
    echo "usage: scripts/documents.sh --check|--record" >&2
    exit 2
    ;;
esac

manifest=tests/golden/documents.sha256
bench=${CARGO_TARGET_DIR:-target}/release/tm-bench
out=target/documents
cargo build -q --release -p tm-bench
rm -rf "$out"
mkdir -p "$out"

experiments=(table1 fig1 fig2 fig3 fig_dyn_group fig_network fig_scale)
protocols=(multi-writer home-based)
doc() {
  local name=$1 err
  shift
  if ! err=$("$bench" "$@" --threads 2 --out "$out/$name" 2>&1 > /dev/null); then
    printf 'tm-bench %s failed:\n%s\n' "$*" "$err" >&2
    exit 1
  fi
}

for exp in "${experiments[@]}"; do
  for proto in "${protocols[@]}"; do
    for topo in ideal bus switched; do
      for agg in per-message batched; do
        doc "tiny.$exp.$proto.$topo.$agg.json" "$exp" --tiny --protocol "$proto" \
          --topology "$topo" --aggregation "$agg" --format json
      done
    done
    doc "paper.$exp.$proto.json" "$exp" --protocol "$proto" --format json
  done
done
doc large.fig2_jacobi_4procs.csv fig2 4 --scale large --app Jacobi --format csv

actual=$(cd "$out" && sha256sum -- * | LC_ALL=C sort -k 2)
if [ "$mode" = --record ]; then
  printf '%s\n' "$actual" > "$manifest"
  echo "recorded $(wc -l < "$manifest") documents in $manifest"
  exit 0
fi
if diff <(LC_ALL=C sort -k 2 "$manifest") <(printf '%s\n' "$actual"); then
  echo "all $(wc -l < "$manifest") documents match $manifest"
else
  echo "documents differ from $manifest ('<' recorded, '>' this build; files in $out)" >&2
  exit 1
fi
