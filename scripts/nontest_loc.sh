#!/usr/bin/env bash
# Non-test Rust under crates/: per crate and in total, the lines of every
# `crates/**/*.rs` before the first line that opens with `#[cfg(test)]`
# (`*_tests.rs` files are test code throughout and are left out), and how
# many of those are code — neither blank nor a `//` comment.  This is the
# count the simplicity PRs quote (ROADMAP's "least code"); CI's `test` job
# prints it.
#
#   bash scripts/nontest_loc.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

find crates -name '*.rs' ! -name '*_tests.rs' | sort | while read -r file; do
  crate=${file#crates/}
  awk -v crate="${crate%%/*}" '
    /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
    { lines++ }
    !/^[[:space:]]*(\/\/|$)/ { code++ }
    END { print crate, lines + 0, code + 0 }' "$file"
done | awk '
  BEGIN { printf "%-12s %6s %6s\n", "crate", "lines", "code" }
  $1 != crate { if (crate != "") printf "%-12s %6d %6d\n", crate, lines, code; crate = $1; lines = code = 0 }
  { lines += $2; code += $3; all_lines += $2; all_code += $3 }
  END { printf "%-12s %6d %6d\n%-12s %6d %6d\n", crate, lines, code, "total", all_lines, all_code }'
