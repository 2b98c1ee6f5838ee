#!/bin/sh
# Production lines per crate: in each `src/` file, the lines above its
# first `#[cfg(test)]` that are neither blank nor `//` comments (doc
# comments count as comments). Prints one line per crate and a total; it
# gates nothing.
#
#   tests/prod_lines.sh                # every crate under crates/
#   tests/prod_lines.sh crates/core    # one crate
set -u
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root" || exit 1
if [ $# -eq 0 ]; then
  set -- crates/*/
fi
total=0
for crate in "$@"; do
  crate=${crate%/}
  [ -d "$crate/src" ] || continue
  # One awk may see many files; each prints its count, summed below.
  n=$(find "$crate/src" -name '*.rs' -exec awk '
    FNR == 1 { tests = 0 }
    tests { next }
    /^[ \t]*#\[cfg\(test\)\]/ { tests = 1; next }
    /^[ \t]*$/ || /^[ \t]*\/\// { next }
    { n++ }
    END { print n + 0 }' {} + | awk '{ s += $1 } END { print s + 0 }')
  printf '%-10s %6d\n' "${crate##*/}" "$n"
  total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
