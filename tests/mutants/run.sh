#!/bin/sh
# Mutant catalogue: each tests/mutants/<area>/*.patch breaks one mechanism
# on purpose, and its header names the tests that must catch it:
#
#   Mutant: <what the patch breaks>
#   Must fail: <a cargo test command>
#
# For each patch (all of them, or those given as arguments) this script
# runs `git apply`, checks that every named command still builds
# (`--no-run`), runs each and expects it to fail, then runs
# `git apply -R`. A patch that does not apply, a mutant that does not
# build, and a mutant that every named test lets through each fail the
# script. Run it from a clean checkout: it edits the working tree and
# puts it back.
#
#   tests/mutants/run.sh
#   tests/mutants/run.sh tests/mutants/overlay/01-ack-rearm-late.patch
set -u
root=$(cd "$(dirname "$0")/../.." && pwd)
cd "$root" || exit 1
log=$(mktemp)
applied=""
trap 'if [ -n "$applied" ]; then git apply -R "$applied"; fi; rm -f "$log"' EXIT
trap 'exit 130' INT TERM
if [ $# -eq 0 ]; then
  set -- tests/mutants/*/*.patch
fi
status=0
for patch in "$@"; do
  echo "== $patch"
  if ! git apply "$patch"; then
    echo "FAIL: $patch does not apply"
    status=1
    continue
  fi
  applied=$patch
  commands=$(sed -n 's/^Must fail: //p' "$patch")
  if [ -z "$commands" ]; then
    echo "FAIL: $patch names no test"
    status=1
  fi
  # One command a line; the loop reads them from a here-document so the
  # tests it runs get no stdin.
  while IFS= read -r cmd; do
    [ -n "$cmd" ] || continue
    if ! sh -c "$cmd --no-run" >"$log" 2>&1 </dev/null; then
      tail -n 20 "$log"
      echo "FAIL: the mutant does not build: $cmd"
      status=1
    elif sh -c "$cmd" >"$log" 2>&1 </dev/null; then
      tail -n 20 "$log"
      echo "FAIL: survived: $cmd"
      status=1
    else
      echo "killed by: $cmd"
    fi
  done <<EOF
$commands
EOF
  if ! git apply -R "$patch"; then
    echo "FAIL: $patch does not revert; the working tree is left mutated"
    applied=""
    exit 1
  fi
  applied=""
done
if [ "$status" -eq 0 ]; then
  echo "every mutant was killed"
fi
exit "$status"
