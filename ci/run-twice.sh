#!/usr/bin/env bash
# ci/run-twice.sh <label> <cmd…>
#
# The determinism check every sweep job shares: run <cmd…>, run it again,
# and require the two standard outputs to be byte-identical. They are kept
# as <label>-a.txt and <label>-b.txt; a failing run fails the script.
set -euo pipefail
label=$1
shift
for pass in a b; do
  "$@" | tee "$label-$pass.txt"
done
cmp "$label-a.txt" "$label-b.txt"
