#!/usr/bin/env bash
# Broad guard for the simulator feeds: every sample program under every
# accounting and fault plan through `--space verify`, which simulates the
# dense points, the projection lines and (where the lattice admits the
# nest) the lattice lines, and exits nonzero on any disagreement.
#
#   usage: cli_verify_matrix.sh <hypart-binary> <programs-dir>
set -u

HYPART="$1"
PROGRAMS="$2"

runs=0
failed=0
for prog in "$PROGRAMS"/*.loop; do
  for acc in paper barrier contention; do
    for faults in none link:0-1@3,node:2@5 rand:7:1n2l; do
      args=(simulate "$prog" --dim 3 --space verify --accounting "$acc")
      [ "$faults" != none ] && args+=(--faults "$faults")
      runs=$((runs + 1))
      if ! out=$("$HYPART" "${args[@]}" 2>&1); then
        failed=$((failed + 1))
        echo "FAIL: hypart ${args[*]}"
        echo "$out" | tail -5
      fi
    done
  done
done
if [ "$runs" -eq 0 ]; then
  echo "FAIL: no programs under $PROGRAMS"; exit 1
fi
if [ "$failed" -ne 0 ]; then
  echo "FAIL: $failed of $runs verify runs disagreed"; exit 1
fi
echo "ok: $runs verify runs agree"
