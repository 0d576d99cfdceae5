#!/usr/bin/env bash
# Exact answer or typed error at the int64 edge:
#   * a 1-D recurrence over 9e18 iterations costs 1.8e19 flop units, which
#     does not fit in int64 — the CLI must exit 80 (ErrorKind::Overflow)
#     and print no result, never a wrapped negative number;
#   * the same nest at 4e18 fits and must print exact steps and costs;
#   * sor2d at N = 2^30 (2^60 iterations, ~2^31 projection lines) must plan
#     symbolically with exact counts (only the closed-form sweep and
#     simulator finish in the test's time budget).
#
#   usage: cli_overflow_smoke.sh <hypart-binary> <workdir>
set -u

HYPART="$1"
WORKDIR="$2"
BIG="$WORKDIR/overflow_9e18.loop"
FITS="$WORKDIR/overflow_4e18.loop"
SOR="$WORKDIR/sor_2p30.loop"

printf 'loop big {\n  for i = 1 to 9000000000000000000\n  A[i] = A[i-1] * 2.0 + 1.0;\n}\n' >"$BIG"
printf 'loop big {\n  for i = 1 to 4000000000000000000\n  A[i] = A[i-1] * 2.0 + 1.0;\n}\n' >"$FITS"
printf 'loop sor {\n  for i = 1 to 1073741824\n  for j = 1 to 1073741824\n  A[i, j] = (A[i-1, j] + A[i, j-1]) * 0.5 + 0.125;\n}\n' >"$SOR"

out=$("$HYPART" json "$BIG" --space symbolic --dim 0 2>"$WORKDIR/overflow.err")
code=$?
if [ "$code" -ne 80 ]; then
  echo "FAIL: 9e18 nest exited $code (want 80): $out"; cat "$WORKDIR/overflow.err"; exit 1
fi
if [ -n "$out" ]; then
  echo "FAIL: 9e18 nest printed a result: $out"; exit 1
fi
grep -q "overflow" "$WORKDIR/overflow.err" || { echo "FAIL: no overflow message"; exit 1; }

out=$("$HYPART" json "$FITS" --space symbolic --dim 0) || { echo "FAIL: 4e18 nest failed"; exit 1; }
for want in '"steps":4000000000000000000' '"t_calc_units":8000000000000000000' \
            '"iterations":4000000000000000000'; do
  case "$out" in *"$want"*) ;; *) echo "FAIL: 4e18 nest lacks $want: $out"; exit 1 ;; esac
done

out=$("$HYPART" json "$SOR" --space symbolic --dim 3) || { echo "FAIL: sor2d 2^30 failed"; exit 1; }
for want in '"iterations":1152921504606846976' '"steps":2147483647' \
            '"total_arcs":2305843007066210304' '"grouping_backend":"lattice"'; do
  case "$out" in *"$want"*) ;; *) echo "FAIL: sor2d 2^30 lacks $want: $out"; exit 1 ;; esac
done
echo "ok: overflow exits 80, 4e18 exact, sor2d N=2^30 exact"
