#!/usr/bin/env bash
# benchguard.sh — guard the simulator hot loops against regressions.
# Two gates run on the SAME machine in the SAME session (absolute ns/op
# from a snapshot file are not comparable across machines: the
# BENCH_*.json snapshots record ~30% swings between otherwise-identical
# container hosts), so the baseline tree is rebuilt from git and timed
# here:
#
#   1. Scalar regression gate: the obs-disabled per-cycle cost
#      (BenchmarkBusCycleSaturated4Masters) of the current tree must stay
#      within TOLERANCE of the baseline tree's.
#   2. Fast-forward gates: the event-driven engine on a saturated
#      four-master bus of traffic.Saturating masters
#      (BenchmarkTickStaticLottery) must be at least FAST_SPEEDUP x faster
#      per cycle than its naive-loop twin (BenchmarkTickStaticLotteryNaive)
#      in the current tree, and must stay within TOLERANCE of the same
#      benchmark in the baseline tree.
#   3. Cache gate (current tree only, no baseline needed): a warm sweep
#      replayed from the result cache (BenchmarkSparseSweepWarm,
#      internal/expt) must be at least CACHE_SPEEDUP x faster than the
#      same sweep simulated cold on the fast-forward engine
#      (BenchmarkSparseSweepFast). Gate 1 separately proves the hot loop
#      itself did not pay for the cache.
#
#   baseline ref = $LOTTERYBUS_BENCH_BASE, else HEAD when the working
#                  tree is dirty (local use), else merge-base with
#                  origin/main, else HEAD~1 (a push to main)
#   tolerance    = $LOTTERYBUS_BENCH_TOLERANCE (fractional, default 0.02)
#   fast speedup = $LOTTERYBUS_FAST_SPEEDUP (factor, default 2.0)
#   cache speedup= $LOTTERYBUS_CACHE_SPEEDUP (factor, default 5.0)
#
# All test binaries are compiled up front and run in alternating rounds,
# scoring each side by its minimum ns/op: interleaving means
# CPU-frequency drift and noisy neighbours hit both trees equally, and
# the min-of-rounds estimator discards transient stalls. A real
# regression survives every round; noise does not.
set -euo pipefail
cd "$(dirname "$0")/.."

TOLERANCE="${LOTTERYBUS_BENCH_TOLERANCE:-0.02}"
FAST_SPEEDUP="${LOTTERYBUS_FAST_SPEEDUP:-2.0}"
CACHE_SPEEDUP="${LOTTERYBUS_CACHE_SPEEDUP:-5.0}"
ROUNDS="${LOTTERYBUS_BENCH_ROUNDS:-5}"
BENCH='BenchmarkBusCycleSaturated4Masters'
FAST_BENCH='BenchmarkTickStaticLottery'
NAIVE_BENCH='BenchmarkTickStaticLotteryNaive'
COLD_BENCH='BenchmarkSparseSweepFast'
WARM_BENCH='BenchmarkSparseSweepWarm'

base_ref="${LOTTERYBUS_BENCH_BASE:-}"
if [ -z "$base_ref" ] && ! git diff --quiet HEAD; then
  base_ref=HEAD
fi
if [ -z "$base_ref" ]; then
  base_ref=$(git merge-base origin/main HEAD 2>/dev/null || true)
fi
if [ -z "$base_ref" ] || { [ "$base_ref" != HEAD ] &&
    [ "$(git rev-parse "$base_ref")" = "$(git rev-parse HEAD)" ]; }; then
  base_ref=HEAD~1
fi

worktree=$(mktemp -d)
bindir=$(mktemp -d)
trap 'git worktree remove --force "$worktree" >/dev/null 2>&1 || true
      rm -rf "$worktree" "$bindir"' EXIT
git worktree add --detach "$worktree" "$base_ref" >/dev/null

echo "benchguard: baseline $(git rev-parse --short "$base_ref"), tolerance ${TOLERANCE}, fast speedup >=${FAST_SPEEDUP}x, rounds ${ROUNDS}"
(cd "$worktree" && go test -c -o "$bindir/base.test" ./internal/bus/)
go test -c -o "$bindir/cur.test" ./internal/bus/
go test -c -o "$bindir/cur-expt.test" ./internal/expt/

run_once() { # binary, benchmark
  "$bindir/$1.test" -test.run '^$' -test.bench "$2\$" -test.benchtime 1s |
    awk -v b="$2" '$1 ~ b {print $3; exit}'
}

min() { # sample, best-so-far
  awk -v x="$1" -v best="$2" 'BEGIN {print (best == "" || x+0 < best+0) ? x : best}'
}

# Warm-up round for each binary, discarded: the first run of a process
# lands a few percent slow while the CPU ramps up.
run_once base "$BENCH" >/dev/null
run_once cur "$BENCH" >/dev/null
run_once base "$FAST_BENCH" >/dev/null
run_once cur "$FAST_BENCH" >/dev/null
run_once cur-expt "$COLD_BENCH" >/dev/null

base_best='' cur_best='' fast_best='' base_fast_best='' naive_best='' cold_best='' warm_best=''
for _ in $(seq "$ROUNDS"); do
  b=$(run_once base "$BENCH")
  c=$(run_once cur "$BENCH")
  bf=$(run_once base "$FAST_BENCH")
  f=$(run_once cur "$FAST_BENCH")
  nv=$(run_once cur "$NAIVE_BENCH")
  cold=$(run_once cur-expt "$COLD_BENCH")
  warm=$(run_once cur-expt "$WARM_BENCH")
  if [ -z "$b" ] || [ -z "$c" ] || [ -z "$bf" ] || [ -z "$f" ] || [ -z "$nv" ] || [ -z "$cold" ] || [ -z "$warm" ]; then
    echo "benchguard: benchmark produced no sample (base='$b' current='$c' base-fast='$bf' fast='$f' naive='$nv' cold='$cold' warm='$warm')" >&2
    exit 1
  fi
  base_best=$(min "$b" "$base_best")
  cur_best=$(min "$c" "$cur_best")
  base_fast_best=$(min "$bf" "$base_fast_best")
  fast_best=$(min "$f" "$fast_best")
  naive_best=$(min "$nv" "$naive_best")
  cold_best=$(min "$cold" "$cold_best")
  warm_best=$(min "$warm" "$warm_best")
done

fail=0

awk -v cur="$cur_best" -v base="$base_best" -v tol="$TOLERANCE" 'BEGIN {
  limit = base * (1 + tol)
  printf "benchguard: scalar  %.2f ns/op vs baseline %.2f ns/op (limit %.2f, %+.1f%%)\n",
    cur, base, limit, 100 * (cur - base) / base
  exit cur <= limit ? 0 : 1
}' || fail=1

awk -v fast="$fast_best" -v naive="$naive_best" -v need="$FAST_SPEEDUP" 'BEGIN {
  printf "benchguard: fast    %.2f ns/cycle vs naive twin %.2f ns/cycle (%.2fx, need >=%.2fx)\n",
    fast, naive, naive / fast, need
  exit naive / fast >= need ? 0 : 1
}' || fail=1

awk -v cur="$fast_best" -v base="$base_fast_best" -v tol="$TOLERANCE" 'BEGIN {
  limit = base * (1 + tol)
  printf "benchguard: fast    %.2f ns/cycle vs baseline %.2f ns/cycle (limit %.2f, %+.1f%%)\n",
    cur, base, limit, 100 * (cur - base) / base
  exit cur <= limit ? 0 : 1
}' || fail=1

awk -v warm="$warm_best" -v cold="$cold_best" -v need="$CACHE_SPEEDUP" 'BEGIN {
  printf "benchguard: cache   %.0f ns/sweep warm vs %.0f ns/sweep cold (%.1fx, need >=%.1fx)\n",
    warm, cold, cold / warm, need
  exit cold / warm >= need ? 0 : 1
}' || fail=1

exit "$fail"
