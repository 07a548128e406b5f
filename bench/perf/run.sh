#!/usr/bin/env bash
# The host-performance benchmark's one command.  Builds bench/perf into
# build-perf/ at the repository root, then runs the selected workloads, each
# in its own process.
#
#   bash bench/perf/run.sh [--workload NAME]... [--seed N] [--seconds S]
#                          [--trace 0|1] [--smoke] [--repeat N]
#                          [--runs-dir DIR] [--list]
#
# Without --workload all five run.  Each run prints its metrics as
# `name value unit` lines and then one JSON line (end-to-end metrics, or the
# per-layer ones with --trace 1, which also writes a Chrome trace to
# build-perf/traces/).  Each run's record lands in --runs-dir (default
# build-perf/runs/) for compare.py.  Exits non-zero when a check fails, when
# two runs of one seed (--repeat) disagree on result_digest, or when
# ft16-1shard and ft16-4shard disagree.  Other flags go to mlid_perf, which
# rejects what it does not know with exit 2.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
build=$root/build-perf

workloads=()
seed=1
seconds=0
trace=0
repeat=1
runs_dir=$build/runs
list=0
extra=()

bad_usage() {
  echo "error: $1" >&2
  echo "usage: bash bench/perf/run.sh [--workload NAME]... [--seed N]" \
    "[--seconds S] [--trace 0|1] [--smoke] [--repeat N] [--runs-dir DIR]" \
    "[--list]" >&2
  exit 2
}

while (($#)); do
  flag=$1
  value=
  case $flag in
    --workload=* | --seed=* | --seconds=* | --trace=* | --repeat=* | --runs-dir=*)
      value=${flag#*=}
      flag=${flag%%=*}
      ;;
    --workload | --seed | --seconds | --trace | --repeat | --runs-dir)
      (($# >= 2)) || bad_usage "$flag needs a value"
      value=$2
      shift
      ;;
  esac
  case $flag in
    --workload) workloads+=("$value") ;;
    --seed) seed=$value ;;
    --seconds) seconds=$value ;;
    --trace) trace=$value ;;
    --repeat) repeat=$value ;;
    --runs-dir) runs_dir=$value ;;
    --list) list=1 ;;
    *) extra+=("$flag") ;;
  esac
  shift
done
[[ $trace == 0 || $trace == 1 ]] || bad_usage "--trace wants 0 or 1"
[[ $repeat =~ ^[1-9][0-9]*$ ]] || bad_usage "--repeat wants a positive integer"

jobs=$(nproc)
((jobs <= 4)) || jobs=4
# The build records `git describe`; keep git from searching above the tree.
export GIT_CEILING_DIRECTORIES=${root%/*}
if [[ ! -f $build/CMakeCache.txt ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target mlid_perf -j "$jobs" >&2
bin=$build/mlid_perf

if ((list)); then
  exec "$bin" --list
fi
if ((${#workloads[@]} == 0)); then
  mapfile -t workloads < <("$bin" --list | awk '{print $1}')
fi

mkdir -p "$runs_dir" "$build/traces"
log=$build/last-run.txt
status=0
declare -A digests  # workload -> every result_digest it printed

for w in "${workloads[@]}"; do
  for ((k = 1; k <= repeat; k++)); do
    args=(--workload="$w" --seed="$seed" --seconds="$seconds"
      --out="$runs_dir/$w-seed$seed-$(date +%Y%m%dT%H%M%S%N).json")
    if ((trace)); then
      args+=(--trace="$build/traces/$w-seed$seed.json")
    fi
    rc=0
    "$bin" "${args[@]}" ${extra[@]+"${extra[@]}"} | tee "$log" || rc=$?
    ((rc != 2)) || exit 2
    ((rc == 0)) || status=1
    digests[$w]+=" $(awk '$1 == "result_digest" {print $2}' "$log")"
  done
done

distinct() { tr ' ' '\n' <<<"$*" | sed '/^$/d' | sort -u | wc -l; }
for w in "${!digests[@]}"; do
  if (($(distinct "${digests[$w]}") > 1)); then
    echo "check failed: $w: runs of seed $seed disagree:${digests[$w]}" >&2
    status=1
  fi
done
if [[ -n ${digests[ft16-1shard]-} && -n ${digests[ft16-4shard]-} ]] &&
  (($(distinct "${digests[ft16-1shard]} ${digests[ft16-4shard]}") > 1)); then
  echo "check failed: ft16-1shard and ft16-4shard digests differ" >&2
  status=1
fi
exit $status
