#!/bin/sh
# Paired A/B of the repository benchmark: the working tree against a base
# revision.
#
#   tools/ab.sh BASE_REV [WORKLOAD...]
#
# Unpacks `git archive BASE_REV` into a temporary directory, builds
# perfbench/main.exe there and in the working tree, and runs 10 pairs of
# `main.exe --seed 1 --seconds 3 --trace 0` per workload (default: every
# workload in BENCHMARK.json), alternating which side runs first.  For
# each end-to-end metric it prints the base and working-tree medians, the
# base interquartile range, and the pairs the working tree won.  The
# verdict is "worse" when the working-tree median is worse than the base
# median by more than the metric's BENCHMARK.json bound, "unresolved"
# when the base IQR alone is wider than that bound, else "ok".  Needs git,
# dune and python3; no network.
set -eu

PAIRS=10
RUN_SECONDS=3
SEED=1

[ $# -ge 1 ] || { echo "usage: tools/ab.sh BASE_REV [WORKLOAD...]" >&2; exit 2; }
base_rev=$1
shift
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
if [ $# -eq 0 ]; then
  set -- $(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
mkdir "$tmp/base" "$tmp/out"
git archive "$base_rev" | tar -x -C "$tmp/base"
echo "ab: building $base_rev and the working tree" >&2
dune build --root "$tmp/base" ./perfbench/main.exe >&2
dune build --root "$root" ./perfbench/main.exe >&2

# one run; its result line (the last line of output, or "failed" when
# there is none) is appended to FILE
run() { # SIDE_ROOT WORKLOAD FILE
  line=$(cd "$1" && ./_build/default/perfbench/main.exe --workload "$2" \
    --seed "$SEED" --seconds "$RUN_SECONDS" --trace 0 --out "$tmp/out" \
    | tail -n 1) || true
  echo "${line:-failed}" >> "$3"
}

for w in "$@"; do
  : > "$tmp/$w.base"
  : > "$tmp/$w.head"
  i=0
  while [ $i -lt $PAIRS ]; do
    echo "ab: $w pair $((i + 1))/$PAIRS" >&2
    if [ $((i % 2)) -eq 0 ]; then
      run "$tmp/base" "$w" "$tmp/$w.base"
      run "$root" "$w" "$tmp/$w.head"
    else
      run "$root" "$w" "$tmp/$w.head"
      run "$tmp/base" "$w" "$tmp/$w.base"
    fi
    i=$((i + 1))
  done
done

python3 - "$tmp" "$base_rev" "$@" <<'EOF'
import json, statistics, sys

tmp, base_rev, workloads = sys.argv[1], sys.argv[2], sys.argv[3:]
spec = json.load(open("BENCHMARK.json"))["end_to_end"]

def load(path):
    runs = []
    for line in open(path):
        try:
            runs.append(json.loads(line))
        except ValueError:
            runs.append(None)
    return runs

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

print("base %s vs working tree" % base_rev)
for w in workloads:
    base, head = load("%s/%s.base" % (tmp, w)), load("%s/%s.head" % (tmp, w))
    def failures(runs):
        return sum(1 for r in runs if r is None or not r["correct"] or r["failed"])
    print("\n%s: %d pairs; failed runs base %d, working tree %d"
          % (w, len(base), failures(base), failures(head)))
    print("  %-14s %12s %12s %7s %10s %6s  %s"
          % ("metric", "base", "tree", "ratio", "base IQR", "won", "verdict"))
    for m in spec:
        name, higher = m["name"], m["better"] == "higher"
        pairs = [(b["metrics"][name]["value"], h["metrics"][name]["value"])
                 for b, h in zip(base, head)
                 if b and h and name in b["metrics"] and name in h["metrics"]]
        if not pairs:
            continue
        bs, hs = [b for b, _ in pairs], [h for _, h in pairs]
        mb, mh = statistics.median(bs), statistics.median(hs)
        q1, q3 = quartiles(bs)
        won = sum(1 for b, h in pairs if (h > b if higher else h < b))
        if not mb:
            print("  %-14s base median is 0, not compared" % name)
            continue
        ratio = mh / mb
        worse = (mb - mh) / mb if higher else (mh - mb) / mb
        if worse > m["bound"]:
            verdict = "worse"
        elif (q3 - q1) / mb > m["bound"]:
            verdict = "unresolved"
        else:
            verdict = "ok"
        print("  %-14s %12.4g %12.4g %6.3fx %10.3g %3d/%-2d  %s"
              % (name, mb, mh, ratio, q3 - q1, won, len(pairs), verdict))
EOF
