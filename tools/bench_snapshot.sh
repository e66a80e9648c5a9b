#!/bin/sh
# A/B snapshot of the repository benchmark: this checkout against a
# parent commit, run as interleaved pairs on one host.
#
# Usage: tools/bench_snapshot.sh [--smoke] <parent-ref> <out.json>
#
# <parent-ref> is exported (git archive) into a temporary directory.
# Each side builds its own perfbench with its own perfbench/run.py,
# into its own temporary CARGO_TARGET_DIR, so nothing is written under
# perfbench/ or .bench_build/. Every workload BENCHMARK.json lists then
# runs as pairs at seeds 1-10, run_seconds per run, one side right
# after the other; odd seeds run the parent first, even seeds this
# checkout. --smoke runs one pair per workload at smoke scale.
#
# <out.json> holds every run (the end-to-end metrics, failed and
# attempted counts, sim_digest and the calibration-factor line) and,
# per workload and metric, both sides' quartiles and the number of
# pairs this checkout won. The script exits 1 when a build or any run
# failed; the JSON is written either way.
set -eu

root=$(CDPATH= cd -- "$(dirname "$0")/.." && pwd)

usage() {
    echo "usage: $0 [--smoke] <parent-ref> <out.json>" >&2
    exit 2
}

smoke=0
ref=
out=
for arg in "$@"; do
    case "$arg" in
    --smoke) smoke=1 ;;
    -*) usage ;;
    *)
        if [ -z "$ref" ]; then
            ref=$arg
        elif [ -z "$out" ]; then
            out=$arg
        else
            usage
        fi
        ;;
    esac
done
[ -n "$ref" ] && [ -n "$out" ] || usage
case "$out" in
/*) ;;
*) out=$PWD/$out ;;
esac

parent_sha=$(git -C "$root" rev-parse --verify "$ref^{commit}")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
mkdir "$tmp/parent" "$tmp/runs"
git -C "$root" archive --format=tar "$parent_sha" | tar -x -C "$tmp/parent"

spec=$root/BENCHMARK.json
workloads=$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$spec")
if [ "$smoke" = 1 ]; then
    seeds=1
    seconds=1
    smoke_flag=--smoke
else
    seeds="1 2 3 4 5 6 7 8 9 10"
    seconds=$(python3 -c 'import json, sys
print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")
    smoke_flag=
fi

# run_side <parent|change> <workload> <seed> <ran-first 0|1>
run_side() {
    if [ "$1" = parent ]; then src=$tmp/parent; else src=$root; fi
    base=$tmp/runs/$2.$3.$1
    echo "$2 $3 $1 $4" >> "$tmp/manifest"
    echo "bench_snapshot: $2 seed $3 $1" >&2
    rc=0
    (cd "$src" && CARGO_TARGET_DIR=$tmp/build-$1 python3 perfbench/run.py \
        --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 \
        $smoke_flag) > "$base.out" 2> "$base.err" || rc=$?
    echo "$rc" > "$base.rc"
    if [ "$rc" != 0 ]; then
        tail -n 20 "$base.err" >&2
    fi
}

for w in $workloads; do
    for s in $seeds; do
        if [ $((s % 2)) = 1 ]; then
            run_side parent "$w" "$s" 1
            run_side change "$w" "$s" 0
        else
            run_side change "$w" "$s" 1
            run_side parent "$w" "$s" 0
        fi
    done
done

change_rev=$(git -C "$root" rev-parse HEAD)
if [ -n "$(git -C "$root" status --porcelain --untracked-files=no)" ]; then
    change_rev="$change_rev+dirty"
fi

python3 - "$tmp" "$out" "$spec" "$ref" "$parent_sha" "$change_rev" \
    "$seconds" "$smoke" <<'EOF'
import datetime
import json
import os
import statistics
import sys

tmp, out, spec_path, ref, parent_sha, change_rev, seconds, smoke = sys.argv[1:]
spec = json.load(open(spec_path))
metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]]


def cpu_model():
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def quartiles(values):
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


runs = []
for line in open(os.path.join(tmp, "manifest")):
    workload, seed, side, first = line.split()
    base = os.path.join(tmp, "runs", f"{workload}.{seed}.{side}")
    code = int(open(base + ".rc").read())
    lines = open(base + ".out").read().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    ok = code == 0 and isinstance(result, dict) and result.get("correct")
    values = (result or {}).get("metrics", {})
    runs.append({
        "workload": workload,
        "seed": int(seed),
        "side": side,
        "ran_first": first == "1",
        "exit": code,
        "correct": bool(ok),
        "attempted": (result or {}).get("attempted"),
        "failed": (result or {}).get("failed"),
        "sim_digest": next((l.split()[1] for l in lines
                            if l.startswith("sim_digest")), None),
        "calibration": next((l for l in lines
                             if l.startswith("calibration factors")), None),
        "metrics": {name: values[name]["value"]
                    for name, _ in metrics if name in values},
    })

summary = {}
for workload in dict.fromkeys(r["workload"] for r in runs):
    by_side = {side: {r["seed"]: r for r in runs
                      if r["workload"] == workload and r["side"] == side}
               for side in ("parent", "change")}
    seeds = sorted(set(by_side["parent"]) & set(by_side["change"]))
    entry = {
        "pairs": len(seeds),
        "failed_runs": {side: sum(not r["correct"] for r in rs.values())
                        for side, rs in by_side.items()},
        "digests_match": all(
            by_side["parent"][s]["sim_digest"] ==
            by_side["change"][s]["sim_digest"] for s in seeds),
        "metrics": {},
    }
    for name, better in metrics:
        pairs = [(by_side["parent"][s]["metrics"].get(name),
                  by_side["change"][s]["metrics"].get(name)) for s in seeds]
        pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
        if not pairs:
            continue
        stats = {}
        for i, side in enumerate(("parent", "change")):
            q1, med, q3 = quartiles([pair[i] for pair in pairs])
            stats[side] = {"p25": q1, "median": med, "p75": q3}
        wins = sum((c < p) if better == "lower" else (c > p)
                   for p, c in pairs)
        entry["metrics"][name] = {
            "better": better,
            **stats,
            "change_wins": wins,
            "median_change": stats["change"]["median"] /
                             stats["parent"]["median"] - 1,
            "parent_iqr": stats["parent"]["p75"] - stats["parent"]["p25"],
        }
    summary[workload] = entry

doc = {
    "parent": {"ref": ref, "commit": parent_sha},
    "change": {"commit": change_rev},
    "date": datetime.datetime.now(datetime.timezone.utc)
                    .strftime("%Y-%m-%dT%H:%M:%SZ"),
    "host": {"nproc": os.cpu_count(), "cpu": cpu_model()},
    "run_seconds": int(seconds),
    "smoke": smoke == "1",
    "order": "pairs at seeds in turn; odd seeds run the parent first",
    "summary": summary,
    "runs": runs,
}
with open(out, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
failed = [r for r in runs if not r["correct"]]
for r in failed:
    print(f"bench_snapshot: {r['workload']} seed {r['seed']} {r['side']} "
          f"failed (exit {r['exit']}); see its run.py stderr above",
          file=sys.stderr)
sys.exit(1 if failed else 0)
EOF
