#!/usr/bin/env bash
# Runs the whole end-to-end benchmark N times (default 5), run i with seed i,
# alternating the workload order between runs, then prints each
# end-to-end metric's median, quartiles and spread (interquartile range over
# median) per workload against the bound in BENCHMARK.json.  Exits non-zero
# when a spread exceeds its bound or a run was not correct.
#
#   bench/e2e/repeat.sh [N]
set -euo pipefail

runs=${1:-5}
cd "$(dirname "$0")/../.."
out=.bench_build/e2e/repeat
mkdir -p "$out"
rm -f "$out"/*.json

read -r seconds workloads < <(python3 -c '
import json
b = json.load(open("BENCHMARK.json"))
print(b["run_seconds"], " ".join(w["name"] for w in b["workloads"]))')

for ((i = 1; i <= runs; i++)); do
  order=$workloads
  if ((i % 2 == 0)); then
    order=$(tr ' ' '\n' <<<"$workloads" | tac | tr '\n' ' ')
  fi
  for w in $order; do
    echo "run $i: $w" >&2
    python3 bench/e2e/run.py --workload "$w" --seed "$i" \
      --seconds "$seconds" --trace 0 | tail -n 1 >"$out/$w.$i.json"
  done
done

python3 - "$out" <<'EOF'
import glob, json, os, statistics, sys

out = sys.argv[1]
bench = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
ok = True
print("%-16s %-14s %12s %12s %12s %8s %6s" %
      ("workload", "metric", "q1", "median", "q3", "spread", "bound"))
for w in bench["workloads"]:
    results = [json.load(open(p))
               for p in sorted(glob.glob(os.path.join(out, w["name"] + ".*.json")))]
    for r in results:
        if not r["correct"] or r["failed"]:
            print("%s: a run was not correct (%d failed)" % (w["name"], r["failed"]))
            ok = False
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        flag = "" if spread <= bound else "  EXCEEDS"
        ok = ok and spread <= bound
        print("%-16s %-14s %12.4f %12.4f %12.4f %8.3f %6.2f%s" %
              (w["name"], name, q1, median, q3, spread, bound, flag))
sys.exit(0 if ok else 1)
EOF
