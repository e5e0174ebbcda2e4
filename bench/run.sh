#!/usr/bin/env bash
# Measures the benchmark's baseline: SETS sets of RUNS untraced runs per
# workload, each run its own process with its own seed (1..RUNS), the
# workload order reversed on every other set. Prints each end-to-end
# metric's median, quartiles and spread (quartile distance over median) per
# set and workload, checks every spread against the metric's bound and the
# last set's median against the first's, and writes everything, with the
# host, to bench/baseline.json.
#
#   bash bench/run.sh [RUNS [SETS]]     # defaults 10 and 2; from the repo root
#
# Raw run output is kept under $CARGO_TARGET_DIR/runs (default .bench_build).
set -euo pipefail

runs=${1:-10}
sets=${2:-2}
log=${CARGO_TARGET_DIR:-.bench_build}/runs
rm -rf "$log"
mkdir -p "$log"

read -r seconds workloads < <(python3 -c '
import json
b = json.load(open("BENCHMARK.json"))
print(b["run_seconds"], " ".join(w["name"] for w in b["workloads"]))')
read -ra order <<<"$workloads"

for set in $(seq 1 "$sets"); do
	if ((set % 2 == 0)); then
		ws=()
		for ((i = ${#order[@]} - 1; i >= 0; i--)); do ws+=("${order[i]}"); done
	else
		ws=("${order[@]}")
	fi
	for seed in $(seq 1 "$runs"); do
		for w in "${ws[@]}"; do
			echo "set $set seed $seed $w" >&2
			bash bench/archbench.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
				>"$log/$set.$w.$seed.out" || echo "  exit $?" >&2
		done
	done
done

python3 - "$log" "$runs" "$sets" <<'EOF'
import json, os, platform, statistics, sys

log, runs, sets = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
bench = json.load(open("BENCHMARK.json"))
metrics = bench["end_to_end"]

def cpu():
    for line in open("/proc/cpuinfo"):
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()

names = [x["name"] for x in bench["workloads"]]
host, out, ok = None, {"sets": []}, True
for s in range(1, sets + 1):
    entry = {"set": s, "order": names if s % 2 else names[::-1], "workloads": {}}
    for w in names:
        vals = {m["name"]: [] for m in metrics}
        for seed in range(1, runs + 1):
            lines = open(os.path.join(log, f"{s}.{w}.{seed}.out")).read().splitlines()
            if len(lines) < 2:
                print(f"set {s} {w} seed {seed}: no result")
                ok = False
                continue
            det, res = json.loads(lines[-2]), json.loads(lines[-1])
            if not res["correct"]:
                print(f"set {s} {w} seed {seed}: incorrect")
                ok = False
            host = host or {"cpu": cpu(), "nproc": det["nproc"],
                            "gomaxprocs": det["gomaxprocs"], "go": det["go"]}
            for name in vals:
                vals[name].append(res["metrics"][name]["value"])
        stats = {}
        for m in metrics:
            xs = vals[m["name"]]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            stats[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                "spread": (q3 - q1) / med, "values": xs}
        entry["workloads"][w] = stats
    out["sets"].append(entry)

print(f"{'workload':15} {'metric':12} " + " ".join(f"{'set' + str(s) + ' median [q1, q3] spread':>44}" for s in range(1, sets + 1)) + "  bound  drift")
for w in names:
    for m in metrics:
        name, bound = m["name"], m["bound"]
        cols, meds = [], []
        for entry in out["sets"]:
            st = entry["workloads"][w][name]
            meds.append(st["median"])
            flag = ""
            if name != "setup_s" and st["spread"] > bound:
                flag, ok = "!", False
            cols.append(f"{st['median']:12.5g} [{st['q1']:10.5g}, {st['q3']:10.5g}] {st['spread']:6.3f}{flag:1}")
        # Drift: how much worse the last set's median is than the first's.
        worse = (meds[-1] - meds[0]) / meds[0]
        if m["better"] == "higher":
            worse = -worse
        mark = ""
        if worse > bound:
            mark, ok = " !", False
        print(f"{w:15} {name:12} " + " ".join(cols) + f"  {bound:5.2f} {worse:+6.3f}{mark}")

out = {"host": host, "run_seconds": bench["run_seconds"], "runs_per_set": runs,
       "seeds": list(range(1, runs + 1)), **out}
with open("bench/baseline.json", "w") as f:
    json.dump(out, f, indent=1)
    f.write("\n")
print("all spreads and drifts within bounds" if ok else "SOME CHECKS FAILED (marked !)")
sys.exit(0 if ok else 1)
EOF
