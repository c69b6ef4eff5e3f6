#!/usr/bin/env bash
# A/A check: two interleaved sets of runs of the same build must agree.
#
#   benchmark/aa.sh [runs-per-set] [workload ...]
#
# First it runs `--check-speed-probe`, which tells whether the host is
# contended right now (the speed index then follows the process's own
# load; README.md, "Speed index"); its verdict is printed with the result
# and decides nothing. Then, for every workload, it runs seed 1
# for set A, seed 1 for set B, seed 2 for set A, ... (interleaved, so both
# sets see the same box) and prints, for every end-to-end metric and for
# the raw figures behind the three that are reported at reference speed:
# the two medians, by how much set B's is worse, and each set's spread
# (distance between the first and third quartile as a share of the
# median). It fails if a run had a failed request, if a median of set B
# is worse than set A's by more than the metric's bound in
# BENCHMARK.json, or if a spread other than setup_s's exceeds its bound.
#
# Last it prints what the rule by which the bounds are chosen asks of each
# bound on this evidence: at least twice the largest difference between two
# medians of the same code, and at least the largest spread (the driver
# refuses a benchmark whose spread exceeds a bound). README.md ("How the
# bounds were chosen") has the sets behind the current bounds.
#
# Run from the root of the repo. Every run's whole output is kept in
# benchmark/out/aa-<workload>-<set>-<seed>.txt.
set -euo pipefail

runs="${1:-10}"
shift || true
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
if [ "$#" -gt 0 ]; then
  workloads=("$@")
else
  mapfile -t workloads < <(python3 -c 'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]')
fi
mapfile -t command < <(python3 -c 'import json; [print(c) for c in json.load(open("BENCHMARK.json"))["command"]]')

probe=passed
"${command[@]}" --check-speed-probe || probe=FAILED

mkdir -p benchmark/out
for workload in "${workloads[@]}"; do
  for seed in $(seq 1 "$runs"); do
    for set in A B; do
      "${command[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        > "benchmark/out/aa-$workload-$set-$seed.txt"
    done
  done
done

python3 - "$probe" "$runs" "${workloads[@]}" <<'PY'
import json, statistics, sys

spec = json.load(open("BENCHMARK.json"))
probe, runs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
RAW = {
    "driver.latency_p50_raw_ms": "lower",
    "driver.cpu_raw_ms_per_req": "lower",
    "driver.goodput_raw_rps": "higher",
    "driver.speed_index": "lower",
}

def read(path):
    """The result line's metrics, the raw figures of the table, and whether every request was verified."""
    lines = open(path).read().splitlines()
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines:
        fields = line.split()
        if len(fields) == 3 and fields[0] in RAW:
            values[fields[0]] = float(fields[1])
    return values, result["correct"] and result["failed"] == 0

gated = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
failed = False
worst = {}  # metric -> (largest difference of medians, largest spread)
print(f"{'workload':<16} {'metric':<26} {'median A':>12} {'median B':>12} {'B worse':>8} {'spread A':>9} {'spread B':>9} {'bound':>6}")
for workload in workloads:
    sets = {}
    for s in "AB":
        rows = [read(f"benchmark/out/aa-{workload}-{s}-{seed}.txt") for seed in range(1, runs + 1)]
        if not all(ok for _, ok in rows):
            print(f"{workload}: a run of set {s} had failed requests")
            failed = True
        sets[s] = [values for values, _ in rows]
    for name, better, bound in gated + [(name, better, None) for name, better in RAW.items()]:
        med, spread = {}, {}
        for s, rows in sets.items():
            values = [r[name] for r in rows]
            med[s] = statistics.median(values)
            q = statistics.quantiles(values, n=4)
            spread[s] = (q[2] - q[0]) / med[s]
        worse = (med["B"] - med["A"]) / med["A"]
        if better == "higher":
            worse = -worse
        difference, widest = worst.get(name, (0.0, 0.0))
        worst[name] = (max(difference, abs(worse)), max(widest, *spread.values()))
        bad = bound is not None and (worse > bound or (name != "setup_s" and max(spread.values()) > bound))
        failed |= bad
        shown = "     -" if bound is None else f"{bound:>6.2f}"
        print(f"{workload:<16} {name:<26} {med['A']:>12.4f} {med['B']:>12.4f} {worse:>+8.3f} {spread['A']:>9.3f} {spread['B']:>9.3f} {shown}{'  FAIL' if bad else ''}")

print()
print(f"{'metric':<26} {'largest difference':>19} {'largest spread':>15} {'bound needs':>12} {'bound':>6}")
for name, _, bound in gated:
    difference, widest = worst[name]
    needs = 2 * difference if name == "setup_s" else max(2 * difference, widest)
    print(f"{name:<26} {difference:>19.3f} {widest:>15.3f} {needs:>12.3f} {bound:>6.2f}")
print("speed probe check", probe, "(the host's state when the check began; it decides nothing)")
print("A/A check", "FAILED" if failed else "passed")
sys.exit(1 if failed else 0)
PY
