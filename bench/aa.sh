#!/usr/bin/env bash
# A/A check of the control-loop benchmark: several sets of runs of ONE
# commit, so every difference it prints is noise. A set is one untraced run
# per workload per seed; odd sets run the workloads in BENCHMARK.json's
# order, even sets in reverse. For every end-to-end metric it prints each
# set's median and quartile spread over the seeds (what the driver
# computes), and the largest distance between two sets' medians, against
# the metric's bound. The output is Markdown; the committed copy is
# bench/BASELINE.md.
#
#   bench/aa.sh > bench/BASELINE.md          # 5 sets x 10 seeds, ~100 min
#   SETS=2 SEEDS="1 7" bench/aa.sh           # a quick look, ~8 min
#   SETS=1 SEEDS=1 RUN_SECONDS=2 bench/aa.sh # does the script still work
#   AA_LOG=bench/.scratch/aa.jsonl bench/aa.sh # summarise an earlier log again
set -euo pipefail
cd "$(dirname "$0")/.."

sets=${SETS:-5}
seeds=${SEEDS:-"1 2 3 4 5 6 7 8 9 10"}
seconds=${RUN_SECONDS:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
reversed=$(echo "$workloads" | tr ' ' '\n' | tac | tr '\n' ' ')

mkdir -p bench/.scratch
bin=bench/.scratch/loop
out=bench/.scratch/aa.jsonl
load_before=$(cut -d' ' -f1-3 /proc/loadavg)
started=$(date -u +%Y-%m-%dT%H:%M:%SZ)
if [ -n "${AA_LOG:-}" ]; then
  out=$AA_LOG
  sets=0
else
  go build -o "$bin" ./bench/loop
  : > "$out"
fi
for set in $(seq 1 "$sets"); do
  order=$workloads
  if [ $((set % 2)) -eq 0 ]; then order=$reversed; fi
  for seed in $seeds; do
    for w in $order; do
      echo "set $set seed $seed $w" >&2
      t0=$(date +%s.%N)
      log=$("$bin" -workload "$w" -seed "$seed" -seconds "$seconds" -trace 0) || true
      took=$(python3 -c "import time; print(round(time.time() - $t0, 2))")
      digest=$(echo "$log" | awk '/^plan_digest /{print $2}')
      phase=$(echo "$log" | awk '/^ops_attempted /{for (i = 1; i < NF; i++) if ($i == "measured_s") print $(i+1)}')
      checks=$(echo "$log" | { grep '^CHECK FAILED' || true; } | python3 -c 'import json, sys; print(json.dumps(sys.stdin.read().splitlines()))')
      echo "{\"set\": $set, \"workload\": \"$w\", \"seed\": $seed, \"plan_digest\": \"$digest\", \"took_s\": $took, \"measured_s\": ${phase:-0}, \"checks\": $checks, \"result\": $(echo "$log" | tail -n 1)}" >> "$out"
    done
  done
done

cat <<EOF
# bench/loop A/A baseline

Produced by \`bench/aa.sh\`: sets of runs of one commit, one untraced run at
\`-seconds ${seconds}\` per workload and seed, workload order reversed on even sets.
Every difference below is noise; a later change is judged against it.

| host | |
|---|---|
| date | $started |
| commit | $(git rev-parse --short HEAD 2>/dev/null || echo "(not a git checkout)")$(git diff --quiet HEAD 2>/dev/null || echo " + uncommitted changes") |
| nproc | $(nproc) |
| CPU | $(awk -F': ' '/model name/{print $2; exit}' /proc/cpuinfo) |
| Go | $(go version | awk '{print $3, $4}') |
| kernel | $(uname -sr) |
| state dir filesystem | $(df -T bench/.scratch | awk 'NR==2{print $2, "on", $1}') |
| load average before | $load_before |

Per set: median over the seeds, and in brackets the distance between the
first and third quartile (\`statistics.quantiles(values, n=4)\`) as a share of
the median — the spread the driver holds to the bound (\`setup_s\` excepted).
*between sets*: the largest distance between two sets' medians as a share of
the smaller. Both must stay within the bound; the aim is a third of it.

EOF

python3 - "$out" <<'EOF'
import json, statistics, sys
from collections import defaultdict

contract = json.load(open("BENCHMARK.json"))
runs = [json.loads(line) for line in open(sys.argv[1])]
sets = sorted({r["set"] for r in runs})
seeds = sorted({r["seed"] for r in runs})
print(f"{len(sets)} set(s), seeds {' '.join(map(str, seeds))}, {len(runs)} runs.\n")
worst_spread, worst_between = 0.0, 0.0
failed = sum(r["result"]["failed"] for r in runs)
incorrect = [r for r in runs if not r["result"]["correct"]]

for w in (x["name"] for x in contract["workloads"]):
    print(f"## {w}\n")
    print("| metric | bound | " + " | ".join(f"set {s}" for s in sets) + " | between sets | verdict |")
    print("|---|---|" + "---|" * len(sets) + "---|---|")
    for m in contract["end_to_end"]:
        medians, spreads = [], []
        for s in sets:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs
                    if r["workload"] == w and r["set"] == s and m["name"] in r["result"]["metrics"]]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
            medians.append(med)
            spreads.append((q[2] - q[0]) / med)
        between = (max(medians) - min(medians)) / min(medians)
        gated = spreads if m["name"] != "setup_s" else []
        ok = between <= m["bound"] and all(sp <= m["bound"] for sp in gated)
        steady = between <= m["bound"] / 3 and all(sp <= m["bound"] / 3 for sp in gated)
        if gated:
            worst_spread = max(worst_spread, max(gated) / m["bound"])
        worst_between = max(worst_between, between / m["bound"])
        cells = " | ".join(f"{med:.4g} [{sp:.1%}]" for med, sp in zip(medians, spreads))
        verdict = "within a third" if steady else ("within bound" if ok else "**OVER**")
        print(f"| `{m['name']}` ({m['unit']}) | {m['bound']:.0%} | {cells} | {between:.1%} | {verdict} |")
    mine = [r for r in runs if r["workload"] == w]
    if all("measured_s" in r for r in mine):
        ph, took = [r["measured_s"] for r in mine], [r["took_s"] for r in mine]
        print(f"\nMeasured phase, on the clock: median {statistics.median(ph):.1f} s ({min(ph):.1f}–{max(ph):.1f}); "
              f"whole invocation: median {statistics.median(took):.1f} s ({min(took):.1f}–{max(took):.1f}); "
              f"ops per run: {mine[0]['result']['attempted']}.")
    print()

print("## Checks\n")
print(f"- runs: {len(runs)}; ops failed: {failed}; runs with a failed output check: {len(incorrect)}")
for r in incorrect:
    print(f"  - set {r['set']} {r['workload']} seed {r['seed']}: {'; '.join(r.get('checks', [])) or 'no check printed'}")
digests = defaultdict(set)
for r in runs:
    digests[(r["workload"], r["seed"])].add(r["plan_digest"])
split = {k: v for k, v in digests.items() if len(v) != 1}
print(f"- `plan_digest` identical across all runs of a workload and seed: {'yes' if not split else 'NO: ' + str(sorted(split))}")
print(f"- worst quartile spread: {worst_spread:.0%} of its bound; worst distance between sets: {worst_between:.0%} of its bound")
if all("took_s" in r for r in runs):
    per_seed = sum(r["took_s"] for r in runs) / (len(sets) * len(seeds))
    print(f"- one run of every workload takes {per_seed:.0f} s on average: the driver's {4 + 22 * len(contract['workloads'])} runs come to about {per_seed * (4 + 22 * len(contract['workloads'])) / len(contract['workloads']):.0f} s of its 3420")
if incorrect or failed or split:
    sys.exit(1)
EOF
