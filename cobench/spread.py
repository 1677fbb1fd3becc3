"""Run the benchmark on several seeds and report each end-to-end metric's
median and quartile spread (IQR / median) against its bound.

    python3 cobench/spread.py --workload replay --seeds 1 2 3 4 5

Run from the repository root. A spread above a third of the bound is
flagged: two sets of runs could then disagree by more than the bound.
"""
import argparse
import json
import statistics
import subprocess
import sys

p = argparse.ArgumentParser()
p.add_argument("--workload", required=True)
p.add_argument("--seeds", type=int, nargs="+", required=True)
p.add_argument("--trace", default="0")
args = p.parse_args()

bench = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
expected = [m["name"] for m in bench["end_to_end" if args.trace == "0" else "per_layer"]]
values = {}
for seed in args.seeds:
    cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    last = out.stdout.strip().splitlines()[-1]
    res = json.loads(last)
    if out.returncode != 0 or not res["correct"] or res["failed"]:
        sys.exit(f"seed {seed}: exit {out.returncode}, result {last}")
    if sorted(res["metrics"]) != sorted(expected):
        sys.exit(f"seed {seed}: metric names differ from BENCHMARK.json: "
                 f"{sorted(set(res['metrics']) ^ set(expected))}")
    for k, v in res["metrics"].items():
        values.setdefault(k, []).append(v["value"])
    print(f"seed {seed}: {res['attempted']} attempted, {res['failed']} failed", file=sys.stderr)

for name in expected:
    vs = values[name]
    med = statistics.median(vs)
    line = f"{name:40s} median {med:14.6g}"
    if len(vs) >= 2 and med:
        q = statistics.quantiles(vs, n=4)
        spread = (q[2] - q[0]) / abs(med)
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        line += f"  spread {spread:7.4f}" + (f"  bound {bound}" if bound else "") + flag
    print(line)
    print("    " + " ".join(f"{v:.4g}" for v in vs))
