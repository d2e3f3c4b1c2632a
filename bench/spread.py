#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread, from the checkout root:

    python3 bench/spread.py [-runs 10] [-sets 2] [-out bench/baseline.json] [WORKLOAD ...]

For every set and workload it runs `bash bench/run.sh` once per seed
(seeds 1..runs; sets interleave run by run), and for every end-to-end
metric reports the median, the first and third quartiles (Python's
statistics.quantiles, n=4) and the spread: (q3 - q1) / median. It then
checks each spread against the metric's bound in BENCHMARK.json (setup_s
excepted) and the second set's median against the first's.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    """Returns the run's host line and its end-to-end metric values."""
    out = subprocess.run(
        ["bash", "bench/run.sh", "-workload", workload, "-seed", str(seed),
         "-seconds", str(seconds), "-trace", "0"],
        check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: outputs wrong: {out}")
    return lines[0], {k: v["value"] for k, v in res["metrics"].items()}


def stats(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("-runs", type=int, default=10)
    ap.add_argument("-sets", type=int, default=2)
    ap.add_argument("-out", default="")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    defs = {m["name"]: m for m in bench["end_to_end"]}

    runs = {(s, w): [] for s in range(args.sets) for w in names}
    host = ""
    for seed in range(1, args.runs + 1):
        for s in range(args.sets):
            for w in names:
                host, values = run_once(w, seed, bench["run_seconds"])
                runs[(s, w)].append(values)
                print(f"set {s + 1} {w} seed {seed} done", file=sys.stderr)

    ok = True
    rows = []
    for w in names:
        for name, d in defs.items():
            sets = [stats([r[name] for r in runs[(s, w)]]) for s in range(args.sets)]
            worse = [0.0] + [
                (st["median"] - sets[0]["median"]) / sets[0]["median"] * (1 if d["better"] == "lower" else -1)
                for st in sets[1:]]
            verdict = "ok"
            if name != "setup_s" and any(st["spread"] > d["bound"] for st in sets):
                verdict = "SPREAD"
            if any(x > d["bound"] for x in worse):
                verdict = "DRIFT"
            ok = ok and verdict == "ok"
            print(f"{w:18} {name:17} bound {d['bound']:.2f} " +
                  " ".join(f"set{i + 1} med {st['median']:.6g} spread {st['spread']:.3f}" for i, st in enumerate(sets)) +
                  f" worse {max(worse):+.3f} {verdict}")
            rows.append({"workload": w, "metric": name, "unit": d["unit"], "bound": d["bound"],
                         "sets": sets, "second_set_worse_by": max(worse)})
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"host": host, "run_seconds": bench["run_seconds"], "runs_per_set": args.runs,
                       "rows": rows}, f, indent=1)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
