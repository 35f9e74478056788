"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/stability.py [--workloads a,b] [--seeds 1-10]
                                   [--trace 0|1] [--out FILE]

Run from the root of a checkout. For every workload it runs
``perfbench/run.py`` once per seed with BENCHMARK.json's ``run_seconds``
and prints, per metric, the median, the quartiles and the spread
(third minus first quartile, over the median, as
``statistics.quantiles(values, n=4)`` gives them) next to a third of the
metric's bound. With ``--trace 1`` it checks instead that every count
metric that does not depend on the seed reads the same for all seeds.
``--out`` saves every run's result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import EXACT  # noqa: E402

# Counts that repeat between passes with one seed but not across seeds: the
# files written hold seeded floats, whose repr length varies.
SEED_DEPENDENT = {"cli.writers.bytes"}


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    declared = bench["per_layer" if args.trace else "end_to_end"]
    report, ok = {}, True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            result = run_once(workload, seed, bench["run_seconds"], args.trace)
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                      if not args.trace or k.endswith("self_s")
                      or k.startswith("trace.")), flush=True)
            ok &= result["correct"] and result["failed"] == 0
        summary = {}
        for metric in declared:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            if args.trace and name in EXACT and name not in SEED_DEPENDENT:
                same = len(set(values)) == 1
                ok &= same
                print(f"  {name}: {'repeats exactly' if same else 'DIFFERS'}"
                      f" ({values[0]!r})")
                summary[name] = {"values": values, "exact": same}
                continue
            summary[name] = summarize(values) if len(values) > 1 else {
                "median": values[0]}
            if "bound" in metric and len(values) > 1:
                limit = metric["bound"] / 3
                steady = summary[name]["spread"] <= limit
                ok &= steady or name == "setup_s"
                print(f"  {name}: median {summary[name]['median']:.6g} "
                      f"{metric['unit']}, spread {summary[name]['spread']:.4f}"
                      f" (bound/3 = {limit:.4f}){'' if steady else ' WIDE'}")
        report[workload] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    print("steady" if ok else "NOT steady (or a run failed)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
