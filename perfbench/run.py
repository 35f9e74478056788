"""amorsim benchmark: CLI modes on ``configs/default.cfg``, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each pass of a workload is a fresh
single-process interpreter (``perfbench/child.py``) that imports
``amorsim.cli`` and calls ``run_scenario`` once per mode of the workload
with ``workers=1`` and the given seed: a closed loop with one caller.
Passes repeat until ``--seconds`` is used up, with at least two, so that
every run can check that one seed gives byte-identical outputs.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` is the mean pass
time of the run (its measured seconds over its passes), the others are
medians over passes. Pass times on a shared host are bimodal, quiet and
contended vCPU phases about 1.6x apart, so a median jumps between the two
modes from run to run while the mean moves with the share of each.
``--trace 1`` adds traced passes, whose spans give the per-layer metrics,
and ``python -X importtime`` runs for the import breakdown.

The last line of stdout is one JSON object with ``correct``, ``attempted``
(mode runs), ``failed`` (mode runs that raised or failed an output check)
and ``metrics``. A fuller record, with the machine, versions and every
sample, is written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import check_mode, corruption_selftest  # noqa: E402
from spans import EXACT  # noqa: E402

# Why each workload is here: see BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    "noise-scan": ["noise-scan"],
    "sensitivity-sweep": ["sensitivity-sweep"],
    "demod-sweep": ["demod-sweep"],
    "quick-modes": ["simulate", "spectrum", "snl-map"],
}

MIN_PASSES = 2          # untraced passes with --trace 0
MIN_TRACED = 1          # traced passes with --trace 1, beside one untraced
MIN_SETUP_SAMPLES = 3
IMPORTTIME_RUNS = 3
CHILD_TIMEOUT_S = 150
OUT_DIR = ".perfbench_out"
REQUIRED = [os.path.join("src", "amorsim", "cli.py"),
            os.path.join("configs", "default.cfg"), "BENCHMARK.json"]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def hermetic_env(root: str) -> dict:
    """Child environment: no AMORSIM_* overrides, one BLAS/OpenMP thread,
    the checkout's ``src`` alone on the import path."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("AMORSIM_")
           and not (k.startswith("PYTHON") and k != "PYTHONHOME")}
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(cmd, env, root):
    return subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)


def import_seconds(env, root) -> float | None:
    """Time ``import amorsim.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import amorsim.cli; "
            "print(time.perf_counter() - t)")
    proc = _spawn([sys.executable, "-c", code], env, root)
    return float(proc.stdout.split()[-1]) if proc.returncode == 0 else None


def import_breakdown(env, root) -> dict:
    """``import.*`` metrics from one ``python -X importtime`` run.

    ``scipy_signal_s`` sums the cumulative time of the ``scipy.signal``
    modules that amorsim's modules import directly (scipy loads the package
    lazily, so its own line can be missing and its submodules carry the
    cost, dependencies included).
    """
    proc = _spawn([sys.executable, "-X", "importtime", "-c",
                   "import amorsim.cli"], env, root)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr[-2000:])
    rows = []  # (depth, module, self us, cumulative us), children first
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, name.strip(), int(self_us), int(cum_us)))

    def ours(module):
        return module == "amorsim" or module.startswith("amorsim.")

    total = scipy_signal = amorsim_self = 0
    for i, (depth, module, self_us, cum_us) in enumerate(rows):
        if not ours(module):
            continue
        amorsim_self += self_us
        if depth == 0:
            total += cum_us
        j = i - 1
        while j >= 0 and rows[j][0] > depth:
            child_depth, child, _, child_cum = rows[j]
            if child_depth == depth + 1 and (
                    child == "scipy.signal" or child.startswith("scipy.signal.")):
                scipy_signal += child_cum
            j -= 1
    return {"import.total_s": total / 1e6,
            "import.scipy_signal_s": scipy_signal / 1e6,
            "import.amorsim_self_s": amorsim_self / 1e6}


def run_child(job, env, root) -> dict:
    """One pass; a child that crashes or hangs fails all of its modes."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), json.dumps(job)]
    try:
        proc = _spawn(cmd, env, root)
    except subprocess.TimeoutExpired:
        return {"crash": f"no result within {CHILD_TIMEOUT_S} s"}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"crash": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Run:
    """Passes of one workload, their checks and the samples they give."""

    def __init__(self, args, root, env):
        self.args, self.root, self.env = args, root, env
        self.modes = WORKLOADS[args.workload]
        self.work = os.path.join(root, OUT_DIR,
                                 f"{args.workload}-seed{args.seed}")
        self.passes: list[dict] = []
        self.reference: dict = {}
        self.problems: list[str] = []
        self.attempted = self.failed = 0
        self.selftest: list[str] | None = None
        self.samples: dict = {}

    def one_pass(self, traced: bool) -> float:
        index = len(self.passes)
        out = os.path.join(self.work, f"pass{index}")
        shutil.rmtree(out, ignore_errors=True)
        started = time.perf_counter()
        job = {"modes": self.modes, "seed": self.args.seed, "out": out,
               "trace": traced, "run_id": f"{self.args.workload}-"
               f"{self.args.seed}-{index}",
               "spans_file": os.path.join(self.work, f"spans{index}.json")}
        result = run_child(job, self.env, self.root)
        result["traced"] = traced
        if "crash" not in result and not result["amorsim_file"].startswith(
                os.path.join(self.root, "src") + os.sep):
            raise SystemExit(f"amorsim imported from outside the checkout: "
                             f"{result['amorsim_file']}")
        clean = True
        for mode in self.modes:
            self.attempted += 1
            if "crash" in result:
                problems = [result["crash"]]
            elif mode in result["errors"]:
                problems = [result["errors"][mode]]
            else:
                problems = check_mode(mode, os.path.join(out, mode),
                                      self.args.seed, result["digests"][mode],
                                      self.reference.get(mode))
                self.reference.setdefault(mode, result["digests"][mode])
            if problems:
                self.failed += 1
                clean = False
                self.problems += [f"pass {index} {mode}: {p}" for p in problems]
        result["ok"] = clean
        if clean and self.selftest is None and len(self.reference) == len(self.modes):
            self.selftest = corruption_selftest(
                self.modes, out, os.path.join(self.work, "corrupt"),
                self.args.seed, self.reference)
        shutil.rmtree(out, ignore_errors=True)
        self.passes.append(result)
        return time.perf_counter() - started

    def measure(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        started = time.perf_counter()
        cost = {False: 0.0, True: 0.0}
        while True:
            n_plain = sum(not p["traced"] for p in self.passes)
            n_traced = len(self.passes) - n_plain
            if self.args.trace:
                traced = (n_plain >= 1 and n_traced < MIN_TRACED) or n_plain > n_traced
                short = n_plain < 1 or n_traced < MIN_TRACED
            else:
                traced, short = False, n_plain < MIN_PASSES
            elapsed = time.perf_counter() - started
            if not short and elapsed + cost[traced] > self.args.seconds:
                break
            cost[traced] = max(cost[traced], self.one_pass(traced))

    def setup_samples(self) -> list[float]:
        """One per pass, topped up by import-only interpreters to three."""
        samples = [p["setup_s"] for p in self.passes if "setup_s" in p]
        while len(samples) < MIN_SETUP_SAMPLES:
            value = import_seconds(self.env, self.root)
            if value is None:
                break
            samples.append(value)
        return samples


def _median_of(passes, key):
    values = [p[key] for p in passes if key in p]
    return statistics.median(values) if values else float("nan")


def end_to_end(run: Run) -> dict:
    plain = [p for p in run.passes if not p["traced"]]
    ok = [p for p in plain if p["ok"]] or [p for p in plain if "wall_s" in p]
    setup = run.setup_samples()
    run.samples = {"wall_s": f"mean of {len(ok)} passes",
                   "setup_s": f"median of {len(setup)} imports",
                   "peak_rss_mb": f"median of {len(ok)} passes",
                   "ok_frac": f"{run.attempted} mode runs"}
    return {
        "wall_s": statistics.mean(p["wall_s"] for p in ok) if ok else float("nan"),
        "setup_s": statistics.median(setup or [float("nan")]),
        "peak_rss_mb": _median_of(ok, "peak_rss_mb"),
        "ok_frac": 1.0 - run.failed / run.attempted,
    }


def per_layer(run: Run) -> dict:
    traced = [p for p in run.passes if p["traced"] and "layers" in p]
    plain = [p for p in run.passes if not p["traced"]]
    if not traced:
        return {}
    layers = {k: statistics.median(p["layers"][k] for p in traced)
              for k in traced[0]["layers"]}
    for key in EXACT:
        values = {p["layers"][key] for p in traced}
        if len(values) != 1:
            run.problems.append(f"count {key} differs between passes: {values}")
        layers[key] = traced[0]["layers"][key]
    layers["trace.overhead_frac"] = (_median_of(traced, "wall_s")
                                     / _median_of(plain, "wall_s") - 1.0)
    breakdown = [import_breakdown(run.env, run.root)
                 for _ in range(IMPORTTIME_RUNS)]
    for key in breakdown[0]:
        layers[key] = statistics.median(b[key] for b in breakdown)
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(root, p))]
    if missing:
        sys.stderr.write(f"not an amorsim checkout (missing {', '.join(missing)})\n")
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    run = Run(args, root, hermetic_env(root))
    run.measure()
    values = per_layer(run) if args.trace else end_to_end(run)
    absent = [m["name"] for m in declared if m["name"] not in values]
    if absent:
        sys.stderr.write(f"benchmark did not produce {absent}\n")
        return 3
    if run.selftest is None:
        run.problems.append("corruption self-test did not run (no clean pass)")
    elif run.selftest:
        run.problems += [f"checker accepted a corrupted copy: {c}"
                         for c in run.selftest]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds,
        "machine": {"nproc": os.cpu_count(),
                    "affinity": len(os.sched_getaffinity(0)),
                    "cpu": cpu_model(), "platform": platform.platform()},
        "versions": next((p["versions"] for p in run.passes if "versions" in p), {}),
        "passes": [{k: v for k, v in p.items() if k != "digests"}
                   for p in run.passes],
        "problems": run.problems,
        "metrics": metrics,
        "samples": run.samples,
    }
    with open(os.path.join(run.work, f"result-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} passes={len(run.passes)} "
          f"nproc={record['machine']['nproc']} cpu={record['machine']['cpu']} "
          f"versions={json.dumps(record['versions'], sort_keys=True)}")
    for problem in run.problems:
        print(f"# problem: {problem}")
    print(f"# failed_frac {run.failed / run.attempted:.6g} "
          f"({run.failed}/{run.attempted} mode runs)")
    for name, m in metrics.items():
        how = run.samples.get(name)
        print(f"{name} {m['value']:.6g} {m['unit']}" + (f" ({how})" if how else ""))
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
