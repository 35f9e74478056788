"""One pass of a workload in a fresh interpreter, as one CLI invocation.

    python3 perfbench/child.py '<json job>'

The job names the modes, seed, output directory and whether to trace.
``setup_s`` is the time to ``import amorsim.cli``; nothing else is
imported before it, so the stdlib modules the package needs are paid for
there too. ``wall_s`` runs from the first ``run_scenario`` call until the
output files of every mode have been read back and hashed. The result is
printed as one JSON line.
"""

import sys
import time

_t0 = time.perf_counter()
import amorsim.cli as cli  # noqa: E402

SETUP_S = time.perf_counter() - _t0

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

from checks import digest_dir  # noqa: E402
from spans import RUN_SCENARIO, Tracer, layer_metrics  # noqa: E402

CONFIG = os.path.join("configs", "default.cfg")


def run_pass(job: dict) -> dict:
    tracer = Tracer(job["run_id"]) if job["trace"] else None
    if tracer:
        tracer.install()
    mode_wall, errors, digests = {}, {}, {}
    started = time.perf_counter()
    cpu_started = time.process_time()
    for mode in job["modes"]:
        spec = cli.ScenarioSpec(
            mode=mode, config_path=CONFIG, seed=job["seed"], workers=1,
            output_dir=os.path.join(job["out"], mode),
        )
        t = time.perf_counter()
        try:
            if tracer:
                status = tracer.call(RUN_SCENARIO, cli.run_scenario, (spec,))
            else:
                status = cli.run_scenario(spec)
            if status != 0:
                errors[mode] = f"exit status {status}"
        except Exception as exc:  # a failed mode is counted, not fatal
            errors[mode] = f"{type(exc).__name__}: {exc}"
        mode_wall[mode] = time.perf_counter() - t
    for mode in job["modes"]:
        out = os.path.join(job["out"], mode)
        digests[mode] = digest_dir(out) if os.path.isdir(out) else {}
    wall_s = time.perf_counter() - started
    cpu_s = time.process_time() - cpu_started

    import numpy
    import scipy

    result = {
        "setup_s": SETUP_S,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "mode_wall_s": mode_wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "errors": errors,
        "digests": digests,
        "amorsim_file": os.path.abspath(cli.__file__),
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer:
        tracer.uninstall()
        tracer.write(job["spans_file"])
        result["layers"] = layer_metrics(tracer.spans, wall_s)
    return result


if __name__ == "__main__":
    print(json.dumps(run_pass(json.loads(sys.argv[1]))))
