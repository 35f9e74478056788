#!/usr/bin/env python3
"""Sweep every numeric config key to its extremes and check the exit contract.

Each run is ``configs/default.cfg`` with one key changed, through
``cli.main`` in this process at ``--seed 1``, in each of the six modes.
Every float key takes 0, 5e-324, 1e-320, 1e-300, 1e-30, 1e7, 1e30, 1e300
and -1; every int key takes 0, 1, 2, 3 and 7. The keys that are not plain
numbers (``field.modulation_freq``, ``noisescan.second_b_field``, the
string and boolean keys) are not swept. The process caps its address space
at 3 GiB, a run that outlasts 20 s is stopped, and a RuntimeWarning is
raised as an error. A run breaks the contract when it

- exits 0 with a non-finite number in an output (snl-map's documented
  ``inf`` window edges excepted);
- exits 2 with a message that does not lead with a config key;
- exits 3, unless demod-sweep's fit read noise (the documented class);
- exits 4, raises anything (a RuntimeWarning included) or times out.

It prints one line per broken run and a summary, and exits 1 if any run
broke the contract::

    PYTHONPATH=src python3 scripts/key_sweep.py

A narrower sweep is ``sweep({key: values}, modes)`` or ``run_one`` from
Python.
"""

import collections
import contextlib
import io
import json
import math
import resource
import signal
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

from amorsim.cli import MODES, main
from amorsim.config import _KEY_TABLE
from amorsim.tables import read_table

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG = REPO_ROOT / "configs" / "default.cfg"
FLOAT_VALUES = (0.0, 5e-324, 1e-320, 1e-300, 1e-30, 1e7, 1e30, 1e300, -1.0)
INT_VALUES = (0, 1, 2, 3, 7)
KEYS = {key: FLOAT_VALUES if row[2] == "f" else INT_VALUES
        for key, row in _KEY_TABLE.items() if row[2] in ("f", "i")}
MEMORY_CAP = 3 << 30  # bytes of address space
ALARM_S = 20
# the one exit 3 the contract documents: a Lorentzian fit on noise alone
NOISE_FIT = "resonance.phi0: the Lorentzian fit read noise"


class _Timeout(BaseException):
    """A run outlasted ALARM_S; a BaseException, so main does not catch it."""


def _on_alarm(signum, frame):
    raise _Timeout


def _refuse(constant: str):
    raise ValueError(f"non-finite JSON constant {constant}")


def _non_finite(out: Path, mode: str) -> list[str]:
    """The outputs in out holding a non-finite number: each table's numeric
    columns and header values, and each JSON document as strict JSON."""
    bad = []
    for path in sorted(out.iterdir()):
        if path.suffix == ".json":
            try:
                json.loads(path.read_text(), parse_constant=_refuse)
            except ValueError:
                bad.append(path.name)
            continue
        columns, data, meta = read_table(path)
        for name, column in zip(columns, data):
            edge = mode == "snl-map" and name.startswith(("p_low", "p_high"))
            if (column.dtype.kind == "f" and not edge
                    and not np.isfinite(column).all()):
                bad.append(f"{path.name}:{name}")
        bad += [f"{path.name}:{name}" for name, value in meta.items()
                if isinstance(value, float) and not math.isfinite(value)]
    return bad


def run_one(mode: str, key: str, value) -> dict:
    """One run of mode with key = value over CONFIG: its outcome ("exit N",
    "timed out" or the exception it raised), stderr message and, if it
    broke the contract, why."""
    result = {"mode": mode, "key": key, "value": value, "message": "",
              "fault": None}
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "sweep.cfg", Path(tmp) / "out"
        config.write_text(CONFIG.read_text() + f"\n{key} = {value!r}\n")
        argv = [mode, "--config", str(config), "--out", str(out),
                "--seed", "1"]
        stderr = io.StringIO()
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        try:
            with warnings.catch_warnings(), \
                    contextlib.redirect_stderr(stderr):
                warnings.simplefilter("error", RuntimeWarning)
                signal.alarm(ALARM_S)
                code = main(argv)
        except _Timeout:
            result["outcome"] = result["fault"] = "timed out"
            return result
        except Exception as exc:  # any escape breaks the contract
            result["outcome"] = f"raised {type(exc).__name__}"
            result["fault"], result["message"] = result["outcome"], str(exc)
            return result
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        result["outcome"] = f"exit {code}"
        if code != 0:
            result["message"] = json.loads(stderr.getvalue())["message"]
        if code == 0:
            bad = _non_finite(out, mode)
            if bad:
                result["fault"] = "non-finite output in " + ", ".join(bad)
        elif code == 2:
            lead = result["message"].partition(":")[0]
            if lead not in _KEY_TABLE:
                result["fault"] = "exit 2 naming no key"
        elif code != 3 or not result["message"].startswith(NOISE_FIT):
            result["fault"] = f"undocumented exit {code}"
    return result


def sweep(keys: dict, modes) -> list[dict]:
    return [run_one(mode, key, value) for key, values in keys.items()
            for value in values for mode in modes]


def summary(results: list[dict], seconds: float) -> str:
    outcomes = collections.Counter(r["outcome"] for r in results)
    exit3 = collections.defaultdict(list)  # (mode, leading key) -> runs
    for r in results:
        if r["outcome"] == "exit 3":
            exit3[r["mode"], r["message"].partition(":")[0]].append(
                f"{r['key']} = {r['value']!r}")
    faults = [r for r in results if r["fault"]]
    lines = [f"{len(results)} runs in {seconds:.0f} s: " + ", ".join(
        f"{count} {outcome}" for outcome, count in sorted(outcomes.items()))]
    lines += [f"  exit 3, {mode} '{lead}: ...' ({len(runs)}): "
              + "; ".join(runs)
              for (mode, lead), runs in sorted(exit3.items())]
    lines.append(f"{len(faults)} runs broke the exit contract")
    return "\n".join(lines)


def _cli() -> int:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))
    started = time.monotonic()
    results = sweep(KEYS, MODES)
    for r in results:
        if r["fault"]:
            print(f"{r['mode']} {r['key']} = {r['value']!r}: {r['fault']}"
                  + (f" ({r['message']})" if r["message"] else ""))
    print(summary(results, time.monotonic() - started))
    return 1 if any(r["fault"] for r in results) else 0


if __name__ == "__main__":
    sys.exit(_cli())
