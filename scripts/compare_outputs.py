#!/usr/bin/env python3
"""Check that the working tree writes the same outputs as a git revision.

Runs the six modes on ``configs/default.cfg`` at each ``--seeds`` value
(by default 1, 2 and 4294967297, a seed of two 32-bit words),
once in the working tree and once in a ``git archive`` of ``--ref``, and
compares the sha256 of every file each run wrote. ``manifest.json`` is
compared without ``wall_time_s`` and ``workers``. Prints one line per file
and exits 1 on any difference or on any mode that fails in either tree::

    python3 scripts/compare_outputs.py --ref HEAD~1 --seeds 1 2

With ``--workers N`` the working tree runs each mode at ``--workers N``
and the revision at 1, so one command checks that the outputs do not
depend on the pool size::

    python3 scripts/compare_outputs.py --ref HEAD --workers 3

With ``--faults`` it runs the rows of ``tests/faults.py`` instead, the
working tree's table in both trees, and compares each row's exit status,
its stderr JSON and whether it left ``--out`` behind. It prints each row
with the working tree's result (and the revision's, where they differ)
and exits 1 on any difference. A run that outlasts ``TIMEOUT`` seconds is
stopped and reads as timed out, a result of its own::

    python3 scripts/compare_outputs.py --ref HEAD~1 --faults
"""

import argparse
import hashlib
import io
import json
import os
import runpy
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
MODES = ("simulate", "demod-sweep", "spectrum", "noise-scan", "snl-map",
         "sensitivity-sweep")
CONFIG = "configs/default.cfg"
TIMEOUT = 60.0  # s; each mode runs in about a second on CONFIG

FAULTS = runpy.run_path(str(REPO_ROOT / "tests" / "faults.py"))["FAULTS"]


def _archive(ref: str, dest: Path) -> None:
    """Unpack the tree of git revision ref into dest."""
    tar = subprocess.run(["git", "archive", "--format=tar", ref],
                         cwd=REPO_ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def _run(tree: Path, argv: list) -> tuple[str, str]:
    """Run amorsim with argv from tree's sources, without any AMORSIM_
    variable: its status ("exit 0", or "timed out" past TIMEOUT seconds)
    and the last line of its stderr."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env = {k: v for k, v in env.items() if not k.startswith("AMORSIM_")}
    try:
        proc = subprocess.run([sys.executable, "-m", "amorsim", *argv],
                              cwd=tree, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return f"timed out after {TIMEOUT:g} s", ""
    return (f"exit {proc.returncode}",
            (proc.stderr.strip().splitlines() or [""])[-1])


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.json":
        doc = json.loads(data)
        doc.pop("wall_time_s", None)
        doc.pop("workers", None)
        data = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def _digests(out: Path) -> dict:
    if not out.is_dir():  # the mode failed before writing anything
        return {}
    return {p.name: _digest(p) for p in sorted(out.iterdir())}


def _refusal(tree: Path, mode: str, setting: str, scratch: Path) -> str:
    """Exit status, whether --out was left, and stderr of one fault row."""
    scratch.mkdir(parents=True)
    config, out = scratch / "fault.cfg", scratch / "out"
    config.write_text(setting + "\n")
    status, stderr = _run(tree, [mode, "--config", str(config), "--out",
                                 str(out)])
    return (f"{status}, {'--out left' if out.exists() else 'no --out'}, "
            f"{stderr}")


def _compare_faults(ref_tree: Path, tmp: Path) -> bool:
    """Print each fault row; True when any differs between the trees."""
    failed = False
    for row, (mode, setting, *_) in enumerate(FAULTS):
        ref, work = (_refusal(tree, mode, setting, tmp / "faults" / side
                              / str(row))
                     for side, tree in (("ref", ref_tree), ("work", REPO_ROOT)))
        verdict = "same" if ref == work else "DIFFERS"
        failed |= ref != work
        print(f"{verdict:<8} {mode}: {setting.replace(chr(10), '; ')}")
        print(f"  work   {work}")
        if ref != work:
            print(f"  ref    {ref}")
    return failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", required=True,
                        help="git revision to compare the working tree with")
    # 4294967297 = 2**32 + 1 splits into two 32-bit words, so every stream
    # key of its runs is one word longer than at the small seeds
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=[1, 2, 4294967297])
    parser.add_argument("--faults", action="store_true",
                        help="compare the rows of tests/faults.py, not the "
                        "outputs")
    parser.add_argument("--workers", type=int, default=1,
                        help="pool size of the working tree's runs (the "
                        "revision's run at 1)")
    args = parser.parse_args()

    failed = False
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        tmp = Path(tmp)
        ref_tree = tmp / "ref"
        _archive(args.ref, ref_tree)
        if args.faults:
            return 1 if _compare_faults(ref_tree, tmp) else 0
        for seed in args.seeds:
            for mode in MODES:
                outs = {}
                for side, tree, workers in (("ref", ref_tree, 1),
                                            ("work", REPO_ROOT, args.workers)):
                    out = tmp / "out" / side / f"{mode}-{seed}"
                    status, stderr = _run(tree, [
                        mode, "--config", CONFIG, "--out", str(out),
                        "--seed", str(seed), "--workers", str(workers)])
                    if status != "exit 0":
                        failed = True
                        print(f"FAILED  seed {seed} {mode} ({side}): "
                              f"{status}: {stderr}")
                    outs[side] = _digests(out)
                for name in sorted(outs["ref"].keys() | outs["work"].keys()):
                    ref, work = outs["ref"].get(name), outs["work"].get(name)
                    if ref is None or work is None:
                        verdict = "only in " + ("ref" if work is None
                                                else "work")
                    else:
                        verdict = "same" if ref == work else "DIFFERS"
                    failed |= verdict != "same"
                    print(f"{verdict:<13} seed {seed} {mode}/{name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
