#!/usr/bin/env python3
"""Check that the working tree writes the same outputs as a git revision.

Runs the six modes on ``configs/default.cfg`` at each ``--seeds`` value,
once in the working tree and once in a ``git archive`` of ``--ref``, and
compares the sha256 of every file each run wrote. ``manifest.json`` is
compared without ``wall_time_s``. Prints one line per file and exits 1 on
any difference or on any mode that fails in either tree::

    python3 scripts/compare_outputs.py --ref HEAD~1 --seeds 1 2
"""

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
MODES = ("simulate", "demod-sweep", "spectrum", "noise-scan", "snl-map",
         "sensitivity-sweep")
CONFIG = "configs/default.cfg"


def _archive(ref: str, dest: Path) -> None:
    """Unpack the tree of git revision ref into dest."""
    tar = subprocess.run(["git", "archive", "--format=tar", ref],
                         cwd=REPO_ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def _run(tree: Path, mode: str, seed: int, out: Path) -> str:
    """Run one mode from tree's sources: '' on success, else the exit
    status and the last line of stderr."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env = {k: v for k, v in env.items() if not k.startswith("AMORSIM_")}
    proc = subprocess.run(
        [sys.executable, "-m", "amorsim", mode, "--config", CONFIG,
         "--out", str(out), "--seed", str(seed)],
        cwd=tree, env=env, capture_output=True, text=True)
    return "" if proc.returncode == 0 else (
        f"exit {proc.returncode}: "
        f"{(proc.stderr.strip().splitlines() or [''])[-1]}")


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.json":
        doc = json.loads(data)
        doc.pop("wall_time_s", None)
        data = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def _digests(out: Path) -> dict:
    if not out.is_dir():  # the mode failed before writing anything
        return {}
    return {p.name: _digest(p) for p in sorted(out.iterdir())}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", required=True,
                        help="git revision to compare the working tree with")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args()

    failed = False
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        tmp = Path(tmp)
        ref_tree = tmp / "ref"
        _archive(args.ref, ref_tree)
        for seed in args.seeds:
            for mode in MODES:
                outs = {}
                for side, tree in (("ref", ref_tree), ("work", REPO_ROOT)):
                    out = tmp / "out" / side / f"{mode}-{seed}"
                    error = _run(tree, mode, seed, out)
                    if error:
                        failed = True
                        print(f"FAILED  seed {seed} {mode} ({side}): {error}")
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
