#!/usr/bin/env python3
"""Run every scenario mode against the reference config.

Produces one output directory per mode under --out (default ./demo-out),
then prints a short summary of the headline numbers: fitted resonance
center and width, derived SNR, best sensitivity, and the k=4
shot-noise-limited power window at the primary detection frequency.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from amorsim.analysis import snl_range
from amorsim.cli import MODES, ScenarioSpec, run_scenario
from amorsim.detector import NoiseBudget

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CONFIG = REPO_ROOT / "configs" / "default.cfg"


def run_all(config: Path, out_root: Path, seed: int, workers: int) -> dict:
    results = {}
    for mode in MODES:
        outdir = out_root / mode.replace("-", "_")
        started = time.monotonic()
        status = run_scenario(ScenarioSpec(
            mode=mode, config_path=str(config), output_dir=str(outdir),
            seed=seed, workers=workers,
        ))
        if status != 0:
            raise SystemExit(f"{mode} failed with exit status {status}")
        results[mode] = {
            "outdir": outdir,
            "elapsed_s": time.monotonic() - started,
        }
        print(f"[{mode}] done in {results[mode]['elapsed_s']:.1f} s "
              f"-> {outdir}")
    return results


def summarize(results: dict) -> None:
    fit = json.loads(
        (results["demod-sweep"]["outdir"] / "resonance_fit.json").read_text()
    )
    params = fit["params"]
    print(f"resonance fit: center = {params['center_freq']:.1f} Hz, "
          f"width = {params['gamma_fwhm']:.2f} Hz, "
          f"amplitude = {params['phi0']:.3e} rad")

    snr = json.loads((results["spectrum"]["outdir"] / "snr.json").read_text())
    print(f"spectrum: SNR = {snr['snr']:.3e} (per sqrt-Hz, derived) "
          f"at {snr['modulation_freq_hz'] / 1e3:.2f} kHz")

    report = json.loads(
        (results["sensitivity-sweep"]["outdir"]
         / "sensitivity_report.json").read_text()
    )
    print(f"best sensitivity: "
          f"{report['delta_b_t_per_sqrt_hz'] * 1e15:.1f} fT/sqrt-Hz "
          f"at {report['operating_power_w'] * 1e6:.1f} uW "
          f"[{report['snl_class']}] "
          f"(atomic floor "
          f"{report['delta_b_atomic_t_per_sqrt_hz'] * 1e15:.3f} fT/sqrt-Hz)")

    doc = json.loads(
        (results["noise-scan"]["outdir"] / "noise_scan_budget.json").read_text()
    )
    budget = NoiseBudget(detection_freq=doc["detection_freq_hz"],
                         **doc["params"])
    window = snl_range(budget, 4.0)
    print(f"k=4 SNL window at {budget.detection_freq / 1e3:.1f} kHz: "
          f"{window.p_low * 1e6:.1f} uW .. {window.p_high * 1e6:.1f} uW"
          + ("" if window.nonempty else " (empty)"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", type=Path, default=DEFAULT_CONFIG)
    parser.add_argument("--out", type=Path, default=Path("demo-out"))
    parser.add_argument("--seed", type=int, default=20260817)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    results = run_all(args.config, args.out, args.seed, args.workers)
    print()
    summarize(results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
