"""scripts/key_sweep.py: its contract checks, and one swept value for each
class of broken run that a refusal rule has mended since the sweep found
it, each over ``configs/default.cfg`` as the sweep runs it."""

import importlib.util
import json
import sys
import warnings
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "key_sweep", Path(__file__).resolve().parents[1] / "scripts"
    / "key_sweep.py")
key_sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(key_sweep)

# (mode, key, value, outcome, the key its message leads with), one per class
MENDED = [
    # NaN in rotation.csv: the quadratures at the carrier must be finite
    ("simulate", "resonance.gamma_fwhm", 5e-324, "exit 2",
     "resonance.gamma_fwhm"),
    # a RuntimeWarning in detect: the shot noise's variance must be finite
    ("simulate", "sim.probe_power", 5e-324, "exit 2", "sim.probe_power"),
    # "fewer than 2 samples" and numpy's size limit, naming no key
    ("simulate", "sim.duration", 1e-30, "exit 2", "sim.duration"),
    ("simulate", "sim.duration", 1e30, "exit 2", "sim.duration"),
    # "negative shift count": an analyzer band with no width
    ("spectrum", "spectrum.span", 1e-30, "exit 2", "spectrum.span"),
    # "psd must be finite" after a RuntimeWarning: the periodogram's bound
    ("spectrum", "detector.electronic_noise_floor", 1e300, "exit 2",
     "sim.probe_power"),
    # Infinity in sensitivity_report.json, and "report values must be > 0":
    # the projection-noise floor must be finite and > 0
    ("sensitivity-sweep", "atom.density_n", 1e-320, "exit 2",
     "atom.relaxation_gamma"),
    ("sensitivity-sweep", "atom.relaxation_gamma", 1e-320, "exit 2",
     "atom.relaxation_gamma"),
    # exit 3 on a subnormal dark floor: the background must be > 0
    ("noise-scan", "detector.electronic_noise_floor", 5e-324, "exit 2",
     "noisescan.include_zero"),
    # a fit on noise alone: exit 3, saying the fit read noise
    ("demod-sweep", "resonance.phi0", 1e-30, "exit 3", "resonance.phi0"),
    # a RuntimeWarning in the fit on noise near 1e150 rad: its arithmetic
    # past float64 fails the fit, which read noise
    ("demod-sweep", "detector.electronic_noise_floor", 1e300, "exit 3",
     "resonance.phi0"),
]


@pytest.mark.parametrize("mode, key, value, outcome, lead", MENDED)
def test_key_sweep_finds_each_mended_class_mended(mode, key, value, outcome,
                                                  lead):
    result = key_sweep.run_one(mode, key, value)
    assert result["fault"] is None, result
    assert result["outcome"] == outcome
    assert result["message"].startswith(f"{lead}:")


# each key that sizes an array, with the modes that read it: the full
# sweep's values of these keys reach refusals no other tier-1 test runs
SIZE_KEYS = [
    ("sim.duration", key_sweep.MODES),
    ("sweep.power_points", ("noise-scan", "sensitivity-sweep")),
    ("sweep.freq_points", ("demod-sweep",)),
    ("sweep.trace_avg", ("sensitivity-sweep",)),
    ("snlmap.freq_bins", ("snl-map",)),
]


@pytest.mark.parametrize("key, modes", SIZE_KEYS)
def test_key_sweep_keeps_the_contract_at_array_size_extremes(key, modes):
    results = key_sweep.sweep({key: key_sweep.KEYS[key]}, modes)
    assert [r for r in results if r["fault"]] == []


def _nan_output(argv):
    out = Path(argv[argv.index("--out") + 1])
    out.mkdir()
    (out / "report.json").write_text('{"snr": NaN}')
    return 0


def _unnamed_refusal(argv):
    print(json.dumps({"message": "negative shift count"}), file=sys.stderr)
    return 2


def _warning(argv):
    warnings.warn("overflow encountered", RuntimeWarning)
    return 0


@pytest.mark.parametrize("fake, fault", [
    (_nan_output, "non-finite output in report.json"),
    (_unnamed_refusal, "exit 2 naming no key"),
    (_warning, "raised RuntimeWarning")])
def test_key_sweep_flags_a_broken_run(fake, fault, monkeypatch):
    monkeypatch.setattr(key_sweep, "main", fake)
    assert key_sweep.run_one("spectrum", "sim.duration", 1.0)["fault"] == fault
