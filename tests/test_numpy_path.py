"""The numpy-only run path: each numpy replacement against the scipy (or
mpmath) routine it stands in for, and a guard that no mode loads scipy.

scipy and mpmath are imported here, inside the tests, as references only.
"""

import dataclasses
import functools
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.constants
from scipy import fft, signal
from scipy.optimize import least_squares

import amorsim
from amorsim import analysis, cli, detector, signal_model
from amorsim.constants import CODATA
from amorsim.dsp import (
    ResonanceCurve,
    _butter4_step,
    _flattop,
    _smooth_bracket,
    lock_in_demodulate,
)
from amorsim.fitting import _quadrature_model, auto_initial_guess, fit_lorentzian
from test_cli import FAST_CONFIG

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"


def test_codata_matches_scipy_constants():
    assert CODATA.hbar == scipy.constants.hbar
    assert CODATA.planck_h == scipy.constants.h
    assert CODATA.electron_charge == scipy.constants.e
    assert CODATA.bohr_magneton == scipy.constants.physical_constants[
        "Bohr magneton"][0]
    assert CODATA.speed_of_light == scipy.constants.c
    for value in dataclasses.astuple(CODATA):
        assert value > 0.0 and math.isfinite(value)
    assert CODATA.planck_h == pytest.approx(2.0 * math.pi * CODATA.hbar,
                                            rel=1e-12)


def test_no_public_callable_takes_a_constants_parameter():
    # every module reads CODATA; no caller can pass another constant set
    for module in (amorsim, signal_model, detector, analysis):
        for name in module.__all__:
            obj = getattr(module, name)
            if not callable(obj) or (inspect.isclass(obj)
                                     and issubclass(obj, Exception)):
                continue
            members = [obj]
            if inspect.isclass(obj):
                members += [m for _n, m in inspect.getmembers(
                    obj, inspect.isfunction)]
            for member in members:
                params = inspect.signature(member).parameters
                assert "constants" not in params, (module.__name__, name,
                                                   member.__qualname__)


@pytest.mark.parametrize("n", [17, 1000, 4096, 3200, 40000, 393660])
def test_flattop_is_bit_equal_to_scipy(n):
    assert _flattop(n)[0].tobytes() == signal.windows.flattop(n).tobytes()


def test_smooth_bracket_matches_scipy_fast_len():
    snap = _smooth_bracket.__wrapped__  # keep the cache for real calls
    for n in range(16, 500_001, 7):
        assert snap(n) == (fft.prev_fast_len(n, real=True),
                           fft.next_fast_len(n, real=True)), n


def mpmath_step(fs, bw, ks):
    """Step response of butter(4, bw, fs=fs) at indices ks, to 40 digits.

    One partial fraction over all four poles and the DC pole of the step:
    ill-conditioned in doubles, exact enough at 40 digits.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        warped = 4 * mpmath.tan(mpmath.pi * mpmath.mpf(bw) / mpmath.mpf(fs))
        analog = [-warped * mpmath.expj(mpmath.pi * m / 8)
                  for m in (-3, -1, 1, 3)]
        poles = [(4 + a) / (4 - a) for a in analog]
        gain = mpmath.re(warped ** 4 / mpmath.fprod(4 - a for a in analog))
        amps = []
        for i, p in enumerate(poles):
            others = mpmath.fprod(1 - q / p for j, q in enumerate(poles)
                                  if j != i)
            amps.append(gain * (1 + 1 / p) ** 4 / (others * (1 - 1 / p)))
        dc = gain * 16 / mpmath.fprod(1 - p for p in poles)
        return np.array([
            float(mpmath.re(dc + sum(a * p ** int(k)
                                     for a, p in zip(amps, poles))))
            for k in ks])


@pytest.mark.parametrize("bw, fs, n", [(25.0, 320e3, 128_000),
                                       (5.0, 3.15e6, 1_260_000)])
def test_butter4_step_matches_mpmath(bw, fs, n):
    ks = np.unique(np.concatenate([
        np.arange(50), np.geomspace(50, n - 1, 300).astype(int), [n - 1]]))
    step = _butter4_step(fs, bw, n)
    assert np.max(np.abs(step[ks] - mpmath_step(fs, bw, ks))) < 1e-10


def sosfilt_lock_in(ts, mod_freq, bw):
    """The lock-in run as a filter: butter(4) + sosfilt, mean of the tail."""
    fs, n = ts.sample_rate, ts.samples.size
    carrier = 2.0 * np.pi * mod_freq * (np.arange(n) / fs)
    sos = signal.butter(4, bw, fs=fs, output="sos")
    settle = min(int(6.0 * fs / bw), n // 2)
    return tuple(float(signal.sosfilt(sos, 2.0 * ts.samples * f(carrier))
                       [settle:].mean()) for f in (np.cos, np.sin))


def sosfilt_envelope_lock_in(ts, mod_freq, bw):
    """The same on a detected envelope: filter 2 z exp(-i 2pi (f - f_c) t),
    z the samples referred back to radians by the series' angle gain."""
    fs, n = ts.sample_rate, ts.samples.size
    offset = 2.0 * np.pi * (mod_freq - ts.center_freq) * (np.arange(n) / fs)
    sos = signal.butter(4, bw, fs=fs, output="sos")
    settle = min(int(6.0 * fs / bw), n // 2)
    mean = signal.sosfilt(
        sos, 2.0 * ts.samples / ts.angle_gain * np.exp(-1j * offset))[
        settle:].mean()
    return float(mean.real), float(-mean.imag)


def default_demod_grid():
    cfg = cli._load_config(cli.ScenarioSpec(
        "demod-sweep", str(REPO / "configs" / "default.cfg")))
    return (cfg, *cli._demod_grid(cfg))


def test_lock_in_matches_sosfilt_on_default_grid():
    # the real rotation at sim.sample_rate, its shot noise from each
    # point's stream, though demod-sweep itself reads detector rows
    cfg, res, freqs = default_demod_grid()
    bw = cfg.lockin.output_bandwidth
    worst = 0.0
    for i, freq in enumerate(freqs):
        ts = signal_model.synthesize_rotation(
            res, float(freq), cfg.sim.duration, cfg.sim.sample_rate,
            cfg.sim.probe_power, rng_seed=(1, i, 0),
            wavelength=cfg.atom.probe_wavelength)
        assert ts.sample_rate == cfg.sim.sample_rate
        got = lock_in_demodulate(ts, float(freq), bw)
        want = sosfilt_lock_in(ts, float(freq), bw)
        worst = max(worst, *(abs(g - w) for g, w in zip(got, want)))
    assert worst < 1e-9 * cfg.resonance.phi0


def test_envelope_lock_in_matches_sosfilt_on_default_grid():
    cfg, res, freqs = default_demod_grid()
    bw = cfg.lockin.output_bandwidth
    worst = 0.0
    for i, freq in enumerate(freqs):
        ts = cli._demod_point(cfg, res, 1, i, float(freq))
        assert ts.center_freq == freq and ts.sample_rate == 1250.0
        got = lock_in_demodulate(ts, float(freq), bw)
        want = sosfilt_envelope_lock_in(ts, float(freq), bw)
        worst = max(worst, *(abs(g - w) for g, w in zip(got, want)))
    assert worst < 1e-9 * cfg.resonance.phi0


def test_fit_matches_scipy_least_squares():
    # The criterion-6 curves. MINPACK is run to machine-precision
    # tolerances: at 1e-14 it stops once the cost no longer resolves a
    # step, which on these curves leaves the width up to 1e-9 short.
    eps = np.finfo(float).eps
    center, gamma, phi0 = 70914.3, 60.0, 2.5e-3
    freqs = np.linspace(center - 4 * gamma, center + 4 * gamma, 61)
    delta = 2 * np.pi * (freqs - center)
    hw = np.pi * gamma
    clean_p = phi0 * hw ** 2 / (delta ** 2 + hw ** 2)
    clean_q = phi0 * (-(hw * delta) / (delta ** 2 + hw ** 2))
    for trial in range(20):
        rng = np.random.default_rng((601, trial))
        curve = ResonanceCurve(
            freqs, clean_p + rng.normal(0.0, phi0 / 100, freqs.size),
            clean_q + rng.normal(0.0, phi0 / 100, freqs.size))
        fit = fit_lorentzian(curve)
        guess = auto_initial_guess(curve)
        data = np.concatenate([curve.phi_P_values, curve.phi_Q_values])
        model = functools.partial(_quadrature_model, freqs)
        ref = least_squares(
            lambda x: model(x)[0] - data,
            [guess.center_freq, guess.gamma_fwhm, guess.phi0,
             guess.phase_offset, 0.0, 0.0],
            jac=lambda x: model(x)[1], method="lm",
            xtol=eps, ftol=eps, gtol=eps).x
        assert ref[2] > 0.0 and ref[1] > 0.0
        for got, want in ((fit.center_freq, ref[0]), (fit.gamma_fwhm, ref[1]),
                          (fit.phi0, ref[2])):
            assert got == pytest.approx(want, rel=1e-9, abs=0), trial
        assert math.remainder(fit.phase_offset - ref[3], 2 * math.pi) == (
            pytest.approx(0.0, abs=1e-9)), trial
        assert fit.baseline_p == pytest.approx(ref[4], rel=0, abs=1e-9)
        assert fit.baseline_q == pytest.approx(ref[5], rel=0, abs=1e-9)


# ---------------------------------------------------------------------------
# Import guard
# ---------------------------------------------------------------------------

GUARD = """\
import json, sys
import amorsim.cli as cli
lazy = [m for m in ("numpy.random", "numpy.fft") if m not in sys.modules]
before = set(sys.modules)
codes = {{mode: cli.main([mode, "--config", {config!r}, "--out",
                         {out!r} + "/" + mode, "--seed", "1"])
         for mode in {modes!r}}}
print(json.dumps({{"lazy": lazy, "codes": codes,
                  "imported": sorted(set(sys.modules) - before),
                  "loaded": sorted(sys.modules)}}))
"""


def run_guarded(modes, config, out):
    """Run modes on FAST_CONFIG plus config in a fresh interpreter."""
    cfg = Path(out) / "guard.cfg"
    cfg.write_text(FAST_CONFIG + config)
    proc = subprocess.run(
        [sys.executable, "-c", GUARD.format(config=str(cfg), out=str(out),
                                            modes=modes)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert set(doc["codes"].values()) == {0}, doc["codes"]
    return doc


def scipy_modules(loaded):
    return [m for m in loaded if m == "scipy" or m.startswith("scipy.")]


def test_default_modes_load_no_scipy_subpackage(tmp_path):
    doc = run_guarded(list(cli.MODES), "", tmp_path)
    assert doc["lazy"] == []  # loaded by the import, not during a run
    assert doc["imported"] == []  # no mode imports anything while it runs
    assert scipy_modules(doc["loaded"]) == []


def test_video_smoothing_loads_no_scipy(tmp_path):
    # vbw < rbw runs the video filter in the three analyzer modes
    doc = run_guarded(list(cli.MODES), "spectrum.vbw = 10 Hz\n", tmp_path)
    assert doc["imported"] == []
    assert scipy_modules(doc["loaded"]) == []
