"""Acceptance gate: one test per release criterion, each printing a
[ACCEPTANCE n] PASS/FAIL line with the measured numbers and enforcing its
runtime budget."""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from amorsim.analysis import (
    compute_snr,
    projection_noise,
    sensitivity,
    sensitivity_from_noise_density,
    snl_range,
)
from amorsim import cli
from amorsim.cli import ScenarioSpec, emit_plotdata, run_scenario
from amorsim.config import AtomConfig, DetectorConfig, FieldConfig
from amorsim.constants import CODATA
from amorsim.detector import (
    NoiseBudget,
    angle_gain_from_chain,
    detect,
    theoretical_shot_noise_level,
)
from amorsim.dsp import ResonanceCurve, peak_and_background, psd_estimate
from amorsim.fitting import fit_lorentzian, fit_noise_polynomial
from amorsim.signal_model import (
    ResonanceParams,
    larmor_doubled_freq,
    photon_flux,
    synthesize_rotation,
)

WAVELENGTH = 795e-9
REPO = Path(__file__).resolve().parents[1]


def _report(criterion: int, ok: bool, detail: str) -> None:
    line = f"[ACCEPTANCE {criterion}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _noise_only(power, seed, duration=0.2, fs=8000.0, mod=1000.0):
    res = ResonanceParams(phi0=0.0, gamma_fwhm=60.0, center_freq=mod)
    return synthesize_rotation(res, mod, duration, fs, power, rng_seed=seed)


def test_criterion_1_field_frequency_correspondence():
    t0 = time.monotonic()
    atom = AtomConfig()
    low = larmor_doubled_freq(7.6e-6, atom)
    high = larmor_doubled_freq(75e-6, atom)
    ok = 70.3e3 <= low <= 71.6e3 and 693e3 <= high <= 707e3
    elapsed = time.monotonic() - t0
    _report(1, ok and elapsed < 1.0,
            f"7.6uT -> {low:.1f} Hz, 75uT -> {high:.1f} Hz ({elapsed:.2f}s)")


def test_criterion_2_projection_noise_floor():
    t0 = time.monotonic()
    atom = AtomConfig(density_n=1.27e16, cell_radius=0.05, relaxation_gamma=10.0)
    floor = projection_noise(atom, integration_time=1.0)
    rel = abs(floor - 0.134e-15) / 0.134e-15
    elapsed = time.monotonic() - t0
    _report(2, rel < 0.05 and elapsed < 1.0,
            f"floor {floor * 1e15:.4f} fT/sqrt(Hz), {rel * 100:.2f}% from "
            f"0.134 fT ({elapsed:.2f}s)")


def test_criterion_3_shot_noise_psd_identity():
    t0 = time.monotonic()
    det = DetectorConfig()  # effective transimpedance gain 5e5 V/A
    seeds = 100
    details = []
    ok = True
    simulated_at_100uw = None
    for power in (50e-6, 100e-6, 200e-6):
        levels = []
        for s in range(seeds):
            rot = _noise_only(power, seed=(301, int(power * 1e9), s))
            out = detect(rot, det)
            spec = psd_estimate(out, rbw=75.0)
            levels.append(float(np.mean(spec.psd[spec.freqs > 150.0])))
        simulated = float(np.mean(levels))
        gain = angle_gain_from_chain(det, photon_flux(power, WAVELENGTH))
        analytic = gain ** 2 / (4.0 * photon_flux(power, WAVELENGTH))
        rel = abs(simulated - analytic) / analytic
        ok = ok and rel < 0.05
        details.append(f"{power * 1e6:.0f}uW {rel * 100:.2f}%")
        if power == 100e-6:
            simulated_at_100uw = simulated
    theory = theoretical_shot_noise_level(100e-6, det, WAVELENGTH)
    rel_theory = abs(theory - simulated_at_100uw) / simulated_at_100uw
    ok = ok and abs(theory - 9.0e-14) / 9.0e-14 < 0.05 and rel_theory < 0.15
    elapsed = time.monotonic() - t0
    _report(3, ok and elapsed < 120.0,
            f"sim-vs-analytic {', '.join(details)}; current-noise form "
            f"{theory:.3e} W/Hz vs simulated {simulated_at_100uw:.3e} "
            f"({rel_theory * 100:.2f}%) ({elapsed:.1f}s)")


def test_criterion_4_sensitivity_equation_reproduction():
    t0 = time.monotonic()
    atom = AtomConfig()
    det = DetectorConfig()
    phi0, gamma, snr_target = 2.5e-3, 10.0, 1.53e4
    field = FieldConfig(b_field=7.6e-6).resolve(atom)
    mod = field.modulation_freq
    # tune the optical power so the shot-noise angle density gives the
    # target SNR: sqrt(1/(2*Phi)) = phi0/SNR
    density_target = phi0 / snr_target
    flux_needed = 1.0 / (2.0 * density_target ** 2)
    photon_energy = CODATA.planck_h * CODATA.speed_of_light / WAVELENGTH
    power = flux_needed * photon_energy

    fs, duration, rbw = 320e3, 0.5, 30.0
    seeds = 24
    span = (mod - 4e3, mod + 4e3)
    sig_sum, bg_sum, enbw = 0.0, 0.0, None
    for s in range(seeds):
        traces = []
        for lane, amp in enumerate((phi0, 0.0)):
            res = ResonanceParams(amp, gamma, mod)
            rot = synthesize_rotation(res, mod, duration, fs, power,
                                      rng_seed=(401, s, lane))
            traces.append(psd_estimate(detect(rot, det), rbw, span=span))
        s_sig, s_bg = peak_and_background(traces[0], traces[1], mod, 4e3)
        sig_sum += s_sig
        bg_sum += s_bg
        enbw = traces[0].enbw
    s_sig, s_bg = sig_sum / seeds, bg_sum / seeds

    snr_meas = compute_snr(s_sig, s_bg, enbw)
    delta_b_pipeline = sensitivity(gamma, snr_meas, atom.g_f)
    rel_target = abs(delta_b_pipeline - 70e-15) / 70e-15

    # independent route: measured angle-noise density over the dispersive
    # slope at the true peak rotation
    gain = angle_gain_from_chain(det, photon_flux(power, WAVELENGTH))
    density_meas = math.sqrt(2.0 * s_bg / gain ** 2)
    delta_b_slope = sensitivity_from_noise_density(density_meas, phi0, gamma,
                                                   atom.g_f)
    rel_routes = abs(delta_b_pipeline - delta_b_slope) / delta_b_slope

    ok = rel_target < 0.02 and rel_routes < 0.01
    elapsed = time.monotonic() - t0
    _report(4, ok and elapsed < 60.0,
            f"SNR {snr_meas:.0f}, pipeline {delta_b_pipeline * 1e15:.3f} fT "
            f"({rel_target * 100:.2f}% from 70 fT), slope route "
            f"{delta_b_slope * 1e15:.3f} fT (routes differ "
            f"{rel_routes * 100:.2f}%) ({elapsed:.1f}s)")


def test_criterion_5_noise_polynomial_recovery():
    t0 = time.monotonic()
    a_true, b_true, c_true = 1e-16, 1e-12, 1e-9
    powers = np.geomspace(10e-6, 4.5e-3, 12)
    truth = a_true + b_true * powers + c_true * powers ** 2
    errs = {"elec": [], "shot": [], "tech": []}
    nesting_ok = True
    boundaries_ok = True
    for trial in range(100):
        rng = np.random.default_rng((501, trial))
        levels = truth * np.maximum(1.0 + 0.02 * rng.standard_normal(12), 0.01)
        fit = fit_noise_polynomial(powers, levels)
        errs["elec"].append(abs(fit.coef_elec - a_true) / a_true)
        errs["shot"].append(abs(fit.coef_shot - b_true) / b_true)
        errs["tech"].append(abs(fit.coef_tech - c_true) / c_true)
        budget = NoiseBudget(fit.coef_elec, fit.coef_shot, fit.coef_tech)
        windows = [snl_range(budget, k) for k in (1.0, 2.0, 4.0)]
        for k, win in zip((1.0, 2.0, 4.0), windows):
            want_low = k * fit.coef_elec / fit.coef_shot
            want_high = fit.coef_shot / (k * fit.coef_tech)
            if not (math.isclose(win.p_low, want_low, rel_tol=1e-12)
                    and math.isclose(win.p_high, want_high, rel_tol=1e-12)):
                boundaries_ok = False
        for narrow, wide in zip(windows[1:], windows[:-1]):
            if narrow.p_low < wide.p_low or narrow.p_high > wide.p_high:
                nesting_ok = False
    medians = {k: float(np.median(v)) for k, v in errs.items()}
    ok = all(m < 0.05 for m in medians.values()) and nesting_ok and boundaries_ok
    elapsed = time.monotonic() - t0
    _report(5, ok and elapsed < 60.0,
            f"median rel errors elec {medians['elec'] * 100:.2f}% / shot "
            f"{medians['shot'] * 100:.2f}% / tech {medians['tech'] * 100:.2f}%"
            f", boundaries exact: {boundaries_ok}, nesting: {nesting_ok} "
            f"({elapsed:.1f}s)")


def test_criterion_6_lorentzian_fit_recovery():
    t0 = time.monotonic()
    center, gamma, phi0 = 70914.3, 60.0, 2.5e-3
    freqs = np.linspace(center - 4 * gamma, center + 4 * gamma, 61)
    delta = 2 * np.pi * (freqs - center)
    hw = np.pi * gamma
    den = delta ** 2 + hw ** 2
    clean_p = phi0 * hw ** 2 / den
    clean_q = phi0 * (-(hw * delta) / den)

    noiseless = fit_lorentzian(ResonanceCurve(freqs, clean_p, clean_q))
    rms_ok = noiseless.residual_rms < 1e-10

    sigma = phi0 / 100.0  # curve SNR of 100
    center_errs, gamma_errs = [], []
    for trial in range(100):
        rng = np.random.default_rng((601, trial))
        curve = ResonanceCurve(freqs,
                               clean_p + rng.normal(0.0, sigma, freqs.size),
                               clean_q + rng.normal(0.0, sigma, freqs.size))
        fit = fit_lorentzian(curve)
        center_errs.append(abs(fit.center_freq - center))
        gamma_errs.append(abs(fit.gamma_fwhm - gamma) / gamma)
    med_center = float(np.median(center_errs))
    med_gamma = float(np.median(gamma_errs))
    ok = med_center < gamma / 100.0 and med_gamma < 0.02 and rms_ok
    elapsed = time.monotonic() - t0
    _report(6, ok and elapsed < 60.0,
            f"median |center err| {med_center:.3f} Hz (budget "
            f"{gamma / 100:.2f}), median width err {med_gamma * 100:.2f}%, "
            f"noiseless RMS {noiseless.residual_rms:.2e} rad ({elapsed:.1f}s)")


def test_criterion_7_snr_invariance():
    t0 = time.monotonic()
    mod, fs, duration, power = 7091.43, 32e3, 1.0, 80.5e-6
    phi0, gamma = 2.5e-3, 60.0
    span = (mod - 2.5e3, mod + 2.5e3)

    rot_on = synthesize_rotation(ResonanceParams(phi0, gamma, mod), mod,
                                 duration, fs, power, rng_seed=(701, 0))
    rot_off = synthesize_rotation(ResonanceParams(0.0, gamma, mod), mod,
                                  duration, fs, power, rng_seed=(701, 1))

    def snr_for(gain_nominal, rbw):
        det = DetectorConfig(transimpedance_gain_nominal=gain_nominal)
        on = psd_estimate(detect(rot_on, det), rbw, span=span)
        off = psd_estimate(detect(rot_off, det), rbw, span=span)
        s_sig, s_bg = peak_and_background(on, off, mod, 4e3)
        return compute_snr(s_sig, s_bg, on.enbw)

    base = snr_for(1e6, 30.0)
    gain_x10 = snr_for(1e7, 30.0)
    rbw_x10 = snr_for(1e6, 300.0)
    rel_gain = abs(gain_x10 - base) / base
    rel_rbw = abs(rbw_x10 - base) / base
    ok = rel_gain < 0.10 and rel_rbw < 0.10
    elapsed = time.monotonic() - t0
    _report(7, ok and elapsed < 60.0,
            f"SNR {base:.0f}; gain x10 shifts {rel_gain * 100:.2f}%, "
            f"rbw 30->300 Hz shifts {rel_rbw * 100:.2f}% ({elapsed:.1f}s)")


def test_criterion_8_figure_analog_scenarios(tmp_path):
    t0 = time.monotonic()
    config = str(REPO / "configs" / "default.cfg")
    expected = {
        "demod-sweep": ["fig2_resonance.dat"],
        "spectrum": ["fig3_spectrum.dat"],
        "noise-scan": ["fig4a_noise.dat", "fig4b_noise.dat"],
        "snl-map": ["fig6_snl.dat", "fig7_snl.dat"],
        "sensitivity-sweep": ["fig8_sensitivity.dat"],
    }
    emitted = {}
    for mode, want in expected.items():
        out = tmp_path / mode
        code = run_scenario(ScenarioSpec(mode=mode, config_path=config,
                                         output_dir=str(out), seed=20260817,
                                         workers=2))
        assert code == 0
        emitted[mode] = emit_plotdata(out)
        for name in want:
            assert name in emitted[mode], f"{mode} missing {name}"

    rows = []
    for line in (tmp_path / "sensitivity-sweep" / "fig8_sensitivity.dat"
                 ).read_text().splitlines():
        if not line.startswith("#"):
            p, db = line.split()
            rows.append((float(p), float(db)))
    powers = np.array([r[0] for r in rows])
    delta_b = np.array([r[1] for r in rows])
    best = float(delta_b.min())
    plateau = powers[delta_b <= 1.1 * best]
    plateau_factor = float(plateau.max() / plateau.min())
    ok = plateau_factor >= 2.0
    elapsed = time.monotonic() - t0
    _report(8, ok and elapsed < 300.0,
            f"all plot files emitted; best {best * 1e15:.1f} fT at "
            f"{powers[int(np.argmin(delta_b))] * 1e6:.1f} uW, +-10% plateau "
            f"spans x{plateau_factor:.2f} in power ({elapsed:.1f}s)")


def test_plateau_factor_median_over_seeds():
    # the +-10% plateau takes only the grid's discrete steps, so one seed
    # can land a step low; the median over 20 seeds holds the bound
    config = str(REPO / "configs" / "default.cfg")
    cfg = cli._load_config(ScenarioSpec("sensitivity-sweep", config))
    powers = cli._power_grid(cfg)
    factors = []
    for seed in range(20):
        delta_b = np.array([cli._sweep_point_sensitivity(
            (cfg, seed, i, float(p)))["delta_b_t_per_sqrt_hz"]
            for i, p in enumerate(powers)])
        plateau = powers[delta_b <= 1.1 * delta_b.min()]
        factors.append(float(plateau.max() / plateau.min()))
    median = float(np.median(factors))
    print(f"plateau factor over seeds 0-19: min {min(factors):.2f}, "
          f"median {median:.2f}, max {max(factors):.2f}")
    assert median >= 2.0, factors
