"""Polarimeter/electronics model: photocurrent, noise budget, detection."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.signal import periodogram

from amorsim.cli import detected_to_csv
from amorsim.config import DetectorConfig, ExperimentConfig
from amorsim.detector import (
    NoiseBudget,
    angle_gain_from_chain,
    chain_at,
    detect,
    photocurrent,
    photocurrent_from_flux,
    theoretical_shot_noise_level,
    theory_budget,
)
from amorsim.dsp import psd_estimate
from amorsim.signal_model import (
    ResonanceParams,
    photon_flux,
    synthesize_rotation,
)
from conftest import mean_and_sem, noiseless_rotation

WAVELENGTH = 795e-9


def noise_rotation(power, fs=8000.0, duration=4.0, seed=5):
    """Noise-only rotation series (no coherent tone) for budget checks."""
    res = ResonanceParams(phi0=0.0, gamma_fwhm=60.0, center_freq=1000.0)
    return synthesize_rotation(res, 1000.0, duration=duration, sample_rate=fs,
                               power=power, rng_seed=seed)


def mean_psd(ts, f_lo=100.0, f_hi=3900.0):
    freqs, psd = periodogram(ts.samples, fs=ts.sample_rate, window="boxcar",
                             detrend=False)
    sel = (freqs >= f_lo) & (freqs <= f_hi)
    return float(np.mean(psd[sel]))


# ---------------------------------------------------------------------------
# Photocurrent
# ---------------------------------------------------------------------------

def test_photocurrent_reference_point():
    # 100 uW at 795 nm through an 88%-efficient balanced pair
    current = photocurrent(100e-6, DetectorConfig(), WAVELENGTH)
    assert current == pytest.approx(5.642654538569509e-05, rel=1e-12)


def test_photocurrent_matches_flux_route():
    det = DetectorConfig()
    flux = photon_flux(80.5e-6, WAVELENGTH)
    assert photocurrent(80.5e-6, det, WAVELENGTH) == pytest.approx(
        photocurrent_from_flux(flux, det), rel=1e-12)


@pytest.mark.parametrize("func, bad", [
    (lambda det: photocurrent(-1e-6, det, WAVELENGTH), "power"),
    (lambda det: photocurrent_from_flux(-1.0, det), "flux"),
])
def test_photocurrent_rejects_negative(func, bad):
    with pytest.raises(ValueError, match=bad):
        func(DetectorConfig())


# ---------------------------------------------------------------------------
# Shot-noise level at the analyzer
# ---------------------------------------------------------------------------

def test_shot_noise_level_reference_point():
    level = theoretical_shot_noise_level(100e-6, DetectorConfig(), WAVELENGTH)
    assert level == pytest.approx(9.04052925543012e-14, rel=1e-12)


def test_shot_noise_level_linear_in_power():
    det = DetectorConfig()
    per_watt = theoretical_shot_noise_level(1.0, det, WAVELENGTH)
    assert per_watt == pytest.approx(9.040529255430119e-10, rel=1e-12)
    assert theoretical_shot_noise_level(250e-6, det, WAVELENGTH) == pytest.approx(
        per_watt * 250e-6, rel=1e-12)


def test_shot_noise_level_scales_with_gain_squared():
    base = theoretical_shot_noise_level(1e-4, DetectorConfig(), WAVELENGTH)
    doubled = DetectorConfig(transimpedance_gain_nominal=2e6)
    assert theoretical_shot_noise_level(1e-4, doubled, WAVELENGTH) == \
        pytest.approx(4 * base, rel=1e-12)


def test_angle_gain_reference_point():
    gain = angle_gain_from_chain(DetectorConfig(),
                                 photon_flux(100e-6, WAVELENGTH))
    assert gain == pytest.approx(12.030179897702558, rel=1e-12)


@pytest.mark.parametrize("power", [10e-6, 100e-6, 700e-6])
def test_angle_gain_consistent_with_current_noise(power):
    # the displayed background g^2/(4*Phi) and the photocurrent-noise form
    # G^2 * 2ie/R are two routes to the same white level
    det = DetectorConfig()
    flux = photon_flux(power, WAVELENGTH)
    gain = angle_gain_from_chain(det, flux)
    background = gain ** 2 / (4.0 * flux)
    assert background == pytest.approx(
        theoretical_shot_noise_level(power, det, WAVELENGTH), rel=1e-12)


# ---------------------------------------------------------------------------
# Noise budget
# ---------------------------------------------------------------------------

def test_noise_budget_eval_is_quadratic():
    budget = NoiseBudget(coef_elec=2e-14, coef_shot=9e-10, coef_tech=1.8e-6)
    p = 1.3e-4
    assert budget.eval(p) == pytest.approx(
        2e-14 + 9e-10 * p + 1.8e-6 * p * p, rel=1e-14)
    assert budget.eval(0.0) == 2e-14


@pytest.mark.parametrize("kwargs", [
    dict(coef_elec=-1e-15, coef_shot=0.0, coef_tech=0.0),
    dict(coef_elec=0.0, coef_shot=-1.0, coef_tech=0.0),
    dict(coef_elec=0.0, coef_shot=0.0, coef_tech=float("nan")),
])
def test_noise_budget_validate_rejects(kwargs):
    with pytest.raises(ValueError):
        NoiseBudget(**kwargs).validate()


def test_noise_budget_rejects_negative_power():
    with pytest.raises(ValueError, match="power"):
        NoiseBudget(1e-14, 1e-9, 0.0).eval(-1e-6)


@given(
    a=st.floats(0, 1e-12),
    b=st.floats(0, 1e-8),
    c=st.floats(0, 1e-4),
    p1=st.floats(0, 1e-2),
    p2=st.floats(0, 1e-2),
)
def test_noise_budget_monotone_in_power(a, b, c, p1, p2):
    budget = NoiseBudget(a, b, c).validate()
    lo, hi = sorted((p1, p2))
    assert budget.eval(lo) <= budget.eval(hi)
    assert budget.eval(lo) >= a


@given(
    primary=st.floats(1e2, 1e9),
    gain=st.floats(1e2, 1e9),
    headroom=st.floats(0.05, 1.0),
    knee=st.sampled_from([0.0, 20e3]) | st.floats(0.0, 1e6),
    freq=st.none() | st.floats(1.0, 2e6),
)
def test_theory_budget_at_any_gain(primary, gain, headroom, knee, freq):
    # A is A(f) = floor * (1 + (knee/f)^2) at a frequency and the flat floor
    # without one, at any gain; B and C scale as the squared effective gain
    det = DetectorConfig(transimpedance_gain_nominal=primary,
                         gain_headroom_factor=headroom,
                         electronic_noise_floor=1.35e-14,
                         technical_noise_coef=1.8e-6,
                         electronic_knee_freq=knee)
    cfg = ExperimentConfig(detector=det)
    at_gain = replace(det, transimpedance_gain_nominal=gain)
    budget = theory_budget(cfg, gain, detection_freq=freq)
    if freq is None or knee == 0.0:
        assert budget.coef_elec == 1.35e-14
    else:
        assert budget.coef_elec == 1.35e-14 * (1.0 + (knee / freq) ** 2)
        # at and below the knee, A is at least twice the floor
        assert budget.coef_elec >= 1.35e-14 * (2.0 if knee >= freq else 1.0)
    assert budget.coef_shot == theoretical_shot_noise_level(
        1.0, at_gain, cfg.atom.probe_wavelength)
    assert budget.coef_tech == 1.8e-6 * (
        at_gain.gain_effective / det.gain_effective) ** 2
    assert budget.detection_freq == (0.0 if freq is None else freq)
    scale = (gain / primary) ** 2
    assert budget.coef_tech == pytest.approx(1.8e-6 * scale, rel=1e-12)
    assert budget.coef_shot == pytest.approx(
        theory_budget(cfg).coef_shot * scale, rel=1e-12)


def test_theory_budget_defaults_to_the_configured_gain():
    cfg = ExperimentConfig(detector=DetectorConfig(
        electronic_noise_floor=1.35e-14, technical_noise_coef=1.8e-6))
    budget = theory_budget(cfg)
    assert (budget.coef_elec, budget.coef_tech) == (1.35e-14, 1.8e-6)
    assert budget.coef_shot == pytest.approx(9.040529255430119e-10, rel=1e-12)
    assert budget.detection_freq == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("power", [0.0, 80.5e-6, 1e150, 1e200])
def test_chain_at_is_the_gain_and_the_budget_at_a_power(power):
    # bit for bit the two expressions it replaces; past float64's range N
    # reads inf (or NaN at a zero C) for a rule to refuse, with no warning
    # under the np.errstate that the rules call it in
    for coef_tech in (1.8e-6, 0.0):
        cfg = ExperimentConfig(detector=DetectorConfig(
            electronic_noise_floor=1.35e-14, technical_noise_coef=coef_tech))
        with np.errstate(over="ignore", invalid="ignore"):
            gain, density = chain_at(cfg, power)
        assert gain == angle_gain_from_chain(
            cfg.detector, photon_flux(power, cfg.atom.probe_wavelength))
        if power < 1e200:
            assert density == theory_budget(cfg).eval(power)
        else:
            assert not density < math.inf


# ---------------------------------------------------------------------------
# detect()
# ---------------------------------------------------------------------------

def test_detect_coherent_passthrough():
    res = ResonanceParams(phi0=2e-3, gamma_fwhm=60.0, center_freq=1000.0)
    rot = noiseless_rotation(res, 1000.0, duration=0.1, sample_rate=8000.0,
                             power=1e-4)
    det = DetectorConfig()
    out = detect(rot, det)
    gain = angle_gain_from_chain(det, rot.photon_flux)
    np.testing.assert_allclose(out.samples, gain * rot.samples, rtol=1e-14)
    assert out.angle_gain == pytest.approx(gain)
    assert out.gain_used == det.gain_effective
    assert out.mean_power == 1e-4
    assert out.sample_rate == rot.sample_rate


def test_detect_respects_explicit_angle_gain_and_offset():
    res = ResonanceParams(phi0=1e-3, gamma_fwhm=60.0, center_freq=1000.0)
    rot = noiseless_rotation(res, 1000.0, duration=0.05, sample_rate=8000.0,
                             power=1e-4)
    out = detect(rot, DetectorConfig(), angle_gain=3.0)
    np.testing.assert_allclose(out.samples, 3.0 * rot.samples, rtol=1e-14)
    assert out.angle_gain == 3.0


def test_detect_splits_stochastic_rotation_across_quadratures():
    rot = noise_rotation(80.5e-6, duration=0.1)
    out = detect(rot, DetectorConfig())
    expected = out.angle_gain * rot.noise_samples / math.sqrt(2.0)
    np.testing.assert_allclose(out.samples, expected, rtol=1e-14)


@pytest.mark.parametrize("power", [30e-6, 100e-6])
def test_detect_background_matches_theoretical_shot_level(power):
    # shot noise must enter the displayed spectrum exactly once, at the
    # current-noise level, without any extra injection inside detect()
    det = DetectorConfig()
    out = detect(noise_rotation(power, duration=8.0), det)
    assert mean_psd(out) == pytest.approx(
        theoretical_shot_noise_level(power, det, WAVELENGTH), rel=0.05, abs=0)


def test_detect_electronic_noise_psd():
    rot = noise_rotation(0.0, duration=8.0)  # dark input
    coef_elec = 1.35e-14
    out = detect(rot, DetectorConfig(electronic_noise_floor=coef_elec),
                 angle_gain=1.0, rng_seed=21)
    assert mean_psd(out) == pytest.approx(coef_elec, rel=0.05, abs=0)


def test_detect_technical_noise_psd():
    power = 500e-6
    rot = noise_rotation(power, duration=8.0)
    rot.noise_samples[:] = 0.0
    rot.samples[:] = 0.0
    coef_tech = 1.8e-6
    out = detect(rot, DetectorConfig(technical_noise_coef=coef_tech),
                 angle_gain=1.0, rng_seed=22)
    assert mean_psd(out) == pytest.approx(coef_tech * power ** 2, rel=0.05,
                                          abs=0)


def test_detect_full_budget_psd():
    power = 100e-6
    coef_elec, coef_tech = 1.35e-14, 1.8e-6
    det = DetectorConfig(electronic_noise_floor=coef_elec,
                         technical_noise_coef=coef_tech)
    out = detect(noise_rotation(power, duration=8.0), det, rng_seed=23)
    expected = (coef_elec
                + theoretical_shot_noise_level(power, det, WAVELENGTH)
                + coef_tech * power ** 2)
    assert mean_psd(out) == pytest.approx(expected, rel=0.05, abs=0)


def test_detect_seed_determinism():
    rot = noise_rotation(50e-6, duration=0.1)
    det = DetectorConfig(electronic_noise_floor=1e-14,
                         technical_noise_coef=1e-6)
    a = detect(rot, det, rng_seed=9)
    b = detect(rot, det, rng_seed=9)
    c = detect(rot, det, rng_seed=10)
    np.testing.assert_array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_detect_single_draw_level_across_seeds():
    # A dark rotation (no tone, no shot noise) leaves only the detector draw;
    # its analyzer level must be A + C*P^2 within a 4-sigma interval.
    power, coef_elec, coef_tech = 100e-6, 1.35e-14, 1.8e-6
    res = ResonanceParams(phi0=0.0, gamma_fwhm=60.0, center_freq=1000.0)
    rot = noiseless_rotation(res, 1000.0, duration=2.0, sample_rate=8000.0,
                             power=power)
    det = DetectorConfig(electronic_noise_floor=coef_elec,
                         technical_noise_coef=coef_tech)
    levels = []
    for seed in range(20):
        out = detect(rot, det, angle_gain=1.0, rng_seed=(seed, 1))
        spec = psd_estimate(out, rbw=30.0)
        sel = (spec.freqs > 100.0) & (spec.freqs < 3900.0)
        levels.append(float(np.mean(spec.psd[sel])))
    expected = coef_elec + coef_tech * power ** 2
    mean, sem = mean_and_sem(levels)
    assert sem < 0.01 * expected
    assert abs(mean - expected) < 4.0 * sem


def test_detect_reads_noise_terms_from_detector_config():
    # The config alone sets the background: no other argument repeats A or C.
    power, coef_elec, coef_tech = 100e-6, 1.35e-14, 1.8e-6
    rot = noise_rotation(power, duration=8.0)
    rot.noise_samples[:] = 0.0
    rot.samples[:] = 0.0
    det = DetectorConfig(electronic_noise_floor=coef_elec,
                         technical_noise_coef=coef_tech)
    out = detect(rot, det, rng_seed=24)
    # abs=0: pytest.approx's default absolute tolerance (1e-12) would
    # accept the empty output of a detect that ignored both fields
    assert mean_psd(out) == pytest.approx(coef_elec + coef_tech * power ** 2,
                                          rel=0.05, abs=0)


def test_detect_output_is_its_formula_bit_for_bit():
    # g * ((samples - noise) + noise/sqrt(2)), then the output noise
    rot = synthesize_rotation(ResonanceParams(2e-3, 60.0, 1000.0), 1000.0,
                              duration=0.05, sample_rate=8000.0, power=1e-4,
                              rng_seed=3)
    out = detect(rot, DetectorConfig(), angle_gain=3.7)
    expected = 3.7 * ((rot.samples - rot.noise_samples)
                      + rot.noise_samples / math.sqrt(2.0))
    assert out.samples.tobytes() == expected.tobytes()


@pytest.mark.parametrize("kwargs", [
    dict(electronic_noise_floor=-1e-15), dict(technical_noise_coef=-1e-6),
])
def test_detect_rejects_negative_coefficients(kwargs):
    rot = noise_rotation(50e-6, duration=0.01)
    with pytest.raises(ValueError):
        detect(rot, DetectorConfig(**kwargs))


def test_detected_csv_headers(tmp_path):
    rot = noise_rotation(50e-6, duration=0.01)
    out = detect(rot, DetectorConfig(), rng_seed=4)
    path = tmp_path / "detected.csv"
    detected_to_csv(out, path)
    text = path.read_text()
    assert "np.float64" not in text
    assert f"# gain_used_v_per_a = {out.gain_used!r}" in text
    assert "sample_sqrtw" in text
    body = [ln for ln in text.splitlines()
            if ln and not ln.startswith("#") and ln != "sample_sqrtw"]
    assert len(body) == out.samples.size
    assert float(body[0]) == out.samples[0]
