"""Polarimeter/electronics model: photocurrent, noise budget, detection."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.signal import periodogram

from amorsim.config import DetectorConfig, FieldConfig
from amorsim.detector import (
    NoiseBudget,
    angle_gain_from_chain,
    detect,
    detected_to_csv,
    photocurrent,
    photocurrent_from_flux,
    theoretical_shot_noise_level,
)
from amorsim.dsp import psd_estimate
from amorsim.signal_model import (
    ResonanceParams,
    photon_flux,
    synthesize_rotation,
)

WAVELENGTH = 795e-9


def noise_rotation(power, fs=8000.0, duration=4.0, seed=5):
    """Noise-only rotation series (no coherent tone) for budget checks."""
    res = ResonanceParams(phi0=0.0, gamma_fwhm=60.0, center_freq=1000.0)
    field = FieldConfig(b_field=None, modulation_freq=1000.0, detuning_delta=0.0)
    return synthesize_rotation(res, field, duration=duration, sample_rate=fs,
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


def test_photocurrent_convention_ratio():
    physical = DetectorConfig()
    printed = DetectorConfig(photocurrent_convention="as_printed")
    i_phys = photocurrent(100e-6, physical, WAVELENGTH)
    i_print = photocurrent(100e-6, printed, WAVELENGTH)
    eta = physical.quantum_efficiency
    assert i_print == pytest.approx(i_phys / eta ** 2, rel=1e-12)


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


# ---------------------------------------------------------------------------
# detect()
# ---------------------------------------------------------------------------

def test_detect_coherent_passthrough():
    res = ResonanceParams(phi0=2e-3, gamma_fwhm=60.0, center_freq=1000.0)
    field = FieldConfig(b_field=None, modulation_freq=1000.0, detuning_delta=0.0)
    rot = synthesize_rotation(res, field, duration=0.1, sample_rate=8000.0,
                              power=1e-4, shot_noise=False)
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
    field = FieldConfig(b_field=None, modulation_freq=1000.0, detuning_delta=0.0)
    rot = synthesize_rotation(res, field, duration=0.05, sample_rate=8000.0,
                              power=1e-4, shot_noise=False)
    out = detect(rot, DetectorConfig(), angle_gain=3.0, balance_offset=2e-3)
    np.testing.assert_allclose(out.samples, 3.0 * (rot.samples + 2e-3),
                               rtol=1e-14)
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
        theoretical_shot_noise_level(power, det, WAVELENGTH), rel=0.05)


def test_detect_electronic_noise_psd():
    rot = noise_rotation(0.0, duration=8.0)  # dark input
    coef_elec = 1.35e-14
    out = detect(rot, DetectorConfig(), coef_elec=coef_elec, angle_gain=1.0,
                 rng_seed=21)
    assert mean_psd(out) == pytest.approx(coef_elec, rel=0.05)


def test_detect_technical_noise_psd():
    power = 500e-6
    rot = noise_rotation(power, duration=8.0)
    rot.noise_samples[:] = 0.0
    rot.samples[:] = 0.0
    coef_tech = 1.8e-6
    out = detect(rot, DetectorConfig(), coef_tech=coef_tech, angle_gain=1.0,
                 rng_seed=22)
    assert mean_psd(out) == pytest.approx(coef_tech * power ** 2, rel=0.05)


def test_detect_full_budget_psd():
    power = 100e-6
    det = DetectorConfig()
    coef_elec, coef_tech = 1.35e-14, 1.8e-6
    out = detect(noise_rotation(power, duration=8.0), det,
                 coef_elec=coef_elec, coef_tech=coef_tech, rng_seed=23)
    expected = (coef_elec
                + theoretical_shot_noise_level(power, det, WAVELENGTH)
                + coef_tech * power ** 2)
    assert mean_psd(out) == pytest.approx(expected, rel=0.05)


def test_detect_seed_determinism():
    rot = noise_rotation(50e-6, duration=0.1)
    kwargs = dict(coef_elec=1e-14, coef_tech=1e-6)
    a = detect(rot, DetectorConfig(), rng_seed=9, **kwargs)
    b = detect(rot, DetectorConfig(), rng_seed=9, **kwargs)
    c = detect(rot, DetectorConfig(), rng_seed=10, **kwargs)
    np.testing.assert_array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_detect_single_draw_level_across_seeds():
    # A dark rotation (no tone, no shot noise) leaves only the detector draw;
    # its analyzer level must be A + C*P^2 within a 4-sigma interval.
    power, coef_elec, coef_tech = 100e-6, 1.35e-14, 1.8e-6
    res = ResonanceParams(phi0=0.0, gamma_fwhm=60.0, center_freq=1000.0)
    field = FieldConfig(b_field=None, modulation_freq=1000.0, detuning_delta=0.0)
    rot = synthesize_rotation(res, field, duration=2.0, sample_rate=8000.0,
                              power=power, shot_noise=False)
    levels = []
    for seed in range(20):
        out = detect(rot, DetectorConfig(), coef_elec=coef_elec,
                     coef_tech=coef_tech, angle_gain=1.0, rng_seed=(seed, 1))
        spec = psd_estimate(out, rbw=30.0)
        sel = (spec.freqs > 100.0) & (spec.freqs < 3900.0)
        levels.append(float(np.mean(spec.psd[sel])))
    expected = coef_elec + coef_tech * power ** 2
    sem = np.std(levels, ddof=1) / math.sqrt(len(levels))
    assert sem < 0.01 * expected
    assert abs(np.mean(levels) - expected) < 4.0 * sem


@pytest.mark.parametrize("kwargs", [
    dict(coef_elec=-1e-15), dict(coef_tech=-1e-6),
])
def test_detect_rejects_negative_coefficients(kwargs):
    rot = noise_rotation(50e-6, duration=0.01)
    with pytest.raises(ValueError):
        detect(rot, DetectorConfig(), **kwargs)


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
