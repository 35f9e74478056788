"""Resonance-curve fitting and the noise-budget polynomial."""

import json
import math

import numpy as np
import pytest

from amorsim.cli import fit_report
from amorsim.dsp import ResonanceCurve
from amorsim.fitting import (
    FitError,
    LorentzianGuess,
    auto_initial_guess,
    fit_lorentzian,
    fit_noise_polynomial,
)
from amorsim.tables import write_json

CENTER, GAMMA, PHI0 = 70914.3, 60.0, 2.5e-3


def synth_curve(center=CENTER, gamma=GAMMA, phi0=PHI0, theta=0.0,
                b_p=0.0, b_q=0.0, freqs=None, noise=0.0, seed=0):
    """Exact two-quadrature resonance data, optionally with Gaussian noise."""
    if freqs is None:
        freqs = np.linspace(center - 4 * gamma, center + 4 * gamma, 41)
    delta = 2 * np.pi * (freqs - center)
    hw = np.pi * gamma
    den = delta ** 2 + hw ** 2
    absorb = hw ** 2 / den
    disperse = -(hw * delta) / den
    p = phi0 * (absorb * np.cos(theta) - disperse * np.sin(theta)) + b_p
    q = phi0 * (disperse * np.cos(theta) + absorb * np.sin(theta)) + b_q
    if noise > 0.0:
        rng = np.random.default_rng(seed)
        p = p + rng.normal(0.0, noise, p.size)
        q = q + rng.normal(0.0, noise, q.size)
    return ResonanceCurve(freqs, p, q)


# ---------------------------------------------------------------------------
# Resonance fit
# ---------------------------------------------------------------------------

def test_fit_recovers_noiseless_curve_exactly():
    curve = synth_curve(theta=0.3, b_p=1e-4, b_q=-2e-4)
    fit = fit_lorentzian(curve)
    assert fit.converged and not fit.extrapolated
    assert fit.center_freq == pytest.approx(CENTER, abs=1e-6)
    assert fit.gamma_fwhm == pytest.approx(GAMMA, rel=1e-8)
    assert fit.phi0 == pytest.approx(PHI0, rel=1e-8)
    assert fit.phase_offset == pytest.approx(0.3, abs=1e-8)
    assert fit.baseline_p == pytest.approx(1e-4, abs=1e-10)
    assert fit.baseline_q == pytest.approx(-2e-4, abs=1e-10)
    assert fit.residual_rms < 1e-12
    assert fit.n_points == 41


def test_fit_noisy_curve_within_quoted_errors():
    sigma = 2e-5  # about 1% of the peak
    curve = synth_curve(noise=sigma, seed=7)
    fit = fit_lorentzian(curve)
    assert fit.converged
    assert fit.center_freq_err > 0 and fit.phi0_err > 0
    assert abs(fit.center_freq - CENTER) < 5 * fit.center_freq_err
    assert abs(fit.gamma_fwhm - GAMMA) < 5 * fit.gamma_fwhm_err
    assert abs(fit.phi0 - PHI0) < 5 * fit.phi0_err
    assert fit.phi0 == pytest.approx(PHI0, rel=0.05)
    assert fit.residual_rms == pytest.approx(sigma, rel=0.3)


@pytest.mark.parametrize("theta", [-2.5, -1.0, 0.7, 2.9])
def test_fit_gauge_is_positive_amplitude(theta):
    # (-phi0, theta+pi) draws the same curve; the fit must report the
    # positive-amplitude representative with the phase wrapped to (-pi, pi]
    curve = synth_curve(theta=theta)
    guess = LorentzianGuess(CENTER, GAMMA, -PHI0, phase_offset=theta + math.pi)
    fit = fit_lorentzian(curve, guess)
    assert fit.phi0 == pytest.approx(PHI0, rel=1e-8)
    assert fit.phase_offset == pytest.approx(theta, abs=1e-6)
    assert -math.pi <= fit.phase_offset <= math.pi


def test_fit_flags_center_outside_grid():
    freqs = np.linspace(CENTER + 100.0, CENTER + 500.0, 21)
    curve = synth_curve(freqs=freqs)
    fit = fit_lorentzian(curve, LorentzianGuess(CENTER + 50.0, GAMMA, PHI0))
    assert fit.extrapolated
    assert fit.center_freq == pytest.approx(CENTER, abs=1e-3)


def test_fit_reports_non_convergence():
    # pure noise: the width runs off and the evaluation cap is reached
    freqs = np.linspace(1000.0, 2000.0, 41)
    rng = np.random.default_rng(5)
    curve = ResonanceCurve(freqs, rng.normal(0.0, 1e-3, 41),
                           rng.normal(0.0, 1e-3, 41))
    with pytest.raises(FitError, match="did not converge: the evaluation cap"):
        fit_lorentzian(curve)


def test_fit_reports_arithmetic_past_float64():
    # a curve near 1e152 rad: the solver's scaled step norm squares past
    # float64, which fails the fit rather than warning on the way to NaN
    with pytest.raises(FitError, match="left float64's range"):
        fit_lorentzian(synth_curve(phi0=1e152))


def test_fit_requires_enough_points():
    curve = synth_curve(freqs=np.linspace(CENTER - 200, CENTER + 200, 6))
    with pytest.raises(FitError, match="at least 7"):
        fit_lorentzian(curve)


def test_fit_requires_two_linewidths_of_span():
    curve = synth_curve(freqs=np.linspace(CENTER - 50, CENTER + 50, 11))
    with pytest.raises(FitError, match="widen the sweep"):
        fit_lorentzian(curve, LorentzianGuess(CENTER, GAMMA, PHI0))


def test_auto_guess_on_peaked_curve():
    guess = auto_initial_guess(synth_curve())
    assert not guess.from_fallback
    assert guess.center_freq == pytest.approx(CENTER, abs=GAMMA / 4)
    assert GAMMA / 2 < guess.gamma_fwhm < 2 * GAMMA
    assert guess.phi0 == pytest.approx(PHI0, rel=0.05)


def test_auto_guess_falls_back_on_flat_curve():
    freqs = np.linspace(1000.0, 2000.0, 11)
    curve = ResonanceCurve(freqs, np.full(11, 1e-3), np.zeros(11))
    guess = auto_initial_guess(curve)
    assert guess.from_fallback
    assert guess.center_freq == pytest.approx(1500.0)
    assert guess.gamma_fwhm == pytest.approx(100.0)


@pytest.mark.parametrize("theta", np.linspace(-math.pi, math.pi, 13))
def test_auto_guess_fits_at_every_frame_angle(theta):
    # the dispersive quadrature peaks off resonance and the absorptive one
    # turns into a dip for |theta| > pi/2; |P + iQ|^2 is phi0^2 L at any theta
    freqs = np.linspace(CENTER - 4 * GAMMA, CENTER + 4 * GAMMA, 61)
    curve = synth_curve(theta=theta, freqs=freqs)
    guess = auto_initial_guess(curve)
    assert not guess.from_fallback
    assert guess.center_freq == pytest.approx(CENTER, abs=GAMMA / 4)
    assert guess.phi0 == pytest.approx(PHI0, rel=0.05)
    fit = fit_lorentzian(curve)
    assert fit.center_freq == pytest.approx(CENTER, abs=1e-6)
    assert fit.gamma_fwhm == pytest.approx(GAMMA, rel=1e-8)
    assert fit.phi0 == pytest.approx(PHI0, rel=1e-8)
    assert math.remainder(fit.phase_offset - theta, 2 * math.pi) == (
        pytest.approx(0.0, abs=1e-8))


def test_auto_guess_seeds_a_working_fit_from_fallback():
    # even from the flagged fallback the optimizer should find the resonance
    freqs = np.linspace(CENTER - 500, CENTER + 500, 41)
    curve = synth_curve(freqs=freqs)
    guess = auto_initial_guess(curve)
    fit = fit_lorentzian(curve, guess)
    assert fit.center_freq == pytest.approx(CENTER, abs=1e-3)


# ---------------------------------------------------------------------------
# Noise-budget polynomial
# ---------------------------------------------------------------------------

A_TRUE, B_TRUE, C_TRUE = 1.35e-14, 9.040529255430119e-10, 1.8e-6


def budget_data(a=A_TRUE, b=B_TRUE, c=C_TRUE, n=12):
    powers = np.geomspace(1e-6, 1e-3, n)
    return powers, a + b * powers + c * powers ** 2


def test_noise_poly_recovers_exact_budget():
    powers, levels = budget_data()
    fit = fit_noise_polynomial(powers, levels)
    assert fit.coef_elec == pytest.approx(A_TRUE, rel=1e-8)
    assert fit.coef_shot == pytest.approx(B_TRUE, rel=1e-10)
    assert fit.coef_tech == pytest.approx(C_TRUE, rel=1e-8)
    assert fit.residual_rel_rms < 1e-10
    assert fit.n_points == 12
    np.testing.assert_allclose(fit.eval(powers), levels, rtol=1e-8)


def test_noise_poly_fixed_elec_is_pinned_exactly():
    powers, levels = budget_data()
    fit = fit_noise_polynomial(powers, levels, fixed_elec=A_TRUE)
    assert fit.coef_elec == A_TRUE
    assert fit.coef_errs[0] == 0.0
    assert fit.fixed_elec == A_TRUE
    assert fit.coef_shot == pytest.approx(B_TRUE, rel=1e-10)
    assert fit.coef_tech == pytest.approx(C_TRUE, rel=1e-8)


def test_noise_poly_clamps_negative_terms_to_zero():
    # a dip-shaped curve drives the linear term negative unconstrained
    powers = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    levels = np.array([10.0, 3.0, 2.0, 3.0, 10.0])
    fit = fit_noise_polynomial(powers, levels)
    assert fit.coef_shot == 0.0
    assert fit.coef_errs[1] == 0.0
    assert fit.coef_elec >= 0.0 and fit.coef_tech >= 0.0
    assert np.all(fit.eval(powers) > 0)


def test_noise_poly_level_scale_equivariance():
    powers, levels = budget_data()
    base = fit_noise_polynomial(powers, levels)
    scaled = fit_noise_polynomial(powers, levels * 1e6)
    assert scaled.coef_elec == pytest.approx(base.coef_elec * 1e6, rel=1e-9)
    assert scaled.coef_shot == pytest.approx(base.coef_shot * 1e6, rel=1e-9)
    assert scaled.coef_tech == pytest.approx(base.coef_tech * 1e6, rel=1e-9)


def test_noise_poly_power_unit_equivariance():
    powers, levels = budget_data()
    base = fit_noise_polynomial(powers, levels)
    rescaled = fit_noise_polynomial(powers * 1e3, levels)
    assert rescaled.coef_elec == pytest.approx(base.coef_elec, rel=1e-9)
    assert rescaled.coef_shot == pytest.approx(base.coef_shot / 1e3, rel=1e-9)
    assert rescaled.coef_tech == pytest.approx(base.coef_tech / 1e6, rel=1e-9)


@pytest.mark.parametrize("powers, levels, fragment", [
    ([1e-6, 2e-6, 3e-6], [1.0, 1.0, 1.0], "at least 4"),
    ([1e-6, 2e-6], [1.0, 1.0, 1.0], "equal length"),
    ([-1e-6, 2e-6, 3e-6, 4e-6], [1.0, 1.0, 1.0, 1.0], "nonnegative"),
    ([1e-6, 2e-6, 3e-6, 4e-6], [1.0, 0.0, 1.0, 1.0], "positive"),
])
def test_noise_poly_input_validation(powers, levels, fragment):
    with pytest.raises(FitError, match=fragment):
        fit_noise_polynomial(powers, levels)


def test_noise_poly_rejects_negative_fixed_elec():
    powers, levels = budget_data()
    with pytest.raises(FitError, match="fixed_elec"):
        fit_noise_polynomial(powers, levels, fixed_elec=-1e-15)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def test_fit_report_lorentzian_round_trip(tmp_path):
    fit = fit_lorentzian(synth_curve())
    path = tmp_path / "fit.json"
    returned = fit_report(fit)
    write_json(path, returned)
    doc = json.loads(path.read_text())
    assert doc == returned
    assert doc["kind"] == "lorentzian"
    assert doc["params"]["center_freq"] == fit.center_freq
    assert doc["converged"] is True


def test_fit_report_noise_poly():
    powers, levels = budget_data()
    doc = fit_report(fit_noise_polynomial(powers, levels))
    assert doc["kind"] == "noise_polynomial"
    assert doc["params"]["coef_shot"] == pytest.approx(B_TRUE, rel=1e-9)
    assert doc["fixed_elec"] is None


def test_fit_report_rejects_other_types():
    with pytest.raises(TypeError):
        fit_report({"not": "a fit"})
