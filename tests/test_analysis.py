"""Derived quantities: SNR, slope, sensitivity, projection noise, SNL windows."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from amorsim.analysis import (
    classify_operating_point,
    compute_snr,
    projection_noise,
    quadrature_slope,
    sensitivity,
    sensitivity_from_noise_density,
    snl_map,
    snl_range,
)
from amorsim.cli import make_sensitivity_report, snl_map_to_csv
from amorsim.config import AtomConfig
from amorsim.detector import NoiseBudget
from amorsim.dsp import lock_in_demodulate
from amorsim.signal_model import (
    ResonanceParams,
    larmor_doubled_freq,
    lorentzian_quadratures,
    photon_flux,
    shot_noise_angle_density,
    synthesize_rotation,
)

G_F = 1.0 / 3.0
B_COEF = 9.040529255430119e-10  # analyzer shot level per watt, default chain


# ---------------------------------------------------------------------------
# SNR
# ---------------------------------------------------------------------------

def test_compute_snr_basic():
    assert compute_snr(9e-9, 1e-13, 30.0) == pytest.approx(
        math.sqrt(30.0 * 9e-9 / 1e-13), rel=1e-12)
    assert compute_snr(0.0, 1e-13, 30.0) == 0.0


def test_compute_snr_gain_and_bandwidth_invariance():
    base = compute_snr(9e-9, 1e-13, 30.0)
    # common gain cancels
    assert compute_snr(9e-9 * 4.0, 1e-13 * 4.0, 30.0) == pytest.approx(base)
    # a tone peak scales as 1/rbw, so the rbw factor restores the same SNR
    assert compute_snr(9e-9 / 10.0, 1e-13, 300.0) == pytest.approx(base)


@pytest.mark.parametrize("args", [
    (1e-9, 0.0, 30.0), (1e-9, -1e-13, 30.0), (-1e-9, 1e-13, 30.0),
    (1e-9, 1e-13, 0.0),
])
def test_compute_snr_validation(args):
    with pytest.raises(ValueError):
        compute_snr(*args)


# ---------------------------------------------------------------------------
# Slope and sensitivity
# ---------------------------------------------------------------------------

def test_quadrature_slope_reference_point():
    assert quadrature_slope(1.0, 1.0, G_F) == pytest.approx(
        9330829944.704605, rel=1e-12)


def test_quadrature_slope_scaling():
    base = quadrature_slope(2.5e-3, 60.0, G_F)
    assert quadrature_slope(5e-3, 60.0, G_F) == pytest.approx(2 * base)
    assert quadrature_slope(2.5e-3, 120.0, G_F) == pytest.approx(base / 2)
    assert quadrature_slope(2.5e-3, 60.0, 2 * G_F) == pytest.approx(2 * base)


def test_quadrature_slope_matches_model_derivative():
    # finite-difference slope of the generative model's dispersive
    # quadrature against field, with the modulation held on resonance: the
    # swept resonance runs at twice the Larmor frequency, so twice the slope
    atom = AtomConfig()
    phi0, gamma = 2.5e-3, 60.0
    res = ResonanceParams(phi0=phi0, gamma_fwhm=gamma, center_freq=1e5)
    b0 = 7.6e-6
    f_mod = larmor_doubled_freq(b0, atom)

    def phi_q_of_field(b):
        delta = 2 * math.pi * (f_mod - larmor_doubled_freq(b, atom))
        return lorentzian_quadratures(delta, res)[1]

    h = 1e-12
    numeric = (phi_q_of_field(b0 + h) - phi_q_of_field(b0 - h)) / (2 * h)
    want = 2 * quadrature_slope(phi0, gamma, atom.g_f)
    assert numeric == pytest.approx(want, rel=1e-4)


@pytest.mark.parametrize("kwargs", [
    dict(gamma_fwhm=float("nan")),
    dict(gamma_fwhm=0.0),
    dict(g_f=0.0),
])
def test_quadrature_slope_validation(kwargs):
    args = dict(phi0=1e-3, gamma_fwhm=60.0, g_f=G_F)
    args.update(kwargs)
    with pytest.raises(ValueError):
        quadrature_slope(args["phi0"], args["gamma_fwhm"], args["g_f"])


def test_sensitivity_reference_points():
    assert sensitivity(1.0, 1.0, G_F) == pytest.approx(
        1.0717160273267181e-10, rel=1e-12)
    assert sensitivity(10.0, 1.53e4, G_F) == pytest.approx(
        7.004679917168093e-14, rel=1e-12)


def test_sensitivity_scaling():
    base = sensitivity(10.0, 1e4, G_F)
    assert sensitivity(20.0, 1e4, G_F) == pytest.approx(2 * base)
    assert sensitivity(10.0, 2e4, G_F) == pytest.approx(base / 2)


def test_sensitivity_from_noise_density_identity():
    # with SNR = phi0 / noise density, both routes coincide; the slope of
    # the doubled-frequency resonance gives exactly half
    phi0, gamma, snr = 2.5e-3, 60.0, 1.53e4
    density = phi0 / snr
    via_snr = sensitivity(gamma, snr, G_F)
    via_slope = sensitivity_from_noise_density(density, phi0, gamma, G_F)
    assert via_slope == pytest.approx(via_snr, rel=1e-12)
    halved = density / (2 * quadrature_slope(phi0, gamma, G_F))
    assert halved == pytest.approx(via_snr / 2, rel=1e-12)


@pytest.mark.parametrize("args", [(0.0, 1e-3, 60.0), (1e-8, 0.0, 60.0)])
def test_sensitivity_from_noise_density_validation(args):
    with pytest.raises(ValueError):
        sensitivity_from_noise_density(args[0], args[1], args[2], G_F)


def test_projection_noise_reference_point():
    atom = AtomConfig()
    assert atom.atom_number == pytest.approx(6649704450098.396, rel=1e-12)
    assert projection_noise(atom, 1.0) == pytest.approx(
        1.3142517195806804e-16, rel=1e-12)


def test_projection_noise_scaling():
    atom = AtomConfig()
    base = projection_noise(atom, 1.0)
    assert projection_noise(atom, 4.0) == pytest.approx(base / 2, rel=1e-12)
    wider = AtomConfig(relaxation_gamma=40.0)
    assert projection_noise(wider, 1.0) == pytest.approx(2 * base, rel=1e-12)
    with pytest.raises(ValueError):
        projection_noise(atom, 0.0)


# ---------------------------------------------------------------------------
# Shot-noise-limited windows
# ---------------------------------------------------------------------------

def default_budget(freq=70914.3):
    return NoiseBudget(coef_elec=1.35e-14, coef_shot=B_COEF,
                       coef_tech=1.8e-6, detection_freq=freq)


def test_snl_range_default_chain_windows():
    rng1 = snl_range(default_budget(), 1.0)
    assert rng1.p_low == pytest.approx(1.4932754066241571e-05, rel=1e-12)
    assert rng1.p_high == pytest.approx(0.0005022516253016733, rel=1e-12)
    rng4 = snl_range(default_budget(), 4.0)
    assert rng4.p_low == pytest.approx(5.9731016264966283e-05, rel=1e-12)
    assert rng4.p_high == pytest.approx(0.00012556290632541832, rel=1e-12)
    assert rng4.nonempty
    assert rng4.p_low < 80.5e-6 < rng4.p_high


def test_snl_range_round_number_budget():
    # a budget built so the k=1 window lands on round powers
    budget = NoiseBudget(coef_elec=30e-6 * B_COEF, coef_shot=B_COEF,
                         coef_tech=B_COEF / 500e-6)
    rng = snl_range(budget, 1.0)
    assert rng.p_low == pytest.approx(30e-6, rel=1e-12)
    assert rng.p_high == pytest.approx(500e-6, rel=1e-12)
    tight = snl_range(budget, 4.0)
    assert tight.p_low == pytest.approx(120e-6, rel=1e-12)
    assert tight.p_high == pytest.approx(125e-6, rel=1e-12)
    assert tight.nonempty


def test_snl_range_degenerate_coefficients():
    never = snl_range(NoiseBudget(1e-14, 0.0, 1e-6), 1.0)
    assert never.p_low == math.inf and never.p_high == 0.0
    assert not never.nonempty

    no_tech = snl_range(NoiseBudget(1e-14, B_COEF, 0.0), 2.0)
    assert no_tech.p_high == math.inf and no_tech.nonempty

    no_elec = snl_range(NoiseBudget(0.0, B_COEF, 1e-6), 2.0)
    assert no_elec.p_low == 0.0 and no_elec.nonempty


def test_snl_range_rejects_bad_k():
    with pytest.raises(ValueError, match="k must be"):
        snl_range(default_budget(), 0.5)


def test_snl_window_boundaries_balance_budget_terms():
    budget = default_budget()
    for k in (1.0, 2.0, 4.0):
        rng = snl_range(budget, k)
        assert budget.coef_shot * rng.p_low == pytest.approx(
            k * budget.coef_elec, rel=1e-12)
        assert budget.coef_shot * rng.p_high == pytest.approx(
            k * budget.coef_tech * rng.p_high ** 2, rel=1e-12)


@given(
    a=st.floats(1e-16, 1e-12),
    b=st.floats(1e-11, 1e-8),
    c=st.floats(1e-8, 1e-4),
    k1=st.floats(1.0, 16.0),
    k2=st.floats(1.0, 16.0),
)
def test_snl_windows_nest_with_increasing_k(a, b, c, k1, k2):
    budget = NoiseBudget(a, b, c)
    lo_k, hi_k = sorted((k1, k2))
    wide = snl_range(budget, lo_k)
    narrow = snl_range(budget, hi_k)
    assert narrow.p_low >= wide.p_low
    assert narrow.p_high <= wide.p_high


@given(
    a=st.floats(1e-16, 1e-12),
    b=st.floats(1e-11, 1e-8),
    c=st.floats(1e-8, 1e-4),
    k=st.floats(1.0, 8.0),
)
def test_classification_flips_exactly_at_boundaries(a, b, c, k):
    budget = NoiseBudget(a, b, c)
    rng = snl_range(budget, k)
    if not rng.nonempty:
        return
    label = f"SNL({k:g})"
    assert classify_operating_point(budget, rng.p_low, k) == label
    assert classify_operating_point(budget, rng.p_high, k) == label
    assert classify_operating_point(
        budget, rng.p_low * 0.999, k) == "electronic-limited"
    assert classify_operating_point(
        budget, rng.p_high * 1.001, k) == "technical-limited"
    mid = math.sqrt(rng.p_low * rng.p_high)
    assert classify_operating_point(budget, mid, k) == label


def test_classify_never_snl_budget():
    budget = NoiseBudget(1e-14, 0.0, 1e-6)
    assert classify_operating_point(budget, 1e-3, 1.0) == "electronic-limited"
    with pytest.raises(ValueError, match="power"):
        classify_operating_point(budget, -1e-6, 1.0)


def test_snl_map_orders_and_dedupes():
    budgets = [default_budget(freq=70e3), default_budget(freq=10e3)]
    grid = snl_map(budgets, [4.0, 1.0, 1.0])
    assert [(freq, [w.k for w in windows]) for freq, windows in grid] == [
        (10e3, [1.0, 4.0]), (70e3, [1.0, 4.0])]
    for freq, (k1, k4) in grid:
        assert k1 == snl_range(default_budget(freq=freq), 1.0)
        assert k1.p_low <= k4.p_low
        assert k1.p_high >= k4.p_high


def test_snl_map_rejects_empty_inputs():
    with pytest.raises(ValueError, match="budgets"):
        snl_map([], [1.0])
    with pytest.raises(ValueError, match="k_values"):
        snl_map([default_budget()], [])


def test_snl_map_csv(tmp_path):
    grid = snl_map([NoiseBudget(1e-14, B_COEF, 0.0, detection_freq=5e3)],
                   [2.0])
    path = tmp_path / "map.csv"
    snl_map_to_csv(grid, path, seed=3)
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed = 3"
    assert lines[1] == "freq_hz,k,p_low_w,p_high_w,nonempty"
    fields = lines[2].split(",")
    assert float(fields[0]) == 5e3 and float(fields[1]) == 2.0
    assert fields[3] == "inf" and fields[4] == "True"
    assert "np.float64" not in path.read_text()


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

BEST_ROW = {"power_w": 80.5e-6, "phi0_rad": 2.5e-3, "gamma_fwhm_hz": 10.0,
            "s_sig_w_per_hz": 1e-9, "s_bg_w_per_hz": 1e-16, "snr": 1.53e4,
            "delta_b_t_per_sqrt_hz": 7e-14, "snl_class": "SNL(4)"}


def test_sensitivity_report_composition():
    report = make_sensitivity_report(BEST_ROW, 1e-16, 7e4)
    assert report == {
        "gamma_fwhm_hz": 10.0, "snr": 1.53e4, "snr_provenance": "derived",
        "snr_convention": "per-sqrt-hz", "delta_b_t_per_sqrt_hz": 7e-14,
        "delta_b_atomic_t_per_sqrt_hz": 1e-16, "operating_power_w": 80.5e-6,
        "detection_freq_hz": 7e4, "snl_class": "SNL(4)"}


def test_sensitivity_report_validation():
    for row, floor, name in (
            ({**BEST_ROW, "snr": 0.0}, 1e-16, "snr"),
            ({**BEST_ROW, "delta_b_t_per_sqrt_hz": 0.0}, 1e-16, "delta_B"),
            ({**BEST_ROW, "delta_b_t_per_sqrt_hz": math.nan}, 1e-16,
             "delta_B"),
            (BEST_ROW, -1e-16, "delta_B_atomic")):
        with pytest.raises(ValueError, match=f"'{name}'"):
            make_sensitivity_report(row, floor, 7e4)


# ---------------------------------------------------------------------------
# End-to-end statistical link: a field step sized from the sensitivity
# formula should be detected with the predicted significance
# ---------------------------------------------------------------------------

def test_field_step_detected_at_predicted_significance():
    atom = AtomConfig()
    b0 = 0.76e-6  # reduced carrier keeps the sample rate affordable
    f_mod = larmor_doubled_freq(b0, atom)
    phi0, gamma, power = 2.5e-3, 60.0, 80.5e-6
    fs, duration, bandwidth = 32000.0, 1.24, 25.0

    s_phi = shot_noise_angle_density(photon_flux(power, 795e-9))
    slope = 2 * quadrature_slope(phi0, gamma, atom.g_f)
    t_eff = duration - 6.0 / bandwidth  # time left after the filter settle cut
    db_step = 5.0 * math.sqrt(s_phi / t_eff) / slope
    f_stepped = larmor_doubled_freq(b0 + db_step, atom)

    def measure(resonant_freq, lane, i):
        res = ResonanceParams(phi0=phi0, gamma_fwhm=gamma,
                              center_freq=resonant_freq)
        ts = synthesize_rotation(res, f_mod, duration, fs, power,
                                 rng_seed=(lane, i))
        return lock_in_demodulate(ts, f_mod, bandwidth)[1]

    null = np.array([measure(f_mod, 999, i) for i in range(24)])
    stepped = np.array([measure(f_stepped, 998, i) for i in range(24)])
    pooled = math.sqrt(0.5 * (null.var(ddof=1) + stepped.var(ddof=1)))
    snr = abs(stepped.mean() - null.mean()) / pooled
    assert 3.5 < snr < 6.5
    # the pooled scatter itself should sit near the shot-noise prediction
    assert pooled == pytest.approx(math.sqrt(s_phi / t_eff), rel=0.35)
