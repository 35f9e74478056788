"""Rotation-signal model: resonance shape, photon flux, shot-noise synthesis."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from amorsim import signal_model
from amorsim.config import AtomConfig
from amorsim.cli import detected_to_csv, rotation_to_csv
from amorsim.detector import DetectedTimeSeries
from amorsim.signal_model import (
    ResonanceParams,
    RotationTimeSeries,
    coherent_rotation,
    larmor_doubled_freq,
    lorentzian_quadratures,
    photon_flux,
    shot_noise_angle_density,
    synthesize_rotation,
    white_noise,
)
from amorsim.tables import read_table


def complex_quadrature_oracle(delta, phi0, gamma_fwhm):
    """Independent route to the same quadratures: one complex Lorentzian.

    z = phi0 * (G/2) / (G/2 + i*delta) with G = 2*pi*gamma_fwhm packs the
    absorptive part into Re(z) and the dispersive part into Im(z).
    """
    hw = math.pi * gamma_fwhm
    z = phi0 * hw / (hw + 1j * np.asarray(delta, dtype=float))
    return z.real, z.imag


# ---------------------------------------------------------------------------
# Resonant frequency
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("b_field, expected_hz", [
    (7.6e-6, 70914.307579755),
    (75e-6, 699812.2458528453),
])
def test_larmor_doubled_freq_reference_points(b_field, expected_hz):
    freq = larmor_doubled_freq(b_field, AtomConfig())
    assert freq == pytest.approx(expected_hz, rel=1e-12)


def test_larmor_doubled_freq_scales_linearly():
    atom = AtomConfig()
    base = larmor_doubled_freq(1e-6, atom)
    assert larmor_doubled_freq(3e-6, atom) == pytest.approx(3 * base, rel=1e-12)
    heavier = AtomConfig(g_f=0.5)
    assert larmor_doubled_freq(1e-6, heavier) == pytest.approx(
        base * 0.5 / atom.g_f, rel=1e-12)


def test_larmor_doubled_freq_rejects_negative_field():
    with pytest.raises(ValueError, match="b_field"):
        larmor_doubled_freq(-1e-6, AtomConfig())


# ---------------------------------------------------------------------------
# Quadrature line shape
# ---------------------------------------------------------------------------

def test_quadratures_match_complex_oracle():
    res = ResonanceParams(phi0=2.5e-3, gamma_fwhm=60.0, center_freq=70914.3)
    delta = np.linspace(-8e3, 8e3, 401)
    phi_p, phi_q = lorentzian_quadratures(delta, res)
    want_p, want_q = complex_quadrature_oracle(delta, res.phi0, res.gamma_fwhm)
    np.testing.assert_allclose(phi_p, want_p, rtol=1e-12)
    np.testing.assert_allclose(phi_q, want_q, rtol=1e-12)


def test_quadratures_peak_and_half_width():
    res = ResonanceParams(phi0=1.7e-3, gamma_fwhm=42.0, center_freq=1e5)
    hw = math.pi * res.gamma_fwhm  # Gamma/2 in rad/s
    phi_p0, phi_q0 = lorentzian_quadratures(0.0, res)
    assert phi_p0 == pytest.approx(res.phi0, rel=1e-14)
    assert phi_q0 == 0.0
    # absorptive part reaches half its peak exactly one half-width out,
    # where the dispersive part has the same magnitude
    for sign in (+1.0, -1.0):
        phi_p, phi_q = lorentzian_quadratures(sign * hw, res)
        assert phi_p == pytest.approx(0.5 * res.phi0, rel=1e-12)
        assert phi_q == pytest.approx(-sign * 0.5 * res.phi0, rel=1e-12)


def test_quadratures_scalar_and_array_forms():
    res = ResonanceParams(phi0=1e-3, gamma_fwhm=60.0, center_freq=7e4)
    p, q = lorentzian_quadratures(120.0, res)
    assert isinstance(p, float) and isinstance(q, float)
    parr, qarr = lorentzian_quadratures(np.array([120.0, -120.0]), res)
    assert parr.shape == (2,) and qarr.shape == (2,)
    assert parr[0] == pytest.approx(p) and qarr[0] == pytest.approx(q)


@given(
    phi0=st.floats(1e-6, 1.0),
    gamma=st.floats(1e-2, 1e5),
    delta=st.floats(-1e7, 1e7),
)
def test_quadrature_symmetry_and_circle_identity(phi0, gamma, delta):
    res = ResonanceParams(phi0=phi0, gamma_fwhm=gamma, center_freq=1e5)
    phi_p, phi_q = lorentzian_quadratures(delta, res)
    mirror_p, mirror_q = lorentzian_quadratures(-delta, res)
    assert mirror_p == pytest.approx(phi_p, rel=1e-12, abs=1e-300)
    assert mirror_q == pytest.approx(-phi_q, rel=1e-12, abs=1e-300)
    # both quadratures lie on a circle through the origin with diameter phi0
    assert phi_p ** 2 + phi_q ** 2 == pytest.approx(
        phi0 * phi_p, rel=1e-10, abs=1e-300)
    assert 0.0 < phi_p <= phi0 * (1 + 1e-12)


@pytest.mark.parametrize("bad", [
    ResonanceParams(phi0=-1e-3, gamma_fwhm=60.0, center_freq=1e5),
    ResonanceParams(phi0=1e-3, gamma_fwhm=0.0, center_freq=1e5),
    ResonanceParams(phi0=1e-3, gamma_fwhm=60.0, center_freq=-1.0),
])
def test_quadratures_reject_bad_parameters(bad):
    with pytest.raises(ValueError):
        lorentzian_quadratures(0.0, bad)


# ---------------------------------------------------------------------------
# Photon flux and shot-noise density
# ---------------------------------------------------------------------------

def test_photon_flux_reference_point():
    assert photon_flux(80.5e-6, 795e-9) == pytest.approx(
        322170875031314.56, rel=1e-12)


def test_photon_flux_linear_in_power_and_wavelength():
    base = photon_flux(1e-6, 795e-9)
    assert photon_flux(5e-6, 795e-9) == pytest.approx(5 * base, rel=1e-12)
    assert photon_flux(1e-6, 1590e-9) == pytest.approx(2 * base, rel=1e-12)
    assert photon_flux(0.0, 795e-9) == 0.0


@pytest.mark.parametrize("power, wavelength", [(-1e-6, 795e-9), (1e-6, 0.0)])
def test_photon_flux_rejects_bad_inputs(power, wavelength):
    with pytest.raises(ValueError):
        photon_flux(power, wavelength)


def test_shot_noise_density_reference_point():
    flux = photon_flux(80.5e-6, 795e-9)
    assert math.sqrt(shot_noise_angle_density(flux)) == pytest.approx(
        3.939506885109299e-08, rel=1e-12)


def test_shot_noise_density_inverse_in_flux():
    assert shot_noise_angle_density(2e14) == pytest.approx(
        0.5 * shot_noise_angle_density(1e14), rel=1e-12)
    with pytest.raises(ValueError):
        shot_noise_angle_density(0.0)


# ---------------------------------------------------------------------------
# Time-series synthesis
# ---------------------------------------------------------------------------

def test_synthesize_deterministic_part_on_resonance():
    res = ResonanceParams(phi0=2.5e-3, gamma_fwhm=60.0, center_freq=1000.0)
    wave = coherent_rotation(res, 1000.0, 8000.0, 4000)
    t = np.arange(4000) / 8000.0
    np.testing.assert_allclose(
        wave, res.phi0 * np.cos(2 * np.pi * 1000.0 * t), rtol=0, atol=1e-15)


def test_synthesize_deterministic_part_detuned():
    # a resonance 30 Hz below the 1 kHz carrier
    res = ResonanceParams(phi0=2.5e-3, gamma_fwhm=60.0, center_freq=970.0)
    delta = 2 * np.pi * 30.0
    wave = coherent_rotation(res, 1000.0, 8000.0, 2000)
    phi_p, phi_q = lorentzian_quadratures(delta, res)
    t = np.arange(2000) / 8000.0
    expected = (phi_p * np.cos(2 * np.pi * 1000.0 * t)
                + phi_q * np.sin(2 * np.pi * 1000.0 * t))
    np.testing.assert_allclose(wave, expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize("offset, sample_rate, n", [
    (0.0, 5000.0, 2000), (1234.5, 8192.0, 1001), (-371.25, 4096.0, 7)])
def test_envelope_tone_is_cached_read_only_and_exact(offset, sample_rate, n):
    tone = signal_model._tone(offset, sample_rate, n)
    t = np.arange(n) / sample_rate
    assert tone.tobytes() == np.exp(2j * np.pi * offset * t).tobytes()
    assert signal_model._tone(offset, sample_rate, n) is tone
    with pytest.raises(ValueError):
        tone[0] = 0.0


@pytest.mark.parametrize("center_freq, sample_rate", [
    (None, 8000.0), (1000.0, 500.0), (1100.0, 500.0), (850.0, 400.0)])
def test_synthesized_tone_is_its_formula_bit_for_bit(center_freq,
                                                     sample_rate):
    # the in-place real path and the cached envelope tone compute the
    # module docstring's expressions, in the same order, to the last bit;
    # simulate's series adds its shot noise onto the real one
    res = ResonanceParams(phi0=2.5e-3, gamma_fwhm=60.0, center_freq=970.0)
    n = round(0.25 * sample_rate)
    phi_p, phi_q = lorentzian_quadratures(2 * np.pi * 30.0, res)
    t = np.arange(n) / sample_rate
    if center_freq is None:
        ts = synthesize_rotation(res, 1000.0, duration=0.25,
                                 sample_rate=sample_rate, power=1e-4,
                                 rng_seed=8)
        omega = 2.0 * np.pi * 1000.0
        tone = phi_p * np.cos(omega * t) + phi_q * np.sin(omega * t)
        assert ts.samples.tobytes() == (tone + ts.noise_samples).tobytes()
        wave = coherent_rotation(res, 1000.0, sample_rate, n)
    else:
        tone = 0.5 * (phi_p - 1j * phi_q) * np.exp(
            2j * np.pi * (1000.0 - center_freq) * t)
        wave = coherent_rotation(res, 1000.0, sample_rate, n, center_freq)
    assert wave.tobytes() == tone.tobytes()


def test_envelope_series_own_their_samples():
    # a caller writing into one envelope leaves the shared tone, and so the
    # next wave on the same grid, as they were
    res = ResonanceParams(phi0=2.5e-3, gamma_fwhm=60.0, center_freq=1000.0)
    first = coherent_rotation(res, 1000.0, 500.0, 250, 1100.0)
    expected = first.tobytes()
    first[:] = 0.0
    again = coherent_rotation(res, 1000.0, 500.0, 250, 1100.0)
    assert again.tobytes() == expected


def test_synthesize_is_seed_deterministic():
    res = ResonanceParams(phi0=1e-3, gamma_fwhm=60.0, center_freq=1000.0)
    kwargs = dict(duration=0.1, sample_rate=8000.0, power=1e-4)
    a = synthesize_rotation(res, 1000.0, rng_seed=42, **kwargs)
    b = synthesize_rotation(res, 1000.0, rng_seed=42, **kwargs)
    c = synthesize_rotation(res, 1000.0, rng_seed=43, **kwargs)
    np.testing.assert_array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_synthesize_sample_count_and_metadata():
    res = ResonanceParams(phi0=1e-3, gamma_fwhm=60.0, center_freq=1000.0)
    ts = synthesize_rotation(res, 1000.0, duration=0.123,
                             sample_rate=8000.0, power=2e-6, rng_seed=7)
    assert ts.samples.size == round(0.123 * 8000.0)
    assert ts.mean_optical_power == 2e-6
    assert ts.photon_flux == pytest.approx(photon_flux(2e-6, 795e-9))
    assert ts.modulation_freq == 1000.0
    assert ts.rng_seed == 7
    assert ts.duration == pytest.approx(ts.samples.size / 8000.0)
    np.testing.assert_allclose(
        ts.samples - ts.noise_samples,
        coherent_rotation(res, 1000.0, 8000.0, ts.samples.size),
        rtol=0, atol=1e-15)


def test_synthesize_noise_variance_matches_density():
    # per-sample variance of white noise with one-sided PSD S is S * fs / 2
    res = ResonanceParams(phi0=0.0, gamma_fwhm=60.0, center_freq=1000.0)
    fs, duration, power = 8000.0, 16.0, 80.5e-6
    ts = synthesize_rotation(res, 1000.0, duration=duration,
                             sample_rate=fs, power=power, rng_seed=11)
    s_phi = shot_noise_angle_density(photon_flux(power, 795e-9))
    expected_var = s_phi * fs / 2.0
    n = ts.noise_samples.size
    assert np.var(ts.noise_samples) == pytest.approx(
        expected_var, rel=6.0 * math.sqrt(2.0 / n))
    assert np.mean(ts.noise_samples) == pytest.approx(
        0.0, abs=6.0 * math.sqrt(expected_var / n))


def test_synthesize_noise_psd_is_flat_at_shot_level():
    from scipy.signal import periodogram

    res = ResonanceParams(phi0=0.0, gamma_fwhm=60.0, center_freq=1000.0)
    fs, power = 8000.0, 50e-6
    ts = synthesize_rotation(res, 1000.0, duration=8.0,
                             sample_rate=fs, power=power, rng_seed=3)
    freqs, psd = periodogram(ts.noise_samples, fs=fs, window="boxcar",
                             detrend=False)
    s_phi = shot_noise_angle_density(photon_flux(power, 795e-9))
    # averaging the raw periodogram over all interior bins beats down the
    # chi-squared scatter to well under a percent
    assert np.mean(psd[1:-1]) == pytest.approx(s_phi, rel=0.05)
    lo = np.mean(psd[(freqs > 100) & (freqs < 1900)])
    hi = np.mean(psd[(freqs > 2100) & (freqs < 3900)])
    assert lo == pytest.approx(hi, rel=0.1)


@pytest.mark.parametrize("envelope", [False, True])
@pytest.mark.parametrize("density, rate, n", [
    (2.3e-14, 5000.0, 2000), (1e-10, 320e3, 1), (7.5e-20, 8.0, 37)])
def test_white_noise_is_rng_normal_bit_for_bit(envelope, density, rate, n):
    # the draw the analyzer rows rest on, pinned to numpy's own normal:
    # sigma^2 = density * rate / 2 real, / 4 per component of an envelope,
    # whether it fills a new array or the out it is given
    key = (3, 5, 1, 0)
    sigma = math.sqrt(density * rate / (4.0 if envelope else 2.0))
    expected = np.random.default_rng(key).normal(
        0.0, sigma, 2 * n if envelope else n)
    if envelope:
        expected = expected.view(complex)
    fresh = white_noise(np.random.default_rng(key), density, rate, n, envelope)
    out = np.full(n, np.nan, complex if envelope else float)
    filled = white_noise(np.random.default_rng(key), density, rate, n,
                         envelope, out=out)
    assert filled is out
    assert fresh.dtype == expected.dtype and fresh.shape == (n,)
    assert fresh.tobytes() == expected.tobytes()
    assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("envelope", [False, True])
def test_white_noise_stack_is_one_stream_row_after_row(envelope):
    # a stack's rows, one density each, hold the bits of numpy's normal
    # drawn from one generator in row order, whether it fills a new array
    # or the out it is given
    densities, rate, n = [2.3e-14, 1e-10, 7.5e-20, 2.3e-14], 5000.0, 37
    reference = np.random.default_rng((3, 5, 0))
    rows = []
    for density in densities:
        row = reference.normal(0.0, math.sqrt(density * rate / (
            4.0 if envelope else 2.0)), 2 * n if envelope else n)
        rows.append(row.view(complex) if envelope else row)
    expected = np.array(rows)
    fresh = white_noise(np.random.default_rng((3, 5, 0)), densities, rate,
                        n, envelope)
    out = np.full((len(densities), n), np.nan,
                  complex if envelope else float)
    filled = white_noise(np.random.default_rng((3, 5, 0)), densities, rate,
                         n, envelope, out=out)
    assert filled is out
    assert fresh.dtype == expected.dtype and fresh.shape == expected.shape
    assert fresh.tobytes() == expected.tobytes()
    assert out.tobytes() == expected.tobytes()


def test_synthesize_zero_power_is_silent():
    res = ResonanceParams(phi0=1e-3, gamma_fwhm=60.0, center_freq=1000.0)
    ts = synthesize_rotation(res, 1000.0, duration=0.1,
                             sample_rate=8000.0, power=0.0, rng_seed=1)
    assert ts.photon_flux == 0.0
    assert np.all(ts.noise_samples == 0.0)


@pytest.mark.parametrize("duration, sample_rate", [
    (0.1, 3900.0),   # below the 4x modulation-frequency guard
    (0.0, 8000.0),
    (1e-4, 8000.0),  # fewer than 2 samples
])
def test_synthesize_rejects_bad_timing(duration, sample_rate):
    res = ResonanceParams(phi0=1e-3, gamma_fwhm=60.0, center_freq=1000.0)
    with pytest.raises(ValueError):
        synthesize_rotation(res, 1000.0, duration=duration,
                            sample_rate=sample_rate, power=1e-4)


def test_rotation_series_nyquist_guard():
    with pytest.raises(ValueError, match="Nyquist"):
        RotationTimeSeries(samples=np.zeros(10), sample_rate=1000.0,
                           mean_optical_power=1e-6, photon_flux=1e12,
                           modulation_freq=600.0)


def test_rotation_series_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        RotationTimeSeries(samples=np.zeros(10), sample_rate=1000.0,
                           mean_optical_power=1e-6, photon_flux=1e12,
                           noise_samples=np.zeros(9))


# ---------------------------------------------------------------------------
# CSV round-trip
# ---------------------------------------------------------------------------

def test_rotation_csv_round_trip(tmp_path):
    res = ResonanceParams(phi0=2.5e-3, gamma_fwhm=60.0, center_freq=1000.0)
    ts = synthesize_rotation(res, 1000.0, duration=0.05,
                             sample_rate=8000.0, power=80.5e-6, rng_seed=9)
    path = tmp_path / "rotation.csv"
    rotation_to_csv(ts, path)
    columns, (samples,), meta = read_table(path)
    assert columns == ["sample_rad"]
    np.testing.assert_array_equal(samples, ts.samples)
    assert meta == {"sample_rate_hz": ts.sample_rate,
                    "mean_optical_power_w": ts.mean_optical_power,
                    "photon_flux_per_s": ts.photon_flux,
                    "modulation_freq_hz": ts.modulation_freq, "seed": 9}


def test_rotation_csv_none_modulation(tmp_path):
    ts = RotationTimeSeries(samples=np.array([1e-3, -1e-3]), sample_rate=100.0,
                            mean_optical_power=1e-6, photon_flux=4e12)
    path = tmp_path / "bare.csv"
    rotation_to_csv(ts, path)
    _columns, (samples,), meta = read_table(path)
    assert meta["modulation_freq_hz"] is None
    np.testing.assert_array_equal(samples, ts.samples)


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-300, max_value=1e300)
seeds = st.one_of(st.none(), st.integers(0, 2 ** 63),
                  st.tuples(st.integers(0, 2 ** 32), st.integers(0, 7)))


@settings(max_examples=40, deadline=None)
@given(samples=hnp.arrays(float, st.integers(1, 300), elements=finite),
       rate=positive, scalars=st.tuples(finite, finite, finite), seed=seeds,
       detected=st.booleans())
def test_series_csv_reads_back_bit_for_bit(tmp_path_factory, samples, rate,
                                           scalars, seed, detected):
    # rotation.csv and detected.csv: read_table returns each sample's bits
    # and the header the writer was given
    path = tmp_path_factory.mktemp("series") / "series.csv"
    if detected:
        ts = DetectedTimeSeries(samples, rate, *scalars, rng_seed=seed)
        detected_to_csv(ts, path)
        header = {"sample_rate_hz": rate, "gain_used_v_per_a": scalars[0],
                  "mean_power_w": scalars[1],
                  "angle_gain_sqrtw_per_rad": scalars[2], "seed": seed}
    else:
        ts = RotationTimeSeries(samples, rate, scalars[0], scalars[1],
                                rng_seed=seed)
        rotation_to_csv(ts, path)
        header = {"sample_rate_hz": rate, "mean_optical_power_w": scalars[0],
                  "photon_flux_per_s": scalars[1], "modulation_freq_hz": None,
                  "seed": seed}
    _columns, (back,), meta = read_table(path)
    assert back.view(np.uint64).tolist() == samples.view(np.uint64).tolist()
    assert meta == header
