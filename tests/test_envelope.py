"""Complex-envelope path: the band an analyzer mode or the lock-in reads,
built as ``coherent_rotation``'s envelope plus a circular draw in
``cli._detected_stack`` and transformed or demodulated around its centre,
must read the same levels as the real full-rate rows."""

import itertools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from amorsim import cli, dsp
from amorsim.analysis import compute_snr
from amorsim.cli import detected_to_csv
from amorsim.config import (
    ExperimentConfig,
    FieldConfig,
    load_config_file,
    parse_config_text,
    validate_config,
)
from amorsim.detector import (
    DetectedTimeSeries,
    angle_gain_from_chain,
    theory_budget,
)
from amorsim.dsp import (
    _envelope_grid,
    _lock_in_weights,
    lock_in_demodulate,
    psd_estimate,
    sweep_resonance,
)
from amorsim.fitting import fit_lorentzian
from amorsim.signal_model import (
    ResonanceParams,
    coherent_rotation,
    lorentzian_quadratures,
    photon_flux,
    shot_noise_angle_density,
    white_noise,
)
from conftest import (demod_series, mean_and_sem, noiseless_rotation,
                      pull_stats)

DEFAULT_CFG = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
SEEDS = range(20)


def default_config(extra: str = "") -> ExperimentConfig:
    """configs/default.cfg, with the config lines extra over it."""
    cfg = load_config_file(DEFAULT_CFG, base=ExperimentConfig())
    return validate_config(parse_config_text(extra, base=cfg))


def envelope(density=1e-12, mod=10e3, center=10.3e3, fs=2000.0,
             duration=1.0, seed=1):
    """A detected envelope at angle gain 1: the 1 mrad tone of a resonance
    at mod plus a circular white draw of one-sided density."""
    res = ResonanceParams(phi0=1e-3, gamma_fwhm=60.0, center_freq=mod)
    n = round(duration * fs)
    samples = white_noise(np.random.default_rng(seed), density, fs, n, True)
    samples += coherent_rotation(res, mod, fs, n, center)
    return DetectedTimeSeries(samples, fs, gain_used=1.0, mean_power=0.0,
                              angle_gain=1.0, rng_seed=seed,
                              center_freq=center)


# ---------------------------------------------------------------------------
# Envelope synthesis and transform
# ---------------------------------------------------------------------------

def test_envelope_grid_covers_band_with_5_smooth_rate():
    center, rate = _envelope_grid((68e3, 72e3))
    assert center == 70e3
    assert rate == 4000.0  # 4 kHz, already 5-smooth
    center, rate = _envelope_grid((1000.0, 2001.0))
    assert rate == 1024.0  # ceil(1001 - ulp) = 1001 -> next 2^a 3^b 5^c
    # a band whose centred envelope would reach below DC gets one whose
    # lower edge sits at 0 Hz
    assert _envelope_grid((0.0, 7.9e3)) == (4000.0, 8000.0)
    assert _envelope_grid((5e3, 45e3)) == (25000.0, 40000.0)  # centred


@pytest.mark.parametrize("half, rate", [(500.0, 1000.0), (2000.0, 4000.0),
                                        (20e3, 40000.0)])
def test_envelope_rate_follows_the_band_width_at_every_carrier(half, rate):
    # demod-sweep's +-500 Hz, the background's +-2 kHz and spectrum's
    # +-20 kHz at 200 carriers within 1 Hz below each of 2^10 .. 2^17 Hz:
    # there f + half rounds to the float above, and the band reads a hair
    # wider than 2 half
    carriers = [f for k in range(10, 18) for f in np.linspace(
        2.0 ** k - 1.0, 2.0 ** k, 200, endpoint=False).tolist()]
    assert [f for f in carriers
            if _envelope_grid((f - half, f + half))[1] != rate] == []
    # the rate stays positive however narrow the band
    assert _envelope_grid((1e6, 1e6 + math.ulp(1e6)))[1] == 1.0


def _next_5_smooth(width: float) -> int:
    """The smallest 2^a 3^b 5^c at or above width."""
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1
    return next(m for m in itertools.count(math.ceil(width)) if smooth(m))


@pytest.mark.parametrize("half", [500.0, 2000.0, 20e3])
@pytest.mark.parametrize("rbw", [1.0, 30.0, 300.0, 1000.0])
def test_analyzer_band_reads_one_rate_with_a_bin_past_each_edge(half, rbw):
    # on the carrier grid of the rate test above, an analyzer band widened
    # by _EDGE_BINS bins of rbw past each edge has one rate at every
    # carrier, the smallest 5-smooth one at or above the padded width, and
    # wherever the analyzer's segment fits, its trace holds a bin past both
    # edges of the window (where spectrum's span stops at 0 Hz, the trace
    # starts within a bin of 0 Hz)
    carriers = [f for k in range(10, 18) for f in np.linspace(
        2.0 ** k - 1.0, 2.0 ** k, 200, endpoint=False).tolist()]
    cfg = default_config(f"spectrum.rbw = {rbw!r}\nsim.duration = 4")
    padded = 2.0 * (half + cli._EDGE_BINS * rbw / dsp._ENBW_BINS)
    rates, fits = set(), 0
    for f in carriers:
        band = (max(f - half, 0.0), f + half)
        center, rate, n = cli._series_grid(cfg, band)
        if band[0] > 0.0:
            rates.add(rate)
        try:
            window, _ = dsp._analyzer_window(rate, rbw, n)
        except ValueError:  # rbw too coarse for this band
            continue
        fits += 1
        first, last = dsp._offset_freqs(window.size, rate)[[0, -1]] + center
        assert first < band[0] or 0.0 == band[0] <= first < rate / window.size
        assert last > band[1]
    assert rates == {float(_next_5_smooth(padded))}
    if rbw <= 30.0:  # the segment fits every band
        assert fits == len(carriers)


@pytest.mark.parametrize("extra, rate", [
    ("", 125.0),                     # a 16-sample segment
    # the 432, 450 and 480 Hz envelopes miss the 5% ENBW gate
    ("spectrum.rbw = 100\nspectrum.vbw = 100", 500.0),
    ("spectrum.vbw = 10", 4050.0),   # a video filter: the window
    ("spectrum.vbw = 0.3", 4050.0),
    ("spectrum.rbw = 300", 4320.0),  # over the default 30 Hz vbw
])
def test_tone_band_is_the_narrowest_that_holds_a_segment(extra, rate):
    # sensitivity-sweep's tone band lies in the background window around
    # the carrier. With a video filter (vbw < rbw) it is the window;
    # otherwise its envelope holds a segment the analyzer accepts and no
    # narrower 5-smooth envelope, from the 16-sample segment's up, does
    cfg = default_config(extra)
    sp, mod = cfg.spectrum, cfg.field.modulation_freq
    band, window = cli._tone_band(cfg, cfg.field), cli._bg_band(cfg, cfg.field)
    assert window[0] <= band[0] < mod < band[1] <= window[1]
    assert cli._series_grid(cfg, band)[1] == rate
    assert (band == window) == (sp.vbw < sp.rbw)
    if band == window:
        return

    def holds(band):
        _, fs, n = cli._series_grid(cfg, band)
        try:
            dsp._analyzer_window(fs, sp.rbw, n)
        except ValueError:
            return False
        return True

    assert holds(band)
    spacing = sp.rbw / dsp._ENBW_BINS
    narrower = _next_5_smooth(math.ceil((dsp._MIN_SEGMENT - 0.5) * spacing))
    while narrower < rate:
        half = narrower / 2.0 - cli._EDGE_BINS * spacing
        assert not holds((mod - half, mod + half)), narrower
        narrower = _next_5_smooth(narrower + 1)


def test_envelope_tone_is_half_the_quadratures_at_the_offset():
    res = ResonanceParams(phi0=1e-3, gamma_fwhm=60.0, center_freq=10e3)
    wave = coherent_rotation(res, 10.05e3, 2000.0, 200, 10.3e3)
    phi_p = 1e-3 * 30.0 ** 2 / (50.0 ** 2 + 30.0 ** 2)
    phi_q = -1e-3 * 30.0 * 50.0 / (50.0 ** 2 + 30.0 ** 2)
    t = np.arange(200) / 2000.0
    want = 0.5 * (phi_p - 1j * phi_q) * np.exp(2j * np.pi * (-250.0) * t)
    np.testing.assert_allclose(wave, want, rtol=1e-12, atol=1e-18)
    assert wave.dtype == complex
    # its real counterpart is the real part of twice the envelope re-mixed
    real = coherent_rotation(res, 10.05e3, 2000.0 * 40, 200 * 40)
    remixed = 2.0 * (want * np.exp(2j * np.pi * 10.3e3 * t)).real
    np.testing.assert_allclose(real[::40], remixed, atol=1e-15)
    # a resonance with no amplitude has no wave on either path
    dark = replace(res, phi0=0.0)
    assert coherent_rotation(dark, 10.05e3, 2000.0, 200, 10.3e3) is None
    assert coherent_rotation(dark, 10.05e3, 2000.0 * 40, 200 * 40) is None


def test_envelope_noise_is_circular_at_a_quarter_density_per_component():
    power, fs = 1e-4, 2000.0
    s_phi = shot_noise_angle_density(photon_flux(power, 795e-9))
    x = white_noise(np.random.default_rng(1), s_phi, fs, 100_000, True)
    # abs=0: every level here is below pytest.approx's default 1e-12
    assert np.var(x.real) == pytest.approx(s_phi * fs / 4.0, rel=0.03, abs=0)
    assert np.var(x.imag) == pytest.approx(s_phi * fs / 4.0, rel=0.03, abs=0)
    assert abs(np.mean(x.real * x.imag)) < 0.03 * s_phi * fs / 4.0


def test_envelope_draws_one_stream_per_stage():
    # an analyzer row with no tone is its one draw from its stream, its
    # interleaved normals the real and imaginary parts
    cfg = default_config()
    band = cli._bg_band(cfg, cfg.field)
    row = (None, 80.5e-6, cfg.field.modulation_freq, (3, 0))
    a, b = (cli._detected_stack(cfg, band, [row]).samples[0]
            for _ in range(2))
    np.testing.assert_array_equal(a, b)
    draw = np.random.default_rng((3, 0)).normal(0.0, 1.0, 2 * a.size)
    ratio = a.real / draw[0::2]
    np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)


def test_envelope_band_guards():
    res = ResonanceParams(phi0=1e-3, gamma_fwhm=60.0, center_freq=10e3)
    with pytest.raises(ValueError, match="envelope band"):
        coherent_rotation(res, 10e3, 2000.0, 2000, 11.1e3)
    with pytest.raises(ValueError, match="envelope band"):  # no tone either
        coherent_rotation(replace(res, phi0=0.0), 10e3, 2000.0, 2000, 11.1e3)
    # the real path's 4x guard does not apply to an envelope
    assert coherent_rotation(res, 10e3, 2000.0, 2000, 10e3).size == 2000
    with pytest.raises(ValueError, match="4x"):
        coherent_rotation(res, 10e3, 2000.0, 2000)


def test_envelope_psd_reads_the_one_sided_levels():
    # white detector noise of one-sided PSD A and a tone of amplitude a
    fs, center, mod, coef_elec = 4000.0, 10e3, 10.4e3, 1e-12
    out = envelope(density=coef_elec, mod=mod, center=center, fs=fs,
                   duration=4.0, seed=2)
    spec = psd_estimate(out, rbw=30.0, span=(center - 1500.0, center + 1500.0))
    assert center - 1500.0 <= spec.freqs[0] < spec.freqs[-1] <= center + 1500.0
    sel = np.abs(spec.freqs - mod) > 200.0
    assert np.mean(spec.psd[sel]) == pytest.approx(coef_elec, rel=0.05, abs=0)
    peak = spec.psd[np.argmin(np.abs(spec.freqs - mod))]
    assert peak == pytest.approx(1e-3 ** 2 / (2.0 * spec.enbw), rel=0.01,
                                 abs=0)


def test_envelope_psd_span_stays_inside_the_band():
    out = envelope(duration=1.0)
    with pytest.raises(ValueError, match="envelope band"):
        psd_estimate(out, rbw=30.0, span=(10.3e3 - 1100.0, 10.3e3))
    with pytest.raises(ValueError, match="envelope band"):
        psd_estimate(out, rbw=30.0, span=(10.3e3, 10.3e3 + 1000.0))


def test_real_only_consumers_reject_envelopes(tmp_path):
    out = envelope(duration=0.5)
    # the lock-in reads envelopes, but only carriers inside 10.3 kHz +- 1 kHz
    with pytest.raises(ValueError, match="envelope band"):
        lock_in_demodulate(out, 11.5e3, 25.0)
    with pytest.raises(ValueError, match="real series only"):
        detected_to_csv(out, tmp_path / "d.csv")
    assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# Monte-Carlo gates across seeds
# ---------------------------------------------------------------------------

def _peak_and_background(cfg, band, power, phi0, span=None, low_band=None):
    """Mean and standard error over SEEDS of one chain's peak, background
    and, with low_band (f_lo, f_hi), its off-resonance level there."""
    mod = cfg.field.modulation_freq
    res = replace(cli._resonance(cfg, cfg.sim.probe_power), phi0=phi0)
    rows = []
    for seed in SEEDS:
        traces, peaks, backgrounds = cli._analyzer(
            cfg, band, [(res, power, mod, (seed, 0)),
                        (None, power, mod, (seed, 0))], span=span)
        off = traces.rows()[1]
        row = [peaks[0], backgrounds[1]]
        if low_band is not None:
            sel = (off.freqs >= low_band[0]) & (off.freqs <= low_band[1])
            row.append(off.psd[sel].mean())
        rows.append(row)
    return [mean_and_sem(column) for column in zip(*rows)]


def _assert_chains_agree(real, env):
    for (real_mean, real_sem), (env_mean, env_sem) in zip(real, env):
        sem = math.hypot(real_sem, env_sem)
        assert sem < 0.05 * real_mean
        assert abs(env_mean - real_mean) < 4.0 * sem


def _tone_phi0(cfg, power):
    """A tone some 100-250x the background, so the peak's scatter is set by
    the noise and not by where the tone falls on each bin grid."""
    return 100.0 * math.sqrt(shot_noise_angle_density(
        photon_flux(power, cfg.atom.probe_wavelength)))


@pytest.mark.parametrize("b_field, power", [
    (7.6e-6, 10e-6),     # noise-scan field, electronic term dominant
    (75e-6, 700e-6),     # second noise-scan field, technical term dominant
    (None, 80.5e-6),     # sensitivity operating point, shot term dominant
])
def test_envelope_and_full_rate_agree_across_seeds(b_field, power):
    cfg = default_config()
    cfg.sim.duration = 0.2  # two Welch segments at rbw 30 Hz
    if b_field is not None:
        field = FieldConfig(b_field=b_field).resolve(cfg.atom)
        cfg = replace(cfg, field=field, sim=replace(
            cfg.sim, sample_rate=max(cfg.sim.sample_rate,
                                     4.5 * field.modulation_freq)))
    band = cli._bg_band(cfg, cfg.field)
    assert _envelope_grid(band)[0] == cfg.field.modulation_freq
    phi0 = _tone_phi0(cfg, power)
    _assert_chains_agree(_peak_and_background(cfg, None, power, phi0),
                         _peak_and_background(cfg, band, power, phi0))


def test_spectrum_envelope_at_dc_agrees_with_full_rate_across_seeds():
    # at 1 uT spectrum's span is (0, 29.3 kHz): its envelope's lower edge
    # sits at 0 Hz, where the off-resonance level must stay unbiased
    cfg = default_config()
    cfg.sim.duration = 0.2
    cfg.field = FieldConfig(b_field=1e-6).resolve(cfg.atom)
    mod = cfg.field.modulation_freq
    span = (max(mod - cfg.spectrum.span / 2.0, 0.0),
            mod + cfg.spectrum.span / 2.0)
    assert span[0] == 0.0 and cli._series_grid(cfg, span)[:2] == (15000.0,
                                                                   30000.0)
    power = cfg.sim.probe_power
    phi0 = _tone_phi0(cfg, power)
    real = _peak_and_background(cfg, None, power, phi0, span, (10.0, 1e3))
    env = _peak_and_background(cfg, span, power, phi0, span, (10.0, 1e3))
    _assert_chains_agree(real, env)


def test_envelope_edge_bins_read_the_budget_across_seeds():
    # a read window's outer bins sit about one bin inside its envelope's
    # +-rate/2: over SEEDS the off rows' bins nearest each edge of
    # spectrum.bg_window (noise-scan's and sensitivity-sweep's band) and of
    # spectrum.span (spectrum's) read the budget N(P)
    cfg = default_config()
    mod, power = cfg.field.modulation_freq, cfg.sim.probe_power
    span = (mod - cfg.spectrum.span / 2.0, mod + cfg.spectrum.span / 2.0)
    expected = theory_budget(cfg).eval(power)
    for band, sliced in ((cli._bg_band(cfg, cfg.field), None), (span, span)):
        edges = []
        for seed in SEEDS:
            traces, _, _ = cli._analyzer(
                cfg, band, [(None, power, mod, (seed, 0))] * 4, span=sliced)
            inside = np.flatnonzero((traces.freqs >= band[0])
                                    & (traces.freqs <= band[1]))
            edges.append(traces.psd[:, inside[[0, -1]]].mean(axis=0))
        for column in np.transpose(edges):
            mean, sem = mean_and_sem(column)
            assert sem < 0.1 * expected
            assert abs(mean - expected) < 4.0 * sem


@pytest.mark.parametrize("power", [20e-6, 80.5e-6, 300e-6])
def test_envelope_snr_estimator_is_unbiased_across_seeds(power):
    # With no electronic or technical noise the derived SNR per sqrt(Hz) is
    # phi0 / sqrt(S_phi), whatever the gain or the bandwidth.
    cfg = default_config()
    cfg.detector = replace(cfg.detector, electronic_noise_floor=0.0,
                           technical_noise_coef=0.0)
    mod = cfg.field.modulation_freq
    band = cli._bg_band(cfg, cfg.field)
    res = cli._resonance(cfg, cfg.sim.probe_power)  # resonance.* at any power
    phi0 = res.phi0
    snrs = []
    for seed in SEEDS:
        traces, peaks, backgrounds = cli._analyzer(
            cfg, band, [(res, power, mod, (seed, 0)),
                        (None, power, mod, (seed, 0))])
        snrs.append(compute_snr(peaks[0], backgrounds[1], traces.enbw))
    mean, sem = mean_and_sem(snrs)
    expected = phi0 / math.sqrt(shot_noise_angle_density(
        photon_flux(power, cfg.atom.probe_wavelength)))
    assert sem < 0.02 * expected
    assert abs(mean - expected) < 4.0 * sem


# ---------------------------------------------------------------------------
# Lock-in on the envelope of its band (demod-sweep)
# ---------------------------------------------------------------------------

def demod_setup(extra: str = ""):
    cfg = default_config(extra)
    res, freqs = cli._demod_grid(cfg)
    return cfg, res, freqs


def test_envelope_lock_in_weights_keep_noise_and_dc_gain():
    # R sum(w_R^2) sets the lock-in's output noise, sum(w) its DC gain
    cfg, res, _ = demod_setup()
    bw = cfg.lockin.output_bandwidth
    ts, = demod_series(cfg, res, np.array([res.center_freq]), 1)
    rate, n = ts.sample_rate, ts.samples.size
    assert (ts.center_freq, rate, n) == (res.center_freq, 1000.0, 400)
    fs = cfg.sim.sample_rate
    w_env = _lock_in_weights(rate, bw, n)
    w_full = _lock_in_weights(fs, bw, round(cfg.sim.duration * fs))
    full_noise = fs * np.sum(w_full ** 2)
    assert abs(rate * np.sum(w_env ** 2) - full_noise) < 1e-4 * full_noise
    assert abs(np.sum(w_env) - np.sum(w_full)) < 1e-8


def test_envelope_lock_in_mixes_an_offset_carrier_down():
    # a detuned tone 250 Hz below the envelope centre reads as on the real
    # path; demod-sweep centres each envelope on its carrier, or near DC
    # on rate/2
    res = ResonanceParams(phi0=1e-3, gamma_fwhm=60.0, center_freq=10e3)
    env = DetectedTimeSeries(
        coherent_rotation(res, 10.05e3, 2000.0, 1200, 10.3e3), 2000.0,
        gain_used=1.0, mean_power=0.0, angle_gain=1.0, center_freq=10.3e3)
    real = noiseless_rotation(res, 10.05e3, 0.6, 80e3, 1e-4)
    got = lock_in_demodulate(env, 10.05e3, 25.0)
    np.testing.assert_allclose(got, lock_in_demodulate(real, 10.05e3, 25.0),
                               rtol=1e-8)
    np.testing.assert_allclose(
        got, lorentzian_quadratures(2 * math.pi * 50.0, res), rtol=1e-7)
    assert max(map(abs, lock_in_demodulate(env, 10.3e3, 25.0))) < 1e-9 * 1e-3


def _lock_in_means(cfg, res, freq, index, band):
    """Mean and standard error of the lock-in P and Q over SEEDS, on the
    analyzer row drawn from stream (seed, index, 0): the envelope of band,
    or without one the real row at sim.sample_rate."""
    bw = cfg.lockin.output_bandwidth
    pq = []
    for seed in SEEDS:
        row = cli._detected_stack(
            cfg, band, [(res, cfg.sim.probe_power, freq, (seed, index, 0))])
        row.samples = row.samples[0]
        pq.append(lock_in_demodulate(row, freq, bw))
    pq = np.array(pq)
    return mean_and_sem(pq[:, 0]), mean_and_sem(pq[:, 1])


def _assert_lock_in_agrees(cfg, res, freq, band):
    """The envelope P and Q match the full rate's and the Lorentzian's."""
    env = _lock_in_means(cfg, res, freq, 0, band)
    real = _lock_in_means(cfg, res, freq, 1, None)
    truth = lorentzian_quadratures(2 * math.pi * (freq - res.center_freq), res)
    for (env_mean, env_sem), (real_mean, real_sem), want in zip(env, real,
                                                                truth):
        assert 0.0 < env_sem < 1e-4 * res.phi0
        assert abs(env_mean - real_mean) < 4.0 * math.hypot(env_sem, real_sem)
        assert abs(env_mean - want) < 4.0 * env_sem


@pytest.mark.parametrize("fwhms", [0.0, 1.0, 3.0])
def test_envelope_lock_in_agrees_with_full_rate_across_seeds(fwhms):
    cfg, res, _ = demod_setup()
    freq = res.center_freq + fwhms * res.gamma_fwhm
    half = cli._LOCKIN_HALFBAND * cfg.lockin.output_bandwidth
    _assert_lock_in_agrees(cfg, res, freq, (freq - half, freq + half))


def test_envelope_lock_in_at_dc_agrees_with_full_rate_across_seeds():
    # a 300 Hz carrier: the +-500 Hz band's envelope moves up to 500 Hz
    cfg, res, _ = demod_setup()
    res = replace(res, center_freq=320.0)
    half = cli._LOCKIN_HALFBAND * cfg.lockin.output_bandwidth
    band = (300.0 - half, 300.0 + half)
    assert _envelope_grid(band) == (500.0, 1000.0)
    _assert_lock_in_agrees(cfg, res, 300.0, band)


def test_envelope_resonance_fit_is_unbiased_across_seeds():
    cfg, res, freqs = demod_setup()
    fits = []
    for seed in SEEDS:
        stack = cli._demod_rows(cfg, res, freqs, seed)
        curve = sweep_resonance(res, freqs, stack,
                                cfg.lockin.output_bandwidth)
        fits.append(fit_lorentzian(curve))
    for name, truth in (("center_freq", res.center_freq),
                        ("gamma_fwhm", res.gamma_fwhm), ("phi0", res.phi0)):
        mean, sem = mean_and_sem([getattr(fit, name) for fit in fits])
        assert 0.0 < sem < 1e-4 * truth, name
        assert abs(mean - truth) < 4.0 * sem, name


def test_demod_sweep_quadrature_noise_is_the_budget_across_seeds():
    # each point is a detector row, so each quadrature scatters about the
    # Lorentzian by the whole budget A + B*P + C*P^2 through the lock-in's
    # weights, referred back to radians by the chain gain
    cfg, res, freqs = demod_setup()
    bw, power = cfg.lockin.output_bandwidth, cfg.sim.probe_power
    residuals = []
    for seed in SEEDS:
        for freq, ts in zip(freqs.tolist(),
                            demod_series(cfg, res, freqs, seed)):
            truth = lorentzian_quadratures(
                2 * math.pi * (freq - res.center_freq), res)
            residuals.append(np.subtract(lock_in_demodulate(ts, freq, bw),
                                         truth))
    rate, n = ts.sample_rate, ts.samples.size
    gain = angle_gain_from_chain(cfg.detector, photon_flux(
        power, cfg.atom.probe_wavelength))
    expected = (theory_budget(cfg).eval(power) * rate
                * np.sum(_lock_in_weights(rate, bw, n) ** 2) / gain ** 2)
    for variance in np.square(residuals).T:
        mean, sem = mean_and_sem(variance)
        assert sem < 0.1 * expected
        assert abs(mean - expected) < 4.0 * sem


@pytest.mark.parametrize("extra", ["", "field.b_field = 7 uT"],
                         ids=["defaults", "7uT"])
def test_demod_sweep_lorentzian_errors_are_calibrated(extra):
    # over seeds 0-199 each fitted parameter's pull (fit - truth)/error has
    # a mean within 4 standard errors of 0 and a standard deviation near 1;
    # at 7 uT half the carriers' envelopes once read 1280 Hz, not 1250 Hz
    cfg, res, freqs = demod_setup(extra)
    fits = [fit_lorentzian(sweep_resonance(
        res, freqs, cli._demod_rows(cfg, res, freqs, seed),
        cfg.lockin.output_bandwidth)) for seed in range(200)]
    for name in ("center_freq", "gamma_fwhm", "phi0"):
        mean, sem, sd = pull_stats([getattr(fit, name) for fit in fits],
                                   [getattr(fit, f"{name}_err") for fit in fits],
                                   getattr(res, name))
        assert abs(mean) < 4.0 * sem, (name, mean, sem)
        assert 0.8 <= sd <= 1.2, (name, sd)


def test_demod_sweep_reads_envelopes_near_dc():
    # a 700 Hz resonance: every point is a 1000 Hz envelope, and those of
    # carriers at or below 1000/2 Hz sit with their lower edge at 0 Hz
    cfg = default_config()
    cfg.field = FieldConfig(b_field=75e-9).resolve(cfg.atom)
    res, freqs = cli._demod_grid(cfg)
    stack = cli._demod_rows(cfg, res, freqs, 1)
    assert stack.sample_rate == 1000.0
    centers = stack.center_freq
    assert centers == [max(float(f), 500.0) for f in freqs]
    assert 0 < sum(c == 500.0 for c in centers) < len(centers)
    fit = fit_lorentzian(sweep_resonance(res, freqs, stack,
                                         cfg.lockin.output_bandwidth))
    assert fit.center_freq == pytest.approx(res.center_freq, abs=0.01)
    assert fit.gamma_fwhm == pytest.approx(res.gamma_fwhm, rel=1e-3)
    assert fit.phi0 == pytest.approx(res.phi0, rel=1e-3)


# ---------------------------------------------------------------------------
# The lock-in on a stack
# ---------------------------------------------------------------------------

def _one_call_per_row(stack, carriers, bw):
    """lock_in_demodulate's lists for a stack, taken one row at a time."""
    centers = stack.center_freq
    if not isinstance(centers, list):
        centers = [centers] * len(carriers)
    reads = [lock_in_demodulate(replace(stack, samples=row, center_freq=c),
                                f, bw)
             for row, f, c in zip(stack.samples, carriers, centers)]
    return tuple(list(quadrature) for quadrature in zip(*reads))


@pytest.mark.parametrize("config", [
    "",
    # the +-500 Hz bands of 52 of its 61 carriers once read 1.25 x 1000 Hz
    # plus their edges' rounding, and a 1280 Hz envelope
    "field.b_field = 75 nT",
], ids=["defaults", "75nT"])
def test_stacked_lock_in_has_the_bits_of_one_call_per_row(tmp_path, config):
    path = tmp_path / "demod.cfg"
    path.write_text(config + "\n")
    cfg = cli._load_config(cli.ScenarioSpec("demod-sweep", str(path)))
    res, freqs = cli._demod_grid(cfg)
    bw = cfg.lockin.output_bandwidth
    stack = cli._demod_rows(cfg, res, freqs, 1)
    assert (stack.sample_rate, stack.samples.shape) == (1000.0, (61, 400))
    carriers = freqs.tolist()
    assert lock_in_demodulate(stack, carriers, bw) == _one_call_per_row(
        stack, carriers, bw)
    curve = sweep_resonance(res, freqs, stack, bw)
    rows = demod_series(cfg, res, freqs, 1)
    assert [lock_in_demodulate(ts, f, bw) for ts, f in zip(rows, freqs)] \
        == list(zip(curve.phi_P_values.tolist(), curve.phi_Q_values.tolist()))


def test_stacked_lock_in_reads_a_real_stack_row_by_row():
    # three real rows at sim.sample_rate, one carrier each or one for all
    cfg, res, _ = demod_setup()
    carriers = [res.center_freq + step for step in (-60.0, 0.0, 60.0)]
    rows = [(res, cfg.sim.probe_power, f, (1, 0)) for f in carriers]
    stack = cli._detected_stack(cfg, None, rows)
    assert stack.center_freq is None and stack.samples.dtype == float
    bw = cfg.lockin.output_bandwidth
    for mod in (carriers, carriers[1]):
        mods = np.broadcast_to(mod, 3).tolist()
        assert lock_in_demodulate(stack, mod, bw) == _one_call_per_row(
            stack, mods, bw)


def test_sweep_and_analyzer_refuse_what_a_stack_does_not_hold():
    cfg, res, freqs = demod_setup()
    stack = cli._demod_rows(cfg, res, freqs, 1)
    with pytest.raises(ValueError, match="rows hold 61 series for 60 grid"):
        sweep_resonance(res, freqs[:-1], stack, cfg.lockin.output_bandwidth)
    with pytest.raises(ValueError, match="one centre per row"):
        psd_estimate(stack, cfg.spectrum.rbw)


@pytest.mark.parametrize("extra", ["", "field.b_field = 7 uT"],
                         ids=["defaults", "7uT"])
def test_demod_sweep_builds_and_demodulates_one_stack(tmp_path, monkeypatch,
                                                      extra):
    # at 7 uT the carriers' envelopes once split between two rates
    path = tmp_path / "demod.cfg"
    path.write_text(DEFAULT_CFG.read_text() + extra + "\n")
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "_detected_stack",
                        counted("stack", cli._detected_stack))
    monkeypatch.setattr(dsp, "lock_in_demodulate",
                        counted("lock-in", dsp.lock_in_demodulate))
    assert cli.main(["demod-sweep", "--config", str(path),
                     "--out", str(tmp_path / "out"), "--seed", "1"]) == 0
    assert calls == ["stack", "lock-in"]
