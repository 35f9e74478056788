"""Lock-in demodulation and spectrum-analyzer emulation."""

import concurrent.futures
import math
import os

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import signal

from amorsim.cli import _pmap, resonance_curve_to_csv, spectrum_to_csv
from amorsim.config import DetectorConfig
from amorsim.detector import DetectedTimeSeries, detect
from amorsim.dsp import (
    PowerSpectrum,
    ResonanceCurve,
    _flattop,
    _offset_freqs,
    _video_smooth,
    lock_in_demodulate,
    peak_and_background,
    psd_estimate,
    sweep_resonance,
)
from amorsim.signal_model import (
    ResonanceParams,
    RotationTimeSeries,
    lorentzian_quadratures,
    photon_flux,
    shot_noise_angle_density,
    synthesize_rotation,
)
from conftest import noiseless_rotation

FS = 8000.0


def tone_series(amplitude, freq, duration=4.0, fs=FS, phase=0.0):
    t = np.arange(int(round(duration * fs))) / fs
    return RotationTimeSeries(
        samples=amplitude * np.cos(2 * np.pi * freq * t + phase),
        sample_rate=fs, mean_optical_power=1e-4, photon_flux=4e14,
        modulation_freq=freq)


def white_series(power=80.5e-6, duration=6.0, fs=FS, seed=2):
    res = ResonanceParams(phi0=0.0, gamma_fwhm=60.0, center_freq=1000.0)
    return synthesize_rotation(res, 1000.0, duration=duration,
                               sample_rate=fs, power=power, rng_seed=seed)


def sweep_stack(res, duration, grid):
    """Noiseless series modulated at the sweep frequencies, one row each."""
    rows = [noiseless_rotation(res, freq, duration=duration, sample_rate=FS,
                               power=80.5e-6).samples for freq in grid]
    return RotationTimeSeries(np.array(rows), FS, 80.5e-6,
                              photon_flux(80.5e-6, 795e-9))


# ---------------------------------------------------------------------------
# Lock-in demodulation
# ---------------------------------------------------------------------------

def test_lock_in_recovers_quadratures_of_clean_tone():
    res = ResonanceParams(phi0=2.5e-3, gamma_fwhm=60.0, center_freq=955.0)
    delta = 2 * np.pi * 45.0
    ts = noiseless_rotation(res, 1000.0, duration=0.6,
                            sample_rate=FS, power=1e-4)
    phi_p, phi_q = lock_in_demodulate(ts, 1000.0, output_bandwidth=25.0)
    want_p, want_q = lorentzian_quadratures(delta, res)
    assert phi_p == pytest.approx(want_p, rel=5e-3)
    assert phi_q == pytest.approx(want_q, rel=5e-3)


def test_lock_in_on_resonance_quadrature_is_null():
    res = ResonanceParams(phi0=2.5e-3, gamma_fwhm=60.0, center_freq=1000.0)
    ts = noiseless_rotation(res, 1000.0, duration=0.6, sample_rate=FS,
                            power=1e-4)
    phi_p, phi_q = lock_in_demodulate(ts, 1000.0, output_bandwidth=25.0)
    assert phi_p == pytest.approx(res.phi0, rel=5e-3)
    assert abs(phi_q) < 5e-3 * res.phi0


def test_lock_in_detected_series_matches_rotation_route():
    res = ResonanceParams(phi0=1.5e-3, gamma_fwhm=60.0, center_freq=980.0)
    rot = noiseless_rotation(res, 1000.0, duration=0.6, sample_rate=FS,
                             power=1e-4)
    out = detect(rot, DetectorConfig())
    from_rot = lock_in_demodulate(rot, 1000.0, 25.0)
    from_det = lock_in_demodulate(out, 1000.0, 25.0)
    assert from_det[0] == pytest.approx(from_rot[0], rel=1e-12)
    assert from_det[1] == pytest.approx(from_rot[1], rel=1e-12)


def test_lock_in_rejects_zero_angle_gain():
    rot = tone_series(1e-3, 1000.0, duration=0.5)
    out = detect(rot, DetectorConfig(), angle_gain=1.0)
    out.angle_gain = 0.0
    with pytest.raises(ValueError, match="angle_gain"):
        lock_in_demodulate(out, 1000.0, 25.0)


@pytest.mark.parametrize("mod_freq, bandwidth, duration", [
    (4000.0, 25.0, 1.0),    # at Nyquist
    (1000.0, 25.0, 0.2),    # too short for the output bandwidth
    (1000.0, 0.0, 1.0),     # bad bandwidth
    (0.0, 25.0, 1.0),       # carrier at DC
    (-1000.0, 25.0, 1.0),   # negative carrier
    (1000.0, 4000.0, 1.0),  # output bandwidth at Nyquist
    (1000.0, 5000.0, 1.0),  # output bandwidth past Nyquist
])
def test_lock_in_preconditions(mod_freq, bandwidth, duration):
    ts = tone_series(1e-3, 1000.0, duration=duration)
    with pytest.raises(ValueError):
        lock_in_demodulate(ts, mod_freq, bandwidth)


@pytest.mark.parametrize("mod_freq, bandwidth, name", [
    (0.0, 25.0, "mod_freq"),
    (4000.0, 25.0, "mod_freq"),
    (1000.0, -25.0, "output_bandwidth"),
    (1000.0, 4000.0, "output_bandwidth"),
])
def test_lock_in_range_errors_name_their_argument(mod_freq, bandwidth, name):
    ts = tone_series(1e-3, 1000.0, duration=1.0)
    with pytest.raises(ValueError, match=f"^{name} "):
        lock_in_demodulate(ts, mod_freq, bandwidth)


# ---------------------------------------------------------------------------
# Resonance sweep
# ---------------------------------------------------------------------------

def test_sweep_traces_out_both_quadratures():
    res = ResonanceParams(phi0=2.5e-3, gamma_fwhm=60.0, center_freq=1000.0)
    grid = np.linspace(1000.0 - 180.0, 1000.0 + 180.0, 13)
    curve = sweep_resonance(res, grid, sweep_stack(res, 0.6, grid),
                            output_bandwidth=25.0)
    assert curve.bracketed
    want_p, want_q = lorentzian_quadratures(
        2 * np.pi * (grid - res.center_freq), res)
    np.testing.assert_allclose(curve.phi_P_values, want_p, rtol=0,
                               atol=5e-3 * res.phi0)
    np.testing.assert_allclose(curve.phi_Q_values, want_q, rtol=0,
                               atol=5e-3 * res.phi0)


def test_sweep_flags_unbracketed_grid():
    res = ResonanceParams(phi0=1e-3, gamma_fwhm=60.0, center_freq=1000.0)
    grid = np.linspace(1200.0, 1400.0, 5)
    stack = sweep_stack(res, 0.5, grid)
    assert sweep_resonance(res, grid, stack, 25.0).bracketed is False


@pytest.mark.parametrize("workers, tasks, cores, expected", [
    (10000, 22, 2, 2),    # huge request: one worker per core
    (10000, 3, 64, 3),    # never more workers than tasks
    (4, 22, 64, 4),       # a modest request is kept
    (4, 1, 64, None),     # one task runs serially
    (4, 22, None, None),  # unknown core count counts as one core
])
def test_pmap_clamps_pool_size(workers, tasks, cores, expected, monkeypatch):
    started, calls = [], []

    class FakeExecutor:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    def negate(chunk):
        calls.append(chunk)
        return [-point for point in chunk]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakeExecutor)
    # an OS that reports no affinity: the CPU count sizes the pool
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    points = list(range(-tasks, 0))
    assert _pmap(negate, points, workers) == list(range(tasks, 0, -1))
    assert started == ([] if expected is None else [expected])
    if expected is None:  # one chunk: fn(points) itself, in-process
        assert len(calls) == 1 and calls[0] is points
        return
    # one contiguous chunk per worker, near-equal, covering each point once
    assert len(calls) == expected
    assert [point for chunk in calls for point in chunk] == points
    assert max(map(len, calls)) - min(map(len, calls)) <= 1


def test_pmap_counts_the_cpus_it_may_run_on(monkeypatch):
    # pinned to one CPU of eight (taskset -c 0), a pool of 4 runs fn once,
    # in-process, and starts no pool
    def refuse(max_workers):
        raise AssertionError(f"started a pool of {max_workers}")

    calls = []

    def negate(chunk):
        calls.append(chunk)
        return [-point for point in chunk]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    points = list(range(-22, 0))
    assert _pmap(negate, points, 4) == list(range(22, 0, -1))
    assert len(calls) == 1 and calls[0] is points


def test_sweep_rejects_bad_grids():
    res = ResonanceParams(phi0=1e-3, gamma_fwhm=60.0, center_freq=1000.0)
    stack = sweep_stack(res, 0.5, [1000.0])
    with pytest.raises(ValueError, match="empty"):
        sweep_resonance(res, [], stack, 25.0)
    with pytest.raises(ValueError, match="increasing"):
        sweep_resonance(res, [1000.0, 990.0, 1010.0], stack, 25.0)


def test_resonance_curve_validation():
    with pytest.raises(ValueError, match="equal length"):
        ResonanceCurve(np.arange(3.0), np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError, match="at least one"):
        ResonanceCurve(np.zeros(0), np.zeros(0), np.zeros(0))


# ---------------------------------------------------------------------------
# PSD estimation
# ---------------------------------------------------------------------------

def test_psd_white_noise_reads_true_density():
    ts = white_series()
    spec = psd_estimate(ts, rbw=30.0)
    s_phi = shot_noise_angle_density(ts.photon_flux)
    sel = spec.freqs > 100.0
    assert np.mean(spec.psd[sel]) == pytest.approx(s_phi, rel=0.03)
    assert spec.enbw == pytest.approx(30.0, rel=0.05)
    assert spec.rbw == 30.0 and spec.vbw == 30.0


@pytest.mark.parametrize("rbw", [30.0, 120.0])
def test_psd_tone_peak_reads_amplitude(rbw):
    # off-grid tone frequency: the flat-top window keeps the peak honest
    a = 2.5e-3
    ts = tone_series(a, 937.3)
    spec = psd_estimate(ts, rbw=rbw)
    peak = float(spec.psd.max())
    assert peak == pytest.approx(a ** 2 / (2.0 * spec.enbw), rel=0.01)
    assert spec.freqs[int(np.argmax(spec.psd))] == pytest.approx(937.3, abs=rbw)


def test_psd_white_level_independent_of_rbw():
    ts = white_series()
    coarse = psd_estimate(ts, rbw=120.0)
    fine = psd_estimate(ts, rbw=30.0)
    lo = np.mean(coarse.psd[coarse.freqs > 100.0])
    hi = np.mean(fine.psd[fine.freqs > 100.0])
    assert lo == pytest.approx(hi, rel=0.05)


def test_psd_integral_matches_variance():
    ts = white_series(duration=8.0)
    spec = psd_estimate(ts, rbw=30.0)
    df = spec.freqs[1] - spec.freqs[0]
    assert np.sum(spec.psd) * df == pytest.approx(np.var(ts.samples), rel=0.05)


def test_psd_video_bandwidth_smooths_but_preserves_level():
    ts = white_series()
    raw = psd_estimate(ts, rbw=30.0)
    smoothed = psd_estimate(ts, rbw=30.0, vbw=3.0)
    # interior bins only: the trace edges carry the Nyquist taper
    sel = (raw.freqs > 200.0) & (raw.freqs < 3700.0)
    assert np.mean(smoothed.psd[sel]) == pytest.approx(
        np.mean(raw.psd[sel]), rel=0.02)
    assert np.std(smoothed.psd[sel]) < 0.6 * np.std(raw.psd[sel])
    assert smoothed.vbw == 3.0


@pytest.mark.parametrize("ratio", [0.1, 1e-3, 1e-20])
def test_video_filter_keeps_a_flat_trace_flat(ratio):
    # each pass starts settled at its first bin, so a pole close to 1 (or
    # at 1, for vbw/rbw = 1e-20) leaves a flat level where it is
    flat = np.full((2, 500), 3.7e-13)
    out = _video_smooth(flat, 30.0, ratio * 30.0, 8.0)
    np.testing.assert_allclose(out, flat, rtol=1e-12, atol=0.0)


def test_psd_wide_vbw_leaves_trace_untouched():
    ts = white_series(duration=2.0)
    assert np.array_equal(psd_estimate(ts, 30.0, vbw=300.0).psd,
                          psd_estimate(ts, 30.0).psd)


def test_psd_span_slices_trace():
    ts = white_series(duration=2.0)
    spec = psd_estimate(ts, rbw=30.0, span=(500.0, 1500.0))
    assert spec.freqs[0] >= 500.0 and spec.freqs[-1] <= 1500.0
    assert spec.freqs.size > 10


@pytest.mark.parametrize("kwargs, fragment", [
    (dict(rbw=2000.0), "too coarse"),
    (dict(rbw=-1.0), "rbw"),
    (dict(rbw=30.0, vbw=0.0), "vbw"),
    (dict(rbw=30.0, span=(500.0, 4500.0)), "Nyquist"),
    (dict(rbw=30.0, span=(1500.0, 500.0)), "span"),
])
def test_psd_estimate_rejects(kwargs, fragment):
    ts = white_series(duration=2.0)
    with pytest.raises(ValueError, match=fragment):
        psd_estimate(ts, **kwargs)


def test_psd_estimate_needs_enough_samples():
    ts = white_series(duration=0.05)
    with pytest.raises(ValueError, match="too short"):
        psd_estimate(ts, rbw=30.0)


def segment_length(spec, fs=FS):
    return int(round(fs / (spec.freqs[1] - spec.freqs[0])))


def scipy_reference(ts, rbw, vbw, span):
    """psd_estimate rebuilt on scipy.signal.welch with the same window."""
    fs = ts.sample_rate
    spec = psd_estimate(ts, rbw, vbw=vbw, span=span)
    nperseg = segment_length(spec, fs)
    freqs, psd = signal.welch(
        ts.samples, fs=fs, window=_flattop(nperseg)[0], nperseg=nperseg,
        noverlap=nperseg // 2, detrend=False, scaling="density",
        return_onesided=True)
    if vbw < rbw:  # the forward-backward single pole of dsp's video filter,
        # each pass settled at its first sample's level
        alpha = np.exp(-2.0 * np.pi * (vbw / rbw) * (fs / nperseg / rbw))
        b, a = [1.0 - alpha], [1.0, -alpha]
        zi = signal.lfilter_zi(b, a)
        forward = signal.lfilter(b, a, psd, zi=zi * psd[0])[0][::-1]
        psd = signal.lfilter(b, a, forward, zi=zi * forward[0])[0][::-1]
        psd = np.maximum(psd, 0.0)
    if span is not None:
        sel = (freqs >= span[0]) & (freqs <= span[1])
        freqs, psd = freqs[sel], psd[sel]
    return spec, freqs, psd


# rbw 30 Hz gives a 1000-sample segment at 8 kHz, rbw 26.8 Hz a 1125-sample one
@pytest.mark.parametrize("rbw, nperseg", [(30.0, 1000), (26.8, 1125)])
@pytest.mark.parametrize("vbw, span", [
    (None, None), (None, (500.0, 1500.0)), (3.0, None), (3.0, (500.0, 1500.0)),
])
def test_psd_matches_scipy_welch(rbw, nperseg, vbw, span):
    ts = white_series(duration=2.0)
    spec, freqs, psd = scipy_reference(ts, rbw, vbw or rbw, span)
    assert segment_length(spec) == nperseg
    np.testing.assert_array_equal(spec.freqs, freqs)
    np.testing.assert_allclose(spec.psd, psd, rtol=1e-12, atol=0.0)


@given(
    rows=st.integers(1, 9),
    envelope=st.booleans(),
    rbw=st.sampled_from([30.0, 26.8]),
    vbw=st.sampled_from([None, 3.0]),
    sliced=st.booleans(),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_psd_of_a_stack_is_each_row_bit_for_bit(rows, envelope, rbw, vbw,
                                                sliced, seed):
    rng = np.random.default_rng(seed)
    center = 3000.0 if envelope else None
    samples = rng.standard_normal((rows, 2500))
    if envelope:
        samples = samples + 1j * rng.standard_normal((rows, 2500))
    offset = center or 0.0
    span = (offset + 500.0, offset + 1500.0) if sliced else None

    def series(x):
        return DetectedTimeSeries(x, FS, gain_used=1e6, mean_power=1e-4,
                                  angle_gain=1.0, center_freq=center)

    stacked = psd_estimate(series(samples), rbw, vbw, span=span)
    # an even segment at rbw 30 Hz, an odd one at 26.8 Hz
    assert segment_length(stacked) == {30.0: 1000, 26.8: 1125}[rbw]
    traces = stacked.rows()
    assert stacked.psd.shape == (rows, stacked.freqs.size) and len(traces) == rows
    for row, trace in zip(samples, traces):
        single = psd_estimate(series(row), rbw, vbw, span=span)
        assert trace.psd.tobytes() == single.psd.tobytes()
        assert trace.freqs.tobytes() == single.freqs.tobytes()
        assert (trace.rbw, trace.vbw, trace.enbw) == (single.rbw, single.vbw,
                                                      single.enbw)


@pytest.mark.parametrize("rbw", [30.0, 26.8])
def test_envelope_psd_is_the_shifted_doubled_welch(rbw):
    # even (1000) and odd (1125) segments: the shifted grid is cached and
    # shared, so a centre is added to a copy and the cache keeps its values
    rng = np.random.default_rng(3)
    samples = (rng.standard_normal((2, 2500))
               + 1j * rng.standard_normal((2, 2500)))
    spectra = [psd_estimate(DetectedTimeSeries(
        samples, FS, gain_used=1e6, mean_power=1e-4, angle_gain=1.0,
        center_freq=center), rbw) for center in (3000.0, 5000.0)]
    nperseg = segment_length(spectra[0])
    grid = np.fft.fftshift(np.fft.fftfreq(nperseg, 1.0 / FS))
    window = _flattop(nperseg)[0]
    _, psd = signal.welch(samples, fs=FS, window=window, nperseg=nperseg,
                          noverlap=nperseg // 2, detrend=False,
                          scaling="density", return_onesided=False)
    for center, spec in zip((3000.0, 5000.0), spectra):
        assert spec.freqs.tobytes() == (grid + center).tobytes()
        np.testing.assert_allclose(
            spec.psd, 2.0 * np.fft.fftshift(psd, axes=-1), rtol=1e-12, atol=0)
    cached = _offset_freqs(nperseg, FS)
    assert not cached.flags.writeable
    assert cached.tobytes() == grid.tobytes()


def largest_prime_factor(n):
    factor, largest = 2, 1
    while factor * factor <= n:
        while n % factor == 0:
            n, largest = n // factor, factor
        factor += 1
    return max(largest, n)


@pytest.mark.parametrize("fs", [320e3, 3.15e6])
def test_psd_segment_is_5_smooth_near_raw_length(fs):
    raw = round(_flattop(4096)[1] * fs / 30.0)
    ts = RotationTimeSeries(
        samples=np.random.default_rng(3).normal(size=raw + 200),
        sample_rate=fs, mean_optical_power=1e-4, photon_flux=4e14)
    spec = psd_estimate(ts, rbw=30.0)
    nperseg = segment_length(spec, fs)
    assert largest_prime_factor(nperseg) <= 5
    assert abs(nperseg - raw) / raw < 0.01


@pytest.mark.parametrize("rbw, n, nperseg", [
    (29.87, 1000, 1000),  # raw 1010 outgrows the series, the snapped 1000 fits
    (29.576, 1020, 1020),  # the snapped 1024 would outgrow it: keep raw 1020
    (1800.0, 4000, 17),  # 17 ties 16/18, goes down, and 16 misses by 11%
])
def test_psd_segment_snap_edge_cases(rbw, n, nperseg):
    ts = white_series(duration=n / FS)
    spec = psd_estimate(ts, rbw=rbw)
    assert segment_length(spec) == nperseg
    assert abs(spec.enbw - rbw) / rbw <= 0.05


def test_power_spectrum_validation():
    with pytest.raises(ValueError, match="increasing"):
        PowerSpectrum(np.array([1.0, 1.0]), np.array([1.0, 1.0]), 30.0, 30.0)
    with pytest.raises(ValueError, match="nonnegative"):
        PowerSpectrum(np.array([1.0, 2.0]), np.array([1.0, -1.0]), 30.0, 30.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            PowerSpectrum(np.array([1.0, 2.0]), np.array([bad, 1.0]), 30.0, 30.0)
        with pytest.raises(ValueError, match="finite"):
            PowerSpectrum(np.array([1.0, 2.0]), np.array([[1.0, 1.0], [1.0, bad]]),
                          30.0, 30.0)
    with pytest.raises(ValueError, match="equal length"):
        PowerSpectrum(np.array([1.0, 2.0]), np.ones((2, 3)), 30.0, 30.0)
    with pytest.raises(ValueError, match="rbw"):
        PowerSpectrum(np.array([1.0, 2.0]), np.array([1.0, 1.0]), 0.0, 30.0)


# ---------------------------------------------------------------------------
# Peak/background extraction
# ---------------------------------------------------------------------------

def flat_spectrum(level, peak=None, f_lo=60e3, f_hi=80e3, n=2001):
    freqs = np.linspace(f_lo, f_hi, n)
    psd = np.full(n, level)
    if peak is not None:
        f0, height = peak
        psd[int(np.argmin(np.abs(freqs - f0)))] = height
    return PowerSpectrum(freqs=freqs, psd=psd, rbw=30.0, vbw=30.0, enbw=30.0)


def test_peak_and_background_reads_exact_bins():
    mod = 70914.3
    on = flat_spectrum(2e-13, peak=(mod, 5e-9))
    off = flat_spectrum(2e-13)
    s_sig, s_bg = peak_and_background(on, off, mod, bg_window=4e3)
    assert s_sig == 5e-9
    assert s_bg == pytest.approx(2e-13, rel=1e-12)


def test_peak_and_background_averages_off_trace():
    mod = 70e3
    off = flat_spectrum(1e-13)
    sel = np.abs(off.freqs - mod) <= 2e3
    off.psd[sel] = np.linspace(1e-13, 3e-13, int(np.sum(sel)))
    on = flat_spectrum(1e-13, peak=(mod, 1e-9))
    _, s_bg = peak_and_background(on, off, mod, bg_window=4e3)
    assert s_bg == pytest.approx(2e-13, rel=1e-6)


@pytest.mark.parametrize("mod, bg_window", [
    (90e3, 4e3),    # outside the on-trace span
    (61e3, 4e3),    # background window runs off the low edge
    (70e3, -1.0),   # bad window
])
def test_peak_and_background_rejects(mod, bg_window):
    on = flat_spectrum(1e-13)
    off = flat_spectrum(1e-13)
    with pytest.raises(ValueError):
        peak_and_background(on, off, mod, bg_window=bg_window)


def test_peak_and_background_rejects_a_window_between_bins():
    # bins 8 Hz apart: +-1 Hz around a mid-bin frequency holds none of them
    freqs = 70e3 + 8.0 * np.arange(-100, 101)
    spec = PowerSpectrum(freqs, np.full(freqs.size, 1e-13), 30.0, 30.0)
    with pytest.raises(ValueError, match=r"bg_window 2\.0 .* holds no"):
        peak_and_background(spec, spec, 70e3 + 4.0, bg_window=2.0)
    assert peak_and_background(spec, spec, 70e3 + 4.0, bg_window=8.0) == (
        1e-13, 1e-13)


@pytest.mark.parametrize("center", [None, 3000.0])
def test_peak_and_background_of_a_stack_is_each_row_bit_for_bit(center):
    # real and envelope grids: each row's reads, from the whole stack and
    # from the single traces rows() splits it into, are those of the row's
    # trace estimated and read alone
    rng = np.random.default_rng(5)
    samples = rng.standard_normal((6, 2500))
    if center is not None:
        samples = samples + 1j * rng.standard_normal((6, 2500))
    mod = (center or 0.0) + 1003.7

    def spectrum(x):
        return psd_estimate(DetectedTimeSeries(
            x, FS, gain_used=1e6, mean_power=1e-4, angle_gain=1.0,
            center_freq=center), 30.0, 3.0)

    alone = [peak_and_background(spectrum(row), spectrum(row), mod, 400.0)
             for row in samples]
    stack = spectrum(samples)
    peaks, backgrounds = peak_and_background(stack, stack, mod, 400.0)
    split = [peak_and_background(trace, trace, mod, 400.0)
             for trace in stack.rows()]
    assert isinstance(alone[0][0], float) and isinstance(alone[0][1], float)
    assert np.array(peaks).tobytes() == np.array(
        [s_sig for s_sig, _ in alone]).tobytes()
    assert np.array(backgrounds).tobytes() == np.array(
        [s_bg for _, s_bg in alone]).tobytes()
    assert split == list(zip(peaks, backgrounds))
    for row, (_, s_bg) in zip(samples, alone):  # the window's mean()
        trace = spectrum(row)
        assert s_bg == float(trace.psd[np.abs(trace.freqs - mod) <= 200.0]
                             .mean())


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def test_spectrum_csv_format(tmp_path):
    spec = flat_spectrum(2e-13, peak=(70e3, 1e-9), n=11)
    path = tmp_path / "spec.csv"
    spectrum_to_csv(spec, path, seed=5)
    lines = path.read_text().splitlines()
    assert lines[0] == "# rbw_hz = 30.0"
    assert "# seed = 5" in lines
    assert "freq_hz,psd_w_per_hz" in lines
    assert "np.float64" not in path.read_text()
    first = lines[lines.index("freq_hz,psd_w_per_hz") + 1].split(",")
    assert float(first[0]) == spec.freqs[0]
    assert float(first[1]) == spec.psd[0]


def test_resonance_curve_csv_format(tmp_path):
    curve = ResonanceCurve(np.array([990.0, 1000.0, 1010.0]),
                           np.array([1e-3, 2e-3, 1e-3]),
                           np.array([5e-4, 0.0, -5e-4]), bracketed=False)
    path = tmp_path / "curve.csv"
    resonance_curve_to_csv(curve, path, seed=None)
    text = path.read_text()
    assert "# bracketed = False" in text
    assert "mod_freq_hz,phi_p_rad,phi_q_rad" in text
    assert "np.float64" not in text
    last = text.splitlines()[-1].split(",")
    assert [float(v) for v in last] == [1010.0, 1e-3, -5e-4]
