"""Lock-in demodulation and spectrum-analyzer emulation.

The PSD estimator is a windowed, segment-averaged periodogram whose window
equivalent noise bandwidth (ENBW) is calibrated to the requested resolution
bandwidth. A flat-top window keeps tone peaks accurate regardless of where
they fall relative to the bin grid, so a tone of amplitude a reads
a^2/(2*rbw) at its peak and white noise reads its true density. The video
bandwidth is emulated as a zero-phase single-pole smoothing across trace
bins (one resolution bandwidth of trace is treated as one dwell of video
filtering), which preserves flat levels.

The periodogram is a numpy Welch estimate: 50%-overlapped, undetrended
segments, one-sided density. The segment length is the 5-smooth length
(2^a 3^b 5^c) nearest to the one whose flat-top ENBW equals rbw, so every
FFT is fast; the realized ENBW is reported and stays within 5% of rbw. The
window and its ENBW are cached per length.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
from scipy import fft as _fft
from scipy import signal as _sig

from .config import FieldConfig
from .detector import DetectedTimeSeries
from .signal_model import ResonanceParams, RotationTimeSeries, synthesize_rotation

__all__ = [
    "ResonanceCurve",
    "PowerSpectrum",
    "SweepSynthesis",
    "lock_in_demodulate",
    "sweep_resonance",
    "psd_estimate",
    "peak_and_background",
    "spectrum_to_csv",
    "resonance_curve_to_csv",
]

AnySeries = Union[RotationTimeSeries, DetectedTimeSeries]


@dataclass
class ResonanceCurve:
    """Demodulated quadratures versus modulation frequency.

    ``bracketed`` is False when the sweep grid did not contain the resonance
    center (the curve is still returned).
    """

    mod_freqs: np.ndarray     # Hz
    phi_P_values: np.ndarray  # rad
    phi_Q_values: np.ndarray  # rad
    bracketed: bool = True

    def __post_init__(self) -> None:
        self.mod_freqs = np.asarray(self.mod_freqs, dtype=float)
        self.phi_P_values = np.asarray(self.phi_P_values, dtype=float)
        self.phi_Q_values = np.asarray(self.phi_Q_values, dtype=float)
        if not (self.mod_freqs.size == self.phi_P_values.size
                == self.phi_Q_values.size):
            raise ValueError("curve arrays must have equal length")
        if self.mod_freqs.size == 0:
            raise ValueError("curve must contain at least one point")
        if self.mod_freqs.size > 1 and not np.all(np.diff(self.mod_freqs) > 0):
            raise ValueError("mod_freqs must be strictly increasing")

    def validate_for_fit(self, min_points: int = 5) -> "ResonanceCurve":
        if self.mod_freqs.size < min_points:
            raise ValueError(
                f"curve has {self.mod_freqs.size} points; "
                f"need at least {min_points}"
            )
        return self


@dataclass
class PowerSpectrum:
    """One-sided PSD trace with analyzer bandwidth metadata."""

    freqs: np.ndarray  # Hz, strictly increasing
    psd: np.ndarray    # input-units^2 per Hz (W/Hz for detected series)
    rbw: float         # Hz
    vbw: float         # Hz
    enbw: float = 0.0  # Hz, realized equivalent noise bandwidth

    def __post_init__(self) -> None:
        self.freqs = np.asarray(self.freqs, dtype=float)
        self.psd = np.asarray(self.psd, dtype=float)
        if self.freqs.size != self.psd.size:
            raise ValueError("freqs and psd must have equal length")
        if self.freqs.size > 1 and not np.all(np.diff(self.freqs) > 0):
            raise ValueError("freqs must be strictly increasing")
        if np.any(self.psd < 0):
            raise ValueError("psd must be nonnegative")
        if not self.rbw > 0 or not self.vbw > 0:
            raise ValueError(f"rbw and vbw must be > 0, got {self.rbw!r}, {self.vbw!r}")


def _angle_scale(ts: AnySeries) -> float:
    """Scale factor that refers a series back to radians, if known."""
    gain = getattr(ts, "angle_gain", None)
    if gain is None:
        return 1.0
    if gain == 0.0:
        raise ValueError("angle_gain is zero; cannot refer samples to angle")
    return 1.0 / gain


def lock_in_demodulate(ts: AnySeries, mod_freq: float,
                       output_bandwidth: float) -> tuple[float, float]:
    """Demodulate at mod_freq: returns (phi_P, phi_Q) in radians.

    phi_P = 2<x cos>, phi_Q = 2<x sin> after a 4th-order low-pass at
    output_bandwidth (cascade with >60 dB rejection at twice the carrier);
    the filter settle region is discarded before averaging. Detected series
    are scaled back to angle units via their recorded gain.
    """
    if not output_bandwidth > 0:
        raise ValueError(f"output_bandwidth must be > 0, got {output_bandwidth!r}")
    fs = ts.sample_rate
    if not mod_freq < fs / 2.0:
        raise ValueError(
            f"mod_freq {mod_freq!r} violates Nyquist for sample_rate {fs!r}"
        )
    n = ts.samples.size
    if n / fs < 10.0 / output_bandwidth:
        raise ValueError(
            f"series duration {n / fs!r} s too short for output bandwidth "
            f"{output_bandwidth!r} Hz (need >= {10.0 / output_bandwidth!r} s)"
        )
    x = ts.samples * _angle_scale(ts)
    t = np.arange(n) / fs
    carrier = 2.0 * np.pi * mod_freq * t
    sos = _sig.butter(4, output_bandwidth, fs=fs, output="sos")
    inphase = _sig.sosfilt(sos, 2.0 * x * np.cos(carrier))
    quadrature = _sig.sosfilt(sos, 2.0 * x * np.sin(carrier))
    settle = min(int(6.0 * fs / output_bandwidth), n // 2)
    return float(inphase[settle:].mean()), float(quadrature[settle:].mean())


@dataclass
class SweepSynthesis:
    """Synthesis settings shared by all points of a resonance sweep."""

    duration: float            # s per point
    sample_rate: float         # Hz
    power: float               # W
    output_bandwidth: float    # Hz lock-in bandwidth
    wavelength: float = 795e-9
    shot_noise: bool = True
    seed: Optional[int] = None
    workers: int = 1


def _pmap(fn, tasks: list, workers: int) -> list:
    """``[fn(task) for task in tasks]``, in a process pool when workers > 1.

    The pool never exceeds the task count or the cores: under the fork
    start method every requested worker is forked up front.
    """
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent import futures
        with futures.ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))
    return [fn(task) for task in tasks]


def _sweep_point(args) -> tuple[float, float]:
    res, freq, center, synth, index = args
    field = FieldConfig(
        b_field=None,
        modulation_freq=freq,
        detuning_delta=2.0 * np.pi * (freq - center),
    )
    seed = None if synth.seed is None else (int(synth.seed), int(index), 0)
    ts = synthesize_rotation(
        res, field, synth.duration, synth.sample_rate, synth.power,
        rng_seed=seed, wavelength=synth.wavelength,
        shot_noise=synth.shot_noise,
    )
    return lock_in_demodulate(ts, freq, synth.output_bandwidth)


def sweep_resonance(res: ResonanceParams, mod_freqs: Sequence[float],
                    synth: SweepSynthesis) -> ResonanceCurve:
    """Demodulate one synthesized point per grid frequency.

    Point noise streams derive from (seed, grid index, 0), so results are
    identical for any worker count. A grid that does not bracket the
    resonance center yields bracketed=False rather than an error.
    """
    res.validate()
    freqs = np.asarray(mod_freqs, dtype=float)
    if freqs.size == 0:
        raise ValueError("mod_freqs grid is empty")
    if freqs.size > 1 and not np.all(np.diff(freqs) > 0):
        raise ValueError("mod_freqs must be strictly increasing")
    tasks = [(res, float(f), res.center_freq, synth, i)
             for i, f in enumerate(freqs)]
    results = _pmap(_sweep_point, tasks, synth.workers)
    phi_p = np.array([r[0] for r in results])
    phi_q = np.array([r[1] for r in results])
    bracketed = bool(freqs.min() <= res.center_freq <= freqs.max())
    return ResonanceCurve(freqs, phi_p, phi_q, bracketed=bracketed)


# ---------------------------------------------------------------------------
# Spectrum-analyzer emulation
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _flattop(nperseg: int) -> tuple[np.ndarray, float]:
    """Read-only flat-top window of nperseg samples and its ENBW in bins."""
    window = _sig.windows.flattop(nperseg)
    window.flags.writeable = False
    return window, nperseg * float(np.sum(window ** 2) / np.sum(window) ** 2)


def _segment_length(fs: float, rbw: float, n: int) -> int:
    """Welch segment length whose flat-top ENBW matches rbw.

    The raw length round(ENBW_bins * fs / rbw) is snapped to the nearest
    5-smooth length (ties go down), where the FFT is fast. The raw length is
    kept when the snapped one would breach the 5% ENBW gate or outgrow the
    n-sample series, so snapping never rejects a pair the raw length serves.
    """
    raw = int(round(_flattop(4096)[1] * fs / rbw))
    if raw < 16:  # would snap to < 16 as well (15 is 5-smooth): rejected
        return raw
    down = _fft.prev_fast_len(raw, real=True)
    up = _fft.next_fast_len(raw, real=True)
    smooth = down if raw - down <= up - raw else up
    if smooth > n:  # checked first: no window is built for a length never used
        return raw
    enbw = fs * _flattop(smooth)[1] / smooth
    return smooth if abs(enbw - rbw) / rbw <= 0.05 else raw


def _welch(x: np.ndarray, fs: float, window: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray]:
    """One-sided Welch density with 50%-overlapped, undetrended segments."""
    nperseg = window.size
    step = nperseg - nperseg // 2
    acc = np.zeros(nperseg // 2 + 1)
    starts = range(0, x.size - nperseg + 1, step)
    for start in starts:
        spec = np.fft.rfft(x[start:start + nperseg] * window)
        acc += spec.real ** 2 + spec.imag ** 2
    psd = acc / (len(starts) * fs * float(np.sum(window ** 2)))
    psd[1:nperseg - nperseg // 2] *= 2.0  # all but DC and an even-length Nyquist
    return np.fft.rfftfreq(nperseg, 1.0 / fs), psd


def _video_smooth(psd: np.ndarray, rbw: float, vbw: float,
                  bin_spacing: float) -> np.ndarray:
    """Zero-phase single-pole smoothing across bins with cutoff vbw.

    The trace is treated as sampled at one resolution bandwidth per dwell,
    i.e. a pseudo sample rate of rbw/bin_spacing bins per dwell.
    """
    alpha = np.exp(-2.0 * np.pi * (vbw / rbw) * (bin_spacing / rbw))
    if alpha <= 0.0:
        return psd
    b, a = [1.0 - alpha], [1.0, -alpha]
    forward = _sig.lfilter(b, a, psd)
    backward = _sig.lfilter(b, a, forward[::-1])[::-1]
    return backward


def psd_estimate(ts: AnySeries, rbw: float, vbw: Optional[float] = None,
                 span: Optional[tuple[float, float]] = None) -> PowerSpectrum:
    """One-sided PSD with the window ENBW calibrated to rbw (within 5%).

    vbw defaults to rbw. span, when given, slices the trace to
    [f_lo, f_hi]. PSD units follow the input series (W/Hz for detected
    series, rad^2/Hz for rotation series).
    """
    if not rbw > 0:
        raise ValueError(f"rbw must be > 0, got {rbw!r}")
    if vbw is None:
        vbw = rbw
    if not vbw > 0:
        raise ValueError(f"vbw must be > 0, got {vbw!r}")
    fs = ts.sample_rate
    x = np.asarray(ts.samples, dtype=float)
    nperseg = _segment_length(fs, rbw, x.size)
    if nperseg < 16:
        raise ValueError(
            f"rbw {rbw!r} too coarse for sample_rate {fs!r} "
            f"(window of {nperseg} samples)"
        )
    if nperseg > x.size:
        raise ValueError(
            f"series of {x.size} samples too short for rbw {rbw!r} "
            f"(needs >= {nperseg} samples)"
        )
    window, enbw_bins = _flattop(nperseg)
    enbw = fs * enbw_bins / nperseg
    if abs(enbw - rbw) / rbw > 0.05:
        raise ValueError(
            f"realized ENBW {enbw!r} deviates from rbw {rbw!r} by more than 5%"
        )
    freqs, psd = _welch(x, fs, window)
    bin_spacing = fs / nperseg
    if vbw < rbw:
        psd = np.maximum(_video_smooth(psd, rbw, vbw, bin_spacing), 0.0)
    if span is not None:
        f_lo, f_hi = span
        if not f_hi < fs / 2.0:
            raise ValueError(
                f"span upper edge {f_hi!r} must stay below Nyquist ({fs / 2.0!r})"
            )
        if not f_lo < f_hi:
            raise ValueError(f"empty span ({f_lo!r}, {f_hi!r})")
        sel = (freqs >= f_lo) & (freqs <= f_hi)
        if not np.any(sel):
            raise ValueError(f"span ({f_lo!r}, {f_hi!r}) contains no trace bins")
        freqs, psd = freqs[sel], psd[sel]
    return PowerSpectrum(freqs=freqs, psd=psd, rbw=rbw, vbw=vbw, enbw=enbw)


def peak_and_background(spec_on: PowerSpectrum, spec_off: PowerSpectrum,
                        mod_freq: float, bg_window: float = 4e3
                        ) -> tuple[float, float]:
    """Signal peak and averaged background densities around mod_freq.

    s_sig is the on-spectrum value at the bin nearest mod_freq; s_bg the
    mean of the off-spectrum over mod_freq +- bg_window/2.
    """
    if not bg_window > 0:
        raise ValueError(f"bg_window must be > 0, got {bg_window!r}")
    if not spec_on.freqs[0] <= mod_freq <= spec_on.freqs[-1]:
        raise ValueError(
            f"spec_on span [{spec_on.freqs[0]!r}, {spec_on.freqs[-1]!r}] "
            f"does not cover mod_freq {mod_freq!r}"
        )
    if (spec_off.freqs[0] > mod_freq - bg_window / 2.0
            or spec_off.freqs[-1] < mod_freq + bg_window / 2.0):
        raise ValueError(
            f"spec_off span [{spec_off.freqs[0]!r}, {spec_off.freqs[-1]!r}] "
            f"does not cover mod_freq {mod_freq!r} +- bg_window/2 "
            f"({bg_window / 2.0!r})"
        )
    idx = int(np.argmin(np.abs(spec_on.freqs - mod_freq)))
    s_sig = float(spec_on.psd[idx])
    sel = np.abs(spec_off.freqs - mod_freq) <= bg_window / 2.0
    s_bg = float(spec_off.psd[sel].mean())
    return s_sig, s_bg


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def spectrum_to_csv(spec: PowerSpectrum, path, seed=None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# rbw_hz = {spec.rbw!r}\n")
        fh.write(f"# vbw_hz = {spec.vbw!r}\n")
        fh.write(f"# enbw_hz = {spec.enbw!r}\n")
        fh.write(f"# seed = {seed!r}\n")
        fh.write("freq_hz,psd_w_per_hz\n")
        for f, p in zip(spec.freqs, spec.psd):
            fh.write(f"{float(f)!r},{float(p)!r}\n")


def resonance_curve_to_csv(curve: ResonanceCurve, path, seed=None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# bracketed = {curve.bracketed}\n")
        fh.write(f"# seed = {seed!r}\n")
        fh.write("mod_freq_hz,phi_p_rad,phi_q_rad\n")
        for f, p, q in zip(curve.mod_freqs, curve.phi_P_values,
                           curve.phi_Q_values):
            fh.write(f"{float(f)!r},{float(p)!r},{float(q)!r}\n")
