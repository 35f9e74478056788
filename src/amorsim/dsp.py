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

Like a swept analyzer, which mixes its input to an IF and filters it at
the RBW, the estimator also reads complex envelopes (detected series with
a ``center_freq`` f_c, see signal_model): the same segments and window, a
full FFT in place of the real one, and a trace at f_c + offset showing
twice the two-sided density, so one-sided levels read the same on both
paths. ``_envelope_grid`` picks the envelope for the band a caller reads.
The analyzer modes (spectrum, noise-scan, sensitivity-sweep) use it, and
so does demod-sweep: the lock-in mixes an envelope down by f_mod - f_c
with the same weighted sum it runs on a real series.

The estimator and the lock-in also read a stack, a series whose samples
are (rows, n) on one rate, and each row of their result has the bits of a
call on that row alone; a single series is the one-row case. For the
estimator the rows share one centre: each Welch segment is one FFT over
all rows, and the PowerSpectrum holds a trace per row on one grid
(``rows`` splits it). The lock-in reads each row at its own carrier and,
on an envelope stack, around its own centre, so ``sweep_resonance``
demodulates a sweep in one call. The analyzer modes and demod-sweep pay
the per-call cost once per stack.

The lock-in's 4th-order Butterworth output filter is linear, so the mean
of its settled output is a fixed weighting of its input: each point is
one weighted sum, with weights built once per (rate, bandwidth, length)
from the filter's closed-form step response. Everything here runs on
numpy alone, the video filter included. It writes no file; ``cli`` does.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np
import numpy.fft  # noqa: F401 numpy 2 loads it lazily; load it here, not mid-run

from .detector import DetectedTimeSeries
from .signal_model import ResonanceParams, RotationTimeSeries, _tone
from .signal_model import synthesize_rotation  # noqa: F401 perfbench wraps it here

__all__ = [
    "ResonanceCurve",
    "PowerSpectrum",
    "lock_in_demodulate",
    "sweep_resonance",
    "psd_estimate",
    "peak_and_background",
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


@dataclass
class PowerSpectrum:
    """One-sided PSD trace with analyzer bandwidth metadata.

    ``psd`` is one trace, or a (rows, bins) stack of traces that share
    ``freqs`` and the bandwidths, as ``psd_estimate`` returns for a stacked
    series.
    """

    freqs: np.ndarray  # Hz, strictly increasing
    psd: np.ndarray    # input-units^2 per Hz (W/Hz for detected series)
    rbw: float         # Hz
    vbw: float         # Hz
    enbw: float = 0.0  # Hz, realized equivalent noise bandwidth

    def __post_init__(self) -> None:
        self.freqs = np.asarray(self.freqs, dtype=float)
        self.psd = np.asarray(self.psd, dtype=float)
        if self.freqs.ndim != 1 or self.freqs.size != self.psd.shape[-1]:
            raise ValueError("freqs and psd must have equal length")
        if self.freqs.size > 1 and not np.all(np.diff(self.freqs) > 0):
            raise ValueError("freqs must be strictly increasing")
        if not np.all(np.isfinite(self.psd)):
            raise ValueError("psd must be finite")
        if np.any(self.psd < 0):
            raise ValueError("psd must be nonnegative")
        if not self.rbw > 0 or not self.vbw > 0:
            raise ValueError(f"rbw and vbw must be > 0, got {self.rbw!r}, {self.vbw!r}")

    def rows(self) -> list["PowerSpectrum"]:
        """One PowerSpectrum per trace of the psd, each a view of its row
        on the shared grid and bandwidths."""
        return [replace(self, psd=row) for row in np.atleast_2d(self.psd)]


def _angle_scale(ts: AnySeries) -> float:
    """Scale factor that refers a series back to radians, if known."""
    gain = getattr(ts, "angle_gain", None)
    if gain is None:
        return 1.0
    if gain == 0.0:
        raise ValueError("angle_gain is zero; cannot refer samples to angle")
    return 1.0 / gain


@functools.lru_cache(maxsize=64)
def _smooth_bracket(n: int) -> tuple[int, int]:
    """The 5-smooth lengths (2^a 3^b 5^c) nearest n from below and above.

    Walks the 3^b 5^c products under the upper bound and completes each
    with the power of two that brings it nearest n, so a call costs a few
    dozen steps whatever n is. Matches scipy.fft's prev_fast_len and
    next_fast_len with real=True for n >= 1.
    """
    down, up = 1 << (n.bit_length() - 1), 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < up:
        p = p5
        while p < up:
            if p <= n:
                down = max(down, p << ((n // p).bit_length() - 1))
            up = min(up, p << ((n - 1) // p).bit_length())
            p *= 3
        p5 *= 5
    return down, up


def _butter4_step(fs: float, bw: float, n: int) -> np.ndarray:
    """First n samples of the step response of butter(4, bw, fs=fs).

    scipy's design: the Butterworth poles pre-warped to bw, mapped by the
    bilinear transform, unit gain at DC. Each conjugate pole pair is one
    section with impulse response c0*delta[k] + 2*Re(r p^k); the two
    sections are convolved by FFT and summed. A partial fraction over all
    four poles would be ill-conditioned at small bw/fs, where the poles
    crowd towards z = 1; a pair's two poles stay apart.
    """
    warped = 4.0 * math.tan(math.pi * bw / fs)  # analog cutoff, for fs = 2
    k = np.arange(n)
    sections = []
    for m in (-3, -1):  # one pole of each conjugate pair
        analog = -warped * cmath.exp(1j * math.pi * m / 8.0)
        pole = (4.0 + analog) / (4.0 - analog)
        gain = abs(analog) ** 2 / abs(4.0 - analog) ** 2
        residue = (gain * (1.0 + 1.0 / pole) ** 2
                   / (1.0 - pole.conjugate() / pole))
        h = 2.0 * (residue * np.exp(k * np.log(pole))).real
        h[0] += gain / abs(pole) ** 2
        sections.append(h)
    size = _smooth_bracket(2 * n - 1)[1]
    spectrum = np.fft.rfft(sections[0], size) * np.fft.rfft(sections[1], size)
    return np.cumsum(np.fft.irfft(spectrum, size)[:n])


@functools.lru_cache(maxsize=4)
def _lock_in_weights(fs: float, bw: float, n: int) -> np.ndarray:
    """Read-only w with mean(butter4(u)[settle:]) == u @ w for any u.

    The filter is linear, so the mean of its settled tail weighs each
    input sample j by the step response S: w[j] = (S[n-1-j] -
    S[settle-1-j]) / (n - settle), with S zero at negative indices.
    """
    settle = min(int(6.0 * fs / bw), n // 2)
    step = _butter4_step(fs, bw, n)
    weights = step[::-1].copy()
    weights[:settle] -= step[settle - 1::-1]
    weights /= n - settle
    weights.flags.writeable = False
    return weights


def lock_in_demodulate(ts: AnySeries, mod_freq,
                       output_bandwidth: float) -> tuple:
    """Demodulate at mod_freq: returns (phi_P, phi_Q) in radians.

    phi_P = 2<x cos>, phi_Q = 2<x sin> after a 4th-order Butterworth
    low-pass at output_bandwidth (cascade with >60 dB rejection at twice
    the carrier), averaged over the output once the settle region is
    discarded. That average is linear in x, so both quadratures come from
    one weighted sum, v = (2 x w) @ exp(-i 2pi (f_mod - f_c) t) with the
    weights w of ``_lock_in_weights`` at the series' own rate: phi_P =
    Re v, phi_Q = -Im v, the exponential being signal_model's cached tone
    at -(f_mod - f_c). f_c is 0 for a real series, whose carrier must lie
    in (0, fs/2); an envelope's must lie within f_c +- fs/2. Detected
    series are scaled back to angle units via their recorded gain.

    A stack, samples (rows, n), is read row by row: mod_freq holds one
    carrier per row (a float serves every row) and an envelope's
    ``center_freq`` may hold one centre per row. It gives a list per
    quadrature, each row the bits of a call on that row alone.
    """
    fs, center = ts.sample_rate, getattr(ts, "center_freq", None)
    rows = np.atleast_2d(ts.samples)
    mods = np.broadcast_to(mod_freq, len(rows)).tolist()
    centers = np.broadcast_to(0.0 if center is None else center,
                              len(rows)).tolist()
    for f, c in zip(mods, centers):
        if center is None and not 0.0 < f < fs / 2.0:
            raise ValueError(
                f"mod_freq {f!r} must lie in (0, Nyquist) for "
                f"sample_rate {fs!r}"
            )
        if center is not None and not abs(f - c) < fs / 2.0:
            raise ValueError(
                f"mod_freq {f!r} lies outside the envelope band "
                f"{c!r} +- {fs / 2.0!r} Hz"
            )
    if not 0.0 < output_bandwidth < fs / 2.0:
        raise ValueError(
            f"output_bandwidth {output_bandwidth!r} must lie in (0, Nyquist) "
            f"for sample_rate {fs!r}"
        )
    n = rows.shape[-1]
    # synthesis rounds a duration to the nearest sample: allow half of one
    if (n + 0.5) / fs < 10.0 / output_bandwidth:
        raise ValueError(
            f"series duration {n / fs!r} s too short for output bandwidth "
            f"{output_bandwidth!r} Hz (need >= {10.0 / output_bandwidth!r} s)"
        )
    weights = _lock_in_weights(float(fs), float(output_bandwidth), n)
    scale = 2.0 * _angle_scale(ts)
    phi_p, phi_q = [], []
    for row, f, c in zip(rows, mods, centers):
        v = row * scale * weights @ _tone(-(f - c), fs, n)
        phi_p.append(float(v.real))
        phi_q.append(float(-v.imag))
    if ts.samples.ndim == 1:
        return phi_p[0], phi_q[0]
    return phi_p, phi_q


def sweep_resonance(res: ResonanceParams, mod_freqs: Sequence[float],
                    stack: AnySeries,
                    output_bandwidth: float) -> ResonanceCurve:
    """Lock-in quadratures of stack, whose rows (samples (k, n)) are the
    series modulated at the grid frequencies in grid order, demodulated in
    one ``lock_in_demodulate`` call.

    A grid that does not bracket the resonance center yields
    bracketed=False rather than an error.
    """
    res.validate()
    freqs = np.asarray(mod_freqs, dtype=float)
    if freqs.size == 0:
        raise ValueError("mod_freqs grid is empty")
    if freqs.size > 1 and not np.all(np.diff(freqs) > 0):
        raise ValueError("mod_freqs must be strictly increasing")
    rows = len(np.atleast_2d(stack.samples))
    if rows != freqs.size:
        raise ValueError(f"the stack's rows hold {rows} series for "
                         f"{freqs.size} grid frequencies")
    phi_p, phi_q = lock_in_demodulate(stack, freqs, output_bandwidth)
    bracketed = bool(freqs.min() <= res.center_freq <= freqs.max())
    return ResonanceCurve(freqs, phi_p, phi_q, bracketed=bracketed)


# ---------------------------------------------------------------------------
# Spectrum-analyzer emulation
# ---------------------------------------------------------------------------

def _envelope_grid(band: tuple[float, float]) -> tuple[float, float]:
    """(centre, sample rate) of the complex envelope that covers band.

    The rate, at least 1 Hz, is the smallest 5-smooth length at or above
    the band width less ulp(f_hi), the most that rounding the edges widens
    it: one width has one rate at any carrier, and the band lies within
    the envelope's +-rate/2. A caller that reads bins at the band's edges
    widens the band first (``cli._series_grid`` adds one analyzer bin
    past each). Where the centred envelope would reach below DC its
    centre moves up to rate/2, so its lower edge sits at 0 Hz and its
    0 Hz bin reads the one-sided level.
    """
    f_lo, f_hi = band
    width = f_hi - f_lo - math.ulp(f_hi)
    rate = float(_smooth_bracket(max(math.ceil(width), 1))[1])
    return max(0.5 * (f_lo + f_hi), rate / 2.0), rate


_FLATTOP_COEFS = (0.21557895, 0.41663158, 0.277263158, 0.083578947,
                  0.006947368)


@functools.lru_cache(maxsize=8)
def _flattop(nperseg: int) -> tuple[np.ndarray, float]:
    """Read-only flat-top window of nperseg samples and its ENBW in bins.

    scipy.signal.windows.flattop's symmetric 5-term cosine sum for
    nperseg >= 2, built the same way so the samples agree bit for bit.
    """
    phase = np.linspace(-np.pi, np.pi, nperseg)
    window = np.zeros(nperseg)
    for k, a in enumerate(_FLATTOP_COEFS):
        window += a * np.cos(k * phase)
    window.flags.writeable = False
    return window, nperseg * float(np.sum(window ** 2) / np.sum(window) ** 2)


# the flat-top's ENBW in bins, settled at 4096 samples: a segment whose
# ENBW is rbw at fs is about _ENBW_BINS * fs / rbw long
_ENBW_BINS = _flattop(4096)[1]
_MIN_SEGMENT = 16  # the fewest samples an analyzer segment may hold


def _welch_segments(n: int, nperseg: int) -> tuple[int, int]:
    """(step, count) of the 50%-overlapped Welch segments of n samples."""
    step = nperseg - nperseg // 2
    return step, (n - nperseg) // step + 1


def _segment_length(fs: float, rbw: float, n: int) -> int:
    """Welch segment length whose flat-top ENBW matches rbw.

    The raw length round(ENBW_bins * fs / rbw) is snapped to the nearest
    5-smooth length (ties go down), where the FFT is fast. The raw length is
    kept when the snapped one would breach the 5% ENBW gate or outgrow the
    n-sample series, so snapping never rejects a pair the raw length serves.
    """
    raw = int(round(_ENBW_BINS * fs / rbw))
    if raw < _MIN_SEGMENT:  # snaps below it too (15 is 5-smooth): rejected
        return raw
    down, up = _smooth_bracket(raw)
    smooth = down if raw - down <= up - raw else up
    if smooth > n:  # checked first: no window is built for a length never used
        return raw
    enbw = fs * _flattop(smooth)[1] / smooth
    return smooth if abs(enbw - rbw) / rbw <= 0.05 else raw


def _analyzer_window(fs: float, rbw: float, n: int
                     ) -> tuple[np.ndarray, float]:
    """Flat-top window for rbw on n-sample series at fs, and its ENBW in Hz.

    Raises ValueError when rbw is too coarse for fs (a window under 16
    samples, or an ENBW off rbw by more than 5%) or n is shorter than
    the window.
    """
    nperseg = _segment_length(fs, rbw, n)
    if nperseg < _MIN_SEGMENT:
        raise ValueError(
            f"rbw {rbw!r} too coarse for sample_rate {fs!r} "
            f"(window of {nperseg} samples)"
        )
    if nperseg > n:
        raise ValueError(
            f"series of {n} samples too short for rbw {rbw!r} "
            f"(needs >= {nperseg} samples)"
        )
    window, enbw_bins = _flattop(nperseg)
    enbw = fs * enbw_bins / nperseg
    if abs(enbw - rbw) / rbw > 0.05:
        raise ValueError(
            f"realized ENBW {enbw!r} deviates from rbw {rbw!r} by more than 5%"
        )
    return window, enbw


@functools.lru_cache(maxsize=8)
def _offset_freqs(nperseg: int, fs: float) -> np.ndarray:
    """Read-only bin offsets of an nperseg-point FFT at fs, increasing."""
    freqs = np.fft.fftshift(np.fft.fftfreq(nperseg, 1.0 / fs))
    freqs.flags.writeable = False
    return freqs


def _welch(x: np.ndarray, fs: float, window: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray]:
    """Welch density with 50%-overlapped, undetrended segments.

    One-sided for a real x. For a complex envelope, twice the two-sided
    density at offsets from its centre, in increasing order, on a shared
    read-only grid. Works along the last axis: a (rows, n) x gives one
    density per row, each segment one FFT over all rows.
    """
    nperseg = window.size
    real = not np.iscomplexobj(x)
    transform = np.fft.rfft if real else np.fft.fft
    acc = np.zeros(x.shape[:-1] + (nperseg // 2 + 1 if real else nperseg,))
    step, count = _welch_segments(x.shape[-1], nperseg)
    for start in range(0, count * step, step):
        spec = transform(x[..., start:start + nperseg] * window)
        acc += spec.real ** 2 + spec.imag ** 2
    psd = acc / (count * fs * float(np.sum(window ** 2)))
    if not real:  # fftshift's order: the negative offsets come first
        neg = nperseg // 2
        shifted = np.empty_like(psd)
        np.multiply(psd[..., nperseg - neg:], 2.0, out=shifted[..., :neg])
        np.multiply(psd[..., :nperseg - neg], 2.0, out=shifted[..., neg:])
        return _offset_freqs(nperseg, fs), shifted
    psd[..., 1:nperseg - nperseg // 2] *= 2.0  # all but DC and an even-length Nyquist
    return np.fft.rfftfreq(nperseg, 1.0 / fs), psd


def _video_pole(rbw: float, vbw: float, bin_spacing: float) -> float:
    """The video filter's pole across bins: 1.0 when vbw is so far below
    rbw that the filter no longer moves from its first bin."""
    return float(np.exp(-2.0 * np.pi * (vbw / rbw) * (bin_spacing / rbw)))


def _video_smooth(psd: np.ndarray, rbw: float, vbw: float,
                  bin_spacing: float) -> np.ndarray:
    """Zero-phase single-pole smoothing across bins with cutoff vbw.

    The trace is treated as sampled at one resolution bandwidth per dwell,
    i.e. a pseudo sample rate of rbw/bin_spacing bins per dwell. The pole
    y[k] = (1-alpha) x[k] + alpha y[k-1] runs forward, then backward, over
    each row of a stack of traces, each pass settled at its first sample's
    level (scipy's lfilter_zi(b, a) * x[0]), so flat levels stay flat.
    """
    alpha = _video_pole(rbw, vbw, bin_spacing)
    out = psd.tolist()
    for trace in out if psd.ndim > 1 else [out]:
        for order in (range(len(trace)), range(len(trace) - 1, -1, -1)):
            y = trace[order[0]]
            for k in order:
                y = trace[k] = (1.0 - alpha) * trace[k] + alpha * y
    return np.array(out)


def psd_estimate(ts: AnySeries, rbw: float, vbw: Optional[float] = None,
                 span: Optional[tuple[float, float]] = None) -> PowerSpectrum:
    """One-sided PSD with the window ENBW calibrated to rbw (within 5%).

    vbw defaults to rbw. span, when given, slices the trace to
    [f_lo, f_hi]; it must stay below Nyquist, or for a complex envelope
    inside its centre +- sample_rate/2. PSD units follow the input series
    (W/Hz for detected series, rad^2/Hz for rotation series). A series
    whose samples are a (rows, n) stack gives a (rows, bins) psd, row by
    row the trace of that row alone; its rows share one centre.
    """
    if not rbw > 0:
        raise ValueError(f"rbw must be > 0, got {rbw!r}")
    if vbw is None:
        vbw = rbw
    if not vbw > 0:
        raise ValueError(f"vbw must be > 0, got {vbw!r}")
    fs, center = ts.sample_rate, getattr(ts, "center_freq", None)
    if np.ndim(center) > 0:
        raise ValueError("psd_estimate reads a stack on one centre, "
                         "not one centre per row")
    x = ts.samples
    window, enbw = _analyzer_window(fs, rbw, x.shape[-1])
    freqs, psd = _welch(x, fs, window)
    if center is not None:
        freqs = freqs + center
    if vbw < rbw:
        psd = np.maximum(_video_smooth(psd, rbw, vbw, fs / window.size), 0.0)
    if span is not None:
        f_lo, f_hi = span
        if center is None and not f_hi < fs / 2.0:
            raise ValueError(
                f"span upper edge {f_hi!r} must stay below Nyquist ({fs / 2.0!r})"
            )
        if center is not None and not (center - fs / 2.0 <= f_lo
                                       and f_hi < center + fs / 2.0):
            raise ValueError(
                f"span ({f_lo!r}, {f_hi!r}) must stay inside the envelope "
                f"band {center!r} +- {fs / 2.0!r} Hz"
            )
        if not f_lo < f_hi:
            raise ValueError(f"empty span ({f_lo!r}, {f_hi!r})")
        sel = (freqs >= f_lo) & (freqs <= f_hi)
        if not np.any(sel):
            raise ValueError(f"span ({f_lo!r}, {f_hi!r}) contains no trace bins")
        freqs, psd = freqs[sel], psd[..., sel]
    return PowerSpectrum(freqs=freqs, psd=psd, rbw=rbw, vbw=vbw, enbw=enbw)


def peak_and_background(spec_on: PowerSpectrum, spec_off: PowerSpectrum,
                        mod_freq: float, bg_window: float) -> tuple:
    """Signal peak and averaged background densities around mod_freq.

    s_sig is the on-spectrum value at the bin nearest mod_freq; s_bg the
    mean of the off-spectrum over mod_freq +- bg_window/2. A single trace
    gives a float, a (rows, bins) stack a list with each row's read, the
    bits of a call on that row alone. Refuses a grid that does not cover
    what is read, or a window holding no bin, once for all rows. ``cli``
    passes one stack as both arguments and keeps, row by row, the peak of
    a tone row and the background of a row without one.
    """
    on_freqs, off_freqs = spec_on.freqs, spec_off.freqs
    if not bg_window > 0:
        raise ValueError(f"bg_window must be > 0, got {bg_window!r}")
    if not on_freqs[0] <= mod_freq <= on_freqs[-1]:
        raise ValueError(
            f"spec_on span [{on_freqs[0]!r}, {on_freqs[-1]!r}] "
            f"does not cover mod_freq {mod_freq!r}"
        )
    if (off_freqs[0] > mod_freq - bg_window / 2.0
            or off_freqs[-1] < mod_freq + bg_window / 2.0):
        raise ValueError(
            f"spec_off span [{off_freqs[0]!r}, {off_freqs[-1]!r}] "
            f"does not cover mod_freq {mod_freq!r} +- bg_window/2 "
            f"({bg_window / 2.0!r})"
        )
    sel = np.abs(off_freqs - mod_freq) <= bg_window / 2.0
    if not np.any(sel):
        raise ValueError(
            f"bg_window {bg_window!r} around mod_freq {mod_freq!r} holds no "
            f"spec_off bin (bins {off_freqs[1] - off_freqs[0]!r} "
            "Hz apart)"
        )
    s_sig = spec_on.psd[..., int(np.argmin(np.abs(on_freqs - mod_freq)))]
    # row by row: a sum along the axis of a 2-D stack rounds differently;
    # the sum over the count has the bits of the row's mean()
    count = int(np.count_nonzero(sel))
    s_bg = [float(off[sel].sum()) / count
            for off in np.atleast_2d(spec_off.psd)]
    return s_sig.tolist(), s_bg if spec_off.psd.ndim > 1 else s_bg[0]
