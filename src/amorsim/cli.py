"""Batch command-line front-end.

Subcommands map one-to-one to scenario modes::

    amorsim simulate           one synthesized + detected time series
    amorsim demod-sweep        lock-in quadratures vs modulation frequency
    amorsim spectrum           analyzer traces on/off resonance + SNR
    amorsim noise-scan         background level vs optical power + budget fit
    amorsim snl-map            shot-noise-limited windows vs detection freq
    amorsim sensitivity-sweep  field sensitivity vs optical power

A mode's handler writes nothing: it returns each output as a (file name,
writer) pair, and ``run_scenario`` writes them into ``--out``, then
``manifest.json``, only once the handler has returned, so a refused or
failed run leaves no ``--out`` behind. Every write goes through
``tables.write_table`` or ``tables.write_json``, which create ``--out``
with its first file; ``tables.read_table`` reads any table back
losslessly. This module is the only one that imports ``tables``: it fixes
the columns and header keys of every output (the ``*_to_csv`` functions,
``fit_report`` and ``make_sensitivity_report``), and the physics modules
write nothing. ``config.validate_config`` checks each key and the rules that
span keys, the same for every mode; a handler checks the rules only its
mode needs. A mode's tone is the resonance at its power, from
``_resonance``: ``resonance.*`` at ``sim.probe_power``, which
``saturation.*`` scale to the other powers sensitivity-sweep reads.
Each failure of the chain at a power, g(P) and N(P) from
``detector.chain_at``, has one rule that a mode calls
at the powers it reads: a dark background (``_require_background``) or a
missing tone (``_require_tone``) at the lowest, an overflow at the top.
Exit codes: 0 success, 2 configuration error (an array too large to
allocate counts as one, blamed on the key that sized it), 3 numerical
failure, 4 I/O error; failures print a single JSON object to stderr.

Random streams. Every draw comes from stream ``key + (lane,)``, seeded by
``np.random.default_rng``, where ``key`` names one series or one stack:

    simulate           (seed,)               lane 0 shot, 1 detector
    spectrum           (seed,)               its on/off pair
    noise-scan         (seed, scan)          scan 1 is the second field
    sensitivity-sweep  (seed, power_index)   its trace_avg on/off pairs
    demod-sweep        (seed,)               its carrier grid

snl-map draws nothing: its rows are the theory budget at each bin.

simulate synthesizes its real series (shot noise, lane 0) and detects it
(detector noise, lane 1), so ``rotation.csv`` and ``detected.csv`` share
one shot draw. Every other mode builds analyzer stacks (see
``_detected_stack``): each row is white noise at the density
``theory_budget`` predicts for its power, and a stack's rows are one draw
from its stream, on lane 0, in stack order. noise-scan and demod-sweep run
serially; sensitivity-sweep's powers each own their stream, so ``_pmap``
may split them into any chunks, and outputs are byte-identical for a fixed
``--seed`` regardless of ``--workers``. The keys of one run all have one
length: SeedSequence pads a key shorter than its 4-word pool with zeros,
so ``(seed, 0)`` names ``(seed, 0, 0)``'s stream, while ``(1, 2, 3, 1)``
and ``(1, 2, 3, 1, 0)`` differ.

The analyzer modes and demod-sweep build their series as the rows of one
array, each row (res or None, power, carrier): the resonance whose tone
it carries (None: no tone), the power that sets its chain, its carrier.
``_detected_stack`` allocates the array from the row list's length, draws
the stack's noise straight into it and adds each tone row's coherent wave.
demod-sweep's rows each sit on their own carrier's centre (``_demod_rows``)
and go to one ``lock_in_demodulate`` through ``sweep_resonance``. Each
analyzer stack goes through ``_analyzer``: one ``psd_estimate`` and one
``peak_and_background`` read every row's peak at the modulation frequency
and its background over ``spectrum.bg_window`` around it. spectrum keeps
the on peak and off background of its on/off pair; sensitivity-sweep
averages those of the ``trace_avg`` on/off pairs of one power, the off
rows None; noise-scan's levels are the backgrounds of a scan's powers,
every row None.

Analyzer bands. Every mode but simulate builds only the band its analyzer
or lock-in reads, as the complex envelope of that band at the smallest
5-smooth rate at or above its width (``dsp._envelope_grid``). spectrum
reads its ``spectrum.span``; noise-scan and sensitivity-sweep read
``spectrum.bg_window`` around the modulation frequency; both bands are
first widened by one analyzer bin past each edge (``_series_grid``), so
each trace holds a bin beyond the window it reads. demod-sweep reads
``_LOCKIN_HALFBAND`` output bandwidths either side of each carrier, as
they are. At the defaults that is 4050 Hz for the 4 kHz window, 40500 Hz
for the 40 kHz span and 1000 Hz for each lock-in band. A band whose
centred envelope would reach below DC gets one whose lower edge sits at
0 Hz. Only simulate builds the real series at ``sim.sample_rate``.
"""

from __future__ import annotations

import argparse
import json
import locale  # noqa: F401 argparse loads it on its first parse; load it here
import math
import os
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
import numpy.random  # noqa: F401 numpy 2 loads it lazily; load it here, not mid-run

from . import __version__
from .analysis import (
    SnlRange,
    classify_operating_point,
    compute_snr,
    projection_noise,
    sensitivity,
    snl_map,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    FieldConfig,
    _require,
    apply_env_overrides,
    config_as_dict,
    larmor_doubled_freq,
    load_config_file,
    validate_config,
)
from .detector import (DetectedTimeSeries, NoiseBudget, chain_at, detect,
                       theory_budget)
from .dsp import (
    _ENBW_BINS,
    _MIN_SEGMENT,
    PowerSpectrum,
    ResonanceCurve,
    _analyzer_window,
    _envelope_grid,
    _segment_length,
    _video_pole,
    _welch_segments,
    peak_and_background,
    psd_estimate,
    sweep_resonance,
)
from .fitting import (FitError, LorentzianFit, fit_lorentzian,
                      fit_noise_polynomial)
from .signal_model import (
    ResonanceParams,
    RotationTimeSeries,
    coherent_rotation,
    lorentzian_quadratures,
    photon_flux,
    shot_noise_angle_density,
    synthesize_rotation,
    white_noise,
)
from .tables import write_json, write_table

# demod-sweep's band: this many lock-in output bandwidths either side of
# each carrier, where the lock-in's 4th-order filter has left nothing the
# weighted sum can resolve (its noise and DC gain match the full rate).
_LOCKIN_HALFBAND = 20.0

# an analyzer band's pad past each edge, in bins of rbw / _ENBW_BINS: a
# segment that passes the 5% ENBW gate has bins at most 1.05 rbw /
# _ENBW_BINS apart (its flat-top's ENBW in bins is never 0.03% below
# _ENBW_BINS), so the pad always holds one trace bin
_EDGE_BINS = 1.1

# the chance that the largest squared noise bin of an analyzer trace
# exceeds the bound _require_analyzer_fits keeps finite
_TAIL_CHANCE = 1e-12

# the keys that set the chain's angle gain g and the shot term B of its
# noise budget, besides the power
_GAIN_KEYS = ("atom.probe_wavelength", "detector.quantum_efficiency",
              "detector.transimpedance_gain_nominal",
              "detector.gain_headroom_factor", "detector.analyzer_impedance")
# the keys that set the noise N(P) = A + B*P + C*P^2, besides the power
_NOISE_KEYS = ("detector.electronic_noise_floor", *_GAIN_KEYS,
               "detector.technical_noise_coef")

__all__ = ["ScenarioSpec", "run_scenario", "emit_plotdata", "main", "MODES"]


@dataclass
class ScenarioSpec:
    """One batch run: which mode, which config, where to write, which seed."""

    mode: str
    config_path: Optional[str] = None
    output_dir: str = "amorsim-out"
    seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode: unknown scenario {self.mode!r}")
        if self.workers < 1:
            raise ConfigError(f"workers: must be >= 1, got {self.workers!r}")
        self.seed = int(self.seed)
        if self.seed < 0:  # numpy's SeedSequence takes no negative entropy
            raise ConfigError(f"seed: must be >= 0, got {self.seed!r}")


def _pmap(fn, points: list, workers: int) -> list:
    """fn(chunk), one result per point, over min(workers, len(points), cores)
    contiguous chunks of points: one per worker, or fn(points) in-process."""
    chunks = min(workers, len(points), os.cpu_count() or 1)
    if chunks < 2:
        return fn(points)
    from concurrent import futures
    edges = [len(points) * c // chunks for c in range(chunks + 1)]
    with futures.ProcessPoolExecutor(max_workers=chunks) as pool:
        parts = pool.map(fn, [points[a:b] for a, b in zip(edges, edges[1:])])
        return [result for part in parts for result in part]


def _load_config(spec: ScenarioSpec) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if spec.config_path is not None:
        cfg = load_config_file(spec.config_path, base=cfg)
    apply_env_overrides(cfg)
    return validate_config(cfg)


def _allocate(key: str, what: str, make, *args) -> np.ndarray:
    """make(*args), an array or list that does not fit (MemoryError, or
    numpy's ValueError past its size limit) blamed on the config key that
    sized it."""
    try:
        return make(*args)
    except (MemoryError, ValueError) as exc:
        raise ConfigError(f"{key}: {what} do not fit in memory "
                          f"({str(exc) or type(exc).__name__})") from exc


def _setting(cfg: ExperimentConfig, key: str):
    section, _, attr = key.partition(".")
    return getattr(getattr(cfg, section), attr)


def _listed(*keys: str) -> str:
    return ", ".join(keys[:-1]) + " and " + keys[-1]


def _power_grid(cfg: ExperimentConfig) -> np.ndarray:
    sw = cfg.sweep
    space = np.geomspace if sw.power_scale == "log" else np.linspace
    grid = _allocate("sweep.power_points", f"{sw.power_points!r} powers",
                     space, sw.power_min, sw.power_max, sw.power_points)
    if not np.all(np.diff(grid) > 0):
        raise ConfigError(f"sweep.power_points: {sw.power_points!r} points "
                          f"from {sw.power_min!r} W (sweep.power_min) to "
                          f"{sw.power_max!r} W (sweep.power_max) do not increase")
    return grid


def _require_lockin_fits(cfg: ExperimentConfig, lowest: float) -> None:
    """The lock-in output filter must settle in the series and reject twice
    the lowest carrier by 60 dB, as its 4th order does up to this limit."""
    bw, duration = cfg.lockin.output_bandwidth, cfg.sim.duration
    limit = 2.0 * lowest / 10.0 ** 0.75
    if duration < 10.0 / bw or bw > limit:
        raise ConfigError(
            f"lockin.output_bandwidth: {bw!r} Hz needs sim.duration >= "
            f"{10.0 / bw!r} s (got {duration!r}) and must stay at or below "
            f"{limit!r} Hz, for 60 dB of rejection at twice {lowest!r} Hz")


def _require_analyzer_fits(cfg: ExperimentConfig, field: FieldConfig,
                           band: tuple, power_key: str,
                           res: Optional[ResonanceParams],
                           band_key="spectrum.bg_window") -> None:
    """float64 must resolve the analyzer's bins at the top of band, around
    field's carrier, and band's two edges; its flat-top segment must fit
    band's envelope and series, and a spectrum.vbw below spectrum.rbw must
    let the video filter move across the trace: (1 - pole) times band's
    bins at least 1.

    The periodogram must stay finite at the power power_key sets, the
    highest the mode reads. Its largest bin is at most segments x (a +
    sqrt(tail x m))^2: a the tone's amplitude in its bin (the resonance
    res, or none where res is None, at the chain's angle gain), m the noise
    budget's mean squared bin, and tail = ln(segments x bins /
    _TAIL_CHANCE). Squared noise bins are exponential about m, so the
    largest of a trace's segments x bins exceeds tail x m with chance
    _TAIL_CHANCE. band_key names the config key that sets the band's
    width.
    """
    rbw, vbw, duration = cfg.spectrum.rbw, cfg.spectrum.vbw, cfg.sim.duration
    width = getattr(cfg.spectrum, band_key.partition(".")[2])
    _require_resolved(_carrier_key(cfg, field), band[1],
                      rbw / _ENBW_BINS, "analyzer bin spacing")
    if not band[1] > band[0]:
        raise ConfigError(f"{band_key}: {width!r} Hz is below float64's "
                          f"resolution at {band[1]!r} Hz, so the band has "
                          f"no width; widen {band_key}")
    _, rate, n = _series_grid(cfg, band)
    try:
        window, _ = _analyzer_window(rate, rbw, n)
    except ValueError as exc:
        nperseg = _segment_length(rate, rbw, n)
        if nperseg >= _MIN_SEGMENT and nperseg > n:
            raise ConfigError(
                f"spectrum.rbw: {rbw!r} Hz needs sim.duration >= "
                f"{nperseg / rate!r} s for one analyzer segment (got "
                f"{duration!r})") from exc
        raise ConfigError(
            f"spectrum.rbw: {rbw!r} Hz is too coarse for {band_key} = "
            f"{width!r} Hz; lower spectrum.rbw or widen {band_key}") from exc
    spacing = rate / window.size
    bins = (band[1] - band[0]) / spacing
    movement = (1.0 - _video_pole(rbw, vbw, spacing)) * bins
    if vbw < rbw and movement < 1.0:
        raise ConfigError(
            f"spectrum.vbw: {vbw!r} Hz is so far below spectrum.rbw "
            f"({rbw!r} Hz) that the video filter's movement across the "
            f"{band_key} trace, (1 - pole) x bins = {movement!r}, is below "
            "1: every trace would stay near its first bins' level")
    power = _setting(cfg, power_key)
    with np.errstate(over="ignore", invalid="ignore"):  # NaN or inf: refused
        gain, density = chain_at(cfg, power)
        # None (noise-scan's rows) reads no Lorentzian. A caller passing a res
        # must first run _require_quadratures on it, so phi0 = 0 reads 0 here.
        tone = 0.0 if res is None else math.hypot(*lorentzian_quadratures(
            2.0 * math.pi * (field.modulation_freq - res.center_freq), res))
    peak = 0.5 * gain * tone * float(window.sum())  # the envelope tone's bin
    noise = float(density) * rate * float(np.sum(window ** 2)) / 2.0
    segments = _welch_segments(n, window.size)[1]
    tail = math.log(segments * window.size / _TAIL_CHANCE)
    largest = peak + math.sqrt(noise * tail)  # a segment's largest bin
    level = segments * (largest * largest)
    if not level < math.inf:
        raise ConfigError(
            f"{power_key}: the analyzer's periodogram at {power!r} W, its "
            f"largest bin summed over {segments} segments (the tone's plus "
            f"{tail:.4g} times the noise's mean in each), must be finite "
            f"(got {level!r}); lower {power_key}, or the noise N(P) = A + "
            "B*P + C*P^2 set by " + _listed(*_NOISE_KEYS))


def _require_background(cfg: ExperimentConfig, key: str,
                        power: Optional[float] = None) -> None:
    """The analyzer rows' noise N(P) = A + B*P + C*P^2 must be > 0 at the
    lowest power the mode reads, key's own (or power, the 0 W dark point
    that key adds): a trace with none has no background to read. 1/N, the
    weight of a noise fit's row, must be finite too. Every term is >= 0, so
    N does not fall as P rises."""
    power = _setting(cfg, key) if power is None else power
    with np.errstate(over="ignore", invalid="ignore"):
        density = float(chain_at(cfg, power)[1])
    if not density > 0.0 or 1.0 / density == math.inf:
        weight = " with a finite 1/N" if density > 0.0 else ""
        raise ConfigError(
            f"{key}: the analyzer's background at {power!r} W, N(P) = "
            f"A + B*P + C*P^2 = {density!r} W/Hz, must be > 0{weight}. N is "
            "set by " + _listed(key, *_NOISE_KEYS))


def _require_tone(cfg: ExperimentConfig, power_key: str, phi0: float,
                  *phi0_keys: str) -> None:
    """The resonance's tone phi0 * g(P) must be > 0 at the lowest power the
    mode reads, which power_key sets, or every reading is noise alone;
    phi0_keys set phi0 there, the first its scale. Neither phi0 nor g
    falls as P rises."""
    power = _setting(cfg, power_key)
    with np.errstate(over="ignore", invalid="ignore"):
        tone = phi0 * chain_at(cfg, power)[0]
    if not tone > 0.0:
        key = phi0_keys[0] if _setting(cfg, phi0_keys[0]) == 0.0 else power_key
        raise ConfigError(
            f"{key}: the resonance's tone at {power!r} W, phi0(P) * g(P) = "
            f"{tone!r}, must be > 0, or every reading is noise alone. It is "
            "set by " + _listed(power_key, *phi0_keys, *_GAIN_KEYS))


def _resonance(cfg: ExperimentConfig, power: float) -> ResonanceParams:
    """The resonance of cfg's field at power, which every mode reads:
    resonance.* bit for bit at sim.probe_power P0 (0 W included), else
    its phi0 times s(P)/s(P0), s(P) = P / (P + saturation.p_sat), refused
    at s(P0) = 0, and its gamma_fwhm times (p_broad + P) / (p_broad + P0),
    p_broad = saturation.p_broad."""
    phi0, gamma = cfg.resonance.phi0, cfg.resonance.gamma_fwhm
    sat, p0 = cfg.saturation, cfg.sim.probe_power
    if power != p0:
        s0 = p0 / (p0 + sat.p_sat)
        _require(s0 > 0.0, "sim.probe_power", p0, "the saturation s(P0) = "
                 "P0 / (P0 + saturation.p_sat), which scales resonance.phi0 "
                 "to other powers as s(P)/s(P0), must be > 0")
        phi0 *= (power / (power + sat.p_sat)) / s0
        gamma *= (sat.p_broad + power) / (sat.p_broad + p0)
    return ResonanceParams(phi0, gamma,
                           larmor_doubled_freq(cfg.field.b_field, cfg.atom))


def _require_quadratures(cfg: ExperimentConfig, res: ResonanceParams,
                         key="resonance.gamma_fwhm", width="") -> None:
    """res's quadratures at cfg's carrier must be finite, or key is refused:
    on resonance (pi * gamma_fwhm)^2 underflows to 0 below about 5e-163
    Hz, and overflows above about 4e153 Hz; width names the keys that set
    res's width, if key is not the width's own."""
    mod, gamma = cfg.field.modulation_freq, res.gamma_fwhm
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        phi = (lorentzian_quadratures(2.0 * math.pi * (mod - res.center_freq),
                                      res) if 0.0 < gamma < math.inf
               else (math.nan, math.nan))  # a width that rounded away
    _require(all(map(math.isfinite, phi)), key, gamma, "the quadratures "
             f"(phi_P, phi_Q) = {phi!r} at the carrier ({mod!r} Hz) must be "
             "finite; (pi * gamma_fwhm)^2 must neither underflow to 0 nor "
             "overflow" + width)


def _series_grid(cfg: ExperimentConfig, band) -> tuple:
    """(centre, sample rate, sample count) of a series: the envelope of an
    analyzer band (f_lo, f_hi), widened by _EDGE_BINS analyzer bins past
    each edge so that its trace holds a bin beyond both, or of a list of
    lock-in bands of one width, as they are (a list of centres), or
    without one the real series at sim.sample_rate. At the defaults the
    +-2 kHz background window reads a 4050 Hz envelope, spectrum's 40 kHz
    span 40500 Hz and each +-500 Hz lock-in band 1000 Hz."""
    if band is None:
        center, rate = None, cfg.sim.sample_rate
    elif isinstance(band, list):
        centers, rates = zip(*map(_envelope_grid, band))
        center, rate = list(centers), rates[0]
    else:
        pad = _EDGE_BINS * cfg.spectrum.rbw / _ENBW_BINS
        center, rate = _envelope_grid((band[0] - pad, band[1] + pad))
    return center, rate, int(round(cfg.sim.duration * rate))


def _detected_stack(cfg: ExperimentConfig, band, rows: list, key: tuple,
                    count_key: str = "sim.duration") -> DetectedTimeSeries:
    """The rows, each (res or None, power, carrier Hz), as the analyzer
    input, written straight into one (len(rows), n) stack on stream
    key+(0,).

    A row is the coherent rotation of res at its carrier, at the chain's
    angle gain g(P), plus a white draw at the noise density N(P), both
    ``chain_at(cfg, power)``: N holds shot, electronic and technical noise
    at once (see the ``detector`` docstring). A None row has no tone: it is
    the draw alone. The stack, complex with a band, is allocated before its
    stream is seeded, a size numpy refuses blamed on sim.duration if one
    row is past it, else on count_key. The rows share the band's sample
    rate and centre; the other scalar fields describe row 0. demod-sweep
    passes a list of bands of one width instead, one per row, each row on
    its own band's centre (``center_freq`` is their list). No mode passes
    band=None: its real stack at sim.sample_rate is the full-rate
    reference the tests compare the envelopes with.

    The stack's noise is one ``white_noise`` draw from
    ``np.random.default_rng(key + (0,))``, row after row at each row's N,
    straight into the stack; the scaled coherent wave is added onto each
    row with a tone. g and N are worked out once per distinct power; a row
    reuses the last wave built when its (res, carrier, centre, power)
    match, as a sensitivity-sweep point's on rows do, and otherwise builds
    its own.
    """
    center, rate, n = _series_grid(cfg, band)
    dtype = float if center is None else complex
    count = len(rows)
    try:
        samples = np.empty((count, n), dtype)
    except (MemoryError, ValueError):  # one row numpy refuses: sim.duration's
        if count_key != "sim.duration":
            _allocate("sim.duration", f"rows of {n!r} samples", np.empty, n,
                      dtype)
        samples = _allocate(count_key, f"{count!r} rows of {n!r} samples "
                            f"(sim.duration = {cfg.sim.duration!r} s)",
                            np.empty, (count, n), dtype)
    chains = {power: chain_at(cfg, power)  # power -> (gain, density)
              for power in dict.fromkeys(power for _, power, _ in rows)}
    white_noise(np.random.default_rng(key + (0,)),
                [chains[power][1] for _, power, _ in rows], rate, n,
                center is not None, out=samples)
    centers = center if isinstance(center, list) else [center] * count
    built = wave = None  # the (res, f, c, power) of the last wave, and it
    for row, ((res, power, f), c) in enumerate(zip(rows, centers)):
        if res is None:
            continue
        if built != (res, f, c, power):
            built = (res, f, c, power)
            wave = coherent_rotation(res, f, rate, n, c)
            if wave is not None:  # a new array: scale it in place
                wave *= chains[power][0]
        if wave is not None:
            samples[row] += wave
    power = rows[0][1]
    return DetectedTimeSeries(samples, rate, cfg.detector.gain_effective,
                              power, chains[power][0], key + (0,), center)


def _analyzer(cfg: ExperimentConfig, band, rows: list, key: tuple,
              count_key: str = "sim.duration", span=None) -> tuple:
    """(traces, peaks, backgrounds) of the rows' ``_detected_stack``: its
    one ``psd_estimate``, sliced to span, and each row's peak at the rows'
    carrier and background over spectrum.bg_window around it. A mode keeps
    the peaks of its tone rows and the backgrounds of the others."""
    sp = cfg.spectrum
    traces = psd_estimate(_detected_stack(cfg, band, rows, key, count_key),
                          sp.rbw, sp.vbw, span=span)
    try:
        peaks, backgrounds = peak_and_background(traces, traces, rows[0][2],
                                                 sp.bg_window)
    except ValueError as exc:  # only spectrum's span can cut the window
        raise ConfigError(f"spectrum.span: {sp.span!r} Hz must reach a trace "
                          "bin past each edge of spectrum.bg_window "
                          f"({sp.bg_window!r} Hz), and the window must hold "
                          "a trace bin") from exc
    return traces, peaks, backgrounds


def _carrier_key(cfg: ExperimentConfig, field: FieldConfig) -> str:
    """The key that set field's carrier: a field.modulation_freq off the
    field's resonance, the field itself, or noise-scan's second field."""
    if field != cfg.field:
        return "noisescan.second_b_field"
    on_resonance = (field.modulation_freq
                    == larmor_doubled_freq(field.b_field, cfg.atom))
    return "field.b_field" if on_resonance else "field.modulation_freq"


def _require_resolved(key: str, top: float, spacing: float, what: str,
                      rule: str = "") -> None:
    """float64 must resolve the spacing a mode reads at top Hz, the top of
    its band, before any envelope is built; key set the carrier, and rule,
    if given, says which keys set the spacing."""
    if math.ulp(top) >= spacing:
        widen = f", or widen the {what}, {rule}" if rule else ""
        raise ConfigError(f"{key}: float64 values near {top!r} Hz lie "
                          f"{math.ulp(top)!r} Hz apart, not finer than the "
                          f"{spacing!r} Hz {what}; lower {key}{widen}")


def _bg_band(cfg: ExperimentConfig, field: FieldConfig) -> tuple:
    """The background window around the modulation frequency, above 0 Hz."""
    half, mod = cfg.spectrum.bg_window / 2.0, field.modulation_freq
    if mod - half <= 0.0:
        raise ConfigError(f"spectrum.bg_window: {2.0 * half!r} Hz around "
                          f"{mod!r} Hz reaches 0 Hz; narrow it or raise "
                          f"{_carrier_key(cfg, field)}")
    return (mod - half, mod + half)


# ---------------------------------------------------------------------------
# Output layouts: the columns and header keys of each file a mode writes
# ---------------------------------------------------------------------------

def rotation_to_csv(ts: RotationTimeSeries, path) -> None:
    """Write a series with header rows carrying its metadata."""
    write_table(path, ["sample_rad"], [ts.samples], {
        "sample_rate_hz": ts.sample_rate,
        "mean_optical_power_w": ts.mean_optical_power,
        "photon_flux_per_s": ts.photon_flux,
        "modulation_freq_hz": ts.modulation_freq,
        "seed": ts.rng_seed,
    })


def detected_to_csv(ts: DetectedTimeSeries, path) -> None:
    """Write a real detected series with header rows carrying its metadata."""
    if ts.center_freq is not None:
        raise ValueError("detected_to_csv writes real series only, "
                         f"not an envelope around {ts.center_freq!r} Hz")
    write_table(path, ["sample_sqrtw"], [ts.samples], {
        "sample_rate_hz": ts.sample_rate,
        "gain_used_v_per_a": ts.gain_used,
        "mean_power_w": ts.mean_power,
        "angle_gain_sqrtw_per_rad": ts.angle_gain,
        "seed": ts.rng_seed,
    })


def spectrum_to_csv(spec: PowerSpectrum, path, seed=None) -> None:
    write_table(path, ["freq_hz", "psd_w_per_hz"], [spec.freqs, spec.psd], {
        "rbw_hz": spec.rbw, "vbw_hz": spec.vbw, "enbw_hz": spec.enbw,
        "seed": seed,
    })


def resonance_curve_to_csv(curve: ResonanceCurve, path, seed=None) -> None:
    write_table(
        path, ["mod_freq_hz", "phi_p_rad", "phi_q_rad"],
        [curve.mod_freqs, curve.phi_P_values, curve.phi_Q_values],
        {"bracketed": curve.bracketed, "seed": seed},
    )


def snl_map_to_csv(grid: Sequence[tuple[float, list[SnlRange]]], path,
                   seed=None) -> None:
    """One row per (frequency, k) cell of an snl_map grid."""
    cells = [(freq, w.k, w.p_low, w.p_high, w.nonempty)
             for freq, windows in grid for w in windows]
    write_table(path, ["freq_hz", "k", "p_low_w", "p_high_w", "nonempty"],
                list(zip(*cells)), {"seed": seed})


def make_sensitivity_report(best: dict, delta_b_atomic: float,
                            detection_freq: float) -> dict:
    """The report of a sensitivity sweep: its best row's gamma, SNR, delta_B,
    power and SNL class beside the projection-noise floor delta_b_atomic.
    It recomputes nothing.

    The SNR is derived (from spectra, never measured directly) and quoted
    per sqrt(Hz) of detection bandwidth.
    """
    positive = {"snr": best["snr"], "delta_B": best["delta_b_t_per_sqrt_hz"],
                "delta_B_atomic": delta_b_atomic}
    bad = {name: value for name, value in positive.items() if not value > 0}
    if bad:
        raise ValueError(f"report values must be > 0, got {bad!r}")
    return {
        "gamma_fwhm_hz": best["gamma_fwhm_hz"],
        "snr": best["snr"],
        "snr_provenance": "derived",
        "snr_convention": "per-sqrt-hz",
        "delta_b_t_per_sqrt_hz": best["delta_b_t_per_sqrt_hz"],
        "delta_b_atomic_t_per_sqrt_hz": delta_b_atomic,
        "operating_power_w": best["power_w"],
        "detection_freq_hz": detection_freq,
        "snl_class": best["snl_class"],
    }


def fit_report(fit) -> dict:
    """A fit result as a JSON-ready document."""
    if isinstance(fit, LorentzianFit):
        return {
            "kind": "lorentzian",
            "params": fit.params(),
            "errors": {
                "center_freq": fit.center_freq_err,
                "gamma_fwhm": fit.gamma_fwhm_err,
                "phi0": fit.phi0_err,
            },
            "residual_rms": fit.residual_rms,
            "n_points": fit.n_points,
            "converged": fit.converged,
            "extrapolated": fit.extrapolated,
        }
    if isinstance(fit, NoiseBudget):
        terms = ("coef_elec", "coef_shot", "coef_tech")
        return {
            "kind": "noise_polynomial",
            "params": {term: getattr(fit, term) for term in terms},
            "errors": dict(zip(terms, fit.coef_errs)),
            "residual_rel_rms": fit.residual_rel_rms,
            "n_points": fit.n_points,
            "fixed_elec": fit.fixed_elec,
        }
    raise TypeError(f"unsupported fit object {type(fit).__name__}")


# ---------------------------------------------------------------------------
# Mode handlers: each returns its (file name, writer) pairs, in write order
# ---------------------------------------------------------------------------

def _run_simulate(cfg: ExperimentConfig, spec: ScenarioSpec) -> list:
    mod = cfg.field.modulation_freq  # only simulate samples at the rate
    _require(cfg.sim.sample_rate > 4.0 * mod, "sim.sample_rate",
             cfg.sim.sample_rate,
             f"must exceed 4x the modulation frequency ({mod!r} Hz)")
    _, rate, n = _series_grid(cfg, None)
    _require(n >= 2, "sim.duration", cfg.sim.duration, f"must hold 2 "
             f"samples at sim.sample_rate = {rate!r} Hz, not {n!r}")
    _allocate("sim.duration", f"{n!r} samples at sim.sample_rate = {rate!r} "
              "Hz", np.empty, n)  # before the series: numpy's limit, named
    power = cfg.sim.probe_power
    with np.errstate(over="ignore", invalid="ignore"):
        chain = chain_at(cfg, power)
    _require(all(v < math.inf for v in chain), "sim.probe_power",
             power, "the chain's angle gain g(P) and noise N(P) = A + B*P + "
             "C*P^2 at this power must be finite")
    res = _resonance(cfg, power)
    _require_quadratures(cfg, res)
    flux = photon_flux(power, cfg.atom.probe_wavelength)
    _require(flux == 0.0 or shot_noise_angle_density(flux)
             * cfg.sim.sample_rate / 2.0 < math.inf, "sim.probe_power", power,
             "the shot noise's per-sample variance at this power, 1/(2 Phi) "
             "* sim.sample_rate / 2, must be finite")
    ts = synthesize_rotation(res, mod, cfg.sim.duration,
                             cfg.sim.sample_rate, power, (spec.seed, 0),
                             wavelength=cfg.atom.probe_wavelength)
    det_ts = detect(ts, cfg.detector, rng_seed=(spec.seed, 1))
    return [("rotation.csv", partial(rotation_to_csv, ts)),
            ("detected.csv", partial(detected_to_csv, det_ts))]


def _demod_rows(cfg: ExperimentConfig, res: ResonanceParams,
                freqs: np.ndarray, seed: int) -> DetectedTimeSeries:
    """The stack of detector rows modulated at the carriers freqs, in grid
    order, on stream (seed, 0): each row the envelope of the lock-in's band
    around its carrier; the lock-in refers it back to radians."""
    half = _LOCKIN_HALFBAND * cfg.lockin.output_bandwidth
    carriers, power = freqs.tolist(), cfg.sim.probe_power
    return _detected_stack(cfg, [(f - half, f + half) for f in carriers],
                           [(res, power, f) for f in carriers], (seed,),
                           "sweep.freq_points")


def _demod_grid(cfg: ExperimentConfig) -> tuple[ResonanceParams, np.ndarray]:
    """The resonance demod-sweep measures, at sim.probe_power, and its
    carrier grid, above 0 Hz."""
    points, res = cfg.sweep.freq_points, _resonance(cfg, cfg.sim.probe_power)
    _require(points >= 7, "sweep.freq_points", points,
             "must be >= 7 for the Lorentzian fit")
    center = res.center_freq
    halfspan = cfg.sweep.freq_halfspan_widths * res.gamma_fwhm
    # the field leaves the lock-in's bandwidth resolved: the width is at fault
    _require(not halfspan < math.ulp(center) < cfg.lockin.output_bandwidth,
             "resonance.gamma_fwhm", res.gamma_fwhm, "the grid's "
             f"half-span, sweep.freq_halfspan_widths x gamma = {halfspan!r} "
             f"Hz, must exceed float64's spacing at the carrier {center!r} Hz")
    if center - halfspan <= 0.0:
        raise ConfigError(
            f"sweep.freq_halfspan_widths: the grid {center!r} +- {halfspan!r} "
            "Hz reaches 0 Hz; narrow the sweep or raise field.b_field")
    _require_lockin_fits(cfg, center - halfspan)
    freqs = _allocate("sweep.freq_points", f"{points!r} carriers", np.linspace,
                      center - halfspan, center + halfspan, points)
    _require_resolved("field.b_field", center + halfspan,
                      2.0 * halfspan / (points - 1), "carrier grid step",
                      "2 x sweep.freq_halfspan_widths x resonance.gamma_fwhm"
                      " / (sweep.freq_points - 1)")
    return res, freqs


def _run_demod_sweep(cfg: ExperimentConfig, spec: ScenarioSpec) -> list:
    res, freqs = _demod_grid(cfg)
    _require_tone(cfg, "sim.probe_power", res.phi0, "resonance.phi0")
    power = cfg.sim.probe_power
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        gain, density = chain_at(cfg, power)
        angle_noise = density / (gain * gain)
    if not (gain < math.inf and angle_noise < math.inf):
        raise ConfigError(
            f"sim.probe_power: the lock-in divides each row by the angle "
            f"gain g = {gain!r} at {power!r} W; g and the noise in radians, "
            f"N(P)/g^2 = {float(angle_noise)!r}, must be finite. g is set "
            "by " + _listed("sim.probe_power", *_GAIN_KEYS))
    # the stack dies with the sweep, before the fit and the writes, which
    # set the run's peak memory
    curve = sweep_resonance(res, freqs,
                            _demod_rows(cfg, res, freqs, spec.seed),
                            cfg.lockin.output_bandwidth)
    try:
        fit = fit_lorentzian(curve)
    except FitError as exc:
        # a tone no larger than the angle noise in the lock-in's output
        # bandwidth: the fit read noise, which a wider sweep reads too
        with np.errstate(over="ignore", divide="ignore"):
            ratio = float(res.phi0 / np.sqrt(
                angle_noise * cfg.lockin.output_bandwidth))
        if not ratio <= 1.0:
            raise
        raise FitError(
            "resonance.phi0: the Lorentzian fit read noise, not the "
            "resonance: the tone-to-noise ratio on the grid, phi0 / "
            "sqrt(N(P)/g(P)^2 * lockin.output_bandwidth) = "
            f"{ratio!r} at {power!r} W, is at most 1. "
            "It is set by " + _listed("resonance.phi0", "sim.probe_power",
                                      *_NOISE_KEYS)) from exc
    return [("resonance_curve.csv",
             partial(resonance_curve_to_csv, curve, seed=spec.seed)),
            ("resonance_fit.json", partial(write_json, doc=fit_report(fit))),
            ("fig2_resonance.dat", partial(
                write_table, columns=["mod_freq_hz", "phi_p_rad", "phi_q_rad"],
                data=[curve.mod_freqs, curve.phi_P_values,
                      curve.phi_Q_values], meta={"seed": spec.seed}))]


def _run_spectrum(cfg: ExperimentConfig, spec: ScenarioSpec) -> list:
    mod, sp = cfg.field.modulation_freq, cfg.spectrum
    _bg_band(cfg, cfg.field)  # the window peak_and_background averages
    span = (max(mod - sp.span / 2.0, 0.0), mod + sp.span / 2.0)
    power = cfg.sim.probe_power
    res = _resonance(cfg, power)
    _require_quadratures(cfg, res)
    _require_analyzer_fits(cfg, cfg.field, span, "sim.probe_power", res,
                           "spectrum.span")
    _require_background(cfg, "sim.probe_power")
    _require_tone(cfg, "sim.probe_power", res.phi0, "resonance.phi0")
    traces, peaks, backgrounds = _analyzer(
        cfg, span, [(res, power, mod), (None, power, mod)], (spec.seed,),
        span=span)
    spec_on, spec_off = traces.rows()
    s_sig, s_bg = peaks[0], backgrounds[1]
    snr = compute_snr(s_sig, s_bg, spec_on.enbw)
    doc = {"seed": spec.seed, "modulation_freq_hz": mod,
           "s_sig_w_per_hz": s_sig, "s_bg_w_per_hz": s_bg,
           "rbw_hz": spec_on.rbw, "vbw_hz": spec_on.vbw,
           "enbw_hz": spec_on.enbw, "snr": snr,
           "snr_provenance": "derived", "snr_convention": "per-sqrt-hz"}
    return [("spectrum_on.csv",
             partial(spectrum_to_csv, spec_on, seed=spec.seed)),
            ("spectrum_off.csv",
             partial(spectrum_to_csv, spec_off, seed=spec.seed)),
            ("snr.json", partial(write_json, doc=doc)),
            ("fig3_spectrum.dat", partial(
                write_table, columns=["freq_hz", "psd_w_per_hz"],
                data=[spec_on.freqs, spec_on.psd], meta={"seed": spec.seed}))]


def _noise_scan_at_field(cfg: ExperimentConfig, spec: ScenarioSpec,
                         field: FieldConfig, scan_index: int, powers: list):
    """The noise levels at the powers (led by the dark point at 0 W, if
    noisescan.include_zero adds it) at one detection frequency, on stream
    (seed, scan_index, 0), and their budget fit. One stacked estimate
    gives the levels, each row's background read over spectrum.bg_window
    around the carrier."""
    mod = field.modulation_freq
    _, _, levels = _analyzer(cfg, _bg_band(cfg, field),
                             [(None, power, mod) for power in powers],
                             (spec.seed, scan_index), "sweep.power_points")
    # a dark trace (0 W; sweep.power_min is > 0) fixes the electronic term
    fixed = levels[0] if powers[0] == 0.0 else None
    return levels, fit_noise_polynomial(powers, levels, fixed_elec=fixed)


def _run_noise_scan(cfg: ExperimentConfig, spec: ScenarioSpec) -> list:
    points, dark = cfg.sweep.power_points, cfg.noisescan.include_zero
    _require(points + dark >= 4, "sweep.power_points", points,
             f"must be >= {4 - dark} with noisescan.include_zero = "
             f"{str(dark).lower()}: the 3-term noise fit needs 4 points")
    scans = [("noise_scan", "fig4a_noise.dat", cfg.field)]
    if cfg.noisescan.second_b_field is not None:
        field2 = FieldConfig(
            b_field=cfg.noisescan.second_b_field).resolve(cfg.atom)
        scans.append(("noise_scan_high", "fig4b_noise.dat", field2))
    for _, _, field in scans:
        _require_analyzer_fits(cfg, field, _bg_band(cfg, field),
                               "sweep.power_max", None)
    powers = [0.0] * dark + list(_power_grid(cfg))
    if dark:
        _require_background(cfg, "noisescan.include_zero", 0.0)
    else:
        _require_background(cfg, "sweep.power_min")
    # the fit weighs each level by 1/N, so its normal matrix sums the
    # squared weighted columns 1/N, P/N and P^2/N over the points, largest
    # at the grid's ends (an infinite one stalls its SVD)
    for key in ("sweep.power_min", "sweep.power_max"):
        power = _setting(cfg, key)
        with np.errstate(over="ignore", invalid="ignore"):
            entry = max(1.0, power * power) / float(chain_at(cfg, power)[1])
        _require((points + dark) * entry * entry < math.inf, key, power,
                 "the noise fit's normal matrix, the point count times "
                 "(max(1, P^2)/N(P))^2 at this power, must be finite")
    outputs = []
    for scan, (stem, fig_name, field) in enumerate(scans):
        levels, fit = _noise_scan_at_field(cfg, spec, field, scan, powers)
        mod = field.modulation_freq
        doc = {**fit_report(fit), "seed": spec.seed, "detection_freq_hz": mod,
               "coef_shot_theory": theory_budget(cfg).coef_shot}
        outputs += [
            (f"{stem}.csv", partial(
                write_table, columns=["power_w", "noise_w_per_hz"],
                data=[powers, levels],
                meta={"seed": spec.seed, "detection_freq_hz": mod})),
            (f"{stem}_budget.json", partial(write_json, doc=doc)),
            (fig_name, partial(
                write_table,
                columns=["power_w", "noise_w_per_hz", "model_w_per_hz"],
                data=[powers, levels, fit.eval(powers)],
                meta={"seed": spec.seed}))]
    return outputs


def _snl_map_rows(cfg: ExperimentConfig, gain_nominal: float) -> list:
    """The snl_map grid of the theory budget at one gain, one row per
    frequency bin."""
    sm = cfg.snlmap
    freqs = _allocate("snlmap.freq_bins", f"{sm.freq_bins!r} bins",
                      np.linspace, sm.freq_min, sm.freq_max, sm.freq_bins)
    return snl_map([theory_budget(cfg, gain_nominal, freq)
                    for freq in freqs.tolist()], sm.k_list())


def _run_snl_map(cfg: ExperimentConfig, spec: ScenarioSpec) -> list:
    maps = [("snl_map", "fig6_snl.dat",
             cfg.detector.transimpedance_gain_nominal),
            ("snl_map_alt_gain", "fig7_snl.dat",
             cfg.snlmap.second_gain_nominal)]
    outputs = []
    for stem, fig_name, gain_nominal in maps:
        grid = _snl_map_rows(cfg, gain_nominal)
        freqs, rows = zip(*grid)
        columns, data = ["freq_hz"], [list(freqs)]
        for windows in zip(*rows):  # one margin, in frequency order
            k = windows[0].k
            columns += [f"p_low_k{k:g}_w", f"p_high_k{k:g}_w"]
            data += [[w.p_low for w in windows], [w.p_high for w in windows]]
        outputs += [
            (f"{stem}.csv", partial(snl_map_to_csv, grid, seed=spec.seed)),
            (fig_name, partial(write_table, columns=columns, data=data,
                               meta={"seed": spec.seed}))]
    return outputs


def _sweep_point_sensitivity(args):
    """(cfg, seed, power index, power) -> one sensitivity-sweep row, its
    traces on stream (seed, power index, 0)."""
    cfg, spec_seed, index, power = args
    res = _resonance(cfg, power)
    mod, traces = cfg.field.modulation_freq, cfg.sweep.trace_avg
    rows = _allocate("sweep.trace_avg", f"{2 * traces!r} rows", list.__mul__,
                     [(res, power, mod), (None, power, mod)], traces)
    spectra, peaks, backgrounds = _analyzer(
        cfg, _bg_band(cfg, cfg.field), rows, (spec_seed, index),
        "sweep.trace_avg")
    # the rows alternate on, off: the on rows' peaks, the off rows' levels
    s_sig, s_bg = sum(peaks[::2]) / traces, sum(backgrounds[1::2]) / traces
    snr = compute_snr(s_sig, s_bg, spectra.enbw)
    delta_b = sensitivity(res.gamma_fwhm, snr, cfg.atom.g_f)
    return {
        "power_w": power, "phi0_rad": res.phi0,
        "gamma_fwhm_hz": res.gamma_fwhm,
        "s_sig_w_per_hz": s_sig, "s_bg_w_per_hz": s_bg, "snr": snr,
        "delta_b_t_per_sqrt_hz": delta_b,
    }


def _sweep_rows(cfg: ExperimentConfig, seed: int, chunk: list) -> list[dict]:
    """The rows of a chunk of (index, power) points, one ``_pmap`` chunk."""
    return [_sweep_point_sensitivity((cfg, seed, *point)) for point in chunk]


def _run_sensitivity_sweep(cfg: ExperimentConfig,
                           spec: ScenarioSpec) -> list:
    powers = _power_grid(cfg)
    sw = cfg.sweep
    low, top = (_resonance(cfg, p) for p in (sw.power_min, sw.power_max))
    _require(top.phi0 < 1.0, "sweep.power_max", sw.power_max, "phi0(P) = "
             "resonance.phi0 * s(P)/s(P0), s set by saturation.p_sat and "
             f"sim.probe_power, is {top.phi0!r} rad at this power and must "
             "be < 1 rad (small-angle rotation)")
    for key, res in (("sweep.power_min", low), ("sweep.power_max", top)):
        _require_quadratures(cfg, res, key, " at this power's width gamma(P),"
                             " set by resonance.gamma_fwhm, saturation.p_broad"
                             " and sim.probe_power")
    _require_analyzer_fits(cfg, cfg.field, _bg_band(cfg, cfg.field),
                           "sweep.power_max", top)
    _require_background(cfg, "sweep.power_min")
    _require_tone(cfg, "sweep.power_min", low.phi0, "resonance.phi0",
                  "saturation.p_sat", "sim.probe_power")
    floor = projection_noise(cfg.atom, 1.0)  # at 1 s: a density, T/sqrt(Hz)
    _require(0.0 < floor < math.inf, "atom.relaxation_gamma", floor,
             "the projection-noise floor in T/sqrt(Hz) must be finite and "
             "> 0. It is set by " + _listed(
                 "atom.relaxation_gamma", "atom.g_f", "atom.density_n",
                 "atom.cell_radius"))
    mod = cfg.field.modulation_freq
    budget = theory_budget(cfg, detection_freq=mod)
    rows = _pmap(partial(_sweep_rows, cfg, spec.seed),
                 list(enumerate(powers.tolist())), spec.workers)
    for row in rows:
        row["snl_class"] = classify_operating_point(
            budget, row["power_w"], cfg.analysis.snl_k
        )

    columns = ["power_w", "phi0_rad", "gamma_fwhm_hz", "s_sig_w_per_hz",
               "s_bg_w_per_hz", "snr", "delta_b_t_per_sqrt_hz", "snl_class"]
    table = {c: [row[c] for row in rows] for c in columns}
    best = min(rows, key=lambda r: r["delta_b_t_per_sqrt_hz"])
    report = {**make_sensitivity_report(best, floor, mod), "seed": spec.seed}
    fig_columns = ["power_w", "delta_b_t_per_sqrt_hz"]
    return [("sensitivity_sweep.csv", partial(
                write_table, columns=columns, data=[table[c] for c in columns],
                meta={"seed": spec.seed, "detection_freq_hz": mod})),
            ("sensitivity_report.json", partial(write_json, doc=report)),
            ("fig8_sensitivity.dat", partial(
                write_table, columns=fig_columns,
                data=[table[c] for c in fig_columns],
                meta={"seed": spec.seed}))]


# each mode's handler and its --help line, in the order --help lists them
_HANDLERS = {
    "simulate": (_run_simulate,
                 "synthesize one rotation + detected time series"),
    "demod-sweep": (_run_demod_sweep, "lock-in quadratures across a "
                    "modulation-frequency grid"),
    "spectrum": (_run_spectrum,
                 "analyzer traces on/off resonance and the derived SNR"),
    "noise-scan": (_run_noise_scan,
                   "background level vs optical power with a budget fit"),
    "snl-map": (_run_snl_map,
                "shot-noise-limited power windows vs detection frequency"),
    "sensitivity-sweep": (_run_sensitivity_sweep,
                          "field sensitivity vs optical power"),
}
MODES = tuple(_HANDLERS)


def emit_plotdata(outdir: str | os.PathLike) -> list[str]:
    """List the figure-analog plot-data files present in an output directory.

    Raises FileNotFoundError when the directory holds none (the scenario
    that produces them has not run).
    """
    outdir = Path(outdir)
    present = sorted(p.name for p in outdir.glob("fig*.dat"))
    if not present:
        raise FileNotFoundError(f"no plot-data files in {outdir}")
    return present


def run_scenario(spec: ScenarioSpec) -> int:
    """Run one batch mode's handler, then write each output it returned,
    writer(output_dir / name), and manifest.json; returns 0."""
    started = time.monotonic()
    cfg = _load_config(spec)
    outdir = Path(spec.output_dir)
    outputs = _HANDLERS[spec.mode][0](cfg, spec)
    for name, write in outputs:
        write(outdir / name)
    manifest = {
        "mode": spec.mode,
        "seed": spec.seed,
        "workers": spec.workers,
        "config_path": spec.config_path,
        "config": config_as_dict(cfg),
        "versions": {"python": sys.version.split()[0],
                     "numpy": np.__version__, "amorsim": __version__},
        "wall_time_s": time.monotonic() - started,
        "outputs": [name for name, _ in outputs],
    }
    write_json(outdir / "manifest.json", manifest)
    return 0


# ---------------------------------------------------------------------------
# argparse front-end
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amorsim",
        description="Simulate and analyze an optically-modulated "
                    "magnetometer signal chain.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, (_, help_line) in _HANDLERS.items():
        p = sub.add_parser(mode, help=help_line)
        p.add_argument("--config", default=None,
                       help="config file (key = value [unit] lines)")
        p.add_argument("--out", default="amorsim-out",
                       help="output directory (created if missing)")
        p.add_argument("--seed", type=int, default=0,
                       help="base seed for all random streams")
        p.add_argument("--workers", type=int, default=1,
                       help="process pool size for sweep points")
    return parser


def _fail(code: int, exc: BaseException) -> int:
    sys.stderr.write(json.dumps({
        "error": type(exc).__name__,
        "message": str(exc),
        "exit_code": code,
    }) + "\n")
    return code


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = ScenarioSpec(
            mode=args.mode, config_path=args.config, output_dir=args.out,
            seed=args.seed, workers=args.workers,
        )
        return run_scenario(spec)
    except MemoryError as exc:  # sim.duration sets every series' length
        return _fail(2, ConfigError(f"sim.duration: a series this long does "
                                    f"not fit in memory ({exc})"))
    except (FitError, np.linalg.LinAlgError, ArithmeticError) as exc:
        return _fail(3, exc)  # before ValueError: LinAlgError is one
    except OSError as exc:
        return _fail(4, exc)
    except ValueError as exc:  # ConfigError among them
        return _fail(2, exc)


if __name__ == "__main__":
    sys.exit(main())
