"""Balanced polarimeter and detection electronics model.

The polarimeter output is linear in the rotation angle: a single scalar
``angle_gain`` maps radians to RF amplitude at the analyzer input, in units
where amplitude squared is power (the input impedance R is absorbed into the
gain). A tone of angle amplitude phi0 therefore shows a peak PSD of
angle_gain^2 * phi0^2 / (2*RBW) on the analyzer.

Analyzer background convention: the stochastic part of the rotation input
represents the angle noise of a demodulated quadrature measurement (PSD
S_phi). An RF spectrum records both quadratures, and the displayed white
background density is half the quadrature density:

    S_bg = angle_gain^2 * S_phi / 2 = angle_gain^2 / (4 * Phi_ph)

``detect`` implements this by splitting the stochastic rotation power across
both RF quadratures (amplitude factor 1/sqrt(2)) while passing the coherent
part at full gain. Demodulating the detected series recovers quadrature
noise of density S_phi again, so the SNR chain

    SNR^2 = RBW * S_sig / S_bg = phi0^2 / S_phi

holds with no gain or bandwidth dependence.

``detect`` takes the shot noise from the rotation series and injects
electronic noise (white, PSD = A) and technical noise (white, PSD = C*P^2)
at the output node as one white draw of PSD A + C*P^2. simulate detects
this way, so that its rotation and detected files share one shot draw;
``cli.detected_to_csv`` writes the detected one.

The analyzer rows of the other modes (``cli._detected_stack``), those
demod-sweep's lock-in reads included, draw all three terms at once. They
are white and independent, and the shot term angle_gain^2 * S_phi / 2
equals B*P of ``theory_budget``, so a row is its coherent part at the
chain's angle gain plus one white draw of PSD ``theory_budget(cfg).eval(P)``
= A + B*P + C*P^2. On a detected envelope (``center_freq`` set) a draw is
circular complex with variance PSD * fs / 4 per component, the same
one-sided level once the analyzer displays it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import numpy.random  # noqa: F401 numpy 2 loads it lazily; load it here, not mid-run

from .config import DetectorConfig, ExperimentConfig
from .constants import CODATA
from .signal_model import RotationTimeSeries, Seed, photon_flux, white_noise

__all__ = [
    "NoiseBudget",
    "DetectedTimeSeries",
    "photocurrent",
    "photocurrent_from_flux",
    "theoretical_shot_noise_level",
    "theory_budget",
    "angle_gain_from_chain",
    "chain_at",
    "detect",
]


@dataclass
class NoiseBudget:
    """Quadratic noise-vs-power law N(P) = A + B*P + C*P^2 at one frequency.

    coef_elec (A): electronic noise, W/Hz. coef_shot (B): photon shot noise,
    W/(Hz*W). coef_tech (C): technical noise, W/(Hz*W^2). A budget fitted
    by ``fitting.fit_noise_polynomial`` also carries the fit diagnostics:
    1-sigma coefficient errors (A, B, C), the relative RMS residual, the
    number of points and the pinned constant term, if any.
    """

    coef_elec: float
    coef_shot: float
    coef_tech: float
    detection_freq: float = 0.0  # Hz
    coef_errs: tuple[float, float, float] = (0.0, 0.0, 0.0)
    residual_rel_rms: float = 0.0
    n_points: int = 0
    fixed_elec: Optional[float] = None

    def validate(self) -> "NoiseBudget":
        for name in ("coef_elec", "coef_shot", "coef_tech"):
            value = getattr(self, name)
            if value < 0 or not math.isfinite(value):
                raise ValueError(f"{name} must be >= 0 and finite, got {value!r}")
        return self

    def eval(self, power):
        """N(P) for a power or an array of powers, all >= 0."""
        # [()]: one power's arithmetic in fast numpy scalars, where p * p
        # equals an array's p ** 2 (a scalar's ** calls pow)
        p = np.asarray(power, dtype=float)[()]
        if (p < 0).any():
            raise ValueError(f"power must be >= 0, got {power!r}")
        return self.coef_elec + self.coef_shot * p + self.coef_tech * (p * p)


@dataclass
class DetectedTimeSeries:
    """Polarimeter output referred to the analyzer input.

    ``samples`` are RF amplitudes in sqrt(W) units (sample^2 has power
    units; the analyzer impedance is absorbed into ``angle_gain``).
    ``gain_used`` records the effective transimpedance gain of the chain,
    ``angle_gain`` the rad -> amplitude scalar actually applied.

    ``samples`` may also be a (rows, n) stack of series on one
    ``sample_rate`` and ``center_freq``, as ``dsp.psd_estimate`` reads it.
    ``rng_seed`` and the other scalar fields are then not per row: they
    describe row 0 (its stream, ``mean_power`` and ``angle_gain`` at its
    power). An envelope
    stack's ``center_freq`` may instead list one centre per row, as
    demod-sweep's stack does for ``dsp.lock_in_demodulate``;
    ``psd_estimate`` refuses such a stack.
    """

    samples: np.ndarray
    sample_rate: float           # Hz
    gain_used: float             # V/A, effective transimpedance gain
    mean_power: float            # W, mean optical power on the detector
    angle_gain: float            # amplitude per rad
    rng_seed: Optional[Seed] = None
    center_freq: Optional[float] = None  # Hz, envelope centre(s); None = real

    def __post_init__(self) -> None:
        self.samples = np.asarray(
            self.samples, dtype=float if self.center_freq is None else complex)
        if not self.sample_rate > 0:
            raise ValueError(f"sample_rate must be > 0, got {self.sample_rate!r}")


def photocurrent(power: float, det: DetectorConfig, wavelength: float) -> float:
    """Mean DC photocurrent for optical power P: eta * P * e / (h nu)."""
    if power < 0:
        raise ValueError(f"power must be >= 0, got {power!r}")
    nu = CODATA.speed_of_light / wavelength
    return power * CODATA.electron_charge / (CODATA.planck_h * nu) \
        * det.quantum_efficiency


def photocurrent_from_flux(flux: float, det: DetectorConfig) -> float:
    """Photocurrent from photon flux: e * eta * Phi."""
    if flux < 0:
        raise ValueError(f"photon flux must be >= 0, got {flux!r}")
    return CODATA.electron_charge * flux * det.quantum_efficiency


def theoretical_shot_noise_level(power: float, det: DetectorConfig,
                                 wavelength: float) -> float:
    """Shot-noise PSD at the analyzer: G_eff^2 * 2 * i * e / R, in W/Hz.

    Gain frequency dependence is neglected (flat well below the detector
    bandwidth).
    """
    current = photocurrent(power, det, wavelength)
    g_eff = det.gain_effective
    return (g_eff ** 2) * 2.0 * current * CODATA.electron_charge \
        / det.analyzer_impedance


def theory_budget(cfg: ExperimentConfig, gain_nominal: Optional[float] = None,
                  detection_freq: Optional[float] = None) -> NoiseBudget:
    """The configured A + B*P + C*P^2 at one transimpedance gain (default:
    the configured one). At a detection frequency f, A = floor * (1 +
    (knee/f)^2), or the flat floor with no f or a zero floor. B and C scale
    as the gain squared; Python floats, so an overflow raises OverflowError."""
    base = cfg.detector
    det = base if gain_nominal is None else replace(
        base, transimpedance_gain_nominal=gain_nominal)
    ratio = det.gain_effective / base.gain_effective
    shot = theoretical_shot_noise_level(1.0, det, cfg.atom.probe_wavelength)
    floor, knee, f = (base.electronic_noise_floor, base.electronic_knee_freq,
                      detection_freq)
    elec = floor if f is None or not floor else floor * (1.0 + (knee / f) ** 2)
    return NoiseBudget(elec, shot, base.technical_noise_coef * ratio ** 2,
                       0.0 if f is None else f)


def angle_gain_from_chain(det: DetectorConfig, flux: float) -> float:
    """Angle-to-amplitude gain implied by the electronics chain.

    g = 2 * G_eff * i * sqrt(2 / (eta * R)): the factor 2*G_eff*i is the
    small-angle differential transimpedance response, 1/sqrt(R) refers
    volts to sqrt(W) at the analyzer input, and sqrt(2/eta) makes the
    displayed shot background (angle_gain^2 / (4*Phi), see module docstring)
    coincide with the current-noise form G_eff^2 * 2*i*e/R.
    """
    current = photocurrent_from_flux(flux, det)
    return 2.0 * det.gain_effective * current * math.sqrt(
        2.0 / (det.quantum_efficiency * det.analyzer_impedance))


def chain_at(cfg: ExperimentConfig, power: float) -> tuple:
    """(g, N) at an optical power P: the chain's angle gain g(P) and the
    analyzer rows' noise N(P) = A + B*P + C*P^2 of ``theory_budget(cfg)``,
    a numpy float. A rule that reads a power past overflow calls it under
    ``np.errstate``, so N reads inf (or NaN) without a warning."""
    gain = angle_gain_from_chain(cfg.detector,
                                 photon_flux(power, cfg.atom.probe_wavelength))
    return gain, theory_budget(cfg).eval(power)


def detect(rotation: RotationTimeSeries, det: DetectorConfig, *,
           angle_gain: Optional[float] = None,
           rng_seed: Optional[Seed] = None) -> DetectedTimeSeries:
    """Map a rotation series to the analyzer-referred RF series.

    output = g * (coherent + stochastic/sqrt(2)) + n_elec + n_tech

    where ``coherent`` and ``stochastic`` are the deterministic and noise
    parts of the rotation input (see the analyzer background convention in
    the module docstring; series loaded without a separate noise component
    are treated as fully coherent). ``det.electronic_noise_floor`` is the
    electronic-noise PSD A in W/Hz; ``det.technical_noise_coef`` the
    technical coefficient C in W/(Hz*W^2), entering as white noise of PSD
    C*P^2. Shot noise is never added here - it arrives via the rotation
    series. ``angle_gain`` defaults to the chain value for the series'
    photon flux.
    """
    coef_elec, coef_tech = det.electronic_noise_floor, det.technical_noise_coef
    if coef_elec < 0:
        raise ValueError(f"electronic_noise_floor must be >= 0, got {coef_elec!r}")
    if coef_tech < 0:
        raise ValueError(f"technical_noise_coef must be >= 0, got {coef_tech!r}")
    if angle_gain is None:
        angle_gain = angle_gain_from_chain(det, rotation.photon_flux)

    samples, noise = rotation.samples, rotation.noise_samples
    if samples is noise:  # no coherent part
        signal = noise * (angle_gain / math.sqrt(2.0))
    else:  # g * ((samples - noise) + noise/sqrt(2))
        signal = samples - noise
        signal += noise / math.sqrt(2.0)
        signal *= angle_gain

    fs = rotation.sample_rate
    n = rotation.samples.size
    power = rotation.mean_optical_power
    # Electronic and technical noise are independent white Gaussians, so
    # their sum is one white Gaussian of PSD A + C*P^2: a single draw.
    output_psd = coef_elec + coef_tech * power ** 2
    if output_psd > 0.0:
        signal += white_noise(np.random.default_rng(rng_seed), output_psd, fs,
                              n, False)

    return DetectedTimeSeries(
        samples=signal,
        sample_rate=fs,
        gain_used=det.gain_effective,
        mean_power=power,
        angle_gain=angle_gain,
        rng_seed=rng_seed,
    )
