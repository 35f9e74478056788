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

Shot noise enters only through the rotation series (never added here);
electronic noise (white, PSD = A) and technical noise (white, PSD = C*P^2)
are injected at the output node as one white draw of PSD A + C*P^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import DetectorConfig
from .constants import CODATA, PhysicalConstants
from .signal_model import RotationTimeSeries, Seed

__all__ = [
    "NoiseBudget",
    "DetectedTimeSeries",
    "photocurrent",
    "photocurrent_from_flux",
    "theoretical_shot_noise_level",
    "angle_gain_from_chain",
    "detect",
    "detected_to_csv",
]


@dataclass
class NoiseBudget:
    """Quadratic noise-vs-power law N(P) = A + B*P + C*P^2 at one frequency.

    coef_elec (A): electronic noise, W/Hz. coef_shot (B): photon shot noise,
    W/(Hz*W). coef_tech (C): technical noise, W/(Hz*W^2).
    """

    coef_elec: float
    coef_shot: float
    coef_tech: float
    detection_freq: float = 0.0  # Hz

    def validate(self) -> "NoiseBudget":
        for name in ("coef_elec", "coef_shot", "coef_tech"):
            value = getattr(self, name)
            if value < 0 or not math.isfinite(value):
                raise ValueError(f"{name} must be >= 0 and finite, got {value!r}")
        return self

    def eval(self, power: float) -> float:
        if power < 0:
            raise ValueError(f"power must be >= 0, got {power!r}")
        return self.coef_elec + self.coef_shot * power + self.coef_tech * power ** 2


@dataclass
class DetectedTimeSeries:
    """Polarimeter output referred to the analyzer input.

    ``samples`` are RF amplitudes in sqrt(W) units (sample^2 has power
    units; the analyzer impedance is absorbed into ``angle_gain``).
    ``gain_used`` records the effective transimpedance gain of the chain,
    ``angle_gain`` the rad -> amplitude scalar actually applied.
    """

    samples: np.ndarray
    sample_rate: float           # Hz
    gain_used: float             # V/A, effective transimpedance gain
    mean_power: float            # W, mean optical power on the detector
    angle_gain: float            # amplitude per rad
    rng_seed: Optional[Seed] = None

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=float)
        if not self.sample_rate > 0:
            raise ValueError(f"sample_rate must be > 0, got {self.sample_rate!r}")


def photocurrent(power: float, det: DetectorConfig, wavelength: float,
                 constants: PhysicalConstants = CODATA) -> float:
    """Mean DC photocurrent for optical power P.

    physical convention (default): i = eta * P * e / (h nu).
    as_printed convention: i = P * e / (h nu * eta), kept for reproducing
    numbers computed with the efficiency in the denominator.
    """
    if power < 0:
        raise ValueError(f"power must be >= 0, got {power!r}")
    nu = constants.speed_of_light / wavelength
    base = power * constants.electron_charge / (constants.planck_h * nu)
    if det.photocurrent_convention == "as_printed":
        return base / det.quantum_efficiency
    return base * det.quantum_efficiency


def photocurrent_from_flux(flux: float, det: DetectorConfig,
                           constants: PhysicalConstants = CODATA) -> float:
    """Photocurrent from photon flux: e*eta*Phi (or e*Phi/eta as printed)."""
    if flux < 0:
        raise ValueError(f"photon flux must be >= 0, got {flux!r}")
    base = constants.electron_charge * flux
    if det.photocurrent_convention == "as_printed":
        return base / det.quantum_efficiency
    return base * det.quantum_efficiency


def theoretical_shot_noise_level(power: float, det: DetectorConfig,
                                 wavelength: float,
                                 constants: PhysicalConstants = CODATA) -> float:
    """Shot-noise PSD at the analyzer: G_eff^2 * 2 * i * e / R, in W/Hz.

    Gain frequency dependence is neglected (flat well below the detector
    bandwidth).
    """
    current = photocurrent(power, det, wavelength, constants)
    g_eff = det.gain_effective
    return (g_eff ** 2) * 2.0 * current * constants.electron_charge \
        / det.analyzer_impedance_r


def angle_gain_from_chain(det: DetectorConfig, flux: float,
                          constants: PhysicalConstants = CODATA) -> float:
    """Angle-to-amplitude gain implied by the electronics chain.

    g = 2 * G_eff * i * sqrt(2 / (eta * R)): the factor 2*G_eff*i is the
    small-angle differential transimpedance response, 1/sqrt(R) refers
    volts to sqrt(W) at the analyzer input, and sqrt(2/eta) makes the
    displayed shot background (angle_gain^2 / (4*Phi), see module docstring)
    coincide with the current-noise form G_eff^2 * 2*i*e/R under the
    physical photocurrent convention.
    """
    current = photocurrent_from_flux(flux, det, constants)
    return 2.0 * det.gain_effective * current * math.sqrt(
        2.0 / (det.quantum_efficiency * det.analyzer_impedance_r))


def detect(rotation: RotationTimeSeries, det: DetectorConfig, *,
           coef_elec: float = 0.0, coef_tech: float = 0.0,
           angle_gain: Optional[float] = None, balance_offset: float = 0.0,
           rng_seed: Optional[Seed] = None,
           constants: PhysicalConstants = CODATA) -> DetectedTimeSeries:
    """Map a rotation series to the analyzer-referred RF series.

    output = g * (coherent + offset + stochastic/sqrt(2)) + n_elec + n_tech

    where ``coherent`` and ``stochastic`` are the deterministic and noise
    parts of the rotation input (see the analyzer background convention in
    the module docstring; series loaded without a separate noise component
    are treated as fully coherent). ``coef_elec`` is the electronic-noise
    PSD A in W/Hz; ``coef_tech`` the technical coefficient C in
    W/(Hz*W^2), entering as white noise of PSD C*P^2. Shot noise is never
    added here - it arrives via the rotation series. ``angle_gain`` defaults
    to the chain value for the series' photon flux.
    """
    if coef_elec < 0:
        raise ValueError(f"coef_elec must be >= 0, got {coef_elec!r}")
    if coef_tech < 0:
        raise ValueError(f"coef_tech must be >= 0, got {coef_tech!r}")
    if angle_gain is None:
        angle_gain = angle_gain_from_chain(det, rotation.photon_flux, constants)

    coherent = rotation.samples - rotation.noise_samples
    signal = angle_gain * (coherent + balance_offset
                           + rotation.noise_samples / math.sqrt(2.0))

    fs = rotation.sample_rate
    n = rotation.samples.size
    power = rotation.mean_optical_power
    # Electronic and technical noise are independent white Gaussians, so
    # their sum is one white Gaussian of PSD A + C*P^2: a single draw.
    output_psd = coef_elec + coef_tech * power ** 2
    if output_psd > 0.0:
        rng = np.random.default_rng(rng_seed)
        signal += rng.normal(0.0, math.sqrt(output_psd * fs / 2.0), n)

    return DetectedTimeSeries(
        samples=signal,
        sample_rate=fs,
        gain_used=det.gain_effective,
        mean_power=power,
        angle_gain=angle_gain,
        rng_seed=rng_seed,
    )


def detected_to_csv(ts: DetectedTimeSeries, path) -> None:
    """Write the detected series with header rows carrying its metadata."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# sample_rate_hz = {float(ts.sample_rate)!r}\n")
        fh.write(f"# gain_used_v_per_a = {float(ts.gain_used)!r}\n")
        fh.write(f"# mean_power_w = {float(ts.mean_power)!r}\n")
        fh.write(f"# angle_gain_sqrtw_per_rad = {float(ts.angle_gain)!r}\n")
        fh.write(f"# seed = {ts.rng_seed!r}\n")
        fh.write("sample_sqrtw\n")
        for value in ts.samples:
            fh.write(f"{float(value)!r}\n")
