"""Rotation-signal model: resonance quadratures and shot-noise synthesis.

The optical-rotation angle driven by an amplitude-modulated pump near the
doubled Larmor frequency follows a complex Lorentzian in the detuning
Delta = Omega_m - 2*Omega_L (rad/s):

    phi(t) = phi_P * cos(Omega_m t) + phi_Q * sin(Omega_m t) + dphi(t)

    phi_P = phi0 * (Gamma^2/4) / (Delta^2 + Gamma^2/4)      (absorptive)
    phi_Q = -phi0 * (Gamma*Delta/2) / (Delta^2 + Gamma^2/4) (dispersive)

with Gamma = 2*pi*gamma_fwhm. The stochastic term dphi(t) is white Gaussian
photon shot noise with one-sided PSD S_phi = 1/(2*Phi_ph), where Phi_ph is
the photon flux arriving at the detector.

All spectral densities in this package are one-sided.
"""

from __future__ import annotations

import ast
import io
from dataclasses import dataclass, field as dc_field
from typing import Optional, Union

import numpy as np

from .config import AtomConfig, ConfigError, FieldConfig
from .constants import CODATA, PhysicalConstants

__all__ = [
    "ResonanceParams",
    "RotationTimeSeries",
    "larmor_doubled_freq",
    "lorentzian_quadratures",
    "photon_flux",
    "shot_noise_angle_density",
    "synthesize_rotation",
    "rotation_to_csv",
    "rotation_from_csv",
]

# An RNG stream: an int, or a key such as (seed, *point coordinates, lane);
# numpy's SeedSequence accepts either.
Seed = Union[int, tuple[int, ...]]


@dataclass
class ResonanceParams:
    """One rotation resonance: peak angle, FWHM width, center frequency."""

    phi0: float          # rad, maximum rotation angle
    gamma_fwhm: float    # Hz, FWHM of the absorptive quadrature
    center_freq: float   # Hz, resonant modulation frequency (2*Omega_L/2pi)

    def validate(self) -> "ResonanceParams":
        if not self.phi0 >= 0:
            raise ValueError(f"phi0 must be >= 0, got {self.phi0!r}")
        if not self.gamma_fwhm > 0:
            raise ValueError(f"gamma_fwhm must be > 0, got {self.gamma_fwhm!r}")
        if not self.center_freq >= 0:
            raise ValueError(f"center_freq must be >= 0, got {self.center_freq!r}")
        return self


@dataclass
class RotationTimeSeries:
    """Sampled rotation angle phi(t) in radians.

    ``noise_samples`` holds the stochastic part of ``samples`` separately so
    downstream stages can apply the analyzer quadrature bookkeeping (see
    detector.detect) without re-deriving it. ``samples`` always equals the
    deterministic part plus ``noise_samples``.
    """

    samples: np.ndarray          # rad
    sample_rate: float           # Hz
    mean_optical_power: float    # W
    photon_flux: float           # photons/s
    modulation_freq: Optional[float] = None  # Hz, deterministic carrier
    noise_samples: np.ndarray = dc_field(default_factory=lambda: np.zeros(0))
    rng_seed: Optional[Seed] = None

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=float)
        if self.noise_samples is None or np.size(self.noise_samples) == 0:
            self.noise_samples = np.zeros_like(self.samples)
        else:
            self.noise_samples = np.asarray(self.noise_samples, dtype=float)
        if self.noise_samples.shape != self.samples.shape:
            raise ValueError("noise_samples must match samples shape")
        if not self.sample_rate > 0:
            raise ValueError(f"sample_rate must be > 0, got {self.sample_rate!r}")
        if (self.modulation_freq is not None
                and self.sample_rate <= 2.0 * self.modulation_freq):
            raise ValueError(
                f"sample_rate {self.sample_rate!r} violates the Nyquist guard "
                f"for modulation_freq {self.modulation_freq!r}"
            )


def larmor_doubled_freq(b_field: float, atom: AtomConfig,
                        constants: PhysicalConstants = CODATA) -> float:
    """Resonant modulation frequency 2*Omega_L/2pi = 2 gF muB B / h, in Hz.

    Negative fields are rejected; the field magnitude is expected.
    """
    if b_field < 0:
        raise ValueError(f"b_field must be >= 0 (field magnitude), got {b_field!r}")
    return 2.0 * atom.g_f * constants.bohr_magneton * b_field / constants.planck_h


def lorentzian_quadratures(delta, res: ResonanceParams):
    """In-phase and quadrature amplitudes (phi_P, phi_Q) at detuning delta.

    delta is Omega_m - 2*Omega_L in rad/s; scalar or array. phi_P is the
    absorptive component (even in delta), phi_Q the dispersive one (odd,
    negative for positive detuning).
    """
    res.validate()
    delta = np.asarray(delta, dtype=float)
    big_gamma = 2.0 * np.pi * res.gamma_fwhm
    hw = 0.5 * big_gamma                      # half-width, rad/s
    den = delta * delta + hw * hw
    phi_p = res.phi0 * (hw * hw) / den
    phi_q = -res.phi0 * (hw * delta) / den
    if phi_p.ndim == 0:
        return float(phi_p), float(phi_q)
    return phi_p, phi_q


def photon_flux(power: float, wavelength: float,
                constants: PhysicalConstants = CODATA) -> float:
    """Photon flux Phi = P/(h nu) for optical power P at the given wavelength."""
    if power < 0:
        raise ValueError(f"power must be >= 0, got {power!r}")
    if not wavelength > 0:
        raise ValueError(f"wavelength must be > 0, got {wavelength!r}")
    nu = constants.speed_of_light / wavelength
    return power / (constants.planck_h * nu)


def shot_noise_angle_density(flux: float) -> float:
    """One-sided rotation-angle shot-noise PSD S_phi = 1/(2*Phi), rad^2/Hz."""
    if not flux > 0:
        raise ValueError(f"photon flux must be > 0, got {flux!r}")
    return 1.0 / (2.0 * flux)


def synthesize_rotation(res: ResonanceParams, field: FieldConfig,
                        duration: float, sample_rate: float, power: float,
                        rng_seed: Optional[Seed] = None, *,
                        wavelength: float = 795e-9, shot_noise: bool = True,
                        constants: PhysicalConstants = CODATA
                        ) -> RotationTimeSeries:
    """Synthesize the sampled rotation angle at one operating point.

    The deterministic part is phi_P cos(Omega_m t) + phi_Q sin(Omega_m t)
    with (phi_P, phi_Q) evaluated at the field's detuning. When shot noise
    is enabled and power > 0, white Gaussian noise with one-sided PSD
    1/(2*Phi_ph) is added (per-sample variance S_phi * sample_rate / 2).
    Zero power means no light: no noise and nothing for the polarimeter to
    measure downstream.

    Deterministic for a fixed rng_seed.
    """
    if not duration > 0:
        raise ValueError(f"duration must be > 0, got {duration!r}")
    if field.modulation_freq is None or field.detuning_delta is None:
        raise ConfigError(
            "field.modulation_freq: unresolved field configuration; call "
            "FieldConfig.resolve (or validate_config) first"
        )
    mod_freq = field.modulation_freq
    if not sample_rate > 4.0 * mod_freq:
        raise ValueError(
            f"sample_rate {sample_rate!r} must exceed 4x modulation_freq "
            f"({mod_freq!r} Hz)"
        )
    n = int(round(duration * sample_rate))
    if n < 2:
        raise ValueError(
            f"duration {duration!r} at sample_rate {sample_rate!r} yields "
            f"fewer than 2 samples"
        )
    phi_p, phi_q = lorentzian_quadratures(field.detuning_delta, res)
    carrier = phi_p != 0.0 or phi_q != 0.0
    if carrier:
        t = np.arange(n) / sample_rate
        omega = 2.0 * np.pi * mod_freq
        deterministic = phi_p * np.cos(omega * t) + phi_q * np.sin(omega * t)

    flux = photon_flux(power, wavelength, constants)
    if shot_noise and flux > 0:
        s_phi = shot_noise_angle_density(flux)
        sigma = np.sqrt(s_phi * sample_rate / 2.0)
        rng = np.random.default_rng(rng_seed)
        noise = rng.normal(0.0, sigma, n)
    else:
        noise = np.zeros(n)

    return RotationTimeSeries(
        samples=deterministic + noise if carrier else noise.copy(),
        sample_rate=sample_rate,
        mean_optical_power=power,
        photon_flux=flux,
        modulation_freq=mod_freq,
        noise_samples=noise,
        rng_seed=rng_seed,
    )


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def rotation_to_csv(ts: RotationTimeSeries, path) -> None:
    """Write the series with header rows carrying its metadata."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# sample_rate_hz = {float(ts.sample_rate)!r}\n")
        fh.write(f"# mean_optical_power_w = {float(ts.mean_optical_power)!r}\n")
        fh.write(f"# photon_flux_per_s = {float(ts.photon_flux)!r}\n")
        mod = ts.modulation_freq
        fh.write(f"# modulation_freq_hz = "
                 f"{None if mod is None else float(mod)!r}\n")
        fh.write(f"# seed = {ts.rng_seed!r}\n")
        fh.write("sample_rad\n")
        for value in ts.samples:
            fh.write(f"{float(value)!r}\n")


def rotation_from_csv(path) -> RotationTimeSeries:
    meta = {}
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line == "sample_rad":
                continue
            if line.startswith("#"):
                key, _, raw = line.lstrip("# ").partition("=")
                meta[key.strip()] = raw.strip()
                continue
            values.append(float(line))
    def _opt(name):
        raw = meta.get(name, "None")
        return None if raw == "None" else float(raw)
    return RotationTimeSeries(
        samples=np.asarray(values),
        sample_rate=float(meta["sample_rate_hz"]),
        mean_optical_power=float(meta["mean_optical_power_w"]),
        photon_flux=float(meta["photon_flux_per_s"]),
        modulation_freq=_opt("modulation_freq_hz"),
        rng_seed=ast.literal_eval(meta.get("seed", "None")),
    )
