"""Rotation-signal model: resonance quadratures and shot-noise synthesis.

The optical-rotation angle driven by an amplitude-modulated pump near the
doubled Larmor frequency follows a complex Lorentzian in the detuning
Delta = Omega_m - 2*Omega_L (rad/s):

    phi(t) = phi_P * cos(Omega_m t) + phi_Q * sin(Omega_m t) + dphi(t)

    phi_P = phi0 * (Gamma^2/4) / (Delta^2 + Gamma^2/4)      (absorptive)
    phi_Q = -phi0 * (Gamma*Delta/2) / (Delta^2 + Gamma^2/4) (dispersive)

with Gamma = 2*pi*gamma_fwhm. The stochastic term dphi(t) is white Gaussian
photon shot noise with one-sided PSD S_phi = 1/(2*Phi_ph), where Phi_ph is
the photon flux arriving at the detector. ``white_noise`` is the one home
of a draw's variance: it fills a series, or a stack of rows at one density
each, from one generator in one call.

``synthesize_rotation`` is simulate's series: the real angle at the full
rate, tone plus shot noise, which ``cli.rotation_to_csv`` writes.
``coherent_rotation`` is the tone alone, real, or, given a centre f_c, its
complex envelope around f_c: the positive-frequency part of the tone mixed
down by f_c and sampled at a rate that covers only the band an analyzer or
the lock-in reads. The analyzer rows of every other mode
(``cli._detected_stack``) are built on that envelope. A band near DC gets
an envelope whose lower edge sits at 0 Hz (f_c = sample_rate/2).

The resonance sits at the doubled Larmor frequency 2 g_F mu_B B / h
(``larmor_doubled_freq``, defined in ``config`` next to the field it
resolves and re-exported here), ``ResonanceParams.center_freq``: a carrier
at f_mod is detuned by Delta = 2 pi (f_mod - center_freq). The constants
come from ``constants.CODATA``.

All spectral densities in this package are one-sided.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field
from typing import Optional, Union

import numpy as np
import numpy.random  # noqa: F401 numpy 2 loads it lazily; load it here, not mid-run

from .config import larmor_doubled_freq
from .constants import CODATA

__all__ = [
    "ResonanceParams",
    "RotationTimeSeries",
    "larmor_doubled_freq",
    "lorentzian_quadratures",
    "photon_flux",
    "shot_noise_angle_density",
    "white_noise",
    "coherent_rotation",
    "synthesize_rotation",
]

# An RNG stream's full key, as numpy's SeedSequence takes it: an int, or a
# tuple such as (seed, power_index, 1), a sweep power's tone rows' stream.
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
    deterministic part plus ``noise_samples``; ``samples is noise_samples``
    marks a series with no deterministic part.
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
        mod, fs = self.modulation_freq, self.sample_rate
        if mod is not None and fs <= 2.0 * mod:
            raise ValueError(
                f"sample_rate {fs!r} violates the Nyquist guard "
                f"for modulation_freq {mod!r}"
            )


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


def photon_flux(power: float, wavelength: float) -> float:
    """Photon flux Phi = P/(h nu) for optical power P at the given wavelength."""
    if power < 0:
        raise ValueError(f"power must be >= 0, got {power!r}")
    if not wavelength > 0:
        raise ValueError(f"wavelength must be > 0, got {wavelength!r}")
    nu = CODATA.speed_of_light / wavelength
    return power / (CODATA.planck_h * nu)


def shot_noise_angle_density(flux: float) -> float:
    """One-sided rotation-angle shot-noise PSD S_phi = 1/(2*Phi), rad^2/Hz."""
    if not flux > 0:
        raise ValueError(f"photon flux must be > 0, got {flux!r}")
    return 1.0 / (2.0 * flux)


def white_noise(rng: np.random.Generator, density,
                sample_rate: float, n: int, envelope: bool,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """n samples of white Gaussian noise of one-sided PSD density, or a
    (rows, n) stack of them given a sequence of densities, one per row.

    Real with variance density * sample_rate / 2; for an envelope, a row's
    2n values viewed as circular complex noise with variance
    density * sample_rate / 4 per component (two-sided density density/2).

    Written into out (contiguous, complex for an envelope) when given, else
    into a new array, and returned. The standard normals are drawn in
    place in one call, row after row, and each row is scaled by its sigma:
    a row holds the bits of ``rng.normal(0.0, sigma, n)`` (2n viewed as
    complex for an envelope) drawn after the rows above it, but for the
    sign of a zero, which normal's ``0.0 + sigma * z`` makes +0.
    """
    sigma = np.sqrt(np.multiply(density, sample_rate)
                    / (4.0 if envelope else 2.0))
    if out is None:
        out = np.empty(sigma.shape + (n,), complex if envelope else float)
    draws = out.view(float)
    rng.standard_normal(out=draws)
    draws *= sigma[..., None]
    return out


@functools.lru_cache(maxsize=8)
def _tone(offset: float, sample_rate: float, n: int) -> np.ndarray:
    """exp(i 2pi offset t) at t = k/sample_rate, k < n: an envelope's unit
    tone and, at -offset, the lock-in's mixer; shared, so read-only."""
    t = np.arange(n) / sample_rate
    tone = np.exp(2j * np.pi * offset * t)
    tone.flags.writeable = False
    return tone


def coherent_rotation(res: ResonanceParams, mod_freq: float,
                      sample_rate: float, n: int,
                      center_freq: Optional[float] = None
                      ) -> Optional[np.ndarray]:
    """The n-sample deterministic rotation, or None where it is zero.

    phi_P cos(Omega_m t) + phi_Q sin(Omega_m t) at Omega_m = 2 pi mod_freq,
    with (phi_P, phi_Q) evaluated at the detuning Delta = 2 pi (mod_freq -
    res.center_freq); this real wave needs sample_rate > 4 mod_freq. With
    ``center_freq`` f_c it is the complex envelope around f_c instead,
    (phi_P - i phi_Q)/2 * exp(i 2pi (f_mod - f_c) t), which needs
    |f_mod - f_c| < sample_rate/2. Either is a new array.
    """
    envelope = center_freq is not None
    if not envelope and not sample_rate > 4.0 * mod_freq:
        raise ValueError(
            f"sample_rate {sample_rate!r} must exceed 4x modulation_freq "
            f"({mod_freq!r} Hz)"
        )
    if envelope and not abs(mod_freq - center_freq) < sample_rate / 2.0:
        raise ValueError(
            f"modulation_freq {mod_freq!r} lies outside the envelope band "
            f"{center_freq!r} +- {sample_rate / 2.0!r} Hz"
        )
    if res.phi0 == 0.0:  # no resonance, whatever its width reads
        return None
    phi_p, phi_q = lorentzian_quadratures(
        2.0 * math.pi * (mod_freq - res.center_freq), res)
    if phi_p == 0.0 and phi_q == 0.0:
        return None
    if envelope:
        return 0.5 * (phi_p - 1j * phi_q) * _tone(
            mod_freq - center_freq, sample_rate, n)
    # phi_P cos(omega t) + phi_Q sin(omega t), in place
    wave = np.arange(n) / sample_rate
    wave *= 2.0 * np.pi * mod_freq
    quadrature = np.sin(wave)
    quadrature *= phi_q
    np.cos(wave, out=wave)
    wave *= phi_p
    wave += quadrature
    return wave


def synthesize_rotation(res: ResonanceParams, mod_freq: float,
                        duration: float, sample_rate: float, power: float,
                        rng_seed: Optional[Seed] = None, *,
                        wavelength: float = 795e-9) -> RotationTimeSeries:
    """Synthesize the real sampled rotation angle at one operating point.

    The deterministic part is ``coherent_rotation``'s real wave. At power
    > 0, white Gaussian noise with one-sided PSD S_phi = 1/(2*Phi_ph) is
    added (per-sample variance S_phi * sample_rate / 2). Zero power means
    no light: no noise and nothing for the polarimeter to measure
    downstream.

    Deterministic for a fixed rng_seed.
    """
    if not duration > 0:
        raise ValueError(f"duration must be > 0, got {duration!r}")
    n = int(round(duration * sample_rate))
    if n < 2:
        raise ValueError(
            f"duration {duration!r} at sample_rate {sample_rate!r} yields "
            f"fewer than 2 samples"
        )
    wave = coherent_rotation(res, mod_freq, sample_rate, n)

    flux = photon_flux(power, wavelength)
    if flux > 0:
        noise = white_noise(np.random.default_rng(rng_seed),
                            shot_noise_angle_density(flux), sample_rate, n,
                            False)
    else:
        noise = np.zeros(n)
    if wave is not None:
        wave += noise

    return RotationTimeSeries(noise if wave is None else wave, sample_rate,
                              power, flux, mod_freq, noise, rng_seed)
