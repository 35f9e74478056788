"""Derived magnetometer quantities: SNR, slope, sensitivity and SNL ranges.

Conventions used throughout:

* SNR is per unit bandwidth: SNR^2 = rbw * S_sig / S_bg, equivalently the
  rotation amplitude over the rotation-noise density in rad/sqrt(Hz). The
  resolution bandwidth cancels, as does any common detection gain.
* Sensitivity delta_B = (pi*hbar/(g_F*mu_B)) * gamma / SNR carries units of
  T/sqrt(Hz) under that convention.
* The quadrature slope against field is referenced to the Larmor
  frequency shift: (g_F*mu_B/(pi*hbar)) * phi0/gamma. The derivative of
  the doubled-frequency resonance that is actually swept is exactly twice
  that.
* snl_map returns one grid: a row per budget in frequency order, each the
  budget's detection frequency and its SnlRange at every distinct margin k
  in increasing order. ``cli`` writes snl-map's csv and figures from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .config import AtomConfig
from .constants import CODATA
from .detector import NoiseBudget

__all__ = [
    "SnlRange",
    "compute_snr",
    "quadrature_slope",
    "sensitivity",
    "sensitivity_from_noise_density",
    "projection_noise",
    "snl_range",
    "snl_map",
    "classify_operating_point",
]

_NEVER_SNL = float("inf")


@dataclass
class SnlRange:
    """Shot-noise-limited power window [p_low, p_high] at margin k."""

    k: float
    p_low: float    # W; k*A/B
    p_high: float   # W; B/(k*C), inf when C = 0

    def __post_init__(self) -> None:
        if not self.k >= 1.0:
            raise ValueError(f"k must be >= 1, got {self.k!r}")

    @property
    def nonempty(self) -> bool:
        return self.p_low < self.p_high


def compute_snr(s_sig: float, s_bg: float, rbw: float) -> float:
    """Amplitude SNR from displayed peak and background densities.

    SNR = sqrt(rbw * s_sig / s_bg); the rbw factor undoes the peak's
    bandwidth-normalization so the result is independent of the analyzer
    settings and of any common gain.
    """
    if not s_bg > 0:
        raise ValueError(f"background density must be > 0, got {s_bg!r}")
    if s_sig < 0:
        raise ValueError(f"signal density must be >= 0, got {s_sig!r}")
    if not rbw > 0:
        raise ValueError(f"rbw must be > 0, got {rbw!r}")
    return math.sqrt(rbw * s_sig / s_bg)


def quadrature_slope(phi0: float, gamma_fwhm: float, g_f: float) -> float:
    """On-resonance slope of the dispersive quadrature against field, rad/T,
    referenced to the Larmor frequency (half the swept resonance's)."""
    if not gamma_fwhm > 0:
        raise ValueError(f"gamma_fwhm must be > 0, got {gamma_fwhm!r}")
    if not g_f > 0:
        raise ValueError(f"g_f must be > 0, got {g_f!r}")
    return (g_f * CODATA.bohr_magneton / (math.pi * CODATA.hbar)
            * phi0 / gamma_fwhm)


def sensitivity(gamma_fwhm: float, snr: float, g_f: float) -> float:
    """Field sensitivity delta_B = (pi*hbar/(g_F*mu_B)) * gamma/SNR."""
    if not snr > 0:
        raise ValueError(f"snr must be > 0, got {snr!r}")
    if not gamma_fwhm > 0:
        raise ValueError(f"gamma_fwhm must be > 0, got {gamma_fwhm!r}")
    if not g_f > 0:
        raise ValueError(f"g_f must be > 0, got {g_f!r}")
    return (math.pi * CODATA.hbar / (g_f * CODATA.bohr_magneton)
            * gamma_fwhm / snr)


def sensitivity_from_noise_density(noise_angle_density: float, phi0: float,
                                   gamma_fwhm: float, g_f: float) -> float:
    """Sensitivity as rotation-noise density over the quadrature slope.

    With SNR = phi0/noise_angle_density this is algebraically identical to
    sensitivity().
    """
    if not noise_angle_density > 0:
        raise ValueError(
            f"noise_angle_density must be > 0, got {noise_angle_density!r}"
        )
    slope = quadrature_slope(phi0, gamma_fwhm, g_f)
    if not slope > 0:
        raise ValueError(f"slope must be > 0 to invert, got {slope!r}")
    return noise_angle_density / slope


def projection_noise(atom: AtomConfig, integration_time: float) -> float:
    """Atomic projection-noise floor in T/sqrt(Hz).

    delta_B_at = (hbar*pi/(g_F*mu_B)) * sqrt(gamma / (N_at * tau)); quoted
    alongside delta_B for context, never subtracted from it.
    """
    if not integration_time > 0:
        raise ValueError(
            f"integration_time must be > 0, got {integration_time!r}"
        )
    n_atoms = atom.atom_number
    if not n_atoms > 0:
        raise ValueError(f"atom number must be > 0, got {n_atoms!r}")
    return (CODATA.hbar * math.pi / (atom.g_f * CODATA.bohr_magneton)
            * math.sqrt(atom.relaxation_gamma / (n_atoms * integration_time)))


# ---------------------------------------------------------------------------
# Shot-noise-limited power ranges
# ---------------------------------------------------------------------------

def snl_range(budget: NoiseBudget, k: float) -> SnlRange:
    """Power window where the shot term exceeds both others by factor k.

    p_low = k*A/B and p_high = B/(k*C). A vanishing shot coefficient means
    the chain is never shot-noise limited; that comes back as an empty
    range with infinite lower bound rather than an exception.
    """
    if not k >= 1.0:
        raise ValueError(f"k must be >= 1, got {k!r}")
    budget.validate()
    a, b, c = budget.coef_elec, budget.coef_shot, budget.coef_tech
    if b == 0.0:
        return SnlRange(k=k, p_low=_NEVER_SNL, p_high=0.0)
    p_low = k * a / b
    p_high = math.inf if c == 0.0 else b / (k * c)
    return SnlRange(k=k, p_low=p_low, p_high=p_high)


def snl_map(budgets: Sequence[NoiseBudget], k_values: Iterable[float]
            ) -> list[tuple[float, list[SnlRange]]]:
    """SNL windows over detection frequency and margin, as one grid.

    One row per budget in frequency order: its detection frequency and its
    windows at each distinct k in increasing order, so every row nests the
    same margins.
    """
    budgets = sorted(budgets, key=lambda b: b.detection_freq)
    if not budgets:
        raise ValueError("budgets must be nonempty")
    ks = sorted(set(float(k) for k in k_values))
    if not ks:
        raise ValueError("k_values must be nonempty")
    return [(budget.detection_freq, [snl_range(budget, k) for k in ks])
            for budget in budgets]


def classify_operating_point(budget: NoiseBudget, power: float,
                             k: float) -> str:
    """Which budget term bounds the window containing this power.

    Boundary powers classify as SNL(k): the window is treated as closed
    since a measured power sits exactly on a boundary with probability
    zero anyway.
    """
    if power < 0:
        raise ValueError(f"power must be >= 0, got {power!r}")
    rng = snl_range(budget, k)
    if power < rng.p_low:
        return "electronic-limited"
    if power > rng.p_high:
        return "technical-limited"
    return f"SNL({k:g})"
