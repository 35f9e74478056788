"""Resonance-curve and noise-budget fitting.

The resonance fit treats both demodulated quadratures jointly as one
complex Lorentzian with a free rotation angle between the nominal and the
realized quadrature frame, plus independent constant baselines:

    L(f) = (gamma^2/4) / (delta^2 + gamma^2/4)       delta = 2*pi*(f - f_c)
    D(f) = -(gamma*delta/2) / (delta^2 + gamma^2/4)  gamma = 2*pi*gamma_fwhm

    model_P = phi0*(L cos(theta) - D sin(theta)) + b_P
    model_Q = phi0*(D cos(theta) + L sin(theta)) + b_Q

The noise-budget fit is a weighted least-squares polynomial
N(P) = A + B*P + C*P^2 with nonnegative coefficients, weighted by the
inverse square of each measured level (equal relative weighting).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import least_squares

from .detector import NoiseBudget
from .dsp import ResonanceCurve

__all__ = [
    "FitError",
    "LorentzianGuess",
    "LorentzianFit",
    "auto_initial_guess",
    "fit_lorentzian",
    "fit_noise_polynomial",
    "fit_report",
]


class FitError(RuntimeError):
    """A fit failed to converge or its inputs were unusable."""


@dataclass
class LorentzianGuess:
    center_freq: float    # Hz
    gamma_fwhm: float     # Hz
    phi0: float           # rad
    phase_offset: float = 0.0   # rad
    baseline_p: float = 0.0     # rad
    baseline_q: float = 0.0     # rad
    from_fallback: bool = False


@dataclass
class LorentzianFit:
    """Joint two-quadrature resonance fit result.

    Uncertainties are 1-sigma values from the Jacobian at the solution;
    they are zero when the fit is exactly determined or noiseless.
    """

    center_freq: float
    gamma_fwhm: float
    phi0: float
    phase_offset: float
    baseline_p: float
    baseline_q: float
    center_freq_err: float
    gamma_fwhm_err: float
    phi0_err: float
    residual_rms: float
    n_points: int
    converged: bool
    extrapolated: bool = False

    def params(self) -> dict:
        return {
            "center_freq": self.center_freq,
            "gamma_fwhm": self.gamma_fwhm,
            "phi0": self.phi0,
            "phase_offset": self.phase_offset,
            "baseline_p": self.baseline_p,
            "baseline_q": self.baseline_q,
        }


def _quadrature_model(freqs: np.ndarray, f_c: float, gamma_fwhm: float,
                      phi0: float, theta: float, b_p: float,
                      b_q: float) -> tuple[np.ndarray, np.ndarray]:
    delta = 2.0 * np.pi * (freqs - f_c)
    gamma = 2.0 * np.pi * gamma_fwhm
    denom = delta ** 2 + gamma ** 2 / 4.0
    absorb = (gamma ** 2 / 4.0) / denom
    disperse = -(gamma * delta / 2.0) / denom
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    model_p = phi0 * (absorb * cos_t - disperse * sin_t) + b_p
    model_q = phi0 * (disperse * cos_t + absorb * sin_t) + b_q
    return model_p, model_q


def auto_initial_guess(curve: ResonanceCurve) -> LorentzianGuess:
    """Moment-based starting point for the resonance fit.

    Center from the in-phase maximum bin, width from the half-maximum
    crossing span, amplitude from the in-phase peak; baselines and phase
    start at zero. If the half-max span is degenerate (flat or
    single-sided data) the fallback uses the grid midpoint and a tenth of
    the grid span, and flags itself.
    """
    freqs = curve.mod_freqs
    phi_p = curve.phi_P_values
    idx_peak = int(np.argmax(phi_p))
    peak = float(phi_p[idx_peak])
    floor = float(np.min(phi_p))
    half = floor + 0.5 * (peak - floor)
    above = phi_p >= half
    span = float(freqs[-1] - freqs[0]) if freqs.size > 1 else 0.0

    fallback = False
    if peak <= floor or not np.any(above) or span <= 0.0:
        fallback = True
    else:
        crossing = np.flatnonzero(above)
        width = float(freqs[crossing[-1]] - freqs[crossing[0]])
        if width <= 0.0 or np.all(above):
            fallback = True

    if fallback:
        center = float(freqs[0] + span / 2.0)
        width = span / 10.0 if span > 0.0 else 1.0
        amp = peak if peak != 0.0 else 1.0
        return LorentzianGuess(center, width, amp, from_fallback=True)
    return LorentzianGuess(float(freqs[idx_peak]), width, peak)


def _solve(freqs: np.ndarray, phi_p: np.ndarray, phi_q: np.ndarray,
           x0: np.ndarray):
    def residuals(x):
        mp, mq = _quadrature_model(freqs, *x)
        return np.concatenate([mp - phi_p, mq - phi_q])

    return least_squares(
        residuals, x0, method="lm",
        xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=200 * (x0.size + 1),
    )


def fit_lorentzian(curve: ResonanceCurve,
                   guess: Optional[LorentzianGuess] = None) -> LorentzianFit:
    """Fit both quadratures jointly; see the module docstring for the model.

    Requires at least 7 points spanning at least two guessed linewidths.
    The fitted center may land outside the grid; such fits are flagged
    extrapolated rather than rejected.
    """
    freqs = curve.mod_freqs
    phi_p = curve.phi_P_values
    phi_q = curve.phi_Q_values
    if freqs.size < 7:
        raise FitError(f"need at least 7 points to fit, got {freqs.size}")
    if guess is None:
        guess = auto_initial_guess(curve)
    span = float(freqs[-1] - freqs[0])
    if span < 2.0 * guess.gamma_fwhm:
        raise FitError(
            f"grid span {span!r} Hz under two linewidths "
            f"({2.0 * guess.gamma_fwhm!r} Hz); widen the sweep"
        )

    x0 = np.array([guess.center_freq, guess.gamma_fwhm, guess.phi0,
                   guess.phase_offset, guess.baseline_p, guess.baseline_q])
    result = _solve(freqs, phi_p, phi_q, x0)
    if result.x[1] < 0.0:
        restart = result.x.copy()
        restart[1] = abs(restart[1])
        result = _solve(freqs, phi_p, phi_q, restart)
    if not result.success:
        raise FitError(f"resonance fit did not converge: {result.message}")

    f_c, gamma_fwhm, phi0, theta, b_p, b_q = result.x
    # Gauge fix: a negative amplitude with theta shifted by pi is the same
    # curve; report the positive-amplitude representative.
    if phi0 < 0.0:
        phi0 = -phi0
        theta = theta + math.pi
    theta = math.atan2(math.sin(theta), math.cos(theta))
    gamma_fwhm = abs(gamma_fwhm)

    m, n = result.fun.size, result.x.size
    resid_rms = float(np.sqrt(np.mean(result.fun ** 2)))
    errs = np.zeros(n)
    if m > n:
        jac = result.jac
        try:
            cov = np.linalg.pinv(jac.T @ jac) * (2.0 * result.cost / (m - n))
            errs = np.sqrt(np.maximum(np.diag(cov), 0.0))
        except np.linalg.LinAlgError:
            pass

    return LorentzianFit(
        center_freq=float(f_c),
        gamma_fwhm=float(gamma_fwhm),
        phi0=float(phi0),
        phase_offset=float(theta),
        baseline_p=float(b_p),
        baseline_q=float(b_q),
        center_freq_err=float(errs[0]),
        gamma_fwhm_err=float(errs[1]),
        phi0_err=float(errs[2]),
        residual_rms=resid_rms,
        n_points=int(freqs.size),
        converged=bool(result.success),
        extrapolated=not (freqs[0] <= f_c <= freqs[-1]),
    )


# ---------------------------------------------------------------------------
# Noise-budget polynomial
# ---------------------------------------------------------------------------

def fit_noise_polynomial(powers, noise_levels,
                         fixed_elec: Optional[float] = None) -> NoiseBudget:
    """Weighted LS fit of the quadratic noise budget versus optical power.

    Weights are 1/N^2 (equal relative errors across decades). Negative
    solutions are clamped to zero and the remaining terms refit (an
    active-set pass). fixed_elec pins the constant term exactly, e.g. to a
    dark measurement.
    """
    p = np.asarray(powers, dtype=float)
    n_meas = np.asarray(noise_levels, dtype=float)
    if p.size != n_meas.size:
        raise FitError("powers and noise_levels must have equal length")
    if p.size < 4:
        raise FitError(f"need at least 4 points to fit 3 terms, got {p.size}")
    if np.any(p < 0):
        raise FitError("powers must be nonnegative")
    if np.any(n_meas <= 0):
        raise FitError("noise levels must be positive")

    w = 1.0 / n_meas  # residuals scaled by 1/N gives 1/N^2 weights on squares
    target = n_meas.copy()
    columns = {"elec": np.ones_like(p), "shot": p, "tech": p ** 2}
    fixed = {}
    if fixed_elec is not None:
        if fixed_elec < 0:
            raise FitError(f"fixed_elec must be >= 0, got {fixed_elec!r}")
        fixed["elec"] = float(fixed_elec)

    active = [k for k in ("elec", "shot", "tech") if k not in fixed]
    coefs = dict(fixed)
    for _ in range(4):
        resid_target = target - sum(
            fixed_val * columns[k] for k, fixed_val in fixed.items()
        )
        design = np.column_stack([columns[k] for k in active]) * w[:, None]
        sol, *_ = np.linalg.lstsq(design, resid_target * w, rcond=None)
        coefs.update(dict(zip(active, sol)))
        negative = [k for k in active if coefs[k] < 0.0]
        if not negative:
            break
        for k in negative:
            coefs[k] = 0.0
            fixed[k] = 0.0
        active = [k for k in active if k not in negative]
        if not active:
            break

    model = sum(coefs[k] * columns[k] for k in ("elec", "shot", "tech"))
    rel_rms = float(np.sqrt(np.mean(((model - n_meas) / n_meas) ** 2)))

    # 1-sigma errors from the weighted normal matrix over the free terms
    # (pinned and clamped terms get zero error).
    errs = {"elec": 0.0, "shot": 0.0, "tech": 0.0}
    if active and p.size > len(active):
        design = np.column_stack([columns[k] for k in active]) * w[:, None]
        resid = (model - n_meas) * w
        dof = p.size - len(active)
        try:
            cov = np.linalg.pinv(design.T @ design) * float(resid @ resid) / dof
            for k, e in zip(active, np.sqrt(np.maximum(np.diag(cov), 0.0))):
                errs[k] = float(e)
        except np.linalg.LinAlgError:
            pass

    return NoiseBudget(
        coef_elec=float(coefs["elec"]),
        coef_shot=float(coefs["shot"]),
        coef_tech=float(coefs["tech"]),
        coef_errs=(errs["elec"], errs["shot"], errs["tech"]),
        residual_rel_rms=rel_rms,
        n_points=int(p.size),
        fixed_elec=fixed_elec,
    )


def fit_report(fit) -> dict:
    """A fit result as a JSON-ready document."""
    if isinstance(fit, LorentzianFit):
        doc = {
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
    elif isinstance(fit, NoiseBudget):
        doc = {
            "kind": "noise_polynomial",
            "params": {
                "coef_elec": fit.coef_elec,
                "coef_shot": fit.coef_shot,
                "coef_tech": fit.coef_tech,
            },
            "errors": {
                "coef_elec": fit.coef_errs[0],
                "coef_shot": fit.coef_errs[1],
                "coef_tech": fit.coef_errs[2],
            },
            "residual_rel_rms": fit.residual_rel_rms,
            "n_points": fit.n_points,
            "fixed_elec": fit.fixed_elec,
        }
    else:
        raise TypeError(f"unsupported fit object {type(fit).__name__}")
    return doc
