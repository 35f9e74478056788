"""Resonance-curve and noise-budget fitting.

The resonance fit treats both demodulated quadratures jointly as one
complex Lorentzian with a free rotation angle between the nominal and the
realized quadrature frame, plus independent constant baselines:

    L(f) = (gamma^2/4) / (delta^2 + gamma^2/4)       delta = 2*pi*(f - f_c)
    D(f) = -(gamma*delta/2) / (delta^2 + gamma^2/4)  gamma = 2*pi*gamma_fwhm

    model_P = phi0*(L cos(theta) - D sin(theta)) + b_P
    model_Q = phi0*(D cos(theta) + L sin(theta)) + b_Q

It is solved by a numpy Levenberg-Marquardt with the model's analytic
Jacobian, to MINPACK's stopping tests at 1e-14; the starting point comes
from |P + iQ|^2 = phi0^2 L, which does not depend on theta.

The noise-budget fit is a weighted least-squares polynomial
N(P) = A + B*P + C*P^2 with nonnegative coefficients, weighted by the
inverse square of each measured level (equal relative weighting).
``cli.fit_report`` turns either fit into the JSON document a mode writes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .detector import NoiseBudget
from .dsp import ResonanceCurve

__all__ = [
    "FitError",
    "LorentzianGuess",
    "LorentzianFit",
    "auto_initial_guess",
    "fit_lorentzian",
    "fit_noise_polynomial",
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


def _quadrature_model(freqs: np.ndarray, x: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Stacked model [P; Q] at x = (f_c, gamma_fwhm, phi0, theta, b_P, b_Q),
    and its Jacobian with respect to x.

    In complex form P + iQ = phi0 e^(i theta) (L + iD) + b_P + i b_Q, where
    L + iD = h / (h + i delta) and h = gamma/2.
    """
    f_c, gamma_fwhm, phi0, theta, b_p, b_q = x
    half = math.pi * gamma_fwhm
    delta = 2.0 * np.pi * (freqs - f_c)
    pole = half + 1j * delta
    unit = cmath.exp(1j * theta)
    line = half / pole
    slope = 1j * phi0 * unit / pole ** 2
    model = phi0 * unit * line + complex(b_p, b_q)
    jac = np.column_stack([
        2.0 * np.pi * half * slope,   # d/d f_c
        math.pi * delta * slope,      # d/d gamma_fwhm
        unit * line,                  # d/d phi0
        1j * phi0 * unit * line,      # d/d theta
        np.ones_like(line),           # d/d b_P
        np.full_like(line, 1j),       # d/d b_Q
    ])
    return (np.concatenate([model.real, model.imag]),
            np.concatenate([jac.real, jac.imag]))


def auto_initial_guess(curve: ResonanceCurve) -> LorentzianGuess:
    """Moment-based starting point for the resonance fit.

    Reads the power |P + iQ|^2, which is phi0^2 L whatever the frame angle:
    center from its maximum bin, width from its half-maximum crossing span,
    amplitude from the square root of the maximum and phase from the angle
    of P + iQ there; baselines start at zero. If the half-max span is
    degenerate (flat or single-sided data) the fallback uses the grid
    midpoint and a tenth of the grid span, and flags itself.
    """
    freqs = curve.mod_freqs
    signal = curve.phi_P_values + 1j * curve.phi_Q_values
    power = np.abs(signal) ** 2
    idx_peak = int(np.argmax(power))
    peak = float(power[idx_peak])
    floor = float(np.min(power))
    above = power >= floor + 0.5 * (peak - floor)
    span = float(freqs[-1] - freqs[0]) if freqs.size > 1 else 0.0
    amp = math.sqrt(peak)

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
        return LorentzianGuess(center, width, amp if amp != 0.0 else 1.0,
                               from_fallback=True)
    return LorentzianGuess(float(freqs[idx_peak]), width, amp,
                           phase_offset=float(np.angle(signal[idx_peak])))


@np.errstate(over="raise", invalid="raise")
def _solve(freqs: np.ndarray, data: np.ndarray, x0: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Levenberg-Marquardt fit of the stacked model to the stacked data.

    Returns the parameters, residuals and Jacobian at the solution. Each
    step solves the damped problem [J; sqrt(lam) D] step = [-r; 0] by least
    squares, with D the largest column norms of J seen so far (MINPACK's
    scaling); lam shrinks after a good step and grows after a rejected one.
    It stops, as MINPACK's lmder does, once the actual and predicted
    relative cost reductions fall under ftol, the scaled step under xtol
    times the scaled parameters, or the cosine between the residuals and
    every Jacobian column under gtol (all 1e-14). More than 200 (n + 1)
    model evaluations raise FitError, and so, as FloatingPointError, does
    a norm, product or cost past float64, as on quadratures near 1e150.
    """
    tol = 1e-14
    max_nfev = 200 * (x0.size + 1)

    def evaluate(x):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            model, jac = _quadrature_model(freqs, x)
        resid = model - data
        cost = 0.5 * float(resid @ resid)
        return resid, jac, cost if math.isfinite(cost) else math.inf

    x = np.asarray(x0, dtype=float)
    resid, jac, cost = evaluate(x)
    nfev = 1
    scale = np.zeros(x.size)
    damping, growth = 1e-3, 2.0
    while True:
        norms = np.linalg.norm(jac, axis=0)
        scale = np.maximum(scale, norms)
        diag = np.where(scale > 0.0, scale, 1.0)
        if np.all(np.abs(jac.T @ resid)
                  <= tol * norms * math.sqrt(2.0 * cost)):
            return x, resid, jac
        if nfev >= max_nfev:
            raise FitError("resonance fit did not converge: the evaluation "
                           f"cap of {max_nfev} was reached")
        system = np.vstack([jac / diag, math.sqrt(damping) * np.eye(x.size)])
        step = np.linalg.lstsq(
            system, np.concatenate([-resid, np.zeros(x.size)]), rcond=None
        )[0] / diag
        linear = resid + jac @ step
        predicted = cost - 0.5 * float(linear @ linear)
        trial = x + step
        resid_t, jac_t, cost_t = evaluate(trial)
        nfev += 1
        actual = cost - cost_t
        ratio = actual / predicted if predicted > 0.0 else 0.0
        reduced = (abs(actual) <= tol * cost and predicted <= tol * cost
                   and ratio <= 2.0)
        small_step = (np.linalg.norm(diag * step)
                      <= tol * np.linalg.norm(diag * x))
        if ratio > 1e-4 or reduced:  # a step the cost cannot resolve is
            # still the quadratic model's better estimate: keep it
            x, resid, jac, cost = trial, resid_t, jac_t, cost_t
            damping *= max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3)
            growth = 2.0
        else:
            damping *= growth
            growth *= 2.0
        if reduced or small_step:
            return x, resid, jac


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
    data = np.concatenate([phi_p, phi_q])
    try:
        x, resid, jac = _solve(freqs, data, x0)
        if x[1] < 0.0:
            restart = x.copy()
            restart[1] = abs(restart[1])
            x, resid, jac = _solve(freqs, data, restart)
    except FloatingPointError as exc:
        raise FitError(f"resonance fit left float64's range: {exc}") from exc

    f_c, gamma_fwhm, phi0, theta, b_p, b_q = x
    # Gauge fix: a negative amplitude with theta shifted by pi is the same
    # curve; report the positive-amplitude representative.
    if phi0 < 0.0:
        phi0 = -phi0
        theta = theta + math.pi
    theta = math.atan2(math.sin(theta), math.cos(theta))
    gamma_fwhm = abs(gamma_fwhm)

    m, n = resid.size, x.size
    resid_rms = float(np.sqrt(np.mean(resid ** 2)))
    errs = np.zeros(n)
    if m > n:
        try:
            cov = np.linalg.pinv(jac.T @ jac) * (float(resid @ resid) / (m - n))
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
        converged=True,
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
