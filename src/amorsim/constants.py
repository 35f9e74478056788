"""Physical constants shared across the simulator.

All values are SI, CODATA 2022, written out as literals (they equal
``scipy.constants`` bit for bit, without importing it). ``hbar`` is the
exact SI Planck constant over 2*pi, so ``planck_h == 2*pi*hbar`` holds to
full double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["PhysicalConstants", "CODATA"]


@dataclass(frozen=True)
class PhysicalConstants:
    """SI constants used by the signal chain.

    ``bohr_magneton`` is the Bohr magneton (named explicitly to avoid any
    collision with the vacuum permeability).
    """

    hbar: float = 1.0545718176461565e-34      # J s, h / (2*pi)
    planck_h: float = 6.62607015e-34          # J s, exact
    electron_charge: float = 1.602176634e-19  # C, exact
    bohr_magneton: float = 9.2740100657e-24   # J/T
    speed_of_light: float = 299792458.0       # m/s, exact

    def validate(self) -> "PhysicalConstants":
        for name in ("hbar", "planck_h", "electron_charge",
                     "bohr_magneton", "speed_of_light"):
            value = getattr(self, name)
            if not (value > 0.0) or not math.isfinite(value):
                raise ValueError(f"{name} must be strictly positive, got {value!r}")
        rel = abs(self.planck_h - 2.0 * math.pi * self.hbar) / self.planck_h
        if rel > 1e-12:
            raise ValueError(
                f"planck_h and 2*pi*hbar disagree (relative {rel:.3e}, "
                f"planck_h={self.planck_h!r})"
            )
        return self


#: Default constant set.
CODATA = PhysicalConstants().validate()
