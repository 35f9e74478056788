"""Physical constants shared across the simulator.

All values are SI, CODATA 2022, written out as literals (they equal
``scipy.constants`` bit for bit, without importing it). ``hbar`` is the
exact SI Planck constant over 2*pi, so ``planck_h == 2*pi*hbar`` holds to
full double precision. ``CODATA`` is the one frozen instance every module
reads.
"""

from __future__ import annotations

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


CODATA = PhysicalConstants()
