"""Validated experiment configuration and the plain-text config file format.

The configuration is a bundle of small dataclasses. Everything is stored in
SI units internally; the file format accepts a limited set of unit suffixes
that are converted exactly once at parse time.

File grammar (UTF-8)::

    # comment
    key = value [unit]

with dotted keys (``atom.density_n``, ``spectrum.rbw`` ...). Unknown keys are
errors. Accepted unit suffixes: T, uT, nT, Hz, kHz, W, uW, mW, m, cm, ohm,
V/A; a suffix must measure its key's unit (``7.6 kHz`` is no field), and a
key without a unit takes none. Values without a unit are taken as SI (or
as plain strings / booleans for non-numeric keys).

Any key can also be overridden from the environment with the prefix
``AMORSIM_`` and the dot replaced by a double underscore, e.g.
``AMORSIM_ATOM__DENSITY_N="1.3e16"``; a variable with that prefix that
names no key is an unknown key too.

A key is a field of an ``ExperimentConfig`` section, named
``section.attr``: each key's default, type, bound and unit live in its
field, and ``_KEY_TABLE`` is derived from the dataclasses. The table drives
the parser, the environment overrides, ``serialize_config``, the manifest
and ``validate_config``; only the rules that span keys, and the
small-angle ceiling on ``resonance.phi0``, are written out.
``validate_config`` is the same for every mode: a rule that only one mode
needs sits with that mode's handler in ``cli``.

Physical constants are not configuration: every module reads the one
frozen ``constants.CODATA``. The field-to-frequency map
``larmor_doubled_freq`` lives here because ``FieldConfig.resolve`` derives
the resonant modulation frequency from it; ``signal_model`` re-exports it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from dataclasses import field as dc_field
from typing import Optional

from .constants import CODATA

__all__ = [
    "ConfigError",
    "AtomConfig",
    "DetectorConfig",
    "FieldConfig",
    "larmor_doubled_freq",
    "ResonanceSettings",
    "SimSettings",
    "LockinSettings",
    "SpectrumSettings",
    "SweepSettings",
    "SnlMapSettings",
    "SaturationModel",
    "AnalysisSettings",
    "NoiseScanSettings",
    "ExperimentConfig",
    "validate_config",
    "parse_config_text",
    "load_config_file",
    "serialize_config",
    "apply_env_overrides",
    "UNIT_SCALE",
    "ENV_PREFIX",
]


class ConfigError(ValueError):
    """Invalid configuration value or file."""


# Exact unit conversion factors to SI.
UNIT_SCALE = {
    "T": 1.0,
    "uT": 1e-6,
    "nT": 1e-9,
    "Hz": 1.0,
    "kHz": 1e3,
    "W": 1.0,
    "uW": 1e-6,
    "mW": 1e-3,
    "m": 1.0,
    "cm": 1e-2,
    "ohm": 1.0,
    "V/A": 1.0,
}

ENV_PREFIX = "AMORSIM_"


def _key(default, bound=None, unit=None):
    """A key's field: its default, bound (a ``_BOUNDS`` tag, a tuple of the
    allowed strings, or None) and SI unit (None: it takes no suffix)."""
    return dc_field(default=default, metadata={"bound": bound, "unit": unit})


@dataclass
class AtomConfig:
    """Atomic-ensemble parameters.

    ``g_f`` defaults to 1/3 (the F=3 ground state of 85Rb), which maps
    7.6 uT to a 70.9 kHz resonant modulation frequency. ``relaxation_gamma``
    is the FWHM resonance width in Hz used for projection-noise estimates.
    """

    g_f: float = _key(1.0 / 3.0, ">0")
    density_n: float = _key(1.27e16, ">0")              # atoms / m^3
    cell_radius: float = _key(0.05, ">0", "m")
    relaxation_gamma: float = _key(10.0, ">0", "Hz")
    probe_wavelength: float = _key(795e-9, ">0", "m")

    @property
    def atom_number(self) -> float:
        """Total atoms in the spherical cell, n * (4/3) pi R^3."""
        return self.density_n * (4.0 / 3.0) * math.pi * self.cell_radius ** 3


def larmor_doubled_freq(b_field: float, atom: AtomConfig) -> float:
    """Resonant modulation frequency 2*Omega_L/2pi = 2 gF muB B / h, in Hz.

    Negative fields are rejected; the field magnitude is expected.
    """
    if b_field < 0:
        raise ValueError(f"b_field must be >= 0 (field magnitude), got {b_field!r}")
    return 2.0 * atom.g_f * CODATA.bohr_magneton * b_field / CODATA.planck_h


@dataclass
class DetectorConfig:
    """Balanced polarimeter / photodetector / analyzer-input parameters.

    The effective transimpedance gain is the nominal value times the
    headroom factor (impedance matching at the analyzer input halves the
    gain, hence the 1/2 default).
    """

    transimpedance_gain_nominal: float = _key(1e6, ">0", "V/A")
    gain_headroom_factor: float = _key(0.5, ">0")
    quantum_efficiency: float = _key(0.88, "(0,1]")
    analyzer_impedance: float = _key(50.0, ">0", "ohm")
    electronic_noise_floor: float = _key(0.0, ">=0")  # W/Hz (A coefficient)
    technical_noise_coef: float = _key(0.0, ">=0")    # W/(Hz W^2) (C coefficient)
    electronic_knee_freq: float = _key(20e3, ">=0", "Hz")  # A(f) rises below; 0 = flat

    @property
    def gain_effective(self) -> float:
        return self.transimpedance_gain_nominal * self.gain_headroom_factor


@dataclass
class FieldConfig:
    """Static field and modulation settings.

    The resonance sits at ``larmor_doubled_freq(b_field)``; the detuning
    is set through ``modulation_freq``, and leaving it unset means
    "modulate on resonance", which ``resolve`` fills in.
    """

    b_field: float = _key(7.6e-6, ">0", "T")
    modulation_freq: Optional[float] = _key(None, ">0|none", "Hz")

    def resolve(self, atom: AtomConfig) -> "FieldConfig":
        """Return a copy with modulation_freq populated."""
        if self.b_field < 0:
            raise ConfigError(f"field.b_field: negative value {self.b_field!r}")
        if self.modulation_freq is not None:
            return FieldConfig(self.b_field, self.modulation_freq)
        return FieldConfig(self.b_field, larmor_doubled_freq(self.b_field, atom))


@dataclass
class ResonanceSettings:
    """The operated resonance at ``sim.probe_power``: peak rotation, FWHM."""

    phi0: float = _key(2.5e-3, ">=0")    # rad
    gamma_fwhm: float = _key(60.0, ">0", "Hz")


@dataclass
class SimSettings:
    sample_rate: float = _key(320e3, ">0", "Hz")
    duration: float = _key(0.4, ">0")    # s
    probe_power: float = _key(80.5e-6, ">=0", "W")


@dataclass
class LockinSettings:
    output_bandwidth: float = _key(25.0, ">0", "Hz")


@dataclass
class SpectrumSettings:
    rbw: float = _key(30.0, ">0", "Hz")
    vbw: float = _key(30.0, ">0", "Hz")
    span: float = _key(40e3, ">0", "Hz")  # centered on the modulation frequency
    bg_window: float = _key(4e3, ">0", "Hz")  # background averaging window


@dataclass
class SweepSettings:
    power_min: float = _key(10e-6, unit="W")
    power_max: float = _key(700e-6, unit="W")
    power_points: int = _key(15, ">=2")
    power_scale: str = _key("log", ("log", "linear"))
    freq_halfspan_widths: float = _key(4.0, ">=1")  # +- this many FWHM around center
    freq_points: int = _key(61, ">=1")
    trace_avg: int = _key(4, ">=1")  # on/off trace pairs averaged per power


@dataclass
class SnlMapSettings:
    freq_min: float = _key(5e3, unit="Hz")
    freq_max: float = _key(105e3, unit="Hz")
    freq_bins: int = _key(11, ">=1")
    k_values: str = _key("1,2,4")
    second_gain_nominal: float = _key(5e5, ">0", "V/A")  # alternate detector

    def k_list(self) -> list[float]:
        try:
            ks = [float(tok) for tok in self.k_values.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"snlmap.k_values: unparseable {self.k_values!r}") from exc
        if not ks:
            raise ConfigError("snlmap.k_values: empty list")
        return ks


@dataclass
class SaturationModel:
    """The shape of the resonance's power response, scaled to ``resonance.*``
    at ``sim.probe_power`` (``cli._resonance``): amplitude saturates as
    P / (P + p_sat), the width broadens as p_broad + P. Both are
    placeholders for a pump/probe response that is measured, not derived.
    """

    p_sat: float = _key(15e-6, ">0", "W")
    p_broad: float = _key(40e-6, ">0", "W")


@dataclass
class AnalysisSettings:
    snl_k: float = _key(4.0, ">=1")


@dataclass
class NoiseScanSettings:
    # A zero-power point fixes the electronic term; it needs a nonzero
    # detector.electronic_noise_floor, which is 0 by default.
    include_zero: bool = _key(False)
    # Optional second scan at a different static field (hence detection
    # frequency); none = skip. Like the first scan, it reads the envelope of
    # the background window, so no sample rate needs to follow the field.
    second_b_field: Optional[float] = _key(75e-6, ">0|none", "T")


@dataclass
class ExperimentConfig:
    """Everything a scenario run needs, in SI units."""

    atom: AtomConfig = dc_field(default_factory=AtomConfig)
    detector: DetectorConfig = dc_field(default_factory=DetectorConfig)
    field: FieldConfig = dc_field(default_factory=FieldConfig)
    resonance: ResonanceSettings = dc_field(default_factory=ResonanceSettings)
    sim: SimSettings = dc_field(default_factory=SimSettings)
    lockin: LockinSettings = dc_field(default_factory=LockinSettings)
    spectrum: SpectrumSettings = dc_field(default_factory=SpectrumSettings)
    sweep: SweepSettings = dc_field(default_factory=SweepSettings)
    snlmap: SnlMapSettings = dc_field(default_factory=SnlMapSettings)
    saturation: SaturationModel = dc_field(default_factory=SaturationModel)
    analysis: AnalysisSettings = dc_field(default_factory=AnalysisSettings)
    noisescan: NoiseScanSettings = dc_field(default_factory=NoiseScanSettings)


def _require(cond: bool, key: str, value, rule: str) -> None:
    if not cond:
        raise ConfigError(f"{key}: {rule} (got {value!r})")


def _or_inf(derive) -> float:
    """derive(), or inf where Python float arithmetic overflows or divides
    by a zero that underflowed."""
    try:
        return derive()
    except (OverflowError, ZeroDivisionError):
        return math.inf


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Check each key against its ``_KEY_TABLE`` row, then the cross-key rules.

    Returns the config with derived values filled; raises ConfigError
    naming the first violated key and its value. No power is read here:
    each mode refuses the chain at the powers it reads.
    """
    for key, (section, attr, kind, bound, _unit) in _KEY_TABLE.items():
        value = getattr(getattr(cfg, section), attr)
        if (kind in ("f", "f?") and value is not None
                and not math.isfinite(value)):
            raise ConfigError(f"{key}: non-finite value {value!r}")
        if isinstance(bound, tuple):
            _require(value in bound, key, value,
                     "must be " + " or ".join(map(repr, bound)))
        elif bound is not None:
            check, rule = _BOUNDS[bound]
            _require(check(value), key, value, rule)

    # the polarimeter reads rotations in its small-angle range, where the
    # chain's gain is linear; far past it the synthesized series overflows
    _require(cfg.resonance.phi0 < 1.0, "resonance.phi0", cfg.resonance.phi0,
             "must be < 1 rad (small-angle rotation)")

    a = cfg.atom
    n_atoms = _or_inf(lambda: a.atom_number)
    _require(n_atoms > 0, "atom.density_n", a.density_n,
             "derived atom number must be > 0")
    _require(n_atoms < math.inf, "atom.cell_radius", a.cell_radius,
             "derived atom number must be finite")

    sw, sm = cfg.sweep, cfg.snlmap
    _require(0 < sw.power_min < sw.power_max, "sweep.power_min", sw.power_min,
             "must satisfy 0 < power_min < power_max")
    _require(0 < sm.freq_min < sm.freq_max, "snlmap.freq_min", sm.freq_min,
             "must satisfy 0 < freq_min < freq_max")
    for k in sm.k_list():
        _require(math.isfinite(k), "snlmap.k_values", k,
                 "every k must be finite")
        _require(k >= 1.0, "snlmap.k_values", k, "every k must be >= 1")
    from .detector import theory_budget  # detector imports config
    for key, gain in (("detector.transimpedance_gain_nominal",
                       cfg.detector.transimpedance_gain_nominal),
                      ("snlmap.second_gain_nominal", sm.second_gain_nominal)):
        try:  # the SNL map reads the budget at both gains
            budget = theory_budget(cfg, gain)
            per_watt = budget.coef_shot + budget.coef_tech
        except (OverflowError, ZeroDivisionError):
            per_watt = math.inf
        _require(per_watt < math.inf, key, gain, "derived shot and technical "
                 "terms, relative to detector.transimpedance_gain_nominal, "
                 "must be finite")

    for key, b in (("field.b_field", cfg.field.b_field),
                   ("noisescan.second_b_field", cfg.noisescan.second_b_field)):
        _require(b is None or 0.0 < larmor_doubled_freq(b, cfg.atom) < math.inf,
                 key, b, "derived resonance 2 atom.g_f mu_B B / h must be "
                 "> 0 Hz and finite")

    cfg.field = cfg.field.resolve(cfg.atom)
    # A(f) at snl-map's lowest bin and at the carrier; B, C are checked above
    for freq in (sm.freq_min, cfg.field.modulation_freq):
        elec = _or_inf(lambda: theory_budget(cfg, detection_freq=freq).coef_elec)
        _require(elec < math.inf, "detector.electronic_knee_freq",
                 cfg.detector.electronic_knee_freq, "derived electronic floor "
                 "at snlmap.freq_min and field.modulation_freq must be finite")
    return cfg


# ---------------------------------------------------------------------------
# Config file format
# ---------------------------------------------------------------------------

# key "section.attr" -> (section, attr, type tag, bound, unit), one row per
# field of each ExperimentConfig section: bound and unit from its ``_key``,
# the type tag from its annotation, a string under postponed evaluation.
_TYPE_TAGS = {"float": "f", "Optional[float]": "f?", "int": "i", "str": "s",
              "bool": "b"}
_KEY_TABLE = {
    f"{sec.name}.{key.name}": (sec.name, key.name, _TYPE_TAGS[key.type],
                               key.metadata["bound"], key.metadata["unit"])
    for sec in fields(ExperimentConfig) for key in fields(sec.default_factory)
}

# bound tag -> (predicate, rule quoted in the error message)
_BOUNDS = {
    ">0": (lambda v: v > 0, "must be > 0"),
    ">=0": (lambda v: v >= 0, "must be >= 0"),
    ">=1": (lambda v: v >= 1, "must be >= 1"),
    ">=2": (lambda v: v >= 2, "must be >= 2"),
    "(0,1]": (lambda v: 0.0 < v <= 1.0, "out of (0,1]"),
    ">0|none": (lambda v: v is None or v > 0, "must be > 0 (or none)"),
}


def _parse_number(key: str, text: str, unit: Optional[str]) -> float:
    """The SI value of ``value [suffix]``; a suffix must name a unit of the
    key's unit (a prefix letter and the unit, or the unit itself)."""
    parts = text.split()
    if len(parts) == 1:
        num, suffix = parts[0], None
    elif len(parts) == 2:
        num, suffix = parts
    else:
        raise ConfigError(f"{key}: expected 'value [unit]', got {text!r}")
    try:
        value = float(num)
    except ValueError as exc:
        raise ConfigError(f"{key}: unparseable number {num!r}") from exc
    if suffix is not None:
        if suffix not in UNIT_SCALE:
            raise ConfigError(f"{key}: unknown unit {suffix!r}")
        if unit is None:
            raise ConfigError(f"{key}: takes no unit, got {suffix!r}")
        if unit not in (suffix, suffix[1:]):
            raise ConfigError(f"{key}: unit {suffix!r} does not measure {unit}")
        value *= UNIT_SCALE[suffix]
    return value


def _assign(cfg: ExperimentConfig, key: str, raw: str) -> None:
    if key not in _KEY_TABLE:
        raise ConfigError(f"{key}: unknown configuration key")
    section, attr, kind, _bound, unit = _KEY_TABLE[key]
    raw = raw.strip()
    if kind == "f?" and raw.lower() == "none":
        value = None
    elif kind in ("f", "f?"):
        value = _parse_number(key, raw, unit)
    elif kind == "i":
        try:
            value = int(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: unparseable integer {raw!r}") from exc
    elif kind == "b":
        low = raw.lower()
        if low not in ("true", "false"):
            raise ConfigError(f"{key}: expected true/false, got {raw!r}")
        value = low == "true"
    else:
        value = raw
    setattr(getattr(cfg, section), attr, value)


def parse_config_text(text: str, base: Optional[ExperimentConfig] = None
                      ) -> ExperimentConfig:
    """Parse ``key = value [unit]`` lines on top of defaults (unvalidated)."""
    cfg = base if base is not None else ExperimentConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        _assign(cfg, key.strip(), raw)
    return cfg


def load_config_file(path: str | os.PathLike,
                     base: Optional[ExperimentConfig] = None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), base=base)


def apply_env_overrides(cfg: ExperimentConfig,
                        environ: Optional[dict] = None) -> ExperimentConfig:
    """Apply AMORSIM_SECTION__KEY environment overrides in place."""
    env = os.environ if environ is None else environ
    for name in sorted(env):
        if name.startswith(ENV_PREFIX):
            key = name[len(ENV_PREFIX):].replace("__", ".").lower()
            _assign(cfg, key, env[name])
    return cfg


def serialize_config(cfg: ExperimentConfig) -> str:
    """Dump all keys as SI-valued ``key = value`` lines.

    parse_config_text(serialize_config(cfg)) reproduces cfg exactly (floats
    are written with repr, which round-trips in double precision).
    """
    lines = []
    for key, (section, attr, kind, *_) in _KEY_TABLE.items():
        value = getattr(getattr(cfg, section), attr)
        if value is None:
            lines.append(f"{key} = none")
        elif kind == "b":
            lines.append(f"{key} = {'true' if value else 'false'}")
        elif kind in ("f", "f?"):
            lines.append(f"{key} = {value!r}")
        else:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def config_as_dict(cfg: ExperimentConfig) -> dict:
    """Flat key -> value mapping (SI) for manifests and reports."""
    return {key: getattr(getattr(cfg, section), attr)
            for key, (section, attr, *_) in _KEY_TABLE.items()}
