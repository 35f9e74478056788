"""Validated experiment configuration and the plain-text config file format.

The configuration is a bundle of small dataclasses. Everything is stored in
SI units internally; the file format accepts a limited set of unit suffixes
that are converted exactly once at parse time.

File grammar (UTF-8)::

    # comment
    key = value [unit]

with dotted keys (``atom.density_n``, ``spectrum.rbw`` ...). Unknown keys are
errors. Accepted unit suffixes: T, uT, nT, Hz, kHz, W, uW, mW, m, cm, ohm,
V/A. Values without a unit are taken as SI (or as plain strings / booleans
for non-numeric keys).

Any key can also be overridden from the environment with the prefix
``AMORSIM_`` and the dot replaced by a double underscore, e.g.
``AMORSIM_ATOM__DENSITY_N="1.3e16"``.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field
from typing import Optional

from .constants import CODATA, PhysicalConstants

__all__ = [
    "ConfigError",
    "AtomConfig",
    "DetectorConfig",
    "FieldConfig",
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


@dataclass
class AtomConfig:
    """Atomic-ensemble parameters.

    ``g_f`` defaults to 1/3 (the F=3 ground state of 85Rb), which maps
    7.6 uT to a 70.9 kHz resonant modulation frequency. ``relaxation_gamma``
    is the FWHM resonance width in Hz used for projection-noise estimates.
    """

    g_f: float = 1.0 / 3.0
    density_n: float = 1.27e16          # atoms / m^3
    cell_radius: float = 0.05           # m
    relaxation_gamma: float = 10.0      # Hz
    probe_wavelength: float = 795e-9    # m

    @property
    def atom_number(self) -> float:
        """Total atoms in the spherical cell, n * (4/3) pi R^3."""
        return self.density_n * (4.0 / 3.0) * math.pi * self.cell_radius ** 3

    def probe_freq(self, constants: PhysicalConstants = CODATA) -> float:
        """Optical frequency nu = c / lambda in Hz."""
        return constants.speed_of_light / self.probe_wavelength


@dataclass
class DetectorConfig:
    """Balanced polarimeter / photodetector / analyzer-input parameters.

    The effective transimpedance gain is the nominal value times the
    headroom factor (impedance matching at the analyzer input halves the
    gain, hence the 1/2 default).
    """

    transimpedance_gain_nominal: float = 1e6    # V/A
    gain_headroom_factor: float = 0.5
    quantum_efficiency: float = 0.88
    analyzer_impedance_r: float = 50.0          # ohm
    electronic_noise_floor: float = 0.0         # W/Hz (A coefficient)
    technical_noise_coef: float = 0.0           # W/(Hz W^2) (C coefficient)
    photocurrent_convention: str = "physical"   # "physical" | "as_printed"

    @property
    def gain_effective(self) -> float:
        return self.transimpedance_gain_nominal * self.gain_headroom_factor


@dataclass
class FieldConfig:
    """Static field and modulation settings.

    ``detuning_delta`` is Delta = Omega_m - 2*Omega_L in rad/s. Leaving
    ``modulation_freq`` unset means "modulate on resonance"; ``resolve``
    fills both derived values from the atom configuration.
    """

    b_field: Optional[float] = 7.6e-6       # T
    modulation_freq: Optional[float] = None  # Hz
    detuning_delta: Optional[float] = None   # rad/s

    def resolve(self, atom: AtomConfig,
                constants: PhysicalConstants = CODATA) -> "FieldConfig":
        """Return a copy with modulation_freq and detuning_delta populated."""
        if self.b_field is None:
            if self.modulation_freq is None or self.detuning_delta is None:
                raise ConfigError(
                    "field.b_field: unset; need explicit modulation_freq "
                    "and detuning_delta instead"
                )
            return FieldConfig(None, self.modulation_freq, self.detuning_delta)
        if self.b_field < 0:
            raise ConfigError(f"field.b_field: negative value {self.b_field!r}")
        resonant = (2.0 * atom.g_f * constants.bohr_magneton * self.b_field
                    / constants.planck_h)
        mod = self.modulation_freq if self.modulation_freq is not None else resonant
        delta = 2.0 * math.pi * (mod - resonant)
        if self.detuning_delta is not None:
            scale = max(abs(delta), abs(self.detuning_delta), 1.0)
            if abs(self.detuning_delta - delta) > 1e-6 * scale:
                raise ConfigError(
                    "field.detuning_delta: inconsistent with b_field and "
                    f"modulation_freq (given {self.detuning_delta!r}, "
                    f"derived {delta!r})"
                )
        return FieldConfig(self.b_field, mod, delta)


@dataclass
class ResonanceSettings:
    """Operated resonance shape: peak rotation amplitude and FWHM width."""

    phi0: float = 2.5e-3        # rad
    gamma_fwhm: float = 60.0    # Hz


@dataclass
class SimSettings:
    sample_rate: float = 320e3  # Hz
    duration: float = 0.4       # s
    probe_power: float = 80.5e-6  # W


@dataclass
class LockinSettings:
    output_bandwidth: float = 25.0  # Hz


@dataclass
class SpectrumSettings:
    rbw: float = 30.0       # Hz
    vbw: float = 30.0       # Hz
    span: float = 40e3      # Hz, centered on the modulation frequency
    bg_window: float = 4e3  # Hz, background averaging window


@dataclass
class SweepSettings:
    power_min: float = 10e-6    # W
    power_max: float = 700e-6   # W
    power_points: int = 15
    power_scale: str = "log"    # "log" | "linear"
    freq_halfspan_widths: float = 4.0  # sweep +- this many FWHM around center
    freq_points: int = 61
    trace_avg: int = 4  # spectrum pairs averaged per sensitivity-sweep point


@dataclass
class SnlMapSettings:
    freq_min: float = 5e3    # Hz
    freq_max: float = 105e3  # Hz
    freq_bins: int = 11
    k_values: str = "1,2,4"
    second_gain_nominal: float = 5e5  # V/A, alternate detector setting
    jitter_rel: float = 0.02          # synthetic PSD estimator scatter
    elec_knee_freq: float = 20e3      # Hz; A(f) rises below this, 0 = flat

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
    """Configurable power response of the operated resonance.

    Amplitude saturates as phi0_scale * P / (P + p_sat); the width broadens
    linearly as gamma0 * (1 + P / p_broad). Both are placeholders for a
    pump/probe response that is measured, not derived.
    """

    phi0_scale: float = 3e-3   # rad
    p_sat: float = 15e-6       # W
    gamma0: float = 20.0       # Hz
    p_broad: float = 40e-6     # W

    def phi0_at(self, power: float) -> float:
        return self.phi0_scale * power / (power + self.p_sat)

    def gamma_at(self, power: float) -> float:
        return self.gamma0 * (1.0 + power / self.p_broad)


@dataclass
class AnalysisSettings:
    snl_k: float = 4.0
    integration_time: float = 1.0  # s, for the projection-noise estimate


@dataclass
class NoiseScanSettings:
    include_zero: bool = True
    # Optional second scan at a different static field (hence detection
    # frequency); none = skip. The sample rate adapts automatically.
    second_b_field: Optional[float] = 75e-6  # T


@dataclass
class ExperimentConfig:
    """Everything a scenario run needs, in SI units."""

    atom: AtomConfig = field(default_factory=AtomConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    field_cfg: FieldConfig = field(default_factory=FieldConfig)
    resonance: ResonanceSettings = field(default_factory=ResonanceSettings)
    sim: SimSettings = field(default_factory=SimSettings)
    lockin: LockinSettings = field(default_factory=LockinSettings)
    spectrum: SpectrumSettings = field(default_factory=SpectrumSettings)
    sweep: SweepSettings = field(default_factory=SweepSettings)
    snlmap: SnlMapSettings = field(default_factory=SnlMapSettings)
    saturation: SaturationModel = field(default_factory=SaturationModel)
    analysis: AnalysisSettings = field(default_factory=AnalysisSettings)
    noisescan: NoiseScanSettings = field(default_factory=NoiseScanSettings)
    constants: PhysicalConstants = field(default_factory=lambda: CODATA)


def _require(cond: bool, key: str, value, rule: str) -> None:
    if not cond:
        raise ConfigError(f"{key}: {rule} (got {value!r})")


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Check every invariant and return the config with derived values filled.

    Raises ConfigError naming the first violated field and its value.
    """
    cfg.constants.validate()
    a = cfg.atom
    _require(a.g_f != 0.0, "atom.g_f", a.g_f, "must be nonzero")
    _require(a.density_n > 0, "atom.density_n", a.density_n, "must be > 0")
    _require(a.cell_radius > 0, "atom.cell_radius", a.cell_radius, "must be > 0")
    _require(a.relaxation_gamma > 0, "atom.relaxation_gamma",
             a.relaxation_gamma, "must be > 0")
    _require(a.probe_wavelength > 0, "atom.probe_wavelength",
             a.probe_wavelength, "must be > 0")
    _require(a.atom_number > 0, "atom.density_n", a.density_n,
             "derived atom number must be > 0")

    d = cfg.detector
    _require(0.0 < d.quantum_efficiency <= 1.0, "detector.quantum_efficiency",
             d.quantum_efficiency, "out of (0,1]")
    _require(d.analyzer_impedance_r > 0, "detector.analyzer_impedance",
             d.analyzer_impedance_r, "must be > 0")
    _require(d.electronic_noise_floor >= 0, "detector.electronic_noise_floor",
             d.electronic_noise_floor, "must be >= 0")
    _require(d.technical_noise_coef >= 0, "detector.technical_noise_coef",
             d.technical_noise_coef, "must be >= 0")
    _require(d.transimpedance_gain_nominal > 0,
             "detector.transimpedance_gain_nominal",
             d.transimpedance_gain_nominal, "must be > 0")
    _require(d.gain_headroom_factor > 0, "detector.gain_headroom_factor",
             d.gain_headroom_factor, "must be > 0")
    _require(d.photocurrent_convention in ("physical", "as_printed"),
             "detector.photocurrent_convention", d.photocurrent_convention,
             "must be 'physical' or 'as_printed'")

    r = cfg.resonance
    _require(r.phi0 >= 0, "resonance.phi0", r.phi0, "must be >= 0")
    _require(r.gamma_fwhm > 0, "resonance.gamma_fwhm", r.gamma_fwhm, "must be > 0")

    s = cfg.sim
    _require(s.sample_rate > 0, "sim.sample_rate", s.sample_rate, "must be > 0")
    _require(s.duration > 0, "sim.duration", s.duration, "must be > 0")
    _require(s.probe_power >= 0, "sim.probe_power", s.probe_power, "must be >= 0")

    _require(cfg.lockin.output_bandwidth > 0, "lockin.output_bandwidth",
             cfg.lockin.output_bandwidth, "must be > 0")

    sp = cfg.spectrum
    for key, val in (("rbw", sp.rbw), ("vbw", sp.vbw), ("span", sp.span),
                     ("bg_window", sp.bg_window)):
        _require(val > 0, f"spectrum.{key}", val, "must be > 0")

    sw = cfg.sweep
    _require(0 < sw.power_min < sw.power_max, "sweep.power_min", sw.power_min,
             "must satisfy 0 < power_min < power_max")
    _require(sw.power_points >= 2, "sweep.power_points", sw.power_points,
             "must be >= 2")
    _require(sw.power_scale in ("log", "linear"), "sweep.power_scale",
             sw.power_scale, "must be 'log' or 'linear'")
    _require(sw.freq_points >= 1, "sweep.freq_points", sw.freq_points,
             "must be >= 1")
    _require(sw.freq_halfspan_widths > 0, "sweep.freq_halfspan_widths",
             sw.freq_halfspan_widths, "must be > 0")
    _require(sw.trace_avg >= 1, "sweep.trace_avg", sw.trace_avg,
             "must be >= 1")

    sm = cfg.snlmap
    _require(0 < sm.freq_min < sm.freq_max, "snlmap.freq_min", sm.freq_min,
             "must satisfy 0 < freq_min < freq_max")
    _require(sm.freq_bins >= 1, "snlmap.freq_bins", sm.freq_bins, "must be >= 1")
    _require(sm.second_gain_nominal > 0, "snlmap.second_gain_nominal",
             sm.second_gain_nominal, "must be > 0")
    _require(sm.jitter_rel >= 0, "snlmap.jitter_rel", sm.jitter_rel,
             "must be >= 0")
    _require(sm.elec_knee_freq >= 0, "snlmap.elec_knee_freq",
             sm.elec_knee_freq, "must be >= 0")
    for k in sm.k_list():
        _require(k >= 1.0, "snlmap.k_values", k, "every k must be >= 1")

    ns = cfg.noisescan
    if ns.second_b_field is not None:
        _require(ns.second_b_field > 0, "noisescan.second_b_field",
                 ns.second_b_field, "must be > 0 (or none)")

    sat = cfg.saturation
    _require(sat.phi0_scale >= 0, "saturation.phi0_scale", sat.phi0_scale,
             "must be >= 0")
    _require(sat.p_sat > 0, "saturation.p_sat", sat.p_sat, "must be > 0")
    _require(sat.gamma0 > 0, "saturation.gamma0", sat.gamma0, "must be > 0")
    _require(sat.p_broad > 0, "saturation.p_broad", sat.p_broad, "must be > 0")

    _require(cfg.analysis.snl_k >= 1.0, "analysis.snl_k", cfg.analysis.snl_k,
             "must be >= 1")
    _require(cfg.analysis.integration_time > 0, "analysis.integration_time",
             cfg.analysis.integration_time, "must be > 0")

    cfg.field_cfg = cfg.field_cfg.resolve(cfg.atom, cfg.constants)
    mod = cfg.field_cfg.modulation_freq
    if mod is not None and mod > 0:
        _require(s.sample_rate > 4.0 * mod, "sim.sample_rate", s.sample_rate,
                 f"must exceed 4x the modulation frequency ({mod!r} Hz)")
    return cfg


# ---------------------------------------------------------------------------
# Config file format
# ---------------------------------------------------------------------------

# key -> (section attr, field attr, type tag). Type tags: "f" float (SI or
# unit-suffixed), "i" int, "s" string, "b" bool, "f?" optional float.
_KEY_TABLE = {
    "atom.g_f": ("atom", "g_f", "f"),
    "atom.density_n": ("atom", "density_n", "f"),
    "atom.cell_radius": ("atom", "cell_radius", "f"),
    "atom.relaxation_gamma": ("atom", "relaxation_gamma", "f"),
    "atom.probe_wavelength": ("atom", "probe_wavelength", "f"),
    "detector.transimpedance_gain_nominal": ("detector", "transimpedance_gain_nominal", "f"),
    "detector.gain_headroom_factor": ("detector", "gain_headroom_factor", "f"),
    "detector.quantum_efficiency": ("detector", "quantum_efficiency", "f"),
    "detector.analyzer_impedance": ("detector", "analyzer_impedance_r", "f"),
    "detector.electronic_noise_floor": ("detector", "electronic_noise_floor", "f"),
    "detector.technical_noise_coef": ("detector", "technical_noise_coef", "f"),
    "detector.photocurrent_convention": ("detector", "photocurrent_convention", "s"),
    "field.b_field": ("field_cfg", "b_field", "f?"),
    "field.modulation_freq": ("field_cfg", "modulation_freq", "f?"),
    "field.detuning_delta": ("field_cfg", "detuning_delta", "f?"),
    "resonance.phi0": ("resonance", "phi0", "f"),
    "resonance.gamma_fwhm": ("resonance", "gamma_fwhm", "f"),
    "sim.sample_rate": ("sim", "sample_rate", "f"),
    "sim.duration": ("sim", "duration", "f"),
    "sim.probe_power": ("sim", "probe_power", "f"),
    "lockin.output_bandwidth": ("lockin", "output_bandwidth", "f"),
    "spectrum.rbw": ("spectrum", "rbw", "f"),
    "spectrum.vbw": ("spectrum", "vbw", "f"),
    "spectrum.span": ("spectrum", "span", "f"),
    "spectrum.bg_window": ("spectrum", "bg_window", "f"),
    "sweep.power_min": ("sweep", "power_min", "f"),
    "sweep.power_max": ("sweep", "power_max", "f"),
    "sweep.power_points": ("sweep", "power_points", "i"),
    "sweep.power_scale": ("sweep", "power_scale", "s"),
    "sweep.freq_halfspan_widths": ("sweep", "freq_halfspan_widths", "f"),
    "sweep.freq_points": ("sweep", "freq_points", "i"),
    "sweep.trace_avg": ("sweep", "trace_avg", "i"),
    "snlmap.freq_min": ("snlmap", "freq_min", "f"),
    "snlmap.freq_max": ("snlmap", "freq_max", "f"),
    "snlmap.freq_bins": ("snlmap", "freq_bins", "i"),
    "snlmap.k_values": ("snlmap", "k_values", "s"),
    "snlmap.second_gain_nominal": ("snlmap", "second_gain_nominal", "f"),
    "snlmap.jitter_rel": ("snlmap", "jitter_rel", "f"),
    "snlmap.elec_knee_freq": ("snlmap", "elec_knee_freq", "f"),
    "saturation.phi0_scale": ("saturation", "phi0_scale", "f"),
    "saturation.p_sat": ("saturation", "p_sat", "f"),
    "saturation.gamma0": ("saturation", "gamma0", "f"),
    "saturation.p_broad": ("saturation", "p_broad", "f"),
    "analysis.snl_k": ("analysis", "snl_k", "f"),
    "analysis.integration_time": ("analysis", "integration_time", "f"),
    "noisescan.include_zero": ("noisescan", "include_zero", "b"),
    "noisescan.second_b_field": ("noisescan", "second_b_field", "f?"),
}


def _parse_number(key: str, text: str) -> float:
    parts = text.split()
    if len(parts) == 1:
        num, unit = parts[0], None
    elif len(parts) == 2:
        num, unit = parts
    else:
        raise ConfigError(f"{key}: expected 'value [unit]', got {text!r}")
    try:
        value = float(num)
    except ValueError as exc:
        raise ConfigError(f"{key}: unparseable number {num!r}") from exc
    if unit is not None:
        if unit not in UNIT_SCALE:
            raise ConfigError(f"{key}: unknown unit {unit!r}")
        value *= UNIT_SCALE[unit]
    if not math.isfinite(value):
        raise ConfigError(f"{key}: non-finite value {text!r}")
    return value


def _assign(cfg: ExperimentConfig, key: str, raw: str) -> None:
    if key not in _KEY_TABLE:
        raise ConfigError(f"{key}: unknown configuration key")
    section, attr, kind = _KEY_TABLE[key]
    raw = raw.strip()
    if kind in ("f", "f?"):
        if kind == "f?" and raw.lower() == "none":
            value = None
        else:
            value = _parse_number(key, raw)
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
    for key in _KEY_TABLE:
        env_name = ENV_PREFIX + key.replace(".", "__").upper()
        if env_name in env:
            _assign(cfg, key, env[env_name])
    return cfg


def serialize_config(cfg: ExperimentConfig) -> str:
    """Dump all keys as SI-valued ``key = value`` lines.

    parse_config_text(serialize_config(cfg)) reproduces cfg exactly (floats
    are written with repr, which round-trips in double precision).
    """
    lines = []
    for key, (section, attr, kind) in _KEY_TABLE.items():
        value = getattr(getattr(cfg, section), attr)
        if value is None:
            if kind == "f?":
                lines.append(f"{key} = none")
            continue
        if kind == "b":
            lines.append(f"{key} = {'true' if value else 'false'}")
        elif kind in ("f", "f?"):
            lines.append(f"{key} = {value!r}")
        else:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def config_as_dict(cfg: ExperimentConfig) -> dict:
    """Flat key -> value mapping (SI) for manifests and reports."""
    out = {}
    for key, (section, attr, _kind) in _KEY_TABLE.items():
        out[key] = getattr(getattr(cfg, section), attr)
    return out
