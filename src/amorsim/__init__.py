"""Simulation and analysis toolkit for a modulated optical-rotation
magnetometer signal chain: rotation-signal synthesis with shot noise,
a detection-electronics model, lock-in demodulation, spectrum-analyzer
emulation, resonance and noise-budget fitting, and sensitivity reports.
"""

__version__ = "0.1.0"

from .analysis import (
    SnlRange,
    classify_operating_point,
    compute_snr,
    projection_noise,
    quadrature_slope,
    sensitivity,
    sensitivity_from_noise_density,
    snl_map,
    snl_range,
)
from .config import (
    AnalysisSettings,
    AtomConfig,
    ConfigError,
    DetectorConfig,
    ExperimentConfig,
    FieldConfig,
    LockinSettings,
    NoiseScanSettings,
    ResonanceSettings,
    SaturationModel,
    SimSettings,
    SnlMapSettings,
    SpectrumSettings,
    SweepSettings,
    load_config_file,
    parse_config_text,
    serialize_config,
    validate_config,
)
from .constants import CODATA
from .detector import (
    DetectedTimeSeries,
    NoiseBudget,
    angle_gain_from_chain,
    detect,
    photocurrent,
    theoretical_shot_noise_level,
    theory_budget,
)
from .dsp import (
    PowerSpectrum,
    ResonanceCurve,
    lock_in_demodulate,
    peak_and_background,
    psd_estimate,
    sweep_resonance,
)
from .fitting import (
    FitError,
    LorentzianFit,
    LorentzianGuess,
    auto_initial_guess,
    fit_lorentzian,
    fit_noise_polynomial,
)
from .signal_model import (
    ResonanceParams,
    RotationTimeSeries,
    larmor_doubled_freq,
    lorentzian_quadratures,
    photon_flux,
    shot_noise_angle_density,
    synthesize_rotation,
)

__all__ = [
    "__version__",
    # constants / config
    "CODATA",
    "AtomConfig", "DetectorConfig", "FieldConfig", "ResonanceSettings",
    "SimSettings", "LockinSettings", "SpectrumSettings", "SweepSettings",
    "SnlMapSettings", "SaturationModel", "AnalysisSettings",
    "NoiseScanSettings", "ExperimentConfig", "ConfigError",
    "validate_config", "parse_config_text", "load_config_file",
    "serialize_config",
    # signal model
    "ResonanceParams", "RotationTimeSeries", "larmor_doubled_freq",
    "lorentzian_quadratures", "photon_flux", "shot_noise_angle_density",
    "synthesize_rotation",
    # detector
    "DetectedTimeSeries", "NoiseBudget", "photocurrent", "theory_budget",
    "theoretical_shot_noise_level", "angle_gain_from_chain", "detect",
    # dsp
    "ResonanceCurve", "PowerSpectrum", "lock_in_demodulate",
    "sweep_resonance", "psd_estimate", "peak_and_background",
    # fitting
    "FitError", "LorentzianGuess", "LorentzianFit",
    "auto_initial_guess", "fit_lorentzian", "fit_noise_polynomial",
    # analysis
    "SnlRange", "compute_snr", "quadrature_slope",
    "sensitivity", "sensitivity_from_noise_density", "projection_noise",
    "snl_range", "snl_map", "classify_operating_point",
]
