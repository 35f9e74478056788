import json
import math
from pathlib import Path
from typing import Optional, get_type_hints

import numpy as np
import pytest

from amorsim.cli import ScenarioSpec, _run_simulate, main
from amorsim.config import (
    _KEY_TABLE,
    AtomConfig,
    ConfigError,
    ExperimentConfig,
    FieldConfig,
    apply_env_overrides,
    config_as_dict,
    larmor_doubled_freq,
    load_config_file,
    parse_config_text,
    serialize_config,
    validate_config,
)
from amorsim.signal_model import (
    ResonanceParams,
    coherent_rotation,
    lorentzian_quadratures,
)


def test_defaults_validate():
    cfg = validate_config(ExperimentConfig())
    assert cfg.field.modulation_freq == pytest.approx(70914.307579755)
    assert cfg.field.modulation_freq == larmor_doubled_freq(
        cfg.field.b_field, cfg.atom)


def test_serialize_parse_round_trip():
    cfg = validate_config(ExperimentConfig())
    text = serialize_config(cfg)
    again = parse_config_text(text)
    assert config_as_dict(again) == config_as_dict(cfg)
    # and the serialization itself is a fixpoint
    assert serialize_config(again) == text


def test_unit_suffixes():
    cfg = parse_config_text(
        "field.b_field = 7.6 uT\n"
        "sim.probe_power = 80.5 uW\n"
        "spectrum.rbw = 30 Hz\n"
        "spectrum.span = 40 kHz\n"
        "atom.cell_radius = 5 cm\n"
        "detector.analyzer_impedance = 50 ohm\n"
    )
    assert cfg.field.b_field == 7.6 * 1e-6
    assert cfg.sim.probe_power == 80.5 * 1e-6
    assert cfg.spectrum.rbw == 30.0
    assert cfg.spectrum.span == 40.0 * 1e3
    assert cfg.atom.cell_radius == 5.0 * 1e-2
    assert cfg.detector.analyzer_impedance == 50.0


def test_comments_and_blank_lines_ignored():
    cfg = parse_config_text(
        "# a comment\n"
        "\n"
        "resonance.phi0 = 1e-3  # trailing comment\n"
    )
    assert cfg.resonance.phi0 == 1e-3


@pytest.mark.parametrize("line,fragment", [
    ("nonsense.key = 1", "unknown configuration key"),
    ("analysis.integration_time = 1.0", "unknown configuration key"),
    ("resonance.phi0 = abc", "unparseable number"),
    ("resonance.phi0 = 1 furlong", "unknown unit"),
    ("resonance.phi0 = 1 2 3", "expected 'value [unit]'"),
    ("just a line without equals", "expected 'key = value'"),
    ("sweep.power_points = 2.5", "unparseable integer"),
    ("noisescan.include_zero = maybe", "expected true/false"),
])
def test_parse_errors(line, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config_text(line)
    assert fragment in str(err.value)


@pytest.mark.parametrize("key,value,named", [
    ("detector.quantum_efficiency", "1.5", "detector.quantum_efficiency"),
    ("resonance.gamma_fwhm", "0", "resonance.gamma_fwhm"),
    ("atom.density_n", "-1", "atom.density_n"),
    ("sweep.power_scale", "cubic", "sweep.power_scale"),
    ("analysis.snl_k", "0.5", "analysis.snl_k"),
    ("snlmap.k_values", "2,0.1", "snlmap.k_values"),
])
def test_validation_names_offending_key(key, value, named):
    cfg = parse_config_text(f"{key} = {value}")
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert named in str(err.value)


def test_env_overrides():
    cfg = ExperimentConfig()
    apply_env_overrides(cfg, environ={
        "AMORSIM_RESONANCE__GAMMA_FWHM": "80 Hz",
        "AMORSIM_SWEEP__POWER_POINTS": "9",
        "AMORSIM_NOISESCAN__INCLUDE_ZERO": "true",
        "SOMETHING_ELSE": "ignored",
    })
    assert cfg.resonance.gamma_fwhm == 80.0
    assert cfg.sweep.power_points == 9
    assert cfg.noisescan.include_zero is True


def test_env_override_bad_value_raises():
    with pytest.raises(ConfigError):
        apply_env_overrides(ExperimentConfig(),
                            environ={"AMORSIM_SPECTRUM__RBW": "fast"})


def test_optional_float_none():
    cfg = parse_config_text("noisescan.second_b_field = none")
    assert cfg.noisescan.second_b_field is None
    assert "noisescan.second_b_field = none" in serialize_config(cfg)


def test_field_resolution_fills_resonant_modulation():
    atom = AtomConfig()
    resolved = FieldConfig(b_field=7.6e-6).resolve(atom)
    assert resolved.modulation_freq == pytest.approx(70914.307579755)
    assert resolved.modulation_freq == larmor_doubled_freq(7.6e-6, atom)


def test_field_resolution_detuning_from_modulation():
    # modulated 100 Hz above the field's resonance, the synthesized tone
    # (a constant envelope around the carrier) is the Lorentzian there
    cfg = ExperimentConfig()
    cfg.field.modulation_freq = larmor_doubled_freq(
        cfg.field.b_field, cfg.atom) + 100.0
    field = validate_config(cfg).field
    res = ResonanceParams(2.5e-3, 60.0,
                          larmor_doubled_freq(field.b_field, cfg.atom))
    wave = coherent_rotation(res, field.modulation_freq, 1000.0, 10,
                             field.modulation_freq)
    phi_p, phi_q = lorentzian_quadratures(2 * math.pi * 100.0, res)
    np.testing.assert_allclose(wave, 0.5 * (phi_p - 1j * phi_q),
                               rtol=1e-9, atol=0)


def test_field_resolution_rejects_negative_field():
    with pytest.raises(ConfigError, match="b_field"):
        FieldConfig(b_field=-1e-6).resolve(AtomConfig())


def test_sample_rate_must_clear_modulation(tmp_path):
    cfg = parse_config_text("sim.sample_rate = 100 kHz")  # 4x 70.9 kHz > 100k
    validate_config(cfg)  # only simulate samples the real series
    with pytest.raises(ConfigError, match="sim.sample_rate"):
        _run_simulate(cfg, ScenarioSpec("simulate"))
    path = tmp_path / "run.cfg"
    path.write_text("sim.sample_rate = 100 kHz\n")
    assert main(["simulate", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("resonance.phi0 = 1.5e-3\n")
    cfg = load_config_file(path)
    assert cfg.resonance.phi0 == 1.5e-3


def test_atom_number():
    atom = AtomConfig(density_n=1.27e16, cell_radius=0.05)
    expected = 1.27e16 * (4.0 / 3.0) * math.pi * 0.05 ** 3
    assert atom.atom_number == pytest.approx(expected, rel=1e-12)


def test_k_list_parsing():
    cfg = parse_config_text("snlmap.k_values = 1, 2, 4\n")
    assert cfg.snlmap.k_list() == [1.0, 2.0, 4.0]
    bad = parse_config_text("snlmap.k_values = 1;2\n")
    with pytest.raises(ConfigError):
        bad.snlmap.k_list()


@pytest.mark.parametrize("section,attr,key,value", [
    ("sim", "duration", "sim.duration", math.inf),
    ("sim", "probe_power", "sim.probe_power", math.inf),
    ("detector", "electronic_noise_floor", "detector.electronic_noise_floor",
     math.inf),
    ("resonance", "phi0", "resonance.phi0", math.inf),
    ("atom", "g_f", "atom.g_f", math.nan),
])
def test_validation_rejects_non_finite_set_through_api(section, attr, key,
                                                       value):
    cfg = ExperimentConfig()
    setattr(getattr(cfg, section), attr, value)
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert key in str(err.value)
    assert "non-finite" in str(err.value)


# One bad value per bounded key, then every rule that spans keys. The
# messages are written out so that a change to any rule text shows here.
BOUND_VIOLATIONS = [
    ('atom.g_f', '0',
     'atom.g_f: must be > 0 (got 0.0)'),
    ('atom.g_f', '-0.3333333333333333',
     'atom.g_f: must be > 0 (got -0.3333333333333333)'),
    ('atom.density_n', '-1',
     'atom.density_n: must be > 0 (got -1.0)'),
    ('atom.cell_radius', '0',
     'atom.cell_radius: must be > 0 (got 0.0)'),
    ('atom.relaxation_gamma', '0 Hz',
     'atom.relaxation_gamma: must be > 0 (got 0.0)'),
    ('atom.probe_wavelength', '-795e-9',
     'atom.probe_wavelength: must be > 0 (got -7.95e-07)'),
    ('detector.transimpedance_gain_nominal', '0 V/A',
     'detector.transimpedance_gain_nominal: must be > 0 (got 0.0)'),
    ('detector.gain_headroom_factor', '0',
     'detector.gain_headroom_factor: must be > 0 (got 0.0)'),
    ('detector.quantum_efficiency', '1.5',
     'detector.quantum_efficiency: out of (0,1] (got 1.5)'),
    ('detector.quantum_efficiency', '0',
     'detector.quantum_efficiency: out of (0,1] (got 0.0)'),
    ('detector.analyzer_impedance', '0 ohm',
     'detector.analyzer_impedance: must be > 0 (got 0.0)'),
    ('detector.electronic_noise_floor', '-1e-14',
     'detector.electronic_noise_floor: must be >= 0 (got -1e-14)'),
    ('detector.electronic_knee_freq', '-1 kHz',
     'detector.electronic_knee_freq: must be >= 0 (got -1000.0)'),
    ('detector.technical_noise_coef', '-1.8e-6',
     'detector.technical_noise_coef: must be >= 0 (got -1.8e-06)'),
    ('resonance.phi0', '-1e-3',
     'resonance.phi0: must be >= 0 (got -0.001)'),
    ('resonance.gamma_fwhm', '0 Hz',
     'resonance.gamma_fwhm: must be > 0 (got 0.0)'),
    ('sim.sample_rate', '0',
     'sim.sample_rate: must be > 0 (got 0.0)'),
    ('sim.duration', '0',
     'sim.duration: must be > 0 (got 0.0)'),
    ('sim.probe_power', '-1 uW',
     'sim.probe_power: must be >= 0 (got -1e-06)'),
    ('lockin.output_bandwidth', '0 Hz',
     'lockin.output_bandwidth: must be > 0 (got 0.0)'),
    ('spectrum.rbw', '0',
     'spectrum.rbw: must be > 0 (got 0.0)'),
    ('spectrum.vbw', '-30 Hz',
     'spectrum.vbw: must be > 0 (got -30.0)'),
    ('spectrum.span', '0 kHz',
     'spectrum.span: must be > 0 (got 0.0)'),
    ('spectrum.bg_window', '0',
     'spectrum.bg_window: must be > 0 (got 0.0)'),
    ('sweep.power_points', '1',
     'sweep.power_points: must be >= 2 (got 1)'),
    ('sweep.power_scale', 'cubic',
     "sweep.power_scale: must be 'log' or 'linear' (got 'cubic')"),
    ('sweep.freq_halfspan_widths', '0',
     'sweep.freq_halfspan_widths: must be >= 1 (got 0.0)'),
    ('sweep.freq_halfspan_widths', '0.5',
     'sweep.freq_halfspan_widths: must be >= 1 (got 0.5)'),
    ('sweep.freq_points', '0',
     'sweep.freq_points: must be >= 1 (got 0)'),
    ('sweep.trace_avg', '0',
     'sweep.trace_avg: must be >= 1 (got 0)'),
    ('snlmap.freq_bins', '0',
     'snlmap.freq_bins: must be >= 1 (got 0)'),
    ('snlmap.second_gain_nominal', '0 V/A',
     'snlmap.second_gain_nominal: must be > 0 (got 0.0)'),
    ('saturation.p_sat', '0 uW',
     'saturation.p_sat: must be > 0 (got 0.0)'),
    ('saturation.p_broad', '0',
     'saturation.p_broad: must be > 0 (got 0.0)'),
    ('analysis.snl_k', '0.5',
     'analysis.snl_k: must be >= 1 (got 0.5)'),
    ('noisescan.second_b_field', '0 uT',
     'noisescan.second_b_field: must be > 0 (or none) (got 0.0)'),
    ('resonance.phi0', '1',
     'resonance.phi0: must be < 1 rad (small-angle rotation) (got 1.0)'),
    ('atom.cell_radius', '1e-110',
     'atom.density_n: derived atom number must be > 0 (got 1.27e+16)'),
    ('atom.cell_radius', '1e100',
     'atom.cell_radius: derived atom number must be finite (got 1e+100)'),
    ('atom.cell_radius', '1e300',
     'atom.cell_radius: derived atom number must be finite (got 1e+300)'),
    ('sweep.power_min', '0',
     'sweep.power_min: must satisfy 0 < power_min < power_max (got 0.0)'),
    ('sweep.power_max', '5 uW',
     'sweep.power_min: must satisfy 0 < power_min < power_max (got 1e-05)'),
    ('snlmap.freq_min', '0',
     'snlmap.freq_min: must satisfy 0 < freq_min < freq_max (got 0.0)'),
    ('snlmap.freq_max', '1 kHz',
     'snlmap.freq_min: must satisfy 0 < freq_min < freq_max (got 5000.0)'),
    ('snlmap.k_values', '2,0.5',
     'snlmap.k_values: every k must be >= 1 (got 0.5)'),
    ('snlmap.k_values', '1,inf',
     'snlmap.k_values: every k must be finite (got inf)'),
    ('snlmap.k_values', '1,1e400',
     'snlmap.k_values: every k must be finite (got inf)'),
    ('snlmap.k_values', '1;2',
     "snlmap.k_values: unparseable '1;2'"),
    ('snlmap.k_values', '',
     'snlmap.k_values: empty list'),
    ('field.b_field', '-1 uT',
     'field.b_field: must be > 0 (got -1e-06)'),
    ('field.b_field', '0',
     'field.b_field: must be > 0 (got 0.0)'),
    ('field.b_field', 'none',
     "field.b_field: unparseable number 'none'"),
    ('field.modulation_freq', '-5',
     'field.modulation_freq: must be > 0 (or none) (got -5.0)'),
    ('field.modulation_freq', '0 Hz',
     'field.modulation_freq: must be > 0 (or none) (got 0.0)'),
    # a field whose doubled Larmor frequency overflows, or underflows to 0
    ('field.b_field', '1e300',
     'field.b_field: derived resonance 2 atom.g_f mu_B B / h must be > 0 Hz '
     'and finite (got 1e+300)'),
    ('field.b_field', '1e-320',
     'field.b_field: derived resonance 2 atom.g_f mu_B B / h must be > 0 Hz '
     'and finite (got 1e-320)'),
    ('noisescan.second_b_field', '1e300',
     'noisescan.second_b_field: derived resonance 2 atom.g_f mu_B B / h '
     'must be > 0 Hz and finite (got 1e+300)'),
    ('sim.sample_rate', '100 kHz',
     'sim.sample_rate: must exceed 4x the modulation frequency (70914.307579755 Hz) (got 100000.0)'),
    # a suffix must name a unit of its key's unit; a unitless key takes none
    ('field.b_field', '7.6 kHz',
     "field.b_field: unit 'kHz' does not measure T"),
    ('sim.probe_power', '80 uT',
     "sim.probe_power: unit 'uT' does not measure W"),
    ('spectrum.rbw', '30 W',
     "spectrum.rbw: unit 'W' does not measure Hz"),
    ('atom.cell_radius', '5 uT',
     "atom.cell_radius: unit 'uT' does not measure m"),
    ('detector.analyzer_impedance', '50 V/A',
     "detector.analyzer_impedance: unit 'V/A' does not measure ohm"),
    ('atom.g_f', '1 Hz',
     "atom.g_f: takes no unit, got 'Hz'"),
    ('sim.duration', '0.4 m',
     "sim.duration: takes no unit, got 'm'"),
]


@pytest.mark.parametrize("key,value,message", BOUND_VIOLATIONS)
def test_every_bound_names_key_and_rule(key, value, message, tmp_path,
                                        capsys):
    # simulate binds every rule: validate_config's and its own sample rate
    path = tmp_path / "bad.cfg"
    path.write_text(f"{key} = {value}\n")
    assert main(["simulate", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ConfigError", "message": message, "exit_code": 2}
    assert not (tmp_path / "o").exists()


def test_bound_violations_cover_every_bounded_key():
    bounded = {key for key, row in _KEY_TABLE.items() if row[3] is not None}
    assert bounded <= {key for key, _value, _message in BOUND_VIOLATIONS}


def test_every_section_field_is_a_key_of_its_annotated_type():
    tags = {float: "f", Optional[float]: "f?", int: "i", str: "s", bool: "b"}
    declared = {
        f"{section}.{attr}": (section, attr, tags[annotation])
        for section, kind in get_type_hints(ExperimentConfig).items()
        for attr, annotation in get_type_hints(kind).items()}
    assert {key: row[:3] for key, row in _KEY_TABLE.items()} == declared


@pytest.mark.parametrize("source", ["file", "environment"])
def test_unit_of_another_dimension_exits_2(source, tmp_path, capsys,
                                           monkeypatch):
    # 7.6 kHz read as a field was 7600 T, and spectrum ran on it
    config = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
    if source == "file":
        bad = tmp_path / "bad.cfg"
        bad.write_text(config.read_text() + "field.b_field = 7.6 kHz\n")
        config = bad
    else:
        monkeypatch.setenv("AMORSIM_FIELD__B_FIELD", "7.6 kHz")
    assert main(["spectrum", "--config", str(config),
                 "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ConfigError", "exit_code": 2,
                   "message": "field.b_field: unit 'kHz' does not measure T"}
    assert not (tmp_path / "o").exists()
