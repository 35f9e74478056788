import math

import pytest

from amorsim.config import (
    AtomConfig,
    ConfigError,
    ExperimentConfig,
    FieldConfig,
    apply_env_overrides,
    config_as_dict,
    load_config_file,
    parse_config_text,
    serialize_config,
    validate_config,
)


def test_defaults_validate():
    cfg = validate_config(ExperimentConfig())
    assert cfg.field_cfg.modulation_freq == pytest.approx(70914.307579755)
    assert cfg.field_cfg.detuning_delta == 0.0


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
    assert cfg.field_cfg.b_field == 7.6 * 1e-6
    assert cfg.sim.probe_power == 80.5 * 1e-6
    assert cfg.spectrum.rbw == 30.0
    assert cfg.spectrum.span == 40.0 * 1e3
    assert cfg.atom.cell_radius == 5.0 * 1e-2
    assert cfg.detector.analyzer_impedance_r == 50.0


def test_comments_and_blank_lines_ignored():
    cfg = parse_config_text(
        "# a comment\n"
        "\n"
        "resonance.phi0 = 1e-3  # trailing comment\n"
    )
    assert cfg.resonance.phi0 == 1e-3


@pytest.mark.parametrize("line,fragment", [
    ("nonsense.key = 1", "unknown configuration key"),
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
        "AMORSIM_NOISESCAN__INCLUDE_ZERO": "false",
        "SOMETHING_ELSE": "ignored",
    })
    assert cfg.resonance.gamma_fwhm == 80.0
    assert cfg.sweep.power_points == 9
    assert cfg.noisescan.include_zero is False


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
    assert resolved.detuning_delta == 0.0


def test_field_resolution_detuning_from_modulation():
    atom = AtomConfig()
    resonant = FieldConfig(b_field=7.6e-6).resolve(atom).modulation_freq
    resolved = FieldConfig(b_field=7.6e-6,
                           modulation_freq=resonant + 100.0).resolve(atom)
    assert resolved.detuning_delta == pytest.approx(2 * math.pi * 100.0)


def test_field_resolution_rejects_inconsistent_detuning():
    atom = AtomConfig()
    with pytest.raises(ConfigError, match="detuning_delta"):
        FieldConfig(b_field=7.6e-6, modulation_freq=71000.0,
                    detuning_delta=0.0).resolve(atom)


def test_field_resolution_rejects_negative_field():
    with pytest.raises(ConfigError, match="b_field"):
        FieldConfig(b_field=-1e-6).resolve(AtomConfig())


def test_sample_rate_must_clear_modulation():
    cfg = parse_config_text("sim.sample_rate = 100 kHz")  # 4x 70.9 kHz > 100k
    with pytest.raises(ConfigError, match="sim.sample_rate"):
        validate_config(cfg)


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
