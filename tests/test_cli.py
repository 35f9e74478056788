"""Batch CLI: modes, outputs, manifests, determinism, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

import amorsim.cli
import amorsim.dsp
from amorsim.cli import MODES, ScenarioSpec, emit_plotdata, main, run_scenario
from amorsim.config import ConfigError
from amorsim.signal_model import rotation_from_csv

# A reduced carrier (0.76 uT -> 7.09 kHz) keeps every mode cheap while
# exercising the full pipeline.
FAST_CONFIG = """\
field.b_field = 0.76 uT
sim.sample_rate = 32 kHz
sim.duration = 0.24
sim.probe_power = 80.5 uW
lockin.output_bandwidth = 50 Hz
resonance.phi0 = 2.5e-3
resonance.gamma_fwhm = 60 Hz
detector.electronic_noise_floor = 1.35e-14
detector.technical_noise_coef = 1.8e-6
spectrum.rbw = 30 Hz
spectrum.vbw = 30 Hz
spectrum.span = 8 kHz
spectrum.bg_window = 4 kHz
sweep.power_min = 20 uW
sweep.power_max = 200 uW
sweep.power_points = 4
sweep.freq_points = 9
sweep.trace_avg = 1
snlmap.freq_min = 5 kHz
snlmap.freq_max = 65 kHz
snlmap.freq_bins = 4
snlmap.k_values = 1,4
noisescan.second_b_field = none
"""

MOD_FREQ = 7091.4307579755  # doubled Larmor frequency at 0.76 uT


@pytest.fixture(scope="module")
def fast_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "fast.cfg"
    path.write_text(FAST_CONFIG)
    return str(path)


@pytest.fixture(scope="module")
def mode_run(fast_config, tmp_path_factory):
    """Run a mode once per module and cache its output directory."""
    runs = {}

    def run(mode, seed=11):
        key = (mode, seed)
        if key not in runs:
            out = tmp_path_factory.mktemp(f"{mode}-{seed}")
            code = main([mode, "--config", fast_config, "--out", str(out),
                         "--seed", str(seed)])
            assert code == 0
            runs[key] = out
        return runs[key]

    return run


# ---------------------------------------------------------------------------
# Per-mode outputs
# ---------------------------------------------------------------------------

def test_simulate_outputs(mode_run):
    out = mode_run("simulate")
    assert (out / "rotation.csv").exists()
    assert (out / "detected.csv").exists()
    text = (out / "rotation.csv").read_text()
    assert "# seed = (11, 0)" in text
    assert "np.float64" not in text


def test_simulate_rotation_csv_reads_back(mode_run):
    rot = rotation_from_csv(mode_run("simulate") / "rotation.csv")
    assert rot.rng_seed == (11, 0)
    assert rot.sample_rate == 32e3
    assert rot.samples.size == 7680  # 0.24 s at 32 kHz


def test_demod_sweep_outputs(mode_run):
    out = mode_run("demod-sweep")
    curve = (out / "resonance_curve.csv").read_text()
    assert curve.count("\n") == 9 + 3  # 9 grid points + 2 headers + title row
    fit = json.loads((out / "resonance_fit.json").read_text())
    assert fit["kind"] == "lorentzian"
    assert fit["converged"] is True
    assert fit["params"]["center_freq"] == pytest.approx(MOD_FREQ, abs=2.0)
    assert fit["params"]["phi0"] == pytest.approx(2.5e-3, rel=0.1)
    assert emit_plotdata(out) == ["fig2_resonance.dat"]


def test_spectrum_outputs(mode_run):
    out = mode_run("spectrum")
    snr_doc = json.loads((out / "snr.json").read_text())
    assert snr_doc["modulation_freq_hz"] == pytest.approx(MOD_FREQ, rel=1e-9)
    assert snr_doc["snr_provenance"] == "derived"
    assert snr_doc["snr_convention"] == "per-sqrt-hz"
    assert 1e4 < snr_doc["snr"] < 1e5
    assert snr_doc["enbw_hz"] == pytest.approx(30.0, rel=0.05)
    assert snr_doc["s_sig_w_per_hz"] > 100 * snr_doc["s_bg_w_per_hz"]
    for name in ("spectrum_on.csv", "spectrum_off.csv", "fig3_spectrum.dat"):
        assert (out / name).exists()


def test_noise_scan_outputs(mode_run):
    out = mode_run("noise-scan")
    lines = (out / "noise_scan.csv").read_text().splitlines()
    assert lines[2] == "power_w,noise_w_per_hz"
    body = lines[3:]
    assert len(body) == 5  # zero-power dark point + 4 sweep powers
    assert float(body[0].split(",")[0]) == 0.0
    budget = json.loads((out / "noise_scan_budget.json").read_text())
    assert budget["kind"] == "noise_polynomial"
    # the dark trace pins the electronic term
    assert budget["fixed_elec"] is not None
    assert budget["params"]["coef_shot"] == pytest.approx(
        budget["coef_shot_theory"], rel=0.5)
    # second-field scan disabled in the fast config
    assert not (out / "noise_scan_high.csv").exists()
    assert emit_plotdata(out) == ["fig4a_noise.dat"]


def test_snl_map_outputs(mode_run):
    out = mode_run("snl-map")
    rows = (out / "snl_map.csv").read_text().splitlines()
    assert rows[1] == "freq_hz,k,p_low_w,p_high_w,nonempty"
    assert len(rows) == 2 + 4 * 2  # 4 frequencies x 2 k values
    fig = (out / "fig6_snl.dat").read_text().splitlines()
    assert fig[1] == "# columns: freq_hz p_low_k1_w p_high_k1_w p_low_k4_w p_high_k4_w"
    assert len(fig) == 2 + 4
    assert (out / "snl_map_alt_gain.csv").exists()
    assert sorted(emit_plotdata(out)) == ["fig6_snl.dat", "fig7_snl.dat"]


def test_sensitivity_sweep_outputs(mode_run):
    out = mode_run("sensitivity-sweep")
    lines = (out / "sensitivity_sweep.csv").read_text().splitlines()
    header = lines[2].split(",")
    assert header == ["power_w", "phi0_rad", "gamma_fwhm_hz", "s_sig_w_per_hz",
                      "s_bg_w_per_hz", "snr", "delta_b_t_per_sqrt_hz",
                      "snl_class"]
    body = lines[3:]
    assert len(body) == 4
    classes = {row.split(",")[-1] for row in body}
    assert classes <= {"electronic-limited", "SNL(4)", "technical-limited"}
    report = json.loads((out / "sensitivity_report.json").read_text())
    assert report["snr_provenance"] == "derived"
    assert report["delta_b_t_per_sqrt_hz"] > 0
    assert report["delta_b_atomic_t_per_sqrt_hz"] < report["delta_b_t_per_sqrt_hz"]
    assert emit_plotdata(out) == ["fig8_sensitivity.dat"]


def test_manifest_records_run(mode_run, fast_config):
    out = mode_run("simulate")
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["mode"] == "simulate"
    assert doc["seed"] == 11
    assert doc["workers"] == 1
    assert doc["config_path"] == fast_config
    assert doc["config"]["resonance.phi0"] == 2.5e-3
    assert doc["config"]["field.b_field"] == 0.76 * 1e-6  # parser's exact product
    assert set(doc["outputs"]) == {"rotation.csv", "detected.csv"}
    assert "numpy" in doc["versions"] and "amorsim" in doc["versions"]
    assert doc["wall_time_s"] >= 0.0


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def test_same_seed_reproduces_bytes(fast_config, tmp_path):
    out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for out in (out_a, out_b):
        assert main(["spectrum", "--config", fast_config,
                     "--out", str(out), "--seed", "5"]) == 0
    assert main(["spectrum", "--config", fast_config,
                 "--out", str(out_c), "--seed", "6"]) == 0
    on_a = (out_a / "spectrum_on.csv").read_bytes()
    assert on_a == (out_b / "spectrum_on.csv").read_bytes()
    assert on_a != (out_c / "spectrum_on.csv").read_bytes()
    assert (out_a / "snr.json").read_bytes() == (out_b / "snr.json").read_bytes()


@pytest.mark.parametrize("mode", ["noise-scan", "demod-sweep",
                                  "sensitivity-sweep"])
def test_worker_count_does_not_change_outputs(mode, fast_config, tmp_path):
    serial, pooled = tmp_path / "w1", tmp_path / "w2"
    assert main([mode, "--config", fast_config, "--out", str(serial),
                 "--seed", "3", "--workers", "1"]) == 0
    assert main([mode, "--config", fast_config, "--out", str(pooled),
                 "--seed", "3", "--workers", "3"]) == 0
    names = sorted(p.name for p in serial.iterdir() if p.name != "manifest.json")
    assert names == sorted(p.name for p in pooled.iterdir()
                           if p.name != "manifest.json")
    for name in names:
        assert (serial / name).read_bytes() == (pooled / name).read_bytes(), name


@pytest.mark.parametrize("mode", ["simulate", "demod-sweep", "spectrum",
                                  "noise-scan", "sensitivity-sweep"])
def test_stream_keys_start_with_seed_and_never_repeat(mode, fast_config,
                                                      tmp_path, monkeypatch):
    keys = []

    def recording(fn):
        def wrapped(*args, **kwargs):
            keys.append(kwargs["rng_seed"])
            return fn(*args, **kwargs)
        return wrapped

    for module, name in ((amorsim.cli, "synthesize_rotation"),
                         (amorsim.cli, "detect"),
                         (amorsim.dsp, "synthesize_rotation")):
        monkeypatch.setattr(module, name, recording(getattr(module, name)))
    assert main([mode, "--config", fast_config, "--out", str(tmp_path),
                 "--seed", "7"]) == 0
    assert keys
    assert all(isinstance(k, tuple) and k[0] == 7 for k in keys)
    assert len(set(keys)) == len(keys)
    # numpy pads short keys with zeros, so compare the streams themselves too
    states = {tuple(np.random.SeedSequence(k).generate_state(4)) for k in keys}
    assert len(states) == len(keys)


# ---------------------------------------------------------------------------
# Configuration plumbing
# ---------------------------------------------------------------------------

def test_env_override_reaches_manifest(fast_config, tmp_path, monkeypatch):
    monkeypatch.setenv("AMORSIM_RESONANCE__PHI0", "3.1e-3")
    out = tmp_path / "env"
    assert main(["simulate", "--config", fast_config, "--out", str(out)]) == 0
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["config"]["resonance.phi0"] == 3.1e-3


def test_bad_env_override_exits_2(fast_config, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("AMORSIM_SIM__SAMPLE_RATE", "not-a-number")
    code = main(["simulate", "--config", fast_config,
                 "--out", str(tmp_path / "x")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 2
    assert "sim.sample_rate" in err["message"]


def test_runs_without_config_file(tmp_path):
    # defaults carry a complete full-scale setup; just run the cheapest mode
    out = tmp_path / "defaults"
    assert main(["simulate", "--out", str(out), "--seed", "1"]) == 0
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["config_path"] is None
    assert doc["config"]["field.b_field"] == 7.6e-6


# ---------------------------------------------------------------------------
# Failure paths
# ---------------------------------------------------------------------------

def test_missing_config_exits_4(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "o")])
    assert code == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileNotFoundError"
    assert err["exit_code"] == 4


@pytest.mark.parametrize("key", ["resonance.phi_zero",
                                 "detector.gain_uncertainty_rel",
                                 "detector.electronic_noise_table"])
def test_unknown_config_key_exits_2(key, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"{key} = 1e-3\n")
    code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert key in err["message"]


@pytest.mark.parametrize("key, value", [("sim.duration", "inf"),
                                        ("sim.probe_power", "inf"),
                                        ("atom.g_f", "nan")])
def test_non_finite_config_value_exits_2(key, value, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"{key} = {value}\n")
    code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert key in err["message"]


def test_underdetermined_noise_fit_exits_3(fast_config, tmp_path, capsys,
                                           monkeypatch):
    # two sweep powers plus the dark point is one short of the three-term fit
    monkeypatch.setenv("AMORSIM_SWEEP__POWER_POINTS", "2")
    code = main(["noise-scan", "--config", fast_config,
                 "--out", str(tmp_path / "o")])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FitError"
    assert "at least 4" in err["message"]


def test_scenario_spec_validation():
    with pytest.raises(ConfigError, match="mode"):
        ScenarioSpec(mode="frequency-comb")
    with pytest.raises(ConfigError, match="workers"):
        ScenarioSpec(mode="simulate", workers=0)


def test_emit_plotdata_requires_files(tmp_path):
    with pytest.raises(FileNotFoundError):
        emit_plotdata(tmp_path)


def test_modes_registry_matches_parser():
    assert MODES == ("simulate", "demod-sweep", "spectrum", "noise-scan",
                     "snl-map", "sensitivity-sweep")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def test_module_entry_point(fast_config, tmp_path):
    out = tmp_path / "sub"
    proc = subprocess.run(
        [sys.executable, "-m", "amorsim", "simulate", "--config", fast_config,
         "--out", str(out), "--seed", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "manifest.json").exists()
