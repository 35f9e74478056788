"""Batch CLI: modes, outputs, manifests, determinism, exit codes."""

import importlib
import json
import math
import subprocess
import sys
import tempfile
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import amorsim.cli
import amorsim.dsp
from amorsim.analysis import (
    classify_operating_point,
    compute_snr,
    projection_noise,
    snl_range,
)
from amorsim.cli import MODES, ScenarioSpec, emit_plotdata, main, run_scenario
from amorsim.config import (
    _KEY_TABLE,
    ConfigError,
    ExperimentConfig,
    FieldConfig,
    larmor_doubled_freq,
    validate_config,
)
from amorsim.detector import (DetectedTimeSeries, angle_gain_from_chain,
                              chain_at, theory_budget)
from amorsim.dsp import peak_and_background, psd_estimate
from amorsim.fitting import FitError
from amorsim.signal_model import coherent_rotation, photon_flux
from amorsim.tables import read_table, write_json, write_table
from conftest import mean_and_sem
from faults import FAULTS

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
noisescan.include_zero = true
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
    _columns, (samples,), meta = read_table(
        mode_run("simulate") / "rotation.csv")
    assert meta["seed"] == (11, 0)
    assert meta["sample_rate_hz"] == 32e3
    assert samples.size == 7680  # 0.24 s at 32 kHz


@pytest.mark.parametrize("mode", MODES)
def test_every_output_reads_back_losslessly(mode, mode_run, tmp_path):
    out = mode_run(mode)
    files = sorted(out.iterdir())
    assert {f.suffix for f in files} <= {".csv", ".dat", ".json"}
    for f in files:
        copy = tmp_path / f.name
        if f.suffix == ".json":
            write_json(copy, json.loads(f.read_text()))
        else:
            write_table(copy, *read_table(f))
        assert copy.read_bytes() == f.read_bytes(), f.name


@pytest.mark.parametrize("mode", ["simulate", "spectrum"])
def test_every_float_cell_is_repr_of_its_value(mode, mode_run):
    tables = [f for f in sorted(mode_run(mode).iterdir())
              if f.suffix in (".csv", ".dat")]
    assert tables
    for f in tables:
        _columns, data, _meta = read_table(f)
        sep = " " if f.suffix == ".dat" else ","
        rows = f.read_text().splitlines()[-len(data[0]):]
        assert rows == [sep.join(map(repr, row))
                        for row in zip(*(col.tolist() for col in data))], f


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


@pytest.mark.parametrize("b_field", [5e-6, 7e-6, 7.6e-6, 20e-6, 40e-6,
                                     75e-6])
def test_noise_scan_is_shot_noise_limited_from_5_to_75_uT(b_field):
    # The paper's claim: SNL operation from 5 uT to 75 uT. Over 20 seeds the
    # fitted shot coefficient agrees with theory within 4 standard errors
    # of the seed spread, and every fitted budget has a k = 4 window.
    config = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
    cfg = amorsim.cli._load_config(ScenarioSpec("noise-scan", str(config)))
    field = FieldConfig(b_field=b_field).resolve(cfg.atom)
    lane = int(round(b_field * 1e7))  # each field draws its own streams
    powers = [0.0, *amorsim.cli._power_grid(cfg)]  # with the dark point
    shots = []
    for seed in range(20):
        _, fit = amorsim.cli._noise_scan_at_field(
            cfg, ScenarioSpec("noise-scan", seed=seed), field, lane, powers)
        shots.append(fit.coef_shot)
        assert snl_range(fit, 4).nonempty, seed
    mean, stderr = mean_and_sem(shots)
    theory = theory_budget(cfg).coef_shot
    assert abs(mean - theory) < 4.0 * stderr


def test_noise_scan_background_matches_the_budget_across_seeds():
    # Each row is drawn at theory_budget(cfg).eval(P): over 20 seeds the
    # measured level at the dark point, a mid power and the top power lies
    # within 4 standard errors of it.
    config = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
    cfg = amorsim.cli._load_config(ScenarioSpec("noise-scan", str(config)))
    powers = [0.0, *amorsim.cli._power_grid(cfg)]  # with the dark point
    levels = np.array([amorsim.cli._noise_scan_at_field(
        cfg, ScenarioSpec("noise-scan", seed=seed), cfg.field, 0, powers)[0]
        for seed in range(20)])
    budget = theory_budget(cfg)
    for i in (0, len(powers) // 2, len(powers) - 1):
        mean, stderr = mean_and_sem(levels[:, i])
        assert abs(mean - budget.eval(powers[i])) < 4.0 * stderr, powers[i]


SWEEP_SEEDS = range(20)


def test_sensitivity_sweep_reads_the_budget_across_seeds():
    # Each default power's stack is drawn at N(P) with a tone of g(P) *
    # phi0(P): over 20 seeds, at every power, the mean of s_bg / N(P) and
    # the mean of snr / (g * phi0 / sqrt(2 N)) lie within 4 standard
    # errors of 1
    config = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
    cfg = amorsim.cli._load_config(ScenarioSpec("sensitivity-sweep",
                                                str(config)))
    points = list(enumerate(amorsim.cli._power_grid(cfg).tolist()))
    runs = [amorsim.cli._sweep_rows(cfg, seed, points) for seed in SWEEP_SEEDS]
    assert len(points) == 21
    for index, power in points:
        gain, density = chain_at(cfg, power)
        tone = gain * amorsim.cli._resonance(cfg, power).phi0
        rows = [run[index] for run in runs]
        for column, truth in (("s_bg_w_per_hz", density),
                              ("snr", tone / math.sqrt(2.0 * density))):
            mean, stderr = mean_and_sem([row[column] / truth for row in rows])
            assert abs(mean - 1.0) < 4.0 * stderr, (power, column)


@pytest.mark.parametrize("extra, stacks", [
    # one tone stack, then the tone-free rows of 2 points a stack
    ("", 1 + 11),
    # a video filter takes the window for the tone rows: 2 points' tone
    # rows hold two background stacks' samples, so 21 points take 11 tone
    # stacks
    ("spectrum.vbw = 10", 11 + 11),
], ids=["defaults", "vbw10"])
def test_sweep_rows_do_not_depend_on_chunking(tmp_path, monkeypatch, extra,
                                              stacks):
    # the default 21 points split into two contiguous chunks at every cut,
    # and each point alone, give every row the bytes of the one-chunk run:
    # a chunk's stacks draw each point's rows from that point's own
    # streams
    config = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
    path = tmp_path / "sweep.cfg"
    path.write_text(config.read_text() + extra + "\n")
    cfg = amorsim.cli._load_config(ScenarioSpec("sensitivity-sweep",
                                                str(path)))
    points = list(enumerate(amorsim.cli._power_grid(cfg).tolist()))
    calls, estimate = [], psd_estimate

    def counted(ts, *args, **kwargs):
        calls.append(ts.samples.shape[0])
        return estimate(ts, *args, **kwargs)

    monkeypatch.setattr(amorsim.cli, "psd_estimate", counted)

    def hexed(rows):
        return [{column: value.hex() for column, value in row.items()}
                for row in rows]

    whole = hexed(amorsim.cli._sweep_rows(cfg, 5, points))
    assert len(calls) == stacks
    for cut in range(1, len(points)):
        assert hexed(amorsim.cli._sweep_rows(cfg, 5, points[:cut])
                     + amorsim.cli._sweep_rows(cfg, 5, points[cut:])) \
            == whole, cut
    assert hexed(amorsim.cli._sweep_point_sensitivity((cfg, 5, *point))
                 for point in points) == whole


@pytest.mark.parametrize("extra", ["", "spectrum.vbw = 10"],
                         ids=["defaults", "vbw10"])
def test_sweep_stacks_hold_at_most_two_points_background_rows(
        tmp_path, monkeypatch, extra):
    # the memory rule behind a sweep's peak memory: at every two-chunk cut
    # of the default 21 points, no stack holds more samples than the
    # tone-free rows of two points on the background window, so a chunk's
    # stacks never grow with the chunk
    config = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
    path = tmp_path / "sweep.cfg"
    path.write_text(config.read_text() + extra + "\n")
    cfg = amorsim.cli._load_config(ScenarioSpec("sensitivity-sweep",
                                                str(path)))
    points = list(enumerate(amorsim.cli._power_grid(cfg).tolist()))
    window = amorsim.cli._bg_band(cfg, cfg.field)
    bound = 2 * cfg.sweep.trace_avg * amorsim.cli._series_grid(cfg, window)[2]
    sizes, estimate = [], psd_estimate

    def measured(ts, *args, **kwargs):
        sizes.append(ts.samples.size)
        return estimate(ts, *args, **kwargs)

    monkeypatch.setattr(amorsim.cli, "psd_estimate", measured)
    for cut in range(1, len(points)):
        for chunk in (points[:cut], points[cut:]):
            sizes.clear()
            amorsim.cli._sweep_rows(cfg, 5, chunk)
            assert sizes and max(sizes) <= bound, (cut, sizes)


_POSITIVE = st.floats(min_value=5e-324, allow_infinity=False)


@given(phi0=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
       gamma=_POSITIVE, p_sat=_POSITIVE, p_broad=_POSITIVE,
       p0=st.one_of(st.just(0.0), st.floats(min_value=0.0,
                                            allow_infinity=False)))
def test_resonance_at_the_probe_power_is_the_resonance_keys(phi0, gamma,
                                                           p_sat, p_broad,
                                                           p0):
    # every mode's resonance at sim.probe_power is resonance.* bit for bit,
    # a dark probe included
    cfg = ExperimentConfig()
    cfg.resonance = replace(cfg.resonance, phi0=phi0, gamma_fwhm=gamma)
    cfg.saturation = replace(cfg.saturation, p_sat=p_sat, p_broad=p_broad)
    cfg.sim = replace(cfg.sim, probe_power=p0)
    res = amorsim.cli._resonance(validate_config(cfg), p0)
    assert (res.phi0.hex(), res.gamma_fwhm.hex()) == (phi0.hex(), gamma.hex())


@given(phi0=st.floats(min_value=1e-4, max_value=0.45),
       gamma=st.floats(min_value=1.0, max_value=1e3),
       p0=st.floats(min_value=1e-6, max_value=1e-3),
       p_sat=st.floats(min_value=1e-7, max_value=1e-2),
       p_broad=st.floats(min_value=1e-7, max_value=1e-2))
def test_sensitivity_sweep_writes_the_resonance_keys_at_the_probe_power(
        phi0, gamma, p0, p_sat, p_broad):
    # a grid that starts at sim.probe_power (geomspace returns its start
    # exactly) writes resonance.* in its first row
    config = (f"resonance.phi0 = {phi0!r}\nresonance.gamma_fwhm = {gamma!r}\n"
              f"sim.probe_power = {p0!r}\nsweep.power_min = {p0!r}\n"
              f"sweep.power_max = {2.0 * p0!r}\nsweep.power_points = 2\n"
              f"sweep.trace_avg = 1\nsaturation.p_sat = {p_sat!r}\n"
              f"saturation.p_broad = {p_broad!r}\n")
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "anchor.cfg", Path(tmp) / "o"
        path.write_text(config)
        assert main(["sensitivity-sweep", "--config", str(path),
                     "--out", str(out)]) == 0
        columns, data, _ = read_table(out / "sensitivity_sweep.csv")
    table = dict(zip(columns, data))
    assert table["power_w"][0] == p0
    assert (table["phi0_rad"][0], table["gamma_fwhm_hz"][0]) == (phi0, gamma)


def test_spectrum_and_sensitivity_sweep_read_one_snr_across_seeds(tmp_path):
    # with sim.probe_power on the sweep's grid, spectrum's SNR and the
    # sweep's SNR at that power are one estimate of one resonance: over
    # 20 seeds their means agree within 4 standard errors
    config = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
    path = tmp_path / "anchor.cfg"
    path.write_text(config.read_text() + "sweep.power_min = 80.5 uW\n"
                    "sweep.power_points = 2\n")
    probe = amorsim.cli._load_config(ScenarioSpec(
        "spectrum", str(path))).sim.probe_power
    spectrum, sweep = [], []
    for seed in SWEEP_SEEDS:
        for mode in ("spectrum", "sensitivity-sweep"):
            out = tmp_path / f"{mode}-{seed}"
            assert run_scenario(ScenarioSpec(mode, str(path), str(out),
                                             seed)) == 0
        spectrum.append(json.loads((out.parent / f"spectrum-{seed}"
                                    / "snr.json").read_text())["snr"])
        columns, data, _ = read_table(out / "sensitivity_sweep.csv")
        table = dict(zip(columns, data))
        assert table["power_w"][0] == probe
        sweep.append(float(table["snr"][0]))
    (mean_a, sem_a), (mean_b, sem_b) = map(mean_and_sem, (spectrum, sweep))
    assert abs(mean_a - mean_b) < 4.0 * math.hypot(sem_a, sem_b)


def test_stacked_analyzer_matches_per_point_estimates(mode_run, fast_config):
    # the levels and the s_sig/s_bg that one psd_estimate call per trace
    # would give, each trace a row rebuilt from its stack's stream in row
    # order: noise-scan's scan on (seed, 0, 0), each sensitivity-sweep
    # power's tone rows on (seed, index, 1) over its tone band and its
    # tone-free rows on (seed, index, 0) over the window; noise-scan reads
    # its levels over spectrum.bg_window with peak_and_background, so the
    # mean of each trace sliced to the window cross-checks that read
    seed = 11
    cfg = amorsim.cli._load_config(ScenarioSpec("noise-scan", fast_config))
    field, sp = cfg.field, cfg.spectrum
    window = amorsim.cli._bg_band(cfg, field)

    def traces(rows, span=None, band=window):
        return [psd_estimate(row, sp.rbw, sp.vbw, span=span)
                for row in _reference_stack(cfg, band, rows)]

    mod = field.modulation_freq
    powers = [0.0, *amorsim.cli._power_grid(cfg)]
    levels = [float(trace.psd.mean()) for trace in traces(
        [(None, p, mod, (seed, 0, 0)) for p in powers], window)]
    _, (_, written), _ = read_table(mode_run("noise-scan", seed)
                                    / "noise_scan.csv")
    assert written.tolist() == levels

    count, band = cfg.sweep.trace_avg, amorsim.cli._tone_band(cfg, field)
    assert band[1] - band[0] < window[1] - window[0]
    s_sig, s_bg = [], []
    for i, p in enumerate(amorsim.cli._power_grid(cfg)):
        res = amorsim.cli._resonance(cfg, p)
        ons = traces([(res, p, mod, (seed, i, 1))] * count, band=band)
        offs = traces([(None, p, mod, (seed, i, 0))] * count)
        s_sig.append(sum(float(on.psd[np.argmin(np.abs(on.freqs - mod))])
                         for on in ons) / count)
        s_bg.append(sum(peak_and_background(off, off, mod, sp.bg_window)[1]
                        for off in offs) / count)
    columns, data, _ = read_table(mode_run("sensitivity-sweep", seed)
                                  / "sensitivity_sweep.csv")
    table = dict(zip(columns, data))
    assert table["s_sig_w_per_hz"].tolist() == s_sig
    assert table["s_bg_w_per_hz"].tolist() == s_bg


def _reference_stack(cfg, band, rows):
    """A stack's (res or None, power, carrier, stream) rows rebuilt one by
    one as series of their own: each the coherent rotation at its carrier
    (none for a None row) at the chain's angle gain plus numpy's normal
    draw at the budget's density, the draws taken in row order from a
    stream seeded anew where the row's stream changes."""
    center, rate, n = amorsim.cli._series_grid(cfg, band)
    envelope = center is not None
    series, rng = [], None
    for row, (res, power, mod, stream) in enumerate(rows):
        if row == 0 or stream != rows[row - 1][3]:
            rng = np.random.default_rng(stream)
        wave = (None if res is None
                else coherent_rotation(res, mod, rate, n, center))
        gain = angle_gain_from_chain(cfg.detector, photon_flux(
            power, cfg.atom.probe_wavelength))
        sigma = math.sqrt(theory_budget(cfg).eval(power) * rate
                          / (4.0 if envelope else 2.0))
        noise = rng.normal(0.0, sigma, 2 * n if envelope else n)
        if envelope:
            noise = noise.view(complex)
        series.append(DetectedTimeSeries(
            noise if wave is None else wave * gain + noise, rate,
            cfg.detector.gain_effective, power, gain, None, center))
    return series


@given(sides=st.lists(st.sampled_from([0, 1]), min_size=1, max_size=9),
       powers=st.lists(st.sampled_from([0.0, 20e-6, 80.5e-6, 200e-6]),
                       min_size=9, max_size=9),
       offsets=st.lists(st.sampled_from([0.0, -400.0, 600.0]),
                        min_size=9, max_size=9),
       band=st.sampled_from(["real", "bg_window", "offset"]),
       key=st.sampled_from([(3,), (5_000_000_000, 2)]),
       split=st.one_of(st.none(), st.integers(min_value=1, max_value=9)),
       lane=st.sampled_from([0, 1]))
def test_detected_stack_rows_are_chain_series_bit_for_bit(
        fast_config, sides, powers, offsets, band, key, split, lane):
    # each row written in place equals the row rebuilt from its stream,
    # and a stack of the first row alone holds that row; real and envelope
    # stacks, tone and None rows, a carrier per row, dark rows, a seed of
    # two 32-bit words, either last stream word, and rows whose two runs
    # each draw from their own stream. A None row reaches no
    # coherent_rotation, and a tone row builds a wave only where its (res,
    # power, carrier) differs from the last tone row's
    cfg = amorsim.cli._load_config(ScenarioSpec("sensitivity-sweep",
                                                fast_config))
    field = cfg.field
    mod = field.modulation_freq
    band = {"real": None, "bg_window": amorsim.cli._bg_band(cfg, field),
            "offset": (mod - 1500.0, mod + 2500.0)}[band]  # tone off centre
    res = amorsim.cli._resonance(cfg, cfg.sim.probe_power)
    streams = [key + (lane,) if split is None or row < split
               else key[:-1] + (key[-1] + 1, lane)
               for row in range(len(sides))]
    rows = [(res if side == 0 else None, power, mod + offset, stream)
            for side, power, offset, stream in zip(sides, powers, offsets,
                                                    streams)]
    calls, coherent = [], amorsim.cli.coherent_rotation

    def counted(res, *args):
        calls.append(res)
        return coherent(res, *args)

    amorsim.cli.coherent_rotation = counted
    try:
        stack = amorsim.cli._detected_stack(cfg, band, rows)
    finally:
        amorsim.cli.coherent_rotation = coherent
    assert None not in calls
    tones = [row[:3] for row in rows if row[0] is not None]
    assert len(calls) == sum(
        1 for i, row in enumerate(tones) if i == 0 or row != tones[i - 1])
    center, rate, n = amorsim.cli._series_grid(cfg, band)
    assert stack.samples.shape == (len(rows), n)
    assert (stack.sample_rate, stack.center_freq) == (rate, center)
    assert stack.rng_seed == key + (lane,)
    expected = _reference_stack(cfg, band, rows)
    for row, series in enumerate(expected):
        assert stack.samples[row].tobytes() == series.samples.tobytes(), row
    first = amorsim.cli._detected_stack(cfg, band, rows[:1])
    assert first.samples.tobytes() == expected[0].samples.tobytes()


def test_noise_scan_writes_the_theory_shot_coefficient(mode_run,
                                                       fast_config):
    out = mode_run("noise-scan")
    doc = json.loads((out / "noise_scan_budget.json").read_text())
    cfg = amorsim.cli._load_config(ScenarioSpec("noise-scan", fast_config))
    assert doc["coef_shot_theory"] == theory_budget(cfg).coef_shot


def test_snl_map_rows_are_the_theory_budget_with_the_knee(fast_config):
    # the map is the theory map, A(f) at each bin and B, C at each gain
    cfg = amorsim.cli._load_config(ScenarioSpec("snl-map", fast_config))
    sm = cfg.snlmap
    freqs = np.linspace(sm.freq_min, sm.freq_max, sm.freq_bins)
    for gain in (cfg.detector.transimpedance_gain_nominal,
                 sm.second_gain_nominal):
        grid = amorsim.cli._snl_map_rows(cfg, gain)
        budget = theory_budget(cfg, gain)
        assert [freq for freq, _ in grid] == freqs.tolist()
        for f, (_, windows) in zip(freqs, grid):
            knee = cfg.detector.electronic_knee_freq
            want = replace(budget, detection_freq=float(f),
                           coef_elec=budget.coef_elec
                           * (1.0 + (knee / f) ** 2))
            assert len(windows) == len(sm.k_list())
            for window, k in zip(windows, sm.k_list()):
                expected = snl_range(want, k)
                assert window.k == k and window.nonempty == expected.nonempty
                assert (window.p_low, window.p_high) == pytest.approx(
                    (expected.p_low, expected.p_high), rel=1e-12), gain


def test_sensitivity_class_reads_the_knee_snl_map_reads(tmp_path):
    # on 61 default powers, 63.03 uW lies between the flat floor's k = 4
    # edge (59.7 uW) and the edge of A(f) at the 70.9 kHz carrier (64.5 uW):
    # sensitivity-sweep and snl-map must agree it is electronic-limited
    config = tmp_path / "sweep61.cfg"
    default = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
    config.write_text(default.read_text() + "sweep.power_points = 61\n")
    out = tmp_path / "out"
    assert main(["sensitivity-sweep", "--config", str(config),
                 "--out", str(out), "--seed", "1"]) == 0
    names, cells, _ = read_table(out / "sensitivity_sweep.csv")
    table = dict(zip(names, cells))
    row = int(np.argmin(np.abs(table["power_w"] - 63.03e-6)))
    power = float(table["power_w"][row])
    assert power == pytest.approx(63.03e-6, rel=1e-4)

    cfg = amorsim.cli._load_config(ScenarioSpec("sensitivity-sweep",
                                                str(config)))
    mod, k = cfg.field.modulation_freq, cfg.analysis.snl_k
    expected = classify_operating_point(theory_budget(cfg, detection_freq=mod),
                                        power, k)
    assert table["snl_class"][row] == expected == "electronic-limited"
    on_carrier = replace(cfg, snlmap=replace(
        cfg.snlmap, freq_min=mod, freq_max=2.0 * mod, freq_bins=1,
        k_values=f"{k:g}"))
    gain = cfg.detector.transimpedance_gain_nominal
    [(freq, [window])] = amorsim.cli._snl_map_rows(on_carrier, gain)
    assert (freq, window.k) == (mod, k)
    assert window.p_low == pytest.approx(64.5e-6, rel=1e-3)
    assert power < window.p_low  # so the map calls it electronic-limited


def test_snl_map_tables_do_not_depend_on_the_seed(mode_run):
    one, two = mode_run("snl-map", seed=1), mode_run("snl-map", seed=2)
    for name in ("snl_map.csv", "snl_map_alt_gain.csv", "fig6_snl.dat",
                 "fig7_snl.dat"):
        bodies = [[line for line in (out / name).read_text().splitlines()
                   if not line.startswith("#")] for out in (one, two)]
        assert bodies[0] == bodies[1], name
        assert len(bodies[0]) > 1, name


def test_snl_map_without_an_electronic_floor_opens_at_zero_power(
        fast_config, tmp_path, monkeypatch):
    monkeypatch.setenv("AMORSIM_DETECTOR__ELECTRONIC_NOISE_FLOOR", "0")
    assert main(["snl-map", "--config", fast_config,
                 "--out", str(tmp_path)]) == 0
    for name in ("snl_map.csv", "snl_map_alt_gain.csv"):
        columns, data, _meta = read_table(tmp_path / name)
        p_low = data[columns.index("p_low_w")]
        assert p_low.size == 4 * 2 and np.all(p_low == 0.0), name


def test_snl_map_with_no_floor_runs_at_any_knee(tmp_path):
    # A(f) = 0 * (1 + (knee/f)^2) is 0 at every bin, however high the knee
    config = tmp_path / "knee.cfg"
    config.write_text("detector.electronic_knee_freq = 1e300\n")
    out = tmp_path / "out"
    assert main(["snl-map", "--config", str(config), "--out", str(out)]) == 0
    for name in ("snl_map.csv", "snl_map_alt_gain.csv"):
        columns, data, _meta = read_table(out / name)
        p_low = data[columns.index("p_low_w")]
        assert p_low.size > 0 and np.all(p_low == 0.0), name


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


def test_snl_map_figures_hold_one_pair_per_distinct_k(fast_config, tmp_path,
                                                     monkeypatch):
    # a repeated margin gets one fig column pair, as it gets one csv row
    monkeypatch.setenv("AMORSIM_SNLMAP__K_VALUES", "1,1,4")
    assert main(["snl-map", "--config", fast_config,
                 "--out", str(tmp_path)]) == 0
    for stem, fig in (("snl_map", "fig6_snl.dat"),
                      ("snl_map_alt_gain", "fig7_snl.dat")):
        columns, data, _meta = read_table(tmp_path / fig)
        assert columns == ["freq_hz", "p_low_k1_w", "p_high_k1_w",
                           "p_low_k4_w", "p_high_k4_w"], fig
        names, cells, _meta = read_table(tmp_path / f"{stem}.csv")
        table = dict(zip(names, cells))
        for j, k in enumerate((1.0, 4.0)):
            of_k = table["k"] == k
            assert data[0].tolist() == table["freq_hz"][of_k].tolist()
            assert data[1 + 2 * j].tolist() == table["p_low_w"][of_k].tolist()
            assert data[2 + 2 * j].tolist() == table["p_high_w"][of_k].tolist()
        assert table["k"].tolist() == [1.0, 4.0] * 4, stem


def test_sensitivity_report_is_the_best_row(mode_run, fast_config):
    out = mode_run("sensitivity-sweep")
    names, cells, meta = read_table(out / "sensitivity_sweep.csv")
    table = dict(zip(names, cells))
    # each row's SNR is its peak over its background at the ENBW the
    # header names, the tone trace's
    assert table["snr"].tolist() == [
        compute_snr(sig, bg, meta["enbw_hz"])
        for sig, bg in zip(table["s_sig_w_per_hz"], table["s_bg_w_per_hz"])]
    best = int(np.argmin(table["delta_b_t_per_sqrt_hz"]))
    cfg = amorsim.cli._load_config(ScenarioSpec("sensitivity-sweep",
                                                fast_config))
    report = json.loads((out / "sensitivity_report.json").read_text())
    assert report == {
        "gamma_fwhm_hz": table["gamma_fwhm_hz"][best],
        "snr": table["snr"][best],
        "snr_provenance": "derived",
        "snr_convention": "per-sqrt-hz",
        "delta_b_t_per_sqrt_hz": table["delta_b_t_per_sqrt_hz"][best],
        "delta_b_atomic_t_per_sqrt_hz": projection_noise(cfg.atom, 1.0),
        "operating_power_w": table["power_w"][best],
        "detection_freq_hz": meta["detection_freq_hz"],
        "snl_class": table["snl_class"][best],
        "seed": 11,
    }


def test_sensitivity_sweep_outputs(mode_run):
    out = mode_run("sensitivity-sweep")
    lines = (out / "sensitivity_sweep.csv").read_text().splitlines()
    assert [line.split(" = ")[0] for line in lines[:3]] == [
        "# seed", "# detection_freq_hz", "# enbw_hz"]
    header = lines[3].split(",")
    assert header == ["power_w", "phi0_rad", "gamma_fwhm_hz", "s_sig_w_per_hz",
                      "s_bg_w_per_hz", "snr", "delta_b_t_per_sqrt_hz",
                      "snl_class"]
    body = lines[4:]
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


_WRITERS = ("write_table", "write_json", "rotation_to_csv", "detected_to_csv",
            "spectrum_to_csv", "resonance_curve_to_csv", "snl_map_to_csv")


def _refuse_write(*args, **kwargs):
    raise AssertionError(f"a handler wrote an output: {args!r}")


@pytest.mark.parametrize("mode", MODES)
def test_handlers_return_outputs_that_run_scenario_writes(mode, fast_config,
                                                          tmp_path,
                                                          monkeypatch):
    # a handler calls no writer and names each output once; run_scenario
    # writes exactly those outputs, in order, and then the manifest
    out = tmp_path / "o"
    spec = ScenarioSpec(mode, config_path=fast_config, output_dir=str(out))
    cfg = amorsim.cli._load_config(spec)
    with monkeypatch.context() as patch:
        for name in _WRITERS:
            patch.setattr(amorsim.cli, name, _refuse_write)
        handler = amorsim.cli._HANDLERS[mode][0]
        names = [name for name, _ in handler(cfg, spec)]
    assert names and len(set(names)) == len(names)
    assert not out.exists()
    assert run_scenario(spec) == 0
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["outputs"] == names
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [*names, "manifest.json"])


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


@pytest.mark.parametrize("mode", MODES)
def test_worker_count_does_not_change_outputs(mode, fast_config, tmp_path,
                                              monkeypatch):
    # 4 powers, and 5 where a sweep reads them: two chunks then split the
    # sensitivity sweep unevenly (noise-scan runs serially at any count)
    counts = [4, 5] if mode in ("noise-scan", "sensitivity-sweep") else [4]
    for points in counts:
        monkeypatch.setenv("AMORSIM_SWEEP__POWER_POINTS", str(points))
        outs = {}
        for workers in (1, 2, 3):
            outs[workers] = tmp_path / f"p{points}-w{workers}"
            assert main([mode, "--config", fast_config, "--out",
                         str(outs[workers]), "--seed", "3", "--workers",
                         str(workers)]) == 0
        serial = outs.pop(1)
        names = sorted(p.name for p in serial.iterdir()
                       if p.name != "manifest.json")
        for workers, pooled in outs.items():
            assert names == sorted(p.name for p in pooled.iterdir()
                                   if p.name != "manifest.json")
            for name in names:
                assert (serial / name).read_bytes() == \
                    (pooled / name).read_bytes(), (points, workers, name)


def _generator_keys(argv, monkeypatch):
    """The key of every stream a run of argv seeds, in order: the seed of
    each numpy generator it builds."""
    keys = []
    default_rng = np.random.default_rng

    def recording(seed=None):
        keys.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", recording)
    assert main(argv) == 0
    return keys


# streams a fast-config run seeds: simulate one for the shot and one for
# the detector noise, each analyzer stack one (spectrum's on/off pair,
# noise-scan's scan, demod-sweep's carrier grid), each sensitivity-sweep
# power two (its tone rows and its tone-free rows), and snl-map, which
# maps the theory budget, none
FAST_GENERATORS = {"simulate": 2, "demod-sweep": 1, "spectrum": 1,
                   "noise-scan": 1, "snl-map": 0, "sensitivity-sweep": 8}


@pytest.mark.parametrize("mode", MODES)
def test_stream_keys_start_with_seed_and_never_repeat(mode, fast_config,
                                                      tmp_path, monkeypatch):
    keys = _generator_keys([mode, "--config", fast_config, "--out",
                            str(tmp_path), "--seed", "7"], monkeypatch)
    assert len(keys) == FAST_GENERATORS[mode]
    if mode == "snl-map":
        assert keys == []
        return
    assert all(isinstance(k, tuple) and k[0] == 7 for k in keys)
    # numpy pads short keys with zeros, so one run keeps one key length
    assert len({len(k) for k in keys}) == 1
    assert len(set(keys)) == len(keys)
    states = {tuple(np.random.SeedSequence(k).generate_state(4)) for k in keys}
    assert len(states) == len(keys)


def test_default_sensitivity_sweep_builds_one_generator_per_power(
        tmp_path, monkeypatch):
    config = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
    cfg = amorsim.cli._load_config(ScenarioSpec("sensitivity-sweep",
                                                str(config)))
    keys = _generator_keys(["sensitivity-sweep", "--config", str(config),
                            "--out", str(tmp_path), "--seed", "7"],
                           monkeypatch)
    # the chunk's tone rows first, each power's on its stream (7, index,
    # 1), then each power's tone-free rows on (7, index, 0)
    assert keys == ([(7, index, 1) for index in range(21)]
                    + [(7, index, 0) for index in range(21)])
    assert len(keys) == 2 * cfg.sweep.power_points == 42


def test_default_sweep_point_synthesizes_once_per_side(monkeypatch):
    # a default point's trace_avg tone rows take one coherent wave in all,
    # and its trace_avg tone-free rows none. Its tone rows are the rows
    # rebuilt from the point's stream (7, index, 1) on its tone band, and
    # its tone-free rows those from (7, index, 0) on the window
    config = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
    cfg = amorsim.cli._load_config(ScenarioSpec("sensitivity-sweep",
                                                str(config)))
    calls, stacks = [], []
    coherent, estimate = amorsim.cli.coherent_rotation, psd_estimate

    def counted(*args, **kwargs):
        calls.append(args)
        return coherent(*args, **kwargs)

    def recorded(ts, *args, **kwargs):
        stacks.append(ts.samples.copy())
        return estimate(ts, *args, **kwargs)

    monkeypatch.setattr(amorsim.cli, "coherent_rotation", counted)
    monkeypatch.setattr(amorsim.cli, "psd_estimate", recorded)
    index = 10
    power = float(amorsim.cli._power_grid(cfg)[index])
    amorsim.cli._sweep_point_sensitivity((cfg, 7, index, power))
    traces = cfg.sweep.trace_avg
    assert len(calls) == 1
    tones, backgrounds = stacks
    assert tones.shape[0] == backgrounds.shape[0] == traces
    field, res = cfg.field, amorsim.cli._resonance(cfg, power)
    mod = field.modulation_freq
    for stack, band, side, lane in (
            (tones, amorsim.cli._tone_band(cfg, field), res, 1),
            (backgrounds, amorsim.cli._bg_band(cfg, field), None, 0)):
        expected = _reference_stack(
            cfg, band, [(side, power, mod, (7, index, lane))] * traces)
        for row, series in enumerate(expected):
            assert stack[row].tobytes() == series.samples.tobytes(), row


@pytest.mark.parametrize("mode, stacks", [
    ("spectrum", [2]),                 # its on/off pair
    ("noise-scan", [22, 22]),          # a dark point and 21 powers, 2 fields
    # the 4 tone rows of each of 21 powers, then the 4 tone-free rows of
    # 2 powers a stack
    ("sensitivity-sweep", [84] + [8] * 10 + [4]),
])
def test_analyzer_modes_estimate_each_stack_once(mode, stacks, tmp_path,
                                                 monkeypatch):
    # one cli.psd_estimate call per stack on configs/default.cfg: the name
    # perfbench wraps for its dsp.psd_estimate.calls metric
    config = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
    rows, estimate = [], psd_estimate

    def counted(ts, *args, **kwargs):
        rows.append(ts.samples.shape[0])
        return estimate(ts, *args, **kwargs)

    monkeypatch.setattr(amorsim.cli, "psd_estimate", counted)
    assert main([mode, "--config", str(config), "--out",
                 str(tmp_path / "o"), "--seed", "1"]) == 0
    assert rows == stacks


# ---------------------------------------------------------------------------
# Configuration plumbing
# ---------------------------------------------------------------------------

def test_env_override_reaches_manifest(fast_config, tmp_path, monkeypatch):
    monkeypatch.setenv("AMORSIM_RESONANCE__PHI0", "3.1e-3")
    out = tmp_path / "env"
    assert main(["simulate", "--config", fast_config, "--out", str(out)]) == 0
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["config"]["resonance.phi0"] == 3.1e-3


def test_unknown_env_override_exits_2(fast_config, tmp_path, monkeypatch,
                                     capsys):
    monkeypatch.setenv("AMORSIM_DETECTOR__PHOTOCURRENT_CONVENTION",
                       "as_printed")
    code = main(["simulate", "--config", fast_config,
                 "--out", str(tmp_path / "x")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "detector.photocurrent_convention" in err["message"]


def test_detuning_delta_env_override_exits_2(fast_config, tmp_path,
                                             monkeypatch, capsys):
    # the detuning is set through field.modulation_freq alone
    monkeypatch.setenv("AMORSIM_FIELD__DETUNING_DELTA", "0")
    code = main(["simulate", "--config", fast_config,
                 "--out", str(tmp_path / "x")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["message"] == "field.detuning_delta: unknown configuration key"
    assert not (tmp_path / "x").exists()


def test_snlmap_knee_env_override_exits_2(fast_config, tmp_path,
                                          monkeypatch, capsys):
    # the knee is detector.electronic_knee_freq, read by every budget
    monkeypatch.setenv("AMORSIM_SNLMAP__ELEC_KNEE_FREQ", "20e3")
    code = main(["snl-map", "--config", fast_config,
                 "--out", str(tmp_path / "x")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["message"] == "snlmap.elec_knee_freq: unknown configuration key"
    assert not (tmp_path / "x").exists()


def test_bad_env_override_exits_2(fast_config, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("AMORSIM_SIM__SAMPLE_RATE", "not-a-number")
    code = main(["simulate", "--config", fast_config,
                 "--out", str(tmp_path / "x")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 2
    assert "sim.sample_rate" in err["message"]


def _run_on_defaults(mode, tmp_path):
    out = tmp_path / "defaults"
    assert main([mode, "--out", str(out), "--seed", "1"]) == 0
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["config_path"] is None
    assert doc["config"]["field.b_field"] == 7.6e-6


def test_runs_without_config_file(tmp_path):
    # defaults carry a complete full-scale setup; the cheapest mode runs it
    _run_on_defaults("simulate", tmp_path)


@pytest.mark.parametrize("mode", [m for m in MODES if m != "simulate"])
def test_every_mode_runs_without_config_file(mode, tmp_path):
    # the same defaults are complete for every analysing mode too
    _run_on_defaults(mode, tmp_path)


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


FLOAT_KEYS = [key for key, row in _KEY_TABLE.items() if row[2] in ("f", "f?")]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_every_float_key_rejects_non_finite(key, value, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"{key} = {value}\n")
    code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["message"] == f"{key}: non-finite value {float(value)!r}"


def _run_fault_row(mode, config, code, keys, message, tmp_path, capsys,
                   monkeypatch):
    # one row of the refusal contract: its exit code and, for a refusal,
    # the stderr JSON naming its keys (or its exact message) and no --out;
    # a config refusal leads with one of its keys and neither seeds a
    # stream nor draws an analyzer row first, but for the one that reads
    # spectrum's window off the traces
    draws, draw = [], amorsim.cli.white_noise
    monkeypatch.setattr(amorsim.cli, "white_noise",
                        lambda *args, **kwargs: draws.append(args)
                        or draw(*args, **kwargs))
    seeded, seed = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda key=None: seeded.append(key) or seed(key))
    path, out = tmp_path / "fault.cfg", tmp_path / "o"
    path.write_text(config + "\n")
    assert main([mode, "--config", str(path), "--out", str(out)]) == code
    if code == 0:
        return
    err = json.loads(capsys.readouterr().err)
    if code == 2 and "must reach a trace bin" not in err["message"]:
        assert not draws, "drew an analyzer row before the refusal"
        assert not seeded, "seeded a stream before the refusal"
    assert err["exit_code"] == code
    assert (err["error"] == "ConfigError") == (code == 2), err
    keys = (keys,) if isinstance(keys, str) else keys or ()
    for key in keys:
        assert key in err["message"]
    if code == 2:
        assert err["message"].startswith(tuple(f"{key}:" for key in keys))
    assert message is None or err["message"] == message
    assert not out.exists()


_REFUSALS = [pytest.param(mode, config, keys, message,
                          id=f"{mode}-{config}\n-{key}")
             for mode, config, code, keys, message in FAULTS if code == 2
             for key in ((keys,) if isinstance(keys, str) else keys)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mode, config, keys, message", _REFUSALS)
def test_config_faults_exit_2_naming_key(mode, config, keys, message,
                                         tmp_path, capsys, monkeypatch):
    # each refusal row of the table, once per key its message must name;
    # each run checks the whole row, whose message leads with one of them
    _run_fault_row(mode, config, 2, keys, message, tmp_path, capsys,
                   monkeypatch)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mode, config, code, keys, message", [
    row for row in FAULTS if row[2] != 2], ids=[
    f"{mode}: {config.replace(chr(10), '; ')}"
    for mode, config, code, *_ in FAULTS if code != 2])
def test_fault_table(mode, config, code, keys, message, tmp_path, capsys,
                     monkeypatch):
    # each row of the table that runs (exit 0) or fails numerically (exit 3)
    _run_fault_row(mode, config, code, keys, message, tmp_path, capsys,
                   monkeypatch)


def test_noise_scan_builds_its_power_grid_once(tmp_path, monkeypatch):
    # both scans read the one grid, built before the background rule
    grids, grid = [], amorsim.cli._power_grid
    monkeypatch.setattr(amorsim.cli, "_power_grid",
                        lambda cfg: grids.append(cfg) or grid(cfg))
    config = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
    assert main(["noise-scan", "--config", str(config),
                 "--out", str(tmp_path / "o")]) == 0
    assert len(grids) == 1
    # default.cfg sets noisescan.include_zero: the dark point leads each scan
    for stem in ("noise_scan", "noise_scan_high"):
        _, (powers, _), _ = read_table(tmp_path / "o" / f"{stem}.csv")
        assert powers.tolist() == [0.0, *grid(grids[0])]


@pytest.mark.parametrize("setting", [
    "resonance.phi0 = 0", "resonance.phi0 = 0.5",
    "resonance.gamma_fwhm = 5e-324", "resonance.gamma_fwhm = 1e300"])
def test_noise_scan_reads_no_resonance(setting, mode_run, fast_config,
                                       tmp_path, monkeypatch):
    # noise-scan's rows are None rows: no row reaches coherent_rotation,
    # and resonance.* moves none of its data bytes, only the manifest
    def no_wave(*args):
        raise AssertionError("noise-scan built a coherent wave")

    monkeypatch.setattr(amorsim.cli, "coherent_rotation", no_wave)
    base = mode_run("noise-scan")
    config, out = tmp_path / "c.cfg", tmp_path / "o"
    config.write_text(Path(fast_config).read_text() + setting + "\n")
    assert main(["noise-scan", "--config", str(config), "--out", str(out),
                 "--seed", "11"]) == 0
    names = sorted(path.name for path in base.iterdir())
    assert sorted(path.name for path in out.iterdir()) == names
    for name in names:
        if name != "manifest.json":
            assert (out / name).read_bytes() == (base / name).read_bytes(), name


def test_demod_sweep_blames_noise_only_at_a_tone_below_it(
        fast_config, tmp_path, capsys, monkeypatch):
    # a fit that fails on a tone above the noise keeps fit_lorentzian's
    # message; the tone-to-noise rule has its row in tests/faults.py
    def fails(curve):
        raise FitError("resonance fit did not converge")

    monkeypatch.setattr(amorsim.cli, "fit_lorentzian", fails)
    assert main(["demod-sweep", "--config", fast_config,
                 "--out", str(tmp_path / "o")]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["message"] == "resonance fit did not converge"


def test_noise_scan_fits_both_scans_before_writing(tmp_path, monkeypatch):
    fits, fit = [], amorsim.cli.fit_noise_polynomial

    def second_fails(*args, **kwargs):
        fits.append(args)
        if len(fits) == 2:
            raise FitError("the second scan's fit failed")
        return fit(*args, **kwargs)

    monkeypatch.setattr(amorsim.cli, "fit_noise_polynomial", second_fails)
    config = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
    assert main(["noise-scan", "--config", str(config),
                 "--out", str(tmp_path / "o")]) == 3
    assert len(fits) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("mode, setting", [
    *[(mode, "field.modulation_freq = 3e16")
      for mode in ("spectrum", "noise-scan", "sensitivity-sweep")],
    # a 2.98e16 Hz resonance: float64 values 4 Hz apart, under the 8 Hz step
    ("demod-sweep", "field.b_field = 3.2e6")])
def test_carrier_float64_resolves_runs(mode, setting, fast_config, tmp_path):
    cfg = tmp_path / "far.cfg"
    cfg.write_text(Path(fast_config).read_text() + setting + "\n")
    assert main([mode, "--config", str(cfg), "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("mode, vbw", [
    ("spectrum", "4e-3"), ("spectrum", "0.3"), ("noise-scan", "0.04"),
    ("noise-scan", "0.3"), ("sensitivity-sweep", "0.04")])
def test_vbw_that_moves_the_trace_runs(mode, vbw, tmp_path, monkeypatch):
    # the video filter moves 1.1 levels across spectrum's 40 kHz span at
    # 4 mHz, and across the 4 kHz background window at 40 mHz
    monkeypatch.setenv("AMORSIM_SPECTRUM__VBW", vbw)
    config = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
    assert main([mode, "--config", str(config), "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("exc, code, error, message", [
    (ConfigError("sweep.power_points: bad"), 2, "ConfigError",
     "sweep.power_points: bad"),
    (ValueError("bad value"), 2, "ValueError", "bad value"),
    (MemoryError("no room"), 2, "ConfigError", "sim.duration: a series this "
     "long does not fit in memory (no room)"),
    (FitError("no convergence"), 3, "FitError", "no convergence"),
    (np.linalg.LinAlgError("singular"), 3, "LinAlgError", "singular"),
    (FloatingPointError("underflow"), 3, "FloatingPointError", "underflow"),
    (OverflowError("too large"), 3, "OverflowError", "too large"),
    (OSError("disk full"), 4, "OSError", "disk full"),
])
def test_each_failure_class_maps_to_its_exit_code(exc, code, error, message,
                                                  tmp_path, capsys,
                                                  monkeypatch):
    def fail(*args):
        raise exc

    monkeypatch.setitem(amorsim.cli._HANDLERS, "snl-map", (fail, "fails"))
    assert main(["snl-map", "--out", str(tmp_path / "o")]) == code
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": error, "message": message, "exit_code": code}


def test_modes_reading_a_band_run_at_75_uT(tmp_path, monkeypatch):
    # 75 uT puts the carrier at 699.8 kHz, past sim.sample_rate/4 on
    # configs/default.cfg: only simulate samples at that rate
    config = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
    monkeypatch.setenv("AMORSIM_FIELD__B_FIELD", "75e-6")
    for mode in MODES:
        if mode != "simulate":
            assert main([mode, "--config", str(config), "--out",
                         str(tmp_path / mode), "--seed", "1"]) == 0, mode
    fit = json.loads((tmp_path / "demod-sweep" / "resonance_fit.json")
                     .read_text())["params"]
    center = amorsim.cli._load_config(ScenarioSpec(
        "demod-sweep", str(config))).field.modulation_freq
    assert fit["center_freq"] == pytest.approx(center, abs=0.01)


def test_demod_sweep_does_not_read_the_sample_rate(tmp_path):
    # its lock-in reads envelopes of its own band, never a series at
    # sim.sample_rate, so a 40 Hz rate leaves every output as it is
    default = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
    slow = tmp_path / "slow.cfg"
    slow.write_text(default.read_text() + "sim.sample_rate = 40\n")
    outs = [tmp_path / "default", tmp_path / "slow"]
    for config, out in zip((default, slow), outs):
        assert main(["demod-sweep", "--config", str(config), "--out",
                     str(out), "--seed", "1"]) == 0
    names = sorted(p.name for p in outs[0].iterdir()
                   if p.name != "manifest.json")
    assert names == ["fig2_resonance.dat", "resonance_curve.csv",
                     "resonance_fit.json"]
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_lock_in_bandwidth_keeps_60_db_at_twice_the_lowest_carrier():
    # a 4th-order Butterworth rejects 2f by 60 dB from 2f/bw = 10^(3/4) on
    config = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
    cfg = amorsim.cli._load_config(ScenarioSpec("demod-sweep", str(config)))
    lowest = 460.0
    limit = 2.0 * lowest / 10.0 ** 0.75
    amorsim.cli._require_lockin_fits(
        replace(cfg, lockin=replace(cfg.lockin, output_bandwidth=limit)),
        lowest)
    wide = replace(cfg, lockin=replace(
        cfg.lockin, output_bandwidth=math.nextafter(limit, math.inf)))
    with pytest.raises(ConfigError, match="lockin.output_bandwidth: .* "
                       f"at or below {limit!r} Hz"):
        amorsim.cli._require_lockin_fits(wide, lowest)


def test_oversized_trace_average_exits_2_naming_its_key(tmp_path):
    # a point's 1e15 tone rows are refused as one list before any stack or
    # row's key is built; the child's address space is capped, so a run
    # that builds the keys first fails here instead of exhausting the
    # host's memory
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(f"sweep.trace_avg = {10 ** 15}\n")
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
        "from amorsim.cli import main\n"
        f"sys.exit(main(['sensitivity-sweep', '--config', {str(cfg)!r}, "
        f"'--out', {str(tmp_path / 'o')!r}]))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run([sys.executable, "-c", child], capture_output=True,
                         text=True, timeout=120,
                         env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"})
    assert run.returncode == 2, run.stderr
    err = json.loads(run.stderr)
    assert err["error"] == "ConfigError"
    assert err["message"].startswith(f"sweep.trace_avg: {10 ** 15} rows")


def test_demod_sweep_runs_at_the_lock_in_duration_limit(tmp_path):
    # 1.4286 s just clears 10/bw = 1.428571 s at bw = 7 Hz, but its envelope
    # at 360 Hz rounds to 514 samples, 1.42778 s
    cfg = tmp_path / "limit.cfg"
    cfg.write_text(FAST_CONFIG + "lockin.output_bandwidth = 7 Hz\n"
                   "sim.duration = 1.4286\n")
    assert main(["demod-sweep", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 0


def test_demod_sweep_fits_at_the_narrowest_grid_across_seeds(tmp_path):
    # sweep.freq_halfspan_widths >= 1 spans the two linewidths the
    # Lorentzian fit needs; at exactly 1 no seed raises FitError
    default = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
    cfg = tmp_path / "narrow.cfg"
    cfg.write_text(default.read_text() + "sweep.freq_halfspan_widths = 1\n")
    for seed in range(20):
        assert run_scenario(ScenarioSpec("demod-sweep", str(cfg),
                                         str(tmp_path / "o"), seed)) == 0


@pytest.mark.parametrize("mod_freq", ["1e15", "1e20"])
def test_demod_sweep_centres_on_the_field_resonance(mod_freq, monkeypatch):
    # the resonance is the field's doubled Larmor frequency, however far
    # field.modulation_freq sits from it
    monkeypatch.setenv("AMORSIM_FIELD__MODULATION_FREQ", mod_freq)
    cfg = amorsim.cli._load_config(ScenarioSpec("demod-sweep"))
    assert cfg.field.modulation_freq == float(mod_freq)
    res, _ = amorsim.cli._demod_grid(cfg)
    assert res.center_freq == larmor_doubled_freq(cfg.field.b_field,
                                                  cfg.atom)


def test_demod_sweep_runs_with_carriers_near_dc(tmp_path):
    # a 400 Hz resonance swept over 160-640 Hz at a 1700 Hz sample rate:
    # every lock-in band reaches below DC, so every envelope sits at 0 Hz
    cfg = tmp_path / "near_dc.cfg"
    default = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
    cfg.write_text(default.read_text() + "field.b_field = 42.9 nT\n"
                   "sim.sample_rate = 1700\n")
    out = tmp_path / "o"
    assert main(["demod-sweep", "--config", str(cfg), "--out", str(out),
                 "--seed", "1"]) == 0
    _, (freqs, _, _), _ = read_table(out / "resonance_curve.csv")
    fit = json.loads((out / "resonance_fit.json").read_text())["params"]
    assert fit["center_freq"] == pytest.approx(
        0.5 * (freqs[0] + freqs[-1]), abs=2.0)
    assert fit["phi0"] == pytest.approx(2.5e-3, rel=0.1)


def test_overflowing_gain_exits_2_in_every_mode(fast_config, tmp_path,
                                                capsys, monkeypatch):
    key = "detector.transimpedance_gain_nominal"
    monkeypatch.setenv("AMORSIM_DETECTOR__TRANSIMPEDANCE_GAIN_NOMINAL", "1e200")
    for mode in MODES:
        code = main([mode, "--config", fast_config,
                     "--out", str(tmp_path / mode)])
        err = json.loads(capsys.readouterr().err)
        assert (code, err["error"]) == (2, "ConfigError"), mode
        assert err["message"].startswith(key), mode


def test_scenario_spec_validation():
    with pytest.raises(ConfigError, match="mode"):
        ScenarioSpec(mode="frequency-comb")
    with pytest.raises(ConfigError, match="workers"):
        ScenarioSpec(mode="simulate", workers=0)
    with pytest.raises(ConfigError, match="^seed: "):
        ScenarioSpec(mode="simulate", seed=-1)


@pytest.mark.parametrize("mode", ["simulate", "snl-map"])
def test_negative_seed_exits_2_naming_the_key(mode, tmp_path, capsys):
    out = tmp_path / "o"
    assert main([mode, "--seed", "-1", "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["message"] == "seed: must be >= 0, got -1"
    assert not out.exists()  # rejected before the run starts


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


def test_demo_suite_script_prints_summary(fast_config, tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_demo_suite.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--config", fast_config,
         "--out", str(tmp_path / "demo")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    summary = proc.stdout.split("\n\n", 1)[1].splitlines()
    assert [line.split(":")[0] for line in summary] == [
        "resonance fit", "spectrum", "best sensitivity",
        "k=4 SNL window at 7.1 kHz"]
    assert "uW .. " in summary[3] and "(empty)" not in summary[3]


def _perfbench_spans() -> types.ModuleType:
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spans = types.ModuleType("spans")
    exec(compile(path.read_text(), str(path), "exec"), spans.__dict__)
    return spans


def test_traced_import_sites_resolve():
    # perfbench/spans.py wraps these (module, attribute) pairs; a rename
    # would break the traced benchmark pass without failing anything else.
    spans = _perfbench_spans()
    assert spans.WRAPPED
    for module_name, attr, _name, _count in spans.WRAPPED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), (module_name, attr)


def test_traced_writers_count_the_bytes_they_write(fast_config, tmp_path):
    # the traced pass reads each *_to_csv writer's path from its second
    # argument; these three modes write their .csv files through them only
    spans = _perfbench_spans()
    tracer = spans.Tracer("writers")
    tracer.install()
    try:
        for mode in ("simulate", "spectrum", "snl-map"):
            assert main([mode, "--config", fast_config,
                         "--out", str(tmp_path / mode)]) == 0
    finally:
        tracer.uninstall()
    counted = [span["bytes"] for span in tracer.spans
               if span["name"] == spans.WRITERS]
    written = [path.stat().st_size for path in tmp_path.glob("*/*.csv")]
    assert len(counted) == 6 and min(counted) > 0
    assert sorted(counted) == sorted(written)
