"""Batch command-line front-end.

Subcommands map one-to-one to scenario modes::

    amorsim simulate           one synthesized + detected time series
    amorsim demod-sweep        lock-in quadratures vs modulation frequency
    amorsim spectrum           analyzer traces on/off resonance + SNR
    amorsim noise-scan         background level vs optical power + budget fit
    amorsim snl-map            shot-noise-limited windows vs detection freq
    amorsim sensitivity-sweep  field sensitivity vs optical power

Every mode writes its data files plus ``manifest.json`` into ``--out``.
Exit codes: 0 success, 2 configuration error, 3 numerical failure, 4 I/O
error; failures print a single JSON object to stderr.

Random streams. Every series is synthesized and detected by ``_chain``,
which draws the rotation noise from stream ``key + (0,)`` and the detector
noise from ``key + (1,)``, where ``key = (seed, *point coordinates)``:

    simulate           (seed,)
    spectrum           (seed, side)                  side 0 on, 1 off resonance
    noise-scan         (seed, scan, power_index)     scan 1 is the second field
    sensitivity-sweep  (seed, power_index, trace, side)
    demod-sweep        (seed, freq_index)            synthesis only, in dsp
    snl-map            (seed, gain_lane, freq_index) estimator jitter, no chain

Each point owns its streams, so outputs are byte-identical for a fixed
``--seed`` regardless of ``--workers``. The keys of one run all have the
same length: numpy pads a short key with zeros, so ``(seed, 0)`` and
``(seed, 0, 0)`` would name the same stream.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .analysis import (
    classify_operating_point,
    compute_snr,
    make_sensitivity_report,
    sensitivity,
    snl_map,
    snl_map_to_csv,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    FieldConfig,
    apply_env_overrides,
    config_as_dict,
    load_config_file,
    validate_config,
)
from .detector import (
    NoiseBudget,
    detect,
    detected_to_csv,
    theoretical_shot_noise_level,
)
from .dsp import (
    SweepSynthesis,
    _pmap,
    peak_and_background,
    psd_estimate,
    resonance_curve_to_csv,
    spectrum_to_csv,
    sweep_resonance,
)
from .fitting import FitError, fit_lorentzian, fit_noise_polynomial, fit_report
from .signal_model import ResonanceParams, rotation_to_csv, synthesize_rotation

MODES = ("simulate", "demod-sweep", "spectrum", "noise-scan", "snl-map",
         "sensitivity-sweep")

__all__ = ["ScenarioSpec", "run_scenario", "emit_plotdata", "main", "MODES"]


@dataclass
class ScenarioSpec:
    """One batch run: which mode, which config, where to write, which seed."""

    mode: str
    config_path: Optional[str] = None
    output_dir: str = "amorsim-out"
    seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode: unknown scenario {self.mode!r}")
        if self.workers < 1:
            raise ConfigError(f"workers: must be >= 1, got {self.workers!r}")
        self.seed = int(self.seed)


def _load_config(spec: ScenarioSpec) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if spec.config_path is not None:
        cfg = load_config_file(spec.config_path, base=cfg)
    apply_env_overrides(cfg)
    return validate_config(cfg)


def _center_freq(field: FieldConfig) -> float:
    return field.modulation_freq - field.detuning_delta / (2.0 * math.pi)


def _power_grid(cfg: ExperimentConfig) -> np.ndarray:
    sw = cfg.sweep
    if sw.power_scale == "log":
        grid = np.geomspace(sw.power_min, sw.power_max, sw.power_points)
    else:
        grid = np.linspace(sw.power_min, sw.power_max, sw.power_points)
    if not np.all(np.diff(grid) > 0):
        raise ConfigError("sweep power grid is not strictly increasing")
    return grid


def _shot_coef_theory(cfg: ExperimentConfig) -> float:
    """Analyzer-level shot coefficient B in W/Hz per watt of optical power."""
    return theoretical_shot_noise_level(
        1.0, cfg.detector, cfg.atom.probe_wavelength, cfg.constants
    )


def _config_budget(cfg: ExperimentConfig, detection_freq: float) -> NoiseBudget:
    return NoiseBudget(
        coef_elec=cfg.detector.electronic_noise_floor,
        coef_shot=_shot_coef_theory(cfg),
        coef_tech=cfg.detector.technical_noise_coef,
        detection_freq=detection_freq,
    )


def _write_dat(path: Path, columns: list[str], rows, seed: int) -> None:
    """gnuplot-style whitespace table with a documenting header."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# seed = {seed}\n")
        fh.write(f"# columns: {' '.join(columns)}\n")
        for row in rows:
            fh.write(" ".join(_fmt(v) for v in row) + "\n")


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _chain(cfg: ExperimentConfig, res: ResonanceParams, field: FieldConfig,
           power: float, key: tuple, sample_rate: Optional[float] = None):
    """Synthesize and detect one series from streams key+(0,) and key+(1,)."""
    ts = synthesize_rotation(
        res, field, cfg.sim.duration,
        cfg.sim.sample_rate if sample_rate is None else sample_rate, power,
        rng_seed=key + (0,), wavelength=cfg.atom.probe_wavelength,
        constants=cfg.constants,
    )
    det_ts = detect(
        ts, cfg.detector,
        coef_elec=cfg.detector.electronic_noise_floor,
        coef_tech=cfg.detector.technical_noise_coef,
        rng_seed=key + (1,), constants=cfg.constants,
    )
    return ts, det_ts


# ---------------------------------------------------------------------------
# Mode handlers (each returns the list of files it wrote)
# ---------------------------------------------------------------------------

def _run_simulate(cfg: ExperimentConfig, spec: ScenarioSpec,
                  outdir: Path) -> list[str]:
    res = ResonanceParams(cfg.resonance.phi0, cfg.resonance.gamma_fwhm,
                          _center_freq(cfg.field_cfg))
    ts, det_ts = _chain(cfg, res, cfg.field_cfg, cfg.sim.probe_power,
                        (spec.seed,))
    rotation_to_csv(ts, outdir / "rotation.csv")
    detected_to_csv(det_ts, outdir / "detected.csv")
    return ["rotation.csv", "detected.csv"]


def _run_demod_sweep(cfg: ExperimentConfig, spec: ScenarioSpec,
                     outdir: Path) -> list[str]:
    center = _center_freq(cfg.field_cfg)
    halfspan = cfg.sweep.freq_halfspan_widths * cfg.resonance.gamma_fwhm
    freqs = np.linspace(center - halfspan, center + halfspan,
                        cfg.sweep.freq_points)
    res = ResonanceParams(cfg.resonance.phi0, cfg.resonance.gamma_fwhm, center)
    synth = SweepSynthesis(
        duration=cfg.sim.duration, sample_rate=cfg.sim.sample_rate,
        power=cfg.sim.probe_power,
        output_bandwidth=cfg.lockin.output_bandwidth,
        wavelength=cfg.atom.probe_wavelength, seed=spec.seed,
        workers=spec.workers,
    )
    curve = sweep_resonance(res, freqs, synth)
    resonance_curve_to_csv(curve, outdir / "resonance_curve.csv", spec.seed)
    outputs = ["resonance_curve.csv"]
    fit = fit_lorentzian(curve)
    fit_report(fit, outdir / "resonance_fit.json")
    outputs.append("resonance_fit.json")
    _write_dat(
        outdir / "fig2_resonance.dat",
        ["mod_freq_hz", "phi_p_rad", "phi_q_rad"],
        zip(curve.mod_freqs, curve.phi_P_values, curve.phi_Q_values),
        spec.seed,
    )
    outputs.append("fig2_resonance.dat")
    return outputs


def _spectrum_pair(cfg: ExperimentConfig, key: tuple,
                   power: float, phi0: float, gamma_fwhm: float):
    """On/off-resonance analyzer traces around the modulation frequency."""
    field = cfg.field_cfg
    center = _center_freq(field)
    mod = field.modulation_freq
    sp = cfg.spectrum
    span = (max(mod - sp.span / 2.0, 0.0), mod + sp.span / 2.0)
    series = []
    for side, amplitude in enumerate((phi0, 0.0)):
        res = ResonanceParams(amplitude, gamma_fwhm, center)
        _, det_ts = _chain(cfg, res, field, power, key + (side,))
        series.append(psd_estimate(det_ts, sp.rbw, sp.vbw, span=span))
    return series[0], series[1]


def _run_spectrum(cfg: ExperimentConfig, spec: ScenarioSpec,
                  outdir: Path) -> list[str]:
    mod = cfg.field_cfg.modulation_freq
    spec_on, spec_off = _spectrum_pair(
        cfg, (spec.seed,), cfg.sim.probe_power, cfg.resonance.phi0,
        cfg.resonance.gamma_fwhm,
    )
    s_sig, s_bg = peak_and_background(spec_on, spec_off, mod,
                                      cfg.spectrum.bg_window)
    snr = compute_snr(s_sig, s_bg, spec_on.enbw)
    spectrum_to_csv(spec_on, outdir / "spectrum_on.csv", spec.seed)
    spectrum_to_csv(spec_off, outdir / "spectrum_off.csv", spec.seed)
    _write_json(outdir / "snr.json", {
        "seed": spec.seed,
        "modulation_freq_hz": mod,
        "s_sig_w_per_hz": s_sig,
        "s_bg_w_per_hz": s_bg,
        "rbw_hz": spec_on.rbw,
        "vbw_hz": spec_on.vbw,
        "enbw_hz": spec_on.enbw,
        "snr": snr,
        "snr_provenance": "derived",
        "snr_convention": "per-sqrt-hz",
    })
    _write_dat(
        outdir / "fig3_spectrum.dat", ["freq_hz", "psd_w_per_hz"],
        zip(spec_on.freqs, spec_on.psd), spec.seed,
    )
    return ["spectrum_on.csv", "spectrum_off.csv", "snr.json",
            "fig3_spectrum.dat"]


def _noise_level_point(args) -> float:
    """Measured background density at one optical power (worker task)."""
    cfg, power, key, sample_rate, field = args
    res = ResonanceParams(0.0, cfg.resonance.gamma_fwhm, _center_freq(field))
    _, det_ts = _chain(cfg, res, field, power, key, sample_rate)
    mod = field.modulation_freq
    half = cfg.spectrum.bg_window / 2.0
    trace = psd_estimate(det_ts, cfg.spectrum.rbw, cfg.spectrum.vbw,
                         span=(mod - half, mod + half))
    return float(trace.psd.mean())


def _noise_scan_at_field(cfg: ExperimentConfig, spec: ScenarioSpec,
                         field: FieldConfig, scan_index: int):
    """Noise level vs power at one detection frequency, plus budget fit."""
    sample_rate = max(cfg.sim.sample_rate, 4.5 * field.modulation_freq)
    powers = list(_power_grid(cfg))
    include_zero = cfg.noisescan.include_zero
    if include_zero and cfg.detector.electronic_noise_floor <= 0.0:
        raise ConfigError(
            "noisescan.include_zero: needs a nonzero "
            "detector.electronic_noise_floor (the zero-power trace would "
            "be empty)"
        )
    if include_zero:
        powers = [0.0] + powers
    tasks = [
        (cfg, p, (spec.seed, scan_index, i), sample_rate, field)
        for i, p in enumerate(powers)
    ]
    levels = _pmap(_noise_level_point, tasks, spec.workers)
    fixed = levels[0] if include_zero else None
    fit = fit_noise_polynomial(powers, levels, fixed_elec=fixed)
    return powers, levels, fit


def _write_noise_scan(outdir: Path, stem: str, fig_name: str, powers, levels,
                      fit, detection_freq: float, cfg: ExperimentConfig,
                      spec: ScenarioSpec) -> list[str]:
    scan_csv = f"{stem}.csv"
    with open(outdir / scan_csv, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# seed = {spec.seed}\n")
        fh.write(f"# detection_freq_hz = {detection_freq!r}\n")
        fh.write("power_w,noise_w_per_hz\n")
        for p, n in zip(powers, levels):
            fh.write(f"{float(p)!r},{float(n)!r}\n")
    budget_json = f"{stem}_budget.json"
    doc = json.loads(fit_report(fit))
    doc.update({
        "seed": spec.seed,
        "detection_freq_hz": detection_freq,
        "coef_shot_theory": _shot_coef_theory(cfg),
    })
    _write_json(outdir / budget_json, doc)
    model = [fit.eval(p) for p in powers]
    _write_dat(
        outdir / fig_name,
        ["power_w", "noise_w_per_hz", "model_w_per_hz"],
        zip(powers, levels, model), spec.seed,
    )
    return [scan_csv, budget_json, fig_name]


def _run_noise_scan(cfg: ExperimentConfig, spec: ScenarioSpec,
                    outdir: Path) -> list[str]:
    scans = [("noise_scan", "fig4a_noise.dat", cfg.field_cfg)]
    if cfg.noisescan.second_b_field is not None:
        field2 = FieldConfig(b_field=cfg.noisescan.second_b_field).resolve(
            cfg.atom, cfg.constants
        )
        scans.append(("noise_scan_high", "fig4b_noise.dat", field2))
    outputs = []
    for scan, (stem, fig_name, field) in enumerate(scans):
        powers, levels, fit = _noise_scan_at_field(cfg, spec, field, scan)
        outputs += _write_noise_scan(outdir, stem, fig_name, powers, levels,
                                     fit, field.modulation_freq, cfg, spec)
    return outputs


def _synthetic_budget_levels(cfg: ExperimentConfig, freq: float,
                             powers: np.ndarray, shot_coef: float,
                             tech_coef: float, rng) -> np.ndarray:
    """PSD levels a real scan would measure, with estimator scatter."""
    knee = cfg.snlmap.elec_knee_freq
    floor = cfg.detector.electronic_noise_floor
    a_of_f = floor * (1.0 + (knee / freq) ** 2) if knee > 0.0 else floor
    truth = a_of_f + shot_coef * powers + tech_coef * powers ** 2
    jitter = cfg.snlmap.jitter_rel
    factors = np.maximum(1.0 + jitter * rng.standard_normal(powers.size), 0.01)
    return truth * factors


def _snl_map_rows(cfg: ExperimentConfig, spec: ScenarioSpec, lane: int,
                  gain_nominal: float) -> list[dict]:
    det = replace(cfg.detector, transimpedance_gain_nominal=gain_nominal)
    scale_cfg = replace(cfg, detector=det)
    shot_coef = _shot_coef_theory(scale_cfg)
    gain_ratio_sq = (det.gain_effective / cfg.detector.gain_effective) ** 2
    tech_coef = cfg.detector.technical_noise_coef * gain_ratio_sq
    freqs = np.linspace(cfg.snlmap.freq_min, cfg.snlmap.freq_max,
                        cfg.snlmap.freq_bins)
    powers = np.concatenate([[0.0], _power_grid(cfg)])
    budgets = []
    for fi, freq in enumerate(freqs):
        rng = np.random.default_rng((spec.seed, lane, fi))
        levels = _synthetic_budget_levels(cfg, float(freq), powers,
                                          shot_coef, tech_coef, rng)
        fit = fit_noise_polynomial(powers, levels, fixed_elec=levels[0])
        budgets.append(NoiseBudget(
            coef_elec=fit.coef_elec, coef_shot=fit.coef_shot,
            coef_tech=fit.coef_tech, detection_freq=float(freq),
        ))
    return snl_map(budgets, cfg.snlmap.k_list())


def _snl_fig_rows(rows: list[dict], k_values: list[float]):
    by_freq: dict = {}
    for row in rows:
        by_freq.setdefault(row["freq_hz"], {})[row["k"]] = row
    out = []
    for freq in sorted(by_freq):
        flat = [freq]
        for k in k_values:
            row = by_freq[freq][k]
            flat += [row["p_low_w"], row["p_high_w"]]
        out.append(flat)
    return out


def _run_snl_map(cfg: ExperimentConfig, spec: ScenarioSpec,
                 outdir: Path) -> list[str]:
    ks = sorted(cfg.snlmap.k_list())
    columns = ["freq_hz"]
    for k in ks:
        columns += [f"p_low_k{k:g}_w", f"p_high_k{k:g}_w"]

    rows = _snl_map_rows(cfg, spec, 0,
                         cfg.detector.transimpedance_gain_nominal)
    snl_map_to_csv(rows, outdir / "snl_map.csv", spec.seed)
    _write_dat(outdir / "fig6_snl.dat", columns, _snl_fig_rows(rows, ks),
               spec.seed)

    rows_alt = _snl_map_rows(cfg, spec, 1, cfg.snlmap.second_gain_nominal)
    snl_map_to_csv(rows_alt, outdir / "snl_map_alt_gain.csv", spec.seed)
    _write_dat(outdir / "fig7_snl.dat", columns, _snl_fig_rows(rows_alt, ks),
               spec.seed)
    return ["snl_map.csv", "fig6_snl.dat", "snl_map_alt_gain.csv",
            "fig7_snl.dat"]


def _sweep_point_sensitivity(args):
    """(power index, power) -> one sensitivity-sweep row (worker task)."""
    cfg, spec_seed, index, power = args
    sat = cfg.saturation
    phi0 = sat.phi0_at(power)
    gamma = sat.gamma_at(power)
    mod = cfg.field_cfg.modulation_freq
    sig_sum = bg_sum = 0.0
    enbw = 0.0
    for trace in range(cfg.sweep.trace_avg):
        spec_on, spec_off = _spectrum_pair(cfg, (spec_seed, index, trace),
                                           power, phi0, gamma)
        part_sig, part_bg = peak_and_background(spec_on, spec_off, mod,
                                                cfg.spectrum.bg_window)
        sig_sum += part_sig
        bg_sum += part_bg
        enbw = spec_on.enbw
    s_sig = sig_sum / cfg.sweep.trace_avg
    s_bg = bg_sum / cfg.sweep.trace_avg
    snr = compute_snr(s_sig, s_bg, enbw)
    delta_b = sensitivity(gamma, snr, cfg.atom.g_f, constants=cfg.constants)
    return {
        "power_w": power, "phi0_rad": phi0, "gamma_fwhm_hz": gamma,
        "s_sig_w_per_hz": s_sig, "s_bg_w_per_hz": s_bg, "snr": snr,
        "delta_b_t_per_sqrt_hz": delta_b,
    }


def _run_sensitivity_sweep(cfg: ExperimentConfig, spec: ScenarioSpec,
                           outdir: Path) -> list[str]:
    powers = _power_grid(cfg)
    mod = cfg.field_cfg.modulation_freq
    budget = _config_budget(cfg, mod)
    tasks = [(cfg, spec.seed, i, float(p)) for i, p in enumerate(powers)]
    rows = _pmap(_sweep_point_sensitivity, tasks, spec.workers)
    for row in rows:
        row["snl_class"] = classify_operating_point(
            budget, row["power_w"], cfg.analysis.snl_k
        )

    sweep_csv = outdir / "sensitivity_sweep.csv"
    with open(sweep_csv, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# seed = {spec.seed}\n")
        fh.write(f"# detection_freq_hz = {mod!r}\n")
        fh.write("power_w,phi0_rad,gamma_fwhm_hz,s_sig_w_per_hz,"
                 "s_bg_w_per_hz,snr,delta_b_t_per_sqrt_hz,snl_class\n")
        for row in rows:
            fh.write(
                f"{row['power_w']!r},{row['phi0_rad']!r},"
                f"{row['gamma_fwhm_hz']!r},{row['s_sig_w_per_hz']!r},"
                f"{row['s_bg_w_per_hz']!r},{row['snr']!r},"
                f"{row['delta_b_t_per_sqrt_hz']!r},{row['snl_class']}\n"
            )

    best = min(rows, key=lambda r: r["delta_b_t_per_sqrt_hz"])
    report = make_sensitivity_report(
        gamma_fwhm=best["gamma_fwhm_hz"], snr=best["snr"], atom=cfg.atom,
        budget=budget, power=best["power_w"], k=cfg.analysis.snl_k,
        integration_time=cfg.analysis.integration_time,
        constants=cfg.constants,
    )
    doc = json.loads(report.to_json())
    doc["seed"] = spec.seed
    _write_json(outdir / "sensitivity_report.json", doc)

    _write_dat(
        outdir / "fig8_sensitivity.dat",
        ["power_w", "delta_b_t_per_sqrt_hz"],
        [(row["power_w"], row["delta_b_t_per_sqrt_hz"]) for row in rows],
        spec.seed,
    )
    return ["sensitivity_sweep.csv", "sensitivity_report.json",
            "fig8_sensitivity.dat"]


_HANDLERS = {
    "simulate": _run_simulate,
    "demod-sweep": _run_demod_sweep,
    "spectrum": _run_spectrum,
    "noise-scan": _run_noise_scan,
    "snl-map": _run_snl_map,
    "sensitivity-sweep": _run_sensitivity_sweep,
}


def emit_plotdata(outdir: str | os.PathLike) -> list[str]:
    """List the figure-analog plot-data files present in an output directory.

    Raises FileNotFoundError when the directory holds none (the scenario
    that produces them has not run).
    """
    outdir = Path(outdir)
    present = sorted(p.name for p in outdir.glob("fig*.dat"))
    if not present:
        raise FileNotFoundError(f"no plot-data files in {outdir}")
    return present


def run_scenario(spec: ScenarioSpec) -> int:
    """Run one batch mode; writes data files plus manifest.json, returns 0."""
    started = time.monotonic()
    cfg = _load_config(spec)
    outdir = Path(spec.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = _HANDLERS[spec.mode](cfg, spec, outdir)
    manifest = {
        "mode": spec.mode,
        "seed": spec.seed,
        "workers": spec.workers,
        "config_path": spec.config_path,
        "config": config_as_dict(cfg),
        "versions": _versions(),
        "wall_time_s": time.monotonic() - started,
        "outputs": outputs,
    }
    _write_json(outdir / "manifest.json", manifest)
    return 0


def _versions() -> dict:
    import scipy

    from . import __version__

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "amorsim": __version__,
    }


# ---------------------------------------------------------------------------
# argparse front-end
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amorsim",
        description="Simulate and analyze an optically-modulated "
                    "magnetometer signal chain.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    help_lines = {
        "simulate": "synthesize one rotation + detected time series",
        "demod-sweep": "lock-in quadratures across a modulation-frequency grid",
        "spectrum": "analyzer traces on/off resonance and the derived SNR",
        "noise-scan": "background level vs optical power with a budget fit",
        "snl-map": "shot-noise-limited power windows vs detection frequency",
        "sensitivity-sweep": "field sensitivity vs optical power",
    }
    for mode in MODES:
        p = sub.add_parser(mode, help=help_lines[mode])
        p.add_argument("--config", default=None,
                       help="config file (key = value [unit] lines)")
        p.add_argument("--out", default="amorsim-out",
                       help="output directory (created if missing)")
        p.add_argument("--seed", type=int, default=0,
                       help="base seed for all random streams")
        p.add_argument("--workers", type=int, default=1,
                       help="process pool size for sweep points")
    return parser


def _fail(code: int, exc: BaseException) -> int:
    sys.stderr.write(json.dumps({
        "error": type(exc).__name__,
        "message": str(exc),
        "exit_code": code,
    }) + "\n")
    return code


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = ScenarioSpec(
            mode=args.mode, config_path=args.config, output_dir=args.out,
            seed=args.seed, workers=args.workers,
        )
        return run_scenario(spec)
    except ConfigError as exc:
        return _fail(2, exc)
    except FitError as exc:
        return _fail(3, exc)
    except (FloatingPointError, np.linalg.LinAlgError, ArithmeticError) as exc:
        return _fail(3, exc)
    except OSError as exc:
        return _fail(4, exc)
    except ValueError as exc:
        return _fail(2, exc)


if __name__ == "__main__":
    sys.exit(main())
