"""Output checks for one pass of a workload.

Every check is at least as tight as the matching oracle in the package's
tests (``tests/test_cli.py``): the noise-scan ``coef_shot`` band is
``rel=0.5``, the resonance-fit center ``abs=2 Hz`` and amplitude
``rel=0.1``, the ENBW ``rel=0.05`` and the on/off peak ratio ``> 100``.
Determinism is checked by digest: repeated passes with one seed must write
byte-identical files, except the ``wall_time_s`` field of ``manifest.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil

EXPECTED = {
    "simulate": ["rotation.csv", "detected.csv"],
    "spectrum": ["spectrum_on.csv", "spectrum_off.csv", "snr.json",
                 "fig3_spectrum.dat"],
    "snl-map": ["snl_map.csv", "fig6_snl.dat", "snl_map_alt_gain.csv",
                "fig7_snl.dat"],
    "demod-sweep": ["resonance_curve.csv", "resonance_fit.json",
                    "fig2_resonance.dat"],
    "noise-scan": ["noise_scan.csv", "noise_scan_budget.json",
                   "fig4a_noise.dat", "noise_scan_high.csv",
                   "noise_scan_high_budget.json", "fig4b_noise.dat"],
    "sensitivity-sweep": ["sensitivity_sweep.csv", "sensitivity_report.json",
                          "fig8_sensitivity.dat"],
}

MANIFEST = "manifest.json"


def digest_dir(path: str) -> dict:
    """sha256 of every file in a mode's output directory.

    The manifest is hashed without its ``wall_time_s`` field, the one value
    that may differ between runs with one seed.
    """
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            data = fh.read()
        if name == MANIFEST:
            doc = json.loads(data)
            doc.pop("wall_time_s", None)
            data = json.dumps(doc, sort_keys=True).encode()
        out[name] = hashlib.sha256(data).hexdigest()
    return out


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def _body(lines):
    """Data rows of a CSV: everything after the comment block and title."""
    start = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    return lines[start + 1:]


def _nonfinite(doc, where=""):
    """Paths of every number in a JSON document that is NaN or infinite."""
    if isinstance(doc, dict):
        return [p for k, v in doc.items() for p in _nonfinite(v, f"{where}.{k}")]
    if isinstance(doc, list):
        return [p for i, v in enumerate(doc) for p in _nonfinite(v, f"{where}[{i}]")]
    if isinstance(doc, float) and not math.isfinite(doc):
        return [where]
    return []


def _close(value, target, rel=None, abs_=None) -> bool:
    tol = abs_ if abs_ is not None else rel * abs(target)
    return math.isfinite(value) and abs(value - target) <= tol


def _check_simulate(d, cfg, seed):
    problems = []
    n = round(cfg["sim.sample_rate"] * cfg["sim.duration"])
    for name, lane in (("rotation.csv", 0), ("detected.csv", 1)):
        lines = _lines(os.path.join(d, name))
        header = [line for line in lines if line.startswith("#")]
        if f"# seed = ({seed}, {lane})" not in header:
            problems.append(f"{name}: seed header missing")
        if any("np.float64" in line for line in header):
            problems.append(f"{name}: numpy repr leaked into header")
        body = _body(lines)
        if len(body) != n:
            problems.append(f"{name}: {len(body)} rows, expected {n}")
        elif not all(math.isfinite(float(v)) for v in body[:: max(n // 64, 1)]):
            problems.append(f"{name}: non-finite sample")
    return problems


def _check_spectrum(d, cfg, seed):
    problems = []
    snr = _read_json(os.path.join(d, "snr.json"))
    problems += [f"snr.json: non-finite {p}" for p in _nonfinite(snr)]
    if snr.get("snr_provenance") != "derived" or \
            snr.get("snr_convention") != "per-sqrt-hz":
        problems.append("snr.json: provenance/convention changed")
    if not _close(snr["enbw_hz"], cfg["spectrum.rbw"], rel=0.05):
        problems.append(f"snr.json: enbw {snr['enbw_hz']!r} not within 5% of rbw")
    if not snr["s_sig_w_per_hz"] > 100 * snr["s_bg_w_per_hz"]:
        problems.append("snr.json: peak not 100x above background")
    if not snr["snr"] > 0:
        problems.append("snr.json: snr not positive")
    for name in ("spectrum_on.csv", "spectrum_off.csv"):
        head = dict(line[2:].split(" = ", 1)
                    for line in _lines(os.path.join(d, name))[:4])
        if not _close(float(head["enbw_hz"]), float(head["rbw_hz"]), rel=0.05):
            problems.append(f"{name}: enbw not within 5% of rbw")
    return problems


def _check_snl_map(d, cfg, seed):
    problems = []
    k_count = len(str(cfg["snlmap.k_values"]).split(","))
    for name in ("snl_map.csv", "snl_map_alt_gain.csv"):
        lines = _lines(os.path.join(d, name))
        if lines[1] != "freq_hz,k,p_low_w,p_high_w,nonempty":
            problems.append(f"{name}: header changed")
        if len(_body(lines)) != cfg["snlmap.freq_bins"] * k_count:
            problems.append(f"{name}: wrong row count")
    return problems


def _check_demod_sweep(d, cfg, seed):
    problems = []
    lines = _lines(os.path.join(d, "resonance_curve.csv"))
    if "# bracketed = True" not in lines:
        problems.append("resonance_curve.csv: grid does not bracket the center")
    body = _body(lines)
    if len(body) != cfg["sweep.freq_points"]:
        problems.append("resonance_curve.csv: wrong row count")
    # The grid is symmetric about the configured center.
    center = 0.5 * (float(body[0].split(",")[0]) + float(body[-1].split(",")[0]))
    fit = _read_json(os.path.join(d, "resonance_fit.json"))
    problems += [f"resonance_fit.json: non-finite {p}" for p in _nonfinite(fit)]
    if fit.get("kind") != "lorentzian" or fit.get("converged") is not True:
        problems.append("resonance_fit.json: fit did not converge")
    params = fit["params"]
    if not _close(params["center_freq"], center, abs_=2.0):
        problems.append(f"resonance_fit.json: center {params['center_freq']!r} "
                        f"not within 2 Hz of {center!r}")
    if not _close(params["phi0"], cfg["resonance.phi0"], rel=0.1):
        problems.append("resonance_fit.json: phi0 not within 10%")
    return problems


def _check_noise_scan(d, cfg, seed):
    problems = []
    points = cfg["sweep.power_points"] + (1 if cfg["noisescan.include_zero"] else 0)
    for stem in ("noise_scan", "noise_scan_high"):
        body = _body(_lines(os.path.join(d, f"{stem}.csv")))
        if len(body) != points or float(body[0].split(",")[0]) != 0.0:
            problems.append(f"{stem}.csv: wrong power grid")
        budget = _read_json(os.path.join(d, f"{stem}_budget.json"))
        problems += [f"{stem}_budget.json: non-finite {p}"
                     for p in _nonfinite(budget)]
        if budget.get("kind") != "noise_polynomial" or budget.get("fixed_elec") is None:
            problems.append(f"{stem}_budget.json: dark point not pinned")
        if not _close(budget["params"]["coef_shot"], budget["coef_shot_theory"],
                      rel=0.5):
            problems.append(
                f"{stem}_budget.json: coef_shot {budget['params']['coef_shot']!r}"
                f" outside 50% of theory {budget['coef_shot_theory']!r}")
    return problems


def _check_sensitivity_sweep(d, cfg, seed):
    problems = []
    lines = _lines(os.path.join(d, "sensitivity_sweep.csv"))
    body = _body(lines)
    if len(body) != cfg["sweep.power_points"]:
        problems.append("sensitivity_sweep.csv: wrong row count")
    classes = {row.rsplit(",", 1)[-1] for row in body}
    if not classes <= {"electronic-limited", f"SNL({cfg['analysis.snl_k']:g})",
                       "technical-limited"}:
        problems.append(f"sensitivity_sweep.csv: unknown classes {classes}")
    report = _read_json(os.path.join(d, "sensitivity_report.json"))
    problems += [f"sensitivity_report.json: non-finite {p}"
                 for p in _nonfinite(report)]
    if report.get("snr_provenance") != "derived":
        problems.append("sensitivity_report.json: snr not derived")
    if not 0 < report["delta_b_atomic_t_per_sqrt_hz"] < report["delta_b_t_per_sqrt_hz"]:
        problems.append("sensitivity_report.json: sensitivity ordering broken")
    return problems


_MODE_CHECKS = {
    "simulate": _check_simulate,
    "spectrum": _check_spectrum,
    "snl-map": _check_snl_map,
    "demod-sweep": _check_demod_sweep,
    "noise-scan": _check_noise_scan,
    "sensitivity-sweep": _check_sensitivity_sweep,
}


def check_mode(mode: str, d: str, seed: int, digests: dict,
               reference: dict | None) -> list[str]:
    """Problems found in one mode's output directory ([] when it passes).

    ``digests`` are the file digests of ``d``; ``reference`` those of an
    earlier pass with the same seed (None for the first pass).
    """
    missing = [n for n in EXPECTED[mode] + [MANIFEST] if n not in digests]
    if missing:
        return [f"missing {name}" for name in missing]
    manifest = _read_json(os.path.join(d, MANIFEST))
    if manifest.get("mode") != mode or manifest.get("seed") != seed:
        return ["manifest.json: mode or seed does not match the run"]
    problems = [f"manifest lists absent {n}"
                for n in manifest.get("outputs", []) if n not in digests]
    try:
        problems += _MODE_CHECKS[mode](d, manifest["config"], seed)
    except (KeyError, ValueError, IndexError, StopIteration) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    if reference is not None:
        problems += [f"{name}: differs from an earlier pass with this seed"
                     for name in sorted(set(reference) | set(digests))
                     if reference.get(name) != digests.get(name)]
    return problems


def _drop(path):
    os.remove(path)


def _flip_last_digit(path):
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    i = max(i for i, b in enumerate(data) if chr(b).isdigit())
    data[i] = ord("1") if data[i] != ord("1") else ord("2")
    with open(path, "wb") as fh:
        fh.write(bytes(data))


def _edit_json(**changes):
    def edit(path):
        doc = _read_json(path)
        for dotted, value in changes.items():
            node = doc
            *parents, leaf = dotted.split("__")
            for key in parents:
                node = node[key]
            node[leaf] = value(node[leaf]) if callable(value) else value
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return edit


# Corruptions the checker must reject, per mode: (file, description, edit).
# A changed digit is caught by the digest comparison alone; every other
# corruption must be caught without it, by the presence and oracle checks.
CORRUPTIONS = {
    "noise-scan": [
        ("noise_scan_high.csv", "file removed", _drop),
        ("noise_scan_budget.json", "coef_shot 3x theory",
         _edit_json(params__coef_shot=lambda v: 3.0 * v)),
        ("noise_scan.csv", "one digit changed", _flip_last_digit),
    ],
    "sensitivity-sweep": [
        ("sensitivity_report.json", "file removed", _drop),
        ("sensitivity_report.json", "NaN sensitivity",
         _edit_json(delta_b_t_per_sqrt_hz=float("nan"))),
        ("sensitivity_sweep.csv", "one digit changed", _flip_last_digit),
    ],
    "demod-sweep": [
        ("resonance_fit.json", "file removed", _drop),
        ("resonance_fit.json", "fit not converged",
         _edit_json(converged=False)),
        ("resonance_fit.json", "center moved 5 Hz",
         _edit_json(params__center_freq=lambda v: v + 5.0)),
        ("fig2_resonance.dat", "one digit changed", _flip_last_digit),
    ],
    "spectrum": [
        ("snr.json", "NaN snr", _edit_json(snr=float("nan"))),
        ("spectrum_on.csv", "one digit changed", _flip_last_digit),
    ],
    "simulate": [
        ("detected.csv", "file removed", _drop),
    ],
}


def corruption_selftest(modes, pass_dir: str, scratch: str, seed: int,
                        reference: dict) -> list[str]:
    """Corrupt copies of a passing pass; return the corruptions NOT caught."""
    missed = []
    for mode in modes:
        for name, what, edit in CORRUPTIONS.get(mode, []):
            shutil.rmtree(scratch, ignore_errors=True)
            shutil.copytree(os.path.join(pass_dir, mode), scratch)
            edit(os.path.join(scratch, name))
            by_digest = edit is _flip_last_digit
            if not check_mode(mode, scratch, seed, digest_dir(scratch),
                              reference[mode] if by_digest else None):
                missed.append(f"{mode}/{name}: {what}")
    shutil.rmtree(scratch, ignore_errors=True)
    return missed
