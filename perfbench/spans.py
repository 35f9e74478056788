"""Span recorder for the traced pass.

Wraps amorsim's public functions at their import sites (``amorsim.cli.*``
and ``amorsim.dsp.*``), so the package itself is not changed. Each call
becomes a span (name, start, end, parent, run id) kept in memory; the
counts that belong to a call (samples in, FFT length, bytes written...)
are taken from its arguments and return value after the span is closed,
so counting is not part of the measured time.

Self time of a span is its duration minus the durations of its direct
children; calls are strictly nested because the run is single-threaded.
"""

from __future__ import annotations

import json
import math
import os
import time

CLI = "amorsim.cli"
DSP = "amorsim.dsp"

# Real-input FFT cost model used for ``gflop_computed``: 2.5 N log2 N flops
# per segment (half the 5 N log2 N of a complex transform). A computed
# figure, not a hardware counter.
FFT_FLOP_FACTOR = 2.5

RUN_SCENARIO = "cli.run_scenario"
WRITERS = "cli.writers"


def _samples_of_arg(args, kwargs, out):
    return {"samples": int(args[0].samples.size)}


def _samples_of_result(args, kwargs, out):
    return {"samples": int(out.samples.size)}


def largest_prime_factor(n: int) -> int:
    largest, p = 1, 2
    while p * p <= n:
        while n % p == 0:
            largest, n = p, n // p
        p += 1
    return max(largest, n) if n > 1 else largest


def _psd_counts(args, kwargs, out):
    """FFT work of one Welch estimate, recovered from outside the call.

    The segment length comes from the returned bin spacing (fs / df); the
    segment count follows scipy's Welch framing with 50% overlap.
    """
    ts = args[0]
    n = int(ts.samples.size)
    fs = float(ts.sample_rate)
    seg_len = int(round(fs / float(out.freqs[1] - out.freqs[0])))
    step = seg_len - seg_len // 2
    segments = (n - seg_len) // step + 1
    return {
        "samples": n,
        "seg_len": seg_len,
        "segments": segments,
        "bins_kept": int(out.freqs.size),
        "bins_total": seg_len // 2 + 1,
        "flop": segments * FFT_FLOP_FACTOR * seg_len * math.log2(seg_len),
        "enbw_rel_dev": abs(out.enbw - out.rbw) / out.rbw,
    }


def _fit_counts(args, kwargs, out):
    return {"converged": int(bool(out.converged))}


def _written_bytes(args, kwargs, out):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    return {"bytes": os.path.getsize(path) if path is not None else 0}


# (module, attribute, span name, count function)
WRAPPED = [
    (CLI, "load_config_file", "config.load", None),
    (CLI, "apply_env_overrides", "config.load", None),
    (CLI, "validate_config", "config.load", None),
    (CLI, "synthesize_rotation", "signal_model.synthesize_rotation",
     _samples_of_result),
    (DSP, "synthesize_rotation", "signal_model.synthesize_rotation",
     _samples_of_result),
    (CLI, "detect", "detector.detect", _samples_of_arg),
    (CLI, "psd_estimate", "dsp.psd_estimate", _psd_counts),
    (CLI, "sweep_resonance", "dsp.sweep_resonance", None),
    (DSP, "lock_in_demodulate", "dsp.lock_in_demodulate", _samples_of_arg),
    (CLI, "fit_lorentzian", "fitting.fit_lorentzian", _fit_counts),
    (CLI, "fit_noise_polynomial", "fitting.fit_noise_polynomial", None),
    (CLI, "classify_operating_point", "analysis", None),
    (CLI, "compute_snr", "analysis", None),
    (CLI, "make_sensitivity_report", "analysis", None),
    (CLI, "sensitivity", "analysis", None),
    (CLI, "snl_map", "analysis", None),
    (CLI, "rotation_to_csv", WRITERS, _written_bytes),
    (CLI, "detected_to_csv", WRITERS, _written_bytes),
    (CLI, "spectrum_to_csv", WRITERS, _written_bytes),
    (CLI, "resonance_curve_to_csv", WRITERS, _written_bytes),
    (CLI, "snl_map_to_csv", WRITERS, _written_bytes),
    (CLI, "fit_report", WRITERS, _written_bytes),
]

LAYERS = sorted({name for _m, _a, name, _c in WRAPPED} | {RUN_SCENARIO})


class Tracer:
    """Records spans of the calls made through the wrapped import sites."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def call(self, name: str, fn, args=(), kwargs=None, count=None):
        kwargs = kwargs or {}
        span = {"id": len(self.spans), "name": name, "run": self.run_id,
                "parent": self._stack[-1] if self._stack else None}
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            span.update(count(args, kwargs, out))
        return out

    def _wrapper(self, name, fn, count):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)
        return traced

    def install(self) -> None:
        import importlib

        for module_name, attr, name, count in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(name, original, count))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def self_times(spans: list[dict]) -> list[float]:
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict], wall_s: float) -> dict:
    """Per-layer self time and counts of one traced pass.

    ``trace.coverage`` sums the self time of every layer except the
    ``cli.run_scenario`` remainder, over the pass's wall time.
    """
    own = self_times(spans)
    by_layer = {name: [] for name in LAYERS}
    for span, self_s in zip(spans, own):
        by_layer[span["name"]].append((span, self_s))

    def total(name, key):
        return sum(span.get(key, 0) for span, _ in by_layer[name])

    m = {}
    for name in LAYERS:
        m[f"{name}.self_s"] = sum((s for _, s in by_layer[name]), 0.0)
        m[f"{name}.calls"] = len(by_layer[name])
    for name in ("signal_model.synthesize_rotation", "detector.detect",
                 "dsp.lock_in_demodulate", "dsp.psd_estimate"):
        m[f"{name}.msamples"] = total(name, "samples") / 1e6

    psd = "dsp.psd_estimate"
    seg_lens = sorted({span["seg_len"] for span, _ in by_layer[psd]})
    bins_total = total(psd, "bins_total")
    gflop = total(psd, "flop") / 1e9
    m[f"{psd}.seg_len"] = seg_lens[-1] if seg_lens else 0
    m[f"{psd}.seg_len_max_prime"] = max(
        (largest_prime_factor(n) for n in seg_lens), default=0)
    m[f"{psd}.gflop_computed"] = gflop
    m[f"{psd}.gflops"] = gflop / m[f"{psd}.self_s"] if gflop else 0.0
    m[f"{psd}.bins_kept_frac"] = (total(psd, "bins_kept") / bins_total
                                  if bins_total else 0.0)
    m[f"{psd}.enbw_rel_dev"] = max(
        (span["enbw_rel_dev"] for span, _ in by_layer[psd]), default=0.0)

    m["fitting.fit_lorentzian.converged"] = total("fitting.fit_lorentzian",
                                                  "converged")
    written = total(WRITERS, "bytes")
    m[f"{WRITERS}.bytes"] = written
    writer_s = m[f"{WRITERS}.self_s"]
    m[f"{WRITERS}.mb_per_s"] = written / 1e6 / writer_s if writer_s else 0.0

    traced = sum(m[f"{name}.self_s"] for name in LAYERS
                 if name != RUN_SCENARIO)
    m["trace.coverage"] = traced / wall_s
    return m


# Per-layer values that are counts: they must repeat exactly between passes.
EXACT = sorted(
    [f"{name}.calls" for name in LAYERS]
    + [f"{name}.msamples" for name in ("signal_model.synthesize_rotation",
                                       "detector.detect",
                                       "dsp.lock_in_demodulate",
                                       "dsp.psd_estimate")]
    + ["dsp.psd_estimate.seg_len", "dsp.psd_estimate.seg_len_max_prime",
       "dsp.psd_estimate.gflop_computed", "dsp.psd_estimate.bins_kept_frac",
       "dsp.psd_estimate.enbw_rel_dev", "fitting.fit_lorentzian.converged",
       "cli.writers.bytes"]
)
