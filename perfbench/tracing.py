"""Spans around uniflux's public functions, recorded from outside the package.

`Tracer.install()` rebinds each traced module attribute to a wrapper that
opens a span on entry and closes it on exit; `uninstall()` puts the original
functions back. Calls made inside a module go through its globals, which are
the module attributes, so they are traced too. `pulsec` imports `apply_iir`
from `filters` by name, so that alias is rebound as well and both report as
`filters.apply_iir`. Untraced runs never construct a Tracer.

Spans are kept in memory as (name, start, end, parent, op id, attributes)
and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import math
import time

# Module -> traced attributes; the span name is `module.attribute`.
TRACED = {
    "cli": ("main",),
    "fluxonium": (
        "build_hamiltonian",
        "eigensystem",
        "phase_matrix_element",
        "eigenbasis_phase_matrix",
        "spectrum_sweep",
        "find_reset_flux",
    ),
    "linebudget": ("tradeoff_sweep",),
    "filters": (
        "apply_transfer",
        "bounded_inverse",
        "apply_iir",
        "synthesize_fir",
        "design_iir_corrector",
    ),
    "pulsec": (
        "parse_program",
        "compile",
        "synthesize",
        "dac_quantize",
        "memory_report",
        "dump_waveform_binary",
    ),
    "dynamics": (
        "evolve",
        "calibrate_pi",
        "calibrate_drive_frequency",
        "rabi_experiment",
        "run_rb",
        "predistort_drive",
        "gate_fidelity",
    ),
    "analysis": (
        "fit_t1_double_exponential",
        "fit_dephasing_envelope",
        "fit_rb_decay",
        "estimate_reset_fidelity",
    ),
    "distortion": ("fit_multi_exponential",),
}

# Names bound in one module but defined in another: (module, attribute, span).
ALIASES = (("pulsec", "apply_iir", "filters.apply_iir"),)

CALIBRATIONS = ("dynamics.calibrate_pi", "dynamics.calibrate_drive_frequency")


def fft_length(n: int) -> int:
    """Padded FFT length `filters.apply_transfer` uses for an n-sample input."""
    return 1 << max(3, int(math.ceil(math.log2(4 * n))))


def _attributes(name, args, result):
    """Work counts read off a call's arguments or result."""
    if name == "filters.apply_transfer":
        return {"fft_points": fft_length(len(args[0]))}
    if name == "pulsec.synthesize":
        return {"samples": len(result)}
    if name == "dynamics.evolve":
        return {
            "steps": result.metadata["steps"],
            "drift": result.metadata["unitarity_drift"],
        }
    return None


class Tracer:
    def __init__(self, modules):
        self.modules = modules  # short name -> imported module
        self.spans = []  # [name, start, end, parent index, op id, attributes]
        self.stack = []
        self.op = None
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else None
            spans.append([name, time.perf_counter(), None, parent, self.op, None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            spans[index][5] = _attributes(name, args, result)
            return result

        return traced

    def install(self):
        for module_name, attrs in TRACED.items():
            module = self.modules[module_name]
            for attr in attrs:
                self._rebind(module, attr, f"{module_name}.{attr}")
        for module_name, attr, span in ALIASES:
            self._rebind(self.modules[module_name], attr, span)

    def _rebind(self, module, attr, span):
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, self._wrap(span, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def dump(self, path):
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "op": o, "attrs": a}
            for n, s, e, p, o, a in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def _ancestors(spans, index):
    parent = spans[index][3]
    while parent is not None:
        yield spans[parent][0]
        parent = spans[parent][3]


def layer_metrics(spans, op_kinds, spectrum_rows):
    """Per-layer metrics from one traced pass.

    ``op_kinds`` maps op id to its kind; ``spectrum_rows`` is the number of
    rows the traced `spectrum` commands emitted.
    """
    calls, self_s, total_s = {}, {}, {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
        if name not in _ancestors(spans, i):
            total_s[name] = total_s.get(name, 0.0) + (end - start)

    def attr_sum(name, key):
        return sum(s[5][key] for s in spans if s[0] == name and s[5])

    m = {}

    def put(layer, *fields):
        for field in fields:
            source = {"calls": calls, "self_s": self_s, "total_s": total_s}[field]
            m[f"{layer}.{field}"] = source.get(layer, 0 if field == "calls" else 0.0)

    put("cli.main", "calls", "self_s")
    put("fluxonium.build_hamiltonian", "calls", "self_s")
    put("fluxonium.eigensystem", "calls", "self_s")
    put("fluxonium.phase_matrix_element", "calls")
    put("fluxonium.eigenbasis_phase_matrix", "calls")
    put("fluxonium.spectrum_sweep", "total_s")
    put("fluxonium.find_reset_flux", "total_s")

    spectrum_builds = sum(
        1
        for s in spans
        if s[0] == "fluxonium.build_hamiltonian" and op_kinds[s[4]] == "spectrum"
    )
    m["fluxonium.hamiltonians_per_row"] = spectrum_builds / spectrum_rows if spectrum_rows else 0.0
    reset_builds = sum(
        1
        for i, s in enumerate(spans)
        if s[0] == "fluxonium.build_hamiltonian"
        and "fluxonium.find_reset_flux" in _ancestors(spans, i)
    )
    resets = calls.get("fluxonium.find_reset_flux", 0)
    m["fluxonium.hamiltonians_per_reset"] = reset_builds / resets if resets else 0.0

    put("linebudget.tradeoff_sweep", "calls", "self_s")
    put("filters.apply_transfer", "calls", "self_s")
    m["filters.apply_transfer.fft_points"] = attr_sum("filters.apply_transfer", "fft_points")
    put("filters.bounded_inverse", "calls")
    put("filters.apply_iir", "calls", "self_s")
    put("filters.synthesize_fir", "self_s")
    put("filters.design_iir_corrector", "self_s")

    put("pulsec.parse_program", "self_s")
    put("pulsec.compile", "calls", "self_s")
    for name in ("synthesize", "dac_quantize", "memory_report", "dump_waveform_binary"):
        put(f"pulsec.{name}", "self_s")
    samples = attr_sum("pulsec.synthesize", "samples")
    pulse_time = sum(total_s.get(f"pulsec.{n}", 0.0) for n in ("compile", "synthesize"))
    m["pulsec.samples"] = samples
    m["pulsec.samples_per_s"] = samples / pulse_time if pulse_time else 0.0

    put("dynamics.evolve", "calls", "self_s")
    steps = attr_sum("dynamics.evolve", "steps")
    evolve_time = total_s.get("dynamics.evolve", 0.0)
    m["dynamics.evolve.steps"] = steps
    m["dynamics.evolve.steps_per_s"] = steps / evolve_time if evolve_time else 0.0
    m["dynamics.evolve.unitarity_drift_max"] = max(
        (s[5]["drift"] for s in spans if s[0] == "dynamics.evolve" and s[5]), default=0.0
    )
    put("dynamics.calibrate_pi", "calls", "self_s")
    put("dynamics.calibrate_drive_frequency", "calls")
    calibration_evolves = sum(
        1
        for i, s in enumerate(spans)
        if s[0] == "dynamics.evolve" and any(a in CALIBRATIONS for a in _ancestors(spans, i))
    )
    calibrations = sum(calls.get(name, 0) for name in CALIBRATIONS)
    m["dynamics.evolves_per_calibration"] = (
        calibration_evolves / calibrations if calibrations else 0.0
    )
    for name in ("rabi_experiment", "run_rb", "predistort_drive"):
        put(f"dynamics.{name}", "self_s")
    put("dynamics.gate_fidelity", "calls")

    for name in TRACED["analysis"]:
        put(f"analysis.{name}", "calls", "self_s")
    put("distortion.fit_multi_exponential", "calls", "self_s")
    return m
