"""Span tracing of layerflow's layers from outside the package.

A Tracer wraps every public function of the traced modules, in every
``layerflow`` namespace that binds it (``nse`` binds ``exterior_derivative``,
``grad_newton`` and ``volume_potential`` by name, so patching the home module
alone would miss those calls). Each call records a span: name, start, end
and the index of its parent span. Spans stay in memory; the caller writes them
out when the run ends. Self time is a span's duration minus the durations of
its direct children.

``scipy.sparse.linalg.gmres`` is wrapped as well, since its self time is the
Krylov layer's own work (the matvecs below it are spans of their own).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import scipy.sparse.linalg

TRACED_MODULES = ("spectral", "forms", "potentials", "nse", "holder", "io", "cli")

# Per-layer metrics: name -> (unit, better, kind, span names).
#   calls: number of spans; self: summed self time; incl: summed duration of
#   the outermost spans in the set; counter: a value the hooks accumulate.
# Metrics of kind "fact" come from the operation's outputs (iterations.csv,
# output file sizes); "overhead" is computed by the runner.
LAYER_METRICS = {
    "spectral.transforms": ("count", "lower", "calls", ("spectral.fft_spatial", "spectral.ifft_spatial")),
    "spectral.bytes": ("bytes", "lower", "counter", ()),
    "spectral.self_s": ("s", "lower", "self", ("spectral.fft_spatial", "spectral.ifft_spatial")),
    "forms.d.calls": ("count", "lower", "calls", ("forms.exterior_derivative",)),
    "forms.d.self_s": ("s", "lower", "self", ("forms.exterior_derivative",)),
    "forms.codiff.calls": ("count", "lower", "calls", ("forms.codifferential",)),
    "forms.codiff.self_s": ("s", "lower", "self", ("forms.codifferential",)),
    "forms.wedge.calls": ("count", "lower", "calls", ("forms.wedge",)),
    "forms.wedge.self_s": ("s", "lower", "self", ("forms.wedge",)),
    "forms.star.self_s": ("s", "lower", "self", ("forms.hodge_star",)),
    "potentials.grad_newton.calls": ("count", "lower", "calls", ("potentials.grad_newton",)),
    "potentials.grad_newton.self_s": ("s", "lower", "self", ("potentials.grad_newton",)),
    "potentials.volume.calls": ("count", "lower", "calls", ("potentials.volume_potential",)),
    "potentials.volume.self_s": ("s", "lower", "self", ("potentials.volume_potential",)),
    "potentials.poisson.self_s": ("s", "lower", "self", ("potentials.poisson_potential",)),
    "nse.iterations": ("count", "lower", "fact", ()),
    "nse.step_accept_ratio": ("ratio", "higher", "fact", ()),
    "nse.D2_evals": ("count", "lower", "calls", ("nse.op_D2",)),
    "nse.D2.self_s": ("s", "lower", "self", ("nse.op_D2", "nse.op_Q")),
    "nse.matvecs": ("count", "lower", "calls", ("nse.op_W0",)),
    "nse.W0.self_s": ("s", "lower", "self", ("nse.op_W0", "nse.op_U0")),
    "nse.krylov.self_s": ("s", "lower", "self", ("scipy.gmres",)),
    "nse.assemble_s": ("s", "lower", "incl", ("nse.leray_project", "nse.assemble_g0")),
    "nse.recover_s": ("s", "lower", "incl", ("nse.recover_velocity", "nse.recover_pressure")),
    "nse.diagnostics_s": ("s", "lower", "incl", ("nse.nse_residual", "nse.energy_report")),
    "holder.seminorm.calls": ("count", "lower", "calls", ("holder.holder_seminorm",)),
    "holder.seminorm.self_s": ("s", "lower", "self", ("holder.holder_seminorm",)),
    "holder.anisotropic.self_s": ("s", "lower", "self", ("holder.anisotropic_norm",)),
    "holder.weighted_sup.self_s": ("s", "lower", "self", ("holder.weighted_sup",)),
    "holder.pairs": ("count", "lower", "counter", ()),
    "io.read_s": ("s", "lower", "incl", ("io.read_field",)),
    "io.write_s": ("s", "lower", "incl", ("io.write_field", "io.write_csv")),
    "io.write_bytes": ("bytes", "lower", "fact", ()),
    "cli.self_s": ("s", "lower", "self", ("cli.main", "cli.cmd_solve")),
    "trace.overhead_s": ("s", "lower", "overhead", ()),
}

# Metrics that must repeat exactly for the same inputs.
EXACT_METRICS = tuple(m for m, spec in LAYER_METRICS.items()
                      if spec[2] in ("calls", "counter", "fact"))


def _transform_bytes(counters, args, kwargs, result):
    """Computed from the actual arrays: input bytes plus the bytes of the
    output's buffer (for ``ifft_spatial`` the complex array behind its real view)."""
    out = result if result.base is None else result.base
    counters["spectral.bytes"] += args[0].nbytes + out.nbytes


def _make_pairs_hook(fn):
    sig = inspect.signature(fn)
    pair_set = sys.modules["layerflow.holder"].pair_set

    def hook(counters, args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        counters["holder.pairs"] += pair_set(a["u"].grid, a["seed"], a["n_random"])[0].size

    return hook


class Tracer:
    """Records spans for calls into the traced layerflow modules while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"layerflow.{short}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    hook = None
                    if short == "spectral" and attr in ("fft_spatial", "ifft_spatial"):
                        hook = _transform_bytes
                    elif short == "holder" and attr == "holder_seminorm":
                        hook = _make_pairs_hook(obj)
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj, hook)
        namespaces = [m for name, m in list(sys.modules.items())
                      if name == "layerflow" or name.startswith("layerflow.")]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[obj])
        gmres = scipy.sparse.linalg.gmres
        self._patches.append((scipy.sparse.linalg, "gmres", gmres))
        scipy.sparse.linalg.gmres = self._wrap("scipy.gmres", gmres)

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._patches):
            setattr(ns, attr, obj)
        self._patches.clear()

    def begin(self, name: str) -> int:
        """Open a span; returns its index."""
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        if self._stack.pop() != index:
            raise RuntimeError("span closed out of order")
        self.spans[index][2] = time.perf_counter()

    def take(self) -> tuple[list[list], dict[str, float]]:
        """Hand over the spans and counters recorded so far and start afresh."""
        if self._stack:
            raise RuntimeError("spans still open")
        spans, counters = self.spans, dict(self.counters)
        self.spans = []
        self.counters = defaultdict(float)
        return spans, counters


def layer_metrics(spans: list[list], counters: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one operation from its spans and counters."""
    dur = [end - start for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for i, (name, _, _, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += dur[i] - child[i]

    def outermost(names):
        total = 0.0
        for i, (name, _, _, parent) in enumerate(spans):
            if name not in names:
                continue
            while parent >= 0 and spans[parent][0] not in names:
                parent = spans[parent][3]
            if parent < 0:
                total += dur[i]
        return total

    out = {}
    for metric, (_, _, kind, names) in LAYER_METRICS.items():
        if kind == "calls":
            out[metric] = float(sum(calls[n] for n in names))
        elif kind == "self":
            out[metric] = sum(self_s[n] for n in names)
        elif kind == "incl":
            out[metric] = outermost(set(names))
        elif kind == "counter":
            out[metric] = float(counters.get(metric, 0.0))
    return out
