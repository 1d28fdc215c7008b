"""In-memory span tracer that wraps lognls functions from the outside.

A probe replaces every binding of one function: the defining module's and
each ``from .x import f`` copy in the other lognls modules, so calls are seen
however the caller reached them.  FFTs are counted at the n-D entry points
(``fftn``, ``ifftn``) of both ``numpy.fft`` and ``scipy.fft``.  Probes are
installed only for a traced iteration and removed afterwards, so untraced
iterations run the unmodified program.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a root
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int, attrs: dict | None = None):
        self.spans[index].end = time.perf_counter()
        self.spans[index].attrs = attrs
        self._open.pop()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        lo_run = hi_run = None
        for lo, hi in sorted(children[i]):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out.append(s.duration - covered)
    return out


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------


def _evolve_counts(args, kwargs, traj):
    cfg = args[0] if args else kwargs["config"]
    return {"steps": round(cfg.t_final / cfg.dt), "records": len(traj.times)}


def _minimize_counts(args, kwargs, result):
    return {"iterations": result.iterations}


def _scan_counts(args, kwargs, rows):
    return {"points": len(rows)}


# (defining module, attribute, span name, counts taken from the call's result).
# _integrate_radial and _energy are module-level workers: no public function
# exposes a per-shot or per-energy-evaluation count.
PROBES = (
    ("lognls.cli", "run_config", "cli.run_config", None),
    ("lognls.cli", "run_sweep", "cli.run_sweep", None),
    ("lognls.cli", "validate_config", "cli.validate_config", None),
    ("lognls.snapshots", "write_csv", "cli.write_csv", None),
    ("lognls.snapshots", "write_snapshot", "cli.write_snapshot", None),
    ("lognls.evolution", "evolve", "evolution.evolve", _evolve_counts),
    ("lognls.evolution", "build_initial", "evolution.build_initial", None),
    ("lognls.evolution", "orbit_distance", "evolution.orbit_distance", None),
    ("lognls.evolution", "pc_functional", "evolution.pc_functional", None),
    ("lognls.model", "observables", "model.observables", None),
    ("lognls.model", "nonlinear_phase_rate", "model.nonlinear_phase_rate", None),
    ("lognls.groundstate", "find_ground_state", "groundstate.find_ground_state", None),
    ("lognls.groundstate", "_integrate_radial", "groundstate._integrate_radial", None),
    ("lognls.groundstate", "pohozaev_residuals", "groundstate.pohozaev_residuals", None),
    ("lognls.groundstate", "embed_radial", "groundstate.embed_radial", None),
    ("lognls.minimize", "minimize_energy", "minimize.minimize_energy", _minimize_counts),
    ("lognls.minimize", "_energy", "minimize._energy", None),
    ("lognls.convexity1d", "action_convexity_scan", "convexity1d.action_convexity_scan",
     _scan_counts),
)

FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_FUNCTIONS = ("fftn", "ifftn")     # the n-D entry points lognls calls
FFT = "grid.fft"


def _fft_counts(inverse):
    def counts(args, kwargs, out):
        # 5 N log2 N flops per complex transform over all axes; read and write of the array
        return {
            "inverse": inverse,
            "flops": 5.0 * out.size * math.log2(out.size) if out.size > 1 else 0.0,
            "bytes": 2 * out.nbytes,
        }
    return counts


def _wrap(tracer: Tracer, fn, name: str, counts):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            tracer.end(index)
            raise
        tracer.end(index, counts(args, kwargs, out) if counts else None)
        return out
    return traced


def _lognls_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "lognls" or n.startswith("lognls."))]


@contextmanager
def instrumented(tracer: Tracer):
    """Install every probe for the duration of the block, then restore."""
    replaced = []    # (namespace, attribute, original)

    def rebind(original, wrapper, namespaces):
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    replaced.append((ns, attr, original))
                    setattr(ns, attr, wrapper)

    lognls_modules = _lognls_modules()
    try:
        for module, attr, name, counts in PROBES:
            original = getattr(importlib.import_module(module), attr)
            rebind(original, _wrap(tracer, original, name, counts), lognls_modules)
        for module in FFT_MODULES:
            fft_module = importlib.import_module(module)
            for attr in FFT_FUNCTIONS:
                original = getattr(fft_module, attr)
                counts = _fft_counts(attr.startswith("i"))
                rebind(original, _wrap(tracer, original, FFT, counts),
                       [fft_module] + lognls_modules)
        yield tracer
    finally:
        for ns, attr, original in reversed(replaced):
            setattr(ns, attr, original)


# ---------------------------------------------------------------------------
# per-layer table of one traced iteration
# ---------------------------------------------------------------------------

_KERNELS = (FFT, "model.nonlinear_phase_rate")
_RECORD_PATH = ("model.observables", "evolution.orbit_distance", "evolution.pc_functional")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times of one iteration; spans[0] is its root span."""
    selfs = self_times(spans)
    wall = spans[0].duration
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def total(name, parent=None):
        return sum(spans[i].duration for i in by_name[name] if parent is None
                   or (spans[i].parent >= 0 and spans[spans[i].parent].name == parent))

    def count(name):
        return len(by_name[name])

    def attr_sum(name, key):
        return sum((spans[i].attrs or {}).get(key, 0) for i in by_name[name])

    ffts = [spans[i] for i in by_name[FFT]]

    # step time: evolve minus its set-up and record calls, kernels included
    step_s = sum(spans[i].duration for i in by_name["evolution.evolve"])
    for s in spans:
        if s.parent >= 0 and spans[s.parent].name == "evolution.evolve" and s.name not in _KERNELS:
            step_s -= s.duration
    record_s = sum(total(name, "evolution.evolve") for name in _RECORD_PATH)
    steps = attr_sum("evolution.evolve", "steps")
    records = attr_sum("evolution.evolve", "records")

    solves = count("groundstate.find_ground_state")
    shots = count("groundstate._integrate_radial")
    iterations = attr_sum("minimize.minimize_energy", "iterations")
    line_search = count("minimize._energy") - count("minimize.minimize_energy")
    ms = 1e3
    return {
        "grid.fft_calls": len(ffts),
        "grid.fft_ms": ms * sum(s.duration for s in ffts),
        "grid.fft_gflops_computed": sum((s.attrs or {}).get("flops", 0.0) for s in ffts) / 1e9,
        "grid.fft_bytes_computed": sum((s.attrs or {}).get("bytes", 0) for s in ffts),
        "evolution.steps": steps,
        "evolution.step_ms": ms * _ratio(step_s, steps),
        "evolution.step_fft_ms": ms * _ratio(total(FFT, "evolution.evolve"), steps),
        "evolution.step_phase_ms": ms * _ratio(
            total("model.nonlinear_phase_rate", "evolution.evolve"), steps),
        "evolution.step_share": step_s / wall,
        "evolution.records": records,
        "evolution.record_ms": ms * _ratio(record_s, records),
        "evolution.record_share": record_s / wall,
        "evolution.orbit_distance_ms": ms * _ratio(
            total("evolution.orbit_distance"), count("evolution.orbit_distance")),
        "model.observables_ms": ms * _ratio(
            total("model.observables"), count("model.observables")),
        "groundstate.solves": solves,
        "groundstate.solve_ms": ms * _ratio(total("groundstate.find_ground_state"), solves),
        "groundstate.shots": shots,
        "groundstate.shots_per_solve": _ratio(shots, solves),
        "groundstate.shot_ms": ms * _ratio(
            sum(selfs[i] for i in by_name["groundstate._integrate_radial"]), shots),
        "groundstate.certify_ms": ms * _ratio(total("groundstate.pohozaev_residuals"), solves),
        "groundstate.embed_ms": ms * _ratio(
            total("groundstate.embed_radial"), count("groundstate.embed_radial")),
        "minimize.iterations": iterations,
        "minimize.energy_evals": line_search,
        "minimize.accept_ratio": _ratio(iterations, line_search),
        "minimize.iter_ms": ms * _ratio(total("minimize.minimize_energy"), iterations),
        "convexity1d.points": attr_sum("convexity1d.action_convexity_scan", "points"),
        "convexity1d.scan_ms": ms * total("convexity1d.action_convexity_scan"),
        "cli.validate_ms": ms * _ratio(
            total("cli.validate_config"), count("cli.validate_config")),
        "cli.write_ms": ms * (total("cli.write_csv") + total("cli.write_snapshot")),
    }


# metrics that count work; they must repeat exactly for one seed
COUNTS = (
    "grid.fft_calls",
    "grid.fft_gflops_computed",
    "grid.fft_bytes_computed",
    "evolution.steps",
    "evolution.records",
    "groundstate.solves",
    "groundstate.shots",
    "groundstate.shots_per_solve",
    "minimize.iterations",
    "minimize.energy_evals",
    "minimize.accept_ratio",
    "convexity1d.points",
    "cli.bytes_written",
)
