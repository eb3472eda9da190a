"""Span recording for the traced run, installed from outside the package.

The tracer wraps public functions of ``delaris`` in every loaded
``delaris.*`` namespace that holds them (``verification`` imports
``mc_reward`` by name, ``simulation`` calls ``powmod.varpi_at``, and so
on). A target that no longer exists raises :class:`TraceTargetError`
instead of reporting zero for its layer. :func:`install` returns a function
that puts every original back.

Spans are aggregated in memory per (name, parent): calls, total duration
and the duration of direct child spans, so self time is duration minus
children. Counters record work at the same boundaries; the ones derived
from call arguments rather than observed are listed in ``COMPUTED``.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

# counters derived from inputs (arguments, array sizes), not observed work
COMPUTED = ("power.rhs_evals", "simulation.path_steps", "simulation.noise_bytes")


class TraceTargetError(LookupError):
    """A function the tracer must wrap is missing from the package."""


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # (name, parent) -> calls, dur, child
        self.counters = Counter()
        self._stack = [None]
        self._child = [0.0]

    def reset(self):
        self.spans.clear()
        self.counters.clear()

    @contextmanager
    def span(self, name):
        parent = self._stack[-1]
        self._stack.append(name)
        self._child.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - t0
            self._stack.pop()
            child = self._child.pop()
            rec = self.spans[(name, parent)]
            rec[0] += 1
            rec[1] += dur
            rec[2] += child
            self._child[-1] += dur

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self.counters, args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------ queries

    def calls(self, name, parents=None):
        return sum(rec[0] for (n, p), rec in self.spans.items()
                   if n == name and (parents is None or p in parents))

    def self_s(self, name):
        return sum(rec[1] - rec[2] for (n, _), rec in self.spans.items() if n == name)

    def total_s(self, name):
        return sum(rec[1] for (n, _), rec in self.spans.items() if n == name)

    def exact_counts(self):
        """Everything that must repeat exactly when a round is repeated."""
        calls = {f"{n}<-{p}": rec[0] for (n, p), rec in self.spans.items()}
        return {**calls, **self.counters}


# ------------------------------------------------------------ targets

def _file_bytes(key, pos, kw):
    """Size of the file a writer was given as argument ``pos`` / ``kw``."""
    def after(counters, args, kwargs, result):
        counters[key] += os.path.getsize(args[pos] if len(args) > pos else kwargs[kw])

    return after


def _solve_steps(counters, args, kwargs, sol):
    counters["power.solve_steps"] += len(sol.t) - 1


def _mc_path_steps(counters, args, kwargs, est):
    params, cfg = args[0], args[1]
    counters["simulation.path_steps"] += cfg.n_paths * round(params.horizon / cfg.dt)


def _sweep_points(counters, args, kwargs, result):
    counters["sweeps.points"] += len(result.values)
    counters["sweeps.invalid_points"] += int((~np.asarray(result.valid)).sum())


def _grid_nodes(counters, args, kwargs, result):
    t_vals, x_vals, m1_vals = args[1:4]
    counters["verification.nodes"] += len(t_vals) * len(x_vals) * len(m1_vals)


def _optimality_nodes(counters, args, kwargs, result):
    counters["verification.nodes"] += result.n_nodes


# (span name, module, attribute, counter hook); attribute "Class.method"
# wraps a classmethod
TARGETS = (
    ("model.build", "delaris.model", "ModelParams.build", None),
    ("power.solve", "delaris.power", "solve_growth_factors", _solve_steps),
    ("power.g_at", "delaris.power", "g_at", None),
    ("power.varpi_at", "delaris.power", "varpi_at", None),
    ("power.write_csv", "delaris.power", "write_csv", _file_bytes("power.write_bytes", 1, "path")),
    ("simulation.mc_reward", "delaris.simulation", "mc_reward", _mc_path_steps),
    ("simulation.path_rng", "delaris.simulation", "path_rng", None),
    ("simulation.simulate_path", "delaris.simulation", "simulate_path", None),
    ("simulation.write_path_csv", "delaris.simulation", "write_path_csv",
     _file_bytes("simulation.write_bytes", 1, "file_path")),
    ("simulation.write_estimate_json", "delaris.simulation", "write_estimate_json",
     _file_bytes("simulation.write_bytes", 1, "file_path")),
    ("exponential.strategy", "delaris.exponential", "strategy", None),
    ("sweeps.run_sweep", "delaris.sweeps", "run_sweep", _sweep_points),
    ("sweeps.figure_data", "delaris.sweeps", "figure_data", None),
    ("sweeps.validate_shapes", "delaris.sweeps", "validate_shapes", None),
    ("verification.expectation", "delaris.verification", "expectation_pde_residual", _grid_nodes),
    ("verification.optimality", "delaris.verification", "optimality_residual",
     _optimality_nodes),
    ("verification.coefficients", "delaris.verification", "coefficient_split_check", None),
    ("verification.fk", "delaris.verification", "feynman_kac_check", None),
    ("cli.write_manifest", "delaris.cli", "write_manifest", None),
    ("cli.write_json", "delaris.cli", "_write_json", None),
)


def _timed_rng(tracer, path_rng):
    """``path_rng`` returning a generator on the same bit stream whose
    normal draws are timed and counted."""

    class TimedGenerator(np.random.Generator):
        def standard_normal(self, size=None, dtype=np.float64, out=None):
            with tracer.span("simulation.rng_draw"):
                result = super().standard_normal(size, dtype, out)
            tracer.counters["simulation.noise_bytes"] += np.asarray(result).nbytes
            return result

    return lambda *args, **kwargs: TimedGenerator(path_rng(*args, **kwargs).bit_generator)


def install(tracer: Tracer):
    """Wrap every target in every ``delaris`` namespace; returns the undo."""
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "delaris" or name.startswith("delaris.")}
    undo = []
    try:
        for span_name, mod_name, attr, after in TARGETS:
            mod = modules.get(mod_name)
            if mod is None:
                raise TraceTargetError(f"module {mod_name} is not loaded")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                original = None if cls is None else cls.__dict__.get(meth)
                if not isinstance(original, classmethod):
                    raise TraceTargetError(f"{mod_name}.{attr} is not a classmethod")
                setattr(cls, meth, classmethod(tracer.wrap(span_name, original.__func__, after)))
                undo.append((cls, meth, original))
                continue
            original = getattr(mod, attr, None)
            if not callable(original):
                raise TraceTargetError(f"{mod_name}.{attr} is missing")
            fn = _timed_rng(tracer, original) if span_name == "simulation.path_rng" else original
            wrapped = tracer.wrap(span_name, fn, after)
            for m in modules.values():
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
                        undo.append((m, key, original))
    except BaseException:
        _restore(undo)
        raise
    return lambda: _restore(undo)


def _restore(undo):
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)
    undo.clear()


# ------------------------------------------------------------ layer metrics

def _ratio(num, den, scale=1.0):
    return num * scale / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metrics of one traced round. Times are self times, so
    layers add up without double counting."""
    c = tr.counters
    solve_s = tr.self_s("power.solve")
    mc_s = tr.self_s("simulation.mc_reward")
    grid_s = tr.self_s("verification.expectation") + tr.self_s("verification.optimality")
    op_names = {n for n, _ in tr.spans if n.startswith("op.")}
    op_wall = sum(tr.total_s(n) for n in op_names)
    unattributed = sum(tr.self_s(n) for n in op_names)
    return {
        "model.build_calls": tr.calls("model.build"),
        "model.build_s": tr.self_s("model.build"),
        "power.solve_calls": tr.calls("power.solve"),
        "power.solve_steps": c["power.solve_steps"],
        "power.rhs_evals": 4 * c["power.solve_steps"],
        "power.solve_s": solve_s,
        "power.us_per_step": _ratio(solve_s, c["power.solve_steps"], 1e6),
        "power.lookup_calls": tr.calls("power.g_at") + tr.calls("power.varpi_at"),
        "power.lookup_s": tr.self_s("power.g_at") + tr.self_s("power.varpi_at"),
        "power.write_s": tr.self_s("power.write_csv"),
        "power.write_bytes": c["power.write_bytes"],
        "simulation.path_steps": c["simulation.path_steps"],
        "simulation.mc_s": mc_s,
        "simulation.ns_per_path_step": _ratio(mc_s, c["simulation.path_steps"], 1e9),
        "simulation.rng_calls": tr.calls("simulation.path_rng"),
        "simulation.rng_s": tr.self_s("simulation.path_rng") + tr.self_s("simulation.rng_draw"),
        "simulation.noise_bytes": c["simulation.noise_bytes"],
        "simulation.path_record_s": tr.self_s("simulation.simulate_path"),
        "simulation.write_s": (tr.self_s("simulation.write_path_csv")
                               + tr.self_s("simulation.write_estimate_json")),
        "simulation.write_bytes": c["simulation.write_bytes"],
        "exponential.strategy_calls": tr.calls("exponential.strategy"),
        "exponential.strategy_s": tr.self_s("exponential.strategy"),
        "sweeps.points": c["sweeps.points"],
        "sweeps.invalid_points": c["sweeps.invalid_points"],
        "sweeps.sweep_s": tr.self_s("sweeps.run_sweep"),
        "sweeps.solves_per_point": _ratio(
            tr.calls("power.solve", {"sweeps.run_sweep", "sweeps.figure_data"}),
            c["sweeps.points"]),
        "sweeps.figure_data_s": tr.self_s("sweeps.figure_data"),
        "sweeps.validate_s": tr.self_s("sweeps.validate_shapes"),
        "verification.nodes": c["verification.nodes"],
        "verification.expectation_s": tr.self_s("verification.expectation"),
        "verification.optimality_s": tr.self_s("verification.optimality"),
        "verification.coefficients_s": tr.self_s("verification.coefficients"),
        "verification.fk_s": tr.self_s("verification.fk"),
        "verification.us_per_node": _ratio(grid_s, c["verification.nodes"], 1e6),
        "cli.write_s": tr.self_s("cli.write_manifest") + tr.self_s("cli.write_json"),
        "cli.unattributed_s": unattributed,
        "trace.coverage": _ratio(op_wall - unattributed, op_wall),
    }
