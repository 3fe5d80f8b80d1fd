"""Span recorder and layer-boundary wrappers for the traced run.

Wrappers are installed only while a traced round runs, on the module
attributes through which one layer calls the next (``BOUNDARIES``) and
around the benchmark's own calls into the package (``traced_api``).
Each span records its name, start, end, parent span and round id; spans
stay in memory and the runner writes them out when the run ends.  A
span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from types import SimpleNamespace

import numpy as np

SETUP_ROUND = -1

# (module, attribute, span name): the calls one layer makes into the next.
BOUNDARIES = (
    ("nnlstep.cli", "evolve", "nnls_sim.evolve"),
    ("nnlstep.cli", "compare", "nnls_sim.compare"),
    ("nnlstep.cli", "modulated_params", "rh_asymptotics.modulated_params"),
    ("nnlstep.rh_asymptotics", "delta_data", "rh_asymptotics.delta_data"),
    ("nnlstep.rh_asymptotics", "F_infinity", "rh_asymptotics.F_infinity"),
    ("nnlstep.rh_asymptotics", "running_winding", "quadrature.running_winding"),
    ("nnlstep.rh_asymptotics", "semiinfinite_integral", "quadrature.semiinfinite_integral"),
    ("nnlstep.rh_asymptotics", "cauchy_semiinfinite", "quadrature.cauchy_semiinfinite"),
    ("nnlstep.spectral", "running_winding", "quadrature.running_winding"),
    ("nnlstep.spectral", "solve_ivp", "spectral.solve_ivp"),
)
# Modules whose IntegrandSpec constructor is wrapped to count integrand points.
SPEC_MODULES = ("nnlstep.rh_asymptotics", "nnlstep.spectral")

# Span names of the benchmark's own calls, by ``api`` attribute.
API_SPANS = {
    "init_field": "nnls_sim.init_field",
    "evolve": "nnls_sim.evolve",
    "step_spectral": "spectral.step_spectral",
    "check_assumptions": "spectral.check_assumptions",
    "transition_params": "rh_asymptotics.transition_params",
    "central_params": "rh_asymptotics.central_params",
    "modulated_params": "rh_asymptotics.modulated_params",
    "q_modulated": "rh_asymptotics.q_modulated",
    "jost_spectral": "spectral.jost_spectral",
    "reflection": "spectral.reflection",
    "cli_main": "cli.main",
}


def _count_steps(rec, args, kwargs, result):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    rec.count("nnls_sim.steps", int(round(cfg.t_end / cfg.dt)) if cfg.dt > 0 else 0)


def _count_nfev(rec, args, kwargs, result):
    rec.count("spectral.ode_nfev", int(result.nfev))


COUNTERS = {"nnls_sim.evolve": _count_steps, "spectral.solve_ivp": _count_nfev}


class Recorder:
    """In-memory spans ``[name, start, end, parent index, round]`` and counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.round = SETUP_ROUND
        self._stack: list[int] = []

    def count(self, name: str, n: int) -> None:
        self.counts[(self.round, name)] += n

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, self.round]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return wrapper

    def counting_spec(self, spec_cls):
        """IntegrandSpec factory whose ``eval`` counts the points it sees."""

        def make(eval, *args, **kwargs):
            def counted(x):
                self.count("quadrature.integrand_points", int(np.size(x)))
                return eval(x)

            return spec_cls(counted, *args, **kwargs)

        return make


def traced_api(rec: Recorder, api: SimpleNamespace) -> SimpleNamespace:
    return SimpleNamespace(
        **{attr: rec.wrap(getattr(api, attr), API_SPANS[attr]) for attr in vars(api)}
    )


@contextmanager
def boundaries(rec: Recorder):
    """Install the layer-boundary wrappers; restore the originals on exit."""
    saved = []
    try:
        for mod_name, attr, span in BOUNDARIES:
            mod = importlib.import_module(mod_name)
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, rec.wrap(getattr(mod, attr), span))
        for mod_name in SPEC_MODULES:
            mod = importlib.import_module(mod_name)
            saved.append((mod, "IntegrandSpec", mod.IntegrandSpec))
            mod.IntegrandSpec = rec.counting_spec(mod.IntegrandSpec)
        yield
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def _child_time(rec: Recorder) -> list[float]:
    """Time each span spends in its direct child spans."""
    children = [0.0] * len(rec.spans)
    for _, t0, t1, parent, _ in rec.spans:
        if parent >= 0:
            children[parent] += t1 - t0
    return children


def _median(xs) -> float:
    return float(np.median(xs)) if len(xs) else 0.0


def _pct(xs, q) -> float:
    return float(np.percentile(xs, q)) if len(xs) else 0.0


def layer_metrics(rec: Recorder, rounds: list[int]) -> dict:
    """Per-layer metrics from the spans of the traced rounds.

    ``*_calls``, counts and ``*_s`` totals are per round and ``*_ms`` are
    per call, each the median over traced rounds or calls.  The set-up
    spans give ``init_field_s`` (per call); ``step_us`` is ``evolve_s`` over
    ``steps``.
    """
    children = _child_time(rec)
    durations = defaultdict(list)
    total = defaultdict(float)
    self_total = defaultdict(float)
    calls = defaultdict(int)
    wanted = set(rounds)
    for i, (name, t0, t1, parent, rnd) in enumerate(rec.spans):
        if rnd in wanted or name == "nnls_sim.init_field":
            durations[name].append(t1 - t0)
        if rnd in wanted:
            total[(rnd, name)] += t1 - t0
            self_total[(rnd, name)] += t1 - t0 - children[i]
            calls[(rnd, name)] += 1

    def per_round(table, name):
        return _median([table[(r, name)] for r in rounds])

    def count(name):
        return _median([rec.counts[(r, name)] for r in rounds])

    def ms(name, q=50):
        return 1e3 * _pct(durations[name], q)

    evolve_s = per_round(total, "nnls_sim.evolve")
    steps = count("nnls_sim.steps")
    m = {
        "nnls_sim.evolve_s": (evolve_s, "s"),
        "nnls_sim.steps": (steps, "count"),
        "nnls_sim.step_us": (1e6 * evolve_s / steps if steps else 0.0, "us"),
        "nnls_sim.init_field_s": (_median(durations["nnls_sim.init_field"]), "s"),
        "nnls_sim.compare_s": (per_round(self_total, "nnls_sim.compare"), "s"),
        "rh_asymptotics.modulated_params_ms_p50": (ms("rh_asymptotics.modulated_params"), "ms"),
        "rh_asymptotics.modulated_params_ms_p90": (
            ms("rh_asymptotics.modulated_params", 90), "ms"),
        "rh_asymptotics.modulated_params_calls": (
            per_round(calls, "rh_asymptotics.modulated_params"), "count"),
        "rh_asymptotics.modulated_params_s": (
            per_round(total, "rh_asymptotics.modulated_params"), "s"),
    }
    for fn in ("delta_data", "F_infinity", "central_params", "transition_params"):
        m[f"rh_asymptotics.{fn}_ms"] = (ms(f"rh_asymptotics.{fn}"), "ms")
    for fn in ("running_winding", "semiinfinite_integral", "cauchy_semiinfinite"):
        m[f"quadrature.{fn}_calls"] = (per_round(calls, f"quadrature.{fn}"), "count")
        m[f"quadrature.{fn}_ms"] = (ms(f"quadrature.{fn}"), "ms")
    m["quadrature.integrand_points"] = (count("quadrature.integrand_points"), "count")
    m["spectral.step_spectral_ms"] = (ms("spectral.step_spectral"), "ms")
    m["spectral.check_assumptions_ms"] = (ms("spectral.check_assumptions"), "ms")
    m["spectral.jost_spectral_s"] = (per_round(total, "spectral.jost_spectral"), "s")
    m["spectral.ode_solves"] = (per_round(calls, "spectral.solve_ivp"), "count")
    m["spectral.ode_nfev"] = (count("spectral.ode_nfev"), "count")
    m["cli.main_s"] = (per_round(total, "cli.main"), "s")
    m["cli.self_s"] = (per_round(self_total, "cli.main"), "s")
    m["cli.artifact_bytes"] = (count("cli.artifact_bytes"), "count")
    return m


def cli_balance(rec: Recorder, rnd: int) -> tuple[float, float]:
    """(cli.main, evolve + compare self + predictor spans + cli self) of a round.

    The two agree when ``main`` has no traced children other than
    ``evolve`` and ``compare``, and ``compare`` none other than the
    predictor's ``modulated_params``.
    """
    children = _child_time(rec)
    main = parts = 0.0
    for i, (name, t0, t1, parent, r) in enumerate(rec.spans):
        if r != rnd:
            continue
        dur, own = t1 - t0, t1 - t0 - children[i]
        if name == "cli.main":
            main += dur
            parts += own
        elif name == "nnls_sim.evolve":
            parts += dur
        elif name == "nnls_sim.compare":
            parts += own
        elif name == "rh_asymptotics.modulated_params" and parent >= 0 \
                and rec.spans[parent][0] == "nnls_sim.compare":
            parts += dur
    return main, parts
