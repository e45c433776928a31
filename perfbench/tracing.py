"""Tracing for the benchmark's traced run, installed from outside the package.

`Tracer.install` replaces each traced function with a wrapper on every name
callers resolve at call time: the package namespace, `ucr.specfun`, and the
names bound by `from ... import` in `quantum_states`, `classical_ensemble` and
`cli_report`. Each call records a span (name, start, end, parent span,
operation id) in flat arrays kept in memory, plus the counts the per-layer
metrics need. `Tracer.restore` puts every original back.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

import ucr
from ucr import classical_ensemble, cli_report, quadrature, quantum_states, specfun, trajectory_oracle

# Namespaces whose names are patched; each is where some caller looks a
# traced function up at call time.
NAMESPACES = (ucr, specfun, quantum_states, classical_ensemble, cli_report)

# Span name -> original function. The span name is "<home module>.<function>".
TRACED = {
    "specfun.airy_ai": specfun.airy_ai,
    "specfun.airy_zero": specfun.airy_zero,
    "specfun.hermite": specfun.hermite,
    "specfun.hermite_prime": specfun.hermite_prime,
    "quadrature.integrate_finite": quadrature.integrate_finite,
    "quadrature.integrate_semi_infinite": quadrature.integrate_semi_infinite,
    "quadrature.integrate_singular_endpoints": quadrature.integrate_singular_endpoints,
    "classical_ensemble.build_ensemble": classical_ensemble.build_ensemble,
    "classical_ensemble.classical_density": classical_ensemble.classical_density,
    "classical_ensemble.classical_moments_quadrature": classical_ensemble.classical_moments_quadrature,
    "quantum_states.eigen_level": quantum_states.eigen_level,
    "quantum_states.bouncer_state": quantum_states.bouncer_state,
    "quantum_states.wavefunction": quantum_states.wavefunction,
    "quantum_states.quantum_moments_quadrature": quantum_states.quantum_moments_quadrature,
    "quantum_states.commutator_bound": quantum_states.commutator_bound,
    "quantum_states.density_grid": quantum_states.density_grid,
    "trajectory_oracle.build_trajectory": trajectory_oracle.build_trajectory,
    "trajectory_oracle.trajectory_moments": trajectory_oracle.trajectory_moments,
    "cli_report.main": cli_report.main,
}

AIRY_BRANCHES = ("power-series", "negative-z-asymptotic", "positive-z-asymptotic")
_INTEGRAL_KIND = {
    "quadrature.integrate_finite": "finite",
    "quadrature.integrate_semi_infinite": "semi_infinite",
    "quadrature.integrate_singular_endpoints": "singular",
}


class Tracer:
    def __init__(self):
        self.op = -1  # id of the operation being run; set by the caller
        self.names = list(TRACED)
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._op = array("i")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.airy_miss_s = 0.0
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn, after=None):
        names, starts, ends, parents, ops, stack = (
            self._name, self._start, self._end, self._parent, self._op, self._stack
        )
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        functools.update_wrapper(wrapper, fn)
        if hasattr(fn, "cache_clear"):  # keep lru_cache control reaching the real cache
            wrapper.cache_clear = fn.cache_clear
            wrapper.cache_info = fn.cache_info
        return wrapper

    def _airy_wrapper(self, name_id: int, fn):
        inner = self._wrap(name_id, fn)
        info = fn.cache_info
        starts, ends = self._start, self._end
        counts = self.counts

        @functools.wraps(inner)
        def airy_ai(z):
            misses = info().misses
            value = inner(z)
            if info().misses > misses:
                counts["airy_ai.misses"] += 1
                # airy_ai calls nothing traced, so its span is the last one
                self.airy_miss_s += ends[-1] - starts[-1]
            branch = value.branch if value.branch in AIRY_BRANCHES else "other"
            counts["airy_ai.calls." + branch] += 1
            return value

        return airy_ai

    def _after(self, name: str):
        counts = self.counts
        if name in _INTEGRAL_KIND:
            kind = _INTEGRAL_KIND[name]

            def after(args, kwargs, result):
                counts["integrals." + kind] += 1
                counts["evals"] += result.evaluations
                counts["unconverged"] += not result.converged

            return after
        if name == "trajectory_oracle.trajectory_moments":
            def after(args, kwargs, result):
                counts["trajectory_samples"] += kwargs["samples"] if "samples" in kwargs else args[1]

            return after
        return None

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name_id, (name, fn) in enumerate(TRACED.items()):
            if name == "specfun.airy_ai":
                wrappers[id(fn)] = self._airy_wrapper(name_id, fn)
            else:
                wrappers[id(fn)] = self._wrap(name_id, fn, self._after(name))
        # TRACED keeps every original alive, so a matching id is that original.
        for module in NAMESPACES:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def span_count(self) -> int:
        return len(self._start)

    def save(self, path: Path) -> None:
        """Write the spans: parallel arrays plus the table of span names."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self._name, dtype=np.int32),
            start=np.frombuffer(self._start, dtype=np.float64),
            end=np.frombuffer(self._end, dtype=np.float64),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            op=np.frombuffer(self._op, dtype=np.int32),
        )

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics from the spans and counts. A layer's busy time
        is the time inside its outermost spans; its self time is the time in
        its spans not covered by child spans."""
        name = np.frombuffer(self._name, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        dur = np.frombuffer(self._end, dtype=np.float64) - np.frombuffer(self._start, dtype=np.float64)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child_time
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        ids = {n: i for i, n in enumerate(self.names)}

        def ids_of(*span_names):
            return [ids[n] for n in span_names]

        def layer(prefix):
            return [i for i, n in enumerate(self.names) if n.startswith(prefix + ".")]

        def calls(*span_names):
            return int(np.isin(name, ids_of(*span_names)).sum())

        def busy(group):
            outermost = np.isin(name, group) & ~np.isin(parent_name, group)
            return float(dur[outermost].sum())

        def self_s(group):
            return float(self_time[np.isin(name, group)].sum())

        c = self.counts
        airy_calls = calls("specfun.airy_ai")
        airy_misses = c["airy_ai.misses"]
        integrals = c["integrals.finite"] + c["integrals.semi_infinite"] + c["integrals.singular"]
        metrics = {
            "specfun.airy_ai.calls": airy_calls,
            "specfun.airy_ai.misses": airy_misses,
            "specfun.airy_ai.hit_ratio": (airy_calls - airy_misses) / airy_calls if airy_calls else 0.0,
        }
        for branch in AIRY_BRANCHES + ("other",):
            metrics["specfun.airy_ai.calls." + branch] = c["airy_ai.calls." + branch]
        metrics.update({
            "specfun.airy_ai.busy_s": busy(ids_of("specfun.airy_ai")),
            "specfun.airy_ai.us_per_miss": 1e6 * self.airy_miss_s / airy_misses if airy_misses else 0.0,
            "specfun.hermite.calls": calls("specfun.hermite", "specfun.hermite_prime"),
            "specfun.hermite.busy_s": busy(ids_of("specfun.hermite", "specfun.hermite_prime")),
            "specfun.airy_zero.calls": calls("specfun.airy_zero"),
            "specfun.airy_zero.busy_s": busy(ids_of("specfun.airy_zero")),
            "quadrature.integrals.finite": c["integrals.finite"],
            "quadrature.integrals.semi_infinite": c["integrals.semi_infinite"],
            "quadrature.integrals.singular": c["integrals.singular"],
            "quadrature.evals": c["evals"],
            "quadrature.evals_per_integral": c["evals"] / integrals if integrals else 0.0,
            "quadrature.self_s": self_s(layer("quadrature")),
            "quadrature.unconverged": c["unconverged"],
            "classical_ensemble.moment_sets": calls("classical_ensemble.classical_moments_quadrature"),
            "classical_ensemble.busy_s": busy(layer("classical_ensemble")),
            "classical_ensemble.self_s": self_s(layer("classical_ensemble")),
            "quantum_states.moment_sets": calls("quantum_states.quantum_moments_quadrature"),
            "quantum_states.busy_s": busy(layer("quantum_states")),
            "quantum_states.self_s": self_s(layer("quantum_states")),
            "quantum_states.bouncer_state.calls": calls("quantum_states.bouncer_state"),
            "quantum_states.wavefunction.calls": calls("quantum_states.wavefunction"),
            "quantum_states.wavefunction.busy_s": busy(ids_of("quantum_states.wavefunction")),
            "quantum_states.density_grid.busy_s": busy(ids_of("quantum_states.density_grid")),
            "trajectory_oracle.samples": c["trajectory_samples"],
            "trajectory_oracle.busy_s": busy(layer("trajectory_oracle")),
            "cli_report.commands": calls("cli_report.main"),
            "cli_report.self_s": self_s(layer("cli_report")),
        })
        return metrics
