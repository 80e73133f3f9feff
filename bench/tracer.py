"""Outside-in spans around the public functions of the spinchern layers.

The tracer replaces every module attribute that binds a public function
of a traced layer (the defining module, every module that imported it by
name, the package root) with a wrapper that records a span, and does the
same for ``numpy.linalg.eigh`` so raw LAPACK eigensolves are counted too.
Nothing inside the program changes; ``uninstall`` restores every binding.

A span's self time is its duration minus the durations of the spans it
called.  Counts of a span made under another (for example LAPACK solves
under ``quench.evolve_quench``) are kept so ratios can be formed where
the work happens.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("qcore", "model", "spectral", "quench", "pulsesim", "lab")
LAPACK_EIGH = "numpy.linalg.eigh"

# Spans whose inclusive durations are also kept per chain size, for the
# per-size breakdown; the first argument of each is a ChainSpec.
SIZED = (
    "quench.evolve_quench",
    "spectral.curvature_spectral",
    "pulsesim.simulate_protocol_trotter",
    "spectral.chern_lattice",
)


class TracerIncomplete(RuntimeError):
    """A binding or an eigensolve escaped the tracer's spans."""


def _numpy_linalg_impl():
    """numpy's module that holds ``eigh`` and its LAPACK gufuncs."""
    for name in ("numpy.linalg._linalg", "numpy.linalg.linalg"):
        module = sys.modules.get(name)
        if module is not None and hasattr(module, "_umath_linalg"):
            return module
    raise TracerIncomplete("cannot locate numpy's LAPACK eigh gufuncs")


def _binding_modules():
    for name, module in list(sys.modules.items()):
        if module is None:
            continue
        if name == "spinchern" or name.startswith("spinchern."):
            yield module
        elif name in ("numpy.linalg", "numpy.linalg._linalg", "numpy.linalg.linalg"):
            yield module


class Tracer:
    def __init__(self):
        self.enabled = False
        self._patched = []
        self._stack = []
        self.reset()

    def reset(self) -> None:
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.nested = Counter()
        self.top_s = 0.0
        self.by_size = defaultdict(list)

    def _wrap(self, name: str, fn):
        sized = name in SIZED

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack
            for ancestor in {frame[0] for frame in stack}:
                self.nested[ancestor, name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                else:
                    self.top_s += duration
                if sized:
                    self.by_size[name, args[0].n_spins].append(duration)

        return span

    def _originals(self) -> dict:
        import numpy.linalg

        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"spinchern.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    targets[obj] = f"{layer}.{attr}"
        targets[numpy.linalg.eigh] = LAPACK_EIGH
        return targets

    def install(self) -> None:
        """Wrap every binding of a traced function, then verify none is left."""
        if self._patched:
            return
        import spinchern  # noqa: F401  (loads every layer)

        targets = self._originals()
        wrappers = {fn: self._wrap(name, fn) for fn, name in targets.items()}
        for module in _binding_modules():
            for attr, obj in list(vars(module).items()):
                try:
                    wrapper = wrappers.get(obj)
                except TypeError:  # unhashable attribute value
                    continue
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, obj))
        missed = [
            f"{module.__name__}.{attr}"
            for module in _binding_modules()
            for attr, obj in vars(module).items()
            if _is_target(obj, targets)
        ]
        if missed:
            self.uninstall()
            raise TracerIncomplete(f"unwrapped bindings: {', '.join(missed)}")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextmanager
    def paused(self):
        previous, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = previous

    def self_check(self) -> int:
        """Count LAPACK eigensolves of reference calls twice and compare.

        numpy's private gufunc module is swapped for a counting proxy, so
        every solve is counted whether or not it passed through a span.
        Each probe must also show exactly one span for the entry point it
        called, which proves the package-root binding is wrapped.  Returns
        the LAPACK solves of one 300-step ramp at N=3.
        """
        import spinchern as sc

        probes = (
            (
                "quench.evolve_quench",
                lambda: sc.evolve_quench(
                    sc.ChainSpec(3, 1.0), sc.QuenchProtocol(v_theta=0.1, steps=300)
                ),
            ),
            (
                "lab.run_sweep",
                lambda: sc.run_sweep(
                    sc.SweepConfig(spec=sc.ChainSpec(3, 0.0), j_values=(0.7,))
                ),
            ),
            (
                "pulsesim.simulate_protocol_trotter",
                lambda: sc.simulate_protocol_trotter(
                    sc.ChainSpec(3, 0.7), sc.QuenchProtocol(v_theta=0.1, steps=20)
                ),
            ),
            ("spectral.chern_lattice", lambda: sc.chern_lattice(sc.ChainSpec(2, 1.0), (4, 4))),
        )
        impl = _numpy_linalg_impl()
        real = impl._umath_linalg
        counter = _CountingGufuncs(real)
        ramp_solves = None
        self.install()
        impl._umath_linalg = counter
        try:
            for entry, probe in probes:
                self.reset()
                counter.calls = 0
                self.enabled = True
                try:
                    probe()
                finally:
                    self.enabled = False
                if self.calls[entry] != 1:
                    raise TracerIncomplete(
                        f"{entry}: {self.calls[entry]} spans for one call"
                    )
                if self.calls[LAPACK_EIGH] != counter.calls:
                    raise TracerIncomplete(
                        f"{entry}: {counter.calls} LAPACK eigensolves but "
                        f"{self.calls[LAPACK_EIGH]} {LAPACK_EIGH} spans"
                    )
                if ramp_solves is None:
                    ramp_solves = counter.calls
        finally:
            impl._umath_linalg = real
            self.uninstall()
            self.reset()
        return ramp_solves


def _is_target(obj, targets) -> bool:
    try:
        return obj in targets
    except TypeError:
        return False


class _CountingGufuncs:
    """Proxy for numpy's LAPACK gufunc module that counts eigh solves."""

    def __init__(self, real):
        self._real = real
        self.calls = 0

    def __getattr__(self, name):
        attr = getattr(self._real, name)
        if name not in ("eigh_lo", "eigh_up"):
            return attr

        def counted(*args, **kwargs):
            self.calls += 1
            return attr(*args, **kwargs)

        return counted
