"""Per-layer tracing of dkpair from outside the library.

The tracer replaces selected dkpair functions with timing wrappers at run
time and restores them afterwards; nothing under ``src/`` is edited.  Each
wrapped call is a span.  A span's self time is its duration minus the time
spent in wrapped calls made from inside it, and minus the tracer's own work
inside it (the computed-cost scans), which is kept apart in ``own_s``.

A tracer measures either time or memory, never both: with ``memory=True``
tracemalloc runs inside the ``PEAK_OPS`` spans and only their ``peak_mb``
is meaningful, since tracemalloc slows every allocation under it.

``from .x import f`` binds ``f`` in the importing module as well, so a
wrapper is installed at every binding site: every attribute of every loaded
``dkpair`` module that refers to the original function.  The traced run also
asserts that every op expected on a workload was called, so a missed site
fails loudly instead of under-counting.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import tracemalloc

import numpy as np

# op name -> (module, attribute names); calls of any listed function count
# towards the op.  Names follow `<layer>.<op>`, layers being dkpair modules.
FUNCTION_OPS = {
    "grid_alg.product": ("dkpair.grid_alg", ("_mul_data",)),
    "grid_alg.derivation": ("dkpair.grid_alg", ("spectral_derivative_data",)),
    "grid_alg.real_structure": ("dkpair.grid_alg", ("apply_real_structure",)),
    "kclass.flatten": ("dkpair.kclass", ("flatten",)),
    "kclass.osu_validate": ("dkpair.kclass", ("osu_validate",)),
    "kclass.torsion_loop": ("dkpair.kclass", ("torsion_loop",)),
    "pairing.pair": ("dkpair.pairing", ("pair",)),
    "pairing.closed_form": ("dkpair.pairing", ("torsion_pairing_closed_form",)),
    "pairing.pair_suspended": ("dkpair.pairing", ("pair_suspended",)),
    "pairing.chern_number": ("dkpair.pairing", ("chern_number",)),
    "floquet.evolve": ("dkpair.floquet", ("evolve",)),
    "floquet.unitary_eig": ("dkpair.floquet", ("unitary_eig",)),
    "floquet.periodized_evolution": ("dkpair.floquet", ("periodized_evolution",)),
    "floquet.degree_t3": ("dkpair.floquet", ("degree_t3",)),
    "models.symbol": ("dkpair.models", ("symbol_from_hoppings",
                                        "block_from_hoppings", "spin_double")),
    "gridio.read": ("dkpair.gridio", ("read_contraction_grid",)),
    "cli": ("dkpair.cli", ("main",)),
}
# op name -> (module, class, method); wrapped on the class itself
METHOD_OPS = {
    "grid_alg.norm_inf": ("dkpair.grid_alg", "AlgElement", "norm_inf"),
}
# ops whose tracemalloc peak is recorded (tracing memory only inside them)
PEAK_OPS = ("kclass.torsion_loop", "pairing.pair_suspended",
            "floquet.periodized_evolution")
OPS = tuple(sorted((*FUNCTION_OPS, *METHOD_OPS)))


def product_cost(a: np.ndarray, b: np.ndarray, k: int) -> tuple[int, int]:
    """Computed (flops, bytes) of one `_mul_data` call.

    One complex m x m matmul per pair of nonzero Clifford components, at
    8 m^3 real flops per matrix; bytes count both operand blocks read and
    the product written (16 bytes per complex entry), ignoring caches.
    """
    m = a.shape[-1]
    batch = int(np.prod(np.broadcast_shapes(a.shape[1:-2], b.shape[1:-2])))
    pairs = (sum(bool(np.any(a[s])) for s in range(a.shape[0]))
             * sum(bool(np.any(b[t])) for t in range(b.shape[0])))
    return pairs * batch * 8 * m ** 3, pairs * batch * 3 * 16 * m * m


def _read_cost(path, *args, **kwargs):
    return 0, os.path.getsize(path)


COSTS = {"grid_alg.product": product_cost, "gridio.read": _read_cost}


class OpStats:
    __slots__ = ("calls", "total_s", "child_s", "flops", "bytes", "peak_bytes")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.child_s = 0.0
        self.flops = 0
        self.bytes = 0
        self.peak_bytes = 0

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


class Tracer:
    """Span recorder over the ops above; `install` and `uninstall` swap the
    wrappers in and out so untraced solves run the original code."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.stats = {op: OpStats() for op in OPS}
        self.own_s = 0.0
        self._stack: list[list[float]] = []
        self._swaps: list[tuple[object, str, object, object]] = []

    # -- wrapping --------------------------------------------------------
    def _wrap(self, op, fn):
        cost = COSTS.get(op)
        peak = self.memory and op in PEAK_OPS
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self.stats[op]
            if cost is not None:
                c0 = time.perf_counter()
                flops, nbytes = cost(*args, **kwargs)
                st.flops += flops
                st.bytes += nbytes
                dc = time.perf_counter() - c0
                self.own_s += dc
                if stack:  # not the caller's self time either
                    stack[-1][0] += dc
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            tracing_mem = peak and not tracemalloc.is_tracing()
            if tracing_mem:
                tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                if tracing_mem:
                    st.peak_bytes = max(st.peak_bytes,
                                        tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                st.calls += 1
                st.total_s += dt
                st.child_s += frame[0]

        return wrapper

    @staticmethod
    def _binding_modules():
        for name, mod in list(sys.modules.items()):
            if mod is not None and (name == "dkpair" or name.startswith("dkpair.")):
                yield mod

    def install(self):
        if self._swaps:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for op, (modname, names) in FUNCTION_OPS.items():
            mod = sys.modules[modname]
            for name in names:
                fn = getattr(mod, name)
                wrappers[id(fn)] = (fn, self._wrap(op, fn))
        for mod in self._binding_modules():
            for attr, val in list(vars(mod).items()):
                fn, wrapped = wrappers.get(id(val), (None, None))
                if fn is val:
                    setattr(mod, attr, wrapped)
                    self._swaps.append((mod, attr, fn, wrapped))
        for op, (modname, clsname, meth) in METHOD_OPS.items():
            cls = getattr(sys.modules[modname], clsname)
            fn = cls.__dict__[meth]
            wrapped = self._wrap(op, fn)
            setattr(cls, meth, wrapped)
            self._swaps.append((cls, meth, fn, wrapped))

    def uninstall(self):
        originals = {id(wrapped): (wrapped, fn) for _, _, fn, wrapped in self._swaps}
        for owner, attr, fn, _ in reversed(self._swaps):
            setattr(owner, attr, fn)
        self._swaps.clear()
        # a module imported while tracing bound the wrappers by name
        for mod in self._binding_modules():
            for attr, val in list(vars(mod).items()):
                wrapped, fn = originals.get(id(val), (None, None))
                if wrapped is val:
                    setattr(mod, attr, fn)

    # -- results ---------------------------------------------------------
    def snapshot(self) -> dict[str, dict[str, float]]:
        out = {}
        for op, st in self.stats.items():
            row = {"calls": st.calls, "self_s": st.self_s}
            if op in COSTS:
                row["bytes"] = st.bytes
            if op == "grid_alg.product":
                row["flops"] = st.flops
            if self.memory and op in PEAK_OPS:
                row["peak_mb"] = st.peak_bytes / 2 ** 20
            out[op] = row
        return out

    def attributed_s(self) -> float:
        """Span self times plus the tracer's own time; the rest of a traced
        solve's wall time ran outside every span."""
        return sum(st.self_s for st in self.stats.values()) + self.own_s
