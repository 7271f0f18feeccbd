"""In-memory span tracer that wraps boskraus's public functions from outside.

``Tracer.installed()`` replaces each traced function in every ``boskraus``
module namespace that binds it (``kraus.apply`` is also bound as
``analysis.apply`` and ``boskraus.apply``), and the ``__post_init__`` of
``DensityMatrix``, with a wrapper that records a span: name, start, end and
the index of the enclosing span.  Leaving the ``with`` block restores the
originals.  Self time is a span's duration minus the durations of its direct
children; spans nest strictly because the package is single-threaded.
"""

from __future__ import annotations

import functools
import inspect
import sys
import weakref
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# "<module>.<function>" of each traced function, also its span name
TRACED = (
    "kraus.build_discrete", "kraus.build_continuous", "kraus.raw_completeness_defect",
    "kraus.completeness_defect", "kraus.apply", "kraus.apply_matrix", "kraus.dual",
    "fock.displacement_op", "fock.char_weyl", "fock.trace_distance",
    "scheme.kraus_from_scheme", "scheme.generating_form",
    "analysis.iterate", "analysis.cumulants", "analysis.gram_rank",
    "analysis.simultaneous_diagonality", "analysis.classicality_check",
    "verify.run_all", "cli.main",
)
# every public function of this module is traced under the one span name
PHASESPACE = "phasespace"
DENSITY_INIT = "fock.DensityMatrix"
# functions that return a new KrausFamily; their array bytes are summed
BUILDERS = ("kraus.build_discrete", "kraus.build_continuous", "kraus.dual",
            "scheme.kraus_from_scheme")
APPLY_SPANS = ("kraus.apply", "kraus.apply_matrix")


class Tracer:
    """Spans and computed counts of one traced pass."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, first-use flag]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._applied = weakref.WeakSet()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            first = False
            if name in APPLY_SPANS:
                first = args[0] not in self._applied
                self._applied.add(args[0])
            idx = len(self.spans)
            self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, first])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = perf_counter()
            if name in BUILDERS:
                self.counts["kraus.ops_bytes"] += sum(
                    v.nbytes for v in vars(result).values() if isinstance(v, np.ndarray))
            if name == "scheme.kraus_from_scheme":
                self.counts["scheme.taylor_cells"] += _taylor_cells(*args, **kwargs)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        import boskraus
        from boskraus import fock, phasespace

        wrappers = {}
        for name in TRACED:
            mod, attr = name.split(".")
            fn = getattr(getattr(boskraus, mod), attr)
            wrappers[id(fn)] = self._wrap(name, fn)
        for attr, fn in vars(phasespace).items():
            if inspect.isfunction(fn) and fn.__module__ == phasespace.__name__ and not attr.startswith("_"):
                wrappers[id(fn)] = self._wrap(PHASESPACE, fn)
        patched = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "boskraus" or mod_name.startswith("boskraus.")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
        post_init = fock.DensityMatrix.__post_init__
        fock.DensityMatrix.__post_init__ = self._wrap(DENSITY_INIT, post_init)
        try:
            yield self
        finally:
            fock.DensityMatrix.__post_init__ = post_init
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    def summary(self) -> dict:
        """Self seconds ``<span>.s`` and call counts ``<span>.n`` per span name,
        inclusive seconds of the outermost apply calls split into
        ``kraus.apply.first.s`` (first use of a family object) and
        ``kraus.apply.warm.s``, and the computed counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for name in list(TRACED) + [PHASESPACE, DENSITY_INIT]:
            out[f"{name}.s"] = 0.0
            out[f"{name}.n"] = 0
        out["kraus.apply.first.s"] = 0.0
        out["kraus.apply.warm.s"] = 0.0
        for i, (name, start, end, parent, first) in enumerate(self.spans):
            out[f"{name}.s"] += end - start - child_time[i]
            out[f"{name}.n"] += 1
            if name in APPLY_SPANS and (parent < 0 or self.spans[parent][0] not in APPLY_SPANS):
                out["kraus.apply.first.s" if first else "kraus.apply.warm.s"] += end - start
        out["kraus.ops_mb"] = self.counts["kraus.ops_bytes"] / 1e6
        out["scheme.taylor_cells"] = self.counts["scheme.taylor_cells"]
        return out

    def to_json(self) -> list[dict]:
        """Spans in call order, times in seconds from the first span's start."""
        if not self.spans:
            return []
        t0 = self.spans[0][1]
        return [{"name": name, "start": start - t0, "dur": end - start, "parent": parent}
                for name, start, end, parent, _ in self.spans]


def _taylor_cells(mix, ell_max: int, n_cut: int) -> int:
    """Box size of the Taylor recurrence that ``kraus_from_scheme`` runs;
    takes the same arguments."""
    from boskraus.scheme import MAX_ORDER

    return n_cut * (ell_max + 1) * min(n_cut + ell_max, MAX_ORDER + 1)
