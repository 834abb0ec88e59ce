"""Spans around the program's public functions, recorded from outside.

``install`` replaces every public module-level function of the traced
modules, and a few public methods, with a wrapper that records a span: name,
start, end, parent span and request.  The same wrapper is also put at every
site that imported the function by name (``walk.evaluate_polynomials``,
``cli.catalog_lookup``, the package namespace, ...), so calls are seen
whichever name they go through.  Spans stay in memory; the worker turns them
into per-layer metrics and writes them out when the run ends.

Span names are ``<layer>.<function>``; the layer is the module's name.
Counts that need the call's arguments or result (table entries, phase
entries, vertices) are taken by hooks after the call returns, outside the
span.
"""

from __future__ import annotations

import inspect
from collections import defaultdict
from time import perf_counter

import numpy as np

# Public methods that carry per-layer metrics.  Other methods are left alone:
# some (GroupElements.mul, IntersectionArray.c_at) run in the innermost loops.
METHODS = {
    "schemes": {"IntersectionArray": ("ensure_valid",), "SchemeEigenstructure": ("validate",)},
    "walk": {"AmplitudeSeries": ("validate",)},
}


class Tracer:
    """Flat in-memory span store; one open-span stack for the single client."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self.stack: list[int] = []
        self.request = -1
        self.counts: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.requests.append(self.request)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, hook=None):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def dump(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\trequest\tparent\tstart_s\tend_s\n")
            for i, name in enumerate(self.names):
                handle.write(f"{name}\t{self.requests[i]}\t{self.parents[i]}\t"
                             f"{self.starts[i]:.9f}\t{self.ends[i]:.9f}\n")


# ---------------------------------------------------------------------------
# Hooks: counts taken from arguments and results
# ---------------------------------------------------------------------------


def _table_entries(tr, args, kwargs, result):
    tr.counts["groups.table_entries"] += result.values.size


def _phase(tr, atoms, result):
    steps, strata = result.amplitudes.shape
    tr.counts["walk.phase_entries"] += steps * atoms
    # complex phases (steps x atoms) times a real table promoted to complex
    tr.counts["walk.kernel_flops"] += 8 * steps * atoms * strata


def _amplitudes_eigen(tr, args, kwargs, result):
    _phase(tr, args[0].P.shape[0], result)


def _amplitudes_spectral(tr, args, kwargs, result):
    dist = args[0]
    atoms = dist.atoms if hasattr(dist, "atoms") else dist.nodes
    _phase(tr, len(atoms), result)


def _line_walk(tr, args, kwargs, result):
    nodes = args[2] if len(args) > 2 else kwargs.get("nodes", 512)
    _phase(tr, nodes, result)


def _graph(tr, args, kwargs, result):
    tr.counts["oracle.vertices"] += result.n
    tr.counts["oracle.bytes_computed"] += result.adjacency.nbytes


def _eigh(tr, args, kwargs, result):
    n = args[0].n
    tr.counts["oracle.bytes_computed"] += 8 * n * n + 8 * n


def _exact_walk(tr, args, kwargs, result):
    _eigh(tr, args, kwargs, result)
    tr.counts["oracle.bytes_computed"] += result.nbytes


def _decomposition(tr, args, kwargs, result):
    tr.counts["oracle.bytes_computed"] += sum(part.nbytes for part in result)


def _parser(tr, args, kwargs, result):
    result.parse_args = tr.wrap("cli.parse_args", result.parse_args)


HOOKS = {
    "cli.build_parser": _parser,
    "groups.character_table_cyclic": _table_entries,
    "groups.character_table_dihedral": _table_entries,
    "groups.character_table_symmetric": _table_entries,
    "walk.amplitudes_eigen": _amplitudes_eigen,
    "walk.amplitudes_spectral": _amplitudes_spectral,
    "walk.line_walk": _line_walk,
    "oracle.build_graph": _graph,
    "oracle.eigensolver_residuals": _eigh,
    "oracle.exact_walk": _exact_walk,
    "oracle.quantum_decomposition": _decomposition,
}


def install(tracer: Tracer, package, modules: dict) -> int:
    """Wrap the public functions of ``modules`` (layer -> module); returns the count."""
    replaced = {}
    for layer, module in modules.items():
        for name, fn in list(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != module.__name__:
                continue
            span = f"{layer}.{name}"
            replaced[fn] = tracer.wrap(span, fn, HOOKS.get(span))
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(module, cls_name)
            for meth in methods:
                setattr(cls, meth, tracer.wrap(f"{layer}.{cls_name}.{meth}", getattr(cls, meth)))
    sites = [package, *modules.values()]
    sites += [m for m in vars(package).values() if inspect.ismodule(m) and m not in sites]
    for site in sites:
        for name, value in list(vars(site).items()):
            if inspect.isfunction(value) and value in replaced:
                setattr(site, name, replaced[value])
    return len(replaced)


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


class Spans:
    """Derived views of a tracer's spans: durations, self times, ancestry."""

    def __init__(self, tracer: Tracer) -> None:
        self.names = tracer.names
        self.parents = np.asarray(tracer.parents, dtype=int)
        self.requests = np.asarray(tracer.requests, dtype=int)
        self.dur = np.asarray(tracer.ends) - np.asarray(tracer.starts)
        child = np.zeros(len(self.dur))
        has_parent = self.parents >= 0
        np.add.at(child, self.parents[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child

    def layer_self(self, layer: str) -> float:
        return float(sum(s for n, s in zip(self.names, self.self_time)
                         if n.split(".", 1)[0] == layer))

    def outermost(self, names: set[str]) -> float:
        """Inclusive time of spans in ``names`` with no ancestor in ``names``."""
        total = 0.0
        for i, name in enumerate(self.names):
            if name not in names:
                continue
            p = self.parents[i]
            while p >= 0 and self.names[p] not in names:
                p = self.parents[p]
            if p < 0:
                total += self.dur[i]
        return total

    def self_of(self, names: set[str]) -> float:
        return float(sum(s for n, s in zip(self.names, self.self_time) if n in names))

    def calls(self, name: str) -> int:
        return sum(1 for n in self.names if n == name)

    def requests_calling(self, name: str) -> int:
        return len({int(r) for n, r in zip(self.names, self.requests) if n == name})
