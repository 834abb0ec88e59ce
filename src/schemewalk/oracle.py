"""Ground-truth engine: explicit graphs, exact evolution, structure checks.

Everything here works at the vertex level with dense matrices, independently
of the algebraic machinery, so it can arbitrate disagreements: graphs are
built from first principles, e^{-iAt} comes from a full eigendecomposition,
and stratification is breadth-first search (or conjugacy classes for Cayley
graphs, whose distance partition may be coarser than the scheme partition).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb

import numpy as np

from .errors import (
    BadParams,
    EngineSpecMismatch,
    NonSymmetricGeneratingSet,
    NotDistanceRegular,
    TooLarge,
)
from .groups import GroupElements, class_groups, group_elements
from .schemes import (
    FromCatalog,
    FromGroup,
    FromSRG,
    GroupDescriptor,
    IntersectionArray,
    ProductScheme,
    SchemeSpec,
)

MAX_VERTICES = 2000
ORACLE_SYMMETRIC_MAX_N = 6


@dataclass(frozen=True, eq=False)
class VertexGraph:
    """Simple regular connected graph with a distinguished root vertex."""

    adjacency: np.ndarray
    labels: tuple[str, ...]
    root: int = 0
    class_partition: tuple[tuple[int, ...], ...] | None = None

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    def validate(self) -> None:
        A = self.adjacency
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise BadParams("adjacency must be square")
        if np.any(A != A.T):
            raise BadParams("adjacency must be symmetric")
        if np.any(np.diag(A) != 0):
            raise BadParams("adjacency must have zero diagonal")
        if not np.all((A == 0) | (A == 1)):
            raise BadParams("adjacency must be 0/1")
        degrees = A.sum(axis=1)
        if np.any(degrees != degrees[0]):
            raise BadParams("graph must be regular")
        if len(_bfs_distances(A, self.root)) != self.n:
            raise BadParams("graph must be connected")


@dataclass(frozen=True, eq=False)
class DistancePartition:
    strata: tuple[tuple[int, ...], ...]
    distances: np.ndarray

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.strata)


def _bfs_distances(A: np.ndarray, root: int) -> dict[int, int]:
    dist = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for w in np.nonzero(A[v])[0]:
                if int(w) not in dist:
                    dist[int(w)] = dist[v] + 1
                    nxt.append(int(w))
        frontier = nxt
    return dist


def _check_size(n: int) -> None:
    if n > MAX_VERTICES:
        raise TooLarge(f"{n} vertices exceed the oracle cap of {MAX_VERTICES}")


def complete_graph(n: int) -> VertexGraph:
    _check_size(n)
    A = np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)
    return VertexGraph(A, tuple(str(v) for v in range(n)))


def cycle_graph(n: int) -> VertexGraph:
    _check_size(n)
    A = np.zeros((n, n), dtype=np.int64)
    for v in range(n):
        A[v, (v + 1) % n] = A[(v + 1) % n, v] = 1
    return VertexGraph(A, tuple(str(v) for v in range(n)))


def kneser_graph(v: int, k: int) -> VertexGraph:
    """Vertices are k-subsets of a v-set, adjacent when disjoint."""
    _check_size(comb(v, k))
    subsets = list(combinations(range(v), k))
    n = len(subsets)
    A = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        si = set(subsets[i])
        for j in range(i + 1, n):
            if not si & set(subsets[j]):
                A[i, j] = A[j, i] = 1
    return VertexGraph(A, tuple("".join(map(str, s)) for s in subsets))


def petersen_graph() -> VertexGraph:
    return kneser_graph(5, 2)


def johnson_graph(v: int, d: int) -> VertexGraph:
    """Vertices are d-subsets of a v-set, adjacent when they share d-1 points."""
    if d < 1 or v < d:
        raise BadParams("need 1 <= d <= v")
    _check_size(comb(v, d))
    subsets = list(combinations(range(v), d))
    n = len(subsets)
    A = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        si = set(subsets[i])
        for j in range(i + 1, n):
            if len(si & set(subsets[j])) == d - 1:
                A[i, j] = A[j, i] = 1
    return VertexGraph(A, tuple("".join(map(str, s)) for s in subsets))


def hamming_graph(d: int, n: int) -> VertexGraph:
    """Words of length d over an n-letter alphabet, adjacent at Hamming distance 1."""
    if d < 1 or n < 2:
        raise BadParams("need d >= 1 and n >= 2")
    _check_size(n**d)
    words = list(product(range(n), repeat=d))
    size = len(words)
    A = np.zeros((size, size), dtype=np.int64)
    for i in range(size):
        for j in range(i + 1, size):
            if sum(a != b for a, b in zip(words[i], words[j])) == 1:
                A[i, j] = A[j, i] = 1
    return VertexGraph(A, tuple("".join(map(str, w)) for w in words))


def cayley_graph(
    descriptor: GroupDescriptor, generating_classes: tuple[int, ...] = (1,)
) -> VertexGraph:
    """Conjugacy-class Cayley graph: alpha ~ beta iff alpha^{-1} beta generates.

    The generating set is the union of the given raw conjugacy classes,
    closed under inversion by adding inverse classes when needed.  The class
    partition of the vertices rides along for stratum-level comparisons.
    """
    if descriptor.kind == "symmetric" and descriptor.n > ORACLE_SYMMETRIC_MAX_N:
        raise TooLarge(
            f"symmetric-group oracle capped at n = {ORACLE_SYMMETRIC_MAX_N}"
        )
    data: GroupElements = group_elements(descriptor)
    n = len(data.elements)
    _check_size(n)
    gen_set = {
        i
        for i, cls in enumerate(data.class_of)
        if cls in set(generating_classes)
    }
    if 0 in gen_set:
        raise NonSymmetricGeneratingSet("identity cannot generate a loopless graph")
    closed = set(gen_set)
    for i in gen_set:
        closed.add(data.index(data.inv(data.elements[i])))
    gen_elements = [data.elements[i] for i in sorted(closed)]
    A = np.zeros((n, n), dtype=np.int64)
    for i, alpha in enumerate(data.elements):
        alpha_inv = data.inv(alpha)
        for g in gen_elements:
            j = data.index(data.mul(alpha, g))
            A[i, j] = 1
    if np.any(A != A.T):
        raise NonSymmetricGeneratingSet("generating set not closed under inversion")
    n_classes = max(data.class_of) + 1
    partition = tuple(
        tuple(i for i, c in enumerate(data.class_of) if c == k)
        for k in range(n_classes)
    )
    return VertexGraph(A, data.labels, 0, partition)


def build_graph(spec: SchemeSpec) -> VertexGraph:
    """Vertex-level realization of a scheme specification, where one exists."""
    if isinstance(spec, FromGroup):
        groups = class_groups(spec.group)
        generating = 1 if spec.generating_class is None else spec.generating_class
        if not 1 <= generating < len(groups):
            raise BadParams(f"generating class {generating} out of range")
        return cayley_graph(spec.group, groups[generating])
    if isinstance(spec, FromSRG):
        if (spec.n, spec.kappa, spec.lam, spec.eta) == (10, 3, 0, 1):
            return petersen_graph()
        raise EngineSpecMismatch(
            "only the (10,3,0,1) strongly regular graph has a vertex builder"
        )
    if isinstance(spec, ProductScheme):
        return hamming_graph(spec.copies, spec.n)
    if isinstance(spec, FromCatalog):
        name, params = spec.name, spec.params
        if name == "complete":
            return complete_graph(*params)
        if name == "cycle":
            return cycle_graph(*params)
        if name == "petersen":
            return petersen_graph()
        if name == "johnson":
            return johnson_graph(*params)
        if name == "hamming":
            return hamming_graph(*params)
        raise EngineSpecMismatch(f"no vertex builder for catalog entry {name!r}")
    raise EngineSpecMismatch(f"no vertex builder for {type(spec).__name__}")


def bfs_strata(g: VertexGraph) -> tuple[DistancePartition, IntersectionArray]:
    """Distance partition from the root plus the intersection array it induces."""
    dist_map = _bfs_distances(g.adjacency, g.root)
    if len(dist_map) != g.n:
        raise NotDistanceRegular("graph is disconnected")
    distances = np.array([dist_map[v] for v in range(g.n)])
    d = int(distances.max())
    strata = tuple(
        tuple(int(v) for v in np.nonzero(distances == k)[0]) for k in range(d + 1)
    )
    c = []
    b = []
    for k in range(d + 1):
        outward = set()
        backward = set()
        for v in strata[k]:
            neigh = np.nonzero(g.adjacency[v])[0]
            outward.add(int(np.sum(distances[neigh] == k + 1)))
            backward.add(int(np.sum(distances[neigh] == k - 1)))
        if len(outward) != 1 or len(backward) != 1:
            raise NotDistanceRegular(
                f"stratum {k} has non-constant intersection numbers"
            )
        if k < d:
            c.append(outward.pop())
        if k > 0:
            b.append(backward.pop())
    partition = DistancePartition(strata, distances)
    return partition, IntersectionArray(d=d, c=tuple(c), b=tuple(b))


def exact_walk(g: VertexGraph, times) -> np.ndarray:
    """Per-vertex amplitudes of e^{-iAt} applied to the root indicator."""
    _check_size(g.n)
    times = np.asarray(times, dtype=float)
    evals, vecs = np.linalg.eigh(g.adjacency.astype(float))
    coeff = vecs[g.root]
    phases = np.exp(-1j * np.outer(times, evals))
    return (phases * coeff) @ vecs.T


def eigensolver_residuals(g: VertexGraph) -> tuple[float, float]:
    """(orthonormality defect, eigen-equation residual) of the dense solver."""
    A = g.adjacency.astype(float)
    evals, vecs = np.linalg.eigh(A)
    ortho = float(np.max(np.abs(vecs.T @ vecs - np.eye(g.n))))
    resid = float(np.max(np.abs(A @ vecs - vecs * evals)))
    return ortho, resid


def stratum_amplitudes(
    g: VertexGraph, strata: tuple[tuple[int, ...], ...], times
) -> np.ndarray:
    """Exact amplitudes projected on unit stratum vectors: sum over a stratum / sqrt(size)."""
    vertex_amps = exact_walk(g, times)
    cols = [
        vertex_amps[:, list(stratum)].sum(axis=1) / np.sqrt(len(stratum))
        for stratum in strata
    ]
    return np.stack(cols, axis=1)


def check_stratum_uniformity(
    g: VertexGraph, strata: tuple[tuple[int, ...], ...], times
) -> float:
    """Largest within-stratum amplitude spread over all times and strata."""
    vertex_amps = exact_walk(g, times)
    spread = 0.0
    for stratum in strata:
        block = vertex_amps[:, list(stratum)]
        gap = np.max(np.abs(block - block[:, :1])) if len(stratum) > 1 else 0.0
        spread = max(spread, float(gap))
    return spread


def quantum_decomposition(
    g: VertexGraph, distances: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split A into raising, lowering and stratum-diagonal parts (A+, A-, A0).

    Entry (beta, gamma) of A+ survives when beta lies one stratum further from
    the root than gamma, so A+ raises the stratum index by one.
    """
    A = g.adjacency
    diff = distances[:, None] - distances[None, :]
    a_plus = A * (diff == 1)
    a_minus = A * (diff == -1)
    a_zero = A * (diff == 0)
    return a_plus, a_minus, a_zero


def ladder_residual(
    g: VertexGraph, partition: DistancePartition, ia: IntersectionArray
) -> float:
    """Largest defect of the raising/lowering/diagonal actions on stratum vectors."""
    from .spectral import jacobi_from_intersection

    jc = jacobi_from_intersection(ia)
    a_plus, a_minus, a_zero = quantum_decomposition(g, partition.distances)
    d = ia.d
    phis = np.zeros((d + 1, g.n))
    for k, stratum in enumerate(partition.strata):
        phis[k, list(stratum)] = 1.0 / np.sqrt(len(stratum))
    worst = 0.0
    for k in range(d + 1):
        up = a_plus @ phis[k]
        target = np.sqrt(jc.omega[k]) * phis[k + 1] if k < d else np.zeros(g.n)
        worst = max(worst, float(np.max(np.abs(up - target))))
        down = a_minus @ phis[k]
        target = np.sqrt(jc.omega[k - 1]) * phis[k - 1] if k > 0 else np.zeros(g.n)
        worst = max(worst, float(np.max(np.abs(down - target))))
        diag = a_zero @ phis[k]
        worst = max(worst, float(np.max(np.abs(diag - jc.alpha[k] * phis[k]))))
    return worst
