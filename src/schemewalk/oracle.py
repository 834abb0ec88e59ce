"""Ground-truth engine: explicit graphs, exact evolution, structure checks.

Everything here works at the vertex level from the adjacency matrix alone,
independently of the algebraic machinery, so it can arbitrate disagreements:
graphs are built from first principles, e^{-iAt} e_root comes from Lanczos on
the root's Krylov space (d+1 dimensions on a distance-regular graph), and
stratification is breadth-first search (or conjugacy classes for Cayley
graphs, whose distance partition may be coarser than the scheme partition).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from math import comb, factorial

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

    @cached_property
    def float_adjacency(self) -> np.ndarray:
        """Read-only float64 copy of A, converted once for every BLAS product."""
        A = self.adjacency.astype(float)
        A.flags.writeable = False
        return A

    @cached_property
    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenpairs (evals, vecs) of A on the root's Krylov space, shared by every oracle check.

        Lanczos from the root indicator with full reorthogonalisation (one
        classical Gram-Schmidt pass): row j of Q is q_j and row j of AQ is
        A q_j, summed over neighbour lists.  It stops once the remaining norm
        beta is at most n eps k, with k = ||A||_inf the degree.  The m Ritz
        pairs of Q A Q^T are returned as evals and the n x m matrix Q^T V.
        """
        n = self.n
        neighbours = (np.flatnonzero(self.adjacency.astype(bool)) % n).reshape(n, -1).T.copy()
        floor = n * np.finfo(float).eps * len(neighbours)
        Q = np.empty((n + 1, n))
        AQ = np.empty((n, n))
        Q[0] = np.arange(n) == self.root
        for m in range(1, n + 1):
            Aq = np.add.reduce(Q[m - 1].take(neighbours), axis=0, out=AQ[m - 1])
            w = np.subtract(Aq, (Q[:m] @ Aq) @ Q[:m], out=Q[m])
            beta = float(w @ w) ** 0.5
            if beta <= floor:
                break
            w /= beta
        H = Q[:m] @ AQ[:m].T
        evals, V = np.linalg.eigh((H + H.T) / 2)
        return evals, Q[:m].T @ V

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
        if np.any(_bfs_distances(A, self.root) < 0):
            raise BadParams("graph must be connected")


@dataclass(frozen=True, eq=False)
class DistancePartition:
    strata: tuple[tuple[int, ...], ...]
    distances: np.ndarray

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.strata)


def _bfs_distances(A: np.ndarray, root: int) -> np.ndarray:
    """Distance from the root to every vertex; -1 marks vertices it cannot reach."""
    dist = np.full(A.shape[0], -1)
    dist[root] = 0
    frontier = dist == 0
    k = 0
    while frontier.any():
        k += 1
        frontier = A[frontier].any(axis=0) & (dist < 0)
        dist[frontier] = k
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
    step = np.roll(np.eye(n, dtype=bool), 1, axis=1)
    A = (step | step.T).astype(np.int64)
    return VertexGraph(A, tuple(str(v) for v in range(n)))


def _subset_intersections(v: int, k: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """The k-subsets of range(v) in lexicographic order and their intersection sizes."""
    subsets = list(combinations(range(v), k))
    incidence = np.zeros((len(subsets), v), dtype=np.int64)
    incidence[np.arange(len(subsets))[:, None], np.array(subsets, dtype=np.int64)] = 1
    return subsets, incidence @ incidence.T


def kneser_graph(v: int, k: int) -> VertexGraph:
    """Vertices are k-subsets of a v-set, adjacent when disjoint."""
    _check_size(comb(v, k))
    subsets, meet = _subset_intersections(v, k)
    A = (meet == 0).astype(np.int64)
    np.fill_diagonal(A, 0)  # for k = 0 the one vertex is disjoint from itself
    return VertexGraph(A, tuple("".join(map(str, s)) for s in subsets))


def petersen_graph() -> VertexGraph:
    return kneser_graph(5, 2)


def johnson_graph(v: int, d: int) -> VertexGraph:
    """Vertices are d-subsets of a v-set, adjacent when they share d-1 points."""
    if d < 1 or v < d:
        raise BadParams("need 1 <= d <= v")
    _check_size(comb(v, d))
    subsets, meet = _subset_intersections(v, d)
    A = (meet == d - 1).astype(np.int64)
    return VertexGraph(A, tuple("".join(map(str, s)) for s in subsets))


def hamming_graph(d: int, n: int) -> VertexGraph:
    """Words of length d over an n-letter alphabet, adjacent at Hamming distance 1."""
    if d < 1 or n < 2:
        raise BadParams("need d >= 1 and n >= 2")
    _check_size(n**d)
    words = list(product(range(n), repeat=d))
    letters = np.array(words, dtype=np.int64)
    disagreements = np.zeros((len(words), len(words)), dtype=np.int8)
    for column in letters.T:
        disagreements += column[:, None] != column[None, :]
    A = (disagreements == 1).astype(np.int64)
    return VertexGraph(A, tuple("".join(map(str, w)) for w in words))


def cayley_graph(
    descriptor: GroupDescriptor, generating_classes: tuple[int, ...] = (1,)
) -> VertexGraph:
    """Conjugacy-class Cayley graph: alpha ~ beta iff alpha^{-1} beta generates.

    The generating set is the union of the given raw conjugacy classes,
    closed under inversion by adding inverse classes when needed.  The class
    partition of the vertices rides along for stratum-level comparisons.
    """
    kind, order = descriptor.kind, descriptor.n
    n = factorial(order) if kind == "symmetric" else 2 * order if kind == "dihedral" else order
    _check_size(n)  # the group order, before any element is enumerated
    data: GroupElements = group_elements(descriptor)
    wanted = set(generating_classes)
    gen_set = {i for i, cls in enumerate(data.class_of) if cls in wanted}
    if 0 in gen_set:
        raise NonSymmetricGeneratingSet("identity cannot generate a loopless graph")
    closed = gen_set | {data.index(data.inv(data.elements[i])) for i in gen_set}
    A = np.zeros((n, n), dtype=np.int64)
    rows = np.arange(n)
    for i in sorted(closed):
        A[rows, data.right_products(data.elements[i])] = 1
    if np.any(A != A.T):
        raise NonSymmetricGeneratingSet("generating set not closed under inversion")
    partition: list[list[int]] = [[] for _ in range(max(data.class_of) + 1)]
    for i, c in enumerate(data.class_of):
        partition[c].append(i)
    return VertexGraph(A, data.labels, 0, tuple(map(tuple, partition)))


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


def _neighbour_counts(g: VertexGraph, onehot: np.ndarray) -> np.ndarray:
    """A @ onehot as a float64 BLAS product; the small integer counts are exact."""
    return g.float_adjacency @ onehot.astype(float)


def bfs_strata(g: VertexGraph) -> tuple[DistancePartition, IntersectionArray]:
    """Distance partition from the root plus the intersection array it induces."""
    distances = _bfs_distances(g.adjacency, g.root)
    if np.any(distances < 0):
        raise NotDistanceRegular("graph is disconnected")
    d = int(distances.max())
    strata = tuple(
        tuple(int(v) for v in np.flatnonzero(distances == k)) for k in range(d + 1)
    )
    # counts[v, k + 1]: neighbours of v at distance k; the zero columns at
    # both ends stand for distances -1 and d + 1.
    onehot = distances[:, None] == np.arange(-1, d + 2)
    counts = _neighbour_counts(g, onehot).astype(np.int64)
    vertices = np.arange(g.n)
    outward = counts[vertices, distances + 2]
    backward = counts[vertices, distances]
    first = np.array([stratum[0] for stratum in strata])
    peer = first[distances]  # the first vertex of each vertex's stratum
    uneven = (outward != outward[peer]) | (backward != backward[peer])
    if uneven.any():
        k = int(distances[uneven].min())
        raise NotDistanceRegular(f"stratum {k} has non-constant intersection numbers")
    c = tuple(int(x) for x in outward[first[:-1]])
    b = tuple(int(x) for x in backward[first[1:]])
    partition = DistancePartition(strata, distances)
    return partition, IntersectionArray(d=d, c=c, b=b)


def exact_walk(g: VertexGraph, times) -> np.ndarray:
    """Per-vertex amplitudes of e^{-iAt} applied to the root indicator."""
    _check_size(g.n)
    times = np.asarray(times, dtype=float)
    evals, vecs = g.eigh
    steps = len(times)
    # [cos; sin] (xt) scaled by the root's eigenvector entries, times V^T in
    # one real product: the real part, then minus the imaginary part.
    trig = np.empty((2 * steps, evals.size))
    phase = np.multiply.outer(times, evals, out=trig[steps:])
    np.cos(phase, out=trig[:steps])
    np.sin(phase, out=phase)
    trig *= vecs[g.root]
    halves = trig @ vecs.T
    amps = np.empty((steps, g.n), dtype=complex)
    amps.real = halves[:steps]
    np.subtract(0.0, halves[steps:], out=amps.imag)
    return amps


def eigensolver_residuals(g: VertexGraph) -> tuple[float, float]:
    """(orthonormality defect, max|A W - W Theta|) of the Ritz pairs in ``g.eigh``; the
    residual holds the norm at which Lanczos stopped, so a basis cut short fails it."""
    evals, vecs = g.eigh
    ortho = float(np.max(np.abs(vecs.T @ vecs - np.eye(evals.size))))
    resid = float(np.max(np.abs(g.float_adjacency @ vecs - vecs * evals)))
    return ortho, resid


def stratum_amplitudes(
    g: VertexGraph,
    strata: tuple[tuple[int, ...], ...],
    times,
    vertex_amps: np.ndarray | None = None,
) -> np.ndarray:
    """Exact amplitudes projected on unit stratum vectors: sum over a stratum / sqrt(size).

    ``vertex_amps`` is ``exact_walk(g, times)`` when the caller already has it.
    """
    if vertex_amps is None:
        vertex_amps = exact_walk(g, times)
    cols = [
        vertex_amps[:, list(stratum)].sum(axis=1) / np.sqrt(len(stratum))
        for stratum in strata
    ]
    return np.stack(cols, axis=1)


def check_stratum_uniformity(
    g: VertexGraph,
    strata: tuple[tuple[int, ...], ...],
    times,
    vertex_amps: np.ndarray | None = None,
) -> float:
    """Largest within-stratum amplitude spread over all times and strata.

    ``vertex_amps`` is ``exact_walk(g, times)`` when the caller already has it.
    """
    if vertex_amps is None:
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
    """Largest defect of the raising/lowering/diagonal actions on stratum vectors.

    With Phi the unit stratum vectors as columns, A+ + A- + A0 acting on Phi
    is A @ Phi restricted to equal or neighbouring strata, and it should equal
    Phi @ J for the Jacobi matrix J (diagonal alpha, off-diagonal sqrt(omega)).
    A @ Phi is taken from exact integer neighbour counts, rounded once.
    """
    from .spectral import jacobi_from_intersection

    jc = jacobi_from_intersection(ia)
    distances = partition.distances
    strata = np.arange(ia.d + 1)
    onehot = distances[:, None] == strata
    scale = 1.0 / np.sqrt(partition.sizes)
    counts = _neighbour_counts(g, onehot)
    ladder = np.where(np.abs(distances[:, None] - strata) <= 1, counts * scale, 0.0)
    off = np.sqrt(jc.omega)
    jacobi = np.diag(jc.alpha) + np.diag(off, 1) + np.diag(off, -1)
    return float(np.max(np.abs(ladder - (onehot * scale) @ jacobi)))
