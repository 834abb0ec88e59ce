"""Ground-truth engine: explicit graphs, exact evolution, structure checks.

Everything here works at the vertex level from each vertex's k neighbours,
with no intersection array or character, so it can arbitrate disagreements:
graphs are built from first principles by index arithmetic, e^{-iAt} e_root
comes from Lanczos on the root's Krylov space (d+1 dimensions on a
distance-regular graph) with A applied as sums over neighbour lists, its
tridiagonal matrix decomposed by the engines' Jacobi solver and its Ritz
pairs checked against neighbour sums, and
a stratification is one stratum index per vertex: its breadth-first distance
from the root, or on Cayley graphs its walk-scheme stratum (their distance
partition may be coarser than the scheme partition).
Only the A+/A-/A0 split forms the n x n adjacency matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb, factorial

import numpy as np

from .errors import (
    BadParams,
    DegenerateAtoms,
    EngineSpecMismatch,
    NotDistanceRegular,
    TooLarge,
)
from .groups import cayley_table, generating_stratum, walk_strata
from .schemes import (
    FromCatalog,
    FromGroup,
    FromSRG,
    GroupDescriptor,
    IntersectionArray,
    ProductScheme,
    SchemeSpec,
)
from .spectral import JacobiCoefficients, jacobi_from_intersection
from .tolerances import ORACLE_ORTHONORMALITY_TOL

MAX_VERTICES = 2000
NEIGHBOUR_CHUNK = 65536  # entries per neighbour-sum gather (512 KiB), timed on D_700 and K_400


@dataclass(frozen=True, eq=False)
class VertexGraph:
    """Simple regular connected graph; every vertex of a scheme graph looks the
    same, so walks start at vertex 0, the root.

    Row v of the read-only n x k array ``neighbours`` lists the neighbours of
    v; it is stored column by column, so each gather reads whole columns.  On Cayley
    graphs ``strata`` holds each vertex's stratum index; other builders leave it None.
    """

    neighbours: np.ndarray
    strata: np.ndarray | None = None

    def __post_init__(self) -> None:
        neighbours = np.asfortranarray(self.neighbours, dtype=np.intp)
        neighbours.flags.writeable = False
        object.__setattr__(self, "neighbours", neighbours)

    @property
    def n(self) -> int:
        return self.neighbours.shape[0]

    @property
    def adjacency(self) -> np.ndarray:
        """The n x n 0/1 int64 matrix, rebuilt on every read; only the A+/A-/A0 split reads it."""
        A = np.zeros((self.n, self.n), dtype=np.int64)
        A[np.arange(self.n)[:, None], self.neighbours] = 1
        return A

    @cached_property
    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenpairs (evals, vecs) of A on the root's Krylov space, shared by every oracle check:
        the engines' Jacobi solver on the Lanczos coefficients, Ritz vectors W = Q^T U over Q.
        Sets ``gram_defect`` = max|W^T W - I|; a cheap run over the row bound, or with coincident
        ghost Ritz values, is released and rebuilt with a Gram-Schmidt pass at every step."""
        for every_step in (False, True):
            Q = jc = gram = None  # the cheap run is released before the rebuild reserves its Q
            Q, jc = _lanczos(self, every_step)
            try:
                evals, U = jc.eigh
            except DegenerateAtoms:
                if every_step:
                    raise
                continue
            for start in range(0, self.n, 256):  # block by block, so no second m x n array
                Q[:, start : start + 256] = U.T @ Q[:, start : start + 256]
            del jc, U  # the Gram defect is formed once U is released, block by block as well:
            defect = 0.0  # an m x m temporary was trimmed and faulted in again on some heaps
            for start in range(0, len(Q), 256):
                gram = Q[start : start + 256] @ Q.T
                gram[np.arange(len(gram)), start + np.arange(len(gram))] -= 1.0
                defect = max(defect, float(gram.max()), float(-gram.min()))
            if every_step or defect <= ORACLE_ORTHONORMALITY_TOL:
                break
        object.__setattr__(self, "gram_defect", defect)
        return evals, Q.T

    def validate(self) -> None:
        N, n = self.neighbours, self.n
        if N.ndim != 2 or (N.size and (N.min() < 0 or N.max() >= n)):
            raise BadParams("neighbours must be an n x k array of vertex indices")
        rows, ordered = np.arange(n)[:, None], np.sort(N, axis=1)
        if np.any(N == rows):
            raise BadParams("graph must have no self-loop")
        if np.any(ordered[:, 1:] == ordered[:, :-1]):
            raise BadParams("neighbours must be distinct")
        # edge codes v n + u ascend row by row; the reversed edges must give the same set
        if not np.array_equal((rows * n + ordered).ravel(), np.sort(ordered * n + rows, axis=None)):
            raise BadParams("graph must be undirected")
        if np.any(_bfs_distances(N, 0) < 0):
            raise BadParams("graph must be connected")


def _neighbour_sum(neighbours: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = A x over the k x n neighbour columns, x of shape (n,) or (m, n), NEIGHBOUR_CHUNK
    gathered entries at a time: bounded gathers reuse freed memory, big ones fault pages in.
    A 2-D x past one chunk goes in blocks of rows, each summing one neighbour column a gather."""
    rows = max(1, NEIGHBOUR_CHUNK // x.size)  # neighbour columns a gather takes
    block = max(1, NEIGHBOUR_CHUNK // x.shape[-1])  # rows of a 2-D x a gather takes
    for lo in range(0, len(x), block) if x.ndim == 2 else (None,):
        xs, part = (x, out) if lo is None else (x[lo : lo + block], out[lo : lo + block])
        np.add.reduce(xs.take(neighbours[:rows], axis=-1), axis=-2, out=part)
        for start in range(rows, len(neighbours), rows):
            part += np.add.reduce(xs.take(neighbours[start : start + rows], axis=-1), axis=-2)
    return out


def _lanczos(g: VertexGraph, every_step: bool) -> tuple[np.ndarray, JacobiCoefficients]:
    """The m x n basis Q of the root's Krylov space (row j is q_j) and A on its span, by Lanczos
    from the root indicator: r = A q_j - beta_j q_{j-1}, alpha_j = q_j.r, r -= alpha_j q_j and
    omega_j = beta_j^2 = ||r||^2.  On scheme graphs the q_j are stratum vectors, orthogonal by
    structure, so r gets a classical Gram-Schmidt pass against Q only at ``every_step`` or where
    the step cancels half its squared norm (the DGKS test, Daniel et al., Math. Comp. 30, 1976).
    It stops once beta <= n eps k, k = ||A||_inf; on a bipartite graph every alpha is 0.0."""
    n, neighbours = g.n, g.neighbours.T
    floor = n * np.finfo(float).eps * len(neighbours)
    Q, alpha, omega = np.empty((n + 1, n)), [], []
    Q[0] = np.arange(n) == 0
    for m in range(1, n + 1):
        r = _neighbour_sum(neighbours, Q[m - 1], Q[m])
        if m > 1:
            r -= omega[-1] ** 0.5 * Q[m - 2]
        alpha.append(float(Q[m - 1] @ r))
        r -= alpha[-1] * Q[m - 1]
        omega.append(float(r @ r))
        if every_step or omega[-1] < alpha[-1] ** 2:  # DGKS: ||r||^2 < 1/2 ||r + alpha_j q_j||^2
            r -= (Q[:m] @ r) @ Q[:m]
            omega[-1] = float(r @ r)
        if omega[-1] ** 0.5 <= floor:
            break
        r /= omega[-1] ** 0.5
    Q.resize((m, n), refcheck=False)  # frees the rows past m in place; no view of Q is alive
    return Q, JacobiCoefficients(tuple(omega[: m - 1]), tuple(alpha))


@dataclass(frozen=True, eq=False)
class DistancePartition:
    """Each vertex's stratum index, its distance from the root; ``counts`` is
    ``_stratum_counts`` there, when known."""

    strata: np.ndarray
    counts: np.ndarray | None = None


def _bfs_distances(neighbours: np.ndarray, root: int) -> np.ndarray:
    """Distance from the root to every vertex; -1 marks vertices it cannot reach."""
    dist = np.full(len(neighbours), -1)
    dist[root] = k = 0
    frontier = np.array([root])
    while frontier.size and (dist < 0).any():  # the last level is not expanded
        k += 1
        reached = np.zeros(len(dist), dtype=bool)
        reached[neighbours.T.take(frontier, axis=1)] = True
        frontier = np.flatnonzero(reached & (dist < 0))
        dist[frontier] = k
    return dist


def _check_size(n: int) -> None:
    if n > MAX_VERTICES:
        raise TooLarge(f"{n} vertices exceed the oracle cap of {MAX_VERTICES}")


def complete_graph(n: int) -> VertexGraph:
    _check_size(n)
    j = np.arange(n - 1)[:, None]  # neighbour j of v is j, or j + 1 from j = v on
    return VertexGraph((j + (np.arange(n) <= j)).T)


def cycle_graph(n: int) -> VertexGraph:
    if n < 3:
        raise BadParams("cycle needs n >= 3")
    _check_size(n)
    return VertexGraph(((np.arange(n) + np.array([[1], [-1]])) % n).T)


def _subsets(v: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k-subsets of range(v) in lexicographic order and their complements, as ascending rows."""
    subsets = np.array(list(combinations(range(v), k)), dtype=np.intp).reshape(comb(v, k), k)
    member = np.zeros((len(subsets), v), dtype=bool)
    member[np.arange(len(subsets))[:, None], subsets] = True
    return subsets, np.nonzero(~member)[1].reshape(len(subsets), v - k)


def _subset_rank(v: int, subsets: np.ndarray) -> np.ndarray:
    """Lexicographic rank of ascending k-subsets (last axis) of range(v): by the combinatorial
    number system, C(v,k) - 1 - sum_j C(v-1-s_j, k-j).  As s_j >= j, no term exceeds C(v,k)."""
    k = subsets.shape[-1]
    rank = np.full(subsets.shape[:-1], comb(v, k) - 1)
    for j in range(k):  # one gather per position; k is small, as C(v, k) is capped
        rank -= np.take([comb(v - 1 - x, k - j) if x >= j else 0 for x in range(v)], subsets[..., j])
    return rank


def _johnson_neighbours(v: int, subsets: np.ndarray, outside: np.ndarray) -> np.ndarray:
    """Ranks of the subsets that share all but one point: swap one point, sort, rank."""
    n, k = subsets.shape
    if 2 * k > v:  # complements keep adjacency and reverse the lexicographic order
        return (n - 1 - _johnson_neighbours(v, outside[::-1], subsets[::-1]))[::-1]
    point = np.eye(k, dtype=bool)[:, None]  # swapped[s, i, b]: subset s, point i replaced by b
    swapped = np.where(point, outside[:, None, :, None], subsets[:, None, None])
    return _subset_rank(v, np.sort(swapped, axis=-1)).reshape(n, -1)


def kneser_graph(v: int, k: int) -> VertexGraph:
    """Vertices are k-subsets of a v-set, adjacent when disjoint."""
    _check_size(comb(v, k))
    subsets, outside = _subsets(v, k)
    # the k-subsets of each complement, ascending; there are none if k = 0 or 2k > v
    picks = _subsets(v - k, k)[0] if 0 < 2 * k <= v else np.empty((0, k), dtype=np.intp)
    return VertexGraph(_subset_rank(v, outside[:, picks]))


def petersen_graph() -> VertexGraph:
    return kneser_graph(5, 2)


def johnson_graph(v: int, d: int) -> VertexGraph:
    """Vertices are d-subsets of a v-set, adjacent when they share d-1 points."""
    if d < 1 or v < d:
        raise BadParams("need 1 <= d <= v")
    _check_size(comb(v, d))
    subsets, outside = _subsets(v, d)
    return VertexGraph(_johnson_neighbours(v, subsets, outside))


def hamming_graph(d: int, n: int) -> VertexGraph:
    """Words of length d over an n-letter alphabet, adjacent at Hamming distance 1."""
    if d < 1 or n < 2:
        raise BadParams("need d >= 1 and n >= 2")
    _check_size(n**d)
    # word w has index sum_i w_i n^(d-1-i); change letter i by each shift in 1..n-1
    words = np.arange(n**d)
    place = n ** np.arange(d - 1, -1, -1)[:, None, None]
    letters = words // place % n
    changed = (letters + np.arange(1, n)[:, None]) % n
    return VertexGraph((words + (changed - letters) * place).reshape(-1, n**d).T)


def cayley_graph(descriptor: GroupDescriptor, generating: int | None = None) -> VertexGraph:
    """Conjugacy-class Cayley graph: alpha ~ beta iff alpha^{-1} beta is in the generating stratum.

    The generators are the elements of one walk-scheme stratum (1 unless
    named), which is closed under inversion.  Each vertex's stratum rides
    along for stratum-level comparisons.
    """
    kind, order = descriptor.kind, descriptor.n
    generating = generating_stratum(walk_strata(kind, order), generating)
    n = factorial(order) if kind == "symmetric" else 2 * order if kind == "dihedral" else order
    _check_size(n)  # the group order, before any element is enumerated
    neighbours, strata = cayley_table(descriptor, generating)
    return VertexGraph(neighbours, strata)


def build_graph(spec: SchemeSpec) -> VertexGraph:
    """Vertex-level realization of a scheme specification, where one exists."""
    if isinstance(spec, FromGroup):
        return cayley_graph(spec.group, spec.generating_class)
    if isinstance(spec, FromSRG):
        if (spec.n, spec.kappa, spec.lam, spec.eta) == (10, 3, 0, 1):
            return petersen_graph()
        raise EngineSpecMismatch("only the (10,3,0,1) strongly regular graph has a vertex builder")
    if isinstance(spec, ProductScheme):
        return hamming_graph(spec.copies, spec.n)
    if not isinstance(spec, FromCatalog):
        raise EngineSpecMismatch(f"no vertex builder for {type(spec).__name__}")
    builders = {"complete": complete_graph, "cycle": cycle_graph, "petersen": petersen_graph,
                "johnson": johnson_graph, "hamming": hamming_graph}
    if spec.name not in builders:
        raise EngineSpecMismatch(f"no vertex builder for catalog entry {spec.name!r}")
    return builders[spec.name](*spec.params)


def _stratum_counts(g: VertexGraph, distances: np.ndarray) -> np.ndarray:
    """counts[j, v]: neighbours of v at distance distances[v] + j - 1, for j = 0, 1, 2."""
    distances = distances.astype(np.min_scalar_type(-len(distances)))  # k x n small ints
    step = distances.take(g.neighbours.T) - distances
    return np.add.reduce(step == np.arange(-1, 2, dtype=step.dtype)[:, None, None], axis=1)


def bfs_strata(g: VertexGraph) -> tuple[DistancePartition, IntersectionArray]:
    """Distance partition from the root plus the intersection array it induces."""
    distances = _bfs_distances(g.neighbours, 0)
    if np.any(distances < 0):
        raise NotDistanceRegular("graph is disconnected")
    order = np.argsort(distances, kind="stable")
    sizes = np.bincount(distances)
    first = order[np.cumsum(sizes) - sizes]  # the first vertex of each stratum
    backward, _, outward = counts = _stratum_counts(g, distances)
    peer = first[distances]
    uneven = (outward != outward[peer]) | (backward != backward[peer])
    if uneven.any():
        k = int(distances[uneven].min())
        raise NotDistanceRegular(f"stratum {k} has non-constant intersection numbers")
    c, b = tuple(outward[first[:-1]].tolist()), tuple(backward[first[1:]].tolist())
    ia = IntersectionArray(d=len(sizes) - 1, c=c, b=b)
    return DistancePartition(distances, counts), ia


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
    trig *= vecs[0]
    halves = trig @ vecs.T
    amps = np.empty((steps, g.n), dtype=complex)
    amps.real = halves[:steps]
    np.subtract(0.0, halves[steps:], out=amps.imag)
    return amps


def eigensolver_residuals(g: VertexGraph) -> tuple[float, float]:
    """(``g.gram_defect``, max|A W - W Theta|) of the Ritz pairs in ``g.eigh``; the
    residual holds the norm at which Lanczos stopped, so a basis cut short fails it.
    A W is summed over the neighbour lists here, not read from the Lanczos run."""
    evals, vecs = g.eigh
    AW = _neighbour_sum(g.neighbours.T, vecs.T, np.empty_like(vecs.T))  # one row per vector
    AW -= vecs.T * evals[:, None]
    return g.gram_defect, float(np.max(np.abs(AW)))


def _by_stratum(g: VertexGraph, strata: np.ndarray, times, vertex_amps) -> tuple[np.ndarray, ...]:
    """(amplitudes gathered stratum after stratum, where each stratum starts, stratum sizes)."""
    vertex_amps = exact_walk(g, times) if vertex_amps is None else vertex_amps
    sizes = np.bincount(strata)
    order = np.argsort(strata, kind="stable")
    return vertex_amps.take(order, axis=1), np.cumsum(sizes) - sizes, sizes


def stratum_amplitudes(
    g: VertexGraph, strata: np.ndarray, times, vertex_amps: np.ndarray | None = None
) -> np.ndarray:
    """Exact amplitudes projected on unit stratum vectors: sum over a stratum / sqrt(size),
    ``strata`` holding each vertex's stratum index; ``vertex_amps`` is
    ``exact_walk(g, times)`` when the caller already has it."""
    block, starts, sizes = _by_stratum(g, strata, times, vertex_amps)
    return np.add.reduceat(block, starts, axis=1) / np.sqrt(sizes)


def check_stratum_uniformity(
    g: VertexGraph, strata: np.ndarray, times, vertex_amps: np.ndarray | None = None
) -> float:
    """Largest within-stratum amplitude spread over all times and strata;
    ``vertex_amps`` is ``exact_walk(g, times)`` when the caller already has it."""
    block, starts, sizes = _by_stratum(g, strata, times, vertex_amps)
    return float(np.max(np.abs(block - block.take(np.repeat(starts, sizes), axis=1))))


def quantum_decomposition(g: VertexGraph, strata: np.ndarray) -> tuple[np.ndarray, ...]:
    """Split A into raising, lowering and stratum-diagonal parts (A+, A-, A0).

    Entry (beta, gamma) of A+ survives when beta lies one stratum further from
    the root than gamma, so A+ raises the stratum index by one.
    """
    A, diff = g.adjacency, strata[:, None] - strata[None, :]
    return A * (diff == 1), A * (diff == -1), A * (diff == 0)


def ladder_residual(g: VertexGraph, partition: DistancePartition, ia: IntersectionArray) -> float:
    """Largest defect of the raising/lowering/diagonal actions on stratum vectors.

    With Phi the unit stratum vectors as columns, A+ + A- + A0 acting on Phi
    is A @ Phi restricted to equal or neighbouring strata, and it should equal
    Phi @ J for the Jacobi matrix J (diagonal alpha, off-diagonal sqrt(omega)).
    Entry j of row v of both is at stratum distances[v] + j - 1, where A @ Phi
    is an exact neighbour count times that stratum's scale.
    """
    jc = jacobi_from_intersection(ia)
    distances = partition.strata
    scale = 1.0 / np.sqrt(np.bincount(distances))
    padded = np.concatenate(([0.0], scale, [0.0]))  # padded[s + 1]: scale of stratum s
    off = np.sqrt(jc.omega)
    band = np.stack(([0.0, *off], jc.alpha, [*off, 0.0]))  # band[j, s] = J[s, s + j - 1]
    counts = _stratum_counts(g, distances) if partition.counts is None else partition.counts
    ladder = counts * padded[distances + np.arange(3)[:, None]]
    return float(np.max(np.abs(ladder - scale[distances] * band[:, distances])))
