import itertools
import math
import tracemalloc

import numpy as np
import pytest

from schemewalk import groups, oracle
from schemewalk.errors import (
    BadParams,
    DegenerateAtoms,
    EngineSpecMismatch,
    NotDistanceRegular,
    TooLarge,
)
from schemewalk.groups import walk_scheme
from schemewalk.schemes import (
    FromCatalog,
    FromGroup,
    GroupDescriptor,
    IntersectionArray,
    ProductScheme,
)
from schemewalk.spectral import jacobi_from_intersection
from schemewalk.tolerances import ORACLE_EIGEN_RESIDUAL_TOL, ORACLE_ORTHONORMALITY_TOL
from schemewalk.walk import eigen_spectrum, jacobi_spectrum

from group_reference import ReferenceGroup, inverse

TIMES = np.linspace(0.0, 20.0, 64)


def test_petersen_builder():
    g = oracle.petersen_graph()
    g.validate()
    assert g.n == 10
    assert np.all(g.adjacency.sum(axis=1) == 3)
    partition, ia = oracle.bfs_strata(g)
    assert ia == IntersectionArray(d=2, c=(3, 2), b=(1, 1))
    assert np.bincount(partition.strata).tolist() == [1, 3, 6]


def test_johnson_builder():
    g = oracle.johnson_graph(4, 2)
    g.validate()
    assert g.n == 6
    assert np.all(g.adjacency.sum(axis=1) == 4)


def test_cayley_builder_s3():
    g = oracle.cayley_graph(GroupDescriptor("symmetric", 3))
    g.validate()
    assert g.n == 6
    assert np.all(g.adjacency.sum(axis=1) == 3)
    # transposition graph of S3 is bipartite: odd adjacency spectrum symmetry
    evals = np.linalg.eigvalsh(g.adjacency.astype(float))
    assert np.allclose(np.sort(evals), np.sort(-evals))


def test_cayley_symmetrizes_generating_class():
    g = oracle.cayley_graph(GroupDescriptor("cyclic", 7), 1)
    g.validate()
    _, ia = oracle.bfs_strata(g)
    assert ia == IntersectionArray(d=3, c=(2, 1, 1), b=(1, 1, 1))


def test_cayley_rejects_identity_class(monkeypatch):
    def enumerate_nothing(descriptor, generating):
        raise AssertionError("elements enumerated before the range check")

    monkeypatch.setattr(oracle, "cayley_table", enumerate_nothing)
    # the range check precedes the size check: S_7 is over the vertex cap
    for descriptor in (GroupDescriptor("cyclic", 7), GroupDescriptor("symmetric", 7)):
        with pytest.raises(BadParams, match="generating class 0 out of range"):
            oracle.cayley_graph(descriptor, 0)


def test_size_caps():
    with pytest.raises(TooLarge):
        oracle.complete_graph(2001)
    with pytest.raises(TooLarge):
        oracle.cayley_graph(GroupDescriptor("symmetric", 7))


def test_bfs_rejects_non_distance_regular():
    g = oracle.cayley_graph(GroupDescriptor("symmetric", 4))
    with pytest.raises(NotDistanceRegular):
        oracle.bfs_strata(g)


def test_exact_walk_basics():
    g = oracle.complete_graph(5)
    amps = oracle.exact_walk(g, np.array([0.0, 1.3]))
    assert np.allclose(amps[0], np.eye(5)[0], atol=1e-12)
    assert np.allclose(np.sum(np.abs(amps) ** 2, axis=1), 1.0, atol=1e-9)
    expected = (4 * np.exp(1.3j) + np.exp(-1.3j * 4)) / 5
    assert amps[1, 0] == pytest.approx(expected, abs=1e-10)


def test_exact_walk_matches_petersen_closed_forms():
    g = oracle.petersen_graph()
    partition, _ = oracle.bfs_strata(g)
    amps = oracle.stratum_amplitudes(g, partition.strata, TIMES)
    phi0 = 0.5 * np.exp(-1j * TIMES) + 0.4 * np.exp(2j * TIMES) + 0.1 * np.exp(-3j * TIMES)
    phi2 = (
        -np.exp(-1j * TIMES) + 0.4 * np.exp(2j * TIMES) + 0.6 * np.exp(-3j * TIMES)
    ) / math.sqrt(6)
    assert np.max(np.abs(amps[:, 0] - phi0)) < 1e-10
    assert np.max(np.abs(amps[:, 2] - phi2)) < 1e-10


def test_eigensolver_residuals():
    for g in (oracle.petersen_graph(), oracle.hamming_graph(2, 3), oracle.cycle_graph(9)):
        ortho, resid = oracle.eigensolver_residuals(g)
        assert ortho < 1e-10
        assert resid < 1e-8


# Krylov oracle: the walk from the root against a dense eigendecomposition of A.


def _from_edges(n, edges):
    """The graph on range(n) with these undirected edges, as neighbour lists."""
    lists = [[] for _ in range(n)]
    for i, j in edges:
        lists[i].append(j)
        lists[j].append(i)
    return oracle.VertexGraph(np.array(lists).reshape(n, -1))


def _prism(n):
    """The prism C_n x K_2: regular and vertex-transitive; at n = 5 not distance-regular."""
    cycles = [(side + v, side + (v + 1) % n) for side in (0, n) for v in range(n)]
    return _from_edges(2 * n, cycles + [(v, v + n) for v in range(n)])


def _group_graph(kind, n):
    return lambda: oracle.build_graph(FromGroup(GroupDescriptor(kind, n)))


KRYLOV_GRAPHS = {
    "K1": lambda: oracle.complete_graph(1),
    "K7": lambda: oracle.complete_graph(7),
    "C12": lambda: oracle.cycle_graph(12),
    "C13": lambda: oracle.cycle_graph(13),
    "petersen": oracle.petersen_graph,
    "J7_3": lambda: oracle.johnson_graph(7, 3),
    "H4_3": lambda: oracle.hamming_graph(4, 3),
    "S4": _group_graph("symmetric", 4),
    "S5": _group_graph("symmetric", 5),
    "S6": _group_graph("symmetric", 6),
    "D12": _group_graph("dihedral", 6),
    "D14": _group_graph("dihedral", 7),
    "Z15": _group_graph("cyclic", 15),
    "S4_transpositions": lambda: oracle.cayley_graph(GroupDescriptor("symmetric", 4)),
    "prism5": lambda: _prism(5),
}


def _dense_walk(g, times):
    evals, vecs = np.linalg.eigh(g.adjacency.astype(float))
    return (np.exp(-1j * np.outer(times, evals)) * vecs[0]) @ vecs.T


@pytest.mark.parametrize("name", KRYLOV_GRAPHS)
def test_krylov_walk_matches_a_dense_eigendecomposition(name):
    g = KRYLOV_GRAPHS[name]()
    g.validate()
    evals, vecs = g.eigh
    assert vecs.shape == (g.n, evals.size) and evals.size <= g.n
    assert np.max(np.abs(oracle.exact_walk(g, TIMES) - _dense_walk(g, TIMES))) < 1e-12
    ortho, resid = oracle.eigensolver_residuals(g)
    assert ortho < 1e-13 and resid < 1e-13


@pytest.mark.parametrize("name", ["S4_transpositions", "prism5"])
def test_krylov_oracle_assumes_no_scheme_structure(name):
    g = KRYLOV_GRAPHS[name]()
    with pytest.raises(NotDistanceRegular):
        oracle.bfs_strata(g)
    # the walk still stays in the root's Krylov space, smaller than the graph
    assert g.eigh[0].size < g.n


@pytest.mark.parametrize("name", ["K1", "K7", "C12", "C13", "petersen", "J7_3", "H4_3"])
def test_krylov_dimension_is_the_diameter_plus_one(name):
    g = KRYLOV_GRAPHS[name]()
    _, ia = oracle.bfs_strata(g)
    assert g.eigh[0].size == ia.d + 1


@pytest.mark.parametrize("name", ["C12", "C13", "petersen", "H4_3", "J7_3", "H4_2"])
def test_lanczos_coefficients_are_the_jacobi_matrix_of_the_bfs_array(name):
    # On the root's Krylov space A is the Jacobi matrix of the spectral distribution.
    g = oracle.hamming_graph(4, 2) if name == "H4_2" else KRYLOV_GRAPHS[name]()
    _, ia = oracle.bfs_strata(g)
    expected, (_, lanczos) = jacobi_from_intersection(ia), oracle._lanczos(g, every_step=False)
    k = g.neighbours.shape[1]
    np.testing.assert_allclose(lanczos.alpha, expected.alpha, rtol=1e-12, atol=1e-12 * k)
    np.testing.assert_allclose(lanczos.omega, expected.omega, rtol=1e-12, atol=0.0)
    if name in ("C12", "H4_2"):  # bipartite: each q_j vanishes on one colour class
        assert not any(expected.alpha) and all(a == 0.0 for a in lanczos.alpha)


def test_krylov_eigh_needs_no_second_n_by_n_buffer():
    # Q is reserved as (n + 1) x n and the Ritz vectors are written over it; C_1200 has
    # m = 601, so a product into fresh memory, or an n x n buffer beside Q, exceeds the bound.
    g = oracle.cycle_graph(1200)
    tracemalloc.start()
    try:
        evals, vecs = g.eigh
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vecs.shape == (1200, 601)
    assert peak < 1.25 * (g.n + 1) * g.n * 8


LONG_CYCLES = {"C1999": lambda: oracle.cycle_graph(1999), "Z2000": _group_graph("cyclic", 2000)}


@pytest.mark.parametrize("name", [*KRYLOV_GRAPHS, *LONG_CYCLES])
def test_the_cheap_lanczos_run_alone_meets_the_orthonormality_bound(name):
    # A Gram-Schmidt pass only where a step cancels keeps these bases orthonormal: no rebuild.
    # The Ritz vectors Q^T U have the Gram defect of Q, as U is orthogonal.
    g = {**KRYLOV_GRAPHS, **LONG_CYCLES}[name]()
    Q, _ = oracle._lanczos(g, every_step=False)
    assert _gram_defect(Q) < ORACLE_ORTHONORMALITY_TOL
    if name in LONG_CYCLES:
        assert len(Q) == g.n // 2 + 1


def _gram_defect(rows):
    return np.max(np.abs(rows @ rows.T - np.eye(len(rows))))


def _random_4_regular(n, seed):
    """The union of two random permutations of range(n) and their inverses, drawn again until
    it has no loop and no repeated edge: a graph with no scheme structure."""
    rng = np.random.default_rng(seed)
    while True:
        p, q = rng.permutation(n), rng.permutation(n)
        neighbours = np.stack((p, np.argsort(p), q, np.argsort(q)), axis=1)
        ordered = np.sort(neighbours, axis=1)
        loops = np.any(neighbours == np.arange(n)[:, None])
        if not loops and np.all(ordered[:, 1:] > ordered[:, :-1]):
            return oracle.VertexGraph(neighbours)


def test_a_basis_that_lost_orthogonality_is_rebuilt():
    # Random graphs fill all of R^n, and the cheap run loses orthogonality on them: on n = 50
    # its Gram defect is of order 1, on n = 200 ghost Ritz values make coincident atoms.
    small, large = _random_4_regular(50, 1), _random_4_regular(200, 1)
    Q, jc = oracle._lanczos(small, every_step=False)
    assert _gram_defect((Q.T @ jc.eigh[1]).T) > ORACLE_ORTHONORMALITY_TOL
    with pytest.raises(DegenerateAtoms):
        oracle._lanczos(large, every_step=False)[1].eigh
    for g in (small, large):
        g.validate()
        ortho, resid = oracle.eigensolver_residuals(g)
        assert ortho < ORACLE_ORTHONORMALITY_TOL and resid < ORACLE_EIGEN_RESIDUAL_TOL
        assert g.eigh[0].size == g.n
        assert np.max(np.abs(oracle.exact_walk(g, TIMES) - _dense_walk(g, TIMES))) < 1e-12


def test_a_rebuild_releases_the_cheap_run_first(monkeypatch):
    # With a bound no run meets, C_1200 is rebuilt: the cheap run's m x n Ritz vectors must be
    # gone before the rebuild reserves its (n + 1) x n basis, so the bound above still holds.
    monkeypatch.setattr(oracle, "ORACLE_ORTHONORMALITY_TOL", -1.0)
    g = oracle.cycle_graph(1200)
    tracemalloc.start()
    try:
        evals, vecs = g.eigh
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vecs.shape == (1200, 601) and g.gram_defect < ORACLE_ORTHONORMALITY_TOL
    assert peak < 1.25 * (g.n + 1) * g.n * 8


def test_neighbour_sum_matches_the_adjacency_product():
    # D_700 has degree 350, so a vector and an m-row block both take several chunks of
    # neighbour columns; integer entries make every order of summation exact.
    g = _group_graph("dihedral", 350)()
    A, rng = g.adjacency.astype(float), np.random.default_rng(0)
    for shape in (g.n, (g.eigh[0].size, g.n)):
        x = rng.integers(-9, 10, shape).astype(float)
        assert g.neighbours.shape[1] > oracle.NEIGHBOUR_CHUNK // x.size
        out = oracle._neighbour_sum(g.neighbours.T, x, np.empty_like(x))
        np.testing.assert_array_equal(out, (A @ x.T).T)


class _GatherSizes(np.ndarray):
    """An array whose ``take`` records the size of every gather made from it."""

    sizes: list = []

    def take(self, *args, **kwargs):
        result = super().take(*args, **kwargs)
        _GatherSizes.sizes.append(result.size)
        return result


@pytest.mark.parametrize("chunk", [30, 97, 389])
def test_neighbour_sum_keeps_its_chunk_bound_on_a_block_of_vectors(monkeypatch, chunk):
    # A 13 x 30 block on K_30 is over each chunk, so it goes in blocks of 1, 3 and 12 rows,
    # each summing its 29 neighbours one column a gather, in the order of one whole gather.
    g = oracle.complete_graph(30)
    x = np.random.default_rng(1).standard_normal((13, g.n))
    monkeypatch.setattr(oracle, "NEIGHBOUR_CHUNK", 10**9)
    whole = oracle._neighbour_sum(g.neighbours.T, x, np.empty_like(x))
    monkeypatch.setattr(oracle, "NEIGHBOUR_CHUNK", chunk)
    _GatherSizes.sizes = []
    out = oracle._neighbour_sum(g.neighbours.T, x.view(_GatherSizes), np.empty_like(x))
    assert x.size > chunk and len(_GatherSizes.sizes) > 29 and max(_GatherSizes.sizes) <= chunk
    np.testing.assert_array_equal(out, whole)
    np.testing.assert_allclose(out, x @ g.adjacency.T, rtol=0, atol=1e-13)


def _lanczos_basis(g, steps):
    """Rows q_0 .. q_{steps-1} of the root's Lanczos basis and the next residual vector."""
    A = g.adjacency.astype(float)
    Q = np.eye(g.n)[[0]]
    for _ in range(steps):
        w = A @ Q[-1]
        w -= Q.T @ (Q @ w)
        w -= Q.T @ (Q @ w)
        Q = np.vstack((Q, w / np.linalg.norm(w)))
    return Q[:-1], w


@pytest.mark.parametrize("name", ["C12", "petersen", "J7_3", "H4_3", "S5", "prism5"])
def test_a_basis_cut_short_fails_the_residual_row(name):
    g = KRYLOV_GRAPHS[name]()
    m = g.eigh[0].size
    Q, w = _lanczos_basis(g, m - 1)  # one step early: q_{m-1} is left out
    beta = np.linalg.norm(w)
    H = Q @ g.adjacency @ Q.T
    theta, V = np.linalg.eigh((H + H.T) / 2)
    W = Q.T @ V
    g.__dict__["eigh"] = (theta, W)
    _, resid = oracle.eigensolver_residuals(g)
    # W is orthonormal, so only the residual row catches the missing vector: A W - W Theta is the
    # rank-one beta q_{m-1} V[-1], whose largest entry is beta max|q_{m-1}| max|V[-1]|, and a unit
    # row of m-1 entries has one >= 1/sqrt(m-1).
    assert _gram_defect(W.T) < 1e-13
    assert resid >= beta * np.max(np.abs(w / beta)) / np.sqrt(m - 1) * (1 - 1e-12)
    assert resid > 1e-8  # the verify threshold


@pytest.mark.parametrize("builder", ["petersen", "c9", "k2"])
def test_stratum_uniformity(builder):
    if builder == "petersen":
        g = oracle.petersen_graph()
    elif builder == "c9":
        g = oracle.cycle_graph(9)
    else:
        g = oracle.complete_graph(2)
    partition, _ = oracle.bfs_strata(g)
    assert oracle.check_stratum_uniformity(g, partition.strata, TIMES) < 1e-10


def test_quantum_decomposition_identities():
    g = oracle.petersen_graph()
    partition, ia = oracle.bfs_strata(g)
    a_plus, a_minus, a_zero = oracle.quantum_decomposition(g, partition.strata)
    assert np.array_equal(a_plus + a_minus + a_zero, g.adjacency)
    assert np.array_equal(a_minus.T, a_plus)
    assert np.array_equal(a_zero.T, a_zero)
    # stratum-diagonal support only
    for beta in range(g.n):
        for gamma in np.nonzero(a_zero[beta])[0]:
            assert partition.strata[beta] == partition.strata[gamma]
    # raising action on stratum 1: sqrt(omega_2) = sqrt(2)
    phi1 = np.zeros(g.n)
    phi1[partition.strata == 1] = 1.0 / math.sqrt(3)
    phi2 = np.zeros(g.n)
    phi2[partition.strata == 2] = 1.0 / math.sqrt(6)
    assert np.max(np.abs(a_plus @ phi1 - math.sqrt(2) * phi2)) < 1e-12


def test_quantum_decomposition_c7_diagonal():
    g = oracle.cycle_graph(7)
    partition, ia = oracle.bfs_strata(g)
    _, _, a_zero = oracle.quantum_decomposition(g, partition.strata)
    jc = jacobi_from_intersection(ia)
    assert jc.alpha == (0.0, 0.0, 0.0, 1.0)
    for k in range(ia.d + 1):
        stratum = partition.strata == k
        phi = np.zeros(g.n)
        phi[stratum] = 1.0 / math.sqrt(stratum.sum())
        assert np.max(np.abs(a_zero @ phi - jc.alpha[k] * phi)) < 1e-12


@pytest.mark.parametrize(
    "graph_factory",
    [
        oracle.petersen_graph,
        lambda: oracle.cycle_graph(7),
        lambda: oracle.johnson_graph(5, 2),
        lambda: oracle.hamming_graph(2, 3),
    ],
)
def test_ladder_actions(graph_factory):
    g = graph_factory()
    partition, ia = oracle.bfs_strata(g)
    assert oracle.ladder_residual(g, partition, ia) < 1e-10


@pytest.mark.parametrize(
    "graph_factory",
    [
        lambda: oracle.complete_graph(6),
        lambda: oracle.cycle_graph(7),
        lambda: oracle.cycle_graph(8),
        oracle.petersen_graph,
        lambda: oracle.johnson_graph(5, 2),
        lambda: oracle.johnson_graph(6, 3),
        lambda: oracle.hamming_graph(2, 3),
        lambda: oracle.hamming_graph(3, 2),
        lambda: oracle.cayley_graph(GroupDescriptor("symmetric", 3)),
        lambda: oracle.cayley_graph(GroupDescriptor("dihedral", 5)),
    ],
)
def test_full_pipeline_reproduces_exact_walk(graph_factory):
    g = graph_factory()
    partition, ia = oracle.bfs_strata(g)
    exact = oracle.stratum_amplitudes(g, partition.strata, TIMES)
    series = jacobi_spectrum(ia).amplitudes(TIMES)
    assert np.max(np.abs(exact - series.amplitudes)) < 1e-8
    assert oracle.check_stratum_uniformity(g, partition.strata, TIMES) < 1e-9


@pytest.mark.parametrize("kind,n", [("symmetric", 4), ("symmetric", 5), ("dihedral", 6), ("cyclic", 6)])
def test_cayley_class_strata_match_character_engine(kind, n):
    descriptor = GroupDescriptor(kind, n)
    scheme = walk_scheme(descriptor)
    g = oracle.build_graph(FromGroup(descriptor))
    exact = oracle.stratum_amplitudes(g, g.strata, TIMES)
    series = eigen_spectrum(scheme).amplitudes(TIMES)
    assert np.max(np.abs(exact - series.amplitudes)) < 1e-8
    assert oracle.check_stratum_uniformity(g, g.strata, TIMES) < 1e-9


def _projections_by_loop(g, times):
    """Stratum amplitudes and the largest within-stratum spread, one stratum at a time."""
    amps = oracle.exact_walk(g, times)
    exact, spread = [], 0.0
    for k in range(int(g.strata.max()) + 1):
        members = np.flatnonzero(g.strata == k)
        exact.append(amps[:, members].sum(axis=1) / math.sqrt(len(members)))
        spread = max(spread, float(np.max(np.abs(amps[:, members] - amps[:, members[:1]]))))
    return np.stack(exact, axis=1), spread


@pytest.mark.parametrize(
    "descriptor,generating,sizes",
    [
        (GroupDescriptor("dihedral", 6), 1, [1, 6, 1, 2, 2]),  # D_12: both reflection classes
        (GroupDescriptor("symmetric", 4), 2, [1, 6, 3, 8, 6]),
    ],
)
def test_label_projections_match_a_stratum_loop(descriptor, generating, sizes):
    g = oracle.build_graph(FromGroup(descriptor, generating))
    assert np.bincount(g.strata).tolist() == sizes
    exact, spread = _projections_by_loop(g, TIMES)
    assert np.max(np.abs(oracle.stratum_amplitudes(g, g.strata, TIMES) - exact)) < 1e-14
    assert oracle.check_stratum_uniformity(g, g.strata, TIMES) == pytest.approx(spread, abs=1e-15)


def test_build_graph_dispatch():
    assert oracle.build_graph(FromCatalog("petersen")).n == 10
    assert oracle.build_graph(FromCatalog("hamming", (2, 3))).n == 9
    assert oracle.build_graph(ProductScheme(3, 2)).n == 9
    with pytest.raises(EngineSpecMismatch):
        oracle.build_graph(FromCatalog("m22"))


@pytest.mark.parametrize("m,generating", [(8, 2), (8, 3), (10, 3), (12, 5), (7, 2)])
def test_cayley_graph_generated_by_a_walk_scheme_stratum(m, generating):
    descriptor = GroupDescriptor("dihedral", m)
    spec = FromGroup(descriptor, generating)
    scheme = walk_scheme(descriptor, generating)
    g = oracle.build_graph(spec)
    assert g.adjacency.sum(axis=1)[0] == scheme.valencies.a[generating]
    exact = oracle.stratum_amplitudes(g, g.strata, TIMES)
    series = eigen_spectrum(scheme).amplitudes(TIMES)
    assert np.max(np.abs(exact - series.amplitudes)) < 1e-8


def test_build_graph_rejects_classes_out_of_range():
    for generating in (0, 5):
        with pytest.raises(BadParams):
            oracle.build_graph(FromGroup(GroupDescriptor("dihedral", 6), generating))


def test_size_cap_precedes_enumeration(monkeypatch):
    def enumerate_nothing(*args, **kwargs):
        raise AssertionError("vertices enumerated before the size check")

    monkeypatch.setattr(oracle, "combinations", enumerate_nothing)
    monkeypatch.setattr(groups, "permutations", enumerate_nothing)
    for build, args in [
        (oracle.hamming_graph, (12, 2)),
        (oracle.johnson_graph, (14, 7)),
        (oracle.kneser_graph, (14, 7)),
        (oracle.cayley_graph, (GroupDescriptor("symmetric", 7),)),
    ]:
        with pytest.raises(TooLarge):
            build(*args)


def test_oracle_never_reads_the_adjacency_matrix(monkeypatch):
    g = oracle.hamming_graph(3, 3)

    def dense(self):
        raise AssertionError("the oracle read the n x n adjacency matrix")

    monkeypatch.setattr(oracle.VertexGraph, "adjacency", property(dense))
    g.validate()
    partition, ia = oracle.bfs_strata(g)
    assert oracle.ladder_residual(g, partition, ia) < 1e-13
    ortho, resid = oracle.eigensolver_residuals(g)
    assert max(ortho, resid) < 1e-13
    amps = oracle.exact_walk(g, TIMES)
    series = jacobi_spectrum(ia).amplitudes(TIMES).amplitudes
    exact = oracle.stratum_amplitudes(g, partition.strata, TIMES, amps)
    assert np.max(np.abs(exact - series)) < 1e-12
    assert oracle.check_stratum_uniformity(g, partition.strata, TIMES, amps) < 1e-13
    assert not g.neighbours.flags.writeable


def test_vertex_graph_validation():
    for lists, message in [
        ([[1, 2], [0, 1], [0, 1]], "self-loop"),
        ([[1, 1], [0, 0]], "distinct"),
        ([[1], [2], [0]], "undirected"),  # the directed triangle 0 -> 1 -> 2 -> 0
        ([[1], [0], [3], [2]], "connected"),
        ([[1], [2]], "vertex indices"),
    ]:
        bad = oracle.VertexGraph(np.array(lists))
        with pytest.raises(BadParams, match=message):
            bad.validate()
    _prism(5).validate()


# Pair-loop references: every builder must produce exactly these graphs.


def _pair_loop(n, adjacent):
    A = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if i != j and adjacent(i, j):
                A[i, j] = 1
    return A


def _assert_same_graph(g, A, strata=None):
    assert g.adjacency.dtype == np.int64
    assert np.array_equal(g.adjacency, A)
    if strata is None:
        assert g.strata is None
    else:
        assert np.array_equal(g.strata, strata)


@pytest.mark.parametrize("n", range(3, 13))
def test_cycle_builder_matches_pair_loop(n):
    A = _pair_loop(n, lambda i, j: (i - j) % n in (1, n - 1))
    _assert_same_graph(oracle.cycle_graph(n), A)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_complete_builder_matches_pair_loop(n):
    A = _pair_loop(n, lambda i, j: True)
    _assert_same_graph(oracle.complete_graph(n), A)


@pytest.mark.parametrize("v,k", [(4, 1), (5, 2), (6, 3), (7, 3), (8, 2), (9, 4)])
def test_subset_builders_match_pair_loop(v, k):
    subsets = [set(s) for s in itertools.combinations(range(v), k)]
    johnson = _pair_loop(len(subsets), lambda i, j: len(subsets[i] & subsets[j]) == k - 1)
    _assert_same_graph(oracle.johnson_graph(v, k), johnson)
    kneser = _pair_loop(len(subsets), lambda i, j: not subsets[i] & subsets[j])
    _assert_same_graph(oracle.kneser_graph(v, k), kneser)


@pytest.mark.parametrize("d,q", [(1, 2), (1, 5), (2, 3), (3, 2), (3, 4), (4, 3), (6, 2)])
def test_hamming_builder_matches_pair_loop(d, q):
    words = list(itertools.product(range(q), repeat=d))
    A = _pair_loop(
        len(words), lambda i, j: sum(a != b for a, b in zip(words[i], words[j])) == 1
    )
    _assert_same_graph(oracle.hamming_graph(d, q), A)


@pytest.mark.parametrize(
    "kind,n",
    [
        ("cyclic", 5),
        ("cyclic", 8),
        ("dihedral", 5),
        ("dihedral", 7),
        ("dihedral", 6),
        ("dihedral", 8),
        ("symmetric", 3),
        ("symmetric", 4),
        ("symmetric", 5),
    ],
)
def test_cayley_builder_matches_pair_loop(kind, n):
    descriptor = GroupDescriptor(kind, n)
    group = ReferenceGroup(descriptor)
    size = len(group.elements)
    inverses = [inverse(group, x) for x in group.elements]
    strata = np.array([group.stratum(x) for x in group.elements])
    for generating in range(1, int(strata.max()) + 1):
        connection = {x for x, s in zip(group.elements, strata) if s == generating}
        connection |= {inverse(group, x) for x in connection}
        A = _pair_loop(
            size,
            lambda i, j: group.mul(inverses[i], group.elements[j]) in connection,
        )
        g = oracle.cayley_graph(descriptor, generating)
        _assert_same_graph(g, A, strata)


# Edge cases within the cap: one-point subsets of 100 points (K_100), the
# largest alphabet, subsets past half the points, K_1 and the 45 double
# transpositions of S_6.


def _row_loop(n, adjacent_row):
    """Pair-loop reference one row at a time: adjacent_row(i) flags each j adjacent to i."""
    return np.array([adjacent_row(i) for i in range(n)], dtype=np.int64).reshape(n, n)


def _incidence(v, k):
    """0/1 rows marking the k-subsets of range(v), in lexicographic order."""
    incidence = np.zeros((math.comb(v, k), v), dtype=bool)
    for row, subset in zip(incidence, itertools.combinations(range(v), k)):
        row[list(subset)] = True
    return incidence


@pytest.mark.parametrize("v,k", [(100, 1), (63, 2), (13, 6), (16, 4), (9, 6), (8, 7), (5, 5)])
def test_johnson_builder_matches_pair_rows_at_the_edges(v, k):
    incidence = _incidence(v, k)
    A = _row_loop(len(incidence), lambda i: (incidence & incidence[i]).sum(axis=1) == k - 1)
    g = oracle.johnson_graph(v, k)
    g.validate()
    assert np.array_equal(g.adjacency, A)
    _, ia = oracle.bfs_strata(g)
    assert ia.d == min(k, v - k)


@pytest.mark.parametrize("v,k", [(9, 3), (10, 5), (12, 2), (5, 3), (4, 0)])
def test_kneser_builder_matches_pair_rows(v, k):
    incidence = _incidence(v, k)
    A = _row_loop(len(incidence), lambda i: ~(incidence & incidence[i]).any(axis=1))
    if k == 0:
        A[0, 0] = 0  # the empty set is disjoint from itself, but no loop is drawn
    assert np.array_equal(oracle.kneser_graph(v, k).adjacency, A)


def test_hamming_builder_on_the_largest_alphabet():
    g = oracle.hamming_graph(1, 1500)
    g.validate()
    words = np.arange(1500)[:, None]
    assert np.array_equal(g.adjacency, _row_loop(1500, lambda i: (words != words[i]).sum(axis=1) == 1))
    assert oracle.bfs_strata(g)[1] == IntersectionArray(d=1, c=(1499,), b=(1,))


def test_complete_graph_on_one_vertex():
    g = oracle.complete_graph(1)
    g.validate()
    assert g.neighbours.shape == (1, 0)
    assert g.adjacency.tolist() == [[0]]
    partition, ia = oracle.bfs_strata(g)
    assert partition.strata.tolist() == [0] and ia.d == 0
    assert np.allclose(oracle.exact_walk(g, TIMES), 1.0)


def test_cayley_builder_on_a_large_s6_class_matches_right_multiplication():
    descriptor = GroupDescriptor("symmetric", 6)
    group = ReferenceGroup(descriptor)
    index = {x: i for i, x in enumerate(group.elements)}
    connection = [x for x in group.elements if group.stratum(x) == 2]
    A = np.zeros((720, 720), dtype=np.int64)
    for i, x in enumerate(group.elements):
        for y in connection:  # x^-1 z = y, so z = x y
            A[i, index[group.mul(x, y)]] = 1
    g = oracle.cayley_graph(descriptor, 2)
    assert np.array_equal(g.adjacency, A)
    with pytest.raises(NotDistanceRegular, match="disconnected"):  # even class: A_6 and its coset
        oracle.bfs_strata(g)


def test_cycle_builder_needs_three_vertices():
    with pytest.raises(BadParams):
        oracle.cycle_graph(2)


def _ladder_loop(g, partition, ia):
    """Stratum-by-stratum ladder check written from A+, A- and A0."""
    jc = jacobi_from_intersection(ia)
    a_plus, a_minus, a_zero = oracle.quantum_decomposition(g, partition.strata)
    phis = np.zeros((ia.d + 1, g.n))
    for k in range(ia.d + 1):
        stratum = partition.strata == k
        phis[k, stratum] = 1.0 / np.sqrt(stratum.sum())
    worst = 0.0
    for k in range(ia.d + 1):
        up = np.sqrt(jc.omega[k]) * phis[k + 1] if k < ia.d else 0.0
        down = np.sqrt(jc.omega[k - 1]) * phis[k - 1] if k > 0 else 0.0
        for part, target in (
            (a_plus, up),
            (a_minus, down),
            (a_zero, jc.alpha[k] * phis[k]),
        ):
            worst = max(worst, float(np.max(np.abs(part @ phis[k] - target))))
    return worst


def test_ladder_residual_matches_decomposition_loop():
    # The BFS partition of a distance-regular graph: both read rounding only.
    graphs = (oracle.johnson_graph(7, 3), oracle.hamming_graph(3, 3), oracle.complete_graph(40))
    for g in graphs:
        partition, ia = oracle.bfs_strata(g)
        assert oracle.ladder_residual(g, partition, ia) < 1e-13
        assert _ladder_loop(g, partition, ia) < 1e-13
        # a hand-built partition recounts the neighbours that bfs_strata kept
        labels_only = oracle.DistancePartition(partition.strata.copy())
        residual = oracle.ladder_residual(g, labels_only, ia)
        assert residual == oracle.ladder_residual(g, partition, ia)
    # A relabelled C_8 partition puts the edge 5-6 two strata apart, which the
    # decomposition drops; the residual is then of order one and must agree.
    g = oracle.cycle_graph(8)
    partition = oracle.DistancePartition(np.array([0, 1, 2, 3, 4, 3, 1, 2]))
    ia = IntersectionArray(d=4, c=(2, 1, 1, 1), b=(1, 1, 1, 2))
    expected = _ladder_loop(g, partition, ia)
    assert expected > 0.1
    assert oracle.ladder_residual(g, partition, ia) == pytest.approx(expected, abs=1e-14)


def test_bfs_strata_names_the_first_uneven_stratum():
    # A cubic graph rooted at 0.  In stratum 1 = {1, 2, 6}, vertices 1 and 6
    # are adjacent, so they have one neighbour further out and 2 has two; in
    # stratum 2 = {3, 4, 8}, vertex 3 has two neighbours back and 4 has one.
    edges = [(0, 1), (0, 2), (0, 6), (1, 3), (1, 6), (2, 3), (2, 8), (3, 8),
             (4, 5), (4, 6), (4, 9), (5, 7), (5, 9), (7, 8), (7, 9)]
    g = _from_edges(10, edges)
    g.validate()
    with pytest.raises(NotDistanceRegular, match="stratum 1 "):
        oracle.bfs_strata(g)


@pytest.mark.parametrize(
    "graph_factory",
    [
        lambda: oracle.complete_graph(9),
        lambda: oracle.cycle_graph(200),
        lambda: oracle.kneser_graph(7, 3),
        oracle.petersen_graph,
        lambda: oracle.johnson_graph(8, 3),
        lambda: oracle.hamming_graph(6, 3),
        lambda: oracle.cayley_graph(GroupDescriptor("cyclic", 12), 3),
        lambda: oracle.cayley_graph(GroupDescriptor("dihedral", 8), 3),
        lambda: oracle.cayley_graph(GroupDescriptor("symmetric", 5)),
    ],
)
def test_neighbour_counts_equal_the_integer_product(graph_factory):
    # bfs_strata and ladder_residual count each vertex's neighbours one stratum
    # back, in its own stratum and one stratum out; A @ onehot counts them all.
    g = graph_factory()
    distances = oracle._bfs_distances(g.neighbours, 0)
    d = int(distances.max())
    onehot = distances[:, None] == np.arange(-1, d + 2)
    product = g.adjacency @ onehot.astype(np.int64)  # column s + 1: neighbours at distance s
    counts = oracle._stratum_counts(g, distances)
    for j in range(3):
        assert np.array_equal(counts[j], product[np.arange(g.n), distances + j])
