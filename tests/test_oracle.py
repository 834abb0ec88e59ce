import itertools
import math

import numpy as np
import pytest

from schemewalk import oracle
from schemewalk.errors import (
    BadParams,
    EngineSpecMismatch,
    NonSymmetricGeneratingSet,
    NotDistanceRegular,
    TooLarge,
)
from schemewalk.groups import class_groups, group_elements, walk_scheme
from schemewalk.schemes import (
    FromCatalog,
    FromGroup,
    GroupDescriptor,
    IntersectionArray,
    ProductScheme,
)
from schemewalk.spectral import jacobi_from_intersection
from schemewalk.walk import eigen_spectrum, jacobi_spectrum

TIMES = np.linspace(0.0, 20.0, 64)


def test_petersen_builder():
    g = oracle.petersen_graph()
    g.validate()
    assert g.n == 10
    assert np.all(g.adjacency.sum(axis=1) == 3)
    partition, ia = oracle.bfs_strata(g)
    assert ia == IntersectionArray(d=2, c=(3, 2), b=(1, 1))
    assert partition.sizes == (1, 3, 6)


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
    g = oracle.cayley_graph(GroupDescriptor("cyclic", 7), (1,))
    g.validate()
    _, ia = oracle.bfs_strata(g)
    assert ia == IntersectionArray(d=3, c=(2, 1, 1), b=(1, 1, 1))


def test_cayley_rejects_identity_class():
    with pytest.raises(NonSymmetricGeneratingSet):
        oracle.cayley_graph(GroupDescriptor("cyclic", 7), (0,))


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
    a_plus, a_minus, a_zero = oracle.quantum_decomposition(g, partition.distances)
    assert np.array_equal(a_plus + a_minus + a_zero, g.adjacency)
    assert np.array_equal(a_minus.T, a_plus)
    assert np.array_equal(a_zero.T, a_zero)
    # stratum-diagonal support only
    for beta in range(g.n):
        for gamma in np.nonzero(a_zero[beta])[0]:
            assert partition.distances[beta] == partition.distances[gamma]
    # raising action on stratum 1: sqrt(omega_2) = sqrt(2)
    phi1 = np.zeros(g.n)
    phi1[list(partition.strata[1])] = 1.0 / math.sqrt(3)
    phi2 = np.zeros(g.n)
    phi2[list(partition.strata[2])] = 1.0 / math.sqrt(6)
    assert np.max(np.abs(a_plus @ phi1 - math.sqrt(2) * phi2)) < 1e-12


def test_quantum_decomposition_c7_diagonal():
    g = oracle.cycle_graph(7)
    partition, ia = oracle.bfs_strata(g)
    _, _, a_zero = oracle.quantum_decomposition(g, partition.distances)
    jc = jacobi_from_intersection(ia)
    assert jc.alpha == (0.0, 0.0, 0.0, 1.0)
    for k, stratum in enumerate(partition.strata):
        phi = np.zeros(g.n)
        phi[list(stratum)] = 1.0 / math.sqrt(len(stratum))
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
    strata = tuple(
        tuple(v for c in grp for v in g.class_partition[c])
        for grp in scheme.class_groups
    )
    exact = oracle.stratum_amplitudes(g, strata, TIMES)
    series = eigen_spectrum(scheme.eigenstructure, scheme.generating).amplitudes(TIMES)
    assert np.max(np.abs(exact - series.amplitudes)) < 1e-8
    assert oracle.check_stratum_uniformity(g, strata, TIMES) < 1e-9


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
    assert g.adjacency.sum(axis=1)[0] == scheme.eigenstructure.valencies.a[generating]
    strata = tuple(
        tuple(v for c in grp for v in g.class_partition[c]) for grp in scheme.class_groups
    )
    exact = oracle.stratum_amplitudes(g, strata, TIMES)
    series = eigen_spectrum(scheme.eigenstructure, scheme.generating).amplitudes(TIMES)
    assert np.max(np.abs(exact - series.amplitudes)) < 1e-8


def test_build_graph_rejects_classes_out_of_range():
    for generating in (0, 5):
        with pytest.raises(BadParams):
            oracle.build_graph(FromGroup(GroupDescriptor("dihedral", 6), generating))


def test_size_cap_precedes_enumeration(monkeypatch):
    def enumerate_nothing(*args, **kwargs):
        raise AssertionError("vertices enumerated before the size check")

    monkeypatch.setattr(oracle, "product", enumerate_nothing)
    monkeypatch.setattr(oracle, "combinations", enumerate_nothing)
    for build, args in [
        (oracle.hamming_graph, (12, 2)),
        (oracle.johnson_graph, (14, 7)),
        (oracle.kneser_graph, (14, 7)),
    ]:
        with pytest.raises(TooLarge):
            build(*args)


def test_vertex_graph_validation():
    bad = oracle.VertexGraph(np.array([[0, 1], [0, 0]]), ("a", "b"))
    with pytest.raises(BadParams):
        bad.validate()


# Pair-loop references: every builder must produce exactly these graphs.


def _pair_loop(n, adjacent):
    A = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if i != j and adjacent(i, j):
                A[i, j] = 1
    return A


def _assert_same_graph(g, A, labels, partition=None):
    assert g.adjacency.dtype == np.int64
    assert np.array_equal(g.adjacency, A)
    assert g.labels == labels
    assert g.class_partition == partition


@pytest.mark.parametrize("n", range(3, 13))
def test_cycle_builder_matches_pair_loop(n):
    A = _pair_loop(n, lambda i, j: (i - j) % n in (1, n - 1))
    _assert_same_graph(oracle.cycle_graph(n), A, tuple(str(v) for v in range(n)))


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_complete_builder_matches_pair_loop(n):
    A = _pair_loop(n, lambda i, j: True)
    _assert_same_graph(oracle.complete_graph(n), A, tuple(str(v) for v in range(n)))


@pytest.mark.parametrize("v,k", [(4, 1), (5, 2), (6, 3), (7, 3), (8, 2), (9, 4)])
def test_subset_builders_match_pair_loop(v, k):
    subsets = [set(s) for s in itertools.combinations(range(v), k)]
    labels = tuple("".join(map(str, sorted(s))) for s in subsets)
    johnson = _pair_loop(len(subsets), lambda i, j: len(subsets[i] & subsets[j]) == k - 1)
    _assert_same_graph(oracle.johnson_graph(v, k), johnson, labels)
    kneser = _pair_loop(len(subsets), lambda i, j: not subsets[i] & subsets[j])
    _assert_same_graph(oracle.kneser_graph(v, k), kneser, labels)


@pytest.mark.parametrize("d,q", [(1, 2), (1, 5), (2, 3), (3, 2), (3, 4), (4, 3), (6, 2)])
def test_hamming_builder_matches_pair_loop(d, q):
    words = list(itertools.product(range(q), repeat=d))
    A = _pair_loop(
        len(words), lambda i, j: sum(a != b for a, b in zip(words[i], words[j])) == 1
    )
    labels = tuple("".join(map(str, w)) for w in words)
    _assert_same_graph(oracle.hamming_graph(d, q), A, labels)


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
    data = group_elements(descriptor)
    size = len(data.elements)
    partition = tuple(
        tuple(i for i, c in enumerate(data.class_of) if c == k)
        for k in range(max(data.class_of) + 1)
    )
    groups = class_groups(descriptor)
    for generating in range(1, len(groups)):
        connection = {
            data.elements[i] for c in groups[generating] for i in partition[c]
        }
        connection |= {data.inv(x) for x in connection}
        A = _pair_loop(
            size,
            lambda i, j: data.mul(data.inv(data.elements[i]), data.elements[j])
            in connection,
        )
        g = oracle.cayley_graph(descriptor, groups[generating])
        _assert_same_graph(g, A, data.labels, partition)


def _ladder_loop(g, partition, ia):
    """Stratum-by-stratum ladder check written from A+, A- and A0."""
    jc = jacobi_from_intersection(ia)
    a_plus, a_minus, a_zero = oracle.quantum_decomposition(g, partition.distances)
    phis = np.zeros((ia.d + 1, g.n))
    for k, stratum in enumerate(partition.strata):
        phis[k, list(stratum)] = 1.0 / np.sqrt(len(stratum))
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
    # A relabelled C_8 partition puts the edge 5-6 two strata apart, which the
    # decomposition drops; the residual is then of order one and must agree.
    g = oracle.cycle_graph(8)
    distances = np.array([0, 1, 2, 3, 4, 3, 1, 2])
    strata = tuple(tuple(np.flatnonzero(distances == k).tolist()) for k in range(5))
    partition = oracle.DistancePartition(strata, distances)
    ia = IntersectionArray(d=4, c=(2, 1, 1, 1), b=(1, 1, 1, 2))
    expected = _ladder_loop(g, partition, ia)
    assert expected > 0.1
    assert oracle.ladder_residual(g, partition, ia) == pytest.approx(expected, abs=1e-14)


def test_bfs_strata_names_the_first_uneven_stratum():
    # A tree rooted at 0: vertices 1 and 2 (stratum 1) have 2 and 0 children,
    # vertices 3 and 4 (stratum 2) have 1 and 0.
    A = np.zeros((6, 6), dtype=np.int64)
    for i, j in [(0, 1), (0, 2), (1, 3), (1, 4), (3, 5)]:
        A[i, j] = A[j, i] = 1
    with pytest.raises(NotDistanceRegular, match="stratum 1 "):
        oracle.bfs_strata(oracle.VertexGraph(A, tuple("abcdef")))
