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
from schemewalk.groups import walk_scheme
from schemewalk.schemes import (
    FromCatalog,
    FromGroup,
    GroupDescriptor,
    IntersectionArray,
    ProductScheme,
)
from schemewalk.spectral import golub_welsch, jacobi_from_intersection
from schemewalk.walk import amplitudes_group, amplitudes_spectral

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
    jc = jacobi_from_intersection(ia)
    series = amplitudes_spectral(golub_welsch(jc), jc, ia, TIMES)
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
    series = amplitudes_group(scheme, scheme.generating, TIMES)
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
    series = amplitudes_group(scheme, scheme.generating, TIMES)
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
