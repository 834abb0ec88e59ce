import numpy as np
import pytest

from schemewalk.errors import (
    DegenerateAtoms,
    InvalidIntersectionArray,
    NonIntegerValency,
    NumericalInstability,
)
from schemewalk.schemes import (
    IntersectionArray,
    eigenstructure_from_array,
    validate_intersection_array,
)

PETERSEN = IntersectionArray(d=2, c=(3, 2), b=(1, 1))
C7 = IntersectionArray(d=3, c=(2, 1, 1), b=(1, 1, 1))


def complete_array(n):
    return IntersectionArray(d=1, c=(n - 1,), b=(1,))


@pytest.mark.parametrize(
    "ia,sizes,n",
    [
        (PETERSEN, (1, 3, 6), 10),
        (complete_array(5), (1, 4), 5),
        (C7, (1, 2, 2, 2), 7),
    ],
)
def test_stratum_sizes(ia, sizes, n):
    valencies = ia.strata
    assert valencies.a == sizes
    assert valencies.n == n


def test_stratum_sizes_reject_non_integer():
    with pytest.raises(NonIntegerValency):
        IntersectionArray(d=2, c=(2, 1), b=(1, 4)).strata


def test_validation_passes_petersen():
    assert validate_intersection_array(PETERSEN).ok


def test_validation_rejects_disconnected():
    report = validate_intersection_array(IntersectionArray(d=1, c=(0,), b=(1,)))
    assert not report.ok


def test_validation_rejects_degree_mismatch():
    report = validate_intersection_array(IntersectionArray(d=2, c=(3, 2), b=(2, 1)))
    assert not report.ok
    assert any("degree mismatch" in p for p in report.problems)


@pytest.mark.parametrize("c, b, distance", [((3, 3), (1, 1), 1), ((2, 1, 1), (1, 1, 3), 3)])
def test_validation_rejects_a_negative_intersection_number(c, b, distance):
    # k - c_i - b_i, the neighbours a vertex at distance i keeps at distance i, is negative.
    ia = IntersectionArray(d=len(c), c=c, b=b)
    report = validate_intersection_array(ia)
    assert not report.ok
    assert report.problems[0].startswith(f"a vertex at distance {distance} has ")
    with pytest.raises(InvalidIntersectionArray, match="over the degree"):
        ia.ensure_valid()


def test_validation_rejects_infeasible_multiplicities():
    # a_2 = 3 is integral here, but the eigenvalue multiplicities are not.
    report = validate_intersection_array(IntersectionArray(d=2, c=(3, 2), b=(1, 2)))
    assert not report.ok
    assert any("multiplicity" in p for p in report.problems)


def test_validation_lets_a_programming_error_through(monkeypatch):
    from schemewalk import spectral

    def broken(jc):
        raise RuntimeError("not a feasibility problem")

    monkeypatch.setattr(spectral, "golub_welsch", broken)
    with pytest.raises(RuntimeError):
        validate_intersection_array(PETERSEN)


def test_eigenstructure_petersen():
    es = eigenstructure_from_array(PETERSEN)
    assert np.allclose(es.P[:, 1], [3.0, 1.0, -2.0])
    assert np.allclose(es.m, [1.0, 5.0, 4.0])
    assert np.round(es.m).tolist() == [1, 5, 4]


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_eigenstructure_complete_vs_dense_eigendecomposition(n):
    es = eigenstructure_from_array(complete_array(n))
    dense = np.ones((n, n)) - np.eye(n)
    evals = np.linalg.eigvalsh(dense)
    assert np.allclose(sorted(es.P[:, 1]), sorted(set(np.round(evals, 9))))
    assert np.allclose(es.P[:, 1], [n - 1, -1])
    assert np.allclose(es.Q[:, 0], 1.0)


@pytest.mark.parametrize(
    "ia",
    [
        PETERSEN,
        C7,
        complete_array(6),
        IntersectionArray(d=4, c=(7, 6, 4, 4), b=(1, 1, 1, 6)),
        IntersectionArray(d=4, c=(5, 4, 1, 1), b=(1, 1, 4, 5)),
        IntersectionArray(d=8, c=(3, 2, 2, 2, 2, 1, 1, 1), b=(1, 1, 1, 1, 2, 2, 2, 3)),
    ],
)
def test_eigenstructure_identities(ia):
    es = eigenstructure_from_array(ia)
    n = es.n
    ident = n * np.eye(len(es.m))
    assert np.max(np.abs(es.P @ es.Q - ident)) < 1e-9
    assert np.max(np.abs(es.Q @ es.P - ident)) < 1e-9
    a = np.asarray(es.valencies.a, dtype=float)
    assert np.max(np.abs(es.m[:, None] * es.P - (a[:, None] * es.Q).T)) < 1e-9
    assert np.allclose(es.P[0], a)
    assert np.allclose(es.Q[0], es.m)
    assert abs(es.m.sum() - n) < 1e-9
    assert np.round(es.m).sum() == n
    assert np.max(np.abs(es.m - np.round(es.m))) < 1e-6


def test_bfs_sizes_match_derived_sizes_exactly():
    from schemewalk import oracle

    for graph, ia in [
        (oracle.petersen_graph(), PETERSEN),
        (oracle.cycle_graph(7), C7),
        (oracle.complete_graph(5), complete_array(5)),
        (oracle.hamming_graph(2, 3), IntersectionArray(d=2, c=(4, 2), b=(1, 2))),
    ]:
        partition, bfs_ia = oracle.bfs_strata(graph)
        assert bfs_ia == ia
        assert tuple(np.bincount(partition.strata).tolist()) == ia.strata.a


def test_degenerate_atoms_rejected():
    # A vanishing off-diagonal weight collapses two atoms onto each other.
    from schemewalk.spectral import JacobiCoefficients, golub_welsch

    with pytest.raises(DegenerateAtoms):
        golub_welsch(JacobiCoefficients(omega=(1e-22,), alpha=(0.0, 0.0)))


def test_structural_gate_raises():
    with pytest.raises(InvalidIntersectionArray):
        IntersectionArray(d=2, c=(3, 2), b=(2, 1)).ensure_valid()


def test_lost_precision_is_a_numerical_instability():
    # H(48,2) is a valid array, but P_lk = sqrt(a_k) U[k,l] / U[0,l] divides by
    # weights near 2^-24 and PQ misses nI by more than MATRIX_TOL * n.
    from schemewalk.catalog import hamming_intersection_array

    ia = hamming_intersection_array(48, 2)
    ia.ensure_valid()
    with pytest.raises(NumericalInstability, match="PQ != nI: defect .* > bound"):
        eigenstructure_from_array(ia)
