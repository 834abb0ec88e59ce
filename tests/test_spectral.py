import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schemewalk.errors import (
    BadParams,
    EigensolverNoConvergence,
    InfeasibleParameters,
)
from schemewalk.schemes import IntersectionArray, derive_stratum_sizes
from schemewalk.spectral import (
    JacobiCoefficients,
    continuous_line_distribution,
    evaluate_polynomials,
    golub_welsch,
    jacobi_from_intersection,
    meixner_distribution,
    srg_distribution,
    srg_intersection_array,
)
from schemewalk.tolerances import DEFAULT_TAIL_TOL

PETERSEN = IntersectionArray(d=2, c=(3, 2), b=(1, 1))
C7 = IntersectionArray(d=3, c=(2, 1, 1), b=(1, 1, 1))
M22 = IntersectionArray(d=4, c=(7, 6, 4, 4), b=(1, 1, 1, 6))


def test_jacobi_petersen():
    jc = jacobi_from_intersection(PETERSEN)
    assert jc.omega == (3.0, 2.0)
    assert jc.alpha == (0.0, 0.0, 2.0)
    # trace of the recurrence matrix equals the sum of the atoms
    assert sum(jc.alpha) == pytest.approx(3 + 1 - 2)


def test_jacobi_c7():
    jc = jacobi_from_intersection(C7)
    assert jc.omega == (2.0, 1.0, 1.0)
    assert jc.alpha == (0.0, 0.0, 0.0, 1.0)
    atoms = golub_welsch(jc).atoms
    expected = sorted(2.0 * math.cos(2.0 * math.pi * l / 7.0) for l in range(4))
    assert np.allclose(atoms, expected)


@pytest.mark.parametrize("n", [3, 5, 9])
def test_jacobi_complete(n):
    jc = jacobi_from_intersection(IntersectionArray(d=1, c=(n - 1,), b=(1,)))
    assert jc.omega == (float(n - 1),)
    assert jc.alpha == (0.0, float(n - 2))
    assert np.allclose(golub_welsch(jc).atoms, [-1.0, n - 1.0])


def test_golub_welsch_petersen():
    dist = golub_welsch(jacobi_from_intersection(PETERSEN))
    assert np.allclose(dist.atoms, [-2.0, 1.0, 3.0])
    assert np.allclose(dist.weights, [0.4, 0.5, 0.1], atol=1e-12)


def test_golub_welsch_m22():
    dist = golub_welsch(jacobi_from_intersection(M22))
    assert np.allclose(dist.atoms, [-4.0, -3.0, 1.0, 4.0, 7.0], atol=1e-9)
    assert np.allclose(
        dist.weights, [7 / 110, 3 / 10, 7 / 15, 1 / 6, 1 / 330], atol=1e-12
    )


def test_golub_welsch_single_atom():
    dist = golub_welsch(JacobiCoefficients(omega=(), alpha=(2.5,)))
    assert np.allclose(dist.atoms, [2.5])
    assert np.allclose(dist.weights, [1.0])


@given(
    st.lists(st.floats(-5, 5), min_size=1, max_size=7),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_golub_welsch_matches_dense_eigensolver(alpha, data):
    omega = data.draw(
        st.lists(
            st.floats(0.1, 9.0), min_size=len(alpha) - 1, max_size=len(alpha) - 1
        )
    )
    jc = JacobiCoefficients(omega=tuple(omega), alpha=tuple(alpha))
    size = len(alpha)
    dense = np.diag(alpha).astype(float)
    for k, w in enumerate(omega):
        dense[k, k + 1] = dense[k + 1, k] = math.sqrt(w)
    evals, vecs = np.linalg.eigh(dense)
    if size > 1 and np.min(np.diff(evals)) <= 1e-9:
        return  # the library rejects coincident atoms by design
    dist = golub_welsch(jc)
    assert np.max(np.abs(dist.atoms - evals)) < 1e-9
    assert np.max(np.abs(dist.weights - vecs[0] ** 2)) < 1e-9
    assert abs(dist.weights.sum() - 1.0) < 1e-12
    assert np.all(dist.weights > 0)


@pytest.mark.parametrize("ia", [PETERSEN, C7, M22])
def test_jacobi_eigh_diagonalizes_with_positive_first_row(ia):
    jc = jacobi_from_intersection(ia)
    atoms, U = jc.eigh
    off = np.sqrt(jc.omega)
    dense = np.diag(jc.alpha) + np.diag(off, 1) + np.diag(off, -1)
    assert np.all(np.diff(atoms) > 0)
    assert np.all(U[0] > 0)
    assert np.max(np.abs(U @ np.diag(atoms) @ U.T - dense)) < 1e-12
    assert np.max(np.abs(U.T @ U - np.eye(jc.d + 1))) < 1e-12


def test_jacobi_eigh_failure_is_a_solver_error(monkeypatch):
    def no_convergence(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    with pytest.raises(EigensolverNoConvergence):
        golub_welsch(jacobi_from_intersection(PETERSEN))


def test_each_recurrence_decomposes_once_into_read_only_arrays(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting(matrix):
        calls.append(matrix.shape)
        return eigh(matrix)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    first, second = jacobi_from_intersection(M22), jacobi_from_intersection(M22)
    assert first == second and first is not second
    atoms, U = first.eigh
    assert first.eigh is first.eigh
    golub_welsch(first)
    golub_welsch(second)
    assert second.eigh is not first.eigh
    assert calls == [(5, 5), (5, 5)]
    assert not atoms.flags.writeable and not U.flags.writeable
    with pytest.raises(ValueError):
        U[0, 0] = 1.0


@pytest.mark.parametrize(
    "ia",
    [
        PETERSEN,
        C7,
        M22,
        IntersectionArray(d=4, c=(2, 1, 1, 1), b=(1, 1, 1, 2)),
        IntersectionArray(d=60, c=tuple(60 - i for i in range(60)), b=tuple(range(1, 61))),
    ],
)
def test_recurrence_matches_the_per_index_formula(ia):
    def c(i):
        return 0 if i == ia.d else ia.c[i]

    def b(i):
        return 0 if i == 0 else ia.b[i - 1]

    omega = tuple(float(c(k - 1) * b(k)) for k in range(1, ia.d + 1))
    alpha = tuple(float(ia.degree - b(k - 1) - c(k - 1)) for k in range(1, ia.d + 2))
    jc = jacobi_from_intersection(ia)
    assert jc == JacobiCoefficients(omega, alpha)
    assert all(type(x) is float for x in jc.omega + jc.alpha)


def test_polynomials_accept_arrays():
    jc = jacobi_from_intersection(M22)
    xs = np.array([-4.0, 0.5, 7.0])
    table = evaluate_polynomials(jc, xs, 4)
    assert table.shape == (3, 5)
    for x, row in zip(xs, table):
        assert np.array_equal(row, evaluate_polynomials(jc, float(x), 4))


@pytest.mark.parametrize("ia", [PETERSEN, C7, M22])
def test_moments_match_walk_counts(ia):
    # The m-th moment of the measure equals the closed-walk count at the
    # origin, i.e. the (0,0) entry of the m-th recurrence-matrix power.
    jc = jacobi_from_intersection(ia)
    dist = golub_welsch(jc)
    size = jc.d + 1
    dense = np.diag(jc.alpha).astype(float)
    for k, w in enumerate(jc.omega):
        dense[k, k + 1] = dense[k + 1, k] = math.sqrt(w)
    power = np.eye(size)
    for m in range(2 * ia.d + 1):
        assert np.sum(dist.weights * dist.atoms**m) == pytest.approx(power[0, 0], abs=1e-8)
        power = power @ dense


@pytest.mark.parametrize("ia", [PETERSEN, C7, M22])
def test_polynomial_orthogonality(ia):
    jc = jacobi_from_intersection(ia)
    dist = golub_welsch(jc)
    d = ia.d
    values = np.array(
        [evaluate_polynomials(jc, float(x), d) for x in dist.atoms]
    )
    gram = values.T @ (dist.weights[:, None] * values)
    norms = np.cumprod((1.0,) + jc.omega)
    assert np.max(np.abs(gram - np.diag(norms))) < 1e-8


def test_polynomials_petersen_q2():
    jc = jacobi_from_intersection(PETERSEN)
    for x in (-2.0, 0.5, 3.0):
        q = evaluate_polynomials(jc, x, 2)
        assert q[2] == pytest.approx(x * x - 3.0)


def test_polynomials_chebyshev_on_cycle():
    jc = jacobi_from_intersection(C7)
    for theta in (0.3, 1.1, 2.0):
        q = evaluate_polynomials(jc, 2.0 * math.cos(theta), 3)
        for k in (1, 2, 3):
            assert q[k] == pytest.approx(2.0 * math.cos(k * theta), abs=1e-12)


def test_polynomial_root_of_q1():
    jc = jacobi_from_intersection(M22)
    assert evaluate_polynomials(jc, jc.alpha[0], 1)[1] == 0.0


def stieltjes(dist, z) -> complex:
    """The Cauchy transform sum_l w_l / (z - x_l) of a discrete measure."""
    return complex(np.sum(dist.weights / (z - dist.atoms)))


def test_stieltjes_single_atom():
    from schemewalk.spectral import DiscreteDistribution

    dist = DiscreteDistribution(np.array([0.0]), np.array([1.0]))
    assert stieltjes(dist, 2.0) == pytest.approx(0.5)


def test_stieltjes_petersen_value_and_tail():
    dist = golub_welsch(jacobi_from_intersection(PETERSEN))
    assert stieltjes(dist, 4.0) == pytest.approx(1.0 / 3.0)
    z = 1e6 + 0.0j
    assert z * stieltjes(dist, z) == pytest.approx(1.0, rel=1e-5)


@pytest.mark.parametrize("ia", [PETERSEN, C7, M22])
def test_stieltjes_equals_continued_fraction(ia):
    jc = jacobi_from_intersection(ia)
    dist = golub_welsch(jc)
    for z in (5.0 + 1.0j, -3.0 + 0.5j, 10.0 + 0.0j):
        value = complex(z) - jc.alpha[-1]
        for k in range(jc.d - 1, -1, -1):
            value = complex(z) - jc.alpha[k] - jc.omega[k] / value
        assert stieltjes(dist, z) == pytest.approx(1.0 / value, abs=1e-12)


def test_srg_petersen():
    dist = srg_distribution(10, 3, 0, 1)
    assert np.allclose(dist.atoms, [-2.0, 1.0, 3.0])
    assert np.allclose(dist.weights, [0.4, 0.5, 0.1], atol=1e-12)
    # spot value of the top-atom weight formula
    assert dist.weights[2] == pytest.approx(1.0 / (9 + 3 - 2))


@pytest.mark.parametrize("m", [3, 5, 7])
def test_srg_bipartite_family(m):
    dist = srg_distribution(2 * m, m, 0, m)
    assert np.allclose(dist.atoms, [-m, 0.0, m])
    assert np.allclose(dist.weights, [1 / (2 * m), (m - 1) / m, 1 / (2 * m)])


@pytest.mark.parametrize(
    "params", [(10, 3, 0, 1), (16, 5, 0, 2), (6, 3, 0, 3), (10, 5, 0, 5), (14, 7, 0, 7)]
)
def test_srg_matches_quadrature(params):
    n, kappa, lam, eta = params
    closed = srg_distribution(n, kappa, lam, eta)
    quad = golub_welsch(jacobi_from_intersection(srg_intersection_array(kappa, lam, eta)))
    assert np.max(np.abs(closed.atoms - quad.atoms)) < 1e-9
    assert np.max(np.abs(closed.weights - quad.weights)) < 1e-9


def test_srg_rejects_infeasible():
    with pytest.raises(InfeasibleParameters):
        srg_distribution(10, 3, 2, 1)  # c_1 = 0: second stratum unreachable
    with pytest.raises(InfeasibleParameters, match="need n = 10"):
        srg_distribution(11, 3, 0, 1)  # kappa, lambda and eta fix n = 10


def test_line_distribution_moments():
    dist = continuous_line_distribution(256)
    moments = [np.sum(dist.weights * dist.atoms**k) for k in range(5)]
    assert moments[0] == pytest.approx(1.0, abs=1e-12)
    assert moments[1] == pytest.approx(0.0, abs=1e-12)
    assert moments[2] == pytest.approx(2.0, abs=1e-10)
    assert moments[4] == pytest.approx(6.0, abs=1e-10)


def test_meixner_weights_geometric():
    atoms, weights = meixner_distribution(0.5)
    assert weights[1] / weights[0] == pytest.approx(1.0 / 3.0)
    assert atoms[0] == pytest.approx(-0.5 / math.sqrt(0.75))
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert 1.0 - weights.sum() < 1e-12


def _meixner_by_running_sum(p):
    """The truncation meixner_distribution made before its atom count was closed form:
    add weights until they sum to 1 - DEFAULT_TAIL_TOL."""
    scale, ratio, head = math.sqrt(p * (2 - p)), p / (2 - p), 2 * (1 - p) / (2 - p)
    atoms, weights, total = [], [], 0.0
    while total < 1.0 - DEFAULT_TAIL_TOL:
        atoms.append((-p + 2.0 * (1.0 - p) * len(atoms)) / scale)
        weights.append(head * ratio ** len(weights))
        total += weights[-1]
    return np.asarray(atoms), np.asarray(weights)


@pytest.mark.parametrize("p", [1e-300, 1e-6, 0.01, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 0.995, 0.999])
def test_meixner_count_is_the_first_whose_tail_is_below_the_tolerance(p):
    atoms, weights = meixner_distribution(p)
    ratio = p / (2 - p)
    assert ratio ** len(atoms) <= DEFAULT_TAIL_TOL and (
        len(atoms) == 1 or ratio ** (len(atoms) - 1) > DEFAULT_TAIL_TOL)
    # The running sum agrees up to p = 0.99; past it its rounding drifts (2763 against
    # 2764 atoms at p = 0.995, 13799 against 13816 at 0.999).  Shared atoms are bit-equal.
    loop_atoms, loop_weights = _meixner_by_running_sum(p)
    assert len(atoms) == len(loop_atoms) if p <= 0.99 else len(atoms) > len(loop_atoms)
    shared = min(len(atoms), len(loop_atoms))
    np.testing.assert_array_equal(atoms[:shared], loop_atoms[:shared])
    np.testing.assert_array_equal(weights[:shared], loop_weights[:shared])


def test_meixner_near_one_takes_a_million_atoms_without_a_loop():
    p = 0.99999
    atoms, weights = meixner_distribution(p)
    ratio = p / (2 - p)
    assert len(atoms) == math.ceil(math.log(DEFAULT_TAIL_TOL) / math.log(ratio)) > 10**6
    assert weights[1] / weights[0] == pytest.approx(ratio, rel=1e-15)
    assert 0 < 1 - weights.sum() < DEFAULT_TAIL_TOL + len(atoms) * np.finfo(float).eps


def test_meixner_past_the_atom_cap_raises_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(BadParams, match="truncation did not converge"):
            meixner_distribution(0.999999)  # about 1.4e7 atoms
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("p", [0.0, 1.0, 1.5, -0.2])
def test_meixner_rejects_bad_parameter(p):
    with pytest.raises(BadParams):
        meixner_distribution(p)


def test_golub_welsch_large_chebyshev_case():
    # 41 atoms of the truncated infinite-path recurrence, against the dense solver.
    from schemewalk.walk import line_jacobi

    jc = line_jacobi(40)
    size = jc.d + 1
    dense = np.zeros((size, size))
    for k, w in enumerate(jc.omega):
        dense[k, k + 1] = dense[k + 1, k] = math.sqrt(w)
    evals, vecs = np.linalg.eigh(dense)
    dist = golub_welsch(jc)
    assert np.max(np.abs(dist.atoms - evals)) < 1e-12
    assert np.max(np.abs(dist.weights - vecs[0] ** 2)) < 1e-12


def test_catalog_arrays_pass_feasibility_validation():
    from schemewalk.catalog import catalog
    from schemewalk.schemes import validate_intersection_array

    trusted = [
        ("petersen", ()),
        ("m22", ()),
        ("wells", ()),
        ("foster", ()),
        ("three_cover_gq22", ()),
        ("double_hoffman_singleton", ()),
        ("doubly_truncated_binary_golay", ()),
        ("extended_ternary_golay", ()),
        ("incidence_pg", (5,)),
        ("gen_dodecagon", (2,)),
        ("cycle", (8,)),
        ("complete", (5,)),
        ("hamming", (3, 3)),
        ("johnson", (7, 3)),
        # m_7 = 73629072.000006: rounding grows as sqrt(n m), past any absolute bound
        ("hamming", (48, 2)),
        ("hamming", (60, 2)),
        ("cycle", (1001,)),
        # m_0 = 35357670.000001 on J(32,16): close atoms cost the weights more
        # rounding, so the bound grows with ||J|| / gap
        ("johnson", (32, 16)),
        ("johnson", (46, 23)),
        ("johnson", (52, 26)),
    ]
    for name, params in trusted:
        report = validate_intersection_array(catalog(name, params).array)
        assert report.ok, (name, report.problems)
    # the (2,2) octagon array is formal only: non-integral multiplicities
    report = validate_intersection_array(catalog("gen_octagon", (2, 2)).array)
    assert not report.ok
    assert any("multiplicity" in p for p in report.problems)


def test_catalog_sweep_weight_properties():
    from schemewalk.catalog import catalog, catalog_names

    for name in catalog_names():
        if name == "line":
            continue
        params = {
            "complete": (7,),
            "cycle": (9,),
            "johnson": (6, 3),
            "hamming": (3, 2),
            "gen_octagon": (2, 2),
            "gen_dodecagon": (2,),
            "incidence_pg": (4,),
        }.get(name, ())
        ia = catalog(name, params).array
        dist = golub_welsch(jacobi_from_intersection(ia))
        assert np.all(dist.weights > 0)
        assert abs(dist.weights.sum() - 1.0) < 1e-12
        assert len(dist.atoms) == ia.d + 1
        assert dist.atoms[-1] == pytest.approx(ia.degree, abs=1e-9)
        assert derive_stratum_sizes(ia).n * dist.weights[-1] == pytest.approx(
            1.0, abs=1e-6
        )


# ---------------------------------------------------------------------------
# Half-size decomposition of bipartite arrays
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps
BIPARTITE = (
    [("cycle", (n,)) for n in (4, 6, 8, 10, 100, 998, 1000, 1002, 4000)]
    + [("hamming", (d, 2)) for d in (1, 2, 3, 7, 20, 47, 60)]
    + [("incidence_pg", (k,)) for k in (4, 5, 7, 8)]
    + [("foster", ()), ("double_hoffman_singleton", ())]
)


def _dense_eigh(jc):
    off = np.sqrt(jc.omega)
    atoms, U = np.linalg.eigh(np.diag(jc.alpha) + np.diag(off, 1) + np.diag(off, -1))
    return atoms, U * np.where(U[0] < 0, -1.0, 1.0)


def _cycle_table(n):
    """Closed-form table sqrt(a_k) m_l cos(2 pi lk/n) / n of C_n, rows by ascending atom."""
    j = np.arange(n // 2 + 1)
    ends = np.where((j == 0) | (2 * j == n), 1.0, 2.0)  # m_l and a_k alike
    table = np.sqrt(ends) * ends[:, None] * np.cos(2 * np.pi * np.outer(j, j) / n) / n
    return table[::-1]


@pytest.mark.parametrize("name, params", BIPARTITE, ids=lambda x: str(x))
def test_bipartite_decomposition_matches_the_dense_eigensolver(name, params):
    from schemewalk.catalog import catalog

    jc = jacobi_from_intersection(catalog(name, params).array)
    assert not any(jc.alpha)
    atoms, U = jc.eigh
    dense_atoms, dense_U = _dense_eigh(jc)
    norm = float(np.max(np.abs(dense_atoms)))
    assert np.array_equal(atoms, -atoms[::-1])
    assert np.all(np.diff(atoms) > 0) and np.all(U[0] > 0)
    assert not atoms.flags.writeable and not U.flags.writeable
    assert np.max(np.abs(atoms - dense_atoms)) < 32 * EPS * norm
    assert np.max(np.abs(U.T @ U - np.eye(jc.d + 1))) < 32 * EPS * (jc.d + 1)
    off = np.sqrt(jc.omega)
    residual = U * atoms - (np.diag(off, 1) + np.diag(off, -1)) @ U
    assert np.max(np.abs(residual)) < 32 * EPS * norm
    if jc.d <= 8:  # well separated atoms: the vectors agree as well
        assert np.max(np.abs(U - dense_U)) < 1e-14


@pytest.mark.parametrize("n", [4, 6, 10, 100, 1000, 4000])
def test_bipartite_cycle_tables_match_the_closed_form(n):
    from schemewalk.catalog import cycle_distribution, cycle_intersection_array

    jc = jacobi_from_intersection(cycle_intersection_array(n))
    closed = _cycle_table(n)
    atoms, U = jc.eigh
    dense_atoms, dense_U = _dense_eigh(jc)
    # measured: 1.4e-14 (half size) and 1.3e-15 (dense) on C_100, 1.6e-13 and 6.5e-14 on C_4000
    for route_atoms, route_U in ((atoms, U), (dense_atoms, dense_U)):
        assert np.max(np.abs((route_U[0] * route_U).T - closed)) < n * EPS
        assert np.max(np.abs(route_atoms - cycle_distribution(n).atoms)) < 16 * EPS


@pytest.mark.parametrize("d", [1, 2, 5, 20, 47, 60])
def test_bipartite_hamming_weights_match_the_binomials(d):
    from schemewalk.catalog import hamming_distribution, hamming_intersection_array

    jc = jacobi_from_intersection(hamming_intersection_array(d, 2))
    expected = hamming_distribution(d, 2)
    atoms, U = jc.eigh
    assert np.max(np.abs(U[0] ** 2 - expected.weights)) < 4 * EPS
    assert np.max(np.abs(atoms - expected.atoms)) < 32 * EPS * d


def test_bipartite_odd_size_has_an_exact_zero_atom():
    h42 = IntersectionArray(d=4, c=(4, 3, 2, 1), b=(1, 2, 3, 4))
    atoms, U = jacobi_from_intersection(h42).eigh
    assert atoms[2] == 0.0 and not np.signbit(atoms[2])
    assert np.all(U[1::2, 2] == 0.0)


def test_bipartite_svd_failure_is_a_solver_error(monkeypatch):
    def no_convergence(matrix):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    with pytest.raises(EigensolverNoConvergence):
        golub_welsch(jacobi_from_intersection(IntersectionArray(d=2, c=(2, 1), b=(1, 2))))


def test_line_nodes_are_mirrored_bit_for_bit():
    # Each construction also runs the DiscreteDistribution checks: ascending, weights sum to 1.
    for nodes in range(1, 5000):
        xs = continuous_line_distribution(nodes).atoms
        assert np.array_equal(xs, -xs[::-1]) and np.all(np.diff(xs) > 0)
        theta = (np.arange(nodes) + 0.5) * math.pi / nodes
        assert np.max(np.abs(xs - 2.0 * np.cos(theta)[::-1])) < 16 * EPS
    with pytest.raises(BadParams):
        continuous_line_distribution(0)
