import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schemewalk.errors import (
    BadParameter,
    EigensolverNoConvergence,
    InfeasibleParameters,
    PoleProximity,
)
from schemewalk.schemes import IntersectionArray, derive_stratum_sizes
from schemewalk.spectral import (
    JacobiCoefficients,
    continuous_line_distribution,
    evaluate_polynomials,
    golub_welsch,
    jacobi_eigh,
    jacobi_from_intersection,
    meixner_distribution,
    srg_distribution,
    srg_intersection_array,
    stieltjes_transform,
)

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
    atoms, U = jacobi_eigh(jc)
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
        assert dist.moment(m) == pytest.approx(power[0, 0], abs=1e-8)
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


def test_stieltjes_single_atom():
    from schemewalk.spectral import DiscreteDistribution

    dist = DiscreteDistribution(np.array([0.0]), np.array([1.0]))
    assert stieltjes_transform(dist, 2.0) == pytest.approx(0.5)


def test_stieltjes_petersen_value_and_tail():
    dist = golub_welsch(jacobi_from_intersection(PETERSEN))
    assert stieltjes_transform(dist, 4.0) == pytest.approx(1.0 / 3.0)
    z = 1e6 + 0.0j
    assert z * stieltjes_transform(dist, z) == pytest.approx(1.0, rel=1e-5)
    with pytest.raises(PoleProximity):
        stieltjes_transform(dist, 1.0 + 1e-14j)


@pytest.mark.parametrize("ia", [PETERSEN, C7, M22])
def test_stieltjes_equals_continued_fraction(ia):
    jc = jacobi_from_intersection(ia)
    dist = golub_welsch(jc)
    for z in (5.0 + 1.0j, -3.0 + 0.5j, 10.0 + 0.0j):
        value = complex(z) - jc.alpha[-1]
        for k in range(jc.d - 1, -1, -1):
            value = complex(z) - jc.alpha[k] - jc.omega[k] / value
        assert stieltjes_transform(dist, z) == pytest.approx(1.0 / value, abs=1e-12)


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


def test_line_distribution_moments():
    dist = continuous_line_distribution(256)
    assert dist.total_mass() == pytest.approx(1.0, abs=1e-12)
    assert dist.moment(1) == pytest.approx(0.0, abs=1e-12)
    assert dist.moment(2) == pytest.approx(2.0, abs=1e-10)
    assert dist.moment(4) == pytest.approx(6.0, abs=1e-10)
    # density itself integrates to 1 under the rule that absorbs its weight
    values = np.array([dist.density(x) for x in dist.nodes])
    dx_dtheta = np.sqrt(4.0 - dist.nodes**2)  # |dx| = 2 sin(theta) dtheta
    assert np.sum(values * dx_dtheta * math.pi / len(dist.nodes)) == pytest.approx(
        1.0, abs=1e-10
    )


def test_meixner_weights_geometric(monkeypatch):
    monkeypatch.setenv("SCHEME_WALK_TAIL_TOL", "1e-12")
    dist = meixner_distribution(0.5)
    atoms, weights = dist.truncated()
    assert weights[1] / weights[0] == pytest.approx(1.0 / 3.0)
    assert atoms[0] == pytest.approx(-0.5 / math.sqrt(0.75))
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert 1.0 - weights.sum() < 1e-12


def test_meixner_respects_tail_tolerance(monkeypatch):
    dist = meixner_distribution(0.5)
    monkeypatch.setenv("SCHEME_WALK_TAIL_TOL", "1e-3")
    atoms, _ = dist.truncated()
    monkeypatch.setenv("SCHEME_WALK_TAIL_TOL", "1e-14")
    tight_atoms, _ = dist.truncated()
    assert len(atoms) < len(tight_atoms)


@pytest.mark.parametrize("p", [0.0, 1.0, 1.5, -0.2])
def test_meixner_rejects_bad_parameter(p):
    with pytest.raises(BadParameter):
        meixner_distribution(p)


def test_tail_tolerance_env_override(monkeypatch):
    from schemewalk.spectral import default_tail_tolerance

    monkeypatch.setenv("SCHEME_WALK_TAIL_TOL", "1e-4")
    assert default_tail_tolerance() == 1e-4
    atoms, weights = meixner_distribution(0.5).truncated()
    assert weights.sum() > 1 - 1e-3


@pytest.mark.parametrize("raw", ["abc", "0", "-1", "1", "nan"])
def test_tail_tolerance_env_rejects_bad_values(monkeypatch, raw):
    # A tolerance outside (0, 1) must fail at once, not spin toward the atom cap.
    from schemewalk.walk import johnson_limit_amplitudes

    monkeypatch.setenv("SCHEME_WALK_TAIL_TOL", raw)
    with pytest.raises(BadParameter):
        johnson_limit_amplitudes(0.5, 0, np.linspace(0.0, 1.0, 3))


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
