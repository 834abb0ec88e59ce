import math
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest
from scipy.special import jv

from schemewalk.catalog import (
    catalog,
    complete_intersection_array,
    cycle_intersection_array,
    hamming_distribution,
)
from schemewalk.errors import (
    BadParameter,
    BadParams,
    DegenerateSpectrumUnmerged,
    EngineSpecMismatch,
    InconsistentInputs,
    NumericalInstability,
)
from schemewalk.groups import walk_scheme
from schemewalk.schemes import (
    FromCatalog,
    FromGroup,
    FromIntersectionArray,
    FromSRG,
    GroupDescriptor,
    IntersectionArray,
    ProductScheme,
    ValencyVector,
    eigenstructure_from_array,
)
from schemewalk.spectral import (
    DiscreteDistribution,
    continuous_line_distribution,
    golub_welsch,
    jacobi_eigh,
    jacobi_from_intersection,
    meixner_distribution,
)
from schemewalk.walk import (
    AmplitudeSeries,
    SchemeSpectrum,
    WalkRequest,
    average_from_distribution,
    average_probabilities,
    dispatch,
    eigen_spectrum,
    intersection_array,
    jacobi_spectrum,
    johnson_limit_amplitudes,
    line_walk,
    resolve,
    time_averaged_probabilities,
)

TIMES = np.linspace(0.0, 20.0, 64)
PETERSEN = IntersectionArray(d=2, c=(3, 2), b=(1, 1))


def spectral_series(ia, times=TIMES, normalized=False):
    return jacobi_spectrum(ia).amplitudes(times, normalized=normalized)


def petersen_closed_forms(t):
    phi0 = 0.5 * np.exp(-1j * t) + 0.4 * np.exp(2j * t) + 0.1 * np.exp(-3j * t)
    phi1 = (
        0.5 * np.exp(-1j * t) - 0.8 * np.exp(2j * t) + 0.3 * np.exp(-3j * t)
    ) / math.sqrt(3)
    # the e^{-3it} coefficient is 3/5; sanity: the row must vanish at t = 0
    phi2 = (
        -np.exp(-1j * t) + 0.4 * np.exp(2j * t) + 0.6 * np.exp(-3j * t)
    ) / math.sqrt(6)
    return np.stack([phi0, phi1, phi2], axis=1)


def test_petersen_closed_forms():
    series = spectral_series(PETERSEN)
    assert np.max(np.abs(series.amplitudes - petersen_closed_forms(TIMES))) < 1e-10


def test_time_zero_row_is_origin_indicator():
    series = spectral_series(PETERSEN, times=np.array([0.0, 1.0]))
    assert np.allclose(series.amplitudes[0], [1.0, 0.0, 0.0], atol=1e-12)


def test_unitarity_on_catalog_sweep():
    for name, params in [
        ("petersen", ()),
        ("m22", ()),
        ("wells", ()),
        ("foster", ()),
        ("cycle", (9,)),
        ("complete", (7,)),
        ("hamming", (3, 2)),
        ("johnson", (6, 3)),
    ]:
        series = spectral_series(catalog(name, params).array)
        assert series.unitarity_defect() < 1e-9


def test_eigen_engine_matches_spectral_everywhere():
    for name, params in [("petersen", ()), ("m22", ()), ("cycle", (8,)), ("johnson", (5, 2))]:
        ia = catalog(name, params).array
        eig = eigen_spectrum(eigenstructure_from_array(ia)).amplitudes(TIMES)
        assert np.max(np.abs(eig.amplitudes - spectral_series(ia).amplitudes)) < 1e-10


def test_complete_graph_unnormalized_origin():
    for n in (3, 5, 8):
        es = eigenstructure_from_array(complete_intersection_array(n))
        series = eigen_spectrum(es).amplitudes(TIMES)
        expected = ((n - 1) * np.exp(1j * TIMES) + np.exp(-1j * (n - 1) * TIMES)) / n
        assert np.max(np.abs(series.amplitudes[:, 0] - expected)) < 1e-12


def test_complete_graph_normalized_matches_degree_scaled_form():
    for n in (3, 5, 8):
        es = eigenstructure_from_array(complete_intersection_array(n))
        series = eigen_spectrum(es).amplitudes(TIMES, normalized=True)
        expected = (np.exp(-1j * TIMES) + (n - 1) * np.exp(1j * TIMES / (n - 1))) / n
        assert np.max(np.abs(series.amplitudes[:, 0] - expected)) < 1e-12


def test_cycle_closed_form_odd():
    for n in (5, 7, 9):
        d = (n - 1) // 2
        series = spectral_series(cycle_intersection_array(n))
        ls = np.arange(1, d + 1)
        for k in range(d + 1):
            inner = np.exp(-2j * TIMES) + 2 * (
                np.exp(-2j * np.outer(TIMES, np.cos(2 * np.pi * ls / n)))
                @ np.cos(2 * np.pi * k * ls / n)
            )
            expected = (math.sqrt(2) if k else 1.0) / n * inner
            assert np.max(np.abs(series.amplitudes[:, k] - expected)) < 1e-10


def test_symmetric_group_ncycle_stratum():
    for n in (2, 3, 4, 5):
        scheme = walk_scheme(GroupDescriptor("symmetric", n))
        series = eigen_spectrum(scheme.eigenstructure, scheme.generating).amplitudes(TIMES)
        closed = (-2j * np.sin(n * TIMES / 2)) ** (n - 1) / math.sqrt(
            n * factorial(n)
        )
        assert np.max(np.abs(series.amplitudes[:, -1] - closed)) < 1e-12


def test_dihedral_amplitudes_and_averages():
    for m in (3, 5, 7):
        scheme = walk_scheme(GroupDescriptor("dihedral", m))
        series = eigen_spectrum(scheme.eigenstructure, scheme.generating).amplitudes(TIMES)
        assert (
            np.max(np.abs(series.amplitudes[:, 0] - ((m - 1) + np.cos(m * TIMES)) / m))
            < 1e-12
        )
        assert (
            np.max(
                np.abs(series.amplitudes[:, 1] + 1j * np.sin(m * TIMES) / math.sqrt(m))
            )
            < 1e-12
        )
        for k in range(2, series.amplitudes.shape[1]):
            assert (
                np.max(
                    np.abs(
                        series.amplitudes[:, k]
                        - math.sqrt(2) / m * (np.cos(m * TIMES) - 1)
                    )
                )
                < 1e-12
            )
        averages = average_probabilities(scheme)
        expected = [((m - 1) ** 2 + 0.5) / m**2, 1 / (2 * m)] + [3 / m**2] * (
            series.amplitudes.shape[1] - 2
        )
        assert np.max(np.abs(averages.stratum - expected)) < 1e-12


def test_cyclic_average_staying_probability():
    for n in (5, 7, 9):
        scheme = walk_scheme(GroupDescriptor("cyclic", n))
        averages = average_probabilities(scheme)
        d = (n - 1) // 2
        assert averages.stratum[0] == pytest.approx((1 + 4 * d) / n**2, abs=1e-12)
        ks = np.arange(1, d + 1)
        for k in range(1, d + 1):
            expected = (2 / n**2) * (
                1 + 4 * np.sum(np.cos(2 * np.pi * ks * k / n) ** 2)
            )
            assert averages.stratum[k] == pytest.approx(expected, abs=1e-12)


def test_complete_graph_averages_exact():
    for n in range(3, 9):
        es = eigenstructure_from_array(complete_intersection_array(n))
        averages = eigen_spectrum(es).averages()
        assert averages.vertex[0] == pytest.approx(1 - 2 * (n - 1) / n**2, abs=1e-12)
        assert averages.vertex[1] == pytest.approx(2 / n**2, abs=1e-12)


def test_average_routes_agree():
    for name, params in [("petersen", ()), ("m22", ()), ("cycle", (7,))]:
        ia = catalog(name, params).array
        jc = jacobi_from_intersection(ia)
        dist = golub_welsch(jc)
        via_dist = average_from_distribution(dist, jc, ia)
        via_eigen = eigen_spectrum(eigenstructure_from_array(ia)).averages()
        assert np.max(np.abs(via_dist.stratum - via_eigen.stratum)) < 1e-12
        assert np.max(np.abs(via_dist.vertex - via_eigen.vertex)) < 1e-12


def test_average_rejects_degenerate_distribution():
    dist = DiscreteDistribution(np.array([-1.0, -1.0 + 1e-12, 2.0]), np.array([0.3, 0.3, 0.4]))
    ia = PETERSEN
    jc = jacobi_from_intersection(ia)
    with pytest.raises(DegenerateSpectrumUnmerged):
        average_from_distribution(dist, jc, ia)
    # coincident atoms are reported before a recurrence from another array
    other = jacobi_from_intersection(IntersectionArray(d=3, c=(2, 1, 1), b=(1, 1, 1)))
    with pytest.raises(DegenerateSpectrumUnmerged):
        average_from_distribution(dist, other, ia)


def test_vertex_normalization_rescaling():
    series = spectral_series(PETERSEN)
    vertex_series = series.to_vertex()
    scale = np.sqrt([1.0, 3.0, 6.0])
    assert np.allclose(vertex_series.amplitudes * scale, series.amplitudes)
    averages = eigen_spectrum(eigenstructure_from_array(PETERSEN)).averages()
    assert np.allclose(averages.vertex * np.array([1, 3, 6]), averages.stratum)


def test_cesaro_convergence_to_closed_average():
    grid = np.arange(0.0, 2000.0 + 1e-9, 0.05)
    for ia in (PETERSEN, complete_intersection_array(5)):
        series = spectral_series(ia, times=grid)
        numeric = time_averaged_probabilities(series)
        closed = eigen_spectrum(eigenstructure_from_array(ia)).averages().stratum
        assert np.max(np.abs(numeric - closed)) < 5e-3


def test_hamming_distribution_exact_binomials():
    for d in (1, 2, 3, 4):
        for n in (2, 3, 5):
            dist = hamming_distribution(d, n)
            spectrum = resolve(ProductScheme(n, d))
            assert np.max(np.abs(spectrum.atoms - dist.atoms)) < 1e-12
            assert np.max(np.abs(spectrum.table[:, 0] - dist.weights)) < 1e-15
            for l, (atom, weight) in enumerate(zip(dist.atoms, dist.weights)):
                assert atom == n * l - d
                exact = Fraction(comb(d, l) * (n - 1) ** (d - l), n**d)
                assert weight == pytest.approx(float(exact), abs=1e-15)


def test_hamming_factorization():
    for d in (1, 2, 3, 4):
        for n in (2, 3, 4, 5):
            series = resolve(ProductScheme(n, d)).amplitudes(TIMES)
            es = eigenstructure_from_array(complete_intersection_array(n))
            kn = eigen_spectrum(es).amplitudes(TIMES)
            assert (
                np.max(np.abs(series.amplitudes[:, 0] - kn.amplitudes[:, 0] ** d))
                < 1e-12
            )


def test_hamming_special_cases():
    series = resolve(ProductScheme(2, 2)).amplitudes(TIMES)
    assert np.max(np.abs(series.amplitudes[:, 0] - np.cos(TIMES) ** 2)) < 1e-12
    spectrum1, dist1 = resolve(ProductScheme(4, 1)), hamming_distribution(1, 4)
    for atoms, weights in ((dist1.atoms, dist1.weights), (spectrum1.atoms, spectrum1.table[:, 0])):
        assert np.allclose(atoms, [-1.0, 3.0])
        assert np.allclose(weights, [0.75, 0.25])


def test_johnson_limit_laguerre():
    t = np.linspace(0.0, 20.0, 41)
    assert np.max(np.abs(johnson_limit_amplitudes(1.0, 0, t) - 1 / (1 + 1j * t))) == 0
    at0 = np.array([johnson_limit_amplitudes(1.0, k, np.zeros(1))[0] for k in range(6)])
    assert np.allclose(at0, [1, 0, 0, 0, 0, 0])
    total = sum(np.abs(johnson_limit_amplitudes(1.0, k, t)) ** 2 for k in range(201))
    ratio = t**2 / (1 + t**2)
    assert np.max(np.abs(total - (1 - ratio**201))) < 1e-9


def test_johnson_limit_meixner_origin():
    t = np.linspace(0.0, 20.0, 41)
    origin = johnson_limit_amplitudes(0.5, 0, t)
    # independent reference: 128 explicit terms of the geometric measure
    p = 0.5
    scale = math.sqrt(p * (2 - p))
    reference = np.zeros(len(t), dtype=complex)
    for k in range(128):
        weight = (2 * (1 - p) / (2 - p)) * (p / (2 - p)) ** k
        atom = (-p + 2 * (1 - p) * k) / scale
        reference += weight * np.exp(-1j * atom * t)
    assert np.max(np.abs(origin - reference)) < 1e-10


def test_johnson_limit_rejects_bad_input():
    with pytest.raises(BadParameter):
        johnson_limit_amplitudes(0.5, 1, TIMES)
    with pytest.raises(BadParameter):
        johnson_limit_amplitudes(1.2, 0, TIMES)
    with pytest.raises(BadParameter):
        johnson_limit_amplitudes(1.0, -1, TIMES)


def test_line_walk_matches_bessel():
    series = line_walk(TIMES, 6, nodes=1024)
    for k in range(5):
        expected = (math.sqrt(2) if k else 1.0) * (-1j) ** k * jv(k, 2 * TIMES)
        assert np.max(np.abs(series.amplitudes[:, k] - expected)) < 1e-12


def test_dispatch_routes():
    req = WalkRequest(FromSRG(10, 3, 0, 1), tuple(TIMES), "auto")
    assert (
        np.max(np.abs(dispatch(req).amplitudes - spectral_series(PETERSEN).amplitudes))
        < 1e-12
    )
    prod = dispatch(WalkRequest(ProductScheme(3, 2), tuple(TIMES), "auto"))
    direct = spectral_series(catalog("hamming", (2, 3)).array)
    assert np.max(np.abs(prod.amplitudes - direct.amplitudes)) < 1e-12
    group_req = WalkRequest(FromGroup(GroupDescriptor("cyclic", 7)), tuple(TIMES), "spectral")
    spectral_req = WalkRequest(FromCatalog("cycle", (7,)), tuple(TIMES), "auto")
    assert (
        np.max(np.abs(dispatch(group_req).amplitudes - dispatch(spectral_req).amplitudes))
        < 1e-10
    )
    empty = dispatch(WalkRequest(FromCatalog("petersen"), (), "auto"))
    assert empty.amplitudes.shape == (0, 3)


def test_dispatch_engine_mismatches():
    with pytest.raises(EngineSpecMismatch):
        dispatch(WalkRequest(FromCatalog("petersen"), (0.0,), "character"))
    with pytest.raises(EngineSpecMismatch):
        dispatch(
            WalkRequest(FromGroup(GroupDescriptor("symmetric", 4)), (0.0,), "spectral")
        )
    with pytest.raises(EngineSpecMismatch):
        dispatch(WalkRequest(FromCatalog("line"), (0.0,), "auto"))


def test_walk_request_validation():
    with pytest.raises(BadParams):
        WalkRequest(FromCatalog("petersen"), (0.0,), "quantum")
    with pytest.raises(BadParams):
        WalkRequest(FromCatalog("petersen"), (-1.0,), "auto")
    with pytest.raises(BadParams):
        WalkRequest(FromCatalog("petersen"), (float("nan"),), "auto")


def test_spectral_inputs_must_agree():
    jc = jacobi_from_intersection(PETERSEN)
    other = IntersectionArray(d=3, c=(2, 1, 1), b=(1, 1, 1))
    with pytest.raises(InconsistentInputs):
        average_from_distribution(golub_welsch(jc), jc, other)
    with pytest.raises(InconsistentInputs):
        average_from_distribution(meixner_distribution(0.5), jc, PETERSEN)
    with pytest.raises(InconsistentInputs):
        average_from_distribution(continuous_line_distribution(16), jc, PETERSEN)


def test_distribution_atoms_must_match_the_recurrence():
    jc = jacobi_from_intersection(PETERSEN)
    shifted = DiscreteDistribution(np.array([-2.0, 1.0, 3.5]), np.array([0.4, 0.5, 0.1]))
    with pytest.raises(InconsistentInputs):
        average_from_distribution(shifted, jc, PETERSEN)
    exact = DiscreteDistribution(np.array([-2.0, 1.0, 3.0]), np.array([0.4, 0.5, 0.1]))
    averages = average_from_distribution(exact, jc, PETERSEN)
    assert np.max(np.abs(averages.stratum - jacobi_spectrum(PETERSEN).averages().stratum)) < 1e-14


ROUTING_SPECS = [
    FromCatalog("petersen"),
    FromCatalog("cycle", (8,)),
    FromSRG(16, 6, 2, 2),
    ProductScheme(3, 2),
    FromIntersectionArray(PETERSEN),
    FromGroup(GroupDescriptor("cyclic", 7)),
    FromGroup(GroupDescriptor("dihedral", 8), 2),
    FromGroup(GroupDescriptor("symmetric", 4)),
]


@pytest.mark.parametrize("spec", ROUTING_SPECS, ids=repr)
@pytest.mark.parametrize("engine", ["auto", "eigen", "spectral", "character"])
def test_dispatch_is_resolve(spec, engine):
    group = isinstance(spec, FromGroup)
    mismatch = (engine == "character" and not group) or (
        engine == "spectral" and group and spec.group.kind != "cyclic"
    )
    req = WalkRequest(spec, tuple(TIMES), engine, normalized_adjacency=True)
    if mismatch:
        with pytest.raises(EngineSpecMismatch):
            resolve(spec, engine)
        with pytest.raises(EngineSpecMismatch):
            dispatch(req)
        return
    spectrum = resolve(spec, engine)
    assert isinstance(spectrum, SchemeSpectrum)
    series = dispatch(req)
    direct = spectrum.amplitudes(TIMES, normalized=True)
    assert np.array_equal(series.amplitudes, direct.amplitudes)
    # every route agrees with the character or Jacobi route of the same scheme
    reference = resolve(spec, "auto").amplitudes(TIMES, normalized=True)
    assert np.max(np.abs(series.amplitudes - reference.amplitudes)) < 1e-10


def test_intersection_array_of_specs():
    assert intersection_array(FromSRG(10, 3, 0, 1)) == PETERSEN
    assert intersection_array(ProductScheme(3, 2)) == catalog("hamming", (2, 3)).array
    for generating in (None, 1):
        spec = FromGroup(GroupDescriptor("cyclic", 9), generating)
        assert intersection_array(spec) == cycle_intersection_array(9)
    for spec in (
        FromGroup(GroupDescriptor("cyclic", 7), 2),
        FromGroup(GroupDescriptor("dihedral", 5)),
        FromCatalog("line"),
    ):
        with pytest.raises(EngineSpecMismatch):
            intersection_array(spec)


def test_spectral_engine_rejects_a_cyclic_class_other_than_1():
    # The spectral route labels strata by cycle distance, which class 2 does not follow.
    spec = FromGroup(GroupDescriptor("cyclic", 7), 2)
    with pytest.raises(EngineSpecMismatch):
        dispatch(WalkRequest(spec, (0.8,), "spectral"))
    assert dispatch(WalkRequest(spec, (0.8,), "character")).amplitudes.shape == (1, 4)


def test_jacobi_spectrum_weights_are_golub_welsch():
    ia = catalog("m22").array
    spectrum = jacobi_spectrum(ia)
    dist = golub_welsch(jacobi_from_intersection(ia))
    assert np.array_equal(spectrum.atoms, dist.atoms)
    assert np.array_equal(spectrum.table[:, 0], dist.weights)


def _eigen_average_reference(es, column):
    """(1/n^2) sum over distinct eigenvalues of (summed Q columns)^2, per vertex."""
    evals = es.P[:, column]
    vertex = np.zeros(es.d + 1)
    for value in np.unique(np.round(evals, 9)):
        vertex += es.Q[:, np.abs(evals - value) <= 1e-9].sum(axis=1) ** 2
    return vertex / es.n**2


@pytest.mark.parametrize(
    "spec",
    [
        FromCatalog("petersen"),
        FromGroup(GroupDescriptor("cyclic", 9)),
        FromGroup(GroupDescriptor("dihedral", 6)),
        FromGroup(GroupDescriptor("symmetric", 5)),
    ],
    ids=repr,
)
def test_resolved_averages_match_both_average_formulas(spec):
    averages = resolve(spec).averages()
    if isinstance(spec, FromGroup):
        scheme = walk_scheme(spec.group)
        es, column = scheme.eigenstructure, scheme.generating
    else:
        es, column = eigenstructure_from_array(intersection_array(spec)), 1
    vertex = _eigen_average_reference(es, column)
    assert np.max(np.abs(averages.vertex - vertex)) < 1e-15
    assert np.max(np.abs(averages.stratum - vertex * np.array(es.valencies.a))) < 1e-15
    if isinstance(spec, FromGroup) and spec.group.kind != "cyclic":
        return
    # sum_l U[0, l]^2 U[k, l]^2 over the Jacobi eigenvectors of the array
    _, U = jacobi_eigh(jacobi_from_intersection(intersection_array(spec)))
    assert np.max(np.abs(averages.stratum - ((U[0] * U) ** 2).sum(axis=1))) < 1e-15


def test_non_unit_amplitude_row_is_a_numerical_instability():
    strata = ValencyVector((1, 3), 4)
    series = AmplitudeSeries(np.array([0.5]), strata, np.array([[0.9 + 0j, 0.1 + 0j]]))
    with pytest.raises(NumericalInstability, match="not unit vectors: defect 0.18 > bound"):
        series.validate()
