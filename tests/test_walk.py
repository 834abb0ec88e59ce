import math
import re
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from schemewalk.catalog import (
    catalog,
    complete_intersection_array,
    cycle_intersection_array,
    hamming_distribution,
)
from schemewalk.errors import (
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
    ValencyVector,
    eigenstructure_from_array,
)
from schemewalk.spectral import (
    DiscreteDistribution,
    chebyshev_orders,
    continuous_line_distribution,
    golub_welsch,
    jacobi_from_intersection,
    meixner_distribution,
)
from schemewalk import walk as walk_module
from schemewalk.walk import (
    AmplitudeSeries,
    SchemeSpectrum,
    WalkRequest,
    average_from_distribution,
    average_probabilities,
    chebyshev_walk,
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
        series = eigen_spectrum(scheme).amplitudes(TIMES)
        closed = (-2j * np.sin(n * TIMES / 2)) ** (n - 1) / math.sqrt(
            n * factorial(n)
        )
        assert np.max(np.abs(series.amplitudes[:, -1] - closed)) < 1e-12


def test_dihedral_amplitudes_and_averages():
    for m in (3, 5, 7):
        scheme = walk_scheme(GroupDescriptor("dihedral", m))
        series = eigen_spectrum(scheme).amplitudes(TIMES)
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
            spectrum = resolve(FromCatalog("hamming", (d, n)))
            assert np.max(np.abs(spectrum.atoms - dist.atoms)) < 1e-12
            assert np.max(np.abs(spectrum.table[:, 0] - dist.weights)) < 1e-15
            for l, (atom, weight) in enumerate(zip(dist.atoms, dist.weights)):
                assert atom == n * l - d
                exact = Fraction(comb(d, l) * (n - 1) ** (d - l), n**d)
                assert weight == pytest.approx(float(exact), abs=1e-15)


def test_hamming_factorization():
    for d in (1, 2, 3, 4):
        for n in (2, 3, 4, 5):
            series = resolve(FromCatalog("hamming", (d, n))).amplitudes(TIMES)
            es = eigenstructure_from_array(complete_intersection_array(n))
            kn = eigen_spectrum(es).amplitudes(TIMES)
            assert (
                np.max(np.abs(series.amplitudes[:, 0] - kn.amplitudes[:, 0] ** d))
                < 1e-12
            )


def test_hamming_special_cases():
    series = resolve(FromCatalog("hamming", (2, 2))).amplitudes(TIMES)
    assert np.max(np.abs(series.amplitudes[:, 0] - np.cos(TIMES) ** 2)) < 1e-12
    spectrum1, dist1 = resolve(FromCatalog("hamming", (1, 4))), hamming_distribution(1, 4)
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


def test_johnson_limit_near_p_one_sums_over_a_million_atoms():
    # The geometric measure's origin amplitude, summed over every atom in closed form:
    # sum_k head ratio^k e^{-i x_k t} = head e^{i p t / s} / (1 - ratio e^{-2i (1-p) t / s}).
    # The denominator cancels down to 1 - ratio = head, so rounding reaches eps / head.
    p, t = 0.99999, np.array([0.0, 7.5])
    scale, ratio, head = math.sqrt(p * (2 - p)), p / (2 - p), 2 * (1 - p) / (2 - p)
    exact = head * np.exp(1j * p * t / scale) / (1 - ratio * np.exp(-2j * (1 - p) * t / scale))
    bound = 4 * np.finfo(float).eps / head
    assert np.max(np.abs(johnson_limit_amplitudes(p, 0, t) - exact)) < bound


def test_johnson_limit_near_p_one_takes_a_full_grid_in_bounded_memory():
    # A kernel call on the 1,381,552 atoms left after the 1e-12 tail would hold 128 trig rows
    # of them (1.4 GB); the closed form holds a few complex rows of the grid and no atom.
    import tracemalloc

    p, t = 0.99999, np.linspace(0.0, 20.0, 64)
    scale, ratio, head = math.sqrt(p * (2 - p)), p / (2 - p), 2 * (1 - p) / (2 - p)
    exact = head * np.exp(1j * p * t / scale) / (1 - ratio * np.exp(-2j * (1 - p) * t / scale))
    tracemalloc.start()
    try:
        origin = johnson_limit_amplitudes(p, 0, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 16 * len(t)
    assert np.max(np.abs(origin - exact)) < 4 * np.finfo(float).eps / head


def test_johnson_limit_rejects_bad_input():
    with pytest.raises(BadParams):
        johnson_limit_amplitudes(0.5, 1, TIMES)
    with pytest.raises(BadParams):
        johnson_limit_amplitudes(1.2, 0, TIMES)
    with pytest.raises(BadParams):
        johnson_limit_amplitudes(1.0, -1, TIMES)


def test_line_walk_matches_bessel():
    series = line_walk(TIMES, 6)
    assert series.amplitudes.shape == (len(TIMES), 7)
    for k in range(7):
        expected = (math.sqrt(2) if k else 1.0) * (-1j) ** k * jv(k, 2 * TIMES)
        assert np.max(np.abs(series.amplitudes[:, k] - expected)) < 1e-14
    # strata past the light cone of every time are J_k(2t) too, not cut off
    far, k = line_walk([0.0, 0.5], 60).amplitudes, np.arange(40, 61)
    assert np.max(np.abs(far[1, 40:] - np.sqrt(2) * (-1j) ** k * jv(k, 1.0))) < 1e-14
    assert far[0].tolist() == [1] + [0] * 60


def test_dispatch_routes():
    req = WalkRequest(FromSRG(10, 3, 0, 1), tuple(TIMES), "auto")
    assert (
        np.max(np.abs(dispatch(req).amplitudes - spectral_series(PETERSEN).amplitudes))
        < 1e-12
    )
    prod = dispatch(WalkRequest(FromCatalog("hamming", (2, 3)), tuple(TIMES), "auto"))
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
    with pytest.raises(BadParams):
        WalkRequest(FromCatalog("petersen"), (1.0, float("inf")), "auto")
    req = WalkRequest(FromCatalog("petersen"), np.array([-0.0, 2]), "auto")
    assert req.times == (0.0, 2.0) and all(type(t) is float for t in req.times)


def _kernel_reference(times, atoms, table):
    return np.exp(-1j * np.outer(times, atoms)) @ table


def _kernel_cases():
    rng = np.random.default_rng(1)
    small = rng.uniform(-5, 5, 7), rng.standard_normal((7, 4)) / 7
    wide = rng.uniform(-40, 40, 31), rng.uniform(-1, 1, (31, 9)) / 31
    cycle = jacobi_spectrum(cycle_intersection_array(898))  # 450 atoms
    return [(TIMES, *small), (TIMES, *wide), (np.array([]), *small),
            (TIMES, cycle.atoms, cycle.table)]


@pytest.mark.parametrize(
    "times,atoms,table", _kernel_cases(), ids=["random-7", "random-31", "empty-grid", "cycle-898"]
)
def test_phase_kernel_matches_the_complex_exponential(times, atoms, table):
    amps = walk_module._phase_sum(times, atoms, table)
    expected = _kernel_reference(times, atoms, table)
    assert amps.dtype == complex and amps.shape == expected.shape
    assert np.max(np.abs(amps - expected), initial=0.0) < 1e-13
    assert not np.any(np.signbit(walk_module._phase_sum(np.zeros(1), atoms, table).imag))


def test_phase_kernel_takes_the_one_dimensional_meixner_weights():
    atoms, weights = meixner_distribution(0.5)
    expected = _kernel_reference(TIMES, atoms, weights)
    assert np.max(np.abs(walk_module._phase_sum(TIMES, atoms, weights) - expected)) < 1e-13


def test_average_from_distribution_decomposes_once(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting(matrix):
        calls.append(matrix.shape)
        return eigh(matrix)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    ia = cycle_intersection_array(601)
    jc = jacobi_from_intersection(ia)
    averages = average_from_distribution(golub_welsch(jc), jc, ia)
    assert calls == [(301, 301)]
    assert np.max(np.abs(averages.stratum - jacobi_spectrum(ia).averages().stratum)) == 0


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
    FromCatalog("hamming", (2, 3)),
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
    hamming = FromCatalog("hamming", (2, 3))
    assert intersection_array(hamming) is hamming.entry.array
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
    vertex = np.zeros(len(es.m))
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
        es = walk_scheme(spec.group)
    else:
        es = eigenstructure_from_array(intersection_array(spec))
    vertex = _eigen_average_reference(es, es.generating)
    assert np.max(np.abs(averages.vertex - vertex)) < 1e-15
    assert np.max(np.abs(averages.stratum - vertex * np.array(es.valencies.a))) < 1e-15
    if isinstance(spec, FromGroup) and spec.group.kind != "cyclic":
        return
    # sum_l U[0, l]^2 U[k, l]^2 over the Jacobi eigenvectors of the array
    _, U = jacobi_from_intersection(intersection_array(spec)).eigh
    assert np.max(np.abs(averages.stratum - ((U[0] * U) ** 2).sum(axis=1))) < 1e-15


def test_non_unit_amplitude_row_is_a_numerical_instability():
    strata = ValencyVector((1, 3), 4)
    series = AmplitudeSeries(np.array([0.5]), strata, np.array([[0.9 + 0j, 0.1 + 0j]]))
    with pytest.raises(NumericalInstability, match="not unit vectors: defect 0.18 > bound"):
        series.validate()


# ---------------------------------------------------------------------------
# Merged and folded phase sums
# ---------------------------------------------------------------------------

SYMMETRIC_SPECS = [
    (FromCatalog("cycle", (1000,)), "spectral"),
    (FromCatalog("cycle", (10,)), "eigen"),
    (FromCatalog("hamming", (10, 2)), "auto"),
    (FromCatalog("foster"), "auto"),
    (FromCatalog("incidence_pg", (7,)), "auto"),
    (FromGroup(GroupDescriptor("cyclic", 600)), "auto"),
    (FromGroup(GroupDescriptor("cyclic", 602)), "spectral"),
    (FromGroup(GroupDescriptor("dihedral", 449)), "auto"),
    (FromGroup(GroupDescriptor("dihedral", 450)), "auto"),
    (FromGroup(GroupDescriptor("symmetric", 6)), "auto"),
]


def _recorded_folds(monkeypatch):
    """Atom counts of the sums folded while the test runs."""
    counts = []
    folded_sum = walk_module._folded_sum

    def recording(times, atoms, rows):
        folded = folded_sum(times, atoms, rows)
        if folded is not None:
            counts.append(len(atoms))
        return folded

    monkeypatch.setattr(walk_module, "_folded_sum", recording)
    return counts


@pytest.mark.parametrize("spec, engine", SYMMETRIC_SPECS, ids=lambda x: str(x)[:40])
@pytest.mark.parametrize("normalized", [False, True])
def test_folded_kernel_matches_the_complex_exponential(monkeypatch, spec, engine, normalized):
    counts = _recorded_folds(monkeypatch)
    spectrum = resolve(spec, engine)
    times = np.concatenate(([0.0], TIMES))
    amps = spectrum.amplitudes(times, normalized=normalized).amplitudes
    scale = spectrum.strata.a[spectrum.generating] if normalized else 1
    expected = _kernel_reference(times, spectrum.atoms / scale, spectrum.table)
    assert counts and np.max(np.abs(amps - expected)) < 1e-13
    # the exact zeros of a symmetric spectrum are +0.0: odd strata have no
    # real part, even strata no imaginary part
    real_zero, imag_zero = np.all(amps.real == 0, axis=0), np.all(amps.imag == 0, axis=0)
    assert np.all(real_zero | imag_zero)
    assert not np.any(np.signbit(amps.real[:, real_zero]))
    assert not np.any(np.signbit(amps.imag[:, imag_zero]))
    assert not np.any(np.signbit(amps[0].imag))


def test_bipartite_arrays_put_odd_strata_on_the_imaginary_axis():
    amps = spectral_series(cycle_intersection_array(100)).amplitudes
    assert np.all(amps[:, 1::2].real == 0) and not np.any(np.signbit(amps[:, 1::2].real))
    assert np.all(amps[:, 0::2].imag == 0) and not np.any(np.signbit(amps[:, 0::2].imag))


def test_folded_kernel_takes_a_one_dimensional_table(monkeypatch):
    counts = _recorded_folds(monkeypatch)
    dist = continuous_line_distribution(33)
    atoms = np.concatenate((dist.atoms, dist.atoms[:5]))  # five repeated atoms
    weights = np.concatenate((dist.weights, dist.weights[:5]))
    amps = walk_module._phase_sum(TIMES, atoms, weights)
    assert amps.shape == TIMES.shape and counts == []  # the merged rows are not even
    assert np.max(np.abs(amps - _kernel_reference(TIMES, atoms, weights))) < 1e-13
    amps = walk_module._phase_sum(TIMES, dist.atoms, dist.weights)
    assert amps.shape == TIMES.shape and counts == [33]
    assert np.max(np.abs(amps - _kernel_reference(TIMES, dist.atoms, dist.weights))) < 1e-13
    assert np.all(amps.imag == 0) and not np.any(np.signbit(amps.imag))


@pytest.mark.parametrize("m", [3, 4, 57, 449, 450])
def test_dihedral_walks_reach_the_kernel_with_three_atoms(monkeypatch, m):
    counts = _recorded_folds(monkeypatch)
    spec = FromGroup(GroupDescriptor("dihedral", m))
    assert len(resolve(spec).atoms) == m // 2 + 2
    dispatch(WalkRequest(spec, tuple(TIMES)))
    dispatch(WalkRequest(spec, tuple(TIMES), normalized_adjacency=True))
    assert counts == [3, 3]


def test_merged_atoms_sum_their_rows():
    atoms = np.array([1.0, -2.0, 1.0, 0.5, 1.0])
    table = np.arange(10.0).reshape(5, 2)
    merged, rows = walk_module._grouped(atoms, table, 0.0)
    assert merged.tolist() == [-2.0, 0.5, 1.0]
    assert rows.tolist() == [[2.0, 3.0], [6.0, 7.0], [12.0, 15.0]]
    assert np.max(np.abs(
        walk_module._phase_sum(TIMES, atoms, table) - _kernel_reference(TIMES, atoms, table)
    )) < 1e-13


@pytest.mark.parametrize("spec, engine", SYMMETRIC_SPECS[:6], ids=lambda x: str(x)[:40])
def test_an_atom_moved_by_one_ulp_takes_the_unfolded_path(monkeypatch, spec, engine):
    counts = _recorded_folds(monkeypatch)
    spectrum = resolve(spec, engine)
    moved = spectrum.atoms.copy()
    top = int(np.argmax(moved))
    moved[top] = np.nextafter(moved[top], np.inf)
    amps = walk_module._phase_sum(TIMES, moved, spectrum.table)
    assert counts == []
    assert np.max(np.abs(amps - _kernel_reference(TIMES, moved, spectrum.table))) < 1e-13


def test_unfolded_kernel_keeps_its_arithmetic(monkeypatch):
    # a spectrum that neither repeats nor pairs its atoms: one product [cos; sin] @ table
    counts = _recorded_folds(monkeypatch)
    spectrum = jacobi_spectrum(PETERSEN)
    steps = len(TIMES)
    trig = np.concatenate((np.cos(np.outer(TIMES, spectrum.atoms)),
                           np.sin(np.outer(TIMES, spectrum.atoms))))
    halves = trig @ spectrum.table
    amps = walk_module._phase_sum(TIMES, spectrum.atoms, spectrum.table)
    assert counts == []
    assert np.array_equal(amps.real, halves[:steps]) and np.array_equal(amps.imag, -halves[steps:])


@pytest.mark.parametrize("array", [PETERSEN, cycle_intersection_array(899),
                                   cycle_intersection_array(10), cycle_intersection_array(900),
                                   catalog("hamming", (10, 2)).array],
                         ids=["petersen", "c899", "c10", "c900", "h10_2"])
def test_ascending_atoms_skip_the_sort_bit_for_bit(array):
    # Jacobi atoms arrive ascending and skip the sort.  Reversed, the same
    # spectrum takes the sort: a folded sum reads only the sorted rows, and an
    # unfolded one is the product [cos; sin] @ table in the order given.
    spectrum = jacobi_spectrum(array)
    atoms = spectrum.atoms
    times = np.concatenate(([0.0], TIMES))
    folds = bool((atoms == -atoms[::-1]).all())
    for table in (spectrum.table, spectrum.table[:, 0].copy()):
        fast = walk_module._phase_sum(times, atoms, table)
        if folds:
            expected = walk_module._phase_sum(times, atoms[::-1].copy(), table[::-1].copy())
        else:
            trig = np.concatenate((np.cos(np.outer(times, atoms)), np.sin(np.outer(times, atoms))))
            halves = trig @ table
            expected = np.empty(fast.shape, dtype=complex)
            expected.real, expected.imag = halves[: len(times)], 0.0 - halves[len(times):]
        assert fast.tobytes() == expected.tobytes()


def test_time_zero_rows_print_a_positive_zero_imaginary_part(capsys):
    from schemewalk.cli import main

    for graph in ("catalog:cycle:40", "catalog:hamming:9,2", "group:dihedral:9",
                  "group:cyclic:12", "group:symmetric:5"):
        assert main(["walk", "--graph", graph, "--times", "0,1.5", "--format", "json"]) == 0
        at_zero = re.findall(r'\{"t":0\.0,[^}]*\}', capsys.readouterr().out)
        assert at_zero and all('"im":0.0,' in row for row in at_zero), graph


# ---------------------------------------------------------------------------
# Chebyshev propagation along the Jacobi chain
# ---------------------------------------------------------------------------


def _propagated(ia, times, normalized=False):
    """chebyshev_walk on the whole grid, whatever the route rule would pick."""
    x = np.asarray(times, dtype=float) * (1 if normalized else ia.degree)
    orders = chebyshev_orders(float(x.max(initial=0.0)))
    return chebyshev_walk(jacobi_from_intersection(ia), ia.degree, x, orders)


@pytest.mark.parametrize("spec, t1, steps, normalized", [
    (FromCatalog("cycle", (899,)), 40.0, 256, False),
    (FromCatalog("cycle", (899,)), 40.0, 256, True),
    (FromCatalog("cycle", (1999,)), 40.0, 64, False),
    (FromCatalog("cycle", (4001,)), 40.0, 64, False),
    (FromCatalog("cycle", (4000,)), 200.0, 64, True),
    (FromGroup(GroupDescriptor("cyclic", 3000)), 40.0, 64, False),
])
def test_propagated_walks_match_the_eigendecomposition(spec, t1, steps, normalized):
    times = np.linspace(0.0, t1, steps)
    series = dispatch(WalkRequest(spec, tuple(times), "spectral", normalized))
    ia = intersection_array(spec)
    x_max = t1 * (1 if normalized else ia.degree)
    assert chebyshev_orders(x_max) <= ia.d  # the light cone is shorter than the chain
    expected = spectral_series(ia, times, normalized).amplitudes
    assert np.max(np.abs(series.amplitudes - expected)) < 1e-13


ARRAYS = st.one_of(
    st.integers(3, 300).map(cycle_intersection_array),
    st.integers(2, 40).map(complete_intersection_array),
    st.tuples(st.integers(1, 24), st.integers(2, 5)).map(lambda p: catalog("hamming", p).array),
    st.integers(1, 12).flatmap(
        lambda d: st.integers(2 * d, 3 * d + 2).map(lambda v: catalog("johnson", (v, d)).array)),
)


@settings(max_examples=60, deadline=None)
@given(ARRAYS, st.floats(0.0, 30.0), st.integers(0, 40), st.booleans())
def test_both_routes_agree_on_generated_arrays(ia, t1, steps, normalized):
    times = np.linspace(0.0, t1, steps)
    expected = spectral_series(ia, times, normalized).amplitudes
    assert np.max(np.abs(_propagated(ia, times, normalized) - expected), initial=0.0) < 1e-12
    chosen = dispatch(WalkRequest(FromIntersectionArray(ia), tuple(times), "auto", normalized))
    assert np.max(np.abs(chosen.amplitudes - expected), initial=0.0) < 1e-12


@pytest.mark.parametrize("ia", [cycle_intersection_array(301), cycle_intersection_array(300),
                                catalog("hamming", (6, 3)).array, PETERSEN])
def test_propagated_time_zero_row_is_the_origin_indicator(ia):
    amps = _propagated(ia, [0.0, 1.0])
    assert amps[0].real.tolist() == [1.0] + [0.0] * ia.d
    assert amps[0].imag.tolist() == [0.0] * (ia.d + 1)
    assert not np.any(np.signbit(amps[0].real)) and not np.any(np.signbit(amps[0].imag))


def test_propagated_bipartite_chains_keep_positive_zeros():
    times = np.linspace(0.0, 20.0, 64)
    series = dispatch(WalkRequest(FromCatalog("cycle", (1000,)), tuple(times), "spectral"))
    amps = series.amplitudes
    assert np.all(amps[:, 1::2].real == 0) and not np.any(np.signbit(amps[:, 1::2].real))
    assert np.all(amps[:, 0::2].imag == 0) and not np.any(np.signbit(amps[:, 0::2].imag))
    # past the light cone every stratum reads an exact +0.0
    past = chebyshev_orders(2 * 20.0)
    assert np.all(amps[:, past:] == 0) and not np.any(np.signbit(amps[:, past:].view(float)))
