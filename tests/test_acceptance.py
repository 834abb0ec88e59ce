"""Acceptance battery: one test per release criterion, one status line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS lines and the
notes about values that were re-derived (and frozen here) because the
transcribed reference tables were internally inconsistent.
"""

import math
import time
from math import comb, factorial

import numpy as np
import pytest

from schemewalk import oracle
from schemewalk.catalog import catalog, complete_intersection_array, hamming_distribution
from schemewalk.groups import (
    character_table,
    cyclic_distance_groups,
    fused_eigenstructure,
    walk_scheme,
)
from schemewalk.schemes import GroupDescriptor, ProductScheme, eigenstructure_from_array
from schemewalk.spectral import golub_welsch, jacobi_from_intersection
from schemewalk.walk import (
    average_from_distribution,
    eigen_spectrum,
    jacobi_spectrum,
    johnson_limit_amplitudes,
    resolve,
    time_averaged_probabilities,
)

GRID = np.linspace(0.0, 20.0, 64)


def _report(num: int, text: str) -> None:
    print(f"[criterion {num}] PASS: {text}")


def _note(text: str) -> None:
    print(f"    note: {text}")


def spectral_series(ia, times=GRID):
    return jacobi_spectrum(ia).amplitudes(times)


def group_series(scheme, times=GRID):
    return eigen_spectrum(scheme.eigenstructure, scheme.generating).amplitudes(times)


def eigen_series(ia, times=GRID):
    """The P/Q route: amplitudes from the eigenvalue matrices of the array."""
    return eigen_spectrum(eigenstructure_from_array(ia)).amplitudes(times)


def character_series_direct(table, class_groups, times):
    """Raw character sum over (possibly merged) classes, independent of the
    eigenstructure machinery.

    Element-wise: the amplitude at any vertex of class c is
    (1/n) sum_i d_i e^{-i theta_i t} chi_i-bar(c), so a merged stratum K gets
    (1/(n sqrt(|K|))) sum_i d_i e^{-i theta_i t} sum_{c in K} kappa_c chi_i-bar(c).
    """
    n = table.order
    kappa = np.asarray(table.class_sizes, dtype=float)
    dims = np.asarray(table.irrep_dims, dtype=float)
    sizes = np.array([sum(table.class_sizes[c] for c in grp) for grp in class_groups])
    amps = np.zeros((len(times), len(class_groups)), dtype=complex)
    for i in range(len(dims)):
        theta = sum(
            kappa[c] * table.values[i, c] for c in class_groups[1]
        ).real / dims[i]
        phases = np.exp(-1j * theta * np.asarray(times))
        weights = np.array(
            [
                dims[i] * np.conj(sum(kappa[c] * table.values[i, c] for c in grp))
                for grp in class_groups
            ]
        )
        amps += np.outer(phases, weights)
    return amps / (np.sqrt(sizes) * n)


def test_criterion_1_petersen_amplitudes():
    start = time.perf_counter()
    series = spectral_series(catalog("petersen").array)
    t = GRID
    closed = np.stack(
        [
            0.5 * np.exp(-1j * t) + 0.4 * np.exp(2j * t) + 0.1 * np.exp(-3j * t),
            (0.5 * np.exp(-1j * t) - 0.8 * np.exp(2j * t) + 0.3 * np.exp(-3j * t))
            / math.sqrt(3),
            (-np.exp(-1j * t) + 0.4 * np.exp(2j * t) + 0.6 * np.exp(-3j * t))
            / math.sqrt(6),
        ],
        axis=1,
    )
    closed_err = np.max(np.abs(series.amplitudes - closed))
    assert closed_err < 1e-10
    g = oracle.petersen_graph()
    partition, _ = oracle.bfs_strata(g)
    oracle_err = np.max(
        np.abs(oracle.stratum_amplitudes(g, partition.strata, t) - series.amplitudes)
    )
    assert oracle_err < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(
        1,
        f"petersen closed forms at 64 points (err {closed_err:.1e}), "
        f"oracle agreement {oracle_err:.1e}, {elapsed * 1e3:.0f} ms",
    )
    _note(
        "the outermost-stratum coefficient of e^{-3it} is 3/5 (the transcribed "
        "2/5 fails the t=0 normalization and the exact propagator)"
    )


def test_criterion_2_spectral_catalog():
    start = time.perf_counter()
    trusted = [
        ("m22", ()),
        ("incidence_pg", (4,)),
        ("doubly_truncated_binary_golay", ()),
        ("extended_ternary_golay", ()),
        ("three_cover_gq22", ()),
        ("double_hoffman_singleton", ()),
        ("foster", ()),
    ]
    for name, params in trusted:
        entry = catalog(name, params)
        dist = golub_welsch(jacobi_from_intersection(entry.array))
        assert np.max(np.abs(dist.atoms - entry.expected.atoms)) < 1e-9
        assert np.max(np.abs(dist.weights - entry.expected.weights)) < 1e-9

    # wells: quadrature ground truth; the transcribed weight table is wrong
    wells = catalog("wells")
    dist = golub_welsch(jacobi_from_intersection(wells.array))
    assert np.max(np.abs(dist.weights - wells.expected.weights)) < 1e-9
    assert sorted(int(round(32 * w)) for w in dist.weights) == [1, 5, 8, 8, 10]

    # generalized octagon at (2,2): quadrature vs sign-resolved closed forms
    s = t_ = 2
    go = catalog("gen_octagon", (s, t_))
    dist = golub_welsch(jacobi_from_intersection(go.array))
    root = math.sqrt(2 * s * t_)
    closed = {
        s * (t_ + 1): 1 / ((s + 1) * (s * t_ + 1) * (s**2 * t_**2 + 1)),
        s - 1 + root: s * t_ * (t_ + 1) / (4 * (s * t_ + 1 - root) * (s + t_ + root)),
        s - 1: s * t_ * (t_ + 1) / (2 * (s * t_ + 1) * (s + t_)),
        s - 1 - root: s * t_ * (t_ + 1) / (4 * (s * t_ + 1 + root) * (s + t_ - root)),
        -(t_ + 1): s**4 / ((s + 1) * (s + t_) * (s**2 + t_**2)),
    }
    for atom, weight in zip(dist.atoms, dist.weights):
        key = min(closed, key=lambda x: abs(x - atom))
        assert abs(atom - key) < 1e-9
        assert abs(weight - closed[key]) < 1e-9

    # generalized dodecagon at s = 2: quadrature ground truth (n = 189)
    gd = catalog("gen_dodecagon", (2,))
    dist = golub_welsch(jacobi_from_intersection(gd.array))
    expected_atoms = sorted(
        [4.0, 1 + math.sqrt(6), 1 - math.sqrt(6), 1 + math.sqrt(2), 1 - math.sqrt(2), 1.0, -2.0]
    )
    assert np.max(np.abs(dist.atoms - expected_atoms)) < 1e-9
    expected_mults = {4.0: 1, -2.0: 64, 1.0: 28}
    for atom, weight in zip(dist.atoms, dist.weights):
        mult = 189 * weight
        assert abs(mult - round(mult)) < 1e-9
        if round(atom, 6) in expected_mults:
            assert round(mult) == expected_mults[round(atom, 6)]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, f"ten tabulated distributions reproduced, {elapsed * 1e3:.0f} ms")
    _note(
        "wells weights pinned by quadrature (multiplicities 1,8,10,8,5 on 32 "
        "vertices); the transcribed table (3/16,1/4,1/4,1/4,1/16) is rejected"
    )
    _note(
        "octagon (2,2) weights match the closed forms once the +/- roots are "
        "assigned sign-swapped denominators; dodecagon weights other than the "
        "top atom disagree with the transcribed expressions and come from "
        "quadrature"
    )


def test_criterion_3_group_engine():
    start = time.perf_counter()
    worst_closed = 0.0
    worst_oracle = 0.0
    for n in (3, 4, 5):
        scheme = walk_scheme(GroupDescriptor("symmetric", n))
        series = group_series(scheme)
        closed = (-2j * np.sin(n * GRID / 2)) ** (n - 1) / math.sqrt(n * factorial(n))
        worst_closed = max(
            worst_closed, float(np.max(np.abs(series.amplitudes[:, -1] - closed)))
        )
        g = oracle.cayley_graph(GroupDescriptor("symmetric", n))
        strata = tuple(
            tuple(v for c in grp for v in g.class_partition[c])
            for grp in scheme.class_groups
        )
        exact = oracle.stratum_amplitudes(g, strata, GRID)
        worst_oracle = max(
            worst_oracle, float(np.max(np.abs(exact - series.amplitudes)))
        )
    assert worst_closed < 1e-9

    worst_dihedral = 0.0
    for m in (3, 5, 7):
        scheme = walk_scheme(GroupDescriptor("dihedral", m))
        series = group_series(scheme)
        expected = np.stack(
            [((m - 1) + np.cos(m * GRID)) / m, -1j * np.sin(m * GRID) / math.sqrt(m)]
            + [math.sqrt(2) / m * (np.cos(m * GRID) - 1)] * (series.amplitudes.shape[1] - 2),
            axis=1,
        )
        worst_dihedral = max(
            worst_dihedral, float(np.max(np.abs(series.amplitudes - expected)))
        )
        averages = eigen_spectrum(scheme.eigenstructure).averages()
        closed_avg = np.array(
            [((m - 1) ** 2 + 0.5) / m**2, 1 / (2 * m)]
            + [3 / m**2] * (series.amplitudes.shape[1] - 2)
        )
        worst_dihedral = max(
            worst_dihedral, float(np.max(np.abs(averages.stratum - closed_avg)))
        )
        g = oracle.cayley_graph(GroupDescriptor("dihedral", m))
        strata = tuple(
            tuple(v for c in grp for v in g.class_partition[c])
            for grp in scheme.class_groups
        )
        exact = oracle.stratum_amplitudes(g, strata, GRID)
        worst_oracle = max(
            worst_oracle, float(np.max(np.abs(exact - series.amplitudes)))
        )
    assert worst_dihedral < 1e-10
    assert worst_oracle < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(
        3,
        f"S_3..S_5 long-cycle stratum (err {worst_closed:.1e}), dihedral "
        f"amplitudes/averages (err {worst_dihedral:.1e}), oracle {worst_oracle:.1e}, "
        f"{elapsed * 1e3:.0f} ms",
    )
    _note(
        "for even n the long-cycle closed form needs the factor (-1)^(n-1), "
        "fixed by the n = 2 case and the exact propagator; odd n matches the "
        "transcribed form verbatim"
    )


def test_criterion_4_averages():
    for n in range(3, 9):
        averages = eigen_spectrum(
            eigenstructure_from_array(complete_intersection_array(n))
        ).averages()
        assert averages.vertex[0] == pytest.approx(1 - 2 * (n - 1) / n**2, abs=1e-12)
        assert averages.vertex[1] == pytest.approx(2 / n**2, abs=1e-12)

    grid = np.arange(0.0, 2000.0 + 1e-9, 0.05)
    worst = 0.0
    for ia in (catalog("petersen").array, complete_intersection_array(5)):
        jc = jacobi_from_intersection(ia)
        dist = golub_welsch(jc)
        eigen_route = eigen_spectrum(eigenstructure_from_array(ia)).averages().stratum
        dist_route = average_from_distribution(dist, jc, ia).stratum
        numeric = time_averaged_probabilities(spectral_series(ia, grid))
        assert np.max(np.abs(eigen_route - dist_route)) < 1e-9
        worst = max(worst, float(np.max(np.abs(numeric - eigen_route))))
    assert worst < 5e-3
    _report(4, f"complete-graph averages exact; route triple agreement {worst:.1e}")


def test_criterion_5_engine_triple_agreement():
    worst = 0.0

    def compare(*series_list):
        nonlocal worst
        for a in series_list:
            for b in series_list:
                worst = max(worst, float(np.max(np.abs(a - b))))

    for n in (5, 7, 9):
        scheme = walk_scheme(GroupDescriptor("cyclic", n))
        eig = eigen_spectrum(scheme.eigenstructure).amplitudes(GRID).amplitudes
        char = character_series_direct(
            character_table(GroupDescriptor("cyclic", n)),
            cyclic_distance_groups(n),
            GRID,
        )
        spec = spectral_series(catalog("cycle", (n,)).array).amplitudes
        compare(eig, char, spec)

    for m in (3, 5):
        scheme = walk_scheme(GroupDescriptor("dihedral", m))
        eig = eigen_spectrum(scheme.eigenstructure).amplitudes(GRID).amplitudes
        char = character_series_direct(
            character_table(GroupDescriptor("dihedral", m)),
            scheme.class_groups,
            GRID,
        )
        compare(eig, char)

    for n in range(3, 9):
        ia = complete_intersection_array(n)
        eig = eigen_series(ia).amplitudes
        spec = spectral_series(ia).amplitudes
        table = character_table(GroupDescriptor("cyclic", n))
        fused = fused_eigenstructure(table, ((0,), tuple(range(1, n))))
        char = eigen_spectrum(fused).amplitudes(GRID).amplitudes
        compare(eig, spec, char)

    ia = catalog("petersen").array
    compare(eigen_series(ia).amplitudes, spectral_series(ia).amplitudes)

    for d, n in ((2, 3), (3, 2)):
        ia = catalog("hamming", (d, n)).array
        compare(
            eigen_series(ia).amplitudes,
            spectral_series(ia).amplitudes,
            resolve(ProductScheme(n, d)).amplitudes(GRID).amplitudes,
        )

    assert worst < 1e-10
    _report(5, f"eigen/character/spectral pairwise agreement {worst:.1e}")


UNITARITY_BATTERY = [
    ("petersen", ()),
    ("m22", ()),
    ("wells", ()),
    ("foster", ()),
    ("three_cover_gq22", ()),
    ("double_hoffman_singleton", ()),
    ("doubly_truncated_binary_golay", ()),
    ("extended_ternary_golay", ()),
    ("incidence_pg", (4,)),
    ("gen_octagon", (2, 2)),
    ("gen_dodecagon", (2,)),
    ("cycle", (7,)),
    ("cycle", (8,)),
    ("complete", (6,)),
    ("hamming", (2, 3)),
    ("johnson", (6, 3)),
]

ORACLE_BATTERY = [
    lambda: oracle.complete_graph(7),
    lambda: oracle.cycle_graph(7),
    lambda: oracle.cycle_graph(8),
    lambda: oracle.cycle_graph(9),
    oracle.petersen_graph,
    lambda: oracle.johnson_graph(4, 2),
    lambda: oracle.johnson_graph(5, 2),
    lambda: oracle.johnson_graph(6, 3),
    lambda: oracle.hamming_graph(2, 2),
    lambda: oracle.hamming_graph(2, 3),
    lambda: oracle.hamming_graph(3, 2),
]

CAYLEY_BATTERY = [
    GroupDescriptor("symmetric", 3),
    GroupDescriptor("symmetric", 4),
    GroupDescriptor("symmetric", 5),
    GroupDescriptor("dihedral", 3),
    GroupDescriptor("dihedral", 5),
    GroupDescriptor("dihedral", 7),
    GroupDescriptor("dihedral", 4),
    GroupDescriptor("cyclic", 5),
    GroupDescriptor("cyclic", 6),
    GroupDescriptor("cyclic", 9),
]


def test_criterion_6_unitarity_and_uniformity():
    worst_unitarity = 0.0
    for name, params in UNITARITY_BATTERY:
        series = spectral_series(catalog(name, params).array)
        worst_unitarity = max(worst_unitarity, series.unitarity_defect())
    for descriptor in CAYLEY_BATTERY:
        scheme = walk_scheme(descriptor)
        series = group_series(scheme)
        worst_unitarity = max(worst_unitarity, series.unitarity_defect())
    assert worst_unitarity < 1e-9

    worst_spread = 0.0
    for factory in ORACLE_BATTERY:
        g = factory()
        partition, _ = oracle.bfs_strata(g)
        worst_spread = max(
            worst_spread, oracle.check_stratum_uniformity(g, partition.strata, GRID)
        )
    for descriptor in CAYLEY_BATTERY:
        g = oracle.cayley_graph(
            descriptor,
            (descriptor.n // 2 + 1, descriptor.n // 2 + 2)
            if descriptor.kind == "dihedral" and descriptor.n % 2 == 0
            else (1,),
        )
        scheme = walk_scheme(descriptor)
        strata = tuple(
            tuple(v for c in grp for v in g.class_partition[c])
            for grp in scheme.class_groups
        )
        worst_spread = max(
            worst_spread, oracle.check_stratum_uniformity(g, strata, GRID)
        )
    assert worst_spread < 1e-9
    _report(
        6,
        f"unitarity defect {worst_unitarity:.1e}, within-stratum spread "
        f"{worst_spread:.1e} across {len(UNITARITY_BATTERY) + len(ORACLE_BATTERY) + 2 * len(CAYLEY_BATTERY)} checks",
    )


def test_criterion_7_quantum_decomposition():
    cases = [
        oracle.petersen_graph(),
        oracle.cycle_graph(7),
        oracle.johnson_graph(5, 2),
        oracle.hamming_graph(2, 3),
    ]
    worst = 0.0
    for g in cases:
        partition, ia = oracle.bfs_strata(g)
        a_plus, a_minus, a_zero = oracle.quantum_decomposition(g, partition.distances)
        assert np.array_equal(a_plus + a_minus + a_zero, g.adjacency)
        assert np.array_equal(a_minus.T, a_plus)
        worst = max(worst, oracle.ladder_residual(g, partition, ia))
    assert worst < 1e-10
    _report(7, f"raising/lowering/diagonal split exact, ladder residual {worst:.1e}")


def test_criterion_8_hamming_factorization():
    worst = 0.0
    for d in range(1, 5):
        for n in range(2, 6):
            spectrum = resolve(ProductScheme(n, d))
            series, dist = spectrum.amplitudes(GRID), hamming_distribution(d, n)
            assert np.max(np.abs(spectrum.atoms - dist.atoms)) < 1e-12
            assert np.max(np.abs(spectrum.table[:, 0] - dist.weights)) < 1e-15
            kn = eigen_series(complete_intersection_array(n))
            worst = max(
                worst,
                float(
                    np.max(np.abs(series.amplitudes[:, 0] - kn.amplitudes[:, 0] ** d))
                ),
            )
            for l, weight in enumerate(dist.weights):
                numerator = comb(d, l) * (n - 1) ** (d - l)
                assert weight * n**d == pytest.approx(numerator, abs=1e-9)
    # Larger products: every stratum against the closed form for n = 2, the
    # factorized origin amplitude otherwise.
    for n, d_max in ((2, 60), (3, 25), (4, 25)):
        kn = eigen_series(complete_intersection_array(n)).amplitudes[:, 0]
        for d in range(5, d_max + 1):
            spectrum = resolve(ProductScheme(n, d))
            dist = hamming_distribution(d, n)
            assert np.max(np.abs(spectrum.atoms - dist.atoms)) < 1e-9 * d
            series = spectrum.amplitudes(GRID)
            if n == 2:
                k = np.arange(d + 1)
                c, s = np.cos(GRID)[:, None], np.sin(GRID)[:, None]
                closed = np.sqrt([comb(d, j) for j in k]) * c ** (d - k) * (-1j * s) ** k
                err = np.max(np.abs(series.amplitudes - closed))
            else:
                err = np.max(np.abs(series.amplitudes[:, 0] - kn**d))
            worst = max(worst, float(err))
    assert worst < 1e-12
    _report(8, f"product factorization and binary closed forms up to d = 60, err {worst:.1e}")


def test_criterion_9_growing_family_limits():
    t = np.linspace(0.0, 20.0, 81)
    truncated = sum(
        np.abs(johnson_limit_amplitudes(1.0, k, t)) ** 2 for k in range(201)
    )
    ratio = t**2 / (1 + t**2)
    tail = ratio**201
    assert np.max(np.abs(truncated + tail - 1.0)) < 1e-9
    covered = tail < 1e-10
    assert covered.any()
    assert np.max(np.abs(truncated[covered] - 1.0)) < 1e-9

    origin = johnson_limit_amplitudes(0.5, 0, t)
    p = 0.5
    scale = math.sqrt(p * (2 - p))
    reference = np.zeros(len(t), dtype=complex)
    for k in range(128):
        weight = (2 * (1 - p) / (2 - p)) * (p / (2 - p)) ** k
        atom = (-p + 2 * (1 - p) * k) / scale
        reference += weight * np.exp(-1j * atom * t)
    err = float(np.max(np.abs(origin - reference)))
    assert err < 1e-10
    _report(
        9,
        f"closed-form walk is unit-norm under truncation; geometric-measure "
        f"origin matches a 128-term reference, err {err:.1e}",
    )
    _note(
        "a 200-term truncation leaves the exact geometric tail (t^2/(1+t^2))^201, "
        "about 0.6 at t = 20, so unit norm is asserted via the tail identity "
        "everywhere and directly where the tail is below 1e-10 (t <= 3)"
    )
