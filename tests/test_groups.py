import math
from itertools import permutations
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schemewalk.errors import (
    ComplexClassesWithoutSymmetrization,
    InvalidCycleType,
    InvalidOrder,
    NonIntegerResult,
    UnsupportedOrder,
)
from schemewalk.groups import (
    GroupWalkScheme,
    _root_of_unity,
    character_table,
    character_table_cyclic,
    character_table_dihedral,
    character_table_symmetric,
    class_groups,
    class_size_symmetric,
    cyclic_distance_groups,
    dihedral_merged_blueprint,
    fused_eigenstructure,
    group_elements,
    hook_length_dimension,
    intersection_numbers_group,
    mn_character,
    partitions,
    transposition_eigenvalue,
    walk_scheme,
)
from schemewalk.schemes import FromGroup, GroupDescriptor
from schemewalk.walk import eigen_spectrum

# Textbook S3 and S4 tables in ascending partition order (classes and irreps).
S3_TABLE = np.array([[1, -1, 1], [2, 0, -1], [1, 1, 1]])
S4_TABLE = np.array(
    [
        [1, -1, 1, 1, -1],
        [3, -1, -1, 0, 1],
        [2, 0, 2, -1, 0],
        [3, 1, -1, 0, -1],
        [1, 1, 1, 1, 1],
    ]
)


def test_cyclic_trivial_row_and_values():
    table = character_table_cyclic(4)
    assert np.allclose(table.values[0], 1.0)
    assert table.values[1, 1] == pytest.approx(1j)
    assert table.values[1, 2] == pytest.approx(-1.0)
    for n in (4, 8, 12):
        values = character_table_cyclic(n).values
        for j in range(n):
            for k in range(n):
                if (4 * j * k) % n == 0:
                    assert values[j, k] == (1, 1j, -1, -1j)[(4 * j * k // n) % 4]


@pytest.mark.parametrize("n", [3, 4, 5, 12, 61])
def test_cyclic_table_is_the_root_at_jk_mod_n(n):
    values = character_table_cyclic(n).values
    expected = np.array(
        [[_root_of_unity(j * k, n) for k in range(n)] for j in range(n)]
    )
    assert values.tobytes() == expected.tobytes()


def test_cyclic_row_orthogonality_tight():
    table = character_table_cyclic(5)
    gram = table.values @ table.values.conj().T
    assert np.max(np.abs(gram - 5 * np.eye(5))) < 1e-12


@given(st.integers(3, 40))
@settings(max_examples=25, deadline=None)
def test_cyclic_tables_validate(n):
    character_table_cyclic(n).validate()


def test_cyclic_rejects_small_order():
    with pytest.raises(InvalidOrder):
        character_table_cyclic(2)


def test_dihedral_class_sizes_m5():
    table = character_table_dihedral(5)
    assert table.class_sizes == (1, 5, 2, 2)


def test_dihedral_dims_m3():
    table = character_table_dihedral(3)
    assert sorted(table.irrep_dims) == [1, 1, 2]
    assert sum(d * d for d in table.irrep_dims) == 6


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
def test_dihedral_identity_column(m):
    table = character_table_dihedral(m)
    table.validate()
    assert np.allclose(table.values[:, 0].real, table.irrep_dims)


def test_symmetric_class_sizes_s4():
    table = character_table_symmetric(4)
    assert table.class_sizes == (1, 6, 3, 8, 6)
    assert table.class_labels == ("1+1+1+1", "2+1+1", "2+2", "3+1", "4")


@pytest.mark.parametrize("n,frozen", [(3, S3_TABLE), (4, S4_TABLE)])
def test_symmetric_tables_match_textbook(n, frozen):
    table = character_table_symmetric(n)
    assert np.allclose(table.values.real, frozen)
    assert np.max(np.abs(table.values.imag)) == 0.0


def test_symmetric_rejects_large_order():
    with pytest.raises(UnsupportedOrder):
        character_table_symmetric(13)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9, 10, 11, 12])
def test_symmetric_tables_validate(n):
    character_table_symmetric(n).validate()


def _young_dimension(lam: tuple[int, ...]) -> int:
    """f_lambda by the branching rule: sum over the boxes that can be removed."""
    if sum(lam) == 0:
        return 1
    total = 0
    for i, row in enumerate(lam):
        if i + 1 == len(lam) or lam[i + 1] < row:
            smaller = lam[:i] + (row - 1,) + lam[i + 1 :]
            total += _young_dimension(tuple(part for part in smaller if part))
    return total


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_large_symmetric_origin_amplitude_is_a_content_sum(n):
    """<e| e^{-iAt} |e> = sum_lambda (f_lambda^2 / n!) e^{-i content(lambda) t}
    for the transposition Cayley graph, with f_lambda from the branching rule
    and content(lambda) the sum of (column - row) over the boxes of lambda."""
    times = np.linspace(0.0, 3.0, 13)
    scheme = walk_scheme(GroupDescriptor("symmetric", n))
    spectrum = eigen_spectrum(scheme.eigenstructure, scheme.generating)
    amps = spectrum.amplitudes(times).amplitudes[:, 0]
    expected = np.zeros(len(times), dtype=complex)
    for lam in partitions(n):
        content = sum(j - i for i, row in enumerate(lam) for j in range(row))
        weight = _young_dimension(lam) ** 2 / factorial(n)
        expected += weight * np.exp(-1j * content * times)
    assert np.max(np.abs(amps - expected)) < 1e-12


@pytest.mark.parametrize("n", [4, 5, 6])
def test_ncycle_characters_supported_on_hooks(n):
    parts = partitions(n)
    ncycle = (n,)
    for lam in parts:
        value = mn_character(lam, ncycle)
        if lam[0] + len(lam) - 1 == n and all(x == 1 for x in lam[1:]):
            assert value == (-1) ** (n - lam[0])
        else:
            assert value == 0


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_hook_dimensions_are_binomials(n):
    for k in range(1, n + 1):
        lam = (k,) + (1,) * (n - k)
        assert hook_length_dimension(lam) == comb(n - 1, k - 1)
        assert mn_character(lam, (1,) * n) == comb(n - 1, k - 1)


def test_class_sizes():
    assert class_size_symmetric((1, 1, 1, 1), 4) == 1
    assert class_size_symmetric((2, 1, 1), 4) == 6
    for n in (3, 5, 7):
        assert class_size_symmetric((n,), n) == factorial(n - 1)
    with pytest.raises(InvalidCycleType):
        class_size_symmetric((3, 2), 4)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_class_sizes_by_enumeration(n):
    counts = {}
    for perm in permutations(range(n)):
        seen = [False] * n
        lengths = []
        for start in range(n):
            if seen[start]:
                continue
            length, here = 0, start
            while not seen[here]:
                seen[here] = True
                here = perm[here]
                length += 1
            lengths.append(length)
        counts.setdefault(tuple(sorted(lengths, reverse=True)), 0)
        counts[tuple(sorted(lengths, reverse=True))] += 1
    for rho, count in counts.items():
        assert class_size_symmetric(rho, n) == count


def test_transposition_eigenvalue_hooks():
    for n in (4, 5, 6):
        for k in range(1, n + 1):
            lam = (k,) + (1,) * (n - k)
            assert transposition_eigenvalue(lam) == (2 * n * k - n * n - n) // 2
    assert transposition_eigenvalue((5,)) == comb(5, 2)


def test_transposition_eigenvalue_two_two():
    # Cross-check against kappa_1 chi/d from the table: chi_(2,2) vanishes on
    # transpositions, so the eigenvalue is 0.
    table = character_table_symmetric(4)
    idx = partitions(4).index((2, 2))
    chi = table.values[idx, 1].real
    expected = table.class_sizes[1] * chi / table.irrep_dims[idx]
    assert transposition_eigenvalue((2, 2)) == int(round(expected)) == 0


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_transposition_eigenvalues_match_table(n):
    table = character_table_symmetric(n)
    parts = partitions(n)
    for idx, lam in enumerate(parts):
        from_table = table.class_sizes[1] * table.values[idx, 1].real / table.irrep_dims[idx]
        assert transposition_eigenvalue(lam) == pytest.approx(from_table)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_class_sum_eigenvalues_against_regular_representation(n):
    """Random class-sum combinations in the regular representation have exactly
    the eigenvalues kappa_k chi_i(k)/d_i predicted by the table, with
    multiplicity d_i^2 each."""
    data = group_elements(GroupDescriptor("symmetric", n))
    table = character_table_symmetric(n)
    size = len(data.elements)
    class_table = np.empty((size, size), dtype=np.int64)
    for i, alpha in enumerate(data.elements):
        inv_alpha = data.inv(alpha)
        for j, beta in enumerate(data.elements):
            class_table[i, j] = data.class_of[data.index(data.mul(inv_alpha, beta))]
    rng = np.random.default_rng(20240817)
    weights = rng.uniform(0.5, 2.0, size=table.n_classes)
    matrix = weights[class_table]
    observed = np.sort(np.linalg.eigvalsh(matrix))
    predicted = []
    for i in range(table.n_classes):
        theta = sum(
            weights[k] * table.class_sizes[k] * table.values[i, k].real
            for k in range(table.n_classes)
        ) / table.irrep_dims[i]
        predicted.extend([theta] * table.irrep_dims[i] ** 2)
    assert np.max(np.abs(observed - np.sort(predicted))) < 1e-6


def test_group_eigenstructure_cyclic_closed_forms():
    """fused_eigenstructure on the literal inverse-pair groups of Z_7."""
    es = fused_eigenstructure(character_table_cyclic(7), ((0,), (1, 6), (2, 5), (3, 4)))
    n = 7
    for j in range(4):
        assert es.P[j, 1] == pytest.approx(2 * math.cos(2 * math.pi * j / n), abs=1e-12)
    for j in range(1, 4):  # j = 0 is the all-ones idempotent with Q_k0 = 1
        for k in range(1, 4):
            assert es.Q[k, j] == pytest.approx(
                2 * math.cos(2 * math.pi * j * k / n), abs=1e-12
            )
    assert np.max(np.abs(es.P @ es.Q - n * np.eye(4))) < 1e-9


def test_group_eigenstructure_requires_symmetrization():
    """fused_eigenstructure rejects the unmerged complex classes of Z_5."""
    with pytest.raises(ComplexClassesWithoutSymmetrization):
        fused_eigenstructure(character_table_cyclic(5), ((0,), (1,), (2,), (3,), (4,)))


def test_group_eigenstructure_even_cyclic():
    # Even order: {n/2} is a real singleton class; with it listed at index 1,
    # before the literal inverse pairs, the eigenstructure must still be valid.
    es = fused_eigenstructure(character_table_cyclic(6), ((0,), (3,), (1, 5), (2, 4)))
    assert es.valencies.a == (1, 1, 2, 2)
    assert np.max(np.abs(es.P @ es.Q - 6 * np.eye(4))) < 1e-9
    assert np.allclose(es.P[0], es.valencies.a)


def test_group_eigenstructure_s3_transposition_column():
    """fused_eigenstructure on the singleton classes of S_3."""
    es = fused_eigenstructure(character_table_symmetric(3), ((0,), (1,), (2,)))
    assert np.allclose(es.P[:, 1], [3.0, 0.0, -3.0])
    assert np.allclose(es.m, [1.0, 4.0, 1.0])
    assert np.allclose(es.Q[0], es.m)


@pytest.mark.parametrize(
    "descriptor",
    [
        FromGroup(GroupDescriptor("cyclic", 5)),
        FromGroup(GroupDescriptor("cyclic", 6)),
        FromGroup(GroupDescriptor("dihedral", 5)),
        FromGroup(GroupDescriptor("dihedral", 6)),
        FromGroup(GroupDescriptor("symmetric", 4)),
        FromGroup(GroupDescriptor("symmetric", 5)),
        # Even classes: the sign irrep ties the trivial one on them.
        FromGroup(GroupDescriptor("symmetric", 4), 2),
        FromGroup(GroupDescriptor("symmetric", 5), 3),
        FromGroup(GroupDescriptor("symmetric", 5), 6),
    ],
)
def test_walk_scheme_duality(descriptor):
    scheme = walk_scheme(descriptor.group, descriptor.generating_class)
    es = scheme.eigenstructure
    size = es.d + 1
    assert np.max(np.abs(es.P @ es.Q - es.n * np.eye(size))) < 1e-9
    assert es.valencies.a[0] == 1
    assert es.m[0] == 1.0
    assert np.array_equal(es.P[0], es.valencies.a)


@pytest.mark.parametrize("n", range(3, 13))
def test_every_symmetric_class_generates_a_walk(n):
    # The origin amplitude of the walk generated by class C is
    # sum_lambda (f_lambda^2 / n!) exp(-i t |C| chi_lambda(C) / f_lambda),
    # read here from the unfused character table.
    table = character_table_symmetric(n)
    dims = np.asarray(table.irrep_dims, dtype=float)
    times = np.linspace(0.0, 2.0, 9)
    for c in range(1, table.n_classes):
        es = walk_scheme(GroupDescriptor("symmetric", n), c).eigenstructure
        assert np.array_equal(es.P[0], es.valencies.a)
        origin = eigen_spectrum(es, c).amplitudes(times).amplitudes[:, 0]
        atoms = table.class_sizes[c] * table.values[:, c].real / dims
        expected = np.exp(-1j * np.outer(times, atoms)) @ (dims**2 / factorial(n))
        assert np.max(np.abs(origin - expected)) < 1e-10


def _reference_buckets(table, groups):
    """Distinct class-sum eigenvalue rows, each with the summed d^2 of its irreps."""
    buckets = {}
    for i, dim in enumerate(table.irrep_dims):
        row = tuple(
            round((sum(table.class_sizes[c] * table.values[i, c] for c in grp) / dim).real, 6)
            + 0.0
            for grp in groups
        )
        buckets[row] = buckets.get(row, 0) + dim * dim
    return buckets


@pytest.mark.parametrize(
    "kind,n",
    [("cyclic", 6), ("cyclic", 7), ("dihedral", 8), ("dihedral", 9), ("symmetric", 5)],
)
def test_fusion_matches_reference_buckets(kind, n):
    descriptor = GroupDescriptor(kind, n)
    groups = class_groups(descriptor)
    expected = _reference_buckets(character_table(descriptor), groups)
    for generating in range(1, len(groups)):
        es = walk_scheme(descriptor, generating).eigenstructure
        rows = [tuple(round(x, 6) + 0.0 for x in row) for row in es.P]
        assert len(rows) == len(expected)
        assert dict(zip(rows, es.m)) == expected
        assert np.array_equal(es.P[0], es.valencies.a)
        assert np.all(np.diff(es.P[1:, generating]) <= 0.0)


def test_symmetrized_ordering_real_first():
    """The walk view of Z_6 merges inverse pairs and orders them by cycle distance."""
    assert cyclic_distance_groups(6) == ((0,), (1, 5), (2, 4), (3,))


def test_class_groups_are_the_walk_scheme_strata():
    for kind, n in [("cyclic", 8), ("dihedral", 7), ("dihedral", 8), ("symmetric", 5)]:
        descriptor = GroupDescriptor(kind, n)
        assert class_groups(descriptor) == walk_scheme(descriptor).class_groups
    assert class_groups(GroupDescriptor("dihedral", 7)) == tuple((k,) for k in range(5))
    assert len(class_groups(GroupDescriptor("symmetric", 5))) == 7


def test_dihedral_merged_blueprint_even():
    groups = dihedral_merged_blueprint(4)
    assert groups == ((0,), (3, 4), (1,), (2,))
    scheme = walk_scheme(GroupDescriptor("dihedral", 4))
    assert scheme.eigenstructure.valencies.a == (1, 4, 1, 2)


def test_intersection_numbers_identity_class():
    table = character_table_symmetric(4)
    for j in range(table.n_classes):
        for k in range(table.n_classes):
            assert intersection_numbers_group(table, 0, j, k) == (1 if j == k else 0)


def test_intersection_numbers_s3_brute_force():
    table = character_table_symmetric(3)
    data = group_elements(GroupDescriptor("symmetric", 3))
    assert intersection_numbers_group(table, 1, 1, 0) == 3
    for i in range(3):
        for j in range(3):
            for k in range(3):
                rep = next(
                    e for e, c in zip(data.elements, data.class_of) if c == k
                )
                count = sum(
                    1
                    for x, cx in zip(data.elements, data.class_of)
                    if cx == i
                    and data.class_of[data.index(data.mul(data.inv(x), rep))] == j
                )
                assert intersection_numbers_group(table, i, j, k) == count
                assert intersection_numbers_group(
                    table, i, j, k
                ) == intersection_numbers_group(table, j, i, k)


def test_intersection_numbers_merged_z5_convolution():
    table = character_table_cyclic(5)
    merged = ((0,), (1, 4), (2, 3))
    sets = [set(grp) for grp in merged]
    assert intersection_numbers_group(table, 1, 1, 2, merged) == 1
    for i in range(3):
        for j in range(3):
            for k in range(3):
                rep = min(sets[k])
                count = sum(
                    1
                    for x in sets[i]
                    for y in sets[j]
                    if (x + y) % 5 == rep
                )
                assert intersection_numbers_group(table, i, j, k, merged) == count


def test_intersection_numbers_reject_corrupted_table():
    table = character_table_symmetric(3)
    corrupted = table.values.copy()
    corrupted[1, 1] = 0.37
    broken = type(table)(
        group_label=table.group_label,
        class_sizes=table.class_sizes,
        class_labels=table.class_labels,
        irrep_dims=table.irrep_dims,
        irrep_labels=table.irrep_labels,
        values=corrupted,
        inverse_class_map=table.inverse_class_map,
    )
    with pytest.raises(NonIntegerResult):
        intersection_numbers_group(broken, 1, 1, 1)


def test_class_sum_consistency_row_sums():
    # Counting products two ways: sum_k p_ij^k |C_k| = |C_i||C_j|, and for a
    # fixed target class, sum_j p_ij^k = |C_i|.
    for table in (character_table_symmetric(3), character_table_symmetric(4)):
        nc = table.n_classes
        p = {
            (i, j, k): intersection_numbers_group(table, i, j, k)
            for i in range(nc)
            for j in range(nc)
            for k in range(nc)
        }
        for i in range(nc):
            for j in range(nc):
                assert (
                    sum(p[i, j, k] * table.class_sizes[k] for k in range(nc))
                    == table.class_sizes[i] * table.class_sizes[j]
                )
            for k in range(nc):
                assert sum(p[i, j, k] for j in range(nc)) == table.class_sizes[i]


def test_fused_eigenstructure_complete_graph_from_cyclic():
    table = character_table_cyclic(6)
    es = fused_eigenstructure(table, ((0,), (1, 2, 3, 4, 5)))
    assert es.valencies.a == (1, 5)
    assert np.allclose(es.P, [[1.0, 5.0], [1.0, -1.0]])
    assert np.allclose(es.m, [1.0, 5.0])


def test_walk_scheme_generating_range():
    from schemewalk.errors import BadParams

    with pytest.raises(BadParams):
        walk_scheme(GroupDescriptor("cyclic", 7), generating_class=9)
    scheme = walk_scheme(GroupDescriptor("cyclic", 7), generating_class=2)
    assert isinstance(scheme, GroupWalkScheme)
    assert scheme.eigenstructure.P[0, 2] == pytest.approx(2.0)


@pytest.mark.parametrize(
    "kind,n",
    [
        ("cyclic", 3),
        ("cyclic", 10),
        ("dihedral", 5),
        ("dihedral", 6),
        ("symmetric", 3),
        ("symmetric", 4),
        ("symmetric", 5),
    ],
)
def test_right_products_match_mul(kind, n):
    data = group_elements(GroupDescriptor(kind, n))
    for g in data.elements:
        expected = [data.index(data.mul(alpha, g)) for alpha in data.elements]
        assert data.right_products(g).tolist() == expected
