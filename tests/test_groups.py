import math
from dataclasses import replace
from fractions import Fraction
from itertools import permutations
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schemewalk.errors import (
    BadParams,
    InvalidCycleType,
    InvalidOrder,
    NonIntegerResult,
    NumericalInstability,
    UnsupportedOrder,
)
from schemewalk.groups import (
    _root_of_unity,
    cayley_table,
    character_table,
    character_table_cyclic,
    character_table_dihedral,
    character_table_symmetric,
    class_size_symmetric,
    hook_length_dimension,
    intersection_numbers_group,
    mn_character,
    partitions,
    transposition_eigenvalue,
    walk_scheme,
)
from schemewalk.schemes import FromGroup, GroupDescriptor, SchemeEigenstructure
from schemewalk.tolerances import INTEGRALITY_TOL
from schemewalk.walk import eigen_spectrum

from group_reference import ReferenceGroup, fuse, inverse, label_class_groups, row_order

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
# Textbook D8 and D10 tables in the library's class and irrep order; c_k = 2 cos(2 pi k/5).
D8_TABLE = np.array(
    [
        [1, 1, 1, 1, 1],
        [1, 1, 1, -1, -1],
        [1, 1, -1, 1, -1],
        [1, 1, -1, -1, 1],
        [2, -2, 0, 0, 0],
    ]
)
C1, C2 = (math.sqrt(5) - 1) / 2, -(math.sqrt(5) + 1) / 2
D10_TABLE = np.array([[1, 1, 1, 1], [1, -1, 1, 1], [2, 0, C1, C2], [2, 0, C2, C1]])


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


@pytest.mark.parametrize(
    "m,frozen,classes,irreps",
    [
        (
            4,
            D8_TABLE,
            (("e", 1), ("a^2", 1), ("a^1", 2), ("b_even", 2), ("b_odd", 2)),
            (("triv", 1), ("sgn_b", 1), ("sgn_a", 1), ("sgn_ab", 1), ("E_1", 2)),
        ),
        (
            5,
            D10_TABLE,
            (("e", 1), ("b", 5), ("a^1", 2), ("a^2", 2)),
            (("triv", 1), ("sgn_b", 1), ("E_1", 2), ("E_2", 2)),
        ),
    ],
)
def test_dihedral_tables_match_textbook(m, frozen, classes, irreps):
    table = character_table_dihedral(m)
    assert table.group_label == f"D{2 * m}"
    assert tuple(zip(table.class_labels, table.class_sizes)) == classes
    assert tuple(zip(table.irrep_labels, table.irrep_dims)) == irreps
    assert np.max(np.abs(table.values.real - frozen)) < 1e-15
    assert np.max(np.abs(table.values.imag)) == 0.0


def _dihedral_element(label):
    """The element a^j b^s, as (j, s), that a class label of the dihedral table names."""
    if label.startswith("a^"):
        return int(label[2:]), 0
    return {"e": (0, 0), "b": (0, 1), "b_even": (0, 1), "b_odd": (1, 1)}[label]


@pytest.mark.parametrize("m", range(3, 41))
def test_dihedral_one_dimensional_rows_are_homomorphisms(m):
    """Each column's class, conjugated out of its label's element, has the column's size and
    the classes partition the group; every one-dimensional row is then a homomorphism."""
    group = ReferenceGroup(GroupDescriptor("dihedral", m))
    table = character_table_dihedral(m)
    index = {x: i for i, x in enumerate(group.elements)}
    column = np.full(len(group.elements), -1)
    for k, label in enumerate(table.class_labels):
        x = _dihedral_element(label)
        members = {index[group.mul(group.mul(g, x), inverse(group, g))] for g in group.elements}
        assert len(members) == table.class_sizes[k]
        assert np.all(column[list(members)] == -1)
        column[list(members)] = k
    assert np.all(column >= 0)
    products = np.array([[index[group.mul(x, y)] for y in group.elements] for x in group.elements])
    for row, dim in zip(table.values, table.irrep_dims):
        if dim == 1:
            chi = row[column]
            assert np.array_equal(chi[products], np.multiply.outer(chi, chi))


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


def test_perturbed_table_is_a_numerical_defect_not_bad_params():
    table = character_table_symmetric(4)
    values = table.values.copy()
    values[3, 2] += 1e-6  # |chi| = 1 on the 3 double transpositions: the Gram diagonal moves 6e-6
    message = r"row orthogonality: defect 6e-06 > bound 1e-09"
    with pytest.raises(NumericalInstability, match=message):
        replace(table, values=values).validate()
    with pytest.raises(BadParams, match="squared irrep dimensions"):
        replace(table, irrep_dims=(1, 1, 2, 3, 2)).validate()


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
    spectrum = eigen_spectrum(scheme)
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
    group = ReferenceGroup(GroupDescriptor("symmetric", n))
    table = character_table_symmetric(n)
    size = len(group.elements)
    class_table = np.empty((size, size), dtype=np.int64)
    for i, alpha in enumerate(group.elements):
        inv_alpha = inverse(group, alpha)
        for j, beta in enumerate(group.elements):  # on S_n every class is a stratum
            class_table[i, j] = group.stratum(group.mul(inv_alpha, beta))
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
    """The walk scheme of Z_7, on the literal inverse-pair classes {g^j, g^-j}."""
    es = walk_scheme(GroupDescriptor("cyclic", 7))
    n = 7
    for j in range(4):
        assert es.P[j, 1] == pytest.approx(2 * math.cos(2 * math.pi * j / n), abs=1e-12)
    for j in range(1, 4):  # j = 0 is the all-ones idempotent with Q_k0 = 1
        for k in range(1, 4):
            assert es.Q[k, j] == pytest.approx(
                2 * math.cos(2 * math.pi * j * k / n), abs=1e-12
            )
    assert np.max(np.abs(es.P @ es.Q - n * np.eye(4))) < 1e-9


def test_group_eigenstructure_even_cyclic():
    # Even order: {n/2} is a real singleton class; with it listed at index 1,
    # before the literal inverse pairs, the eigenstructure must still be valid
    # and be the closed form's, with its columns in that order.
    es = fuse(character_table_cyclic(6), ((0,), (3,), (1, 5), (2, 4)))
    assert es.valencies.a == (1, 1, 2, 2)
    assert np.max(np.abs(es.P @ es.Q - 6 * np.eye(4))) < 1e-9
    assert np.allclose(es.P[0], es.valencies.a)
    closed = walk_scheme(GroupDescriptor("cyclic", 6)).P[:, [0, 3, 1, 2]]
    assert np.max(np.abs(closed[row_order(closed)] - es.P[row_order(es.P)])) < 1e-12


def test_group_eigenstructure_s3_transposition_column():
    """The walk scheme of S_3, on its singleton classes."""
    es = walk_scheme(GroupDescriptor("symmetric", 3))
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
    es = walk_scheme(descriptor.group, descriptor.generating_class)
    size = len(es.m)
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
        es = walk_scheme(GroupDescriptor("symmetric", n), c)
        assert np.array_equal(es.P[0], es.valencies.a)
        origin = eigen_spectrum(es).amplitudes(times).amplitudes[:, 0]
        atoms = table.class_sizes[c] * table.values[:, c].real / dims
        expected = np.exp(-1j * np.outer(times, atoms)) @ (dims**2 / factorial(n))
        assert np.max(np.abs(origin - expected)) < 1e-10


@pytest.mark.parametrize("n", range(2, 13))
def test_symmetric_walk_schemes_are_the_exact_central_characters(n):
    """On every generating class, P holds the integer central characters |K| chi_lam(K) / d_lam
    in the walk order (trivial row first, then by falling eigenvalue and irrep index), Q holds
    the integers d_lam chi_lam(K), m the squared dimensions, and PQ = nI holds exactly."""
    parts = partitions(n)
    dims = [hook_length_dimension(lam) for lam in parts]
    sizes = [class_size_symmetric(rho, n) for rho in parts]
    central, scaled = [], []
    for lam, dim in zip(parts, dims):
        row = [Fraction(size * mn_character(lam, rho), dim) for rho, size in zip(parts, sizes)]
        assert all(value.denominator == 1 for value in row)
        central.append([int(value) for value in row])
        scaled.append([dim * mn_character(lam, rho) for rho in parts])
    trivial = parts.index((n,))
    for generating in range(1, len(parts)):
        es = walk_scheme(GroupDescriptor("symmetric", n), generating)
        order = sorted(range(len(parts)), key=lambda i: (i != trivial, -central[i][generating], i))
        assert np.array_equal(es.P, np.array([central[i] for i in order], dtype=float))
        assert np.array_equal(es.Q, np.array([scaled[i] for i in order], dtype=float).T)
        assert np.array_equal(es.m, np.array([dims[i] ** 2 for i in order], dtype=float))
        assert es.duality_defect == 0.0


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
    groups = label_class_groups(character_table(descriptor))
    expected = _reference_buckets(character_table(descriptor), groups)
    for generating in range(1, len(groups)):
        es = walk_scheme(descriptor, generating)
        rows = [tuple(round(x, 6) + 0.0 for x in row) for row in es.P]
        assert len(rows) == len(expected)
        assert dict(zip(rows, es.m)) == expected
        assert np.array_equal(es.P[0], es.valencies.a)
        assert np.all(np.diff(es.P[1:, generating]) <= 0.0)


def test_symmetrized_ordering_real_first():
    """The walk view of Z_6 merges inverse pairs and orders them by cycle distance."""
    assert cayley_table(GroupDescriptor("cyclic", 6), 1)[1].tolist() == [0, 1, 2, 3, 2, 1]


def test_class_groups_are_the_walk_scheme_strata():
    for kind, n in [("cyclic", 8), ("dihedral", 7), ("dihedral", 8), ("symmetric", 5)]:
        descriptor = GroupDescriptor(kind, n)
        strata = cayley_table(descriptor, 1)[1]
        assert tuple(np.bincount(strata)) == walk_scheme(descriptor).valencies.a
        group = ReferenceGroup(descriptor)
        assert strata.tolist() == [group.stratum(x) for x in group.elements]
    odd = cayley_table(GroupDescriptor("dihedral", 7), 1)[1]
    assert odd.tolist() == [0, 2, 3, 4, 4, 3, 2] + [1] * 7  # a^j and a^-j in 1 + j
    symmetric = cayley_table(GroupDescriptor("symmetric", 5), 1)[1]
    assert len(set(symmetric.tolist())) == 7


def test_dihedral_merged_blueprint_even():
    # D_8: the reflections fuse into stratum 1, and a^2 = a^-2 is stratum 2
    strata = cayley_table(GroupDescriptor("dihedral", 4), 1)[1]
    assert strata.tolist() == [0, 3, 2, 3, 1, 1, 1, 1]
    scheme = walk_scheme(GroupDescriptor("dihedral", 4))
    assert scheme.valencies.a == (1, 4, 1, 2)


def test_intersection_numbers_identity_class():
    table = character_table_symmetric(4)
    for j in range(table.n_classes):
        for k in range(table.n_classes):
            assert intersection_numbers_group(table, 0, j, k) == (1 if j == k else 0)


def test_intersection_numbers_s3_brute_force():
    table = character_table_symmetric(3)
    group = ReferenceGroup(GroupDescriptor("symmetric", 3))
    classes = [group.stratum(x) for x in group.elements]  # on S_n every class is a stratum
    assert intersection_numbers_group(table, 1, 1, 0) == 3
    for i in range(3):
        for j in range(3):
            for k in range(3):
                rep = next(e for e, c in zip(group.elements, classes) if c == k)
                count = sum(
                    1
                    for x, cx in zip(group.elements, classes)
                    if cx == i
                    and group.stratum(group.mul(inverse(group, x), rep)) == j
                )
                assert intersection_numbers_group(table, i, j, k) == count
                assert intersection_numbers_group(
                    table, i, j, k
                ) == intersection_numbers_group(table, j, i, k)


def test_intersection_numbers_merged_z5_convolution():
    # The walk scheme of Z_5 merges each class with its inverse: p_ij^k solves P p = P_i P_j.
    P = walk_scheme(GroupDescriptor("cyclic", 5)).P
    merged = ((0,), (1, 4), (2, 3))
    sets = [set(grp) for grp in merged]
    assert np.linalg.solve(P, P[:, 1] * P[:, 1])[2] == pytest.approx(1, abs=INTEGRALITY_TOL)
    for i in range(3):
        for j in range(3):
            p = np.linalg.solve(P, P[:, i] * P[:, j])
            for k in range(3):
                rep = min(sets[k])
                count = sum(
                    1
                    for x in sets[i]
                    for y in sets[j]
                    if (x + y) % 5 == rep
                )
                assert p[k] == pytest.approx(count, abs=INTEGRALITY_TOL)


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
    es = fuse(table, ((0,), (1, 2, 3, 4, 5)))
    assert es.valencies.a == (1, 5)
    assert np.allclose(es.P, [[1.0, 5.0], [1.0, -1.0]])
    assert np.allclose(es.m, [1.0, 5.0])


def test_corrupted_walk_scheme_fails_when_built():
    es = walk_scheme(GroupDescriptor("symmetric", 4))
    P = es.P.copy()
    P[2, 3] += 1e-3
    with pytest.raises(NumericalInstability, match="PQ != nI"):
        SchemeEigenstructure(P=P, Q=es.Q, m=es.m, valencies=es.valencies)


@pytest.mark.parametrize("kind,n", [("cyclic", 12), ("dihedral", 7), ("symmetric", 5)])
def test_generating_stratum_names_the_atoms_column(kind, n):
    descriptor = GroupDescriptor(kind, n)
    for c in range(1, len(walk_scheme(descriptor).m)):
        es = walk_scheme(descriptor, c)
        spectrum = eigen_spectrum(es)
        assert es.generating == spectrum.generating == c
        assert np.array_equal(spectrum.atoms, es.P[:, c])


def test_walk_scheme_generating_range():
    from schemewalk.errors import BadParams

    with pytest.raises(BadParams):
        walk_scheme(GroupDescriptor("cyclic", 7), generating_class=9)
    scheme = walk_scheme(GroupDescriptor("cyclic", 7), generating_class=2)
    assert isinstance(scheme, SchemeEigenstructure)
    assert scheme == scheme and scheme in {scheme}  # compared and hashed by identity
    assert scheme.P[0, 2] == pytest.approx(2.0)


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
    # one call multiplies every element by a whole stratum: column j is its j-th element
    descriptor = GroupDescriptor(kind, n)
    group = ReferenceGroup(descriptor)
    index = {x: i for i, x in enumerate(group.elements)}
    strata = [group.stratum(x) for x in group.elements]
    for generating in range(1, max(strata) + 1):
        table, table_strata = cayley_table(descriptor, generating)
        assert table_strata.tolist() == strata
        gs = [g for g, s in zip(group.elements, strata) if s == generating]
        assert table.shape == (len(group.elements), len(gs))
        for j, g in enumerate(gs):
            assert table[:, j].tolist() == [index[group.mul(alpha, g)] for alpha in group.elements]


@pytest.mark.parametrize(
    "kind,sizes",
    [("cyclic", range(3, 121)), ("dihedral", range(3, 121)), ("symmetric", range(2, 7))],
)
def test_strata_hold_the_valencies_and_every_inverse(kind, sizes):
    """Each stratum has its valency's size and holds the inverse of each of its
    elements, so it generates an undirected Cayley graph as it stands."""
    for n in sizes:
        descriptor = GroupDescriptor(kind, n)
        group = ReferenceGroup(descriptor)
        strata = cayley_table(descriptor, 1)[1]
        valencies = walk_scheme(descriptor).valencies.a
        assert tuple(np.bincount(strata).tolist()) == valencies
        stratum = dict(zip(group.elements, strata.tolist()))
        for x, s in stratum.items():
            assert stratum[inverse(group, x)] == s


@pytest.mark.parametrize("kind", ["cyclic", "dihedral"])
def test_strata_hold_the_valencies_at_the_oracle_cap(kind):
    descriptor = GroupDescriptor(kind, 2000 if kind == "cyclic" else 1000)  # 2000 elements
    strata = cayley_table(descriptor, 1)[1]
    assert len(strata) == 2000
    assert tuple(np.bincount(strata).tolist()) == walk_scheme(descriptor).valencies.a


CLOSED_FORM_SIZES = [("cyclic", n) for n in (*range(3, 81), 101, 300, 600, 601)] + [
    ("dihedral", m) for m in (*range(3, 81), 200, 449, 450, 700)
]


@pytest.mark.parametrize("kind,n", CLOSED_FORM_SIZES)
def test_closed_form_matches_table_fusion(kind, n):
    """The cosine closed form gives the eigenstructure that fusing the full
    character table gives, on every generating class."""
    descriptor = GroupDescriptor(kind, n)
    table = character_table(descriptor)
    groups = label_class_groups(table)
    ref = fuse(table, groups)
    theirs = row_order(ref.P)  # fusion breaks ties between equal eigenvalues by rounding noise
    for generating in range(1, len(groups)):
        es = walk_scheme(descriptor, generating)
        ours = row_order(es.P)
        assert es.valencies == ref.valencies
        assert np.array_equal(es.m[ours], ref.m[theirs])
        for a, b in ((es.P[ours], ref.P[theirs]), (es.Q[:, ours], ref.Q[:, theirs])):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


@pytest.mark.parametrize("m", [*range(3, 81), 200, 449, 450, 700])
def test_dihedral_table_matches_the_cosine_loop(m):
    """E_h rows against chi_h(a^j) = 2 cos(2 pi hj/m), evaluated term by term."""
    table = character_table_dihedral(m)
    for i, label in enumerate(table.irrep_labels):
        if not label.startswith("E_"):
            continue
        h = int(label[2:])
        for k, cls in enumerate(table.class_labels):
            if cls.startswith("a^"):
                expected = 2.0 * math.cos(2.0 * math.pi * h * int(cls[2:]) / m)
            else:
                expected = 2.0 if cls == "e" else 0.0
            assert abs(table.values[i, k] - expected) < 1e-12


def test_cyclic_walk_scheme_holds_no_order_squared_array():
    import tracemalloc

    n = 3000
    tracemalloc.start()
    try:
        walk_scheme(GroupDescriptor("cyclic", n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    strata_bytes = (n // 2 + 1) ** 2 * 8
    # The complex n x n table alone would be 8 * strata_bytes.
    assert peak < 5 * strata_bytes


def test_size_budget_is_checked_before_building(monkeypatch):
    import schemewalk.schemes as schemes
    from schemewalk.errors import TooLarge

    monkeypatch.setattr(schemes, "MAX_STRATA", 10)
    walk_scheme(GroupDescriptor("cyclic", 19))  # d + 1 = 10
    walk_scheme(GroupDescriptor("dihedral", 17))  # d + 1 = 10
    for build in (
        lambda: walk_scheme(GroupDescriptor("cyclic", 20)),
        lambda: walk_scheme(GroupDescriptor("dihedral", 18)),
        lambda: character_table_cyclic(20),
        lambda: character_table_dihedral(18),
    ):
        with pytest.raises(TooLarge, match="11 strata, over the cap of 10"):
            build()


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12, 14, 30, 600, 602, 1000])
def test_even_cyclic_cosines_are_antisymmetric_bit_for_bit(n):
    from schemewalk.groups import _cosine_block

    cosines = _cosine_block(n, np.array([1]), np.arange(n))[0]
    k = np.arange(n)
    assert np.array_equal(cosines, cosines[-k % n])
    assert np.array_equal(cosines[(k + n // 2) % n], -cosines)
    assert not np.any(np.signbit(cosines[cosines == 0]))
    assert np.max(np.abs(cosines - 2 * np.cos(2 * np.pi * k / n))) < 16 * np.finfo(float).eps


@pytest.mark.parametrize("n", [4, 30, 600, 602])
def test_even_cyclic_spectra_are_symmetric(n):
    es = walk_scheme(GroupDescriptor("cyclic", n))
    atoms = np.sort(es.P[:, 1])
    assert np.array_equal(atoms, -atoms[::-1])
