"""Conjugacy-class association schemes of cyclic, dihedral and symmetric groups.

Character tables drive everything: class-sum eigenvalues give the scheme
eigenvalue matrix, squared irrep dimensions give the multiplicities, and
merging each complex class with its inverse class (or fusing classes along a
blueprint) produces a symmetric scheme with real eigenmatrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import permutations
from math import comb, factorial

import numpy as np

from .errors import (
    BadParams,
    ComplexClassesWithoutSymmetrization,
    InvalidCycleType,
    InvalidOrder,
    NonIntegerResult,
)
from .schemes import (
    GroupDescriptor,
    SchemeEigenstructure,
    ValencyVector,
)

ORTHOGONALITY_TOL = 1e-9
REALNESS_TOL = 1e-12
FUSION_KEY_DECIMALS = 9


# ---------------------------------------------------------------------------
# Partitions and symmetric-group combinatorics
# ---------------------------------------------------------------------------


@cache
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n as weakly decreasing tuples, in ascending lex order."""
    if n == 0:
        return ((),)

    def gen(remaining: int, largest: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first, *rest)

    return tuple(sorted(gen(n, n)))


def conjugate_partition(lam: tuple[int, ...]) -> tuple[int, ...]:
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > i) for i in range(lam[0]))


def class_size_symmetric(cycle_type: tuple[int, ...], n: int) -> int:
    """Number of permutations of S_n with the given multiset of cycle lengths."""
    if sum(cycle_type) != n or any(part < 1 for part in cycle_type):
        raise InvalidCycleType(f"{cycle_type} is not a cycle type of S_{n}")
    denom = 1
    for length in set(cycle_type):
        count = cycle_type.count(length)
        denom *= length**count * factorial(count)
    return factorial(n) // denom


def hook_length_dimension(lam: tuple[int, ...]) -> int:
    """Irreducible representation dimension by the hook-length product."""
    n = sum(lam)
    conj = conjugate_partition(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= (row - j) + (conj[j] - i) - 1
    return factorial(n) // hooks


@cache
def _mn(lam: tuple[int, ...], rho: tuple[int, ...]) -> int:
    if not rho:
        return 1 if not lam else 0
    k, rest = rho[0], rho[1:]
    r = len(lam)
    beta = [lam[i] + (r - 1 - i) for i in range(r)]
    bset = set(beta)
    total = 0
    for bj in beta:
        nb = bj - k
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for b in beta if nb < b < bj)
        new_beta = sorted((b for b in beta if b != bj), reverse=True)
        new_beta.append(nb)
        new_beta.sort(reverse=True)
        new_lam = tuple(
            b - (r - 1 - i) for i, b in enumerate(new_beta) if b - (r - 1 - i) > 0
        )
        total += (-1) ** height * _mn(new_lam, rest)
    return total


def mn_character(lam: tuple[int, ...], rho: tuple[int, ...]) -> int:
    """Symmetric-group character value chi_lam on the class of cycle type rho.

    Rim hooks are peeled off for the cycle lengths in decreasing order; the
    result does not depend on that order, only the memo cache layout does.
    """
    if sum(lam) != sum(rho):
        raise InvalidCycleType("partition and cycle type must have equal size")
    return _mn(tuple(lam), tuple(sorted(rho, reverse=True)))


def transposition_eigenvalue(lam: tuple[int, ...]) -> int:
    """Adjacency eigenvalue of the transposition relation on the irrep of shape lam."""
    conj = conjugate_partition(lam)
    return sum(comb(part, 2) for part in lam) - sum(comb(part, 2) for part in conj)


# ---------------------------------------------------------------------------
# Character tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CharacterTable:
    """Class data and complex character values of a finite group."""

    group_label: str
    class_sizes: tuple[int, ...]
    class_labels: tuple[str, ...]
    irrep_dims: tuple[int, ...]
    irrep_labels: tuple[str, ...]
    values: np.ndarray  # (irreps, classes), complex
    inverse_class_map: tuple[int, ...]

    @property
    def order(self) -> int:
        return sum(self.class_sizes)

    @property
    def n_classes(self) -> int:
        return len(self.class_sizes)

    def validate(self) -> None:
        order = self.order
        if sum(d * d for d in self.irrep_dims) != order:
            raise BadParams("squared irrep dimensions must sum to the group order")
        kappa = np.asarray(self.class_sizes, dtype=float)
        gram = (self.values * kappa) @ self.values.conj().T
        if np.max(np.abs(gram - order * np.eye(len(self.irrep_dims)))) > ORTHOGONALITY_TOL:
            raise BadParams("row orthogonality violated")
        col = self.values.conj().T @ self.values
        expected = np.diag(order / kappa)
        if np.max(np.abs(col - expected)) > ORTHOGONALITY_TOL:
            raise BadParams("column orthogonality violated")
        ident = np.asarray(self.irrep_dims, dtype=complex)
        if np.max(np.abs(self.values[:, 0] - ident)) > ORTHOGONALITY_TOL:
            raise BadParams("identity-class column must equal the irrep dimensions")


def _root_of_unity(num: int, den: int) -> complex:
    """exp(2 pi i num/den) with exact values on the axes."""
    num %= den
    if (4 * num) % den == 0:
        return (1 + 0j, 1j, -1 + 0j, -1j)[(4 * num) // den]
    angle = 2.0 * math.pi * num / den
    return complex(math.cos(angle), math.sin(angle))


def character_table_cyclic(n: int) -> CharacterTable:
    """All-one-dimensional table chi_j(g^k) = exp(2 pi i jk/n)."""
    if n < 3:
        raise InvalidOrder(f"cyclic table needs n >= 3, got {n}")
    roots = np.array([_root_of_unity(k, n) for k in range(n)])
    exponents = np.outer(np.arange(n), np.arange(n))
    exponents %= n
    values = roots[exponents]
    return CharacterTable(
        group_label=f"Z{n}",
        class_sizes=(1,) * n,
        class_labels=tuple(f"g^{k}" for k in range(n)),
        irrep_dims=(1,) * n,
        irrep_labels=tuple(f"chi_{j}" for j in range(n)),
        values=values,
        inverse_class_map=tuple((n - k) % n for k in range(n)),
    )


def character_table_dihedral(m: int) -> CharacterTable:
    """Dihedral group of order 2m; the class layout depends on the parity of m."""
    if m < 3:
        raise InvalidOrder(f"dihedral table needs m >= 3, got {m}")
    if m % 2 == 1:
        half = (m - 1) // 2
        sizes = (1, m) + (2,) * half
        labels = ("e", "b") + tuple(f"a^{j}" for j in range(1, half + 1))
        dims = (1, 1) + (2,) * half
        irrep_labels = ("triv", "sgn_b") + tuple(f"E_{h}" for h in range(1, half + 1))
        values = np.zeros((len(dims), len(sizes)), dtype=complex)
        values[0, :] = 1.0
        values[1] = [1.0, -1.0] + [1.0] * half
        for h in range(1, half + 1):
            row = values[h + 1]
            row[0] = 2.0
            row[1] = 0.0
            for j in range(1, half + 1):
                row[1 + j] = 2.0 * math.cos(2.0 * math.pi * h * j / m)
    else:
        ell = m // 2
        sizes = (1, 1) + (2,) * (ell - 1) + (ell, ell)
        labels = (
            ("e", f"a^{ell}")
            + tuple(f"a^{j}" for j in range(1, ell))
            + ("b_even", "b_odd")
        )
        dims = (1, 1, 1, 1) + (2,) * (ell - 1)
        irrep_labels = ("triv", "sgn_b", "sgn_a", "sgn_ab") + tuple(
            f"E_{h}" for h in range(1, ell)
        )
        nc = len(sizes)
        values = np.zeros((len(dims), nc), dtype=complex)
        values[0, :] = 1.0
        values[1] = [1.0, 1.0] + [1.0] * (ell - 1) + [-1.0, -1.0]
        values[2] = (
            [1.0, (-1.0) ** ell]
            + [(-1.0) ** j for j in range(1, ell)]
            + [1.0, -1.0]
        )
        values[3] = (
            [1.0, (-1.0) ** ell]
            + [(-1.0) ** j for j in range(1, ell)]
            + [-1.0, 1.0]
        )
        for h in range(1, ell):
            row = values[3 + h]
            row[0] = 2.0
            row[1] = 2.0 * (-1.0) ** h
            for j in range(1, ell):
                row[1 + j] = 2.0 * math.cos(2.0 * math.pi * h * j / m)
            row[nc - 2] = 0.0
            row[nc - 1] = 0.0
    return CharacterTable(
        group_label=f"D{2 * m}",
        class_sizes=sizes,
        class_labels=labels,
        irrep_dims=dims,
        irrep_labels=irrep_labels,
        values=values,
        inverse_class_map=tuple(range(len(sizes))),
    )


def character_table_symmetric(n: int) -> CharacterTable:
    """Integer character table of S_n; classes and irreps both indexed by partitions."""
    descriptor = GroupDescriptor("symmetric", n)  # range check
    parts = partitions(descriptor.n)
    nc = len(parts)
    values = np.zeros((nc, nc), dtype=complex)
    for i, lam in enumerate(parts):
        for k, rho in enumerate(parts):
            values[i, k] = mn_character(lam, rho)
    sizes = tuple(class_size_symmetric(rho, n) for rho in parts)
    dims = tuple(hook_length_dimension(lam) for lam in parts)
    labels = tuple("+".join(str(p) for p in rho) for rho in parts)
    return CharacterTable(
        group_label=f"S{n}",
        class_sizes=sizes,
        class_labels=labels,
        irrep_dims=dims,
        irrep_labels=labels,
        values=values,
        inverse_class_map=tuple(range(nc)),
    )


def character_table(descriptor: GroupDescriptor) -> CharacterTable:
    if descriptor.kind == "cyclic":
        return character_table_cyclic(descriptor.n)
    if descriptor.kind == "dihedral":
        return character_table_dihedral(descriptor.n)
    return character_table_symmetric(descriptor.n)


# ---------------------------------------------------------------------------
# Fusion: merged classes -> symmetric scheme eigenstructure
# ---------------------------------------------------------------------------


def cyclic_distance_groups(n: int) -> tuple[tuple[int, ...], ...]:
    """Inverse-pair class merging of Z_n in cycle-distance order.

    The generating pair {g, g^-1} sits at index 1 for every n, matching the
    distance strata of the cycle graph.
    """
    groups: list[tuple[int, ...]] = [(0,)]
    for j in range(1, (n - 1) // 2 + 1):
        groups.append((j, n - j))
    if n % 2 == 0:
        groups.append((n // 2,))
    return tuple(groups)


def dihedral_merged_blueprint(m: int) -> tuple[tuple[int, ...], ...]:
    """Class fusion used by the walk on even dihedral groups: one reflection class.

    Order: identity, merged reflections, the central rotation, rotation pairs.
    """
    if m % 2 == 1:
        return tuple((k,) for k in range(2 + m // 2))
    ell = m // 2
    nc = ell + 3
    return ((0,), (nc - 2, nc - 1), (1,)) + tuple((j,) for j in range(2, ell + 1))


def fused_eigenstructure(
    table: CharacterTable,
    class_groups: tuple[tuple[int, ...], ...],
    generating: int = 1,
) -> SchemeEigenstructure:
    """Eigenstructure of the scheme whose relations are the fused class sums.

    Irreps whose class-sum eigenvalues agree on every fused class merge into
    one idempotent of multiplicity sum(d_i^2).  The trivial idempotent comes
    first; the rest follow by decreasing eigenvalue on the generating
    relation, then by lowest irrep index.
    """
    if class_groups[0] != (0,):
        raise BadParams("class group 0 must be the identity class alone")
    members = np.concatenate(class_groups)
    if not np.array_equal(np.sort(members), np.arange(table.n_classes)):
        raise BadParams("class groups must partition the class indices")
    starts = np.cumsum([0] + [len(grp) for grp in class_groups[:-1]])
    sizes = np.asarray(table.class_sizes)[members]
    dims = np.asarray(table.irrep_dims, dtype=float)

    ev = table.values[:, members]
    ev *= sizes
    ev = np.add.reduceat(ev, starts, axis=1)
    ev /= dims[:, None]
    if np.max(np.abs(ev.imag)) > REALNESS_TOL:
        raise ComplexClassesWithoutSymmetrization(
            "fused class sums have non-real eigenvalues; merge inverse classes first"
        )
    ev = ev.real

    _, first, bucket = np.unique(
        np.round(ev, FUSION_KEY_DECIMALS), axis=0, return_index=True, return_inverse=True
    )
    if len(first) != len(class_groups):
        raise BadParams(
            f"fusion produced {len(first)} idempotents for {len(class_groups)} relations; "
            "the class groups do not define a scheme"
        )
    # Only the trivial row (the valencies) sums to the group order; the others sum to 0.
    nontrivial = ev[first].sum(axis=1) < table.order / 2
    order = np.lexsort((first, -ev[first, generating], nontrivial))

    P = ev[first[order]]
    m = np.bincount(bucket, weights=dims**2)[order]
    valencies = ValencyVector(tuple(np.add.reduceat(sizes, starts).tolist()), table.order)
    Q = (m[None, :] * P.T) / np.asarray(valencies.a, dtype=float)[:, None]
    es = SchemeEigenstructure(P=P, Q=Q, m=m, valencies=valencies)
    es.validate()
    return es


def intersection_numbers_group(
    table: CharacterTable,
    i: int,
    j: int,
    k: int,
    class_groups: tuple[tuple[int, ...], ...] | None = None,
) -> int:
    """Structure constant p_ij^k of the (possibly fused) class-sum algebra."""
    if class_groups is None:
        kappa = table.class_sizes
        dims = np.asarray(table.irrep_dims, dtype=complex)
        total = np.sum(
            table.values[:, i] * table.values[:, j] * np.conj(table.values[:, k]) / dims
        )
        value = (kappa[i] * kappa[j] / table.order) * total
        if abs(value.imag) > 1e-6 or abs(value.real - round(value.real)) > 1e-6:
            raise NonIntegerResult(f"p_{i}{j}^{k} = {value} is not a nonnegative integer")
        return int(round(value.real))

    es = fused_eigenstructure(table, class_groups)
    product = es.P[:, i] * es.P[:, j]
    coeffs = np.linalg.solve(es.P, product)
    value = coeffs[k]
    if abs(value - round(value)) > 1e-6:
        raise NonIntegerResult(f"fused p_{i}{j}^{k} = {value} is not an integer")
    return int(round(value))


# ---------------------------------------------------------------------------
# Explicit group elements (consumed by the vertex-level oracle)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GroupElements:
    """Element list with multiplication, inversion and raw-class membership."""

    descriptor: GroupDescriptor
    elements: tuple
    labels: tuple[str, ...]
    class_of: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_index", {el: i for i, el in enumerate(self.elements)}
        )

    def index(self, element) -> int:
        return self._index[element]

    def mul(self, x, y):
        raise NotImplementedError

    def inv(self, x):
        raise NotImplementedError

    def right_products(self, g) -> np.ndarray:
        """Index of alpha * g for every element alpha, in element order."""
        raise NotImplementedError


class _CyclicElements(GroupElements):
    def mul(self, x, y):
        return (x + y) % self.descriptor.n

    def inv(self, x):
        return (-x) % self.descriptor.n

    def right_products(self, g) -> np.ndarray:
        return (np.arange(self.descriptor.n) + g) % self.descriptor.n


class _DihedralElements(GroupElements):
    def mul(self, x, y):
        m = self.descriptor.n
        r1, s1 = x
        r2, s2 = y
        return ((r1 + (r2 if s1 == 0 else -r2)) % m, s1 ^ s2)

    def inv(self, x):
        m = self.descriptor.n
        r, s = x
        return ((-r) % m, 0) if s == 0 else x

    def right_products(self, g) -> np.ndarray:
        # Element (r, s) sits at index s * m + r; see group_elements.
        m = self.descriptor.n
        r2, s2 = g
        r = np.tile(np.arange(m), 2)
        s = np.repeat([0, 1], m)
        return (s ^ s2) * m + (r + np.where(s == 0, r2, -r2)) % m


class _SymmetricElements(GroupElements):
    def mul(self, x, y):
        return tuple(x[i] for i in y)

    def inv(self, x):
        out = [0] * len(x)
        for i, xi in enumerate(x):
            out[xi] = i
        return tuple(out)

    @cached_property
    def _perms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(permutations as rows, base-n place values, sorted base-n keys)."""
        perms = np.array(self.elements, dtype=np.int64)
        n = perms.shape[1]
        place = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
        return perms, place, perms @ place

    def right_products(self, g) -> np.ndarray:
        # Elements are sorted tuples, so their base-n keys ascend.
        perms, place, keys = self._perms
        return np.searchsorted(keys, perms[:, list(g)] @ place)


def _cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        here = start
        while not seen[here]:
            seen[here] = True
            here = perm[here]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def group_elements(descriptor: GroupDescriptor) -> GroupElements:
    """Enumerate the group with the identity first and tag every element's class."""
    if descriptor.kind == "cyclic":
        n = descriptor.n
        elems = tuple(range(n))
        data = _CyclicElements(
            descriptor, elems, tuple(f"g^{k}" for k in elems), tuple(range(n))
        )
    elif descriptor.kind == "dihedral":
        m = descriptor.n
        elems = tuple((r, s) for s in (0, 1) for r in range(m))
        labels = tuple(f"a^{r}" if s == 0 else f"a^{r}b" for (r, s) in elems)
        classes = []
        for r, s in elems:
            if m % 2 == 1:
                if s == 1:
                    classes.append(1)
                elif r == 0:
                    classes.append(0)
                else:
                    classes.append(1 + min(r, m - r))
            else:
                ell = m // 2
                if s == 1:
                    classes.append(ell + 1 if r % 2 == 0 else ell + 2)
                elif r == 0:
                    classes.append(0)
                elif r == ell:
                    classes.append(1)
                else:
                    classes.append(1 + min(r, m - r))
        data = _DihedralElements(descriptor, elems, labels, tuple(classes))
    else:
        n = descriptor.n
        parts = partitions(n)
        elems = tuple(sorted(permutations(range(n))))
        classes = tuple(parts.index(_cycle_type(p)) for p in elems)
        labels = tuple("".join(str(i) for i in p) for p in elems)
        data = _SymmetricElements(descriptor, elems, labels, classes)
    return data


# ---------------------------------------------------------------------------
# Walk-facing view: strata, eigenstructure and generating relation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GroupWalkScheme:
    """Everything the walk engines need for a group scheme."""

    table: CharacterTable
    class_groups: tuple[tuple[int, ...], ...]
    eigenstructure: SchemeEigenstructure
    generating: int  # stratum index of the generating relation


def class_groups(descriptor: GroupDescriptor) -> tuple[tuple[int, ...], ...]:
    """Raw conjugacy classes fused into each stratum of the walk scheme.

    Cyclic groups are symmetrized; even dihedral groups fuse the two
    reflection classes into a single relation; symmetric and odd dihedral
    classes are used as-is.  A generating class names an index into this.
    """
    if descriptor.kind == "cyclic":
        return cyclic_distance_groups(descriptor.n)
    if descriptor.kind == "dihedral":
        return dihedral_merged_blueprint(descriptor.n)
    return tuple((k,) for k in range(len(partitions(descriptor.n))))


def walk_scheme(
    descriptor: GroupDescriptor, generating_class: int | None = None
) -> GroupWalkScheme:
    """Build the scheme a walk on this group runs over; the default generating stratum is 1."""
    table = character_table(descriptor)
    groups = class_groups(descriptor)
    generating = 1 if generating_class is None else generating_class
    if not 1 <= generating < len(groups):
        raise BadParams(f"generating class {generating} out of range")
    es = fused_eigenstructure(table, groups, generating)
    return GroupWalkScheme(
        table=table, class_groups=groups, eigenstructure=es, generating=generating
    )
