"""Conjugacy-class association schemes of cyclic, dihedral and symmetric groups.

Class-sum eigenvalues give the scheme eigenvalue matrix, squared irrep
dimensions give the multiplicities, and merging each complex class with its
inverse class (or fusing classes along a blueprint) produces a symmetric
scheme with real eigenmatrices.  Symmetric groups fuse their character
table; the characters of cyclic and dihedral groups are cosines, so their
fused schemes are built from cosines directly.
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
    NumericalInstability,
)
from .schemes import (
    GroupDescriptor,
    SchemeEigenstructure,
    ValencyVector,
    check_strata,
)
from .tolerances import FUSION_KEY_DECIMALS, INTEGRALITY_TOL, ORTHOGONALITY_TOL, REALNESS_TOL


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
        check = NumericalInstability.check
        check("row orthogonality", gram - order * np.eye(len(self.irrep_dims)), ORTHOGONALITY_TOL)
        col = self.values.conj().T @ self.values
        check("column orthogonality", col - np.diag(order / kappa), ORTHOGONALITY_TOL)
        ident = self.values[:, 0] - np.asarray(self.irrep_dims)
        check("identity-class column against the irrep dimensions", ident, ORTHOGONALITY_TOL)


def _root_of_unity(num: int, den: int) -> complex:
    """exp(2 pi i num/den) with exact values on the axes."""
    num %= den
    if (4 * num) % den == 0:
        return (1 + 0j, 1j, -1 + 0j, -1j)[(4 * num) // den]
    angle = 2.0 * math.pi * num / den
    return complex(math.cos(angle), math.sin(angle))


def _cosine_block(n: int, h: np.ndarray, j: np.ndarray) -> np.ndarray:
    """2 cos(2 pi hj/n) for every h in ``h`` and j in ``j``.

    The values come from one length-n vector, gathered at hj mod n.  Entry k
    of the vector is cos(2 pi k/n) + cos(2 pi (n-k)/n), exact on the axes as in
    ``_root_of_unity``: entries k and n-k agree bit for bit, so eigenvalues
    that are equal in exact arithmetic stay equal, and the values match the
    inverse-pair class sums of the cyclic character table.  For even n, the
    first quadrant fills the rest so that entry k + n/2 is exactly -entry k.
    """
    cosines = np.array([_root_of_unity(k, n).real for k in range(n)])
    cosines += cosines[-np.arange(n) % n]
    if n % 2 == 0:
        quadrant = np.arange(n // 4 + 1)
        cosines[n // 2 - quadrant] = 0.0 - cosines[quadrant]
        cosines[n // 2 + 1 :] = cosines[n // 2 - 1 : 0 : -1]
    index = np.multiply.outer(h, j)
    index %= n
    return cosines[index]


def _dihedral_rotations(m: int) -> np.ndarray:
    """Rotation exponents of D_2m's rotation classes in table order: e, a^(m/2) if m is even, a^j."""
    central = [m // 2] if m % 2 == 0 else []
    return np.array([0, *central, *range(1, (m + 1) // 2)])


def walk_strata(kind: str, n: int) -> int:
    """d+1 of the walk scheme of Z_n, D_2n or S_n, known before anything is built."""
    if kind == "symmetric":
        return len(partitions(n))
    return n // 2 + (1 if kind == "cyclic" else 2)


def character_table_cyclic(n: int) -> CharacterTable:
    """All-one-dimensional table chi_j(g^k) = exp(2 pi i jk/n)."""
    if n < 3:
        raise InvalidOrder(f"cyclic table needs n >= 3, got {n}")
    check_strata(walk_strata("cyclic", n), f"Z{n}")
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
    )


def character_table_dihedral(m: int) -> CharacterTable:
    """Dihedral group of order 2m; the class layout depends on the parity of m."""
    if m < 3:
        raise InvalidOrder(f"dihedral table needs m >= 3, got {m}")
    check_strata(walk_strata("dihedral", m), f"D{2 * m}")
    ell = m // 2
    rotations = _dihedral_rotations(m)
    if m % 2 == 1:
        sizes = (1, m) + (2,) * ell
        labels = ("e", "b") + tuple(f"a^{j}" for j in range(1, ell + 1))
        dims = (1, 1) + (2,) * ell
        irrep_labels = ("triv", "sgn_b") + tuple(f"E_{h}" for h in range(1, ell + 1))
        values = np.zeros((len(dims), len(sizes)), dtype=complex)
        values[0, :] = 1.0
        values[1] = [1.0, -1.0] + [1.0] * ell
        values[2:, [0, *range(2, ell + 2)]] = _cosine_block(m, rotations[1:], rotations)
    else:
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
        values[4:, : ell + 1] = _cosine_block(m, rotations[2:], rotations)
    return CharacterTable(
        group_label=f"D{2 * m}",
        class_sizes=sizes,
        class_labels=labels,
        irrep_dims=dims,
        irrep_labels=irrep_labels,
        values=values,
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


def _ordered_eigenstructure(
    rows: np.ndarray,
    irreps: np.ndarray,
    m: np.ndarray,
    valencies: ValencyVector,
    generating: int,
) -> SchemeEigenstructure:
    """Order distinct eigenvalue rows into P, derive Q = m P^T / a and validate.

    The trivial idempotent comes first; the rest follow by decreasing
    eigenvalue on the generating relation, then by lowest irrep index.
    ``rows`` is reordered in place and becomes P, so no second copy outlives
    the sort.
    """
    # Only the trivial row (the valencies) sums to the group order; the others sum to 0.
    nontrivial = rows.sum(axis=1) < valencies.n / 2
    order = np.lexsort((irreps, -rows[:, generating], nontrivial))
    rows[:] = rows[order]
    P = rows
    m = m[order]
    Q = P.T * m
    Q /= np.asarray(valencies.a, dtype=float)[:, None]
    es = SchemeEigenstructure(P=P, Q=Q, m=m, valencies=valencies)
    es.validate()
    return es


def fused_eigenstructure(
    table: CharacterTable,
    class_groups: tuple[tuple[int, ...], ...],
    generating: int = 1,
) -> SchemeEigenstructure:
    """Eigenstructure of the scheme whose relations are the fused class sums.

    Irreps whose class-sum eigenvalues agree on every fused class merge into
    one idempotent of multiplicity sum(d_i^2).
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
    m = np.bincount(bucket, weights=dims**2)
    valencies = ValencyVector(tuple(np.add.reduceat(sizes, starts).tolist()), table.order)
    return _ordered_eigenstructure(ev[first], first, m, valencies, generating)


def _rotation_weights(n: int, j: np.ndarray) -> np.ndarray:
    """Size of the rotation stratum {g^j, g^-j} of Z_n: 1 where g^j is its own inverse, else 2."""
    return np.where(2 * j % n == 0, 1, 2)


def _rotation_eigenvalues(n: int, h: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Eigenvalue of the rotation stratum sum of g^j on irreps chi_h and chi_-h of Z_n."""
    block = _cosine_block(n, h, j)
    block *= _rotation_weights(n, j) / 2
    return block


def _cyclic_eigenstructure(n: int, generating: int) -> SchemeEigenstructure:
    """Z_n in closed form: P_hj = 2 cos(2 pi hj/n), or the single character where g^j = g^-j.

    Row h merges the irreps h and n-h, column j is cycle distance j, and the
    scheme is self-dual: multiplicities and valencies are both 1 or 2.
    """
    j = np.arange(n // 2 + 1)
    weights = _rotation_weights(n, j)
    valencies = ValencyVector(tuple(weights.tolist()), n)
    rows = _rotation_eigenvalues(n, j, j)
    return _ordered_eigenstructure(rows, j, weights.astype(float), valencies, generating)


def _dihedral_eigenstructure(m: int, generating: int) -> SchemeEigenstructure:
    """D_2m in closed form on the strata identity, reflections, rotation classes.

    Rows follow the table's irreps: triv and sgn_b, then the merged sgn_a and
    sgn_ab for even m (the h = m/2 row, multiplicity 2), then E_h
    (multiplicity 4).  On the rotation strata every row is a row of Z_m.
    """
    rotations = _dihedral_rotations(m)
    h = np.concatenate(([0], rotations))
    rows = np.insert(_rotation_eigenvalues(m, h, rotations), 1, 0.0, axis=1)
    rows[:2, 1] = (m, -m)
    weights = _rotation_weights(m, rotations[1:])
    mults = np.concatenate(([1.0, 1.0], 2.0 * weights))
    valencies = ValencyVector((1, m, *weights.tolist()), 2 * m)
    return _ordered_eigenstructure(rows, np.arange(len(h)), mults, valencies, generating)


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
        value, name = (kappa[i] * kappa[j] / table.order) * total, f"p_{i}{j}^{k}"
    else:
        es = fused_eigenstructure(table, class_groups)
        value = np.linalg.solve(es.P, es.P[:, i] * es.P[:, j])[k]
        name = f"fused p_{i}{j}^{k}"
    if abs(value.imag) > INTEGRALITY_TOL or abs(value.real - round(value.real)) > INTEGRALITY_TOL:
        raise NonIntegerResult(f"{name} = {value} is not an integer")
    return int(round(value.real))


# ---------------------------------------------------------------------------
# Explicit group elements (consumed by the vertex-level oracle)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GroupElements:
    """Element list with multiplication and each element's walk-scheme stratum, a
    conjugacy class fused with its inverse: it generates an undirected Cayley graph."""

    descriptor: GroupDescriptor
    elements: tuple
    strata: np.ndarray  # stratum index of each element, in the order of ``elements``

    def mul(self, x, y):
        raise NotImplementedError

    def right_products(self, gs) -> np.ndarray:
        """Table of right products: entry (a, j) is the index of element a times gs[j]."""
        raise NotImplementedError


class _CyclicElements(GroupElements):
    def mul(self, x, y):
        return (x + y) % self.descriptor.n

    def right_products(self, gs) -> np.ndarray:
        n = self.descriptor.n
        return (np.arange(n)[:, None] + np.array(gs, dtype=np.int64)) % n


class _DihedralElements(GroupElements):
    def mul(self, x, y):
        m = self.descriptor.n
        r1, s1 = x
        r2, s2 = y
        return ((r1 + (r2 if s1 == 0 else -r2)) % m, s1 ^ s2)

    def right_products(self, gs) -> np.ndarray:
        # Element (r, s) sits at index s * m + r; see group_elements.
        m = self.descriptor.n
        r2, s2 = np.array(gs, dtype=np.intp).reshape(-1, 2).T
        table = np.empty((2 * m, len(r2)), dtype=np.intp, order="F")
        for s, half in enumerate((table[:m], table[m:])):  # (r, s)(r2, s2) = (r +- r2, s ^ s2)
            coset = (s ^ s2) * m  # index of (0, s ^ s2)
            np.add(np.arange(m)[:, None], (1 - 2 * s) * r2 % m + coset, out=half)
            np.subtract(half, m, out=half, where=half >= coset + m)  # r +- r2 mod m
        return table


class _SymmetricElements(GroupElements):
    def mul(self, x, y):
        return tuple(x[i] for i in y)

    @cached_property
    def _perms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(permutations as rows, base-n place values, sorted base-n keys)."""
        perms = np.array(self.elements, dtype=np.int64)
        n = perms.shape[1]
        place = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
        return perms, place, perms @ place

    def right_products(self, gs) -> np.ndarray:
        # Elements are sorted tuples, so their base-n keys ascend.
        perms, place, keys = self._perms
        gs = np.array(gs, dtype=np.int64).reshape(-1, len(place))
        return np.searchsorted(keys, perms[:, gs] @ place)


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
    """Enumerate the group with the identity first and tag every element's stratum: g^k of Z_n
    is in min(k, n - k); in D_2m, e is in 0, the reflections in 1 and a^r in the column of
    a^min(r, m - r) in ``_dihedral_eigenstructure``; in S_n, the cycle type's partition index."""
    n, k = descriptor.n, np.arange(descriptor.n)
    if descriptor.kind == "cyclic":
        return _CyclicElements(descriptor, tuple(range(n)), np.minimum(k, n - k))
    if descriptor.kind == "dihedral":
        rotations = _dihedral_rotations(n)
        column = np.zeros(n // 2 + 1, dtype=int)  # column 1 holds the reflections
        column[rotations[1:]] = np.arange(2, len(rotations) + 1)
        strata = np.concatenate((column[np.minimum(k, n - k)], np.ones(n, dtype=int)))
        elems = tuple((r, s) for s in (0, 1) for r in range(n))
        return _DihedralElements(descriptor, elems, strata)
    parts = partitions(n)
    elems = tuple(sorted(permutations(range(n))))
    strata = np.array([parts.index(_cycle_type(p)) for p in elems])
    return _SymmetricElements(descriptor, elems, strata)


# ---------------------------------------------------------------------------
# Walk-facing view: eigenstructure and generating relation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GroupWalkScheme:
    """Everything the walk engines need for a group scheme."""

    eigenstructure: SchemeEigenstructure
    generating: int  # stratum index of the generating relation


def generating_stratum(strata: int, generating_class: int | None) -> int:
    """The stratum a walk on a scheme of ``strata`` strata steps along: 1 unless one is named."""
    generating = 1 if generating_class is None else generating_class
    if not 1 <= generating < strata:
        raise BadParams(f"generating class {generating} out of range")
    return generating


def walk_scheme(
    descriptor: GroupDescriptor, generating_class: int | None = None
) -> GroupWalkScheme:
    """Build the scheme a walk on this group runs over; the default generating stratum is 1.

    Cyclic and dihedral schemes come from their cosine closed forms, in
    O(d^2) work and memory; symmetric groups fuse their character table.
    """
    kind, n = descriptor.kind, descriptor.n
    strata = walk_strata(kind, n)
    if kind != "symmetric":
        check_strata(strata, f"Z{n}" if kind == "cyclic" else f"D{2 * n}")
    generating = generating_stratum(strata, generating_class)
    if kind == "cyclic":
        es = _cyclic_eigenstructure(n, generating)
    elif kind == "dihedral":
        es = _dihedral_eigenstructure(n, generating)
    else:
        classes = tuple((k,) for k in range(strata))  # every class of S_n is a stratum
        es = fused_eigenstructure(character_table_symmetric(n), classes, generating)
    return GroupWalkScheme(eigenstructure=es, generating=generating)
