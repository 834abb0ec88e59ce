"""Conjugacy-class association schemes of cyclic, dihedral and symmetric groups.

Class-sum eigenvalues give the scheme eigenvalue matrix and squared irrep
dimensions give the multiplicities.  Each stratum of a walk scheme is a
conjugacy class merged with its inverse class, so the eigenmatrices are
real.  The characters of cyclic and dihedral groups are cosines, so their
walk schemes are built from cosines directly; every class of S_n is its own
inverse, and its eigenvalues are the integer central characters.  A walk
scheme is one ``SchemeEigenstructure``, validated when built, whose
``generating`` stratum names the column of P that holds the walk's atoms.  The
oracle's Cayley graphs come from index arithmetic on one element layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import permutations
from math import comb, factorial

import numpy as np

from .errors import (
    BadParams,
    InvalidCycleType,
    NonIntegerResult,
    NumericalInstability,
)
from .schemes import (
    GroupDescriptor,
    SchemeEigenstructure,
    ValencyVector,
    check_strata,
)
from .tolerances import INTEGRALITY_TOL, ORTHOGONALITY_TOL


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


def _checked_label(kind: str, n: int) -> str:
    """The group's label Zn, D2n or Sn, once ``GroupDescriptor`` has checked the
    range and ``check_strata`` the walk scheme's strata: both before anything is built."""
    GroupDescriptor(kind, n)
    label = {"cyclic": f"Z{n}", "dihedral": f"D{2 * n}", "symmetric": f"S{n}"}[kind]
    check_strata(walk_strata(kind, n), label)
    return label


def character_table_cyclic(n: int) -> CharacterTable:
    """All-one-dimensional table chi_j(g^k) = exp(2 pi i jk/n)."""
    label = _checked_label("cyclic", n)
    roots = np.array([_root_of_unity(k, n) for k in range(n)])
    exponents = np.outer(np.arange(n), np.arange(n))
    exponents %= n
    values = roots[exponents]
    return CharacterTable(
        group_label=label,
        class_sizes=(1,) * n,
        class_labels=tuple(f"g^{k}" for k in range(n)),
        irrep_dims=(1,) * n,
        irrep_labels=tuple(f"chi_{j}" for j in range(n)),
        values=values,
    )


def character_table_dihedral(m: int) -> CharacterTable:
    """Dihedral group of order 2m: the one-dimensional irreps are the sign maps
    a^j b^s -> x^j y^s, with x^m = 1 as a^m = e, so x = -1 only for even m; E_h
    takes 2 cos(2 pi hj/m) on a^j and 0 on the reflections.  The rotation classes
    follow ``_dihedral_rotations``; the reflection class b of odd m sits in
    column 1, while b_even (the a^(2i) b) and b_odd (the a^(2i+1) b) of even m come last.
    """
    label, even = _checked_label("dihedral", m), m % 2 == 0
    rotations = _dihedral_rotations(m)
    classes = [("e", 1, 0, 0)]  # (label, size, j, s) of the class of a^j b^s
    classes += [(f"a^{j}", 1 if 2 * j == m else 2, j, 0) for j in rotations[1:].tolist()]
    if even:
        classes += [("b_even", m // 2, 0, 1), ("b_odd", m // 2, 1, 1)]
    else:
        classes.insert(1, ("b", m, 0, 1))
    labels, sizes, j, s = zip(*classes)
    # x and y, the images of a and b under triv, sgn_b, sgn_a and sgn_ab
    x, y = np.array([(1, 1, -1, -1), (1, -1, 1, -1)])[:, : 4 if even else 2, None]
    h = np.arange(1, (m + 1) // 2)
    values = np.zeros((len(x) + len(h), len(classes)), dtype=complex)
    values[: len(x)] = x ** np.array(j) * y ** np.array(s)
    values[len(x) :, np.equal(s, 0)] = _cosine_block(m, h, rotations)
    return CharacterTable(
        group_label=label,
        class_sizes=sizes,
        class_labels=labels,
        irrep_dims=(1,) * len(x) + (2,) * len(h),
        irrep_labels=("triv", "sgn_b", "sgn_a", "sgn_ab")[: len(x)]
        + tuple(f"E_{k}" for k in h.tolist()),
        values=values,
    )


def character_table_symmetric(n: int) -> CharacterTable:
    """Integer character table of S_n; classes and irreps both indexed by partitions."""
    label = _checked_label("symmetric", n)
    parts = partitions(n)
    values = np.array([[mn_character(lam, rho) for rho in parts] for lam in parts], dtype=complex)
    sizes = tuple(class_size_symmetric(rho, n) for rho in parts)
    dims = tuple(hook_length_dimension(lam) for lam in parts)
    labels = tuple("+".join(str(p) for p in rho) for rho in parts)
    return CharacterTable(
        group_label=label,
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
# Walk-scheme eigenstructures from closed forms
# ---------------------------------------------------------------------------


def _ordered_eigenstructure(
    rows: np.ndarray,
    m: np.ndarray,
    valencies: ValencyVector,
    generating: int,
) -> SchemeEigenstructure:
    """Order distinct eigenvalue rows into P and derive Q = m P^T / a.

    The trivial idempotent comes first; the rest follow by decreasing
    eigenvalue on the generating relation, then by row (irrep) index.
    ``rows`` is reordered in place and becomes P, so no second copy outlives
    the sort.
    """
    # Only the trivial row (the valencies) sums to the group order; the others sum to 0.
    nontrivial = rows.sum(axis=1) < valencies.n / 2
    order = np.lexsort((-rows[:, generating], nontrivial))  # stable: ties keep row order
    rows[:] = rows[order]
    P = rows
    m = m[order]
    Q = P.T * m
    Q /= np.asarray(valencies.a, dtype=float)[:, None]
    return SchemeEigenstructure(P=P, Q=Q, m=m, valencies=valencies, generating=generating)


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
    return _ordered_eigenstructure(rows, weights.astype(float), valencies, generating)


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
    return _ordered_eigenstructure(rows, mults, valencies, generating)


def _symmetric_eigenstructure(n: int, generating: int) -> SchemeEigenstructure:
    """S_n from its central characters P_lam,K = |K| chi_lam(K) / d_lam, with m_lam = d_lam^2.

    Every class is a stratum; rows are the irreps and columns the classes,
    both in partition order.  The central characters are integers, formed
    in Python integers: a remainder would mean a wrong character value.
    """
    parts = partitions(n)
    sizes = [class_size_symmetric(rho, n) for rho in parts]
    dims = [hook_length_dimension(lam) for lam in parts]
    central = []
    for lam, dim in zip(parts, dims):
        for rho, size in zip(parts, sizes):
            omega, rest = divmod(size * mn_character(lam, rho), dim)
            if rest:
                raise NonIntegerResult(f"central character of {lam} on {rho} is not an integer")
            central.append(omega)
    rows = np.array(central, dtype=float).reshape(len(parts), len(parts))
    mults = np.square(dims, dtype=float)
    valencies = ValencyVector(tuple(sizes), factorial(n))
    return _ordered_eigenstructure(rows, mults, valencies, generating)


def generating_stratum(strata: int, generating_class: int | None) -> int:
    """The stratum a walk on a scheme of ``strata`` strata steps along: 1 unless one is named."""
    generating = 1 if generating_class is None else generating_class
    if not 1 <= generating < strata:
        raise BadParams(f"generating class {generating} out of range")
    return generating


def walk_scheme(
    descriptor: GroupDescriptor, generating_class: int | None = None
) -> SchemeEigenstructure:
    """The validated eigenstructure a walk on this group runs over; its ``generating``
    stratum is 1 unless one is named.

    Cyclic and dihedral schemes come from their cosine closed forms, in
    O(d^2) work and memory; symmetric groups from their exact central characters.
    """
    kind, n = descriptor.kind, descriptor.n
    _checked_label(kind, n)
    generating = generating_stratum(walk_strata(kind, n), generating_class)
    if kind == "cyclic":
        return _cyclic_eigenstructure(n, generating)
    if kind == "dihedral":
        return _dihedral_eigenstructure(n, generating)
    return _symmetric_eigenstructure(n, generating)


def intersection_numbers_group(table: CharacterTable, i: int, j: int, k: int) -> int:
    """Structure constant p_ij^k of the class-sum algebra."""
    kappa = table.class_sizes
    dims = np.asarray(table.irrep_dims, dtype=complex)
    total = np.sum(table.values[:, i] * table.values[:, j] * np.conj(table.values[:, k]) / dims)
    value = (kappa[i] * kappa[j] / table.order) * total
    if abs(value.imag) > INTEGRALITY_TOL or abs(value.real - round(value.real)) > INTEGRALITY_TOL:
        raise NonIntegerResult(f"p_{i}{j}^{k} = {value} is not an integer")
    return int(round(value.real))


# ---------------------------------------------------------------------------
# Cayley graphs (consumed by the vertex-level oracle)
# ---------------------------------------------------------------------------


def cayley_table(descriptor: GroupDescriptor, generating: int) -> tuple[np.ndarray, np.ndarray]:
    """Right products by one walk-scheme stratum, and each element's stratum, by index arithmetic.

    Entry (x, j) of the neighbour array is the index of x g_j, for the
    stratum's elements g_0, g_1, ... in index order.  The element layout:
    g^k of Z_n sits at k, in stratum min(k, n - k); (r, s) = a^r b^s of D_2m
    at s m + r, with e in 0, the reflections in 1 and a^r in the column of
    a^min(r, m - r) in ``_dihedral_eigenstructure``; the permutations of S_n
    in lexicographic order, each in the partition index of its cycle type.
    Every stratum is closed under inversion, so the Cayley graph is undirected.
    """
    n, k = descriptor.n, np.arange(descriptor.n)
    if descriptor.kind == "cyclic":
        strata = np.minimum(k, n - k)
        return (k[:, None] + np.flatnonzero(strata == generating)) % n, strata
    if descriptor.kind == "dihedral":
        m, rotations = n, _dihedral_rotations(n)
        column = np.zeros(m // 2 + 1, dtype=int)  # column 1 holds the reflections
        column[rotations[1:]] = np.arange(2, len(rotations) + 1)
        strata = np.concatenate((column[np.minimum(k, m - k)], np.ones(m, dtype=int)))
        s2, r2 = np.divmod(np.flatnonzero(strata == generating), m)
        table = np.empty((2 * m, len(r2)), dtype=np.intp, order="F")
        for s, half in enumerate((table[:m], table[m:])):  # (r, s)(r2, s2) = (r +- r2, s ^ s2)
            coset = (s ^ s2) * m  # index of (0, s ^ s2)
            np.add(np.arange(m)[:, None], (1 - 2 * s) * r2 % m + coset, out=half)
            np.subtract(half, m, out=half, where=half >= coset + m)  # r +- r2 mod m
        return table, strata
    perms = np.array(list(permutations(range(n))), dtype=np.int64)
    lengths, power = np.zeros_like(perms), perms
    for step in range(1, n + 1):  # a point's cycle length is the first power that fixes it
        lengths[(power == k) & (lengths == 0)] = step
        power = np.take_along_axis(perms, power, axis=1)
    # the points' cycle lengths in falling order sort like ``partitions``, and every type occurs
    strata = np.unique(np.sort(lengths)[:, ::-1] @ (n + 1) ** k[::-1], return_inverse=True)[1]
    place = n ** k[::-1]  # base-n keys of the lexicographic permutations ascend
    return np.searchsorted(perms @ place, perms[:, perms[strata == generating]] @ place), strata
