"""Test references for group schemes that share no code with the library's strata.

The walk stratum of each raw conjugacy class is read off the class labels
of the character table, and of each element off the element itself;
inverses come from ``ReferenceGroup.mul`` alone, and the float class fusion
of a character table is the reference for the closed-form eigenstructures.
"""

from itertools import permutations

import numpy as np

from schemewalk.groups import partitions
from schemewalk.schemes import SchemeEigenstructure, ValencyVector


def label_class_groups(table):
    """The raw classes of each walk-scheme stratum, in stratum order.

    g^k lies in stratum min(k, n - k); e in 0; the reflections b... in 1; a^j
    in 1 + j for odd m, and for even m a^(m/2) in 2 and any other a^j in 2 + j.
    Every class of S_n is a stratum of its own.
    """
    kind = table.group_label[0]
    n = table.order // 2 if kind == "D" else table.order
    strata = []
    for k, label in enumerate(table.class_labels):
        power = int(label.partition("^")[2] or 0)
        if kind == "S":
            strata.append(k)
        elif label.startswith("g"):
            strata.append(min(power, n - power))
        elif label == "e":
            strata.append(0)
        elif label.startswith("b"):
            strata.append(1)
        elif n % 2:
            strata.append(1 + power)
        else:
            strata.append(2 if 2 * power == n else 2 + power)
    return tuple(tuple(c for c, s in enumerate(strata) if s == k) for k in range(max(strata) + 1))


class ReferenceGroup:
    """The elements of Z_n, D_2m or S_n in the library's index order, with their product.

    g^k of Z_n is k; a^r b^s of D_2m is (r, s), rotations first; S_n holds
    the permutations of range(n) as tuples, in lexicographic order.
    """

    def __init__(self, descriptor):
        self.kind, self.n = descriptor.kind, descriptor.n
        if self.kind == "cyclic":
            self.elements = tuple(range(self.n))
        elif self.kind == "dihedral":
            self.elements = tuple((r, s) for s in (0, 1) for r in range(self.n))
        else:
            self.elements = tuple(sorted(permutations(range(self.n))))

    def mul(self, x, y):
        if self.kind == "cyclic":
            return (x + y) % self.n
        if self.kind == "dihedral":
            (r1, s1), (r2, s2) = x, y
            return ((r1 + (r2 if s1 == 0 else -r2)) % self.n, s1 ^ s2)
        return tuple(x[i] for i in y)

    def stratum(self, x):
        """Walk-scheme stratum of x, by the rules of ``label_class_groups``; on S_n the
        partition index of the cycle type."""
        if self.kind == "cyclic":
            return min(x, self.n - x)
        if self.kind == "dihedral":
            r, s = x
            power = min(r, self.n - r)
            if s or power == 0:
                return s
            return 1 + power if self.n % 2 else 2 if 2 * power == self.n else 2 + power
        lengths, seen = [], set()
        for start in x:
            length, here = 0, start
            while here not in seen:
                seen.add(here)
                here, length = x[here], length + 1
            if length:
                lengths.append(length)
        return partitions(self.n).index(tuple(sorted(lengths, reverse=True)))


def inverse(group, x):
    """x^-1 through ``group.mul`` alone: the last power of x before the identity."""
    power = x
    while (following := group.mul(power, x)) != group.elements[0]:
        power = following
    return power


def fuse(table, class_groups):
    """Float class fusion: the eigenstructure whose relations are the fused class sums.

    Irreps whose class-sum eigenvalues agree on every fused class (to 9
    decimals) merge into one idempotent of multiplicity sum(d_i^2).  Rows
    come in the order of their first irrep, not in the library's order.
    """
    members = np.concatenate(class_groups)
    starts = np.cumsum([0] + [len(grp) for grp in class_groups[:-1]])
    sizes = np.asarray(table.class_sizes)[members]
    dims = np.asarray(table.irrep_dims, dtype=float)
    ev = np.add.reduceat(table.values[:, members] * sizes, starts, axis=1) / dims[:, None]
    assert np.max(np.abs(ev.imag)) < 1e-12, "fused classes must be closed under inversion"
    _, first, bucket = np.unique(
        np.round(ev.real, 9), axis=0, return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    P, m = ev.real[first[order]], np.bincount(bucket, weights=dims**2)[order]
    valencies = ValencyVector(tuple(np.add.reduceat(sizes, starts).tolist()), table.order)
    Q = P.T * m / np.asarray(valencies.a, dtype=float)[:, None]
    return SchemeEigenstructure(P=P, Q=Q, m=m, valencies=valencies)


def row_order(P):
    """Row order by one fixed generic projection: eigenmatrices that differ only in the
    order of tied rows line up row for row."""
    return np.argsort(P @ np.random.default_rng(0).standard_normal(P.shape[1]))
