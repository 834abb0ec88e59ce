"""Combinatorial data of association schemes.

Intersection arrays use the orientation where ``c[i]`` counts neighbours one
stratum outward from a vertex at distance i and ``b[i]`` counts neighbours one
stratum back; the boundary values b_0 = 0 and c_d = 0 are implicit and never
stored.  Stratum sizes, eigenvalue matrices and dual eigenvalue matrices all
follow from the array alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import (
    BadParams,
    InvalidIntersectionArray,
    InvalidOrder,
    NonIntegerValency,
    NumericalInstability,
    UnsupportedOrder,
)

MATRIX_TOL = 1e-9
MULTIPLICITY_TOL = 1e-6


@dataclass(frozen=True)
class IntersectionArray:
    """Diameter plus forward/backward intersection numbers of a P-polynomial scheme."""

    d: int
    c: tuple[int, ...]  # c[i] = c_i for i = 0..d-1 (outward)
    b: tuple[int, ...]  # b[i-1] = b_i for i = 1..d (backward)

    def __post_init__(self) -> None:
        for entry in (*self.c, *self.b):
            if int(entry) != entry:
                raise InvalidIntersectionArray(
                    f"intersection numbers must be integers, got {entry!r}"
                )
        object.__setattr__(self, "c", tuple(int(x) for x in self.c))
        object.__setattr__(self, "b", tuple(int(x) for x in self.b))

    def c_at(self, i: int) -> int:
        """c_i with the implicit boundary c_d = 0."""
        if i == self.d:
            return 0
        return self.c[i]

    def b_at(self, i: int) -> int:
        """b_i with the implicit boundary b_0 = 0."""
        if i == 0:
            return 0
        return self.b[i - 1]

    @property
    def degree(self) -> int:
        return self.c[0]

    def ensure_valid(self) -> None:
        problems = _structural_problems(self)
        if problems:
            raise InvalidIntersectionArray("; ".join(problems))


@dataclass(frozen=True)
class ValencyVector:
    """Stratum sizes a_0..a_d together with the scheme order n."""

    a: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        if self.a[0] != 1:
            raise InvalidIntersectionArray("a_0 must be 1")
        if sum(self.a) != self.n:
            raise InvalidIntersectionArray("stratum sizes must sum to n")

    @property
    def d(self) -> int:
        return len(self.a) - 1


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    problems: tuple[str, ...]


def derive_stratum_sizes(ia: IntersectionArray) -> ValencyVector:
    """Stratum sizes a_k = (c_0 ... c_{k-1}) / (b_1 ... b_k), checked to be integers."""
    sizes = [1]
    num = 1
    den = 1
    for k in range(1, ia.d + 1):
        num *= ia.c[k - 1]
        den *= ia.b[k - 1]
        if den == 0 or num % den != 0 or num // den <= 0:
            raise NonIntegerValency(
                f"a_{k} = {num}/{den} is not a positive integer"
            )
        sizes.append(num // den)
    return ValencyVector(tuple(sizes), sum(sizes))


def _structural_problems(ia: IntersectionArray) -> list[str]:
    problems: list[str] = []
    if ia.d < 1:
        problems.append("diameter must be at least 1")
    if len(ia.c) != ia.d or len(ia.b) != ia.d:
        problems.append("c and b must both have d entries")
        return problems
    if ia.c[0] < 1:
        problems.append("c_0 < 1: graph disconnected or not regular")
    if any(x < 1 for x in ia.c[: ia.d]):
        problems.append("nonpositive forward intersection number")
    if any(x < 1 for x in ia.b):
        problems.append("nonpositive backward intersection number")
    if not problems and ia.b[0] != 1:
        problems.append(f"a_1 = {ia.c[0]}/{ia.b[0]} != c_0: degree mismatch")
    if not problems:
        try:
            derive_stratum_sizes(ia)
        except NonIntegerValency as exc:
            problems.append(str(exc))
    return problems


def validate_intersection_array(ia: IntersectionArray) -> ValidationReport:
    """Report-style validation (never raises).

    Beyond the structural checks this also flags arrays whose eigenvalue
    multiplicities n*B_i are not near-integers; those cannot belong to an
    actual scheme, although the quadrature machinery still accepts them as
    formal inputs.
    """
    problems = _structural_problems(ia)
    if not problems:
        from . import spectral

        try:
            valencies = derive_stratum_sizes(ia)
            dist = spectral.golub_welsch(spectral.jacobi_from_intersection(ia))
            mults = valencies.n * dist.weights
            for i, m in enumerate(mults):
                if abs(m - round(m)) > MULTIPLICITY_TOL or round(m) < 1:
                    problems.append(f"multiplicity m_{i} = {m:.6f} is not a positive integer")
        except Exception as exc:  # degenerate spectra and the like
            problems.append(f"spectral feasibility check failed: {exc}")
    return ValidationReport(not problems, tuple(problems))


@dataclass(frozen=True)
class SchemeEigenstructure:
    """Eigenvalue matrix P, dual matrix Q, multiplicities and stratum sizes.

    Row 0 always belongs to the all-ones eigenvector, so P[0, j] = a_j and
    Q[0, j] = m_j; remaining rows are ordered by decreasing eigenvalue of the
    generating relation.
    """

    P: np.ndarray
    Q: np.ndarray
    m: np.ndarray
    valencies: ValencyVector

    @property
    def d(self) -> int:
        return self.valencies.d

    @property
    def n(self) -> int:
        return self.valencies.n

    def rounded_multiplicities(self) -> tuple[int, ...]:
        rounded = [int(round(x)) for x in self.m]
        if sum(rounded) != self.n:
            raise InvalidIntersectionArray("rounded multiplicities do not sum to n")
        return tuple(rounded)

    def validate(self) -> None:
        # Entries are bounded by n (|P_ij| <= a_j, |Q_ij| <= m_j) and rounding
        # errors grow with them, so all checks but that of the unit first
        # columns compare against MATRIX_TOL * n.
        n = self.n
        scaled = MATRIX_TOL * n
        a = np.asarray(self.valencies.a, dtype=float)
        ident = n * np.eye(self.d + 1)
        check = NumericalInstability.check
        check("PQ != nI", self.P @ self.Q - ident, scaled)
        check("QP != nI", self.Q @ self.P - ident, scaled)
        first_columns = np.concatenate((self.P[:, 0], self.Q[:, 0]))
        check("first columns of P and Q must be all ones", first_columns - 1.0, MATRIX_TOL)
        check("row 0 of P must hold the valencies", self.P[0] - a, scaled)
        check("row 0 of Q must hold the multiplicities", self.Q[0] - self.m, scaled)
        check("m_j P_ji != a_i Q_ij", self.m[:, None] * self.P - self.Q.T * a, scaled)
        check("multiplicities must sum to n", float(np.sum(self.m)) - n, scaled)


def eigenstructure_from_array(ia: IntersectionArray) -> SchemeEigenstructure:
    """Eigenvalue/dual-eigenvalue matrices of the scheme defined by ``ia``.

    From the Jacobi eigenvectors U (atoms in decreasing order, so row 0 is
    the valency row): P_lk = sqrt(a_k) U[k, l] / U[0, l], m_l = n U[0, l]^2
    and Q_kl = n U[0, l] U[k, l] / sqrt(a_k).
    """
    from . import spectral

    ia.ensure_valid()
    valencies = derive_stratum_sizes(ia)
    _, U = spectral.jacobi_eigh(spectral.jacobi_from_intersection(ia))
    U = U[:, ::-1]
    root_a = np.sqrt(np.asarray(valencies.a, dtype=float))[:, None]
    P = (root_a * U / U[0]).T
    m = valencies.n * U[0] ** 2
    Q = valencies.n * U[0] * U / root_a
    es = SchemeEigenstructure(P=P, Q=Q, m=m, valencies=valencies)
    es.validate()
    return es


# ---------------------------------------------------------------------------
# Scheme specifications (uniform entry point for the engines and the CLI)
# ---------------------------------------------------------------------------

_GROUP_KINDS = ("cyclic", "dihedral", "symmetric")
SYMMETRIC_MAX_N = 12


@dataclass(frozen=True)
class GroupDescriptor:
    """One of the supported finite group families."""

    kind: str
    n: int

    def __post_init__(self) -> None:
        if self.kind not in _GROUP_KINDS:
            raise BadParams(f"unknown group kind {self.kind!r}")
        if self.kind in ("cyclic", "dihedral") and self.n < 3:
            raise InvalidOrder(f"{self.kind} group needs n >= 3, got {self.n}")
        if self.kind == "symmetric":
            if self.n < 2:
                raise InvalidOrder(f"symmetric group needs n >= 2, got {self.n}")
            if self.n > SYMMETRIC_MAX_N:
                raise UnsupportedOrder(
                    f"symmetric group capped at n = {SYMMETRIC_MAX_N}, got {self.n}"
                )


@dataclass(frozen=True)
class FromIntersectionArray:
    array: IntersectionArray


@dataclass(frozen=True)
class FromGroup:
    group: GroupDescriptor
    generating_class: int | None = None


@dataclass(frozen=True)
class FromSRG:
    n: int
    kappa: int
    lam: int
    eta: int


@dataclass(frozen=True)
class ProductScheme:
    """Symmetric product of ``copies`` complete graphs K_n (Hamming scheme)."""

    n: int
    copies: int

    def __post_init__(self) -> None:
        if self.n < 2 or self.copies < 1:
            raise BadParams("product scheme needs n >= 2 and copies >= 1")


@dataclass(frozen=True)
class FromCatalog:
    name: str
    params: tuple[int, ...] = field(default_factory=tuple)


SchemeSpec = Union[FromIntersectionArray, FromGroup, FromSRG, ProductScheme, FromCatalog]
