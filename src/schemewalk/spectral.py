"""Spectral distributions from intersection arrays.

The route is: intersection array -> three-term recurrence coefficients ->
one eigendecomposition J = U diag(x) U^T of the symmetric tridiagonal Jacobi
matrix (a half-size SVD when the array is bipartite), which is the adjacency
matrix restricted to the span of the stratum vectors.  Atoms x are the
distinct adjacency eigenvalues and the weights U[0, l]^2 are the spectral
measure seen from any fixed vertex, so multiplicities are n times the weights.  The rest of U carries the stratum
amplitudes, the eigenvalue matrix and the long-time averages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadParams, DegenerateAtoms, EigensolverNoConvergence, InfeasibleParameters
from .schemes import IntersectionArray, check_strata
from .tolerances import ATOM_SEPARATION, DEFAULT_TAIL_TOL, WEIGHT_SUM_TOL


@dataclass(frozen=True)
class JacobiCoefficients:
    """Recurrence coefficients omega_1..omega_d and alpha_1..alpha_{d+1}, 1-based."""

    omega: tuple[float, ...]
    alpha: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.alpha) != len(self.omega) + 1:
            raise BadParams("alpha must have one more entry than omega")
        if any(w <= 0 for w in self.omega):
            raise BadParams("recurrence weights must be positive")

    @property
    def d(self) -> int:
        return len(self.omega)

    @cached_property
    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (atoms, U) of the Jacobi matrix, computed once per object.

        J has diagonal alpha and off-diagonal sqrt(omega).  Atoms come back
        ascending and each column of U is signed so that U[0, l] > 0; then
        U[k, l] = U[0, l] p_k(x_l) with p_k the orthonormal polynomials, and
        the weight at atom l is U[0, l]^2.  A bipartite array (every alpha 0)
        is decomposed at half size by ``_bipartite_eigh``.
        """
        off = np.sqrt(self.omega)
        try:
            if any(self.alpha):
                matrix = np.diag(self.alpha) + np.diag(off, 1) + np.diag(off, -1)
                atoms, U = np.linalg.eigh(matrix)
            else:
                atoms, U = _bipartite_eigh(off)
        except np.linalg.LinAlgError as exc:
            raise EigensolverNoConvergence(f"Jacobi eigensolver failed: {exc}") from exc
        if np.any(np.diff(atoms) <= ATOM_SEPARATION):
            raise DegenerateAtoms("quadrature produced coincident atoms")
        U *= np.where(U[0] < 0, -1.0, 1.0)
        atoms.flags.writeable = False
        U.flags.writeable = False
        return atoms, U


def _bipartite_eigh(off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending (atoms, U) of the zero-diagonal Jacobi matrix with off-diagonal ``off``.

    Even indices first, J = [[0, B], [B^T, 0]]; the SVD B = Y diag(s) Z^T gives
    atoms -s, s with vectors (y, -z)/sqrt(2), (y, z)/sqrt(2), and an odd size
    adds 0.0 with the null column (y, 0) of Y (Golub and Van Loan, Matrix
    Computations, 8.6).  The atoms are antisymmetric bit for bit.
    """
    size, half = len(off) + 1, len(off[::2])
    B = np.zeros((size - half, half))
    B.flat[:: half + 1], B.flat[half :: half + 1] = off[::2], off[1::2]
    Y, s, Zt = np.linalg.svd(B)
    U = np.zeros((size, size))
    U[0::2, :half], U[1::2, :half] = Y[:, :half], -Zt.T
    U[0::2, size - half :], U[1::2, size - half :] = Y[:, :half][:, ::-1], Zt[::-1].T
    U *= math.sqrt(0.5)
    U[0::2, half : size - half] = Y[:, half:]
    return np.concatenate((-s, np.zeros(size - 2 * half), s[::-1])), U


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite atomic measure; atoms ascending, weights positive and summing to 1.

    The one measure type: the infinite path's arcsine measure enters as its quadrature.
    """

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", np.asarray(self.atoms, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.atoms.shape != self.weights.shape:
            raise BadParams("atoms and weights must have matching shapes")
        if np.any(np.diff(self.atoms) <= 0):
            raise BadParams("atoms must be strictly ascending")
        if abs(float(np.sum(self.weights)) - 1.0) > WEIGHT_SUM_TOL:
            raise BadParams("weights must sum to 1")


def jacobi_from_intersection(ia: IntersectionArray) -> JacobiCoefficients:
    """omega_k = c_{k-1} b_k and alpha_k = a_1 - b_{k-1} - c_{k-1}, with b_0 = c_d = 0."""
    check_strata(ia.d + 1, f"an intersection array of diameter {ia.d}")
    ia.ensure_valid()
    c = np.array(ia.c + (0,), dtype=float)  # c_0..c_d
    b = np.array((0,) + ia.b, dtype=float)  # b_0..b_d
    omega = c[:-1] * b[1:]
    alpha = ia.degree - b - c
    return JacobiCoefficients(tuple(omega.tolist()), tuple(alpha.tolist()))


def golub_welsch(jc: JacobiCoefficients) -> DiscreteDistribution:
    """Atoms and weights U[0, l]^2 of the measure orthogonalizing the recurrence."""
    atoms, U = jc.eigh
    return DiscreteDistribution(atoms, U[0] ** 2)


def evaluate_polynomials(jc: JacobiCoefficients, x, up_to_k: int) -> np.ndarray:
    """Values Q_0(x)..Q_k(x) of the monic orthogonal polynomials, along the last axis.

    ``x`` may be a scalar or an array; the result has shape ``x.shape + (k+1,)``.
    """
    if up_to_k < 0 or up_to_k > jc.d:
        raise BadParams(f"polynomial index {up_to_k} out of range 0..{jc.d}")
    x = np.asarray(x, dtype=float)
    values = [np.ones_like(x)]
    if up_to_k >= 1:
        values.append(x - jc.alpha[0])
    for k in range(1, up_to_k):
        values.append((x - jc.alpha[k]) * values[k] - jc.omega[k - 1] * values[k - 1])
    return np.stack(values, axis=-1)


def srg_distribution(n: int, kappa: int, lam: int, eta: int) -> DiscreteDistribution:
    """Three-atom spectral distribution of a strongly regular graph."""
    disc = (lam - eta) ** 2 + 4 * (kappa - eta)
    if disc < 0:
        raise InfeasibleParameters("negative discriminant")
    if not (0 < kappa < n - 1) or eta < 1 or lam < 0 or kappa - lam - 1 < 1:
        raise InfeasibleParameters(
            f"parameters ({n},{kappa},{lam},{eta}) do not admit a connected "
            "strongly regular graph of diameter 2"
        )
    root = math.sqrt(disc)
    x1 = float(kappa)
    x2 = 0.5 * ((lam - eta) + root)
    x3 = 0.5 * ((lam - eta) - root)
    b1 = eta / (kappa**2 - kappa * (lam - eta) + (eta - kappa))
    b2 = (-kappa * root + kappa * (lam - eta) + 2 * kappa) / (
        (lam - eta - 2 * kappa) * root + disc
    )
    b3 = (kappa * root + kappa * (lam - eta) + 2 * kappa) / (
        (-lam + eta + 2 * kappa) * root + disc
    )
    for w in (b1, b2, b3):
        if not (0.0 < w < 1.0):
            raise InfeasibleParameters(f"weight {w} outside (0, 1)")
    check_srg_order(n, kappa, lam, eta)
    atoms = np.array([x3, x2, x1])
    weights = np.array([b3, b2, b1])
    return DiscreteDistribution(atoms, weights)


def check_srg_order(n: int, kappa: int, lam: int, eta: int) -> None:
    """Raise InfeasibleParameters unless n = 1 + kappa + kappa (kappa - lam - 1) / eta."""
    if (n - 1 - kappa) * eta != kappa * (kappa - lam - 1):  # in integers, exact at any size
        order = 1 + kappa + kappa * (kappa - lam - 1) / eta
        raise InfeasibleParameters(f"srg parameters {n},{kappa},{lam},{eta} need n = {order:.12g}")


def srg_intersection_array(kappa: int, lam: int, eta: int) -> IntersectionArray:
    """Diameter-2 intersection array of a strongly regular graph."""
    return IntersectionArray(d=2, c=(kappa, kappa - lam - 1), b=(1, eta))


def continuous_line_distribution(nodes: int = 256) -> DiscreteDistribution:
    """N-node quadrature of the arcsine measure on [-2, 2] of the two-sided infinite path.

    Nodes are x = 2 cos(theta) at midpoints of a uniform theta grid, which
    integrates the arcsine weight exactly, so every node carries mass 1/N.
    The nodes mirror bit for bit, x == -x[::-1], with 0.0 in the middle of an odd N.
    """
    if nodes < 1:
        raise BadParams("need at least one quadrature node")
    upper = 2.0 * np.cos((np.arange(nodes // 2) + 0.5) * math.pi / nodes)
    xs = np.concatenate((-upper, np.zeros(nodes % 2), upper[::-1]))
    return DiscreteDistribution(xs, np.full(nodes, 1.0 / nodes))


def meixner_distribution(p: float) -> tuple[np.ndarray, np.ndarray]:
    """Atoms and weights of the geometric measure of the sparse-limit growing-family walk.

    The countable measure (0 < p < 1) is cut once the tail mass drops below
    DEFAULT_TAIL_TOL, so the weights may sum to less than 1 by more than
    WEIGHT_SUM_TOL: they stay two arrays, not a ``DiscreteDistribution``.
    """
    if not (0.0 < p < 1.0):
        raise BadParams(f"p must lie strictly between 0 and 1, got {p}")
    scale = math.sqrt(p * (2.0 - p))
    ratio = p / (2.0 - p)
    head = 2.0 * (1.0 - p) / (2.0 - p)
    # The first K weights sum to 1 - ratio^K: keep the fewest with ratio^K <= DEFAULT_TAIL_TOL.
    count = math.ceil(math.log(DEFAULT_TAIL_TOL) / math.log(max(ratio, DEFAULT_TAIL_TOL)))
    if count > 10_000_000:
        raise BadParams("truncation did not converge")
    weights = [head * ratio**k for k in range(count)]  # numpy's power differs in the last bit
    return (-p + 2.0 * (1.0 - p) * np.arange(count)) / scale, np.asarray(weights)
