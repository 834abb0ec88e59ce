"""Spectral distributions from intersection arrays.

The route is: intersection array -> three-term recurrence coefficients ->
one dense eigendecomposition J = U diag(x) U^T of the symmetric tridiagonal
Jacobi matrix, which is the adjacency matrix restricted to the span of the
stratum vectors.  Atoms x are the distinct adjacency eigenvalues and the
weights U[0, l]^2 are the spectral measure seen from any fixed vertex, so
multiplicities are n times the weights.  The rest of U carries the stratum
amplitudes, the eigenvalue matrix and the long-time averages.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    BadParameter,
    DegenerateAtoms,
    EigensolverNoConvergence,
    InfeasibleParameters,
    PoleProximity,
)
from .schemes import IntersectionArray

ATOM_SEPARATION = 1e-9
DEFAULT_TAIL_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-12
TAIL_TOL_ENV = "SCHEME_WALK_TAIL_TOL"


def default_tail_tolerance() -> float:
    """Truncation tolerance for infinite distributions, overridable by environment."""
    raw = os.environ.get(TAIL_TOL_ENV)
    if not raw:
        return DEFAULT_TAIL_TOL
    try:
        return float(raw)
    except ValueError:
        raise BadParameter(f"{TAIL_TOL_ENV}={raw!r} is not a number") from None


@dataclass(frozen=True)
class JacobiCoefficients:
    """Recurrence coefficients omega_1..omega_d and alpha_1..alpha_{d+1}, 1-based."""

    omega: tuple[float, ...]
    alpha: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.alpha) != len(self.omega) + 1:
            raise BadParameter("alpha must have one more entry than omega")
        if any(w <= 0 for w in self.omega):
            raise BadParameter("recurrence weights must be positive")

    @property
    def d(self) -> int:
        return len(self.omega)


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite atomic measure; atoms ascending, weights positive and summing to 1."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", np.asarray(self.atoms, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.atoms.shape != self.weights.shape:
            raise BadParameter("atoms and weights must have matching shapes")
        if np.any(np.diff(self.atoms) <= 0):
            raise BadParameter("atoms must be strictly ascending")
        if abs(float(np.sum(self.weights)) - 1.0) > WEIGHT_SUM_TOL:
            raise BadParameter("weights must sum to 1")

    def moment(self, k: int) -> float:
        return float(np.sum(self.weights * self.atoms**k))


@dataclass(frozen=True)
class ContinuousDistribution:
    """Absolutely continuous measure with a quadrature rule adapted to it."""

    density: Callable[[float], float]
    support: tuple[float, float]
    nodes: np.ndarray
    node_weights: np.ndarray

    def moment(self, k: int) -> float:
        return float(np.sum(self.node_weights * self.nodes**k))

    def total_mass(self) -> float:
        return float(np.sum(self.node_weights))


@dataclass(frozen=True)
class DiscreteInfiniteDistribution:
    """Countable atomic measure truncated once the tail mass drops below tolerance."""

    atom_at: Callable[[int], tuple[float, float]]

    def truncated(self) -> tuple[np.ndarray, np.ndarray]:
        tol = default_tail_tolerance()
        if not 0.0 < tol < 1.0:
            raise BadParameter(f"truncation tolerance must lie in (0, 1), got {tol}")
        atoms: list[float] = []
        weights: list[float] = []
        total = 0.0
        k = 0
        while total < 1.0 - tol:
            x, w = self.atom_at(k)
            atoms.append(x)
            weights.append(w)
            total += w
            k += 1
            if k > 10_000_000:
                raise BadParameter("truncation did not converge")
        return np.asarray(atoms), np.asarray(weights)


SpectralDistribution = (
    DiscreteDistribution | ContinuousDistribution | DiscreteInfiniteDistribution
)


def jacobi_from_intersection(ia: IntersectionArray) -> JacobiCoefficients:
    """omega_k = c_{k-1} b_k and alpha_k = a_1 - b_{k-1} - c_{k-1}, with b_0 = c_d = 0."""
    ia.ensure_valid()
    a1 = ia.degree
    omega = tuple(float(ia.c_at(k - 1) * ia.b_at(k)) for k in range(1, ia.d + 1))
    alpha = tuple(float(a1 - ia.b_at(k - 1) - ia.c_at(k - 1)) for k in range(1, ia.d + 2))
    return JacobiCoefficients(omega, alpha)


def jacobi_eigh(jc: JacobiCoefficients) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition J = U diag(atoms) U^T of the Jacobi matrix.

    J has diagonal alpha and off-diagonal sqrt(omega).  Atoms come back
    ascending and each column of U is signed so that U[0, l] > 0; then
    U[k, l] = U[0, l] p_k(x_l) with p_k the orthonormal polynomials, and the
    weight at atom l is U[0, l]^2.
    """
    off = np.sqrt(jc.omega)
    matrix = np.diag(jc.alpha) + np.diag(off, 1) + np.diag(off, -1)
    try:
        atoms, U = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise EigensolverNoConvergence(f"Jacobi eigensolver failed: {exc}") from exc
    if np.any(np.diff(atoms) <= ATOM_SEPARATION):
        raise DegenerateAtoms("quadrature produced coincident atoms")
    return atoms, U * np.where(U[0] < 0, -1.0, 1.0)


def golub_welsch(jc: JacobiCoefficients) -> DiscreteDistribution:
    """Atoms and weights U[0, l]^2 of the measure orthogonalizing the recurrence."""
    atoms, U = jacobi_eigh(jc)
    return DiscreteDistribution(atoms, U[0] ** 2)


def evaluate_polynomials(jc: JacobiCoefficients, x, up_to_k: int) -> np.ndarray:
    """Values Q_0(x)..Q_k(x) of the monic orthogonal polynomials, along the last axis.

    ``x`` may be a scalar or an array; the result has shape ``x.shape + (k+1,)``.
    """
    if up_to_k < 0 or up_to_k > jc.d:
        raise BadParameter(f"polynomial index {up_to_k} out of range 0..{jc.d}")
    x = np.asarray(x, dtype=float)
    values = [np.ones_like(x)]
    if up_to_k >= 1:
        values.append(x - jc.alpha[0])
    for k in range(1, up_to_k):
        values.append((x - jc.alpha[k]) * values[k] - jc.omega[k - 1] * values[k - 1])
    return np.stack(values, axis=-1)


def stieltjes_transform(dist: SpectralDistribution, z: complex) -> complex:
    """Diagnostic Cauchy transform of the measure at a point off its support."""
    if isinstance(dist, DiscreteDistribution):
        atoms, weights = dist.atoms, dist.weights
    elif isinstance(dist, DiscreteInfiniteDistribution):
        atoms, weights = dist.truncated()
    else:
        atoms, weights = dist.nodes, dist.node_weights
    if np.min(np.abs(z - atoms)) < 1e-12:
        raise PoleProximity(f"evaluation point {z} too close to an atom")
    return complex(np.sum(weights / (z - atoms)))


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
    atoms = np.array([x3, x2, x1])
    weights = np.array([b3, b2, b1])
    return DiscreteDistribution(atoms, weights)


def srg_intersection_array(kappa: int, lam: int, eta: int) -> IntersectionArray:
    """Diameter-2 intersection array of a strongly regular graph."""
    return IntersectionArray(d=2, c=(kappa, kappa - lam - 1), b=(1, eta))


def continuous_line_distribution(nodes: int = 256) -> ContinuousDistribution:
    """Arcsine-type measure on [-2, 2] attached to the two-sided infinite path.

    Quadrature nodes are x = 2 cos(theta) at midpoints of a uniform theta grid,
    which integrates the weight function exactly, so every node carries mass 1/N.
    """
    if nodes < 1:
        raise BadParameter("need at least one quadrature node")
    theta = (np.arange(nodes) + 0.5) * math.pi / nodes
    xs = 2.0 * np.cos(theta)[::-1]

    def density(x: float) -> float:
        return 1.0 / (math.pi * math.sqrt(4.0 - x * x))

    return ContinuousDistribution(
        density=density,
        support=(-2.0, 2.0),
        nodes=xs,
        node_weights=np.full(nodes, 1.0 / nodes),
    )


def meixner_distribution(p: float) -> DiscreteInfiniteDistribution:
    """Geometric atomic measure of the sparse-limit growing-family walk (0 < p < 1)."""
    if not (0.0 < p < 1.0):
        raise BadParameter(f"p must lie strictly between 0 and 1, got {p}")
    scale = math.sqrt(p * (2.0 - p))
    ratio = p / (2.0 - p)
    head = 2.0 * (1.0 - p) / (2.0 - p)

    def atom_at(k: int) -> tuple[float, float]:
        x = (-p + 2.0 * (1.0 - p) * k) / scale
        return x, head * ratio**k

    return DiscreteInfiniteDistribution(atom_at=atom_at)
