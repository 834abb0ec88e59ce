"""Continuous-time quantum-walk engines.

Two builders reduce a scheme to atoms x_l and a weight table w_lk, held in
one ``SchemeSpectrum``: ``eigen_spectrum`` reads them from the eigenvalue
and dual matrices of a group scheme (the character route), and
``jacobi_spectrum`` from the Jacobi-matrix eigenvectors of an intersection
array (the spectral route).  ``resolve`` picks the builder for a scheme
specification and engine.  Time is measured in inverse adjacency-eigenvalue
units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import catalog, cycle_intersection_array, hamming_intersection_array
from .errors import (
    BadParameter,
    BadParams,
    DegenerateSpectrumUnmerged,
    EngineSpecMismatch,
    InconsistentInputs,
    NumericalInstability,
)
from .groups import GroupWalkScheme, walk_scheme
from .schemes import (
    FromCatalog,
    FromGroup,
    FromIntersectionArray,
    FromSRG,
    IntersectionArray,
    ProductScheme,
    SchemeEigenstructure,
    SchemeSpec,
    ValencyVector,
    derive_stratum_sizes,
)
from .spectral import (
    ATOM_SEPARATION,
    DiscreteDistribution,
    JacobiCoefficients,
    continuous_line_distribution,
    evaluate_polynomials,
    jacobi_eigh,
    jacobi_from_intersection,
    meixner_distribution,
    srg_intersection_array,
)

UNITARITY_TOL = 1e-9
MERGE_TOL = 1e-9
ENGINES = ("eigen", "character", "spectral", "auto")


@dataclass(frozen=True, eq=False)
class AmplitudeSeries:
    """Per-stratum complex amplitudes on a time grid.

    Stratum normalization carries the unit stratum vectors; vertex
    normalization divides stratum k by sqrt(a_k) so each entry is the
    amplitude at any single vertex of that stratum.
    """

    times: np.ndarray
    strata: ValencyVector
    amplitudes: np.ndarray  # (len(times), d+1) complex
    normalization: str = "stratum"

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def to_vertex(self) -> "AmplitudeSeries":
        if self.normalization == "vertex":
            return self
        scale = np.sqrt(np.asarray(self.strata.a, dtype=float))
        return AmplitudeSeries(
            self.times, self.strata, self.amplitudes / scale, "vertex"
        )

    def unitarity_defect(self) -> float:
        if len(self.times) == 0:
            return 0.0
        if self.normalization != "stratum":
            raise BadParams("unitarity is a stratum-normalization property")
        return float(np.max(np.abs(self.probabilities().sum(axis=1) - 1.0)))

    def validate(self) -> None:
        if self.normalization == "stratum" and len(self.times):
            check = NumericalInstability.check
            check("amplitude rows are not unit vectors", self.unitarity_defect(), UNITARITY_TOL)
            at_zero = np.abs(self.times) < 1e-15
            if np.any(at_zero):
                row = self.amplitudes[np.argmax(at_zero)]
                target = np.zeros_like(row)
                target[0] = 1.0
                check("t = 0 row must be the origin indicator", row - target, UNITARITY_TOL)


@dataclass(frozen=True)
class WalkRequest:
    """A walk problem: scheme specification, time grid and engine choice."""

    spec: SchemeSpec
    times: tuple[float, ...]
    engine: str = "auto"
    normalized_adjacency: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        if self.engine not in ENGINES:
            raise BadParams(f"unknown engine {self.engine!r}")
        if any(not math.isfinite(t) or t < 0 for t in self.times):
            raise BadParams("times must be finite and nonnegative")


def _series(times, strata, amplitudes) -> AmplitudeSeries:
    series = AmplitudeSeries(
        np.asarray(times, dtype=float), strata, amplitudes, "stratum"
    )
    series.validate()
    return series


def _phase_sum(times, atoms, table) -> np.ndarray:
    """sum_l e^{-i x_l t} table[l]: the one kernel behind every finite route."""
    return np.exp(-1j * np.outer(times, atoms)) @ table


@dataclass(frozen=True, eq=False)
class AverageProbabilities:
    """Time-averaged occupation probabilities, per stratum and per vertex."""

    stratum: np.ndarray
    vertex: np.ndarray


@dataclass(frozen=True, eq=False)
class SchemeSpectrum:
    """A finite scheme reduced to atoms x_l and a weight table w_lk over its strata.

    Stratum k's amplitude is sum_l e^{-i x_l t} w_lk.  ``generating`` is the
    stratum whose valency scales the atoms of a degree-normalized walk.
    """

    atoms: np.ndarray
    table: np.ndarray  # (atoms, d+1)
    strata: ValencyVector
    generating: int = 1

    def amplitudes(self, times, *, normalized: bool = False) -> AmplitudeSeries:
        times = np.asarray(times, dtype=float)
        atoms = self.atoms / self.strata.a[self.generating] if normalized else self.atoms
        return _series(times, self.strata, _phase_sum(times, atoms, self.table))

    def averages(self) -> AverageProbabilities:
        """Sum over groups of coincident atoms of the squared summed table rows.

        Coincident atoms are merged first; the cross terms they would
        otherwise contribute do not average out.
        """
        order = np.argsort(self.atoms, kind="stable")
        starts = np.flatnonzero(np.diff(self.atoms[order], prepend=-np.inf) > MERGE_TOL)
        stratum = (np.add.reduceat(self.table[order], starts) ** 2).sum(axis=0)
        a = np.asarray(self.strata.a, dtype=float)
        return AverageProbabilities(stratum=stratum, vertex=stratum / a)


def eigen_spectrum(es: SchemeEigenstructure, generator_column: int = 1) -> SchemeSpectrum:
    """Eigenvalue-matrix route: atoms P_l,col and table sqrt(a_k) Q_kl / n."""
    a = np.asarray(es.valencies.a, dtype=float)
    table = es.Q.T * (np.sqrt(a) / es.n)
    return SchemeSpectrum(es.P[:, generator_column], table, es.valencies, generator_column)


def jacobi_spectrum(ia: IntersectionArray) -> SchemeSpectrum:
    """Spectral route: Jacobi atoms and table U[0, l] U[k, l]; column 0 holds the weights."""
    atoms, U = jacobi_eigh(jacobi_from_intersection(ia))
    return SchemeSpectrum(atoms, (U[0] * U).T, derive_stratum_sizes(ia))


# ---------------------------------------------------------------------------
# Long-time averages
# ---------------------------------------------------------------------------


def average_from_distribution(
    dist: DiscreteDistribution, jc: JacobiCoefficients, ia: IntersectionArray
) -> AverageProbabilities:
    """Averages sum_l U[0, l]^2 U[k, l]^2 = (1/a_k) sum_l B_l^2 P_k(x_l)^2.

    ``jc`` and ``dist`` must be the array's own recurrence and distribution.
    """
    if not isinstance(dist, DiscreteDistribution):
        raise InconsistentInputs("the finite spectral route needs a discrete distribution")
    if np.min(np.diff(dist.atoms)) <= MERGE_TOL:
        raise DegenerateSpectrumUnmerged(
            "coincident atoms contradict the polynomial structure of the scheme"
        )
    if jc != jacobi_from_intersection(ia):
        raise InconsistentInputs("recurrence coefficients do not come from the array")
    spectrum = jacobi_spectrum(ia)
    atoms = spectrum.atoms
    tol = ATOM_SEPARATION * max(1.0, float(np.max(np.abs(atoms))))
    if dist.atoms.shape != atoms.shape or np.max(np.abs(dist.atoms - atoms)) > tol:
        raise InconsistentInputs("distribution atoms differ from the recurrence spectrum")
    return spectrum.averages()


def average_probabilities(scheme: GroupWalkScheme) -> AverageProbabilities:
    """Averages over a group scheme's strata, on its own generating relation."""
    return eigen_spectrum(scheme.eigenstructure, scheme.generating).averages()


def time_averaged_probabilities(
    series: AmplitudeSeries,
) -> np.ndarray:
    """Trapezoid average of |amplitude|^2 over the series' own time grid."""
    probs = series.probabilities()
    t = series.times
    return np.trapezoid(probs, t, axis=0) / (t[-1] - t[0])


# ---------------------------------------------------------------------------
# Growing-family limits
# ---------------------------------------------------------------------------


def johnson_limit_amplitudes(p: float, k: int, times) -> np.ndarray:
    """Amplitudes in the growing-family limit of the set-intersection graphs.

    At p = 1 stratum k has the closed form (it)^k/(1+it)^(k+1); for p < 1 only
    the origin amplitude is available, by truncated summation over the
    geometric atomic measure.
    """
    times = np.asarray(times, dtype=float)
    if k < 0:
        raise BadParameter("stratum index must be nonnegative")
    if p == 1.0:
        it = 1j * times
        return it**k / (1.0 + it) ** (k + 1)
    if not (0.0 < p < 1.0):
        raise BadParameter(f"p must lie in (0, 1], got {p}")
    if k != 0:
        raise BadParameter("only the origin amplitude is available for p < 1")
    atoms, weights = meixner_distribution(p).truncated()
    return _phase_sum(times, atoms, weights)


def line_jacobi(k_max: int) -> JacobiCoefficients:
    """Leading recurrence coefficients of the two-sided infinite path."""
    return JacobiCoefficients(
        omega=(2.0,) + (1.0,) * (k_max - 1), alpha=(0.0,) * (k_max + 1)
    )


def line_walk(times, k_max: int, nodes: int = 512) -> AmplitudeSeries:
    """Truncated stratum amplitudes on the infinite path via arcsine quadrature.

    Only strata 0..k_max are produced, so rows are not unit vectors; the
    missing mass is the probability beyond stratum k_max.
    """
    if k_max < 1:
        raise BadParameter("k_max must be at least 1")
    dist = continuous_line_distribution(nodes)
    polys = evaluate_polynomials(line_jacobi(k_max), dist.nodes, k_max)
    times = np.asarray(times, dtype=float)
    a = np.array([1.0] + [2.0] * k_max)
    table = dist.node_weights[:, None] * polys / np.sqrt(a)
    amplitudes = _phase_sum(times, dist.nodes, table)
    strata = ValencyVector(tuple(int(x) for x in a), int(a.sum()))
    return AmplitudeSeries(times, strata, amplitudes, "stratum")


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------


def intersection_array(spec: SchemeSpec) -> IntersectionArray:
    """The specification's intersection array; ``group:cyclic:n`` with class 1 is the n-cycle."""
    if isinstance(spec, FromIntersectionArray):
        return spec.array
    if isinstance(spec, FromSRG):
        return srg_intersection_array(spec.kappa, spec.lam, spec.eta)
    if isinstance(spec, ProductScheme):
        return hamming_intersection_array(spec.copies, spec.n)
    if isinstance(spec, FromCatalog):
        entry = catalog(spec.name, spec.params)
        if entry.array is None:
            raise EngineSpecMismatch(f"catalog entry {spec.name!r} has no finite array")
        return entry.array
    if spec.group.kind == "cyclic" and spec.generating_class in (None, 1):
        return cycle_intersection_array(spec.group.n)
    raise EngineSpecMismatch("only cyclic groups with class 1 have an intersection array")


def resolve(spec: SchemeSpec, engine: str = "auto") -> SchemeSpectrum:
    """The one routing rule from a specification and an engine to a spectrum.

    Group specifications take the character route unless the engine is
    spectral; every other specification goes through the Jacobi matrix of
    its array, whatever the engine, because on an array the eigen route's
    weight table is the Jacobi one.
    """
    if engine not in ENGINES:
        raise BadParams(f"unknown engine {engine!r}")
    if isinstance(spec, FromGroup) and engine != "spectral":
        scheme = walk_scheme(spec.group, spec.generating_class)
        return eigen_spectrum(scheme.eigenstructure, scheme.generating)
    if engine == "character":
        raise EngineSpecMismatch("character engine needs a group specification")
    return jacobi_spectrum(intersection_array(spec))


def dispatch(req: WalkRequest) -> AmplitudeSeries:
    """Run a walk request on the route ``resolve`` picks."""
    return resolve(req.spec, req.engine).amplitudes(
        req.times, normalized=req.normalized_adjacency
    )
