"""Continuous-time quantum-walk engines.

Three interchangeable routes compute the same stratum amplitudes: the
eigenstructure route sums dual eigenvalues against eigenvalue phases, the
character route does the same with group data, and the spectral route sums
phases against products of Jacobi-matrix eigenvector entries.  Each route
only supplies atoms x_l and a weight table w_lk, held in one
``SchemeSpectrum``; ``resolve`` picks the route for a scheme specification
and engine.  Time is measured in inverse adjacency-eigenvalue units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import (
    catalog,
    cycle_intersection_array,
    hamming_distribution,
    hamming_intersection_array,
)
from .errors import (
    BadParameter,
    BadParams,
    DegenerateSpectrumUnmerged,
    EngineSpecMismatch,
    InconsistentInputs,
    NonRealGeneratingClass,
)
from .groups import (
    CharacterTable,
    GroupWalkScheme,
    SymmetrizedScheme,
    fused_eigenstructure,
    walk_scheme,
)
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
    eigenstructure_from_array,
)
from .spectral import (
    ATOM_SEPARATION,
    DiscreteDistribution,
    JacobiCoefficients,
    SpectralDistribution,
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

    def validate(self, tol: float = UNITARITY_TOL) -> None:
        if self.normalization == "stratum" and len(self.times):
            if self.unitarity_defect() > tol:
                raise BadParams("amplitude rows are not unit vectors")
            at_zero = np.abs(self.times) < 1e-15
            if np.any(at_zero):
                row = self.amplitudes[np.argmax(at_zero)]
                target = np.zeros_like(row)
                target[0] = 1.0
                if np.max(np.abs(row - target)) > tol:
                    raise BadParams("t = 0 row must be the origin indicator")


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
    """Eigen and character routes: atoms P_l,col and table sqrt(a_k) Q_kl / n."""
    a = np.asarray(es.valencies.a, dtype=float)
    table = es.Q.T * (np.sqrt(a) / es.n)
    return SchemeSpectrum(es.P[:, generator_column], table, es.valencies, generator_column)


def jacobi_spectrum(ia: IntersectionArray) -> SchemeSpectrum:
    """Spectral route: Jacobi atoms and table U[0, l] U[k, l]; column 0 holds the weights."""
    atoms, U = jacobi_eigh(jacobi_from_intersection(ia))
    return SchemeSpectrum(atoms, (U[0] * U).T, derive_stratum_sizes(ia))


def amplitudes_eigen(
    es: SchemeEigenstructure,
    times,
    *,
    generator_column: int = 1,
    normalized: bool = False,
) -> AmplitudeSeries:
    """Stratum amplitudes (sqrt(a_k)/n) sum_i e^{-i P_i1 t} Q_ki."""
    return eigen_spectrum(es, generator_column).amplitudes(times, normalized=normalized)


def _checked_spectrum(
    dist: SpectralDistribution, jc: JacobiCoefficients, ia: IntersectionArray
) -> SchemeSpectrum:
    """The array's spectrum, after checking ``jc`` and ``dist`` belong to the array."""
    if jc != jacobi_from_intersection(ia):
        raise InconsistentInputs("recurrence coefficients do not come from the array")
    if not isinstance(dist, DiscreteDistribution):
        raise InconsistentInputs("the finite spectral route needs a discrete distribution")
    spectrum = jacobi_spectrum(ia)
    atoms = spectrum.atoms
    tol = ATOM_SEPARATION * max(1.0, float(np.max(np.abs(atoms))))
    if dist.atoms.shape != atoms.shape or np.max(np.abs(dist.atoms - atoms)) > tol:
        raise InconsistentInputs("distribution atoms differ from the recurrence spectrum")
    return spectrum


def amplitudes_spectral(
    dist: SpectralDistribution,
    jc: JacobiCoefficients,
    ia: IntersectionArray,
    times,
    *,
    normalized: bool = False,
) -> AmplitudeSeries:
    """Stratum amplitudes sum_l e^{-i x_l t} U[0, l] U[k, l] over the Jacobi eigenvectors.

    Equals (1/sqrt(a_k)) times the integral of e^{-ixt} P_k(x) against ``dist``,
    which must be the recurrence's own distribution.
    """
    return _checked_spectrum(dist, jc, ia).amplitudes(times, normalized=normalized)


def amplitudes_group(
    source: CharacterTable | SymmetrizedScheme | GroupWalkScheme,
    generating_class: int,
    times,
    *,
    normalized: bool = False,
) -> AmplitudeSeries:
    """Character-route amplitudes over conjugacy-class strata."""
    if isinstance(source, GroupWalkScheme):
        es = source.eigenstructure
        generating_class = source.generating
    elif isinstance(source, SymmetrizedScheme):
        es = source.eigenstructure
    else:
        if not source.is_symmetric():
            raise NonRealGeneratingClass(
                f"{source.group_label} has unmerged complex classes"
            )
        groups = tuple((k,) for k in range(source.n_classes))
        es = fused_eigenstructure(source, groups, generating_class)
    return amplitudes_eigen(
        es, times, generator_column=generating_class, normalized=normalized
    )


# ---------------------------------------------------------------------------
# Long-time averages
# ---------------------------------------------------------------------------


def average_from_eigenstructure(
    es: SchemeEigenstructure, *, generator_column: int = 1
) -> AverageProbabilities:
    """Averages (1/n^2) sum over distinct eigenvalues of (sum of Q rows)^2."""
    return eigen_spectrum(es, generator_column).averages()


def average_from_distribution(
    dist: DiscreteDistribution, jc: JacobiCoefficients, ia: IntersectionArray
) -> AverageProbabilities:
    """Averages sum_l U[0, l]^2 U[k, l]^2 = (1/a_k) sum_l B_l^2 P_k(x_l)^2."""
    if np.min(np.diff(dist.atoms)) <= MERGE_TOL:
        raise DegenerateSpectrumUnmerged(
            "coincident atoms contradict the polynomial structure of the scheme"
        )
    return _checked_spectrum(dist, jc, ia).averages()


def average_probabilities(source, *args, **kwargs) -> AverageProbabilities:
    """Dispatch on the source type: eigenstructure, group data, or distribution."""
    if isinstance(source, SchemeEigenstructure):
        return average_from_eigenstructure(source, **kwargs)
    if isinstance(source, GroupWalkScheme):
        return average_from_eigenstructure(
            source.eigenstructure, generator_column=source.generating
        )
    if isinstance(source, SymmetrizedScheme):
        return average_from_eigenstructure(source.eigenstructure, **kwargs)
    if isinstance(source, DiscreteDistribution):
        return average_from_distribution(source, *args, **kwargs)
    raise BadParams(f"cannot average over {type(source).__name__}")


def time_averaged_probabilities(
    series: AmplitudeSeries,
) -> np.ndarray:
    """Trapezoid average of |amplitude|^2 over the series' own time grid."""
    probs = series.probabilities()
    t = series.times
    return np.trapezoid(probs, t, axis=0) / (t[-1] - t[0])


# ---------------------------------------------------------------------------
# Product schemes and growing-family limits
# ---------------------------------------------------------------------------


def hamming_walk(
    n: int, d: int, times, *, normalized: bool = False
) -> tuple[AmplitudeSeries, DiscreteDistribution]:
    """Walk on the product of d complete graphs K_n, plus its spectral distribution.

    The origin amplitude factorizes into the d-th power of the K_n origin
    amplitude: the walk does not entangle the factors.
    """
    ia = hamming_intersection_array(d, n)
    dist = hamming_distribution(d, n)
    series = amplitudes_spectral(
        dist, jacobi_from_intersection(ia), ia, times, normalized=normalized
    )
    return series, dist


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
    spectral; ``eigen`` on any other specification goes through the
    eigenvalue matrices of its array, and everything else through the
    Jacobi matrix of its array.
    """
    if engine not in ENGINES:
        raise BadParams(f"unknown engine {engine!r}")
    if isinstance(spec, FromGroup) and engine != "spectral":
        scheme = walk_scheme(spec.group, spec.generating_class)
        return eigen_spectrum(scheme.eigenstructure, scheme.generating)
    if engine == "character":
        raise EngineSpecMismatch("character engine needs a group specification")
    ia = intersection_array(spec)
    if engine == "eigen":
        return eigen_spectrum(eigenstructure_from_array(ia))
    return jacobi_spectrum(ia)


def dispatch(req: WalkRequest) -> AmplitudeSeries:
    """Run a walk request on the route ``resolve`` picks."""
    return resolve(req.spec, req.engine).amplitudes(
        req.times, normalized=req.normalized_adjacency
    )
