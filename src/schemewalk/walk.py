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

from .catalog import (catalog, cycle_distribution, cycle_intersection_array,
                      hamming_distribution, hamming_intersection_array)
from .errors import (
    BadParams,
    DegenerateSpectrumUnmerged,
    EngineSpecMismatch,
    InconsistentInputs,
    NumericalInstability,
)
from .groups import hook_length_dimension, partitions, transposition_eigenvalue, walk_scheme
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
from .spectral import (DiscreteDistribution, JacobiCoefficients, check_srg_order,
                       continuous_line_distribution, evaluate_polynomials,
                       jacobi_from_intersection, srg_distribution,
                       srg_intersection_array)
from .tolerances import ATOM_SEPARATION, UNITARITY_TOL, ZERO_TIME_TOL

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
            at_zero = np.abs(self.times) < ZERO_TIME_TOL
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
        grid = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", tuple(grid.tolist()))
        if self.engine not in ENGINES:
            raise BadParams(f"unknown engine {self.engine!r}")
        if not np.all(np.isfinite(grid) & (grid >= 0)):
            raise BadParams("times must be finite and nonnegative")


def _series(times, strata, amplitudes) -> AmplitudeSeries:
    series = AmplitudeSeries(
        np.asarray(times, dtype=float), strata, amplitudes, "stratum"
    )
    series.validate()
    return series


def _grouped(atoms, table, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Ascending atoms, one per run of gaps <= tol, and the sums of their table rows."""
    order = np.argsort(atoms, kind="stable")
    ordered = atoms[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] - ordered[:-1] > tol)))
    return ordered[starts], np.add.reduceat(table[order], starts)


def _phase_sum(times, atoms, table) -> np.ndarray:
    """sum_l e^{-i x_l t} table[l]: the one kernel behind every finite route.

    The table is real, so the sum is one real product [cos(xt); sin(xt)] @ table:
    its first half is the real part and minus its second half the imaginary
    part, taken as 0.0 - s so that a zero stays +0.0.  Bitwise equal atoms are
    merged, and a symmetric spectrum is folded by ``_folded_sum``.  Atoms that
    arrive ascending and distinct, as every Jacobi spectrum does, skip the sort.
    """
    if (atoms[1:] > atoms[:-1]).all():
        ordered, order = atoms, slice(None)
    else:
        order = atoms.argsort(kind="stable")
        ordered = atoms[order]
        if (ordered[1:] == ordered[:-1]).any():
            atoms, table = _grouped(atoms, table, 0.0)
            ordered, order = atoms, slice(None)
    if (ordered == -ordered[::-1]).all():
        folded = _folded_sum(times, ordered, table[order].reshape(len(ordered), -1))
        if folded is not None:
            return folded.reshape(folded.shape[:1] + table.shape[1:])
    steps = len(times)
    trig = np.empty((2 * steps, len(atoms)))
    phase = np.multiply.outer(times, atoms, out=trig[steps:])
    np.cos(phase, out=trig[:steps])
    np.sin(phase, out=phase)
    halves = trig @ table
    result = np.empty(halves[:steps].shape, dtype=complex)
    result.real = halves[:steps]
    np.subtract(0.0, halves[steps:], out=result.imag)
    return result


def _folded_sum(times, atoms, rows) -> np.ndarray | None:
    """The sum over ascending atoms x == -x[::-1], in pairs: even columns (rows
    equal at x and -x) are cos(x+ t) @ 2W+ plus the centre row, odd columns
    (opposite rows, centre 0) are 0.0 - i sin(x+ t) @ 2W+.  None if a column is neither.
    """
    pairs = len(atoms) // 2
    plus, minus = rows[pairs:], rows[len(atoms) - pairs - 1 :: -1]  # the centre pairs with itself
    even = (minus == plus).all(0)
    if not (even | (minus == -plus).all(0)).all():
        return None
    weights = 2 * plus
    weights[: len(atoms) % 2] /= 2  # the centre row counts once
    phase = np.multiply.outer(times, atoms[pairs:])
    result = np.zeros((len(times), rows.shape[1]), dtype=complex)
    result.real[:, even] = np.cos(phase) @ weights[:, even]
    result.imag[:, ~even] = 0.0 - np.sin(phase) @ weights[:, ~even]
    return result


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
        stratum = (_grouped(self.atoms, self.table, ATOM_SEPARATION)[1] ** 2).sum(axis=0)
        a = np.asarray(self.strata.a, dtype=float)
        return AverageProbabilities(stratum=stratum, vertex=stratum / a)

    def distribution(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending distinct atoms, coincident ones merged, and their weights (column 0)."""
        return _grouped(self.atoms, self.table[:, 0], ATOM_SEPARATION)


def eigen_spectrum(es: SchemeEigenstructure) -> SchemeSpectrum:
    """Eigenvalue-matrix route: atoms P_lg on the generating stratum g, table sqrt(a_k) Q_kl/n."""
    a = np.asarray(es.valencies.a, dtype=float)
    table = es.Q.T * (np.sqrt(a) / es.n)
    atoms = es.P[:, es.generating].copy()  # a view would keep all of P alive
    return SchemeSpectrum(atoms, table, es.valencies, es.generating)


def jacobi_spectrum(
    ia: IntersectionArray, jc: JacobiCoefficients | None = None
) -> SchemeSpectrum:
    """Spectral route: Jacobi atoms and table U[0, l] U[k, l]; column 0 holds the weights.

    ``jc`` is the array's own recurrence when the caller already has it, so
    its decomposition is reused.
    """
    atoms, U = (jacobi_from_intersection(ia) if jc is None else jc).eigh
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
    if np.min(np.diff(dist.atoms)) <= ATOM_SEPARATION:
        raise DegenerateSpectrumUnmerged(
            "coincident atoms contradict the polynomial structure of the scheme"
        )
    if jc != jacobi_from_intersection(ia):
        raise InconsistentInputs("recurrence coefficients do not come from the array")
    spectrum = jacobi_spectrum(ia, jc)
    atoms = spectrum.atoms
    tol = ATOM_SEPARATION * max(1.0, float(np.max(np.abs(atoms))))
    if dist.atoms.shape != atoms.shape or np.max(np.abs(dist.atoms - atoms)) > tol:
        raise InconsistentInputs("distribution atoms differ from the recurrence spectrum")
    return spectrum.averages()


def average_probabilities(scheme: SchemeEigenstructure) -> AverageProbabilities:
    """Averages over a group scheme's strata, on its own generating relation."""
    return eigen_spectrum(scheme).averages()


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
    the origin amplitude is available: the geometric measure head ratio^j on
    the atoms (2(1-p)j - p)/s sums to head e^{ipt/s} / (1 - ratio e^{-2i(1-p)t/s}).
    """
    times = np.asarray(times, dtype=float)
    if k < 0:
        raise BadParams("stratum index must be nonnegative")
    if p == 1.0:
        it = 1j * times
        return it**k / (1.0 + it) ** (k + 1)
    if not (0.0 < p < 1.0):
        raise BadParams(f"p must lie in (0, 1], got {p}")
    if k != 0:
        raise BadParams("only the origin amplitude is available for p < 1")
    scale, ratio, head = math.sqrt(p * (2.0 - p)), p / (2.0 - p), 2.0 * (1.0 - p) / (2.0 - p)
    turn = np.exp(-2j * (1.0 - p) * times / scale)
    return head * np.exp(1j * p * times / scale) / (1.0 - ratio * turn)


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
        raise BadParams("k_max must be at least 1")
    dist = continuous_line_distribution(nodes)
    polys = evaluate_polynomials(line_jacobi(k_max), dist.atoms, k_max)
    times = np.asarray(times, dtype=float)
    a = np.array([1.0] + [2.0] * k_max)
    table = dist.weights[:, None] * polys / np.sqrt(a)
    amplitudes = _phase_sum(times, dist.atoms, table)
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
        ia = srg_intersection_array(spec.kappa, spec.lam, spec.eta)
        ia.ensure_valid()
        check_srg_order(spec.n, spec.kappa, spec.lam, spec.eta)
        return ia
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


def closed_form(spec: SchemeSpec) -> DiscreteDistribution | None:
    """The paper's closed-form spectral distribution of the specification, or None.

    Johnson graphs, generalized polygons, JSON arrays, dihedral groups and other
    group classes have none.  S_n puts d_lambda^2 / n! at each irrep's transposition eigenvalue.
    """
    if isinstance(spec, FromCatalog):
        return catalog(spec.name, spec.params).expected
    if isinstance(spec, FromSRG):
        return srg_distribution(spec.n, spec.kappa, spec.lam, spec.eta)
    if isinstance(spec, ProductScheme):
        return hamming_distribution(spec.copies, spec.n)
    if isinstance(spec, FromGroup) and spec.generating_class in (None, 1):
        if spec.group.kind == "cyclic":
            return cycle_distribution(spec.group.n)
        if spec.group.kind == "symmetric":
            shapes = partitions(spec.group.n)
            atoms = np.array([transposition_eigenvalue(lam) for lam in shapes], dtype=float)
            weights = np.array([hook_length_dimension(lam) ** 2 for lam in shapes], dtype=float)
            weights /= math.factorial(spec.group.n)
            return DiscreteDistribution(*_grouped(atoms, weights, ATOM_SEPARATION))
    return None


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
        return eigen_spectrum(walk_scheme(spec.group, spec.generating_class))
    if engine == "character":
        raise EngineSpecMismatch("character engine needs a group specification")
    return jacobi_spectrum(intersection_array(spec))


def dispatch(req: WalkRequest) -> AmplitudeSeries:
    """Run a walk request on the route ``resolve`` picks."""
    return resolve(req.spec, req.engine).amplitudes(
        req.times, normalized=req.normalized_adjacency
    )
