"""Named families of distance-regular graphs with known spectral distributions.

Each entry yields an intersection array and, where a trusted closed form
exists, the expected distribution the quadrature must reproduce.  Entries for
the two generalized-polygon families carry no expected distribution: their
transcribed closed-form weight tables are ambiguous, so tests pin specific
parameter points against quadrature ground truth instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .errors import BadParams, UnknownCatalogName
from .schemes import IntersectionArray, check_strata
from .spectral import DiscreteDistribution, continuous_line_distribution


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    """A family at given parameters; ``expected`` is built on first read."""

    name: str
    params: tuple[int, ...]
    array: IntersectionArray | None
    closed_form: Callable[[], DiscreteDistribution | None]

    @cached_property
    def expected(self) -> DiscreteDistribution | None:
        return self.closed_form()


def _dist(pairs: list[tuple[float, float]]) -> DiscreteDistribution:
    pairs = sorted(pairs)
    atoms = np.array([x for x, _ in pairs])
    weights = np.array([w for _, w in pairs])
    return DiscreteDistribution(atoms, weights)


def complete_intersection_array(n: int) -> IntersectionArray:
    if n < 2:
        raise BadParams("complete graph needs n >= 2")
    return IntersectionArray(d=1, c=(n - 1,), b=(1,))


def complete_distribution(n: int) -> DiscreteDistribution:
    return _dist([(-1.0, (n - 1) / n), (float(n - 1), 1.0 / n)])


def cycle_intersection_array(n: int) -> IntersectionArray:
    if n < 3:
        raise BadParams("cycle needs n >= 3")
    check_strata(n // 2 + 1, f"the {n}-cycle")
    if n % 2 == 1:
        d = (n - 1) // 2
        return IntersectionArray(d=d, c=(2,) + (1,) * (d - 1), b=(1,) * d)
    d = n // 2
    return IntersectionArray(d=d, c=(2,) + (1,) * (d - 1), b=(1,) * (d - 1) + (2,))


def cycle_distribution(n: int) -> DiscreteDistribution:
    top = n // 2
    pairs = []
    for j in range(top + 1):
        x = 2.0 * math.cos(2.0 * math.pi * j / n)
        interior = 0 < j < n / 2
        pairs.append((x, 2.0 / n if interior else 1.0 / n))
    return _dist(pairs)


def johnson_intersection_array(v: int, d: int) -> IntersectionArray:
    if d < 1 or v < 2 * d:
        raise BadParams("set-intersection family needs 1 <= d and 2d <= v")
    check_strata(d + 1, f"J({v},{d})")
    c = tuple((d - i) * (v - d - i) for i in range(d))
    b = tuple(i * i for i in range(1, d + 1))
    return IntersectionArray(d=d, c=c, b=b)


def hamming_intersection_array(d: int, n: int) -> IntersectionArray:
    """Array of the product of d complete graphs K_n."""
    if d < 1 or n < 2:
        raise BadParams("Hamming scheme H(d, n) needs d >= 1 copies of K_n with n >= 2")
    check_strata(d + 1, f"H({d},{n})")
    c = tuple((n - 1) * (d - i) for i in range(d))
    b = tuple(range(1, d + 1))
    return IntersectionArray(d=d, c=c, b=b)


def hamming_distribution(d: int, n: int) -> DiscreteDistribution:
    """Binomial distribution with atoms n*l - d, l = 0..d."""
    atoms = np.array([n * l - d for l in range(d + 1)], dtype=float)
    weights = np.array(
        [math.comb(d, l) * (n - 1) ** (d - l) / n**d for l in range(d + 1)]
    )
    return DiscreteDistribution(atoms, weights)


def _gen_octagon(s: int, t: int) -> IntersectionArray:
    if s < 2 or t < 1:
        raise BadParams("collinearity family needs s >= 2, t >= 1")
    return IntersectionArray(d=4, c=(s * (t + 1), s * t, s * t, s * t), b=(1, 1, 1, t + 1))


def _gen_dodecagon(s: int) -> IntersectionArray:
    if s < 2:
        raise BadParams("collinearity family needs s >= 2")
    return IntersectionArray(d=6, c=(2 * s, s, s, s, s, s), b=(1, 1, 1, 1, 1, 2))


def _incidence_pg(k: int) -> IntersectionArray:
    if k not in (4, 5, 7, 8):
        raise BadParams("incidence family is tabulated for k in {4, 5, 7, 8}")
    return IntersectionArray(d=4, c=(k, k - 1, k - 1, 1), b=(1, 1, k - 1, k))


def _incidence_pg_distribution(k: int) -> DiscreteDistribution:
    root = math.sqrt(k)
    return _dist(
        [
            (-float(k), 1.0 / (2 * k * k)),
            (-root, (k - 1) / (2 * k)),
            (0.0, (k - 1) / (k * k)),
            (root, (k - 1) / (2 * k)),
            (float(k), 1.0 / (2 * k * k)),
        ]
    )


_M22 = (
    IntersectionArray(d=4, c=(7, 6, 4, 4), b=(1, 1, 1, 6)),
    _dist([(-4.0, 7 / 110), (-3.0, 3 / 10), (1.0, 7 / 15), (4.0, 1 / 6), (7.0, 1 / 330)]),
)

_BINARY_GOLAY = (
    IntersectionArray(d=3, c=(21, 20, 16), b=(1, 2, 12)),
    _dist([(-11.0, 21 / 512), (-3.0, 35 / 64), (5.0, 105 / 256), (21.0, 1 / 512)]),
)

_TERNARY_GOLAY = (
    IntersectionArray(d=3, c=(24, 22, 20), b=(1, 2, 12)),
    _dist([(-12.0, 8 / 243), (-3.0, 440 / 729), (6.0, 88 / 243), (24.0, 1 / 729)]),
)

# Weight table from quadrature (equivalently, the known eigenvalue
# multiplicities 5, 8, 10, 8, 1 over 32 vertices).
_WELLS = (
    IntersectionArray(d=4, c=(5, 4, 1, 1), b=(1, 1, 4, 5)),
    _dist(
        [
            (-3.0, 5 / 32),
            (-math.sqrt(5), 1 / 4),
            (1.0, 5 / 16),
            (math.sqrt(5), 1 / 4),
            (5.0, 1 / 32),
        ]
    ),
)

_THREE_COVER_GQ22 = (
    IntersectionArray(d=4, c=(6, 4, 2, 1), b=(1, 1, 4, 6)),
    _dist([(-3.0, 1 / 9), (-2.0, 2 / 5), (1.0, 1 / 5), (3.0, 4 / 15), (6.0, 1 / 45)]),
)

_DOUBLE_HOFFMAN_SINGLETON = (
    IntersectionArray(d=5, c=(7, 6, 6, 1, 1), b=(1, 1, 6, 6, 7)),
    _dist(
        [
            (-7.0, 1 / 100),
            (-3.0, 21 / 100),
            (-2.0, 7 / 25),
            (2.0, 7 / 25),
            (3.0, 21 / 100),
            (7.0, 1 / 100),
        ]
    ),
)

_FOSTER = (
    IntersectionArray(d=8, c=(3, 2, 2, 2, 2, 1, 1, 1), b=(1, 1, 1, 1, 2, 2, 2, 3)),
    _dist(
        [
            (-3.0, 1 / 90),
            (-math.sqrt(6), 2 / 15),
            (-2.0, 1 / 10),
            (-1.0, 1 / 5),
            (0.0, 1 / 9),
            (1.0, 1 / 5),
            (2.0, 1 / 10),
            (math.sqrt(6), 2 / 15),
            (3.0, 1 / 90),
        ]
    ),
)


_PETERSEN = (
    IntersectionArray(d=2, c=(3, 2), b=(1, 1)),
    _dist([(-2.0, 2 / 5), (1.0, 1 / 2), (3.0, 1 / 10)]),
)


def _fixed(entry: tuple[IntersectionArray, DiscreteDistribution]):
    """Array and expected-distribution builders of a parameter-free family."""
    return lambda: entry[0], lambda: entry[1]


def _none(*params: int) -> None:
    """The expected-distribution builder of a family with no trusted closed form."""
    return None


# name -> (parameter names, array builder, expected-distribution builder)
_FAMILIES = {
    "complete": (("n",), complete_intersection_array, complete_distribution),
    "cycle": (("n",), cycle_intersection_array, cycle_distribution),
    "petersen": ((), *_fixed(_PETERSEN)),
    "johnson": (("v", "d"), johnson_intersection_array, _none),
    "hamming": (("d", "n"), hamming_intersection_array, hamming_distribution),
    "gen_octagon": (("s", "t"), _gen_octagon, _none),
    "gen_dodecagon": (("s",), _gen_dodecagon, _none),
    "m22": ((), *_fixed(_M22)),
    "incidence_pg": (("k",), _incidence_pg, _incidence_pg_distribution),
    "doubly_truncated_binary_golay": ((), *_fixed(_BINARY_GOLAY)),
    "extended_ternary_golay": ((), *_fixed(_TERNARY_GOLAY)),
    "wells": ((), *_fixed(_WELLS)),
    "three_cover_gq22": ((), *_fixed(_THREE_COVER_GQ22)),
    "double_hoffman_singleton": ((), *_fixed(_DOUBLE_HOFFMAN_SINGLETON)),
    "foster": ((), *_fixed(_FOSTER)),
    "line": ((), _none, continuous_line_distribution),
}


def catalog_names() -> tuple[str, ...]:
    return tuple(sorted(_FAMILIES))


def catalog(name: str, params: tuple[int, ...] = ()) -> CatalogEntry:
    """Look up a named family, substituting the given integer parameters.

    The array is built and checked now; the closed-form distribution only
    when ``expected`` is first read.
    """
    if name not in _FAMILIES:
        raise UnknownCatalogName(f"unknown catalog name {name!r}")
    expected_params, array_of, expected_of = _FAMILIES[name]
    if any(int(p) != p for p in params):
        raise BadParams(f"{name} parameters must be integers, got {params!r}")
    params = tuple(int(p) for p in params)
    if len(params) != len(expected_params):
        raise BadParams(
            f"{name} expects parameters {expected_params}, got {len(params)}"
        )
    return CatalogEntry(name, params, array_of(*params), partial(expected_of, *params))
