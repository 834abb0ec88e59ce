"""Independent references and output checks for the benchmark.

Nothing here imports schemewalk.  Each graph is described by a *model*, a
plain tuple in the benchmark's own terms, and every reference is computed
from that model with numpy alone:

- cycles and cyclic groups: the DFT closed form;
- complete and Hamming graphs: products of K_q amplitudes;
- dihedral groups (walk on the reflections, i.e. K_{m,m}): closed form;
- symmetric groups (walk on the transpositions): the origin amplitude
  sum_lambda (f_lambda^2/n!) e^{-i content(lambda) t};
- every other intersection array: numpy.linalg.eigh of the tridiagonal
  Jacobi matrix built from the array;
- the infinite path: Bessel functions.

Model tuples:
    ("cycle", n)  ("complete", n)  ("hamming", d, q)  ("johnson", v, d)
    ("gen_octagon", s, t)  ("gen_dodecagon", s)  ("incidence_pg", k)
    ("srg", n, kappa, lam, eta)  ("fixed", name)
    ("cyclic", n)  ("dihedral", m)  ("symmetric", n)

Intersection arrays use the orientation of the program's spec grammar:
``c[i]`` counts neighbours one stratum outward from distance i and
``b[i-1]`` counts neighbours one stratum back from distance i.

A check raises ``Mismatch`` with the observed deviation and its tolerance.
Tolerances are scaled to the quantity they check: amplitude errors grow with
the number of strata and with t times the spectral radius.
"""

from __future__ import annotations

import json
import math

import numpy as np

EPS = np.finfo(float).eps
# Printed values carry 12 decimals, or 12 significant digits (JSON output and
# character tables): a relative error of 5e-12 on values of size at most 1.
PRINT_TOL = 1e-11

# Intersection arrays of the fixed distance-regular graphs (Brouwer-Cohen-
# Neumaier tables), in the outward/backward orientation described above.
FIXED_ARRAYS = {
    "petersen": ((3, 2), (1, 1)),
    "m22": ((7, 6, 4, 4), (1, 1, 1, 6)),
    "wells": ((5, 4, 1, 1), (1, 1, 4, 5)),
    "three_cover_gq22": ((6, 4, 2, 1), (1, 1, 4, 6)),
    "doubly_truncated_binary_golay": ((21, 20, 16), (1, 2, 12)),
    "extended_ternary_golay": ((24, 22, 20), (1, 2, 12)),
    "double_hoffman_singleton": ((7, 6, 6, 1, 1), (1, 1, 6, 6, 7)),
    "foster": ((3, 2, 2, 2, 2, 1, 1, 1), (1, 1, 1, 1, 2, 2, 2, 3)),
}

# The families `schemewalk catalog list` documents.
CATALOG_NAMES = (
    "complete", "cycle", "double_hoffman_singleton", "doubly_truncated_binary_golay",
    "extended_ternary_golay", "foster", "gen_dodecagon", "gen_octagon", "hamming",
    "incidence_pg", "johnson", "line", "m22", "petersen", "three_cover_gq22", "wells",
)


class Mismatch(Exception):
    """An output disagrees with its reference by more than the tolerance."""


def _require(ok: bool, what: str, dev: float = float("nan"), tol: float = float("nan")) -> None:
    if not ok:
        raise Mismatch(f"{what}: deviation {dev:.3e} exceeds tolerance {tol:.3e}")


# ---------------------------------------------------------------------------
# Combinatorics of the models
# ---------------------------------------------------------------------------


def model_array(model) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """(outward c, backward b) for distance-regular models; None for groups."""
    kind = model[0]
    if kind in ("cycle", "cyclic"):
        n = model[1]
        d = n // 2
        back = (1,) * (d - 1) + ((2,) if n % 2 == 0 else (1,))
        return (2,) + (1,) * (d - 1), back
    if kind == "complete":
        return (model[1] - 1,), (1,)
    if kind == "hamming":
        d, q = model[1], model[2]
        return tuple((q - 1) * (d - i) for i in range(d)), tuple(range(1, d + 1))
    if kind == "johnson":
        v, d = model[1], model[2]
        return tuple((d - i) * (v - d - i) for i in range(d)), tuple(i * i for i in range(1, d + 1))
    if kind == "gen_octagon":
        s, t = model[1], model[2]
        return (s * (t + 1), s * t, s * t, s * t), (1, 1, 1, t + 1)
    if kind == "gen_dodecagon":
        s = model[1]
        return (2 * s, s, s, s, s, s), (1, 1, 1, 1, 1, 2)
    if kind == "incidence_pg":
        k = model[1]
        return (k, k - 1, k - 1, 1), (1, 1, k - 1, k)
    if kind == "srg":
        _, _, kappa, lam, eta = model
        return (kappa, kappa - lam - 1), (1, eta)
    if kind == "fixed":
        return FIXED_ARRAYS[model[1]]
    return None


def partitions_lex(n: int) -> list[tuple[int, ...]]:
    """Partitions of n as weakly decreasing tuples, ascending lexicographically."""
    out: list[tuple[int, ...]] = []

    def gen(rest: int, cap: int, head: tuple[int, ...]) -> None:
        if rest == 0:
            out.append(head)
            return
        for part in range(min(rest, cap), 0, -1):
            gen(rest - part, part, head + (part,))

    gen(n, n, ())
    return sorted(out)


def _hook_dimension(lam: tuple[int, ...]) -> int:
    n = sum(lam)
    conj = [sum(1 for part in lam if part > j) for j in range(lam[0])]
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= (row - j) + (conj[j] - i) - 1
    return math.factorial(n) // hooks


def _content(lam: tuple[int, ...]) -> int:
    return sum(j - i for i, row in enumerate(lam) for j in range(row))


def _class_size(rho: tuple[int, ...]) -> int:
    z = 1
    for length in set(rho):
        count = rho.count(length)
        z *= length**count * math.factorial(count)
    return math.factorial(sum(rho)) // z


def stratum_sizes(model) -> tuple[int, ...]:
    """Stratum sizes in the order the program reports strata."""
    kind = model[0]
    if kind == "dihedral":
        m = model[1]
        if m % 2 == 0:  # identity, reflections, central rotation, rotation pairs
            return (1, m, 1) + (2,) * (m // 2 - 1)
        return (1, m) + (2,) * ((m - 1) // 2)
    if kind == "symmetric":
        return tuple(_class_size(rho) for rho in partitions_lex(model[1]))
    c, b = model_array(model)
    sizes = [1]
    for k in range(len(c)):
        sizes.append(sizes[-1] * c[k] // b[k])
    return tuple(sizes)


def degree(model) -> int:
    """Valency of the generating relation (the walk's spectral radius)."""
    kind = model[0]
    if kind == "dihedral":
        return model[1]
    if kind == "symmetric":
        return math.comb(model[1], 2)
    return model_array(model)[0][0]


def group_order(model) -> int:
    kind, n = model[0], model[1]
    return {"cyclic": n, "dihedral": 2 * n, "symmetric": math.factorial(n)}[kind]


# ---------------------------------------------------------------------------
# Spectral data of an array: eigh of the Jacobi matrix
# ---------------------------------------------------------------------------


def jacobi_eigh(c, b) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of the stratum tridiagonal matrix."""
    d = len(c)
    deg = c[0]
    out = list(c) + [0]
    back = [0] + list(b)
    diag = np.array([deg - out[k] - back[k] for k in range(d + 1)], dtype=float)
    off = np.sqrt(np.array([c[k] * b[k] for k in range(d)], dtype=float))
    J = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    return np.linalg.eigh(J)


def _chunks(times: np.ndarray, size: int = 128):
    for start in range(0, len(times), size):
        yield slice(start, start + size)


def _jacobi_amplitudes(c, b, times, scale):
    x, U = jacobi_eigh(c, b)
    weights = U[0][:, None] * U.T  # (atoms, strata): U0l Ukl
    out = np.empty((len(times), len(c) + 1), dtype=complex)
    for sl in _chunks(times):
        out[sl] = np.exp(-1j * np.outer(times[sl], x * scale)) @ weights
    return out


def _cycle_amplitudes(n, times, scale):
    d = n // 2
    j = np.arange(d + 1)
    theta = 2.0 * np.pi * j / n
    mult = np.where((j == 0) | (2 * j == n), 1.0, 2.0)
    k = np.arange(d + 1)
    sizes = np.where((k == 0) | (2 * k == n), 1.0, 2.0)
    basis = mult[:, None] * np.cos(np.outer(j, k) * 2.0 * np.pi / n) * np.sqrt(sizes) / n
    out = np.empty((len(times), d + 1), dtype=complex)
    for sl in _chunks(times):
        out[sl] = np.exp(-2j * np.outer(times[sl], np.cos(theta)) * scale) @ basis
    return out


def _hamming_amplitudes(d, q, times, scale):
    t = times * scale
    u = (np.exp(-1j * (q - 1) * t) + (q - 1) * np.exp(1j * t)) / q
    v = (np.exp(-1j * (q - 1) * t) - np.exp(1j * t)) / q
    k = np.arange(d + 1)
    sizes = np.array([math.comb(d, i) * (q - 1) ** i for i in k], dtype=float)
    return np.sqrt(sizes) * u[:, None] ** (d - k) * v[:, None] ** k


def _dihedral_amplitudes(m, times, scale):
    t = times * scale
    root = 1.0 - 1.0 / m + np.cos(m * t) / m
    reflection = -1j * np.sin(m * t) / m
    rotation = (np.cos(m * t) - 1.0) / m
    sizes = np.asarray(stratum_sizes(("dihedral", m)), dtype=float)
    out = np.empty((len(t), len(sizes)), dtype=complex)
    out[:, 0] = root
    out[:, 1] = reflection * np.sqrt(m)
    out[:, 2:] = rotation[:, None] * np.sqrt(sizes[2:])
    return out


def _symmetric_spectrum(n):
    """(content, f^2/n!) for every irrep of S_n."""
    order = math.factorial(n)
    return [(_content(lam), _hook_dimension(lam) ** 2 / order) for lam in partitions_lex(n)]


def amplitudes(model, times, *, normalized: bool = False) -> np.ndarray:
    """Stratum amplitudes on the time grid, shape (T, strata).

    For symmetric groups only column 0 (the origin) is a reference; the other
    columns are NaN and are covered by the unit-row property instead.
    """
    times = np.asarray(times, dtype=float)
    scale = 1.0 / degree(model) if normalized else 1.0
    kind = model[0]
    if kind in ("cycle", "cyclic"):
        return _cycle_amplitudes(model[1], times, scale)
    if kind == "complete":
        return _hamming_amplitudes(1, model[1], times, scale)
    if kind == "hamming":
        return _hamming_amplitudes(model[1], model[2], times, scale)
    if kind == "dihedral":
        return _dihedral_amplitudes(model[1], times, scale)
    if kind == "symmetric":
        n = model[1]
        out = np.full((len(times), len(partitions_lex(n))), np.nan, dtype=complex)
        spec = _symmetric_spectrum(n)
        out[:, 0] = sum(w * np.exp(-1j * c * times * scale) for c, w in spec)
        return out
    c, b = model_array(model)
    return _jacobi_amplitudes(c, b, times, scale)


def averages(model) -> np.ndarray:
    """Long-time average stratum probabilities (symmetric groups: origin only)."""
    kind = model[0]
    if kind == "dihedral":
        m = model[1]
        sizes = np.asarray(stratum_sizes(model), dtype=float)
        out = sizes * 3.0 / (2.0 * m * m)
        out[0] = (1.0 - 1.0 / m) ** 2 + 1.0 / (2.0 * m * m)
        out[1] = 1.0 / (2.0 * m)
        return out
    if kind == "symmetric":
        n = model[1]
        by_eigenvalue: dict[int, float] = {}
        for content, w in _symmetric_spectrum(n):
            by_eigenvalue[content] = by_eigenvalue.get(content, 0.0) + w
        out = np.full(len(partitions_lex(n)), np.nan)
        out[0] = sum(w * w for w in by_eigenvalue.values())
        return out
    c, b = model_array(model)
    _, U = jacobi_eigh(c, b)
    return (U[0][None, :] ** 2 * U**2).sum(axis=1)


def spectrum(model) -> tuple[np.ndarray, np.ndarray]:
    c, b = model_array(model)
    x, U = jacobi_eigh(c, b)
    return x, U[0] ** 2


def bessel_j(k: int, z: np.ndarray, nodes: int = 512) -> np.ndarray:
    """J_k(z) by the trapezoid rule on its periodic integral (exact up to J_{nodes-k})."""
    tau = 2.0 * np.pi * np.arange(nodes) / nodes
    z = np.asarray(z, dtype=float)
    return np.cos(k * tau[None, :] - z[:, None] * np.sin(tau)[None, :]).mean(axis=1)


def line_amplitudes(times, k_max: int) -> np.ndarray:
    """Infinite path: psi_0 = J_0(2t), psi_k = sqrt(2) (-i)^k J_k(2t)."""
    times = np.asarray(times, dtype=float)
    out = np.empty((len(times), k_max + 1), dtype=complex)
    for k in range(k_max + 1):
        factor = 1.0 if k == 0 else math.sqrt(2.0) * (-1j) ** k
        out[:, k] = factor * bessel_j(k, 2.0 * times)
    return out


# ---------------------------------------------------------------------------
# Tolerances
# ---------------------------------------------------------------------------


def amplitude_tol(model, times, *, normalized: bool = False, printed: bool = False) -> float:
    """Rounding budget: strata x (1 + t_max x spectral radius) x eps, with headroom."""
    t_max = float(np.max(times)) if len(times) else 0.0
    rho = 1.0 if normalized else float(degree(model))
    strata = len(stratum_sizes(model))
    tol = 1e4 * EPS * strata * (1.0 + t_max * rho)
    return tol + (PRINT_TOL if printed else 0.0)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_amplitudes(model, times, amps, *, normalized=False, vertex_level=False,
                     printed=False) -> None:
    """Amplitudes against the model's reference plus the unit-row and t=0 properties."""
    times = np.asarray(times, dtype=float)
    amps = np.asarray(amps)
    sizes = np.asarray(stratum_sizes(model), dtype=float)
    _require(amps.shape == (len(times), len(sizes)), f"shape {amps.shape} for {model}")
    stratum = amps * np.sqrt(sizes) if vertex_level else amps
    tol = amplitude_tol(model, times, normalized=normalized, printed=printed)
    if vertex_level:
        tol *= math.sqrt(float(sizes.max()))
    unit = float(np.max(np.abs((np.abs(stratum) ** 2).sum(axis=1) - 1.0)))
    _require(unit <= tol, "unit rows", unit, tol)
    at_zero = np.flatnonzero(times == 0.0)
    if len(at_zero):
        target = np.zeros(len(sizes))
        target[0] = 1.0
        dev = float(np.max(np.abs(stratum[at_zero] - target)))
        _require(dev <= tol, "t=0 row is the origin indicator", dev, tol)
    ref = amplitudes(model, times, normalized=normalized)
    known = ~np.isnan(ref.real)
    dev = float(np.max(np.abs(stratum[known] - ref[known])))
    _require(dev <= tol, f"amplitudes of {model}", dev, tol)


def check_averages(model, values, *, vertex_level=False, printed=False) -> None:
    values = np.asarray(values, dtype=float)
    sizes = np.asarray(stratum_sizes(model), dtype=float)
    _require(values.shape == sizes.shape, f"average shape {values.shape} for {model}")
    stratum = values * sizes if vertex_level else values
    tol = 1e4 * EPS * len(sizes) + (PRINT_TOL * float(sizes.max()) if printed else 0.0)
    lo = float(min(0.0, stratum.min()))
    hi = float(max(1.0, stratum.max()))
    _require(-lo <= tol and hi - 1.0 <= tol, "averages lie in [0, 1]", max(-lo, hi - 1.0), tol)
    total = abs(float(stratum.sum()) - 1.0)
    _require(total <= tol, "averages sum to 1", total, tol)
    ref = averages(model)
    known = ~np.isnan(ref)
    dev = float(np.max(np.abs(stratum[known] - ref[known])))
    _require(dev <= tol, f"averages of {model}", dev, tol)


def check_spectrum(model, atoms, weights, *, printed=False) -> None:
    x, w = spectrum(model)
    atoms = np.asarray(atoms, dtype=float)
    weights = np.asarray(weights, dtype=float)
    _require(atoms.shape == x.shape, f"{len(atoms)} atoms for {model}, expected {len(x)}")
    scale = float(degree(model))
    tol = 1e4 * EPS * len(x) * scale + (PRINT_TOL if printed else 0.0)
    dev = float(np.max(np.abs(atoms - x)))
    _require(dev <= tol, f"atoms of {model}", dev, tol)
    wtol = 1e4 * EPS * len(x) + (PRINT_TOL if printed else 0.0)
    dev = float(np.max(np.abs(weights - w)))
    _require(dev <= wtol, f"weights of {model}", dev, wtol)


def check_line_measure(nodes, weights) -> None:
    """Arcsine measure on [-2, 2]: unit mass and even moments C(2k, k)."""
    nodes = np.asarray(nodes, dtype=float)
    weights = np.asarray(weights, dtype=float)
    for k in range(0, 7):
        moment = float(np.sum(weights * nodes ** (2 * k)))
        target = math.comb(2 * k, k)
        # rows carry 12 decimals: each node and weight is within 5e-13
        tol = 1e-12 * len(nodes) * 4**k * (2 * k + 1)
        _require(abs(moment - target) <= tol, f"line moment {2 * k}", abs(moment - target), tol)


def check_line_walk(times, k_max, amps) -> None:
    times = np.asarray(times, dtype=float)
    ref = line_amplitudes(times, k_max)
    _require(np.shape(amps) == ref.shape, "line walk shape")
    tol = 1e4 * EPS * (k_max + 1) * (1.0 + 2.0 * float(np.max(times)))
    dev = float(np.max(np.abs(amps - ref)))
    _require(dev <= tol, f"line walk k_max={k_max}", dev, tol)


def check_ladder(model, array, residual: float) -> None:
    """The oracle's BFS array is the model's, and its ladder residual is rounding."""
    _require(tuple(map(tuple, array)) == model_array(model), f"BFS array of {model}")
    tol = 1e3 * EPS * degree(model)
    _require(residual <= tol, f"ladder residual of {model}", residual, tol)


def check_characters(model, table) -> None:
    """Character table rows: dimensions, row orthogonality, and the DFT for Z_n."""
    table = np.asarray(table, dtype=complex)
    order = group_order(model)
    tol = 1e3 * EPS * order + 10 * PRINT_TOL * order
    dims = table[:, 0]
    dev = float(np.max(np.abs(dims - np.round(dims.real))))
    _require(dev <= tol, "dimensions are integers", dev, tol)
    dev = abs(float(np.sum(np.abs(dims) ** 2)) - order)
    _require(dev <= tol, "squared dimensions sum to the order", dev, tol)
    # Column orthogonality gives each class size as |G| / sum_i |chi_i(g)|^2.
    sizes = order / np.sum(np.abs(table) ** 2, axis=0)
    dev = float(np.max(np.abs(sizes - np.round(sizes))))
    _require(dev <= 1e-6 * order, "class sizes are integers", dev, 1e-6 * order)
    gram = (table * np.round(sizes)) @ table.conj().T
    dev = float(np.max(np.abs(gram - order * np.eye(len(table)))))
    _require(dev <= tol, "row orthogonality", dev, tol)
    if model[0] == "cyclic":
        n = model[1]
        jk = np.outer(np.arange(n), np.arange(n))
        ref = np.exp(2j * np.pi * (jk % n) / n)
        dev = float(np.max(np.abs(table - ref)))
        _require(dev <= tol, "cyclic characters", dev, tol)


def check_verify_table(rc: int, text: str) -> None:
    """Every row of the verify battery passes, re-judged from its printed numbers."""
    _require(rc == 0, f"verify exit status {rc}")
    lines = text.strip().splitlines()
    _require(len(lines) >= 3 and lines[0].split() == ["check", "max_dev", "threshold", "status"],
             "verify header")
    names = []
    for line in lines[1:]:
        name, dev, threshold, status = line.split()
        _require(status == "PASS", f"verify row {name} reads {status}")
        _require(float(dev) < float(threshold), f"verify row {name}", float(dev), float(threshold))
        names.append(name)
    _require("oracle_agreement" in names and "unitarity" in names, "verify rows present")


# ---------------------------------------------------------------------------
# Parsers for CLI output
# ---------------------------------------------------------------------------


def parse_walk(text: str, fmt: str) -> tuple[np.ndarray, np.ndarray]:
    """(times, amplitudes) from `walk` output, also checking prob = |amp|^2."""
    if fmt == "json":
        rows = [(r["t"], r["stratum"], r["re"], r["im"], r["prob"]) for r in json.loads(text)]
    else:
        rows = []
        for line in text.strip().splitlines():
            t, k, re, im, prob = line.split(",")
            rows.append((float(t), int(k), float(re), float(im), float(prob)))
    strata = max(r[1] for r in rows) + 1
    _require(len(rows) % strata == 0, "walk rows form a full grid")
    arr = np.array([(r[0], r[2], r[3], r[4]) for r in rows], dtype=float)
    ks = np.array([r[1] for r in rows])
    _require(bool(np.all(ks == np.tile(np.arange(strata), len(rows) // strata))), "stratum order")
    dev = float(np.max(np.abs(arr[:, 1] ** 2 + arr[:, 2] ** 2 - arr[:, 3])))
    _require(dev <= 4 * PRINT_TOL, "prob = re^2 + im^2", dev, 4 * PRINT_TOL)
    times = arr[::strata, 0]
    amps = (arr[:, 1] + 1j * arr[:, 2]).reshape(-1, strata)
    return times, amps


def parse_pairs(text: str) -> tuple[np.ndarray, np.ndarray]:
    rows = [line.split(",") for line in text.strip().splitlines()]
    return (np.array([float(r[0]) for r in rows]), np.array([float(r[1]) for r in rows]))


def parse_characters(text: str) -> np.ndarray:
    return np.array(
        [[complex(cell.replace("i", "j")) for cell in line.split(",")]
         for line in text.strip().splitlines()]
    )


def check_times(printed, requested) -> None:
    printed = np.asarray(printed, dtype=float)
    requested = np.asarray(requested, dtype=float)
    _require(printed.shape == requested.shape, "time grid length")
    # JSON output keeps 12 significant digits, so the error scales with |t|.
    tol = 10 * PRINT_TOL * (1.0 + float(np.max(np.abs(requested))))
    dev = float(np.max(np.abs(printed - requested)))
    _require(dev <= tol, "time grid", dev, tol)

